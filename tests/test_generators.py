"""Tests for the example generators: frozen structure constants for the
truncations, gate behavior on bad requests, the extended comodules, the
negative control, and the randomized pointed coalgebras.
"""

import hashlib

import pytest

from comodule_splitter import (
    Comodule,
    FieldMatrix,
    ParseError,
    UnsupportedLevel,
    check_pointed_exhaustive,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    find_grouplikes,
    validate_coalgebra,
    validate_comodule,
    validate_comodule_algebra,
)
from comodule_splitter.generators import (
    bundle_extended,
    bundle_negative_control,
    bundle_sigma_regular,
    gen_binomial_truncation,
    gen_extended_comodule,
    gen_group_algebra,
    gen_non_pointed,
    gen_random_pointed,
    gen_sigma_truncation,
    shipped_corpus,
)
from oracles import (
    cyclic_product_table,
    extended_product_table,
    left_mult_matrix,
    sigma_product_table,
    validate_with_product_tier,
)

CORPUS_EXPECTATIONS = {
    "binomial_2_4_id": "certified",
    "extended_a2_level0": "certified",
    "extended_a3_level0": "certified",
    "extended_a2_level1": "certified",
    "extended_a3_level1": "certified",
    "sigma_level0_id": "certified",
    "sigma_level1_id": "certified",
    "sigma_level2_id": "certified",
    "control_zero_map": "hypothesis_not_met",
}


# -- truncations ---------------------------------------------------------------------


def test_truncation_dimensions_and_filtration_profiles():
    for level, dim, profile in (
        (0, 3, (3,)),
        (1, 12, (3, 9, 12)),
        (2, 48, (3, 12, 24, 36, 45, 48)),
    ):
        tr = gen_sigma_truncation(level)
        assert tr.coalgebra.dim == dim
        filt = coradical_filtration_wedge(tr.coalgebra, tr.grouplikes)
        assert filt.dims() == profile
        assert filt.exhaustive


def test_level0_truncation_is_the_cyclic_group_algebra():
    tr = gen_sigma_truncation(0)
    cyclic = gen_group_algebra(2, 3).coalgebra
    assert tr.coalgebra.core_equal(cyclic)
    assert not tr.coalgebra.labels == cyclic.labels


def test_level1_structure_constants_by_hand():
    c = gen_sigma_truncation(1).coalgebra
    assert c.labels == (
        "1", "t0", "t0^2", "t1", "t0*t1", "t0^2*t1",
        "t1^2", "t0*t1^2", "t0^2*t1^2", "t1^3", "t0*t1^3", "t0^2*t1^3",
    )
    # t1 is primitive; t0*t1 expands by the product rule against Delta(t0).
    assert set(c.delta[3]) == {(0, 3, 1), (3, 0, 1)}
    assert set(c.delta[4]) == {(1, 4, 1), (4, 1, 1)}
    assert c.counit == (1, 1, 1) + (0,) * 9
    # Relations in the oracle's product table: t0^3 = 1 and t1^4 = t1.
    product = sigma_product_table(1)
    assert product[2][1] == ((0, 1),)
    assert product[9][3] == ((3, 1),)


def test_level2_diagonal_of_the_new_generator():
    c = gen_sigma_truncation(2).coalgebra
    assert c.labels[12] == "t2"
    assert c.labels[6] == "t1^2"
    assert set(c.delta[12]) == {(0, 12, 1), (3, 6, 1), (12, 0, 1)}


def test_truncations_pass_their_own_validators():
    for level in (0, 1, 2):
        tr = gen_sigma_truncation(level)
        assert validate_coalgebra(tr.coalgebra).ok
        assert check_pointed_exhaustive(tr.coalgebra, tr.grouplikes)
        assert len(tr.grouplikes) == 3
        assert len(tr.monomials) == tr.coalgebra.dim


def test_brute_force_grouplikes_match_declared_at_small_levels():
    for level in (0, 1):
        tr = gen_sigma_truncation(level)
        found = find_grouplikes(tr.coalgebra, "brute_force")
        assert set(found.vectors) == set(tr.grouplikes.vectors)


def test_unsupported_truncation_levels_are_refused():
    for level in (3, 9, -1):
        with pytest.raises(UnsupportedLevel):
            gen_sigma_truncation(level)


# -- group algebras and binomial truncations ------------------------------------------


def test_group_algebra_bundle_shape():
    b = gen_group_algebra(3, 4)
    assert b.name == "group_algebra_3_4_id"
    assert b.coalgebra.dim == 4
    assert len(b.grouplikes) == 4
    assert validate_coalgebra(b.coalgebra).ok
    assert validate_comodule_algebra(b.comodule_algebra).ok
    with pytest.raises(ParseError):
        gen_group_algebra(2, 0)


def test_binomial_bundle_shape():
    b = gen_binomial_truncation(3, 5)
    assert b.name == "binomial_3_5_id"
    assert b.coalgebra.dim == 5
    assert not hasattr(b.coalgebra, "product")
    assert len(b.grouplikes) == 1
    assert validate_coalgebra(b.coalgebra).ok
    assert validate_comodule_algebra(b.comodule_algebra).ok
    with pytest.raises(ParseError):
        gen_binomial_truncation(2, 1)


# -- extended comodules ---------------------------------------------------------------


def test_extended_comodule_is_cofree():
    tr = gen_sigma_truncation(0)
    b = gen_extended_comodule(tr, 2)
    assert b.name == "extended_a2"
    ma = b.comodule_algebra
    s = tr.coalgebra.dim
    assert ma.dim == 2 * s
    assert ma.base.labels[:s] == tr.coalgebra.labels
    assert ma.base.labels[s] == "a1*1"
    # The coaction on the shifted block is Delta shifted along with it.
    assert ma.base.psi[s + 1] == tuple(
        (s + j, l, c) for j, l, c in tr.coalgebra.delta[1]
    )
    assert ma.unit == (1,) + (0,) * (2 * s - 1)
    assert b.splitting_map.matrix.rows_as_lists() == [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
    assert validate_comodule(ma.base).ok
    assert not hasattr(ma, "product")
    report = validate_with_product_tier(ma, extended_product_table(0, 2), sigma_product_table(0))
    assert report.ok and len(report.checks) == 12


# sha256 of repr(product) for the product table of bundle_extended(level,
# a_dim), as gen_extended_comodule built it before it stopped building one.
EXTENDED_PRODUCT_SHA256 = {
    (0, 2): "cb0a493e41eab4f20db4b388462ff79b544605fc321251835899d3daae3f2be6",
    (1, 3): "cbac3100beab9b0850f98ddf2a2de386afa692d1643e85596f118e9877b6b6a8",
    (2, 2): "b87663c9168b1bfb3cee9a6f829076b91773dce20a3a2964608e7a5268932d9f",
}


def test_extended_bundles_carry_no_product_table():
    ma = bundle_extended(1, 3).comodule_algebra
    assert not hasattr(ma, "product")
    assert not hasattr(gen_extended_comodule(gen_sigma_truncation(2), 2).comodule_algebra, "product")
    report = validate_comodule_algebra(ma)
    assert report.ok and len(report.checks) == 9


@pytest.mark.parametrize("level, a_dim", sorted(EXTENDED_PRODUCT_SHA256))
def test_the_product_tier_passes_on_extended_bundles(level, a_dim):
    b = bundle_extended(level, a_dim)
    table = extended_product_table(level, a_dim)
    assert hashlib.sha256(repr(table).encode()).hexdigest() == EXTENDED_PRODUCT_SHA256[level, a_dim]
    report = validate_with_product_tier(b.comodule_algebra, table, sigma_product_table(level))
    assert report.ok and len(report.checks) == 12


def test_one_edited_product_cell_fails_the_product_tier():
    b = bundle_extended(1, 3)
    table = extended_product_table(1, 3)
    labels = b.comodule_algebra.base.labels
    t0, t1 = labels.index("t0"), labels.index("t1")

    def failing_with(i, j, cell):
        rows = [list(row) for row in table]
        rows[i][j] = cell
        report = validate_with_product_tier(b.comodule_algebra, tuple(map(tuple, rows)), sigma_product_table(1))
        return {c.name for c in report.failures()}

    # t0 * t1 is a column of the action of t0, which the edit leaves alone.
    assert "action_is_left_multiplication" in failing_with(t0, t1, ())
    # With t1 * t1 = 0, psi(t1 * t1) = 0 but psi(t1) psi(t1) = 1 (x) t1^2.
    assert failing_with(t1, t1, ()) == {"coaction_is_algebra_map"}


# sha256 of repr(table) for the oracle product tables, equal to the tables
# that gen_sigma_truncation and gen_group_algebra attached before the
# generators stopped building them.
SIGMA_PRODUCT_SHA256 = {
    0: "e999fb6f173090fa8954b8566e998bd0df1c743287f795fa6ffa538bd60c1eef",
    1: "2059b4d7494fb0c64d818c048d231a88ea84e7f0e042ef03d355a7a261767432",
    2: "fb6a1f9cb8d90977e607067431ac64424c17aa9faf58a88bbea8702f6262fc56",
}
CYCLIC_PRODUCT_SHA256 = {
    4: "796e061f2aa226dd084e9056cb1e6c5f2b8d8b52cca61fb2744c246c7e0cd2f5",
    5: "64996122f9adc37e958c776be17a880d388a7cb568e8b6be9794b68e9a0aa2ff",
}


def _sha256_repr(table) -> str:
    return hashlib.sha256(repr(table).encode()).hexdigest()


def test_oracle_product_tables_are_pinned():
    for level, digest in SIGMA_PRODUCT_SHA256.items():
        assert _sha256_repr(sigma_product_table(level)) == digest, level
    for n, digest in CYCLIC_PRODUCT_SHA256.items():
        assert _sha256_repr(cyclic_product_table(n)) == digest, n


@pytest.mark.parametrize("level", [0, 1, 2])
def test_sigma_left_mults_are_left_multiplication(level):
    """Each lambda_g of a Sigma truncation, built from the monomial law, is
    left multiplication by g read off the oracle table, and the regular
    bundle acts by it on both sides; with both tables attached, the
    regular bundle passes all 12 checks."""
    tr = gen_sigma_truncation(level)
    table = sigma_product_table(level)
    c = tr.coalgebra
    assert tr.left_mults == tuple(left_mult_matrix(table, 2, c.dim, g) for g in tr.grouplikes)
    ma = bundle_sigma_regular(level).comodule_algebra
    assert ma.action == ma.sigma_action == tr.left_mults
    report = validate_with_product_tier(ma, table, table)
    assert report.ok and len(report.checks) == 12


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_algebra_left_mults_are_left_multiplication(p, n):
    """lambda_(g^i) of k[Z/n], built from (i + j) mod n, is left
    multiplication read off the oracle table; the bundle passes all 12
    checks with that table on M and on Sigma."""
    ma = gen_group_algebra(p, n).comodule_algebra
    table = cyclic_product_table(n)
    assert ma.sigma_action == tuple(left_mult_matrix(table, p, n, g) for g in ma.grouplikes)
    assert ma.action == ma.sigma_action
    report = validate_with_product_tier(ma, table, table)
    assert report.ok and len(report.checks) == 12


def test_extended_comodule_refuses_an_empty_algebra_factor():
    with pytest.raises(ParseError):
        gen_extended_comodule(gen_sigma_truncation(0), 0)


# -- the negative control -------------------------------------------------------------


def test_negative_control_is_valid_but_not_surjective():
    b = bundle_negative_control()
    assert b.name == "control_zero_map"
    assert b.expected_outcome == "hypothesis_not_met"
    assert b.splitting_map.matrix == FieldMatrix.zeros(2, 3, 3)
    assert b.splitting_map.is_comodule_map()
    assert validate_coalgebra(b.coalgebra).ok
    assert validate_comodule_algebra(b.comodule_algebra).ok


# -- adversarial and randomized coalgebras --------------------------------------------


def test_non_pointed_example_stalls():
    b = gen_non_pointed()
    assert validate_coalgebra(b.coalgebra).ok
    assert len(b.grouplikes) == 1
    filt = coradical_filtration_wedge(b.coalgebra, b.grouplikes)
    assert filt.dims() == (1,)
    assert filt.stabilized
    assert not filt.exhaustive
    assert not check_pointed_exhaustive(b.coalgebra, b.grouplikes)


def test_random_pointed_is_deterministic_and_valid(base_seed):
    for offset in range(4):
        seed = base_seed + offset
        first = gen_random_pointed(seed)
        second = gen_random_pointed(seed)
        assert first.name == f"random_pointed_{seed}"
        assert first.coalgebra == second.coalgebra
        assert first.grouplikes.vectors == second.grouplikes.vectors
        c, g = first.coalgebra, first.grouplikes
        assert c.dim <= 6
        assert validate_coalgebra(c).ok
        assert len(g) >= 1
        wedge = coradical_filtration_wedge(c, g)
        direct = coradical_filtration_direct(c, g, k_max=3)
        for k in range(min(len(direct.levels), len(wedge.levels))):
            assert direct.level(k) == wedge.level(k)
        assert wedge.exhaustive


# -- the shipped corpus ---------------------------------------------------------------


def test_shipped_corpus_contents(corpus):
    assert {b.name: b.expected_outcome for b in corpus} == CORPUS_EXPECTATIONS
    for b in corpus:
        assert b.comodule_algebra is not None
        assert b.splitting_map is not None
        assert validate_coalgebra(b.coalgebra).ok
        assert b.splitting_map.source is b.comodule_algebra.base


def test_regular_bundles_use_the_regular_comodule(corpus):
    bundles = {b.name: b for b in corpus}
    for name in ("sigma_level0_id", "sigma_level1_id", "sigma_level2_id", "binomial_2_4_id"):
        b = bundles[name]
        reg = Comodule.regular(b.coalgebra)
        assert b.comodule_algebra.base.psi == reg.psi
