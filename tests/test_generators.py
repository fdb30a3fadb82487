"""Tests for the example generators: frozen structure constants for the
truncations, gate behavior on bad requests, the extended comodules, the
negative control, and the randomized pointed coalgebras.
"""

import pytest

from comodule_splitter import (
    Comodule,
    FieldMatrix,
    ParseError,
    StructureMismatch,
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
    bundle_negative_control,
    gen_binomial_truncation,
    gen_extended_comodule,
    gen_group_algebra,
    gen_non_pointed,
    gen_random_pointed,
    gen_sigma_truncation,
    shipped_corpus,
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
    # Relations in the product table: t0^3 = 1 and t1^4 = t1.
    assert c.product[2][1] == ((0, 1),)
    assert c.product[9][3] == ((3, 1),)


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
    assert b.coalgebra.product is None
    assert len(b.grouplikes) == 1
    assert validate_coalgebra(b.coalgebra).ok
    assert validate_comodule_algebra(b.comodule_algebra).ok
    with pytest.raises(ParseError):
        gen_binomial_truncation(2, 1)


# -- extended comodules ---------------------------------------------------------------


def test_extended_comodule_is_cofree():
    tr = gen_sigma_truncation(0)
    b = gen_extended_comodule(tr.coalgebra, 2)
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
    assert validate_comodule_algebra(ma).ok


def test_extended_comodule_needs_a_product_table():
    plain = gen_binomial_truncation(2, 4).coalgebra
    with pytest.raises(StructureMismatch):
        gen_extended_comodule(plain, 2)
    with pytest.raises(ParseError):
        gen_extended_comodule(gen_sigma_truncation(0).coalgebra, 0)


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
