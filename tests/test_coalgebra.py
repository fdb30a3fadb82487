"""Coalgebra axioms, grouplikes, and the two socle filtration algorithms.

Golden dimensions frozen here were computed by running the direct kernel
construction as an oracle before the wedge recursion existed; the two
algorithms are kept honest against each other and, for grouplikes, against
an exhaustive search re-implemented inside the tests.
"""

import itertools
import random

import pytest

from comodule_splitter.coalgebra import (
    Coalgebra,
    Filtration,
    GroupLikeSet,
    _coradical_span,
    change_basis,
    check_pointed_exhaustive,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    direct_sum,
    f1_decomposition,
    find_grouplikes,
    is_grouplike,
    primitives_at,
    tensor_product,
    validate_coalgebra,
)
from comodule_splitter.errors import (
    CapExceeded,
    DeclaredNotGrouplike,
    NotASubcoalgebra,
    NotGrouplike,
    SearchSpaceTooLarge,
    ShapeError,
)
from comodule_splitter.field_linalg import FieldMatrix, Subspace
from comodule_splitter.generators import (
    gen_binomial_truncation,
    gen_group_algebra,
    gen_non_pointed,
    gen_random_pointed,
    gen_sigma_truncation,
)
from oracles import StaircaseMembership, staircase_preimage


def cyclic(p: int, n: int) -> Coalgebra:
    """F_p[Z/n] built by hand, independent of the generator module."""
    delta = tuple(((i, i, 1),) for i in range(n))
    return Coalgebra(p, n, tuple(f"c{i}" for i in range(n)), delta, (1,) * n)


def binomial(p: int, d: int) -> Coalgebra:
    """Truncated binomial coalgebra on 1, x, ..., x^{d-1}, by hand."""
    import math

    delta = tuple(
        tuple((i, k - i, math.comb(k, i) % p) for i in range(k + 1) if math.comb(k, i) % p)
        for k in range(d)
    )
    counit = (1,) + (0,) * (d - 1)
    return Coalgebra(p, d, tuple(f"x{k}" for k in range(d)), delta, counit)


def grouplikes_oracle(c: Coalgebra) -> list[tuple[int, ...]]:
    """Exhaustive search straight from the definition."""
    return [v for v in itertools.product(range(c.p), repeat=c.dim) if is_grouplike(c, v)]


# -- validator -------------------------------------------------------------------------


def test_validator_passes_handmade_examples():
    for c in (cyclic(2, 4), cyclic(3, 3), binomial(2, 4), binomial(3, 5)):
        report = validate_coalgebra(c)
        assert report.ok, [x.name for x in report.failures()]


def test_validator_broken_coassociativity_names_witness():
    # adding x (x) x to Delta(x0) leaves both counit identities intact
    # (counit vanishes on x) but destroys coassociativity
    c = binomial(2, 4)
    delta = list(c.delta)
    delta[0] = delta[0] + ((1, 1, 1),)
    broken = Coalgebra(c.p, c.dim, c.labels, tuple(delta), c.counit)
    report = validate_coalgebra(broken)
    assert not report.ok
    failing = {x.name for x in report.failures()}
    assert "coassociativity" in failing
    assert "counit_left" not in failing and "counit_right" not in failing
    # the witness names a basis element where the identity breaks; the
    # discrepancy first shows up when expanding Delta on x2 through Delta(x0)
    witness = next(x.witness for x in report.failures() if x.name == "coassociativity")
    assert witness is not None and witness in {"x0", "x1", "x2", "x3"}


def test_validator_counit_axiom_failure_with_witness():
    # primitive t but counit(t) = 1: both counit identities break on t
    c = Coalgebra(
        2,
        2,
        ("one", "t"),
        (((0, 0, 1),), ((1, 0, 1), (0, 1, 1))),
        (1, 1),
    )
    report = validate_coalgebra(c)
    assert not report.ok
    failing = {x.name for x in report.failures()}
    assert failing & {"counit_left", "counit_right"}
    for x in report.failures():
        assert x.witness is not None and "t" in x.witness


def test_validator_right_counit_only_failure():
    # Delta(t) = one (x) t + x2 (x) one: applying counit on the left gives t
    # back, applying it on the right gives x2, so only the right identity fails
    c = Coalgebra(
        2,
        3,
        ("one", "t", "x2"),
        (((0, 0, 1),), ((0, 1, 1), (2, 0, 1)), ((2, 0, 1), (0, 2, 1))),
        (1, 0, 0),
    )
    report = validate_coalgebra(c)
    names = {x.name for x in report.failures()}
    assert "counit_right" in names
    assert "counit_left" not in names


# -- grouplikes ------------------------------------------------------------------------


def test_grouplikes_of_z2():
    c = cyclic(2, 2)
    assert is_grouplike(c, (1, 0))
    assert is_grouplike(c, (0, 1))
    assert not is_grouplike(c, (1, 1))
    g = find_grouplikes(c, "brute_force")
    assert sorted(g.vectors) == [(0, 1), (1, 0)]


def test_brute_force_matches_oracle(base_seed):
    cases = [cyclic(2, 4), cyclic(3, 3), binomial(2, 4), binomial(3, 3),
             gen_random_pointed(base_seed % 1000).coalgebra,
             gen_random_pointed(base_seed % 1000 + 1).coalgebra]
    for c in cases:
        got = sorted(find_grouplikes(c, "brute_force").vectors)
        assert got == sorted(grouplikes_oracle(c))


def test_declared_mode_verifies():
    c = cyclic(2, 3)
    ok = Coalgebra(c.p, c.dim, c.labels, c.delta, c.counit,
                   declared_grouplikes=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(find_grouplikes(ok, "declared")) == 3

    bad = Coalgebra(c.p, c.dim, c.labels, c.delta, c.counit,
                    declared_grouplikes=((1, 1, 0),))
    with pytest.raises(DeclaredNotGrouplike):
        find_grouplikes(bad, "declared")

    dependent = Coalgebra(c.p, c.dim, c.labels, c.delta, c.counit,
                          declared_grouplikes=((1, 0, 0), (1, 0, 0)))
    with pytest.raises(DeclaredNotGrouplike):
        find_grouplikes(dependent, "declared")


def test_search_bound_respected():
    c = cyclic(2, 6)
    with pytest.raises(SearchSpaceTooLarge):
        find_grouplikes(c, "brute_force", bound=8)


def test_grouplike_counts_on_sigma_truncations():
    for level in (0, 1):
        c = gen_sigma_truncation(level).coalgebra
        assert len(find_grouplikes(c, "brute_force").vectors) == 3


# -- filtrations -----------------------------------------------------------------------


def test_binomial_2_4_profile_and_primitives():
    c = binomial(2, 4)
    g = find_grouplikes(c, "brute_force")
    assert len(g) == 1
    wedge = coradical_filtration_wedge(c, g)
    direct = coradical_filtration_direct(c, g, 3)
    assert wedge.dims() == (1, 3, 4)
    assert direct.dims() == (1, 3, 4)
    assert wedge.exhaustive and direct.exhaustive
    p1 = primitives_at(c, (1, 0, 0, 0))
    assert p1.dim == 2
    assert p1.contains((0, 1, 0, 0)) and p1.contains((0, 0, 1, 0))


def test_binomial_3_3_profile():
    c = binomial(3, 3)
    g = find_grouplikes(c, "brute_force")
    wedge = coradical_filtration_wedge(c, g)
    assert wedge.dims() == (1, 2, 3)
    assert coradical_filtration_direct(c, g, 2).dims() == (1, 2, 3)


def test_group_algebra_exhausts_at_level_zero():
    for p, n in ((2, 4), (3, 3), (2, 6)):
        c = cyclic(p, n)
        g = find_grouplikes(c, "brute_force")
        filt = coradical_filtration_wedge(c, g)
        assert filt.dims() == (n,)
        assert filt.exhaustive


def test_direct_equals_wedge_level_by_level(base_seed):
    cases = [cyclic(2, 3), binomial(2, 5), binomial(3, 4)]
    cases += [gen_random_pointed(base_seed % 997 + i).coalgebra for i in range(5)]
    for c in cases:
        g = find_grouplikes(c, "brute_force")
        wedge = coradical_filtration_wedge(c, g)
        direct = coradical_filtration_direct(c, g, wedge.top)
        assert len(wedge.levels) == len(direct.levels)
        for a, b in zip(wedge.levels, direct.levels):
            assert a == b


def test_max_level_truncates_wedge():
    c = binomial(2, 5)
    g = find_grouplikes(c, "brute_force")
    short = coradical_filtration_wedge(c, g, k_max=1)
    assert len(short.levels) == 2
    assert not short.exhaustive


def _wedge_by_staircase(c: Coalgebra, g, k_max=None) -> Filtration:
    """The wedge recursion with one fresh staircase_preimage per level: the
    route coradical_filtration_wedge took before it applied q_{F_0} once."""
    r = g.span()
    full = Subspace.full(c.p, c.dim)
    levels = [r]
    stabilized = False
    while k_max is None or len(levels) - 1 < k_max:
        prev = levels[-1]
        if prev.is_full():
            stabilized = True
            break
        nxt = staircase_preimage([(full, prev), (r, full)], c.delta)
        if nxt == prev:
            stabilized = True
            break
        levels.append(nxt)
    return Filtration.build(c.p, c.dim, levels, stabilized or levels[-1].is_full())


def test_wedge_matches_the_per_level_staircase_recursion(base_seed):
    """Equal Filtrations (levels and flags) over F_2, F_3 and F_5, including
    truncations at k_max and a coalgebra whose filtration stalls."""
    bundles = [gen_random_pointed(base_seed + i) for i in range(12)]
    bundles += [gen_binomial_truncation(5, 9), gen_binomial_truncation(3, 10), gen_non_pointed()]
    bundles += [gen_sigma_truncation(level) for level in (1, 2)]
    cases = [(b.coalgebra, b.grouplikes) for b in bundles]
    cases.append((cyclic(3, 2), find_grouplikes(cyclic(3, 2), "brute_force")))
    assert {c.p for c, _ in cases} >= {2, 3, 5}
    stalled = 0
    for c, g in cases:
        for k_max in (None, 0, 1, 2):
            filt = coradical_filtration_wedge(c, g, k_max)
            assert filt == _wedge_by_staircase(c, g, k_max), (c.labels, k_max)
            stalled += filt.stabilized and not filt.exhaustive
    assert stalled > 0


def test_wedge_inverts_as_often_whatever_the_number_of_levels(monkeypatch):
    """Each wedge level is read off the quotient coordinates of the level
    before, so the inverse() calls do not grow with the number of levels."""
    calls = []
    inverse = FieldMatrix.inverse

    def counted(m):
        calls.append(m.nrows)
        return inverse(m)

    monkeypatch.setattr(FieldMatrix, "inverse", counted)
    counts, tops = set(), set()
    for c in (binomial(2, 5), binomial(2, 16), binomial(3, 12)):
        g = GroupLikeSet(c.p, c.dim, ((1,) + (0,) * (c.dim - 1),))
        for k_max in (None, 0, 1, 2):
            calls.clear()
            tops.add(coradical_filtration_wedge(c, g, k_max).top)
            counts.add(len(calls))
    assert len(counts) == 1 and len(tops) >= 4


def test_coradical_closure_checks_both_tensor_factors():
    """With Delta(b) = a (x) b, Delta(span b) lies in C (x) span(b) but not in
    span(b) (x) C; with Delta(b) = b (x) a the other way round.  Either way
    span(b) is not closed, while span(a) is."""
    for delta_b in (((0, 1, 1),), ((1, 0, 1),)):
        c = Coalgebra(2, 2, ("a", "b"), (((0, 0, 1),), delta_b), (1, 0))
        with pytest.raises(NotASubcoalgebra):
            _coradical_span(c, GroupLikeSet(2, 2, ((0, 1),)))
        assert _coradical_span(c, GroupLikeSet(2, 2, ((1, 0),))) == Subspace(2, 2, [(1, 0)])


def test_direct_cap_via_env(monkeypatch):
    c = gen_sigma_truncation(1).coalgebra
    g = find_grouplikes(c, "declared")
    monkeypatch.setenv("COMODULE_SPLITTER_CAP", "100")
    with pytest.raises(CapExceeded):
        coradical_filtration_direct(c, g, 2)
    monkeypatch.delenv("COMODULE_SPLITTER_CAP")
    assert coradical_filtration_direct(c, g, 2).dims() == (3, 9, 12)


def test_non_pointed_certificate_fails():
    c = gen_non_pointed().coalgebra
    assert validate_coalgebra(c).ok
    g = find_grouplikes(c, "declared")
    filt = coradical_filtration_wedge(c, g)
    assert filt.stabilized and not filt.exhaustive
    assert not check_pointed_exhaustive(c, g)


def test_pointed_certificate_holds_on_examples():
    for c in (cyclic(2, 5), binomial(3, 5), gen_sigma_truncation(0).coalgebra):
        g = find_grouplikes(c, "brute_force")
        assert check_pointed_exhaustive(c, g)


# -- F1 decomposition ------------------------------------------------------------------


def test_f1_decomposition_sigma_level_1():
    bundle = gen_sigma_truncation(1)
    report = f1_decomposition(bundle.coalgebra, bundle.grouplikes)
    assert report.ok
    assert report.dim_coradical == 3
    assert report.dim_f1 == 9
    assert tuple(report.primitive_mod_coradical_dims) == (2, 2, 2)


def test_f1_decomposition_binomial():
    c = binomial(2, 4)
    g = find_grouplikes(c, "brute_force")
    report = f1_decomposition(c, g)
    assert report.ok
    assert report.dim_coradical == 1
    assert report.dim_f1 == 3
    assert tuple(report.primitive_mod_coradical_dims) == (2,)


# -- coproduct respects the filtration -------------------------------------------------


def test_coproduct_lands_in_staircase(base_seed):
    cases = [binomial(2, 5), gen_sigma_truncation(1).coalgebra,
             gen_random_pointed(base_seed % 991).coalgebra]
    for c in cases:
        g = find_grouplikes(c, "brute_force")
        filt = coradical_filtration_wedge(c, g)
        dmat = c.delta_matrix()
        for n in range(filt.top + 1):
            terms = [(filt.level(n - j), filt.level(j)) for j in range(n + 1)]
            checker = StaircaseMembership(terms)
            for v in filt.level(n).basis_vectors():
                assert checker.contains(dmat.matvec(v))


# -- structural constructions ----------------------------------------------------------


def test_change_basis_preserves_everything(base_seed):
    rng = random.Random(base_seed + 101)
    c = binomial(2, 4)
    # random invertible change of basis
    while True:
        t = FieldMatrix(2, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
        if t.rank() == 4:
            break
    moved = change_basis(c, t)
    assert validate_coalgebra(moved).ok
    g = find_grouplikes(moved, "brute_force")
    assert len(g) == 1
    assert coradical_filtration_wedge(moved, g).dims() == (1, 3, 4)


def test_tensor_product_multiplies_grouplikes():
    t = tensor_product(cyclic(2, 2), cyclic(2, 3))
    assert validate_coalgebra(t).ok
    assert len(find_grouplikes(t, "brute_force").vectors) == 6


def test_direct_sum_adds_grouplikes():
    s = direct_sum(cyclic(2, 2), cyclic(2, 2))
    assert validate_coalgebra(s).ok
    assert len(find_grouplikes(s, "brute_force").vectors) == 4
    assert s.labels[0].startswith("l.") and s.labels[-1].startswith("r.")


def test_primitives_requires_grouplike_reference():
    c = binomial(2, 4)
    with pytest.raises(NotGrouplike):
        primitives_at(c, (0, 1, 0, 0))


def test_constructor_shape_guards():
    with pytest.raises(ShapeError):
        Coalgebra(2, 2, ("a",), (((0, 0, 1),),) * 2, (1, 0))
    with pytest.raises(ShapeError):
        Coalgebra(2, 2, ("a", "b"), (((0, 5, 1),), ()), (1, 0))
    with pytest.raises(ShapeError):
        Coalgebra(2, 2, ("a", "a"), (((0, 0, 1),), ()), (1, 0))
