"""Comodules: validators, filtrations, primitives, cotensor, and the graded
surjectivity check.

The cotensor computation is cross-checked against the dense equalizer kernel
built with explicit Kronecker products, and the comodule filtration of the
regular comodule against the coalgebra-side filtration computed by two other
algorithms.
"""

import dataclasses
import random

import pytest

from comodule_splitter.coalgebra import (
    Coalgebra,
    Filtration,
    GroupLikeSet,
    _coradical_span,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    find_grouplikes,
    validate_coalgebra,
)
from comodule_splitter.comodule import (
    Comodule,
    ComoduleAlgebra,
    ComoduleMap,
    LeftComodule,
    check_star_surjective,
    comodule_filtration,
    comodule_primitives_at,
    comodule_primitives_total,
    cotensor,
    graded_left_primitives,
    validate_comodule,
    validate_comodule_algebra,
)
from comodule_splitter.errors import (
    NotAComoduleMap,
    NotASubcoalgebra,
    ShapeError,
    StructureMismatch,
)
from comodule_splitter.field_linalg import (
    AdaptedCoaction,
    FieldMatrix,
    Subspace,
    adapted_basis,
    image,
)
from comodule_splitter.generators import (
    bundle_extended,
    bundle_sigma_regular,
    gen_binomial_truncation,
    gen_group_algebra,
    gen_random_pointed,
    gen_sigma_truncation,
)
from oracles import (
    StaircaseMembership,
    check_map_preserves_filtration,
    coassociativity_witness,
    cofree,
    extended_product_table,
    intersect,
    multiplicative_witness,
    preimage,
    primitives_cotensor_embedding,
    psi_matrix,
    staircase_preimage,
    spread_rewrite,
    staircase_sum,
    tensor,
)


def _sigma_filt(c):
    mode = "declared" if c.declared_grouplikes is not None else "brute_force"
    return coradical_filtration_wedge(c, find_grouplikes(c, mode))


def _replace(ma: ComoduleAlgebra, **kw) -> ComoduleAlgebra:
    args = {
        "base": ma.base,
        "grouplikes": ma.grouplikes,
        "action": ma.action,
        "unit": ma.unit,
        "augmentation": ma.augmentation,
        "sigma_action": ma.sigma_action,
        "product": ma.product,
    }
    args.update(kw)
    return ComoduleAlgebra(**args)


# -- plain comodule validation ---------------------------------------------------------


def test_regular_comodules_validate(corpus):
    for bundle in corpus:
        m = Comodule.regular(bundle.coalgebra)
        assert validate_comodule(m).ok


def test_dropped_psi_term_is_caught_with_witness():
    sigma = gen_sigma_truncation(0).coalgebra
    m = Comodule.regular(sigma)
    crippled = tuple(t if i != 1 else () for i, t in enumerate(m.psi))
    broken = Comodule(sigma, m.dim, m.labels, crippled)
    report = validate_comodule(broken)
    assert not report.ok
    assert any(x.witness for x in report.failures())


def test_comodule_algebra_validates_on_corpus(corpus):
    """Every corpus bundle validates; the extended ones with M's product table
    attached from the oracle, so that all 12 checks run on them too."""
    for bundle in corpus:
        ma = bundle.comodule_algebra
        if bundle.name.startswith("extended_"):
            a_dim = ma.dim // bundle.coalgebra.dim
            ma = _replace(ma, product=extended_product_table(bundle.coalgebra, a_dim))
        report = validate_comodule_algebra(ma)
        assert report.ok, (bundle.name, [x.name for x in report.failures()])
        assert len(report.checks) == (9 if ma.product is None else 12), bundle.name


# -- targeted comodule-algebra mutations -----------------------------------------------


def _failing_names(ma):
    return {x.name for x in validate_comodule_algebra(ma).failures()}


def test_mutation_unit_not_coinvariant():
    ma = bundle_sigma_regular(1).comodule_algebra
    bad_unit = list(ma.unit)
    bad_unit[3] = 1  # add the generator t1 to the unit
    names = _failing_names(_replace(ma, unit=tuple(bad_unit)))
    assert "unit_coinvariant" in names


def test_mutation_augmentation_of_unit():
    ma = bundle_sigma_regular(1).comodule_algebra
    bad_aug = tuple(0 for _ in ma.augmentation)
    names = _failing_names(_replace(ma, augmentation=bad_aug))
    assert "augmentation_of_unit" in names


def test_mutation_identity_acting_nontrivially():
    ma = bundle_sigma_regular(0).comodule_algebra
    w = ma.unit_grouplike_index()
    action = list(ma.action)
    other = (w + 1) % len(action)
    action[w], action[other] = action[other], action[w]
    names = _failing_names(_replace(ma, action=tuple(action), sigma_action=None, product=None))
    assert "identity_acts_trivially" in names


def test_mutation_singular_action():
    ma = bundle_sigma_regular(0).comodule_algebra
    action = list(ma.action)
    action[1] = FieldMatrix.zeros(ma.p, ma.dim, ma.dim)
    names = _failing_names(_replace(ma, action=tuple(action), sigma_action=None, product=None))
    assert "action_invertible" in names


def test_mutation_grouplike_drift():
    # let g act by a matrix that fixes the unit line but is not left
    # multiplication: psi(A_g eta) = eta (x) 1 instead of (A_g eta) (x) g
    ma = bundle_sigma_regular(0).comodule_algebra
    action = list(ma.action)
    action[1] = FieldMatrix.identity(ma.p, ma.dim)
    names = _failing_names(_replace(ma, action=tuple(action), sigma_action=None, product=None))
    assert "grouplikes_stay_grouplike" in names


def test_mutation_action_not_closed():
    # an invertible matrix outside the translation family composes out of the set
    ma = bundle_sigma_regular(0).comodule_algebra
    rogue = FieldMatrix(2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    action = (ma.action[0], rogue, ma.action[2])
    names = _failing_names(_replace(ma, action=action, sigma_action=None, product=None))
    assert "action_closed_under_composition" in names


def test_mutation_sigma_action_group_law():
    ma = bundle_sigma_regular(0).comodule_algebra
    assert ma.sigma_action is not None
    sa = list(ma.sigma_action)
    sa[1], sa[2] = sa[2], sa[1]
    names = _failing_names(_replace(ma, sigma_action=tuple(sa), product=None))
    assert {"coaction_multiplicative", "action_follows_group_law"} & names


def test_mutation_product_unit():
    ma = bundle_sigma_regular(0).comodule_algebra
    assert ma.product is not None
    # a product that is identically zero cannot have eta as its identity
    zero_product = tuple(tuple(() for _ in range(ma.dim)) for _ in range(ma.dim))
    names = _failing_names(_replace(ma, product=zero_product))
    assert "unit_is_multiplicative_identity" in names


def test_unit_grouplike_index_none_when_unit_is_not_coinvariant():
    ma = bundle_sigma_regular(1).comodule_algebra
    bad_unit = list(ma.unit)
    bad_unit[3] = 1
    assert _replace(ma, unit=tuple(bad_unit)).unit_grouplike_index() is None


# -- the one residual routine against the literal oracles ----------------------------


def _bump_triples(rng, p, rows, first_dim, second_dim):
    """The structure constants with one entry moved by a nonzero amount."""
    rows = list(rows)
    i = rng.randrange(len(rows))
    rows[i] = rows[i] + ((rng.randrange(first_dim), rng.randrange(second_dim), rng.randrange(1, p)),)
    return tuple(rows)


def _bump_matrix(rng, a):
    rows = a.rows_as_lists()
    rows[rng.randrange(a.nrows)][rng.randrange(a.ncols)] += rng.randrange(1, a.p)
    return FieldMatrix(a.p, rows, ncols=a.ncols)


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    assert check.passed == (check.witness is None)
    return check.witness


def _residual_cases(corpus, base_seed):
    return (
        list(corpus)
        + [gen_binomial_truncation(3, d) for d in (9, 27)]
        + [gen_random_pointed(base_seed + offset) for offset in range(6)]
    )


def test_coassociativity_verdicts_match_the_literal_loops(corpus, base_seed):
    """Coassociativity of Delta, of psi and of left comodules, read off the
    one residual routine, names the same label as the literal triple loops,
    on honest structure constants and on single-entry edits of them: the
    corpus, binomial_3_* and random pointed coalgebras over F_2 and F_3."""
    rng = random.Random(base_seed)
    failed = 0
    for b in _residual_cases(corpus, base_seed):
        sigma, g = b.coalgebra, b.grouplikes
        p, s = sigma.p, sigma.dim
        for c in [sigma] + [dataclasses.replace(sigma, delta=_bump_triples(rng, p, sigma.delta, s, s))
                            for _ in range(4)]:
            witness = _check(validate_coalgebra(c), "coassociativity")
            assert witness == coassociativity_witness(c.labels, c.delta, c.delta, c.delta, p), b.name
            failed += witness is not None
        comodules = [Comodule.regular(sigma), cofree(sigma, 2)]
        if b.comodule_algebra is not None:
            comodules.append(b.comodule_algebra.base)
        for m in comodules:
            for m2 in [m] + [dataclasses.replace(m, psi=_bump_triples(rng, p, m.psi, m.dim, s))
                             for _ in range(3)]:
                witness = _check(validate_comodule(m2), "coassociativity")
                assert witness == coassociativity_witness(m2.labels, m2.psi, m2.psi, sigma.delta, p), b.name
                failed += witness is not None
        lefts = [LeftComodule.regular(sigma), LeftComodule.coradical(sigma, g),
                 LeftComodule.grouplike_line(sigma, g.vectors[-1])]
        for n in lefts:
            for n2 in [n] + [dataclasses.replace(n, psi=_bump_triples(rng, p, n.psi, s, n.dim))
                             for _ in range(3)]:
                witness = _check(n2.validate(), "coassociativity")
                assert witness == coassociativity_witness(n2.labels, n2.psi, sigma.delta, n2.psi, p), b.name
                failed += witness is not None
    assert failed >= 100


def test_multiplicativity_verdicts_match_the_dense_check(corpus, base_seed):
    """coaction_multiplicative, read off the one residual routine, names the
    same grouplike as psi a = (a (x) lambda) psi over dense matrices, for
    every comodule algebra with a known lambda and for single-entry edits
    of lambda_g and of a_g.  Some lambda_g edits leave every other check
    passing."""
    rng = random.Random(base_seed)
    failed = alone = 0
    for b in _residual_cases(corpus, base_seed):
        ma = b.comodule_algebra
        if ma is None:
            continue
        # the product table checks are slow at this size and ignore lambda and a
        ma = _replace(ma, product=None)
        cases = [ma]
        for _ in range(3):
            idx = rng.randrange(len(ma.action))
            lam, act = list(ma.sigma_action), list(ma.action)
            lam[idx], act[idx] = _bump_matrix(rng, lam[idx]), _bump_matrix(rng, act[idx])
            cases += [_replace(ma, sigma_action=tuple(lam)), _replace(ma, action=tuple(act))]
        for case in cases:
            report = validate_comodule_algebra(case)
            witness = _check(report, "coaction_multiplicative")
            assert witness == multiplicative_witness(case), b.name
            failed += witness is not None
            alone += [c.name for c in report.failures()] == ["coaction_multiplicative"]
    assert failed >= 10 and alone >= 1


def test_multiplicativity_can_fail_alone():
    """Over binomial_3_9 the one grouplike is 1 and lambda_1 the identity.
    Moving lambda_1 off the identity at a column outside the grouplike's
    support breaks psi a = (a (x) lambda) psi and nothing else."""
    ma = gen_binomial_truncation(3, 9).comodule_algebra
    rows = ma.sigma_action[0].rows_as_lists()
    rows[0][1] = 1
    broken = _replace(ma, sigma_action=(FieldMatrix(3, rows),))
    assert [c.name for c in validate_comodule_algebra(broken).failures()] == ["coaction_multiplicative"]
    assert _check(validate_comodule_algebra(broken), "coaction_multiplicative") == "grouplike 0"
    assert multiplicative_witness(broken) == "grouplike 0"


# -- comodule maps ---------------------------------------------------------------------


def test_identity_is_a_comodule_map(corpus):
    for bundle in corpus:
        f = bundle.splitting_map
        assert (not any(f.residual())) == f.is_comodule_map()
        if bundle.name != "control_zero_map":
            assert f.is_comodule_map()


def test_non_comodule_map_detected():
    sigma = gen_sigma_truncation(1).coalgebra
    m = Comodule.regular(sigma)
    # swapping the unit with the primitive generator t1 does not commute with Delta
    mat = FieldMatrix.identity(2, 12).rows_as_lists()
    mat[0][0], mat[0][3] = 0, 1
    mat[3][3], mat[3][0] = 0, 1
    f = ComoduleMap(m, m, FieldMatrix(2, mat))
    assert not f.is_comodule_map()


def test_map_requires_same_coalgebra():
    m1 = Comodule.regular(gen_sigma_truncation(0).coalgebra)
    m2 = Comodule.regular(gen_binomial_truncation(2, 4).coalgebra)
    with pytest.raises(StructureMismatch):
        ComoduleMap(m1, m2, FieldMatrix.zeros(2, 4, 3))


def test_map_shape_guard():
    m = Comodule.regular(gen_sigma_truncation(0).coalgebra)
    with pytest.raises(ShapeError):
        ComoduleMap(m, m, FieldMatrix.zeros(2, 2, 3))


# -- filtrations on comodules ----------------------------------------------------------


def test_three_filtrations_agree_for_regular(corpus):
    seen = set()
    for bundle in corpus:
        sigma = bundle.coalgebra
        if sigma.dim in seen or sigma.dim > 12:
            continue
        seen.add(sigma.dim)
        g = find_grouplikes(sigma, "brute_force")
        coalg = coradical_filtration_wedge(sigma, g)
        m = Comodule.regular(sigma)
        right = comodule_filtration(m, coalg)
        dmat = sigma.delta_matrix()
        full = Subspace.full(sigma.p, sigma.dim)
        for k in range(coalg.top + 1):
            # right version psi^{-1}(M (x) F_k) computed by comodule_filtration
            assert right.level(k) == coalg.level(k)
            # left version Delta^{-1}(F_k (x) C) computed here from scratch
            left_k = preimage(dmat, tensor(coalg.level(k), full))
            assert left_k == coalg.level(k)


def test_extended_comodule_filtration_is_v_tensor_f(corpus):
    for a_dim, level in ((2, 0), (2, 1), (3, 0)):
        bundle = bundle_extended(level, a_dim)
        sigma = bundle.coalgebra
        filt = _sigma_filt(sigma)
        mfilt = comodule_filtration(bundle.comodule_algebra.base, filt)
        v_full = Subspace.full(sigma.p, a_dim)
        for k in range(filt.top + 1):
            assert mfilt.level(k) == tensor(v_full, filt.level(k))


# -- primitives ------------------------------------------------------------------------


def test_comodule_primitives_regular_sigma_level1():
    bundle = bundle_sigma_regular(1)
    m = bundle.comodule_algebra.base
    g = bundle.comodule_algebra.grouplikes
    total, report = comodule_primitives_total(m, g)
    assert report.ok
    assert report.total_dim == 3
    assert tuple(report.per_grouplike_dims) == (1, 1, 1)
    assert report.equals_f0 and report.direct


def test_comodule_primitives_extended():
    bundle = bundle_extended(1, 2)
    ma = bundle.comodule_algebra
    total, report = comodule_primitives_total(ma.base, ma.grouplikes)
    assert report.total_dim == 6
    assert tuple(report.per_grouplike_dims) == (2, 2, 2)


def test_graded_left_primitive_dims_frozen():
    assert [graded_left_primitives(bundle_sigma_regular(0).comodule_algebra, k).dim
            for k in (0, 1)] == [1, 3]
    assert [graded_left_primitives(bundle_sigma_regular(1).comodule_algebra, k).dim
            for k in (0, 1, 2)] == [1, 5, 10]


# -- cotensor --------------------------------------------------------------------------


def _cotensor_dense_oracle(m: Comodule, n: LeftComodule) -> Subspace:
    """Kernel of psi (x) id_N - id_M (x) psi' built with explicit Kroneckers."""
    p = m.p
    s = m.over.dim
    i_m = FieldMatrix.identity(p, m.dim)
    i_n = FieldMatrix.identity(p, n.dim)
    left = psi_matrix(m).kron(i_n)
    psi_n_cols = []
    for j in range(n.dim):
        col = [0] * (s * n.dim)
        for k, b, c in n.psi[j]:
            col[k * n.dim + b] = (col[k * n.dim + b] + c) % p
        psi_n_cols.append(col)
    psi_n = FieldMatrix.from_cols(p, psi_n_cols, nrows=s * n.dim)
    right = i_m.kron(psi_n)
    return (left - right).kernel()


def test_cotensor_matches_dense_oracle():
    for level in (0, 1):
        sigma = gen_sigma_truncation(level).coalgebra
        m = Comodule.regular(sigma)
        for n in (LeftComodule.regular(sigma),
                  LeftComodule.coradical(sigma, find_grouplikes(sigma, "declared")),
                  LeftComodule.grouplike_line(sigma, (1,) + (0,) * (sigma.dim - 1))):
            assert cotensor(m, n) == _cotensor_dense_oracle(m, n)


def test_cotensor_with_sigma_recovers_m():
    for bundle_fn in (lambda: bundle_sigma_regular(1), lambda: bundle_extended(0, 3)):
        m = bundle_fn().comodule_algebra.base
        box = cotensor(m, LeftComodule.regular(m.over))
        assert box.dim == m.dim
        # psi itself is the isomorphism onto the cotensor
        psi = psi_matrix(m)
        assert psi.rank() == m.dim
        for j in range(m.dim):
            assert box.contains(psi.col(j))


def test_cotensor_with_grouplike_line_is_p_g():
    bundle = bundle_extended(1, 2)
    m = bundle.comodule_algebra.base
    for g in bundle.comodule_algebra.grouplikes:
        # the line comodule k.g is one-dimensional, so M (x) k.g is M itself
        # and the cotensor must come out as exactly the g-primitives
        box = cotensor(m, LeftComodule.grouplike_line(m.over, g))
        assert box == comodule_primitives_at(m, g)


def test_primitives_embed_into_cotensor_with_coradical():
    bundle = bundle_extended(1, 2)
    m = bundle.comodule_algebra.base
    g = bundle.comodule_algebra.grouplikes
    box = cotensor(m, LeftComodule.coradical(m.over, g))
    emb = primitives_cotensor_embedding(m, g)
    total, _ = comodule_primitives_total(m, g)
    assert emb.rank() == total.dim == box.dim
    for j in range(emb.ncols):
        assert box.contains(emb.col(j))


def test_cotensor_with_coradical_is_total_primitives():
    bundle = bundle_sigma_regular(1)
    m = bundle.comodule_algebra.base
    g = bundle.comodule_algebra.grouplikes
    box = cotensor(m, LeftComodule.coradical(m.over, g))
    total, report = comodule_primitives_total(m, g)
    assert box.dim == total.dim == report.f0_dim


def test_cotensor_rejects_mixed_coalgebras():
    m = Comodule.regular(gen_sigma_truncation(0).coalgebra)
    n = LeftComodule.regular(gen_binomial_truncation(2, 4).coalgebra)
    with pytest.raises(StructureMismatch):
        cotensor(m, n)


# -- coaction lands in the primitive staircase -----------------------------------------


def test_psi_of_filtration_in_primitive_staircase(corpus):
    for bundle in corpus:
        ma = bundle.comodule_algebra
        m = ma.base
        sigma_filt = _sigma_filt(m.over)
        mfilt = comodule_filtration(m, sigma_filt)
        p_total, _ = comodule_primitives_total(m, ma.grouplikes)
        full = Subspace.full(m.p, m.dim)
        psi = psi_matrix(m)
        for k in range(mfilt.top + 1):
            checker = StaircaseMembership(
                [(full, sigma_filt.level(k - 1)), (p_total, sigma_filt.level(k))]
            )
            for v in mfilt.level(k).basis_vectors():
                assert checker.contains(psi.matvec(v))


# -- staircase preimages against the literal route ---------------------------------------


def _literal_preimage(matrix: FieldMatrix, terms) -> Subspace:
    """The route the staircase kernel replaces: build the tensor sum in full
    and reduce the columns of the dense matrix against it."""
    return preimage(matrix, staircase_sum(terms))


def _staircase_cases(corpus, base_seed):
    """Comodule algebras to hold the staircase kernel to: the cofree
    comodule F^2 (x) Sigma over random pointed coalgebras (unit w in the
    first copy, for a random grouplike w), a binomial truncation over F_3,
    and every corpus bundle."""
    cases = []
    for offset in range(12):
        bundle = gen_random_pointed(base_seed + offset)
        sigma, g = bundle.coalgebra, bundle.grouplikes
        w = random.Random(base_seed + offset).choice(g.vectors)
        m = cofree(sigma, 2)
        ident = FieldMatrix.identity(sigma.p, m.dim)
        pad = (0,) * sigma.dim
        cases.append(
            ComoduleAlgebra(m, g, (ident,) * len(g), tuple(w) + pad, sigma.counit + pad)
        )
    cases.append(gen_binomial_truncation(3, 12).comodule_algebra)
    cases += [b.comodule_algebra for b in corpus]
    return cases


def test_staircase_preimages_match_the_literal_route(corpus, base_seed):
    """Every layer read off the triples equals the literal preimage of the
    built-out tensor sum: each level of the wedge filtration (one past the
    top), of comodule_filtration, of both graded-primitive sides, and F_0(M)."""
    cases = _staircase_cases(corpus, base_seed)
    assert {ma.p for ma in cases} == {2, 3}
    for ma in cases:
        p, m, sigma = ma.p, ma.base, ma.sigma
        psi, delta = psi_matrix(m), sigma.delta_matrix()
        full_m, full_s = Subspace.full(p, m.dim), Subspace.full(p, sigma.dim)
        filt = coradical_filtration_wedge(sigma, ma.grouplikes)
        f0 = filt.level(0)
        for n in range(1, filt.top + 2):
            wedge_terms = [(full_s, filt.level(n - 1)), (f0, full_s)]
            assert filt.level(n) == _literal_preimage(delta, wedge_terms)
        mfilt = comodule_filtration(m, filt)
        for k in range(filt.top + 1):
            assert mfilt.level(k) == _literal_preimage(psi, [(full_m, filt.level(k))])
        f0_m = _literal_preimage(psi, [(full_m, ma.grouplikes.span())])
        assert staircase_preimage([(full_m, ma.grouplikes.span())], m.psi) == f0_m
        total, report = comodule_primitives_total(m, ma.grouplikes)
        assert total == f0_m and report.f0_dim == f0_m.dim
        w = ma.grouplikes.vectors[ma.unit_grouplike_index()]
        eta, w_line = Subspace(p, m.dim, [ma.unit]), Subspace(p, sigma.dim, [w])
        sigma_sweep = AdaptedCoaction(sigma.delta, sigma.dim, *adapted_basis(filt.levels))
        for k in range(filt.top + 1):
            below, at = filt.level(k - 1), filt.level(k)
            assert graded_left_primitives(ma, k, filt) == _literal_preimage(
                psi, [(full_m, below), (eta, at)]
            )
            assert sigma_sweep.preimage(k, w) == _literal_preimage(
                delta, [(full_s, below), (w_line, at)]
            )


def test_coradical_closure_check_matches_the_literal_route(base_seed):
    """Delta(R) <= R (x) R by the staircase kernel agrees with the literal
    R (x) R, both for the span of the grouplikes and for that span plus a
    random vector, which is usually not a subcoalgebra."""
    outcomes = set()
    for offset in range(12):
        bundle = gen_random_pointed(base_seed + offset)
        c, g = bundle.coalgebra, bundle.grouplikes
        rng = random.Random(base_seed + offset)
        extra = tuple(rng.randrange(c.p) for _ in range(c.dim))
        for vectors in (g.vectors, g.vectors + (extra,)):
            r = Subspace(c.p, c.dim, vectors)
            closed = all(
                staircase_sum([(r, r)]).contains(c.delta_matrix().matvec(b))
                for b in r.basis_vectors()
            )
            assert staircase_preimage([(r, r)], c.delta).contains_subspace(r) == closed
            outcomes.add(closed)
            if not closed:
                with pytest.raises(NotASubcoalgebra):
                    _coradical_span(c, GroupLikeSet(c.p, c.dim, vectors))
    assert outcomes == {True, False}


# -- the filtration sweep against the per-level staircase route -------------------------


def _assert_sweep_matches_staircase(coaction, left_dim, filt, units):
    """Every layer of AdaptedCoaction equals a fresh staircase_preimage at
    every level k = 0..top+1: psi^{-1}(L (x) F_k), and for each unit u the
    graded layer psi^{-1}(L (x) F_{k-1} + u (x) F_k)."""
    p = filt.p
    full = Subspace.full(p, left_dim)
    sweep = AdaptedCoaction(coaction, left_dim, *adapted_basis(filt.levels))
    for k in range(filt.top + 2):
        assert sweep.preimage(k) == staircase_preimage([(full, filt.level(k))], coaction), k
        for u in units:
            terms = [(full, filt.level(k - 1)), (Subspace(p, left_dim, [u]), filt.level(k))]
            assert sweep.preimage(k, u) == staircase_preimage(terms, coaction), (k, u)


def _sweep_algebras(corpus):
    """The corpus, binomial truncations over F_2, F_3 and F_5, and the
    extended comodules at levels 1 and 2, whose filtration levels are not
    coordinate subspaces."""
    cases = [b.comodule_algebra for b in corpus]
    cases += [gen_binomial_truncation(p, d).comodule_algebra for p, d in ((2, 9), (3, 10), (5, 11))]
    cases += [bundle_extended(1, 3).comodule_algebra, bundle_extended(2, 2).comodule_algebra]
    return cases


def test_sweep_matches_the_staircase_route_on_the_m_side(corpus):
    """M side, with the unit, with a zero unit, and on a wedge filtration
    truncated at level 1, which is not exhaustive."""
    cases = _sweep_algebras(corpus)
    assert {ma.p for ma in cases} == {2, 3, 5}
    truncated = 0
    for ma in cases:
        m, zero = ma.base, (0,) * ma.dim
        for k_max in (None, 1):
            filt = coradical_filtration_wedge(ma.sigma, ma.grouplikes, k_max)
            truncated += not filt.exhaustive
            _assert_sweep_matches_staircase(m.psi, m.dim, filt, [ma.unit, zero])
    assert truncated > 0


def test_sweep_matches_the_staircase_route_on_the_sigma_side(corpus):
    """Sigma side, with each declared grouplike as w: random pointed
    coalgebras, seeds 0-11, and the Sigma of every case above."""
    coalgebras = [(b.coalgebra, b.grouplikes) for b in map(gen_random_pointed, range(12))]
    coalgebras += [(ma.sigma, ma.grouplikes) for ma in _sweep_algebras(corpus)]
    for sigma, g in coalgebras:
        for k_max in (None, 1):
            filt = coradical_filtration_wedge(sigma, g, k_max)
            _assert_sweep_matches_staircase(sigma.delta, sigma.dim, filt, g.vectors)


def test_graded_views_and_star_read_the_same_sweep(corpus):
    """graded_left_primitives is a view of AdaptedCoaction, and the star
    report's dimensions are those of the two sweeps."""
    for ma in _sweep_algebras(corpus)[-5:]:
        filt = coradical_filtration_wedge(ma.sigma, ma.grouplikes)
        w = ma.grouplikes.vectors[ma.unit_grouplike_index()]
        basis = adapted_basis(filt.levels)
        source = AdaptedCoaction(ma.base.psi, ma.dim, *basis)
        target = AdaptedCoaction(ma.sigma.delta, ma.sigma.dim, *basis)
        f = ComoduleMap(ma.base, Comodule.regular(ma.sigma), FieldMatrix.zeros(ma.p, ma.sigma.dim, ma.dim))
        levels = check_star_surjective(ma, f, sigma_filt=filt).levels
        for k in range(filt.top + 1):
            assert graded_left_primitives(ma, k, filt) == source.preimage(k, ma.unit)
            assert levels[k].source_dim == source.preimage(k, ma.unit).dim
            assert levels[k].target_dim == target.preimage(k, w).dim


def test_f2_rewrite_matches_the_per_triple_spread(base_seed):
    """Over F_2 AdaptedCoaction sets one bit per term and set coordinate.
    Its columns equal the per-triple spread rewrite on seeded triples with
    repeated right indices and even coefficients, on psi of
    bundle_extended(1, 3) and on Delta of gen_binomial_truncation(2, 64)."""
    rng = random.Random(base_seed)
    cases = []
    for _ in range(30):
        left_dim, right_dim, width = (rng.randint(1, 6) for _ in range(3))
        coords = FieldMatrix(2, [[rng.randrange(2) for _ in range(width)] for _ in range(right_dim)])
        coaction = [
            tuple(
                (rng.randrange(left_dim), rng.randrange(right_dim), rng.randrange(5))
                for _ in range(rng.randint(0, 12))
            )
            for _ in range(rng.randint(1, 6))
        ]
        cases.append((coaction, left_dim, coords))
    ma = bundle_extended(1, 3).comodule_algebra
    filt = coradical_filtration_wedge(ma.sigma, ma.grouplikes)
    cases.append((ma.base.psi, ma.dim, adapted_basis(filt.levels)[0]))
    binomial = gen_binomial_truncation(2, 64)
    filt = coradical_filtration_wedge(binomial.coalgebra, binomial.grouplikes)
    delta = binomial.coalgebra.delta
    cases.append((delta, len(delta), adapted_basis(filt.levels)[0]))
    repeated = even = 0
    for coaction, left_dim, coords in cases:
        cols = AdaptedCoaction(coaction, left_dim, coords, (0,))._cols
        assert cols == spread_rewrite(coaction, left_dim, coords)
        for triples in coaction:
            right = [k for _, k, _ in triples]
            repeated += len(set(right)) < len(right)
            even += any(c and c % 2 == 0 for _, _, c in triples)
    assert repeated > 0 and even > 0


def _functional_map(ma: ComoduleAlgebra, phi) -> FieldMatrix:
    """(phi (x) id) psi: M -> Sigma, a comodule map for every functional phi."""
    rows = [[0] * ma.dim for _ in range(ma.sigma.dim)]
    for i, triples in enumerate(ma.base.psi):
        for a, k, c in triples:
            rows[k][i] = (rows[k][i] + phi[a] * c) % ma.p
    return FieldMatrix(ma.p, rows)


def test_star_levels_match_the_literal_coverage_test(base_seed):
    """The non-strict level verdict equals img + (target meet F_{k-1}) >=
    target, on the wedge filtration and on random nested filtrations of
    Sigma, where F_{k-1} need not lie in the target.  The maps are the
    shipped splitting map plus (e_a^* (x) id) psi for each basis functional
    e_a^*; some of them cover a level modulo F_{k-1} but not on the nose."""
    rng = random.Random(base_seed)
    outside = differs = 0
    for bundle in (bundle_sigma_regular(1), bundle_extended(1, 2), gen_binomial_truncation(3, 6)):
        ma, shipped = bundle.comodule_algebra, bundle.splitting_map
        p, n = ma.p, ma.sigma.dim
        w = ma.grouplikes.vectors[ma.unit_grouplike_index()]
        vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        dims = sorted(rng.sample(range(1, n + 1), 3))
        nested = Filtration.build(p, n, [Subspace(p, n, vecs[:d]) for d in dims], False)
        maps = [shipped] + [
            ComoduleMap(ma.base, shipped.target, shipped.matrix + _functional_map(ma, e))
            for e in FieldMatrix.identity(p, ma.dim).rows_as_lists()
        ]
        for filt in (coradical_filtration_wedge(ma.sigma, ma.grouplikes), nested):
            sweep = AdaptedCoaction(ma.sigma.delta, n, *adapted_basis(filt.levels))
            for f in maps:
                report = check_star_surjective(ma, f, sigma_filt=filt)
                strict = check_star_surjective(ma, f, strict=True, sigma_filt=filt)
                for k, result in enumerate(report.levels):
                    target = sweep.preimage(k, w)
                    img = image(f.matrix, graded_left_primitives(ma, k, filt))
                    below = filt.level(k - 1)
                    outside += not target.contains_subspace(below)
                    differs += result.ok != strict.levels[k].ok
                    assert result.ok == img.add(intersect(target, below)).contains_subspace(target)
    assert outside > 0 and differs > 0


def test_adapted_basis_spans_each_level():
    """The first d_k vectors of B (the rows of the inverse of the returned
    coordinates) span F_k, on Sigma truncations whose levels are not
    coordinate subspaces."""
    for level in (1, 2):
        tr = gen_sigma_truncation(level)
        filt = coradical_filtration_wedge(tr.coalgebra, tr.grouplikes)
        coords, dims = adapted_basis(filt.levels)
        assert dims == filt.dims()
        b = coords.inverse()
        for k, d in enumerate(dims):
            assert Subspace(b.p, b.ncols, [b.row(j) for j in range(d)]) == filt.level(k)


def test_adapted_basis_refuses_levels_that_do_not_nest():
    """Including span(e0) then span(e0 + e1), which share their pivot."""
    p, n = 3, 4
    first = Subspace(p, n, [(0, 1, 0, 0)])
    second = Subspace(p, n, [(1, 0, 0, 0)])
    with pytest.raises(ShapeError):
        adapted_basis([first, second])
    with pytest.raises(ShapeError):
        adapted_basis([first, Subspace.full(2, n)])
    for p in (2, 3):
        first = Subspace(p, 2, [(1, 0)])
        second = Subspace(p, 2, [(1, 1)])
        with pytest.raises(ShapeError):
            adapted_basis([first, second])
        with pytest.raises(ShapeError):
            adapted_basis([first, Subspace.full(p, 2), second])


def test_corpus_maps_preserve_both_filtrations(corpus):
    """check_map_preserves_filtration reads both comodule filtrations off the
    sweep; every shipped map preserves the wedge filtration, the direct one,
    and the wedge filtration truncated at level 1."""
    for b in corpus:
        c, g = b.coalgebra, b.grouplikes
        for filt in (
            coradical_filtration_wedge(c, g),
            coradical_filtration_wedge(c, g, 1),
            coradical_filtration_direct(c, g, 2),
        ):
            assert check_map_preserves_filtration(b.splitting_map, filt), b.name


# -- graded surjectivity ---------------------------------------------------------------


def test_star_holds_for_shipped_maps(corpus):
    for bundle in corpus:
        if bundle.name == "control_zero_map":
            continue
        report = check_star_surjective(bundle.comodule_algebra, bundle.splitting_map)
        assert report.ok, (bundle.name, report.first_failure())
        assert report.unit_ok and report.surjective
        # the shipped maps even hit the graded primitives on the nose
        strict = check_star_surjective(bundle.comodule_algebra, bundle.splitting_map, strict=True)
        assert strict.ok, (bundle.name, strict.first_failure())


def test_star_fails_for_zero_map():
    bundle = bundle_sigma_regular(1)
    ma = bundle.comodule_algebra
    zero = ComoduleMap(ma.base, bundle.splitting_map.target,
                       FieldMatrix.zeros(ma.p, ma.sigma.dim, ma.dim))
    report = check_star_surjective(ma, zero)
    assert not report.ok
    assert not report.surjective and not report.unit_ok
    assert "surjective" in report.first_failure()


def test_star_counts_levels_against_sigma():
    bundle = bundle_extended(1, 2)
    report = check_star_surjective(bundle.comodule_algebra, bundle.splitting_map)
    assert [l.level for l in report.levels] == [0, 1, 2]
    assert [l.target_dim for l in report.levels] == [1, 5, 10]


def test_star_requires_comodule_map():
    bundle = bundle_sigma_regular(1)
    ma = bundle.comodule_algebra
    mat = FieldMatrix.identity(2, 12).rows_as_lists()
    mat[0][3] = 1
    bad = ComoduleMap(ma.base, bundle.splitting_map.target, FieldMatrix(2, mat))
    if bad.is_comodule_map():  # pragma: no cover - guard against a silent pass
        pytest.skip("perturbation accidentally a comodule map")
    with pytest.raises(NotAComoduleMap):
        check_star_surjective(ma, bad)


def test_star_requires_matching_source():
    b1 = bundle_sigma_regular(1)
    b0 = bundle_sigma_regular(0)
    with pytest.raises(StructureMismatch):
        check_star_surjective(b1.comodule_algebra, b0.splitting_map)


def test_map_preserves_filtration():
    bundle = bundle_sigma_regular(1)
    sigma = bundle.coalgebra
    filt = _sigma_filt(sigma)
    assert check_map_preserves_filtration(bundle.splitting_map, filt)
    m = bundle.comodule_algebra.base
    # swapping the unit and t1 moves F_0 out of itself
    mat = FieldMatrix.identity(2, 12).rows_as_lists()
    mat[0][0], mat[0][3] = 0, 1
    mat[3][3], mat[3][0] = 0, 1
    swap = ComoduleMap(m, m, FieldMatrix(2, mat))
    assert not check_map_preserves_filtration(swap, filt)


# -- left comodules --------------------------------------------------------------------


def test_left_comodule_constructors_validate():
    sigma = gen_sigma_truncation(1).coalgebra
    g = find_grouplikes(sigma, "declared")
    for n in (LeftComodule.regular(sigma),
              LeftComodule.coradical(sigma, g),
              LeftComodule.grouplike_line(sigma, g.vectors[1])):
        n.validate()


def test_left_comodule_validate_names_its_witnesses():
    """Over F_3[C_2]^* (grouplike basis e0, e1), N = span(a, b) with
    psi(a) = e1 (x) a.  The labels of N and of Sigma do not line up, so a
    slot mix-up in the shared validator helpers fails the honest case."""
    sigma = Coalgebra(3, 2, ("e0", "e1"), (((0, 0, 1),), ((1, 1, 1),)), (1, 1))

    def checks(psi_b):
        n = LeftComodule(sigma, 2, ("a", "b"), (((1, 0, 1),), psi_b))
        return {c.name: (c.passed, c.witness) for c in n.validate().checks}

    # psi(b) = e0 (x) b: an honest left comodule.
    assert checks(((0, 1, 1),)) == {"counit": (True, None), "coassociativity": (True, None)}
    # psi(b) = 0: coassociative, but the counit does not give b back.
    assert checks(()) == {"counit": (False, "b"), "coassociativity": (True, None)}
    # psi(b) = 2 e0 (x) b - e1 (x) b: counital, but not coassociative.
    assert checks(((0, 1, 2), (1, 1, 2))) == {"counit": (True, None), "coassociativity": (False, "b")}


def test_trivial_comodule():
    sigma = gen_sigma_truncation(0).coalgebra
    t = Comodule(sigma, 1, ("1",), (((0, 0, 1),),))
    assert validate_comodule(t).ok
    assert t.dim == 1
