"""Comodules: validators, filtrations, primitives, cotensor, and the graded
surjectivity check.

The cotensor computation is cross-checked against the dense equalizer kernel
built with explicit Kronecker products, and the comodule filtration of the
regular comodule against the coalgebra-side filtration computed by two other
algorithms.
"""

import random

import pytest

from comodule_splitter.coalgebra import (
    Coalgebra,
    GroupLikeSet,
    _coradical_span,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    find_grouplikes,
)
from comodule_splitter.comodule import (
    Comodule,
    ComoduleAlgebra,
    ComoduleMap,
    LeftComodule,
    _sigma_graded_left_primitives,
    check_map_preserves_filtration,
    check_star_surjective,
    comodule_filtration,
    comodule_primitives_at,
    comodule_primitives_total,
    cotensor,
    graded_left_primitives,
    primitives_cotensor_embedding,
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
    FieldMatrix,
    StaircaseMembership,
    Subspace,
    preimage,
    staircase_preimage,
    staircase_sum,
)
from comodule_splitter.generators import (
    bundle_extended,
    bundle_sigma_regular,
    gen_binomial_truncation,
    gen_group_algebra,
    gen_random_pointed,
    gen_sigma_truncation,
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
    for bundle in corpus:
        report = validate_comodule_algebra(bundle.comodule_algebra)
        assert report.ok, (bundle.name, [x.name for x in report.failures()])


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
            left_k = preimage(dmat, coalg.level(k).tensor(full))
            assert left_k == coalg.level(k)


def test_extended_comodule_filtration_is_v_tensor_f(corpus):
    for a_dim, level in ((2, 0), (2, 1), (3, 0)):
        bundle = bundle_extended(level, a_dim)
        sigma = bundle.coalgebra
        filt = _sigma_filt(sigma)
        mfilt = comodule_filtration(bundle.comodule_algebra.base, filt)
        v_full = Subspace.full(sigma.p, a_dim)
        for k in range(filt.top + 1):
            assert mfilt.level(k) == v_full.tensor(filt.level(k))


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
    left = m.psi_matrix().kron(i_n)
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
        psi = m.psi_matrix()
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
        psi = m.psi_matrix()
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
        m = Comodule.cofree(sigma, 2)
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
        psi, delta = m.psi_matrix(), sigma.delta_matrix()
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
        for k in range(filt.top + 1):
            below, at = filt.level(k - 1), filt.level(k)
            assert graded_left_primitives(ma, k, filt) == _literal_preimage(
                psi, [(full_m, below), (eta, at)]
            )
            assert _sigma_graded_left_primitives(sigma, w, k, filt) == _literal_preimage(
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
    t = Comodule.trivial(sigma, (1, 0, 0))
    assert validate_comodule(t).ok
    assert t.dim == 1
