"""Tests for the splitting pipeline: retraction, h assembly against the
phi-solve route, certificates, re-checking, and the corpus driver.

The residual oracle here recomputes "h is a comodule map" from the raw
structure constants with plain dictionaries, independently of the matrix
code that the pipeline itself uses.
"""

import dataclasses
import json
import random
import sys

import pytest

from comodule_splitter import (
    ActionNotInvertible,
    Comodule,
    ComoduleAlgebra,
    ComoduleMap,
    DecompositionFails,
    DimensionMismatch,
    FieldMatrix,
    HypothesisNotMet,
    Subspace,
    build_h,
    comodule_primitives_at,
    comodule_primitives_total,
    recheck_certificate,
    validate_comodule_algebra,
    verify_theorem_on_corpus,
)
from comodule_splitter import field_linalg
from comodule_splitter.field_linalg import AdaptedCoaction, adapted_basis
from comodule_splitter.coalgebra import Filtration, GroupLikeSet, change_basis, coradical_filtration_wedge
from comodule_splitter.definitions import load_certificate
from comodule_splitter.reporting import CheckResult, report_json
from comodule_splitter.generators import (
    bundle_extended,
    gen_binomial_truncation,
    gen_group_algebra,
    gen_random_pointed,
    shipped_corpus,
)
from comodule_splitter.splitting import _residual_witness, _trailing_pivots
from oracles import (
    certificate_doc,
    cofree,
    greedy_retraction,
    h_by_phi_solve,
    preimage,
    primitives_by_residual,
    psi_matrix,
    residual_witness_by_cofree,
    staircase_preimage,
    staircase_sum,
)

EXPECTED_RANKS = {
    "binomial_2_4_id": 4,
    "sigma_level0_id": 3,
    "sigma_level1_id": 12,
    "sigma_level2_id": 48,
    "extended_a2_level0": 6,
    "extended_a3_level0": 9,
    "extended_a2_level1": 24,
    "extended_a3_level1": 36,
}

EXPECTED_P1_DIMS = {
    "binomial_2_4_id": 1,
    "sigma_level0_id": 1,
    "sigma_level1_id": 1,
    "sigma_level2_id": 1,
    "extended_a2_level0": 2,
    "extended_a3_level0": 3,
    "extended_a2_level1": 2,
    "extended_a3_level1": 3,
}

RECHECK_NAMES = (
    "hypothesis_star_surjective",
    "p1_basis_matches",
    "h_shape",
    "h_bijective",
    "stored_rank_matches",
    "comodule_residual_zero",
    "stored_residual_flag_matches",
)


def _certified_bundles(corpus):
    return [b for b in corpus if b.expected_outcome == "certified"]


def _control_bundle(corpus):
    (b,) = [b for b in corpus if b.expected_outcome == "hypothesis_not_met"]
    return b


def _failing_names(report):
    return {c.name for c in report.failures()}


def _residual_oracle_zero(ma, h):
    """Recheck (id (x) Delta) h = (h (x) id) psi entry by entry using the
    structure-constant triples and dictionaries, no matrix code."""
    p = ma.p
    s = ma.sigma.dim
    hrows = h.rows_as_lists()
    for i in range(ma.dim):
        acc: dict[tuple[int, int], int] = {}
        for r, row in enumerate(hrows):
            c = row[i]
            if not c:
                continue
            u, k = divmod(r, s)
            for a, b, co in ma.sigma.delta[k]:
                key = (u * s + a, b)
                acc[key] = (acc.get(key, 0) + c * co) % p
        for a, k, c in ma.base.psi[i]:
            for r, row in enumerate(hrows):
                if row[a]:
                    key = (r, k)
                    acc[key] = (acc.get(key, 0) - c * row[a]) % p
        if any(acc.values()):
            return False
    return True


def _dense_psi(m):
    """The coaction matrix built column by column from the triples."""
    s = m.over.dim
    cols = []
    for triples in m.psi:
        col = [0] * (m.dim * s)
        for a, k, c in triples:
            col[a * s + k] = c
        cols.append(col)
    return FieldMatrix.from_cols(m.p, cols, nrows=m.dim * s)


def _dense_residual_oracle(f):
    """psi_N @ A - (A (x) I) @ psi_M with an explicit Kronecker product."""
    ident = FieldMatrix.identity(f.source.p, f.source.over.dim)
    return _dense_psi(f.target) @ f.matrix - f.matrix.kron(ident) @ _dense_psi(f.source)


def _residual_as_matrix(f):
    n = f.target.dim * f.source.over.dim
    cols = [[col.get(r, 0) for r in range(n)] for col in f.residual()]
    return FieldMatrix.from_cols(f.source.p, cols, nrows=n)


def _tamper(h, row, col):
    """h plus the matrix unit at (row, col)."""
    bump = [[1 if (r, c) == (row, col) else 0 for c in range(h.ncols)] for r in range(h.nrows)]
    return h + FieldMatrix(h.p, bump, ncols=h.ncols)


def _conjugate(ma, f, t):
    """The same comodule algebra and map written in the basis with transition
    matrix t, so that h stops being the identity in coordinates."""
    p, m, s = ma.p, ma.dim, ma.sigma.dim
    t_inv = t.inverse()
    psi_new = t_inv.kron(FieldMatrix.identity(p, s)) @ psi_matrix(ma.base) @ t
    triples = []
    for i in range(m):
        col = [psi_new.entry(r, i) for r in range(m * s)]
        triples.append(tuple((r // s, r % s, v) for r, v in enumerate(col) if v))
    base = Comodule(ma.sigma, m, tuple(f"b{i}" for i in range(m)), tuple(triples))
    ma2 = ComoduleAlgebra(
        base=base,
        grouplikes=ma.grouplikes,
        action=tuple(t_inv @ a @ t for a in ma.action),
        unit=t_inv.matvec(ma.unit),
        augmentation=t.transpose().matvec(ma.augmentation),
    )
    f2 = ComoduleMap(base, f.target, f.matrix @ t)
    return ma2, f2


def _sigma_in_basis(ma, f, t):
    """The same comodule algebra and map with Sigma written in the basis of
    the columns of t: psi's right factor, f, the grouplikes and lambda_g move
    with Sigma, and M keeps its basis."""
    t_inv = t.inverse()
    sigma = change_basis(ma.sigma, t)
    moved = t_inv.sparse_cols()
    psi = tuple(tuple((a, j, c * x) for a, k, c in row for j, x in moved[k].items()) for row in ma.base.psi)
    base = Comodule(sigma, ma.dim, ma.base.labels, psi)
    ma2 = dataclasses.replace(
        ma,
        base=base,
        grouplikes=GroupLikeSet(ma.p, sigma.dim, tuple(t_inv.matvec(g) for g in ma.grouplikes)),
        sigma_action=tuple(t_inv @ lam @ t for lam in ma.sigma_action),
    )
    return ma2, ComoduleMap(base, Comodule.regular(sigma), t_inv @ f.matrix)


def _random_invertible(rng, p, n):
    while True:
        m = FieldMatrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def _padded_by_trivial_line():
    """The regular comodule of F_2[Z/3] with a coinvariant line glued on and
    the group acting trivially there.  The projection onto the group algebra
    is a perfectly good surjection of comodules, but the glued line makes the
    action table incompatible with the coaction, which is exactly the kind of
    corruption the enrichment validator exists to catch."""
    b = gen_group_algebra(2, 3)
    sigma, ma0 = b.coalgebra, b.comodule_algebra
    psi = tuple(ma0.base.psi[i] for i in range(3)) + (((3, 0, 1),),)
    base = Comodule(sigma, 4, (*sigma.labels, "v"), psi)

    def pad(a):
        rows = [row + [0] for row in a.rows_as_lists()]
        rows.append([0, 0, 0, 1])
        return FieldMatrix(2, rows)

    ma = ComoduleAlgebra(
        base=base,
        grouplikes=ma0.grouplikes,
        action=tuple(pad(a) for a in ma0.action),
        unit=(1, 0, 0, 0),
        augmentation=(1, 1, 1, 0),
    )
    f = ComoduleMap(
        base,
        Comodule.regular(sigma),
        FieldMatrix(2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], ncols=4),
    )
    return ma, f


# -- retraction ----------------------------------------------------------------------


def retraction_onto(s):
    """(S_D B^T)^-1 S_D, the greedy retraction onto s in echelon coordinates
    of s, built from the trailing-pivot selection S_D."""
    select = _trailing_pivots(s)
    return (select @ s.basis_matrix().transpose()).inverse() @ select


def test_retraction_onto_second_axis_line():
    s = Subspace.from_vectors(2, 2, [(0, 1)])
    r = retraction_onto(s)
    assert r.rows_as_lists() == [[0, 1]]
    assert r.nrows == 1


def test_retraction_law_on_random_subspaces(base_seed):
    rng = random.Random(base_seed)
    for p in (2, 3):
        for _ in range(25):
            n = rng.randrange(1, 6)
            d = rng.randrange(0, n + 1)
            vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(d)]
            s = Subspace.from_vectors(p, n, vecs)
            if s.dim == 0:
                continue
            r = retraction_onto(s)
            incl = FieldMatrix.from_cols(p, list(s.basis_vectors()), nrows=n)
            ident = FieldMatrix.identity(p, s.dim)
            assert r @ incl == ident
            proj = incl @ r
            assert proj @ proj == proj


def test_trailing_pivot_retraction_matches_the_greedy_oracle(base_seed, corpus):
    rng = random.Random(base_seed + 29)
    for p in (2, 3, 5):
        for n in range(1, 13):
            spaces = [Subspace(p, n), Subspace.full(p, n)]
            for _ in range(5):
                d, density = rng.randrange(0, n + 1), rng.random()
                vecs = [
                    tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(n))
                    for _ in range(d)
                ]
                spaces.append(Subspace.from_vectors(p, n, vecs))
            for s in spaces:
                assert retraction_onto(s) == greedy_retraction(s), (p, n, s.basis_vectors())
    for b in corpus:
        ma = b.comodule_algebra
        total, _ = comodule_primitives_total(ma.base, ma.grouplikes)
        assert retraction_onto(total) == greedy_retraction(total), b.name


def test_choose_retraction_lands_on_total_primitives(corpus):
    bundles = {b.name: b for b in corpus}
    ma = bundles["sigma_level1_id"].comodule_algebra
    total, _ = comodule_primitives_total(ma.base, ma.grouplikes)
    ret = retraction_onto(total)
    assert ret.nrows == 3
    assert ret.ncols == ma.dim


# -- h against the phi-solve route ---------------------------------------------------


def test_build_h_matches_the_phi_solve_route(corpus, base_seed):
    """t = (eps (x) id) (S_D phi)^-1 S_D is exactly the composite of phi
    solved against the echelon basis of P(M) with the greedy retraction:
    build_h writes the h of that route, entry for entry.  The conjugated
    copies put P(M) off the coordinate axes and phi off the identity."""
    rng = random.Random(base_seed + 43)
    certified = _certified_bundles(corpus)
    conjugated = [
        _conjugate(
            b.comodule_algebra,
            b.splitting_map,
            _random_invertible(rng, b.coalgebra.p, b.comodule_algebra.dim),
        )
        for b in certified
        if b.comodule_algebra.dim <= 24
    ]
    generated = [gen_binomial_truncation(p, d) for p, d in ((3, 9), (3, 16), (5, 25), (7, 10))]
    generated += [bundle_extended(level, a) for level, a in ((0, 2), (0, 4), (1, 3), (2, 2))]
    pairs = [(b.comodule_algebra, b.splitting_map) for b in (*certified, *generated)] + conjugated
    saw_nontrivial = False
    for ma, f in pairs:
        cert = build_h(ma, f)
        assert cert.certified
        assert cert.h_matrix == h_by_phi_solve(ma)
        saw_nontrivial |= cert.h_matrix != FieldMatrix.identity(ma.p, ma.dim)
    assert saw_nontrivial


def test_build_h_certifies_sigma_in_any_basis(corpus, base_seed, monkeypatch):
    """Sigma moved by a seeded invertible S, with psi's right factor, f, the
    grouplikes and lambda_g moved with it: build_h certifies with the same
    rank and P_1(M), the recheck passes, and every P_g(M), alone and inside
    comodule_primitives_total, equals the residual oracle.  Off the axes, the
    grouplikes have non-trivial coordinates in the basis adapted to span(g)."""
    rng = random.Random(base_seed + 47)
    inside = []
    real = field_linalg.AdaptedCoaction.primitives
    monkeypatch.setattr(
        field_linalg.AdaptedCoaction, "primitives", lambda self, g: inside.append(real(self, g)) or inside[-1]
    )
    # sigma_level2_id is left out: its Delta turns dense in a random basis.
    bundles = [b for b in _certified_bundles(corpus) if b.coalgebra.dim <= 12]
    bundles += [gen_binomial_truncation(3, 9), gen_group_algebra(3, 3)]
    off_axes = 0
    for b in bundles:
        ma, f = b.comodule_algebra, b.splitting_map
        cert = build_h(ma, f)
        for _ in range(5):
            ma2, f2 = _sigma_in_basis(ma, f, _random_invertible(rng, ma.p, ma.sigma.dim))
            off_axes += any(sum(map(bool, g)) > 1 for g in ma2.grouplikes)
            cert2 = build_h(ma2, f2)
            assert cert2.certified, b.name
            assert (cert2.rank, cert2.p1_basis) == (cert.rank, cert.p1_basis), b.name
            assert recheck_certificate(cert2, ma2, f2).ok, b.name
            expected = [primitives_by_residual(ma2.base, g) for g in ma2.grouplikes]
            assert [comodule_primitives_at(ma2.base, g) for g in ma2.grouplikes] == expected, b.name
            inside.clear()
            comodule_primitives_total(ma2.base, ma2.grouplikes)
            assert inside == expected, b.name
    assert off_axes >= 4 * len(bundles)


def test_phi_inverse_rejects_singular_action(corpus):
    bundles = {b.name: b for b in corpus}
    ma = bundles["sigma_level0_id"].comodule_algebra
    bad_action = (ma.action[0], FieldMatrix.zeros(ma.p, ma.dim, ma.dim), ma.action[2])
    broken = dataclasses.replace(ma, action=bad_action, sigma_action=None)
    with pytest.raises(ActionNotInvertible):
        build_h(broken, bundles["sigma_level0_id"].splitting_map, force=True)


def test_phi_inverse_rejects_collapsed_decomposition(corpus):
    bundles = {b.name: b for b in corpus}
    ma = bundles["sigma_level0_id"].comodule_algebra
    ident = FieldMatrix.identity(ma.p, ma.dim)
    lazy = dataclasses.replace(ma, action=(ident, ident, ident), sigma_action=None)
    with pytest.raises(DecompositionFails):
        build_h(lazy, bundles["sigma_level0_id"].splitting_map, force=True)


def test_phi_inverse_rejects_an_image_off_the_primitives(corpus, base_seed):
    """Random invertible actions keep the rank of phi at dim P(M) but move
    its column space off P(M); build_h must refuse rather than invert S_D phi."""
    b = {b.name: b for b in corpus}["extended_a2_level1"]
    ma = b.comodule_algebra
    rng = random.Random(base_seed + 61)
    action = (ma.action[0], *(_random_invertible(rng, ma.p, ma.dim) for _ in ma.action[1:]))
    moved = dataclasses.replace(ma, action=action, sigma_action=None)
    with pytest.raises(DecompositionFails, match="P\\(M\\) is not contained in the image of phi"):
        build_h(moved, b.splitting_map, force=True)


def test_build_h_computes_each_layer_once(corpus, monkeypatch):
    """One build_h rewrites psi and Delta once each, in the star check,
    sums the primitives once off the star's rewrite of psi, and tests each
    action's rank once without inverting it; a recheck makes the same two
    rewrites and needs neither.  Comodule keeps no memo of its primitives."""
    import comodule_splitter.comodule as comodule
    import comodule_splitter.splitting as splitting

    ma = {b.name: b for b in corpus}["extended_a2_level1"].comodule_algebra
    f = {b.name: b for b in corpus}["extended_a2_level1"].splitting_map
    assert len({id(a) for a in ma.action}) == len(ma.action) > 1
    assert not hasattr(comodule.Comodule, "_primitives")
    totals = []
    rewrites = []
    ranked = []
    inverted = []
    real_total = splitting.comodule_primitives_total
    real_rank = FieldMatrix.rank
    real_inverse = FieldMatrix.inverse

    class CountingAdaptedCoaction(comodule.AdaptedCoaction):
        def __init__(self, *args):
            rewrites.append(args)
            super().__init__(*args)

    def counting_total(*args):
        before = len(rewrites)
        result = real_total(*args)
        totals.append(len(rewrites) - before)
        return result

    def counting_rank(self):
        ranked.append(self)
        return real_rank(self)

    def counting_inverse(self):
        inverted.append(self)
        return real_inverse(self)

    monkeypatch.setattr(comodule, "AdaptedCoaction", CountingAdaptedCoaction)
    monkeypatch.setattr(splitting, "comodule_primitives_total", counting_total)
    monkeypatch.setattr(FieldMatrix, "rank", counting_rank)
    monkeypatch.setattr(FieldMatrix, "inverse", counting_inverse)
    cert = build_h(ma, f)
    assert cert.certified
    assert [args[0] for args in rewrites] == [ma.base.psi, ma.sigma.delta]
    assert totals == [0]
    assert [sum(1 for m in ranked if m is a) for a in ma.action] == [1] * len(ma.action)
    assert not any(m is a for m in inverted for a in ma.action)

    totals.clear()
    rewrites.clear()
    ranked.clear()
    inverted.clear()
    assert recheck_certificate(cert, ma, f).ok
    assert [args[0] for args in rewrites] == [ma.base.psi, ma.sigma.delta]
    assert totals == []
    assert not any(m is a for m in ranked + inverted for a in ma.action)


def test_split_and_certify_build_no_tensor_sum():
    """build_h and recheck_certificate read every filtration layer off the
    coaction triples: with no Subspace.tensor in the package, and the
    literal tensor-sum routines kept only in tests/oracles.py, both still
    certify, over F_2 and over F_3."""
    bundles = [bundle_extended(2, 4), gen_binomial_truncation(3, 16)]
    assert not hasattr(field_linalg.Subspace, "tensor")
    assert not [
        name
        for name, module in sorted(sys.modules.items())
        if name.startswith("comodule_splitter") and hasattr(module, "preimage")
    ]
    for bundle in bundles:
        ma, f = bundle.comodule_algebra, bundle.splitting_map
        cert = build_h(ma, f)
        assert cert.certified
        assert recheck_certificate(cert, ma, f).ok


def test_layers_match_the_staircase_and_literal_routes(base_seed):
    """AdaptedCoaction.layers equals staircase_preimage and the literal
    preimage of the built-out tensor sum at every level k = 0..top+1, on psi
    and on Delta, over F_2, F_3 and F_5.  Units: none, a zero unit, the unit
    and grouplike of each bundle, and the unit of each bundle conjugated by
    a seeded invertible matrix, which has several nonzero entries and, over
    odd p, a leading entry other than 1.  Filtrations: the wedge filtration
    and random nested ones with d_top < dim Sigma, whose components past
    d_top must vanish at every level, top+1 included."""
    rng = random.Random(base_seed + 83)
    several = scaled = short = 0
    for bundle in (gen_binomial_truncation(2, 8), gen_binomial_truncation(3, 9), gen_binomial_truncation(5, 5)):
        ma, f = bundle.comodule_algebra, bundle.splitting_map
        p, n = ma.p, ma.sigma.dim
        conjugated, _ = _conjugate(ma, f, _random_invertible(rng, p, ma.dim))
        w = ma.grouplikes.vectors[ma.unit_grouplike_index()]
        vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        nested = Filtration.build(
            p, n, [Subspace(p, n, vecs[:d]) for d in sorted(rng.sample(range(1, n), 3))], False
        )
        filts = (coradical_filtration_wedge(ma.sigma, ma.grouplikes), nested)
        sides = [
            (ma.sigma.delta, ma.sigma.delta_matrix(), (None, (0,) * n, w)),
            *(
                (m.base.psi, psi_matrix(m.base), (None, (0,) * m.dim, m.unit))
                for m in (ma, conjugated)
            ),
        ]
        for coaction, matrix, units in sides:
            left_dim = len(units[1])
            full = Subspace.full(p, left_dim)
            for filt in filts:
                short += filt.level(filt.top).dim < n
                sweep = AdaptedCoaction(coaction, left_dim, *adapted_basis(filt.levels))
                for unit in units:
                    layers = sweep.layers(unit)
                    assert len(layers) == filt.top + 2
                    if unit is not None:
                        lead = next((x for x in unit if x), 0)
                        several += sum(map(bool, unit)) > 1
                        scaled += lead > 1
                    for k in range(filt.top + 2):
                        if unit is None:
                            terms = [(full, filt.level(k))]
                        else:
                            terms = [(full, filt.level(k - 1)), (Subspace(p, left_dim, [unit]), filt.level(k))]
                        literal = preimage(matrix, staircase_sum(terms))
                        assert layers[k] == staircase_preimage(terms, coaction) == literal, (bundle.name, k, unit)
    assert several > 0 and scaled > 0 and short > 0


# -- h assembly and certification ----------------------------------------------------


def test_build_h_certifies_every_shipped_pair(corpus):
    for b in _certified_bundles(corpus):
        cert = build_h(b.comodule_algebra, b.splitting_map)
        assert cert.certified
        assert cert.rank == EXPECTED_RANKS[b.name]
        assert cert.rank == b.comodule_algebra.dim
        assert cert.p1_basis.dim == EXPECTED_P1_DIMS[b.name]
        assert cert.comodule_residual_zero
        assert cert.star_report.ok


def test_h_is_identity_in_cofree_coordinates(corpus):
    """The shipped bundles are written in bases where M literally is
    P_1 (x) Sigma with the cofree coaction, so the canonical h must come out
    as the identity matrix."""
    for b in _certified_bundles(corpus):
        ma = b.comodule_algebra
        cert = build_h(ma, b.splitting_map)
        assert cert.h_matrix == FieldMatrix.identity(ma.p, ma.dim)


def test_residual_oracle_agrees_on_shipped_pairs(corpus):
    for b in _certified_bundles(corpus):
        ma = b.comodule_algebra
        if ma.dim > 24:
            continue
        cert = build_h(ma, b.splitting_map)
        assert _residual_oracle_zero(ma, cert.h_matrix)
        # Adding the functional dual to basis vector 1 (times the unit) breaks
        # the comodule law on every shipped bundle; duals of final basis
        # vectors can sneak through, so the position matters.
        tampered = cert.h_matrix + FieldMatrix(
            ma.p,
            [
                [1 if (r, c) == (0, 1) else 0 for c in range(ma.dim)]
                for r in range(cert.h_matrix.nrows)
            ],
        )
        assert not _residual_oracle_zero(ma, tampered)


def test_sparse_residual_matches_dense_oracle(corpus, base_seed):
    """ComoduleMap.residual against psi_N A - (A (x) I) psi_M: random and
    genuine maps over random pointed coalgebras, every corpus map, and h
    (honest and tampered) into the cofree comodule P_1(M) (x) Sigma."""
    maps = []
    seen_p = set()
    for offset in range(12):
        sigma = gen_random_pointed(base_seed + offset).coalgebra
        p, s = sigma.p, sigma.dim
        seen_p.add(p)
        rng = random.Random(base_seed + offset)
        reg, free = Comodule.regular(sigma), cofree(sigma, 2)
        rand = lambda r, c: FieldMatrix(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)])
        first_copy = FieldMatrix(p, [[1 if r == k else 0 for k in range(s)] for r in range(2 * s)])
        maps += [
            (ComoduleMap(reg, reg, FieldMatrix.identity(p, s)), True),
            (ComoduleMap(reg, free, first_copy), True),
            (ComoduleMap(reg, free, rand(2 * s, s)), None),
            (ComoduleMap(free, reg, rand(s, 2 * s)), None),
        ]
    assert seen_p == {2, 3}
    # every corpus map is a comodule map, the control's zero map included
    maps += [(b.splitting_map, True) for b in corpus]
    for b in _certified_bundles(corpus):
        ma = b.comodule_algebra
        cert = build_h(ma, b.splitting_map)
        target = cofree(ma.sigma, cert.p1_basis.dim)
        maps.append((ComoduleMap(ma.base, target, cert.h_matrix), True))
        maps.append((ComoduleMap(ma.base, target, _tamper(cert.h_matrix, 0, 1)), False))
    for f, expected in maps:
        assert _residual_as_matrix(f) == _dense_residual_oracle(f)
        if expected is not None:
            assert f.is_comodule_map() == expected


def test_residual_witness_matches_the_cofree_route(corpus, base_seed):
    """The residual witness reads Delta's triples directly; it must name the
    same column as the residual of h into the cofree comodule
    P_1(M) (x) Sigma: for the honest h, for h with one entry bumped, and for
    a random h, on the certified corpus and on odd-p and extended bundles."""
    rng = random.Random(base_seed)
    bundles = _certified_bundles(corpus) + [
        gen_binomial_truncation(3, 9),
        gen_binomial_truncation(5, 25),
        bundle_extended(1, 3),
    ]
    named = 0
    for b in bundles:
        ma = b.comodule_algebra
        h = build_h(ma, b.splitting_map).h_matrix
        d1 = h.nrows // ma.sigma.dim
        random_h = FieldMatrix(ma.p, [[rng.randrange(ma.p) for _ in range(h.ncols)] for _ in range(h.nrows)])
        bumped = [_tamper(h, rng.randrange(h.nrows), rng.randrange(h.ncols)) for _ in range(4)]
        for k in [h, random_h, *bumped]:
            witness = _residual_witness(ma, k)
            assert witness == residual_witness_by_cofree(ma, k, d1), b.name
            named += witness is not None
        assert _residual_witness(ma, h) is None
        # P_1(M) = 0 leaves nothing to check
        assert _residual_witness(ma, FieldMatrix.zeros(ma.p, 0, ma.dim)) is None
    assert named >= len(bundles) * 3


def test_recheck_names_the_first_nonzero_residual_column(corpus):
    b = {x.name: x for x in corpus}["binomial_2_4_id"]
    ma, f = b.comodule_algebra, b.splitting_map
    cert = build_h(ma, f)
    tampered = dataclasses.replace(cert, h_matrix=_tamper(cert.h_matrix, 0, 1))
    report = recheck_certificate(tampered, ma, f)
    assert _failing_names(report) == {"comodule_residual_zero", "stored_residual_flag_matches"}
    (check,) = [c for c in report.checks if c.name == "comodule_residual_zero"]
    assert check.witness == "first nonzero residual column t^3"
    # the dense oracle agrees on where the residual first shows
    oracle = _dense_residual_oracle(ComoduleMap(ma.base, cofree(ma.sigma, 1), tampered.h_matrix))
    first = min(j for j in range(ma.dim) if any(oracle.col(j)))
    assert ma.base.labels[first] == "t^3"


def test_build_h_after_change_of_basis(corpus, base_seed):
    """Conjugating M by a random invertible matrix must leave the pipeline
    certified with the same rank, while h stops being the identity."""
    bundles = {b.name: b for b in corpus}
    b = bundles["extended_a2_level0"]
    saw_nontrivial = False
    for trial in range(3):
        rng = random.Random(base_seed + trial)
        t = _random_invertible(rng, b.coalgebra.p, b.comodule_algebra.dim)
        ma2, f2 = _conjugate(b.comodule_algebra, b.splitting_map, t)
        cert = build_h(ma2, f2)
        assert cert.certified
        assert cert.rank == EXPECTED_RANKS[b.name]
        assert cert.p1_basis.dim == EXPECTED_P1_DIMS[b.name]
        assert _residual_oracle_zero(ma2, cert.h_matrix)
        assert recheck_certificate(cert, ma2, f2).ok
        if cert.h_matrix != FieldMatrix.identity(ma2.p, ma2.dim):
            saw_nontrivial = True
    assert saw_nontrivial


def test_strict_star_report_is_stored_and_rechecked(corpus):
    bundles = {b.name: b for b in corpus}
    b = bundles["extended_a2_level0"]
    cert = build_h(b.comodule_algebra, b.splitting_map, strict=True)
    assert cert.certified
    assert cert.star_report.strict
    assert recheck_certificate(cert, b.comodule_algebra, b.splitting_map).ok


# -- certificates as data ------------------------------------------------------------


def test_certificate_json_round_trip(corpus, tmp_path):
    bundles = {b.name: b for b in corpus}
    b = bundles["binomial_2_4_id"]
    cert = build_h(b.comodule_algebra, b.splitting_map)
    text = cert.to_json_text()
    path = tmp_path / "cert.json"
    path.write_text(text)
    again = load_certificate(str(path))
    assert again.to_json_text() == text
    assert again.certified == cert.certified
    assert again.h_matrix == cert.h_matrix
    assert again.p1_basis == cert.p1_basis


def test_report_json_keeps_the_field_order(corpus):
    """certify names the first stored star-report key that differs, so the
    key order is part of the certificate: ok, then the fields as declared.
    A check leaves out a witness it does not have."""
    b = {b.name: b for b in corpus}["sigma_level1_id"]
    star = report_json(build_h(b.comodule_algebra, b.splitting_map).star_report)
    assert list(star) == [
        "ok", "rank", "target_dim", "surjective", "unit_ok", "equivariance_ok", "strict", "levels",
    ]
    assert star["levels"]
    for level in star["levels"]:
        assert list(level) == ["level", "ok", "source_dim", "target_dim"]
    assert report_json(CheckResult("c", True)) == {"name": "c", "passed": True}
    assert report_json(CheckResult("c", False, "w")) == {"name": "c", "passed": False, "witness": "w"}


def test_certificate_serialization_is_deterministic(corpus):
    bundles = {b.name: b for b in corpus}
    b = bundles["sigma_level1_id"]
    first = build_h(b.comodule_algebra, b.splitting_map)
    second = build_h(b.comodule_algebra, b.splitting_map)
    assert first.to_json_text() == second.to_json_text()


def test_certificate_text_matches_the_dict_oracle(corpus, base_seed):
    """to_json_text builds h from the packed rows; it must give the text that
    json.dumps gives for the certificate as plain lists.  The certificates
    cover both row formats, a p of 61 bits, a conjugated odd-p bundle whose
    h has multi-digit entries, an h with no rows, an h with no columns, and
    packed rows carrying bits past the last column, which the unpacking
    ignores."""
    bundles = list(corpus) + [
        gen_binomial_truncation(3, 48),
        gen_binomial_truncation(5, 25),
        bundle_extended(2, 8),
        gen_binomial_truncation(2**61 - 1, 3),
    ]
    certs = [build_h(b.comodule_algebra, b.splitting_map, force=True) for b in bundles]
    b = gen_binomial_truncation(13, 6)
    rng = random.Random(base_seed + 18)
    ma, f = _conjugate(b.comodule_algebra, b.splitting_map, _random_invertible(rng, 13, 6))
    conjugated = build_h(ma, f)
    assert max(max(row) for row in conjugated.h_matrix.rows_as_lists()) >= 10
    certs.append(conjugated)
    small = {c.name: c for c in corpus}["sigma_level0_id"]
    cert = build_h(small.comodule_algebra, small.splitting_map)
    h = cert.h_matrix
    certs += [
        dataclasses.replace(cert, h_matrix=FieldMatrix.zeros(2, 0, h.ncols)),
        dataclasses.replace(cert, h_matrix=FieldMatrix.zeros(2, h.nrows, 0)),
        dataclasses.replace(
            cert,
            h_matrix=FieldMatrix._raw(
                2, h.nrows, h.ncols, tuple(r | (5 << h.ncols) for r in h._rows)
            ),
        ),
    ]
    for cert in certs:
        oracle = json.dumps(certificate_doc(cert), sort_keys=True, separators=(",", ":"))
        assert cert.to_json_text() == oracle


def test_certified_property_requires_full_rank(corpus):
    bundles = {b.name: b for b in corpus}
    cert = build_h(bundles["sigma_level0_id"].comodule_algebra, bundles["sigma_level0_id"].splitting_map)
    worse = dataclasses.replace(cert, rank=cert.rank - 1)
    assert not worse.certified
    no_residual = dataclasses.replace(cert, comodule_residual_zero=False)
    assert not no_residual.certified


# -- rechecking ----------------------------------------------------------------------


def test_recheck_accepts_honest_certificates(corpus):
    for name in ("binomial_2_4_id", "sigma_level1_id", "extended_a3_level0"):
        b = {x.name: x for x in corpus}[name]
        cert = build_h(b.comodule_algebra, b.splitting_map)
        report = recheck_certificate(cert, b.comodule_algebra, b.splitting_map)
        assert report.ok
        assert tuple(c.name for c in report.checks) == RECHECK_NAMES


def test_recheck_rejects_tampered_h(corpus):
    b = {x.name: x for x in corpus}["sigma_level0_id"]
    ma, f = b.comodule_algebra, b.splitting_map
    cert = build_h(ma, f)
    bump = FieldMatrix(
        ma.p,
        [[1 if (r, c) == (0, 0) else 0 for c in range(ma.dim)] for r in range(cert.h_matrix.nrows)],
    )
    tampered = dataclasses.replace(cert, h_matrix=cert.h_matrix + bump)
    report = recheck_certificate(tampered, ma, f)
    assert not report.ok
    # Zeroing the (0, 0) entry of the identity keeps it a comodule map but
    # drops the rank, so exactly the bijectivity checks fail.
    assert _failing_names(report) == {"h_bijective", "stored_rank_matches"}


def test_recheck_names_a_kernel_vector_of_a_singular_h(corpus, base_seed):
    """With one row of h zeroed, the h_bijective witness names the support of
    the first kernel basis vector of h; over F_2 that support is the vector,
    so h must kill it.  The other checks of the list keep their verdicts."""
    b = {x.name: x for x in corpus}["extended_a2_level0"]
    rng = random.Random(base_seed + 31)
    t = _random_invertible(rng, b.coalgebra.p, b.comodule_algebra.dim)
    ma, f = _conjugate(b.comodule_algebra, b.splitting_map, t)
    cert = build_h(ma, f)
    rows = cert.h_matrix.rows_as_lists()
    rows[2] = [0] * ma.dim
    zeroed = FieldMatrix(ma.p, rows, ncols=ma.dim)
    report = recheck_certificate(dataclasses.replace(cert, h_matrix=zeroed), ma, f)
    assert tuple(c.name for c in report.checks) == RECHECK_NAMES
    assert {"h_bijective", "stored_rank_matches"} <= _failing_names(report)
    (check,) = [c for c in report.checks if c.name == "h_bijective"]
    prefix = f"rank {ma.dim - 1} of {ma.dim}; first kernel vector supported on "
    assert check.witness.startswith(prefix)
    named = check.witness[len(prefix):].split(", ")
    expected = zeroed.kernel().basis_vectors()[0]
    assert named == [ma.base.labels[i] for i, x in enumerate(expected) if x]
    v = tuple(int(label in named) for label in ma.base.labels)
    assert any(v) and not any(zeroed.matvec(v))
    honest = recheck_certificate(cert, ma, f)
    assert honest.ok and all(c.witness is None for c in honest.checks)


def test_recheck_rejects_tampered_rank(corpus):
    b = {x.name: x for x in corpus}["binomial_2_4_id"]
    cert = build_h(b.comodule_algebra, b.splitting_map)
    tampered = dataclasses.replace(cert, rank=cert.rank - 1)
    report = recheck_certificate(tampered, b.comodule_algebra, b.splitting_map)
    assert _failing_names(report) == {"stored_rank_matches"}


def test_recheck_rejects_tampered_p1_basis(corpus):
    b = {x.name: x for x in corpus}["binomial_2_4_id"]
    ma = b.comodule_algebra
    cert = build_h(ma, b.splitting_map)
    wrong = Subspace.from_vectors(ma.p, ma.dim, [(0, 1, 0, 0)])
    tampered = dataclasses.replace(cert, p1_basis=wrong)
    report = recheck_certificate(tampered, ma, b.splitting_map)
    assert _failing_names(report) == {"p1_basis_matches"}


# -- refusal, force, and alarms ------------------------------------------------------


def test_hypothesis_not_met_carries_the_star_report(corpus):
    b = _control_bundle(corpus)
    with pytest.raises(HypothesisNotMet) as exc_info:
        build_h(b.comodule_algebra, b.splitting_map)
    report = exc_info.value.star_report
    assert not report.ok
    assert not report.surjective
    assert "not surjective" in report.first_failure()


def test_force_builds_h_but_remembers_failed_hypothesis(corpus):
    """--force bypasses the gate, not the bookkeeping: M here is the regular
    comodule, which satisfies the conclusion on its own, so h certifies, but
    the stored star report still says the hypothesis failed and rechecking
    must flag exactly that."""
    b = _control_bundle(corpus)
    cert = build_h(b.comodule_algebra, b.splitting_map, force=True)
    assert cert.certified
    assert not cert.star_report.ok
    report = recheck_certificate(cert, b.comodule_algebra, b.splitting_map)
    assert _failing_names(report) == {"hypothesis_star_surjective"}


def test_dimension_mismatch_alarm_on_corrupt_enrichment():
    ma, f = _padded_by_trivial_line()
    assert f.is_comodule_map()
    with pytest.raises(DimensionMismatch):
        build_h(ma, f)
    # The alarm is not a counterexample: the glued line breaks the enrichment
    # axioms, and the validator names the broken one.
    report = validate_comodule_algebra(ma)
    assert _failing_names(report) == {"action_sends_unit_primitives_to_g_primitives"}


# -- the corpus driver ---------------------------------------------------------------


def test_verify_theorem_on_corpus_matches_expectations(corpus):
    pairs = [
        (b.name, b.comodule_algebra, b.splitting_map, b.expected_outcome) for b in corpus
    ]
    report = verify_theorem_on_corpus(pairs)
    assert report.ok
    assert len(report.items) == len(corpus)
    assert [i.name for i in report.items] == sorted(i.name for i in report.items)
    by_name = {i.name: i for i in report.items}
    assert by_name["control_zero_map"].outcome == "hypothesis_not_met"
    assert by_name["sigma_level2_id"].detail == "rank 48"
    assert by_name["extended_a3_level1"].detail == "rank 36"


def test_verify_theorem_flags_wrong_expectation(corpus):
    pairs = [
        (b.name, b.comodule_algebra, b.splitting_map, "certified") for b in corpus
    ]
    report = verify_theorem_on_corpus(pairs)
    assert not report.ok
    bad = [i for i in report.items if not i.ok]
    assert [i.name for i in bad] == ["control_zero_map"]
    assert bad[0].outcome == "hypothesis_not_met"


def test_verify_theorem_surfaces_alarms():
    ma, f = _padded_by_trivial_line()
    report = verify_theorem_on_corpus([("padded", ma, f, "certified")])
    assert not report.ok
    item = report.items[0]
    assert item.outcome == "alarm"
    assert "DimensionMismatch" in item.detail
