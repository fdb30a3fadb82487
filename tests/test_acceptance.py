"""Acceptance suite: one test per criterion, each printing a single
pass/fail line on the real terminal (bypassing capture) with its runtime.

Run with ``pytest -v tests/test_acceptance.py``.
"""

import contextlib
import json
import os
import random
import time

import pytest

from comodule_splitter import (
    Coalgebra,
    Comodule,
    FieldMatrix,
    HypothesisNotMet,
    LeftComodule,
    Subspace,
    build_h,
    check_pointed_exhaustive,
    comodule_filtration,
    comodule_primitives_at,
    comodule_primitives_total,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    cotensor,
    f1_decomposition,
    find_grouplikes,
    primitives_at,
    validate_coalgebra,
)
from comodule_splitter.cli import main as cli_main
from comodule_splitter.generators import (
    gen_binomial_truncation,
    gen_group_algebra,
    gen_non_pointed,
    gen_random_pointed,
    gen_sigma_truncation,
)
from oracles import StaircaseMembership, intersect, preimage, psi_matrix, tensor

THEOREM_PAIRS = (
    "sigma_level0_id",
    "sigma_level1_id",
    "sigma_level2_id",
    "extended_a2_level0",
    "extended_a3_level0",
    "extended_a2_level1",
    "extended_a3_level1",
)

# Mutation sites (i, j, k): toggle the coefficient of e_j (x) e_k inside
# Delta(e_i).  The first three groups break coassociativity alone (both
# counit values vanish there); the rest hit a basis element with nonzero
# counit, which provably breaks a counit axiom.
MUTATION_SITES = {
    "binomial_2_5": ((0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 4)),
    "binomial_3_4": ((0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 2, 1)),
    "sigma_level1": ((0, 3, 3), (0, 3, 4), (0, 3, 5), (0, 3, 6)),
    "group_algebra_2_3": ((0, 0, 1), (1, 0, 2)),
    "group_algebra_2_6": ((2, 1, 5), (3, 2, 2)),
    "binomial_3_5": ((1, 0, 2), (2, 0, 0)),
    "sigma_level0": ((1, 0, 1),),
    "sigma_level2": ((5, 0, 5),),
}


@contextlib.contextmanager
def _criterion(capsys, num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance criterion {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"acceptance criterion {num} ({name}): PASS [{elapsed:.1f}s]")


def _validation_family():
    members = {}
    for n in range(1, 7):
        members[f"group_algebra_2_{n}"] = gen_group_algebra(2, n).coalgebra
    for p in (2, 3):
        for d in range(2, 6):
            members[f"binomial_{p}_{d}"] = gen_binomial_truncation(p, d).coalgebra
    for level in (0, 1, 2):
        members[f"sigma_level{level}"] = gen_sigma_truncation(level).coalgebra
    return members


def _toggle(c, i, j, k):
    """Flip one structure constant of Delta(e_i) by +1 and rebuild."""
    acc = [dict() for _ in range(c.dim)]
    for idx, triples in enumerate(c.delta):
        for a, b, co in triples:
            acc[idx][(a, b)] = (acc[idx].get((a, b), 0) + co) % c.p
    acc[i][(j, k)] = (acc[i].get((j, k), 0) + 1) % c.p
    delta = tuple(
        tuple((a, b, co) for (a, b), co in sorted(acc[idx].items()) if co)
        for idx in range(c.dim)
    )
    return Coalgebra(c.p, c.dim, c.labels, delta, c.counit)


def _grouplikes_of(c):
    if c.declared_grouplikes is not None:
        return find_grouplikes(c, "declared")
    return find_grouplikes(c, "brute_force")


def test_criterion_1_validators_and_mutation_battery(capsys):
    """Validators accept the whole example family and reject 20 single
    structure-constant mutations, each with a witness, in under 10s."""
    with _criterion(capsys, 1, "validators and mutation battery"):
        start = time.monotonic()
        family = _validation_family()
        assert len(family) == 17
        for name, c in family.items():
            assert validate_coalgebra(c).ok, name

        mutants = 0
        for key, sites in MUTATION_SITES.items():
            for site in sites:
                report = validate_coalgebra(_toggle(family[key], *site))
                assert not report.ok, (key, site)
                assert any(f.witness for f in report.failures()), (key, site)
                mutants += 1
        assert mutants == 20
        assert time.monotonic() - start < 10.0


def test_criterion_2_direct_equals_wedge(capsys, base_seed):
    """The two filtration algorithms produce equal subspaces level by level
    on every small example and on 50 seeded random pointed coalgebras."""
    with _criterion(capsys, 2, "direct and wedge filtrations agree"):
        cases = [(n, c) for n, c in _validation_family().items() if c.dim <= 8]
        cases.append(("non_pointed_block", gen_non_pointed().coalgebra))
        for offset in range(50):
            b = gen_random_pointed(base_seed + offset)
            cases.append((b.name, b.coalgebra))
        for name, c in cases:
            g = _grouplikes_of(c)
            wedge = coradical_filtration_wedge(c, g, 3)
            direct = coradical_filtration_direct(c, g, k_max=3)
            for k in range(4):
                assert wedge.level(k) == direct.level(k), (name, k)


def test_criterion_3_golden_values(capsys):
    """Frozen dimensions: the binomial truncation filters as (1, 3, 4) with a
    2-dimensional primitive space, and the level-1 truncation is a pointed
    12-dimensional coalgebra with a 3-dimensional coradical."""
    with _criterion(capsys, 3, "golden dimensions"):
        b = gen_binomial_truncation(2, 4)
        filt = coradical_filtration_wedge(b.coalgebra, b.grouplikes)
        assert filt.dims() == (1, 3, 4)
        assert filt.exhaustive
        one = b.grouplikes.vectors[0]
        assert primitives_at(b.coalgebra, one).dim == 2

        tr = gen_sigma_truncation(1)
        assert tr.coalgebra.dim == 12
        sfilt = coradical_filtration_wedge(tr.coalgebra, tr.grouplikes)
        assert sfilt.level(0).dim == 3
        assert sfilt.exhaustive
        assert check_pointed_exhaustive(tr.coalgebra, tr.grouplikes)


def test_criterion_4_lemma_suite(capsys, corpus):
    """On every corpus member: the coproduct respects the filtration
    staircase, F_1 decomposes over grouplikes and primitives, total comodule
    primitives split as a direct sum equal to F_0(M), the coaction of F_n(M)
    lands in P(M) (x) F_n + M (x) F_{n-1}, the three filtrations of Sigma as
    a comodule over itself agree, and each P_g(M) matches the cotensor with
    the grouplike line.  Under 60s."""
    with _criterion(capsys, 4, "lemma suite on the corpus"):
        start = time.monotonic()
        filts = {}
        seen = set()
        for b in corpus:
            c = b.coalgebra
            key = (c.p, c.dim, c.delta, c.counit)
            if key not in filts:
                filts[key] = coradical_filtration_wedge(c, b.grouplikes)
            filt = filts[key]

            if key not in seen:
                seen.add(key)
                dm = c.delta_matrix()
                for n in range(len(filt.levels)):
                    stair = StaircaseMembership(
                        [(filt.level(n - j), filt.level(j)) for j in range(n + 1)]
                    )
                    for v in filt.level(n).basis_vectors():
                        assert stair.contains(dm.matvec(v)), (b.name, n)
                assert f1_decomposition(c, b.grouplikes).ok, b.name

            m = b.comodule_algebra.base
            total, report = comodule_primitives_total(m, b.grouplikes)
            assert report.ok, b.name
            assert report.total_dim == report.f0_dim == sum(report.per_grouplike_dims)

            mfilt = comodule_filtration(m, filt)
            full_m = Subspace.full(m.p, m.dim)
            psi_m = psi_matrix(m)
            for k in range(len(mfilt.levels)):
                stair = StaircaseMembership(
                    [(full_m, filt.level(k - 1)), (total, filt.level(k))]
                )
                for v in mfilt.level(k).basis_vectors():
                    assert stair.contains(psi_m.matvec(v)), (b.name, k)

            for gv in b.grouplikes:
                line = LeftComodule.grouplike_line(c, gv)
                assert cotensor(m, line) == comodule_primitives_at(m, gv), b.name

        for level in (0, 1, 2):
            tr = gen_sigma_truncation(level)
            c = tr.coalgebra
            filt = coradical_filtration_wedge(c, tr.grouplikes)
            right = comodule_filtration(Comodule.regular(c), filt)
            dm = c.delta_matrix()
            full = Subspace.full(c.p, c.dim)
            for k in range(len(filt.levels)):
                left_k = preimage(dm, tensor(filt.level(k), full))
                assert right.level(k) == filt.level(k) == left_k, (level, k)

        assert time.monotonic() - start < 60.0


def test_criterion_5_theorem_end_to_end(capsys, corpus, corpus_dir, tmp_path):
    """build_h certifies all seven (M, f) pairs with rank = dim M =
    dim P_1(M) * dim Sigma and zero residual; the CLI re-verifies each
    certificate from files; the negative control is refused.  Under 120s."""
    with _criterion(capsys, 5, "splitting theorem end to end"):
        start = time.monotonic()
        bundles = {b.name: b for b in corpus}
        for name in THEOREM_PAIRS:
            b = bundles[name]
            ma = b.comodule_algebra
            cert = build_h(ma, b.splitting_map)
            assert cert.certified, name
            assert cert.comodule_residual_zero, name
            assert cert.rank == ma.dim == cert.p1_basis.dim * b.coalgebra.dim, name

            comodule_file = os.path.join(str(corpus_dir), f"{name}.comodule.json")
            map_file = os.path.join(str(corpus_dir), f"{name}.map.json")
            cert_file = str(tmp_path / f"{name}.cert.json")
            assert cli_main(["split", comodule_file, map_file, "--out", cert_file]) == 0
            assert cli_main(["certify", cert_file, comodule_file, map_file]) == 0

        control = bundles["control_zero_map"]
        with pytest.raises(HypothesisNotMet):
            build_h(control.comodule_algebra, control.splitting_map)
        code = cli_main(
            [
                "split",
                os.path.join(str(corpus_dir), "control_zero_map.comodule.json"),
                os.path.join(str(corpus_dir), "control_zero_map.map.json"),
                "--out",
                str(tmp_path / "control.cert.json"),
            ]
        )
        assert code == 4
        capsys.readouterr()
        assert time.monotonic() - start < 120.0


def test_criterion_6_certificates_are_byte_identical(capsys, corpus_dir, tmp_path):
    """Two cmd_split runs on the same inputs write byte-identical files."""
    with _criterion(capsys, 6, "deterministic certificate files"):
        for name in THEOREM_PAIRS + ("binomial_2_4_id",):
            comodule_file = os.path.join(str(corpus_dir), f"{name}.comodule.json")
            map_file = os.path.join(str(corpus_dir), f"{name}.map.json")
            blobs = []
            for run in (1, 2):
                out = str(tmp_path / f"{name}.{run}.cert.json")
                assert cli_main(["split", comodule_file, map_file, "--out", out]) == 0
                with open(out, "rb") as fh:
                    blobs.append(fh.read())
            assert blobs[0] == blobs[1], name
        capsys.readouterr()


def test_criterion_7_linear_algebra_battery(capsys, base_seed):
    """Rank-nullity and the subspace lattice identity on 200 seeded matrices
    over each of F_2 and F_3, plus exhaustive preimage checks over F_2 up to
    domain dimension 10."""
    with _criterion(capsys, 7, "linear algebra battery"):
        for p in (2, 3):
            rng = random.Random(base_seed + p)
            for _ in range(200):
                nrows = rng.randrange(0, 9)
                ncols = rng.randrange(1, 9)
                m = FieldMatrix(
                    p,
                    [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
                    ncols=ncols,
                )
                ker = m.kernel()
                assert m.rank() + ker.dim == ncols
                for v in ker.basis_vectors():
                    assert all(x == 0 for x in m.matvec(v))

                n = rng.randrange(1, 7)
                rand_vecs = lambda: [
                    tuple(rng.randrange(p) for _ in range(n))
                    for _ in range(rng.randrange(0, n + 1))
                ]
                u = Subspace.from_vectors(p, n, rand_vecs())
                w = Subspace.from_vectors(p, n, rand_vecs())
                assert u.add(w).dim + intersect(u, w).dim == u.dim + w.dim

        rng = random.Random(base_seed)
        for ncols, nrows in ((4, 3), (6, 5), (8, 4), (10, 6)):
            m = FieldMatrix(
                2, [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)], ncols=ncols
            )
            s = Subspace.from_vectors(
                2,
                nrows,
                [tuple(rng.randrange(2) for _ in range(nrows)) for _ in range(2)],
            )
            pre = preimage(m, s)
            for bits in range(2**ncols):
                v = tuple((bits >> t) & 1 for t in range(ncols))
                assert pre.contains(v) == s.contains(m.matvec(v))
