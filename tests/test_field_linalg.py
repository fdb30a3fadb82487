"""Exact linear algebra checked against independent oracles.

The oracles here deliberately avoid the library's own row reduction: ranks
come from determinant minors (permutation expansion), kernels and preimages
from exhaustive enumeration over small F_2 spaces, and staircase membership
from the literal subspace sum.
"""

import itertools
import random

import pytest

from comodule_splitter.errors import ShapeError
from comodule_splitter.field_linalg import (
    FieldMatrix,
    Subspace,
    _echelon,
    _join,
    _pack,
    _unpack,
    image,
    kernel_from_sparse_cols,
)
from comodule_splitter.generators import bundle_extended
from oracles import (
    StaircaseMembership,
    echelon_by_insertion,
    insert_row,
    intersect,
    preimage,
    staircase_sum,
    tensor,
)


# -- oracles ---------------------------------------------------------------------------


def det_oracle(p: int, rows: list[list[int]]) -> int:
    """Determinant by permutation expansion; fine up to 5x5."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def rank_oracle(p: int, rows: list[list[int]], ncols: int) -> int:
    """Largest k with a k x k minor of nonzero determinant mod p."""
    nrows = len(rows)
    for k in range(min(nrows, ncols), 0, -1):
        for ris in itertools.combinations(range(nrows), k):
            for cis in itertools.combinations(range(ncols), k):
                minor = [[rows[i][j] for j in cis] for i in ris]
                if det_oracle(p, minor):
                    return k
    return 0


def random_matrix(rng: random.Random, p: int, nrows: int, ncols: int) -> FieldMatrix:
    return FieldMatrix(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])


def all_vectors(p: int, n: int):
    return itertools.product(range(p), repeat=n)


def pack_oracle(vec) -> int:
    """The literal packing loop: bit j is entry j mod 2."""
    mask = 0
    for j, x in enumerate(vec):
        if x % 2:
            mask |= 1 << j
    return mask


def unpack_oracle(mask: int, n: int) -> tuple[int, ...]:
    """The literal unpacking loop: bits 0..n-1 of mask."""
    return tuple((mask >> j) & 1 for j in range(n))


# -- F_2 packing -----------------------------------------------------------------------


def test_bulk_packing_matches_the_literal_loops(base_seed):
    rng = random.Random(base_seed + 71)
    entries = {
        "bits": (0, 1),
        "bytes": (0, 255),
        "at least 2": (2, 10**6),
        "negative": (-(10**6), -1),
        "any": (-(10**30), 10**30),
    }
    for n in (0, 1, 2, 7, 8, 9, 64, 1536):
        for lo, hi in entries.values():
            vec = [rng.randint(lo, hi) for _ in range(n)]
            for form in (vec, tuple(vec)):
                assert _pack(form) == pack_oracle(vec), (n, lo, hi)
        assert FieldMatrix(2, [vec], ncols=n).row(0) == unpack_oracle(pack_oracle(vec), n)
        for mask in (0, rng.getrandbits(n) if n else 0, rng.getrandbits(n + 40), (1 << (n + 3)) - 1):
            for width in (n, n + 5):
                assert _unpack(mask, width) == unpack_oracle(mask, width), (mask, width)
        assert _unpack(pack_oracle([1] * n), n) == (1,) * n
    assert _pack([]) == _pack(()) == 0
    assert _unpack(0b1011, 0) == ()
    assert _unpack(0b1011, 1) == (1,)
    assert _pack([-1]) == _pack([3]) == 1 and _pack([-2]) == _pack([256]) == 0


# -- the echelon core against the incremental RREF ----------------------------------------


def internal_row(rng: random.Random, p: int, n: int, density: float):
    """A random row in internal form: a packed int over F_2, residues otherwise."""
    vec = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
    return _pack(vec) if p == 2 else tuple(vec)


def echelon_cases(rng: random.Random, p: int):
    """(ncols, rows) batches: empty, degenerate, already reduced and wide."""

    def zero(n):
        return 0 if p == 2 else (0,) * n

    yield 0, []
    yield 5, []
    yield 0, [zero(0)] * 3
    yield 6, [zero(6)] * 4
    for _ in range(40):
        n = rng.randrange(1, 13)
        rows = [internal_row(rng, p, n, rng.random()) for _ in range(rng.randrange(1, 2 * n + 2))]
        yield n, rows
        yield n, rows + rows[::-1] + [zero(n)]
        reduced = list(echelon_by_insertion(p, n, rows)[0])
        yield n, reduced
        rng.shuffle(reduced)
        yield n, reduced + rows
    for density in (0.01, 0.5):
        yield 768, [internal_row(rng, p, 768, density) for _ in range(160 if p == 2 else 24)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_matches_the_incremental_rref(p, base_seed):
    rng = random.Random(base_seed * 13 + p)
    for ncols, rows in echelon_cases(rng, p):
        assert _echelon(p, ncols, rows) == echelon_by_insertion(p, ncols, rows), (ncols, rows)


def test_echelon_of_the_augmented_extended_actions_matches_the_oracle():
    for a in bundle_extended(2, 8).comodule_algebra.action:
        n = a.ncols
        joined = [_join(2, r, 1 << i, n) for i, r in enumerate(a._rows)]
        rows, pivots = _echelon(2, 2 * n, joined)
        assert (rows, pivots) == echelon_by_insertion(2, 2 * n, joined)
        assert pivots == tuple(range(n))
        assert tuple(r >> n for r in rows) == a.inverse()._rows


def kernel_oracle(p: int, ncols: int, cols) -> Subspace:
    """The kernel of the matrix with the given sparse columns, built densely:
    one basis vector per free column of its RREF, inserted one by one."""
    nrows = 1 + max((i for c in cols for i in c), default=-1)
    dense = [[0] * ncols for _ in range(nrows)]
    for j, c in enumerate(cols):
        for i, x in c.items():
            dense[i][j] = (dense[i][j] + x) % p
    internal = [_pack(r) if p == 2 else tuple(r) for r in dense]
    rref, pivots = echelon_by_insertion(p, ncols, internal)
    rref = [_unpack(r, ncols) if p == 2 else r for r in rref]
    rows: list = []
    out_pivots: list[int] = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[f] = 1
        for r, pv in zip(rref, pivots):
            vec[pv] = (-r[f]) % p
        insert_row(p, ncols, rows, out_pivots, _pack(vec) if p == 2 else tuple(vec))
    return Subspace._raw(p, ncols, tuple(rows), tuple(out_pivots))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_from_sparse_cols_matches_inserting_kernel_vectors(p, base_seed):
    rng = random.Random(base_seed * 17 + p)
    cases = [(0, 0, 0.5), (4, 0, 0.5), (5, 3, 0.0)]
    cases += [(rng.randrange(1, 15), rng.randrange(1, 15), rng.random()) for _ in range(40)]
    cases += [(120, 90, 0.03), (60, 40, 0.5)]
    for ncols, nrows, density in cases:
        cols = [
            {i: rng.randrange(1, p) for i in range(nrows) if rng.random() < density}
            for _ in range(ncols)
        ]
        if cols and rng.random() < 0.5:
            cols[-1] = dict(cols[0])
        want = kernel_oracle(p, ncols, cols)
        got = kernel_from_sparse_cols(p, ncols, cols)
        assert (got._rows, got.pivots) == (want._rows, want.pivots), (ncols, cols)
        if p == 2:
            packed = [sum(1 << i for i in c) for c in cols]
            assert kernel_from_sparse_cols(2, ncols, packed) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subspace_add_matches_the_incremental_sum(p, base_seed):
    rng = random.Random(base_seed * 19 + p)
    for _ in range(60):
        n = rng.randrange(0, 12)
        spaces = [Subspace.zero(p, n), Subspace.full(p, n)]
        for _ in range(3):
            vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(n + 2))]
            spaces.append(Subspace(p, n, vecs))
        u, v = rng.sample(spaces, 2)
        rows, pivots = list(u._rows), list(u._pivots)
        for r in v._rows:
            insert_row(p, n, rows, pivots, r)
        for s in (u.add(v), v.add(u)):
            assert (s._rows, s.pivots) == (tuple(rows), tuple(pivots))


# -- rank / kernel / solve -------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_minor_oracle(p, base_seed):
    rng = random.Random(base_seed + p)
    for _ in range(25):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        m = random_matrix(rng, p, nrows, ncols)
        assert m.rank() == rank_oracle(p, m.rows_as_lists(), ncols)


@pytest.mark.parametrize("p", [2, 3])
def test_rank_nullity_and_kernel_vectors(p, base_seed):
    rng = random.Random(base_seed * 3 + p)
    for _ in range(100):
        nrows = rng.randrange(1, 12)
        ncols = rng.randrange(1, 12)
        m = random_matrix(rng, p, nrows, ncols)
        ker = m.kernel()
        assert m.rank() + ker.dim == ncols
        for v in ker.basis_vectors():
            assert all(x == 0 for x in m.matvec(v))


def test_kernel_exhaustive_small_f2(base_seed):
    rng = random.Random(base_seed + 11)
    for _ in range(20):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 7)
        m = random_matrix(rng, 2, nrows, ncols)
        ker = m.kernel()
        truth = [v for v in all_vectors(2, ncols) if all(x == 0 for x in m.matvec(v))]
        assert len(truth) == 2**ker.dim
        assert all(ker.contains(v) for v in truth)


def test_kernel_from_sparse_cols_matches_dense(base_seed):
    rng = random.Random(base_seed + 12)
    for p in (2, 3):
        for _ in range(25):
            nrows = rng.randrange(1, 9)
            ncols = rng.randrange(1, 9)
            m = random_matrix(rng, p, nrows, ncols)
            cols = [
                {i: m.entry(i, j) for i in range(nrows) if m.entry(i, j)}
                for j in range(ncols)
            ]
            assert kernel_from_sparse_cols(p, ncols, cols) == m.kernel()


@pytest.mark.parametrize("p", [2, 3])
def test_solve_finds_solutions_and_detects_none(p, base_seed):
    rng = random.Random(base_seed * 5 + p)
    for _ in range(60):
        nrows = rng.randrange(1, 8)
        ncols = rng.randrange(1, 8)
        m = random_matrix(rng, p, nrows, ncols)
        x = [rng.randrange(p) for _ in range(ncols)]
        b = FieldMatrix.from_cols(p, [m.matvec(x)], nrows=nrows)
        sol = m.solve(b)
        assert sol is not None
        assert m.matvec(sol.col(0)) == b.col(0)
        # a right-hand side outside the column space must come back as None
        rhs = [rng.randrange(p) for _ in range(nrows)]
        expected = m.transpose().row_space().contains(rhs)
        got = m.solve(FieldMatrix.from_cols(p, [rhs], nrows=nrows))
        assert (got is not None) == expected


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_round_trip_and_singular(p, base_seed):
    rng = random.Random(base_seed * 7 + p)
    ident = FieldMatrix.identity(p, 5)
    built = 0
    while built < 10:
        m = random_matrix(rng, p, 5, 5)
        if m.rank() < 5:
            with pytest.raises(ShapeError):
                m.inverse()
            continue
        inv = m.inverse()
        assert m @ inv == ident
        assert inv @ m == ident
        built += 1


# -- rref / subspaces ------------------------------------------------------------------


def test_rref_is_canonical_and_idempotent(base_seed):
    rng = random.Random(base_seed + 23)
    for p in (2, 3):
        for _ in range(30):
            n = rng.randrange(1, 7)
            vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, 6))]
            s1 = Subspace(p, n, vecs)
            # random invertible recombination of the generators spans the same space
            mixed = []
            for _ in range(len(vecs) + 2):
                coeffs = [rng.randrange(p) for _ in vecs]
                mixed.append(
                    [sum(c * v[j] for c, v in zip(coeffs, vecs)) % p for j in range(n)]
                )
            mixed.extend(vecs)
            rng.shuffle(mixed)
            s2 = Subspace(p, n, mixed)
            assert s1 == s2
            assert s1.basis_matrix().row_space() == s1


@pytest.mark.parametrize("p", [2, 3])
def test_subspace_lattice_identity(p, base_seed):
    rng = random.Random(base_seed * 11 + p)
    for _ in range(100):
        n = rng.randrange(1, 9)
        u = Subspace(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))])
        v = Subspace(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))])
        s = u.add(v)
        i = intersect(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains_subspace(u) and s.contains_subspace(v)
        assert u.contains_subspace(i) and v.contains_subspace(i)


def test_membership_and_reduce_exhaustive_f2(base_seed):
    rng = random.Random(base_seed + 31)
    for _ in range(10):
        n = rng.randrange(1, 7)
        gens = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        s = Subspace(2, n, gens)
        truth = set()
        for coeffs in all_vectors(2, len(gens)):
            truth.add(tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) % 2 for j in range(n)))
        for v in all_vectors(2, n):
            assert s.contains(v) == (tuple(v) in truth)
            assert s.contains(v) == (tuple(v) in truth)
            # reduce returns a canonical coset representative: zero iff member
            assert (tuple(s.reduce(v)) == (0,) * n) == (tuple(v) in truth)


def test_quotient_matrix_kernel_is_the_subspace(base_seed):
    rng = random.Random(base_seed + 37)
    for p in (2, 3):
        for _ in range(25):
            n = rng.randrange(1, 8)
            s = Subspace(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))])
            q = s.quotient_matrix()
            assert q.nrows == n - s.dim
            assert q.kernel() == s


def test_preimage_exhaustive_f2(base_seed):
    rng = random.Random(base_seed + 41)
    for _ in range(20):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 7)
        m = random_matrix(rng, 2, nrows, ncols)
        s = Subspace(2, nrows, [[rng.randrange(2) for _ in range(nrows)] for _ in range(rng.randrange(3))])
        pre = preimage(m, s)
        for v in all_vectors(2, ncols):
            assert pre.contains(v) == s.contains(m.matvec(v))


def test_image_of_subspace(base_seed):
    rng = random.Random(base_seed + 43)
    for p in (2, 3):
        for _ in range(25):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 7)
            m = random_matrix(rng, p, nrows, ncols)
            s = Subspace(p, ncols, [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randrange(4))])
            img = image(m, s)
            assert img == Subspace(p, nrows, [m.matvec(v) for v in s.basis_vectors()])
            assert image(m, Subspace.full(p, ncols)) == m.transpose().row_space()


# -- tensor structure ------------------------------------------------------------------


def test_kron_mixed_product_rule(base_seed):
    rng = random.Random(base_seed + 53)
    for p in (2, 3):
        for _ in range(20):
            am, an = rng.randrange(1, 5), rng.randrange(1, 5)
            bm, bn = rng.randrange(1, 5), rng.randrange(1, 5)
            a = random_matrix(rng, p, am, an)
            b = random_matrix(rng, p, bm, bn)
            x = [rng.randrange(p) for _ in range(an)]
            y = [rng.randrange(p) for _ in range(bn)]
            # convention: e_i (x) e_j is slot i * n + j
            xy = [x[i] * y[j] % p for i in range(an) for j in range(bn)]
            ax, by = a.matvec(x), b.matvec(y)
            expect = [ax[i] * by[j] % p for i in range(am) for j in range(bm)]
            assert list(a.kron(b).matvec(xy)) == expect
            assert a.kron(b).rank() == a.rank() * b.rank()


def test_subspace_tensor_dims_and_membership(base_seed):
    rng = random.Random(base_seed + 59)
    for p in (2, 3):
        for _ in range(20):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            u = Subspace(p, m, [[rng.randrange(p) for _ in range(m)] for _ in range(rng.randrange(3))])
            v = Subspace(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(3))])
            t = tensor(u, v)
            assert t.dim == u.dim * v.dim
            assert t.ambient_dim == m * n
            for a in u.basis_vectors():
                for b in v.basis_vectors():
                    assert t.contains([a[i] * b[j] % p for i in range(m) for j in range(n)])


def _random_flag(rng, p, n, length):
    """An increasing chain of subspaces of F_p^n."""
    chain = []
    cur = Subspace.zero(p, n)
    for _ in range(length):
        cur = cur.add(Subspace(p, n, [[rng.randrange(p) for _ in range(n)]]))
        chain.append(cur)
    return chain


def test_staircase_membership_matches_literal_sum(base_seed):
    rng = random.Random(base_seed + 61)
    for p in (2, 3):
        for _ in range(15):
            m, n = rng.randrange(2, 5), rng.randrange(2, 5)
            r = rng.randrange(1, 4)
            ups = _random_flag(rng, p, m, r)
            rights = _random_flag(rng, p, n, r)
            # A must decrease while B increases along the terms
            terms = [(ups[r - 1 - i], rights[i]) for i in range(r)]
            literal = staircase_sum(terms)
            fast = StaircaseMembership(terms)
            for _ in range(60):
                v = [rng.randrange(p) for _ in range(m * n)]
                assert fast.contains(v) == literal.contains(v)
            for b in literal.basis_vectors():
                assert fast.contains(b)


def test_staircase_rejects_non_staircase():
    p, n = 2, 3
    small = Subspace(p, n, [[1, 0, 0]])
    big = Subspace.full(p, n)
    with pytest.raises(ShapeError):
        StaircaseMembership([(small, small), (big, big)])


# -- basic matrix plumbing -------------------------------------------------------------


def test_matmul_matches_matvec(base_seed):
    rng = random.Random(base_seed + 67)
    for p in (2, 3):
        a = random_matrix(rng, p, 4, 5)
        b = random_matrix(rng, p, 5, 3)
        ab = a @ b
        for j in range(3):
            assert ab.col(j) == a.matvec(b.col(j))


def test_transpose_vstack_entry():
    m = FieldMatrix(3, [[1, 2], [0, 1], [2, 2]])
    t = m.transpose()
    assert t.nrows == 2 and t.ncols == 3
    assert all(m.entry(i, j) == t.entry(j, i) for i in range(3) for j in range(2))


def test_shape_errors():
    with pytest.raises(ShapeError):
        FieldMatrix(2, [[1, 0], [1]])
    a = FieldMatrix(2, [[1, 0]])
    b = FieldMatrix(2, [[1], [0]])
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        FieldMatrix(2, [[1, 0]]) @ FieldMatrix(2, [[1, 0]])
    with pytest.raises(ShapeError):
        Subspace(2, 3, [[1, 0]])


def test_rows_given_as_lists_tuples_or_iterables_agree(base_seed):
    rng = random.Random(base_seed + 97)
    for p in (2, 3):
        for n in (0, 1, 5, 300):
            rows = [[rng.randrange(-7, 7) for _ in range(n)] for _ in range(4)]
            want = FieldMatrix(p, rows, ncols=n)
            assert FieldMatrix(p, [tuple(r) for r in rows], ncols=n) == want
            assert FieldMatrix(p, (iter(r) for r in rows), ncols=n) == want
            assert FieldMatrix(p, [tuple(rows[0])] + rows[1:], ncols=n) == want
            for r in rows:
                r.append(1)
            assert want.rows_as_lists() == [[x % p for x in r[:-1]] for r in rows]
        for ragged in ([[1, 0], (1,)], [iter([1, 0]), iter([1])], [(1, 0), range(3)]):
            with pytest.raises(ShapeError):
                FieldMatrix(p, ragged)
