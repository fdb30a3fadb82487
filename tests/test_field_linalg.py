"""Exact linear algebra checked against independent oracles.

The oracles here deliberately avoid the library's own row reduction: ranks
come from determinant minors (permutation expansion), kernels and preimages
from exhaustive enumeration over small F_2 spaces, and staircase membership
from the literal subspace sum.
"""

import itertools
import math
import random

import pytest

from comodule_splitter.errors import ParseError, ShapeError
from comodule_splitter.field_linalg import (
    _PRIME_BOUND,
    FieldMatrix,
    Subspace,
    _echelon,
    _is_prime,
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
    image_by_matvec,
    insert_row,
    internal,
    intersect,
    inverse_by_insertion,
    oracle_row,
    preimage,
    reduce_by_pivots,
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


def test_is_prime_is_exact_below_its_bound():
    """Miller-Rabin agrees with trial division on small n, sees through
    strong pseudoprimes to the bases up to 7, 23 and 37, and refuses an n
    at or above the bound below which its bases are known to decide."""
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    ]
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    for n in (2**31 - 1, 10**14 + 31, 2**61 - 1):
        assert _is_prime(n), n
    for n in (_PRIME_BOUND, 2**89 - 1):
        with pytest.raises(ParseError, match=str(_PRIME_BOUND)):
            _is_prime(n)


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
    """A random row in oracle form: a packed int over F_2, residues otherwise."""
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
        given = [internal(p, r) for r in rows]
        want_rows, want_pivots = echelon_by_insertion(p, ncols, rows)
        want = tuple(internal(p, r) for r in want_rows), want_pivots
        assert _echelon(p, given) == want, (ncols, rows)
        assert given == [internal(p, r) for r in rows]


def test_echelon_of_the_augmented_extended_actions_matches_the_oracle():
    for a in bundle_extended(2, 8).comodule_algebra.action:
        n = a.ncols
        joined = [_join(2, r, 1 << i, n) for i, r in enumerate(a._rows)]
        rows, pivots = _echelon(2, joined)
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
    given = [_pack(r) if p == 2 else tuple(r) for r in dense]
    rref, pivots = echelon_by_insertion(p, ncols, given)
    rref = [_unpack(r, ncols) if p == 2 else r for r in rref]
    rows: list = []
    out_pivots: list[int] = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[f] = 1
        for r, pv in zip(rref, pivots):
            vec[pv] = (-r[f]) % p
        insert_row(p, ncols, rows, out_pivots, _pack(vec) if p == 2 else tuple(vec))
    return Subspace._raw(p, ncols, tuple(internal(p, r) for r in rows), tuple(out_pivots))


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
        rows, pivots = [oracle_row(p, r, n) for r in u._rows], list(u._pivots)
        for r in v._rows:
            insert_row(p, n, rows, pivots, oracle_row(p, r, n))
        for s in (u.add(v), v.add(u)):
            assert (s._rows, s.pivots) == (tuple(internal(p, r) for r in rows), tuple(pivots))


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


# -- odd-p sparse rows against the dense oracles --------------------------------------

SHAPES = ("unit", "sparse", "dense")


def shaped_vectors(rng: random.Random, p: int, shape: str, n: int, count: int) -> list[tuple]:
    """Dense vectors of one shape: unit vectors with a random scalar, about
    2% nonzero entries, or no zero entries."""
    if shape == "unit":
        return [
            tuple(rng.randrange(1, p) if j == hot else 0 for j in range(n))
            for hot in (rng.randrange(n) for _ in range(count))
        ]
    density = 0.02 if shape == "sparse" else 1.0
    return [
        tuple(rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n))
        for _ in range(count)
    ]


def shaped_cases(rng: random.Random, p: int):
    """(shape, width, two batches of vectors); sparse widths run 48 to 512."""
    for shape in SHAPES:
        widths = (48, 160, 512) if shape == "sparse" else (1, 7, rng.randrange(20, 40))
        for n in widths:
            count = rng.randrange(1, min(n, 64) + 3)
            yield shape, n, shaped_vectors(rng, p, shape, n, count), shaped_vectors(rng, p, shape, n, count)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sparse_rows_match_the_dense_oracles(p, base_seed):
    rng = random.Random(base_seed * 29 + p)
    for shape, n, vecs, more in shaped_cases(rng, p):
        case = (shape, n)
        want_rows, want_pivots = echelon_by_insertion(p, n, vecs)
        u = Subspace(p, n, vecs)
        assert _echelon(p, [internal(p, v) for v in vecs]) == (u._rows, u.pivots), case
        assert (u.basis_vectors(), u.pivots) == (list(want_rows), want_pivots), case
        # the kernel of the matrix whose columns are vecs
        cols = [{i: x for i, x in enumerate(v) if x} for v in vecs]
        assert kernel_from_sparse_cols(p, len(vecs), cols) == kernel_oracle(p, len(vecs), cols), case
        v = Subspace(p, n, more)
        rows, pivots = list(want_rows), list(want_pivots)
        for r in more:
            insert_row(p, n, rows, pivots, r)
        assert u.add(v).basis_vectors() == rows and u.add(v).pivots == tuple(pivots), case
        for w in more + [tuple(rng.randrange(p) for _ in range(n))]:
            assert u.reduce(w) == reduce_by_pivots(p, want_rows, want_pivots, w), case
            assert u.contains(w) == (not any(reduce_by_pivots(p, want_rows, want_pivots, w))), case
        assert u.contains_subspace(v) == (len(pivots) == len(want_pivots)), case
        assert u.add(v).contains_subspace(v) and u.contains_subspace(Subspace(p, n, vecs[::2])), case
        # the image of v under the matrix with rows vecs
        want = image_by_matvec(p, vecs, more)[0]
        assert image(FieldMatrix(p, vecs), v) == Subspace(p, len(vecs), want), case


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inverse_of_shaped_matrices_matches_gauss_jordan(p, base_seed):
    rng = random.Random(base_seed * 31 + p)
    for shape in SHAPES:
        for n in ((48, 128) if shape == "sparse" else (1, 6, 24)):
            # a monomial matrix, or a unipotent lower times upper factor,
            # each row permuted; then the same with one row repeated.
            if shape == "unit":
                order = list(range(n))
                rng.shuffle(order)
                square = [tuple(rng.randrange(1, p) if j == order[i] else 0 for j in range(n)) for i in range(n)]
            else:
                fill = shaped_vectors(rng, p, shape, n, 2 * n)
                lower = FieldMatrix(p, [[fill[i][j] if j < i else int(i == j) for j in range(n)] for i in range(n)])
                upper = FieldMatrix(p, [[fill[n + i][j] if j > i else int(i == j) for j in range(n)] for i in range(n)])
                square = (lower @ upper).rows_as_lists()
                rng.shuffle(square)
            for rows in (square, square[:-1] + square[:1]):
                want = inverse_by_insertion(p, rows)
                m = FieldMatrix(p, rows)
                if want is None:
                    assert n > 1 and rows is not square
                    with pytest.raises(ShapeError):
                        m.inverse()
                else:
                    assert m.inverse().rows_as_lists() == [list(r) for r in want], (shape, n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_p_rows_are_canonical_with_no_stored_zeros(p, base_seed):
    rng = random.Random(base_seed * 37 + p)
    for shape, n, vecs, _ in shaped_cases(rng, p):
        u = Subspace(p, n, vecs)
        for row, pv in zip(u._rows, u.pivots):
            assert row[pv] == 1 and min(row) == pv, (shape, n)
            assert all(0 <= j < n and 0 < x < p for j, x in row.items()), (shape, n)
            assert not any(row.get(q) for q in u.pivots if q != pv), (shape, n)
        m = FieldMatrix(p, vecs)
        assert all(0 not in r.values() for r in m._rows + m.transpose()._rows + (m @ m.transpose())._rows)
        # another spanning set of the same span: negated vectors and sums
        # a + c * b of two of them, shuffled
        mixed = [tuple(p - x if x else 0 for x in v) for v in vecs]
        for _ in range(len(vecs) + 2):
            a, b, c = rng.choice(vecs), rng.choice(vecs), rng.randrange(p)
            mixed.append(tuple((x + c * y) % p for x, y in zip(a, b)))
        rng.shuffle(mixed)
        w = Subspace(p, n, mixed)
        assert w._rows == u._rows and hash(w) == hash(u), (shape, n)
        assert hash(w.basis_matrix()) == hash(u.basis_matrix()), (shape, n)


@pytest.mark.parametrize("p", [2, 3])
def test_contains_and_reduce_refuse_vectors_of_the_wrong_length(p):
    s = Subspace(p, 3, [(1, 1, 0)])
    for vec in ((1, 1), (1, 1, 0, 0)):
        with pytest.raises(ShapeError):
            s.contains(vec)
        with pytest.raises(ShapeError):
            vec in s
        with pytest.raises(ShapeError):
            s.reduce(vec)
    assert s.contains((1, 1, 0)) and not s.contains((0, 1, 0))


def test_from_cols_refuses_a_column_longer_than_nrows():
    for p in (2, 3):
        with pytest.raises(ShapeError):
            FieldMatrix.from_cols(p, [(1, 2, 1)], nrows=2)
        with pytest.raises(ShapeError):
            FieldMatrix.from_cols(p, [(1, 2), (1, 2, 1)])
        assert FieldMatrix.from_cols(p, [(1, 2)], nrows=2).rows_as_lists() == [[1], [2 % p]]


def test_from_cols_refuses_a_column_shorter_than_nrows():
    for p in (2, 3):
        with pytest.raises(ShapeError):
            FieldMatrix.from_cols(p, [(1,)], nrows=2)
        with pytest.raises(ShapeError):
            FieldMatrix.from_cols(p, [(1, 2), (1,)])
