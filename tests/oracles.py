"""Literal routines that the tests hold the library's fast paths to.

``insert_row`` is the incremental echelon step: it keeps a full canonical
RREF after every row, scanning every pivot and every stored row.  The
library's batch ``field_linalg._echelon`` must give the same rows and
pivots, because the canonical RREF of a span is unique.

``intersect`` (Zassenhaus) and ``tensor`` are the subspace lattice
operations that no pipeline step needs.  ``preimage`` and ``staircase_sum``
build a tensor sum in full and reduce a dense matrix against it.
``StaircaseMembership`` tests membership in a staircase tensor sum through
its corner conditions, and ``staircase_preimage`` reads the preimage of one
staircase tensor sum off the coaction triples through those corner pairs:
the per-level route, one fresh call per layer, that ``AdaptedCoaction``
replaced.  It is held to the literal route in turn.  ``spread_rewrite`` is
the F_2 rewrite ``AdaptedCoaction`` used to do, one wide spread row shifted
per triple.

``primitives_cotensor_embedding`` and ``check_map_preserves_filtration``
state two structural lemmas on comodules, P(M) = M box R and
f(F_k(M)) <= F_k(N), in the form the lemma tests check them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from comodule_splitter.coalgebra import Filtration, GroupLikeSet
from comodule_splitter.comodule import (
    Comodule,
    ComoduleMap,
    comodule_filtration,
    comodule_primitives_at,
)
from comodule_splitter.errors import ShapeError
from comodule_splitter.field_linalg import (
    FieldMatrix,
    Subspace,
    Vector,
    _add_mod,
    _echelon,
    _join,
    _pack,
    _right,
    image,
    kernel_from_sparse_cols,
)


def _first_nonzero(row) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def insert_row(p: int, ncols: int, rows: list, pivots: list[int], row) -> bool:
    """Insert an internal-representation row into a canonical RREF list.

    Mutates ``rows`` and ``pivots`` in place, keeping the list canonical.
    Returns True when the rank grew.
    """
    if p == 2:
        v = row
        for idx, pv in enumerate(pivots):
            if (v >> pv) & 1:
                v ^= rows[idx]
                if v == 0:
                    return False
        if v == 0:
            return False
        lead = (v & -v).bit_length() - 1
        for idx in range(len(rows)):
            if (rows[idx] >> lead) & 1:
                rows[idx] ^= v
        pos = bisect_left(pivots, lead)
        rows.insert(pos, v)
        pivots.insert(pos, lead)
        return True
    v = list(row)
    for idx, pv in enumerate(pivots):
        c = v[pv]
        if c:
            other = rows[idx]
            for j in range(pv, ncols):
                if other[j]:
                    v[j] = (v[j] - c * other[j]) % p
    lead = _first_nonzero(v)
    if lead is None:
        return False
    inv = pow(v[lead], -1, p)
    if inv != 1:
        v = [(x * inv) % p for x in v]
    vt = tuple(v)
    for idx in range(len(rows)):
        c = rows[idx][lead]
        if c:
            old = rows[idx]
            rows[idx] = tuple((old[j] - c * vt[j]) % p for j in range(ncols))
    pos = bisect_left(pivots, lead)
    rows.insert(pos, vt)
    pivots.insert(pos, lead)
    return True


def echelon_by_insertion(p: int, ncols: int, rows: Iterable) -> tuple[tuple, tuple[int, ...]]:
    """Canonical RREF rows and pivots of the span, one ``insert_row`` per row."""
    out: list = []
    pivots: list[int] = []
    for r in rows:
        insert_row(p, ncols, out, pivots, r)
    return tuple(out), tuple(pivots)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: echelonize [a | a] and [b | 0]; rows supported on the
    right half span the intersection."""
    if u.p != v.p or u.ambient_dim != v.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    p, n = u.p, u.ambient_dim
    zero = FieldMatrix.zeros(p, 1, n)._rows[0]
    joined = [_join(p, a, a, n) for a in u._rows] + [_join(p, b, zero, n) for b in v._rows]
    rows, pivots = _echelon(p, 2 * n, joined)
    right = [_right(p, r, n) for t, r in zip(pivots, rows) if t >= n]
    return Subspace._raw(p, n, *_echelon(p, n, right))


def tensor(a: Subspace, b: Subspace) -> Subspace:
    """The subspace a (x) b of F^(m*n).

    The Kronecker products of two canonical bases are again a canonical
    basis (pivot of a_i (x) b_j is pivot(a_i)*n + pivot(b_j)), so no
    elimination is needed.
    """
    m = a.basis_matrix().kron(b.basis_matrix())
    n = b.ambient_dim
    pivots = tuple(pa * n + pb for pa in a._pivots for pb in b._pivots)
    return Subspace._raw(a.p, m.ncols, m._rows, pivots)


def preimage(m: FieldMatrix, s: Subspace) -> Subspace:
    """{v : m v in s}, the preimage of a subspace of the codomain.

    The literal route, kept as the oracle that the tests hold
    ``staircase_preimage`` to.
    """
    if m.p != s.p:
        raise ShapeError("mixed characteristics")
    if s.ambient_dim != m.nrows:
        raise ShapeError("subspace must live in the codomain of the matrix")
    if m.p == 2:
        cols = [s._reduce_packed(c) for c in m.packed_cols()]
    else:
        cols = [dict(enumerate(s.reduce(m.col(j)))) for j in range(m.ncols)]
    return kernel_from_sparse_cols(m.p, m.ncols, cols)


def staircase_sum(terms: Sequence[tuple[Subspace, Subspace]]) -> Subspace:
    """The literal subspace A_1 (x) B_1 + ... + A_r (x) B_r.

    Fine for small ambient spaces and kept as the test oracle; the
    membership class and ``staircase_preimage`` are the scalable routes
    (the latter is checked against ``preimage(matrix, staircase_sum(terms))``).
    """
    out: Subspace | None = None
    for a, b in terms:
        t = tensor(a, b)
        out = t if out is None else out.add(t)
    if out is None:
        raise ShapeError("at least one term is required")
    return out


class StaircaseMembership:
    """Membership test for A_1 (x) B_1 + ... + A_r (x) B_r.

    Requires a staircase: A_1 >= A_2 >= ... >= A_r and B_1 <= ... <= B_r.
    Such a sum is the intersection of the corner conditions

        w  in  A_{i+1} (x) F^n  +  F^m (x) B_i      for i = 0..r

    (with A_{r+1} = 0 and B_0 = 0), and each corner condition says that the
    sandwich  q_{A_{i+1}} W q_{B_i}^T  of the coefficient matrix W of w
    vanishes.  That turns a huge subspace sum into a few small products.
    """

    def __init__(self, terms: Sequence[tuple[Subspace, Subspace]]):
        if not terms:
            raise ShapeError("at least one term is required")
        self.p = terms[0][0].p
        self.left_dim = terms[0][0].ambient_dim
        self.right_dim = terms[0][1].ambient_dim
        for a, b in terms:
            if a.p != self.p or b.p != self.p:
                raise ShapeError("mixed characteristics")
            if a.ambient_dim != self.left_dim or b.ambient_dim != self.right_dim:
                raise ShapeError("terms live in different ambient spaces")
        for i in range(len(terms) - 1):
            if not terms[i][0].contains_subspace(terms[i + 1][0]):
                raise ShapeError("left factors must decrease along the staircase")
            if not terms[i + 1][1].contains_subspace(terms[i][1]):
                raise ShapeError("right factors must increase along the staircase")
        r = len(terms)
        zero_l = Subspace.zero(self.p, self.left_dim)
        zero_r = Subspace.zero(self.p, self.right_dim)
        self._conds: list[tuple[FieldMatrix, FieldMatrix]] = []
        for i in range(r + 1):
            a_next = terms[i][0] if i < r else zero_l
            b_cur = terms[i - 1][1] if i >= 1 else zero_r
            if not (a_next.is_full() or b_cur.is_full()):
                self._conds.append((a_next.quotient_matrix(), b_cur.quotient_matrix()))

    def contains(self, vec: Vector) -> bool:
        m, n = self.left_dim, self.right_dim
        if len(vec) != m * n:
            raise ShapeError(f"vector has length {len(vec)}, expected {m * n}")
        if self.p == 2:
            w = _pack(vec)
            nmask = (1 << n) - 1
            wrows = [(w >> (i * n)) & nmask for i in range(m)]
            for qa, qb in self._conds:
                for qarow in qa._rows:
                    acc = 0
                    t = qarow
                    while t:
                        i = (t & -t).bit_length() - 1
                        acc ^= wrows[i]
                        t &= t - 1
                    if acc:
                        for qbrow in qb._rows:
                            if (acc & qbrow).bit_count() & 1:
                                return False
            return True
        p = self.p
        wrows = [[vec[i * n + j] % p for j in range(n)] for i in range(m)]
        for qa, qb in self._conds:
            for qarow in qa._rows:
                acc = [0] * n
                for i, x in enumerate(qarow):
                    if x:
                        wi = wrows[i]
                        for j in range(n):
                            if wi[j]:
                                acc[j] = (acc[j] + x * wi[j]) % p
                if any(acc):
                    for qbrow in qb._rows:
                        if sum(x * y for x, y in zip(acc, qbrow)) % p:
                            return False
        return True


def staircase_preimage(
    terms: Sequence[tuple[Subspace, Subspace]],
    coaction: Sequence[Iterable[tuple[int, int, int]]],
) -> Subspace:
    """{v in F^N : psi(v) in A_1 (x) B_1 + ... + A_r (x) B_r}, N = len(coaction),
    for the map psi(e_i) = sum of c * e_a (x) e_k over the triples (a, k, c)
    of coaction[i] -- the shape of ``Comodule.psi`` and ``Coalgebra.delta``.

    The terms must form a staircase, as for ``StaircaseMembership``, whose
    corner pairs (q_A, q_B) this uses.  The result is the kernel of
    v -> (+)_corners (q_A (x) q_B) psi(v), read straight off the triples:
    neither the sum, nor a tensor product of subspaces, nor the matrix of
    psi is ever built.  The rows of the corner (q_A, q_B) are indexed
    s * rows(q_B) + u, after the rows of the corners before it.
    """
    stair = StaircaseMembership(terms)
    p = stair.p
    corners = []
    offset = 0
    for qa, qb in stair._conds:
        if p == 2:
            corners.append((offset, qb.nrows, qa.packed_cols(), qb.packed_cols()))
        else:
            corners.append((offset, qb.nrows, qa.sparse_cols(), qb.sparse_cols()))
        offset += qa.nrows * qb.nrows
    cols: list = []
    for triples in coaction:
        by_left: dict[int, list[tuple[int, int]]] = {}
        for a, k, c in triples:
            if not (0 <= a < stair.left_dim and 0 <= k < stair.right_dim):
                raise ShapeError(f"coaction index out of range: ({a}, {k})")
            by_left.setdefault(a, []).append((k, c))
        col: int | dict[int, int] = 0 if p == 2 else {}
        for off, nb, qacols, qbcols in corners:
            for a, kcs in by_left.items():
                # y = q_B applied to the part of psi(v) with left index a
                if p == 2:
                    y = 0
                    for k, c in kcs:
                        if c & 1:
                            y ^= qbcols[k]
                    t = qacols[a] if y else 0
                    while t:
                        s = (t & -t).bit_length() - 1
                        col ^= y << (off + s * nb)
                        t &= t - 1
                else:
                    y = {}
                    for k, c in kcs:
                        for u, x in qbcols[k].items():
                            _add_mod(y, u, c * x, p)
                    for s, x in qacols[a].items():
                        for u, z in y.items():
                            _add_mod(col, off + s * nb + u, x * z, p)
        cols.append(col)
    return kernel_from_sparse_cols(p, len(coaction), cols)


def primitives_cotensor_embedding(m: Comodule, g: GroupLikeSet) -> FieldMatrix:
    """The map P(M) -> M (x) R sending a g-primitive v to v (x) g, columnwise
    over the per-grouplike bases.  Landing inside M box R with full rank is
    exactly the cotensor isomorphism being certified."""
    r = len(g)
    cols = []
    for idx in range(r):
        pg = comodule_primitives_at(m, g.vectors[idx])
        for b in pg.basis_vectors():
            col = [0] * (m.dim * r)
            for i in range(m.dim):
                col[i * r + idx] = b[i]
            cols.append(col)
    return FieldMatrix.from_cols(m.p, cols, nrows=m.dim * r)


def check_map_preserves_filtration(f: ComoduleMap, sigma_filt: Filtration) -> bool:
    """True iff f(F_k(source)) <= F_k(target) at every level.

    Valid comodule maps always preserve the filtration, so this doubles as a
    cross-check on the validators: a False result means f is not actually a
    comodule map (or a filtration was computed against the wrong coalgebra).
    """
    src = comodule_filtration(f.source, sigma_filt)
    tgt = comodule_filtration(f.target, sigma_filt)
    for k in range(max(src.top, tgt.top) + 1):
        img = image(f.matrix, src.level(k))
        if not tgt.level(k).contains_subspace(img):
            return False
    return True


def spread_rewrite(coaction, left_dim: int, coords: FieldMatrix) -> list[int]:
    """The packed F_2 columns of ``AdaptedCoaction``, one triple at a time:
    row k of coords is spread to bit j * left_dim for each set bit j, and
    each triple (a, k, c) with c odd XORs that spread shifted by a."""
    width = left_dim
    spread = []
    for row in coords._rows:
        s = 0
        while row:
            low = row & -row
            s |= 1 << ((low.bit_length() - 1) * width)
            row ^= low
        spread.append(s)
    cols = []
    for triples in coaction:
        col = 0
        for a, k, c in triples:
            if c & 1:
                col ^= spread[k] << a
        cols.append(col)
    return cols
