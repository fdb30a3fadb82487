"""Literal routines that the tests hold the library's fast paths to.

``insert_row`` is the incremental echelon step: it keeps a full canonical
RREF after every row, scanning every pivot and every stored row.  The
library's batch ``field_linalg._echelon`` must give the same rows and
pivots, because the canonical RREF of a span is unique.

``preimage`` and ``staircase_sum`` build a tensor sum in full and reduce a
dense matrix against it.  ``staircase_preimage`` reads the preimage of one
staircase tensor sum off the coaction triples through the corner pairs of
``StaircaseMembership``: the per-level route, one fresh call per layer, that
``AdaptedCoaction`` replaced.  It is held to the literal route in turn.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from comodule_splitter.errors import ShapeError
from comodule_splitter.field_linalg import (
    FieldMatrix,
    StaircaseMembership,
    Subspace,
    _add_mod,
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
        t = a.tensor(b)
        out = t if out is None else out.add(t)
    if out is None:
        raise ShapeError("at least one term is required")
    return out


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
