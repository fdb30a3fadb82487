"""Literal routines that the tests hold the library's fast paths to.

``insert_row`` is the incremental echelon step: it keeps a full canonical
RREF after every row, scanning every pivot and every stored row.  The
library's batch ``field_linalg._echelon`` must give the same rows and
pivots, because the canonical RREF of a span is unique.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable


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
