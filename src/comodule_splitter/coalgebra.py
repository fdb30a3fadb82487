"""Finite-dimensional coalgebras over F_p given by structure constants.

A coalgebra is a basis, a comultiplication given as triples (j, k, coeff)
per basis element (meaning e_i maps to sum coeff * e_j (x) e_k), and a
counit functional.  The socle filtration of a pointed coalgebra can be
computed two independent ways:

* directly, as kernels of iterated comultiplications composed with the
  quotient by the span of the grouplikes, and
* by the wedge recursion  F_n = preimage of C (x) F_{n-1} + F_0 (x) C
  under the comultiplication, without building that sum: each level is
  read off an ``AdaptedCoaction`` of the Delta triples with q_{F_0} applied
  on the left and the quotient coordinates of F_{n-1} on the right.

The two must agree level by level; the test suite leans on that heavily.
Exhaustion of the wedge filtration starting from the span of all grouplikes
is what this package uses as its machine-checkable pointedness certificate.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CapExceeded,
    DeclaredNotGrouplike,
    DecompositionFails,
    NotASubcoalgebra,
    NotGrouplike,
    ParseError,
    SearchSpaceTooLarge,
    ShapeError,
    StructureMismatch,
)
from .field_linalg import (
    AdaptedCoaction,
    FieldMatrix,
    Subspace,
    Vector,
    _add_mod,
    _pack,
    _unpack,
    image,
    kernel_from_sparse_cols,
)
from .reporting import CheckResult, F1DecompositionReport, ValidationReport

DEFAULT_GROUPLIKE_SEARCH_BOUND = 1 << 20
DEFAULT_TENSOR_CELL_CAP = 1 << 24
CAP_ENV_VAR = "COMODULE_SPLITTER_CAP"

Triples = tuple[tuple[int, int, int], ...]


def effective_cap(cap: int | None = None) -> int:
    """Resolve the tensor-power cell cap: explicit arg, env var, default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_TENSOR_CELL_CAP


def _normalize_triples(
    triples: Iterable[Sequence[int]], p: int, first_dim: int, second_dim: int
) -> Triples:
    """Structure-constant triples (j, k, coeff) summed mod p, zeros dropped,
    sorted by (j, k); j must lie below first_dim and k below second_dim."""
    acc: dict[tuple[int, int], int] = {}
    for j, k, coeff in triples:
        if not (0 <= j < first_dim and 0 <= k < second_dim):
            raise ShapeError(f"structure constant index out of range: ({j}, {k})")
        _add_mod(acc, (j, k), coeff, p)
    return tuple((j, k, c) for (j, k), c in sorted(acc.items()))


def _coacts_as(triples: Sequence[Triples], v: Vector, g: Vector, p: int) -> bool:
    """Does the map e_i -> sum c * e_j (x) e_k over the triples of e_i send
    v to v (x) g?  Both vectors must be reduced mod p."""
    lhs: dict[tuple[int, int], int] = {}
    for i, x in enumerate(v):
        if x:
            for j, k, c in triples[i]:
                _add_mod(lhs, (j, k), x * c, p)
    return lhs == {(i, k): x * y % p for i, x in enumerate(v) if x for k, y in enumerate(g) if y}


def _counit_witness(
    labels: Sequence[str], outer: Sequence[Triples], counit: Sequence[int], p: int, keep_slot: int
) -> str | None:
    """The label of the first e_i that the counit applied to one slot of
    outer(e_i) does not send back to e_i, or None.  ``keep_slot`` (0 or 1)
    names the tensor slot of each triple (x, y, c) that is kept; the counit
    is applied to the other one."""
    for i, triples in enumerate(outer):
        acc: dict[int, int] = {}
        for t in triples:
            _add_mod(acc, t[keep_slot], t[2] * counit[t[1 - keep_slot]], p)
        if acc != {i: 1}:
            return labels[i]
    return None


def _coassociativity_witness(
    labels: Sequence[str], outer: Sequence[Triples], left: Sequence[Triples],
    right: Sequence[Triples], p: int,
) -> str | None:
    """The label of the first e_i with (left (x) id) outer(e_i) !=
    (id (x) right) outer(e_i), or None.  Each map is given by its triples
    (x, y, c) per basis element: left acts on the first slot of outer,
    right on the second."""
    for i, triples in enumerate(outer):
        lhs: dict[tuple[int, int, int], int] = {}
        rhs: dict[tuple[int, int, int], int] = {}
        for x, y, c in triples:
            for u, v, c2 in left[x]:
                _add_mod(lhs, (u, v, y), c * c2, p)
            for u, v, c2 in right[y]:
                _add_mod(rhs, (x, u, v), c * c2, p)
        if lhs != rhs:
            return labels[i]
    return None


@dataclass(frozen=True)
class Coalgebra:
    """Structure constants of a coalgebra over F_p.

    ``delta[i]`` lists the triples (j, k, coeff) of Delta(e_i); ``counit``
    is the tuple of values of the counit on the basis.  ``product`` is an
    optional full multiplication table (product[i][j] = tuple of (k, coeff))
    used only for the richer algebra-side validations; definition files do
    not carry it.
    """

    p: int
    dim: int
    labels: tuple[str, ...]
    delta: tuple[Triples, ...]
    counit: tuple[int, ...]
    declared_grouplikes: tuple[tuple[int, ...], ...] | None = None
    product: tuple[tuple[tuple[tuple[int, int], ...], ...], ...] | None = None

    def __post_init__(self):
        if self.dim != len(self.labels):
            raise ShapeError("label count does not match dimension")
        if len(set(self.labels)) != self.dim:
            raise ShapeError("basis labels must be unique")
        if len(self.delta) != self.dim or len(self.counit) != self.dim:
            raise ShapeError("delta and counit must cover the whole basis")
        object.__setattr__(
            self, "delta", tuple(_normalize_triples(t, self.p, self.dim, self.dim) for t in self.delta)
        )
        object.__setattr__(self, "counit", tuple(x % self.p for x in self.counit))
        if self.declared_grouplikes is not None:
            gs = tuple(tuple(x % self.p for x in g) for g in self.declared_grouplikes)
            for g in gs:
                if len(g) != self.dim:
                    raise ShapeError("declared grouplike has the wrong length")
            object.__setattr__(self, "declared_grouplikes", gs)

    def delta_matrix(self) -> FieldMatrix:
        """The comultiplication as a dim^2 x dim matrix (column i = Delta e_i)."""
        return self._delta_matrix

    @cached_property
    def _delta_matrix(self) -> FieldMatrix:
        n = self.dim
        cols = [{j * n + k: c for j, k, c in t} for t in self.delta]
        return FieldMatrix.from_sparse_cols(self.p, n * n, cols)

    def delta_sparse(self) -> list[dict[tuple[int, int], int]]:
        return [{(j, k): c for j, k, c in t} for t in self.delta]

    def core_equal(self, other: "Coalgebra") -> bool:
        """Same underlying coalgebra: p, dimension, comultiplication, counit.

        Labels, declared grouplikes, and the optional product table are
        presentation or enrichment data and do not affect whether two
        descriptions define the same coalgebra on the same basis.
        """
        return (
            self.p == other.p
            and self.dim == other.dim
            and self.delta == other.delta
            and self.counit == other.counit
        )


@dataclass(frozen=True)
class GroupLikeSet:
    """A verified, linearly independent family of grouplike vectors."""

    p: int
    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def span(self) -> Subspace:
        return Subspace.from_vectors(self.p, self.ambient_dim, self.vectors)

    def index_of(self, v: Vector) -> int | None:
        tv = tuple(x % self.p for x in v)
        for i, g in enumerate(self.vectors):
            if g == tv:
                return i
        return None


@dataclass(frozen=True)
class Filtration:
    """An increasing chain of subspaces F_0 <= F_1 <= ... <= F_top."""

    p: int
    ambient_dim: int
    levels: tuple[Subspace, ...]
    stabilized: bool
    exhaustive: bool

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> Subspace:
        """F_k, with F_{-1} = 0 and F_k = F_top for k beyond the top."""
        if k < 0:
            return Subspace.zero(self.p, self.ambient_dim)
        if k >= len(self.levels):
            return self.levels[-1]
        return self.levels[k]

    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.levels)

    @classmethod
    def build(cls, p: int, ambient_dim: int, levels: Sequence[Subspace], stabilized: bool) -> "Filtration":
        exhaustive = stabilized and levels[-1].dim == ambient_dim
        return cls(p, ambient_dim, tuple(levels), stabilized, exhaustive)


# -- validation ----------------------------------------------------------------


def validate_coalgebra(c: Coalgebra) -> ValidationReport:
    """Check the coalgebra axioms; failures carry the offending basis label."""
    checks: list[CheckResult] = []
    if c.dim < 1:
        checks.append(CheckResult("dimension", False, "dimension must be at least 1"))
        return ValidationReport("coalgebra", tuple(checks))
    checks.append(CheckResult("dimension", True))
    for name, witness in (
        ("coassociativity", _coassociativity_witness(c.labels, c.delta, c.delta, c.delta, c.p)),
        ("counit_left", _counit_witness(c.labels, c.delta, c.counit, c.p, keep_slot=1)),
        ("counit_right", _counit_witness(c.labels, c.delta, c.counit, c.p, keep_slot=0)),
    ):
        checks.append(CheckResult(name, witness is None, witness))
    return ValidationReport("coalgebra", tuple(checks))


# -- grouplikes ----------------------------------------------------------------


def is_grouplike(c: Coalgebra, v: Vector) -> bool:
    """Does v satisfy Delta(v) = v (x) v and counit(v) = 1?"""
    p, n = c.p, c.dim
    v = tuple(x % p for x in v)
    if len(v) != n:
        raise ShapeError("vector length does not match the coalgebra dimension")
    if sum(a * b for a, b in zip(c.counit, v)) % p != 1:
        return False
    return _coacts_as(c.delta, v, v, p)


def find_grouplikes(
    c: Coalgebra,
    mode: str = "declared",
    bound: int | None = None,
) -> GroupLikeSet:
    """Collect the grouplikes of c.

    ``declared`` verifies (and requires) the declared list; ``brute_force``
    enumerates all p^dim vectors, refusing beyond the search bound.
    """
    if mode == "declared":
        if c.declared_grouplikes is None:
            raise StructureMismatch("no grouplikes are declared")
        span = Subspace.zero(c.p, c.dim)
        for idx, g in enumerate(c.declared_grouplikes):
            if not is_grouplike(c, g):
                raise DeclaredNotGrouplike(f"index {idx}: {list(g)}")
            bigger = span.add(Subspace.from_vectors(c.p, c.dim, [g]))
            if bigger.dim == span.dim:
                raise DeclaredNotGrouplike(f"index {idx} is dependent on earlier grouplikes")
            span = bigger
        return GroupLikeSet(c.p, c.dim, tuple(c.declared_grouplikes))
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    limit = bound if bound is not None else DEFAULT_GROUPLIKE_SEARCH_BOUND
    size = c.p**c.dim
    if size > limit:
        raise SearchSpaceTooLarge(size, limit)
    found: list[tuple[int, ...]] = []
    if c.p == 2:
        n = c.dim
        dcols = c.delta_matrix().packed_cols()
        eps = _pack(c.counit)
        for w in range(1, 1 << n):
            if (w & eps).bit_count() & 1 == 0:
                continue
            dv = 0
            t = w
            while t:
                i = (t & -t).bit_length() - 1
                dv ^= dcols[i]
                t &= t - 1
            outer = 0
            t = w
            while t:
                i = (t & -t).bit_length() - 1
                outer |= w << (i * n)
                t &= t - 1
            if dv == outer:
                found.append(_unpack(w, n))
    else:
        for vec in itertools.product(range(c.p), repeat=c.dim):
            if all(x == 0 for x in vec):
                continue
            if is_grouplike(c, vec):
                found.append(vec)
    return GroupLikeSet(c.p, c.dim, tuple(found))


# -- filtrations ---------------------------------------------------------------


def _coradical_span(c: Coalgebra, g: GroupLikeSet) -> Subspace:
    if g.p != c.p or g.ambient_dim != c.dim:
        raise ShapeError("grouplike set does not match the coalgebra")
    r = g.span()
    # R (x) R = (C (x) R) meet (R (x) C), and Delta lands in R (x) C exactly
    # when Delta with its two factors swapped lands in C (x) R.
    basis = (r.quotient_matrix().transpose(), (0,))
    swapped = tuple(tuple((k, j, x) for j, k, x in t) for t in c.delta)
    for triples in (c.delta, swapped):
        if not AdaptedCoaction(triples, c.dim, *basis).preimage(0).contains_subspace(r):
            raise NotASubcoalgebra("span of the given vectors is not closed under Delta")
    return r


def coradical_filtration_wedge(
    c: Coalgebra,
    g: GroupLikeSet,
    k_max: int | None = None,
) -> Filtration:
    """Socle filtration by the wedge recursion F_n = Delta^{-1}(C (x) F_{n-1} + F_0 (x) C).

    That sum is the kernel of q_{F_0} (x) q_{F_{n-1}}.  So q_{F_0} (x) id is
    applied to the Delta triples once, and each level is the one-level
    ``AdaptedCoaction`` preimage of those triples with the right factor in
    the quotient coordinates of F_{n-1}.  The levels are nested by
    construction, so no staircase shape is proved for them.
    """
    r = _coradical_span(c, g)
    p, n = c.p, c.dim
    q0cols = r.quotient_matrix().sparse_cols()
    width = n - r.dim
    left = [
        [(s, k, x * z) for a, k, x in triples for s, z in q0cols[a].items()] for triples in c.delta
    ]
    levels = [r]
    stabilized = r.is_full()
    while not stabilized and (k_max is None or len(levels) - 1 < k_max):
        coords = levels[-1].quotient_matrix().transpose()
        nxt = AdaptedCoaction(left, width, coords, (0,)).preimage(0)
        if nxt == levels[-1]:
            stabilized = True
            break
        levels.append(nxt)
        stabilized = nxt.is_full()
    return Filtration.build(p, n, levels, stabilized)


def coradical_filtration_direct(
    c: Coalgebra,
    g: GroupLikeSet,
    k_max: int,
    cap: int | None = None,
) -> Filtration:
    """Socle filtration from the definition: F_k is the kernel of the
    iterated comultiplication followed by the (k+1)-fold tensor power of the
    quotient by span(g).

    The iterated coproduct is never materialized densely; columns are kept
    sparse and the quotient is applied slotwise.  The cap still reflects the
    size of the map being represented, so behaviour does not depend on the
    internal strategy.
    """
    cap_cells = effective_cap(cap)
    r = _coradical_span(c, g)
    p, n = c.p, c.dim
    q = r.quotient_matrix()
    nq = q.nrows
    levels = [r]
    stabilized = r.is_full()
    if stabilized:
        return Filtration.build(p, n, levels, True)

    qcols: list[dict[int, int]] = []
    for j in range(n):
        col = q.col(j)
        qcols.append({t: col[t] for t in range(nq) if col[t]})

    sparse = c.delta_sparse()
    u1cols: list[dict[int, int]] = []
    for i in range(n):
        col: dict[int, int] = {}
        for (j, k), cf in sparse[i].items():
            for t, qv in qcols[k].items():
                _add_mod(col, j * nq + t, cf * qv, p)
        u1cols.append(col)

    ucols = u1cols
    for k in range(1, k_max + 1):
        cells = n ** (k + 1) * n
        if cells > cap_cells:
            raise CapExceeded(cells, cap_cells)
        if k > 1:
            stride = nq ** (k - 1)
            nxt: list[dict[int, int]] = []
            for col in ucols:
                out: dict[int, int] = {}
                for idx, cv in col.items():
                    a, rest = divmod(idx, stride)
                    for pos, uv in u1cols[a].items():
                        _add_mod(out, pos * stride + rest, cv * uv, p)
                nxt.append(out)
            ucols = nxt
        stride = nq**k
        vcols: list[dict[int, int]] = []
        for col in ucols:
            out = {}
            for idx, cv in col.items():
                a, rest = divmod(idx, stride)
                for t, qv in qcols[a].items():
                    _add_mod(out, t * stride + rest, cv * qv, p)
            vcols.append(out)
        fk = kernel_from_sparse_cols(p, n, vcols)
        if fk == levels[-1]:
            stabilized = True
            break
        levels.append(fk)
        if fk.is_full():
            stabilized = True
            break
    return Filtration.build(p, n, levels, stabilized)


def check_pointed_exhaustive(c: Coalgebra, g: GroupLikeSet) -> bool:
    """Pointedness certificate: the wedge filtration from span(g) reaches C."""
    return coradical_filtration_wedge(c, g).exhaustive


# -- primitives ----------------------------------------------------------------


def primitives_at(c: Coalgebra, g: Vector) -> Subspace:
    """The space of g-primitives {v : Delta v = v (x) g + g (x) v}."""
    if not is_grouplike(c, g):
        raise NotGrouplike(f"reference vector {list(g)} is not grouplike")
    p, n = c.p, c.dim
    support = [(k, x % p) for k, x in enumerate(g) if x % p]
    cols = []
    for i, triples in enumerate(c.delta):
        col = {j * n + k: cf for j, k, cf in triples}
        for k, x in support:
            _add_mod(col, i * n + k, -x, p)
            _add_mod(col, k * n + i, -x, p)
        cols.append(col)
    return kernel_from_sparse_cols(p, n, cols)


def f1_decomposition(c: Coalgebra, g: GroupLikeSet) -> F1DecompositionReport:
    """Certify that, modulo the coradical, the g-primitives decompose F_1.

    Raises DecompositionFails when the certificate does not hold, which
    indicates a non-pointed input (or a bug).
    """
    filt = coradical_filtration_wedge(c, g, k_max=1)
    r = filt.level(0)
    f1 = filt.level(1)
    q = r.quotient_matrix()
    prim_dims: list[int] = []
    mod_dims: list[int] = []
    total_in_c = r
    total_mod = Subspace.zero(c.p, q.nrows)
    mod_sum = 0
    for g_vec in g:
        pg = primitives_at(c, g_vec)
        prim_dims.append(pg.dim)
        qg = image(q, pg)
        mod_dims.append(qg.dim)
        mod_sum += qg.dim
        total_mod = total_mod.add(qg)
        total_in_c = total_in_c.add(pg)
    direct = total_mod.dim == mod_sum
    spans = total_in_c == f1
    report = F1DecompositionReport(
        dim_coradical=r.dim,
        dim_f1=f1.dim,
        primitive_dims=tuple(prim_dims),
        primitive_mod_coradical_dims=tuple(mod_dims),
        direct=direct,
        spans_f1=spans,
    )
    if not report.ok:
        raise DecompositionFails(
            f"coradical {r.dim} + primitive layers {mod_dims} vs F_1 of dim {f1.dim}"
            f" (direct={direct}, spans={spans})"
        )
    return report


# -- constructions used by the generators ---------------------------------------


def tensor_product(c1: Coalgebra, c2: Coalgebra, sep: str = "*") -> Coalgebra:
    """Tensor product coalgebra on the basis e_i (x) f_j, index i*dim2 + j."""
    if c1.p != c2.p:
        raise ShapeError("mixed characteristics")
    n1, n2 = c1.dim, c2.dim
    labels = tuple(f"{a}{sep}{b}" for a in c1.labels for b in c2.labels)
    delta = []
    for i1 in range(n1):
        for i2 in range(n2):
            triples = []
            for j1, k1, cf1 in c1.delta[i1]:
                for j2, k2, cf2 in c2.delta[i2]:
                    triples.append((j1 * n2 + j2, k1 * n2 + k2, cf1 * cf2))
            delta.append(tuple(triples))
    counit = tuple(
        (c1.counit[i1] * c2.counit[i2]) % c1.p for i1 in range(n1) for i2 in range(n2)
    )
    return Coalgebra(c1.p, n1 * n2, labels, tuple(delta), counit)


def direct_sum(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    if c1.p != c2.p:
        raise ShapeError("mixed characteristics")
    n1, n2 = c1.dim, c2.dim
    n = n1 + n2
    labels = tuple(f"l.{a}" for a in c1.labels) + tuple(f"r.{b}" for b in c2.labels)
    delta = [c1.delta[i] for i in range(n1)]
    delta += [
        tuple((j + n1, k + n1, cf) for j, k, cf in c2.delta[i]) for i in range(n2)
    ]
    counit = c1.counit + c2.counit
    return Coalgebra(c1.p, n, labels, tuple(delta), counit)


def change_basis(c: Coalgebra, t: FieldMatrix) -> Coalgebra:
    """Rewrite c in the basis whose vectors are the columns of t."""
    if t.nrows != c.dim or t.ncols != c.dim:
        raise ShapeError("change of basis must be square of the right size")
    t_inv = t.inverse()
    d_new = t_inv.kron(t_inv) @ c.delta_matrix() @ t
    n = c.dim
    delta = []
    for i in range(n):
        col = d_new.col(i)
        triples = [
            (idx // n, idx % n, col[idx]) for idx in range(n * n) if col[idx]
        ]
        delta.append(tuple(triples))
    counit = tuple(
        sum(c.counit[r] * t.entry(r, i) for r in range(n)) % c.p for i in range(n)
    )
    grouplikes = None
    if c.declared_grouplikes is not None:
        grouplikes = tuple(t_inv.matvec(g) for g in c.declared_grouplikes)
    labels = tuple(f"v{i}" for i in range(n))
    return Coalgebra(c.p, n, labels, tuple(delta), counit, grouplikes)
