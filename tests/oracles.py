"""Literal routines that the tests hold the library's fast paths to.

``insert_row`` is the incremental echelon step: it keeps a full canonical
RREF after every row, scanning every pivot and every stored row.  The
library's batch ``field_linalg._echelon`` must give the same rows and
pivots, because the canonical RREF of a span is unique.  The oracles hold
odd-p rows as dense tuples; ``internal`` and ``oracle_row`` convert to and
from the library's sparse rows.  ``reduce_by_pivots``, ``image_by_matvec``
and ``inverse_by_insertion`` are the dense routes for reduction, images and
inverses, and ``is_splitting`` checks a map h against the definition of a
splitting, entry by entry.

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

``cofree`` builds V (x) Sigma as a comodule, and
``residual_witness_by_cofree`` names the first nonzero residual column of h
into it, the route the splitting's residual witness took before it read
Delta's triples directly.

``psi_matrix`` is a comodule's coaction as a dense-indexed matrix.
``coassociativity_witness`` is the literal triple loop that the
coassociativity checks of coalgebras, comodules and left comodules used to
run, and ``multiplicative_witness`` the dense check psi a = (a (x) lambda)
psi through a Kronecker product; the validators now ask both questions
through the one residual routine.

``greedy_retraction`` is the retraction onto a subspace by its definition,
and ``h_by_phi_solve`` assembles h the way the library used to: phi solved
against the echelon basis of P(M), composed with that retraction and a
dense eps (x) id.

``primitives_cotensor_embedding`` and ``check_map_preserves_filtration``
state two structural lemmas on comodules, P(M) = M box R and
f(F_k(M)) <= F_k(N), in the form the lemma tests check them.

``certificate_doc`` is a certificate as the dict of plain lists that
``json.dumps`` used to encode into the certificate text, h unpacked row by
row.

``left_comodule_report`` checks a left comodule's counit and
coassociativity, through the shared witness helpers of ``coalgebra``.

``primitives_by_residual`` is P_g(M) as the kernel of the residual of the
identity from the coaction v -> v (x) g to psi, the route the library took
before it read every P_g(M) off an ``AdaptedCoaction``.

The package carries no multiplication table: no command reads one, and
definition files cannot hold one.  The product tier lives here instead.
``sigma_product_table`` and ``cyclic_product_table`` are the tables of the
Sigma truncations (read off the monomial law) and of k[Z/n] (from
(i + j) mod n); ``extended_product_table`` is the table of an extended
comodule M = A (x) Sigma.  ``left_mult_matrix`` reads left multiplication
off a table, the route the generators' lambda_g are held to, and
``product_tier`` runs the three checks that need M's and Sigma's tables:
``unit_is_multiplicative_identity``, ``action_is_left_multiplication`` and
``coaction_is_algebra_map``.  ``validate_with_product_tier`` appends them
to the checks of ``validate_comodule_algebra``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from comodule_splitter.coalgebra import (
    Coalgebra,
    Filtration,
    GroupLikeSet,
    _as_cols,
    _coaction_residual,
    _cofree_witness,
    _counit_witness,
)
from comodule_splitter.comodule import (
    Comodule,
    ComoduleAlgebra,
    ComoduleMap,
    LeftComodule,
    comodule_filtration,
    comodule_primitives_at,
    comodule_primitives_total,
    validate_comodule_algebra,
)
from comodule_splitter.errors import ShapeError
from comodule_splitter.field_linalg import (
    FieldMatrix,
    Subspace,
    Vector,
    _echelon,
    _join,
    _pack,
    _right,
    image,
    kernel_from_sparse_cols,
)
from comodule_splitter.generators import _mono_mul, _sigma_monomials
from comodule_splitter.reporting import CheckResult, ValidationReport, report_json
from comodule_splitter.splitting import SplittingCertificate


def _add_mod(acc: dict, key, value: int, p: int) -> None:
    """acc[key] += value mod p, dropping the key when the sum is zero."""
    v = (acc.get(key, 0) + value) % p
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def psi_matrix(m: Comodule) -> FieldMatrix:
    """The coaction as a (dim * sigma_dim) x dim matrix; m_a (x) sigma_k
    sits at row a * sigma_dim + k."""
    s = m.over.dim
    cols = [{a * s + k: c for a, k, c in t} for t in m.psi]
    return FieldMatrix.from_sparse_cols(m.p, m.dim * s, cols)


def coassociativity_witness(labels, outer, left, right, p: int) -> str | None:
    """The label of the first e_i with (left (x) id) outer(e_i) !=
    (id (x) right) outer(e_i), or None.  Each map is given by its triples
    (x, y, c) per basis element: left acts on the first slot of outer,
    right on the second.  For a coalgebra all three are Delta; for a right
    comodule outer = left = psi and right = Delta; for a left comodule
    outer = right = psi and left = Delta."""
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


def multiplicative_witness(ma: ComoduleAlgebra) -> str | None:
    """The witness "grouplike idx" for the first idx with psi a !=
    (a (x) lambda) psi over dense matrices, a the action on M and lambda the
    left multiplication on Sigma of that grouplike, or None."""
    psi_m = psi_matrix(ma.base)
    for idx, (a, lam) in enumerate(zip(ma.action, ma.sigma_action)):
        if psi_m @ a != a.kron(lam) @ psi_m:
            return f"grouplike {idx}"
    return None


def internal(p: int, row):
    """An oracle row (packed over F_2, a dense tuple otherwise) in the
    library's internal form, a dict of nonzero residues over odd p."""
    return row if p == 2 else {j: x for j, x in enumerate(row) if x}


def oracle_row(p: int, row, n: int):
    """A library internal row of width n in the oracles' form."""
    return row if p == 2 else tuple(row.get(j, 0) for j in range(n))


def _first_nonzero(row) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def insert_row(p: int, ncols: int, rows: list, pivots: list[int], row) -> bool:
    """Insert a row into a canonical RREF list; rows are packed ints over
    F_2 and dense tuples of residues otherwise (see ``internal``).

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


def reduce_by_pivots(p: int, rows: Sequence[Sequence[int]], pivots: Sequence[int], vec) -> tuple:
    """vec reduced against dense canonical rows, one pivot at a time in
    order, each subtraction over every column."""
    w = [x % p for x in vec]
    for row, pv in zip(rows, pivots):
        c = w[pv]
        if c:
            w = [(x - c * y) % p for x, y in zip(w, row)]
    return tuple(w)


def image_by_matvec(p: int, rows: Sequence[Sequence[int]], vectors) -> tuple[tuple, tuple[int, ...]]:
    """Canonical dense rows and pivots of the span of A v over the given
    vectors v, with A given by its dense rows and A v summed entry by entry.
    Odd p only, as ``insert_row`` takes dense rows there."""
    images = [tuple(sum(x * y for x, y in zip(r, v)) % p for r in rows) for v in vectors]
    return echelon_by_insertion(p, len(rows), images)


def inverse_by_insertion(p: int, rows: Sequence[Sequence[int]]) -> list[tuple] | None:
    """The dense inverse of a square matrix by Gauss-Jordan on [A | I], one
    ``insert_row`` per row; None when A is singular.  Odd p only."""
    n = len(rows)
    joined = [tuple(r) + tuple(int(i == j) for j in range(n)) for i, r in enumerate(rows)]
    rref, pivots = echelon_by_insertion(p, 2 * n, joined)
    if pivots != tuple(range(n)):
        return None
    return [r[n:] for r in rref]


def is_splitting(p: int, h: Sequence[Sequence[int]], psi, delta, d1: int) -> bool:
    """True when h: M -> P_1(M) (x) Sigma, given by dense rows, is bijective
    and (h (x) id) psi = (id (x) Delta) h.

    psi[i] holds the triples (a, k, c) of psi(e_i) = sum c e_a (x) e_k, and
    delta[y] those of Delta(e_y); s = len(delta) and dim P_1(M) = d1.  Row
    u * s + x of h is the coordinate at e_u (x) e_x.  The rank comes from
    ``echelon_by_insertion``, and both sides of the comodule condition are
    summed column by column into dense arrays indexed (u, x, k).
    """
    m, s = len(psi), len(delta)
    if len(h) != d1 * s or len(h) != m or any(len(r) != m for r in h):
        return False
    rows = [_pack(r) if p == 2 else tuple(x % p for x in r) for r in h]
    if len(echelon_by_insertion(p, m, rows)[1]) != m:
        return False
    for i in range(m):
        left = [0] * (m * s)
        for a, k, c in psi[i]:
            for row in range(m):
                left[row * s + k] += c * h[row][a]
        right = [0] * (m * s)
        for row in range(m):
            u, y = divmod(row, s)
            if h[row][i]:
                for x, k, c in delta[y]:
                    right[(u * s + x) * s + k] += h[row][i] * c
        if any((lv - rv) % p for lv, rv in zip(left, right)):
            return False
    return True


def greedy_retraction(s: Subspace) -> FieldMatrix:
    """The retraction onto s by its definition: extend the echelon basis of
    s by e_0, e_1, ... whenever the rank grows, invert the n x n basis
    matrix, and keep the rows indexing s."""
    p, n, d = s.p, s.ambient_dim, s.dim
    rows, pivots = [oracle_row(p, r, n) for r in s._rows], list(s._pivots)
    basis = list(s._rows)
    for e_i in FieldMatrix.identity(p, n)._rows:
        if len(rows) == n:
            break
        if insert_row(p, n, rows, pivots, oracle_row(p, e_i, n)):
            basis.append(e_i)
    q_inv = FieldMatrix._raw(p, n, n, tuple(basis)).transpose().inverse()
    return FieldMatrix._raw(p, d, n, q_inv._rows[:d])


def h_by_phi_solve(ma: ComoduleAlgebra) -> FieldMatrix:
    """h = (t (x) id) psi with t = (eps (x) id) phi^{-1} r, each factor built
    on its own: phi^{-1} on P(M) solves phi X = B^T for the echelon basis B
    of P(M), r is ``greedy_retraction`` onto P(M), and eps (x) id is a dense
    matrix of ones at the grouplike-major positions of P_1(M)."""
    p = ma.p
    p1 = comodule_primitives_at(ma.base, ma.grouplikes.vectors[ma.unit_grouplike_index()])
    total, _ = comodule_primitives_total(ma.base, ma.grouplikes)
    cols = [a.matvec(b) for a in ma.action for b in p1.basis_vectors()]
    ph = FieldMatrix.from_cols(p, cols, nrows=ma.dim)
    ph_inv = ph.solve(FieldMatrix.from_cols(p, total.basis_vectors(), nrows=ma.dim))
    if ph_inv is None:
        raise ValueError("P(M) is not contained in the image of phi")
    d1, width = p1.dim, len(cols)
    eps = FieldMatrix(p, [[int(c % d1 == r) for c in range(width)] for r in range(d1)], ncols=width)
    t = eps @ ph_inv @ greedy_retraction(total)
    return FieldMatrix.from_sparse_cols(p, d1 * ma.sigma.dim, ma.base.coaction_along(t))


def cofree(sigma: Coalgebra, n: int) -> Comodule:
    """V (x) Sigma for an n-dimensional V, with coaction id_V (x) Delta:
    v_u (x) sigma_k sits at index u * sigma_dim + k and maps to
    sum c * (v_u (x) sigma_j) (x) sigma_l over Delta(sigma_k)."""
    s = sigma.dim
    psi = tuple(
        tuple((u * s + j, l, c) for j, l, c in sigma.delta[k])
        for u in range(n)
        for k in range(s)
    )
    labels = tuple(f"{u}*{lab}" for u in range(n) for lab in sigma.labels)
    return Comodule(sigma, n * s, labels, psi)


def residual_witness_by_cofree(ma: ComoduleAlgebra, h: FieldMatrix, d1: int) -> str | None:
    """The residual witness of h as a map of comodules into ``cofree``
    (ma.sigma, d1), through ``ComoduleMap.residual``."""
    if d1 == 0:
        return None
    residual = ComoduleMap(ma.base, cofree(ma.sigma, d1), h).residual()
    for i, col in enumerate(residual):
        if col:
            return f"first nonzero residual column {ma.base.labels[i]}"
    return None


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: echelonize [a | a] and [b | 0]; rows supported on the
    right half span the intersection."""
    if u.p != v.p or u.ambient_dim != v.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    p, n = u.p, u.ambient_dim
    zero = FieldMatrix.zeros(p, 1, n)._rows[0]
    joined = [_join(p, a, a, n) for a in u._rows] + [_join(p, b, zero, n) for b in v._rows]
    rows, pivots = _echelon(p, joined)
    right = [_right(p, r, n) for t, r in zip(pivots, rows) if t >= n]
    return Subspace._raw(p, n, *_echelon(p, right))


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
            for qarow in qa.rows_as_lists():
                acc = [0] * n
                for i, x in enumerate(qarow):
                    if x:
                        wi = wrows[i]
                        for j in range(n):
                            if wi[j]:
                                acc[j] = (acc[j] + x * wi[j]) % p
                if any(acc):
                    for qbrow in qb.rows_as_lists():
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


def primitives_by_residual(m: Comodule, g: Vector) -> Subspace:
    """P_g(M), the kernel of v -> psi(v) - v (x) g, through the generic
    residual of the identity map from the coaction v -> v (x) g to psi."""
    p = m.p
    support = [(k, y) for k, x in enumerate(g) if (y := x % p)]
    line = [tuple((i, k, y) for k, y in support) for i in range(m.dim)]
    ident = [{i: 1} for i in range(m.dim)]
    return kernel_from_sparse_cols(p, m.dim, _coaction_residual(m.over.dim, line, ident, m.psi))


def certificate_doc(cert: SplittingCertificate) -> dict:
    """The certificate as a dict of plain JSON values, h as lists of ints."""
    return {
        "p": cert.h_matrix.p,
        "dim_m": cert.h_matrix.ncols,
        "p1_dim": cert.p1_basis.dim,
        "p1_ambient_dim": cert.p1_basis.ambient_dim,
        "p1_basis": [list(v) for v in cert.p1_basis.basis_vectors()],
        "h": cert.h_matrix.rows_as_lists(),
        "rank": cert.rank,
        "comodule_residual_zero": cert.comodule_residual_zero,
        "star_report": report_json(cert.star_report),
    }


def left_comodule_report(n: LeftComodule) -> ValidationReport:
    """Counit and coassociativity; with its tensor slots swapped, N is a
    right comodule over Sigma with Delta^cop, and psi a map into the
    cofree comodule N (x) Sigma."""
    c = n.over
    swapped = [tuple((b, k, x) for k, b, x in t) for t in n.psi]
    cop = [tuple((j, i, x) for i, j, x in t) for t in c.delta]
    checks = []
    for name, witness in (
        ("counit", _counit_witness(n.labels, n.psi, c.counit, n.p, keep_slot=1)),
        ("coassociativity", _cofree_witness(n.labels, swapped, _as_cols(swapped, c.dim), cop, n.p)),
    ):
        checks.append(CheckResult(name, witness is None, witness))
    return ValidationReport("left comodule", tuple(checks))


# product[i][j] = the pairs (k, coeff) of e_i * e_j = sum coeff * e_k
ProductTable = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def sigma_product_table(level: int) -> ProductTable:
    """The product table of the level-``level`` Sigma truncation, on the
    basis of ``gen_sigma_truncation(level).monomials``."""
    monos = _sigma_monomials(level)
    index = {m: i for i, m in enumerate(monos)}
    return tuple(tuple(((index[_mono_mul(m1, m2)], 1),) for m2 in monos) for m1 in monos)


def cyclic_product_table(n: int) -> ProductTable:
    """The product table of k[Z/n] on the basis g^0, ..., g^(n-1)."""
    return tuple(tuple((((i + j) % n, 1),) for j in range(n)) for i in range(n))


def extended_product_table(level: int, a_dim: int) -> ProductTable:
    """The product table of M = A (x) Sigma over the level-``level`` Sigma
    truncation, with A = k + (nilpotents of square zero) of dimension a_dim:
    (a_i (x) x)(a_j (x) y) is a_{i+j} (x) xy when i or j is 0, and 0
    otherwise."""
    sigma = sigma_product_table(level)
    s = len(sigma)
    product = []
    for i in range(a_dim):
        row_i = []
        for k in range(s):
            row = []
            for j in range(a_dim):
                for l in range(s):
                    if i and j:
                        row.append(())
                        continue
                    a_part = i + j
                    row.append(
                        tuple((a_part * s + t, c) for t, c in sigma[k][l])
                    )
            row_i.append(tuple(row))
        product.extend(row_i)
    return tuple(product)


def product_apply(table: ProductTable, p: int, dim: int, u: Vector, v: Vector) -> tuple[int, ...]:
    """u * v through the table."""
    out = [0] * dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            for k, coeff in table[i][j]:
                out[k] = (out[k] + ui * vj * coeff) % p
    return tuple(out)


def left_mult_matrix(table: ProductTable, p: int, dim: int, u: Vector) -> FieldMatrix:
    """The matrix of v -> u * v."""
    basis = FieldMatrix.identity(p, dim).rows_as_lists()
    return FieldMatrix.from_cols(p, [product_apply(table, p, dim, u, e) for e in basis], nrows=dim)


def product_tier(
    ma: ComoduleAlgebra, product: ProductTable, sigma_product: ProductTable
) -> tuple[CheckResult, ...]:
    """The three checks that need M's product table and Sigma's: eta is a
    two-sided identity, each a_g is left multiplication by a_g(eta), and
    psi(m_i m_j) = psi(m_i) psi(m_j)."""
    checks = []
    p, m = ma.p, ma.dim
    eta = ma.unit
    witness = None
    for j in range(m):
        basis = tuple(1 if t == j else 0 for t in range(m))
        left = product_apply(product, p, m, eta, basis)
        right = product_apply(product, p, m, basis, eta)
        if left != basis or right != basis:
            witness = ma.base.labels[j]
            break
    checks.append(CheckResult("unit_is_multiplicative_identity", witness is None, witness))

    witness = None
    for idx in range(len(ma.grouplikes)):
        g_eta = ma.action[idx].matvec(ma.unit)
        if ma.action[idx] != left_mult_matrix(product, p, m, g_eta):
            witness = f"grouplike {idx}"
            break
    checks.append(CheckResult("action_is_left_multiplication", witness is None, witness))

    psi = ma.base.psi
    witness = None
    for i in range(m):
        for j in range(m):
            acc: dict[tuple[int, int], int] = {}
            for k, coeff in product[i][j]:
                for a, t, cf in psi[k]:
                    acc[a, t] = acc.get((a, t), 0) + coeff * cf
            for a, t, cf in psi[i]:
                for b, u, cf2 in psi[j]:
                    for mm, cm in product[a][b]:
                        for ss, cs in sigma_product[t][u]:
                            acc[mm, ss] = acc.get((mm, ss), 0) - cf * cf2 * cm * cs
            if any(x % p for x in acc.values()):
                witness = f"({ma.base.labels[i]}, {ma.base.labels[j]})"
                break
        if witness:
            break
    checks.append(CheckResult("coaction_is_algebra_map", witness is None, witness))
    return tuple(checks)


def validate_with_product_tier(
    ma: ComoduleAlgebra, product: ProductTable, sigma_product: ProductTable
) -> ValidationReport:
    """The checks of ``validate_comodule_algebra``, then the 3 of the
    product tier."""
    report = validate_comodule_algebra(ma)
    return ValidationReport(report.subject, report.checks + product_tier(ma, product, sigma_product))
