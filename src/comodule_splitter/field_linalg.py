"""Exact linear algebra over prime fields.

Matrices over F_2 store each row bit-packed in a Python integer (bit j of a
row is the entry in column j), so a row operation is a single big-int XOR.
For odd primes rows are tuples of residues and elimination uses modular
inverses via pow(x, -1, p).  Everything is exact; there are no floats
anywhere in this module.

Subspaces are always held in canonical reduced row echelon form: pivot
entries are 1, pivot columns are cleared above and below, and rows are
ordered by pivot column.  Equal subspaces therefore have identical
representations, and subspace equality is a tuple comparison.

Each operation has one implementation.  ``_insert_row`` is the echelon
step, and ``_echelon`` spans a list of rows with it; ``rank``, ``rref``,
``row_space`` and the ``Subspace`` constructor call it.  ``solve`` and
``intersect`` eliminate augmented rows [a | b], which ``_join`` and
``_right`` build and split: those two helpers are the only place where the
augmented layout depends on p.  ``inverse`` is ``solve`` against the
identity, ``image`` is a product with the transpose, ``Subspace.tensor`` is
``kron`` of the two bases, and ``kernel_from_sparse_cols`` is the one kernel
routine.

Tensor index convention used by the whole package: the basis vector
e_i (x) e_j of F^m (x) F^n sits at position i * n + j.  ``FieldMatrix.kron``
and ``Subspace.tensor`` both follow it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .errors import ShapeError

Vector = Sequence[int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _pack(vec: Vector) -> int:
    """Pack a 0/1 vector into an int, bit j = entry j."""
    mask = 0
    for j, x in enumerate(vec):
        if x % 2:
            mask |= 1 << j
    return mask


def _pack_sparse(col: dict[int, int]) -> int:
    """Pack a sparse column (row -> coeff) over F_2 into an int, bit i = row i."""
    mask = 0
    for i, x in col.items():
        if x % 2:
            mask |= 1 << i
    return mask


def _unpack(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> j) & 1 for j in range(n))


def _tuple_mod(vec: Vector, p: int) -> tuple[int, ...]:
    return tuple(x % p for x in vec)


def _add_mod(acc: dict, key, value: int, p: int) -> None:
    """acc[key] += value mod p, dropping the key when the sum is zero."""
    v = (acc.get(key, 0) + value) % p
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def _first_nonzero(row: Sequence[int]) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _insert_row(p: int, ncols: int, rows: list, pivots: list[int], row) -> bool:
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


def _echelon(p: int, ncols: int, rows: Iterable) -> tuple[tuple, tuple[int, ...]]:
    """Canonical RREF rows and pivots of the span of internal-form rows."""
    out: list = []
    pivots: list[int] = []
    for r in rows:
        _insert_row(p, ncols, out, pivots, r)
    return tuple(out), tuple(pivots)


def _join(p: int, a, b, n: int):
    """The internal row [a | b] for a row a of width n."""
    return a | (b << n) if p == 2 else a + b


def _right(p: int, row, n: int):
    """The part of an internal row after its first n entries."""
    return row >> n if p == 2 else row[n:]


class FieldMatrix:
    """Immutable exact matrix over F_p.

    Vectors are column vectors; ``matvec`` computes A*v and ``__matmul__``
    composes maps, so the column j of a matrix is the image of e_j.
    """

    __slots__ = ("p", "nrows", "ncols", "_rows")

    def __init__(self, p: int, rows: Iterable[Vector], ncols: int | None = None):
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ShapeError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeError(f"ragged rows: expected {ncols} columns, got {len(r)}")
        self.p = p
        self.nrows = len(rows)
        self.ncols = ncols
        if p == 2:
            self._rows = tuple(_pack(r) for r in rows)
        else:
            self._rows = tuple(_tuple_mod(r, p) for r in rows)

    @classmethod
    def _raw(cls, p: int, nrows: int, ncols: int, rows: tuple) -> "FieldMatrix":
        """Trusted constructor; ``rows`` must already be in internal form."""
        m = object.__new__(cls)
        m.p = p
        m.nrows = nrows
        m.ncols = ncols
        m._rows = rows
        return m

    @classmethod
    def zeros(cls, p: int, nrows: int, ncols: int) -> "FieldMatrix":
        if p == 2:
            return cls._raw(p, nrows, ncols, (0,) * nrows)
        return cls._raw(p, nrows, ncols, ((0,) * ncols,) * nrows)

    @classmethod
    def identity(cls, p: int, n: int) -> "FieldMatrix":
        if p == 2:
            return cls._raw(p, n, n, tuple(1 << j for j in range(n)))
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls._raw(p, n, n, rows)

    @classmethod
    def from_cols(cls, p: int, cols: Iterable[Vector], nrows: int | None = None) -> "FieldMatrix":
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ShapeError("nrows is required for a matrix with no columns")
            nrows = len(cols[0])
        rows = [[c[i] for c in cols] for i in range(nrows)]
        return cls(p, rows, ncols=len(cols))

    @classmethod
    def from_sparse_cols(cls, p: int, nrows: int, cols: Sequence[dict[int, int]]) -> "FieldMatrix":
        """The nrows x len(cols) matrix whose column j has entry c at row r
        for each r -> c in cols[j]."""
        if p == 2:
            rows = [0] * nrows
            for j, col in enumerate(cols):
                bit = 1 << j
                for r, c in col.items():
                    if c % 2:
                        rows[r] ^= bit
            return cls._raw(2, nrows, len(cols), tuple(rows))
        dense = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for r, c in col.items():
                dense[r][j] = (dense[r][j] + c) % p
        return cls._raw(p, nrows, len(cols), tuple(tuple(r) for r in dense))

    # -- accessors ---------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        if self.p == 2:
            return _unpack(self._rows[i], self.ncols)
        return self._rows[i]

    def col(self, j: int) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((r >> j) & 1 for r in self._rows)
        return tuple(r[j] for r in self._rows)

    def entry(self, i: int, j: int) -> int:
        if self.p == 2:
            return (self._rows[i] >> j) & 1
        return self._rows[i][j]

    def rows_as_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.nrows)]

    def packed_cols(self) -> list[int]:
        """Bit-packed columns (bit i = row i); only for p = 2."""
        if self.p != 2:
            raise ShapeError("packed columns are only available over F_2")
        cols = [0] * self.ncols
        for i, r in enumerate(self._rows):
            t = r
            while t:
                j = (t & -t).bit_length() - 1
                cols[j] |= 1 << i
                t &= t - 1
        return cols

    def sparse_cols(self) -> list[dict[int, int]]:
        """Columns as dicts row -> nonzero entry."""
        cols: list[dict[int, int]] = [{} for _ in range(self.ncols)]
        if self.p == 2:
            for i, r in enumerate(self._rows):
                while r:
                    cols[(r & -r).bit_length() - 1][i] = 1
                    r &= r - 1
            return cols
        for i, r in enumerate(self._rows):
            for j, x in enumerate(r):
                if x:
                    cols[j][i] = x
        return cols

    def is_zero(self) -> bool:
        if self.p == 2:
            return all(r == 0 for r in self._rows)
        return all(all(x == 0 for x in r) for r in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.p == other.p
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.nrows, self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"FieldMatrix(p={self.p}, {self.nrows}x{self.ncols})"

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "FieldMatrix") -> None:
        if self.p != other.p:
            raise ShapeError("mixed characteristics")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_shape(other)
        if self.p == 2:
            rows = tuple(a ^ b for a, b in zip(self._rows, other._rows))
        else:
            rows = tuple(
                tuple((x + y) % self.p for x, y in zip(a, b))
                for a, b in zip(self._rows, other._rows)
            )
        return FieldMatrix._raw(self.p, self.nrows, self.ncols, rows)

    def __neg__(self) -> "FieldMatrix":
        if self.p == 2:
            return self
        rows = tuple(tuple((-x) % self.p for x in r) for r in self._rows)
        return FieldMatrix._raw(self.p, self.nrows, self.ncols, rows)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self + (-other)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p:
            raise ShapeError("mixed characteristics")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        if self.p == 2:
            orows = other._rows
            rows = []
            for a in self._rows:
                acc = 0
                t = a
                while t:
                    j = (t & -t).bit_length() - 1
                    acc ^= orows[j]
                    t &= t - 1
                rows.append(acc)
            return FieldMatrix._raw(2, self.nrows, other.ncols, tuple(rows))
        p = self.p
        rows = []
        for a in self._rows:
            acc = [0] * other.ncols
            for j, x in enumerate(a):
                if x:
                    orow = other._rows[j]
                    for k in range(other.ncols):
                        if orow[k]:
                            acc[k] = (acc[k] + x * orow[k]) % p
            rows.append(tuple(acc))
        return FieldMatrix._raw(p, self.nrows, other.ncols, tuple(rows))

    def matvec(self, v: Vector) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ShapeError(f"vector has length {len(v)}, expected {self.ncols}")
        if self.p == 2:
            w = _pack(v)
            return tuple((r & w).bit_count() & 1 for r in self._rows)
        p = self.p
        return tuple(sum(x * y for x, y in zip(r, v)) % p for r in self._rows)

    def transpose(self) -> "FieldMatrix":
        if self.p == 2:
            rows = tuple(self.packed_cols())
        else:
            rows = tuple(self.col(j) for j in range(self.ncols))
        return FieldMatrix._raw(self.p, self.ncols, self.nrows, rows)

    def vstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p or self.ncols != other.ncols:
            raise ShapeError("vstack needs matching column counts")
        return FieldMatrix._raw(self.p, self.nrows + other.nrows, self.ncols, self._rows + other._rows)

    def kron(self, other: "FieldMatrix") -> "FieldMatrix":
        """Kronecker product; block (i, j) of the result is a_ij * other."""
        if self.p != other.p:
            raise ShapeError("mixed characteristics")
        nc = self.ncols * other.ncols
        if self.p == 2:
            rows = []
            for a in self._rows:
                for b in other._rows:
                    acc = 0
                    t = a
                    while t:
                        s = (t & -t).bit_length() - 1
                        acc |= b << (s * other.ncols)
                        t &= t - 1
                    rows.append(acc)
            return FieldMatrix._raw(2, self.nrows * other.nrows, nc, tuple(rows))
        p = self.p
        rows = []
        for a in self._rows:
            for b in other._rows:
                acc = [0] * nc
                for s, x in enumerate(a):
                    if x:
                        off = s * other.ncols
                        for j, y in enumerate(b):
                            if y:
                                acc[off + j] = (x * y) % p
                rows.append(tuple(acc))
        return FieldMatrix._raw(p, self.nrows * other.nrows, nc, tuple(rows))

    # -- elimination -------------------------------------------------------

    def rref(self) -> "FieldMatrix":
        """The unique reduced row echelon form, same shape, zero rows at the bottom."""
        rows, _ = _echelon(self.p, self.ncols, self._rows)
        pad = FieldMatrix.zeros(self.p, self.nrows - len(rows), self.ncols)._rows
        return FieldMatrix._raw(self.p, self.nrows, self.ncols, rows + pad)

    def rank(self) -> int:
        return len(_echelon(self.p, self.ncols, self._rows)[0])

    def row_space(self) -> "Subspace":
        return Subspace._raw(self.p, self.ncols, *_echelon(self.p, self.ncols, self._rows))

    def column_space(self) -> "Subspace":
        return self.transpose().row_space()

    def kernel(self) -> "Subspace":
        """Null space {v : A v = 0} as a canonical subspace of F^ncols."""
        cols = self.packed_cols() if self.p == 2 else self.sparse_cols()
        return kernel_from_sparse_cols(self.p, self.ncols, cols)

    def solve(self, rhs: "FieldMatrix") -> "FieldMatrix | None":
        """A particular X with self @ X = rhs, or None when unsolvable.

        Free variables are set to zero, so the answer is deterministic.
        """
        if self.p != rhs.p:
            raise ShapeError("mixed characteristics")
        if self.nrows != rhs.nrows:
            raise ShapeError("solve needs matching row counts")
        p, nA, nB = self.p, self.ncols, rhs.ncols
        joined = [_join(p, a, b, nA) for a, b in zip(self._rows, rhs._rows)]
        rows, pivots = _echelon(p, nA + nB, joined)
        if pivots and pivots[-1] >= nA:
            return None
        xrows = list(FieldMatrix.zeros(p, nA, nB)._rows)
        for r, pv in zip(rows, pivots):
            xrows[pv] = _right(p, r, nA)
        return FieldMatrix._raw(p, nA, nB, tuple(xrows))

    def inverse(self) -> "FieldMatrix":
        """Inverse of a square matrix; raises ShapeError when singular.

        For square A, A X = I is solvable exactly when A is invertible, and
        then X is unique."""
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices can be inverted")
        inv = self.solve(FieldMatrix.identity(self.p, self.nrows))
        if inv is None:
            raise ShapeError("matrix is singular")
        return inv


def kernel_from_sparse_cols(p: int, ncols: int, cols: Sequence) -> "Subspace":
    """The kernel {v : sum_j v_j cols[j] = 0} as a canonical subspace of F^ncols.

    This is the package's one kernel routine.  A column is a dict
    row -> coeff; over F_2 it may also be a bit-packed int (bit i = row i).
    The row count never has to be materialized, which is what makes the
    staircase preimages, the iterated-coproduct and the cotensor kernels
    affordable.  Columns are eliminated in order against a table of earlier
    columns keyed by their lowest row, recording the same operations on a
    coefficient vector; a column that reduces to zero gives a kernel vector.
    """
    rows: list = []
    pivots: list[int] = []
    if p == 2:
        table: dict[int, tuple[int, int]] = {}
        for j, c in enumerate(cols):
            if not isinstance(c, int):
                c = _pack_sparse(c)
            a = 1 << j
            while c:
                lead = (c & -c).bit_length() - 1
                hit = table.get(lead)
                if hit is None:
                    table[lead] = (c, a)
                    break
                c ^= hit[0]
                a ^= hit[1]
            else:
                _insert_row(2, ncols, rows, pivots, a)
        return Subspace._raw(2, ncols, tuple(rows), tuple(pivots))
    dtable: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for j, col in enumerate(cols):
        c = {k: v % p for k, v in col.items() if v % p}
        a = {j: 1}
        while c:
            lead = min(c)
            hit = dtable.get(lead)
            if hit is None:
                inv = pow(c[lead], -1, p)
                dtable[lead] = (
                    {k: v * inv % p for k, v in c.items()},
                    {k: v * inv % p for k, v in a.items()},
                )
                break
            f = p - c[lead]
            for k, v in hit[0].items():
                _add_mod(c, k, f * v, p)
            for k, v in hit[1].items():
                _add_mod(a, k, f * v, p)
        else:
            _insert_row(p, ncols, rows, pivots, tuple(a.get(k, 0) for k in range(ncols)))
    return Subspace._raw(p, ncols, tuple(rows), tuple(pivots))


class Subspace:
    """A subspace of F_p^n held in canonical reduced row echelon form."""

    __slots__ = ("p", "ambient_dim", "_rows", "_pivots")

    def __init__(self, p: int, ambient_dim: int, vectors: Iterable[Vector] = ()):
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError(f"vector has length {len(v)}, expected {ambient_dim}")
            rows.append(_pack(v) if p == 2 else _tuple_mod(v, p))
        self.p = p
        self.ambient_dim = ambient_dim
        self._rows, self._pivots = _echelon(p, ambient_dim, rows)

    @classmethod
    def _raw(cls, p: int, ambient_dim: int, rows: tuple, pivots: tuple) -> "Subspace":
        s = object.__new__(cls)
        s.p = p
        s.ambient_dim = ambient_dim
        s._rows = rows
        s._pivots = pivots
        return s

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        return cls(p, ambient_dim, vectors)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls._raw(p, ambient_dim, (), ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        ident = FieldMatrix.identity(p, ambient_dim)
        return cls._raw(p, ambient_dim, ident._rows, tuple(range(ambient_dim)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def nonpivots(self) -> tuple[int, ...]:
        pivs = set(self._pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivs)

    def basis_matrix(self) -> FieldMatrix:
        return FieldMatrix._raw(self.p, len(self._rows), self.ambient_dim, self._rows)

    def basis_vectors(self) -> list[tuple[int, ...]]:
        m = self.basis_matrix()
        return [m.row(i) for i in range(m.nrows)]

    def is_zero(self) -> bool:
        return not self._rows

    def is_full(self) -> bool:
        return len(self._rows) == self.ambient_dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim} of {self.ambient_dim})"

    # -- membership and reduction ------------------------------------------

    def _reduce_packed(self, w: int) -> int:
        for idx, pv in enumerate(self._pivots):
            if (w >> pv) & 1:
                w ^= self._rows[idx]
        return w

    def reduce(self, v: Vector) -> tuple[int, ...]:
        """Canonical representative of v modulo this subspace."""
        if len(v) != self.ambient_dim:
            raise ShapeError(f"vector has length {len(v)}, expected {self.ambient_dim}")
        if self.p == 2:
            return _unpack(self._reduce_packed(_pack(v)), self.ambient_dim)
        w = list(_tuple_mod(v, self.p))
        for idx, pv in enumerate(self._pivots):
            c = w[pv]
            if c:
                row = self._rows[idx]
                for j in range(pv, self.ambient_dim):
                    if row[j]:
                        w[j] = (w[j] - c * row[j]) % self.p
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        if self.p == 2:
            return self._reduce_packed(_pack(v)) == 0
        return all(x == 0 for x in self.reduce(v))

    __contains__ = contains

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        if other.dim > self.dim:
            return False
        if self.p == 2:
            return all(self._reduce_packed(r) == 0 for r in other._rows)
        return all(self.contains(r) for r in other._rows)

    # -- lattice operations --------------------------------------------------

    def add(self, other: "Subspace") -> "Subspace":
        """Subspace sum, computed by inserting the smaller basis into the larger."""
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        rows = list(big._rows)
        pivots = list(big._pivots)
        for r in small._rows:
            _insert_row(self.p, self.ambient_dim, rows, pivots, r)
        return Subspace._raw(self.p, self.ambient_dim, tuple(rows), tuple(pivots))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [a | a] and [b | 0]; rows supported on the
        right half span the intersection."""
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        p, n = self.p, self.ambient_dim
        zero = FieldMatrix.zeros(p, 1, n)._rows[0]
        joined = [_join(p, a, a, n) for a in self._rows] + [_join(p, b, zero, n) for b in other._rows]
        rows, pivots = _echelon(p, 2 * n, joined)
        right = [_right(p, r, n) for t, r in zip(pivots, rows) if t >= n]
        return Subspace._raw(p, n, *_echelon(p, n, right))

    def tensor(self, other: "Subspace") -> "Subspace":
        """The subspace self (x) other of F^(m*n).

        The Kronecker products of two canonical bases are again a canonical
        basis (pivot of a_i (x) b_j is pivot(a_i)*n + pivot(b_j)), so no
        elimination is needed.
        """
        m = self.basis_matrix().kron(other.basis_matrix())
        n = other.ambient_dim
        pivots = tuple(pa * n + pb for pa in self._pivots for pb in other._pivots)
        return Subspace._raw(self.p, m.ncols, m._rows, pivots)

    def quotient_matrix(self) -> FieldMatrix:
        """Matrix of the quotient map F^n -> F^n / self.

        Coordinates on the quotient are the non-pivot coordinates of the
        canonical representative; the matrix has ambient_dim - dim rows.
        """
        n = self.ambient_dim
        nps = self.nonpivots()
        if self.p == 2:
            rows = []
            for t, npc in enumerate(nps):
                acc = 1 << npc
                for i, pv in enumerate(self._pivots):
                    if (self._rows[i] >> npc) & 1:
                        acc |= 1 << pv
                rows.append(acc)
            return FieldMatrix._raw(2, len(nps), n, tuple(rows))
        p = self.p
        rows = []
        for npc in nps:
            acc = [0] * n
            acc[npc] = 1
            for i, pv in enumerate(self._pivots):
                c = self._rows[i][npc]
                if c:
                    acc[pv] = (-c) % p
            rows.append(tuple(acc))
        return FieldMatrix._raw(p, len(nps), n, tuple(rows))


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


def image(m: FieldMatrix, s: Subspace | None = None) -> Subspace:
    """Image of a subspace (default: the whole domain) under m."""
    if s is None:
        return m.column_space()
    if s.ambient_dim != m.ncols:
        raise ShapeError("subspace must live in the domain of the matrix")
    return (s.basis_matrix() @ m.transpose()).row_space()


# -- staircase tensor sums ----------------------------------------------------


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


def staircase_sum(terms: Sequence[tuple[Subspace, Subspace]]) -> Subspace:
    """The literal subspace A_1 (x) B_1 + ... + A_r (x) B_r.

    Fine for small ambient spaces and kept as the test oracle; the
    membership class and ``staircase_preimage`` above are the scalable
    routes (the latter is checked against
    ``preimage(matrix, staircase_sum(terms))``).
    """
    out: Subspace | None = None
    for a, b in terms:
        t = a.tensor(b)
        out = t if out is None else out.add(t)
    if out is None:
        raise ShapeError("at least one term is required")
    return out
