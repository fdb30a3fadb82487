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

Each operation has one implementation.  ``_echelon`` is the one echelon
core: it reduces a batch of rows forward against a table keyed by leading
column and back-substitutes once at the end.  ``rank``, ``row_space``, the
``Subspace`` constructor, ``Subspace.add`` and the kernel basis of
``kernel_from_sparse_cols`` call it.  ``solve`` eliminates augmented rows
[a | b], which ``_join`` and ``_right`` build and split: those two helpers
are the only place where the augmented layout depends on p.  ``inverse`` is
``solve`` against the identity, ``image`` is a product with the transpose,
and ``kernel_from_sparse_cols`` is the one kernel routine.  No tensor sum
of subspaces is ever built: ``AdaptedCoaction`` reads every filtration
layer off the coaction triples instead.

Tensor index convention used by the whole package: the basis vector
e_i (x) e_j of F^m (x) F^n sits at position i * n + j.  ``FieldMatrix.kron``
follows it.
"""

from __future__ import annotations

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


# Byte value -> the ASCII digit of its parity, and ASCII digit -> its bit.
_PARITY_DIGIT = bytes(48 | (i & 1) for i in range(256))
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _pack(vec: Vector) -> int:
    """Pack a vector into an int, bit j = entry j mod 2.

    The reversed row is read as one binary numeral; entries outside 0..255
    do not fit a byte and are reduced mod 2 first."""
    if not vec:
        return 0
    try:
        raw = bytes(vec[::-1])
    except ValueError:
        raw = bytes([x & 1 for x in vec[::-1]])
    return int(raw.translate(_PARITY_DIGIT), 2)


def _pack_sparse(col: dict[int, int]) -> int:
    """Pack a sparse column (row -> coeff) over F_2 into an int, bit i = row i."""
    mask = 0
    for i, x in col.items():
        if x % 2:
            mask |= 1 << i
    return mask


def _unpack(mask: int, n: int) -> tuple[int, ...]:
    """Bits 0..n-1 of mask as a 0/1 tuple; higher bits are ignored."""
    if n == 0:
        return ()
    digits = format(mask & ((1 << n) - 1), f"0{n}b").encode()
    return tuple(digits[::-1].translate(_DIGIT_BIT))


def _tuple_mod(vec: Vector, p: int) -> tuple[int, ...]:
    return tuple(x % p for x in vec)


def _add_mod(acc: dict, key, value: int, p: int) -> None:
    """acc[key] += value mod p, dropping the key when the sum is zero."""
    v = (acc.get(key, 0) + value) % p
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def _echelon(p: int, ncols: int, rows: Iterable) -> tuple[tuple, tuple[int, ...]]:
    """Canonical RREF rows and pivots of the span of internal-form rows.

    Two phases.  Forward: each row is reduced against a table of stored
    rows keyed by the column index of their leading entry (over F_2 the
    lowest set bit), until its leading column is free or it vanishes.  A
    stored row is zero left of its key, so a subtraction only touches
    columns from the lead onward; over odd p a stored row is scaled to lead
    1.  Back-substitution, once: taking the pivots from highest to lowest,
    each row is cleared at the higher pivots already finished.  Those rows
    are zero at every other finished pivot, so the coefficients to clear
    can be read off the row before any subtraction.

    The stored rows span the input and have distinct leading columns, and
    afterwards every pivot column is zero outside its own row, so the result
    is the reduced row echelon form of the span, which is unique.
    """
    if p == 2:
        table: dict[int, int] = {}
        for v in rows:
            while v:
                lead = (v & -v).bit_length() - 1
                hit = table.get(lead)
                if hit is None:
                    table[lead] = v
                    break
                v ^= hit
        pivots = sorted(table)
        done = 0
        for pv in reversed(pivots):
            v = table[pv]
            t = v & done
            while t:
                low = t & -t
                v ^= table[low.bit_length() - 1]
                t ^= low
            table[pv] = v
            done |= 1 << pv
        return tuple(table[pv] for pv in pivots), tuple(pivots)
    # Over odd p the table holds each row from its key onward.
    tails: dict[int, list[int]] = {}
    for row in rows:
        v = list(row)
        lead = 0
        while True:
            while lead < ncols and not v[lead]:
                lead += 1
            if lead == ncols:
                break
            hit = tails.get(lead)
            c = v[lead]
            if hit is None:
                inv = pow(c, -1, p)
                tails[lead] = [x * inv % p for x in v[lead:]] if inv != 1 else v[lead:]
                break
            v[lead:] = [(x - c * y) % p for x, y in zip(v[lead:], hit)]
    pivots = sorted(tails)
    for pv in reversed(pivots):
        tail = tails[pv]
        coeffs = [(k, c) for k, c in enumerate(tail[1:], 1) if c and pv + k in tails]
        for k, c in coeffs:
            tail[k:] = [(x - c * y) % p for x, y in zip(tail[k:], tails[pv + k])]
    return tuple((0,) * pv + tuple(tails[pv]) for pv in pivots), tuple(pivots)


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
        rows = [r if isinstance(r, (list, tuple)) else tuple(r) for r in rows]
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

    def rank(self) -> int:
        return len(_echelon(self.p, self.ncols, self._rows)[0])

    def row_space(self) -> "Subspace":
        return Subspace._raw(self.p, self.ncols, *_echelon(self.p, self.ncols, self._rows))

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
    filtration layers, the iterated-coproduct and the cotensor kernels
    affordable.  Columns are eliminated in order against a table of earlier
    columns keyed by their lowest row, recording the same operations on a
    coefficient vector; a column that reduces to zero gives a kernel vector,
    and the kernel vectors are echelonized once at the end.
    """
    kernel: list = []
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
                kernel.append(a)
        return Subspace._raw(2, ncols, *_echelon(2, ncols, kernel))
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
            v = [0] * ncols
            for k, x in a.items():
                v[k] = x
            kernel.append(v)
    return Subspace._raw(p, ncols, *_echelon(p, ncols, kernel))


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
        """Subspace sum: the echelon form of both bases together."""
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        p, n = self.p, self.ambient_dim
        return Subspace._raw(p, n, *_echelon(p, n, self._rows + other._rows))

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


def image(m: FieldMatrix, s: Subspace) -> Subspace:
    """Image of a subspace of the domain under m."""
    if s.ambient_dim != m.ncols:
        raise ShapeError("subspace must live in the domain of the matrix")
    return (s.basis_matrix() @ m.transpose()).row_space()


# -- filtration-adapted coordinates ----------------------------------------------


def adapted_basis(levels: Sequence[Subspace]) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Coordinates in a basis B of F^n adapted to nested F_0 <= ... <= F_top,
    and the dimensions d_k of the levels.

    Nested canonical subspaces have nested pivots.  So the rows of each F_k
    at its pivots new at level k, level by level, then the unit vectors at
    the non-pivots of F_top, have distinct leading columns and form a basis
    B whose first d_k vectors span F_k.  Row i of the returned B^-1 holds
    the B-coordinates of e_i.  Raises ``ShapeError`` unless each level
    contains the one before it: equal pivots alone do not make levels nested.
    """
    p, n = levels[0].p, levels[0].ambient_dim
    rows: list = []
    seen: set[int] = set()
    prev = None
    for lvl in levels:
        if prev is not None and not lvl.contains_subspace(prev):
            raise ShapeError("levels must increase in one ambient space")
        prev = lvl
        for row, pv in zip(lvl._rows, lvl._pivots):
            if pv not in seen:
                rows.append(row)
                seen.add(pv)
    unit_rows = FieldMatrix.identity(p, n)._rows
    rows += [unit_rows[j] for j in range(n) if j not in seen]
    coords = FieldMatrix._raw(p, n, n, tuple(rows)).inverse()
    return coords, tuple(lvl.dim for lvl in levels)


class AdaptedCoaction:
    """psi(e_i) = sum of c * e_a (x) e_k over the triples (a, k, c) of
    coaction[i], with the right factor rewritten once in an adapted basis B.

    ``coords`` and ``dims`` come from ``adapted_basis``; the triples must lie
    in range, as those of ``Comodule.psi`` and ``Coalgebra.delta`` do, which
    their constructors check.  Column i holds
    psi(e_i) with the component at e_a (x) b_j at index j * left_dim + a:
    over F_2 as a packed int, over odd p as a dict.  Since F_k is spanned by
    b_0 .. b_{d_k - 1}, every preimage of a filtration layer is a kernel of
    shifted and masked columns, with no tensor sum, quotient matrix or
    staircase proof.
    """

    def __init__(self, coaction, left_dim: int, coords: FieldMatrix, dims: Sequence[int]):
        p, width = coords.p, left_dim
        self.p, self.left_dim, self.dims = p, left_dim, tuple(dims)
        cols: list = []
        if p == 2:
            spread = []
            for row in coords._rows:
                s = 0
                while row:
                    low = row & -row
                    s |= 1 << ((low.bit_length() - 1) * width)
                    row ^= low
                spread.append(s)
            for triples in coaction:
                col = 0
                for a, k, c in triples:
                    if c & 1:
                        col ^= spread[k] << a
                cols.append(col)
        else:
            sparse = [[(j * width, x) for j, x in enumerate(row) if x] for row in coords._rows]
            for triples in coaction:
                col = {}
                for a, k, c in triples:
                    for key, x in sparse[k]:
                        _add_mod(col, key + a, c * x, p)
                cols.append(col)
        self._cols = cols

    def _dim(self, k: int) -> int:
        """d_k, with d_{-1} = 0 and d_k = d_top beyond the top."""
        return 0 if k < 0 else self.dims[min(k, len(self.dims) - 1)]

    def preimage(self, k: int, unit: Vector | None = None) -> Subspace:
        """{v : psi(v) in F^L (x) F_k} without a unit; with one, the graded
        layer {v : psi(v) in F^L (x) F_{k-1} + unit (x) F_k}.

        In B-coordinates the first is the kernel of every component at
        j >= d_k.  The second is the kernel of the components at j >= d_k
        together with those at d_{k-1} <= j < d_k taken modulo the unit line:
        each such block is reduced by its entry at the unit's leading index.
        A zero unit spans no line, so then that band must vanish outright.
        """
        p, width = self.p, self.left_dim
        lo = self._dim(k if unit is None else k - 1)
        hi = self._dim(k)
        lead = None if unit is None else next((a for a, x in enumerate(unit) if x % p), None)
        shift = lo * width
        if lead is None or hi == lo:
            if p == 2:
                cols = [c >> shift for c in self._cols]
            else:
                cols = [{key - shift: x for key, x in c.items() if key >= shift} for c in self._cols]
        elif p == 2:
            sel = sum(1 << (j * width + lead) for j in range(lo, hi))
            support = [a for a, x in enumerate(unit) if x & 1]
            cols = []
            for c in self._cols:
                t = (c & sel) >> lead
                for a in support:
                    c ^= t << a
                cols.append(c >> shift)
        else:
            inv = pow(unit[lead], -1, p)
            scaled = [(a, x * inv % p) for a, x in enumerate(unit) if x % p]
            end = hi * width
            cols = []
            for c in self._cols:
                out = {key - shift: x for key, x in c.items() if key >= shift}
                hits = [
                    (key - shift - lead, x)
                    for key, x in c.items()
                    if shift <= key < end and key % width == lead
                ]
                for base, x in hits:
                    for a, y in scaled:
                        _add_mod(out, base + a, -x * y, p)
                cols.append(out)
        return kernel_from_sparse_cols(p, len(self._cols), cols)
