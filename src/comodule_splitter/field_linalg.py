"""Exact linear algebra over prime fields.

Matrices over F_2 store each row bit-packed in a Python integer (bit j of a
row is the entry in column j), so a row operation is a single big-int XOR.
Over odd primes a row is a dict col -> nonzero residue, with no stored
zeros, so every operation touches nonzero entries only.  Internal rows are
never mutated once a matrix or subspace holds them.  Everything is exact;
there are no floats anywhere in this module.

Subspaces are always held in canonical reduced row echelon form: pivot
entries are 1, pivot columns are cleared above and below, and rows are
ordered by pivot column.  Equal subspaces therefore have identical
representations, and subspace equality compares rows structurally.

Each operation has one implementation.  ``_echelon`` is the one echelon
core: it reduces a batch of rows forward against a table keyed by leading
column and back-substitutes once at the end.  ``rank``, ``row_space``, the
``Subspace`` constructor, ``Subspace.add`` and the kernel basis of
``kernel_from_sparse_cols`` call it.  ``_reduce`` is the one reduction per
field, a lookup at the pivots; it serves the back-substitution and
``Subspace.reduce``, ``contains`` and ``contains_subspace``.  ``solve``
eliminates augmented rows [a | b], which ``_join`` and ``_right`` build and
split: those two helpers are the only place where the augmented layout
depends on p.  ``inverse`` is ``solve`` against the identity, ``image`` is a
product with the transpose, and ``kernel_from_sparse_cols`` is the one
kernel routine; given row bounds, it returns the nested kernels of one
elimination.  ``AdaptedCoaction.layers`` is the one preimage of a tensor
sum: it reads every level of a filtration layer, the wedge levels
included, off the coaction triples in one elimination, and no tensor sum
is built; ``primitives`` reads each P_g off the same rewrite.  Only this
module reads the internal row format, apart from the bitmask grouplike
search in ``coalgebra``.

Tensor index convention used by the whole package: the basis vector
e_i (x) e_j of F^m (x) F^n sits at position i * n + j.  ``FieldMatrix.kron``
follows it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ParseError, ShapeError

Vector = Sequence[int]


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ParseError at or above _PRIME_BOUND,
    where these bases are not known to decide."""
    if n >= _PRIME_BOUND:
        raise ParseError(f"p = {n} is too large: primality is decided only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def _vector(p: int, vec: Vector, n: int):
    """A dense vector of length n in internal form, packed over F_2 and a
    dict of its nonzero residues otherwise; ShapeError for another length."""
    if len(vec) != n:
        raise ShapeError(f"vector has length {len(vec)}, expected {n}")
    return _pack(vec) if p == 2 else {j: y for j, x in enumerate(vec) if (y := x % p)}


def _dense(p: int, row, n: int) -> tuple[int, ...]:
    """An internal row of width n as a tuple of residues."""
    if p == 2:
        return _unpack(row, n)
    vec = [0] * n
    for j, x in row.items():
        vec[j] = x
    return tuple(vec)


def _frozen(rows: tuple) -> tuple:
    """A hashable form of internal rows that compares as they do."""
    return tuple(r if isinstance(r, int) else frozenset(r.items()) for r in rows)


def _add_multiple(p: int, v: dict, f: int, row: dict) -> None:
    """v += f * row in place over odd p, dropping entries that become zero.

    A zero sum needs v[k] != 0, since f * row[k] is nonzero mod a prime."""
    for k, y in row.items():
        x = (v.get(k, 0) + f * y) % p
        if x:
            v[k] = x
        else:
            del v[k]


def _reduce(p: int, w, table: dict, mask: int = 0):
    """w minus its components along canonical rows, each zero at every other
    pivot used, so the multiple of row_pv to take away is w's entry at pv,
    read off once.  ``table`` maps a pivot to its row.  Over F_2 the pivots
    used are the set bits of ``mask``: w XOR the rows at the set bits of
    w & mask.  Over odd p they are the keys of ``table``: w - sum of
    w[pv] * row_pv, with the dict w changed in place.
    """
    if p == 2:
        t = w & mask
        while t:
            low = t & -t
            w ^= table[low.bit_length() - 1]
            t ^= low
        return w
    for pv in w.keys() & table.keys():
        _add_multiple(p, w, p - w[pv], table[pv])
    return w


def _echelon(p: int, rows: Iterable) -> tuple[tuple, tuple[int, ...]]:
    """Canonical RREF rows and pivots of the span of internal-form rows.

    Two phases.  Forward: each row is reduced against a table of stored
    rows keyed by the column index of their leading entry (over F_2 the
    lowest set bit), until its leading column is free or it vanishes.  Over
    odd p a stored row is scaled to lead 1, and a subtraction touches only
    the nonzero entries of the stored row.  Back-substitution, once: taking
    the pivots from highest to lowest, each row is ``_reduce``d against the
    rows at the higher pivots already finished.  Those rows are zero at
    every other finished pivot, and the row has no entry left of its own
    pivot, where the unfinished pivots are.

    The stored rows span the input and have distinct leading columns, and
    afterwards every pivot column is zero outside its own row, so the result
    is the reduced row echelon form of the span, which is unique.  The input
    rows stay unchanged.
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
            table[pv] = _reduce(2, table[pv], table, done)
            done |= 1 << pv
        return tuple(table[pv] for pv in pivots), tuple(pivots)
    table = {}
    for row in rows:
        v = dict(row)
        while v:
            lead = min(v)
            c = v[lead]
            hit = table.get(lead)
            if hit is None:
                if c != 1:
                    inv = pow(c, -1, p)
                    v = {k: x * inv % p for k, x in v.items()}
                table[lead] = v
                break
            _add_multiple(p, v, p - c, hit)
    pivots = sorted(table)
    for pv in reversed(pivots):
        table[pv] = _reduce(p, table.pop(pv), table)
    return tuple(table[pv] for pv in pivots), tuple(pivots)


def _join(p: int, a, b, n: int):
    """The internal row [a | b] for a row a of width n."""
    return a | (b << n) if p == 2 else a | {k + n: x for k, x in b.items()}


def _right(p: int, row, n: int):
    """The part of an internal row after its first n entries."""
    return row >> n if p == 2 else {k - n: x for k, x in row.items() if k >= n}


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
        self._rows = tuple(_vector(p, r, ncols) for r in rows)

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
        return cls._raw(p, nrows, ncols, tuple(0 if p == 2 else {} for _ in range(nrows)))

    @classmethod
    def identity(cls, p: int, n: int) -> "FieldMatrix":
        if p == 2:
            return cls._raw(p, n, n, tuple(1 << j for j in range(n)))
        return cls._raw(p, n, n, tuple({j: 1} for j in range(n)))

    @classmethod
    def from_cols(cls, p: int, cols: Iterable[Vector], nrows: int | None = None) -> "FieldMatrix":
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ShapeError("nrows is required for a matrix with no columns")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ShapeError(f"ragged columns: expected {nrows} rows in each")
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
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for r, c in col.items():
                if c % p:
                    rows[r][j] = c % p
        return cls._raw(p, nrows, len(cols), tuple(rows))

    # -- accessors ---------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        return _dense(self.p, self._rows[i], self.ncols)

    def col(self, j: int) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((r >> j) & 1 for r in self._rows)
        return tuple(r.get(j, 0) for r in self._rows)

    def entry(self, i: int, j: int) -> int:
        if self.p == 2:
            return (self._rows[i] >> j) & 1
        return self._rows[i].get(j, 0)

    def rows_as_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.nrows)]

    def row_texts(self, sep: str) -> list[str]:
        """The JSON text of each row's entries, in decimal and joined by sep,
        read straight off the internal rows: over F_2 the row's bits as one
        binary numeral, reversed, so that no entry becomes an int."""
        n = self.ncols
        if n == 0:
            return [""] * self.nrows
        if self.p == 2:
            mask, fmt = (1 << n) - 1, f"0{n}b"
            return [sep.join(format(r & mask, fmt)[::-1]) for r in self._rows]
        texts = []
        for r in self._rows:
            vec = ["0"] * n
            for j, x in r.items():
                vec[j] = str(x)
            texts.append(sep.join(vec))
        return texts

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
            for j, x in r.items():
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
        return hash((self.p, self.nrows, self.ncols, _frozen(self._rows)))

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
        p = self.p
        if p == 2:
            rows = tuple(a ^ b for a, b in zip(self._rows, other._rows))
        else:
            rows = tuple(dict(a) for a in self._rows)
            for acc, b in zip(rows, other._rows):
                _add_multiple(p, acc, 1, b)
        return FieldMatrix._raw(p, self.nrows, self.ncols, rows)

    def __neg__(self) -> "FieldMatrix":
        if self.p == 2:
            return self
        p = self.p
        rows = tuple({j: p - x for j, x in r.items()} for r in self._rows)
        return FieldMatrix._raw(p, self.nrows, self.ncols, rows)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self + (-other)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p:
            raise ShapeError("mixed characteristics")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        orows = other._rows
        rows = []
        if self.p == 2:
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
        for a in self._rows:
            acc: dict[int, int] = {}
            for j, x in a.items():
                for k, y in orows[j].items():
                    acc[k] = acc.get(k, 0) + x * y
            rows.append({k: y for k, s in acc.items() if (y := s % p)})
        return FieldMatrix._raw(p, self.nrows, other.ncols, tuple(rows))

    def matvec(self, v: Vector) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ShapeError(f"vector has length {len(v)}, expected {self.ncols}")
        if self.p == 2:
            w = _pack(v)
            return tuple((r & w).bit_count() & 1 for r in self._rows)
        p = self.p
        return tuple(sum(x * v[j] for j, x in r.items()) % p for r in self._rows)

    def transpose(self) -> "FieldMatrix":
        rows = self.packed_cols() if self.p == 2 else self.sparse_cols()
        return FieldMatrix._raw(self.p, self.ncols, self.nrows, tuple(rows))

    def kron(self, other: "FieldMatrix") -> "FieldMatrix":
        """Kronecker product; block (i, j) of the result is a_ij * other."""
        if self.p != other.p:
            raise ShapeError("mixed characteristics")
        nb = other.ncols
        rows = []
        if self.p == 2:
            for a in self._rows:
                for b in other._rows:
                    acc = 0
                    t = a
                    while t:
                        s = (t & -t).bit_length() - 1
                        acc |= b << (s * nb)
                        t &= t - 1
                    rows.append(acc)
        else:
            p = self.p
            for a in self._rows:
                for b in other._rows:
                    rows.append({s * nb + j: x * y % p for s, x in a.items() for j, y in b.items()})
        return FieldMatrix._raw(self.p, self.nrows * other.nrows, self.ncols * nb, tuple(rows))

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(self.p, self._rows)[0])

    def row_space(self) -> "Subspace":
        return Subspace._raw(self.p, self.ncols, *_echelon(self.p, self._rows))

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
        rows, pivots = _echelon(p, joined)
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


def kernel_from_sparse_cols(
    p: int, ncols: int, cols: Sequence, bounds: Sequence[int] | None = None
) -> "Subspace | tuple[Subspace, ...]":
    """The kernel {v : sum_j v_j cols[j] = 0} as a canonical subspace of F^ncols.

    This is the package's one kernel routine.  A column is a dict
    row -> coeff; over F_2 it may also be a bit-packed int (bit i = row i).
    The row count never has to be materialized, which is what makes the
    filtration layers, the iterated-coproduct and the cotensor kernels
    affordable.  Columns are eliminated in order against a table of earlier
    columns keyed by their lowest row, recording the same operations on a
    coefficient vector; a column that reduces to zero gives a kernel vector,
    and the kernel vectors are echelonized once at the end.

    With ``bounds``, row indices that do not increase, it returns instead
    one subspace per bound b, {v : sum_j v_j cols[j] is zero at every row
    below b}, all from the same elimination.  Each stored column is the
    combination of the input columns given by its recorded vector, and the
    stored columns have distinct lowest rows.  So a combination of them is
    zero below b exactly when it uses only those whose lowest row is at
    least b, and the subspace for b is the kernel plus their vectors.
    """
    kernel: list = []
    if p == 2:
        table: dict[int, tuple] = {}
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
    else:
        # Stored columns keep their lead; the inverse of the lead scales each use.
        table = {}
        for j, col in enumerate(cols):
            c = {k: y for k, x in col.items() if (y := x % p)}
            a = {j: 1}
            while c:
                lead = min(c)
                hit = table.get(lead)
                if hit is None:
                    table[lead] = (c, a, pow(c[lead], -1, p))
                    break
                f = (p - c[lead]) * hit[2] % p
                _add_multiple(p, c, f, hit[0])
                _add_multiple(p, a, f, hit[1])
            else:
                kernel.append(a)
    level = Subspace._raw(p, ncols, *_echelon(p, kernel))
    if bounds is None:
        return level
    leads = sorted(table, reverse=True)
    levels, used = [], 0
    for b in bounds:
        start = used
        while used < len(leads) and leads[used] >= b:
            used += 1
        if used > start:
            new = [table[lead][1] for lead in leads[start:used]]
            level = Subspace._raw(p, ncols, *_echelon(p, level._rows + tuple(new)))
        levels.append(level)
    return tuple(levels)


class Subspace:
    """A subspace of F_p^n held in canonical reduced row echelon form."""

    __slots__ = ("p", "ambient_dim", "_rows", "_pivots", "_lookup")

    def __init__(self, p: int, ambient_dim: int, vectors: Iterable[Vector] = ()):
        rows = [_vector(p, v, ambient_dim) for v in vectors]
        self.p = p
        self.ambient_dim = ambient_dim
        self._rows, self._pivots = _echelon(p, rows)
        self._lookup = None

    @classmethod
    def _raw(cls, p: int, ambient_dim: int, rows: tuple, pivots: tuple) -> "Subspace":
        s = object.__new__(cls)
        s.p = p
        s.ambient_dim = ambient_dim
        s._rows = rows
        s._pivots = pivots
        s._lookup = None
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
        return [_dense(self.p, r, self.ambient_dim) for r in self._rows]

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
        return hash((self.p, self.ambient_dim, _frozen(self._rows)))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim} of {self.ambient_dim})"

    # -- membership and reduction ------------------------------------------

    def _reduced(self, w):
        """An internal row reduced by ``_reduce``; an odd-p dict is changed."""
        if self._lookup is None:
            mask = sum(1 << pv for pv in self._pivots) if self.p == 2 else 0
            self._lookup = (dict(zip(self._pivots, self._rows)), mask)
        return _reduce(self.p, w, *self._lookup)

    def reduce(self, v: Vector) -> tuple[int, ...]:
        """Canonical representative of v modulo this subspace."""
        w = self._reduced(_vector(self.p, v, self.ambient_dim))
        return _dense(self.p, w, self.ambient_dim)

    def contains(self, v: Vector) -> bool:
        return not self._reduced(_vector(self.p, v, self.ambient_dim))

    __contains__ = contains

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        if other.dim > self.dim:
            return False
        rows = other._rows if self.p == 2 else map(dict, other._rows)
        return not any(self._reduced(r) for r in rows)

    # -- lattice operations --------------------------------------------------

    def add(self, other: "Subspace") -> "Subspace":
        """Subspace sum: the echelon form of both bases together."""
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        return Subspace._raw(self.p, self.ambient_dim, *_echelon(self.p, self._rows + other._rows))

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
        # Off its own pivot, a canonical row is nonzero only at non-pivots.
        p = self.p
        by_npc = {npc: {npc: 1} for npc in nps}
        for row, pv in zip(self._rows, self._pivots):
            for j, c in row.items():
                if j != pv:
                    by_npc[j][pv] = p - c
        return FieldMatrix._raw(p, len(nps), n, tuple(by_npc[npc] for npc in nps))


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
    coaction[i], with the right factor rewritten once in coordinates b_j.

    Row k of ``coords`` holds the coordinates of e_k, in any coordinates in
    which F_k is the first d_k of them (v lies in F_k exactly when its
    coordinates from d_k on vanish), with ``dims`` the d_k: those of an
    ``adapted_basis``, or with dims (0,) the quotient coordinates
    ``F_0.quotient_matrix().transpose()``, which need no inverse.  The
    triples must lie in range, as those of ``Comodule.psi`` and
    ``Coalgebra.delta`` do.  Column i holds psi(e_i) with the component at
    e_a (x) b_j at index j * left_dim + a: over F_2 as a packed int, over
    odd p as a dict.  All levels of a filtration layer are then the nested
    kernels of one elimination of the columns with their components
    reordered, and every primitive layer a kernel of the columns less one
    line each, with no tensor sum or staircase proof.
    """

    def __init__(self, coaction, left_dim: int, coords: FieldMatrix, dims: Sequence[int]):
        p, width = coords.p, left_dim
        self.p, self.left_dim, self.coords, self.dims = p, left_dim, coords, tuple(dims)
        cols: list = []
        if p == 2:
            # One bit per term: shifting a one-word int by a large index is
            # much cheaper than shifting a wide int, which matters at large n.
            keys = []
            for row in coords._rows:
                row_keys = []
                while row:
                    low = row & -row
                    row_keys.append((low.bit_length() - 1) * width)
                    row ^= low
                keys.append(row_keys)
            for triples in coaction:
                col = 0
                for a, k, c in triples:
                    if c & 1:
                        for key in keys[k]:
                            col ^= 1 << (key + a)
                cols.append(col)
        else:
            sparse = [[(j * width, x) for j, x in row.items()] for row in coords._rows]
            for triples in coaction:
                col: dict[int, int] = {}
                for a, k, c in triples:
                    for key, x in sparse[k]:
                        col[key + a] = col.get(key + a, 0) + c * x
                cols.append({key: y for key, x in col.items() if (y := x % p)})
        self._cols = cols

    def layers(self, unit: Vector | None = None) -> tuple[Subspace, ...]:
        """Every level k = 0..top+1 from one elimination: {v : psi(v) in
        F^L (x) F_k} without a unit, and with one the graded level
        {v : psi(v) in F^L (x) F_{k-1} + unit (x) F_k}, with F_{-1} = 0.  At
        top+1 only the components past d_top must vanish: that is F_top
        again without a unit, and F^L (x) F_top with one.

        In B-coordinates level k is the kernel of the components of weight
        above k.  The component at e_a (x) b_j weighs the least k with
        j < d_k, and top+2 past d_top.  A unit u is first made the
        coordinate at its leading index l, each block x becoming x_a -
        (u_a / u_l) x_l off l, so that a block lies in span(u) exactly when
        it vanishes off l; then the components off l weigh one more.  A
        zero unit spans no line, so then every component weighs one more.
        The components are laid out heaviest first, so those of weight
        above k are the rows below one bound, and ``kernel_from_sparse_cols``
        returns every level from one elimination.
        """
        p, width, dims = self.p, self.left_dim, self.dims
        top, n = len(dims) - 1, self.coords.ncols
        lead = None if unit is None else next((a for a, x in enumerate(unit) if x % p), None)
        # Pieces (lo, hi, part, weight): the blocks of the Sigma coordinates
        # lo <= j < hi, whole (part None), or only at (True) or off (False)
        # the unit's leading index.  Each moves as a whole, heaviest first.
        pieces = [(dims[top], n, None, top + 2)]
        for k in range(top + 1):
            lo, hi = dims[k - 1] if k else 0, dims[k]
            if lead is None:
                pieces.append((lo, hi, None, k + (unit is not None)))
            else:
                pieces += [(lo, hi, True, k), (lo, hi, False, k + 1)]
        pieces = sorted((pc for pc in pieces if pc[1] > pc[0]), key=lambda pc: -pc[3])
        shifts, offset = [], 0
        for lo, hi, _, _ in pieces:
            shifts.append(offset - lo * width)
            offset += (hi - lo) * width
        bounds = [sum((hi - lo) * width for lo, hi, _, w in pieces if w > k) for k in range(top + 2)]
        others = [] if lead is None else [(a, x) for a, x in enumerate(unit) if x % p and a != lead]
        if not others and not any(shifts):
            cols = self._cols
        elif p == 2:
            plan = []
            for (lo, hi, part, _), shift in zip(pieces, shifts):
                mask = (1 << (hi * width)) - (1 << (lo * width)) if hi < n else -(1 << (lo * width))
                if part is not None:
                    line = sum(1 << (j * width + lead) for j in range(lo, hi))
                    mask &= line if part else ~line
                plan.append((mask, shift))
            sel = sum(1 << (j * width + lead) for j in range(dims[top])) if others else 0
            cols = []
            for c in self._cols:
                t = (c & sel) >> lead if others else 0
                for a, _ in others:
                    c ^= t << a
                out = 0
                for mask, shift in plan:
                    if piece := c & mask:
                        out |= piece << shift if shift >= 0 else piece >> -shift
                cols.append(out)
        else:
            # The shift of each block's entries at the leading index and off it.
            at_lead, off_lead = [0] * n, [0] * n
            for (lo, hi, part, _), shift in zip(pieces, shifts):
                for j in range(lo, hi):
                    if part is not False:
                        at_lead[j] = shift
                    if part is not True:
                        off_lead[j] = shift
            if others:
                inv = pow(unit[lead], -1, p)
                others = [(a, x * inv % p) for a, x in others]
            cols = []
            for c in self._cols:
                out, hits = {}, []
                for key, x in c.items():
                    j, a = divmod(key, width)
                    if a != lead:
                        out[key + off_lead[j]] = x
                    else:
                        out[key + at_lead[j]] = x
                        if others and j < dims[top]:
                            hits.append((j * width + off_lead[j], x))
                # kernel_from_sparse_cols reduces the entries mod p.
                for base, x in hits:
                    for a, y in others:
                        out[base + a] = out.get(base + a, 0) - x * y
                cols.append(out)
        return kernel_from_sparse_cols(p, len(self._cols), cols, bounds)

    def primitives(self, g: Vector) -> Subspace:
        """{v : psi(v) = v (x) g}, the kernel of the columns less e_i (x) g,
        whose entries sit at j * left_dim + i for the b-coordinates j of g.
        A kernel does not depend on the coordinates of its target, so this is
        exact for any coaction, counital or not."""
        p, width = self.p, self.left_dim
        gb = (FieldMatrix(p, [g]) @ self.coords).row(0)
        if p == 2:
            line = sum(1 << (j * width) for j, x in enumerate(gb) if x)
            cols = [c ^ (line << i) for i, c in enumerate(self._cols)]
        else:
            # kernel_from_sparse_cols reduces the entries mod p.
            line = [(j * width, x) for j, x in enumerate(gb) if x]
            cols = [c | {key + i: c.get(key + i, 0) - x for key, x in line} for i, c in enumerate(self._cols)]
        return kernel_from_sparse_cols(p, len(self._cols), cols)
