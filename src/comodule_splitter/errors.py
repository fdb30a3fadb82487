"""Exception types shared across the package."""

from __future__ import annotations


class SplitterError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SplitterError):
    """Operands have incompatible dimensions."""


class ParseError(SplitterError):
    """An input is malformed or references something that does not exist: a
    definition file, a command-line value, a generator argument or the cap
    environment variable."""


class DeclaredNotGrouplike(SplitterError):
    """A declared grouplike fails the grouplike equations."""

    def __init__(self, witness: str):
        super().__init__(f"declared grouplike is not grouplike: {witness}")
        self.witness = witness


class SearchSpaceTooLarge(SplitterError):
    """Brute-force grouplike search would enumerate too many vectors."""

    def __init__(self, size: int, bound: int):
        super().__init__(f"search space has {size} vectors, bound is {bound}")
        self.size = size
        self.bound = bound


class NotASubcoalgebra(SplitterError):
    """The span handed to a filtration routine is not a subcoalgebra."""


class CapExceeded(SplitterError):
    """A tensor-power computation would exceed the configured cell cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"tensor power needs {needed} matrix cells, cap is {cap}")
        self.needed = needed
        self.cap = cap


class NotGrouplike(SplitterError):
    """The reference vector of a primitive computation is not grouplike."""


class DecompositionFails(SplitterError):
    """A certified direct-sum decomposition does not hold.

    Signals either a non-pointed input or an internal bug; the witness says
    which dimension count (or subspace equality) broke.
    """

    def __init__(self, witness: str):
        super().__init__(f"decomposition fails: {witness}")
        self.witness = witness


class ActionNotInvertible(SplitterError):
    """A group action matrix is singular."""


class NotAComoduleMap(SplitterError):
    """A linear map does not commute with the coactions."""


class StructureMismatch(SplitterError):
    """Source and target of a map do not live over the same coalgebra, or a
    required piece of structure (unit, action) is missing."""


class HypothesisNotMet(SplitterError):
    """The splitting hypotheses fail; carries the star report as evidence."""

    def __init__(self, star_report):
        super().__init__("splitting hypotheses not met; see star report")
        self.star_report = star_report


class DimensionMismatch(SplitterError):
    """dim M != dim P1(M) * dim Sigma although the hypotheses passed.

    This should never happen; treat it as an alarm, not a routine failure.
    """


class UnsupportedLevel(SplitterError):
    """Requested truncation level is not implemented."""


class GeneratedObjectInvalid(SplitterError):
    """A generator produced an object that fails its own validators."""
