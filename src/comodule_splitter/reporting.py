"""Report objects produced by validators and checkers.

Validators never raise on a failed axiom; they return a report whose entries
carry a witness (the basis element or equation that broke).  ``report_json``
is the one mapping from a report to the JSON the command line tool prints
and a certificate stores; a report's keys are its dataclass fields.
"""

# Annotations are evaluated, not postponed: definitions reads a stored
# report back by the type of each field.
from dataclasses import dataclass, field, fields, is_dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class StarLevelResult:
    level: int
    ok: bool
    source_dim: int
    target_dim: int


@dataclass(frozen=True)
class StarReport:
    """Outcome of the star-surjectivity check of a comodule map."""

    rank: int
    target_dim: int
    surjective: bool
    unit_ok: bool
    equivariance_ok: bool | None
    strict: bool
    levels: tuple[StarLevelResult, ...]

    @property
    def ok(self) -> bool:
        if not (self.surjective and self.unit_ok):
            return False
        if self.equivariance_ok is False:
            return False
        return all(l.ok for l in self.levels)

    def first_failure(self) -> str | None:
        if not self.surjective:
            return f"not surjective (rank {self.rank} < {self.target_dim})"
        if not self.unit_ok:
            return "unit is not sent to the unit"
        if self.equivariance_ok is False:
            return "map does not commute with the group action"
        for l in self.levels:
            if not l.ok:
                return f"graded left primitives not covered at level {l.level}"
        return None


@dataclass(frozen=True)
class F1DecompositionReport:
    """Dimension bookkeeping for the degree-one layer of a pointed coalgebra."""

    dim_coradical: int
    dim_f1: int
    primitive_dims: tuple[int, ...]
    primitive_mod_coradical_dims: tuple[int, ...]
    direct: bool
    spans_f1: bool

    @property
    def ok(self) -> bool:
        return self.direct and self.spans_f1


@dataclass(frozen=True)
class PrimitivesReport:
    """Certified decomposition of the socle of a comodule."""

    total_dim: int
    per_grouplike_dims: tuple[int, ...]
    f0_dim: int
    direct: bool
    equals_f0: bool

    @property
    def ok(self) -> bool:
        return self.direct and self.equals_f0


@dataclass(frozen=True)
class CorpusItemResult:
    name: str
    outcome: str
    expected: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == self.expected


@dataclass(frozen=True)
class CorpusReport:
    items: tuple[CorpusItemResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)


def report_json(report) -> dict:
    """The JSON form of a report: ``ok`` first when its class computes it,
    then every field in declaration order.  Tuples become lists, nested
    reports converted in turn, and a field left at a None default (a
    passed check's witness) is left out."""
    out = {"ok": report.ok} if isinstance(getattr(type(report), "ok", None), property) else {}
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, tuple):
            value = [report_json(v) if is_dataclass(v) else v for v in value]
        if value is not None or f.default is not None:
            out[f.name] = value
    return out
