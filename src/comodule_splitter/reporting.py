"""Report objects produced by validators and checkers.

Validators never raise on a failed axiom; they return a report whose entries
carry a witness (the basis element or equation that broke).  Reports are
JSON-friendly so the command line tool can print them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class StarLevelResult:
    level: int
    ok: bool
    source_dim: int
    target_dim: int

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "ok": self.ok,
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rank": self.rank,
            "target_dim": self.target_dim,
            "surjective": self.surjective,
            "unit_ok": self.unit_ok,
            "equivariance_ok": self.equivariance_ok,
            "strict": self.strict,
            "levels": [l.to_json_dict() for l in self.levels],
        }


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

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "dim_coradical": self.dim_coradical,
            "dim_f1": self.dim_f1,
            "primitive_dims": list(self.primitive_dims),
            "primitive_mod_coradical_dims": list(self.primitive_mod_coradical_dims),
            "direct": self.direct,
            "spans_f1": self.spans_f1,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "total_dim": self.total_dim,
            "per_grouplike_dims": list(self.per_grouplike_dims),
            "f0_dim": self.f0_dim,
            "direct": self.direct,
            "equals_f0": self.equals_f0,
        }


@dataclass(frozen=True)
class CorpusItemResult:
    name: str
    outcome: str
    expected: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == self.expected

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "expected": self.expected,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CorpusReport:
    items: tuple[CorpusItemResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "items": [i.to_json_dict() for i in self.items]}
