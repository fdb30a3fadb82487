"""Construction and certification of the comodule splitting h: M -> P_1(M) (x) Sigma.

The pipeline mirrors the constructive proof it implements:

    psi           r (x) id        phi^{-1} (x) id      eps (x) id (x) id
  M ----> M(x)Sigma ----> P(M)(x)Sigma ----> k[G](x)P_1(M)(x)Sigma ----> P_1(M)(x)Sigma

with phi: k[G] (x) P_1(M) -> P(M), g (x) v -> g.v, and r a linear retraction
of M onto P(M).  A run computes each layer once, in order: the star report,
the unit grouplike w and P_1(M) = P_w(M), one inversion per action, P(M) as
the sum of the P_g(M), the phi solve on that P(M), the retraction onto the
same P(M), and finally h = (t (x) id) psi with t = (eps (x) id) phi^{-1} r.
build_h runs all of them; recheck_certificate runs the layers up to P_1(M)
and takes h from the certificate.

Instead of replaying the filtration induction that proves h bijective, the
engine certifies the outcome directly: the rank of h must equal
dim M = dim P_1(M) * dim Sigma, and h must be a comodule map into the
cofree comodule P_1(M) (x) Sigma, that is, the residual
(id (x) Delta) h - (h (x) id) psi must vanish.  A nonzero residual is
reported by the basis label of the first column of M where it shows.

The retraction is pinned down deterministically (extend the echelon basis of
P(M) by standard basis vectors, lowest index first), so rebuilding from the
same definition files yields bit-identical certificates.  It is computed in
the equal trailing-pivot form: the extension skips exactly the set D of
trailing pivots of P(M), so the retraction is (S_D^T)^-1 on the D columns
and zero elsewhere, with S_D the d x d block of the echelon basis on D.
That inverts a d x d block, d = dim P(M), not an n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .comodule import (
    Comodule,
    ComoduleAlgebra,
    ComoduleMap,
    check_star_surjective,
    comodule_primitives_at,
    comodule_primitives_total,
)
from .errors import (
    ActionNotInvertible,
    DecompositionFails,
    DimensionMismatch,
    HypothesisNotMet,
    ShapeError,
)
from .field_linalg import FieldMatrix, Subspace
from .reporting import (
    CheckResult,
    CorpusItemResult,
    CorpusReport,
    StarReport,
    ValidationReport,
)


def retraction_onto(s: Subspace) -> FieldMatrix:
    """The deterministic retraction onto s, as a dim s x ambient matrix into
    echelon coordinates of s.

    By definition: extend the echelon basis of s by standard basis vectors
    (lowest index first) to a basis of the ambient space, invert, and keep
    the rows indexing s.  The extension skips e_i exactly when some vector
    of s has its last nonzero entry at i, so the skipped indices are the
    trailing pivots D of s, the pivots of its echelon form with the columns
    reversed.  The kept rows vanish off D, and on D they are (S_D^T)^-1,
    where S_D is the d x d block of the echelon basis on the columns D.
    """
    p, n, d = s.p, s.ambient_dim, s.dim
    flipped = Subspace(p, n, [v[::-1] for v in s.basis_vectors()])
    row_of = {n - 1 - pv: t for t, pv in enumerate(flipped.pivots)}
    select = FieldMatrix.from_sparse_cols(
        p, d, [{row_of[j]: 1} if j in row_of else {} for j in range(n)]
    )
    return (select @ s.basis_matrix().transpose()).inverse() @ select


def _p1(ma: ComoduleAlgebra) -> Subspace:
    """P_1(M) = P_w(M) for the unit grouplike w; the star check has already
    refused a unit that is not coinvariant."""
    return comodule_primitives_at(ma.base, ma.grouplikes.vectors[ma.unit_grouplike_index()])


def _phi_inverse(ma: ComoduleAlgebra, p1: Subspace, total: Subspace) -> FieldMatrix:
    """The inverse of phi on P(M) = total, as a matrix from echelon
    coordinates of P(M) to k[G] (x) P_1(M) coordinates, grouplike-major over
    the echelon basis of P_1(M).

    Solving phi . x = v for each echelon basis vector v of P(M) is the same
    computation as splitting v into its g-primitive components and applying
    the inverse action grouplike by grouplike, because the phi columns are
    exactly the bases A_g(P_1) of those components.
    """
    basis = p1.basis_vectors()
    ph = FieldMatrix.from_cols(ma.p, [a.matvec(b) for a in ma.action for b in basis], nrows=ma.dim)
    expected = len(ma.grouplikes) * p1.dim
    rank = ph.rank()
    if rank != expected or total.dim != expected:
        raise DecompositionFails(
            f"k[G] (x) P_1 has dim {expected} but phi has rank {rank}"
            f" onto P(M) of dim {total.dim}"
        )
    inclusion = FieldMatrix.from_cols(ma.p, list(total.basis_vectors()), nrows=ma.dim)
    solved = ph.solve(inclusion)
    if solved is None:
        raise DecompositionFails("P(M) is not contained in the image of phi")
    return solved


@dataclass(frozen=True)
class SplittingCertificate:
    """An explicit h together with the evidence that it splits the comodule."""

    h_matrix: FieldMatrix
    p1_basis: Subspace
    rank: int
    comodule_residual_zero: bool
    star_report: StarReport

    @property
    def certified(self) -> bool:
        return (
            self.comodule_residual_zero
            and self.rank == self.h_matrix.ncols
            and self.rank == self.h_matrix.nrows
        )

    def to_json_dict(self) -> dict:
        return {
            "p": self.h_matrix.p,
            "dim_m": self.h_matrix.ncols,
            "p1_dim": self.p1_basis.dim,
            "p1_ambient_dim": self.p1_basis.ambient_dim,
            "p1_basis": [list(v) for v in self.p1_basis.basis_vectors()],
            "h": self.h_matrix.rows_as_lists(),
            "rank": self.rank,
            "comodule_residual_zero": self.comodule_residual_zero,
            "star_report": self.star_report.to_json_dict(),
        }


def _assemble_h(ma: ComoduleAlgebra, p1: Subspace) -> FieldMatrix:
    """The layers after P_1(M), each once: invert every action, sum the
    P_g(M) into P(M), solve phi on that P(M), retract onto the same P(M),
    and apply (t (x) id) psi."""
    p = ma.p
    d1 = p1.dim
    if d1 == 0:
        return FieldMatrix.zeros(p, 0, ma.dim)
    for idx, a in enumerate(ma.action):
        try:
            a.inverse()
        except ShapeError:
            raise ActionNotInvertible(f"action of grouplike {idx} is singular") from None
    n_g = len(ma.grouplikes)
    total, _ = comodule_primitives_total(ma.base, ma.grouplikes)
    ph_inv = _phi_inverse(ma, p1, total)
    # eps (x) id collapses the group coordinate: every grouplike has counit 1.
    eps_collapse = FieldMatrix(
        p,
        [[1 if c % d1 == r else 0 for c in range(n_g * d1)] for r in range(d1)],
    )
    t = eps_collapse @ ph_inv @ retraction_onto(total)
    return FieldMatrix.from_sparse_cols(p, d1 * ma.sigma.dim, ma.base.coaction_along(t))


def _residual_witness(ma: ComoduleAlgebra, h: FieldMatrix, d1: int) -> str | None:
    """A witness naming the basis label of M at the first nonzero column of
    (id_{P_1} (x) Delta) h - (h (x) id_Sigma) psi, or None when h is a map of
    comodules into the cofree comodule P_1(M) (x) Sigma."""
    if d1 == 0:
        return None
    residual = ComoduleMap(ma.base, Comodule.cofree(ma.sigma, d1), h).residual()
    for i, col in enumerate(residual):
        if col:
            return f"first nonzero residual column {ma.base.labels[i]}"
    return None


def _bijectivity_witness(ma: ComoduleAlgebra, h: FieldMatrix, rank: int) -> str:
    """The rank of h against dim M and, when h kills a vector of M, the M
    basis labels in the support of the first echelon basis vector of its
    kernel."""
    witness = f"rank {rank} of {ma.dim}"
    if h.ncols == ma.dim and rank < ma.dim:
        v = h.kernel().basis_vectors()[0]
        labels = ", ".join(ma.base.labels[i] for i, x in enumerate(v) if x)
        witness += f"; first kernel vector supported on {labels}"
    return witness


def build_h(
    ma: ComoduleAlgebra,
    f: ComoduleMap,
    strict: bool = False,
    force: bool = False,
) -> SplittingCertificate:
    """Run the full pipeline and certify the result.

    Refuses with HypothesisNotMet when f fails the star-surjectivity report,
    unless ``force`` is set, in which case h is built anyway and the
    certificate reports whatever the rank and residual turn out to be.
    DimensionMismatch signals dim M != dim P_1(M) * dim Sigma while the
    hypothesis holds; that contradicts the theorem, so treat it as an alarm,
    not an input error.
    """
    star = check_star_surjective(ma, f, strict=strict)
    if not star.ok and not force:
        raise HypothesisNotMet(star)
    p1 = _p1(ma)
    if star.ok and p1.dim * ma.sigma.dim != ma.dim:
        raise DimensionMismatch(
            f"dim M = {ma.dim} but dim P_1(M) * dim Sigma = {p1.dim * ma.sigma.dim}"
        )
    h = _assemble_h(ma, p1)
    return SplittingCertificate(
        h_matrix=h,
        p1_basis=p1,
        rank=h.rank(),
        comodule_residual_zero=_residual_witness(ma, h, p1.dim) is None,
        star_report=star,
    )


def recheck_certificate(
    cert: SplittingCertificate,
    ma: ComoduleAlgebra,
    f: ComoduleMap,
) -> ValidationReport:
    """Re-verify a certificate from scratch against the given inputs.

    Nothing stored is trusted: the hypothesis, the primitives, the rank, and
    the residual are all recomputed, and the stored values must match.
    """
    checks = []
    star = check_star_surjective(ma, f, strict=cert.star_report.strict)
    stored = cert.star_report.to_json_dict()
    mismatch = next(
        (
            f"stored star_report {key} does not match the recomputed value"
            for key, value in star.to_json_dict().items()
            if stored[key] != value
        ),
        None,
    )
    checks.append(
        CheckResult(
            "hypothesis_star_surjective",
            star.ok and mismatch is None,
            star.first_failure() or mismatch,
        )
    )

    p1 = _p1(ma)
    checks.append(
        CheckResult(
            "p1_basis_matches",
            p1 == cert.p1_basis,
            None if p1 == cert.p1_basis else f"recomputed dim {p1.dim}, stored dim {cert.p1_basis.dim}",
        )
    )

    shape_ok = (
        cert.h_matrix.nrows == p1.dim * ma.sigma.dim and cert.h_matrix.ncols == ma.dim
    )
    checks.append(CheckResult("h_shape", shape_ok))

    rank = cert.h_matrix.rank()
    rank_ok = rank == ma.dim and rank == cert.h_matrix.nrows
    checks.append(
        CheckResult(
            "h_bijective", rank_ok, None if rank_ok else _bijectivity_witness(ma, cert.h_matrix, rank)
        )
    )
    checks.append(CheckResult("stored_rank_matches", rank == cert.rank))

    witness = _residual_witness(ma, cert.h_matrix, p1.dim) if shape_ok else None
    residual_zero = shape_ok and witness is None
    checks.append(CheckResult("comodule_residual_zero", residual_zero, witness))
    checks.append(
        CheckResult("stored_residual_flag_matches", residual_zero == cert.comodule_residual_zero)
    )
    return ValidationReport("splitting certificate", tuple(checks))


def verify_theorem_on_corpus(
    pairs: Iterable[tuple[str, ComoduleAlgebra, ComoduleMap, str]],
) -> CorpusReport:
    """Run build_h on named (M, f) pairs and compare outcomes to expectations.

    Expected outcomes are "certified" or "hypothesis_not_met"; any other
    result (a built but uncertified h, or an alarm) never matches and so
    always surfaces as a failing corpus item.
    """
    items = []
    for name, ma, f, expected in sorted(pairs, key=lambda t: t[0]):
        try:
            cert = build_h(ma, f)
            if cert.certified:
                outcome = "certified"
                detail = f"rank {cert.rank}"
            else:
                outcome = "built_not_certified"
                detail = f"rank {cert.rank}, residual_zero={cert.comodule_residual_zero}"
        except HypothesisNotMet as exc:
            outcome = "hypothesis_not_met"
            detail = exc.star_report.first_failure() or ""
        except (DimensionMismatch, DecompositionFails, ActionNotInvertible) as exc:
            outcome = "alarm"
            detail = f"{type(exc).__name__}: {exc}"
        items.append(CorpusItemResult(name=name, outcome=outcome, expected=expected, detail=detail))
    return CorpusReport(tuple(items))
