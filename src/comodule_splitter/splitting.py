"""Construction and certification of the comodule splitting h: M -> P_1(M) (x) Sigma.

The pipeline mirrors the constructive proof it implements:

    psi           r (x) id        phi^{-1} (x) id      eps (x) id (x) id
  M ----> M(x)Sigma ----> P(M)(x)Sigma ----> k[G](x)P_1(M)(x)Sigma ----> P_1(M)(x)Sigma

with phi: k[G] (x) P_1(M) -> P(M), g (x) v -> g.v, and r a linear retraction
of M onto P(M).  A run computes each layer once, in order: the star report,
the unit grouplike w and P_1(M) = P_w(M), one rank test per action, P(M) as
the sum of the P_g(M), the check that the columns of phi span P(M), and
finally h = (t (x) id) psi with t = (eps (x) id) phi^{-1} r.  Every P_g(M)
and F_0(M) are read off the star's own rewrite of psi, so a run rewrites psi
once.  build_h runs all of them; recheck_certificate runs the layers up to
P_1(M) and takes h from the certificate.

The retraction is pinned down deterministically (extend the echelon basis B
of P(M) by standard basis vectors, lowest index first), so rebuilding from
the same definition files yields bit-identical certificates.  The extension
skips exactly the set D of trailing pivots of P(M), so r = (S_D B^T)^-1 S_D,
with S_D the d x n matrix that keeps the coordinates D, d = dim P(M).  Once
the columns of phi span P(M), phi X = B^T for an invertible d x d matrix X,
and

    phi^{-1} r = X (S_D phi X)^-1 S_D = (S_D phi)^-1 S_D.

So t = (eps (x) id) (S_D phi)^-1 S_D costs one inverse of a d x d matrix,
and phi is never solved against P(M).  The result is exactly the composite
above: the identity holds over F_p, not up to a choice.

Instead of replaying the filtration induction that proves h bijective, the
engine certifies the outcome directly: the rank of h must equal
dim M = dim P_1(M) * dim Sigma, and h must be a comodule map into the
cofree comodule P_1(M) (x) Sigma, that is, the residual
(id (x) Delta) h - (h (x) id) psi must vanish.  That residual is
``coalgebra._coaction_residual``, the one routine behind every "does this
map intertwine two coactions" check of the package, with the cofree
coaction read off Delta's triples in place.  A nonzero residual is
reported by the basis label of the first column of M where it shows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .coalgebra import _cofree_witness
from .comodule import (
    ComoduleAlgebra,
    ComoduleMap,
    _star,
    comodule_primitives_at,
    comodule_primitives_total,
)
from .errors import (
    ActionNotInvertible,
    DecompositionFails,
    DimensionMismatch,
    HypothesisNotMet,
)
from .field_linalg import AdaptedCoaction, FieldMatrix, Subspace
from .reporting import (
    CheckResult,
    CorpusItemResult,
    CorpusReport,
    StarReport,
    ValidationReport,
    report_json,
)


def _trailing_pivots(s: Subspace) -> FieldMatrix:
    """S_D, the dim s x ambient 0/1 matrix that keeps the coordinates D of
    the trailing pivots of s: the pivots of its echelon form with the
    columns reversed, the indices i at which some vector of s has its last
    nonzero entry."""
    p, n, d = s.p, s.ambient_dim, s.dim
    flipped = Subspace(p, n, [v[::-1] for v in s.basis_vectors()])
    row_of = {n - 1 - pv: t for t, pv in enumerate(flipped.pivots)}
    return FieldMatrix.from_sparse_cols(
        p, d, [{row_of[j]: 1} if j in row_of else {} for j in range(n)]
    )


def _p1(ma: ComoduleAlgebra, sweep: AdaptedCoaction) -> Subspace:
    """P_1(M) = P_w(M) for the unit grouplike w, read off the star's source
    sweep; the star check has already refused a unit that is not
    coinvariant."""
    return comodule_primitives_at(ma.base, ma.grouplikes.vectors[ma.unit_grouplike_index()], sweep)


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

    def to_json_text(self) -> str:
        """The certificate as compact JSON with sorted keys, the text split
        writes.  The rows of h are built from its packed rows by
        FieldMatrix.row_texts; every other value goes through json.dumps."""
        texts = {
            key: json.dumps(value, sort_keys=True, separators=(",", ":"))
            for key, value in (
                ("p", self.h_matrix.p),
                ("dim_m", self.h_matrix.ncols),
                ("p1_dim", self.p1_basis.dim),
                ("p1_ambient_dim", self.p1_basis.ambient_dim),
                ("p1_basis", [list(v) for v in self.p1_basis.basis_vectors()]),
                ("rank", self.rank),
                ("comodule_residual_zero", self.comodule_residual_zero),
                ("star_report", report_json(self.star_report)),
            )
        }
        texts["h"] = "[" + ",".join(f"[{t}]" for t in self.h_matrix.row_texts(",")) + "]"
        return "{" + ",".join(f'"{key}":{texts[key]}' for key in sorted(texts)) + "}"


def _assemble_h(ma: ComoduleAlgebra, p1: Subspace, sweep: AdaptedCoaction) -> FieldMatrix:
    """The layers after P_1(M), each once: check that every action has full
    rank, sum the P_g(M) into P(M) off the star's source sweep, check that
    the columns of phi span P(M), and apply (t (x) id) psi with
    t = (eps (x) id) (S_D phi)^-1 S_D."""
    p = ma.p
    d1 = p1.dim
    if d1 == 0:
        return FieldMatrix.zeros(p, 0, ma.dim)
    for idx, a in enumerate(ma.action):
        if a.rank() < ma.dim:
            raise ActionNotInvertible(f"action of grouplike {idx} is singular")
    total, _ = comodule_primitives_total(ma.base, ma.grouplikes, sweep)
    basis = p1.basis_vectors()
    ph = FieldMatrix.from_cols(p, [a.matvec(b) for a in ma.action for b in basis], nrows=ma.dim)
    expected = len(ma.grouplikes) * d1
    span = ph.transpose().row_space()
    if span.dim != expected or total.dim != expected:
        raise DecompositionFails(
            f"k[G] (x) P_1 has dim {expected} but phi has rank {span.dim}"
            f" onto P(M) of dim {total.dim}"
        )
    if span != total:
        raise DecompositionFails("P(M) is not contained in the image of phi")
    select = _trailing_pivots(total)
    # eps (x) id sums the grouplike blocks of d1 coordinates: every grouplike has counit 1.
    eps = FieldMatrix.from_sparse_cols(p, d1, [{c % d1: 1} for c in range(expected)])
    t = eps @ (select @ ph).inverse() @ select
    return FieldMatrix.from_sparse_cols(p, d1 * ma.sigma.dim, ma.base.coaction_along(t))


def _residual_witness(ma: ComoduleAlgebra, h: FieldMatrix) -> str | None:
    """A witness naming the basis label of M at the first nonzero column of
    (id_{P_1} (x) Delta) h - (h (x) id_Sigma) psi, or None when h is a map of
    comodules into the cofree comodule P_1(M) (x) Sigma; v_u (x) sigma_k
    sits at row u * sigma_dim + k of h."""
    label = _cofree_witness(ma.base.labels, ma.base.psi, h.sparse_cols(), ma.sigma.delta, ma.p)
    return None if label is None else f"first nonzero residual column {label}"


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
    star, sweep = _star(ma, f, strict)
    if not star.ok and not force:
        raise HypothesisNotMet(star)
    p1 = _p1(ma, sweep)
    if star.ok and p1.dim * ma.sigma.dim != ma.dim:
        raise DimensionMismatch(
            f"dim M = {ma.dim} but dim P_1(M) * dim Sigma = {p1.dim * ma.sigma.dim}"
        )
    h = _assemble_h(ma, p1, sweep)
    return SplittingCertificate(
        h_matrix=h,
        p1_basis=p1,
        rank=h.rank(),
        comodule_residual_zero=_residual_witness(ma, h) is None,
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
    star, sweep = _star(ma, f, cert.star_report.strict)
    stored = report_json(cert.star_report)
    mismatch = next(
        (
            f"stored star_report {key} does not match the recomputed value"
            for key, value in report_json(star).items()
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

    # A rank or residual taken over another field than the inputs' says
    # nothing about them, so a certificate over the wrong field fails its
    # shape and bijectivity checks, and the residual is skipped.
    fields = None
    if cert.h_matrix.p != ma.p:
        fields = f"certificate over F_{cert.h_matrix.p}, inputs over F_{ma.p}"
    p1 = _p1(ma, sweep)
    p1_witness = None
    if p1 != cert.p1_basis:
        p1_witness = f"recomputed dim {p1.dim}, stored dim {cert.p1_basis.dim}"
        if fields:
            p1_witness += f"; {fields}"
    checks.append(CheckResult("p1_basis_matches", p1_witness is None, p1_witness))

    shape_ok = fields is None and (
        cert.h_matrix.nrows == p1.dim * ma.sigma.dim and cert.h_matrix.ncols == ma.dim
    )
    checks.append(CheckResult("h_shape", shape_ok, fields))

    rank = cert.h_matrix.rank()
    rank_ok = fields is None and rank == ma.dim and rank == cert.h_matrix.nrows
    checks.append(
        CheckResult(
            "h_bijective",
            rank_ok,
            fields or (None if rank_ok else _bijectivity_witness(ma, cert.h_matrix, rank)),
        )
    )
    checks.append(CheckResult("stored_rank_matches", rank == cert.rank))

    witness = _residual_witness(ma, cert.h_matrix) if shape_ok else None
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
