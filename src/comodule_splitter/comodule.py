"""Right comodules over a pointed coalgebra, and the star-surjectivity check.

A right comodule (M, psi) is given by structure constants: for each basis
element m_i of M, ``psi[i]`` lists triples (a, k, coeff) meaning

    psi(m_i) = sum coeff * m_a (x) sigma_k.

Everything downstream of the coalgebra layer lives here: the induced
filtration F_k(M) = psi^{-1}(M (x) F_k), primitives at a grouplike,
the total primitives with their certified decomposition, cotensor
products against small left comodules, and the star-surjectivity report
that gates the splitting engine.  The filtration, both sides of the
graded primitives and every P_g(M) are read off an ``AdaptedCoaction``:
psi (or Delta) rewritten once with its Sigma factor in a basis adapted to
a filtration of Sigma, where one elimination gives every level and P_g(M)
is the kernel of the columns less v (x) g.  The star check rewrites psi and
Delta once each for all its levels, and the splitting engine reads P_w(M),
every P_g(M) and F_0(M) off the star's rewrite of psi.  No tensor sum, psi
matrix or staircase proof is built for any of them.

Every check that a matrix intertwines two coactions is one call of
``coalgebra._coaction_residual``: the map residual, coassociativity (psi
into the cofree M (x) Sigma), psi(v) = v (x) g, and ``coaction_along``,
its first half.

A ComoduleAlgebra packages the extra structure the splitting theorem
needs: an action of the grouplikes by invertible matrices, a unit vector
eta with psi(eta) = eta (x) 1, and an augmentation.  Multiplicativity of
the action against the coaction can only be checked verbatim when the
left-multiplication matrices lambda_g on the over-coalgebra are known, as
a_g mapping the coaction (id (x) lambda_g) psi to psi; without them the
validator settles for the checkable consequences (identity acts as
identity, actions are invertible and close under composition, the
grouplikes stay grouplike inside M, and the action carries 1-primitives
to g-primitives).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import (
    Coalgebra,
    Filtration,
    GroupLikeSet,
    _as_cols,
    _coaction_residual,
    _coacts_as,
    _cofree_witness,
    _counit_witness,
    _normalize_triples,
    coradical_filtration_wedge,
    is_grouplike,
)
from .errors import (
    DecompositionFails,
    NotAComoduleMap,
    NotGrouplike,
    ShapeError,
    StructureMismatch,
)
from .field_linalg import (
    AdaptedCoaction,
    FieldMatrix,
    Subspace,
    Vector,
    adapted_basis,
    image,
    kernel_from_sparse_cols,
)
from .reporting import (
    CheckResult,
    PrimitivesReport,
    StarLevelResult,
    StarReport,
    ValidationReport,
)

PsiTriples = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Comodule:
    """A right comodule over ``over`` given by coaction structure constants."""

    over: Coalgebra
    dim: int
    labels: tuple[str, ...]
    psi: tuple[PsiTriples, ...]

    def __post_init__(self):
        if self.dim != len(self.labels) or self.dim != len(self.psi):
            raise ShapeError("labels and psi must cover the whole basis")
        if self.dim < 1:
            raise ShapeError("comodule dimension must be at least 1")
        object.__setattr__(
            self,
            "psi",
            tuple(_normalize_triples(t, self.over.p, self.dim, self.over.dim) for t in self.psi),
        )

    @property
    def p(self) -> int:
        return self.over.p

    def coaction_along(self, a: FieldMatrix) -> list[dict[int, int]]:
        """(a (x) id_Sigma) . psi as sparse columns of integer sums, reduced by
        FieldMatrix.from_sparse_cols; e_r (x) sigma_k sits at row r * sigma_dim + k."""
        return list(_coaction_residual(self.over.dim, self.psi, a.sparse_cols()))

    @classmethod
    def regular(cls, sigma: Coalgebra) -> "Comodule":
        """The over-coalgebra as a right comodule over itself, psi = Delta."""
        return cls(sigma, sigma.dim, sigma.labels, sigma.delta)

    def same_structure(self, other: "Comodule") -> bool:
        """Structural equality that ignores basis labels and enrichments."""
        return (
            self.over.core_equal(other.over)
            and self.dim == other.dim
            and self.psi == other.psi
        )


@dataclass(frozen=True)
class LeftComodule:
    """A left comodule over ``over``: psi[j] lists (k, b, coeff) meaning
    psi(n_j) = sum coeff * sigma_k (x) n_b.

    Only the three shapes the cotensor computations need are provided:
    the over-coalgebra itself, a grouplike line, and the coradical.
    """

    over: Coalgebra
    dim: int
    labels: tuple[str, ...]
    psi: tuple[PsiTriples, ...]

    def __post_init__(self):
        if self.dim != len(self.labels) or self.dim != len(self.psi):
            raise ShapeError("labels and psi must cover the whole basis")
        object.__setattr__(
            self,
            "psi",
            tuple(_normalize_triples(t, self.over.p, self.over.dim, self.dim) for t in self.psi),
        )

    @property
    def p(self) -> int:
        return self.over.p

    @classmethod
    def regular(cls, sigma: Coalgebra) -> "LeftComodule":
        return cls(sigma, sigma.dim, sigma.labels, sigma.delta)

    @classmethod
    def grouplike_line(cls, sigma: Coalgebra, g: Vector) -> "LeftComodule":
        if not is_grouplike(sigma, g):
            raise NotGrouplike(f"{list(g)} is not grouplike")
        gv = tuple(x % sigma.p for x in g)
        triples = tuple((k, 0, gv[k]) for k in range(sigma.dim) if gv[k])
        return cls(sigma, 1, ("g",), (triples,))

    @classmethod
    def coradical(cls, sigma: Coalgebra, g: GroupLikeSet) -> "LeftComodule":
        """The coradical span(g) with the restricted comultiplication, on the
        basis given by the grouplikes themselves (Delta(g_i) = g_i (x) g_i)."""
        triples = []
        for i, vec in enumerate(g):
            triples.append(tuple((k, i, vec[k]) for k in range(sigma.dim) if vec[k]))
        labels = tuple(f"g{i}" for i in range(len(g)))
        return cls(sigma, len(g), labels, tuple(triples))


@dataclass(frozen=True)
class ComoduleAlgebra:
    """A comodule with a grouplike action, unit, and augmentation.

    ``action[i]`` is the matrix by which ``grouplikes.vectors[i]`` acts on M.
    ``sigma_action``, when present, holds the matrices of left multiplication
    by each grouplike on the over-coalgebra, which unlocks the verbatim
    multiplicativity check.  No multiplication table on M is carried: the
    pipeline uses only the unit, the augmentation and the grouplike action.
    """

    base: Comodule
    grouplikes: GroupLikeSet
    action: tuple[FieldMatrix, ...]
    unit: tuple[int, ...]
    augmentation: tuple[int, ...]
    sigma_action: tuple[FieldMatrix, ...] | None = None

    def __post_init__(self):
        m, p = self.base.dim, self.base.p
        if self.grouplikes.p != p or self.grouplikes.ambient_dim != self.base.over.dim:
            raise ShapeError("grouplike set does not match the over-coalgebra")
        if len(self.action) != len(self.grouplikes):
            raise ShapeError("need exactly one action matrix per grouplike")
        for a in self.action:
            if a.p != p or a.nrows != m or a.ncols != m:
                raise ShapeError("action matrices must be square of the comodule dimension")
        if len(self.unit) != m or len(self.augmentation) != m:
            raise ShapeError("unit and augmentation must have the comodule dimension")
        object.__setattr__(self, "unit", tuple(x % p for x in self.unit))
        object.__setattr__(self, "augmentation", tuple(x % p for x in self.augmentation))
        if self.sigma_action is not None and len(self.sigma_action) != len(self.grouplikes):
            raise ShapeError("need exactly one sigma action matrix per grouplike")
        s = self.base.over.dim
        if any((a.p, a.nrows, a.ncols) != (p, s, s) for a in self.sigma_action or ()):
            raise ShapeError("sigma action matrices must be square of the coalgebra dimension")

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def sigma(self) -> Coalgebra:
        return self.base.over

    def unit_grouplike_index(self) -> int | None:
        """The index w with psi(unit) = unit (x) g_w, or None if there is none."""
        for idx, g in enumerate(self.grouplikes):
            if _coacts_as(self.base.psi, self.unit, g, self.p):
                return idx
        return None


@dataclass(frozen=True)
class ComoduleMap:
    """A linear map of comodules over the same coalgebra."""

    source: Comodule
    target: Comodule
    matrix: FieldMatrix

    def __post_init__(self):
        if not self.source.over.core_equal(self.target.over):
            raise StructureMismatch("source and target live over different coalgebras")
        if self.matrix.nrows != self.target.dim or self.matrix.ncols != self.source.dim:
            raise ShapeError("map matrix must be target_dim x source_dim")

    def residual(self) -> list[dict[int, int]]:
        """psi_target . f - (f (x) id) . psi_source as sparse columns, one per
        source basis vector, with n_a (x) sigma_k at row a * sigma_dim + k;
        every column is empty iff f is a comodule map."""
        src = self.source
        cols = _coaction_residual(src.over.dim, src.psi, self.matrix.sparse_cols(), self.target.psi)
        return [{key: y for key, v in col.items() if (y := v % src.p)} for col in cols]

    def is_comodule_map(self) -> bool:
        return not any(self.residual())


# -- validators ------------------------------------------------------------------


def validate_comodule(m: Comodule) -> ValidationReport:
    """Counit and coassociativity of the coaction, with basis-label witnesses."""
    checks = []
    for name, witness in (
        ("counit", _counit_witness(m.labels, m.psi, m.over.counit, m.p, keep_slot=0)),
        # psi is a comodule map from (M, psi) into the cofree M (x) Sigma.
        ("coassociativity", _cofree_witness(m.labels, m.psi, _as_cols(m.psi, m.over.dim), m.over.delta, m.p)),
    ):
        checks.append(CheckResult(name, witness is None, witness))
    return ValidationReport("comodule", tuple(checks))


def validate_comodule_algebra(ma: ComoduleAlgebra) -> ValidationReport:
    """Tiered checks: comodule axioms, unit and augmentation, then everything
    about the action that the available data lets us verify."""
    checks: list[CheckResult] = []
    p = ma.p
    m = ma.dim

    base_report = validate_comodule(ma.base)
    checks.append(
        CheckResult(
            "comodule_axioms",
            base_report.ok,
            None if base_report.ok else base_report.failures()[0].name,
        )
    )

    aug_ok = sum(a * b for a, b in zip(ma.augmentation, ma.unit)) % p == 1
    checks.append(CheckResult("augmentation_of_unit", aug_ok, None if aug_ok else "eps(eta) != 1"))

    w_idx = ma.unit_grouplike_index()
    checks.append(
        CheckResult(
            "unit_coinvariant",
            w_idx is not None,
            None if w_idx is not None else "psi(eta) is not eta (x) g for any known grouplike",
        )
    )

    if w_idx is not None:
        ident = FieldMatrix.identity(p, m)
        checks.append(CheckResult("identity_acts_trivially", ma.action[w_idx] == ident))

    witness = next((f"grouplike {idx}" for idx, a in enumerate(ma.action) if a.rank() < m), None)
    checks.append(CheckResult("action_invertible", witness is None, witness))

    witness = None
    for idx, g in enumerate(ma.grouplikes):
        if not _coacts_as(ma.base.psi, ma.action[idx].matvec(ma.unit), g, p):
            witness = f"grouplike {idx}"
            break
    checks.append(CheckResult("grouplikes_stay_grouplike", witness is None, witness))

    if ma.sigma_action is not None:
        # With left multiplication on the over-coalgebra known, the
        # multiplicativity identity and the true group table are checkable.
        s = ma.sigma.dim
        witness = None
        for idx, a in enumerate(ma.action):
            lam = ma.sigma_action[idx].sparse_cols()
            twisted = [tuple((b, u, c * x) for b, k, c in t for u, x in lam[k].items()) for t in ma.base.psi]
            cols = _coaction_residual(s, twisted, a.sparse_cols(), ma.base.psi)
            if any(x % p for col in cols for x in col.values()):
                witness = f"grouplike {idx}"
                break
        checks.append(CheckResult("coaction_multiplicative", witness is None, witness))

        witness = None
        for i, gi in enumerate(ma.grouplikes):
            for j, gj in enumerate(ma.grouplikes):
                prod_vec = ma.sigma_action[i].matvec(gj)
                k = ma.grouplikes.index_of(prod_vec)
                if k is None or ma.action[i] @ ma.action[j] != ma.action[k]:
                    witness = f"grouplikes ({i}, {j})"
                    break
            if witness:
                break
        checks.append(CheckResult("action_follows_group_law", witness is None, witness))
    else:
        # Without it, require closure; the induced table is only well defined
        # when the action is faithful, in which case it must be a group table.
        acts = ma.action
        table = [[acts.index(c) if (c := a @ b) in acts else None for b in acts] for a in acts]
        witness = next(
            (f"grouplikes ({i}, {j})" for i, row in enumerate(table) for j, k in enumerate(row) if k is None),
            None,
        )
        checks.append(CheckResult("action_closed_under_composition", witness is None, witness))
        if witness is None and len(set(acts)) == len(acts):
            # every row and every column of the table is a permutation
            latin = all(sorted(line) == list(range(len(acts))) for line in [*table, *zip(*table)])
            checks.append(CheckResult("action_table_is_group", latin))

    if w_idx is not None:
        sweep = _standard_sweep(ma.base)
        p1 = comodule_primitives_at(ma.base, ma.grouplikes.vectors[w_idx], sweep)
        witness = None
        for idx, g in enumerate(ma.grouplikes):
            pg = p1 if idx == w_idx else comodule_primitives_at(ma.base, g, sweep)
            if not pg.contains_subspace(image(ma.action[idx], p1)):
                witness = f"grouplike {idx}"
                break
        checks.append(CheckResult("action_sends_unit_primitives_to_g_primitives", witness is None, witness))

    return ValidationReport("comodule algebra", tuple(checks))


# -- filtration and primitives -----------------------------------------------------


def comodule_filtration(m: Comodule, f: Filtration) -> Filtration:
    """F_k(M) = psi^{-1}(M (x) F_k), level by level along the given filtration,
    read off one rewrite of psi in a basis adapted to the levels."""
    if f.p != m.p or f.ambient_dim != m.over.dim:
        raise ShapeError("filtration does not live on the over-coalgebra")
    levels = []
    for level in AdaptedCoaction(m.psi, m.dim, *adapted_basis(f.levels)).layers()[: f.top + 1]:
        levels.append(level)
        if level.is_full():
            break
    stabilized = f.stabilized or levels[-1].is_full()
    return Filtration.build(m.p, m.dim, levels, stabilized)


def _standard_sweep(m: Comodule) -> AdaptedCoaction:
    """psi with its Sigma factor in the standard coordinates, which need no
    inverse."""
    n = m.over.dim
    return AdaptedCoaction(m.psi, m.dim, FieldMatrix.identity(m.p, n), (n,))


def comodule_primitives_at(m: Comodule, g: Vector, sweep: AdaptedCoaction | None = None) -> Subspace:
    """P_g(M) = kernel of v -> psi(v) - v (x) g, read off ``sweep``, psi
    rewritten in any coordinates of Sigma such as the star check's source
    sweep, or else off psi in the standard coordinates."""
    if not is_grouplike(m.over, g):
        raise NotGrouplike(f"{list(g)} is not grouplike")
    return (_standard_sweep(m) if sweep is None else sweep).primitives(g)


def comodule_primitives_total(
    m: Comodule, g: GroupLikeSet, sweep: AdaptedCoaction | None = None
) -> tuple[Subspace, PrimitivesReport]:
    """P(M) = sum of the P_g(M), certified direct and equal to F_0(M).

    Every P_g(M) and F_0(M) are read off one rewrite of psi in a basis of
    Sigma whose first level is span(g): ``sweep`` when given, such as the
    star check's source sweep, whose basis is adapted to the wedge
    filtration, and otherwise a rewrite made here.  Raises
    DecompositionFails when the certificate does not hold; on valid input
    that cannot happen, so a raise flags a broken comodule.
    """
    for vec in g:
        if not is_grouplike(m.over, vec):
            raise NotGrouplike(f"{list(vec)} is not grouplike")
    if sweep is None:
        sweep = AdaptedCoaction(m.psi, m.dim, *adapted_basis([g.span()]))
    total = Subspace.zero(m.p, m.dim)
    dims = []
    for vec in g:
        pg = sweep.primitives(vec)
        dims.append(pg.dim)
        total = total.add(pg)
    f0 = sweep.layers()[0]
    report = PrimitivesReport(
        total_dim=total.dim,
        per_grouplike_dims=tuple(dims),
        f0_dim=f0.dim,
        direct=total.dim == sum(dims),
        equals_f0=total == f0,
    )
    if not report.ok:
        raise DecompositionFails(
            f"sum of P_g dims {dims} gives dim {total.dim}, F_0(M) has dim {f0.dim}"
        )
    return total, report


# -- cotensor ----------------------------------------------------------------------


def cotensor(m: Comodule, n: LeftComodule) -> Subspace:
    """M box N: the kernel of psi (x) id - id (x) psi' inside M (x) N.

    Basis convention: m_i (x) n_j has index i * dim(N) + j; the middle
    Sigma factor of the target sits between them.
    """
    if not m.over.core_equal(n.over):
        raise StructureMismatch("cotensor factors live over different coalgebras")
    p = m.p
    s = m.over.dim
    nn = n.dim
    cols: list[dict[int, int]] = []
    for i in range(m.dim):
        for j in range(nn):
            col: dict[int, int] = {}
            for a, k, cf in m.psi[i]:
                col[(a * s + k) * nn + j] = col.get((a * s + k) * nn + j, 0) + cf
            for k, b, cf in n.psi[j]:
                col[(i * s + k) * nn + b] = col.get((i * s + k) * nn + b, 0) - cf
            cols.append(col)
    return kernel_from_sparse_cols(p, m.dim * nn, cols)


# -- star-surjectivity -------------------------------------------------------------


def check_star_surjective(
    ma: ComoduleAlgebra,
    f: ComoduleMap,
    strict: bool = False,
    sigma_filt: Filtration | None = None,
) -> StarReport:
    """Evaluate the splitting hypothesis on f: M -> Sigma.

    The report records surjectivity of f, whether f carries the unit to the
    distinguished grouplike, equivariance when the sigma-side action is
    known (None otherwise), and level by level whether the induced map on
    graded left primitives covers the target.  By default coverage is
    measured modulo the previous filtration level; ``strict`` demands
    on-the-nose surjectivity of subspaces instead.
    """
    return _star(ma, f, strict, sigma_filt)[0]


def _star(
    ma: ComoduleAlgebra, f: ComoduleMap, strict: bool, sigma_filt: Filtration | None = None
) -> tuple[StarReport, AdaptedCoaction]:
    """The star report and its source sweep: psi rewritten in a basis of
    Sigma adapted to ``sigma_filt``, by default the wedge filtration, whose
    level 0 is span(g).  The splitting engine reads P_w(M), every P_g(M) and
    F_0(M) off that sweep, so a run rewrites psi once."""
    sigma = ma.sigma
    if not f.source.same_structure(ma.base):
        raise StructureMismatch("map source is not the comodule algebra's underlying comodule")
    if not (f.target.over.core_equal(sigma) and f.target.psi == sigma.delta):
        raise StructureMismatch("map target must be the over-coalgebra as a comodule")
    if not f.is_comodule_map():
        raise NotAComoduleMap("the matrix does not commute with the coactions")
    w_idx = ma.unit_grouplike_index()
    if w_idx is None:
        raise StructureMismatch("the unit is not coinvariant along any known grouplike")
    if sigma_filt is None:
        sigma_filt = coradical_filtration_wedge(sigma, ma.grouplikes)
    w = ma.grouplikes.vectors[w_idx]

    rank = f.matrix.rank()
    surjective = rank == sigma.dim
    unit_ok = f.matrix.matvec(ma.unit) == w
    equivariance_ok: bool | None = None
    if ma.sigma_action is not None:
        equivariance_ok = all(
            ma.sigma_action[idx] @ f.matrix == f.matrix @ ma.action[idx]
            for idx in range(len(ma.grouplikes))
        )

    # Both sides of every level, each from one rewrite, of psi and of Delta,
    # in a basis of Sigma adapted to the filtration, and one elimination.
    basis = adapted_basis(sigma_filt.levels)
    source_sweep = AdaptedCoaction(ma.base.psi, ma.dim, *basis)
    sources = source_sweep.layers(ma.unit)
    targets = AdaptedCoaction(sigma.delta, sigma.dim, *basis).layers(w)
    levels = []
    for k in range(sigma_filt.top + 1):
        source, target = sources[k], targets[k]
        img = image(f.matrix, source)
        if strict:
            ok = img.contains_subspace(target)
        else:
            # img lies in the target: psi(eta) = eta (x) w, so the counit puts
            # f(eta) in span(w).  Then img covers the target modulo its part
            # in F_{k-1} exactly when it covers it modulo F_{k-1}.
            ok = img.add(sigma_filt.level(k - 1)).contains_subspace(target)
        levels.append(StarLevelResult(level=k, ok=ok, source_dim=source.dim, target_dim=target.dim))

    report = StarReport(
        rank=rank,
        target_dim=sigma.dim,
        surjective=surjective,
        unit_ok=unit_ok,
        equivariance_ok=equivariance_ok,
        strict=strict,
        levels=tuple(levels),
    )
    return report, source_sweep
