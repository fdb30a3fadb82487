"""Right comodules over a pointed coalgebra, and the star-surjectivity check.

A right comodule (M, psi) is given by structure constants: for each basis
element m_i of M, ``psi[i]`` lists triples (a, k, coeff) meaning

    psi(m_i) = sum coeff * m_a (x) sigma_k.

Everything downstream of the coalgebra layer lives here: the induced
filtration F_k(M) = psi^{-1}(M (x) F_k), primitives at a grouplike,
the total primitives with their certified decomposition, cotensor
products against small left comodules, graded left primitives, and the
star-surjectivity report that gates the splitting engine.  The filtration
and both sides of the graded primitives are read off one
``AdaptedCoaction``: psi (or Delta) rewritten once with its Sigma factor in
a basis adapted to the filtration of Sigma, where every level is a kernel
of shifted and masked columns.  The star check rewrites psi and Delta once
each for all its levels, and F_0(M) = psi^{-1}(M (x) span(g)) is the one
level of the filtration span(g) of Sigma.  No tensor sum, psi matrix or
staircase proof is built for any of them.

A ComoduleAlgebra packages the extra structure the splitting theorem
needs: an action of the grouplikes by invertible matrices, a unit vector
eta with psi(eta) = eta (x) 1, and an augmentation.  Multiplicativity of
the action against the coaction can only be checked verbatim when the
left-multiplication matrices on the over-coalgebra are known; without
them the validator settles for the checkable consequences (identity
acts as identity, actions are invertible and close under composition,
the grouplikes stay grouplike inside M, and the action carries
1-primitives to g-primitives).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coalgebra import (
    Coalgebra,
    Filtration,
    GroupLikeSet,
    _coacts_as,
    _coassociativity_witness,
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
    _add_mod,
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
ProductTable = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


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

    def psi_matrix(self) -> FieldMatrix:
        """The coaction as a (dim * sigma_dim) x dim matrix; m_a (x) sigma_k
        sits at row a * sigma_dim + k."""
        return self._psi_matrix

    @cached_property
    def _psi_matrix(self) -> FieldMatrix:
        s = self.over.dim
        cols = [{a * s + k: c for a, k, c in t} for t in self.psi]
        return FieldMatrix.from_sparse_cols(self.p, self.dim * s, cols)

    @cached_property
    def _primitives(self) -> dict[tuple[int, ...], Subspace]:
        """P_g(M) by grouplike, filled by comodule_primitives_at."""
        return {}

    def coaction_along(self, a: FieldMatrix) -> list[dict[int, int]]:
        """(a (x) id_Sigma) . psi as sparse columns, without building a
        Kronecker product: column i sums c * a(m_b) (x) sigma_k over the
        triples (b, k, c) of psi(m_i), and e_r (x) sigma_k sits at row
        r * sigma_dim + k."""
        p, s = self.p, self.over.dim
        acols = a.sparse_cols()
        out = []
        for triples in self.psi:
            col: dict[int, int] = {}
            for b, k, c in triples:
                for r, x in acols[b].items():
                    _add_mod(col, r * s + k, c * x, p)
            out.append(col)
        return out

    def psi_sparse(self) -> list[dict[tuple[int, int], int]]:
        return [{(a, k): c for a, k, c in t} for t in self.psi]

    @classmethod
    def regular(cls, sigma: Coalgebra) -> "Comodule":
        """The over-coalgebra as a right comodule over itself, psi = Delta."""
        return cls(sigma, sigma.dim, sigma.labels, sigma.delta)

    @classmethod
    def cofree(cls, sigma: Coalgebra, n: int) -> "Comodule":
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
        return cls(sigma, n * s, labels, psi)

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

    def validate(self) -> ValidationReport:
        c = self.over
        checks = []
        for name, witness in (
            ("counit", _counit_witness(self.labels, self.psi, c.counit, self.p, keep_slot=1)),
            ("coassociativity", _coassociativity_witness(self.labels, self.psi, c.delta, self.psi, self.p)),
        ):
            checks.append(CheckResult(name, witness is None, witness))
        return ValidationReport("left comodule", tuple(checks))


@dataclass(frozen=True)
class ComoduleAlgebra:
    """A comodule with a grouplike action, unit, and augmentation.

    ``action[i]`` is the matrix by which ``grouplikes.vectors[i]`` acts on M.
    ``sigma_action``, when present, holds the matrices of left multiplication
    by each grouplike on the over-coalgebra, which unlocks the verbatim
    multiplicativity check.  ``product`` is an optional full multiplication
    table on M (product[i][j] = triples (k, coeff) for m_i * m_j).
    """

    base: Comodule
    grouplikes: GroupLikeSet
    action: tuple[FieldMatrix, ...]
    unit: tuple[int, ...]
    augmentation: tuple[int, ...]
    sigma_action: tuple[FieldMatrix, ...] | None = None
    product: ProductTable | None = None

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
        source basis vector, with n_a (x) sigma_k at row a * sigma_dim + k.

        Computed from the coaction triples and the columns of f; every
        column is empty iff f is a comodule map.
        """
        p, s = self.source.p, self.source.over.dim
        out = []
        for col, fcol in zip(self.source.coaction_along(self.matrix), self.matrix.sparse_cols()):
            res = {key: p - v for key, v in col.items()}
            for r, x in fcol.items():
                for a, k, c in self.target.psi[r]:
                    _add_mod(res, a * s + k, x * c, p)
            out.append(res)
        return out

    def is_comodule_map(self) -> bool:
        return not any(self.residual())


# -- validators ------------------------------------------------------------------


def validate_comodule(m: Comodule) -> ValidationReport:
    """Counit and coassociativity of the coaction, with basis-label witnesses."""
    checks = []
    for name, witness in (
        ("counit", _counit_witness(m.labels, m.psi, m.over.counit, m.p, keep_slot=0)),
        ("coassociativity", _coassociativity_witness(m.labels, m.psi, m.psi, m.over.delta, m.p)),
    ):
        checks.append(CheckResult(name, witness is None, witness))
    return ValidationReport("comodule", tuple(checks))


def _product_apply(table: ProductTable, p: int, dim: int, u: Vector, v: Vector) -> tuple[int, ...]:
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


def _left_mult_matrix(table: ProductTable, p: int, dim: int, u: Vector) -> FieldMatrix:
    cols = []
    ident = [0] * dim
    for j in range(dim):
        ident[j] = 1
        cols.append(_product_apply(table, p, dim, u, ident))
        ident[j] = 0
    return FieldMatrix.from_cols(p, cols, nrows=dim)


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

    witness = None
    for idx, a in enumerate(ma.action):
        try:
            a.inverse()
        except ShapeError:
            if witness is None:
                witness = f"grouplike {idx}"
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
        psi_m = ma.base.psi_matrix()
        witness = None
        for idx in range(len(ma.grouplikes)):
            lhs = psi_m @ ma.action[idx]
            rhs = ma.action[idx].kron(ma.sigma_action[idx]) @ psi_m
            if lhs != rhs:
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
        witness = None
        table: list[list[int | None]] = []
        for i in range(len(ma.action)):
            row: list[int | None] = []
            for j in range(len(ma.action)):
                comp = ma.action[i] @ ma.action[j]
                found = None
                for k, a in enumerate(ma.action):
                    if a == comp:
                        found = k
                        break
                row.append(found)
                if found is None and witness is None:
                    witness = f"grouplikes ({i}, {j})"
            table.append(row)
        checks.append(CheckResult("action_closed_under_composition", witness is None, witness))
        faithful = len(set(ma.action)) == len(ma.action)
        if witness is None and faithful:
            n_g = len(ma.action)
            latin = all(
                sorted(row) == list(range(n_g)) for row in table
            ) and all(sorted(table[i][j] for i in range(n_g)) == list(range(n_g)) for j in range(n_g))
            checks.append(CheckResult("action_table_is_group", latin))

    if w_idx is not None:
        w = ma.grouplikes.vectors[w_idx]
        p1 = comodule_primitives_at(ma.base, w)
        witness = None
        for idx, g in enumerate(ma.grouplikes):
            pg = comodule_primitives_at(ma.base, g)
            if not pg.contains_subspace(image(ma.action[idx], p1)):
                witness = f"grouplike {idx}"
                break
        checks.append(CheckResult("action_sends_unit_primitives_to_g_primitives", witness is None, witness))

    if ma.product is not None:
        eta = ma.unit
        witness = None
        for j in range(m):
            basis = tuple(1 if t == j else 0 for t in range(m))
            left = _product_apply(ma.product, p, m, eta, basis)
            right = _product_apply(ma.product, p, m, basis, eta)
            if left != basis or right != basis:
                witness = ma.base.labels[j]
                break
        checks.append(CheckResult("unit_is_multiplicative_identity", witness is None, witness))

        witness = None
        for idx in range(len(ma.grouplikes)):
            g_eta = ma.action[idx].matvec(ma.unit)
            if ma.action[idx] != _left_mult_matrix(ma.product, p, m, g_eta):
                witness = f"grouplike {idx}"
                break
        checks.append(CheckResult("action_is_left_multiplication", witness is None, witness))

        if ma.sigma.product is not None:
            sparse = ma.base.psi_sparse()
            sprod = ma.sigma.product
            witness = None
            for i in range(m):
                for j in range(m):
                    lhs: dict[tuple[int, int], int] = {}
                    for k, coeff in ma.product[i][j]:
                        for (a, t), cf in sparse[k].items():
                            _add_mod(lhs, (a, t), coeff * cf, p)
                    rhs: dict[tuple[int, int], int] = {}
                    for (a, t), cf in sparse[i].items():
                        for (b, u), cf2 in sparse[j].items():
                            for mm, cm in ma.product[a][b]:
                                for ss, cs in sprod[t][u]:
                                    _add_mod(rhs, (mm, ss), cf * cf2 * cm * cs, p)
                    if lhs != rhs:
                        witness = f"({ma.base.labels[i]}, {ma.base.labels[j]})"
                        break
                if witness:
                    break
            checks.append(CheckResult("coaction_is_algebra_map", witness is None, witness))

    return ValidationReport("comodule algebra", tuple(checks))


# -- filtration and primitives -----------------------------------------------------


def comodule_filtration(m: Comodule, f: Filtration) -> Filtration:
    """F_k(M) = psi^{-1}(M (x) F_k), level by level along the given filtration,
    read off one rewrite of psi in a basis adapted to the levels."""
    if f.p != m.p or f.ambient_dim != m.over.dim:
        raise ShapeError("filtration does not live on the over-coalgebra")
    sweep = AdaptedCoaction(m.psi, m.dim, *adapted_basis(f.levels))
    levels = []
    for k in range(f.top + 1):
        levels.append(sweep.preimage(k))
        if levels[-1].is_full():
            break
    stabilized = f.stabilized or levels[-1].is_full()
    return Filtration.build(m.p, m.dim, levels, stabilized)


def comodule_primitives_at(m: Comodule, g: Vector) -> Subspace:
    """P_g(M) = kernel of v -> psi(v) - v (x) g, computed once per grouplike
    and comodule."""
    p = m.p
    gv = tuple(x % p for x in g)
    known = m._primitives.get(gv)
    if known is not None:
        return known
    if not is_grouplike(m.over, g):
        raise NotGrouplike(f"{list(g)} is not grouplike")
    s = m.over.dim
    support = [(k, x) for k, x in enumerate(gv) if x]
    cols = []
    for i, triples in enumerate(m.psi):
        col = {a * s + k: c for a, k, c in triples}
        for k, x in support:
            _add_mod(col, i * s + k, -x, p)
        cols.append(col)
    pg = kernel_from_sparse_cols(p, m.dim, cols)
    m._primitives[gv] = pg
    return pg


def comodule_primitives_total(
    m: Comodule, g: GroupLikeSet
) -> tuple[Subspace, PrimitivesReport]:
    """P(M) = sum of the P_g(M), certified direct and equal to F_0(M).

    Raises DecompositionFails when the certificate does not hold; on valid
    input that cannot happen, so a raise flags a broken comodule.
    """
    total = Subspace.zero(m.p, m.dim)
    dims = []
    for vec in g:
        pg = comodule_primitives_at(m, vec)
        dims.append(pg.dim)
        total = total.add(pg)
    f0 = AdaptedCoaction(m.psi, m.dim, g.span().quotient_matrix().transpose(), (0,)).preimage(0)
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
    left_sparse = m.psi_sparse()
    right_sparse = [{(k, b): c for k, b, c in t} for t in n.psi]
    cols: list[dict[int, int]] = []
    for i in range(m.dim):
        for j in range(nn):
            col: dict[int, int] = {}
            for (a, k), cf in left_sparse[i].items():
                _add_mod(col, (a * s + k) * nn + j, cf, p)
            for (k, b), cf in right_sparse[j].items():
                _add_mod(col, (i * s + k) * nn + b, -cf, p)
            cols.append(col)
    return kernel_from_sparse_cols(p, m.dim * nn, cols)


# -- graded left primitives and star-surjectivity ------------------------------------


def graded_left_primitives(
    ma: ComoduleAlgebra, k: int, sigma_filt: Filtration | None = None
) -> Subspace:
    """The space {v in M : psi(v) in eta (x) F_k + M (x) F_{k-1}}, with F_{-1} = 0."""
    if sigma_filt is None:
        sigma_filt = coradical_filtration_wedge(ma.sigma, ma.grouplikes)
    basis = adapted_basis(sigma_filt.levels)
    return AdaptedCoaction(ma.base.psi, ma.dim, *basis).preimage(k, ma.unit)


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

    # Both sides of every level, from one rewrite of psi and one of Delta in
    # a basis of Sigma adapted to the filtration.
    basis = adapted_basis(sigma_filt.levels)
    source_sweep = AdaptedCoaction(ma.base.psi, ma.dim, *basis)
    target_sweep = AdaptedCoaction(sigma.delta, sigma.dim, *basis)
    levels = []
    for k in range(sigma_filt.top + 1):
        source = source_sweep.preimage(k, ma.unit)
        target = target_sweep.preimage(k, w)
        img = image(f.matrix, source)
        if strict:
            ok = img.contains_subspace(target)
        else:
            # img lies in the target: psi(eta) = eta (x) w, so the counit puts
            # f(eta) in span(w).  Then img covers the target modulo its part
            # in F_{k-1} exactly when it covers it modulo F_{k-1}.
            ok = img.add(sigma_filt.level(k - 1)).contains_subspace(target)
        levels.append(StarLevelResult(level=k, ok=ok, source_dim=source.dim, target_dim=target.dim))

    return StarReport(
        rank=rank,
        target_dim=sigma.dim,
        surjective=surjective,
        unit_ok=unit_ok,
        equivariance_ok=equivariance_ok,
        strict=strict,
        levels=tuple(levels),
    )
