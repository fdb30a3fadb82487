"""Generators for the example corpus.

Three families of coalgebras, each shipped with whatever extra structure the
splitting pipeline can exercise on them:

* group algebras k[Z/n], the cosemisimple prototypes;
* binomial truncations F_p[t]/(t^d) with the divided-power diagonal
  Delta(t^k) = sum binom(k, j) t^j (x) t^{k-j};
* truncations of a Hopf algebra Sigma = F_2[t_0, t_1, ...] with t_0^3 = 1,
  t_i^4 = t_i, where t_0 is grouplike, t_1 is primitive, and
  Delta(t_2) = t_2 (x) 1 + t_1 (x) t_1^2 + 1 (x) t_2.

Sigma truncations are hand-coded per level and gated: generation fails with
GeneratedObjectInvalid unless the result passes the coalgebra validator, the
diagonal-shape check (the non-primitive part of Delta(t_i) involves only
t_0-free monomials in earlier generators), and the pointedness certificate
with grouplikes {1, t_0, t_0^2}.

Every bundle carries in-memory-only extras (left-multiplication matrices on
the over-coalgebra, and the product table of M where M is Sigma itself) so
the deep validator tiers run on them even though definition files do not
store those fields.  An extended bundle carries no product table on M.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .coalgebra import (
    Coalgebra,
    GroupLikeSet,
    change_basis,
    check_pointed_exhaustive,
    direct_sum,
    find_grouplikes,
    tensor_product,
    validate_coalgebra,
)
from .comodule import Comodule, ComoduleAlgebra, ComoduleMap, _left_mult_matrix
from .errors import (
    GeneratedObjectInvalid,
    ParseError,
    ShapeError,
    StructureMismatch,
    UnsupportedLevel,
)
from .field_linalg import FieldMatrix, _is_prime

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class ExampleBundle:
    """A coalgebra plus the optional comodule-algebra data built over it."""

    name: str
    coalgebra: Coalgebra
    grouplikes: GroupLikeSet
    comodule_algebra: ComoduleAlgebra | None = None
    splitting_map: ComoduleMap | None = None
    expected_outcome: str | None = None


# -- group algebras ------------------------------------------------------------------


def _cyclic_coalgebra(p: int, n: int) -> Coalgebra:
    labels = tuple("1" if i == 0 else "g" if i == 1 else f"g^{i}" for i in range(n))
    delta = tuple(((i, i, 1),) for i in range(n))
    counit = (1,) * n
    grouplikes = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    product = tuple(
        tuple((((i + j) % n, 1),) for j in range(n)) for i in range(n)
    )
    return Coalgebra(p, n, labels, delta, counit, grouplikes, product)


def _grouplike_left_mults(c: Coalgebra, g: GroupLikeSet) -> tuple[FieldMatrix, ...]:
    """Left multiplication by each grouplike, read off the product table."""
    if c.product is None:
        raise StructureMismatch("coalgebra carries no product table")
    return tuple(_left_mult_matrix(c.product, c.p, c.dim, vec) for vec in g)


def _regular_bundle(name: str, c: Coalgebra, expected: str = "certified") -> ExampleBundle:
    """The coalgebra as a comodule algebra over itself, with the identity map."""
    g = find_grouplikes(c, "declared")
    lam = _grouplike_left_mults(c, g)
    reg = Comodule.regular(c)
    unit = tuple(1 if i == 0 else 0 for i in range(c.dim))
    ma = ComoduleAlgebra(
        base=reg,
        grouplikes=g,
        action=lam,
        unit=unit,
        augmentation=c.counit,
        sigma_action=lam,
        product=c.product,
    )
    f = ComoduleMap(reg, reg, FieldMatrix.identity(c.p, c.dim))
    return ExampleBundle(name, c, g, ma, f, expected)


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise ParseError(f"p must be a prime, got {p}")


def gen_group_algebra(p: int, n: int) -> ExampleBundle:
    """k[Z/n] over F_p: every basis element grouplike, coradical everything."""
    _require_prime(p)
    if n < 1:
        raise ParseError(f"group order must be at least 1, got {n}")
    return _regular_bundle(f"group_algebra_{p}_{n}_id", _cyclic_coalgebra(p, n))


# -- binomial truncations ------------------------------------------------------------


def _binomial_coalgebra(p: int, d: int) -> Coalgebra:
    labels = tuple("1" if k == 0 else "t" if k == 1 else f"t^{k}" for k in range(d))
    delta = tuple(
        tuple((j, k - j, comb(k, j) % p) for j in range(k + 1) if comb(k, j) % p)
        for k in range(d)
    )
    counit = tuple(1 if k == 0 else 0 for k in range(d))
    one = (1,) + (0,) * (d - 1)
    return Coalgebra(p, d, labels, delta, counit, (one,))


def gen_binomial_truncation(p: int, d: int) -> ExampleBundle:
    """F_p[t]/(t^d) with the binomial diagonal and grouplike set {1}.

    The comodule-algebra bundle uses the trivial group G = {1}; the diagonal
    is not an algebra map against the truncated product for general d, so no
    product table is attached.
    """
    _require_prime(p)
    if d < 2:
        raise ParseError(f"truncation degree must be at least 2, got {d}")
    c = _binomial_coalgebra(p, d)
    g = find_grouplikes(c, "declared")
    reg = Comodule.regular(c)
    ident = FieldMatrix.identity(p, d)
    unit = tuple(1 if i == 0 else 0 for i in range(d))
    ma = ComoduleAlgebra(reg, g, (ident,), unit, c.counit, sigma_action=(ident,))
    f = ComoduleMap(reg, reg, ident)
    return ExampleBundle(f"binomial_{p}_{d}_id", c, g, ma, f, "certified")


# -- Sigma truncations ---------------------------------------------------------------


def _sigma_monomials(level: int) -> list[Monomial]:
    monos: list[Monomial] = [(a,) for a in range(3)]
    for _ in range(level):
        monos = [m + (b,) for b in range(4) for m in monos]
    return monos


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    out = [(m1[0] + m2[0]) % 3]
    for x, y in zip(m1[1:], m2[1:]):
        e = x + y
        if e >= 4:
            e -= 3
        out.append(e)
    return tuple(out)


def _mono_label(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        parts.append(f"t{i}" if e == 1 else f"t{i}^{e}")
    return "*".join(parts) if parts else "1"


def _generator_diagonals(level: int) -> list[list[tuple[Monomial, Monomial]]]:
    def mono(pos: int, e: int = 1) -> Monomial:
        out = [0] * (level + 1)
        out[pos] = e
        return tuple(out)

    one = tuple([0] * (level + 1))
    diags = [[(mono(0), mono(0))]]
    if level >= 1:
        diags.append([(mono(1), one), (one, mono(1))])
    if level >= 2:
        diags.append([(mono(2), one), (mono(1), mono(1, 2)), (one, mono(2))])
    return diags


def _mono_delta(
    m: Monomial, diags: list[list[tuple[Monomial, Monomial]]]
) -> dict[tuple[Monomial, Monomial], int]:
    one = tuple([0] * len(m))
    acc: dict[tuple[Monomial, Monomial], int] = {(one, one): 1}
    for pos, e in enumerate(m):
        for _ in range(e):
            nxt: dict[tuple[Monomial, Monomial], int] = {}
            for (x, y), c in acc.items():
                for u, v in diags[pos]:
                    key = (_mono_mul(x, u), _mono_mul(y, v))
                    w = (nxt.get(key, 0) + c) % 2
                    if w:
                        nxt[key] = w
                    else:
                        nxt.pop(key, None)
            acc = nxt
    return acc


@dataclass(frozen=True)
class SigmaTruncation:
    """A finite truncation of Sigma: generators t_0, ..., t_level."""

    level: int
    coalgebra: Coalgebra
    grouplikes: GroupLikeSet
    monomials: tuple[Monomial, ...]


def gen_sigma_truncation(level: int) -> SigmaTruncation:
    """Build the level-0/1/2 truncation and gate it on the validators.

    Any failure raises GeneratedObjectInvalid: the structure constants are
    hand-coded, so a failure means they are inconsistent, which nothing
    downstream should try to recover from.
    """
    if level not in (0, 1, 2):
        raise UnsupportedLevel(f"sigma truncation level {level} is not implemented")
    monos = _sigma_monomials(level)
    index = {m: i for i, m in enumerate(monos)}
    diags = _generator_diagonals(level)
    n = len(monos)

    delta = []
    for m in monos:
        expansion = _mono_delta(m, diags)
        delta.append(tuple((index[x], index[y], c) for (x, y), c in sorted(expansion.items())))
    counit = tuple(1 if all(e == 0 for e in m[1:]) else 0 for m in monos)
    labels = tuple(_mono_label(m) for m in monos)
    grouplike_vectors = tuple(
        tuple(1 if i == index[(a,) + (0,) * level] else 0 for i in range(n)) for a in range(3)
    )
    product = tuple(
        tuple(((index[_mono_mul(m1, m2)], 1),) for m2 in monos) for m1 in monos
    )
    c = Coalgebra(2, n, labels, tuple(delta), counit, grouplike_vectors, product)

    report = validate_coalgebra(c)
    if not report.ok:
        raise GeneratedObjectInvalid(
            f"level {level} truncation fails {report.failures()[0].name}"
        )
    for i in range(1, level + 1):
        gen_mono = tuple(1 if t == i else 0 for t in range(level + 1))
        one = tuple([0] * (level + 1))
        remainder = dict(_mono_delta(gen_mono, diags))
        for key in ((gen_mono, one), (one, gen_mono)):
            if remainder.pop(key, 0) != 1:
                raise GeneratedObjectInvalid(f"Delta(t{i}) lacks the primitive part")
        for x, y in remainder:
            involved = [t for t in (x, y) for pos in (0, *range(i, level + 1)) if t[pos]]
            if involved:
                raise GeneratedObjectInvalid(
                    f"Delta(t{i}) has terms outside the span of earlier generators"
                )
    if level <= 1:
        found = find_grouplikes(c, "brute_force")
        if set(found.vectors) != set(grouplike_vectors):
            raise GeneratedObjectInvalid("brute-force grouplikes disagree with the declared set")
    g = find_grouplikes(c, "declared")
    if not check_pointed_exhaustive(c, g):
        raise GeneratedObjectInvalid(f"level {level} truncation is not pointed-exhaustive")
    return SigmaTruncation(level, c, g, tuple(monos))


def bundle_sigma_regular(level: int) -> ExampleBundle:
    return _sigma_regular(gen_sigma_truncation(level))


def _sigma_regular(tr: SigmaTruncation) -> ExampleBundle:
    return _regular_bundle(f"sigma_level{tr.level}_id", tr.coalgebra)


# -- extended comodules and the negative control ---------------------------------------


def gen_extended_comodule(sigma: Coalgebra, a_dim: int, name: str | None = None) -> ExampleBundle:
    """M = A (x) Sigma with the cofree coaction id (x) Delta, where A is the
    augmented algebra k + (nilpotents of square zero) of dimension a_dim.

    The grouplikes act through Sigma (left multiplication on the right
    factor), the unit is a_0 (x) 1, and f = eps_A (x) id projects onto Sigma.
    Requires the product table on sigma so the action matrices exist; M's
    own product table is not built, so the result's ``product`` is None.
    """
    if a_dim < 1:
        raise ParseError(f"the algebra factor must have dimension at least 1, got {a_dim}")
    g = find_grouplikes(sigma, "declared")
    lam = _grouplike_left_mults(sigma, g)
    p = sigma.p
    s = sigma.dim
    m = a_dim * s
    labels = tuple(
        sigma.labels[k] if i == 0 else f"a{i}*{sigma.labels[k]}"
        for i in range(a_dim)
        for k in range(s)
    )
    psi = []
    for i in range(a_dim):
        for k in range(s):
            psi.append(tuple((i * s + j, l, c) for j, l, c in sigma.delta[k]))
    base = Comodule(sigma, m, labels, tuple(psi))
    ident_a = FieldMatrix.identity(p, a_dim)
    action = tuple(ident_a.kron(l) for l in lam)
    unit = tuple(1 if t == 0 else 0 for t in range(m))
    augmentation = tuple(
        sigma.counit[k] if i == 0 else 0 for i in range(a_dim) for k in range(s)
    )
    ma = ComoduleAlgebra(base, g, action, unit, augmentation, sigma_action=lam)
    f_cols = []
    for i in range(a_dim):
        for k in range(s):
            f_cols.append(tuple(1 if (i == 0 and t == k) else 0 for t in range(s)))
    f = ComoduleMap(base, Comodule.regular(sigma), FieldMatrix.from_cols(p, f_cols, nrows=s))
    return ExampleBundle(
        name or f"extended_a{a_dim}", sigma, g, ma, f, "certified"
    )


def bundle_extended(level: int, a_dim: int) -> ExampleBundle:
    return _extended(gen_sigma_truncation(level), a_dim)


def _extended(tr: SigmaTruncation, a_dim: int) -> ExampleBundle:
    return gen_extended_comodule(tr.coalgebra, a_dim, name=f"extended_a{a_dim}_level{tr.level}")


def bundle_negative_control() -> ExampleBundle:
    """The level-0 truncation over itself, but with the zero map: a perfectly
    valid comodule map that is not surjective, so the splitting hypothesis
    fails and build_h must refuse.  Every component still passes its
    validator; only the hypothesis on f is broken."""
    return _zero_map_control(bundle_sigma_regular(0))


def _zero_map_control(good: ExampleBundle) -> ExampleBundle:
    """The level-0 regular bundle good with its map replaced by zero."""
    sigma = good.coalgebra
    f = ComoduleMap(
        good.comodule_algebra.base,
        Comodule.regular(sigma),
        FieldMatrix.zeros(2, sigma.dim, sigma.dim),
    )
    return ExampleBundle(
        "control_zero_map", sigma, good.grouplikes, good.comodule_algebra, f, "hypothesis_not_met"
    )


def shipped_corpus() -> tuple[ExampleBundle, ...]:
    """The bundles the corpus command and the acceptance suite run end to
    end.  Each Sigma truncation is built once per call and shared by the
    bundles over it."""
    tr = [gen_sigma_truncation(level) for level in range(3)]
    regular = [_sigma_regular(t) for t in tr]
    return (
        gen_binomial_truncation(2, 4),
        *(_extended(tr[level], a_dim) for level in (0, 1) for a_dim in (2, 3)),
        *regular,
        _zero_map_control(regular[0]),
    )


# -- adversarial and randomized coalgebras ----------------------------------------------


def gen_non_pointed() -> ExampleBundle:
    """k directly summed with the dual of F_4: a 3-dimensional coalgebra whose
    only grouplike is the summand unit, so the filtration from span{1} stalls
    at dimension 1 and the pointedness certificate must come back false."""
    labels = ("1", "u", "v")
    delta = (
        ((0, 0, 1),),
        ((1, 1, 1), (2, 2, 1)),
        ((1, 2, 1), (2, 1, 1), (2, 2, 1)),
    )
    counit = (1, 1, 0)
    c = Coalgebra(2, 3, labels, delta, counit, ((1, 0, 0),))
    g = find_grouplikes(c, "declared")
    return ExampleBundle("non_pointed_block", c, g)


def _random_invertible(rng: random.Random, p: int, n: int) -> FieldMatrix:
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        m = FieldMatrix(p, rows)
        try:
            m.inverse()
            return m
        except ShapeError:
            continue


def gen_random_pointed(seed: int) -> ExampleBundle:
    """A seeded random pointed coalgebra of dimension at most 6: a small
    combination of binomial truncations and group algebras, hidden behind a
    random change of basis; grouplikes are recovered by brute force."""
    rng = random.Random(seed)
    p = rng.choice([2, 3])

    def piece(max_dim: int) -> Coalgebra:
        if rng.random() < 0.5:
            return _binomial_coalgebra(p, rng.randint(2, max_dim))
        return _cyclic_coalgebra(p, rng.randint(1, max_dim))

    kind = rng.choice(["single", "sum", "tensor"])
    if kind == "single":
        c = piece(6)
    elif kind == "sum":
        c = direct_sum(piece(3), piece(3))
    else:
        c = tensor_product(piece(2), piece(3))
    c = change_basis(c, _random_invertible(rng, p, c.dim))
    g = find_grouplikes(c, "brute_force")
    return ExampleBundle(f"random_pointed_{seed}", c, g)
