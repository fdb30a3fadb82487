"""Command line front end.

One subcommand per library operation, JSON reports on stdout, and a stable
exit-code contract:

* 0 success
* 1 mathematical failure (validator says no, certificate does not check out)
* 2 parse or usage error (bad JSON, missing file or corpus directory,
  unsupported level, a grouplike index out of range, a non-prime p or a
  generator size out of range, an unparsable cap)
* 3 resource cap hit (tensor-power cell cap, grouplike search bound)
* 4 splitting hypothesis not met

Emitted JSON is deterministic (sorted keys); certificate files additionally
use a compact one-line encoding so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .coalgebra import (
    Coalgebra,
    GroupLikeSet,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    f1_decomposition,
    find_grouplikes,
    primitives_at,
    validate_coalgebra,
)
from .comodule import (
    ComoduleAlgebra,
    LeftComodule,
    check_star_surjective,
    comodule_filtration,
    comodule_primitives_at,
    comodule_primitives_total,
    cotensor,
    validate_comodule,
    validate_comodule_algebra,
)
from .definitions import (
    _load_json,
    _one_load_per_file,
    load_bundle,
    load_certificate,
    load_coalgebra,
    load_comodule,
    load_map,
    write_bundle,
    write_coalgebra,
)
from .errors import (
    CapExceeded,
    HypothesisNotMet,
    ParseError,
    SearchSpaceTooLarge,
    SplitterError,
    UnsupportedLevel,
)
from .generators import (
    bundle_extended,
    bundle_negative_control,
    bundle_sigma_regular,
    gen_binomial_truncation,
    gen_group_algebra,
    gen_non_pointed,
    gen_random_pointed,
    shipped_corpus,
)
from .reporting import CheckResult, ValidationReport
from .splitting import build_h, recheck_certificate, verify_theorem_on_corpus


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def _detect_kind(path: str) -> str:
    doc = _load_json(path)
    for key, kind in (("delta", "coalgebra"), ("psi", "comodule"), ("matrix", "map")):
        if key in doc:
            return kind
    raise ParseError(f"{path}: cannot tell what this defines (no delta, psi, or matrix key)")


def _grouplikes_for(c: Coalgebra, search: bool, bound: int | None) -> GroupLikeSet:
    """Declared grouplikes when present (verified), brute force otherwise."""
    if search or c.declared_grouplikes is None:
        return find_grouplikes(c, "brute_force", bound)
    return find_grouplikes(c, "declared")


def _sigma_filtration(c: Coalgebra, algo: str, max_level: int | None, search: bool):
    g = _grouplikes_for(c, search, None)
    if algo == "direct":
        return coradical_filtration_direct(c, g, max_level if max_level is not None else c.dim)
    return coradical_filtration_wedge(c, g, max_level)


def _grouplike_at(g: GroupLikeSet, idx: int) -> tuple[int, ...]:
    if not 0 <= idx < len(g):
        raise ParseError(f"grouplike index {idx} is out of range: there are {len(g)} grouplikes")
    return g.vectors[idx]


def _basis_lists(subspace) -> list[list[int]]:
    return [list(v) for v in subspace.basis_vectors()]


def _load_enriched(path: str) -> ComoduleAlgebra:
    _, ma = load_comodule(path)
    if ma is None:
        raise ParseError(f"{path}: this command needs unit, augmentation, and action")
    return ma


# -- subcommands -----------------------------------------------------------------------


def cmd_validate(args) -> int:
    kind = _detect_kind(args.path)
    if kind == "coalgebra":
        report = validate_coalgebra(load_coalgebra(args.path))
    elif kind == "comodule":
        m, ma = load_comodule(args.path)
        report = validate_comodule_algebra(ma) if ma is not None else validate_comodule(m)
    else:
        f = load_map(args.path)
        report = ValidationReport(
            subject=os.path.basename(args.path),
            checks=(CheckResult("is_comodule_map", f.is_comodule_map()),),
        )
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def cmd_grouplikes(args) -> int:
    c = load_coalgebra(args.path)
    g = _grouplikes_for(c, args.search, args.bound)
    _emit({"count": len(g), "vectors": [list(v) for v in g]})
    return 0


def cmd_filtration(args) -> int:
    kind = _detect_kind(args.path)
    if kind == "coalgebra":
        c = load_coalgebra(args.path)
        filt = _sigma_filtration(c, args.algo, args.max_level, args.search)
    elif kind == "comodule":
        m, _ = load_comodule(args.path)
        sigma_filt = _sigma_filtration(m.over, args.algo, args.max_level, args.search)
        filt = comodule_filtration(m, sigma_filt)
    else:
        raise ParseError(f"{args.path}: filtration expects a coalgebra or comodule file")
    _emit(
        {
            "algo": args.algo,
            "levels": list(filt.dims()),
            "exhaustive": filt.exhaustive,
            "stabilized": filt.stabilized,
            "bases": [_basis_lists(lvl) for lvl in filt.levels],
        }
    )
    return 0


def cmd_primitives(args) -> int:
    kind = _detect_kind(args.path)
    if kind == "coalgebra":
        c = load_coalgebra(args.path)
        g = _grouplikes_for(c, args.search, None)
        if args.at is not None:
            space = primitives_at(c, _grouplike_at(g, args.at))
            _emit({"at": args.at, "dim": space.dim, "basis": _basis_lists(space)})
            return 0
        report = f1_decomposition(c, g)
        _emit(report.to_json_dict())
        return 0 if report.ok else 1
    if kind != "comodule":
        raise ParseError(f"{args.path}: primitives expects a coalgebra or comodule file")
    m, _ = load_comodule(args.path)
    g = _grouplikes_for(m.over, args.search, None)
    if args.at is not None:
        space = comodule_primitives_at(m, _grouplike_at(g, args.at))
        _emit({"at": args.at, "dim": space.dim, "basis": _basis_lists(space)})
        return 0
    total, report = comodule_primitives_total(m, g)
    _emit({"report": report.to_json_dict(), "basis": _basis_lists(total)})
    return 0 if report.ok else 1


def cmd_cotensor(args) -> int:
    m, _ = load_comodule(args.path)
    sigma = m.over
    spec = args.with_
    if spec == "sigma":
        n = LeftComodule.regular(sigma)
    elif spec == "coradical":
        g = _grouplikes_for(sigma, args.search, None)
        n = LeftComodule.coradical(sigma, g)
    elif spec.startswith("g:") and spec[2:].isdecimal():
        g = _grouplikes_for(sigma, args.search, None)
        n = LeftComodule.grouplike_line(sigma, _grouplike_at(g, int(spec[2:])))
    else:
        raise ParseError(f"--with must be sigma, coradical, or g:IDX (got {spec!r})")
    space = cotensor(m, n)
    _emit(
        {
            "with": spec,
            "dim": space.dim,
            "ambient_dim": space.ambient_dim,
            "basis": _basis_lists(space),
        }
    )
    return 0


def cmd_star(args) -> int:
    ma = _load_enriched(args.comodule)
    f = load_map(args.map)
    report = check_star_surjective(ma, f, strict=args.strict)
    _emit(report.to_json_dict())
    return 0 if report.ok else 4


def cmd_split(args) -> int:
    ma = _load_enriched(args.comodule)
    f = load_map(args.map)
    cert = build_h(ma, f, strict=args.strict, force=args.force)
    payload = json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    _emit(
        {
            "certified": cert.certified,
            "hypothesis_ok": cert.star_report.ok,
            "rank": cert.rank,
            "dim_m": ma.base.dim,
            "p1_dim": cert.p1_basis.dim,
            "out": args.out,
        }
    )
    # exit 0 exactly when cmd_certify would accept the file we just wrote
    return 0 if cert.certified and cert.star_report.ok else 1


def cmd_certify(args) -> int:
    cert = load_certificate(args.cert)
    ma = _load_enriched(args.comodule)
    f = load_map(args.map)
    report = recheck_certificate(cert, ma, f)
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def cmd_corpus(args) -> int:
    if not os.path.isdir(args.dir):
        raise ParseError(f"{args.dir}: no such directory")
    manifests = sorted(glob.glob(os.path.join(args.dir, "*.bundle.json")))
    if not manifests:
        print(f"warning: no *.bundle.json files under {args.dir}", file=sys.stderr)
        return 0
    pairs = [load_bundle(path) for path in manifests]
    report = verify_theorem_on_corpus(pairs)
    for item in report.items:
        status = "PASS" if item.ok else "FAIL"
        detail = f" ({item.detail})" if item.detail else ""
        print(f"{status} {item.name}: {item.outcome}, expected {item.expected}{detail}")
    return 0 if report.ok else 1


def cmd_generate(args) -> int:
    # Build before making the directory, so a refused request leaves none.
    if args.kind == "group-algebra":
        bundles = [gen_group_algebra(args.p, args.n)]
    elif args.kind == "binomial":
        bundles = [gen_binomial_truncation(args.p, args.d)]
    elif args.kind == "sigma":
        bundles = [bundle_sigma_regular(args.level)]
    elif args.kind == "extended":
        bundles = [bundle_extended(args.level, args.a_dim)]
    elif args.kind == "control":
        bundles = [bundle_negative_control()]
    elif args.kind == "corpus":
        bundles = shipped_corpus()
    elif args.kind == "random":
        bundles = [gen_random_pointed(args.seed)]
    else:
        bundles = [gen_non_pointed()]
    os.makedirs(args.out, exist_ok=True)
    written: list[str] = []
    for bundle in bundles:
        if args.kind in ("random", "non-pointed"):
            name = f"{bundle.name}.json"
            write_coalgebra(bundle.coalgebra, os.path.join(args.out, name))
            written.append(name)
        else:
            written += write_bundle(bundle, args.out)
    _emit({"out": args.out, "written": sorted(written)})
    return 0


# -- parser ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comodule-splitter",
        description="Validate, filter, and split comodules over pointed coalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the validator matching the file kind")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("grouplikes", help="list the grouplikes of a coalgebra")
    p.add_argument("path")
    p.add_argument("--search", action="store_true", help="brute-force even when declared")
    p.add_argument("--bound", type=int, default=None, help="search-space bound override")
    p.set_defaults(func=cmd_grouplikes)

    p = sub.add_parser("filtration", help="socle filtration of a coalgebra or comodule")
    p.add_argument("path")
    p.add_argument("--algo", choices=("direct", "wedge"), default="wedge")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--search", action="store_true")
    p.set_defaults(func=cmd_filtration)

    p = sub.add_parser("primitives", help="primitive elements at a grouplike, or all")
    p.add_argument("path")
    p.add_argument("--at", type=int, default=None, help="grouplike index")
    p.add_argument("--search", action="store_true")
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("cotensor", help="cotensor a comodule with a built-in left factor")
    p.add_argument("path")
    p.add_argument("--with", dest="with_", required=True, metavar="FACTOR",
                   help="sigma, coradical, or g:IDX")
    p.add_argument("--search", action="store_true")
    p.set_defaults(func=cmd_cotensor)

    p = sub.add_parser("star", help="check the graded surjectivity hypothesis")
    p.add_argument("comodule")
    p.add_argument("map")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("split", help="build and certify the splitting isomorphism")
    p.add_argument("comodule")
    p.add_argument("map")
    p.add_argument("--out", required=True, help="certificate file to write")
    p.add_argument("--force", action="store_true", help="build even when the hypothesis fails")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("certify", help="re-verify a certificate from scratch")
    p.add_argument("cert")
    p.add_argument("comodule")
    p.add_argument("map")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("corpus", help="run every bundle in a directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("generate", help="write example definition files")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("group-algebra")
    g.add_argument("--p", type=int, default=2)
    g.add_argument("--n", type=int, default=4)
    g = gen.add_parser("binomial")
    g.add_argument("--p", type=int, default=2)
    g.add_argument("--d", type=int, default=4)
    g = gen.add_parser("sigma")
    g.add_argument("--level", type=int, required=True)
    g = gen.add_parser("extended")
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--a-dim", type=int, default=2)
    gen.add_parser("control")
    gen.add_parser("corpus")
    g = gen.add_parser("random")
    g.add_argument("--seed", type=int, default=0)
    gen.add_parser("non-pointed")
    for g in gen.choices.values():
        g.add_argument("--out", default=".")
        g.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _one_load_per_file():
            return args.func(args)
    except (ParseError, UnsupportedLevel) as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 2)
    except CapExceeded as exc:
        code = _fail(exc, 3)
        print("hint: retry with --algo wedge, which never builds tensor powers", file=sys.stderr)
        return code
    except SearchSpaceTooLarge as exc:
        return _fail(exc, 3)
    except HypothesisNotMet as exc:
        _emit(exc.star_report.to_json_dict())
        return _fail(exc, 4)
    except SplitterError as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
