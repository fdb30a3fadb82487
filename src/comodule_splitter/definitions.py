"""Definition documents: the JSON formats the CLI reads and writes.

Three document kinds, all integer-exact:

* coalgebra: {"p", "basis", "delta": {label: [[label, label, coeff]]},
  "counit": {label: value}, "grouplikes": [[...]] (optional)}
* comodule: {"over": path, "basis", "psi": {label: [[label, sigma_label,
  coeff]]}, and optionally all three of "unit", "augmentation",
  "action": {"0": [[...]], ...}} -- the enriched form is what the splitting
  commands need
* map: {"source": path, "target": path, "matrix": [[...]]}

Certificates written by ``split`` are read back here too, with the same
typed checks.  JSON booleans are never accepted where an integer is due,
even though Python counts bool as a subclass of int.

Paths inside documents resolve relative to the document that mentions them.
Loaders raise ParseError for anything structurally wrong; mathematical
problems (a declared grouplike that is not one, say) surface later through
the validators, not here.  Writers emit every label explicitly and the one
file writer sorts object keys, so a write/load round trip reproduces the
in-memory object exactly, minus the one field files do not carry (the
sigma-side action matrices lambda_g).

Each file is read once per command.  While the CLI runs one command,
load_coalgebra and load_comodule return the object read the first time for
a path they have already loaded: a map whose source is the command's
comodule file gets that very comodule, and Sigma is parsed once however
many documents name it.  The CLI's check of a file's kind hands its
decoded document to the loader that follows, so that check costs no second
read.  The memo ends with the command, so the next one
reads the files afresh; called outside the CLI, the loaders read the file
on every call.
"""

from __future__ import annotations

import functools
import json
import os
import reprlib
import typing
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields

from .coalgebra import Coalgebra, find_grouplikes
from .comodule import Comodule, ComoduleAlgebra, ComoduleMap
from .errors import ParseError
from .field_linalg import FieldMatrix, Subspace, _is_prime
from .generators import ExampleBundle
from .reporting import StarReport
from .splitting import SplittingCertificate


def _load_json(path: str) -> dict:
    """The JSON object in the file at path.  Inside _one_load_per_file, a
    document that _peek_json decoded is handed over once instead of read
    again, so no decoded document outlives the loader that consumed it."""
    memo = _loaded.get()
    if memo is not None and (doc := memo.pop(("peeked", os.path.abspath(path)), None)) is not None:
        return doc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and int
        # literals over Python's digit limit; RecursionError, deep nesting.
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _peek_json(path: str) -> dict:
    """_load_json, leaving the document for the next _load_json of the same
    file in this command: the CLI's check of a file's kind and the loader
    that follows share one read."""
    doc = _load_json(path)
    memo = _loaded.get()
    if memo is not None:
        memo[("peeked", os.path.abspath(path))] = doc
    return doc


# Definitions loaded by the running command, keyed by loader and absolute
# path, and documents peeked at but not yet loaded, keyed by "peeked" and
# absolute path; None outside _one_load_per_file, where nothing is memoized.
_loaded: ContextVar[dict | None] = ContextVar("loaded_definitions", default=None)


@contextmanager
def _one_load_per_file():
    """Memoize the loaders for the duration of the block (one CLI command)."""
    token = _loaded.set({})
    try:
        yield
    finally:
        _loaded.reset(token)


def _once_per_command(load):
    """Inside _one_load_per_file, return what ``load`` gave for the same file
    before.  A load that raises stores nothing, so the error repeats."""

    @functools.wraps(load)
    def memo_load(path: str):
        memo = _loaded.get()
        if memo is None:
            return load(path)
        key = (load, os.path.abspath(path))
        if key not in memo:
            memo[key] = load(path)
        return memo[key]

    return memo_load


def _dump_json(doc: dict, path: str) -> None:
    """Write doc as json.dump(doc, fh, sort_keys=True, indent=1) and a
    newline would, byte for byte, but with each int and str of an array
    written from its exact type, and no encoder built per value."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, doc, 0, "", {})
        fh.write("\n")


def _write_json(fh, obj, depth: int, head: str, quoted: dict) -> None:
    """Write head, then obj as json.dump(obj, fh, sort_keys=True, indent=1)
    writes it at depth; a FieldMatrix is written as the list of its rows,
    each row's text built from the packed row by FieldMatrix.row_texts.
    An item of an array that is exactly an int is written by int.__repr__,
    one that is exactly a str by its JSON text, kept in quoted for the rest
    of the write, and any other item as a value of its own; any other
    scalar (a float, bool, None or a subclass) goes through json.dumps."""
    inner, end = "\n" + " " * (depth + 1), "\n" + " " * depth
    if not isinstance(obj, (dict, list, tuple)):
        if isinstance(obj, FieldMatrix):
            _write_matrix(fh, obj, depth, head)
        else:
            fh.write(head + json.dumps(obj))
    elif not obj:
        fh.write(head + ("{}" if isinstance(obj, dict) else "[]"))
    elif isinstance(obj, dict):
        sep = head + "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):  # json.dumps would leave it unquoted
                raise TypeError(f"definition keys must be str, not {type(key).__name__}")
            _write_json(fh, obj[key], depth + 1, sep + json.dumps(key) + ": ", quoted)
            sep = "," + inner
        fh.write(end + "}")
    else:
        sep = head + "[" + inner
        for item in obj:
            kind = type(item)
            if kind is int:
                fh.write(sep + int.__repr__(item))
            elif kind is str:
                fh.write(sep + (quoted.get(item) or quoted.setdefault(item, json.dumps(item))))
            else:
                _write_json(fh, item, depth + 1, sep, quoted)
            sep = "," + inner
        fh.write(end + "]")


def _write_matrix(fh, a: FieldMatrix, depth: int, head: str) -> None:
    """Write head, then the rows of a as _write_json writes them as lists at
    depth, one write per row."""
    if not a.nrows:
        fh.write(head + "[]")
        return
    inner, end = "\n" + " " * (depth + 1), "\n" + " " * depth
    entry = "\n" + " " * (depth + 2)
    sep = head + "[" + inner
    for text in a.row_texts("," + entry):
        fh.write(sep + ("[" + entry + text + inner + "]" if a.ncols else "[]"))
        sep = "," + inner
    fh.write(end + "]")


# Values quoted in parse errors are abbreviated to _QUOTE_MAX characters, so
# that a huge or deeply nested value gives a short message.  reprlib cuts
# nothing of a value whose repr fits that length: a level adds two
# characters, an item of a list at least three.  The limits are set as
# attributes because reprlib.Repr takes no arguments before Python 3.12.
_QUOTE_MAX = 200
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = _QUOTE_MAX // 2
_QUOTE.maxlist = _QUOTE.maxdict = _QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = _QUOTE_MAX


def _quoted(value) -> str:
    """repr(value) when it fits _QUOTE_MAX characters, and otherwise its
    abbreviation by _QUOTE, cut to that length."""
    text = _QUOTE.repr(value)
    if len(text) > _QUOTE_MAX:
        return text[: _QUOTE_MAX - 3] + "..."
    return text if "..." in text else repr(value)  # repr keeps a dict's key order


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ParseError(f"{path}: missing required key {_quoted(key)}")
    return doc[key]


def _is_int(x) -> bool:
    # JSON yields no int subclass but bool, so this refuses exactly the bools.
    return type(x) is int


def _typed(doc: dict, key: str, kind: type, path: str):
    """doc[key], which must be present and of the given JSON kind."""
    val = _require(doc, key, path)
    if type(val) is not kind:
        raise ParseError(f"{path}: {_quoted(key)} must be of type {kind.__name__}")
    return val


def _prime(p, path: str) -> int:
    """p, when it is a prime integer; ParseError naming path otherwise."""
    try:
        if _is_int(p) and _is_prime(p):
            return p
    except ParseError as exc:  # too large to decide
        raise ParseError(f"{path}: {exc}") from None
    raise ParseError(f"{path}: p must be a prime integer")


def _label_index(labels: list[str], path: str) -> dict[str, int]:
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError(f"{path}: basis must be a list of strings")
    if len(set(labels)) != len(labels):
        raise ParseError(f"{path}: basis labels must be unique")
    return {lab: i for i, lab in enumerate(labels)}


def _triples_from(entries, index_a: dict, index_b: dict, path: str, what: str):
    triples = []
    if not isinstance(entries, list):
        raise ParseError(f"{path}: {what} entries must be lists")
    for entry in entries:
        if not (isinstance(entry, list) and tuple(map(type, entry)) == (str, str, int)):
            raise ParseError(f"{path}: bad {what} entry {_quoted(entry)}")
        a, b, coeff = entry
        if a not in index_a or b not in index_b:
            raise ParseError(f"{path}: {what} references unknown label in {_quoted(entry)}")
        triples.append((index_a[a], index_b[b], coeff))
    return tuple(triples)


def _int_vector(raw, dim: int, path: str, what: str) -> tuple[int, ...]:
    if not (isinstance(raw, list) and len(raw) == dim and {int}.issuperset(map(type, raw))):
        raise ParseError(f"{path}: {what} must be a list of {dim} integers")
    return tuple(raw)


def _int_matrix(raw, p: int, nrows: int, ncols: int, path: str, what: str) -> FieldMatrix:
    if not (isinstance(raw, list) and len(raw) == nrows):
        raise ParseError(f"{path}: {what} must have {nrows} rows")
    for row in raw:
        if not (isinstance(row, list) and len(row) == ncols and {int}.issuperset(map(type, row))):
            raise ParseError(f"{path}: {what} rows must be lists of {ncols} integers")
    return FieldMatrix(p, raw, ncols=ncols)


@_once_per_command
def load_coalgebra(path: str) -> Coalgebra:
    doc = _load_json(path)
    p = _prime(_require(doc, "p", path), path)
    labels = _require(doc, "basis", path)
    index = _label_index(labels, path)
    dim = len(labels)
    delta_doc = _require(doc, "delta", path)
    if not isinstance(delta_doc, dict):
        raise ParseError(f"{path}: delta must be an object keyed by basis label")
    for key in delta_doc:
        if key not in index:
            raise ParseError(f"{path}: delta keyed by unknown label {_quoted(key)}")
    delta = tuple(
        _triples_from(delta_doc.get(lab, []), index, index, path, "delta") for lab in labels
    )
    counit_doc = _require(doc, "counit", path)
    if not isinstance(counit_doc, dict):
        raise ParseError(f"{path}: counit must be an object keyed by basis label")
    for key, val in counit_doc.items():
        if key not in index or not _is_int(val):
            raise ParseError(f"{path}: bad counit entry {_quoted(key)}")
    counit = tuple(counit_doc.get(lab, 0) for lab in labels)
    grouplikes = None
    if "grouplikes" in doc:
        raw = doc["grouplikes"]
        if not isinstance(raw, list):
            raise ParseError(f"{path}: grouplikes must be a list of vectors")
        grouplikes = tuple(_int_vector(v, dim, path, "grouplike") for v in raw)
    return Coalgebra(p, dim, tuple(labels), delta, counit, grouplikes)


def coalgebra_to_doc(c: Coalgebra) -> dict:
    doc = {
        "p": c.p,
        "basis": list(c.labels),
        "delta": {
            c.labels[i]: [[c.labels[j], c.labels[k], coeff] for j, k, coeff in c.delta[i]]
            for i in range(c.dim)
        },
        "counit": {c.labels[i]: c.counit[i] for i in range(c.dim)},
    }
    if c.declared_grouplikes is not None:
        doc["grouplikes"] = [list(g) for g in c.declared_grouplikes]
    return doc


def _resolve(base_path: str, ref) -> str:
    if not isinstance(ref, str):
        raise ParseError(f"{base_path}: file references must be strings, got {_quoted(ref)}")
    return os.path.join(os.path.dirname(os.path.abspath(base_path)), ref)


@_once_per_command
def load_comodule(path: str) -> tuple[Comodule, ComoduleAlgebra | None]:
    """Load a comodule document; the second component is the enriched
    comodule algebra when the document carries unit, augmentation, and
    action, and None when it carries none of them."""
    doc = _load_json(path)
    over = load_coalgebra(_resolve(path, _require(doc, "over", path)))
    labels = _require(doc, "basis", path)
    index = _label_index(labels, path)
    sigma_index = {lab: i for i, lab in enumerate(over.labels)}
    dim = len(labels)
    psi_doc = _require(doc, "psi", path)
    if not isinstance(psi_doc, dict):
        raise ParseError(f"{path}: psi must be an object keyed by basis label")
    for key in psi_doc:
        if key not in index:
            raise ParseError(f"{path}: psi keyed by unknown label {_quoted(key)}")
    psi = tuple(
        _triples_from(psi_doc.get(lab, []), index, sigma_index, path, "psi") for lab in labels
    )
    base = Comodule(over, dim, tuple(labels), psi)

    enrich_keys = [k for k in ("unit", "augmentation", "action") if k in doc]
    if not enrich_keys:
        return base, None
    if len(enrich_keys) != 3:
        raise ParseError(
            f"{path}: unit, augmentation, and action must be given together"
            f" (found only {enrich_keys})"
        )
    if over.declared_grouplikes is None:
        raise ParseError(f"{path}: the over-coalgebra must declare its grouplikes")
    grouplikes = find_grouplikes(over, "declared")
    unit = _int_vector(doc["unit"], dim, path, "unit")
    augmentation = _int_vector(doc["augmentation"], dim, path, "augmentation")
    action_doc = doc["action"]
    if not isinstance(action_doc, dict):
        raise ParseError(f"{path}: action must be an object keyed by grouplike index")
    if set(action_doc) != {str(i) for i in range(len(grouplikes))}:
        raise ParseError(
            f"{path}: action must have one matrix per grouplike (0..{len(grouplikes) - 1})"
        )
    action = tuple(
        _int_matrix(action_doc[str(i)], over.p, dim, dim, path, f"action[{i}]")
        for i in range(len(grouplikes))
    )
    ma = ComoduleAlgebra(base, grouplikes, action, unit, augmentation)
    return base, ma


def comodule_to_doc(m: Comodule, ma: ComoduleAlgebra | None, over_ref: str) -> dict:
    doc = {
        "over": over_ref,
        "basis": list(m.labels),
        "psi": {
            m.labels[i]: [[m.labels[a], m.over.labels[k], coeff] for a, k, coeff in m.psi[i]]
            for i in range(m.dim)
        },
    }
    if ma is not None:
        doc["unit"] = list(ma.unit)
        doc["augmentation"] = list(ma.augmentation)
        doc["action"] = {str(i): ma.action[i] for i in range(len(ma.grouplikes))}
    return doc


def load_map(path: str) -> ComoduleMap:
    doc = _load_json(path)
    source, _ = load_comodule(_resolve(path, _require(doc, "source", path)))
    target, _ = load_comodule(_resolve(path, _require(doc, "target", path)))
    matrix = _int_matrix(
        _require(doc, "matrix", path), source.p, target.dim, source.dim, path, "matrix"
    )
    return ComoduleMap(source, target, matrix)


def map_to_doc(f: ComoduleMap, source_ref: str, target_ref: str) -> dict:
    return {"source": source_ref, "target": target_ref, "matrix": f.matrix}


def _report_from(cls, doc: dict, path: str):
    """The report dataclass cls read back from the object report_json wrote:
    each field of the JSON kind its declaration names.  An optional field
    may be null or absent; a tuple of reports is a list of objects."""
    values = {}
    for f in fields(cls):
        kind, args = f.type, typing.get_args(f.type)
        if typing.get_origin(kind) is tuple:
            entries = _typed(doc, f.name, list, path)
            if not all(isinstance(e, dict) for e in entries):
                raise ParseError(f"{path}: star_report {f.name} must be objects")
            values[f.name] = tuple(_report_from(args[0], e, path) for e in entries)
        elif type(None) in args:
            values[f.name] = None if doc.get(f.name) is None else _typed(doc, f.name, args[0], path)
        else:
            values[f.name] = _typed(doc, f.name, kind, path)
    return cls(**values)


def load_certificate(path: str) -> SplittingCertificate:
    """Read a certificate file.  Only its form is checked here, including
    that the redundant fields (p1_dim, the star report's ok) agree with the
    rest of the file; whether its claims hold is for recheck_certificate to
    decide."""
    doc = _load_json(path)
    p = _prime(_typed(doc, "p", int, path), path)
    dim_m = _typed(doc, "dim_m", int, path)
    ambient = _typed(doc, "p1_ambient_dim", int, path)
    rows = _typed(doc, "h", list, path)
    basis = [_int_vector(v, ambient, path, "p1_basis vector") for v in _typed(doc, "p1_basis", list, path)]
    p1_basis = Subspace.from_vectors(p, ambient, basis)
    if not len(basis) == p1_basis.dim == _typed(doc, "p1_dim", int, path):
        raise ParseError(f"{path}: p1_dim does not match the stored p1_basis")
    star = _typed(doc, "star_report", dict, path)
    star_report = _report_from(StarReport, star, path)
    if _typed(star, "ok", bool, path) != star_report.ok:
        raise ParseError(f"{path}: star_report ok contradicts the report's own fields")
    return SplittingCertificate(
        h_matrix=_int_matrix(rows, p, len(rows), dim_m, path, "h"),
        p1_basis=p1_basis,
        rank=_typed(doc, "rank", int, path),
        comodule_residual_zero=_typed(doc, "comodule_residual_zero", bool, path),
        star_report=star_report,
    )


# -- bundles ---------------------------------------------------------------------------


def write_coalgebra(c: Coalgebra, path: str) -> None:
    _dump_json(coalgebra_to_doc(c), path)


def write_bundle(bundle: ExampleBundle, dirpath: str) -> list[str]:
    """Write a splitting bundle as definition files plus a manifest.

    Layout: <name>.sigma.json, <name>.comodule.json (enriched),
    <name>.target.json (the over-coalgebra as a plain comodule),
    <name>.map.json, and <name>.bundle.json tying them together.
    """
    if bundle.comodule_algebra is None or bundle.splitting_map is None:
        raise ParseError(f"bundle {bundle.name} has no comodule algebra and map to write")
    os.makedirs(dirpath, exist_ok=True)
    name = bundle.name
    sigma_file = f"{name}.sigma.json"
    comodule_file = f"{name}.comodule.json"
    target_file = f"{name}.target.json"
    map_file = f"{name}.map.json"
    manifest_file = f"{name}.bundle.json"

    ma = bundle.comodule_algebra
    f = bundle.splitting_map
    write_coalgebra(bundle.coalgebra, os.path.join(dirpath, sigma_file))
    _dump_json(
        comodule_to_doc(ma.base, ma, sigma_file), os.path.join(dirpath, comodule_file)
    )
    _dump_json(
        comodule_to_doc(f.target, None, sigma_file), os.path.join(dirpath, target_file)
    )
    _dump_json(
        map_to_doc(f, comodule_file, target_file), os.path.join(dirpath, map_file)
    )
    manifest = {
        "name": name,
        "comodule": comodule_file,
        "map": map_file,
        "expected": bundle.expected_outcome,
    }
    _dump_json(manifest, os.path.join(dirpath, manifest_file))
    return [sigma_file, comodule_file, target_file, map_file, manifest_file]


def load_bundle(manifest_path: str) -> tuple[str, ComoduleAlgebra, ComoduleMap, str]:
    doc = _load_json(manifest_path)
    name = _require(doc, "name", manifest_path)
    expected = _require(doc, "expected", manifest_path)
    _, ma = load_comodule(_resolve(manifest_path, _require(doc, "comodule", manifest_path)))
    if ma is None:
        raise ParseError(f"{manifest_path}: bundle comodule must be enriched")
    f = load_map(_resolve(manifest_path, _require(doc, "map", manifest_path)))
    if not isinstance(name, str) or not isinstance(expected, str):
        raise ParseError(f"{manifest_path}: name and expected must be strings")
    return name, ma, f, expected
