"""Structural fuzzer: edited definition files and certificates through ``main``.

The inputs are the corpus definition files, a ``binomial_3_9`` bundle and
their certificates.  Each run, seeded from ``--seed``, takes one file, makes
1-3 edits to it and runs one command on the bundle it belongs to.  An edit
deletes a key or list entry, puts None, a bool, a float, a huge int or a
string in its place, or sets ``p`` to a large prime or a pseudoprime.  One
run in four also edits the JSON text: it truncates it, puts a byte that is
not UTF-8 in it, nests it in arrays deeper than the parser's recursion
limit, or lengthens a digit run past Python's int/str digit limit.
Whatever the edits, every exit code must lie in the contract's
{0, ..., 4}, no run may raise, and nothing may print a traceback.
"""

import json
import random
import shutil
import time

import pytest

from comodule_splitter.cli import main
from comodule_splitter.definitions import write_bundle
from comodule_splitter.generators import gen_binomial_truncation

BUDGET_S = 2.0
MAX_RUNS = 400
KINDS = ("sigma", "comodule", "target", "map", "bundle", "cert")
# 2^61 - 1 and 2^31 - 1 are prime; 561 is a Carmichael number, 3215031751 a
# strong pseudoprime to the bases 2, 3, 5 and 7, and 2^89 - 1 lies above the
# bound below which primality is decided.
P_VALUES = (2**61 - 1, 2**31 - 1, 561, 3215031751, 2**89 - 1)
FILLERS = (None, True, False, 0.5, 10**30, -(10**30), "x", "1")


def _slots(node):
    """Every (container, key) pair below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _edit(rng, doc):
    """One in-place edit of doc; returns its description."""
    if rng.random() < 0.15:
        doc["p"] = rng.choice(P_VALUES)
        return f"p={doc['p']}"
    # Half the edits hit a top-level key; the many nested entries (triples,
    # matrix rows) would otherwise take nearly all of them.
    slots = [(doc, key) for key in doc] if rng.random() < 0.5 else list(_slots(doc))
    if not slots:
        return "none"
    node, key = rng.choice(slots)
    if rng.random() < 0.3:
        del node[key]
        return f"del {key!r}"
    node[key] = rng.choice(FILLERS)
    return f"{key!r}={node[key]!r}"


def _edit_text(rng, text: bytes):
    """One edit of the encoded JSON text; returns the text and its description."""
    kind = rng.choices(("truncate", "byte", "nest", "digits"), weights=(2, 1, 1, 1))[0]
    at = rng.randrange(len(text))
    if kind == "truncate":
        return text[:at], f"truncated at {at}"
    if kind == "byte":
        return text[:at] + b"\xff" + text[at:], f"byte 0xff at {at}"
    if kind == "nest":
        depth = 100_000
        return b"[" * depth + text + b"]" * depth, f"nested {depth} deep"
    digits = [i for i, byte in enumerate(text) if byte in b"0123456789"]
    at = rng.choice(digits) if digits else at
    return text[:at] + b"7" * 5000 + text[at:], f"5000 digits at {at}"


def _command(rng, work, name, kind):
    base = str(work / name)
    comodule, fmap, cert = f"{base}.comodule.json", f"{base}.map.json", f"{base}.cert.json"
    path = f"{base}.{kind}.json"
    return rng.choice((
        ["validate", path],
        ["filtration", path],
        ["primitives", path],
        ["star", comodule, fmap],
        ["split", comodule, fmap, "--out", str(work / "out.cert.json")],
        ["certify", cert, comodule, fmap],
        ["corpus", "--dir", str(work)],
    ))


def test_edited_inputs_keep_the_exit_code_contract(tmp_path, capsys, corpus, corpus_dir, base_seed):
    rng = random.Random(base_seed + 307)
    work = tmp_path / "work"
    shutil.copytree(corpus_dir, work)
    bundles = list(corpus) + [gen_binomial_truncation(3, 9)]
    write_bundle(bundles[-1], str(work))
    kinds = {}
    for b in bundles:
        base = str(work / b.name)
        kinds[b.name] = KINDS[:-1]
        if b.expected_outcome == "certified":
            assert main(["split", f"{base}.comodule.json", f"{base}.map.json", "--out", f"{base}.cert.json"]) == 0
            kinds[b.name] = KINDS
    capsys.readouterr()

    runs, codes = 0, set()
    deadline = time.perf_counter() + BUDGET_S
    while runs < MAX_RUNS and time.perf_counter() < deadline:
        name = rng.choice(sorted(kinds))
        kind = rng.choice(kinds[name])
        target = work / f"{name}.{kind}.json"
        original = target.read_bytes()
        doc = json.loads(original)
        edits = [_edit(rng, doc) for _ in range(rng.randint(1, 3))]
        text = json.dumps(doc).encode()
        if rng.random() < 0.25:
            text, edit = _edit_text(rng, text)
            edits.append(edit)
        target.write_bytes(text)
        argv = _command(rng, work, name, kind)
        case = (target.name, edits, argv)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{case} raised {exc!r}")
        finally:
            target.write_bytes(original)
        out, err = capsys.readouterr()
        assert code in range(5), case
        assert "Traceback" not in out + err, case
        runs, codes = runs + 1, codes | {code}
    assert runs >= 50 and {0, 1, 2} <= codes, (runs, codes)
