"""Definition-file bytes: the streaming writer against ``json.dump``.

Every definition file is written by ``definitions._dump_json``.  Its output
must be byte for byte what ``json.dump(doc, fh, sort_keys=True, indent=1)``
and a newline give, with each ``FieldMatrix`` in the document written as its
rows, so the oracle here is ``json.dumps`` with those options and
``FieldMatrix.rows_as_lists`` as the default.  The corpus files are also
pinned by one digest, so that a change of bytes shows even where the oracle
would change with the writer.
"""

import hashlib
import json
import os
import random

import pytest

from comodule_splitter import definitions
from comodule_splitter.definitions import write_bundle
from comodule_splitter.field_linalg import FieldMatrix
from comodule_splitter.generators import bundle_extended, gen_binomial_truncation

# sha256 of the corpus files written by write_bundle, joined in C-locale name
# order; `generate corpus` writes the same 45 files.
CORPUS_SHA256 = "faacb6542b07c402a9841c660939a0e46adc4dd1bc0f45c50fbfa211599cc794"


class _Count(int):
    """An int subclass; json.dump writes it as a plain int."""


class _Rows(list):
    """A list subclass; json.dump indents it like a list."""


# Quotes, backslashes, control characters, non-ASCII and an astral character.
_CHARS = 'ab1 "\\/\n\t\x00\x1f\x7fé€\U0001f600'
_INTS = (0, -1, -(10**6), 2**64, 2**64 + 1, -(2**70), 3**100, _Count(7))
_PRIMES = (2, 3, 2**61 - 1)
# json.dump writes nan and the infinities as NaN, Infinity and -Infinity.
_FLOATS = (0.5, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan"))


def _oracle(doc) -> bytes:
    text = json.dumps(doc, sort_keys=True, indent=1, default=FieldMatrix.rows_as_lists)
    return (text + "\n").encode("utf-8")


def _written(doc, path) -> bytes:
    definitions._dump_json(doc, str(path))
    return path.read_bytes()


def _text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 5)))


def _key(rng):
    # Digit strings sort as strings: "10" before "2".
    return _text(rng) if rng.random() < 0.5 else str(rng.randint(0, 20))


def _scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return rng.choice(_INTS)
    if kind == 3:
        return rng.choice(_FLOATS)
    return rng.randint(-50, 50)


def _matrix(rng):
    """A random FieldMatrix over F_2, F_3 or F_(2^61 - 1), with no rows, no
    columns or one column among its shapes, and entries up to p - 1; an F_2
    matrix sometimes carries packed bits past its last column, which
    the unpacking ignores."""
    p = rng.choice(_PRIMES)
    nrows, ncols = rng.choice((0, 1, 3)), rng.choice((0, 1, 5))
    entry = lambda: rng.choice((0, 1, p - 1, rng.randrange(p)))
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    a = FieldMatrix(p, rows, ncols=ncols)
    if p == 2 and rng.random() < 0.3:
        return FieldMatrix._raw(2, nrows, ncols, tuple(r | (6 << ncols) for r in a._rows))
    return a


def _value(rng, depth):
    """A random JSON value or FieldMatrix; dicts, lists, tuples and a list
    subclass (empty ones too) at every depth up to 4, and flat arrays long
    enough to span many lines."""
    if depth >= 4 or rng.random() < 0.3:
        return _matrix(rng) if rng.random() < 0.1 else _scalar(rng)
    kind = rng.choice((dict, list, tuple, _Rows))
    if kind is not dict and rng.random() < 0.1:
        return kind(_scalar(rng) for _ in range(40))
    n = rng.choice((0, 0, 1, 2, 3, 5))
    if kind is dict:
        return {_key(rng): _value(rng, depth + 1) for _ in range(n)}
    return kind(_value(rng, depth + 1) for _ in range(n))


def test_the_writer_matches_json_dump_on_random_documents(tmp_path, base_seed):
    rng = random.Random(base_seed + 16)
    path = tmp_path / "doc.json"
    for case in range(300):
        doc = {_key(rng): _value(rng, 1) for _ in range(rng.randint(0, 6))}
        assert _written(doc, path) == _oracle(doc), (case, doc)
    nested = {"a": ((), [[]], ({},), {"b": ((1, (2,)), [])}), "10": [], "2": {}}
    assert _written(nested, path) == _oracle(nested)
    scalars = {"float": 1e300, "flat": [*_FLOATS, True, False, None, 1, "1"], "nan": float("nan")}
    assert _written(scalars, path) == _oracle(scalars)


def test_the_writer_refuses_non_str_keys(tmp_path):
    for key in (1, None, True, 1.5):
        with pytest.raises(TypeError):
            definitions._dump_json({"a": [{key: 0}]}, str(tmp_path / "doc.json"))


def test_the_writer_matches_json_dump_on_every_bundle_file(tmp_path, monkeypatch, corpus):
    dumped = []
    dump = definitions._dump_json

    def recording_dump(doc, path):
        dumped.append((doc, path))
        dump(doc, path)

    monkeypatch.setattr(definitions, "_dump_json", recording_dump)
    for bundle in list(corpus) + [gen_binomial_truncation(3, 48), bundle_extended(2, 8)]:
        write_bundle(bundle, str(tmp_path))
    assert len(dumped) == 5 * (len(corpus) + 2)
    for doc, path in dumped:
        with open(path, "rb") as fh:
            assert fh.read() == _oracle(doc), path


def test_corpus_files_keep_their_bytes(tmp_path, corpus):
    for bundle in corpus:
        write_bundle(bundle, str(tmp_path))
    names = sorted(os.listdir(tmp_path), key=os.fsencode)
    assert len(names) == 45
    digest = hashlib.sha256(b"".join((tmp_path / name).read_bytes() for name in names))
    assert digest.hexdigest() == CORPUS_SHA256
