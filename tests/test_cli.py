"""End-to-end tests of the command line interface, run in process through
``main(argv)``.

The exit-code contract under test:

* 0 success
* 1 mathematical failure
* 2 parse or usage error
* 3 resource cap hit
* 4 splitting hypothesis not met
"""

import hashlib
import io
import json
import os
import shutil
import sys
from collections import Counter

import pytest

from comodule_splitter import cli, definitions
from comodule_splitter.cli import main
from comodule_splitter.definitions import write_bundle
from comodule_splitter.generators import gen_binomial_truncation


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bundle_files(corpus_dir, name):
    base = str(corpus_dir)
    return {
        "sigma": os.path.join(base, f"{name}.sigma.json"),
        "comodule": os.path.join(base, f"{name}.comodule.json"),
        "target": os.path.join(base, f"{name}.target.json"),
        "map": os.path.join(base, f"{name}.map.json"),
        "bundle": os.path.join(base, f"{name}.bundle.json"),
    }


# -- validate --------------------------------------------------------------------------


def test_validate_every_file_kind(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    for key in ("sigma", "comodule", "target", "map"):
        code, out, _ = _run(capsys, "validate", files[key])
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_validate_map_runs_the_map_check(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    code, out, _ = _run(capsys, "validate", files["map"])
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["is_comodule_map"]


def test_validate_flags_broken_counit(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "p": 2,
                "basis": ["e"],
                "delta": {"e": [["e", "e", 1]]},
                "counit": {"e": 0},
            }
        )
    )
    code, out, _ = _run(capsys, "validate", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert any(not c["passed"] and c.get("witness") for c in doc["checks"])


def test_parse_and_usage_errors_exit_2(capsys, tmp_path, corpus_dir):
    code, _, err = _run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = _run(capsys, "validate", str(garbled))
    assert code == 2
    assert "error:" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"p": 2}))
    code, _, err = _run(capsys, "validate", str(unknown))
    assert code == 2

    # A bundle manifest is not itself a definition file.
    files = _bundle_files(corpus_dir, "sigma_level0_id")
    code, _, _ = _run(capsys, "validate", files["bundle"])
    assert code == 2

    assert _run(capsys, "no-such-command")[0] == 2
    assert _run(capsys)[0] == 2
    assert _run(capsys, "split", files["comodule"], files["map"])[0] == 2

    # Non-string file references and list-valued labels are refused, not
    # tracebacks from os.path.join or an unhashable dict key.
    with open(files["comodule"], encoding="utf-8") as fh:
        comodule = json.load(fh)
    with open(files["sigma"], encoding="utf-8") as fh:
        sigma = json.load(fh)
    label = sigma["basis"][0]
    with open(files["map"], encoding="utf-8") as fh:
        map_doc = json.load(fh)
    with open(files["bundle"], encoding="utf-8") as fh:
        manifest = json.load(fh)
    comodule_label = comodule["basis"][0]
    malformed = {
        "over_int.json": dict(comodule, over=123),
        "source_int.json": dict(map_doc, source=5),
        "delta_list_label.json": dict(sigma, delta={label: [[[label], label, 1]]}),
        "psi_list_label.json": dict(
            comodule, over=files["sigma"], psi={comodule_label: [[comodule_label, [label], 1]]}
        ),
    }
    for name, doc in malformed.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "validate", str(path))
        assert code == 2, name
        assert err.startswith("error: ParseError") and err.count("\n") == 1, (name, err)
    for key, value in (("comodule", 7), ("map", ["x"])):
        bad = tmp_path / f"bundle_{key}.bundle.json"
        bad.write_text(json.dumps(dict(manifest, **{key: value})))
        code, _, err = _run(capsys, "corpus", "--dir", str(tmp_path))
        assert code == 2, key
        assert err.startswith("error: ParseError") and err.count("\n") == 1, (key, err)
        bad.unlink()


def _refuses_unreadable_json(capsys, tmp_path, corpus_dir, data: bytes):
    """validate, filtration and certify (as the certificate) exit 2 on a
    file holding data, with one error line that calls it not valid JSON."""
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    for argv in (
        ["validate", str(path)],
        ["filtration", str(path)],
        ["certify", str(path), files["comodule"], files["map"]],
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: ParseError: {path} is not valid JSON: "), (argv, err)
        assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)


def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, corpus_dir):
    _refuses_unreadable_json(capsys, tmp_path, corpus_dir, b'{"p": 2, "basis": ["\xff"]}')


def test_json_nested_too_deep_exits_2(capsys, tmp_path, corpus_dir):
    _refuses_unreadable_json(capsys, tmp_path, corpus_dir, b"[" * 200_000 + b"]" * 200_000)


def test_an_int_over_the_digit_limit_exits_2(capsys, tmp_path, corpus_dir):
    _refuses_unreadable_json(capsys, tmp_path, corpus_dir, b'{"p": ' + b"7" * 5000 + b"}")


def test_parse_errors_quote_long_values_briefly(capsys, tmp_path, corpus_dir):
    """A delta entry nested 900 deep (near the parser's nesting limit under
    pytest), a label of 100k characters and a long array exit 2 with one
    short error line; a short bad entry is quoted as repr quotes it, a
    dict's keys in their order."""
    with open(_bundle_files(corpus_dir, "sigma_level0_id")["sigma"], encoding="utf-8") as fh:
        sigma = json.load(fh)
    label = sigma["basis"][0]
    text = lambda entry: json.dumps(dict(sigma, delta={label: [entry]}))
    long_cases = {
        "nested": (text("N").replace('"N"', "[" * 900 + "]" * 900), "bad delta entry [[[["),
        "long_label": (text(["x" * 100_000, label, 1]), "delta references unknown label in ['xxx"),
        "long_array": (text(list(range(10_000))), "bad delta entry [0, 1, 2"),
    }
    for name, (doc, start) in long_cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        code, out, err = _run(capsys, "validate", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: ParseError: {path}: {start}"), (name, err[:200])
        assert err.count("\n") == 1 and len(err) < 500, (name, len(err))
    for entry in ([label, label, "1"], {"b": 1, "a": [2]}, [label, label, 1, 2, 3, 4, 5, 6, 7, 8]):
        path = tmp_path / "short.json"
        path.write_text(text(entry))
        code, out, err = _run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: ParseError: {path}: bad delta entry {entry!r}\n"


# -- parser ----------------------------------------------------------------------------

# Sample argvs per subcommand, every option used at least once.
_PARSER_SAMPLES = {
    "validate": [["validate", "x.json"]],
    "grouplikes": [["grouplikes", "x.json"], ["grouplikes", "x.json", "--search", "--bound", "9"]],
    "filtration": [
        ["filtration", "x.json"],
        ["filtration", "x.json", "--algo", "direct", "--max-level", "3", "--search"],
    ],
    "primitives": [["primitives", "x.json"], ["primitives", "x.json", "--at", "1", "--search"]],
    "cotensor": [["cotensor", "x.json", "--with", "g:0"], ["cotensor", "x.json", "--with", "sigma", "--search"]],
    "star": [["star", "m.json", "f.json"], ["star", "m.json", "f.json", "--strict"]],
    "split": [
        ["split", "m.json", "f.json", "--out", "c.json"],
        ["split", "m.json", "f.json", "--out", "c.json", "--force", "--strict"],
    ],
    "certify": [["certify", "c.json", "m.json", "f.json"]],
    "corpus": [["corpus", "--dir", "d"]],
    "generate": [
        ["generate", "group-algebra", "--p", "3", "--n", "2", "--out", "o"],
        ["generate", "binomial", "--p", "5", "--d", "25"],
        ["generate", "sigma", "--level", "1"],
        ["generate", "extended", "--level", "2", "--a-dim", "4", "--out", "o"],
        ["generate", "control"],
        ["generate", "corpus", "--out", "o"],
        ["generate", "random", "--seed", "7"],
        ["generate", "non-pointed"],
    ],
}


def _help_text(capsys, parser, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_each_subcommand_parser_matches_the_full_parser(capsys, monkeypatch):
    """main builds only the subparser argv[0] names; that subparser must
    print the same help and parse the same Namespace as in the full tree."""
    monkeypatch.setenv("COLUMNS", "80")
    names = [name for name, _, _ in cli._SUBCOMMANDS]
    assert sorted(_PARSER_SAMPLES) == sorted(names)
    full = cli._build_parser([])
    for name in names:
        alone = cli._build_parser([name])
        prefixes = [[name]]
        if name == "generate":
            prefixes += [argv[:2] for argv in _PARSER_SAMPLES[name]]
        for prefix in prefixes:
            text = _help_text(capsys, alone, [*prefix, "-h"])
            assert text.startswith(f"usage: comodule-splitter {' '.join(prefix)} ")
            assert text == _help_text(capsys, full, [*prefix, "-h"]), prefix
        for argv in _PARSER_SAMPLES[name]:
            args = alone.parse_args(argv)
            assert args == full.parse_args(argv), argv
            assert args.func is getattr(cli, f"cmd_{name}")


_FULL_USAGE = """\
usage: comodule-splitter [-h]
                         {validate,grouplikes,filtration,primitives,cotensor,star,split,certify,corpus,generate}
                         ...
"""

_SPLIT_USAGE = """\
usage: comodule-splitter split [-h] --out OUT [--force] [--strict]
                               comodule map
"""

# stdout, stderr and exit code of each argv, as argparse prints them on
# Python 3.10 and 3.11 at 80 columns from the full parser tree.
_PINNED_USAGE = [
    ([], "", _FULL_USAGE + "comodule-splitter: error: the following arguments are required: command\n", 2),
    (
        ["-h"],
        _FULL_USAGE
        + """
Validate, filter, and split comodules over pointed coalgebras.

positional arguments:
  {validate,grouplikes,filtration,primitives,cotensor,star,split,certify,corpus,generate}
    validate            run the validator matching the file kind
    grouplikes          list the grouplikes of a coalgebra
    filtration          socle filtration of a coalgebra or comodule
    primitives          primitive elements at a grouplike, or all
    cotensor            cotensor a comodule with a built-in left factor
    star                check the graded surjectivity hypothesis
    split               build and certify the splitting isomorphism
    certify             re-verify a certificate from scratch
    corpus              run every bundle in a directory
    generate            write example definition files

options:
  -h, --help            show this help message and exit
""",
        "",
        0,
    ),
    (
        ["split", "-h"],
        _SPLIT_USAGE
        + """
positional arguments:
  comodule
  map

options:
  -h, --help  show this help message and exit
  --out OUT   certificate file to write
  --force     build even when the hypothesis fails
  --strict
""",
        "",
        0,
    ),
    (
        ["bogus"],
        "",
        _FULL_USAGE
        + "comodule-splitter: error: argument command: invalid choice: 'bogus' (choose from"
        " 'validate', 'grouplikes', 'filtration', 'primitives', 'cotensor', 'star', 'split',"
        " 'certify', 'corpus', 'generate')\n",
        2,
    ),
    (
        ["split", "x.json"],
        "",
        _SPLIT_USAGE
        + "comodule-splitter split: error: the following arguments are required: map, --out\n",
        2,
    ),
    # argparse reports unrecognized arguments with the top-level usage, so
    # a parser built for split alone must still list every subcommand there.
    (
        ["split", "m.json", "f.json", "--out", "c.json", "--bogus"],
        "",
        _FULL_USAGE + "comodule-splitter: error: unrecognized arguments: --bogus\n",
        2,
    ),
    (
        ["filtration", "x.json", "--max-level", "two"],
        "",
        """\
usage: comodule-splitter filtration [-h] [--algo {direct,wedge}]
                                    [--max-level MAX_LEVEL] [--search]
                                    path
comodule-splitter filtration: error: argument --max-level: invalid int value: 'two'
""",
        2,
    ),
]


def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, out, err, code in _PINNED_USAGE:
        assert _run(capsys, *argv) == (code, out, err), argv


# -- grouplikes ------------------------------------------------------------------------


def test_grouplikes_declared_and_brute_force(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, out, _ = _run(capsys, "grouplikes", files["sigma"])
    assert code == 0
    declared = json.loads(out)
    assert declared["count"] == 3

    code, out, _ = _run(capsys, "grouplikes", files["sigma"], "--search")
    assert code == 0
    assert sorted(json.loads(out)["vectors"]) == sorted(declared["vectors"])


def test_grouplikes_search_bound_exits_3(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, _, err = _run(capsys, "grouplikes", files["sigma"], "--search", "--bound", "16")
    assert code == 3
    assert "error:" in err


# -- filtration ------------------------------------------------------------------------


def test_filtration_profiles_by_both_algorithms(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    results = {}
    for algo in ("direct", "wedge"):
        code, out, _ = _run(capsys, "filtration", files["sigma"], "--algo", algo)
        assert code == 0
        results[algo] = json.loads(out)
        assert results[algo]["levels"] == [1, 3, 4]
        assert results[algo]["exhaustive"] is True
    assert results["direct"]["bases"] == results["wedge"]["bases"]


def test_filtration_max_level_truncates(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    code, out, _ = _run(capsys, "filtration", files["sigma"], "--max-level", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [1, 3]
    assert doc["exhaustive"] is False


def test_filtration_of_a_comodule_file(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, out, _ = _run(capsys, "filtration", files["comodule"])
    assert code == 0
    assert json.loads(out)["levels"] == [3, 9, 12]


# For each corpus comodule file: the wedge levels, and the sha256 (first 32
# hex digits) of "exit code\nstdout" of `filtration` with --algo wedge,
# wedge --max-level 1, direct and direct --max-level 1, joined in that order.
# Direct on sigma_level2_id hits the default cell cap and exits 3.
COMODULE_FILTRATION_PINS = {
    "binomial_2_4_id": ([1, 3, 4], "3c54ccb5f78129ffbfd5ec89d8b692fd"),
    "extended_a2_level0": ([6], "552348eccfae7ff05243d19a5d76d1f7"),
    "extended_a3_level0": ([9], "4ab3d70b6ef4f06c344b384287c26e10"),
    "extended_a2_level1": ([6, 18, 24], "b23f5361737b3aad846546c626679cf8"),
    "extended_a3_level1": ([9, 27, 36], "cb809debc0383572f19689d8596ee1ef"),
    "sigma_level0_id": ([3], "78c20138f44936fbe2bd4a57c736d237"),
    "sigma_level1_id": ([3, 9, 12], "f2b4df7497aafcd4e4bd6a89f5af047a"),
    "sigma_level2_id": ([3, 12, 24, 36, 45, 48], "80d32f242cfb0f5b48515db193a5f18c"),
    "control_zero_map": ([3], "78c20138f44936fbe2bd4a57c736d237"),
}


def test_comodule_filtration_output_is_pinned_on_the_corpus(capsys, corpus, corpus_dir):
    assert sorted(COMODULE_FILTRATION_PINS) == sorted(b.name for b in corpus)
    for name, (levels, digest) in COMODULE_FILTRATION_PINS.items():
        path = _bundle_files(corpus_dir, name)["comodule"]
        joined = ""
        for algo in ("wedge", "direct"):
            for extra in ((), ("--max-level", "1")):
                code, out, _ = _run(capsys, "filtration", path, "--algo", algo, *extra)
                joined += f"{code}\n{out}"
                if (algo, extra) == ("wedge", ()):
                    assert json.loads(out)["levels"] == levels, name
        assert hashlib.sha256(joined.encode()).hexdigest()[:32] == digest, name


def test_filtration_cell_cap_exits_3_with_hint(capsys, corpus_dir, monkeypatch):
    monkeypatch.setenv("COMODULE_SPLITTER_CAP", "100")
    files = _bundle_files(corpus_dir, "sigma_level2_id")
    code, _, err = _run(capsys, "filtration", files["sigma"], "--algo", "direct")
    assert code == 3
    assert "wedge" in err


def test_unparsable_cap_exits_2(capsys, corpus_dir, monkeypatch):
    monkeypatch.setenv("COMODULE_SPLITTER_CAP", "abc")
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, out, err = _run(capsys, "filtration", files["sigma"], "--algo", "direct")
    assert code == 2
    assert out == ""
    assert "COMODULE_SPLITTER_CAP" in err
    assert "Traceback" not in err


# -- primitives and cotensor -----------------------------------------------------------


def test_primitives_of_a_coalgebra(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, out, _ = _run(capsys, "primitives", files["sigma"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["dim_coradical"] == 3
    assert doc["dim_f1"] == 9
    assert doc["primitive_mod_coradical_dims"] == [2, 2, 2]

    code, out, _ = _run(capsys, "primitives", files["sigma"], "--at", "0")
    assert code == 0
    at0 = json.loads(out)
    assert at0["dim"] == len(at0["basis"])


def test_primitives_of_a_comodule(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, out, _ = _run(capsys, "primitives", files["comodule"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["ok"] is True
    assert doc["report"]["total_dim"] == 3
    assert len(doc["basis"]) == 3


def test_cotensor_with_builtin_left_factors(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    expected = {"sigma": 12, "coradical": 3, "g:0": 1}
    for factor, dim in expected.items():
        code, out, _ = _run(capsys, "cotensor", files["comodule"], "--with", factor)
        assert code == 0
        assert json.loads(out)["dim"] == dim
    code, _, err = _run(capsys, "cotensor", files["comodule"], "--with", "junk")
    assert code == 2


def test_bad_grouplike_indices_exit_2(capsys, corpus_dir):
    """An index outside 0..len-1 (sigma_level1_id has 3 grouplikes) or one
    that is not a number is refused, never wrapped round or raised."""
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    for argv in (
        ("primitives", files["sigma"], "--at", "99"),
        ("primitives", files["sigma"], "--at", "-1"),
        ("primitives", files["comodule"], "--at", "3"),
        ("primitives", files["comodule"], "--at", "-1"),
        ("cotensor", files["comodule"], "--with", "g:99"),
        ("cotensor", files["comodule"], "--with", "g:-1"),
        ("cotensor", files["comodule"], "--with", "g:x"),
        ("cotensor", files["comodule"], "--with", "g:"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err
    code, out, _ = _run(capsys, "cotensor", files["comodule"], "--with", "g:2")
    assert code == 0
    assert json.loads(out)["dim"] == 1


# -- star, split, certify ----------------------------------------------------------------


def test_star_passes_on_shipped_pairs(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "extended_a2_level1")
    for extra in ((), ("--strict",)):
        code, out, _ = _run(capsys, "star", files["comodule"], files["map"], *extra)
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_star_fails_with_exit_4(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "control_zero_map")
    code, out, _ = _run(capsys, "star", files["comodule"], files["map"])
    assert code == 4
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["surjective"] is False


def test_star_needs_an_enriched_comodule(capsys, corpus_dir):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    code, _, err = _run(capsys, "star", files["target"], files["map"])
    assert code == 2
    assert "unit" in err


# The star report of sigma_level1_id with its unit replaced by zeros.  The
# zero vector spans no unit line, so no graded layer of M meets it.
ZERO_UNIT_STAR_LEVELS = [
    {"level": 0, "ok": False, "source_dim": 0, "target_dim": 1},
    {"level": 1, "ok": False, "source_dim": 3, "target_dim": 5},
    {"level": 2, "ok": False, "source_dim": 9, "target_dim": 10},
]


def test_star_with_a_zero_unit_reports_every_level(capsys, corpus_dir, tmp_path):
    """An all-zero unit is not refused: star prints the full report, with
    every level failing, and exits 4, with and without --strict."""
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    for kind in ("sigma", "target", "map"):
        shutil.copy(files[kind], tmp_path)
    with open(files["comodule"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["unit"] = [0] * len(doc["unit"])
    comodule = tmp_path / "sigma_level1_id.comodule.json"
    comodule.write_text(json.dumps(doc), encoding="utf-8")
    for extra in ((), ("--strict",)):
        map_path = str(tmp_path / "sigma_level1_id.map.json")
        code, out, err = _run(capsys, "star", str(comodule), map_path, *extra)
        assert code == 4
        assert err == ""
        assert json.loads(out) == {
            "equivariance_ok": None,
            "levels": ZERO_UNIT_STAR_LEVELS,
            "ok": False,
            "rank": 12,
            "strict": bool(extra),
            "surjective": True,
            "target_dim": 12,
            "unit_ok": False,
        }


def test_split_writes_byte_identical_certificates(capsys, corpus_dir, tmp_path):
    files = _bundle_files(corpus_dir, "sigma_level1_id")
    outs = [str(tmp_path / f"cert{i}.json") for i in (1, 2)]
    for out_path in outs:
        code, out, _ = _run(capsys, "split", files["comodule"], files["map"], "--out", out_path)
        assert code == 0
        summary = json.loads(out)
        assert summary["certified"] is True
        assert summary["hypothesis_ok"] is True
        assert summary["rank"] == 12
        assert summary["dim_m"] == 12
        assert summary["p1_dim"] == 1
    with open(outs[0], "rb") as a, open(outs[1], "rb") as b:
        assert a.read() == b.read()


def test_split_then_certify_round_trip(capsys, corpus_dir, tmp_path):
    files = _bundle_files(corpus_dir, "extended_a3_level0")
    cert = str(tmp_path / "cert.json")
    code, _, _ = _run(capsys, "split", files["comodule"], files["map"], "--out", cert)
    assert code == 0
    code, out, _ = _run(capsys, "certify", cert, files["comodule"], files["map"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_certify_rejects_a_tampered_certificate(capsys, corpus_dir, tmp_path):
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    cert = str(tmp_path / "cert.json")
    assert _run(capsys, "split", files["comodule"], files["map"], "--out", cert)[0] == 0
    with open(cert, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["h"][0][0] = (doc["h"][0][0] + 1) % doc["p"]
    with open(cert, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, _ = _run(capsys, "certify", cert, files["comodule"], files["map"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_certify_refuses_a_certificate_over_another_field(capsys, tmp_path):
    """A certificate whose p is not the inputs' p fails h_shape and
    h_bijective with a witness naming both fields, and the residual, taken
    over neither field alone, is skipped as for any bad shape."""
    write_bundle(gen_binomial_truncation(3, 4), str(tmp_path))
    files = _bundle_files(tmp_path, "binomial_3_4_id")
    cert = tmp_path / "cert.json"
    assert _run(capsys, "split", files["comodule"], files["map"], "--out", str(cert))[0] == 0
    honest = json.loads(cert.read_text())
    for q in (2, 5):
        other = tmp_path / f"cert_p{q}.json"
        other.write_text(json.dumps(dict(honest, p=q)))
        code, out, err = _run(capsys, "certify", str(other), files["comodule"], files["map"])
        assert (code, err) == (1, "")
        fields = f"certificate over F_{q}, inputs over F_3"
        checks = {c["name"]: (c["passed"], c.get("witness")) for c in json.loads(out)["checks"]}
        assert checks == {
            "hypothesis_star_surjective": (True, None),
            "p1_basis_matches": (False, f"recomputed dim 1, stored dim 1; {fields}"),
            "h_shape": (False, fields),
            "h_bijective": (False, fields),
            "stored_rank_matches": (True, None),
            "comodule_residual_zero": (False, None),
            "stored_residual_flag_matches": (False, None),
        }, q


def test_certify_refuses_mistyped_certificates_with_exit_2(capsys, corpus_dir, tmp_path):
    """Certificates go through the typed loaders: a float or bool entry in h
    and a missing key are parse errors, not accepted values or tracebacks."""
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    cert = str(tmp_path / "cert.json")
    assert _run(capsys, "split", files["comodule"], files["map"], "--out", cert)[0] == 0
    with open(cert, encoding="utf-8") as fh:
        honest = json.load(fh)

    def float_h(doc):
        doc["h"][0][0] = 1.0

    def bool_h(doc):
        doc["h"][0][0] = True

    def no_rank(doc):
        del doc["rank"]

    for corrupt in (float_h, bool_h, no_rank):
        doc = json.loads(json.dumps(honest))
        corrupt(doc)
        bad = tmp_path / f"{corrupt.__name__}.json"
        bad.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "certify", str(bad), files["comodule"], files["map"])
        assert code == 2, corrupt.__name__
        assert out == ""
        assert err.startswith("error: ParseError"), err


def test_certify_holds_every_stored_claim(capsys, corpus_dir, tmp_path):
    """Each stored star-report field must equal the recomputed report, and
    p1_dim must be an int matching the stored basis.  A stored field that
    disagrees with the recomputation fails hypothesis_star_surjective (exit 1)
    with a witness naming the field; a file that contradicts itself (p1_dim
    against p1_basis, ok against the report's own fields) is refused (exit 2)."""
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    cert = str(tmp_path / "cert.json")
    assert _run(capsys, "split", files["comodule"], files["map"], "--out", cert)[0] == 0
    with open(cert, encoding="utf-8") as fh:
        honest = json.load(fh)
    assert honest["star_report"]["levels"]

    def rank_7(doc):
        doc["star_report"]["rank"] = 7

    def no_levels(doc):
        doc["star_report"]["levels"] = []

    def level_source_dim(doc):
        doc["star_report"]["levels"][0]["source_dim"] += 1

    def not_surjective(doc):
        doc["star_report"]["surjective"] = False
        doc["star_report"]["ok"] = False

    expected_witness = {
        rank_7: "rank",
        no_levels: "levels",
        level_source_dim: "levels",
        not_surjective: "ok",
    }
    for corrupt, field in expected_witness.items():
        doc = json.loads(json.dumps(honest))
        corrupt(doc)
        bad = tmp_path / f"{corrupt.__name__}.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = _run(capsys, "certify", str(bad), files["comodule"], files["map"])
        assert code == 1, corrupt.__name__
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == ["hypothesis_star_surjective"]
        assert checks[0]["witness"] == f"stored star_report {field} does not match the recomputed value"

    def only_ok_false(doc):
        doc["star_report"]["ok"] = False

    def only_surjective_false(doc):
        doc["star_report"]["surjective"] = False

    def p1_dim_999(doc):
        doc["p1_dim"] = 999

    def p1_dim_str(doc):
        doc["p1_dim"] = "x"

    def no_ok(doc):
        del doc["star_report"]["ok"]

    for corrupt in (only_ok_false, only_surjective_false, p1_dim_999, p1_dim_str, no_ok):
        doc = json.loads(json.dumps(honest))
        corrupt(doc)
        bad = tmp_path / f"{corrupt.__name__}.json"
        bad.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "certify", str(bad), files["comodule"], files["map"])
        assert code == 2, corrupt.__name__
        assert out == ""
        assert err.startswith("error: ParseError"), err


def test_definition_files_refuse_bool_coefficients(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(
        json.dumps({"p": 2, "basis": ["e"], "delta": {"e": [["e", "e", True]]}, "counit": {"e": 1}})
    )
    code, _, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert "ParseError" in err


def test_split_refuses_the_control_with_exit_4(capsys, corpus_dir, tmp_path):
    files = _bundle_files(corpus_dir, "control_zero_map")
    out_path = str(tmp_path / "cert.json")
    code, out, err = _run(capsys, "split", files["comodule"], files["map"], "--out", out_path)
    assert code == 4
    assert not os.path.exists(out_path)
    doc = json.loads(out)
    assert doc["ok"] is False
    assert "HypothesisNotMet" in err


def test_forced_split_agrees_with_certify(capsys, corpus_dir, tmp_path):
    """--force writes a certificate whose h happens to certify (the control
    comodule is the regular one), but the stored hypothesis failed, so both
    split and certify must exit 1."""
    files = _bundle_files(corpus_dir, "control_zero_map")
    out_path = str(tmp_path / "cert.json")
    code, out, _ = _run(
        capsys, "split", files["comodule"], files["map"], "--out", out_path, "--force"
    )
    assert code == 1
    summary = json.loads(out)
    assert summary["certified"] is True
    assert summary["hypothesis_ok"] is False
    assert os.path.exists(out_path)

    code, out, _ = _run(capsys, "certify", out_path, files["comodule"], files["map"])
    assert code == 1
    failing = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failing == ["hypothesis_star_surjective"]


# -- corpus ----------------------------------------------------------------------------


def test_corpus_runs_every_bundle(capsys, corpus_dir):
    code, out, _ = _run(capsys, "corpus", "--dir", str(corpus_dir))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS ") for line in lines)
    names = [line.split()[1].rstrip(":") for line in lines]
    assert names == sorted(names)
    assert any("rank 48" in line for line in lines)
    assert any("hypothesis_not_met" in line for line in lines)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_keeps_each_verdict(capsys, monkeypatch, corpus_dir, tmp_path):
    """A command that finished returns its own exit code when nobody reads
    its output, and writes nothing to stderr: certify on a valid (0) and a
    tampered (1) certificate, star on the control (4), and corpus, which
    prints one line per bundle (0)."""
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    control = _bundle_files(corpus_dir, "control_zero_map")
    cert = tmp_path / "cert.json"
    assert _run(capsys, "split", files["comodule"], files["map"], "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc["h"][0][1] ^= 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    for argv, expected in (
        (["certify", str(cert), files["comodule"], files["map"]], 0),
        (["certify", str(tampered), files["comodule"], files["map"]], 1),
        (["star", control["comodule"], control["map"]], 4),
        (["corpus", "--dir", str(corpus_dir)], 0),
    ):
        assert main(argv) == expected, argv
        assert capsys.readouterr().err == "", argv


def _count_reads(monkeypatch) -> Counter:
    """Count the JSON documents decoded from files, by absolute path.  Every
    decode goes through json.load, whoever imported the reading helper."""
    reads: Counter = Counter()
    real = json.load

    def counting(fh, *args, **kwargs):
        reads[os.path.abspath(fh.name)] += 1
        return real(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counting)
    return reads


def test_each_command_reads_each_file_once(capsys, corpus_dir, tmp_path, monkeypatch):
    reads = _count_reads(monkeypatch)
    files = _bundle_files(corpus_dir, "extended_a3_level0")
    paths = {k: os.path.abspath(v) for k, v in files.items()}
    inputs = {paths[k] for k in ("sigma", "comodule", "target", "map")}
    cert = str(tmp_path / "cert.json")
    for _ in range(2):  # the second round reads everything again
        assert _run(capsys, "split", files["comodule"], files["map"], "--out", cert)[0] == 0
        assert reads == dict.fromkeys(inputs, 1)
        reads.clear()
        assert _run(capsys, "certify", cert, files["comodule"], files["map"])[0] == 0
        assert reads == dict.fromkeys(inputs | {os.path.abspath(cert)}, 1)
        reads.clear()
    assert _run(capsys, "corpus", "--dir", str(corpus_dir))[0] == 0
    assert len(reads) == 9 * 5 and set(reads.values()) == {1}
    # The commands that first check what kind of file they were given.
    needs = {
        "sigma": {paths["sigma"]},
        "comodule": {paths["comodule"], paths["sigma"]},
        "map": inputs,
    }
    for command in ("validate", "filtration", "primitives"):
        for kind, read in needs.items():
            reads.clear()
            code = _run(capsys, command, files[kind])[0]
            if command == "validate" or kind != "map":
                assert code == 0, (command, kind)
                assert reads == dict.fromkeys(read, 1), (command, kind)
            else:  # filtration and primitives refuse a map after one read
                assert code == 2, (command, kind)
                assert reads == {paths["map"]: 1}, (command, kind)


def test_loads_do_not_outlive_the_command(capsys, corpus_dir, tmp_path):
    for name in os.listdir(corpus_dir):
        if name.startswith("binomial_2_4_id."):
            shutil.copy(os.path.join(corpus_dir, name), tmp_path)
    files = _bundle_files(tmp_path, "binomial_2_4_id")
    cert = str(tmp_path / "cert.json")
    argv = ("split", files["comodule"], files["map"], "--out", cert)
    with open(files["comodule"], encoding="utf-8") as fh:
        original = fh.read()
    assert _run(capsys, *argv)[0] == 0
    with open(files["comodule"], "w", encoding="utf-8") as fh:
        fh.write("{not json")
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: ParseError: {files['comodule']} is not valid JSON")
    with open(files["comodule"], "w", encoding="utf-8") as fh:
        fh.write(original)
    assert _run(capsys, *argv)[0] == 0
    # Within one command the map's source is the command's comodule object.
    with definitions._one_load_per_file():
        _, ma, f, _ = definitions.load_bundle(files["bundle"])
        assert f.source is ma.base and f.target.over is ma.sigma
    # Outside the CLI every call reads the file again.
    first, _ = definitions.load_comodule(files["comodule"])
    second, _ = definitions.load_comodule(files["comodule"])
    assert first is not second and first.same_structure(second)


def test_a_broken_map_source_still_exits_2(capsys, corpus_dir, tmp_path):
    files = _bundle_files(corpus_dir, "binomial_2_4_id")
    with open(files["map"], encoding="utf-8") as fh:
        map_doc = json.load(fh)
    broken = tmp_path / "broken.map.json"
    broken.write_text(json.dumps(dict(map_doc, source="missing.comodule.json")))
    missing = os.path.join(str(tmp_path), "missing.comodule.json")
    cert = str(tmp_path / "cert.json")
    code, out, err = _run(capsys, "split", files["comodule"], str(broken), "--out", cert)
    assert code == 2 and out == ""
    assert err == (
        f"error: ParseError: cannot read {missing}:"
        f" [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert not os.path.exists(cert)


def test_corpus_empty_directory_warns(capsys, tmp_path):
    code, out, err = _run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 0
    assert out == ""
    assert "warning" in err


def test_corpus_missing_directory_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "no_such_dir")
    code, out, err = _run(capsys, "corpus", "--dir", missing)
    assert code == 2
    assert out == ""
    assert err == f"error: ParseError: {missing}: no such directory\n"


def test_corpus_flags_a_falsified_expectation(capsys, tmp_path):
    assert _run(capsys, "generate", "binomial", "--out", str(tmp_path))[0] == 0
    manifest = tmp_path / "binomial_2_4_id.bundle.json"
    doc = json.loads(manifest.read_text())
    doc["expected"] = "hypothesis_not_met"
    manifest.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert out.startswith("FAIL binomial_2_4_id: certified")


# -- generate --------------------------------------------------------------------------


def test_generate_bundles_and_rerun_them(capsys, tmp_path):
    out_dir = str(tmp_path / "made")
    for argv in (
        ("generate", "group-algebra", "--p", "2", "--n", "5", "--out", out_dir),
        ("generate", "binomial", "--p", "3", "--d", "3", "--out", out_dir),
        ("generate", "sigma", "--level", "0", "--out", out_dir),
        ("generate", "extended", "--level", "0", "--a-dim", "2", "--out", out_dir),
        ("generate", "control", "--out", out_dir),
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        for name in json.loads(out)["written"]:
            assert os.path.exists(os.path.join(out_dir, name))
    code, out, _ = _run(capsys, "corpus", "--dir", out_dir)
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_generate_standalone_coalgebras(capsys, tmp_path):
    out_dir = str(tmp_path)
    code, out, _ = _run(capsys, "generate", "random", "--seed", "11", "--out", out_dir)
    assert code == 0
    (name,) = json.loads(out)["written"]
    path = os.path.join(out_dir, name)
    assert _run(capsys, "validate", path)[0] == 0
    code, out, _ = _run(capsys, "filtration", path, "--search")
    assert code == 0
    assert json.loads(out)["exhaustive"] is True

    code, out, _ = _run(capsys, "generate", "non-pointed", "--out", out_dir)
    assert code == 0
    (name,) = json.loads(out)["written"]
    code, out, _ = _run(capsys, "filtration", os.path.join(out_dir, name))
    assert code == 0
    doc = json.loads(out)
    assert doc["stabilized"] is True
    assert doc["exhaustive"] is False


def test_generate_unsupported_level_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, "generate", "sigma", "--level", "7", "--out", str(tmp_path))
    assert code == 2
    assert "error:" in err


def test_generate_refuses_a_non_prime_p(capsys, tmp_path):
    for argv in (
        ("binomial", "--p", "4", "--d", "3"),
        ("group-algebra", "--p", "4", "--n", "2"),
        ("binomial", "--p", "1", "--d", "3"),
        ("group-algebra", "--p", "0"),
    ):
        out_dir = tmp_path / argv[0] / argv[2]
        code, out, err = _run(capsys, "generate", *argv, "--out", str(out_dir))
        assert code == 2, argv
        assert out == ""
        assert "prime" in err
        assert not out_dir.exists()


def test_large_primes_are_decided_not_searched(capsys, tmp_path):
    """A p near 2^61 is generated, split and certified; a Carmichael number,
    a strong pseudoprime to the bases 2, 3, 5 and 7 and a p above the bound
    where primality is decided are refused with exit 2, from the generator,
    a coalgebra file and a certificate alike."""
    big = 2**61 - 1
    base = str(tmp_path / f"binomial_{big}_3_id")
    comodule, fmap, cert = f"{base}.comodule.json", f"{base}.map.json", f"{base}.cert.json"
    assert _run(capsys, "generate", "binomial", "--p", str(big), "--d", "3", "--out", str(tmp_path))[0] == 0
    assert _run(capsys, "split", comodule, fmap, "--out", cert)[0] == 0
    assert _run(capsys, "certify", cert, comodule, fmap)[0] == 0
    sigma_doc = json.loads(open(f"{base}.sigma.json").read())
    cert_doc = json.loads(open(cert).read())
    for p in (561, 3215031751, 2**89 - 1):
        out_dir = tmp_path / str(p)
        code, out, err = _run(capsys, "generate", "binomial", "--p", str(p), "--d", "3", "--out", str(out_dir))
        assert (code, out) == (2, "") and not out_dir.exists(), p
        assert err.startswith("error: ParseError: ") and err.count("\n") == 1, err
        assert ("3317044064679887385961981" in err) == (p > 2**64), err
        sigma = tmp_path / f"sigma_{p}.json"
        sigma.write_text(json.dumps(dict(sigma_doc, p=p)))
        code, out, err = _run(capsys, "validate", str(sigma))
        assert (code, out) == (2, "") and err.startswith(f"error: ParseError: {sigma}: "), err
        edited = tmp_path / f"cert_{p}.json"
        edited.write_text(json.dumps(dict(cert_doc, p=p)))
        code, out, err = _run(capsys, "certify", str(edited), comodule, fmap)
        assert (code, out) == (2, "") and err.startswith(f"error: ParseError: {edited}: "), err


def test_generate_refuses_bad_sizes_with_exit_2(capsys, tmp_path):
    for argv in (
        ("binomial", "--d", "1"),
        ("group-algebra", "--n", "0"),
        ("extended", "--level", "0", "--a-dim", "0"),
    ):
        out_dir = tmp_path / argv[0]
        code, out, err = _run(capsys, "generate", *argv, "--out", str(out_dir))
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ParseError: ") and err.count("\n") == 1, err
        assert not out_dir.exists()
