#!/usr/bin/env python3
"""Split/certify benchmark for comodule-splitter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and calls the CLI entry point ``comodule_splitter.cli.main``
in-process, as one closed-loop client: each command starts when the previous
one has returned.

Set-up generates the workload's bundles with the in-repo generators and
writes their definition files; it is repeated (see SETUP_MIN_REPEATS) and
the median is reported.  The measurement then runs whole passes until
``--seconds`` have elapsed.  A pass runs ``split`` and then ``certify`` on
every bundle, in an order shuffled by ``--seed``, and then one
``corpus --dir`` over the bundle directory.  Every exit code is checked
against the bundle's known outcome and every certificate's sha256 against
``expected.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` passes alternate between traced and
untraced, and the JSON object carries the per-layer metrics of the traced
passes (see README.md).  The exit code is 0 only when every output was
correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS of
# set-up time have been measured, so that a set-up of milliseconds still
# gets a steady median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200

# name -> (generator calls as text, function of the generators module)
WORKLOADS = {
    "extended_f2": ("bundle_extended(2, 8)", lambda g: (g.bundle_extended(2, 8),)),
    "binomial_f3": ("gen_binomial_truncation(3, 48)", lambda g: (g.gen_binomial_truncation(3, 48),)),
    "corpus": ("shipped_corpus()", lambda g: g.shipped_corpus()),
}

UNITS = {
    "setup_s": "s", "split_s": "s", "split_tail_s": "s", "certify_s": "s",
    "certify_tail_s": "s", "corpus_s": "s", "certs_per_s": "1/s", "peak_rss_mb": "MB",
}

SELF = "self"
CALLS = "calls"
# Per-pass layer metrics: name -> (what to add up, span names).
SPAN_METRICS = {
    "field_linalg.preimage_s": (SELF, ("field_linalg.preimage",)),
    "field_linalg.preimage_calls": (CALLS, ("field_linalg.preimage",)),
    "field_linalg.preimage_target_dim": ("target_dim", ("field_linalg.preimage",)),
    "field_linalg.tensor_s": (SELF, ("field_linalg.Subspace.tensor",)),
    "field_linalg.tensor_calls": (CALLS, ("field_linalg.Subspace.tensor",)),
    "field_linalg.add_s": (SELF, ("field_linalg.Subspace.add",)),
    "field_linalg.add_calls": (CALLS, ("field_linalg.Subspace.add",)),
    "field_linalg.kron_s": (SELF, ("field_linalg.FieldMatrix.kron", "field_linalg.kron")),
    "field_linalg.rank_s": (SELF, ("field_linalg.FieldMatrix.rank",)),
    "field_linalg.image_s": (SELF, ("field_linalg.image",)),
    "field_linalg.inverse_s": (SELF, ("field_linalg.FieldMatrix.inverse",)),
    "coalgebra.filtration_wedge_s": (SELF, ("coalgebra.coradical_filtration_wedge",)),
    "coalgebra.filtration_wedge_calls": (CALLS, ("coalgebra.coradical_filtration_wedge",)),
    "coalgebra.delta_matrix_s": (SELF, ("coalgebra.Coalgebra.delta_matrix",)),
    "coalgebra.delta_matrix_calls": (CALLS, ("coalgebra.Coalgebra.delta_matrix",)),
    "comodule.star_s": (SELF, ("comodule.check_star_surjective",)),
    "comodule.star_calls": (CALLS, ("comodule.check_star_surjective",)),
    "comodule.graded_left_primitives_s": (SELF, ("comodule.graded_left_primitives",)),
    "comodule.sigma_graded_left_primitives_s": (SELF, ("comodule._sigma_graded_left_primitives",)),
    "comodule.primitives_total_s": (SELF, ("comodule.comodule_primitives_total",)),
    "comodule.primitives_total_calls": (CALLS, ("comodule.comodule_primitives_total",)),
    "comodule.psi_matrix_s": (SELF, ("comodule.Comodule.psi_matrix",)),
    "comodule.psi_matrix_calls": (CALLS, ("comodule.Comodule.psi_matrix",)),
    "splitting.build_h_s": (SELF, ("splitting.build_h",)),
    "splitting.recheck_s": (SELF, ("splitting.recheck_certificate",)),
    "splitting.assemble_h_s": (SELF, ("splitting._assemble_h",)),
    "splitting.phi_inverse_s": (SELF, ("splitting.phi_inverse", "splitting.phi")),
    "splitting.retraction_s": (SELF, ("splitting.choose_retraction", "splitting.retraction_onto")),
    "splitting.residual_s": (SELF, ("splitting.comodule_residual",)),
    "splitting.unit_primitives_calls": (CALLS, ("splitting._unit_primitives",)),
    "definitions.load_s": (SELF, (
        "definitions._load_json", "definitions.load_coalgebra", "definitions.load_comodule",
        "definitions.load_map", "definitions.load_bundle",
    )),
    "definitions.load_calls": (CALLS, ("definitions._load_json",)),
}
# Whole-layer self time of one pass, and of one command kind within a pass.
LAYER_METRICS = {f"{layer}.self_s": (layer, None) for layer in LAYERS if layer != "generators"}
LAYER_METRICS["cli.split_self_s"] = ("cli", "split")
LAYER_METRICS["cli.certify_self_s"] = ("cli", "certify")
# Layer self time of one set-up.
SETUP_METRICS = {"generators.bundle_s": "generators", "definitions.write_bundle_s": "definitions"}


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest nearest-rank percentile with at least ten samples above
    it, as (value, percentile).  Below 20 samples that percentile would lie
    under the median, so the maximum stands in for it."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return (xs[-1] if xs else 0.0), 100
    q = 100 * (n - 10) // n
    return xs[max(-(-q * n // 100), 1) - 1], q


def report_ok(stdout: str) -> bool:
    try:
        return json.loads(stdout).get("ok") is True
    except (ValueError, AttributeError):
        return False


class Bench:
    def __init__(self, args):
        self.args = args
        self.workdir = WORK / f"{args.workload}-{os.getpid()}"
        self.bundle_dir = self.workdir / "bundles"
        self.cert_dir = self.workdir / "certs"
        # bundle name -> {"exit": expected split exit code, "sha256": certificate digest}
        self.expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))[args.workload]
        self.ops: list[dict] = []  # one record per CLI command
        self.problems: list[str] = []
        self.tracer = None

    # -- program under test ---------------------------------------------------

    def load_package(self) -> None:
        src = ROOT / "src"
        if not (src / "comodule_splitter" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no package source under {src}")
        sys.path.insert(0, str(src))
        import comodule_splitter

        if Path(comodule_splitter.__file__).resolve().parent != src / "comodule_splitter":
            raise SystemExit(f"perfbench: imported {comodule_splitter.__file__}, not {src}")
        self.modules = {layer: importlib.import_module(f"comodule_splitter.{layer}") for layer in LAYERS}
        # A separate CLI process starts with empty caches; so does each command here.
        self.caches = list({
            id(v): v for m in sys.modules.values()
            if m is not None and m.__name__.startswith("comodule_splitter")
            for v in vars(m).values() if callable(getattr(v, "cache_clear", None))
        }.values())

    # -- set-up -----------------------------------------------------------------

    def set_up(self) -> float:
        shutil.rmtree(self.bundle_dir, ignore_errors=True)
        gc.collect()
        gen = self.modules["generators"]
        write_bundle = self.modules["definitions"].write_bundle
        t0 = perf_counter()
        bundles = WORKLOADS[self.args.workload][1](gen)
        for b in bundles:
            write_bundle(b, str(self.bundle_dir))
        elapsed = perf_counter() - t0
        self.names = sorted(b.name for b in bundles)
        return elapsed

    # -- one CLI command ----------------------------------------------------------

    def command(self, kind: str, name: str, argv: list[str], traced: bool, pass_no: int) -> dict:
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        op = {"id": len(self.ops), "kind": kind, "bundle": name, "pass": pass_no, "traced": traced}
        if traced:
            self.tracer.op = op["id"]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.modules["cli"].main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            rc = None
            err.write(traceback.format_exc())
        op["wall"] = perf_counter() - t0
        if traced:
            self.tracer.op = None
        op.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())
        self.ops.append(op)
        return op

    def fail(self, op: dict, why: str) -> None:
        op["failed"] = True
        self.problems.append(f"{op['kind']} {op['bundle']} (pass {op['pass']}): {why}")

    def run_pass(self, pass_no: int, order: list[str], traced: bool) -> None:
        bd = self.bundle_dir
        for name in order:
            comodule, fmap = str(bd / f"{name}.comodule.json"), str(bd / f"{name}.map.json")
            cert = self.cert_dir / f"{name}.cert.json"
            if cert.exists():
                cert.unlink()
            split = self.command("split", name, ["split", comodule, fmap, "--out", str(cert)], traced, pass_no)
            want = self.expected[name]["exit"]
            if split["rc"] != want:
                self.fail(split, f"exit {split['rc']}, expected {want}: {split['stderr'].strip()[-300:]}")
                continue
            if want != 0:
                if cert.exists():
                    self.fail(split, "a refused split wrote a certificate")
                continue
            data = cert.read_bytes()
            split["cert_bytes"] = len(data)
            if hashlib.sha256(data).hexdigest() != self.expected[name]["sha256"]:
                self.fail(split, "certificate sha256 differs from expected.json")
                continue
            check = self.command("certify", name, ["certify", str(cert), comodule, fmap], traced, pass_no)
            if check["rc"] != 0 or not report_ok(check["stdout"]):
                self.fail(check, f"exit {check['rc']}: {check['stdout'][-300:]}{check['stderr'][-300:]}")
            else:
                split["certified"] = True
        corpus = self.command("corpus", "*", ["corpus", "--dir", str(bd)], traced, pass_no)
        lines = corpus["stdout"].splitlines()
        passed = sorted(ln.split()[1].rstrip(":") for ln in lines if ln.startswith("PASS "))
        if corpus["rc"] != 0 or len(lines) != len(self.names) or passed != self.names:
            self.fail(corpus, f"exit {corpus['rc']}: {corpus['stdout'][-300:]}{corpus['stderr'][-300:]}")

    # -- the run ---------------------------------------------------------------------

    def run(self) -> int:
        self.load_package()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.cert_dir.mkdir(parents=True)
        try:
            return self._run()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self) -> int:
        args = self.args
        traced_run = args.trace == 1
        if traced_run:
            self.tracer = Tracer()
        setup_times, setup_spans = [], []
        while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
        ):
            if traced_run:
                self.tracer.install(self.modules)
                first = len(self.tracer.spans)
            setup_times.append(self.set_up())
            if traced_run:
                self.tracer.uninstall()
                setup_spans.append((first, len(self.tracer.spans)))
        if self.names != sorted(self.expected):
            raise SystemExit(f"perfbench: bundles {self.names} do not match expected.json")
        rng = random.Random(args.seed)
        passes: list[dict] = []
        t0 = perf_counter()
        while True:
            traced = traced_run and len(passes) % 2 == 0
            order = list(self.names)
            rng.shuffle(order)
            start_op = len(self.ops)
            if traced:
                self.tracer.install(self.modules)
            p0 = perf_counter()
            self.run_pass(len(passes), order, traced)
            wall = perf_counter() - p0
            if traced:
                self.tracer.uninstall()
            passes.append({"traced": traced, "wall": wall, "ops": self.ops[start_op:]})
            elapsed = perf_counter() - t0
            if self.problems or (elapsed >= args.seconds and (not traced_run or len(passes) >= 2)):
                break
        failed = sum(1 for op in self.ops if op.get("failed"))
        attempted = max(len(self.ops), 1)
        info = {
            "workload": args.workload,
            "generator": WORKLOADS[args.workload][0],
            "seed": args.seed,
            "seconds": args.seconds,
            "passes": len(passes),
            "measured_s": perf_counter() - t0,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": sum(
                len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src").rglob("*.py"))
            ),
            "failed_share": f"{failed / attempted} ({failed} of {attempted} operations)",
        }
        if traced_run:
            metrics = self.layer_metrics(passes, setup_spans, info)
        else:
            metrics = self.end_to_end(setup_times, info)
        info["problems"] = self.problems[:20]
        correct = failed == 0 and not self.problems
        WORK.mkdir(exist_ok=True)
        # One file per workload and mode, overwritten by the next such run.
        tag = f"{args.workload}-trace{args.trace}"
        (WORK / f"result-{tag}.json").write_text(
            json.dumps({"info": info, "metrics": metrics}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if traced_run:
            self.tracer.write(WORK / f"trace-{tag}.jsonl")
        for key in sorted(info):
            if key != "samples_s":
                print(f"# {key}: {info[key]}")
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        }, sort_keys=True))
        return 0 if correct else 1

    # -- metrics -------------------------------------------------------------------

    def end_to_end(self, setup_times, info) -> dict:
        walls = {kind: [op["wall"] for op in self.ops if op["kind"] == kind]
                 for kind in ("split", "certify", "corpus")}

        def typical(kind: str) -> float:
            # The median over bundles of each bundle's median.  Pooling the
            # corpus bundles instead puts the median in a gap between two
            # bundles' clusters whenever their count is even.
            per_bundle: dict[str, list[float]] = {}
            for op in self.ops:
                if op["kind"] == kind:
                    per_bundle.setdefault(op["bundle"], []).append(op["wall"])
            return median([median(v) for v in per_bundle.values()])

        certified = sum(1 for op in self.ops if op.get("certified"))
        busy = sum(walls["split"]) + sum(walls["certify"])
        values = {
            "setup_s": median(setup_times),
            "split_s": typical("split"),
            "certify_s": typical("certify"),
            "corpus_s": typical("corpus"),
            "certs_per_s": certified / busy if busy else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for kind in ("split", "certify"):
            value, pct = tail(walls[kind])
            values[f"{kind}_tail_s"] = value
            info[f"{kind}_tail"] = f"p{pct} of {len(walls[kind])} samples"
        info["samples_s"] = {"setup": setup_times, **walls}
        return {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}

    def layer_metrics(self, passes, setup_spans, info) -> dict:
        spans = self.tracer.spans
        own = self.tracer.self_times()
        kinds = {op["id"]: op["kind"] for op in self.ops}
        by_op: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s[1] is not None:
                by_op.setdefault(s[1], []).append(i)
        per_pass = []
        for p in passes:
            if not p["traced"]:
                continue
            idx = [i for op in p["ops"] for i in by_op.get(op["id"], ())]
            row = {}
            for metric, (what, names) in SPAN_METRICS.items():
                hits = [i for i in idx if spans[i][0] in names]
                if what == SELF:
                    row[metric] = sum(own[i] for i in hits)
                elif what == CALLS:
                    row[metric] = len(hits)
                else:
                    row[metric] = sum((spans[i][5] or {}).get(what, 0) for i in hits)
            for metric, (layer, kind) in LAYER_METRICS.items():
                row[metric] = sum(
                    own[i] for i in idx
                    if spans[i][0].startswith(layer + ".") and (kind is None or kinds[spans[i][1]] == kind)
                )
            row["definitions.cert_bytes"] = sum(op.get("cert_bytes", 0) for op in p["ops"])
            row["trace.spans"] = len(idx)
            for op in p["ops"]:
                op["self_sum"] = sum(own[i] for i in by_op.get(op["id"], ()))
            per_pass.append(row)
        counts = [k for k in per_pass[0] if k.endswith(("_calls", "_target_dim", "cert_bytes", "spans"))]
        for row in per_pass[1:]:
            diff = [k for k in counts if row[k] != per_pass[0][k]]
            if diff:
                self.problems.append(f"counts differ between traced passes: {diff}")
        traced_walls = [p["wall"] for p in passes if p["traced"]]
        plain_walls = [p["wall"] for p in passes if not p["traced"]]
        overhead = median(traced_walls) / median(plain_walls) if plain_walls else 0.0
        traced_ops = [op for p in passes if p["traced"] for op in p["ops"]]
        slack = max(overhead - 1.0, 0.01)
        for op in traced_ops:
            if abs(op["wall"] - op["self_sum"]) > slack * op["wall"] + 1e-3:
                self.problems.append(
                    f"self times of {op['kind']} {op['bundle']} add up to {op['self_sum']:.4f} s"
                    f" of {op['wall']:.4f} s wall"
                )
        values = {
            k: per_pass[0][k] if k in counts else median([row[k] for row in per_pass])
            for k in per_pass[0]
        }
        for metric, layer in SETUP_METRICS.items():
            values[metric] = median([
                sum(own[i] for i in range(a, b) if spans[i][0].startswith(layer + "."))
                for a, b in setup_spans
            ])
        values["trace.overhead_ratio"] = overhead
        values["trace.self_sum_share"] = (
            sum(op["self_sum"] for op in traced_ops) / sum(op["wall"] for op in traced_ops)
        )
        info["traced_passes"] = len(per_pass)
        info["tracing_overhead"] = f"{overhead:.4f}x (traced vs untraced pass wall time)"

        def unit(name: str) -> str:
            if name.endswith("_s"):
                return "s"
            if name.endswith("cert_bytes"):
                return "bytes"
            if name.startswith("trace.") and not name.endswith("spans"):
                return "ratio"
            return "count"

        return {k: {"value": values[k], "unit": unit(k)} for k in sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return Bench(args).run()


if __name__ == "__main__":
    sys.exit(main())
