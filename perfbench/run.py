"""ddopkit benchmark: times the paper's workflow as users run it.

    python3 perfbench/run.py --workload W --seed S --seconds R --trace 0|1
    python3 perfbench/run.py --workload all --seconds R   # every workload in turn
    python3 perfbench/run.py --self-test

Runs from the root of a source checkout and imports the package from src/.
Each run starts CHILDREN fresh processes one after another; each imports the
package, runs one untimed op (set-up) and a second of untimed warm-up ops,
then loops for R/CHILDREN seconds.
Latencies are pooled over the children; set-up time and peak RSS are the
median over them. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it give
every metric with its unit, the drift from the stored reference outputs and
the environment. Exits 2 without a result if the package or the references
are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ddopkit"
CHILDREN = 3
# Three children must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 55

sys.path.insert(0, str(HERE))
from tracer import Hook, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXACT_COUNTS, PER_LAYER, REFERENCE_DIR, WORKLOADS, unmeasured_metrics,
)

END_TO_END = {
    # name: (unit, better)
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "cpu_s_per_op": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
# Printed with the others but kept out of the JSON metrics: it is 0 whenever
# the program is correct, and the JSON's attempted/failed already carry it.
FAIL_RATIO = ("fail_ratio", "ratio")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _tail(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples above it.

    Returns (value, percentile, samples beyond); needs at least 11 samples,
    otherwise reports the largest sample as p100 with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    index = max(0, math.ceil(pct / 100 * n) - 1)
    return ordered[index], pct, n - 1 - index


def _git_commit() -> str | None:
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run([git, "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 prefix of the package sources, to tell builds apart outside git."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _nproc() -> int | None:
    tool = shutil.which("nproc")
    if tool is None:
        return None
    try:
        return int(subprocess.run([tool], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def environment() -> dict:
    """Versions, CPU counts and thread settings as found; nothing is pinned."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "DDOP_THREADS": os.environ.get("DDOP_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
    }


def run_children(workload: str, seed: int, seconds: float, trace: int, children: int = CHILDREN,
                 quick: bool = False, perturb_dF: float = 0.0) -> list[dict]:
    """Run the measuring processes one after another; quick skips the warm-up."""
    results = []
    for _ in range(children):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds / children), "--trace", str(trace)]
        if quick:
            cmd += ["--warmup", "0"]
        if perturb_dF:
            cmd += ["--perturb-dF", repr(perturb_dF)]
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"measuring process exceeded {CHILD_TIMEOUT_S} s")
        if out.returncode != 0:
            raise BenchError(f"measuring process exited {out.returncode}:\n{out.stderr[-2000:]}")
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return results


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def aggregate(workload: str, trace: int, results: list[dict]) -> dict:
    """Combine the children's raw samples into the printed result."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    drift: dict[str, float] = {}
    for r in results:
        for key, value in r["drift"].items():
            drift[key] = max(drift.get(key, 0.0), value)
    plain = [x for r in results for x in r["samples"]["plain"]]
    notes = []

    metrics: dict[str, dict] = {}
    if not trace:
        wall = sum(r["loop_wall_s"] for r in results)
        ops = sum(r["loop_ops"] for r in results)
        tail, pct, beyond = _tail(plain) if plain else (0.0, 0, 0)
        values = {
            "latency_p50_s": _median(plain),
            "latency_tail_s": tail,
            "ops_per_s": len(plain) / wall if wall > 0 else 0.0,
            "cpu_s_per_op": sum(r["loop_cpu_s"] for r in results) / ops if ops else 0.0,
            "peak_rss_mib": _median([r["peak_rss_kib"] / 1024 for r in results]),
            "setup_s": _median([r["setup_s"] for r in results]),
        }
        for name, (unit, _) in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        notes.append(f"latency_tail_s is p{pct}: {beyond} of {len(plain)} samples beyond it")
    else:
        layers = [row for r in results for row in r["layers"]]
        traced = [x for r in results for x in r["samples"]["traced"]]
        serial = [x for r in results for x in r["samples"]["serial"]]
        values = {name: _median([row[name] for row in layers]) for name in PER_LAYER
                  if layers and name in layers[0]}
        for name in EXACT_COUNTS:
            distinct = {row[name] for row in layers}
            if len(distinct) > 1:
                notes.append(f"{name} varied between ops: {sorted(distinct)}")
        values["experiments.pool_speedup"] = (
            _median(serial) / _median(plain) if serial and plain else 0.0)
        values["trace.overhead_s"] = _median(traced) - _median(plain) if traced and plain else 0.0
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        notes.append(f"traced ops: {len(traced)}, untraced: {len(plain)}, "
                     f"untraced with DDOP_THREADS=1: {len(serial)}")
        unmeasured = sorted({h for r in results for h in r["unmeasured"]})
        if unmeasured:
            notes.append(f"unmeasured (hooks not found: {', '.join(unmeasured)}): "
                         f"{', '.join(unmeasured_metrics(unmeasured)) or 'none'}")
    if not all(r["energy_checked"] for r in results):
        notes.append("unit-energy check skipped: synth_pulse hooks not found")
    reasons = [x for r in results for x in r["reasons"]][:5]
    return {
        "workload": workload,
        "keys": sorted({r["key"] for r in results}),
        "attempted": attempted,
        "failed": failed,
        "drift": drift,
        "metrics": metrics,
        "notes": notes,
        "reasons": reasons,
        "correct": failed == 0 and attempted > 0,
    }


def report(summary: dict, env: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload {summary['workload']} (reference keys {', '.join(summary['keys'])})")
    for name, m in summary["metrics"].items():
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']}")
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"  {FAIL_RATIO[0]:34s} {ratio:<14.6g} {FAIL_RATIO[1]}"
          f"   ({summary['failed']} of {summary['attempted']} ops failed)")
    drift = ", ".join(f"{k} {v:.3g}" for k, v in sorted(summary["drift"].items()))
    print(f"largest relative drift from the reference: {drift or 'n/a'}")
    for line in summary["notes"]:
        print(f"note: {line}")
    for line in summary["reasons"]:
        print(f"failure: {line}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": summary["metrics"]}))


def self_test() -> int:
    """Seconds-long check of the harness itself; exit 0 when all hold."""
    env = environment()
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace in (0, 1):
            results = run_children(workload, 1, 0.01, trace, 1, quick=True)
            summary = aggregate(workload, trace, results)
            report(summary, env)
            names = declared["per_layer" if trace else "end_to_end"]
            for entry in names:
                got = summary["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{workload}: {entry['name']} missing or unit differs")
            if summary["failed"] or not summary["correct"]:
                problems.append(f"{workload} trace {trace}: fail_ratio is not 0")
    results = run_children("metrics_train", 1, 0.01, 0, 1, quick=True, perturb_dF=1e-5)
    control = aggregate("metrics_train", 0, results)
    if control["failed"] != 1 or control["correct"]:
        problems.append("negative control (ΔF perturbed by 1e-5) was not counted as a failure")
    tracer = Tracer()
    tracer.install([Hook("json", "no_such_function", "x"), Hook("no_such_module", "f", "x")])
    tracer.uninstall()
    if tracer.unmeasured != ["json.no_such_function", "no_such_module.f"]:
        problems.append(f"missing hooks not reported as unmeasured: {tracer.unmeasured}")
    # A refactor that folds synth_pulse away leaves the synthesis layer unmeasured.
    gone = unmeasured_metrics(["ddopkit.cli.synth_pulse", "ddopkit.experiments.synth_pulse"])
    if gone != ["pulses.samples", "pulses.synth_calls", "pulses.synth_s"]:
        problems.append(f"unmeasured metrics for a missing synth_pulse: {gone}")
    for line in problems:
        print(f"self-test FAILED: {line}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn (one report each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (PACKAGE / "__init__.py").is_file():
            raise BenchError(f"no package source at {PACKAGE.relative_to(ROOT)}")
        if not REFERENCE_DIR.is_dir():
            raise BenchError("reference outputs missing")
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        env = environment()
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in chosen:
            results = run_children(workload, args.seed, args.seconds, args.trace)
            report(aggregate(workload, args.trace, results), env)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
