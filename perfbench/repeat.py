"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload W --seeds 1-10 [--seconds R] [--trace 1] [--out F]

For each metric prints the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median. With --out, writes the per-run values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / abs(median) if median else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["notes"] = [l for l in lines[:-1] if l.startswith(("note:", "largest"))]
        runs.append(result)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {vals}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {spread} {s['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                              "trace": args.trace, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
