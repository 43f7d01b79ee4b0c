"""One measuring process: import the package, run the untimed first op (and
for workloads in PRELUDE one untimed op of another workload), WARMUP_S
seconds of untimed warm-up ops, then ops in a closed loop until the
deadline. Prints one JSON line of raw samples for run.py to aggregate.

    python3 perfbench/child.py --workload W --seed S --seconds X --trace 0|1

With --trace 1 the loop cycles three kinds of op: untraced, traced, and
untraced with DDOP_THREADS=1 (for the pool speed-up). Every op is checked.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ddopkit.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _T0

from tracer import Tracer, profile  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_HOOKS, HOOKS, PRELUDE, Op, check, layer_values, load_reference, make_inputs,
)


WARMUP_S = 1.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup", type=float, default=WARMUP_S)
    parser.add_argument("--perturb-dF", type=float, default=0.0)
    args = parser.parse_args()

    inputs = make_inputs(args.workload, args.seed)
    job = (Op(inputs), load_reference(args.workload)[inputs.key])
    tracer = Tracer()
    tracer.install(HOOKS if args.trace else CHECK_HOOKS)
    energy_tapped = not any(h.target in tracer.unmeasured for h in CHECK_HOOKS)

    attempted = failed = 0
    reasons: list[str] = []
    drift: dict[str, float] = {}

    def run(kind: str, job=job) -> float | None:
        """One checked op; returns its latency, or None if it failed."""
        nonlocal attempted, failed
        op, ref = job
        found = os.environ.get("DDOP_THREADS")
        if kind == "serial":
            os.environ["DDOP_THREADS"] = "1"
        tracer.reset()
        tracer.recording = kind == "traced"
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                rc, raw = op()
            error = None
        except Exception as exc:  # the op's failure is the measurement
            rc, raw, error = None, None, f"raised {type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - start
            tracer.recording = False
            if kind == "serial":
                if found is None:
                    del os.environ["DDOP_THREADS"]
                else:
                    os.environ["DDOP_THREADS"] = found
        attempted += 1
        if error is None:
            energies = tracer.notes.get("energy", []) if energy_tapped else None
            problems, op_drift = check(op.inputs, rc, raw, energies, ref,
                                       args.perturb_dF if attempted == 1 else 0.0)
            for key, value in op_drift.items():
                drift[key] = max(drift.get(key, 0.0), value)
        else:
            problems = [error]
        if problems:
            failed += 1
            reasons.extend(problems[: max(0, 5 - len(reasons))])
            return None
        return latency

    setup_op = run("plain")
    setup_s = IMPORT_S + setup_op if setup_op is not None else None
    # Peak RSS of a fresh process through import and one op. Later ops could
    # only raise it when two pool workers happen to peak together, which
    # makes a whole-run peak depend on how many ops the run fits in.
    setup_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload in PRELUDE:
        before = make_inputs(PRELUDE[args.workload], args.seed)
        run("plain", (Op(before), load_reference(before.workload)[before.key]))
    # Untimed warm-up: the allocator takes a few ops to settle (the second
    # and third metrics_train ops are about 40% slower than the rest).
    warm_until = time.perf_counter() + args.warmup
    while time.perf_counter() < warm_until:
        run("plain")

    kinds = ("plain", "traced", "serial") if args.trace else ("plain",)
    samples: dict[str, list[float]] = {k: [] for k in kinds}
    layers: list[dict] = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    deadline = wall0 + args.seconds
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        i += 1
        latency = run(kind)
        if latency is not None:
            samples[kind].append(latency)
            if kind == "traced":
                root = next(s for s in tracer.spans if s.name == "op")
                prof = profile(tracer.spans, root.sid)
                layers.append(layer_values(inputs, prof, tracer.notes))
        if time.perf_counter() >= deadline and i >= len(kinds):
            break
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    tracer.uninstall()

    print(json.dumps({
        "key": inputs.key,
        "setup_s": setup_s,
        "loop_wall_s": wall,
        "loop_cpu_s": cpu,
        "loop_ops": i,
        "samples": samples,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "drift": drift,
        "energy_checked": energy_tapped,
        "unmeasured": tracer.unmeasured,
        "peak_rss_kib": setup_rss_kib,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
