"""Regenerate the reference outputs every op is checked against.

    python3 perfbench/make_reference.py

Runs each workload once per grid point (every beta, every sweep start) and
writes perfbench/reference/<workload>.json. The committed files were taken
at the commit the benchmark was defined on; regenerate them only when a
change to the program's outputs is intended, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import source_digest  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, Op, all_inputs, parse_rows, scan_digest  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        outputs = {}
        for inputs in all_inputs(workload):
            rc, raw = Op(inputs)()
            if rc != 0:
                print(f"{workload} {inputs.key}: exit code {rc}: {raw}", file=sys.stderr)
                return 1
            if workload == "ortho_scan":
                outputs[inputs.key] = scan_digest(raw)
            else:
                rows = parse_rows(raw)
                bad = [r["parameter"] for r in rows if r["status"] != "ok"]
                if bad:
                    print(f"{workload} {inputs.key}: failed rows {bad}", file=sys.stderr)
                    return 1
                outputs[inputs.key] = [{k: r[k] for k in ("parameter", "dT", "dF", "capture")}
                                       for r in rows]
            print(f"{workload} {inputs.key} done", flush=True)
        doc = {"src_sha256": source_digest(), "argv_or_call": _describe(workload), "outputs": outputs}
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


def _describe(workload: str) -> str:
    inputs = all_inputs(workload)[0]
    if inputs.argv:
        return "ddopkit " + " ".join(inputs.argv) + "  (beta keys vary)"
    return "experiments.orthogonality_scan(PulseSpec(M=256, N=64, beta=key), 26, 32)"


if __name__ == "__main__":
    sys.exit(main())
