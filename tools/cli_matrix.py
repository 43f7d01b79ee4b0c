"""Run a fixed matrix of ddopkit CLI invocations and record every outcome.

A refactor is accepted when this matrix stays byte-identical: run it on the
source tree before and after the change and compare the two files.

    python tools/cli_matrix.py SRC_DIR OUT.json      # SRC_DIR holds the ddopkit package
    python tools/cli_matrix.py --compare A.json B.json

The first form imports ddopkit from SRC_DIR, runs ``cli.main`` in-process on
each case and writes ``{argv: [exit code, stdout, stderr]}`` as JSON, argv
joined by spaces. The second prints every case whose record differs, or is
missing from one file, and exits 1 if there is any.

The cases: the 7 family aliases x ``--subpulse rrc|btrrc`` x beta in
{0, 0.5, 1} x synth/metrics/verify/``sweep --vary beta --steps 3`` x csv/json
at ``--M 64 --N 8 --oversample 8`` (``--Q 40`` for gddop; the sweep sets beta
itself, so its argv has no ``--beta``), plus metrics and verify of the otfs
family at M = 32, N = 8 for ``--otfs-m`` 0, 5 and 31: 286 distinct cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

ALIASES = ("rrc", "btrrc", "ddop", "gddop", "tdm", "fdm", "otfs")


def cases() -> list[list[str]]:
    out: dict[str, list[str]] = {}
    for family in ALIASES:
        size = ["--M", "64", "--N", "8", "--oversample", "8"] + (["--Q", "40"] if family == "gddop" else [])
        for subpulse in ("rrc", "btrrc"):
            pulse = ["--family", family, "--subpulse", subpulse] + size
            for fmt in ("csv", "json"):
                for beta in ("0", "0.5", "1"):
                    for command in ("synth", "metrics", "verify"):
                        argv = [command, *pulse, "--beta", beta, "--format", fmt]
                        out.setdefault(" ".join(argv), argv)
                argv = ["sweep", "--vary", "beta", "--steps", "3", *pulse, "--format", fmt]
                out.setdefault(" ".join(argv), argv)
    for command in ("metrics", "verify"):
        for m in ("0", "5", "31"):
            argv = [command, "--family", "otfs", "--M", "32", "--N", "8", "--oversample", "8", "--otfs-m", m]
            out.setdefault(" ".join(argv), argv)
    return list(out.values())


def run_matrix(src: str) -> dict[str, list]:
    sys.path.insert(0, src)
    from ddopkit import cli

    records = {}
    for argv in cases():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        records[" ".join(argv)] = [rc, stdout.getvalue(), stderr.getvalue()]
    return records


def compare(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(a.keys() | b.keys())} cases differ")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    records = run_matrix(argv[0])
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(records, fh, ensure_ascii=False, indent=1, sort_keys=True)
    print(f"{len(records)} cases written to {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
