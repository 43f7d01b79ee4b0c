"""Run a fixed matrix of ddopkit CLI invocations and record every outcome.

A refactor is accepted when this matrix stays byte-identical: run it on the
source tree before and after the change and compare the two files.

    python tools/cli_matrix.py SRC_DIR OUT.json      # SRC_DIR holds the ddopkit package
    python tools/cli_matrix.py --compare A.json B.json

The first form imports ddopkit from SRC_DIR, runs ``cli.main`` in-process on
each case and writes ``{argv: [exit code, stdout, stderr]}`` as JSON, argv
joined by spaces. The second prints every case whose record differs, or is
missing from one file, and exits 1 if there is any. A changed case whose
records differ only in numbers is printed with its largest move: per output
column (CSV) or key (JSON), the largest difference over the column's largest
magnitude in A. The ``_pct`` columns, percent differences of nearly equal
numbers, are reported apart, as their largest absolute move in percentage
points. A CSV cell is printed to 12 significant digits, so a move of
at most one unit in its 12th digit may be a rounding flip of a far smaller
move; such cells are reported apart, as rounding flips, and only the other
moves (every JSON number among them) count as the case's largest move.

The cases: the 7 family aliases x ``--subpulse rrc|btrrc`` x beta in
{0, 0.5, 1} x synth/metrics/verify/``sweep --vary beta --steps 3`` x csv/json
at ``--M 64 --N 8 --oversample 8`` (``--Q 40`` for gddop; the sweep sets beta
itself, so its argv has no ``--beta``), plus metrics and verify of the otfs
family at M = 32, N = 8 for ``--otfs-m`` 0, 5 and 31: 286 cases, all at T = 1
on power-of-two grids. Then json synth and metrics of each alias off those
grids, at ``--M 64 --N 8 --oversample 8 --T 0.37`` and at
``--M 33 --N 7 --oversample 5`` (``--Q 40`` for gddop, ``--otfs-m 5 --otfs-n 2``
for otfs): 28 more. Then verify of gddop at ``--M 16 --N 4 --Q 40
--oversample 8`` for ``--subpulse rrc`` and ``btrrc``, whose sub-pulses span
2Q/M = 5 symbol periods, so the orthogonality scan sums many lags per delay
row. Then json metrics of the default 256 x 64 ddop train, whose sub-pulse
of w = 416 samples fits in g = gcd(L, P) = 512: rrc at beta 0, 0.5 and 1,
btrrc at beta 0.5, and rrc at ``--T 0.37``; and of the otfs family at
``--M 32 --N 8 --oversample 8 --otfs-m 5 --otfs-n 2``, a complex pulse;
and two trains whose sub-pulse is wider than g, so their band kernel reads
its g-point sums at lags past g: the btrrc ``--N 8`` train at the default
M = 256 (g = 32, w = 416) and gddop at ``--M 32 --N 8 --oversample 8``
(g = 1, an odd L). Then the benchmark's 11-point btrrc beta sweep of the
default M = 256, N = 8 train, long enough that a threaded BLAS would split
its sums, and json ``sweep --vary q --steps 3`` at ``--M 64 --N 8
--oversample 8`` (Q 1, 8 and 64), whose points each read their own
spectrum layout and whose Q = 64 row fails. Then json metrics of gddop at
``--M 16 --N 4 --Q 256 --oversample 8`` for ``--subpulse rrc`` and
``btrrc``, whose sub-pulses span 32 symbol periods, so ΔT sums 3 lags of
overlapping sub-pulses. Then verify of ``--M 32 --N 8 --band 1e-9`` (a
band of one bin) and of ``--family tdm --M 16 --N 2 --oversample 1
--zero-pad 1`` (one band bin with energy), where the metrics and the
sampled measurement both reject the band. Then json metrics of the btrrc sub-pulse at ``--M 64
--N 8``: at ``--beta 5e-324``, where both rolloff branches are empty, and
at ``--Q 2500 --beta 0.05 --oversample 1``, a sub-pulse 78 symbol periods
long. Last, metrics of two fdm trains whose band holds one bin with energy,
the rest exact zeros of the spectrum: ``--M 45 --N 2 --oversample 1
--zero-pad 1``, and ``--M 16 --N 4 --oversample 4 --zero-pad 1 --band
10000``, a band wider than every bin; and json metrics of ``--M 251 --N
16``, whose g = gcd(L, P) is 16, so its comb repeats only every R = L/g
bins. Then json metrics and verify of gddop at ``--M 4 --N 4 --Q 256
--oversample 16``, whose sub-pulses span 128 symbol periods, so ΔT and
the scan's energy sum 127 lags of overlapping sub-pulses and the scan's
delay rows 257. Last, json metrics of the default train at ``--band
0.5``, whose 253 band bins are fewer than its w = 416 sub-pulse samples,
so the rows that find lit bins, not the count of bins with comb weight,
show that two bins carry energy. Then verify of ``--family fdm --M 45
--N 2 --oversample 1 --zero-pad 1``, whose band the metrics reject while
the sampled spectrum, holding rounding where the train's spectrum holds
exact zeros, accepts it; and of ``--M 32 --N 8 --band 40``, a configured
band that measures, while the family orderings keep their default bands.
Last, metrics of the btrrc sub-pulse at ``--M 32 --Q 16 --beta 0.5
--oversample 4``, whose upper branch needs a degree-64 rule. Then the
``--metric`` line of ``sweep --vary q --steps 3 --M 64 --N 8 --oversample
8`` for each of dT, dF, dA and k; the tdm beta sweep above (rrc, csv) with
``--metric dT``, whose ΔT is only a bound, so no row compares and the run
exits 2; json ``sweep --vary mn`` over the default (M, N) grid; ``metrics
--M 32 --N 8 --tolerance 0``, which exits 1 with every metric over the
tolerance; and ``--help`` of each subcommand, with ``COLUMNS`` pinned to 80
so the help text wraps the same in any terminal: 352 distinct cases.
Every train is measured from its parts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from decimal import Decimal
from typing import NamedTuple

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
    for family in ALIASES:
        extra = {"gddop": ["--Q", "40"], "otfs": ["--otfs-m", "5", "--otfs-n", "2"]}.get(family, [])
        for size in (["--M", "64", "--N", "8", "--oversample", "8", "--T", "0.37"],
                     ["--M", "33", "--N", "7", "--oversample", "5"]):
            for command in ("synth", "metrics"):
                argv = [command, "--family", family, *size, *extra, "--format", "json"]
                out.setdefault(" ".join(argv), argv)
    for subpulse in ("rrc", "btrrc"):
        argv = ["verify", "--family", "gddop", "--subpulse", subpulse,
                "--M", "16", "--N", "4", "--Q", "40", "--oversample", "8"]
        out.setdefault(" ".join(argv), argv)
    for pulse in (["--subpulse", "rrc", "--beta", "0"], ["--subpulse", "rrc", "--beta", "0.5"],
                  ["--subpulse", "rrc", "--beta", "1"], ["--subpulse", "btrrc", "--beta", "0.5"],
                  ["--T", "0.37"],
                  ["--family", "otfs", "--M", "32", "--N", "8", "--oversample", "8",
                   "--otfs-m", "5", "--otfs-n", "2"],
                  ["--subpulse", "btrrc", "--N", "8"],
                  ["--family", "gddop", "--M", "32", "--N", "8", "--oversample", "8"]):
        argv = ["metrics", *pulse, "--format", "json"]
        out.setdefault(" ".join(argv), argv)
    for argv in (["sweep", "--vary", "beta", "--steps", "11", "--subpulse", "btrrc", "--N", "8",
                  "--from", "0.2", "--to", "0.7", "--format", "csv"],
                 ["sweep", "--vary", "q", "--steps", "3", "--M", "64", "--N", "8", "--oversample", "8",
                  "--format", "json"],
                 *(["metrics", "--family", "gddop", "--subpulse", subpulse, "--M", "16", "--N", "4",
                    "--Q", "256", "--oversample", "8", "--format", "json"] for subpulse in ("rrc", "btrrc")),
                 ["verify", "--M", "32", "--N", "8", "--band", "1e-9"],
                 ["verify", "--family", "tdm", "--M", "16", "--N", "2", "--oversample", "1", "--zero-pad", "1"],
                 ["metrics", "--family", "btrrc", "--M", "64", "--N", "8", "--beta", "5e-324", "--format", "json"],
                 ["metrics", "--family", "btrrc", "--M", "64", "--N", "8", "--Q", "2500", "--beta", "0.05",
                  "--oversample", "1", "--format", "json"],
                 ["metrics", "--family", "fdm", "--M", "45", "--N", "2", "--oversample", "1", "--zero-pad", "1"],
                 ["metrics", "--family", "fdm", "--M", "16", "--N", "4", "--oversample", "4", "--zero-pad", "1",
                  "--band", "10000"],
                 ["metrics", "--M", "251", "--N", "16", "--format", "json"],
                 ["metrics", "--family", "gddop", "--M", "4", "--N", "4", "--Q", "256", "--oversample", "16",
                  "--format", "json"],
                 ["verify", "--family", "gddop", "--M", "4", "--N", "4", "--Q", "256", "--oversample", "16"],
                 ["metrics", "--band", "0.5", "--format", "json"],
                 ["verify", "--family", "fdm", "--M", "45", "--N", "2", "--oversample", "1", "--zero-pad", "1"],
                 ["verify", "--M", "32", "--N", "8", "--band", "40"],
                 ["metrics", "--family", "btrrc", "--M", "32", "--Q", "16", "--beta", "0.5", "--oversample", "4"],
                 *(["sweep", "--vary", "q", "--steps", "3", "--M", "64", "--N", "8", "--oversample", "8",
                    "--metric", metric] for metric in ("dT", "dF", "dA", "k")),
                 ["sweep", "--vary", "beta", "--steps", "3", "--family", "tdm", "--subpulse", "rrc",
                  "--M", "64", "--N", "8", "--oversample", "8", "--format", "csv", "--metric", "dT"],
                 ["sweep", "--vary", "mn", "--format", "json"],
                 ["metrics", "--M", "32", "--N", "8", "--tolerance", "0"],
                 *([command, "--help"] for command in ("synth", "metrics", "sweep", "verify"))):
        out.setdefault(" ".join(argv), argv)
    return list(out.values())


def run_matrix(src: str) -> dict[str, list]:
    sys.path.insert(0, src)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
    from ddopkit import cli

    records = {}
    for argv in cases():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        records[" ".join(argv)] = [rc, stdout.getvalue(), stderr.getvalue()]
    return records


def _columns(text: str) -> dict[str, list] | None:
    """An output's values by CSV column or JSON key, or None if it has neither."""
    try:
        doc = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        if not lines or "," not in lines[0]:
            return None
        doc = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    if isinstance(doc, dict):
        return doc
    columns: dict[str, list] = {}
    for row in doc:
        for key, value in row.items():
            columns.setdefault(key, []).append(value)
    return columns


def _rounding_flip(p, q, x: float, y: float) -> bool:
    """Whether two CSV cells' texts, both of at most 12 significant digits,
    differ by at most one unit in the 12th digit, in decimal arithmetic: the
    binary difference of the two parsed numbers can exceed one unit by the
    numbers' own rounding."""
    if not (isinstance(p, str) and isinstance(q, str) and math.isfinite(x) and math.isfinite(y)):
        return False
    a, b = Decimal(p), Decimal(q)
    unit = Decimal(1).scaleb(max(abs(a), abs(b)).adjusted() - 11)
    return max(len(a.as_tuple().digits), len(b.as_tuple().digits)) <= 12 and abs(a - b) <= unit


class Moves(NamedTuple):
    """The largest moves between two records of one case."""

    measured: float  # relative to its column, over every column but the _pct ones
    pct: float  # absolute, in percentage points, over the _pct columns
    flip: float  # the largest rounding flip (``_rounding_flip``) in any column, relative to it


def largest_move(a: list, b: list) -> Moves | None:
    """The largest numeric moves between two records; None if the records
    differ otherwise. A ``_pct`` column is a percent difference of two
    nearly equal numbers, so a move far below the measured columns' can be a
    large fraction of it: its moves are kept apart, in percentage points."""
    if a[0] != b[0] or a[2] != b[2]:
        return None
    ca, cb = _columns(a[1]), _columns(b[1])
    if ca is None or cb is None or ca.keys() != cb.keys():
        return None
    worst = pct = flip = 0.0
    for key in ca:
        try:
            x, y = [float(v) for v in ca[key]], [float(v) for v in cb[key]]
        except (TypeError, ValueError):
            if ca[key] != cb[key]:
                return None
            continue
        if len(x) != len(y):
            return None
        scale = max(map(abs, x), default=0.0) or max(map(abs, y), default=0.0)
        for p, q, xp, yq in zip(ca[key], cb[key], x, y):
            if xp == yq:
                continue
            if _rounding_flip(p, q, xp, yq):
                flip = max(flip, abs(xp - yq) / scale)
            elif key.endswith("_pct"):
                pct = max(pct, abs(xp - yq))
            else:
                worst = max(worst, abs(xp - yq) / scale)
    return Moves(worst, pct, flip)


def compare(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    worst = worst_pct = 0.0
    for key in changed:
        moves = largest_move(a[key], b[key]) if key in a and key in b else None
        if moves is None:
            print(key)
            continue
        worst, worst_pct = max(worst, moves.measured), max(worst_pct, moves.pct)
        pct = f"; _pct columns {moves.pct:.2g} points" if moves.pct else ""
        flips = f"; rounding flips up to {moves.flip:.2g}" if moves.flip else ""
        print(f"{key}  (largest move {moves.measured:.2g}{pct}{flips})")
    print(f"{len(changed)} of {len(a.keys() | b.keys())} cases differ; largest move {worst:.2g}; "
          f"_pct columns {worst_pct:.2g} points")
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
