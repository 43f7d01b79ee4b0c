"""Workload definitions: seeded inputs, the op each one times, output checks,
and the hooks that attribute an op's time to the package's layers.

Every workload is a closed loop with one client: the next op starts when the
previous one returns. Sizes are fixed; the seed only draws the roll-off beta
(and the sweep's endpoints) from a grid in steps of 0.05, so timings compare
across seeds and every possible op has a stored reference output.

* metrics_train: ``ddopkit metrics`` on the default train (ddop, M=256, N=64,
  Q=13, rrc). The command users run most; one spectrum of length
  1,033,856 = 2^7*41*197 takes 88% of it, so a spectrum change shows here.
* sweep_btrrc: ``ddopkit sweep --vary beta --steps 11 --subpulse btrrc`` on
  a short train (N=8, 29,088 samples) with the default worker pool. btrrc
  synthesis takes 94% of busy thread time; it is the only workload that runs
  the sweep pool.
* ortho_scan: ``experiments.orthogonality_scan`` on the default train with
  |m~| <= 26, |n~| <= 32: 53 power-of-two FFTs of its own that bypass the
  spectrum and moment code (98% of the op in the scan's own code), the
  control for spectrum and synthesis changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Hook, OpProfile, Tracer

WORKLOADS = ("metrics_train", "sweep_btrrc", "ortho_scan")

# Roll-off grid; 0 and 1 are left out because both take cheaper code paths
# (sinc profile at beta = 0, one fewer btrrc quadrature branch at beta = 1).
BETA_GRID = tuple(f"{0.05 * i:.2f}" for i in range(1, 20))
# Sweep endpoints lo and lo + 0.5: the 11 points then land on BETA_GRID.
SWEEP_STARTS = BETA_GRID[:9]
SCAN_DELAY, SCAN_DOPPLER = 26, 32
SHORT_N = 8

# Untimed op of another workload run after the set-up op. ortho_scan is timed
# in a process that has already measured the default train, as in
# `ddopkit verify` and the test suite. Until a process frees a
# spectrum-sized array, glibc maps and faults in every 4 MB scan temporary
# afresh: about 125k page faults and 0.84-0.95 s per scan, against 8k and
# 0.56-0.61 s afterwards (2-vCPU VM), and that kernel cost swings with the
# host. The first, cold scan is still timed in setup_s.
PRELUDE = {"ortho_scan": "metrics_train"}

DRIFT_LIMIT = 1e-6
ENERGY_LIMIT = 1e-9
GABOR_LIMIT = 1.0 / (4.0 * math.pi)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Inputs:
    workload: str
    key: str               # reference key: beta, or the sweep's first beta
    argv: tuple[str, ...]  # CLI argv; empty for ortho_scan
    beta: float


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "metrics_train":
        beta = rng.choice(BETA_GRID)
        return Inputs(workload, beta, ("metrics", "--beta", beta, "--format", "json"), float(beta))
    if workload == "sweep_btrrc":
        lo = rng.choice(SWEEP_STARTS)
        hi = f"{float(lo) + 0.5:.2f}"
        argv = ("sweep", "--vary", "beta", "--steps", "11", "--subpulse", "btrrc",
                "--N", str(SHORT_N), "--from", lo, "--to", hi, "--format", "json")
        return Inputs(workload, lo, argv, float(lo))
    if workload == "ortho_scan":
        beta = rng.choice(BETA_GRID)
        return Inputs(workload, beta, (), float(beta))
    raise ValueError(f"unknown workload {workload!r}")


def all_inputs(workload: str) -> list[Inputs]:
    """One Inputs per reference key, in grid order."""
    keys = SWEEP_STARTS if workload == "sweep_btrrc" else BETA_GRID
    seen: dict[str, Inputs] = {}
    seed = 0
    while len(seen) < len(keys):
        inp = make_inputs(workload, seed)
        seen.setdefault(inp.key, inp)
        seed += 1
    return [seen[k] for k in keys]


class Op:
    """Callable running one op of a workload against the imported package."""

    def __init__(self, inputs: Inputs) -> None:
        from ddopkit import cli, experiments
        from ddopkit.pulses import PulseSpec

        self.inputs = inputs
        self._cli = cli
        self._experiments = experiments
        self._spec = PulseSpec(M=256, N=64, beta=inputs.beta)

    def __call__(self):
        """Run the op; returns (exit code, raw output). Attributes are looked up
        here, at call time, so installed hooks see the call."""
        if self.inputs.workload == "ortho_scan":
            return 0, self._experiments.orthogonality_scan(self._spec, SCAN_DELAY, SCAN_DOPPLER)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self._cli.main(list(self.inputs.argv))
        return rc, out.getvalue() if rc == 0 else err.getvalue()


# ---------------------------------------------------------------- checks

def parse_rows(raw: str) -> list[dict]:
    """The CLI's JSON report reduced to the fields the references keep."""
    return [{"parameter": r["parameter"], "status": r["status"], "dT": r["ΔT_num"],
             "dF": r["ΔF_num"], "dA": r["ΔA_num"], "capture": r["energy_capture"]}
            for r in json.loads(raw)]


def scan_digest(matrix: np.ndarray) -> dict:
    """Sparse form of a scan matrix: most off-grid correlations are exactly 0."""
    rows, cols = np.nonzero(matrix)
    return {"shape": list(matrix.shape),
            "nonzero": [[int(i), int(j), float(matrix[i, j])] for i, j in zip(rows, cols)]}


def scan_from_digest(digest: dict) -> np.ndarray:
    out = np.zeros(tuple(digest["shape"]))
    for i, j, v in digest["nonzero"]:
        out[i, j] = v
    return out


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


def check(inputs: Inputs, rc: int, raw, energies: list[float] | None, ref,
          perturb_dF: float = 0.0) -> tuple[list[str], dict[str, float]]:
    """Failures of one op and its drift from the reference.

    energies holds the unit-energy tap's readings for the op, or None when
    the tap could not be installed. perturb_dF scales the first row's ΔF
    before checking (the self-test's negative control).
    """
    failures: list[str] = []
    drift: dict[str, float] = {}
    if rc != 0:
        return [f"exit code {rc}: {str(raw).strip()[:200]}"], drift
    for e in energies or ():
        if abs(e - 1.0) > ENERGY_LIMIT:
            failures.append(f"pulse energy {e!r} is not 1 within {ENERGY_LIMIT}")

    if inputs.workload == "ortho_scan":
        expected = scan_from_digest(ref)
        if raw.shape != expected.shape:
            return failures + [f"scan shape {raw.shape} != {expected.shape}"], drift
        origin = raw[SCAN_DELAY, SCAN_DOPPLER]
        if abs(origin - 1.0) > 1e-6:
            failures.append(f"scan origin {origin!r} is not 1 within 1e-6")
        # Relative to the matrix's largest entry (the origin): most entries are 0.
        drift["scan"] = float(np.max(np.abs(raw - expected)) / np.max(np.abs(expected)))
    else:
        rows = parse_rows(raw)
        if perturb_dF and rows:
            rows[0]["dF"] *= 1.0 + perturb_dF
        if [r["parameter"] for r in rows] != [r["parameter"] for r in ref]:
            return failures + ["report rows do not match the reference's parameters"], drift
        for row, want in zip(rows, ref):
            if row["status"] != "ok":
                failures.append(f"row {row['parameter']}: {row['status']}")
                continue
            if not row["dA"] >= GABOR_LIMIT:
                failures.append(f"row {row['parameter']}: ΔA {row['dA']!r} below 1/(4π)")
            for key in ("dT", "dF", "capture"):
                drift[key] = max(drift.get(key, 0.0), _rel(row[key], want[key]))
    for key, value in drift.items():
        if value > DRIFT_LIMIT:
            failures.append(f"{key} drifts {value:.3g} relative from the reference")
    return failures, drift


# ---------------------------------------------------------------- hooks

def _energy_tap(tracer: Tracer, args, kwargs, signal) -> None:
    s = signal.samples
    tracer.note("energy", float(np.vdot(s, s).real) * signal.grid.sample_interval)
    if tracer.recording:
        tracer.note("samples", int(s.shape[0]))


def _dft_tap(tracer: Tracer, args, kwargs, spectrum) -> None:
    signal = args[0] if args else kwargs["signal"]
    tracer.note("fft", (int(signal.samples.shape[0]), int(spectrum.values.shape[0])))


def in_band_bins(start: float, step: float, count: int, half_width: float) -> int:
    """Number of bins k in [0, count) with |start + k*step| <= half_width.

    Bisects on the same float expression as ``Spectrum.frequencies``, which
    is monotone in k, so the count is exact without building the grid.
    """
    def first(pred) -> int:
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(start + mid * step):
                hi = mid
            else:
                lo = mid + 1
        return lo

    return max(0, first(lambda f: f > half_width) - first(lambda f: f >= -half_width))


def _band_tap(tracer: Tracer, args, kwargs, result) -> None:
    spectrum = args[0] if args else kwargs["spectrum"]
    band = args[1] if len(args) > 1 else kwargs["band"]
    tracer.note("band_bins", in_band_bins(spectrum.start_freq, spectrum.freq_interval,
                                          spectrum.values.shape[0], band.half_width))


# The public names each module takes from the layer below, as the callers
# look them up, plus in-module helpers whose time would otherwise hide inside
# their caller: pulse_grid in synth_pulse, the two moment estimators in
# measure_all, and argument resolution and report output in cli.main.
HOOKS = [
    Hook("ddopkit.cli", "build_parser", "cli.resolve"),
    Hook("ddopkit.cli", "resolve_config", "cli.resolve"),
    Hook("ddopkit.cli", "_emit", "cli.report"),
    Hook("ddopkit.experiments.SweepReport", "to_csv", "cli.report"),
    Hook("ddopkit.experiments.SweepReport", "to_json", "cli.report"),
    Hook("ddopkit.cli", "synth_pulse", "pulses.synth", _energy_tap, always=True),
    Hook("ddopkit.cli", "measure_all", "metrics.measure_all"),
    Hook("ddopkit.cli", "analytic_for", "analytic.closed_form"),
    Hook("ddopkit.cli", "run_sweep", "experiments.sweep"),
    Hook("ddopkit.experiments", "orthogonality_scan", "experiments.scan"),
    Hook("ddopkit.experiments", "pulse_grid", "pulses.grid"),
    Hook("ddopkit.experiments", "synth_pulse", "pulses.synth", _energy_tap, always=True),
    Hook("ddopkit.experiments", "measure_all", "metrics.measure_all"),
    Hook("ddopkit.experiments", "analytic_for", "analytic.closed_form"),
    Hook("ddopkit.metrics", "measure_time", "metrics.time_moments"),
    Hook("ddopkit.metrics", "measure_freq", "metrics.freq_moments", _band_tap),
    Hook("ddopkit.metrics", "dft_spectrum", "signal_core.dft", _dft_tap),
    Hook("ddopkit.pulses", "pulse_grid", "pulses.grid"),
]

CHECK_HOOKS = [h for h in HOOKS if h.always]


# ---------------------------------------------------------------- per-layer

PER_LAYER = {
    # name: (unit, better)
    "signal_core.dft_s": ("s", "lower"),
    "signal_core.dft_calls": ("count", "lower"),
    "signal_core.fft_len": ("samples", "lower"),
    "signal_core.fft_len_max_prime": ("factor", "lower"),
    "signal_core.fft_bytes_computed": ("B", "lower"),
    "pulses.grid_s": ("s", "lower"),
    "pulses.synth_s": ("s", "lower"),
    "pulses.synth_calls": ("count", "lower"),
    "pulses.samples": ("samples", "lower"),
    "metrics.time_moments_s": ("s", "lower"),
    "metrics.freq_moments_s": ("s", "lower"),
    "metrics.band_bins": ("count", "lower"),
    "analytic.closed_form_s": ("s", "lower"),
    "experiments.sweep_self_s": ("s", "lower"),
    "experiments.pool_busy_ratio": ("ratio", "higher"),
    "experiments.pool_speedup": ("ratio", "higher"),
    "experiments.scan_self_s": ("s", "lower"),
    "experiments.scan_ffts": ("count", "lower"),
    "cli.resolve_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Counts that must repeat exactly between ops and runs.
EXACT_COUNTS = (
    "signal_core.dft_calls", "signal_core.fft_len", "signal_core.fft_len_max_prime",
    "signal_core.fft_bytes_computed", "pulses.synth_calls", "pulses.samples",
    "metrics.band_bins", "experiments.scan_ffts",
)

# Span name behind each self-time metric; a metric whose spans all come from
# hooks that could not be installed is reported as unmeasured.
SELF_TIME = {
    "signal_core.dft_s": "signal_core.dft",
    "pulses.grid_s": "pulses.grid",
    "pulses.synth_s": "pulses.synth",
    "metrics.time_moments_s": "metrics.time_moments",
    "metrics.freq_moments_s": "metrics.freq_moments",
    "analytic.closed_form_s": "analytic.closed_form",
    "experiments.sweep_self_s": "experiments.sweep",
    "experiments.scan_self_s": "experiments.scan",
    "cli.resolve_s": "cli.resolve",
    "cli.report_s": "cli.report",
}

# Counts taken by a hook's observer, keyed by that hook's span.
OBSERVED_BY = {
    "signal_core.dft_calls": "signal_core.dft",
    "signal_core.fft_len": "signal_core.dft",
    "signal_core.fft_len_max_prime": "signal_core.dft",
    "signal_core.fft_bytes_computed": "signal_core.dft",
    "pulses.synth_calls": "pulses.synth",
    "pulses.samples": "pulses.synth",
    "metrics.band_bins": "metrics.freq_moments",
    "experiments.pool_busy_ratio": "experiments.sweep",
}


def largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n) if n > 1 else best


def fft_bytes(n_in: int, length: int) -> int:
    """Computed, not measured: complex128 input read plus output written."""
    return 16 * (n_in + length)


def scan_counts(inputs: Inputs) -> dict[str, int]:
    """FFT figures of the orthogonality scan, computed from its extents.

    The scan's transforms bypass dft_spectrum: one FFT per delay row, of the
    smallest multiple of N*M*oversample covering the padded grid.
    """
    from ddopkit.pulses import PulseSpec, pulse_grid

    spec = PulseSpec(M=256, N=64, beta=inputs.beta)
    n = pulse_grid(spec, oversample=16, pad_steps=SCAN_DELAY).num_samples
    base = spec.N * spec.M * 16
    length = base * math.ceil(n / base)
    ffts = 2 * SCAN_DELAY + 1
    return {"signal_core.fft_len": length,
            "signal_core.fft_len_max_prime": largest_prime_factor(length),
            "signal_core.fft_bytes_computed": ffts * fft_bytes(n, length),
            "experiments.scan_ffts": ffts}


def layer_values(inputs: Inputs, prof: OpProfile, notes: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one traced op (no pool speed-up or overhead)."""
    out = {name: prof.self_s.get(span, 0.0) for name, span in SELF_TIME.items()}
    ffts = notes.get("fft", [])
    out["signal_core.dft_calls"] = len(ffts)
    length = max((l for _, l in ffts), default=0)
    out["signal_core.fft_len"] = length
    out["signal_core.fft_len_max_prime"] = largest_prime_factor(length) if length else 0
    out["signal_core.fft_bytes_computed"] = sum(fft_bytes(n, l) for n, l in ffts)
    out["pulses.synth_calls"] = len(notes.get("samples", []))
    out["pulses.samples"] = max(notes.get("samples", []), default=0)
    out["metrics.band_bins"] = sum(notes.get("band_bins", []))
    out["experiments.scan_ffts"] = 0
    busy, threads, wall = prof.pool.get("experiments.sweep", (0.0, 0, 0.0))
    out["experiments.pool_busy_ratio"] = busy / (threads * wall) if threads else 0.0
    out["trace.coverage"] = prof.coverage
    if inputs.workload == "ortho_scan":
        out.update(scan_counts(inputs))
    return out


def unmeasured_metrics(unmeasured_hooks: list[str]) -> list[str]:
    """Per-layer metrics none of whose hooks could be installed."""
    missing = set(unmeasured_hooks)
    by_span: dict[str, list[str]] = {}
    for h in HOOKS:
        by_span.setdefault(h.span, []).append(h.target)
    dead = {span for span, targets in by_span.items() if set(targets) <= missing}
    sources = {**SELF_TIME, **OBSERVED_BY}
    return sorted(name for name, span in sources.items() if span in dead)
