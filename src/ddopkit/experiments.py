"""Parameter sweeps, family comparisons, and the fine-shift orthogonality scan.

A sweep varies one axis (roll-off, half-length, or the (M, N) pair) around a
fixed template spec, measures each point numerically, pairs it with the
matching closed form, and reports percent differences. Where ``analytic_for``
finds no closed form the row keeps its numeric cells and leaves the others
empty. ``SweepRow`` judges a measurement against its closed form
(``percent_diff``, ``tolerance_failures``), also for the CLI's metrics and
verify commands. Rows are computed
independently (worker threads, capped by the DDOP_THREADS environment
variable) but always emitted in plan order, and a point whose spec is illegal
becomes a "failed: ..." row instead of aborting the sweep.

Report serialization is fixed: a CSV with the header

    parameter,ΔT_num,ΔT_ana,ΔT_pct,ΔF_num,ΔF_ana,ΔF_pct,
    ΔA_num,ΔA_ana,ΔA_pct,κ_num,κ_ana,κ_pct,energy_capture,status

(single line) and a JSON array of row objects with identical field names.
Floats are written with 12 significant digits so identical plans produce
byte-identical files. Families whose closed-form time dispersion is only an
upper bound report the ΔT comparison as the boolean "numeric <= bound".
"""

from __future__ import annotations

import enum
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .analytic import analytic_for
from .metrics import AnalysisBand, LocalizationMetrics, measure_all
from .pulses import PulseFamily, PulseSpec, default_q, pulse_grid, synth_pulse
from .signal_core import InvalidInputError, non_negative_int, positive_int

__all__ = [
    "SweptParameter",
    "SweepPlan",
    "SweepRow",
    "SweepReport",
    "REPORT_HEADER",
    "worker_count",
    "default_q_values",
    "default_mn_values",
    "measure_point",
    "run_sweep",
    "compare_families",
    "orthogonality_scan",
]

REPORT_HEADER = (
    "parameter,ΔT_num,ΔT_ana,ΔT_pct,ΔF_num,ΔF_ana,ΔF_pct,"
    "ΔA_num,ΔA_ana,ΔA_pct,κ_num,κ_ana,κ_pct,energy_capture,status"
)


class SweptParameter(enum.Enum):
    BETA = "beta"
    Q = "q"
    M_N_PAIR = "mn"


def worker_count() -> int:
    """Worker cap from DDOP_THREADS; 0 or unset means one per CPU."""
    raw = os.environ.get("DDOP_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise InvalidInputError(f"DDOP_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise InvalidInputError(f"DDOP_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def default_q_values(M: int, lo: int | None = None, hi: int | None = None, steps: int = 13) -> list[int]:
    """The distinct integers nearest steps log-spaced half-lengths from lo
    (default ceil(0.01*M)) up to hi (default M)."""
    lo = max(1, math.ceil(0.01 * M)) if lo is None else lo
    hi = M if hi is None else hi
    return sorted({int(round(v)) for v in np.geomspace(lo, hi, num=steps)})


def default_mn_values() -> list[tuple[int, int]]:
    return [(m, n) for m in (4, 8, 16, 32, 64, 128, 256) for n in (4, 8, 16, 32, 64)]


@dataclass(frozen=True)
class SweepPlan:
    """One swept axis around a fixed template.

    band=None resolves per point to the default +-5M/T (the (M, N) axis
    changes M, so a single fixed band would skew small-M rows). For the
    M_N_PAIR axis each point's Q is recomputed as default_q(M): the template's
    Q cannot be legal across the whole grid.
    """

    family: PulseFamily
    swept_parameter: SweptParameter
    values: tuple
    fixed: PulseSpec
    band: AnalysisBand | None = None
    zero_pad: int = 4
    oversample: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise InvalidInputError("sweep values must be non-empty")
        if all(isinstance(v, (int, float)) for v in self.values):
            diffs = np.diff([float(v) for v in self.values])
            if len(diffs) and not np.all(diffs > 0):
                raise InvalidInputError("numeric sweep values must be strictly increasing")
        object.__setattr__(self, "zero_pad", positive_int(self.zero_pad, "zero_pad"))
        object.__setattr__(self, "oversample", positive_int(self.oversample, "oversample"))

    def spec_at(self, value) -> PulseSpec:
        if self.swept_parameter is SweptParameter.BETA:
            return replace(self.fixed, family=self.family, beta=float(value))
        if self.swept_parameter is SweptParameter.Q:
            return replace(self.fixed, family=self.family, Q=int(value))
        m, n = value
        return replace(self.fixed, family=self.family, M=int(m), N=int(n), Q=default_q(int(m)))

    def label_at(self, value) -> str:
        if self.swept_parameter is SweptParameter.M_N_PAIR:
            m, n = value
            return f"{int(m)}x{int(n)}"
        if self.swept_parameter is SweptParameter.Q:
            return _fmt(int(value))
        return _fmt(float(value))


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    numeric: LocalizationMetrics | None
    analytic: LocalizationMetrics | None
    status: str = "ok"

    @property
    def percent_diff(self) -> dict:
        """Per-metric 100*|num-ana|/ana; ΔT becomes 'numeric <= bound' when bounded."""
        if self.numeric is None or self.analytic is None:
            return {"dT": None, "dF": None, "dA": None, "k": None}
        pairs = {
            "dT": (self.numeric.time_dispersion, self.analytic.time_dispersion),
            "dF": (self.numeric.freq_dispersion, self.analytic.freq_dispersion),
            "dA": (self.numeric.tf_area, self.analytic.tf_area),
            "k": (self.numeric.direction, self.analytic.direction),
        }
        out = {}
        for key, (num, ana) in pairs.items():
            if key == "dT" and self.analytic.time_dispersion_is_bound:
                out[key] = bool(num <= ana)
            else:
                out[key] = 100.0 * abs(num - ana) / ana if ana != 0 else None
        return out

    def tolerance_failures(self, tolerance: float) -> dict:
        """The metrics whose comparison fails, each with a one-line reason.

        A bounded ΔT fails when the numeric value exceeds the bound; a percent
        difference fails unless it is <= tolerance, so a NaN deviation fails.
        Metrics without a closed form are not judged.
        """
        out = {}
        for key, val in self.percent_diff.items():
            if isinstance(val, bool):
                if not val:
                    out[key] = f"{key}: numeric exceeds the closed-form bound"
            elif val is not None and not val <= tolerance:
                out[key] = f"{key}: {val:.4g}% > {tolerance:g}%"
        return out

    @property
    def energy_capture(self) -> float | None:
        return None if self.numeric is None else self.numeric.energy_capture

    def to_json_dict(self) -> dict:
        pct = self.percent_diff
        num, ana = self.numeric, self.analytic
        return {
            "parameter": self.parameter,
            "ΔT_num": None if num is None else num.time_dispersion,
            "ΔT_ana": None if ana is None else ana.time_dispersion,
            "ΔT_pct": pct["dT"],
            "ΔF_num": None if num is None else num.freq_dispersion,
            "ΔF_ana": None if ana is None else ana.freq_dispersion,
            "ΔF_pct": pct["dF"],
            "ΔA_num": None if num is None else num.tf_area,
            "ΔA_ana": None if ana is None else ana.tf_area,
            "ΔA_pct": pct["dA"],
            "κ_num": None if num is None else num.direction,
            "κ_ana": None if ana is None else ana.direction,
            "κ_pct": pct["k"],
            "energy_capture": self.energy_capture,
            "status": self.status,
        }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    return format(value, ".12g")


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    def max_percent_diff(self, key: str) -> float:
        """Largest percent difference for one of dT/dF/dA/k across ok rows."""
        vals = [
            r.percent_diff[key]
            for r in self.rows
            if r.status == "ok" and isinstance(r.percent_diff[key], float)
        ]
        if not vals:
            raise InvalidInputError(f"no comparable rows for metric {key!r}")
        return max(vals)

    def to_csv(self) -> str:
        lines = [REPORT_HEADER]
        for row in self.rows:
            d = row.to_json_dict()
            cells = [d["parameter"]]
            cells += [_fmt(d[k]) for k in REPORT_HEADER.split(",")[1:-1]]
            cells.append(d["status"])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([r.to_json_dict() for r in self.rows], ensure_ascii=False, indent=2) + "\n"


def measure_point(
    spec: PulseSpec,
    band: AnalysisBand | None,
    zero_pad: int,
    oversample: int,
) -> tuple[LocalizationMetrics, LocalizationMetrics | None]:
    """Numeric metrics of the synthesized pulse and its closed form (None
    where no closed form applies).

    band=None means the spec's default band +-5M/T.
    """
    resolved = band if band is not None else AnalysisBand.default_for(spec)
    signal = synth_pulse(spec, oversample=oversample)
    numeric = measure_all(signal, resolved, zero_pad=zero_pad)
    return numeric, analytic_for(spec, resolved, oversample)


def _row(label: str, point) -> SweepRow:
    """Run point() for one row; a ValueError becomes a failed row, not a raise."""
    try:
        numeric, analytic = point()
    except ValueError as exc:
        return SweepRow(parameter=label, numeric=None, analytic=None, status=f"failed: {exc}")
    return SweepRow(parameter=label, numeric=numeric, analytic=analytic)


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Measure every point of the plan; failed points become rows, not raises."""

    def one(value) -> SweepRow:
        return _row(plan.label_at(value), lambda: measure_point(
            plan.spec_at(value), plan.band, plan.zero_pad, plan.oversample))

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        rows = list(pool.map(one, plan.values))
    return SweepReport(rows=tuple(rows))


def compare_families(
    specs: list[PulseSpec],
    band: AnalysisBand | None = None,
    zero_pad: int = 4,
    oversample: int = 16,
) -> SweepReport:
    """One row per spec, labeled by family, for side-by-side comparison."""
    return SweepReport(rows=tuple(
        _row(spec.family.value, partial(measure_point, spec, band, zero_pad, oversample))
        for spec in specs))


def orthogonality_scan(
    spec: PulseSpec,
    max_delay_steps: int,
    max_doppler_steps: int,
    oversample: int = 16,
) -> np.ndarray:
    """|<u, u shifted by (m~ T/M, n~ /(NT))>| / ||u||^2 over the fine-shift grid.

    Returns a (2*max_delay_steps+1, 2*max_doppler_steps+1) matrix indexed by
    (m~ + max_delay_steps, n~ + max_doppler_steps); both extents are
    non-negative whole numbers. Delay shifts are exact integer sample shifts
    (T/M is oversample samples), read as slices of one zero-padded copy of u.

    The Doppler correlations use the block structure of the grid. With
    P = M*oversample samples per T (dt = T/P), write sample i as k*P + j,
    k the block and j the column. The Doppler phase at t0 + i*dt then splits
    exactly:

        exp(-2j pi n~ (t0 + i dt)/(NT))
            = exp(-2j pi n~ t0/(NT)) * exp(-2j pi n~ k/N) * exp(-2j pi n~ j/(NP)),

    because n~ i dt/(NT) = n~ (kP + j)/(NP). So each delay row is a small
    contraction of the (blocks x columns) product u * conj(shifted u) with a
    (Doppler x blocks) and a (Doppler x columns) phase table. The product is
    zero in every column where u is zero in all blocks, so only u's nonzero
    columns enter (all of them for the dense FDM and OTFS pulses). The
    anchor exp(-2j pi n~ t0/(NT)) has unit modulus and the scan reports
    magnitudes, so it is left out; dt cancels between the inner product and
    the energy.
    """
    max_delay_steps = non_negative_int(max_delay_steps, "max_delay_steps")
    max_doppler_steps = non_negative_int(max_doppler_steps, "max_doppler_steps")
    oversample = positive_int(oversample, "oversample")
    x = synth_pulse(spec, grid=pulse_grid(spec, oversample=oversample)).samples
    per_t = spec.M * oversample
    blocks = -(-x.shape[0] // per_t)
    pad = max_delay_steps * oversample
    padded = np.zeros(blocks * per_t + 2 * pad, dtype=np.complex128)
    padded[pad:pad + x.shape[0]] = x

    def block_view(shift: int) -> np.ndarray:
        """Samples pad - shift onwards as (blocks, per_t): u delayed by shift samples."""
        return padded[pad - shift:pad - shift + blocks * per_t].reshape(blocks, per_t)

    columns = np.flatnonzero(np.any(block_view(0) != 0, axis=0))
    u = block_view(0)[:, columns]
    # Reduce n~*k and n~*j modulo the period before scaling so large |n~| keeps full precision.
    doppler = np.arange(-max_doppler_steps, max_doppler_steps + 1)
    block_phase = np.exp(-2j * np.pi * (np.outer(doppler, np.arange(blocks)) % spec.N) / spec.N)
    column_phase = np.exp(-2j * np.pi * (np.outer(doppler, columns) % (spec.N * per_t))
                          / (spec.N * per_t))
    e0 = np.vdot(x, x).real

    out = np.empty((2 * max_delay_steps + 1, doppler.shape[0]))
    for im, m_shift in enumerate(range(-max_delay_steps, max_delay_steps + 1)):
        product = u * np.conj(block_view(m_shift * oversample)[:, columns])
        out[im] = np.abs(((block_phase @ product) * column_phase).sum(axis=1)) / e0
    return out
