"""Parameter sweeps, family comparisons, and the fine-shift orthogonality scan.

A sweep varies one axis (roll-off, half-length, or the (M, N) pair) around a
fixed template spec, measures each point numerically, pairs it with the
matching closed form, and reports percent differences. Where ``analytic_for``
finds no closed form the row keeps its numeric cells and leaves the others
empty. ``SweepRow`` judges a measurement against its closed form
(``percent_diff``, ``tolerance_failures``), also for the CLI's metrics and
verify commands. Sweeps run serially in plan order, and a point whose spec
is illegal becomes a "failed: ..." row instead of aborting the sweep. Every
point is measured from its train's parts (``metrics.measure_train``);
consecutive points whose trains share a spectrum layout
(``metrics.SpectrumLayout``) read one.

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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .analytic import analytic_for
from .metrics import (
    AnalysisBand,
    LocalizationMetrics,
    SpectrumLayout,
    _train_moments,
    layout_key,
    measure_train,
    spectrum_layout,
)
from .pulses import PulseFamily, PulseSpec, default_q, train_parts
from .signal_core import (
    InvalidInputError,
    _turn_table,
    fast_length,
    non_negative_int,
    positive_int,
)

__all__ = [
    "SweptParameter",
    "SweepPlan",
    "SweepRow",
    "SweepReport",
    "REPORT_HEADER",
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
    layouts: dict[tuple, SpectrumLayout] | None = None,
) -> tuple[LocalizationMetrics, LocalizationMetrics | None]:
    """Numeric metrics of the pulse, measured from its train's parts
    (``measure_train``), and its closed form (None where no closed form applies).

    band=None means the spec's default band +-5M/T. ``run_sweep`` passes its
    sweep's layouts, ``{layout_key: SpectrumLayout}``: a point reads the
    layout held there if it is this train's, and otherwise empties the dict
    and builds its own into it, so the dict never holds more than one.
    Without them ``measure_train`` builds the layout for this point.
    """
    resolved = band if band is not None else AnalysisBand.default_for(spec)
    parts = train_parts(spec, oversample)
    layout = None
    if layouts is not None:
        key = layout_key(parts, resolved, zero_pad)
        layout = layouts.get(key)
        if layout is None:
            layouts.clear()
            layout = layouts[key] = spectrum_layout(parts, resolved, zero_pad)
    numeric = measure_train(parts, resolved, zero_pad, layout)
    return numeric, analytic_for(spec, resolved, oversample)


def _row(label: str, point) -> SweepRow:
    """Run point() for one row; a ValueError becomes a failed row, not a raise."""
    try:
        numeric, analytic = point()
    except ValueError as exc:
        return SweepRow(parameter=label, numeric=None, analytic=None, status=f"failed: {exc}")
    return SweepRow(parameter=label, numeric=numeric, analytic=analytic)


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Measure every point of the plan, in plan order; failed points become
    rows, not raises.

    A sweep's points differ only in their sub-pulse samples wherever their
    train's grid, sub-pulse width, P, coefficients, band and zero_pad agree,
    as on a beta axis; such points share one ``SpectrumLayout``. The sweep
    keeps the last layout built, for this call only.
    """
    layouts: dict[tuple, SpectrumLayout] = {}

    def one(value) -> SweepRow:
        return _row(plan.label_at(value), lambda: measure_point(
            plan.spec_at(value), plan.band, plan.zero_pad, plan.oversample, layouts))

    return SweepReport(rows=tuple(map(one, plan.values)))


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
    non-negative whole numbers. u is the pulse synthesized on its own grid
    (``pulse_grid``), whose delay shifts by T/M are exact shifts by d =
    m~ * oversample samples.

    The scan is computed from the train's parts, never its samples. Every
    family is a train u_i = sum_k c_k s_{i-kP} of one sub-pulse s (w samples)
    with P = M*oversample samples per T and dt = T/P, so n~ t/(NT) =
    n~ (kP + j)/(NP) for sample i = kP + j, and the correlation of row d splits
    over the lags q between sub-pulses:

        sum_i u_i conj(u_{i-d}) exp(-2j pi n~ i/(NP)) = sum_q A[q] B[qP - d],
        A[q] = sum_k c_k conj(c_{k-q}) exp(-2j pi n~ k/N),
        B[D] = sum_j s_j exp(-2j pi n~ j/(NP)) conj(s_{j+D}).

    A and B are Doppler-turned autocorrelations of the coefficients and of
    the sub-pulse (``_turned_autocorrelation``). qP - d is always a multiple
    of oversample, so B is taken only at those lags, from the oversample
    polyphase components of s, each w/oversample samples long. B vanishes
    for |D| >= w, so row d sums only the lags with |qP - d| < w. At a
    negative n~, A and B are the conjugates of those of conj(c) and conj(s)
    at -n~, so a real train's columns +-n~ are equal to the bit. s is read
    scaled to a peak below 1 (``TrainParts``), so nothing squared over- or
    underflows at any T; the scan is invariant to that scale. The anchor
    exp(-2j pi n~ t0/(NT)) of the grid's start t0 has unit modulus and the
    scan reports magnitudes, so it is left out; dt cancels. The energy
    ||u||^2 = sum_q (sum_k c_k conj(c_{k-q})) (sum_j s_j conj(s_{j+qP})) is
    the energy of ``metrics._train_moments``, the lag sum ``measure_train``
    reads too, in the time domain, not read from the transforms, so the
    origin (1 for every pulse) compares two independent computations. A
    zero energy raises ``DegenerateInputError``.
    """
    max_delay_steps = non_negative_int(max_delay_steps, "max_delay_steps")
    max_doppler_steps = non_negative_int(max_doppler_steps, "max_doppler_steps")
    oversample = positive_int(oversample, "oversample")
    parts = train_parts(spec, oversample)
    sub, coefficients, per_t = parts.subpulse, parts.coefficients, parts.per_t
    count = coefficients.shape[0]
    energy = _train_moments(parts, 1)[0]
    a = _turned_autocorrelation(coefficients, max_doppler_steps, spec.N)
    b = _turned_autocorrelation(sub, max_doppler_steps, spec.N * per_t, oversample)

    # Lag q reaches the rows m~ with |q*M - m~| < steps, the sub-pulse's width in steps.
    steps = sub.shape[0] // oversample
    delays = np.arange(-max_delay_steps, max_delay_steps + 1)
    rows = np.zeros((delays.shape[0], 2 * max_doppler_steps + 1), dtype=np.complex128)
    lags = min(count - 1, (max_delay_steps + steps - 1) // spec.M)
    for q in range(-lags, lags + 1):
        lo = max(-max_delay_steps, q * spec.M - steps + 1)
        hi = min(max_delay_steps, q * spec.M + steps - 1)
        near = slice(lo + max_delay_steps, hi + max_delay_steps + 1)
        # B[qP - d] is lag (m~ - qM) * oversample, at b[steps - 1 + m~ - qM]
        rows[near] += a[count - 1 + q] * b[steps - 1 + delays[near] - q * spec.M]
    return np.abs(rows) / energy


def _turned_autocorrelation(x: np.ndarray, max_doppler_steps: int, period: int,
                            phases: int = 1) -> np.ndarray:
    """r[W - 1 + q, n~ + max_doppler_steps] =
    sum_k x_k exp(-2j pi n~ k/period) conj(x_{k - q*phases})
    for |q| < W = len(x)/phases and |n~| <= max_doppler_steps: only the lags
    that are multiples of phases. len(x) must be a multiple of phases.

    A negative n~ is the conjugate of the correlation of conj(x) at -n~;
    for a real x that is x's own, so only n~ >= 0 is correlated, once for a
    real x and twice for a complex one (``_doppler_correlations``).
    """
    turned = _doppler_correlations(x, max_doppler_steps, period, phases)
    mirror = _doppler_correlations(np.conj(x), max_doppler_steps, period, phases) if x.imag.any() else turned
    return np.concatenate((np.conj(mirror[:, :0:-1]), turned), axis=1)


# The bytes of the Doppler rows ``_doppler_correlations`` transforms at once: under
# glibc's default 128 KiB mmap threshold, so its temporaries come from the heap
# and are not mapped and faulted in afresh on every scan.
_SCAN_CHUNK_BYTES = 120 * 1024


def _doppler_correlations(x: np.ndarray, max_doppler_steps: int, period: int, phases: int) -> np.ndarray:
    """``_turned_autocorrelation``'s columns n~ >= 0.

    Sample phases*j + p is entry j of polyphase component p, and lag
    q*phases pairs entries j and j - q of the same component, so each lag
    is a sum over the phases components of their W-sample correlations.
    Sample phases*j + p is turned by exp(-2j pi n~ phases j/period) times
    exp(-2j pi n~ p/period), a W-entry and a phases-entry table
    (``signal_core._turn_table``). Each turned component is transformed at
    ``fast_length(2W - 1)``, so no lag wraps, and multiplied by the
    conjugate transform of the unturned one; the products are summed over
    the components and each Doppler shift takes one inverse transform.
    The shifts are turned and transformed a chunk of rows at a time, at
    most ``_SCAN_CHUNK_BYTES`` of transforms to a chunk.
    """
    width = x.shape[0] // phases
    components = x.reshape(width, phases).T
    doppler = np.arange(max_doppler_steps + 1)
    coarse = _turn_table(doppler, range(0, phases * width, phases), period)
    fine = _turn_table(doppler, range(phases), period)
    length = fast_length(2 * width - 1)
    reference = np.conj(np.fft.fft(components, length))
    spectra = np.empty((doppler.shape[0], length), dtype=np.complex128)
    step = max(1, _SCAN_CHUNK_BYTES // (16 * phases * length))
    for n in range(0, doppler.shape[0], step):
        turned = coarse[n:n + step, None, :] * fine[n:n + step, :, None]
        turned *= components
        np.einsum("npl,pl->nl", np.fft.fft(turned, length), reference, out=spectra[n:n + step])
    return np.fft.ifft(spectra)[:, np.arange(1 - width, width)].T
