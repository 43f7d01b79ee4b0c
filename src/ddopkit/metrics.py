"""Time-frequency localization measurements.

Dispersions are standard deviations of the normalized energy distributions:
Delta T over the full time grid, Delta F over a symmetric analysis band
(moments computed from the in-band spectrum only, with the captured energy
fraction reported alongside). The area Delta T * Delta F is bounded below by
1/(4*pi) and the Gaussian exp(-pi t^2) attains the bound.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pulses import PulseSpec
from .signal_core import (
    DegenerateInputError,
    InvalidInputError,
    SampledSignal,
    Spectrum,
    dft_spectrum,
)

__all__ = [
    "Provenance",
    "LocalizationMetrics",
    "AnalysisBand",
    "measure_time",
    "measure_freq",
    "measure_all",
    "lemma1_check",
]


class Provenance(enum.Enum):
    NUMERIC = "NUMERIC"
    ANALYTIC = "ANALYTIC"


@dataclass(frozen=True)
class LocalizationMetrics:
    """Localization summary {t_bar, f_bar, Delta T, Delta F} plus derived area and direction.

    tf_area and direction are recomputed properties, never stored, so the
    identities tf_area = Delta T * Delta F and direction = Delta T / Delta F
    hold exactly. time_dispersion_is_bound marks families whose closed-form
    Delta T is only an upper bound.
    """

    mean_time: float
    mean_freq: float
    time_dispersion: float
    freq_dispersion: float
    provenance: Provenance
    energy_capture: float | None = None
    time_dispersion_is_bound: bool = False

    def __post_init__(self) -> None:
        if self.time_dispersion < 0 or self.freq_dispersion < 0:
            raise InvalidInputError("dispersions must be non-negative")

    @property
    def tf_area(self) -> float:
        return self.time_dispersion * self.freq_dispersion

    @property
    def direction(self) -> float:
        return self.time_dispersion / self.freq_dispersion


@dataclass(frozen=True)
class AnalysisBand:
    """Symmetric frequency band |f| <= half_width for spectral moments."""

    half_width: float

    def __post_init__(self) -> None:
        width = self.half_width
        if isinstance(width, bool) or not (isinstance(width, numbers.Real) and width > 0):
            raise InvalidInputError(f"band half-width must be a number > 0, got {width!r}")

    @classmethod
    def default_for(cls, spec: PulseSpec) -> "AnalysisBand":
        """Default band +-5*M/T, wide enough for every family's essential support."""
        return cls(half_width=5.0 * spec.M / spec.T)


def _spread(x: np.ndarray, weights: np.ndarray, total: float, what: str) -> tuple[float, float]:
    """Mean and standard deviation of x under weights summing to total; an
    over- or underflow shows as a variance that is not positive and finite."""
    with np.errstate(all="ignore"):
        mean = float(np.dot(x, weights) / total)
        var = float(np.dot((x - mean) ** 2, weights) / total)
    if not 0.0 < var < math.inf:
        raise DegenerateInputError(
            f"the {what} variance ({var:g}) is not a positive number in the float range "
            f"(0, {sys.float_info.max:g}]; rescale T towards 1"
        )
    return mean, math.sqrt(var)


def measure_time(signal: SampledSignal) -> tuple[float, float]:
    """Mean time and time dispersion of |g(t)|^2, midpoint Riemann sums."""
    with np.errstate(all="ignore"):
        weights = np.abs(signal.samples) ** 2 * signal.grid.sample_interval
        total = float(np.sum(weights))
    if total <= 0.0:
        raise DegenerateInputError("zero-energy signal")
    return _spread(signal.grid.times(), weights, total, "time")


def measure_freq(spectrum: Spectrum, band: AnalysisBand) -> tuple[float, float, float]:
    """Mean frequency, frequency dispersion, and captured energy fraction.

    Moments are computed over |f| <= band.half_width only, one contiguous run
    of bins (``Spectrum.bins_within``); the returned capture is the in-band
    fraction of the spectrum's total energy. A band whose energy sits in a
    single bin has no measurable spread and is rejected.
    """
    values = spectrum.values
    bins = spectrum.bins_within(band.half_width)
    inside = values[bins]
    with np.errstate(all="ignore"):
        total = float(np.vdot(values, values).real) * spectrum.freq_interval
        wb = (inside.real ** 2 + inside.imag ** 2) * spectrum.freq_interval
        in_band = float(np.sum(wb))
    if in_band <= 0.0:
        raise DegenerateInputError("no spectral energy inside the analysis band")
    if np.count_nonzero(wb) < 2:
        raise DegenerateInputError(
            f"the analysis band |f| <= {band.half_width:g} holds a single spectral bin "
            f"(bin spacing {spectrum.freq_interval:g}); widen the band"
        )
    fb = spectrum.start_freq + np.arange(bins.start, bins.stop) * spectrum.freq_interval
    mean, disp = _spread(fb, wb, in_band, "frequency")
    capture = in_band / total if total > 0 else 0.0
    return mean, disp, capture


def measure_all(signal: SampledSignal, band: AnalysisBand, zero_pad: int = 4) -> LocalizationMetrics:
    """Numeric localization metrics of a sampled signal."""
    mean_time, time_disp = measure_time(signal)
    spectrum = dft_spectrum(signal, zero_pad_factor=zero_pad)
    mean_freq, freq_disp, capture = measure_freq(spectrum, band)
    return LocalizationMetrics(
        mean_time=mean_time,
        mean_freq=mean_freq,
        time_dispersion=time_disp,
        freq_dispersion=freq_disp,
        provenance=Provenance.NUMERIC,
        energy_capture=capture,
    )


def _midpoint(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int) -> float:
    step = (hi - lo) / n
    rho = lo + (np.arange(n) + 0.5) * step
    return float(np.sum(fn(rho)) * step)


def lemma1_check(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    rho_alpha: float,
    rho_gamma: float,
    rho_max: float = 8.0,
    num_points: int = 200_000,
) -> tuple[float, float, float]:
    """Quadratic-moment shift identity for an even profile X.

    For even X supported (or numerically negligible) outside |rho| > rho_max:

        int rho^2 |X(rho_alpha*rho - rho_gamma)|^2 drho
          = int rho^2 |X(rho_alpha*rho)|^2 drho
            + (rho_gamma/rho_alpha)^2 * int |X(rho_alpha*rho)|^2 drho

    (the shift contributes its square times the energy of the scaled profile;
    the cross term vanishes by evenness). Returns (lhs, rhs, abs_error), each
    side evaluated by its own midpoint rule with num_points cells aligned to
    the integrand's support so discontinuous profiles stay exact.
    """
    if rho_alpha == 0:
        raise InvalidInputError("rho_alpha must be nonzero")

    def shifted_sq(rho: np.ndarray) -> np.ndarray:
        return rho**2 * np.abs(sample_fn(rho_alpha * rho - rho_gamma)) ** 2

    def scaled_sq(rho: np.ndarray) -> np.ndarray:
        return rho**2 * np.abs(sample_fn(rho_alpha * rho)) ** 2

    def scaled_energy(rho: np.ndarray) -> np.ndarray:
        return np.abs(sample_fn(rho_alpha * rho)) ** 2

    lo, hi = sorted(((-rho_max + rho_gamma) / rho_alpha, (rho_max + rho_gamma) / rho_alpha))
    lhs = _midpoint(shifted_sq, lo, hi, num_points)
    half = rho_max / abs(rho_alpha)
    rhs = _midpoint(scaled_sq, -half, half, num_points) + (rho_gamma / rho_alpha) ** 2 * _midpoint(
        scaled_energy, -half, half, num_points
    )
    return lhs, rhs, abs(lhs - rhs)
