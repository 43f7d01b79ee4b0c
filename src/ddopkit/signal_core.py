"""Sampled-signal containers and discrete Fourier arithmetic.

Conventions used throughout the package:

* A ``TimeGrid`` places sample k at ``start_time + (k + 0.5) * sample_interval``
  (midpoint rule). Energies and inner products are midpoint Riemann sums, so
  removable singularities and support edges stay off the sample points on the
  default grids.
* Both transforms run at the smallest 5-smooth length (2**a * 3**b * 5**c, see
  ``fast_length``) of at least zero_pad * num_samples, scale the FFT by the
  sample interval and put bin 0 at -(L//2) times the bin spacing (fftshifted).
* ``dft_spectrum`` is the phase-correct transform: it anchors the phase at the
  true time of the first sample, so the discrete Parseval identity is exact to
  rounding for any transform length, and a signal starting at t0 carries the
  continuous-time factor exp(-2j*pi*f*t0).
* ``power_spectrum`` returns |G(f)|^2 alone, with no phase, on the same bins:
  one ``rfft`` mirrored over the negative frequencies for a real signal, a
  complex FFT otherwise. The band moments read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = [
    "InvalidInputError",
    "DegenerateInputError",
    "InvalidGridError",
    "TimeGrid",
    "SampledSignal",
    "Spectrum",
    "PowerSpectrum",
    "energy",
    "spectral_energy",
    "positive_int",
    "non_negative_int",
    "fast_length",
    "dft_spectrum",
    "power_spectrum",
]


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class DegenerateInputError(ValueError):
    """Zero-energy signal or empty analysis band."""


class InvalidGridError(ValueError):
    """A grid cannot hold the requested construction."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; sample k lives at start_time + (k + 1/2) * sample_interval."""

    start_time: float
    sample_interval: float
    num_samples: int

    def __post_init__(self) -> None:
        if not self.sample_interval > 0:
            raise InvalidInputError(f"sample_interval must be > 0, got {self.sample_interval}")
        if self.num_samples < 2:
            raise InvalidInputError(f"num_samples must be >= 2, got {self.num_samples}")
        if not math.isfinite(self.start_time + (self.num_samples - 0.5) * self.sample_interval):
            raise InvalidInputError(
                f"grid of {self.num_samples} samples every {self.sample_interval:g} from "
                f"{self.start_time:g} ends beyond the float range"
            )

    def times(self) -> np.ndarray:
        """Midpoint sample times."""
        k = np.arange(self.num_samples)
        return self.start_time + (k + 0.5) * self.sample_interval


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a TimeGrid."""

    grid: TimeGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise InvalidInputError(f"samples must be 1-d, got shape {samples.shape}")
        if samples.shape[0] != self.grid.num_samples:
            raise InvalidInputError(
                f"sample count {samples.shape[0]} does not match grid ({self.grid.num_samples})"
            )
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class _FrequencyBins:
    """Values on a uniform frequency grid: bin k at ``frequency(k)``."""

    start_freq: float
    freq_interval: float
    values: np.ndarray = field(repr=False)

    _dtype: ClassVar[type] = np.complex128

    def __post_init__(self) -> None:
        if not self.freq_interval > 0:
            raise InvalidInputError(f"freq_interval must be > 0, got {self.freq_interval}")
        values = np.asarray(self.values, dtype=self._dtype)
        if values.ndim != 1 or values.shape[0] < 2:
            raise InvalidInputError("values must be a 1-d array with at least 2 bins")
        object.__setattr__(self, "values", values)

    def frequency(self, k):
        """start_freq + k * freq_interval, for an int or an integer array k."""
        return self.start_freq + k * self.freq_interval

    def bins_within(self, half_width: float) -> slice:
        """The bins k with |frequency(k)| <= half_width, as one slice.

        Bisects on ``frequency``, whose float value is nondecreasing in k, so
        the slice holds exactly the bins a mask over ``frequency`` of every
        bin would pick, without building the grid.
        """

        def first(pred) -> int:
            lo, hi = 0, self.values.shape[0]
            while lo < hi:
                mid = (lo + hi) // 2
                if pred(self.frequency(mid)):
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        return slice(first(lambda f: f >= -half_width), first(lambda f: f > half_width))

    @classmethod
    def _fftshifted(cls, values: np.ndarray, sample_interval: float):
        """L fftshifted transform bins of a signal sampled every sample_interval:
        spacing 1 / (L * sample_interval), bin 0 at -(L//2) spacings."""
        length = values.shape[0]
        freq_interval = 1.0 / (length * sample_interval)
        return cls(start_freq=-(length // 2) * freq_interval, freq_interval=freq_interval, values=values)


@dataclass(frozen=True)
class Spectrum(_FrequencyBins):
    """Complex spectral values G(f) on a uniform frequency grid."""


@dataclass(frozen=True)
class PowerSpectrum(_FrequencyBins):
    """Real |G(f)|^2 on a uniform frequency grid; no phase."""

    _dtype: ClassVar[type] = np.float64


def energy(signal: SampledSignal) -> float:
    """Midpoint Riemann sum of |g(t)|^2."""
    if signal.samples.size == 0:
        raise InvalidInputError("empty signal")
    mags = np.abs(signal.samples)
    return float(np.dot(mags, mags) * signal.grid.sample_interval)


def spectral_energy(spectrum: Spectrum) -> float:
    """Riemann sum of |G(f)|^2 over the spectrum's grid."""
    mags = np.abs(spectrum.values)
    return float(np.dot(mags, mags) * spectrum.freq_interval)


def positive_int(value, name: str) -> int:
    """value as an int if it is a whole number in [1, 2**63 - 1], the range
    numpy sizes and counts take; InvalidInputError otherwise (also for bool)."""
    return _whole_number(value, name, 1, "a positive integer")


def non_negative_int(value, name: str) -> int:
    """value as an int if it is a whole number in [0, 2**63 - 1];
    InvalidInputError otherwise (also for bool)."""
    return _whole_number(value, name, 0, "a non-negative integer")


def _whole_number(value, name: str, minimum: int, what: str) -> int:
    try:
        if not isinstance(value, bool) and int(value) == value and minimum <= value <= np.iinfo(np.int64).max:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{name} must be {what} below 2**63, got {value!r}")


def fast_length(minimum: int) -> int:
    """The smallest 5-smooth integer 2**a * 3**b * 5**c that is >= minimum.

    FFT lengths with no prime factor above 5 run at full speed; a large prime
    factor can make the transform several times slower.
    """
    minimum = positive_int(minimum, "FFT length")
    best = 1 << (minimum - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least odd * 2**a >= minimum
            best = min(best, odd << (-(-minimum // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


# Phase-anchor tables: bin k = a * _ANCHOR_BLOCK + b, applied _ANCHOR_ROWS rows of
# the block at a time so the product table stays small.
_ANCHOR_BLOCK = 1024
_ANCHOR_ROWS = 32


def _anchor_phase(values: np.ndarray, freq_interval: float, t_first: float, scale: float) -> None:
    """values[k] *= scale * exp(-2j*pi*f_k*t_first) in place, f_k = (k - L//2) * freq_interval.

    With k = a*B + b the phasor is exactly exp(-2j*pi*(a*B - L//2)*df*t) times
    exp(-2j*pi*b*df*t), so two short exp tables replace one exp per bin.
    """
    length = values.shape[0]
    rows = -(-length // _ANCHOR_BLOCK)
    phase = -2j * np.pi * freq_interval * t_first
    coarse = np.exp(phase * (np.arange(rows) * _ANCHOR_BLOCK - length // 2))
    fine = scale * np.exp(phase * np.arange(_ANCHOR_BLOCK))
    for a in range(0, rows, _ANCHOR_ROWS):
        chunk = values[a * _ANCHOR_BLOCK:(a + _ANCHOR_ROWS) * _ANCHOR_BLOCK]
        chunk *= np.multiply.outer(coarse[a:a + _ANCHOR_ROWS], fine).ravel()[:chunk.shape[0]]


def _transform_length(signal: SampledSignal, zero_pad_factor: int) -> int:
    return fast_length(positive_int(zero_pad_factor, "zero_pad") * signal.grid.num_samples)


def dft_spectrum(signal: SampledSignal, zero_pad_factor: int = 4) -> Spectrum:
    """Discrete approximation of the continuous Fourier transform.

    Parameters
    ----------
    signal : SampledSignal
    zero_pad_factor : int
        The minimum padding: the transform length L is the smallest 5-smooth
        integer >= zero_pad_factor * num_samples (``fast_length``), so the
        bin spacing is 1 / (L * sample_interval).

    Returns
    -------
    Spectrum
        L bins, fftshifted (bin 0 at -(L//2) times the bin spacing), whose values
        approximate G(f) = integral g(t) exp(-2j*pi*f*t) dt at the bin
        frequencies; Parseval holds to rounding for any zero_pad_factor.
    """
    dt = signal.grid.sample_interval
    length = _transform_length(signal, zero_pad_factor)
    spectrum = Spectrum._fftshifted(np.fft.fftshift(np.fft.fft(signal.samples, length)), dt)
    # Anchor the phase at the first sample's true time; the aliased negative
    # frequencies pick up exp(2j*pi*fs*j*dt) = 1 at integer j, so this is
    # consistent with the unshifted transform.
    _anchor_phase(spectrum.values, spectrum.freq_interval, signal.grid.start_time + 0.5 * dt, dt)
    return spectrum


def power_spectrum(signal: SampledSignal, zero_pad_factor: int = 4) -> PowerSpectrum:
    """|G(f)|^2 on exactly the bins of ``dft_spectrum(signal, zero_pad_factor)``.

    The phase anchor does not change |G(f)|^2, so it is not applied. A real
    signal takes one ``rfft``, and its bin -k mirrors bin k (the unpaired -L/2
    bin of an even L is the rfft's last); a complex one takes the full FFT and
    fftshifts its power. The FFT is scaled by the sample interval before
    squaring, which keeps the float range of ``dft_spectrum``'s values.
    """
    dt = signal.grid.sample_interval
    length = _transform_length(signal, zero_pad_factor)
    samples = signal.samples
    real = not samples.imag.any()
    values = np.fft.rfft(samples.real, length) if real else np.fft.fft(samples, length)
    values *= dt
    power = values.real ** 2
    power += values.imag ** 2
    if real:
        power = np.concatenate((power[length // 2:0:-1], power[:length - length // 2]))
    else:
        power = np.fft.fftshift(power)
    return PowerSpectrum._fftshifted(power, dt)
