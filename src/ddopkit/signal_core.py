"""Sampled-signal containers and discrete Fourier arithmetic.

Conventions used throughout the package:

* A ``TimeGrid`` places sample k at ``start_time + (k + 0.5) * sample_interval``
  (midpoint rule). Energies and inner products are midpoint Riemann sums, so
  removable singularities and support edges stay off the sample points on the
  default grids.
* ``power_spectrum`` is the transform of a sampled signal. It returns
  |G(f)|^2 alone, with no phase: nothing the package measures or checks reads
  the phase. It runs at the smallest 5-smooth length L (2**a * 3**b * 5**c,
  see ``fast_length``) of at least zero_pad * num_samples, scales the FFT by
  the sample interval and puts bin 0 at -(L//2) times the bin spacing
  (fftshifted). A real signal takes one ``rfft`` mirrored over the negative
  frequencies, a complex one a full FFT. ``metrics.measure_all``'s band
  moments and ``verify``'s Parseval check read it; the discrete Parseval
  identity holds to rounding for any L.
* ``metrics.measure_train`` measures the same L bins of a pulse train,
  picked by the same ``bins_within`` rule, and never synthesizes the train
  or transforms at length L: the band's moments are the sub-pulse's
  autocorrelation against a band kernel of the coefficients' comb, a chirp
  z-transform at the sub-pulse's lags. The energy of all L bins, the
  capture's total, comes from the discrete Parseval identity.
* Every sum of products in the package (energies, moments, the btrrc
  cosine sum) runs in numpy's own ``einsum`` loop (``sum_of_products``),
  never in BLAS. A threaded BLAS splits a long sum between its threads, so
  its rounding would follow the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidInputError",
    "DegenerateInputError",
    "TimeGrid",
    "SampledSignal",
    "PowerSpectrum",
    "bins_within",
    "energy",
    "spectral_energy",
    "sum_of_products",
    "positive_int",
    "non_negative_int",
    "fast_length",
    "power_spectrum",
]


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class DegenerateInputError(ValueError):
    """Zero-energy signal or empty analysis band."""


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
class PowerSpectrum:
    """Real |G(f)|^2 on a uniform frequency grid, bin k at ``frequency(k)``; no phase."""

    start_freq: float
    freq_interval: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.freq_interval > 0:
            raise InvalidInputError(f"freq_interval must be > 0, got {self.freq_interval}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 2:
            raise InvalidInputError("values must be a 1-d array with at least 2 bins")
        object.__setattr__(self, "values", values)

    def frequency(self, k):
        """start_freq + k * freq_interval, for an int or an integer array k."""
        return self.start_freq + k * self.freq_interval

    def bins_within(self, half_width: float) -> slice:
        """The bins k with |frequency(k)| <= half_width, as one slice (``bins_within``)."""
        return bins_within(self.start_freq, self.freq_interval, self.values.shape[0], half_width)


def bins_within(start_freq: float, freq_interval: float, count: int, half_width: float) -> slice:
    """The bins k < count with |start_freq + k * freq_interval| <= half_width, as one slice.

    Bisects on that float expression, which is nondecreasing in k, so the
    slice holds exactly the bins a mask over every bin's frequency would
    pick, without building the grid.
    """

    def first(pred) -> int:
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(start_freq + mid * freq_interval):
                hi = mid
            else:
                lo = mid + 1
        return lo

    return slice(first(lambda f: f >= -half_width), first(lambda f: f > half_width))


def sum_of_products(a: np.ndarray, b: np.ndarray):
    """sum_i a[i] * b[i], no conjugation, as a numpy scalar.

    ``einsum`` without ``optimize`` sums in numpy's own single-threaded
    loop, so the result does not depend on the BLAS thread count.
    """
    return np.einsum("i,i->", a, b)


def energy(signal: SampledSignal) -> float:
    """Midpoint Riemann sum of |g(t)|^2."""
    if signal.samples.size == 0:
        raise InvalidInputError("empty signal")
    mags = np.abs(signal.samples)
    return float(sum_of_products(mags, mags) * signal.grid.sample_interval)


def spectral_energy(spectrum: PowerSpectrum) -> float:
    """Riemann sum of |G(f)|^2 over the spectrum's grid."""
    return float(np.sum(spectrum.values) * spectrum.freq_interval)


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


def _turn_table(k: np.ndarray, t: range, period: int) -> np.ndarray:
    """exp(-2j pi ((k t) mod period)/period), the integers k down the rows
    and the arithmetic progression t along the columns. Every product is
    reduced modulo the period, into (-period/2, period/2], before it is
    scaled, so a large one keeps full precision and no angle exceeds pi.

    With t_n = t_0 + stride (B a + b), B about sqrt(len(t)), the table is
    the product of two factors,
    exp(-2j pi (k (t_0 + stride B a) mod period)/period) and
    exp(-2j pi (k stride b mod period)/period): about 2 sqrt(len(t)) exps
    per k instead of len(t), each entry a few ulp from the direct exp.
    """
    k = np.asarray(k, dtype=np.int64)

    def turn(angles):
        reduced = np.outer(k, angles) % period
        reduced[2 * reduced > period] -= period
        return np.exp(-2j * np.pi * reduced / period)

    block = math.isqrt(len(t) - 1) + 1
    coarse = turn(t.start + t.step * block * np.arange(-(-len(t) // block), dtype=np.int64))
    fine = turn(t.step * np.arange(block, dtype=np.int64))
    table = (coarse[:, :, None] * fine[:, None, :]).reshape(k.shape[0], -1)
    return np.ascontiguousarray(table[:, :len(t)])


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


def _transform_grid(grid: TimeGrid, zero_pad: int) -> tuple[int, float, float]:
    """The transform length L = ``fast_length(zero_pad * num_samples)``, the
    first bin's frequency -(L//2)/(L dt) and the bin spacing 1/(L dt): the
    bins ``power_spectrum`` returns and ``metrics.spectrum_layout`` reads."""
    length = fast_length(positive_int(zero_pad, "zero_pad") * grid.num_samples)
    freq_interval = 1.0 / (length * grid.sample_interval)
    return length, -(length // 2) * freq_interval, freq_interval


def power_spectrum(signal: SampledSignal, zero_pad_factor: int = 4) -> PowerSpectrum:
    """|G(f)|^2, G(f) = integral g(t) exp(-2j*pi*f*t) dt, on L fftshifted bins.

    L is the smallest 5-smooth integer >= zero_pad_factor * num_samples
    (``fast_length``); bin k sits at (k - L//2) / (L * sample_interval) and
    holds |sample_interval * X|^2, X the length-L DFT of the zero-padded
    samples at that frequency, so Parseval holds to rounding for any
    zero_pad_factor. A real signal takes one ``rfft``, and its bin -k mirrors
    bin k (the unpaired -L/2 bin of an even L is the rfft's last); a complex
    one takes the full FFT and fftshifts its power. Scaling by the sample
    interval before squaring keeps the power in the float range.
    """
    dt = signal.grid.sample_interval
    length, start_freq, freq_interval = _transform_grid(signal.grid, zero_pad_factor)
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
    return PowerSpectrum(start_freq=start_freq, freq_interval=freq_interval, values=power)
