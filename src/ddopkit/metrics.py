"""Time-frequency localization measurements.

Dispersions are standard deviations of the normalized energy distributions:
Delta T over the full time grid, Delta F over a symmetric analysis band
(moments computed from the in-band spectrum only, with the captured energy
fraction reported alongside). The area Delta T * Delta F is bounded below by
1/(4*pi) and the Gaussian exp(-pi t^2) attains the bound.

``measure_all`` measures a sampled signal through ``power_spectrum``; it is
the independent oracle. ``measure_train`` measures every pulse train from
its parts (``TrainParts``) and never builds it. Its length-L DFT is the
sub-pulse's DFT times the coefficients' comb, |U|^2 = |S|^2 |C|^2, so the
band's moments are lag products: the sub-pulse's autocorrelation over its
2w - 1 lags against a band kernel of |C|^2, which a chirp z-transform
evaluates at exactly those lags. ΔT, the mean time and the energy are the
sub-pulse's and the coefficients' moments plus, where sub-pulses overlap,
lag products, all summed in the time domain by ``_train_moments``, the
package's one such sum, whose energy ``experiments.orthogonality_scan``
divides by too; the capture's total, all L bins, is the energy by discrete
Parseval. S is a nonzero polynomial of degree at most w - 1 in
omega^kappa, so a band holding more than w bins of positive comb weight
has two with energy; only a band of at most w such bins is left to the
rows that find lit bins (``_lit_bins``).

What the band moments read besides the sub-pulse samples, L, the band's
run of bins, the band kernel and the rows that find lit bins, is the
train's ``SpectrumLayout`` (``spectrum_layout``). ``measure_train`` builds
one per call; ``experiments.run_sweep`` keeps the last one built, under its
train's ``layout_key``, and measures the sweep's next points with it while
their keys match, such as every point of a roll-off sweep. A layout is
read-only.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .pulses import PulseSpec, TrainParts
from .signal_core import (
    DegenerateInputError,
    InvalidInputError,
    PowerSpectrum,
    SampledSignal,
    _chunk_rows,
    _transform_grid,
    _turn_table,
    bins_within,
    fast_length,
    power_spectrum,
    sum_of_products,
)

__all__ = [
    "Provenance",
    "LocalizationMetrics",
    "AnalysisBand",
    "measure_time",
    "measure_freq",
    "measure_all",
    "SpectrumLayout",
    "layout_key",
    "spectrum_layout",
    "measure_train",
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


def _moments(x: np.ndarray, weights: np.ndarray, total: float) -> tuple[float, float]:
    """Mean and variance of x under weights summing to total; an over- or
    underflow is left to ``_dispersion`` to judge."""
    with np.errstate(all="ignore"):
        mean = float(sum_of_products(x, weights) / total)
        var = float(sum_of_products((x - mean) ** 2, weights) / total)
    return mean, var


def _dispersion(var: float, what: str) -> float:
    """The standard deviation; a variance that is not positive and finite is an error."""
    if not 0.0 < var < math.inf:
        raise DegenerateInputError(
            f"the {what} variance ({var:g}) is not a positive number in the float range "
            f"(0, {sys.float_info.max:g}]; rescale T towards 1"
        )
    return math.sqrt(var)


def measure_time(signal: SampledSignal) -> tuple[float, float]:
    """Mean time and time dispersion of |g(t)|^2, midpoint Riemann sums."""
    with np.errstate(all="ignore"):
        weights = np.abs(signal.samples) ** 2 * signal.grid.sample_interval
        total = float(np.sum(weights))
    if total <= 0.0:
        raise DegenerateInputError("zero-energy signal")
    mean, var = _moments(signal.grid.times(), weights, total)
    return mean, _dispersion(var, "time")


def _check_band(in_band: float, nonzero: int, bins: int, band: AnalysisBand, freq_interval: float) -> None:
    """Reject a band with no energy, or with energy in a single bin."""
    if in_band <= 0.0:
        raise DegenerateInputError("no spectral energy inside the analysis band")
    if nonzero < 2:
        where = f"the analysis band |f| <= {band.half_width:g}"
        if bins < 2:
            advice = f"{where} holds a single spectral bin (bin spacing {freq_interval:g}); widen the band"
        else:
            advice = (f"only one of the {bins} bins in {where} carries energy; the rest are exact "
                      f"zeros of the spectrum at bin spacing {freq_interval:g}, so raise the "
                      f"zero-pad factor")
        raise DegenerateInputError(advice)


def measure_freq(spectrum: PowerSpectrum, band: AnalysisBand) -> tuple[float, float, float]:
    """Mean frequency, frequency dispersion, and captured energy fraction.

    Moments are computed from |G(f)|^2 over |f| <= band.half_width only, one
    contiguous run of bins (``PowerSpectrum.bins_within``). The capture is the
    in-band energy over the in-band plus the out-of-band energy, so it never
    exceeds 1. A band whose energy sits in a single bin has no measurable
    spread and is rejected: the message says to widen a band that spans fewer
    than two bins, and to raise the zero-pad factor where the band's other
    bins are exact zeros of the spectrum.
    """
    power = spectrum.values
    bins = spectrum.bins_within(band.half_width)
    with np.errstate(all="ignore"):
        wb = power[bins] * spectrum.freq_interval
        in_band = float(np.sum(wb))
        out_band = float(np.sum(power[:bins.start]) + np.sum(power[bins.stop:])) * spectrum.freq_interval
    _check_band(in_band, np.count_nonzero(wb), wb.shape[0], band, spectrum.freq_interval)
    fb = spectrum.frequency(np.arange(bins.start, bins.stop))
    mean, var = _moments(fb, wb, in_band)
    return mean, _dispersion(var, "frequency"), in_band / (in_band + out_band)


def measure_all(signal: SampledSignal, band: AnalysisBand, zero_pad: int = 4) -> LocalizationMetrics:
    """Numeric localization metrics of a sampled signal."""
    mean_time, time_disp = measure_time(signal)
    mean_freq, freq_disp, capture = measure_freq(power_spectrum(signal, zero_pad), band)
    return LocalizationMetrics(mean_time=mean_time, mean_freq=mean_freq, time_dispersion=time_disp,
                               freq_dispersion=freq_disp, provenance=Provenance.NUMERIC, energy_capture=capture)


class SpectrumLayout(NamedTuple):
    """What ``measure_train`` reads of a train's band that does not depend
    on its sub-pulse samples.

    length is ``power_spectrum``'s transform length L, freq_interval the bin
    spacing 1/(L dt), kappas the band's run lo <= kappa < hi of signed bins
    (``bins_within``) and period R = L/gcd(L, P), the comb's. kernel holds
    the band kernel K_p[e] for p = 0, 1, 2 and the lags 0 <= e < w
    (``_band_kernel``), doubled at e > 0 and conjugated, as pairs of floats:
    the band's moments are kernel times the sub-pulse's autocorrelation
    read as pairs of floats. The band's bins kappa = j + R i, 0 <= i < run,
    fall in R rows j = lo..lo + R - 1; rows and runs list, in row order, the
    rows whose comb weight is not zero and their runs, which
    ``_lit_bins`` reads. The arrays are read-only, so one layout serves
    every train of one ``layout_key``, such as every point of a roll-off
    sweep.
    """

    length: int
    period: int
    freq_interval: float
    kappas: tuple[int, int]
    kernel: np.ndarray
    rows: np.ndarray
    runs: np.ndarray


def layout_key(parts: TrainParts, band: AnalysisBand, zero_pad: int) -> tuple:
    """What a ``SpectrumLayout`` depends on: the grid, the sub-pulse's width,
    P, the coefficients, the band and zero_pad."""
    return (parts.grid, parts.subpulse.shape[0], parts.per_t, parts.coefficients.tobytes(), band, zero_pad)


def spectrum_layout(parts: TrainParts, band: AnalysisBand, zero_pad: int = 4) -> SpectrumLayout:
    """The ``SpectrumLayout`` of a train measured from its parts.

    Bin k of L sits at signed index kappa = k - L//2. The coefficients'
    comb C(kappa) = sum_n c_n exp(-2j pi kappa n P/L) repeats every
    R = L/g bins, g = gcd(L, P): |C(kappa)|^2 is entry (kappa P/g) mod R
    of one R-point FFT of the coefficients. With n = hi - lo = q R + rem
    bins in the band, row lo + j holds q + 1 of them for j < rem and q
    for the rest; a band narrower than R has only its n rows.
    """
    length, start_freq, freq_interval = _transform_grid(parts.grid, zero_pad)
    bins = bins_within(start_freq, freq_interval, length, band.half_width)
    lo, hi = bins.start - length // 2, bins.stop - length // 2
    g = math.gcd(length, parts.per_t)
    period = length // g
    full, rem = divmod(hi - lo, period)
    rows = np.arange(min(period, hi - lo))
    comb = np.abs(np.fft.fft(parts.coefficients, period)) ** 2
    weight = comb[(lo + rows) * (parts.per_t // g) % period]
    kernel = _band_kernel(weight, (lo, hi), period, length, parts.subpulse.shape[0])
    lit = np.flatnonzero(weight > 0.0)
    runs = full + (lit < rem)
    lit += lo
    for array in (kernel, lit, runs):
        array.flags.writeable = False
    return SpectrumLayout(length, period, freq_interval, (lo, hi), kernel, lit, runs)


def _band_kernel(weight: np.ndarray, kappas: tuple[int, int], period: int, length: int,
                 width: int) -> np.ndarray:
    """K_p[e] = sum_kappa (kappa - c)^p W(kappa) omega^(kappa e) over the band
    lo <= kappa < hi, c = (lo + hi - 1)/2 its centre, W = |C|^2 the comb and
    omega = exp(-2j pi/L), for p = 0, 1, 2 and 0 <= e < w, as a
    ``SpectrumLayout`` holds it.

    With kappa = lo + j + R i, n = q R + rem and h = (rem - 1)/2,
    kappa - c = (j - h) + R (i - q/2), and W depends on j alone (weight[j]).
    The rows split into two blocks, j < rem with i < q + 1 and the rest with
    i < q. Each block's K_p is the binomial sum of
    V_b[e] = sum_j W_j (j - h)^b omega^(j e) over the block's rows, one
    chirp z-transform of its three rows (``_chirp_z``), and
    T_a[e] = sum_i (R (i - q/2))^a exp(-2j pi i e/g), a g-point FFT read at
    e mod g, both blocks' in one transform. The chirp and the block's turn
    omega^(j0 e), j0 its first bin, have their angles reduced exactly, as
    ``_turn_table`` reduces them.
    """
    lo, hi = kappas
    full, rem = divmod(hi - lo, period)
    g = length // period
    k = np.arange(max(weight.shape[0], width), dtype=np.int64)
    angle = k * k % (2 * length)
    angle[angle > length] -= 2 * length
    chirp = np.exp(-1j * np.pi * angle / length)  # omega^(k^2/2), shared by both blocks
    i, e = np.arange(g), np.arange(width)
    steps = period * (i - 0.5 * full)
    sums = np.fft.fft([(i < run) * np.stack((np.ones(g), steps, steps * steps)) for run in (full + 1, full)])
    turns = _turn_table(np.array([lo, lo + rem]), range(width), length)
    offsets = np.arange(weight.shape[0]) - 0.5 * (rem - 1)
    kernel = np.zeros((3, width), dtype=np.complex128)
    for block, start, stop, run in ((0, 0, rem, full + 1), (1, rem, weight.shape[0], full)):
        if run == 0 or stop == start:
            continue
        w, j = weight[start:stop], offsets[start:stop]
        v = _chirp_z(np.stack((w, w * j, w * (j * j))), chirp, width)
        v *= turns[block]
        t = sums[block][:, e % g]
        kernel[0] += t[0] * v[0]
        kernel[1] += t[0] * v[1] + t[1] * v[0]
        kernel[2] += t[0] * v[2] + 2.0 * t[1] * v[1] + t[2] * v[0]
    kernel[:, 1:] *= 2.0  # lag -e is the conjugate of lag e
    return np.conj(kernel).view(np.float64)


def _chirp_z(x: np.ndarray, chirp: np.ndarray, count: int) -> np.ndarray:
    """sum_j x[:, j] omega^(j e) for 0 <= e < count, Bluestein's chirp
    z-transform, with chirp[k] = omega^(k^2/2) for k < max(len(x), count):
    j e = (j^2 + e^2 - (e - j)^2)/2, so the sum is chirp(e) times the linear
    convolution of x chirp with conj(chirp). The convolution runs at
    ``fast_length(len(x) + count - 1)``, so no lag wraps, on as many rows
    at once as ``_chunk_rows`` fits in ``signal_core._HEAP_CHUNK_BYTES`` of
    transforms: one at a time on the 256 x 8 btrrc train (64 KiB a row),
    all three on the default 256 x 64 train."""
    n = x.shape[-1]
    size = fast_length(n + count - 1)
    spread = np.zeros(size, dtype=np.complex128)
    spread[:count] = np.conj(chirp[:count])
    spread[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    spread = np.fft.fft(spread)
    out = np.empty((x.shape[0], count), dtype=np.complex128)
    step = _chunk_rows(16 * size)
    for start in range(0, x.shape[0], step):
        spectra = np.fft.fft(x[start:start + step] * chirp[:n], size)
        spectra *= spread
        out[start:start + step] = np.fft.ifft(spectra)[:, :count]
    out *= chirp[:count]
    return out


class _TrainMoments(NamedTuple):
    """The terms ``_train_moments`` sums: lag 0's energy is
    sub_energy * coef_energy, and overlap is the overlapping lags'."""

    sub_energy: float
    coef_energy: float
    overlap: float
    mean_time: float
    time_var: float

    @property
    def energy(self) -> float:
        return self.sub_energy * self.coef_energy + self.overlap


def _train_moments(parts: TrainParts) -> _TrainMoments:
    """The terms of the energy, the mean time and the time variance of the
    train u_i = sum_k c_k s_{i-kP}, summed in the time domain; a zero energy
    is degenerate. Sample i = kP + x lies at tau_x + kT, T = P dt. Lag 0 gives
    the moments of |s_x|^2 and |c_k|^2; each lag q >= 1 at which sub-pulses
    k and k - q share d = w - qP > 0 samples adds 2 Re of
    sum_k c_k conj(c_{k-q}) kappa_k^a times sum_x s_x conj(s_{x+qP}) sigma_x^b,
    a + b <= 2, kappa_k and sigma_x the times kT and tau_x about their lag-0
    means: exactly 0.0 without overlap. The rows (1, kappa, kappa^2) over
    every k and (1, sigma, sigma^2) over every x are built once, and lag q
    reads them from k = q and up to x = d."""
    sub, coefficients, per_t = parts.subpulse, parts.coefficients, parts.per_t
    count, width, dt = coefficients.shape[0], sub.shape[0], parts.grid.sample_interval
    coef_power, sub_power = np.abs(coefficients) ** 2, np.abs(sub) ** 2
    sub_energy, coef_energy = float(np.sum(sub_power)), float(np.sum(coef_power))
    single = sub_energy * coef_energy  # lag 0's energy
    if not single > 0.0:
        raise DegenerateInputError("pulse has zero energy on its grid")
    tau, index = parts.grid.start_time + (np.arange(width) + 0.5) * dt, np.arange(count)
    sub_mean, sub_var = _moments(tau, sub_power, sub_energy)
    index_mean, index_var = _moments(index, coef_power, coef_energy)
    period = per_t * dt
    mean, var = sub_mean + period * index_mean, sub_var + period * period * index_var
    lags = np.zeros((3, 3), dtype=np.complex128)  # [a, b]: the two sums' product, summed over q
    overlapping = range(1, min(count, -(-width // per_t)))
    with np.errstate(all="ignore"):
        if overlapping:
            kappa, sigma = (np.stack((np.ones_like(v), v, v * v))
                            for v in (period * (index - index_mean), tau - sub_mean))
        for q in overlapping:
            d = width - q * per_t
            pair = coefficients[q:] * coefficients[:count - q].conj()
            shared = sub[:d] * sub[width - d:].conj()
            lags += np.outer(np.einsum("ak,k->a", kappa[:, q:], pair), np.einsum("bx,x->b", sigma[:, :d], shared))
        x0, x1 = 2.0 * float(lags[0, 0].real), 2.0 * float((lags[0, 1] + lags[1, 0]).real)
        x2 = 2.0 * float((lags[0, 2] + 2.0 * lags[1, 1] + lags[2, 0]).real)
        energy = single + x0
        shift = x1 / energy
        var = var * (single / energy) + x2 / energy - shift * shift
    return _TrainMoments(sub_energy, coef_energy, x0, mean + shift, var)


def measure_train(parts: TrainParts, band: AnalysisBand, zero_pad: int = 4) -> LocalizationMetrics:
    """Numeric localization metrics of the train ``parts.signal()``: those of
    ``measure_all(parts.signal(), band, zero_pad)``, to rounding.

    With L bins, bin kappa of the train u_i = sum_n c_n s_{i - nP} is
    S(kappa) C(kappa): S the sub-pulse's length-L DFT and C the
    coefficients' comb, so |U|^2 = |S|^2 |C|^2. |S(kappa)|^2 is
    sum_e rho_s[e] omega^(kappa e), rho_s the sub-pulse's autocorrelation
    over its 2w - 1 lags and omega = exp(-2j pi/L), so the band's moments
    sum_kappa (kappa - c)^p |U(kappa)|^2, p = 0, 1, 2, are
    Re sum_e rho_s[e] K_p[e], K_p the band kernel of the layout
    (``_band_kernel``); rho_s is one FFT of ``fast_length(2w - 1)`` points,
    overlapping sub-pulses or not. Neither the train nor an L-long array is
    built. The energy, mean time and ΔT are ``_train_moments``'s, and by
    discrete Parseval all L bins hold L times that energy: the capture is
    the in-band sum over the larger of that total and itself, so it never
    exceeds 1, and a band of every bin captures exactly 1. Whether the band
    holds two bins with energy, which lags cannot tell, is counted
    (``_band_moments``) or, in a band of at most w bins of positive comb
    weight, ``_lit_bins``'s.

    Everything above but the sub-pulse's autocorrelation and its moments is
    the train's ``SpectrumLayout``, which ``spectrum_layout`` builds for this
    call (``_measure_on``).
    """
    return _measure_on(parts, band, spectrum_layout(parts, band, zero_pad))


def _measure_on(parts: TrainParts, band: AnalysisBand, layout: SpectrumLayout) -> LocalizationMetrics:
    """``measure_train`` on the train's layout, which the caller found by the
    train's ``layout_key(parts, band, zero_pad)``, as
    ``experiments.measure_point`` does."""
    moments = _train_moments(parts)
    time_disp = _dispersion(moments.time_var, "time")
    total = layout.length * moments.sub_energy * moments.coef_energy + layout.length * moments.overlap
    mean_freq, freq_disp, capture = _band_moments(parts.subpulse, layout, band, total)
    return LocalizationMetrics(mean_time=moments.mean_time, mean_freq=mean_freq, time_dispersion=time_disp,
                               freq_dispersion=freq_disp, provenance=Provenance.NUMERIC, energy_capture=capture)


def _band_moments(sub: np.ndarray, layout: SpectrumLayout, band: AnalysisBand,
                  total: float) -> tuple[float, float, float]:
    """``measure_freq`` of the train's spectrum from the sub-pulse's
    autocorrelation and the layout's kernel, with ``total`` the power of
    all L bins (``measure_train``'s Parseval sum). The band's bins of
    positive comb weight number B, the layout's runs summed. S(kappa), a
    polynomial of degree at most w - 1 in omega^kappa and not zero, as
    ``_train_moments`` has rejected a sub-pulse of zero energy, vanishes on
    at most w - 1 of the B distinct omega^kappa, so where B > w two bins
    carry energy and no spectrum is read. Where B <= w, ``_lit_bins``
    decides, and a band without a lit row holds no energy."""
    (lo, hi), freq_interval = layout.kappas, layout.freq_interval
    width = sub.shape[0]
    spectrum = np.fft.fft(sub, fast_length(2 * width - 1))
    rho = np.fft.ifft(spectrum.real ** 2 + spectrum.imag ** 2)[:width]  # sum_t s_{t+e} conj(s_t)
    in_band, first, second = (float(v) for v in np.einsum("pe,e->p", layout.kernel, rho.view(np.float64)))
    nonzero = 2 if int(layout.runs.sum()) > width else _lit_bins(sub, layout)
    _check_band(in_band if nonzero else 0.0, nonzero, hi - lo, band, freq_interval)
    mean = first / in_band  # in bins from the band's centre
    with np.errstate(all="ignore"):
        freq_var = float((second / in_band - mean * mean) * freq_interval * freq_interval)
    whole = in_band if hi - lo == layout.length else max(in_band, total)  # a band of every bin holds it all
    return (0.5 * (lo + hi - 1) + mean) * freq_interval, _dispersion(freq_var, "frequency"), in_band / whole


def _lit_bins(sub: np.ndarray, layout: SpectrumLayout) -> int:
    """2 where two of the band's rows are lit, else the number of the band's
    bins with energy (0 or the lit row's).

    A row j is lit if its comb weight (the layout's rows) and its in-band
    power are > 0. S(j + R i) = sum_t s_t omega^(rt) exp(-2j pi (j//R + i) t/g)
    with r = j mod R, so the row's bins are the g-point FFT of the
    sub-pulse turned by omega^(rt) (``_turn_table``) and folded modulo g,
    read from column (j//R + i) mod g for i < run. Row r = 0 is not turned,
    so the exact zeros of its spectrum stay exact. The rows are read in row
    order, two and then as many as ``_chunk_rows`` fits in
    ``signal_core._HEAP_CHUNK_BYTES`` of folded rows, at least two, at a
    time, until two are lit; a row's bins are counted only where fewer are.
    """
    period, width = layout.period, sub.shape[0]
    g = layout.length // period
    fold = -(-width // g) * g
    lit, start, stop = [], 0, 2
    while start < layout.rows.shape[0] and len(lit) < 2:
        rows, runs = layout.rows[start:stop], layout.runs[start:stop]
        turned = np.zeros((rows.shape[0], fold), dtype=np.complex128)
        np.multiply(_turn_table(rows % period, range(width), layout.length), sub, out=turned[:, :width])
        spectra = np.fft.fft(turned.reshape(rows.shape[0], -1, g).sum(axis=1))
        columns = (rows[:, None] // period + np.arange(g)) % g
        power = np.abs(np.take_along_axis(spectra, columns, axis=1)) ** 2 * (np.arange(g) < runs[:, None])
        lit += [row for row in power if row.sum() > 0.0]
        start, stop = stop, stop + max(2, _chunk_rows(16 * fold))
    return 2 if len(lit) > 1 else sum(np.count_nonzero(row) for row in lit)


def _midpoint(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int) -> float:
    step = (hi - lo) / n
    rho = lo + (np.arange(n) + 0.5) * step
    return float(np.sum(fn(rho)) * step)


# lemma1_check's integration half-width and its midpoint rule's cell count.
_LEMMA1_RHO_MAX = 8.0
_LEMMA1_POINTS = 200_000


def lemma1_check(
    sample_fn: Callable[[np.ndarray], np.ndarray],
    rho_alpha: float,
    rho_gamma: float,
) -> tuple[float, float, float]:
    """Quadratic-moment shift identity for an even profile X.

    For even X supported on (or numerically negligible outside)
    |rho| <= rho_max = ``_LEMMA1_RHO_MAX``:

        int rho^2 |X(rho_alpha*rho - rho_gamma)|^2 drho
          = int rho^2 |X(rho_alpha*rho)|^2 drho
            + (rho_gamma/rho_alpha)^2 * int |X(rho_alpha*rho)|^2 drho

    (the shift contributes its square times the energy of the scaled profile;
    the cross term vanishes by evenness). Returns (lhs, rhs, abs_error), each
    side evaluated by its own midpoint rule with ``_LEMMA1_POINTS`` cells aligned to
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

    lo, hi = sorted(((-_LEMMA1_RHO_MAX + rho_gamma) / rho_alpha, (_LEMMA1_RHO_MAX + rho_gamma) / rho_alpha))
    lhs = _midpoint(shifted_sq, lo, hi, _LEMMA1_POINTS)
    half = _LEMMA1_RHO_MAX / abs(rho_alpha)
    rhs = _midpoint(scaled_sq, -half, half, _LEMMA1_POINTS) + (rho_gamma / rho_alpha) ** 2 * _midpoint(
        scaled_energy, -half, half, _LEMMA1_POINTS
    )
    return lhs, rhs, abs(lhs - rhs)
