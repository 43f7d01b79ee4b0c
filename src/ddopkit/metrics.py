"""Time-frequency localization measurements.

Dispersions are standard deviations of the normalized energy distributions:
Delta T over the full time grid, Delta F over a symmetric analysis band
(moments computed from the in-band spectrum only, with the captured energy
fraction reported alongside). The area Delta T * Delta F is bounded below by
1/(4*pi) and the Gaussian exp(-pi t^2) attains the bound.

``measure_all`` measures a sampled signal through ``power_spectrum``; it is
the independent oracle. ``measure_train`` measures every pulse train from
its parts (``TrainParts``) and never builds it: its length-L DFT is the
sub-pulse's DFT times the coefficients' comb, so the band moments are sums
over m-point sub-pulse transforms, two spectrum rows to a transform, m a
divisor of L that holds the sub-pulse. ΔT, the mean time and the energy
are the sub-pulse's and the coefficients' moments plus, where sub-pulses
overlap, lag products; the capture's total, all L bins, is the energy by
discrete Parseval.

What that row spectrum reads besides the sub-pulse samples, (m, r), the
band's run of bins, the rows, their turn tables and the comb's weights, is
the train's ``SpectrumLayout`` (``spectrum_layout``). ``measure_train``
builds one per call unless it is given one; ``experiments.run_sweep``
keeps the last one built and passes it on to the sweep's next points while
their trains share it, such as every point of a roll-off sweep. A layout
also holds ``_row_power``'s buffers, so it serves one measurement at a time.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .pulses import PulseSpec, TrainParts
from .signal_core import (
    DegenerateInputError,
    InvalidInputError,
    PowerSpectrum,
    SampledSignal,
    _turn_table,
    bins_within,
    fast_length,
    positive_int,
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
    "spectrum_rows",
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
    return LocalizationMetrics(
        mean_time=mean_time,
        mean_freq=mean_freq,
        time_dispersion=time_disp,
        freq_dispersion=freq_disp,
        provenance=Provenance.NUMERIC,
        energy_capture=capture,
    )


def spectrum_rows(parts: TrainParts, zero_pad: int = 4) -> tuple[int, int]:
    """(m, r): the train's L = m*r spectrum bins as r rows of m.

    L is ``power_spectrum``'s transform length for the train's grid and P the
    samples per T (``TrainParts.per_t``). m is g = gcd(L, P) where the
    sub-pulse's w samples fit in g, and otherwise the smallest divisor of L
    that is at least w; L is 5-smooth, so its divisors are the products of
    its powers of 2, 3 and 5.
    """
    length = fast_length(positive_int(zero_pad, "zero_pad") * parts.grid.num_samples)
    width = parts.subpulse.shape[0]
    m = math.gcd(length, parts.per_t)
    if width > m:
        divisors, rest = {1}, length
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
                divisors |= {d * prime for d in divisors}
        m = min(d for d in divisors if d >= width)
    return m, length // m


_ROW_CHUNK_ELEMENTS = 1 << 14


class SpectrumLayout(NamedTuple):
    """What ``measure_train`` reads of a train's row spectrum that does not
    depend on its sub-pulse samples: all of it but the samples' FFTs.

    (m, r) are ``spectrum_rows``'s, freq_interval the bin spacing 1/(L dt),
    kappas the band's run lo <= kappa < hi of signed bin indices
    (``bins_within``) and rows the spectrum rows read: of a real train (the
    key says whether it is) only rows 0..r/2, which stand for their mirrors
    too. ``_row_power`` transforms the rows in pairs, the first half of them
    with the second: coarse and fine are the first half's turn tables, fine
    already times the pair shift, offset the first row's place in their
    product, and rotate the per-column turn that makes each pair's transform
    the two rows' real spectra. bin_weight is None where m = gcd(L, P),
    each row then weighted by its comb entry |C|^2; otherwise it holds
    every bin's |C|^2 and the rows are weighted by 1. bands lists (kappas,
    sign, row weight), a real train's mirrored band second. key is
    ``layout_key`` of the train it was built for. These arrays are
    read-only, so one layout serves every point of a sweep that shares it.
    power and buffer are ``_row_power``'s output and scratch, allocated
    with the layout and overwritten by every measurement that reads it, so
    a layout serves one measurement at a time.
    """

    key: tuple
    m: int
    r: int
    freq_interval: float
    kappas: tuple[int, int]
    rows: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    offset: int
    rotate: np.ndarray
    bin_weight: np.ndarray | None
    bands: tuple
    power: np.ndarray
    buffer: np.ndarray


def layout_key(parts: TrainParts, band: AnalysisBand, zero_pad: int) -> tuple:
    """What a ``SpectrumLayout`` depends on: the grid, the sub-pulse's width,
    P, the coefficients, whether the train is real, the band and zero_pad."""
    real = not (parts.subpulse.imag.any() or parts.coefficients.imag.any())
    return (parts.grid, parts.subpulse.shape[0], parts.per_t, parts.coefficients.tobytes(), real,
            band, zero_pad)


def spectrum_layout(parts: TrainParts, band: AnalysisBand, zero_pad: int = 4) -> SpectrumLayout:
    """The ``SpectrumLayout`` of a train measured from its parts.

    Bin k is read at its signed index kappa = j + r*i, with row j and
    centered column -(m//2) <= i < m - m//2; for even m the rows run from 0,
    for odd m from -(r//2), so that kappa covers -(L//2)..L - L//2 - 1 once.
    |C(kappa)|^2 is entry (kappa * P/g) mod R of the comb's table,
    g = gcd(L, P) and R = L/g.

    Row j is turned about the sub-pulse's centre h = (w - 1)/2, by
    exp(-2j pi j (t - h)/L), an integer angle j (2t - (w - 1)) modulo 2L.
    With d = ceil(rows/2), rows j and j + d share one transform: the fine
    table is multiplied by the shift 1 + i exp(-2j pi d (t - h)/L), so
    the turned sub-pulse of row j plus i times that of row j + d is the
    product of a coarse and a fine entry, j = coarse + fine, each table
    about sqrt(d) x w entries (``signal_core._turn_table``). rotate is
    exp(+2j pi c h/m), the turn of column c that moves the transform's
    time origin to h.
    """
    key = layout_key(parts, band, zero_pad)
    m, r = spectrum_rows(parts, zero_pad)
    length = m * r
    freq_interval = 1.0 / (length * parts.grid.sample_interval)
    bins = bins_within(-(length // 2) * freq_interval, freq_interval, length, band.half_width)
    lo, hi = bins.start - length // 2, bins.stop - length // 2
    real = key[4]
    if real:
        rows = np.arange(r // 2 + 1) if m % 2 == 0 else np.arange(-(r // 2), 1)
    else:
        rows = np.arange(r) - (r // 2 if m % 2 else 0)

    width = parts.subpulse.shape[0]
    centred = range(1 - width, width, 2)  # 2t - (w - 1): twice the time about the centre
    pair = (rows.shape[0] + 1) // 2
    block = math.isqrt(pair - 1) + 1
    first = int(rows[0]) // block
    coarse = _turn_table(block * np.arange(first, int(rows[pair - 1]) // block + 1), centred, 2 * length)
    fine = _turn_table(np.arange(block), centred, 2 * length)
    fine *= 1.0 + 1j * _turn_table(np.array([pair]), centred, 2 * length)[0]  # row j + pair, as i times row j
    rotate = _turn_table(np.array([1 - width]), range(m), 2 * m)[0]

    g = math.gcd(length, parts.per_t)
    period, step = length // g, parts.per_t // g
    comb = np.abs(np.fft.fft(parts.coefficients, period)) ** 2
    if m == g:
        bin_weight, weight = None, comb[rows * step % period]
    else:
        i = (np.arange(m) + m // 2) % m - m // 2  # centered column of each FFT-order column
        bin_weight, weight = comb[(rows[:, None] + r * i) * step % period], np.ones(rows.shape[0])
    # (band, sign, row weight): a real train's rows 0 < |j| < r/2 also stand for their mirrors at -kappa
    bands = [((lo, hi), 1.0, weight)]
    if real:
        bands.append(((1 - hi, 1 - lo), -1.0, weight * ((rows != 0) & (2 * np.abs(rows) < r))))
    for array in (rows, coarse, fine, rotate, bin_weight, *(w for _, _, w in bands)):
        if array is not None:
            array.flags.writeable = False
    step = min(max(1, _ROW_CHUNK_ELEMENTS // (block * m)), coarse.shape[0])  # coarse turns per chunk
    return SpectrumLayout(key, m, r, freq_interval, (lo, hi), rows, coarse, fine,
                          int(rows[0]) - first * block, rotate, bin_weight, tuple(bands),
                          np.empty((2 * pair, m)), np.empty((step, block, m), dtype=np.complex128))


def _lag_products(parts: TrainParts) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Lag q and the products of the train u_i = sum_k c_k s_{i-kP} at it:
    |c_k|^2 and |s_x|^2 at lag 0 (a zero energy is degenerate), then
    c_k conj(c_{k-q}) and s_x conj(s_{x+qP}) at each lag q >= 1 at which
    sub-pulses k and k - q share d = w - qP > 0 samples."""
    sub, coefficients, per_t = parts.subpulse, parts.coefficients, parts.per_t
    count, width = coefficients.shape[0], sub.shape[0]
    coef_power, sub_power = np.abs(coefficients) ** 2, np.abs(sub) ** 2
    if not float(np.sum(sub_power)) * float(np.sum(coef_power)) > 0.0:
        raise DegenerateInputError("pulse has zero energy on its grid")
    yield 0, coef_power, sub_power
    for q in range(1, min(count, -(-width // per_t))):
        d = width - q * per_t
        yield q, coefficients[q:] * coefficients[:count - q].conj(), sub[:d] * sub[width - d:].conj()


def _train_energy(parts: TrainParts) -> float:
    """The train's energy sum_i |u_i|^2 in the time domain: the sums of lag 0's
    products multiplied, plus 2 Re of each overlapping lag's (``_lag_products``)."""
    products = _lag_products(parts)
    _, coef_power, sub_power = next(products)
    return float(np.sum(sub_power)) * float(np.sum(coef_power)) + 2.0 * sum(
        float((np.sum(pair) * np.sum(shared)).real) for _, pair, shared in products)


def _train_moments(parts: TrainParts, bins: int) -> tuple[float, float, float]:
    """bins times the energy of the train u_i = sum_k c_k s_{i-kP} (with
    bins = L, by discrete Parseval, the power of its L DFT bins), its mean
    time and its time variance, from its ``_lag_products``. Sample i = kP + x
    lies at tau_x + kT, T = P dt. Lag 0 gives the moments of |s_x|^2 and
    |c_k|^2; each overlapping lag q adds 2 Re of sum_k c_k conj(c_{k-q}) kappa_k^a
    times sum_x s_x conj(s_{x+qP}) sigma_x^b, a + b <= 2, kappa_k and sigma_x
    the times kT and tau_x about their lag-0 means: exactly 0.0 without overlap."""
    products = _lag_products(parts)
    _, coef_power, sub_power = next(products)
    sub_energy, coef_energy = float(np.sum(sub_power)), float(np.sum(coef_power))
    single = sub_energy * coef_energy  # lag 0's energy
    count, width, dt = coef_power.shape[0], sub_power.shape[0], parts.grid.sample_interval
    tau, index = parts.grid.start_time + (np.arange(width) + 0.5) * dt, np.arange(count)
    sub_mean, sub_var = _moments(tau, sub_power, sub_energy)
    index_mean, index_var = _moments(index, coef_power, coef_energy)
    period = parts.per_t * dt
    mean, var = sub_mean + period * index_mean, sub_var + period * period * index_var
    lags = np.zeros((3, 3), dtype=np.complex128)  # [a, b]: the two sums' product, summed over q
    with np.errstate(all="ignore"):
        for q, pair, shared in products:
            kappa, sigma = (np.stack((np.ones_like(v), v, v * v))
                            for v in (period * (index[q:] - index_mean), tau[:shared.shape[0]] - sub_mean))
            lags += np.outer(np.einsum("ak,k->a", kappa, pair), np.einsum("bx,x->b", sigma, shared))
        x0, x1 = 2.0 * float(lags[0, 0].real), 2.0 * float((lags[0, 1] + lags[1, 0]).real)
        x2 = 2.0 * float((lags[0, 2] + 2.0 * lags[1, 1] + lags[2, 0]).real)
        energy = single + x0
        shift = x1 / energy
        var = var * (single / energy) + x2 / energy - shift * shift
    return bins * sub_energy * coef_energy + bins * x0, mean + shift, var


def measure_train(parts: TrainParts, band: AnalysisBand, zero_pad: int = 4,
                  layout: SpectrumLayout | None = None) -> LocalizationMetrics:
    """Numeric localization metrics of the train ``parts.signal()``: those of
    ``measure_all(parts.signal(), band, zero_pad)``, to rounding.

    With L bins and (m, r) = ``spectrum_rows``, bin k of the train
    u_i = sum_n c_n s_{i - nP} is S(k) C(k): S the sub-pulse's length-L DFT and
    C(k) = sum_n c_n exp(-2j pi k n P/L) the coefficients' comb. Row j of S,
    the bins k = j + r*i, is an m-point FFT of s turned by exp(-2j pi j t/L),
    which holds s because w <= m, overlapping sub-pulses or not; one FFT
    carries two rows (``_row_power``). A real train takes rows 0..r/2 (or
    -r/2..0 for odd m), each standing for itself and its mirror. C repeats
    every R = L/gcd(L, P) bins, and |C|^2 is one
    R-point FFT of the coefficients. The band's bins are ``bins_within``'s,
    found row by row, and the moments are summed there, so neither the train
    nor an L-long array is built. The energy, mean time and ΔT are
    ``_train_moments``'s, and by discrete Parseval all L bins hold L times
    that energy: the capture is the in-band sum over the larger of that
    total and itself, so it never exceeds 1, and a band of every bin
    captures exactly 1.

    Everything above but the sub-pulse's turned FFTs and its moments is the
    train's ``SpectrumLayout``. Without one, ``spectrum_layout`` builds it for
    this call; a sweep builds one per run of points that share it and passes
    it to each of them. A layout built for another train, band or zero_pad
    (another ``layout_key``) is rejected with ``InvalidInputError``.
    """
    if layout is None:
        layout = spectrum_layout(parts, band, zero_pad)
    elif layout.key != layout_key(parts, band, zero_pad):
        raise InvalidInputError("the spectrum layout was built for another train, band or zero-pad factor")
    total, mean_time, time_var = _train_moments(parts, layout.m * layout.r)
    time_disp = _dispersion(time_var, "time")
    mean_freq, freq_disp, capture = _train_freq(parts.subpulse, layout, band, total)
    return LocalizationMetrics(mean_time=mean_time, mean_freq=mean_freq, time_dispersion=time_disp,
                               freq_dispersion=freq_disp, provenance=Provenance.NUMERIC, energy_capture=capture)


def _train_freq(sub: np.ndarray, layout: SpectrumLayout, band: AnalysisBand,
                total: float) -> tuple[float, float, float]:
    """``measure_freq`` of the train's spectrum, summed row by row over the
    layout's bands, with ``total`` the power of all L bins
    (``measure_train``'s Parseval sum). A band that is its own mirror is
    summed once.
    """
    m, r, rows = layout.m, layout.r, layout.rows
    (lo, hi), length, freq_interval = layout.kappas, m * r, layout.freq_interval
    power = _row_power(sub, layout)
    if layout.bin_weight is not None:
        power *= layout.bin_weight
    sums = _window_sums(power, rows, r, [kappas for kappas, _, _ in layout.bands])
    in_band = first_moment = 0.0
    lit = []  # (band, row index) of weighted rows with in-band energy; two prove two nonzero bins
    for s, (kappas, sign, w) in zip(sums, layout.bands):
        in_band += float(sum_of_products(w, s[0]))
        lit += [(kappas, i) for i in np.flatnonzero((w > 0.0) & (s[0] > 0.0))[:2]]
        first_moment += sign * float(sum_of_products(w, rows * s[0] + r * s[1]))
    nonzero = len(lit) if len(lit) > 1 else sum(
        np.count_nonzero(power[i, c0:c1]) for kappas, i in lit for c0, c1 in _column_runs(rows[i], kappas, r, m))
    _check_band(in_band, nonzero, hi - lo, band, freq_interval)
    mean = first_moment / in_band
    var = 0.0
    for s, (_, sign, w) in zip(sums, layout.bands):
        d = rows - sign * mean
        var += float(sum_of_products(w, d * d * s[0] + 2.0 * r * d * s[1] + r * r * s[2]))
    with np.errstate(all="ignore"):
        freq_var = float(var / in_band * freq_interval * freq_interval)
    whole = in_band if hi - lo == length else max(in_band, total)  # a band of every bin holds it all
    return mean * freq_interval, _dispersion(freq_var, "frequency"), in_band / whole


def _row_power(sub: np.ndarray, layout: SpectrumLayout) -> np.ndarray:
    """|Y[j, c]|^2, Y[j, c] = sum_t s_t exp(-2j pi (j + r c) t/L), for the
    layout's rows j and columns c < m in FFT order (column c is the
    centered column c - m for c >= m - m//2): one m-point FFT per pair of
    rows.

    Turned about its centre h, Y[j, c] exp(2j pi (j + r c) h/L) is
    sum_t s_t exp(-2j pi (j + r c)(t - h)/L), which is real where s is its
    own conjugate mirror, s_t = conj(s_{w-1-t}). Every sub-pulse is the sum
    of such a part e = (s + conj(s[::-1]))/2 and -i times another,
    -i o = -i (s - conj(s[::-1]))/2, so each part's transform is real and
    |Y|^2 is the sum of their squares. For each part, row j turned goes in
    the real part and row j + d in the imaginary part of one FFT input (the
    layout's coarse times fine turn), and its transform times the layout's
    rotate holds row j's real spectrum as its real part and row j + d's as
    its imaginary part. A part that is zero is skipped: the odd part of
    every real family's sub-pulse, which is exactly even. Row 0 is then
    recomputed alone and unturned, as |FFT_m(s)|^2, so the exact zeros of
    its spectrum stay exact.

    The pairs are turned, transformed and squared a few coarse turns at a
    time, in the layout's buffer of at most about _ROW_CHUNK_ELEMENTS, so
    only the power is held whole. The returned power is a view of the
    layout's power array: every point measured with the layout reuses both,
    and the power is overwritten by the next call.
    """
    coarse, m, count = layout.coarse, layout.m, layout.rows.shape[0]
    block, width, pair = layout.fine.shape[0], sub.shape[0], (count + 1) // 2
    start, stop = layout.offset, layout.offset + pair
    power, buffer = layout.power, layout.buffer
    step = buffer.shape[0]
    mirrored = np.conj(sub[::-1])
    even_odd = [part for part in ((sub + mirrored) / 2, (sub - mirrored) * -0.5j) if part.any()]
    for n, part in enumerate(even_odd):
        fine = part * layout.fine
        for c0 in range(0, coarse.shape[0], step):
            turned = buffer[:coarse[c0:c0 + step].shape[0]]
            turned[:, :, width:] = 0.0  # the zero padding, which the last FFT overwrote
            np.multiply(coarse[c0:c0 + step, None, :], fine, out=turned[:, :, :width])
            a, b = max(start, c0 * block), min(stop, (c0 + step) * block)
            spectra = turned.reshape(-1, m)[a - c0 * block:b - c0 * block]
            np.fft.fft(spectra, axis=1, out=spectra)
            spectra *= layout.rotate
            pairs = spectra.view(np.float64)  # row j's real value and row j + pair's, side by side
            a, b = a - start, b - start
            for rows, values in ((slice(a, b), pairs[:, 0::2]), (slice(a + pair, b + pair), pairs[:, 1::2])):
                if n:
                    power[rows] += values * values
                else:
                    np.multiply(values, values, out=power[rows])
    zero = np.fft.fft(sub, m)  # row 0 unturned, so the exact zeros of its spectrum stay exact
    np.add(zero.real ** 2, zero.imag ** 2, out=power[-int(layout.rows[0])])
    return power[:count]


def _column_runs(j: int, kappas: tuple[int, int], r: int, m: int) -> list[tuple[int, int]]:
    """Row j's in-band columns as FFT-order slices [c0, c1): the centered run
    -((j - lo)//r) <= i < -((j - hi)//r), split at i = 0 into at most two,
    column c holding i = c - m for c >= m - m//2 and i = c otherwise."""
    lo, hi = kappas
    start = max(-((j - lo) // r), -(m // 2))
    stop = min(-((j - hi) // r), m - m // 2)
    return [(c0, c1) for c0, c1 in ((max(start, 0), stop), (start + m, min(stop, 0) + m)) if c0 < c1]


def _window_sums(power: np.ndarray, rows: np.ndarray, r: int, bands: list[tuple[int, int]]) -> list[np.ndarray]:
    """For each band lo <= kappa < hi: per row, the sums of power * i**q
    (q = 0, 1, 2) over the in-band columns (``_column_runs``), a (3, rows)
    array. Equal bands share one result. No out-of-band sum is taken:
    ``measure_train`` has the total power from Parseval, and no bin is
    counted: ``_train_freq`` counts the nonzero bins of a row only where
    fewer than two rows carry energy.

    The rows span fewer than r indices, so each end of a row's run steps at
    most once over them: the rows split into at most three blocks that share
    one run, each summed slice by slice.
    """
    m = power.shape[1]
    i = (np.arange(m) + m // 2) % m - m // 2
    moments = np.stack((np.ones(m), i, i * i))
    first, count = int(rows[0]), rows.shape[0]
    found = {}
    for kappas in bands:
        if kappas in found:
            continue
        sums = np.zeros((3, count))
        steps = sorted({0, count, *((edge - first) % r for edge in kappas)})
        for a, b in zip(steps, steps[1:]):
            if b > count:
                break
            for c0, c1 in _column_runs(first + a, kappas, r, m):
                sums[:, a:b] += np.einsum("jc,qc->qj", power[a:b, c0:c1], moments[:, c0:c1])
        found[kappas] = sums
    return [found[kappas] for kappas in bands]


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
