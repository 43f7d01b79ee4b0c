"""Localization measurements: moments, invariances, and the shift identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddopkit.metrics import (
    AnalysisBand,
    LocalizationMetrics,
    Provenance,
    lemma1_check,
    measure_all,
    measure_freq,
    measure_time,
)
from ddopkit.pulses import PulseSpec
from ddopkit.signal_core import (
    DegenerateInputError,
    InvalidInputError,
    SampledSignal,
    Spectrum,
    TimeGrid,
    dft_spectrum,
)

WIDE = AnalysisBand(half_width=20.0)


def gaussian(n=8192, half_span=8.0, shift=0.0, mod=0.0, scale=1.0):
    grid = TimeGrid(start_time=-half_span + shift, sample_interval=2 * half_span / n,
                    num_samples=n)
    t = grid.times()
    samples = scale * np.exp(-np.pi * (t - shift) ** 2) * np.exp(2j * np.pi * mod * t)
    return SampledSignal(grid=grid, samples=samples)


class TestLocalizationMetrics:
    def test_derived_identities(self):
        m = LocalizationMetrics(mean_time=1.0, mean_freq=2.0, time_dispersion=3.0,
                                freq_dispersion=0.5, provenance=Provenance.ANALYTIC)
        assert m.tf_area == 1.5
        assert m.direction == 6.0

    def test_rejects_negative_dispersion(self):
        with pytest.raises(InvalidInputError):
            LocalizationMetrics(mean_time=0.0, mean_freq=0.0, time_dispersion=-1.0,
                                freq_dispersion=1.0, provenance=Provenance.NUMERIC)


class TestAnalysisBand:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            AnalysisBand(half_width=0.0)

    @pytest.mark.parametrize("half_width", [-1.0, float("nan"), "wide", None, True])
    def test_rejects_other_bad_widths(self, half_width):
        with pytest.raises(InvalidInputError):
            AnalysisBand(half_width=half_width)

    def test_default_width(self):
        band = AnalysisBand.default_for(PulseSpec(M=256, N=64, T=0.5))
        assert band.half_width == pytest.approx(5 * 256 / 0.5)


class TestMeasureTime:
    def test_rectangle_moments(self):
        n = 10_000
        grid = TimeGrid(start_time=0.0, sample_interval=1 / n, num_samples=n)
        sig = SampledSignal(grid=grid, samples=np.ones(n))
        mean, disp = measure_time(sig)
        assert mean == pytest.approx(0.5, rel=1e-12)
        # uniform weights on n midpoints have variance (1 - 1/n^2)/12 exactly
        assert disp == pytest.approx(math.sqrt((1 - 1 / n**2) / 12), rel=1e-12)
        assert disp == pytest.approx(1 / math.sqrt(12), rel=1e-7)

    def test_zero_energy_rejected(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=16)
        with pytest.raises(DegenerateInputError):
            measure_time(SampledSignal(grid=grid, samples=np.zeros(16)))


class TestMeasureFreq:
    def test_gaussian_dispersion(self):
        # |G(f)|^2 = exp(-2 pi f^2) has standard deviation 1/(2 sqrt(pi))
        sp = dft_spectrum(gaussian(), zero_pad_factor=2)
        mean, disp, capture = measure_freq(sp, WIDE)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert disp == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-9)
        assert capture == pytest.approx(1.0, abs=1e-12)

    def test_band_restricts_moments(self):
        sp = dft_spectrum(gaussian(), zero_pad_factor=2)
        narrow = measure_freq(sp, AnalysisBand(half_width=0.2))[1]
        wide = measure_freq(sp, WIDE)[1]
        assert narrow < wide

    def test_capture_below_one_for_narrow_band(self):
        sp = dft_spectrum(gaussian(), zero_pad_factor=2)
        capture = measure_freq(sp, AnalysisBand(half_width=0.2))[2]
        assert 0.5 < capture < 0.95

    def test_empty_band_energy_rejected(self):
        # alternating signs null the DC bin exactly; nothing else is in band
        grid = TimeGrid(start_time=0.0, sample_interval=0.25, num_samples=64)
        sig = SampledSignal(grid=grid, samples=np.tile([1.0, -1.0], 32))
        sp = dft_spectrum(sig, zero_pad_factor=1)
        with pytest.raises(DegenerateInputError):
            measure_freq(sp, AnalysisBand(half_width=sp.freq_interval / 4))


    def test_single_bin_band_rejected(self):
        # only the DC bin is in band: no spread to measure, and no ΔT/ΔF either
        sp = dft_spectrum(gaussian(), zero_pad_factor=2)
        with pytest.raises(DegenerateInputError, match="single spectral bin"):
            measure_freq(sp, AnalysisBand(half_width=sp.freq_interval / 4))


def scaled_gaussian(scale):
    """exp(-pi t^2) on the time axis stretched by scale, at unit energy."""
    n, half_span = 256, 8.0 * scale
    grid = TimeGrid(start_time=-half_span, sample_interval=2 * half_span / n, num_samples=n)
    t = grid.times() / scale
    return SampledSignal(grid=grid, samples=(2.0 ** 0.25) * np.exp(-np.pi * t * t) / math.sqrt(scale))


class TestFloatRange:
    """A variance that under- or overflows is one DegenerateInputError, never a
    RuntimeWarning, a zero or infinite dispersion, or a NaN."""

    @pytest.mark.parametrize("scale,estimator", [
        (1e-200, "time"),   # (t - mean)^2 underflows to 0
        (1e300, "time"),    # (t - mean)^2 overflows, and inf * 0 is NaN
        (1e200, "freq"),    # (f - mean)^2 underflows to 0 in every one of many bins
        (1e-300, "freq"),   # (f - mean)^2 overflows
    ])
    def test_variance_outside_the_float_range(self, scale, estimator):
        sig = scaled_gaussian(scale)
        with pytest.raises(DegenerateInputError, match="float range"):
            if estimator == "time":
                measure_time(sig)
            else:
                measure_freq(dft_spectrum(sig, zero_pad_factor=2), AnalysisBand(half_width=20.0 / scale))

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_moderate_scales_measure(self, scale):
        """The same pulse rescaled within the float range keeps ΔT*ΔF = 1/(4 pi)."""
        sig = scaled_gaussian(scale)
        m = measure_all(sig, AnalysisBand(half_width=20.0 / scale), zero_pad=2)
        assert m.time_dispersion == pytest.approx(scale / (2 * math.sqrt(math.pi)), rel=1e-6)
        assert m.tf_area == pytest.approx(1 / (4 * math.pi), rel=1e-6)


def check_against_mask(spectrum, band):
    """measure_freq picks the bins of a |f| <= half_width mask over the whole
    grid and returns the moments that mask gives, bit for bit. Fewer than two
    bins with energy have no spread: their variance is rounding noise, rejected."""
    f = spectrum.frequencies()
    inside = np.abs(f) <= band.half_width
    bins = spectrum.bins_within(band.half_width)
    assert np.array_equal(np.arange(bins.start, bins.stop), np.flatnonzero(inside))
    v = spectrum.values
    weights = (v.real ** 2 + v.imag ** 2) * spectrum.freq_interval
    fb, wb = f[inside], weights[inside]
    in_band = float(np.sum(wb))
    mean = float(np.dot(fb, wb) / in_band) if in_band > 0.0 else 0.0
    var = float(np.dot((fb - mean) ** 2, wb) / in_band) if in_band > 0.0 else 0.0
    if np.count_nonzero(wb) < 2 or not var > 0.0:
        with pytest.raises(DegenerateInputError):
            measure_freq(spectrum, band)
        return
    mean_freq, disp, capture = measure_freq(spectrum, band)
    assert (mean_freq, disp) == (mean, math.sqrt(var))
    assert capture == pytest.approx(in_band / float(np.sum(weights)), rel=1e-12)


class TestBandSlice:
    """The contiguous band slice picks the same bins and moments as a mask."""

    def test_edge_on_a_bin(self):
        sp = Spectrum(start_freq=-5.0, freq_interval=0.5, values=np.arange(1.0, 22.0))
        assert sp.bins_within(2.0) == slice(6, 15)
        check_against_mask(sp, AnalysisBand(half_width=2.0))

    def test_band_wider_than_spectrum(self):
        sp = dft_spectrum(gaussian(n=512), zero_pad_factor=2)
        band = AnalysisBand(half_width=1e9)
        assert sp.bins_within(band.half_width) == slice(0, sp.values.shape[0])
        check_against_mask(sp, band)
        assert measure_freq(sp, band)[2] == pytest.approx(1.0, rel=1e-12)

    def test_band_holding_no_bin(self):
        sp = Spectrum(start_freq=0.25, freq_interval=1.0, values=np.ones(8))
        with pytest.raises(DegenerateInputError, match="no spectral energy"):
            measure_freq(sp, AnalysisBand(half_width=0.1))
        check_against_mask(sp, AnalysisBand(half_width=0.1))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       bins=st.integers(min_value=2, max_value=2000),
       step=st.floats(min_value=1e-3, max_value=1e3),
       offset=st.floats(min_value=-1.0, max_value=1.0),
       half_width=st.floats(min_value=1e-4, max_value=1e6),
       edge_bin=st.one_of(st.none(), st.integers(min_value=0, max_value=1999)))
def test_band_slice_matches_mask(seed, bins, step, offset, half_width, edge_bin):
    """Random grids, centred or not, and bands, some with an edge exactly on a bin."""
    rng = np.random.default_rng(seed)
    start = (-(bins // 2) + offset * bins) * step
    if edge_bin is not None and edge_bin < bins and start + edge_bin * step != 0.0:
        half_width = abs(start + edge_bin * step)
    sp = Spectrum(start_freq=start, freq_interval=step,
                  values=rng.normal(size=bins) + 1j * rng.normal(size=bins))
    check_against_mask(sp, AnalysisBand(half_width=half_width))


class TestGaussianFloor:
    def test_attains_uncertainty_limit(self):
        m = measure_all(gaussian(), WIDE, zero_pad=2)
        assert m.tf_area == pytest.approx(1 / (4 * math.pi), abs=1e-6)
        assert m.provenance is Provenance.NUMERIC


class TestInvariances:
    def test_time_shift_covariance(self):
        base = measure_all(gaussian(), WIDE, zero_pad=2)
        moved = measure_all(gaussian(shift=2.5), WIDE, zero_pad=2)
        assert moved.mean_time == pytest.approx(base.mean_time + 2.5, abs=1e-9)
        assert moved.time_dispersion == pytest.approx(base.time_dispersion, rel=1e-10)
        assert moved.freq_dispersion == pytest.approx(base.freq_dispersion, rel=1e-10)
        assert moved.mean_freq == pytest.approx(base.mean_freq, abs=1e-9)

    def test_modulation_covariance(self):
        base = measure_all(gaussian(), WIDE, zero_pad=2)
        sig = gaussian(mod=3.0)
        # modulation frequency is an exact multiple of the bin spacing
        assert (3.0 / dft_spectrum(sig, 2).freq_interval) == pytest.approx(
            round(3.0 / dft_spectrum(sig, 2).freq_interval))
        shifted = measure_all(sig, WIDE, zero_pad=2)
        assert shifted.mean_freq == pytest.approx(base.mean_freq + 3.0, abs=1e-9)
        assert shifted.freq_dispersion == pytest.approx(base.freq_dispersion, rel=1e-9)
        assert shifted.time_dispersion == pytest.approx(base.time_dispersion, rel=1e-12)

    def test_amplitude_scale_invariance(self):
        base = measure_all(gaussian(), WIDE, zero_pad=2)
        scaled = measure_all(gaussian(scale=3.7), WIDE, zero_pad=2)
        for key in ("mean_time", "mean_freq", "time_dispersion", "freq_dispersion"):
            assert getattr(scaled, key) == pytest.approx(getattr(base, key), rel=1e-12, abs=1e-12)
        assert scaled.energy_capture == pytest.approx(base.energy_capture, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0),
       seed=st.integers(min_value=0, max_value=2**31))
def test_scale_invariance_random_signals(scale, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(start_time=-1.0, sample_interval=0.02, num_samples=100)
    samples = rng.normal(size=100) + 1j * rng.normal(size=100)
    band = AnalysisBand(half_width=30.0)
    a = measure_all(SampledSignal(grid=grid, samples=samples), band)
    b = measure_all(SampledSignal(grid=grid, samples=scale * samples), band)
    assert b.time_dispersion == pytest.approx(a.time_dispersion, rel=1e-9)
    assert b.freq_dispersion == pytest.approx(a.freq_dispersion, rel=1e-9)
    assert b.mean_time == pytest.approx(a.mean_time, rel=1e-9, abs=1e-12)


class TestShiftIdentity:
    """Quadratic-moment identity: the shift enters as (rho_gamma/rho_alpha)^2."""

    @pytest.mark.parametrize("alpha,gamma,expected", [
        (1.0, 0.0, 0.0562697697598),
        (1.0, 2.0, 2.88469689451),
        (2.0, 1.0, 0.0954220688683),
        (-1.5, 0.7, 0.119333953346),
    ])
    def test_gaussian_profile(self, alpha, gamma, expected):
        lhs, rhs, err = lemma1_check(lambda r: np.exp(-np.pi * r * r), alpha, gamma)
        assert lhs == pytest.approx(expected, rel=1e-9)
        assert err / abs(rhs) < 1e-8

    def test_rectangle_profile(self):
        lhs, rhs, err = lemma1_check(
            lambda r: np.where(np.abs(r) <= 0.5, 1.0, 0.0), 2.0, 1.0)
        assert lhs == pytest.approx(0.135416666666, rel=1e-9)
        assert err / abs(rhs) < 1e-6
        # an unscaled shift term would give 0.2604...; the identity must not
        assert abs(lhs - 0.260416666666) > 0.1

    def test_rejects_zero_scale(self):
        with pytest.raises(InvalidInputError):
            lemma1_check(lambda r: np.exp(-r * r), 0.0, 1.0)
