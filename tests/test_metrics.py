"""Localization measurements: moments, invariances, and the shift identity."""

import math
from dataclasses import replace

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
    measure_train,
)
from ddopkit import metrics, pulses, signal_core
from ddopkit.experiments import measure_point
from ddopkit.pulses import PulseFamily, PulseSpec, TrainParts, synth_pulse, train_parts
from ddopkit.signal_core import (
    DegenerateInputError,
    InvalidInputError,
    PowerSpectrum,
    SampledSignal,
    TimeGrid,
    energy,
    fast_length,
    power_spectrum,
    sum_of_products,
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
        sp = power_spectrum(gaussian(), zero_pad_factor=2)
        mean, disp, capture = measure_freq(sp, WIDE)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert disp == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-9)
        assert capture == pytest.approx(1.0, abs=1e-12)

    def test_band_restricts_moments(self):
        sp = power_spectrum(gaussian(), zero_pad_factor=2)
        narrow = measure_freq(sp, AnalysisBand(half_width=0.2))[1]
        wide = measure_freq(sp, WIDE)[1]
        assert narrow < wide

    def test_capture_below_one_for_narrow_band(self):
        sp = power_spectrum(gaussian(), zero_pad_factor=2)
        capture = measure_freq(sp, AnalysisBand(half_width=0.2))[2]
        assert 0.5 < capture < 0.95

    def test_empty_band_energy_rejected(self):
        # alternating signs null the DC bin exactly; nothing else is in band
        grid = TimeGrid(start_time=0.0, sample_interval=0.25, num_samples=64)
        sig = SampledSignal(grid=grid, samples=np.tile([1.0, -1.0], 32))
        sp = power_spectrum(sig, zero_pad_factor=1)
        with pytest.raises(DegenerateInputError, match="no spectral energy"):
            measure_freq(sp, AnalysisBand(half_width=sp.freq_interval / 4))

    def test_single_bin_band_rejected(self):
        # only the DC bin is in band: no spread to measure, and no ΔT/ΔF either
        sp = power_spectrum(gaussian(), zero_pad_factor=2)
        with pytest.raises(DegenerateInputError, match="single spectral bin .*; widen the band"):
            measure_freq(sp, AnalysisBand(half_width=sp.freq_interval / 4))

    def test_band_on_exact_zeros_asks_for_padding(self):
        """Unpadded, a rectangle's bins other than DC are its exact sinc zeros:
        a wider band cannot help, a finer bin spacing can."""
        grid = TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=60)
        sig = SampledSignal(grid=grid, samples=np.ones(60))
        sp = power_spectrum(sig, zero_pad_factor=1)
        assert np.count_nonzero(sp.values) == 1
        with pytest.raises(DegenerateInputError, match="only one of the 60 bins .*raise the zero-pad factor"):
            measure_freq(sp, AnalysisBand(half_width=1e3))
        assert measure_freq(power_spectrum(sig, zero_pad_factor=2), AnalysisBand(half_width=1e3))[1] > 0


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
                measure_freq(power_spectrum(sig, zero_pad_factor=2), AnalysisBand(half_width=20.0 / scale))

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_moderate_scales_measure(self, scale):
        """The same pulse rescaled within the float range keeps ΔT*ΔF = 1/(4 pi)."""
        sig = scaled_gaussian(scale)
        m = measure_all(sig, AnalysisBand(half_width=20.0 / scale), zero_pad=2)
        assert m.time_dispersion == pytest.approx(scale / (2 * math.sqrt(math.pi)), rel=1e-6)
        assert m.tf_area == pytest.approx(1 / (4 * math.pi), rel=1e-6)


def bin_frequencies(spectrum):
    return spectrum.start_freq + np.arange(spectrum.values.shape[0]) * spectrum.freq_interval


def check_against_mask(spectrum, band):
    """measure_freq picks the bins of a |f| <= half_width mask over the whole
    grid and returns the moments that mask gives, bit for bit. Fewer than two
    bins with energy have no spread: their variance is rounding noise, rejected."""
    f = bin_frequencies(spectrum)
    inside = np.abs(f) <= band.half_width
    bins = spectrum.bins_within(band.half_width)
    assert np.array_equal(np.arange(bins.start, bins.stop), np.flatnonzero(inside))
    weights = spectrum.values * spectrum.freq_interval
    fb, wb = f[inside], weights[inside]
    in_band = float(np.sum(wb))
    mean = float(sum_of_products(fb, wb) / in_band) if in_band > 0.0 else 0.0
    var = float(sum_of_products((fb - mean) ** 2, wb) / in_band) if in_band > 0.0 else 0.0
    if np.count_nonzero(wb) < 2 or not var > 0.0:
        with pytest.raises(DegenerateInputError):
            measure_freq(spectrum, band)
        return
    mean_freq, disp, capture = measure_freq(spectrum, band)
    assert (mean_freq, disp) == (mean, math.sqrt(var))
    assert capture == pytest.approx(in_band / float(np.sum(weights)), rel=1e-12)
    assert capture <= 1.0


class TestBandSlice:
    """The contiguous band slice picks the same bins and moments as a mask."""

    def test_edge_on_a_bin(self):
        sp = PowerSpectrum(start_freq=-5.0, freq_interval=0.5, values=np.arange(1.0, 22.0))
        assert sp.bins_within(2.0) == slice(6, 15)
        check_against_mask(sp, AnalysisBand(half_width=2.0))

    def test_band_wider_than_spectrum(self):
        sp = power_spectrum(gaussian(n=512), zero_pad_factor=2)
        band = AnalysisBand(half_width=1e9)
        assert sp.bins_within(band.half_width) == slice(0, sp.values.shape[0])
        check_against_mask(sp, band)
        assert measure_freq(sp, band)[2] == pytest.approx(1.0, rel=1e-12)

    def test_band_holding_no_bin(self):
        sp = PowerSpectrum(start_freq=0.25, freq_interval=1.0, values=np.ones(8))
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
    sp = PowerSpectrum(start_freq=start, freq_interval=step,
                       values=rng.normal(size=bins) ** 2 + rng.normal(size=bins) ** 2)
    check_against_mask(sp, AnalysisBand(half_width=half_width))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       n=st.integers(min_value=2, max_value=600),
       zero_pad=st.integers(min_value=1, max_value=5),
       real=st.booleans(),
       scale=st.floats(min_value=1e-6, max_value=1e6),
       half_width=st.floats(min_value=1e-3, max_value=1e3))
def test_capture_is_a_fraction(seed, n, zero_pad, real, scale, half_width):
    """Random real and complex signals and bands: the capture lies in (0, 1],
    also where a band holding every bin makes the in-band and total sums equal."""
    rng = np.random.default_rng(seed)
    samples = scale * rng.normal(size=n) + (0.0 if real else 1j * scale * rng.normal(size=n))
    grid = TimeGrid(start_time=float(rng.normal()), sample_interval=float(rng.uniform(0.01, 1.0)),
                    num_samples=n)
    try:
        capture = measure_freq(power_spectrum(SampledSignal(grid=grid, samples=samples), zero_pad),
                               AnalysisBand(half_width=half_width))[2]
    except DegenerateInputError:
        return
    assert 0.0 < capture <= 1.0


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
        assert (3.0 / power_spectrum(sig, 2).freq_interval) == pytest.approx(
            round(3.0 / power_spectrum(sig, 2).freq_interval))
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


DEFAULT = PulseSpec(M=256, N=64)


def assert_same_metrics(got, want, rel=1e-12):
    for field in ("time_dispersion", "freq_dispersion", "energy_capture", "mean_time"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rel, abs=0.0), field
    assert abs(got.mean_freq - want.mean_freq) <= rel * want.freq_dispersion


class TestMeasureTrain:
    """The train measured from its parts against ``measure_all`` of its samples."""

    @pytest.mark.parametrize("spec,oversample,zero_pad,comb", [
        *((replace(DEFAULT, beta=beta, subpulse=shape), 16, 4, (512, 2025))
          for shape in ("rrc", "btrrc") for beta in (0.0, 0.35, 1.0)),
        (PulseSpec(M=64, N=8, family=PulseFamily.FDM), 8, 4, (512, 32)),
        (PulseSpec(M=32, N=3, family=PulseFamily.FDM), 4, 2, (128, 6)),
        *((PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=m, otfs_n=2), 8, 4, (256, 32))
          for m in (0, 5, 31)),
        (PulseSpec(M=45, N=7, Q=2, beta=0.3), 1, 4, (45, 25)),
        (PulseSpec(M=45, N=2, Q=2, beta=0.3), 1, 1, (5, 10)),
        (PulseSpec(M=45, N=4, family=PulseFamily.OTFS_BASIS, otfs_m=3, otfs_n=1), 1, 1, (45, 4)),
        (PulseSpec(M=45, N=3, family=PulseFamily.OTFS_BASIS, otfs_m=3, otfs_n=1), 1, 1, (45, 3)),
    ], ids=["rrc-0", "rrc-0.35", "rrc-1", "btrrc-0", "btrrc-0.35", "btrrc-1", "fdm",
            "fdm-comb-at-row-r/2", "otfs-m0", "otfs-m5", "otfs-m31", "real-odd-m-odd-r", "real-odd-m-even-r",
            "complex-odd-m-even-r", "complex-odd-m-odd-r"])
    def test_matches_the_sampled_spectrum(self, spec, oversample, zero_pad, comb):
        """Odd and even g = gcd(L, P) and R = L/g, real and complex, against
        measure_all to 1e-12."""
        parts = train_parts(spec, oversample)
        band = AnalysisBand.default_for(spec)
        layout = metrics.spectrum_layout(parts, band, zero_pad)
        assert (layout.length // layout.period, layout.period) == comb
        assert parts.subpulse.shape[0] <= min(comb[0], parts.per_t)
        assert_same_metrics(measure_train(parts, band, zero_pad),
                            measure_all(synth_pulse(spec, oversample), band, zero_pad))

    def test_band_edge_on_a_bin(self):
        """The default band edge 5M/T is bin 324,000 of the default train. An edge
        set to one bin's float frequency can pick one more bin on that side
        than on the other, and the mirrored rows must follow. In a band of a
        few bins around 0, measure_all's frequencies start + k*df carry
        rounding of about 1e-16 * (L/2) bins, so it is the reference there
        only to 1e-9."""
        parts = train_parts(DEFAULT)
        length = fast_length(4 * parts.grid.num_samples)
        spectrum = power_spectrum(parts.signal())
        assert spectrum.values.shape[0] == length == 1_036_800
        default = AnalysisBand.default_for(DEFAULT)
        assert default.half_width / spectrum.freq_interval == 324_000.0
        assert spectrum.bins_within(default.half_width) == slice(length // 2 - 324_000, length // 2 + 324_001)
        picked = set()
        for k, rel in ((324_000, 1e-12), (1000, 1e-12), (2, 1e-9), (1, 1e-9)):
            for half_width in (spectrum.frequency(length // 2 + k), -spectrum.frequency(length // 2 - k)):
                bins = spectrum.bins_within(half_width)
                picked.add((bins.start - length // 2, bins.stop - length // 2))
                band = AnalysisBand(half_width=half_width)
                assert_same_metrics(measure_train(parts, band), measure_all(parts.signal(), band), rel=rel)
        assert (-1, 3) in picked and (-2, 3) in picked  # both sides of a one-bin asymmetry

    @pytest.mark.parametrize("spec,oversample,zero_pad,comb", [
        (PulseSpec(M=256, N=8, beta=0.35, subpulse="btrrc"), 16, 4, (32, 3645)),
        (PulseSpec(M=32, N=8, family=PulseFamily.GENERAL_DDOP), 8, 4, (1, 9375)),
        (PulseSpec(M=12, N=4), 8, 4, (2, 625)),
        (PulseSpec(M=33, N=7, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2), 5, 4, (15, 320)),
        (PulseSpec(M=12, N=7, family=PulseFamily.OTFS_BASIS, otfs_m=1, otfs_n=1), 8, 2, (6, 225)),
        (PulseSpec(M=16, N=4, Q=40, family=PulseFamily.TDM), 8, 4, (128, 20)),
    ], ids=["ddop-256x8", "gddop-odd-m-odd-r", "ddop-odd-m-even-r", "otfs-toned", "otfs-odd-m",
            "tdm-one-subpulse-wider-than-P"])
    def test_rows_wider_than_the_comb_period(self, spec, oversample, zero_pad, comb):
        """Where g = gcd(L, P) < w, the lags outrun the g-point sums T_a,
        which the band kernel reads at e mod g, and the rows that find lit
        bins fold the sub-pulse modulo g; the result is measure_all's to
        1e-12."""
        parts = train_parts(spec, oversample)
        band = AnalysisBand.default_for(spec)
        layout = metrics.spectrum_layout(parts, band, zero_pad)
        assert (layout.length // layout.period, layout.period) == comb and comb[0] < parts.subpulse.shape[0]
        assert_same_metrics(measure_train(parts, band, zero_pad),
                            measure_all(synth_pulse(spec, oversample), band, zero_pad))

    @pytest.mark.parametrize("spec,overlap", [
        (PulseSpec(M=16, N=4, Q=40, family=PulseFamily.GENERAL_DDOP), 5),
        (PulseSpec(M=64, N=8, Q=40, beta=0.5, subpulse="btrrc", family=PulseFamily.GENERAL_DDOP), 1.25),
        (PulseSpec(M=16, N=4, Q=256, family=PulseFamily.GENERAL_DDOP), 32),
    ], ids=["gddop-16x4", "gddop-64x8-btrrc", "gddop-16x4-q256"])
    def test_overlapping_subpulses_add_lag_terms(self, spec, overlap):
        """Where the sub-pulses overlap (w > P), the row spectrum still holds
        the sub-pulse's autocorrelation over its 2w - 1 lags and ΔT adds the lag products: measure_all's to 1e-12."""
        parts = train_parts(spec, 8)
        assert parts.subpulse.shape[0] == overlap * parts.per_t
        band = AnalysisBand.default_for(spec)
        assert_same_metrics(measure_train(parts, band), measure_all(synth_pulse(spec, 8), band))

    def test_lag_terms_of_a_train_no_family_has(self):
        """Hann-tapered coefficients with a complex tone, built by hand, on a
        toned sub-pulse 2.5 P wide, so lag 2 overlaps only in part: measure_all's
        to 1e-12. Neighbours overlap out of phase, and ΔT from lag 0 alone
        misses by about 8%, so the lag terms are what this compares."""
        per_t, count = 40, 5
        width = 5 * per_t // 2
        x = np.arange(width) + 0.5
        k = np.arange(count)
        sub = np.sin(np.pi * x / width) ** 2 * np.exp(0.02j * np.pi * x)
        coefficients = np.sin(np.pi * (k + 1) / (count + 1)) ** 2 * np.exp(1.8j * np.pi * k)
        grid = TimeGrid(-1.0, 0.01, (count - 1) * per_t + width)
        parts = TrainParts(grid, sub, 1.0, coefficients, per_t)
        band = AnalysisBand(half_width=25.0)
        got = measure_train(parts, band)
        assert_same_metrics(got, measure_all(parts.signal(), band))

        tau, period = grid.start_time + x * grid.sample_interval, per_t * grid.sample_interval
        lag0 = math.sqrt(np.cov(tau, aweights=np.abs(sub) ** 2, ddof=0)
                         + period ** 2 * np.cov(k, aweights=np.abs(coefficients) ** 2, ddof=0))
        assert abs(lag0 / got.time_dispersion - 1.0) > 0.01

    @pytest.mark.parametrize("spec", [replace(DEFAULT, beta=0.5, subpulse="btrrc"),
                                      PulseSpec(M=256, N=8, beta=0.5, subpulse="btrrc"),
                                      PulseSpec(M=16, N=4, Q=40, beta=0.5, subpulse="btrrc",
                                                family=PulseFamily.GENERAL_DDOP)],
                             ids=["parts", "wide-rows", "overlapping"])
    def test_quadrature_runs_once_per_point(self, spec, monkeypatch):
        calls = []

        def counting(spec, tau, step):
            calls.append(tau.shape)
            return btrrc_profile(spec, tau, step)

        btrrc_profile = pulses._btrrc_profile_at
        monkeypatch.setattr(pulses, "_btrrc_profile_at", counting)
        measure_point(spec, None, 4, 16)
        assert len(calls) == 1

    def test_parts_describe_a_unit_energy_train(self):
        """Where w <= P the sub-pulses do not overlap, so the train the parts add
        up has energy dt * scale^2 * sum|c_k|^2 * sum|s_t|^2, the one measure_train
        normalizes by; parts.signal() divides it out to unit energy."""
        for spec in (DEFAULT, PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2)):
            parts = train_parts(spec)
            width, dt = parts.subpulse.shape[0], parts.grid.sample_interval
            assert width <= parts.per_t
            train = np.zeros(parts.grid.num_samples, dtype=np.complex128)
            for offset, coefficient in zip(parts.offsets, parts.coefficients):
                train[offset:offset + width] += parts.scale * coefficient * parts.subpulse
            from_parts = dt * parts.scale ** 2 * np.sum(np.abs(parts.coefficients) ** 2) * np.sum(
                np.abs(parts.subpulse) ** 2)
            assert np.vdot(train, train).real * dt == pytest.approx(from_parts, rel=1e-12)
            assert energy(parts.signal()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_subpulse_is_degenerate(self, monkeypatch):
        monkeypatch.setitem(pulses._SUBPULSES, "rrc", lambda spec, tau, step, count: (1.0, np.zeros(tau.shape)))
        with pytest.raises(DegenerateInputError, match="pulse has zero energy on its grid"):
            measure_train(train_parts(DEFAULT), AnalysisBand.default_for(DEFAULT))

    def test_single_bin_band_rejected_on_both_paths(self):
        """A band holding one bin is the same error whichever path measures it."""
        for spec in (DEFAULT, PulseSpec(M=256, N=8), PulseSpec(M=16, N=4, Q=40, family=PulseFamily.GENERAL_DDOP)):
            parts = train_parts(spec)
            spectrum = power_spectrum(parts.signal())
            band = AnalysisBand(half_width=spectrum.freq_interval / 4)
            with pytest.raises(DegenerateInputError) as want:
                measure_all(parts.signal(), band)
            with pytest.raises(DegenerateInputError) as got:
                measure_train(parts, band)
            assert str(got.value) == str(want.value)

    def test_capture_from_parseval(self):
        """The capture's total is L * sum|c_k|^2 * sum|s_t|^2, every bin's energy
        by discrete Parseval: a band holding every bin captures exactly 1, and
        no band captures more than 1."""
        wide = AnalysisBand(half_width=1e12)
        assert measure_train(train_parts(DEFAULT), wide).energy_capture == 1.0
        spec = PulseSpec(M=32, N=3, family=PulseFamily.FDM)
        parts = train_parts(spec, 4)
        assert measure_train(parts, wide, 2).energy_capture == 1.0
        spectrum = power_spectrum(parts.signal(), 2)
        for k in range(1, spectrum.values.shape[0] // 2, 7):
            band = AnalysisBand(half_width=spectrum.frequency(spectrum.values.shape[0] // 2 + k))
            got = measure_train(parts, band, 2)
            assert got.energy_capture <= 1.0
            assert_same_metrics(got, measure_all(parts.signal(), band, 2))

    @pytest.mark.parametrize("spec,oversample", [
        (PulseSpec(M=16, N=4, Q=40, beta=0.5, family=PulseFamily.GENERAL_DDOP), 8),
        (PulseSpec(M=4, N=4, Q=256, beta=0.3, family=PulseFamily.GENERAL_DDOP, subpulse="btrrc"), 8),
        (PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2), 8),
        (PulseSpec(M=4, N=4, Q=256, family=PulseFamily.GENERAL_DDOP), 16),
    ], ids=["gddop-overlap-5", "gddop-btrrc-overlap-128", "otfs", "gddop-overlap-128-oversample-16"])
    def test_energy_alone(self, spec, oversample):
        """The energy of the time-domain lag sum, which the orthogonality scan
        divides by, is the direct sum of |u_i|^2 over the train added from
        its scaled parts."""
        parts = train_parts(spec, oversample)
        u = np.zeros(parts.grid.num_samples, dtype=np.complex128)
        for offset, coefficient in zip(parts.offsets, parts.coefficients):
            u[offset:offset + parts.subpulse.shape[0]] += coefficient * parts.subpulse
        energy = metrics._train_moments(parts).energy
        assert energy == pytest.approx(float(np.sum(np.abs(u) ** 2)), rel=1e-13, abs=0.0)


def _parts(num_samples, per_t, sub, coefficients=(1.0, 1.0, 1.0)):
    return TrainParts(TimeGrid(0.0, 1.0, num_samples), np.asarray(sub), 1.0, np.asarray(coefficients), per_t)


_KERNEL_CASES = {
    # id: (parts, zero_pad, (g, R, w)), g = gcd(L, P) and R = L/g
    "w-wider-than-g": (_parts(104, 32, np.hanning(40)), 4, (16, 27, 40)),
    "odd-L": (_parts(45, 15, np.hanning(9)), 1, (15, 3, 9)),
    "complex-otfs": (train_parts(PulseSpec(M=16, N=4, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=1), 4),
                     4, (64, 16, 64)),
    "overlapping-gddop": (train_parts(PulseSpec(M=8, N=2, Q=8, family=PulseFamily.GENERAL_DDOP), 2),
                          4, (2, 225, 32)),
}


def _band_case(case):
    """(parts, band, zero_pad): the default train or the 256 x 8 btrrc train
    at its default band, or "name@band", a ``_KERNEL_CASES`` train at the
    band |f| <= 0.3/dt or at a band of every bin."""
    if case in ("default", "btrrc-256x8"):
        spec = DEFAULT if case == "default" else PulseSpec(M=256, N=8, subpulse="btrrc")
        return train_parts(spec), AnalysisBand.default_for(spec), 4
    name, band = case.split("@")
    parts, zero_pad, _ = _KERNEL_CASES[name]
    half_width = 0.3 / parts.grid.sample_interval if band == "0.3/dt" else 1e9
    return parts, AnalysisBand(half_width=half_width), zero_pad


def _direct_kernel(parts, kappas, length):
    """sum over lo <= kappa < hi of (kappa - c)^p |C(kappa)|^2 omega^(kappa e), every
    comb entry and every power of omega = exp(-2j pi/L) summed directly."""
    lo, hi = kappas
    kappa, e = np.arange(lo, hi), np.arange(parts.subpulse.shape[0])
    n = np.arange(parts.coefficients.shape[0])
    comb = np.exp(-2j * np.pi * (np.outer(kappa, n * parts.per_t) % length) / length) @ parts.coefficients
    weighted = np.abs(comb) ** 2 * np.exp(-2j * np.pi * (np.outer(kappa, e) % length) / length).T
    return np.stack([weighted @ (kappa - 0.5 * (lo + hi - 1)) ** p for p in range(3)])


def _layout_kernel(layout):
    """The layout's K_p[e], undoing its conjugate and its doubled lags."""
    kernel = np.conj(layout.kernel.view(np.complex128))
    kernel[:, 1:] /= 2.0
    return kernel


class TestBandKernel:
    """The band kernel K_p (``_band_kernel``), from one chirp z-transform and
    g-point sums, against the sums it stands for, and the lit rows that
    reject a band whose energy sits in one bin."""

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_matches_a_direct_sum(self, case):
        """Every lag's K_p to 1e-12 of its largest magnitude, for bands that
        hold every bin, about half of them, a run across the comb's period,
        fewer bins than one period, two bins, and none."""
        parts, zero_pad, (g, period, width) = _KERNEL_CASES[case]
        length = fast_length(zero_pad * parts.grid.num_samples)
        assert (math.gcd(length, parts.per_t), length // g, parts.subpulse.shape[0]) == (g, period, width)
        half = length // 2
        for kappas in ((-half, length - half), (-half // 2, half // 2 + 1), (-period - 2, period + 1),
                       (3, period), (-1, 1), (5, 7), (2, 2)):
            lo, hi = kappas = max(kappas[0], -half), min(kappas[1], length - half)
            rows = np.arange(min(period, hi - lo))
            comb = np.abs(np.fft.fft(parts.coefficients, period)) ** 2
            weight = comb[(lo + rows) * (parts.per_t // g) % period]
            got = metrics._band_kernel(weight, kappas, period, length, width)
            want = _direct_kernel(parts, kappas, length)
            want[:, 1:] *= 2.0
            scale = np.abs(want).max(axis=1, keepdims=True) if hi > lo else 1.0
            np.testing.assert_allclose(np.conj(got.view(np.complex128)) / scale, want / scale, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length,n,count", [(45, 30, 40), (1024, 200, 17), (16, 1, 1), (1_036_800, 300, 500)],
                             ids=["odd-L", "fewer-lags-than-samples", "one-sample", "large-L"])
    def test_chirp_z_matches_a_direct_sum(self, length, n, count):
        """sum_j x[:, j] omega^(j e) for e < count against every power of
        omega = exp(-2j pi/L) taken directly, to 1e-12 of sum_j |x[:, j]|, with
        the chirp's angles k^2 reduced mod 2L as the band kernel reduces them."""
        rng = np.random.default_rng(length + n)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        k = np.arange(max(n, count), dtype=np.int64)
        angle = k * k % (2 * length)
        angle[angle > length] -= 2 * length
        got = metrics._chirp_z(x, np.exp(-1j * np.pi * angle / length), count)
        want = x @ np.exp(-2j * np.pi * (np.outer(np.arange(n), np.arange(count)) % length) / length)
        assert got.shape == (3, count)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(x).sum(axis=1).max())

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_moments_match_the_train_dft(self, case):
        """kernel times the sub-pulse's autocorrelation is
        sum (kappa - c)^p |U(kappa)|^2 over the default band, U the length-L DFT
        of the train added from its parts, to 1e-12 of the p-th sum of |U|^2 |kappa - c|^p."""
        parts, zero_pad, _ = _KERNEL_CASES[case]
        spec_band = AnalysisBand(half_width=0.3 / parts.grid.sample_interval)
        layout = metrics.spectrum_layout(parts, spec_band, zero_pad)
        (lo, hi), length = layout.kappas, layout.length
        np.testing.assert_allclose(_layout_kernel(layout), _direct_kernel(parts, (lo, hi), length), rtol=0,
                                   atol=1e-12 * np.abs(_layout_kernel(layout)).max())
        u = np.zeros(parts.grid.num_samples, dtype=np.complex128)
        for offset, coefficient in zip(parts.offsets, parts.coefficients):
            u[offset:offset + parts.subpulse.shape[0]] += coefficient * parts.subpulse
        power = np.abs(np.fft.fft(u, length)[np.arange(lo, hi) % length]) ** 2
        offsets = np.arange(lo, hi) - 0.5 * (lo + hi - 1)
        width = parts.subpulse.shape[0]
        rho = np.array([np.sum(parts.subpulse[e:] * np.conj(parts.subpulse[:width - e])) for e in range(width)],
                       dtype=np.complex128)
        got = np.einsum("pe,e->p", layout.kernel, rho.view(np.float64))
        for p in range(3):
            assert abs(got[p] - power @ offsets ** p) <= 1e-12 * (power @ np.abs(offsets) ** p)

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_band_wider_than_every_bin(self, case):
        """A band wider than the L bins holds all of them: capture exactly 1,
        and measure_all's numbers to 1e-12."""
        parts, zero_pad, _ = _KERNEL_CASES[case]
        band = AnalysisBand(half_width=1e9)
        got = measure_train(parts, band, zero_pad)
        assert got.energy_capture == 1.0
        assert_same_metrics(got, measure_all(parts.signal(), band, zero_pad))

    @pytest.mark.parametrize("case,message", [
        (dict(spec=PulseSpec(M=45, N=2, family=PulseFamily.FDM), oversample=1, zero_pad=1), "only one of the 90 bins"),
        (dict(spec=PulseSpec(M=16, N=2, family=PulseFamily.TDM), oversample=1, zero_pad=1), "only one of the"),
        (dict(spec=PulseSpec(M=16, N=4, family=PulseFamily.FDM), oversample=4, zero_pad=1, half_width=1e4),
         "only one of the 256 bins"),
    ], ids=["fdm-45x2", "tdm-16x2", "fdm-16x4-every-bin"])
    def test_one_bin_with_energy_rejected(self, case, message):
        """Row 0 of the comb is not turned, so the exact zeros of its spectrum
        stay exact: where it is the only row the comb keeps, its one nonzero
        bin is counted and the band rejected with the zero-pad advice. Each
        band holds exactly w bins of positive comb weight, the most that the
        count leaves to ``_lit_bins``."""
        spec = case["spec"]
        band = AnalysisBand(half_width=case.get("half_width", AnalysisBand.default_for(spec).half_width))
        parts = train_parts(spec, case["oversample"])
        layout = metrics.spectrum_layout(parts, band, case["zero_pad"])
        assert int(layout.runs.sum()) == parts.subpulse.shape[0]
        with pytest.raises(DegenerateInputError, match=message + ".*raise the zero-pad factor"):
            measure_train(parts, band, case["zero_pad"])

    @pytest.mark.parametrize("case", [
        "default", "btrrc-256x8",
        *(f"{name}@{band}" for name in sorted(_KERNEL_CASES) for band in ("0.3/dt", "every-bin")
          if (name, band) != ("odd-L", "0.3/dt"))])
    def test_more_comb_bins_than_samples_skip_the_lit_rows(self, case, monkeypatch):
        """Where the band holds B > w bins of positive comb weight, S(kappa),
        a nonzero polynomial of degree <= w - 1 in omega^kappa, vanishes on
        at most w - 1 of them, so two carry energy: measure_train never
        calls ``_lit_bins``, which finds two lit rows too, or on odd-L's
        every-bin band one row of 15 lit bins."""
        parts, band, zero_pad = _band_case(case)
        layout = metrics.spectrum_layout(parts, band, zero_pad)
        assert int(layout.runs.sum()) > parts.subpulse.shape[0]
        assert metrics._lit_bins(parts.subpulse, layout) == (15 if case == "odd-L@every-bin" else 2)

        def refuse(sub, layout_):
            raise AssertionError("_lit_bins called")

        monkeypatch.setattr(metrics, "_lit_bins", refuse)
        measure_train(parts, band, zero_pad)
        metrics._measure_on(parts, band, layout)

    def test_as_many_comb_bins_as_samples_read_the_lit_rows(self, monkeypatch):
        """odd-L's 0.3/dt band holds B = w = 9 bins of positive comb weight,
        too few to prove two lit by counting: ``_lit_bins`` runs, finds all 9
        lit, and the band is measured as measure_all measures it."""
        parts, band, zero_pad = _band_case("odd-L@0.3/dt")
        layout = metrics.spectrum_layout(parts, band, zero_pad)
        assert int(layout.runs.sum()) == parts.subpulse.shape[0] == 9
        found = []
        lit_bins = metrics._lit_bins

        def noting(sub, layout_):
            found.append(lit_bins(sub, layout_))
            return found[-1]

        monkeypatch.setattr(metrics, "_lit_bins", noting)
        got = measure_train(parts, band, zero_pad)
        assert found == [9]
        assert_same_metrics(got, measure_all(parts.signal(), band, zero_pad))

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_chunks_of_one_row_give_the_same_bits(self, case, monkeypatch):
        """The chirp z-transform's rows transformed one at a time give the
        band kernel of one chunk of them all, bit for bit."""
        parts, zero_pad, _ = _KERNEL_CASES[case]
        bands = [_band_case(f"{case}@{band}")[1] for band in ("0.3/dt", "every-bin")]
        monkeypatch.setattr(signal_core, "_HEAP_CHUNK_BYTES", 1 << 40)
        whole = [metrics.spectrum_layout(parts, band, zero_pad).kernel for band in bands]
        monkeypatch.setattr(signal_core, "_HEAP_CHUNK_BYTES", 1)
        for band, kernel in zip(bands, whole):
            assert np.array_equal(metrics.spectrum_layout(parts, band, zero_pad).kernel, kernel)

    def test_rows_read_in_order_until_two_are_lit(self, monkeypatch):
        """Two lit rows end the search after the first two rows. A sub-pulse
        with no energy lights none, and every row with comb weight is read
        once, in row order, in chunks of the set size."""
        parts, zero_pad, (g, period, width) = _KERNEL_CASES["w-wider-than-g"]
        layout = metrics.spectrum_layout(parts, AnalysisBand(half_width=1e9), zero_pad)
        turned = []
        turn_table = metrics._turn_table

        def noting(k, t, period_):
            turned.append(k.copy())
            return turn_table(k, t, period_)

        monkeypatch.setattr(metrics, "_turn_table", noting)
        assert metrics._lit_bins(parts.subpulse, layout) == 2
        assert [list(k) for k in turned] == [list(layout.rows[:2] % period)]
        turned.clear()
        monkeypatch.setattr(signal_core, "_HEAP_CHUNK_BYTES", 3 * 16 * -(-width // g) * g)  # 3 rows, folded
        assert metrics._lit_bins(np.zeros(width), layout) == 0
        assert [len(k) for k in turned] == [2] + [3] * ((layout.rows.shape[0] - 2) // 3) + (
            [(layout.rows.shape[0] - 2) % 3] if (layout.rows.shape[0] - 2) % 3 else [])
        assert np.array_equal(np.concatenate(turned), layout.rows % period)


class TestSpectrumLayout:
    """A layout holds what a train's band moments read besides its sub-pulse
    samples; it serves the trains of one ``layout_key``."""

    @pytest.mark.parametrize("spec,oversample,fits_g", [
        (PulseSpec(M=16, N=4, beta=0.2), 16, True),
        (PulseSpec(M=16, N=4, beta=0.2, subpulse="btrrc"), 16, True),
        (PulseSpec(M=32, N=8, beta=0.2, subpulse="btrrc"), 8, False),
        (PulseSpec(M=32, N=8, beta=0.2, family=PulseFamily.GENERAL_DDOP), 8, False),
        (PulseSpec(M=32, N=8, beta=0.2, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2), 8, True),
    ], ids=["rrc", "btrrc", "btrrc-bin-weights", "gddop-bin-weights", "otfs-complex"])
    def test_another_beta_shares_the_layout(self, spec, oversample, fits_g):
        """Another roll-off changes only the sub-pulse samples: the first
        point's layout measures the second to the same bits as its own,
        whether the sub-pulse fits in g = gcd(L, P) or not."""
        band = AnalysisBand.default_for(spec)
        first = train_parts(spec, oversample)
        layout = metrics.spectrum_layout(first, band)
        other = train_parts(replace(spec, beta=0.7), oversample)
        assert metrics.layout_key(first, band, 4) == metrics.layout_key(other, band, 4)
        assert (other.subpulse.shape[0] <= layout.length // layout.period) == fits_g
        assert metrics._measure_on(other, band, layout) == measure_train(other, band, 4)

    @pytest.mark.parametrize("other", ["band", "zero_pad", "Q", "otfs_n"])
    def test_layout_key_tells_another_train_apart(self, other):
        """Another band, zero_pad or Q, or other coefficients (another
        otfs_n on the same grid), is another ``layout_key``, so
        ``experiments.measure_point`` never reads a layout with the wrong
        bins, rows or comb: it builds the train's own."""
        spec = PulseSpec(M=32, N=8, Q=2, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2)
        if other == "Q":
            spec = PulseSpec(M=32, N=8, Q=2)
        band, zero_pad = AnalysisBand.default_for(spec), 4
        parts = train_parts(spec, 8)
        built_for = {
            "band": (parts, AnalysisBand(half_width=band.half_width / 2), zero_pad),
            "zero_pad": (parts, band, 2),
            "Q": (train_parts(replace(spec, Q=4), 8), band, zero_pad),
            "otfs_n": (train_parts(replace(spec, otfs_n=3), 8), band, zero_pad),
        }[other]
        if other == "otfs_n":
            assert built_for[0].grid == parts.grid and built_for[0].subpulse.shape == parts.subpulse.shape
        assert metrics.layout_key(*built_for) != metrics.layout_key(parts, band, zero_pad)

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_rows_and_runs_match_a_mask(self, case):
        """The lit rows, in row order, and each one's run against a mask over
        every bin kappa of the band, kappa in row lo + (kappa - lo) mod R, for
        bands of every bin, about half of them, a run across the comb's
        period, fewer bins than one period and one bin. The comb weight
        read from one R-point FFT is the directly summed |C(kappa)|^2 to 1e-12
        of its bound (sum |c_n|)^2."""
        parts, zero_pad, (g, period, _) = _KERNEL_CASES[case]
        length = fast_length(zero_pad * parts.grid.num_samples)
        freq_interval = 1.0 / (length * parts.grid.sample_interval)
        n = np.arange(parts.coefficients.shape[0])
        for bins in (1e9, length // 4 + 0.5, period + 1.5, (period - 1) // 2 - 0.5, 0.5):
            layout = metrics.spectrum_layout(parts, AnalysisBand(half_width=bins * freq_interval), zero_pad)
            lo, hi = layout.kappas
            assert layout.period == period and (hi - lo) == min(length, 2 * math.floor(bins) + 1)
            kappa = np.arange(lo, hi)
            weight = np.abs(np.fft.fft(parts.coefficients, period)[kappa * (parts.per_t // g) % period]) ** 2
            direct = np.abs(np.exp(-2j * np.pi * (np.outer(kappa, n * parts.per_t) % length) / length)
                            @ parts.coefficients) ** 2
            np.testing.assert_allclose(weight, direct, rtol=0, atol=1e-12 * np.sum(np.abs(parts.coefficients)) ** 2)
            row = lo + (kappa - lo) % period
            lit = np.unique(row[weight > 0.0])
            assert np.array_equal(layout.rows, lit)
            assert np.array_equal(layout.runs, [np.count_nonzero(row == j) for j in lit])

    def test_measurements_leave_the_layout_as_built(self):
        """Two roll-offs measured with one layout read it and write nothing:
        its arrays keep their bits, and each point gets the numbers it gets
        alone."""
        spec = PulseSpec(M=16, N=4, subpulse="btrrc")
        band = AnalysisBand.default_for(spec)
        layout = metrics.spectrum_layout(train_parts(spec, 16), band)
        before = [array.copy() for array in (layout.kernel, layout.rows, layout.runs)]
        found = []
        for beta in (0.3, 0.7):
            parts = train_parts(replace(spec, beta=beta), 16)
            found.append(metrics._measure_on(parts, band, layout))
            assert found[-1] == measure_train(parts, band)
        assert found[0] != found[1]
        assert all(np.array_equal(a, b) for a, b in zip(before, (layout.kernel, layout.rows, layout.runs)))

    def test_arrays_are_read_only(self):
        spec = PulseSpec(M=32, N=8, family=PulseFamily.GENERAL_DDOP)
        layout = metrics.spectrum_layout(train_parts(spec, 8), AnalysisBand.default_for(spec))
        for array in (layout.kernel, layout.rows, layout.runs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
