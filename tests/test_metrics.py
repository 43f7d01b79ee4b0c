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
    spectrum_rows,
)
from ddopkit import metrics, pulses
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

    @pytest.mark.parametrize("spec,oversample,zero_pad,rows", [
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
    def test_matches_the_sampled_spectrum(self, spec, oversample, zero_pad, rows):
        """Every parity of m and r, real and complex, against measure_all to 1e-12."""
        parts = train_parts(spec, oversample)
        assert spectrum_rows(parts, zero_pad) == rows
        assert parts.subpulse.shape[0] <= min(rows[0], parts.per_t)
        band = AnalysisBand.default_for(spec)
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
        m, r = spectrum_rows(parts)
        length = m * r
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

    @pytest.mark.parametrize("spec,oversample,zero_pad,rows", [
        (PulseSpec(M=256, N=8, beta=0.35, subpulse="btrrc"), 16, 4, (432, 270)),
        (PulseSpec(M=32, N=8, family=PulseFamily.GENERAL_DDOP), 8, 4, (75, 125)),
        (PulseSpec(M=12, N=4), 8, 4, (25, 50)),
        (PulseSpec(M=33, N=7, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2), 5, 4, (192, 25)),
        (PulseSpec(M=12, N=7, family=PulseFamily.OTFS_BASIS, otfs_m=1, otfs_n=1), 8, 2, (135, 10)),
        (PulseSpec(M=16, N=4, Q=40, family=PulseFamily.TDM), 8, 4, (640, 4)),
    ], ids=["ddop-256x8", "gddop-odd-m-odd-r", "ddop-odd-m-even-r", "otfs-toned", "otfs-odd-m",
            "tdm-one-subpulse-wider-than-P"])
    def test_rows_wider_than_the_comb_period(self, spec, oversample, zero_pad, rows):
        """Where gcd(L, P) < w, the rows are m >= w bins, m the smallest divisor
        of L that holds the sub-pulse, and each bin is weighted by its own
        comb entry; the result is measure_all's to 1e-12."""
        parts = train_parts(spec, oversample)
        m, r = spectrum_rows(parts, zero_pad)
        assert (m, r) == rows and math.gcd(m * r, parts.per_t) < parts.subpulse.shape[0] <= m
        band = AnalysisBand.default_for(spec)
        assert_same_metrics(measure_train(parts, band, zero_pad),
                            measure_all(synth_pulse(spec, oversample), band, zero_pad))

    @pytest.mark.parametrize("spec,overlap", [
        (PulseSpec(M=16, N=4, Q=40, family=PulseFamily.GENERAL_DDOP), 5),
        (PulseSpec(M=64, N=8, Q=40, beta=0.5, subpulse="btrrc", family=PulseFamily.GENERAL_DDOP), 1.25),
        (PulseSpec(M=16, N=4, Q=256, family=PulseFamily.GENERAL_DDOP), 32),
    ], ids=["gddop-16x4", "gddop-64x8-btrrc", "gddop-16x4-q256"])
    def test_overlapping_subpulses_add_lag_terms(self, spec, overlap):
        """Where the sub-pulses overlap (w > P), the row spectrum still holds
        the sub-pulse and ΔT adds the lag products: measure_all's to 1e-12."""
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

    def test_row_size_rule(self):
        """m = gcd(L, P) where the sub-pulse fits in it, else the smallest
        divisor of L that is at least w, against a search over every divisor."""
        for num_samples in (2, 7, 29, 96, 1000, 4801):
            for zero_pad in (1, 4):
                length = fast_length(zero_pad * num_samples)
                for per_t in (1, 12, 45, 128, 165):
                    for width in {1, 2, 5, 16, 31, per_t, num_samples}:
                        if width > num_samples:
                            continue
                        parts = TrainParts(TimeGrid(0.0, 1.0, num_samples), np.ones(width), 1.0, np.ones(1), per_t)
                        g = math.gcd(length, per_t)
                        m = g if width <= g else min(d for d in range(width, length + 1) if length % d == 0)
                        assert spectrum_rows(parts, zero_pad) == (m, length // m)

    @pytest.mark.parametrize("spec", [replace(DEFAULT, beta=0.5, subpulse="btrrc"),
                                      PulseSpec(M=256, N=8, beta=0.5, subpulse="btrrc"),
                                      PulseSpec(M=16, N=4, Q=40, beta=0.5, subpulse="btrrc",
                                                family=PulseFamily.GENERAL_DDOP)],
                             ids=["parts", "wide-rows", "overlapping"])
    def test_quadrature_runs_once_per_point(self, spec, monkeypatch):
        calls = []

        def counting(spec, tau):
            calls.append(tau.shape)
            return btrrc_profile(spec, tau)

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
        monkeypatch.setitem(pulses._SUBPULSES, "rrc", lambda spec, tau, count: (1.0, np.zeros(tau.shape)))
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

    @pytest.mark.parametrize("m,r,first", [(16, 7, -3), (16, 7, 0), (15, 8, -4), (9, 5, 0)])
    def test_window_sums_match_a_mask(self, m, r, first):
        """Each row's in-band sums, and its nonzero count over its column runs,
        against a mask over every bin kappa = j + r*(c - m//2) of a centered
        power array with exact zeros, handed over in FFT order, for bands
        inside, across and past the rows' span. Each band is asked for twice,
        as a band that is its own mirror is, and both answers are the one
        result."""
        rows = np.arange(first, first + r)
        rng = np.random.default_rng(m * r)
        power = rng.random((r, m)) * (rng.random((r, m)) < 0.7)
        i = np.arange(m) - m // 2
        kappa = rows[:, None] + r * i
        span = (int(kappa.min()), int(kappa.max()) + 1)
        bands = [(lo, hi) for lo in range(span[0] - 2, span[1] + 2, 3)
                 for hi in range(lo + 1, span[1] + 3, 4)]
        fft_order = np.fft.ifftshift(power, axes=1)
        got = metrics._window_sums(fft_order, rows, r, [band for band in bands for _ in range(2)])
        for (lo, hi), sums, again in zip(bands, got[::2], got[1::2]):
            inside = (kappa >= lo) & (kappa < hi)
            held = np.where(inside, power, 0.0)
            np.testing.assert_allclose(sums, [held.sum(axis=1), held @ i, held @ (i * i)], rtol=1e-13, atol=1e-13)
            nonzero = [sum(np.count_nonzero(fft_order[n, c0:c1]) for c0, c1 in metrics._column_runs(j, (lo, hi), r, m))
                       for n, j in enumerate(rows)]
            assert np.array_equal(nonzero, np.count_nonzero(held, axis=1))
            assert again is sums

    def test_symmetric_band_is_summed_once(self, monkeypatch):
        """The default band, kappa in [-324000, 324001), is its own mirror
        (1 - hi, 1 - lo): one set of window sums serves both row weightings,
        and the result is still measure_all's."""
        seen = []
        window_sums = metrics._window_sums

        def spy(power, rows, r, bands):
            seen.append((bands, window_sums(power, rows, r, bands)))
            return seen[-1][1]

        monkeypatch.setattr(metrics, "_window_sums", spy)
        band = AnalysisBand.default_for(DEFAULT)
        assert_same_metrics(measure_train(train_parts(DEFAULT), band), measure_all(synth_pulse(DEFAULT), band))
        [(bands, sums)] = seen
        assert bands == [(-324_000, 324_001)] * 2 and sums[0] is sums[1]

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

    @pytest.mark.parametrize("spec", [
        PulseSpec(M=16, N=4, Q=40, beta=0.5, family=PulseFamily.GENERAL_DDOP),
        PulseSpec(M=4, N=4, Q=256, beta=0.3, family=PulseFamily.GENERAL_DDOP, subpulse="btrrc"),
        PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2),
    ], ids=["gddop-overlap-5", "gddop-btrrc-overlap-128", "otfs"])
    def test_energy_alone(self, spec):
        """The scan's energy-only lag sum is the direct sum of |u_i|^2 over the
        train added from its scaled parts, and the moments' energy."""
        parts = train_parts(spec, 8)
        u = np.zeros(parts.grid.num_samples, dtype=np.complex128)
        for offset, coefficient in zip(parts.offsets, parts.coefficients):
            u[offset:offset + parts.subpulse.shape[0]] += coefficient * parts.subpulse
        alone = metrics._train_energy(parts)
        assert alone == pytest.approx(float(np.sum(np.abs(u) ** 2)), rel=1e-13, abs=0.0)
        assert alone == pytest.approx(metrics._train_moments(parts, 1)[0], rel=1e-14, abs=0.0)


def _parts(num_samples, per_t, sub, coefficients=(1.0, 1.0, 1.0)):
    return TrainParts(TimeGrid(0.0, 1.0, num_samples), np.asarray(sub), 1.0, np.asarray(coefficients), per_t)


_X20, _X21 = np.arange(20) + 0.5, np.arange(21) + 0.5
_ROW_CASES = {
    # id: (parts, zero_pad, (m, r), rows read); m = gcd(L, P) unless the sub-pulse is wider
    "even-w": (_parts(96, 32, np.sin(np.pi * _X20 / 20) ** 2), 4, (32, 12), 7),
    "odd-w": (_parts(96, 32, np.sin(np.pi * _X21 / 21) ** 2), 4, (32, 12), 7),
    "odd-m-even-w": (_parts(45, 15, np.hanning(10)), 1, (15, 3), 2),
    "odd-m-odd-w": (_parts(45, 15, np.hanning(9)), 1, (15, 3), 2),
    "asymmetric-real": (_parts(96, 32, np.random.default_rng(3).random(20)), 4, (32, 12), 7),
    "complex-coefficients": (_parts(96, 32, np.hanning(20), np.exp(0.6j * np.pi * np.arange(3))), 4, (32, 12), 12),
    "one-row": (_parts(16, 16, np.hanning(11)), 1, (16, 1), 1),
    "two-rows": (_parts(16, 16, np.hanning(11)), 2, (16, 2), 2),
    "bin-weights": (_parts(96, 32, np.hanning(40)), 4, (48, 8), 5),
    "otfs-window": (train_parts(PulseSpec(M=16, N=4, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=1), 4),
                    4, (64, 16), 16),
}


class TestRowPower:
    """``_row_power`` transforms two rows per FFT, the conjugate-even and
    -odd parts of the sub-pulse apart; against a direct DFT of every row."""

    @pytest.mark.parametrize("case", sorted(_ROW_CASES))
    def test_matches_a_direct_dft(self, case):
        """|sum_t s_t exp(-2j pi (j + r c) t/L)|^2 for each row j read and each
        FFT-order column c, to 1e-12 of the peak; row 0 bit for bit the
        unturned |FFT_m(s)|^2."""
        parts, zero_pad, shape, count = _ROW_CASES[case]
        layout = metrics.spectrum_layout(parts, AnalysisBand(half_width=1e9), zero_pad)
        m, r = shape
        assert (layout.m, layout.r) == shape and layout.rows.shape[0] == count
        assert (layout.bin_weight is not None) == (case == "bin-weights")
        sub = parts.subpulse
        mirrored = np.conj(sub[::-1])
        if case in ("asymmetric-real", "otfs-window"):
            assert np.any(sub + mirrored) and np.any(sub - mirrored)  # both parts are transformed
        got = metrics._row_power(sub, layout)
        t = np.arange(sub.shape[0])
        want = np.array([[abs(np.sum(sub * np.exp(-2j * np.pi * ((j + r * c) * t % (m * r)) / (m * r)))) ** 2
                          for c in range(m)] for j in layout.rows])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * want.max())
        zero = np.fft.fft(sub, m)
        assert np.array_equal(got[list(layout.rows).index(0)], zero.real ** 2 + zero.imag ** 2)

    def test_even_subpulses_take_one_part(self, monkeypatch):
        """Every real family's sub-pulse is its own mirror, so its conjugate-odd
        part is zero and only the even part is transformed: half as many
        FFT rows as rows read, plus row 0."""
        spec = PulseSpec(M=64, N=8)
        parts = train_parts(spec, 8)
        assert np.array_equal(parts.subpulse, parts.subpulse[::-1])
        layout = metrics.spectrum_layout(parts, AnalysisBand.default_for(spec))
        transformed = []
        fft = np.fft.fft

        def counting(a, n=None, axis=-1, norm=None, out=None):
            transformed.append(a.shape[0] if a.ndim == 2 else 1)
            return fft(a, n, axis, norm, out)

        monkeypatch.setattr(np.fft, "fft", counting)
        metrics._row_power(parts.subpulse, layout)
        assert sum(transformed) == (layout.rows.shape[0] + 1) // 2 + 1


class TestSpectrumLayout:
    """A layout holds what a train's row spectrum reads besides its sub-pulse
    samples; it serves only the trains, band and zero_pad it was built for."""

    @pytest.mark.parametrize("spec,oversample,row_weights", [
        (PulseSpec(M=16, N=4, beta=0.2), 16, True),
        (PulseSpec(M=16, N=4, beta=0.2, subpulse="btrrc"), 16, True),
        (PulseSpec(M=32, N=8, beta=0.2, subpulse="btrrc"), 8, False),
        (PulseSpec(M=32, N=8, beta=0.2, family=PulseFamily.GENERAL_DDOP), 8, False),
        (PulseSpec(M=32, N=8, beta=0.2, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2), 8, True),
    ], ids=["rrc", "btrrc", "btrrc-bin-weights", "gddop-bin-weights", "otfs-complex"])
    def test_another_beta_shares_the_layout(self, spec, oversample, row_weights):
        """Another roll-off changes only the sub-pulse samples: the first
        point's layout measures the second to the same bits as its own, with
        the comb as row weights (m = gcd(L, P)) or as per-bin weights."""
        band = AnalysisBand.default_for(spec)
        layout = metrics.spectrum_layout(train_parts(spec, oversample), band)
        other = train_parts(replace(spec, beta=0.7), oversample)
        assert layout.key == metrics.layout_key(other, band, 4)
        assert (layout.bin_weight is None) == row_weights
        assert measure_train(other, band, 4, layout) == measure_train(other, band, 4)

    @pytest.mark.parametrize("other", ["band", "zero_pad", "Q", "otfs_n"])
    def test_layout_of_another_train_rejected(self, other):
        """A layout built for another band, zero_pad or Q, or for other
        coefficients (another otfs_n on the same grid), raises instead of
        measuring with the wrong bins, rows or comb."""
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
        layout = metrics.spectrum_layout(*built_for)
        with pytest.raises(InvalidInputError, match="spectrum layout was built for another train"):
            measure_train(parts, band, zero_pad, layout)

    def test_points_write_the_layouts_power(self):
        """Two roll-offs measured with one layout each write the power array
        built with it, and still get the numbers they get alone."""
        spec = PulseSpec(M=16, N=4, subpulse="btrrc")
        band = AnalysisBand.default_for(spec)
        layout = metrics.spectrum_layout(train_parts(spec, 16), band)
        rows = layout.rows.shape[0]
        found = []
        for beta in (0.3, 0.7):
            parts = train_parts(replace(spec, beta=beta), 16)
            layout.power.fill(np.nan)
            found.append(measure_train(parts, band, 4, layout))
            assert np.isfinite(layout.power[:rows]).all()
            assert found[-1] == measure_train(parts, band)
        assert found[0] != found[1]

    @pytest.mark.parametrize("spec", [
        PulseSpec(M=16, N=4, beta=0.2),
        PulseSpec(M=16, N=4, beta=0.2, subpulse="btrrc"),
        PulseSpec(M=32, N=8, beta=0.2, family=PulseFamily.GENERAL_DDOP),
        PulseSpec(M=32, N=8, beta=0.2, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2),
    ], ids=["rrc", "btrrc", "gddop-bin-weights", "otfs-complex"])
    def test_row_power_reuses_the_layouts_arrays(self, spec, monkeypatch):
        """Every in-place FFT of the row spectrum runs in the layout's buffer
        and the power returned is a view of its power array, for each of two
        roll-offs measured with the one layout."""
        band = AnalysisBand.default_for(spec)
        layout = metrics.spectrum_layout(train_parts(spec, 8), band)
        targets = []
        fft = np.fft.fft

        def noting_out(a, n=None, axis=-1, norm=None, out=None):
            if out is not None:
                targets.append(out)
            return fft(a, n, axis, norm, out)

        monkeypatch.setattr(np.fft, "fft", noting_out)
        for beta in (0.3, 0.7):
            targets.clear()
            power = metrics._row_power(train_parts(replace(spec, beta=beta), 8).subpulse, layout)
            assert np.shares_memory(power, layout.power)
            assert targets and all(np.shares_memory(out, layout.buffer) for out in targets)

    def test_arrays_are_read_only(self):
        spec = PulseSpec(M=32, N=8, family=PulseFamily.GENERAL_DDOP)
        layout = metrics.spectrum_layout(train_parts(spec, 8), AnalysisBand.default_for(spec))
        arrays = [layout.rows, layout.coarse, layout.fine, layout.rotate, layout.bin_weight,
                  *(w for _, _, w in layout.bands)]
        assert len(layout.bands) == 2
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
