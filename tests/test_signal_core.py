"""Grid, signal, and transform layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddopkit.metrics import AnalysisBand, measure_freq
from ddopkit.pulses import FAMILY_ALIASES, PulseSpec, synth_pulse
from ddopkit import signal_core
from ddopkit.signal_core import (
    InvalidInputError,
    PowerSpectrum,
    SampledSignal,
    TimeGrid,
    energy,
    fast_length,
    non_negative_int,
    positive_int,
    power_spectrum,
    spectral_energy,
)


def gaussian_signal(half_span=8.0, n=4096):
    grid = TimeGrid(start_time=-half_span, sample_interval=2 * half_span / n, num_samples=n)
    t = grid.times()
    return SampledSignal(grid=grid, samples=np.exp(-np.pi * t * t))


def bin_frequencies(spectrum):
    return spectrum.start_freq + np.arange(spectrum.values.shape[0]) * spectrum.freq_interval


def numpy_spectrum(signal, length):
    """numpy's own fftshifted FFT of the zero-padded samples, scaled by dt."""
    return np.fft.fftshift(np.fft.fft(signal.samples, length)) * signal.grid.sample_interval


class TestTimeGrid:
    def test_midpoint_times(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.5, num_samples=4)
        assert np.allclose(grid.times(), [0.25, 0.75, 1.25, 1.75])

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_rejects_bad_interval(self, dt):
        with pytest.raises(InvalidInputError):
            TimeGrid(start_time=0.0, sample_interval=dt, num_samples=4)

    def test_rejects_too_few_samples(self):
        with pytest.raises(InvalidInputError):
            TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=1)

    @pytest.mark.parametrize("start,dt", [(0.0, 1e307), (1.7e308, 1e306), (math.nan, 0.1)])
    def test_rejects_a_last_sample_beyond_the_float_range(self, start, dt):
        with pytest.raises(InvalidInputError, match="float range"):
            TimeGrid(start_time=start, sample_interval=dt, num_samples=64)
        # a grid that ends just inside the range is kept
        TimeGrid(start_time=0.0, sample_interval=1e306, num_samples=64).times()


class TestSampledSignal:
    def test_length_mismatch(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=4)
        with pytest.raises(InvalidInputError):
            SampledSignal(grid=grid, samples=np.zeros(5))

    def test_rejects_2d(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=4)
        with pytest.raises(InvalidInputError):
            SampledSignal(grid=grid, samples=np.zeros((2, 2)))

    def test_coerces_complex(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=4)
        sig = SampledSignal(grid=grid, samples=np.ones(4))
        assert sig.samples.dtype == np.complex128


class TestPowerSpectrumContainer:
    def test_minimum_bins(self):
        with pytest.raises(InvalidInputError):
            PowerSpectrum(start_freq=0.0, freq_interval=1.0, values=np.ones(1))

    def test_values_dtype(self):
        assert PowerSpectrum(start_freq=-1.0, freq_interval=0.5, values=[1, 2]).values.dtype == np.float64


class TestPositiveInt:
    @pytest.mark.parametrize("value", [0, -1, 1.5, True, False, "3", None, 2**63, float("inf")])
    def test_rejects(self, value):
        with pytest.raises(InvalidInputError, match="n must be a positive integer"):
            positive_int(value, "n")

    def test_accepts_whole_numbers(self):
        assert positive_int(3.0, "n") == 3 and type(positive_int(np.int64(7), "n")) is int


class TestNonNegativeInt:
    @pytest.mark.parametrize("value", [-1, 1.5, True, False, "3", None, 2**63, float("nan")])
    def test_rejects(self, value):
        with pytest.raises(InvalidInputError, match="n must be a non-negative integer"):
            non_negative_int(value, "n")

    def test_accepts_zero_and_whole_numbers(self):
        assert non_negative_int(0, "n") == 0 and non_negative_int(2.0, "n") == 2
        assert type(non_negative_int(np.int64(7), "n")) is int


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestFastLength:
    def test_brute_force_oracle(self):
        limit = 5000
        smooth = [m for m in range(1, 2 * limit) if _is_5_smooth(m)]
        for minimum in range(1, limit + 1):
            got = fast_length(minimum)
            assert _is_5_smooth(got) and got >= minimum
            # no 5-smooth integer in [minimum, got)
            assert not [m for m in smooth if minimum <= m < got]

    def test_benchmark_lengths(self):
        # the default train (4 * 258,464) and the btrrc sweep point (4 * 29,088)
        assert fast_length(1_033_856) == 1_036_800 == 2**9 * 3**4 * 5**2
        assert fast_length(116_352) == 116_640 == 2**5 * 3**6 * 5

    @pytest.mark.parametrize("minimum", [0, -4, 2.5, True])
    def test_rejects_non_positive(self, minimum):
        with pytest.raises(InvalidInputError):
            fast_length(minimum)


class TestEnergy:
    def test_rectangle(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.01, num_samples=100)
        sig = SampledSignal(grid=grid, samples=2.0 * np.ones(100))
        assert energy(sig) == pytest.approx(4.0)

    def test_gaussian_unit(self):
        # int exp(-2 pi t^2) dt = 1/sqrt(2)
        assert energy(gaussian_signal()) == pytest.approx(2 ** -0.5, rel=1e-12)


class TestTransform:
    def test_gaussian_transform_pairs(self):
        """exp(-pi t^2) transforms to exp(-pi f^2); check on a few bins."""
        sp = power_spectrum(gaussian_signal(), zero_pad_factor=2)
        f = bin_frequencies(sp)
        for target in (0.0, 0.5, 1.0, 2.0):
            k = int(np.argmin(np.abs(f - target)))
            assert math.sqrt(sp.values[k]) == pytest.approx(np.exp(-np.pi * f[k] ** 2), abs=1e-9)

    def test_frequency_grid(self):
        sig = gaussian_signal(n=256)
        sp = power_spectrum(sig, zero_pad_factor=4)
        length = 4 * 256
        assert sp.values.shape[0] == length
        assert sp.freq_interval == pytest.approx(1.0 / (length * sig.grid.sample_interval))
        # fftshifted grid is symmetric about 0 up to one bin
        f = bin_frequencies(sp)
        assert f[0] == pytest.approx(-0.5 / sig.grid.sample_interval)

    def test_time_shift_leaves_the_power(self):
        sig = gaussian_signal(n=1024)
        moved = SampledSignal(
            grid=TimeGrid(start_time=sig.grid.start_time + 3.0,
                          sample_interval=sig.grid.sample_interval,
                          num_samples=sig.grid.num_samples),
            samples=sig.samples,
        )
        a = power_spectrum(sig, zero_pad_factor=2)
        b = power_spectrum(moved, zero_pad_factor=2)
        assert np.allclose(np.sqrt(a.values), np.sqrt(b.values), atol=1e-12)

    @pytest.mark.parametrize("n,zero_pad,bins", [(197, 4, 800), (8641, 4, 34_992)])
    def test_non_smooth_minimum(self, n, zero_pad, bins):
        """The length rounds up to 5-smooth; the bins are numpy's own transform's."""
        rng = np.random.default_rng(n)
        dt = 0.05
        grid = TimeGrid(start_time=-0.7, sample_interval=dt, num_samples=n)
        sig = SampledSignal(grid=grid, samples=rng.normal(size=n) + 1j * rng.normal(size=n))
        sp = power_spectrum(sig, zero_pad_factor=zero_pad)
        assert sp.values.shape[0] == bins == fast_length(zero_pad * n)
        assert sp.freq_interval == 1.0 / (bins * dt)
        assert sp.start_freq == -(bins // 2) * sp.freq_interval
        direct = np.abs(numpy_spectrum(sig, bins)) ** 2
        assert np.max(np.abs(sp.values - direct)) <= 1e-13 * np.max(direct)

    def test_rejects_bad_pad(self):
        with pytest.raises(InvalidInputError):
            power_spectrum(gaussian_signal(n=64), zero_pad_factor=0)


def _oracle_zero_pad(signal, parity):
    """The least zero_pad >= 2 whose transform length has the given parity."""
    n = signal.grid.num_samples
    return next(z for z in range(2, 65) if fast_length(z * n) % 2 == parity)


class TestPowerSpectrum:
    """power_spectrum is |numpy's fftshifted FFT * dt|^2, from one rfft for a
    real signal and a complex FFT otherwise."""

    @pytest.mark.parametrize("parity", [0, 1], ids=["even-L", "odd-L"])
    @pytest.mark.parametrize("alias", sorted(FAMILY_ALIASES))
    def test_matches_numpy_fft(self, alias, parity):
        extra = {"otfs": {"otfs_m": 3, "otfs_n": 1}}.get(alias, {})
        sig = synth_pulse(PulseSpec(M=9, N=3, family=FAMILY_ALIASES[alias], **extra), oversample=5)
        assert sig.samples.imag.any() == (alias == "otfs")
        zero_pad = _oracle_zero_pad(sig, parity)
        power = power_spectrum(sig, zero_pad)
        length = power.values.shape[0]
        assert length == fast_length(zero_pad * sig.grid.num_samples) and length % 2 == parity
        assert power.freq_interval == 1.0 / (length * sig.grid.sample_interval)
        assert power.start_freq == -(length // 2) * power.freq_interval
        oracle = np.abs(numpy_spectrum(sig, length)) ** 2
        assert np.max(np.abs(power.values - oracle)) <= 1e-12 * np.max(oracle)
        # a band wider than Nyquist holds every bin, the unpaired -L/2 bin of an even L too
        band = AnalysisBand(half_width=1.01 / (2 * sig.grid.sample_interval))
        assert power.bins_within(band.half_width) == slice(0, length)
        mean, disp, capture = measure_freq(power, band)
        want = measure_freq(PowerSpectrum(power.start_freq, power.freq_interval, oracle), band)
        assert abs(mean - want[0]) <= 1e-12 * want[1]
        assert disp == pytest.approx(want[1], rel=1e-12)
        assert capture == 1.0

    def test_nyquist_bin_of_an_even_length(self):
        """An alternating real signal puts all its energy on the -L/2 bin, which
        only the rfft's last value can fill."""
        grid = TimeGrid(start_time=0.3, sample_interval=0.25, num_samples=64)
        sig = SampledSignal(grid=grid, samples=np.tile([1.0, -1.0], 32))
        power = power_spectrum(sig, zero_pad_factor=1)
        assert np.flatnonzero(power.values).tolist() == [0]
        assert power.values[0] == pytest.approx(abs(numpy_spectrum(sig, 64)[0]) ** 2, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=8, max_value=400),
    zero_pad=st.integers(min_value=1, max_value=6),
    real=st.booleans(),
)
def test_parseval_any_padding(seed, n, zero_pad, real):
    """Time-domain and spectral energies agree for any signal and pad factor,
    on the mirrored rfft path of a real signal and the full FFT of a complex one."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(start_time=float(rng.normal()), sample_interval=float(rng.uniform(0.01, 1.0)),
                    num_samples=n)
    samples = rng.normal(size=n) + (0.0 if real else 1j * rng.normal(size=n))
    sig = SampledSignal(grid=grid, samples=samples)
    assert sig.samples.imag.any() != real
    e = energy(sig)
    se = spectral_energy(power_spectrum(sig, zero_pad_factor=zero_pad))
    assert se == pytest.approx(e, rel=1e-12)


class TestTurnTable:
    """``_turn_table`` builds exp(-2j pi ((k t) mod P)/P) on an arithmetic
    progression t from two separable factors; against the direct exp."""

    @pytest.mark.parametrize("t,period", [
        (range(416), 2 * 1_036_800),  # stride 1
        (range(1 - 416, 416, 2), 2 * 1_036_800),  # 2t - (w - 1): stride 2, negative entries, even w
        (range(1 - 417, 417, 2), 2 * 1_036_800),  # odd w
        (range(0, 16 * 130, 16), 65 * 4096),  # the scan's stride, oversample, on a wider sub-pulse
        (range(-7, 3000, 3), 97),  # k t far beyond the period
        (range(5, 69), 1000),  # a square length: the last coarse block is full
        (range(5, 68), 1000),  # one short of it
        (range(3), 7),
        (range(4, 5), 9),  # one entry: one block of one
    ], ids=["stride-1", "centred-even", "centred-odd", "stride-phases", "beyond-period", "square",
            "below-square", "short", "single"])
    def test_matches_the_direct_exp(self, t, period):
        k = np.array([0, 1, 2, 7, 507, 1012, 10 ** 9 + 7, -3])
        direct = np.exp(-2j * np.pi * (np.outer(k, np.asarray(t)) % period) / period)
        got = signal_core._turn_table(k, t, period)
        assert got.shape == direct.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - direct)) <= 10 * np.finfo(float).eps
        assert np.array_equal(got[0], np.ones(len(t)))  # k = 0 turns by exactly 1
