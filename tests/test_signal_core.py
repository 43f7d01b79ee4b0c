"""Grid, signal, and transform layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddopkit.signal_core import (
    InvalidInputError,
    SampledSignal,
    Spectrum,
    TimeGrid,
    dft_spectrum,
    energy,
    fast_length,
    non_negative_int,
    positive_int,
    spectral_energy,
)


def gaussian_signal(half_span=8.0, n=4096):
    grid = TimeGrid(start_time=-half_span, sample_interval=2 * half_span / n, num_samples=n)
    t = grid.times()
    return SampledSignal(grid=grid, samples=np.exp(-np.pi * t * t))


class TestTimeGrid:
    def test_midpoint_times(self):
        grid = TimeGrid(start_time=0.0, sample_interval=0.5, num_samples=4)
        assert np.allclose(grid.times(), [0.25, 0.75, 1.25, 1.75])

    def test_derived_quantities(self):
        grid = TimeGrid(start_time=-1.0, sample_interval=0.25, num_samples=8)
        assert grid.duration == 2.0
        assert grid.end_time == 1.0

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_rejects_bad_interval(self, dt):
        with pytest.raises(InvalidInputError):
            TimeGrid(start_time=0.0, sample_interval=dt, num_samples=4)

    def test_rejects_too_few_samples(self):
        with pytest.raises(InvalidInputError):
            TimeGrid(start_time=0.0, sample_interval=0.1, num_samples=1)


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


class TestSpectrum:
    def test_minimum_bins(self):
        with pytest.raises(InvalidInputError):
            Spectrum(start_freq=0.0, freq_interval=1.0, values=np.ones(1))

    def test_frequencies(self):
        sp = Spectrum(start_freq=-1.0, freq_interval=0.5, values=np.ones(4))
        assert np.allclose(sp.frequencies(), [-1.0, -0.5, 0.0, 0.5])


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


class TestDftSpectrum:
    def test_gaussian_transform_pairs(self):
        """exp(-pi t^2) transforms to exp(-pi f^2); check on a few bins."""
        sp = dft_spectrum(gaussian_signal(), zero_pad_factor=2)
        f = sp.frequencies()
        for target in (0.0, 0.5, 1.0, 2.0):
            k = int(np.argmin(np.abs(f - target)))
            assert abs(sp.values[k]) == pytest.approx(np.exp(-np.pi * f[k] ** 2), abs=1e-9)

    def test_frequency_grid(self):
        sig = gaussian_signal(n=256)
        sp = dft_spectrum(sig, zero_pad_factor=4)
        length = 4 * 256
        assert sp.values.shape[0] == length
        assert sp.freq_interval == pytest.approx(1.0 / (length * sig.grid.sample_interval))
        # fftshifted grid is symmetric about 0 up to one bin
        f = sp.frequencies()
        assert f[0] == pytest.approx(-0.5 / sig.grid.sample_interval)

    def test_time_shift_changes_only_phase(self):
        sig = gaussian_signal(n=1024)
        moved = SampledSignal(
            grid=TimeGrid(start_time=sig.grid.start_time + 3.0,
                          sample_interval=sig.grid.sample_interval,
                          num_samples=sig.grid.num_samples),
            samples=sig.samples,
        )
        a = dft_spectrum(sig, zero_pad_factor=2)
        b = dft_spectrum(moved, zero_pad_factor=2)
        assert np.allclose(np.abs(a.values), np.abs(b.values), atol=1e-12)
        f = a.frequencies()
        k = int(np.argmin(np.abs(f - 0.25)))
        expected = a.values[k] * np.exp(-2j * np.pi * f[k] * 3.0)
        assert b.values[k] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n,zero_pad,bins", [(197, 4, 800), (8641, 4, 34_992)])
    def test_non_smooth_minimum(self, n, zero_pad, bins):
        """The length rounds up to 5-smooth; the tabled phase anchor matches a direct exp."""
        rng = np.random.default_rng(n)
        dt = 0.05
        grid = TimeGrid(start_time=-0.7, sample_interval=dt, num_samples=n)
        sig = SampledSignal(grid=grid, samples=rng.normal(size=n) + 1j * rng.normal(size=n))
        sp = dft_spectrum(sig, zero_pad_factor=zero_pad)
        assert sp.values.shape[0] == bins == fast_length(zero_pad * n)
        assert sp.freq_interval == 1.0 / (bins * dt)
        assert sp.start_freq == -(bins // 2) * sp.freq_interval
        raw = np.fft.fftshift(np.fft.fft(sig.samples, bins))
        t_first = grid.start_time + 0.5 * dt
        direct = raw * dt * np.exp(-2j * np.pi * sp.frequencies() * t_first)
        peak = np.max(np.abs(direct))
        assert np.max(np.abs(sp.values - direct)) <= 1e-13 * peak

    def test_rejects_bad_pad(self):
        with pytest.raises(InvalidInputError):
            dft_spectrum(gaussian_signal(n=64), zero_pad_factor=0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=8, max_value=400),
    zero_pad=st.integers(min_value=1, max_value=6),
)
def test_parseval_any_padding(seed, n, zero_pad):
    """Time-domain and spectral energies agree for any signal and pad factor."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(start_time=float(rng.normal()), sample_interval=float(rng.uniform(0.01, 1.0)),
                    num_samples=n)
    sig = SampledSignal(grid=grid, samples=rng.normal(size=n) + 1j * rng.normal(size=n))
    e = energy(sig)
    se = spectral_energy(dft_spectrum(sig, zero_pad_factor=zero_pad))
    assert se == pytest.approx(e, rel=1e-12)
