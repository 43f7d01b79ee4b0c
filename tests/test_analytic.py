"""Closed-form localization benchmarks."""

import math
from dataclasses import replace

import pytest

from ddopkit.analytic import EXP_ROLLOFF_COEFF, RRC_ROLLOFF_COEFF, analytic_for, gabor_limit, has_closed_form
from ddopkit.metrics import AnalysisBand, Provenance
from ddopkit.pulses import PulseFamily, PulseSpec
from ddopkit.signal_core import InvalidInputError

DEFAULT = PulseSpec(M=256, N=64, T=1.0, beta=0.1, Q=13)


class TestCoefficients:
    def test_rrc_rolloff_coefficient(self):
        assert RRC_ROLLOFF_COEFF == pytest.approx(0.0473576327153, rel=1e-11)
        assert RRC_ROLLOFF_COEFF == (math.pi**2 - 8) / (4 * math.pi**2)

    def test_exp_rolloff_coefficient(self):
        assert EXP_ROLLOFF_COEFF == pytest.approx(0.0979894496138, rel=1e-11)
        assert EXP_ROLLOFF_COEFF == (math.log(2) - 1) ** 2 / (2 * math.log(2) ** 2)

    def test_exp_exceeds_rrc(self):
        # the exponential rolloff spectrum is wider for every beta > 0
        assert EXP_ROLLOFF_COEFF > RRC_ROLLOFF_COEFF


class TestTrainClosedForms:
    def test_default_values(self):
        m = analytic_for(DEFAULT)
        assert m.time_dispersion == pytest.approx(18.47520861, rel=1e-9)
        assert m.freq_dispersion == pytest.approx(74.11052308, rel=1e-9)
        assert m.tf_area == pytest.approx(1369.207374, rel=1e-9)
        assert m.direction == pytest.approx(0.2492926489, rel=1e-9)
        assert m.mean_time == pytest.approx(31.55078125, rel=1e-12)
        assert m.mean_freq == 0.0
        assert m.provenance is Provenance.ANALYTIC
        assert not m.time_dispersion_is_bound

    def test_time_dispersion_is_beta_free(self):
        values = {analytic_for(PulseSpec(M=256, N=64, beta=b)).time_dispersion
                  for b in (0.0, 0.3, 0.7, 1.0)}
        assert len(values) == 1

    def test_freq_dispersion_grows_with_beta(self):
        disp = [analytic_for(PulseSpec(M=256, N=64, beta=b)).freq_dispersion
                for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert disp == sorted(disp)
        assert disp[0] == pytest.approx(256 / math.sqrt(12), rel=1e-12)

    def test_scaling_in_m_n_t(self):
        base = analytic_for(PulseSpec(M=128, N=16, T=2.0, Q=6))
        assert base.time_dispersion == pytest.approx(16 * 2.0 / math.sqrt(12), rel=1e-12)
        assert base.freq_dispersion == pytest.approx(
            (128 / 2.0) * math.sqrt(1 / 12 + RRC_ROLLOFF_COEFF * 0.01), rel=1e-12)


class TestExpRolloffTrain:
    @pytest.mark.parametrize("beta,expected_df", [
        (0.2, 75.6188256728), (0.5, 84.0642163813), (1.0, 109.0099532301)])
    def test_frozen_values(self, beta, expected_df):
        m = analytic_for(PulseSpec(M=256, N=64, beta=beta, Q=13, subpulse="btrrc"))
        assert m.freq_dispersion == pytest.approx(expected_df, rel=1e-9)
        assert m.time_dispersion == pytest.approx(18.4752086141, rel=1e-9)

    def test_exceeds_rrc_train_for_positive_beta(self):
        for beta in (0.1, 0.5, 1.0):
            spec = PulseSpec(M=256, N=64, beta=beta)
            assert (analytic_for(replace(spec, subpulse="btrrc")).freq_dispersion
                    > analytic_for(spec).freq_dispersion)

    def test_equal_at_beta_zero(self):
        spec = PulseSpec(M=256, N=64, beta=0.0)
        assert (analytic_for(replace(spec, subpulse="btrrc")).freq_dispersion
                == analytic_for(spec).freq_dispersion)


class TestSinglePulseClosedForms:
    def test_tdm_bound(self):
        spec = PulseSpec(M=256, N=64, family=PulseFamily.TDM)
        m = analytic_for(spec)
        assert m.time_dispersion_is_bound
        assert m.time_dispersion == pytest.approx(math.sqrt(13) / (256 * math.pi), rel=1e-12)
        assert m.freq_dispersion == analytic_for(DEFAULT).freq_dispersion
        assert m.mean_time == pytest.approx(spec.ta / 2)

    def test_centered_subpulse_mean(self):
        spec = PulseSpec(M=256, N=64, family=PulseFamily.RRC_SUBPULSE)
        assert analytic_for(spec).mean_time == 0.0

    def test_fdm(self):
        spec = PulseSpec(M=256, N=64, family=PulseFamily.FDM)
        m = analytic_for(spec)  # K_cutoff = 5M/T * NT = 81920 half-lobes in the default band
        assert m.time_dispersion == pytest.approx(64 / math.sqrt(12), rel=1e-12)
        assert m.freq_dispersion == pytest.approx(
            math.sqrt(81920) / (64 * math.pi), rel=1e-12)
        assert m.mean_time == pytest.approx(32.0)


class TestExtendedTrain:
    def test_step_at_half_m(self):
        """Crossing Q = M/2 adds one prefix and one suffix sub-pulse."""
        before = analytic_for(
            PulseSpec(M=64, N=16, Q=32, family=PulseFamily.GENERAL_DDOP))
        after = analytic_for(
            PulseSpec(M=64, N=16, Q=33, family=PulseFamily.GENERAL_DDOP))
        assert before.time_dispersion == pytest.approx(18 / math.sqrt(12), rel=1e-12)
        assert after.time_dispersion == pytest.approx(20 / math.sqrt(12), rel=1e-12)
        assert after.freq_dispersion == before.freq_dispersion

    def test_mean_time_counts_prefix(self):
        spec = PulseSpec(M=64, N=16, Q=40, family=PulseFamily.GENERAL_DDOP)
        m = analytic_for(spec)
        n_eff = spec.N + 2 * spec.D
        assert m.mean_time == pytest.approx((spec.T * (n_eff - 1) + spec.ta) / 2)


class TestMulticarrierBasis:
    def test_dispersions(self):
        spec = PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=3)
        m = analytic_for(spec)
        assert m.time_dispersion == pytest.approx(8 / math.sqrt(12), rel=1e-12)
        assert m.freq_dispersion == pytest.approx(32 / math.sqrt(12), rel=1e-12)

    def test_means_track_indices(self):
        a = analytic_for(PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS,
                                   otfs_m=4, otfs_n=0))
        b = analytic_for(PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS,
                                   otfs_m=8, otfs_n=2))
        assert b.mean_time - a.mean_time == pytest.approx(4 / 32)
        assert b.mean_freq - a.mean_freq == pytest.approx(2 / 8)
        assert a.mean_freq == pytest.approx((32 - 1) / 2)


class TestDispatch:
    def test_gabor_limit(self):
        assert gabor_limit() == pytest.approx(1 / (4 * math.pi), rel=1e-15)

    def test_train_subpulse_choice(self):
        """The spec's sub-pulse shape picks the rolloff coefficient of Delta F."""
        for shape, coeff in (("rrc", RRC_ROLLOFF_COEFF), ("btrrc", EXP_ROLLOFF_COEFF)):
            m = analytic_for(replace(DEFAULT, subpulse=shape))
            assert m.freq_dispersion == pytest.approx(
                256 * math.sqrt(1 / 12 + coeff * 0.1**2), rel=1e-12)
            assert m.time_dispersion == pytest.approx(64 / math.sqrt(12), rel=1e-12)
        # the extended train built from exponential-rolloff sub-pulses
        spec = PulseSpec(M=64, N=8, Q=40, beta=0.8, family=PulseFamily.GENERAL_DDOP,
                         subpulse="btrrc")
        m = analytic_for(spec)
        assert m.freq_dispersion == pytest.approx(
            64 * math.sqrt(1 / 12 + EXP_ROLLOFF_COEFF * 0.8**2), rel=1e-12)
        assert m.time_dispersion == pytest.approx(12 / math.sqrt(12), rel=1e-12)

    def test_fdm_requires_config(self):
        """FDM's K_cutoff comes from the measurement's band and oversample."""
        spec = PulseSpec(M=64, N=8, family=PulseFamily.FDM)
        # default band +-5M/T = 320 Hz, below the Nyquist 512 Hz at oversample 16:
        # K = 320 * NT = 2560; Delta F = sqrt(K) / (NT pi)
        assert analytic_for(spec).freq_dispersion == pytest.approx(
            math.sqrt(2560) / (8 * math.pi), rel=1e-15)
        # 12.5 Hz at oversample 4 (Nyquist 128 Hz): K = 12.5 * 8 = 100
        band = AnalysisBand(half_width=12.5)
        assert analytic_for(spec, band, oversample=4).freq_dispersion == pytest.approx(
            10 / (8 * math.pi), rel=1e-15)

    def test_every_family_but_btrrc_has_a_closed_form(self):
        for family in PulseFamily:
            spec = PulseSpec(M=64, N=8, Q=2, family=family, otfs_m=5)
            assert has_closed_form(family) is (family is not PulseFamily.BTRRC_SUBPULSE)
            if family is PulseFamily.BTRRC_SUBPULSE:
                with pytest.raises(InvalidInputError, match="no closed-form"):
                    analytic_for(spec)
            else:
                assert analytic_for(spec).provenance is Provenance.ANALYTIC

    def test_centered_subpulse_uses_single_pulse_forms(self):
        spec = PulseSpec(M=64, N=8, family=PulseFamily.RRC_SUBPULSE)
        m = analytic_for(spec)
        assert m.time_dispersion_is_bound and m.mean_time == 0.0
        assert m.time_dispersion == pytest.approx(math.sqrt(3) / (64 * math.pi), rel=1e-12)
        assert m.freq_dispersion == analytic_for(replace(spec, family=PulseFamily.TDM)).freq_dispersion
