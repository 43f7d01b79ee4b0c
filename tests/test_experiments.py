"""Sweep harness, family comparison, and the fine-shift scan."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ddopkit.experiments import (
    REPORT_HEADER,
    SweepPlan,
    SweepReport,
    SweepRow,
    SweptParameter,
    compare_families,
    default_mn_values,
    default_q_values,
    measure_point,
    orthogonality_scan,
    run_sweep,
    worker_count,
)
from ddopkit.analytic import analytic_for
from ddopkit.metrics import AnalysisBand, LocalizationMetrics, Provenance
from ddopkit.pulses import PulseFamily, PulseSpec, pulse_grid, synth_pulse
from ddopkit.signal_core import InvalidInputError, energy

SMALL = PulseSpec(M=32, N=8)


class TestWorkerCount:
    def test_explicit(self, monkeypatch):
        monkeypatch.setenv("DDOP_THREADS", "4")
        assert worker_count() == 4

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("DDOP_THREADS", "0")
        assert worker_count() >= 1

    def test_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv("DDOP_THREADS", raising=False)
        assert worker_count() >= 1

    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
    def test_rejects_garbage(self, raw, monkeypatch):
        monkeypatch.setenv("DDOP_THREADS", raw)
        with pytest.raises(InvalidInputError):
            worker_count()


class TestDefaultGrids:
    def test_q_values(self):
        assert default_q_values(256) == [3, 4, 6, 9, 13, 19, 28, 40, 58, 84, 122, 177, 256]
        vals = default_q_values(64)
        assert vals[0] == 1 and vals[-1] == 64
        assert vals == sorted(set(vals))

    def test_q_values_between_bounds(self):
        assert default_q_values(64, lo=2, hi=32, steps=5) == [2, 4, 8, 16, 32]
        assert default_q_values(64, hi=8, steps=4) == [1, 2, 4, 8]
        assert default_q_values(256, lo=3, hi=256, steps=13) == default_q_values(256)

    def test_mn_values(self):
        pairs = default_mn_values()
        assert len(pairs) == 35
        assert (4, 4) in pairs and (256, 64) in pairs


class TestSweepPlan:
    def test_rejects_empty_values(self):
        with pytest.raises(InvalidInputError):
            SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                      values=(), fixed=SMALL)

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidInputError):
            SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                      values=(0.5, 0.2), fixed=SMALL)

    @pytest.mark.parametrize("field,value", [
        ("oversample", 0), ("oversample", 2.5), ("oversample", 1e30), ("zero_pad", 0),
        ("zero_pad", 1.5)])
    def test_rejects_bad_grid_settings(self, field, value):
        # one rule each, shared with pulse_grid and dft_spectrum
        with pytest.raises(InvalidInputError, match=f"{field} must be a positive integer"):
            SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                      values=(0.1,), fixed=SMALL, **{field: value})

    def test_spec_at_beta(self):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.0, 0.4), fixed=SMALL)
        assert plan.spec_at(0.4).beta == 0.4
        assert plan.spec_at(0.4).M == SMALL.M

    def test_spec_at_pair_recomputes_q(self):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.M_N_PAIR,
                         values=((4, 4), (128, 32)), fixed=SMALL)
        spec = plan.spec_at((128, 32))
        assert (spec.M, spec.N, spec.Q) == (128, 32, 6)
        assert plan.label_at((128, 32)) == "128x32"

    def test_family_override(self):
        plan = SweepPlan(family=PulseFamily.TDM, swept_parameter=SweptParameter.BETA,
                         values=(0.1,), fixed=SMALL)
        assert plan.spec_at(0.1).family is PulseFamily.TDM


class TestRunSweep:
    def test_rows_in_plan_order(self):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.0, 0.3, 0.6), fixed=SMALL, oversample=8)
        report = run_sweep(plan)
        assert [r.parameter for r in report.rows] == ["0", "0.3", "0.6"]
        assert all(r.status == "ok" for r in report.rows)
        assert report.max_percent_diff("dT") < 1.0

    def test_failed_point_becomes_row(self):
        # Q=16 gives T_a = T at M=32: illegal for the plain train
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.Q,
                         values=(2, 16), fixed=SMALL, oversample=8)
        report = run_sweep(plan)
        assert report.rows[0].status == "ok"
        assert report.rows[1].status.startswith("failed: sub-pulse duration")
        assert report.rows[1].numeric is None
        # failed rows render as empty metric cells, parameter and status kept
        line = report.to_csv().splitlines()[2]
        assert line.startswith("16,,,") and line.endswith(report.rows[1].status)

    def test_deterministic(self):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.0, 0.5, 1.0), fixed=SMALL, oversample=8)
        assert run_sweep(plan).to_csv() == run_sweep(plan).to_csv()

    def test_single_worker_same_result(self, monkeypatch):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.0, 0.5, 1.0), fixed=SMALL, oversample=8)
        parallel = run_sweep(plan).to_csv()
        monkeypatch.setenv("DDOP_THREADS", "1")
        assert run_sweep(plan).to_csv() == parallel


class TestReportRendering:
    def test_header_text(self):
        assert REPORT_HEADER == ("parameter,ΔT_num,ΔT_ana,ΔT_pct,ΔF_num,ΔF_ana,ΔF_pct,"
                                 "ΔA_num,ΔA_ana,ΔA_pct,κ_num,κ_ana,κ_pct,"
                                 "energy_capture,status")

    def test_csv_shape(self):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.2,), fixed=SMALL, oversample=8)
        text = run_sweep(plan).to_csv()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 15

    def test_bound_renders_as_boolean(self):
        report = compare_families([PulseSpec(M=32, N=8, family=PulseFamily.TDM)],
                                  oversample=8)
        line = report.to_csv().splitlines()[1]
        assert line.split(",")[3] == "True"
        with pytest.raises(InvalidInputError):
            report.max_percent_diff("dT")  # boolean column has no numeric max

    def test_json_round_trip(self):
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.2,), fixed=SMALL, oversample=8)
        doc = json.loads(run_sweep(plan).to_json())
        assert isinstance(doc, list) and len(doc) == 1
        assert set(doc[0]) == set(REPORT_HEADER.split(","))
        assert doc[0]["status"] == "ok"


class TestCompareFamilies:
    def test_one_row_per_family(self):
        specs = [PulseSpec(M=32, N=8, family=f)
                 for f in (PulseFamily.DDOP, PulseFamily.TDM, PulseFamily.FDM)]
        report = compare_families(specs, oversample=8)
        assert [r.parameter for r in report.rows] == ["DDOP", "TDM", "FDM"]
        assert all(r.status == "ok" for r in report.rows)
        ddop, tdm, fdm = (r.numeric for r in report.rows)
        assert ddop.tf_area > tdm.tf_area
        assert ddop.tf_area > fdm.tf_area
        assert tdm.direction < ddop.direction < fdm.direction


class TestFdmBenchmarkConfig:
    def test_counts_in_band_half_lobes(self):
        spec = PulseSpec(M=32, N=8, family=PulseFamily.FDM)
        got = analytic_for(spec, AnalysisBand(half_width=5 * 32), oversample=16)
        assert got.freq_dispersion == math.sqrt(5 * 32 * 8) / (8 * math.pi)

    def test_clips_at_nyquist(self):
        spec = PulseSpec(M=32, N=8, family=PulseFamily.FDM)
        got = analytic_for(spec, AnalysisBand(half_width=1e9), oversample=4)
        assert got.freq_dispersion == math.sqrt(0.5 * 32 * 4 * 8) / (8 * math.pi)


class TestMeasurePoint:
    def test_sweep_and_comparison_rows_agree(self):
        spec = replace(SMALL, beta=0.5, subpulse="btrrc")
        plan = SweepPlan(family=PulseFamily.DDOP, swept_parameter=SweptParameter.BETA,
                         values=(0.5,), fixed=spec, oversample=8)
        swept = run_sweep(plan).rows[0]
        compared = compare_families([spec], oversample=8).rows[0]
        assert (swept.numeric, swept.analytic) == (compared.numeric, compared.analytic)
        assert (swept.numeric, swept.analytic) == measure_point(spec, None, 4, 8)
        assert swept.analytic == analytic_for(spec)

    @pytest.mark.parametrize("spec", [
        PulseSpec(M=32, N=4, beta=0.5, family=PulseFamily.BTRRC_SUBPULSE),
        PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=0),
        PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=31, otfs_n=2),
    ], ids=["btrrc", "otfs-m0", "otfs-m31"])
    def test_no_closed_form_measures_numerically(self, spec):
        numeric, analytic = measure_point(spec, None, 4, 8)
        assert analytic is None and numeric.tf_area > 0
        row = SweepRow(parameter=spec.family.value, numeric=numeric, analytic=analytic)
        assert row.tolerance_failures(0.0) == {}
        cells = SweepReport(rows=(row,)).to_csv().splitlines()[1].split(",")
        assert cells[1] != "" and cells[2:4] == ["", ""] and cells[-1] == "ok"


def _row(numeric, analytic, bound=False):
    """A SweepRow comparing (ΔT, ΔF) pairs."""
    def metrics(dt, df, provenance, is_bound=False):
        return LocalizationMetrics(mean_time=0.0, mean_freq=0.0, time_dispersion=dt,
                                   freq_dispersion=df, provenance=provenance,
                                   time_dispersion_is_bound=is_bound)
    return SweepRow(parameter="p", numeric=metrics(*numeric, Provenance.NUMERIC),
                    analytic=metrics(*analytic, Provenance.ANALYTIC, bound))


class TestToleranceFailures:
    def test_percent_deviations(self):
        row = _row((1.01, 2.0), (1.0, 1.0))
        assert row.tolerance_failures(2.0) == {
            "dF": "dF: 100% > 2%", "dA": "dA: 102% > 2%", "k": "k: 49.5% > 2%"}
        assert list(row.tolerance_failures(0.5)) == ["dT", "dF", "dA", "k"]

    def test_within_tolerance_passes(self):
        assert _row((1.0, 1.0), (1.0, 1.0)).tolerance_failures(0.0) == {}

    def test_bound(self):
        assert "dT" not in _row((0.5, 1.0), (1.0, 1.0), bound=True).tolerance_failures(2.0)
        assert (_row((1.5, 1.0), (1.0, 1.0), bound=True).tolerance_failures(100.0)
                == {"dT": "dT: numeric exceeds the closed-form bound"})

    def test_nan_deviation_fails(self):
        row = _row((1.0, math.nan), (1.0, 1.0))
        assert set(row.tolerance_failures(2.0)) == {"dF", "dA", "k"}

    def test_no_closed_form_is_not_judged(self):
        row = SweepRow(parameter="p", numeric=_row((1.0, 1.0), (1.0, 1.0)).numeric, analytic=None)
        assert row.tolerance_failures(0.0) == {}


class TestOrthogonalityScan:
    def test_origin_and_shape(self):
        scan = orthogonality_scan(SMALL, 2, 3, oversample=8)
        assert scan.shape == (5, 7)
        assert scan[2, 3] == pytest.approx(1.0, abs=1e-9)

    def test_doppler_comb_zeros(self):
        """Off-origin Doppler shifts are exact comb zeros for the train."""
        scan = orthogonality_scan(SMALL, 2, 3, oversample=8)
        doppler_only = np.delete(scan[2, :], 3)
        assert np.max(doppler_only) < 1e-9

    def test_delay_shifts_show_truncation_only(self):
        spec = PulseSpec(M=256, N=8)  # Q=13: mild truncation
        scan = orthogonality_scan(spec, 3, 2, oversample=8)
        off = scan.copy()
        off[3, 2] = 0.0
        assert off.max() < 5e-3

    def test_rectangle_overlap_under_delay(self):
        """The duration-NT rectangle barely decorrelates under T/M shifts."""
        spec = PulseSpec(M=32, N=8, family=PulseFamily.FDM)
        scan = orthogonality_scan(spec, 4, 0, oversample=8)
        for m in (1, 2, 4):
            expected = 1 - m / (spec.N * spec.M)
            assert scan[4 + m, 0] == pytest.approx(expected, abs=1e-9)
            assert scan[4 + m, 0] > 0.8

    def test_uses_the_spec_subpulse_shape(self):
        rrc = PulseSpec(M=64, N=8, beta=0.5)
        a = orthogonality_scan(rrc, 2, 2, oversample=8)
        b = orthogonality_scan(replace(rrc, subpulse="btrrc"), 2, 2, oversample=8)
        assert b[2, 2] == pytest.approx(1.0, abs=1e-9)
        assert not np.allclose(a, b, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("delay,doppler", [(-1, 0), (0, -1), (2.5, 0), (0, 1.5),
                                               (True, 1), (1, False), ("2", 0), (None, 0)])
    def test_rejects_bad_extents(self, delay, doppler):
        with pytest.raises(InvalidInputError, match="must be a non-negative integer"):
            orthogonality_scan(SMALL, delay, doppler)

    @pytest.mark.parametrize("spec,delay,doppler,oversample", [
        (PulseSpec(M=32, N=8, beta=0.3), 3, 4, 8),
        (PulseSpec(M=32, N=8, beta=0.6, subpulse="btrrc"), 3, 4, 8),
        (PulseSpec(M=32, N=8, beta=0.3, family=PulseFamily.TDM), 3, 4, 8),
        (PulseSpec(M=64, N=4, Q=40, beta=0.5, family=PulseFamily.GENERAL_DDOP), 5, 3, 4),
        (PulseSpec(M=16, N=4, family=PulseFamily.FDM), 4, 3, 8),
        (PulseSpec(M=16, N=4, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2), 4, 3, 8),
        (PulseSpec(M=16, N=4, Q=4), 20, 5, 4),
        (PulseSpec(M=32, N=8), 0, 0, 8),
        (PulseSpec(M=16, N=4, Q=2), 2, 9, 4),
    ], ids=["ddop", "ddop-btrrc", "tdm", "gddop-q40", "fdm", "otfs", "shifts-past-T",
            "origin-only", "doppler-past-N"])
    def test_matches_fft_reference(self, spec, delay, doppler, oversample):
        expected = _fft_scan_reference(spec, delay, doppler, oversample)
        got = orthogonality_scan(spec, delay, doppler, oversample=oversample)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-13


def _fft_scan_reference(spec, max_delay_steps, max_doppler_steps, oversample):
    """The scan as one zero-padded FFT per delay row: u times the conjugated
    shifted copy on the padded grid, read at the bins n~/(NT)."""
    grid = pulse_grid(spec, oversample=oversample, pad_steps=max_delay_steps)
    u = synth_pulse(spec, grid=grid, oversample=oversample)
    x = u.samples
    n = grid.num_samples
    dt = grid.sample_interval
    e0 = energy(u)
    # 1/(NT) lands on bin mult of a transform whose length is a multiple of N*M*oversample.
    base = spec.N * spec.M * oversample
    mult = max(1, math.ceil(n / base))
    length = base * mult
    t_first = grid.start_time + 0.5 * dt
    out = np.empty((2 * max_delay_steps + 1, 2 * max_doppler_steps + 1))
    for im, m_shift in enumerate(range(-max_delay_steps, max_delay_steps + 1)):
        k = m_shift * oversample
        shifted = np.zeros_like(x)
        if k >= 0:
            shifted[k:] = x[: n - k] if k else x
        else:
            shifted[: n + k] = x[-k:]
        transform = np.fft.fft(x * np.conj(shifted) * dt, length)
        for jn, n_shift in enumerate(range(-max_doppler_steps, max_doppler_steps + 1)):
            f_dop = n_shift / (spec.N * spec.T)
            val = transform[(n_shift * mult) % length] * np.exp(-2j * np.pi * f_dop * t_first)
            out[im, jn] = abs(val) / e0
    return out
