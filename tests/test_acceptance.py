"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) and then asserts. Two gates are expected to fail and do so honestly:
the approximation-error study (criterion 2) and the ΔT half of the
multicarrier-basis check (criterion 8); the measured numbers are printed so
the failure modes stay visible. See the repository notes for the analysis.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ddopkit.analytic import analytic_for, gabor_limit
from ddopkit.experiments import (
    SweepPlan,
    SweptParameter,
    compare_families,
    default_mn_values,
    orthogonality_scan,
    run_sweep,
)
from ddopkit.metrics import AnalysisBand, lemma1_check, measure_all
from ddopkit.pulses import PulseFamily, PulseSpec, synth_pulse
from ddopkit.signal_core import (
    SampledSignal,
    TimeGrid,
    energy,
    power_spectrum,
    spectral_energy,
)

DEFAULT = PulseSpec(M=256, N=64, T=1.0, beta=0.1, Q=13)
BETAS = tuple(i / 10 for i in range(11))


def report(capsys, number, ok, detail):
    line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line)
    return line


def test_criterion_1_closed_form_reproduction(capsys):
    """Train metrics match the closed forms across the (M, N, beta) grid."""
    t0 = time.monotonic()
    worst = {"dT": 0.0, "dF": 0.0, "dA": 0.0, "k": 0.0}
    for M in (128, 256):
        for N in (32, 64):
            plan = SweepPlan(family=PulseFamily.DDOP,
                             swept_parameter=SweptParameter.BETA, values=BETAS,
                             fixed=PulseSpec(M=M, N=N, Q=13))
            rep = run_sweep(plan)
            assert all(r.status == "ok" for r in rep.rows)
            for key in worst:
                worst[key] = max(worst[key], rep.max_percent_diff(key))
    elapsed = time.monotonic() - t0
    ok = (worst["dT"] <= 0.05 and worst["dF"] <= 1.0 and worst["dA"] <= 1.0
          and worst["k"] <= 1.0 and elapsed < 120)
    line = report(capsys, 1, ok,
                  f"max ΔT {worst['dT']:.4g}% (gate 0.05), ΔF {worst['dF']:.4g}%, "
                  f"ΔA {worst['dA']:.4g}%, κ {worst['k']:.4g}% (gates 1), "
                  f"44 points in {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_approximation_error_study(capsys):
    """ΔA closed-form error across the (M, N) grid at beta = 0.1.

    The closed forms replace the train's comb spectrum by a continuous
    envelope; at small M that replacement overestimates ΔF (and the short
    sub-pulse truncation adds more), so the strict gates are not met. The
    failure is reported with the measured numbers rather than hidden.
    """
    t0 = time.monotonic()
    plan = SweepPlan(family=PulseFamily.DDOP,
                     swept_parameter=SweptParameter.M_N_PAIR,
                     values=tuple(default_mn_values()),
                     fixed=PulseSpec(M=256, N=64, beta=0.1))
    rep = run_sweep(plan)
    assert all(r.status == "ok" for r in rep.rows)
    elapsed = time.monotonic() - t0
    errors = {}
    for row in rep.rows:
        m_str, n_str = row.parameter.split("x")
        errors[(int(m_str), int(n_str))] = row.percent_diff["dA"]
    large = {pair: e for pair, e in errors.items() if pair[0] >= 64 and pair[1] >= 16}
    worst_pair = max(large, key=large.get)
    ok_large = large[worst_pair] < 1.0
    ok_small = errors[(4, 4)] <= 7.0
    ok = ok_large and ok_small and elapsed < 300
    line = report(capsys, 2, ok,
                  f"max ΔA error {large[worst_pair]:.4g}% at "
                  f"{worst_pair[0]}x{worst_pair[1]} (gate < 1% for M>=64, N>=16); "
                  f"{errors[(4, 4)]:.4g}% at 4x4 (gate <= 7%); {elapsed:.1f}s")
    assert ok, line


def test_criterion_3_family_orderings(capsys):
    """Localization orderings between the train and the single-pulse families."""
    specs = [PulseSpec(M=256, N=64, family=f)
             for f in (PulseFamily.DDOP, PulseFamily.TDM, PulseFamily.FDM)]
    rep = compare_families(specs)
    assert all(r.status == "ok" for r in rep.rows)
    ddop, tdm, fdm = (r.numeric for r in rep.rows)
    dt_vs_fdm = 100 * abs(ddop.time_dispersion - fdm.time_dispersion) / fdm.time_dispersion
    df_vs_tdm = 100 * abs(ddop.freq_dispersion - tdm.freq_dispersion) / tdm.freq_dispersion
    ok = (ddop.tf_area > tdm.tf_area and ddop.tf_area > fdm.tf_area
          and dt_vs_fdm <= 0.5 and df_vs_tdm <= 1.0
          and tdm.direction < ddop.direction < fdm.direction)
    line = report(capsys, 3, ok,
                  f"ΔA {ddop.tf_area:.4g} > {tdm.tf_area:.4g} (single sub-pulse) and "
                  f"> {fdm.tf_area:.4g} (rectangle); ΔT within {dt_vs_fdm:.4g}% of the "
                  f"rectangle (gate 0.5%); ΔF within {df_vs_tdm:.4g}% of the sub-pulse "
                  f"(gate 1%); κ {tdm.direction:.3g} < {ddop.direction:.3g} < "
                  f"{fdm.direction:.3g}")
    assert ok, line


def test_criterion_4_extended_train_step(capsys):
    """Crossing Q = M/2 adds a prefix/suffix pair: ΔT jumps, ΔF stays put."""
    measured = {}
    for q in (32, 34):
        spec = PulseSpec(M=64, N=16, Q=q, family=PulseFamily.GENERAL_DDOP)
        m = measure_all(synth_pulse(spec), AnalysisBand.default_for(spec))
        measured[q] = m
    jump = measured[34].time_dispersion - measured[32].time_dispersion
    expected_jump = (20 - 18) / math.sqrt(12)  # (N+4)T/sqrt(12) - (N+2)T/sqrt(12)
    jump_err = 100 * abs(jump - expected_jump) / expected_jump
    df_change = 100 * abs(measured[34].freq_dispersion - measured[32].freq_dispersion) \
        / measured[32].freq_dispersion
    ok = jump_err <= 0.5 and df_change < 0.5
    line = report(capsys, 4, ok,
                  f"ΔT step {jump:.6g} vs analytic {expected_jump:.6g} "
                  f"({jump_err:.4g}% off, gate 0.5%); ΔF change {df_change:.4g}% "
                  f"(gate 0.5%)")
    assert ok, line


def test_criterion_5_exponential_rolloff_comparison(capsys):
    """The exponential-rolloff train disperses more, and both match closed forms."""
    worst = {"rrc": 0.0, "btrrc": 0.0}
    ordering = True
    for beta in (0.2, 0.5, 1.0):
        spec = PulseSpec(M=256, N=64, beta=beta, Q=13)
        band = AnalysisBand.default_for(spec)
        num = {s: measure_all(synth_pulse(replace(spec, subpulse=s)), band)
               for s in ("rrc", "btrrc")}
        ana = {s: analytic_for(replace(spec, subpulse=s)) for s in ("rrc", "btrrc")}
        ordering &= num["btrrc"].freq_dispersion > num["rrc"].freq_dispersion
        for s in worst:
            dev = 100 * abs(num[s].freq_dispersion - ana[s].freq_dispersion) \
                / ana[s].freq_dispersion
            worst[s] = max(worst[s], dev)
    ok = ordering and worst["rrc"] <= 1.5 and worst["btrrc"] <= 1.5
    line = report(capsys, 5, ok,
                  f"exponential-rolloff ΔF exceeds the raised-cosine one at every beta: "
                  f"{ordering}; worst closed-form deviations {worst['rrc']:.4g}% / "
                  f"{worst['btrrc']:.4g}% (gate 1.5%)")
    assert ok, line


def test_criterion_6_property_suite(capsys):
    checks = []

    # Gabor floor on every family
    family_specs = [
        DEFAULT,
        PulseSpec(M=256, N=64, family=PulseFamily.RRC_SUBPULSE),
        PulseSpec(M=256, N=64, beta=0.3, family=PulseFamily.BTRRC_SUBPULSE),
        PulseSpec(M=64, N=16, Q=40, family=PulseFamily.GENERAL_DDOP),
        PulseSpec(M=256, N=64, family=PulseFamily.TDM),
        PulseSpec(M=256, N=64, family=PulseFamily.FDM),
        PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2),
    ]
    floor = gabor_limit() - 1e-6
    for spec in family_specs:
        sig = synth_pulse(spec)
        m = measure_all(sig, AnalysisBand.default_for(spec))
        checks.append((f"uncertainty floor {spec.family.value}", m.tf_area >= floor))

    # Parseval on the default train
    sig = synth_pulse(DEFAULT)
    e = energy(sig)
    se = spectral_energy(power_spectrum(sig, zero_pad_factor=4))
    checks.append(("Parseval", abs(se - e) / e <= 1e-9))

    # Gaussian attains the floor
    grid = TimeGrid(start_time=-8.0, sample_interval=16.0 / 16384, num_samples=16384)
    t = grid.times()
    gauss = SampledSignal(grid=grid, samples=np.exp(-np.pi * t * t))
    m = measure_all(gauss, AnalysisBand(half_width=20.0), zero_pad=2)
    checks.append(("Gaussian floor", abs(m.tf_area - gabor_limit()) <= 1e-4))

    # moment-shift identity
    lhs, rhs, err = lemma1_check(lambda r: np.exp(-np.pi * r * r), 1.5, 0.5)
    checks.append(("shift identity Gaussian", err / abs(rhs) <= 1e-8))
    lhs, rhs, err = lemma1_check(
        lambda r: np.where(np.abs(r) <= 0.5, 1.0, 0.0), 2.0, 1.0)
    checks.append(("shift identity rectangle", err / abs(rhs) <= 1e-6))

    # shift / modulation covariance and scale invariance
    def gauss_sig(shift=0.0, mod=0.0, scale=1.0):
        s = scale * np.exp(-np.pi * (t - shift) ** 2) * np.exp(2j * np.pi * mod * t)
        return SampledSignal(grid=grid, samples=s)

    band = AnalysisBand(half_width=20.0)
    base = measure_all(gauss_sig(), band, zero_pad=2)
    moved = measure_all(gauss_sig(shift=2.0), band, zero_pad=2)
    modded = measure_all(gauss_sig(mod=4.0), band, zero_pad=2)
    scaled = measure_all(gauss_sig(scale=5.0), band, zero_pad=2)
    checks.append(("shift covariance",
                   abs(moved.mean_time - base.mean_time - 2.0) < 1e-9
                   and abs(moved.time_dispersion - base.time_dispersion) < 1e-9
                   and abs(moved.freq_dispersion - base.freq_dispersion) < 1e-9))
    checks.append(("modulation covariance",
                   abs(modded.mean_freq - base.mean_freq - 4.0) < 1e-9
                   and abs(modded.freq_dispersion - base.freq_dispersion) < 1e-9
                   and abs(modded.time_dispersion - base.time_dispersion) < 1e-12))
    checks.append(("scale invariance",
                   abs(scaled.time_dispersion - base.time_dispersion) < 1e-12
                   and abs(scaled.freq_dispersion - base.freq_dispersion) < 1e-12))

    # train ΔT does not move with beta
    dts = []
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = PulseSpec(M=256, N=64, beta=beta, Q=13)
        dts.append(measure_all(synth_pulse(spec),
                               AnalysisBand.default_for(spec)).time_dispersion)
    spread = 100 * (max(dts) - min(dts)) / (sum(dts) / len(dts))
    checks.append(("ΔT roll-off invariance", spread < 0.1))

    failed = [name for name, ok in checks if not ok]
    ok = not failed
    line = report(capsys, 6, ok,
                  f"{len(checks)} property checks"
                  + (f"; failed: {failed}" if failed
                     else f" all hold (ΔT roll-off spread {spread:.3g}%)"))
    assert ok, line


def test_criterion_7_fine_shift_orthogonality(capsys):
    """Correlations under delay-Doppler resolution shifts: one at the origin."""
    scan = orthogonality_scan(DEFAULT, 2 * DEFAULT.Q, DEFAULT.N // 2)
    origin = scan[2 * DEFAULT.Q, DEFAULT.N // 2]
    off = scan.copy()
    off[2 * DEFAULT.Q, DEFAULT.N // 2] = 0.0
    worst = float(off.max())
    ok = abs(origin - 1.0) <= 1e-6 and worst <= 5e-3
    line = report(capsys, 7, ok,
                  f"origin {origin:.9g} (gate 1 ± 1e-6); max off-origin {worst:.6g} "
                  f"(gate 5e-3) over |m̃| <= {2 * DEFAULT.Q}, |ñ| <= {DEFAULT.N // 2}")
    assert ok, line


def test_criterion_8_multicarrier_basis_localization(capsys):
    """Numeric vs closed-form dispersions of the basis functions, interior m.

    ΔF meets its 2% gate everywhere. ΔT does not: the closed form NT/sqrt(12)
    ignores the kernel-peak spread inside each window, which pulls the
    measured ΔT below it by up to ~0.76% at M=32, N=8 - more than the 0.5%
    gate for every interior m except m=1. The gate is asserted as specified
    and fails honestly; the deviation follows the kernel second-moment law to
    the digit, so the synthesis is sound and the gate is what's unattainable.
    """
    M, N = 32, 8
    worst_dt, worst_df, failing = 0.0, 0.0, []
    for m in range(1, M - 1):
        spec = PulseSpec(M=M, N=N, beta=0.1, Q=2, family=PulseFamily.OTFS_BASIS,
                         otfs_m=m, otfs_n=3)
        num = measure_all(synth_pulse(spec, oversample=64),
                          AnalysisBand.default_for(spec))
        ana = analytic_for(spec)
        dt_pct = 100 * abs(num.time_dispersion - ana.time_dispersion) / ana.time_dispersion
        df_pct = 100 * abs(num.freq_dispersion - ana.freq_dispersion) / ana.freq_dispersion
        worst_dt = max(worst_dt, dt_pct)
        worst_df = max(worst_df, df_pct)
        if dt_pct > 0.5 or df_pct > 2.0:
            failing.append(m)
    ok = not failing
    line = report(capsys, 8, ok,
                  f"ΔF within {worst_df:.4g}% (gate 2%) for all interior m; "
                  f"ΔT within {worst_dt:.4g}% (gate 0.5%), exceeded for "
                  f"{len(failing)} of {M - 2} interior indices"
                  + (f" (m = {failing[0]}..{failing[-1]})" if failing else ""))
    assert ok, line
