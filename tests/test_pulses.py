"""Pulse families: specs, synthesis, and closed-form spectra."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ddopkit import pulses
from ddopkit.pulses import (
    FAMILIES,
    PulseFamily,
    PulseSpec,
    Train,
    _btrrc_profile_at,
    _dirichlet,
    _rrc_profile,
    default_q,
    eval_btrrc_freq,
    pulse_grid,
    synth_pulse,
    train_layout,
    train_parts,
)
from ddopkit.signal_core import (
    DegenerateInputError,
    InvalidInputError,
    TimeGrid,
    energy,
    power_spectrum,
    sum_of_products,
)


def eval_rrc_freq(spec: PulseSpec, f, energy: float = 1.0):
    """Closed-form magnitude spectrum of the untruncated root-raised-cosine pulse.

    Flat at sqrt(T*E/M) up to M(1-beta)/(2T), raised-cosine rolloff to
    M(1+beta)/(2T), zero beyond. Truncation side-lobes are ignored by
    construction. Accepts scalar or array f; returns the same shape.
    """
    f = np.asarray(f, dtype=np.float64)
    af = np.abs(f)
    flat = math.sqrt(spec.T * energy / spec.M)
    f_lo = spec.M * (1.0 - spec.beta) / (2.0 * spec.T)
    f_hi = spec.M * (1.0 + spec.beta) / (2.0 * spec.T)
    out = np.zeros(f.shape, dtype=np.float64)
    out[af <= f_lo] = flat
    if spec.beta > 0.0:
        roll = (af > f_lo) & (af <= f_hi)
        phase = np.pi * spec.T / (spec.beta * spec.M) * (af[roll] - f_lo)
        out[roll] = np.sqrt(spec.T * energy / (2.0 * spec.M) * (1.0 + np.cos(phase)))
    return out if out.ndim else float(out)


def eval_ddop_freq(spec: PulseSpec, f, num_tones: int = 40):
    """Closed-form train spectrum: N * exp(-j pi ((N-1)T + T_a) f) * A(f) * sum_m (...).

    The tone sum runs over m in [-num_tones, num_tones] with terms
    exp(j pi (N-1) m) * sinc(N*T*f - m*N). Accepts scalar or array f.
    """
    f = np.asarray(f, dtype=np.float64)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    m = np.arange(-num_tones, num_tones + 1)
    # (len(f), len(m)) sinc table; exp(j pi (N-1) m) is exactly +-1 by parity.
    args = np.subtract.outer(spec.N * spec.T * f, m * spec.N)
    signs = np.where(((spec.N - 1) * m) % 2 == 0, 1.0, -1.0)
    tone_sum = np.sinc(args) @ signs
    envelope = eval_rrc_freq(spec, f, energy=1.0 / spec.N)
    phase = np.exp(-1j * np.pi * ((spec.N - 1) * spec.T + spec.ta) * f)
    values = spec.N * phase * envelope * tone_sum
    return complex(values[0]) if scalar else values

DEFAULTS = dict(M=256, N=64, T=1.0, beta=0.1, Q=13)

# (M, Q, beta) grids on which the btrrc profile is checked against QUADPACK.
ORACLE_GRIDS = [
    (256, 13, 0.05), (256, 13, 0.5), (256, 13, 1.0),
    (256, 64, 0.05), (256, 64, 0.5), (256, 64, 1.0),
    (256, 256, 0.05), (256, 256, 0.5), (256, 256, 1.0),
    (4, 4, 1.0),
    (64, 2500, 0.05),
]


def end_time(grid):
    return grid.start_time + grid.num_samples * grid.sample_interval


def json_dict(spec):
    """The JSON object from_json_dict reads: every field, the family by its value."""
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)} | {"family": spec.family.value}


class TestDefaultQ:
    @pytest.mark.parametrize("M,expected", [(256, 13), (128, 6), (64, 3), (32, 2),
                                            (16, 1), (8, 1), (4, 1)])
    def test_mapping(self, M, expected):
        assert default_q(M) == expected


class TestPulseSpec:
    def test_defaults(self):
        spec = PulseSpec(M=256, N=64)
        assert spec.T == 1.0 and spec.beta == 0.1 and spec.Q == 13
        assert spec.family is PulseFamily.DDOP

    def test_derived(self):
        spec = PulseSpec(**DEFAULTS)
        assert spec.ta == pytest.approx(2 * 13 / 256)

    @pytest.mark.parametrize("Q,M,D", [(13, 256, 1), (128, 256, 1), (129, 256, 2),
                                       (256, 256, 2), (300, 256, 3)])
    def test_prefix_count(self, Q, M, D):
        spec = PulseSpec(M=M, N=8, Q=Q, family=PulseFamily.GENERAL_DDOP)
        assert spec.D == D == math.ceil(2 * Q / M)

    @pytest.mark.parametrize("kwargs", [
        dict(M=0, N=64), dict(M=256, N=-1), dict(M=256, N=64, T=0.0),
        dict(M=256, N=64, beta=-0.1), dict(M=256, N=64, beta=1.5),
        dict(M=256, N=64, Q=0), dict(M=256, N=64, T=math.inf),
        dict(M=256, N=64, T=math.nan), dict(M=True, N=64), dict(M=256, N=True),
        dict(M=256, N=64, T=True), dict(M=256, N=64, beta=True), dict(M=256, N=64, Q=True),
        dict(M=256, N=64, T="1"), dict(M=256, N=64, beta=None), dict(M=2.5, N=64),
        dict(M=256, N=64, otfs_m=True), dict(M=256, N=64, otfs_n=-1),
        dict(M=256, N=64, T=10**400),  # beyond the float range: math.isfinite would overflow
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InvalidInputError):
            PulseSpec(**kwargs)

    def test_rejects_unknown_subpulse(self):
        for subpulse in ("square", "RRC", None):
            with pytest.raises(InvalidInputError, match="subpulse"):
                PulseSpec(M=256, N=64, subpulse=subpulse)

    def test_plain_train_duration_cap(self):
        # T_a = 2*Q*T/M must stay below T/2 for the non-extended train
        with pytest.raises(InvalidInputError, match="exceeds 0.5"):
            PulseSpec(M=16, N=4, Q=8, family=PulseFamily.DDOP)
        PulseSpec(M=16, N=4, Q=8, family=PulseFamily.GENERAL_DDOP)  # extended variant is fine

    @pytest.mark.parametrize("kwargs", [dict(otfs_m=-1), dict(otfs_m=32), dict(otfs_n=8),
                                        dict(otfs_m=1.5), dict(otfs_m=True), dict(otfs_n=True)])
    def test_rejects_bad_otfs_indices(self, kwargs):
        with pytest.raises(InvalidInputError):
            PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, **kwargs)

    def test_json_round_trip(self):
        spec = PulseSpec(M=32, N=8, beta=0.3, Q=2, family=PulseFamily.OTFS_BASIS,
                         otfs_m=5, otfs_n=2)
        doc = json_dict(spec)
        assert set(doc) == {"M", "N", "T", "beta", "Q", "family", "otfs_m", "otfs_n",
                            "subpulse"}
        assert PulseSpec.from_json_dict(doc) == spec
        train = PulseSpec(M=32, N=8, subpulse="btrrc")
        assert PulseSpec.from_json_dict(json_dict(train)) == train

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(InvalidInputError, match="unknown"):
            PulseSpec.from_json_dict({"M": 32, "N": 8, "bandwidth": 1.0})

    def test_json_missing_fields_use_defaults(self):
        spec = PulseSpec.from_json_dict({"M": 128, "N": 16})
        assert spec.Q == 6 and spec.beta == 0.1
        assert spec.family is PulseFamily.DDOP and spec.subpulse == "rrc"


class TestFamilyTable:
    def test_every_family_has_a_row(self):
        assert set(FAMILIES) == set(PulseFamily)

    @pytest.mark.parametrize("family,expected", [
        (PulseFamily.RRC_SUBPULSE, Train(0, 1, "rrc", 6, 3)),
        (PulseFamily.BTRRC_SUBPULSE, Train(0, 1, "btrrc", 6, 3)),
        (PulseFamily.TDM, Train(3, 1, "rrc", 6, 3)),
        (PulseFamily.DDOP, Train(3, 8, "btrrc", 6, 3)),
        (PulseFamily.GENERAL_DDOP, Train(3, 10, "btrrc", 6, 3)),
        (PulseFamily.FDM, Train(0, 8, "rect", 64, 0)),
        (PulseFamily.OTFS_BASIS, Train(0, 8, "otfs", 64, 0, 2)),
    ])
    def test_layouts(self, family, expected):
        # only the DDOP trains take the shape from the spec, only OTFS_BASIS the tone
        spec = PulseSpec(M=64, N=8, Q=3, family=family, subpulse="btrrc", otfs_n=2)
        assert train_layout(spec) == expected


class TestPulseGrid:
    def test_train_support(self):
        spec = PulseSpec(**DEFAULTS)
        grid = pulse_grid(spec, oversample=16)
        assert grid.start_time == 0.0
        assert end_time(grid) == pytest.approx((spec.N - 1) * spec.T + spec.ta)
        assert grid.num_samples == 16 * ((spec.N - 1) * spec.M + 2 * spec.Q)

    def test_padding(self):
        spec = PulseSpec(M=32, N=4)
        plain = pulse_grid(spec, oversample=8)
        padded = pulse_grid(spec, oversample=8, pad_steps=5)
        step = spec.T / spec.M
        assert padded.start_time == pytest.approx(plain.start_time - 5 * step)
        assert padded.num_samples == plain.num_samples + 2 * 5 * 8

    def test_rejects_bad_oversample(self):
        for oversample in (0, -2, 2.5, "8", None, math.inf):
            with pytest.raises(InvalidInputError, match="oversample must be a positive integer"):
                pulse_grid(PulseSpec(M=32, N=4), oversample=oversample)


class TestRrcSubpulse:
    def test_peak_and_pole_values(self):
        """Peak and removable-singularity values against quadrature references.

        The profile is evaluated at x = 0 and exactly on its pole
        x = 1/(4*beta), where it takes the limit values; scaled by sqrt(M/T)
        they are the unit-energy untruncated pulse at M = 256, beta = 0.1.
        """
        beta, scale = 0.1, math.sqrt(256)
        peak, pole = scale * _rrc_profile(np.array([0.0, 1.0 / (4.0 * beta)]), beta)
        assert peak == pytest.approx(16.43718327, rel=1e-9)
        assert pole == pytest.approx(1.851623903, rel=1e-9)

    def test_zero_isi_at_beta_zero(self):
        """The profile vanishes at nonzero multiples of T/M when beta = 0."""
        x = np.arange(-13, 14, dtype=float)
        values = _rrc_profile(x, 0.0)
        assert values[13] == 1.0
        assert np.max(np.abs(values[x != 0])) < 1e-12

    def test_even_profile(self):
        spec = PulseSpec(**DEFAULTS, family=PulseFamily.RRC_SUBPULSE)
        sig = synth_pulse(spec, oversample=8)
        assert np.max(np.abs(sig.samples - sig.samples[::-1])) < 1e-12


class TestClosedFormSpectra:
    def test_rrc_branches(self):
        spec = PulseSpec(**DEFAULTS)
        flat = math.sqrt(spec.T / spec.M)
        assert eval_rrc_freq(spec, 0.0) == pytest.approx(flat, rel=1e-12)
        f_lo = spec.M * (1 - spec.beta) / (2 * spec.T)
        f_hi = spec.M * (1 + spec.beta) / (2 * spec.T)
        assert eval_rrc_freq(spec, 0.999 * f_lo) == pytest.approx(flat, rel=1e-12)
        # half power exactly at the band midpoint M/(2T)
        mid = eval_rrc_freq(spec, spec.M / (2 * spec.T))
        assert mid**2 == pytest.approx(flat**2 / 2, rel=1e-9)
        assert eval_rrc_freq(spec, f_hi * 1.0001) == 0.0
        f = np.linspace(-200, 200, 401)
        assert np.allclose(eval_rrc_freq(spec, f), eval_rrc_freq(spec, -f))

    def test_btrrc_branches(self):
        spec = PulseSpec(**DEFAULTS, family=PulseFamily.BTRRC_SUBPULSE)
        flat_sq = spec.T / spec.M
        mid = eval_btrrc_freq(spec, spec.M / (2 * spec.T))
        assert mid**2 == pytest.approx(flat_sq / 2, rel=1e-12)
        f_hi = spec.M * (1 + spec.beta) / (2 * spec.T)
        assert eval_btrrc_freq(spec, f_hi + 1e-9) == 0.0
        # both rolloff branches continuous at their edges
        f_lo = spec.M * (1 - spec.beta) / (2 * spec.T)
        assert eval_btrrc_freq(spec, f_lo + 1e-9) == pytest.approx(math.sqrt(flat_sq), rel=1e-6)
        f_mid = spec.M / (2 * spec.T)
        assert eval_btrrc_freq(spec, f_mid - 1e-9) == pytest.approx(
            eval_btrrc_freq(spec, f_mid + 1e-9), rel=1e-6)
        assert eval_btrrc_freq(spec, f_hi - 1e-9) == pytest.approx(0.0, abs=1e-3)

    def test_btrrc_spectral_energy(self):
        """The piecewise spectrum carries exactly the requested energy."""
        spec = PulseSpec(M=256, N=64, beta=0.3, Q=13, family=PulseFamily.BTRRC_SUBPULSE)
        edges = [0.0, 256 * 0.7 / 2, 128.0, 256 * 1.3 / 2]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            f = lo + (np.arange(200_000) + 0.5) * (hi - lo) / 200_000
            total += 2.0 * np.sum(eval_btrrc_freq(spec, f) ** 2) * (hi - lo) / 200_000
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_btrrc_beta_zero_falls_back(self):
        spec = PulseSpec(M=64, N=8, beta=0.0, family=PulseFamily.BTRRC_SUBPULSE)
        f = np.linspace(0, 40, 101)
        assert np.array_equal(eval_btrrc_freq(spec, f), eval_rrc_freq(spec, f))

    def test_btrrc_time_profile_quadrature_values(self):
        """Spot values of the synthesized profile against adaptive quadrature."""
        spec = PulseSpec(M=256, N=64, beta=0.5, Q=13, family=PulseFamily.BTRRC_SUBPULSE)
        taus = np.array([0.0, 0.001, 0.01, 0.03, 0.0507])
        expected = [18.78351176, 15.62335358, -0.8409167163, -0.08997242472, -0.04098150563]
        got = _btrrc_profile_at(spec, taus)
        assert np.allclose(got, expected, rtol=2e-6)

    @pytest.mark.parametrize("M,Q,beta", ORACLE_GRIDS)
    def test_btrrc_time_profile_against_oscillatory_quadrature(self, M, Q, beta):
        """a(t) = 2 * int A(f) cos(2 pi f t) df, each spectral branch integrated by
        QUADPACK's cosine-weighted rule, across [0, T_a/2]. The tolerance is
        relative to the peak a(0): the profile crosses zero inside the span."""
        from scipy.integrate import IntegrationWarning, quad

        spec = PulseSpec(M=M, N=8, beta=beta, Q=Q, family=PulseFamily.BTRRC_SUBPULSE)
        edges = [M * (1 - beta) / 2, M / 2, M * (1 + beta) / 2]
        branches = [(lo, hi) for lo, hi in zip([0.0] + edges, edges) if hi > lo]
        taus = np.linspace(0.0, spec.ta / 2, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            expected = np.array([
                sum(2.0 * quad(lambda f: eval_btrrc_freq(spec, f), lo, hi, weight="cos",
                               wvar=2 * np.pi * tau, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                    for lo, hi in branches)
                for tau in taus])
        got = _btrrc_profile_at(spec, taus)
        assert np.max(np.abs(got - expected)) <= 1e-12 * abs(expected[0])

    @pytest.mark.parametrize("M,Q,beta", ORACLE_GRIDS)
    def test_btrrc_cosine_sum_in_blocks(self, M, Q, beta, monkeypatch):
        """With the block cap at 100 cosines, no block exceeds it (a rule
        longer than the cap takes one offset at a time), every offset is
        summed once, in the one branch with a quadrature, and the profile
        agrees with the unblocked sum."""
        spec = PulseSpec(M=M, N=8, beta=beta, Q=Q, family=PulseFamily.BTRRC_SUBPULSE)
        taus = np.linspace(0.0, spec.ta / 2, 25)
        whole = _btrrc_profile_at(spec, taus)
        shapes = []
        real_cos = np.cos

        def recording_cos(x, *args, **kwargs):
            shapes.append(x.shape)
            return real_cos(x, *args, **kwargs)

        monkeypatch.setattr(pulses, "_COS_BLOCK_ELEMENTS", 100)
        monkeypatch.setattr(np, "cos", recording_cos)
        blocked = _btrrc_profile_at(spec, taus)
        monkeypatch.undo()
        assert sum(rows for rows, _ in shapes) == taus.size
        assert all(rows * nodes <= 100 or rows == 1 for rows, nodes in shapes)
        assert len(shapes) > 1
        assert np.max(np.abs(blocked - whole)) <= 1e-15 * abs(whole[0])

    @pytest.mark.parametrize("spec,oversample", [
        (PulseSpec(M=256, N=8, beta=0.35, subpulse="btrrc"), 16),
        (PulseSpec(M=64, N=8, Q=40, beta=0.5, subpulse="btrrc", family=PulseFamily.GENERAL_DDOP), 8),
        (PulseSpec(M=33, N=7, beta=0.5, subpulse="btrrc"), 5),
        (PulseSpec(M=16, N=1, Q=3, beta=1.0, family=PulseFamily.BTRRC_SUBPULSE), 5),
        (PulseSpec(M=64, N=8, Q=40, T=0.37, beta=0.5, subpulse="btrrc", family=PulseFamily.GENERAL_DDOP), 8),
    ], ids=["ddop-256x8", "gddop", "ddop-33x7", "single", "gddop-T0.37"])
    def test_btrrc_subpulse_mirrored_from_its_half(self, spec, oversample):
        """The sub-pulse is the quadrature on tau >= 0, mirrored: exactly
        symmetric, and the quadrature's own values on the grid mirrored from
        that half. Against the quadrature on the grid's tau, which is
        symmetric only to within delta = max|tau_k + tau_{n-1-k}|, it moves
        by at most 1e-15 of the peak plus slope times delta, the slope of
        a(t) = 2 int A cos(2 pi f t) df being at most 2 pi f_hi a(0)."""
        parts = train_parts(spec, oversample)
        train = train_layout(spec)
        k = np.arange(train.width * oversample)
        tau = parts.grid.start_time + (k + 0.5) * parts.grid.sample_interval - train.first_step * spec.T / spec.M
        half = tau[tau.shape[0] // 2:]
        _, mirrored = pulses._btrrc_subpulse(spec, tau, train.count)
        assert np.array_equal(parts.subpulse, parts.subpulse[::-1])
        assert np.array_equal(parts.subpulse, mirrored * 2.0 ** -math.frexp(np.max(np.abs(mirrored)))[1])
        assert np.array_equal(mirrored, _btrrc_profile_at(spec, np.concatenate((-half[::-1], half))))
        full = _btrrc_profile_at(spec, tau)
        peak = np.max(np.abs(full))
        delta = np.max(np.abs(tau + tau[::-1]))
        f_hi = spec.M * (1.0 + spec.beta) / (2.0 * spec.T)
        assert np.max(np.abs(mirrored - full)) <= peak * (1e-15 + 2.0 * np.pi * f_hi * delta)

    def test_btrrc_subpulse_on_an_odd_grid(self):
        """An odd count of offsets has its centre at tau = 0, taken once."""
        spec = PulseSpec(M=64, N=8, beta=0.5, subpulse="btrrc")
        half = np.linspace(0.0, spec.ta / 2, 13)
        _, profile = pulses._btrrc_subpulse(spec, np.concatenate((-half[:0:-1], half)), 1)
        assert np.array_equal(profile, np.concatenate((_btrrc_profile_at(spec, half)[:0:-1],
                                                       _btrrc_profile_at(spec, half))))

    @pytest.mark.parametrize("cap", [63, 64])
    def test_upper_branch_degree_cap(self, cap, monkeypatch):
        """At M 32, Q 16, beta 0.5 and oversample 4 the sub-pulse's offsets reach
        |tau| = 1/2 - 1/256, and its upper branch (8 wide) needs a degree-64
        rule: above the cap the degree is an input error, raised before the
        rule is built."""
        upper = 32 + math.ceil(8 * 8 * (0.5 - 1 / 256))
        assert upper == 64
        built = []
        real_clenshaw_curtis = pulses._clenshaw_curtis
        monkeypatch.setattr(pulses, "_clenshaw_curtis",
                            lambda degree: built.append(degree) or real_clenshaw_curtis(degree))
        monkeypatch.setattr(pulses, "_MAX_QUADRATURE_DEGREE", cap)
        spec = PulseSpec(M=32, N=8, Q=16, beta=0.5, family=PulseFamily.BTRRC_SUBPULSE)
        if cap < upper:
            with pytest.raises(InvalidInputError, match=rf"^btrrc quadrature needs a degree-{upper} "
                               rf"rule but the cap is {cap}; lower Q$"):
                synth_pulse(spec, oversample=4)
            assert built == []
        else:
            synth_pulse(spec, oversample=4)
            assert built == [upper]


class TestClenshawCurtis:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 64])
    def test_weights_match_the_cosine_sum(self, n):
        """w_k = (c_k/n) (1 - sum_{j=1}^{n/2} b_j cos(2 pi j k/n)/(4j^2 - 1)),
        c_k = 1 at the ends and 2 inside, b_j = 1 at j = n/2 and 2 below."""
        k = np.arange(n + 1)
        j = np.arange(1, n // 2 + 1)
        b = np.where(2 * j == n, 1.0, 2.0)
        c = np.where((k == 0) | (k == n), 1.0, 2.0)
        direct = c / n * (1.0 - np.cos(2.0 * np.pi * np.outer(k, j) / n) @ (b / (4.0 * j * j - 1.0)))
        nodes, weights = pulses._clenshaw_curtis(n)
        assert np.allclose(nodes, np.cos(np.pi * k / n), rtol=0.0, atol=1e-15)
        assert np.allclose(weights, direct, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 64])
    def test_exact_on_polynomials_up_to_its_degree(self, n):
        """int_{-1}^{1} x^p dx = 2/(p + 1) for even p and 0 for odd p, p <= n."""
        nodes, weights = pulses._clenshaw_curtis(n)
        for p in range(n + 1):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            assert abs(weights @ nodes ** p - exact) <= 1e-14


class TestTrains:
    def test_unit_energy_every_family(self):
        cases = [
            PulseSpec(M=64, N=8, family=PulseFamily.RRC_SUBPULSE),
            PulseSpec(M=64, N=8, beta=0.3, family=PulseFamily.BTRRC_SUBPULSE),
            PulseSpec(M=64, N=8, family=PulseFamily.DDOP),
            PulseSpec(M=64, N=8, Q=40, family=PulseFamily.GENERAL_DDOP),
            PulseSpec(M=64, N=8, beta=0.5, family=PulseFamily.DDOP, subpulse="btrrc"),
            PulseSpec(M=64, N=8, beta=0.5, Q=40, family=PulseFamily.GENERAL_DDOP,
                      subpulse="btrrc"),
            PulseSpec(M=64, N=8, family=PulseFamily.TDM),
            PulseSpec(M=64, N=8, family=PulseFamily.FDM),
            PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=2),
        ]
        for spec in cases:
            sig = synth_pulse(spec, oversample=8)
            assert energy(sig) == pytest.approx(1.0, abs=1e-12), spec.family

    @pytest.mark.parametrize("T", [1.0, 1e-310])
    @pytest.mark.parametrize("family", [f for f in PulseFamily if f is not PulseFamily.BTRRC_SUBPULSE])
    def test_parts_scaled_to_a_peak_below_one(self, family, T):
        """The sub-pulse is scaled by a power of two to a peak in [0.5, 1), also
        where a subnormal T sends the rrc amplitude beyond the float range."""
        parts = train_parts(PulseSpec(M=16, N=4, T=T, beta=0.3, family=family), oversample=4)
        assert 0.5 <= np.max(np.abs(parts.subpulse)) < 1.0
        assert np.array_equal(parts.offsets, parts.per_t * np.arange(parts.coefficients.shape[0]))

    def test_zero_energy_is_degenerate(self):
        """Renormalization refuses all-zero samples instead of dividing by zero."""
        grid = TimeGrid(start_time=0.0, sample_interval=0.125, num_samples=8)
        with pytest.raises(DegenerateInputError, match="zero energy"):
            pulses._renormalized(grid, np.zeros(8, dtype=np.complex128))

    @pytest.mark.parametrize("family", list(PulseFamily))
    def test_whole_float_oversample(self, family):
        spec = PulseSpec(M=32, N=4, family=family)
        assert np.array_equal(synth_pulse(spec, oversample=4.0).samples,
                              synth_pulse(spec, oversample=4).samples)

    def test_train_is_deterministic(self):
        spec = PulseSpec(M=64, N=8)
        a = synth_pulse(spec, oversample=8)
        b = synth_pulse(spec, oversample=8)
        assert np.array_equal(a.samples, b.samples)

    def test_subpulse_replicas(self):
        """N identical sub-pulses at spacing T, each holding 1/N of the energy."""
        spec = PulseSpec(M=64, N=8)
        sig = synth_pulse(spec, oversample=16)
        t = sig.grid.times()
        dt = sig.grid.sample_interval
        slices = []
        for n in range(spec.N):
            mask = (t >= n * spec.T) & (t <= n * spec.T + spec.ta)
            piece = sig.samples[mask]
            slices.append(piece)
            assert np.sum(np.abs(piece) ** 2) * dt == pytest.approx(1 / spec.N, rel=1e-9)
        for piece in slices[1:]:
            assert np.allclose(piece, slices[0], atol=1e-9)
        outside = (t % spec.T) > spec.ta
        assert np.max(np.abs(sig.samples[outside])) < 1e-15

    def test_subpulse_evaluated_once_at_any_spacing(self, monkeypatch):
        """At T = 0.37 every sub-pulse slice is the first one, bit for bit, and
        the btrrc quadrature runs once per synthesis."""
        calls = []

        def counting(spec, tau):
            calls.append(tau.shape)
            return _btrrc_profile_at(spec, tau)

        monkeypatch.setattr(pulses, "_btrrc_profile_at", counting)
        spec = PulseSpec(M=64, N=8, T=0.37, beta=0.3, subpulse="btrrc")
        oversample = 8
        sig = synth_pulse(spec, oversample=oversample)
        assert len(calls) == 1
        per_t, width = spec.M * oversample, 2 * spec.Q * oversample
        first = sig.samples[:width]
        gaps = np.ones(sig.samples.shape, dtype=bool)
        for k in range(spec.N):
            assert np.array_equal(sig.samples[k * per_t:k * per_t + width], first), k
            gaps[k * per_t:k * per_t + width] = False
        assert not np.any(sig.samples[gaps])

    def test_extended_train_has_prefix_and_suffix(self):
        # Q=20 keeps T_a below T so the N + 2D slots stay disjoint
        spec = PulseSpec(M=64, N=8, Q=20, family=PulseFamily.GENERAL_DDOP)
        assert spec.D == 1
        sig = synth_pulse(spec, oversample=8)
        assert end_time(sig.grid) == pytest.approx((spec.N + 2 * spec.D - 1) * spec.T + spec.ta)
        t = sig.grid.times()
        dt = sig.grid.sample_interval
        count = spec.N + 2 * spec.D
        for n in range(count):
            mask = np.abs(t - (n * spec.T + spec.ta / 2)) <= spec.ta / 2
            assert np.sum(np.abs(sig.samples[mask]) ** 2) * dt == pytest.approx(
                1 / count, rel=1e-9)

    def test_overlapping_extended_train_still_unit_energy(self):
        # T_a > T: prefix/suffix sub-pulses overlap their neighbours
        spec = PulseSpec(M=64, N=8, Q=40, family=PulseFamily.GENERAL_DDOP)
        assert spec.D == 2
        sig = synth_pulse(spec, oversample=8)
        assert end_time(sig.grid) == pytest.approx((spec.N + 2 * spec.D - 1) * spec.T + spec.ta)
        assert energy(sig) == pytest.approx(1.0, abs=1e-12)

    def test_fdm_rectangle(self):
        spec = PulseSpec(M=64, N=8, family=PulseFamily.FDM)
        sig = synth_pulse(spec, oversample=8)
        inside = np.abs(sig.samples) > 0
        assert np.allclose(np.abs(sig.samples[inside]), 1 / math.sqrt(spec.N * spec.T))

    def test_tdm_single_subpulse(self):
        spec = PulseSpec(M=64, N=8, family=PulseFamily.TDM)
        sig = synth_pulse(spec, oversample=8)
        assert end_time(sig.grid) == pytest.approx(spec.ta)
        assert energy(sig) == pytest.approx(1.0, abs=1e-12)


def _unit_energy(grid, samples):
    raw = float(sum_of_products(samples.conj(), samples).real * grid.sample_interval)
    return samples * math.sqrt(1.0 / raw)


def reference_train(spec: PulseSpec, oversample: int):
    """Each sub-pulse evaluated at its own offsets t - c_k from its centre
    c_k = (first + k*M)*T/M, over the samples within Q*T/M of it."""
    first, count, shape = {
        PulseFamily.RRC_SUBPULSE: (0, 1, "rrc"),
        PulseFamily.BTRRC_SUBPULSE: (0, 1, "btrrc"),
        PulseFamily.TDM: (spec.Q, 1, "rrc"),
        PulseFamily.DDOP: (spec.Q, spec.N, spec.subpulse),
        PulseFamily.GENERAL_DDOP: (spec.Q, spec.N + 2 * spec.D, spec.subpulse),
    }[spec.family]
    grid = pulse_grid(spec, oversample)
    t = grid.times()
    out = np.zeros(t.shape, dtype=np.complex128)
    for k in range(count):
        centre = (first + k * spec.M) * spec.T / spec.M
        near = np.abs(t - centre) < spec.Q * spec.T / spec.M
        tau = t[near] - centre
        if shape == "rrc" or spec.beta == 0.0:
            sub = math.sqrt(spec.M * (1.0 / count) / spec.T) * _rrc_profile(spec.M * tau / spec.T, spec.beta)
        else:
            sub = math.sqrt(1.0 / count) * _btrrc_profile_at(spec, tau)
        out[near] += sub
    return _unit_energy(grid, out)


def reference_fdm(spec: PulseSpec, oversample: int):
    """Unit-energy rectangle (1/sqrt(N*T)) on [0, N*T]."""
    grid = pulse_grid(spec, oversample)
    t = grid.times()
    length = spec.N * spec.T
    samples = np.zeros(t.shape, dtype=np.complex128)
    samples[(t >= 0.0) & (t <= length)] = 1.0 / math.sqrt(length)
    return _unit_energy(grid, samples)


def reference_otfs(spec: PulseSpec, oversample: int):
    """phi(t) = (1/sqrt(N*M)) * sum_l exp(j*2*pi*n*l/N) * b(t - l*T - m*T/M) * g(t - l*T),
    g the unit-energy rectangle of duration T, each window [l*T, (l+1)*T) found
    on the grid and evaluated at its own offsets t - l*T."""
    grid = pulse_grid(spec, oversample)
    t = grid.times()
    out = np.zeros(t.shape, dtype=np.complex128)
    g_amp = 1.0 / math.sqrt(spec.T)
    scale = 1.0 / math.sqrt(spec.N * spec.M)
    delay = spec.otfs_m * spec.T / spec.M
    for l in range(spec.N):
        lo, hi = np.searchsorted(t, [l * spec.T, (l + 1) * spec.T], side="left")
        phase = np.exp(2j * np.pi * spec.otfs_n * l / spec.N)
        out[lo:hi] += scale * phase * g_amp * _dirichlet(spec, t[lo:hi] - l * spec.T - delay)
    return _unit_energy(grid, out)


def reference_pulse(spec: PulseSpec, oversample: int):
    if spec.family is PulseFamily.FDM:
        return reference_fdm(spec, oversample)
    if spec.family is PulseFamily.OTFS_BASIS:
        return reference_otfs(spec, oversample)
    return reference_train(spec, oversample)


_EXACT_CASES = [
    dict(family=PulseFamily.RRC_SUBPULSE, beta=0.3),
    dict(family=PulseFamily.BTRRC_SUBPULSE, beta=0.3),
    dict(family=PulseFamily.BTRRC_SUBPULSE, beta=0.0),
    dict(family=PulseFamily.TDM),
    dict(family=PulseFamily.DDOP, beta=0.5),
    dict(family=PulseFamily.DDOP, beta=0.5, subpulse="btrrc"),
    dict(family=PulseFamily.GENERAL_DDOP, Q=40, beta=0.5),
    dict(family=PulseFamily.GENERAL_DDOP, Q=40, beta=0.5, subpulse="btrrc"),
    dict(family=PulseFamily.FDM),
    dict(family=PulseFamily.OTFS_BASIS, otfs_m=5),
    dict(family=PulseFamily.OTFS_BASIS, otfs_m=0, otfs_n=3),
    dict(family=PulseFamily.OTFS_BASIS, otfs_m=63, otfs_n=7),
]


class TestAgainstReferenceSynthesizers:
    """The one train primitive against a direct evaluation of each family."""

    @pytest.mark.parametrize("kwargs", _EXACT_CASES,
                             ids=lambda kw: "-".join(str(v.value if hasattr(v, "value") else v)
                                                     for v in kw.values()))
    def test_bit_identical_on_power_of_two_grids(self, kwargs):
        # T = 1 and 64*8 samples per T: every sample time and offset is exact
        spec = PulseSpec(M=64, N=8, **kwargs)
        got = synth_pulse(spec, oversample=8).samples
        assert np.array_equal(got, reference_pulse(spec, 8))

    @pytest.mark.parametrize("M,N,T,oversample", [
        (64, 8, 0.37, 8), (64, 8, 1e-3, 8), (33, 7, 1.0, 5), (33, 7, 0.37, 5),
    ])
    @pytest.mark.parametrize("otfs_n", [0, 2])
    def test_otfs_off_exact_grids(self, M, N, T, oversample, otfs_n):
        """Off exact grids the reference's t - l*T rounds differently from the
        first window's offsets; the samples agree to rounding."""
        spec = PulseSpec(M=M, N=N, T=T, family=PulseFamily.OTFS_BASIS, otfs_m=5, otfs_n=otfs_n)
        want = reference_otfs(spec, oversample)
        got = synth_pulse(spec, oversample=oversample).samples
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class TestDirichletKernel:
    def test_singular_points(self):
        spec = PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS)
        tau = np.array([0.0, 1.0, -2.0, 1e-12])
        assert np.allclose(_dirichlet(spec, tau), spec.M)

    def test_unit_magnitude_comb(self):
        # |b(tau)| at tau = k*T/M is M at k=0 mod M and 0 otherwise
        spec = PulseSpec(M=32, N=8, family=PulseFamily.OTFS_BASIS)
        k = np.arange(1, 32)
        vals = _dirichlet(spec, k / 32)
        assert np.max(np.abs(vals)) < 1e-9


class TestTrainSpectrum:
    def test_matches_dft_on_tone_grid(self):
        """Closed-form train spectrum vs DFT magnitudes at integer-tone bins."""
        spec = PulseSpec(**DEFAULTS)
        sig = synth_pulse(spec, oversample=16)
        sp = power_spectrum(sig, zero_pad_factor=4)
        worst = 0.0
        for m0 in range(-120, 121, 8):
            idx = int(round((m0 / spec.T - sp.start_freq) / sp.freq_interval))
            ev = eval_ddop_freq(spec, sp.start_freq + idx * sp.freq_interval, num_tones=160)
            if abs(ev) > 1e-12:
                worst = max(worst, abs(abs(ev) - math.sqrt(sp.values[idx])) / abs(ev))
        assert worst < 1e-2

    def test_scalar_and_array_forms(self):
        spec = PulseSpec(M=64, N=8)
        one = eval_ddop_freq(spec, 1.25)
        arr = eval_ddop_freq(spec, np.array([1.25, 2.5]))
        assert isinstance(one, complex)
        assert one == pytest.approx(arr[0])
