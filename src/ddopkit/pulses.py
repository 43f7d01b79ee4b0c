"""Pulse families as sub-pulse trains, and the exponential-rolloff sub-pulse spectrum.

Families:

* ``RRC_SUBPULSE``: truncated root-raised-cosine sub-pulse on [-T_a/2, T_a/2],
  T_a = 2*Q*T/M.
* ``BTRRC_SUBPULSE``: sub-pulse with exponential spectral rolloff, defined by
  its closed-form spectrum and synthesized from it by the inverse Fourier
  integral: exactly on the flat and exponential branches, by one
  Clenshaw-Curtis sum on the upper branch, whose degree above a fixed cap is
  an input error. The cosine sum runs in bounded blocks of offsets.
* ``DDOP``: train of N sub-pulses at spacing T, sub-pulse energy 1/N.
* ``GENERAL_DDOP``: train extended by D = ceil(2Q/M) prefix and suffix
  sub-pulses, sub-pulse energy 1/(N+2D).
* ``TDM``: a single unit-energy sub-pulse.
* ``FDM``: the unit-energy rectangle of duration N*T, as N constant windows
  of length T.
* ``OTFS_BASIS``: time-frequency multicarrier basis function for delay index
  otfs_m and Doppler index otfs_n, as N windows of one Dirichlet kernel,
  window l turned by exp(2j*pi*otfs_n*l/N).

Every family is a sub-pulse train. ``FAMILIES`` holds one ``Train`` per
family: the first sub-pulse's reference point (in delay steps T/M), the
sub-pulse count, shape and width, the step a sub-pulse is evaluated from
(its centre, or its start for the FDM and OTFS windows) and the tone that
turns sub-pulse k. DDOP and GENERAL_DDOP take the shape from
``PulseSpec.subpulse`` ("rrc" or the exponential-rolloff "btrrc"); the other
families fix it. ``pulse_grid`` and ``synth_pulse`` read this table, and the
closed forms in ``analytic`` read the sub-pulse count and shape from it
through ``train_layout``. Which families have a closed form is listed in
``analytic`` alone, so this module never imports it.

Every pulse is synthesized on its own grid, ``pulse_grid(spec, oversample)``,
renormalized to unit discrete Riemann energy, and deterministic. One
function, ``train_parts``, gives every train's parts as a ``TrainParts``: the
grid, the first sub-pulse evaluated once and scaled by a power of two to a
peak below 1, the per-sub-pulse coefficients and the samples per T.
``synth_pulse`` adds the sub-pulse every T (M*oversample samples) from them;
``metrics.measure_train`` and ``experiments.orthogonality_scan`` read them
without building the train.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .signal_core import (
    DegenerateInputError,
    InvalidInputError,
    SampledSignal,
    TimeGrid,
    non_negative_int,
    positive_int,
    sum_of_products,
)

__all__ = [
    "PulseFamily",
    "PulseSpec",
    "SUBPULSE_SHAPES",
    "Train",
    "FAMILIES",
    "train_layout",
    "default_q",
    "pulse_grid",
    "eval_btrrc_freq",
    "TrainParts",
    "train_parts",
    "synth_pulse",
]


class PulseFamily(enum.Enum):
    RRC_SUBPULSE = "RRC_SUBPULSE"
    BTRRC_SUBPULSE = "BTRRC_SUBPULSE"
    DDOP = "DDOP"
    GENERAL_DDOP = "GENERAL_DDOP"
    TDM = "TDM"
    FDM = "FDM"
    OTFS_BASIS = "OTFS_BASIS"


# Short lowercase aliases accepted on the command line and in config files.
FAMILY_ALIASES = {
    "rrc": PulseFamily.RRC_SUBPULSE,
    "btrrc": PulseFamily.BTRRC_SUBPULSE,
    "ddop": PulseFamily.DDOP,
    "gddop": PulseFamily.GENERAL_DDOP,
    "tdm": PulseFamily.TDM,
    "fdm": PulseFamily.FDM,
    "otfs": PulseFamily.OTFS_BASIS,
}


def parse_family(name: str) -> PulseFamily:
    key = str(name).strip().lower()
    if key in FAMILY_ALIASES:
        return FAMILY_ALIASES[key]
    for fam in PulseFamily:
        if key == fam.value.lower():
            return fam
    raise InvalidInputError(f"unknown pulse family {name!r}")


def default_q(M: int) -> int:
    """Default half-length parameter, about 5% of M, at least 1."""
    return max(1, round(0.05 * M))


SUBPULSE_SHAPES = ("rrc", "btrrc")


@dataclass(frozen=True)
class PulseSpec:
    """Parameter bundle defining one pulse.

    M delay bins, N Doppler bins (sub-pulses), symbol spacing T, roll-off
    beta in [0, 1], half-length Q (sub-pulse duration T_a = 2*Q*T/M), and the
    pulse family. otfs_m / otfs_n select the basis function for OTFS_BASIS.
    subpulse is the sub-pulse shape of the DDOP and GENERAL_DDOP trains: "rrc"
    (root-raised-cosine) or "btrrc" (exponential rolloff).
    """

    M: int
    N: int
    T: float = 1.0
    beta: float = 0.1
    Q: int | None = None
    family: PulseFamily = PulseFamily.DDOP
    otfs_m: int = 0
    otfs_n: int = 0
    subpulse: str = "rrc"

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", positive_int(self.M, "M"))
        object.__setattr__(self, "N", positive_int(self.N, "N"))
        # a comparison, not math.isfinite, so an int beyond the float range is rejected too
        if not (_is_real(self.T) and 0 < self.T <= sys.float_info.max):
            raise InvalidInputError(f"T must be finite and > 0, got {self.T!r}")
        if not (_is_real(self.beta) and 0.0 <= self.beta <= 1.0):
            raise InvalidInputError(f"beta must be in [0, 1], got {self.beta!r}")
        q = default_q(self.M) if self.Q is None else self.Q
        object.__setattr__(self, "Q", positive_int(q, "Q"))
        object.__setattr__(self, "otfs_m", non_negative_int(self.otfs_m, "otfs_m"))
        object.__setattr__(self, "otfs_n", non_negative_int(self.otfs_n, "otfs_n"))
        if not isinstance(self.family, PulseFamily):
            object.__setattr__(self, "family", parse_family(self.family))
        if self.subpulse not in SUBPULSE_SHAPES:
            raise InvalidInputError(f"subpulse must be 'rrc' or 'btrrc', got {self.subpulse!r}")
        if self.family is PulseFamily.DDOP and self.ta > 0.5 * self.T:
            raise InvalidInputError(
                f"sub-pulse duration T_a = 2*Q*T/M = {self.ta:g} exceeds 0.5*T = {0.5 * self.T:g}; "
                f"the plain pulse train requires T_a <= 0.5*T (got Q={self.Q}, M={self.M})"
            )
        if self.family is PulseFamily.OTFS_BASIS:
            if self.otfs_m > self.M - 1:
                raise InvalidInputError(f"otfs_m must be in [0, {self.M - 1}], got {self.otfs_m}")
            if self.otfs_n > self.N - 1:
                raise InvalidInputError(f"otfs_n must be in [0, {self.N - 1}], got {self.otfs_n}")

    @property
    def ta(self) -> float:
        """Sub-pulse duration T_a = 2*Q*T/M."""
        return 2.0 * self.Q * self.T / self.M

    @property
    def D(self) -> int:
        """Prefix/suffix sub-pulse count of the extended train, ceil(2Q/M)."""
        return -(-2 * self.Q // self.M)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseSpec":
        """Build from a JSON object; unknown fields are rejected."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown PulseSpec fields: {sorted(unknown)}")
        return cls(**data)


def _is_real(value) -> bool:
    """A real number that is not a bool (JSON true would otherwise read as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _rrc_profile(x: np.ndarray, beta: float) -> np.ndarray:
    """Root-raised-cosine time profile in units x = M*t/T; amplitude scale excluded.

    Removable singularities at x = 0 and |x| = 1/(4*beta) are evaluated by
    their limits so aligned grids are safe.
    """
    x = np.asarray(x, dtype=np.float64)
    if beta == 0.0:
        return np.sinc(x)
    out = np.empty_like(x)
    at_zero = np.abs(x) < 1e-9
    at_pole = np.abs(np.abs(4.0 * beta * x) - 1.0) < 1e-9
    regular = ~(at_zero | at_pole)
    xr = x[regular]
    num = np.sin(np.pi * xr * (1.0 - beta)) + 4.0 * beta * xr * np.cos(np.pi * xr * (1.0 + beta))
    den = np.pi * xr * (1.0 - (4.0 * beta * xr) ** 2)
    out[regular] = num / den
    out[at_zero] = 1.0 - beta + 4.0 * beta / np.pi
    if np.any(at_pole):  # a subnormal beta puts the pole beyond the float range
        out[at_pole] = (beta / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
        )
    return out


def _renormalized(grid: TimeGrid, samples: np.ndarray) -> SampledSignal:
    raw = float(sum_of_products(samples.conj(), samples).real * grid.sample_interval)
    if not 0.0 < raw < math.inf:
        raise DegenerateInputError(
            "pulse has zero energy on its grid" if raw == 0.0 else
            f"the pulse energy ({raw:g}) is not a positive number in the float range "
            f"(0, {sys.float_info.max:g}]; rescale T towards 1")
    return SampledSignal(grid=grid, samples=samples * math.sqrt(1.0 / raw))


def eval_btrrc_freq(spec: PulseSpec, f):
    """Closed-form magnitude spectrum of the unit-energy exponential-rolloff sub-pulse.

    Flat at sqrt(T/M) up to M(1-beta)/(2T), decaying exponential branch to
    M/(2T) (half power exactly at M/(2T)), complementary branch to
    M(1+beta)/(2T), zero beyond. At beta = 0 both rolloff branches are empty:
    flat up to M/(2T), zero beyond.
    """
    f = np.asarray(f, dtype=np.float64)
    af = np.abs(f)
    flat_sq = spec.T / spec.M
    f_lo = spec.M * (1.0 - spec.beta) / (2.0 * spec.T)
    f_mid = spec.M / (2.0 * spec.T)
    f_hi = spec.M * (1.0 + spec.beta) / (2.0 * spec.T)
    rate = 2.0 * math.log(2.0) * spec.T / (spec.beta * spec.M) if spec.beta > 0.0 else 0.0
    out = np.zeros(f.shape, dtype=np.float64)
    out[af <= f_lo] = math.sqrt(flat_sq)
    lower = (af > f_lo) & (af <= f_mid)
    out[lower] = np.sqrt(flat_sq * np.exp(-rate * (af[lower] - f_lo)))
    upper = (af > f_mid) & (af <= f_hi)
    out[upper] = np.sqrt(flat_sq * (1.0 - np.exp(-rate * (f_hi - af[upper]))))
    return out if out.ndim else float(out)


# Cap on the elements of one cos(2 pi tau f) block of the btrrc quadrature
# (8 MiB of doubles); longer offset vectors are summed in row blocks.
_COS_BLOCK_ELEMENTS = 1 << 20


# Largest Clenshaw-Curtis degree of the btrrc upper branch: the cosine sum
# costs len(tau) x degree cosines.
_MAX_QUADRATURE_DEGREE = 4096


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights on [-1, 1]: the n + 1 Chebyshev points
    cos(pi k/n), exact on polynomials of degree <= n. The weights are one
    inverse FFT of the Chebyshev moments int T_m = 2/(1 - m^2), m even, and 0,
    m odd (Waldvogel 2006), halved at the two end points."""
    k = np.arange(n + 1)
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - k[::2] ** 2.0)
    weights = 2.0 * np.fft.irfft(moments, 2 * n)[:n + 1]
    weights[[0, n]] *= 0.5
    return np.sin(0.5 * np.pi * (n - 2 * k) / n), weights


def _btrrc_profile_at(spec: PulseSpec, tau: np.ndarray) -> np.ndarray:
    """Time samples of the exponential-rolloff sub-pulse from its real, even
    spectrum A, a(t) = 2 int_0^{f_hi} A(f) cos(2 pi f t) df, branch by branch,
    with a = sqrt(T/M) and D = f_mid - f_lo. The flat branch gives
    2 a f_lo sinc(2 f_lo t). Across the exponential one A = a 2^(-(f - f_lo)/(2D))
    loses exactly half its power, giving 2 a D Re[exp(2j pi f_lo t) expm1(z)/z],
    z = 2j pi t D - ln2/2: beta never divides, so a subnormal beta empties
    this branch and the next rather than making NaN. The upper branch is a
    Clenshaw-Curtis sum over s in [0, 1], f = f_hi - (f_hi - f_mid) s^2, on
    which A = a sqrt(1 - 2^(-s^2)) is smooth; its degree is 32 plus 8 per cycle
    of (f_hi - f_mid) max|t|, at most ``_MAX_QUADRATURE_DEGREE``, and its
    cosines are summed over blocks of t of at most ``_COS_BLOCK_ELEMENTS``.
    """
    amp = math.sqrt(spec.T / spec.M)
    f_lo = spec.M * (1.0 - spec.beta) / (2.0 * spec.T)
    f_mid = spec.M / (2.0 * spec.T)
    f_hi = spec.M * (1.0 + spec.beta) / (2.0 * spec.T)
    if not f_hi < math.inf:  # a subnormal T
        raise InvalidInputError(f"the btrrc band edge M(1+beta)/(2T) at T = {spec.T:g} lies beyond "
                                "the float range; rescale T towards 1")
    lower, upper = f_mid - f_lo, f_hi - f_mid
    z = 2j * np.pi * (lower * tau) - 0.5 * math.log(2.0)
    total = 2.0 * amp * (f_lo * np.sinc(2.0 * (f_lo * tau))
                         + lower * (np.exp(2j * np.pi * (f_lo * tau)) * np.expm1(z) / z).real)
    degree = 32 + math.ceil(8 * upper * float(np.max(np.abs(tau), initial=0.0)))
    if degree > _MAX_QUADRATURE_DEGREE:
        raise InvalidInputError(
            f"btrrc quadrature needs a degree-{degree} rule but the cap is {_MAX_QUADRATURE_DEGREE}; lower Q")
    nodes, weights = _clenshaw_curtis(degree)
    s = 0.5 * (nodes + 1.0)
    fq = f_hi - upper * s * s
    amp_df = amp * upper * s * weights * np.sqrt(-np.expm1(-math.log(2.0) * s * s))  # A * 0.5 * |df/ds|
    rows = max(1, _COS_BLOCK_ELEMENTS // fq.size)
    for start in range(0, tau.size, rows):
        block = slice(start, start + rows)
        total[block] += 2.0 * np.einsum("ij,j->i", np.cos(2.0 * np.pi * np.outer(tau[block], fq)), amp_df)
    return total


def _rrc_subpulse(spec: PulseSpec, tau: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """Root-raised-cosine sub-pulse of energy 1/count: its amplitude and profile at tau."""
    return math.sqrt(spec.M * (1.0 / count) / spec.T), _rrc_profile(spec.M * tau / spec.T, spec.beta)


def _btrrc_subpulse(spec: PulseSpec, tau: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """Exponential-rolloff sub-pulse of energy 1/count; at beta = 0 it is the rrc sub-pulse.

    The profile is even and tau runs symmetrically about the centre, so the
    sub-pulse is evaluated on the half tau >= 0 and mirrored.
    """
    if spec.beta == 0.0:
        return _rrc_subpulse(spec, tau, count)
    half = _btrrc_profile_at(spec, tau[tau.shape[0] // 2:])
    # the inverse transform of the unit-energy spectrum already carries unit energy
    return math.sqrt(1.0 / count), np.concatenate((half[tau.shape[0] % 2:][::-1], half))


def _rect_window(spec: PulseSpec, tau: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """One length-T window of the unit-energy rectangle on [0, count*T]."""
    return 1.0 / math.sqrt(count * spec.T), np.ones(tau.shape)


def _dirichlet(spec: PulseSpec, tau: np.ndarray) -> np.ndarray:
    """b(tau) = exp(j(M-1) pi tau/T) sin(M pi tau/T)/sin(pi tau/T); value M at tau = k*T."""
    ratio = tau / spec.T
    near_int = np.abs(ratio - np.round(ratio)) < 1e-9
    out = np.empty(tau.shape, dtype=np.complex128)
    safe = ~near_int
    rs = ratio[safe]
    out[safe] = np.exp(1j * (spec.M - 1) * np.pi * rs) * np.sin(spec.M * np.pi * rs) / np.sin(np.pi * rs)
    out[near_int] = spec.M
    return out


def _otfs_window(spec: PulseSpec, tau: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """One length-T window of the multicarrier basis function phi_{m,n}:
    (1/sqrt(count*M)) * b(tau - m*T/M) * g(tau), with b the Dirichlet kernel of
    order M and g the unit-energy rectangle of duration T."""
    amp = (1.0 / math.sqrt(count * spec.M)) * (1.0 / math.sqrt(spec.T))
    return amp, _dirichlet(spec, tau - spec.otfs_m * spec.T / spec.M)


# The sub-pulse of each Train shape: (spec, tau, count) -> (amplitude, profile at tau).
_SUBPULSES: dict[str, Callable[[PulseSpec, np.ndarray, int], tuple[float, np.ndarray]]] = {
    "rrc": _rrc_subpulse,
    "btrrc": _btrrc_subpulse,
    "rect": _rect_window,
    "otfs": _otfs_window,
}


class Train(NamedTuple):
    """`count` sub-pulses of one shape, each `width` delay steps (T/M) long, every T.

    Sub-pulse k is evaluated from its reference point, first_step + k*M delay
    steps after t = 0, and starts ref_step steps before it: the rrc and btrrc
    sub-pulses from their centre (ref_step = Q), the FDM and OTFS windows from
    their start (ref_step = 0). A nonzero tone turns sub-pulse k by
    exp(2j*pi*tone*k/count).
    """

    first_step: int
    count: int
    shape: str
    width: int
    ref_step: int
    tone: int = 0


# One row per family: the family's pulse as a sub-pulse train.
FAMILIES: dict[PulseFamily, Callable[[PulseSpec], Train]] = {
    PulseFamily.RRC_SUBPULSE: lambda s: Train(0, 1, "rrc", 2 * s.Q, s.Q),
    PulseFamily.BTRRC_SUBPULSE: lambda s: Train(0, 1, "btrrc", 2 * s.Q, s.Q),
    PulseFamily.TDM: lambda s: Train(s.Q, 1, "rrc", 2 * s.Q, s.Q),
    PulseFamily.DDOP: lambda s: Train(s.Q, s.N, s.subpulse, 2 * s.Q, s.Q),
    PulseFamily.GENERAL_DDOP: lambda s: Train(s.Q, s.N + 2 * s.D, s.subpulse, 2 * s.Q, s.Q),
    PulseFamily.FDM: lambda s: Train(0, s.N, "rect", s.M, 0),
    PulseFamily.OTFS_BASIS: lambda s: Train(0, s.N, "otfs", s.M, 0, s.otfs_n),
}


def train_layout(spec: PulseSpec) -> Train:
    """The spec's sub-pulse train, from its row of ``FAMILIES``."""
    return FAMILIES[spec.family](spec)


def pulse_grid(spec: PulseSpec, oversample: int = 16, pad_steps: int = 0) -> TimeGrid:
    """Default grid for a family: dt = T/(M*oversample), exactly covering the support.

    The support runs from the first sub-pulse's start to the last one's end.
    pad_steps adds that many delay-resolution steps (T/M) of zeros on both
    sides; shift scans use this so delayed copies stay on the grid.
    """
    oversample = positive_int(oversample, "oversample")
    train = train_layout(spec)
    step = spec.T / spec.M
    return TimeGrid(
        start_time=(train.first_step - train.ref_step - pad_steps) * step,
        sample_interval=step / oversample,
        num_samples=oversample * ((train.count - 1) * spec.M + train.width + 2 * pad_steps),
    )


class TrainParts(NamedTuple):
    """A train on its grid: u_i = scale * sum_k coefficients[k] * subpulse[i - k*per_t].

    subpulse holds the first sub-pulse's samples divided by a power of two,
    so its peak magnitude lies in [0.5, 1) and squaring it neither over- nor
    underflows whatever T is; scale is the sub-pulse amplitude times that
    power of two. Both scalings are exact, so ``signal`` adds the same
    products as a train built from the unscaled samples. Sub-pulse k fills
    samples offsets[k] to offsets[k] + len(subpulse), offsets[k] = k*per_t,
    per_t = M*oversample samples per T.
    """

    grid: TimeGrid
    subpulse: np.ndarray
    scale: float
    coefficients: np.ndarray
    per_t: int

    @property
    def offsets(self) -> np.ndarray:
        """Each sub-pulse's first sample, counted from the grid start."""
        return self.per_t * np.arange(self.coefficients.shape[0])

    def signal(self) -> SampledSignal:
        """The train's samples, renormalized to unit energy."""
        out = np.zeros(self.grid.num_samples, dtype=np.complex128)
        width = self.subpulse.shape[0]
        for offset, coefficient in zip(self.offsets, self.coefficients):
            out[offset:offset + width] += self.scale * coefficient * self.subpulse
        return _renormalized(self.grid, out)


def train_parts(spec: PulseSpec, oversample: int = 16) -> TrainParts:
    """The train's parts on ``pulse_grid(spec, oversample)``.

    The first sub-pulse is evaluated once, at its width*oversample sample
    offsets from its reference point first_step*T/M; a coefficient is 1, or
    exp(2j*pi*tone*k/count) for a toned train.
    """
    oversample = positive_int(oversample, "oversample")
    grid = pulse_grid(spec, oversample)
    train = train_layout(spec)
    k = np.arange(train.width * oversample)
    tau = grid.start_time + (k + 0.5) * grid.sample_interval - train.first_step * spec.T / spec.M
    amp, profile = _SUBPULSES[train.shape](spec, tau, train.count)
    peak = float(np.max(np.abs(profile), initial=0.0))
    power = math.frexp(peak)[1] if 0.0 < peak < math.inf else 0
    if train.tone:
        coefficients = np.exp(2j * np.pi * train.tone * np.arange(train.count) / train.count)
    else:
        coefficients = np.ones(train.count)
    return TrainParts(grid, profile * math.ldexp(1.0, -power), amp * math.ldexp(1.0, power),
                      coefficients, spec.M * oversample)


def synth_pulse(spec: PulseSpec, oversample: int = 16) -> SampledSignal:
    """Synthesize any family on its own grid, ``pulse_grid(spec, oversample)``: the
    train's sub-pulses added every T, renormalized to unit energy."""
    return train_parts(spec, oversample).signal()
