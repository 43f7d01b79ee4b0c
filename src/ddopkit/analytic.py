"""Closed-form localization metrics for each pulse family.

``analytic_for(spec, band, oversample)`` is the one entry point. It looks the
family up in ``_CLOSED_FORMS``, which maps each family that has a closed form
to one of four forms: the sub-pulse train, the single sub-pulse (whose Delta T
is an upper bound), the FDM rectangle and the OTFS basis function. Only the
FDM form reads the band and oversample.

Only the mean values and the two dispersions are stored; the area and the
direction parameter are recomputed properties of LocalizationMetrics, so the
identities tf_area = Delta T * Delta F and direction = Delta T / Delta F hold
to machine precision by construction.

The sub-pulse trains take their sub-pulse count and shape from the family
table in ``pulses``. Coefficient conventions (beta is the sub-pulse roll-off):

* root-raised-cosine sub-pulses:   Delta F = (M/T) * sqrt(1/12 + c_rrc * beta^2),
  c_rrc = (pi^2 - 8)/(4 pi^2) ~ 0.04736
* exponential-rolloff sub-pulses:  Delta F = (M/T) * sqrt(1/12 + c_exp * beta^2),
  c_exp = (ln(2) - 1)^2 / (2 ln^2(2)) ~ 0.09799; integrating f^2 against the
  piecewise spectrum term by term gives M^2/(12 T^2) + M^2 beta^2 c_exp / T^2
  exactly (the beta and beta^3 terms cancel)
* a train of n sub-pulses:         Delta T = n*T/sqrt(12) (the rectangular
  envelope dominates the sub-pulse spread; exact up to about 1/(2 n^2)
  relative); n = N, or N + 2D for the extended train
"""

from __future__ import annotations

import math

from .metrics import AnalysisBand, LocalizationMetrics, Provenance
from .pulses import PulseFamily, PulseSpec, train_layout
from .signal_core import InvalidInputError

__all__ = [
    "RRC_ROLLOFF_COEFF",
    "EXP_ROLLOFF_COEFF",
    "gabor_limit",
    "has_closed_form",
    "analytic_for",
]

RRC_ROLLOFF_COEFF = (math.pi**2 - 8.0) / (4.0 * math.pi**2)
EXP_ROLLOFF_COEFF = (math.log(2.0) - 1.0) ** 2 / (2.0 * math.log(2.0) ** 2)
_ROLLOFF_COEFF = {"rrc": RRC_ROLLOFF_COEFF, "btrrc": EXP_ROLLOFF_COEFF}


def _analytic(mean_time: float, mean_freq: float, dt: float, df: float, bound: bool = False) -> LocalizationMetrics:
    return LocalizationMetrics(
        mean_time=mean_time,
        mean_freq=mean_freq,
        time_dispersion=dt,
        freq_dispersion=df,
        provenance=Provenance.ANALYTIC,
        time_dispersion_is_bound=bound,
    )


def _train_freq_dispersion(spec: PulseSpec, shape: str) -> float:
    return (spec.M / spec.T) * math.sqrt(1.0 / 12.0 + _ROLLOFF_COEFF[shape] * spec.beta**2)


def _train(spec: PulseSpec, band: AnalysisBand, oversample: int) -> LocalizationMetrics:
    """The train of N (DDOP) or N + 2D (GENERAL_DDOP) sub-pulses every T; Delta F is the sub-pulse's."""
    train = train_layout(spec)
    return _analytic(
        mean_time=(spec.T * (train.count - 1) + spec.ta) / 2.0,
        mean_freq=0.0,
        dt=train.count * spec.T / math.sqrt(12.0),
        df=_train_freq_dispersion(spec, train.shape),
    )


def _single_subpulse(spec: PulseSpec, band: AnalysisBand, oversample: int) -> LocalizationMetrics:
    """The single rrc sub-pulse (TDM, or RRC_SUBPULSE centred at 0); its Delta T is an upper bound."""
    train = train_layout(spec)
    return _analytic(
        mean_time=train.first_step * spec.T / spec.M,
        mean_freq=0.0,
        dt=spec.T * math.sqrt(spec.Q) / (spec.M * math.pi),
        df=_train_freq_dispersion(spec, train.shape),
        bound=True,
    )


def _fdm(spec: PulseSpec, band: AnalysisBand, oversample: int) -> LocalizationMetrics:
    """The duration-N*T rectangle, with K_cutoff sinc half-lobes in band.

    K_cutoff counts the half-lobes the measurement can actually see: the band,
    clipped to the sampled Nyquist range M*oversample/(2T).
    """
    visible = min(band.half_width, 0.5 * spec.M * oversample / spec.T)
    k_cutoff = max(1, math.floor(visible * spec.N * spec.T))
    nt = spec.N * spec.T
    return _analytic(
        mean_time=nt / 2.0,
        mean_freq=0.0,
        dt=nt / math.sqrt(12.0),
        df=math.sqrt(k_cutoff) / (nt * math.pi),
    )


def _otfs(spec: PulseSpec, band: AnalysisBand, oversample: int) -> LocalizationMetrics:
    """The multicarrier basis function.

    Valid for interior delay indices only (1 <= otfs_m <= M-2): the edge
    indices put the kernel peak on a window edge and the out-of-band leakage
    invalidates the closed forms. Callers comparing numeric metrics must
    exclude otfs_m in {0, M-1}.

    Means are support/comb centers: the kernel peaks average to
    (N-1)T/2 + m*T/M in time, and the kernel's tone comb is centered at
    (M-1)/(2T) shifted by the Doppler index n/(N*T).
    """
    return _analytic(
        mean_time=(spec.N - 1) * spec.T / 2.0 + spec.otfs_m * spec.T / spec.M,
        mean_freq=(spec.M - 1) / (2.0 * spec.T) + spec.otfs_n / (spec.N * spec.T),
        dt=spec.N * spec.T / math.sqrt(12.0),
        df=spec.M / (spec.T * math.sqrt(12.0)),
    )


def gabor_limit() -> float:
    """Lower bound on the time-frequency area, 1/(4*pi)."""
    return 1.0 / (4.0 * math.pi)


# The closed form of each family that has one; BTRRC_SUBPULSE has none.
_CLOSED_FORMS = {
    PulseFamily.RRC_SUBPULSE: _single_subpulse,
    PulseFamily.TDM: _single_subpulse,
    PulseFamily.DDOP: _train,
    PulseFamily.GENERAL_DDOP: _train,
    PulseFamily.FDM: _fdm,
    PulseFamily.OTFS_BASIS: _otfs,
}


def has_closed_form(family: PulseFamily) -> bool:
    """Whether analytic_for has a closed-form benchmark for this family."""
    return family in _CLOSED_FORMS


def analytic_for(spec: PulseSpec, band: AnalysisBand | None = None, oversample: int = 16) -> LocalizationMetrics:
    """Closed-form benchmark matching what synth_pulse builds for this spec.

    band (default +-5M/T) and oversample are those of the measurement: FDM's
    Delta F counts the sinc half-lobes it can see.
    """
    form = _CLOSED_FORMS.get(spec.family)
    if form is None:
        raise InvalidInputError(f"no closed-form benchmark for family {spec.family.value}")
    return form(spec, band if band is not None else AnalysisBand.default_for(spec), oversample)
