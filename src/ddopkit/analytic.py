"""Closed-form localization metrics for each pulse family.

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
from dataclasses import dataclass, replace

from .metrics import AnalysisBand, LocalizationMetrics, Provenance
from .pulses import PulseFamily, PulseSpec, train_layout
from .signal_core import InvalidInputError

__all__ = [
    "AnalyticConfig",
    "RRC_ROLLOFF_COEFF",
    "EXP_ROLLOFF_COEFF",
    "ddop_metrics",
    "tdm_metrics",
    "fdm_metrics",
    "general_ddop_metrics",
    "btrrc_ddop_metrics",
    "otfs_metrics",
    "gabor_limit",
    "has_closed_form",
    "analytic_for",
]

RRC_ROLLOFF_COEFF = (math.pi**2 - 8.0) / (4.0 * math.pi**2)
EXP_ROLLOFF_COEFF = (math.log(2.0) - 1.0) ** 2 / (2.0 * math.log(2.0) ** 2)
_ROLLOFF_COEFF = {"rrc": RRC_ROLLOFF_COEFF, "btrrc": EXP_ROLLOFF_COEFF}


@dataclass(frozen=True)
class AnalyticConfig:
    """K_cutoff counts the sinc half-lobes of the rectangle spectrum kept in band."""

    K_cutoff: int

    def __post_init__(self) -> None:
        if int(self.K_cutoff) != self.K_cutoff or self.K_cutoff < 1:
            raise InvalidInputError(f"K_cutoff must be a positive integer, got {self.K_cutoff}")


def _require(spec: PulseSpec, op: str, *families: PulseFamily) -> None:
    if spec.family not in families:
        raise InvalidInputError(f"{op} requires family {families[0].value}, got {spec.family.value}")


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


def _train_metrics(spec: PulseSpec) -> LocalizationMetrics:
    """Closed forms for the spec's train of `count` sub-pulses every T."""
    train = train_layout(spec)
    return _analytic(
        mean_time=(spec.T * (train.count - 1) + spec.ta) / 2.0,
        mean_freq=0.0,
        dt=train.count * spec.T / math.sqrt(12.0),
        df=_train_freq_dispersion(spec, train.shape),
    )


def ddop_metrics(spec: PulseSpec) -> LocalizationMetrics:
    """Closed forms for the N-sub-pulse train of the spec's sub-pulse shape."""
    _require(spec, "ddop_metrics", PulseFamily.DDOP)
    return _train_metrics(spec)


def btrrc_ddop_metrics(spec: PulseSpec) -> LocalizationMetrics:
    """Closed forms for the train built on the exponential-rolloff sub-pulse."""
    return ddop_metrics(replace(spec, subpulse="btrrc"))


def general_ddop_metrics(spec: PulseSpec) -> LocalizationMetrics:
    """Extended-train closed forms: N replaced by N + 2D; Delta F unchanged."""
    _require(spec, "general_ddop_metrics", PulseFamily.GENERAL_DDOP)
    return _train_metrics(spec)


def tdm_metrics(spec: PulseSpec) -> LocalizationMetrics:
    """Closed forms for the single sub-pulse; its Delta T is an upper bound."""
    _require(spec, "tdm_metrics", PulseFamily.TDM, PulseFamily.RRC_SUBPULSE)
    train = train_layout(spec)
    return _analytic(
        mean_time=train.first_step * spec.T / spec.M,
        mean_freq=0.0,
        dt=spec.T * math.sqrt(spec.Q) / (spec.M * math.pi),
        df=_train_freq_dispersion(spec, train.shape),
        bound=True,
    )


def fdm_metrics(spec: PulseSpec, cfg: AnalyticConfig) -> LocalizationMetrics:
    """Closed forms for the duration-N*T rectangle, K_cutoff sinc half-lobes in band."""
    _require(spec, "fdm_metrics", PulseFamily.FDM)
    nt = spec.N * spec.T
    return _analytic(
        mean_time=nt / 2.0,
        mean_freq=0.0,
        dt=nt / math.sqrt(12.0),
        df=math.sqrt(cfg.K_cutoff) / (nt * math.pi),
    )


def _fdm_config(spec: PulseSpec, band: AnalysisBand, oversample: int) -> AnalyticConfig:
    # K counts sinc half-lobes the measurement can actually see: the band,
    # clipped to the sampled Nyquist range.
    nyquist = 0.5 * spec.M * oversample / spec.T
    visible = min(band.half_width, nyquist)
    return AnalyticConfig(K_cutoff=max(1, math.floor(visible * spec.N * spec.T)))


def otfs_metrics(spec: PulseSpec) -> LocalizationMetrics:
    """Closed forms for the multicarrier basis function.

    Valid for interior delay indices only (1 <= otfs_m <= M-2): the edge
    indices put the kernel peak on a window edge and the out-of-band leakage
    invalidates the closed forms. Callers comparing numeric metrics must
    exclude otfs_m in {0, M-1}.

    Means are support/comb centers: the kernel peaks average to
    (N-1)T/2 + m*T/M in time, and the kernel's tone comb is centered at
    (M-1)/(2T) shifted by the Doppler index n/(N*T).
    """
    _require(spec, "otfs_metrics", PulseFamily.OTFS_BASIS)
    return _analytic(
        mean_time=(spec.N - 1) * spec.T / 2.0 + spec.otfs_m * spec.T / spec.M,
        mean_freq=(spec.M - 1) / (2.0 * spec.T) + spec.otfs_n / (spec.N * spec.T),
        dt=spec.N * spec.T / math.sqrt(12.0),
        df=spec.M / (spec.T * math.sqrt(12.0)),
    )


def gabor_limit() -> float:
    """Lower bound on the time-frequency area, 1/(4*pi)."""
    return 1.0 / (4.0 * math.pi)


# Closed form per family, called as form(spec, band, oversample); the band and
# oversample matter only to FDM. BTRRC_SUBPULSE has none.
_CLOSED_FORMS = {
    PulseFamily.RRC_SUBPULSE: lambda spec, band, oversample: tdm_metrics(spec),
    PulseFamily.TDM: lambda spec, band, oversample: tdm_metrics(spec),
    PulseFamily.DDOP: lambda spec, band, oversample: _train_metrics(spec),
    PulseFamily.GENERAL_DDOP: lambda spec, band, oversample: _train_metrics(spec),
    PulseFamily.FDM: lambda spec, band, oversample: fdm_metrics(spec, _fdm_config(spec, band, oversample)),
    PulseFamily.OTFS_BASIS: lambda spec, band, oversample: otfs_metrics(spec),
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
