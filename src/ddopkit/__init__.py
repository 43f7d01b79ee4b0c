"""Delay-Doppler pulse-train synthesis and time-frequency localization analysis.

Submodules:

* ``signal_core``: sampled-signal containers, energies and the phase-free
  power spectrum of a sampled signal, which ``measure_all`` and the Parseval
  check read.
* ``pulses``: the pulse-family table, every pulse's train parts (``TrainParts``)
  and the one sub-pulse-train synthesizer.
* ``metrics``: numeric localization measurements, of a sampled signal
  (``measure_all``) or of a train from its parts (``measure_train``), and the
  moment-shift identity check.
* ``analytic``: closed-form localization metrics, through ``analytic_for``.
* ``experiments``: parameter sweeps, family comparisons, orthogonality scans.
* ``cli``: command-line interface (``ddopkit synth|metrics|sweep|verify``).
"""

from .analytic import analytic_for, gabor_limit
from .metrics import (
    AnalysisBand,
    LocalizationMetrics,
    Provenance,
    lemma1_check,
    measure_all,
    measure_freq,
    measure_time,
    measure_train,
)
from .pulses import PulseFamily, PulseSpec, TrainParts, default_q, pulse_grid, synth_pulse, train_parts
from .signal_core import (
    DegenerateInputError,
    InvalidInputError,
    PowerSpectrum,
    SampledSignal,
    TimeGrid,
    energy,
    power_spectrum,
    spectral_energy,
)

__version__ = "0.1.0"
