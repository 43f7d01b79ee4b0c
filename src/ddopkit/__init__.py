"""Delay-Doppler pulse-train synthesis and time-frequency localization analysis.

Submodules:

* ``signal_core``: sampled-signal containers, energies, Parseval-exact DFT.
* ``pulses``: the pulse-family table and the synthesizers.
* ``metrics``: numeric localization measurements and the moment-shift identity check.
* ``analytic``: closed-form localization metrics, through ``analytic_for``.
* ``experiments``: parameter sweeps, family comparisons, orthogonality scans.
* ``cli``: command-line interface (``ddopkit synth|metrics|sweep|verify``).
"""

from .analytic import analytic_for, gabor_limit
from .metrics import AnalysisBand, LocalizationMetrics, Provenance, lemma1_check, measure_all, measure_freq, measure_time
from .pulses import PulseFamily, PulseSpec, default_q, pulse_grid, synth_pulse
from .signal_core import (
    DegenerateInputError,
    InvalidGridError,
    InvalidInputError,
    SampledSignal,
    Spectrum,
    TimeGrid,
    dft_spectrum,
    energy,
    spectral_energy,
)

__version__ = "0.1.0"
