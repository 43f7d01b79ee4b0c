"""Command-line interface: synth, metrics, sweep, verify.

Configuration precedence is flags > JSON config file > built-in defaults.
Exit codes are a stable contract: 0 success, 1 check failure (or output I/O
failure), 2 usage/config error (including illegal pulse parameters and a run
too large to allocate). Output files are byte-deterministic for identical
configuration; sweeps run serially in plan order.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .analytic import gabor_limit
from .experiments import (
    QUANTITIES,
    SweepPlan,
    SweepReport,
    SweepRow,
    SweptParameter,
    _fmt,
    compare_families,
    default_mn_values,
    default_q_values,
    measure_point,
    orthogonality_scan,
    run_sweep,
)
from .metrics import AnalysisBand, lemma1_check, measure_all, measure_freq, measure_time
from .pulses import FAMILY_ALIASES, SUBPULSE_SHAPES, PulseFamily, PulseSpec, synth_pulse
from .signal_core import (
    InvalidInputError,
    SampledSignal,
    TimeGrid,
    energy,
    positive_int,
    power_spectrum,
    spectral_energy,
)

__all__ = ["RunConfig", "main"]

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings shared by every subcommand.

    band=None means the per-spec default +-5M/T.
    """

    pulse: PulseSpec
    oversample: int = 16
    zero_pad: int = 4
    band: AnalysisBand | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self) -> None:
        object.__setattr__(self, "oversample", positive_int(self.oversample, "oversample"))
        object.__setattr__(self, "zero_pad", positive_int(self.zero_pad, "zero_pad"))
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise InvalidInputError(f"output path must be a string, got {self.output_path!r}")
        if self.output_format not in _FORMATS:
            raise InvalidInputError(f"output format must be {' or '.join(_FORMATS)}, got {self.output_format!r}")


# The run settings a config file may set: RunConfig's fields, with the band given
# by its half-width. "subpulse" sets the pulse's sub-pulse shape. Each setting
# and each PulseSpec field is also the dest of the flag that sets it.
_SETTINGS = tuple(f.name for f in fields(RunConfig) if f.name not in ("pulse", "band")) + ("band_half_width",)
_CONFIG_KEYS = {"pulse", "subpulse", *_SETTINGS}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subcommand parsers, whose usage
    errors are one stderr line, ``ddopkit: error: ...``, with no usage text."""

    def error(self, message):
        self.exit(2, f"ddopkit: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged.
    Each flag's dest is the field or setting it sets; a metavar keeps its help."""
    parser = _Parser(
        prog="ddopkit",
        description="Synthesize delay-Doppler pulse trains and measure their "
                    "time-frequency localization.",
    )
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("run settings")
    g.add_argument("--config", help="JSON config file (flags override its fields)")
    g.add_argument("--out", dest="output_path", metavar="OUT", help="output file path (default: stdout)")
    g.add_argument("--format", dest="output_format", choices=_FORMATS, help="output format (default csv)")
    g.add_argument("--oversample", type=int, help="samples per T/M step (default 16)")
    g.add_argument("--zero-pad", type=int,
                   help="minimum spectrum zero-padding factor; the transform length is "
                        "rounded up to a 5-smooth length (default 4)")
    g.add_argument("--band", dest="band_half_width", metavar="BAND", type=float,
                   help="analysis band half-width in Hz (default 5M/T)")
    g.add_argument("--tolerance", type=float, default=2.0,
                   help="percent tolerance for metric comparisons, finite and >= 0 (default 2)")
    p = common.add_argument_group("pulse parameters")
    p.add_argument("--family", choices=sorted(FAMILY_ALIASES), help="pulse family (default ddop)")
    p.add_argument("--M", type=int, help="delay bins (default 256)")
    p.add_argument("--N", type=int, help="Doppler bins / sub-pulses (default 64)")
    p.add_argument("--T", type=float, help="symbol spacing in seconds (default 1)")
    p.add_argument("--beta", type=float, help="roll-off in [0, 1] (default 0.1)")
    p.add_argument("--Q", type=int, help="sub-pulse half-length (default round(0.05*M))")
    p.add_argument("--otfs-m", type=int, help="delay index for the otfs family (default 0)")
    p.add_argument("--otfs-n", type=int, help="Doppler index for the otfs family (default 0)")
    p.add_argument("--subpulse", choices=SUBPULSE_SHAPES,
                   help="sub-pulse shape for pulse-train families (default rrc)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", parents=[common], help="synthesize a pulse and write its samples")
    sub.add_parser("metrics", parents=[common],
                   help="measure a pulse and compare against its closed form")
    sw = sub.add_parser("sweep", parents=[common], help="sweep one parameter axis")
    sw.add_argument("--vary", choices=[axis.value for axis in SweptParameter], required=True,
                    help="swept axis: roll-off, half-length, or the (M, N) grid")
    sw.add_argument("--from", dest="sweep_from", type=float, help="first swept value")
    sw.add_argument("--to", dest="sweep_to", type=float, help="last swept value")
    sw.add_argument("--steps", type=int, help="number of swept points")
    sw.add_argument("--metric", choices=[key for key, _, _ in QUANTITIES],
                    help="also print the max percent difference for this metric")
    sub.add_parser("verify", parents=[common], help="run the invariant check suite")
    return parser


def _load_config_file(path: str) -> dict:
    with io.open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidInputError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (later wins).

    The top-level "subpulse" config key sets the pulse's sub-pulse shape, as
    "pulse": {"subpulse": ...} does; the top-level key wins if both are given.
    """
    flags = vars(args)
    file_cfg = _load_config_file(args.config) if args.config else {}

    pulse_kwargs = {"M": 256, "N": 64}
    file_pulse = file_cfg.get("pulse", {})
    if not isinstance(file_pulse, dict):
        raise InvalidInputError("config field 'pulse' must be a JSON object")
    pulse_kwargs.update(file_pulse)
    if "subpulse" in file_cfg:
        pulse_kwargs["subpulse"] = file_cfg["subpulse"]
    pulse_kwargs.update((f.name, flags[f.name]) for f in fields(PulseSpec) if flags.get(f.name) is not None)
    try:
        pulse = PulseSpec.from_json_dict(pulse_kwargs)
    except TypeError as exc:
        raise InvalidInputError(f"incomplete pulse definition: {exc}")

    # only the settings the file or a flag set; RunConfig holds the defaults
    settings = {key: file_cfg[key] for key in _SETTINGS if key in file_cfg}
    settings.update((key, flags[key]) for key in _SETTINGS if flags.get(key) is not None)
    half_width = settings.pop("band_half_width", None)
    band = None if half_width is None else AnalysisBand(half_width=half_width)
    return RunConfig(pulse=pulse, band=band, **settings)


def _emit(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with io.open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    signal = synth_pulse(cfg.pulse, oversample=cfg.oversample)
    t = signal.grid.times()
    re, im = signal.samples.real, signal.samples.imag
    if cfg.output_format == "csv":
        lines = ["t,re,im"]
        lines += [f"{_fmt(ti)},{_fmt(ri)},{_fmt(ii)}" for ti, ri, ii in zip(t, re, im)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"t": [float(v) for v in t], "re": [float(v) for v in re],
             "im": [float(v) for v in im]},
            ensure_ascii=False) + "\n"
    return _emit(text, cfg.output_path)


def cmd_metrics(cfg: RunConfig, tolerance: float) -> int:
    numeric, analytic = measure_point(cfg.pulse, cfg.band, cfg.zero_pad, cfg.oversample)
    row = SweepRow(parameter=cfg.pulse.family.value, numeric=numeric, analytic=analytic)
    report = SweepReport(rows=(row,))
    text = report.to_csv() if cfg.output_format == "csv" else report.to_json()
    rc = _emit(text, cfg.output_path)
    if rc:
        return rc
    failures = row.tolerance_failures(tolerance)
    for line in failures.values():
        print(f"tolerance exceeded - {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    axis = SweptParameter(args.vary)
    bounds = (args.sweep_from, args.sweep_to, args.steps)
    if axis is SweptParameter.M_N_PAIR and bounds != (None, None, None):
        raise InvalidInputError("--vary mn sweeps a fixed (M, N) grid; it takes no --from, --to or --steps")
    if args.steps is not None:
        positive_int(args.steps, "--steps")
    if axis is SweptParameter.BETA:
        lo = 0.0 if args.sweep_from is None else args.sweep_from
        hi = 1.0 if args.sweep_to is None else args.sweep_to
        if not math.isfinite(hi - lo):
            raise InvalidInputError(f"--from {lo:g} and --to {hi:g} must be finite numbers a finite distance apart")
        steps = 11 if args.steps is None else args.steps
        values = tuple(np.linspace(lo, hi, steps)) if steps > 1 else (lo,)
    elif axis is SweptParameter.Q:
        values = tuple(default_q_values(
            cfg.pulse.M,
            lo=None if args.sweep_from is None else positive_int(args.sweep_from, "--from"),
            hi=None if args.sweep_to is None else positive_int(args.sweep_to, "--to"),
            steps=13 if args.steps is None else args.steps))
    else:
        values = tuple(default_mn_values())
    plan = SweepPlan(family=cfg.pulse.family, swept_parameter=axis, values=values,
                     fixed=cfg.pulse, band=cfg.band, zero_pad=cfg.zero_pad,
                     oversample=cfg.oversample)
    report = run_sweep(plan)
    # judged before any output, so a metric with no comparable rows writes nothing
    worst = report.max_percent_diff(args.metric) if args.metric else None
    text = report.to_csv() if cfg.output_format == "csv" else report.to_json()
    rc = _emit(text, cfg.output_path)
    if rc:
        return rc
    if args.metric:
        print(f"max {args.metric} percent diff: {worst:.6g}")
    return 0


def _gaussian_reference() -> SampledSignal:
    grid = TimeGrid(start_time=-6.0, sample_interval=12.0 / 65536, num_samples=65536)
    t = grid.times()
    return SampledSignal(grid=grid, samples=(2.0 ** 0.25) * np.exp(-np.pi * t * t))


class _Checks:
    def __init__(self) -> None:
        self.failed = 0

    def report(self, ok: bool, name: str, detail: str) -> None:
        tag = "[PASS]" if ok else "[FAIL]"
        if not ok:
            self.failed += 1
        print(f"{tag} {name}: {detail}")

    def skip(self, name: str, detail: str) -> None:
        print(f"[SKIP] {name}: {detail}")


def cmd_verify(cfg: RunConfig, tolerance: float) -> int:
    checks = _Checks()
    spec = cfg.pulse
    band = cfg.band if cfg.band is not None else AnalysisBand.default_for(spec)
    signal = synth_pulse(spec, cfg.oversample)

    e = energy(signal)
    checks.report(abs(e - 1.0) <= 1e-9, "unit energy", f"energy = {e:.12f}")

    spectrum = power_spectrum(signal, cfg.zero_pad)
    se = spectral_energy(spectrum)
    checks.report(abs(se - e) <= 1e-9 * max(e, 1.0), "Parseval",
                  f"time {e:.12f} vs frequency {se:.12f}")

    unmeasured = "it reads the metrics, which were not measured"
    try:
        measured = SweepRow(spec.family.value, *measure_point(spec, cfg.band, cfg.zero_pad, cfg.oversample))
    except ValueError as exc:
        measured = SweepRow(spec.family.value, None, None, status=f"failed: {exc}")
        checks.report(False, "metrics", f"not measured: {exc}")
        checks.skip("spectrum from parts", unmeasured)
        checks.skip("uncertainty floor", unmeasured)
    numeric, analytic = measured.numeric, measured.analytic
    if numeric is not None:
        try:
            sampled = (measure_time(signal)[1], *measure_freq(spectrum, band)[1:])
        except ValueError as exc:
            checks.report(False, "spectrum from parts", f"sampled spectrum not measured: {exc}")
        else:
            parted = (numeric.time_dispersion, numeric.freq_dispersion, numeric.energy_capture)
            worst = max(abs(a - b) / b for a, b in zip(parted, sampled))
            checks.report(worst <= 1e-12, "spectrum from parts",
                          f"ΔT, ΔF and capture within {worst:.2g} of the sampled spectrum's")
        floor = gabor_limit() - 1e-6
        checks.report(numeric.tf_area >= floor, "uncertainty floor",
                      f"ΔA = {numeric.tf_area:.6g} >= {floor:.6g}")

    gauss = measure_all(_gaussian_reference(), AnalysisBand(half_width=20.0), zero_pad=2)
    checks.report(abs(gauss.tf_area - gabor_limit()) <= 1e-4, "Gaussian floor attainment",
                  f"ΔA = {gauss.tf_area:.10f} vs {gabor_limit():.10f}")

    for name, profile, alpha, gamma, bound in (
            ("Gaussian", lambda r: np.exp(-np.pi * r * r), 1.5, 0.5, 1e-8),
            ("rectangle", lambda r: np.where(np.abs(r) <= 0.5, 1.0, 0.0), 2.0, 1.0, 1e-6)):
        _, rhs, err = lemma1_check(profile, rho_alpha=alpha, rho_gamma=gamma)
        rel = err / abs(rhs)
        checks.report(rel <= bound, f"moment-shift identity ({name})", f"relative error {rel:.3g}")

    if numeric is None:
        checks.skip("closed-form agreement", unmeasured)
    elif analytic is None:
        checks.skip("closed-form agreement",
                    f"no closed form applies to {spec.family.value} with these parameters")
    else:
        pct, failed = measured.percent_diff, measured.tolerance_failures(tolerance)
        if analytic.time_dispersion_is_bound:
            checks.report("dT" not in failed, "ΔT bound",
                          f"numeric {numeric.time_dispersion:.6g} <= "
                          f"bound {analytic.time_dispersion:.6g}")
        else:
            checks.report("dT" not in failed, "ΔT closed form", f"deviation {pct['dT']:.4g}%")
        checks.report("dF" not in failed, "ΔF closed form", f"deviation {pct['dF']:.4g}%")

    if spec.family in (PulseFamily.DDOP, PulseFamily.GENERAL_DDOP):
        scan = orthogonality_scan(spec, 3, 3, oversample=cfg.oversample)
        origin, scan[3, 3] = scan[3, 3], 0.0
        worst = float(scan.max())
        checks.report(abs(origin - 1.0) <= 1e-6 and worst <= 5e-3, "fine-shift orthogonality",
                      f"origin {origin:.8f}, worst off-origin {worst:.3g}")
    else:
        checks.skip("fine-shift orthogonality",
                    f"scan applies to the pulse-train families, not {spec.family.value}")

    if spec.family is PulseFamily.DDOP:
        # the orderings measure each family at its default band: at the
        # default band the configured train's row is the one measured above
        trio = [replace(spec, family=fam) for fam in
                (PulseFamily.DDOP, PulseFamily.TDM, PulseFamily.FDM)]
        first = [measured] if cfg.band is None else []
        rows = first + list(compare_families(trio[len(first):], cfg.zero_pad, cfg.oversample).rows)
        unmeasured = [r for r in rows if r.numeric is None]
        if unmeasured:
            checks.report(False, "family orderings",
                          f"{unmeasured[0].parameter} not measured: {unmeasured[0].status}")
        else:
            ddop, tdm, fdm = (r.numeric for r in rows)
            ok = (ddop.tf_area > tdm.tf_area and ddop.tf_area > fdm.tf_area
                  and tdm.direction < ddop.direction < fdm.direction)
            checks.report(ok, "family orderings",
                          f"ΔA {ddop.tf_area:.4g} > {tdm.tf_area:.4g}, {fdm.tf_area:.4g}; "
                          f"κ {tdm.direction:.3g} < {ddop.direction:.3g} < {fdm.direction:.3g}")
    else:
        checks.skip("family orderings", "runs when the configured family is ddop")

    print(f"{checks.failed} check(s) failed" if checks.failed else "all checks passed")
    return 1 if checks.failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise InvalidInputError(f"--tolerance must be a finite percentage >= 0, got {args.tolerance}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "synth":
            rc = cmd_synth(cfg)
        elif args.command == "metrics":
            rc = cmd_metrics(cfg, args.tolerance)
        elif args.command == "sweep":
            rc = cmd_sweep(cfg, args)
        else:
            rc = cmd_verify(cfg, args.tolerance)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit-time flush
        return rc
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        _discard_stdout()
        return 1


def _discard_stdout() -> None:
    """Point stdout's descriptor at os.devnull, so that what a failed write left
    in its buffer cannot fail again in the interpreter's exit-time flush."""
    with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor: no exit-time flush
        fd = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
