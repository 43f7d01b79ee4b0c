"""Command-line interface: exit codes, config precedence, output contracts."""

import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ddopkit
from ddopkit import cli, experiments, metrics, pulses, signal_core
from ddopkit.cli import main
from ddopkit.experiments import REPORT_HEADER
from ddopkit.pulses import FAMILY_ALIASES
from ddopkit.signal_core import DegenerateInputError


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def subparser(command: str) -> argparse.ArgumentParser:
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


class TestDeclaredOnce:
    """The report's quantities and the CLI's settings are each declared in
    one place, which every reader takes them from."""

    def test_quantities_name_the_columns_keys_and_metric_choices(self):
        """REPORT_HEADER's quantity columns, the percent_diff keys, the JSON
        row's keys and the sweep's --metric choices follow QUANTITIES, in
        order, and each key reads its own LocalizationMetrics attribute."""
        keys = [key for key, _, _ in experiments.QUANTITIES]
        assert keys == ["dT", "dF", "dA", "k"]
        header = REPORT_HEADER.split(",")
        assert header == ["parameter", *(f"{column}_{part}" for _, column, _ in experiments.QUANTITIES
                                         for part in ("num", "ana", "pct")), "energy_capture", "status"]
        numeric = metrics.LocalizationMetrics(0.0, 0.0, 2.0, 3.0, metrics.Provenance.NUMERIC, 0.5)
        analytic = metrics.LocalizationMetrics(0.0, 0.0, 2.0, 4.0, metrics.Provenance.ANALYTIC)
        row = experiments.SweepRow("x", numeric, analytic)
        assert row.percent_diff == pytest.approx({"dT": 0.0, "dF": 25.0, "dA": 25.0, "k": 100.0 / 3})
        assert list(row.percent_diff) == keys == list(experiments.SweepRow("x", None, None).percent_diff)
        assert list(row.to_json_dict()) == header
        assert [row.to_json_dict()[f"{column}_num"] for _, column, _ in experiments.QUANTITIES] == [
            2.0, 3.0, 6.0, 2.0 / 3]
        metric = next(a for a in subparser("sweep")._actions if "--metric" in a.option_strings)
        assert list(metric.choices) == keys

    @pytest.mark.parametrize("command", ["synth", "metrics", "sweep", "verify"])
    def test_every_pulse_field_and_setting_is_a_flag_dest(self, command):
        dests = {action.dest for action in subparser(command)._actions}
        assert {field.name for field in dataclasses.fields(pulses.PulseSpec)} <= dests
        assert set(cli._SETTINGS) <= dests

    def test_a_field_without_a_flag_is_read_from_the_config(self, tmp_path, capsys):
        """resolve_config reads each field's flag by name where there is one:
        a namespace without the otfs_n or band_half_width flag takes them from
        the config file, as it would a field that has no flag."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pulse": {"M": 32, "N": 8, "family": "otfs", "otfs_n": 3},
                                   "band_half_width": 40.0}))
        args = cli.build_parser().parse_args(["metrics", "--config", str(cfg)])
        del args.otfs_n, args.band_half_width
        resolved = cli.resolve_config(args)
        assert resolved.pulse.otfs_n == 3 and resolved.band == metrics.AnalysisBand(40.0)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_missing_sweep_axis(self, capsys):
        assert run(["sweep", "--M", "32", "--N", "8"], capsys)[0] == 2

    def test_illegal_pulse_parameters(self, capsys):
        rc, _, err = run(["metrics", "--M", "16", "--Q", "8"], capsys)
        assert rc == 2
        assert "error:" in err and "T_a" in err

    def test_bad_oversample(self, capsys):
        rc, _, err = run(["metrics", "--M", "32", "--N", "8", "--oversample", "0"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("argv,message", [
        (["metrics", "--M", "32", "--N", "8", "--band", "1e-9"], "single spectral bin"),
        # 256 bins in band, all but one on the FDM rectangle's sinc zeros at this length
        (["metrics", "--family", "fdm", "--M", "16", "--N", "4", "--oversample", "4", "--zero-pad", "1",
          "--band", "10000"], "only one of the 256 bins"),
        (["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--steps", "0"], "--steps"),
        (["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--steps", "-3"], "--steps"),
        (["sweep", "--vary", "q", "--M", "32", "--N", "8", "--steps", "0"], "--steps"),
        (["metrics", "--M", "32", "--N", "8", "--T", "1e309"], "T must be finite"),
        (["synth", "--M", "32", "--N", "8", "--zero-pad", "0"], "zero_pad"),
        (["sweep", "--vary", "q", "--M", "32", "--N", "8", "--from", "1e30"], "--from"),
        (["sweep", "--vary", "q", "--M", "32", "--N", "8", "--from", "0", "--to", "0"], "--from"),
        (["sweep", "--vary", "beta", "--M", "4", "--N", "1", "--steps", "2", "--to", "inf"], "--to inf"),
        (["sweep", "--vary", "beta", "--M", "4", "--N", "1", "--from=-1e308", "--to", "1e308"], "finite distance"),
        (["sweep", "--vary", "mn", "--steps", "3", "--from", "5"], "--vary mn"),
        (["metrics", "--M", "32", "--N", "8", "--tolerance", "nan"], "--tolerance"),
        (["metrics", "--M", "32", "--N", "8", "--tolerance", "inf"], "--tolerance"),
        (["metrics", "--M", "32", "--N", "8", "--tolerance", "-1"], "--tolerance"),
        (["metrics", "--M", "32", "--N", "8", "--band", "0"], "band half-width"),
        (["metrics", "--M", "32", "--N", "8", "--band", "-1"], "band half-width"),
        (["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--band", "nan"], "band half-width"),
        # a 45.5 PiB transform exceeds the address space, so it fails at once
        (["metrics", "--M", "16", "--N", "4", "--zero-pad", "4000000000000"], "allocate"),
        # argparse's own errors
        (["metrics", "--M", "x"], "ddopkit: error: argument --M: invalid int value: 'x'"),
        ([], "ddopkit: error: the following arguments are required: command"),
    ])
    def test_rejected_inputs(self, argv, message, capsys):
        rc, out, err = run(argv, capsys)
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert out == "" and len(err.splitlines()) == 1


class TestModuleEntryPoint:
    """``python -m ddopkit`` runs ``cli.main`` in a fresh process."""

    @staticmethod
    def _run(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "ddopkit", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_matches_main(self, capsys):
        argv = ["verify", "--M", "16", "--N", "4"]
        rc, out, err = run(argv, capsys)
        proc = self._run(argv)
        assert rc in (0, 1) and proc.returncode == rc
        assert proc.stdout == out and proc.stderr == err

    def test_import_starts_no_thread_pool_machinery(self):
        """Sweeps run serially, so importing the CLI never loads
        concurrent.futures, which numpy alone does not load either."""
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        code = "import sys, ddopkit.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "False\n"

    def test_bad_flag_value(self):
        proc = self._run(["verify", "--M", "16", "--N", "4", "--oversample", "0"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: oversample") and len(proc.stderr.splitlines()) == 1

    def test_unknown_flag(self):
        """argparse's one error line alone, with no usage text."""
        proc = self._run(["verify", "--M", "16", "--N", "4", "--bogus"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "ddopkit: error: unrecognized arguments: --bogus\n"

    def test_help_unchanged(self):
        """--help still prints the usage text and exits 0."""
        proc = self._run(["verify", "--help"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: ddopkit verify [-h]")


class TestConfigFile:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pulse": {"M": 32, "N": 8}, "plots": True}))
        rc, _, err = run(["metrics", "--config", str(cfg)], capsys)
        assert rc == 2 and "unknown config fields" in err

    def test_unknown_pulse_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pulse": {"M": 32, "N": 8, "window": "hann"}}))
        rc, _, err = run(["metrics", "--config", str(cfg)], capsys)
        assert rc == 2 and "unknown PulseSpec fields" in err

    @pytest.mark.parametrize("doc", [{"pulse": [1, 2]}, {"pulse": 3}, {"oversample": None},
                                     {"oversample": [8]}, {"subpulse": "square"},
                                     {"band_half_width": "wide"}, {"band_half_width": True},
                                     {"oversample": True}, {"zero_pad": True},
                                     {"pulse": {"M": 32, "N": 8, "T": True}},
                                     {"pulse": {"M": 32, "N": 8, "beta": True}},
                                     {"pulse": {"M": 32, "N": 8, "Q": True}},
                                     {"pulse": {"M": True, "N": 8}},
                                     {"pulse": {"M": 32, "N": True}},
                                     {"pulse": {"M": 32, "N": 8, "family": "otfs", "otfs_m": True}},
                                     {"pulse": {"M": 32, "N": 8, "family": "otfs", "otfs_n": True}},
                                     # 987654 is no open file descriptor
                                     {"pulse": {"M": 16, "N": 4}, "output_path": 987654},
                                     {"pulse": {"M": 16, "N": 4}, "output_path": ["a"]},
                                     {"pulse": {"M": 16, "N": 4}, "output_path": 1.5},
                                     # line breaks in a value stay escaped in the one error line
                                     {"pulse": {"M": 1, "N": "\x1e"}},
                                     {"pulse": {"M": 32, "N": 8, "Q": "a\nb"}},
                                     {"band_half_width": "a\rb"}])
    def test_malformed_values(self, doc, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        rc, _, err = run(["metrics", "--config", str(cfg)], capsys)
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("path", [True, 2])
    def test_descriptor_like_output_path(self, path, tmp_path):
        """true and 2 would name the live stdout and stderr descriptors, so the
        check runs in a child process."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pulse": {"M": 16, "N": 4}, "output_path": path}))
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ddopkit.cli", "metrics", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: output path") and len(proc.stderr.splitlines()) == 1

    def test_every_key_accepted(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"pulse": {"M": 16, "N": 4}, "oversample": 4, "zero_pad": 2,
                                   "band_half_width": 50.0, "output_path": str(out),
                                   "output_format": "json", "subpulse": "btrrc"}))
        rc, _, err = run(["synth", "--config", str(cfg)], capsys)
        assert rc == 0 and err == ""
        assert len(json.loads(out.read_text(encoding="utf-8"))["t"]) == 4 * (3 * 16 + 2)

    def test_subpulse_key_sets_the_pulse(self, tmp_path, capsys):
        outputs = []
        for doc in ({"pulse": {"M": 32, "N": 8}, "subpulse": "btrrc"},
                    {"pulse": {"M": 32, "N": 8, "subpulse": "btrrc"}}):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(doc))
            rc, out, _ = run(["metrics", "--config", str(cfg), "--beta", "0.5"], capsys)
            assert rc == 0
            outputs.append(out)
        rc, out, _ = run(["metrics", "--M", "32", "--N", "8", "--beta", "0.5",
                          "--subpulse", "btrrc"], capsys)
        assert outputs == [out, out]

    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = run(["metrics", "--config", str(tmp_path / "absent.json")], capsys)
        assert rc == 2

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{oops")
        assert run(["metrics", "--config", str(cfg)], capsys)[0] == 2

    def test_flags_override_config(self, tmp_path, capsys):
        """flags > config file > defaults, byte-for-byte."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pulse": {"M": 32, "N": 8, "beta": 0.3},
                                   "oversample": 8, "output_format": "json"}))
        via_config = tmp_path / "a.json"
        rc, _, _ = run(["metrics", "--config", str(cfg), "--beta", "0.5",
                        "--out", str(via_config), "--tolerance", "10"], capsys)
        assert rc == 0
        via_flags = tmp_path / "b.json"
        rc, _, _ = run(["metrics", "--M", "32", "--N", "8", "--beta", "0.5",
                        "--oversample", "8", "--format", "json",
                        "--out", str(via_flags), "--tolerance", "10"], capsys)
        assert rc == 0
        assert via_config.read_bytes() == via_flags.read_bytes()


class TestSynth:
    def test_csv_stdout(self, capsys):
        rc, out, _ = run(["synth", "--M", "16", "--N", "4", "--oversample", "4"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) - 1 == 4 * (3 * 16 + 2 * 1)  # oversample * grid units
        t0, re0, im0 = lines[1].split(",")
        float(t0), float(re0), float(im0)

    def test_json_arrays(self, capsys):
        rc, out, _ = run(["synth", "--M", "16", "--N", "4", "--oversample", "4",
                          "--format", "json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"t", "re", "im"}
        assert len(doc["t"]) == len(doc["re"]) == len(doc["im"])

    def test_file_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--M", "32", "--N", "8", "--out", str(a)], capsys)[0] == 0
        assert run(["synth", "--M", "32", "--N", "8", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, capsys):
        rc, _, err = run(["synth", "--M", "16", "--N", "4",
                          "--out", "/nonexistent/x.csv"], capsys)
        assert rc == 1 and "cannot write" in err


class TestMetrics:
    def test_csv_report(self, capsys):
        rc, out, _ = run(["metrics", "--M", "32", "--N", "8", "--tolerance", "10"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == REPORT_HEADER
        assert lines[1].startswith("DDOP,")

    def test_tolerance_gate(self, capsys):
        rc, _, err = run(["metrics", "--M", "32", "--N", "8", "--tolerance", "0.01"], capsys)
        assert rc == 1
        assert "tolerance exceeded" in err

    def test_extended_btrrc_train_matches_its_closed_form(self, capsys):
        rc, out, err = run(["metrics", "--family", "gddop", "--subpulse", "btrrc",
                            "--M", "64", "--N", "8", "--Q", "40", "--beta", "0.8"], capsys)
        assert rc == 0, err
        assert out.splitlines()[1].startswith("GENERAL_DDOP,")

    def test_band_flag(self, capsys):
        rc, out, _ = run(["metrics", "--M", "32", "--N", "8", "--band", "100",
                          "--tolerance", "10"], capsys)
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["--family", "btrrc", "--M", "32", "--N", "4"],
        ["--family", "otfs", "--M", "32", "--N", "8"],
        ["--family", "otfs", "--M", "32", "--N", "8", "--otfs-m", "31", "--format", "json"],
    ], ids=["btrrc", "otfs-m0", "otfs-m31"])
    def test_no_closed_form_reports_numeric_cells_only(self, argv, capsys):
        """Without a closed form the metrics are measured and nothing is judged."""
        rc, out, err = run(["metrics", *argv, "--oversample", "8", "--tolerance", "0"], capsys)
        assert rc == 0 and err == ""
        if "json" in argv:
            row = json.loads(out)[0]
        else:
            row = dict(zip(REPORT_HEADER.split(","), out.splitlines()[1].split(",")))
        for metric in ("ΔT", "ΔF", "ΔA", "κ"):
            assert row[f"{metric}_num"] not in ("", None)
            assert row[f"{metric}_ana"] in ("", None) and row[f"{metric}_pct"] in ("", None)
        assert row["status"] == "ok"

    @pytest.mark.parametrize("beta", ["5e-324", "1e-300"])
    def test_btrrc_at_a_vanishing_beta(self, beta, capsys):
        """A beta that 1 - beta rounds away empties both rolloff branches: the
        flat branch's numbers, those of the beta = 0 pulse, and no
        RuntimeWarning, since beta never divides."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(["metrics", "--family", "btrrc", "--M", "64", "--N", "8",
                                "--beta", beta, "--format", "json"], capsys)
        assert rc == 0 and err == ""
        row = json.loads(out)[0]
        for key, value in (("ΔT_num", 0.008762942844787458), ("ΔF_num", 17.808629718669252),
                           ("ΔA_num", 0.156056004368682), ("κ_num", 0.0004920616006520162),
                           ("energy_capture", 0.9999997845304037)):
            assert row[key] == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("T", ["1e-200", "1e300", "1e-300"])
    def test_moments_outside_the_float_range(self, T):
        """One error line and exit 2, not numpy warnings, a 0/inf/nan row or a
        misleading band error; run in a child process, where warnings reach stderr."""
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ddopkit.cli", "metrics", "--M", "16", "--N", "4",
                               "--oversample", "4", "--T", T],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "float range" in proc.stderr


    @pytest.mark.parametrize("size", [[], ["--N", "8"]], ids=["parts", "samples"])
    def test_subnormal_T(self, size):
        """At T = 1e-310 both measurement paths end in one error line and exit 2:
        the default train from its parts, the N = 8 train (m = 32) from its samples."""
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ddopkit.cli", "metrics", *size, "--T", "1e-310"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "float range" in proc.stderr

    @pytest.mark.parametrize("pulse", [["--family", "btrrc"], ["--subpulse", "btrrc"]], ids=["single", "train"])
    def test_btrrc_at_a_subnormal_T(self, pulse):
        """At T = 1e-310 the btrrc band edge M(1+beta)/(2T) overflows: one error
        line and exit 2, not a traceback or numpy warnings."""
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ddopkit.cli", "metrics", *pulse, "--M", "16", "--N", "4",
                               "--oversample", "4", "--T", "1e-310"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "float range" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--family", "otfs", "--M", "16", "--N", "4", "--oversample", "2", "--T", "5e307"],
        ["--family", "gddop", "--M", "16", "--N", "4", "--oversample", "4", "--Q", "8", "--T", "1e308"],
        ["--family", "fdm", "--M", "16", "--N", "4", "--oversample", "4", "--Q", "8", "--T", "1e308"],
    ], ids=["otfs", "gddop", "fdm"])
    def test_grid_beyond_the_float_range(self, argv):
        """A pulse whose last sample time overflows is one error line and exit 2,
        not inf sample times; run in a child process, where warnings reach stderr."""
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ddopkit.cli", "synth", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "float range" in proc.stderr


class TestSweep:
    def test_beta_axis(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        rc, out, _ = run(["sweep", "--vary", "beta", "--M", "32", "--N", "8",
                          "--from", "0", "--to", "0.5", "--steps", "3",
                          "--metric", "dF", "--out", str(out_file)], capsys)
        assert rc == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == REPORT_HEADER and len(lines) == 4
        assert "max dF percent diff:" in out

    @pytest.mark.parametrize("to_file", [False, True])
    def test_metric_without_comparable_rows_writes_nothing(self, to_file, tmp_path, capsys):
        """No btrrc row has a closed form, so --metric is a usage error, judged
        before the report is written."""
        out_file = tmp_path / "sweep.csv"
        argv = ["sweep", "--family", "btrrc", "--vary", "beta", "--steps", "2",
                "--M", "16", "--N", "4", "--oversample", "4", "--metric", "dF"]
        rc, out, err = run(argv + (["--out", str(out_file)] if to_file else []), capsys)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and "no comparable rows" in err
        assert not out_file.exists()

    def test_q_axis_keeps_failed_rows(self, capsys):
        rc, out, _ = run(["sweep", "--vary", "q", "--M", "64", "--N", "8",
                          "--oversample", "8"], capsys)
        assert rc == 0
        assert "failed: sub-pulse duration" in out  # Q > M/4 rows stay visible

    def test_btrrc_rows_are_measured(self, capsys):
        rc, out, _ = run(["sweep", "--family", "btrrc", "--vary", "beta", "--steps", "3",
                          "--M", "32", "--N", "4", "--oversample", "8"], capsys)
        assert rc == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith(",ok") for row in rows)

    def test_quadrature_degree_cap(self, capsys, monkeypatch):
        """At beta 1 the btrrc sub-pulse below needs a degree-96 rule on its
        upper spectral branch: past the cap, metrics is one exit-2 line and
        the sweep keeps a failed row."""
        monkeypatch.setattr(pulses, "_MAX_QUADRATURE_DEGREE", 64)
        message = "btrrc quadrature needs a degree-96 rule but the cap is 64; lower Q"
        pulse = ["--family", "btrrc", "--M", "32", "--N", "8", "--Q", "16", "--oversample", "4"]
        assert run(["metrics", *pulse, "--beta", "1"], capsys) == (2, "", f"error: {message}\n")
        rc, out, _ = run(["sweep", "--vary", "beta", "--steps", "3", *pulse], capsys)
        rows = out.splitlines()[1:]
        assert rc == 0 and [row.split(",")[0] for row in rows] == ["0", "0.5", "1"]
        assert rows[0].endswith(",ok") and rows[1].endswith(",ok")
        assert rows[2].endswith(f",failed: {message}")

    def test_default_q_axis_is_the_explicit_one(self, capsys):
        """No bounds means --from ceil(0.01 M) --to M --steps 13."""
        base = ["sweep", "--vary", "q", "--M", "128", "--N", "4", "--oversample", "4"]
        default = run(base, capsys)
        explicit = run(base + ["--from", "2", "--to", "128", "--steps", "13"], capsys)
        assert default == explicit and default[0] == 0

    @pytest.mark.parametrize("bounds,first", [(["--from", "3", "--to", "2"], 3), (["--to", "1"], 2)],
                             ids=["both-given", "first-from-M"])
    def test_reversed_q_range_rejected(self, bounds, first, capsys):
        """A first half-length above the last is one error line naming both
        resolved bounds, as a reversed roll-off range is an error; at M 128
        the default first bound is 2."""
        argv = ["sweep", "--vary", "q", "--M", "128", "--N", "4", "--oversample", "4", *bounds]
        last = int(bounds[-1])
        assert run(argv, capsys) == (2, "", f"error: the half-length range runs from {first} down to {last}; "
                                            "the first bound must not exceed the last\n")

    def test_mn_axis(self, capsys):
        rc, out, _ = run(["sweep", "--vary", "mn", "--oversample", "4"], capsys)
        assert rc == 0
        assert len(out.splitlines()) == 1 + 35


    @pytest.mark.parametrize("threads", ["many", "0", "8"])
    def test_thread_env_is_ignored(self, threads, capsys, monkeypatch):
        """Sweeps run serially and read no DDOP_THREADS: any value, even one
        that is no count, gives the same report as none."""
        argv = ["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--steps", "2", "--to", "0.2"]
        monkeypatch.delenv("DDOP_THREADS", raising=False)
        unset = run(argv, capsys)
        monkeypatch.setenv("DDOP_THREADS", threads)
        assert run(argv, capsys) == unset and unset[0] == 0


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run(["verify", "--M", "256", "--N", "8"], capsys)
        assert rc == 0
        assert "all checks passed" in out
        assert "[FAIL]" not in out

    def test_btrrc_train_scanned(self, capsys):
        """The scan and the family ordering see the exponential-rolloff train."""
        scan_lines = {}
        for shape in ("rrc", "btrrc"):
            rc, out, _ = run(["verify", "--M", "256", "--N", "8", "--beta", "0.5",
                              "--oversample", "8", "--subpulse", shape], capsys)
            assert rc == 0 and "[FAIL]" not in out
            scan_lines[shape] = next(line for line in out.splitlines()
                                     if "fine-shift orthogonality" in line)
        assert scan_lines["rrc"] != scan_lines["btrrc"]

    @pytest.mark.parametrize("argv,line", [
        (["--M", "64", "--N", "16", "--oversample", "16"],
         "[PASS] spectrum from parts: ΔT, ΔF and capture within "),
        (["--family", "gddop", "--M", "16", "--N", "4", "--Q", "40", "--oversample", "8"],
         "[PASS] spectrum from parts: ΔT, ΔF and capture within "),
    ], ids=["parts", "overlapping"])
    def test_spectrum_from_parts(self, argv, line, capsys):
        lines = run(["verify", *argv], capsys)[1].splitlines()
        assert lines[1].startswith("[PASS] Parseval") and lines[2].startswith(line)

    def test_negative_control(self, capsys, monkeypatch):
        """A damaged spectrum fails the Parseval check."""
        real_power_spectrum = cli.power_spectrum

        def damaged(signal, zero_pad):
            power = real_power_spectrum(signal, zero_pad)
            values = power.values.copy()
            values[::2] *= 1.01
            return dataclasses.replace(power, values=values)

        monkeypatch.setattr(cli, "power_spectrum", damaged)
        rc, out, _ = run(["verify", "--M", "64", "--N", "16"], capsys)
        assert rc == 1
        assert "[FAIL] Parseval" in out

    def test_truncation_heavy_pulse_flagged(self, capsys):
        # Q=3 at M=64 leaves ~10% fine-shift overlap: the scan check must say so
        rc, out, _ = run(["verify", "--M", "64", "--N", "16"], capsys)
        assert rc == 1
        assert "[FAIL] fine-shift orthogonality" in out

    def test_wraparound_index_skipped(self, capsys):
        rc, out, _ = run(["verify", "--family", "otfs", "--M", "32", "--N", "8",
                          "--otfs-m", "0", "--oversample", "8"], capsys)
        assert rc == 0
        assert "[SKIP] closed-form agreement" in out

    def test_family_without_closed_form_skipped(self, capsys):
        rc, out, _ = run(["verify", "--family", "btrrc", "--beta", "0.5"], capsys)
        assert rc == 0 and "[FAIL]" not in out
        assert "[SKIP] closed-form agreement" in out

    def test_unmeasured_family_fails_the_ordering_check(self, capsys):
        """At zero_pad 1 the FDM rectangle's bins sit on its sinc zeros, so its
        comparison row fails; the ordering check reports it instead of raising."""
        rc, out, _ = run(["verify", "--M", "16", "--N", "2", "--oversample", "2", "--zero-pad", "1"], capsys)
        assert rc == 1
        assert "[FAIL] family orderings: FDM not measured: failed: " in out
        assert "raise the zero-pad factor" in out

    def test_parts_path_rejecting_the_band_fails_its_check(self, capsys):
        """On the FDM rectangle's sinc zeros the train's spectrum holds exact
        zeros in all but one band bin, while the sampled spectrum holds
        rounding there: the metrics reject the band, and verify reports that
        as its one failed check, with the reason metrics exits 2 with, and
        runs the rest."""
        pulse = ["--family", "fdm", "--M", "45", "--N", "2", "--oversample", "1", "--zero-pad", "1"]
        reason = ("only one of the 90 bins in the analysis band |f| <= 225 carries energy; the rest are "
                  "exact zeros of the spectrum at bin spacing 0.5, so raise the zero-pad factor")
        rc, out, err = run(["verify", *pulse], capsys)
        lines = out.splitlines()
        assert rc == 1 and err == ""
        assert lines[2] == f"[FAIL] metrics: not measured: {reason}"
        assert any(line.startswith("[PASS] Gaussian floor attainment") for line in lines[3:])
        assert lines[-2].startswith("[SKIP] family orderings") and lines[-1] == "1 check(s) failed"
        rc, out, err = run(["metrics", *pulse], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize("pulse,reason", [
        (["--M", "32", "--N", "8", "--band", "1e-9"],
         "the analysis band |f| <= 1e-09 holds a single spectral bin (bin spacing 0.0341333); widen the band"),
        (["--family", "tdm", "--M", "16", "--N", "2", "--oversample", "1", "--zero-pad", "1"],
         "only one of the 2 bins in the analysis band |f| <= 80 carries energy"),
    ], ids=["one-bin-band", "one-bin-with-energy"])
    def test_sampled_path_rejecting_the_band_fails_its_check(self, pulse, reason, capsys):
        """A band that both the metrics and the sampled spectrum reject is
        one failed check, with the reason metrics exits 2 with; the three
        checks that read the metrics are skipped, saying why, and every
        other check still prints its line."""
        rc, out, err = run(["verify", *pulse], capsys)
        lines = out.splitlines()
        assert rc == 1 and err == "" and len(lines) == 12
        assert lines[2].startswith(f"[FAIL] metrics: not measured: {reason}")
        assert [line for line in lines if "metrics, which" in line] == [
            f"[SKIP] {name}: it reads the metrics, which were not measured"
            for name in ("spectrum from parts", "uncertainty floor", "closed-form agreement")]
        assert any(line.startswith("[PASS] Gaussian floor attainment") for line in lines[3:])
        assert lines[-1].endswith("check(s) failed")
        rc, out, err = run(["metrics", *pulse], capsys)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {reason}")

    def test_sampled_spectrum_rejecting_the_band_fails_only_its_check(self, capsys, monkeypatch):
        """Where only the sampled spectrum rejects the band, the check that
        reads it fails, and the floor and closed-form checks still judge the
        metrics."""
        def rejecting(spectrum, band):
            raise DegenerateInputError("no spectral energy inside the analysis band")

        monkeypatch.setattr(cli, "measure_freq", rejecting)
        rc, out, _ = run(["verify", "--M", "64", "--N", "16", "--Q", "16"], capsys)
        lines = out.splitlines()
        assert lines[2] == ("[FAIL] spectrum from parts: sampled spectrum not measured: "
                            "no spectral energy inside the analysis band")
        assert lines[3].startswith("[PASS] uncertainty floor")
        assert any(line.startswith("[PASS] ΔF closed form") for line in lines)
        assert rc == 1 and lines[-1] == "1 check(s) failed"

    @pytest.mark.parametrize("pulse", [
        [], ["--family", "gddop", "--M", "16", "--N", "4", "--Q", "40", "--oversample", "8"],
    ], ids=["default", "gddop-overlapping"])
    def test_closed_form_deviations_are_the_metrics_rows(self, pulse, capsys):
        """verify judges the row metrics prints: its closed-form deviations
        are metrics' ΔT_pct and ΔF_pct."""
        out = run(["verify", *pulse], capsys)[1]
        rc, report, _ = run(["metrics", *pulse, "--format", "json"], capsys)
        row = json.loads(report)[0]
        assert rc == 0
        for name, key in (("ΔT", "ΔT_pct"), ("ΔF", "ΔF_pct")):
            assert f"[PASS] {name} closed form: deviation {row[key]:.4g}%" in out.splitlines()

    def test_configured_pulse_transformed_once(self, capsys, monkeypatch):
        """The sampled spectrum that Parseval checks is the one the check of
        the spectrum from parts reads: the configured pulse is transformed
        once, the Gaussian reference once."""
        lengths = []

        def noting(signal, zero_pad):
            lengths.append(signal.grid.num_samples)
            return signal_core.power_spectrum(signal, zero_pad)

        for module in (cli, metrics):
            monkeypatch.setattr(module, "power_spectrum", noting)
        pulse = ["--M", "64", "--N", "16", "--Q", "16"]
        rc, out, _ = run(["verify", *pulse], capsys)
        assert rc == 0 and "[PASS] spectrum from parts" in out
        configured = pulses.synth_pulse(pulses.PulseSpec(M=64, N=16, Q=16))
        assert lengths.count(configured.grid.num_samples) == 1 and len(lengths) == 2

    @pytest.mark.parametrize("band,measured", [([], 1), (["--band", "40"], 2)], ids=["default", "configured"])
    def test_configured_train_measured_once_at_its_default_band(self, band, measured, capsys, monkeypatch):
        """The family orderings measure each family at its default band, so
        there the configured ddop train's row is the one the closed-form
        checks judged; a configured band needs a second measurement."""
        families = []
        measure_point = experiments.measure_point

        def noting(spec, *args, **kwargs):
            families.append(spec.family)
            return measure_point(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "measure_point", noting)
        monkeypatch.setattr(experiments, "measure_point", noting)
        rc, out, _ = run(["verify", "--M", "64", "--N", "16", "--Q", "16", *band], capsys)
        assert rc == 0 and "[PASS] family orderings" in out
        assert families.count(pulses.PulseFamily.DDOP) == measured and len(families) == measured + 2

    def test_interior_index_checked(self, capsys):
        rc, out, _ = run(["verify", "--family", "otfs", "--M", "32", "--N", "8",
                          "--otfs-m", "5", "--otfs-n", "2", "--oversample", "8",
                          "--tolerance", "2"], capsys)
        assert rc == 0
        assert "[PASS] ΔT closed form" in out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that stops reading is one error line and exit 1, never a traceback."""

    @pytest.mark.parametrize("command", ["verify", "metrics"])
    def test_write_error_in_process(self, command, capsys, monkeypatch):
        argv = [command, "--family", "btrrc", "--M", "16", "--N", "4", "--oversample", "4"]
        assert run(argv, capsys)[0] == 0  # the same run succeeds on a working stdout
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _ClosedPipe())
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1 and err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_pipe_closed_before_the_child_writes(self):
        """With stdout block-buffered (the default for a pipe), the write fails in
        main's last flush; the descriptor then points at os.devnull, so the
        interpreter's exit-time flush prints no "Exception ignored"."""
        env = dict(os.environ, PYTHONPATH=str(Path(ddopkit.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ddopkit.cli", "verify", "--family", "btrrc",
                                   "--M", "16", "--N", "4", "--oversample", "4"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


# Legal values for every pulse field and config key. The fields that size the run
# are capped here and in _SIZE_CAPS, so that no generated config allocates much.
_LEGAL = {
    "M": st.integers(1, 16), "N": st.integers(1, 4), "Q": st.integers(1, 4),
    "T": st.floats(1e-3, 1e3), "beta": st.floats(0.0, 1.0),
    "family": st.sampled_from(sorted(FAMILY_ALIASES)), "subpulse": st.sampled_from(["rrc", "btrrc"]),
    "otfs_m": st.integers(0, 3), "otfs_n": st.integers(0, 3),
    "oversample": st.integers(1, 4), "zero_pad": st.integers(1, 4),
    "band_half_width": st.floats(1e-3, 1e3), "output_format": st.sampled_from(["csv", "json"]),
}
_SIZE_CAPS = {"M": 16, "N": 4, "Q": 16, "otfs_m": 16, "otfs_n": 4, "oversample": 4, "zero_pad": 4}
_OPTIONAL_PULSE_FIELDS = ("T", "beta", "Q", "family", "otfs_m", "otfs_n", "subpulse")
_OPTIONAL_KEYS = ("band_half_width", "output_format", "subpulse")


def _json(numbers):
    """Any JSON value (scalar, bool, list or object) whose numbers come from `numbers`."""
    leaves = st.none() | st.booleans() | numbers | st.text(max_size=6)
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=4)


def _random_value(key):
    cap = _SIZE_CAPS.get(key)
    if cap is None:
        numbers = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400), 1e-300])
    else:
        numbers = st.integers(-2, cap) | st.floats(-2, cap) | st.sampled_from([math.nan, math.inf])
    return _json(numbers)


@st.composite
def _configs(draw, out_dir):
    """A config with legal values except under up to three keys, which get random JSON."""
    broken = draw(st.sets(st.sampled_from(sorted(_LEGAL) + ["pulse", "output_path"]), max_size=3))

    def value(key):
        return draw(_random_value(key) if key in broken else _LEGAL[key])

    pulse = {"M": value("M"), "N": value("N")}
    pulse.update({k: value(k) for k in _OPTIONAL_PULSE_FIELDS if k in broken or draw(st.booleans())})
    if "pulse" in broken:
        # an object would fall back to the default 256 x 64 pulse for a missing M or N
        pulse = draw(_random_value("pulse").filter(lambda v: not isinstance(v, dict)))
    doc = {"pulse": pulse, "oversample": value("oversample"), "zero_pad": value("zero_pad")}
    doc.update({k: value(k) for k in _OPTIONAL_KEYS if k in broken or draw(st.booleans())})
    if "output_path" in broken:
        # never an int or bool, which io.open takes as a file descriptor: a regression
        # must not write to or close this process's stdout or stderr
        doc["output_path"] = draw(st.floats() | st.lists(st.text(max_size=3), max_size=2)
                                  | st.dictionaries(st.text(max_size=3), st.none(), max_size=2))
    elif draw(st.booleans()):
        doc["output_path"] = draw(st.sampled_from([None, str(out_dir / "r.txt"), str(out_dir / "no" / "r.txt")]))
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_ends_with_a_documented_exit(data, tmp_path, capsys):
    """Random JSON under every config key and pulse field: exit 0, 1 or 2, never a
    traceback; a usage error is one stderr line, a failed check one line per metric."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data.draw(_configs(tmp_path))))
    rc, _, err = run(["metrics", "--config", str(cfg)], capsys)
    assert rc in (0, 1, 2) and "Traceback" not in err
    lines = err.splitlines()
    if rc == 0:
        assert err == ""
    elif rc == 2 or lines[0].startswith("error:"):
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert lines and all(line.startswith("tolerance exceeded - ") for line in lines)


# Flag values for the argv property test: legal ones, capped like _SIZE_CAPS, and
# illegal strings. No illegal value is a legal but large size, which would allocate.
_BAD_INT = ["", "x", "0", "-1", "2.5", "1e3", "99999999999999999999"]
_BAD_FLOAT = ["", "x", "nan", "inf", "-inf", "-1", "0"]
_ARGV_VALUES = {
    "--M": (st.integers(1, 16), _BAD_INT),
    "--N": (st.integers(1, 4), _BAD_INT),
    "--Q": (st.integers(1, 16), _BAD_INT),
    "--T": (st.floats(1e-3, 1e3), _BAD_FLOAT + ["5e307", "1e308", "1e-300", "1e300"]),
    "--beta": (st.floats(0.0, 1.0), _BAD_FLOAT + ["1.5"]),
    "--family": (st.sampled_from(sorted(FAMILY_ALIASES)), ["", "ofdm", "DDOP"]),
    "--subpulse": (st.sampled_from(["rrc", "btrrc"]), ["", "square"]),
    "--otfs-m": (st.integers(0, 3), ["-1", "x", "99999999999999999999"]),
    "--otfs-n": (st.integers(0, 3), ["-1", "x", "99999999999999999999"]),
    "--oversample": (st.integers(1, 4), _BAD_INT),
    "--zero-pad": (st.integers(1, 4), _BAD_INT),
    "--band": (st.floats(1e-3, 1e3), _BAD_FLOAT + ["1e-9"]),
    "--format": (st.sampled_from(["csv", "json"]), ["", "xml"]),
    "--tolerance": (st.floats(0.0, 10.0), _BAD_FLOAT),
    "--steps": (st.integers(1, 3), _BAD_INT),
}
_SWEEP_BOUNDS = {"beta": (st.floats(0.0, 1.0), _BAD_FLOAT + ["1e30"]),
                 "q": (st.integers(1, 16), _BAD_INT + ["nan", "1e30"])}
_ALWAYS = ("--M", "--N", "--oversample")


@st.composite
def _argvs(draw):
    """A synth, metrics, verify or ``sweep --vary beta|q`` argv with legal values
    except under up to two flags. M, N, oversample and a sweep's steps are always
    given, so the 256 x 64 defaults never run."""
    command = draw(st.sampled_from(["synth", "metrics", "verify", "beta", "q"]))
    values = dict(_ARGV_VALUES)
    argv, always = [command], list(_ALWAYS)
    if command in _SWEEP_BOUNDS:
        argv = ["sweep", "--vary", command]
        values.update({"--from": _SWEEP_BOUNDS[command], "--to": _SWEEP_BOUNDS[command]})
        always.append("--steps")
    else:
        del values["--steps"]
    optional = sorted(set(values) - set(always))
    flags = always + draw(st.lists(st.sampled_from(optional), unique=True, max_size=5))
    broken = draw(st.sets(st.sampled_from(flags), max_size=2))
    for flag in flags:
        legal, illegal = values[flag]
        argv += [flag, str(draw(st.sampled_from(illegal) if flag in broken else legal))]
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
@example(argv=["verify", "--M", "16", "--N", "2", "--oversample", "2", "--zero-pad", "1"])
@example(argv=["synth", "--family", "otfs", "--M", "16", "--N", "4", "--oversample", "2", "--T", "5e307"])
@example(argv=["metrics", "--family", "rrc", "--M", "6", "--N", "3", "--oversample", "2", "--beta", "5e-324"])
def test_any_argv_ends_with_a_documented_exit(argv, capsys):
    """Random legal and illegal flags: exit 0, 1 or 2, never a traceback. A usage
    error is one stderr line, argparse's too."""
    rc, _, err = run(argv, capsys)
    assert rc in (0, 1, 2) and "Traceback" not in err
    lines = err.splitlines()
    if rc == 0:
        assert err == ""
    elif rc == 1:
        assert all(line.startswith("tolerance exceeded - ") for line in lines)
    else:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "ddopkit: error: "))
