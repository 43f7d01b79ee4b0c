"""Command-line interface: exit codes, config precedence, output contracts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ddopkit
from ddopkit.cli import main
from ddopkit.experiments import REPORT_HEADER
from ddopkit.pulses import FAMILY_ALIASES


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        (["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--steps", "0"], "--steps"),
        (["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--steps", "-3"], "--steps"),
        (["sweep", "--vary", "q", "--M", "32", "--N", "8", "--steps", "0"], "--steps"),
        (["metrics", "--M", "32", "--N", "8", "--T", "1e309"], "T must be finite"),
        (["synth", "--M", "32", "--N", "8", "--zero-pad", "0"], "zero_pad"),
        (["sweep", "--vary", "q", "--M", "32", "--N", "8", "--from", "1e30"], "--from"),
        (["sweep", "--vary", "q", "--M", "32", "--N", "8", "--from", "0", "--to", "0"], "--from"),
        (["metrics", "--M", "32", "--N", "8", "--tolerance", "nan"], "--tolerance"),
        (["metrics", "--M", "32", "--N", "8", "--tolerance", "inf"], "--tolerance"),
        (["metrics", "--M", "32", "--N", "8", "--tolerance", "-1"], "--tolerance"),
        (["metrics", "--M", "32", "--N", "8", "--band", "0"], "band half-width"),
        (["metrics", "--M", "32", "--N", "8", "--band", "-1"], "band half-width"),
        (["sweep", "--vary", "beta", "--M", "32", "--N", "8", "--band", "nan"], "band half-width"),
        # a 45.5 PiB transform exceeds the address space, so it fails at once
        (["metrics", "--M", "16", "--N", "4", "--zero-pad", "4000000000000"], "allocate"),
    ])
    def test_rejected_inputs(self, argv, message, capsys):
        rc, out, err = run(argv, capsys)
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert out == "" and len(err.splitlines()) == 1


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

    def test_default_q_axis_is_the_explicit_one(self, capsys):
        """No bounds means --from ceil(0.01 M) --to M --steps 13."""
        base = ["sweep", "--vary", "q", "--M", "128", "--N", "4", "--oversample", "4"]
        default = run(base, capsys)
        explicit = run(base + ["--from", "2", "--to", "128", "--steps", "13"], capsys)
        assert default == explicit and default[0] == 0

    def test_mn_axis(self, capsys):
        rc, out, _ = run(["sweep", "--vary", "mn", "--oversample", "4"], capsys)
        assert rc == 0
        assert len(out.splitlines()) == 1 + 35

    def test_thread_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("DDOP_THREADS", "many")
        rc, _, err = run(["sweep", "--vary", "beta", "--M", "32", "--N", "8",
                          "--steps", "2", "--to", "0.2"], capsys)
        assert rc == 2


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

    def test_negative_control(self, capsys):
        rc, out, _ = run(["verify", "--M", "64", "--N", "16", "--corrupt-signal"], capsys)
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

    def test_interior_index_checked(self, capsys):
        rc, out, _ = run(["verify", "--family", "otfs", "--M", "32", "--N", "8",
                          "--otfs-m", "5", "--otfs-n", "2", "--oversample", "8",
                          "--tolerance", "2"], capsys)
        assert rc == 0
        assert "[PASS] ΔT closed form" in out


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
