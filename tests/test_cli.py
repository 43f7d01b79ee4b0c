"""Command-line interface: exit codes, config precedence, output contracts."""

import json

import pytest

from ddopkit.cli import main
from ddopkit.experiments import REPORT_HEADER


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
    ])
    def test_rejected_inputs(self, argv, message, capsys):
        rc, out, err = run(argv, capsys)
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert out == ""


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
                                     {"pulse": {"M": 32, "N": 8, "family": "otfs", "otfs_n": True}}])
    def test_malformed_values(self, doc, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        rc, _, err = run(["metrics", "--config", str(cfg)], capsys)
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1

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
