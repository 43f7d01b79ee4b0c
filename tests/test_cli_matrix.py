"""tools/cli_matrix.py's comparison of two records of one case."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "cli_matrix", Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py")
cli_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_matrix)


def csv_record(*rows: str) -> list:
    return [0, "\n".join(("dT,dF", *rows)) + "\n", ""]


def test_last_digit_flip_of_a_csv_cell_is_not_a_move():
    """-0.00029530334748 -> ...479 is one unit in the 12th significant digit:
    3.4e-12 of the cell, reported as a rounding flip; the other column's
    two-unit move is a real one."""
    a = csv_record("-0.00029530334748,1.5", "0.0001,1.5")
    b = csv_record("-0.000295303347479,1.50000000002", "0.0001,1.5")
    move, pct, flip = cli_matrix.largest_move(a, b)
    assert flip == pytest.approx(1e-15 / 0.00029530334748, rel=1e-3, abs=0.0) and pct == 0.0
    assert move == pytest.approx(2e-11 / 1.5, rel=1e-6, abs=0.0)


def test_json_numbers_always_move():
    """A JSON number is printed in full, so the same one-unit step is a real move."""
    a = [0, json.dumps([{"dT": -0.00029530334748}]), ""]
    b = [0, json.dumps([{"dT": -0.000295303347479}]), ""]
    move, pct, flip = cli_matrix.largest_move(a, b)
    assert flip == 0.0 == pct and move == pytest.approx(3.386e-12, rel=1e-3, abs=0.0)


def test_pct_columns_move_apart_in_points():
    """A _pct column is a percent difference of nearly equal numbers: its move
    is reported in absolute percentage points, apart from the measured
    columns' relative move, which it would otherwise swamp."""
    row = {"parameter": "DDOP", "ΔT_num": 6.8349927725538056, "κ_pct": 0.0009402281804723303,
           "energy_capture": 0.9999999394769518, "status": "ok"}
    moved = dict(row, **{"ΔT_num": 6.834992772553807, "κ_pct": 0.0009402281805123303})
    a, b = [0, json.dumps([row]), ""], [0, json.dumps([moved]), ""]
    move, pct, flip = cli_matrix.largest_move(a, b)
    step = abs(6.834992772553807 - 6.8349927725538056)
    assert move == pytest.approx(step / 6.8349927725538056, rel=1e-6, abs=0.0)
    assert move < 1e-15 and pct == pytest.approx(4e-14, rel=1e-3, abs=0.0) and flip == 0.0


def test_last_digit_flip_of_a_pct_cell_is_a_flip():
    """A _pct CSV cell printed to 12 digits may flip its last digit too; that
    is a rounding flip, not a move in percentage points."""
    a = [0, "ΔT_pct,κ_pct\n0.784286086842,0.5\n", ""]
    b = [0, "ΔT_pct,κ_pct\n0.784286086843,0.5000000000001\n", ""]
    move, pct, flip = cli_matrix.largest_move(a, b)
    assert move == 0.0 and pct == pytest.approx(1e-13, rel=1e-3, abs=0.0)
    assert flip == pytest.approx(1e-12 / 0.784286086842, rel=1e-3, abs=0.0)


def test_other_differences_are_not_moves():
    a = csv_record("0.5,1.5")
    assert cli_matrix.largest_move(a, [1, *a[1:]]) is None
    assert cli_matrix.largest_move(a, [0, a[1], "error: x\n"]) is None
    assert cli_matrix.largest_move(a, csv_record("0.5,n/a")) is None
