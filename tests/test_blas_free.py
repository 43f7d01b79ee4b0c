"""No reduction in the package reaches BLAS.

A threaded BLAS (OpenBLAS) splits a long dot product between its threads,
so the rounding of the sum follows the thread count. The package sums with
``signal_core.sum_of_products`` and ``einsum`` without ``optimize`` instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddopkit
from ddopkit.signal_core import sum_of_products

PACKAGE = Path(ddopkit.__file__).parent
# Calls that numpy hands to BLAS, as np.<name>(...) or as an ndarray method.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every BLAS-bound call, ``@`` or optimized einsum in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_call_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert blas_uses(tree) == []


@pytest.mark.parametrize("source, what", [
    ("np.dot(a, b)", "dot"),
    ("numpy.vdot(a, b)", "vdot"),
    ("np.inner(a, b)", "inner"),
    ("np.matmul(a, b)", "matmul"),
    ("np.tensordot(a, b, 1)", "tensordot"),
    ("a.dot(b)", "dot"),
    ("c = a @ b", "@"),
    ("c @= b", "@"),
    ("np.einsum('i,i->', a, b, optimize=True)", "einsum(optimize=...)"),
])
def test_guard_sees_each_blas_call(source, what):
    assert blas_uses(ast.parse(source)) == [(1, what)]


def test_guard_passes_plain_einsum():
    assert blas_uses(ast.parse("np.einsum('ij,j->i', a, b)\nsum_of_products(a, b)")) == []


def test_sum_of_products():
    a = np.array([1.0, 2.0, 3.0])
    assert sum_of_products(a, a[::-1]) == 10.0
    z = np.array([1 + 2j, 3 - 1j])
    assert sum_of_products(z.conj(), z) == 15.0


def test_sweep_report_does_not_depend_on_the_blas_thread_count():
    """The btrrc beta sweep of the default M = 256, N = 8 train sums vectors
    long enough for OpenBLAS to thread; its report is byte-identical under
    one and two BLAS threads."""
    argv = [sys.executable, "-m", "ddopkit.cli", "sweep", "--vary", "beta", "--steps", "11",
            "--subpulse", "btrrc", "--N", "8", "--from", "0.2", "--to", "0.7", "--format", "csv"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
