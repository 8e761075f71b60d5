"""Every pinned report, rerun under other OpenBLAS kernels.

numpy's OpenBLAS wheels are built with DYNAMIC_ARCH: OpenBLAS picks a kernel
for the CPU when it loads, and the OPENBLAS_CORETYPE environment variable
overrides the pick. Kernels round differently, so a report that reads the
last bit of an eigensolver result can change from host to host. For each
kernel one subprocess reruns every pinned argument list through
hvsim.cli.main; each pin is then its own test. The same subprocess runs the
predict_each and run_sequence differentials of test_model, at edge c too,
since whether a batched product keeps each operator's or each row's bits
depends on the kernel.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_LINES, PINNED, PINS

ROOT = Path(__file__).resolve().parents[1]
# On x86-64 OpenBLAS, Prescott shares one kernel table with Katmai, Coppermine,
# Northwood and Core2, and reports the first of them: Prescott (reported as Katmai).
KERNELS = ("Haswell", "Prescott")
# test_model's run_sequence differentials at edge c, each returning (cases,
# mismatches), with the number of cases each checks.
EDGE_DIFFERENTIALS = {"first_step_edge_mismatches": 2700, "second_step_edge_mismatches": 1800,
                      "row_independence_mismatches": 1800}
DIFFERENTIALS = ("predict_each_mismatches", "run_sequence_mismatches", *EDGE_DIFFERENTIALS)

# Reads (pin, argv) pairs and differential names as JSON on stdin; writes
# {pin: stdout}, each differential's (cases, mismatches) and the kernel
# OpenBLAS reports it chose.
_RERUN = """
import contextlib, ctypes, glob, io, json, os, sys
import numpy
import test_model
from hvsim.cli import main
pins, differentials = json.load(sys.stdin)
outputs = {}
for pin, argv in pins:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(argv)
    outputs[pin] = buffer.getvalue()
core = "unknown"
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
json.dump({"outputs": outputs, "core": core,
           "differentials": {name: getattr(test_model, name)() for name in differentials}},
          sys.stdout)
"""


def _why_not_dynamic() -> str | None:
    """Why OPENBLAS_CORETYPE cannot pick numpy's BLAS kernel, or None if it can."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    if "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in config.split():
        return None
    return (f"numpy's BLAS is {blas.get('name', 'unknown')!r}"
            f" ({config or 'no OpenBLAS configuration'}), not a DYNAMIC_ARCH OpenBLAS,"
            " so OPENBLAS_CORETYPE selects no kernel")


@functools.cache
def _rerun(kernel: str) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _RERUN], input=json.dumps([PINS, DIFFERENTIALS]),
                          env=env, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout)
    cases = ", ".join(f"{result['differentials'][name][0]} {name.removesuffix('_mismatches')}"
                      for name in DIFFERENTIALS)
    core = kernel if result["core"] == kernel else f"{kernel} (reported as {result['core']})"
    KERNEL_LINES.append(f"OPENBLAS_CORETYPE={kernel}, OpenBLAS core {core}:"
                        f" {len(PINS)} pinned reports and differential cases ({cases}) rerun"
                        " in one subprocess")
    return result


@functools.cache
def _skip_reason() -> str | None:
    reason = _why_not_dynamic()
    if reason is not None:
        KERNEL_LINES.append(f"kernel reruns skipped: {reason}")
    return reason


@pytest.mark.parametrize("kernel", KERNELS)
@PINNED
def test_pinned_report_under_kernel(kernel, pin, argv):
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)
    got = _rerun(kernel)["outputs"][pin].splitlines(keepends=True)
    want = (ROOT / pin).read_text(encoding="utf-8").splitlines(keepends=True)
    # Name the first differing line rather than diff two long reports.
    first = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    same = got == want
    assert same, (f"{pin} under OPENBLAS_CORETYPE={kernel}: line {first + 1} reads"
                  f" {got[first:first + 1]}, pinned {want[first:first + 1]}")


def _differential(kernel, name):
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)
    cases, mismatches = _rerun(kernel)["differentials"][name]
    assert mismatches == []
    return cases


@pytest.mark.parametrize("kernel", KERNELS)
def test_predict_each_matches_predict_under_kernel(kernel):
    assert _differential(kernel, "predict_each_mismatches") > 3000


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_sequence_matches_measure_under_kernel(kernel):
    assert _differential(kernel, "run_sequence_mismatches") == 1280


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name, cases", EDGE_DIFFERENTIALS.items())
def test_run_sequence_at_edges_under_kernel(kernel, name, cases):
    assert _differential(kernel, name) == cases
