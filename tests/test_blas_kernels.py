"""Every pinned report, rerun under other OpenBLAS kernels.

numpy's OpenBLAS wheels are built with DYNAMIC_ARCH: OpenBLAS picks a kernel
for the CPU when it loads, and the OPENBLAS_CORETYPE environment variable
overrides the pick. Kernels round differently, so a report that reads the
last bit of an eigensolver result can change from host to host. For each
kernel one subprocess reruns every pinned argument list through
hvsim.cli.main, the kernels' subprocesses running at once; each pin is then
its own test. The same subprocess runs every row of test_model's route table,
DIFFERENTIALS, with a nan warning an error as in-process: whether a stacked
product keeps each operator's or each row's bits, how the branch weights at
MIN_BRANCH_WEIGHT round, and the weights and collapses a shared start's tree
is built from all depend on the kernel, and select, tally and predict_each
read every state's edges through _Family.edges's stacked product.
"""

import contextlib
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_LINES, PINNED, PINS
from test_model import assert_differential

ROOT = Path(__file__).resolve().parents[1]
# On x86-64 OpenBLAS, Prescott shares one kernel table with Katmai, Coppermine,
# Northwood and Core2, and reports the first of them: Prescott (reported as Katmai).
KERNELS = ("Haswell", "Prescott")
# Reads (pin, argv) pairs as JSON from its first argument; writes {pin:
# stdout}, each row of the route table's (readings, mismatches) and the
# kernel OpenBLAS reports it chose.
_RERUN = """
import contextlib, ctypes, glob, io, json, os, sys
import numpy
import test_model
from hvsim.cli import main
pins = json.loads(sys.argv[1])
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
           "differentials": {name: test_model.run_differential(name)
                             for name in test_model.DIFFERENTIALS}},
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
def _reruns() -> dict:
    """{kernel: what its subprocess wrote}. The subprocesses run at once. Each
    takes its input on its command line, so none waits for the test process
    to feed it, and each is killed if waiting for any of them fails."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                         os.environ.get("PYTHONPATH")]))
    # The nan filter of pyproject's pytest settings; not a blanket "error", as
    # importing hypothesis raises a DeprecationWarning.
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", _RERUN, json.dumps(PINS)]
    results = {}
    with contextlib.ExitStack() as stack:
        children = {}
        for kernel in KERNELS:
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=path)
            children[kernel] = stack.enter_context(subprocess.Popen(
                argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True))
            stack.callback(children[kernel].kill)  # a no-op once it has been waited for
        for kernel, child in children.items():
            out, err = child.communicate(timeout=300)
            if child.returncode:
                raise subprocess.CalledProcessError(child.returncode, argv[:2], out, err)
            results[kernel] = json.loads(out)
    for kernel, result in results.items():
        cases = ", ".join(f"{readings} {name}"
                          for name, (readings, _) in result["differentials"].items())
        core = kernel if result["core"] == kernel else f"{kernel} (reported as {result['core']})"
        KERNEL_LINES.append(f"OPENBLAS_CORETYPE={kernel}, OpenBLAS core {core}:"
                            f" {len(PINS)} pinned reports and differential cases ({cases})"
                            " rerun in one subprocess")
    return results


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
    got = _reruns()[kernel]["outputs"][pin].splitlines(keepends=True)
    want = (ROOT / pin).read_text(encoding="utf-8").splitlines(keepends=True)
    # Name the first differing line rather than diff two long reports.
    first = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    same = got == want
    assert same, (f"{pin} under OPENBLAS_CORETYPE={kernel}: line {first + 1} reads"
                  f" {got[first:first + 1]}, pinned {want[first:first + 1]}")


def _differential(kernel, name):
    """Assert that the row `name` of the route table read no mismatch under
    `kernel` and compared the readings the table sets for it."""
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)
    assert_differential(name, _reruns()[kernel]["differentials"][name])


@pytest.mark.parametrize("kernel", KERNELS)
def test_select_matches_binary_search_under_kernel(kernel):
    _differential(kernel, "select")


@pytest.mark.parametrize("kernel", KERNELS)
def test_predict_each_matches_predict_under_kernel(kernel):
    _differential(kernel, "predict_each")


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_sequence_matches_measure_under_kernel(kernel):
    _differential(kernel, "run_sequence")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", ["first_step_edge", "second_step_edge", "row_independence"])
def test_run_sequence_at_edges_under_kernel(kernel, name):
    _differential(kernel, name)


@pytest.mark.parametrize("kernel", KERNELS)
def test_routes_agree_at_the_cutoff_under_kernel(kernel):
    _differential(kernel, "cutoff")


@pytest.mark.parametrize("kernel", KERNELS)
def test_shared_start_tree_matches_measure_under_kernel(kernel):
    _differential(kernel, "shared_start")


@pytest.mark.parametrize("kernel", KERNELS)
def test_family_edges_match_each_operator_under_kernel(kernel):
    _differential(kernel, "family_edges")
