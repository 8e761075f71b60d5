"""Every pinned report, rerun under other OpenBLAS kernels.

numpy's OpenBLAS wheels are built with DYNAMIC_ARCH: OpenBLAS picks a kernel
for the CPU when it loads, and the OPENBLAS_CORETYPE environment variable
overrides the pick. Kernels round differently, so a report that reads the
last bit of an eigensolver result can change from host to host. For each
kernel one subprocess reruns every pinned argument list through
hvsim.cli.main; each pin is then its own test. The same subprocess runs the
predict_each and run_sequence differentials of test_model, since whether a
batched product keeps each operator's or each row's bits depends on the kernel.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (ARGUED_COMMANDS, FROZEN_COMMANDS, KERNEL_LINES, MULTI_BLOCK_SHOTS,
                      SEEDED_SWEEPS, SINGLE_SHOTS, TEXT_PINS)

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("Haswell", "Prescott")

PINS = [(f"perfbench/expected/{command}.json", (command, "--format", "json"))
        for command in FROZEN_COMMANDS]
PINS.append(("tests/expected/table1.csv", ("table1", "--format", "csv")))
for name, argv in SEEDED_SWEEPS + SINGLE_SHOTS:
    for fmt in ("csv", "json"):
        PINS.append((f"tests/expected/{name}.{fmt}", (*argv, "--format", fmt)))
for name, argv in MULTI_BLOCK_SHOTS + ARGUED_COMMANDS:
    PINS.append((f"tests/expected/{name}.json", (*argv, "--format", "json")))
for name, argv in TEXT_PINS:
    PINS.append((f"tests/expected/{name}.txt", (*argv, "--format", "text")))
PINS = [pytest.param(pin, argv, id=pin) for pin, argv in PINS]

# Reads (pin, argv) pairs as JSON on stdin; writes {pin: stdout}, the
# predict_each and run_sequence differentials' (cases, mismatches) and the
# kernel OpenBLAS reports it chose.
_RERUN = """
import contextlib, ctypes, glob, io, json, os, sys
import numpy
from hvsim.cli import main
from test_model import predict_each_mismatches, run_sequence_mismatches
outputs = {}
for pin, argv in json.load(sys.stdin):
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
json.dump({"outputs": outputs, "predict_each": predict_each_mismatches(),
           "run_sequence": run_sequence_mismatches(), "core": core}, sys.stdout)
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
    pins = [param.values for param in PINS]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _RERUN], input=json.dumps(pins), env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout)
    KERNEL_LINES.append(f"OPENBLAS_CORETYPE={kernel} (OpenBLAS core {result['core']}):"
                        f" {len(pins)} pinned reports, {result['predict_each'][0]} predict_each"
                        f" cases and {result['run_sequence'][0]} run_sequence rows rerun in one"
                        " subprocess")
    return result


@functools.cache
def _skip_reason() -> str | None:
    reason = _why_not_dynamic()
    if reason is not None:
        KERNEL_LINES.append(f"kernel reruns skipped: {reason}")
    return reason


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("pin, argv", PINS)
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


@pytest.mark.parametrize("kernel", KERNELS)
def test_predict_each_matches_predict_under_kernel(kernel):
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)
    cases, mismatches = _rerun(kernel)["predict_each"]
    assert mismatches == [] and cases > 3000


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_sequence_matches_measure_under_kernel(kernel):
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)
    cases, mismatches = _rerun(kernel)["run_sequence"]
    assert mismatches == [] and cases == 1280
