"""Every call of the benchmark's four workloads (perfbench/workloads.py) passes
the benchmark's own output check. The workloads are read from their file, so
this test writes nothing under perfbench/."""

import contextlib
import io
import types
from pathlib import Path

import pytest

from hvsim.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 2024


def _load():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)  # it finds its frozen outputs next to itself
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), vars(module))
    return module


_CALLS = [pytest.param(call, id=f"{name}-{index}")
          for name, build in _load().WORKLOADS.items()
          for index, call in enumerate(build(SEED).calls)]


@pytest.mark.parametrize("call", _CALLS)
def test_call_passes_the_benchmark_check(call):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(call.argv))
    assert code == 0
    assert call.check(buffer.getvalue()) is None
