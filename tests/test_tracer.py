"""The benchmark's span tracer (perfbench/tracer.py) still finds every name it
wraps, and puts every binding back. The tracer is read from its file, so
this test writes nothing under perfbench/."""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hvsim import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def _bindings(tracer) -> dict:
    """Every binding of every hvsim module, and every traced method."""
    found = {(name, key): value for name, module in list(sys.modules.items())
             if name == "hvsim" or name.startswith("hvsim.")
             for key, value in vars(module).items()}
    for module, cls, attr in tracer.METHODS.values():
        owner = getattr(sys.modules[module], cls)
        found[(module, cls, attr)] = vars(owner)[attr]
    return found


def test_every_traced_name_resolves(tracer):
    for name, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    for name, (module, cls, attr) in tracer.METHODS.items():
        assert attr in vars(getattr(importlib.import_module(module), cls)), name


def test_install_and_uninstall_round_trip_around_a_call(tracer, capsys):
    argv = ["born", "--trials", "10", "--format", "json"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    before = _bindings(tracer)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.main(argv) == 0  # through the module, whose binding is wrapped
    finally:
        spans.uninstall()
    assert capsys.readouterr().out == untraced
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    calls = np.bincount(spans.arrays()["name"], minlength=len(tracer.NAMES))
    for name in ("cli.main", "experiments.born_experiment", "model.substream",
                 "model.draw_hidden_batch", "operators.weights"):
        assert calls[tracer.NAMES.index(name)] >= 1, name
