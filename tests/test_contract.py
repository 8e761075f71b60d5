"""The input contract, held by one table over hvsim.__all__.

Every callable that hvsim exports has one row in ROWS (exception classes
excluded), and the table fails when an export has none. A row lists bad
inputs for the callable's integer, real, string and state parameters, each a
call with every other argument valid; each must raise an HvsimError with no
warning. The kinds: a bool or a float where an integer belongs; nan and
+-inf; a negative or out-of-range number; a wrong dimension or length; a
stream key that is no sequence or lacks its seed or its case; and a wrong
type (a string or a complex number where a real belongs, a non-numeric
sequence where amplitudes or a matrix belong). Operator-, expression- and
generator-typed parameters stay duck-typed and are out of the table, and so
are free-text labels; a callable with nothing to refuse has an empty row.
A few rows also call a method of the export's instances, marked `on`.

The same file checks that __all__ exports no module and that src/hvsim
raises no built-in exception class itself: every refusal is an HvsimError,
which is still the built-in its site used to raise.
"""

from __future__ import annotations

import ast
import builtins
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import hvsim
from hvsim import (HiddenState, HvsimError, Leaf, ScriptedUniforms, StatReport, basis_ket,
                   identity, pauli, peres_mermin)

NAN, INF = float("nan"), float("inf")
SRC = Path(__file__).resolve().parent.parent / "src" / "hvsim"

# Bad values by parameter kind; a row adds the out-of-range ones its bounds refuse.
NOT_INTEGERS = (True, 2.0, 2.5, NAN, INF, "2", 1j)
NOT_COUNTS = NOT_INTEGERS + (-1,)  # a whole number of at least 0
NOT_POSITIVE = NOT_COUNTS + (0,)  # a whole number of at least 1
NOT_REALS = (True, "0.4", 1j, NAN, INF, -INF, 10**400)
NOT_SCALARS = NOT_REALS + (0.0, 1.0, -0.5, 1.5)  # a hidden scalar, inside (0, 1)
NOT_SCALAR_ARRAYS = ([True], ["0.4"], [1j], [NAN], [INF], [0.0], [1.0], [0.5, -0.5],
                     [[0.5], [0.5, 0.5]])
NOT_AMPLITUDES = ("ab", [None, 1.0], [[1.0], [1.0, 0.0]], [True, False])
NOT_STATES = NOT_AMPLITUDES + ([], [[1.0, 0.0]], [1.0, 1.0], [NAN, 0.0], [INF, 0.0])
NOT_MATRICES = ("x", [[1, "a"], ["a", 1]], [[1], [1, 0]], [[True, False], [False, True]],
                [1.0, 0.0], [[1.0, 0.0, 0.0]], [], [[NAN]], [[INF]])
# A stream key (seed, *path), or a case key (seed, *path, case) that also
# refuses a seed alone: no sequence, no seed, a float, a bool, a negative entry.
NOT_KEYS = (5, None, np.array(5), (), (0.5, 0), (True, 0), (0, -1))

Z = pauli("z")
KET0 = basis_ket(2, 0)
KET3 = [1.0, 0.0, 0.0]  # a unit state of the wrong dimension for Z
HIDDEN = HiddenState(KET0, 0.4)
SQUARE = peres_mermin()
COLUMN3 = SQUARE.column_expression(3)  # -I, so every state of C^4 is its eigenstate
GRID = [list(row) for row in SQUARE.grid]
REPORT = StatReport(observable_label="Z", trials=10, outcome_frequencies={-1.0: 0.5, 1.0: 0.5},
                    expected_probabilities={-1.0: 0.5, 1.0: 0.5}, max_sigma_deviation=0.0,
                    tolerance_sigma=5.0, passed=True)


def rng():
    return np.random.default_rng(0)


def bad(*args, **kwargs):
    """One bad call of the row's export."""
    return None, args, kwargs


def on(method, *args, **kwargs):
    """One bad call of a method of the row's export."""
    return method, args, kwargs


def varied(good, index, values):
    """Bad calls of the export: the arguments `good` with entry `index`
    replaced by each of `values`."""
    return [bad(*good[:index], value, *good[index + 1:]) for value in values]


def stat_report(outcome_frequencies):
    return bad(**{**vars(REPORT), "outcome_frequencies": outcome_frequencies})


ROWS = {
    # operators
    "HermitianOperator": varied((None,), 0, NOT_MATRICES + ([[0, 1], [0, 0]],)),
    "PureState": varied((None,), 0, NOT_STATES),
    "SpectralDecomposition": varied((Z.spectrum().values, Z.spectrum().vectors,
                                     Z.spectrum().offsets, 0.0), 3, NOT_REALS + (-1.0,))
    + [on(Z.spectrum().branch_index, value) for value in NOT_REALS],
    "amplitude_pairs": varied((None,), 0, NOT_AMPLITUDES),
    "basis_ket": varied((2, 0), 0, NOT_POSITIVE) + varied((2, 0), 1, NOT_INTEGERS + (2, -1)),
    "commutator_norm": [bad(Z, identity(4))],
    "commuting_family": varied((None, rng()), 0, (
        [["a"]], [[NAN, 1.0]], [[INF]], [[True]], [[1j]], [], [[[1.0]]], [[1.0], [1.0, 2.0]])),
    "haar_amplitudes": varied((None,), 0, NOT_SCALAR_ARRAYS + (
        [0.0, 0.5], [0.5], 0.5, [[0.5, 0.5, 0.5]], np.empty((2, 0)))),
    "haar_state": varied((2, rng()), 0, NOT_POSITIVE),
    "identity": varied((2,), 0, NOT_POSITIVE),
    "identity_scalar": varied((None,), 0, NOT_MATRICES + (np.diag([1.0, 2.0]), 1j * np.eye(2))),
    "normalized": varied((None,), 0, NOT_AMPLITUDES + ([0.0, 0.0], [NAN, 0.0], [INF, 0.0])),
    "operators_equal": [],
    "pauli": varied((None,), 0, ("q", "", 3, None, ["x"])),
    "phase_distance": [bad("ab", KET0), bad(KET0, [None, 1.0]), bad(KET0, KET3)],
    "random_hermitian": varied((2, rng()), 0, NOT_POSITIVE),
    "random_unitary": varied((2, rng()), 0, NOT_POSITIVE),
    "spectral": varied((Z, None), 1, NOT_REALS + (-1e-9,)),
    "tensor": [],
    # model
    "Events": [],
    "HiddenState": varied((KET0, 0.4), 0, NOT_STATES) + varied((KET0, 0.4), 1, NOT_SCALARS),
    "MeasurementRecord": [],
    "ScriptedUniforms": [bad([value]) for value in NOT_SCALARS],
    "as_decomposition": varied((None,), 0, ("x", Z.matrix)),
    "branch_indices": varied((Z, KET0, [0.5]), 1, NOT_STATES + (KET3,))
    + varied((Z, KET0, [0.5]), 2, NOT_SCALAR_ARRAYS),
    "case_slot": varied(((0, 0), 2), 0, ((0,), (1.5, 0), (0, -1), (0, True), (-1, 0)))
    + varied(((0, 0), 2), 1, NOT_COUNTS),
    "draw_hidden": [bad(ScriptedUniforms([]))],
    "draw_hidden_batch": varied((rng(), 2), 1, NOT_COUNTS),
    "measure": [bad(Z, HIDDEN, ScriptedUniforms([]))],
    "predict": [bad(Z, HiddenState(KET3, 0.4))],
    "predict_batch": varied((Z, KET0, [0.5]), 1, NOT_STATES + (KET3,))
    + varied((Z, KET0, [0.5]), 2, NOT_SCALAR_ARRAYS),
    "predict_each": [bad([], HIDDEN), bad([Z], HiddenState(KET3, 0.4))],
    "substream": varied((0,), 0, NOT_COUNTS) + [bad(0, 1.5), bad(0, -1), bad(0, True)],
    "update": varied((Z, HIDDEN, 1.0), 2, NOT_REALS + (7.0, -1.0)),
    # expressions
    "Leaf": varied((None,), 0, ("x", Z.matrix)),
    "ObservableExpression": varied((None,), 0, ("x", Z)),
    "PeresMerminSquare": varied((None,), 0, (
        GRID[:2], [row[:2] for row in GRID], [[identity(4)] * 3] * 3,
        [[hvsim.HermitianOperator(2 * np.eye(4))] * 3] * 3))
    + [on(SQUARE.forced_value, axis, 1) for axis in ("diagonal", 3, ["row"])]
    + [on(SQUARE.forced_value, "row", index) for index in NOT_INTEGERS + (0, 4, -1)]
    + [on(SQUARE.row_operators, 4), on(SQUARE.column_expression, True)],
    "Product": [bad(), bad("x")],
    "Scale": varied((None, Leaf(Z)), 0, ("a", True, NAN, INF, complex(NAN, 0), [1.0, 2.0]))
    + [bad(2.0, "x")],
    "Sum": [bad(), bad("x")],
    "eval_operator": [],
    "eval_real": varied((COLUMN3, None), 1, (
        ["a", "b", "c"], [NAN, 1.0, 1.0], [INF, 1.0, 1.0], [True, True, True],
        [1j, 1.0, 1.0], [1.0, 1.0], [1.0, [1.0, 1.0], 1.0])),
    "eval_real_block": varied((COLUMN3, None), 1, (
        [["a", "b", "c"]], [[NAN, 1.0, 1.0]], [[1.0, 1.0, -INF]], [[True] * 3], [[1.0, 1.0]],
        [[1.0, 1.0, 1.0], [1.0, 1.0]])),
    "implications_operators": [],
    "peres_mermin": [],
    # consistency
    "ConsistencyReport": [],
    "NoGoResult": [],
    "PropositionSummary": [],
    "check_strong_fc": [bad(COLUMN3, HIDDEN)],
    "check_weak_fc": varied((COLUMN3, HiddenState(basis_ket(4, 0), 0.4), (0, 1, 2), rng()), 2, (
        (0, 1, 2.0), (0, 1, True), (0, 1, -1), (0, 1, 1), (0, 1)))
    + [bad(COLUMN3, HiddenState(basis_ket(4, 0), 0.4), (0, 1, 2), rng(), key)
       for key in ((0.5, 0), (-1, 0), (0, True))],
    "no_go_search": [],
    "verify_proposition": varied((COLUMN3, basis_ket(4, 0), 1, (0, 6)), 1, NOT_STATES + (KET0,))
    + varied((COLUMN3, basis_ket(4, 0), 1, (0, 6)), 2, NOT_POSITIVE)
    + varied((COLUMN3, basis_ket(4, 0), 1, (0, 6)), 3, ((1.5,), (-1,), (True,), (0, 2.5))),
    # experiments
    "ChshReport": [],
    "ImplicationsReport": [],
    "LineProductReport": [],
    "StatReport": [stat_report({-1.0: 0.5, 1.0: 0.4}), stat_report({1.0: NAN})]
    + [on(REPORT.frequency, value) for value in NOT_REALS + (0.0,)]
    + [on(REPORT.expected, value) for value in NOT_REALS + (0.0,)],
    "Table1Report": [],
    "TableIteration": [],
    "bell_state": [],
    "born_experiment": varied((KET0, Z, 10, 0, 5.0), 0, NOT_STATES + (KET3,))
    + varied((KET0, Z, 10, 0, 5.0), 1, ("x",))
    + varied((KET0, Z, 10, 0, 5.0), 2, NOT_POSITIVE)
    + varied((KET0, Z, 10, 0, 5.0), 3, NOT_COUNTS)
    + varied((KET0, Z, 10, 0, 5.0), 4, NOT_REALS + (0.0, -1.0)),
    "born_scenario_sweep": varied((1, 10, 0), 0, NOT_COUNTS)
    + varied((1, 10, 0), 1, NOT_POSITIVE) + varied((1, 10, 0), 2, NOT_COUNTS),
    "chsh_experiment": varied((10, 0, "product"), 0, NOT_POSITIVE)
    + varied((10, 0, "product"), 1, NOT_COUNTS)
    + varied((10, 0, "product"), 2, ("parallel", 3, None, ["product"])),
    "column_product_experiment": varied((3, 1, 0, "column"), 0, NOT_INTEGERS + (0, 4, -1))
    + varied((3, 1, 0, "column"), 1, NOT_POSITIVE) + varied((3, 1, 0, "column"), 2, NOT_COUNTS)
    + varied((3, 1, 0, "column"), 3, ("diagonal", 3, None, ["row"])),
    "implications_demo": varied((0.4, None), 0, NOT_SCALARS)
    + varied((0.4, None), 1, NOT_STATES + (KET0,)),
    "replay_table1": [],
    "spin_state": varied((None,), 0, NOT_REALS),
}

# Rows added after the table was first numbered: they come last, so that every
# earlier case keeps its id. A count of 0 still refuses its other arguments.
LATER_ROWS = {
    "born_scenario_sweep": varied((0, 10, 0), 1, NOT_POSITIVE) + varied((0, 10, 0), 2, NOT_COUNTS),
    "Events": [bad(("a",), *columns) for columns in (
        ([0, 1], [0], [0.5, 0.5], [1.0, 1.0]), ([0], [0], [0.5, 0.5], [1.0]),
        ([0, 1], [0, 0], [0.5, 0.5], [1.0]), ([[0, 1]], [0, 0], [0.5, 0.5], [1.0, 1.0]),
        (0, 0, 0.5, 1.0), ([0], [0], [[0.5]], [1.0]))]
    + varied((("a", "b"), [0], [0], [0.5], [1.0]), 2, ([2], [-1], [0.0], [True], ["0"])),
    "case_slot": [bad(key, 2) for key in NOT_KEYS + ((0,),)],
    "check_weak_fc": [bad(COLUMN3, HiddenState(basis_ket(4, 0), 0.4), (0, 1, 2), rng(), key)
                      for key in NOT_KEYS[:1] + NOT_KEYS[2:] + ((0,),)],  # None: no key
    "verify_proposition": varied((COLUMN3, basis_ket(4, 0), 1, (0, 6)), 3, NOT_KEYS),
}

CASES = [(name, *entry) for rows in (ROWS, LATER_ROWS)
         for name, entries in rows.items() for entry in entries]


def exported_callables():
    """Every callable in hvsim.__all__ but the exception classes."""
    return {name for name in hvsim.__all__
            if callable(getattr(hvsim, name))
            and not (isinstance(getattr(hvsim, name), type)
                     and issubclass(getattr(hvsim, name), BaseException))}


def test_every_exported_callable_has_a_row():
    assert set(ROWS) == exported_callables()


@pytest.mark.parametrize("name, method, args, kwargs", CASES,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(CASES)])
def test_a_bad_input_raises_an_hvsim_error(name, method, args, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HvsimError):
            (method or getattr(hvsim, name))(*args, **kwargs)


def test_all_exports_no_module():
    assert not [name for name in hvsim.__all__
                if isinstance(getattr(hvsim, name), types.ModuleType)]
    namespace = {}
    exec("from hvsim import *", namespace)
    assert not {"consistency", "errors", "experiments", "expressions", "model",
                "operators"} & set(namespace)
    assert set(hvsim.__all__) <= set(namespace)


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def test_src_raises_no_builtin_exception():
    """A raise of a built-in exception class, called or not, is a refusal
    outside the HvsimError hierarchy; a bare re-raise is not."""
    plain = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id in BUILTIN_EXCEPTIONS:
                    plain.append(f"{path.name}:{node.lineno} raises {target.id}")
    assert not plain
