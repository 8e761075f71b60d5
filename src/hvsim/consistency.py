"""Functional-consistency checkers and the value-assignment no-go search.

Two notions are checked. Strong consistency evaluates everything on one
frozen hidden state: does predicting f's operator give the same number as
plugging the per-leaf predictions into f? Weak consistency measures the
leaves one after another (with collapse and a fresh hidden scalar each step)
and compares the composed value against predicting f on the initial state.
The no-go search shows why strong consistency must fail somewhere: no global
+-1 assignment to the square's nine observables respects all six row and
column product constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DimensionMismatchError, NotAnEigenstateError
from .model import (VALUE_TOL, Events, HiddenState, ScriptedUniforms, SweepSummary, measure,
                    predict, predict_batch, predict_each, run_sequence, substream, sweep, whole)
from .operators import PureState
from .expressions import (ObservableExpression, PeresMerminSquare, eval_operator, eval_real,
                          eval_real_block)

import numpy as np

FAILURE_EXAMPLES = 3  # failing cases of a sweep that keep a full report


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of one functional-consistency comparison."""

    scenario_label: str
    lhs_value: float
    rhs_value: float
    holds: bool
    details: dict

    def as_dict(self) -> dict:
        return {
            "scenario_label": self.scenario_label,
            "lhs_value": float(self.lhs_value),
            "rhs_value": float(self.rhs_value),
            "holds": bool(self.holds),
            "details": self.details,
        }


def _leaf_label(op, position: int) -> str:
    return op.label if op.label is not None else f"leaf{position}"


def check_strong_fc(f: ObservableExpression, hidden: HiddenState) -> ConsistencyReport:
    """Compare predict(f as one operator) with f(per-leaf predictions), both
    on the same hidden state. No collapse, no randomness."""
    if f.dim != hidden.state.dim:
        raise DimensionMismatchError(
            f"expression dimension {f.dim} != state dimension {hidden.state.dim}"
        )
    lhs, *leaves = predict_each((eval_operator(f), *f.operators), hidden)
    rhs = eval_real(f, leaves)
    labels = [_leaf_label(op, i) for i, op in enumerate(f.operators)]
    details = {
        "c": float(hidden.c),
        # Leaves sharing a label are told apart by their position.
        "leaf_values": {
            (f"{label}[{i}]" if labels.count(label) > 1 else label): float(value)
            for i, (label, value) in enumerate(zip(labels, leaves))
        },
    }
    return ConsistencyReport(
        scenario_label=f.describe(),
        lhs_value=float(lhs),
        rhs_value=float(rhs),
        holds=abs(lhs - rhs) <= VALUE_TOL,
        details=details,
    )


def check_weak_fc(f: ObservableExpression, initial: HiddenState, permutation,
                  rng, key: tuple[int, ...] | None = None) -> ConsistencyReport:
    """Measure the distinct leaves sequentially in the given order and compare
    f(measured values) with predicting f's operator on the initial state.

    The first step consumes the initial hidden scalar; every later step runs
    on the collapsed state re-armed from `rng` (one draw per event). A case
    `key` (seed, *path, case) of whole numbers that replays the run is
    recorded in the details.
    """
    ops = f.operators
    permutation = tuple(whole(k, "permutation entry") for k in permutation)
    if sorted(permutation) != list(range(len(ops))):
        raise ValueError(
            f"permutation {permutation} does not arrange {len(ops)} leaves"
        )
    lhs = float(predict(eval_operator(f), initial))
    hidden = initial
    records = []
    leaf_values = [0.0] * len(ops)
    for position in permutation:
        op = ops[position]
        record, hidden = measure(op, hidden, rng,
                                 label=_leaf_label(op, position))
        records.append(record)
        leaf_values[position] = record.value
    rhs = float(eval_real(f, leaf_values))
    details = {
        "permutation": list(permutation),
        "initial_c": float(initial.c),
        "c_values": [float(r.c_used) for r in records],
        "steps": [r.as_dict() for r in records],
    }
    if key is not None:
        details["key"] = [whole(k, "key entry") for k in key]
    return ConsistencyReport(
        scenario_label=f.describe(),
        lhs_value=lhs,
        rhs_value=rhs,
        holds=abs(lhs - rhs) <= VALUE_TOL,
        details=details,
    )


@dataclass(frozen=True, kw_only=True)
class PropositionSummary(SweepSummary):
    """Aggregate result of sweeping weak consistency over trials x orders."""

    expression: str
    failure_examples: tuple[ConsistencyReport, ...]

    def as_dict(self) -> dict:
        return {
            "expression": self.expression,
            **super().as_dict(),
            "failure_examples": [r.as_dict() for r in self.failure_examples],
        }


def verify_proposition(f: ObservableExpression, state, trials: int, key,
                       sink=None) -> PropositionSummary:
    """Check weak functional consistency for an eigenstate of f's operator.

    Requires the initial state to be an eigenvector of the evaluated
    expression (that precondition is what pins the predicted value and makes
    the sequential product forced); sweeps every permutation of the leaves
    for each trial. Case t * permutations + p runs permutation p on the slot
    of len(leaves) + 1 scalars it reads from substream(*key), where key is
    (seed, *path); the first FAILURE_EXAMPLES failing cases are kept, each with
    its replay key (seed, *path, case).
    `sink`, if given, receives each block of cases' events, one per case:
    its first scalar and composed value, set to its permutation.
    """
    trials = whole(trials, "trials", least=1)
    state = state if isinstance(state, PureState) else PureState(state)
    op = eval_operator(f)
    amps = state.amplitudes
    expectation = op.expectation(state)
    residual = float(np.linalg.norm(op.matrix @ amps - expectation * amps))
    if residual > 1e-9:
        raise NotAnEigenstateError(
            f"state is not an eigenvector of the expression operator"
            f" (residual {residual:.3e})"
        )
    ops = f.operators
    permutations = list(itertools.permutations(range(len(ops))))
    names = tuple(f"perm({','.join(str(k) for k in p)})" for p in permutations)
    passes = 0
    examples: list[ConsistencyReport] = []
    # Like HiddenState.draw plus one measure per leaf, a case takes
    # len(ops) + 1 scalars; the last decides nothing.
    for case, which, orders, cs in sweep(substream(*key), trials, len(ops) + 1, permutations):
        lhs = predict_batch(op, state, cs[:, 0])
        values = np.empty((len(cs), len(ops)))  # column k holds leaf k's reading
        np.put_along_axis(values, orders, run_sequence(ops, state, cs[:, :-1], orders), axis=1)
        rhs = eval_real_block(f, values)
        failed = np.flatnonzero(~(np.abs(lhs - rhs) <= VALUE_TOL))
        passes += len(cs) - len(failed)
        for i in failed[:FAILURE_EXAMPLES - len(examples)]:
            examples.append(check_weak_fc(f, HiddenState(state, cs[i, 0]), orders[i],
                                          ScriptedUniforms(cs[i, 1:]), key=(*key, case[i])))
        if sink is not None:
            sink(Events(names, case, which, cs[:, 0], rhs))
    return PropositionSummary(
        expression=f.describe(),
        trials=trials,
        permutation_count=len(permutations),
        passes=passes,
        failure_examples=tuple(examples),
    )


@dataclass(frozen=True)
class NoGoResult:
    """Census of global +-1 assignments against the six product constraints.

    parity_even_count tallies assignments meeting all three row constraints
    (whose product targets multiply to +1, forcing an even number of -1
    entries in the grid); parity_odd_count tallies the column side (targets
    multiply to -1, forcing an odd count). A nonzero overlap would need a
    grid with both parities at once, hence satisfying_assignments == 0.
    """

    total_assignments: int
    satisfying_assignments: int
    parity_odd_count: int
    parity_even_count: int

    def as_dict(self) -> dict:
        return {
            "total_assignments": int(self.total_assignments),
            "satisfying_assignments": int(self.satisfying_assignments),
            "parity_odd_count": int(self.parity_odd_count),
            "parity_even_count": int(self.parity_even_count),
        }


# Every +-1 assignment to the square's nine cells as a 3x3 grid, in the order
# of itertools.product((1, -1), repeat=9): cell k of assignment n is -1 where
# bit 8 - k of n is set. Then each assignment's three row and three column
# products.
_ASSIGNMENTS = (1 - 2 * ((np.arange(512)[:, None] >> np.arange(8, -1, -1)) & 1)).reshape(-1, 3, 3)
_ROW_PRODUCTS = _ASSIGNMENTS.prod(axis=2)
_COL_PRODUCTS = _ASSIGNMENTS.prod(axis=1)


def no_go_search(square: PeresMerminSquare) -> NoGoResult:
    """Count all 2^9 assignments of +-1 to the square's cells against the
    row and column product constraints, as one table of assignments.

    The row/column product targets are taken from the square itself (it
    computes them from its operator products at construction), not from
    constants here.
    """
    rows_ok = (_ROW_PRODUCTS == square.row_values).all(axis=1)
    cols_ok = (_COL_PRODUCTS == square.col_values).all(axis=1)
    return NoGoResult(
        total_assignments=len(_ASSIGNMENTS),
        satisfying_assignments=int(np.count_nonzero(rows_ok & cols_ok)),
        parity_odd_count=int(np.count_nonzero(cols_ok)),
        parity_even_count=int(np.count_nonzero(rows_ok)),
    )
