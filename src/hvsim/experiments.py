"""Scripted and randomized experiment drivers with serializable reports.

Everything here is seeded, and every randomized experiment reads its hidden
scalars by one slot rule (draw_hidden_batch): one stream per (seed, tag[,
setting]), in which trial or case t owns the draws [t * width, (t + 1) *
width). Single-shot statistics (Born frequencies, product-mode CHSH
correlators) take width 1 and the sequential sweeps one scalar per step
plus any start-state uniforms, so case_slot replays any trial or case from
its key. Identical (seed, trials) arguments reproduce identical reports.

Each single-shot setting is one model.tally call, which counts trials as
they are drawn, TALLY_BLOCK draws at a time, and sweeps read SWEEP_BLOCK
cases at a time (model.sweep), so neither holds every draw at once.
A driver given a `sink` hands it each block's events as one Events record,
labels included, as soon as the block is decided; with no sink it builds no
events at all. The CSV report is written from those blocks as they arrive,
so it does not hold every row either.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, OutcomeNotFoundError, ReferenceRunMismatchError
from .expressions import implications_operators, peres_mermin
from .model import (
    Events,
    HiddenState,
    MeasurementRecord,
    SweepSummary,
    VALUE_TOL,
    as_decomposition,
    chain,
    display_label,
    predict_batch,
    predict_each,
    run_sequence,
    substream,
    sweep,
    tally,
    update,
    whole,
)
from .operators import (
    EIGEN_TOL,
    HermitianOperator,
    PureState,
    amplitude_pairs,
    basis_ket,
    haar_amplitudes,
    haar_state,
    identity,
    pauli,
    phase_distance,
    random_hermitian,
    real,
    tensor,
)

_BORN_TAG = 1
_SWEEP_TAG = 2
_CHSH_PRODUCT_TAG = 3
_CHSH_SEQUENTIAL_TAG = 4
_LINE_PRODUCT_TAG = 5
_WEAK_FC_TAG = 6  # the weak-fc command's sweep, verify_proposition(..., (seed, tag))

# A column-product case slot: 8 uniforms for the Box-Muller start state on
# two qubits, then the hidden scalars of its 3 measurements.
LINE_SLOT_WIDTH = 2 * 4 + 3


def spin_state(theta: float) -> PureState:
    """cos(theta)|0> + sin(theta)|1>, for a finite real theta (real)."""
    theta = real(theta, "theta")
    return PureState([math.cos(theta), math.sin(theta)])


def bell_state() -> PureState:
    """(|00> + |11>)/sqrt2."""
    s = 1.0 / math.sqrt(2.0)
    return PureState([s, 0.0, 0.0, s])


def _float_key(value: float) -> str:
    return format(float(value), ".12g")


@dataclass(frozen=True)
class StatReport:
    """Outcome frequencies against Born weights with a sigma-rule verdict.

    A branch with expected probability p in (0, 1) passes when the observed
    frequency sits within tolerance_sigma * sqrt(p(1-p)/trials) of p;
    deterministic branches (p of exactly 0 or 1) must match exactly. The
    outcome frequencies must sum to 1 within 1e-9.
    """

    observable_label: str
    trials: int
    outcome_frequencies: dict
    expected_probabilities: dict
    max_sigma_deviation: float
    tolerance_sigma: float
    passed: bool

    def __post_init__(self):
        total = sum(self.outcome_frequencies.values())
        if not abs(total - 1.0) <= 1e-9:  # nan fails too
            raise InvalidArgumentError("outcome_frequencies",
                                       f"outcome frequencies sum to {total!r}, not 1")

    def frequency(self, value: float) -> float:
        return _nearest_value(self.outcome_frequencies, value)

    def expected(self, value: float) -> float:
        return _nearest_value(self.expected_probabilities, value)

    def as_dict(self) -> dict:
        return {
            "observable": self.observable_label,
            "trials": int(self.trials),
            "outcome_frequencies": {
                _float_key(v): float(f) for v, f in self.outcome_frequencies.items()
            },
            "expected_probabilities": {
                _float_key(v): float(p) for v, p in self.expected_probabilities.items()
            },
            "max_sigma_deviation": float(self.max_sigma_deviation),
            "tolerance_sigma": float(self.tolerance_sigma),
            "pass": bool(self.passed),
        }


def _nearest_value(mapping: dict, value: float) -> float:
    """The entry of `mapping` whose outcome is within VALUE_TOL of `value`, or
    OutcomeNotFoundError, a KeyError: also for a value real refuses (nan,
    +-inf, a bool, a string), which lies near no outcome."""
    try:
        x = real(value, "value")
    except InvalidArgumentError:
        x = math.nan  # every gap is nan, so the lookup misses
    best = None
    best_gap = math.inf
    for key, entry in mapping.items():
        gap = abs(key - x)
        if gap < best_gap:
            best, best_gap = entry, gap
    if best is None or best_gap > VALUE_TOL:
        raise OutcomeNotFoundError(f"no outcome near {value!r}")
    return best


def born_experiment(state: PureState, obs, trials: int, seed: int, tolerance_sigma: float,
                    sink=None) -> StatReport:
    """Monte Carlo check that prediction under uniform c reproduces Born
    weights for one (state, observable) pair: each branch passes within
    `tolerance_sigma` standard errors, a positive finite real (real). `sink`,
    if given, receives each block of trials' events."""
    trials = whole(trials, "trials", least=1)
    tolerance_sigma = real(tolerance_sigma, "tolerance_sigma", 0.0)
    decomp = as_decomposition(obs)
    label = display_label(decomp)
    counts = tally(decomp, state, substream(seed, _BORN_TAG), trials, sink, (label,))
    frequencies = counts / trials
    # A weight may overshoot 1 by rounding (a state's norm is only checked to 1e-12).
    expected = np.clip(decomp.weights(state), 0.0, 1.0)
    max_dev = 0.0
    passed = True
    for p, freq in zip(expected, frequencies):
        sigma = math.sqrt(p * (1.0 - p) / trials)
        if sigma == 0.0:
            passed = passed and freq == p
        else:
            deviation = abs(freq - p) / sigma
            max_dev = max(max_dev, deviation)
            passed = passed and deviation <= tolerance_sigma
    return StatReport(
        observable_label=label,
        trials=trials,
        outcome_frequencies={
            float(v): float(f) for v, f in zip(decomp.values, frequencies)
        },
        expected_probabilities={
            float(v): float(p) for v, p in zip(decomp.values, expected)
        },
        max_sigma_deviation=float(max_dev),
        tolerance_sigma=tolerance_sigma,
        passed=bool(passed),
    )


def born_scenario_sweep(count: int, trials: int, seed: int) -> list[StatReport]:
    """born_experiment over `count` random (state, observable) scenarios.

    Scenario k draws its dimension, state, observable and child seed from
    substream (seed, sweep-tag, k), so single scenarios can be replayed in
    isolation. `trials` and `seed` are read before the first scenario, so a
    count of 0 refuses them as any other count does.
    """
    count = whole(count, "count")
    trials = whole(trials, "trials", least=1)
    seed = whole(seed, "seed")
    reports = []
    for k in range(count):
        rng = substream(seed, _SWEEP_TAG, k)
        dim = int(rng.integers(2, 9))  # 2 to 8
        state = haar_state(dim, rng)
        obs = random_hermitian(dim, rng, label=f"scenario{k}")
        child_seed = int(rng.integers(0, 2**31))
        reports.append(born_experiment(state, obs, trials, child_seed, tolerance_sigma=5.0))
    return reports


TABLE1_CS = (0.4, 0.1, 0.7)

_BELL_AMPLITUDES = (1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))
_KET00 = (1.0, 0.0, 0.0, 0.0)

_GRID_A = ((-1, -1, -1), (-1, -1, -1), (-1, -1, 1))
_GRID_B = ((1, 1, 1), (1, 1, -1), (1, 1, 1))

# (c, initial amplitudes, grid of predictions, measured cell, value, final amplitudes)
_REFERENCE_ITERATIONS = (
    (0.4, _KET00, _GRID_A, (3, 3), 1, _KET00),
    (0.1, _KET00, _GRID_A, (2, 3), -1, _BELL_AMPLITUDES),
    (0.7, _BELL_AMPLITUDES, _GRID_B, (1, 3), 1, _BELL_AMPLITUDES),
)
_REFERENCE_ROW_VALUES = (1, 1, 1)
_REFERENCE_COL_VALUES = (1, 1, -1)


@dataclass(frozen=True)
class TableIteration:
    """One pass of the reference run: the full grid of predictions on the
    current hidden state, then the record of one measured cell's event."""

    index: int
    record: MeasurementRecord
    grid: tuple
    row_values: tuple
    col_values: tuple

    def as_dict(self) -> dict:
        record = self.record
        return {
            "index": int(self.index),
            "c": float(record.c_used),
            "initial_state": amplitude_pairs(record.pre_state.amplitudes),
            "grid": [list(row) for row in self.grid],
            "row_values": list(self.row_values),
            "col_values": list(self.col_values),
            "measured": {"label": record.observable_label, "value": int(round(record.value))},
            "final_state": amplitude_pairs(record.post_state.amplitudes),
        }


@dataclass(frozen=True)
class Table1Report:
    """The three-iteration reference run, already checked against the frozen
    expected assignments."""

    iterations: tuple[TableIteration, ...]

    def as_dict(self) -> dict:
        return {
            "iterations": [it.as_dict() for it in self.iterations],
            "trace": {"seed": None, "records": [it.record.as_dict() for it in self.iterations]},
        }

    @property
    def events(self) -> Events:
        steps = [(it.record.observable_label, it.record.c_used, it.record.value)
                 for it in self.iterations]
        labels, c, value = zip(*steps)
        case = np.arange(len(steps))
        return Events(labels, case, case, np.array(c), np.array(value))


# The entries of one iteration that the reference holds, in the order the run
# reaches them, each with its tolerance: a number's absolute difference, a
# state's phase distance.
_REFERENCE_ENTRIES = (
    ("hidden scalar", 1e-12), ("initial state", 1e-9),
    *((f"cell ({r},{c})", VALUE_TOL) for r in (1, 2, 3) for c in (1, 2, 3)),
    *((f"{line} product {i}", VALUE_TOL) for line in ("row", "column") for i in (1, 2, 3)),
    ("measured value", VALUE_TOL), ("final state", 1e-9),
)


def _check_entries(where: str, read: tuple, reference: tuple) -> None:
    """Raise ReferenceRunMismatchError naming the first of _REFERENCE_ENTRIES
    whose `read` value is off its `reference` by more than its tolerance."""
    for (name, tolerance), got, ref in zip(_REFERENCE_ENTRIES, read, reference, strict=True):
        state = isinstance(got, PureState)
        off = phase_distance(got, ref) if state else abs(got - ref)
        if not off <= tolerance:  # nan is off too
            raise ReferenceRunMismatchError(f"{where}, {name}: " + (
                f"phase distance {off!r} from the reference" if state
                else f"read {float(got)!r}, reference {ref!r}"))


def replay_table1() -> Table1Report:
    """Deterministic worked example on the two-qubit square.

    One chain from |00> under the hidden scalars TABLE1_CS measures the
    third-column cells bottom to top. Each iteration is one of its events:
    one predict_each on the event's state and c predicts the whole grid plus
    the six line products. Every entry is compared against the frozen
    expected run, in the order the run reaches it; the first that differs
    raises ReferenceRunMismatchError naming it.
    """
    square = peres_mermin()
    # Predicted in this order: the cells row by row, then the row and column products.
    family = (*itertools.chain(*square.grid), *square.rows, *square.cols)
    cells = [square.grid[row - 1][col - 1] for _, _, _, (row, col), _, _ in _REFERENCE_ITERATIONS]
    records = chain(cells, basis_ket(4, 0), TABLE1_CS)
    iterations = []
    for it_index, (record, reference) in enumerate(zip(records, _REFERENCE_ITERATIONS), start=1):
        ref_c, ref_initial, ref_grid, _, ref_value, ref_final = reference
        expected = (*itertools.chain(*ref_grid), *_REFERENCE_ROW_VALUES, *_REFERENCE_COL_VALUES)
        values = predict_each(family, HiddenState(record.pre_state, record.c_used))
        _check_entries(f"iteration {it_index}",
                       (record.c_used, record.pre_state, *values, record.value, record.post_state),
                       (ref_c, ref_initial, *expected, ref_value, ref_final))
        grid = (expected[0:3], expected[3:6], expected[6:9])
        row_values, col_values = expected[9:12], expected[12:]
        iterations.append(TableIteration(it_index, record, grid, row_values, col_values))
    return Table1Report(tuple(iterations))


@dataclass(frozen=True)
class ImplicationsReport:
    """Direct predictions vs values deduced through a partner measurement.

    `direct` holds the no-collapse predictions of B1, B2 and C on the initial
    hidden state. Measuring C collapses onto a shared eigenvector whose B
    eigenvalues are `deduced`; `mismatch` marks each B observable whose direct
    prediction disagrees, which is exactly a failure of strong functional
    consistency. The deduced values are the post-collapse predictions, which
    every sampled hidden scalar must give alike (`post_collapse_consistent`);
    as_dict writes them again as `post_predictions`.
    """

    c: float
    initial_state: PureState
    direct: dict
    deduced: dict
    mismatch: dict
    non_fc_witnessed: bool
    post_state: PureState
    post_collapse_consistent: bool
    sampled_c_count: int

    def as_dict(self) -> dict:
        return {
            "c": float(self.c),
            "initial_state": amplitude_pairs(self.initial_state.amplitudes),
            "direct": {k: float(v) for k, v in self.direct.items()},
            "deduced": {k: float(v) for k, v in self.deduced.items()},
            "mismatch": {k: bool(v) for k, v in self.mismatch.items()},
            "non_fc_witnessed": bool(self.non_fc_witnessed),
            "post_state": amplitude_pairs(self.post_state.amplitudes),
            "post_predictions": {k: float(v) for k, v in self.deduced.items()},
            "post_collapse_consistent": bool(self.post_collapse_consistent),
            "sampled_c_count": int(self.sampled_c_count),
        }


def implications_demo(c: float = 0.4, state: PureState | None = None) -> ImplicationsReport:
    """Deduction-vs-direct comparison for the diagonal operator triple.

    On (|01> + |10>)/sqrt2 every branch split is 1/2, so direct predictions
    of B1 and B2 agree (both -1 for c <= 0.5, both +1 above); yet the C
    outcome forced by the same c collapses onto a basis ket where B1 and B2
    take opposite signs. At least one deduced value therefore contradicts
    its direct prediction for every c, and the demo reports which.
    """
    b1, b2, partner = implications_operators()
    if state is None:
        s = 1.0 / math.sqrt(2.0)
        state = PureState([0.0, s, s, 0.0])
    hidden = HiddenState(state, c)
    direct = dict(zip((b1.label, b2.label, partner.label),
                      predict_each((b1, b2, partner), hidden)))
    post = update(partner, hidden, direct[partner.label])
    sampled = np.linspace(0.05, 0.95, 19)
    deduced = {}
    consistent = True
    for op in (b1, b2):
        values = set(predict_batch(op, post, sampled).tolist())
        consistent = consistent and len(values) == 1 and op.eigen_residual(post) <= EIGEN_TOL
        deduced[op.label] = values.pop()
    mismatch = {label: abs(direct[label] - deduced[label]) > VALUE_TOL for label in deduced}
    return ImplicationsReport(
        c=hidden.c,
        initial_state=state,
        direct=direct,
        deduced=deduced,
        mismatch=mismatch,
        non_fc_witnessed=any(mismatch.values()),
        post_state=post,
        post_collapse_consistent=bool(consistent),
        sampled_c_count=len(sampled),
    )


@dataclass(frozen=True)
class ChshReport:
    """Correlators for the four two-qubit measurement settings and the
    resulting S statistic."""

    mode: str
    trials_per_setting: int
    correlators: dict
    s_value: float
    CLASSICAL_BOUND = 2.0  # the largest S a local hidden-variable model reaches

    @property
    def exceeds_classical(self) -> bool:
        return self.s_value > self.CLASSICAL_BOUND

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "trials_per_setting": int(self.trials_per_setting),
            "correlators": {k: float(v) for k, v in self.correlators.items()},
            "s_value": float(self.s_value),
            "classical_bound": self.CLASSICAL_BOUND,
            "exceeds_classical": self.exceeds_classical,
        }


class _ChshSetting(NamedTuple):
    """One CHSH setting: its key, the sides A and B, the sign of its
    correlator in S, the joint A (x) B and the sides (A (x) I, I (x) B)."""

    key: str
    a: HermitianOperator
    b: HermitianOperator
    sign: float
    joint: HermitianOperator
    sides: tuple[HermitianOperator, HermitianOperator]


@functools.cache
def _chsh_settings() -> tuple[_ChshSetting, ...]:
    """The four settings, built once per process."""
    z = pauli("z")
    x = pauli("x")
    s = 1.0 / math.sqrt(2.0)
    w = HermitianOperator(s * (z.matrix + x.matrix), "W")
    v = HermitianOperator(s * (z.matrix - x.matrix), "V")
    one = identity(2)
    return tuple(
        _ChshSetting(key, a, b, sign, tensor(a, b, key),
                     (tensor(a, one, f"{a.label}I"), tensor(one, b, f"I{b.label}")))
        for key, a, b, sign in (("ZW", z, w, 1.0), ("ZV", z, v, 1.0),
                                ("XW", x, w, 1.0), ("XV", x, v, -1.0))
    )


def chsh_experiment(trials: int, seed: int, mode: str, sink=None) -> ChshReport:
    """Estimate S = E[ZW] + E[ZV] + E[XW] - E[XV] on the Bell state.

    W and V are the diagonal Pauli combinations (Z+X)/sqrt2 and (Z-X)/sqrt2.
    In "product" mode each trial is a single measurement of the joint
    observable A (x) B; in "sequential" mode each trial measures A (x) I then
    I (x) B with collapse in between and multiplies the two readings. Both
    sample the same distribution; sequential is the slow cross-check.
    `sink`, if given, receives each block of trials' events: in product mode
    one per trial, set to its setting; in sequential mode one per side.
    """
    trials = whole(trials, "trials", least=1)
    if mode not in ("product", "sequential"):
        raise InvalidArgumentError("mode", f"mode must be 'product' or 'sequential', got {mode!r}")
    state = bell_state()
    if mode == "product":
        labels = tuple(setting.key for setting in _chsh_settings())
    else:
        labels = tuple(f"{setting.key}/{op.label}" for setting in _chsh_settings()
                       for op in setting.sides)
    correlators = {}
    s_value = 0.0
    for k, setting in enumerate(_chsh_settings()):
        ops = setting.sides
        if mode == "product":
            decomp = setting.joint.spectrum()
            counts = tally(decomp, state, substream(seed, _CHSH_PRODUCT_TAG, k),
                           trials, sink, labels, k)
            # The values are exactly +-1 (see tensor), so every partial sum is
            # an exact integer: this equals the mean of the per-trial values.
            correlator = float(decomp.values @ counts) / trials
        else:
            total = 0.0
            rng = substream(seed, _CHSH_SEQUENTIAL_TAG, k)
            for case, _, steps, cs in sweep(rng, trials, len(ops), [range(len(ops))]):
                values = run_sequence(ops, state, cs, steps)
                # Summed left to right (np.sum pairs terms), so no bit of a
                # seeded report depends on the block size.
                total = np.cumsum(np.append(total, values[:, 0] * values[:, 1]))[-1]
                if sink is not None:  # case t's events are its steps, in order
                    sink(Events(labels, case.repeat(len(ops)), len(ops) * k + steps.ravel(),
                                cs.ravel(), values.ravel()))
            correlator = float(total) / trials
        correlators[setting.key] = correlator
        s_value += setting.sign * correlator
    return ChshReport(
        mode=mode,
        trials_per_setting=trials,
        correlators=correlators,
        s_value=float(s_value),
    )


@dataclass(frozen=True, kw_only=True)
class LineProductReport(SweepSummary):
    """Sequential measurement sweep along one line of the square: the product
    of the three readings must equal the line's forced scalar in every case,
    for every measurement order, from every starting state."""

    axis: str
    index: int
    forced_value: int

    def as_dict(self) -> dict:
        return {
            "axis": self.axis,
            "index": int(self.index),
            "forced_value": int(self.forced_value),
            **super().as_dict(),
        }


def column_product_experiment(index: int = 3, trials: int = 200, seed: int = 0,
                              axis: str = "column", sink=None) -> LineProductReport:
    """Measure one line's three observables sequentially in every order from
    Haar-random four-dimensional start states and check the reading product
    against the line's forced scalar. `sink`, if given, receives each block
    of cases' events, one per measurement."""
    trials = whole(trials, "trials", least=1)
    square = peres_mermin()
    forced = square.forced_value(axis, index)  # also rejects an unknown axis
    ops = square.column_operators(index) if axis == "column" else square.row_operators(index)
    permutations = list(itertools.permutations(range(3)))
    labels = tuple(f"{axis}{index}:{op.label}" for op in ops)
    passes = 0
    rng = substream(seed, _LINE_PRODUCT_TAG)
    for case, _, orders, slots in sweep(rng, trials, LINE_SLOT_WIDTH, permutations):
        starts, cs = haar_amplitudes(slots[:, :-3]), slots[:, -3:]
        values = run_sequence(ops, starts, cs, orders)  # readings in measurement order
        passes += int(np.count_nonzero(np.abs(values.prod(axis=1) - forced) <= VALUE_TOL))
        if sink is not None:  # a case's events are its steps, each set to the leaf it measured
            sink(Events(labels, case.repeat(3), orders.ravel(), cs.ravel(), values.ravel()))
    return LineProductReport(
        axis=axis,
        index=index,
        forced_value=forced,
        trials=trials,
        permutation_count=len(permutations),
        passes=passes,
    )
