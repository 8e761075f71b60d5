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
cases at a time (model.case_blocks), so neither holds every draw at once.
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

import numpy as np

from .errors import ReferenceRunMismatchError
from .expressions import implications_operators, peres_mermin
from .model import (
    Events,
    HiddenState,
    MeasurementTrace,
    ScriptedUniforms,
    VALUE_TOL,
    as_decomposition,
    case_blocks,
    display_label,
    measure,
    predict_batch,
    predict_each,
    run_sequence,
    substream,
    tally,
    update,
)
from .operators import (
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
    tensor,
)

_BORN_TAG = 1
_SWEEP_TAG = 2
_CHSH_PRODUCT_TAG = 3
_CHSH_SEQUENTIAL_TAG = 4
_LINE_PRODUCT_TAG = 5

# A column-product case slot: 8 uniforms for the Box-Muller start state on
# two qubits, then the hidden scalars of its 3 measurements.
LINE_SLOT_WIDTH = 2 * 4 + 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Common knobs for the randomized experiments."""

    seed: int = 0
    trials: int = 100_000
    tolerance_sigma: float = 5.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not 0.0 < self.tolerance_sigma < math.inf:
            raise ValueError(
                f"tolerance_sigma must be positive and finite, got {self.tolerance_sigma}"
            )


def spin_state(theta: float) -> PureState:
    """cos(theta)|0> + sin(theta)|1>."""
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
    deterministic branches (p of exactly 0 or 1) must match exactly.
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
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome frequencies sum to {total!r}, not 1")

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
    best = None
    best_gap = math.inf
    for key, entry in mapping.items():
        gap = abs(key - value)
        if gap < best_gap:
            best, best_gap = entry, gap
    if best is None or best_gap > VALUE_TOL:
        raise KeyError(f"no outcome near {value!r}")
    return best


def born_experiment(cfg: ExperimentConfig, state: PureState, obs, sink=None) -> StatReport:
    """Monte Carlo check that prediction under uniform c reproduces Born
    weights for one (state, observable) pair. `sink`, if given, receives
    each block of trials' events."""
    decomp = as_decomposition(obs)
    label = display_label(decomp)
    counts = tally(decomp, state, substream(cfg.seed, _BORN_TAG), cfg.trials, sink, (label,))
    frequencies = counts / cfg.trials
    # A weight may overshoot 1 by rounding (a state's norm is only checked to 1e-12).
    expected = np.clip(decomp.weights(state), 0.0, 1.0)
    max_dev = 0.0
    passed = True
    for p, freq in zip(expected, frequencies):
        sigma = math.sqrt(p * (1.0 - p) / cfg.trials)
        if sigma == 0.0:
            passed = passed and freq == p
        else:
            deviation = abs(freq - p) / sigma
            max_dev = max(max_dev, deviation)
            passed = passed and deviation <= cfg.tolerance_sigma
    return StatReport(
        observable_label=label,
        trials=cfg.trials,
        outcome_frequencies={
            float(v): float(f) for v, f in zip(decomp.values, frequencies)
        },
        expected_probabilities={
            float(v): float(p) for v, p in zip(decomp.values, expected)
        },
        max_sigma_deviation=float(max_dev),
        tolerance_sigma=cfg.tolerance_sigma,
        passed=bool(passed),
    )


def born_scenario_sweep(count: int, trials: int, seed: int) -> list[StatReport]:
    """born_experiment over `count` random (state, observable) scenarios.

    Scenario k draws its dimension, state, observable and child seed from
    substream (seed, sweep-tag, k), so single scenarios can be replayed in
    isolation.
    """
    reports = []
    for k in range(count):
        rng = substream(seed, _SWEEP_TAG, k)
        dim = int(rng.integers(2, 9))  # 2 to 8
        state = haar_state(dim, rng)
        obs = random_hermitian(dim, rng, label=f"scenario{k}")
        child_cfg = ExperimentConfig(seed=int(rng.integers(0, 2**31)), trials=trials)
        reports.append(born_experiment(child_cfg, state, obs))
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
_REFERENCE_PAD_DRAW = 0.5


@dataclass(frozen=True)
class TableIteration:
    """One pass of the reference run: the full grid of predictions on the
    current hidden state, then one measured cell with its collapse."""

    index: int
    c: float
    initial_state: PureState
    grid: tuple
    row_values: tuple
    col_values: tuple
    measured_label: str
    measured_value: int
    final_state: PureState

    def as_dict(self) -> dict:
        return {
            "index": int(self.index),
            "c": float(self.c),
            "initial_state": amplitude_pairs(self.initial_state.amplitudes),
            "grid": [list(row) for row in self.grid],
            "row_values": list(self.row_values),
            "col_values": list(self.col_values),
            "measured": {"label": self.measured_label, "value": int(self.measured_value)},
            "final_state": amplitude_pairs(self.final_state.amplitudes),
        }


@dataclass(frozen=True)
class Table1Report:
    """The three-iteration reference run, already checked against the frozen
    expected assignments."""

    iterations: tuple[TableIteration, ...]
    trace: MeasurementTrace

    def as_dict(self) -> dict:
        return {
            "iterations": [it.as_dict() for it in self.iterations],
            "trace": self.trace.as_dict(),
        }

    @property
    def events(self) -> Events:
        steps = [(r.observable_label, r.c_used, r.value) for r in self.trace.records]
        labels, c, value = zip(*steps)
        case = np.arange(len(steps))
        return Events(labels, case, case, np.array(c), np.array(value))


def _first_fault(where: str, values: list, ref_grid) -> str:
    """The message of the first check an iteration's 15 predictions fail, in
    the order the checks run: each cell is +-1, the grid is the reference's,
    each row and column product is +-1, the products are the reference's."""
    units = [int(round(value)) for value in values]
    names = [*(f"cell ({r},{c})" for r in (1, 2, 3) for c in (1, 2, 3)),
             *(f"{line} product {i}" for line in ("row", "column") for i in (1, 2, 3))]
    wrong = next((k for k in range(9) if units[k] != ref_grid[k // 3][k % 3]), None)
    for k, (value, unit) in enumerate(zip(values, units)):
        if k == 9 and wrong is not None:
            r, c = divmod(wrong, 3)
            return (f"{where}, grid cell ({r + 1},{c + 1}): got {units[wrong]},"
                    f" expected {ref_grid[r][c]}")
        if abs(value - unit) > VALUE_TOL or unit not in (-1, 1):
            return f"{where}, {names[k]}: prediction {value!r} is not +-1"
    if tuple(units[9:12]) != _REFERENCE_ROW_VALUES:
        return f"{where}: row products {tuple(units[9:12])}, expected {_REFERENCE_ROW_VALUES}"
    return f"{where}: column products {tuple(units[12:])}, expected {_REFERENCE_COL_VALUES}"


def replay_table1() -> Table1Report:
    """Deterministic worked example on the two-qubit square.

    Starting from |00> with c = 0.4 and scripted follow-up draws (0.1, 0.7),
    each iteration predicts the whole grid plus the six line products on the
    current hidden state with one predict_each, then measures one
    third-column cell (bottom to top) and collapses. Every entry is compared
    against the frozen expected run; any difference raises
    ReferenceRunMismatchError naming the first mismatching entry.
    """
    square = peres_mermin()
    # Predicted in this order: the cells row by row, then the row and column products.
    family = (*itertools.chain(*square.grid), *square.rows, *square.cols)
    script = ScriptedUniforms(TABLE1_CS[1:] + (_REFERENCE_PAD_DRAW,))
    hidden = HiddenState(basis_ket(4, 0), TABLE1_CS[0])
    iterations = []
    records = []
    for it_index, reference in enumerate(_REFERENCE_ITERATIONS, start=1):
        ref_c, ref_initial, ref_grid, measured_cell, ref_value, ref_final = reference
        where = f"iteration {it_index}"
        if abs(hidden.c - ref_c) > 1e-12:
            raise ReferenceRunMismatchError(
                f"{where}: hidden scalar {hidden.c!r}, expected {ref_c!r}"
            )
        if phase_distance(hidden.state, np.array(ref_initial, dtype=complex)) > 1e-9:
            raise ReferenceRunMismatchError(
                f"{where}: initial state deviates from the expected one"
            )
        # Within VALUE_TOL of its reference +-1, a prediction passes every check.
        expected = (*itertools.chain(*ref_grid), *_REFERENCE_ROW_VALUES, *_REFERENCE_COL_VALUES)
        values = predict_each(family, hidden)
        if not all(abs(value - ref) <= VALUE_TOL for value, ref in zip(values, expected)):
            raise ReferenceRunMismatchError(_first_fault(where, values, ref_grid))
        grid = (expected[0:3], expected[3:6], expected[6:9])
        row_values, col_values = expected[9:12], expected[12:]
        row_i, col_j = measured_cell
        measured_op = square.grid[row_i - 1][col_j - 1]
        record, hidden = measure(measured_op, hidden, script)
        records.append(record)
        measured_value = int(round(record.value))
        if measured_value != ref_value:
            raise ReferenceRunMismatchError(
                f"{where}: measured {measured_op.label} gave {measured_value},"
                f" expected {ref_value}"
            )
        if phase_distance(record.post_state,
                          np.array(ref_final, dtype=complex)) > 1e-9:
            raise ReferenceRunMismatchError(
                f"{where}: post-measurement state deviates from the expected one"
            )
        iterations.append(TableIteration(
            index=it_index,
            c=record.c_used,
            initial_state=record.pre_state,
            grid=grid,
            row_values=row_values,
            col_values=col_values,
            measured_label=record.observable_label,
            measured_value=measured_value,
            final_state=record.post_state,
        ))
    trace = MeasurementTrace(tuple(records), seed=None)
    return Table1Report(iterations=tuple(iterations), trace=trace)


@dataclass(frozen=True)
class ImplicationsReport:
    """Direct predictions vs values deduced through a partner measurement.

    `direct` holds the no-collapse predictions of B1, B2 and C on the initial
    hidden state. Measuring C collapses onto a shared eigenvector whose B
    eigenvalues are `deduced`; `mismatch` marks each B observable whose direct
    prediction disagrees, which is exactly a failure of strong functional
    consistency. `post_predictions` re-predicts after the collapse, where the
    values must match the deduced ones for every hidden scalar.
    """

    c: float
    initial_state: PureState
    direct: dict
    deduced: dict
    mismatch: dict
    non_fc_witnessed: bool
    post_state: PureState
    post_predictions: dict
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
            "post_predictions": {k: float(v) for k, v in self.post_predictions.items()},
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
    post_predictions = {}
    consistent = True
    for op in (b1, b2):
        residual = float(np.linalg.norm(
            op.matrix @ post.amplitudes
            - op.expectation(post) * post.amplitudes))
        consistent = consistent and residual <= 1e-9
        values = set(predict_batch(op, post, sampled).tolist())
        if len(values) != 1:
            consistent = False
        value = values.pop()
        deduced[op.label] = value
        post_predictions[op.label] = value
    mismatch = {
        label: abs(direct[label] - deduced[label]) > VALUE_TOL
        for label in deduced
    }
    return ImplicationsReport(
        c=float(c),
        initial_state=state,
        direct=direct,
        deduced=deduced,
        mismatch=mismatch,
        non_fc_witnessed=any(mismatch.values()),
        post_state=post,
        post_predictions=post_predictions,
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


@functools.cache
def _chsh_settings():
    """(key, A, B, sign, A (x) B, (A (x) I, I (x) B)) per setting, built once per process."""
    z = pauli("z")
    x = pauli("x")
    s = 1.0 / math.sqrt(2.0)
    w = HermitianOperator(s * (z.matrix + x.matrix), "W")
    v = HermitianOperator(s * (z.matrix - x.matrix), "V")
    one = identity(2)
    return tuple(
        (key, a, b, sign, tensor(a, b, key),
         (tensor(a, one, f"{a.label}I"), tensor(one, b, f"I{b.label}")))
        for key, a, b, sign in (("ZW", z, w, 1.0), ("ZV", z, v, 1.0),
                                ("XW", x, w, 1.0), ("XV", x, v, -1.0))
    )


def chsh_experiment(cfg: ExperimentConfig, mode: str = "product", sink=None) -> ChshReport:
    """Estimate S = E[ZW] + E[ZV] + E[XW] - E[XV] on the Bell state.

    W and V are the diagonal Pauli combinations (Z+X)/sqrt2 and (Z-X)/sqrt2.
    In "product" mode each trial is a single measurement of the joint
    observable A (x) B; in "sequential" mode each trial measures A (x) I then
    I (x) B with collapse in between and multiplies the two readings. Both
    sample the same distribution; sequential is the slow cross-check.
    `sink`, if given, receives each block of trials' events: in product mode
    one per trial, set to its setting; in sequential mode one per side.
    """
    if mode not in ("product", "sequential"):
        raise ValueError(f"mode must be 'product' or 'sequential', got {mode!r}")
    state = bell_state()
    if mode == "product":
        labels = tuple(key for key, *_ in _chsh_settings())
    else:
        labels = tuple(f"{key}/{op.label}" for key, *_, ops in _chsh_settings() for op in ops)
    correlators = {}
    s_value = 0.0
    for k, (key, _, _, sign, joint, ops) in enumerate(_chsh_settings()):
        if mode == "product":
            decomp = joint.spectrum()
            counts = tally(decomp, state, substream(cfg.seed, _CHSH_PRODUCT_TAG, k),
                           cfg.trials, sink, labels, k)
            # The values are exactly +-1 (see tensor), so every partial sum is
            # an exact integer: this equals the mean of the per-trial values.
            correlator = float(decomp.values @ counts) / cfg.trials
        else:
            total = 0.0
            settings = len(ops) * k + np.arange(len(ops))
            rng = substream(cfg.seed, _CHSH_SEQUENTIAL_TAG, k)
            for first, cs in case_blocks(rng, cfg.trials, len(ops)):
                values = run_sequence(ops, state, cs)
                # Summed left to right (np.sum pairs terms), so no bit of a
                # seeded report depends on the block size.
                total = np.cumsum(np.append(total, values[:, 0] * values[:, 1]))[-1]
                if sink is not None:  # case t's events are its steps, in order
                    case = np.arange(first, first + len(cs)).repeat(len(ops))
                    sink(Events(labels, case, np.tile(settings, len(cs)), cs.ravel(),
                                values.ravel()))
            correlator = float(total) / cfg.trials
        correlators[key] = correlator
        s_value += sign * correlator
    return ChshReport(
        mode=mode,
        trials_per_setting=cfg.trials,
        correlators=correlators,
        s_value=float(s_value),
    )


@dataclass(frozen=True)
class LineProductReport:
    """Sequential measurement sweep along one line of the square: the product
    of the three readings must equal the line's forced scalar in every case,
    for every measurement order, from every starting state."""

    axis: str
    index: int
    forced_value: int
    trials: int
    permutation_count: int
    cases: int
    passes: int
    failures: int

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "axis": self.axis,
            "index": int(self.index),
            "forced_value": int(self.forced_value),
            "trials": int(self.trials),
            "permutation_count": int(self.permutation_count),
            "cases": int(self.cases),
            "passes": int(self.passes),
            "failures": int(self.failures),
            "all_passed": self.all_passed,
        }


def column_product_experiment(index: int = 3, trials: int = 200, seed: int = 0,
                              axis: str = "column", sink=None) -> LineProductReport:
    """Measure one line's three observables sequentially in every order from
    Haar-random four-dimensional start states and check the reading product
    against the line's forced scalar. `sink`, if given, receives each block
    of cases' events, one per measurement."""
    square = peres_mermin()
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    forced = square.forced_value(axis, index)  # also rejects an unknown axis
    ops = square.column_operators(index) if axis == "column" else square.row_operators(index)
    permutations = np.array(list(itertools.permutations(range(3))))
    count = len(permutations)
    cases = trials * count  # case t * count + p runs permutation p
    labels = tuple(f"{axis}{index}:{op.label}" for op in ops)
    passes = 0
    rng = substream(seed, _LINE_PRODUCT_TAG)
    for first, slots in case_blocks(rng, cases, LINE_SLOT_WIDTH):
        starts, cs = haar_amplitudes(slots[:, :-3]), slots[:, -3:]
        case = np.arange(first, first + len(cs))
        orders = permutations[case % count]
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
        cases=cases,
        passes=passes,
        failures=cases - passes,
    )
