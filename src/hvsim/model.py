"""Hidden-state dynamics: uniform scalar draw, threshold prediction, collapse.

The model pairs a pure state with one scalar c drawn uniformly from the open
interval (0, 1). Measuring an observable deterministically returns the
smallest eigenvalue a whose cumulative Born weight reaches c,

    value = min { a : c <= sum_{a' <= a} ||P_a' psi||^2 },

then collapses the state onto that branch and re-arms the hidden scalar with a
fresh draw. Averaged over c this reproduces Born statistics exactly; for a
fixed c the outcome is a deterministic function of (psi, c).
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchNotFoundError,
    DimensionMismatchError,
    HiddenDrawError,
    InvalidArgumentError,
    MalformedDecompositionError,
    ZeroProbabilityBranchError,
)
from .operators import (
    NORM_TOL,
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    amplitude_pairs,
    amplitudes_of,
    is_unit,
    whole,
)

MIN_BRANCH_WEIGHT = 1e-12
COVERAGE_TOL = 1e-8
VALUE_TOL = 1e-9  # two outcome values agree within this
JOINT_TOL = 1e-24  # weight a joint-basis column may carry off its branch
# run_sequence's joint basis and the scalar reference round a row's branch
# weights apart by about 2 * (d * eps + sqrt(JOINT_TOL)) / sqrt(mass): the
# entry product and the basis put the Born weights a row carries about
# sqrt(mass) times that off, and a step divides them by mass, the weight the
# row has kept since its start. With mass >= LIGHT_BRANCH that is below
# 2.1e-10 for d <= 16, so a c further than EDGE_MARGIN from every cumulative
# weight picks the same branch on both routes; the scalar one replays the rest.
EDGE_MARGIN = 1e-9
LIGHT_BRANCH = 1e-4
SWEEP_BLOCK = 4096  # cases a sweep holds at once; no output depends on it
TALLY_BLOCK = 2**16  # draws a single-shot tally holds at once; no output depends on it
CSV_HEADER = "trial,setting,c,value\n"


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent child generator for the root seed and an index path."""
    return np.random.default_rng((whole(seed, "seed"),
                                  *(whole(p, "stream path entry") for p in path)))


def _slot_values(u: np.ndarray) -> np.ndarray:
    """The slot rule on raw uniforms `u`, in place: an exact 0.0 reads 2**-54,
    so that zero-weight branches stay unreachable, and a value outside
    [0, 1), nan included, breaks the source's contract and raises
    HiddenDrawError."""
    low, high = u.min(initial=0.5), u.max(initial=0.5)  # nan reaches both
    if not (low >= 0.0 and high < 1.0):
        bad = u[~((u >= 0.0) & (u < 1.0))][0]
        raise HiddenDrawError(f"uniform source gave {float(bad)!r}, outside [0, 1)")
    if low == 0.0:
        u[u == 0.0] = 2.0**-54
    return u


def draw_hidden(rng) -> float:
    """The next hidden scalar of `rng` by draw_hidden_batch's slot rule
    (_slot_values): one .random() call, whose exact 0.0 reads 2**-54;
    nothing is redrawn. Accepts anything exposing .random(); a value outside
    [0, 1), nan included, raises HiddenDrawError."""
    return float(_slot_values(np.array([float(rng.random())]))[0])


def draw_hidden_batch(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` hidden scalars of a stream, one slot each: draw i is
    the stream's i-th Generator.random value, read by the slot rule
    (_slot_values): an exact 0.0 reads 2**-54 and a value outside [0, 1),
    nan included, raises HiddenDrawError. Nothing is redrawn, so the stream
    moves by exactly `count`.
    """
    return _slot_values(rng.random(count))


def hidden_scalar(c) -> float:
    """`c` as a float strictly inside (0, 1), where hidden scalars lie; nan is not."""
    c = float(c)
    if not 0.0 < c < 1.0:
        raise InvalidArgumentError("c", f"hidden scalar must lie strictly inside (0, 1), got {c!r}")
    return c


def sweep(rng: np.random.Generator, trials: int, width: int, orders):
    """Yield (case, which, rows, slots) per block of at most SWEEP_BLOCK cases
    of `trials` passes over `orders`: the one sweep layout. Case
    t * len(orders) + p runs orders[p] on the draws [case * width,
    (case + 1) * width) of `rng`; `which` holds each case's p, `rows` its
    orders[p] and `slots` its `width` hidden scalars. Cases are read in order
    from one stream, so blocks read the rows one read would, and case_slot
    replays a case with one advance."""
    orders = np.asarray(orders)
    cases = trials * len(orders)
    for first in range(0, cases, SWEEP_BLOCK):
        case = np.arange(first, min(first + SWEEP_BLOCK, cases))
        which = case % len(orders)
        slots = draw_hidden_batch(rng, len(case) * width).reshape(len(case), width)
        yield case, which, orders[which], slots


def case_slot(key, width: int) -> np.ndarray:
    """Replay one case from its key (seed, *path, case): the `width` uniforms
    that case reads from substream(seed, *path)."""
    *path, case = key
    rng = substream(*path)
    rng.bit_generator.advance(whole(case, "case index") * width)
    return draw_hidden_batch(rng, width)


@dataclass(frozen=True, kw_only=True)
class SweepSummary:
    """A sweep's verdicts: `passes` of its trials * permutation_count cases passed."""

    trials: int
    permutation_count: int
    passes: int

    @property
    def cases(self) -> int:
        return self.trials * self.permutation_count

    @property
    def failures(self) -> int:
        return self.cases - self.passes

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "trials": int(self.trials),
            "permutation_count": int(self.permutation_count),
            "cases": int(self.cases),
            "passes": int(self.passes),
            "failures": int(self.failures),
            "all_passed": self.all_passed,
        }


class ScriptedUniforms:
    """Drop-in .random() source replaying a fixed scalar sequence.

    Lets a measurement chain be driven by hand-picked c values (worked
    examples, regression fixtures) through the same code path as a live RNG.
    """

    def __init__(self, values):
        self._values = [hidden_scalar(v) for v in values]
        self._next = 0

    def random(self) -> float:
        if self._next >= len(self._values):
            raise RuntimeError("scripted uniform sequence exhausted")
        v = self._values[self._next]
        self._next += 1
        return v


class HiddenState:
    """A pure state plus the scalar that fixes the next measurement outcome."""

    __slots__ = ("state", "c")

    def __init__(self, state, c: float):
        self.state = state if isinstance(state, PureState) else PureState(state)
        self.c = hidden_scalar(c)

    @classmethod
    def draw(cls, state, rng) -> "HiddenState":
        """Arm a state with a freshly drawn scalar."""
        return cls(state, draw_hidden(rng))

    def __repr__(self) -> str:
        return f"HiddenState(dim={self.state.dim}, c={self.c:.6g})"


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event: which observable, under which scalar, and the
    pre/post states around the collapse. It is the scalar path's one
    per-event record; chained measure calls give records whose pre_state is
    the previous record's post_state object."""

    observable_label: str
    c_used: float
    value: float
    pre_state: PureState
    post_state: PureState

    def as_dict(self) -> dict:
        return {
            "label": self.observable_label,
            "c": float(self.c_used),
            "value": float(self.value),
            "pre_state": amplitude_pairs(self.pre_state.amplitudes),
            "post_state": amplitude_pairs(self.post_state.amplitudes),
        }


@dataclass(frozen=True, eq=False)
class Events:
    """One block of per-event columns in report order: case index, setting
    (an index into `labels`), hidden scalar c and reading. A driver hands
    each block it produces to its sink, so a run never holds all its events."""

    labels: tuple[str, ...]
    case: np.ndarray
    setting: np.ndarray
    c: np.ndarray
    value: np.ndarray

    def csv_rows(self):
        """Yield the block's rows of the report under CSV_HEADER, SWEEP_BLOCK
        rows per string: the only CSV renderer.

        A string is one join of one flat list, four cells a row: the case
        index; the setting's label between its commas, quoted once by the csv
        module; the repr of c; and the repr of the value with the line end.
        value holds few distinct numbers, so each distinct bit pattern is
        formatted once; bits, unlike float equality, keep -0.0 apart from 0.0.
        """
        labels = [f",{_csv_field(label)}," for label in self.labels]
        value = np.asarray(self.value, dtype=float)
        for first in range(0, len(value), SWEEP_BLOCK):
            block = slice(first, first + SWEEP_BLOCK)
            bits, which = np.unique(value[block].view(np.int64), return_inverse=True)
            shown = [f",{v!r}\n" for v in bits.view(float).tolist()]
            cells = [""] * (4 * len(which))
            cells[0::4] = map(str, self.case[block].tolist())
            cells[1::4] = map(labels.__getitem__, self.setting[block].tolist())
            cells[2::4] = map(repr, self.c[block].tolist())
            cells[3::4] = map(shown.__getitem__, which.tolist())
            yield "".join(cells)


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it as a field. It is written as the
    first of two fields, because a row of one empty field reads '""'."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]  # drop the empty second field's ",\n"


def as_decomposition(obs) -> SpectralDecomposition:
    """Coerce an observable argument to its spectral decomposition."""
    if isinstance(obs, SpectralDecomposition):
        return obs
    if isinstance(obs, HermitianOperator):
        return obs.spectrum()
    raise TypeError(
        f"expected HermitianOperator or SpectralDecomposition, got {type(obs).__name__}"
    )


def display_label(decomp: SpectralDecomposition) -> str:
    """The decomposition's label, or hermitian[dim] for an unlabelled one."""
    return decomp.label if decomp.label is not None else f"hermitian[{decomp.dim}]"


def _dead(weights):
    """Where branch weights count as zero: the one liveness rule, by which
    the selection zeroes a branch and update refuses one."""
    return weights < MIN_BRANCH_WEIGHT


def _edges(weights) -> np.ndarray:
    """The selection rule's edges for columns of branch weights (B, R),
    computed in place: with dead weights zeroed, the cumulative weights of
    all but the last branch, where an edge with no weight above it reads inf."""
    cum = weights
    cum[_dead(cum)] = 0.0
    for i in range(1, len(cum)):  # branch by branch, as np.cumsum adds
        cum[i] += cum[i - 1]
    cover = cum[-1].min(initial=1.0)
    if not cover >= 1.0 - COVERAGE_TOL:  # nan fails too
        raise MalformedDecompositionError(
            f"branch weights cover only {cover:.12f} of the state"
        )
    edges = cum[:-1]
    edges[edges >= cum[-1]] = np.inf
    return edges


def _pick(edges, cs) -> np.ndarray:
    """Each c in `cs` picks the number of `edges` below it: one column of
    edges shared by every c, or one per c."""
    return np.add.reduce(edges < cs, axis=0)


def select(decomp: SpectralDecomposition, amplitudes, cs) -> np.ndarray:
    """Branch index picked by each hidden scalar in `cs` on one state: the
    selection rule, which run_sequence applies to its rows' weights too.

    Dead branch weights (_dead) are zeroed, then each c picks the first
    branch whose cumulative weight reaches it, so the set of c choosing
    branch i is (cum[i-1], cum[i]]. A c above the last cumulative weight
    (rounding leaves cum[-1] a hair under 1) falls to the last branch that
    carries weight, never onto a zeroed one: the index counts the edges
    cum[i] below c, an edge with no weight above it never counting, so every
    branch picked is live. Callers keep every c inside (0, 1), as HiddenState,
    branch_indices and run_sequence enforce. The result has the shape of `cs`.
    """
    weights = decomp.weights(amplitudes)
    return _pick(_edges(weights.reshape((-1,) + (1,) * np.ndim(cs))), cs)


def _collapse(decomp: SpectralDecomposition, state: PureState, index: int) -> PureState:
    """Projection of `state` onto branch `index`, normalized by its own norm:
    no weight check, as select picks only live branches and update checks."""
    projected = decomp.project(state, index)
    return PureState(projected / np.sqrt(float(np.real(np.vdot(projected, projected)))))


def predict(obs, hidden: HiddenState) -> float:
    """Deterministic outcome for measuring `obs` on a hidden state.

    Returns the smallest branch eigenvalue whose cumulative weight reaches
    the hidden scalar. No collapse happens here; predict is a pure function
    of (observable, state, c).
    """
    decomp = as_decomposition(obs)
    return float(decomp.values[select(decomp, hidden.state.amplitudes, hidden.c)])


def _joint_basis(decomps):
    """(U, keep): a joint eigenbasis U of the decompositions' operators, with
    keep[b * K + k, j] = 1.0 where column j falls on branch b of decomposition
    k of K, and 0.0 elsewhere; or None.

    U diagonalises a fixed generic real combination of the operators, each
    scaled to unit spectral radius. It is kept only if every column carries
    at most JOINT_TOL of its weight off one branch of every decomposition
    (weight >= 1 - JOINT_TOL on it); non-commuting operators, or an accidental
    near-tie in the combination, fail this and get None.
    """
    mix = sum(d.reconstruct() / ((np.abs(d.values).max() or 1.0) * (k + np.pi))
              for k, d in enumerate(decomps))
    basis = np.linalg.eigh(mix)[1]
    columns = np.arange(len(basis))
    keep = np.zeros((max(len(d.values) for d in decomps), len(decomps), len(basis)))
    for k, d in enumerate(decomps):
        overlaps = d.vectors.conj().T @ basis
        weight = np.add.reduceat(overlaps.real ** 2 + overlaps.imag ** 2, d.offsets[:-1])
        branch = np.argmax(weight, axis=0)
        off = np.where(np.arange(len(d.values))[:, None] == branch, 0.0, weight).sum(axis=0)
        if off.max() > JOINT_TOL:
            return None
        keep[branch, k, columns] = 1.0
    return basis, keep.reshape(-1, len(basis))


@functools.lru_cache(maxsize=64)  # one per operator tuple: operators are immutable
def _family(ops):
    """(decomps, vectors, starts, slots, values, joint): the tables
    predict_each and run_sequence read `ops` with.

    vectors stacks the operators' eigenvectors as (K, d, d), so one product
    gives each operator its overlaps at its own (d, d) shape, with the bits of
    its own weights; a (d, K * d) hstack would round them differently. starts
    are the branch starts in the K * d overlaps laid end to end. Branch b of
    operator k has the slot b * K + k of a (width, K) table, and values[b, k]
    is its eigenvalue, zero below a column's last branch. joint is
    _joint_basis's (basis, keep) in the same slots, or None, so
    |coefficients|^2 @ keep.T holds every slot's weight at once.
    """
    if not ops:
        raise ValueError("a family needs at least one operator")
    decomps = [as_decomposition(op) for op in ops]
    dim = decomps[0].dim
    if any(d.dim != dim for d in decomps):
        raise DimensionMismatchError("the operators of a family differ in dimension")
    values = np.zeros((max(len(d.values) for d in decomps), len(ops)))
    for k, d in enumerate(decomps):
        values[:len(d.values), k] = d.values
    starts = np.concatenate([k * dim + d.offsets[:-1] for k, d in enumerate(decomps)])
    slots = np.concatenate([np.arange(len(d.values)) * len(ops) + k
                            for k, d in enumerate(decomps)])
    vectors = np.stack([d.vectors for d in decomps])
    return decomps, vectors, starts, slots, values, _joint_basis(decomps)


def predict_each(ops, hidden: HiddenState) -> list[float]:
    """predict() of every observable in `ops` on one hidden state, bit for bit
    [predict(op, hidden) for op in ops], with one product, one segment sum and
    one selection rule for the whole family.

    Each operator's branch weights fill one column of a table with as many
    rows as the family's largest spectrum has branches. The zeros below a
    shorter column act as a trailing zero-weight branch, whose edges _edges
    reads as inf, so every column picks the branch select picks for that
    operator alone.
    """
    _, vectors, starts, slots, values, _ = _family(tuple(ops))
    amps = amplitudes_of(hidden.state, vectors.shape[1])
    overlaps = (amps.conj() @ vectors).ravel()  # row k: conj(V_k^H psi)
    weights = np.zeros(values.size)
    weights[slots] = np.add.reduceat(overlaps.real ** 2 + overlaps.imag ** 2, starts)
    chosen = _pick(_edges(weights.reshape(values.shape)), hidden.c)
    return values[chosen, np.arange(len(chosen))].tolist()


def _open_scalars(cs) -> np.ndarray:
    """`cs` as floats, every one a hidden_scalar."""
    cs = np.asarray(cs, dtype=float)
    if cs.size:  # a nan reaches both ends
        hidden_scalar(cs.min())
        hidden_scalar(cs.max())
    return cs


def branch_indices(obs, state, cs) -> np.ndarray:
    """Branch index chosen by each hidden scalar in `cs`: predict()'s rule, vectorized."""
    state = state if isinstance(state, PureState) else PureState(state)
    return select(as_decomposition(obs), state.amplitudes, _open_scalars(cs))


def tally(obs, state, rng, trials: int, sink=None, labels=(), setting: int = 0) -> np.ndarray:
    """Branch counts of `trials` single-shot trials of `obs` on `state`, one
    draw of `rng` each, read TALLY_BLOCK draws at a time with the edges taken
    once and one comparison per edge: np.bincount of branch_indices on the
    whole stream, whatever the block size, in memory flat in trials. A `sink`
    is handed each block's events, set to `setting` of `labels` and valued
    from the same edges by the selection rule."""
    decomp = as_decomposition(obs)
    state = state if isinstance(state, PureState) else PureState(state)
    edges = _edges(decomp.weights(state.amplitudes)[:, None])  # one column: (branches - 1, 1)
    reached = np.zeros(len(decomp.values), dtype=np.intp)  # trials whose branch is >= i
    for first in range(0, trials, TALLY_BLOCK):
        cs = draw_hidden_batch(rng, min(TALLY_BLOCK, trials - first))
        reached += [cs.size] + [np.count_nonzero(cs > edge) for edge in edges]
        if sink is not None:
            values = decomp.values[_pick(edges, cs)]
            sink(Events(labels, np.arange(first, first + len(cs)), np.full(len(cs), setting),
                        cs, values))
    return -np.diff(reached, append=0)


def predict_batch(obs, state, cs) -> np.ndarray:
    """predict() over many hidden scalars sharing one state, vectorized."""
    decomp = as_decomposition(obs)
    return decomp.values[branch_indices(decomp, state, cs)]


def update(obs, hidden: HiddenState, value: float) -> PureState:
    """Projective collapse of the hidden state onto the branch for `value`.

    The branch is matched by eigenvalue within the decomposition tolerance.
    Here alone the caller names the branch, so here alone a dead one (_dead)
    can be asked for, which raises rather than collapse onto rounding noise.
    """
    decomp = as_decomposition(obs)
    index = decomp.branch_index(value)
    if index is None:
        raise BranchNotFoundError(
            f"no eigenvalue branch matches value {value!r}"
            f" among {list(decomp.values)}"
        )
    if _dead(decomp.weights(hidden.state)[index]):
        raise ZeroProbabilityBranchError(
            f"state carries no weight on the branch with eigenvalue {decomp.values[index]:g}")
    return _collapse(decomp, hidden.state, index)


def measure(obs, hidden: HiddenState, rng,
            label: str | None = None) -> tuple[MeasurementRecord, HiddenState]:
    """One measurement event: select a branch, collapse onto it, re-arm.

    The stored scalar hidden.c decides this event's value; the returned
    HiddenState carries the collapsed state armed with a fresh draw from
    `rng`, so chained calls consume exactly one draw per event.
    """
    decomp = as_decomposition(obs)
    index = int(select(decomp, hidden.state.amplitudes, hidden.c))
    post = _collapse(decomp, hidden.state, index)
    if label is None:
        label = display_label(decomp)
    record = MeasurementRecord(label, hidden.c, float(decomp.values[index]),
                               hidden.state, post)
    return record, HiddenState(post, draw_hidden(rng))


def run_sequence(ops, amplitudes, cs, orders=None) -> np.ndarray:
    """Measure N states at once, row n measuring ops[orders[n, s]] at step s
    under the hidden scalar cs[n, s]; by default every row measures `ops` in
    order. The one sequential kernel.

    `amplitudes` is one unit state or an (N, d) stack of them. Where the
    operators have a joint eigenbasis, rows carry their Born weights on the
    joint columns. A step takes every operator's branch weights for all rows,
    divides each row's own by the weight it has kept, applies the selection
    rule and zeroes the columns off the selected branch, as _collapse projects.
    A row whose c lies within EDGE_MARGIN of a step's cumulative weights, or
    which keeps less than LIGHT_BRANCH of its weight, is then measured again
    from its start on the scalar reference, select and _collapse; so is every
    row of a family with no joint basis. So row n reads exactly the values of
    chaining measure() from HiddenState(amplitudes[n], cs[n, 0]) over its
    order with cs[n, 1:] as the later draws, whatever rows share its block.
    Returns values[N, steps]: no caller reads the final states.
    """
    cs = _open_scalars(cs)
    if orders is None:
        if cs.ndim != 2 or cs.shape[1] != len(ops):
            raise ValueError(f"cs of shape {cs.shape} does not give one column per operator")
        orders = np.broadcast_to(np.arange(len(ops)), cs.shape)
    else:
        orders = np.asarray(orders)
        if cs.ndim != 2 or orders.shape != cs.shape:
            raise ValueError(f"orders of shape {orders.shape} do not match cs of shape {cs.shape}")
        if orders.dtype.kind not in "iu" or not ((0 <= orders) & (orders < len(ops))).all():
            raise ValueError(f"orders must index the {len(ops)} operators")
    decomps, _, _, _, table, joint = _family(tuple(ops))
    dim = decomps[0].dim
    amps = np.asarray(getattr(amplitudes, "amplitudes", amplitudes), dtype=complex)
    if amps.shape[-1:] != (dim,) or amps.ndim > 2:
        raise DimensionMismatchError(f"states of shape {amps.shape} do not match dimension {dim}")
    if not is_unit(np.linalg.norm(amps, axis=-1)).all():
        raise ValueError(f"a state's norm deviates from 1 by more than {NORM_TOL}")
    amps = np.broadcast_to(amps, (len(cs), dim))
    values = np.empty(cs.shape)
    replay = range(len(cs)) if joint is None else _run_joint(joint, table, amps, cs, orders, values)
    for n in replay:
        state = PureState(amps[n])
        for step, k in enumerate(orders[n].tolist()):
            index = int(select(decomps[k], state.amplitudes, cs[n, step]))
            values[n, step] = decomps[k].values[index]
            state = _collapse(decomps[k], state, index)
    return values


def _run_joint(joint, table, amps, cs, orders, values):
    """run_sequence's joint-basis route: fills `values` and returns the rows
    it leaves to the scalar reference, those near an edge or kept light."""
    basis, keep = joint
    width, ops = table.shape
    row_start = np.arange(len(cs)) * len(keep)
    branch_slot = np.arange(width)[:, None] * ops
    coef = amps @ basis.conj()
    born = coef.real ** 2 + coef.imag ** 2  # each row's Born weights on the joint columns
    mass = np.ones(len(cs))  # the weight each row has kept since its start
    cums = np.empty((cs.shape[1], width, len(cs)))  # each step's cumulative weights, total last
    for step in range(cs.shape[1]):
        op = orders[:, step]
        # Every operator's branch weights for every row, then each row's own: (width, N).
        every = born @ keep.T
        own = np.divide(np.take(every, row_start + branch_slot + op), mass, out=cums[step])
        chosen = _pick(_edges(own), cs[:, step]) * ops + op
        values[:, step] = np.take(table, chosen)
        mass = np.take(every, row_start + chosen)
        born *= np.take(keep, chosen, axis=0)
    near = (np.abs(cums - cs.T[:, None, :]) < EDGE_MARGIN).any(axis=(0, 1))
    return np.flatnonzero(near | (mass < LIGHT_BRANCH)).tolist()
