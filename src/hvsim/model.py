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
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchNotFoundError,
    DimensionMismatchError,
    HiddenDrawError,
    InvalidArgumentError,
    InvalidTypeError,
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
    as_state,
    is_unit,
    real,
    reals,
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
TREE_NODES = 1024  # states one shared-start tree holds; no output depends on it
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
    moves by exactly `count`, a whole number (whole).
    """
    return _slot_values(rng.random(whole(count, "count")))


def hidden_scalar(c) -> float:
    """`c` as a float strictly inside (0, 1), where hidden scalars lie (real)."""
    return real(c, "c", 0.0, 1.0)


def _open_scalars(cs) -> np.ndarray:
    """`cs` as a float array, every entry a hidden_scalar (reals)."""
    return reals(cs, "c", 0.0, 1.0)


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


def stream_key(key, case: bool = False) -> tuple[int, ...]:
    """`key` as a tuple of whole numbers (whole), the one key rule: a stream
    prefix (seed, *path), or with `case` a case key (seed, *path, case). No
    sequence raises InvalidTypeError; a key short of its seed or case, or a
    bad entry ("key entry"; a prefix's seed is "seed"), InvalidArgumentError."""
    entries = key.tolist() if isinstance(key, np.ndarray) else key
    if not isinstance(entries, Sequence):
        raise InvalidTypeError(f"a key is a sequence (seed, *path{', case' * case}), got {key!r}")
    if len(entries) < 1 + case:
        raise InvalidArgumentError("key", f"a key is (seed, *path{', case' * case}), got {key!r}")
    return tuple(whole(k, "key entry" if i or case else "seed") for i, k in enumerate(entries))


def case_slot(key, width: int) -> np.ndarray:
    """Replay one case from its key (seed, *path, case): the `width` uniforms
    that case reads from substream(seed, *path), `width` a whole number."""
    *path, case = stream_key(key, case=True)
    width = whole(width, "width")
    rng = substream(*path)
    rng.bit_generator.advance(case * width)
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
            raise HiddenDrawError("scripted uniform sequence exhausted")
        v = self._values[self._next]
        self._next += 1
        return v


class HiddenState:
    """A pure state plus the scalar that fixes the next measurement outcome."""

    __slots__ = ("state", "c")

    def __init__(self, state, c: float):
        self.state = as_state(state)
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
    per-event record; chain gives records whose pre_state is the previous
    record's post_state object."""

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

    def __post_init__(self):
        """Hold each column as a 1-d array as long as case, and refuse a
        setting that is not an integer index into labels."""
        for name in ("case", "setting", "c", "value"):
            column = np.asarray(getattr(self, name))
            if column.ndim != 1 or len(column) != len(self.case):
                raise InvalidArgumentError(name, f"Events column {name} must be 1-d and as long"
                                           f" as case, got shape {column.shape}")
            object.__setattr__(self, name, column)
        setting = self.setting
        if setting.dtype.kind not in "iu" or len(setting) and not (
                setting.min() >= 0 and setting.max() < len(self.labels)):
            raise InvalidArgumentError("setting", "Events setting must hold integer indices"
                                       f" into its {len(self.labels)} labels, got {setting!r}")

    def csv_rows(self):
        """Yield the block's rows of the report under CSV_HEADER, SWEEP_BLOCK
        rows per string: the only CSV renderer.

        A string is one byte table, a row per event, compacted by one mask
        and decoded once. A row's fields are the case index's digits; the
        setting's label between its commas, quoted once by the csv module;
        c as repr writes it (_c_text); and the repr of the value with the
        line end. value holds few distinct numbers, so each distinct bit
        pattern, read off the sorted bits, is formatted once; bits, unlike
        float equality, keep -0.0 apart from 0.0. Each field is a (table,
        keep) pair: its bytes in columns, and which of them the row writes.
        """
        labels = _text_table([f",{_csv_field(label)}," for label in self.labels])
        value = np.asarray(self.value, dtype=float)
        for first in range(0, len(value), SWEEP_BLOCK):
            block = slice(first, first + SWEEP_BLOCK)
            bits = value[block].view(np.int64)
            ordered = np.sort(bits)
            distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
            shown = _text_table([f",{v!r}\n" for v in distinct.view(float).tolist()])
            which = np.searchsorted(distinct, bits)
            fields = [_case_text(self.case[block]),
                      [part.take(self.setting[block], axis=0) for part in labels],
                      _c_text(self.c[block]),
                      [part.take(which, axis=0) for part in shown]]
            table, keep = (np.concatenate(parts, axis=1) for parts in zip(*fields))
            yield table[keep].tobytes().decode("utf-8", "surrogatepass")


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it as a field. It is written as the
    first of two fields, because a row of one empty field reads '""'."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]  # drop the empty second field's ",\n"


def _text_table(texts) -> tuple[np.ndarray, np.ndarray]:
    """(table, keep) of strings: row i holds the UTF-8 bytes of texts[i],
    and keep marks as many of its first columns as it has bytes. The widths
    are kept rather than read from NUL padding, since a label may hold NUL."""
    data = [text.encode("utf-8", "surrogatepass") for text in texts]
    widths = np.array([len(d) for d in data], dtype=np.intp)
    width = max(1, widths.max(initial=0))
    table = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    return table, np.arange(width) < widths[:, None]


@functools.cache
def _digit_quads() -> np.ndarray:
    """The ASCII bytes of "0000" to "9999", four digits to an element."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _digits(n: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each non-negative integer in `n`,
    most significant first, as an (N, width) table of ASCII bytes: four
    digits per division, their bytes taken from _digit_quads."""
    index = np.empty((-(-width // 4), len(n)), dtype=np.intp)
    for row in index[::-1]:
        higher = n // 10**4
        row[:] = n - 10**4 * higher
        n = higher
    table = _digit_quads().take(index.T).view(np.uint8)
    return table[:, table.shape[1] - width:]


def _case_text(case: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, keep) of str(case) for each case: its digits less leading
    zeros for a non-negative integer, str() for anything else."""
    if case.dtype.kind not in "iu" or case.min(initial=0) < 0:
        return _text_table(map(str, case.tolist()))
    case = case.astype(np.uint64)  # its powers of ten compare exactly
    width = len(str(case.max(initial=0)))
    more = np.searchsorted(10 ** np.arange(1, width, dtype=np.uint64), case, side="right")
    columns = np.arange(width)  # a case with 1 + more digits keeps the last 1 + more
    return _digits(case, width), (columns >= width - 1 - columns[:, None]).take(more, axis=0)


def _c_text(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, keep) holding repr(c) for each c: "0." and the digits
    _shortest_digits gives for a float64 c in [1e-4, 1), where repr writes
    no exponent, or else repr itself from the field's first column. Other
    rows give _shortest_digits a stand-in whose repr needs all 17 digits,
    so that it holds the power loop for no pass."""
    fast = ((c >= 1e-4) & (c < 1.0) if c.dtype == np.float64
            else np.zeros(c.shape, dtype=bool))
    n, places = _shortest_digits(np.where(fast, c, 0.30000000000000004))
    slow = np.flatnonzero(~fast)
    shown, shown_keep = _text_table(map(repr, c[slow].tolist()))
    width = places.max()
    table = np.empty((len(c), max(2 + width, shown.shape[1])), dtype=np.uint8)
    table[:, 0], table[:, 1] = b"0."  # a column at a time: a broadcast row is slower
    table[:, 2:2 + width] = _digits(n, width)
    columns = np.arange(table.shape[1])
    first = 2 + width - np.arange(width + 1)[:, None]  # the first digit written, by places
    keep = ((columns < 2) | ((columns >= first) & (columns < 2 + width))).take(places, axis=0)
    keep[slow] = False
    table[slow, :shown.shape[1]], keep[slow, :shown.shape[1]] = shown, shown_keep
    return table, keep


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a * b) and p + e = a * b exactly: Dekker's product,
    each factor split into two 26-bit halves."""
    def split(v):
        t = 134217729.0 * v  # 2**27 + 1
        high = t - (t - v)
        return high, v - high
    p = a * b
    (a1, a2), (b1, b2) = split(a), split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, places), int64 arrays, with repr(x[i]) == "0." +
    str(n[i]).zfill(places[i]) for every float x[i] in [1e-4, 1): Python's
    shortest round-trip repr, computed exactly in float64 and int64.

    With 10**a chosen so that v = x * 10**a lies in [1e16, 1e17), v is held
    exactly as an int64 whole part and a float fraction. The reals that read
    back as x lie within half an ulp of it; scaled by 10**a, the half-ulp is
    the exact float h = ldexp(10**a, e - 54), below 12. repr writes the
    multiple of the largest 10**k in (v - h, v + h) that lies nearest v, a
    tie going to the even one; the nearest lies inside, as the interval is
    symmetric about v.

    Here, with x = m * 2**(e - 53), v +- h = 5**a * 2**(a + e - 54) * (2m +- 1)
    and a + e - 54 < 0, so the interval's ends are never integers: whether
    an end reads back as x never decides. Nor does the narrower gap below a
    power of two 2**-j (j <= 13): v = 5**j * 10**(a - j) is then itself the
    multiple written, as no multiple of 10**(a - j + 1) lies within
    10**(a - j) >= 10**7 of it.
    """
    # 1e-3, 1e-2 and 0.1 are each the float just above its power of ten, so
    # x >= 10**-j exactly where x >= that float.
    above_tens = np.searchsorted(np.array([1e-3, 1e-2, 0.1]), x, side="right")
    scale = np.array([1e20, 1e19, 1e18, 1e17])[above_tens]  # 10**a, exact
    high, low = _two_product(x, scale)
    whole = high.astype(np.int64) + np.floor(low).astype(np.int64)
    fraction = low - np.floor(low)  # v = whole + fraction, exactly
    half_ulp = np.ldexp(scale, np.frexp(x)[1] - 54)
    # The least and the greatest integer in the interval, which is wider than 1.
    first = whole + np.ceil(fraction - half_ulp).astype(np.int64)
    last = whole + np.floor(fraction + half_ulp).astype(np.int64)
    tens = 10 ** np.arange(17, dtype=np.int64)
    k = np.zeros(len(x), dtype=np.intp)
    for power in tens[1:]:  # an interval holding a multiple of 10**j holds one of 10**(j - 1)
        more = last // power > (first - 1) // power
        if not more.any():
            break
        k += more
    unit = tens[k]
    down = whole // unit  # the multiples of unit next to v, over unit: down and down + 1
    # down + 1 is nearer v where 2 * fraction > unit - 2 * (whole - down * unit);
    # the right side is an integer, clipped to +-4 to compare exactly.
    twice = 2 * fraction
    gap = np.clip(unit - 2 * (whole - down * unit), -4, 4).astype(float)
    up = (twice > gap) | ((twice == gap) & (down % 2 == 1))
    return down + up, 20 - above_tens - k


def as_decomposition(obs) -> SpectralDecomposition:
    """Coerce an observable argument to its spectral decomposition."""
    if isinstance(obs, SpectralDecomposition):
        return obs
    if isinstance(obs, HermitianOperator):
        return obs.spectrum()
    raise InvalidTypeError(
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
    edges = _family((decomp,)).edges(amplitudes_of(amplitudes, decomp.dim))
    return _pick(edges.reshape((-1,) + (1,) * np.ndim(cs)), cs)


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


class _Family:
    """The tables select, tally, predict_each, run_sequence and _Tree read
    the operators `ops` with (select and tally on one operator, ops =
    (decomp,)): their decomps, their dimension dim, and values, (width, K),
    whose [b, k] is the eigenvalue of branch b of operator k, zero below a
    column's last branch.

    The eigenvectors are stacked as (K, d, d), so one product gives each
    operator its overlaps at its own (d, d) shape, with the bits of its own
    weights; a (d, K * d) hstack would round them differently.
    """

    def __init__(self, ops):
        if not ops:
            raise InvalidArgumentError("ops", "a family needs at least one operator")
        self.decomps = [as_decomposition(op) for op in ops]
        self.dim = self.decomps[0].dim
        if any(d.dim != self.dim for d in self.decomps):
            raise DimensionMismatchError("the operators of a family differ in dimension")
        self.values = np.zeros((max(len(d.values) for d in self.decomps), len(ops)))
        for k, d in enumerate(self.decomps):
            self.values[:len(d.values), k] = d.values
        self._vectors = np.stack([d.vectors for d in self.decomps])
        # Branch starts in the K * d overlaps laid end to end, and the slot
        # b * K + k of values that branch b of operator k fills.
        self._starts = np.concatenate([k * self.dim + d.offsets[:-1]
                                       for k, d in enumerate(self.decomps)])
        self._slots = np.concatenate([np.arange(len(d.values)) * len(ops) + k
                                      for k, d in enumerate(self.decomps)])

    @functools.cached_property
    def joint(self):
        """_joint_basis's (basis, keep) in the slots of values, or None, so
        |coefficients|^2 @ keep.T holds every slot's weight at once; only the
        stacked route reads it."""
        return _joint_basis(self.decomps)

    def edges(self, amplitudes) -> np.ndarray:
        """The edges of every operator on the (dim,) state `amplitudes`, a
        (width - 1, K) array from one product, one segment sum and one _edges.

        Each operator's branch weights fill one column of a table of values'
        shape. The zeros below a shorter column act as a trailing zero-weight
        branch, whose edges _edges reads as inf, so column k is, bit for bit,
        _edges(decomps[k].weights(amplitudes)) padded with inf.
        """
        overlaps = (amplitudes.conj() @ self._vectors).ravel()  # row k: conj(V_k^H psi)
        weights = np.zeros(self.values.size)
        weights[self._slots] = np.add.reduceat(overlaps.real ** 2 + overlaps.imag ** 2,
                                               self._starts)
        return _edges(weights.reshape(self.values.shape))


_family = functools.lru_cache(maxsize=64)(_Family)  # one per tuple: operators are immutable


def predict_each(ops, hidden: HiddenState) -> list[float]:
    """predict() of every observable in `ops` on one hidden state, bit for bit
    [predict(op, hidden) for op in ops], with one selection rule on
    _Family.edges, whose every column picks the branch select picks for that
    operator alone.
    """
    family = _family(tuple(ops))
    chosen = _pick(family.edges(amplitudes_of(hidden.state, family.dim)), hidden.c)
    return family.values[chosen, np.arange(len(chosen))].tolist()


def branch_indices(obs, state, cs) -> np.ndarray:
    """Branch index chosen by each hidden scalar in `cs`: predict()'s rule, vectorized."""
    state = as_state(state)
    return select(as_decomposition(obs), state.amplitudes, _open_scalars(cs))


def tally(obs, state, rng, trials: int, sink=None, labels=(), setting: int = 0) -> np.ndarray:
    """Branch counts of `trials` single-shot trials of `obs` on `state`, one
    draw of `rng` each, read TALLY_BLOCK draws at a time with the edges taken
    once and one comparison per edge: np.bincount of branch_indices on the
    whole stream, whatever the block size, in memory flat in trials. A `sink`
    is handed each block's events, set to `setting` of `labels` and valued
    from the same edges by the selection rule."""
    decomp = as_decomposition(obs)
    state = as_state(state)
    edges = _family((decomp,)).edges(amplitudes_of(state, decomp.dim))  # (branches - 1, 1)
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


def chain(ops, start, cs, labels=None) -> list[MeasurementRecord]:
    """Measure `ops` in turn on `start`, step s decided by the hidden scalar
    cs[s]: select a branch, collapse onto it and record the event, named
    labels[s] or display_label. The one chain of measurement events on the
    scalar reference; each record's pre_state is the previous record's
    post_state object. Callers keep every c inside (0, 1), as HiddenState
    and run_sequence enforce."""
    state = as_state(start)
    records = []
    for step, (obs, c) in enumerate(zip(ops, cs, strict=True)):
        decomp = as_decomposition(obs)
        index = int(select(decomp, state.amplitudes, c))
        post = _collapse(decomp, state, index)
        label = display_label(decomp) if labels is None else labels[step]
        records.append(MeasurementRecord(label, c, float(decomp.values[index]), state, post))
        state = post
    return records


def measure(obs, hidden: HiddenState, rng,
            label: str | None = None) -> tuple[MeasurementRecord, HiddenState]:
    """One measurement event, chain's one step under hidden.c, then a re-arm:
    the returned HiddenState carries the collapsed state armed with a fresh
    draw from `rng`, so chained calls consume exactly one draw per event.
    """
    [record] = chain((obs,), hidden.state, (hidden.c,), None if label is None else (label,))
    return record, HiddenState(record.post_state, draw_hidden(rng))


def run_sequence(ops, amplitudes, cs, orders=None) -> np.ndarray:
    """Measure N states at once, row n measuring ops[orders[n, s]] at step s
    under the hidden scalar cs[n, s]; by default every row measures `ops` in
    order. The one sequential kernel.

    `amplitudes` is one unit state or an (N, d) stack of them. Rows that
    share one start walk its outcome tree (_Tree), whose every node is built
    on the scalar reference, so no row is measured again; a block that would
    grow the tree past TREE_NODES takes the stacked route instead.

    On the stacked route, where the operators have a joint eigenbasis, rows
    carry their Born weights on the joint columns. A step takes every
    operator's branch weights for all rows, divides each row's own by the
    weight it has kept, applies the selection rule and zeroes the columns off
    the selected branch, as _collapse projects. A row whose c lies within
    EDGE_MARGIN of a step's cumulative weights, or which keeps less than
    LIGHT_BRANCH of its weight, is then measured again from its start on the
    scalar reference, chain; so is every row of a family with no joint basis.

    So on either route row n reads exactly the values of chain over its
    order from amplitudes[n] under cs[n], whatever rows share its block.
    Returns values[N, steps]: no caller reads the final states.
    """
    cs = _open_scalars(cs)
    if orders is None:
        if cs.ndim != 2 or cs.shape[1] != len(ops):
            raise InvalidArgumentError(
                "cs", f"cs of shape {cs.shape} does not give one column per operator")
        orders = np.broadcast_to(np.arange(len(ops)), cs.shape)
    else:
        orders = np.asarray(orders)
        if cs.ndim != 2 or orders.shape != cs.shape:
            raise InvalidArgumentError(
                "orders", f"orders of shape {orders.shape} do not match cs of shape {cs.shape}")
        if orders.dtype.kind not in "iu" or not ((0 <= orders) & (orders < len(ops))).all():
            raise InvalidArgumentError("orders", f"orders must index the {len(ops)} operators")
        orders = orders.astype(np.intp, copy=False)  # slot arithmetic must not wrap or turn float
    ops = tuple(ops)
    family = _family(ops)
    amps = amplitudes_of(amplitudes)
    if amps.shape[-1:] != (family.dim,) or amps.ndim > 2:
        raise DimensionMismatchError(
            f"states of shape {amps.shape} do not match dimension {family.dim}")
    if not is_unit(np.linalg.norm(amps, axis=-1)).all():
        raise InvalidArgumentError(
            "amplitudes", f"a state's norm deviates from 1 by more than {NORM_TOL}")
    values = np.empty(cs.shape)
    if amps.ndim == 1 and _tree(ops, amps.tobytes()).walk(cs, orders, values):
        return values
    amps = np.broadcast_to(amps, (len(cs), family.dim))
    replay = _run_joint(family, amps, cs, orders, values) if family.joint else range(len(cs))
    for n in replay:
        values[n] = [r.value for r in chain([family.decomps[k] for k in orders[n].tolist()],
                                            amps[n], cs[n])]
    return values


class _Tree:
    """The outcome tree of one operator tuple on one start state. Node 0 is
    the start; the child of node n under (operator k, branch b) is the state
    measuring ops[k] on node n collapses onto when it reads branch b. Each
    node is built once, when some row first reaches it: its children are
    _collapse's states, and its edges under every operator are one
    _Family.edges call, each column select's edges of that operator. A row
    then reads exactly the floats select and chain compare its c with.
    """

    def __init__(self, ops, start: PureState):
        self.family = _family(ops)
        self.states = [start]
        self.lock = threading.Lock()  # walks that share a tree grow it one at a time
        # Row n * K + k holds node n's edges under ops[k], and
        # [(n * K + k) * width + b] its child under branch b, -1 until built.
        self.edges = self.family.edges(start.amplitudes).T
        self.child = np.full(self.family.values.size, -1)

    def walk(self, cs, orders, values) -> bool:
        """Fill `values` as run_sequence does, each step one gather of every
        row's edges, one _pick and one gather of its child; or return False
        if that would grow the tree past TREE_NODES."""
        family = self.family
        width, ops = family.values.shape
        node = 0  # every row starts at the start
        with self.lock:
            for step in range(cs.shape[1]):
                op = orders[:, step]
                pair = node * ops + op
                chosen = _pick(self.edges[pair].T, cs[:, step])
                values[:, step] = np.take(family.values, chosen * ops + op)
                if step + 1 == cs.shape[1]:
                    break  # no row reads the states its last step leaves
                slot = pair * width + chosen
                node = self.child[slot]
                unbuilt = node < 0
                if unbuilt.any():
                    new = sorted(set(slot[unbuilt].tolist()))
                    if len(self.states) + len(new) > TREE_NODES:
                        return False
                    for q in new:
                        n, k = divmod(q // width, ops)
                        self.states.append(_collapse(family.decomps[k], self.states[n], q % width))
                        self.child[q] = len(self.states) - 1
                    rows = [family.edges(s.amplitudes).T for s in self.states[-len(new):]]
                    self.edges = np.concatenate([self.edges, *rows])
                    self.child = np.concatenate([self.child, np.full(len(new) * width * ops, -1)])
                    node = self.child[slot]
        return True


@functools.lru_cache(maxsize=64)  # one per (operator tuple, start): operators are immutable
def _tree(ops, start: bytes) -> _Tree:
    """The outcome tree of `ops` on the state whose amplitudes' bytes are `start`."""
    return _Tree(ops, as_state(np.frombuffer(start, dtype=complex)))


def _run_joint(family, amps, cs, orders, values):
    """run_sequence's joint-basis route: fills `values` and returns the rows
    it leaves to the scalar reference, those near an edge or kept light."""
    basis, keep = family.joint
    width, ops = family.values.shape
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
        values[:, step] = np.take(family.values, chosen)
        mass = np.take(every, row_start + chosen)
        born *= np.take(keep, chosen, axis=0)
    near = (np.abs(cums - cs.T[:, None, :]) < EDGE_MARGIN).any(axis=(0, 1))
    return np.flatnonzero(near | (mass < LIGHT_BRANCH)).tolist()
