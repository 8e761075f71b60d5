"""Tests for the prediction map, collapse rule and measurement chaining."""

from __future__ import annotations

import csv
import io
import itertools
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import Blocks
from hvsim.errors import (
    BranchNotFoundError,
    DimensionMismatchError,
    HiddenDrawError,
    HvsimError,
    InvalidArgumentError,
    InvalidTypeError,
    MalformedDecompositionError,
    ZeroProbabilityBranchError,
)
from hvsim import experiments, model
from hvsim.cli import main
from hvsim.expressions import implications_operators, peres_mermin
from hvsim.model import (
    CSV_HEADER,
    MIN_BRANCH_WEIGHT,
    Events,
    HiddenState,
    MeasurementRecord,
    ScriptedUniforms,
    as_decomposition,
    branch_indices,
    case_slot,
    draw_hidden,
    draw_hidden_batch,
    measure,
    predict,
    predict_batch,
    predict_each,
    run_sequence,
    select,
    substream,
    sweep,
    tally,
    update,
)
from hvsim.operators import (
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    basis_ket,
    commuting_family,
    haar_state,
    normalized,
    pauli,
    phase_distance,
    random_hermitian,
    random_unitary,
    spectral,
    tensor,
    identity,
)

# A qubit state whose |1> amplitude squares to exactly MIN_BRANCH_WEIGHT: Z's
# -1 branch weighs exactly the cutoff on it.
AT_CUTOFF = np.array([np.sqrt(1.0 - 1e-12), 1e-6])


class TestRandomness:
    def test_substream_is_reproducible(self):
        a = substream(7, 1, 2).random(5)
        b = substream(7, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)
        c = substream(7, 1, 3).random(5)
        assert not np.array_equal(a, c)

    def test_substream_rejects_negative(self):
        # A bool and a float are refused too, even one with an integer value.
        for path in ((-1,), (0, -2), (True,), (0, 2.0), (float("nan"),)):
            with pytest.raises(InvalidArgumentError):
                substream(*path)

    def test_draw_hidden_open_interval(self):
        rng = substream(0)
        values = [draw_hidden(rng) for _ in range(1000)]
        assert all(0.0 < v < 1.0 for v in values)

    def test_draw_hidden_batch_matches_interval(self):
        values = draw_hidden_batch(substream(3), 10_000)
        assert values.shape == (10_000,)
        assert ((values > 0.0) & (values < 1.0)).all()

    @pytest.mark.parametrize("count", [-1, 2.0, True, float("nan")])
    def test_draw_hidden_batch_count_is_a_whole_number(self, count):
        with pytest.raises(InvalidArgumentError) as info:
            draw_hidden_batch(substream(3), count)
        assert info.value.argument == "count"

    def test_scripted_uniforms(self):
        script = ScriptedUniforms([0.25, 0.75])
        assert script.random() == 0.25
        assert script.random() == 0.75
        with pytest.raises(RuntimeError) as exhausted:
            script.random()
        assert isinstance(exhausted.value, HiddenDrawError)
        with pytest.raises(ValueError):
            ScriptedUniforms([0.0])
        with pytest.raises(ValueError):
            ScriptedUniforms([1.0])


class TestHiddenState:
    def test_bounds(self):
        HiddenState(basis_ket(2, 0), 0.5)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidArgumentError) as info:
                HiddenState(basis_ket(2, 0), bad)
            assert info.value.argument == "c"

    def test_coerces_amplitudes(self):
        hs = HiddenState([1.0, 0.0], 0.5)
        assert isinstance(hs.state, PureState)

    def test_draw(self):
        hs = HiddenState.draw(basis_ket(2, 0), ScriptedUniforms([0.7]))
        assert hs.c == 0.7


NAN = float("nan")
NAN_STATE = [NAN, 0.0]
NAN_CASES = {
    "PureState": lambda: PureState(NAN_STATE),
    "predict": lambda: predict(pauli("z"), HiddenState(NAN_STATE, 0.5)),
    "predict_each": lambda: predict_each((pauli("z"),), HiddenState(NAN_STATE, 0.5)),
    "branch_indices": lambda: branch_indices(pauli("z"), NAN_STATE, [0.5]),
    "predict_batch": lambda: predict_batch(pauli("z"), NAN_STATE, [0.5]),
    "tally": lambda: tally(pauli("z"), NAN_STATE, substream(0), 10),
    "measure": lambda: measure(pauli("z"), HiddenState(NAN_STATE, 0.5), substream(0)),
    "update": lambda: update(pauli("z"), HiddenState(NAN_STATE, 0.5), 1.0),
    "normalized": lambda: normalized(NAN_STATE),
    "born_experiment": lambda: experiments.born_experiment(NAN_STATE, pauli("z"), 10, 0, 5.0),
    "HiddenState c": lambda: HiddenState(basis_ket(2, 0), NAN),
    "ScriptedUniforms": lambda: ScriptedUniforms([0.5, NAN]),
}


class TestNanInputs:
    """A nan state or hidden scalar is refused at every entry point, before
    numpy has warned about it; each of these but the last two took a nan
    state once and answered it."""

    @pytest.mark.parametrize("name", NAN_CASES)
    def test_refused(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as refused:
                NAN_CASES[name]()
            assert isinstance(refused.value, InvalidArgumentError)

    def test_select_on_raw_amplitudes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MalformedDecompositionError):
                select(pauli("z").spectrum(), np.array(NAN_STATE, dtype=complex), 0.5)


class TestPredict:
    def test_plus_state_threshold(self):
        # Z on (|0>+|1>)/sqrt2 splits the cumulative near 1/2; the boundary
        # itself (inclusive) belongs to the smaller-eigenvalue branch. The
        # split point is the computed cumulative, one ulp below 0.5 here.
        plus = normalized([1.0, 1.0])
        boundary = float(np.cumsum(spectral(pauli("z")).weights(plus))[0])
        assert predict(pauli("z"), HiddenState(plus, 0.3)) == -1.0
        assert predict(pauli("z"), HiddenState(plus, boundary)) == -1.0
        assert predict(pauli("z"), HiddenState(plus, np.nextafter(boundary, 1.0))) == 1.0
        assert predict(pauli("z"), HiddenState(plus, 0.9)) == 1.0

    def test_eigenstate_is_deterministic(self):
        for c in (1e-6, 0.3, 0.999999):
            assert predict(pauli("z"), HiddenState(basis_ket(2, 0), c)) == 1.0
            assert predict(pauli("z"), HiddenState(basis_ket(2, 1), c)) == -1.0

    def test_spin_rotation_thresholds(self):
        # cos(pi/3)|0> + sin(pi/3)|1>: weight 3/4 on the -1 branch, 1/4 on +1.
        theta = np.pi / 3
        state = PureState([np.cos(theta), np.sin(theta)])
        # sin(pi/3)**2 lands one ulp below 3/4, so probe clear of the boundary.
        assert predict(pauli("z"), HiddenState(state, 0.4)) == -1.0
        assert predict(pauli("z"), HiddenState(state, 0.74)) == -1.0
        assert predict(pauli("z"), HiddenState(state, 0.76)) == 1.0

    def test_accepts_precomputed_decomposition(self):
        decomp = spectral(pauli("z"))
        hs = HiddenState(normalized([1.0, 1.0]), 0.2)
        assert predict(decomp, hs) == predict(pauli("z"), hs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict(pauli("z"), HiddenState(basis_ket(4, 0), 0.5))

    def test_rejects_non_observable(self):
        with pytest.raises(InvalidTypeError):
            predict(np.eye(2), HiddenState(basis_ket(2, 0), 0.5))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_monotone_in_c(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        op = random_hermitian(dim, rng)
        state = haar_state(dim, rng)
        cs = np.sort(rng.uniform(1e-6, 1 - 1e-6, size=20))
        values = [predict(op, HiddenState(state, c)) for c in cs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_exact_phase_rotations_leave_prediction_unchanged(self, seed):
        # Multiplication by i or -1 is exact in floating point, so the
        # prediction must be bitwise identical under those global phases.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        op = random_hermitian(dim, rng)
        state = haar_state(dim, rng)
        c = float(rng.uniform(1e-3, 1 - 1e-3))
        base = predict(op, HiddenState(state, c))
        for phase in (1j, -1.0, -1j):
            rotated = PureState(phase * state.amplitudes)
            assert predict(op, HiddenState(rotated, c)) == base

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        op = random_hermitian(dim, rng)
        state = haar_state(dim, rng)
        cs = rng.uniform(1e-6, 1 - 1e-6, size=64)
        batch = predict_batch(op, state, cs)
        scalar = [predict(op, HiddenState(state, c)) for c in cs]
        np.testing.assert_array_equal(batch, scalar)

    def test_batch_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            predict_batch(pauli("z"), basis_ket(2, 0), [0.5, 0.0])

    def test_branch_indices_counts(self):
        indices = branch_indices(pauli("z"), normalized([1.0, 1.0]),
                                 [0.1, 0.3, 0.7])
        np.testing.assert_array_equal(indices, [0, 0, 1])

    def test_zero_weight_branch_is_skipped(self):
        # diag(0, 1, 2) on a state with no weight on the middle branch: the
        # cumulative repeats at the boundary, so eigenvalue 1 is unreachable.
        op = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        state = normalized([1.0, 0.0, 1.0])
        boundary = float(np.cumsum(spectral(op).weights(state))[0])
        assert predict(op, HiddenState(state, boundary)) == 0.0
        assert predict(op, HiddenState(state, np.nextafter(boundary, 1.0))) == 2.0
        values = predict_batch(op, state, np.linspace(0.01, 0.99, 97))
        assert 1.0 not in values

    def test_malformed_decomposition_guard(self):
        # The constructor takes its fields unchecked: one column cannot cover C^2.
        bad = SpectralDecomposition(np.array([1.0]), np.array([[1.0], [0.0]], dtype=complex),
                                    np.array([0, 1]), 1e-9)
        with pytest.raises(MalformedDecompositionError):
            predict(bad, HiddenState(normalized([1.0, 1.0]), 0.9))


class TestUpdate:
    def test_collapse_onto_minus_branch(self):
        # I(x)X on |00> with value -1 collapses to |0>(x)(|0>-|1>)/sqrt2.
        op = tensor(identity(2), pauli("x"))
        post = update(op, HiddenState(basis_ket(4, 0), 0.4), -1.0)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(post.amplitudes, [s, -s, 0.0, 0.0], atol=1e-12)

    def test_eigenstate_is_fixed_point(self):
        post = update(pauli("z"), HiddenState(basis_ket(2, 0), 0.2), 1.0)
        np.testing.assert_allclose(post.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_unknown_value(self):
        with pytest.raises(BranchNotFoundError):
            update(pauli("z"), HiddenState(basis_ket(2, 0), 0.5), 0.5)

    def test_zero_probability_branch(self):
        with pytest.raises(ZeroProbabilityBranchError):
            update(pauli("z"), HiddenState(basis_ket(2, 0), 0.5), -1.0)

    def test_collapses_onto_a_branch_at_the_cutoff(self):
        # The -1 branch weighs exactly MIN_BRANCH_WEIGHT, which is live.
        state = PureState(AT_CUTOFF)
        assert spectral(pauli("z")).weights(state)[0] == MIN_BRANCH_WEIGHT
        post = update(pauli("z"), HiddenState(state, 0.5), -1.0)
        assert post.amplitudes.tolist() == [0.0, 1.0]

    def test_refuses_a_branch_one_step_below_the_cutoff(self):
        below = np.nextafter(1e-6, 0.0)
        state = PureState([np.sqrt(1.0 - below**2), below])
        assert spectral(pauli("z")).weights(state)[0] < MIN_BRANCH_WEIGHT
        with pytest.raises(ZeroProbabilityBranchError):
            update(pauli("z"), HiddenState(state, 0.5), -1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            update(pauli("z"), HiddenState(basis_ket(4, 0), 0.5), 1.0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_update_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        op = random_hermitian(dim, rng)
        hs = HiddenState(haar_state(dim, rng), float(rng.uniform(0.01, 0.99)))
        value = predict(op, hs)
        once = update(op, hs, value)
        twice = update(op, HiddenState(once, 0.5), value)
        assert phase_distance(once, twice) <= 1e-12


class TestMeasure:
    def test_consumes_stored_scalar_then_rearms(self):
        plus = normalized([1.0, 1.0])
        script = ScriptedUniforms([0.9])
        record, after = measure(pauli("z"), HiddenState(plus, 0.3), script)
        assert record.c_used == 0.3
        assert record.value == -1.0
        assert after.c == 0.9
        with pytest.raises(RuntimeError) as exhausted:  # the re-arm read the one scripted scalar
            script.random()
        assert isinstance(exhausted.value, HiddenDrawError)
        np.testing.assert_allclose(after.state.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_one_draw_per_event(self):
        script = ScriptedUniforms([0.2, 0.8])
        hs = HiddenState(basis_ket(4, 0), 0.4)
        op = tensor(pauli("x"), pauli("x"), "XX")
        _, hs = measure(op, hs, script)
        _, hs = measure(op, hs, script)
        with pytest.raises(RuntimeError) as exhausted:  # two events read two scalars
            script.random()
        assert isinstance(exhausted.value, HiddenDrawError)

    def test_record_label_falls_back_to_operator_label(self):
        record, _ = measure(pauli("z"), HiddenState(basis_ket(2, 0), 0.5),
                            ScriptedUniforms([0.5]))
        assert record.observable_label == "Z"
        record2, _ = measure(pauli("z"), HiddenState(basis_ket(2, 0), 0.5),
                             ScriptedUniforms([0.5]), label="first")
        assert record2.observable_label == "first"

    def test_repeated_measurement_repeats(self):
        rng = substream(11)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            op = random_hermitian(dim, rng)
            hs = HiddenState.draw(haar_state(dim, rng), rng)
            first, hs = measure(op, hs, rng)
            second, hs = measure(op, hs, rng)
            assert second.value == pytest.approx(first.value, abs=1e-9)
            assert phase_distance(first.post_state, second.post_state) <= 1e-9


class TestTraceSerialization:
    def test_json_contract(self):
        # table1's "trace" and weak-fc's "steps" write each event as its
        # record's dict.
        script = ScriptedUniforms([0.2])
        xx = tensor(pauli("x"), pauli("x"), "XX")
        record, _ = measure(xx, HiddenState(basis_ket(4, 0), 0.4), script)
        assert isinstance(record, MeasurementRecord)
        doc = record.as_dict()
        assert list(doc) == ["label", "c", "value", "pre_state", "post_state"]
        assert doc["label"] == "XX"
        assert doc["c"] == 0.4
        assert doc["value"] == -1.0
        assert [type(doc[key]) for key in ("c", "value")] == [float, float]
        assert doc["pre_state"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        half = 1 / np.sqrt(2)  # the projection of |00> onto XX = -1, (|00> - |11>)/sqrt2
        np.testing.assert_allclose(doc["post_state"], [[half, 0], [0, 0], [0, 0], [-half, 0]],
                                   atol=1e-12)

    def test_as_decomposition_coercion(self):
        decomp = spectral(pauli("x"))
        assert as_decomposition(decomp) is decomp
        assert as_decomposition(pauli("x")).dim == 2
        with pytest.raises(TypeError) as refused:  # still a TypeError
            as_decomposition("Z")
        assert isinstance(refused.value, InvalidTypeError)


# Float64 bit patterns of both zeros, nan, both infinities, the smallest and
# largest subnormals, the largest finite double and +-1.
_SPECIAL_BITS = [int(b) for b in np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.225073858507201e-308,
     1.7976931348623157e308, 1.0, -1.0]).view(np.int64)]
_FLOAT_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(-2**63, 2**63 - 1))
_LABELS = st.one_of(st.sampled_from(["", ",", '"', "\n", "\r", " ", "ψ⊗φ", "perm(0,1,2)"]),
                    st.text())


def _row_by_row_csv(blocks):
    """Reference rendering: one csv.writer row per event, built from Python
    scalars, as the report's rows were written before the columnar record."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("trial", "setting", "c", "value"))
    for events in blocks:
        for case, setting, c, value in zip(events.case, events.setting, events.c,
                                           events.value):
            writer.writerow((int(case), events.labels[setting], float(c), float(value)))
    return buffer.getvalue()


def _csv(blocks):
    """The CSV report of blocks of events, as the command line writes it."""
    return CSV_HEADER + "".join(rows for events in blocks for rows in events.csv_rows())


class TestEvents:
    def test_csv_matches_a_row_by_row_writer(self):
        labels = ("plain", "a,b", 'say "hi"', "two\nlines", "perm(0,1,2)")
        blocks = [
            Events(labels, np.arange(3), np.array([1, 2, 3]),
                   np.array([0.1, 5e-324, 1.0 - 2.0**-53]), np.array([-0.0, 1.0, -1.0])),
            Events(labels, np.array([3, 4]), np.array([4, 0]), np.array([2.0**-54, 0.5]),
                   np.array([0.9999999999999998, 5e-324])),
        ]
        assert [case for events in blocks for case in events.case.tolist()] == [0, 1, 2, 3, 4]
        assert [s for events in blocks for s in events.setting.tolist()] == [1, 2, 3, 4, 0]
        text = _csv(blocks)
        assert text == _row_by_row_csv(blocks)
        assert text.splitlines()[:2] == ["trial,setting,c,value", '0,"a,b",0.1,-0.0']
        assert '1,"say ""hi""",5e-324,1.0' in text
        assert '2,"two\nlines",0.9999999999999999,-1.0' in text
        assert '3,"perm(0,1,2)",5.551115123125783e-17,0.9999999999999998' in text
        assert text.endswith("4,plain,0.5,5e-324\n")

    def test_an_empty_label_is_an_empty_field(self):
        events = Events(("",), np.array([0]), np.array([0]), np.array([0.5]), np.array([-1.0]))
        assert _csv([events]) == "trial,setting,c,value\n0,,0.5,-1.0\n"

    @settings(deadline=None, max_examples=80)
    @given(labels=st.lists(_LABELS, min_size=1, max_size=6), rows=st.integers(0, 64),
           c_bits=st.lists(_FLOAT_BITS, min_size=1, max_size=12),
           value_bits=st.lists(_FLOAT_BITS, min_size=1, max_size=12),
           seed=st.integers(0, 2**32))
    @example(labels=["", "\n"], rows=0, c_bits=[0], value_bits=[0], seed=0)
    @example(labels=["", ",", '"', "\n", "\r", "ψ⊗φ"], rows=model.SWEEP_BLOCK,
             c_bits=list(_SPECIAL_BITS), value_bits=list(_SPECIAL_BITS[::-1]), seed=1)
    @example(labels=["A0B0", "a,b"], rows=model.SWEEP_BLOCK + 1,
             c_bits=list(_SPECIAL_BITS), value_bits=_SPECIAL_BITS[:2], seed=2)
    def test_csv_matches_the_row_by_row_writer_at_any_bits(self, labels, rows, c_bits,
                                                           value_bits, seed):
        # Columns cycle through the drawn bit patterns, so one column can hold
        # both zeros, nan, infinities and subnormals across block boundaries.
        rng = np.random.default_rng(seed)
        column = lambda bits: np.resize(np.array(bits, dtype=np.int64), rows).view(np.float64)
        events = Events(tuple(labels), rng.integers(0, 10**12, rows),
                        rng.integers(0, len(labels), rows), column(c_bits), column(value_bits))
        # Compared line by line, so that a failure shows its first differing line.
        pairs = itertools.zip_longest(_csv([events]).splitlines(True),
                                      _row_by_row_csv([events]).splitlines(True))
        assert [pair for pair in pairs if pair[0] != pair[1]][:1] == []

    @pytest.mark.parametrize("case", [
        np.array([0, 9, 10, 99, 100, 9999, 10**4, 10**8, 10**12, 2**63 - 1], dtype=np.int64),
        np.array([2**64 - 1, 10**19, 10**19 - 1, 0, 9], dtype=np.uint64),
        np.array([127, 5], dtype=np.int8),
        np.array([True, False]), np.array([-1, 5]), np.array([1.5, 2.0])],
        ids=["int64", "uint64", "int8", "bool", "negative", "float"])
    def test_the_case_field_is_str(self, case):
        # Digits counted against powers of ten in uint64, so that 10**19 - 1
        # and 10**19 do not meet in float64; anything but a non-negative
        # integer is written by str().
        events = Events(("z",), case, np.zeros(len(case), dtype=int), np.full(len(case), 0.5),
                        np.zeros(len(case)))
        fields = [line.split(",")[0] for line in _csv([events]).splitlines()[1:]]
        assert fields == [str(v) for v in case.tolist()]

    @pytest.mark.parametrize("c", [
        [1.2345678901234567e-05, 2.0**-54, 5e-324, np.nan, np.inf, -0.0, 1.0, 1e22],
        [1.2345678901234567e-05, 0.5, 0.25, 0.125],
        [np.nextafter(1e-4, 1.0), np.nan, 1e-05, 0.5]],
        ids=["all-fallback", "fallback-widest", "fast-widest"])
    def test_one_c_field_holds_both_kinds(self, c):
        # A c repr writes itself shares the field with "0." and digits, at
        # whichever width is the larger.
        c = np.array(c)
        events = Events(("z",), np.arange(len(c)), np.zeros(len(c), dtype=int), c,
                        np.zeros(len(c)))
        assert _csv([events]) == _row_by_row_csv([events])
        assert [line.split(",")[2] for line in _csv([events]).splitlines()[1:]] == [
            repr(v) for v in c.tolist()]

    def test_a_block_of_distinct_values(self):
        values = np.random.default_rng(37).standard_normal(model.SWEEP_BLOCK)
        assert len(np.unique(values)) == model.SWEEP_BLOCK
        events = Events(("z",), np.arange(len(values)), np.zeros(len(values), dtype=int),
                        np.full(len(values), 0.5), values)
        assert _csv([events]) == _row_by_row_csv([events])

    def test_nan_payloads_and_both_zeros(self):
        bits = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                0, 1 << 63]
        values = np.resize(np.array(bits, dtype=np.uint64).view(np.float64), 20)
        events = Events(("z",), np.arange(20), np.zeros(20, dtype=int), np.full(20, 0.5), values)
        assert _csv([events]) == _row_by_row_csv([events])
        assert [line.rsplit(",", 1)[1] for line in _csv([events]).splitlines()[1:7]] == [
            "nan", "nan", "nan", "nan", "0.0", "-0.0"]

    @pytest.mark.parametrize("columns, argument", [
        (([0, 1], [0], [0.5, 0.5], [1.0, 1.0]), "setting"),
        (([0, 1], [0, 0], [0.5], [1.0, 1.0]), "c"),
        (([0, 1], [0, 0], [0.5, 0.5], [[1.0, 1.0]]), "value"),
        ((0, 0, 0.5, 1.0), "case"),
        (([0, 1], [0, 1], [0.5, 0.5], [1.0, 1.0]), "setting"),
        (([0, 1], [0, -1], [0.5, 0.5], [1.0, 1.0]), "setting"),
        (([0, 1], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0]), "setting")])
    def test_a_malformed_block_is_refused_naming_its_column(self, columns, argument):
        # A setting of -1 used to write the last label; a short column ended
        # in numpy's own error.
        with pytest.raises(InvalidArgumentError) as refused:
            Events(("a",), *columns)
        assert refused.value.argument == argument



def _repr_cases():
    """Floats whose CSV c field is compared with repr: every j * 2**-b in
    [1e-4, 1) for b <= 17; 10**4 random bit patterns in each binade from
    2**-14 to 2**-1; the floats within 8 ulps of each power of two from
    2**-14 to 1 and of 1e-4, 1e-3, 1e-2 and 0.1, nextafter(1, 0) among them;
    and values repr writes itself: 2**-54, 5e-324, -0.0, nan and +-inf."""
    dyadic = np.arange(1, 2**17) / 2**17
    binades = np.arange(-14, 0)
    mantissas = np.random.default_rng(36).integers(0, 2**52, size=(len(binades), 10**4))
    patterns = (((binades + 1023) << 52)[:, None] | mantissas).view(np.float64).ravel()
    marks = np.concatenate([2.0 ** np.arange(-14, 1), [1e-4, 1e-3, 1e-2, 0.1]])
    neighbours = (marks.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64).ravel()
    fallback = [2.0**-54, 5e-324, -0.0, np.nan, np.inf, -np.inf]
    return np.concatenate([dyadic[dyadic >= 1e-4], patterns, neighbours, fallback])


class TestShortestDigits:
    """The CSV writes c in [1e-4, 1) from model._shortest_digits and every
    other c by repr; both must give repr's bytes."""

    def test_the_kernel_is_repr(self):
        x = _repr_cases()
        x = x[(x >= 1e-4) & (x < 1.0)]
        assert np.nextafter(1.0, 0.0) in x and len(x) > 2**17 + 10**5
        n, places = model._shortest_digits(x)
        written = ["0." + str(d).zfill(p) for d, p in zip(n.tolist(), places.tolist())]
        assert [(v, w) for v, w in zip(x.tolist(), written) if repr(v) != w][:5] == []

    def test_the_c_field_is_repr(self):
        x = _repr_cases()
        events = Events(("z",), np.arange(len(x)), np.zeros(len(x), dtype=int), x,
                        np.zeros(len(x)))
        fields = [line.split(",")[2] for line in _csv([events]).splitlines()[1:]]
        assert len(fields) == len(x)
        assert [(v, f) for v, f in zip(x.tolist(), fields) if repr(v) != f][:5] == []


class TestZeroWeightClamp:
    def test_c_above_last_cumulative_skips_zeroed_last_branch(self):
        # The +1 branch carries weight ~1e-14, below MIN_BRANCH_WEIGHT, so it
        # is zeroed; a c above the -1 branch's cumulative must still select
        # -1 instead of clamping onto the zeroed +1 branch.
        state = normalized([1e-7, 1.0])
        hidden = HiddenState(state, np.nextafter(1.0, 0.0))
        assert predict(pauli("z"), hidden) == -1.0
        record, after = measure(pauli("z"), hidden, ScriptedUniforms([0.5]))
        assert record.value == -1.0
        assert phase_distance(after.state, basis_ket(2, 1)) <= 1e-12


class _StuckSource:
    """A .random() source stuck at 0.0 that counts its calls."""

    def __init__(self):
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        return 0.0 if size is None else np.zeros(size)


class TestScalarSlotRule:
    """The scalar draw_hidden reads one slot by draw_hidden_batch's rule: one
    .random() call, an exact 0.0 read as 2**-54 and nothing redrawn; a value
    outside [0, 1) raises HiddenDrawError after that one draw."""

    def test_exact_zero_reads_the_smallest_slot_value(self):
        source = _Stream([0.0, -0.0, 0.25])
        assert [draw_hidden(source) for _ in range(3)] == [2.0**-54, 2.0**-54, 0.25]
        assert source.position == 3
        source = _Stream([0.0, 0.0, 0.0, 0.25, 0.5])
        np.testing.assert_array_equal(draw_hidden_batch(source, 4),
                                      [2.0**-54, 2.0**-54, 2.0**-54, 0.25])
        assert source.position == 4
        stuck = _StuckSource()
        assert draw_hidden(stuck) == 2.0**-54
        np.testing.assert_array_equal(draw_hidden_batch(stuck, 8), np.full(8, 2.0**-54))
        assert stuck.calls == 2

    def test_values_outside_the_unit_interval_raise_after_one_draw(self):
        assert issubclass(HiddenDrawError, HvsimError)
        for bad in (1.0, -0.1, np.nan):
            source = _Stream([bad, 0.5])
            with pytest.raises(HiddenDrawError):
                draw_hidden(source)
            assert source.position == 1

    @pytest.mark.parametrize("bad", [np.nan, 1.0, -0.1])
    def test_batch_values_outside_the_unit_interval_raise(self, bad):
        # draw_hidden_batch keeps draw_hidden's contract, so tally counts no
        # trial and sweep yields no block past a value outside [0, 1).
        values = [0.25, 0.0, bad, 0.5]
        source = _Stream(values)
        with pytest.raises(HiddenDrawError):
            draw_hidden_batch(source, 4)
        assert source.position == 4
        blocks = Blocks()
        with pytest.raises(HiddenDrawError):
            tally(pauli("z"), basis_ket(2, 0), _Stream(values), 4, sink=blocks)
        assert blocks == []
        with pytest.raises(HiddenDrawError):
            next(sweep(_Stream(values), 2, 2, [(0,)]))
        assert draw_hidden_batch(_Stream(values), 2).tolist() == [0.25, 2.0**-54]
        assert draw_hidden_batch(_Stream([]), 0).size == 0

    def test_scalar_chain_reads_the_slots_run_sequence_reads(self):
        # HiddenState.draw and chained measure on a live source holding exact
        # zeros arm each event with the c that draw_hidden_batch puts in its
        # slot, one draw per event, and read what run_sequence reads there.
        ops = list(peres_mermin().column_operators(3))
        ops += ops[:1]  # re-measuring the first repeats its value
        start = haar_state(4, substream(21))
        for values in ([0.3, 0.0, 0.7, 0.4, 0.9], [0.0, 0.0, 0.5, 0.0, 0.0]):
            live, slots = _Stream(values), _Stream(values)
            hidden = HiddenState.draw(start, live)
            records = []
            for op in ops:
                record, hidden = measure(op, hidden, live)
                records.append(record)
            cs = draw_hidden_batch(slots, len(ops) + 1)
            assert [r.c_used for r in records] + [hidden.c] == cs.tolist()
            readings = run_sequence(ops, start, cs[None, :-1])[0]
            assert [r.value for r in records] == readings.tolist()
            assert live.position == slots.position == len(ops) + 1


class _Stream:
    """A source replaying fixed values: .random() takes the next one and
    .random(n) the next n, as a numpy generator's stream does."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.position = 0

    def random(self, size=None):
        count = 1 if size is None else size
        out = self.values[self.position:self.position + count]
        assert out.size == count, "stream exhausted"
        self.position += count
        return float(out[0]) if size is None else out.copy()


class TestBatchDrawDropsZeros:
    """draw_hidden_batch(rng, n) lets no exact zero through: draw i reads the
    stream's i-th value, with 0.0 read as 2**-54, and the stream advances
    exactly n, so every draw keeps its slot."""

    @pytest.mark.parametrize("zeros", [(), (0,), (3,), (0, 1, 2), (5, 6), (2, 5, 6, 7),
                                       (9, 10)])
    def test_batch_equals_sequential(self, zeros):
        values = np.random.default_rng(11).random(24)
        values[list(zeros)] = 0.0
        batch_source, scalar_source = _Stream(values), _Stream(values)
        batch = draw_hidden_batch(batch_source, 12)
        np.testing.assert_array_equal(batch, [scalar_source.random() or 2.0**-54
                                              for _ in range(12)])
        assert batch[list(zeros)].tolist() == [2.0**-54] * len(zeros)
        assert batch_source.position == scalar_source.position == 12

    def test_numpy_generator(self):
        for seed in range(5):
            rng, reference = substream(seed), substream(seed)
            np.testing.assert_array_equal(draw_hidden_batch(rng, 64), reference.random(64))
            assert rng.random() == reference.random()


# (stream path after the root seed, slot width) of the sequential sweeps:
# chsh --sequential reads one stream per setting (tag 4, settings 0 and 3
# here), column-product tag 5, weak-fc on a three-leaf line tag 6.
SWEEP_STREAMS = [((4, 0), 2), ((4, 3), 2), ((5,), 11), ((6,), 4)]


class TestCaseSlots:
    """Case t of a sweep owns raw draws [t * width, (t + 1) * width) of its
    stream, so any single case replays with one advance."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32), sweep=st.sampled_from(SWEEP_STREAMS), data=st.data())
    def test_slot_replayed_alone_equals_its_batch_row(self, seed, sweep, data):
        path, width = sweep
        count = data.draw(st.integers(1, 300), label="count")
        case = data.draw(st.integers(0, count - 1), label="case")
        batch = draw_hidden_batch(substream(seed, *path), count * width).reshape(count, width)
        assert batch.shape == (count, width)
        np.testing.assert_array_equal(case_slot((seed, *path, case), width), batch[case])

    @pytest.mark.parametrize("key, refusal, argument", [
        (5, InvalidTypeError, None), (np.array(5), InvalidTypeError, None),
        ((), InvalidArgumentError, "key"), ((3,), InvalidArgumentError, "key"),
        ((3, 1.5, 0), InvalidArgumentError, "key entry")])
    def test_a_case_key_is_read_by_one_rule(self, key, refusal, argument):
        # No sequence is a TypeError, as unpacking one was; a key short of
        # its seed or case names the key.
        with pytest.raises(refusal) as refused:
            case_slot(key, 2)
        assert getattr(refused.value, "argument", None) == argument
        np.testing.assert_array_equal(case_slot(np.array([3, 5, 2]), 2), case_slot((3, 5, 2), 2))
        assert model.stream_key([np.int64(3)]) == (3,)

    def test_blocks_read_the_same_rows(self, monkeypatch):
        monkeypatch.setattr(model, "SWEEP_BLOCK", 7)
        blocks = list(sweep(substream(3, 5), 50, 11, [(0,)]))
        assert [case[0] for case, *_ in blocks] == list(range(0, 50, 7))
        np.testing.assert_array_equal(np.concatenate([slots for *_, slots in blocks]),
                                      draw_hidden_batch(substream(3, 5), 50 * 11).reshape(50, 11))

    @pytest.mark.parametrize("trials", [1, 2, 3, 5])
    def test_case_runs_order_case_mod_orders(self, monkeypatch, trials):
        # Case t * len(orders) + p runs orders[p] on its own slot, across
        # block boundaries that fall inside a pass over the orders.
        monkeypatch.setattr(model, "SWEEP_BLOCK", 4)
        orders = list(itertools.permutations(range(3)))
        blocks = list(sweep(substream(2, 6), trials, 4, orders))
        case, which, rows, slots = (np.concatenate(part) for part in zip(*blocks))
        assert [len(block[0]) for block in blocks] == [min(4, 6 * trials - first)
                                                       for first in range(0, 6 * trials, 4)]
        np.testing.assert_array_equal(case, np.arange(6 * trials))
        np.testing.assert_array_equal(which, np.tile(np.arange(6), trials))
        np.testing.assert_array_equal(rows, np.array(orders)[which])
        for t in (0, len(case) - 1):
            np.testing.assert_array_equal(slots[t], case_slot((2, 6, case[t]), 4))

    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 13, 14, 15, 50])
    def test_tally_counts_blocks_of_one_stream(self, monkeypatch, trials):
        # Three branches, the middle one without weight: its edge reads inf.
        monkeypatch.setattr(model, "TALLY_BLOCK", 7)
        op = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
        state = normalized([1.0, 0.0, 2.0])
        rng, reference = substream(3, 1), substream(3, 1)
        blocks = Blocks()
        counts = tally(op, state, rng, trials, blocks, ("A", "D"), 1)
        assert [len(events.c) for events in blocks] == [min(7, trials - first)
                                                         for first in range(0, trials, 7)]
        assert blocks.labels == ("A", "D")
        whole = draw_hidden_batch(reference, trials)
        np.testing.assert_array_equal(np.concatenate([e.c for e in blocks]), whole)
        np.testing.assert_array_equal(np.concatenate([e.case for e in blocks]), np.arange(trials))
        np.testing.assert_array_equal(np.concatenate([e.setting for e in blocks]),
                                      np.ones(trials))
        np.testing.assert_array_equal(np.concatenate([e.value for e in blocks]),
                                      predict_batch(op, state, whole))
        np.testing.assert_array_equal(counts, _bincount(op, state, whole))
        assert rng.random() == reference.random()  # one draw per trial, none read ahead
        rng, reference = substream(3, 1), substream(3, 1)
        np.testing.assert_array_equal(tally(op, state, rng, trials), counts)  # with no sink
        assert rng.random() == reference.random(trials + 1)[-1]

    def test_raw_extremes_map_strictly_inside(self):
        # Generator.random reads raw 64-bit draw r as (r >> 11) * 2**-53.
        raw = np.array([0, 2**11 - 1, 2**11, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
        u = draw_hidden_batch(_Stream((raw >> np.uint64(11)) * 2.0**-53), raw.size)
        assert ((u > 0.0) & (u < 1.0)).all()
        assert u.tolist() == [2.0**-54, 2.0**-54, 2.0**-53, 1 - 2.0**-53, 1 - 2.0**-53]

    def test_nonzero_draws_equal_generator_random(self):
        # Away from the one zero cell a slot reads what Generator.random reads.
        np.testing.assert_array_equal(draw_hidden_batch(substream(9, 6), 1000),
                                      substream(9, 6).random(1000))

    def test_stream_advances_width_draws_per_case(self):
        rng = substream(1, 6)
        list(sweep(rng, 5, 4, [(0,)]))
        assert rng.bit_generator.random_raw() == substream(1, 6).bit_generator.random_raw(21)[20]

    def test_case_slot_rejects_bad_case(self):
        for case in (-1, 1.5, float("nan")):
            with pytest.raises(InvalidArgumentError):
                case_slot((0, 6, case), 4)


def _degenerate_family(seed):
    # Shared-eigenbasis operators with rank-2 and rank-3 eigenspaces.
    rng = np.random.default_rng(seed)
    spectra = [[1, 1, -1, -1], [2, 2, 2, -3], [0, 1, 1, 1], [4, 4, 4, 4]]
    return commuting_family(spectra, rng), rng


def _assert_measure_matches_reference(op, hidden):
    record, after = measure(op, hidden, ScriptedUniforms([0.5]))
    value = predict(op, hidden)
    assert record.value == value
    np.testing.assert_array_equal(after.state.amplitudes,
                                  update(op, hidden, value).amplitudes)


class TestMeasureAgainstReference:
    """measure() selects and collapses by index; predict() + update() go
    through the eigenvalue. Both must give the same value and post-state."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_random_hermitians(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        op = random_hermitian(dim, rng)
        state = haar_state(dim, rng)
        for c in rng.uniform(1e-6, 1 - 1e-6, size=8):
            _assert_measure_matches_reference(op, HiddenState(state, c))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_degenerate_spectra(self, seed):
        ops, rng = _degenerate_family(seed)
        state = haar_state(4, rng)
        for op in ops:
            for c in rng.uniform(1e-6, 1 - 1e-6, size=8):
                _assert_measure_matches_reference(op, HiddenState(state, c))

    def test_peres_mermin_cells(self):
        square = peres_mermin()
        rng = substream(5)
        for row in square.grid:
            for op in row:
                for _ in range(6):
                    hidden = HiddenState.draw(haar_state(4, rng), rng)
                    _assert_measure_matches_reference(op, hidden)


def _lagrange_projectors(op, values):
    """Eigenprojectors of `op` by Lagrange interpolation from its matrix,
    P_i = prod_{j != i} (A - values[j]) / (values[i] - values[j]): a reference
    that does not read eigh's eigenvectors."""
    eye = np.eye(op.dim)
    projectors = []
    for i, vi in enumerate(values):
        p = eye
        for j, vj in enumerate(values):
            if j != i:
                p = p @ (op.matrix - vj * eye) / (vi - vj)
        projectors.append(p)
    return projectors


class TestLagrangeProjectors:
    """weights, project and select on an operator's decomposition agree with
    projectors interpolated from its matrix."""

    def _check(self, op, rng):
        decomp = op.spectrum()
        projectors = _lagrange_projectors(op, decomp.values)
        state = haar_state(op.dim, rng)
        projected = [p @ state.amplitudes for p in projectors]
        for i, want in enumerate(projected):
            np.testing.assert_allclose(decomp.project(state, i), want, rtol=0, atol=1e-12)
        weights = np.array([np.vdot(v, v).real for v in projected])  # ||P_i psi||^2
        np.testing.assert_allclose(decomp.weights(state), weights, rtol=0, atol=1e-12)
        weights[weights < MIN_BRANCH_WEIGHT] = 0.0
        cs = rng.uniform(1e-6, 1 - 1e-6, size=32)
        want = np.minimum(np.searchsorted(np.cumsum(weights), cs), np.flatnonzero(weights)[-1])
        np.testing.assert_array_equal(select(decomp, state.amplitudes, cs), want)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_degenerate_spectra(self, seed):
        ops, rng = _degenerate_family(seed)
        for op in ops:
            self._check(op, rng)

    def test_peres_mermin_cells(self):
        rng = substream(13)
        for row in peres_mermin().grid:
            for op in row:
                for _ in range(4):
                    self._check(op, rng)


def _zeroed_cumulative(decomp, state):
    w = decomp.weights(state)
    w[w < MIN_BRANCH_WEIGHT] = 0.0
    return w, np.cumsum(w)


def _assert_exact_born_intervals(decomp, state):
    """Branch i is selected exactly by c in (cum[i-1], cum[i]], checked at
    both ends of each interval one ulp apart; zeroed branches never are."""
    w, cum = _zeroed_cumulative(decomp, state)
    weighted = np.flatnonzero(w)

    def pick(c):
        return int(select(decomp, state.amplitudes, c))

    for k, i in enumerate(weighted):
        lower = cum[i - 1] if i > 0 else 0.0
        assert pick(np.nextafter(lower, 1.0)) == i
        if k > 0:
            assert pick(lower) == weighted[k - 1]
        if k + 1 < len(weighted):
            assert pick(cum[i]) == i
            assert pick(np.nextafter(cum[i], 1.0)) == weighted[k + 1]
        else:
            assert pick(np.nextafter(1.0, 0.0)) == i


class TestSelectionProperties:
    def test_exact_born_intervals_with_zeroed_branches(self):
        op = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))
        for amps in ([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                     [1.0, 1e-7, 1.0, 1e-7], [1e-7, 1.0, 1.0, 1e-6]):
            _assert_exact_born_intervals(spectral(op), normalized(amps))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_exact_born_intervals(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        _assert_exact_born_intervals(spectral(random_hermitian(dim, rng)),
                                     haar_state(dim, rng))
        ops, rng = _degenerate_family(seed)
        state = haar_state(4, rng)
        for op in ops:
            _assert_exact_born_intervals(spectral(op), state)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000),
           st.lists(st.sampled_from([0.0, 1e-8, 1e-7, 1e-6, 1e-3, 1.0]),
                    min_size=4, max_size=4))
    def test_selected_branch_carries_weight(self, seed, scales):
        # Amplitudes down to 1e-8 put branch weights on both sides of the
        # MIN_BRANCH_WEIGHT cutoff; c covers both ends of (0, 1).
        rng = np.random.default_rng(seed)
        amps = np.array(scales) * (rng.normal(size=4) + 1j * rng.normal(size=4))
        if not np.any(amps):
            amps[0] = 1.0
        state = normalized(amps)
        op = HermitianOperator(np.diag(rng.permutation(4).astype(float)))
        cs = np.concatenate(([np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
                             rng.uniform(size=16)))
        for decomp in (spectral(op), spectral(random_hermitian(4, rng))):
            chosen = select(decomp, state.amplitudes, cs)
            assert (decomp.weights(state)[chosen] >= MIN_BRANCH_WEIGHT).all()


def _searchsorted_select(decomp, amplitudes, cs):
    """The one-state selection rule as it was first written: binary search
    over the zeroed cumulative weights, clamped to the last weighted branch."""
    w, cum = _zeroed_cumulative(decomp, amplitudes)
    return np.minimum(np.searchsorted(cum, cs, side="left"), np.flatnonzero(w)[-1])


def _bincount(obs, state, cs):
    """The branch counts of `cs` by the index rule: np.bincount of branch_indices."""
    return np.bincount(branch_indices(obs, state, cs),
                       minlength=len(as_decomposition(obs).values))


def _edge_neighbourhood(decomp, amplitudes):
    """Every cumulative edge, one ulp either side of it, and both ends of (0, 1)."""
    cs = [np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)]
    for edge in _zeroed_cumulative(decomp, amplitudes)[1]:
        cs += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    return np.array([c for c in cs if 0.0 < c < 1.0])


def _selection_cases(seed):
    """(decomposition, state) pairs: a random Hermitian, shared-eigenbasis
    degenerate spectra, a near-degenerate diagonal, zero-weight branches and
    amplitudes on both sides of the MIN_BRANCH_WEIGHT cutoff."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    cases = [(spectral(random_hermitian(dim, rng)), haar_state(dim, rng))]
    ops, rng = _degenerate_family(seed)
    state = haar_state(4, rng)
    cases += [(spectral(op), state) for op in ops]
    near = HermitianOperator(np.diag([0.0, 5e-10, 1.0, 1.0 + 5e-10]))
    scales = rng.choice([0.0, 1e-7, 1e-6, 1e-5, 1.0], size=4)
    amps = scales * (rng.normal(size=4) + 1j * rng.normal(size=4))
    amps[int(rng.integers(4))] = 1.0
    for amplitudes in (amps, [1.0, 0.0, 1.0, 0.0], [1e-6, 1.0, 1e-6, 1.0]):
        cases.append((spectral(near), normalized(amplitudes)))
    return cases


class TestEdgeCountSelection:
    """select counts the weighted edges below c; it must agree with the binary
    search it replaced at every edge, with scalar and array c."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_matches_searchsorted_at_every_edge(self, seed):
        for decomp, state in _selection_cases(seed):
            cs = _edge_neighbourhood(decomp, state.amplitudes)
            want = _searchsorted_select(decomp, state.amplitudes, cs)
            np.testing.assert_array_equal(select(decomp, state.amplitudes, cs), want)
            assert [int(select(decomp, state.amplitudes, float(c))) for c in cs] == list(want)

    def test_near_degenerate_values_merge_or_stay_apart(self):
        # Eigenvalues 5e-10 apart merge into one branch under the default
        # tolerance and stay apart under a tighter one; both select alike.
        op = HermitianOperator(np.diag([0.0, 5e-10, 1.0, 1.0 + 5e-10]))
        state = normalized([1.0, 1e-6, 1.0, 1e-6])
        for decomp in (spectral(op), spectral(op, 1e-12)):
            cs = _edge_neighbourhood(decomp, state.amplitudes)
            np.testing.assert_array_equal(select(decomp, state.amplitudes, cs),
                                          _searchsorted_select(decomp, state.amplitudes, cs))
        assert len(spectral(op).values) == 2 and len(spectral(op, 1e-12).values) == 4

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(0, 200))
    def test_branch_counts_equal_bincount_of_indices(self, seed, size):
        # tally reads a scripted stream in blocks of 7 draws: every edge, one
        # ulp either side, an exact 0.0 and uniforms, shuffled.
        rng = np.random.default_rng(seed)
        for decomp, state in _selection_cases(seed):
            edges = _edge_neighbourhood(decomp, state.amplitudes)
            values = np.concatenate(([0.0], edges, rng.uniform(size=size)))
            rng.shuffle(values)
            cs = draw_hidden_batch(_Stream(values), len(values))
            source, blocks = _Stream(np.append(values, 0.5)), Blocks()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "TALLY_BLOCK", 7)
                counts = tally(decomp, state, source, len(values), blocks, ("x",))
            assert counts.dtype == np.intp
            np.testing.assert_array_equal(counts, _bincount(decomp, state, cs))
            np.testing.assert_array_equal(np.concatenate([e.value for e in blocks]),
                                          predict_batch(decomp, state, cs))
            assert source.position == len(values)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, np.nan])
    def test_hidden_scalars_outside_the_open_interval_are_rejected(self, bad):
        cs = np.array([0.25, bad, 0.75])

        def sequence(obs, state, cs):
            return run_sequence([obs], state, cs[:, None])

        for rule in (branch_indices, sequence):
            with pytest.raises(ValueError):
                rule(pauli("z"), basis_ket(2, 0), cs)

    def test_ragged_scalars_are_rejected(self):
        with pytest.raises(InvalidArgumentError) as refused:
            run_sequence([pauli("z")], basis_ket(2, 0), [[0.5], [0.5, 0.5]])
        assert refused.value.argument == "c"

    def test_any_real_number_is_a_hidden_scalar(self):
        for c in (Fraction(2, 5), np.float32(0.4), np.float64(0.4)):
            assert HiddenState(basis_ket(2, 0), c).c == float(c)

    def test_empty_scalars_are_accepted(self):
        state = normalized([1.0, 1.0])
        assert branch_indices(pauli("z"), state, np.array([])).shape == (0,)
        source = _Stream([])
        np.testing.assert_array_equal(tally(pauli("z"), state, source, 0), [0, 0])
        assert source.position == 0


def _assert_sequence_matches_measure(ops, starts, cs, orders=None):
    """run_sequence against chained scalar measure() on the same scalars, row
    n measuring ops[orders[n, s]] at step s: values equal exactly."""
    values = run_sequence(ops, starts, cs, orders)
    if orders is None:
        orders = np.broadcast_to(np.arange(len(ops)), cs.shape)
    assert values.shape == cs.shape
    for n, row in enumerate(cs):
        start = starts[n] if np.ndim(starts) == 2 else starts
        assert [v.hex() for v in values[n].tolist()] == _chained(ops, start, row, orders[n])


def _haar_starts(dim, count, rng):
    return np.array([haar_state(dim, rng).amplitudes for _ in range(count)])


def _joint(ops):
    """The joint basis _family keeps for `ops`, or None, in which case
    run_sequence measures their rows on the scalar reference."""
    return model._family(tuple(ops)).joint


class TestRunSequenceAgainstMeasure:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_hermitians(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        ops = [random_hermitian(dim, rng) for _ in range(int(rng.integers(1, 5)))]
        cs = rng.uniform(1e-6, 1 - 1e-6, size=(12, len(ops)))
        _assert_sequence_matches_measure(ops, _haar_starts(dim, 12, rng), cs)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_non_commuting_per_row_orders(self, seed):
        # No joint eigenbasis: every row runs on the scalar reference,
        # repeats and all.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        ops = [random_hermitian(dim, rng) for _ in range(int(rng.integers(2, 5)))]
        assert _joint(ops) is None
        orders = rng.integers(len(ops), size=(16, int(rng.integers(1, 6))))
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        _assert_sequence_matches_measure(ops, _haar_starts(dim, 16, rng), cs, orders)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_degenerate_spectra(self, seed):
        ops, rng = _degenerate_family(seed)
        order = list(rng.permutation(len(ops)))
        ops = [ops[k] for k in order + order]  # re-measuring repeats values
        cs = rng.uniform(1e-6, 1 - 1e-6, size=(12, len(ops)))
        _assert_sequence_matches_measure(ops, haar_state(4, rng), cs)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_degenerate_spectra_per_row_orders(self, seed):
        # One joint eigenbasis serves the family; each row measures its own
        # order, with operators repeated.
        ops, rng = _degenerate_family(seed)
        assert _joint(ops) is not None
        orders = rng.integers(len(ops), size=(16, 7))
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        _assert_sequence_matches_measure(ops, _haar_starts(4, 16, rng), cs, orders)

    def test_square_lines_in_every_order(self):
        # All six orders of a line ride in one call as per-row orders.
        square = peres_mermin()
        rng = substream(9)
        permutations = np.array(list(itertools.permutations(range(3))))
        lines = [square.row_operators(i) for i in (1, 2, 3)]
        lines += [square.column_operators(j) for j in (1, 2, 3)]
        for line in lines:
            assert _joint(line) is not None
            orders = np.tile(permutations, (8, 1))
            cs = draw_hidden_batch(rng, orders.size).reshape(orders.shape)
            _assert_sequence_matches_measure(line, _haar_starts(4, len(cs), rng), cs, orders)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_commuting_pair_with_a_tied_combination(self, seed):
        # The pair commutes, but the fixed combination A/pi + B/(1 + pi) has
        # one eigenvalue twice, so eigh's columns need not lie on branches:
        # _joint_basis keeps none and the rows run on the scalar reference.
        rng = np.random.default_rng(seed)
        spectra = [[1.0, 0.5], [1.0 - (1.0 + np.pi) / (2.0 * np.pi), 1.0]]
        ops = commuting_family(spectra, rng)
        assert model._joint_basis([op.spectrum() for op in ops]) is None
        assert _joint(ops) is None
        orders = rng.integers(2, size=(16, 4))
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        _assert_sequence_matches_measure(ops, _haar_starts(2, 16, rng), cs, orders)

    def test_every_driver_tuple_has_a_joint_basis(self, monkeypatch, capsys):
        # The 4 CHSH pairs, the 6 square lines and the 3 weak-fc columns all
        # take the vectorised route, never the row-by-row one. weak-fc's
        # columns are the square's shared column tuples: 10 distinct tuples.
        # Each run_sequence call reads the family once, and each new outcome
        # tree once more: 4 CHSH starts and 3 weak-fc ones.
        model._tree.cache_clear()
        seen = []
        family = model._family

        def recording(ops):
            seen.append((ops, family(ops)))
            return seen[-1][1]

        monkeypatch.setattr(model, "_family", recording)
        commands = [["chsh", "--sequential"]]
        commands += [["column-product", "--axis", axis, "--index", str(i)]
                     for axis in ("row", "column") for i in (1, 2, 3)]
        commands += [["weak-fc", "--column", str(i)] for i in (1, 2, 3)]
        for command in commands:
            assert main([*command, "--trials", "2", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(seen) == 13 + 7 and len({ops for ops, _ in seen}) == 10
        assert all(family.joint is not None for _, family in seen)

    @pytest.mark.parametrize("commuting", [True, False])
    def test_per_row_orders_equal_one_call_per_order(self, commuting):
        # Rows do not interact: a per-row-order call gives, bit for bit, what
        # one call per order gives on that order's rows.
        rng = np.random.default_rng(12)
        if commuting:
            ops = peres_mermin().column_operators(3)
        else:
            ops = [random_hermitian(4, rng) for _ in range(3)]
        permutations = np.array(list(itertools.permutations(range(3))))
        orders = permutations[rng.integers(len(permutations), size=60)]
        starts = _haar_starts(4, 60, rng)
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        values = run_sequence(ops, starts, cs, orders)
        for permutation in permutations:
            mine = (orders == permutation).all(axis=1)
            want = run_sequence(ops, starts[mine], cs[mine],
                                np.tile(permutation, (mine.sum(), 1)))
            np.testing.assert_array_equal(values[mine], want)

    def test_batched_select_matches_one_state_select(self):
        # The kernel and the one-state select apply one rule: at each row's
        # cumulative weights, one ulp either side, and both ends of (0, 1).
        rng = np.random.default_rng(4)
        op = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))
        states = np.array([normalized(a).amplitudes for a in
                           ([1.0, 1e-7, 1.0, 1e-7], [1e-7, 1.0, 1.0, 1e-6],
                            [0.0, 0.0, 0.0, 1.0], rng.normal(size=4))])
        decomp = spectral(op)
        edges = [np.nextafter(0.0, 1.0), 0.3, 0.5, np.nextafter(1.0, 0.0)]
        for amps in states:  # each row's cumulative weights and one ulp either side
            for b in _zeroed_cumulative(decomp, amps)[1]:
                edges += [np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)]
        for c in [c for c in edges if 0.0 < c < 1.0]:
            values = run_sequence([op], states, np.full((len(states), 1), c))[:, 0]
            np.testing.assert_array_equal(
                values, [decomp.values[select(decomp, amps, c)] for amps in states])

    def test_first_step_at_edges_matches_one_state_select(self):
        cases, mismatches = first_step_edge_mismatches()
        assert mismatches == [] and cases == 2700

    def test_second_step_at_edges_matches_chained_measure(self):
        cases, mismatches = second_step_edge_mismatches()
        assert mismatches == [] and cases == 1800

    def test_rows_do_not_depend_on_their_block(self):
        cases, mismatches = row_independence_mismatches()
        assert mismatches == [] and cases == 1800

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 5).flatmap(lambda dim: st.lists(
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=dim, max_size=dim),
        min_size=1, max_size=4)), st.integers(0, 10_000))
    def test_rows_of_commuting_tuples_do_not_depend_on_their_block(self, spectra, seed):
        # Repeated eigenvalues give degenerate branches; a tuple with no joint
        # basis runs row by row and passes trivially.
        rng = np.random.default_rng(seed)
        ops = commuting_family(spectra, rng)
        _, mismatches = _block_mismatches(ops, _haar_starts(len(spectra[0]), 6, rng), rng)
        assert mismatches == []

    def test_cutoff_branch_collapses_like_predict(self):
        # The -1 branch weighs exactly MIN_BRANCH_WEIGHT, so it is live and
        # c = 5e-13 picks it: every route reads -1 and collapses onto |1>, with
        # no floating-point warning. The kernel leaves the light row to the
        # scalar reference, whose second Z repeats the reading.
        z, state = pauli("z"), PureState(AT_CUTOFF)
        assert spectral(z).weights(state)[0] == MIN_BRANCH_WEIGHT
        hidden = HiddenState(state, 5e-13)
        with np.errstate(all="raise"):
            assert predict(z, hidden) == -1.0
            record, after = measure(z, hidden, ScriptedUniforms([0.5]))
            post = update(z, hidden, -1.0)
            values = run_sequence([z, z], np.array([[1.0, 0.0], AT_CUTOFF]),
                                  np.array([[0.5, 0.5], [5e-13, 0.5]]))
        assert record.value == -1.0
        assert after.state.amplitudes.tolist() == post.amplitudes.tolist() == [0.0, 1.0]
        assert values.tolist() == [[1.0, 1.0], [-1.0, -1.0]]

    def test_only_a_row_kept_light_is_measured_again(self, monkeypatch):
        # Z(x)I then I(x)Z on two rows whose first reading keeps 1e-2 of the
        # weight. The light row's second keeps 5e-3 of that, 5e-5 < LIGHT_BRANCH
        # in all, the other's 0.99 of it; every c lies at least 2.5e-3 from every
        # edge, so only the light rule can send a row to the scalar reference,
        # whose select runs once per step.
        ops = [HermitianOperator(np.diag([1.0, 1.0, -1.0, -1.0])),
               HermitianOperator(np.diag([1.0, -1.0, 1.0, -1.0]))]
        assert _joint(ops) is not None
        phases = np.exp(1j * np.array([0.3, 1.1, 2.0, 2.9]))
        light = np.sqrt([0.5, 0.49, 0.00995, 0.00005]) * phases
        heavy = np.sqrt([0.5, 0.49, 0.0099, 0.0001]) * phases
        starts, cs = np.array([light, heavy]), np.array([[0.005, 0.0025], [0.005, 0.5]])
        want = [_chained(ops, start, row, range(2)) for start, row in zip(starts, cs)]
        assert want == [[(-1.0).hex()] * 2, [(-1.0).hex(), (1.0).hex()]]
        calls = []

        def counting(decomp, amplitudes, c):
            calls.append(c)
            return select(decomp, amplitudes, c)

        monkeypatch.setattr(model, "select", counting)
        for rows, replayed in (([0], [0.005, 0.0025]), ([1], []), ([0, 1], [0.005, 0.0025])):
            calls.clear()
            values = run_sequence(ops, starts[rows], cs[rows])
            assert [[v.hex() for v in row] for row in values.tolist()] == [want[n] for n in rows]
            assert calls == replayed

    def test_input_checks(self):
        z, x = pauli("z"), pauli("x")
        with pytest.raises(DimensionMismatchError):
            run_sequence([z], np.full((3, 4), 0.5), np.full((3, 1), 0.5))
        with pytest.raises(DimensionMismatchError):
            run_sequence([z], basis_ket(4, 0), np.full((3, 1), 0.5))
        with pytest.raises(DimensionMismatchError):
            run_sequence([z, identity(4)], basis_ket(2, 0), np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            run_sequence([z], basis_ket(2, 0), np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            run_sequence([z], basis_ket(2, 0), np.array([[0.5], [1.0]]))
        with pytest.raises(ValueError):
            run_sequence([], basis_ket(2, 0), np.full((3, 0), 0.5))
        with pytest.raises(ValueError):  # normalised, this row would read +1
            run_sequence([z], np.array([[1.0, 1.0]]), np.array([[0.9]]))
        for row in ([0.1, 0.0], [1.0 + 1e-11, 0.0], [np.nan, 0.0]):  # not unit vectors
            for amplitudes in (np.array([[1.0, 0.0], row]), np.array(row)):  # stacked, shared
                with pytest.raises(InvalidArgumentError) as refused:
                    run_sequence([z], amplitudes, np.full((2, 1), 0.9))
                assert refused.value.argument == "amplitudes"
        within = np.array([1.0 + 1e-13, 0.0])  # inside NORM_TOL, like PureState
        assert run_sequence([z], within, np.full((2, 1), 0.9)).shape == (2, 1)
        for orders in (np.zeros((3, 1), int), np.zeros(2, int), [[0, 1]] * 2,
                       np.full((3, 2), 2), np.full((3, 2), -1), np.full((3, 2), 0.0)):
            with pytest.raises(ValueError):
                run_sequence([z, x], basis_ket(2, 0), np.full((3, 2), 0.5), orders)
        values = run_sequence([z, x], basis_ket(2, 0), np.full((3, 2), 0.5),
                              np.ones((3, 2), int))
        assert values.shape == (3, 2)

    # Each shape, index and norm refusal of run_sequence, and the empty
    # family's, is an InvalidArgumentError naming its argument: an HvsimError
    # that stays a ValueError.
    @pytest.mark.parametrize("argument, call", [
        ("ops", lambda z, x: run_sequence([], basis_ket(2, 0), np.full((3, 0), 0.5))),
        ("ops", lambda z, x: predict_each([], HiddenState(basis_ket(2, 0), 0.5))),
        ("cs", lambda z, x: run_sequence([z], basis_ket(2, 0), np.full((3, 2), 0.5))),
        ("orders", lambda z, x: run_sequence([z, x], basis_ket(2, 0), np.full((3, 2), 0.5),
                                             np.zeros((3, 1), int))),
        ("orders", lambda z, x: run_sequence([z, x], basis_ket(2, 0), np.full((3, 2), 0.5),
                                             np.full((3, 2), 2))),
        ("amplitudes", lambda z, x: run_sequence([z], np.array([[1.0, 0.0], [0.1, 0.0]]),
                                                 np.full((2, 1), 0.9))),
        ("amplitudes", lambda z, x: run_sequence([z], np.array([0.1, 0.0]), np.full((2, 1), 0.9))),
    ], ids=["empty-family", "empty-predict-each", "cs-shape", "orders-shape", "orders-index",
            "stacked-norm", "shared-norm"])
    def test_refusals_name_their_argument(self, argument, call):
        with pytest.raises(HvsimError) as refused:
            call(pauli("z"), pauli("x"))
        assert isinstance(refused.value, ValueError)
        assert refused.value.argument == argument


def _square_lines():
    square = peres_mermin()
    yield from (square.row_operators(i) for i in (1, 2, 3))
    yield from (square.column_operators(j) for j in (1, 2, 3))


def _driver_tuples():
    """The tuples the sequential drivers measure: the square's six lines
    (weak-fc's columns among them) and the four CHSH pairs."""
    yield from _square_lines()
    yield from (ops for *_, ops in experiments._chsh_settings())


def _run_sequence_tuples():
    """Operator tuples for the run_sequence differential: the driver tuples,
    three degenerate commuting families (all these take the joint basis) and
    three non-commuting triples (row by row)."""
    yield from _driver_tuples()
    yield from (_degenerate_family(seed)[0] for seed in range(3))
    rng = np.random.default_rng(21)
    yield from ([random_hermitian(dim, rng) for _ in range(3)] for dim in (2, 3, 4))


def run_sequence_mismatches():
    """(cases, mismatches): run_sequence against chained measure() at random
    c, compared bit for bit row by row, 80 rows per tuple of
    _run_sequence_tuples, each row measuring its own order. The kernel reruns
    call this too."""
    rng = np.random.default_rng(18)
    cases, mismatches = 0, []
    for number, ops in enumerate(_run_sequence_tuples()):
        permutations = np.array(list(itertools.permutations(range(len(ops)))))
        orders = permutations[rng.integers(len(permutations), size=80)]
        starts = _haar_starts(as_decomposition(ops[0]).dim, len(orders), rng)
        cs = draw_hidden_batch(rng, orders.size).reshape(orders.shape)
        values = run_sequence(ops, starts, cs, orders)
        for n, order in enumerate(orders.tolist()):
            want = _chained(ops, starts[n], cs[n], order)
            got = [v.hex() for v in values[n].tolist()]
            cases += 1
            if got != want:
                mismatches.append(f"tuple {number}, row {n}, order {order}: {got} != {want}")
    return cases, mismatches


def first_step_edge_mismatches():
    """(cases, mismatches): the first readings of run_sequence against select
    on the square's column tuples, 300 Haar states each, with the first c at
    the first operator's edge and one ulp either side. The kernel reruns call
    this too."""
    rng = np.random.default_rng(20)
    cases, mismatches = 0, []
    for number, ops in enumerate(peres_mermin().column_operators(j) for j in (1, 2, 3)):
        decomp = as_decomposition(ops[0])
        rows, firsts = [], []
        starts = _haar_starts(4, 300, rng)
        for n, amps in enumerate(starts):
            for edge in _zeroed_cumulative(decomp, amps)[1][:-1]:
                for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    rows.append(n)
                    firsts.append(c)
        cs = rng.uniform(1e-6, 1 - 1e-6, size=(len(rows), len(ops)))
        cs[:, 0] = firsts
        got = run_sequence(ops, starts[rows], cs)[:, 0]
        for n, c, value in zip(rows, firsts, got.tolist()):
            want = float(decomp.values[select(decomp, starts[n], c)])
            cases += 1
            if value != want:
                mismatches.append(f"column {number + 1}, row {n}, c={c!r}: {value} != {want}")
    return cases, mismatches


def _chained(ops, start, cs, order):
    """The readings of chaining measure() from HiddenState(start, cs[0]) over
    `order`, with cs[1:] as the later draws, as float hex strings."""
    hidden = HiddenState(start, cs[0])
    script = ScriptedUniforms([*cs[1:], 0.5])
    values = []
    for k in order:
        record, hidden = measure(ops[k], hidden, script)
        values.append(record.value.hex())
    return values


def _edge_rows(ops, starts, step, rng):
    """(rows, cs): for each of `starts`, c at every edge of ops[step] on the
    state chaining measure() over ops[:step] leaves, and one ulp either
    side, the row's other c uniform; rows[i] indexes the start of cs[i]."""
    decomp = as_decomposition(ops[step])
    rows, cs = [], []
    for n, amps in enumerate(starts):
        row = rng.uniform(1e-6, 1 - 1e-6, size=len(ops))
        hidden = HiddenState(amps, row[0])
        for k in range(step):
            _, hidden = measure(ops[k], hidden, ScriptedUniforms([row[k + 1]]))
        for edge in _zeroed_cumulative(decomp, hidden.state)[1][:-1]:
            for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                if 0.0 < c < 1.0:
                    rows.append(n)
                    cs.append([*row[:step], c, *row[step + 1:]])
    return rows, np.array(cs).reshape(-1, len(ops))


def second_step_edge_mismatches():
    """(cases, mismatches): run_sequence against chained measure(), every
    reading of a row compared, on the square's six lines, 100 Haar states
    each, with the second c at the second operator's edge on the state the
    first measurement leaves and one ulp either side. The kernel reruns call
    this too."""
    rng = np.random.default_rng(22)
    cases, mismatches = 0, []
    for number, ops in enumerate(_square_lines()):
        starts = _haar_starts(4, 100, rng)
        rows, cs = _edge_rows(ops, starts, 1, rng)
        got = run_sequence(ops, starts[rows], cs)
        for n, row, values in zip(rows, cs, got.tolist()):
            want = _chained(ops, starts[n], row, range(len(ops)))
            cases += 1
            if [v.hex() for v in values] != want:
                mismatches.append(f"line {number}, row {n}: {values} != {want}")
    return cases, mismatches


def _block_mismatches(ops, starts, rng):
    """(cases, mismatches): run_sequence of a block of rows against
    run_sequence of each row alone, bit for bit, with c at the edges of the
    first and of the second operator (_edge_rows) on `starts`."""
    cases, mismatches = 0, []
    for step in range(min(2, len(ops))):
        rows, cs = _edge_rows(ops, starts, step, rng)
        block = run_sequence(ops, starts[rows], cs)
        for i, n in enumerate(rows):
            alone = run_sequence(ops, starts[[n]], cs[i:i + 1])
            cases += 1
            if alone.tobytes() != block[i].tobytes():
                mismatches.append(f"step {step}, row {n}: {block[i]} != {alone[0]}")
    return cases, mismatches


def row_independence_mismatches():
    """(cases, mismatches): _block_mismatches over the driver tuples, 30 Haar
    states each. The kernel reruns call this too."""
    rng = np.random.default_rng(23)
    cases, mismatches = 0, []
    for number, ops in enumerate(_driver_tuples()):
        starts = _haar_starts(as_decomposition(ops[0]).dim, 30, rng)
        more, found = _block_mismatches(ops, starts, rng)
        cases += more
        mismatches += [f"tuple {number}, {line}" for line in found]
    return cases, mismatches


def _predict_each_families():
    """(family, states) pairs for the predict_each differential: the square's
    15 operators, the implications triple, a qubit family whose -1 branch
    weighs exactly MIN_BRANCH_WEIGHT beside a one-branch operator, and for
    dims 2, 3, 5 and 8 random Hermitians with a degenerate commuting family,
    some given as decompositions, on Haar states and on states that zero
    branches or put them below the cutoff."""
    square = peres_mermin()
    rng = np.random.default_rng(19)
    four = [basis_ket(4, 0), normalized([0.0, 1.0, 1.0, 0.0]), normalized([1.0, 0.0, 0.0, 1.0]),
            normalized([1.0, 1e-7, 1e-6, 0.0]), *map(PureState, _haar_starts(4, 3, rng))]
    yield (*itertools.chain(*square.grid), *square.rows, *square.cols), four
    yield implications_operators(), four
    at_cutoff = PureState(AT_CUTOFF)
    assert spectral(pauli("z")).weights(at_cutoff)[0] == MIN_BRANCH_WEIGHT
    yield (pauli("z"), spectral(pauli("x")), identity(2)), [at_cutoff, basis_ket(2, 1)]
    for dim in (2, 3, 5, 8) * 3:
        spectra = rng.integers(-1, 2, size=(3, dim)).astype(float)  # repeated eigenvalues
        shared = commuting_family(spectra, rng)
        family = (random_hermitian(dim, rng), *shared[:2], spectral(shared[2]),
                  spectral(random_hermitian(dim, rng)))
        near = shared[0].spectrum().vectors @ np.r_[1.0, np.full(dim - 1, 1e-7)]
        yield family, [*map(PureState, _haar_starts(dim, 6, rng)), normalized(near)]


def predict_each_mismatches():
    """(cases, mismatches): predict_each against [predict(op, h) for op in ops],
    compared bit for bit for every family of _predict_each_families and each
    of its states, at every operator's zeroed cumulative weights, one ulp
    either side, and both ends of (0, 1). The kernel reruns call this too."""
    cases, mismatches = 0, []
    for number, (family, states) in enumerate(_predict_each_families()):
        for state in states:
            cs = [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
            for op in family:
                for edge in _zeroed_cumulative(as_decomposition(op), state)[1]:
                    cs += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
            for c in np.unique([c for c in cs if 0.0 < c < 1.0]).tolist():
                hidden = HiddenState(state, c)
                got = [v.hex() for v in predict_each(family, hidden)]
                want = [predict(op, hidden).hex() for op in family]
                cases += 1
                if got != want:
                    mismatches.append(f"family {number}, c={c!r}: {got} != {want}")
    return cases, mismatches


class TestRunSequenceDifferential:
    def test_matches_chained_measure(self):
        # Both routes run: the joint basis and row by row.
        assert {_joint(ops) is None for ops in _run_sequence_tuples()} == {True, False}
        cases, mismatches = run_sequence_mismatches()
        assert mismatches == [] and cases == 1280


def _shared_start_cases():
    """(name, ops, start) for the shared-start differential, d <= 16: the
    CHSH pairs on the Bell state and the square's lines on |00> (labelled and
    commuting); two degenerate commuting families and a commuting d = 16
    family with repeated eigenvalues, on Haar states; non-commuting random
    Hermitians for d = 2, 3 and 16 on Haar states; and Z beside X on
    AT_CUTOFF, where Z's -1 branch weighs exactly MIN_BRANCH_WEIGHT."""
    for key, *_, ops in experiments._chsh_settings():
        yield f"chsh {key}", ops, experiments.bell_state()
    for number, ops in enumerate(_square_lines()):
        yield f"line {number}", ops, basis_ket(4, 0)
    for seed in range(2):
        ops, rng = _degenerate_family(seed)
        yield f"degenerate {seed}", ops, haar_state(4, rng)
    rng = np.random.default_rng(24)
    spectra = rng.integers(-2, 3, size=(3, 16)).astype(float)
    yield "commuting d=16", commuting_family(spectra, rng), haar_state(16, rng)
    for dim in (2, 3, 16):
        ops = [random_hermitian(dim, rng) for _ in range(3)]
        yield f"non-commuting d={dim}", ops, haar_state(dim, rng)
    assert spectral(pauli("z")).weights(PureState(AT_CUTOFF))[0] == MIN_BRANCH_WEIGHT
    yield "at the cutoff", [pauli("z"), pauli("x")], PureState(AT_CUTOFF)


def shared_start_mismatches():
    """(cases, mismatches): run_sequence on one shared start, two calls per
    case of _shared_start_cases on new trees, so the first builds the nodes
    its rows reach and the second walks them built, against _chained,
    compared bit for bit row by row. Each case has 6 rows of per-row orders
    of 3 steps, repeats allowed, at uniform c; and, for each of them and
    each step, the row again with that step's c at every edge of the node
    the row reaches there and one ulp either side. The kernel reruns call
    this too."""
    model._tree.cache_clear()
    rng = np.random.default_rng(25)
    cases, mismatches = 0, []
    for name, ops, start in _shared_start_cases():
        orders = rng.integers(len(ops), size=(6, 3))
        uniform = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        rows, cs = [], []
        for n, order in enumerate(orders.tolist()):
            rows.append(n)
            cs.append(uniform[n])
            hidden = HiddenState(start, uniform[n, 0])
            for step, k in enumerate(order):
                for edge in _zeroed_cumulative(as_decomposition(ops[k]), hidden.state)[1][:-1]:
                    for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                        if 0.0 < c < 1.0:
                            rows.append(n)
                            cs.append([*uniform[n, :step], c, *uniform[n, step + 1:]])
                _, hidden = measure(ops[k], hidden, ScriptedUniforms([*uniform[n, step + 1:], 0.5]))
        cs = np.array(cs)
        for call in ("first", "second"):
            got = run_sequence(ops, start, cs, orders[rows])
            for n, row, values in zip(rows, cs, got.tolist()):
                want = _chained(ops, start, row, orders[n])
                cases += 1
                if [v.hex() for v in values] != want:
                    mismatches.append(f"{name}, {call} call, row {n}, c={row.tolist()}:"
                                      f" {values} != {want}")
    return cases, mismatches


def _tree_of(ops, start):
    """The outcome tree run_sequence keeps for `ops` on `start`."""
    return model._tree(tuple(ops), start.amplitudes.tobytes())


class TestSharedStartTree:
    """Rows that share one start walk its outcome tree, whose nodes are built
    on the scalar reference, and read what chained measure() reads."""

    def test_matches_chained_measure_on_the_tree(self, monkeypatch):
        walked = []
        walk = model._Tree.walk

        def recording(tree, *args):
            walked.append(walk(tree, *args))
            return walked[-1]

        monkeypatch.setattr(model._Tree, "walk", recording)
        cases, mismatches = shared_start_mismatches()
        assert mismatches == [] and cases > 3000
        # The first call walks the tree too.
        assert walked == [True, True] * len(list(_shared_start_cases()))

    def test_the_tree_cache_is_bounded(self):
        z = pauli("z")
        for n in range(100):
            run_sequence([z], normalized([1.0, n + 1.0]), np.full((1, 1), 0.5))
        info = model._tree.cache_info()
        assert info.maxsize == 64 and info.currsize == 64

    def test_a_block_past_the_node_cap_takes_the_stacked_route(self, monkeypatch):
        # A square line from a Haar start reaches 1 + 6 + 24 nodes before its
        # last step; with room for 8 a block of every order builds the 6
        # nodes of its first step, then overflows and runs on the joint
        # basis. A repeat of that block takes the joint basis too and leaves
        # the tree's states as they were. A block of one row still fits: it
        # walks the tree.
        monkeypatch.setattr(model, "TREE_NODES", 8)
        joint = []
        run_joint = model._run_joint
        monkeypatch.setattr(model, "_run_joint", lambda *args: joint.append(1) or run_joint(*args))
        rng = np.random.default_rng(26)
        ops, start = peres_mermin().column_operators(2), haar_state(4, rng)
        orders = np.array(list(itertools.permutations(range(3))) * 20)
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        values = run_sequence(ops, start, cs, orders)
        states = list(_tree_of(ops, start).states)
        assert joint == [1] and len(states) == 7
        for n, order in enumerate(orders.tolist()):
            assert [v.hex() for v in values[n].tolist()] == _chained(ops, start, cs[n], order)
        assert run_sequence(ops, start, cs, orders).tolist() == values.tolist()
        assert joint == [1, 1] and _tree_of(ops, start).states == states
        assert run_sequence(ops, start, cs[:1], orders[:1]).tolist() == values[:1].tolist()
        assert joint == [1, 1] and len(_tree_of(ops, start).states) == 8

    def test_a_cold_two_block_sweep_walks_the_tree(self, capsys, monkeypatch):
        # weak-fc at its default 1000 trials runs 6000 cases in two sweep
        # blocks. On a new tree both walk it, the first building its nodes.
        model._tree.cache_clear()
        walked, joint = [], []
        walk, run_joint = model._Tree.walk, model._run_joint
        monkeypatch.setattr(model._Tree, "walk",
                            lambda tree, *args: walked.append(walk(tree, *args)) or walked[-1])
        monkeypatch.setattr(model, "_run_joint", lambda *args: joint.append(1) or run_joint(*args))
        assert main(["weak-fc", "--trials", "1000", "--format", "json"]) == 0
        capsys.readouterr()
        assert walked == [True, True] and joint == []

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64])
    def test_orders_of_any_integer_dtype(self, dtype):
        # Nine operators of 16 branches each: node 0's slot 8 * 16 + b wraps
        # in int8, and uint64 beside a signed index turns float. The shared
        # start walks the tree, building its nodes, then walks them built;
        # stacked starts on a commuting family take the joint basis.
        model._tree.cache_clear()
        rng = np.random.default_rng(27)
        orders = np.array([[8, 8, 8], [8, 0, 5], [3, 8, 1], [0, 1, 2]], dtype=dtype)
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        ops, start = [random_hermitian(16, rng) for _ in range(9)], haar_state(16, rng)
        for call in range(2):
            values = run_sequence(ops, start, cs, orders)
            for n, order in enumerate(orders.tolist()):
                assert [v.hex() for v in values[n].tolist()] == _chained(ops, start, cs[n], order)
        ops = commuting_family(rng.normal(size=(9, 16)), rng)
        starts = _haar_starts(16, len(cs), rng)
        assert _joint(ops) is not None
        values = run_sequence(ops, starts, cs, orders)
        for n, order in enumerate(orders.tolist()):
            assert [v.hex() for v in values[n].tolist()] == _chained(ops, starts[n], cs[n], order)

    def test_threads_walking_one_tree_read_what_chain_reads(self):
        # Four threads, more than the host has cores, walk one cached tree at
        # once on their own cs, with the interpreter switching threads every
        # microsecond. Their rows reach unbuilt nodes, so walks grow the tree
        # while others read it; its lock lets one walk at a time in. A lost
        # update would build a slot twice or point a row at the wrong node.
        model._tree.cache_clear()
        rng = np.random.default_rng(28)
        ops, start = peres_mermin().column_operators(2), haar_state(4, rng)
        tree = _tree_of(ops, start)
        orders = rng.integers(3, size=(4, 40, 3))
        cs = rng.uniform(1e-6, 1 - 1e-6, size=orders.shape)
        values = [None] * len(orders)
        ready = threading.Barrier(len(orders))

        def walk(t):
            ready.wait(timeout=60)
            values[t] = run_sequence(ops, start, cs[t], orders[t])

        threads = [threading.Thread(target=walk, args=(t,)) for t in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert _tree_of(ops, start) is tree and len(tree.states) > 7
        assert sorted(tree.child[tree.child >= 0].tolist()) == list(range(1, len(tree.states)))
        for t, rows in enumerate(values):
            for n, order in enumerate(orders[t].tolist()):
                assert [v.hex() for v in rows[n].tolist()] == _chained(ops, start, cs[t, n], order)

    def test_a_repeat_chsh_sequential_call_builds_no_node(self, capsys, monkeypatch):
        argv = ["chsh", "--sequential", "--trials", "5000", "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        built = []
        for name in ("_edges", "_collapse"):
            rule = getattr(model, name)
            monkeypatch.setattr(model, name,
                                lambda *args, rule=rule: built.append(args) or rule(*args))
        main(argv)
        assert capsys.readouterr().out == first and built == []


class TestPredictEach:
    def test_matches_predict_at_every_edge(self):
        cases, mismatches = predict_each_mismatches()
        assert mismatches == [] and cases > 3000

    def test_operators_and_decompositions_mix(self):
        family = [pauli("z"), spectral(pauli("x")), pauli("y").spectrum(), identity(2)]
        hidden = HiddenState(normalized([1.0, 1j]), 0.3)
        assert predict_each(family, hidden) == [predict(op, hidden) for op in family]
        assert predict_each(iter(family), hidden) == predict_each(tuple(family), hidden)

    def test_input_checks(self):
        z = pauli("z")
        with pytest.raises(DimensionMismatchError):  # as run_sequence refuses
            predict_each([z, identity(4)], HiddenState(basis_ket(2, 0), 0.5))
        wrong = HiddenState(basis_ket(4, 0), 0.5)
        with pytest.raises(DimensionMismatchError):  # as SpectralDecomposition.weights refuses
            spectral(z).weights(wrong.state)
        with pytest.raises(DimensionMismatchError):
            predict_each([z, pauli("x")], wrong)
        with pytest.raises(ValueError):
            predict_each([], HiddenState(basis_ket(2, 0), 0.5))



def _tree_states(ops, start):
    """`start` and every state a prefix of len(ops) - 1 measurements of
    `ops`, repeats allowed, collapses it onto through live branches: the
    nodes an outcome tree of `ops` on `start` can build."""
    states = layer = [start]
    for _ in range(len(ops) - 1):
        layer = [model._collapse(decomp, state, int(b)) for state in layer
                 for decomp in map(as_decomposition, ops)
                 for b in np.flatnonzero(~model._dead(decomp.weights(state)))]
        states = states + layer
    return states


def _family_edges_cases():
    """(name, ops, states) for the family-edges differential: the node states
    of the three weak-fc column trees from |00>, the four CHSH trees from the
    Bell state and the six square lines' trees from Haar starts; Haar states
    of a commuting family with repeated eigenvalues and of a non-commuting
    family whose spectra differ in length, for each 2 <= d <= 8."""
    square = peres_mermin()
    for j in (1, 2, 3):
        ops = square.column_expression(j).operators
        yield f"weak-fc column {j}", ops, _tree_states(ops, basis_ket(4, 0))
    for key, *_, ops in experiments._chsh_settings():
        yield f"chsh {key}", ops, _tree_states(ops, experiments.bell_state())
    rng = np.random.default_rng(29)
    for number, ops in enumerate(_square_lines()):
        starts = [haar_state(4, rng) for _ in range(5)]
        yield f"line {number}", ops, [s for start in starts for s in _tree_states(ops, start)]
    for dim in range(2, 9):
        spectra = rng.integers(-1, 2, size=(3, dim)).astype(float)  # repeated eigenvalues
        shared = commuting_family(spectra, rng)
        yield f"commuting d={dim}", shared, [haar_state(dim, rng) for _ in range(200)]
        mixed = (random_hermitian(dim, rng), *shared[:2], random_hermitian(dim, rng))
        yield f"non-commuting d={dim}", mixed, [haar_state(dim, rng) for _ in range(200)]


def family_edges_mismatches():
    """(cases, mismatches): _Family.edges against each operator's own
    _edges(decomp.weights(state)), padded with inf to the family's width,
    compared bit for bit on every state of _family_edges_cases. The kernel
    reruns call this too."""
    cases, mismatches = 0, []
    for name, ops, states in _family_edges_cases():
        family = model._family(tuple(ops))
        for state in states:
            want = np.full((len(family.values) - 1, len(ops)), np.inf)
            for k, decomp in enumerate(family.decomps):
                edges = model._edges(decomp.weights(state))
                want[:len(edges), k] = edges
            cases += 1
            if family.edges(state.amplitudes).tobytes() != want.tobytes():
                mismatches.append(f"{name}, state {state.amplitudes.tolist()}")
    return cases, mismatches


class TestFamilyEdges:
    def test_matches_each_operators_edges(self):
        cases, mismatches = family_edges_mismatches()
        assert mismatches == [] and cases > 3000

CUTOFF_KINDS = ("random", "labelled", "near")


def _cutoff_operator(kind, rng):
    """An observable of one kind the cutoff rule is checked on: "random" has
    repeated eigenvalues in a random_unitary basis; "labelled" is a cell of
    the square, a Pauli or an implications operator; "near" has eigenvalues
    5e-10 apart in a random basis and is given as its decomposition at the
    default tolerance, which merges them, or at 1e-12, which keeps them
    apart. The random ones have 3 <= d <= 16."""
    if kind == "labelled":
        ops = (*itertools.chain(*peres_mermin().grid), pauli("x"), pauli("y"), pauli("z"),
               *implications_operators())
        return ops[int(rng.integers(len(ops)))]
    dim = int(rng.integers(3, 17))
    if kind == "random":
        spectrum = [-3.0, 3.0, *rng.integers(-2, 3, size=dim - 2)]
    else:
        spectrum = [0.0, 5e-10, 1.0, *rng.choice([0.0, 5e-10, 1.0, 1.0 + 5e-10], size=dim - 3)]
    basis = random_unitary(dim, rng)
    matrix = basis @ np.diag(spectrum) @ basis.conj().T
    op = HermitianOperator((matrix + matrix.conj().T) / 2.0)
    return op if kind == "random" else spectral(op, (None, 1e-12)[int(rng.integers(2))])


def _cutoff_case(seed, kind, ulps):
    """(observable, state, cs, ordinary): a _cutoff_operator of `kind`; a state
    whose weight on one of its branches is aimed at MIN_BRANCH_WEIGHT moved
    by `ulps` ulps, the rest of its weight spread over the other branches;
    the hidden scalars one ulp either side of that branch's lower edge, at
    its middle and at its upper edge and one ulp above; and two Haar states
    of the same dimension.

    The products that read the weight back round it by up to about 1e-10 of
    itself in a rotated basis, selection and collapse each their own way.
    Aiming a second time by the first reading takes out most of the bias, so
    the readings fall on both sides of the cutoff."""
    rng = np.random.default_rng(seed)
    op = _cutoff_operator(kind, rng)
    decomp = as_decomposition(op)
    branch = int(rng.integers(len(decomp.values)))
    inside = decomp.block_of_column == branch
    z = rng.normal(size=decomp.dim) + 1j * rng.normal(size=decomp.dim)
    target = MIN_BRANCH_WEIGHT + ulps * np.spacing(MIN_BRANCH_WEIGHT)

    def spread(weight):
        return PureState(decomp.vectors @ (z * np.where(
            inside, np.sqrt(weight) / np.linalg.norm(z[inside]),
            np.sqrt(1.0 - weight) / np.linalg.norm(z[~inside]))))

    # Aim again by what the first state reads, which rounding put some ulps off.
    state = spread(target**2 / decomp.weights(spread(target))[branch])
    cum = _zeroed_cumulative(decomp, state)[1]
    low = cum[branch - 1] if branch else 0.0
    high = low + decomp.weights(state)[branch]
    cs = [np.nextafter(low, 0.0), np.nextafter(low, 1.0), (low + high) / 2, high,
          np.nextafter(high, 1.0)]
    return op, state, [c for c in cs if 0.0 < c < 1.0], _haar_starts(decomp.dim, 2, rng)


def _cutoff_disagreements(op, state, cs, ordinary):
    """One line for each route that reads `op` on `state` at the hidden
    scalars `cs` otherwise than predict does, a route that raises included:
    predict_each, predict_batch, tally's events, measure, run_sequence with
    the state's rows between the `ordinary` ones and on the state alone, and
    predict on the state update leaves for predict's reading; and one for
    each c at which measure and update collapse the state apart."""
    hiddens = [HiddenState(state, c) for c in cs]
    want = [predict(op, hidden) for hidden in hiddens]

    def tallied():
        blocks = Blocks()
        tally(op, state, _Stream(cs), len(cs), blocks, ("x",))
        return [value for events in blocks for value in events.value.tolist()]

    def sequenced():
        starts = np.array([ordinary[0], *[state.amplitudes] * len(cs), ordinary[1]])
        return run_sequence([op], starts, np.array([0.5, *cs, 0.5])[:, None])[1:-1, 0].tolist()

    routes = {
        "predict_each": lambda: [predict_each((op,), hidden)[0] for hidden in hiddens],
        "predict_batch": lambda: predict_batch(op, state, cs).tolist(),
        "tally": tallied,
        "measure": lambda: [measure(op, hidden, ScriptedUniforms([0.5]))[0].value
                            for hidden in hiddens],
        "run_sequence": sequenced,
        "run_sequence on one start": lambda: run_sequence([op], state,
                                                          np.array(cs)[:, None])[:, 0].tolist(),
        "update": lambda: [predict(op, HiddenState(update(op, hidden, value), 0.5))
                           for hidden, value in zip(hiddens, want)],
    }
    found = []
    for name, route in routes.items():
        try:
            got = route()
        except HvsimError as exc:
            got = type(exc).__name__
        if got != want:
            found.append(f"{name} reads {got} where predict reads {want}")
    if not found:
        for hidden, value in zip(hiddens, want):
            _, after = measure(op, hidden, ScriptedUniforms([0.5]))
            if after.state.amplitudes.tobytes() != update(op, hidden, value).amplitudes.tobytes():
                found.append(f"measure and update collapse apart at c={hidden.c!r}")
    return found


def cutoff_mismatches():
    """(cases, mismatches): _cutoff_disagreements at each hidden scalar of
    _cutoff_case for seeds 0-19 of every kind, the branch weight 4 ulps
    either side of the cutoff and on it, and at c = 5e-13 on AT_CUTOFF under
    Z. The kernel reruns call this too."""
    cases, mismatches = 1, [f"Z at the cutoff: {line}" for line in _cutoff_disagreements(
        pauli("z"), PureState(AT_CUTOFF), [5e-13], _haar_starts(2, 2, np.random.default_rng(0)))]
    for kind in CUTOFF_KINDS:
        for seed in range(20):
            for ulps in range(-4, 5):
                op, state, cs, ordinary = _cutoff_case(seed, kind, ulps)
                cases += len(cs)
                mismatches += [f"{kind}, seed {seed}, {ulps:+d} ulps: {line}"
                               for line in _cutoff_disagreements(op, state, cs, ordinary)]
    return cases, mismatches


class TestCutoffRule:
    """A branch that weighs MIN_BRANCH_WEIGHT or more is live on every route:
    where a selection route reads it, measure, run_sequence and update read
    it too, and collapse onto it."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(CUTOFF_KINDS), st.integers(-8, 8))
    def test_routes_agree_near_the_cutoff(self, seed, kind, ulps):
        assert _cutoff_disagreements(*_cutoff_case(seed, kind, ulps)) == []

    def test_routes_agree_at_fixed_cases(self):
        cases, mismatches = cutoff_mismatches()
        assert mismatches == [] and cases > 2000
