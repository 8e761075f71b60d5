"""Strong and weak functional consistency, plus the assignment census."""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Blocks, refuse_events, rows_of
from hvsim import consistency
from hvsim import (
    DimensionMismatchError,
    HermitianOperator,
    HiddenState,
    InvalidArgumentError,
    NotAnEigenstateError,
    ObservableExpression,
    Leaf,
    Scale,
    Sum,
    ScriptedUniforms,
    amplitude_pairs,
    basis_ket,
    case_slot,
    check_strong_fc,
    check_weak_fc,
    haar_state,
    no_go_search,
    normalized,
    pauli,
    peres_mermin,
    random_hermitian,
    tensor,
    verify_proposition,
)


def column3_expression():
    xx = tensor(pauli("x"), pauli("x"), "XX")
    yy = tensor(pauli("y"), pauli("y"), "YY")
    zz = tensor(pauli("z"), pauli("z"), "ZZ")
    return ObservableExpression.of_product(xx, yy, zz)


class TestStrongFC:
    def test_witness_on_product_state(self):
        # The product XX*YY*ZZ is -I, so its prediction is -1 on any hidden
        # state. At (|00>, c=0.4) the per-leaf predictions are -1, -1, +1,
        # which multiply to +1: a concrete consistency failure.
        report = check_strong_fc(column3_expression(),
                                 HiddenState(basis_ket(4, 0), 0.4))
        assert report.lhs_value == -1.0
        assert report.rhs_value == 1.0
        assert not report.holds
        assert report.details["c"] == 0.4
        assert report.details["leaf_values"] == {
            "XX": -1.0, "YY": -1.0, "ZZ": 1.0,
        }

    def test_holds_on_common_eigenket(self):
        # Diagonal observables share the basis kets, so every leaf value is
        # pinned and the polynomial routes agree for each hidden scalar.
        a = HermitianOperator(np.diag([1.0, 2.0, 3.0]), "A")
        b = HermitianOperator(np.diag([5.0, 5.0, 7.0]), "B")
        f = ObservableExpression(Sum(Leaf(a), Scale(2.0, Leaf(b))))
        for c in (0.05, 0.4, 0.95):
            report = check_strong_fc(f, HiddenState(basis_ket(3, 1), c))
            assert report.holds
            assert report.lhs_value == report.rhs_value == 12.0

    def test_shared_label_is_no_witness(self):
        # diag(1,-1) and diag(2,5) both labelled "A" are two leaves: at |0>
        # they predict 1 and 2, and their sum operator diag(3,4) predicts 3.
        f = ObservableExpression.of_sum(HermitianOperator(np.diag([1.0, -1.0]), "A"),
                                        HermitianOperator(np.diag([2.0, 5.0]), "A"))
        report = check_strong_fc(f, HiddenState(basis_ket(2, 0), 0.5))
        assert (report.lhs_value, report.rhs_value) == (3.0, 3.0)
        assert report.holds

    def test_shared_label_keeps_both_leaf_values(self):
        # Leaves sharing a label get position-suffixed keys, so neither
        # leaf's prediction is dropped from the report.
        f = ObservableExpression.of_sum(HermitianOperator(np.diag([1.0, -1.0]), "A"),
                                        HermitianOperator(np.diag([2.0, 5.0]), "A"))
        report = check_strong_fc(f, HiddenState(basis_ket(2, 0), 0.5))
        assert report.details["leaf_values"] == {"A[0]": 1.0, "A[1]": 2.0}

    def test_distinct_labels_stay_plain(self):
        b = HermitianOperator(np.diag([2.0, 5.0]), "B")
        f = ObservableExpression.of_sum(HermitianOperator(np.diag([1.0, -1.0]), "A"), b)
        report = check_strong_fc(f, HiddenState(basis_ket(2, 0), 0.5))
        assert report.details["leaf_values"] == {"A": 1.0, "B": 2.0}

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_single_leaf_always_holds(self, seed):
        # With one leaf both sides are the same prediction by definition.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        f = ObservableExpression.of(random_hermitian(dim, rng))
        hidden = HiddenState(haar_state(dim, rng), float(rng.uniform(0.01, 0.99)))
        report = check_strong_fc(f, hidden)
        assert report.holds
        assert report.lhs_value == report.rhs_value

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_strong_fc(column3_expression(),
                            HiddenState(basis_ket(2, 0), 0.5))

    def test_report_dict_keys(self):
        report = check_strong_fc(column3_expression(),
                                 HiddenState(basis_ket(4, 0), 0.4))
        payload = report.as_dict()
        assert list(payload) == [
            "scenario_label", "lhs_value", "rhs_value", "holds", "details",
        ]
        assert payload["scenario_label"] == "(XX*YY*ZZ)"


class TestWeakFC:
    def test_scripted_sequential_run(self):
        # Measuring ZZ, YY, XX from (|00>, 0.4) with re-arm draws 0.1, 0.7,
        # 0.5 yields values +1, -1, +1; the product matches predicting the
        # -I expression operator directly.
        f = column3_expression()
        script = ScriptedUniforms((0.1, 0.7, 0.5))
        report = check_weak_fc(f, HiddenState(basis_ket(4, 0), 0.4),
                               (2, 1, 0), script)
        assert report.holds
        assert report.lhs_value == -1.0
        assert report.rhs_value == -1.0
        assert report.details["permutation"] == [2, 1, 0]
        assert report.details["c_values"] == [0.4, 0.1, 0.7]
        labels = [step["label"] for step in report.details["steps"]]
        values = [step["value"] for step in report.details["steps"]]
        assert labels == ["ZZ", "YY", "XX"]
        assert values == [1.0, -1.0, 1.0]
        with pytest.raises(RuntimeError):  # every scripted scalar was read
            script.random()

    def test_every_order_gives_minus_one(self):
        f = column3_expression()
        rng = np.random.default_rng(11)
        for permutation in itertools.permutations(range(3)):
            initial = HiddenState.draw(basis_ket(4, 0), rng)
            report = check_weak_fc(f, initial, permutation, rng)
            assert report.holds
            assert report.rhs_value == -1.0

    # Entries are read by whole, the one integer rule: a float or a bool is
    # refused, not truncated into some arrangement.
    @pytest.mark.parametrize("permutation", [(0, 1), (0, 0, 2), (0.5, 1.9, 2.2), (True, 0, 2),
                                             (0.0, 1, 2), (-1, 0, 1)])
    def test_bad_permutation_rejected(self, permutation):
        f = column3_expression()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            check_weak_fc(f, HiddenState(basis_ket(4, 0), 0.4), permutation, rng)

    @pytest.mark.parametrize("live", [False, True], ids=["scripted", "rng"])
    def test_steps_chain(self, live):
        # Step 0 starts from the initial state and every later step from the
        # state the one before it left: measure hands each post state on.
        initial = HiddenState(normalized([1.0, 2.0, 0.5, -1.0j]), 0.3)
        rng = np.random.default_rng(5) if live else ScriptedUniforms((0.8, 0.2, 0.6))
        report = check_weak_fc(column3_expression(), initial, (1, 2, 0), rng)
        steps = report.details["steps"]
        assert len(steps) == 3
        assert steps[0]["pre_state"] == amplitude_pairs(initial.state.amplitudes)
        for earlier, later in zip(steps, steps[1:]):
            assert later["pre_state"] == earlier["post_state"]

    def test_single_leaf_consumes_one_draw(self):
        f = ObservableExpression.of(pauli("z"))
        script = ScriptedUniforms((0.9,))
        report = check_weak_fc(f, HiddenState(normalized([1.0, 1.0]), 0.3),
                               (0,), script)
        assert report.holds
        assert report.lhs_value == report.rhs_value == -1.0
        with pytest.raises(RuntimeError):  # every scripted scalar was read
            script.random()


class TestVerifyProposition:
    def test_kept_failures_match_check_weak_fc(self, monkeypatch):
        # Offsetting the composed value makes every case fail. Only the kept
        # cases get a full report; each carries its key (seed, tag, case) and
        # equals check_weak_fc's report for that one case, replayed from the
        # key with a single advance to its slot. The sweep composes values
        # per block and the kept reports per case, so both routes are offset.
        eval_real, eval_real_block = consistency.eval_real, consistency.eval_real_block
        monkeypatch.setattr(consistency, "eval_real",
                            lambda f, values: eval_real(f, values) + 1.0)
        monkeypatch.setattr(consistency, "eval_real_block",
                            lambda f, readings: eval_real_block(f, readings) + 1.0)
        f = column3_expression()
        state = basis_ket(4, 0)
        summary = verify_proposition(f, state, trials=3, key=(8, 6))
        assert (summary.passes, summary.failures) == (0, 18)
        assert len(summary.failure_examples) == consistency.FAILURE_EXAMPLES == 3
        for permutation, kept in zip([(0, 1, 2), (0, 2, 1), (1, 0, 2)], summary.failure_examples):
            key = tuple(kept.details["key"])
            assert key[:2] == (8, 6)
            slot = case_slot(key, 4)
            assert kept == check_weak_fc(f, HiddenState(state, slot[0]), permutation,
                                         ScriptedUniforms(slot[1:]), key=key)
            assert not kept.holds

    def test_key_replays_a_late_failure(self, monkeypatch):
        # Only the last case fails; its key alone rebuilds its report. The
        # sweep's block values are offset from case 17 on, and the kept
        # report's per-case value always, so that report fails too.
        swept = []
        eval_real, eval_real_block = consistency.eval_real, consistency.eval_real_block

        def fail_last(f, readings):
            cases = np.arange(len(swept), len(swept) + len(readings))
            swept.extend(cases)
            return eval_real_block(f, readings) + np.where(cases >= 17, 1.0, 0.0)

        monkeypatch.setattr(consistency, "eval_real_block", fail_last)
        monkeypatch.setattr(consistency, "eval_real",
                            lambda f, values: eval_real(f, values) + 1.0)
        f = column3_expression()
        state = basis_ket(4, 0)
        summary = verify_proposition(f, state, trials=3, key=(8, 6))
        assert (summary.passes, summary.failures) == (17, 1)
        (kept,) = summary.failure_examples
        assert kept.details["key"] == [8, 6, 17]
        slot = case_slot((8, 6, 17), 4)
        assert kept.details["initial_c"] == slot[0]
        assert kept.details["c_values"] == slot[:3].tolist()
        assert kept.details["permutation"] == [2, 1, 0]
        assert not kept.holds

    def test_generator_stream_records_no_key(self):
        f = column3_expression()
        report = check_weak_fc(f, HiddenState(basis_ket(4, 0), 0.4), (0, 1, 2),
                               ScriptedUniforms((0.1, 0.7, 0.5)))
        assert "key" not in report.details

    def test_numpy_key_entries_are_recorded_as_ints(self):
        f = column3_expression()
        key = (np.int64(8), np.uint8(6), np.intp(17))
        report = check_weak_fc(f, HiddenState(basis_ket(4, 0), 0.4), (0, 1, 2),
                               ScriptedUniforms((0.1, 0.7, 0.5)), key=key)
        assert report.details["key"] == [8, 6, 17]
        assert all(type(k) is int for k in report.details["key"])

    @pytest.mark.parametrize("key", [(0.5, True, 6.9), (8, 6, 6.9), (8, True, 17), (8, 6, -1)])
    def test_a_key_entry_that_is_not_a_whole_number_is_refused(self, key):
        # Truncating would record a key that replays another case.
        f = column3_expression()
        with pytest.raises(InvalidArgumentError, match="key entry"):
            check_weak_fc(f, HiddenState(basis_ket(4, 0), 0.4), (0, 1, 2),
                          ScriptedUniforms((0.1, 0.7, 0.5)), key=key)

    def test_counts_and_rows(self):
        f = column3_expression()
        blocks = Blocks()
        summary = verify_proposition(f, basis_ket(4, 0), trials=5, key=(5, 6), sink=blocks)
        assert summary.trials == 5
        assert summary.permutation_count == 6
        assert summary.cases == 30
        assert summary.passes == 30
        assert summary.failures == 0
        assert summary.all_passed
        assert summary.failure_examples == ()
        rows = rows_of(blocks)
        assert len(rows) == 30
        case, setting, c, value = rows[0]
        assert case == 0
        assert setting == "perm(0,1,2)"
        assert 0.0 < c < 1.0
        assert value == -1.0
        assert [row[0] for row in rows] == list(range(30))
        assert blocks.labels == tuple(
            f"perm({','.join(map(str, p))})" for p in itertools.permutations(range(3)))

    def test_cases_match_check_weak_fc_replay(self):
        # A + 2B = 5I, so every state qualifies and the readings are random,
        # while swapping which leaf got which reading would change the sum.
        a = HermitianOperator(np.diag([1.0, 3.0]), "A")
        b = HermitianOperator(np.diag([2.0, 1.0]), "B")
        f = ObservableExpression(Sum(Leaf(a), Scale(2.0, Leaf(b))))
        state = normalized([1.0, 1.0])
        blocks = Blocks()
        summary = verify_proposition(f, state, trials=20, key=(4, 6), sink=blocks)
        assert summary.all_passed
        readings = set()
        for case, _, c, rhs in rows_of(blocks):
            permutation = [(0, 1), (1, 0)][case % 2]
            slot = case_slot((4, 6, case), 3)
            report = check_weak_fc(f, HiddenState(state, slot[0]), permutation,
                                   ScriptedUniforms(slot[1:]))
            assert (report.details["initial_c"], report.rhs_value) == (c, rhs)
            readings.add((permutation[0], report.details["steps"][0]["value"]))
        assert len(readings) == 4  # each leaf, measured first, read both its values

    def test_rows_dropped_by_default(self, monkeypatch):
        refuse_events(monkeypatch)
        f = column3_expression()
        assert verify_proposition(f, basis_ket(4, 0), trials=2, key=(0, 6)).all_passed

    def test_requires_eigenstate(self):
        zz = tensor(pauli("z"), pauli("z"), "ZZ")
        f = ObservableExpression.of(zz)
        superposition = normalized([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(NotAnEigenstateError):
            verify_proposition(f, superposition, trials=1, key=(0, 6))

    def test_state_read_like_every_entry_point(self):
        # A unit amplitude list is a state, as born_experiment and tally take
        # it; a state of the wrong dimension is refused by the shape rule.
        f = column3_expression()
        summary = verify_proposition(f, [1.0, 0.0, 0.0, 0.0], trials=2, key=(0, 6))
        assert summary == verify_proposition(f, basis_ket(4, 0), trials=2, key=(0, 6))
        for state in (basis_ket(2, 0), [1.0, 0.0]):
            with pytest.raises(DimensionMismatchError, match="does not match dimension 4"):
                verify_proposition(f, state, trials=2, key=(0, 6))

    def test_requires_positive_trials(self):
        f = column3_expression()
        with pytest.raises(ValueError):
            verify_proposition(f, basis_ket(4, 0), trials=0, key=(0, 6))

    def test_summary_dict_keys(self):
        f = column3_expression()
        summary = verify_proposition(f, basis_ket(4, 0), trials=1, key=(0, 6))
        assert list(summary.as_dict()) == [
            "expression", "trials", "permutation_count", "cases", "passes",
            "failures", "all_passed", "failure_examples",
        ]


def census_oracle(row_targets, col_targets):
    """Independent tally of the same census using a vectorized scan."""
    cells = np.array(list(itertools.product((1, -1), repeat=9)))
    rows_ok = np.ones(len(cells), dtype=bool)
    cols_ok = np.ones(len(cells), dtype=bool)
    for i in range(3):
        line = cells[:, 3 * i] * cells[:, 3 * i + 1] * cells[:, 3 * i + 2]
        rows_ok &= line == row_targets[i]
        line = cells[:, i] * cells[:, i + 3] * cells[:, i + 6]
        cols_ok &= line == col_targets[i]
    return len(cells), int((rows_ok & cols_ok).sum()), int(cols_ok.sum()), int(rows_ok.sum())


class TestNoGoSearch:
    def test_matches_independent_census(self):
        square = peres_mermin()
        result = no_go_search(square)
        total, satisfying, odd, even = census_oracle(square.row_values,
                                                     square.col_values)
        assert result.total_assignments == total == 512
        assert result.satisfying_assignments == satisfying == 0
        assert result.parity_odd_count == odd == 64
        assert result.parity_even_count == even == 64

    @pytest.mark.parametrize("row_targets", list(itertools.product((1, -1), repeat=3)))
    def test_every_target_pattern_matches_the_census(self, row_targets):
        # The square's own targets have opposite parities, so nothing
        # satisfies both sides; equal parities leave 16 grids that do.
        for col_targets in itertools.product((1, -1), repeat=3):
            square = types.SimpleNamespace(row_values=row_targets, col_values=col_targets)
            result = no_go_search(square)
            assert (result.total_assignments, result.satisfying_assignments,
                    result.parity_odd_count, result.parity_even_count) == census_oracle(
                        row_targets, col_targets)
            parity_matches = np.prod(row_targets) == np.prod(col_targets)
            assert result.satisfying_assignments == (16 if parity_matches else 0)

    def test_parity_argument(self):
        # Row constraints force the product of all nine cells to +1 and
        # column constraints force it to -1, so no assignment can do both.
        square = peres_mermin()
        assert int(np.prod(square.row_values)) == 1
        assert int(np.prod(square.col_values)) == -1

    def test_result_dict_keys(self):
        result = no_go_search(peres_mermin())
        assert list(result.as_dict()) == [
            "total_assignments", "satisfying_assignments",
            "parity_odd_count", "parity_even_count",
        ]
