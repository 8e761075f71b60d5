"""Reference replay, Born statistics, implications demo, CHSH, line sweeps."""

import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Blocks, refuse_events, rows_of
from hvsim import (
    HermitianOperator,
    InvalidArgumentError,
    HiddenState,
    LineProductReport,
    Leaf,
    ObservableExpression,
    Scale,
    ScriptedUniforms,
    Sum,
    case_slot,
    check_weak_fc,
    haar_amplitudes,
    identity,
    measure,
    normalized,
    substream,
    tensor,
    verify_proposition,
    ReferenceRunMismatchError,
    StatReport,
    basis_ket,
    bell_state,
    branch_indices,
    born_experiment,
    born_scenario_sweep,
    chsh_experiment,
    column_product_experiment,
    implications_demo,
    implications_operators,
    pauli,
    peres_mermin,
    phase_distance,
    predict,
    replay_table1,
    spin_state,
    PeresMerminSquare,
    PureState,
)
from hvsim import consistency, experiments, model, operators
from hvsim.experiments import (
    LINE_SLOT_WIDTH,
    _BORN_TAG,
    _CHSH_PRODUCT_TAG,
    _CHSH_SEQUENTIAL_TAG,
    _LINE_PRODUCT_TAG,
    _chsh_settings,
)

ROOT2 = math.sqrt(2.0)


NAN = float("nan")


def _refuse_block(events):
    pytest.fail("a driver handed its sink a block before refusing an argument")


# Each randomized driver as a call with valid arguments but the ones named.
DRIVERS = {
    "born": lambda trials=3, seed=0, tolerance_sigma=5.0: born_experiment(
        spin_state(0.7), pauli("z"), trials, seed, tolerance_sigma, _refuse_block),
    "chsh-product": lambda trials=3, seed=0: chsh_experiment(
        trials, seed, "product", _refuse_block),
    "chsh-sequential": lambda trials=3, seed=0: chsh_experiment(
        trials, seed, "sequential", _refuse_block),
    "verify_proposition": lambda trials=3, seed=0: verify_proposition(
        peres_mermin().column_expression(3), basis_ket(4, 0), trials, (seed, 6), _refuse_block),
    "column_product": lambda trials=3, seed=0: column_product_experiment(
        trials=trials, seed=seed, sink=_refuse_block),
    "born_scenario_sweep": lambda trials=3, seed=0: born_scenario_sweep(2, trials, seed),
}
BAD_ARGUMENTS = [
    *((driver, name, value) for driver in DRIVERS
      for name, values in (("trials", (0, 2.5, NAN)), ("seed", (-1, 1.5, NAN)))
      for value in values),
    *(("born", "tolerance_sigma", value) for value in (0.0, NAN, math.inf)),
]


@pytest.mark.parametrize("driver, name, value", BAD_ARGUMENTS,
                         ids=[f"{d}-{n}={v}" for d, n, v in BAD_ARGUMENTS])
def test_drivers_refuse_bad_arguments_before_any_block(driver, name, value):
    with pytest.raises(InvalidArgumentError) as info:
        DRIVERS[driver](**{name: value})
    assert info.value.argument == name


class TestStates:
    def test_spin_state(self):
        s = spin_state(math.pi / 3)
        np.testing.assert_allclose(
            s.amplitudes, [0.5, math.sqrt(3) / 2], atol=1e-15)
        for theta in (NAN, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError) as info:
                spin_state(theta)
            assert info.value.argument == "theta"

    def test_bell_state(self):
        b = bell_state()
        np.testing.assert_allclose(
            b.amplitudes, [1 / ROOT2, 0.0, 0.0, 1 / ROOT2], atol=1e-15)


class TestStatReport:
    def make(self, freqs):
        return StatReport(
            observable_label="Z", trials=10,
            outcome_frequencies=freqs,
            expected_probabilities={-1.0: 0.5, 1.0: 0.5},
            max_sigma_deviation=0.0, tolerance_sigma=5.0, passed=True,
        )

    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(ValueError):
            self.make({-1.0: 0.5, 1.0: 0.4})

    def test_nearest_key_lookup(self):
        report = self.make({-1.0: 0.3, 1.0: 0.7})
        # Keys arrive as floats from eigensolves, so lookup tolerates jitter.
        assert report.frequency(1.0 + 1e-12) == 0.7
        assert report.expected(-1.0) == 0.5
        with pytest.raises(KeyError):
            report.frequency(0.0)

    def test_dict_uses_formatted_keys(self):
        payload = self.make({-1.0: 0.3, 1.0: 0.7}).as_dict()
        assert set(payload["outcome_frequencies"]) == {"-1", "1"}
        assert payload["pass"] is True


class TestBornExperiment:
    def test_eigenstate_is_deterministic(self):
        report = born_experiment(basis_ket(2, 0), pauli("z"), 500, 3, 5.0)
        assert report.frequency(1.0) == 1.0
        assert report.frequency(-1.0) == 0.0
        assert report.max_sigma_deviation == 0.0
        assert report.passed

    def test_frozen_seed_zero_run(self):
        report = born_experiment(spin_state(math.pi / 3), pauli("z"), 20_000, 0, 5.0)
        assert report.frequency(1.0) == pytest.approx(0.2522, abs=1e-12)
        assert report.expected(1.0) == pytest.approx(0.25, abs=1e-12)
        assert report.passed

    def test_weight_a_hair_over_one_is_deterministic(self):
        # PureState accepts a norm within 1e-12 of 1, so a Born weight can
        # read 1 + 1e-12; it is clipped to 1 both in the report and in the
        # sigma rule, which must not take the root of p(1 - p) < 0.
        report = born_experiment(PureState([1 + 5e-13, 0]), pauli("z"), 1000, 0, 5.0)
        assert report.expected(1.0) == 1.0
        assert report.frequency(1.0) == 1.0
        assert report.max_sigma_deviation == 0.0
        assert report.passed

    def test_runs_are_reproducible(self):
        a = born_experiment(spin_state(0.7), pauli("x"), 4000, 7, 5.0)
        b = born_experiment(spin_state(0.7), pauli("x"), 4000, 7, 5.0)
        assert a.as_dict() == b.as_dict()

    def test_trial_rows(self, monkeypatch):
        blocks = Blocks()
        born_experiment(spin_state(0.9), pauli("z"), 50, 1, 5.0, sink=blocks)
        (events,) = blocks
        assert [len(a) for a in (events.case, events.setting, events.c, events.value)] == [50] * 4
        assert events.labels == ("Z",)
        assert events.case.tolist() == list(range(50))
        assert events.setting.tolist() == [0] * 50
        assert ((0.0 < events.c) & (events.c < 1.0)).all()
        assert set(events.value.tolist()) <= {-1.0, 1.0}
        refuse_events(monkeypatch)
        assert born_experiment(spin_state(0.9), pauli("z"), 50, 1, 5.0).passed


class TestBornSweep:
    def test_small_sweep_passes(self):
        reports = born_scenario_sweep(10, 2000, seed=0)
        assert len(reports) == 10
        assert all(r.passed for r in reports)
        assert [r.observable_label for r in reports[:3]] == [
            "scenario0", "scenario1", "scenario2",
        ]
        assert all(2 <= len(r.expected_probabilities) <= 8 for r in reports)

    def test_sweep_is_reproducible(self):
        a = born_scenario_sweep(4, 500, seed=9)
        b = born_scenario_sweep(4, 500, seed=9)
        assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


BELL = (1 / ROOT2, 0.0, 0.0, 1 / ROOT2)
GRID_FIRST = ((-1, -1, -1), (-1, -1, -1), (-1, -1, 1))
GRID_LAST = ((1, 1, 1), (1, 1, -1), (1, 1, 1))


class TestReplay:
    def test_frozen_run(self):
        report = replay_table1()
        assert len(report.iterations) == 3
        records = [it.record for it in report.iterations]
        assert [r.c_used for r in records] == [0.4, 0.1, 0.7]
        assert [r.observable_label for r in records] == ["ZZ", "YY", "XX"]
        assert [r.value for r in records] == [1.0, -1.0, 1.0]
        assert report.iterations[0].grid == GRID_FIRST
        assert report.iterations[1].grid == GRID_FIRST
        assert report.iterations[2].grid == GRID_LAST
        for it in report.iterations:
            assert it.row_values == (1, 1, 1)
            assert it.col_values == (1, 1, -1)
        finals = [r.post_state for r in records]
        assert phase_distance(finals[0], np.array([1, 0, 0, 0], dtype=complex)) <= 1e-9
        assert phase_distance(finals[1], np.array(BELL, dtype=complex)) <= 1e-9
        assert phase_distance(finals[2], np.array(BELL, dtype=complex)) <= 1e-9

    def test_trace_and_csv_rows(self):
        report = replay_table1()
        rows = rows_of([report.events])
        assert rows == [
            (0, "ZZ", 0.4, 1.0),
            (1, "YY", 0.1, -1.0),
            (2, "XX", 0.7, 1.0),
        ]
        records = [it.record for it in report.iterations]
        assert report.as_dict()["trace"] == {"seed": None,
                                             "records": [r.as_dict() for r in records]}
        for earlier, later in zip(records, records[1:]):
            assert later.pre_state is earlier.post_state

    def test_dict_structure(self):
        payload = replay_table1().as_dict()
        assert list(payload) == ["iterations", "trace"]
        first = payload["iterations"][0]
        assert list(first) == [
            "index", "c", "initial_state", "grid", "row_values",
            "col_values", "measured", "final_state",
        ]
        assert first["measured"] == {"label": "ZZ", "value": 1}

    def test_tampered_square_is_caught(self, monkeypatch):
        # Swapping the first two rows still yields a valid square (the same
        # parity pattern holds) but the scripted run no longer matches the
        # frozen collapse chain.
        base = peres_mermin().grid
        swapped = PeresMerminSquare((base[1], base[0], base[2]))
        monkeypatch.setattr(experiments, "peres_mermin", lambda: swapped)
        with pytest.raises(ReferenceRunMismatchError):
            replay_table1()


class TestImplicationsDemo:
    def test_default_run_witnesses_inconsistency(self):
        report = implications_demo()
        assert report.c == 0.4
        assert report.direct == {"B1": -1.0, "B2": -1.0, "C": 2.0}
        assert report.deduced == {"B1": 1.0, "B2": -1.0}
        assert report.mismatch == {"B1": True, "B2": False}
        assert report.non_fc_witnessed
        assert report.post_collapse_consistent
        assert report.sampled_c_count == 19
        assert phase_distance(report.post_state,
                              np.array([0, 1, 0, 0], dtype=complex)) <= 1e-9

    def test_high_c_flips_the_deduction(self):
        report = implications_demo(c=0.7)
        assert report.direct == {"B1": 1.0, "B2": 1.0, "C": 3.0}
        assert report.deduced == {"B1": -1.0, "B2": 1.0}
        assert report.mismatch == {"B1": True, "B2": False}
        assert report.non_fc_witnessed

    def test_every_c_witnesses_some_mismatch(self):
        # Direct B1/B2 predictions agree in sign on the entangled state while
        # the deduced pair always carries opposite signs, so one mismatch is
        # unavoidable no matter where the hidden scalar falls.
        for c in np.linspace(0.05, 0.95, 19):
            report = implications_demo(c=float(c))
            assert report.non_fc_witnessed
            assert report.post_collapse_consistent

    def test_basis_start_is_consistent(self):
        # From a shared eigenket the deduction route adds nothing new and
        # both comparisons agree: a negative control for the witness flag.
        report = implications_demo(c=0.3, state=basis_ket(4, 0))
        assert report.direct == {"B1": 1.0, "B2": -1.0, "C": 1.0}
        assert report.deduced == {"B1": 1.0, "B2": -1.0}
        assert report.mismatch == {"B1": False, "B2": False}
        assert not report.non_fc_witnessed
        assert report.post_collapse_consistent

    @pytest.mark.parametrize("state", [None, basis_ket(4, 0)], ids=["entangled", "basis"])
    @pytest.mark.parametrize("c", [0.3, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                                   0.7])
    def test_sampled_readings_equal_scalar_predict(self, c, state):
        # The demo reads its sampled scalars with predict_batch; at every
        # sampled c, scalar predict on the collapsed state gives the same float.
        report = implications_demo(c=float(c), state=state)
        sampled = np.linspace(0.05, 0.95, report.sampled_c_count)
        b1, b2, _ = implications_operators()
        for op in (b1, b2):
            want = {report.deduced[op.label], report.as_dict()["post_predictions"][op.label]}
            assert [type(v) for v in want] == [float]
            for cv in sampled:
                assert {predict(op, HiddenState(report.post_state, cv))} == want

    def test_dict_keys(self):
        payload = implications_demo().as_dict()
        assert list(payload) == [
            "c", "initial_state", "direct", "deduced", "mismatch",
            "non_fc_witnessed", "post_state", "post_predictions",
            "post_collapse_consistent", "sampled_c_count",
        ]


class TestChsh:
    def test_frozen_product_run(self):
        report = chsh_experiment(20_000, 0, "product")
        assert report.mode == "product"
        assert report.s_value == pytest.approx(2.825, abs=1e-12)
        assert report.correlators["ZW"] == pytest.approx(0.7127, abs=1e-12)
        assert report.correlators["XV"] == pytest.approx(-0.7042, abs=1e-12)
        assert report.exceeds_classical
        assert abs(report.s_value - 2.0 * ROOT2) < 0.02

    def test_sequential_cross_check(self):
        report = chsh_experiment(300, 0, "sequential")
        assert report.mode == "sequential"
        assert report.s_value == pytest.approx(2.993333333333333, abs=1e-12)
        assert report.exceeds_classical
        assert abs(report.s_value - 2.0 * ROOT2) < 0.3

    def test_settings_are_decomposed_once_per_process(self, monkeypatch):
        # The settings, their joints and their sequential pairs are built
        # once, so a repeated run in either mode computes no spectrum and
        # reports the same correlators.
        first = [chsh_experiment(50, 1, mode) for mode in ("product", "sequential")]
        computed = []
        spectral = operators.spectral
        monkeypatch.setattr(operators, "spectral",
                            lambda *args: computed.append(args) or spectral(*args))
        again = [chsh_experiment(50, 1, mode) for mode in ("product", "sequential")]
        assert computed == []
        assert again == first

    def test_product_rows(self, monkeypatch):
        blocks = Blocks()
        chsh_experiment(25, 2, "product", sink=blocks)
        rows = rows_of(blocks)
        assert len(rows) == 4 * 25
        settings = {row[1] for row in rows}
        assert settings == {"ZW", "ZV", "XW", "XV"}
        assert [row[0] for row in rows] == list(range(25)) * 4
        # A joint's values are exact products of its factors' +-1 (see tensor).
        assert all(abs(row[3]) == 1.0 for row in rows)
        refuse_events(monkeypatch)
        chsh_experiment(25, 2, "product")

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32), trials=st.integers(1, 3000))
    def test_branch_counts_equal_mean_of_trial_values(self, seed, trials):
        # A correlator is tallied from branch counts; it equals the mean of
        # the per-trial values bit for bit, and so does its CSV value column.
        report = chsh_experiment(trials, seed, "product")
        blocks = Blocks()
        kept = chsh_experiment(trials, seed, "product", sink=blocks)
        rows = _csv_rows(blocks)
        for k, (key, *_, joint, _) in enumerate(_chsh_settings()):
            cs = model.draw_hidden_batch(substream(seed, _CHSH_PRODUCT_TAG, k), trials)
            mean = model.predict_batch(joint, bell_state(), cs).mean()
            assert report.correlators[key] == mean
            column = [float(value) for _, label, _, value in rows if label == key]
            assert np.mean(column) == kept.as_dict()["correlators"][key] == mean

    def test_sequential_rows_record_both_halves(self, monkeypatch):
        blocks = Blocks()
        chsh_experiment(5, 2, "sequential", sink=blocks)
        rows = rows_of(blocks)
        assert len(rows) == 2 * 4 * 5
        assert rows[0][1] == "ZW/ZI"
        assert rows[1][1] == "ZW/IW"
        assert blocks.labels == ("ZW/ZI", "ZW/IW", "ZV/ZI", "ZV/IV",
                                        "XW/XI", "XW/IW", "XV/XI", "XV/IV")
        refuse_events(monkeypatch)
        chsh_experiment(5, 2, "sequential")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            chsh_experiment(10, 0, "parallel")

    def test_dict_keys(self):
        payload = chsh_experiment(100, 0, "product").as_dict()
        assert list(payload) == [
            "mode", "trials_per_setting", "correlators", "s_value",
            "classical_bound", "exceeds_classical",
        ]


class TestLineProduct:
    def test_third_column_forced_to_minus_one(self):
        report = column_product_experiment(trials=20, seed=0)
        assert report.axis == "column"
        assert report.index == 3
        assert report.forced_value == -1
        assert report.cases == 120
        assert report.passes == 120
        assert report.failures == 0
        assert report.all_passed

    def test_rows_forced_to_plus_one(self):
        report = column_product_experiment(trials=10, seed=1, axis="row", index=3)
        assert report.forced_value == 1
        assert report.all_passed

    def test_event_rows(self, monkeypatch):
        blocks = Blocks()
        report = column_product_experiment(trials=2, seed=0, sink=blocks)
        rows = rows_of(blocks)
        assert len(rows) == 3 * report.cases
        labels = {row[1] for row in rows}
        assert labels == {"column3:XX", "column3:YY", "column3:ZZ"}
        refuse_events(monkeypatch)
        assert column_product_experiment(trials=2, seed=0).all_passed

    def test_validation(self):
        with pytest.raises(ValueError):
            column_product_experiment(trials=0)
        with pytest.raises(ValueError):
            column_product_experiment(axis="diagonal")

    def test_failing_cases_are_counted(self):
        # The counts a report derives from trials, permutation_count and passes.
        report = LineProductReport(axis="column", index=3, forced_value=-1, trials=2,
                                   permutation_count=6, passes=9)
        assert (report.cases, report.passes, report.failures) == (12, 9, 3)
        assert report.all_passed is False
        payload = report.as_dict()
        assert list(payload) == list(column_product_experiment(trials=2).as_dict())
        assert (payload["cases"], payload["failures"], payload["all_passed"]) == (12, 3, False)
        with pytest.raises(TypeError):
            LineProductReport("column", 3, -1, 2, 6, 9)  # fields are keyword-only

    def test_dict_keys(self):
        payload = column_product_experiment(trials=2).as_dict()
        assert list(payload) == [
            "axis", "index", "forced_value", "trials", "permutation_count",
            "cases", "passes", "failures", "all_passed",
        ]


def _chain(ops, state, slot):
    """(c, value) of each event when chained measure() runs `ops` from
    HiddenState(state, slot[0]) with slot[1:] as the re-arm draws."""
    hidden = HiddenState(state, slot[0])
    script = ScriptedUniforms(list(slot[1:]) + [0.5] * (len(ops) + 1 - len(slot)))
    events = []
    for op in ops:
        record, hidden = measure(op, hidden, script)
        events.append((record.c_used, record.value))
    return events


def _case_c_value(row):
    case, _, c, value = row
    return case, c, value


class TestSingleShotTrialsReplayFromTheirKeys:
    """born trial t reads the width-1 slot (seed, 1, t), and product-chsh
    trial t of setting k the slot (seed, 3, k, t). Replayed alone, a slot
    gives its CSV row's c, and scalar predict at that c the row's value."""

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32), theta=st.floats(0.01, 3.13), data=st.data())
    def test_born(self, seed, theta, data):
        trials = data.draw(st.integers(1, 300), label="trials")
        state = spin_state(theta)
        blocks = Blocks()
        born_experiment(state, pauli("z"), trials, seed, 5.0, sink=blocks)
        rows = _csv_rows(blocks)
        for t in data.draw(st.lists(st.integers(0, trials - 1), min_size=1, max_size=5),
                           label="replayed"):
            (c,) = case_slot((seed, _BORN_TAG, t), 1)
            trial, label, row_c, value = rows[t]
            assert (int(trial), label, float(row_c)) == (t, "Z", c)
            assert float(value) == predict(pauli("z"), HiddenState(state, c))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32), data=st.data())
    def test_product_chsh(self, seed, data):
        trials = data.draw(st.integers(1, 300), label="trials")
        blocks = Blocks()
        chsh_experiment(trials, seed, "product", sink=blocks)
        rows = _csv_rows(blocks)
        for k, t in data.draw(st.lists(st.tuples(st.integers(0, 3),
                                                 st.integers(0, trials - 1)),
                                       min_size=1, max_size=5), label="replayed"):
            key, *_, joint, _ = _chsh_settings()[k]
            (c,) = case_slot((seed, _CHSH_PRODUCT_TAG, k, t), 1)
            trial, label, row_c, value = rows[k * trials + t]
            assert (int(trial), label, float(row_c)) == (t, key, c)
            assert float(value) == predict(joint, HiddenState(bell_state(), c))


def test_stream_tags_are_distinct():
    # Every driver's streams hang off substream(seed, tag, ...), so two
    # drivers sharing a tag would read the same draws. All six live here.
    tags = {name: tag for name, tag in vars(experiments).items() if name.endswith("_TAG")}
    assert sorted(tags) == ["_BORN_TAG", "_CHSH_PRODUCT_TAG", "_CHSH_SEQUENTIAL_TAG",
                            "_LINE_PRODUCT_TAG", "_SWEEP_TAG", "_WEAK_FC_TAG"]
    assert len(set(tags.values())) == len(tags)


# Trial counts at and around multiples of a tally block of 7 draws.
BLOCK_EDGE_TRIALS = (1, 6, 7, 8, 13, 14, 15, 21, 22)


def _opened_streams(monkeypatch) -> dict:
    """Record each stream the experiments open, by its key, as it is opened."""
    opened = {}

    def recording(*key):
        opened[key] = substream(*key)
        return opened[key]

    monkeypatch.setattr(experiments, "substream", recording)
    return opened


class TestTallyAtBlockBoundaries:
    """Tallied in blocks of 7 draws, a single-shot run counts what np.bincount
    of branch_indices counts on its whole stream read at once, reads exactly
    one draw per trial, and writes CSV rows that replay from their keys."""

    @pytest.fixture(autouse=True)
    def tally_block(self, monkeypatch):
        monkeypatch.setattr(model, "TALLY_BLOCK", 7)

    @pytest.mark.parametrize("with_sink", [False, True])
    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    def test_born(self, monkeypatch, trials, with_sink):
        seed, state, obs = 4, spin_state(0.7), pauli("z")
        opened = _opened_streams(monkeypatch)
        blocks = Blocks()
        report = born_experiment(state, obs, trials, seed, 5.0,
                                 sink=blocks if with_sink else None)
        reference = substream(seed, _BORN_TAG)
        cs = model.draw_hidden_batch(reference, trials)
        counts = np.bincount(branch_indices(obs, state, cs), minlength=2)
        assert list(report.outcome_frequencies.values()) == list(counts / trials)
        assert opened[(seed, _BORN_TAG)].random() == reference.random()
        assert len(blocks) == (-(-trials // 7) if with_sink else 0)
        if with_sink:
            rows = _csv_rows(blocks)
            assert len(rows) == trials
            for t, (trial, label, c, value) in enumerate(rows):
                (want,) = case_slot((seed, _BORN_TAG, t), 1)
                assert (int(trial), label, float(c)) == (t, "Z", want)
                assert float(value) == predict(obs, HiddenState(state, want))

    @pytest.mark.parametrize("with_sink", [False, True])
    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    def test_product_chsh(self, monkeypatch, trials, with_sink):
        seed = 6
        opened = _opened_streams(monkeypatch)
        blocks = Blocks()
        report = chsh_experiment(trials, seed, "product",
                                 sink=blocks if with_sink else None)
        rows = _csv_rows(blocks)
        assert len(blocks) == (4 * -(-trials // 7) if with_sink else 0)
        for k, (key, *_, joint, _) in enumerate(_chsh_settings()):
            reference = substream(seed, _CHSH_PRODUCT_TAG, k)
            cs = model.draw_hidden_batch(reference, trials)
            counts = np.bincount(branch_indices(joint, bell_state(), cs), minlength=2)
            assert report.correlators[key] == float(joint.spectrum().values @ counts) / trials
            assert opened[(seed, _CHSH_PRODUCT_TAG, k)].random() == reference.random()
            if with_sink:
                for t in range(trials):
                    (want,) = case_slot((seed, _CHSH_PRODUCT_TAG, k, t), 1)
                    trial, label, c, value = rows[k * trials + t]
                    assert (int(trial), label, float(c)) == (t, key, want)
                    assert float(value) == predict(joint, HiddenState(bell_state(), want))


def _traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [
    lambda trials: born_experiment(spin_state(0.8), pauli("z"), 4 * trials, 0, 5.0),
    lambda trials: chsh_experiment(trials, 0, "product"),
], ids=["born", "chsh"])
def test_single_shot_memory_stays_flat_in_trials(run):
    # Tallied as they are drawn, 4M born trials and 4 x 1M chsh trials hold
    # a few blocks of draws at a time, where one array of them would take 32 MB.
    run(1)  # build the cached settings and decompositions first
    block_bytes = model.TALLY_BLOCK * np.dtype(float).itemsize
    assert _traced_peak(lambda: run(1_000_000)) < 4 * block_bytes


def _csv_rows(blocks):
    """The data rows of blocks of events, as the CSV report writes them, as strings."""
    return list(csv.reader(io.StringIO("".join(
        rows for events in blocks for rows in events.csv_rows()))))


@pytest.fixture(params=[None, 7], ids=["one-block", "blocks-of-7"])
def sweep_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(model, "SWEEP_BLOCK", request.param)


@pytest.mark.usefixtures("sweep_block")
class TestSweepsReplayOnTheScalarPath:
    """Every case of a sequential sweep equals chained measure() on the slot
    replayed from its key with one advance, in one block or in many."""

    def test_chsh_sequential(self):
        seed, trials = 5, 40
        blocks = Blocks()
        report = chsh_experiment(trials, seed, "sequential", sink=blocks)
        rows = iter(rows_of(blocks))
        for k, (key, a, b, *_) in enumerate(_chsh_settings()):
            ops = (tensor(a, identity(2)), tensor(identity(2), b))
            total = 0.0
            for t in range(trials):
                events = _chain(ops, bell_state(), case_slot(
                    (seed, _CHSH_SEQUENTIAL_TAG, k, t), 2))
                assert [_case_c_value(next(rows)) for _ in ops] == [(t, c, v) for c, v in events]
                total += events[0][1] * events[1][1]
            assert report.correlators[key] == total / trials

    @pytest.mark.parametrize("axis, index", [("column", 3), ("row", 2)])
    def test_column_product(self, axis, index):
        blocks = Blocks()
        report = column_product_experiment(trials=4, seed=9, axis=axis, index=index,
                                           sink=blocks)
        square = peres_mermin()
        ops = square.column_operators(index) if axis == "column" else square.row_operators(index)
        permutations = list(itertools.permutations(range(3)))
        rows = iter(rows_of(blocks))
        passes = 0
        for case in range(report.cases):
            slot = case_slot((9, _LINE_PRODUCT_TAG, case), LINE_SLOT_WIDTH)
            start = PureState(haar_amplitudes(slot[:8]))
            events = _chain([ops[k] for k in permutations[case % 6]], start, slot[8:])
            assert [_case_c_value(next(rows)) for _ in ops] == [(case, c, v) for c, v in events]
            passes += abs(math.prod(v for _, v in events) - report.forced_value) <= 1e-9
        assert passes == report.passes == report.cases

    def test_weak_fc(self, monkeypatch):
        # A + 2B = 5I: every state qualifies and the readings are random. The
        # sum is the same in either order, but the readings are not (from
        # (|0> + |1>)/sqrt2 with c <= 1/2, A first reads A=1, B first B=1), so
        # the sweep's per-leaf readings are recorded and compared too.
        a = HermitianOperator(np.diag([1.0, 3.0]), "A")
        b = HermitianOperator(np.diag([2.0, 1.0]), "B")
        f = ObservableExpression(Sum(Leaf(a), Scale(2.0, Leaf(b))))
        state = normalized([1.0, 1.0])
        swept = []
        eval_real_block = consistency.eval_real_block
        assert f.operators == (a, b)  # the block's columns, in this order
        monkeypatch.setattr(consistency, "eval_real_block", lambda f, readings: (
            swept.extend(readings.tolist()), eval_real_block(f, readings))[1])
        blocks = Blocks()
        verify_proposition(f, state, trials=15, key=(4, 6), sink=blocks)
        readings = set()
        for (case, _, c, rhs), leaf_readings in zip(rows_of(blocks), swept,
                                                    strict=True):
            key = (4, 6, case)
            slot = case_slot(key, 3)
            permutation = [(0, 1), (1, 0)][case % 2]
            report = check_weak_fc(f, HiddenState(state, slot[0]), permutation,
                                   ScriptedUniforms(slot[1:]), key=key)
            assert (report.details["initial_c"], report.rhs_value) == (c, rhs)
            assert report.details["key"] == [4, 6, case]
            replayed = {step["label"]: step["value"] for step in report.details["steps"]}
            assert leaf_readings == [replayed["A"], replayed["B"]]
            readings.add((permutation[0], report.details["steps"][0]["value"]))
        assert len(readings) == 4


class TestBoxMullerStartStates:
    def test_unit_norm_and_haar_mean(self):
        n = 20_000
        slots = model.draw_hidden_batch(substream(0, _LINE_PRODUCT_TAG), n * 8)
        amps = haar_amplitudes(slots.reshape(n, 8))
        assert amps.shape == (n, 4)
        np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, rtol=0, atol=1e-12)
        # |<0|psi>|^2 of a Haar state in dimension 4 is Beta(1, 3): mean 1/4,
        # variance 3/80.
        p0 = np.abs(amps[:, 0]) ** 2
        assert abs(p0.mean() - 0.25) <= 5.0 * math.sqrt(3.0 / 80.0 / n)
        # Its second moment is 1/10 (fourth moment 1/35), which a state with
        # Gaussian phases but flat moduli would miss.
        assert abs((p0**2).mean() - 0.1) <= 5.0 * math.sqrt((1 / 35 - 0.01) / n)
