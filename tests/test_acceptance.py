"""Acceptance gate: the ten headline claims, one test and verdict line each.

Every test wraps its body in `criterion`, which appends a PASS/FAIL line to
the terminal summary (see conftest) and enforces the stated runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from hvsim import (
    HermitianOperator,
    HiddenState,
    Leaf,
    NotAnEigenstateError,
    ObservableExpression,
    Product,
    PureState,
    Scale,
    Sum,
    basis_ket,
    bell_state,
    born_experiment,
    born_scenario_sweep,
    check_strong_fc,
    chsh_experiment,
    commutator_norm,
    commuting_family,
    haar_state,
    measure,
    no_go_search,
    normalized,
    pauli,
    peres_mermin,
    phase_distance,
    random_hermitian,
    random_unitary,
    replay_table1,
    spin_state,
    tensor,
    verify_proposition,
)


def _emit(line: str) -> None:
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:g}s budget"
            )
    except BaseException:
        _emit(f"[criterion {number:2d}] FAIL  {description}")
        raise
    _emit(f"[criterion {number:2d}] PASS  {description} ({elapsed:.2f}s)")


def column3_expression():
    square = peres_mermin()
    return square.column_expression(3)


def test_criterion_01_reference_replay():
    with criterion(1, "scripted three-step run replays the frozen reference",
                   budget=1.0):
        report = replay_table1()  # raises on the first mismatching entry
        assert len(report.iterations) == 3
        records = [it.record for it in report.iterations]
        assert [r.c_used for r in records] == [0.4, 0.1, 0.7]
        assert [r.observable_label for r in records] == ["ZZ", "YY", "XX"]
        assert [r.value for r in records] == [1.0, -1.0, 1.0]
        grids = [it.grid for it in report.iterations]
        assert grids[0] == grids[1] == ((-1, -1, -1), (-1, -1, -1), (-1, -1, 1))
        assert grids[2] == ((1, 1, 1), (1, 1, -1), (1, 1, 1))
        for it in report.iterations:
            assert it.row_values == (1, 1, 1)
            assert it.col_values == (1, 1, -1)
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        finals = [r.post_state for r in records]
        assert phase_distance(finals[0], ket00) <= 1e-9
        assert phase_distance(finals[1], bell) <= 1e-9
        assert phase_distance(finals[2], bell) <= 1e-9


def test_criterion_02_square_identities():
    with criterion(2, "square line products are scalar and lines commute",
                   budget=1.0):
        square = peres_mermin()
        eye = np.eye(4)
        for op in square.rows:
            assert float(np.linalg.norm(op.matrix - eye)) <= 1e-12
        for op in square.cols[:2]:
            assert float(np.linalg.norm(op.matrix - eye)) <= 1e-12
        assert float(np.linalg.norm(square.cols[2].matrix + eye)) <= 1e-12
        lines = [square.row_operators(i) for i in (1, 2, 3)]
        lines += [square.column_operators(j) for j in (1, 2, 3)]
        for line in lines:
            for i, a in enumerate(line):
                for b in line[i + 1:]:
                    assert commutator_norm(a, b) <= 1e-10


def test_criterion_03_no_global_assignment():
    with criterion(3, "0 of 512 sign assignments satisfy all six constraints",
                   budget=1.0):
        first = no_go_search(peres_mermin())
        second = no_go_search(peres_mermin())
        assert first == second
        assert first.total_assignments == 512
        assert first.satisfying_assignments == 0
        assert first.parity_even_count == 64
        assert first.parity_odd_count == 64


def test_criterion_04_single_state_witness():
    with criterion(4, "product prediction contradicts composed leaf"
                      " predictions at one hidden state"):
        report = check_strong_fc(column3_expression(),
                                 HiddenState(basis_ket(4, 0), 0.4))
        assert report.lhs_value == -1.0
        assert report.rhs_value == 1.0
        assert report.lhs_value != report.rhs_value
        assert not report.holds


def test_criterion_05_sequential_products_forced():
    with criterion(5, "sequential column-3 products equal -1 in all 6000"
                      " cases", budget=10.0):
        blocks = []
        summary = verify_proposition(column3_expression(), basis_ket(4, 0),
                                     trials=1000, key=(0, 51), sink=blocks.append)
        assert summary.permutation_count == 6
        assert summary.cases == 6000
        assert summary.failures == 0
        assert summary.passes == 6000
        values = np.concatenate([events.value for events in blocks])
        assert len(values) == 6000
        assert (np.abs(values + 1.0) <= 1e-9).all()


def test_criterion_06_born_statistics():
    with criterion(6, "outcome frequencies track Born weights at 5 sigma",
                   budget=30.0):
        trials = 100_000
        report = born_experiment(spin_state(math.pi / 3), pauli("z"), trials, 0, 5.0)
        bound = 5.0 * math.sqrt(0.25 * 0.75 / trials)
        assert abs(report.frequency(1.0) - 0.25) <= bound
        assert report.passed
        sweep = born_scenario_sweep(100, 20_000, seed=0)
        assert len(sweep) == 100
        assert sum(r.passed for r in sweep) >= 98


def test_criterion_07_repeatability_and_compatibility():
    with criterion(7, "immediate re-measurement and commuting interleaves"
                      " are stable over 1000 + 1000 cases"):
        rng = np.random.default_rng(20250817)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            op = random_hermitian(dim, rng)
            hidden = HiddenState.draw(haar_state(dim, rng), rng)
            rec1, h1 = measure(op, hidden, rng)
            rec2, _ = measure(op, h1, rng)
            assert rec2.value == rec1.value
            assert phase_distance(rec1.post_state, rec2.post_state) <= 1e-9
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            spectra = rng.integers(-3, 4, size=(2, dim))
            a, b = commuting_family(spectra, rng)
            hidden = HiddenState.draw(haar_state(dim, rng), rng)
            rec_first, h = measure(a, hidden, rng)
            _, h = measure(b, h, rng)
            rec_again, _ = measure(a, h, rng)
            assert rec_again.value == rec_first.value


def test_criterion_08_strong_consistency_on_shared_eigenkets():
    with criterion(8, "strong consistency holds in 500 shared-eigenbasis"
                      " scenarios"):
        rng = np.random.default_rng(8)
        factors = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            basis = random_unitary(dim, rng)

            def from_spectrum(spectrum):
                m = (basis * spectrum) @ basis.conj().T
                return HermitianOperator((m + m.conj().T) / 2.0)

            a = from_spectrum(rng.integers(-3, 4, size=dim).astype(float))
            b = from_spectrum(rng.integers(-3, 4, size=dim).astype(float))
            state = PureState(basis[:, int(rng.integers(dim))])
            s = float(factors[int(rng.integers(len(factors)))])
            shape = int(rng.integers(3))
            if shape == 0:
                root = Scale(s, Sum(Leaf(a), Product(Leaf(a), Leaf(b))))
            elif shape == 1:
                root = Sum(Product(Leaf(a), Leaf(b)), Scale(s, Leaf(b)))
            else:
                root = Sum(Scale(s, Product(Leaf(a), Leaf(a), Leaf(b))), Leaf(a))
            f = ObservableExpression(root)
            hidden = HiddenState(state, float(rng.uniform(0.01, 0.99)))
            assert check_strong_fc(f, hidden).holds


def test_criterion_09_correlation_statistic():
    with criterion(9, "four-setting statistic S sits at the quantum value",
                   budget=60.0):
        report = chsh_experiment(100_000, 0, "product")
        assert abs(report.s_value - 2.0 * math.sqrt(2.0)) <= 0.02
        assert report.s_value > 2.0


def test_criterion_10_proposition_verification():
    with criterion(10, "forced sequential products verified from eigenstates;"
                       " precondition enforced"):
        col = verify_proposition(column3_expression(), basis_ket(4, 0),
                                 trials=500, key=(0, 101, 0))
        assert col.cases == 3000
        assert col.all_passed
        xx = tensor(pauli("x"), pauli("x"), "XX")
        yy = tensor(pauli("y"), pauli("y"), "YY")
        pair = ObservableExpression.of_product(xx, yy)
        pair_summary = verify_proposition(pair, bell_state(), trials=500,
                                          key=(0, 101, 1))
        assert pair_summary.cases == 1000
        assert pair_summary.all_passed
        zz = tensor(pauli("z"), pauli("z"), "ZZ")
        with pytest.raises(NotAnEigenstateError):
            verify_proposition(ObservableExpression.of(zz),
                               normalized([1.0, 1.0, 0.0, 0.0]),
                               trials=1, key=(0, 101, 2))
