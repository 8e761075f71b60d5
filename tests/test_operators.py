"""Unit tests for the operator algebra layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvsim.errors import (DimensionMismatchError, EigensolverError, InvalidArgumentError,
                          InvalidIndexError, NonHermitianError)
from hvsim.experiments import _chsh_settings
from hvsim.expressions import peres_mermin
from hvsim.operators import (
    COMMUTE_TOL,
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    amplitude_pairs,
    as_state,
    basis_ket,
    commutator_norm,
    commuting_family,
    haar_state,
    identity,
    identity_scalar,
    normalized,
    operators_equal,
    pauli,
    phase_distance,
    random_hermitian,
    random_unitary,
    spectral,
    tensor,
)

# Frozen single-qubit matrices; the oracle the pauli() constructor is held to.
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadruple-loop Kronecker product, independent of np.kron."""
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    out[i * m + k, j * m + l] = a[i, j] * b[k, l]
    return out


class TestStates:
    def test_state_amplitudes_basics(self):
        state = normalized([1, 1j])
        assert state.dim == 2
        assert state.amplitudes.dtype == complex
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    # A refused state raises InvalidArgumentError naming `amplitudes`, a
    # ValueError still.
    def test_state_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError) as refused:
            PureState([])
        assert refused.value.argument == "amplitudes"
        with pytest.raises(ValueError) as refused:
            PureState([[1, 0], [0, 1]])
        assert refused.value.argument == "amplitudes"

    def test_pure_state_requires_unit_norm(self):
        PureState([1.0, 0.0])
        with pytest.raises(ValueError) as refused:
            PureState([1.0, 1.0])
        assert refused.value.argument == "amplitudes"
        with pytest.raises(ValueError) as refused:
            PureState([0.5, 0.5])
        assert refused.value.argument == "amplitudes"

    def test_state_copies_its_amplitudes(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        state = PureState(amps)
        amps[0] = 0.0
        assert state.amplitudes.tolist() == [1.0, 0.0]
        assert amps.flags.writeable

    def test_normalized_scales(self):
        state = normalized([3.0, 4.0])
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8])
        with pytest.raises(ValueError) as refused:
            normalized([0.0, 0.0])
        assert refused.value.argument == "amplitudes"

    def test_basis_ket(self):
        state = basis_ket(4, 1)
        np.testing.assert_array_equal(state.amplitudes, [0, 1, 0, 0])
        with pytest.raises(IndexError) as refused:
            basis_ket(4, 4)
        assert isinstance(refused.value, InvalidIndexError)
        with pytest.raises(IndexError):
            basis_ket(4, -1)
        for index in (-5, 2**70):  # any integer out of range, however far
            with pytest.raises(IndexError) as refused:
                basis_ket(4, index)
            assert isinstance(refused.value, InvalidIndexError)
            assert refused.value.argument == "index"
        np.testing.assert_array_equal(basis_ket(np.int64(3), np.int8(2)).amplitudes, [0, 0, 1])
        with pytest.raises(ValueError):
            basis_ket(0, 0)

    @pytest.mark.parametrize("dim, index", [(2, True), (2, False), (2, 1.0), (2.0, 1),
                                            (True, 0), (2, np.nan), (2, "1")])
    def test_basis_ket_takes_whole_numbers(self, dim, index):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            basis_ket(dim, index)

    def test_as_state_coerces_once(self):
        state = basis_ket(2, 1)
        assert as_state(state) is state
        assert as_state([0.0, 1.0]).amplitudes.tolist() == state.amplitudes.tolist()
        for bad in ([[1.0, 0.0]], [], [0.5, 0.5]):  # not a 1-d unit vector
            with pytest.raises(ValueError) as refused:
                as_state(bad)
            assert isinstance(refused.value, InvalidArgumentError)


# Each function that takes a dimension, called with it and a fresh generator.
DIMENSIONED = {
    "identity": lambda dim: identity(dim),
    "haar_state": lambda dim: haar_state(dim, np.random.default_rng(0)),
    "random_hermitian": lambda dim: random_hermitian(dim, np.random.default_rng(0)),
    "random_unitary": lambda dim: random_unitary(dim, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", DIMENSIONED)
@pytest.mark.parametrize("dim", [True, 2.0, 2.5, np.nan, 0, -1, "2"])
def test_dimensions_are_whole_numbers(name, dim):
    with pytest.raises(InvalidArgumentError) as info:
        DIMENSIONED[name](dim)
    assert info.value.argument == "dim"
    assert DIMENSIONED[name](np.int64(3)) is not None


def test_commuting_family_takes_a_table_of_whole_shape():
    rng = np.random.default_rng(0)
    for spectra, argument in (([[]], "dim"), (np.zeros((0, 3)), "operator count"),
                              (np.zeros((2, 2, 2)), "spectra")):
        with pytest.raises(InvalidArgumentError) as info:
            commuting_family(spectra, rng)
        assert info.value.argument == argument


class TestHermitianOperator:
    def test_valid_construction(self):
        op = HermitianOperator([[0, 1j], [-1j, 2]], "A")
        assert op.dim == 2
        assert op.label == "A"
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            HermitianOperator([[0, 1], [2, 0]])

    def test_rejects_non_square_and_nonfinite(self):
        with pytest.raises(ValueError) as refused:
            HermitianOperator([[1, 0, 0], [0, 1, 0]])
        assert refused.value.argument == "matrix"
        with pytest.raises(ValueError) as refused:
            HermitianOperator([[np.nan, 0], [0, 1]])
        assert refused.value.argument == "matrix"

    def test_expectation(self):
        assert pauli("z").expectation(basis_ket(2, 0)) == pytest.approx(1.0)
        assert pauli("z").expectation(basis_ket(2, 1)) == pytest.approx(-1.0)

    def test_expectation_reads_any_state_of_its_dimension(self):
        assert pauli("z").expectation([0.0, 1.0]) == -1.0
        for state in (basis_ket(4, 0), [1.0, 0.0, 0.0], np.ones((2, 2)) / 2):
            with pytest.raises(DimensionMismatchError, match="does not match dimension 2"):
                pauli("z").expectation(state)

    def test_spectrum_is_cached(self):
        op = pauli("z")
        assert op.spectrum() is op.spectrum()


class TestPauliAndTensor:
    def test_pauli_matrices_match_oracle(self):
        np.testing.assert_array_equal(pauli("x").matrix, X_MATRIX)
        np.testing.assert_array_equal(pauli("y").matrix, Y_MATRIX)
        np.testing.assert_array_equal(pauli("z").matrix, Z_MATRIX)
        assert pauli("X").label == "X"
        with pytest.raises(ValueError) as refused:
            pauli("w")
        assert refused.value.argument == "axis"

    def test_pauli_algebra(self):
        for axis in "xyz":
            op = pauli(axis)
            np.testing.assert_allclose(op.matrix @ op.matrix, np.eye(2), atol=1e-15)
            assert abs(np.trace(op.matrix)) < 1e-15

    def test_identity(self):
        op = identity(3)
        np.testing.assert_array_equal(op.matrix, np.eye(3))
        assert op.label == "I"

    def test_tensor_matches_oracle_on_paulis(self):
        for a in "xyz":
            for b in "xyz":
                got = tensor(pauli(a), pauli(b)).matrix
                want = kron_oracle(_PAULIS[a], _PAULIS[b])
                np.testing.assert_array_equal(got, want)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_tensor_matches_oracle_on_random(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(int(rng.integers(2, 4)), rng)
        b = random_hermitian(int(rng.integers(2, 4)), rng)
        np.testing.assert_allclose(
            tensor(a, b).matrix, kron_oracle(a.matrix, b.matrix), atol=1e-12
        )

    def test_tensor_flips_bell_state_sign(self):
        # YY acting on (|00> + |11>)/sqrt2 gives the opposite state: the
        # frozen matrix makes the sign arithmetic visible.
        yy_oracle = np.array(
            [
                [0, 0, 0, -1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [-1, 0, 0, 0],
            ],
            dtype=complex,
        )
        yy = tensor(pauli("y"), pauli("y"))
        np.testing.assert_array_equal(yy.matrix, yy_oracle)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(yy.matrix @ bell, -bell, atol=1e-15)

    def test_tensor_basis_ordering(self):
        # First factor owns the slow index: |0>(x)|1> sits at position 1.
        ket01 = np.kron(basis_ket(2, 0).amplitudes, basis_ket(2, 1).amplitudes)
        np.testing.assert_array_equal(ket01, basis_ket(4, 1).amplitudes)


_PAULIS = {"x": X_MATRIX, "y": Y_MATRIX, "z": Z_MATRIX}


def _projector(decomp, i):
    """Branch i's eigenprojector V_i V_i^H, from its block of eigenvector columns."""
    block = decomp.vectors[:, decomp.offsets[i]:decomp.offsets[i + 1]]
    return block @ block.conj().T


def _assert_exact_product_values(op, a, b):
    """op = tensor(a, b) decomposes over eigh's eigenvectors and groups, each
    branch value a product of factor values within the degeneracy tolerance
    of eigh's grouped mean, and reconstructs a (x) b."""
    decomp, eigh_means = op.spectrum(), spectral(op)
    products = np.multiply.outer(a.spectrum().values, b.spectrum().values).ravel()
    assert set(decomp.values.tolist()) <= set(products.tolist())
    assert np.all(np.abs(decomp.values - eigh_means.values) <= decomp.degeneracy_tol)
    np.testing.assert_array_equal(decomp.vectors, eigh_means.vectors)
    np.testing.assert_array_equal(decomp.offsets, eigh_means.offsets)
    assert np.max(np.abs(decomp.reconstruct() - np.kron(a.matrix, b.matrix))) <= 1e-12


# Factor spectra drawn from these values; repeats make degenerate factors.
FACTOR_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 1.5, 3.0)


class TestExactTensorValues:
    def test_chsh_joints_and_their_factors(self):
        one = identity(2)
        for _, a, b, _, joint, (a_one, one_b) in _chsh_settings():
            for op, left, right in ((joint, a, b), (a_one, a, one), (one_b, one, b)):
                _assert_exact_product_values(op, left, right)
                assert np.all(np.abs(op.spectrum().values) == 1.0)

    def test_square_operators(self):
        factors = {"I": identity(2), "X": pauli("x"), "Y": pauli("y"), "Z": pauli("z")}
        for row in peres_mermin().grid:
            for op in row:
                _assert_exact_product_values(op, factors[op.label[0]], factors[op.label[1]])

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000),
           spectra=st.tuples(*[st.lists(st.sampled_from(FACTOR_VALUES), min_size=1,
                                        max_size=3)] * 2))
    def test_random_commuting_family_factors(self, seed, spectra):
        rng = np.random.default_rng(seed)
        a, b = (commuting_family([row], rng)[0] for row in spectra)
        _assert_exact_product_values(tensor(a, b), a, b)

    def test_value_with_no_product_in_tolerance_keeps_eigh_mean(self):
        # a's three eigenvalues chain into one branch at 0.9e-9, so a (x) b's
        # branches at 0 and 3.6e-6 lie 0.9e-6 and 1.8e-6 from the nearest
        # product of factor values; they keep eigh's grouped mean.
        a = HermitianOperator(np.diag([0.0, 0.9e-9, 1.8e-9]))
        b = HermitianOperator(np.diag([1000.0, 2000.0]))
        op = tensor(a, b)
        values, means = op.spectrum().values, spectral(op).values
        np.testing.assert_array_equal(values[[0, 3]], means[[0, 3]])
        np.testing.assert_array_equal(values[1:3], a.spectrum().values * [1000.0, 2000.0])


class TestCommutation:
    def test_pauli_pairs_do_not_commute(self):
        # [X, Z] = -2iY, whose Frobenius norm is 2*sqrt(2).
        assert commutator_norm(pauli("x"), pauli("z")) > COMMUTE_TOL
        assert commutator_norm(pauli("x"), pauli("z")) == pytest.approx(
            2.0 * np.sqrt(2.0)
        )

    def test_commuting_tensor_pairs(self):
        ix = tensor(identity(2), pauli("x"))
        xi = tensor(pauli("x"), identity(2))
        assert commutator_norm(ix, xi) <= COMMUTE_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(pauli("x"), identity(4))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_symmetric_and_reflexive(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        assert commutator_norm(a, a) <= COMMUTE_TOL
        assert (commutator_norm(a, b) <= COMMUTE_TOL) == (commutator_norm(b, a) <= COMMUTE_TOL)


class TestOperatorsEqual:
    def test_labels_are_ignored(self):
        a = HermitianOperator(np.eye(2), "same")
        b = HermitianOperator(np.diag([1.0, -1.0]), "same")
        assert not operators_equal(a, b)
        assert operators_equal(a, HermitianOperator(np.eye(2), "other"))
        assert not operators_equal(pauli("z"), HermitianOperator(pauli("x").matrix, "Z"))

    def test_matrix_fallback_when_unlabeled(self):
        a = HermitianOperator(np.eye(2))
        b = HermitianOperator(np.eye(2) + 1e-12)
        c = HermitianOperator(np.diag([1.0, -1.0]))
        assert operators_equal(a, b)
        assert not operators_equal(a, c)
        assert not operators_equal(a, HermitianOperator(np.eye(3)))


class TestSpectral:
    def test_nondegenerate_diagonal(self):
        decomp = spectral(HermitianOperator(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_array_equal(decomp.values, [1.0, 2.0, 3.0])
        for value, index in ((1.0, 1), (2.0, 2), (3.0, 0)):
            want = np.zeros((3, 3))
            want[index, index] = 1.0
            np.testing.assert_allclose(_projector(decomp, decomp.branch_index(value)), want,
                                       atol=1e-12)

    def test_degenerate_tensor_projectors_match_oracle(self):
        # I(x)X has eigenvalues -1, +1, both rank 2. The projectors are
        # I (x) (I -+ X)/2; frozen here as literal matrices.
        p_minus = kron_oracle(np.eye(2, dtype=complex),
                              (np.eye(2) - X_MATRIX) / 2)
        p_plus = kron_oracle(np.eye(2, dtype=complex),
                             (np.eye(2) + X_MATRIX) / 2)
        decomp = spectral(tensor(identity(2), pauli("x")))
        np.testing.assert_array_equal(decomp.values, [-1.0, 1.0])
        np.testing.assert_allclose(_projector(decomp, 0), p_minus, atol=1e-12)
        np.testing.assert_allclose(_projector(decomp, 1), p_plus, atol=1e-12)

    def test_near_degenerate_grouping(self):
        gap = 1e-12
        decomp = spectral(HermitianOperator(np.diag([0.0, gap, 1.0])))
        np.testing.assert_allclose(decomp.values, [gap / 2, 1.0])
        assert np.trace(_projector(decomp, 0)).real == pytest.approx(2.0)

    def test_custom_tolerance_splits_finer(self):
        op = HermitianOperator(np.diag([0.0, 1e-12, 1.0]))
        decomp = spectral(op, degeneracy_tol=1e-15)
        assert len(decomp.values) == 3
        assert len(spectral(op, 0.0).values) == 3 and len(spectral(op, 10).values) == 1

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -0.5e-300, float("inf"), True])
    def test_tolerance_is_finite_and_not_negative(self, tol):
        # nan or inf would merge Z's branches into one valued 0.0, no
        # eigenvalue of Z; -1 would split a degenerate eigenspace.
        with pytest.raises(InvalidArgumentError) as info:
            spectral(pauli("z"), tol)
        assert info.value.argument == "degeneracy_tol"

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 16))
    def test_reconstruction(self, seed, dim):
        rng = np.random.default_rng(seed)
        op = random_hermitian(dim, rng)
        decomp = spectral(op)
        np.testing.assert_allclose(decomp.reconstruct(), op.matrix, atol=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_projector_invariant_under_eigenbasis_rotation(self, seed):
        # Rotating the orthonormal basis inside a degenerate eigenspace must
        # leave the branch projector unchanged.
        rng = np.random.default_rng(seed)
        basis = random_unitary(4, rng)
        m = basis @ np.diag([1.0, 1.0, 1.0, 2.0]) @ basis.conj().T
        op = HermitianOperator((m + m.conj().T) / 2)
        projector = _projector(spectral(op), 0)
        assert np.trace(projector).real == pytest.approx(3.0)
        vals, vecs = np.linalg.eigh(projector)
        block = vecs[:, vals > 0.5]
        rotation = random_unitary(block.shape[1], rng)
        rotated = block @ rotation
        rebuilt = rotated @ rotated.conj().T
        assert np.linalg.norm(projector - rebuilt) <= 1e-9

    def test_weights_on_plus_state(self):
        plus = normalized([1.0, 1.0])
        weights = spectral(pauli("z")).weights(plus)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_weights_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            spectral(pauli("z")).weights(basis_ket(4, 0))

    def test_constructor_copies_its_inputs(self):
        # The caller's arrays stay writable, and lists build the same thing.
        d = spectral(HermitianOperator(np.diag([2.0, -1.0, 2.0])))
        values, vectors, offsets = d.values.copy(), d.vectors.copy(), d.offsets.copy()
        built = SpectralDecomposition(values, vectors, offsets, d.degeneracy_tol, "D")
        values[0], vectors[0, 0], offsets[0] = 5.0, 2.0, 1
        from_lists = SpectralDecomposition(d.values.tolist(), d.vectors.tolist(),
                                           d.offsets.tolist(), d.degeneracy_tol, "D")
        for decomp in (built, from_lists):
            for name in ("values", "vectors", "offsets", "block_of_column"):
                np.testing.assert_array_equal(getattr(decomp, name), getattr(d, name))
                assert getattr(decomp, name).dtype == getattr(d, name).dtype
                assert not getattr(decomp, name).flags.writeable
            assert decomp.label == "D" and decomp.degeneracy_tol == d.degeneracy_tol

    def test_eigensolver_failure_is_wrapped(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(EigensolverError):
            spectral(pauli("z"))


class TestScalarAndPhase:
    def test_identity_scalar(self):
        assert identity_scalar(2.5 * np.eye(3)) == pytest.approx(2.5)
        with pytest.raises(ValueError) as refused:
            identity_scalar(np.diag([1.0, 2.0]))
        assert refused.value.argument == "matrix"

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.floats(0.0, 2 * np.pi))
    def test_phase_distance_ignores_global_phase(self, seed, angle):
        rng = np.random.default_rng(seed)
        state = haar_state(4, rng)
        rotated = PureState(np.exp(1j * angle) * state.amplitudes)
        assert phase_distance(state, rotated) <= 1e-7

    def test_phase_distance_separates_orthogonal(self):
        assert phase_distance(basis_ket(2, 0), basis_ket(2, 1)) == pytest.approx(
            np.sqrt(2.0)
        )


class TestRandomEnsembles:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_random_unitary_is_unitary(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(5, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_haar_state_normalized(self, seed):
        rng = np.random.default_rng(seed)
        state = haar_state(6, rng)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_commuting_family_commutes(self, seed):
        rng = np.random.default_rng(seed)
        ops = commuting_family([[1, 2, 3], [-1, 0, 1], [5, 5, 2]], rng)
        assert len(ops) == 3
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                assert commutator_norm(a, b) <= 1e-10


def test_amplitude_pairs_round_trip():
    amps = np.array([0.5 + 0.5j, -0.5, 0.0, 0.5j])
    pairs = amplitude_pairs(amps)
    assert pairs[0] == [0.5, 0.5]
    np.testing.assert_array_equal([complex(re, im) for re, im in pairs], amps)


def test_amplitude_pairs_equal_the_per_element_floats():
    # One tolist of the float view gives each part's bits, signed zeros
    # included, for contiguous, strided, reversed and real inputs alike.
    amps = np.array([0.5 - 0.0j, complex(-0.0, 1.0), complex(5e-324, -0.0), -0.0j - 0.0,
                     np.sqrt(0.5) + 1e-17j, complex(-1.0, np.pi), 0.1 + 0.2j, -2.0**-60])
    for given in (amps, amps[::2], amps[::-3], list(amps), amps.real, amps.reshape(2, 4)[:, 1]):
        want = [[float(z.real), float(z.imag)] for z in np.asarray(given, dtype=complex)]
        got = amplitude_pairs(given)
        assert [[part.hex() for part in pair] for pair in got] == \
            [[part.hex() for part in pair] for pair in want]
        assert all(type(part) is float for pair in got for part in pair)
