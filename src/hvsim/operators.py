"""Dense complex linear algebra for finite-dimensional observables.

States are unit vectors in C^d, observables are Hermitian matrices, and a
spectral decomposition groups near-degenerate eigenvalues into blocks of
eigenvector columns. Everything here is plain numpy; objects are treated as
immutable after construction (arrays are marked read-only).
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import (DimensionMismatchError, EigensolverError, InvalidArgumentError,
                     InvalidIndexError, NonHermitianError)

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
COMMUTE_TOL = 1e-10
EQUALITY_TOL = 1e-10
EIGEN_TOL = 1e-9  # the largest eigen_residual of an eigenvector


def whole(n, name: str, least: int | None = 0) -> int:
    """`n` as an int of at least `least` (None: any int): the one rule for
    seeds, stream paths, case indices, trial counts, permutation entries,
    line indices and basis kets. A bool and anything operator.index refuses
    (a float, 2.0 and nan included, or an array that is not 0-d) are refused."""
    try:
        value = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        value = None
    if value is None or (least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise InvalidArgumentError(name, f"{name} must be an integer{bound}, got {n!r}")
    return value


def real(x, name: str, low: float = -math.inf, high: float = math.inf,
         closed: bool = False) -> float:
    """`x` as a float inside (low, high), or [low, high) if `closed`: the one
    rule for a real argument (hidden scalars, theta, tolerances, outcome
    values). A real number (numbers.Real: Python and numpy ints and floats,
    Fractions) passes; a bool, a string, a complex number or anything else is
    refused, and so are nan and +-inf, which no open bound admits."""
    # float and int first: numbers.Real's own check is the slow one.
    number = not isinstance(x, bool) and isinstance(x, (float, int, numbers.Real))
    try:
        value = float(x) if number else math.nan
    except OverflowError:  # a number beyond the largest float
        value = math.inf
    if not (((low <= value) if closed else (low < value)) and value < high):
        bounds = ("" if (low, high) == (-math.inf, math.inf)
                  else f" in {'[' if closed else '('}{low:g}, {high:g})")
        raise InvalidArgumentError(name, f"{name} must be a finite real number{bounds},"
                                   f" got {x!r}")
    return value


def reals(xs, name: str, low: float = -math.inf, high: float = math.inf) -> np.ndarray:
    """`xs` as a float array whose every entry passes real's rule for (low,
    high): an array of integers or floats whose least and greatest entries
    pass it (a nan is both). A ragged sequence and any other dtype, bool,
    complex and object included, are refused."""
    try:
        arr = np.asarray(xs)
    except ValueError:  # a ragged sequence
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        real(xs if arr is None else arr, name, low, high)  # refuses: no real number
    arr = arr.astype(float, copy=False)
    for end in (float(arr.min()), float(arr.max())) if arr.size else ():
        real(end, name, low, high)
    return arr


def complex_array(values, name: str) -> np.ndarray:
    """`values` as a complex array, a view where it already is one: the one
    numeric conversion, for amplitudes (amplitudes_of), operator matrices and
    scale factors. Integers, reals and complex numbers of one shape pass; a
    string, a bool, None or a ragged sequence is refused."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged sequence
        arr = None
    if arr is None or arr.dtype.kind not in "iufc":
        raise InvalidArgumentError(name, f"{name} must be integer, real or complex numbers"
                                   f" of one shape, got {values!r}")
    return arr.astype(complex, copy=False)


def is_unit(norm):
    """Whether a norm, or each of an array of norms, is 1 within NORM_TOL; nan is not."""
    return abs(norm - 1.0) <= NORM_TOL


def amplitudes_of(state, dim: int | None = None) -> np.ndarray:
    """The amplitudes of `state`, a PureState or a sequence, as a complex
    array (complex_array); given `dim`, the one shape rule, which refuses any
    shape but (dim,)."""
    amps = complex_array(getattr(state, "amplitudes", state), "amplitudes")
    if dim is not None and amps.shape != (dim,):
        raise DimensionMismatchError(f"state of shape {amps.shape} does not match dimension {dim}")
    return amps


class PureState:
    """Unit-norm state vector of a copy of `amplitudes` (amplitudes_of);
    construction rejects unnormalized input."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        arr = amplitudes_of(amplitudes).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidArgumentError("amplitudes", "amplitudes must form a nonempty 1-d"
                                       f" sequence, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if not is_unit(norm):
            raise InvalidArgumentError("amplitudes", f"state norm {norm!r} deviates from 1"
                                       f" by more than {NORM_TOL}")
        arr.setflags(write=False)
        self.amplitudes = arr

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


def as_state(state) -> PureState:
    """`state` itself if it is a PureState, else a PureState of its
    amplitudes (amplitudes_of): the one state coercion."""
    return state if isinstance(state, PureState) else PureState(amplitudes_of(state))


def normalized(amplitudes) -> PureState:
    """Scale a nonzero amplitude sequence (amplitudes_of) to unit norm and wrap it."""
    arr = amplitudes_of(amplitudes)
    norm = float(np.linalg.norm(arr))
    if not 1e-12 <= norm < np.inf:  # nan fails too
        raise InvalidArgumentError("amplitudes", f"cannot normalize a vector of norm {norm!r}")
    return PureState(arr / norm)


def basis_ket(dim: int, index: int) -> PureState:
    """Computational basis state |index> in C^dim, both whole numbers (whole);
    an integer index outside [0, dim) raises InvalidIndexError, an IndexError."""
    dim = whole(dim, "dim", least=1)
    if not 0 <= whole(index, "index", least=None) < dim:
        raise InvalidIndexError("index", f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


class HermitianOperator:
    """Square Hermitian matrix with an optional display label.

    Hermiticity is enforced entrywise at construction (tolerance 1e-12).
    The default-tolerance spectral decomposition is computed lazily (by
    tensor, eagerly) and cached, since prediction repeatedly needs the same
    branches. Operators are immutable, so shared ones serve every caller.
    """

    __slots__ = ("_matrix", "_label", "_spectrum")

    def __init__(self, matrix, label: str | None = None):
        arr = _square_matrix(matrix).copy()
        deviation = float(np.max(np.abs(arr - arr.conj().T)))
        if deviation > HERMITICITY_TOL:
            raise NonHermitianError(
                f"matrix deviates from Hermiticity by {deviation:.3e}"
                f" (tolerance {HERMITICITY_TOL})"
            )
        arr.setflags(write=False)
        self._matrix = arr
        self._label = label
        self._spectrum = None

    matrix = property(lambda self: self._matrix)
    label = property(lambda self: self._label)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def expectation(self, state) -> float:
        amps = amplitudes_of(state, self.dim)
        return float(np.real(np.vdot(amps, self.matrix @ amps)))

    def eigen_residual(self, state) -> float:
        """||A psi - <A> psi||: the one eigenvector test, which an eigenvector
        psi of A passes within EIGEN_TOL."""
        amps = amplitudes_of(state, self.dim)
        return float(np.linalg.norm(self.matrix @ amps - self.expectation(amps) * amps))

    def spectrum(self) -> "SpectralDecomposition":
        """The default-tolerance spectral decomposition, cached; spectral(op, tol)
        decomposes under another tolerance."""
        if self._spectrum is None:
            self._spectrum = spectral(self)
        return self._spectrum

    def __repr__(self) -> str:
        name = self.label if self.label is not None else "?"
        return f"HermitianOperator({name}, dim={self.dim})"


def _square_matrix(matrix) -> np.ndarray:
    """`matrix` as a complex array (complex_array), refused unless it is a
    nonempty square table of finite numbers."""
    arr = complex_array(matrix, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size < 1:
        raise InvalidArgumentError("matrix", f"matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("matrix", "matrix contains non-finite entries")
    return arr


def operators_equal(a: HermitianOperator, b: HermitianOperator) -> bool:
    """Frobenius distance <= EQUALITY_TOL; labels are for display only."""
    return a.dim == b.dim and float(np.linalg.norm(a.matrix - b.matrix)) <= EQUALITY_TOL


_PAULI_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> HermitianOperator:
    """Single-qubit Pauli operator for axis 'x', 'y' or 'z' (either case)."""
    key = axis.lower() if isinstance(axis, str) else None
    if key not in _PAULI_MATRICES:
        raise InvalidArgumentError("axis", f"unknown Pauli axis {axis!r}, expected one of x, y, z")
    return HermitianOperator(_PAULI_MATRICES[key], key.upper())


def identity(dim: int) -> HermitianOperator:
    """The identity on C^dim, dim a whole number of at least 1 (whole)."""
    return HermitianOperator(np.eye(whole(dim, "dim", least=1), dtype=complex), "I")


def tensor(a: HermitianOperator, b: HermitianOperator,
           label: str | None = None) -> HermitianOperator:
    """Kronecker product a (x) b; the first factor owns the slower index.

    Its default-tolerance decomposition is computed here and cached. The
    eigenvectors are eigh's, but each branch value is the product of factor
    values nearest to eigh's group mean, when one lies within the degeneracy
    tolerance of it: every eigenvalue of a (x) b is such a product. So values
    exact in the factors (+-1 for Pauli products) stay exact under every
    BLAS kernel, where eigh alone gives X (x) W the values +-0.9999999999999998
    under some kernels.
    """
    op = HermitianOperator(np.kron(a.matrix, b.matrix), label)
    decomp = spectral(op)
    products = np.multiply.outer(a.spectrum().values, b.spectrum().values).ravel()
    nearest = products[np.abs(decomp.values[:, None] - products).argmin(axis=1)]
    values = np.where(np.abs(nearest - decomp.values) <= decomp.degeneracy_tol,
                      nearest, decomp.values)
    op._spectrum = SpectralDecomposition(values, decomp.vectors, decomp.offsets,
                                         decomp.degeneracy_tol, label)
    return op


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Frobenius norm of a@b - b@a."""
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"cannot form a commutator across dimensions {a.dim} and {b.dim}"
        )
    return float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix))


class SpectralDecomposition:
    """Ascending distinct eigenvalues over one orthonormal eigenvector matrix.

    Columns offsets[i]:offsets[i + 1] of `vectors` (where block_of_column is
    i) span the eigenspace of values[i], so Born weights are segment sums of
    |V^H psi|^2 and collapse onto branch i is V_i (V_i^H psi). spectral()
    builds one from eigensolver output; the constructor takes copies of the
    arrays, unchecked, and marks them read-only.
    """

    __slots__ = ("_values", "_vectors", "_offsets", "_block_of_column", "_degeneracy_tol",
                 "_label")

    def __init__(self, values, vectors, offsets, degeneracy_tol: float,
                 label: str | None = None):
        values, vectors, offsets = np.array(values), np.array(vectors), np.array(offsets)
        block_of_column = np.repeat(np.arange(len(values)), np.diff(offsets))
        for arr in (values, vectors, offsets, block_of_column):
            arr.setflags(write=False)
        self._values, self._vectors, self._offsets = values, vectors, offsets
        self._block_of_column = block_of_column
        self._degeneracy_tol = real(degeneracy_tol, "degeneracy_tol", 0.0, closed=True)
        self._label = label

    # Read-only, like HermitianOperator's fields: an operator's cached
    # decomposition is shared by every caller.
    values = property(lambda self: self._values)
    vectors = property(lambda self: self._vectors)
    offsets = property(lambda self: self._offsets)
    block_of_column = property(lambda self: self._block_of_column)
    degeneracy_tol = property(lambda self: self._degeneracy_tol)
    label = property(lambda self: self._label)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[0])

    def _block(self, index: int) -> np.ndarray:
        return self.vectors[:, self.offsets[index]:self.offsets[index + 1]]

    def weights(self, state) -> np.ndarray:
        """Born weights ||P_a psi||^2 for each branch: segment sums of |V^H psi|^2."""
        overlaps = amplitudes_of(state, self.dim).conj() @ self.vectors  # conj(V^H psi)
        return np.add.reduceat(overlaps.real ** 2 + overlaps.imag ** 2, self.offsets[:-1])

    def project(self, state, index: int) -> np.ndarray:
        """Unnormalized P_index psi, computed as V_index (V_index^H psi)."""
        block = self._block(index)
        return block @ (block.conj().T @ amplitudes_of(state, self.dim))

    def reconstruct(self) -> np.ndarray:
        """V diag(eigenvalues) V^H; equals the source matrix."""
        return (self.vectors * self.values[self.block_of_column]) @ self.vectors.conj().T

    def branch_index(self, value: float) -> int | None:
        """Index of the branch whose eigenvalue is within
        max(degeneracy_tol, 1e-9) of `value`, a real number (real), or None."""
        gaps = np.abs(self.values - real(value, "value"))
        i = int(np.argmin(gaps))
        return i if gaps[i] <= max(self.degeneracy_tol, 1e-9) else None

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:g}" for v in self.values)
        return f"SpectralDecomposition([{vals}], dim={self.dim})"


def spectral(a: HermitianOperator,
             degeneracy_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecompose with near-degenerate eigenvalues merged into one branch.

    The default tolerance scales with the operator: 1e-9 * max(1, ||a||_F).
    Consecutive gaps at or below the tolerance are chained into one group;
    each branch takes the group's mean eigenvalue and its eigenvector columns.
    A given tolerance must be a finite real number of at least 0 (real): nan
    would merge every branch into one whose mean is no eigenvalue, as would
    inf, and a negative one would split an eigenspace along the eigensolver's
    basis. The eigensolver guarantees the invariants, so nothing is re-checked.
    """
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(1.0, float(np.linalg.norm(a.matrix)))
    else:
        degeneracy_tol = real(degeneracy_tol, "degeneracy_tol", 0.0, closed=True)
    try:
        eigenvalues, vectors = np.linalg.eigh(a.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed for {a!r}") from exc
    split_points = np.flatnonzero(np.diff(eigenvalues) > degeneracy_tol) + 1
    offsets = np.concatenate(([0], split_points, [a.dim]))
    values = np.array([np.mean(eigenvalues[lo:hi])
                       for lo, hi in zip(offsets[:-1], offsets[1:])])
    return SpectralDecomposition(values, vectors, offsets, degeneracy_tol, a.label)


def identity_scalar(matrix) -> float:
    """The s with matrix == s*I within 1e-12, for a finite square matrix, or
    InvalidArgumentError (a ValueError) if there is none."""
    arr = _square_matrix(matrix)
    dim = arr.shape[0]
    s = complex(np.trace(arr)) / dim
    if float(np.linalg.norm(arr - s * np.eye(dim))) > 1e-12:
        raise InvalidArgumentError("matrix", "matrix is not a scalar multiple of the identity")
    if abs(s.imag) > 1e-12:
        raise InvalidArgumentError("matrix", "identity coefficient has a nonzero imaginary part")
    return float(s.real)


def phase_distance(a, b) -> float:
    """Distance between unit vectors after optimal global-phase alignment.

    Computed as ||x - (o/|o|) y|| with o the overlap <y|x>, which aligns the
    phases and subtracts directly; the analytically equal sqrt(2 - 2|o|) form
    cannot resolve distances below sqrt(machine epsilon).
    """
    x, y = amplitudes_of(a), amplitudes_of(b)
    if x.shape != y.shape:
        raise DimensionMismatchError("states differ in dimension")
    overlap = np.vdot(y, x)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
    return float(np.linalg.norm(x - phase * y))


def haar_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector); dim is a
    whole number of at least 1 (whole)."""
    dim = whole(dim, "dim", least=1)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalized(z)


def haar_amplitudes(uniforms) -> np.ndarray:
    """Rows of Haar-random amplitudes from uniforms in (0, 1), two per amplitude.

    Each pair (u, v) of a row becomes sqrt(-2 ln u) exp(2 pi i v), whose real
    and imaginary parts are independent standard normals (Box-Muller); a
    normalised row of them is a Haar-random state, as in haar_state.
    Shape (..., 2d) -> (..., d), d at least 1; every uniform passes real's
    rule for (0, 1) (reals), so no amplitude is 0 and no row's norm is.
    """
    u = reals(uniforms, "uniforms", 0.0, 1.0)
    if u.ndim < 1 or u.shape[-1] < 2 or u.shape[-1] % 2:
        raise InvalidArgumentError("uniforms", "uniforms must come two per amplitude along"
                                   f" their last axis, got shape {u.shape}")
    z = np.sqrt(-2.0 * np.log(u[..., 0::2])) * np.exp(2j * np.pi * u[..., 1::2])
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase-of-R correction; dim is
    a whole number of at least 1 (whole)."""
    dim = whole(dim, "dim", least=1)
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator,
                     label: str | None = None) -> HermitianOperator:
    """GUE-style random Hermitian matrix; dim is a whole number of at least 1 (whole)."""
    dim = whole(dim, "dim", least=1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0, label)


def commuting_family(spectra, rng: np.random.Generator) -> list[HermitianOperator]:
    """Hermitian operators sharing one Haar-random eigenbasis.

    Each row of `spectra` lists the eigenvalues (in that shared basis) of one
    returned operator, so the family is mutually commuting by construction.
    The table's entries are finite reals (reals), and its operator count and
    dimension whole numbers of at least 1 (whole).
    """
    spectra = np.atleast_2d(reals(spectra, "spectra"))
    if spectra.ndim != 2:
        raise InvalidArgumentError("spectra", "spectra must be a table of one row per operator,"
                                   f" got shape {spectra.shape}")
    whole(len(spectra), "operator count", least=1)
    basis = random_unitary(spectra.shape[1], rng)
    ops = []
    for row in spectra:
        m = basis @ np.diag(row) @ basis.conj().T
        ops.append(HermitianOperator((m + m.conj().T) / 2.0))
    return ops


def amplitude_pairs(amplitudes) -> list[list[float]]:
    """[[re, im], ...] encoding used by the JSON serializers."""
    arr = np.ascontiguousarray(amplitudes_of(amplitudes))
    return arr.view(np.float64).reshape(-1, 2).tolist()

