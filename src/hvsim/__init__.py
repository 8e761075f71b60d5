"""Deterministic hidden-variable simulator for finite-dimensional quantum
measurements.

A hidden state pairs a pure state with one uniform scalar c in (0, 1); the
prediction map picks the smallest eigenvalue whose cumulative Born weight
reaches c, and measuring collapses the state and re-arms the scalar. The
package layers expression algebra, functional-consistency checkers, a no-go
enumeration and seeded experiments on top of that rule.
"""

from .errors import (
    BranchNotFoundError,
    ComplexFactorError,
    DimensionMismatchError,
    EigensolverError,
    HiddenDrawError,
    HvsimError,
    MalformedDecompositionError,
    MissingLeafValueError,
    NoncommutingLeavesError,
    NonHermitianError,
    NotAnEigenstateError,
    ReferenceRunMismatchError,
    ZeroProbabilityBranchError,
)
from .operators import (
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    amplitude_pairs,
    basis_ket,
    commutator_norm,
    commuting_family,
    haar_amplitudes,
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
from .model import (
    Events,
    HiddenState,
    MeasurementRecord,
    MeasurementTrace,
    ScriptedUniforms,
    as_decomposition,
    branch_indices,
    case_slot,
    draw_hidden,
    draw_hidden_batch,
    measure,
    predict,
    predict_batch,
    substream,
    update,
)
from .expressions import (
    Leaf,
    ObservableExpression,
    PeresMerminSquare,
    Product,
    Scale,
    Sum,
    eval_operator,
    eval_real,
    eval_real_block,
    implications_operators,
    peres_mermin,
)
from .consistency import (
    ConsistencyReport,
    NoGoResult,
    PropositionSummary,
    check_strong_fc,
    check_weak_fc,
    no_go_search,
    verify_proposition,
)
from .experiments import (
    ChshReport,
    ExperimentConfig,
    ImplicationsReport,
    LineProductReport,
    StatReport,
    Table1Report,
    TableIteration,
    TABLE1_CS,
    bell_state,
    born_experiment,
    born_scenario_sweep,
    chsh_experiment,
    column_product_experiment,
    implications_demo,
    replay_table1,
    spin_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
