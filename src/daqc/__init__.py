"""Digital-analog schedule synthesis with calibration-error bounds.

The package turns target and source two-body Pauli couplings into timed
single-qubit-gate block schedules, models constant calibration defects,
evaluates analytic bounds on the resulting simulation error, and verifies
those bounds against exact dense-matrix computations.
"""

from .errors import (
    DaqcError,
    InternalConsistencyError,
    LpSolverStallError,
    SimulabilityError,
    ValidationError,
)
from .pauli import (
    AXES,
    CouplingKey,
    CouplingVector,
    InteractionGraph,
    graph_difference,
    hadamard_divide,
    vector_p_norm,
)
from .blocks import (
    PauliMasks,
    SignMatrix,
    build_sign_matrix,
    generate_candidate_patterns,
    sign_weights,
)
from .lp import LinearProgram, LpSolution, solve
from .schedule import Schedule, SynthesisMode, effective_couplings, error_vector, synthesize
from .dense import (
    DEFAULT_QUBIT_CAP,
    DenseHamiltonian,
    ObservableSpec,
    build_dense,
    expectation_deviation,
    frobenius_norm,
    operator_norm,
    plus_state,
    replay_unitary,
    single_qubit_observable,
)
from .bounds import (
    BoundReport,
    DefectSample,
    evaluate_bounds,
    expectation_error_bound,
    frobenius_stability_factor,
    mitigated_expectation_bound,
    op_norm_error_bound,
    p_norm_error_bound,
    sample_defect,
)
from .harness import (
    ExperimentConfig,
    TopologySpec,
    TrialRecord,
    generate_problem,
    run_experiment,
    run_trial,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "BoundReport",
    "CouplingKey",
    "CouplingVector",
    "DaqcError",
    "DefectSample",
    "DenseHamiltonian",
    "DEFAULT_QUBIT_CAP",
    "ExperimentConfig",
    "InteractionGraph",
    "InternalConsistencyError",
    "LinearProgram",
    "LpSolution",
    "LpSolverStallError",
    "ObservableSpec",
    "PauliMasks",
    "Schedule",
    "SignMatrix",
    "SimulabilityError",
    "SynthesisMode",
    "TopologySpec",
    "TrialRecord",
    "ValidationError",
    "build_dense",
    "build_sign_matrix",
    "effective_couplings",
    "error_vector",
    "evaluate_bounds",
    "expectation_deviation",
    "expectation_error_bound",
    "frobenius_norm",
    "frobenius_stability_factor",
    "generate_candidate_patterns",
    "generate_problem",
    "graph_difference",
    "hadamard_divide",
    "mitigated_expectation_bound",
    "op_norm_error_bound",
    "operator_norm",
    "p_norm_error_bound",
    "plus_state",
    "replay_unitary",
    "run_experiment",
    "run_trial",
    "sample_defect",
    "sign_weights",
    "single_qubit_observable",
    "solve",
    "summarize",
    "synthesize",
    "vector_p_norm",
]
