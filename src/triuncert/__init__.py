"""Tripartite memory-assisted entropic uncertainty bounds for three-qubit states.

The library computes the uncertainty sum S(X|B) + S(Z|C), its state-dependent
lower bound built from mutual information and Holevo quantities, the classic
comparison bounds, and the secret-key-rate bounds these imply. Scenario
runners reproduce the standard sweeps (GHZ/W/Werner families, random-state
clouds, X-state closed-form checks) as deterministic CSV/JSON tables.
Reports are evaluated over (N, 8, 8) stacks of states (``full_report_batch``,
``key_report_batch``); the one-state reports are batches of one.
"""

__version__ = "0.1.0"

from .errors import DomainError, ShapeError
from .linalg import EigenDecomposition, dagger, eig_hermitian, kron
from .states import (
    DensityMatrix,
    RandomStateRecipe,
    XStateParams,
    density_matrix_from_json,
    density_matrix_to_json,
    make_ghz,
    make_w,
    make_werner,
    make_x_state,
    maximally_mixed,
    partial_trace,
    pure_state,
    purity,
    random_pure_state,
    random_state,
    random_states,
    validate_density_stack,
    werner_params,
)
from .measurement import (
    MeasurementBasis,
    MeasurementEnsemble,
    basis_from_json,
    basis_to_json,
    measurement_ensemble,
    outcome_distribution,
    overlap_c,
    pauli_basis,
    post_measurement_state,
    q_mu,
)
from .entropy import (
    binary_entropy,
    classical_conditional_entropy,
    conditional_entropy,
    holevo,
    joint_outcome_table,
    mutual_information,
    shannon,
    von_neumann,
)
from .bounds import (
    BOUND_REPORT_COLUMNS,
    BoundReport,
    berta_bound,
    delta,
    full_report,
    full_report_batch,
    memoryless_bound,
    renes_bound,
    u_left,
    u_right,
    x_state_analytic,
)
from .keyrate import (
    KEY_REPORT_COLUMNS,
    KeyRateReport,
    key_rate_berta,
    key_rate_improved,
    key_rate_measured,
    key_report,
    key_report_batch,
)
from .experiments import (
    SCENARIOS,
    ScenarioConfig,
    SweepResult,
    random_x_params,
    read_csv,
    run_eval,
    run_scenario,
    write_result,
)
