"""Numerical laboratory for the 2-Toda lattice on graded Lie algebras.

Builds matrix Lie algebras with a principal grading, the splitting R-matrix
R = P₊ − P₋ and its pair extension ℛ on 𝔤×𝔤, the linear and quadratic
Poisson brackets, the conserved spectral-pencil family, Lax flows, and the
classical Toda reduction — together with check batteries for every claimed
identity at small rank.
"""
from .algebra import (
    AlgebraError,
    AlgebraSpec,
    AlgebraValidationError,
    Element,
    build_gl,
    build_sl,
    load_spec,
    save_spec,
    spec_to_document,
    validate_spec,
)
from .rmatrix import PairPoint, check_mcybe
from .poisson import (
    CapabilityError,
    PhaseSpace,
    PreconditionError,
    ScalarFunction,
    brackets,
    phase_tp,
    poisson_matrix,
    rank_sweep,
    check_morphism_psi1,
)
from .invariants import (
    RaisData,
    family,
    family_labels,
    family_names,
    family_values,
    rais_vectors,
)
from .flows import (
    FlowConfig,
    Trajectory,
    flow_commutation,
    integrate,
    pencil_eigenvalue_drift,
    trajectory_to_csv,
)
from .toda import (
    check_binomial_identity,
    check_poisson_iso,
    toda_space,
    toda_suite,
)
from .reports import CheckReport, all_pass, emit_report
from .checks import BATTERY_NAMES, expected_rank, run_battery

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "AlgebraSpec",
    "AlgebraValidationError",
    "Element",
    "build_gl",
    "build_sl",
    "load_spec",
    "save_spec",
    "spec_to_document",
    "validate_spec",
    "PairPoint",
    "check_mcybe",
    "CapabilityError",
    "PhaseSpace",
    "PreconditionError",
    "ScalarFunction",
    "brackets",
    "phase_tp",
    "poisson_matrix",
    "rank_sweep",
    "check_morphism_psi1",
    "RaisData",
    "family",
    "family_labels",
    "family_names",
    "family_values",
    "rais_vectors",
    "FlowConfig",
    "Trajectory",
    "flow_commutation",
    "integrate",
    "pencil_eigenvalue_drift",
    "trajectory_to_csv",
    "check_binomial_identity",
    "check_poisson_iso",
    "toda_space",
    "toda_suite",
    "CheckReport",
    "all_pass",
    "emit_report",
    "BATTERY_NAMES",
    "expected_rank",
    "run_battery",
]
