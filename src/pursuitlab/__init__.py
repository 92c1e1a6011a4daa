"""Sparse recovery by subspace pursuit and CoSaMP, with certified
restricted-isometry constants, convergence-bound calculators, and
per-iteration inequality audits."""

from .bounds import (
    COSAMP,
    SP,
    SP_DM,
    SP_LBJ,
    SP_TAIL,
    BoundReport,
    bounds_for,
    delta_for_rho,
    error_envelope,
)
from .experiments import ExperimentConfig, GridCell, run_experiment, write_results
from .linalg import SingularSupportError, least_squares_on_support, spectral_norm_symmetric
from .recovery import (
    InequalityCheck,
    IterationRecord,
    RecoveryResult,
    StoppingRule,
    audit_run,
    cosamp,
    subspace_pursuit,
)
from .ric import (
    EnumerationBudgetError,
    RicEstimate,
    exact_ric,
    rip_sandwich_check,
    sampled_ric_lower_bound,
)
from .seeding import derive_seed
from .signals import SparseInstance, best_s_term, make_instance, restrict, top_k_magnitude
from .supports import SupportSet

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "COSAMP",
    "EnumerationBudgetError",
    "ExperimentConfig",
    "GridCell",
    "InequalityCheck",
    "IterationRecord",
    "RecoveryResult",
    "RicEstimate",
    "SP",
    "SP_DM",
    "SP_LBJ",
    "SP_TAIL",
    "SingularSupportError",
    "SparseInstance",
    "StoppingRule",
    "SupportSet",
    "audit_run",
    "best_s_term",
    "bounds_for",
    "cosamp",
    "delta_for_rho",
    "derive_seed",
    "error_envelope",
    "exact_ric",
    "least_squares_on_support",
    "make_instance",
    "restrict",
    "rip_sandwich_check",
    "run_experiment",
    "sampled_ric_lower_bound",
    "spectral_norm_symmetric",
    "subspace_pursuit",
    "top_k_magnitude",
    "write_results",
]
