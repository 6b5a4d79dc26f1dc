"""Interacting-particle approximation of discrete weighted distribution flows.

The package has three layers: exact linear-algebra oracles for the flow and
all of its limiting constants (flow, bounds), a seeded particle engine with
per-step martingale bookkeeping (engine), and statistical experiments that
compare the two (lab).  zoo ships canonical models and cli ties everything
into reproducible file-based runs.
"""

__version__ = "0.1.0"

from .bounds import a3_constant, burkholder_d, mixing_bounds
from .engine import (
    RunConfig,
    RunTrace,
    doob_terms,
    sampling_error,
    simulate,
    simulate_replicates,
    step_counts,
)
from .flow import (
    ContractionTables,
    ExactFlow,
    FlowAnalytics,
    analyze,
    boltzmann_gibbs,
    concentration_b,
    conditional_variance,
    contraction_tables,
    exact_flow,
    limiting_variance,
    step_phi,
    transport,
)
from .lab import (
    clt_rate_experiment,
    concentration_experiment,
    iid_moment_check,
    kolmogorov_distance,
    lp_moment_experiment,
    smoothing_bound,
    stein_check,
    stein_experiment,
)
from .model import (
    FeynmanKacModel,
    TestFunction,
    indicator_function,
    load_function,
    load_model,
    make_function,
    make_model,
    mixing_weights,
    save_function,
    save_model,
    validate_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
