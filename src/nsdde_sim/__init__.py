"""Simulation and condition checking for neutral stochastic delay equations.

The package simulates d[X(t) - D(X(t - tau))] = b dt + sigma dB on an exact
rational time grid with an explicit Euler scheme, sampled on the grid of its
noise (which may nest finer grids), and verifies the structural conditions
(contraction, coercivity, local monotonicity, integrability) that the moment
and convergence analyses rely on.  See the README for the CLI and file formats.
"""

__version__ = "0.1.0"

from .analysis import (
    LevelPairRow,
    MomentReport,
    PerturbationRow,
    check_contraction_sup_bound,
    converge_study,
    estimate_moments,
    exceedance_trend_ok,
    perturbation_integrability,
)
from .brownian import BrownianPath, coarsen, generate
from .conditions import (
    ConditionReport,
    ConditionSpec,
    Violation,
    check_conditions,
    constant_rate,
    neutral_cubic_rates,
)
from .errors import (
    ConfigError,
    DegenerateSampling,
    DimensionMismatch,
    IncompatibleGrids,
    InvalidRange,
    NonDivisibleStep,
    NsddeError,
)
from .euler import simulate
from .model import (
    DelayGrid,
    InitialSegment,
    NsddeModel,
    additive_noise,
    affine_segment,
    builtin_model,
    constant_segment,
    cubic_drift,
    linear_delay_ode,
    make_grid,
    neutral_cubic_model,
    pure_neutral,
)

__all__ = [
    "__version__",
    "BrownianPath",
    "ConditionReport",
    "ConditionSpec",
    "ConfigError",
    "DegenerateSampling",
    "DelayGrid",
    "DimensionMismatch",
    "IncompatibleGrids",
    "InitialSegment",
    "InvalidRange",
    "LevelPairRow",
    "MomentReport",
    "NonDivisibleStep",
    "NsddeError",
    "NsddeModel",
    "PerturbationRow",
    "Violation",
    "additive_noise",
    "affine_segment",
    "builtin_model",
    "check_conditions",
    "check_contraction_sup_bound",
    "coarsen",
    "constant_rate",
    "constant_segment",
    "converge_study",
    "cubic_drift",
    "estimate_moments",
    "exceedance_trend_ok",
    "generate",
    "linear_delay_ode",
    "make_grid",
    "neutral_cubic_model",
    "neutral_cubic_rates",
    "perturbation_integrability",
    "pure_neutral",
    "simulate",
]
