"""Hyperinflation price-index modelling and crash-date estimation.

The package fits three nested models of the log price index p(t) = ln P(t):

* linear (steady exponential inflation, constant growth rate),
* double-exponential (exponentially accelerating growth rate),
* finite-time singularity (power-law accelerating growth rate that
  diverges at a critical date t_c).

It also propagates an assumed relative measurement error on the
per-period inflation rates into parameter uncertainties by Monte Carlo
resampling, and ships a CLI (``hyperfit``) that ties ingestion, fitting,
resampling, and curve export together.
"""

__version__ = "1.0.0"

import importlib

from .series import (
    Epoch,
    InflationSeries,
    PriceIndexSeries,
    build_price_index,
    load_series,
)
from .models import (
    LinearParams,
    DoubleExpParams,
    SingularityParams,
    RecursionParams,
    eval_linear,
    eval_double_exp,
    eval_singularity,
    growth_rate_curve,
    alpha_to_gamma,
    ab_coefficients,
    doubling_time,
    doubling_time_from_ab,
    critical_time,
    simulate_recursion,
)
from .fitting import FitConfig, FitResult, fit_linear, fit_double_exp, fit_singularity

__all__ = [
    "Epoch",
    "InflationSeries",
    "PriceIndexSeries",
    "build_price_index",
    "load_series",
    "LinearParams",
    "DoubleExpParams",
    "SingularityParams",
    "RecursionParams",
    "eval_linear",
    "eval_double_exp",
    "eval_singularity",
    "growth_rate_curve",
    "alpha_to_gamma",
    "ab_coefficients",
    "doubling_time",
    "doubling_time_from_ab",
    "critical_time",
    "simulate_recursion",
    "FitConfig",
    "FitResult",
    "fit_linear",
    "fit_double_exp",
    "fit_singularity",
    "MCConfig",
    "MCReport",
    "sample_generation",
    "run_mc",
    "sweep_error",
]

#: Names of the Monte Carlo module, imported on first use (PEP 562), so a
#: `hyperfit fit` process never loads it; `hyperfit.montecarlo` resolves too.
_MONTECARLO = frozenset({"MCConfig", "MCReport", "sample_generation", "run_mc", "sweep_error"})


def __getattr__(name: str):
    if name == "montecarlo" or name in _MONTECARLO:
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
