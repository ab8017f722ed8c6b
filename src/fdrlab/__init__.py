"""False discovery rates, exactly and by simulation.

Exact conditional-probability trees for screening and significance tests,
the minimum-Bayes-factor calibration of observed p values, analytic power
of the two-sample t test, and a reproducible Monte Carlo engine that
simulates large batches of such tests.

The exact calculus and the error types are imported with the package.  The
numpy-backed names (distributions, t tests, power, simulation) are
imported on first use, so ``import fdrlab`` and the CLI's exact-calculus
commands load no numpy.
"""

import importlib

from .errors import (
    DEFAULT_MASTER_SEED,
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    FdrLabError,
    UndefinedResultError,
)
from .fdr_calculus import (
    Breakdown,
    DiagnosticSpec,
    OddsResult,
    TestScenario,
    alpha_for_target_fdr,
    berger_min_bayes_factor,
    berger_min_fdr,
    berger_table,
    posterior_odds,
    screening_breakdown,
    significance_breakdown,
)

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, imported when the name is
# first looked up (PEP 562).
_LAZY = {
    name: module
    for module, names in (
        ("distributions", ("RngStream", "block_uniforms", "noncentral_t_cdf",
                           "normal_cdf", "normal_quantile",
                           "regularized_incomplete_beta", "sample_normal",
                           "student_t_cdf")),
        ("montecarlo", ("InflationPoint", "MixtureSpec", "SimConfig", "SimSummary",
                        "inflation_curve", "interval_fdr", "make_mixture",
                        "mixture_fdr", "run_batch", "write_histogram_csv")),
        ("power", ("power_two_sample", "solve_n", "student_t_quantile")),
        ("ttest", ("TestResult", "batch_two_sample_t", "significant", "two_sample_t")),
    )
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "Breakdown",
    "ConfigurationError",
    "DEFAULT_MASTER_SEED",
    "DegenerateDataError",
    "DiagnosticSpec",
    "DomainError",
    "FdrLabError",
    "InflationPoint",
    "MixtureSpec",
    "OddsResult",
    "RngStream",
    "SimConfig",
    "SimSummary",
    "TestResult",
    "TestScenario",
    "UndefinedResultError",
    "alpha_for_target_fdr",
    "batch_two_sample_t",
    "berger_min_bayes_factor",
    "berger_min_fdr",
    "berger_table",
    "block_uniforms",
    "inflation_curve",
    "interval_fdr",
    "make_mixture",
    "mixture_fdr",
    "noncentral_t_cdf",
    "normal_cdf",
    "normal_quantile",
    "posterior_odds",
    "power_two_sample",
    "regularized_incomplete_beta",
    "run_batch",
    "sample_normal",
    "screening_breakdown",
    "significance_breakdown",
    "significant",
    "solve_n",
    "student_t_cdf",
    "student_t_quantile",
    "two_sample_t",
    "write_histogram_csv",
]
