"""False discovery rates, exactly and by simulation.

Exact conditional-probability trees for screening and significance tests,
the minimum-Bayes-factor calibration of observed p values, analytic power
of the two-sample t test, and a reproducible Monte Carlo engine that
simulates large batches of such tests.

Every export resolves through one table, `_EXPORTS` (name -> the submodule
that defines it), and is bound on first use (PEP 562).  Only two
submodules load with the package, `errors` and `fdr_calculus`, so
``import fdrlab`` and the CLI's exact-calculus commands load no numpy; the
numpy-backed names (distributions, t tests, power, simulation) import
their submodule when first looked up.
"""

import importlib

from . import errors, fdr_calculus  # numpy-free; loaded with the package

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("DEFAULT_MASTER_SEED", "ConfigurationError", "DegenerateDataError",
                    "DomainError", "FdrLabError", "UndefinedResultError")),
        ("fdr_calculus", ("Breakdown", "DiagnosticSpec", "OddsResult", "TestScenario",
                          "alpha_for_target_fdr", "berger_min_bayes_factor",
                          "berger_min_fdr", "berger_table", "posterior_odds",
                          "screening_breakdown", "significance_breakdown")),
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
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
