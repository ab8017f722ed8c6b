"""Exact false-discovery arithmetic for screening and significance tests.

Three views of the same conditional-probability tree:

* `screening_breakdown` takes (prevalence, sensitivity, specificity), as
  quoted for a diagnostic test;
* `significance_breakdown` takes (prevalence of real effects, power, alpha),
  the natural parameterization of a significance test;
* `posterior_odds` re-derives the same false discovery rate through prior
  odds and the likelihood ratio alpha/power.

`berger_min_bayes_factor` and `berger_min_fdr` implement the calibration of
Sellke, Bayarri & Berger (2001): over every possible prior, the Bayes factor
in favour of the null after observing p is at least -e*p*ln(p) (valid for
p < 1/e), which converts to a minimum false discovery rate B/(1+B).  Note
the orientation: small B favours a real effect.  Natural log is required:
it is the only base that reproduces the printed calibration values.  The
sixth printed entry, 0.465 at p = 0.2, is a misprint for 0.467.
`alpha_for_target_fdr` inverts it by Newton's method on u - ln(u) = 1 - ln(B)
in v = u - 1, u = -ln(p), so a root near u = 1 keeps its digits; the left
side is convex and increasing, so the steps shrink once they pass the root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from .errors import DomainError, UndefinedResultError, positive, probability

_INV_E = 1.0 / math.e

# The six p values conventionally tabulated for the minimum-FDR calibration.
BERGER_TABLE_P = (0.2, 0.1, 0.05, 0.01, 0.005, 0.001)


@dataclass(frozen=True)
class DiagnosticSpec:
    """A screening test: prevalence, sensitivity, specificity, all in [0, 1]."""

    prevalence: float
    sensitivity: float
    specificity: float

    def __post_init__(self):
        for name in ("prevalence", "sensitivity", "specificity"):
            object.__setattr__(self, name, probability(getattr(self, name), name))


@dataclass(frozen=True)
class TestScenario:
    """A significance test: prevalence of real effects, power, alpha.

    power < alpha describes a test that is worse than chance; that is a
    meaningful input, so it warns instead of failing.
    """

    prevalence: float
    power: float
    alpha: float

    def __post_init__(self):
        for name in ("prevalence", "power", "alpha"):
            object.__setattr__(self, name, probability(getattr(self, name), name))
        if self.power < self.alpha:
            warnings.warn(
                f"power ({self.power}) below alpha ({self.alpha}): "
                "test performs worse than chance",
                stacklevel=3,
            )


@dataclass(frozen=True)
class Breakdown:
    """The four cells of the outcome tree plus the derived rates.

    Cells are probabilities, or expected counts when a population was given;
    they always sum to the population (default 1).  ``fdr + ppv == 1`` and,
    whenever any negatives exist, ``npv + fnr_among_negatives == 1``; with no
    negatives at all those two fields are NaN.
    """

    true_pos: float
    false_pos: float
    true_neg: float
    false_neg: float
    fdr: float
    ppv: float
    npv: float
    fnr_among_negatives: float

    @property
    def positives(self) -> float:
        return self.true_pos + self.false_pos

    @property
    def negatives(self) -> float:
        return self.true_neg + self.false_neg

    def to_dict(self) -> dict:
        return {
            "true_pos": self.true_pos,
            "false_pos": self.false_pos,
            "true_neg": self.true_neg,
            "false_neg": self.false_neg,
            "positives": self.positives,
            "negatives": self.negatives,
            "fdr": self.fdr,
            "ppv": self.ppv,
            "npv": self.npv,
            "fnr_among_negatives": self.fnr_among_negatives,
        }


@dataclass(frozen=True)
class OddsResult:
    """Prior odds on the null, likelihood ratio, posterior odds, and FDR."""

    prior_odds_h0: float
    likelihood_ratio_h0_h1: float
    posterior_odds_h0: float
    fdr: float

    def to_dict(self) -> dict:
        return asdict(self)


def _tree_cells(scale: float, pos_limb: float, pos_rate: float,
                neg_limb_rate: float) -> tuple[float, float, float, float]:
    """(tp, fn, fp, tn) of a tree whose cells sum to `scale`.

    At scale 1.0, ``1.0 * x`` and ``1.0 - x`` are exact, so these are the
    probability-level cells bit for bit.
    """
    present = scale * pos_limb
    absent = scale - present
    tp = present * pos_rate
    fp = absent * neg_limb_rate
    return tp, present - tp, fp, absent - fp


def _tree_breakdown(pos_limb: float, pos_rate: float,
                    neg_limb_rate: float, scale: float) -> Breakdown:
    """Assemble a Breakdown from one tree parameterization.

    `pos_limb` is the fraction whose condition is present, with positive
    tests occurring there at `pos_rate`; the other limb tests positive at
    `neg_limb_rate`.  Rates (fdr, ppv, npv, ...) are always computed from
    the probability-level cells so they do not depend on `scale`.
    """
    tp_p, fn_p, fp_p, tn_p = _tree_cells(1.0, pos_limb, pos_rate, neg_limb_rate)
    positives = tp_p + fp_p
    if positives <= 0.0:
        raise UndefinedResultError(
            "no positive results are possible, so the false discovery rate "
            "is undefined"
        )
    fdr = fp_p / positives
    ppv = tp_p / positives
    negatives = tn_p + fn_p
    if negatives > 0.0:
        npv = tn_p / negatives
        fnr = fn_p / negatives
    else:
        npv = math.nan
        fnr = math.nan
    tp, fn, fp, tn = _tree_cells(scale, pos_limb, pos_rate, neg_limb_rate)
    return Breakdown(true_pos=tp, false_pos=fp, true_neg=tn, false_neg=fn,
                     fdr=fdr, ppv=ppv, npv=npv, fnr_among_negatives=fnr)


def screening_breakdown(spec: DiagnosticSpec, population: float | None = None) -> Breakdown:
    """Outcome tree of a screening test, optionally scaled to a population.

    Identical arithmetic to `significance_breakdown` under the standard
    mapping sensitivity -> power, 1 - specificity -> alpha.
    """
    scale = 1.0 if population is None else positive(population, "population")
    return _tree_breakdown(spec.prevalence, spec.sensitivity,
                           1.0 - spec.specificity, scale)


def significance_breakdown(scenario: TestScenario, n_tests: float | None = None) -> Breakdown:
    """Outcome tree of a batch of significance tests.

    The quoted branches are power (significant among real effects) and alpha
    (significant among nulls); rates do not depend on `n_tests`.
    """
    scale = 1.0 if n_tests is None else positive(n_tests, "n_tests")
    return _tree_breakdown(scenario.prevalence, scenario.power,
                           scenario.alpha, scale)


def posterior_odds(scenario: TestScenario) -> OddsResult:
    """Odds view of `significance_breakdown`.

    posterior odds = prior odds on the null times the likelihood ratio
    alpha/power.  The FDR field is `significance_breakdown`'s fp/(fp+tp)
    rather than OR/(1+OR): the two are algebraically identical, but the mass
    form stays exact when the prior odds are infinite (prevalence 0).
    """
    if scenario.power <= 0.0:
        raise DomainError("power must be positive to form a likelihood ratio")
    lr = scenario.alpha / scenario.power
    if scenario.prevalence == 0.0:
        prior = math.inf
        post = math.inf
    else:
        prior = (1.0 - scenario.prevalence) / scenario.prevalence
        post = prior * lr
    return OddsResult(prior_odds_h0=prior, likelihood_ratio_h0_h1=lr,
                      posterior_odds_h0=post,
                      fdr=significance_breakdown(scenario).fdr)


def berger_min_bayes_factor(p: float) -> float:
    """Minimum Bayes factor -e*p*ln(p) in favour of the null, for p < 1/e."""
    p = float(p)
    if not math.isfinite(p) or not 0.0 < p < _INV_E:
        raise DomainError(
            f"the bound -e*p*ln(p) is only valid for 0 < p < 1/e "
            f"(about {_INV_E:.4f}); got {p}"
        )
    return -math.e * p * math.log(p)


def berger_min_fdr(p: float) -> float:
    """Minimum false discovery rate B/(1+B) implied by an observed p < 1/e."""
    b = berger_min_bayes_factor(p)
    return b / (1.0 + b)


def alpha_for_target_fdr(target: float) -> float:
    """Invert `berger_min_fdr`: the p value whose minimum FDR equals `target`.

    `target` must lie in (0, 1/2).  Newton runs from v = -ln B + ln(1 - ln B)
    until its steps stop shrinking, and p = B/(e(1 + v)).  Against mpmath, p
    is within 1e-14 relative of the root for targets up to 0.4, and
    `berger_min_fdr(p)` within 1e-14 relative of `target` from 1e-300 up.
    A target whose p underflows to 0 (below about 5e-321) raises `DomainError`.
    """
    target = float(target)
    if not 0.0 < target < 0.5:
        raise DomainError(f"target FDR must lie in (0, 1/2); got {target}")
    b = target / (1.0 - target)
    d = -math.log(b)
    v, last = d + math.log1p(d), math.inf
    while abs(step := (v - math.log1p(v) - d) * (1.0 + v) / v) < abs(last):
        v, last = v - step, step
    p = b / (math.e * (1.0 + v))
    if p == 0.0:
        raise DomainError(f"the p value for a target FDR of {target} underflows to 0")
    return p


def berger_table() -> list[dict]:
    """Calibration rows (p, minimum Bayes factor, minimum FDR)."""
    return [
        {
            "p": float(p),
            "min_bayes_factor": berger_min_bayes_factor(p),
            "min_fdr": berger_min_fdr(p),
        }
        for p in BERGER_TABLE_P
    ]
