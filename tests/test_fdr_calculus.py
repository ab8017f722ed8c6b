"""Exact tree arithmetic, the odds identity, and the minimum-Bayes-factor
calibration, cross-checked by brute-force tree enumeration, algebraic
identities, and extended-precision recomputation (mpmath).
"""

import dataclasses
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fdrlab.errors import DomainError, UndefinedResultError
from fdrlab.fdr_calculus import (
    DiagnosticSpec,
    alpha_for_target_fdr,
    berger_min_bayes_factor,
    berger_min_fdr,
    berger_table,
    posterior_odds,
    screening_breakdown,
    significance_breakdown,
)
from fdrlab.fdr_calculus import TestScenario as Scenario


class TestScreening:
    def test_worked_example(self):
        b = screening_breakdown(DiagnosticSpec(0.01, 0.8, 0.95), population=10_000)
        assert b.false_pos == pytest.approx(495.0, abs=1e-9)
        assert b.true_pos == pytest.approx(80.0, abs=1e-9)
        assert b.positives == pytest.approx(575.0, abs=1e-9)
        assert b.fdr == pytest.approx(0.861, abs=5e-4)
        assert b.ppv == pytest.approx(0.139, abs=5e-4)

    def test_perfect_test_has_zero_fdr(self):
        for prevalence in (0.001, 0.3, 0.97):
            b = screening_breakdown(DiagnosticSpec(prevalence, 1.0, 1.0))
            assert b.fdr == 0.0

    def test_brute_force_tree_oracle(self):
        # enumerate the four leaf products directly
        prevalence, sens, spec = 0.05, 0.8, 0.95
        tp = prevalence * sens
        fn = prevalence * (1.0 - sens)
        fp = (1.0 - prevalence) * (1.0 - spec)
        tn = (1.0 - prevalence) * spec
        b = screening_breakdown(DiagnosticSpec(prevalence, sens, spec))
        assert b.true_pos == pytest.approx(tp, abs=1e-15)
        assert b.false_neg == pytest.approx(fn, abs=1e-15)
        assert b.false_pos == pytest.approx(fp, abs=1e-15)
        assert b.true_neg == pytest.approx(tn, abs=1e-15)
        assert b.ppv == pytest.approx(tp / (tp + fp), abs=1e-15)

    def test_undefined_when_no_positives_possible(self):
        with pytest.raises(UndefinedResultError):
            screening_breakdown(DiagnosticSpec(0.0, 0.8, 1.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            DiagnosticSpec(1.5, 0.8, 0.95)
        with pytest.raises(DomainError):
            screening_breakdown(DiagnosticSpec(0.1, 0.8, 0.95), population=-5.0)


class TestSignificance:
    def test_worked_example(self):
        b = significance_breakdown(Scenario(0.1, 0.8, 0.05), n_tests=1000)
        assert b.false_pos == pytest.approx(45.0, abs=1e-9)
        assert b.true_pos == pytest.approx(80.0, abs=1e-9)
        assert b.fdr == pytest.approx(0.36, abs=1e-15)

    def test_even_prevalence(self):
        b = significance_breakdown(Scenario(0.5, 0.8, 0.05))
        assert b.fdr == pytest.approx(0.0588235294117647, abs=1e-12)

    def test_negative_side_of_the_tree(self):
        b = significance_breakdown(Scenario(0.1, 0.8, 0.05), n_tests=1000)
        assert b.true_neg == pytest.approx(855.0, abs=1e-9)
        assert b.false_neg == pytest.approx(20.0, abs=1e-9)
        assert b.npv == pytest.approx(855.0 / 875.0, abs=1e-12)
        assert b.npv + b.fnr_among_negatives == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:power")
    def test_cells_sum_and_rate_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            prevalence, power, alpha = rng.uniform(0.01, 0.99, 3)
            b = significance_breakdown(Scenario(prevalence, power, alpha))
            total = b.true_pos + b.false_pos + b.true_neg + b.false_neg
            assert total == pytest.approx(1.0, abs=1e-12)
            assert b.fdr + b.ppv == pytest.approx(1.0, abs=1e-12)
            assert min(b.true_pos, b.false_pos, b.true_neg, b.false_neg) >= 0.0

    def test_population_scaling_leaves_rates_unchanged(self):
        scenario = Scenario(0.37, 0.66, 0.08)
        plain = significance_breakdown(scenario)
        scaled = significance_breakdown(scenario, n_tests=12_500)
        assert scaled.fdr == plain.fdr
        assert scaled.npv == plain.npv
        total = (scaled.true_pos + scaled.false_pos
                 + scaled.true_neg + scaled.false_neg)
        assert total == pytest.approx(12_500.0, abs=12_500 * 1e-12)

    @pytest.mark.filterwarnings("ignore:power")
    def test_fdr_monotonicity_grid(self):
        grid = np.linspace(0.01, 0.99, 8)
        for power in grid:
            for alpha in grid:
                fdrs = [significance_breakdown(Scenario(p, power, alpha)).fdr
                        for p in grid]
                assert all(b <= a + 1e-12 for a, b in zip(fdrs, fdrs[1:]))
        for prevalence in grid:
            for alpha in grid:
                fdrs = [significance_breakdown(Scenario(prevalence, pw, alpha)).fdr
                        for pw in grid]
                assert all(b <= a + 1e-12 for a, b in zip(fdrs, fdrs[1:]))
        for prevalence in grid:
            for power in grid:
                fdrs = [significance_breakdown(Scenario(prevalence, power, a)).fdr
                        for a in grid]
                assert all(b >= a - 1e-12 for a, b in zip(fdrs, fdrs[1:]))

    @pytest.mark.filterwarnings("ignore:power")
    def test_matches_screening_under_symbol_mapping(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            prevalence, power, alpha = rng.uniform(0.01, 0.99, 3)
            sig = significance_breakdown(Scenario(prevalence, power, alpha))
            scr = screening_breakdown(
                DiagnosticSpec(prevalence, power, 1.0 - alpha))
            for field in ("true_pos", "false_pos", "true_neg", "false_neg",
                          "fdr", "ppv", "npv", "fnr_among_negatives"):
                assert getattr(sig, field) == pytest.approx(
                    getattr(scr, field), abs=1e-12)

    def test_worse_than_chance_warns(self):
        with pytest.warns(UserWarning, match="worse than chance") as record:
            Scenario(0.1, 0.03, 0.05)
        # at the caller's line, not the __init__ that dataclasses generates
        assert [w.filename for w in record] == [__file__]


class TestPosteriorOdds:
    def test_worked_example(self):
        odds = posterior_odds(Scenario(0.1, 0.8, 0.05))
        assert odds.likelihood_ratio_h0_h1 == 0.0625
        assert odds.prior_odds_h0 == 9.0
        assert odds.posterior_odds_h0 == 0.5625
        assert odds.fdr == pytest.approx(0.36, abs=1e-15)

    def test_uninformative_test_at_even_prior(self):
        for p in (0.05, 0.3, 0.8):
            odds = posterior_odds(Scenario(0.5, p, p))
            assert odds.posterior_odds_h0 == pytest.approx(1.0, abs=1e-15)
            assert odds.fdr == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:power")
    def test_exact_agreement_with_breakdown(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            prevalence, power, alpha = rng.uniform(0.01, 0.99, 3)
            scenario = Scenario(prevalence, power, alpha)
            assert posterior_odds(scenario).fdr == significance_breakdown(scenario).fdr

    @pytest.mark.filterwarnings("ignore:power")
    def test_joint_probability_identity(self):
        # P(A and B) both ways: OR/(1+OR) equals the mass-form FDR
        rng = np.random.default_rng(4321)
        for _ in range(50):
            prevalence, power, alpha = rng.uniform(0.01, 0.99, 3)
            odds = posterior_odds(Scenario(prevalence, power, alpha))
            via_odds = odds.posterior_odds_h0 / (1.0 + odds.posterior_odds_h0)
            assert via_odds == pytest.approx(odds.fdr, rel=1e-12)

    def test_invariant_fields(self):
        odds = posterior_odds(Scenario(0.25, 0.7, 0.04))
        assert odds.posterior_odds_h0 == pytest.approx(
            odds.prior_odds_h0 * odds.likelihood_ratio_h0_h1, rel=1e-15)

    def test_zero_prevalence_gives_infinite_odds_not_a_crash(self):
        odds = posterior_odds(Scenario(0.0, 0.8, 0.05))
        assert math.isinf(odds.prior_odds_h0)
        assert math.isinf(odds.posterior_odds_h0)
        assert odds.fdr == 1.0

    def test_full_prevalence(self):
        odds = posterior_odds(Scenario(1.0, 0.8, 0.05))
        assert odds.prior_odds_h0 == 0.0
        assert odds.posterior_odds_h0 == 0.0
        assert odds.fdr == 0.0

    def test_zero_power_rejected(self):
        with pytest.warns(UserWarning):
            scenario = Scenario(0.1, 0.0, 0.05)
        with pytest.raises(DomainError):
            posterior_odds(scenario)


@pytest.mark.parametrize("kind", [np.float32, Decimal, Fraction])
def test_spec_fields_keep_the_rules_floats(kind):
    # each field stores the float its rule returns, so the trees and the
    # odds come out as Python floats and serialise to JSON
    diagnostic_inputs = [kind("0.01"), kind("0.8"), kind("0.95")]
    scenario_inputs = [kind("0.1"), kind("0.8"), kind("0.05")]
    diagnostic = DiagnosticSpec(*diagnostic_inputs)
    scenario = Scenario(*scenario_inputs)
    for spec, inputs in ((diagnostic, diagnostic_inputs), (scenario, scenario_inputs)):
        stored = [getattr(spec, field.name) for field in dataclasses.fields(spec)]
        assert [type(value) for value in stored] == [float] * 3
        assert stored == [float(x) for x in inputs]
    for result in (screening_breakdown(diagnostic, population=10_000),
                   significance_breakdown(scenario), posterior_odds(scenario)):
        json.dumps(result.to_dict(), allow_nan=False)


def _mpmath_min_fdr(p: float) -> float:
    with mpmath.workdps(60):
        b = -mpmath.e * mpmath.mpf(p) * mpmath.ln(mpmath.mpf(p))
        return float(b / (1 + b))


_unit = st.floats(0.0, 1.0)


class TestProperties:
    """fdr + ppv == 1 on random valid trees; inputs with no positives at all
    (an undefined FDR) are skipped."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_unit, _unit, _unit, st.none() | st.floats(1e-300, 1e300))
    def test_significance_fdr_plus_ppv_is_one(self, prevalence, power, alpha, n_tests):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # power < alpha warns
            scenario = Scenario(prevalence, power, alpha)
        try:
            b = significance_breakdown(scenario, n_tests=n_tests)
        except UndefinedResultError:
            assume(False)
        assert abs(b.fdr + b.ppv - 1.0) <= 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_unit, _unit, _unit, st.none() | st.floats(1e-300, 1e300))
    def test_screening_fdr_plus_ppv_is_one(self, prevalence, sensitivity,
                                           specificity, population):
        spec = DiagnosticSpec(prevalence, sensitivity, specificity)
        try:
            b = screening_breakdown(spec, population=population)
        except UndefinedResultError:
            assume(False)
        assert abs(b.fdr + b.ppv - 1.0) <= 1e-15


class TestBergerCalibration:
    def test_against_extended_precision_oracle(self):
        for p in (0.2, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0027, 1e-6):
            assert berger_min_fdr(p) == pytest.approx(_mpmath_min_fdr(p), abs=1e-14)

    def test_bayes_factor_values(self):
        assert berger_min_bayes_factor(0.05) == pytest.approx(0.4072, abs=5e-5)
        assert berger_min_bayes_factor(0.01) == pytest.approx(0.1252, abs=5e-5)

    def test_boundary_limit(self):
        # B -> 1 from below as p -> 1/e; the gap at 1e-12 from the boundary
        # is O(eps^2), far below double resolution, so equality with 1 is
        # the correct floating-point answer here.
        p = 1.0 / math.e - 1e-12
        b = berger_min_bayes_factor(p)
        assert b <= 1.0
        assert b == pytest.approx(1.0, abs=1e-10)
        assert berger_min_fdr(p) == pytest.approx(0.5, abs=1e-10)
        # visibly below 1 once the gap dominates the curvature
        assert berger_min_bayes_factor(1.0 / math.e - 1e-4) < 1.0

    def test_strictly_increasing_and_vanishing_at_zero(self):
        ps = np.logspace(-12, math.log10(1.0 / math.e) - 1e-9, 200)
        values = [berger_min_fdr(p) for p in ps]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert berger_min_fdr(1e-12) < 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0 / math.e, 0.5, 1.0, -0.1):
            with pytest.raises(DomainError):
                berger_min_bayes_factor(bad)
        with pytest.raises(DomainError) as err:
            berger_min_fdr(0.4)
        assert "1/e" in str(err.value)

    def test_table_rows(self):
        rows = berger_table()
        assert [row["p"] for row in rows] == [0.2, 0.1, 0.05, 0.01, 0.005, 0.001]
        for row in rows:
            assert row["min_fdr"] == pytest.approx(_mpmath_min_fdr(row["p"]), abs=1e-14)


class TestAlphaForTargetFdr:
    def test_inverts_the_table_point(self):
        p = alpha_for_target_fdr(0.289)
        assert p == pytest.approx(0.05, abs=1e-3)

    def test_five_percent_target(self):
        # independent extended-precision bisection oracle
        with mpmath.workdps(50):
            target = mpmath.mpf("0.05")
            b_target = target / (1 - target)
            oracle = float(mpmath.findroot(
                lambda q: -mpmath.e * q * mpmath.ln(q) - b_target,
                mpmath.mpf("0.003")))
        p = alpha_for_target_fdr(0.05)
        assert p == pytest.approx(oracle, abs=1e-9)

    def test_roundtrip(self):
        for target in (0.02, 0.1, 0.3):
            p = alpha_for_target_fdr(target)
            assert berger_min_fdr(p) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("target", [1e-300, 1e-12, 1e-6, 0.05, 0.3, 0.49])
    def test_against_lambert_w(self, target):
        # p = exp(W_{-1}(-B/e)) with B = target/(1 - target), in 50 digits
        with mpmath.workdps(50):
            b = mpmath.mpf(target) / (1 - mpmath.mpf(target))
            oracle = float(mpmath.exp(mpmath.lambertw(-b / mpmath.e, -1)))
        assert alpha_for_target_fdr(target) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(math.log(1e-300), math.log(0.5), exclude_max=True).map(math.exp))
    def test_roundtrip_is_relative(self, target):
        assume(target < 0.5)
        assert berger_min_fdr(alpha_for_target_fdr(target)) == pytest.approx(
            target, rel=1e-14, abs=0.0)

    def test_domain(self):
        for bad in (0.0, 0.5, 0.9, -0.2, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                alpha_for_target_fdr(bad)
        # the largest target below 1/2 has its root u = -ln(p) near 1
        assert 0.0 < alpha_for_target_fdr(math.nextafter(0.5, 0.0)) < 1.0 / math.e
        # p underflows to 0
        with pytest.raises(DomainError, match="underflows"):
            alpha_for_target_fdr(5e-324)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats())
    def test_any_float_gives_p_or_domain_error(self, target):
        try:
            p = alpha_for_target_fdr(target)
        except DomainError:
            return
        assert 0.0 < p < 1.0 / math.e
