"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are echoed in pytest's terminal summary (an "acceptance criteria"
section) on every run; with ``-s`` they also appear inline as they go by.

The Monte Carlo criteria run against the fixed-seed 100,000-experiment
batches from conftest, so every number asserted here is deterministic.

Criterion 13 checks the law of the simulated p value itself: for an
effect batch P(p <= x) is exactly `power_two_sample(n, d, alpha=x)`, and
for a null batch p is uniform.  Its batches are conftest's, whose seeds were
fixed before the criterion existed; a failure is a finding to report with
its numbers, never a reason to choose another seed.  Criteria 8 and 9 keep
their printed bands and also check the simulated FDR within 4 delta-method
SEs of its exact value; criterion 6 prints the z of its two readings.

Erratum: the classic printed calibration table gives 0.465 at p = 0.2.  That
is a misprint for 0.467: the defining formula alpha(p) = 1/(1 + 1/(-e p ln p))
gives 0.46666 there, and the same formula reproduces the other five printed
entries.  Criterion 4 checks the formula's value, 0.467.
"""

import json
import math
import os

import numpy as np
import pytest
import scipy.stats

from fdrlab.cli import main as cli_main
from fdrlab.fdr_calculus import (
    DiagnosticSpec,
    alpha_for_target_fdr,
    berger_min_fdr,
    posterior_odds,
    screening_breakdown,
    significance_breakdown,
)
from fdrlab.fdr_calculus import TestScenario as Scenario
from fdrlab.montecarlo import MixtureSpec, interval_fdr, mixture_fdr
from fdrlab.power import power_two_sample


def _report(number: int, description: str, checks: list[tuple[str, bool]]):
    import conftest

    ok = all(passed for _, passed in checks)
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    failed = [label for label, passed in checks if not passed]
    assert ok, f"criterion {number} failed: {'; '.join(failed)}"


def test_criterion_01_screening_exactness():
    b = screening_breakdown(DiagnosticSpec(0.01, 0.8, 0.95), population=10_000)
    checks = [
        (f"FP={b.false_pos}", abs(b.false_pos - 495.0) < 1e-9),
        (f"TP={b.true_pos}", abs(b.true_pos - 80.0) < 1e-9),
        (f"positives={b.positives}", abs(b.positives - 575.0) < 1e-9),
        (f"FDR={b.fdr:.6f}", abs(b.fdr - 0.8609) <= 5e-5),
        (f"PPV={b.ppv:.6f}", abs(b.ppv - 0.1391) <= 5e-5),
    ]
    _report(1, "screening tree: FP 495, TP 80, FDR 0.8609 on 10,000 people", checks)


def test_criterion_02_significance_exactness():
    b = significance_breakdown(Scenario(0.1, 0.8, 0.05), n_tests=1000)
    odds = posterior_odds(Scenario(0.1, 0.8, 0.05))
    checks = [
        (f"FP={b.false_pos}", abs(b.false_pos - 45.0) < 1e-9),
        (f"TP={b.true_pos}", abs(b.true_pos - 80.0) < 1e-9),
        (f"FDR={b.fdr!r}", abs(b.fdr - 0.36) < 1e-15),
        (f"LR={odds.likelihood_ratio_h0_h1!r}", odds.likelihood_ratio_h0_h1 == 0.0625),
        (f"OR={odds.posterior_odds_h0!r}", odds.posterior_odds_h0 == 0.5625),
        (f"odds FDR={odds.fdr!r}", abs(odds.fdr - 0.36) < 1e-15),
        ("breakdown and odds FDR identical", odds.fdr == b.fdr),
    ]
    _report(2, "significance tree: FP 45, TP 80, FDR 0.36; odds 0.5625", checks)


def test_criterion_03_even_prevalence():
    fdr = significance_breakdown(Scenario(0.5, 0.8, 0.05)).fdr
    _report(3, "prevalence 0.5 gives FDR 0.0588",
            [(f"FDR={fdr:.6f}", abs(fdr - 0.0588) <= 1e-4)])


def test_criterion_04_berger_table():
    # The printed table reads 0.465 at p = 0.2, a misprint for 0.467: the
    # formula gives 0.46666 there and reproduces the other five entries.
    table = {0.2: 0.467, 0.1: 0.385, 0.05: 0.289,
             0.01: 0.111, 0.005: 0.067, 0.001: 0.0184}
    checks = []
    for p, stated in table.items():
        computed = berger_min_fdr(p)
        # agreement at the precision the value is stated with
        decimals = len(str(stated).split(".")[1])
        tolerance = 0.5 * 10.0 ** (-decimals)
        label = f"alpha({p})={computed:.6f} vs stated {stated}"
        if p == 0.2:
            label += " (published 0.465 is a misprint)"
        checks.append((label, abs(computed - stated) <= tolerance))
    three_sigma = berger_min_fdr(0.0027)
    checks.append((f"alpha(0.0027)={three_sigma:.6f}",
                   abs(three_sigma - 0.042) <= 1e-3))
    _report(4, "minimum-FDR calibration table and the 3-sigma point", checks)


def test_criterion_05_analytic_power():
    expected = {3: 0.157, 4: 0.22, 8: 0.46, 16: 0.78, 50: 0.9986}
    checks = []
    for n, stated in expected.items():
        computed = power_two_sample(n, 1.0, 0.05)
        checks.append((f"power(n={n})={computed:.5f} vs {stated}",
                       abs(computed - stated) <= 0.005))
    _report(5, "analytic power at n = 3, 4, 8, 16, 50", checks)


def test_criterion_06_monte_carlo_null(null16):
    fraction = null16.fraction_significant
    coarse = null16.p_histogram.reshape(20, 50).sum(axis=1)
    deviation = int(np.max(np.abs(coarse - 5000)))
    # binomial z readings under the exact law, where p is uniform; the gates
    # are the bands alone
    n = null16.n_sims
    z_fraction = (fraction - 0.05) / math.sqrt(0.05 * 0.95 / n)
    z_bin = deviation / math.sqrt(n * 0.05 * 0.95)
    checks = [
        (f"fraction significant={fraction:.5f}", abs(fraction - 0.05) <= 0.003),
        (f"max 0.05-bin deviation={deviation}", deviation <= 207),
    ]
    _report(6, f"null batch: 5% significant ({fraction:.5f}, z = {z_fraction:+.2f}), "
               f"flat p histogram (largest 0.05-bin deviation {deviation}, "
               f"|z| = {z_bin:.2f}); bands +- 0.003 and 207", checks)


def test_criterion_07_monte_carlo_effect(eff16):
    fraction = eff16.fraction_significant
    checks = [
        (f"fraction significant={fraction:.5f}", abs(fraction - 0.78) <= 0.005),
        (f"mean diff={eff16.mean_diff_all:.5f}",
         abs(eff16.mean_diff_all - 1.0) <= 0.004),
        (f"sd diff={eff16.sd_diff_all:.5f}",
         abs(eff16.sd_diff_all - 0.354) <= 0.004),
    ]
    _report(7, "effect batch: 78% significant, differences ~ N(1, 0.354)", checks)


def _exact_and_se(prevalence, x, y, null, effect):
    """The mixture FDR at a null rate x and an effect rate y, and the
    delta-method SE of its simulated value from the two batches' binomial
    counts at those rates."""
    a, b = 1.0 - prevalence, prevalence
    exact = a * x / (a * x + b * y)
    slope = a * b / (a * x + b * y) ** 2
    se = slope * math.sqrt((y * y * x * (1.0 - x) / null.n_sims)
                           + (x * x * y * (1.0 - y) / effect.n_sims))
    return exact, se


def test_criterion_08_mixture_fdr(null16, eff16):
    mixed = mixture_fdr(MixtureSpec(0.1, null16, eff16)).fdr
    zero = mixture_fdr(MixtureSpec(0.0, null16, eff16)).fdr
    one = mixture_fdr(MixtureSpec(1.0, null16, eff16)).fdr
    # The band is the tree's value at power 0.8; the batch's power is the
    # t test's, so the exact mixture FDR is the tree's at that power.  The
    # simulated value must also lie within 4 delta-method SEs of it.
    power = power_two_sample(16, 1.0, 0.05)
    exact, se = _exact_and_se(0.1, 0.05, power, null16, eff16)
    assert exact == pytest.approx(significance_breakdown(Scenario(0.1, power, 0.05)).fdr,
                                  rel=1e-15, abs=0.0)
    z = (mixed - exact) / se
    checks = [
        (f"prevalence 0.1 FDR={mixed:.5f}", abs(mixed - 0.36) <= 0.01),
        (f"prevalence 0.1 exact FDR={exact:.5f}, SE={se:.5f}, z={z:+.2f}", abs(z) <= 4.0),
        (f"prevalence 0 FDR={zero!r}", zero == 1.0),
        (f"prevalence 1 FDR={one!r}", one == 0.0),
    ]
    _report(8, f"simulated mixture FDR at prevalence 0.1: {mixed:.5f} (exact "
               f"{exact:.5f}, SE {se:.5f}, z = {z:+.2f}), band 0.36 +- 0.01, "
               "|z| <= 4; 1 and 0 at prevalence 0 and 1", checks)


def test_criterion_09_interval_fdr(null16, eff16):
    half = interval_fdr(MixtureSpec(0.5, null16, eff16), 0.045, 0.05)
    tenth = interval_fdr(MixtureSpec(0.1, null16, eff16), 0.045, 0.05)
    n_null = null16.count_in_interval(0.045, 0.05)
    n_eff = eff16.count_in_interval(0.045, 0.05)
    checks = [
        (f"interval counts null={n_null}, effect={n_eff}", True),
        (f"prevalence 0.5 FDR={half:.5f}", abs(half - 0.26) <= 0.02),
        (f"prevalence 0.1 FDR={tenth:.5f}", abs(tenth - 0.76) <= 0.02),
    ]
    # The exact interval FDR, the "p-equals" view of Colquhoun (R. Soc. Open
    # Sci. 4:171085, 2017): a null p value falls in (0.045, 0.05] with
    # probability 0.005, an effect one with the power difference below.  The
    # simulated value must lie within 4 delta-method SEs of it, the SE taken
    # from the two batches' binomial counts at those probabilities.
    x = 0.005
    y = power_two_sample(16, 1.0, 0.05) - power_two_sample(16, 1.0, 0.045)
    readings = []
    for prevalence, simulated in ((0.5, half), (0.1, tenth)):
        exact, se = _exact_and_se(prevalence, x, y, null16, eff16)
        z = (simulated - exact) / se
        checks.append((f"prevalence {prevalence} exact FDR={exact:.5f}, SE={se:.5f}, "
                       f"z={z:+.2f}", abs(z) <= 4.0))
        readings.append(f"{simulated:.5f} (exact {exact:.5f}, z = {z:+.2f})")
    _report(9, "FDR among p values just under 0.05 (interval 0.045-0.05): "
               f"{readings[0]} at prevalence 0.5, {readings[1]} at 0.1; "
               "bands 0.26 and 0.76 +- 0.02, |z| <= 4", checks)


def test_criterion_10_inflation(effect_batches):
    expected = {16: (1.14, 0.02), 8: (1.4, 0.05), 4: (1.8, 0.08)}
    checks = []
    for n, (stated, tolerance) in expected.items():
        mean_sig = effect_batches[n].mean_diff_significant
        checks.append((f"n={n}: mean significant diff={mean_sig:.4f} vs {stated}",
                       abs(mean_sig - stated) <= tolerance))
    mean50 = effect_batches[50].mean_diff_significant
    checks.append((f"n=50: mean significant diff={mean50:.4f}", mean50 <= 1.02))
    _report(10, "effect-size inflation at n = 16, 8, 4 and vanishing at n = 50",
            checks)


def test_criterion_11_determinism(capsys):
    argv = ["simulate", "--n-per-group", "4", "--delta", "1",
            "--n-sims", "3000", "--seed", "20140216", "--format", "json",
            "--prevalence", "0.1", "--interval", "0.045,0.05"]
    outputs = []
    for threads in ("1", str(os.cpu_count() or 1), "1", str(os.cpu_count() or 1)):
        code = cli_main(argv + ["--threads", threads])
        out = capsys.readouterr().out
        outputs.append((code, out))
    codes_ok = all(code == 0 for code, _ in outputs)
    identical = len({out for _, out in outputs}) == 1
    with capsys.disabled():
        _report(11, "repeated seeded runs are byte-identical at 1 and max threads",
                [("exit codes 0", codes_ok), ("byte-identical JSON", identical)])


def test_criterion_12_oracle_consistency(null16, eff16):
    rng = np.random.default_rng(20140216)
    checks = []
    worst_closed = 0.0
    for _ in range(20):
        prevalence = rng.uniform(0.02, 0.98)
        power = rng.uniform(0.1, 0.99)
        alpha = rng.uniform(0.005, 0.09)
        # closed form of the conditional-probability identity
        closed = (alpha * (1.0 - prevalence)
                  / (alpha * (1.0 - prevalence) + power * prevalence))
        via_tree = significance_breakdown(Scenario(prevalence, power, alpha)).fdr
        worst_closed = max(worst_closed, abs(via_tree - closed))
    checks.append((f"analytic-rate mixture vs closed form, worst |diff|={worst_closed:.2e}",
                   worst_closed <= 1e-12))

    # simulated rates against the analytic ones, 3 binomial SEs
    sim_alpha = null16.fraction_significant
    sim_power = eff16.fraction_significant
    true_alpha = 0.05
    true_power = power_two_sample(16, 1.0, 0.05)
    se_alpha = math.sqrt(true_alpha * (1 - true_alpha) / null16.n_sims)
    se_power = math.sqrt(true_power * (1 - true_power) / eff16.n_sims)
    checks.append((f"simulated alpha={sim_alpha:.5f} vs {true_alpha}",
                   abs(sim_alpha - true_alpha) <= 3 * se_alpha))
    checks.append((f"simulated power={sim_power:.5f} vs {true_power:.5f}",
                   abs(sim_power - true_power) <= 3 * se_power))
    sim_fdr = mixture_fdr(MixtureSpec(0.1, null16, eff16)).fdr
    analytic_fdr = significance_breakdown(Scenario(0.1, true_power, true_alpha)).fdr
    checks.append((f"simulated mixture FDR={sim_fdr:.5f} vs analytic {analytic_fdr:.5f}",
                   abs(sim_fdr - analytic_fdr) <= 0.01))
    _report(12, "mixture arithmetic equals the closed form; simulation within 3 SE",
            checks)


def _chi2_pooled(observed, expected) -> tuple[float, int, float, float]:
    """Pearson's chi-squared of `observed` against `expected` counts, with
    adjacent cells pooled until each expected count is at least 5 (a short
    remainder joins the last cell): the statistic, its degrees of freedom,
    scipy's p value and the smallest pooled expected count."""
    pooled_o, pooled_e = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            pooled_o.append(o_acc)
            pooled_e.append(e_acc)
            o_acc = e_acc = 0.0
    pooled_o[-1] += o_acc
    pooled_e[-1] += e_acc
    o, e = np.array(pooled_o), np.array(pooled_e)
    stat = float(np.sum((o - e) ** 2 / e))
    df = len(e) - 1
    return stat, df, float(scipy.stats.chi2.sf(stat, df)), float(e.min())


# A batch fails when its chi-squared p value is below this, fixed before the
# first run.  Six batches are tested, so under the exact law the chance that
# any one fails is at most 6 * 1e-4 = 6e-4 (Bonferroni).
_LAW_P_MIN = 1e-4


def test_criterion_13_p_value_law(null16, effect_batches):
    checks, p_values = [], []
    # effect batches: the 50 cells of 0.001 at or below 0.05, whose
    # probabilities are differences of the power at successive alphas, and
    # one cell for p > 0.05
    grid = np.arange(1, 51) / 1000.0
    for n, batch in sorted(effect_batches.items()):
        cdf = np.array([power_two_sample(n, 1.0, x) for x in grid])
        probs = np.append(np.diff(cdf, prepend=0.0), 1.0 - cdf[-1])
        observed = np.append(batch.p_histogram[:50], batch.p_histogram[50:].sum())
        stat, df, p, e_min = _chi2_pooled(observed, batch.n_sims * probs)
        p_values.append(f"{p:.3g}")
        checks.append((f"n={n}, d=1: chi2={stat:.1f} on {df} df, p={p:.3g}, "
                       f"min expected {e_min:.1f}", p >= _LAW_P_MIN))
    # the null batch: 20 coarse bins of 0.05, uniform
    observed = null16.p_histogram.reshape(20, 50).sum(axis=1)
    stat, df, p, e_min = _chi2_pooled(observed, np.full(20, null16.n_sims / 20))
    checks.append((f"null n=16: chi2={stat:.1f} on {df} df, p={p:.3g}", p >= _LAW_P_MIN))
    _report(13, "p value law: chi2 p = " + ", ".join(p_values) + " at n = 3, 4, 8, 16, "
            f"50 (d = 1) and {p:.3g} for the null; each must be >= {_LAW_P_MIN:g}", checks)
