"""The benchmark's workloads: the CLI commands of one op, and the check on each
command's JSON output.

Every tolerance is taken from tests/test_acceptance.py.  The statistical ones
are scaled from its 100,000-experiment batches to `N_SIMS`, and the binomial
bounds sit at `K_SIGMA` standard errors, so an honest op fails with
probability of order 1e-9 whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Experiments per simulated batch: two full 4096-row chunks, so the default
# thread pool has work for two threads.
N_SIMS = 8192
K_SIGMA = 6.0
# Statistical tolerances of the acceptance suite hold at 100,000 experiments.
SCALE = math.sqrt(100_000 / N_SIMS)

DEFAULT_N_LIST = (3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 50)
# Analytic power at d = 1, alpha = 0.05, as stated in REPRODUCE.md.
STATED_POWER = {3: 0.157, 4: 0.22, 8: 0.46, 16: 0.78, 50: 0.9986}
# power_two_sample(16, 1.0), checked against scipy by the test suite.
POWER_N16 = 0.7813977924664245
BERGER_P = (0.2, 0.1, 0.05, 0.01, 0.005, 0.001)
# Published minimum FDRs; p = 0.2 is left out because the published 0.465
# disagrees with the defining formula (0.4667, see README).
BERGER_STATED = {0.1: 0.385, 0.05: 0.289, 0.01: 0.111, 0.005: 0.067, 0.001: 0.0184}


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[object], list[str]]   # parsed JSON -> problems found


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[Command]]   # op seed -> the op's commands
    warmup: list[list[str]]                    # untimed, run once per process
    sims_per_op: int                           # 0 when nothing is simulated

    @property
    def simulates(self) -> bool:
        return self.sims_per_op > 0


def op_seed(seed: int, index: int) -> int:
    """The master seed of op `index` in a run started with `seed`."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0])


def _close(problems: list[str], label: str, got, want: float, tol: float) -> None:
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        problems.append(f"{label}={got!r}, expected {want!r} +- {tol:g}")


def _min_fdr(p: float) -> float:
    b = -math.e * p * math.log(p)
    return b / (1.0 + b)


def _fdr(prevalence: float, alpha: float, power: float) -> float:
    fp = (1.0 - prevalence) * alpha
    return fp / (fp + prevalence * power)


# ---------------------------------------------------------------------------
# mixture_n16
# ---------------------------------------------------------------------------

def _check_batch(problems, label, batch, seed, delta):
    want = {"n_per_group": 16, "true_mean_control": 0.0, "true_mean_treatment": delta,
            "sd": 1.0, "n_sims": N_SIMS, "alpha": 0.05, "master_seed": seed}
    if batch["config"] != want:
        problems.append(f"{label} config {batch['config']} != {want}")
    hist = batch["p_histogram"]
    if len(hist) != 1000 or sum(hist) != N_SIMS:
        problems.append(f"{label} histogram does not total {N_SIMS} over 1000 bins")
    if sum(hist[:50]) != batch["count_significant"]:
        problems.append(f"{label} count_significant disagrees with its histogram")


def _check_mixture(seed: int):
    def check(data) -> list[str]:
        problems: list[str] = []
        null, effect = data["null"], data["effect"]
        _check_batch(problems, "null", null, seed, 0.0)
        _check_batch(problems, "effect", effect, (seed + 1) % 2 ** 64, 1.0)
        alpha = null["count_significant"] / N_SIMS
        power = effect["count_significant"] / N_SIMS
        fdr = data["mixture"]["fdr"]
        _close(problems, "mixture fdr vs its own rates", fdr, _fdr(0.1, alpha, power), 1e-12)
        # Binomial bound around the analytic FDR: the FDR rises with the
        # null's rate and falls with the effect's.
        se_alpha = math.sqrt(0.05 * 0.95 / N_SIMS)
        se_power = math.sqrt(POWER_N16 * (1.0 - POWER_N16) / N_SIMS)
        lo = _fdr(0.1, 0.05 - K_SIGMA * se_alpha, POWER_N16 + K_SIGMA * se_power)
        hi = _fdr(0.1, 0.05 + K_SIGMA * se_alpha, POWER_N16 - K_SIGMA * se_power)
        if not lo <= fdr <= hi:
            problems.append(f"mixture fdr={fdr!r} outside [{lo:.4f}, {hi:.4f}] "
                            f"around the analytic {_fdr(0.1, 0.05, POWER_N16):.4f}")
        n_null = sum(null["p_histogram"][45:50])
        n_effect = sum(effect["p_histogram"][45:50])
        if (data["interval_count_null"], data["interval_count_effect"]) != (n_null, n_effect):
            problems.append("interval counts disagree with the histograms")
        _close(problems, "interval_fdr", data["interval_fdr"],
               0.9 * n_null / (0.9 * n_null + 0.1 * n_effect), 1e-12)
        _close(problems, "null interval count", n_null, 0.005 * N_SIMS,
               K_SIGMA * math.sqrt(0.005 * 0.995 * N_SIMS))
        return problems
    return check


def _mixture_commands(seed: int) -> list[Command]:
    argv = ["simulate", "--n-per-group", "16", "--delta", "1", "--prevalence", "0.1",
            "--interval", "0.045,0.05", "--format", "json",
            "--n-sims", str(N_SIMS), "--seed", str(seed)]
    return [Command(argv, _check_mixture(seed))]


# ---------------------------------------------------------------------------
# inflation_default
# ---------------------------------------------------------------------------

def _check_power_column(problems: list[str], powers: dict) -> None:
    for n, stated in STATED_POWER.items():
        _close(problems, f"power(n={n})", powers.get(n), stated, 0.005)
    values = [powers[n] for n in sorted(powers)]
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append("power is not increasing in n")


def _check_inflation(rows) -> list[str]:
    problems: list[str] = []
    if [row["n_per_group"] for row in rows] != list(DEFAULT_N_LIST):
        return [f"n column {[row['n_per_group'] for row in rows]} != {DEFAULT_N_LIST}"]
    _check_power_column(problems, {row["n_per_group"]: row["power"] for row in rows})
    mean = {row["n_per_group"]: row["mean_diff_significant"] for row in rows}
    for n, stated, tol in ((16, 1.14, 0.02), (8, 1.4, 0.05), (4, 1.8, 0.08)):
        _close(problems, f"mean significant diff (n={n})", mean[n], stated, tol * SCALE)
    if not mean[50] <= 1.0 + 0.02 * SCALE:
        problems.append(f"mean significant diff (n=50)={mean[50]!r} is still inflated")
    return problems


def _inflation_commands(seed: int) -> list[Command]:
    argv = ["inflation", "--delta", "1", "--format", "json",
            "--n-sims", str(N_SIMS), "--seed", str(seed)]
    return [Command(argv, _check_inflation)]


# ---------------------------------------------------------------------------
# analytic: deterministic, so the seed does not apply
# ---------------------------------------------------------------------------

def _check_solve(n_expected: int):
    def check(data) -> list[str]:
        problems: list[str] = []
        if data["n_per_group"] != n_expected:
            problems.append(f"solve_n gave {data['n_per_group']}, expected {n_expected}")
        if not data["power_at_n"] >= 0.8:
            problems.append(f"power at the solved n is {data['power_at_n']!r} < 0.8")
        return problems
    return check


class _PowerColumn:
    """Collects the 11 `power --n` outputs; the last one checks the column."""

    def __init__(self):
        self.powers: dict[int, float] = {}

    def check(self, data) -> list[str]:
        self.powers[data["n_per_group"]] = data["power"]
        if len(self.powers) < len(DEFAULT_N_LIST):
            return []
        problems: list[str] = []
        _check_power_column(problems, self.powers)
        return problems


def _check_screen(data) -> list[str]:
    problems: list[str] = []
    for key, want in (("false_pos", 495.0), ("true_pos", 80.0), ("positives", 575.0)):
        _close(problems, key, data[key], want, 1e-9)
    _close(problems, "fdr", data["fdr"], 0.8609, 5e-5)
    return problems


def _check_fdr_headline(data) -> list[str]:
    problems: list[str] = []
    for key, want in (("false_pos", 45.0), ("true_pos", 80.0)):
        _close(problems, key, data[key], want, 1e-9)
    _close(problems, "fdr", data["fdr"], 0.36, 1e-15)
    _close(problems, "likelihood ratio", data["likelihood_ratio_h0_h1"], 0.0625, 0.0)
    _close(problems, "posterior odds", data["posterior_odds_h0"], 0.5625, 0.0)
    return problems


def _check_fdr(want: float, tol: float):
    def check(data) -> list[str]:
        problems: list[str] = []
        _close(problems, "fdr", data["fdr"], want, tol)
        return problems
    return check


def _check_berger_table(rows) -> list[str]:
    problems: list[str] = []
    if [row["p"] for row in rows] != list(BERGER_P):
        return [f"table p column {[row['p'] for row in rows]} != {BERGER_P}"]
    for row in rows:
        p = row["p"]
        _close(problems, f"min_fdr({p}) vs formula", row["min_fdr"], _min_fdr(p), 1e-12)
        if p in BERGER_STATED:
            stated = BERGER_STATED[p]
            decimals = len(str(stated).split(".")[1])
            _close(problems, f"min_fdr({p}) vs published", row["min_fdr"], stated,
                   0.5 * 10.0 ** -decimals)
    return problems


def _check_berger_p(p: float, stated: float, tol: float):
    def check(data) -> list[str]:
        problems: list[str] = []
        _close(problems, f"min_fdr({p}) vs formula", data["min_fdr"], _min_fdr(p), 1e-12)
        _close(problems, f"min_fdr({p}) vs stated", data["min_fdr"], stated, tol)
        return problems
    return check


def _check_target_fdr(data) -> list[str]:
    problems: list[str] = []
    _close(problems, "p for a minimum FDR of 0.05", data["p"], 0.0034, 5e-5)
    _close(problems, "formula at that p", _min_fdr(data["p"]), 0.05, 1e-9)
    return problems


def _analytic_commands(seed: int) -> list[Command]:
    del seed  # deterministic workload
    json_fmt = ["--format", "json"]
    column = _PowerColumn()
    commands = [Command(["power", "--solve", "--target", "0.8", "--d", d] + json_fmt,
                        _check_solve(n))
                for d, n in (("1", 17), ("0.2", 394), ("0.01", 156979))]
    commands += [Command(["power", "--n", str(n), "--d", "1"] + json_fmt, column.check)
                 for n in DEFAULT_N_LIST]
    commands += [
        Command(["screen", "--prevalence", "0.01", "--sensitivity", "0.8",
                 "--specificity", "0.95", "--population", "10000"] + json_fmt,
                _check_screen),
        Command(["fdr", "--prevalence", "0.1", "--power", "0.8", "--alpha", "0.05",
                 "--n-tests", "1000"] + json_fmt, _check_fdr_headline),
        Command(["fdr", "--prevalence", "0.5", "--power", "0.8", "--alpha", "0.05"]
                + json_fmt, _check_fdr(0.0588, 1e-4)),
        Command(["fdr", "--prevalence", "0", "--power", "0.8", "--alpha", "0.05"]
                + json_fmt, _check_fdr(1.0, 0.0)),
        Command(["berger", "--table"] + json_fmt, _check_berger_table),
        Command(["berger", "--p", "0.05"] + json_fmt, _check_berger_p(0.05, 0.289, 5e-4)),
        Command(["berger", "--p", "0.0027"] + json_fmt, _check_berger_p(0.0027, 0.042, 1e-3)),
        Command(["berger", "--target-fdr", "0.05"] + json_fmt, _check_target_fdr),
    ]
    return commands


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("mixture_n16", _mixture_commands,
                 warmup=[["simulate", "--n-per-group", "16", "--delta", "1",
                          "--prevalence", "0.1", "--interval", "0.045,0.05",
                          "--format", "json", "--n-sims", "4096"]],
                 sims_per_op=2 * N_SIMS),
        Workload("inflation_default", _inflation_commands,
                 warmup=[["inflation", "--delta", "1", "--format", "json",
                          "--n-sims", "4096", "--n-list", "3,50"]],
                 sims_per_op=len(DEFAULT_N_LIST) * N_SIMS),
        Workload("analytic", _analytic_commands,
                 warmup=[["power", "--n", "16", "--d", "1", "--format", "json"],
                         ["berger", "--table", "--format", "json"],
                         ["fdr", "--prevalence", "0.1", "--power", "0.8",
                          "--alpha", "0.05", "--format", "json"]],
                 sims_per_op=0),
    )
}
