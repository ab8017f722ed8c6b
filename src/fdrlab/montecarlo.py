"""Batched simulation of two-sample t experiments.

A batch is described by one `SimConfig`, and every helper here takes one:
`run_batch` runs it, `inflation_curve` varies its n per point, and
`make_mixture` derives a mixture's null and effect batches from it.

Experiment i of a batch draws its observations from `RngStream(master_seed,
i)`, so any slice of a batch can be recomputed independently and the result
of `run_batch` is bitwise identical no matter how many worker threads run
it.  Work is sharded into fixed-size chunks of experiment indices; partial
aggregates are merged strictly in chunk order.  A chunk builds one stream
per experiment (cheap: a stream only stores its key) and draws all of them
with one `block_uniforms` call, which gives the bits each stream's
`uniforms` would: the chunk's experiments are consecutive streams, so each
block column of its uniforms is one counter range of numpy's Philox.
A chunk past n = 64 takes its rows in slices of at most 2**19 uniforms,
cut by the kernels' own `_row_tiles`, with the same bits, and the uniform
and quantile kernels work in tiles of about 2**16 elements, so a chunk
holds about 6 MiB at most up to n = 2**15, where one row fills a tile
(12 MiB at n = 2**17).
Chunk ranges are generated lazily and at most 2 * threads chunks are in
flight, so memory does not grow with the batch size either.

P values are binned on a fixed 0.001 grid at collection time (bin k covers
the half-open cell (k/1000, (k+1)/1000]), so a batch has flat memory cost
and any grid-aligned interval count is exact.

The input rules for grid bounds, histogram bin widths, curve sample sizes,
thread counts and simulated means and sds live in `fdrlab.errors`, which
imports no numpy, so the CLI checks its flags without loading the engine
(`grid_index`, `grid_interval`, `histogram_ticks`, `curve_sizes`,
`thread_count`, `simulated_scale`, and `simulated_sd`, which bounds an sd
below at 1e-100 as well).  This module imports those same objects, with
`MAX_THREADS` and `DEFAULT_MASTER_SEED`, and serves them under its own name.
"""

from __future__ import annotations

import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import power as power_mod
from .distributions import RngStream, _row_tiles, block_uniforms, normal_quantile
# grid_index and MAX_THREADS are not used here, only served under this name
from .errors import (DEFAULT_MASTER_SEED, MAX_THREADS, _N_BINS, ConfigurationError,
                     UndefinedResultError, curve_sizes, grid_index, grid_interval,
                     histogram_ticks, integer_at_least, open_probability,
                     probability, simulated_scale, simulated_sd, thread_count,
                     uint64_value)
from .fdr_calculus import Breakdown, TestScenario, significance_breakdown
from .ttest import batch_two_sample_t

# Experiments per shard.  Fixed: the shard layout (not the thread count)
# determines summation order, so changing this constant would perturb last
# bits of the moment sums.
_CHUNK = 4096

# Most uniforms (4 MiB) a chunk draws, transforms and tests at once, so a
# chunk past n = 64 takes its rows in slices.  A row's p and diff depend on
# its key alone, and the sums run over the whole chunk: slices change no bit.
_UNIFORM_BUDGET = 2 ** 19

# Version of the simulated stream: the uniforms, the normal quantile, the
# t test and its p value, and the chunk layout above.  Within a version a
# seeded output is bit for bit reproducible; a change to any of those bits
# bumps it, and CHANGES.md records what each version changed.
STREAM_VERSION = 5

# Edges of the p-value grid; edge k is the double k / 1000.0 that the grid
# rules compare against.
_BIN_EDGES = np.arange(_N_BINS + 1) / 1000.0


@dataclass(frozen=True)
class SimConfig:
    """Full specification of one simulation batch."""

    n_per_group: int
    true_mean_control: float = 0.0
    true_mean_treatment: float = 0.0
    sd: float = 1.0
    n_sims: int = 100_000
    alpha: float = 0.05
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        # Each field keeps its rule's Python int or float, so a numpy scalar,
        # Decimal or Fraction given here still serialises to JSON.
        for name, rule in (("n_per_group", partial(integer_at_least, minimum=2)),
                           ("n_sims", partial(integer_at_least, minimum=1)),
                           ("true_mean_control", simulated_scale),
                           ("true_mean_treatment", simulated_scale),
                           ("sd", simulated_sd), ("alpha", open_probability),
                           ("master_seed", uint64_value)):
            object.__setattr__(self, name, rule(getattr(self, name), name=name,
                                                error=ConfigurationError))

    @property
    def true_diff(self) -> float:
        return self.true_mean_treatment - self.true_mean_control

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class SimSummary:
    """Aggregated outcomes of one batch (see `run_batch`)."""

    config: SimConfig
    count_significant: int
    p_histogram: np.ndarray
    mean_diff_all: float
    sd_diff_all: float
    mean_diff_significant: float
    count_wrong_sign_significant: int

    @property
    def n_sims(self) -> int:
        return self.config.n_sims

    @property
    def fraction_significant(self) -> float:
        return self.count_significant / self.config.n_sims

    def count_in_interval(self, lo: float, hi: float) -> int:
        """Number of p values in (lo, hi], both bounds on the 0.001 grid.

        The left bound is exclusive and the right inclusive, matching the
        half-open histogram cells; with a grid-aligned alpha,
        ``count_in_interval(0, alpha) == count_significant`` exactly, since
        p values are never 0.
        """
        lo_idx, hi_idx = grid_interval(lo, hi)
        return int(self.p_histogram[lo_idx:hi_idx].sum())

    def to_dict(self) -> dict:
        mean_sig = self.mean_diff_significant
        return {
            "config": self.config.to_dict(),
            "count_significant": self.count_significant,
            "fraction_significant": self.fraction_significant,
            "mean_diff_all": self.mean_diff_all,
            "sd_diff_all": self.sd_diff_all,
            "mean_diff_significant": None if math.isnan(mean_sig) else mean_sig,
            "count_wrong_sign_significant": self.count_wrong_sign_significant,
            "p_histogram_bin_width": 0.001,
            "p_histogram": self.p_histogram.tolist(),
            "stream_version": STREAM_VERSION,
        }

    def to_json(self) -> str:
        """`to_dict` as strict JSON; a NaN or infinity raises ValueError."""
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def _simulate_chunk(config: SimConfig, start: int, stop: int) -> tuple[tuple, np.ndarray]:
    """Simulate experiments [start, stop): their sums (count, sum and sum of
    squares of diff - true_diff, significant count, sum of significant
    diffs, wrong-sign count) and their 0.001-grid p histogram."""
    n = config.n_per_group
    m = stop - start
    p, diff = np.empty(m), np.empty(m)
    for rows in _row_tiles((m, 2 * n), _UNIFORM_BUDGET):
        z = block_uniforms([RngStream(config.master_seed, index)
                            for index in range(start, stop)[rows]], 2 * n)
        normal_quantile(z, out=z)
        z *= config.sd
        z[:, :n] += config.true_mean_control
        z[:, n:] += config.true_mean_treatment
        _, _, p[rows], diff[rows], _ = batch_two_sample_t(z[:, :n], z[:, n:])
        del z  # so that two slices' uniforms are never held at once

    sig = p <= config.alpha
    # diff == 0 means p == 1, so a true difference of 0 counts no wrong sign
    wrong = int(np.count_nonzero(sig & (np.sign(diff) == -np.sign(config.true_diff))))

    hist = np.bincount(np.searchsorted(_BIN_EDGES, p, side="left") - 1,
                       minlength=_N_BINS).astype(np.int64)
    # centred on the true difference, so that the variance does not cancel
    # when |true_diff| is far above the sd
    dev = diff - config.true_diff
    sums = (m, float(dev.sum()), float((dev * dev).sum()),
            int(np.count_nonzero(sig)), float(diff[sig].sum()), wrong)
    return sums, hist


def _partials(config: SimConfig, threads: int) -> Iterator[tuple[tuple, np.ndarray]]:
    """Chunk partials in chunk order, with at most 2 * threads in flight."""
    ranges = ((start, min(start + _CHUNK, config.n_sims))
              for start in range(0, config.n_sims, _CHUNK))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for a, b in ranges:
            pending.append(pool.submit(_simulate_chunk, config, a, b))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run_batch(config: SimConfig, threads: int | None = None) -> SimSummary:
    """Simulate `config.n_sims` experiments and aggregate the outcomes.

    `threads` only sets the worker pool size, at most `MAX_THREADS` (checked
    before any thread starts); it never affects the result, which is bitwise
    reproducible from `config` alone.
    """
    threads = thread_count(threads)
    # Merge strictly in chunk order.
    totals = (0, 0.0, 0.0, 0, 0.0, 0)
    hist = np.zeros(_N_BINS, dtype=np.int64)
    for sums, chunk_hist in _partials(config, threads):
        totals = tuple(a + b for a, b in zip(totals, sums))
        hist += chunk_hist
    count, sum_dev, sum_dev_sq, count_sig, sum_diff_sig, count_wrong = totals

    mean = config.true_diff + sum_dev / count
    if count > 1:
        var = max(sum_dev_sq - sum_dev * sum_dev / count, 0.0) / (count - 1)
    else:
        var = 0.0
    mean_sig = sum_diff_sig / count_sig if count_sig > 0 else math.nan

    return SimSummary(
        config=config,
        count_significant=count_sig,
        p_histogram=hist,
        mean_diff_all=mean,
        sd_diff_all=math.sqrt(var),
        mean_diff_significant=mean_sig,
        count_wrong_sign_significant=count_wrong,
    )


@dataclass(frozen=True)
class MixtureSpec:
    """A prevalence-weighted blend of a null batch and an effect batch."""

    prevalence: float
    null_summary: SimSummary
    effect_summary: SimSummary

    def __post_init__(self):
        object.__setattr__(self, "prevalence", probability(self.prevalence, "prevalence"))
        a = self.null_summary.config
        b = self.effect_summary.config
        mismatched = [name for name in ("n_per_group", "sd", "alpha", "n_sims")
                      if getattr(a, name) != getattr(b, name)]
        if mismatched:
            raise ConfigurationError(
                "null and effect summaries disagree on: " + ", ".join(mismatched)
            )


def mixture_fdr(spec: MixtureSpec) -> Breakdown:
    """False discovery breakdown of the mixture, from simulated rates.

    Delegates the tree arithmetic to `significance_breakdown` with the
    batches' significant fractions standing in for alpha and power, so the
    simulated and closed-form routes share one formula.
    """
    scenario = TestScenario(prevalence=spec.prevalence,
                            power=spec.effect_summary.fraction_significant,
                            alpha=spec.null_summary.fraction_significant)
    return significance_breakdown(scenario)


def interval_fdr(spec: MixtureSpec, lo: float, hi: float) -> float:
    """False discovery rate among tests whose p value falls in (lo, hi].

    Both bounds must sit on the 0.001 grid.  Raises `UndefinedResultError`
    when neither batch put any test in the interval.
    """
    null_count = spec.null_summary.count_in_interval(lo, hi)
    effect_count = spec.effect_summary.count_in_interval(lo, hi)
    fp_mass = (1.0 - spec.prevalence) * (null_count / spec.null_summary.n_sims)
    tp_mass = spec.prevalence * (effect_count / spec.effect_summary.n_sims)
    if fp_mass + tp_mass <= 0.0:
        raise UndefinedResultError(
            f"no simulated tests produced a p value in ({lo}, {hi}]"
        )
    return fp_mass / (fp_mass + tp_mass)


class InflationPoint(NamedTuple):
    n_per_group: int
    power: float
    mean_diff_significant: float


def inflation_curve(n_values: Sequence[int], base_config: SimConfig,
                    threads: int | None = None) -> list[InflationPoint]:
    """Effect-size inflation versus per-group sample size.

    Each point runs a fresh deterministic batch (seed offset by n, so points
    never share streams) and pairs the simulated conditional mean difference
    with the analytic power at that n.
    """
    d = base_config.true_diff / base_config.sd
    points = []
    for n in curve_sizes(n_values):
        cfg = replace(base_config, n_per_group=n,
                      master_seed=(base_config.master_seed + n) % 2 ** 64)
        # before the batch, so that an alpha it rejects costs no simulation
        analytic = power_mod.power_two_sample(n, d, base_config.alpha)
        summary = run_batch(cfg, threads=threads)
        points.append(InflationPoint(n, analytic, summary.mean_diff_significant))
    return points


def make_mixture(prevalence: float, config: SimConfig,
                 threads: int | None = None) -> MixtureSpec:
    """Run the paired null and effect batches behind a mixture analysis.

    `config` describes the effect batch, as `inflation_curve`'s base does.
    The null batch is `config` with the treatment mean set to the control
    mean, under `config.master_seed`; the effect batch is `config` under
    `master_seed + 1` (mod 2**64), so the two never share substreams.  A
    prevalence outside [0, 1] raises ``DomainError`` before either batch
    runs.
    """
    prevalence = probability(prevalence, "prevalence")
    null_cfg = replace(config, true_mean_treatment=config.true_mean_control)
    effect_cfg = replace(config, master_seed=(config.master_seed + 1) % 2 ** 64)
    return MixtureSpec(prevalence, run_batch(null_cfg, threads=threads),
                       run_batch(effect_cfg, threads=threads))


def histogram_rows(summary: SimSummary, bin_width: float = 0.05) -> list[tuple[float, int]]:
    """Coarsen the 0.001 histogram to `bin_width` rows of (bin_left, count).

    The width must be a multiple of 0.001 that divides 1 evenly.
    """
    ticks = histogram_ticks(bin_width)
    counts = summary.p_histogram.reshape(-1, ticks).sum(axis=1)
    return [(i * ticks / 1000.0, int(c)) for i, c in enumerate(counts)]


def write_histogram_csv(summary: SimSummary, path, bin_width: float = 0.05) -> None:
    """Write the p-value histogram as two-column CSV: bin_left,count."""
    rows = histogram_rows(summary, bin_width)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_left,count\n")
        for left, count in rows:
            fh.write(f"{left!r},{count}\n")
