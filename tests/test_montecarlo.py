"""The simulation engine: bitwise determinism, consistency with the scalar
t-test path, histogram/interval bookkeeping, mixture arithmetic, and the
inflation statistic against a truncated-normal quadrature oracle.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings, strategies as st

from fdrlab.distributions import RngStream, sample_normal
from fdrlab.errors import ConfigurationError, DomainError, UndefinedResultError
from fdrlab import distributions, montecarlo
from fdrlab.montecarlo import (
    MixtureSpec,
    SimConfig,
    grid_index,
    histogram_rows,
    inflation_curve,
    interval_fdr,
    make_mixture,
    mixture_fdr,
    run_batch,
    write_histogram_csv,
)
from fdrlab.power import power_two_sample, student_t_quantile
from fdrlab.ttest import two_sample_t


def test_bitwise_determinism_across_runs_and_threads():
    cfg = SimConfig(n_per_group=4, true_mean_treatment=1.0, n_sims=20_000,
                    master_seed=77)
    first = run_batch(cfg, threads=1)
    again = run_batch(cfg, threads=1)
    pooled = run_batch(cfg, threads=8)
    assert first.to_json() == again.to_json()
    assert first.to_json() == pooled.to_json()
    assert np.array_equal(first.p_histogram, pooled.p_histogram)


def test_bounded_pipeline_same_bits_for_any_thread_count():
    # 11 chunks, the last holding one experiment: more chunks than the
    # 2 * threads that may be in flight
    cfg = SimConfig(n_per_group=3, true_mean_treatment=0.7,
                    n_sims=10 * montecarlo._CHUNK + 1, master_seed=2 ** 64 - 1)
    single = run_batch(cfg, threads=1)
    assert run_batch(cfg, threads=3).to_json() == single.to_json()
    assert int(single.p_histogram.sum()) == cfg.n_sims


_MAX64 = 2 ** 64 - 1

# SHA-256 of run_batch(...).to_json() at 8199 experiments (two full chunks and
# a short one of 7), true difference 0.5, by stream version.  The cases run in
# this order, in one process, so a kernel that keeps buffers between chunks is
# exercised across different n and across a short final chunk.  A change to
# the simulated bits adds a table under a new STREAM_VERSION; the older ones
# stay as the record of what each version gave.
_BATCH_DIGESTS = {
    1: {
        (50, 0): "9b09b590090b464ac2db814ae00f7603900ff55baad5f1b79c3165f550f6d2af",
        (50, _MAX64): "561caea1bd522ce39510355c1773e61042e305436220d0c0f265b825ccb973dd",
        (2, 0): "d41d25dfeac832ce3fc7daeb0093deb828941a48e7b28cb89aa2113e5213f257",
        (2, _MAX64): "de90e86180d53acaa28fa4c095706aceb9a04a2e4ed8d2503054908cb897a377",
        (16, 0): "3984cb715bcea13dbe371df4e8fd113ef4fe4aa175213cf5345bd2060de5bdd9",
        (16, _MAX64): "21e3b880ccedbb6d212625b307a045d76e0590c8cce27c6c91bfffd66c3d86f8",
        (3, 0): "6f2d8207ab21e9d3c8904d830003bbf96ddbe2ccb6492a686f6840370c433a05",
        (3, _MAX64): "4b02da47bb017d8bfd18929e545e22873d0bd91d99e9bb42ab42e7dd1e596c6b",
    },
    2: {
        (50, 0): "ac2d0d7de826ae049bfcafb30b727c5237c80222489806a4ab406caeb6eec481",
        (50, _MAX64): "6f546b64ff8ba258bdf49177cb39757e1821921364425873af8e04174d2a30a0",
        (2, 0): "dc1ef9b28836fb5a69d49674ba8e2bc96d65906b5131d7cace619427142e4549",
        (2, _MAX64): "8b3a0eab20caf4f1899cbafc2b8120445cd81369583a3b5d94de906ce9b43c61",
        (16, 0): "26cbb8d18586c6407f70e7b915abdeb46f0746799dd0104283868c3d92df56d4",
        (16, _MAX64): "577b3e7016dacf51de04cf4ccf1d7faf771a2f11ee113aae4aa63ac19a25500b",
        (3, 0): "cfe5cb56c7b3b2c20c0efcac767742fbfa5b3ca4bba0d0ffca08d9cc11166ffc",
        (3, _MAX64): "abcb3c2018b22db055c1930f389cd85004305d1e19ebd9948ddddbb23a94fe75",
    },
    # version 3: each of these JSONs is version 2's with "stream_version": 3
    3: {
        (50, 0): "cded6a534a776cbd357a625c0ec0dd87effeb4957a83dd94787f38c0bc8b10e7",
        (50, _MAX64): "a96cc032d264e8a5a118d632f7f2f022729220c83f2e1fa9e811180b34362399",
        (2, 0): "fbecf559ed36df891ce2dad55636191487aa41da6aa6b5796000c24fa6679356",
        (2, _MAX64): "ee8d652c0703fadfc9b443e98ed5184d62cec8e81ec8040132c71a3dbfa0d1b3",
        (16, 0): "7dbcec7605ebe551bd23e02b576d9b685ecdcb445f97e40a2911b855561df432",
        (16, _MAX64): "2df35dda5cec62a765ae2440b7585aa7afa59f945be63d1f6f6372ba7007a835",
        (3, 0): "b2c00ac67ab12497f41d8c5f94cccaa35879b8fc8d5708809c80f692c381db48",
        (3, _MAX64): "dbf9763f9f19979a59ff09a73afbd69f7b6368ce3e3ee165f96e7a50a6cf3df4",
    },
    # version 4: likewise version 3's with "stream_version": 4
    4: {
        (50, 0): "f25acbff972ba1617a7a717f3924e321efd5567b6a2474d66775fc4f39bdce4c",
        (50, _MAX64): "d123bce2e12a2a37339bbe2680c50e18f54c2b1d6240bb47df04aea814c76352",
        (2, 0): "e1361d9bb84d3d6ef8aca517b49de2c7433f6cbd99976e2f87b886fc1139adbb",
        (2, _MAX64): "9ce8941abb229fe569d7d19f44f3483521030c7a1ea100a98cdaaa35979747b7",
        (16, 0): "82106cd4df09d3e9ca98c9649f91270c2ee8a7ee7c430bf3145e40ecf425bdb5",
        (16, _MAX64): "1389654ab8cac205c738e3ea0785e95d052cb71e136a8f23cef9216dcdd56e42",
        (3, 0): "2d785c321e1ab2c5c021f4333f947808fb4c9ef0271fc6c1d04f6c0171aece12",
        (3, _MAX64): "f02a19783e886e560bd1ced577451c2d1988d14cda66800b1f1cbb5a0327a311",
    },
    # version 5: block b of stream i at counter i + 2**64 * b + 1 under the
    # key (seed, 0), and the moment sums centred on the true difference
    5: {
        (50, 0): "68d65f25f13487506d6b3656ec2c332c2703aa15c0aa5a7f464bba11d7c15be6",
        (50, _MAX64): "744bb969e26875e5d7ba24d5965c78650f052bc7505c75fb99163a62f0473174",
        (2, 0): "9c5a493d454948c0a4bb52a6909ee97360b56583b47c7b75c0d22a90baff4740",
        (2, _MAX64): "1ffdf40ddfc40d873595d6f7d722a0baa84d61872cfe6ef706f02e24b98044b9",
        (16, 0): "9af62488ea73ff80d96e9f25ec544f8c418a61bfaeadd84cfb9738fcbc1f20e1",
        (16, _MAX64): "c520f3e8a8dd0eb085d7ff9a2eec9485f7f6f5479631fd5d01e607bb6a82c1a1",
        (3, 0): "57a82f2d8ca47d3009d62bb0e1409ff6f652957dc92ed028192bc55dccce9589",
        (3, _MAX64): "11a543dd13001b9dfe2c70530f5b11297b155b275f2a5e12a65f69ee77f17663",
    },
}


def test_batch_digests_pinned_across_n_seeds_and_threads():
    wrong = []
    for (n, seed), digest in _BATCH_DIGESTS[montecarlo.STREAM_VERSION].items():
        cfg = SimConfig(n_per_group=n, true_mean_treatment=0.5, n_sims=8199,
                        master_seed=seed)
        for threads in (1, 2):
            text = run_batch(cfg, threads=threads).to_json()
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                wrong.append((n, seed, threads))
    assert wrong == []


@pytest.mark.parametrize("n", [3, 16, 50])
def test_sliced_chunks_give_the_pinned_bits(monkeypatch, n):
    # slices of 2**12 uniforms: 682, 128 and 40 rows
    monkeypatch.setattr(montecarlo, "_UNIFORM_BUDGET", 2 ** 12)
    cfg = SimConfig(n_per_group=n, true_mean_treatment=0.5, n_sims=8199, master_seed=0)
    text = run_batch(cfg, threads=2).to_json()
    digest = _BATCH_DIGESTS[montecarlo.STREAM_VERSION][(n, 0)]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # and slices of one row
    cfg = dataclasses.replace(cfg, true_mean_treatment=1.0)
    whole = montecarlo._simulate_chunk(cfg, 5, 70)
    monkeypatch.setattr(montecarlo, "_UNIFORM_BUDGET", 2 * n)
    rows = montecarlo._simulate_chunk(cfg, 5, 70)
    assert rows[0] == whole[0] and np.array_equal(rows[1], whole[1])


@pytest.mark.parametrize("n", [3, 16, 50, 2000])
def test_chunk_scratch_stays_within_tiles(n):
    # the kernels allocate as they go, but over row tiles: beside one
    # slice's uniforms (at most 4096 rows and about 2**19 draws, padded to
    # whole Philox blocks of 4), a chunk holds at most 5 tiles of scratch,
    # whatever n is.  Measured: 1.6, 4.0, 4.0 and 4.4 tiles at n = 3, 16, 50
    # and 2000 (the normal quantile's tiles and the row streams), so 5
    # leaves 0.6 of a tile, about 300 KiB, of margin.
    cfg = SimConfig(n_per_group=n, true_mean_treatment=1.0, n_sims=4096, master_seed=3)
    first = montecarlo._simulate_chunk(cfg, 0, 4096)
    tracemalloc.start()
    try:
        second = montecarlo._simulate_chunk(cfg, 0, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first[0] == second[0] and np.array_equal(first[1], second[1])
    rows = min(4096, montecarlo._UNIFORM_BUDGET // (2 * n))
    uniform_bytes = rows * 4 * -(-2 * n // 4) * 8
    assert peak <= uniform_bytes + 5 * distributions._TILE * 8


def test_sd_of_differences_holds_at_large_delta():
    # the draws, and so the spread of the differences, are the same at every
    # delta; sums of diff rather than diff - delta read 0.0 at 1e8
    sds = [run_batch(SimConfig(n_per_group=16, true_mean_treatment=delta,
                               n_sims=20_000, master_seed=1)).sd_diff_all
           for delta in (1.0, 1e4, 1e6, 1e8)]
    assert sds == pytest.approx([sds[0]] * 4, rel=1e-9, abs=0.0)


def test_thread_cap_is_checked_before_any_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    cfg = SimConfig(n_per_group=3, n_sims=100 * montecarlo._CHUNK)
    for threads in (montecarlo.MAX_THREADS + 1, 10 ** 6, 0, -1, 2.0, True):
        with pytest.raises(DomainError):
            run_batch(cfg, threads=threads)
    assert montecarlo.thread_count(None) == 1
    assert montecarlo.thread_count(montecarlo.MAX_THREADS) == montecarlo.MAX_THREADS


def test_chunks_are_submitted_lazily(monkeypatch):
    # a stand-in chunk function: no experiment is simulated
    started = []

    def fake_chunk(config, start, stop):
        started.append(start)
        return start, stop

    monkeypatch.setattr(montecarlo, "_simulate_chunk", fake_chunk)
    chunk = montecarlo._CHUNK
    cfg = SimConfig(n_per_group=3, n_sims=1000 * chunk)
    # taking 3 partials submits the first 2 * threads chunks and one more per
    # partial taken after the first
    for threads, submitted in ((1, 4), (2, 6)):
        started.clear()
        partials = montecarlo._partials(cfg, threads)
        first = [next(partials) for _ in range(3)]
        partials.close()
        assert first == [(0, chunk), (chunk, 2 * chunk), (2 * chunk, 3 * chunk)]
        assert sorted(started) == [k * chunk for k in range(submitted)]


def test_engine_matches_sample_normal_plus_two_sample_t():
    # replay a small batch by hand through the scalar API
    cfg = SimConfig(n_per_group=6, true_mean_control=0.3,
                    true_mean_treatment=1.1, sd=0.8, n_sims=64,
                    alpha=0.05, master_seed=9090)
    summary = run_batch(cfg)
    diffs = []
    n_sig = 0
    for i in range(cfg.n_sims):
        stream = RngStream(cfg.master_seed, i)
        control = sample_normal(stream, cfg.true_mean_control, cfg.sd, cfg.n_per_group)
        treatment = sample_normal(stream, cfg.true_mean_treatment, cfg.sd, cfg.n_per_group)
        res = two_sample_t(control, treatment)
        diffs.append(res.observed_diff)
        n_sig += res.p_two_sided <= cfg.alpha
    assert summary.count_significant == n_sig
    assert summary.mean_diff_all == pytest.approx(np.mean(diffs), rel=1e-12)
    assert summary.sd_diff_all == pytest.approx(np.std(diffs, ddof=1), rel=1e-10)


_BATCH_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


class TestProperties:
    @_BATCH_PROPERTY
    @given(st.integers(2, 40), st.integers(1, 3000), st.integers(0, 2 ** 64 - 1),
           st.floats(-2.0, 2.0), st.integers(1, 999))
    def test_histogram_totals_and_prefix_counts(self, n, n_sims, seed, delta, k):
        alpha = k / 1000.0
        summary = run_batch(SimConfig(n_per_group=n, true_mean_treatment=delta,
                                      n_sims=n_sims, alpha=alpha, master_seed=seed))
        assert int(summary.p_histogram.sum()) == n_sims
        assert summary.count_in_interval(0.0, alpha) == summary.count_significant


def test_histogram_totals_and_interval_identity(null16):
    assert int(null16.p_histogram.sum()) == null16.n_sims
    # with a grid-aligned alpha the histogram prefix reproduces the count
    assert null16.count_in_interval(0.0, 0.05) == null16.count_significant
    assert null16.count_in_interval(0.0, 1.0) == null16.n_sims


def test_diff_sd_matches_analytic_standard_error():
    # sd of the observed differences is sqrt(2/n) * sd
    for n, sd, seed in [(4, 1.0, 501), (16, 2.5, 502), (9, 0.3, 503)]:
        cfg = SimConfig(n_per_group=n, sd=sd, n_sims=20_000, master_seed=seed)
        summary = run_batch(cfg)
        mean, spread = summary.mean_diff_all, summary.sd_diff_all
        expected = math.sqrt(2.0 / n) * sd
        tol = 3.0 * expected / math.sqrt(2.0 * cfg.n_sims)
        assert mean == pytest.approx(0.0, abs=3.0 * expected / math.sqrt(cfg.n_sims))
        assert spread == pytest.approx(expected, abs=tol)


def test_wrong_sign_counting():
    cfg = SimConfig(n_per_group=3, true_mean_treatment=0.4, n_sims=20_000,
                    master_seed=66)
    summary = run_batch(cfg)
    # low power: some significant results land on the wrong side
    assert summary.count_wrong_sign_significant > 0
    assert summary.count_wrong_sign_significant < summary.count_significant
    # a null batch has no wrong side
    null = run_batch(SimConfig(n_per_group=3, n_sims=5000, master_seed=67))
    assert null.count_wrong_sign_significant == 0


def test_wrong_sign_convention_by_replay():
    # wrong sign means: significant, and the observed difference opposes the
    # true one; verify against a scalar replay for a negative true effect
    cfg = SimConfig(n_per_group=3, true_mean_treatment=-0.6, n_sims=300,
                    master_seed=464)
    summary = run_batch(cfg)
    expected = 0
    for i in range(cfg.n_sims):
        stream = RngStream(cfg.master_seed, i)
        control = sample_normal(stream, 0.0, 1.0, 3)
        treatment = sample_normal(stream, -0.6, 1.0, 3)
        res = two_sample_t(control, treatment)
        expected += res.p_two_sided <= cfg.alpha and res.observed_diff > 0
    assert summary.count_wrong_sign_significant == expected


def test_mean_diff_significant_is_nan_when_none_significant():
    cfg = SimConfig(n_per_group=4, n_sims=5, alpha=0.001, master_seed=1)
    summary = run_batch(cfg)
    assert summary.count_significant == 0
    assert math.isnan(summary.mean_diff_significant)
    assert summary.to_dict()["mean_diff_significant"] is None


@pytest.fixture(scope="module")
def pair():
    return make_mixture(0.1, SimConfig(n_per_group=8, true_mean_treatment=1.0,
                                       n_sims=20_000, master_seed=2024))


class TestMixture:

    @pytest.mark.parametrize("control, seed, effect_seed",
                             [(0.3, 77, 78), (0.0, 2 ** 64 - 1, 0)])
    def test_batches_are_the_two_derived_configs(self, control, seed, effect_seed):
        # the null batch is the config with the treatment mean set to the
        # control mean; the effect batch is the config under seed + 1, which
        # wraps to 0 at the largest seed
        cfg = SimConfig(n_per_group=5, true_mean_control=control,
                        true_mean_treatment=control + 0.8, sd=1.5, n_sims=3000,
                        alpha=0.01, master_seed=seed)
        spec = make_mixture(0.2, cfg, threads=2)
        null = dataclasses.replace(cfg, true_mean_treatment=control)
        effect = dataclasses.replace(cfg, master_seed=effect_seed)
        assert spec.prevalence == 0.2
        assert spec.null_summary.to_json() == run_batch(null).to_json()
        assert spec.effect_summary.to_json() == run_batch(effect).to_json()

    @pytest.mark.parametrize("prevalence", [1.2, -0.1])
    def test_bad_prevalence_raises_before_any_batch(self, prevalence, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("run_batch called")

        monkeypatch.setattr(montecarlo, "run_batch", no_batch)
        cfg = SimConfig(n_per_group=16, true_mean_treatment=1.0, n_sims=100_000)
        with pytest.raises(DomainError):
            make_mixture(prevalence, cfg)

    def test_fdr_formula(self, pair):
        breakdown = mixture_fdr(pair)
        r0 = pair.null_summary.count_significant / 20_000
        r1 = pair.effect_summary.count_significant / 20_000
        expected = 0.9 * r0 / (0.9 * r0 + 0.1 * r1)
        assert breakdown.fdr == pytest.approx(expected, rel=1e-12)

    def test_edge_prevalences(self, pair):
        zero = MixtureSpec(0.0, pair.null_summary, pair.effect_summary)
        one = MixtureSpec(1.0, pair.null_summary, pair.effect_summary)
        assert mixture_fdr(zero).fdr == 1.0
        assert mixture_fdr(one).fdr == 0.0
        assert interval_fdr(one, 0.045, 0.05) == 0.0

    def test_interval_formula(self, pair):
        value = interval_fdr(pair, 0.045, 0.05)
        r0 = pair.null_summary.count_in_interval(0.045, 0.05) / 20_000
        r1 = pair.effect_summary.count_in_interval(0.045, 0.05) / 20_000
        assert value == pytest.approx(0.9 * r0 / (0.9 * r0 + 0.1 * r1), rel=1e-12)

    def test_interval_validation(self, pair):
        with pytest.raises(DomainError):
            interval_fdr(pair, 0.0451, 0.05)  # off the 0.001 grid
        with pytest.raises(DomainError):
            interval_fdr(pair, 0.05, 0.045)

    def test_empty_interval_is_undefined(self):
        # 5 experiments cannot populate every 0.001 bin; pick an empty one
        spec = make_mixture(0.5, SimConfig(n_per_group=4, true_mean_treatment=1.0,
                                           n_sims=5, master_seed=3))
        hist = (spec.null_summary.p_histogram + spec.effect_summary.p_histogram)
        empty = int(np.argmin(hist))
        assert hist[empty] == 0
        lo, hi = empty / 1000.0, (empty + 1) / 1000.0
        with pytest.raises(UndefinedResultError):
            interval_fdr(spec, lo, hi)

    def test_incompatible_summaries_rejected(self, pair):
        other = run_batch(SimConfig(n_per_group=9, n_sims=20_000, master_seed=5))
        with pytest.raises(ConfigurationError):
            MixtureSpec(0.1, other, pair.effect_summary)
        small = run_batch(SimConfig(n_per_group=8, n_sims=1000, master_seed=5))
        with pytest.raises(ConfigurationError):
            MixtureSpec(0.1, small, pair.effect_summary)

    def test_prevalence_validation(self, pair):
        with pytest.raises(DomainError):
            MixtureSpec(1.2, pair.null_summary, pair.effect_summary)

    @pytest.mark.parametrize("kind", [np.float32, Decimal, Fraction])
    def test_prevalence_keeps_the_rules_float(self, pair, kind):
        spec = MixtureSpec(kind("0.1"), pair.null_summary, pair.effect_summary)
        assert type(spec.prevalence) is float and spec.prevalence == float(kind("0.1"))
        cells = mixture_fdr(spec).to_dict()
        assert all(type(value) is float for value in cells.values())
        json.dumps({**cells, "interval_fdr": interval_fdr(spec, 0.045, 0.05)}, allow_nan=False)


def _conditional_mean_oracle(n, mu=1.0, sigma=1.0, alpha=0.05):
    """E[diff | significant] by quadrature: the observed difference is
    N(mu, 2 sigma^2 / n) independent of the pooled SD estimate, so condition
    on the estimate and average the truncated-normal partial means."""
    df = 2 * n - 2
    tau = sigma * math.sqrt(2.0 / n)
    c = student_t_quantile(1.0 - alpha / 2.0, df) * math.sqrt(2.0 / n)

    def numerator(s):
        a = (c * s - mu) / tau
        b = (-c * s - mu) / tau
        return (mu * (1.0 - scipy.stats.norm.cdf(a)) + tau * scipy.stats.norm.pdf(a)
                + mu * scipy.stats.norm.cdf(b) - tau * scipy.stats.norm.pdf(b))

    def denominator(s):
        a = (c * s - mu) / tau
        b = (-c * s - mu) / tau
        return 1.0 - scipy.stats.norm.cdf(a) + scipy.stats.norm.cdf(b)

    def s_density(s):
        return scipy.stats.chi2.pdf(df * (s / sigma) ** 2, df) * 2.0 * df * s / sigma ** 2

    num = scipy.integrate.quad(lambda s: numerator(s) * s_density(s), 0.0, 6.0, limit=200)[0]
    den = scipy.integrate.quad(lambda s: denominator(s) * s_density(s), 0.0, 6.0, limit=200)[0]
    return num / den, den


def test_inflation_against_quadrature_oracle():
    cfg = SimConfig(n_per_group=8, true_mean_treatment=1.0, n_sims=20_000,
                    master_seed=888)
    summary = run_batch(cfg)
    mean_sig = summary.mean_diff_significant
    oracle_mean, oracle_power = _conditional_mean_oracle(8)
    # oracle power doubles as a check that the quadrature is trustworthy
    assert oracle_power == pytest.approx(power_two_sample(8, 1.0, 0.05), abs=1e-6)
    count = summary.count_significant
    spread = summary.sd_diff_all / math.sqrt(count)
    assert mean_sig == pytest.approx(oracle_mean, abs=4.0 * spread)


def test_selection_bias_direction(effect_batches):
    for n, batch in effect_batches.items():
        if power_two_sample(n, 1.0, 0.05) <= 0.9:
            assert batch.mean_diff_significant > batch.mean_diff_all


def test_inflation_curve_structure():
    base = SimConfig(n_per_group=16, true_mean_treatment=1.0, n_sims=20_000,
                     master_seed=31415)
    points = inflation_curve([3, 4, 8, 16, 50], base)
    assert [point.n_per_group for point in points] == [3, 4, 8, 16, 50]
    for point in points:
        assert point.power == pytest.approx(
            power_two_sample(point.n_per_group, 1.0, 0.05), abs=1e-12)
    inflations = [point.mean_diff_significant for point in points]
    # monotone nonincreasing up to Monte Carlo noise
    assert all(b <= a + 0.05 for a, b in zip(inflations, inflations[1:]))
    assert inflations[-1] == pytest.approx(1.0, abs=0.03)
    with pytest.raises(DomainError):
        inflation_curve([2], base)
    with pytest.raises(DomainError):
        inflation_curve([], base)


def test_grid_index_accepts_cli_style_floats():
    assert grid_index(0.045) == 45
    assert grid_index(0.05) == 50
    assert grid_index(1.0) == 1000
    for bad in (0.0505, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            grid_index(bad)


def test_histogram_rows_and_csv(tmp_path):
    cfg = SimConfig(n_per_group=4, n_sims=2000, master_seed=8)
    summary = run_batch(cfg)
    rows = histogram_rows(summary, bin_width=0.05)
    assert len(rows) == 20
    assert rows[0][0] == 0.0 and rows[-1][0] == 0.95
    assert sum(count for _, count in rows) == 2000
    # 0.03 does not divide 1 evenly
    for bad in (0.03, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            histogram_rows(summary, bin_width=bad)

    path = tmp_path / "hist.csv"
    write_histogram_csv(summary, path, bin_width=0.1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_left,count"
    assert len(lines) == 11
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 2000


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(n_per_group=1)
    for n_sims in (0, True):
        with pytest.raises(ConfigurationError):
            SimConfig(n_per_group=4, n_sims=n_sims)
    with pytest.raises(ConfigurationError):
        SimConfig(n_per_group=4, sd=0.0)
    # a chunk squares deviations and differences: the scale stops at 1e100
    for field, value in (("sd", 1.1e100), ("true_mean_control", -1.1e100),
                         ("true_mean_treatment", 1e300)):
        with pytest.raises(ConfigurationError, match=f"{field} must be at most 1e"):
            SimConfig(n_per_group=4, **{field: value})
    SimConfig(n_per_group=4, true_mean_control=1e100, true_mean_treatment=-1e100, sd=1e100)
    # and an sd stops at 1e-100: below about 1e-160 a group's squared
    # deviations underflow to a zero pooled variance
    with pytest.raises(ConfigurationError, match="sd must be at least 1e-100"):
        SimConfig(n_per_group=4, sd=1e-101)
    SimConfig(n_per_group=4, sd=1e-100)
    with pytest.raises(ConfigurationError):
        SimConfig(n_per_group=4, alpha=1.0)
    for seed in (-1, 1.5, 2 ** 64):
        with pytest.raises(ConfigurationError):
            SimConfig(n_per_group=4, master_seed=seed)


def test_to_json_is_strict():
    # no NaN or Infinity token: a non-finite float field raises instead
    summary = run_batch(SimConfig(n_per_group=3, n_sims=10))
    for field in ("mean_diff_all", "sd_diff_all"):
        with pytest.raises(ValueError):
            dataclasses.replace(summary, **{field: math.inf}).to_json()


@pytest.mark.parametrize("kind", [np.float32, Decimal, Fraction])
def test_float_fields_keep_the_rules_floats(kind):
    # each float field stores its rule's float, so the batch runs and
    # serialises as it does for that float
    given = {"true_mean_control": kind("0.25"), "true_mean_treatment": kind("1.5"),
             "sd": kind("2"), "alpha": kind("0.05")}
    floats = {field: float(value) for field, value in given.items()}
    config = SimConfig(n_per_group=4, n_sims=50, **given)
    for field, value in floats.items():
        assert type(getattr(config, field)) is float and getattr(config, field) == value
    assert run_batch(config).to_json() == run_batch(
        SimConfig(n_per_group=4, n_sims=50, **floats)).to_json()


def test_numpy_integers_in_config_serialise_as_ints():
    plain = run_batch(SimConfig(n_per_group=4, n_sims=100, master_seed=9))
    numpy_ints = run_batch(SimConfig(n_per_group=np.int64(4), n_sims=np.int64(100),
                                     master_seed=np.uint64(9)))
    assert numpy_ints.to_json() == plain.to_json()
