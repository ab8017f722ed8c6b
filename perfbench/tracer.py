"""Layer tracing from outside the package.

`Tracer.installed()` swaps the names that fdrlab's modules look up at call
time for timing wrappers, and puts every original object back on exit, so no
file under src/ is edited.  Each wrapped call records a `Span`: name, start,
end, parent span, op id and thread id.  Spans stay in memory until the run
ends.

`RngStream` is built once per simulated experiment, 4096 times per chunk, so
one span per stream would swamp both the trace and its overhead.  Instead each
thread keeps one span per unbroken run of streams: it opens at the first
construction, counts the streams in `size`, and closes when the thread next
starts or ends a span, which in `_simulate_chunk` is the `normal_quantile` call
after the loop.  Its duration covers building the streams, drawing their
uniforms and storing the rows.

Spans started on a pool thread have no parent on their own thread; their
parent is the span open on the op's thread, which is the `run_batch` that
submitted the chunk.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
import types
from collections import defaultdict

import numpy as np

from fdrlab import cli, distributions, fdr_calculus, montecarlo, power, ttest

_clock = time.perf_counter

STREAM = "distributions.RngStream"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "size")

    def __init__(self, span_id, name, parent, op, size=0):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.size = size
        self.start = self.end = _clock()

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.op,
                self.thread, self.size]


# (owner, attribute) pairs the tracer replaces while installed.
TARGETS = ((montecarlo, "RngStream"), (montecarlo, "normal_quantile"),
           (montecarlo, "batch_two_sample_t"), (montecarlo, "run_batch"),
           (montecarlo, "inflation_curve"), (montecarlo, "significance_breakdown"),
           (ttest, "regularized_incomplete_beta"),
           (distributions, "regularized_incomplete_beta"),
           (power, "noncentral_t_cdf"), (power, "student_t_cdf"),
           (power, "student_t_quantile"), (power, "power_two_sample"),
           (power, "solve_n"), (cli, "fc"))


def snapshot() -> dict:
    return {(owner, name): getattr(owner, name) for owner, name in TARGETS}


def not_restored(before: dict) -> list[str]:
    """Swapped attributes that are not, by identity, the objects in `before`."""
    return [f"{owner.__name__}.{name} was not restored"
            for (owner, name), original in before.items()
            if getattr(owner, name) is not original]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._runs: dict[int, Span] = {}    # thread id -> open RngStream run
        self._op = None

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]):
        if stack:
            return stack[-1].id
        return self._op_stack[-1].id if self._op_stack else None

    def _close_run(self, now: float) -> None:
        run = self._runs.pop(threading.get_ident(), None)
        if run is not None:
            run.end = now

    def begin(self, name: str, size: int = 0) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, self._parent(stack), self._op, size)
        self._close_run(span.start)
        self.spans.append(span)
        stack.append(span)
        span.start = _clock()
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        self._close_run(span.end)
        self._stack().pop()

    def begin_op(self, op_id) -> Span:
        self._op = op_id
        self._op_stack = self._stack()
        return self.begin("op")

    def end_op(self, span: Span) -> None:
        self.end(span)
        for run in self._runs.values():
            run.end = span.end
        self._runs.clear()

    def stream_started(self) -> None:
        run = self._runs.get(threading.get_ident())
        if run is None:
            run = Span(next(self._ids), STREAM, self._parent(self._stack()), self._op)
            self._runs[run.thread] = run
            self.spans.append(run)
        run.size += 1

    # -- swapping -----------------------------------------------------------

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, size(args) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def _replacements(self) -> dict:
        tracer = self

        class TracedStream(distributions.RngStream):
            def __init__(self, *args, **kwargs):
                tracer.stream_started()
                super().__init__(*args, **kwargs)

        # The CLI reaches fdr_calculus through its module alias `fc`; a proxy
        # there times the CLI's calls without timing the module's calls to
        # itself.
        fc_proxy = types.SimpleNamespace(**vars(fdr_calculus))
        for name, fn in inspect.getmembers(fdr_calculus, inspect.isfunction):
            if fn.__module__ == fdr_calculus.__name__ and not name.startswith("_"):
                setattr(fc_proxy, name, self.wrap("fdr_calculus", fn))

        wrap = self.wrap
        elements = lambda args: int(np.size(args[-1]))
        return {
            (montecarlo, "RngStream"): TracedStream,
            (montecarlo, "normal_quantile"): wrap(
                "distributions.normal_quantile", montecarlo.normal_quantile, elements),
            (montecarlo, "batch_two_sample_t"): wrap(
                "ttest.batch_two_sample_t", montecarlo.batch_two_sample_t,
                lambda args: len(args[0])),
            (montecarlo, "run_batch"): wrap("montecarlo.run_batch", montecarlo.run_batch),
            (montecarlo, "inflation_curve"): wrap(
                "montecarlo.inflation_curve", montecarlo.inflation_curve),
            (montecarlo, "significance_breakdown"): wrap(
                "fdr_calculus", montecarlo.significance_breakdown),
            (ttest, "regularized_incomplete_beta"): wrap(
                "distributions.betainc.vector", ttest.regularized_incomplete_beta, elements),
            (distributions, "regularized_incomplete_beta"): wrap(
                "distributions.betainc.scalar",
                distributions.regularized_incomplete_beta, elements),
            (power, "noncentral_t_cdf"): wrap(
                "distributions.noncentral_t_cdf", power.noncentral_t_cdf),
            (power, "student_t_cdf"): wrap(
                "distributions.student_t_cdf", power.student_t_cdf),
            (power, "student_t_quantile"): wrap(
                "power.student_t_quantile", power.student_t_quantile),
            (power, "power_two_sample"): wrap(
                "power.power_two_sample", power.power_two_sample),
            (power, "solve_n"): wrap("power.solve_n", power.solve_n),
            (cli, "fc"): fc_proxy,
        }

    @contextlib.contextmanager
    def installed(self):
        originals = snapshot()
        replacements = self._replacements()
        if replacements.keys() != originals.keys():
            raise RuntimeError("replacements do not match TARGETS")
        try:
            for (owner, name), value in replacements.items():
                setattr(owner, name, value)
            yield self
        finally:
            for (owner, name), value in originals.items():
                setattr(owner, name, value)


# ---------------------------------------------------------------------------
# Analysis.
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, children) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(c.start, start), min(c.end, end)) for c in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Analysis:
    """Self times and per-name aggregates of one list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.children[span.parent].append(span)
        self.self_time = {span.id: (span.end - span.start)
                          - _covered(span.start, span.end, self.children[span.id])
                          for span in spans}
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def busy(self, name: str) -> float:
        """Wall time inside `name`, not counting a call nested in another."""
        return sum(span.end - span.start for span in self.by_name[name]
                   if self._parent_name(span) != name)

    def self_sum(self, name: str) -> float:
        return sum(self.self_time[span.id] for span in self.by_name[name])

    def size(self, name: str) -> int:
        return sum(span.size for span in self.by_name[name])

    def _parent_name(self, span: Span):
        parent = self.by_id.get(span.parent)
        return parent.name if parent else None

    def calls_under(self, name: str, parent_name: str) -> int:
        return sum(1 for span in self.by_name[name] if self._parent_name(span) == parent_name)

    def parallel_eff(self) -> float:
        """Summed busy time of run_batch's children / (wall x threads used)."""
        busy = capacity = 0.0
        for span in self.by_name["montecarlo.run_batch"]:
            kids = self.children[span.id]
            busy += sum(kid.end - kid.start for kid in kids)
            capacity += (span.end - span.start) * max(1, len({kid.thread for kid in kids}))
        return busy / capacity if capacity else 0.0

    def op_check(self, op_span: Span) -> list[str]:
        """Self times of an op's spans must add up to its wall time; spans that
        ran side by side on pool threads may add up to wall x threads."""
        mine = [span for span in self.spans if span.op == op_span.op]
        total = sum(self.self_time[span.id] for span in mine)
        wall = op_span.end - op_span.start
        threads = len({span.thread for span in mine})
        if not wall * (1.0 - 1e-9) - 1e-9 <= total <= wall * threads * (1.0 + 1e-9) + 1e-9:
            return [f"op {op_span.op}: self times sum to {total!r}, wall {wall!r}, "
                    f"{threads} thread(s)"]
        return []


def layer_metrics(analysis: Analysis, n_ops: int) -> dict:
    """Per-layer metrics, per op unless they are ratios: name -> (value, unit)."""
    a = analysis

    def per_op(value):
        return value / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    nct = "distributions.noncentral_t_cdf"
    quantile = "power.student_t_quantile"
    solve = "power.solve_n"
    metrics = {
        f"{STREAM}.streams": (per_op(a.size(STREAM)), "count/op"),
        f"{STREAM}.busy_s": (per_op(a.busy(STREAM)), "s/op"),
    }
    for name, extra in (("distributions.normal_quantile", "values"),
                        ("distributions.betainc.vector", "elements"),
                        ("distributions.betainc.scalar", None),
                        (nct, None),
                        ("distributions.student_t_cdf", None),
                        ("ttest.batch_two_sample_t", "rows"),
                        ("montecarlo.run_batch", None),
                        (quantile, None),
                        ("power.power_two_sample", None),
                        (solve, None),
                        ("fdr_calculus", None)):
        metrics[f"{name}.calls"] = (per_op(a.calls(name)), "count/op")
        if extra:
            metrics[f"{name}.{extra}"] = (per_op(a.size(name)), "count/op")
        metrics[f"{name}.busy_s"] = (per_op(a.busy(name)), "s/op")
    for name in (nct, "ttest.batch_two_sample_t", "montecarlo.run_batch",
                 "power.power_two_sample"):
        metrics[f"{name}.self_s"] = (per_op(a.self_sum(name)), "s/op")
    metrics[f"{nct}.betainc_per_call"] = (
        ratio(a.calls_under("distributions.betainc.scalar", nct), a.calls(nct)), "ratio")
    metrics["montecarlo.run_batch.parallel_eff"] = (a.parallel_eff(), "ratio")
    metrics[f"{quantile}.cdf_evals_per_call"] = (
        ratio(a.calls_under("distributions.student_t_cdf", quantile), a.calls(quantile)),
        "ratio")
    metrics[f"{solve}.power_evals_per_solve"] = (
        ratio(a.calls_under("power.power_two_sample", solve), a.calls(solve)), "ratio")
    metrics["cli.main.calls"] = (per_op(a.calls("cli.main")), "count/op")
    metrics["cli.main.self_s"] = (per_op(a.self_sum("cli.main")), "s/op")
    metrics["cli.main.output_bytes"] = (per_op(a.size("cli.main")), "bytes/op")
    return metrics


# ---------------------------------------------------------------------------
# Self-test of the wrappers.
# ---------------------------------------------------------------------------

def selftest() -> list[str]:
    """Exact counts on a tiny batch, restoration by identity, and self times
    that add up; returns the problems found."""
    problems: list[str] = []
    config = montecarlo.SimConfig(n_per_group=3, true_mean_treatment=1.0,
                                  n_sims=8192, master_seed=1)
    reference = montecarlo.run_batch(config, threads=1).to_json()
    before = snapshot()
    tracer = Tracer()
    ops = []
    with tracer.installed():
        for threads in (1, 2):
            op = tracer.begin_op(threads)
            summary = montecarlo.run_batch(config, threads=threads)
            tracer.end_op(op)
            ops.append(op)
            if summary.to_json() != reference:
                problems.append(f"traced run_batch(threads={threads}) changed the result")
    problems += not_restored(before)
    analysis = Analysis(tracer.spans)
    for op in ops:
        problems += analysis.op_check(op)
        mine = Analysis([span for span in tracer.spans if span.op == op.op])
        rows = sorted(span.size for span in mine.by_name["ttest.batch_two_sample_t"])
        got = {
            "run_batch calls": mine.calls("montecarlo.run_batch"),
            "streams": mine.size(STREAM),
            "batch_two_sample_t rows": rows,
            "normal_quantile calls": mine.calls("distributions.normal_quantile"),
            "normal_quantile values": mine.size("distributions.normal_quantile"),
            "betainc vector elements": mine.size("distributions.betainc.vector"),
        }
        want = {"run_batch calls": 1, "streams": 8192,
                "batch_two_sample_t rows": [4096, 4096],
                "normal_quantile calls": 2, "normal_quantile values": 8192 * 6,
                "betainc vector elements": 8192}
        for key in want:
            if got[key] != want[key]:
                problems.append(f"self-test threads={op.op}: {key} = {got[key]}, "
                                f"expected {want[key]}")
    return problems
