"""fdrlab benchmark: the REPRODUCE.md commands as three closed-loop workloads.

One client runs ops back to back for --seconds.  Each op is one CLI command
(one bundle of commands on `analytic`), driven in-process through
`fdrlab.cli.main(argv)` with stdout captured, and every output is checked
(see workloads.py).  With --trace 0 the run reports the end-to-end metrics.
With --trace 1 each op is followed by a replay of the same op and seed under
the layer tracer (see tracer.py), and the run reports the per-layer metrics.
METRICS.md defines them.

Run from the repository root, which must hold src/fdrlab:

    python3 perfbench/run.py --workload mixture_n16 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "import fdrlab.cli; fdrlab.cli.build_parser()")


@dataclass
class Op:
    index: int
    seed: int
    wall: float = 0.0
    cpu: float = 0.0
    outputs: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def call_cli(argv: list[str], tracer=None) -> tuple[object, str, str]:
    """One CLI command in-process: (exit code, stdout, stderr)."""
    from fdrlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.begin("cli.main") if tracer else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejected the flags
            code = exc.code
        except Exception:               # counted as a failed op, never fatal
            code = None
            err.write(traceback.format_exc())
        finally:
            if span:
                tracer.end(span)
                span.size = len(out.getvalue())
    return code, out.getvalue(), err.getvalue()


def check(commands, results) -> list[str]:
    problems = []
    for command, (code, out, err) in zip(commands, results):
        label = " ".join(command.argv)
        if code != 0:
            problems.append(f"{label}: exit code {code}: {err.strip()[-400:]}")
            continue
        try:
            problems += [f"{label}: {p}" for p in command.check(json.loads(out))]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{label}: unreadable output ({exc!r})")
    return problems


def run_op(workload, op: Op, tracer=None) -> Op:
    commands = workload.commands(op.seed)
    span = tracer.begin_op(op.index) if tracer else None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    results = [call_cli(command.argv, tracer) for command in commands]
    op.wall = time.perf_counter() - t0
    op.cpu = time.process_time() - cpu0
    if tracer:
        tracer.end_op(span)
    op.outputs = [out for _, out, _ in results]
    op.problems = check(commands, results)
    return op


def closed_loop(workload, seed: int, seconds: float, between) -> list[Op]:
    """Ops back to back until `seconds` have passed; `between(op, elapsed)`
    runs untimed after each op."""
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_op(workload, Op(len(ops), op_seed(seed, len(ops)))))
        between(ops[-1], time.perf_counter() - start)
    return ops


def determinism(workload, op: Op) -> Op:
    """Re-run `op` single-threaded: the JSON must be byte-identical."""
    rerun = Op(op.index, op.seed)
    for command, expected in zip(workload.commands(op.seed), op.outputs):
        code, out, err = call_cli(command.argv + ["--threads", "1"])
        if code != 0 or out != expected:
            rerun.problems.append(f"op {op.index} with --threads 1 gave different "
                                  f"output (exit code {code})")
    return rerun


class SetupProbe:
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser.  The probes are spread over the run, between ops, so that their
    median does not hang on the machine's speed during one second of it."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.times: list[float] = []

    def _probe(self) -> None:
        # No timeout: with one, the wait polls in sleeps of up to 50 ms and
        # rounds the measured time up to the next poll.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE.format(src=str(SRC))],
                       check=True)
        self.times.append(time.perf_counter() - t0)

    def __call__(self, op: Op, elapsed: float) -> None:
        while len(self.times) < SETUP_REPEATS * min(1.0, elapsed / self.seconds):
            self._probe()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.times)


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile with at
    least 10 ops beyond it.  With 20 ops or fewer that percentile is at or
    below the median, so the slowest op stands in for the tail."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, args, ops: list[Op]) -> dict:
    import numpy
    import fdrlab
    from fdrlab import cli

    first = workload.commands(ops[0].seed)[0].argv
    return {
        "git_sha": git_sha(),
        "fdrlab": fdrlab.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": getattr(cli.build_parser().parse_args(first), "threads", None),
        "workload": workload.name,
        "seed": args.seed,
        "seed_applies": workload.simulates,
        "op_seeds": [op.seed for op in ops] if workload.simulates else None,
        "n_sims_per_op": workload.sims_per_op or None,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(workload, ops: list[Op], setup: float) -> tuple[dict, dict]:
    """The metrics BENCHMARK.json lists, and the extra figures printed
    beside them."""
    walls = [op.wall for op in ops]
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "cpu_s_per_op": (statistics.median(op.cpu for op in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"ops": (len(ops), "count"),
             "op_tail_percentile": (tail_pct, "%"),
             "op_tail_ops_beyond": (beyond, "count")}
    if workload.simulates:
        extra["sims_per_s"] = (workload.sims_per_op * len(ops) / sum(walls),
                               "experiments/s")
    return metrics, extra


class TracedReplay:
    """Replays each op under the tracer right after its untraced run, so the
    pair's difference is the tracing overhead at the machine's speed of that
    moment."""

    def __init__(self, workload):
        import tracer

        self.tr = tracer
        self.workload = workload
        self.tracer = tracer.Tracer()
        self.ops: list[Op] = []

    def __call__(self, plain: Op, elapsed: float) -> None:
        before = self.tr.snapshot()
        with self.tracer.installed():
            op = run_op(self.workload, Op(plain.index, plain.seed), self.tracer)
        op.problems += self.tr.not_restored(before)
        if op.outputs != plain.outputs:
            op.problems.append(f"op {op.index}: tracing changed the output")
        self.ops.append(op)

    def metrics(self, plain_ops: list[Op]) -> dict:
        analysis = self.tr.Analysis(self.tracer.spans)
        for op, span in zip(self.ops, analysis.by_name["op"]):
            op.problems += analysis.op_check(span)
        metrics = self.tr.layer_metrics(analysis, len(self.ops))
        plain_wall = sum(op.wall for op in plain_ops)
        overhead = sum(op.wall for op in self.ops) - plain_wall
        metrics["trace.overhead_s"] = (overhead / len(self.ops), "s/op")
        metrics["trace.overhead_frac"] = (overhead / plain_wall, "ratio")
        return metrics

    def write(self, path: Path, provenance: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"provenance": provenance,
                       "fields": ["id", "name", "start", "end", "parent", "op",
                                  "thread", "size"],
                       "spans": [span.as_list() for span in self.tracer.spans]}, fh)


def run_workload(args) -> int:
    if not (SRC / "fdrlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'fdrlab'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdrlab
    if Path(fdrlab.__file__).resolve().parent != SRC / "fdrlab":
        print(f"error: imported fdrlab from {fdrlab.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for argv in workload.warmup:
        call_cli(argv)

    if args.trace:
        import tracer

        replay = TracedReplay(workload)
        ops = closed_loop(workload, args.seed, args.seconds, replay)
        metrics, extra = replay.metrics(ops), {}
        checked = ops + replay.ops + [Op(-1, 0, problems=tracer.selftest())]
    else:
        setup = SetupProbe(args.seconds)
        ops = closed_loop(workload, args.seed, args.seconds, setup)
        metrics, extra = end_to_end(workload, ops, setup.median())
        checked = list(ops)
    if workload.simulates:
        checked.append(determinism(workload, ops[0]))
    failed = sum(1 for op in checked if op.problems)
    extra["failed_frac"] = (failed / len(checked), "ratio")
    record = provenance(workload, args, ops)
    if args.trace:
        replay.write(OUT / f"spans-{workload.name}-seed{args.seed}.json.gz", record)

    for problem in [p for op in checked for p in op.problems][:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
