"""Command-line front end.

One subcommand per computation.  Each handler only computes: it returns one
record (a dict) or a list of uniform records, and `main` renders that
result once, through `_emit`, as an aligned table (default, 4 significant
figures), CSV, or JSON (both full precision).  JSON is strict: a NaN or
infinite value is written as null.  A warning the library raises prints as
one ``warning:`` line on stderr.

Exit codes: 0 success, 2 invalid flags, 3 any other library error (domain,
undefined result, degenerate data or a numerical failure), 4 I/O failure,
5 out of memory, 130 interrupted (Ctrl-C), each with an ``error:`` message
and no traceback; they cover rendering as well as the computation.  The
environment variable FDRLAB_SEED supplies the default master seed for the
simulation subcommands.

Every flag value is checked by the library's own rule, one of those that
`fdrlab.errors` documents, through one adapter, `_flag`, so a value the
library would reject exits 2 naming the flag.  A flag given without the
one it depends on (``--target`` without ``--solve``) exits 2 as well, never
ignored.  The parser is built once per process.

Building the parser imports no numpy: `power` and `montecarlo` are imported
inside the handlers that use them, so ``screen``, ``fdr``, ``berger`` and
every flag error start without loading numpy or the simulation engine.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import warnings

from .errors import (DEFAULT_MASTER_SEED, MAX_THREADS, ConfigurationError, FdrLabError,
                     curve_sizes, finite, grid_interval, histogram_ticks,
                     integer_at_least, open_probability, positive, probability,
                     simulated_scale, simulated_sd, thread_count, uint64_value)
from . import fdr_calculus as fc

_FORMATS = ("table", "csv", "json")
_DEFAULT_N_LIST = (3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 50)


# ---------------------------------------------------------------------------
# Flag types: parse the text, then apply the library's rule.
# ---------------------------------------------------------------------------

def _flag(parse, check):
    """An argparse type: `parse` the text, validate it with the library's
    `check` and return the parsed value.  Any ValueError, `DomainError`
    included, becomes a flag error, so argparse exits 2 naming the flag."""
    def convert(text: str):
        try:
            value = parse(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


def _float_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected LO,HI; got {text!r}")
    return float(parts[0]), float(parts[1])


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _int_at_least(minimum: int):
    return _flag(int, lambda value: integer_at_least(value, minimum))


_seed = _flag(int, uint64_value)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def _finite_or_null(value):
    """`value` with every NaN or infinite float, nested ones included, made
    None.  Lists of ints, such as a p histogram, are returned unwalked."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list) and not (value and isinstance(value[0], int)):
        return [_finite_or_null(item) for item in value]
    return value


def _emit(result, fmt: str, out) -> None:
    """Render one record (a dict) or a list of uniform records: as strict
    JSON, as CSV with a header row, or as a table (a record one field per
    line, a list one row per record)."""
    if fmt == "json":
        print(json.dumps(_finite_or_null(result), indent=2, allow_nan=False), file=out)
        return
    rows = [result] if isinstance(result, dict) else result
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    elif isinstance(result, dict):
        width = max(len(key) for key in result)
        for key, value in result.items():
            print(f"{key:<{width}}  {_fmt_cell(value)}", file=out)
    else:
        cells = [[_fmt_cell(value) for value in row.values()] for row in rows]
        widths = [max(len(name), *(len(c[i]) for c in cells))
                  for i, name in enumerate(rows[0])]
        for line in [list(rows[0]), *cells]:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)), file=out)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its record or list of records.
# ---------------------------------------------------------------------------

def _cmd_screen(args) -> dict:
    spec = fc.DiagnosticSpec(prevalence=args.prevalence,
                             sensitivity=args.sensitivity,
                             specificity=args.specificity)
    breakdown = fc.screening_breakdown(spec, population=args.population)
    return {"prevalence": args.prevalence, "sensitivity": args.sensitivity,
            "specificity": args.specificity, "population": args.population,
            **breakdown.to_dict()}


def _cmd_fdr(args) -> dict:
    scenario = fc.TestScenario(prevalence=args.prevalence, power=args.power,
                               alpha=args.alpha)
    breakdown = fc.significance_breakdown(scenario, n_tests=args.n_tests)
    odds = fc.posterior_odds(scenario)
    record = {"prevalence": args.prevalence, "power": args.power,
              "alpha": args.alpha, "n_tests": args.n_tests, **breakdown.to_dict()}
    record.update((key, value) for key, value in odds.to_dict().items()
                  if key != "fdr")
    return record


def _cmd_berger(args) -> dict | list[dict]:
    if args.table:
        return fc.berger_table()
    if args.target_fdr is not None:
        p = fc.alpha_for_target_fdr(args.target_fdr)
        return {"target_fdr": args.target_fdr, "p": p,
                "min_fdr_check": fc.berger_min_fdr(p)}
    return {"p": args.p, "min_bayes_factor": fc.berger_min_bayes_factor(args.p),
            "min_fdr": fc.berger_min_fdr(args.p)}


def _cmd_power(args) -> dict:
    if args.solve and args.target is None:
        raise ConfigurationError("--solve requires --target")
    if args.target is not None and not args.solve:
        raise ConfigurationError("--target requires --solve")
    from . import power as pw

    if args.solve:
        n = pw.solve_n(args.target, args.d, args.alpha)
        return {"target_power": args.target, "effect_size_d": args.d,
                "alpha": args.alpha, "n_per_group": n,
                "power_at_n": pw.power_two_sample(n, args.d, args.alpha)}
    return {"n_per_group": args.n, "effect_size_d": args.d, "alpha": args.alpha,
            "power": pw.power_two_sample(args.n, args.d, args.alpha)}


def _sim_config(args, n_per_group: int):
    """The batch the simulation flags describe, at `n_per_group`.  The seed
    is --seed, then FDRLAB_SEED, then the default, and is read before the
    engine is imported, so a bad FDRLAB_SEED exits 2 without numpy."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("FDRLAB_SEED")
        try:
            seed = DEFAULT_MASTER_SEED if env is None else _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ConfigurationError(f"FDRLAB_SEED: {exc}")
    from . import montecarlo as mc

    return mc.SimConfig(n_per_group=n_per_group, true_mean_treatment=args.delta,
                        sd=args.sd, n_sims=args.n_sims, alpha=args.alpha,
                        master_seed=seed)


def _cmd_simulate(args) -> dict:
    """JSON nests each batch's full summary under its tag ("null",
    "effect"), or gives the single batch's summary itself; table and CSV
    flatten the scalars into one record, the tag as a key prefix."""
    if args.interval is not None and args.prevalence is None:
        raise ConfigurationError("--interval requires --prevalence")
    if args.hist_bin_width is not None and not args.emit_histogram:
        raise ConfigurationError("--hist-bin-width requires --emit-histogram")
    config = _sim_config(args, args.n_per_group)
    from . import montecarlo as mc

    nested = args.format == "json"

    if args.prevalence is None:
        summaries = {"": mc.run_batch(config, threads=args.threads)}
        record = {} if nested else config.to_dict()
    else:
        spec = mc.make_mixture(args.prevalence, config, threads=args.threads)
        summaries = {"null": spec.null_summary, "effect": spec.effect_summary}
        mixture = mc.mixture_fdr(spec).to_dict()
        record = {"prevalence": args.prevalence,
                  **({"mixture": mixture} if nested else mixture)}
        if args.interval is not None:
            lo, hi = args.interval
            record.update(interval_lo=lo, interval_hi=hi,
                          interval_fdr=mc.interval_fdr(spec, lo, hi),
                          interval_count_null=spec.null_summary.count_in_interval(lo, hi),
                          interval_count_effect=spec.effect_summary.count_in_interval(lo, hi))

    for tag, summary in summaries.items():
        if args.emit_histogram:
            stem, ext = os.path.splitext(args.emit_histogram)
            path = f"{stem}_{tag}{ext or '.csv'}" if tag else args.emit_histogram
            mc.write_histogram_csv(summary, path, args.hist_bin_width or 0.05)
        data = summary.to_dict()
        if nested:
            record.update({tag: data} if tag else data)
        else:
            prefix = f"{tag}_" if tag else ""
            record.update((prefix + key, value) for key, value in data.items()
                          if key not in ("config", "p_histogram_bin_width", "p_histogram"))
    return record


def _cmd_inflation(args) -> list[dict]:
    n_values = sorted(set(args.n_list))
    if len(n_values) != len(args.n_list):
        dupes = sorted({n for n in args.n_list if args.n_list.count(n) > 1})
        print(f"warning: duplicate n values deduplicated: {dupes}", file=sys.stderr)
    base = _sim_config(args, max(n_values))
    from . import montecarlo as mc

    return [point._asdict()
            for point in mc.inflation_curve(n_values, base, threads=args.threads)]


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_format(parser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="table",
                        help="output format (default: table)")


def _add_sim_common(parser) -> None:
    parser.add_argument("--sd", default=1.0,
                        type=_flag(float, simulated_sd),
                        help="common true standard deviation (default 1)")
    parser.add_argument("--n-sims", type=_int_at_least(1), default=100_000,
                        help="number of simulated experiments (default 100000)")
    parser.add_argument("--alpha", type=_flag(float, open_probability),
                        default=0.05,
                        help="significance threshold, p <= alpha (default 0.05)")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="master seed (default: $FDRLAB_SEED, then "
                             f"{DEFAULT_MASTER_SEED})")
    parser.add_argument("--threads", type=_flag(int, thread_count),
                        default=min(os.cpu_count() or 1, MAX_THREADS),
                        help=f"worker threads, at most {MAX_THREADS}; never "
                             "affects results")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrlab",
        description="False discovery rates for screening and significance "
                    "tests: exact tree arithmetic, the minimum-Bayes-factor "
                    "calibration, analytic power, and seeded Monte Carlo "
                    "simulation of two-sample t tests.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("screen", help="screening-test false discovery breakdown")
    p.add_argument("--prevalence", type=_flag(float, probability), required=True)
    p.add_argument("--sensitivity", type=_flag(float, probability), required=True)
    p.add_argument("--specificity", type=_flag(float, probability), required=True)
    p.add_argument("--population", type=_flag(float, positive), default=None,
                   help="scale the four cells to this many people")
    _add_format(p)
    p.set_defaults(handler=_cmd_screen)

    p = sub.add_parser("fdr", help="significance-test breakdown and posterior odds")
    p.add_argument("--prevalence", type=_flag(float, probability), required=True,
                   help="fraction of tests with a real effect")
    p.add_argument("--power", type=_flag(float, probability), required=True)
    p.add_argument("--alpha", type=_flag(float, probability), required=True)
    p.add_argument("--n-tests", type=_flag(float, positive), default=None,
                   help="scale the four cells to this many tests")
    _add_format(p)
    p.set_defaults(handler=_cmd_fdr)

    p = sub.add_parser("berger", help="minimum Bayes factor / minimum FDR calibration")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_flag(float, open_probability),
                       help="observed p value (must be < 1/e)")
    group.add_argument("--table", action="store_true",
                       help="print the standard calibration table")
    group.add_argument("--target-fdr", type=_flag(float, open_probability),
                       help="invert: p value whose minimum FDR equals this")
    _add_format(p)
    p.set_defaults(handler=_cmd_berger)

    p = sub.add_parser("power", help="analytic power of the two-sample t test")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_int_at_least(2), help="observations per group")
    group.add_argument("--solve", action="store_true",
                       help="find the smallest n reaching --target power")
    p.add_argument("--target", type=_flag(float, open_probability), default=None,
                   help="target power for --solve")
    p.add_argument("--d", type=_flag(float, finite), required=True,
                   help="true mean difference in SD units")
    p.add_argument("--alpha", type=_flag(float, open_probability), default=0.05)
    _add_format(p)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo batch of two-sample t tests; with --prevalence, a "
             "prevalence-weighted null+effect mixture (effect batch seeded "
             "with seed+1)",
    )
    p.add_argument("--n-per-group", type=_int_at_least(2), required=True)
    p.add_argument("--delta", type=_flag(float, simulated_scale), required=True,
                   help="true treatment-minus-control mean difference")
    _add_sim_common(p)
    p.add_argument("--prevalence", type=_flag(float, probability), default=None,
                   help="run paired null+effect batches and report mixture FDR")
    p.add_argument("--interval", default=None, metavar="LO,HI",
                   type=_flag(_float_pair, lambda pair: grid_interval(*pair)),
                   help="also report the FDR among p values in (LO, HI]; "
                        "bounds on the 0.001 grid; requires --prevalence")
    p.add_argument("--emit-histogram", metavar="PATH", default=None,
                   help="write the p histogram as CSV (bin_left,count); with "
                        "--prevalence, writes PATH_null and PATH_effect")
    p.add_argument("--hist-bin-width", default=None,
                   type=_flag(float, histogram_ticks),
                   help="histogram bin width, a multiple of 0.001 (default "
                        "0.05); requires --emit-histogram")
    _add_format(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("inflation",
                       help="effect-size inflation among significant tests "
                            "versus per-group sample size")
    p.add_argument("--n-list", type=_flag(_int_list, curve_sizes),
                   default=_DEFAULT_N_LIST, metavar="N1,N2,...",
                   help="per-group sample sizes (default "
                        + ",".join(str(n) for n in _DEFAULT_N_LIST) + ")")
    p.add_argument("--delta", type=_flag(float, simulated_scale), default=1.0,
                   help="true treatment-minus-control mean difference (default 1)")
    _add_sim_common(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_inflation)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -value`` as ``--flag=-value`` when the value starts
    with a single "-" (``-inf``, ``-0.001,0.05``).  argparse would read such
    a value as an option and say only "expected one argument"; attached, it
    reaches the flag's own check, which names the rule it breaks."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and not token.startswith("--")
                and token != "-h"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return 2
    # Only the display changes: the warning filters stay as they are.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _emit(args.handler(args), args.format, sys.stdout)
            return 0
        except ConfigurationError as exc:
            code, message = 2, exc
        except FdrLabError as exc:
            code, message = 3, exc
        except OSError as exc:
            code, message = 4, exc
        except MemoryError:
            code, message = 5, "out of memory"
        except KeyboardInterrupt:
            code, message = 130, "interrupted"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
