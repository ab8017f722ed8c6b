"""CLI contract: values on stdout, machine formats that round-trip, the
documented exit codes, seed handling, and histogram export.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdrlab
from fdrlab import cli, montecarlo
from fdrlab.cli import build_parser, main
from fdrlab.errors import FdrLabError
from fdrlab.montecarlo import STREAM_VERSION


_SCALARS = ("count_significant", "fraction_significant", "mean_diff_all",
            "sd_diff_all", "mean_diff_significant", "count_wrong_sign_significant",
            "stream_version")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestScreen:
    def test_worked_example_values(self, capsys):
        data = run_json(capsys, "screen", "--prevalence", "0.01",
                        "--sensitivity", "0.8", "--specificity", "0.95",
                        "--population", "10000")
        assert data["false_pos"] == pytest.approx(495.0, abs=1e-9)
        assert data["true_pos"] == pytest.approx(80.0, abs=1e-9)
        assert data["fdr"] == pytest.approx(0.8609, abs=5e-5)

    def test_table_shows_four_significant_figures(self, capsys):
        code, out, _ = run_cli(capsys, "screen", "--prevalence", "0.01",
                               "--sensitivity", "0.8", "--specificity", "0.95",
                               "--population", "10000")
        assert code == 0
        assert "0.8609" in out
        assert "495" in out

    def test_perfect_test(self, capsys):
        data = run_json(capsys, "screen", "--prevalence", "0.3",
                        "--sensitivity", "1", "--specificity", "1")
        assert data["fdr"] == 0.0

    def test_validation_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["screen", "--prevalence", "1.5",
                  "--sensitivity", "0.8", "--specificity", "0.95"])
        assert err.value.code == 2
        assert "--prevalence" in capsys.readouterr().err


class TestFdr:
    def test_worked_example(self, capsys):
        data = run_json(capsys, "fdr", "--prevalence", "0.1",
                        "--power", "0.8", "--alpha", "0.05")
        assert data["fdr"] == pytest.approx(0.36, abs=1e-12)
        assert data["posterior_odds_h0"] == 0.5625
        assert data["likelihood_ratio_h0_h1"] == 0.0625

    def test_even_prevalence(self, capsys):
        data = run_json(capsys, "fdr", "--prevalence", "0.5",
                        "--power", "0.8", "--alpha", "0.05")
        assert data["fdr"] == pytest.approx(0.0588, abs=5e-5)

    @pytest.mark.filterwarnings("ignore:power")
    def test_zero_power_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "fdr", "--prevalence", "0.1",
                               "--power", "0", "--alpha", "0.05")
        assert code == 3
        assert "error:" in err


class TestBerger:
    def test_single_value(self, capsys):
        data = run_json(capsys, "berger", "--p", "0.05")
        assert data["min_fdr"] == pytest.approx(0.289, abs=5e-4)

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "berger", "--table", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(row["p"]) for row in rows] == [0.2, 0.1, 0.05, 0.01, 0.005, 0.001]
        # csv carries full precision: values round-trip through float()
        from fdrlab.fdr_calculus import berger_min_fdr
        assert float(rows[2]["min_fdr"]) == berger_min_fdr(0.05)

    def test_target_fdr_inversion(self, capsys):
        data = run_json(capsys, "berger", "--target-fdr", "0.289")
        assert data["p"] == pytest.approx(0.05, abs=1e-3)

    def test_out_of_domain_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "berger", "--p", "0.5")
        assert code == 3
        assert "1/e" in err
        # inside (0, 1), so the flag accepts it, but past the largest
        # reachable minimum FDR
        code, _, err = run_cli(capsys, "berger", "--target-fdr", "0.5")
        assert code == 3
        assert "error:" in err

    def test_p_of_one_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["berger", "--p", "1"])
        assert err.value.code == 2
        assert "argument --p: " in capsys.readouterr().err


class TestPower:
    def test_power_at_n(self, capsys):
        data = run_json(capsys, "power", "--n", "16", "--d", "1")
        assert data["power"] == pytest.approx(0.78, abs=5e-3)

    def test_solve(self, capsys):
        data = run_json(capsys, "power", "--solve", "--target", "0.8", "--d", "1")
        assert data["n_per_group"] == 17

    def test_n_below_two_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["power", "--n", "1", "--d", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--n", "16", "--target", "0.8"], "--target requires --solve"),
        (["--solve"], "--solve requires --target"),
    ])
    def test_target_and_solve_go_together(self, capsys, argv, message):
        # a checked flag that the command would not use is an error, not ignored
        code, out, err = run_cli(capsys, "power", *argv, "--d", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_alpha_whose_half_is_zero_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "power", "--n", "2", "--d", "1", "--alpha", "5e-324")
        assert (code, out) == (3, "")
        assert err == "error: alpha / 2 must lie strictly inside (0, 1); got 0.0\n"

    def test_solve_with_zero_effect_exits_3(self, capsys):
        # d = 0 is a finite --d, but no n reaches any power
        code, _, err = run_cli(capsys, "power", "--solve", "--target", "0.8", "--d", "0")
        assert code == 3
        assert "nonzero" in err


class TestSimulate:
    def test_plain_batch_json(self, capsys):
        data = run_json(capsys, "simulate", "--n-per-group", "4", "--delta", "1",
                        "--n-sims", "2000", "--seed", "7")
        assert data["config"]["master_seed"] == 7
        assert sum(data["p_histogram"]) == 2000
        assert 0.15 < data["fraction_significant"] < 0.3

    def test_mixture_with_interval(self, capsys):
        data = run_json(capsys, "simulate", "--n-per-group", "16", "--delta", "1",
                        "--n-sims", "4000", "--seed", "11",
                        "--prevalence", "0.1", "--interval", "0.045,0.05")
        assert data["prevalence"] == 0.1
        assert 0.25 < data["mixture"]["fdr"] < 0.48
        assert data["interval_count_null"] == sum(data["null"]["p_histogram"][45:50])
        assert "interval_fdr" in data
        assert data["null"]["config"]["master_seed"] == 11
        assert data["effect"]["config"]["master_seed"] == 12

    def test_seed_repeat_is_byte_identical_across_threads(self, capsys):
        argv = ["simulate", "--n-per-group", "4", "--delta", "1",
                "--n-sims", "3000", "--seed", "99", "--format", "json"]
        outputs = []
        for threads in ("1", "4", "1", "4"):
            code = main(argv + ["--threads", threads])
            out = capsys.readouterr().out
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FDRLAB_SEED", "31")
        implicit = run_json(capsys, "simulate", "--n-per-group", "4",
                            "--delta", "0", "--n-sims", "500")
        explicit = run_json(capsys, "simulate", "--n-per-group", "4",
                            "--delta", "0", "--n-sims", "500", "--seed", "31")
        assert implicit == explicit

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        for value in ("not-a-seed", "-1", "1.5", "18446744073709551616"):
            monkeypatch.setenv("FDRLAB_SEED", value)
            code, _, err = run_cli(capsys, "simulate", "--n-per-group", "4",
                                   "--delta", "0", "--n-sims", "100")
            assert code == 2, value
            assert "FDRLAB_SEED" in err

    def test_histogram_export(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, _, _ = run_cli(capsys, "simulate", "--n-per-group", "4",
                             "--delta", "0", "--n-sims", "1000", "--seed", "5",
                             "--emit-histogram", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,count"
        assert len(lines) == 21
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 1000

    def test_histogram_export_takes_the_bin_width(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, _, _ = run_cli(capsys, "simulate", "--n-per-group", "4",
                             "--delta", "0", "--n-sims", "1000", "--seed", "5",
                             "--emit-histogram", str(path), "--hist-bin-width", "0.1")
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 11

    def test_hist_bin_width_requires_emit_histogram(self, capsys):
        # a width no histogram would use is an error, not ignored
        code, out, err = run_cli(capsys, "simulate", "--n-per-group", "4", "--delta", "1",
                                 "--n-sims", "10", "--hist-bin-width", "0.1")
        assert (code, out, err) == (2, "", "error: --hist-bin-width requires --emit-histogram\n")

    def test_histogram_export_mixture_writes_both(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, _, _ = run_cli(capsys, "simulate", "--n-per-group", "4",
                             "--delta", "1", "--n-sims", "500", "--seed", "5",
                             "--prevalence", "0.5",
                             "--emit-histogram", str(path))
        assert code == 0
        assert (tmp_path / "hist_null.csv").exists()
        assert (tmp_path / "hist_effect.csv").exists()

    def test_histogram_io_failure_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--n-per-group", "4",
                               "--delta", "0", "--n-sims", "100", "--seed", "5",
                               "--emit-histogram", str(tmp_path / "missing" / "h.csv"))
        assert code == 4
        assert "error:" in err

    def test_zero_sims_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--n-per-group", "4", "--delta", "0",
                  "--n-sims", "0"])
        assert err.value.code == 2

    def test_interval_requires_prevalence(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n-per-group", "4",
                               "--delta", "0", "--n-sims", "100",
                               "--interval", "0.045,0.05")
        assert code == 2

    def test_off_grid_interval_exits_2(self, capsys):
        # non-finite, off-grid, lo >= hi and the wrong number of parts
        for interval in ("0.0451,0.05", "inf,0.05", "nan,0.05", "0,-inf",
                         "0.05,0.045", "0.05", "0,0.05,0.1"):
            with pytest.raises(SystemExit) as err:
                main(["simulate", "--n-per-group", "4", "--delta", "1",
                      "--n-sims", "100", "--prevalence", "0.5",
                      "--interval", interval])
            assert err.value.code == 2, interval
            assert "--interval" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["inf", "nan", "0.03"])
    def test_bad_hist_bin_width_exits_2(self, capsys, width):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--n-per-group", "4", "--delta", "1",
                  "--n-sims", "100", "--hist-bin-width", width])
        assert err.value.code == 2
        assert "--hist-bin-width" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, rule", [
        ("--interval", "-0.001,0.05", "lo must lie on the 0.001 grid"),
        ("--hist-bin-width", "-inf", "bin width must be a multiple of 0.001"),
        ("--delta", "-inf", "must be finite"),
    ])
    def test_value_starting_with_dash_names_the_rule(self, capsys, flag, value, rule):
        # argparse alone reads "-0.001,0.05" and "-inf" as options
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--n-per-group", "4", "--delta", "1", "--n-sims", "100",
                  "--prevalence", "0.5", flag, value])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert f"argument {flag}: " in message and rule in message
        assert "expected one argument" not in message

    @pytest.mark.parametrize("threads", ["0", "-2", "257", "100000", "1.5"])
    def test_bad_threads_exits_2_before_any_thread(self, capsys, monkeypatch, threads):
        from fdrlab import montecarlo

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--n-per-group", "4", "--delta", "1",
                  "--n-sims", "100000", "--threads", threads])
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5", "nan"])
    def test_bad_seed_exits_2(self, capsys, seed):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--n-per-group", "4", "--delta", "1",
                  "--n-sims", "100", "--seed", seed])
        assert err.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        [],
        ["--prevalence", "0.1", "--interval", "0.045,0.05"],
        ["--n-sims", "5", "--alpha", "0.001"],  # no significant test: null field
    ])
    def test_csv_row_matches_config_and_json_scalars(self, capsys, extra):
        argv = ["simulate", "--n-per-group", "4", "--delta", "1",
                "--n-sims", "2000", "--seed", "1", *extra]
        data = run_json(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        if "--prevalence" in extra:
            expected = {"prevalence": data["prevalence"], **data["mixture"]}
            expected.update({key: data[key] for key in data if key.startswith("interval_")})
            for tag in ("null", "effect"):
                expected.update({f"{tag}_{key}": data[tag][key] for key in _SCALARS})
        else:
            expected = {**data["config"], **{key: data[key] for key in _SCALARS}}
        assert list(rows[0]) == list(expected)
        for key, value in expected.items():
            cell = rows[0][key]
            if value is None:
                assert cell == "", key
            elif isinstance(value, float):
                assert float(cell) == value, key  # full precision round-trips
            else:
                assert int(cell) == value, key
        if "--alpha" in extra:
            assert data["mean_diff_significant"] is None


class TestInflation:
    def test_rows_and_duplicate_warning(self, capsys):
        code, out, err = run_cli(capsys, "inflation", "--n-list", "4,4,8",
                                 "--delta", "1", "--n-sims", "1500",
                                 "--seed", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["n_per_group"] for row in rows] == [4, 8]
        assert "duplicate" in err
        assert rows[0]["power"] == pytest.approx(0.223, abs=1e-3)

    def test_default_grid_has_eleven_points(self, capsys):
        code, out, _ = run_cli(capsys, "inflation", "--delta", "1",
                               "--n-sims", "300", "--seed", "3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert [int(r["n_per_group"]) for r in rows] == [3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 50]

    def test_custom_n_list_leaves_the_default_alone(self, capsys):
        # the parser is built once, so its default must not be shared state
        assert run_cli(capsys, "inflation", "--n-list", "3,4", "--n-sims", "64")[0] == 0
        code, out, _ = run_cli(capsys, "inflation", "--n-sims", "64", "--format", "csv")
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 11

    def test_alpha_whose_half_is_zero_exits_3_before_any_batch(self, capsys, monkeypatch):
        argv = ["inflation", "--n-list", "3", "--n-sims", "10", "--alpha", "5e-324"]
        expected = (3, "", "error: alpha / 2 must lie strictly inside (0, 1); got 0.0\n")
        assert run_cli(capsys, *argv) == expected

        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was simulated")

        monkeypatch.setattr(montecarlo, "run_batch", no_batch)
        assert run_cli(capsys, *argv) == expected

    def test_bad_n_exits_2(self, capsys):
        for n_list in ("2,8", "", "3,x", "3.5", "inf"):
            with pytest.raises(SystemExit) as err:
                main(["inflation", "--n-list", n_list, "--delta", "1"])
            assert err.value.code == 2, n_list
            assert "--n-list" in capsys.readouterr().err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("exc, code, message", [
    (KeyboardInterrupt, 130, "error: interrupted"),
    (MemoryError, 5, "error: out of memory"),
    # the base class, as a numerical failure raises it
    (FdrLabError, 3, "error: continued fraction did not converge"),
])
def test_interrupt_and_memory_error_exit_codes(capsys, monkeypatch, exc, code, message):
    # The parser, built once, holds the handlers themselves, so the handler
    # is made to raise through the library call it makes.
    def raise_it(*args, **kwargs):
        raise exc("continued fraction did not converge")

    monkeypatch.setattr(cli.fc, "berger_table", raise_it)
    assert main(["berger", "--table"]) == code
    err = capsys.readouterr().err
    assert err.strip() == message
    assert "Traceback" not in err


# A valid value for every option that some command requires, directly or as
# the first member of a required mutually exclusive group.
_VALID = {"--prevalence": "0.1", "--sensitivity": "0.8", "--specificity": "0.95",
          "--power": "0.8", "--alpha": "0.05", "--p": "0.05", "--n": "16",
          "--d": "1", "--n-per-group": "4", "--delta": "1"}


def _typed_flags():
    """(subcommand, argv of the other required flags, flag) for every option
    with a `type`, on every subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        groups = [g for g in parser._mutually_exclusive_groups if g.required]
        for action in parser._actions:
            if action.type is None:
                continue
            flag = action.option_strings[0]
            rest = []
            for other in parser._actions:
                if other.required and other is not action:
                    rest += [other.option_strings[0], _VALID[other.option_strings[0]]]
            for group in groups:
                if action not in group._group_actions:
                    first = group._group_actions[0].option_strings[0]
                    rest += [first, _VALID[first]]
            yield name, rest, flag


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_every_typed_flag_rejects_non_finite_values(capsys, value):
    checked = 0
    for name, rest, flag in _typed_flags():
        with pytest.raises(SystemExit) as err:
            main([name, *rest, flag, value])
        assert err.value.code == 2, (name, flag, value)
        assert f"argument {flag}: " in capsys.readouterr().err, (name, flag, value)
        checked += 1
    assert checked == 31  # screen 4, fdr 4, berger 2, power 4, simulate 10, inflation 7


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-per-group", "4", "--delta", "1", "--sd", "1e300"],
    ["simulate", "--n-per-group", "4", "--delta=-1.1e100"],
    ["inflation", "--sd", "1e300"],
    ["inflation", "--delta", "1.1e100"],
])
def test_simulated_scale_above_1e100_exits_2(capsys, argv):
    # the rule SimConfig applies, montecarlo.simulated_scale
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "value must be at most 1e+100 in magnitude" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate --n-per-group 2 --delta 0 --n-sims 10",
                                     "inflation --n-list 3 --n-sims 10"])
def test_simulated_sd_below_1e_100_exits_2(capsys, command):
    # the rule SimConfig applies, montecarlo.simulated_sd: at 1e-300 every
    # batch failed with a false "all observations are identical"
    with pytest.raises(SystemExit) as err:
        main([*command.split(), "--sd", "1e-300"])
    assert err.value.code == 2
    assert "argument --sd: value must be at least 1e-100" in capsys.readouterr().err
    assert main([*command.split(), "--sd", "1e-100", "--format", "json"]) == 0
    capsys.readouterr()


def test_json_round_trips_losslessly(capsys):
    data = run_json(capsys, "fdr", "--prevalence", "0.123456789",
                    "--power", "0.8", "--alpha", "0.05")
    reference = 0.123456789
    assert data["prevalence"] == reference  # exact, not approximate


def _reject_constant(token):
    raise ValueError(f"not RFC 8259 JSON: {token}")


@pytest.mark.parametrize("argv, key", [
    (["inflation", "--n-list", "3", "--n-sims", "1"], "mean_diff_significant"),
    (["screen", "--prevalence", "0", "--sensitivity", "1", "--specificity", "0"], "npv"),
    (["fdr", "--prevalence", "0", "--power", "0.8", "--alpha", "0.05"], "prior_odds_h0"),
], ids=["inflation", "screen", "fdr"])
def test_json_writes_null_for_nan_and_infinity(capsys, argv, key):
    # NaN, no significant test at all; NaN, no negatives; +inf, no real effects
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    data = json.loads(out, parse_constant=_reject_constant)
    record = data[0] if isinstance(data, list) else data
    assert record[key] is None


@pytest.mark.parametrize("argv, expected", [
    (["fdr", "--prevalence", "0.1", "--power", "0.01", "--alpha", "0.05"],
     "power (0.01) below alpha (0.05): test performs worse than chance"),
    # at this seed the effect batch has 9 significant tests of 200, and the
    # null batch 18
    (["simulate", "--n-per-group", "3", "--delta", "0.1", "--prevalence", "0.5",
      "--n-sims", "200", "--seed", "13", "--threads", "1"],
     "power (0.045) below alpha (0.09): test performs worse than chance"),
], ids=["fdr", "simulate"])
def test_library_warning_prints_as_one_warning_line(argv, expected):
    # A subprocess, because the suite turns every warning into an error.
    env = {**os.environ, "PYTHONPATH": str(Path(fdrlab.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "fdrlab", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines), lines
    assert expected in lines[0]


def test_no_command_prints_help(capsys):
    code = main([])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_csv_mapping_format(capsys):
    code, out, _ = run_cli(capsys, "fdr", "--prevalence", "0.1", "--power", "0.8",
                           "--alpha", "0.05", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["fdr"]) == pytest.approx(0.36, abs=1e-12)


# SHA-256 of a command's stdout in table, csv and json, in that order: the
# 22 commands of the `analytic` benchmark workload, less `fdr --prevalence 0`
# (its JSON holds an infinite prior odds), then two simulations and an
# inflation curve, keyed by stream version.  The simulated digests pass
# through numpy's SIMD log and exp, as the run_batch digests in
# test_montecarlo.py do, so other hardware may give other digests without
# any change to the code.
_STDOUT_DIGESTS = {
    "power --solve --target 0.8 --d 1":
        "b1accfec30e14f0bd51bf16d6d26d7038b6b8c1804f39302cc7d09f3060fa19f",
    "power --solve --target 0.8 --d 0.2":
        "c1c8a5b441e73749361497f8a7afa4dd1896f0f67649a7f34365a7a473cc2b3e",
    "power --solve --target 0.8 --d 0.01":
        "9b1c4efa2cdaa09a74f4be798ec402ed84dba7fbd4e438e7553e86d39dab81ca",
    "power --n 3 --d 1":
        "bd5f8db5f991c2d8b664549527df3fb970ef5cd3fc2754a242be745a78ecc7c0",
    "power --n 4 --d 1":
        "0622d8333c365812f2f3ec24daef7d7d017034d090d72bd3fcd5d4eaca0646fd",
    "power --n 5 --d 1":
        "28e35e3b28f81749e1336a7887457fadf17d9c4fc653c5f48449eca0b8fd5afa",
    "power --n 6 --d 1":
        "084a6b49ac23f43532f6f9d4be895205ccb89ed4ea153d3d5de9888438f47950",
    "power --n 8 --d 1":
        "524a8962b722cb2ae0dd9a48fc9e3f5696ec6ce892de3a8ea7789225ae78e0f4",
    "power --n 10 --d 1":
        "71dc908a88f08393acec349a91a601f9d6e6a006f693288e864e13eabf9c1f9c",
    "power --n 12 --d 1":
        "da2ec6301977b287e44bd8bf8b48f534c101e67f3afb0a258512be2a5078c189",
    "power --n 14 --d 1":
        "495e8cf871240051afe65b80ca3a079395c526f0e3d0e122f44c72a0eff539a5",
    "power --n 16 --d 1":
        "7352cd522d8fdcd67ef264bdf8a2de71c3954d029a67798515881eb7b8e3abf9",
    "power --n 20 --d 1":
        "c5277b2485842f8cec7db8a1d80fb691930d8fd2ae0deaa7ba60bc9eb3d4c0fd",
    "power --n 50 --d 1":
        "e0f8333d535fa182ee443437bd7c54b8531cfa757f4127edec712f9ac9028adf",
    "screen --prevalence 0.01 --sensitivity 0.8 --specificity 0.95 --population 10000":
        "c168564dcdd98d2a4fc02123d142e7a6d1441ac4156363c8db0f819789fcd1a7",
    "fdr --prevalence 0.1 --power 0.8 --alpha 0.05 --n-tests 1000":
        "cf2f288031ae916b32f8f23db715fc2130d311292e92917c9d1edddf3ff93de3",
    "fdr --prevalence 0.5 --power 0.8 --alpha 0.05":
        "624b190614dd140d6ddf003e0402d10439f50a996865027fb6bcc3be99e7b299",
    "berger --table":
        "db0ea7c753e6abc64fa45faf514a9d8b47239550f6133ef618feebd93009332d",
    "berger --p 0.05":
        "a4625d7a122cb9012b70fa5e7e9005ded28094863ccc44566c8ae0ed590e170d",
    "berger --p 0.0027":
        "fbe612f57c9d1a594301f87b8085897f9f0903772f0d729f55c19df27c3efce8",
    "berger --target-fdr 0.05":
        "f1a67dfc219e71341cfa60397547d012c1e3775688f41f92a169a18e1ce0dde9",
}


# the older tables stay as the record of what each version gave
_SIMULATED_STDOUT_DIGESTS = {
    4: {
        "simulate --n-per-group 4 --delta 1 --n-sims 2000 --seed 1":
            "5ed620448b9969477b3e9f609915c46c1a6719b52e3049f3c61b620c1284b694",
        "simulate --n-per-group 4 --delta 1 --n-sims 2000 --seed 1 --prevalence 0.1 --interval 0.045,0.05":
            "594dc401855b35b4a45ba569875e45e49cbb02efd6f06085504c334b4f6f9b55",
        "inflation --n-sims 300 --seed 3":
            "31ae88152f04d51d8de5de0337710b7b16072bc06a1c803edcce7d14aa63f9ea",
    },
    5: {
        "simulate --n-per-group 4 --delta 1 --n-sims 2000 --seed 1":
            "4321a6673c071a1bc09bffaa72c7d8eb23ebbbc3f63c6e20382c4f37d0d699f0",
        "simulate --n-per-group 4 --delta 1 --n-sims 2000 --seed 1 --prevalence 0.1 --interval 0.045,0.05":
            "87bc9c00bc22ce22a3535d9c5dca35f77bfaa56c55668a1824751b2836bca953",
        "inflation --n-sims 300 --seed 3":
            "71a1d1f639aa8e4fb5bf7b0927965e21c3cf8d5593f854262a03ad61697b8a82",
    },
}


@pytest.mark.parametrize("command", [*_STDOUT_DIGESTS, *_SIMULATED_STDOUT_DIGESTS[STREAM_VERSION]])
def test_stdout_digests_pinned(capsys, command):
    digest = hashlib.sha256()
    for fmt in cli._FORMATS:
        assert main([*command.split(), "--format", fmt]) == 0
        digest.update(capsys.readouterr().out.encode())
    pinned = {**_STDOUT_DIGESTS, **_SIMULATED_STDOUT_DIGESTS[STREAM_VERSION]}
    assert digest.hexdigest() == pinned[command]
