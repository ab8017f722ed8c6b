"""The public API: every name the package exports resolves, through one
table, to its submodule's object; the export list stays sorted and free of
duplicates and is what a star import binds; and each entry point imports
nothing beyond what it needs: no numpy for the exact calculus and the
parser, no numpy.polynomial or numpy.ma for analytic power."""

import importlib
import os
import subprocess
import sys

import fdrlab


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fdrlab.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_all_names_resolve_sorted_and_unique():
    names = fdrlab.__all__
    assert [name for name in names if not hasattr(fdrlab, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_each_export_is_its_submodules_object():
    # one table lists every public name with the submodule that defines it
    assert fdrlab.__all__ == sorted(fdrlab._EXPORTS)
    for name, module in fdrlab._EXPORTS.items():
        submodule = importlib.import_module(f"fdrlab.{module}")
        assert getattr(fdrlab, name) is getattr(submodule, name), name


def test_star_import_binds_exactly_all():
    code = ("import fdrlab; names = set(globals()); from fdrlab import *; "
            "print(sorted(set(globals()) - names - {'names'}) == fdrlab.__all__)")
    assert _run_python(code).strip() == "True"


def test_import_loads_errors_and_fdr_calculus_without_numpy():
    code = ("import sys, fdrlab; "
            "print(sorted(set(vars(fdrlab)) & {'errors', 'fdr_calculus'}), "
            "fdrlab.errors is sys.modules['fdrlab.errors'], "
            "fdrlab.fdr_calculus is sys.modules['fdrlab.fdr_calculus'], "
            "[m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')])")
    assert _run_python(code).strip() == "['errors', 'fdr_calculus'] True True []"


def test_power_leaves_numpy_polynomial_and_ma_unimported():
    # numpy.polynomial and numpy.ma each add about 2 MB of resident memory;
    # the noncentral-t quadrature builds its Gauss-Legendre rule without the
    # first and avoids np.unique, which imports the second
    code = ("import sys, fdrlab; fdrlab.power_two_sample(16, 1.0); "
            "print(sorted({'numpy.polynomial', 'numpy.ma'} & set(sys.modules)))")
    assert _run_python(code).strip() == "[]"


def test_exact_calculus_and_flag_errors_leave_numpy_unimported():
    # numpy and the simulation engine take about 110 ms to import; the
    # package resolves its numpy-backed names on first use, and the CLI
    # imports power and montecarlo inside their handlers
    code = """if True:
        import contextlib, io, os, sys

        def numpy_loaded():
            return any(name == "numpy" or name.startswith("numpy.") for name in sys.modules)

        import fdrlab
        print("import fdrlab", numpy_loaded())
        assert set(fdrlab.__all__) <= set(dir(fdrlab))
        print("dir covers __all__", numpy_loaded())
        from fdrlab.cli import build_parser, main
        build_parser()
        print("build_parser", numpy_loaded())
        for argv in ("screen --prevalence 0.01 --sensitivity 0.8 --specificity 0.95",
                     "fdr --prevalence 0.1 --power 0.8 --alpha 0.05",
                     "berger --table", "berger --target-fdr 0.05"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv.split())
            print(argv.split()[0], code, numpy_loaded())
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                main("simulate --n-per-group 16 --delta 1 --threads 0".split())
        except SystemExit as exc:
            print("flag error", exc.code, numpy_loaded())
        # a flag without the one it depends on, and a bad FDRLAB_SEED, are
        # found before the simulation engine is imported
        for seed, argv in ((None, "simulate --n-per-group 16 --delta 1 --interval 0.045,0.05"),
                           (None, "simulate --n-per-group 16 --delta 1 --hist-bin-width 0.1"),
                           ("-1", "simulate --n-per-group 16 --delta 1"),
                           ("-1", "inflation")):
            os.environ.pop("FDRLAB_SEED", None)
            if seed is not None:
                os.environ["FDRLAB_SEED"] = seed
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv.split())
            print(argv.split()[0], code, err.getvalue().strip(), numpy_loaded())
        run_batch = fdrlab.run_batch
        print("run_batch", run_batch.__module__, numpy_loaded())
    """
    assert _run_python(code).splitlines() == [
        "import fdrlab False",
        "dir covers __all__ False",
        "build_parser False",
        "screen 0 False",
        "fdr 0 False",
        "berger 0 False",
        "berger 0 False",
        "flag error 2 False",
        "simulate 2 error: --interval requires --prevalence False",
        "simulate 2 error: --hist-bin-width requires --emit-histogram False",
        "simulate 2 error: FDRLAB_SEED: seed must fit in an unsigned 64-bit integer; got -1 False",
        "inflation 2 error: FDRLAB_SEED: seed must fit in an unsigned 64-bit integer; got -1 False",
        "run_batch fdrlab.montecarlo True",
    ]
