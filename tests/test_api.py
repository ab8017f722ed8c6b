"""The public API: every name the package exports resolves, the export
list stays sorted and free of duplicates, and each entry point imports
nothing beyond what it needs: no numpy for the exact calculus and the
parser, no numpy.polynomial or numpy.ma for analytic power."""

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
        import contextlib, io, sys

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
        "run_batch fdrlab.montecarlo True",
    ]
