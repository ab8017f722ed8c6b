"""The public API: every name the package exports resolves, the export
list stays sorted and free of duplicates, and analytic power imports nothing
beyond what the package itself needs."""

import os
import subprocess
import sys

import fdrlab


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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fdrlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
