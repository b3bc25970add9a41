"""What importing and running bspdelab loads.

Core claims:
    - import bspdelab, an explicit solve with its estimates and weak form,
      an exhaustive policy search and a 2D constant-a semi-implicit solve
      (the FFT path) load no scipy module
    - a 1D semi-implicit solve, with constant or varying a, loads scipy's
      LAPACK extension on its first banded LU factorisation and neither the
      scipy.linalg package nor any scipy.sparse module, and its result is
      `==` the same solve run in this process
    - either import order works: scipy.linalg imported after a 1D solve
      gets its own _flapack with the solver's dgbtrf and dgbtrs, and a
      scipy.linalg imported first is reused, not loaded again
    - without scipy, the first banded factorisation raises an ImportError
      naming scipy

Each check of what is loaded runs in a fresh interpreter, since the test
process itself may have imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bspdelab import solver

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_MODULES = """
import sys
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

NO_FACTORISATION = """
import numpy as np

import bspdelab
from bspdelab.control import ControlProblem, exhaustive_policy_search
from bspdelab.energy import verify_main_estimates
from bspdelab.grid import SpatialGrid
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab.oracles import heat_oracle
from bspdelab.solver import (
    SEMI_IMPLICIT,
    SolverConfig,
    default_test_functions,
    problem_from_oracle,
    solve,
    weak_form_residual,
)

grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
problem = problem_from_oracle(heat_oracle(grid, horizon=0.1), build_tree(TimeGrid(0.1, 8), 1, "recombining"))
solution = solve(problem)
verify_main_estimates(solution, problem, m1=1)
weak_form_residual(solution, problem, default_test_functions(grid))

x = grid.axis_coordinates()
control = ControlProblem(
    grid=grid,
    tree=build_tree(TimeGrid(0.1, 3), 1, "full"),
    gamma=(-1.0, 1.0),
    terminal_phi=np.cos(x),
    xi0=np.exp(np.cos(x)),
    a=lambda t, v, g: 0.25 * np.eye(1),
    sigma=lambda t, v, g: 0.5 * np.ones((1, 1)),
    big_f=lambda t, v, g: v * np.sin(x),
)
exhaustive_policy_search(control)

grid2 = SpatialGrid(dim=2, half_width=np.pi, points=8)
problem2 = problem_from_oracle(heat_oracle(grid2, horizon=0.1), build_tree(TimeGrid(0.1, 4), 1, "recombining"))
solve(problem2, SolverConfig(time_stepping=SEMI_IMPLICIT))
"""

SEMI_IMPLICIT_1D = """
import numpy as np

from bspdelab.grid import SpatialGrid
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab.oracles import wiener_linear_oracle
from bspdelab.solver import SEMI_IMPLICIT, SolverConfig, problem_from_oracle, solve

grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
problem = problem_from_oracle(wiener_linear_oracle(grid, horizon=0.5), build_tree(TimeGrid(0.5, 8), 1, "recombining"))
solution = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
fields = np.concatenate(
    [f[level].ravel() for f in (solution.u, solution.q) for level in range(len(f))]
)
"""

VARYING_1D = """
import numpy as np

from bspdelab.coefficients import CoefficientSet
from bspdelab.grid import SpatialGrid
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab.solver import SEMI_IMPLICIT, ProblemData, SolverConfig, solve

grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
x = grid.axis_coordinates()


def a(t, w, g):
    return (0.4 + 0.2 * np.cos(x - w[0]) * np.exp(-t))[:, None, None]


def sigma(t, w, g):
    return (0.3 * (1 + 0.3 * np.sin(x + w[0])))[:, None, None]


coeffs = CoefficientSet(dim=1, wiener_dim=1, a=a, sigma=sigma, w_dependent=True, time_dependent=True)
tree = build_tree(TimeGrid(0.2, 6), 1, "recombining")
problem = ProblemData(grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: np.cos(x))
solution = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
fields = np.concatenate(
    [f[level].ravel() for f in (solution.u, solution.q) for level in range(len(f))]
)
"""

# what a 1D solve loaded: the scipy.linalg package, any scipy.sparse module,
# the loader's cache size; then the fields' bytes
LOADED = """
import sys
from bspdelab.solver import _flapack
print('scipy.linalg' in sys.modules, any(m.startswith('scipy.sparse') for m in sys.modules), _flapack.cache_info().currsize)
print(fields.tobytes().hex())
"""

SPLU_2D = """
from bspdelab.grid import random_smooth_field

grid2 = SpatialGrid(dim=2, half_width=np.pi, points=8)


def a2(t, w, g):
    field = 0.4 + 0.1 * np.cos(g.coordinates()[0]) * np.exp(-t)
    return field[..., None, None] * np.eye(2)


terminal2 = random_smooth_field(grid2, 3, 5)
solve(
    ProblemData(
        grid=grid2,
        tree=build_tree(TimeGrid(0.3, 4), 1, "recombining"),
        coefficients=CoefficientSet(dim=2, wiener_dim=1, a=a2, time_dependent=True),
        terminal=lambda w, g: terminal2,
    ),
    SolverConfig(time_stepping=SEMI_IMPLICIT),
)
"""


def _run_fresh(code: str) -> list[str]:
    """Run code in a new interpreter importing bspdelab from src; its output lines."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_explicit_control_and_fft_runs_load_no_scipy():
    assert _run_fresh(NO_FACTORISATION + SCIPY_MODULES) == ["[]"]


def _loads_only_lapack(code: str):
    lines = _run_fresh(code + LOADED)
    here = {}
    exec(code, here)
    assert lines[0] == "False False 1"
    assert np.array_equal(np.frombuffer(bytes.fromhex(lines[1])), here["fields"])


def test_first_lu_factorisation_loads_scipy_and_changes_no_result():
    _loads_only_lapack(SEMI_IMPLICIT_1D)


def test_varying_a_factorisation_loads_only_lapack_and_changes_no_result():
    _loads_only_lapack(VARYING_1D)


def test_scipy_linalg_imported_after_a_solve_shares_its_lapack():
    lines = _run_fresh(
        VARYING_1D
        + "first = [level.copy() for level in solution.u]\n"
        + "import scipy.linalg\n"
        + "from bspdelab.solver import _flapack\n"
        + SPLU_2D
        + "lapack = scipy.linalg.lapack\n"
        + "print(hasattr(scipy.linalg, '_flapack'), lapack.dgbtrf is _flapack().dgbtrf, lapack.dgbtrs is _flapack().dgbtrs)\n"
        + "second = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))\n"
        + "print(all(np.array_equal(u, v) for u, v in zip(first, second.u, strict=True)))\n"
    )
    assert lines == ["True True True", "True"]


def test_scipy_linalg_imported_first_is_reused():
    lines = _run_fresh(
        "import sys\n"
        + "import scipy.linalg\n"
        + "loaded = sys.modules['scipy.linalg._flapack']\n"
        + SEMI_IMPLICIT_1D
        + "from bspdelab.solver import _flapack\n"
        + "print(_flapack() is loaded, scipy.linalg._flapack is loaded, sys.modules['scipy.linalg._flapack'] is loaded)\n"
        + "print(fields.tobytes().hex())\n"
    )
    here = {}
    exec(SEMI_IMPLICIT_1D, here)
    assert lines[0] == "True True True"
    assert np.array_equal(np.frombuffer(bytes.fromhex(lines[1])), here["fields"])


def test_missing_scipy_raises_an_import_error_naming_it(monkeypatch):
    monkeypatch.setattr(solver, "find_spec", lambda name: None)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    solver._flapack.cache_clear()
    try:
        with pytest.raises(ImportError, match="No module named 'scipy'") as raised:
            solver.band_lu(np.zeros((4, 2), order="F"), 1)
        assert raised.value.name == "scipy"
    finally:
        solver._flapack.cache_clear()
