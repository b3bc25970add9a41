"""What importing and running bspdelab loads.

Core claims:
    - import bspdelab, an explicit solve with its estimates and weak form,
      an exhaustive policy search and a 2D constant-a semi-implicit solve
      (the FFT path) load no scipy module
    - a 1D semi-implicit solve loads scipy.linalg, and no scipy.sparse
      module, on its first banded LU factorisation, and its result is `==`
      the same solve run in this process

Each check runs in a fresh interpreter, since the test process itself may
have imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_first_lu_factorisation_loads_scipy_and_changes_no_result():
    lines = _run_fresh(
        SEMI_IMPLICIT_1D
        + "import sys\n"
        + "print('scipy.linalg' in sys.modules, any(m.startswith('scipy.sparse') for m in sys.modules))\n"
        + "print(fields.tobytes().hex())\n"
    )
    here = {}
    exec(SEMI_IMPLICIT_1D, here)
    assert lines[0] == "True False"
    assert np.array_equal(np.frombuffer(bytes.fromhex(lines[1])), here["fields"])
