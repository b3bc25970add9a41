"""Sampling coefficients and forcing at a stack of Wiener rows.

Core claims:
    - an expression field's `rows` equals, under ==, the field evaluated
      one state at a time with each w_k bound to a float, for every
      operator and function of the expression language, on 1D and 2D
      grids, including subtrees that read only W or t
    - CoefficientSet.sample at a stack of rows (U, d') equals the stacked
      one-state samples, for lambda samplers and for expression samplers,
      and level_forcing, one row per distinct state expanded by its node
      map, equals the stacked per-state forcing
    - a W-dependent CLI config evaluates each expression entry once per
      level, whatever the number of Wiener rows on the level
    - a CoefficientDataError from a row sample names t, the offending
      Wiener row and, where there is one, the grid index
"""

import re
from pathlib import Path

import numpy as np
import pytest

from bspdelab import cli, solver
from bspdelab.cli import _compile_entry, _ExpressionField
from bspdelab.coefficients import CoefficientDataError, CoefficientSet, constant_sampler
from bspdelab.expr import FUNCTIONS_1, FUNCTIONS_2, evaluate
from bspdelab.grid import SpatialGrid
from bspdelab.solver import level_forcing

ALLOWED = {"t", "x1", "x2", "w1", "w2"}

# every operator, every function, and subtrees reading only W or t
SOURCES = (
    "x1 + w1",
    "x1 - w2",
    "-w1 * x2",
    "x1 / (2 + w2)",
    "(1 + x1 ^ 2) ^ (w1 / 3)",
    "sin(x1 + w1)",
    "cos(x2 * w2 - t)",
    "exp(-t) * exp(w1 * x1 / 4)",
    "sqrt(1 + (x2 - w1) ^ 2)",
    "abs(x1 - w2)",
    "tanh(w1 + x2)",
    "min(x1, w1)",
    "max(w2, x2)",
    "tanh(w1)",
    "w1 ^ 2",
    "exp(-t)",
    "sin(w1) * cos(w2) + sqrt(abs(w1)) / (1 + t)",
    "min(w1, w2) - max(w1, t)",
    "x1 * tanh(w2) + exp(w1 ^ 2 / 8) * cos(t)",
)


def _grid(dim):
    return SpatialGrid(dim=dim, half_width=np.pi, points=16)


def _states():
    rng = np.random.default_rng(11)
    return rng.normal(scale=1.5, size=(7, 2))


def _scalar_reference(node, t, w, grid):
    """The entry at one state with each w_k bound to a Python float."""
    env = {"t": t, "w1": float(w[0]), "w2": float(w[1])}
    for axis, coord in enumerate(grid.coordinates()):
        env[f"x{axis + 1}"] = coord
    return np.broadcast_to(np.asarray(evaluate(node, env), dtype=np.float64), grid.shape)


def test_sources_cover_every_function():
    used = set()
    for src in SOURCES:
        used |= set(re.findall(r"[a-z]+(?=\()", src))
    assert used == set(FUNCTIONS_1) | set(FUNCTIONS_2)
    assert all(op in "".join(SOURCES) for op in "+-*/^")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("src", SOURCES)
def test_expression_rows_equal_per_state_evaluation(dim, src):
    grid = _grid(dim)
    allowed = ALLOWED if dim == 2 else ALLOWED - {"x2"}
    src = src if dim == 2 else src.replace("x2", "x1")
    node, used = _compile_entry(src, allowed, "test")
    field = _ExpressionField({(): (node, used)}, ())
    states = _states()
    t = 0.3
    rows = field.rows(t, states, grid)
    assert rows.shape == (len(states),) + grid.shape
    per_call = np.stack([field(t, w, grid) for w in states])
    reference = np.stack([_scalar_reference(node, t, w, grid) for w in states])
    assert np.array_equal(rows, per_call)
    assert np.array_equal(rows, reference)


def test_symmetric_matrix_rows_equal_per_state():
    grid = _grid(2)
    sources = {
        (0, 0): "1 + 0.1 * sin(x1 + w1)",
        (0, 1): "0.1 * tanh(w2) * cos(x2)",
        (1, 1): "exp(-t) + w1 ^ 2",
    }
    field = _field((2, 2), sources, symmetric=True)
    states = _states()
    rows = field.rows(0.1, states, grid)
    assert rows.shape == (len(states),) + grid.shape + (2, 2)
    assert np.array_equal(rows, np.stack([field(0.1, w, grid) for w in states]))
    assert np.array_equal(rows, np.swapaxes(rows, -1, -2))


def test_rows_without_states_is_w_zero():
    grid = _grid(1)
    field = _field((), {(): "cos(x1 + w1) + w2"})
    assert np.array_equal(field.rows(0.0, None, grid), field.rows(0.0, np.zeros((1, 2)), grid))
    assert np.array_equal(field(0.0, None, grid), field.rows(0.0, None, grid)[0])


def _lambda_set():
    return CoefficientSet(
        dim=1,
        wiener_dim=2,
        a=lambda t, w, g: np.full(g.shape + (1, 1), 0.5 + 0.1 * np.sin(w[0]) ** 2 + t),
        b=lambda t, w, g: np.cos(g.axis_coordinates() + w[1])[:, None],
        sigma=lambda t, w, g: np.full(g.shape + (1, 2), 0.2) * np.array([1.0, w[0]]),
        nu=constant_sampler([0.1, -0.2], (2,)),
        w_dependent=True,
        time_dependent=True,
    )


def _field(suffix, sources, symmetric=False):
    entries = {index: _compile_entry(src, ALLOWED, str(index)) for index, src in sources.items()}
    return _ExpressionField(entries, suffix, symmetric=symmetric)


def _expression_set():
    return CoefficientSet(
        dim=1,
        wiener_dim=2,
        a=_field((1, 1), {(0, 0): "1 + 0.3 * sin(x1 + w1) ^ 2 + exp(-t)"}, symmetric=True),
        b=_field((1,), {(0,): "tanh(w2) * x1"}),
        c=_field((), {(): "min(w1, w2)"}),
        sigma=_field(
            (1, 2),
            {(0, 0): "0.2 * (1 + 0.3 * sin(x1 + w1))", (0, 1): "0.1 * cos(x1 - w2)"},
        ),
        w_dependent=True,
        time_dependent=True,
    )


@pytest.mark.parametrize("make", [_lambda_set, _expression_set])
def test_sample_at_rows_equals_stacked_single_states(make):
    coeffs = make()
    grid = _grid(1)
    states = _states()
    t = 0.25
    stacked = coeffs.sample(t, states, grid)
    singles = [coeffs.sample(t, w, grid) for w in states]
    for name in ("a", "b", "c", "sigma", "nu"):
        want = np.stack([getattr(s, name) for s in singles])
        got = getattr(stacked, name)
        assert got.shape == want.shape
        assert np.array_equal(got, want), name
    assert np.array_equal(stacked.w, states)
    assert singles[0].w.shape == (2,)
    assert singles[0].a.shape == grid.shape + (1, 1)


# -- the CLI: one evaluation per entry and level ----------------------------------------

_CONFIG = """
[grid]
d = 1
R = 3.141592653589793
M = 16

[tree]
T = 0.1
n_steps = 5
dprime = 1
mode = recombining

[problem]
time_stepping = semi_implicit
a11 = 0.5 * (0.3 * (1 + 0.3 * sin(x1 + w1))) ^ 2 + 0.1 * (1 + 0.5 * cos(x1 - w1) * exp(-t))
sigma11 = 0.3 * (1 + 0.3 * sin(x1 + w1))
b1 = 0.4 * sin(x1 + t)
f = 0.3 * cos(x1) * tanh(w1)
phi = cos(x1) * (1 + w1)
"""


def _cli_problem(tmp_path: Path):
    path = tmp_path / "rows.ini"
    path.write_text(_CONFIG, encoding="utf-8")
    parser, _ = cli.load_config(str(path))
    grid = cli.build_grid(parser)
    tree = cli.build_tree(parser)
    problem, _, _ = cli.build_problem(parser, grid, tree, None)
    return problem


def test_cli_forcing_rows_equal_per_state_forcing(tmp_path):
    problem = _cli_problem(tmp_path)
    tree, grid = problem.tree, problem.grid
    assert problem.forcing_w_dependent
    for level in range(tree.n_steps):
        t = float(tree.time_grid.time(level))
        want = np.stack([problem.forcing(t, w, grid) for w in tree.level_w(level)])
        rows, inv = level_forcing(problem, level)
        assert len(rows) == level + 1
        assert np.array_equal(rows if inv is None else rows[inv], want)


def test_w_dependent_cli_config_evaluates_each_entry_once_per_level(tmp_path, monkeypatch):
    problem = _cli_problem(tmp_path)
    tree = problem.tree
    calls = []
    real = cli.evaluate

    def counting(node, env):
        calls.append(node)
        return real(node, env)

    monkeypatch.setattr(cli, "evaluate", counting)
    for level in range(tree.n_steps):
        assert len(np.unique(tree.level_w(level), axis=0)) == level + 1
        calls.clear()
        solver._level_coefficients(problem, level)
        assert len(calls) == 3  # a11, sigma11, b1
        calls.clear()
        level_forcing(problem, level)
        assert len(calls) == 1


# -- errors name the state ----------------------------------------------------------------


def _rows_set(**samplers):
    base = {"a": constant_sampler([[1.0]], (1, 1))}
    return CoefficientSet(dim=1, wiener_dim=1, w_dependent=True, **{**base, **samplers})


ROWS = np.array([[-0.5], [0.0], [0.75]])


def test_asymmetric_a_names_t_row_and_grid_index():
    grid = SpatialGrid(dim=2, half_width=np.pi, points=8)

    def a(t, w, g):
        out = np.broadcast_to(np.eye(2), g.shape + (2, 2)).copy()
        if w[0] > 0.5:
            out[3, 5, 0, 1] = 0.25
        return out

    coeffs = CoefficientSet(dim=2, wiener_dim=1, a=a, w_dependent=True)
    with pytest.raises(
        CoefficientDataError,
        match=re.escape("a is not symmetric at grid index (3, 5), t = 0.125, W = [0.75]"),
    ):
        coeffs.sample(0.125, ROWS, grid)


@pytest.mark.parametrize("name", ["a", "c"])
def test_non_finite_sample_names_t_row_and_grid_index(name):
    grid = _grid(1)

    def sampler(t, w, g):
        out = np.ones(g.shape + ((1, 1) if name == "a" else ()))
        if w[0] == 0.0:
            out[9] = np.nan
        return out

    with pytest.raises(
        CoefficientDataError,
        match=re.escape(f"{name} sample contains non-finite values at grid index (9,), t = 0.5, W = [0.0]"),
    ):
        _rows_set(**{name: sampler}).sample(0.5, ROWS, grid)


def test_wrong_shape_names_t_and_row():
    grid = _grid(1)
    coeffs = _rows_set(b=lambda t, w, g: np.zeros(g.shape))
    with pytest.raises(
        CoefficientDataError,
        match=re.escape("b sample has shape (3, 16), expected (3, 16, 1) (Wiener rows first), t = 0.5, W = [-0.5]"),
    ):
        coeffs.sample(0.5, ROWS, grid)
