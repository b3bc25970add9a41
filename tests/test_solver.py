"""Backward sweep tests.

Core claims:
    - SolverConfig and ProblemData reject malformed inputs up front, and
      level_coefficients rows or a forcing_level map that do not fit the
      level are refused
    - estimate_cfl reproduces the closed-form parabolic and advective
      bounds for constant coefficients
    - explicit stepping refuses an oversized dt with a CflError whose
      report suggests a workable step count, and that count works
    - semi-implicit stepping accepts the same dt, warning instead when
      the advective bound or the stochastic coupling number is exceeded
    - a stiff reaction term overflowing the sweep raises SolverBlowupError
    - the solved fields satisfy the summation-by-parts weak form to
      machine precision on both tree modes and both stepping modes
    - r = q + sigma^T grad u holds node by node; a level stores r only
      where its sigma rows (and row map) are not smaller, otherwise r's
      rows are computed on read, == the per-node transform, and what a
      solve holds never exceeds u, q and a stored r; r's readers build
      only the rows they return, and the sweep transforms no derived level
    - terminal data is sampled per unique leaf state, and a sample of the
      wrong shape is refused
    - viscosity_continuation validates its schedule, shrinks the
      consecutive gaps on a smooth problem, and records aborts
    - solve is deterministic
    - oracle_step_residual evaluates the oracle once per level, steps each
      distinct state once and keeps its numbers bit for bit
    - solve (on every level, beyond the rows stored so far, with and
      without the weak form checked in the sweep), verify_main_estimates,
      main_estimate_reports with two exponents and weak_form_residual each
      hold under ten node blocks beyond what they keep, on a recombining
      lattice whose every level keeps one row per node and whose leaf
      level spans 16 blocks
    - a solve stores each distinct node state once, with node arrays `==`
      a solve whose nodes all differ, and the continuation gaps taken per
      distinct row pair equal the gaps of the node arrays
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from pytest import approx

from bspdelab import energy, lattice
from bspdelab.coefficients import CoefficientSet, builtin_counterexamples, constant_sampler
from bspdelab.grid import SpatialGrid, batch_gradient, level_norm_sq
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab import solver as solver_module
from bspdelab.oracles import exact_level_fields, heat_oracle, wiener_linear_oracle
from bspdelab.solver import (
    EXPLICIT,
    KIND_ADJOINT,
    SEMI_IMPLICIT,
    CflError,
    LevelCoefficients,
    ProblemData,
    SolverBlowupError,
    SolverConfig,
    StochasticCouplingWarning,
    TransportCflWarning,
    default_test_functions,
    estimate_cfl,
    level_forcing,
    oracle_step_residual,
    problem_from_oracle,
    solve,
    viscosity_continuation,
    weak_form_residual,
)


def _const_coeffs(d=1, dprime=1, a=0.5, b=0.0, c=0.0, sigma=0.0, nu=0.0):
    return CoefficientSet(
        dim=d,
        wiener_dim=dprime,
        a=constant_sampler(a * np.eye(d), (d, d)),
        b=constant_sampler(b * np.ones(d), (d,)),
        c=constant_sampler(c, ()),
        sigma=constant_sampler(sigma * np.ones((d, dprime)), (d, dprime)),
        nu=constant_sampler(nu * np.ones(dprime), (dprime,)),
    )


def _heat_problem(M=32, T=0.05, n=10, mode="recombining", **kw):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=M)
    tree = build_tree(TimeGrid(T, n), 1, mode)
    x = grid.axis_coordinates()
    phi = np.cos(x) + 0.3 * np.sin(2 * x)
    return ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(**kw),
        terminal=lambda w, g: phi,
    )


# -- validation ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(viscosity=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(time_stepping="midpoint")
    with pytest.raises(ValueError):
        SolverConfig(corrector_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(cfl_safety=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl_safety=1.5)
    SolverConfig(viscosity=0.0, cfl_safety=1.0)


def test_problem_validation():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    grid2 = SpatialGrid(dim=2, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.1, 2), 1, "recombining")
    coeffs = _const_coeffs()
    phi = lambda w, g: np.zeros(g.shape)
    with pytest.raises(ValueError, match="dim"):
        ProblemData(grid=grid2, tree=tree, coefficients=coeffs, terminal=phi)
    with pytest.raises(ValueError, match="wiener"):
        ProblemData(
            grid=grid,
            tree=tree,
            coefficients=_const_coeffs(dprime=2),
            terminal=phi,
        )
    with pytest.raises(ValueError, match="terminal"):
        ProblemData(grid=grid, tree=tree, coefficients=coeffs)
    with pytest.raises(ValueError, match="operator_kind"):
        ProblemData(
            grid=grid,
            tree=tree,
            coefficients=coeffs,
            terminal=phi,
            operator_kind="forward",
        )


# -- step-size analysis ---------------------------------------------------------------


def test_cfl_closed_form_constants():
    # a = 0.5 I, b = 2, sigma = 0 in one dimension
    problem = _heat_problem(M=64, T=1.0, n=200, a=0.5, b=2.0)
    rep = estimate_cfl(problem)
    h = problem.grid.h
    assert rep.max_a == approx(0.5)
    assert rep.max_drift == approx(2.0)
    assert rep.dt_parabolic == approx(0.9 * h * h / (2 * 1 * 0.5))
    assert rep.dt_transport == approx(0.9 * h / 2.0)
    assert rep.satisfied == (rep.dt <= min(rep.dt_parabolic, rep.dt_transport) * (1 + 1e-12))


def test_cfl_infinite_bounds_without_motion():
    problem = _heat_problem(a=0.0, b=0.0)
    rep = estimate_cfl(problem)
    assert math.isinf(rep.dt_parabolic)
    assert math.isinf(rep.dt_transport)
    assert rep.satisfied
    assert rep.suggested_n_steps == problem.tree.n_steps


def test_explicit_refuses_large_dt_and_suggestion_works():
    problem = _heat_problem(M=64, T=1.0, n=10)
    with pytest.raises(CflError, match="semi_implicit") as exc_info:
        solve(problem)
    rep = exc_info.value.report
    assert rep.suggested_n_steps > 10
    assert rep.dt_parabolic < rep.dt
    fixed = _heat_problem(M=64, T=1.0, n=rep.suggested_n_steps)
    sol = solve(fixed)
    assert np.all(np.isfinite(sol.u[0]))


def test_semi_implicit_accepts_large_dt():
    problem = _heat_problem(M=64, T=1.0, n=10)
    sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    assert sol.meta["time_stepping"] == SEMI_IMPLICIT
    assert np.all(np.isfinite(sol.u[0]))
    assert sol.meta["warnings"] == []


def test_transport_warning_semi_implicit():
    problem = _heat_problem(M=16, T=0.1, n=2, a=0.5, b=20.0)
    with pytest.warns(TransportCflWarning):
        sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    assert any("advective" in w for w in sol.meta["warnings"])


def test_coupling_warning():
    problem = _heat_problem(M=16, T=0.1, n=2, a=4.5, sigma=3.0)
    with pytest.warns(StochasticCouplingWarning):
        sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    assert sol.meta["coupling_indicator"] > 1.0


def test_blowup_detection():
    # stiff reaction growth overflows within a CFL-legal sweep
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.4, 4), 1, "recombining")
    x = grid.axis_coordinates()
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(c=50.0),
        terminal=lambda w, g: 1e306 * np.cos(x),
    )
    assert estimate_cfl(problem).satisfied
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(SolverBlowupError):
            solve(problem)


# -- solution structure ---------------------------------------------------------------


def test_solution_shapes_and_r_identity():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=32)
    tree = build_tree(TimeGrid(0.02, 4), 1, "full")
    x = grid.axis_coordinates()
    coeffs = _const_coeffs(a=0.5, b=0.3, sigma=0.8, nu=0.1)
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(x) * (1 + 0.1 * w[0]),
    )
    sol = solve(problem)
    for level in range(5):
        assert sol.u[level].shape == (tree.level_sizes[level], 32)
    for level in range(4):
        assert sol.q[level].shape == (tree.level_sizes[level], 32, 1)
        assert sol.r[level].shape == (tree.level_sizes[level], 32, 1)
        du = batch_gradient(sol.u[level], grid)
        expected = sol.q[level] + 0.8 * du[..., :, None][..., 0, :]
        assert sol.r[level] == approx(expected, abs=1e-12)
    with pytest.raises(IndexError):
        sol.q[4]


def test_terminal_sampled_per_leaf_state():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=32)
    oracle = wiener_linear_oracle(grid, horizon=0.5)
    tree = build_tree(TimeGrid(0.5, 3), 1, "recombining")
    problem = problem_from_oracle(oracle, tree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StochasticCouplingWarning)
        sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    x = grid.axis_coordinates()
    w_leaves = tree.level_w(3)[:, 0]
    for j in range(4):
        assert sol.u[3][j] == approx(w_leaves[j] * np.cos(x), abs=1e-12)


def test_terminal_level_array_and_shape_check():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.05, 3), 1, "recombining")
    problem = ProblemData(
        grid=grid, tree=tree, coefficients=_const_coeffs(), terminal=lambda w, g: np.ones(16)
    )
    sol = solve(problem)
    assert sol.u[3] == approx(np.ones((4, 16)))
    bad = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(),
        terminal=lambda w, g: np.ones(15),
    )
    with pytest.raises(ValueError, match="terminal sample shape"):
        solve(bad)


@pytest.mark.parametrize(
    "case,match",
    [
        ("rows", "row counts disagree"),
        ("inv_shape", "inv has shape"),
        ("inv_range", "missing row"),
        ("no_inv", "no inv map"),
    ],
)
def test_level_coefficients_must_fit_the_level(case, match):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.05, 2), 1, "recombining")
    shape = (2,) + grid.shape
    two_rows = dict(
        a=np.full(shape + (1, 1), 0.5),
        b=np.zeros(shape + (1,)),
        c=np.zeros(shape),
        sigma=np.zeros(shape + (1, 1)),
        nu=np.zeros(shape + (1,)),
    )

    def level_coefficients(level):
        nodes = tree.level_sizes[level]
        if case == "rows":
            return LevelCoefficients(
                **{**two_rows, "c": np.zeros(grid.shape)[None]}, inv=np.zeros(nodes, dtype=int)
            )
        if case == "inv_shape":
            return LevelCoefficients(**two_rows, inv=np.zeros(nodes + 1, dtype=int))
        if case == "inv_range":
            return LevelCoefficients(**two_rows, inv=np.full(nodes, 2))
        return LevelCoefficients(**two_rows)

    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(),
        terminal=lambda w, g: np.zeros(g.shape),
        level_coefficients=level_coefficients,
    )
    with pytest.raises(ValueError, match=match):
        solve(problem)


@pytest.mark.parametrize(
    "case,match", [("inv_shape", "inv has shape"), ("inv_range", "missing row")]
)
def test_forcing_level_map_must_fit_the_level(case, match):
    # forcing_level's (rows, inv) pair is checked as level_coefficients' map is
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.05, 2), 1, "recombining")
    rows = np.zeros((2,) + grid.shape)

    def forcing_level(level):
        nodes = tree.level_sizes[level]
        if case == "inv_shape":
            return rows, np.zeros(nodes + 1, dtype=int)
        return rows, np.full(nodes, 2)

    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(),
        terminal=lambda w, g: np.zeros(g.shape),
        forcing_level=forcing_level,
    )
    with pytest.raises(ValueError, match=match):
        level_forcing(problem, 1)
    with pytest.raises(ValueError, match=match):
        solve(problem)


def test_oracle_problem_samples_a_w_dependent_forcing_at_each_state():
    # a w_dependent oracle's forcing is read at every Wiener state, not at W = 0 alone
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    x = grid.axis_coordinates()
    oracle = dataclasses.replace(
        wiener_linear_oracle(grid, horizon=0.4), forcing=lambda t, w, g: np.cos(x) * w[0]
    )
    tree = build_tree(TimeGrid(0.4, 4), 1, "recombining")
    problem = problem_from_oracle(oracle, tree)
    for level in range(tree.n_steps):
        t = float(tree.time_grid.time(level))
        want = np.stack([oracle.forcing(t, w, grid) for w in tree.level_w(level)])
        rows, inv = level_forcing(problem, level)
        assert len(rows) == level + 1
        assert np.array_equal(rows if inv is None else rows[inv], want)


def test_meta_records_scheme_and_margin():
    problem = _heat_problem()
    sol = solve(problem, SolverConfig(viscosity=0.05))
    meta = sol.meta
    for key in ("dt", "h", "viscosity", "cfl", "parabolicity", "effective_delta"):
        assert key in meta
    # sigma = 0 so 2a - sigma sigma^T = I: margin 1, plus twice the viscosity
    assert meta["parabolicity"]["delta"] == approx(1.0)
    assert meta["effective_delta"] == approx(1.1)
    assert meta["cfl"]["satisfied"] is True


def test_solve_deterministic():
    problem = _heat_problem(M=32, T=0.05, n=8)
    s1 = solve(problem)
    s2 = solve(problem)
    for level in range(9):
        assert np.array_equal(s1.u[level], s2.u[level])
    for level in range(8):
        assert np.array_equal(s1.q[level], s2.q[level])


# -- weak form ---------------------------------------------------------------


def test_weak_form_machine_precision_recombining():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=32)
    oracle = heat_oracle(grid, horizon=0.05)
    tree = build_tree(TimeGrid(0.05, 10), 1, "recombining")
    problem = problem_from_oracle(oracle, tree)
    sol = solve(problem)
    rep = weak_form_residual(sol, problem, default_test_functions(grid, 3))
    assert rep.max_residual < 1e-10
    # scalar noise: two-point representation is exact
    assert rep.max_representation_residual < 1e-12
    assert rep.n_test_functions == 3
    assert len(rep.per_level) == 10


def test_weak_form_machine_precision_full_tree_semi_implicit():
    from bspdelab.coefficients import builtin_counterexamples

    grid = SpatialGrid(dim=2, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.02, 3), 2, "full")
    coeffs = builtin_counterexamples()[0]
    x1, x2 = grid.coordinates()
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=coeffs,
        terminal=lambda w, g: np.sin(x1) + np.cos(x2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
        rep = weak_form_residual(sol, problem, default_test_functions(grid, 2))
    assert rep.max_residual < 1e-9


def test_weak_form_corrector_replay():
    problem = _heat_problem(M=32, T=0.05, n=10, b=0.4)
    config = SolverConfig(corrector_iterations=3)
    sol = solve(problem, config)
    rep = weak_form_residual(sol, problem, default_test_functions(problem.grid, 2))
    assert rep.max_residual < 1e-10


def test_weak_form_rejections():
    problem = _heat_problem(M=16, T=0.02, n=4)
    sol = solve(problem)
    with pytest.raises(ValueError, match="test function"):
        weak_form_residual(sol, problem, [])
    with pytest.raises(ValueError):
        weak_form_residual(sol, problem, [np.ones(7)])
    adj = ProblemData(
        grid=problem.grid,
        tree=problem.tree,
        coefficients=problem.coefficients,
        terminal=problem.terminal,
        operator_kind=KIND_ADJOINT,
    )
    with pytest.raises(ValueError, match="primal"):
        weak_form_residual(sol, adj, [np.ones(16)])
    # the sweep refuses the same test functions before it steps
    with pytest.raises(ValueError, match="test function"):
        solve(problem, None, [])
    with pytest.raises(ValueError, match="primal"):
        solve(adj, None, [np.ones(16)])


def test_default_test_functions_supported_inside():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=64)
    etas = default_test_functions(grid, count=4, seed=3)
    assert len(etas) == 4
    for eta in etas:
        assert eta.shape == (64,)
        assert eta[0] == 0.0
        assert eta.min() >= 0.0
        assert eta.max() <= 1.0
        assert eta.max() > 0.1
    again = default_test_functions(grid, count=4, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(etas, again))
    other = default_test_functions(grid, count=4, seed=4)
    assert not np.array_equal(etas[0], other[0])


# -- vanishing viscosity ---------------------------------------------------------------


def test_continuation_schedule_validation():
    problem = _heat_problem()
    with pytest.raises(ValueError, match="empty"):
        viscosity_continuation(problem, [])
    with pytest.raises(ValueError, match="positive"):
        viscosity_continuation(problem, [0.1, 0.0])
    with pytest.raises(ValueError, match="decreasing"):
        viscosity_continuation(problem, [0.1, 0.1])
    with pytest.raises(ValueError, match="decreasing"):
        viscosity_continuation(problem, [0.01, 0.1])


def test_continuation_gaps_shrink():
    # noise and a w-dependent terminal keep r away from zero
    grid = SpatialGrid(dim=1, half_width=np.pi, points=32)
    tree = build_tree(TimeGrid(0.05, 10), 1, "recombining")
    x = grid.axis_coordinates()
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(a=0.5, sigma=0.6),
        terminal=lambda w, g: np.cos(x) * (1.0 + 0.3 * w[0]),
    )
    res = viscosity_continuation(problem, [1e-1, 1e-2, 1e-3], m1=0)
    assert res.n_solved == 3
    assert res.aborted_at is None
    assert len(res.u_gaps) == 2
    assert res.u_gaps[1] < res.u_gaps[0]
    assert res.r_gaps[1] < res.r_gaps[0]
    assert len(res.solutions) == 3


def test_continuation_records_abort():
    # eps = 10 tightens the parabolic bound below this dt; eps = 1 would pass
    problem = _heat_problem(M=32, T=0.05, n=10)
    res = viscosity_continuation(problem, [10.0, 1.0])
    assert res.aborted_at == 0
    assert res.n_solved == 0
    assert "CflError" in res.failure
    assert res.u_gaps == []


# -- oracle stepping ---------------------------------------------------------------


def test_oracle_step_residual_first_order():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=64)
    oracle = heat_oracle(grid, horizon=0.1)
    rep = oracle_step_residual(oracle, n_steps=8)
    assert rep.dt == approx(0.1 / 8)
    assert rep.h == approx(grid.h)
    assert rep.residual > 0
    assert rep.constant == approx(rep.residual / (rep.dt + rep.h**2))
    assert rep.constant < 10.0


@pytest.mark.parametrize(
    "make, n_steps, residual, constant",
    [
        (lambda g: heat_oracle(g, horizon=0.3), 8, 0.13764828912168128, 1.8098961483356482),
        (lambda g: wiener_linear_oracle(g, horizon=0.5), 8, 0.018412073478037676, 0.18220188980466828),
    ],
    ids=["heat", "wiener"],
)
def test_oracle_step_residual_evaluates_each_level_once(monkeypatch, make, n_steps, residual, constant):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=32)
    oracle = make(grid)
    levels = []

    def counting(oracle, tree, level):
        levels.append(level)
        return exact_level_fields(oracle, tree, level)

    monkeypatch.setattr(solver_module, "exact_level_fields", counting)
    rep = oracle_step_residual(oracle, n_steps, config=SolverConfig(time_stepping=SEMI_IMPLICIT))
    assert sorted(levels) == list(range(n_steps + 1))
    # the numbers of the banded 1D solve, bit for bit
    assert (rep.residual, rep.constant) == (residual, constant)
    assert (rep.dt, rep.h) == (oracle.horizon / n_steps, grid.h)


@pytest.mark.parametrize(
    "make, states, residual, constant",
    [
        # W-free: one state per level
        (lambda g: heat_oracle(g, horizon=0.3), 8, 0.13764828912168128, 1.8098961483356482),
        # W-dependent: k + 1 Wiener states at level k
        (lambda g: wiener_linear_oracle(g, horizon=0.5), 36, 0.018412073478037676, 0.18220188980466828),
    ],
    ids=["heat", "wiener"],
)
def test_oracle_step_residual_steps_each_distinct_state_once(monkeypatch, make, states, residual, constant):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=32)
    oracle = make(grid)
    stepped = []
    step = solver_module._LevelOperator.step

    def counting(self, ubar, *args):
        stepped.append(len(ubar))
        return step(self, ubar, *args)

    monkeypatch.setattr(solver_module._LevelOperator, "step", counting)
    rep = oracle_step_residual(oracle, 8, mode="full", config=SolverConfig(time_stepping=SEMI_IMPLICIT))
    # 255 nodes above the leaves
    assert sum(stepped) == states
    # the numbers of the banded 1D solve, bit for bit; the recombining run's too
    assert (rep.residual, rep.constant) == (residual, constant)


def test_problem_from_oracle_horizon_check():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    oracle = heat_oracle(grid, horizon=0.3)
    tree = build_tree(TimeGrid(0.4, 4), 1, "recombining")
    with pytest.raises(ValueError, match="horizon"):
        problem_from_oracle(oracle, tree)


# -- bounded passes -------------------------------------------------------------------


def test_every_pass_holds_a_few_blocks_beyond_what_it_keeps(monkeypatch):
    cap = 2**15
    # set even where the constant is missing, so an unblocked sweep fails on memory
    monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", cap, raising=False)
    grid = SpatialGrid(dim=1, half_width=np.pi, points=1024)
    tree = build_tree(TimeGrid(0.003, 63), 1, "recombining")
    # the leaf level's u spans 16 blocks, and each level's pass walks about 32
    assert tree.level_sizes[-1] * 8 * grid.size >= 16 * cap
    x = grid.axis_coordinates()

    def sigma(t, w, g):
        return (0.5 + 0.25 * np.cos(x))[:, None, None]

    # degenerate, 2a = sigma^2; the W-dependent terminal gives every leaf, and
    # so every node, its own row
    coeffs = CoefficientSet(dim=1, wiener_dim=1, a=lambda t, w, g: 0.5 * sigma(t, w, g) ** 2, sigma=sigma)
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(x) * (1.0 + w[0]),
    )
    etas = default_test_functions(grid)

    def transient(fn):
        """Peak bytes fn() held above what was allocated before and after it."""
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        after, peak = tracemalloc.get_traced_memory()
        return out, peak - max(before, after)

    # the solve stores its rows level by level, so its peak is taken per
    # level, against what it held when the level began and ended
    level_bytes = []
    operators = solver_module._level_operators

    def measured(problem, config):
        for item in operators(problem, config):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield item
            end, peak = tracemalloc.get_traced_memory()
            level_bytes.append(peak - max(start, end))

    tracemalloc.start()
    try:
        with monkeypatch.context() as m:
            m.setattr(solver_module, "_level_operators", measured)
            sol = solve(problem)
            solve_bytes, level_bytes = level_bytes, []
            # the weak form checked inside the sweep
            checked = solve(problem, None, etas)
        _, estimate_bytes = transient(lambda: energy.verify_main_estimates(sol, problem, m1=1))
        _, estimates_bytes = transient(
            lambda: energy.main_estimate_reports(sol, problem, 1, (2.0, 4.0))
        )
        weak, weak_bytes = transient(lambda: weak_form_residual(sol, problem, etas))
    finally:
        tracemalloc.stop()
    assert sol.meta["level_rows"] == list(tree.level_sizes)
    assert sol.meta["level_rows"][-1] == tree.level_sizes[-1]
    assert len(solve_bytes) == len(level_bytes) == tree.n_steps
    assert checked.weak_form == weak
    # whole-level passes take 97, 49 and 99 caps here
    assert max(solve_bytes) < 10 * cap
    assert max(level_bytes) < 10 * cap
    assert estimate_bytes < 10 * cap
    assert estimates_bytes < 10 * cap
    assert weak_bytes < 10 * cap


# -- distinct states ------------------------------------------------------------


def _per_node_states(problem):
    """The same problem with each level's coefficient rows repeated per node.

    Every node below the leaves then has its own coefficient row, so no two
    nodes share a state and every level is stored one row per node.
    """

    def expanded(level):
        lc = solver_module._level_coefficients(problem, level)
        n_nodes = problem.tree.level_sizes[level]
        inv = np.zeros(n_nodes, dtype=np.intp) if lc.inv is None else lc.inv
        rows = {name: getattr(lc, name)[inv] for name in ("a", "b", "c", "sigma", "nu")}
        return LevelCoefficients(**rows, inv=np.arange(n_nodes))

    return dataclasses.replace(problem, level_coefficients=expanded)


def _full_counterexample(terminal):
    # sqrt(dt) = 1/4, so every Wiener state is exact and paths meeting there agree
    return ProblemData(
        grid=SpatialGrid(dim=2, half_width=np.pi, points=10),
        tree=build_tree(TimeGrid(0.25, 4), 2, "full"),
        coefficients=builtin_counterexamples()[0],
        terminal=terminal,
    )


def _markov_terminal(w, g):
    x1, x2 = g.coordinates()
    return np.sin(x1 + w[0]) * np.cos(x2 - 2.0 * w[1])


def _w_dependent_recombining():
    coeffs = CoefficientSet(
        dim=1,
        wiener_dim=1,
        a=lambda t, w, g: np.full(g.shape + (1, 1), 0.5 + 0.1 * w[0] ** 2),
        sigma=constant_sampler([[0.4]], (1, 1)),
        w_dependent=True,
    )
    return ProblemData(
        grid=SpatialGrid(dim=1, half_width=np.pi, points=16),
        tree=build_tree(TimeGrid(0.1, 6), 1, "recombining"),
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(g.axis_coordinates()),
    )


@pytest.mark.parametrize("case", ["w_free_full", "markov_terminal_full", "w_dependent_recombining"])
def test_sweep_stores_each_distinct_state_once(case):
    if case == "w_dependent_recombining":
        problem = _w_dependent_recombining()
        n = problem.tree.n_steps
        # the W-free terminal is one row; above it every node has its own a
        expected = list(problem.tree.level_sizes[:n]) + [1]
    else:
        terminal = (lambda w, g: np.cos(g.coordinates()[0])) if case == "w_free_full" else _markov_terminal
        problem = _full_counterexample(terminal)
        n = problem.tree.n_steps
        expected = [1] * (n + 1) if case == "w_free_full" else [(k + 1) ** 2 for k in range(n + 1)]
    sol = solve(problem)
    assert sol.meta["level_rows"] == expected
    for field in (sol.u, sol.q, sol.r):
        for level in range(len(field)):
            rows, inv = field.levels[level], field.maps[level]
            assert len(rows) == expected[level]
            if inv is None:
                assert len(rows) == problem.tree.level_sizes[level]
                if field is sol.r and not sol.r.stored(level):
                    # a derived level computes its rows on each read
                    assert np.array_equal(field[level], sol.r.rows(level, slice(None)))
                else:
                    assert field[level] is rows
            else:
                assert np.array_equal(field[level], rows[inv])
    if case == "w_dependent_recombining":
        assert all(inv is None for inv in sol.u.maps[:n])
        return
    # the same nodes stepped one by one give the same node arrays
    ref = solve(_per_node_states(problem))
    assert ref.meta["level_rows"] == list(problem.tree.level_sizes[:n]) + [expected[n]]
    for name in ("u", "q", "r"):
        got, want = getattr(sol, name), getattr(ref, name)
        for level in range(len(got)):
            assert np.array_equal(got[level], want[level]), (name, level)
    etas = default_test_functions(problem.grid, 2)
    assert weak_form_residual(sol, problem, etas).per_level == weak_form_residual(ref, problem, etas).per_level


def _w_dependent_sigma(dim):
    """sigma (d x 1) varying in x and W on a recombining lattice, a = I / 2."""
    grid = SpatialGrid(dim=dim, half_width=np.pi, points=8 if dim == 2 else 16)

    def sigma(t, w, g):
        col = 0.3 * (1.0 + 0.2 * np.sin(g.coordinates()[0] + w[0]))
        return np.stack([col] + [0.5 * col] * (dim - 1), axis=-1)[..., None]

    coeffs = CoefficientSet(
        dim=dim, wiener_dim=1, a=constant_sampler(0.5 * np.eye(dim), (dim, dim)), sigma=sigma, w_dependent=True
    )
    return ProblemData(
        grid=grid,
        tree=build_tree(TimeGrid(0.1, 5), 1, "recombining"),
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(g.coordinates()[0]) * (1.0 + w[0]),
    )


def _alternating_sigma_rows():
    """Two 1D sigma rows, node i reading row i % 2, through level_coefficients."""
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.1, 5), 1, "recombining")
    x = grid.axis_coordinates()
    sigma = np.stack([0.3 * (1.0 + 0.2 * np.sin(x)), 0.2 * (1.0 + 0.3 * np.cos(x))])[..., None, None]
    zeros = np.zeros((2,) + grid.shape)

    def level_coefficients(level):
        return LevelCoefficients(
            a=np.full(sigma.shape, 0.5), b=zeros[..., None], c=zeros, sigma=sigma, nu=zeros[..., None],
            inv=np.arange(tree.level_sizes[level]) % 2,
        )

    return ProblemData(
        grid=grid,
        tree=tree,
        coefficients=CoefficientSet(dim=1, wiener_dim=1, a=constant_sampler([[0.5]], (1, 1))),
        terminal=lambda w, g: np.cos(x) * (1.0 + w[0]),
        level_coefficients=level_coefficients,
    )


def _r_case(case):
    """(problem, config, which levels store r) for the r-storage tests."""
    if case == "wiener_linear":
        # one sigma row; level 0 keeps one r row, a tie, so it stores r
        grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
        tree = build_tree(TimeGrid(0.5, 8), 1, "recombining")
        problem = problem_from_oracle(wiener_linear_oracle(grid, horizon=0.5), tree)
        return problem, SolverConfig(time_stepping=SEMI_IMPLICIT), [True] + [False] * 7
    if case == "markov_terminal_full":
        # one 2 x 2 sigma row against (k + 1)^2 rows of two components
        return _full_counterexample(_markov_terminal), SolverConfig(), [True, False, False, False]
    if case == "alternating_sigma_rows":
        # two sigma rows and a row -> sigma-row map against k + 1 rows
        return _alternating_sigma_rows(), SolverConfig(), [True, True, False, False, False]
    # one sigma row per distinct Wiener state, one r row per state: a tie in
    # 1D, and sigma's d x 1 rows are larger than r's in 2D
    return _w_dependent_sigma(1 if case == "w_dependent_1d" else 2), SolverConfig(), [True] * 5


def _held_bytes(sol):
    """Bytes of u, q, stored r and the sigma rows and maps r keeps, each array once."""
    held = {id(rows): rows for rows in [*sol.u.levels, *sol.q.levels]}
    for kept in sol.r.levels.kept:
        for arr in kept if isinstance(kept, tuple) else (kept,):
            if arr is not None:
                held[id(arr)] = arr
    return sum(arr.nbytes for arr in held.values())


@pytest.mark.parametrize(
    "case", ["wiener_linear", "markov_terminal_full", "alternating_sigma_rows", "w_dependent_1d", "w_dependent_2d"]
)
def test_r_is_the_per_node_transform_and_stores_no_more_than_u_q_r(case):
    problem, config, stored = _r_case(case)
    n = problem.tree.n_steps
    sol = solve(problem, config)
    assert [sol.r.stored(level) for level in range(n)] == stored
    # each node stepped on its own, with its own sigma row: r stored per node
    ref = solve(_per_node_states(problem), config)
    assert all(ref.r.stored(level) for level in range(n))
    for level in range(n):
        assert np.array_equal(sol.r[level], ref.r[level]), level
        assert np.array_equal(sol.r.levels[level], sol.r.rows(level, slice(None)))

    uq = sum(rows.nbytes for rows in [*sol.u.levels, *sol.q.levels])
    # storing r beside q wherever sigma is nonzero, r's rows take q's bytes
    u_q_r = uq + sum(q.nbytes for q, kept in zip(sol.q.levels, sol.r.levels.kept) if kept is not q)
    assert _held_bytes(sol) <= u_q_r
    if case == "wiener_linear":
        # u and q, one sigma row, and level 0's one r row
        assert _held_bytes(sol) == uq + 2 * 8 * problem.grid.size < u_q_r
    elif case in ("markov_terminal_full", "alternating_sigma_rows"):
        assert _held_bytes(sol) < u_q_r
    else:
        assert _held_bytes(sol) == u_q_r


def test_derived_r_readers_build_only_the_rows_they_return(monkeypatch):
    problem, config, _ = _r_case("wiener_linear")
    n = problem.tree.n_steps
    stepped = []
    real_r_transform = solver_module._LevelOperator.r_transform

    def counting_r_transform(self, u, q, nodes):
        stepped.append(len(u))
        return real_r_transform(self, u, q, nodes)

    monkeypatch.setattr(solver_module._LevelOperator, "r_transform", counting_r_transform)
    sol = solve(problem, config)
    # the sweep transforms level 0's one row only: the derived levels take none
    assert stepped == [1]

    level = n - 1
    full = sol.r[level]
    built = []
    real = solver_module._transformed

    def counting(u, q, sigma, grid):
        built.append(len(u))
        return real(u, q, sigma, grid)

    monkeypatch.setattr(solver_module, "_transformed", counting)
    assert np.array_equal(sol.r.row_map(level), np.arange(n)) and built == []
    nodes = np.array([0, 2, 5])
    assert np.array_equal(sol.r.at(level, nodes), full[nodes]) and built == [3]
    assert np.array_equal(sol.r.at(level, 4), full[4]) and built == [3, 1]
    assert np.array_equal(sol.r.at(level, slice(0, 1)), full[:1]) and built == [3, 1, 1]
    assert len(sol.r) == n
    assert all(np.array_equal(a, b) for a, b in zip(sol.r, [sol.r[k] for k in range(n)]))


def test_continuation_gaps_equal_the_node_array_gaps():
    problem = _full_counterexample(_markov_terminal)
    res = viscosity_continuation(problem, [1e-1, 1e-2], m1=1)
    s0, s1 = res.solutions
    assert s0.u.maps[2] is not None
    tree, grid, dt = problem.tree, problem.grid, problem.tree.time_grid.dt
    u_gap = max(
        math.sqrt(float(np.sum(tree.level_probabilities(k) * level_norm_sq(s0.u[k] - s1.u[k], grid, 1))))
        for k in range(tree.n_steps + 1)
    )
    r_gap = sum(
        dt * float(np.sum(tree.level_probabilities(k) * level_norm_sq(s0.r[k] - s1.r[k], grid, 1)))
        for k in range(tree.n_steps)
    )
    assert res.u_gaps == [u_gap]
    assert res.r_gaps == [r_gap]
