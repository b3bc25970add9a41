"""Backward sweep tests.

Core claims:
    - SolverConfig and ProblemData reject malformed inputs up front
    - estimate_cfl reproduces the closed-form parabolic and advective
      bounds for constant coefficients
    - explicit stepping refuses an oversized dt with a CflError whose
      report suggests a workable step count, and that count works
    - semi-implicit stepping accepts the same dt, warning instead when
      the advective bound or the stochastic coupling number is exceeded
    - a stiff reaction term overflowing the sweep raises SolverBlowupError
    - the solved fields satisfy the summation-by-parts weak form to
      machine precision on both tree modes and both stepping modes
    - r = q + sigma^T grad u holds node by node
    - terminal data is sampled per unique leaf state
    - viscosity_continuation validates its schedule, shrinks the
      consecutive gaps on a smooth problem, and records aborts
    - solve is deterministic
    - oracle_step_residual evaluates the oracle once per level and keeps
      its numbers bit for bit
"""

import math
import warnings

import numpy as np
import pytest
from pytest import approx

from bspdelab.coefficients import CoefficientSet, constant_sampler
from bspdelab.grid import SpatialGrid, batch_gradient
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab import solver as solver_module
from bspdelab.oracles import exact_level_fields, heat_oracle, wiener_linear_oracle
from bspdelab.solver import (
    EXPLICIT,
    KIND_ADJOINT,
    SEMI_IMPLICIT,
    CflError,
    ProblemData,
    SolverBlowupError,
    SolverConfig,
    StochasticCouplingWarning,
    TransportCflWarning,
    default_test_functions,
    estimate_cfl,
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
    term = np.ones((4, 16))
    problem = ProblemData(
        grid=grid, tree=tree, coefficients=_const_coeffs(), terminal_level=term
    )
    sol = solve(problem)
    assert sol.u[3] == approx(term)
    bad = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(),
        terminal_level=np.ones((3, 16)),
    )
    with pytest.raises(ValueError, match="terminal_level"):
        solve(bad)


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
    thin = viscosity_continuation(
        problem, [1e-1, 1e-2], keep_solutions=False
    )
    assert thin.solutions is None


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
        (lambda g: heat_oracle(g, horizon=0.3), 8, 0.1376482891216804, 1.8098961483356364),
        (lambda g: wiener_linear_oracle(g, horizon=0.5), 8, 0.018412073478037402, 0.1822018898046656),
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
    # the numbers of the version that evaluated interior levels twice, bit for bit
    assert (rep.residual, rep.constant) == (residual, constant)
    assert (rep.dt, rep.h) == (oracle.horizon / n_steps, grid.h)


def test_problem_from_oracle_horizon_check():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    oracle = heat_oracle(grid, horizon=0.3)
    tree = build_tree(TimeGrid(0.4, 4), 1, "recombining")
    with pytest.raises(ValueError, match="horizon"):
        problem_from_oracle(oracle, tree)
