"""Stochastic control loop tests.

Core claims:
    - ControlProblem construction probes every control value and refuses
      empty gamma, wrong-shaped data, non-finite samples, asymmetric a,
      and degeneracy violations
    - sample_field broadcasts scalars and zero-fills unset fields
    - constant_policy, policies_equal and dump behave as documented, and
      malformed policies are rejected before any sweep
    - the forward march refuses CFL-violating steps, conserves a static
      state under zero dynamics, and its recombining conditional means
      match the full-tree pathwise states grouped by Wiener value
    - cost is exact on trivial dynamics: J = T <f, xi0> + <phi, xi0>
    - hamiltonian reduces to -<F, u> - <f, xi> when the generators vanish
    - the adjoint pair carries phi at the leaves and satisfies exact
      predictor duality; the u-form defect is small and first order
    - check_max_principle certifies an improved policy at 100 percent and
      counts v-independent Hamiltonians as flat, not as passes earned
    - policy_iteration converges on an affine instance and falls back to
      the best-cost iterate when capped
    - exhaustive_policy_search agrees with the plain forward cost path,
      enforces its mode and budget guards, and its minimum matches costs
    - control_report assembles the full experiment record
"""

import math
import warnings

import numpy as np
import pytest
from pytest import approx

from bspdelab.coefficients import CoefficientDataError, ParabolicityError
from bspdelab.control import (
    ControlPolicy,
    ControlProblem,
    check_max_principle,
    constant_policy,
    control_report,
    cost,
    duality_check,
    exhaustive_policy_search,
    hamiltonian,
    policies_equal,
    policy_iteration,
    solve_adjoint,
    solve_forward,
)
from bspdelab.grid import SpatialGrid, inner_product
from bspdelab.lattice import (
    BudgetExceededError,
    NodeId,
    TimeGrid,
    UnsupportedModeError,
    build_tree,
)
from bspdelab.solver import CflError


def _grid(M=16):
    return SpatialGrid(dim=1, half_width=np.pi, points=M)


def _steering_problem(M=16, T=0.1, n=4, mode="full", flip=0.043):
    """Two-control drift steering: F = v sin(x), running cost flips sign."""
    grid = _grid(M)
    tree = build_tree(TimeGrid(T, n), 1, mode)
    x = grid.axis_coordinates()
    xi0 = np.exp(np.cos(x))
    xi0 = xi0 / inner_product(xi0, np.ones_like(xi0), grid)
    return ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=xi0,
        a=lambda t, v, g: 0.25 * np.eye(1),
        sigma=lambda t, v, g: 0.5 * np.ones((1, 1)),
        big_f=lambda t, v, g: v * np.sin(x),
        cost_f=lambda t, v, g: 0.1 * v * np.cos(x) * (t - flip),
        name="steering",
    )


# -- construction ---------------------------------------------------------------


def test_empty_gamma_rejected():
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 2), 1, "full")
    with pytest.raises(ValueError, match="gamma"):
        ControlProblem(
            grid=grid,
            tree=tree,
            gamma=(),
            terminal_phi=np.zeros(grid.shape),
            xi0=np.zeros(grid.shape),
        )


def test_field_shape_and_finiteness_rejected():
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 2), 1, "full")
    phi = np.zeros(grid.shape)
    with pytest.raises(ValueError, match="terminal_phi"):
        ControlProblem(
            grid=grid, tree=tree, gamma=(0.0,), terminal_phi=np.zeros(7), xi0=phi
        )
    with pytest.raises(ValueError, match="xi0"):
        ControlProblem(
            grid=grid,
            tree=tree,
            gamma=(0.0,),
            terminal_phi=phi,
            xi0=np.full(grid.shape, np.nan),
        )
    with pytest.raises(CoefficientDataError, match="big_f"):
        ControlProblem(
            grid=grid,
            tree=tree,
            gamma=(0.0,),
            terminal_phi=phi,
            xi0=phi,
            big_f=lambda t, v, g: np.nan,
        )
    with pytest.raises(CoefficientDataError, match="big_g"):
        ControlProblem(
            grid=grid,
            tree=tree,
            gamma=(0.0,),
            terminal_phi=phi,
            xi0=phi,
            big_g=lambda t, v, g: np.ones(3),
        )


def test_asymmetric_a_rejected():
    grid = SpatialGrid(dim=2, half_width=np.pi, points=8)
    tree = build_tree(TimeGrid(0.1, 2), 1, "full")
    phi = np.zeros(grid.shape)
    with pytest.raises(CoefficientDataError, match="symmetric"):
        ControlProblem(
            grid=grid,
            tree=tree,
            gamma=(0.0,),
            terminal_phi=phi,
            xi0=phi,
            a=lambda t, v, g: np.array([[1.0, 0.3], [0.0, 1.0]]),
        )


def test_degeneracy_violation_rejected_per_control():
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 2), 1, "full")
    phi = np.zeros(grid.shape)
    # v = 1 passes, v = 3 pushes sigma sigma^T past 2a
    with pytest.raises(ParabolicityError):
        ControlProblem(
            grid=grid,
            tree=tree,
            gamma=(1.0, 3.0),
            terminal_phi=phi,
            xi0=phi,
            a=lambda t, v, g: 0.5 * np.eye(1),
            sigma=lambda t, v, g: v * 0.5 * np.ones((1, 1)),
        )


def test_sample_field_defaults_and_broadcast():
    problem = _steering_problem()
    nu = problem.sample_field("nu", 0.0, 1.0)
    assert nu.shape == problem.grid.shape + (1,)
    assert np.all(nu == 0.0)
    a = problem.sample_field("a", 0.0, -1.0)
    assert a.shape == problem.grid.shape + (1, 1)
    assert np.all(a == 0.25)


# -- policies ---------------------------------------------------------------


def test_constant_policy_and_equality():
    tree = build_tree(TimeGrid(0.1, 3), 1, "full")
    p0 = constant_policy(tree, 0)
    p1 = constant_policy(tree, 1)
    assert len(p0.indices) == 3
    assert [arr.shape[0] for arr in p0.indices] == [1, 2, 4]
    assert p0.value_index(NodeId(2, 3)) == 0
    assert policies_equal(p0, constant_policy(tree, 0))
    assert not policies_equal(p0, p1)
    rows = p1.dump((-1.0, 1.0))
    assert len(rows) == 7
    assert rows[0] == {"level": 0, "index": 0, "control": 1.0}


def test_malformed_policy_rejected():
    problem = _steering_problem(n=4)
    short = ControlPolicy(tuple(np.zeros(k, dtype=np.int64) for k in (1, 2)))
    with pytest.raises(ValueError, match="levels"):
        solve_forward(problem, short)
    wrong_width = ControlPolicy(
        tuple(np.zeros(k, dtype=np.int64) for k in (1, 2, 4, 4))
    )
    with pytest.raises(ValueError, match="shape"):
        solve_forward(problem, wrong_width)
    out_of_range = ControlPolicy(
        tuple(np.full(k, 5, dtype=np.int64) for k in (1, 2, 4, 8))
    )
    with pytest.raises(ValueError, match="gamma"):
        solve_forward(problem, out_of_range)


# -- forward march ---------------------------------------------------------------


def test_forward_cfl_gate():
    # diffusion 2.0 on a coarse grid: dt = 0.05 exceeds 0.9 h^2 / (2 d a)
    grid = _grid(32)
    tree = build_tree(TimeGrid(0.4, 8), 1, "full")
    phi = np.zeros(grid.shape)
    problem = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(0.0,),
        terminal_phi=phi,
        xi0=np.ones(grid.shape),
        a=lambda t, v, g: 2.0 * np.eye(1),
    )
    with pytest.raises(CflError) as exc_info:
        solve_forward(problem, constant_policy(tree))
    assert exc_info.value.report.suggested_n_steps > 8


def test_forward_static_under_zero_dynamics():
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 3), 1, "recombining")
    xi0 = 1.0 + 0.5 * np.cos(grid.axis_coordinates())
    problem = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(0.0,),
        terminal_phi=np.zeros(grid.shape),
        xi0=xi0,
    )
    fwd = solve_forward(problem, constant_policy(tree))
    for level in range(4):
        assert fwd.mean[level].shape == (level + 1,) + grid.shape
        for node in range(level + 1):
            assert fwd.mean[level][node] == approx(xi0, abs=1e-14)


def test_forward_modes_agree_on_conditional_means():
    # affine dynamics: the recombining pushforward is the exact conditional
    # mean of the pathwise full-tree states at equal Wiener value
    full_p = _steering_problem(n=4, mode="full")
    rec_p = _steering_problem(n=4, mode="recombining")
    policy_f = constant_policy(full_p.tree, 1)
    policy_r = constant_policy(rec_p.tree, 1)
    fwd_f = solve_forward(full_p, policy_f)
    fwd_r = solve_forward(rec_p, policy_r)
    for level in (1, 2, 4):
        w_full = full_p.tree.level_w(level)[:, 0]
        w_rec = rec_p.tree.level_w(level)[:, 0]
        for j, wval in enumerate(w_rec):
            sel = np.isclose(w_full, wval)
            assert sel.any()
            grouped = fwd_f.mean[level][sel].mean(axis=0)
            assert fwd_r.mean[level][j] == approx(grouped, abs=1e-12)
    jf = cost(full_p, policy_f, fwd_f)
    jr = cost(rec_p, policy_r, fwd_r)
    assert jf == approx(jr, abs=1e-12)


def test_cost_closed_form_on_static_state():
    grid = _grid()
    tree = build_tree(TimeGrid(0.2, 4), 1, "recombining")
    x = grid.axis_coordinates()
    xi0 = 1.0 + 0.3 * np.sin(x)
    phi = np.cos(x) + 0.5
    f_run = 2.0 - np.cos(2 * x)
    problem = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(0.0,),
        terminal_phi=phi,
        xi0=xi0,
        cost_f=lambda t, v, g: f_run,
    )
    fwd = solve_forward(problem, constant_policy(tree))
    j = cost(problem, constant_policy(tree), fwd)
    expected = 0.2 * inner_product(f_run, xi0, grid) + inner_product(phi, xi0, grid)
    assert j == approx(expected, rel=1e-13)


# -- hamiltonian and adjoint ---------------------------------------------------------------


def test_hamiltonian_closed_form_without_generators():
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 2), 1, "full")
    x = grid.axis_coordinates()
    problem = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.zeros(grid.shape),
        xi0=np.ones(grid.shape),
        big_f=lambda t, v, g: v * np.sin(x),
        cost_f=lambda t, v, g: v * np.cos(x),
    )
    xi = 1.0 + 0.2 * np.cos(x)
    u = np.sin(x) + 0.1
    q = np.zeros(grid.shape + (1,))
    for v in (-1.0, 1.0):
        got = hamiltonian(problem, NodeId(0, 0), xi, v, u, q)
        want = -(
            inner_product(v * np.sin(x), u, grid)
            + inner_product(v * np.cos(x), xi, grid)
        )
        assert got == approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="level"):
        hamiltonian(problem, NodeId(2, 0), xi, 1.0, u, q)


def test_adjoint_terminal_and_duality():
    problem = _steering_problem(M=32, T=0.1, n=8, mode="recombining")
    policy = constant_policy(problem.tree, 1)
    fwd = solve_forward(problem, policy)
    adj = solve_adjoint(problem, policy)
    x = problem.grid.axis_coordinates()
    for leaf in range(adj.u[8].shape[0]):
        assert adj.u[8][leaf] == approx(np.cos(x), abs=1e-13)
    rep = duality_check(problem, policy, fwd, adj)
    assert rep.predictor_gap < 1e-12
    assert rep.defect < 0.1 * max(1.0, abs(rep.j_direct))
    assert rep.j_direct == approx(cost(problem, policy, fwd), abs=1e-15)


def test_duality_defect_first_order_in_dt():
    gaps = []
    for n in (8, 16):
        problem = _steering_problem(M=32, T=0.1, n=n, mode="recombining")
        policy = constant_policy(problem.tree, 1)
        fwd = solve_forward(problem, policy)
        adj = solve_adjoint(problem, policy)
        gaps.append(duality_check(problem, policy, fwd, adj).defect)
    assert gaps[1] < 0.7 * gaps[0]


# -- maximum principle and iteration ---------------------------------------------------------------


def test_max_principle_certifies_improved_policy():
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    policy = policy_iteration(problem, constant_policy(problem.tree, 0)).final_policy
    fwd = solve_forward(problem, policy)
    adj = solve_adjoint(problem, policy)
    rep = check_max_principle(problem, policy, fwd, adj)
    assert rep.pass_fraction == 1.0
    assert rep.n_failures == 0
    assert rep.n_nodes == 1 + 2 + 4 + 8
    assert rep.failures == []
    assert rep.tol > 0


def test_max_principle_counts_flat_nodes():
    # samplers ignore v: every Hamiltonian column coincides
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 3), 1, "full")
    x = grid.axis_coordinates()
    problem = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.ones(grid.shape),
        big_f=lambda t, v, g: np.sin(x),
        cost_f=lambda t, v, g: np.cos(x),
    )
    policy = constant_policy(tree, 0)
    fwd = solve_forward(problem, policy)
    adj = solve_adjoint(problem, policy)
    rep = check_max_principle(problem, policy, fwd, adj)
    assert rep.flat_fraction == 1.0
    assert rep.pass_fraction == 1.0


def test_policy_iteration_converges_and_descends():
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    record = policy_iteration(problem, constant_policy(problem.tree, 0), max_iters=10)
    assert record.converged
    assert record.js[-1] <= record.js[0] + 1e-12
    assert record.n_iterations <= 10


def test_policy_iteration_cap_returns_best_iterate():
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    start = constant_policy(problem.tree, 0)
    record = policy_iteration(problem, start, max_iters=1)
    assert not record.converged
    assert record.n_iterations == 1
    assert policies_equal(record.final_policy, start)


# -- exhaustive search ---------------------------------------------------------------


def test_exhaustive_matches_plain_cost_path():
    problem = _steering_problem(M=8, T=0.1, n=2, mode="full")
    res = exhaustive_policy_search(problem)
    assert res.n_policies == 2 ** 3
    assert res.costs.shape == (8,)
    assert res.j == approx(float(res.costs.min()), abs=0)
    fwd = solve_forward(problem, res.policy)
    assert cost(problem, res.policy, fwd) == approx(res.j, abs=1e-12)
    # no enumerated policy beats the improved one by more than rounding
    improved = policy_iteration(problem, constant_policy(problem.tree, 0)).final_policy
    fwd_i = solve_forward(problem, improved)
    assert cost(problem, improved, fwd_i) >= res.j - 1e-12


def test_exhaustive_guards():
    rec = _steering_problem(M=8, T=0.1, n=2, mode="recombining")
    with pytest.raises(UnsupportedModeError):
        exhaustive_policy_search(rec)
    full = _steering_problem(M=8, T=0.1, n=2, mode="full")
    with pytest.raises(BudgetExceededError, match="budget"):
        exhaustive_policy_search(full, budget=4)
    with pytest.raises(BudgetExceededError, match="bytes"):
        exhaustive_policy_search(full, workspace_bytes=64)


# -- report ---------------------------------------------------------------


def test_control_report_shape():
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    rep = control_report(problem, max_iters=5)
    for key in ("name", "gamma", "converged", "n_iterations", "iterations", "final"):
        assert key in rep
    assert rep["name"] == "steering"
    assert rep["gamma"] == [-1.0, 1.0]
    final = rep["final"]
    for key in ("j", "defect", "predictor_gap", "pass_fraction", "policy", "tol"):
        assert key in final
    assert len(final["policy"]) == 1 + 2 + 4 + 8
    assert final["pass_fraction"] == 1.0
    for row in rep["iterations"]:
        assert set(row) == {"iteration", "j", "defect", "pass_fraction"}
