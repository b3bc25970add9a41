"""Stochastic control loop tests.

Core claims:
    - ControlProblem construction probes every control value and refuses
      empty gamma, wrong-shaped data, non-finite samples, asymmetric a,
      and degeneracy violations, through the row check and the
      parabolicity scan CoefficientSet uses: errors name t and v, the
      asymmetry tolerance is sample's, and W-free samplers get the same
      verdict and eigenvalue as through check_parabolicity
    - the construction samples broadcast scalars and zero-fill unset fields
    - construction calls each sampler once per (probe time, control), and
      nothing after it (search, iteration, report, duality) samples again
    - constant_policy, policies_equal and dump behave as documented, and
      malformed policies are rejected before any sweep; a policy entry that
      is not an integer is refused at construction, naming its level
    - the forward march refuses CFL-violating steps and, before sweeping,
      recombining lattices whose probabilities underflow; it conserves a static
      state under zero dynamics, and its recombining conditional means
      match the full-tree pathwise states grouped by Wiener value
    - cost is exact on trivial dynamics: J = T <f, xi0> + <phi, xi0>
    - the batched Hamiltonian reduces to -<F, u> - <f, xi> when the
      generators vanish
    - the adjoint pair carries phi at the leaves and satisfies exact
      predictor duality; the u-form defect is small and first order
    - the adjoint keys its coefficient and running-cost rows by the played
      control: under a constant policy each level is one row, and its node
      arrays are == those of the same adjoint given one row per node
    - check_max_principle certifies an improved policy at 100 percent and
      counts v-independent Hamiltonians as flat, not as passes earned
    - policy_iteration converges on an affine instance and falls back to
      the best-cost iterate when capped
    - exhaustive_policy_search agrees with the plain forward cost path,
      enforces its mode and budget guards, and its minimum matches costs;
      its cost for every policy equals the plain forward cost path's, and
      its byte cap is the largest level's children array, one state per
      (ancestral path, node), checked before the generator is applied; at
      the benchmark's size its traced peak is the cost vector plus that
      array plus a small fixed slack, and at M = 256 (refused when states
      were kept per prefix) its costs match the forward cost path at depth 4
    - the forward CFL bound and the degeneracy check see a coefficient
      spike on any step level, not only at t = 0, T/2 and T
    - the forward sweep and the exhaustive search refuse through
      CflReport.enforce, suggesting a step count and not semi_implicit
      stepping, and both warn when the coupling indicator exceeds 1
    - control_report assembles the full experiment record, making one
      forward and one adjoint solve per iteration: its final block is the
      final iterate's checks, == a fresh solve of the final policy, and a
      zero-iteration report solves the starting policy once; without
      diagnostics, policy_iteration keeps no checks; each iteration
      evaluates the Hamiltonians once per level
"""

import ast
import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from pytest import approx

from bspdelab import control
from bspdelab.coefficients import (
    CoefficientDataError,
    CoefficientSet,
    ParabolicityError,
    check_parabolicity,
)
from bspdelab.control import (
    ControlPolicy,
    ControlProblem,
    _level_hamiltonians,
    check_max_principle,
    constant_policy,
    control_report,
    cost,
    duality_check,
    exhaustive_policy_search,
    forward_cfl,
    policies_equal,
    policy_iteration,
    solve_adjoint,
    solve_forward,
)
from bspdelab.grid import SpatialGrid, inner_product
from bspdelab.lattice import (
    BudgetExceededError,
    TimeGrid,
    UnsupportedModeError,
    build_tree,
)
from bspdelab.solver import EXPLICIT, SEMI_IMPLICIT, CflError, SolverConfig, StochasticCouplingWarning


def _grid(M=16):
    return SpatialGrid(dim=1, half_width=np.pi, points=M)


def _spike(t):
    """A bump centred on t_1 = 0.025 of a T = 0.1, n = 4 tree, gone by T/2."""
    return math.exp(-(((t - 0.025) / 0.004) ** 2))


def _spiked_steering_problem(a_spike=0.0, sigma_spike=0.0):
    """The M=16, n=4 steering problem with a(t) and sigma(t) spiked on level 1."""
    grid = _grid(16)
    tree = build_tree(TimeGrid(0.1, 4), 1, "full")
    x = grid.axis_coordinates()
    return ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.exp(np.cos(x)),
        a=lambda t, v, g: (0.25 + a_spike * _spike(t)) * np.eye(1),
        sigma=lambda t, v, g: (0.5 + sigma_spike * _spike(t)) * np.ones((1, 1)),
        big_f=lambda t, v, g: v * np.sin(x),
        cost_f=lambda t, v, g: 0.1 * v * np.cos(x) * (t - 0.043),
    )


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


def test_degeneracy_violation_on_a_step_level_rejected():
    # sigma(t_1) = 3.5 makes 2a - sigma^2 = -11.75 at t = 0.025, a step time
    # that t = 0, T/2 and T all miss
    _spiked_steering_problem()
    with pytest.raises(
        ParabolicityError,
        match=r"-1\.175e\+01 below tolerance; witness \{'sample': \d+, 't': 0\.025, 'v': -1\.0,",
    ):
        _spiked_steering_problem(sigma_spike=3.0)


def test_slightly_asymmetric_a_rejected_naming_t_and_v():
    # a^{12} - a^{21} = 1e-9 from T/2 on under v = 1: over the tolerance of
    # CoefficientSet.sample, 1e-12 max(1, max |a|)
    grid = SpatialGrid(dim=2, half_width=np.pi, points=8)
    tree = build_tree(TimeGrid(0.1, 4), 1, "full")
    phi = np.zeros(grid.shape)

    def a(t, v, g):
        return np.array([[1.0, 0.3 + (1e-9 if t > 0.04 and v > 0 else 0.0)], [0.3, 1.0]])

    with pytest.raises(
        CoefficientDataError, match=r"^a is not symmetric at grid index \(0, 0\), t = 0\.05, v = 1\.0$"
    ):
        ControlProblem(grid=grid, tree=tree, gamma=(-1.0, 1.0), terminal_phi=phi, xi0=phi, a=a)


def test_non_finite_nu_rejected_naming_t_v_and_grid_index():
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 4), 1, "full")
    phi = np.zeros(grid.shape)

    def nu(t, v, g):
        out = np.zeros(g.shape + (1,))
        if t > 0.06 and v < 0:
            out[5, 0] = np.nan
        return out

    with pytest.raises(
        CoefficientDataError,
        match=r"^nu sample contains non-finite values at grid index \(5,\), t = 0\.075\d*, v = -1\.0$",
    ):
        ControlProblem(grid=grid, tree=tree, gamma=(-1.0, 1.0), terminal_phi=phi, xi0=phi, nu=nu)


@pytest.mark.parametrize(
    "a0, verdict", [(0.5, "super-parabolic"), (0.125, "degenerate-ok"), (0.1, "violated")]
)
def test_control_table_and_coefficient_set_agree_on_parabolicity(a0, verdict):
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, 4), 1, "full")
    x = grid.axis_coordinates()
    phi = np.zeros(grid.shape)

    # 2a - sigma^2 = 2 a0 - 0.25 + 0.1 (1 - cos(x - v pi / 4)), lowest at
    # the grid point x = v pi / 4
    def a(t, v, g):
        return (a0 + 0.05 * (1.0 - np.cos(x - v * np.pi / 4)))[:, None, None]

    def sigma(t, v, g):
        return np.full(g.shape + (1, 1), 0.5)

    coeffs = CoefficientSet(
        dim=1, wiener_dim=1, a=lambda t, w, g: a(t, 1.0, g), sigma=lambda t, w, g: sigma(t, 1.0, g)
    )
    report = check_parabolicity(coeffs, grid)
    assert report.verdict == verdict

    def build():
        return ControlProblem(
            grid=grid, tree=tree, gamma=(1.0,), terminal_phi=phi, xi0=phi, a=a, sigma=sigma
        )

    if verdict != "violated":
        build()
        return
    with pytest.raises(ParabolicityError, match=f"eigenvalue {report.min_eigenvalue:.3e} below") as err:
        build()
    witness = ast.literal_eval(str(err.value).split("witness ", 1)[1])
    assert witness["eigenvalue"] == report.min_eigenvalue
    assert witness["grid_index"] == report.witness["grid_index"]
    assert witness["x"] == report.witness["x"]


def test_sample_field_defaults_and_broadcast():
    problem = _steering_problem()
    # rows t_0..t_3 then T: T/2 = t_2 is a step time; columns follow gamma
    table = problem._table
    nu = table.nu[0, 1]
    assert nu.shape == problem.grid.shape + (1,)
    assert np.all(nu == 0.0)
    a = table.a[0, 0]
    assert a.shape == problem.grid.shape + (1, 1)
    assert np.all(a == 0.25)
    assert table.cost_f.shape == (4 + 1, 2) + problem.grid.shape


def _counted_steering_problem(calls):
    """The n = 4 steering problem with all eight samplers set and counted.

    calls[name, t, v] counts the calls of sampler `name` at (t, v).
    """
    grid = _grid(16)
    x = grid.axis_coordinates()
    samplers = {
        "a": lambda t, v, g: 0.25 * np.eye(1),
        "b": lambda t, v, g: np.zeros(1),
        "c": lambda t, v, g: 0.0,
        "sigma": lambda t, v, g: 0.5 * np.ones((1, 1)),
        "nu": lambda t, v, g: np.zeros(1),
        "big_f": lambda t, v, g: v * np.sin(x),
        "big_g": lambda t, v, g: 0.0,
        "cost_f": lambda t, v, g: 0.1 * v * np.cos(x) * (t - 0.043),
    }

    def counted(name, fn):
        def sampler(t, v, g):
            calls[name, t, v] += 1
            return fn(t, v, g)

        return sampler

    return ControlProblem(
        grid=grid,
        tree=build_tree(TimeGrid(0.1, 4), 1, "full"),
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.exp(np.cos(x)),
        **{name: counted(name, fn) for name, fn in samplers.items()},
    )


def test_samplers_run_once_per_state_at_construction():
    calls = collections.Counter()
    problem = _counted_steering_problem(calls)
    # t_0..t_3 and T; T/2 = t_2 is a step time
    times = problem.tree.time_grid.times.tolist()
    names = ("a", "b", "c", "sigma", "nu", "big_f", "big_g", "cost_f")
    assert set(calls) == {(n, t, v) for n in names for t in times for v in problem.gamma}
    assert set(calls.values()) == {1}
    constructed = dict(calls)

    exhaustive = exhaustive_policy_search(problem)
    policy_iteration(problem, max_iters=3)
    control_report(problem, max_iters=3)
    forward = solve_forward(problem, exhaustive.policy)
    duality_check(problem, exhaustive.policy, forward, solve_adjoint(problem, exhaustive.policy))
    assert dict(calls) == constructed


# -- policies ---------------------------------------------------------------


def test_constant_policy_and_equality():
    tree = build_tree(TimeGrid(0.1, 3), 1, "full")
    p0 = constant_policy(tree, 0)
    p1 = constant_policy(tree, 1)
    assert len(p0.indices) == 3
    assert [arr.shape[0] for arr in p0.indices] == [1, 2, 4]
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


def test_policy_refuses_entries_that_are_not_integers():
    # truncation would have stored [0] and [1, 0]: -0.2 playing gamma[0]
    with pytest.raises(ValueError, match="level 0 .* not integers"):
        ControlPolicy((np.array([0.7]), np.array([1.9, -0.2])))
    with pytest.raises(ValueError, match="level 1 .* not integers"):
        ControlPolicy((np.array([0]), np.array([1.0, -0.2])))
    for bad in (np.nan, np.inf, True):
        with pytest.raises(ValueError, match="level 0"):
            ControlPolicy((np.array([bad]),))
    kept = ControlPolicy(
        (np.array([1], dtype=np.int32), np.array([0, 1], dtype=np.uint8), np.array([1.0, 0.0]))
    )
    assert all(arr.dtype == np.int64 for arr in kept.indices)
    assert [arr.tolist() for arr in kept.indices] == [[1], [0, 1], [1, 0]]


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


def test_forward_cfl_sees_every_step_level():
    # a(t_1) = 40.25 bounds dt by 1.7e-3 < dt = 0.025; at t = 0, T/2 and T
    # a = 0.25 and the bound is 0.28
    calm = _spiked_steering_problem()
    assert forward_cfl(calm).satisfied
    solve_forward(calm, constant_policy(calm.tree))
    exhaustive_policy_search(calm)
    spiked = _spiked_steering_problem(a_spike=40.0)
    report = forward_cfl(spiked)
    assert not report.satisfied
    assert report.dt_parabolic == approx(0.9 * calm.grid.h**2 / (2 * 40.25), rel=1e-6)
    with pytest.raises(CflError):
        solve_forward(spiked, constant_policy(spiked.tree))
    with pytest.raises(CflError):
        exhaustive_policy_search(spiked)


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
    got = _level_hamiltonians(problem, 0, xi[None], u[None], q[None])
    assert got.shape == (1, 2)
    for gi, v in enumerate((-1.0, 1.0)):
        want = -(
            inner_product(v * np.sin(x), u, grid)
            + inner_product(v * np.cos(x), xi, grid)
        )
        assert got[0, gi] == approx(want, rel=1e-13)


def test_forward_refuses_underflowed_probabilities_before_the_sweep():
    # 2^-n, the smallest recombining probability, is 0.0 in float64 from n = 1075
    problem = _steering_problem(M=8, T=1.0, n=1080, mode="recombining")
    with pytest.raises(BudgetExceededError, match=r"from level 1075 on.*n_steps <= 1074 \(got 1080\)"):
        solve_forward(problem, constant_policy(problem.tree, 0))
    tree = problem.tree
    assert tree.first_zero_probability_level() == 1075
    assert tree.level_probabilities(1075)[0] == 0.0 < tree.level_probabilities(1074)[0]
    # n = 1074 is the last lattice the push accepts
    assert build_tree(TimeGrid(1.0, 1074), 1, "recombining").first_zero_probability_level() is None


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


def _policy_of_code(tree, n_gamma, code):
    """The policy whose j-th non-leaf node (level-major) plays digit j of code."""
    sizes = tree.level_sizes[:-1]
    digits = (code // n_gamma ** np.arange(sum(sizes))) % n_gamma
    bounds = np.cumsum((0,) + sizes)
    return ControlPolicy(tuple(digits[lo:hi] for lo, hi in zip(bounds, bounds[1:])))


def _two_noise_problem():
    """d' = 2, n = 2, three controls: every generator and forcing term set."""
    grid = _grid(8)
    tree = build_tree(TimeGrid(0.1, 2), 2, "full")
    x = grid.axis_coordinates()
    return ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 0.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.exp(np.cos(x)),
        a=lambda t, v, g: 0.3 * np.eye(1),
        b=lambda t, v, g: np.array([0.2 * v]),
        c=lambda t, v, g: 0.1 * v * np.sin(x),
        sigma=lambda t, v, g: np.array([[0.3, 0.2 * (1.0 + 0.2 * v)]]),
        nu=lambda t, v, g: np.array([0.1 * v, -0.05]),
        big_f=lambda t, v, g: v * np.sin(x),
        big_g=lambda t, v, g: np.array([0.1, 0.05 * v]),
        cost_f=lambda t, v, g: 0.1 * v * np.cos(x) * (t - 0.04),
    )


@pytest.mark.parametrize(
    "make, n_policies",
    [
        (lambda: _steering_problem(M=8, T=0.1, n=3, mode="full"), 2**7),
        (_two_noise_problem, 3**5),
    ],
    ids=["steering-n3", "two-noise-n2"],
)
def test_exhaustive_costs_match_every_policy(make, n_policies):
    problem = make()
    res = exhaustive_policy_search(problem)
    assert res.n_policies == n_policies
    for code in range(n_policies):
        policy = _policy_of_code(problem.tree, len(problem.gamma), code)
        j = cost(problem, policy, solve_forward(problem, policy))
        assert res.costs[code] == approx(j, rel=1e-13, abs=0)


def test_exhaustive_byte_cap_is_the_largest_level(monkeypatch):
    problem = _steering_problem(M=8, T=0.1, n=3, mode="full")
    whole = exhaustive_policy_search(problem)
    # level 2 is the largest: 2^2 ancestral paths * 4 nodes, each with
    # |gamma| = 2 controls and 2 children of 8 points * 8 bytes
    need = 2**2 * 4 * 2 * 2 * 8 * 8
    applied = []
    monkeypatch.setattr(control, "_generator_apply", lambda *args: applied.append(args))
    with pytest.raises(BudgetExceededError, match=f"needs {need} bytes"):
        exhaustive_policy_search(problem, workspace_bytes=need - 1)
    assert applied == []
    monkeypatch.undo()
    capped = exhaustive_policy_search(problem, workspace_bytes=need)
    assert whole.n_policies == 2 ** 7
    assert np.array_equal(capped.costs, whole.costs)
    assert capped.j == whole.j
    assert policies_equal(capped.policy, whole.policy)


def test_exhaustive_peak_is_the_costs_and_the_largest_level():
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    # level 3: 2^3 paths * 8 nodes * |gamma| = 2 * 2 children * 16 points * 8 bytes
    need = 2**3 * 8 * 2 * 2 * 16 * 8
    with pytest.raises(BudgetExceededError, match=f"needs {need} bytes"):
        exhaustive_policy_search(problem, workspace_bytes=need - 1)
    tracemalloc.start()
    try:
        res = exhaustive_policy_search(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.costs.nbytes == 8 * 2**15
    # the slack covers the last level's states and generator temporaries, a
    # few (64 states x 16 points) arrays; a (policies x nodes) table is 2 MiB
    assert peak <= res.costs.nbytes + need + 3 * 2**16


def test_exhaustive_reaches_a_fine_grid_at_depth_four():
    # states kept per (prefix, node) needed 8388608 bytes here, over the
    # default 4 MiB workspace; per (ancestral path, node) they need 524288
    problem = _steering_problem(M=256, T=0.004, n=4, mode="full")
    res = exhaustive_policy_search(problem)
    assert res.n_policies == 2**15
    codes = np.random.default_rng(0).choice(res.n_policies, 30, replace=False).tolist()
    codes += [0, res.n_policies - 1, int(np.argmin(res.costs))]
    for code in codes:
        policy = _policy_of_code(problem.tree, 2, code)
        j = cost(problem, policy, solve_forward(problem, policy))
        assert res.costs[code] == approx(j, rel=1e-13, abs=0)


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


def _count_calls(monkeypatch, names):
    calls = collections.Counter()
    for name in names:
        fn = getattr(control, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(control, name, counted)
    return calls


def _fresh_final(problem, policy):
    forward = solve_forward(problem, policy)
    adjoint = solve_adjoint(problem, policy)
    duality = duality_check(problem, policy, forward, adjoint)
    principle = check_max_principle(problem, policy, forward, adjoint)
    return {
        "j": duality.j_direct,
        "defect": duality.defect,
        "predictor_gap": duality.predictor_gap,
        "pass_fraction": principle.pass_fraction,
        "flat_fraction": principle.flat_fraction,
        "tol": principle.tol,
        "policy": policy.dump(problem.gamma),
    }


@pytest.mark.parametrize("max_iters", [0, 1, 5], ids=["unsolved", "capped", "converged"])
def test_control_report_solves_once_per_iteration(monkeypatch, max_iters):
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    names = ("solve_forward", "solve_adjoint", "duality_check", "_max_principle")
    calls = _count_calls(monkeypatch, names)
    rep = control_report(problem, max_iters=max_iters)
    solved = max(rep["n_iterations"], 1)
    assert dict(calls) == {name: solved for name in names}
    assert rep["converged"] is (max_iters == 5)
    monkeypatch.undo()
    start = constant_policy(problem.tree)
    final = policy_iteration(problem, start, max_iters=max_iters).final_policy
    assert rep["final"] == _fresh_final(problem, final)


def test_policy_iteration_without_diagnostics_keeps_no_checks(monkeypatch):
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    calls = _count_calls(monkeypatch, ("duality_check", "_max_principle"))
    record = policy_iteration(problem, max_iters=5)
    assert record.converged
    assert record.final_checks is None
    assert not calls


def test_control_report_evaluates_hamiltonians_once_per_iteration(monkeypatch):
    # the maximum-principle check and the argmax share each iterate's Hamiltonians
    problem = _steering_problem(M=16, T=0.1, n=4, mode="full")
    calls = _count_calls(monkeypatch, ("_level_hamiltonians",))
    rep = control_report(problem, max_iters=5)
    assert rep["n_iterations"] == 2
    assert calls["_level_hamiltonians"] == problem.tree.n_steps * rep["n_iterations"]


def _alternating_policy(tree):
    return ControlPolicy(tuple(np.arange(size) % 2 for size in tree.level_sizes[:-1]))


@pytest.mark.parametrize("stepping", [EXPLICIT, SEMI_IMPLICIT])
@pytest.mark.parametrize("make_policy", [constant_policy, _alternating_policy], ids=["constant", "alternating"])
def test_adjoint_steps_each_played_control_state_once(monkeypatch, stepping, make_policy):
    # coefficients and running cost share the played-control map, so under a
    # constant policy every adjoint level of this W-free problem is one row
    problem = _steering_problem(M=16, T=0.1, n=6, mode="recombining")
    tree, policy = problem.tree, make_policy(problem.tree)
    config = SolverConfig(time_stepping=stepping)
    keyed = solve_adjoint(problem, policy, config)
    # the same adjoint given one coefficient and cost row per node
    monkeypatch.setattr(control, "_played_controls", lambda indices: (indices, np.arange(len(indices))))
    per_node = solve_adjoint(problem, policy, config)
    assert per_node.meta["level_rows"] == list(tree.level_sizes[:-1]) + [1]
    if make_policy is constant_policy:
        assert keyed.meta["level_rows"] == [1] * (tree.n_steps + 1)
    else:
        assert sum(keyed.meta["level_rows"]) < sum(per_node.meta["level_rows"])
    for level in range(tree.n_steps):
        for name in ("u", "q", "r"):
            assert np.array_equal(getattr(keyed, name)[level], getattr(per_node, name)[level])
    assert np.array_equal(keyed.u[tree.n_steps], per_node.u[tree.n_steps])


def test_forward_refusals_suggest_more_steps_only():
    # the forward sweep is explicit only: its refusal names a step count, not semi_implicit
    spiked = _spiked_steering_problem(a_spike=40.0)
    steps = forward_cfl(spiked).suggested_n_steps
    with pytest.raises(CflError, match=f"use >= {steps} steps$"):
        solve_forward(spiked, constant_policy(spiked.tree))
    with pytest.raises(CflError, match=f"use >= {steps} steps$"):
        exhaustive_policy_search(spiked)


def test_forward_and_exhaustive_warn_on_the_coupling_indicator():
    # 2a - sigma sigma^T >= 0 keeps the indicator at or below the explicit
    # bound's 0.9, except where a = 0 and sigma^2 sits within TOL_PSD = 1e-10;
    # dt = 5e10 lifts that sigma (3e-6) to an indicator of 2.9
    grid = _grid(16)
    tree = build_tree(TimeGrid(1e11, 2), 1, "full")
    x = grid.axis_coordinates()
    problem = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.ones(grid.shape),
        sigma=lambda t, v, g: 3e-6 * np.ones((1, 1)),
        cost_f=lambda t, v, g: v * np.cos(x),
    )
    report = forward_cfl(problem)
    assert report.satisfied and report.coupling_indicator > 1.0
    # the forward scheme's explicit noise term is sigma grad xi, not solve's sigma grad q
    term = "coupling indicator 2.92 > 1: the explicit sigma grad xi term may amplify"
    with pytest.warns(StochasticCouplingWarning, match=term):
        solve_forward(problem, constant_policy(tree))
    with pytest.warns(StochasticCouplingWarning, match=term):
        exhaustive_policy_search(problem)
