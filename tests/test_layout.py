"""One node layout for both Bernoulli trees.

Core claims:
    - child_table lists node i's children as i * k + c on a full tree and
      i + c on the recombining lattice; child_ranges are its columns as
      slices, and PathTree.children agrees with both
    - w_at(node) == level_w(level)[index] for every node of a full d'=2,
      n=4 tree and of a recombining n=8 lattice, and a full d'=1 tree's
      Wiener states are the lattice's bit for bit
    - Markovian data on a full d'=2 tree whose sqrt(dt) is not a dyadic
      number (counterexample-1, M=32, T=0.02, n=6) store (k + 1)^2 rows at
      level k: one per Wiener state
    - a Markovian d'=1 solve stores k + 1 rows at level k of a full tree,
      and its u matches the recombining solve per Wiener state to 1e-12
      (the two layouts round the martingale scale differently, so no ==)
    - solve_forward on a full d'=1 tree is == the pathwise recursion
      xi + dt drift + (M xi + G) dW_c
    - verify_main_estimates' sup_p left side on a full tree is == the
      expected max over the enumerated leaf paths
"""

import math

import numpy as np
import pytest

from bspdelab import control, energy
from bspdelab.coefficients import CoefficientSet, builtin_counterexamples, constant_sampler
from bspdelab.control import ControlPolicy, ControlProblem, solve_forward
from bspdelab.grid import SpatialGrid, random_smooth_field
from bspdelab.lattice import NodeId, TimeGrid, build_tree
from bspdelab.solver import ProblemData, solve


@pytest.mark.parametrize("mode,dprime", [("full", 1), ("full", 2), ("recombining", 1)])
def test_child_table_ranges_and_children_agree(mode, dprime):
    tree = build_tree(TimeGrid(1.0, 3), dprime, mode)
    k = tree.child_count
    for level in range(3):
        size = tree.level_sizes[level]
        table = tree.child_table(level)
        if mode == "full":
            assert np.array_equal(table, np.arange(size * k).reshape(size, k))
        else:
            assert np.array_equal(table, np.stack([np.arange(size), np.arange(size) + 1], axis=1))
        next_nodes = np.arange(tree.level_sizes[level + 1])
        for nodes in (slice(None), slice(1, size), slice(0, 1)):
            ranges = tree.child_ranges(level, nodes)
            assert [next_nodes[r].tolist() for r in ranges] == table[nodes].T.tolist()
        assert np.array_equal(tree.child_table(level, [size - 1, 0]), table[[size - 1, 0]])
        for i in range(size):
            assert [c.index for c in tree.children(NodeId(level, i))] == table[i].tolist()


@pytest.mark.parametrize("mode,dprime,n", [("full", 2, 4), ("recombining", 1, 8)])
def test_w_at_is_level_w_on_every_node(mode, dprime, n):
    tree = build_tree(TimeGrid(0.3, n), dprime, mode)
    for level in range(n + 1):
        w = tree.level_w(level)
        for index in range(tree.level_sizes[level]):
            assert np.array_equal(tree.w_at(NodeId(level, index)), w[index])


def _counterexample(n):
    """Counterexample-1, full d'=2 tree, M=32, T=0.02, terminal phi (1 + W1/sqrt T) + psi W2/sqrt T."""
    g = SpatialGrid(dim=2, half_width=np.pi, points=32)
    phi = random_smooth_field(g, max_mode=3, seed=7)
    psi = random_smooth_field(g, max_mode=2, seed=8)
    s = math.sqrt(0.02)
    return ProblemData(
        grid=g,
        tree=build_tree(TimeGrid(0.02, n), 2, "full"),
        coefficients=builtin_counterexamples()[0],
        terminal=lambda w, gr: phi * (1.0 + w[0] / s) + psi * w[1] / s,
    )


def test_markov_data_store_one_row_per_wiener_state():
    # sqrt(dt) = sqrt(0.02 / 6) is not dyadic: paths meeting at one state
    # must still carry one W, so nodes of one state share their rows
    sol = solve(_counterexample(6))
    assert sol.meta["level_rows"] == [(k + 1) ** 2 for k in range(7)]


def _markov_scalar(mode):
    g = SpatialGrid(dim=1, half_width=np.pi, points=32)
    x = g.axis_coordinates()
    coeffs = CoefficientSet(
        dim=1,
        wiener_dim=1,
        a=lambda t, w, gr: np.full(gr.shape + (1, 1), 0.5 + 0.1 * np.sin(w[0]) ** 2),
        sigma=constant_sampler([[0.4]], (1, 1)),
        w_dependent=True,
    )
    return ProblemData(
        grid=g,
        tree=build_tree(TimeGrid(0.1, 8), 1, mode),
        coefficients=coeffs,
        terminal=lambda w, gr: np.cos(x + w[0]),
    )


def test_full_tree_matches_the_lattice_per_wiener_state():
    full, rec = _markov_scalar("full"), _markov_scalar("recombining")
    sol_f, sol_r = solve(full), solve(rec)
    assert sol_f.meta["level_rows"] == [k + 1 for k in range(9)]
    for level in range(9):
        w_full, w_rec = full.tree.level_w(level)[:, 0], rec.tree.level_w(level)[:, 0]
        state = np.searchsorted(w_rec, w_full)
        # integer coordinates: one Wiener state has the same bits in both layouts
        assert np.array_equal(w_rec[state], w_full)
        u_f, u_r = sol_f.u[level], sol_r.u[level][state]
        assert np.max(np.abs(u_f - u_r)) <= 1e-12 * np.max(np.abs(u_r))


def _steering(n=4):
    g = SpatialGrid(dim=1, half_width=np.pi, points=16)
    x = g.axis_coordinates()
    return ControlProblem(
        grid=g,
        tree=build_tree(TimeGrid(0.1, n), 1, "full"),
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.exp(np.cos(x)),
        a=lambda t, v, gr: 0.25 * np.eye(1),
        sigma=lambda t, v, gr: (0.5 + 0.1 * v) * np.ones((1, 1)),
        nu=lambda t, v, gr: 0.2 * v * np.ones(1),
        big_f=lambda t, v, gr: v * np.sin(x),
        big_g=lambda t, v, gr: 0.3 * np.cos(x)[:, None] * np.ones(1),
    )


def test_forward_push_is_the_pathwise_recursion_on_a_full_tree():
    problem = _steering()
    tree, dt = problem.tree, problem.tree.time_grid.dt
    rng = np.random.Generator(np.random.Philox(5))
    policy = ControlPolicy(tuple(rng.integers(0, 2, size) for size in tree.level_sizes[:-1]))
    fwd = solve_forward(problem, policy)
    xi = problem.xi0[None]
    assert np.array_equal(fwd.mean[0], xi)
    for level in range(tree.n_steps):
        drift, mart = control._forward_level_terms(problem, policy, level, xi)
        # node i's children are 2i (dW = -sqrt dt) and 2i + 1 (dW = +sqrt dt)
        kids = [xi + dt * drift + mart[..., 0] * dw for dw in tree.increments()[:, 0]]
        xi = np.stack(kids, axis=1).reshape((-1,) + problem.grid.shape)
        assert np.array_equal(fwd.mean[level + 1], xi), level


def test_sup_p_is_the_expected_max_over_leaf_paths():
    problem = _counterexample(3)
    tree, grid = problem.tree, problem.grid
    sol = solve(problem)
    est = energy.verify_main_estimates(sol, problem, m1=1, p=4.0)
    n, k = tree.n_steps, tree.child_count
    norms = [sol.u.per_node(lv, energy._level_norms(sol.u.levels[lv], grid, 1, (4.0,))[1][0]) for lv in range(n + 1)]
    leaves = np.arange(tree.level_sizes[n])
    # a leaf's ancestor at a level is its index // k^(levels between)
    path_max = np.max([norms[lv][leaves // k ** (n - lv)] for lv in range(n + 1)], axis=0)
    assert est.entry("sup_p").lhs == float(np.sum(tree.level_probabilities(n) * path_max))
