"""Bernoulli path tree tests.

Core claims:
    - TimeGrid pins both endpoints and has uniform dt
    - TimeGrid.time(k) equals times[k] exactly and refuses levels outside 0..n
    - full trees have 2^{level * d'} nodes, recombining trees level + 1
    - the full-tree bit budget refuses oversized requests
    - recombining mode is scalar-noise only
    - increments are +-sqrt(dt) columns covering every sign pattern
    - level_w matches replaying increments along the parent chain
    - level probabilities are binomial (recombining) or uniform (full) and sum to 1
    - conditional expectation averages children with equal weight
    - tower property E[E[X | F_l]] = E[X] holds to machine precision
    - martingale representation is complete for d' = 1: X = E[X] + q dW exactly
    - for d' > 1 the representation residual is orthogonal to every increment
    - tree_expectation of a deterministic terminal equals that value
    - AdaptedGridField validates per-level shapes
"""

import math

import numpy as np
import pytest
from pytest import approx

from bspdelab.lattice import (
    FULL_TREE_BIT_BUDGET,
    AdaptedGridField,
    BudgetExceededError,
    IncompleteFieldError,
    NodeId,
    PathTree,
    TimeGrid,
    UnsupportedModeError,
    build_tree,
    child_values,
    level_conditional_expectation,
    level_martingale_representation,
    tree_expectation,
)


def _rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


# -- time grid ---------------------------------------------------------------


def test_time_grid_endpoints_and_dt():
    tg = TimeGrid(horizon=1.0, n_steps=7)
    assert tg.dt == approx(1.0 / 7)
    assert tg.times[0] == 0.0
    assert tg.times[-1] == 1.0
    assert len(tg.times) == 8
    assert tg.time(3) == approx(3 / 7)


@pytest.mark.parametrize("horizon, n_steps", [(0.1, 3), (0.02, 5), (1.0, 400), (0.3, 7)])
def test_time_grid_time_equals_times(horizon, n_steps):
    tg = TimeGrid(horizon, n_steps)
    assert [tg.time(k) for k in range(n_steps + 1)] == tg.times.tolist()
    for level in (-1, n_steps + 1):
        with pytest.raises(IndexError):
            tg.time(level)


def test_time_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeGrid(horizon=-1.0, n_steps=4)
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, n_steps=0)


# -- construction ---------------------------------------------------------------


def test_full_tree_shape():
    tree = build_tree(TimeGrid(1.0, 3), wiener_dim=2, mode="full")
    assert tree.child_count == 4
    assert list(tree.level_sizes) == [1, 4, 16, 64]
    assert tree.total_nodes() == 85


def test_recombining_tree_shape():
    tree = build_tree(TimeGrid(1.0, 5), wiener_dim=1, mode="recombining")
    assert list(tree.level_sizes) == [1, 2, 3, 4, 5, 6]


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        build_tree(TimeGrid(1.0, FULL_TREE_BIT_BUDGET + 1), wiener_dim=1, mode="full")
    with pytest.raises(BudgetExceededError):
        build_tree(TimeGrid(1.0, 12), wiener_dim=2, mode="full")


def test_recombining_rejects_vector_noise():
    with pytest.raises(UnsupportedModeError):
        build_tree(TimeGrid(1.0, 4), wiener_dim=2, mode="recombining")
    with pytest.raises(UnsupportedModeError):
        build_tree(TimeGrid(1.0, 4), wiener_dim=1, mode="trinomial")


# -- increments and states ---------------------------------------------------------------


def test_increments_cover_all_sign_patterns():
    tree = build_tree(TimeGrid(1.0, 2), wiener_dim=2, mode="full")
    inc = tree.increments()
    sq = math.sqrt(tree.time_grid.dt)
    assert inc.shape == (4, 2)
    assert np.max(np.abs(np.abs(inc) - sq)) < 1e-15
    patterns = {tuple(np.sign(row).astype(int)) for row in inc}
    assert len(patterns) == 4


def test_level_w_replays_increments_full():
    tree = build_tree(TimeGrid(0.7, 4), wiener_dim=2, mode="full")
    inc = tree.increments()
    w = np.zeros((1, 2))
    for level in range(4):
        w = (w[:, None, :] + inc[None, :, :]).reshape(-1, 2)
        assert np.max(np.abs(w - tree.level_w(level + 1))) < 1e-14


def test_level_w_recombining_is_centered_walk():
    tree = build_tree(TimeGrid(1.0, 6), wiener_dim=1, mode="recombining")
    sq = math.sqrt(tree.time_grid.dt)
    for level in range(7):
        w = tree.level_w(level)
        expect = (2 * np.arange(level + 1) - level) * sq
        assert np.max(np.abs(w[:, 0] - expect)) < 1e-14


def test_w_at_matches_level_w():
    tree = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="full")
    lw = tree.level_w(2)
    for idx in range(tree.level_sizes[2]):
        assert np.array_equal(tree.w_at(NodeId(2, idx)), lw[idx])


# -- probabilities ---------------------------------------------------------------


def test_probabilities_sum_to_one_and_match_binomial():
    tree = build_tree(TimeGrid(1.0, 6), wiener_dim=1, mode="recombining")
    for level in range(7):
        p = tree.level_probabilities(level)
        assert np.sum(p) == approx(1.0, abs=1e-15)
        for j, val in enumerate(p):
            assert val == approx(math.comb(level, j) * 0.5 ** level, rel=1e-14)
    full = build_tree(TimeGrid(1.0, 4), wiener_dim=2, mode="full")
    p = full.level_probabilities(3)
    assert np.max(np.abs(p - 1 / full.level_sizes[3])) < 1e-18


def test_children_indices():
    full = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="full")
    assert full.children(NodeId(1, 1)) == [NodeId(2, 2), NodeId(2, 3)]
    rec = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="recombining")
    assert rec.children(NodeId(1, 1)) == [NodeId(2, 1), NodeId(2, 2)]
    with pytest.raises(ValueError):
        full.children(NodeId(3, 0))


# -- conditional expectation and tower ---------------------------------------------------------------


def test_conditional_expectation_averages_children():
    tree = build_tree(TimeGrid(1.0, 2), wiener_dim=1, mode="full")
    vals = np.array([1.0, 3.0, -2.0, 6.0])
    ce = level_conditional_expectation(tree, vals, 1)
    assert ce[0] == approx(2.0)
    assert ce[1] == approx(2.0)
    assert ce[1] == child_values(tree, vals, NodeId(1, 1)).mean(axis=0)


@pytest.mark.parametrize("mode,dprime", [("full", 2), ("full", 1), ("recombining", 1)])
def test_tower_property_randomized(mode, dprime):
    tree = build_tree(TimeGrid(0.8, 6), wiener_dim=dprime, mode=mode)
    rng = _rng(17)
    for _ in range(50):
        leaf = rng.standard_normal(tree.level_sizes[6])
        direct = float(tree.level_probabilities(6) @ leaf)
        x = leaf
        for level in range(5, -1, -1):
            x = level_conditional_expectation(tree, x, level)
        assert x.shape == (1,)
        assert x[0] == approx(direct, abs=1e-12 * max(1, abs(direct)))


def test_tree_expectation_deterministic_terminal():
    tree = build_tree(TimeGrid(1.0, 5), wiener_dim=1, mode="recombining")
    vals = np.full(tree.level_sizes[5], 4.25)
    assert tree_expectation(tree, vals, 5) == approx(4.25, rel=1e-15)


# -- martingale representation ---------------------------------------------------------------


def test_representation_completeness_scalar_noise():
    # X = E[X | F_l] + q . dW reproduces every child exactly when d' = 1
    for mode in ("full", "recombining"):
        tree = build_tree(TimeGrid(0.5, 6), wiener_dim=1, mode=mode)
        rng = _rng(23)
        sq = math.sqrt(tree.time_grid.dt)
        for level in (0, 2, 5):
            vals = rng.standard_normal(tree.level_sizes[level + 1])
            ce = level_conditional_expectation(tree, vals, level)
            q = level_martingale_representation(tree, vals, level)
            for parent in range(tree.level_sizes[level]):
                kids = child_values(tree, vals, NodeId(level, parent))
                recon = np.array([ce[parent] - q[parent, 0] * sq, ce[parent] + q[parent, 0] * sq])
                if mode == "full":
                    # child order follows the sign table, increments() row order
                    signs = tree.increments()[:, 0]
                    recon = ce[parent] + q[parent, 0] * signs
                assert np.max(np.abs(np.sort(kids) - np.sort(recon))) < 1e-12


def test_representation_residual_orthogonal_vector_noise():
    # d' = 2: the remainder after projecting on increments has zero pairing with them
    tree = build_tree(TimeGrid(0.5, 4), wiener_dim=2, mode="full")
    rng = _rng(29)
    inc = tree.increments()
    dt = tree.time_grid.dt
    vals = rng.standard_normal(tree.level_sizes[3])
    ce = level_conditional_expectation(tree, vals, 2)
    q = level_martingale_representation(tree, vals, 2)
    for parent in range(tree.level_sizes[2]):
        kids = child_values(tree, vals, NodeId(2, parent))
        resid = kids - ce[parent] - inc @ q[parent]
        pair = inc.T @ resid / inc.shape[0]
        assert np.max(np.abs(pair)) < 1e-14
    # and q itself is the regression coefficient E[X dW]/dt
    for parent in range(tree.level_sizes[2]):
        kids = child_values(tree, vals, NodeId(2, parent))
        qref = (inc.T @ kids) / (inc.shape[0] * dt)
        assert np.max(np.abs(qref - q[parent])) < 1e-13


# -- adapted fields ---------------------------------------------------------------


def test_adapted_field_access():
    tree = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="recombining")
    levels = [np.zeros((tree.level_sizes[k], 4)) for k in range(4)]
    field = AdaptedGridField(tuple(levels))
    assert len(field) == 4
    assert field[2].shape == (3, 4)


def test_wrong_level_size_is_refused():
    tree = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="recombining")
    with pytest.raises(IncompleteFieldError):
        level_conditional_expectation(tree, np.zeros(9), 1)
    with pytest.raises(IncompleteFieldError):
        level_conditional_expectation(tree, np.array([np.nan, 0.0, 0.0]), 1)
