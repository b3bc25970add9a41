"""Bernoulli path tree tests.

Core claims:
    - TimeGrid pins both endpoints and has uniform dt
    - TimeGrid.time(k) equals times[k] exactly and refuses levels outside 0..n
    - full trees have 2^{level * d'} nodes, recombining trees level + 1
    - the full-tree bit budget refuses oversized requests
    - recombining mode is scalar-noise only
    - increments are +-sqrt(dt) columns covering every sign pattern
    - level_w matches replaying increments along the parent chain
    - PathTree.level_states gives bitwise the distinct rows of level_w and
      their node map that np.unique gives, on full d' = 1 and 2 trees and
      the lattice with a non-dyadic sqrt(dt), and no map for one row
    - level probabilities are binomial (recombining) or uniform (full) and sum to 1;
      recombining rows are the exactly rounded C(n, i) / 2^n for every n <= 1100,
      and the first level holding a 0.0 is 1075
    - node_blocks covers a level in ranges under BLOCK_BYTE_BUDGET, at least a node each
    - a node range's conditional expectation, representation and children are
      the whole level's rows; it checks the field's size and the values it reads
    - conditional expectation averages children with equal weight
    - tower property E[E[X | F_l]] = E[X] holds to machine precision
    - martingale representation is complete for d' = 1: X = E[X] + q dW exactly
    - for d' > 1 the representation residual is orthogonal to every increment
    - tree_expectation of a deterministic terminal equals that value
    - AdaptedGridField validates per-level shapes; its node access is the
      rows at the node -> row map
    - first_occurrence_keys numbers distinct column tuples by first node;
      None and all-zero columns split no tuple
    - level_states walks node ranges unkeyed or when every node is its own
      state (inv None), else each distinct key tuple once through its first
      node, in blocks under BLOCK_BYTE_BUDGET
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
    level_children,
    level_conditional_expectation,
    level_martingale_representation,
    level_states,
    node_blocks,
    tree_expectation,
)
from bspdelab import lattice


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


@pytest.mark.parametrize("mode, dprime, n", [("full", 1, 7), ("full", 2, 5), ("recombining", 1, 12)])
def test_tree_level_states_are_the_distinct_rows_of_level_w(mode, dprime, n):
    # T = 0.37: sqrt(dt) is not dyadic, so a state's bits depend on its rounding
    tree = build_tree(TimeGrid(0.37, n), wiener_dim=dprime, mode=mode)
    for level in range(n + 1):
        states, inv = tree.level_states(level)
        rows, want = np.unique(tree.level_w(level), axis=0, return_inverse=True)
        assert states.dtype == rows.dtype and states.tobytes() == rows.tobytes(), level
        assert states.shape == rows.shape
        if level == 0:
            # the one-row case: no map
            assert len(rows) == 1 and inv is None
        else:
            assert inv.dtype == want.dtype and np.array_equal(inv, want.reshape(-1)), level


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


def test_recombining_probabilities_stay_finite_past_float_binomials():
    # C(n, n/2) overflows float64 from n = 1030; the weights must not
    for n in (1030, 1100):
        tree = build_tree(TimeGrid(1.0, n), wiener_dim=1, mode="recombining")
        p = tree.level_probabilities(n)
        assert p.shape == (n + 1,)
        assert np.all(np.isfinite(p))
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12
    # where float binomials fit, the values are the float product's exactly
    tree = build_tree(TimeGrid(1.0, 1000), wiener_dim=1, mode="recombining")
    for n in (1, 5, 32, 64, 200, 1000):
        old = np.array([math.comb(n, i) for i in range(n + 1)], dtype=np.float64) * 0.5**n
        assert np.array_equal(tree.level_probabilities(n), old)


def test_recombining_probabilities_are_the_exact_binomial_quotients():
    # C(n, i) / 2^n, exactly rounded, for every n <= 1100: the binomials come
    # from Pascal's rule, checked against math.comb on every 100th row
    tree = build_tree(TimeGrid(1.0, 1100), wiener_dim=1, mode="recombining")
    row = [1]
    for n in range(1101):
        if n:
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        if n % 100 == 0:
            assert row == [math.comb(n, i) for i in range(n + 1)]
        scale = 1 << n
        assert np.array_equal(tree.level_probabilities(n), np.array([c / scale for c in row]))


def test_first_zero_probability_level():
    assert build_tree(TimeGrid(1.0, 1100), 1, "recombining").first_zero_probability_level() == 1075
    assert build_tree(TimeGrid(1.0, 1074), 1, "recombining").first_zero_probability_level() is None
    assert build_tree(TimeGrid(1.0, 11), 2, "full").first_zero_probability_level() is None


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


# -- node ranges ---------------------------------------------------------------


def test_node_blocks_cover_the_level_under_the_cap(monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", 100)
    assert node_blocks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    # a block holds at least one node
    assert node_blocks(2, 1000) == [slice(0, 1), slice(1, 2)]
    monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", 2**20)
    assert node_blocks(7, 30) == [slice(0, 7)]


@pytest.mark.parametrize("mode,dprime", [("full", 2), ("recombining", 1)])
def test_node_ranges_read_only_their_children(mode, dprime):
    tree = build_tree(TimeGrid(0.5, 3), wiener_dim=dprime, mode=mode)
    level = 2
    size = tree.level_sizes[level]
    vals = _rng(31).standard_normal((tree.level_sizes[level + 1], 5))
    ce = level_conditional_expectation(tree, vals, level)
    q = level_martingale_representation(tree, vals, level)
    kids = level_children(tree, vals, level)
    assert kids.shape == (size, tree.child_count, 5)
    for parent in range(size):
        assert np.array_equal(kids[parent], child_values(tree, vals, NodeId(level, parent)))
    for nodes in (slice(0, 1), slice(1, 3), slice(size - 1, size), slice(0, size)):
        assert np.array_equal(level_conditional_expectation(tree, vals, level, nodes), ce[nodes])
        assert np.array_equal(level_martingale_representation(tree, vals, level, nodes), q[nodes])
        assert np.array_equal(level_children(tree, vals, level, nodes), kids[nodes])
    # a range checks the values it reads, and the size of the whole field
    bad = vals.copy()
    bad[-1, 0] = np.nan
    level_conditional_expectation(tree, bad, level, slice(0, 1))
    with pytest.raises(IncompleteFieldError):
        level_conditional_expectation(tree, bad, level, slice(size - 1, size))
    with pytest.raises(IncompleteFieldError):
        level_martingale_representation(tree, vals[:-1], level, slice(0, 1))


# -- adapted fields ---------------------------------------------------------------


def test_adapted_field_access():
    tree = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="recombining")
    levels = [np.zeros((tree.level_sizes[k], 4)) for k in range(4)]
    field = AdaptedGridField(tuple(levels))
    assert len(field) == 4
    assert field[2].shape == (3, 4)


def test_adapted_field_node_access_is_rows_at_the_map():
    rows = [np.arange(6.0).reshape(3, 2), np.arange(8.0).reshape(4, 2)]
    inv = np.array([2, 0, 2, 1, 0])
    field = AdaptedGridField(rows, [inv, None])
    assert np.array_equal(field[0], rows[0][inv])
    assert field[1] is rows[1]
    assert np.array_equal(field.at(0, np.array([1, 3])), rows[0][[0, 1]])
    assert np.array_equal(field.at(0, slice(2, 4)), rows[0][[2, 1]])
    assert np.array_equal(field.at(1, 2), rows[1][2])
    assert np.array_equal(field.row_map(0), inv)
    assert np.array_equal(field.row_map(1), np.arange(4))
    assert np.array_equal(field.per_node(0, np.array([10.0, 20.0, 30.0])), [30.0, 10.0, 30.0, 20.0, 10.0])
    assert AdaptedGridField(rows).maps == [None, None]


def test_first_occurrence_keys():
    a = np.array([3, 1, 3, 1, 0, 3])
    b = np.array([0, 0, 0, 1, 0, 0])
    reps, inv = lattice.first_occurrence_keys([a, None, b], 6)
    assert reps.tolist() == [0, 1, 3, 4]
    assert inv.tolist() == [0, 1, 0, 2, 3, 0]
    reps, inv = lattice.first_occurrence_keys([None], 3)
    assert reps.tolist() == [0] and inv.tolist() == [0, 0, 0]


def test_first_occurrence_keys_zero_columns_act_as_none():
    # the children of a one-row level are all-zero columns: they split no tuple
    a = np.array([3, 1, 3, 1, 0, 3])
    zero = np.zeros(6, dtype=np.intp)
    for with_zero, with_none in [([a, zero, zero], [a, None, None]), ([zero, zero], [None])]:
        got, want = lattice.first_occurrence_keys(with_zero, 6), lattice.first_occurrence_keys(with_none, 6)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_wrong_level_size_is_refused():
    tree = build_tree(TimeGrid(1.0, 3), wiener_dim=1, mode="recombining")
    with pytest.raises(IncompleteFieldError):
        level_conditional_expectation(tree, np.zeros(9), 1)
    with pytest.raises(IncompleteFieldError):
        level_conditional_expectation(tree, np.array([np.nan, 0.0, 0.0]), 1)


def _walked(blocks):
    """The states and the nodes a level_states walk visits, in order."""
    rows = np.concatenate([np.arange(r.start, r.stop) for r, _ in blocks])
    nodes = [np.arange(n.start, n.stop) if isinstance(n, slice) else n for _, n in blocks]
    return rows, np.concatenate(nodes)


def test_level_states_walks_each_state_once_under_the_cap(monkeypatch):
    # 30 bytes a node: three nodes a block
    monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", 100)
    # unkeyed: every node its own state, in node ranges
    count, inv, blocks = level_states(None, 7, 30)
    assert (count, inv) == (7, None)
    assert blocks == [(r, r) for r in (slice(0, 3), slice(3, 6), slice(6, 7))]
    # keys telling every node apart walk the same ranges, with no map
    assert level_states([np.array([4, 2, 0, 6, 5, 1, 3])], 7, 30) == (7, None, blocks)

    # collapsed keys: (a, b) tuples, numbered by first node
    a = np.array([3, 1, 3, 1, 0, 3, 1, 0])
    b = np.array([0, 0, 0, 1, 0, 0, 0, 0])
    count, inv, blocks = level_states([a, None, b], 8, 30)
    assert count == 4 and inv.tolist() == [0, 1, 0, 2, 3, 0, 1, 3]
    rows, nodes = _walked(blocks)
    # every state once, through its first node
    assert rows.tolist() == [0, 1, 2, 3]
    assert nodes.tolist() == [0, 1, 3, 4]
    assert np.array_equal(inv[nodes], rows)
    # blocks under the cap: at most three states of 30 bytes each
    assert [r.stop - r.start for r, _ in blocks] == [3, 1]
    assert all(len(n) * 30 <= 100 for _, n in blocks)

    # one key shared by every node: one state
    count, inv, blocks = level_states([np.zeros(5, dtype=int)], 5, 30)
    assert count == 1 and inv.tolist() == [0] * 5
    assert _walked(blocks)[1].tolist() == [0]
