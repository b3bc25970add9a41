"""Discrete Brownian driver on a binary path tree.

The Wiener process is replaced by Bernoulli increments of size +/- sqrt(dt),
either on a full non-recombining tree (every sign history is its own node)
or on a recombining binomial lattice (one state per level and up-move count,
scalar noise only).  Conditional expectations and the martingale
representation of a next-level field are then finite sums with exact dyadic
weights, so the probabilistic structure contributes no sampling error on top
of the time discretisation.

Child ordering convention: the children of a node are indexed by
c in [0, 2^d') where bit k of c set means the k-th noise component moved up
(+sqrt(dt)) and bit k clear means it moved down (-sqrt(dt)).  On the
recombining lattice, state i at level n carries W = (2*i - n)*sqrt(dt) and
the children of state i are state i (down, c=0) and state i+1 (up, c=1).

Only PathTree knows the layout.  child_table gives each node's children in
that order (child_ranges: its columns for a node range, as slices), level_w
sums integer signs before scaling by sqrt(dt), so a Wiener state has the
same bits on every path, and level_probabilities gives the node weights.
The level operators read a range's children as views, and, through the
node -> row map of a level stored as distinct rows (AdaptedGridField), any
nodes' children as one gather through the child table.

Every per-level pass (the sweep, the weak form, the oracle scorer and step
residual, the continuation gaps) walks a level through level_states: nodes
with equal keys are one state, visited once through its first node, in
blocks of at most BLOCK_BYTE_BUDGET bytes of one level field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Full trees are refused above this many total sign bits (wiener_dim * n_steps):
# 2^22 leaves is roughly an 8M-node tree, the largest that stays desk-scale.
FULL_TREE_BIT_BUDGET = 22
# Bytes of u, q and r a solve may store.
WORKSPACE_BYTE_BUDGET = 2**31
# Bytes of one level field a per-level pass reads per node block; the pass's
# temporaries are a few such blocks, whatever the level size.
BLOCK_BYTE_BUDGET = 2**20

MODES = ("full", "recombining")


class BudgetExceededError(ValueError):
    """Requested tree or workspace would exceed its budget."""


class UnsupportedModeError(ValueError):
    """Tree mode incompatible with the requested noise dimension."""


class IncompleteFieldError(ValueError):
    """A field is missing values (wrong level size or non-finite entries)."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n_steps steps of size dt = T / n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        # linspace pins t_0 = 0 and t_N = T exactly
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def time(self, level: int) -> float:
        """t_level, equal to times[level] without building the array."""
        if not 0 <= level <= self.n_steps:
            raise IndexError(f"level {level} outside 0..{self.n_steps}")
        return float(self.horizon if level == self.n_steps else level * self.dt)


@dataclass(frozen=True)
class NodeId:
    """Address of a tree node: (level, index within level)."""

    level: int
    index: int


@dataclass(frozen=True)
class PathTree:
    """Bernoulli tree over a TimeGrid. Build with build_tree."""

    time_grid: TimeGrid
    wiener_dim: int
    mode: str
    level_sizes: tuple[int, ...]
    # sign_table[c, k] = +1/-1 for the k-th increment of child c
    sign_table: np.ndarray = field(repr=False)

    @property
    def n_steps(self) -> int:
        return self.time_grid.n_steps

    @property
    def child_count(self) -> int:
        return self.sign_table.shape[0]

    def validate_node(self, node: NodeId) -> None:
        if not (0 <= node.level <= self.n_steps):
            raise ValueError(f"level {node.level} outside [0, {self.n_steps}]")
        if not (0 <= node.index < self.level_sizes[node.level]):
            raise ValueError(
                f"index {node.index} outside level {node.level} "
                f"(size {self.level_sizes[node.level]})"
            )

    @property
    def _child_stride(self) -> int:
        return self.child_count if self.mode == "full" else 1

    def child_table(self, level: int, nodes=slice(None)) -> np.ndarray:
        """Children of the nodes `nodes` (a range or an index array), shape (nodes, child_count).

        Column c is the child of sign-table row c: node i's is i * k + c on a
        full tree, i + c (c = 0 down, 1 up) on the recombining lattice.
        """
        if isinstance(nodes, slice):
            nodes = np.arange(self.level_sizes[level])[nodes]
        return np.asarray(nodes)[:, None] * self._child_stride + np.arange(self.child_count)

    def child_ranges(self, level: int, nodes: slice = slice(None)) -> list[slice]:
        """child_table's columns for a range of nodes, as next-level slices (read as views)."""
        start, stop, step = nodes.indices(self.level_sizes[level])
        s = self._child_stride
        return [slice(start * s + c, stop * s + c, step * s) for c in range(self.child_count)]

    def children(self, node: NodeId) -> list[NodeId]:
        self.validate_node(node)
        if node.level >= self.n_steps:
            raise ValueError(f"node at terminal level {node.level} has no children")
        kids = self.child_table(node.level, [node.index])[0]
        return [NodeId(node.level + 1, int(c)) for c in kids]

    def increments(self) -> np.ndarray:
        """Child increment vectors, shape (child_count, wiener_dim)."""
        return self.sign_table * math.sqrt(self.time_grid.dt)

    def _coordinates(self, level: int, nodes) -> np.ndarray:
        """The integer sign sums W / sqrt(dt) of nodes at a level, (nodes, wiener_dim)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.mode == "recombining":
            return (2 * nodes - level)[:, None]
        total = np.zeros((nodes.size, self.wiener_dim), dtype=np.int64)
        # a full-tree index holds its sign history as base-k digits, the last step lowest
        for _ in range(level):
            total += self.sign_table.astype(np.int64)[nodes % self.child_count]
            nodes = nodes // self.child_count
        return total

    def level_w(self, level: int) -> np.ndarray:
        """Accumulated Wiener states at a level, shape (size, wiener_dim)."""
        if not (0 <= level <= self.n_steps):
            raise ValueError(f"level {level} outside [0, {self.n_steps}]")
        nodes = np.arange(self.level_sizes[level])
        return self._coordinates(level, nodes) * math.sqrt(self.time_grid.dt)

    def w_at(self, node: NodeId) -> np.ndarray:
        self.validate_node(node)
        return self._coordinates(node.level, [node.index])[0] * math.sqrt(self.time_grid.dt)

    def level_probabilities(self, level: int) -> np.ndarray:
        """Exact node probabilities at a level (dyadic weights).

        Recombining weights are C(n, i) / 2^n, exactly rounded; the smallest,
        2^-n, underflows to 0.0 from level 1075 on (first_zero_probability_level).
        """
        size = self.level_sizes[level]
        if self.mode == "full":
            return np.full(size, 1.0 / size)
        # exact integers: C(n, i) itself overflows float64 from n = 1030
        binomials = [1] * (level + 1)
        for i in range(level):
            binomials[i + 1] = binomials[i] * (level - i) // (i + 1)
        scale = 1 << level
        return np.array([c / scale for c in binomials])

    def first_zero_probability_level(self) -> int | None:
        """The first level holding a node of probability 0.0, None if there is none.

        Full-tree probabilities are 1 / size with size <= 2^FULL_TREE_BIT_BUDGET;
        the smallest recombining probability at level n is 2^-n.
        """
        if self.mode == "full":
            return None
        return next((n for n in range(self.n_steps + 1) if 1 / (1 << n) == 0.0), None)

    def total_nodes(self) -> int:
        return int(sum(self.level_sizes))


def build_tree(time_grid: TimeGrid, wiener_dim: int = 1, mode: str = "full") -> PathTree:
    """Construct a PathTree, refusing configurations over the node budget."""
    if mode not in MODES:
        raise UnsupportedModeError(f"mode must be one of {MODES}, got {mode!r}")
    if wiener_dim < 1:
        raise ValueError(f"wiener_dim must be >= 1, got {wiener_dim}")
    if mode == "recombining":
        if wiener_dim != 1:
            raise UnsupportedModeError(
                "recombining mode supports wiener_dim = 1 only "
                f"(got wiener_dim = {wiener_dim})"
            )
        sizes = tuple(n + 1 for n in range(time_grid.n_steps + 1))
        sign_table = np.array([[-1.0], [1.0]])
        return PathTree(time_grid, wiener_dim, mode, sizes, sign_table)

    bits = wiener_dim * time_grid.n_steps
    if bits > FULL_TREE_BIT_BUDGET:
        raise BudgetExceededError(
            f"full tree needs wiener_dim * n_steps <= {FULL_TREE_BIT_BUDGET}, "
            f"got {wiener_dim} * {time_grid.n_steps} = {bits}; "
            "use fewer steps or recombining mode"
        )
    k = 2**wiener_dim
    sizes = tuple(k**n for n in range(time_grid.n_steps + 1))
    c = np.arange(k)
    sign_table = np.where((c[:, None] >> np.arange(wiener_dim)[None, :]) & 1, 1.0, -1.0)
    return PathTree(time_grid, wiener_dim, mode, sizes, sign_table)


@dataclass
class AdaptedGridField:
    """Per tree level, the distinct rows a level holds and its node -> row map.

    Used for every adapted quantity (u, q, r, forward states, forcing samples).
    levels[level] stacks the level's rows, which may carry trailing spatial
    and component axes; maps[level] sends node i to row maps[level][i] and
    is None where the rows are already one per node, in node order (the
    default for every level).  field[level] is the node array rows[map].
    """

    levels: list[np.ndarray]
    maps: list | None = None

    def __post_init__(self):
        if self.maps is None:
            self.maps = [None] * len(self.levels)

    def __getitem__(self, level: int) -> np.ndarray:
        rows, inv = self.levels[level], self.maps[level]
        return rows if inv is None else rows[inv]

    def __len__(self) -> int:
        return len(self.levels)

    def at(self, level: int, nodes) -> np.ndarray:
        """The rows of the nodes `nodes` (an index, a slice or an index array) at a level."""
        rows, inv = self.levels[level], self.maps[level]
        return rows[nodes] if inv is None else rows[inv[nodes]]

    def row_map(self, level: int) -> np.ndarray:
        """The node -> row map of a level as an array (arange where rows are per node)."""
        inv = self.maps[level]
        return np.arange(len(self.levels[level])) if inv is None else inv

    def per_node(self, level: int, values: np.ndarray) -> np.ndarray:
        """Per-row values of a level (leading axis = rows) expanded to its nodes."""
        inv = self.maps[level]
        return values if inv is None else values[inv]


def distinct_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted distinct rows of `states` along axis 0 and the node -> row map.

    The map is None when a single row is shared by every node.  Callers
    evaluate once per distinct row and expand with rows[inv].
    """
    rows, inv = np.unique(states, axis=0, return_inverse=True)
    if len(rows) == 1:
        return rows, None
    return rows, np.asarray(inv).reshape(-1)


def row_groups(inv: np.ndarray | None) -> list:
    """(row, node selection) pairs of the rows a node -> row map uses; None selects every node."""
    if inv is None:
        return [(0, slice(None))]
    return [(r, np.flatnonzero(inv == r)) for r in np.unique(inv)]


def first_occurrence_keys(columns: list, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct tuples of per-node integer columns, numbered by first occurrence.

    Returns (reps, inv): reps[j] is the first node holding tuple j, so reps
    ascends, and inv maps node -> tuple.  A None column is constant.
    """
    ids = np.zeros(n_nodes, dtype=np.int64)
    for col in columns:
        if col is None:
            continue
        col = np.asarray(col, dtype=np.int64)
        # pair the ids so far with the column, then renumber densely: every
        # pairing stays below n_nodes * (max + 1)
        _, ids = np.unique(ids * (int(col.max()) + 1) + col, return_inverse=True)
    _, first, inv = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[np.asarray(inv).reshape(-1)]


def node_blocks(n_nodes: int, node_bytes: int) -> list[slice]:
    """Contiguous node ranges covering 0..n_nodes, each at most BLOCK_BYTE_BUDGET bytes.

    node_bytes is what one node of the pass's level field takes; a block
    holds at least one node, and a whole level is the one-block case.
    """
    step = max(1, BLOCK_BYTE_BUDGET // max(1, node_bytes))
    return [slice(i, min(i + step, n_nodes)) for i in range(0, n_nodes, step)]


def level_states(keys, n_nodes: int, node_bytes: int) -> tuple[int, np.ndarray | None, list]:
    """The distinct states a per-level pass visits and the blocks it walks them in.

    keys lists per-node integer columns (None: one shared value); nodes
    holding the same tuple are one state, numbered by first occurrence.
    keys None makes every node its own state without keying.  Returns
    (count, inv, blocks): inv maps node -> state, None when every node is
    its own state; blocks are (rows, nodes) pairs, a range of states and
    their first nodes (the same range when inv is None), each at most
    BLOCK_BYTE_BUDGET bytes at node_bytes a node.
    """
    reps = inv = None
    if keys is not None:
        reps, inv = first_occurrence_keys(keys, n_nodes)
        if reps.size == n_nodes:
            # every node its own state: the first nodes are 0..n_nodes - 1
            reps = inv = None
    count = n_nodes if reps is None else reps.size
    blocks = node_blocks(count, node_bytes)
    return count, inv, [(rows, rows if reps is None else reps[rows]) for rows in blocks]


def _check_level_field(tree: PathTree, field_values: np.ndarray, level: int) -> np.ndarray:
    """The field as float64, its leading size checked against the level's."""
    arr = np.asarray(field_values, dtype=np.float64)
    expected = tree.level_sizes[level]
    if arr.shape[0] != expected:
        raise IncompleteFieldError(
            f"level {level} field has leading size {arr.shape[0]}, expected {expected}"
        )
    return arr


def _check_finite(values: np.ndarray, level: int) -> np.ndarray:
    if not np.isfinite(values).all():
        raise IncompleteFieldError(f"level {level} field contains non-finite values")
    return values


def _children(tree: PathTree, field_next: np.ndarray, level: int, nodes, inv_next=None):
    """Indexed by child c (sign-table order): the next-level values of the c-th children of `nodes`.

    A per-node field is size-checked and read as views; with inv_next, the
    next level's rows are gathered through its node -> row map.  The values
    read are checked finite.
    """
    if inv_next is None:
        arr = _check_level_field(tree, field_next, level + 1)
        kids = [arr[rows] for rows in tree.child_ranges(level, nodes)]
    else:
        kids = np.asarray(field_next, dtype=np.float64)[inv_next[tree.child_table(level, nodes).T]]
    for kid in kids:
        _check_finite(kid, level + 1)
    return kids


def child_values(tree: PathTree, field_next: np.ndarray, node: NodeId) -> np.ndarray:
    """The values on the children of `node` in a next-level field, in sign-table order."""
    return level_children(tree, field_next, node.level, slice(node.index, node.index + 1))[0]


def level_children(
    tree: PathTree, field_next: np.ndarray, level: int, nodes=slice(None), inv_next=None
) -> np.ndarray:
    """Next-level values on the children of `nodes`, shape (nodes, child_count, ...).

    Child c follows the sign table's order, as in PathTree.child_table;
    `nodes` and inv_next are as in level_conditional_expectation.
    """
    return np.stack(_children(tree, field_next, level, nodes, inv_next), axis=1)


def level_conditional_expectation(
    tree: PathTree, field_next: np.ndarray, level: int, nodes=slice(None), inv_next=None
) -> np.ndarray:
    """E[field(t_{n+1}) | node] for the nodes `nodes` at `level`: the child average.

    field_next holds one row per next-level node and `nodes` is a range,
    or, with inv_next, the next level's rows and their node -> row map,
    and `nodes` may be an index array.
    """
    kids = _children(tree, field_next, level, nodes, inv_next)
    # summed in sign-table order, then scaled: the mean over the child axis, bit for bit
    return sum(kids[1:], kids[0]) * (1.0 / tree.child_count)


def level_martingale_representation(
    tree: PathTree, field_next: np.ndarray, level: int, nodes=slice(None), inv_next=None
) -> np.ndarray:
    """E[field(t_{n+1}) dW^k | node] / dt for the nodes `nodes` at `level`; trailing axis k.

    `nodes` and inv_next are as in level_conditional_expectation.  For
    scalar noise this reproduces the field differences across the children
    exactly: field = E + q dW on both children.  For wiener_dim >= 2 the
    residual field - E - q dW is orthogonal to the increments but nonzero.
    """
    kids = _children(tree, field_next, level, nodes, inv_next)
    sq = math.sqrt(tree.time_grid.dt)
    # each layout keeps the rounding its references were made with
    if tree.mode == "full":
        return np.einsum("cn...,ck->n...k", kids, tree.sign_table) * (1.0 / (tree.child_count * sq))
    return ((kids[1] - kids[0]) / (2.0 * sq))[..., None]


def tree_expectation(tree: PathTree, field_values: np.ndarray, level: int | None = None) -> np.ndarray:
    """Probability-weighted expectation of a one-level field.

    If `level` is omitted it is inferred from the leading array size, which is
    unique per level in both modes.
    """
    arr = np.asarray(field_values, dtype=np.float64)
    if level is None:
        matches = [n for n, s in enumerate(tree.level_sizes) if s == arr.shape[0]]
        if len(matches) != 1:
            raise ValueError(
                f"cannot infer level from leading size {arr.shape[0]}; pass level explicitly"
            )
        level = matches[0]
    arr = _check_finite(_check_level_field(tree, arr, level), level)
    p = tree.level_probabilities(level)
    return np.tensordot(p, arr, axes=(0, 0))

