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

The level operators read the children of a contiguous node range only, so
callers walk a level in blocks (node_blocks) and never need this layout.
A level stored as distinct rows plus a node -> row map (AdaptedGridField)
is read through the map: level_child_rows gives each node's child rows,
and the same operators then take any set of nodes.
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

    def children(self, node: NodeId) -> list[NodeId]:
        self.validate_node(node)
        if node.level >= self.n_steps:
            raise ValueError(f"node at terminal level {node.level} has no children")
        if self.mode == "full":
            base = node.index * self.child_count
        else:
            base = node.index
        return [NodeId(node.level + 1, base + c) for c in range(self.child_count)]

    def increments(self) -> np.ndarray:
        """Child increment vectors, shape (child_count, wiener_dim)."""
        return self.sign_table * math.sqrt(self.time_grid.dt)

    def level_w(self, level: int) -> np.ndarray:
        """Accumulated Wiener states at a level, shape (size, wiener_dim)."""
        if not (0 <= level <= self.n_steps):
            raise ValueError(f"level {level} outside [0, {self.n_steps}]")
        sq = math.sqrt(self.time_grid.dt)
        if self.mode == "recombining":
            i = np.arange(level + 1, dtype=np.float64)
            return ((2.0 * i - level) * sq)[:, None]
        # full mode: decode the sign history from the node index
        idx = np.arange(self.level_sizes[level], dtype=np.int64)
        w = np.zeros((self.level_sizes[level], self.wiener_dim))
        shift = idx
        for step in range(level - 1, -1, -1):
            c = shift % self.child_count
            shift = shift // self.child_count
            w += self.sign_table[c] * sq
        return w

    def w_at(self, node: NodeId) -> np.ndarray:
        self.validate_node(node)
        sq = math.sqrt(self.time_grid.dt)
        if self.mode == "recombining":
            return np.array([(2.0 * node.index - node.level) * sq])
        w = np.zeros(self.wiener_dim)
        shift = node.index
        for _ in range(node.level):
            c = shift % self.child_count
            shift //= self.child_count
            w += self.sign_table[c] * sq
        return w

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


def level_child_rows(tree: PathTree, inv_next: np.ndarray, level: int) -> np.ndarray:
    """Rows of the children of every node at `level`, shape (nodes, child_count).

    inv_next is the next level's node -> row map; child c follows the sign
    table's order, as in child_values.
    """
    if tree.mode == "full":
        return inv_next.reshape(tree.level_sizes[level], tree.child_count)
    return np.stack([inv_next[:-1], inv_next[1:]], axis=1)


def node_blocks(n_nodes: int, node_bytes: int) -> list[slice]:
    """Contiguous node ranges covering 0..n_nodes, each at most BLOCK_BYTE_BUDGET bytes.

    node_bytes is what one node of the pass's level field takes; a block
    holds at least one node, and a whole level is the one-block case.
    """
    step = max(1, BLOCK_BYTE_BUDGET // max(1, node_bytes))
    return [slice(i, min(i + step, n_nodes)) for i in range(0, n_nodes, step)]


def _check_level_field(
    tree: PathTree, field_values: np.ndarray, level: int, rows: slice = slice(None)
) -> np.ndarray:
    """The field as float64, its size checked and its `rows` checked finite."""
    arr = np.asarray(field_values, dtype=np.float64)
    expected = tree.level_sizes[level]
    if arr.shape[0] != expected:
        raise IncompleteFieldError(
            f"level {level} field has leading size {arr.shape[0]}, expected {expected}"
        )
    if not np.all(np.isfinite(arr[rows])):
        raise IncompleteFieldError(f"level {level} field contains non-finite values")
    return arr


def child_values(tree: PathTree, field_next: np.ndarray, node: NodeId) -> np.ndarray:
    """Slice the values on the children of `node` out of a next-level field."""
    arr = _check_level_field(tree, field_next, node.level + 1)
    k = tree.child_count
    base = node.index * k if tree.mode == "full" else node.index
    return arr[base : base + k]


def _children(tree: PathTree, field_next: np.ndarray, level: int, nodes, inv_next=None):
    """The next-level values the children of `nodes` (at `level`) hold.

    Full trees: (nodes, k, ...).  Recombining: the (down, up) pair of
    arrays, each (nodes, ...).  With inv_next, field_next holds the next
    level's rows and inv_next its node -> row map, and `nodes` may be an
    index array; otherwise field_next holds one row per node and `nodes` is
    a range, whose children i*k..j*k-1 (full) or states i..j (recombining)
    are read in place.  The size of a per-node field is checked, and the
    finiteness of the values read.
    """
    if inv_next is not None:
        kids = np.asarray(field_next, dtype=np.float64)[level_child_rows(tree, inv_next, level)[nodes]]
        if not np.all(np.isfinite(kids)):
            raise IncompleteFieldError(f"level {level + 1} field contains non-finite values")
        return kids if tree.mode == "full" else (kids[:, 0], kids[:, 1])
    start, stop, _ = nodes.indices(tree.level_sizes[level])
    if tree.mode == "recombining":
        rows = slice(start, stop + 1)
        kids = _check_level_field(tree, field_next, level + 1, rows)[rows]
        return kids[:-1], kids[1:]
    k = tree.child_count
    rows = slice(start * k, stop * k)
    arr = _check_level_field(tree, field_next, level + 1, rows)
    return arr[rows].reshape((stop - start, k) + arr.shape[1:])


def level_children(
    tree: PathTree, field_next: np.ndarray, level: int, nodes=slice(None), inv_next=None
) -> np.ndarray:
    """Next-level values on the children of `nodes`, shape (nodes, child_count, ...).

    Child c follows the sign table's order, as in child_values; `nodes`
    and inv_next are as in level_conditional_expectation.
    """
    kids = _children(tree, field_next, level, nodes, inv_next)
    if tree.mode == "full":
        return kids
    return np.stack(kids, axis=1)


def level_conditional_expectation(
    tree: PathTree, field_next: np.ndarray, level: int, nodes=slice(None), inv_next=None
) -> np.ndarray:
    """E[field(t_{n+1}) | node] for the nodes `nodes` at `level`: the child average.

    field_next holds one row per next-level node and `nodes` is a range,
    or, with inv_next, the next level's rows and their node -> row map,
    and `nodes` may be an index array.
    """
    kids = _children(tree, field_next, level, nodes, inv_next)
    if tree.mode == "full":
        return kids.mean(axis=1)
    down, up = kids
    return 0.5 * (down + up)


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
    dt = tree.time_grid.dt
    if tree.mode == "full":
        scale = 1.0 / (tree.child_count * math.sqrt(dt))
        return np.einsum("nc...,ck->n...k", kids, tree.sign_table) * scale
    down, up = kids
    q = (up - down) / (2.0 * math.sqrt(dt))
    return q[..., None]


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
    arr = _check_level_field(tree, arr, level)
    p = tree.level_probabilities(level)
    return np.tensordot(p, arr, axes=(0, 0))

