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
        """Exact node probabilities at a level (dyadic weights)."""
        size = self.level_sizes[level]
        if self.mode == "full":
            return np.full(size, 1.0 / size)
        n = level
        weights = np.array([math.comb(n, i) for i in range(n + 1)], dtype=np.float64)
        return weights * 0.5**n

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
    """One array per tree level; entry [level][node_index, ...] is the field value.

    Used for every adapted quantity (u, q, r, forward states, forcing samples).
    The per-level arrays may carry trailing spatial and component axes.
    """

    levels: list[np.ndarray]

    def __getitem__(self, level: int) -> np.ndarray:
        return self.levels[level]

    def __len__(self) -> int:
        return len(self.levels)


def distinct_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted distinct rows of `states` along axis 0 and the node -> row map.

    The map is None when a single row is shared by every node.  Callers
    evaluate once per distinct row and expand with rows[inv].
    """
    rows, inv = np.unique(states, axis=0, return_inverse=True)
    if len(rows) == 1:
        return rows, None
    return rows, np.asarray(inv).reshape(-1)


def row_groups(inv: np.ndarray | None, n_rows: int) -> list:
    """(row, node selection) pairs of a node -> row map; None selects every node."""
    if inv is None:
        return [(0, slice(None))]
    return [(r, np.flatnonzero(inv == r)) for r in range(n_rows)]


def _check_level_field(tree: PathTree, field_values: np.ndarray, level: int) -> np.ndarray:
    arr = np.asarray(field_values, dtype=np.float64)
    expected = tree.level_sizes[level]
    if arr.shape[0] != expected:
        raise IncompleteFieldError(
            f"level {level} field has leading size {arr.shape[0]}, expected {expected}"
        )
    if not np.all(np.isfinite(arr)):
        raise IncompleteFieldError(f"level {level} field contains non-finite values")
    return arr


def child_values(tree: PathTree, field_next: np.ndarray, node: NodeId) -> np.ndarray:
    """Slice the values on the children of `node` out of a next-level field."""
    arr = _check_level_field(tree, field_next, node.level + 1)
    k = tree.child_count
    base = node.index * k if tree.mode == "full" else node.index
    return arr[base : base + k]


def level_conditional_expectation(tree: PathTree, field_next: np.ndarray, level: int) -> np.ndarray:
    """E[field(t_{n+1}) | node] for every node at `level`: the equal-weight child average."""
    arr = _check_level_field(tree, field_next, level + 1)
    if tree.mode == "full":
        k = tree.child_count
        shaped = arr.reshape((tree.level_sizes[level], k) + arr.shape[1:])
        return shaped.mean(axis=1)
    return 0.5 * (arr[:-1] + arr[1:])


def level_martingale_representation(tree: PathTree, field_next: np.ndarray, level: int) -> np.ndarray:
    """E[field(t_{n+1}) dW^k | node] / dt for every node at `level`; trailing axis k.

    For scalar noise this reproduces the field differences across the children
    exactly: field = E + q dW on both children.  For wiener_dim >= 2 the
    residual field - E - q dW is orthogonal to the increments but nonzero.
    """
    arr = _check_level_field(tree, field_next, level + 1)
    dt = tree.time_grid.dt
    if tree.mode == "full":
        k = tree.child_count
        shaped = arr.reshape((tree.level_sizes[level], k) + arr.shape[1:])
        scale = 1.0 / (k * math.sqrt(dt))
        return np.einsum("nc...,ck->n...k", shaped, tree.sign_table) * scale
    q = (arr[1:] - arr[:-1]) / (2.0 * math.sqrt(dt))
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

