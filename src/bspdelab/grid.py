"""Periodic finite-difference calculus on a uniform box grid.

The box [-R, R)^d (d = 1 or 2) is sampled at M points per axis with periodic
wrap, so every difference stencil is a circular convolution and summation by
parts against the centred first difference is exact: <D f, g> = -<f, D g> to
machine precision.  That exactness is what the weak-form and duality checks
elsewhere lean on, so the stencils here are the single source of truth.

Per-axis canonical stencils (order <= 3):
    order 1: (f[i+1] - f[i-1]) / (2h)
    order 2: (f[i+1] - 2 f[i] + f[i-1]) / h^2
    order 3: (f[i+2] - 2 f[i+1] + 2 f[i-1] - f[i-2]) / (2 h^3)

Multi-index derivatives compose the per-axis stencils axis by axis; cross
derivatives therefore commute (up to rounding) because circular convolutions
commute.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from itertools import product

import numpy as np

from .lattice import node_blocks

MAX_DERIVATIVE_ORDER = 3

TOL_PSD = 1e-10
TOL_DENOMINATOR = 1e-12


class DerivativeCapError(ValueError):
    """Multi-index beyond the supported stencil order."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [-R, R)^d with M points per axis."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 8 or self.points % 2 != 0:
            raise ValueError(f"points must be even and >= 8, got {self.points}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_coordinates(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.points)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays of shape `self.shape`, one per axis."""
        ax = self.axis_coordinates()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))


# stencil taps as (offset, weight) pairs; divide by h**order after summing
_STENCILS: dict[int, tuple[tuple[int, float], ...]] = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def axis_derivative(field: np.ndarray, order: int, axis: int, h: float) -> np.ndarray:
    """Apply the canonical per-axis stencil of the given order along `axis`.

    Each tap writes weight * field[i + off] into a fresh array as two slices,
    the body and the periodically wrapped edge; the taps are then summed in
    place in stencil order.
    """
    if order == 0:
        return field
    if order not in _STENCILS:
        raise DerivativeCapError(
            f"per-axis derivative order {order} exceeds cap {MAX_DERIVATIVE_ORDER}"
        )
    field = np.asarray(field)
    axis = axis % field.ndim
    m = field.shape[axis]
    lead = (slice(None),) * axis
    acc = None
    for off, weight in _STENCILS[order]:
        s = off % m
        term = np.empty(field.shape, dtype=np.result_type(weight, field))
        np.multiply(weight, field[lead + (slice(s, None),)], out=term[lead + (slice(0, m - s),)])
        np.multiply(weight, field[lead + (slice(0, s),)], out=term[lead + (slice(m - s, None),)])
        if acc is None:
            acc = term
        else:
            acc += term
    acc /= h**order
    return acc


def check_multi_index(alpha: tuple[int, ...], dim: int) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has negative entries")
    if sum(alpha) > MAX_DERIVATIVE_ORDER:
        raise DerivativeCapError(
            f"|alpha| = {sum(alpha)} exceeds cap {MAX_DERIVATIVE_ORDER} for {alpha}"
        )
    return alpha


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_order, sorted by total order."""
    out = [a for a in product(range(max_order + 1), repeat=dim) if sum(a) <= max_order]
    out.sort(key=lambda a: (sum(a), a))
    return out


def diff(field: np.ndarray, alpha: tuple[int, ...], grid: SpatialGrid) -> np.ndarray:
    """D^alpha field; the grid axes are the leading `grid.dim` axes of `field`.

    Trailing component axes (vector fields) are differentiated elementwise.
    """
    alpha = check_multi_index(alpha, grid.dim)
    out = np.asarray(field, dtype=np.float64)
    for axis, order in enumerate(alpha):
        out = axis_derivative(out, order, axis, grid.h)
    return out


def inner_product(f: np.ndarray, g: np.ndarray, grid: SpatialGrid) -> float:
    """L2 pairing sum(f * g) * h^d; component axes of vector fields are summed too."""
    return float(np.sum(np.asarray(f) * np.asarray(g)) * grid.cell_volume)


def sobolev_norm(field: np.ndarray, grid: SpatialGrid, m: int, p: float = 2.0) -> float:
    """Discrete W^{m,p} norm: all derivatives of total order <= m, p-th powers.

    Vector fields (trailing component axes) contribute each component's
    derivative magnitudes to the same sum.
    """
    if m < 0 or m > MAX_DERIVATIVE_ORDER:
        raise DerivativeCapError(f"m = {m} outside [0, {MAX_DERIVATIVE_ORDER}]")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    total = 0.0
    for alpha in multi_indices(grid.dim, m):
        d = diff(field, alpha, grid)
        total += float(np.sum(np.abs(d) ** p))
    return (total * grid.cell_volume) ** (1.0 / p)


def batch_gradient(field: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Centred gradient of a batched field (batch, *grid.shape, ...) -> (..., dim).

    The batch axis leads, so grid axes start at 1; trailing component axes
    pass through and the derivative axis is appended last.
    """
    return np.stack(
        [axis_derivative(field, 1, 1 + i, grid.h) for i in range(grid.dim)], axis=-1
    )


def component_dot(x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """sum_k x[..., k, ...] * y[..., k, ...] over the short component `axis`.

    `axis` is negative, counted from the end, since x and y broadcast against
    each other over their leading (node and grid) axes.  The component axes
    (d, d' <= 2) are far too short for einsum to pay off, so this loops over
    them and accumulates in index order; the result is bitwise equal to the
    matching einsum.  The three contractions in use:
        m . v     component_dot(m, v[..., None, :])           ("...ij,...j->...i")
        m^T . v   component_dot(m, v[..., :, None], axis=-2)  ("...ik,...i->...k")
        x . y     component_dot(x, y)                         ("...i,...i->...")
    """
    tail = (slice(None),) * (-1 - axis)
    out = x[(..., 0) + tail] * y[(..., 0) + tail]
    for k in range(1, x.shape[axis]):
        out += x[(..., k) + tail] * y[(..., k) + tail]
    return out


def batch_divergence(field: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Centred divergence over the trailing axis of a batched vector field."""
    out = axis_derivative(field[..., 0], 1, 1, grid.h)
    for i in range(1, grid.dim):
        out = out + axis_derivative(field[..., i], 1, 1 + i, grid.h)
    return out


def level_derivatives(arr: np.ndarray, grid: SpatialGrid, m: int):
    """Yield D^alpha arr for every |alpha| <= m, in `multi_indices` order.

    `arr` has shape (batch, *grid.shape, ...): grid axes follow the leading
    batch axis and trailing component axes are differentiated elementwise.
    """
    if m < 0 or m > MAX_DERIVATIVE_ORDER:
        raise DerivativeCapError(f"m = {m} outside [0, {MAX_DERIVATIVE_ORDER}]")
    arr = np.asarray(arr, dtype=np.float64)
    for alpha in multi_indices(grid.dim, m):
        d = arr
        for axis, order in enumerate(alpha):
            d = axis_derivative(d, order, 1 + axis, grid.h)
        yield d


def level_norm_sq(arr: np.ndarray, grid: SpatialGrid, m: int) -> np.ndarray:
    """Squared W^{m,2} norms over a batch: `arr` has shape (batch, *grid.shape, ...).

    Grid axes follow the leading batch axis; any trailing component axes are
    summed into the same norm.  Returns one squared norm per batch entry,
    differentiating the batch in node blocks (lattice.node_blocks).
    """
    arr = np.asarray(arr)
    reduce_axes = tuple(range(1, arr.ndim))
    total = np.zeros(arr.shape[0])
    for nodes in node_blocks(arr.shape[0], arr[:1].nbytes):
        for d in level_derivatives(arr[nodes], grid, m):
            total[nodes] += np.sum(d * d, axis=reduce_axes)
    return total * grid.cell_volume


def random_smooth_field(
    grid: SpatialGrid, max_mode: int, seed: int, amplitude: float = 1.0
) -> np.ndarray:
    """Seeded random real trigonometric polynomial, modes up to max_mode per axis.

    Uses a counter-based generator so identical (grid, seed) always reproduce
    the same field bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    coords = grid.coordinates()
    base = np.pi / grid.half_width
    out = np.zeros(grid.shape)
    mode_range = range(-max_mode, max_mode + 1)
    for kvec in product(mode_range, repeat=grid.dim):
        amp = rng.normal() * amplitude
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if all(k == 0 for k in kvec):
            out += amp
            continue
        arg = sum(base * k * x for k, x in zip(kvec, coords))
        out += amp * np.cos(arg + phase)
    return out


# -- serialization ------------------------------------------------------------

_BINARY_HEADER = struct.Struct("<qqd")  # dim, points, half_width


def write_field_binary(path, field: np.ndarray, grid: SpatialGrid) -> None:
    """Compact dump: little-endian header (d, M, R) then float64 values, C order."""
    arr = np.ascontiguousarray(field, dtype="<f8")
    if arr.shape != grid.shape:
        raise ValueError(f"field shape {arr.shape} does not match grid {grid.shape}")
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(grid.dim, grid.points, grid.half_width))
        fh.write(arr.tobytes())


def read_field_binary(path) -> tuple[np.ndarray, SpatialGrid]:
    with open(path, "rb") as fh:
        head = fh.read(_BINARY_HEADER.size)
        dim, points, half_width = _BINARY_HEADER.unpack(head)
        grid = SpatialGrid(dim, half_width, points)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != grid.size:
        raise ValueError(f"expected {grid.size} values, found {data.size}")
    return data.reshape(grid.shape).copy(), grid


def write_field_csv(path, field: np.ndarray, grid: SpatialGrid) -> None:
    """One row per grid point: coordinates first, then the value(s)."""
    arr = np.asarray(field)
    comps = arr.shape[grid.dim :]
    n_comp = int(np.prod(comps)) if comps else 1
    coords = grid.coordinates()
    header = [f"x{j + 1}" for j in range(grid.dim)]
    header += ["value"] if n_comp == 1 else [f"value_{k + 1}" for k in range(n_comp)]
    flat_coords = [c.reshape(-1) for c in coords]
    flat_vals = arr.reshape(grid.size, n_comp)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(grid.size):
            row = [repr(float(c[i])) for c in flat_coords]
            row += [repr(float(v)) for v in flat_vals[i]]
            writer.writerow(row)


def read_field_csv(path, grid: SpatialGrid) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_comp = len(header) - grid.dim
        vals = [[float(v) for v in row[grid.dim :]] for row in reader]
    arr = np.asarray(vals)
    if arr.shape[0] != grid.size:
        raise ValueError(f"expected {grid.size} rows, found {arr.shape[0]}")
    if n_comp == 1:
        return arr.reshape(grid.shape)
    return arr.reshape(grid.shape + (n_comp,))
