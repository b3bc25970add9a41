"""Closed-form reference solutions used to calibrate the backward solver.

Two families:

  * heat: deterministic smoothing u(t) = exp(a (T - t) Lap) phi computed by
    FFT on the periodic box, with q identically zero.  Exercises the second
    order spatial operator and the time stepper in isolation.

  * wiener_linear: a genuinely stochastic pair on d = d' = 1,

        u(t, x) = W_t h(t, x) + m(t, x),   q(t, x) = h(t, x),

    solving du = -(a u_xx + s q_x) dt + q dW, u(T) = W_T g, where in Fourier
    space h_hat(t, k) = exp(-a k^2 (T-t)) g_hat(k) and
    m_hat(t, k) = s (T-t) (i k) g_hat(k) exp(-a k^2 (T-t)).

Both produce a coefficient set, a forcing, a terminal map and exact (t, W)
field evaluators, so a numeric run can be scored against them node by node.
exact_level_fields gives a tree level's exact pair as distinct rows plus a
node -> row map; solution_error and solver.oracle_step_residual key their
walks by that map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet, constant_sampler
from .grid import SpatialGrid
from .lattice import AdaptedGridField, PathTree, level_states

TerminalMap = Callable[[np.ndarray, SpatialGrid], np.ndarray]


def _wavenumbers(grid: SpatialGrid) -> list[np.ndarray]:
    # angular wavenumbers pi*m/R for m in [-M/2, M/2)
    return [2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.h) for _ in range(grid.dim)]


def _laplace_symbol(grid: SpatialGrid) -> np.ndarray:
    ks = _wavenumbers(grid)
    out = np.zeros(grid.shape)
    for axis, k in enumerate(ks):
        shape = [1] * grid.dim
        shape[axis] = grid.points
        out = out + (k.reshape(shape)) ** 2
    return out


@dataclass(frozen=True)
class OracleSolution:
    """Exact (u, q) pair plus the problem ingredients that generate it.

    `exact_fields(t, w_rows)` evaluates the pair for a batch of Wiener
    states w_rows (U, d') at once: u (U, *grid) and q (U, *grid, d').
    An oracle that is not w_dependent is evaluated at W = 0 alone.
    """

    name: str
    grid: SpatialGrid
    horizon: float
    coefficients: CoefficientSet
    terminal: TerminalMap
    exact_fields: Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]]
    forcing: Callable[[float, np.ndarray, SpatialGrid], np.ndarray] | None = None
    w_dependent: bool = True


def heat_oracle(
    grid: SpatialGrid,
    horizon: float,
    diffusion: float = 0.5,
    terminal_field: np.ndarray | None = None,
    wiener_dim: int = 1,
) -> OracleSolution:
    """Backward heat semigroup on the box; q = 0, noise never enters.

    Default terminal is cos(x1) + 0.5 cos(2 x1) (times cos(x2) bumps in 2d),
    chosen smooth and mean-free enough to exercise several Fourier modes.
    """
    if terminal_field is None:
        coords = grid.coordinates()
        scale = np.pi / grid.half_width
        terminal_field = np.cos(scale * coords[0]) + 0.5 * np.cos(2.0 * scale * coords[0])
        if grid.dim == 2:
            terminal_field = terminal_field * (1.0 + 0.5 * np.cos(scale * coords[1]))
    phi = np.asarray(terminal_field, dtype=np.float64)
    if phi.shape != grid.shape:
        raise ValueError(f"terminal field has shape {phi.shape}, expected {grid.shape}")
    sym = _laplace_symbol(grid)
    phi_hat = np.fft.fftn(phi)
    T = float(horizon)

    def exact_fields(t: float, w_rows: np.ndarray):
        # one field for every Wiener state: noise never enters
        rows = len(w_rows)
        u = np.fft.ifftn(phi_hat * np.exp(-diffusion * sym * (T - t))).real
        return np.broadcast_to(u, (rows,) + grid.shape), np.zeros((rows,) + grid.shape + (wiener_dim,))

    d = grid.dim
    eye = np.eye(d) * diffusion
    coeffs = CoefficientSet(
        dim=d,
        wiener_dim=wiener_dim,
        a=constant_sampler(eye, (d, d)),
        sigma=None,
        w_dependent=False,
        periodic=True,
        name="heat",
    )

    def terminal(w: np.ndarray, g: SpatialGrid) -> np.ndarray:
        return phi.copy()

    return OracleSolution(
        name="heat",
        grid=grid,
        horizon=T,
        coefficients=coeffs,
        terminal=terminal,
        exact_fields=exact_fields,
        w_dependent=False,
    )


def wiener_linear_oracle(
    grid: SpatialGrid,
    horizon: float,
    diffusion: float = 0.5,
    transport: float = 1.0,
    profile: np.ndarray | None = None,
) -> OracleSolution:
    """Wiener-affine exact pair on d = d' = 1; degenerate when 2a = s^2.

    With the defaults a = 1/2, s = 1 and g = cos on half_width pi the pair is
    u = W_t e^{-(T-t)/2} cos x + (t - T) e^{-(T-t)/2} sin x, q = e^{-(T-t)/2} cos x.
    """
    if grid.dim != 1:
        raise ValueError("wiener_linear oracle is one dimensional")
    if profile is None:
        profile = np.cos((np.pi / grid.half_width) * grid.axis_coordinates())
    g = np.asarray(profile, dtype=np.float64)
    if g.shape != grid.shape:
        raise ValueError(f"profile has shape {g.shape}, expected {grid.shape}")
    k = _wavenumbers(grid)[0]
    g_hat = np.fft.fft(g)
    T = float(horizon)
    a, s = float(diffusion), float(transport)

    def h_field(t: float) -> np.ndarray:
        return np.fft.ifft(g_hat * np.exp(-a * k**2 * (T - t))).real

    def m_field(t: float) -> np.ndarray:
        return np.fft.ifft(s * (T - t) * 1j * k * g_hat * np.exp(-a * k**2 * (T - t))).real

    def exact_fields(t: float, w_rows: np.ndarray):
        h = h_field(t)
        return w_rows[:, :1] * h + m_field(t), np.broadcast_to(h[:, None], (len(w_rows),) + h.shape + (1,))

    coeffs = CoefficientSet(
        dim=1,
        wiener_dim=1,
        a=constant_sampler(np.array([[a]]), (1, 1)),
        sigma=constant_sampler(np.array([[s]]), (1, 1)),
        w_dependent=False,
        periodic=True,
        name="wiener-linear",
    )

    def terminal(w: np.ndarray, gr: SpatialGrid) -> np.ndarray:
        return float(np.asarray(w).reshape(-1)[0]) * g

    return OracleSolution(
        name="wiener_linear",
        grid=grid,
        horizon=T,
        coefficients=coeffs,
        terminal=terminal,
        exact_fields=exact_fields,
    )


# -- scoring a numeric run against an oracle -----------------------------------


def exact_level_fields(
    oracle: OracleSolution, tree: PathTree, level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's u and q rows at a tree level and the node -> row map.

    The oracle evaluates the level's distinct Wiener states in one batch,
    or W = 0 alone, one row for every node, when it is not w_dependent.
    The map is always an array: node i's pair is u[inv[i]], q[inv[i]].
    """
    t = tree.time_grid.time(level)
    if oracle.w_dependent:
        states, inv = np.unique(tree.level_w(level), axis=0, return_inverse=True)
    else:
        states = np.zeros((1, tree.wiener_dim))
        inv = np.zeros(tree.level_sizes[level], dtype=np.intp)
    u_rows, q_rows = oracle.exact_fields(t, states)
    return u_rows, q_rows, inv.reshape(-1)


def solution_error(
    u_levels: AdaptedGridField, q_levels: AdaptedGridField, tree: PathTree, oracle: OracleSolution
) -> dict:
    """Error norms of a numeric pair against the oracle.

    Returns u_sup_error = max_n sqrt(E ||u_n - u*_n||_{L2}^2), the analogous
    q_sup_error, and q_integrated_error = sqrt(sum_n dt E ||q_n - q*_n||^2).
    u_level_errors and q_level_errors list the per-level terms
    sqrt(E ||u_n - u*_n||_{L2}^2) and sqrt(E ||q_n - q*_n||_{L2}^2), one per
    level of u_levels and of q_levels.  Each distinct (u row, q row, exact
    row) triple of a level is scored once (lattice.level_states), and a
    level whose u holds one row per node is walked unkeyed.
    """
    grid = oracle.grid
    vol = grid.cell_volume
    dt = tree.time_grid.dt
    comp_axes_u = tuple(range(1, 1 + grid.dim))
    q_axes = comp_axes_u + (1 + grid.dim,)
    u_sup = 0.0
    q_sup = 0.0
    q_int = 0.0
    u_level_errors = []
    q_level_errors = []
    for level in range(tree.n_steps + 1):
        p = tree.level_probabilities(level)
        u_ex, q_ex, ex_inv = exact_level_fields(oracle, tree, level)
        has_q = level < len(q_levels)
        keys = None
        if u_levels.maps[level] is not None:
            keys = [u_levels.maps[level], q_levels.row_map(level) if has_q else None, ex_inv]
        count, inv, blocks = level_states(keys, tree.level_sizes[level], u_ex[:1].nbytes)
        u_sq, q_sq = np.empty(count), np.empty(count)
        for rows, nodes in blocks:
            du = u_levels.at(level, nodes) - u_ex[ex_inv[nodes]]
            u_sq[rows] = np.sum(du**2, axis=comp_axes_u)
            if has_q:
                dq = q_levels.at(level, nodes) - q_ex[ex_inv[nodes]]
                q_sq[rows] = np.sum(dq**2, axis=q_axes)
        if inv is not None:
            u_sq, q_sq = u_sq[inv], q_sq[inv]
        # per-node sums, weighted in node order
        u_ms = float(np.sum(p * u_sq * vol))
        u_level_errors.append(float(np.sqrt(u_ms)))
        u_sup = max(u_sup, np.sqrt(u_ms))
        if has_q:
            q_ms = float(np.sum(p * q_sq * vol))
            q_level_errors.append(float(np.sqrt(q_ms)))
            q_sup = max(q_sup, np.sqrt(q_ms))
            q_int += dt * q_ms
    return {
        "u_sup_error": u_sup,
        "q_sup_error": q_sup,
        "q_integrated_error": float(np.sqrt(q_int)),
        "u_level_errors": u_level_errors,
        "q_level_errors": q_level_errors,
    }


def convergence_constant(error: float, dt: float, h: float) -> float:
    """error / (dt + h^2), the constant a first-order-in-time scheme should keep bounded."""
    return error / (dt + h * h)
