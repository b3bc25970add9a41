"""Backward induction for degenerate linear backward stochastic PDEs.

The unknown pair (u, q) lives on a Bernoulli path tree.  Each sweep step,
leaf level toward the root, does three things per node: the conditional
expectation of the next level gives the predictor, the martingale
representation gives q, and an Euler application of the generator
(explicit or semi-implicit in the second-order part) produces u.

Second-order terms and the sigma-gradient coupling are applied in
divergence form minus a lower-order correction,

    a-part     = div(a grad u) - (div a) . grad u
    sigma-part = div(sigma q)  - (div sigma) . q,

which keeps the same consistency order as the plain forms and makes the
discrete weak form exact: summation by parts against the centred first
difference holds to rounding on the periodic grid, so

    <u_n, eta> - <u_bar, eta>
      = dt * ( -<a grad u + sigma q, grad eta> - eps <grad u, grad eta>
               + <(b - div a) . grad u + c u + (nu - div sigma) . q + f, eta> )

for every test function eta.  weak_form_residual checks exactly this.

Two operator kinds share the machinery:
    "bspde"    the backward equation for (u, q) itself;
    "adjoint"  the formal adjoint generator (divergence-form a, -div(b u),
               -div(sigma q) + nu . q), the costate equation of stochastic
               control.  Central differences make the discrete pairing
               <L phi, psi> = <phi, L* psi> exact, which the duality checks
               rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .coefficients import (
    VERDICT_VIOLATED,
    CoefficientSet,
    ParabolicityError,
    check_parabolicity,
    transformed_drift,
)
from .grid import (
    SpatialGrid,
    axis_derivative,
    batch_divergence,
    batch_gradient,
    component_dot,
    level_norm_sq,
)
from .lattice import (
    AdaptedGridField,
    PathTree,
    TimeGrid,
    build_tree,
    distinct_rows,
    level_conditional_expectation,
    level_martingale_representation,
    row_groups,
)
from .oracles import OracleSolution, exact_level_fields

EXPLICIT = "explicit"
SEMI_IMPLICIT = "semi_implicit"
TIME_STEPPINGS = (EXPLICIT, SEMI_IMPLICIT)

KIND_BSPDE = "bspde"
KIND_ADJOINT = "adjoint"
OPERATOR_KINDS = (KIND_BSPDE, KIND_ADJOINT)


class CflError(RuntimeError):
    """Explicit step size above the stability bound; carries the CflReport."""

    def __init__(self, message: str, report: "CflReport"):
        super().__init__(message)
        self.report = report


class SingularOperatorError(RuntimeError):
    """The semi-implicit linear system could not be factorised."""


class SolverBlowupError(RuntimeError):
    """A backward step produced non-finite values."""


class TransportCflWarning(UserWarning):
    """Semi-implicit run whose step size exceeds the advective bound."""


class StochasticCouplingWarning(UserWarning):
    """dt * max|sigma|^2 / h^2 > 1: the explicit sigma grad q coupling may grow."""


@dataclass(frozen=True)
class SolverConfig:
    """Scheme knobs: viscosity eps, stepping mode, corrector passes, CFL margin."""

    viscosity: float = 0.0
    time_stepping: str = EXPLICIT
    corrector_iterations: int = 1
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.viscosity < 0:
            raise ValueError(f"viscosity must be >= 0, got {self.viscosity}")
        if self.time_stepping not in TIME_STEPPINGS:
            raise ValueError(
                f"time_stepping must be one of {TIME_STEPPINGS}, got {self.time_stepping!r}"
            )
        if int(self.corrector_iterations) != self.corrector_iterations or self.corrector_iterations < 1:
            raise ValueError(
                f"corrector_iterations must be a positive integer, got {self.corrector_iterations}"
            )
        if not (0 < self.cfl_safety <= 1):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")


@dataclass(frozen=True)
class LevelCoefficients:
    """Pre-sampled coefficient arrays for one tree level.

    Each array has a leading axis of U coefficient rows; `inv` maps node
    index to row (None means U = 1, shared by every node).  Used by callers
    whose coefficients depend on per-node state the samplers cannot see,
    e.g. a control policy.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray
    inv: np.ndarray | None = None


@dataclass(frozen=True)
class ProblemData:
    """Everything a backward solve needs: geometry, tree, data, operator kind.

    Terminal data comes either from `terminal(w, grid)` per leaf state or a
    precomputed `terminal_level` array (leaves, *grid).  Forcing likewise:
    a sampler `forcing(t, w, grid)`, or `forcing_level(level) -> (nodes, *grid)`
    or `(1, *grid)`.  `level_coefficients` overrides the coefficient sampling
    per level; parabolicity checking is then the caller's responsibility.
    """

    grid: SpatialGrid
    tree: PathTree
    coefficients: CoefficientSet
    terminal: Callable[[np.ndarray, SpatialGrid], np.ndarray] | None = None
    terminal_level: np.ndarray | None = None
    forcing: Callable[[float, np.ndarray, SpatialGrid], np.ndarray] | None = None
    forcing_w_dependent: bool = False
    forcing_level: Callable[[int], np.ndarray] | None = None
    level_coefficients: Callable[[int], LevelCoefficients] | None = None
    operator_kind: str = KIND_BSPDE

    def __post_init__(self):
        if self.coefficients.dim != self.grid.dim:
            raise ValueError(
                f"coefficient dim {self.coefficients.dim} != grid dim {self.grid.dim}"
            )
        if self.coefficients.wiener_dim != self.tree.wiener_dim:
            raise ValueError(
                f"coefficient wiener_dim {self.coefficients.wiener_dim} "
                f"!= tree wiener_dim {self.tree.wiener_dim}"
            )
        if self.terminal is None and self.terminal_level is None:
            raise ValueError("need terminal sampler or terminal_level array")
        if self.operator_kind not in OPERATOR_KINDS:
            raise ValueError(
                f"operator_kind must be one of {OPERATOR_KINDS}, got {self.operator_kind!r}"
            )


@dataclass
class SolutionPair:
    """Backward solution: u on levels 0..n, q and r on levels 0..n-1.

    r = q + (grad u) sigma node by node (r^k = q^k + sigma^{ik} D_i u).
    meta records dt, h, viscosity, stepping mode, CFL and parabolicity
    diagnostics, and any warnings raised during the sweep.
    """

    u: AdaptedGridField
    q: AdaptedGridField
    r: AdaptedGridField
    meta: dict


@dataclass(frozen=True)
class CflReport:
    """Step-size diagnostics: parabolic and advective bounds, coupling number."""

    dt: float
    dt_parabolic: float
    dt_transport: float
    max_a: float
    max_drift: float
    max_sigma: float
    coupling_indicator: float
    satisfied: bool
    suggested_n_steps: int

    @classmethod
    def from_samples(
        cls, samples, time_grid: TimeGrid, grid: SpatialGrid, viscosity: float, cfl_safety: float
    ) -> "CflReport":
        """Bounds from the coefficient maxima over (a, drift, sigma) samples.

        The parabolic bound is cfl_safety * h^2 / (2 d (viscosity + max|a|)),
        the advective bound cfl_safety * h / max|drift|, and
        coupling_indicator = dt * max|sigma|^2 / h^2.  suggested_n_steps is
        n_steps when the bound holds or is infinite, otherwise the smallest
        step count at or above n_steps that meets it.
        """
        max_a = max_drift = max_sigma = 0.0
        for a, drift, sigma in samples:
            max_a = max(max_a, float(np.abs(a).sum(axis=-1).max()))
            max_drift = max(max_drift, float(np.sqrt((drift**2).sum(axis=-1)).max()))
            max_sigma = max(max_sigma, float(np.sqrt((sigma**2).sum(axis=(-2, -1))).max()))
        dt, h, n = time_grid.dt, grid.h, time_grid.n_steps
        denom = 2.0 * grid.dim * (viscosity + max_a)
        dt_parabolic = cfl_safety * h * h / denom if denom > 0 else math.inf
        dt_transport = cfl_safety * h / max_drift if max_drift > 0 else math.inf
        allowed = min(dt_parabolic, dt_transport)
        satisfied = dt <= allowed * (1.0 + 1e-12)
        if satisfied or math.isinf(allowed):
            suggested = n
        else:
            suggested = max(n, math.ceil(time_grid.horizon / allowed))
        return cls(
            dt=dt,
            dt_parabolic=dt_parabolic,
            dt_transport=dt_transport,
            max_a=max_a,
            max_drift=max_drift,
            max_sigma=max_sigma,
            coupling_indicator=dt * max_sigma**2 / (h * h),
            satisfied=satisfied,
            suggested_n_steps=suggested,
        )


@dataclass(frozen=True)
class WeakFormReport:
    """max_residual: drift defect per unit time, conditional-mean aggregated.

    max_representation_residual is the per-child remainder
    <u_child - u_bar - q . dW, eta>; it vanishes for scalar noise and is
    orthogonal to the increments otherwise.  per_level holds
    (drift, representation) pairs.
    """

    max_residual: float
    max_representation_residual: float
    per_level: list
    n_test_functions: int


@dataclass(frozen=True)
class ContinuationResult:
    """Vanishing-viscosity record: solutions and consecutive Cauchy gaps.

    u_gaps[i] = sup over levels of sqrt(E ||u^{eps_i} - u^{eps_{i+1}}||_{m1,2}^2),
    r_gaps[i] = sum_n dt E ||r^{eps_i} - r^{eps_{i+1}}||_{m1,2}^2.
    aborted_at is the schedule index whose solve failed, None if all ran.
    """

    eps_schedule: tuple
    u_gaps: list
    r_gaps: list
    solutions: list | None
    n_solved: int
    aborted_at: int | None = None
    failure: str = ""


@dataclass(frozen=True)
class OracleResidualReport:
    """Worst per-step defect of an exact solution pushed through one step."""

    residual: float
    constant: float
    dt: float
    h: float


# -- per-level coefficient data ------------------------------------------------


@dataclass
class _LevelData:
    """Sampled coefficients (U unique rows + node->row map) and forcing."""

    t: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray
    diva: np.ndarray
    divsigma: np.ndarray
    inv: np.ndarray | None
    f: np.ndarray

    def groups(self):
        return row_groups(self.inv, self.a.shape[0])


def _divergences(a: np.ndarray, sigma: np.ndarray, grid: SpatialGrid):
    """(div a)_i = sum_j D_j a^{ij} and (div sigma)_k = sum_i D_i sigma^{ik}.

    Arrays carry a leading batch axis, so grid axes start at 1.
    """
    d, h = grid.dim, grid.h
    diva = np.zeros(a.shape[:-1])
    for j in range(d):
        diva += axis_derivative(a[..., j], 1, 1 + j, h)
    divsigma = np.zeros(sigma.shape[:-2] + sigma.shape[-1:])
    for i in range(d):
        divsigma += axis_derivative(sigma[..., i, :], 1, 1 + i, h)
    return diva, divsigma


def _build_level_data(problem: ProblemData, level: int) -> _LevelData:
    tree, grid = problem.tree, problem.grid
    coeffs = problem.coefficients
    t = float(tree.time_grid.time(level))
    n_nodes = tree.level_sizes[level]

    if problem.level_coefficients is not None:
        lc = problem.level_coefficients(level)
        a, b, c, sig, nu = (np.asarray(x, dtype=np.float64) for x in (lc.a, lc.b, lc.c, lc.sigma, lc.nu))
        inv = None if lc.inv is None else np.asarray(lc.inv, dtype=np.intp)
        rows = a.shape[0]
        if any(arr.shape[0] != rows for arr in (b, c, sig, nu)):
            raise ValueError(f"level {level}: coefficient row counts disagree")
        if inv is not None:
            if inv.shape != (n_nodes,):
                raise ValueError(
                    f"level {level}: inv has shape {inv.shape}, expected ({n_nodes},)"
                )
            if inv.min() < 0 or inv.max() >= rows:
                raise ValueError(f"level {level}: inv references a missing row")
        elif rows != 1:
            raise ValueError(f"level {level}: {rows} rows but no inv map")
    else:
        # W-free coefficients are the one-row case, sampled at W = 0
        w = tree.level_w(level) if coeffs.w_dependent else np.zeros((1, tree.wiener_dim))
        states, inv = distinct_rows(w)
        smps = [coeffs.sample(t, row, grid) for row in states]
        a = np.stack([s.a for s in smps])
        b = np.stack([s.b for s in smps])
        c = np.stack([s.c for s in smps])
        sig = np.stack([s.sigma for s in smps])
        nu = np.stack([s.nu for s in smps])

    diva, divsigma = _divergences(a, sig, grid)
    f = _forcing_array(problem, level)

    return _LevelData(t=t, a=a, b=b, c=c, sigma=sig, nu=nu, diva=diva, divsigma=divsigma, inv=inv, f=f)


def _forcing_array(problem: ProblemData, level: int) -> np.ndarray:
    """The level's forcing, (nodes, *grid) or (1, *grid); samples no coefficient."""
    tree, grid = problem.tree, problem.grid
    t = float(tree.time_grid.time(level))
    n_nodes = tree.level_sizes[level]
    if problem.forcing_level is not None:
        f = np.asarray(problem.forcing_level(level), dtype=np.float64)
        if f.shape not in ((1,) + grid.shape, (n_nodes,) + grid.shape):
            raise ValueError(
                f"level {level}: forcing_level shape {f.shape} fits neither "
                f"{(1,) + grid.shape} nor {(n_nodes,) + grid.shape}"
            )
    elif problem.forcing is None:
        f = np.zeros((1,) + grid.shape)
    else:
        w = tree.level_w(level) if problem.forcing_w_dependent else np.zeros((1, tree.wiener_dim))
        states, inv = distinct_rows(w)
        f = np.stack([np.asarray(problem.forcing(t, row, grid), dtype=np.float64) for row in states])
        if inv is not None:
            f = f[inv]
    if f.shape[1:] != grid.shape:
        raise ValueError(f"level {level}: forcing grid shape {f.shape[1:]} != {grid.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"level {level}: forcing contains non-finite values")
    return f


# -- differential pieces ---------------------------------------------------------

# batched fields: axis 0 = nodes, axes 1..d = grid, trailing axes = components

_grad = batch_gradient
_div = batch_divergence


def _second_order_part(u, row, ld: _LevelData, grid, eps, kind, du=None):
    """div(a grad u) [- (div a) . grad u for the primal kind] + eps Laplacian.

    du is grad u when the caller has it already.  The Laplacian is div grad,
    the composition of centred first differences the sparse operator uses.
    """
    if du is None:
        du = _grad(u, grid)
    flux = component_dot(ld.a[row], du[..., None, :])
    out = _div(flux, grid)
    if eps:
        out = out + eps * _div(du, grid)
    if kind == KIND_BSPDE:
        out = out - component_dot(ld.diva[row], du)
    return out


def _first_order_part(u, row, ld: _LevelData, grid, kind, du):
    """b . grad u + c u for the primal kind (du = grad u), -div(b u) + c u for the adjoint."""
    if kind == KIND_BSPDE:
        out = component_dot(ld.b[row], du)
    else:
        out = -_div(ld.b[row] * u[..., None], grid)
    return out + ld.c[row] * u


def _q_part(q, row, ld: _LevelData, grid, kind):
    sflux = component_dot(ld.sigma[row], q[..., None, :])
    out = _div(sflux, grid)
    if kind == KIND_BSPDE:
        out = out - component_dot(ld.divsigma[row], q)
    else:
        out = -out
    return out + component_dot(ld.nu[row], q)


@dataclass(frozen=True)
class _ImplicitPattern:
    """CSC structure of the second-order operator A and the map that fills it.

    A = sum_ij S_i diag(a_ij) S_j [- sum_i diag(div a)_i S_i for the primal
    kind], with S_i the centred first difference along axis i.  Each stencil
    block (field, at, inner, outer) adds outer * (coef[field, at] * inner)
    to the CSC entries `slots` of the same index, where coef stacks the a_ij
    fields, then the div a components, on the flattened grid.
    """

    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray
    blocks: tuple
    slots: np.ndarray


@lru_cache(maxsize=8)
def _implicit_pattern(grid: SpatialGrid, kind: str) -> _ImplicitPattern:
    d, m = grid.dim, grid.size
    c = 1.0 / (2.0 * grid.h)
    pos = np.indices(grid.shape).reshape(d, m)
    here = np.arange(m, dtype=np.int32)

    def shifted(*steps):
        moved = pos.copy()
        for axis, sign in steps:
            moved[axis] += sign
        return np.ravel_multi_index(moved, grid.shape, mode="wrap").astype(np.int32)

    blocks, cols = [], []
    for i in range(d):
        for s1 in (1, -1):
            mid = shifted((i, s1))
            for j in range(d):
                for s2 in (1, -1):
                    blocks.append((i * d + j, mid, s2 * c, s1 * c))
                    cols.append(shifted((i, s1), (j, s2)))
    if kind == KIND_BSPDE:
        for i in range(d):
            for s in (1, -1):
                blocks.append((d * d + i, here, s * c, -1.0))
                cols.append(shifted((i, s)))

    key = np.concatenate(cols).astype(np.int64) * m + np.tile(here, len(cols))
    entries, slots = np.unique(key, return_inverse=True)
    entry_col, indices = np.divmod(entries, m)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(entry_col, minlength=m))])
    indices, indptr = indices.astype(np.int32), indptr.astype(np.int32)
    indices.flags.writeable = indptr.flags.writeable = False
    return _ImplicitPattern(
        indices=indices,
        indptr=indptr,
        diag=np.flatnonzero(indices == entry_col),
        blocks=tuple(blocks),
        slots=slots.reshape(len(cols), m).astype(np.int32),
    )


def _implicit_data(ld: _LevelData, grid: SpatialGrid, eps: float, kind: str):
    """Pattern and CSC data of A for every coefficient row: data has shape (U, nnz).

    The eps Laplacian enters as eps added to the diagonal of a.
    """
    pattern = _implicit_pattern(grid, kind)
    d, m = grid.dim, grid.size
    rows = ld.a.shape[0]
    a = np.broadcast_to(ld.a, (rows,) + grid.shape + (d, d))
    if eps:
        a = a + eps * np.eye(d)
    fields = [a.reshape(rows, m, d * d)]
    if kind == KIND_BSPDE:
        fields.append(np.broadcast_to(ld.diva, (rows,) + grid.shape + (d,)).reshape(rows, m, d))
    coef = np.concatenate(fields, axis=2).transpose(0, 2, 1)
    data = np.zeros((rows, pattern.indices.size))
    for (field, at, inner, outer), slots in zip(pattern.blocks, pattern.slots):
        data[:, slots] += outer * (coef[:, field, at] * inner)
    return pattern, data


def _constant_a(ld: _LevelData, grid: SpatialGrid) -> np.ndarray | None:
    """The level's a as (U, d, d) when every row is constant over the grid, else None."""
    d = grid.dim
    a = ld.a.reshape(ld.a.shape[0], -1, d, d)
    return a[:, 0] if np.all(a == a[:, :1]) else None


def _fourier_symbol(grid: SpatialGrid, a: np.ndarray, eps: float, dt: float) -> np.ndarray:
    """rfftn symbol of I - dt A for constant rows a (U, d, d): shape (U, *spectrum).

    S_j maps exp(i k.x) to i sin(k_j h) / h times itself, so S_i a_ij S_j has
    symbol -a_ij sin(k_i h) sin(k_j h) / h^2; div a vanishes.
    """
    d = grid.dim
    sines = []
    for axis in range(d):
        freq = np.fft.rfftfreq(grid.points) if axis == d - 1 else np.fft.fftfreq(grid.points)
        shape = [1] * (1 + d)
        shape[1 + axis] = freq.size
        sines.append((np.sin(2.0 * np.pi * freq) / grid.h).reshape(shape))
    a = (a + eps * np.eye(d)).reshape((-1,) + (1,) * d + (d, d))
    symbol = sum(a[..., i, j] * sines[i] * sines[j] for i in range(d) for j in range(d))
    return 1.0 + dt * symbol


def _fourier_solve(symbol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    axes = tuple(range(1, rhs.ndim))
    spectrum = np.fft.rfftn(rhs, axes=axes)
    spectrum /= symbol
    return np.fft.irfftn(spectrum, s=rhs.shape[1:], axes=axes)


def _lu_solve(factor, rhs: np.ndarray) -> np.ndarray:
    block = rhs.reshape(rhs.shape[0], -1)
    return factor.solve(block.T).T.reshape(rhs.shape)


def _level_solvers(cache: dict, problem: ProblemData, config: SolverConfig, ld: _LevelData, level: int):
    """Solvers of I - dt A, one per coefficient row: (nodes, *grid) -> (nodes, *grid).

    In 2D with a constant over the grid on every row, I - dt A is circulant
    and each row is solved by FFT.  Otherwise each row gets its LU factors;
    in 1D the banded LU already costs O(M) per right-hand side.  Constant
    coefficients share one set (key -1) for the whole sweep.  Otherwise a
    new level drops the previous level's solvers, so one level's factors at
    most are alive.
    """
    coeffs = problem.coefficients
    varying = (
        coeffs.time_dependent
        or coeffs.w_dependent
        or problem.level_coefficients is not None
    )
    key = level if varying else -1
    if key not in cache:
        cache.clear()
        grid = problem.grid
        dt = problem.tree.time_grid.dt
        a = _constant_a(ld, grid) if grid.dim == 2 else None
        if a is not None:
            symbols = _fourier_symbol(grid, a, config.viscosity, dt)
            for row, symbol in enumerate(symbols):
                if not np.all(np.isfinite(symbol) & (symbol != 0)):
                    raise SingularOperatorError(
                        f"implicit symbol vanishes or is not finite at level {level} (row {row}); "
                        f"dt = {dt}, viscosity = {config.viscosity}"
                    )
            cache[key] = [partial(_fourier_solve, symbol) for symbol in symbols]
        else:
            cache[key] = [partial(_lu_solve, f) for f in _level_lu(problem, config, ld, level)]
    return cache[key]


def _level_lu(problem: ProblemData, config: SolverConfig, ld: _LevelData, level: int) -> list:
    """LU factors of I - dt A, one per coefficient row of the level."""
    grid = problem.grid
    dt = problem.tree.time_grid.dt
    pattern, data = _implicit_data(ld, grid, config.viscosity, problem.operator_kind)
    data *= -dt
    data[:, pattern.diag] += 1.0
    # one matrix, its data swapped per row: SuperLU copies what it
    # factorises, and a matrix built per row re-validates the same pattern
    shared = sparse.csc_matrix(
        (data[0], pattern.indices, pattern.indptr), shape=(grid.size, grid.size)
    )
    factors = []
    for row, row_data in enumerate(data):
        shared.data = row_data
        system = shared
        if not row_data.all():
            # store no zeros, as a sparse-product assembly would
            system = shared.copy()
            system.eliminate_zeros()
        try:
            factors.append(splu(system))
        except RuntimeError as exc:
            raise SingularOperatorError(
                f"implicit factorisation failed at level {level} (row {row}): {exc}; "
                f"dt = {dt}, viscosity = {config.viscosity}"
            ) from exc
    return factors


def _advance_level(problem, config, ld: _LevelData, ubar, q, level, lu_cache):
    """One backward Euler application; returns (u_n, last explicit-part field)."""
    grid = problem.grid
    dt = problem.tree.time_grid.dt
    kind = problem.operator_kind
    eps = config.viscosity
    semi = config.time_stepping == SEMI_IMPLICIT
    groups = ld.groups()
    solvers = _level_solvers(lu_cache, problem, config, ld, level) if semi else None

    qf = np.empty_like(ubar)
    for row, sel in groups:
        qf[sel] = _q_part(q[sel], row, ld, grid, kind)
    qf = qf + ld.f

    u_cur = ubar
    star = ubar
    for _ in range(config.corrector_iterations):
        star = u_cur
        expl = np.empty_like(ubar)
        for row, sel in groups:
            u = star[sel]
            # one gradient serves both parts; the adjoint first-order part takes none
            du = _grad(u, grid) if kind == KIND_BSPDE or not semi else None
            part = _first_order_part(u, row, ld, grid, kind, du)
            if not semi:
                part = part + _second_order_part(u, row, ld, grid, eps, kind, du)
            expl[sel] = part
        rhs = ubar + dt * (expl + qf)
        if not semi:
            u_cur = rhs
        else:
            u_new = np.empty_like(ubar)
            for row, sel in groups:
                u_new[sel] = solvers[row](rhs[sel])
            u_cur = u_new
    if not np.all(np.isfinite(u_cur)):
        raise SolverBlowupError(
            f"non-finite values after the step at level {level}; "
            "check the CFL report and the stochastic coupling indicator"
        )
    return u_cur, star


# -- step-size analysis ----------------------------------------------------------


def estimate_cfl(problem: ProblemData, config: SolverConfig | None = None) -> CflReport:
    """Parabolic and advective step bounds from coefficient maxima.

    Coefficients are probed at the first, middle and last step levels.  The
    advective bound uses the transformed drift for the primal kind and b
    itself for the adjoint; CflReport.from_samples states the bounds.
    """
    config = config or SolverConfig()
    tree, grid = problem.tree, problem.grid
    n = tree.n_steps

    def samples():
        for level in sorted({0, n // 2, max(n - 1, 0)}):
            ld = _build_level_data(problem, level)
            if problem.operator_kind == KIND_ADJOINT:
                drift = ld.b
            else:
                drift = transformed_drift(ld.b, ld.sigma, ld.nu, grid.h)
            yield ld.a, drift, ld.sigma

    return CflReport.from_samples(samples(), tree.time_grid, grid, config.viscosity, config.cfl_safety)


# -- the backward sweep ----------------------------------------------------------


def _terminal_values(problem: ProblemData) -> np.ndarray:
    tree, grid = problem.tree, problem.grid
    n_leaves = tree.level_sizes[tree.n_steps]
    if problem.terminal_level is not None:
        arr = np.asarray(problem.terminal_level, dtype=np.float64)
        if arr.shape != (n_leaves,) + grid.shape:
            raise ValueError(
                f"terminal_level shape {arr.shape}, expected {(n_leaves,) + grid.shape}"
            )
        return arr
    states, inv = distinct_rows(tree.level_w(tree.n_steps))
    rows = []
    for wrow in states:
        val = np.asarray(problem.terminal(wrow, grid), dtype=np.float64)
        if val.shape != grid.shape:
            raise ValueError(f"terminal sample shape {val.shape} != {grid.shape}")
        rows.append(val)
    rows = np.stack(rows)
    return rows if inv is None else rows[inv]


def parabolicity_probes(coefficients: CoefficientSet, tree: PathTree) -> list:
    """The (t, W) states a solve checks 2a - sigma sigma^T on before sweeping.

    W = 0 at t = 0, T/2 and T; when the coefficients read W, also the first
    and last leaf states at T/2.
    """
    horizon = tree.time_grid.horizon
    zero = np.zeros(tree.wiener_dim)
    samples = [(0.0, zero), (0.5 * horizon, zero), (horizon, zero)]
    if coefficients.w_dependent:
        leaf_w = tree.level_w(tree.n_steps)
        samples += [(0.5 * horizon, leaf_w[0]), (0.5 * horizon, leaf_w[-1])]
    return samples


def _parabolicity_precheck(problem: ProblemData, config: SolverConfig):
    samples = parabolicity_probes(problem.coefficients, problem.tree)
    report = check_parabolicity(problem.coefficients, problem.grid, samples=samples)
    if report.verdict == VERDICT_VIOLATED:
        raise ParabolicityError(
            f"2a - sigma sigma^T has eigenvalue {report.min_eigenvalue:.3e} "
            f"below tolerance; witness {report.witness}"
        )
    return report


def solve(problem: ProblemData, config: SolverConfig | None = None) -> SolutionPair:
    """Full backward sweep from the leaves to the root.

    Preconditions: degenerate parabolicity of the sampled coefficients
    (skipped when level_coefficients overrides sampling), and the explicit
    CFL bounds when stepping explicitly.  Superparabolicity with margin
    2 * viscosity comes for free from the added eps Laplacian, and the
    effective margin is recorded in meta.
    """
    config = config or SolverConfig()
    tree, grid = problem.tree, problem.grid
    n = tree.n_steps
    dt = tree.time_grid.dt

    para = None
    if problem.level_coefficients is None:
        para = _parabolicity_precheck(problem, config)
    cfl = estimate_cfl(problem, config)

    warns: list[str] = []
    if config.time_stepping == EXPLICIT:
        if not cfl.satisfied:
            raise CflError(
                f"dt = {dt:.3e} exceeds the explicit bound "
                f"min({cfl.dt_parabolic:.3e}, {cfl.dt_transport:.3e}); "
                f"use >= {cfl.suggested_n_steps} steps or semi_implicit stepping",
                cfl,
            )
    elif dt > cfl.dt_transport * (1.0 + 1e-12):
        msg = (
            f"dt = {dt:.3e} exceeds the advective bound {cfl.dt_transport:.3e}; "
            "the implicit step damps only the second-order part"
        )
        warnings.warn(msg, TransportCflWarning)
        warns.append(msg)
    if cfl.coupling_indicator > 1.0:
        msg = (
            f"stochastic coupling indicator {cfl.coupling_indicator:.2f} > 1: "
            "the explicit sigma grad q term may amplify; refine dt or coarsen the grid"
        )
        warnings.warn(msg, StochasticCouplingWarning)
        warns.append(msg)

    u_levels: list = [None] * (n + 1)
    q_levels: list = [None] * n
    r_levels: list = [None] * n
    u_levels[n] = _terminal_values(problem)
    lu_cache: dict = {}

    for level in range(n - 1, -1, -1):
        ubar = level_conditional_expectation(tree, u_levels[level + 1], level)
        q = level_martingale_representation(tree, u_levels[level + 1], level)
        ld = _build_level_data(problem, level)
        u, _ = _advance_level(problem, config, ld, ubar, q, level, lu_cache)
        r = np.empty_like(q)
        for row, sel in ld.groups():
            du = _grad(u[sel], grid)
            r[sel] = q[sel] + component_dot(ld.sigma[row], du[..., :, None], axis=-2)
        u_levels[level] = u
        q_levels[level] = q
        r_levels[level] = r

    meta = {
        "dt": dt,
        "h": grid.h,
        "viscosity": config.viscosity,
        "time_stepping": config.time_stepping,
        "corrector_iterations": config.corrector_iterations,
        "cfl_safety": config.cfl_safety,
        "operator_kind": problem.operator_kind,
        "n_steps": n,
        "tree_mode": tree.mode,
        "coupling_indicator": cfl.coupling_indicator,
        "cfl": {
            "dt_parabolic": cfl.dt_parabolic,
            "dt_transport": cfl.dt_transport,
            "max_a": cfl.max_a,
            "max_drift": cfl.max_drift,
            "max_sigma": cfl.max_sigma,
            "satisfied": cfl.satisfied,
            "suggested_n_steps": cfl.suggested_n_steps,
        },
        "parabolicity": None
        if para is None
        else {
            "verdict": para.verdict,
            "min_eigenvalue": para.min_eigenvalue,
            "delta": para.delta,
        },
        "effective_delta": (para.delta if para is not None else 0.0) + 2.0 * config.viscosity,
        "warnings": warns,
    }
    return SolutionPair(
        u=AdaptedGridField(u_levels),
        q=AdaptedGridField(q_levels),
        r=AdaptedGridField(r_levels),
        meta=meta,
    )


# -- weak-form verification -------------------------------------------------------


def default_test_functions(grid: SpatialGrid, count: int = 3, seed: int = 0) -> list[np.ndarray]:
    """Smooth bump products supported strictly inside the box, peak value 1."""
    rng = np.random.Generator(np.random.Philox(seed))
    coords = grid.coordinates()
    r = grid.half_width
    out = []
    for _ in range(count):
        centre = rng.uniform(-0.5 * r, 0.5 * r, size=grid.dim)
        width = rng.uniform(0.25 * r, 0.45 * r, size=grid.dim)
        eta = np.ones(grid.shape)
        for axis in range(grid.dim):
            s2 = ((coords[axis] - centre[axis]) / width[axis]) ** 2
            bump = np.zeros(grid.shape)
            inside = s2 < 1.0
            bump[inside] = np.exp(1.0 + 1.0 / (s2[inside] - 1.0))
            eta = eta * bump
        out.append(eta)
    return out


def weak_form_residual(
    solution: SolutionPair, problem: ProblemData, test_functions: list[np.ndarray]
) -> WeakFormReport:
    """Defect of the stored solution in the summation-by-parts weak form.

    Per node and test function eta the drift residual is

        | <u_n - u_bar, eta> / dt
          + <a grad u* + sigma q + eps grad u*, grad eta>
          - <b . grad u' + c u' - (div a) . grad u* + (nu - div sigma) . q + f, eta> |
        / max(1, ||eta||)

    where u* is the field the second-order part acted on (u_n when stepping
    semi-implicitly) and u' the field the first-order part acted on.  The
    per-child representation remainder is reported separately; conditional
    averaging over children removes it along with the q dW pairing.
    """
    if problem.operator_kind != KIND_BSPDE:
        raise ValueError("the weak form is stated for the primal operator kind")
    meta = solution.meta
    config = SolverConfig(
        viscosity=meta["viscosity"],
        time_stepping=meta["time_stepping"],
        corrector_iterations=meta["corrector_iterations"],
        cfl_safety=meta["cfl_safety"],
    )
    tree, grid = problem.tree, problem.grid
    d, dt = grid.dim, tree.time_grid.dt
    vol = grid.cell_volume
    gaxes = tuple(range(1, 1 + d))
    semi = config.time_stepping == SEMI_IMPLICIT

    etas = [np.asarray(e, dtype=np.float64) for e in test_functions]
    if not etas:
        raise ValueError("need at least one test function")
    eta_info = []
    for eta in etas:
        if eta.shape != grid.shape:
            raise ValueError(f"test function shape {eta.shape} != {grid.shape}")
        geta = _grad(eta[None], grid)[0]
        scale = max(1.0, math.sqrt(float(np.sum(eta**2)) * vol))
        eta_info.append((eta, geta, scale))

    lu_cache: dict = {}
    per_level = []
    max_drift = 0.0
    max_rep = 0.0
    sq = math.sqrt(dt)
    for level in range(tree.n_steps):
        u_next = solution.u[level + 1]
        u_n = solution.u[level]
        q = solution.q[level]
        ubar = level_conditional_expectation(tree, u_next, level)
        ld = _build_level_data(problem, level)
        if config.corrector_iterations > 1:
            _, star = _advance_level(problem, config, ld, ubar, q, level, lu_cache)
        else:
            star = ubar
        istar = u_n if semi else star

        flux = np.empty(u_n.shape + (d,))
        low = np.empty_like(u_n)
        for row, sel in ld.groups():
            du_i = _grad(istar[sel], grid)
            du_e = du_i if istar is star else _grad(star[sel], grid)
            flux[sel] = component_dot(ld.a[row], du_i[..., None, :]) + component_dot(
                ld.sigma[row], q[sel][..., None, :]
            )
            low[sel] = (
                component_dot(ld.b[row], du_e)
                + ld.c[row] * star[sel]
                - component_dot(ld.diva[row], du_i)
                + component_dot(ld.nu[row] - ld.divsigma[row], q[sel])
            )
        if config.viscosity:
            flux = flux + config.viscosity * _grad(istar, grid)
        low = low + ld.f

        lvl_drift = 0.0
        for eta, geta, scale in eta_info:
            pairing = (
                -np.sum(flux * geta, axis=gaxes + (1 + d,))
                + np.sum(low * eta, axis=gaxes)
            ) * vol
            lhs = (np.sum((u_n - ubar) * eta, axis=gaxes)) * vol / dt
            lvl_drift = max(lvl_drift, float(np.abs(lhs - pairing).max() / scale))

        if tree.mode == "full":
            k = tree.child_count
            shaped = u_next.reshape((tree.level_sizes[level], k) + u_next.shape[1:])
            pred = ubar[:, None] + np.einsum("n...k,ck->nc...", q, tree.sign_table) * sq
            rep = shaped - pred
        else:
            down = u_next[:-1] - (ubar - q[..., 0] * sq)
            up = u_next[1:] - (ubar + q[..., 0] * sq)
            rep = np.stack([down, up], axis=1)
        lvl_rep = 0.0
        rep_axes = tuple(range(2, 2 + d))
        for eta, _, scale in eta_info:
            ip = np.abs(np.sum(rep * eta, axis=rep_axes)) * vol
            lvl_rep = max(lvl_rep, float(ip.max() / scale))

        per_level.append((lvl_drift, lvl_rep))
        max_drift = max(max_drift, lvl_drift)
        max_rep = max(max_rep, lvl_rep)

    return WeakFormReport(
        max_residual=max_drift,
        max_representation_residual=max_rep,
        per_level=per_level,
        n_test_functions=len(etas),
    )


# -- vanishing viscosity -----------------------------------------------------------


def viscosity_continuation(
    problem: ProblemData,
    eps_schedule,
    config: SolverConfig | None = None,
    m1: int = 0,
    keep_solutions: bool = True,
) -> ContinuationResult:
    """Solve along a strictly decreasing positive viscosity schedule.

    Consecutive solutions are compared in the W^{m1,2} norm; the gaps
    shrinking is the discrete shadow of the weak-limit construction that
    removes the viscosity.  A failing solve aborts the sweep and leaves a
    partial result with `aborted_at` set.
    """
    base = config or SolverConfig()
    eps_list = [float(e) for e in eps_schedule]
    if not eps_list:
        raise ValueError("eps_schedule is empty")
    if any(e <= 0 for e in eps_list):
        raise ValueError(f"eps_schedule must be positive, got {eps_list}")
    if any(y >= x for x, y in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps_schedule must be strictly decreasing, got {eps_list}")

    tree, grid = problem.tree, problem.grid
    dt = tree.time_grid.dt
    solutions: list[SolutionPair] = []
    aborted_at = None
    failure = ""
    for i, eps in enumerate(eps_list):
        try:
            solutions.append(solve(problem, replace(base, viscosity=eps)))
        except Exception as exc:
            aborted_at = i
            failure = f"{type(exc).__name__}: {exc}"
            break

    u_gaps = []
    r_gaps = []
    for s0, s1 in zip(solutions, solutions[1:]):
        gap = 0.0
        for level in range(tree.n_steps + 1):
            p = tree.level_probabilities(level)
            sq_norms = level_norm_sq(s0.u[level] - s1.u[level], grid, m1)
            gap = max(gap, math.sqrt(float(np.sum(p * sq_norms))))
        u_gaps.append(gap)
        acc = 0.0
        for level in range(tree.n_steps):
            p = tree.level_probabilities(level)
            sq_norms = level_norm_sq(s0.r[level] - s1.r[level], grid, m1)
            acc += dt * float(np.sum(p * sq_norms))
        r_gaps.append(acc)

    return ContinuationResult(
        eps_schedule=tuple(eps_list),
        u_gaps=u_gaps,
        r_gaps=r_gaps,
        solutions=solutions if keep_solutions else None,
        n_solved=len(solutions),
        aborted_at=aborted_at,
        failure=failure,
    )


def level_forcing(problem: ProblemData, level: int) -> np.ndarray:
    """The forcing array the sweep uses at a level: (nodes, *grid) or (1, *grid)."""
    return _forcing_array(problem, level)


# -- oracle hooks -------------------------------------------------------------------


def problem_from_oracle(oracle: OracleSolution, tree: PathTree) -> ProblemData:
    """Wrap an oracle's data as a solvable problem on the given tree."""
    if abs(tree.time_grid.horizon - oracle.horizon) > 1e-12:
        raise ValueError(
            f"tree horizon {tree.time_grid.horizon} != oracle horizon {oracle.horizon}"
        )
    return ProblemData(
        grid=oracle.grid,
        tree=tree,
        coefficients=oracle.coefficients,
        terminal=oracle.terminal,
        forcing=oracle.forcing,
    )


def oracle_step_residual(
    oracle: OracleSolution,
    n_steps: int,
    mode: str = "recombining",
    config: SolverConfig | None = None,
) -> OracleResidualReport:
    """Push the exact solution through single backward steps and measure the defect.

    residual = max over levels of sqrt(E ||u_exact - step(u_exact_next)||^2) / dt,
    which a first-order scheme keeps at C (dt + h^2); `constant` is that C.
    """
    tree = build_tree(TimeGrid(oracle.horizon, n_steps), oracle.coefficients.wiener_dim, mode)
    problem = problem_from_oracle(oracle, tree)
    config = config or SolverConfig()
    grid = oracle.grid
    dt = tree.time_grid.dt
    lu_cache: dict = {}
    worst = 0.0
    u_next, _ = exact_level_fields(oracle, tree, n_steps)
    for level in range(n_steps - 1, -1, -1):
        ubar = level_conditional_expectation(tree, u_next, level)
        q = level_martingale_representation(tree, u_next, level)
        ld = _build_level_data(problem, level)
        u_step, _ = _advance_level(problem, config, ld, ubar, q, level, lu_cache)
        u_ex, _ = exact_level_fields(oracle, tree, level)
        p = tree.level_probabilities(level)
        defect = math.sqrt(float(np.sum(p * level_norm_sq(u_step - u_ex, grid, 0))))
        worst = max(worst, defect / dt)
        u_next = u_ex
    return OracleResidualReport(
        residual=worst, constant=worst / (dt + grid.h**2), dt=dt, h=grid.h
    )
