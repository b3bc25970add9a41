"""Backward induction for degenerate linear backward stochastic PDEs.

The unknown pair (u, q) lives on a Bernoulli path tree.  Each sweep step,
leaf level toward the root, does three things per node: the conditional
expectation of the next level gives the predictor, the martingale
representation gives q, and an Euler application of the generator
(explicit or semi-implicit in the second-order part) produces u.  Nodes
with the same inputs (children's values, coefficients and forcing) get
the same (u, q), so each level steps its distinct states once.  A level
stores u alone: q is fixed by the next level's u, and is rebuilt on read.
The sweep, the weak form, the continuation gaps and the oracle step
residual all walk a level through lattice.level_states; the passes that
read a node's children key it by their rows too (_level_states).

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

for every test function eta.  Given test functions, the sweep checks
exactly this as it steps each level (solve), and weak_form_residual checks
it on a stored solution.

Two operator kinds share the machinery:
    "bspde"    the backward equation for (u, q) itself;
    "adjoint"  the formal adjoint generator (divergence-form a, -div(b u),
               -div(sigma q) + nu . q), the costate equation of stochastic
               control.  Central differences make the discrete pairing
               <L phi, psi> = <phi, L* psi> exact, which the duality checks
               rely on.

scipy is loaded on the first factorisation.  A 1D level's banded LU
(band_lu) loads only scipy's f2py LAPACK extension, scipy.linalg._flapack,
and not the scipy.linalg package around it (_flapack): about 2.4 MiB
resident and 3 ms, where importing scipy.linalg.lapack takes about
25.6 MiB and 0.18 s (2 cores, Python 3.11, scipy 1.17).  A 2D level with
varying a imports scipy.sparse for its SuperLU factors (splu).  Explicit
runs and 2D constant-a semi-implicit runs, which solve by FFT, load
neither.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable

import numpy as np

from .coefficients import (
    CoefficientSet,
    check_parabolicity,
    sample_rows,
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
    WORKSPACE_BYTE_BUDGET,
    AdaptedGridField,
    BudgetExceededError,
    PathTree,
    TimeGrid,
    build_tree,
    first_occurrence_keys,
    level_children,
    level_conditional_expectation,
    level_martingale_representation,
    level_states,
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
    """dt * max|sigma|^2 / h^2 > 1: the explicit sigma-gradient noise term may grow."""


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
    """Coefficient arrays (a, b, c, sigma, nu) for one tree level.

    Each array has a leading axis of U coefficient rows; `inv` maps node
    index to row (None means U = 1, shared by every node).  The sweep builds
    one per level from one CoefficientSet.sample call at the level's
    distinct Wiener rows; callers whose coefficients depend on
    per-node state the samplers cannot see, e.g. a control policy, pass
    their own through ProblemData.level_coefficients.  ProblemData.forcing_level
    returns (rows, inv) under the same map convention.
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

    Terminal data comes from `terminal(w, grid)` per leaf state.  Forcing
    comes from a sampler `forcing(t, w, grid)`, sampled like a coefficient
    (a `rows` method takes all of a level's Wiener rows at once, and only a
    forcing_w_dependent sampler is read at W other than 0), or from
    `forcing_level(level) -> (rows, inv)`: rows (U, *grid) and the node ->
    row map of LevelCoefficients (None: U = 1, one row for every node).
    `level_coefficients` overrides the coefficient sampling per level;
    parabolicity checking is then the caller's responsibility.
    """

    grid: SpatialGrid
    tree: PathTree
    coefficients: CoefficientSet
    terminal: Callable[[np.ndarray, SpatialGrid], np.ndarray] | None = None
    forcing: Callable[[float, np.ndarray, SpatialGrid], np.ndarray] | None = None
    forcing_w_dependent: bool = False
    forcing_level: Callable[[int], tuple[np.ndarray, np.ndarray | None]] | None = None
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
        if self.terminal is None:
            raise ValueError("need a terminal sampler")
        if self.operator_kind not in OPERATOR_KINDS:
            raise ValueError(
                f"operator_kind must be one of {OPERATOR_KINDS}, got {self.operator_kind!r}"
            )


@dataclass
class SolutionPair:
    """Backward solution: u on levels 0..n, q and r on levels 0..n-1.

    Each level holds its distinct states: u, q and r share the level's
    node -> row map (AdaptedGridField), and u[level] gives the node array.
    A level stores u's rows.  q and r are TransformedFields, which build
    the rows a reader asks for, == the rows the sweep took.  q's
    rows are the martingale representation of u[level + 1] at each row's
    first node (the level keeps those nodes, or none where every node is
    its own row).  r = q + (grad u) sigma node by node
    (r^k = q^k + sigma^{ik} D_i u): a level stores r's rows only where
    they take no more bytes than the level's sigma rows, elsewhere keeps
    the sigma rows and computes r from u, q and sigma, and where sigma = 0
    reads q's rows.  Treat the stored arrays as read-only.
    meta records dt, h, viscosity, stepping mode, CFL and
    parabolicity diagnostics, the stored rows per level (level_rows), and
    any warnings raised during the sweep.  weak_form is the WeakFormReport
    the sweep took when solve was given test functions, None otherwise.
    """

    u: AdaptedGridField
    q: TransformedField
    r: TransformedField
    meta: dict
    weak_form: WeakFormReport | None = None


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

    def enforce(self, explicit: bool, alternative: str = "", term: str = "sigma grad q") -> list[str]:
        """The one step-size check; returns the warning messages it issued.

        Raises CflError for an explicit step above the bound, suggesting
        suggested_n_steps or `alternative`.  Warns on the advective bound
        when not explicit, and on a coupling indicator above 1, naming the
        caller's explicit noise `term`.
        """
        warns = []
        if explicit and not self.satisfied:
            also = f" or {alternative}" if alternative else ""
            raise CflError(
                f"dt = {self.dt:.3e} exceeds the explicit bound "
                f"min({self.dt_parabolic:.3e}, {self.dt_transport:.3e}); "
                f"use >= {self.suggested_n_steps} steps{also}",
                self,
            )
        if not explicit and self.dt > self.dt_transport * (1.0 + 1e-12):
            msg = (
                f"dt = {self.dt:.3e} exceeds the advective bound {self.dt_transport:.3e}; "
                "the implicit step damps only the second-order part"
            )
            warnings.warn(msg, TransportCflWarning)
            warns.append(msg)
        if self.coupling_indicator > 1.0:
            msg = (
                f"stochastic coupling indicator {self.coupling_indicator:.2f} > 1: "
                f"the explicit {term} term may amplify; refine dt or coarsen the grid"
            )
            warnings.warn(msg, StochasticCouplingWarning)
            warns.append(msg)
        return warns


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


def _given_level_coefficients(problem: ProblemData, level: int) -> LevelCoefficients:
    """The caller's `level_coefficients(level)`, as float arrays, checked against the tree."""
    lc = problem.level_coefficients(level)
    a, b, c, sig, nu = (np.asarray(x, dtype=np.float64) for x in (lc.a, lc.b, lc.c, lc.sigma, lc.nu))
    rows = a.shape[0]
    if any(arr.shape[0] != rows for arr in (b, c, sig, nu)):
        raise ValueError(f"level {level}: coefficient row counts disagree")
    return LevelCoefficients(a=a, b=b, c=c, sigma=sig, nu=nu, inv=_given_row_map(problem, level, lc.inv, rows))


def _given_row_map(problem: ProblemData, level: int, inv, rows: int) -> np.ndarray | None:
    """A caller's node -> row map into `rows` rows at a level, checked against the tree."""
    if inv is None:
        if rows != 1:
            raise ValueError(f"level {level}: {rows} rows but no inv map")
        return None
    inv = np.asarray(inv, dtype=np.intp)
    n_nodes = problem.tree.level_sizes[level]
    if inv.shape != (n_nodes,):
        raise ValueError(f"level {level}: inv has shape {inv.shape}, expected ({n_nodes},)")
    if inv.min() < 0 or inv.max() >= rows:
        raise ValueError(f"level {level}: inv references a missing row")
    return inv


def _wiener_states(tree: PathTree, level: int, w_dependent: bool):
    """tree.level_states(level) for data that read W, else W = 0 alone: one row for every node."""
    return tree.level_states(level) if w_dependent else (np.zeros((1, tree.wiener_dim)), None)


def _level_coefficients(problem: ProblemData, level: int) -> LevelCoefficients:
    """The caller's override if set, else one sampled row per distinct Wiener state."""
    if problem.level_coefficients is not None:
        return _given_level_coefficients(problem, level)
    tree, coeffs = problem.tree, problem.coefficients
    t = float(tree.time_grid.time(level))
    states, inv = _wiener_states(tree, level, coeffs.w_dependent)
    smp = coeffs.sample(t, states, problem.grid)
    return LevelCoefficients(a=smp.a, b=smp.b, c=smp.c, sigma=smp.sigma, nu=smp.nu, inv=inv)


def level_forcing(problem: ProblemData, level: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The forcing the sweep uses at a level: rows (U, *grid) and the node -> row map.

    The map is None when one row serves every node, as in LevelCoefficients;
    node i's forcing is rows[inv[i]] (_rows_at).  A forcing_level pair is
    checked as a level_coefficients map is.  Samples no coefficient.
    """
    tree, grid = problem.tree, problem.grid
    if problem.forcing_level is not None:
        f, inv = problem.forcing_level(level)
        f = np.asarray(f, dtype=np.float64)
        inv = _given_row_map(problem, level, inv, f.shape[0])
    elif problem.forcing is None:
        f, inv = np.zeros((1,) + grid.shape), None
    else:
        states, inv = _wiener_states(tree, level, problem.forcing_w_dependent)
        f = sample_rows(problem.forcing, float(tree.time_grid.time(level)), states, grid)
    if f.shape[1:] != grid.shape:
        raise ValueError(f"level {level}: forcing grid shape {f.shape[1:]} != {grid.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"level {level}: forcing contains non-finite values")
    return f, inv


def _rows_at(rows: np.ndarray, inv: np.ndarray | None, nodes: slice) -> np.ndarray:
    """Row array `rows` per node of the range `nodes`: rows itself when one row
    serves all (it broadcasts), else rows[inv[nodes]]."""
    return rows if inv is None else rows[inv[nodes]]


# -- the implicit operator ---------------------------------------------------------


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


def _fold(x: np.ndarray) -> np.ndarray:
    """Grid values x (..., M) in the folded order of their indices 0, M-1, 1, M-2, ..."""
    half = x.shape[-1] // 2
    out = np.empty_like(x)
    out[..., 0::2] = x[..., :half]
    out[..., 1::2] = x[..., : half - 1 : -1]
    return out


def _unfold(y: np.ndarray) -> np.ndarray:
    """Inverse of _fold: folded values y (..., M) in grid order."""
    half = y.shape[-1] // 2
    out = np.empty_like(y)
    out[..., :half] = y[..., 0::2]
    out[..., half:] = y[..., ::-2]
    return out


@dataclass(frozen=True)
class _BandLayout:
    """LAPACK band storage of a 1D I - dt A, unknowns in the folded order.

    Folding the periodic grid (_fold) turns the cyclic couplings i +- 1,
    i +- 2 into a band of kl = ku = width, with no wrapped corner.  A row's
    band is a C-ordered (M, depth) array, depth = 3 width + 1, whose
    transpose is the Fortran band dgbtrf reads; CSC entry e of
    _implicit_pattern sits at its flat index slots[e].
    """

    width: int
    depth: int
    slots: np.ndarray


@lru_cache(maxsize=8)
def _band_layout(grid: SpatialGrid, kind: str) -> _BandLayout:
    pattern = _implicit_pattern(grid, kind)
    m = grid.size
    pos = _unfold(np.arange(m))  # the unknown of each grid index
    row = pos[pattern.indices]
    col = pos[np.repeat(np.arange(m), np.diff(pattern.indptr))]
    width = int(np.abs(row - col).max())
    depth = 3 * width + 1
    # A(i, j) is band entry (2 width + i - j, j)
    slots = col * depth + 2 * width + row - col
    return _BandLayout(width=width, depth=depth, slots=slots)


def _constant_a(op: "_LevelOperator", grid: SpatialGrid) -> np.ndarray | None:
    """The operator's a as (U, d, d) when every row is constant over the grid, else None."""
    d = grid.dim
    a = op.coeffs.a.reshape(op.coeffs.a.shape[0], -1, d, d)
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


# Each solver below maps (rhs, rows) to the solution: rhs holds a block of
# nodes (nodes, *grid) and rows their coefficient rows (None: row 0 serves all).


def _fourier_solve(symbols: np.ndarray, rhs: np.ndarray, rows) -> np.ndarray:
    axes = tuple(range(1, rhs.ndim))
    spectrum = np.fft.rfftn(rhs, axes=axes)
    spectrum /= symbols[0 if rows is None else rows]
    return np.fft.irfftn(spectrum, s=rhs.shape[1:], axes=axes)


def splu(matrix):
    """SuperLU factors of a CSC matrix (scipy.sparse.linalg.splu, imported on first use)."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(matrix)


def _lu_solve(factors: list, rhs: np.ndarray, rows) -> np.ndarray:
    out = np.empty_like(rhs)
    for row, sel in row_groups(rows):
        part = rhs[sel]
        out[sel] = factors[row].solve(part.reshape(len(part), -1).T).T.reshape(part.shape)
    return out


@lru_cache(maxsize=1)
def _flapack():
    """scipy.linalg._flapack, loaded once without running scipy.linalg's __init__.

    The one loaded with scipy.linalg is reused.  A fresh load is taken out of
    sys.modules again: left there, a later import of scipy.linalg would find
    it and not set scipy.linalg._flapack.  That import then loads its own
    module object, holding the same dgbtrf and dgbtrs.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy': band_lu needs scipy", name="scipy")
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}: band_lu needs it", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def band_lu(band: np.ndarray, width: int):
    """(lu, ipiv, info) of a Fortran-ordered band with kl = ku = width, factorised
    in place by LAPACK's dgbtrf (scipy.linalg._flapack, loaded on first use
    without the scipy.linalg package)."""
    return _flapack().dgbtrf(band, width, width, overwrite_ab=1)


def _band_solve(width: int, lu: np.ndarray, ipiv: np.ndarray, rhs, rows) -> np.ndarray:
    """Solve every node of rhs (nodes, M) with its row's block of the stacked band.

    The nodes of one row are columns of one dgbtrs call, over the blocks
    of the rows the nodes use (lo ... hi - 1).  The blocks share no entry
    and no pivot, so the solve never reads another block.
    """
    m = rhs.shape[1]
    folded = _fold(rhs)
    if rows is None:
        lo, hi, at, b = 0, 1, slice(None), folded
    else:
        lo, hi = int(rows.min()), int(rows.max()) + 1
        local = rows - lo
        # a node's column is its rank among the nodes of its row; b holds
        # (column, row) right-hand sides, flattened
        order = np.argsort(local, kind="stable")
        counts = np.bincount(local)
        col = np.empty_like(local)
        col[order] = np.arange(local.size) - np.repeat(np.cumsum(counts) - counts, counts)
        at = col * (hi - lo) + local
        b = np.zeros((counts.max() * (hi - lo), m))
        b[at] = folded
    x, _ = _flapack().dgbtrs(
        lu[:, lo * m : hi * m], width, width, b.reshape(-1, (hi - lo) * m).T,
        ipiv[lo * m : hi * m] - lo * m, overwrite_b=1,
    )
    return _unfold(x.T.reshape(-1, m)[at])


# -- the level operator ------------------------------------------------------------

# batched fields: axis 0 = nodes, axes 1..d = grid, trailing axes = components

_grad = batch_gradient
_div = batch_divergence


def _nonzero(**arrays) -> set:
    """Names of the arrays with a nonzero entry."""
    return {name for name, arr in arrays.items() if np.any(arr)}


def _plus(acc, term):
    """acc + term, where None stands for a term that is zero everywhere."""
    if acc is None:
        return term
    return acc if term is None else acc + term


class _LevelOperator:
    """The generator (a, b, c, sigma, nu) of one coefficient state.

    Holds the state's LevelCoefficients with div a and div sigma, and
    applies the backward Euler step and the r-transform at every level
    _level_operators gives it.  Each call covers one block of a level's
    nodes (a range, or the first nodes of a range of states: one of the
    blocks of lattice.level_states), reading its coefficient rows per node
    where it uses them.  The solver of I - dt A, built on the first
    semi-implicit step, takes a block's right-hand sides with their rows in
    one call per corrector pass.
    """

    def __init__(self, problem: ProblemData, config: SolverConfig, level: int):
        self.grid = grid = problem.grid
        self.dt = problem.tree.time_grid.dt
        self.kind = problem.operator_kind
        self.config = config
        self.coeffs = lc = _level_coefficients(problem, level)
        # terms whose coefficient is zero on every row are skipped: x + 0 y is
        # x for finite y, up to the sign of zero
        self.nonzero = _nonzero(b=lc.b, c=lc.c, sigma=lc.sigma, nu=lc.nu)
        # (div a)_i = sum_j D_j a^{ij} and (div sigma)_k = sum_i D_i sigma^{ik};
        # arrays carry a leading row axis, so grid axes start at 1
        self.diva = np.zeros(lc.a.shape[:-1])
        self.divsigma = np.zeros(lc.sigma.shape[:-2] + lc.sigma.shape[-1:])
        for i in range(grid.dim):
            self.diva += axis_derivative(lc.a[..., i], 1, 1 + i, grid.h)
            if "sigma" in self.nonzero:
                self.divsigma += axis_derivative(lc.sigma[..., i, :], 1, 1 + i, grid.h)
        self.nonzero |= _nonzero(diva=self.diva, divsigma=self.divsigma)
        self._solve = None

    def _at_nodes(self, x, nodes):
        """Coefficient row array x per node of the range `nodes` (_rows_at)."""
        return _rows_at(x, self.coeffs.inv, nodes)

    def _second_order_part(self, u, du, nodes):
        """div(a grad u) [- (div a) . grad u for the primal kind] + eps Laplacian.

        du is grad u.  The Laplacian is div grad, the composition of centred
        first differences the sparse operator uses.
        """
        out = _div(component_dot(self._at_nodes(self.coeffs.a, nodes), du[..., None, :]), self.grid)
        if self.config.viscosity:
            out = out + self.config.viscosity * _div(du, self.grid)
        if self.kind == KIND_BSPDE and "diva" in self.nonzero:
            out = out - component_dot(self._at_nodes(self.diva, nodes), du)
        return out

    def _first_order_part(self, u, du, nodes):
        """b . grad u + c u for the primal kind (du = grad u), -div(b u) + c u for the adjoint.

        None when b = c = 0.
        """
        lc, out = self.coeffs, None
        if "b" in self.nonzero:
            b = self._at_nodes(lc.b, nodes)
            if self.kind == KIND_BSPDE:
                out = component_dot(b, du)
            else:
                out = -_div(b * u[..., None], self.grid)
        if "c" in self.nonzero:
            out = _plus(out, self._at_nodes(lc.c, nodes) * u)
        return out

    def _q_part(self, q, nodes):
        """div(sigma q) - (div sigma) . q + nu . q, for the adjoint -div(sigma q) + nu . q.

        None when sigma = nu = 0.
        """
        out = None
        if "sigma" in self.nonzero:
            sigma = self._at_nodes(self.coeffs.sigma, nodes)
            out = _div(component_dot(sigma, q[..., None, :]), self.grid)
            if self.kind != KIND_BSPDE:
                out = -out
            elif "divsigma" in self.nonzero:
                out = out - component_dot(self._at_nodes(self.divsigma, nodes), q)
        if "nu" in self.nonzero:
            out = _plus(out, component_dot(self._at_nodes(self.coeffs.nu, nodes), q))
        return out

    def _implicit_data(self):
        """Pattern and CSC data of A for every coefficient row: data has shape (U, nnz).

        The eps Laplacian enters as eps added to the diagonal of a.
        """
        grid, eps = self.grid, self.config.viscosity
        pattern = _implicit_pattern(grid, self.kind)
        d, m = grid.dim, grid.size
        rows = self.coeffs.a.shape[0]
        a = np.broadcast_to(self.coeffs.a, (rows,) + grid.shape + (d, d))
        if eps:
            a = a + eps * np.eye(d)
        stacked = [a.reshape(rows, m, d * d)]
        if self.kind == KIND_BSPDE:
            diva = np.broadcast_to(self.diva, (rows,) + grid.shape + (d,))
            stacked.append(diva.reshape(rows, m, d))
        coef = np.concatenate(stacked, axis=2).transpose(0, 2, 1)
        data = np.zeros((rows, pattern.indices.size))
        for (field, at, inner, outer), slots in zip(pattern.blocks, pattern.slots):
            data[:, slots] += outer * (coef[:, field, at] * inner)
        return pattern, data

    def _build_solver(self, level: int):
        """The solver (rhs, rows) -> u of I - dt A for every coefficient row.

        In 1D every row's I - dt A, folded to a band (_band_layout), is one
        diagonal block of a level band, and the level is factorised by one
        dgbtrf call: pivots never leave a block, so each block holds its
        row's own LU.  In 2D with a constant over the grid on every row,
        I - dt A is circulant and each row is solved by FFT.  A 2D level with
        varying a gets SuperLU factors per row.
        """
        grid, dt, eps = self.grid, self.dt, self.config.viscosity
        a = _constant_a(self, grid) if grid.dim == 2 else None
        if a is not None:
            symbols = _fourier_symbol(grid, a, eps, dt)
            for row, symbol in enumerate(symbols):
                if not np.all(np.isfinite(symbol) & (symbol != 0)):
                    raise SingularOperatorError(
                        f"implicit symbol vanishes or is not finite at level {level} (row {row}); "
                        f"dt = {dt}, viscosity = {eps}"
                    )
            return partial(_fourier_solve, symbols)

        pattern, data = self._implicit_data()
        data *= -dt
        data[:, pattern.diag] += 1.0
        if grid.dim == 1:
            layout = _band_layout(grid, self.kind)
            rows, m = data.shape[0], grid.size
            band = np.zeros((rows, m * layout.depth))
            band[:, layout.slots] = data
            lu, ipiv, info = band_lu(band.reshape(rows * m, layout.depth).T, layout.width)
            if info:
                row, unknown = divmod(info - 1, m)
                raise SingularOperatorError(
                    f"implicit factorisation failed at level {level} (row {row}): zero pivot "
                    f"at grid index {_fold(np.arange(m))[unknown]}; dt = {dt}, viscosity = {eps}"
                )
            return partial(_band_solve, layout.width, lu, ipiv)
        from scipy import sparse

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
                    f"dt = {dt}, viscosity = {eps}"
                ) from exc
        return partial(_lu_solve, factors)

    def step(self, ubar, q, f, level, nodes):
        """One backward Euler step on the level's node range `nodes`.

        ubar, q and the forcing f hold those nodes (f may be one shared
        row); returns (u_n, last explicit-part field) on them.
        """
        semi = self.config.time_stepping == SEMI_IMPLICIT
        if semi and self._solve is None:
            self._solve = self._build_solver(level)

        qf = self._q_part(q, nodes)
        if np.any(f):
            qf = _plus(qf, f)

        # semi-implicitly only b and c are explicit; one gradient serves both
        # parts, and the adjoint first-order part takes none
        explicit = not semi or bool(self.nonzero & {"b", "c"})
        gradient = not semi or (self.kind == KIND_BSPDE and "b" in self.nonzero)
        u_cur = ubar
        star = ubar
        for sweep in range(self.config.corrector_iterations):
            star = u_cur
            if sweep and not explicit:
                # the right-hand side reads no star: a later pass repeats u_cur
                break
            expl = None
            if explicit:
                du = _grad(star, self.grid) if gradient else None
                expl = self._first_order_part(star, du, nodes)
                if not semi:
                    expl = _plus(expl, self._second_order_part(star, du, nodes))
            total = _plus(expl, qf)
            rhs = ubar if total is None else ubar + self.dt * total
            if not semi:
                u_cur = rhs
            else:
                inv = self.coeffs.inv
                u_cur = self._solve(rhs, None if inv is None else inv[nodes])
        if not np.all(np.isfinite(u_cur)):
            raise SolverBlowupError(
                f"non-finite values after the step at level {level}; "
                "check the CFL report and the stochastic coupling indicator"
            )
        return u_cur, star

    def r_transform(self, u, q, nodes):
        """r on the node range `nodes` (_transformed).

        Where sigma = 0, r is q and solve transforms nothing.
        """
        return _transformed(u, q, self._at_nodes(self.coeffs.sigma, nodes), self.grid)


def _transformed(u, q, sigma, grid: SpatialGrid) -> np.ndarray:
    """r = q + (grad u) sigma (r^k = q^k + sigma^{ik} D_i u) for rows of u and q.

    sigma holds each row's sigma, or one row for all; the stencil and the
    contraction act row by row, so any subset of rows gives the same values.
    """
    return q + component_dot(sigma, _grad(u, grid)[..., :, None], axis=-2)


def _representation_rows(tree: PathTree, u_levels: list, level: int, kept: tuple, rows) -> np.ndarray:
    """q's rows `rows` at a level, from u's next level (the build of q's _TransformedLevels).

    kept is (row -> first node, None where every node is its own row; the
    next level's node -> row map).  A row's q is the martingale
    representation at its first node, the call the sweep made for it.
    """
    reps, inv_next = kept
    nodes = rows
    if reps is not None or not isinstance(rows, slice):
        # node numbers, as the child table reads them: none negative
        nodes = (np.arange(len(u_levels[level])) if reps is None else reps)[rows]
        if inv_next is None:
            # a per-node next level is read as views for a range only;
            # other nodes gather their children through the identity map
            inv_next = np.arange(len(u_levels[level + 1]))
    return level_martingale_representation(tree, u_levels[level + 1], level, nodes, inv_next)


def _transformed_rows(
    q: _TransformedLevels, u_levels: list, grid: SpatialGrid, level: int, kept, rows
) -> np.ndarray:
    """r's rows `rows` at a level, from u, q and sigma (the build of r's _TransformedLevels).

    kept is None where sigma = 0, r being q, else (sigma rows, row ->
    sigma-row map), the map None when one sigma row serves every row.
    """
    if kept is None:
        return q.rows(level, rows)
    sigma, inv = kept
    return _transformed(u_levels[level][rows], q.rows(level, rows), _rows_at(sigma, inv, rows), grid)


class _TransformedLevels:
    """The levels of q or r for TransformedField: stored rows, or rows built on read.

    kept[level] is the level's rows as an array, or what
    build(level, kept[level], rows) builds the rows `rows` from
    (_representation_rows for q, _transformed_rows for r).  Every level
    has u's row count (u holds u's levels).  levels[level] gives a level's
    rows as an array.
    """

    def __init__(self, kept: list, u_levels: list, build: Callable):
        self.kept, self.u, self.build = kept, u_levels, build

    def __len__(self) -> int:
        return len(self.kept)

    def __getitem__(self, level: int) -> np.ndarray:
        kept = self.kept[level]
        return kept if isinstance(kept, np.ndarray) else self.rows(level, slice(None))

    def rows(self, level: int, rows) -> np.ndarray:
        """The rows `rows` (an index, a slice or an index array) of a level."""
        level = range(len(self.kept))[level]
        kept = self.kept[level]
        if isinstance(kept, np.ndarray):
            return kept[rows]
        if isinstance(rows, (int, np.integer)):
            return self.rows(level, [rows])[0]
        return self.build(level, kept, rows)


class TransformedField(AdaptedGridField):
    """The AdaptedGridField of q or r over _TransformedLevels.

    Every reader works on a built level too; at, rows and row_map touch
    only the rows they return or none.
    """

    def at(self, level: int, nodes) -> np.ndarray:
        inv = self.maps[level]
        return self.levels.rows(level, nodes if inv is None else inv[nodes])

    def rows(self, level: int, rows) -> np.ndarray:
        """The rows `rows` of a level (levels[level][rows], building only those)."""
        return self.levels.rows(level, rows)

    def row_map(self, level: int) -> np.ndarray:
        inv = self.maps[level]
        return np.arange(len(self.levels.u[level])) if inv is None else inv

    def stored(self, level: int) -> bool:
        """Whether the level's rows take no transform of their own on read.

        True where the level stores them and, for r, where sigma = 0 and r
        is q's rows; False where they are built from u (q) or from u, q
        and sigma (r).
        """
        return not isinstance(self.levels.kept[level], tuple)


def _varying(problem: ProblemData) -> bool:
    """False when every level shares one coefficient state."""
    coeffs = problem.coefficients
    return coeffs.time_dependent or coeffs.w_dependent or problem.level_coefficients is not None


def _level_states(problem: ProblemData, level: int, inv_next, key_maps: list):
    """lattice.level_states for a pass at `level` that reads each node's children.

    A node's state is the rows of its children in the next level's node ->
    row map inv_next plus its row in each of key_maps (None: one shared
    row).  When the next level holds one row per node (inv_next None),
    every node is its own state and the pass walks node ranges, unkeyed.
    A block's children hold at most BLOCK_BYTE_BUDGET bytes of one scalar
    grid field.
    """
    tree = problem.tree
    keys = None if inv_next is None else [*inv_next[tree.child_table(level)].T, *key_maps]
    return level_states(keys, tree.level_sizes[level], 8 * problem.grid.size * tree.child_count)


def _level_operators(problem: ProblemData, config: SolverConfig):
    """(level, operator) pairs for levels n-1 ... 0 of a backward sweep.

    Coefficients that are neither time_dependent nor w_dependent, with no
    level_coefficients override, are one state: one operator serves every
    level.  Otherwise each level gets a fresh one, built after the caller
    drops the previous one (`del op` at the end of the loop body) and held
    here by no name, so one level of coefficient rows and factors is alive.
    """
    n = problem.tree.n_steps
    shared = None if _varying(problem) else _LevelOperator(problem, config, n - 1)
    for level in range(n - 1, -1, -1):
        yield level, (_LevelOperator(problem, config, level) if shared is None else shared)


# -- step-size analysis ----------------------------------------------------------


def estimate_cfl(problem: ProblemData, config: SolverConfig | None = None) -> CflReport:
    """Parabolic and advective step bounds from coefficient maxima.

    Coefficients are probed at the first, middle and last step levels, or
    at level 0 alone when every level shares one state; no divergence or
    forcing is computed.  The advective bound uses the transformed drift
    for the primal kind and b itself for the adjoint;
    CflReport.from_samples states the bounds.
    """
    config = config or SolverConfig()
    tree, grid = problem.tree, problem.grid
    n = tree.n_steps

    def samples():
        for level in sorted({0, n // 2, max(n - 1, 0)}) if _varying(problem) else [0]:
            lc = _level_coefficients(problem, level)
            if problem.operator_kind == KIND_ADJOINT:
                drift = lc.b
            else:
                drift = transformed_drift(lc.b, lc.sigma, lc.nu, grid.h)
            yield lc.a, drift, lc.sigma

    return CflReport.from_samples(samples(), tree.time_grid, grid, config.viscosity, config.cfl_safety)


# -- the backward sweep ----------------------------------------------------------


def _terminal_values(problem: ProblemData) -> tuple[np.ndarray, np.ndarray | None]:
    """The terminal's distinct rows, by first leaf, and the leaf -> row map.

    The terminal is evaluated once per distinct Wiener state, and rows are
    told apart by their bits (-0.0 is not 0.0), so only distinct rows are
    kept.  The map is None when every leaf holds its own row.
    """
    tree, grid = problem.tree, problem.grid
    n_leaves = tree.level_sizes[tree.n_steps]
    states, inv = tree.level_states(tree.n_steps)
    rows, row_of_bits, state_row = [], {}, []
    for wrow in states:
        val = np.asarray(problem.terminal(wrow, grid), dtype=np.float64)
        if val.shape != grid.shape:
            raise ValueError(f"terminal sample shape {val.shape} != {grid.shape}")
        row = row_of_bits.setdefault(val.tobytes(), len(rows))
        if row == len(rows):
            rows.append(val)
        state_row.append(row)
    leaf_value = np.asarray(state_row)[np.zeros(n_leaves, dtype=np.intp) if inv is None else inv]
    reps, leaf_row = first_occurrence_keys([leaf_value], n_leaves)
    values = np.stack([rows[r] for r in leaf_value[reps]])
    return values, (None if reps.size == n_leaves else leaf_row)


def parabolicity_probes(coefficients: CoefficientSet, tree: PathTree) -> list:
    """The (t, W) states a solve checks 2a - sigma sigma^T on before sweeping.

    W = 0 at t = 0, T/2 and T; when the coefficients read W, also the first
    and last leaf states at T/2.  Coefficients that read neither t nor W
    are one state, probed at t = 0, W = 0.
    """
    horizon = tree.time_grid.horizon
    zero = np.zeros(tree.wiener_dim)
    if not (coefficients.time_dependent or coefficients.w_dependent):
        return [(0.0, zero)]
    samples = [(0.0, zero), (0.5 * horizon, zero), (horizon, zero)]
    if coefficients.w_dependent:
        leaf_w = tree.level_w(tree.n_steps)
        samples += [(0.5 * horizon, leaf_w[0]), (0.5 * horizon, leaf_w[-1])]
    return samples


def _kept_r(op: _LevelOperator, shape: tuple):
    """What a level keeps of r, as _TransformedLevels.kept holds it.

    None where sigma = 0 (r is q, built on read); (sigma rows, an unfilled
    row -> sigma-row map, None for one sigma row) where those take fewer
    bytes than r's rows of shape `shape`; else an unfilled array for r's
    rows.
    """
    if "sigma" not in op.nonzero:
        return None
    sigma, inv = op.coeffs.sigma, op.coeffs.inv
    row_map = None if inv is None else np.empty(shape[0], dtype=np.intp)
    if sigma.nbytes + (0 if row_map is None else row_map.nbytes) < 8 * math.prod(shape):
        return sigma, row_map
    return np.empty(shape)


def solve(
    problem: ProblemData, config: SolverConfig | None = None, test_functions=None
) -> SolutionPair:
    """Full backward sweep from the leaves to the root.

    The solve stores each level's distinct states once.  The terminal's
    rows are told apart by their bits; at each level, nodes whose children
    hold the same rows and that share their coefficient and forcing rows
    are one state, stepped once through a representative node, and the
    level keeps the node -> row map (None where every node is its own
    state).  A level whose next level holds one row per node is not keyed:
    its nodes are stepped in node ranges.  Rows are stepped in blocks of
    at most BLOCK_BYTE_BUDGET bytes of one scalar field: a block's q is
    taken from the next level's u, used for the step, the r-transform and
    the weak form, and dropped, and its u is written into the stored
    array, so what the sweep holds beyond the stored rows is a few blocks,
    whatever the level size.  A level stores u's rows and the first node
    of each row (none where every node is its own row); q's rows are
    rebuilt on read from those nodes and the next level's u
    (TransformedField).  A level whose sigma rows (with their row map)
    take fewer bytes than its r rows keeps those instead of r's rows, and
    r's rows are computed on read from u, q and sigma; where sigma = 0, r
    is q.  Every node's u, q and r are `==` what stepping it on its own
    gives.

    Preconditions: u, and r when sigma is set or level_coefficients
    overrides sampling, stored one row per node would fit
    WORKSPACE_BYTE_BUDGET (checked before anything is sampled, so every
    node counts whether or not it shares a row, and r counts on derived
    levels too: an upper bound), degenerate parabolicity at the
    parabolicity_probes states (ParabolicityReport.enforce; skipped when
    level_coefficients overrides sampling), and the explicit CFL bounds
    when stepping explicitly.
    Superparabolicity with margin 2 * viscosity comes for free from the
    added eps Laplacian, and the effective margin is recorded in meta.

    With test functions (arrays of the grid's shape), the sweep also checks
    the weak form block by block as it steps each level, from the level's
    operator, u_bar, q, the forcing and the field the last corrector pass
    acted on, and stores the report in SolutionPair.weak_form: the report
    is == weak_form_residual's on the stored solution, and nothing is
    re-sampled or re-stepped for it.  Only the primal kind states a weak
    form; an adjoint problem with test functions raises ValueError.
    """
    config = config or SolverConfig()
    tree, grid = problem.tree, problem.grid
    n = tree.n_steps
    dt = tree.time_grid.dt
    # u on levels 0..n, and r where sigma can be nonzero, d' components on
    # levels 0..n-1
    with_r = problem.coefficients.sigma is not None or problem.level_coefficients is not None
    nodes = sum(tree.level_sizes) + with_r * tree.wiener_dim * sum(tree.level_sizes[:-1])
    nbytes = 8 * grid.size * nodes
    if nbytes > WORKSPACE_BYTE_BUDGET:
        raise BudgetExceededError(
            f"solve would store {nbytes} bytes of {'u and r' if with_r else 'u'}, "
            f"over the budget of {WORKSPACE_BYTE_BUDGET} bytes"
        )

    check = None if test_functions is None else _WeakFormCheck(problem, config, test_functions)
    para = None
    if problem.level_coefficients is None:
        probes = parabolicity_probes(problem.coefficients, tree)
        para = check_parabolicity(problem.coefficients, grid, samples=probes).enforce()
    cfl = estimate_cfl(problem, config)

    warns = cfl.enforce(config.time_stepping == EXPLICIT, alternative="semi_implicit stepping")

    u_levels: list = [None] * (n + 1)
    q_kept: list = [None] * n
    r_kept: list = [None] * n
    maps: list = [None] * (n + 1)
    u_levels[n], maps[n] = _terminal_values(problem)

    for level, op in _level_operators(problem, config):
        f, f_inv = level_forcing(problem, level)
        u_next, inv_next = u_levels[level + 1], maps[level + 1]
        # nodes sharing their children's rows, coefficients and forcing share u, q and r
        count, maps[level], blocks = _level_states(problem, level, inv_next, [op.coeffs.inv, f_inv])
        u = u_levels[level] = np.empty((count,) + grid.shape)
        reps = None if maps[level] is None else np.concatenate([nodes for _, nodes in blocks])
        q_kept[level] = (reps, inv_next)
        r = r_kept[level] = _kept_r(op, u.shape + (tree.wiener_dim,))
        for rows, nodes in blocks:
            ubar = level_conditional_expectation(tree, u_next, level, nodes, inv_next)
            q = level_martingale_representation(tree, u_next, level, nodes, inv_next)
            f_nodes = _rows_at(f, f_inv, nodes)
            u[rows], star = op.step(ubar, q, f_nodes, level, nodes)
            if isinstance(r, tuple):
                if r[1] is not None:
                    r[1][rows] = op.coeffs.inv[nodes]
            elif r is not None:
                r[rows] = op.r_transform(u[rows], q, nodes)
            if check is not None:
                check.block(op, level, nodes, u[rows], q, ubar, star, f_nodes, u_next, inv_next)
        if check is not None:
            check.end_level(level)
        del op

    meta = {
        "dt": dt,
        "h": grid.h,
        **asdict(config),
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
        "level_rows": [len(rows) for rows in u_levels],
        "warnings": warns,
    }
    q_levels = _TransformedLevels(q_kept, u_levels, partial(_representation_rows, tree, u_levels))
    r_levels = _TransformedLevels(r_kept, u_levels, partial(_transformed_rows, q_levels, u_levels, grid))
    return SolutionPair(
        u=AdaptedGridField(u_levels, maps),
        q=TransformedField(q_levels, maps[:n]),
        r=TransformedField(r_levels, maps[:n]),
        meta=meta,
        weak_form=None if check is None else check.report(),
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


class _WeakFormCheck:
    """The weak-form defects weak_form_residual states, taken block by block as levels are walked.

    solve runs one inside its sweep when given test functions, and
    weak_form_residual runs one over a stored solution; both hand it the
    same fields per block, so their reports are ==.  `star` is the field
    the first-order part acted on, as _LevelOperator.step returns it.
    """

    def __init__(self, problem: ProblemData, config: SolverConfig, test_functions):
        if problem.operator_kind != KIND_BSPDE:
            raise ValueError("the weak form is stated for the primal operator kind")
        self.tree, self.grid, self.config = problem.tree, problem.grid, config
        etas = [np.asarray(e, dtype=np.float64) for e in test_functions]
        if not etas:
            raise ValueError("need at least one test function")
        self.eta_info = []
        for eta in etas:
            if eta.shape != self.grid.shape:
                raise ValueError(f"test function shape {eta.shape} != {self.grid.shape}")
            geta = _grad(eta[None], self.grid)[0]
            scale = max(1.0, math.sqrt(float(np.sum(eta**2)) * self.grid.cell_volume))
            self.eta_info.append((eta, geta, scale))
        self.per_level = [None] * self.tree.n_steps
        self.level_drift = self.level_rep = 0.0

    # a block's defects are taken in methods, so their temporaries are
    # freed before the next part of the pass allocates its own

    def block(self, op, level, nodes, u_n, q, ubar, star, f_nodes, u_next, inv_next):
        """Take the nodes' drift residuals and per-child remainders into the level's maxima."""
        self.level_drift = self._drift_defect(op, nodes, u_n, q, ubar, star, f_nodes)
        self.level_rep = self._representation_defect(level, nodes, u_next, inv_next, q, ubar)

    def end_level(self, level: int) -> None:
        self.per_level[level] = (self.level_drift, self.level_rep)
        self.level_drift = self.level_rep = 0.0

    def report(self) -> WeakFormReport:
        drifts, reps = zip(*self.per_level)
        return WeakFormReport(
            max_residual=max(0.0, *drifts),
            max_representation_residual=max(0.0, *reps),
            per_level=self.per_level,
            n_test_functions=len(self.eta_info),
        )

    def _drift_defect(self, op, nodes, u_n, q, ubar, star, f_nodes) -> float:
        grid, config = self.grid, self.config
        d, dt, vol = grid.dim, self.tree.time_grid.dt, grid.cell_volume
        gaxes = tuple(range(1, 1 + d))
        istar = u_n if config.time_stepping == SEMI_IMPLICIT else star

        lc, at = op.coeffs, partial(op._at_nodes, nodes=nodes)
        du_i = _grad(istar, grid)
        du_e = du_i if istar is star else _grad(star, grid)
        flux = component_dot(at(lc.a), du_i[..., None, :]) + component_dot(
            at(lc.sigma), q[..., None, :]
        )
        if config.viscosity:
            flux = flux + config.viscosity * du_i
        low = (
            component_dot(at(lc.b), du_e)
            + at(lc.c) * star
            - component_dot(at(op.diva), du_i)
            + component_dot(at(lc.nu) - at(op.divsigma), q)
            + f_nodes
        )

        increment = u_n - ubar
        drift = self.level_drift
        for eta, geta, scale in self.eta_info:
            pairing = (
                -np.sum(flux * geta, axis=gaxes + (1 + d,))
                + np.sum(low * eta, axis=gaxes)
            ) * vol
            lhs = np.sum(increment * eta, axis=gaxes) * vol / dt
            drift = max(drift, float(np.abs(lhs - pairing).max() / scale))
        return drift

    def _representation_defect(self, level, nodes, u_next, inv_next, q, ubar) -> float:
        tree, vol = self.tree, self.grid.cell_volume
        rep_axes = tuple(range(2, 2 + self.grid.dim))
        # u_child - u_bar - q . dW, in one child-sized buffer
        rep = np.einsum("n...k,ck->nc...", q, tree.sign_table)
        rep *= math.sqrt(tree.time_grid.dt)
        rep += ubar[:, None]
        np.subtract(level_children(tree, u_next, level, nodes, inv_next), rep, out=rep)
        rep_max = self.level_rep
        for eta, _, scale in self.eta_info:
            ip = np.abs(np.sum(rep * eta, axis=rep_axes)) * vol
            rep_max = max(rep_max, float(ip.max() / scale))
        return rep_max


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

    This is the after-the-fact form of the check solve runs in its sweep
    when given test functions, and its report is == the sweep's: it
    rebuilds each level's operator, re-takes u_bar and, with more than one
    corrector pass, re-steps each block for u'.
    """
    config = SolverConfig(**{f.name: solution.meta[f.name] for f in fields(SolverConfig)})
    check = _WeakFormCheck(problem, config, test_functions)
    tree = problem.tree
    for level, op in _level_operators(problem, config):
        f, f_inv = level_forcing(problem, level)
        u_next, inv_next = solution.u.levels[level + 1], solution.u.maps[level + 1]
        # one node per state: nodes with equal inputs have equal residuals
        keys = [solution.u.row_map(level), solution.q.row_map(level), op.coeffs.inv, f_inv]
        _, _, blocks = _level_states(problem, level, inv_next, keys)
        for _, nodes in blocks:
            u_n = solution.u.at(level, nodes)
            q = solution.q.at(level, nodes)
            f_nodes = _rows_at(f, f_inv, nodes)
            ubar = level_conditional_expectation(tree, u_next, level, nodes, inv_next)
            star = ubar
            if config.corrector_iterations > 1:
                _, star = op.step(ubar, q, f_nodes, level, nodes)
            check.block(op, level, nodes, u_n, q, ubar, star, f_nodes, u_next, inv_next)
        check.end_level(level)
        del op
    return check.report()


# -- vanishing viscosity -----------------------------------------------------------


def continuation_gaps(problem: ProblemData, solutions: list, m1: int = 0) -> tuple[list, list]:
    """u and r Cauchy gaps between consecutive solutions, as in ContinuationResult."""
    tree, grid = problem.tree, problem.grid

    def expected_gap_sq(f0: AdaptedGridField, f1: AdaptedGridField, level: int) -> float:
        """E ||f0 - f1||_{m1,2}^2 at a level, each norm taken once per distinct row pair."""
        keys = [f0.row_map(level), f1.row_map(level)]
        row_bytes = f0.at(level, slice(0, 1)).nbytes
        count, inv, blocks = level_states(keys, tree.level_sizes[level], row_bytes)
        out = np.empty(count)
        for rows, nodes in blocks:
            out[rows] = level_norm_sq(f0.at(level, nodes) - f1.at(level, nodes), grid, m1)
        return float(np.sum(tree.level_probabilities(level) * (out if inv is None else out[inv])))

    dt, n = tree.time_grid.dt, tree.n_steps
    u_gaps, r_gaps = [], []
    for s0, s1 in zip(solutions, solutions[1:]):
        u_sq = [expected_gap_sq(s0.u, s1.u, k) for k in range(n + 1)]
        u_gaps.append(max([0.0] + [math.sqrt(x) for x in u_sq]))
        r_gaps.append(sum(dt * expected_gap_sq(s0.r, s1.r, k) for k in range(n)))
    return u_gaps, r_gaps


def viscosity_continuation(
    problem: ProblemData,
    eps_schedule,
    config: SolverConfig | None = None,
    m1: int = 0,
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
    u_gaps, r_gaps = continuation_gaps(problem, solutions, m1)

    return ContinuationResult(
        eps_schedule=tuple(eps_list),
        u_gaps=u_gaps,
        r_gaps=r_gaps,
        solutions=solutions,
        n_solved=len(solutions),
        aborted_at=aborted_at,
        failure=failure,
    )


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
        forcing_w_dependent=oracle.w_dependent,
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
    As in solve, nodes whose children hold the same exact rows and that
    share their coefficient, forcing and exact rows are stepped once.
    """
    tree = build_tree(TimeGrid(oracle.horizon, n_steps), oracle.coefficients.wiener_dim, mode)
    problem = problem_from_oracle(oracle, tree)
    config = config or SolverConfig()
    grid = oracle.grid
    dt = tree.time_grid.dt
    worst = 0.0
    u_next, _, inv_next = exact_level_fields(oracle, tree, n_steps)
    for level, op in _level_operators(problem, config):
        u_ex, _, ex_inv = exact_level_fields(oracle, tree, level)
        f, f_inv = level_forcing(problem, level)
        # nodes sharing their children's exact rows, coefficients, forcing and
        # exact row share the stepped u and its defect
        count, inv, blocks = _level_states(problem, level, inv_next, [op.coeffs.inv, f_inv, ex_inv])
        sq_norms = np.empty(count)
        for rows, nodes in blocks:
            ubar = level_conditional_expectation(tree, u_next, level, nodes, inv_next)
            q = level_martingale_representation(tree, u_next, level, nodes, inv_next)
            u_step, _ = op.step(ubar, q, _rows_at(f, f_inv, nodes), level, nodes)
            sq_norms[rows] = level_norm_sq(u_step - u_ex[ex_inv[nodes]], grid, 0)
        p = tree.level_probabilities(level)
        # per-node squared norms, weighted in node order
        defect = math.sqrt(float(np.sum(p * (sq_norms if inv is None else sq_norms[inv]))))
        worst = max(worst, defect / dt)
        u_next, inv_next = u_ex, ex_inv
        del op
    return OracleResidualReport(
        residual=worst, constant=worst / (dt + grid.h**2), dt=dt, h=grid.h
    )
