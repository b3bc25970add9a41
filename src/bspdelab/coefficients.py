"""Coefficient bundles for the backward equation and their structure checks.

A coefficient set samples (a, b, c, sigma, nu) on the spatial grid at a given
(t, W) state.  From those samples the module derives the quantities the
analysis runs on:

    alpha  = (1/2) sigma sigma^T
    b_tilde^i = b^i - d_j sigma^{ik} sigma^{jk} - nu^k sigma^{ik}

and provides checkers for degenerate parabolicity (2a - sigma sigma^T psd),
strict parabolicity (2a - sigma sigma^T >= delta I), the gradient-symmetry
condition sum_k sigma^{ik} d_l sigma^{jk} = sum_k sigma^{jk} d_l sigma^{ik},
and an estimator for the constant in the degenerate-matrix inequality, for
a positive semidefinite A such as the degeneracy gap a - alpha,

    (A^{ij}_{x^rho} v_{x^i x^j})^2 <= C' A^{ij} v_{x^i x^k} v_{x^j x^k}.

Three builtin 2x2 noise matrices violate the gradient-symmetry condition
while keeping a = (1/2) sigma sigma^T exactly degenerate; they are the
standing stress tests for everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    TOL_DENOMINATOR,
    TOL_PSD,
    SpatialGrid,
    axis_derivative,
    component_dot,
    diff,
)

# sampler(t, w, grid): grid array at one Wiener state w (d',); an optional
# method rows(t, states, grid) samples a stack (U, d') at once (sample_rows)
Sampler = Callable[[float, np.ndarray, SpatialGrid], np.ndarray]


class CoefficientDataError(ValueError):
    """Sampled coefficient violates a structural requirement."""


class ParabolicityError(ValueError):
    """Requested solve or estimate needs a parabolicity condition that fails."""


def _as_states(w, wiener_dim: int) -> np.ndarray:
    """w as a stack of Wiener rows (U, d'); one state (d',), or None for W = 0, is one row."""
    if w is None:
        return np.zeros((1, wiener_dim))
    states = np.asarray(w, dtype=np.float64)
    if states.ndim != 2:
        states = states.reshape(1, -1)
    if states.shape[1] != wiener_dim:
        raise ValueError(f"w has {states.shape[1]} components, expected {wiener_dim}")
    return states


def _at(t: float, w: np.ndarray) -> str:
    return f"t = {float(t)!r}, W = {w.tolist()}"


def sample_rows(sampler, t: float, states: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """The sampler at every Wiener row of states (U, d'), stacked on a leading U axis.

    A sampler with a `rows(t, states, grid)` method is called once on all
    rows; any other sampler is called once per row.
    """
    rows = getattr(sampler, "rows", None)
    if rows is not None:
        return np.asarray(rows(t, states, grid), dtype=np.float64)
    return np.stack([np.asarray(sampler(t, w, grid), dtype=np.float64) for w in states])


def constant_sampler(value, shape_suffix: tuple[int, ...]) -> Sampler:
    """Sampler that broadcasts a constant scalar/matrix over the grid."""
    base = np.asarray(value, dtype=np.float64)

    def sample(t: float, w: np.ndarray, grid: SpatialGrid) -> np.ndarray:
        target = grid.shape + shape_suffix
        if base.shape == shape_suffix:
            return np.broadcast_to(base, target).copy()
        if base.shape == target:
            return base.copy()
        raise ValueError(f"constant with shape {base.shape} cannot fill {target}")

    return sample


@dataclass(frozen=True)
class CoefficientSet:
    """Samplers for (a, b, c, sigma, nu); None means identically zero.

    Shapes returned by the samplers, for grid shape G:
        a: G + (d, d) symmetric   b: G + (d,)   c: G
        sigma: G + (d, d')        nu: G + (d',)

    A sampler receives one Wiener state w of shape (d',).  One with a
    `rows(t, states, grid)` method also takes a stack of rows (U, d') and
    returns its arrays with a leading U axis; `sample` then calls it once
    per stack instead of once per row.

    `time_dependent=False` and `w_dependent=False` promise that the samplers
    ignore t and W.  A backward sweep relies on both: it samples the
    coefficients once for the whole sweep when neither is set, otherwise
    once per level, at the stack of the level's distinct Wiener states when
    W is read.
    `periodic` marks whether the sampled fields wrap smoothly across the box
    seam; the symmetry checker masks a two-cell band at the seam when not.
    """

    dim: int
    wiener_dim: int
    a: Sampler
    b: Sampler | None = None
    c: Sampler | None = None
    sigma: Sampler | None = None
    nu: Sampler | None = None
    w_dependent: bool = False
    time_dependent: bool = False
    periodic: bool = True
    name: str = ""

    def sample(self, t: float, w, grid: SpatialGrid) -> "CoefficientSample":
        """(a, b, c, sigma, nu) at time t and one Wiener state w (d',), None for
        W = 0; at a stack of rows w (U, d') every array gains a leading U
        axis.  Errors name t, the offending Wiener row and any grid index.
        """
        if grid.dim != self.dim:
            raise ValueError(f"grid dim {grid.dim} != coefficient dim {self.dim}")
        states = _as_states(w, self.wiener_dim)
        g = grid.shape
        d, dp = self.dim, self.wiener_dim
        a = self._take(self.a, t, states, grid, g + (d, d), "a")
        b = self._take(self.b, t, states, grid, g + (d,), "b")
        c = self._take(self.c, t, states, grid, g, "c")
        sigma = self._take(self.sigma, t, states, grid, g + (d, dp), "sigma")
        nu = self._take(self.nu, t, states, grid, g + (dp,), "nu")
        check_rows(dict(a=a, b=b, c=c, sigma=sigma, nu=nu), d, lambda row: _at(t, states[row]))
        if np.ndim(w) != 2:
            w, a, b, c, sigma, nu = states[0], a[0], b[0], c[0], sigma[0], nu[0]
        return CoefficientSample(t=t, w=w, grid=grid, a=a, b=b, c=c, sigma=sigma, nu=nu)

    @staticmethod
    def _take(sampler, t, states, grid, shape, nm) -> np.ndarray:
        shape = (len(states),) + shape
        if sampler is None:
            return np.zeros(shape)
        arr = sample_rows(sampler, t, states, grid)
        if arr.shape != shape:
            raise CoefficientDataError(
                f"{nm} sample has shape {arr.shape}, expected {shape} (Wiener rows first), "
                f"{_at(t, states[0])}"
            )
        return arr


def check_rows(fields: dict, dim: int, where: Callable[[int], str]) -> None:
    """Refuse an asymmetric a (beyond 1e-12 max(1, max |a|) per row), then any
    non-finite field; arrays are (rows, *grid, ...), and the error names the
    field, where(row) for the first bad row, and the grid index.
    """
    a = fields.get("a")
    if a is not None:
        asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-1, -2))
        scale = np.maximum(1.0, np.max(np.abs(a).reshape(len(a), -1), axis=1))
        bad = np.max(asym.reshape(len(a), -1), axis=1) > 1e-12 * scale
        if bad.any():
            row = int(np.argmax(bad))
            idx = np.unravel_index(np.argmax(asym[row]), asym.shape[1:])
            raise CoefficientDataError(
                f"a is not symmetric at grid index {tuple(int(i) for i in idx)}, {where(row)}"
            )
    for nm, arr in fields.items():
        bad = ~np.isfinite(arr)
        if bad.any():
            row, *idx = np.unravel_index(np.argmax(bad), arr.shape)[: 1 + dim]
            raise CoefficientDataError(
                f"{nm} sample contains non-finite values at grid index "
                f"{tuple(int(i) for i in idx)}, {where(row)}"
            )


def _parabolicity_matrix(a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """2a - sigma sigma^T for a (..., d, d) and sigma (..., d, d')."""
    return 2.0 * a - np.einsum("...ik,...jk->...ij", sigma, sigma)


@dataclass(frozen=True)
class CoefficientSample:
    """Grid arrays of all five coefficients at one (t, W) state.

    Sampled at a stack of Wiener rows, w is that stack (U, d') and every
    array carries a leading U axis.
    """

    t: float
    w: np.ndarray
    grid: SpatialGrid
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray

    def parabolicity_matrix(self) -> np.ndarray:
        """2a - sigma sigma^T at every grid point."""
        return _parabolicity_matrix(self.a, self.sigma)


@dataclass(frozen=True)
class DerivedCoefficients:
    """alpha = sigma sigma^T / 2 and the transformed drift b_tilde, plus the sample."""

    sample: CoefficientSample
    alpha: np.ndarray
    b_tilde: np.ndarray


def transformed_drift(b: np.ndarray, sigma: np.ndarray, nu: np.ndarray, h: float) -> np.ndarray:
    """b_tilde^i = b^i - (D_j sigma^{ik}) sigma^{jk} - nu^k sigma^{ik}.

    Arrays are (..., *grid, components): any leading batch axes pass
    through, and grid axis j sits d + 2 - j axes from the end of sigma.
    """
    d = sigma.shape[-2]
    term = np.zeros_like(b)
    for j in range(d):
        dsj = axis_derivative(sigma, 1, j - d - 2, h)
        term += component_dot(dsj, sigma[..., j, None, :])
    return b - term - component_dot(sigma, nu[..., None, :])


def derive_from_sample(smp: CoefficientSample) -> DerivedCoefficients:
    alpha = 0.5 * np.einsum("...ik,...jk->...ij", smp.sigma, smp.sigma)
    b_tilde = transformed_drift(smp.b, smp.sigma, smp.nu, smp.grid.h)
    return DerivedCoefficients(sample=smp, alpha=alpha, b_tilde=b_tilde)


# -- parabolicity -------------------------------------------------------------

VERDICT_VIOLATED = "violated"
VERDICT_DEGENERATE = "degenerate-ok"
VERDICT_SUPER = "super-parabolic"

# a minimum eigenvalue at or above this floor counts as super-parabolic
DELTA_FLOOR = 1e-8


@dataclass(frozen=True)
class ParabolicityReport:
    """Spectral summary of 2a - sigma sigma^T over the sampled states; the
    witness is the first state and grid point at the minimum."""

    min_eigenvalue: float
    delta: float
    verdict: str
    witness: dict | None
    n_samples: int

    def passes(self, mode: str) -> bool:
        if mode == "DP":
            return self.verdict != VERDICT_VIOLATED
        if mode == "SP":
            return self.verdict == VERDICT_SUPER
        raise ValueError(f"mode must be 'DP' or 'SP', got {mode!r}")

    def enforce(self) -> "ParabolicityReport":
        """The report; ParabolicityError, the one refusal of 2a - sigma sigma^T, if violated."""
        if self.verdict == VERDICT_VIOLATED:
            raise ParabolicityError(
                f"2a - sigma sigma^T has eigenvalue {self.min_eigenvalue:.3e} "
                f"below tolerance; witness {self.witness}"
            )
        return self


def parabolicity_report(
    a: np.ndarray, sigma: np.ndarray, grid: SpatialGrid, states: list[dict]
) -> ParabolicityReport:
    """Eigenvalue scan of 2a - sigma sigma^T over stacked rows and grid points.

    a (rows, *grid, d, d) and sigma (rows, *grid, d, d') hold one row per
    entry of states, a dict naming the row's state that the witness copies.
    Verdicts: 'violated' below -TOL_PSD, 'super-parabolic' when the minimum
    eigenvalue clears DELTA_FLOOR (then delta is that minimum), otherwise
    'degenerate-ok'.
    """
    local = np.linalg.eigvalsh(_parabolicity_matrix(a, sigma)).min(axis=-1)
    at = np.unravel_index(np.argmin(local), local.shape)
    row, idx = int(at[0]), at[1:]
    min_eig = float(local[at])
    if min_eig < -TOL_PSD:
        verdict = VERDICT_VIOLATED
    elif min_eig >= DELTA_FLOOR:
        verdict = VERDICT_SUPER
    else:
        verdict = VERDICT_DEGENERATE
    witness = {
        "sample": row,
        **states[row],
        "grid_index": tuple(int(i) for i in idx),
        "x": [float(c[idx]) for c in grid.coordinates()],
        "eigenvalue": min_eig,
    }
    return ParabolicityReport(
        min_eigenvalue=min_eig,
        delta=max(min_eig, 0.0),
        verdict=verdict,
        witness=witness,
        n_samples=len(states),
    )


def check_parabolicity(
    coeffs: CoefficientSet,
    grid: SpatialGrid,
    samples: list[tuple[float, np.ndarray]] | None = None,
) -> ParabolicityReport:
    """parabolicity_report over (t, W) samples, one `sample` call each; default t = 0, W = 0."""
    if samples is None:
        samples = [(0.0, np.zeros(coeffs.wiener_dim))]
    smps = [coeffs.sample(t, w, grid) for t, w in samples]
    states = [{"t": float(t), "w": np.asarray(w, dtype=float).reshape(-1).tolist()} for t, w in samples]
    return parabolicity_report(
        np.stack([s.a for s in smps]), np.stack([s.sigma for s in smps]), grid, states
    )


# -- gradient symmetry --------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    """Pointwise violation of sum_k sigma^{ik} d_l sigma^{jk} symmetry in (i, j)."""

    max_violation: float
    violation_field: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    tol: float

    @property
    def satisfied(self) -> bool:
        return self.max_violation <= self.tol


def _seam_mask(grid: SpatialGrid, band: int = 2) -> np.ndarray:
    """False on a `band`-cell strip on each side of the periodic seam, per axis."""
    mask = np.ones(grid.shape, dtype=bool)
    m = grid.points
    for axis in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[axis] = np.r_[0:band, m - band : m]
        mask[tuple(sl)] = False
    return mask


def check_symmetry(
    coeffs: CoefficientSet,
    grid: SpatialGrid,
    t: float = 0.0,
    w=None,
    tol: float | None = None,
) -> SymmetryReport:
    """Max over (i, j, l, x) of |sum_k sigma^{ik} d_l sigma^{jk} - (i <-> j)|.

    Central differences pollute a band at the wrap seam when the coefficients
    are not box-periodic, so non-periodic sets are checked with a two-cell
    seam band masked out.
    """
    smp = coeffs.sample(t, w, grid)
    d = grid.dim
    if tol is None:
        tol = 10.0 * grid.h**2
    sigma_x = np.stack(
        [axis_derivative(smp.sigma, 1, axis=l, h=grid.h) for l in range(d)], axis=-3
    )
    lhs = np.einsum("...ik,...ljk->...ijl", smp.sigma, sigma_x)
    viol = np.abs(lhs - np.swapaxes(lhs, -3, -2))
    viol_field = viol.max(axis=(-3, -2, -1))
    mask = np.ones(grid.shape, dtype=bool) if coeffs.periodic else _seam_mask(grid)
    max_violation = float(viol_field[mask].max()) if mask.any() else 0.0
    return SymmetryReport(
        max_violation=max_violation, violation_field=viol_field, mask=mask, tol=tol
    )


# -- degenerate-matrix derivative inequality ----------------------------------


@dataclass(frozen=True)
class OleinikReport:
    """Fitted constant for (A_x' v_xx)^2 <= C' * A v_xx v_xx over the probes."""

    c_prime: float
    witness: dict | None
    skipped_fraction: float


def oleinik_constant(
    a_field: np.ndarray,
    grid: SpatialGrid,
    probes: list[np.ndarray],
    mask: np.ndarray | None = None,
) -> OleinikReport:
    """Max over probes, points and rho of
    (A^{ij}_{x^rho} v_{x^i x^j})^2 / (A^{ij} v_{x^i x^k} v_{x^j x^k}).

    A must be pointwise positive semidefinite.  Points where the denominator
    is below TOL_DENOMINATOR are skipped; `mask` restricts the scan (e.g. to
    keep a non-periodic A away from the wrap seam).
    """
    d = grid.dim
    a_field = np.asarray(a_field, dtype=np.float64)
    if a_field.shape != grid.shape + (d, d):
        raise ValueError(f"A field has shape {a_field.shape}, expected {grid.shape + (d, d)}")
    if not probes:
        raise ValueError("at least one probe field is required")
    eigs = np.linalg.eigvalsh(a_field).min(axis=-1)
    scan_mask = np.ones(grid.shape, dtype=bool) if mask is None else np.asarray(mask, bool)
    if float(eigs[scan_mask].min()) < -TOL_PSD:
        idx = np.unravel_index(np.argmin(np.where(scan_mask, eigs, np.inf)), grid.shape)
        raise ParabolicityError(
            f"A is not positive semidefinite at grid index {tuple(int(i) for i in idx)} "
            f"(min eigenvalue {float(eigs[idx]):.3e})"
        )
    a_x = np.stack([axis_derivative(a_field, 1, axis=r, h=grid.h) for r in range(d)], axis=-3)
    best = -np.inf
    witness = None
    skipped = 0
    total = 0
    for pi, v in enumerate(probes):
        v = np.asarray(v, dtype=np.float64)
        hess = np.empty(grid.shape + (d, d))
        for i in range(d):
            for j in range(d):
                alpha = [0] * d
                alpha[i] += 1
                alpha[j] += 1
                hess[..., i, j] = diff(v, tuple(alpha), grid)
        num = np.einsum("...rij,...ij->...r", a_x, hess) ** 2
        den = np.einsum("...ij,...ik,...jk->...", a_field, hess, hess)
        valid = scan_mask & (den >= TOL_DENOMINATOR)
        total += int(scan_mask.sum()) * d
        skipped += int(scan_mask.sum()) * d - int(valid.sum()) * d
        if not valid.any():
            continue
        ratio = np.where(valid[..., None], num / np.maximum(den, TOL_DENOMINATOR)[..., None], -np.inf)
        idx = np.unravel_index(np.argmax(ratio), ratio.shape)
        val = float(ratio[idx])
        if val > best:
            best = val
            coords = grid.coordinates()
            gi = idx[:-1]
            witness = {
                "probe": pi,
                "rho": int(idx[-1]),
                "grid_index": tuple(int(i) for i in gi),
                "x": [float(c[gi]) for c in coords],
                "ratio": val,
            }
    if not np.isfinite(best):
        raise ValueError("all points were skipped: denominators below tolerance everywhere")
    return OleinikReport(
        c_prime=float(best),
        witness=witness,
        skipped_fraction=skipped / max(total, 1),
    )


# -- builtin degenerate counterexamples ---------------------------------------


def _half_ssT(sigma_sampler: Sampler) -> Sampler:
    def sample(t: float, w: np.ndarray, grid: SpatialGrid) -> np.ndarray:
        s = sigma_sampler(t, w, grid)
        return 0.5 * np.einsum("...ik,...jk->...ij", s, s)

    return sample


def _sigma_rotating(t, w, grid: SpatialGrid) -> np.ndarray:
    x1, x2 = grid.coordinates()
    s = x1 + x2
    sig = np.empty(grid.shape + (2, 2))
    sig[..., 0, 0] = np.sin(s)
    sig[..., 0, 1] = np.cos(s)
    sig[..., 1, 0] = np.cos(s)
    sig[..., 1, 1] = -np.sin(s)
    return sig


def _sigma_rational(t, w, grid: SpatialGrid) -> np.ndarray:
    x1, x2 = grid.coordinates()
    g = 1.0 / np.sqrt(1.0 + x1**2 + x2**2)
    sig = np.empty(grid.shape + (2, 2))
    sig[..., 0, 0] = g
    sig[..., 0, 1] = 1.0
    sig[..., 1, 0] = 0.0
    sig[..., 1, 1] = -g
    return sig


def _sigma_radial(t, w, grid: SpatialGrid) -> np.ndarray:
    x1, x2 = grid.coordinates()
    r = np.sqrt(x1**2 + x2**2)
    sig = np.empty(grid.shape + (2, 2))
    sig[..., 0, 0] = np.sin(r)
    sig[..., 0, 1] = np.cos(r)
    sig[..., 1, 0] = np.cos(r)
    sig[..., 1, 1] = -np.sin(r)
    return sig


def builtin_counterexamples() -> tuple[CoefficientSet, CoefficientSet, CoefficientSet]:
    """Three 2x2 noise matrices violating gradient symmetry, with a = sigma sigma^T / 2.

    All three are exactly degenerate (2a - sigma sigma^T = 0 in floating point)
    and have b = c = nu = 0.  The first is box-periodic on half_width = pi;
    the other two are not periodic, so seam-sensitive checks mask the wrap.
    """
    specs = [
        ("counterexample-1", _sigma_rotating, True),
        ("counterexample-2", _sigma_rational, False),
        ("counterexample-3", _sigma_radial, False),
    ]
    out = []
    for name, sig, periodic in specs:
        out.append(
            CoefficientSet(
                dim=2,
                wiener_dim=2,
                a=_half_ssT(sig),
                sigma=sig,
                periodic=periodic,
                name=name,
            )
        )
    return tuple(out)
