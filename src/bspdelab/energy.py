"""Energy functionals and a-priori estimate verification.

The machinery mirrors the continuous argument that gives well-posedness of
the degenerate backward equation: the weighted derivative sums

    Psi = sum_{|alpha| <= m} |D^alpha u|^2
    Upsilon = sum_{|alpha| <= m} ||D^alpha r||^2

feed a functional Theta built from a convex weight G, and the one-sided
bound on its integral (the discrete basic estimate) is the mechanism by
which the martingale part is absorbed without any lower bound on the
diffusion matrix.  verify_main_estimates measures the resulting solution
estimates on actual backward solves; every expectation is an exact tree
sum, every integral an exact grid sum, so a reported constant is a
reproducible measurement, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .coefficients import (
    CoefficientSet,
    DerivedCoefficients,
    check_parabolicity,
    derive_from_sample,
)
from .grid import MAX_DERIVATIVE_ORDER, SpatialGrid, component_dot, diff, multi_indices
from .grid import _level_norms
from .lattice import node_blocks
from .solver import ContinuationResult, ProblemData, SolutionPair, SolverConfig
from .solver import continuation_gaps, level_forcing, solve


@dataclass(frozen=True)
class PowerG:
    """Weight G(s) = s^exponent with G, G' > 0 and G'' >= 0 on (0, inf).

    Exponent 1 gives the plain quadratic energy (G' = 1, G'' = 0).
    Exponents in (1, 2) are refused: G'' would blow up at s = 0.
    """

    exponent: float = 1.0

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")
        if 1 < self.exponent < 2:
            raise ValueError(
                f"exponent {self.exponent} in (1, 2) makes G'' singular at 0; "
                "use 1 or >= 2"
            )

    def g(self, s):
        return np.power(np.asarray(s, dtype=np.float64), self.exponent)

    def g1(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.exponent == 1:
            return np.ones_like(s)
        return self.exponent * np.power(s, self.exponent - 1.0)

    def g2(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.exponent == 1:
            return np.zeros_like(s)
        return self.exponent * (self.exponent - 1.0) * np.power(s, self.exponent - 2.0)


@dataclass(frozen=True)
class EnergyConfig:
    """Derivative order m, estimate exponent p, and the weight G."""

    m: int
    g: PowerG = PowerG(1.0)
    p: float = 2.0

    def __post_init__(self):
        if not (0 <= self.m <= MAX_DERIVATIVE_ORDER):
            raise ValueError(f"m must lie in [0, {MAX_DERIVATIVE_ORDER}], got {self.m}")
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")


@dataclass(frozen=True)
class EnergyFields:
    """Psi and Upsilon on the grid; both nonnegative by construction."""

    psi: np.ndarray
    upsilon: np.ndarray


def energy_fields(u: np.ndarray, r: np.ndarray, grid: SpatialGrid, m: int) -> EnergyFields:
    """Derivative square sums Psi(u) and Upsilon(r) up to total order m."""
    u = np.asarray(u, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    psi = np.zeros(grid.shape)
    ups = np.zeros(grid.shape)
    for alpha in multi_indices(grid.dim, m):
        du = diff(u, alpha, grid)
        psi += du * du
        dr = diff(r, alpha, grid)
        ups += np.sum(dr * dr, axis=-1)
    return EnergyFields(psi=psi, upsilon=ups)


def _unit_index(dim: int, axis: int) -> tuple[int, ...]:
    idx = [0] * dim
    idx[axis] = 1
    return tuple(idx)


def _pair_index(dim: int, i: int, j: int) -> tuple[int, ...]:
    idx = [0] * dim
    idx[i] += 1
    idx[j] += 1
    return tuple(idx)


def theta(
    u: np.ndarray,
    r: np.ndarray,
    f: np.ndarray,
    derived: DerivedCoefficients,
    config: EnergyConfig,
) -> np.ndarray:
    """Pointwise energy production density of the transformed pair (u, r).

    Three groups: twice G'(Psi) times the derivative pairing of u against
    the full transformed generator applied to (u, r) plus f; minus G'(Psi)
    times the derivative square sum of the mismatch q = r - sigma . grad u;
    minus twice G''(Psi) times the squared derivative correlation between
    u and that mismatch.
    """
    smp = derived.sample
    grid = smp.grid
    d = grid.dim
    u = np.asarray(u, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if u.shape != grid.shape or f.shape != grid.shape:
        raise ValueError(f"u and f must have grid shape {grid.shape}")
    if r.shape[:-1] != grid.shape:
        raise ValueError(f"r must have shape {grid.shape} + (d',), got {r.shape}")

    grad_u = np.stack([diff(u, _unit_index(d, i), grid) for i in range(d)], axis=-1)
    a2 = smp.a - 2.0 * derived.alpha
    bracket = np.zeros(grid.shape)
    for i in range(d):
        for j in range(d):
            bracket += a2[..., i, j] * diff(u, _pair_index(d, i, j), grid)
    bracket += component_dot(derived.b_tilde, grad_u)
    bracket += smp.c * u
    for i in range(d):
        bracket += component_dot(smp.sigma[..., i, :], diff(r, _unit_index(d, i), grid))
    bracket += component_dot(smp.nu, r) + f

    mismatch = r - component_dot(smp.sigma, grad_u[..., :, None], axis=-2)

    psi = np.zeros(grid.shape)
    group1 = np.zeros(grid.shape)
    group2 = np.zeros(grid.shape)
    cross = np.zeros(r.shape)
    for alpha in multi_indices(d, config.m):
        du = diff(u, alpha, grid)
        psi += du * du
        group1 += du * diff(bracket, alpha, grid)
        dq = diff(mismatch, alpha, grid)
        group2 += np.sum(dq * dq, axis=-1)
        cross += du[..., None] * dq
    g1 = config.g.g1(psi)
    g2 = config.g.g2(psi)
    return 2.0 * g1 * group1 - g1 * group2 - 2.0 * g2 * np.sum(cross * cross, axis=-1)


@dataclass(frozen=True)
class BasicEstimateReport:
    """One-sided bound check: lhs = integral of Theta against the split RHS.

    rhs(C) = -(1 - eps_lemma) I + (C / eps_lemma) J + F with
    I = int G'(Psi) Upsilon, J = int [G(Psi) + G'(Psi) Psi] and
    F = sum_beta int G'(Psi) |D^beta f|^2.  minimal_c is the smallest
    nonnegative constant closing the inequality at this eps_lemma.
    """

    holds: bool
    slack: float
    minimal_c: float
    c_fit: float
    lhs: float
    i_integral: float
    j_integral: float
    f_integral: float
    eps_lemma: float


def check_basic_estimate(
    u: np.ndarray,
    r: np.ndarray,
    f: np.ndarray,
    coeffs: CoefficientSet,
    grid: SpatialGrid,
    config: EnergyConfig,
    eps_lemma: float,
    c_fit: float | None = None,
) -> BasicEstimateReport:
    """Measure the basic energy inequality on explicit fields.

    The coefficients are sampled at t = 0, W = 0, where degenerate
    parabolicity is checked as a precondition.  When c_fit is omitted the
    verdict uses the minimal constant, so it holds by construction and the
    report's value is the constant itself.
    """
    if not (0 < eps_lemma < 1):
        raise ValueError(f"eps_lemma must lie in (0, 1), got {eps_lemma}")
    check_parabolicity(coeffs, grid).enforce()
    smp = coeffs.sample(0.0, None, grid)
    derived = derive_from_sample(smp)
    vol = grid.cell_volume

    th = theta(u, r, f, derived, config)
    lhs = float(np.sum(th)) * vol

    fields = energy_fields(u, r, grid, config.m)
    g1 = config.g.g1(fields.psi)
    i_integral = float(np.sum(g1 * fields.upsilon)) * vol
    j_integral = float(np.sum(config.g.g(fields.psi) + g1 * fields.psi)) * vol
    f_sq = np.zeros(grid.shape)
    for alpha in multi_indices(grid.dim, config.m):
        df = diff(f, alpha, grid)
        f_sq += df * df
    f_integral = float(np.sum(g1 * f_sq)) * vol

    if j_integral > 0:
        minimal = eps_lemma * (lhs + (1.0 - eps_lemma) * i_integral - f_integral) / j_integral
        minimal = max(0.0, minimal)
    else:
        minimal = 0.0
    tested = minimal if c_fit is None else float(c_fit)
    rhs = -(1.0 - eps_lemma) * i_integral + (tested / eps_lemma) * j_integral + f_integral
    slack = rhs - lhs
    tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return BasicEstimateReport(
        holds=bool(lhs <= rhs + tol),
        slack=slack,
        minimal_c=minimal,
        c_fit=tested,
        lhs=lhs,
        i_integral=i_integral,
        j_integral=j_integral,
        f_integral=f_integral,
        eps_lemma=eps_lemma,
    )


# -- solution-level estimates -----------------------------------------------------


VERDICT_OK = "ok"
VERDICT_TRIVIAL = "trivial"
VERDICT_ESTIMATE_VIOLATED = "violated"


@dataclass(frozen=True)
class EstimateEntry:
    """One inequality: measured sides and the fitted constant lhs / rhs."""

    name: str
    lhs: float
    rhs: float
    c_fit: float
    verdict: str


@dataclass(frozen=True)
class EstimateReport:
    """Solution estimates with the run's discretisation metadata attached.

    level_norms holds norms.csv's (u_l2, u_m1, r_l2) for levels 0..n, the
    same for every p: sqrt(E ||u_n||^2_{0,2}), sqrt(E ||u_n||^2_{m1,2}) and
    sqrt(E ||r_n||^2_{0,2}), with r_l2 None at level n.
    """

    entries: dict
    m1: int
    p: float
    viscosity: float
    dt: float
    h: float
    grid_points: int
    grid_dim: int
    n_steps: int
    tree_mode: str
    level_norms: tuple

    def entry(self, name: str) -> EstimateEntry:
        return self.entries[name]


def _entry(name: str, lhs: float, rhs: float) -> EstimateEntry:
    if rhs > 0:
        return EstimateEntry(name, lhs, rhs, lhs / rhs, VERDICT_OK)
    if lhs > 0:
        return EstimateEntry(name, lhs, rhs, math.inf, VERDICT_ESTIMATE_VIOLATED)
    return EstimateEntry(name, lhs, rhs, math.nan, VERDICT_TRIVIAL)


def _expected_running_sup(tree, values: list[np.ndarray], leaf_probabilities: np.ndarray) -> float:
    """E max over levels of per-node scalars, pushed down the tree.

    A node's running record is the max over its parents' records and its
    own value.  Exact on the full tree, where every node has one parent and
    leaves enumerate paths.  On the recombining lattice a state has up to
    two parents, so the record is an upper bound for the pathwise supremum
    (exact for per-level-deterministic values).
    """
    record = np.asarray(values[0], dtype=np.float64)
    for level in range(1, tree.n_steps + 1):
        inherited = np.full(tree.level_sizes[level], -np.inf)
        for kids in tree.child_ranges(level - 1):
            inherited[kids] = np.maximum(inherited[kids], record)
        record = np.maximum(inherited, np.asarray(values[level], dtype=np.float64))
    return float(np.sum(leaf_probabilities * record))


def _expected(probabilities: np.ndarray, per_node: np.ndarray) -> float:
    if per_node.shape[0] == 1:
        return float(per_node[0])
    return float(np.sum(probabilities * per_node))


def verify_main_estimates(
    solution: SolutionPair, problem: ProblemData, m1: int, p: float = 2.0
) -> EstimateReport:
    """Measure the two solution estimates on a computed backward solve.

    "energy_l2":  E sup_t ||u||_{m1,2}^2 + E sum_n dt ||r_n||_{m1,2}^2
                  against E(||phi||_{m1,2}^2 + sum_n dt ||f_n||_{m1,2}^2).
    "sup_p":      E sup_t ||u||_{m1,p}^p against
                  E(||phi||_{m1,p}^p + sum_n dt ||f_n||_{m1,p}^p).

    A zero right side with a positive left side is flagged as a violation:
    zero data admits only the zero solution.  The one-exponent case of
    main_estimate_reports.
    """
    return _estimate_reports(solution, problem, m1, (p,))[0]


def main_estimate_reports(
    solution: SolutionPair, problem: ProblemData, m1: int, exponents
) -> list[EstimateReport]:
    """verify_main_estimates for every exponent p in `exponents`, in one pass.

    Each report is == verify_main_estimates(solution, problem, m1, p): one
    derivative pass over each row of u, r and f feeds the squared sums,
    every p-th-power sum and the per-level rows in level_norms, and the
    forcing is sampled once per level.
    """
    return _estimate_reports(solution, problem, m1, tuple(exponents))


def _estimate_reports(
    solution: SolutionPair, problem: ProblemData, m1: int, exponents: tuple
) -> list[EstimateReport]:
    """The pass both public entries run; one EstimateReport per exponent, in order."""
    if not (0 <= m1 <= MAX_DERIVATIVE_ORDER):
        raise ValueError(f"m1 must lie in [0, {MAX_DERIVATIVE_ORDER}], got {m1}")
    for p in exponents:
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
    tree, grid = problem.tree, problem.grid
    n = tree.n_steps
    dt = tree.time_grid.dt

    # norms per stored row, expanded to nodes before any weighted sum; the
    # lists and terms indexed by exponent follow `exponents`.  level_norms
    # keeps norms.csv's p @ per-node sums, which can round apart from _expected
    u, r = solution.u, solution.r
    r_row_bytes = 8 * grid.size * tree.wiener_dim
    u_sq, u_p = [], [[] for _ in exponents]
    level_norms = []
    r_term = f_sq_term = 0.0
    f_p_terms = [0.0] * len(exponents)
    for level in range(n + 1):
        prob = tree.level_probabilities(level)
        sq, powers, l2 = _level_norms(u.levels[level], grid, m1, exponents)
        u_sq.append(u.per_node(level, sq))
        for levels, pw in zip(u_p, powers):
            levels.append(u.per_node(level, pw))
        u_l2 = math.sqrt(float(prob @ u.per_node(level, l2)))
        u_m1 = math.sqrt(float(prob @ u_sq[level]))
        if level == n:
            level_norms.append((u_l2, u_m1, None))
            break
        # r in row blocks: a level that computes r on read builds one block at a time
        r_sq, r_l2 = np.empty((2, len(u.levels[level])))
        for rows in node_blocks(len(r_sq), r_row_bytes):
            r_sq[rows], _, r_l2[rows] = _level_norms(r.rows(level, rows), grid, m1)
        r_term += dt * _expected(prob, r.per_node(level, r_sq))
        level_norms.append((u_l2, u_m1, math.sqrt(float(prob @ r.per_node(level, r_l2)))))
        f_rows, f_inv = level_forcing(problem, level)
        f_sq, f_powers, _ = _level_norms(f_rows, grid, m1, exponents)
        if f_inv is not None:
            f_sq, f_powers = f_sq[f_inv], [f_p[f_inv] for f_p in f_powers]
        f_sq_term += dt * _expected(prob, f_sq)
        for i, f_p in enumerate(f_powers):
            f_p_terms[i] += dt * _expected(prob, f_p)

    leaf = tree.level_probabilities(n)
    energy_l2 = _entry(
        "energy_l2",
        _expected_running_sup(tree, u_sq, leaf) + r_term,
        _expected(leaf, u_sq[n]) + f_sq_term,
    )
    reports = []
    for p, levels, f_p_term in zip(exponents, u_p, f_p_terms):
        lhs_p = _expected_running_sup(tree, levels, leaf)
        phi_p = _expected(leaf, levels[n])
        reports.append(
            EstimateReport(
                entries={"energy_l2": energy_l2, "sup_p": _entry("sup_p", lhs_p, phi_p + f_p_term)},
                m1=m1,
                p=p,
                viscosity=float(solution.meta.get("viscosity", 0.0)),
                dt=dt,
                h=grid.h,
                grid_points=grid.points,
                grid_dim=grid.dim,
                n_steps=n,
                tree_mode=tree.mode,
                level_norms=tuple(level_norms),
            )
        )
    return reports


# -- sweeps -------------------------------------------------------------------------


SWEEP_COLUMNS = ("sweep_value", "lhs", "rhs", "c_fit")

SWEEP_VISCOSITY = "viscosity"
SWEEP_EXPONENT = "exponent"


@dataclass(frozen=True)
class SweepTable:
    """C_fit rows over a parameter sweep; columns as in SWEEP_COLUMNS.

    continuation: a viscosity sweep's gaps (two or more positive values), or None.
    """

    kind: str
    rows: list
    m1: int
    continuation: ContinuationResult | None = None

    def column(self, name: str) -> list:
        idx = SWEEP_COLUMNS.index(name)
        return [row[idx] for row in self.rows]


def constant_sweep(
    problem: ProblemData,
    kind: str,
    values,
    config: SolverConfig | None = None,
    m1: int = 0,
) -> SweepTable:
    """Fit the estimate constant along a viscosity or exponent sweep.

    A viscosity sweep re-solves per value and reads the quadratic energy
    entry; boundedness of the column as the viscosity vanishes is the
    discrete shadow of the constant being independent of the degeneracy
    margin.  An exponent sweep solves once and reads the p-power entry per
    value, where the constant may grow like a fixed exponential rate in p.
    A viscosity sweep of two or more positive values also takes the
    continuation gaps, largest viscosity first, from the same solves.
    """
    base = config or SolverConfig()
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("sweep values are empty")
    rows = []
    continuation = None
    if kind == SWEEP_VISCOSITY:
        if any(v < 0 for v in vals):
            raise ValueError(f"viscosities must be >= 0, got {vals}")
        if len(set(vals)) < len(vals):
            raise ValueError(f"viscosities must be distinct, got {vals}")
        solutions = {eps: solve(problem, dc_replace(base, viscosity=eps)) for eps in vals}
        for eps, sol in solutions.items():
            entry = verify_main_estimates(sol, problem, m1=m1).entry("energy_l2")
            rows.append((eps, entry.lhs, entry.rhs, entry.c_fit))
        if len(vals) >= 2 and min(vals) > 0:
            schedule = sorted(vals, reverse=True)
            gaps = continuation_gaps(problem, [solutions[eps] for eps in schedule], m1)
            continuation = ContinuationResult(tuple(schedule), *gaps, None, len(schedule))
    elif kind == SWEEP_EXPONENT:
        if any(v < 2 for v in vals):
            raise ValueError(f"exponents must be >= 2, got {vals}")
        sol = solve(problem, base)
        for rep in main_estimate_reports(sol, problem, m1, vals):
            entry = rep.entry("sup_p")
            rows.append((rep.p, entry.lhs, entry.rhs, entry.c_fit))
    else:
        raise ValueError(f"kind must be '{SWEEP_VISCOSITY}' or '{SWEEP_EXPONENT}', got {kind!r}")
    return SweepTable(kind=kind, rows=rows, m1=m1, continuation=continuation)
