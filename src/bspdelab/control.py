"""Controlled forward dynamics, cost, adjoint coupling, and policy tools.

The forward state follows an explicit Euler-Maruyama recursion on the same
Bernoulli tree the backward solver uses,

    xi_{n+1} = xi_n + dt (L(t, v) xi_n + F) + (M^k(t, v) xi_n + G^k) dW^k,

with L in divergence form, L phi = D_i(a^{ij} D_j phi) + b^i D_i phi + c phi,
and M^k phi = sigma^{ik} D_i phi + nu^k phi.  The solver evolves the
conditional mean of xi given the node: each child collects the
probability-weighted steps of its parents, divided by its own probability.
The recursion is affine in xi, hence the means are exact, and every
downstream functional here (cost, Hamiltonian pairings, duality sums) is
linear in xi, so nothing is lost.  On a full tree every child has one parent
and the weights are equal powers of two, so the push is the pathwise
recursion bit for bit; on the recombining lattice, where the pathwise state
is not a function of the node, it is the exact mean over the paths to it.

The adjoint pair (u, q) comes from the backward solver run with the formal
adjoints L* u = D_i(a^{ij} D_j u) - D_i(b^i u) + c u and
M^{k*} q = -D_i(sigma^{ik} q^k) + nu^k q^k, terminal weight phi and forcing
equal to the running cost density under the current policy.  Because both
sweeps share one grid and one tree, summation by parts makes the discrete
pairings exactly adjoint, which is what keeps the duality defect tight:

    J = <xi_0, u(0)> + sum_n dt E[<F, u(t_n)> + <G^k, q^k(t_n)>] + O(dt).

Replacing u(t_n) by the predictor ubar_n = E_n u(t_{n+1}) turns the O(dt)
remainder into an exact telescoping identity for the explicit single-pass
scheme; duality_check reports both gaps.

A ControlProblem samples its fields once, at construction; the table of at
most |gamma| (n + 2) sampled states feeds everything below, the CFL bound
included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .coefficients import (
    CoefficientDataError,
    CoefficientSet,
    check_rows,
    constant_sampler,
    parabolicity_report,
)
from .grid import (
    SpatialGrid,
    batch_divergence,
    batch_gradient,
    component_dot,
    inner_product,
)
from .lattice import (
    AdaptedGridField,
    BudgetExceededError,
    PathTree,
    UnsupportedModeError,
    level_conditional_expectation,
    row_groups,
)
from .solver import (
    CflReport,
    LevelCoefficients,
    ProblemData,
    SolutionPair,
    SolverBlowupError,
    SolverConfig,
    solve,
)

# the adjoint pair is a plain backward solution under the policy-frozen data
AdjointPair = SolutionPair

MAX_REPORTED_FAILURES = 20


class PolicyOscillationWarning(UserWarning):
    """Policy iteration entered a period-2 cycle; the best-cost iterate wins."""


@dataclass(frozen=True)
class _ControlTable:
    """Every field at every sampled (time row, control): (rows, |gamma|, *grid, ...).

    Rows 0..n-1 are the step levels t_0..t_{n-1}; then come T/2, unless it is
    a step time, and T, which only the checks and the forward CFL bound read.
    Indexing with [row, control] indexes every field the same way.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray
    big_f: np.ndarray
    big_g: np.ndarray
    cost_f: np.ndarray

    def __getitem__(self, key) -> "_ControlTable":
        return _ControlTable(*(getattr(self, f.name)[key] for f in fields(self)))


@dataclass(frozen=True)
class ControlProblem:
    """A finite-control SPDE steering problem on a fixed grid and tree.

    Samplers take (t, v, grid) and return grid fields; None means zero.
    Shapes: a (grid, d, d) symmetric, b (grid, d), c (grid,),
    sigma (grid, d, d'), nu (grid, d'), big_f and cost_f (grid,),
    big_g (grid, d').  Scalar returns broadcast.  gamma lists the admissible
    control values; ties in any argmax resolve to the earliest entry.

    Construction samples every field once at every (t, v) the problem can
    read: each v in gamma at every step time t_0..t_{n-1}, at T/2 and at T.
    check_rows and parabolicity_report, the checks of CoefficientSet, refuse
    a non-finite field, an asymmetric a or 2a - sigma sigma^T not psd on
    one row per (t, v), naming t and v (the worst state for 2a - sigma
    sigma^T, first on ties, control index inner).  The samples stay in one
    table that the forward sweep, the adjoint, the Hamiltonian, the cost
    and the CFL bound all read; no sampler is called after construction.  It
    holds at most |gamma| (n + 2) grid.size (d^2 + d + d d' + 2 d' + 3) float64 values.
    """

    grid: SpatialGrid
    tree: PathTree
    gamma: tuple
    terminal_phi: np.ndarray
    xi0: np.ndarray
    a: object = None
    b: object = None
    c: object = None
    sigma: object = None
    nu: object = None
    big_f: object = None
    big_g: object = None
    cost_f: object = None
    name: str = ""
    _table: _ControlTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(self.gamma))
        if len(self.gamma) == 0:
            raise ValueError("gamma must list at least one control value")
        for attr in ("terminal_phi", "xi0"):
            arr = np.asarray(getattr(self, attr), dtype=np.float64)
            if arr.shape != self.grid.shape:
                raise ValueError(
                    f"{attr} shape {arr.shape} != grid shape {self.grid.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{attr} contains non-finite values")
            object.__setattr__(self, attr, arr)
        d, dw = self.grid.dim, self.tree.wiener_dim
        suffixes = {
            "a": (d, d),
            "b": (d,),
            "c": (),
            "sigma": (d, dw),
            "nu": (dw,),
            "big_f": (),
            "big_g": (dw,),
            "cost_f": (),
        }
        time_grid = self.tree.time_grid
        steps = time_grid.times[:-1].tolist()
        # table rows: the step levels, then T/2 unless it is one of them, then T
        times = steps + [t for t in (0.5 * time_grid.horizon, time_grid.horizon) if t not in steps]
        lead = (len(times), len(self.gamma)) + self.grid.shape
        # unset fields stay zero
        table = {n: np.zeros(lead + sfx) for n, sfx in suffixes.items()}
        for gi, v in enumerate(self.gamma):
            for row, t in enumerate(times):
                for name, values in table.items():
                    fn = getattr(self, name)
                    if fn is None:
                        continue
                    arr = np.asarray(fn(t, v, self.grid), dtype=np.float64)
                    target = values.shape[2:]
                    try:
                        values[row, gi] = np.broadcast_to(arr, target)
                    except ValueError:
                        raise CoefficientDataError(
                            f"{name} sampled shape {arr.shape} does not broadcast to {target}"
                        ) from None
        # one row per (time row, control), control index inner
        rows = {name: values.reshape((-1,) + values.shape[2:]) for name, values in table.items()}
        states = [{"t": float(t), "v": v} for t in times for v in self.gamma]
        check_rows(rows, d, lambda row: "t = {t!r}, v = {v!r}".format(**states[row]))
        parabolicity_report(rows["a"], rows["sigma"], self.grid, states).enforce()
        object.__setattr__(self, "_table", _ControlTable(**table))


@dataclass(frozen=True)
class ControlPolicy:
    """Adapted control choice: one gamma index per node on levels 0..n-1.

    Indices are stored as int64.  Integer arrays and integral floats (1.0)
    pass; an entry that is not an integer (0.7, -0.2, nan, True) is refused
    with a ValueError naming its level, not truncated to a control the
    caller did not choose.
    """

    indices: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "indices",
            tuple(_integer_indices(level, arr) for level, arr in enumerate(self.indices)),
        )

    def dump(self, gamma: tuple) -> list:
        """Node -> control listing, JSON-shaped."""
        rows = []
        for level, arr in enumerate(self.indices):
            for index, gi in enumerate(arr):
                rows.append(
                    {"level": level, "index": index, "control": gamma[int(gi)]}
                )
        return rows


def _integer_indices(level: int, values) -> np.ndarray:
    arr = np.asarray(values)
    integral = arr.dtype.kind in "iu" or (
        arr.dtype.kind == "f" and bool(np.all(np.isfinite(arr) & (arr == np.trunc(arr))))
    )
    if not integral:
        raise ValueError(f"policy level {level} holds control indices that are not integers")
    return arr.astype(np.int64)


def constant_policy(tree: PathTree, index: int = 0) -> ControlPolicy:
    """The policy playing gamma[index] at every non-leaf node."""
    return ControlPolicy(
        tuple(
            np.full(tree.level_sizes[level], index, dtype=np.int64)
            for level in range(tree.n_steps)
        )
    )


def policies_equal(p1: ControlPolicy, p2: ControlPolicy) -> bool:
    if len(p1.indices) != len(p2.indices):
        return False
    return all(np.array_equal(x, y) for x, y in zip(p1.indices, p2.indices))


def _validate_policy(problem: ControlProblem, policy: ControlPolicy) -> None:
    tree = problem.tree
    if len(policy.indices) != tree.n_steps:
        raise ValueError(
            f"policy covers {len(policy.indices)} levels, tree has {tree.n_steps}"
        )
    for level, arr in enumerate(policy.indices):
        if arr.shape != (tree.level_sizes[level],):
            raise ValueError(
                f"policy level {level} has shape {arr.shape}, "
                f"expected ({tree.level_sizes[level]},)"
            )
        if arr.min() < 0 or arr.max() >= len(problem.gamma):
            raise ValueError(f"policy level {level} indexes outside gamma")


def _generator_apply(xi, smp: _ControlTable, grid: SpatialGrid):
    """(L xi, M xi) for a batch xi (nodes, *grid) from one gradient of xi."""
    du = batch_gradient(xi, grid)
    m_xi = component_dot(smp.sigma, du[..., :, None], axis=-2) + smp.nu * xi[..., None]
    # in place: exhaustive_policy_search applies this to all of a level's (path, node) states at once
    l_xi = batch_divergence(component_dot(smp.a, du[..., None, :]), grid)
    l_xi += component_dot(smp.b, du)
    l_xi += smp.c * xi
    return l_xi, m_xi


def forward_cfl(problem: ControlProblem) -> CflReport:
    """Explicit step bounds for the forward scheme, maximized over gamma.

    The bound reads the whole sample table, every step time plus T/2 and T,
    so a coefficient spike on any level the forward sweep steps through
    shows in it.  The margin is SolverConfig's default cfl_safety, 0.9.
    """
    table = problem._table
    samples = [(table.a, table.b, table.sigma)]
    return CflReport.from_samples(samples, problem.tree.time_grid, problem.grid, 0.0, SolverConfig().cfl_safety)


@dataclass
class ForwardState:
    """Forward solution: per-level conditional means of xi given the node.

    One conditional-mean push makes every level.  On full trees the node
    determines the path, so mean[level] is the pathwise state, `==` the
    pathwise recursion; on recombining trees it is the exact conditional
    mean, which every cost and duality functional below needs and nothing
    more.
    """

    mean: AdaptedGridField
    tree: PathTree
    meta: dict = field(default_factory=dict)


def _played_controls(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The controls a level's policy indices play, ascending, and the node -> row
    map (None when one control serves every node), in the form
    PathTree.level_states gives Wiener states: indices are small non-negative
    integers, so counting groups them."""
    counts = np.bincount(indices)
    controls = np.flatnonzero(counts)
    if controls.size == 1:
        return controls, None
    return controls, (np.cumsum(counts > 0) - 1)[indices]


def _forward_level_terms(problem, policy, level, xi):
    """Drift L xi + F and martingale loading M xi + G, grouped by control."""
    drift = np.empty_like(xi)
    mart = np.empty(xi.shape + (problem.tree.wiener_dim,))
    controls, inv = _played_controls(policy.indices[level])
    for row, sel in row_groups(inv):
        smp = problem._table[level, int(controls[row])]
        l_xi, m_xi = _generator_apply(xi[sel], smp, problem.grid)
        drift[sel] = l_xi + smp.big_f
        mart[sel] = m_xi + smp.big_g
    return drift, mart


def solve_forward(problem: ControlProblem, policy: ControlPolicy) -> ForwardState:
    """March xi forward from xi0 under the policy; CflReport.enforce checks the explicit step.

    The push divides by the node probabilities, so a recombining lattice
    whose probabilities underflow to 0.0 (from level 1075 on) is refused
    before the sweep.
    """
    _validate_policy(problem, policy)
    tree, grid = problem.tree, problem.grid
    zero = tree.first_zero_probability_level()
    if zero is not None:
        raise BudgetExceededError(
            f"recombining node probabilities underflow to 0.0 from level {zero} on, and the "
            f"forward push divides by them: use n_steps <= {zero - 1} (got {tree.n_steps})"
        )
    dt = tree.time_grid.dt
    report = forward_cfl(problem)
    report.enforce(explicit=True, term="sigma grad xi")

    levels = [np.broadcast_to(problem.xi0, (1,) + grid.shape).copy()]
    incr = tree.increments()
    wshape = (-1,) + (1,) * grid.dim
    p = tree.level_probabilities(0).reshape(wshape)
    for level in range(tree.n_steps):
        xi = levels[level]
        drift, mart = _forward_level_terms(problem, policy, level, xi)
        stepped = xi + dt * drift
        kick = np.einsum("n...k,ck->nc...", mart, incr)
        # push probability-weighted means through the affine step: each child
        # collects p / k times its parents' stepped states
        w = p / tree.child_count
        p = tree.level_probabilities(level + 1).reshape(wshape)
        new = np.zeros((len(p),) + grid.shape)
        for c, kids in enumerate(tree.child_ranges(level)):
            new[kids] += w * (stepped + kick[:, c])
        new /= p
        if not np.all(np.isfinite(new)):
            raise SolverBlowupError(
                f"forward state lost finiteness advancing level {level}; "
                "check the CFL margin and the coupling indicator"
            )
        levels.append(new)
    meta = {
        "dt": dt,
        "h": grid.h,
        "tree_mode": tree.mode,
        "cfl": report,
    }
    return ForwardState(mean=AdaptedGridField(levels), tree=tree, meta=meta)


def cost(problem: ControlProblem, policy: ControlPolicy, forward) -> float:
    """J = sum_n dt E<f(t, V), xi(t)> + E<phi, xi(T)>, exact on the tree."""
    _validate_policy(problem, policy)
    xi = forward.mean
    tree, grid = problem.tree, problem.grid
    dt, vol = tree.time_grid.dt, grid.cell_volume
    gax = tuple(range(1, 1 + grid.dim))
    total = 0.0
    for level in range(tree.n_steps):
        f_nodes = problem._table.cost_f[level, policy.indices[level]]
        vals = np.sum(f_nodes * xi[level], axis=gax) * vol
        p = tree.level_probabilities(level)
        total += dt * float(p @ np.broadcast_to(vals, p.shape))
    p = tree.level_probabilities(tree.n_steps)
    terminal = np.sum(problem.terminal_phi * xi[tree.n_steps], axis=gax) * vol
    return total + float(p @ terminal)


def solve_adjoint(
    problem: ControlProblem,
    policy: ControlPolicy,
    config: SolverConfig | None = None,
) -> AdjointPair:
    """Backward pair (u, q) for the formal adjoint under the frozen policy.

    The adjoint operators are D_i(a^{ij} D_j u) - D_i(b^i u) + c u and
    -D_i(sigma^{ik} q^k) + nu^k q^k; terminal data is phi and the forcing is
    the running cost density evaluated along the policy.  Each level's
    coefficients and forcing are the sample table's rows of the controls it
    plays, one row per distinct control under one node -> row map, so the
    backward solver sees exactly the fields the forward sweep used and steps
    each distinct (children rows, played control) state once.
    """
    _validate_policy(problem, policy)
    grid, tree, table = problem.grid, problem.tree, problem._table
    d = grid.dim
    # level_coeffs supplies every coefficient; this set only fixes the dimensions
    dimensions = CoefficientSet(
        dim=d, wiener_dim=tree.wiener_dim, a=constant_sampler(0.0, (d, d))
    )

    def level_coeffs(level: int) -> LevelCoefficients:
        controls, inv = _played_controls(policy.indices[level])
        rows = table[level, controls]
        return LevelCoefficients(
            a=rows.a, b=rows.b, c=rows.c, sigma=rows.sigma, nu=rows.nu, inv=inv
        )

    def level_cost(level: int):
        controls, inv = _played_controls(policy.indices[level])
        return table.cost_f[level, controls], inv

    adjoint_data = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=dimensions,
        terminal=lambda w, g: problem.terminal_phi,
        forcing_level=level_cost,
        level_coefficients=level_coeffs,
        operator_kind="adjoint",
    )
    return solve(adjoint_data, config)


def _level_hamiltonians(problem, level, xi_level, u_level, q_level) -> np.ndarray:
    """H(node, v) for every node at a level and every v: shape (nodes, |gamma|).

    H = -<L xi, u> - <F, u> - <M^k xi, q^k> - <G^k, q^k> - <f, xi>.
    """
    grid = problem.grid
    vol = grid.cell_volume
    gax = tuple(range(1, 1 + grid.dim))
    qax = gax + (1 + grid.dim,)
    out = np.empty((xi_level.shape[0], len(problem.gamma)))
    for gi in range(len(problem.gamma)):
        smp = problem._table[level, gi]
        lxi, mxi = _generator_apply(xi_level, smp, grid)
        out[:, gi] = -(
            np.sum(lxi * u_level, axis=gax)
            + np.sum(smp.big_f * u_level, axis=gax)
            + np.sum((mxi + smp.big_g) * q_level, axis=qax)
            + np.sum(smp.cost_f * xi_level, axis=gax)
        ) * vol
    return out


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Per-node certification of H(policy) >= max_v H - tol.

    flat nodes (max_v H - min_v H below resolution) pass vacuously and are
    counted separately rather than interpreted.
    """

    pass_fraction: float
    n_nodes: int
    n_failures: int
    n_flat: int
    flat_fraction: float
    tol: float
    failures: list


def check_max_principle(
    problem: ControlProblem,
    policy: ControlPolicy,
    forward,
    adjoint: AdjointPair,
    tol: float | None = None,
) -> MaxPrincipleReport:
    """Certify the maximum condition node by node under one policy.

    tol defaults to 5 (dt + h^2) scaled by the largest |H| seen, the
    first-order-in-time, second-order-in-space scheme error.
    """
    _validate_policy(problem, policy)
    return _max_principle(problem, policy, _hamiltonians(problem, forward, adjoint), tol)


def _hamiltonians(problem, forward, adjoint) -> list:
    """_level_hamiltonians on every level 0..n-1."""
    xi = forward.mean
    return [
        _level_hamiltonians(problem, level, xi[level], adjoint.u[level], adjoint.q[level])
        for level in range(problem.tree.n_steps)
    ]


def _max_principle(problem, policy, all_h: list, tol) -> MaxPrincipleReport:
    """check_max_principle's report from the policy's Hamiltonians, one array per level."""
    dt, h = problem.tree.time_grid.dt, problem.grid.h
    h_scale = max(1.0, max(float(np.abs(hl).max()) for hl in all_h))
    if tol is None:
        tol = 5.0 * (dt + h * h) * h_scale
    flat_tol = 1e-12 * h_scale

    n_nodes = n_failures = n_flat = 0
    failures = []
    for level, hl in enumerate(all_h):
        chosen = hl[np.arange(hl.shape[0]), policy.indices[level]]
        best = hl.max(axis=1)
        gaps = best - chosen
        flat = (best - hl.min(axis=1)) <= flat_tol
        bad = gaps > tol
        n_nodes += hl.shape[0]
        n_flat += int(flat.sum())
        n_failures += int(bad.sum())
        for index in np.flatnonzero(bad)[:MAX_REPORTED_FAILURES]:
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(
                    {"level": level, "index": int(index), "gap": float(gaps[index])}
                )
    return MaxPrincipleReport(
        pass_fraction=1.0 - n_failures / n_nodes,
        n_nodes=n_nodes,
        n_failures=n_failures,
        n_flat=n_flat,
        flat_fraction=n_flat / n_nodes,
        tol=float(tol),
        failures=failures,
    )


@dataclass(frozen=True)
class DualityReport:
    """Cost against the adjoint representation, two independent code paths.

    defect pairs F with the post-step u(t_n) and decays first order in dt;
    predictor_gap pairs F with the predictor E_n u(t_{n+1}) instead, which
    telescopes exactly for the explicit single-pass scheme and should sit at
    rounding level.
    """

    j_direct: float
    dual_value: float
    defect: float
    predictor_dual: float
    predictor_gap: float


def duality_check(
    problem: ControlProblem,
    policy: ControlPolicy,
    forward,
    adjoint: AdjointPair,
) -> DualityReport:
    """defect = |J - (E<xi0, u(0)> + sum_n dt E[<F, u> + <G^k, q^k>])|."""
    _validate_policy(problem, policy)
    tree, grid = problem.tree, problem.grid
    dt, vol = tree.time_grid.dt, grid.cell_volume
    gax = tuple(range(1, 1 + grid.dim))
    qax = gax + (1 + grid.dim,)

    j_direct = cost(problem, policy, forward)
    base = inner_product(problem.xi0, adjoint.u[0][0], grid)
    acc = acc_pred = 0.0
    for level in range(tree.n_steps):
        p = tree.level_probabilities(level)
        f_big = problem._table.big_f[level, policy.indices[level]]
        g_big = problem._table.big_g[level, policy.indices[level]]
        ubar = level_conditional_expectation(tree, adjoint.u[level + 1], level)
        gq = np.sum(g_big * adjoint.q[level], axis=qax) * vol
        fu = np.sum(f_big * adjoint.u[level], axis=gax) * vol
        fubar = np.sum(f_big * ubar, axis=gax) * vol
        acc += dt * float(p @ np.broadcast_to(fu + gq, p.shape))
        acc_pred += dt * float(p @ np.broadcast_to(fubar + gq, p.shape))
    dual = base + acc
    pred = base + acc_pred
    return DualityReport(
        j_direct=j_direct,
        dual_value=dual,
        defect=abs(j_direct - dual),
        predictor_dual=pred,
        predictor_gap=abs(j_direct - pred),
    )


@dataclass
class PolicyIterationRecord:
    """History of successive Hamiltonian maximization from a starting policy.

    final_checks: the final iterate's (DualityReport, MaxPrincipleReport) under diagnostics.
    """

    final_policy: ControlPolicy
    js: list
    iterations: list
    n_iterations: int
    converged: bool
    oscillated: bool
    final_checks: tuple | None = None


def policy_iteration(
    problem: ControlProblem,
    policy: ControlPolicy | None = None,
    max_iters: int = 20,
    solver_config: SolverConfig | None = None,
    tol: float | None = None,
    diagnostics: bool = False,
) -> PolicyIterationRecord:
    """Iterate per-node argmax of H until a fixed point, a cycle, or max_iters.

    A period-2 cycle returns the best-cost iterate with a warning; exhausting
    max_iters also falls back to the best-cost iterate.
    """
    if policy is None:
        policy = constant_policy(problem.tree)
    _validate_policy(problem, policy)
    history = [policy]
    js: list = []
    iteration_rows: list = []
    best_j = math.inf
    best_policy = policy
    checks = best_checks = None
    converged = oscillated = False
    for it in range(max_iters):
        fwd = solve_forward(problem, policy)
        adj = solve_adjoint(problem, policy, solver_config)
        j = cost(problem, policy, fwd)
        js.append(j)
        # one Hamiltonian evaluation per iterate feeds the check and the argmax
        hams = _hamiltonians(problem, fwd, adj)
        if diagnostics:
            duality = duality_check(problem, policy, fwd, adj)
            principle = _max_principle(problem, policy, hams, tol)
            checks = (duality, principle)
            iteration_rows.append(
                {
                    "iteration": it,
                    "j": j,
                    "defect": duality.defect,
                    "pass_fraction": principle.pass_fraction,
                }
            )
        if j < best_j:
            best_j, best_policy = j, policy
        if policy is best_policy:
            best_checks = checks
        # np.argmax takes the first maximizer, honoring gamma's declared order
        new = ControlPolicy(tuple(np.argmax(hl, axis=1) for hl in hams))
        if policies_equal(new, policy):
            converged = True
            break
        if len(history) >= 2 and policies_equal(new, history[-2]):
            oscillated = True
            warnings.warn(
                "policy iteration entered a period-2 cycle; "
                "returning the best-cost iterate",
                PolicyOscillationWarning,
            )
            break
        history.append(new)
        policy = new
    final = policy if converged else best_policy
    return PolicyIterationRecord(
        final_policy=final,
        js=js,
        iterations=iteration_rows,
        n_iterations=len(js),
        converged=converged,
        oscillated=oscillated,
        final_checks=checks if converged else best_checks,
    )


@dataclass(frozen=True)
class ExhaustiveResult:
    """Brute-force optimum over every node -> gamma assignment."""

    policy: ControlPolicy
    j: float
    n_policies: int
    costs: np.ndarray


def _ancestral_paths(n_gamma: int, n_children: int, offsets: list, level: int) -> np.ndarray:
    """Path codes of a level's nodes under every prefix code, (prefixes, nodes).

    A prefix code holds the controls of the offsets[level] nodes above the
    level, one base-|gamma| digit per node.  Digit l of a path code is the
    control of the node's ancestor on level l, node j // k^(level - l)
    there, so it reads prefix digit offsets[l] + j // k^(level - l).
    """
    codes = np.arange(n_gamma ** offsets[level], dtype=np.int64)[:, None]
    nodes = np.arange(offsets[level + 1] - offsets[level])
    paths = np.zeros((codes.shape[0], nodes.size), dtype=np.int64)
    for up in range(level):
        ancestor = offsets[up] + nodes // n_children ** (level - up)
        paths += (codes // n_gamma**ancestor) % n_gamma * n_gamma**up
    return paths


def exhaustive_policy_search(
    problem: ControlProblem,
    budget: int = 2**20,
    workspace_bytes: int = 2**22,
) -> ExhaustiveResult:
    """Evaluate J for all |gamma|^nodes policies, sharing states across ancestral paths.

    Full trees only: the enumeration assigns controls per pathwise node.
    A policy's code has the control index of the j-th non-leaf node (nodes
    ordered level-major) as its j-th base-|gamma| digit.  A node's forward
    state depends only on the controls its ancestors play, so the sweep
    holds one state per (ancestral path, node), |gamma|^L sizes[L] of them
    on level L, and applies the generator once per control to that batch.
    Each level's pairings (running cost, and on the last level the terminal
    pairing of the children) are gathered to the codes of the controls
    above the level and added into each code's J one node at a time; no
    per-policy state or (policies x nodes) table is built.
    `workspace_bytes` (4 MiB by default) caps the largest level's children,
    |gamma|^L * sizes[L] * |gamma| * children * grid points * 8 bytes; it
    and `budget` are checked before the sweep allocates or applies anything.
    The search holds the cost vector, 8 bytes per policy (at most 8 MiB
    under the default budget), plus the largest level's children and a few
    temporaries of its states: on the benchmark's steering instance
    (M = 16, n = 4, 2^15 policies) the tracemalloc peak is 0.38 MiB, of
    which 0.25 MiB is the cost vector and 32 KiB the children.
    """
    tree, grid = problem.tree, problem.grid
    if tree.mode != "full":
        raise UnsupportedModeError(
            "exhaustive search enumerates pathwise policies; use a full tree"
        )
    n_gamma = len(problem.gamma)
    sizes = tree.level_sizes[:-1]
    offsets = [sum(sizes[:level]) for level in range(tree.n_steps + 1)]
    total = offsets[-1]
    n_policies = n_gamma**total
    if n_policies > budget:
        raise BudgetExceededError(
            f"{n_gamma}^{total} = {n_policies} policies exceed budget {budget}"
        )
    n_children = tree.child_count
    states = max(n_gamma**level * size for level, size in enumerate(sizes))
    need = states * n_gamma * n_children * grid.size * 8
    if need > workspace_bytes:
        raise BudgetExceededError(
            f"exhaustive sweep needs {need} bytes for its largest level, over {workspace_bytes}"
        )
    forward_cfl(problem).enforce(explicit=True, term="sigma grad xi")

    dt, vol = tree.time_grid.dt, grid.cell_volume
    gax = tuple(range(2, 2 + grid.dim))
    incr = tree.increments()
    costs = np.zeros(n_policies)
    # xi[path, node]: the level's state under each path of its ancestors' controls
    xi = np.broadcast_to(problem.xi0, (1, 1) + grid.shape)
    for level in range(tree.n_steps):
        n_paths, n_nodes = xi.shape[:2]
        flat = xi.reshape((-1,) + grid.shape)
        pairs = np.empty((n_paths, n_nodes, n_gamma))
        # children[control, path, node, child]: the next level's states, path
        # code control * |gamma|^level + path, node node * k + child
        children = np.empty((n_gamma, n_paths, n_nodes, n_children) + grid.shape)
        for gi in range(n_gamma):
            smp = problem._table[level, gi]
            pairs[:, :, gi] = np.sum(smp.cost_f * xi, axis=gax) * vol
            dr, mt = _generator_apply(flat, smp, grid)
            mt += smp.big_g
            np.einsum("pm...k,ck->pmc...", mt.reshape(xi.shape + (-1,)), incr, out=children[gi])
            # xi + dt (L xi + F), then plus the kick, in place: floating-point
            # sums commute, so these are the out-of-place states, bit for bit
            dr += smp.big_f
            dr *= dt
            stepped = dr.reshape(xi.shape)
            stepped += xi
            children[gi] += stepped[:, :, None]
            del dr, mt, stepped  # freed before the next control's generator runs
        pairs *= dt * tree.level_probabilities(level)[:, None]
        if level + 1 < tree.n_steps:
            xi = children.reshape((-1, n_nodes * n_children) + grid.shape)
        else:
            leaf_probs = tree.level_probabilities(level + 1).reshape(n_nodes, n_children)
            kid_axes = tuple(range(3, 3 + grid.dim))
            for gi in range(n_gamma):
                leaves = np.sum(problem.terminal_phi * children[gi], axis=kid_axes)
                pairs[:, :, gi] += np.sum(leaves * vol * leaf_probs, axis=-1)
        # by_prefix[prefix, node, control]: the pairings each code above the level sees
        by_prefix = pairs[_ancestral_paths(n_gamma, n_children, offsets, level), np.arange(n_nodes)]
        n_prefix = by_prefix.shape[0]
        for j in range(n_nodes):
            # code = prefix + n_prefix (low + |gamma|^j (d_j + |gamma| high)), low < |gamma|^j
            view = costs.reshape(-1, n_gamma, n_gamma**j, n_prefix)
            view += by_prefix[:, j].T[None, :, None, :]

    best = int(np.argmin(costs))
    weights = n_gamma ** np.arange(total, dtype=np.int64)
    chosen = (best // weights) % n_gamma
    levels = tuple(chosen[offsets[level] : offsets[level + 1]] for level in range(tree.n_steps))
    return ExhaustiveResult(
        policy=ControlPolicy(levels),
        j=float(costs[best]),
        n_policies=n_policies,
        costs=costs,
    )


def control_report(
    problem: ControlProblem,
    policy: ControlPolicy | None = None,
    max_iters: int = 20,
    tol: float | None = None,
    solver_config: SolverConfig | None = None,
) -> dict:
    """JSON-shaped experiment record: per-iteration J, defect, pass fraction.

    The final block is the final iterate's checks (no solve is repeated)
    and dumps the final policy node by node.
    """
    record = policy_iteration(
        problem,
        policy,
        max_iters=max_iters,
        solver_config=solver_config,
        tol=tol,
        diagnostics=True,
    )
    final = record.final_policy
    checks = record.final_checks
    if checks is None:  # max_iters = 0: one diagnostic iteration from the final policy
        checks = policy_iteration(problem, final, 1, solver_config, tol, True).final_checks
    duality, principle = checks
    return {
        "name": problem.name,
        "n_steps": problem.tree.n_steps,
        "tree_mode": problem.tree.mode,
        "grid_points": problem.grid.points,
        "gamma": list(problem.gamma),
        "converged": record.converged,
        "oscillated": record.oscillated,
        "n_iterations": record.n_iterations,
        "iterations": record.iterations,
        "final": {
            "j": duality.j_direct,
            "defect": duality.defect,
            "predictor_gap": duality.predictor_gap,
            "pass_fraction": principle.pass_fraction,
            "flat_fraction": principle.flat_fraction,
            "tol": principle.tol,
            "policy": final.dump(problem.gamma),
        },
    }
