"""Semi-implicit assembly, level operators, factor lifetime and forcing.

Core claims:
    - the pattern-filled I - dt A matches a sparse-product construction of
      the second-order part: exactly in 1D without viscosity, to 1e-14 of
      the largest entry otherwise, and A u equals the stencil form
    - in 1D the folded operator has bandwidth 4 for every M >= 8, and the
      banded LAPACK solve of a level equals spsolve of each row's CSC system
      to 1e-13 relative, for nodes sharing a row and rows the block leaves
      unused; a zero pivot raises SingularOperatorError naming the level
      and the row
    - a 1D semi-implicit sweep with coefficients varying in W and t makes
      one banded factorisation per level and keeps at most one level's
      factor alive, across corrector iterations
    - solve, weak_form_residual and oracle_step_residual build the level
      coefficients once per sweep when they are constant, and once per
      level when they vary in t or W or come from level_coefficients
    - a 2D heat solve samples its constant coefficients 3 times: one
      parabolicity probe, one CFL probe and the level operator
    - solve refuses, before sampling anything, a run whose stored u and r
      exceed the workspace byte budget, and names the byte count; q is
      never stored and r counts only where sigma is set, so a sigma-free
      run within the budget for u solves
    - terms whose coefficient is zero everywhere are skipped: a 2D heat
      semi-implicit solve takes no gradient, and r == q on every level
      when sigma = 0 (and not when sigma != 0)
    - with no explicit part (semi-implicit, b = c = 0) a step solves once
      whatever the corrector passes, and returns (u, u) as the repeated
      passes would
    - level_forcing evaluates the forcing alone, sampling no coefficient
    - the centred second-order part annihilates the Nyquist mode, so the
      scheme keeps it undamped (a known limit of the scheme), in 1D and on
      the 2D FFT path
    - in 2D with a constant over the grid, the FFT solve matches the LU
      solve to 1e-12 relative and factorises nothing; SuperLU (splu) serves
      only 2D levels with varying a, one factorisation per (level, row)
    - a vanishing FFT symbol raises SingularOperatorError naming the level
      and the row
"""

import dataclasses
import weakref

import numpy as np
import pytest
from scipy import sparse

from bspdelab import solver
from bspdelab.coefficients import CoefficientSet, constant_sampler
from bspdelab.grid import SpatialGrid, random_smooth_field
from bspdelab.lattice import BudgetExceededError, TimeGrid, build_tree
from bspdelab.oracles import heat_oracle
from bspdelab.solver import (
    KIND_ADJOINT,
    KIND_BSPDE,
    SEMI_IMPLICIT,
    LevelCoefficients,
    ProblemData,
    SingularOperatorError,
    SolverConfig,
    _LevelOperator,
    default_test_functions,
    level_forcing,
    oracle_step_residual,
    problem_from_oracle,
    solve,
    weak_form_residual,
)


# -- reference assembly: products of sparse first-difference matrices ----------


def _reference_shift_ops(grid):
    m = grid.points
    idx = np.arange(m)
    nxt = sparse.csr_matrix((np.ones(m), (idx, (idx + 1) % m)), shape=(m, m))
    s1 = ((nxt - nxt.T) / (2.0 * grid.h)).tocsr()
    if grid.dim == 1:
        return (s1,)
    eye = sparse.identity(m, format="csr")
    return (sparse.kron(s1, eye, format="csr"), sparse.kron(eye, s1, format="csr"))


def _reference_matrix(row, op, grid, eps, kind):
    shift = _reference_shift_ops(grid)
    d = grid.dim
    a = op.coeffs.a[row]
    total = None
    for i in range(d):
        inner = None
        for j in range(d):
            piece = sparse.diags(np.broadcast_to(a[..., i, j], grid.shape).ravel()) @ shift[j]
            inner = piece if inner is None else inner + piece
        term = shift[i] @ inner
        total = term if total is None else total + term
    if eps:
        for i in range(d):
            total = total + eps * (shift[i] @ shift[i])
    if kind == KIND_BSPDE:
        for i in range(d):
            total = total - sparse.diags(
                np.broadcast_to(op.diva[row][..., i], grid.shape).ravel()
            ) @ shift[i]
    return total


def _random_operator(grid, rows, seed, eps, kind):
    """Rows of symmetric, spatially varying a (entries of both signs in 2D)."""
    d = grid.dim
    a = np.empty((rows,) + grid.shape + (d, d))
    k = 0
    for r in range(rows):
        for i in range(d):
            for j in range(i, d):
                field = random_smooth_field(grid, 3, seed + k)
                a[r, ..., i, j] = a[r, ..., j, i] = field if i != j else 1.0 + field**2
                k += 1
    zeros = np.zeros((rows,) + grid.shape)
    sigma = np.zeros((rows,) + grid.shape + (d, 1))
    lc = LevelCoefficients(
        a=a, b=zeros[..., None].repeat(d, -1), c=zeros, sigma=sigma, nu=zeros[..., None],
        inv=np.arange(rows),
    )
    # level rows - 1 of a recombining tree holds `rows` nodes, one row each
    problem = ProblemData(
        grid=grid,
        tree=build_tree(TimeGrid(1.0, rows), 1, "recombining"),
        coefficients=CoefficientSet(dim=d, wiener_dim=1, a=constant_sampler(np.eye(d), (d, d))),
        terminal=lambda w, g: np.zeros(g.shape),
        level_coefficients=lambda level: lc,
        operator_kind=kind,
    )
    return _LevelOperator(problem, SolverConfig(viscosity=eps), rows - 1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", [KIND_BSPDE, KIND_ADJOINT])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_assembly_matches_sparse_products(d, kind, eps):
    grid = SpatialGrid(dim=d, half_width=np.pi, points=16)
    op = _random_operator(grid, rows=2, seed=40 + 10 * d, eps=eps, kind=kind)
    pattern, data = op._implicit_data()
    assert data.shape == (2, pattern.indices.size)
    m = grid.size
    for row in range(2):
        ours = sparse.csc_matrix((data[row], pattern.indices, pattern.indptr), shape=(m, m))
        ref = _reference_matrix(row, op, grid, eps, kind).toarray()
        diff = np.abs(ours.toarray() - ref).max()
        if d == 1 and not eps:
            assert diff == 0.0
        else:
            assert diff <= 1e-14 * np.abs(ref).max()

        # the operator's level holds one node per row: node `row` reads row `row`
        u = np.random.default_rng(row).standard_normal((2,) + grid.shape)
        applied = ours @ u[row].reshape(m)
        stencil = op._second_order_part(u, solver._grad(u, grid), slice(0, 2))[row].reshape(m)
        assert np.abs(applied - stencil).max() <= 1e-12 * np.abs(stencil).max()


# -- factor lifetime ----------------------------------------------------------------


def _varying_problem(n):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.2, n), 1, "recombining")

    def a(t, w, g):
        x = g.axis_coordinates()
        return (0.4 + 0.2 * np.cos(x - w[0]) * np.exp(-t))[:, None, None]

    def sigma(t, w, g):
        x = g.axis_coordinates()
        return (0.3 * (1 + 0.3 * np.sin(x + w[0])))[:, None, None]

    coeffs = CoefficientSet(
        dim=1, wiener_dim=1, a=a, sigma=sigma, w_dependent=True, time_dependent=True
    )
    x = grid.axis_coordinates()
    return ProblemData(grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: np.cos(x))


def test_varying_solve_factorises_each_level_once(monkeypatch):
    n = 6
    live = [0]
    peak = [0]
    calls = [0]
    real_band_lu = solver.band_lu

    def released():
        live[0] -= 1

    def counting_band_lu(band, width):
        calls[0] += 1
        lu, ipiv, info = real_band_lu(band, width)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(lu, released)
        return lu, ipiv, info

    monkeypatch.setattr(solver, "band_lu", counting_band_lu)
    problem = _varying_problem(n)
    sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT, corrector_iterations=3))
    assert np.all(np.isfinite(sol.u[0]))
    # one band per level stacks its rows (k + 1 Wiener states at level k)
    assert calls[0] == n
    assert peak[0] == 1
    assert live[0] == 0


# -- the banded 1D solve ---------------------------------------------------------------


@pytest.mark.parametrize("kind", [KIND_BSPDE, KIND_ADJOINT])
def test_folded_bandwidth_is_four(kind):
    for m in [*range(8, 66, 2), 128, 256]:
        grid = SpatialGrid(dim=1, half_width=np.pi, points=m)
        assert solver._band_layout(grid, kind).width == 4, m


@pytest.mark.parametrize("m", [8, 10, 128])
@pytest.mark.parametrize("kind", [KIND_BSPDE, KIND_ADJOINT])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_band_solve_matches_spsolve(m, kind, eps):
    from scipy.sparse.linalg import spsolve

    grid = SpatialGrid(dim=1, half_width=np.pi, points=m)
    op = _random_operator(grid, rows=5, seed=7, eps=eps, kind=kind)
    pattern, data = op._implicit_data()
    systems = [
        sparse.identity(m, format="csc")
        - op.dt * sparse.csc_matrix((row_data, pattern.indices, pattern.indptr), shape=(m, m))
        for row_data in data
    ]
    solve_level = op._build_solver(op.coeffs.a.shape[0] - 1)
    rhs = np.random.default_rng(m).standard_normal((6, m))
    # nodes 0, 2 and 5 share row 3; rows 0 and 2 are left unused; None: row 0 for all
    for rows in (np.array([3, 1, 3, 4, 1, 3]), np.array([2, 2, 2, 2, 2, 2]), None):
        got = solve_level(rhs, rows)
        for node, row in enumerate(np.zeros(6, dtype=int) if rows is None else rows):
            ref = spsolve(systems[row], rhs[node])
            assert np.abs(got[node] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_zero_pivot_raises_singular_operator_error():
    # h = 1, dt = 1/2 and a = -4: I - dt A is 0.5 (S^2 + S^-2) on each parity, singular
    grid = SpatialGrid(dim=1, half_width=4.0, points=8)

    def rows(values):
        shape = (len(values),) + grid.shape
        return LevelCoefficients(
            a=np.multiply.outer(values, np.ones(grid.shape + (1, 1))),
            b=np.zeros(shape + (1,)), c=np.zeros(shape), sigma=np.zeros(shape + (1, 1)),
            nu=np.zeros(shape + (1,)), inv=np.arange(len(values)) if len(values) > 1 else None,
        )

    problem = ProblemData(
        grid=grid,
        tree=build_tree(TimeGrid(1.0, 2), 1, "recombining"),
        coefficients=CoefficientSet(dim=1, wiener_dim=1, a=constant_sampler(np.eye(1), (1, 1))),
        terminal=lambda w, g: np.ones(g.shape),
        level_coefficients=lambda level: rows([0.5, -4.0] if level else [0.5]),
    )
    with pytest.raises(SingularOperatorError, match=r"level 1 \(row 1\): zero pivot"):
        solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))


# -- one operator per coefficient state ---------------------------------------------


def _count_level_coefficients(monkeypatch):
    levels = []
    real = solver._level_coefficients

    def counting(problem, level):
        levels.append(level)
        return real(problem, level)

    monkeypatch.setattr(solver, "_level_coefficients", counting)
    return levels


def _cfl_probes(levels, problem, config):
    """How many _level_coefficients calls estimate_cfl makes on this problem."""
    levels.clear()
    solver.estimate_cfl(problem, config)
    probes = len(levels)
    levels.clear()
    return probes


def test_constant_coefficients_are_built_once_per_sweep(monkeypatch):
    n = 6
    grid = SpatialGrid(dim=2, half_width=np.pi, points=16)
    oracle = heat_oracle(grid, horizon=0.3)
    problem = problem_from_oracle(oracle, build_tree(TimeGrid(0.3, n), 1, "recombining"))
    config = SolverConfig(time_stepping=SEMI_IMPLICIT, corrector_iterations=2)
    levels = _count_level_coefficients(monkeypatch)

    probes = _cfl_probes(levels, problem, config)
    sol = solve(problem, config)
    assert len(levels) == probes + 1
    levels.clear()
    weak_form_residual(sol, problem, default_test_functions(grid))
    assert levels == [n - 1]
    levels.clear()
    oracle_step_residual(oracle, n, config=config)
    assert levels == [n - 1]


def _flagged_problem(varying, n):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.2, n), 1, "recombining")
    shape = (1,) + grid.shape
    extra = {}
    if varying == "time_dependent":
        coeffs = CoefficientSet(
            dim=1, wiener_dim=1, a=lambda t, w, g: np.full(g.shape + (1, 1), 0.4 + t),
            time_dependent=True,
        )
    elif varying == "w_dependent":
        coeffs = CoefficientSet(
            dim=1, wiener_dim=1, w_dependent=True,
            a=lambda t, w, g: np.full(g.shape + (1, 1), 0.4 + 0.1 * np.cos(w[0])),
        )
    else:
        coeffs = CoefficientSet(dim=1, wiener_dim=1, a=constant_sampler([[0.4]], (1, 1)))
        lc = LevelCoefficients(
            a=np.full(shape + (1, 1), 0.4), b=np.zeros(shape + (1,)), c=np.zeros(shape),
            sigma=np.zeros(shape + (1, 1)), nu=np.zeros(shape + (1,)),
        )
        extra["level_coefficients"] = lambda level: lc
    x = grid.axis_coordinates()
    return ProblemData(
        grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: np.cos(x), **extra
    )


@pytest.mark.parametrize("varying", ["time_dependent", "w_dependent", "level_coefficients"])
def test_varying_coefficients_are_built_once_per_level(monkeypatch, varying):
    n = 4
    problem = _flagged_problem(varying, n)
    config = SolverConfig(time_stepping=SEMI_IMPLICIT, corrector_iterations=2)
    levels = _count_level_coefficients(monkeypatch)

    probes = _cfl_probes(levels, problem, config)
    sol = solve(problem, config)
    assert len(levels) == probes + n
    levels.clear()
    weak_form_residual(sol, problem, default_test_functions(problem.grid))
    assert levels == list(range(n - 1, -1, -1))


def _heat_problem():
    grid = SpatialGrid(dim=2, half_width=np.pi, points=16)
    return problem_from_oracle(
        heat_oracle(grid, horizon=0.1), build_tree(TimeGrid(0.1, 4), 1, "recombining")
    )


def test_constant_heat_solve_samples_coefficients_three_times(monkeypatch):
    problem = _heat_problem()
    calls = []
    real = CoefficientSet.sample

    def counting(self, t, w, grid):
        calls.append(t)
        return real(self, t, w, grid)

    monkeypatch.setattr(CoefficientSet, "sample", counting)
    solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    assert len(calls) == 3


def test_solve_refuses_storage_over_the_byte_budget(monkeypatch):
    base = _varying_problem(4)
    # M = 16; a recombining tree with 4 steps stores u on 15 nodes and r
    # (one Wiener component) on the 10 nodes of levels 0..3
    nbytes = 8 * 16 * (15 + 10)
    terminal = _CountingSampler(lambda t, w, g: base.terminal(w, g))
    problem = dataclasses.replace(base, terminal=lambda w, g: terminal(0.0, w, g))
    levels = _count_level_coefficients(monkeypatch)
    config = SolverConfig(time_stepping=SEMI_IMPLICIT)

    monkeypatch.setattr(solver, "WORKSPACE_BYTE_BUDGET", nbytes - 1)
    with pytest.raises(BudgetExceededError, match=f"store {nbytes} bytes"):
        solve(problem, config)
    assert terminal.calls == 0
    assert levels == []

    monkeypatch.setattr(solver, "WORKSPACE_BYTE_BUDGET", nbytes)
    solve(problem, config)
    assert terminal.calls > 0


def test_byte_budget_counts_r_only_where_sigma_can_be_nonzero(monkeypatch):
    heat = _heat_problem()
    assert heat.coefficients.sigma is None
    sigma = constant_sampler([[0.1], [0.0]], (2, 1))
    noisy = dataclasses.replace(heat, coefficients=dataclasses.replace(heat.coefficients, sigma=sigma))
    # 4 recombining steps: u on 15 nodes, no q, and r (one Wiener
    # component) on the 10 nodes of levels 0..3 only when sigma is set
    row = 8 * heat.grid.size
    u = row * 15
    monkeypatch.setattr(solver, "WORKSPACE_BYTE_BUDGET", u)
    solve(heat)
    with pytest.raises(BudgetExceededError, match=f"store {u + 10 * row} bytes of u and r,"):
        solve(noisy)
    monkeypatch.setattr(solver, "WORKSPACE_BYTE_BUDGET", u - 1)
    with pytest.raises(BudgetExceededError, match=f"store {u} bytes of u,"):
        solve(heat)


# -- zero generator terms ------------------------------------------------------------


def test_heat_semi_implicit_solve_takes_no_gradient(monkeypatch):
    problem = _heat_problem()
    calls = []
    real = solver._grad

    def counting(field, grid):
        calls.append(field.shape)
        return real(field, grid)

    monkeypatch.setattr(solver, "_grad", counting)
    solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    assert calls == []


def test_corrector_passes_without_explicit_part_solve_once(monkeypatch):
    problem = _heat_problem()
    calls = []
    real = solver._fourier_solve

    def counting(symbols, rhs, rows):
        calls.append(rhs.shape)
        return real(symbols, rhs, rows)

    monkeypatch.setattr(solver, "_fourier_solve", counting)
    solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT, corrector_iterations=3))
    assert len(calls) == problem.tree.n_steps

    # a repeated pass would reproduce u bit for bit: the right-hand side
    # reads no corrector iterate when b = c = 0
    level = 2
    ubar = random_smooth_field(problem.grid, max_mode=3, seed=5)[None]
    q = np.zeros(ubar.shape + (1,))
    f, inv = level_forcing(problem, level)
    assert inv is None and not np.any(f)
    one = _LevelOperator(problem, SolverConfig(time_stepping=SEMI_IMPLICIT), level)
    u1, star1 = one.step(ubar, q, f, level, slice(0, 1))
    assert star1 is ubar
    three = SolverConfig(time_stepping=SEMI_IMPLICIT, corrector_iterations=3)
    op = _LevelOperator(problem, three, level)
    u3, star3 = op.step(ubar, q, f, level, slice(0, 1))
    again = op._solve(ubar, None)
    assert np.array_equal(u3, u1)
    assert np.array_equal(star3, u1)
    assert np.array_equal(again, u1)


@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_r_is_q_exactly_when_sigma_vanishes(sigma):
    grid = SpatialGrid(dim=1, half_width=np.pi, points=16)
    coeffs = CoefficientSet(
        dim=1,
        wiener_dim=1,
        a=constant_sampler([[0.5]], (1, 1)),
        sigma=constant_sampler([[sigma]], (1, 1)),
    )
    x = grid.axis_coordinates()
    problem = ProblemData(
        grid=grid,
        tree=build_tree(TimeGrid(0.1, 4), 1, "recombining"),
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(x) * (1.0 + w[0]),
    )
    sol = solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))
    equal = [np.array_equal(sol.r[level], sol.q[level]) for level in range(len(sol.q))]
    assert equal == [sigma == 0.0] * len(sol.q)


# -- forcing without coefficient sampling ------------------------------------------


class _CountingSampler:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, t, w, grid):
        self.calls += 1
        return self.inner(t, w, grid)


@pytest.mark.parametrize("mode", ["none", "sampler", "w_sampler", "forcing_level"])
def test_level_forcing_samples_no_coefficient(mode):
    base = _varying_problem(4)
    grid, tree = base.grid, base.tree
    x = grid.axis_coordinates()
    a = _CountingSampler(base.coefficients.a)
    sigma = _CountingSampler(base.coefficients.sigma)
    b = _CountingSampler(constant_sampler(np.ones(1), (1,)))
    coeffs = CoefficientSet(
        dim=1, wiener_dim=1, a=a, b=b, sigma=sigma, w_dependent=True, time_dependent=True
    )
    forcing = {
        "none": {},
        "sampler": {"forcing": lambda t, w, g: np.sin(x) * (1 + t)},
        "w_sampler": {"forcing": lambda t, w, g: np.cos(x + w[0]), "forcing_w_dependent": True},
        "forcing_level": {
            "forcing_level": lambda level: (
                np.stack([np.sin(x + k) for k in range(tree.level_sizes[level])]),
                np.arange(tree.level_sizes[level]),
            )
        },
    }[mode]
    problem = ProblemData(grid=grid, tree=tree, coefficients=coeffs, terminal=base.terminal, **forcing)
    for level in range(tree.n_steps):
        rows, inv = level_forcing(problem, level)
        f = rows if inv is None else rows[inv]
        assert a.calls == b.calls == sigma.calls == 0
        t = tree.time_grid.time(level)
        w = tree.level_w(level)[:, 0]
        expected = {
            "none": np.zeros((1,) + grid.shape),
            "sampler": (np.sin(x) * (1 + t))[None],
            "w_sampler": np.cos(x + w[:, None]),
            "forcing_level": np.stack([np.sin(x + k) for k in range(tree.level_sizes[level])]),
        }[mode]
        assert f.shape == expected.shape
        assert np.array_equal(f, expected)
        a.calls = b.calls = sigma.calls = 0


# -- known limit: the Nyquist mode ------------------------------------------------------


def test_nyquist_mode_is_not_damped():
    grid = SpatialGrid(dim=1, half_width=np.pi, points=64)
    terminal = (-1.0) ** np.arange(grid.points)
    oracle = heat_oracle(grid, horizon=0.5, terminal_field=terminal)
    tree = build_tree(TimeGrid(0.5, 32), 1, "recombining")
    sol = solve(problem_from_oracle(oracle, tree), SolverConfig(time_stepping=SEMI_IMPLICIT))
    # the exact solution has decayed to about 7e-112; the centred D a D
    # second-order part maps (-1)^i to zero, so the mode is carried unchanged
    assert np.abs(oracle.exact_fields(0.0, np.zeros((1, 1)))[0]).max() < 1e-100
    assert np.abs(sol.u[0]).max() == pytest.approx(1.0, abs=1e-12)


# -- the FFT path: 2D, a constant over the grid ------------------------------------------


def _no_splu(matrix):
    raise AssertionError("splu called on the FFT path")


def _counting_splu(monkeypatch):
    calls = [0]
    real_splu = solver.splu

    def counting(matrix):
        calls[0] += 1
        return real_splu(matrix)

    monkeypatch.setattr(solver, "splu", counting)
    return calls


def _constant_a_problem(a, kind, w_dependent=False, d=2, n=4):
    """Semi-implicit-ready problem with a constant in space (and in W unless w_dependent)."""
    grid = SpatialGrid(dim=d, half_width=np.pi, points=16)
    tree = build_tree(TimeGrid(0.3, n), 1, "recombining")
    base = np.asarray(a, dtype=np.float64)

    def a_sampler(t, w, g):
        scale = 1.0 + 0.3 * np.cos(w[0]) if w_dependent else 1.0
        return np.broadcast_to(scale * base, g.shape + (d, d)).copy()

    coeffs = CoefficientSet(
        dim=d,
        wiener_dim=1,
        a=a_sampler,
        b=constant_sampler(0.2 * np.ones(d), (d,)),
        sigma=constant_sampler(0.3 * np.eye(d)[:, :1], (d, 1)),
        w_dependent=w_dependent,
    )
    terminal = random_smooth_field(grid, 3, 11)
    return ProblemData(
        grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: terminal * (1 + w[0]),
        operator_kind=kind,
    )


_ISOTROPIC = [[0.5, 0.0], [0.0, 0.5]]
_ANISOTROPIC = [[0.5, 0.2], [0.2, 0.3]]


@pytest.mark.parametrize("a", [_ISOTROPIC, _ANISOTROPIC], ids=["isotropic", "anisotropic"])
@pytest.mark.parametrize("kind", [KIND_BSPDE, KIND_ADJOINT])
@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("w_dependent", [False, True], ids=["shared", "per_row"])
def test_fft_solve_matches_lu_solve(monkeypatch, a, kind, eps, w_dependent):
    problem = _constant_a_problem(a, kind, w_dependent)
    config = SolverConfig(time_stepping=SEMI_IMPLICIT, viscosity=eps)
    with monkeypatch.context() as m:
        m.setattr(solver, "splu", _no_splu)
        fft = solve(problem, config)
    monkeypatch.setattr(solver, "_constant_a", lambda ld, grid: None)
    calls = _counting_splu(monkeypatch)
    lu = solve(problem, config)
    assert calls[0] > 0
    for level in range(problem.tree.n_steps + 1):
        ref = lu.u[level]
        assert np.abs(fft.u[level] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_splu_is_kept_only_for_2d_varying_a(monkeypatch):
    n = 4
    config = SolverConfig(time_stepping=SEMI_IMPLICIT)
    calls = _counting_splu(monkeypatch)

    # 1D, a constant in space but not in W, or varying in space: banded, no splu
    solve(_constant_a_problem([[0.5]], KIND_BSPDE, w_dependent=True, d=1, n=n), config)
    solve(_varying_problem(n), config)
    assert calls[0] == 0

    # 2D, a varying in space and in t: one factorisation per level
    calls[0] = 0
    grid = SpatialGrid(dim=2, half_width=np.pi, points=16)

    def a(t, w, g):
        x = g.coordinates()
        field = 0.4 + 0.1 * np.cos(x[0]) * np.exp(-t)
        return field[..., None, None] * np.eye(2)

    coeffs = CoefficientSet(dim=2, wiener_dim=1, a=a, time_dependent=True)
    terminal = random_smooth_field(grid, 3, 5)
    tree = build_tree(TimeGrid(0.3, n), 1, "recombining")
    problem = ProblemData(grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: terminal)
    solve(problem, config)
    assert calls[0] == n


def test_vanishing_fft_symbol_raises_singular_operator_error():
    # h = 1, dt = 1/2 and a11 = -2: the symbol 1 - sin(k h)^2 is zero at k h = pi / 2
    grid = SpatialGrid(dim=2, half_width=4.0, points=8)
    tree = build_tree(TimeGrid(0.5, 1), 1, "recombining")
    shape = (1,) + grid.shape
    a = np.zeros(shape + (2, 2))
    a[..., 0, 0] = -2.0
    coeffs = CoefficientSet(dim=2, wiener_dim=1, a=constant_sampler(np.eye(2), (2, 2)))
    lc = LevelCoefficients(
        a=a, b=np.zeros(shape + (2,)), c=np.zeros(shape), sigma=np.zeros(shape + (2, 1)),
        nu=np.zeros(shape + (1,)),
    )
    problem = ProblemData(
        grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: np.ones(g.shape),
        level_coefficients=lambda level: lc,
    )
    with pytest.raises(SingularOperatorError, match=r"symbol vanishes .* level 0 \(row 0\)"):
        solve(problem, SolverConfig(time_stepping=SEMI_IMPLICIT))


def test_nyquist_mode_is_not_damped_by_the_fft_solve(monkeypatch):
    grid = SpatialGrid(dim=2, half_width=np.pi, points=32)
    i, j = np.indices(grid.shape)
    oracle = heat_oracle(grid, horizon=0.5, terminal_field=(-1.0) ** (i + j))
    tree = build_tree(TimeGrid(0.5, 16), 1, "recombining")
    monkeypatch.setattr(solver, "splu", _no_splu)
    sol = solve(problem_from_oracle(oracle, tree), SolverConfig(time_stepping=SEMI_IMPLICIT))
    # sin(k h) / h vanishes at the Nyquist wavenumber, as D a D does
    assert np.abs(sol.u[0]).max() == pytest.approx(1.0, abs=1e-12)

