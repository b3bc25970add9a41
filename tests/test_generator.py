"""One implementation per piece of generator bookkeeping.

Core claims:
    - forward_cfl and estimate_cfl on an adjoint-kind problem with the same
      constant a, b and sigma return equal reports, field by field, whether
      the bound holds or fails
    - derive_from_sample's b_tilde equals the einsum formula it replaced to
      1e-14 relative, and equals bit for bit the drift estimate_cfl reduces
    - estimate_cfl reads the level coefficients alone: on counterexample-1,
      whose coefficients are one state, it probes one level, takes the 2
      stencils of b_tilde and samples no forcing
    - the control generator takes one gradient per (level, control) in
      solve_forward and exhaustive_policy_search, and (L xi, M xi) equals
      the two separate applications it replaced exactly; the exhaustive
      search applies it to one state per (ancestral path, node)
    - a backward step takes at most one gradient per level and corrector
      pass, whatever the number of coefficient rows: one for the primal
      kind and for explicit adjoint steps, none for semi-implicit adjoint
      steps; the weak form takes one per level, its viscous flux included
    - u, q, r, the weak-form residuals and every estimate entry are ==
      whether a level's nodes share sampled rows or each node has a row of
      its own, and whatever the node block size (one node, three, a whole
      level), on the full d' = 2 tree and the recombining lattice, explicit
      and semi-implicit with two corrector passes and eps in {0, 0.05}; an
      operator on shared rows stores no per-node array
    - the weak-form report solve takes in its sweep is == weak_form_residual's
      on the stored solution, per_level included, in every run above and
      with one node per block at one and three corrector passes
    - solution_error, the viscosity-continuation gaps and
      oracle_step_residual are == whatever the block size, keyed (full
      tree) and unkeyed (lattice)
    - bspdelab solve evaluates the oracle once per level, and its
      oracle_u_l2 / oracle_q_l2 columns are solution_error's per-level terms
    - bspdelab check probes the same (t, W) states as bspdelab solve, so a
      violation at a leaf state fails both
"""

import csv
import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from bspdelab import cli, coefficients, control, energy, lattice, oracles, solver
from bspdelab import grid as grid_module
from bspdelab.cli import main
from bspdelab.coefficients import (
    CoefficientSet,
    builtin_counterexamples,
    constant_sampler,
    derive_from_sample,
)
from bspdelab.control import (
    ControlProblem,
    ControlPolicy,
    exhaustive_policy_search,
    forward_cfl,
    solve_forward,
)
from bspdelab.grid import (
    SpatialGrid,
    axis_derivative,
    batch_divergence,
    batch_gradient,
    component_dot,
)
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab.solver import (
    KIND_ADJOINT,
    KIND_BSPDE,
    ProblemData,
    SolverConfig,
    estimate_cfl,
)

PI = "3.141592653589793"


def _grid(d=1, M=32):
    return SpatialGrid(dim=d, half_width=np.pi, points=M)


# -- step bounds -----------------------------------------------------------------


@pytest.mark.parametrize("n_steps", [2, 4])
def test_forward_and_backward_cfl_reports_agree(n_steps):
    grid = _grid()
    tree = build_tree(TimeGrid(0.1, n_steps), 1, "full")
    a, b, s = 0.5, 1.5, 0.8
    x = grid.axis_coordinates()
    forward = ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(0.0,),
        terminal_phi=np.cos(x),
        xi0=np.ones(grid.shape),
        a=lambda t, v, g: a * np.eye(1),
        b=lambda t, v, g: np.array([b]),
        sigma=lambda t, v, g: s * np.ones((1, 1)),
    )
    backward = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=CoefficientSet(
            dim=1,
            wiener_dim=1,
            a=constant_sampler([[a]], (1, 1)),
            b=constant_sampler([b], (1,)),
            sigma=constant_sampler([[s]], (1, 1)),
        ),
        terminal=lambda w, g: np.cos(x),
        operator_kind=KIND_ADJOINT,
    )
    fwd = forward_cfl(forward)
    bwd = estimate_cfl(backward)
    assert dataclasses.asdict(fwd) == dataclasses.asdict(bwd)
    # n = 2 breaks the parabolic bound (dt 0.05 > 0.0347), n = 4 keeps it
    assert fwd.satisfied == (n_steps == 4)
    assert fwd.suggested_n_steps == (3 if n_steps == 2 else n_steps)


# -- transformed drift -----------------------------------------------------------


def _einsum_btilde(smp):
    """b_tilde as derive_from_sample once computed it, with two einsums."""
    grid = smp.grid
    sigma_x = np.stack(
        [axis_derivative(smp.sigma, 1, axis=j, h=grid.h) for j in range(grid.dim)], axis=-3
    )
    return (
        smp.b
        - np.einsum("...jik,...jk->...i", sigma_x, smp.sigma)
        - np.einsum("...k,...ik->...i", smp.nu, smp.sigma)
    )


def _counterexample_with_drift():
    cx1 = builtin_counterexamples()[0]
    return dataclasses.replace(
        cx1,
        b=constant_sampler([0.3, -0.2], (2,)),
        nu=constant_sampler([0.1, 0.05], (2,)),
    )


def test_btilde_matches_einsum_formula():
    grid = _grid(d=2, M=16)
    smp = _counterexample_with_drift().sample(0.0, np.zeros(2), grid)
    got = derive_from_sample(smp).b_tilde
    want = _einsum_btilde(smp)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_btilde_is_the_drift_estimate_cfl_reduces(monkeypatch):
    grid = _grid(d=2, M=16)
    coeffs = _counterexample_with_drift()
    tree = build_tree(TimeGrid(0.02, 2), 2, "full")
    problem = ProblemData(
        grid=grid, tree=tree, coefficients=coeffs, terminal=lambda w, g: np.zeros(g.shape)
    )
    seen = []
    original = solver.CflReport.from_samples.__func__

    def capturing(cls, samples, *args):
        samples = list(samples)
        seen.extend(samples)
        return original(cls, samples, *args)

    monkeypatch.setattr(solver.CflReport, "from_samples", classmethod(capturing))
    estimate_cfl(problem)
    drift_level0 = seen[0][1]
    b_tilde = derive_from_sample(coeffs.sample(0.0, np.zeros(2), grid)).b_tilde
    assert drift_level0.shape == (1,) + b_tilde.shape
    assert np.array_equal(drift_level0[0], b_tilde)


def test_estimate_cfl_reads_coefficients_only(monkeypatch):
    grid = _grid(d=2, M=64)
    tree = build_tree(TimeGrid(0.02, 5), 2, "full")
    forcing_calls = []

    def forcing(t, w, g):
        forcing_calls.append(t)
        return np.zeros(g.shape)

    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=builtin_counterexamples()[0],
        terminal=lambda w, g: np.zeros(g.shape),
        forcing=forcing,
    )
    stencils = []

    def counting(*args, **kwargs):
        stencils.append(args[1:3])
        return axis_derivative(*args, **kwargs)

    for module in (solver, coefficients, grid_module):
        monkeypatch.setattr(module, "axis_derivative", counting)
    estimate_cfl(problem)
    # constant coefficients are probed at one level, where b_tilde
    # differentiates sigma once per grid axis
    assert len(stencils) == 2
    assert forcing_calls == []


# -- one gradient per control generator application -------------------------------------


def _control_problem(M=16, n=3):
    grid = _grid(M=M)
    tree = build_tree(TimeGrid(0.1, n), 1, "full")
    x = grid.axis_coordinates()
    return ControlProblem(
        grid=grid,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=np.exp(np.cos(x)),
        a=lambda t, v, g: 0.25 * np.eye(1),
        b=lambda t, v, g: np.array([0.3 * v]),
        c=lambda t, v, g: 0.1 * v * np.sin(x),
        sigma=lambda t, v, g: 0.5 * np.ones((1, 1)),
        nu=lambda t, v, g: np.array([0.2 * v]),
        big_f=lambda t, v, g: v * np.sin(x),
        cost_f=lambda t, v, g: 0.1 * v * np.cos(x),
    )


def _count_gradients(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(field, grid):
        calls.append(field.shape)
        return original(field, grid)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_control_takes_one_gradient_per_level_and_control(monkeypatch):
    problem = _control_problem()
    tree = problem.tree
    # level 0 plays one control, levels 1 and 2 play both
    policy = ControlPolicy(
        (np.array([1]), np.array([0, 1]), np.array([1, 0, 0, 1]))
    )
    calls = _count_gradients(monkeypatch, control, "batch_gradient")
    solve_forward(problem, policy)
    assert len(calls) == 1 + 2 + 2
    calls.clear()
    exhaustive_policy_search(problem)
    assert len(calls) == tree.n_steps * len(problem.gamma)


def test_exhaustive_batch_is_one_state_per_path_and_node(monkeypatch):
    problem = _control_problem()
    rows = []
    original = control._generator_apply

    def recording(xi, smp, grid):
        rows.append(xi.shape[0])
        return original(xi, smp, grid)

    monkeypatch.setattr(control, "_generator_apply", recording)
    exhaustive_policy_search(problem)
    # level L holds |gamma|^L ancestral paths of its sizes[L] nodes:
    # sizes (1, 2, 4), once per control
    assert rows == [1, 1, 2 * 2, 2 * 2, 2**2 * 4, 2**2 * 4]


def _l_apply(xi, a, b, c, grid):
    """L xi as control once applied it, with its own gradient."""
    du = batch_gradient(xi, grid)
    flux = component_dot(a, du[..., None, :])
    out = batch_divergence(flux, grid)
    return out + component_dot(b, du) + c * xi


def _m_apply(xi, sigma, nu, grid):
    """M xi as control once applied it, with its own gradient."""
    du = batch_gradient(xi, grid)
    return component_dot(sigma, du[..., :, None], axis=-2) + nu * xi[..., None]


def test_generator_apply_equals_separate_applications():
    problem = _control_problem()
    grid = problem.grid
    xi = np.random.default_rng(5).normal(size=(3,) + grid.shape)
    # the sample table's entry for level 1 and control gamma[1] = 1.0
    smp = problem._table[1, 1]
    l_xi, m_xi = control._generator_apply(xi, smp, grid)
    assert np.array_equal(l_xi, _l_apply(xi, smp.a, smp.b, smp.c, grid))
    assert np.array_equal(m_xi, _m_apply(xi, smp.sigma, smp.nu, grid))


# -- one gradient per backward step -------------------------------------------------------


def _w_dependent_problem(kind=KIND_BSPDE):
    """1D recombining problem whose a and b read W: level 2 has three rows."""
    coeffs = CoefficientSet(
        dim=1,
        wiener_dim=1,
        a=lambda t, w, g: np.full(g.shape + (1, 1), 0.5 + 0.1 * w[0] ** 2),
        b=lambda t, w, g: np.full(g.shape + (1,), 0.2 + 0.1 * w[0]),
        c=constant_sampler(0.1, ()),
        sigma=constant_sampler([[0.4]], (1, 1)),
        nu=constant_sampler([0.1], (1,)),
        w_dependent=True,
    )
    return ProblemData(
        grid=_grid(M=16),
        tree=build_tree(TimeGrid(0.1, 4), 1, "recombining"),
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(g.axis_coordinates()) + w[0],
        operator_kind=kind,
    )


@pytest.mark.parametrize(
    "kind, stepping, per_pass",
    [
        (KIND_BSPDE, solver.EXPLICIT, 1),
        (KIND_BSPDE, solver.SEMI_IMPLICIT, 1),
        (KIND_ADJOINT, solver.EXPLICIT, 1),
        (KIND_ADJOINT, solver.SEMI_IMPLICIT, 0),
    ],
)
def test_backward_step_takes_one_gradient_per_level_and_pass(monkeypatch, kind, stepping, per_pass):
    problem = _w_dependent_problem(kind)
    grid = problem.grid
    config = SolverConfig(time_stepping=stepping, corrector_iterations=2)
    level = 2
    op = solver._LevelOperator(problem, config, level)
    rows = op.coeffs.a.shape[0]
    assert rows == 3
    rng = np.random.default_rng(7)
    ubar = rng.normal(size=(3,) + grid.shape)
    q = rng.normal(size=(3,) + grid.shape + (1,))
    calls = _count_gradients(monkeypatch, solver, "_grad")
    op.step(ubar, q, solver.level_forcing(problem, level)[0], level, slice(0, 3))
    # every row's nodes share the one gradient of each pass
    assert len(calls) == per_pass * config.corrector_iterations
    assert all(shape[0] == ubar.shape[0] for shape in calls)


def test_weak_form_takes_one_gradient_per_level(monkeypatch):
    problem = _w_dependent_problem()
    sol = solver.solve(problem, SolverConfig(viscosity=0.1))
    etas = solver.default_test_functions(problem.grid, 2)
    calls = _count_gradients(monkeypatch, solver, "_grad")
    solver.weak_form_residual(sol, problem, etas)
    # one per test function, then one per level: the viscous flux reuses grad u
    assert len(calls) == len(etas) + problem.tree.n_steps


# -- nodes sharing coefficient rows -----------------------------------------------------------


def _shared_rows_problem():
    """Full d' = 2 tree with a and sigma reading W: level 3 has 64 nodes on 16 rows."""

    def sigma(t, w, g):
        x1, x2 = g.coordinates()
        s = 0.3 * (1.0 + 0.2 * np.sin(x1 + w[0]))
        return s[..., None, None] * np.array([[1.0, 0.3], [-0.2, 1.0]])

    def a(t, w, g):
        x1, x2 = g.coordinates()
        sig = sigma(t, w, g)
        margin = 0.1 + 0.05 * np.cos(x2 - w[1]) ** 2
        return 0.5 * np.einsum("...ik,...jk->...ij", sig, sig) + margin[..., None, None] * np.eye(2)

    coeffs = CoefficientSet(
        dim=2,
        wiener_dim=2,
        a=a,
        b=constant_sampler([0.2, -0.1], (2,)),
        c=constant_sampler(0.1, ()),
        sigma=sigma,
        nu=constant_sampler([0.1, -0.05], (2,)),
        w_dependent=True,
    )
    return ProblemData(
        grid=_grid(d=2, M=8),
        tree=build_tree(TimeGrid(0.1, 4), 2, "full"),
        coefficients=coeffs,
        terminal=lambda w, g: np.cos(g.coordinates()[0] + w[0]) * np.sin(g.coordinates()[1] - w[1]),
    )


def _one_row_per_node(problem, reverse):
    """The same problem, each level's sampled rows expanded to one row per node.

    Row k belongs to node k, or to node nodes - 1 - k when `reverse` is set.
    """

    def expanded(level):
        lc = solver._level_coefficients(problem, level)
        n_nodes = problem.tree.level_sizes[level]
        inv = np.zeros(n_nodes, dtype=np.intp) if lc.inv is None else lc.inv
        order = np.arange(n_nodes)[::-1] if reverse else np.arange(n_nodes)
        rows = {name: getattr(lc, name)[inv[order]] for name in ("a", "b", "c", "sigma", "nu")}
        return solver.LevelCoefficients(**rows, inv=order)

    return dataclasses.replace(problem, level_coefficients=expanded)


# nodes per block of the sweep and the weak form; None runs each level as one block
BLOCK_NODES = (1, 3, None)


def _block_cap(problem, nodes):
    """The BLOCK_BYTE_BUDGET that gives the sweep `nodes` nodes per block."""
    if nodes is None:
        return 2**62
    return nodes * 8 * problem.grid.size * problem.tree.child_count


def _results(problem, config, etas):
    """u, q, r, the weak-form levels and every estimate entry of one solve.

    The weak form the sweep checks is == weak_form_residual's on the
    stored solution, the whole report.
    """
    sol = solver.solve(problem, config, etas)
    fields = {}
    for name in ("u", "q", "r"):
        f = getattr(sol, name)
        fields[name] = [f[l] for l in range(len(f))]
    assert sol.weak_form == solver.weak_form_residual(sol, problem, etas)
    entries = energy.verify_main_estimates(sol, problem, m1=1, p=4.0).entries
    return fields, sol.weak_form.per_level, entries


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(
    "stepping, viscosity",
    [
        (solver.EXPLICIT, 0.0),
        (solver.SEMI_IMPLICIT, 0.05),
        (solver.EXPLICIT, 0.05),
        (solver.SEMI_IMPLICIT, 0.0),
    ],
)
def test_results_do_not_depend_on_how_nodes_share_rows(monkeypatch, stepping, viscosity, reverse):
    full = _shared_rows_problem()
    assert solver._level_coefficients(full, 3).a.shape[0] == 16
    assert solver._level_coefficients(_one_row_per_node(full, reverse), 3).a.shape[0] == 64
    config = SolverConfig(time_stepping=stepping, viscosity=viscosity, corrector_iterations=2)
    for shared in (full, _w_dependent_problem()):
        etas = solver.default_test_functions(shared.grid, 2)
        reference = None
        for nodes in BLOCK_NODES[::-1]:
            monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", _block_cap(shared, nodes))
            for problem in (shared, _one_row_per_node(shared, reverse)):
                fields, weak, entries = _results(problem, config, etas)
                if reference is None:
                    reference = fields, weak, entries
                    continue
                for name, levels in fields.items():
                    for x, y in zip(levels, reference[0][name]):
                        assert np.array_equal(x, y), (shared.tree.mode, nodes, name)
                assert weak == reference[1], (shared.tree.mode, nodes)
                assert entries == reference[2], (shared.tree.mode, nodes)
        # one node per block, as the loop left it: one and three corrector
        # passes next to the two above
        for passes in (1, 3):
            _results(shared, dataclasses.replace(config, corrector_iterations=passes), etas)


@pytest.mark.parametrize("mode", ["full", "recombining"])
def test_scores_do_not_depend_on_the_block_size(monkeypatch, mode):
    # the full tree stores k + 1 Wiener states at level k, keyed; the lattice
    # stores the W-dependent oracle one row per node, unkeyed
    grid = _grid(M=16)
    tree = build_tree(TimeGrid(0.5, 6), 1, mode)
    config = SolverConfig(time_stepping=solver.SEMI_IMPLICIT)
    reference = None
    for nodes in BLOCK_NODES[::-1]:

        def cap(node_bytes):
            return 2**62 if nodes is None else nodes * node_bytes

        got = []
        for oracle in (oracles.heat_oracle(grid, 0.5), oracles.wiener_linear_oracle(grid, 0.5)):
            problem = solver.problem_from_oracle(oracle, tree)
            # the scorer and the gaps read one u row a node, the step residual its children
            monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", cap(8 * grid.size))
            cont = solver.viscosity_continuation(problem, [0.1, 0.05], config)
            got += [oracles.solution_error(s.u, s.q, tree, oracle) for s in cont.solutions]
            got += [cont.u_gaps, cont.r_gaps]
            monkeypatch.setattr(lattice, "BLOCK_BYTE_BUDGET", cap(8 * grid.size * tree.child_count))
            got.append(solver.oracle_step_residual(oracle, tree.n_steps, mode, config))
        if reference is None:
            reference = got
        assert got == reference, nodes


def _held_arrays(obj):
    """Every ndarray an operator reaches through its attributes, lists and solvers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item)
    elif isinstance(obj, functools.partial):
        yield from _held_arrays(obj.args)
    elif isinstance(obj, (solver._LevelOperator, solver.LevelCoefficients)):
        for value in vars(obj).values():
            yield from _held_arrays(value)


def test_operator_holds_no_per_node_array():
    problem = _shared_rows_problem()
    level = 3
    n_nodes = problem.tree.level_sizes[level]
    op = solver._LevelOperator(problem, SolverConfig(time_stepping=solver.SEMI_IMPLICIT), level)
    rng = np.random.default_rng(3)
    ubar = rng.normal(size=(n_nodes,) + problem.grid.shape)
    q = rng.normal(size=(n_nodes,) + problem.grid.shape + (2,))
    nodes = slice(0, n_nodes)
    op.step(ubar, q, solver.level_forcing(problem, level)[0], level, nodes)
    op.r_transform(ubar, q, nodes)
    held = [arr for arr in _held_arrays(op) if arr is not op.coeffs.inv]
    assert op.coeffs.a.shape[0] == 16 and len(op._solve.args[0]) == 16
    assert held and all(arr.shape[:1] != (n_nodes,) for arr in held)


# -- CLI ------------------------------------------------------------------------------------


def _write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


HEAT_CONFIG = f"""
[grid]
d = 1
R = {PI}
M = 32

[tree]
T = 0.05
n_steps = 10
dprime = 1
mode = recombining

[problem]
oracle = heat
"""


def test_solve_scores_each_level_against_the_oracle_once(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, HEAT_CONFIG)
    out = tmp_path / "run"
    evaluations = []
    errors = []
    exact, score = oracles.exact_level_fields, oracles.solution_error

    def counting(oracle, tree, level):
        evaluations.append(level)
        return exact(oracle, tree, level)

    def recording(*args):
        errors.append(score(*args))
        return errors[-1]

    monkeypatch.setattr(oracles, "exact_level_fields", counting)
    monkeypatch.setattr(cli, "solution_error", recording)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(evaluations) == list(range(11))
    assert len(errors) == 1

    with open(out / "norms.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["oracle_u_l2"]) for r in rows] == errors[0]["u_level_errors"]
    assert [float(r["oracle_q_l2"]) for r in rows[:-1]] == errors[0]["q_level_errors"]
    assert rows[-1]["oracle_q_l2"] == ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["oracle"]["u_sup_error"] == max(errors[0]["u_level_errors"])


LEAF_VIOLATION_CONFIG = f"""
[grid]
d = 1
R = {PI}
M = 16

[tree]
T = 0.5
n_steps = 8
dprime = 1
mode = recombining

[problem]
a11 = 0.5
sigma11 = 1 + w1
phi = cos(x1)
assert_parabolicity = dp
"""


def test_check_probes_the_states_solve_probes(tmp_path, capsys):
    # 2a - sigma^2 = 1 - (1 + w)^2 is 0 at W = 0 and -8 at the leaf W = 2
    cfg = _write(tmp_path, LEAF_VIOLATION_CONFIG)
    code = main(["check", "--config", cfg])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["parabolicity"]["verdict"] == "violated"
    assert report["parabolicity"]["min_eigenvalue"] == -8.0

    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "run")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ParabolicityError"
