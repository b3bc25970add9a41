"""The four benchmark workloads: inputs made from a seed, one task, its checks.

Each workload builds its inputs from the seed alone (`make`, which may keep
scratch files under the given work directory), runs one
user-level task on them (`task`) and returns the task's numeric outputs as a
flat dict.  `check` lists the acceptance-grade invariants the outputs miss.
Sizes are fixed by the benchmark; `sizes` overrides exist only so the smoke
tests can run every workload at a tiny size.

Library calls go through module attributes (`solver.solve`, not a bound
`solve`) so that the tracer's patched bindings see every call.

Seed 0 is the default seed.  On it the control workload is exactly the
acceptance-7/8 instance and the degenerate workload uses the acceptance-3
terminal; other seeds draw nearby instances on which the same invariants
hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bspdelab import cli, coefficients, control, energy, grid, lattice, oracles, solver

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    make: Callable[[int, dict, str], dict]
    task: Callable[[dict], dict]
    check: Callable[[dict], list]
    # outputs left out of the stored reference: rounding-level residuals, which
    # `check` gates, and artifact sizes, which are not numeric results
    unreferenced: frozenset = field(default_factory=frozenset)


def _draw(seed: int, stream: int, low: float, high: float) -> float:
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    return float(rng.uniform(low, high))


def _halves(coarse: float, fine: float) -> bool:
    return 0.35 <= fine / coarse <= 0.65


# -- degenerate_full ----------------------------------------------------------


def _make_degenerate(seed: int, sizes: dict, work_dir: str) -> dict:
    g = grid.SpatialGrid(dim=2, half_width=np.pi, points=sizes["M"])
    tree = lattice.build_tree(lattice.TimeGrid(sizes["T"], sizes["n"]), 2, "full")
    # seed 0 reproduces the acceptance-3 terminal (field seed 7)
    phi = grid.random_smooth_field(g, max_mode=3, seed=7 + seed)
    phi = phi / grid.sobolev_norm(phi, g, 1, 2.0)
    problem = solver.ProblemData(
        grid=g,
        tree=tree,
        coefficients=coefficients.builtin_counterexamples()[0],
        terminal=lambda w, gr: phi,
    )
    return {"problem": problem, "etas": solver.default_test_functions(g)}


def _task_degenerate(inp: dict) -> dict:
    problem = inp["problem"]
    sol = solver.solve(problem)
    rep = energy.verify_main_estimates(sol, problem, m1=1, p=2.0)
    weak = solver.weak_form_residual(sol, problem, inp["etas"])
    l2, sup = rep.entry("energy_l2"), rep.entry("sup_p")
    return {
        "c_fit": l2.c_fit,
        "energy_lhs": l2.lhs,
        "energy_rhs": l2.rhs,
        "sup_p_c_fit": sup.c_fit,
        "u_root_l2": math.sqrt(float(np.sum(sol.u[0] ** 2)) * problem.grid.cell_volume),
        "weak_residual": weak.max_residual,
        "weak_rep_residual": weak.max_representation_residual,
    }


def _check_degenerate(out: dict) -> list:
    checks = [
        ("c_fit finite and positive", math.isfinite(out["c_fit"]) and out["c_fit"] > 0),
        ("weak-form residual <= 1e-9", out["weak_residual"] <= 1e-9),
    ]
    return [name for name, ok in checks if not ok]


# -- oracle_refine --------------------------------------------------------------


def _unit_field(g, seed: int, max_mode: int) -> np.ndarray:
    f = grid.random_smooth_field(g, max_mode=max_mode, seed=seed)
    return f / math.sqrt(float(np.sum(f * f)) * g.cell_volume)


def _make_oracle(seed: int, sizes: dict, work_dir: str) -> dict:
    g2 = grid.SpatialGrid(dim=2, half_width=np.pi, points=sizes["heat_M"])
    g1 = grid.SpatialGrid(dim=1, half_width=np.pi, points=sizes["wiener_M"])
    heat = oracles.heat_oracle(
        g2, horizon=sizes["heat_T"], terminal_field=_unit_field(g2, 2000 + seed, 2)
    )
    wiener = oracles.wiener_linear_oracle(
        g1, horizon=sizes["wiener_T"], profile=_unit_field(g1, 3000 + seed, 2)
    )
    runs = [("heat", heat, sizes["heat_n"])]
    runs += [(f"wiener_{n}", wiener, n) for n in sizes["wiener_n"]]
    return {"runs": runs}


def _task_oracle(inp: dict) -> dict:
    config = solver.SolverConfig(time_stepping=solver.SEMI_IMPLICIT)
    out = {}
    for label, oracle, n in inp["runs"]:
        horizon = oracle.horizon
        tree = lattice.build_tree(
            lattice.TimeGrid(horizon, n), oracle.coefficients.wiener_dim, "recombining"
        )
        sol = solver.solve(solver.problem_from_oracle(oracle, tree), config)
        err = oracles.solution_error(sol.u, sol.q, tree, oracle)
        out[f"{label}_u_error"] = err["u_sup_error"]
        if label != "heat":
            out[f"{label}_q_error"] = err["q_sup_error"]
    return out


def _check_oracle(out: dict) -> list:
    wiener = sorted(
        int(k.split("_")[1]) for k in out if k.startswith("wiener_") and k.endswith("_u_error")
    )
    checks = [("heat u error <= 5e-2", out["heat_u_error"] <= 5e-2)]
    for coarse, fine in zip(wiener, wiener[1:]):
        for part in ("u", "q"):
            checks.append(
                (
                    f"wiener {part} error halves from n={coarse} to n={fine}",
                    _halves(out[f"wiener_{coarse}_{part}_error"], out[f"wiener_{fine}_{part}_error"]),
                )
            )
    return [name for name, ok in checks if not ok]


# -- varying_cli ------------------------------------------------------------------


def _cli_config(seed: int, sizes: dict) -> str:
    """A solve config whose coefficients vary in x, W and t.

    sigma amplitude stays below 0.4 so the stochastic coupling number
    dt max|sigma|^2 / h^2 stays under one at the fixed sizes; a carries
    0.5 sigma^2 plus a positive part, so 2a - sigma^2 >= 0 holds exactly.
    """
    s = _draw(seed, 1, 0.2, 0.3)
    k = _draw(seed, 2, 0.05, 0.15)
    b = _draw(seed, 3, 0.2, 0.6)
    f = _draw(seed, 4, 0.1, 0.5)
    sigma = f"{s!r} * (1 + 0.3 * sin(x1 + w1))"
    return "\n".join(
        [
            "[grid]",
            "d = 1",
            f"R = {math.pi!r}",
            f"M = {sizes['M']}",
            "",
            "[tree]",
            f"T = {sizes['T']}",
            f"n_steps = {sizes['n']}",
            "dprime = 1",
            "mode = recombining",
            "",
            "[problem]",
            "time_stepping = semi_implicit",
            f"a11 = 0.5 * ({sigma}) ^ 2 + {k!r} * (1 + 0.5 * cos(x1 - w1) * exp(-t))",
            f"sigma11 = {sigma}",
            f"b1 = {b!r} * sin(x1 + t)",
            f"f = {f!r} * cos(x1) * tanh(w1)",
            "phi_random_modes = 3",
            "phi_normalize = 1",
            f"seed = {seed}",
            "",
            "[energy]",
            "m1 = 1",
            "p = 2 4",
            "",
        ]
    )


def _make_cli(seed: int, sizes: dict, work_dir: str) -> dict:
    work = tempfile.mkdtemp(prefix="varying_cli-", dir=work_dir)
    config = os.path.join(work, "solve.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(_cli_config(seed, sizes))
    return {"work": work, "config": config, "out": os.path.join(work, "out")}


def _task_cli(inp: dict) -> dict:
    argv = ["solve", "--config", inp["config"], "--out", inp["out"], "--threads", "1"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    out = {"exit_code": code}
    if code != cli.EXIT_OK:
        return out
    printed = json.loads(stdout.getvalue())
    for rep in printed["estimates"]:
        for name, entry in rep["entries"].items():
            out[f"p{rep['p']:g}_{name}_c_fit"] = entry["c_fit"]
            out[f"p{rep['p']:g}_{name}_lhs"] = entry["lhs"]
    out["weak_residual"] = printed["weak_form"]["max_residual"]
    out["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(inp["out"], name)) for name in os.listdir(inp["out"])
    )
    return out


def _check_cli(out: dict) -> list:
    if out["exit_code"] != 0:
        return ["bspdelab solve exits 0"]
    fits = [v for k, v in out.items() if k.endswith("_c_fit")]
    checks = [
        ("every c_fit finite and positive", all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in fits)),
        ("weak-form residual <= 1e-9", out["weak_residual"] <= 1e-9),
    ]
    return [name for name, ok in checks if not ok]


def cleanup(inputs: dict) -> None:
    """Remove the scratch files a workload's `make` created, if any."""
    if "work" in inputs:
        shutil.rmtree(inputs["work"], ignore_errors=True)


# -- control_search ----------------------------------------------------------------


def _control_params(seed: int) -> dict:
    """Acceptance-7/8 parameters on the default seed, nearby draws otherwise.

    The running-cost sign flip stays strictly between the levels t = 0.025
    and t = 0.05, so no Hamiltonian ties arise on any seed.
    """
    if seed == DEFAULT_SEED:
        return {"flip": 0.043, "amp": 0.1, "xi_conc": 1.0, "cos2": 0.3, "drift": 0.2, "dual_amp": 0.2}
    return {
        "flip": _draw(seed, 11, 0.035, 0.045),
        "amp": _draw(seed, 12, 0.08, 0.12),
        "xi_conc": _draw(seed, 13, 0.8, 1.2),
        "cos2": _draw(seed, 14, 0.2, 0.4),
        "drift": _draw(seed, 15, 0.1, 0.3),
        "dual_amp": _draw(seed, 16, 0.15, 0.25),
    }


def _density(g, conc: float) -> np.ndarray:
    x = g.axis_coordinates()
    xi0 = np.exp(conc * np.cos(x))
    return xi0 / grid.inner_product(xi0, np.ones_like(xi0), g)


def _steering_problem(par: dict, sizes: dict):
    g = grid.SpatialGrid(dim=1, half_width=np.pi, points=sizes["steer_M"])
    tree = lattice.build_tree(lattice.TimeGrid(0.1, sizes["steer_n"]), 1, "full")
    x = g.axis_coordinates()
    flip, amp = par["flip"], par["amp"]
    return control.ControlProblem(
        grid=g,
        tree=tree,
        gamma=(-1.0, 1.0),
        terminal_phi=np.cos(x),
        xi0=_density(g, par["xi_conc"]),
        a=lambda t, v, gr: 0.25 * np.eye(1),
        sigma=lambda t, v, gr: 0.5 * np.ones((1, 1)),
        big_f=lambda t, v, gr: v * np.sin(x),
        cost_f=lambda t, v, gr: amp * v * np.cos(x) * (t - flip),
        name="steering",
    )


def _duality_problem(par: dict, sizes: dict, n_steps: int):
    g = grid.SpatialGrid(dim=1, half_width=np.pi, points=sizes["dual_M"])
    tree = lattice.build_tree(lattice.TimeGrid(0.1, n_steps), 1, "recombining")
    x = g.axis_coordinates()
    drift, amp = par["drift"], par["dual_amp"]
    return control.ControlProblem(
        grid=g,
        tree=tree,
        gamma=(-1.0, 0.5),
        terminal_phi=np.sin(x) + par["cos2"] * np.cos(2.0 * x),
        xi0=_density(g, par["xi_conc"]),
        a=lambda t, v, gr: 0.5 * np.eye(1),
        b=lambda t, v, gr: drift * np.ones(1),
        sigma=lambda t, v, gr: 0.5 * np.ones((1, 1)),
        big_f=lambda t, v, gr: v * np.sin(x),
        big_g=lambda t, v, gr: 0.1,
        cost_f=lambda t, v, gr: amp * v * np.sin(x),
        name="duality",
    )


def _make_control(seed: int, sizes: dict, work_dir: str) -> dict:
    par = _control_params(seed)
    return {
        "steering": _steering_problem(par, sizes),
        "duality": [_duality_problem(par, sizes, n) for n in sizes["dual_n"]],
    }


def _task_control(inp: dict) -> dict:
    problem = inp["steering"]
    exhaustive = control.exhaustive_policy_search(problem)
    record = control.policy_iteration(problem, control.constant_policy(problem.tree, 0))
    forward = control.solve_forward(problem, exhaustive.policy)
    adjoint = control.solve_adjoint(problem, exhaustive.policy)
    mp = control.check_max_principle(problem, exhaustive.policy, forward, adjoint)
    out = {
        "exhaustive_j": exhaustive.j,
        "n_policies": exhaustive.n_policies,
        "iterated_j": record.js[-1],
        "pass_fraction": mp.pass_fraction,
        "optimal_policy": json.dumps([lv.tolist() for lv in exhaustive.policy.indices]),
    }
    for dual in inp["duality"]:
        policy = control.constant_policy(dual.tree, 0)
        fwd = control.solve_forward(dual, policy)
        adj = control.solve_adjoint(dual, policy)
        report = control.duality_check(dual, policy, fwd, adj)
        n = dual.tree.n_steps
        out[f"duality_{n}_j"] = report.j_direct
        out[f"duality_{n}_defect"] = report.defect
    return out


def _check_control(out: dict) -> list:
    steps = sorted(int(k.split("_")[1]) for k in out if k.endswith("_defect"))
    checks = [
        ("iteration matches exhaustive J to 1e-10", abs(out["iterated_j"] - out["exhaustive_j"]) <= 1e-10),
        ("maximum condition at every node", out["pass_fraction"] == 1.0),
        (
            f"duality defect <= 1e-2 |J| at n={steps[0]}",
            out[f"duality_{steps[0]}_defect"] <= 1e-2 * abs(out[f"duality_{steps[0]}_j"]),
        ),
    ]
    for coarse, fine in zip(steps, steps[1:]):
        checks.append(
            (
                f"duality defect halves from n={coarse} to n={fine}",
                _halves(out[f"duality_{coarse}_defect"], out[f"duality_{fine}_defect"]),
            )
        )
    return [name for name, ok in checks if not ok]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="degenerate_full",
            why="acceptance-3 rotating noise on a full d'=2 tree, explicit: stencils, "
            "einsum generator, full-tree reshapes and energy; the memory-heavy case",
            sizes={"M": 64, "n": 5, "T": 0.02},
            make=_make_degenerate,
            task=_task_degenerate,
            check=_check_degenerate,
            unreferenced=frozenset({"weak_residual", "weak_rep_residual"}),
        ),
        Workload(
            name="oracle_refine",
            why="heat and wiener_linear oracles, semi-implicit with constant a: one LU "
            "reused on every level, plus oracle scoring",
            sizes={
                "heat_M": 128,
                "heat_n": 32,
                "heat_T": 0.5,
                "wiener_M": 256,
                "wiener_n": (64, 128),
                "wiener_T": 1.0,
            },
            make=_make_oracle,
            task=_task_oracle,
            check=_check_oracle,
        ),
        Workload(
            name="varying_cli",
            why="bspdelab solve on a config with a, sigma varying in x, W and t: one LU "
            "per level and Wiener row, expression sampling and CLI artifacts",
            sizes={"M": 128, "n": 64, "T": 0.5},
            make=_make_cli,
            task=_task_cli,
            check=_check_cli,
            unreferenced=frozenset({"weak_residual", "artifact_bytes"}),
        ),
        Workload(
            name="control_search",
            why="acceptance-7 exhaustive policy search and policy iteration plus the "
            "acceptance-8 duality check: the only load on control",
            sizes={"steer_M": 16, "steer_n": 4, "dual_M": 64, "dual_n": (16, 32)},
            make=_make_control,
            task=_task_control,
            check=_check_control,
        ),
    )
}
