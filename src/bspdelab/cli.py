"""Experiment runner: config ingestion, subcommands, deterministic artifacts.

Configs are flat sectioned key = value text (UTF-8) with expression strings
for coefficients and data; see the README for the key tables.  Artifacts are
bit-reproducible: no wall clock, randomized fields draw from a counter-based
generator under a config-declared seed, and every artifact embeds the sha256
of the config file.

Exit codes: 0 ok, 1 usage or config error, 2 declared-condition violation or
compute failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .coefficients import (
    CoefficientSet,
    ParabolicityError,
    _seam_mask,
    builtin_counterexamples,
    check_parabolicity,
    check_symmetry,
    constant_sampler,
    oleinik_constant,
)
from .control import ControlProblem, constant_policy, control_report
from .energy import SWEEP_COLUMNS, constant_sweep, main_estimate_reports
from .expr import ExprParseError, evaluate, expression_variables, parse
from .grid import (
    MAX_DERIVATIVE_ORDER,
    SpatialGrid,
    random_smooth_field,
    sobolev_norm,
    write_field_binary,
    write_field_csv,
)
from .lattice import BudgetExceededError, TimeGrid, UnsupportedModeError
from .lattice import build_tree as build_path_tree
from .oracles import convergence_constant, heat_oracle, solution_error, wiener_linear_oracle
from .solver import (
    ProblemData,
    SolverConfig,
    default_test_functions,
    oracle_step_residual,
    parabolicity_probes,
    problem_from_oracle,
    solve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

KNOWN_SECTIONS = ("grid", "tree", "problem", "energy", "sweep", "control", "output")

_GRID_KEYS = {"d", "R", "M"}
_TREE_KEYS = {"T", "n_steps", "dprime", "mode"}
_PROBLEM_STATIC_KEYS = {
    "builtin",
    "oracle",
    "f",
    "phi",
    "phi_random_modes",
    "phi_normalize",
    "seed",
    "eps",
    "time_stepping",
    "corrector_iterations",
    "cfl_safety",
    "assert_parabolicity",
    "assert_symmetry",
}
_ENERGY_KEYS = {"m1", "p"}
_SWEEP_KEYS = {"kind", "values"}
_CONTROL_STATIC_KEYS = {
    "gamma",
    "F",
    "f",
    "phi",
    "xi0",
    "max_iters",
    "tol",
    "policy0",
}
_OUTPUT_KEYS = {"directory", "dump_fields", "formats"}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment config; maps to exit code 1."""


def _entry_keys(base: str, shape: tuple, symmetric: bool = False):
    """(key, index) of each config entry of a coefficient of this shape.

    A scalar is the bare base, a vector base{i}, a matrix base{i}{j} (i <= j
    when symmetric), all 1-based.
    """
    for index in np.ndindex(*shape):
        if not (symmetric and index[1] < index[0]):
            yield base + "".join(str(i + 1) for i in index), index


def _coefficient_shapes(d: int, dprime: int) -> dict:
    """base -> (shape, symmetric) of the generator's coefficients a, b, c, sigma, nu."""
    return {
        "a": ((d, d), True),
        "b": ((d,), False),
        "c": ((), False),
        "sigma": ((d, dprime), False),
        "nu": ((dprime,), False),
    }


def _coefficient_keys(d: int, dprime: int) -> set[str]:
    shapes = _coefficient_shapes(d, dprime).items()
    return {key for base, spec in shapes for key, _ in _entry_keys(base, *spec)}


def load_config(path: str) -> tuple[configparser.ConfigParser, str]:
    """Parse and hash the config file; reject unknown sections early."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = p.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(raw.decode("utf-8"), source=path)
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not parser.sections():
        raise ConfigError(f"{path} declares no sections")
    unknown = set(parser.sections()) - set(KNOWN_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}; known: {KNOWN_SECTIONS}")
    return parser, digest


def _section(parser, name: str, required: bool = True) -> dict:
    if not parser.has_section(name):
        if required:
            raise ConfigError(f"missing [{name}] section")
        return {}
    return dict(parser.items(name))


def _check_keys(section: str, data: dict, allowed: set) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"[{section}] has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _get(data: dict, section: str, key: str, cast, default=None):
    if key not in data:
        if default is None:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    try:
        return cast(data[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {data[key]!r}: {exc}") from None


def _get_bool(data: dict, section: str, key: str, default: bool) -> bool:
    if key not in data:
        return default
    text = data[key].strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} = {data[key]!r} is not a boolean")


def _float_list(text: str) -> list[float]:
    vals = [float(tok) for tok in text.replace(",", " ").split()]
    if not vals:
        raise ValueError("empty list")
    return vals


def _float_or_auto(text: str) -> float | None:
    return None if text.strip() == "auto" else float(text)


def build_grid(parser):
    data = _section(parser, "grid")
    _check_keys("grid", data, _GRID_KEYS)
    try:
        return SpatialGrid(
            dim=_get(data, "grid", "d", int),
            half_width=_get(data, "grid", "R", float),
            points=_get(data, "grid", "M", int),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None


def build_tree(parser):
    data = _section(parser, "tree")
    _check_keys("tree", data, _TREE_KEYS)
    try:
        time_grid = TimeGrid(
            horizon=_get(data, "tree", "T", float),
            n_steps=_get(data, "tree", "n_steps", int),
        )
        return build_path_tree(
            time_grid,
            wiener_dim=_get(data, "tree", "dprime", int, default=1),
            mode=_get(data, "tree", "mode", str, default="recombining"),
        )
    except (ValueError, BudgetExceededError, UnsupportedModeError) as exc:
        raise ConfigError(f"[tree]: {exc}") from None


def _compile_entry(source: str, allowed: set, where: str):
    try:
        node = parse(source)
    except ExprParseError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    used = expression_variables(node)
    bad = used - allowed
    if bad:
        raise ConfigError(
            f"{where} uses variables {sorted(bad)}; allowed here: {sorted(allowed)}"
        )
    return node, used


class _ExpressionField:
    """Grid-field sampler compiled from per-entry expression strings.

    Entries evaluate in an environment holding t, the grid coordinates
    x1..xd, the Wiener state w1..wd' (zeros when absent), and optionally the
    control value v.  Missing entries are zero.  `rows` samples a stack of
    Wiener states in one evaluation per entry; a single state is its
    one-row case.
    """

    def __init__(self, entries: dict, suffix: tuple, symmetric: bool = False):
        self.entries = entries
        self.suffix = suffix
        self.symmetric = symmetric
        self.variables = set()
        for node, used in entries.values():
            self.variables |= used

    def __call__(self, t, w, grid, v=None):
        return self.rows(t, None if w is None else np.reshape(w, (1, -1)), grid, v)[0]

    def rows(self, t, states, grid, v=None):
        """Entries at every Wiener row of states (U, d'), None for W = 0:
        shape (U, *grid, *suffix).

        Each w_k is bound to a (U, 1, ..., 1) column that broadcasts
        against the grid coordinates.
        """
        count = 1 if states is None else len(states)
        column = (count,) + (1,) * grid.dim
        env = {"t": t}
        for axis, coord in enumerate(grid.coordinates()):
            env[f"x{axis + 1}"] = coord
        if v is not None:
            env["v"] = v
        for var in self.variables:
            if var.startswith("w"):
                k = int(var[1:]) - 1
                col = np.zeros(count) if states is None else np.asarray(states, dtype=np.float64)[:, k]
                env[var] = col.reshape(column)
        target = (count,) + grid.shape
        out = np.zeros(target + self.suffix)
        for index, (node, _) in self.entries.items():
            val = np.broadcast_to(np.asarray(evaluate(node, env), dtype=np.float64), target)
            out[(Ellipsis,) + index] = val
            if self.symmetric and index != index[::-1]:
                out[(Ellipsis,) + index[::-1]] = val
        return out


def _expression_field(
    data: dict,
    section: str,
    base: str,
    shape: tuple,
    allowed: set,
    symmetric: bool = False,
) -> _ExpressionField | None:
    """Collect base{i}{j} (or base{i}, or bare base) keys into one sampler."""
    entries = {
        index: _compile_entry(data[key], allowed, f"[{section}] {key}")
        for key, index in _entry_keys(base, shape, symmetric)
        if key in data
    }
    if not entries:
        return None
    return _ExpressionField(entries, shape, symmetric=symmetric)


def _problem_allowed_vars(grid, tree) -> set:
    allowed = {"t"}
    allowed.update(f"x{i + 1}" for i in range(grid.dim))
    allowed.update(f"w{k + 1}" for k in range(tree.wiener_dim))
    return allowed


def build_coefficients(parser, grid, tree):
    """CoefficientSet from [problem]: builtin name or per-entry expressions."""
    data = _section(parser, "problem")
    d, dprime = grid.dim, tree.wiener_dim
    allowed_keys = _PROBLEM_STATIC_KEYS | _coefficient_keys(d, dprime)
    _check_keys("problem", data, allowed_keys)

    coeff_keys = _coefficient_keys(d, dprime) & set(data)
    if "builtin" in data:
        if coeff_keys:
            raise ConfigError(
                f"[problem] mixes builtin = {data['builtin']!r} with "
                f"coefficient keys {sorted(coeff_keys)}"
            )
        name = data["builtin"].strip()
        sets = {c.name: c for c in builtin_counterexamples()}
        if name not in sets:
            raise ConfigError(f"builtin must be one of {sorted(sets)}, got {name!r}")
        chosen = sets[name]
        if d != chosen.dim or dprime != chosen.wiener_dim:
            raise ConfigError(
                f"builtin {name} needs d = {chosen.dim}, dprime = {chosen.wiener_dim}; "
                f"config has d = {d}, dprime = {dprime}"
            )
        return chosen

    allowed_vars = _problem_allowed_vars(grid, tree)
    fields = {
        base: _expression_field(data, "problem", base, shape, allowed_vars, symmetric=sym)
        for base, (shape, sym) in _coefficient_shapes(d, dprime).items()
    }
    if all(f is None for f in fields.values()):
        raise ConfigError(
            "[problem] declares no coefficients; set builtin, oracle, or a*/b*/c/sigma*/nu* keys"
        )
    used = set()
    for f in fields.values():
        if f is not None:
            used |= f.variables

    return CoefficientSet(
        dim=d,
        wiener_dim=dprime,
        a=fields["a"] or constant_sampler(0.0, (d, d)),
        b=fields["b"],
        c=fields["c"],
        sigma=fields["sigma"],
        nu=fields["nu"],
        w_dependent=any(v.startswith("w") for v in used),
        time_dependent="t" in used,
        periodic=False,
        name="config",
    )


def _resolve_seed(data: dict, args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return _get(data, "problem", "seed", int, default=0)


def build_terminal(parser, grid, tree, args):
    """Terminal field sampler phi(w) -> grid array, plus a description dict."""
    data = _section(parser, "problem")
    has_expr = "phi" in data
    has_random = "phi_random_modes" in data
    if has_expr and has_random:
        raise ConfigError("[problem] sets both phi and phi_random_modes")
    if not has_expr and not has_random:
        raise ConfigError("[problem] needs phi or phi_random_modes")
    normalize = data.get("phi_normalize", "none").strip()
    if has_random:
        seed = _resolve_seed(data, args)
        modes = _get(data, "problem", "phi_random_modes", int)
        field = random_smooth_field(grid, max_mode=modes, seed=seed)
        if normalize != "none":
            try:
                m = int(normalize)
            except ValueError:
                raise ConfigError(
                    f"phi_normalize must be 'none' or an integer order, got {normalize!r}"
                ) from None
            field = field / sobolev_norm(field, grid, m, 2.0)
        info = {"kind": "random", "modes": modes, "seed": seed, "normalize": normalize}
        return (lambda w, g: field), info
    if normalize != "none":
        raise ConfigError("phi_normalize applies only to phi_random_modes")
    allowed = _problem_allowed_vars(grid, tree) - {"t"}
    f = _expression_field(data, "problem", "phi", (), allowed)
    info = {"kind": "expression", "source": data["phi"]}
    return (lambda w, g: f(0.0, w, g)), info


def build_forcing(parser, grid, tree):
    data = _section(parser, "problem")
    if "f" not in data:
        return None, False
    allowed = _problem_allowed_vars(grid, tree)
    f = _expression_field(data, "problem", "f", (), allowed)
    w_dep = any(v.startswith("w") for v in f.variables)
    return f, w_dep


def build_solver_config(parser):
    data = _section(parser, "problem", required=False)
    try:
        return SolverConfig(
            viscosity=_get(data, "problem", "eps", float, default=0.0),
            time_stepping=_get(data, "problem", "time_stepping", str, default="explicit"),
            corrector_iterations=_get(data, "problem", "corrector_iterations", int, default=1),
            cfl_safety=_get(data, "problem", "cfl_safety", float, default=0.9),
        )
    except ValueError as exc:
        raise ConfigError(f"[problem]: {exc}") from None


def build_oracle(parser, grid, tree):
    data = _section(parser, "problem", required=False)
    kind = data.get("oracle", "none").strip()
    if kind == "none":
        return None
    horizon = tree.time_grid.horizon
    if kind == "heat":
        return heat_oracle(grid, horizon, wiener_dim=tree.wiener_dim)
    if kind == "wiener_linear":
        if grid.dim != 1 or tree.wiener_dim != 1:
            raise ConfigError("oracle = wiener_linear needs d = 1 and dprime = 1")
        return wiener_linear_oracle(grid, horizon)
    raise ConfigError(f"oracle must be none, heat, or wiener_linear, got {kind!r}")


def build_problem(parser, grid, tree, args):
    """ProblemData from the [problem] section; oracle configs delegate."""
    oracle = build_oracle(parser, grid, tree)
    if oracle is not None:
        data = _section(parser, "problem")
        clash = (_coefficient_keys(grid.dim, tree.wiener_dim) | {"builtin", "phi", "phi_random_modes", "f"}) & set(data)
        if clash:
            raise ConfigError(f"[problem] mixes oracle = {data['oracle']!r} with {sorted(clash)}")
        return problem_from_oracle(oracle, tree), oracle, {"kind": "oracle"}
    coeffs = build_coefficients(parser, grid, tree)
    terminal, phi_info = build_terminal(parser, grid, tree, args)
    forcing, forcing_w = build_forcing(parser, grid, tree)
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=coeffs,
        terminal=terminal,
        forcing=forcing,
        forcing_w_dependent=forcing_w,
    )
    return problem, None, {"kind": "data", "phi": phi_info}


def build_control_problem(parser, grid, tree):
    data = _section(parser, "control")
    d, dprime = grid.dim, tree.wiener_dim
    allowed_keys = (
        _CONTROL_STATIC_KEYS
        | _coefficient_keys(d, dprime)
        | {key for key, _ in _entry_keys("G", (dprime,))}
    )
    _check_keys("control", data, allowed_keys)
    gamma = _get(data, "control", "gamma", _float_list)
    allowed_vars = {"t", "v"} | {f"x{i + 1}" for i in range(d)}
    spatial_vars = {f"x{i + 1}" for i in range(d)}

    def sampler(base, shape, symmetric=False):
        f = _expression_field(data, "control", base, shape, allowed_vars, symmetric=symmetric)
        if f is None:
            return None
        return lambda t, v, g: f(t, None, g, v=v)

    def fixed_field(base):
        f = _expression_field(data, "control", base, (), spatial_vars)
        if f is None:
            raise ConfigError(f"[control] is missing required key {base!r}")
        return np.broadcast_to(f(0.0, None, grid), grid.shape)

    try:
        problem = ControlProblem(
            grid=grid,
            tree=tree,
            gamma=tuple(gamma),
            terminal_phi=fixed_field("phi"),
            xi0=fixed_field("xi0"),
            **{base: sampler(base, *spec) for base, spec in _coefficient_shapes(d, dprime).items()},
            big_f=sampler("F", ()),
            big_g=sampler("G", (dprime,)),
            cost_f=sampler("f", ()),
            name="config",
        )
    except ValueError as exc:
        raise ConfigError(f"[control]: {exc}") from None
    return problem, data


def _energy_settings(parser) -> tuple[int, list[float]]:
    """[energy] m1 (default 0) and the estimate exponents p (default 2)."""
    data = _section(parser, "energy", required=False)
    _check_keys("energy", data, _ENERGY_KEYS)
    m1 = _get(data, "energy", "m1", int, default=0)
    p_list = _get(data, "energy", "p", _float_list, default=[2.0])
    if not 0 <= m1 <= MAX_DERIVATIVE_ORDER:
        raise ConfigError(f"[energy] m1 = {m1} outside [0, {MAX_DERIVATIVE_ORDER}]")
    if not all(p >= 2 for p in p_list):
        raise ConfigError(f"[energy] p = {data['p']!r}: every exponent must be >= 2")
    return m1, p_list


def _output_settings(parser, args) -> tuple[Path, str, str]:
    data = _section(parser, "output", required=False)
    _check_keys("output", data, _OUTPUT_KEYS)
    directory = args.out or data.get("directory", ".")
    dump = data.get("dump_fields", "none").strip()
    if dump not in ("none", "root", "all"):
        raise ConfigError(f"dump_fields must be none, root, or all, got {dump!r}")
    formats = data.get("formats", "binary").strip()
    if formats not in ("binary", "csv", "both"):
        raise ConfigError(f"formats must be binary, csv, or both, got {formats!r}")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out, dump, formats


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


# -- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    """Run every coefficient checker; exit 2 only on asserted violations."""
    parser, digest = load_config(args.config)
    grid = build_grid(parser)
    tree = build_tree(parser)
    oracle = build_oracle(parser, grid, tree)
    coeffs = oracle.coefficients if oracle is not None else build_coefficients(parser, grid, tree)
    data = _section(parser, "problem")

    para = check_parabolicity(coeffs, grid, samples=parabolicity_probes(coeffs, tree))
    sym = check_symmetry(coeffs, grid)

    oleinik: dict | None = None
    try:
        a_field = coeffs.sample(0.0, np.zeros(tree.wiener_dim), grid).a
        probes = [random_smooth_field(grid, max_mode=3, seed=s) for s in range(3)]
        mask = None if coeffs.periodic else _seam_mask(grid)
        rep = oleinik_constant(a_field, grid, probes, mask=mask)
        oleinik = {
            "c_prime": rep.c_prime,
            "skipped_fraction": rep.skipped_fraction,
            "witness": _jsonable(rep.witness),
        }
    except (ParabolicityError, ValueError) as exc:
        oleinik = {"skipped": str(exc)}

    assert_mode = data.get("assert_parabolicity", "none").strip().lower()
    if assert_mode not in ("none", "dp", "sp"):
        raise ConfigError(f"assert_parabolicity must be none, dp, or sp, got {assert_mode!r}")
    assert_sym = _get_bool(data, "problem", "assert_symmetry", default=False)

    violations = []
    if assert_mode != "none" and not para.passes(assert_mode.upper()):
        violations.append(
            f"asserted {assert_mode.upper()} but verdict is {para.verdict} "
            f"(min eigenvalue {para.min_eigenvalue:.3e})"
        )
    if assert_sym and not sym.satisfied:
        violations.append(
            f"asserted symmetry but max violation {sym.max_violation:.3e} "
            f"exceeds tol {sym.tol:.3e}"
        )

    report = {
        "config_hash": digest,
        "coefficients": coeffs.name,
        "parabolicity": {
            "verdict": para.verdict,
            "min_eigenvalue": para.min_eigenvalue,
            "delta": para.delta,
            "witness": _jsonable(para.witness),
        },
        "symmetry": {
            "max_violation": sym.max_violation,
            "tol": sym.tol,
            "status": "ok" if sym.satisfied else "violated",
        },
        "oleinik": oleinik,
        "asserted": {"parabolicity": assert_mode, "symmetry": assert_sym},
        "violations": violations,
    }
    _print_json(report)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_solve(args) -> int:
    """Solve, verify the solution estimates, and write deterministic artifacts."""
    parser, digest = load_config(args.config)
    grid = build_grid(parser)
    tree = build_tree(parser)
    problem, oracle, origin = build_problem(parser, grid, tree, args)
    config = build_solver_config(parser)
    m1, p_list = _energy_settings(parser)
    out, dump, formats = _output_settings(parser, args)

    # the sweep checks the weak form as it steps; one pass takes every estimate and norm
    solution = solve(problem, config, default_test_functions(grid))
    weak = solution.weak_form
    reports = main_estimate_reports(solution, problem, m1, p_list)
    # csv writes the None of level n's r_l2 and oracle_q_l2 as an empty cell
    rows = [
        dict(level=level, t=tree.time_grid.time(level), u_l2=u_l2, u_m1=u_m1, r_l2=r_l2)
        for level, (u_l2, u_m1, r_l2) in enumerate(reports[0].level_norms)
    ]
    if oracle is not None:
        err = solution_error(solution.u, solution.q, tree, oracle)
        q_errors = err["q_level_errors"] + [None]
        for row, u_error, q_error in zip(rows, err["u_level_errors"], q_errors):
            row.update(oracle_u_l2=u_error, oracle_q_l2=q_error)

    columns = list(rows[0].keys()) + ["config_hash"]
    norms_path = out / "norms.csv"
    with open(norms_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns[:-1]] + [digest])

    artifacts = ["norms.csv", "manifest.json"]
    artifacts += _dump_fields(out, solution, problem, dump, formats)

    manifest = {
        "command": "solve",
        "config_hash": digest,
        "origin": _jsonable(origin),
        "grid": {"d": grid.dim, "R": grid.half_width, "M": grid.points, "h": grid.h},
        "tree": {
            "T": tree.time_grid.horizon,
            "n_steps": tree.n_steps,
            "dprime": tree.wiener_dim,
            "mode": tree.mode,
            "dt": tree.time_grid.dt,
            "level_sizes": list(tree.level_sizes),
        },
        "solver": _jsonable(solution.meta),
        "weak_form": {
            "max_residual": weak.max_residual,
            "max_representation_residual": weak.max_representation_residual,
            "n_test_functions": weak.n_test_functions,
        },
        "estimates": [
            {
                "m1": rep.m1,
                "p": rep.p,
                "entries": {
                    name: {
                        "lhs": e.lhs,
                        "rhs": e.rhs,
                        "c_fit": _jsonable(e.c_fit),
                        "verdict": e.verdict,
                    }
                    for name, e in rep.entries.items()
                },
            }
            for rep in reports
        ],
        "oracle": None,
        "artifacts": sorted(artifacts),
    }
    if oracle is not None:
        manifest["oracle"] = {
            "name": oracle.name,
            "u_sup_error": err["u_sup_error"],
            "q_sup_error": err["q_sup_error"],
            "q_integrated_error": err["q_integrated_error"],
            "constant": convergence_constant(
                err["u_sup_error"], tree.time_grid.dt, grid.h
            ),
        }
    _write_json(out / "manifest.json", _jsonable(manifest))
    _print_json(
        {
            "config_hash": digest,
            "out": str(out),
            "estimates": manifest["estimates"],
            "oracle": manifest["oracle"],
            "weak_form": manifest["weak_form"],
        }
    )
    return EXIT_OK


def _dump_fields(out: Path, solution, problem, dump: str, formats: str) -> list[str]:
    if dump == "none":
        return []
    grid, tree = problem.grid, problem.tree

    def write_one(stem: str, field) -> list[str]:
        names = []
        if formats in ("binary", "both"):
            write_field_binary(out / f"{stem}.bin", field, grid)
            names.append(f"{stem}.bin")
        if formats in ("csv", "both"):
            write_field_csv(out / f"{stem}.csv", field, grid)
            names.append(f"{stem}.csv")
        return names

    written = []
    if dump == "root":
        written += write_one("u_L000_N000000", solution.u.at(0, 0))
        return written
    for level in range(tree.n_steps + 1):
        for index in range(tree.level_sizes[level]):
            written += write_one(f"u_L{level:03d}_N{index:06d}", solution.u.at(level, index))
    return written


def cmd_sweep(args) -> int:
    """Viscosity or exponent sweep of the fitted estimate constant."""
    parser, digest = load_config(args.config)
    grid = build_grid(parser)
    tree = build_tree(parser)
    problem, _, _ = build_problem(parser, grid, tree, args)
    config = build_solver_config(parser)
    m1, _ = _energy_settings(parser)
    out, _, _ = _output_settings(parser, args)

    data = _section(parser, "sweep")
    _check_keys("sweep", data, _SWEEP_KEYS)
    kind = _get(data, "sweep", "kind", str)
    values = _get(data, "sweep", "values", _float_list)
    try:
        table = constant_sweep(problem, kind, values, config=config, m1=m1)
    except ValueError as exc:
        raise ConfigError(f"[sweep]: {exc}") from None

    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(SWEEP_COLUMNS) + ["config_hash"])
        for row in table.rows:
            writer.writerow(list(row) + [digest])

    c_fits = [row[3] for row in table.rows]
    finite = [c for c in c_fits if math.isfinite(c)]
    summary = {
        "config_hash": digest,
        "kind": kind,
        "m1": m1,
        "rows": len(table.rows),
        "c_fit_min": min(finite) if finite else None,
        "c_fit_max": max(finite) if finite else None,
        "c_fit_max_over_min": (max(finite) / min(finite)) if finite and min(finite) > 0 else None,
        "out": str(sweep_path),
    }
    cont = table.continuation
    if cont is not None:
        gaps = [float(g) for g in cont.u_gaps]
        summary["continuation"] = {
            "eps_schedule": list(cont.eps_schedule),
            "u_gaps": gaps,
            "u_gaps_strictly_decreasing": all(b < a for a, b in zip(gaps, gaps[1:])),
            "r_gaps": [float(g) for g in cont.r_gaps],
            "aborted_at": cont.aborted_at,
        }
    _print_json(summary)
    return EXIT_OK


def cmd_control(args) -> int:
    """Policy iteration with max-principle certification and duality defect."""
    parser, digest = load_config(args.config)
    grid = build_grid(parser)
    tree = build_tree(parser)
    problem, data = build_control_problem(parser, grid, tree)
    out, _, _ = _output_settings(parser, args)

    max_iters = _get(data, "control", "max_iters", int, default=20)
    tol = _get({"tol": "auto", **data}, "control", "tol", _float_or_auto)
    policy0 = _get(data, "control", "policy0", int, default=0)
    if not (0 <= policy0 < len(problem.gamma)):
        raise ConfigError(f"policy0 = {policy0} outside gamma of size {len(problem.gamma)}")

    report = control_report(
        problem,
        constant_policy(tree, policy0),
        max_iters=max_iters,
        tol=tol,
    )
    report["config_hash"] = digest
    _write_json(out / "control.json", _jsonable(report))
    _print_json(
        {
            "config_hash": digest,
            "converged": report["converged"],
            "oscillated": report["oscillated"],
            "n_iterations": report["n_iterations"],
            "final_j": report["final"]["j"],
            "defect": report["final"]["defect"],
            "pass_fraction": report["final"]["pass_fraction"],
            "out": str(out / "control.json"),
        }
    )
    return EXIT_OK


def cmd_oracle_test(args) -> int:
    """Single-step residuals and full-solve errors for the built-in oracles."""
    parser, digest = load_config(args.config)
    grid = build_grid(parser)
    tree = build_tree(parser)
    config = build_solver_config(parser)

    blocks = {}
    oracles = [heat_oracle(grid, tree.time_grid.horizon, wiener_dim=tree.wiener_dim)]
    if grid.dim == 1 and tree.wiener_dim == 1:
        oracles.append(wiener_linear_oracle(grid, tree.time_grid.horizon))
    for oracle in oracles:
        step = oracle_step_residual(
            oracle, tree.n_steps, mode=tree.mode, config=config
        )
        solution = solve(problem_from_oracle(oracle, tree), config)
        err = solution_error(solution.u, solution.q, tree, oracle)
        blocks[oracle.name] = {
            "step_residual": step.residual,
            "step_constant": step.constant,
            "u_sup_error": err["u_sup_error"],
            "q_sup_error": err["q_sup_error"],
            "dt": step.dt,
            "h": step.h,
        }
    _print_json({"config_hash": digest, "oracles": blocks})
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _check_threads(n: int | None) -> None:
    if n is not None and n < 1:
        raise ConfigError(f"--threads must be >= 1, got {n}")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bspdelab",
        description="Deterministic experiment runner for degenerate backward "
        "stochastic PDE studies on periodic grids and Bernoulli trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "check": (cmd_check, "run coefficient condition checkers"),
        "solve": (cmd_solve, "backward solve with estimate verification"),
        "sweep": (cmd_sweep, "viscosity or exponent constant sweep"),
        "control": (cmd_control, "policy iteration and duality report"),
        "oracle-test": (cmd_oracle_test, "oracle residual and error summary"),
    }
    for name, (func, help_text) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="experiment config path")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="checked to be >= 1 but otherwise ignored: the BLAS pools are sized "
            "before the command runs, so set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS "
            "in the environment instead",
        )
        sp.add_argument("--seed", type=int, default=None, help="seed override (u64)")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        _check_threads(args.threads)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - map compute failures to exit 2
        payload = {"error": type(exc).__name__, "message": str(exc)}
        report = getattr(exc, "report", None)
        if report is not None and hasattr(report, "suggested_n_steps"):
            payload["suggested_n_steps"] = report.suggested_n_steps
            payload["suggested_dt"] = min(report.dt_parabolic, report.dt_transport)
            payload["dt_parabolic"] = report.dt_parabolic
            payload["dt_transport"] = report.dt_transport
        print(json.dumps(_jsonable(payload), sort_keys=True), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
