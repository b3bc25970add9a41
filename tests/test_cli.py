"""Experiment runner tests, driven in process through main(argv).

Core claims:
    - exit code 0 on success, 1 on config/usage errors, 2 on asserted
      violations and compute failures
    - --threads is validated but writes no thread variable to the
      environment
    - solve writes norms.csv with oracle error columns plus the config
      hash, and a manifest whose artifact list matches the files written
    - reruns of one config produce byte-identical artifacts
    - field dumps appear in the requested formats and agree across them
    - check reports the symmetry violation of the built-in degenerate
      coefficients informationally, and exit 2 only when asserted
    - a CFL-infeasible explicit solve exits 2 with a machine-readable
      suggestion on stderr
    - sweep writes the constant table and a continuation block with
      strictly decreasing gaps
    - control writes the policy iteration record with full certification
    - the seed flag overrides the config seed and changes the data
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from bspdelab import cli
from bspdelab.cli import main

PI = "3.141592653589793"


def _write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _heat_config(extra=""):
    return f"""
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

[energy]
m1 = 1
p = 2.0
{extra}
"""


def _check_config(extra=""):
    return f"""
[grid]
d = 2
R = {PI}
M = 16

[tree]
T = 0.02
n_steps = 2
dprime = 2
mode = full

[problem]
builtin = counterexample-1
{extra}
"""


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve ---------------------------------------------------------------


def test_solve_heat_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, _heat_config())
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, ["solve", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads(stdout)
    assert len(summary["config_hash"]) == 64
    assert summary["weak_form"]["max_residual"] < 1e-9
    assert summary["oracle"]["u_sup_error"] < 0.05
    assert summary["oracle"]["name"] == "heat"

    norms = (out / "norms.csv").read_text().splitlines()
    header = norms[0].split(",")
    assert header == [
        "level",
        "t",
        "u_l2",
        "u_m1",
        "r_l2",
        "oracle_u_l2",
        "oracle_q_l2",
        "config_hash",
    ]
    assert len(norms) == 1 + 11
    assert norms[1].endswith(summary["config_hash"])

    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == [
        "artifacts",
        "command",
        "config_hash",
        "estimates",
        "grid",
        "oracle",
        "origin",
        "solver",
        "tree",
        "weak_form",
    ]
    assert manifest["origin"] == {"kind": "oracle"}
    assert manifest["tree"]["n_steps"] == 10
    assert manifest["grid"]["M"] == 32
    assert sorted(manifest["artifacts"]) == ["manifest.json", "norms.csv"]
    entries = manifest["estimates"][0]["entries"]
    assert entries["energy_l2"]["verdict"] == "ok"


def test_solve_reruns_bit_identical(tmp_path, capsys):
    cfg = _write(tmp_path, _heat_config())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = _run(capsys, ["solve", "--config", cfg, "--out", str(out)])
        assert code == 0
        outs.append(out)
    for artifact in ("norms.csv", "manifest.json"):
        b0 = (outs[0] / artifact).read_bytes()
        b1 = (outs[1] / artifact).read_bytes()
        assert b0 == b1


def test_solve_field_dumps_agree_across_formats(tmp_path, capsys):
    from bspdelab.grid import SpatialGrid, read_field_binary, read_field_csv

    cfg = _write(
        tmp_path,
        _heat_config(
            extra="\n[output]\ndump_fields = root\nformats = both\n"
        ),
    )
    out = tmp_path / "run"
    code, _, _ = _run(capsys, ["solve", "--config", cfg, "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "u_L000_N000000.bin" in manifest["artifacts"]
    assert "u_L000_N000000.csv" in manifest["artifacts"]
    field_bin, grid_back = read_field_binary(out / "u_L000_N000000.bin")
    assert grid_back == SpatialGrid(dim=1, half_width=np.pi, points=32)
    field_csv = read_field_csv(out / "u_L000_N000000.csv", grid_back)
    assert field_bin == approx(field_csv, abs=1e-12)


def test_solve_cfl_failure_exits_two_with_suggestion(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        f"""
[grid]
d = 1
R = {PI}
M = 64

[tree]
T = 1.0
n_steps = 10
dprime = 1
mode = recombining

[problem]
oracle = heat
""",
    )
    code, _, stderr = _run(
        capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "x")]
    )
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"] == "CflError"
    assert payload["suggested_n_steps"] > 10
    # no drift: the advective bound is infinite and serializes as its repr
    assert payload["dt_transport"] == "inf"
    assert payload["suggested_dt"] == approx(payload["dt_parabolic"])


def test_solve_semi_implicit_accepts_same_setup(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        f"""
[grid]
d = 1
R = {PI}
M = 64

[tree]
T = 1.0
n_steps = 10
dprime = 1
mode = recombining

[problem]
oracle = heat
time_stepping = semi_implicit
""",
    )
    code, stdout, _ = _run(
        capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "x")]
    )
    assert code == 0
    assert json.loads(stdout)["weak_form"]["max_residual"] < 1e-9


# -- check ---------------------------------------------------------------


def test_check_reports_violation_informationally(tmp_path, capsys):
    cfg = _write(tmp_path, _check_config())
    code, stdout, _ = _run(capsys, ["check", "--config", cfg])
    assert code == 0
    report = json.loads(stdout)
    assert report["coefficients"] == "counterexample-1"
    assert report["symmetry"]["status"] == "violated"
    assert report["symmetry"]["max_violation"] > report["symmetry"]["tol"]
    assert report["parabolicity"]["verdict"] != "violated"
    assert report["violations"] == []
    assert "c_prime" in report["oleinik"]


def test_check_asserted_symmetry_fails(tmp_path, capsys):
    cfg = _write(tmp_path, _check_config(extra="assert_symmetry = true\n"))
    code, stdout, _ = _run(capsys, ["check", "--config", cfg])
    assert code == 2
    report = json.loads(stdout)
    assert len(report["violations"]) == 1


def test_check_asserted_parabolicity_modes(tmp_path, capsys):
    cfg_dp = _write(tmp_path, _check_config(extra="assert_parabolicity = dp\n"))
    code, _, _ = _run(capsys, ["check", "--config", cfg_dp])
    assert code == 0
    cfg_sp = _write(tmp_path, _check_config(extra="assert_parabolicity = sp\n"))
    code, stdout, _ = _run(capsys, ["check", "--config", cfg_sp])
    assert code == 2
    assert "sp" in json.loads(stdout)["violations"][0].lower()


# -- usage errors ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[grid]\nd = 1\nR = 3.14\nM = 32\nwhat = 1\n",
        "[nonsense]\nx = 1\n",
    ],
    ids=["empty", "unknown-key", "unknown-section"],
)
def test_config_errors_exit_one(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    code, _, stderr = _run(capsys, ["check", "--config", cfg])
    assert code == 1
    assert "usage error" in stderr


def test_missing_config_exits_one(tmp_path, capsys):
    code, _, stderr = _run(
        capsys, ["check", "--config", str(tmp_path / "absent.ini")]
    )
    assert code == 1
    assert "usage error" in stderr


def test_oracle_coefficient_clash_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, _heat_config(extra="a11 = 0.5\n"))
    code, _, stderr = _run(
        capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "a11" in stderr


def test_bad_threads_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, _heat_config())
    code, _, stderr = _run(
        capsys, ["check", "--config", cfg, "--threads", "0"]
    )
    assert code == 1
    assert "threads" in stderr


def test_threads_flag_leaves_the_environment_alone(tmp_path, capsys, monkeypatch):
    # the BLAS pools are sized at import, so writing these now would change nothing
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    cfg = _write(tmp_path, _heat_config())
    code, _, _ = _run(capsys, ["check", "--config", cfg, "--threads", "2"])
    assert code == 0
    assert dict(os.environ) == before


_CONTROL_CONFIG = f"""
[grid]
d = 1
R = {PI}
M = 16

[tree]
T = 0.1
n_steps = 4
dprime = 1
mode = full

[control]
gamma = -1.0, 1.0
a11 = 0.25
sigma11 = 0.5
F = v * sin(x1)
f = 0.1 * v * cos(x1) * (t - 0.043)
phi = cos(x1)
xi0 = exp(cos(x1))
max_iters = 8
"""


def test_control_bad_tol_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, _CONTROL_CONFIG + "tol = abc\n")
    code, _, stderr = _run(capsys, ["control", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "usage error:" in stderr
    assert "tol" in stderr


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "energy, needle",
    [("m1 = 5\np = 2.0", "m1"), ("m1 = 1\np = 2 1.5", "p")],
    ids=["m1-over-cap", "p-below-two"],
)
def test_bad_energy_settings_exit_one_before_compute(
    tmp_path, capsys, monkeypatch, command, energy, needle
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the [energy] section was read")

    monkeypatch.setattr(cli, "solve", no_solve)
    monkeypatch.setattr(cli, "constant_sweep", no_solve)
    text = _heat_config().replace("m1 = 1\np = 2.0", energy)
    if command == "sweep":
        text += "\n[sweep]\nkind = viscosity\nvalues = 0.1, 0.01\n"
    out = tmp_path / "run"
    code, _, stderr = _run(capsys, [command, "--config", _write(tmp_path, text), "--out", str(out)])
    assert code == 1
    assert stderr.startswith("usage error:")
    assert needle in stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["m = 1", "g_exponent = 2", "eps_lemma = 0.5"])
def test_unread_energy_keys_exit_one(tmp_path, capsys, key):
    cfg = _write(tmp_path, _heat_config(extra=key))
    code, _, stderr = _run(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "usage error:" in stderr
    assert key.split()[0] in stderr


# -- sweep ---------------------------------------------------------------


def test_sweep_table_and_continuation(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        _heat_config(
            extra="\n[sweep]\nkind = viscosity\nvalues = 0.1, 0.01, 0.001\n"
        ),
    )
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, ["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads(stdout)
    assert summary["rows"] == 3
    assert summary["c_fit_max_over_min"] >= 1.0
    cont = summary["continuation"]
    assert cont["eps_schedule"] == [0.1, 0.01, 0.001]
    assert len(cont["u_gaps"]) == 2
    assert cont["u_gaps_strictly_decreasing"] is True
    assert cont["aborted_at"] is None

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "sweep_value,lhs,rhs,c_fit,config_hash"
    assert len(lines) == 4
    assert lines[1].startswith("0.1,")


def test_sweep_bad_kind_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        _heat_config(extra="\n[sweep]\nkind = gamma\nvalues = 1.0\n"),
    )
    code, _, stderr = _run(
        capsys, ["sweep", "--config", cfg, "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "kind" in stderr


# -- control ---------------------------------------------------------------


def test_control_record(tmp_path, capsys):
    cfg = _write(tmp_path, _CONTROL_CONFIG)
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, ["control", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads(stdout)
    assert summary["converged"] is True
    assert summary["pass_fraction"] == 1.0
    record = json.loads((out / "control.json").read_text())
    assert record["gamma"] == [-1.0, 1.0]
    assert len(record["final"]["policy"]) == 1 + 2 + 4 + 8
    assert record["final"]["defect"] <= record["final"]["tol"]
    assert record["config_hash"] == summary["config_hash"]


# -- oracle test and seeding ---------------------------------------------------------------


def test_oracle_test_both_oracles(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        f"""
[grid]
d = 1
R = {PI}
M = 32

[tree]
T = 0.5
n_steps = 32
dprime = 1
mode = recombining

[problem]
oracle = heat
time_stepping = semi_implicit
""",
    )
    code, stdout, _ = _run(capsys, ["oracle-test", "--config", cfg])
    assert code == 0
    blocks = json.loads(stdout)["oracles"]
    assert set(blocks) == {"heat", "wiener_linear"}
    for block in blocks.values():
        assert block["step_constant"] < 10.0
        assert block["u_sup_error"] < 0.1


def test_seed_flag_overrides_config(tmp_path, capsys):
    base = f"""
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
a11 = 0.5
phi_random_modes = 3
seed = 7
"""
    cfg = _write(tmp_path, base)
    runs = {}
    for name, argv_extra in (
        ("default", []),
        ("same", []),
        ("override", ["--seed", "9"]),
    ):
        out = tmp_path / name
        code, _, _ = _run(
            capsys, ["solve", "--config", cfg, "--out", str(out)] + argv_extra
        )
        assert code == 0
        runs[name] = (out / "norms.csv").read_text()
    assert runs["default"] == runs["same"]
    assert runs["default"] != runs["override"]
