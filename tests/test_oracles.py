"""Closed-form reference solution tests.

Core claims:
    - the heat oracle satisfies the backward heat equation: its time
      derivative equals minus the diffusion term, checked by finite
      differencing the exact semigroup in time
    - heat terminal condition is reproduced exactly at t = T and q = 0
    - the wiener-linear oracle pair satisfies the one-step backward
      relation u(t) = E_t[u(t+dt)] + dt * (a u_xx + sigma q_x) with the
      expectation taken over a Bernoulli increment (an independent
      two-point quadrature, not the solver)
    - the wiener-linear q is the martingale coefficient of u in w
    - exact_level_fields evaluates per unique Wiener state, and its rows
      through its node -> row map match direct evaluation at every node,
      bit for bit, with one field FFT per level whatever the number of
      Wiener states
    - a W-free oracle is evaluated at W = 0 alone, one row for every node
    - solution_error returns zero when fed the oracle's own rows and map,
      and scoring a solve's stored rows equals scoring its node arrays
    - convergence_constant divides by dt + h^2
"""

import dataclasses
import math

import numpy as np
import pytest
from pytest import approx

from bspdelab.grid import SpatialGrid, axis_derivative, level_norm_sq
from bspdelab.lattice import AdaptedGridField, TimeGrid, build_tree
from bspdelab.oracles import (
    convergence_constant,
    exact_level_fields,
    heat_oracle,
    solution_error,
    wiener_linear_oracle,
)
from bspdelab.solver import SEMI_IMPLICIT, SolverConfig, problem_from_oracle, solve


def _grid(M=64):
    return SpatialGrid(dim=1, half_width=np.pi, points=M)


def _exact(oracle, t, w):
    """The oracle's (u, q) at one Wiener state w."""
    u, q = oracle.exact_fields(t, np.asarray(w, dtype=np.float64).reshape(1, -1))
    return u[0], q[0]


# -- heat ---------------------------------------------------------------


def test_heat_terminal_and_no_noise():
    grid = _grid()
    oracle = heat_oracle(grid, horizon=0.3)
    w = np.zeros(1)
    x = grid.axis_coordinates()
    phi = np.cos(x) + 0.5 * np.cos(2 * x)
    assert _exact(oracle, 0.3, w)[0] == approx(phi, abs=1e-12)
    assert np.all(_exact(oracle, 0.1, w)[1] == 0)
    assert oracle.terminal(w, grid) == approx(phi, abs=1e-12)


def test_heat_satisfies_backward_pde():
    # du/dt = -a u_xx along the exact semigroup, via centered time differences
    grid = _grid(128)
    oracle = heat_oracle(grid, horizon=0.5, diffusion=0.5)
    w = np.zeros(1)
    t, dt = 0.2, 1e-5
    du_dt = (_exact(oracle, t + dt, w)[0] - _exact(oracle, t - dt, w)[0]) / (2 * dt)
    u = _exact(oracle, t, w)[0]
    # spectral second derivative of the band-limited profile
    k = np.fft.fftfreq(grid.points, d=grid.h) * 2 * np.pi
    u_xx = np.fft.ifft(-(k ** 2) * np.fft.fft(u)).real
    assert np.max(np.abs(du_dt + 0.5 * u_xx)) < 1e-7


def test_heat_semigroup_decay_rates():
    # mode k decays like exp(-a k^2 (T - t))
    grid = _grid(128)
    oracle = heat_oracle(grid, horizon=1.0, diffusion=0.5)
    w = np.zeros(1)
    u0 = _exact(oracle, 0.0, w)[0]
    c1 = np.fft.fft(u0)[1] / grid.points
    c2 = np.fft.fft(u0)[2] / grid.points
    assert abs(c1) == approx(0.5 * math.exp(-0.5), rel=1e-10)
    assert abs(c2) == approx(0.25 * math.exp(-2.0), rel=1e-10)


# -- wiener linear ---------------------------------------------------------------


def test_wiener_linear_terminal_is_w_times_profile():
    grid = _grid()
    oracle = wiener_linear_oracle(grid, horizon=1.0)
    x = grid.axis_coordinates()
    for wval in (-0.7, 0.0, 1.3):
        w = np.array([wval])
        assert _exact(oracle, 1.0, w)[0] == approx(wval * np.cos(x), abs=1e-12)
        assert oracle.terminal(w, grid) == approx(wval * np.cos(x), abs=1e-12)


def test_wiener_linear_one_step_backward_relation():
    # two-point quadrature over dW = +-sqrt(dt):
    # E_t[u(t+dt, w + dW)] + dt (a u_xx + sigma q_x) = u(t, w) + O(dt^2)
    grid = _grid(256)
    oracle = wiener_linear_oracle(grid, horizon=1.0)
    w = np.array([0.4])
    for t, dt in [(0.3, 1e-4), (0.7, 1e-4)]:
        sq = math.sqrt(dt)
        mean = 0.5 * (
            _exact(oracle, t + dt, w + sq)[0] + _exact(oracle, t + dt, w - sq)[0]
        )
        u, q = _exact(oracle, t, w)
        q = q[:, 0]
        k = np.fft.fftfreq(grid.points, d=grid.h) * 2 * np.pi
        u_xx = np.fft.ifft(-(k ** 2) * np.fft.fft(_exact(oracle, t + dt, w)[0])).real
        q_x = np.fft.ifft(1j * k * np.fft.fft(q)).real
        recon = mean + dt * (0.5 * u_xx + 1.0 * q_x)
        assert np.max(np.abs(recon - u)) < 5e-7


def test_wiener_linear_q_is_w_slope():
    grid = _grid()
    oracle = wiener_linear_oracle(grid, horizon=1.0)
    t = 0.25
    dw = 1e-6
    up = _exact(oracle, t, np.array([0.5 + dw]))[0]
    down = _exact(oracle, t, np.array([0.5 - dw]))[0]
    slope = (up - down) / (2 * dw)
    assert slope == approx(_exact(oracle, t, np.array([0.5]))[1][:, 0], abs=1e-8)


def test_wiener_linear_needs_1d():
    grid2 = SpatialGrid(dim=2, half_width=np.pi, points=16)
    with pytest.raises(ValueError):
        wiener_linear_oracle(grid2, horizon=1.0)


# -- level evaluation and scoring ---------------------------------------------------------------


def test_exact_level_fields_match_direct_evaluation():
    grid = _grid(32)
    oracle = wiener_linear_oracle(grid, horizon=0.5)
    tree = build_tree(TimeGrid(0.5, 6), 1, "recombining")
    for level in (0, 3, 6):
        u_rows, q_rows, inv = exact_level_fields(oracle, tree, level)
        assert len(u_rows) == len(q_rows) == level + 1
        u, q = u_rows[inv], q_rows[inv]
        t = tree.time_grid.time(level)
        wlev = tree.level_w(level)
        assert u.shape == (tree.level_sizes[level],) + grid.shape
        for i in range(tree.level_sizes[level]):
            u_i, q_i = _exact(oracle, t, wlev[i])
            assert u[i] == approx(u_i, abs=1e-13)
            assert q[i] == approx(q_i, abs=1e-13)


def _oracle_cases():
    grid = _grid(32)
    grid2 = SpatialGrid(dim=2, half_width=np.pi, points=16)
    # (oracle, Wiener dimension, field FFT name, FFT calls per level)
    return {
        "heat": (heat_oracle(grid, horizon=0.5), 1, "ifftn", 1),
        "heat_2d": (heat_oracle(grid2, horizon=0.5, wiener_dim=2), 2, "ifftn", 1),
        "wiener": (wiener_linear_oracle(grid, horizon=0.5), 1, "ifft", 2),
    }


@pytest.mark.parametrize(
    "case, mode",
    [("heat", "full"), ("heat", "recombining"), ("heat_2d", "full"),
     ("wiener", "full"), ("wiener", "recombining")],
)
def test_exact_level_fields_batch_equals_per_row_calls(monkeypatch, case, mode):
    oracle, wiener_dim, fft_name, per_level = _oracle_cases()[case]
    tree = build_tree(TimeGrid(0.5, 4), wiener_dim, mode)
    real_fft = getattr(np.fft, fft_name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real_fft(*args, **kwargs)

    for level in range(tree.n_steps + 1):
        calls[0] = 0
        with monkeypatch.context() as m:
            m.setattr(np.fft, fft_name, counting)
            u_rows, q_rows, inv = exact_level_fields(oracle, tree, level)
        assert calls[0] == per_level
        u, q = u_rows[inv], q_rows[inv]
        t = tree.time_grid.time(level)
        w = tree.level_w(level)
        assert np.array_equal(u, np.stack([_exact(oracle, t, row)[0] for row in w]))
        assert np.array_equal(q, np.stack([_exact(oracle, t, row)[1] for row in w]))


def test_w_free_oracle_is_evaluated_at_one_state(monkeypatch):
    oracle = heat_oracle(_grid(32), horizon=0.5)
    assert not oracle.w_dependent and wiener_linear_oracle(_grid(32), horizon=0.5).w_dependent
    tree = build_tree(TimeGrid(0.5, 4), 1, "full")
    seen = []

    def recording(t, w_rows):
        seen.append(w_rows.copy())
        return exact(t, w_rows)

    exact = oracle.exact_fields
    oracle = dataclasses.replace(oracle, exact_fields=recording)
    u, q, inv = exact_level_fields(oracle, tree, 3)
    assert u.shape == (1,) + oracle.grid.shape and q.shape == (1,) + oracle.grid.shape + (1,)
    assert inv.tolist() == [0] * 8
    assert [w.tolist() for w in seen] == [[[0.0]]]


@pytest.mark.parametrize("mode", ["full", "recombining"])
def test_solution_error_of_stored_rows_equals_node_arrays(mode):
    grid = _grid(16)
    tree = build_tree(TimeGrid(0.5, 8), 1, mode)
    for oracle in (heat_oracle(grid, horizon=0.5), wiener_linear_oracle(grid, horizon=0.5)):
        sol = solve(problem_from_oracle(oracle, tree), SolverConfig(time_stepping=SEMI_IMPLICIT))
        nodes_u = AdaptedGridField([sol.u[k] for k in range(len(sol.u))])
        nodes_q = AdaptedGridField([sol.q[k] for k in range(len(sol.q))])
        assert solution_error(sol.u, sol.q, tree, oracle) == solution_error(nodes_u, nodes_q, tree, oracle)


def test_solution_error_zero_on_oracle_fields():
    grid = _grid(32)
    oracle = wiener_linear_oracle(grid, horizon=0.5)
    tree = build_tree(TimeGrid(0.5, 5), 1, "recombining")
    # the oracle's own rows and map: every level is scored keyed
    fields = [exact_level_fields(oracle, tree, level) for level in range(6)]
    u_levels = AdaptedGridField([u for u, _, _ in fields], [inv for _, _, inv in fields])
    q_levels = AdaptedGridField([q for _, q, _ in fields[:5]], [inv for _, _, inv in fields[:5]])
    err = solution_error(u_levels, q_levels, tree, oracle)
    assert err["u_sup_error"] == approx(0.0, abs=1e-13)
    assert err["q_sup_error"] == approx(0.0, abs=1e-13)
    assert err["q_integrated_error"] == approx(0.0, abs=1e-13)


def test_solution_error_scales_with_perturbation():
    grid = _grid(32)
    oracle = heat_oracle(grid, horizon=0.4)
    tree = build_tree(TimeGrid(0.4, 4), 1, "recombining")
    u_levels, q_levels = [], []
    for level in range(5):
        u, q, inv = exact_level_fields(oracle, tree, level)
        u_levels.append(u[inv] + 0.01)
        if level < 4:
            q_levels.append(q[inv])
    err = solution_error(AdaptedGridField(u_levels), AdaptedGridField(q_levels), tree, oracle)
    # constant offset has L2 norm 0.01 * sqrt(2 pi)
    assert err["u_sup_error"] == approx(0.01 * math.sqrt(2 * np.pi), rel=1e-10)


def test_convergence_constant():
    assert convergence_constant(0.02, 0.01, 0.1) == approx(1.0)
    assert convergence_constant(0.0, 0.5, 0.5) == 0.0
