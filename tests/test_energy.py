"""Energy functional and estimate verification tests.

Core claims:
    - PowerG implements s^k with correct first and second derivatives and
      refuses exponents in (1, 2) where G'' is singular at zero
    - energy_fields returns the nonnegative derivative square sums, equal
      to u^2 and |r|^2 at order zero
    - theta reproduces a closed-form value on constant fields: with
      u = 1, r = 0, f = 0 and only a reaction coefficient c, the density
      is 2 c everywhere, and the basic-estimate minimal constant is then
      2 c eps_lemma exactly
    - check_basic_estimate holds by construction at its own minimal
      constant, holds at larger constants, fails below the minimum, and
      rejects bad eps_lemma or non-parabolic coefficients
    - verify_main_estimates fits finite constants on a real solve, flags
      zero-data-zero-solution as trivial, and flags a positive left side
      over a zero right side as violated
    - constant_sweep re-solves per viscosity, solves once per exponent
      sweep, and validates its inputs
"""

import numpy as np
import pytest
from pytest import approx

from bspdelab.coefficients import (
    CoefficientSet,
    ParabolicityError,
    builtin_counterexamples,
    constant_sampler,
    derive_from_sample,
)
from bspdelab.energy import (
    EnergyConfig,
    PowerG,
    SWEEP_COLUMNS,
    check_basic_estimate,
    constant_sweep,
    energy_fields,
    theta,
    verify_main_estimates,
)
from bspdelab.grid import SpatialGrid, random_smooth_field
from bspdelab.lattice import TimeGrid, build_tree
from bspdelab.solver import ProblemData, solve


def _const_coeffs(d=1, dprime=1, a=0.5, b=0.0, c=0.0, sigma=0.0, nu=0.0):
    return CoefficientSet(
        dim=d,
        wiener_dim=dprime,
        a=constant_sampler(a * np.eye(d), (d, d)),
        b=constant_sampler(b * np.ones(d), (d,)),
        c=constant_sampler(c, ()),
        sigma=constant_sampler(sigma * np.ones((d, dprime)), (d, dprime)),
        nu=constant_sampler(nu * np.ones(dprime), (dprime,)),
    )


def _grid(M=32):
    return SpatialGrid(dim=1, half_width=np.pi, points=M)


# -- weight ---------------------------------------------------------------


def test_power_g_values():
    g = PowerG(1.0)
    assert g.g(3.0) == approx(3.0)
    assert g.g1(3.0) == approx(1.0)
    assert g.g2(3.0) == approx(0.0)
    g2 = PowerG(2.0)
    assert g2.g(3.0) == approx(9.0)
    assert g2.g1(3.0) == approx(6.0)
    assert g2.g2(3.0) == approx(2.0)
    g3 = PowerG(3.0)
    assert g3.g1(2.0) == approx(12.0)
    assert g3.g2(2.0) == approx(12.0)


def test_power_g_refusals():
    with pytest.raises(ValueError):
        PowerG(0.5)
    with pytest.raises(ValueError, match="singular"):
        PowerG(1.5)
    PowerG(1.0)
    PowerG(2.0)
    PowerG(2.5)


def test_energy_config_validation():
    with pytest.raises(ValueError):
        EnergyConfig(m=-1)
    with pytest.raises(ValueError):
        EnergyConfig(m=4)
    with pytest.raises(ValueError):
        EnergyConfig(m=1, p=1.5)
    EnergyConfig(m=3, p=2.0)


# -- fields ---------------------------------------------------------------


def test_energy_fields_order_zero():
    grid = _grid()
    x = grid.axis_coordinates()
    u = np.cos(x)
    r = np.stack([np.sin(x), 0.5 * np.cos(2 * x)], axis=-1)
    ef = energy_fields(u, r, grid, m=0)
    assert ef.psi == approx(u * u)
    assert ef.upsilon == approx(np.sin(x) ** 2 + 0.25 * np.cos(2 * x) ** 2)


def test_energy_fields_nonnegative_higher_order():
    grid = _grid()
    rng = np.random.Generator(np.random.Philox(5))
    u = random_smooth_field(grid, max_mode=4, seed=11)
    r = np.stack([random_smooth_field(grid, max_mode=4, seed=s) for s in (2, 3)], axis=-1)
    for m in (1, 2, 3):
        ef = energy_fields(u, r, grid, m)
        assert np.all(ef.psi >= 0)
        assert np.all(ef.upsilon >= 0)
        # higher order adds terms
        prev = energy_fields(u, r, grid, m - 1)
        assert np.all(ef.psi >= prev.psi - 1e-14)


# -- theta closed form ---------------------------------------------------------------


def test_theta_constant_fields_reaction_only():
    grid = _grid()
    coeffs = _const_coeffs(c=2.0)
    derived = derive_from_sample(coeffs.sample(0.0, np.zeros(1), grid))
    u = np.ones(grid.shape)
    r = np.zeros(grid.shape + (1,))
    f = np.zeros(grid.shape)
    th = theta(u, r, f, derived, EnergyConfig(m=1))
    assert th.shape == grid.shape
    assert th == approx(4.0 * np.ones(grid.shape), abs=1e-12)


def test_theta_shape_rejections():
    grid = _grid()
    coeffs = _const_coeffs()
    derived = derive_from_sample(coeffs.sample(0.0, np.zeros(1), grid))
    cfg = EnergyConfig(m=1)
    with pytest.raises(ValueError):
        theta(np.ones(7), np.zeros(grid.shape + (1,)), np.zeros(grid.shape), derived, cfg)
    with pytest.raises(ValueError):
        theta(np.ones(grid.shape), np.zeros((7, 1)), np.zeros(grid.shape), derived, cfg)


def test_basic_estimate_closed_form_minimal_constant():
    # u = 1, r = 0, f = 0, c = 2: lhs = 2c|box|, I = 0, J = 2|box|,
    # so minimal = eps * 2c|box| / (2|box|) = 2 eps
    grid = _grid()
    coeffs = _const_coeffs(c=2.0)
    u = np.ones(grid.shape)
    r = np.zeros(grid.shape + (1,))
    f = np.zeros(grid.shape)
    for eps in (0.25, 0.5, 0.8):
        rep = check_basic_estimate(u, r, f, coeffs, grid, EnergyConfig(m=1), eps_lemma=eps)
        assert rep.minimal_c == approx(2.0 * eps, rel=1e-12)
        assert rep.holds
        assert rep.i_integral == approx(0.0, abs=1e-14)
        assert rep.j_integral == approx(2.0 * 2.0 * np.pi, rel=1e-12)
        assert rep.f_integral == approx(0.0, abs=1e-14)
        assert rep.lhs == approx(4.0 * 2.0 * np.pi, rel=1e-12)


# -- basic estimate on random fields ---------------------------------------------------------------


def _random_instance(seed):
    grid = _grid()
    u = random_smooth_field(grid, max_mode=3, seed=seed)
    r = np.stack([random_smooth_field(grid, max_mode=3, seed=seed + 50)], axis=-1)
    f = random_smooth_field(grid, max_mode=3, seed=seed + 100)
    coeffs = _const_coeffs(a=0.5, sigma=1.0, c=5.0, b=0.4, nu=0.3)
    return grid, u, r, f, coeffs


def test_basic_estimate_holds_at_minimal_and_above():
    grid, u, r, f, coeffs = _random_instance(7)
    cfg = EnergyConfig(m=1)
    rep = check_basic_estimate(u, r, f, coeffs, grid, cfg, eps_lemma=0.5)
    assert rep.holds
    assert rep.c_fit == rep.minimal_c
    assert rep.slack == approx(0.0, abs=1e-9 * max(1.0, abs(rep.lhs)))
    bigger = check_basic_estimate(
        u, r, f, coeffs, grid, cfg, eps_lemma=0.5, c_fit=rep.minimal_c + 1.0
    )
    assert bigger.holds
    assert bigger.slack > 0


def test_basic_estimate_fails_below_minimal():
    grid, u, r, f, coeffs = _random_instance(9)
    cfg = EnergyConfig(m=1)
    rep = check_basic_estimate(u, r, f, coeffs, grid, cfg, eps_lemma=0.5)
    assert rep.minimal_c > 0
    low = check_basic_estimate(
        u, r, f, coeffs, grid, cfg, eps_lemma=0.5, c_fit=0.5 * rep.minimal_c
    )
    assert not low.holds
    assert low.slack < 0


def test_basic_estimate_input_validation():
    grid, u, r, f, coeffs = _random_instance(3)
    cfg = EnergyConfig(m=1)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="eps_lemma"):
            check_basic_estimate(u, r, f, coeffs, grid, cfg, eps_lemma=bad)


def test_basic_estimate_requires_parabolicity():
    grid = SpatialGrid(dim=2, half_width=np.pi, points=16)
    bad = CoefficientSet(
        dim=2,
        wiener_dim=2,
        a=constant_sampler(np.zeros((2, 2)), (2, 2)),
        b=constant_sampler(np.zeros(2), (2,)),
        c=constant_sampler(0.0, ()),
        sigma=constant_sampler(np.eye(2), (2, 2)),
        nu=constant_sampler(np.zeros(2), (2,)),
    )
    u = np.ones(grid.shape)
    r = np.zeros(grid.shape + (2,))
    f = np.zeros(grid.shape)
    with pytest.raises(ParabolicityError):
        check_basic_estimate(u, r, f, bad, grid, EnergyConfig(m=0), eps_lemma=0.5)


def test_basic_estimate_weight_two_runs():
    # exponent 2 weight exercises the G'' cross term
    grid, u, r, f, coeffs = _random_instance(21)
    rep = check_basic_estimate(
        u, r, f, coeffs, grid, EnergyConfig(m=1, g=PowerG(2.0)), eps_lemma=0.5
    )
    assert rep.holds
    assert np.isfinite(rep.minimal_c)


def test_basic_estimate_on_degenerate_counterexample():
    # the symmetry-breaking coefficients are still degenerate parabolic,
    # so the one-sided bound closes at a finite constant
    grid = SpatialGrid(dim=2, half_width=np.pi, points=16)
    coeffs = builtin_counterexamples()[0]
    u = random_smooth_field(grid, max_mode=2, seed=4)
    r = np.stack(
        [random_smooth_field(grid, max_mode=2, seed=s) for s in (14, 15)], axis=-1
    )
    f = np.zeros(grid.shape)
    rep = check_basic_estimate(u, r, f, coeffs, grid, EnergyConfig(m=1), eps_lemma=0.5)
    assert rep.holds
    assert rep.minimal_c >= 0.0
    assert np.isfinite(rep.lhs)


# -- solution estimates ---------------------------------------------------------------


def _solved_instance(M=32, T=0.05, n=10, forcing=None, terminal_scale=1.0):
    grid = _grid(M)
    tree = build_tree(TimeGrid(T, n), 1, "recombining")
    x = grid.axis_coordinates()
    problem = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=_const_coeffs(a=0.5, sigma=0.6),
        terminal=lambda w, g: terminal_scale * np.cos(x) * (1.0 + 0.3 * w[0]),
        forcing=forcing,
    )
    return problem, solve(problem)


def test_main_estimates_fit_finite_constants():
    problem, sol = _solved_instance()
    rep = verify_main_estimates(sol, problem, m1=1)
    e = rep.entry("energy_l2")
    assert e.verdict == "ok"
    assert 0 < e.c_fit < 50
    assert e.lhs > 0 and e.rhs > 0
    s = rep.entry("sup_p")
    assert s.verdict == "ok"
    assert 0 < s.c_fit < 50
    assert rep.m1 == 1
    assert rep.tree_mode == "recombining"


def test_main_estimates_higher_p():
    problem, sol = _solved_instance()
    rep = verify_main_estimates(sol, problem, m1=0, p=4.0)
    assert rep.entry("sup_p").verdict == "ok"
    assert rep.p == 4.0


def test_main_estimates_trivial_on_zero_data():
    problem, sol = _solved_instance(terminal_scale=0.0)
    rep = verify_main_estimates(sol, problem, m1=1)
    assert rep.entry("energy_l2").verdict == "trivial"
    assert np.isnan(rep.entry("energy_l2").c_fit)


def test_main_estimates_flag_unaccounted_mass():
    # solve with forcing, then measure against a problem that claims none:
    # positive left side over a zero right side must read as violated
    grid = _grid(32)
    x = grid.axis_coordinates()
    forcing = lambda t, w, g: np.sin(x)
    tree = build_tree(TimeGrid(0.05, 10), 1, "recombining")
    coeffs = _const_coeffs(a=0.5)
    forced = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=coeffs,
        terminal=lambda w, g: np.zeros(g.shape),
        forcing=forcing,
    )
    sol = solve(forced)
    bare = ProblemData(
        grid=grid,
        tree=tree,
        coefficients=coeffs,
        terminal=lambda w, g: np.zeros(g.shape),
    )
    rep = verify_main_estimates(sol, bare, m1=0)
    assert rep.entry("energy_l2").verdict == "violated"
    assert rep.entry("energy_l2").c_fit == np.inf


def test_main_estimates_validation():
    problem, sol = _solved_instance()
    with pytest.raises(ValueError, match="m1"):
        verify_main_estimates(sol, problem, m1=9)
    with pytest.raises(ValueError, match="p"):
        verify_main_estimates(sol, problem, m1=0, p=1.0)


# -- sweeps ---------------------------------------------------------------


def test_viscosity_sweep_bounded_constants():
    problem, _ = _solved_instance()
    table = constant_sweep(problem, "viscosity", [1e-1, 1e-2, 1e-3], m1=1)
    assert table.kind == "viscosity"
    assert table.column("sweep_value") == approx([1e-1, 1e-2, 1e-3])
    fits = table.column("c_fit")
    assert all(np.isfinite(fits))
    assert max(fits) / min(fits) < 3.0
    assert len(table.rows) == 3
    assert len(table.rows[0]) == len(SWEEP_COLUMNS)


def test_exponent_sweep_single_solve():
    problem, _ = _solved_instance()
    table = constant_sweep(problem, "exponent", [2.0, 3.0, 4.0], m1=0)
    fits = table.column("c_fit")
    assert all(np.isfinite(fits)) and all(f > 0 for f in fits)


def test_sweep_rejections():
    problem, _ = _solved_instance()
    with pytest.raises(ValueError, match="empty"):
        constant_sweep(problem, "viscosity", [])
    with pytest.raises(ValueError, match=">= 0"):
        constant_sweep(problem, "viscosity", [-0.1])
    with pytest.raises(ValueError, match=">= 2"):
        constant_sweep(problem, "exponent", [1.5])
    with pytest.raises(ValueError, match="kind"):
        constant_sweep(problem, "gamma", [1.0])
