"""Array kernels of the hot path, pinned bit for bit.

Core claims:
    - component_dot equals the matching np.einsum contraction exactly for
      every (d, d') in {1, 2}^2, with a (grid, d, d') coefficient broadcast
      against a (nodes, grid, d) field: m . v, m^T . v and the dot product
    - axis_derivative equals the np.roll stencil formula exactly for orders
      0-3, on axes 0, 1 and -1, for axis lengths 1, 2, 3, 5 and 64, for
      integer input and for fields with trailing component axes
    - counterexample-1 solves on a full d'=2 tree (explicit; explicit and
      semi-implicit with constant b, c, nu added), their weak-form residuals
      and energy estimates reproduce the numbers of the einsum / np.roll
      kernels exactly
"""

import dataclasses

import numpy as np
import pytest

from bspdelab import coefficients, energy, grid, lattice, solver
from bspdelab.coefficients import constant_sampler
from bspdelab.grid import _STENCILS, axis_derivative, component_dot


def _roll_derivative(field, order, axis, h):
    """The stencil formula with shifted copies, as axis_derivative once was."""
    if order == 0:
        return field
    acc = None
    for off, weight in _STENCILS[order]:
        term = weight * np.roll(field, -off, axis=axis)
        acc = term if acc is None else acc + term
    return acc / h**order


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dp", [1, 2])
def test_component_dot_equals_einsum(d, dp):
    rng = np.random.default_rng(10 * d + dp)
    shape = (6, 5)
    a = rng.normal(size=shape + (d, d))
    sigma = rng.normal(size=shape + (d, dp))
    b = rng.normal(size=shape + (d,))
    nu = rng.normal(size=shape + (dp,))
    du = rng.normal(size=(4,) + shape + (d,))
    q = rng.normal(size=(4,) + shape + (dp,))
    cases = [
        (component_dot(a, du[..., None, :]), np.einsum("...ij,...j->...i", a, du)),
        (component_dot(sigma, q[..., None, :]), np.einsum("...ik,...k->...i", sigma, q)),
        (
            component_dot(sigma, du[..., :, None], axis=-2),
            np.einsum("...ik,...i->...k", sigma, du),
        ),
        (component_dot(b, du), np.einsum("...i,...i->...", b, du)),
        (component_dot(nu, q), np.einsum("...k,...k->...", nu, q)),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 64])
def test_axis_derivative_equals_roll_formula(order, axis, m):
    rng = np.random.default_rng(100 * order + m)
    h = 0.3
    fields = [
        rng.normal(size=(m, m)),
        rng.integers(-50, 50, size=(m, m)),
        rng.normal(size=(m, m, 2)),
        rng.normal(size=(3, m, m, 2)),
    ]
    for field in fields:
        got = axis_derivative(field, order, axis, h)
        want = _roll_derivative(field, order, axis, h)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _counterexample_problem(lower_order: bool):
    """Counterexample-1 on a full d'=2 tree, optionally with constant b, c, nu."""
    g = grid.SpatialGrid(dim=2, half_width=np.pi, points=16)
    tree = lattice.build_tree(lattice.TimeGrid(0.02, 3), 2, "full")
    phi = grid.random_smooth_field(g, max_mode=3, seed=7)
    phi = phi / grid.sobolev_norm(phi, g, 1, 2.0)
    psi = grid.random_smooth_field(g, max_mode=2, seed=8)
    coeffs = coefficients.builtin_counterexamples()[0]
    if lower_order:
        coeffs = dataclasses.replace(
            coeffs,
            b=constant_sampler([0.3, -0.2], (2,)),
            c=constant_sampler(0.5, ()),
            nu=constant_sampler([0.1, -0.4], (2,)),
        )
    return solver.ProblemData(
        grid=g,
        tree=tree,
        coefficients=coeffs,
        terminal=lambda w, gr: phi * (1.0 + w[0]) + psi * w[1],
    )


# numbers of the einsum / np.roll kernels, compared with ==
_REFERENCE = {
    "explicit": {
        "energy": (119.76381557371536, 55.0039322579439, 174.91350415916585, 149.18929353621564),
        "u0_sum": 0.7588828541229824,
        "u0_05": 0.14807119139880504,
        "u1_sq": 88.15007737057292,
        "q0_sum": -39.830691295137626,
        "q2_abs": 11949.695446840415,
        "r0_sum": -35.08544865085396,
        "r2_sq": 52374.74157319592,
        "max_residual": 4.460437701212635e-15,
        "max_rep": 6.271088356237322e-17,
        "per_level": [
            (1.0137358411846898e-15, 5.3309871531895515e-17),
            (3.3453282759094763e-15, 5.882447501360362e-17),
            (4.460437701212635e-15, 6.271088356237322e-17),
        ],
    },
    "explicit_lower_order": {
        "energy": (120.21517496801907, 55.0039322579439, 175.12520038304123, 149.18929353621564),
        "u0_sum": 1.0719432440013237,
        "u0_05": 0.16911537615772004,
        "u1_sq": 88.83004435428064,
        "q0_sum": -40.09667180034179,
        "q2_abs": 11949.695446840415,
        "r0_sum": -36.93422572676056,
        "r2_sq": 52356.19959803832,
        "max_residual": 4.460437701212635e-15,
        "max_rep": 6.271088356237322e-17,
        "per_level": [
            (7.700984780260172e-16, 3.1881355012488164e-17),
            (1.6219773458955037e-15, 5.792915651769056e-17),
            (4.460437701212635e-15, 6.271088356237322e-17),
        ],
    },
    "semi_implicit_lower_order": {
        "energy": (120.00792384911622, 55.0039322579439, 174.91949701893654, 149.18929353621564),
        "u0_sum": 1.0779292195386283,
        "u0_05": 0.16612315406959627,
        "u1_sq": 88.21162302409132,
        "q0_sum": -40.09755988215396,
        "q2_abs": 11949.695446840415,
        "r0_sum": -36.97019687168142,
        "r2_sq": 52366.50159451111,
        "max_residual": 1.4597796113059534e-14,
        "max_rep": 8.278613068640198e-17,
        "per_level": [
            (5.271426374160387e-15, 4.7692408335161434e-17),
            (1.094834708479465e-14, 8.278613068640198e-17),
            (1.4597796113059534e-14, 6.271088356237322e-17),
        ],
    },
}
_SEMI = solver.SolverConfig(
    viscosity=0.05, time_stepping=solver.SEMI_IMPLICIT, corrector_iterations=2
)


@pytest.mark.parametrize(
    "case, config, lower_order",
    [
        ("explicit", solver.SolverConfig(), False),
        ("explicit_lower_order", solver.SolverConfig(), True),
        ("semi_implicit_lower_order", _SEMI, True),
    ],
)
def test_counterexample_solve_reproduces_kernel_reference(case, config, lower_order):
    problem = _counterexample_problem(lower_order)
    sol = solver.solve(problem, config)
    weak = solver.weak_form_residual(sol, problem, solver.default_test_functions(problem.grid))
    est = energy.verify_main_estimates(sol, problem, m1=1, p=4.0)
    l2, sup = est.entry("energy_l2"), est.entry("sup_p")
    got = {
        "energy": (l2.lhs, l2.rhs, sup.lhs, sup.rhs),
        "u0_sum": float(np.sum(sol.u[0])),
        "u0_05": float(sol.u[0][0, 0, 5]),
        "u1_sq": float(np.sum(sol.u[1] ** 2)),
        "q0_sum": float(np.sum(sol.q[0])),
        "q2_abs": float(np.sum(np.abs(sol.q[2]))),
        "r0_sum": float(np.sum(sol.r[0])),
        "r2_sq": float(np.sum(sol.r[2] ** 2)),
        "max_residual": weak.max_residual,
        "max_rep": weak.max_representation_residual,
        "per_level": [tuple(map(float, x)) for x in weak.per_level],
    }
    assert got == _REFERENCE[case]
