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
    - skipping the generator terms whose coefficient is zero everywhere
      leaves u, q and r equal under == to the sweep that applied them: heat
      and wiener_linear oracles and an adjoint-kind level_coefficients
      problem with b = nu = 0, each explicit and semi-implicit, and forcing
      unset or set to zeros (the 1D semi-implicit entries are the banded
      LAPACK solve's, which differ from the SuperLU ones at rounding level)
"""

import dataclasses

import numpy as np
import pytest

from bspdelab import coefficients, energy, grid, lattice, oracles, solver
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


# -- zero generator terms are skipped exactly ----------------------------------------


def _fingerprint(sol):
    """Per field: sum, sum of squares and index-weighted sum over all levels."""
    out = {}
    for name in ("u", "q", "r"):
        f = getattr(sol, name)
        flat = np.concatenate([f[l].ravel() for l in range(len(f))])
        out[name] = (
            float(np.sum(flat)),
            float(np.sum(flat**2)),
            float(np.sum(flat * np.arange(flat.size))),
        )
    return out


def _zero_term_problem(case):
    """heat (b = c = sigma = nu = 0), wiener_linear (div a = div sigma = 0) or
    an adjoint-kind level_coefficients problem with b = nu = 0."""
    if case == "heat":
        g = grid.SpatialGrid(dim=2, half_width=np.pi, points=16)
        oracle, n = oracles.heat_oracle(g, horizon=0.1), 4
    elif case == "wiener_linear":
        g = grid.SpatialGrid(dim=1, half_width=np.pi, points=32)
        oracle, n = oracles.wiener_linear_oracle(g, horizon=0.1), 8
    else:
        g = grid.SpatialGrid(dim=1, half_width=np.pi, points=32)
        x = g.axis_coordinates()
        shape = (1,) + g.shape
        lc = solver.LevelCoefficients(
            a=(0.3 + 0.1 * np.cos(x)).reshape(shape + (1, 1)),
            b=np.zeros(shape + (1,)),
            c=(0.2 * np.sin(x)).reshape(shape),
            sigma=np.full(shape + (1, 1), 0.4),
            nu=np.zeros(shape + (1,)),
        )
        return solver.ProblemData(
            grid=g,
            tree=lattice.build_tree(lattice.TimeGrid(0.1, 8), 1, "recombining"),
            coefficients=coefficients.CoefficientSet(
                dim=1, wiener_dim=1, a=constant_sampler([[0.3]], (1, 1))
            ),
            terminal=lambda w, gr: np.cos(x) * (1.0 + w[0]),
            level_coefficients=lambda level: lc,
            operator_kind=solver.KIND_ADJOINT,
        )
    tree = lattice.build_tree(lattice.TimeGrid(0.1, n), 1, "recombining")
    return solver.problem_from_oracle(oracle, tree)


# fingerprints of the sweep that applied every term, compared with ==; the
# 1D semi-implicit entries (wiener_linear, adjoint) come from the banded solve
_ZERO_TERM_REFERENCE = {
    ("heat", "explicit"): {
        "u": (1.5987211554602254e-13, 2570.690309764749, 15683.291622942663),
        "q": (0.0, 0.0, 0.0),
        "r": (0.0, 0.0, 0.0),
    },
    ("heat", "semi_implicit"): {
        "u": (1.5276668818842154e-13, 2573.7556299499247, 15658.447546730415),
        "q": (0.0, 0.0, 0.0),
        "r": (0.0, 0.0, 0.0),
    },
    ("wiener_linear", "explicit"): {
        "u": (-1.5543122344752192e-15, 131.01738343564415, -236.94251417709887),
        "q": (5.3290705182007514e-14, 559.7673397163971, 567.7836730229764),
        "r": (5.639932965095795e-14, 596.3327830082173, 544.5965346636397),
    },
    ("wiener_linear", "semi_implicit"): {
        "u": (3.1086244689504383e-15, 131.01591182301127, -235.5206895289508),
        "q": (4.440892098500626e-14, 559.8647674816355, 567.8335956038175),
        "r": (3.930189507173054e-14, 596.6952438724145, 544.785596668042),
    },
    ("adjoint", "explicit"): {
        "u": (0.04136220606116048, 836.8894415324104, 808.8152292207844),
        "q": (5.5067062021407764e-14, 566.2035419090282, 564.3873142730206),
        "r": (5.5067062021407764e-14, 675.4679138293634, -1738.585038158339),
    },
    ("adjoint", "semi_implicit"): {
        "u": (0.04119916517131994, 836.9482755820833, 808.5842512508764),
        "q": (-7.358967200055133e-06, 566.2423002618877, 564.4602641189134),
        "r": (-7.3589671965024195e-06, 675.4885142865544, -1738.4852446974303),
    },
}
_STEPPINGS = {
    "explicit": solver.SolverConfig(),
    "semi_implicit": solver.SolverConfig(time_stepping=solver.SEMI_IMPLICIT),
}


@pytest.mark.parametrize("case, stepping", sorted(_ZERO_TERM_REFERENCE))
def test_zero_term_skipping_reproduces_reference(case, stepping):
    sol = solver.solve(_zero_term_problem(case), _STEPPINGS[stepping])
    assert _fingerprint(sol) == _ZERO_TERM_REFERENCE[case, stepping]


def test_zero_forcing_reproduces_the_unset_forcing_reference():
    problem = dataclasses.replace(
        _zero_term_problem("wiener_linear"), forcing=lambda t, w, g: np.zeros(g.shape)
    )
    sol = solver.solve(problem, _STEPPINGS["semi_implicit"])
    assert _fingerprint(sol) == _ZERO_TERM_REFERENCE["wiener_linear", "semi_implicit"]
