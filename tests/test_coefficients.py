"""Coefficient sampling and structural condition checks.

Core claims:
    - constant samplers broadcast to grid shape plus the suffix
    - CoefficientSet.sample validates shapes, symmetry of a, and finiteness
    - parabolicity verdicts: violated / degenerate / super-parabolic with
      the right witnesses and tolerance behavior
    - exactly degenerate families (a = sigma sigma^T / 2) report min
      eigenvalue 0 within PSD tolerance
    - the stacked parabolicity scan reports the min, delta, verdict and
      witness (first state and grid point on ties) == a loop over samples,
      on the built-ins and the varying_cli probes
    - sample's errors name the field, t, the offending Wiener row and the
      grid index
    - the gradient symmetry check accepts commuting noise and rejects the
      three built-in counterexamples with violation well above tolerance
    - non-periodic sets are seam-masked so the wrap never triggers a report
    - the Oleinik-type bound: c' is finite for smooth degenerate a, the
      numerator is invariant under constant shifts of a, zero-gradient
      denominators are skipped, and non-PSD input raises
    - builtin counterexamples have b = c = nu = 0 and exact degeneracy
"""

import numpy as np
import pytest
from pytest import approx

from bspdelab import cli
from bspdelab.coefficients import (
    DELTA_FLOOR,
    CoefficientDataError,
    CoefficientSet,
    ParabolicityError,
    builtin_counterexamples,
    check_parabolicity,
    check_symmetry,
    constant_sampler,
    oleinik_constant,
)
from bspdelab.grid import TOL_PSD, SpatialGrid, random_smooth_field
from bspdelab.solver import parabolicity_probes


def _grid(M=32):
    return SpatialGrid(dim=2, half_width=np.pi, points=M)


def _const_set(a_val, sigma_val=None, dim=2, dprime=2):
    a = np.asarray(a_val, dtype=np.float64)
    sigma = None if sigma_val is None else constant_sampler(np.asarray(sigma_val), (dim, dprime))
    return CoefficientSet(
        dim=dim,
        wiener_dim=dprime,
        a=constant_sampler(a, (dim, dim)),
        sigma=sigma,
        name="const",
    )


# -- sampling ---------------------------------------------------------------


def test_constant_sampler_broadcasts():
    grid = _grid(16)
    s = constant_sampler(np.eye(2), (2, 2))
    out = s(0.0, np.zeros(2), grid)
    assert out.shape == grid.shape + (2, 2)
    assert out[3, 7] == approx(np.eye(2))


def test_sample_fills_zero_defaults():
    grid = _grid(16)
    smp = _const_set(np.eye(2)).sample(0.0, np.zeros(2), grid)
    assert smp.b.shape == grid.shape + (2,)
    assert np.all(smp.b == 0)
    assert np.all(smp.c == 0)
    assert np.all(smp.nu == 0)


def test_sample_rejects_asymmetric_a():
    grid = _grid(16)
    bad = _const_set([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(CoefficientDataError):
        bad.sample(0.0, np.zeros(2), grid)


def test_sample_rejects_wrong_shape_and_nan():
    grid = _grid(16)
    wrong = CoefficientSet(
        dim=2, wiener_dim=2, a=lambda t, w, g: np.eye(3), name="bad-shape"
    )
    with pytest.raises(CoefficientDataError):
        wrong.sample(0.0, np.zeros(2), grid)
    nan_set = _const_set(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(CoefficientDataError):
        nan_set.sample(0.0, np.zeros(2), grid)


def test_parabolicity_matrix_value():
    grid = _grid(16)
    smp = _const_set(np.eye(2), sigma_val=np.eye(2)).sample(0.0, np.zeros(2), grid)
    pm = smp.parabolicity_matrix()
    assert pm.shape == grid.shape + (2, 2)
    assert pm[0, 0] == approx(np.eye(2))  # 2a - sigma sigma^T = 2I - I


# -- parabolicity verdicts ---------------------------------------------------------------


def test_super_parabolic_verdict():
    rep = check_parabolicity(_const_set(np.eye(2)), _grid(16))
    assert rep.verdict == "super-parabolic"
    assert rep.min_eigenvalue == approx(2.0)
    assert rep.delta == approx(2.0)
    assert rep.passes("DP") and rep.passes("SP")


def test_degenerate_verdict_on_exact_degeneracy():
    cx1 = builtin_counterexamples()[0]
    rep = check_parabolicity(cx1, _grid())
    assert rep.verdict != "violated"
    assert not rep.passes("SP")
    assert rep.passes("DP")
    assert abs(rep.min_eigenvalue) <= 1e-10
    assert rep.delta == 0.0


def test_violated_verdict_carries_witness():
    rep = check_parabolicity(
        _const_set(np.zeros((2, 2)), sigma_val=np.eye(2)), _grid(16)
    )
    assert rep.verdict == "violated"
    assert not rep.passes("DP")
    assert rep.min_eigenvalue == approx(-1.0)
    assert rep.witness["eigenvalue"] == approx(-1.0)
    assert "x" in rep.witness and "t" in rep.witness


def test_parabolicity_multiple_samples():
    cx1 = builtin_counterexamples()[0]
    grid = _grid(16)
    samples = [(0.0, np.zeros(2)), (0.5, np.ones(2)), (1.0, np.zeros(2))]
    rep = check_parabolicity(cx1, grid, samples=samples)
    assert rep.n_samples == 3
    assert rep.passes("DP")


def _reference_report(coeffs, grid, samples):
    """check_parabolicity as a loop over samples: one sample call and one
    eigenvalue scan per state, the first state and grid point at the
    minimum winning."""
    min_eig, witness = np.inf, None
    for si, (t, w) in enumerate(samples):
        smp = coeffs.sample(t, w, grid)
        local = np.linalg.eigvalsh(smp.parabolicity_matrix()).min(axis=-1)
        idx = np.unravel_index(np.argmin(local), grid.shape)
        if float(local[idx]) < min_eig:
            min_eig = float(local[idx])
            witness = {
                "sample": si,
                "t": float(t),
                "w": np.asarray(w, dtype=float).reshape(-1).tolist(),
                "grid_index": tuple(int(i) for i in idx),
                "x": [float(c[idx]) for c in grid.coordinates()],
                "eigenvalue": min_eig,
            }
    if min_eig < -TOL_PSD:
        verdict = "violated"
    elif min_eig >= DELTA_FLOOR:
        verdict = "super-parabolic"
    else:
        verdict = "degenerate-ok"
    return min_eig, max(min_eig, 0.0), verdict, witness


def _varying_cli_coefficients(tmp_path, s, k):
    """The expression coefficients of the varying_cli benchmark configuration, with its tree."""
    sigma = f"{s!r} * (1 + 0.3 * sin(x1 + w1))"
    path = tmp_path / f"varying-{s}.ini"
    path.write_text(
        f"""
[grid]
d = 1
R = 3.141592653589793
M = 128

[tree]
T = 0.5
n_steps = 64
dprime = 1
mode = recombining

[problem]
a11 = 0.5 * ({sigma}) ^ 2 + {k!r} * (1 + 0.5 * cos(x1 - w1) * exp(-t))
sigma11 = {sigma}
b1 = 0.4 * sin(x1 + t)
""",
        encoding="utf-8",
    )
    parser, _ = cli.load_config(str(path))
    grid, tree = cli.build_grid(parser), cli.build_tree(parser)
    return cli.build_coefficients(parser, grid, tree), grid, tree


def _assert_report_matches_reference(coeffs, grid, samples):
    rep = check_parabolicity(coeffs, grid, samples=samples)
    ref = _reference_report(coeffs, grid, samples)
    assert (rep.min_eigenvalue, rep.delta, rep.verdict, rep.witness) == ref
    # the witness prints in the same key order
    assert list(rep.witness) == list(ref[3])
    assert rep.n_samples == len(samples)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_parabolicity_report_equals_the_per_sample_loop_on_builtins(which):
    samples = [(0.0, np.zeros(2)), (0.5, np.ones(2)), (1.0, np.array([-1.0, 2.0]))]
    _assert_report_matches_reference(builtin_counterexamples()[which], _grid(16), samples)


# (s, k) of seeds 0, 1 and 7
@pytest.mark.parametrize(
    "s, k",
    [
        (0.2813354060979356, 0.13144335776159866),
        (0.20751511510959114, 0.08093149111858346),
        (0.2882466830254541, 0.08665484804668003),
    ],
)
def test_parabolicity_report_equals_the_per_sample_loop_on_varying_cli_probes(tmp_path, s, k):
    coeffs, grid, tree = _varying_cli_coefficients(tmp_path, s, k)
    samples = parabolicity_probes(coeffs, tree)
    assert len(samples) == 5
    _assert_report_matches_reference(coeffs, grid, samples)


def test_parabolicity_report_witness_is_the_first_state_on_ties():
    # 2a - sigma^2 = 0.5 - 2 W^2 is lowest, -1.5, at both W = -1 and W = 1
    grid = SpatialGrid(dim=1, half_width=np.pi, points=8)
    coeffs = CoefficientSet(
        dim=1,
        wiener_dim=1,
        a=lambda t, w, g: np.full(g.shape + (1, 1), 0.75 - w[0] ** 2),
        sigma=constant_sampler([[1.0]], (1, 1)),
        w_dependent=True,
    )
    samples = [(0.0, np.zeros(1)), (0.5, np.zeros(1)), (0.5, -np.ones(1)), (0.5, np.ones(1))]
    _assert_report_matches_reference(coeffs, grid, samples)
    rep = check_parabolicity(coeffs, grid, samples=samples)
    assert rep.witness["sample"] == 2 and rep.witness["grid_index"] == (0,)
    with pytest.raises(ParabolicityError, match=r"-1\.500e\+00 below tolerance; witness \{'sample': 2,"):
        rep.enforce()


def test_sample_errors_name_the_field_the_state_and_the_grid_index():
    grid = _grid(16)
    w = np.array([1.0, -2.0])
    with pytest.raises(CoefficientDataError) as err:
        _const_set([[1.0, 0.3], [0.0, 1.0]]).sample(0.5, w, grid)
    assert str(err.value) == "a is not symmetric at grid index (0, 0), t = 0.5, W = [1.0, -2.0]"

    def nu(t, w, g):
        out = np.zeros(g.shape + (2,))
        if w[0] < 0:
            out[3, 5, 1] = np.nan
        return out

    spiked = CoefficientSet(dim=2, wiener_dim=2, a=constant_sampler(np.eye(2), (2, 2)), nu=nu)
    with pytest.raises(CoefficientDataError) as err:
        spiked.sample(0.5, np.stack([w, -w]), grid)
    assert str(err.value) == (
        "nu sample contains non-finite values at grid index (3, 5), t = 0.5, W = [-1.0, 2.0]"
    )


# -- gradient symmetry ---------------------------------------------------------------


def test_symmetry_accepts_commuting_noise():
    # sigma = g(x) I has sigma^{ik} d_l sigma^{jk} symmetric in (i, j)
    def sig(t, w, grid):
        x1, x2 = grid.coordinates()
        return np.sin(x1 + x2)[..., None, None] * np.eye(2)

    coeffs = CoefficientSet(dim=2, wiener_dim=2, a=constant_sampler(np.eye(2), (2, 2)),
                            sigma=sig, name="commuting")
    rep = check_symmetry(coeffs, _grid())
    assert rep.satisfied
    assert rep.max_violation < rep.tol


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_symmetry_rejects_counterexamples(idx):
    # violations converge to O(1) continuum values while tol shrinks as h^2
    cx = builtin_counterexamples()[idx]
    grid = _grid(64)
    rep = check_symmetry(cx, grid)
    assert not rep.satisfied
    assert rep.max_violation > rep.tol
    assert rep.violation_field.shape == grid.shape


def test_symmetry_violation_magnitude_counterexample_1():
    rep = check_symmetry(builtin_counterexamples()[0], _grid())
    assert rep.max_violation >= 0.5


def test_symmetry_masks_seam_for_nonperiodic():
    # the reported maximum is taken away from the wrap of a non-periodic set
    cx2 = builtin_counterexamples()[1]
    grid = _grid()
    rep = check_symmetry(cx2, grid)
    assert not rep.mask[0, 0]
    assert not rep.mask[-1, 5]
    assert rep.mask[grid.points // 2, grid.points // 2]
    assert rep.max_violation == approx(float(rep.violation_field[rep.mask].max()))
    # a periodic set scans every cell
    rep1 = check_symmetry(builtin_counterexamples()[0], grid)
    assert np.all(rep1.mask)


def test_symmetry_zero_sigma_trivially_satisfied():
    coeffs = _const_set(np.eye(2))
    rep = check_symmetry(coeffs, _grid(16))
    assert rep.satisfied
    assert rep.max_violation == 0.0


# -- Oleinik bound ---------------------------------------------------------------


def _psd_degenerate_a(grid):
    # rank-one a(x) = n(x) n(x)^T with smooth direction field, PSD and degenerate
    x1, x2 = grid.coordinates()
    n1, n2 = np.cos(x1), np.sin(x1)
    a = np.empty(grid.shape + (2, 2))
    a[..., 0, 0] = n1 * n1
    a[..., 0, 1] = n1 * n2
    a[..., 1, 0] = n1 * n2
    a[..., 1, 1] = n2 * n2
    return a


def test_oleinik_constant_finite_for_smooth_degenerate():
    grid = _grid()
    probes = [random_smooth_field(grid, max_mode=3, seed=s) for s in range(3)]
    rep = oleinik_constant(_psd_degenerate_a(grid), grid, probes)
    assert np.isfinite(rep.c_prime)
    assert rep.c_prime >= 0
    assert 0 <= rep.skipped_fraction < 1
    assert "x" in rep.witness


def test_oleinik_shift_monotonicity():
    # adding const * I to a leaves the gradient numerator unchanged while the
    # denominator grows, so c' is nonincreasing along the shift
    grid = _grid()
    probes = [random_smooth_field(grid, max_mode=2, seed=s) for s in range(2)]
    a = _psd_degenerate_a(grid)
    base = oleinik_constant(a, grid, probes)
    mid = oleinik_constant(a + 0.7 * np.eye(2), grid, probes)
    far = oleinik_constant(a + 2.0 * np.eye(2), grid, probes)
    assert far.c_prime < mid.c_prime < base.c_prime


def test_oleinik_rejects_non_psd():
    grid = _grid(16)
    a = np.broadcast_to(np.diag([1.0, -0.2]), grid.shape + (2, 2)).copy()
    probes = [random_smooth_field(grid, max_mode=2, seed=0)]
    with pytest.raises(ParabolicityError):
        oleinik_constant(a, grid, probes)


def test_oleinik_skips_flat_probes():
    grid = _grid(16)
    a = _psd_degenerate_a(grid)
    with pytest.raises(ValueError):
        oleinik_constant(a, grid, [np.ones(grid.shape)])


# -- builtins ---------------------------------------------------------------


def test_builtin_counterexamples_structure():
    sets = builtin_counterexamples()
    assert [c.name for c in sets] == [
        "counterexample-1",
        "counterexample-2",
        "counterexample-3",
    ]
    assert [c.periodic for c in sets] == [True, False, False]
    grid = _grid(16)
    for c in sets:
        assert c.dim == 2 and c.wiener_dim == 2
        smp = c.sample(0.0, np.zeros(2), grid)
        # exact degeneracy: 2a = sigma sigma^T pointwise
        assert np.max(np.abs(smp.parabolicity_matrix())) < 1e-14
        assert np.all(smp.b == 0) and np.all(smp.c == 0) and np.all(smp.nu == 0)
