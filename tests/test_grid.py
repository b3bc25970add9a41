"""Periodic grid calculus tests.

Core claims:
    - SpatialGrid validates dimension, evenness, and minimum point count
    - axis coordinates tile [-R, R) uniformly, cell volume is h^d
    - central first derivative is exact on resolved Fourier modes to O(h^2)
    - order-2 and order-3 stencils hit their classical convergence orders
    - derivatives beyond total order 3 are refused
    - summation by parts: <Df, g> = -<f, Dg> to machine precision
    - sobolev_norm reproduces hand-computed values on single modes
    - level_norm_sq broadcasts over a leading batch axis
    - random_smooth_field is bit-reproducible and seed-sensitive
    - binary and csv field dumps round-trip exactly
    - multi_indices enumerates the full simplex of orders <= m
"""

import math

import numpy as np
import pytest
from pytest import approx

from bspdelab.grid import (
    check_multi_index,
    MAX_DERIVATIVE_ORDER,
    DerivativeCapError,
    SpatialGrid,
    axis_derivative,
    batch_divergence,
    batch_gradient,
    diff,
    inner_product,
    level_norm_sq,
    multi_indices,
    random_smooth_field,
    read_field_binary,
    read_field_csv,
    sobolev_norm,
    write_field_binary,
    write_field_csv,
)


def _grid1(M=64):
    return SpatialGrid(dim=1, half_width=np.pi, points=M)


def _grid2(M=32):
    return SpatialGrid(dim=2, half_width=np.pi, points=M)


# -- construction ---------------------------------------------------------------


def test_grid_geometry():
    grid = _grid1(64)
    assert grid.h == approx(2 * np.pi / 64)
    assert grid.shape == (64,)
    assert grid.size == 64
    assert grid.cell_volume == approx(grid.h)
    x = grid.axis_coordinates()
    assert x[0] == approx(-np.pi)
    # half-open box: the right endpoint is not a node
    assert x[-1] == approx(np.pi - grid.h)


def test_grid_2d_coordinates_match_meshgrid():
    grid = _grid2(16)
    x1, x2 = grid.coordinates()
    assert x1.shape == grid.shape == (16, 16)
    assert x1[3, 5] == approx(grid.axis_coordinates()[3])
    assert x2[3, 5] == approx(grid.axis_coordinates()[5])
    assert grid.cell_volume == approx(grid.h ** 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=3, half_width=1.0, points=16),
        dict(dim=0, half_width=1.0, points=16),
        dict(dim=1, half_width=1.0, points=15),
        dict(dim=1, half_width=1.0, points=6),
        dict(dim=1, half_width=-1.0, points=16),
    ],
)
def test_grid_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        SpatialGrid(**kwargs)


# -- stencils ---------------------------------------------------------------


def test_first_derivative_convergence_order_two():
    errs = []
    for M in (32, 64, 128):
        grid = _grid1(M)
        x = grid.axis_coordinates()
        f = np.sin(3 * x)
        df = axis_derivative(f, 1, 0, grid.h)
        errs.append(np.max(np.abs(df - 3 * np.cos(3 * x))))
    assert math.log2(errs[0] / errs[1]) == approx(2.0, abs=0.1)
    assert math.log2(errs[1] / errs[2]) == approx(2.0, abs=0.1)


def test_second_and_third_derivative_orders():
    for order, exact in [(2, lambda x: -9 * np.sin(3 * x)), (3, lambda x: -27 * np.cos(3 * x))]:
        errs = []
        for M in (64, 128):
            grid = _grid1(M)
            x = grid.axis_coordinates()
            d = axis_derivative(np.sin(3 * x), order, 0, grid.h)
            errs.append(np.max(np.abs(d - exact(x))))
        assert math.log2(errs[0] / errs[1]) >= 1.7


def test_mixed_partial_symmetry():
    grid = _grid2(32)
    x1, x2 = grid.coordinates()
    f = np.sin(x1) * np.cos(2 * x2)
    d12 = diff(f, (1, 1), grid)
    d21 = diff(diff(f, (0, 1), grid), (1, 0), grid)
    assert np.max(np.abs(d12 - d21)) < 1e-12


def test_derivative_cap_enforced():
    grid = _grid1()
    f = np.zeros(grid.shape)
    with pytest.raises(DerivativeCapError):
        axis_derivative(f, MAX_DERIVATIVE_ORDER + 1, 0, grid.h)
    with pytest.raises(DerivativeCapError):
        diff(np.zeros(_grid2(16).shape), (2, 2), _grid2(16))


def test_summation_by_parts_is_exact():
    rng = np.random.Generator(np.random.Philox(key=1))
    grid = _grid2(16)
    f = rng.standard_normal(grid.shape)
    g = rng.standard_normal(grid.shape)
    for axis in range(2):
        lhs = inner_product(axis_derivative(f, 1, axis, grid.h), g, grid)
        rhs = -inner_product(f, axis_derivative(g, 1, axis, grid.h), grid)
        assert lhs == approx(rhs, abs=1e-12)


def test_batch_gradient_and_divergence_are_adjoint():
    # <grad u, F> = -<u, div F> with the batch axis leading
    rng = np.random.Generator(np.random.Philox(key=2))
    grid = _grid2(16)
    u = rng.standard_normal((3,) + grid.shape)
    big_f = rng.standard_normal((3,) + grid.shape + (2,))
    gu = batch_gradient(u, grid)
    lhs = np.sum(gu * big_f, axis=(1, 2, 3)) * grid.cell_volume
    rhs = -np.sum(u * batch_divergence(big_f, grid), axis=(1, 2)) * grid.cell_volume
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- norms ---------------------------------------------------------------


def test_sobolev_norm_single_mode_1d():
    # ||sin(kx)||_{L2}^2 = pi on [-pi, pi); per derivative a factor k_h^2
    grid = _grid1(128)
    x = grid.axis_coordinates()
    f = np.sin(2 * x)
    l2 = sobolev_norm(f, grid, 0, 2.0)
    assert l2 == approx(math.sqrt(np.pi), rel=1e-12)
    h1 = sobolev_norm(f, grid, 1, 2.0)
    # discrete wavenumber sin(2h)/h replaces 2 in the derivative energy
    k_h = math.sin(2 * grid.h) / grid.h
    assert h1 == approx(math.sqrt(np.pi * (1 + k_h ** 2)), rel=1e-10)


def test_sobolev_norm_p4():
    # ||c||_{0,4} = |c| vol^{1/4} for constants
    grid = _grid2(16)
    f = np.full(grid.shape, 2.0)
    vol = (2 * np.pi) ** 2
    assert sobolev_norm(f, grid, 0, 4.0) == approx(2.0 * vol ** 0.25, rel=1e-12)


def test_level_norm_sq_batches():
    grid = _grid1(32)
    rng = np.random.Generator(np.random.Philox(key=3))
    batch = rng.standard_normal((5,) + grid.shape)
    out = level_norm_sq(batch, grid, 1)
    assert out.shape == (5,)
    single = level_norm_sq(batch[2][None], grid, 1)[0]
    assert out[2] == approx(single, rel=1e-14)
    assert out[2] == approx(sobolev_norm(batch[2], grid, 1, 2.0) ** 2, rel=1e-12)


# -- random fields and io ---------------------------------------------------------------


def test_random_smooth_field_reproducible():
    grid = _grid2(16)
    a = random_smooth_field(grid, max_mode=3, seed=11)
    b = random_smooth_field(grid, max_mode=3, seed=11)
    c = random_smooth_field(grid, max_mode=3, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == grid.shape


def test_field_binary_roundtrip(tmp_path):
    grid = _grid2(16)
    f = random_smooth_field(grid, max_mode=2, seed=4)
    path = tmp_path / "field.bin"
    write_field_binary(path, f, grid)
    g, grid_back = read_field_binary(path)
    assert np.array_equal(f, g)
    assert grid_back == grid


def test_field_csv_roundtrip(tmp_path):
    grid = _grid1(32)
    f = random_smooth_field(grid, max_mode=2, seed=5)
    path = tmp_path / "field.csv"
    write_field_csv(path, f, grid)
    g = read_field_csv(path, grid)
    assert np.max(np.abs(f - g)) < 1e-15


# -- multi indices ---------------------------------------------------------------


def test_multi_indices_enumeration():
    idx2 = list(multi_indices(2, 2))
    assert (0, 0) in idx2 and (1, 1) in idx2 and (0, 2) in idx2
    assert len(idx2) == 6
    idx1 = list(multi_indices(1, 3))
    assert idx1 == [(0,), (1,), (2,), (3,)]


def test_check_multi_index_rejects_over_cap():
    grid = _grid2(16)
    with pytest.raises(DerivativeCapError):
        check_multi_index((2, 2), grid.dim)
    with pytest.raises(ValueError):
        check_multi_index((1,), grid.dim)
    with pytest.raises(ValueError):
        check_multi_index((-1, 1), grid.dim)
