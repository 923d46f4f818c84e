"""Spectral operator tests against single-mode analytic oracles and the
brute-force convolution oracle."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sqgd import (
    Grid,
    ScalarField,
    advect,
    gradient,
    half_laplacian,
    riesz_transform,
    velocity,
)
from sqgd.initial import random_smooth, single_mode
from sqgd.operators import advect_with_speed

from helpers import (
    advection_oracle,
    conj_symmetry_error,
    dealias,
    divergence,
    field_from_coeffs,
    integrate,
)


@pytest.fixture(params=[16, 64])
def grid(request):
    return Grid(request.param)


def constant_field(grid, c=1.5):
    return ScalarField(grid, np.full((grid.n, grid.n), c))


class TestGrid:
    def test_spacing_times_n_is_period(self):
        for n in (8, 16, 48, 256):
            g = Grid(n)
            assert g.dx * n == pytest.approx(2.0 * np.pi, abs=1e-15)

    @pytest.mark.parametrize("n", [6, 7, 9, 15, 0, -4])
    def test_rejects_bad_resolution(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    def test_dealias_mask_cutoff(self):
        g = Grid(32)
        k = np.fft.fftfreq(32, d=1.0 / 32)
        inside = np.abs(k) <= 32 / 3
        assert np.array_equal(g.dealias_mask, inside[:, None] & inside[None, :17])


class TestRoundTrip:
    def test_physical_spectral_identity(self, grid):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((grid.n, grid.n))
        f = ScalarField(grid, vals)
        back = np.fft.irfft2(f.hat, s=(grid.n, grid.n))
        assert np.abs(back - vals).max() <= 1e-12 * max(1.0, np.abs(vals).max())

    def test_from_hat_preserves_cache(self, grid):
        f = single_mode(grid)
        g = ScalarField.from_hat(grid, f.hat)
        assert np.abs(g.values - f.values).max() < 1e-14

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((grid.n, grid.n + 2)))


@st.composite
def half_spectra(draw):
    """A finite half-spectrum at even n in [8, 64] whose k2 = 0 and
    k2 = n/2 columns are nonzero; any complex values, symmetric or not."""
    n = 2 * draw(st.integers(4, 32))
    parts = draw(arrays(np.float64, (2, n, n // 2 + 1),
                        elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    hat = parts[0] + 1j * parts[1]
    for col in (0, n // 2):
        row = draw(st.integers(0, n - 1))
        hat[row, col] += draw(st.sampled_from([1.0, -2.5, 3j]))
    return n, hat


class TestWienerBound:
    @settings(max_examples=200, deadline=None)
    @given(half_spectra())
    def test_bounds_grid_sup_norm(self, case):
        n, hat = case
        f = ScalarField.from_hat(Grid(n), hat)
        # the bound is exact for one mode, so allow its rounding only
        assert f.linf_bound() * (1 + 1e-12) >= f.linf()

    def test_single_mode_is_tight(self):
        g = Grid(16)
        for f in (single_mode(g), ScalarField(g, np.cos(3 * g.x1 + 2 * g.x2)),
                  ScalarField(g, np.full((16, 16), -2.0))):
            assert f.linf_bound() == pytest.approx(f.linf(), rel=1e-14)

    def test_counts_interior_columns_twice(self):
        g = Grid(16)
        f = ScalarField(g, np.cos(g.x1) + np.cos(g.x2) + np.cos(8 * g.x2))
        # |c| / n^2 is 1/2 at k and at -k for cos(x1), cos(x2); the k2 = 8
        # Nyquist column holds the whole cos(8 x2) once
        assert f.linf_bound() == pytest.approx(3.0, rel=1e-14)


class TestRieszTransform:
    def test_cos_x_axis1(self, grid):
        f = ScalarField(grid, np.cos(grid.x1))
        out = riesz_transform(f, 1)
        assert np.abs(out.values - (-np.sin(grid.x1))).max() < 1e-12

    def test_sin_y_axis2(self, grid):
        f = ScalarField(grid, np.sin(grid.x2))
        out = riesz_transform(f, 2)
        assert np.abs(out.values - np.cos(grid.x2)).max() < 1e-12

    def test_constant_annihilated(self, grid):
        out = riesz_transform(constant_field(grid), 1)
        assert np.abs(out.values).max() < 1e-14

    def test_bad_axis(self, grid):
        with pytest.raises(ValueError):
            riesz_transform(single_mode(grid), 3)

    def test_squares_sum_to_minus_identity(self):
        g = Grid(64)
        f = random_smooth(g, seed=5, k_max=12, target_linf=1.0)
        rr = riesz_transform(riesz_transform(f, 1), 1).values \
            + riesz_transform(riesz_transform(f, 2), 2).values
        expected = -(f.values - f.values.mean())
        assert np.abs(rr - expected).max() < 1e-10

    def test_output_real_symmetric(self, grid):
        rng = np.random.default_rng(8)
        f = ScalarField(grid, rng.standard_normal((grid.n, grid.n)))
        out = riesz_transform(f, 2)
        assert conj_symmetry_error(out.hat) < 1e-9 * grid.n**2


class TestHalfLaplacian:
    def test_cos_x_eigenfunction(self, grid):
        f = ScalarField(grid, np.cos(grid.x1))
        out = half_laplacian(f)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_mixed_mode_eigenvalue(self, grid):
        f = ScalarField(grid, np.cos(3 * grid.x1 + 4 * grid.x2))
        out = half_laplacian(f)
        assert np.abs(out.values - 5.0 * f.values).max() < 1e-12

    def test_constant_annihilated(self, grid):
        out = half_laplacian(constant_field(grid))
        assert np.abs(out.values).max() < 1e-14

    def test_zero_mean_preserved(self, grid):
        rng = np.random.default_rng(11)
        f = ScalarField(grid, rng.standard_normal((grid.n, grid.n)))
        assert abs(half_laplacian(f).mean()) < 1e-13 * grid.n


class TestVelocity:
    def test_sin_y(self, grid):
        theta = ScalarField(grid, np.sin(grid.x2))
        u1, u2 = velocity(theta)
        assert np.abs(u1.values - (-np.cos(grid.x2))).max() < 1e-12
        assert np.abs(u2.values).max() < 1e-12

    def test_sin_x(self, grid):
        theta = single_mode(grid)
        u1, u2 = velocity(theta)
        assert np.abs(u1.values).max() < 1e-12
        assert np.abs(u2.values - np.cos(grid.x1)).max() < 1e-12

    def test_constant(self, grid):
        u = velocity(constant_field(grid))
        assert max(c.linf() for c in u) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_divergence_free(self, seed):
        g = Grid(64)
        theta = random_smooth(g, seed=seed, k_max=16, target_linf=1.0)
        div = divergence(velocity(theta))
        assert np.abs(div.values).max() < 1e-10


class TestGradient:
    def test_sin_x(self, grid):
        f = single_mode(grid)
        d1, d2 = gradient(f)
        assert np.abs(d1.values - np.cos(grid.x1)).max() < 1e-12
        assert np.abs(d2.values).max() < 1e-12

    def test_constant(self, grid):
        grad = gradient(constant_field(grid))
        assert max(c.linf() for c in grad) < 1e-14

    def test_cos_2y(self, grid):
        f = ScalarField(grid, np.cos(2 * grid.x2))
        d1, d2 = gradient(f)
        assert np.abs(d1.values).max() < 1e-12
        assert np.abs(d2.values - (-2.0 * np.sin(2 * grid.x2))).max() < 1e-12


class TestAdvect:
    def test_constant_is_zero(self, grid):
        out = advect(constant_field(grid))
        assert np.abs(out.values).max() < 1e-14

    def test_single_mode_is_zero(self, grid):
        # u is proportional to the perpendicular of grad(theta) pointwise
        out = advect(single_mode(grid))
        assert np.abs(out.values).max() < 1e-13

    def test_two_mode_matches_convolution_oracle(self):
        g = Grid(32)
        coeffs = {(1, 0): -0.5j, (0, 2): 0.5}  # sin(x) + cos(2y)
        theta = field_from_coeffs(g, coeffs)
        expected = advection_oracle(g, coeffs)
        assert np.abs(advect(theta).values - expected).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_modes_match_oracle(self, seed):
        g = Grid(32)
        rng = np.random.default_rng(seed)
        coeffs = {}
        for _ in range(4):
            k1 = int(rng.integers(0, 7))
            k2 = int(rng.integers(-6, 7))
            if k1 == 0 and k2 <= 0:
                k2 = abs(k2) + 1
            coeffs[(k1 if k1 else 0, k2)] = complex(rng.normal(), rng.normal())
        theta = field_from_coeffs(g, coeffs)
        expected = advection_oracle(g, coeffs)
        assert np.abs(advect(theta).values - expected).max() < 1e-11

    @pytest.mark.parametrize("seed", [3, 4])
    def test_quadratic_form_vanishes(self, seed):
        g = Grid(64)
        theta = random_smooth(g, seed=seed, k_max=20, target_linf=1.0)
        w = advect(theta)
        form = float((theta.values * w.values).sum()) * g.cell_area
        scale = np.sqrt((theta.values**2).sum() * g.cell_area)
        speed = max(c.linf() for c in velocity(dealias(theta)))
        assert abs(form) <= 1e-10 * scale**2 * max(speed, 1.0)

    def test_mean_free(self):
        g = Grid(32)
        theta = random_smooth(g, seed=9, k_max=10, target_linf=1.0)
        assert abs(advect(theta).mean()) < 1e-13

    def test_output_in_dealias_band(self):
        g = Grid(32)
        theta = random_smooth(g, seed=2, k_max=10, target_linf=1.0)
        out_hat = advect(theta).hat
        assert np.abs(out_hat[~g.dealias_mask]).max() == 0.0

    @pytest.mark.parametrize("rough", [False, True], ids=["band-limited", "noise"])
    def test_speed_is_dealiased_velocity_sup(self, rough):
        # noise has content outside the 2/3 band, which the speed must not see
        g = Grid(64)
        theta = (ScalarField(g, np.random.default_rng(5).standard_normal((64, 64))) if rough
                 else random_smooth(g, seed=5, k_max=12, target_linf=1.0))
        out, speed = advect_with_speed(theta)
        expected = max(c.linf() for c in velocity(dealias(theta)))
        assert abs(speed - expected) <= 1e-14
        assert np.array_equal(out.hat, advect(theta).hat)


class TestIntegrate:
    def test_sin_squared(self):
        g = Grid(32)
        f = ScalarField(g, np.sin(g.x1) ** 2)
        assert integrate(f) == pytest.approx(2 * np.pi**2, rel=1e-13)
