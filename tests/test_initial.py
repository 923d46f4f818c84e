"""Initial-data generator tests: determinism, normalization, band limits,
and the named profiles."""

import numpy as np
import pytest

from sqgd import Grid, ScalarField
from sqgd.initial import gaussian_bump, random_smooth, single_mode, two_mode


class TestRandomSmooth:
    def test_deterministic(self):
        g = Grid(32)
        a = random_smooth(g, seed=7, spectral_slope=2.0, k_max=8, target_linf=1.0)
        b = random_smooth(g, seed=7, spectral_slope=2.0, k_max=8, target_linf=1.0)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        g = Grid(32)
        a = random_smooth(g, seed=7, k_max=8)
        b = random_smooth(g, seed=8, k_max=8)
        assert np.abs(a.values - b.values).max() > 1e-3

    def test_normalization(self):
        g = Grid(64)
        f = random_smooth(g, seed=7, spectral_slope=2.0, k_max=8, target_linf=1.0)
        assert abs(np.abs(f.values).max() - 1.0) <= 1e-12
        assert abs(f.values.mean()) <= 1e-14

    def test_band_limited(self):
        g = Grid(64)
        k_max = 8
        f = random_smooth(g, seed=3, k_max=k_max, target_linf=1.0)
        k = np.fft.fftfreq(64, d=1.0 / 64)
        outside = np.hypot(k[:, None], k[None, :]) > k_max
        assert np.abs(np.fft.fft2(f.values)[outside]).max() < 1e-10

    def test_power_law_amplitudes(self):
        g = Grid(64)
        f = random_smooth(g, seed=1, spectral_slope=2.0, k_max=8, target_linf=1.0)
        hat = f.hat / 64**2
        scale = abs(hat[1, 0]) * 1.0**2  # |c(k)| * |k|^slope is constant
        for k1, k2 in [(2, 0), (0, 3), (3, 4), (5, 1)]:
            mag = np.hypot(k1, k2)
            assert abs(hat[k1, k2]) * mag**2 == pytest.approx(scale, rel=1e-10)

    def test_refuses_kmax_beyond_dealias_band(self):
        g = Grid(24)
        with pytest.raises(ValueError, match="dealias"):
            random_smooth(g, seed=0, k_max=9, target_linf=1.0)

    def test_argument_validation(self):
        g = Grid(32)
        with pytest.raises(ValueError):
            random_smooth(g, seed=0, k_max=0)
        with pytest.raises(ValueError):
            random_smooth(g, seed=0, k_max=4, target_linf=0.0)


class TestNamedProfiles:
    def test_single_mode_exact(self):
        g = Grid(16)
        f = single_mode(g)
        assert np.array_equal(f.values, np.sin(g.x1))

    def test_two_mode_exact(self):
        g = Grid(16)
        f = two_mode(g)
        assert np.array_equal(f.values, np.sin(g.x1) + np.cos(2 * g.x2))

    def test_gaussian_bump_peak_and_symmetry(self):
        g = Grid(64)
        f = gaussian_bump(g, width=0.5)
        peak = np.unravel_index(np.argmax(f.values), f.values.shape)
        assert peak == (32, 32)  # centered at (pi, pi)
        assert f.values[peak] == pytest.approx(1.0, abs=1e-10)
        # periodization restores the mirror symmetry about the center
        assert abs(f.values[1, 32] - f.values[-1, 32]) < 1e-15
        assert abs(f.values[32, 1] - f.values[32, -1]) < 1e-15

    def test_gaussian_width_validation(self):
        with pytest.raises(ValueError):
            gaussian_bump(Grid(16), width=0.0)
