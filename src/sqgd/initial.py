"""Initial-data generators: seeded band-limited random fields and a few
named analytic profiles."""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .grid import Grid


def random_smooth(
    grid: Grid,
    seed: int,
    spectral_slope: float = 2.0,
    k_max: int = 8,
    target_linf: float = 1.0,
) -> ScalarField:
    """Random band-limited field with power-law amplitudes.

    Coefficients |k|^{-slope} e^{i phi(k)} are drawn for 0 < |k| <= k_max
    with phases from a seeded generator, conjugate symmetry enforced, zero
    mean, and the result rescaled to the requested sup norm. Deterministic
    for a given seed: phases are consumed in a fixed wavevector order.
    """
    n = grid.n
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > n / 3:
        raise ValueError(
            f"k_max={k_max} exceeds the dealiasing band n/3={n / 3:.6g}; "
            "increase the resolution or lower k_max"
        )
    if target_linf <= 0:
        raise ValueError("target_linf must be positive")

    rng = np.random.default_rng(seed)
    hat = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for k1 in range(-k_max, k_max + 1):
        for k2 in range(-k_max, k_max + 1):
            if not (k1 > 0 or (k1 == 0 and k2 > 0)):
                continue  # canonical half-space; mirror filled by symmetry
            mag = np.hypot(k1, k2)
            if mag > k_max:
                continue
            phase = rng.uniform(0.0, 2.0 * np.pi)
            c = mag ** (-spectral_slope) * np.exp(1j * phase)
            for m1, m2, coeff in ((k1, k2, c), (-k1, -k2, np.conj(c))):
                if m2 >= 0:  # the rfft2 half-spectrum holds k2 >= 0
                    hat[m1 % n, m2] = coeff

    values = np.fft.irfft2(hat * n * n, s=(n, n))
    values *= target_linf / np.abs(values).max()
    return ScalarField(grid, values)


def single_mode(grid: Grid) -> ScalarField:
    """sin(x1): the canonical linear-exactness test profile."""
    return ScalarField(grid, np.sin(grid.x1))


def two_mode(grid: Grid) -> ScalarField:
    """sin(x1) + cos(2*x2): the smallest profile with a nonzero advection
    product."""
    return ScalarField(grid, np.sin(grid.x1) + np.cos(2.0 * grid.x2))


def gaussian_bump(grid: Grid, width: float = 0.5) -> ScalarField:
    """Gaussian bump centered at (pi, pi), periodized over nearby images."""
    if width <= 0:
        raise ValueError("width must be positive")
    vals = np.zeros((grid.n, grid.n))
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            d1 = grid.x1 - np.pi - 2.0 * np.pi * m1
            d2 = grid.x2 - np.pi - 2.0 * np.pi * m2
            vals += np.exp(-(d1**2 + d2**2) / (2.0 * width**2))
    return ScalarField(grid, vals)
