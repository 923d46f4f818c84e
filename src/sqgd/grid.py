"""Collocation grid for the 2*pi-periodic square torus.

The period is fixed at 2*pi, so wavenumbers are integers and the discrete
Fourier transform indices coincide with physical wavevectors. All spectral
multipliers are precomputed here once per resolution, on the ``rfft2``
half grid (k1 in ``fftfreq`` order by k2 = 0..n/2) that fields use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n grid on [0, 2*pi)^2 with point (i, j) at (i*dx, j*dx).

    Parameters
    ----------
    n : int
        Points per axis. Must be even and at least 8.

    Notes
    -----
    Derived arrays (set once in ``__post_init__``):

    - ``dx``            grid spacing 2*pi/n
    - ``x1``, ``x2``    coordinate meshes, first/second axis
    - ``ik1``, ``ik2``  spectral derivative multipliers i*k_j
    - ``k1_over_k``, ``k2_over_k``  real Riesz-transform ratios k_j/|k|
    - ``lam``           half-Laplacian multiplier |k|
    - ``dealias_mask``  True where max(|k1|, |k2|) <= n/3
    - ``adv``           stacked velocity (-i*k2/|k|, i*k1/|k|) and gradient
      (i*k1, i*k2) multipliers of the advection term, dealias mask folded in

    The Nyquist row and column (|k_j| = n/2) are zeroed in every multiplier
    so that odd symbols cannot break conjugate symmetry of real fields, and
    the k = 0 entry of the Riesz ratios is zero (mean modes are annihilated
    by all inverse-Laplacian-type operators).
    """

    n: int

    def __post_init__(self) -> None:
        n = self.n
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid resolution must be an even integer >= 8, got {n}")

        dx = TWO_PI / n
        x = np.arange(n) * dx
        k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]  # 0, 1, ..., n/2-1, -n/2, ..., -1
        k2 = np.fft.rfftfreq(n, d=1.0 / n)[None, :]  # 0, 1, ..., n/2
        k_mag = np.hypot(k1, k2)

        keep = (np.abs(k1) != n // 2) & (k2 != n // 2)
        mask = (np.abs(k1) <= n / 3) & (k2 <= n / 3)

        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(k_mag > 0, k1 / k_mag, 0.0) * keep
            r2 = np.where(k_mag > 0, k2 / k_mag, 0.0) * keep

        set_ = object.__setattr__
        set_(self, "dx", dx)
        set_(self, "x1", np.broadcast_to(x[:, None], (n, n)).copy())
        set_(self, "x2", np.broadcast_to(x[None, :], (n, n)).copy())
        set_(self, "ik1", 1j * k1 * keep)
        set_(self, "ik2", 1j * k2 * keep)
        set_(self, "k1_over_k", r1)
        set_(self, "k2_over_k", r2)
        set_(self, "lam", k_mag * keep)
        set_(self, "dealias_mask", mask)
        set_(self, "adv", np.stack([-1j * r2, 1j * r1, self.ik1, self.ik2]) * mask)

    @property
    def cell_area(self) -> float:
        """Quadrature weight dx^2 of the rectangle rule on one period cell."""
        return self.dx * self.dx
