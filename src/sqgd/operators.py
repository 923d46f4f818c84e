"""Spectral operators on the torus: Riesz transforms, half-Laplacian,
incompressible velocity, gradients, and dealiased advection.

All operators are pure functions built from diagonal Fourier multipliers
applied to the ``rfft2`` half-spectrum; they return fields defined by
their spectrum, whose point values are computed only when read. Sign
conventions:

- Riesz transform R_j has multiplier i*k_j/|k| (R_j = d_j Lambda^{-1}),
  with the k = 0 coefficient mapped to zero.
- The half-Laplacian Lambda = (-Delta)^{1/2} has multiplier |k|.
- The velocity recovered from the scalar is u = (-R_2 theta, R_1 theta),
  which is divergence free by the spectral identity
  k_1*(-k_2/|k|) + k_2*(k_1/|k|) = 0.

Vector quantities (velocity, gradient) are ``(u1, u2)`` tuples of fields.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField


def riesz_transform(f: ScalarField, axis: int) -> ScalarField:
    """Apply the Riesz transform R_axis, multiplier i*k_axis/|k|."""
    if axis == 1:
        ratio = f.grid.k1_over_k
    elif axis == 2:
        ratio = f.grid.k2_over_k
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis!r}")
    return ScalarField.from_hat(f.grid, (1j * ratio) * f.hat)


def half_laplacian(f: ScalarField) -> ScalarField:
    """Apply Lambda = (-Delta)^{1/2}, multiplier |k|. Preserves zero mean."""
    return ScalarField.from_hat(f.grid, f.grid.lam * f.hat)


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Spectral gradient (d_1 f, d_2 f)."""
    g = f.grid
    return ScalarField.from_hat(g, g.ik1 * f.hat), ScalarField.from_hat(g, g.ik2 * f.hat)


def velocity(theta: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Incompressible velocity u = (-R_2 theta, R_1 theta)."""
    g = theta.grid
    return (ScalarField.from_hat(g, (-1j * g.k2_over_k) * theta.hat),
            ScalarField.from_hat(g, (1j * g.k1_over_k) * theta.hat))


def advect(theta: ScalarField) -> ScalarField:
    """Dealiased pseudo-spectral advection u . grad(theta).

    The velocity and gradient are formed from the input spectrum truncated
    to the 2/3 band (the truncation is folded into their multipliers), the
    product is taken pointwise, and the result is truncated again.
    Coefficients retained after the second truncation are then exact
    convolution values, so the discrete quadratic form
    integral(theta * advect(theta)) vanishes to rounding for any input.
    """
    return _advection(theta)[0]


def advect_with_speed(theta: ScalarField) -> tuple[ScalarField, float]:
    """(advect(theta), max |u1|, |u2| over the grid for the dealiased u it uses)."""
    product, u1, u2 = _advection(theta)
    return product, float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))


def _advection(theta: ScalarField) -> tuple[ScalarField, np.ndarray, np.ndarray]:
    """advect(theta) with the point values of the dealiased velocity it uses."""
    g = theta.grid
    u1, u2, t_x, t_y = (np.fft.irfft2(m * theta.hat, s=(g.n, g.n)) for m in g.adv)
    product_hat = np.fft.rfft2(u1 * t_x + u2 * t_y)
    return ScalarField.from_hat(g, product_hat * g.dealias_mask), u1, u2
