"""Run diagnostics: norms, the three-way energy budget, the Chebyshev
measure bound, and assembled per-sample records.

The energy budget splits d/dt (1/2 ||theta||^2) into its three parts:

- nonlinear flux   integral(theta * u.grad(theta)) dx, zero for
  incompressible u (measured, not assumed);
- dispersive flux  A * integral(theta * R_1 theta) dx, zero because R_1
  is skew-adjoint (measured, not assumed);
- dissipation      -sum_k |k| |theta_hat(k)|^2 = -||Lambda^{1/2} theta||^2,
  always nonpositive.

Both fluxes are physical inner products by the rectangle rule. The
dissipation is a spectral sum with series normalization: with c(k) the
unnormalized DFT, ||theta||^2 = (2*pi)^2 sum |c(k)/n^2|^2. It runs over
the rfft2 half-spectrum, where each interior column k2 in (0, n/2) stands
for both k and -k and so counts twice. The sum applies the same
Nyquist-zeroed |k| multiplier as the dynamics, which is identical for any
field without Nyquist content and keeps the discrete budget
self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .grid import TWO_PI
from .integrator import SolverState
from .modulus import ModulusParams, minimal_b
from .operators import advect, gradient, riesz_transform


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled row of run diagnostics. ``b_min`` is only present at
    the certification cadence (it costs a class scan)."""

    t: float
    l2: float
    linf: float
    max_grad: float
    mean: float
    nonlinear_flux: float
    dispersive_flux: float
    dissipation: float
    b_min: float | None = None


@dataclass(frozen=True)
class SampleConfig:
    """Cadence and parameters for assembling records. ``certify_every`` in
    units of samples; 0 disables certification."""

    modulus_params: ModulusParams | None = None
    certify_every: int = 0


def norms(theta: ScalarField) -> tuple[float, float, float, float]:
    """(l2, linf, max_grad, mean) over one period cell.

    l2 uses the rectangle rule, max_grad is the grid maximum of the
    Euclidean magnitude of the spectral gradient. Grid maxima are lower
    bounds on the continuum suprema with an O(dx^2) gap for smooth fields.
    """
    vals = theta.values
    l2 = math.sqrt(float((vals * vals).sum()) * theta.grid.cell_area)
    linf = float(np.abs(vals).max())
    d1, d2 = gradient(theta)
    max_grad = float(np.hypot(d1.values, d2.values).max())
    mean = float(vals.mean())
    return l2, linf, max_grad, mean


def energy_budget(theta: ScalarField, A: float,
                  advection: ScalarField | None = None) -> tuple[float, float, float]:
    """(nonlinear_flux, dispersive_flux, dissipation) as defined above.

    The first two are identically zero in exact arithmetic; their measured
    values quantify discretization and rounding residue. ``advection`` is
    advect(theta) when the caller has it, as ``sample`` has a state's tendency.
    """
    g = theta.grid
    vals = theta.values
    # a field of its own, so that a caller's tendency keeps no point values
    advection = ScalarField.from_hat(g, (advection or advect(theta)).hat)
    nonlinear = float((vals * advection.values).sum()) * g.cell_area
    dispersive = A * float((vals * riesz_transform(theta, 1).values).sum()) * g.cell_area

    power = np.abs(theta.hat) ** 2
    power[:, 1:-1] *= 2.0  # interior columns k2 stand for k2 and -k2
    dissipation = -TWO_PI**2 / g.n**4 * float((g.lam * power).sum())
    return nonlinear, dispersive, dissipation


def chebyshev_check(theta: ScalarField, M: float, l2_initial: float) -> tuple[float, float, bool]:
    """Measure of {|theta| >= M/2} against the bound 4*||theta_0||^2 / M^2.

    The monotone L2 norm makes the bound valid with the initial-time norm.
    The pass flag allows an O(dx) slack of 4*pi*dx for the discrete count.
    """
    if M <= 0:
        raise ValueError("threshold M must be positive")
    g = theta.grid
    measure = float(np.count_nonzero(np.abs(theta.values) >= 0.5 * M)) * g.cell_area
    bound = 4.0 * l2_initial**2 / M**2
    ok = measure <= bound + 4.0 * math.pi * g.dx
    return measure, bound, ok


def sample(state: SolverState, cfg: SampleConfig, index: int) -> DiagnosticsRecord:
    """Assemble a record for the given sample index.

    Certification runs only when ``index`` is a multiple of
    ``certify_every``.
    """
    l2, linf, max_grad, mean = norms(state.theta)
    nonlinear, dispersive, dissipation = energy_budget(state.theta, state.A, state.tendency[0])
    b_min = None
    certify = (
        cfg.modulus_params is not None
        and cfg.certify_every > 0
        and index % cfg.certify_every == 0
    )
    if certify:
        b_min = minimal_b(state.theta, cfg.modulus_params).b_min
    return DiagnosticsRecord(
        t=state.t,
        l2=l2,
        linf=linf,
        max_grad=max_grad,
        mean=mean,
        nonlinear_flux=nonlinear,
        dispersive_flux=dispersive,
        dissipation=dissipation,
        b_min=b_min,
    )
