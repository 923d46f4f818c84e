"""Exponential (ETDRK2) time integration of the dispersive critical SQG
equation

    theta_t = u . grad(theta) - Lambda(theta) + A * u2,
    u = (-R_2 theta, R_1 theta).

The linear symbol L(k) = -|k| + i*A*k1/|k| is diagonal in Fourier space and
is integrated exactly; the advection term is treated explicitly. Because
the dissipative and dispersive parts are both in the exponential, the
scheme is exact for the linear flow and the skew part contributes no
amplitude error at any step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fields import ScalarField
from .grid import Grid
from .operators import advect, velocity

# Below this modulus the direct phi formulas lose digits to cancellation
# and a fourth-order Taylor expansion is exact to double precision.
_PHI_SERIES_CUTOFF = 1e-4

_BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """Raised when the solution stops being finite or grows implausibly."""

    def __init__(self, message: str, t: float, step_count: int):
        super().__init__(f"{message} (t={t:.6g}, step={step_count})")
        self.t = t
        self.step_count = step_count


@dataclass(frozen=True)
class SolverState:
    """Scalar field plus simulation time and the dispersion amplitude."""

    theta: ScalarField
    t: float
    A: float
    step_count: int = 0


@dataclass(frozen=True)
class StepControl:
    """Time-step selection policy. ``fixed`` uses dt_fixed, ``cfl`` adapts
    to the current advective speed; either way the chosen dt never exceeds
    dt_max."""

    mode: str = "cfl"
    dt_fixed: float = 1e-3
    cfl_number: float = 0.5
    dt_max: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "cfl"):
            raise ValueError(f"mode must be 'fixed' or 'cfl', got {self.mode!r}")
        if not 0 < self.dt_fixed < math.inf:
            raise ValueError("dt_fixed must be positive and finite")
        if not 0 < self.cfl_number <= 1:
            raise ValueError("cfl_number must lie in (0, 1]")
        if not 0 < self.dt_max < math.inf:
            raise ValueError("dt_max must be positive and finite")


def linear_symbol_grid(grid: Grid, A: float) -> np.ndarray:
    """Linear symbol L(k) = -|k| + i*A*k1/|k|, with L(0) = 0, on the
    grid's half-spectrum wavevectors.

    Nyquist rows/columns carry a zero symbol, matching the convention of
    the spatial multipliers (those modes are never populated by dealiased
    dynamics or by the band-limited initial-data generators).
    """
    return -grid.lam + 1j * (A * grid.k1_over_k)


def phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z with a Taylor fallback for small |z|."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    direct = (np.exp(zs) - 1.0) / zs
    series = 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0
    return np.where(small, series, direct)


def phi2(z: np.ndarray) -> np.ndarray:
    """phi_2(z) = (e^z - 1 - z)/z^2 with a Taylor fallback for small |z|."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    direct = (np.exp(zs) - 1.0 - zs) / zs**2
    series = 0.5 + z / 6.0 + z**2 / 24.0 + z**3 / 120.0
    return np.where(small, series, direct)


def step(state: SolverState, dt: float, advection_sign: int = 1) -> SolverState:
    """Advance one ETDRK2 step of size dt.

    With N the (sign-adjusted) spectral advection term and z = L*dt:

        a      = e^z theta_hat + dt phi1(z) N(theta)
        theta' = a + dt phi2(z) (N(a) - N(theta))

    Exact for the linear flow whenever N vanishes along the step. All of
    it works on half-spectra; no point values are computed here.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return state
    grid = state.theta.grid
    z = linear_symbol_grid(grid, state.A) * dt
    propagator = np.exp(z)
    p1 = phi1(z)
    p2 = phi2(z)

    n0 = advection_sign * advect(state.theta).hat
    a_hat = propagator * state.theta.hat + dt * p1 * n0
    n1 = advection_sign * advect(ScalarField.from_hat(grid, a_hat)).hat
    new_hat = a_hat + dt * p2 * (n1 - n0)

    if not np.isfinite(new_hat).all():
        raise BlowUpError("non-finite values after step", state.t + dt, state.step_count + 1)
    return SolverState(ScalarField.from_hat(grid, new_hat), state.t + dt, state.A,
                       state.step_count + 1)


def cfl_dt(u: tuple[ScalarField, ScalarField], grid: Grid, ctrl: StepControl) -> float:
    """CFL step: min(dt_max, cfl * dx / max(max|u1|, max|u2|)), guarded for u ~ 0."""
    if ctrl.mode != "cfl":
        raise ValueError("cfl_dt requires ctrl.mode == 'cfl'")
    speed = max(u[0].linf(), u[1].linf(), 1e-12)
    return min(ctrl.dt_max, ctrl.cfl_number * grid.dx / speed)


def run(
    state0: SolverState,
    ctrl: StepControl,
    t_end: float,
    hook: Callable[[SolverState], None] | None = None,
    sample_every: float | None = None,
    advection_sign: int = 1,
) -> SolverState:
    """Step from state0.t to t_end, landing exactly on sample times and on
    t_end.

    ``hook`` is invoked at the initial state, at every multiple of
    ``sample_every`` past state0.t, and at t_end. Raises
    :class:`BlowUpError` if the sup norm exceeds 1e6 times its initial
    value or stops being finite.
    """
    if t_end < state0.t:
        raise ValueError("t_end must not precede the current time")
    if sample_every is not None and sample_every <= 0:
        raise ValueError("sample_every must be positive")

    state = state0
    if hook is not None:
        hook(state)
    if t_end == state0.t:
        return state

    linf0 = state0.theta.linf()
    t0 = state0.t
    sample_index = 1
    eps = 1e-12 * max(1.0, abs(t_end))

    while t_end - state.t > eps:
        if sample_every is not None:
            next_sample = t0 + sample_index * sample_every
            target = min(t_end, next_sample)
        else:
            next_sample = math.inf
            target = t_end

        if ctrl.mode == "fixed":
            dt_nominal = min(ctrl.dt_fixed, ctrl.dt_max)
        else:
            dt_nominal = cfl_dt(velocity(state.theta), state.theta.grid, ctrl)

        remaining = target - state.t
        boundary_step = dt_nominal >= remaining
        dt = remaining if boundary_step else dt_nominal
        state = step(state, dt, advection_sign)
        if boundary_step:
            state = replace(state, t=target)

        if linf0 > 0 and state.theta.linf() > _BLOWUP_FACTOR * linf0:
            raise BlowUpError("sup norm exceeded 1e6 times its initial value",
                              state.t, state.step_count)

        at_sample = boundary_step and target == next_sample and target < t_end
        if at_sample:
            sample_index += 1
            if hook is not None:
                hook(state)

    state = replace(state, t=t_end)
    if hook is not None:
        hook(state)
    return state
