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
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .fields import ScalarField
from .grid import Grid
from .operators import advect, advect_with_speed

# Below this modulus the direct phi formulas lose digits to cancellation
# and a fourth-order Taylor expansion is exact to double precision.
_PHI_SERIES_CUTOFF = 1e-4

_BLOWUP_FACTOR = 1e6
_SCREEN_MARGIN = 1e-9  # relative slack of the Wiener-bound screen for rounding in linf()


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

    @cached_property
    def tendency(self) -> tuple[ScalarField, float]:
        """``advect_with_speed(theta)``, computed on first read and kept (not by ``replace``):
        CFL control, the first ETDRK2 stage and a sample's energy budget all read it."""
        return advect_with_speed(self.theta)


@dataclass(frozen=True)
class StepControl:
    """Time-step selection policy. ``fixed`` uses dt_fixed, ``cfl`` adapts
    to the current advective speed; either way the chosen dt never exceeds
    dt_max."""

    mode: str = "cfl"
    dt_fixed: float = 1e-3
    cfl_number: float = 0.5
    dt_max: float = 0.01

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


def exp_phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^z, phi_1(z), phi_2(z)) with phi_1(z) = (e^z - 1)/z and
    phi_2(z) = (e^z - 1 - z)/z^2, from one complex exponential; a Taylor
    series replaces the direct formulas where |z| is small."""
    z = np.asarray(z, dtype=np.complex128)
    e = np.exp(z)
    em1 = e - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = np.asarray(em1 / z)
        p2 = np.asarray((em1 - z) / z**2)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = z[small]
    p1[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    p2[small] = 0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0
    return e, p1, p2


@lru_cache(maxsize=1)
def _step_weights(grid: Grid, A: float, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (e^z, dt*phi_1(z), dt*phi_2(z)) at z = L*dt. ``run``
    clears the cache when it returns."""
    e, p1, p2 = exp_phi(linear_symbol_grid(grid, A) * dt)
    weights = (e, dt * p1, dt * p2)
    for w in weights:
        w.flags.writeable = False
    return weights


def step(state: SolverState, dt: float) -> SolverState:
    """Advance one ETDRK2 step of size dt.

    With N the spectral advection term and z = L*dt:

        a      = e^z theta_hat + dt phi1(z) N(theta)
        theta' = a + dt phi2(z) (N(a) - N(theta))

    Exact for the linear flow whenever N vanishes along the step. All of
    it works on half-spectra; no point values are computed here. N(theta)
    is the state's cached tendency. The weights are cached for the last
    (n, A, dt).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return state
    grid = state.theta.grid
    propagator, w1, w2 = _step_weights(grid, state.A, dt)

    n0 = state.tendency[0].hat
    a_hat = propagator * state.theta.hat + w1 * n0
    n1 = advect(ScalarField.from_hat(grid, a_hat)).hat
    new_hat = a_hat + w2 * (n1 - n0)

    if not np.isfinite(new_hat).all():
        raise BlowUpError("non-finite values after step", state.t + dt, state.step_count + 1)
    return SolverState(ScalarField.from_hat(grid, new_hat), state.t + dt, state.A,
                       state.step_count + 1)


def cfl_dt(speed: float, grid: Grid, ctrl: StepControl) -> float:
    """CFL step min(dt_max, cfl * dx / speed) for the largest velocity component, floored at 1e-12."""
    if ctrl.mode != "cfl":
        raise ValueError("cfl_dt requires ctrl.mode == 'cfl'")
    return min(ctrl.dt_max, ctrl.cfl_number * grid.dx / max(speed, 1e-12))


def run(
    state0: SolverState,
    ctrl: StepControl,
    t_end: float,
    hook: Callable[[SolverState], None] | None = None,
    sample_every: float | None = None,
) -> SolverState:
    """Step from state0.t to t_end, landing exactly on sample times and on
    t_end.

    ``hook`` is invoked at the initial state, at every multiple of
    ``sample_every`` past state0.t, and at t_end. CFL control uses the
    dealiased speed of :attr:`SolverState.tendency`. Raises
    :class:`BlowUpError` if the sup norm exceeds 1e6 times its initial
    value or stops being finite; the sup norm is computed only when the
    Wiener bound ``linf_bound()`` exceeds that limit, which changes no
    outcome. The step weights cached along the way are released when the
    stepping ends.
    """
    if t_end < state0.t:
        raise ValueError("t_end must not precede the current time")
    if sample_every is not None and sample_every <= 0:
        raise ValueError("sample_every must be positive")

    # A copy, so that no tendency stays cached on the caller's state0.
    state = replace(state0)
    if hook is not None:
        hook(state)
    if t_end == state0.t:
        return state0

    limit = _BLOWUP_FACTOR * state0.theta.linf()
    t0 = state0.t
    sample_index = 1
    eps = 1e-12 * max(1.0, abs(t_end))

    try:
        while t_end - state.t > eps:
            next_sample = math.inf if sample_every is None else t0 + sample_index * sample_every
            target = min(t_end, next_sample)
            if ctrl.mode == "fixed":
                dt_nominal = min(ctrl.dt_fixed, ctrl.dt_max)
            else:
                dt_nominal = cfl_dt(state.tendency[1], state.theta.grid, ctrl)

            remaining = target - state.t
            boundary_step = dt_nominal >= remaining
            dt = remaining if boundary_step else dt_nominal
            state = step(state, dt)
            if boundary_step:
                state = replace(state, t=target)

            if (0 < limit < state.theta.linf_bound() * (1.0 + _SCREEN_MARGIN)
                    and state.theta.linf() > limit):
                raise BlowUpError("sup norm exceeded 1e6 times its initial value",
                                  state.t, state.step_count)

            if boundary_step and target == next_sample and target < t_end:
                sample_index += 1
                if hook is not None:
                    hook(state)
    finally:
        _step_weights.cache_clear()

    state = replace(state, t=t_end)
    if hook is not None:
        hook(state)
    return state
