"""Strang-split pseudospectral integrator for u_tt - Lap u = -|u|^(p-1) u.

The linear half-wave is propagated exactly per Fourier mode (a rotation in the
(u, v) plane at angular speed |k|), and the nonlinearity acts as a momentum
kick evaluated pointwise on a spectrally oversampled grid and projected back
to the resolved band.  One step is kick(dt/2) o linear(dt) o kick(dt/2); the
scheme is time-reversible and second order.

Observation times are integer multiples of the step, and the step is adjusted
downward when a requested sampling interval does not divide it evenly.
Consecutive half-kicks between observations are fused into whole kicks (the
kick leaves u untouched, so the fusion is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    Grid,
    SpectralField,
    FieldError,
    _kmag,
    _make,
    _band,
    _samples,
    power_multiplier,
    apply_multiplier,
    sobolev_norm,
    lebesgue_norm,
)


# Most steps one evolve call may take; a larger request is an input error.
MAX_STEPS = 2 ** 20


class BlowUpError(RuntimeError):
    """Non-finite values appeared in the state; carries the time stamp."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t={time}")
        self.time = time


@dataclass(frozen=True)
class WaveState:
    """Position u, velocity v = du/dt, and the current time."""

    u: SpectralField
    v: SpectralField
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise FieldError("position and velocity live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class StepperConfig:
    """Stepper knobs: step dt, nonlinearity power p, kick oversampling factor."""

    dt: float
    p: float
    oversample: int = 2

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise FieldError(f"dt must be positive and finite, got {self.dt}")
        if not self.p > 1.0:
            raise FieldError(f"nonlinearity power must exceed 1, got {self.p}")
        if not (isinstance(self.oversample, int) and self.oversample >= 1):
            raise FieldError(f"oversample must be an integer >= 1, got {self.oversample}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit: times, optionally the sampled states, and the final state."""

    times: np.ndarray
    states: list[WaveState] | None
    final: WaveState


def pair_sobolev_norm(state: WaveState, sigma: float) -> float:
    """Norm of (u, v) in the product space of orders (sigma, sigma - 1)."""
    return math.hypot(sobolev_norm(state.u, sigma), sobolev_norm(state.v, sigma - 1.0))


def state_difference(a: WaveState, b: WaveState) -> WaveState:
    return WaveState(u=a.u - b.u, v=a.v - b.v, t=a.t)


# ---------------------------------------------------------------------------
# Linear propagation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _rotation(grid: Grid, duration: float):
    """cos(|k| t), sin(|k| t)/|k| (t at k=0), |k| sin(|k| t) on the grid."""
    kmag = _kmag(grid)
    phase = kmag * duration
    cos = np.cos(phase)
    sin = np.sin(phase)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(kmag > 0.0, sin / np.where(kmag > 0.0, kmag, 1.0), duration)
    ksin = kmag * sin
    for arr in (cos, sinc, ksin):
        arr.flags.writeable = False
    return cos, sinc, ksin


def propagate_linear(state: WaveState, duration: float) -> WaveState:
    """Exact free-wave propagation: per-mode rotation at angular speed |k|."""
    cos, sinc, ksin = _rotation(state.grid, duration)
    uc, vc = state.u.coeffs, state.v.coeffs
    new_u = cos * uc + sinc * vc
    new_v = -ksin * uc + cos * vc
    return WaveState(u=_make(state.grid, new_u), v=_make(state.grid, new_v),
                     t=state.t + duration)


# ---------------------------------------------------------------------------
# Nonlinear kick with spectral oversampling
# ---------------------------------------------------------------------------

def _nonlinear_raw(grid: Grid, ucoef: np.ndarray, p: float, oversample: int) -> np.ndarray:
    """Band-projected |u|^(p-1) u: oversampled pointwise evaluation, truncated back."""
    u_phys = _samples(grid, ucoef, oversample * grid.n)
    return _band(grid, np.abs(u_phys) ** (p - 1.0) * u_phys)


def nonlinear_term(u: SpectralField, p: float, oversample: int = 2) -> SpectralField:
    """Projection of |u|^(p-1) u onto the resolved (mean-free) band."""
    return _make(u.grid, _nonlinear_raw(u.grid, u.coeffs, p, oversample))


def nonlinear_kick(state: WaveState, duration: float, cfg: StepperConfig) -> WaveState:
    """Momentum kick v <- v - duration * |u|^(p-1) u; u and t unchanged."""
    g = _nonlinear_raw(state.grid, state.u.coeffs, cfg.p, cfg.oversample)
    return WaveState(u=state.u, v=_make(state.grid, state.v.coeffs - duration * g),
                     t=state.t)


def strang_step(state: WaveState, cfg: StepperConfig) -> WaveState:
    """One reversible step kick(dt/2) o linear(dt) o kick(dt/2)."""
    h = cfg.dt
    out = nonlinear_kick(state, 0.5 * h, cfg)
    out = propagate_linear(out, h)
    out = nonlinear_kick(out, 0.5 * h, cfg)
    if not np.isfinite(out.u.coeffs).all() or not np.isfinite(out.v.coeffs).all():
        raise BlowUpError(out.t)
    return out


def evolve(state: WaveState, horizon: float, cfg: StepperConfig, *,
           sample_interval: float | None = None, keep_states: bool = True,
           observer=None) -> Trajectory:
    """March to t + horizon, sampling every sample_interval (default: every step).

    The step is cfg.dt or the largest value below it that divides the sampling
    interval evenly, so every observation lands exactly on a step boundary.
    The horizon must be an integer number of sampling intervals, and the run
    at most MAX_STEPS steps.  Non-finite values abort with BlowUpError and the
    offending time stamp.
    """
    if not horizon > 0.0:
        raise FieldError(f"horizon must be positive, got {horizon}")
    interval = cfg.dt if sample_interval is None else sample_interval
    if not 0.0 < interval <= horizon + 1e-12 * horizon:
        raise FieldError(f"sampling interval {interval} outside (0, horizon]")
    n_samples = int(round(horizon / interval))
    if abs(n_samples * interval - horizon) > 1e-9 * horizon:
        raise FieldError(
            f"horizon {horizon} is not an integer number of sampling intervals {interval}")
    steps_per = max(1, math.ceil(interval / cfg.dt - 1e-12))
    if n_samples * steps_per > MAX_STEPS:
        raise FieldError(f"{n_samples * steps_per} steps exceed the cap of {MAX_STEPS}")
    h = interval / steps_per

    grid = state.grid
    p, ov = cfg.p, cfg.oversample
    cos, sinc, ksin = _rotation(grid, h)
    u = state.u.coeffs.copy()
    v = state.v.coeffs.copy()
    t0 = state.t

    times = t0 + interval * np.arange(n_samples + 1)
    states: list[WaveState] | None = [] if keep_states else None

    def snapshot(i: int) -> WaveState:
        snap = WaveState(u=_make(grid, u.copy()), v=_make(grid, v.copy()),
                         t=float(times[i]))
        if states is not None:
            states.append(snap)
        if observer is not None:
            observer(snap)
        return snap

    current = snapshot(0)
    for i in range(1, n_samples + 1):
        v -= (0.5 * h) * _nonlinear_raw(grid, u, p, ov)
        for j in range(steps_per):
            u, v = cos * u + sinc * v, -ksin * u + cos * v
            tau = h if j < steps_per - 1 else 0.5 * h
            v -= tau * _nonlinear_raw(grid, u, p, ov)
        if not np.isfinite(u).all() or not np.isfinite(v).all():
            raise BlowUpError(float(times[i]))
        current = snapshot(i)
    return Trajectory(times=times, states=states, final=current)


def linear_trajectory(state: WaveState, horizon: float, sample_interval: float) -> Trajectory:
    """Sampled free-wave orbit via the exact propagator (no stepping error)."""
    n_samples = int(round(horizon / sample_interval))
    if abs(n_samples * sample_interval - horizon) > 1e-9 * horizon:
        raise FieldError("horizon is not an integer number of sampling intervals")
    times = state.t + sample_interval * np.arange(n_samples + 1)
    states = [state]
    for i in range(1, n_samples + 1):
        states.append(propagate_linear(state, float(times[i]) - state.t))
    return Trajectory(times=times, states=states, final=states[-1])


# ---------------------------------------------------------------------------
# Certificates and conserved quantities
# ---------------------------------------------------------------------------

def pde_residual(prev: WaveState, mid: WaveState, nxt: WaveState, p: float,
                 oversample: int = 2) -> float:
    """Grid-L2 norm of (u_next - 2 u_mid + u_prev)/dt^2 - Lap u_mid + |u|^(p-1) u.

    The nonlinearity is projected exactly as the stepper projects it, so this
    certifies the equation the discretization actually solves; it decays at
    second order in the sample spacing on a solver trajectory.
    """
    if prev.grid != mid.grid or mid.grid != nxt.grid:
        raise FieldError("residual requires three states on one grid")
    dt1 = mid.t - prev.t
    dt2 = nxt.t - mid.t
    if dt1 <= 0.0 or abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise FieldError(f"residual requires equispaced times, got {dt1} and {dt2}")
    acc = (nxt.u.coeffs - 2.0 * mid.u.coeffs + prev.u.coeffs) / (dt1 * dt2)
    lap = apply_multiplier(mid.u, power_multiplier(2.0)).coeffs
    g = _nonlinear_raw(mid.grid, mid.u.coeffs, p, oversample)
    res = _make(mid.grid, acc + lap + g)
    return sobolev_norm(res, 0.0)


def true_energy(state: WaveState, p: float, oversample: int = 2) -> float:
    """Conserved energy: |v|^2/2 + |grad u|^2/2 + |u|^(p+1)/(p+1), integrated.

    The potential is integrated on the same oversampled grid the kick uses;
    that quadrature (not the base grid sum) is what the split scheme conserves
    up to its dt^2 error.
    """
    kin = 0.5 * sobolev_norm(state.v, 0.0) ** 2
    grad = 0.5 * sobolev_norm(state.u, 1.0) ** 2
    pot = lebesgue_norm(state.u, p + 1.0, oversample) ** (p + 1.0) / (p + 1.0)
    return kin + grad + pot


def momentum(state: WaveState) -> np.ndarray:
    """Field momentum integral of v grad(u), one component per axis."""
    grid = state.grid
    ax = grid.axis_wavenumbers()
    uc, vc = state.u.coeffs, state.v.coeffs
    out = np.empty(grid.dim)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        k_axis = ax.reshape(shape)
        integrand = np.real(np.conj(vc) * (1j * k_axis) * uc)
        out[axis] = grid.L ** grid.dim * float(np.sum(integrand))
    return out
