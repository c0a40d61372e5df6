"""Strang-split pseudospectral integrator for u_tt - Lap u = -|u|^(p-1) u.

The linear half-wave is propagated exactly per Fourier mode (a rotation in the
(u, v) plane at angular speed |k|), and the nonlinearity acts as a momentum
kick evaluated pointwise on a spectrally oversampled grid and projected back
to the resolved band.  One step is kick(dt/2) o linear(dt) o kick(dt/2); the
scheme is time-reversible and second order.

Observation times are integer multiples of the step, and the step is adjusted
downward when a requested sampling interval does not divide it evenly;
`step_plan` holds this and every other rule a run obeys.  Consecutive
half-kicks between observations are fused into whole kicks (the kick leaves u
untouched, so the fusion is exact).  At an observation the closing half-kick
of one interval and the opening half-kick of the next act at the same u, so
`evolve` evaluates the nonlinearity there once and subtracts the same scaled
kick twice: a run of N intervals of S steps evaluates N S + 1 kicks.  `evolve`
is the one integrator; `strang_step` is a single step of it.

A field is its k_z < n/2 half (see `fields`), and every step here reads and
writes halves only: the rotation symbols are even in k and the kick returns
the half of an exactly Hermitian field, so the dropped half is always the
conjugate reflection of the kept one.  Between observations `evolve` carries
u's and v's halves in its own buffers; each sampled state that is kept or
observed, and the last, is built once, from copies of them.  One cache
(`_rotation`) holds the rotation symbols, and only their k_z < n/2 halves:
`evolve` rotates its halves in place with them, and `propagate_linear`, the
exact free wave, rotates a state's halves into new ones;
`linear_trajectory` steps each sample from the last.

Both runs hand each sampled state to an optional observer as it is made, and
keep the states only with keep_states: an observer that measures each state
(`diagnostics.OrbitMeter`) needs no kept orbit, and a run that keeps none is
not held to the kept-state cap.  Such a run holds at most one sampled
state: `evolve` lets go of its input once it has copied the halves and of
each sample once the observer returns, so no sample is alive during the
kicks, and `linear_trajectory` lets go of each sample, the input first, once
it has built the next from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fields import (
    Grid,
    SpectralField,
    FieldError,
    _check_oversample,
    _kmag,
    _make,
    _projected_power,
    power_multiplier,
    apply_multiplier,
    lebesgue_norm,
    sobolev_norm,
)


# Most steps one run may take, and most bytes its kept states may hold,
# counted at 32 bytes a point (u and v in complex128 on the full grid: 17 MiB
# for 17 states of 32^3); a larger request is an input error.  A kept state
# holds only the k_z < n/2 halves, 16 bytes a point, so the cap counts twice
# what the states hold; it is kept at the full count so that no config
# changes its verdict.
MAX_STEPS = 2 ** 20
MAX_KEPT_BYTES = 2 ** 31


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
        _check_power(self.p)
        _check_oversample(self.oversample)


def _check_power(p) -> float:
    """The nonlinearity power, which must exceed 1 (FieldError)."""
    if not p > 1.0:
        raise FieldError(f"nonlinearity power must exceed 1, got {p}")
    return p


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit: optionally the sampled states, each with its t, and the
    final state.

    A stepped orbit also reports what the solver did: the effective step h
    (see `step_plan`), the number of steps and the number of kick
    evaluations.  The exact free-wave orbit takes none (h is None).
    The kept-trajectory diagnostics integrate the potential at `oversample`,
    the kick's factor (the free-wave orbit keeps the default, 2).
    """

    states: list[WaveState] | None
    final: WaveState
    h: float | None = None
    steps: int = 0
    kicks: int = 0
    oversample: int = 2


def pair_sobolev_norm(state: WaveState, sigma: float) -> float:
    """Norm of (u, v) in the product space of orders (sigma, sigma - 1)."""
    return math.hypot(sobolev_norm(state.u, sigma), sobolev_norm(state.v, sigma - 1.0))


def state_difference(a: WaveState, b: WaveState) -> WaveState:
    return WaveState(u=a.u - b.u, v=a.v - b.v, t=a.t)


# ---------------------------------------------------------------------------
# Linear propagation
# ---------------------------------------------------------------------------

# Sized to the runs of one cell, each of which rotates by one duration: the
# most, four a seed, are `scaling`'s h and h/2, and lambda h on each rescaled grid.
@lru_cache(maxsize=4)
def _rotation(grid: Grid, duration: float):
    """The k_z < n/2 halves, contiguous, of cos(|k| t), sin(|k| t)/|k| (t at
    k=0) and -|k| sin(|k| t): the symbols are computed on the full grid and
    cut, and only the halves are held."""
    kmag = _kmag(grid)
    phase = kmag * duration
    cos = np.cos(phase)
    sin = np.sin(phase)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(kmag > 0.0, sin / np.where(kmag > 0.0, kmag, 1.0), duration)
    neg_ksin = -(kmag * sin)
    halves = tuple(np.ascontiguousarray(a[..., :grid.n // 2]) for a in (cos, sinc, neg_ksin))
    for arr in halves:
        arr.flags.writeable = False
    return halves


def propagate_linear(state: WaveState, duration: float) -> WaveState:
    """Exact free-wave propagation: per-mode rotation at angular speed |k|.

    The k_z < n/2 halves are rotated into new halves; the symbols are even
    in k, so the result equals the rotated full layout value for value.
    """
    grid = state.grid
    cos, sinc, neg_ksin = _rotation(grid, duration)
    uc, vc = state.u.half, state.v.half
    return WaveState(u=_make(grid, cos * uc + sinc * vc),
                     v=_make(grid, neg_ksin * uc + cos * vc),
                     t=state.t + duration)


# ---------------------------------------------------------------------------
# Nonlinear kick with spectral oversampling
# ---------------------------------------------------------------------------

def _nonlinear_raw(grid: Grid, uhalf: np.ndarray, p: float, oversample: int) -> np.ndarray:
    """Band-projected |u|^(p-1) u: oversampled pointwise evaluation, truncated back.

    Takes u's k_z < n/2 half and returns the half of the result
    (`fields._projected_power` at e = p - 1): a whole p - 1 by IEEE
    products (p = 4: u *= w; w *= w; u *= w with w = |u|), any other by `np.power`.
    """
    return _projected_power(grid, uhalf, p - 1.0, oversample)


def nonlinear_term(u: SpectralField, p: float, oversample: int = 2) -> SpectralField:
    """Projection of |u|^(p-1) u onto the resolved (mean-free) band; p must
    exceed 1, as in `StepperConfig`."""
    return _make(u.grid, _nonlinear_raw(u.grid, u.half, _check_power(p), oversample))


def strang_step(state: WaveState, cfg: StepperConfig) -> WaveState:
    """One reversible step kick(dt/2) o linear(dt) o kick(dt/2)."""
    return evolve(state, cfg.dt, cfg, keep_states=False).final


def step_plan(horizon: float, interval: float, dt: float,
              keep: Grid | None = None) -> tuple[int, int, float]:
    """(samples, steps per sample interval, step h) of a run: the one rule
    every `evolve` and `linear_trajectory` run obeys, checkable before it starts.

    The interval lies in (0, horizon], dt is positive, the horizon is a whole
    number of intervals (within 1e-9) and the run takes at most MAX_STEPS
    steps; with `keep`, its samples + 1 states on that grid fit in
    MAX_KEPT_BYTES.  Any breach raises FieldError.  h is dt, or the largest
    value below it that divides the interval evenly.
    """
    if not horizon > 0.0:
        raise FieldError(f"horizon must be positive, got {horizon}")
    if not 0.0 < interval <= horizon + 1e-12 * horizon:
        raise FieldError(f"sampling interval {interval} outside (0, horizon]")
    if not dt > 0.0:
        raise FieldError(f"step must be positive, got {dt}")
    # capped before rounding, so neither a tiny dt nor a huge count overflows
    steps_per = max(1, math.ceil(min(interval / dt, MAX_STEPS + 1.0) - 1e-12))
    if horizon / interval * steps_per > MAX_STEPS + 0.5:
        raise FieldError(f"horizon {horizon} in intervals of {interval} at step "
                         f"{dt} exceeds the cap of {MAX_STEPS} steps")
    samples = round(horizon / interval)
    if abs(samples * interval - horizon) > 1e-9 * horizon:
        raise FieldError(
            f"horizon {horizon} is not an integer number of sampling intervals {interval}")
    if keep is not None and (samples + 1) * 32 * keep.num_points > MAX_KEPT_BYTES:
        raise FieldError(f"{samples + 1} kept states of {keep.num_points} points "
                         f"exceed the cap of {MAX_KEPT_BYTES} bytes")
    return samples, steps_per, interval / steps_per


def evolve(state: WaveState, horizon: float, cfg: StepperConfig, *,
           sample_interval: float | None = None, keep_states: bool = True,
           observer=None) -> Trajectory:
    """March to t + horizon, sampling every sample_interval (default: every step).

    The step is cfg.dt or the largest value below it that divides the sampling
    interval evenly, so every observation lands exactly on a step boundary.
    The run must obey `step_plan`, its states counted only with keep_states.
    Sample i is stamped t + i interval; non-finite values abort with
    BlowUpError and the offending time stamp.  The run releases its input
    state once the halves are copied.  A sample is built as a state, from
    copies of the carried halves, only when it is kept or observed, and the
    last always, for `final`.  Without
    keep_states it drops each sample once the observer returns, before the
    kicks that follow it; the rotation scratch is allocated per interval, so
    none of it is alive while a sample is observed.
    """
    interval = cfg.dt if sample_interval is None else sample_interval
    grid = state.grid
    n_samples, steps_per, h = step_plan(horizon, interval, cfg.dt,
                                        grid if keep_states else None)
    times = state.t + interval * np.arange(n_samples + 1)

    p, ov = cfg.p, cfg.oversample
    cos, sinc, neg_ksin = _rotation(grid, h)
    u = state.u.half.copy()
    v = state.v.half.copy()
    del state  # the run reads only its halves, times and grid from here on
    states: list[WaveState] | None = [] if keep_states else None

    def snapshot(i: int) -> WaveState:
        snap = WaveState(u=_make(grid, u.copy()), v=_make(grid, v.copy()), t=float(times[i]))
        if states is not None:
            states.append(snap)
        if observer is not None:
            observer(snap)
        return snap

    read = keep_states or observer is not None  # else only `final` is built
    if read:
        snapshot(0)
    g = _nonlinear_raw(grid, u, p, ov)
    g *= 0.5 * h
    kicks = 1
    for i in range(1, n_samples + 1):
        v -= g  # the opening half-kick, at the u of the last observation
        u_next = np.empty_like(u)
        v_next = np.empty_like(v)
        for j in range(1, steps_per + 1):
            # u, v <- cos u + sinc v, -ksin u + cos v with no temporaries:
            # each buffer is overwritten once its old value is read
            np.multiply(sinc, v, out=v_next)
            np.multiply(cos, u, out=u_next)
            u_next += v_next
            np.multiply(neg_ksin, u, out=v_next)
            np.multiply(cos, v, out=u)
            v_next += u
            u, u_next = u_next, u
            v, v_next = v_next, v
            g = _nonlinear_raw(grid, u, p, ov)
            kicks += 1
            g *= h if j < steps_per else 0.5 * h
            v -= g
        del u_next, v_next  # the scratch goes before the sample is built
        if not np.isfinite(u).all() or not np.isfinite(v).all():
            raise BlowUpError(float(times[i]))
        if read and i < n_samples:
            snapshot(i)  # dropped once observed, unless kept
    return Trajectory(states=states, final=snapshot(n_samples), h=h,
                      steps=n_samples * steps_per, kicks=kicks, oversample=ov)


def linear_trajectory(state: WaveState, horizon: float, sample_interval: float, *,
                      keep_states: bool = True, observer=None) -> Trajectory:
    """Sampled free-wave orbit via the exact propagator (no stepping error).

    Its plan is `step_plan`'s at one step per interval, its states counted
    only with keep_states.  The first sample is `state` itself; each later
    one is `propagate_linear(previous sample, sample_interval)`, stamped
    t + i sample_interval, so the run rotates by one duration.  keep_states
    and observer work as in `evolve`; the run lets go of `state` after
    sample 0, and while a sample is built only the one before it is alive.
    """
    count, _, _ = step_plan(horizon, sample_interval, sample_interval,
                            state.grid if keep_states else None)
    times = state.t + sample_interval * np.arange(count + 1)
    states: list[WaveState] | None = [] if keep_states else None
    for i, t in enumerate(times):
        if i:
            # `state` is the last sample, let go once the next is built from it
            state = replace(propagate_linear(state, sample_interval), t=float(t))
        if states is not None:
            states.append(state)
        if observer is not None:
            observer(state)
    return Trajectory(states=states, final=state)


# ---------------------------------------------------------------------------
# Certificates and the conserved energy
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
    acc = (nxt.u.half - 2.0 * mid.u.half + prev.u.half) / (dt1 * dt2)
    lap = apply_multiplier(mid.u, power_multiplier(2.0)).half
    g = nonlinear_term(mid.u, p, oversample).half
    res = _make(mid.grid, acc + lap + g)
    return sobolev_norm(res, 0.0)


def _energy_norms(state: WaveState, specs, p: float,
                  oversample: int) -> tuple[float, float, float]:
    """|v|, |grad u| and the potential |u|^(p+1)/(p+1), integrated `oversample`
    times finer, of the state times the multipliers `specs`, by the `fields`
    norms, which build no field: `true_energy` and the smoothed energy."""
    velocity = sobolev_norm(state.v, 0.0, specs)
    gradient = sobolev_norm(state.u, 1.0, specs)
    potential = lebesgue_norm(state.u, p + 1.0, oversample, specs) ** (p + 1.0) / (p + 1.0)
    return velocity, gradient, potential


def true_energy(state: WaveState, p: float, oversample: int = 2) -> float:
    """Conserved energy: |v|^2/2 + |grad u|^2/2 + |u|^(p+1)/(p+1), integrated.

    `_energy_norms` with no multipliers integrates the potential on the same
    oversampled grid the kick uses; that quadrature (not the base grid sum)
    is what the split scheme conserves up to its dt^2 error.
    """
    velocity, gradient, potential = _energy_norms(state, (), p, oversample)
    return 0.5 * velocity ** 2 + 0.5 * gradient ** 2 + potential
