"""Measurements on states and trajectories: smoothed energy, space-time norms,
conservation drift, inequality ratios, and log-log slope fitting.

The smoothing operator turns rough data into finite-energy data, and every
quantity here is built from it: the smoothed energy replaces u by Iu in the
usual energy functional, the space-time norms measure D^(1-m) Iu in Lebesgue
exponents drawn from the admissible triple region, and the ratio diagnostics
divide measured left-hand sides by the scaling predictions so that a bounded,
cutoff-trend-free ratio is evidence for the corresponding inequality.
Each has one implementation: `smoothed_energy` calls `dynamics._energy_norms`
with I, and `initial_bound_ratios` takes every cutoff in one call.

The trajectory diagnostics are running reductions over time, so they have
one per-state path, `OrbitMeter`: it measures each sampled state once as it
is produced, records the state's time, and its methods apply the time
reductions at the end.  Passed as the observer of `evolve` or
`linear_trajectory` with keep_states=False, it keeps no orbit;
`spacetime_norm`, `spacetime_report`, `energy_drift` and `norm_growth_ratio`
run the same meter over a kept trajectory's states, at the trajectory's
`oversample`.  The per-state measurements are the `fields` norms, given
their multipliers, which build no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import lebesgue_norm, power_multiplier, smoothing_multiplier, sobolev_norm
from .dynamics import Trajectory, WaveState, _energy_norms, pair_sobolev_norm
from .params import PdeParams, TripleMQR, data_size, is_allowed_triple, reference_triples


class DiagnosticsError(ValueError):
    """Measurement requested on unusable input (bad triple, too few samples)."""


def _ratio(num: float, den: float) -> float:
    """num/den with the 0/0 -> 0 convention; nonzero/0 is reported as inf."""
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


# ---------------------------------------------------------------------------
# Smoothed energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic, gradient, and potential parts of the smoothed energy."""

    kinetic: float
    gradient: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.gradient + self.potential


def smoothed_energy(state: WaveState, cutoff: float, s: float, p: float,
                    oversample: int = 2) -> EnergyBreakdown:
    """Energy of the smoothed pair: |Iv|^2/2 + |grad Iu|^2/2 + |Iu|^(p+1)/(p+1).

    The smoothing multiplier is the identity below the cutoff, so band-limited
    states reproduce the plain energy exactly.  The potential is integrated on
    the grid `oversample` times finer; a drift measurement along a run passes
    the stepper's factor, so it sees the solver's conserved quadrature, not
    base-grid aliasing noise.

    It is `dynamics._energy_norms`, the functional of `true_energy`, with I
    as the one multiplier, so no field is built: the norms of I v and I u
    form the product in full, the potential forms the k_z < n/2 half of I u.
    """
    velocity, gradient, potential = _energy_norms(
        state, (smoothing_multiplier(cutoff, s),), p, oversample)
    return EnergyBreakdown(kinetic=0.5 * velocity ** 2, gradient=0.5 * gradient ** 2,
                           potential=potential)


# ---------------------------------------------------------------------------
# Orbit diagnostics: one measurement per sampled state, reduced over time
# ---------------------------------------------------------------------------

def _check_uniform(times: np.ndarray) -> None:
    if len(times) >= 3:
        gaps = np.diff(times)
        if np.max(np.abs(gaps - gaps[0])) > 1e-9 * abs(gaps[0]):
            raise DiagnosticsError("trajectory samples are not uniformly spaced")


@dataclass(frozen=True)
class NormReport:
    """One space-time norm per reference triple, plus their maximum."""

    triples: tuple[TripleMQR, ...]
    values: tuple[float, ...]

    @property
    def z_max(self) -> float:
        return max(self.values)


@dataclass(frozen=True)
class DriftReport:
    """Smoothed-energy drift statistics over a sampled trajectory."""

    drift: float
    e_sup: float
    energies: np.ndarray


@dataclass(frozen=True)
class GrowthReport:
    """Norm-increment ratio against the drift-plus-spacetime bracket."""

    initial: float
    final: float
    e_sup: float
    z_max: float
    bracket: float
    ratio: float


class OrbitMeter:
    """Measures each sampled state of an orbit once, in time order.

    Called on a state, it records the state's time t and, for every cutoff
    N, the spatial norm |D^(1-m) I_N u|_(L^r) on every triple given and, with
    `energies`, the smoothed energy at `oversample`, the factor of the run it
    measures.  The norm is `fields.lebesgue_norm` of u with the multipliers
    (D^(1-m), I) at factor 1, so it allocates no field.  The methods named
    after the public trajectory diagnostics reduce the records over the
    recorded `times`, which must be uniformly spaced for a time integral;
    those functions feed a meter from a kept trajectory's states, so passing
    one as `observer=` to `evolve` or `linear_trajectory` with
    keep_states=False gives their results bit for bit without keeping the
    orbit (both runs stamp sample i with the same t).  The meter keeps numbers
    only, no state: `norm_growth_ratio` takes the pair norms at the first and
    the last sample from its caller.
    """

    def __init__(self, cutoffs, s: float, p: float, triples=(),
                 energies: bool = False, oversample: int = 2):
        self.s, self.p, self.oversample = s, p, oversample
        self.cutoffs = tuple(dict.fromkeys(cutoffs))
        self.triples = tuple(dict.fromkeys(triples))
        self._phi = {(c, t): [] for c in self.cutoffs for t in self.triples}
        self._energies = {c: [] for c in self.cutoffs} if energies else {}
        self.times: list[float] = []

    def __call__(self, state: WaveState) -> None:
        for cutoff in self.cutoffs:
            smoother = smoothing_multiplier(cutoff, self.s)
            for triple in self.triples:
                mults = (power_multiplier(1.0 - triple.m), smoother)
                self._phi[cutoff, triple].append(lebesgue_norm(state.u, triple.r, 1, mults))
            if self._energies:
                self._energies[cutoff].append(
                    smoothed_energy(state, cutoff, self.s, self.p, self.oversample).total)
        self.times.append(state.t)

    @property
    def count(self) -> int:
        """The number of states measured."""
        return len(self.times)

    def _series(self, table: dict, key) -> np.ndarray:
        if self.count == 0:
            raise DiagnosticsError("no state was measured")
        if key not in table:
            raise DiagnosticsError(f"{key} was not measured")
        return np.array(table[key])

    def spacetime_norm(self, triple: TripleMQR, cutoff: float) -> float:
        """See `spacetime_norm`."""
        phi = self._series(self._phi, (cutoff, triple))
        if math.isinf(triple.q):
            return float(np.max(phi))
        if self.count < 2:
            raise DiagnosticsError("finite-q time norm needs at least 2 samples")
        times = np.array(self.times)
        _check_uniform(times)
        return float(np.trapezoid(phi ** triple.q, times) ** (1.0 / triple.q))

    def spacetime_report(self, cutoff: float) -> NormReport:
        """See `spacetime_report`; the triples are the meter's."""
        values = tuple(self.spacetime_norm(t, cutoff) for t in self.triples)
        return NormReport(triples=self.triples, values=values)

    def energy_drift(self, cutoff: float) -> DriftReport:
        """See `energy_drift`."""
        energies = self._series(self._energies, cutoff)
        if self.count < 2:
            raise DiagnosticsError("drift needs at least 2 samples")
        drift = float(np.max(np.abs(energies - energies[0])))
        return DriftReport(drift=drift, e_sup=float(np.max(energies)), energies=energies)

    def norm_growth_ratio(self, cutoff: float, initial: float,
                          final: float) -> GrowthReport:
        """See `norm_growth_ratio`, given the pair norms at the first and the
        last sample; z_max is over the meter's triples."""
        if self.count < 2:
            raise DiagnosticsError("growth ratio needs at least 2 samples")
        s, p = self.s, self.p
        horizon = float(self.times[-1] - self.times[0])
        e_sup = self.energy_drift(cutoff).e_sup
        z_max = self.spacetime_report(cutoff).z_max
        bracket = (math.sqrt(e_sup) + horizon * e_sup ** (p / (p + 1.0))
                   + z_max ** p / cutoff ** (0.5 * (5.0 - p) + 1.0 - s))
        return GrowthReport(initial=initial, final=final, e_sup=e_sup, z_max=z_max,
                            bracket=bracket, ratio=_ratio(final - initial, bracket))


def _metered(traj: Trajectory, cutoff: float, s: float, p: float, triples=(),
             energies: bool = False) -> OrbitMeter:
    """An `OrbitMeter` at one cutoff and the trajectory's oversampling
    factor, fed the trajectory's kept states."""
    if traj.states is None or not traj.states:
        raise DiagnosticsError("trajectory was sampled without keeping states")
    meter = OrbitMeter((cutoff,), s, p, triples, energies, traj.oversample)
    for state in traj.states:
        meter(state)
    return meter


def spacetime_norm(traj: Trajectory, triple: TripleMQR, params: PdeParams,
                   cutoff: float) -> float:
    """L^q-in-time L^r-in-space norm of D^(1-m) I u along the trajectory.

    Each state's spatial norm is `lebesgue_norm(apply_multiplier(u, (D^(1-m),
    I)), r)` bit for bit (see `OrbitMeter`).  Time integration is the
    composite trapezoid rule, over the states' uniformly spaced times t, on
    the q-th power of the spatial norm; q = inf takes the max over samples
    and accepts a single sample, while finite q needs at least two.
    """
    if not is_allowed_triple(triple, params):
        raise DiagnosticsError(f"triple {triple} is outside the allowed region")
    meter = _metered(traj, cutoff, params.s, params.p, (triple,))
    return meter.spacetime_norm(triple, cutoff)


def spacetime_report(traj: Trajectory, params: PdeParams, cutoff: float) -> NormReport:
    """Evaluate the space-time norm on every reference triple."""
    meter = _metered(traj, cutoff, params.s, params.p, reference_triples(params))
    return meter.spacetime_report(cutoff)


# ---------------------------------------------------------------------------
# Conservation drift and inequality ratios
# ---------------------------------------------------------------------------

def energy_drift(traj: Trajectory, cutoff: float, s: float, p: float) -> DriftReport:
    """sup_t |E(t) - E(0)| and sup_t E(t) of the smoothed energy, its
    potential integrated at the trajectory's `oversample`."""
    return _metered(traj, cutoff, s, p, energies=True).energy_drift(cutoff)


@dataclass(frozen=True)
class BoundRatios:
    """Measured/predicted ratios for the four smoothed-data bounds.

    gradient: |grad Iu| vs N^(1-s) |u|_s; velocity: |Iv| vs N^(1-s) |v|_(s-1);
    potential: |Iu|_(p+1)^(p+1) vs N^(2(1-s)) |u|_s^2 |u|_crit^(p-1);
    energy: total smoothed energy vs N^(2(1-s)) times the data-size functional.
    """

    gradient: float
    velocity: float
    potential: float
    energy: float


def initial_bound_ratios(state: WaveState, cutoffs, params: PdeParams) -> list[BoundRatios]:
    """Ratios of the smoothed-energy components to their data-norm
    predictions, one per cutoff: the data norms |u|_s, |v|_(s-1) and
    |u|_(s_c) are measured once, and each cutoff's parts and total are
    `smoothed_energy`'s, at factor 2."""
    s, p = params.s, params.p
    norm_s = sobolev_norm(state.u, s)
    norm_v = sobolev_norm(state.v, s - 1.0)
    norm_crit = sobolev_norm(state.u, params.s_crit)
    out = []
    for cutoff in cutoffs:
        velocity, gradient, potential = _energy_norms(
            state, (smoothing_multiplier(cutoff, s),), p, 2)
        total = 0.5 * velocity ** 2 + 0.5 * gradient ** 2 + potential
        factor = cutoff ** (1.0 - s)
        out.append(BoundRatios(
            gradient=_ratio(gradient, factor * norm_s),
            velocity=_ratio(velocity, factor * norm_v),
            potential=_ratio((p + 1.0) * potential,
                             factor ** 2 * norm_s ** 2 * norm_crit ** (p - 1.0)),
            energy=_ratio(total, factor ** 2 * data_size((norm_s, norm_v), norm_crit, p)),
        ))
    return out


def norm_growth_ratio(traj: Trajectory, params: PdeParams, cutoff: float) -> GrowthReport:
    """(pair norm at T minus at 0) over the energy/space-time bracket.

    The bracket is sup E^(1/2) + T sup E^(p/(p+1)) + z_max^p / N^((5-p)/2+1-s);
    a bounded ratio across runs supports the norm-increment bound.  Zero
    trajectories return ratio 0 by the 0/0 convention.
    """
    meter = _metered(traj, cutoff, params.s, params.p, reference_triples(params),
                     energies=True)
    initial, final = (pair_sobolev_norm(w, params.s) for w in (traj.states[0], traj.final))
    return meter.norm_growth_ratio(cutoff, initial, final)


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log x, log y) with RMS log-residual."""

    slope: float
    intercept: float
    residual: float


def fit_loglog_slope(xs, ys) -> SlopeFit:
    """Fit log y = slope * log x + intercept; needs >= 3 positive points at
    3 or more distinct x."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DiagnosticsError("slope fit needs matching 1-d sequences")
    if len(x) < 3:
        raise DiagnosticsError("slope fit needs at least 3 points")
    if not (np.all(x > 0.0) and np.all(y > 0.0)
            and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DiagnosticsError("slope fit needs positive finite inputs")
    if len(np.unique(x)) < 3:
        raise DiagnosticsError("slope fit needs at least 3 distinct x values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    residual=float(np.sqrt(np.mean(resid ** 2))))
