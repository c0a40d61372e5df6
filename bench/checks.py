"""Output checks made apart from the program, on a workload's own data and config.

Each check recomputes a quantity from its definition with this file's own
numpy code (wavenumbers, zero padding, symbols, quadrature, time rotation)
and compares it with what the program wrote, or tests a property the method
must have (time reversibility of Strang splitting, energy conservation).
Only the initial data comes from the program's `synthesize`, and it is
checked on its own (exact order-s normalization).

Every check returns a list of `Check` results; none raises on a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import nlwlab
from nlwlab import dynamics
from workloads import grid_of, recipe_of

# |u|^3 u is not a polynomial, so 2x padding leaves an aliasing error relative
# to a 6x-oversampled evaluation: 2e-7 to 6.5e-5 on the growth data of seed
# bases 0-99 (7.4e-7 at 3x on seed 0).  Without padding the error is about
# 8e-2, with power p+1 about 0.36.
KICK_REL_BOUND = 1e-3
# Largest relative change of the energy, by 4x-oversampled quadrature, over
# the growth horizon at dt = 1/64: 2e-7 to 2.1e-5 on seed bases 0-99.  On the
# seeds checked (0-23) 2x quadrature gives the same values, so this is the
# stepping error, not the quadrature.
ENERGY_DRIFT_BOUND = 1e-4
# Forward then backward with v -> -v returns the data to about 2e-15.
REVERSAL_BOUND = 1e-11
# Recomputed CSV values agree with the program to roundoff.
VALUE_REL_BOUND = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)


# ---------------------------------------------------------------------------
# Own spectral helpers (fftn layout, coefficients normalized by 1/n^3)
# ---------------------------------------------------------------------------

def _int_freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


def _kmag(n: int, L: float) -> np.ndarray:
    k = 2.0 * math.pi / L * _int_freqs(n)
    return np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)


def _values(coeffs: np.ndarray, factor: int) -> np.ndarray:
    """Real samples on a factor-times-finer grid, through the half spectrum."""
    n = coeffs.shape[0]
    m = factor * n
    idx = _int_freqs(n) % m
    half = np.zeros((m, m, m // 2 + 1), dtype=np.complex128)
    half[np.ix_(idx, idx, np.arange(n // 2))] = coeffs[:, :, :n // 2]
    return np.fft.irfftn(half, s=(m, m, m)) * m ** 3


def _band_coeffs(g: np.ndarray, n: int) -> np.ndarray:
    """Resolved band (fftn layout, mean and Nyquist planes zero) of real samples g."""
    m = g.shape[0]
    half = np.fft.rfftn(g) / m ** 3
    idx = _int_freqs(n) % m
    neg = (-_int_freqs(n)) % m
    out = np.zeros((n, n, n), dtype=np.complex128)
    out[:, :, :n // 2] = half[np.ix_(idx, idx, np.arange(n // 2))]
    out[:, :, n // 2 + 1:] = np.conj(half[np.ix_(neg, neg, n - np.arange(n // 2 + 1, n))])
    out[n // 2], out[:, n // 2], out[:, :, n // 2] = 0.0, 0.0, 0.0
    out[0, 0, 0] = 0.0
    return out


def _sobolev(coeffs: np.ndarray, L: float, sigma: float) -> float:
    kmag = _kmag(coeffs.shape[0], L)
    weight = np.zeros_like(kmag)
    nonzero = kmag > 0.0
    weight[nonzero] = kmag[nonzero] ** (2.0 * sigma)
    return math.sqrt(L ** 3 * float(np.sum(weight * np.abs(coeffs) ** 2)))


def _power_integral(coeffs: np.ndarray, L: float, r: float, factor: int) -> float:
    """Grid quadrature of |u|^r on a factor-times-finer grid."""
    u = _values(coeffs, factor)
    return L ** 3 / u.size * float(np.sum(np.abs(u) ** r))


def _smoothing_symbol(kmag: np.ndarray, cutoff: float, s: float) -> np.ndarray:
    """1 below the cutoff, (|k|/cutoff)^(s-1) above twice it, power ramp between."""
    rho = kmag / cutoff
    sym = np.ones_like(rho)
    high = rho >= 2.0
    sym[high] = rho[high] ** (s - 1.0)
    mid = (rho > 1.0) & (rho < 2.0)
    t = np.log2(rho[mid])
    sym[mid] = rho[mid] ** ((s - 1.0) * t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t))
    return sym


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def _data(values: dict, seed: int):
    return nlwlab.synthesize(recipe_of(values, seed), grid_of(values))


def check_data(values: dict, seed: int, w0) -> list[Check]:
    """Synthesized data has order-s position norm and order-(s-1) velocity norm size_hs."""
    L, s, size = values["grid.L"], values["pde.s"], values["recipe.size_hs"]
    return [
        Check(f"data_u_norm_seed{seed}", _rel(_sobolev(w0.u.coeffs, L, s), size),
              VALUE_REL_BOUND),
        Check(f"data_v_norm_seed{seed}", _rel(_sobolev(w0.v.coeffs, L, s - 1.0), size),
              VALUE_REL_BOUND),
    ]


# ---------------------------------------------------------------------------
# growth-kick
# ---------------------------------------------------------------------------

def kick_error(u: nlwlab.SpectralField, p: float, oversample: int) -> float:
    """Relative l2 distance of the program's kick from a 6x-oversampled |u|^(p-1)u."""
    n = u.grid.n
    g = _values(u.coeffs, 6)
    np.abs(g, out=g)
    g **= p - 1.0
    g *= _values(u.coeffs, 6)
    reference = _band_coeffs(g, n)
    program = dynamics.nonlinear_term(u, p, oversample).coeffs
    return float(np.linalg.norm(program - reference) / np.linalg.norm(reference))


def _energy(state, p: float, L: float) -> float:
    kinetic = 0.5 * _sobolev(state.v.coeffs, L, 0.0) ** 2
    gradient = 0.5 * _sobolev(state.u.coeffs, L, 1.0) ** 2
    potential = _power_integral(state.u.coeffs, L, p + 1.0, 4) / (p + 1.0)
    return kinetic + gradient + potential


def check_growth(values: dict, rows: list[dict]) -> list[Check]:
    seeds = sorted({int(r["seed"]) for r in rows})
    p, L = values["pde.p"], values["grid.L"]
    horizon = values["growth.checkpoints"][-1]
    interval = values["growth.sample_interval"]
    cfg = nlwlab.StepperConfig(dt=values["stepper.dt"], p=p,
                               oversample=values["stepper.oversample"])
    w0 = _data(values, seeds[0])
    checks = check_data(values, seeds[0], w0)

    traj = nlwlab.evolve(w0, horizon, cfg, sample_interval=interval)
    for label, state in (("t0", traj.states[0]), ("horizon", traj.final)):
        checks.append(Check(f"kick_vs_6x_{label}", kick_error(state.u, p, cfg.oversample),
                            KICK_REL_BOUND))
    energies = [_energy(w, p, L) for w in traj.states]
    checks.append(Check("energy_drift_4x",
                        max(abs(e - energies[0]) for e in energies) / energies[0],
                        ENERGY_DRIFT_BOUND))

    back = nlwlab.evolve(nlwlab.WaveState(u=traj.final.u, v=traj.final.v * -1.0),
                         horizon, cfg, sample_interval=interval, keep_states=False).final
    scale = math.hypot(np.linalg.norm(w0.u.coeffs), np.linalg.norm(w0.v.coeffs))
    gap = math.hypot(np.linalg.norm(back.u.coeffs - w0.u.coeffs),
                     np.linalg.norm(back.v.coeffs + w0.v.coeffs))
    checks.append(Check("time_reversal", gap / scale, REVERSAL_BOUND))

    floor = math.sqrt(2.0) * values["recipe.size_hs"]
    worst_drop = worst_below = 0.0
    for seed in seeds:
        sup = [float(r["sup_norm_s"]) for r in
               sorted((r for r in rows if int(r["seed"]) == seed),
                      key=lambda r: float(r["horizon"]))]
        worst_drop = max([worst_drop] + [a - b for a, b in zip(sup, sup[1:])])
        worst_below = max(worst_below, (floor - sup[0]) / floor)
    checks.append(Check("sup_norm_s_nondecreasing", worst_drop, 0.0))
    checks.append(Check("sup_norm_s_at_least_sqrt2_size", worst_below, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# strichartz-norms
# ---------------------------------------------------------------------------

def linear_rows(w0, values: dict, triples) -> list[tuple]:
    """(value, reference, ratio) per (m, q, r) along the exactly rotated free wave."""
    L, s = values["grid.L"], values["pde.s"]
    cutoff = values["strichartz.cutoff"]
    interval = values["strichartz.sample_interval"]
    n_samples = int(round(values["strichartz.horizon"] / interval))
    times = interval * np.arange(n_samples + 1)
    kmag = _kmag(w0.grid.n, L)
    safe = np.where(kmag > 0.0, kmag, 1.0)
    smoother = _smoothing_symbol(kmag, cutoff, s)
    u0, v0 = w0.u.coeffs, w0.v.coeffs
    orbit = [np.cos(kmag * t) * u0 + np.where(kmag > 0.0, np.sin(kmag * t) / safe, t) * v0
             for t in times]
    out = []
    for m, q, r in triples:
        symbol = np.where(kmag > 0.0, safe ** (1.0 - m), 0.0) * smoother
        phi = np.array([_power_integral(symbol * u, L, r, 1) ** (1.0 / r) for u in orbit])
        if math.isinf(q):
            value = float(np.max(phi))
        else:
            f = phi ** q
            value = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(times))) ** (1.0 / q)
        reference = math.hypot(_sobolev(u0, L, m), _sobolev(v0, L, m - 1.0))
        out.append((value, reference, value / reference))
    return out


def check_strichartz(values: dict, rows: list[dict]) -> list[Check]:
    seed = min(int(r["seed"]) for r in rows)
    mine = [r for r in rows if int(r["seed"]) == seed and r["phase"] == "linear"]
    triples = [(float(r["m"]), float(r["q"]), float(r["r"])) for r in mine]
    w0 = _data(values, seed)
    checks = check_data(values, seed, w0)
    worst = 0.0
    for row, own in zip(mine, linear_rows(w0, values, triples)):
        worst = max([worst] + [_rel(float(row[c]), o)
                               for c, o in zip(("value", "reference", "ratio"), own)])
    checks.append(Check(f"linear_rows_seed{seed}", worst, VALUE_REL_BOUND))
    params = nlwlab.PdeParams(p=values["pde.p"], s=values["pde.s"])
    checks.append(Check("linear_row_count",
                        float(abs(len(mine) - len(nlwlab.reference_triples(params)))), 0.0))
    return checks


CHECKS = {
    "growth": check_growth,
    "strichartz": check_strichartz,
}
