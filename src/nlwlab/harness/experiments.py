"""Experiment runners: deterministic (seed x sweep) cells plus assertions.

Every experiment follows one shape: build value objects from the resolved
configuration, run one pure cell per seed (optionally in a process pool),
aggregate rows in sorted seed order, then evaluate the configured assertions.
Cells depend only on their arguments, so parallel and serial execution emit
byte-identical records.

The inequality experiments use a calibrate/hold-out protocol: constants are
fitted on the first half of the seed list and boundedness (with headroom) plus
absence of cutoff trend are asserted on the second half.  The growth envelope
is an upper bound in time, so there the split runs along each seed's
checkpoints: the constant is fitted on the early half and the later
checkpoints must stay within headroom of it.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ..data import DataRecipe, perturb, rescale, synthesize
from ..diagnostics import (
    _ratio,
    energy_drift,
    fit_loglog_slope,
    initial_bound_ratios,
    norm_growth_ratio,
    smoothed_energy,
    spacetime_norm,
    spacetime_report,
)
from ..dynamics import (
    StepperConfig,
    WaveState,
    evolve,
    linear_trajectory,
    pair_sobolev_norm,
    pde_residual,
    state_difference,
)
from ..fields import Grid
from ..params import PdeParams, growth_exponents, composite_critical_exponent, \
    reference_triples
from .config import ConfigError, canonical_value, config_hash, seed_list
from .records import schema_tag

WORKERS_ENV = "NLWLAB_WORKERS"


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    config_hash: str
    records: list
    summary: dict
    passed: bool


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if count < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {count}")
    return count


def _run_cells(fn, cells, workers: int) -> list:
    if workers <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    chunk = max(1, len(cells) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells, chunksize=chunk))


def _assertion(name: str, value: float, threshold: float, sense: str) -> dict:
    if sense == "<=":
        passed = value <= threshold
    elif sense == ">=":
        passed = value >= threshold
    else:
        raise ValueError(f"unknown assertion sense {sense!r}")
    return {"name": name, "value": value, "threshold": threshold,
            "sense": sense, "passed": bool(passed)}


def _pde(values: dict) -> PdeParams:
    return PdeParams(p=values["pde.p"], s=values["pde.s"])


def _grid(values: dict) -> Grid:
    return Grid(n=values["grid.n"], L=values["grid.L"], dim=values["grid.dim"])


def _stepper(values: dict) -> StepperConfig:
    return StepperConfig(dt=values["stepper.dt"], p=values["pde.p"],
                         oversample=values["stepper.oversample"])


def _recipe(values: dict, seed: int) -> DataRecipe:
    return DataRecipe(seed=seed, s_target=values["pde.s"],
                      k_min=values["recipe.k_min"], k_max=values["recipe.k_max"],
                      size_hs=values["recipe.size_hs"],
                      window=values["recipe.window"])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _split_half(items, label: str = "seeds") -> tuple[tuple, tuple]:
    """Calibration half and held-out half of an ordered list."""
    half = len(items) // 2
    _require(half >= 1, f"calibrate/hold-out protocol needs at least 2 {label}")
    return tuple(items[:half]), tuple(items[half:])


# ---------------------------------------------------------------------------
# Almost-conservation drift vs cutoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _AclCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    stepper: StepperConfig
    cutoffs: tuple
    horizon: float
    interval: float
    s: float
    p: float


def _acl_cell(cell: _AclCell):
    state = synthesize(cell.recipe, cell.grid)
    traj = evolve(state, cell.horizon, cell.stepper,
                  sample_interval=cell.interval)
    out = []
    for cutoff in cell.cutoffs:
        rep = energy_drift(traj, cutoff, cell.s, cell.p)
        out.append((cutoff, rep.drift, rep.e_sup))
    return cell.seed, out


def _run_acl(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid, stepper = _grid(values), _stepper(values)
    cutoffs = values["acl.cutoffs"]
    _require(len(cutoffs) > 0, "acl.cutoffs must be non-empty")
    seeds = seed_list(values)
    cells = [_AclCell(seed=s, grid=grid, recipe=_recipe(values, s),
                      stepper=stepper, cutoffs=cutoffs,
                      horizon=values["acl.horizon"],
                      interval=values["acl.sample_interval"],
                      s=params.s, p=params.p)
             for s in sorted(seeds)]
    rows, slopes, violations = [], [], 0
    for seed, measured in _run_cells(_acl_cell, cells, workers):
        drifts = [d for (_, d, _) in measured]
        for cutoff, drift, e_sup in measured:
            rows.append({"experiment": "acl", "config_hash": chash,
                         "seed": seed, "cutoff": cutoff, "drift": drift,
                         "e_sup": e_sup})
        slopes.append((seed, fit_loglog_slope(cutoffs, drifts).slope))
        if any(drifts[i + 1] > drifts[i] * (1.0 + 1e-12)
               for i in range(len(drifts) - 1)):
            violations += 1
    median_slope = statistics.median(sl for _, sl in slopes)
    assertions = [
        _assertion("median_drift_slope", median_slope,
                   values["acl.slope_max"], "<="),
        _assertion("drift_monotone_violations", float(violations), 0.0, "<="),
    ]
    fits = {"per_seed_slope": [[s, sl] for s, sl in slopes],
            "median_slope": median_slope}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Smoothed-data bound ratios over an ensemble
# ---------------------------------------------------------------------------

_RATIO_NAMES = ("gradient", "velocity", "potential", "energy")


@dataclass(frozen=True)
class _BoundsCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    cutoffs: tuple
    params: PdeParams


def _bounds_cell(cell: _BoundsCell):
    state = synthesize(cell.recipe, cell.grid)
    out = []
    for cutoff in cell.cutoffs:
        ratios = initial_bound_ratios(state, cutoff, cell.params)
        out.append((cutoff, ratios.gradient, ratios.velocity,
                    ratios.potential, ratios.energy))
    return cell.seed, out


def _run_lemma_a(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid = _grid(values)
    cutoffs = values["bounds.cutoffs"]
    _require(len(cutoffs) > 0, "bounds.cutoffs must be non-empty")
    seeds = seed_list(values)
    cal_seeds, held_seeds = _split_half(sorted(seeds))
    cells = [_BoundsCell(seed=s, grid=grid, recipe=_recipe(values, s),
                         cutoffs=cutoffs, params=params)
             for s in sorted(seeds)]
    rows = []
    per_seed = {}
    for seed, measured in _run_cells(_bounds_cell, cells, workers):
        per_seed[seed] = measured
        for cutoff, g, v, pot, e in measured:
            rows.append({"experiment": "lemma-a", "config_hash": chash,
                         "seed": seed, "cutoff": cutoff, "ratio_gradient": g,
                         "ratio_velocity": v, "ratio_potential": pot,
                         "ratio_energy": e})
    headroom = values["bounds.headroom"]
    trend_max = values["bounds.trend_max"]
    assertions, fits = [], {}
    for idx, name in enumerate(_RATIO_NAMES, start=1):
        cal_max = max(row[idx] for s in cal_seeds for row in per_seed[s])
        held_max = max(row[idx] for s in held_seeds for row in per_seed[s])
        envelope = [max(per_seed[s][j][idx] for s in held_seeds)
                    for j in range(len(cutoffs))]
        trend = fit_loglog_slope(cutoffs, envelope).slope
        assertions.append(_assertion(f"{name}_held_out_bounded", held_max,
                                     headroom * cal_max, "<="))
        assertions.append(_assertion(f"{name}_trend_free", abs(trend),
                                     trend_max, "<="))
        fits[name] = {"calibration_max": cal_max, "held_out_max": held_max,
                      "trend_slope": trend}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Norm-increment bracket ratios over an ensemble
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BracketCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    stepper: StepperConfig
    cutoffs: tuple
    horizon: float
    interval: float
    params: PdeParams


def _bracket_cell(cell: _BracketCell):
    state = synthesize(cell.recipe, cell.grid)
    traj = evolve(state, cell.horizon, cell.stepper,
                  sample_interval=cell.interval)
    out = []
    for cutoff in cell.cutoffs:
        rep = norm_growth_ratio(traj, cell.params, cutoff)
        out.append((cutoff, rep.initial, rep.final, rep.e_sup, rep.z_max,
                    rep.ratio))
    return cell.seed, out


def _run_lemma_b(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid, stepper = _grid(values), _stepper(values)
    cutoffs = values["bracket.cutoffs"]
    _require(len(cutoffs) > 0, "bracket.cutoffs must be non-empty")
    seeds = seed_list(values)
    cal_seeds, held_seeds = _split_half(sorted(seeds))
    cells = [_BracketCell(seed=s, grid=grid, recipe=_recipe(values, s),
                          stepper=stepper, cutoffs=cutoffs,
                          horizon=values["bracket.horizon"],
                          interval=values["bracket.sample_interval"],
                          params=params)
             for s in sorted(seeds)]
    rows = []
    per_seed = {}
    for seed, measured in _run_cells(_bracket_cell, cells, workers):
        per_seed[seed] = measured
        for cutoff, initial, final, e_sup, z_max, ratio in measured:
            rows.append({"experiment": "lemma-b", "config_hash": chash,
                         "seed": seed, "cutoff": cutoff,
                         "initial_norm": initial, "final_norm": final,
                         "e_sup": e_sup, "z_max": z_max, "ratio": ratio})
    cal_max = max(abs(row[5]) for s in cal_seeds for row in per_seed[s])
    held_max = max(abs(row[5]) for s in held_seeds for row in per_seed[s])
    envelope = [max(abs(per_seed[s][j][5]) for s in held_seeds)
                for j in range(len(cutoffs))]
    trend = fit_loglog_slope(cutoffs, envelope).slope
    assertions = [
        _assertion("bracket_ratio_held_out_bounded", held_max,
                   values["bracket.headroom"] * cal_max, "<="),
        _assertion("bracket_ratio_trend_free", abs(trend),
                   values["bracket.trend_max"], "<="),
    ]
    fits = {"calibration_max": cal_max, "held_out_max": held_max,
            "trend_slope": trend}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Norm growth against the power-law envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _GrowthCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    stepper: StepperConfig
    checkpoints: tuple
    interval: float
    s: float
    s_crit: float
    beta: float
    composite: float


def _growth_cell(cell: _GrowthCell):
    state = synthesize(cell.recipe, cell.grid)
    norms_s: list[float] = []
    norms_c: list[float] = []

    def observer(w: WaveState) -> None:
        norms_s.append(pair_sobolev_norm(w, cell.s))
        norms_c.append(pair_sobolev_norm(w, cell.s_crit))

    horizon = cell.checkpoints[-1]
    evolve(state, horizon, cell.stepper, sample_interval=cell.interval,
           keep_states=False, observer=observer)
    sup_s = np.maximum.accumulate(norms_s)
    sup_c = np.maximum.accumulate(norms_c)
    out = []
    for t_i in cell.checkpoints:
        idx = int(round(t_i / cell.interval))
        ratio = float(sup_s[idx]) / (1.0 + t_i ** cell.beta)
        ratio_crit = float(sup_c[idx]) / (1.0 + t_i ** cell.composite)
        out.append((t_i, float(sup_s[idx]), float(sup_c[idx]), ratio,
                    ratio_crit))
    return cell.seed, out


def _run_growth(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid, stepper = _grid(values), _stepper(values)
    checkpoints = values["growth.checkpoints"]
    interval = values["growth.sample_interval"]
    _require(all(b > a for a, b in zip(checkpoints, checkpoints[1:])),
             "growth.checkpoints must be strictly increasing")
    _require(all(abs(round(t / interval) * interval - t) <= 1e-9 * t
                 for t in checkpoints),
             "growth.checkpoints must be multiples of the sample interval")
    cal_idx, held_idx = _split_half(range(len(checkpoints)),
                                    "growth.checkpoints")
    exps = growth_exponents(params)
    composite = composite_critical_exponent(params)
    seeds = seed_list(values)
    cells = [_GrowthCell(seed=s, grid=grid, recipe=_recipe(values, s),
                         stepper=stepper, checkpoints=checkpoints,
                         interval=interval, s=params.s, s_crit=params.s_crit,
                         beta=exps.beta, composite=composite)
             for s in sorted(seeds)]

    def margin(ratios: list) -> float:
        # later checkpoints against the constant fitted on the early ones
        return _ratio(max(ratios[i] for i in held_idx),
                      max(ratios[i] for i in cal_idx))

    rows, spreads, margins, margins_crit = [], [], [], []
    for seed, measured in _run_cells(_growth_cell, cells, workers):
        ratios = [r for (_, _, _, r, _) in measured]
        ratios_crit = [rc for (_, _, _, _, rc) in measured]
        spreads.append((seed, max(ratios) / min(ratios)))
        margins.append((seed, margin(ratios)))
        margins_crit.append((seed, margin(ratios_crit)))
        for t_i, sup_s, sup_c, ratio, ratio_crit in measured:
            rows.append({"experiment": "growth", "config_hash": chash,
                         "seed": seed, "horizon": t_i, "sup_norm_s": sup_s,
                         "sup_norm_crit": sup_c, "ratio": ratio,
                         "ratio_crit": ratio_crit})
    headroom = values["growth.headroom"]
    assertions = [
        _assertion("ratio_held_out_bounded", max(m for _, m in margins),
                   headroom, "<="),
        _assertion("ratio_crit_held_out_bounded",
                   max(m for _, m in margins_crit), headroom, "<="),
    ]
    fits = {"per_seed_margin": [[s, m] for s, m in margins],
            "per_seed_margin_crit": [[s, m] for s, m in margins_crit],
            "per_seed_spread": [[s, sp] for s, sp in spreads],
            "beta": exps.beta, "composite_exponent": composite}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Rescaling exactness and trajectory correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ScalingCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    stepper: StepperConfig
    lambdas: tuple
    horizon: float
    interval: float
    params: PdeParams


def _scaling_cell(cell: _ScalingCell):
    params = cell.params
    w0 = synthesize(cell.recipe, cell.grid)
    base = evolve(w0, cell.horizon, cell.stepper,
                  sample_interval=cell.interval)
    half = evolve(w0, cell.horizon, replace(cell.stepper, dt=cell.stepper.dt / 2),
                  sample_interval=cell.interval, keep_states=False)
    err_cal = pair_sobolev_norm(state_difference(base.final, half.final),
                                params.s_crit)
    residual_base = pde_residual(base.states[1], base.states[2],
                                 base.states[3], cell.stepper.p,
                                 cell.stepper.oversample)
    crit0 = pair_sobolev_norm(w0, params.s_crit)
    norm_s0 = pair_sobolev_norm(w0, params.s)
    out = []
    for lam in cell.lambdas:
        scaled0 = rescale(w0, lam, params)
        crit_gap = abs(pair_sobolev_norm(scaled0, params.s_crit) - crit0) / crit0
        predicted = lam ** (params.s_crit - params.s) * norm_s0
        hs_gap = abs(pair_sobolev_norm(scaled0, params.s) - predicted) / predicted
        scaled = evolve(scaled0, cell.horizon * lam,
                        replace(cell.stepper, dt=cell.stepper.dt * lam),
                        sample_interval=cell.interval * lam)
        correspondence = max(
            pair_sobolev_norm(
                state_difference(rescale(base.states[i], lam, params),
                                 scaled.states[i]),
                params.s_crit)
            for i in range(len(base.states)))
        residual_rescaled = pde_residual(scaled.states[1], scaled.states[2],
                                         scaled.states[3], cell.stepper.p,
                                         cell.stepper.oversample)
        out.append((lam, crit_gap, hs_gap, correspondence, err_cal,
                    residual_base, residual_rescaled))
    return cell.seed, out


def _run_scaling(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid, stepper = _grid(values), _stepper(values)
    lambdas = values["scaling.lambdas"]
    _require(len(lambdas) > 0, "scaling.lambdas must be non-empty")
    seeds = seed_list(values)
    cells = [_ScalingCell(seed=s, grid=grid, recipe=_recipe(values, s),
                          stepper=stepper, lambdas=lambdas,
                          horizon=values["scaling.horizon"],
                          interval=values["scaling.sample_interval"],
                          params=params)
             for s in sorted(seeds)]
    rows = []
    worst_crit = worst_hs = worst_corr = 0.0
    band_lo, band_hi = math.inf, 0.0
    decay = -(1.5 - params.s_crit + 0.5)
    for seed, measured in _run_cells(_scaling_cell, cells, workers):
        for lam, crit_gap, hs_gap, corr, err_cal, res_b, res_r in measured:
            rows.append({"experiment": "scaling", "config_hash": chash,
                         "seed": seed, "lam": lam, "crit_gap_rel": crit_gap,
                         "hs_gap_rel": hs_gap, "correspondence": corr,
                         "calibration_error": err_cal,
                         "residual_base": res_b,
                         "residual_rescaled": res_r})
            worst_crit = max(worst_crit, crit_gap)
            worst_hs = max(worst_hs, hs_gap)
            worst_corr = max(worst_corr, _ratio(corr, err_cal))
            res_ratio = _ratio(res_r, lam ** decay * res_b)
            band_lo = min(band_lo, res_ratio)
            band_hi = max(band_hi, res_ratio)
    band = values["scaling.residual_band"]
    assertions = [
        _assertion("critical_norm_invariance", worst_crit,
                   values["scaling.exact_tol"], "<="),
        _assertion("order_s_norm_scaling", worst_hs,
                   values["scaling.exact_tol"], "<="),
        _assertion("trajectory_correspondence", worst_corr,
                   values["scaling.correspondence_factor"], "<="),
        _assertion("residual_ratio_upper", band_hi, band, "<="),
        _assertion("residual_ratio_lower", band_lo, 1.0 / band, ">="),
    ]
    fits = {"worst_correspondence_factor": worst_corr,
            "residual_ratio_range": [band_lo, band_hi]}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Continuity of the data-to-solution map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ContinuityCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    stepper: StepperConfig
    eps: tuple
    t_star: float
    bump_seed: int
    params: PdeParams


def _continuity_cell(cell: _ContinuityCell):
    w0 = synthesize(cell.recipe, cell.grid)
    base_final = evolve(w0, cell.t_star, cell.stepper,
                        sample_interval=cell.t_star, keep_states=False).final
    out = []
    for eps in cell.eps:
        bumped = perturb(w0, eps, cell.bump_seed + cell.seed, cell.params,
                         template=cell.recipe)
        final = evolve(bumped, cell.t_star, cell.stepper,
                       sample_interval=cell.t_star, keep_states=False).final
        distance = pair_sobolev_norm(state_difference(final, base_final),
                                     cell.params.s_crit)
        out.append((eps, distance))
    return cell.seed, out


def _run_continuity(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid, stepper = _grid(values), _stepper(values)
    eps = values["continuity.eps"]
    _require(len(eps) >= 3, "continuity.eps needs at least 3 values")
    _require(all(b < a for a, b in zip(eps, eps[1:])),
             "continuity.eps must be strictly decreasing")
    seeds = seed_list(values)
    cells = [_ContinuityCell(seed=s, grid=grid, recipe=_recipe(values, s),
                             stepper=stepper, eps=eps,
                             t_star=values["continuity.t_star"],
                             bump_seed=values["continuity.bump_seed"],
                             params=params)
             for s in sorted(seeds)]
    rows, slopes, violations = [], [], 0
    for seed, measured in _run_cells(_continuity_cell, cells, workers):
        distances = [d for (_, d) in measured]
        for e, d in measured:
            rows.append({"experiment": "continuity", "config_hash": chash,
                         "seed": seed, "eps": e, "distance": d})
        if any(distances[i + 1] > distances[i] * (1.0 + 1e-12)
               for i in range(len(distances) - 1)):
            violations += 1
        slopes.append((seed, fit_loglog_slope(eps, distances).slope))
    median_slope = statistics.median(sl for _, sl in slopes)
    assertions = [
        _assertion("distance_monotone_violations", float(violations), 0.0, "<="),
        _assertion("median_distance_slope", median_slope,
                   values["continuity.slope_min"], ">="),
    ]
    fits = {"per_seed_slope": [[s, sl] for s, sl in slopes],
            "median_slope": median_slope}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Linear space-time ratios and the short-interval z bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _StrichartzCell:
    seed: int
    grid: Grid
    recipe: DataRecipe
    stepper: StepperConfig
    params: PdeParams
    cutoff: float
    horizon: float
    interval: float
    tau: float
    zb_cutoff: float
    zb_interval: float
    energy_target: float


def _amplitude_for_energy(quad: float, pot: float, p: float, target: float) -> float:
    """Solve c^2 quad + c^(p+1) pot = target for c > 0 (monotone bisection)."""
    if quad <= 0.0 and pot <= 0.0:
        raise ValueError("cannot rescale a zero-energy state to a target")

    def f(c: float) -> float:
        return c * c * quad + c ** (p + 1.0) * pot

    hi = 1.0
    for _ in range(200):
        if f(hi) >= target:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _strichartz_cell(cell: _StrichartzCell):
    params = cell.params
    w0 = synthesize(cell.recipe, cell.grid)
    ltraj = linear_trajectory(w0, cell.horizon, cell.interval)
    linear_rows = []
    for triple in reference_triples(params):
        z_value = spacetime_norm(ltraj, triple, params, cell.cutoff)
        data_norm = pair_sobolev_norm(w0, triple.m)
        linear_rows.append((triple.m, triple.q, triple.r, z_value, data_norm,
                            _ratio(z_value, data_norm)))
    breakdown = smoothed_energy(w0, cell.zb_cutoff, params.s, params.p)
    amp = _amplitude_for_energy(breakdown.kinetic + breakdown.gradient,
                                breakdown.potential, params.p,
                                cell.energy_target)
    small = WaveState(u=w0.u * amp, v=w0.v * amp, t=0.0)
    ztraj = evolve(small, cell.tau, cell.stepper,
                   sample_interval=cell.zb_interval)
    z_max = spacetime_report(ztraj, params, cell.zb_cutoff).z_max
    e_sup = energy_drift(ztraj, cell.zb_cutoff, params.s, params.p).e_sup
    return cell.seed, linear_rows, (z_max, e_sup)


def _run_strichartz(values: dict, workers: int, chash: str):
    params = _pde(values)
    grid, stepper = _grid(values), _stepper(values)
    seeds = seed_list(values)
    cal_seeds, held_seeds = _split_half(sorted(seeds))
    cells = [_StrichartzCell(seed=s, grid=grid, recipe=_recipe(values, s),
                             stepper=stepper, params=params,
                             cutoff=values["strichartz.cutoff"],
                             horizon=values["strichartz.horizon"],
                             interval=values["strichartz.sample_interval"],
                             tau=values["zbound.tau"],
                             zb_cutoff=values["zbound.cutoff"],
                             zb_interval=values["zbound.sample_interval"],
                             energy_target=values["zbound.energy_target"])
             for s in sorted(seeds)]
    rows = []
    linear_by_seed, zbound_by_seed = {}, {}
    for seed, linear_rows, zbound in _run_cells(_strichartz_cell, cells, workers):
        linear_by_seed[seed] = linear_rows
        zbound_by_seed[seed] = zbound
        for m, q, r, z_value, data_norm, ratio in linear_rows:
            rows.append({"experiment": "strichartz", "config_hash": chash,
                         "seed": seed, "phase": "linear", "m": m, "q": q,
                         "r": r, "value": z_value, "reference": data_norm,
                         "ratio": ratio})
        rows.append({"experiment": "strichartz", "config_hash": chash,
                     "seed": seed, "phase": "zbound", "m": "", "q": "",
                     "r": "", "value": zbound[0], "reference": zbound[1],
                     "ratio": ""})
    headroom = values["strichartz.headroom"]
    assertions, fits = [], {}
    n_triples = len(reference_triples(params))
    for j in range(n_triples):
        cal_max = max(linear_by_seed[s][j][5] for s in cal_seeds)
        held_max = max(linear_by_seed[s][j][5] for s in held_seeds)
        assertions.append(_assertion(f"linear_ratio_triple_{j}_bounded",
                                     held_max, headroom * cal_max, "<="))
        fits[f"triple_{j}"] = {"calibration_max": cal_max,
                               "held_out_max": held_max}
    z_cal = max(zbound_by_seed[s][0] for s in cal_seeds)
    z_held = max(zbound_by_seed[s][0] for s in held_seeds)
    e_worst = max(zbound_by_seed[s][1] for s in seeds)
    assertions.append(_assertion("zbound_held_out_bounded", z_held,
                                 headroom * z_cal, "<="))
    assertions.append(_assertion("zbound_energy_cap", e_worst,
                                 values["zbound.energy_cap"], "<="))
    fits["zbound"] = {"calibration_max": z_cal, "held_out_max": z_held,
                      "energy_sup": e_worst}
    return rows, assertions, fits, seeds


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "acl": _run_acl,
    "lemma-a": _run_lemma_a,
    "lemma-b": _run_lemma_b,
    "growth": _run_growth,
    "scaling": _run_scaling,
    "continuity": _run_continuity,
    "strichartz": _run_strichartz,
}


def run_experiment(experiment: str, values: dict,
                   workers: int | None = None) -> ExperimentResult:
    """Run one experiment from resolved config values; pure and deterministic
    up to the wall-clock duration recorded in the summary."""
    if experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    t0 = time.time()
    chash = config_hash(experiment, values)
    workers = worker_count() if workers is None else workers
    rows, assertions, fits, seeds = _RUNNERS[experiment](values, workers, chash)
    passed = all(a["passed"] for a in assertions)
    summary = {
        "experiment": experiment,
        "schema": schema_tag(experiment),
        "config_hash": chash,
        "config": {k: canonical_value(v) for k, v in values.items()},
        "seeds": list(seeds),
        "assertions": assertions,
        "fits": fits,
        "passed": passed,
        "duration_seconds": round(time.time() - t0, 3),
    }
    return ExperimentResult(experiment=experiment, config_hash=chash,
                            records=rows, summary=summary, passed=passed)
