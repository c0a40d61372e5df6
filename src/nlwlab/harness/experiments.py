"""Experiment runners: one table, `_TABLE`, of (cell, judge) pairs and one runner.

A cell, `cell(values, seed)`, builds its grid, stepper, recipe and PDE
parameters with the `config` builders that `build_config` checks, and returns
one tuple per CSV row, in
`records.SCHEMAS` order after the (experiment, config_hash, seed) prefix.
Cells depend only on their arguments, so serial and parallel runs emit
byte-identical records.  `_records` names each tuple's values by that schema,
the one holder of column order, and the CSV and the judges read them by
name.  A judge, `judge(values, measured)`, takes every cell's rows as
{seed: rows} in sorted seed order, each row a {column: value} dict, from a
config that `build_config` has checked, and returns the summary's assertions
and fits.
Judges share `_held_out`, the calibrate/hold-out protocol (a constant fitted
on the first half of the sorted seeds bounds the second half with headroom),
`_trend`, which adds that the held-out envelope has no cutoff trend, and
`_slopes`, monotonicity and the median log-log slope.  The growth envelope,
an upper bound in time, splits along each seed's checkpoints instead.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from ..data import perturb, rescale, synthesize
from ..diagnostics import OrbitMeter, _ratio, fit_loglog_slope, \
    initial_bound_ratios, smoothed_energy
from ..dynamics import WaveState, evolve, linear_trajectory, pair_sobolev_norm, \
    pde_residual, state_difference
from ..params import growth_exponents, composite_critical_exponent, \
    reference_triples
from .config import ConfigError, _grid, _pde, _recipe, _stepper, \
    config_hash, seed_list
from .records import SCHEMAS, canonical_value, schema_tag

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
    # imported here: serial runs do not pay for the multiprocessing machinery
    from concurrent.futures import ProcessPoolExecutor
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


def _split_half(items) -> tuple[tuple, tuple]:
    """Calibration half and held-out half of an ordered list."""
    half = len(items) // 2
    return tuple(items[:half]), tuple(items[half:])


def _held_out(name: str, per_seed: dict, split: tuple, headroom: float):
    """Held-out seeds' largest value against headroom x the calibration seeds'."""
    cal, held = (max(v for s in half for v in per_seed[s]) for half in split)
    return (_assertion(name, held, headroom * cal, "<="),
            {"calibration_max": cal, "held_out_max": held})


def _trend(prefix: str, cutoffs, per_seed: dict, split: tuple,
           headroom: float, trend_max: float):
    """`_held_out` on per-seed values along the cutoffs, plus the assertion
    that the held-out seeds' envelope has a log-log slope within trend_max."""
    bounded, fit = _held_out(f"{prefix}_held_out_bounded", per_seed, split,
                             headroom)
    envelope = [max(per_seed[s][j] for s in split[1])
                for j in range(len(cutoffs))]
    fit["trend_slope"] = fit_loglog_slope(cutoffs, envelope).slope
    return [bounded, _assertion(f"{prefix}_trend_free", abs(fit["trend_slope"]),
                                trend_max, "<=")], fit


def _slopes(name: str, xs, per_seed: dict):
    """The assertion that no seed's values rise anywhere along xs, and the
    per-seed and median log-log slopes of value against xs."""
    violations = sum(any(b > a * (1.0 + 1e-12) for a, b in zip(ys, ys[1:]))
                     for ys in per_seed.values())
    slopes = [[s, fit_loglog_slope(xs, ys).slope] for s, ys in per_seed.items()]
    median = statistics.median(sl for _, sl in slopes)
    return (_assertion(name, float(violations), 0.0, "<="),
            {"per_seed_slope": slopes, "median_slope": median})


# Almost-conservation drift vs cutoff
def _acl_cell(values: dict, seed: int) -> list:
    params, stepper = _pde(values), _stepper(values)
    meter = OrbitMeter(values["acl.cutoffs"], params.s, params.p, energies=True,
                       oversample=stepper.oversample)
    evolve(synthesize(_recipe(values, seed), _grid(values)), values["acl.horizon"],
           stepper, sample_interval=values["acl.sample_interval"],
           keep_states=False, observer=meter)
    out = []
    for cutoff in values["acl.cutoffs"]:
        rep = meter.energy_drift(cutoff)
        out.append((cutoff, rep.drift, rep.e_sup))
    return out


def _judge_acl(values: dict, measured: dict):
    drifts = {s: [row["drift"] for row in rows] for s, rows in measured.items()}
    monotone, fits = _slopes("drift_monotone_violations", values["acl.cutoffs"],
                             drifts)
    return [_assertion("median_drift_slope", fits["median_slope"],
                       values["acl.slope_max"], "<="), monotone], fits


# Smoothed-data bound ratios over an ensemble
def _lemma_a_cell(values: dict, seed: int) -> list:
    params = _pde(values)
    cutoffs = values["bounds.cutoffs"]
    ladder = initial_bound_ratios(synthesize(_recipe(values, seed), _grid(values)),
                                  cutoffs, params)
    return [(cutoff, ratios.gradient, ratios.velocity, ratios.potential,
             ratios.energy) for cutoff, ratios in zip(cutoffs, ladder)]


def _judge_lemma_a(values: dict, measured: dict):
    cutoffs = values["bounds.cutoffs"]
    split = _split_half(tuple(measured))
    assertions, fits = [], {}
    for name in ("gradient", "velocity", "potential", "energy"):
        column = {s: [row[f"ratio_{name}"] for row in rows]
                  for s, rows in measured.items()}
        checks, fits[name] = _trend(name, cutoffs, column, split,
                                    values["bounds.headroom"],
                                    values["bounds.trend_max"])
        assertions += checks
    return assertions, fits


# Norm-increment bracket ratios over an ensemble
def _lemma_b_cell(values: dict, seed: int) -> list:
    params, stepper = _pde(values), _stepper(values)
    meter = OrbitMeter(values["bracket.cutoffs"], params.s, params.p,
                       reference_triples(params), energies=True,
                       oversample=stepper.oversample)
    data = [synthesize(_recipe(values, seed), _grid(values))]
    initial = pair_sobolev_norm(data[0], params.s)
    # popped into the call, so the run can let go of its input
    traj = evolve(data.pop(), values["bracket.horizon"], stepper,
                  sample_interval=values["bracket.sample_interval"],
                  keep_states=False, observer=meter)
    final = pair_sobolev_norm(traj.final, params.s)
    out = []
    for cutoff in values["bracket.cutoffs"]:
        rep = meter.norm_growth_ratio(cutoff, initial, final)
        out.append((cutoff, rep.initial, rep.final, rep.e_sup, rep.z_max,
                    rep.ratio))
    return out


def _judge_lemma_b(values: dict, measured: dict):
    column = {s: [abs(row["ratio"]) for row in rows] for s, rows in measured.items()}
    return _trend("bracket_ratio", values["bracket.cutoffs"], column,
                  _split_half(tuple(measured)),
                  values["bracket.headroom"], values["bracket.trend_max"])


# Norm growth against the power-law envelope
def _growth_cell(values: dict, seed: int) -> list:
    params = _pde(values)
    beta = growth_exponents(params).beta
    composite = composite_critical_exponent(params)
    checkpoints = values["growth.checkpoints"]
    interval = values["growth.sample_interval"]
    norms_s: list[float] = []
    norms_c: list[float] = []

    def observer(w: WaveState) -> None:
        norms_s.append(pair_sobolev_norm(w, params.s))
        norms_c.append(pair_sobolev_norm(w, params.s_crit))

    evolve(synthesize(_recipe(values, seed), _grid(values)), checkpoints[-1],
           _stepper(values), sample_interval=interval, keep_states=False,
           observer=observer)
    sup_s = np.maximum.accumulate(norms_s)
    sup_c = np.maximum.accumulate(norms_c)
    out = []
    for t_i in checkpoints:
        idx = int(round(t_i / interval))
        ratio = float(sup_s[idx]) / (1.0 + t_i ** beta)
        ratio_crit = float(sup_c[idx]) / (1.0 + t_i ** composite)
        out.append((t_i, float(sup_s[idx]), float(sup_c[idx]), ratio,
                    ratio_crit))
    return out


def _judge_growth(values: dict, measured: dict):
    cal_idx, held_idx = _split_half(range(len(values["growth.checkpoints"])))

    def margin(ratios: list) -> float:
        # later checkpoints against the constant fitted on the early ones
        return _ratio(max(ratios[i] for i in held_idx),
                      max(ratios[i] for i in cal_idx))

    ratios = {s: [row["ratio"] for row in rows] for s, rows in measured.items()}
    crit = {s: [row["ratio_crit"] for row in rows] for s, rows in measured.items()}
    params = _pde(values)
    fits = {"per_seed_margin": [[s, margin(r)] for s, r in ratios.items()],
            "per_seed_margin_crit": [[s, margin(r)] for s, r in crit.items()],
            "per_seed_spread": [[s, max(r) / min(r)] for s, r in ratios.items()],
            "beta": growth_exponents(params).beta,
            "composite_exponent": composite_critical_exponent(params)}
    assertions = [_assertion(f"{name}_held_out_bounded",
                             max(m for _, m in fits[key]),
                             values["growth.headroom"], "<=")
                  for name, key in (("ratio", "per_seed_margin"),
                                    ("ratio_crit", "per_seed_margin_crit"))]
    return assertions, fits


# Rescaling exactness and trajectory correspondence
def _scaling_cell(values: dict, seed: int) -> list:
    params = _pde(values)
    stepper = _stepper(values)
    horizon = values["scaling.horizon"]
    interval = values["scaling.sample_interval"]

    def residual(traj) -> float:
        s = traj.states
        return pde_residual(s[1], s[2], s[3], stepper.p, stepper.oversample)

    w0 = synthesize(_recipe(values, seed), _grid(values))
    base = evolve(w0, horizon, stepper, sample_interval=interval)
    half = evolve(w0, horizon, replace(stepper, dt=stepper.dt / 2),
                  sample_interval=interval, keep_states=False)
    err_cal = pair_sobolev_norm(state_difference(base.final, half.final),
                                params.s_crit)
    residual_base = residual(base)
    crit0 = pair_sobolev_norm(w0, params.s_crit)
    norm_s0 = pair_sobolev_norm(w0, params.s)
    out = []
    for lam in values["scaling.lambdas"]:
        scaled0 = rescale(w0, lam, params)
        crit_gap = abs(pair_sobolev_norm(scaled0, params.s_crit) - crit0) / crit0
        predicted = lam ** (params.s_crit - params.s) * norm_s0
        hs_gap = abs(pair_sobolev_norm(scaled0, params.s) - predicted) / predicted
        # rescale by 1 is the identity bit for bit, so that run is the base run
        scaled = base if lam == 1.0 else evolve(
            scaled0, horizon * lam, replace(stepper, dt=stepper.dt * lam),
            sample_interval=interval * lam)
        correspondence = max(
            pair_sobolev_norm(
                state_difference(rescale(base.states[i], lam, params),
                                 scaled.states[i]),
                params.s_crit)
            for i in range(len(base.states)))
        out.append((lam, crit_gap, hs_gap, correspondence, err_cal,
                    residual_base, residual(scaled)))
    return out


def _judge_scaling(values: dict, measured: dict):
    decay = -(1.5 - _pde(values).s_crit + 0.5)
    worst_crit = worst_hs = worst_corr = 0.0
    band_lo, band_hi = math.inf, 0.0
    for rows in measured.values():
        for row in rows:
            worst_crit = max(worst_crit, row["crit_gap_rel"])
            worst_hs = max(worst_hs, row["hs_gap_rel"])
            worst_corr = max(worst_corr, _ratio(row["correspondence"],
                                                row["calibration_error"]))
            res_ratio = _ratio(row["residual_rescaled"],
                               row["lam"] ** decay * row["residual_base"])
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
    return assertions, fits


# Continuity of the data-to-solution map
def _continuity_cell(values: dict, seed: int) -> list:
    params = _pde(values)
    recipe, stepper = _recipe(values, seed), _stepper(values)
    t_star = values["continuity.t_star"]
    w0 = synthesize(recipe, _grid(values))
    base_final = evolve(w0, t_star, stepper, sample_interval=t_star,
                        keep_states=False).final
    out = []
    for eps in values["continuity.eps"]:
        bumped = perturb(w0, eps, values["continuity.bump_seed"] + seed, params,
                         template=recipe)
        final = evolve(bumped, t_star, stepper, sample_interval=t_star,
                       keep_states=False).final
        distance = pair_sobolev_norm(state_difference(final, base_final),
                                     params.s_crit)
        out.append((eps, distance))
    return out


def _judge_continuity(values: dict, measured: dict):
    distances = {s: [row["distance"] for row in rows] for s, rows in measured.items()}
    monotone, fits = _slopes("distance_monotone_violations",
                             values["continuity.eps"], distances)
    return [monotone, _assertion("median_distance_slope", fits["median_slope"],
                                 values["continuity.slope_min"], ">=")], fits


# Linear space-time ratios and the short-interval z bound
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


def _strichartz_cell(values: dict, seed: int) -> list:
    """A linear row per reference triple, then a zbound row (m, q, r, ratio blank).

    The data norms, the zbound energy and the zbound run are measured first,
    so the data are handed to the linear orbit as its only reference and are
    let go of once its next sample is built.
    """
    params = _pde(values)
    triples = reference_triples(params)
    data = [synthesize(_recipe(values, seed), _grid(values))]
    data_norms = [pair_sobolev_norm(data[0], triple.m) for triple in triples]
    zb_cutoff, stepper = values["zbound.cutoff"], _stepper(values)
    breakdown = smoothed_energy(data[0], zb_cutoff, params.s, params.p, stepper.oversample)
    amp = _amplitude_for_energy(breakdown.kinetic + breakdown.gradient,
                                breakdown.potential, params.p,
                                values["zbound.energy_target"])
    small = [WaveState(u=data[0].u * amp, v=data[0].v * amp, t=0.0)]
    zmeter = OrbitMeter((zb_cutoff,), params.s, params.p, triples, energies=True,
                        oversample=stepper.oversample)
    # each input is popped into its call, so the run can let go of it
    evolve(small.pop(), values["zbound.tau"], stepper,
           sample_interval=values["zbound.sample_interval"], keep_states=False,
           observer=zmeter)
    cutoff = values["strichartz.cutoff"]
    meter = OrbitMeter((cutoff,), params.s, params.p, triples)
    linear_trajectory(data.pop(), values["strichartz.horizon"],
                      values["strichartz.sample_interval"], keep_states=False,
                      observer=meter)
    out = []
    for triple, data_norm in zip(triples, data_norms):
        z_value = meter.spacetime_norm(triple, cutoff)
        out.append(("linear", triple.m, triple.q, triple.r, z_value, data_norm,
                    _ratio(z_value, data_norm)))
    out.append(("zbound", "", "", "", zmeter.spacetime_report(zb_cutoff).z_max,
                zmeter.energy_drift(zb_cutoff).e_sup, ""))
    return out


def _judge_strichartz(values: dict, measured: dict):
    split = _split_half(tuple(measured))
    headroom = values["strichartz.headroom"]
    assertions, fits = [], {}
    for j in range(len(reference_triples(_pde(values)))):
        ratios = {s: [rows[j]["ratio"]] for s, rows in measured.items()}
        bounded, fits[f"triple_{j}"] = _held_out(
            f"linear_ratio_triple_{j}_bounded", ratios, split, headroom)
        assertions.append(bounded)
    z_max = {s: [rows[-1]["value"]] for s, rows in measured.items()}
    bounded, fits["zbound"] = _held_out("zbound_held_out_bounded", z_max, split,
                                        headroom)
    e_worst = max(rows[-1]["reference"] for rows in measured.values())
    fits["zbound"]["energy_sup"] = e_worst
    assertions += [bounded, _assertion("zbound_energy_cap", e_worst,
                                       values["zbound.energy_cap"], "<=")]
    return assertions, fits


_TABLE = {
    "acl": (_acl_cell, _judge_acl),
    "lemma-a": (_lemma_a_cell, _judge_lemma_a),
    "lemma-b": (_lemma_b_cell, _judge_lemma_b),
    "growth": (_growth_cell, _judge_growth),
    "scaling": (_scaling_cell, _judge_scaling),
    "continuity": (_continuity_cell, _judge_continuity),
    "strichartz": (_strichartz_cell, _judge_strichartz),
}


def _records(experiment: str, digest: str, seeds: tuple, results: list) -> dict:
    """Each seed's rows as {column: value} dicts: `records.SCHEMAS` names the
    (experiment, config_hash, seed) prefix and then the cell's tuple, value
    by value; a tuple of the wrong length raises ValueError."""
    columns = SCHEMAS[experiment]
    return {seed: [dict(zip(columns, (experiment, digest, seed) + tup, strict=True))
                   for tup in tuples]
            for seed, tuples in zip(seeds, results)}


def run_experiment(experiment: str, values: dict,
                   workers: int | None = None) -> ExperimentResult:
    """Run one experiment from resolved config values; pure and deterministic
    up to the wall-clock duration recorded in the summary."""
    if experiment not in _TABLE:
        raise ConfigError(f"unknown experiment {experiment!r}")
    t0 = time.time()
    digest = config_hash(experiment, values)
    workers = worker_count() if workers is None else workers
    cell, judge = _TABLE[experiment]
    seeds = seed_list(values)
    ordered = tuple(sorted(seeds))
    results = _run_cells(functools.partial(cell, values), ordered, workers)
    measured = _records(experiment, digest, ordered, results)
    rows = [row for seed_rows in measured.values() for row in seed_rows]
    assertions, fits = judge(values, measured)
    passed = all(a["passed"] for a in assertions)
    summary = {
        "experiment": experiment,
        "schema": schema_tag(experiment),
        "config_hash": digest,
        "config": {k: canonical_value(v) for k, v in values.items()},
        "seeds": list(seeds),
        "assertions": assertions,
        "fits": fits,
        "passed": passed,
        "duration_seconds": round(time.time() - t0, 3),
    }
    return ExperimentResult(experiment=experiment, config_hash=digest,
                            records=rows, summary=summary, passed=passed)
