"""Release gate: eleven end-to-end checks, one printed verdict line each.

Each test emits a single [PASS]/[FAIL] line outside pytest's capture
before asserting, so any pytest invocation of this file reads as a live
checklist.  The heavy checks drive the experiment harness at its default
configuration; the light ones call the library directly.  Expected wall
time on one core is a few minutes, dominated by the ensemble and
long-horizon runs.
"""

import math

import numpy as np
import pytest

from nlwlab.params import (
    IndeterminateThresholdError,
    PdeParams,
    critical_regularity,
    regularity_threshold,
    threshold_condition,
)
from nlwlab.fields import (
    Grid,
    apply_multiplier,
    frequency_split,
    from_coeffs,
    low_pass,
    power_multiplier,
    smoothing_multiplier,
    sobolev_norm,
    to_physical,
)
from nlwlab.dynamics import (
    StepperConfig,
    evolve,
    pair_sobolev_norm,
    pde_residual,
    state_difference,
    true_energy,
)
from nlwlab.data import DataRecipe, rescale, synthesize
from nlwlab.harness.config import build_config
from nlwlab.harness.experiments import run_experiment
from nlwlab.harness.records import rows_to_csv_text

P4 = PdeParams(p=4.0, s=0.95)
G3 = Grid(n=32, L=32.0, dim=3)
RECIPE = DataRecipe(seed=0, s_target=0.95, k_min=0.19, k_max=4.7,
                    size_hs=10.0)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_capture(capfd):
    # let _report punch through fd-level capture for its one verdict line
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(tag, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with _CAPTURE.disabled():
        print(f"[{verdict}] {tag}: {detail}", flush=True)
    return ok


def _random_field(grid, seed, decay=0.0):
    rng = np.random.default_rng(seed)
    shape = (grid.n,) * grid.dim
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    field = from_coeffs(grid, coeffs)
    if decay:
        field = apply_multiplier(field, power_multiplier(-decay))
    return field


def _experiment(name, overrides=None, workers=1):
    values = build_config(name, overrides=overrides)
    return run_experiment(name, values, workers=workers)


def _assertion_map(result):
    return {a["name"]: a for a in result.summary["assertions"]}


def test_01_spectral_exactness():
    # Parseval, multiplier composition, smoothing band identity, split
    # reconstruction, rescaling group law; everything here is algebraically
    # exact, so the gates sit at 1e-10 .. 1e-12.
    worst = 0.0

    for seed in range(20):
        f = _random_field(G3, seed)
        u = to_physical(f)
        l2_phys = math.sqrt(np.mean(np.abs(u) ** 2) * G3.L ** G3.dim)
        worst = max(worst, abs(sobolev_norm(f, 0.0) - l2_phys) / l2_phys)
    parseval_ok = worst < 1e-12

    comp_worst = 0.0
    for seed in range(20, 40):
        f = _random_field(G3, seed)
        once = apply_multiplier(apply_multiplier(f, power_multiplier(0.7)),
                                power_multiplier(-0.3))
        direct = apply_multiplier(f, power_multiplier(0.4))
        scale = np.max(np.abs(direct.coeffs))
        comp_worst = max(comp_worst,
                         np.max(np.abs(once.coeffs - direct.coeffs)) / scale)
    composition_ok = comp_worst < 1e-10

    band_worst = 0.0
    for cutoff in (2.0, 4.0, 8.0):
        f = apply_multiplier(_random_field(G3, 77), low_pass(cutoff))
        g = apply_multiplier(f, smoothing_multiplier(cutoff, P4.s))
        band_worst = max(band_worst, float(np.max(np.abs(g.coeffs - f.coeffs))))
    band_ok = band_worst <= 1e-12

    split_worst = 0.0
    for seed in range(40, 60):
        f = _random_field(G3, seed)
        low, high = frequency_split(f, 4.0)
        delta = np.max(np.abs((low.coeffs + high.coeffs) - f.coeffs))
        split_worst = max(split_worst, delta / np.max(np.abs(f.coeffs)))
    split_ok = split_worst <= 1e-12

    state = synthesize(RECIPE, G3)
    twice = rescale(rescale(state, 2.0, P4), 4.0, P4)
    once = rescale(state, 8.0, P4)
    scale = np.max(np.abs(once.u.coeffs))
    group_worst = max(np.max(np.abs(twice.u.coeffs - once.u.coeffs)),
                      np.max(np.abs(twice.v.coeffs - once.v.coeffs))) / scale
    group_ok = group_worst < 1e-12 and twice.u.grid == once.u.grid

    ok = (parseval_ok and composition_ok and band_ok and split_ok
          and group_ok)
    detail = (f"parseval={worst:.2e} composition={comp_worst:.2e} "
              f"band={band_worst:.2e} split={split_worst:.2e} "
              f"group={group_worst:.2e}")
    assert _report("01 spectral exactness", ok, detail), detail


def test_02_threshold_algebra():
    # the rate inequality and the closed-form threshold must agree on every
    # sample outside the 1e-12 boundary band, and the threshold must sit
    # above its three closed-form lower bounds
    rng = np.random.default_rng(20240816)
    checked = 0
    disagreements = 0
    while checked < 10_000:
        p = rng.uniform(11.0 / 3.0 + 1e-9, 5.0 - 1e-9)
        sc = critical_regularity(p)
        s = rng.uniform(sc + 1e-9, 1.0 - 1e-9)
        s0 = regularity_threshold(p)
        if abs(s - s0) <= 1e-12:
            continue
        checked += 1
        try:
            if threshold_condition(s, p) is not (s > s0):
                disagreements += 1
        except IndeterminateThresholdError:
            disagreements += 1

    bound_failures = 0
    for p in rng.uniform(11.0 / 3.0 + 1e-9, 5.0 - 1e-9, size=1000):
        s0 = regularity_threshold(p)
        bounds = ((3 * p - 7) / (2 * (p - 1)), (p - 3) / 2,
                  (3 * p - 5) / (2 * p))
        if s0 < max(bounds) - 1e-12:
            bound_failures += 1

    ok = disagreements == 0 and bound_failures == 0
    detail = (f"agreement 10000/10000 with {disagreements} disagreements, "
              f"lower bounds 1000/1000 with {bound_failures} failures")
    assert _report("02 threshold algebra", ok, detail), detail


def test_03_solver_certification():
    # three certificates on the same default data: quadratic
    # self-convergence, conserved-energy drift, and residual refinement
    stepper = StepperConfig(dt=1.0 / 32.0, p=4.0)
    state = synthesize(RECIPE, G3)

    finals = []
    for dt in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        run = evolve(state, 1.0, StepperConfig(dt=dt, p=4.0),
                     sample_interval=1.0, keep_states=False)
        finals.append(run.final)
    e1 = pair_sobolev_norm(state_difference(finals[0], finals[1]), P4.s_crit)
    e2 = pair_sobolev_norm(state_difference(finals[1], finals[2]), P4.s_crit)
    order = math.log2(e1 / e2)
    order_ok = 1.8 <= order <= 2.2

    cert = evolve(state, 8.0, StepperConfig(dt=2.0 ** -8, p=4.0),
                  sample_interval=0.5)
    energies = np.array([true_energy(s, 4.0) for s in cert.states])
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    drift_ok = drift < 1e-4

    residuals = []
    for dt in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        run = evolve(state, 4.0 * dt, StepperConfig(dt=dt, p=4.0),
                     sample_interval=dt)
        residuals.append(pde_residual(run.states[1], run.states[2],
                                      run.states[3], 4.0, stepper.oversample))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    residual_ok = 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8

    ok = order_ok and drift_ok and residual_ok
    detail = (f"order={order:.4f} in [1.8,2.2], energy drift={drift:.3e} "
              f"< 1e-4 (T=8, dt=2^-8), residual ratios {r1:.3f}/{r2:.3f} "
              f"in [3.2,4.8]")
    assert _report("03 solver certification", ok, detail), detail


def test_04_energy_drift_decay():
    # smoothed-energy drift must fall at least like cutoff^-0.2 in the
    # median and be monotone in the cutoff on every seed
    result = _experiment("acl")
    checks = _assertion_map(result)
    slope = checks["median_drift_slope"]
    mono = checks["drift_monotone_violations"]
    detail = (f"median drift slope {slope['value']:.3f} <= "
              f"{slope['threshold']} with {int(mono['value'])} monotonicity "
              f"violations across {len(result.summary['seeds'])} seeds")
    assert _report("04 smoothed-energy drift decay", result.passed,
                   detail), detail


def test_05_initial_bound_ratios():
    # 1000-seed ensemble: measured/predicted stays within 1.5x of the
    # calibration half on held-out seeds, with no cutoff trend
    result = _experiment("lemma-a")
    fits = result.summary["fits"]
    margins = {name: fits[name]["held_out_max"] / fits[name]["calibration_max"]
               for name in fits}
    worst_name = max(margins, key=margins.get)
    trends = max(abs(fits[name]["trend_slope"]) for name in fits)
    detail = (f"1000 seeds, worst held-out/calibration margin "
              f"{margins[worst_name]:.3f} ({worst_name}) vs 1.5 headroom, "
              f"max |trend| {trends:.4f} < 0.05")
    assert _report("05 initial bound ratios", result.passed, detail), detail


def test_06_rescaling_consistency():
    # critical-norm invariance and order-s scaling exact to 1e-10 at t=0;
    # rescaled trajectories match within 5x the solver's own error
    result = _experiment("scaling")
    checks = _assertion_map(result)
    crit = checks["critical_norm_invariance"]["value"]
    hs = checks["order_s_norm_scaling"]["value"]
    corr = checks["trajectory_correspondence"]["value"]
    cap = checks["trajectory_correspondence"]["threshold"]
    detail = (f"critical gap {crit:.2e} <= 1e-10, order-s gap {hs:.2e} "
              f"<= 1e-10, correspondence {corr:.2e} <= {cap:.2e} "
              f"(5x calibration)")
    assert _report("06 rescaling consistency", result.passed, detail), detail


def test_07_growth_envelope():
    # sup-norm against the upper envelopes (1 + T^beta) and (1 + T^composite)
    # across checkpoints T in {1..16}: per seed, the constant is fitted on
    # the early checkpoints and every later ratio must stay within 1.5x of
    # it.  The bound is an upper one; energy conservation keeps the sup norm
    # near flat, so the ratio falls and the margin is wide.  The spread
    # max/min of the ratio is reported, not gated: bounding it would demand
    # growth at the envelope's rate, which the paper does not claim.
    result = _experiment("growth")
    checks = _assertion_map(result)
    held = checks["ratio_held_out_bounded"]
    held_crit = checks["ratio_crit_held_out_bounded"]
    spread = max(sp for _, sp in result.summary["fits"]["per_seed_spread"])
    detail = (f"worst held-out/calibration margin {held['value']:.3e} "
              f"(beta envelope), {held_crit['value']:.3e} (composite) vs "
              f"{held['threshold']} headroom, worst per-seed spread "
              f"{spread:.4e}, no blow-up over horizon 16")
    assert _report("07 growth envelope", result.passed, detail), detail


def test_08_data_continuity():
    # the flow map is continuous at the data: perturbation distance at the
    # fixed sample time decays monotonically with slope >= 0.8 over four
    # decades of epsilon
    result = _experiment("continuity")
    checks = _assertion_map(result)
    slope = checks["median_distance_slope"]
    mono = checks["distance_monotone_violations"]
    detail = (f"median distance slope {slope['value']:.4f} >= "
              f"{slope['threshold']}, {int(mono['value'])} monotonicity "
              f"violations over eps 1e-1..1e-4")
    assert _report("08 data continuity", result.passed, detail), detail


def test_09_spacetime_bounds():
    # linear-flow space-time norms calibrated on half the seeds bound the
    # held-out half with 1.5x headroom; the nonlinear short-interval
    # supremum stays bounded while the smoothed energy stays under 1
    result = _experiment("strichartz")
    checks = _assertion_map(result)
    linear = [v for k, v in checks.items() if k.startswith("linear_ratio")]
    worst = max(v["value"] / v["threshold"] for v in linear)
    zb = checks["zbound_held_out_bounded"]
    cap = checks["zbound_energy_cap"]
    detail = (f"{len(linear)} linear triples worst margin {worst:.3f} of "
              f"headroom, zbound {zb['value']:.3f} <= {zb['threshold']:.3f}, "
              f"energy sup {cap['value']:.3f} <= {cap['threshold']}")
    assert _report("09 space-time bounds", result.passed, detail), detail


# Small configs of all seven experiments, for test 10 and the golden files.
# The lemma-b one fails bracket_ratio_held_out_bounded, because its
# calibration half (seeds 0 and 1) is small, and the lemma-a one fails
# potential_trend_free; tests 05 and 11 gate both at their defaults.
SHRUNK = {
    "acl": ["acl.cutoffs=2,4,8", "acl.horizon=0.5", "seeds=0,1"],
    "lemma-a": ["ensemble.count=8", "bounds.cutoffs=2,4,8"],
    "lemma-b": ["bracket.cutoffs=4,8,16", "bracket.horizon=0.5",
                "seeds=0,1,2,3"],
    "growth": ["growth.checkpoints=0.5,1", "seeds=0,1"],
    "scaling": ["scaling.lambdas=1,2", "scaling.horizon=0.75", "seeds=0,1"],
    "continuity": ["continuity.eps=0.1,0.01,0.001", "continuity.t_star=0.25",
                   "seeds=0,1"],
    "strichartz": ["seeds=0,1,2,3", "strichartz.horizon=0.5",
                   "zbound.tau=0.25"],
}


def test_10_determinism():
    # identical configs must reproduce byte-identical records, serial or
    # parallel; shrunk configs keep this affordable while exercising every
    # experiment's full row path
    mismatches = []
    for name, overrides in SHRUNK.items():
        first = _experiment(name, overrides)
        second = _experiment(name, overrides)
        if (rows_to_csv_text(name, first.records)
                != rows_to_csv_text(name, second.records)):
            mismatches.append(name)

    parallel_ok = True
    for name in ("continuity", "lemma-a"):
        serial = _experiment(name, SHRUNK[name], workers=1)
        parallel = _experiment(name, SHRUNK[name], workers=2)
        if (rows_to_csv_text(name, serial.records)
                != rows_to_csv_text(name, parallel.records)):
            parallel_ok = False
            mismatches.append(f"{name} (parallel)")

    ok = not mismatches
    detail = ("7/7 experiments byte-identical on re-run; parallel == serial"
              if ok else f"mismatches: {', '.join(mismatches)}")
    assert _report("10 determinism", ok, detail), detail


def test_11_norm_increment_bracket():
    # the pair-norm increment over [0, T] against the bracket
    # sup E^(1/2) + T sup E^(p/(p+1)) + z_max^p / N^((5-p)/2+1-s): the
    # calibration half's |ratio| bounds the held-out half with 1.5x
    # headroom, with no cutoff trend; the line names the term that is the
    # largest in most rows, which is what the gate bounds at these defaults
    result = _experiment("lemma-b")
    checks = _assertion_map(result)
    held = checks["bracket_ratio_held_out_bounded"]
    trend = checks["bracket_ratio_trend_free"]
    values = result.summary["config"]
    p, s = float(values["pde.p"]), float(values["pde.s"])
    horizon = float(values["bracket.horizon"])
    names = ("sup E^(1/2)", "T sup E^(p/(p+1))", "z_max^p / N^((5-p)/2+1-s)")
    wins = dict.fromkeys(names, 0)
    for row in result.records:
        terms = (math.sqrt(row["e_sup"]), horizon * row["e_sup"] ** (p / (p + 1.0)),
                 row["z_max"] ** p / row["cutoff"] ** (0.5 * (5.0 - p) + 1.0 - s))
        wins[names[terms.index(max(terms))]] += 1
    dominant = max(wins, key=wins.get)
    detail = (f"held-out |ratio| {held['value']:.4f} <= {held['threshold']:.4f}, "
              f"|trend| {trend['value']:.3f} <= {trend['threshold']} over "
              f"{len(result.summary['seeds'])} seeds; {dominant} dominates "
              f"{wins[dominant]}/{len(result.records)} rows")
    assert _report("11 norm-increment bracket", result.passed, detail), detail
