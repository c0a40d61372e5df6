"""Smoothed energy, space-time norms, drift and ratio diagnostics, slope fits.

Closed forms come from single cosine modes at integer p; wiring checks use the
exact identities of the linear flow (isometry, commuting radial multipliers).
"""

import functools
import math
import weakref

import numpy as np
import pytest

from nlwlab.data import DataRecipe, synthesize
from nlwlab.diagnostics import (
    BoundRatios,
    DiagnosticsError,
    GrowthReport,
    OrbitMeter,
    _ratio,
    energy_drift,
    fit_loglog_slope,
    initial_bound_ratios,
    norm_growth_ratio,
    smoothed_energy,
    spacetime_norm,
    spacetime_report,
)
from nlwlab.dynamics import (
    StepperConfig,
    Trajectory,
    WaveState,
    _energy_norms,
    evolve,
    linear_trajectory,
    pair_sobolev_norm,
    true_energy,
)
from nlwlab.fields import (
    Grid,
    _sample_slabs,
    apply_multiplier,
    from_coeffs,
    from_physical,
    frequency_split,
    lebesgue_norm,
    power_multiplier,
    smoothing_multiplier,
    sobolev_norm,
    to_physical,
)
from nlwlab.params import INF, PdeParams, TripleMQR, data_size, reference_triples
from modes import single_mode, zero_field

P4 = PdeParams(p=4.0, s=0.95)
G3 = Grid(n=32, L=32.0, dim=3)

RECIPE = DataRecipe(seed=5, s_target=0.95, k_min=0.19, k_max=4.7, size_hs=10.0)


def desk_state(seed=5, size=3.0):
    import dataclasses
    return synthesize(dataclasses.replace(RECIPE, seed=seed, size_hs=size), G3)


def desk_run(seed=5, size=3.0, horizon=0.5, interval=0.125):
    cfg = StepperConfig(dt=1.0 / 32, p=4.0)
    return evolve(desk_state(seed, size), horizon, cfg, sample_interval=interval)


def constant_trajectory(state, times):
    states = [WaveState(u=state.u, v=state.v, t=float(x)) for x in times]
    return Trajectory(states=states, final=states[-1])


class TestSmoothedEnergy:
    def test_zero_state(self):
        w = WaveState(u=zero_field(G3), v=zero_field(G3))
        e = smoothed_energy(w, 4.0, 0.95, 4.0)
        assert e.kinetic == 0.0 and e.gradient == 0.0 and e.potential == 0.0
        assert e.total == 0.0

    def test_band_limited_state_sees_plain_energy(self):
        w = desk_state()
        low_u, _ = frequency_split(w.u, 2.0)
        low_v, _ = frequency_split(w.v, 2.0)
        band = WaveState(u=low_u, v=low_v)
        e = smoothed_energy(band, 2.0, 0.95, 4.0)
        assert e.total == true_energy(band, 4.0)

    def test_huge_cutoff_is_identity(self):
        w = desk_state()
        e = smoothed_energy(w, G3.max_wavenumber, 0.95, 4.0)
        assert e.total == true_energy(w, 4.0)

    def test_single_mode_closed_form_p3(self):
        # u = a cos(k x1), v = 0, cutoff above k: gradient a^2 k^2 L^3 / 4,
        # potential 3 a^4 L^3 / 32, kinetic 0
        a = 1.4
        u = single_mode(G3, (2, 0, 0), amplitude=a)
        w = WaveState(u=u, v=zero_field(G3))
        k = 2.0 * G3.k_spacing
        e = smoothed_energy(w, 1.0, 0.95, 3.0)
        vol = G3.L ** 3
        assert e.kinetic == 0.0
        assert e.gradient == pytest.approx(a * a * k * k * vol / 4.0, rel=1e-12)
        assert e.potential == pytest.approx(3.0 * a ** 4 * vol / 32.0, rel=1e-12)
        assert e.total == pytest.approx(e.kinetic + e.gradient + e.potential,
                                        rel=1e-12)

    def test_translation_invariance(self):
        w = desk_state()
        rng = np.random.default_rng(17)
        base = smoothed_energy(w, 2.0, 0.95, 4.0).total
        for _ in range(5):
            shift = tuple(int(x) for x in rng.integers(0, G3.n, size=3))
            moved = WaveState(
                u=from_physical(G3, np.roll(to_physical(w.u), shift, (0, 1, 2))),
                v=from_physical(G3, np.roll(to_physical(w.v), shift, (0, 1, 2))))
            val = smoothed_energy(moved, 2.0, 0.95, 4.0).total
            assert abs(val - base) / base < 1e-10

    def test_parts_nonnegative(self):
        e = smoothed_energy(desk_state(), 4.0, 0.95, 4.0)
        assert e.kinetic > 0.0 and e.gradient > 0.0 and e.potential > 0.0

    @pytest.mark.parametrize("oversample", [1, 2, 3])
    def test_equals_composition_bit_for_bit(self, oversample):
        states = [desk_state(seed=seed) for seed in (5, 6)]
        before = [(w.u.coeffs.copy(), w.v.coeffs.copy()) for w in states]
        for cutoff in (0.5, 2.0, 4.0):
            smoother = smoothing_multiplier(cutoff, 0.95)
            for w in states:  # alternated, so each call meets the last one's buffer
                got = smoothed_energy(w, cutoff, 0.95, 4.0, oversample)
                velocity, gradient, _ = _energy_norms(w, (smoother,), 4.0, oversample)
                iv = apply_multiplier(w.v, smoother)
                iu = apply_multiplier(w.u, smoother)
                assert velocity == sobolev_norm(iv, 0.0)
                assert gradient == sobolev_norm(iu, 1.0)
                assert got.kinetic == 0.5 * sobolev_norm(iv, 0.0) ** 2
                assert got.gradient == 0.5 * sobolev_norm(iu, 1.0) ** 2
                assert got.potential == lebesgue_norm(iu, 5.0, oversample) ** 5.0 / 5.0
        for w, (u, v) in zip(states, before):
            assert np.array_equal(w.u.coeffs, u) and np.array_equal(w.v.coeffs, v)


class TestSpacetimeNorm:
    def test_rejects_disallowed_triple(self):
        traj = desk_run(horizon=0.25, interval=0.125)
        bad = TripleMQR(m=1.0, q=INF, r=2.0)
        with pytest.raises(DiagnosticsError):
            spacetime_norm(traj, bad, P4, 4.0)

    def test_zero_trajectory(self):
        w = WaveState(u=zero_field(G3), v=zero_field(G3))
        traj = constant_trajectory(w, [0.0, 0.5, 1.0])
        triple = reference_triples(P4)[0]
        assert spacetime_norm(traj, triple, P4, 4.0) == 0.0

    def test_sup_in_time_of_constant_orbit(self):
        w = desk_state()
        traj = constant_trajectory(w, [0.0])
        triple = next(t for t in reference_triples(P4) if math.isinf(t.q))
        got = spacetime_norm(traj, triple, P4, 4.0)
        mults = (power_multiplier(1.0 - triple.m), smoothing_multiplier(4.0, P4.s))
        expected = lebesgue_norm(apply_multiplier(w.u, mults), triple.r)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_finite_q_needs_two_samples(self):
        w = desk_state()
        traj = constant_trajectory(w, [0.0])
        triple = next(t for t in reference_triples(P4) if not math.isinf(t.q))
        with pytest.raises(DiagnosticsError):
            spacetime_norm(traj, triple, P4, 4.0)

    def test_rejects_uneven_sampling(self):
        w = desk_state()
        traj = constant_trajectory(w, [0.0, 0.1, 0.3])
        triple = next(t for t in reference_triples(P4) if not math.isinf(t.q))
        with pytest.raises(DiagnosticsError):
            spacetime_norm(traj, triple, P4, 4.0)

    def test_rejects_discarded_states(self):
        w = desk_state()
        cfg = StepperConfig(dt=1.0 / 16, p=4.0)
        traj = evolve(w, 0.25, cfg, sample_interval=0.25, keep_states=False)
        with pytest.raises(DiagnosticsError):
            spacetime_norm(traj, reference_triples(P4)[0], P4, 4.0)

    def test_time_quadrature_self_convergence(self):
        triple = next(t for t in reference_triples(P4) if not math.isinf(t.q))
        coarse = spacetime_norm(desk_run(interval=1.0 / 8), triple, P4, 4.0)
        fine = spacetime_norm(desk_run(interval=1.0 / 16), triple, P4, 4.0)
        assert abs(coarse - fine) / fine < 0.01

    @pytest.mark.parametrize("kind", ["linear", "evolve", "from_coeffs"])
    def test_equals_composition_bit_for_bit(self, kind, monkeypatch):
        if kind == "linear":
            traj = linear_trajectory(desk_state(), 0.5, 0.125)
        elif kind == "evolve":
            traj = desk_run(horizon=0.5, interval=0.125)
        else:
            rng = np.random.default_rng(11)
            states = [WaveState(u=from_coeffs(G3, rng.standard_normal(G3.shape)
                                              + 1j * rng.standard_normal(G3.shape)),
                                v=zero_field(G3), t=t) for t in (0.0, 0.25, 0.5)]
            traj = Trajectory(states=states, final=states[-1])
        before = [(w.u.coeffs.copy(), w.v.coeffs.copy()) for w in traj.states]
        # a 1-ulp change in a coefficient rarely reaches the norm, so the
        # coefficients each quadrature samples are compared too
        handed = []

        def spy(grid, coeffs, m, ws):
            handed.append(coeffs.copy())
            return _sample_slabs(grid, coeffs, m, ws)

        monkeypatch.setattr("nlwlab.fields._sample_slabs", spy)
        for triple in reference_triples(P4):
            for cutoff in (2.0, 4.0):
                handed.clear()
                got = spacetime_norm(traj, triple, P4, cutoff)
                # the reference norms below reach the spy too
                inside = list(handed)
                mults = (power_multiplier(1.0 - triple.m),
                         smoothing_multiplier(cutoff, P4.s))
                iu = [apply_multiplier(w.u, mults) for w in traj.states]
                phi = np.array([lebesgue_norm(f, triple.r) for f in iu])
                if math.isinf(triple.q):
                    assert got == float(np.max(phi))
                else:
                    times = [w.t for w in traj.states]
                    assert got == float(np.trapezoid(phi ** triple.q, times)
                                        ** (1.0 / triple.q))
                assert len(inside) == len(iu)
                for a, f in zip(inside, iu):
                    assert np.array_equal(a, f.coeffs[..., :G3.n // 2])
        for w, (u, v) in zip(traj.states, before):
            assert np.array_equal(w.u.coeffs, u) and np.array_equal(w.v.coeffs, v)


class TestSpacetimeReport:
    def test_one_value_per_triple(self):
        traj = desk_run(horizon=0.25, interval=0.125)
        report = spacetime_report(traj, P4, 4.0)
        assert len(report.values) == len(reference_triples(P4)) == 6
        assert all(math.isfinite(v) and v >= 0.0 for v in report.values)
        assert report.z_max == max(report.values)

    def test_monotone_in_interval_length(self):
        traj = desk_run(horizon=0.5, interval=0.125)
        half = Trajectory(states=traj.states[:3], final=traj.states[2])
        z_half = spacetime_report(half, P4, 4.0).z_max
        z_full = spacetime_report(traj, P4, 4.0).z_max
        assert z_half <= z_full * (1.0 + 1e-12)


class TestEnergyDrift:
    def test_needs_two_samples(self):
        w = desk_state()
        traj = constant_trajectory(w, [0.0])
        with pytest.raises(DiagnosticsError):
            energy_drift(traj, 4.0, 0.95, 4.0)

    def test_constant_orbit_has_zero_drift(self):
        w = desk_state()
        traj = constant_trajectory(w, [0.0, 0.5, 1.0])
        rep = energy_drift(traj, 4.0, 0.95, 4.0)
        assert rep.drift == 0.0
        assert rep.e_sup == pytest.approx(
            smoothed_energy(w, 4.0, 0.95, 4.0).total, rel=1e-14)
        assert rep.energies.size == 3

    def test_linear_orbit_drift_is_potential_fluctuation(self):
        # the quadratic part of the smoothed energy commutes with the free
        # rotation, so all drift on a linear orbit comes from the potential
        w = desk_state(size=1.0)
        traj = linear_trajectory(w, 1.0, 0.25)
        rep = energy_drift(traj, 2.0, 0.95, 4.0)
        pots = np.array([smoothed_energy(x, 2.0, 0.95, 4.0).potential
                         for x in traj.states])
        expected = float(np.max(np.abs(pots - pots[0])))
        assert abs(rep.drift - expected) < 1e-10 * rep.e_sup

    def test_band_limited_drift_at_solver_floor(self):
        w = desk_state(size=3.0)
        low_u, _ = frequency_split(w.u, 2.0)
        low_v, _ = frequency_split(w.v, 2.0)
        band = WaveState(u=low_u, v=low_v)
        cfg = StepperConfig(dt=1.0 / 32, p=4.0)
        traj = evolve(band, 0.5, cfg, sample_interval=0.125)
        smooth = energy_drift(traj, 2.0, 0.95, 4.0)
        plain = max(abs(true_energy(x, 4.0) - true_energy(traj.states[0], 4.0))
                    for x in traj.states)
        assert smooth.drift <= 10.0 * max(plain, 1e-15)

    def test_drift_decreases_along_cutoff_ladder(self):
        dense = Grid(n=32, L=8.0, dim=3)
        rec = DataRecipe(seed=2, s_target=0.95, k_min=0.79, k_max=19.5,
                         size_hs=3.0)
        w = synthesize(rec, dense)
        cfg = StepperConfig(dt=1.0 / 64, p=4.0)
        traj = evolve(w, 0.5, cfg, sample_interval=0.125)
        drifts = [energy_drift(traj, float(c), 0.95, 4.0).drift
                  for c in (2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(drifts, drifts[1:]))


class TestInitialBoundRatios:
    def test_low_frequency_gradient_ratio_below_one(self):
        w = desk_state()
        low_u, _ = frequency_split(w.u, 1.0)
        low_v, _ = frequency_split(w.v, 1.0)
        band = WaveState(u=low_u, v=low_v)
        r, = initial_bound_ratios(band, (1.0,), P4)
        assert r.gradient <= 1.0 + 1e-12

    def test_zero_state_guard(self):
        w = WaveState(u=zero_field(G3), v=zero_field(G3))
        r, = initial_bound_ratios(w, (4.0,), P4)
        assert r.gradient == 0.0 and r.velocity == 0.0
        assert r.potential == 0.0 and r.energy == 0.0

    def test_generic_ratios_finite_and_positive(self):
        for seed in range(5):
            r, = initial_bound_ratios(desk_state(seed=seed), (4.0,), P4)
            for val in (r.gradient, r.velocity, r.potential, r.energy):
                assert math.isfinite(val) and val > 0.0

    def test_ladder_equals_per_cutoff_calls(self):
        cutoffs = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        s, p = P4.s, P4.p
        zero = WaveState(u=zero_field(G3), v=zero_field(G3))
        for w in (desk_state(seed=5), desk_state(seed=6, size=1.0), zero):
            ladder = initial_bound_ratios(w, cutoffs, P4)
            assert ladder == [initial_bound_ratios(w, (c,), P4)[0] for c in cutoffs]
            norm_s = sobolev_norm(w.u, s)
            norm_v = sobolev_norm(w.v, s - 1.0)
            norm_crit = sobolev_norm(w.u, P4.s_crit)
            for cutoff, got in zip(cutoffs, ladder):
                breakdown = smoothed_energy(w, cutoff, s, p)
                velocity, gradient, _ = _energy_norms(
                    w, (smoothing_multiplier(cutoff, s),), p, 2)
                factor = cutoff ** (1.0 - s)
                assert got == BoundRatios(
                    gradient=_ratio(gradient, factor * norm_s),
                    velocity=_ratio(velocity, factor * norm_v),
                    potential=_ratio((p + 1.0) * breakdown.potential,
                                     factor ** 2 * norm_s ** 2 * norm_crit ** (p - 1.0)),
                    energy=_ratio(breakdown.total, factor ** 2 * data_size(
                        (norm_s, norm_v), norm_crit, p)))


class TestNormGrowthRatio:
    def test_zero_trajectory_guard(self):
        w = WaveState(u=zero_field(G3), v=zero_field(G3))
        traj = constant_trajectory(w, [0.0, 0.5, 1.0])
        rep = norm_growth_ratio(traj, P4, 4.0)
        assert rep.ratio == 0.0 and rep.bracket == 0.0

    def test_linear_orbit_never_grows(self):
        # the free flow is an isometry of the order-s pair norm
        w = desk_state(size=1.0)
        traj = linear_trajectory(w, 1.0, 0.25)
        rep = norm_growth_ratio(traj, P4, 4.0)
        assert rep.final == pytest.approx(rep.initial, rel=1e-12)
        assert rep.ratio <= 1e-10

    def test_nonlinear_run_reports_consistently(self):
        traj = desk_run()
        rep = norm_growth_ratio(traj, P4, 4.0)
        assert rep.initial == pytest.approx(
            pair_sobolev_norm(traj.states[0], 0.95), rel=1e-14)
        assert rep.final == pytest.approx(
            pair_sobolev_norm(traj.final, 0.95), rel=1e-14)
        assert rep.bracket > 0.0 and math.isfinite(rep.ratio)
        assert rep.e_sup > 0.0 and rep.z_max > 0.0

    def test_needs_two_samples(self):
        w = desk_state()
        with pytest.raises(DiagnosticsError):
            norm_growth_ratio(constant_trajectory(w, [0.0]), P4, 4.0)


class TestOrbitMeter:
    @pytest.mark.parametrize("kind", ["evolve", "linear"])
    def test_observed_run_equals_kept_run(self, kind):
        w = desk_state(size=1.0)
        cutoffs = (2.0, 4.0)
        triples = reference_triples(P4)
        meter = OrbitMeter(cutoffs, P4.s, P4.p, triples, energies=True)
        if kind == "evolve":
            cfg = StepperConfig(dt=1.0 / 32, p=4.0)
            kept = evolve(w, 0.5, cfg, sample_interval=0.125)
            live = evolve(w, 0.5, cfg, sample_interval=0.125, keep_states=False,
                          observer=meter)
        else:
            kept = linear_trajectory(w, 0.5, 0.125)
            live = linear_trajectory(w, 0.5, 0.125, keep_states=False, observer=meter)
        assert live.states is None and meter.count == len(kept.states) == 5
        # the data and the last sample, as the lemma-b cell measures them
        initial, final = (pair_sobolev_norm(x, P4.s) for x in (w, live.final))
        for cutoff in cutoffs:
            for triple in triples:
                assert (meter.spacetime_norm(triple, cutoff)
                        == spacetime_norm(kept, triple, P4, cutoff))
            assert (meter.spacetime_report(cutoff)
                    == spacetime_report(kept, P4, cutoff))
            drift, ref = meter.energy_drift(cutoff), energy_drift(kept, cutoff, P4.s, P4.p)
            assert (drift.drift, drift.e_sup) == (ref.drift, ref.e_sup)
            assert np.array_equal(drift.energies, ref.energies)
            assert (meter.norm_growth_ratio(cutoff, initial, final)
                    == norm_growth_ratio(kept, P4, cutoff))

    @pytest.mark.parametrize("kind", ["evolve", "linear"])
    def test_times_are_the_runs_times(self, kind):
        w = desk_state(size=1.0)
        w = WaveState(u=w.u, v=w.v, t=0.375)
        meter = OrbitMeter((4.0,), P4.s, P4.p)
        if kind == "evolve":
            run = functools.partial(evolve, w, 0.5, StepperConfig(dt=1.0 / 32, p=4.0),
                                    sample_interval=0.125)
        else:
            run = functools.partial(linear_trajectory, w, 0.5, 0.125)
        traj = run(keep_states=False, observer=meter)
        kept = run()
        assert meter.count == len(kept.states) == 5
        assert meter.times == [s.t for s in kept.states]
        assert meter.times == list(0.375 + 0.125 * np.arange(5))
        assert meter.times[-1] == traj.final.t

    def test_rejects_states_at_uneven_times(self):
        meter = OrbitMeter((4.0,), P4.s, P4.p, reference_triples(P4))
        w = desk_state()
        for t in (0.0, 0.25, 0.75):
            meter(WaveState(u=w.u, v=w.v, t=t))
        finite = next(t for t in reference_triples(P4) if not math.isinf(t.q))
        with pytest.raises(DiagnosticsError, match="not uniformly spaced"):
            meter.spacetime_norm(finite, 4.0)
        with pytest.raises(DiagnosticsError, match="not uniformly spaced"):
            meter.spacetime_report(4.0)

    @pytest.mark.parametrize("kind", ["evolve", "linear"])
    @pytest.mark.parametrize("grid", [Grid(n=16, L=16.0)], ids=["dim3"])
    def test_observed_run_holds_one_sampled_state(self, grid, kind):
        recipe = DataRecipe(seed=7, s_target=0.95, k_min=0.5, k_max=2.5, size_hs=1.0)
        meter = OrbitMeter((2.0, 4.0), P4.s, P4.p, reference_triples(P4), energies=True)
        data, seen = [], []

        def made():
            w = synthesize(recipe, grid)
            data.append(weakref.ref(w))
            return w

        def observer(state):
            meter(state)
            # no earlier sample, the input included, is alive
            assert all(ref() is None for ref in seen)
            if seen:
                assert data[0]() is None
            seen.append(weakref.ref(state))

        if kind == "evolve":
            evolve(made(), 0.5, StepperConfig(dt=1.0 / 32, p=4.0), sample_interval=0.125,
                   keep_states=False, observer=observer)
        else:
            linear_trajectory(made(), 0.5, 0.125, keep_states=False, observer=observer)
        assert len(seen) == meter.count == 5
        # the run's result is dropped, and the meter, still alive, holds no state
        assert seen[-1]() is None

    @pytest.mark.parametrize("triples,energies", [
        ((), True), (reference_triples(P4), False), (reference_triples(P4), True)],
        ids=["acl", "linear", "lemma-b"])
    def test_no_meter_measures_a_pair_norm(self, triples, energies, monkeypatch):
        kept = linear_trajectory(desk_state(size=1.0), 0.5, 0.125)
        calls = []

        def spy(state, s):
            calls.append(state.t)
            return pair_sobolev_norm(state, s)

        monkeypatch.setattr("nlwlab.diagnostics.pair_sobolev_norm", spy)
        meter = OrbitMeter((4.0,), P4.s, P4.p, triples, energies)
        for state in kept.states:
            meter(state)
        assert calls == []
        if not (triples and energies):
            return
        initial = pair_sobolev_norm(kept.states[0], P4.s)
        final = pair_sobolev_norm(kept.final, P4.s)
        e_sup = energy_drift(kept, 4.0, P4.s, P4.p).e_sup
        z_max = spacetime_report(kept, P4, 4.0).z_max
        bracket = (math.sqrt(e_sup) + 0.5 * e_sup ** (P4.p / (P4.p + 1.0))
                   + z_max ** P4.p / 4.0 ** (0.5 * (5.0 - P4.p) + 1.0 - P4.s))
        assert meter.norm_growth_ratio(4.0, initial, final) == GrowthReport(
            initial=initial, final=final, e_sup=e_sup, z_max=z_max, bracket=bracket,
            ratio=_ratio(final - initial, bracket))
        assert calls == []

    def test_measures_only_what_it_was_given(self):
        meter = OrbitMeter((4.0, 4.0), P4.s, P4.p, reference_triples(P4)[:1])
        with pytest.raises(DiagnosticsError, match="no state"):
            meter.energy_drift(4.0)
        w = desk_state()
        meter(w)
        meter(WaveState(u=w.u, v=w.v, t=1.0))
        assert meter.cutoffs == (4.0,)
        triple = reference_triples(P4)[0]
        assert meter.spacetime_norm(triple, 4.0) > 0.0
        with pytest.raises(DiagnosticsError, match="not measured"):
            meter.energy_drift(4.0)
        with pytest.raises(DiagnosticsError, match="not measured"):
            meter.spacetime_norm(triple, 2.0)


class TestSlopeFit:
    def test_pure_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = fit_loglog_slope(xs, xs ** -2.0)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_series(self):
        fit = fit_loglog_slope([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(41)
        xs = np.geomspace(1.0, 256.0, 24)
        ys = 3.0 * xs ** -0.5 * (1.0 + 0.01 * rng.standard_normal(xs.size))
        fit = fit_loglog_slope(xs, ys)
        assert fit.slope == pytest.approx(-0.5, abs=0.02)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=0.05)

    def test_validation(self):
        with pytest.raises(DiagnosticsError):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DiagnosticsError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(DiagnosticsError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(DiagnosticsError):
            fit_loglog_slope([1.0, 2.0, math.inf], [1.0, 2.0, 3.0])
        # a repeated cutoff list once reached the fit and read a slope
        for xs in ([4.0, 4.0, 4.0], [4.0, 8.0, 4.0, 8.0]):
            with pytest.raises(DiagnosticsError, match="3 distinct x values"):
                fit_loglog_slope(xs, [1.0, 2.0, 3.0, 4.0][:len(xs)])
        fit_loglog_slope([4.0, 4.0, 8.0, 16.0], [1.0, 2.0, 3.0, 4.0])
