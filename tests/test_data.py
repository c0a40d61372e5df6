"""Synthesis determinism and normalization, the scaling map, perturbations.

Slope oracles run on the deterministic spectral profile (no phases), where the
band sums have closed-form continuum growth rates; seeded checks cover the
random path.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nlwlab.data import (
    DataError,
    DataRecipe,
    perturb,
    profile_amplitudes,
    rescale,
    synthesize,
    window_array,
)
from nlwlab.dynamics import (
    StepperConfig,
    evolve,
    pair_sobolev_norm,
    pde_residual,
    state_difference,
)
from nlwlab.fields import Grid, from_coeffs, sobolev_norm, to_physical
from nlwlab.params import PdeParams
from modes import wavenumber_of_index

P4 = PdeParams(p=4.0, s=0.95)
G3 = Grid(n=32, L=32.0, dim=3)

RECIPE = DataRecipe(seed=3, s_target=0.95, k_min=0.19, k_max=4.7, size_hs=10.0)


class TestRecipeValidation:
    def test_band_must_be_ordered(self):
        with pytest.raises(DataError):
            DataRecipe(seed=0, s_target=0.95, k_min=2.0, k_max=1.0, size_hs=1.0)
        with pytest.raises(DataError):
            DataRecipe(seed=0, s_target=0.95, k_min=0.0, k_max=1.0, size_hs=1.0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(DataError, match="seed must be non-negative, got -1"):
            DataRecipe(seed=-1, s_target=0.95, k_min=0.2, k_max=1.0, size_hs=1.0)
        w = synthesize(RECIPE, G3)
        with pytest.raises(DataError):  # perturb builds its bump's recipe
            perturb(w, 0.01, -20000, P4, RECIPE)

    def test_sizes_must_be_positive(self):
        with pytest.raises(DataError):
            DataRecipe(seed=0, s_target=0.95, k_min=0.2, k_max=1.0, size_hs=0.0)

    def test_band_must_be_resolved(self):
        hot = DataRecipe(seed=0, s_target=0.95, k_min=0.2,
                         k_max=G3.max_wavenumber, size_hs=1.0)
        with pytest.raises(DataError):
            synthesize(hot, G3)

    def test_band_must_hold_a_mode(self):
        # below the grid's first shell, |k| = 2 pi / L = 0.196
        empty = DataRecipe(seed=0, s_target=0.95, k_min=0.01, k_max=0.02, size_hs=1.0)
        with pytest.raises(DataError, match="holds no mode off the mean"):
            synthesize(empty, G3)
        # the band holds only modes of the k_x Nyquist plane, which are zeroed
        nyquist = Grid(n=16, L=2.0 * math.pi)
        only = DataRecipe(seed=0, s_target=0.95, k_min=7.9, k_max=8.0, size_hs=1.0)
        with pytest.raises(DataError, match="holds no mode off the mean"):
            synthesize(only, nyquist)


class TestSynthesize:
    def test_same_seed_bit_identical(self):
        a = synthesize(RECIPE, G3)
        b = synthesize(RECIPE, G3)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.v.coeffs, b.v.coeffs)

    def test_different_seeds_differ(self):
        import dataclasses
        a = synthesize(RECIPE, G3)
        b = synthesize(dataclasses.replace(RECIPE, seed=4), G3)
        assert not np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_normalization_is_exact(self):
        w = synthesize(RECIPE, G3)
        assert sobolev_norm(w.u, 0.95) == pytest.approx(10.0, rel=1e-10)
        assert sobolev_norm(w.v, -0.05) == pytest.approx(10.0, rel=1e-10)
        assert w.t == 0.0

    def test_unwindowed_support_stays_in_band(self):
        import dataclasses
        rec = dataclasses.replace(RECIPE, window=False)
        w = synthesize(rec, G3)
        from nlwlab.fields import _kmag
        km = _kmag(G3)
        outside = (km < rec.k_min) | (km > rec.k_max)
        assert np.all(w.u.coeffs[outside] == 0.0)
        assert np.all(w.v.coeffs[outside] == 0.0)

    def test_window_confines_to_half_box(self):
        # the mean-free projection leaves a small constant offset outside the
        # window support, so the edge is quiet relative to the interior rather
        # than exactly zero
        import dataclasses
        w = synthesize(RECIPE, G3)
        raw = synthesize(dataclasses.replace(RECIPE, window=False), G3)
        x = G3.axis_coordinates()
        edge = (x < G3.L / 4.0) | (x > 3.0 * G3.L / 4.0)
        def edge_ratio(state):
            u = to_physical(state.u)
            worst = max(np.max(np.abs(u[edge, :, :])),
                        np.max(np.abs(u[:, edge, :])),
                        np.max(np.abs(u[:, :, edge])))
            return worst / np.max(np.abs(u))
        assert edge_ratio(w) < 0.05
        assert edge_ratio(raw) > 0.5

    def test_window_array_plateau(self):
        warr = window_array(G3)
        mid = G3.n // 2
        assert warr[mid, mid, mid] == 1.0
        assert warr[0, mid, mid] == 0.0

    def test_peak_memory_at_n32_stays_under_2_mib(self):
        # each field is built in one complex buffer and its norm allocates
        # nothing: 1.75 MiB, against 2.75 MiB with a temporary per product
        synthesize(RECIPE, G3)  # builds the caches and the workspace
        tracemalloc.start()
        try:
            synthesize(RECIPE, G3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_velocity_profile_one_power_rougher(self):
        # unwindowed, unnormalized profiles: the v amplitudes carry one extra
        # power of |k|, so v's order s-1 spectrum matches u's order s spectrum
        import dataclasses
        rec = dataclasses.replace(RECIPE, window=False)
        w = synthesize(rec, G3)
        ratio_u = sobolev_norm(w.u, 0.95 + 0.3) / sobolev_norm(w.u, 0.95)
        ratio_v = sobolev_norm(w.v, -0.05 + 0.3) / sobolev_norm(w.v, -0.05)
        assert ratio_u == pytest.approx(ratio_v, rel=0.2)


# Unit wavenumber spacing; the profile band starts 4 spacings out and ends at
# 8, 16 and 31 spacings (the largest |k| whose ball stays inside the grid).
GP = Grid(n=64, L=2.0 * math.pi)
K_MIN, K_MAXES = 4.0, (8.0, 16.0, 31.0)


def shell_integral(k_max, d):
    """Integral of k^(2d - 1) over [K_MIN, k_max]: the continuum value of
    sum |k|^(2 sigma) |k|^(-2 s - 3) over the band, with d = sigma - s, up to
    the constant 4 pi / (k spacing)^3."""
    if d == 0.0:
        return math.log(k_max / K_MIN)
    return (k_max ** (2.0 * d) - K_MIN ** (2.0 * d)) / (2.0 * d)


def fitted_slope(ys):
    return np.polyfit(np.log2(K_MAXES), np.log2(ys), 1)[0]


class TestSpectralProfile:
    """The shell-flat profile |k|^-(s + 3/2) that `synthesize` uses, on a 3-D
    band.  A norm of order sigma grows like the square root of
    `shell_integral(k_max, sigma - s)`; with the K_MIN offset its fitted slope
    over these k_max is well above the asymptotic rate sigma - s.  The lattice
    sum over a band that starts 4 spacings out stays within about 1% of the
    continuum integral (a direct lattice sum at n = 128 moves these slopes by
    under 0.005), so the measured slope must match the predicted one to 0.02."""

    @staticmethod
    def profile_field(k_max, slope):
        amp = profile_amplitudes(GP, K_MIN, k_max, slope)
        return from_coeffs(GP, amp.astype(np.complex128))

    def test_amplitudes_follow_power_law(self):
        amp = profile_amplitudes(GP, K_MIN, 12.0, -2.45)
        for index in ((3, 4, 0), (-3, 0, 4), (0, -4, -3)):  # |k| = 5
            assert amp[index] == pytest.approx(5.0 ** -2.45, rel=1e-12)
        assert amp[4, 0, 0] == pytest.approx(4.0 ** -2.45, rel=1e-12)  # band edges
        assert amp[12, 0, 0] == pytest.approx(12.0 ** -2.45, rel=1e-12)
        for index in ((0, 0, 0), (2, 2, 2), (10, 10, 0)):  # |k| = 0, 3.5, 14.1
            assert amp[index] == 0.0

    @staticmethod
    def predicted_slope(sigma, s):
        return fitted_slope([math.sqrt(shell_integral(k, sigma - s)) for k in K_MAXES])

    def test_rough_norm_grows_at_excess_order(self):
        # order s + 0.2 on the order-s profile: rate 0.2, and 0.51 with the offset
        s = 0.95
        norms = [sobolev_norm(self.profile_field(k, -(s + 1.5)), s + 0.2) for k in K_MAXES]
        assert fitted_slope(norms) == pytest.approx(self.predicted_slope(s + 0.2, s),
                                                    abs=0.02)

    def test_h1_divergence_rate(self):
        for s in (0.5, 0.95):
            norms = [sobolev_norm(self.profile_field(k, -(s + 1.5)), 1.0) for k in K_MAXES]
            assert fitted_slope(norms) == pytest.approx(self.predicted_slope(1.0, s),
                                                        abs=0.02)

    def test_synthesized_data_is_rough(self):
        # the random pair at s = 1/2, normalized at order s: the H^1 norm
        # grows like the ratio of the order-1 and the order-s band integrals
        # (0.30 here).  Random phases halve every |c_k|^2 on average; over
        # the thousands of modes of each band their spread adds at most 0.01.
        recs = [DataRecipe(seed=9, s_target=0.5, k_min=K_MIN, k_max=k, size_hs=1.0,
                           window=False) for k in K_MAXES]
        norms = [sobolev_norm(synthesize(r, GP).u, 1.0) for r in recs]
        predicted = fitted_slope([math.sqrt(shell_integral(k, 0.5) / shell_integral(k, 0.0))
                                  for k in K_MAXES])
        assert fitted_slope(norms) == pytest.approx(predicted, abs=0.03)


class TestRescale:
    def test_identity_at_one(self):
        w = synthesize(RECIPE, G3)
        r = rescale(w, 1.0, P4)
        assert np.array_equal(r.u.coeffs, w.u.coeffs)
        assert np.array_equal(r.v.coeffs, w.v.coeffs)
        assert r.u.grid == w.u.grid and r.t == w.t

    def test_unit_factor_run_is_the_base_run(self):
        # the scaling experiment reuses its base run for the lambda = 1 rung
        w = synthesize(RECIPE, G3)
        cfg = StepperConfig(dt=1.0 / 16, p=4.0)
        lam = 1.0
        base = evolve(w, 0.5, cfg, sample_interval=0.25)
        scaled = evolve(rescale(w, lam, P4), 0.5 * lam, replace(cfg, dt=cfg.dt * lam),
                        sample_interval=0.25 * lam)
        for a, b in zip(scaled.states, base.states, strict=True):
            assert a.t == b.t
            assert np.array_equal(a.u.coeffs, b.u.coeffs)
            assert np.array_equal(a.v.coeffs, b.v.coeffs)

    def test_critical_norm_invariant(self):
        w = synthesize(RECIPE, G3)
        base = pair_sobolev_norm(w, P4.s_crit)
        for lam in (2.0, 4.0, 8.0):
            r = rescale(w, lam, P4)
            assert pair_sobolev_norm(r, P4.s_crit) == pytest.approx(base, rel=1e-10)

    def test_order_s_norm_scales(self):
        w = synthesize(RECIPE, G3)
        base = pair_sobolev_norm(w, 0.95)
        for lam in (2.0, 4.0):
            r = rescale(w, lam, P4)
            expected = lam ** (P4.s_crit - 0.95) * base
            assert pair_sobolev_norm(r, 0.95) == pytest.approx(expected, rel=1e-10)

    def test_wavenumbers_shrink_exactly(self):
        w = synthesize(RECIPE, G3)
        r = rescale(w, 2.0, P4)
        k_orig = wavenumber_of_index(w.u.grid, (3, 1, 0))
        k_new = wavenumber_of_index(r.u.grid, (3, 1, 0))
        assert k_new == pytest.approx(0.5 * k_orig, rel=1e-15)

    def test_group_law(self):
        w = synthesize(RECIPE, G3)
        a = rescale(rescale(w, 2.0, P4), 2.0, P4)
        b = rescale(w, 4.0, P4)
        assert a.u.grid == b.u.grid
        scale = np.max(np.abs(b.u.coeffs))
        assert np.max(np.abs(a.u.coeffs - b.u.coeffs)) < 1e-14 * scale
        assert np.max(np.abs(a.v.coeffs - b.v.coeffs)) < 1e-14

    def test_half_scale_inverts_double(self):
        w = synthesize(RECIPE, G3)
        back = rescale(rescale(w, 2.0, P4), 0.5, P4)
        assert back.u.grid == w.u.grid
        scale = np.max(np.abs(w.u.coeffs))
        assert np.max(np.abs(back.u.coeffs - w.u.coeffs)) < 1e-14 * scale

    def test_time_stamp_stretches(self):
        w = synthesize(RECIPE, G3)
        moved = evolve(w, 0.25, StepperConfig(dt=1.0 / 16, p=4.0),
                       sample_interval=0.25, keep_states=False).final
        r = rescale(moved, 2.0, P4)
        assert r.t == pytest.approx(0.5, rel=1e-12)

    def test_rejects_non_dyadic(self):
        w = synthesize(RECIPE, G3)
        for lam in (3.0, 0.75, -2.0, 0.0):
            with pytest.raises(DataError):
                rescale(w, lam, P4)

    def test_residual_scales_at_critical_rate(self):
        # the equation is invariant, so the residual field of a rescaled
        # trajectory shrinks by exactly lam^-(a + 1/2), a = 2/(p-1)
        w = synthesize(RECIPE, G3)
        cfg = StepperConfig(dt=1.0 / 64, p=4.0)
        traj = evolve(w, 3.0 / 64, cfg, sample_interval=1.0 / 64)
        s = traj.states
        base = pde_residual(s[0], s[1], s[2], 4.0)
        lam = 2.0
        rs = [rescale(x, lam, P4) for x in s]
        scaled = pde_residual(rs[0], rs[1], rs[2], 4.0)
        a = 1.5 - P4.s_crit
        assert scaled / base == pytest.approx(lam ** -(a + 0.5), rel=1e-10)


class TestPerturb:
    def test_zero_size_is_identity(self):
        w = synthesize(RECIPE, G3)
        out = perturb(w, 0.0, 99, P4, RECIPE)
        assert np.array_equal(out.u.coeffs, w.u.coeffs)
        assert np.array_equal(out.v.coeffs, w.v.coeffs)

    def test_critical_distance_is_exact(self):
        w = synthesize(RECIPE, G3)
        for eps in (1e-1, 1e-3):
            out = perturb(w, eps, 99, P4, RECIPE)
            d = pair_sobolev_norm(state_difference(out, w), P4.s_crit)
            assert d == pytest.approx(eps, rel=1e-10)

    def test_triangle_under_two_bumps(self):
        w = synthesize(RECIPE, G3)
        eps = 0.05
        twice = perturb(perturb(w, eps, 99, P4, RECIPE), eps, 100, P4, RECIPE)
        d = pair_sobolev_norm(state_difference(twice, w), P4.s_crit)
        assert d <= 2.0 * eps * (1.0 + 1e-12)

    def test_same_seed_reproduces(self):
        w = synthesize(RECIPE, G3)
        a = perturb(w, 0.01, 7, P4, RECIPE)
        b = perturb(w, 0.01, 7, P4, RECIPE)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_rejects_negative_size(self):
        w = synthesize(RECIPE, G3)
        with pytest.raises(DataError):
            perturb(w, -0.1, 99, P4, RECIPE)
