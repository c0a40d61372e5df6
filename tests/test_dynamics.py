"""Stepper contract: exact linear part, kick oracles, convergence, invariants.

Closed-form oracles use single cosine modes (harmonic rotation, trig-identity
cubes); statistical checks use band-limited random data at amplitude O(1).
"""

import math

import numpy as np
import pytest

from nlwlab.dynamics import (
    BlowUpError,
    StepperConfig,
    Trajectory,
    WaveState,
    evolve,
    linear_trajectory,
    momentum,
    nonlinear_kick,
    nonlinear_term,
    pair_sobolev_norm,
    pde_residual,
    propagate_linear,
    state_difference,
    strang_step,
    true_energy,
)
from nlwlab.fields import (
    FieldError,
    Grid,
    _reverse_indices,
    apply_multiplier,
    block_slices,
    from_coeffs,
    low_pass,
    power_multiplier,
    single_mode,
    sobolev_norm,
    to_physical,
    zero_field,
)

G3 = Grid(n=16, L=32.0, dim=3)
G1 = Grid(n=64, L=2.0 * math.pi, dim=1)


def band_field(grid, seed, cutoff, amp=1.0):
    """Random mean-free field, band-limited and scaled to max |u| = amp."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = apply_multiplier(from_coeffs(grid, c),
                         (power_multiplier(-1.0), low_pass(cutoff)))
    peak = float(np.max(np.abs(to_physical(f))))
    return f * (amp / peak)


def make_state(seed, amp=1.0, grid=G3, cutoff=0.45):
    u = band_field(grid, seed, cutoff, amp)
    v = band_field(grid, seed + 100000, cutoff, amp)
    return WaveState(u=u, v=v, t=0.0)


class TestStateAndConfig:
    def test_state_rejects_mixed_grids(self):
        with pytest.raises(FieldError):
            WaveState(u=zero_field(G3), v=zero_field(G1))

    def test_config_validation(self):
        with pytest.raises(FieldError):
            StepperConfig(dt=0.0, p=4.0)
        with pytest.raises(FieldError):
            StepperConfig(dt=0.1, p=1.0)
        with pytest.raises(FieldError):
            StepperConfig(dt=0.1, p=4.0, oversample=0)

    def test_pair_norm_is_hypot(self):
        w = make_state(1)
        expected = math.hypot(sobolev_norm(w.u, 0.95),
                              sobolev_norm(w.v, -0.05))
        assert pair_sobolev_norm(w, 0.95) == pytest.approx(expected, rel=1e-15)

    def test_state_difference(self):
        a, b = make_state(2), make_state(3)
        d = state_difference(a, b)
        assert np.array_equal(d.u.coeffs, a.u.coeffs - b.u.coeffs)
        assert np.array_equal(d.v.coeffs, a.v.coeffs - b.v.coeffs)
        assert d.t == a.t


class TestLinearPropagation:
    def test_single_mode_periodicity(self):
        w = WaveState(u=single_mode(G1, (3,)), v=zero_field(G1), t=0.0)
        period = 2.0 * math.pi / 3.0
        back = propagate_linear(w, period)
        assert np.max(np.abs(back.u.coeffs - w.u.coeffs)) < 1e-12
        assert np.max(np.abs(back.v.coeffs)) < 1e-12
        assert back.t == pytest.approx(period)

    def test_zero_state_stays_zero(self):
        w = WaveState(u=zero_field(G3), v=zero_field(G3))
        out = propagate_linear(w, 0.7)
        assert np.all(out.u.coeffs == 0.0) and np.all(out.v.coeffs == 0.0)

    def test_per_mode_energy_conserved_over_many_steps(self):
        from nlwlab.fields import _kmag
        w = make_state(11)
        km = _kmag(G3)
        e0 = 0.5 * (km ** 2 * np.abs(w.u.coeffs) ** 2 + np.abs(w.v.coeffs) ** 2)
        rng = np.random.default_rng(77)
        cur = w
        for _ in range(1000):
            cur = propagate_linear(cur, float(rng.uniform(0.01, 0.2)))
        e1 = 0.5 * (km ** 2 * np.abs(cur.u.coeffs) ** 2 + np.abs(cur.v.coeffs) ** 2)
        scale = float(np.max(e0))
        assert np.max(np.abs(e1 - e0)) < 1e-12 * scale

    def test_propagator_composes(self):
        w = make_state(12)
        one = propagate_linear(propagate_linear(w, 0.3), 0.4)
        two = propagate_linear(w, 0.7)
        scale = np.max(np.abs(two.u.coeffs))
        assert np.max(np.abs(one.u.coeffs - two.u.coeffs)) < 1e-12 * scale
        assert np.max(np.abs(one.v.coeffs - two.v.coeffs)) < 1e-12

    def test_negative_duration_inverts(self):
        w = make_state(13)
        back = propagate_linear(propagate_linear(w, 0.9), -0.9)
        assert np.max(np.abs(back.u.coeffs - w.u.coeffs)) < 1e-13


class TestNonlinearKick:
    def test_zero_field_is_identity(self):
        w = WaveState(u=zero_field(G3), v=band_field(G3, 5, 0.45))
        cfg = StepperConfig(dt=0.1, p=4.0)
        out = nonlinear_kick(w, 0.1, cfg)
        assert np.array_equal(out.v.coeffs, w.v.coeffs)

    def test_kick_opposes_displacement(self):
        # defocusing: dv = -tau |u|^(p-1) u has the opposite sign of u
        w = WaveState(u=single_mode(G3, (1, 0, 0), amplitude=2.0),
                      v=zero_field(G3))
        cfg = StepperConfig(dt=0.1, p=4.0)
        out = nonlinear_kick(w, 0.1, cfg)
        assert np.array_equal(out.u.coeffs, w.u.coeffs)
        assert out.t == w.t
        u_phys = to_physical(w.u)
        dv_phys = to_physical(out.v) - to_physical(w.v)
        body = np.abs(u_phys) > 0.5
        assert np.all(np.sign(dv_phys[body]) == -np.sign(u_phys[body]))

    def test_cube_matches_trig_identity(self):
        # p=3 on a single mode: u^3 = a^3 (3 cos(kx) + cos(3kx)) / 4
        a = 1.3
        u = single_mode(G1, (4,), amplitude=a)
        g = nonlinear_term(u, 3.0, oversample=2)
        expected = (0.75 * a ** 3 * single_mode(G1, (4,)).coeffs
                    + 0.25 * a ** 3 * single_mode(G1, (12,)).coeffs)
        assert np.max(np.abs(g.coeffs - expected)) < 1e-13

    def test_cube_matches_spectral_convolution(self):
        # low band on n=64 keeps all of u^3 resolved; compare against the
        # centered triple convolution of the coefficient line
        u = band_field(G1, 21, cutoff=10.0)
        n = G1.n
        centered = np.fft.fftshift(u.coeffs)
        conv = np.convolve(np.convolve(centered, centered), centered)
        mid = 3 * (n // 2)  # index of mode 0 in the triple convolution
        oracle = np.zeros(n, dtype=np.complex128)
        for m in range(-(n // 2 - 1), n // 2):
            oracle[m % n] = conv[mid + m]
        oracle[0] = 0.0  # projection is mean-free
        g = nonlinear_term(u, 3.0, oversample=2)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(g.coeffs - oracle)) < 1e-10 * scale


def c2c_kick(grid, coeffs, p, oversample):
    """Reference kick: complex transforms over the full padded spectrum."""
    n, dim = grid.n, grid.dim
    m = n * oversample
    big = np.zeros((m,) * dim, dtype=np.complex128)
    for src, dst in block_slices(n, m, dim):
        big[dst] = coeffs[src]
    u_phys = np.real(np.fft.ifftn(big)) * m ** dim
    g_big = np.fft.fftn(np.abs(u_phys) ** (p - 1.0) * u_phys) / m ** dim
    g = np.zeros(grid.shape, dtype=np.complex128)
    for src, dst in block_slices(n, m, dim):
        g[src] = g_big[dst]
    half = n // 2
    for axis in range(dim):
        idx = [slice(None)] * dim
        idx[axis] = half
        g[tuple(idx)] = 0.0
    g[(0,) * dim] = 0.0
    return g


class TestRealTransformKick:
    @pytest.mark.parametrize("grid", [G1, G3], ids=["dim1", "dim3"])
    @pytest.mark.parametrize("oversample", [1, 2, 3])
    def test_matches_c2c_reference(self, grid, oversample):
        u = band_field(grid, 31, cutoff=grid.nyquist, amp=2.0)
        g = nonlinear_term(u, 4.0, oversample).coeffs
        ref = c2c_kick(grid, u.coeffs, 4.0, oversample)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [G1, G3], ids=["dim1", "dim3"])
    @pytest.mark.parametrize("oversample", [1, 2, 3])
    def test_output_is_exactly_hermitian_and_clean(self, grid, oversample):
        u = band_field(grid, 32, cutoff=grid.nyquist, amp=2.0)
        g = nonlinear_term(u, 3.5, oversample).coeffs
        assert np.array_equal(g, np.conj(_reverse_indices(g)))
        assert g[(0,) * grid.dim] == 0.0
        for axis in range(grid.dim):
            assert not np.any(np.take(g, grid.n // 2, axis=axis))


class TestStrangStep:
    def test_self_convergence_order(self):
        w = make_state(31)
        errs = []
        finals = []
        for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64):
            cfg = StepperConfig(dt=dt, p=4.0)
            finals.append(evolve(w, 1.0, cfg, sample_interval=1.0,
                                 keep_states=False).final)
        e1 = pair_sobolev_norm(state_difference(finals[0], finals[1]), 1.0)
        e2 = pair_sobolev_norm(state_difference(finals[1], finals[2]), 1.0)
        order = math.log2(e1 / e2)
        assert 1.8 <= order <= 2.2

    def test_reversibility_by_momentum_flip(self):
        # T step T = inverse step for the time-reversal T(u, v) = (u, -v)
        w = make_state(32)
        cfg = StepperConfig(dt=1.0 / 16, p=4.0)
        fwd = strang_step(w, cfg)
        flipped = WaveState(u=fwd.u, v=-1.0 * fwd.v, t=0.0)
        back = strang_step(flipped, cfg)
        scale = np.max(np.abs(w.u.coeffs))
        assert np.max(np.abs(back.u.coeffs - w.u.coeffs)) < 1e-10 * scale
        assert np.max(np.abs(-back.v.coeffs - w.v.coeffs)) < 1e-10

    def test_timestamp_advances(self):
        w = make_state(33)
        cfg = StepperConfig(dt=0.125, p=4.0)
        assert strang_step(w, cfg).t == pytest.approx(0.125)

    def test_blow_up_reported_with_time(self):
        c = np.zeros(G3.shape, dtype=np.complex128)
        c[1, 0, 0] = c[-1, 0, 0] = 0.5e80
        hot = WaveState(u=from_coeffs(G3, c), v=zero_field(G3))
        cfg = StepperConfig(dt=1.0, p=4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                evolve(hot, 4.0, cfg, sample_interval=1.0)
        assert err.value.time > 0.0


class TestEvolve:
    def test_sampling_plan(self):
        w = make_state(41)
        cfg = StepperConfig(dt=0.0625, p=4.0)
        traj = evolve(w, 0.625, cfg)
        assert traj.times.size == 11
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.625)
        assert len(traj.states) == 11
        assert traj.states[-1] is traj.final

    def test_zero_data_stays_zero(self):
        w = WaveState(u=zero_field(G3), v=zero_field(G3))
        traj = evolve(w, 0.5, StepperConfig(dt=0.125, p=4.0))
        for s in traj.states:
            assert np.all(s.u.coeffs == 0.0) and np.all(s.v.coeffs == 0.0)

    def test_interval_must_divide_horizon(self):
        w = make_state(42)
        cfg = StepperConfig(dt=0.1, p=4.0)
        with pytest.raises(FieldError):
            evolve(w, 1.0, cfg, sample_interval=0.3)
        with pytest.raises(FieldError):
            evolve(w, -1.0, cfg)
        with pytest.raises(FieldError):
            evolve(w, 1.0, cfg, sample_interval=2.0)

    def test_step_count_capped_before_stepping(self):
        with pytest.raises(FieldError, match="cap"):
            evolve(make_state(3), 1.0, StepperConfig(dt=1e-300, p=4.0),
                   sample_interval=1.0)

    def test_step_adjusts_down_to_divide_interval(self):
        w = make_state(43)
        coarse = evolve(w, 0.5, StepperConfig(dt=0.2, p=4.0),
                        sample_interval=0.25, keep_states=False)
        exact = evolve(w, 0.5, StepperConfig(dt=0.125, p=4.0),
                       sample_interval=0.25, keep_states=False)
        # dt=0.2 is rounded down to 0.125; identical trajectories certify it
        assert np.array_equal(coarse.final.u.coeffs, exact.final.u.coeffs)

    def test_keep_states_false_matches(self):
        w = make_state(44)
        cfg = StepperConfig(dt=0.125, p=4.0)
        full = evolve(w, 0.5, cfg)
        lean = evolve(w, 0.5, cfg, keep_states=False)
        assert lean.states is None
        assert np.array_equal(lean.final.u.coeffs, full.final.u.coeffs)

    def test_observer_sees_every_sample(self):
        w = make_state(45)
        seen = []
        evolve(w, 0.5, StepperConfig(dt=0.125, p=4.0),
               sample_interval=0.25, observer=lambda s: seen.append(s.t),
               keep_states=False)
        assert seen == pytest.approx([0.0, 0.25, 0.5])

    def test_norm_continuity_in_time(self):
        w = make_state(46)
        def max_jump(dt):
            traj = evolve(w, 0.5, StepperConfig(dt=dt, p=4.0))
            norms = [pair_sobolev_norm(s, 0.95) for s in traj.states]
            return max(abs(b - a) for a, b in zip(norms, norms[1:]))
        j1, j2 = max_jump(1.0 / 16), max_jump(1.0 / 32)
        assert j2 <= 0.7 * j1

    def test_linear_limit(self):
        # tiny amplitude: kick is O(amp^p), invisible next to the linear flow
        w = make_state(47, amp=1e-5)
        traj = evolve(w, 1.0, StepperConfig(dt=0.25, p=4.0), keep_states=False)
        exact = propagate_linear(w, 1.0)
        diff = pair_sobolev_norm(state_difference(traj.final, exact), 0.0)
        assert diff < 1e-10 * pair_sobolev_norm(w, 0.0)

    def test_no_blow_up_at_desk_scale(self):
        w = make_state(48, amp=2.0)
        traj = evolve(w, 2.0, StepperConfig(dt=1.0 / 16, p=4.0),
                      sample_interval=0.25)
        cap = 10.0 * np.max(np.abs(to_physical(w.u)))
        for s in traj.states:
            assert np.max(np.abs(to_physical(s.u))) < cap


class TestLinearTrajectory:
    def test_matches_exact_propagator(self):
        w = make_state(51)
        traj = linear_trajectory(w, 1.0, 0.25)
        assert traj.times.size == 5
        for t, s in zip(traj.times, traj.states):
            ref = propagate_linear(w, float(t))
            assert np.max(np.abs(s.u.coeffs - ref.u.coeffs)) < 1e-14

    def test_energy_exact_along_orbit(self):
        w = make_state(52)
        traj = linear_trajectory(w, 2.0, 0.5)
        e = [0.5 * (sobolev_norm(s.u, 1.0) ** 2 + sobolev_norm(s.v, 0.0) ** 2)
             for s in traj.states]
        assert max(e) - min(e) < 1e-12 * e[0]


class TestConservation:
    def test_energy_closed_form_p3(self):
        # u = a cos(k x1), v = b cos(k x2): E = b^2 L^3/4 + a^2 k^2 L^3/4
        #                                       + 3 a^4 L^3 / 32
        a, b = 1.5, 0.75
        u = single_mode(G3, (2, 0, 0), amplitude=a)
        v = single_mode(G3, (0, 1, 0), amplitude=b)
        w = WaveState(u=u, v=v)
        k = 2.0 * G3.k_spacing
        vol = G3.L ** 3
        expected = (b * b * vol / 4.0 + a * a * k * k * vol / 4.0
                    + 3.0 * a ** 4 * vol / 32.0)
        assert true_energy(w, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_energy_drift_scales_like_dt_squared(self):
        w = make_state(61, amp=1.5)
        def drift(dt):
            cfg = StepperConfig(dt=dt, p=4.0)
            e0 = true_energy(w, 4.0)
            traj = evolve(w, 1.0, cfg, sample_interval=0.25, keep_states=False,
                          observer=None)
            return abs(true_energy(traj.final, 4.0) - e0) / e0
        d1, d2 = drift(1.0 / 32), drift(1.0 / 64)
        assert d1 < 1e-5
        assert d1 / d2 == pytest.approx(4.0, rel=0.3)

    def test_momentum_closed_form(self):
        # u = a cos(k x1), v = b sin(k x1): P1 = -a b k L^3 / 2
        a, b = 1.2, 0.8
        k_idx = 3
        u = single_mode(G3, (k_idx, 0, 0), amplitude=a)
        v = single_mode(G3, (k_idx, 0, 0), amplitude=-1j * b)
        w = WaveState(u=u, v=v)
        k = k_idx * G3.k_spacing
        expected = -a * b * k * G3.L ** 3 / 2.0
        got = momentum(w)
        assert got[0] == pytest.approx(expected, rel=1e-12)
        assert abs(got[1]) < 1e-12 and abs(got[2]) < 1e-12

    def test_momentum_drift_small(self):
        w = make_state(62, amp=1.5)
        p0 = momentum(w)
        traj = evolve(w, 1.0, StepperConfig(dt=1.0 / 32, p=4.0),
                      sample_interval=0.5, keep_states=False)
        p1 = momentum(traj.final)
        scale = pair_sobolev_norm(w, 1.0) ** 2
        assert np.max(np.abs(p1 - p0)) < 1e-7 * scale


class TestResidual:
    def test_solver_trajectory_residual_refines_at_second_order(self):
        w = make_state(71, amp=1.5)
        def res(h):
            cfg = StepperConfig(dt=h, p=4.0)
            traj = evolve(w, 4.0 * h, cfg, sample_interval=h)
            return pde_residual(traj.states[1], traj.states[2], traj.states[3], 4.0)
        r1, r2 = res(1.0 / 16), res(1.0 / 32)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_linear_orbit_fails_the_nonlinear_equation(self):
        w = make_state(72, amp=1.5)
        h = 1.0 / 32
        lin = linear_trajectory(w, 4.0 * h, h)
        bad = pde_residual(lin.states[1], lin.states[2], lin.states[3], 4.0)
        cfg = StepperConfig(dt=h, p=4.0)
        sol = evolve(w, 4.0 * h, cfg, sample_interval=h)
        good = pde_residual(sol.states[1], sol.states[2], sol.states[3], 4.0)
        assert bad > 10.0 * good

    def test_rejects_bad_triples(self):
        w = make_state(73)
        cfg = StepperConfig(dt=0.125, p=4.0)
        traj = evolve(w, 0.5, cfg, sample_interval=0.125)
        s = traj.states
        with pytest.raises(FieldError):
            pde_residual(s[0], s[1], s[3], 4.0)  # unequal spacing
        other = make_state(74, grid=G1, cutoff=10.0)
        with pytest.raises(FieldError):
            pde_residual(s[0], other, s[2], 4.0)
