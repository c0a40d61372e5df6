"""Stepper contract: exact linear part, kick oracles, convergence, invariants.

Closed-form oracles use single cosine modes (harmonic rotation, trig-identity
cubes); statistical checks use band-limited random data at amplitude O(1).
"""

import math
import weakref

import numpy as np
import pytest

from nlwlab.dynamics import (
    MAX_KEPT_BYTES,
    MAX_STEPS,
    BlowUpError,
    StepperConfig,
    Trajectory,
    WaveState,
    evolve,
    linear_trajectory,
    nonlinear_term,
    pair_sobolev_norm,
    pde_residual,
    propagate_linear,
    state_difference,
    step_plan,
    strang_step,
    true_energy,
)
import nlwlab.dynamics as dynamics
from nlwlab.fields import (
    FieldError,
    Grid,
    _kmag,
    _make,
    apply_multiplier,
    from_coeffs,
    lebesgue_norm,
    low_pass,
    power_multiplier,
    sobolev_norm,
    to_physical,
)
from modes import single_mode, zero_field
from test_spectral_reference import (
    BIT_SHAPES, block_slices, reference_band, reference_samples, reverse_indices)

G3 = Grid(n=16, L=32.0)
# unit wavenumber spacing; its fields vary along x only, so the
# one-dimensional oracles below hold on the k_y = k_z = 0 line
GX = Grid(n=64, L=2.0 * math.pi)


def from_full(grid, full):
    """The field whose full-layout coefficients are `full`, an oracle's
    result: its k_z < n/2 half, which is all a field holds."""
    return _make(grid, np.ascontiguousarray(full[..., :grid.n // 2]))


def nonlinear_kick(state, duration, cfg):
    """Momentum kick v <- v - duration * |u|^(p-1) u; u and t unchanged.

    The oracle of a single separate kick, against which `evolve`'s fused
    half-kicks are checked; it kicks the full layout.
    """
    g = nonlinear_term(state.u, cfg.p, cfg.oversample).coeffs
    return WaveState(u=state.u, v=from_full(state.grid, state.v.coeffs - duration * g),
                     t=state.t)


def rotate_full(state, duration):
    """Free-wave rotation of the full layout by full-grid symbols computed
    afresh from `_kmag`: the oracle of `propagate_linear`'s cached
    half-spectrum kernel."""
    kmag = _kmag(state.grid)
    phase = kmag * duration
    cos = np.cos(phase)
    sin = np.sin(phase)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(kmag > 0.0, sin / np.where(kmag > 0.0, kmag, 1.0), duration)
    neg_ksin = -(kmag * sin)
    uc, vc = state.u.coeffs, state.v.coeffs
    return WaveState(u=from_full(state.grid, cos * uc + sinc * vc),
                     v=from_full(state.grid, neg_ksin * uc + cos * vc),
                     t=state.t + duration)


def momentum(state):
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
            WaveState(u=zero_field(G3), v=zero_field(GX))

    def test_config_validation(self):
        with pytest.raises(FieldError):
            StepperConfig(dt=0.0, p=4.0)
        with pytest.raises(FieldError):
            StepperConfig(dt=0.1, p=1.0)
        with pytest.raises(FieldError):
            StepperConfig(dt=0.1, p=4.0, oversample=0)

    @pytest.mark.parametrize("p", [math.nan, 1.0, 0.5, -2.0])
    @pytest.mark.parametrize("entry", ["nonlinear_term", "pde_residual"])
    def test_kick_power_must_exceed_one(self, entry, p):
        # the public kick and residual take the power under StepperConfig's rule
        u = band_field(G3, 41, cutoff=0.45)
        w = [WaveState(u=u * (1.0 + 0.1 * i), v=u, t=0.25 * i) for i in range(3)]
        call = {"nonlinear_term": lambda: nonlinear_term(u, p),
                "pde_residual": lambda: pde_residual(*w, p)}[entry]
        with pytest.raises(FieldError, match=f"^nonlinearity power must exceed 1, got {p}$"):
            call()

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
        w = WaveState(u=single_mode(GX, (3, 0, 0)), v=zero_field(GX), t=0.0)
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

    @pytest.mark.parametrize("grid, cutoff", [(G3, 0.45)], ids=["dim3"])
    @pytest.mark.parametrize("duration", [0.0, 1.0 / 16, -0.9])
    def test_half_kernel_matches_full_rotation_bit_for_bit(self, grid, cutoff, duration):
        # the kernel's halves are the full rotation's halves, the signs of
        # zeros included, since each is the same product of the same values
        w = make_state(14, grid=grid, cutoff=cutoff)
        w = WaveState(u=w.u, v=w.v, t=0.375)
        out = propagate_linear(w, duration)
        ref = rotate_full(w, duration)
        assert out.t == ref.t
        for got, want in ((out.u.half, ref.u.half), (out.v.half, ref.v.half)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        for sym in dynamics._rotation(grid, duration):
            assert sym.shape == grid.shape[:-1] + (grid.n // 2,)
            assert sym.flags.c_contiguous and not sym.flags.writeable


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
        u = single_mode(GX, (4, 0, 0), amplitude=a)
        g = nonlinear_term(u, 3.0, oversample=2)
        expected = (0.75 * a ** 3 * single_mode(GX, (4, 0, 0)).coeffs
                    + 0.25 * a ** 3 * single_mode(GX, (12, 0, 0)).coeffs)
        assert np.max(np.abs(g.coeffs - expected)) < 1e-13

    def test_cube_matches_spectral_convolution(self):
        # low band on n=64 keeps all of u^3 resolved; compare against the
        # centered triple convolution of the coefficient line
        rng = np.random.default_rng(21)
        c = np.zeros(GX.shape, dtype=np.complex128)
        c[:, 0, 0] = rng.standard_normal(GX.n) + 1j * rng.standard_normal(GX.n)
        u = apply_multiplier(from_coeffs(GX, c), (power_multiplier(-1.0), low_pass(10.0)))
        n = GX.n
        centered = np.fft.fftshift(u.coeffs[:, 0, 0])
        conv = np.convolve(np.convolve(centered, centered), centered)
        mid = 3 * (n // 2)  # index of mode 0 in the triple convolution
        oracle = np.zeros(GX.shape, dtype=np.complex128)
        for m in range(-(n // 2 - 1), n // 2):
            oracle[m % n, 0, 0] = conv[mid + m]
        oracle[0, 0, 0] = 0.0  # projection is mean-free
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
    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    @pytest.mark.parametrize("oversample", [1, 2, 3])
    def test_matches_c2c_reference(self, grid, oversample):
        u = band_field(grid, 31, cutoff=grid.nyquist, amp=2.0)
        g = nonlinear_term(u, 4.0, oversample).coeffs
        ref = c2c_kick(grid, u.coeffs, 4.0, oversample)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid,oversample", BIT_SHAPES)
    @pytest.mark.parametrize("p", [4.0, 4.3])
    def test_matches_unpruned_formula_bit_for_bit(self, grid, oversample, p):
        # a whole p - 1 is formed by products in the documented order,
        # u |u|, then times |u|^2; any other by numpy's pow kernel
        u = band_field(grid, 33, cutoff=grid.nyquist, amp=2.0)
        u_phys = reference_samples(grid, u.coeffs, oversample * grid.n)
        if p == 4.0:
            w = np.abs(u_phys)
            raw = u_phys * w * (w * w)
        else:
            raw = np.abs(u_phys) ** (p - 1.0) * u_phys
        ref = reference_band(grid, raw)
        assert np.array_equal(nonlinear_term(u, p, oversample).coeffs, ref)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    @pytest.mark.parametrize("oversample", [1, 2, 3])
    def test_output_is_exactly_hermitian_and_clean(self, grid, oversample):
        u = band_field(grid, 32, cutoff=grid.nyquist, amp=2.0)
        g = nonlinear_term(u, 3.5, oversample).coeffs
        assert np.array_equal(g, np.conj(reverse_indices(g)))
        assert g[(0,) * grid.dim] == 0.0
        for axis in range(grid.dim):
            assert not np.any(np.take(g, grid.n // 2, axis=axis))


class TestWorkspaceIsolation:
    """The kick and lebesgue_norm reuse one workspace per (n, m); nothing
    they return may alias it or change when it is reused."""

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_successive_kicks_stay_fresh(self, grid):
        u1 = band_field(grid, 34, cutoff=grid.nyquist, amp=2.0)
        u2 = band_field(grid, 35, cutoff=grid.nyquist, amp=1.0)
        first = nonlinear_term(u1, 4.0, 2).half
        kept = first.copy()
        second = nonlinear_term(u2, 4.0, 2).half
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert np.array_equal(nonlinear_term(u1, 4.0, 2).half, kept)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_lebesgue_norm_after_kick(self, grid):
        u1 = band_field(grid, 36, cutoff=grid.nyquist, amp=2.0)
        u2 = band_field(grid, 37, cutoff=grid.nyquist, amp=1.0)
        before = lebesgue_norm(u2, 5.0, 2)
        g = nonlinear_term(u1, 4.0, 2).half
        kept = g.copy()
        assert lebesgue_norm(u2, 5.0, 2) == before
        assert np.array_equal(g, kept)

    def test_kept_states_survive_later_runs(self):
        cfg = StepperConfig(dt=0.125, p=4.0)
        traj = evolve(make_state(38, amp=2.0), 0.75, cfg, sample_interval=0.25)
        kept = [(s.u.half.copy(), s.v.half.copy()) for s in traj.states]
        arrays = [a for s in traj.states for a in (s.u.half, s.v.half)]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])
        evolve(make_state(39, amp=1.0), 0.75, cfg, sample_interval=0.25)
        nonlinear_term(traj.final.u, 4.0, 2)
        for s, (u, v) in zip(traj.states, kept):
            assert np.array_equal(s.u.half, u) and np.array_equal(s.v.half, v)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_kick_takes_full_or_half_and_returns_half(self, grid):
        # a strided view of the full layout's half gives the contiguous
        # half's bits, and so does the field rebuilt from the full layout
        f = band_field(grid, 40, cutoff=grid.nyquist, amp=2.0)
        h = grid.n // 2
        from_full = dynamics._nonlinear_raw(grid, f.coeffs[..., :h], 4.0, 2)
        from_half = dynamics._nonlinear_raw(grid, f.half, 4.0, 2)
        assert from_full.shape == grid.shape[:-1] + (h,)
        assert np.array_equal(from_full, from_half)
        assert np.array_equal(nonlinear_term(from_coeffs(grid, f.coeffs), 4.0, 2).half,
                              from_half)


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

    @pytest.mark.parametrize("grid, cutoff", [(G3, 0.45)], ids=["dim3"])
    @pytest.mark.parametrize("oversample", [1, 2])
    def test_matches_kick_rotate_kick_bit_for_bit(self, grid, cutoff, oversample):
        # reference: the step as its own composition of the public pieces
        w = make_state(34, grid=grid, cutoff=cutoff)
        w = WaveState(u=w.u, v=w.v, t=0.375)
        cfg = StepperConfig(dt=1.0 / 16, p=4.0, oversample=oversample)
        ref = nonlinear_kick(w, 0.5 * cfg.dt, cfg)
        ref = rotate_full(ref, cfg.dt)
        ref = nonlinear_kick(ref, 0.5 * cfg.dt, cfg)
        out = strang_step(w, cfg)
        assert np.array_equal(out.u.coeffs, ref.u.coeffs)
        assert np.array_equal(out.v.coeffs, ref.v.coeffs)
        assert out.t == ref.t

    @pytest.mark.parametrize("grid, cutoff", [(G3, 0.45)], ids=["dim3"])
    @pytest.mark.parametrize("oversample", [1, 2])
    def test_multi_interval_run_matches_separate_half_kicks_bit_for_bit(
            self, grid, cutoff, oversample):
        # evolve evaluates the kick at each interior observation once and
        # carries half spectra; the reference kicks the full state twice there
        w = make_state(35, grid=grid, cutoff=cutoff, amp=2.0)
        w = WaveState(u=w.u, v=w.v, t=0.375)
        cfg = StepperConfig(dt=1.0 / 16, p=4.3, oversample=oversample)
        traj = evolve(w, 6.0 * cfg.dt, cfg, sample_interval=2.0 * cfg.dt)
        ref, expected = w, [w]
        for _ in range(3):
            ref = nonlinear_kick(ref, 0.5 * cfg.dt, cfg)
            ref = rotate_full(ref, cfg.dt)
            ref = nonlinear_kick(ref, cfg.dt, cfg)
            ref = rotate_full(ref, cfg.dt)
            ref = nonlinear_kick(ref, 0.5 * cfg.dt, cfg)
            expected.append(ref)
        assert len(traj.states) == len(expected) == 4
        for got, want in zip(traj.states, expected):
            assert np.array_equal(got.u.coeffs, want.u.coeffs)
            assert np.array_equal(got.v.coeffs, want.v.coeffs)
            assert got.t == want.t

    @pytest.mark.parametrize("grid, cutoff", [(G3, 0.45)], ids=["dim3"])
    def test_kept_states_are_exactly_hermitian_and_clean(self, grid, cutoff):
        w = make_state(36, grid=grid, cutoff=cutoff, amp=2.0)
        traj = evolve(w, 0.75, StepperConfig(dt=0.125, p=4.3), sample_interval=0.25)
        for state in traj.states:
            for c in (state.u.coeffs, state.v.coeffs):
                assert c.shape == grid.shape
                assert np.array_equal(c, np.conj(reverse_indices(c)))
                assert c[(0,) * grid.dim] == 0.0
                for axis in range(grid.dim):
                    assert not np.any(np.take(c, grid.n // 2, axis=axis))

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
        times = np.array([s.t for s in traj.states])
        assert times.size == 11
        assert np.all(np.diff(times) > 0.0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.625)
        assert len(traj.states) == 11
        assert traj.states[-1] is traj.final

    def test_step_plan(self):
        assert step_plan(1.0, 0.25, 0.1) == (4, 3, 0.25 / 3)
        assert step_plan(0.5, 0.125, 0.125) == (4, 1, 0.125)
        # a step above the interval is cut to it
        assert step_plan(1.0, 0.25, 1.0) == (4, 1, 0.25)
        # a tiny step is over the cap, without overflowing the count
        with pytest.raises(FieldError, match="cap"):
            step_plan(1.0, 1.0, 5e-324)
        with pytest.raises(FieldError, match="outside"):
            step_plan(1.0, 0.0, 0.1)
        with pytest.raises(FieldError, match="integer number"):
            step_plan(1.0, 0.3, 0.1)

    def test_step_plan_cap_is_inclusive(self):
        assert step_plan(float(MAX_STEPS), 1.0, 1.0) == (MAX_STEPS, 1, 1.0)
        assert step_plan(MAX_STEPS / 4, 1.0, 0.25)[:2] == (MAX_STEPS // 4, 4)
        for args in ((MAX_STEPS + 1.0, 1.0, 1.0), (MAX_STEPS / 4, 1.0, 0.2),
                     (1e300, 1e-10, 1.0), (1.0, 0.25, 0.0)):
            with pytest.raises(FieldError):
                step_plan(*args)

    def test_kept_states_capped(self):
        # a 16^3 state of u and v takes 2^17 bytes: 16384 of them fill the cap
        count = MAX_KEPT_BYTES // (32 * G3.num_points)
        assert count == 16384
        assert step_plan(count - 1.0, 1.0, 1.0, G3)[0] == count - 1
        assert step_plan(float(count), 1.0, 1.0)[0] == count
        with pytest.raises(FieldError, match="kept states"):
            step_plan(float(count), 1.0, 1.0, G3)
        w = make_state(3)
        cfg = StepperConfig(dt=1.0, p=4.0)
        with pytest.raises(FieldError, match="kept states"):
            evolve(w, float(count), cfg)
        with pytest.raises(FieldError, match="kept states"):
            linear_trajectory(w, float(count), 1.0)

    def test_reports_step_and_counts(self, monkeypatch):
        calls = []
        original = dynamics._nonlinear_raw
        def counted(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(dynamics, "_nonlinear_raw", counted)
        w = make_state(49)
        cfg = StepperConfig(dt=0.2, p=4.0)
        traj = evolve(w, 0.75, cfg, sample_interval=0.25, keep_states=False)
        # 3 intervals of 2 steps; the 2 interior observations share a kick
        assert (traj.h, traj.steps, traj.kicks) == (0.125, 6, 7)
        assert len(calls) == 7
        # strang_step's run: one step, a half-kick at each end
        step = evolve(w, cfg.dt, cfg, keep_states=False)
        assert (step.h, step.steps, step.kicks) == (cfg.dt, 1, 2)
        assert np.array_equal(step.final.v.coeffs, strang_step(w, cfg).v.coeffs)
        lin = linear_trajectory(w, 0.5, 0.25)
        assert (lin.h, lin.steps, lin.kicks) == (None, 0, 0)

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

    @pytest.mark.parametrize("keep", [False, True], ids=["dropped", "kept"])
    def test_no_observed_sample_is_alive_during_the_kicks(self, keep, monkeypatch):
        # without keep_states each sample is dropped once the observer
        # returns, before the kicks that follow it; kept states stay alive
        # and unchanged
        seen, copies, checked = [], [], []
        original = dynamics._nonlinear_raw

        def kick(*args):
            if seen:
                checked.append([ref() is None for ref in seen])
            return original(*args)

        def observer(state):
            seen.append(weakref.ref(state))
            copies.append((state.u.coeffs.copy(), state.v.coeffs.copy()))

        monkeypatch.setattr(dynamics, "_nonlinear_raw", kick)
        traj = evolve(make_state(57), 0.75, StepperConfig(dt=0.125, p=4.0),
                      sample_interval=0.25, keep_states=keep, observer=observer)
        assert len(seen) == 4 and len(checked) == 7  # every kick
        assert all(dead == [not keep] * len(dead) for dead in checked)
        assert seen[-1]() is traj.final
        if keep:
            assert all(ref() is state for ref, state in zip(seen, traj.states))
            for state, (u, v) in zip(traj.states, copies):
                assert np.array_equal(state.u.coeffs, u)
                assert np.array_equal(state.v.coeffs, v)

    @pytest.mark.parametrize("run,completed", [
        (strang_step, 2),
        # a `continuity` run: its sample 0 is read by nobody
        (lambda w, cfg: evolve(w, 1.0, cfg, sample_interval=1.0, keep_states=False), 2),
        (lambda w, cfg: evolve(w, 0.75, cfg, sample_interval=0.25), 8),
        (lambda w, cfg: evolve(w, 0.75, cfg, sample_interval=0.25, keep_states=False,
                               observer=lambda state: None), 8),
    ], ids=["strang-step", "unread", "kept", "observed"])
    def test_only_kept_observed_and_final_samples_are_completed(self, run, completed,
                                                                monkeypatch):
        # each built sample is two `_make` calls, for u and for v
        calls = []
        original = dynamics._make

        def make(grid, half):
            calls.append(grid)
            return original(grid, half)

        monkeypatch.setattr(dynamics, "_make", make)
        run(make_state(59, grid=Grid(n=32, L=32.0)), StepperConfig(dt=0.125, p=4.0))
        assert len(calls) == completed

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
        assert len(traj.states) == 5
        for s in traj.states:
            ref = propagate_linear(w, s.t)
            assert np.max(np.abs(s.u.coeffs - ref.u.coeffs)) < 1e-14

    def test_energy_exact_along_orbit(self):
        w = make_state(52)
        traj = linear_trajectory(w, 2.0, 0.5)
        e = [0.5 * (sobolev_norm(s.u, 1.0) ** 2 + sobolev_norm(s.v, 0.0) ** 2)
             for s in traj.states]
        assert max(e) - min(e) < 1e-12 * e[0]

    @pytest.mark.parametrize("interval", [0.0, -0.0625])
    def test_rejects_non_positive_interval(self, interval):
        with pytest.raises(FieldError, match="outside"):
            linear_trajectory(make_state(53), 1.0, interval)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_each_sample_is_the_propagator_of_the_one_before(self, grid):
        w = make_state(54, grid=grid)
        w = WaveState(u=w.u, v=w.v, t=0.375)
        traj = linear_trajectory(w, 1.0, 0.25)
        assert traj.states[0] is w and traj.final is traj.states[-1]
        for i, (prev, s) in enumerate(zip(traj.states, traj.states[1:]), 1):
            ref = rotate_full(prev, 0.25)
            assert s.t == 0.375 + 0.25 * i
            assert np.array_equal(s.u.coeffs, ref.u.coeffs)
            assert np.array_equal(s.v.coeffs, ref.v.coeffs)

    def test_long_orbit_rotates_by_one_cached_duration(self):
        # 65 samples, one rotation symbol: the second run misses nothing
        w = make_state(57)
        dynamics._rotation.cache_clear()
        linear_trajectory(w, 4.0, 1.0 / 16, keep_states=False)
        first = dynamics._rotation.cache_info()
        linear_trajectory(w, 4.0, 1.0 / 16, keep_states=False)
        second = dynamics._rotation.cache_info()
        assert first.currsize == second.currsize == 1
        assert second.misses - first.misses == 0

    def test_observed_run_keeps_nothing(self, monkeypatch):
        w = make_state(55)
        kept = linear_trajectory(w, 1.0, 0.25)
        seen = []
        live = linear_trajectory(w, 1.0, 0.25, keep_states=False, observer=seen.append)
        assert live.states is None
        assert live.final.t == kept.final.t
        assert len(seen) == len(kept.states) == 5
        for a, b in zip(seen, kept.states):
            assert a.t == b.t
            assert np.array_equal(a.u.coeffs, b.u.coeffs)
            assert np.array_equal(a.v.coeffs, b.v.coeffs)
        assert live.final is seen[-1]
        # with room for 4 states, only the kept run of 5 is refused
        monkeypatch.setattr(dynamics, "MAX_KEPT_BYTES", 4 * 32 * G3.num_points)
        with pytest.raises(FieldError, match="kept states"):
            linear_trajectory(w, 1.0, 0.25)
        linear_trajectory(w, 1.0, 0.25, keep_states=False)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_last_sample_released_before_the_next(self, grid, monkeypatch):
        seen = []
        propagate = dynamics.propagate_linear

        def spy(state, duration):
            # only the sample before it is alive while the next is built
            assert [ref() is not None for ref in seen] == [False] * (len(seen) - 1) + [True]
            assert state is seen[-1]() and duration == 0.25
            return propagate(state, duration)

        def observer(state):
            # no earlier sample, the input included, outlives the next
            assert all(ref() is None for ref in seen)
            seen.append(weakref.ref(state))

        monkeypatch.setattr(dynamics, "propagate_linear", spy)
        linear_trajectory(make_state(56, grid=grid), 1.0, 0.25, keep_states=False,
                          observer=observer)
        assert len(seen) == 5


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
        other = make_state(74, grid=GX, cutoff=10.0)
        with pytest.raises(FieldError):
            pde_residual(s[0], other, s[2], 4.0)
