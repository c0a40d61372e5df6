"""Transform contract, multipliers, norms, splits, and snapshots.

Exactness tests pin the conventions everything downstream leans on: the
1/n^3 forward normalization, the mean-free and empty-Nyquist invariants,
and the closed-form norms of single cosine modes.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlwlab
from nlwlab.fields import (
    _BUFFERS,
    FieldError,
    Grid,
    MultiplierSpec,
    _check_oversample,
    _clean,
    _complete,
    _half_band,
    _kmag,
    _power,
    _resize,
    _sample_slabs,
    _symbol,
    _workspace,
    apply_multiplier,
    frequency_split,
    from_coeffs,
    from_physical,
    lebesgue_norm,
    low_pass,
    power_multiplier,
    smoothing_multiplier,
    smoothing_profile,
    sobolev_norm,
    to_physical,
)
from nlwlab.diagnostics import OrbitMeter, smoothed_energy
from nlwlab.dynamics import WaveState, _nonlinear_raw, nonlinear_term, pde_residual, true_energy
from nlwlab.params import PdeParams, TripleMQR, reference_triples
from modes import single_mode, wavenumber_of_index, zero_field
from test_spectral_reference import (
    BIT_SHAPES, block_slices, reference_band, reference_samples, reverse_indices)

G3 = Grid(n=16, L=32.0)
# unit wavenumber spacing; its single modes along x carry one-dimensional oracles
GX = Grid(n=16, L=2.0 * math.pi)
G32 = Grid(n=32, L=32.0)  # the benchmark's grid: 8 x-planes a slab at m = 64


def random_field(grid, seed, decay=0.0):
    """Random mean-free real field; decay > 0 damps high shells like |k|^-decay."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = from_coeffs(grid, c)
    if decay > 0.0:
        f = apply_multiplier(f, power_multiplier(-decay))
    return f


class TestGrid:
    def test_rejects_bad_geometry(self):
        with pytest.raises(FieldError, match="dim must be 3, got 1"):
            Grid(16, 1.0, dim=1)
        with pytest.raises(FieldError):
            Grid(n=16, L=1.0, dim=2)
        with pytest.raises(FieldError):
            Grid(n=12, L=1.0, dim=3)
        with pytest.raises(FieldError):
            Grid(n=8, L=1.0, dim=3)
        with pytest.raises(FieldError):
            Grid(n=16, L=-1.0, dim=3)
        with pytest.raises(FieldError):
            Grid(n=16, L=math.inf, dim=3)

    def test_spacings(self):
        assert G3.spacing == pytest.approx(2.0, rel=1e-15)
        assert G3.k_spacing == pytest.approx(math.pi / 16.0, rel=1e-15)
        assert G3.nyquist == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_max_wavenumber_is_corner_mode(self):
        # largest mode below the Nyquist planes: index (7,7,7) on n=16
        assert G3.max_wavenumber == pytest.approx(
            (math.pi / 16.0) * 7.0 * math.sqrt(3.0), rel=1e-15)
        assert GX.max_wavenumber == pytest.approx(7.0 * math.sqrt(3.0), rel=1e-15)

    def test_axis_wavenumbers_layout(self):
        k = GX.axis_wavenumbers()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(1.0, rel=1e-15)
        assert k[-1] == pytest.approx(-1.0, rel=1e-15)
        assert np.max(np.abs(k)) == pytest.approx(GX.nyquist, rel=1e-15)
        assert GX.nyquist == pytest.approx(8.0, rel=1e-15)


class TestTransform:
    def test_single_cosine_coefficients(self):
        f = single_mode(G3, (1, 0, 0), amplitude=3.0)
        c = f.coeffs
        assert c[1, 0, 0] == pytest.approx(1.5)
        assert c[-1, 0, 0] == pytest.approx(1.5)
        assert np.count_nonzero(c) == 2

    def test_single_cosine_samples(self):
        f = single_mode(G3, (1, 0, 0), amplitude=3.0)
        x = G3.axis_coordinates()
        expected = 3.0 * np.cos(2.0 * math.pi * x / G3.L)
        got = to_physical(f)[:, 0, 0]
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_zero_field(self):
        assert np.all(zero_field(G3).coeffs == 0.0)
        assert np.all(to_physical(zero_field(G3)) == 0.0)

    def test_round_trip_physical_side(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f = random_field(G3, rng.integers(1 << 31))
            samples = to_physical(f)
            back = to_physical(from_physical(G3, samples))
            scale = np.max(np.abs(samples))
            assert np.max(np.abs(back - samples)) < 1e-12 * scale

    def test_round_trip_spectral_side(self):
        f = random_field(G3, 7)
        back = from_physical(G3, to_physical(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_from_physical_matches_c2c_and_is_hermitian(self, grid):
        samples = np.random.default_rng(19).standard_normal(grid.shape)
        got = from_physical(grid, samples).coeffs
        ref = np.fft.fftn(samples) / grid.num_points
        keep = got != 0.0  # mean mode and Nyquist planes are cleaned
        assert np.max(np.abs(got[keep] - ref[keep])) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(got, np.conj(reverse_indices(got)))

    def test_from_physical_rejects_wrong_shape(self):
        with pytest.raises(FieldError):
            from_physical(G3, np.zeros((8, 8, 8)))

    def test_conforming_coeffs_round_trip_bitwise(self):
        f = random_field(G3, 11)
        again = from_coeffs(G3, f.coeffs.copy())
        assert np.array_equal(again.coeffs, f.coeffs)

    def test_from_coeffs_projects_conventions(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(G3.shape) + 1j * rng.standard_normal(G3.shape)
        f = from_coeffs(G3, raw)
        c = f.coeffs
        assert c[0, 0, 0] == 0.0
        assert np.all(c[8, :, :] == 0.0)
        assert np.all(c[:, 8, :] == 0.0)
        assert np.all(c[:, :, 8] == 0.0)
        sym = 0.5 * (c + np.conj(reverse_indices(c)))
        assert np.max(np.abs(sym - c)) < 1e-15

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_from_coeffs_is_the_reflected_mean_bit_for_bit(self, n):
        # (c + conj(c at -k)) / 2 through `_conj_mirror`, against the same
        # formula through the flip-and-roll oracle, the signs of zeros included
        grid = Grid(n=n, L=32.0)
        rng = np.random.default_rng(n)
        for _ in range(5):
            c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            c.real[rng.random(grid.shape) < 0.1] = -0.0
            c.imag[rng.random(grid.shape) < 0.1] = -0.0
            c.imag[rng.random(grid.shape) < 0.1] = 0.0
            want = _clean(grid, 0.5 * (c + np.conj(reverse_indices(c))))
            got = from_coeffs(grid, c).coeffs
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_fields_are_immutable(self):
        f = random_field(G3, 5)
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0] = 1.0


class TestSingleModeValidation:
    def test_rejects_zero_mode(self):
        with pytest.raises(FieldError):
            single_mode(G3, (0, 0, 0))

    def test_rejects_nyquist(self):
        with pytest.raises(FieldError):
            single_mode(G3, (8, 0, 0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(FieldError):
            single_mode(G3, (1, 0))

    def test_wavenumber_of_index_wraps(self):
        assert wavenumber_of_index(G3, (1, 0, 0)) == pytest.approx(
            G3.k_spacing, rel=1e-15)
        assert wavenumber_of_index(G3, (15, 0, 0)) == pytest.approx(
            G3.k_spacing, rel=1e-15)
        assert wavenumber_of_index(G3, (3, 4, 0)) == pytest.approx(
            5.0 * G3.k_spacing, rel=1e-15)


class TestMultipliers:
    def test_smoothing_identity_below_cutoff(self):
        # band-limit the field under the cutoff, then the operator is exact identity
        cutoff = 4.0 * G3.k_spacing
        f, _ = frequency_split(random_field(G3, 21), cutoff)
        g = apply_multiplier(f, smoothing_multiplier(cutoff, 0.95))
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_smoothing_power_law_above_twice_cutoff(self):
        s = 0.95
        cutoff = GX.k_spacing  # |k| = 4 sits at rho = 4
        f = single_mode(GX, (4, 0, 0), amplitude=1.0)
        g = apply_multiplier(f, smoothing_multiplier(cutoff, s))
        expected = 0.5 * 4.0 ** (s - 1.0)
        assert g.coeffs[4, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_power_composition(self):
        f = random_field(G3, 13)
        one = apply_multiplier(apply_multiplier(f, power_multiplier(0.7)),
                               power_multiplier(-0.3))
        two = apply_multiplier(f, power_multiplier(0.4))
        scale = np.max(np.abs(two.coeffs))
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-10 * scale

    def test_multiplier_sequence_matches_composition(self):
        f = random_field(G3, 17)
        seq = apply_multiplier(f, (power_multiplier(0.5), low_pass(0.6)))
        nested = apply_multiplier(apply_multiplier(f, power_multiplier(0.5)),
                                  low_pass(0.6))
        assert np.array_equal(seq.coeffs, nested.coeffs)

    @pytest.mark.parametrize("entry", ["apply_multiplier", "sobolev_norm", "lebesgue_norm"])
    def test_negative_power_demands_mean_free(self, entry):
        # the norms promise `apply_multiplier`'s product, so they share its check
        c = np.zeros(G3.shape, dtype=np.complex128)
        c[0, 0, 0] = 1.0
        c[1, 0, 0] = c[-1, 0, 0] = 0.5
        dirty = type(random_field(G3, 0))(grid=G3, coeffs=c)
        mults = (smoothing_multiplier(0.5, 0.9), power_multiplier(-0.5))
        call = {"apply_multiplier": lambda: apply_multiplier(dirty, mults),
                "sobolev_norm": lambda: sobolev_norm(dirty, 0.5, mults),
                "lebesgue_norm": lambda: lebesgue_norm(dirty, 5.0, 1, mults)}[entry]
        with pytest.raises(FieldError, match="negative-order multiplier on a field with a mean"):
            call()

    def test_hermitian_symmetry_preserved(self):
        f = random_field(G3, 23)
        g = apply_multiplier(f, smoothing_multiplier(0.5, 0.9))
        sym = 0.5 * (g.coeffs + np.conj(reverse_indices(g.coeffs)))
        assert np.max(np.abs(sym - g.coeffs)) < 1e-15

    def test_symbol_is_cached_read_only(self):
        spec = smoothing_multiplier(0.5, 0.9)
        sym = _symbol(G3, spec)
        assert sym is _symbol(G3, smoothing_multiplier(0.5, 0.9))
        assert not sym.flags.writeable
        f = random_field(G3, 29)
        assert np.array_equal(apply_multiplier(f, spec).coeffs,
                              f.coeffs * spec.symbol(_kmag(G3)))

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_half_symbol_is_the_contiguous_half_of_the_full_one(self, n):
        # every kernel reads these halves, built on the half |k|
        grid = Grid(n=n, L=32.0)
        specs = [power_multiplier(order) for order in (0.25, -0.25, 0.1375, 1.9, -1.0)]
        for spec in specs + [smoothing_multiplier(4.0, 0.95), low_pass(4.0)]:
            half = _symbol(grid, spec)
            assert not half.flags.writeable and half.flags.c_contiguous
            assert half.shape == (n, n, n // 2)
            assert np.array_equal(half, spec.symbol(_kmag(grid))[..., :n // 2])
        _symbol.cache_clear()  # the n = 64 symbols would hold 7 MiB

    def test_no_kernel_evaluates_a_symbol_on_the_full_grid(self, monkeypatch):
        # every |k| a symbol is evaluated on is the k_z < n/2 half
        n = G32.n
        state = WaveState(u=random_field(G32, 46, decay=1.0), v=random_field(G32, 47))
        params = PdeParams(p=4.0, s=0.95)
        meter = OrbitMeter((2.0, 4.0), 0.95, 4.0, reference_triples(params),
                           energies=True)
        smoother = smoothing_multiplier(4.0, 0.95)
        shapes = []
        symbol = MultiplierSpec.symbol

        def spy(spec, kmag):
            shapes.append(kmag.shape)
            return symbol(spec, kmag)

        monkeypatch.setattr(MultiplierSpec, "symbol", spy)
        _symbol.cache_clear()
        sobolev_norm(state.u, 0.95)
        sobolev_norm(state.u, 1.0, (smoother,))
        lebesgue_norm(state.u, 5.3, 1, (power_multiplier(-0.05), smoother))
        apply_multiplier(state.u, (power_multiplier(-0.3), smoother))
        smoothed_energy(state, 4.0, params.s, params.p)
        true_energy(state, params.p)
        meter(state)
        assert shapes and set(shapes) == {(n, n, n // 2)}

    def test_unknown_kind_rejected(self):
        with pytest.raises(FieldError):
            apply_multiplier(random_field(G3, 1), MultiplierSpec(kind="bogus"))
        with pytest.raises(FieldError):
            smoothing_multiplier(0.0, 0.95)


class TestSmoothingProfile:
    def test_plateau_power_law_and_monotonicity(self):
        s = 0.95
        rho = np.linspace(1e-3, 8.0, 4001)
        vals = smoothing_profile(rho, s)
        assert np.all(vals[rho <= 1.0] == 1.0)
        above = rho >= 2.0
        expected = rho[above] ** (s - 1.0)
        assert np.max(np.abs(vals[above] - expected)) < 1e-14
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals > 0.0)

    def test_transition_is_continuous(self):
        s = 0.8
        eps = 1e-8
        lo = smoothing_profile(np.array([1.0 + eps]), s)[0]
        hi = smoothing_profile(np.array([2.0 - eps]), s)[0]
        assert lo == pytest.approx(1.0, abs=1e-7)
        assert hi == pytest.approx(2.0 ** (s - 1.0), abs=1e-7)

    def test_symbol_scan_bound(self):
        # sup over grid modes of |k|^(1-s) eta(|k|/N) / N^(1-s): 1 outside the
        # blend band, at most 2^(1-s) inside it
        s, cutoff = 0.95, 0.5
        kmag = np.linspace(1e-3, G3.max_wavenumber, 2000)
        ratio = kmag ** (1.0 - s) * smoothing_profile(kmag / cutoff, s) \
            / cutoff ** (1.0 - s)
        assert np.max(ratio) <= 2.0 ** (1.0 - s) + 1e-12
        tail = kmag >= 2.0 * cutoff
        assert np.max(np.abs(ratio[tail] - 1.0)) < 1e-12


def sobolev_oracle(field, sigma):
    """sqrt(L^3 sum (c.real c.real + c.imag c.imag) |k|^(2 sigma)), with |k|
    built here from the axis wavenumbers and the zero mode weighted 0."""
    grid, c = field.grid, field.coeffs
    ax = grid.axis_wavenumbers()
    kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
    kmag = np.sqrt(kx * kx + ky * ky + kz * kz)
    weight = np.where(kmag > 0.0, kmag, 1.0) ** (2.0 * sigma)
    weight[kmag == 0.0] = 0.0
    return math.sqrt(grid.L ** grid.dim
                     * float(np.sum((c.real * c.real + c.imag * c.imag) * weight)))


def half_sobolev_oracle(field, sigma):
    """The same sum over the k_z < n/2 half, with |k| built here from the
    axis wavenumbers (k_z from the first n/2) and Hermitian weights: a k_z > 0
    mode stands for itself and its k_z < 0 mirror, weight 2, and the k_z = 0
    plane, its own mirror, weight 1, so sum = 2 sum_half - sum_(k_z = 0)."""
    grid, h = field.grid, field.grid.n // 2
    c = field.coeffs[..., :h]
    ax = grid.axis_wavenumbers()
    kx, ky, kz = np.meshgrid(ax, ax, ax[:h], indexing="ij")
    kmag = np.sqrt(kx * kx + ky * ky + kz * kz)
    weight = np.where(kmag > 0.0, kmag, 1.0) ** (2.0 * sigma)
    weight[kmag == 0.0] = 0.0
    power = (c.real * c.real + c.imag * c.imag) * weight
    return math.sqrt(grid.L ** grid.dim
                     * float(2.0 * np.sum(power) - np.sum(power[..., 0])))


class TestSobolevNorm:
    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_equals_oracle_bit_for_bit(self, grid):
        s = 0.95
        for seed in range(3):
            f = random_field(grid, seed, decay=1.5)
            for sigma in (0.0, 1.0, s, s - 1.0):
                norm = sobolev_norm(f, sigma)
                assert norm == half_sobolev_oracle(f, sigma)
                assert abs(norm - sobolev_oracle(f, sigma)) <= 1e-14 * norm

    @pytest.mark.parametrize("multipliers", [
        (smoothing_multiplier(0.7, 0.95),),
        (power_multiplier(-0.3), smoothing_multiplier(0.7, 0.95))], ids=["one", "two"])
    def test_multipliers_equal_the_applied_product_bit_for_bit(self, multipliers):
        for seed in range(3):
            f = random_field(G32, 40 + seed, decay=1.0)
            before = f.coeffs.copy()
            product = apply_multiplier(f, multipliers)
            for sigma in (0.0, 1.0, -0.05):
                assert sobolev_norm(f, sigma, multipliers) == sobolev_norm(product, sigma)
            assert np.array_equal(f.coeffs, before)

    def test_identity_multiplier_is_skipped(self):
        # c * 1.0 == c for every finite c, so a power of order 0 changes no
        # norm, and neither norm builds or caches its all-ones symbol
        f = random_field(G32, 43, decay=1.0)
        smoother = smoothing_multiplier(0.7, 0.95)
        _symbol.cache_clear()
        without = (sobolev_norm(f, 0.95, (smoother,)), lebesgue_norm(f, 5.3, 1, (smoother,)),
                   lebesgue_norm(f, 5.0, 2, (smoother,)))
        cached = _symbol.cache_info().currsize
        identity = power_multiplier(0.0)
        assert (sobolev_norm(f, 0.95, (identity, smoother)),
                lebesgue_norm(f, 5.3, 1, (identity, smoother)),
                lebesgue_norm(f, 5.0, 2, (smoother, identity))) == without
        assert sobolev_norm(f, 0.95, (identity,)) == sobolev_norm(f, 0.95)
        assert lebesgue_norm(f, 5.3, 1, (identity,)) == lebesgue_norm(f, 5.3, 1)
        assert _symbol.cache_info().currsize == cached

    def test_single_mode_closed_form(self):
        # amplitude A cosine at |k0|: norm = A |k0|^sigma sqrt(L^3 / 2)
        amp, sigma = 2.5, 0.7
        f = single_mode(G3, (3, 0, 0), amplitude=amp)
        k0 = 3.0 * G3.k_spacing
        expected = amp * k0 ** sigma * math.sqrt(G3.L ** 3 / 2.0)
        assert sobolev_norm(f, sigma) == pytest.approx(expected, rel=1e-12)

    def test_zero_order_is_l2(self):
        for seed in range(100):
            f = random_field(G3, seed)
            a = sobolev_norm(f, 0.0)
            b = lebesgue_norm(f, 2.0)
            assert abs(a - b) / a < 1e-12

    def test_power_multiplier_shifts_order(self):
        f = random_field(G3, 31)
        lhs = sobolev_norm(apply_multiplier(f, power_multiplier(0.35)), 0.6)
        rhs = sobolev_norm(f, 0.95)
        assert abs(lhs - rhs) / rhs < 1e-12

    def test_smoothed_gradient_bound(self):
        # |Iu|_{H^1} <= 2 N^(1-s) |u|_{H^s}: equality power counting at high
        # frequency, the blend band costs at most 2^(1-s) < 2
        s = 0.95
        rng = np.random.default_rng(505)
        for _ in range(1000):
            f = random_field(G3, rng.integers(1 << 31))
            n_cut = float(rng.choice([2.0, 4.0, 8.0, 16.0])) * G3.k_spacing
            lhs = sobolev_norm(apply_multiplier(f, smoothing_multiplier(n_cut, s)), 1.0)
            rhs = 2.0 * n_cut ** (1.0 - s) * sobolev_norm(f, s)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_smoothing_contracts_h1(self):
        for seed in range(50):
            f = random_field(G3, seed + 1000)
            g = apply_multiplier(f, smoothing_multiplier(0.7, 0.9))
            assert sobolev_norm(g, 1.0) <= sobolev_norm(f, 1.0) * (1.0 + 1e-12)


class TestLebesgueNorm:
    def test_cosine_l2(self):
        amp = 1.75
        f = single_mode(G3, (2, 1, 0), amplitude=amp)
        expected = amp * math.sqrt(G3.L ** 3 / 2.0)
        assert lebesgue_norm(f, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_cosine_l4(self):
        # integral of cos^4 over the box is 3 L^3 / 8
        f = single_mode(G3, (1, 0, 0), amplitude=1.0)
        expected = (3.0 * G3.L ** 3 / 8.0) ** 0.25
        assert lebesgue_norm(f, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_oversampled_quadrature_is_alias_free(self):
        # u^4 carries per-axis modes up to 4(n/2 - 1) = 28, so the base grid
        # (16 nodes) aliases it while any padded factor >= 2 integrates exactly
        f = random_field(G3, 77, decay=1.0)
        assert lebesgue_norm(f, 2.0, oversample=2) == pytest.approx(
            lebesgue_norm(f, 2.0), rel=1e-13)
        a = lebesgue_norm(f, 4.0, oversample=2)
        b = lebesgue_norm(f, 4.0, oversample=4)
        base = lebesgue_norm(f, 4.0)
        assert a == pytest.approx(b, rel=1e-12)
        assert abs(base - a) / a > 1e-10

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("multipliers", [
        (smoothing_multiplier(0.7, 0.95),),
        (power_multiplier(-0.3), smoothing_multiplier(0.7, 0.95))], ids=["one", "two"])
    def test_multipliers_equal_the_applied_product_bit_for_bit(self, multipliers, factor):
        for seed in range(3):
            f = random_field(G32, 50 + seed, decay=1.0)
            before = f.coeffs.copy()
            product = apply_multiplier(f, multipliers)
            for r in (5.0, 5.3):
                assert (lebesgue_norm(f, r, factor, multipliers)
                        == lebesgue_norm(product, r, factor))
            assert np.array_equal(f.coeffs, before)

    def test_rejects_bad_exponent(self):
        f = random_field(G3, 1)
        with pytest.raises(FieldError):
            lebesgue_norm(f, 0.5)
        with pytest.raises(FieldError):
            lebesgue_norm(f, math.inf)

    @pytest.mark.parametrize("grid,factor", BIT_SHAPES)
    @pytest.mark.parametrize("r", [5.0, 5.3])
    def test_workspace_matches_unpruned_formula_bit_for_bit(self, grid, factor, r):
        # a whole r is formed by products in the documented order,
        # |u| (|u|^2 |u|^2); any other by numpy's pow kernel
        f = random_field(grid, 15, decay=1.0)
        w = np.abs(reference_samples(grid, f.coeffs, factor * grid.n))
        if r == 5.0:
            w = w * ((w * w) * (w * w))
        else:
            np.power(w, r, out=w)
        expected = float(grid.L ** grid.dim / w.size * np.sum(w)) ** (1.0 / r)
        assert lebesgue_norm(f, r, factor) == expected
        assert lebesgue_norm(f, r, factor) == expected  # the reused workspace

    @pytest.mark.parametrize("grid", [G3, G32], ids=["n16", "n32"])
    def test_slab_sums_add_up_to_the_sum_of_the_whole(self, grid):
        # at r = 1 the norm is the sum itself, so its last bit shows the order
        # of the additions: eight slab sums reproduce numpy's pairwise sum of
        # the whole, where four would miss it on some of these seeds
        for seed in range(12):
            f = random_field(grid, 100 + seed, decay=1.0)
            w = np.abs(reference_samples(grid, f.coeffs, 2 * grid.n))
            assert lebesgue_norm(f, 1.0, 2) == float(grid.L ** 3 / w.size * np.sum(w))


class TestPower:
    """`_power`: whole exponents by IEEE products in a fixed order, any other
    by `np.power`, always in place."""

    @staticmethod
    def factors(w, k):
        """The factors of w^k in the documented order: the squares w^(2^j) of
        the set bits of k, lowest first, each written out as products."""
        w2 = w * w
        w4 = w2 * w2
        w8 = w4 * w4
        return {0: (), 1: (w,), 2: (w2,), 3: (w, w2), 4: (w4,), 5: (w, w4),
                6: (w2, w4), 7: (w, w2, w4), 8: (w8,), 9: (w, w8)}[k]

    @staticmethod
    def samples():
        rng = np.random.default_rng(41)
        return rng.uniform(0.0, 3.0, 4096), rng.standard_normal(4096)

    @pytest.mark.parametrize("k", range(10))
    def test_whole_exponent_is_written_out_products(self, k):
        w, u = self.samples()
        f = self.factors(w, k)
        alone = np.ones_like(w) if k == 0 else f[0]
        for x in f[1:]:
            alone = alone * x
        times = u
        for x in f:
            times = times * x
        assert np.array_equal(_power(w.copy(), float(k), np.empty_like(w), False), alone)
        assert np.array_equal(_power(w.copy(), float(k), u.copy(), True), times)

    @pytest.mark.parametrize("k", range(10))
    def test_whole_exponent_within_k_ulps_of_np_power(self, k):
        w, u = self.samples()
        w = w[w > 0.0]
        ref = np.power(w, float(k))
        got = _power(w.copy(), float(k), np.empty_like(w), False)
        assert np.max(np.abs(got - ref) / ref) <= k * 2.0 ** -52
        got = _power(w.copy(), float(k), np.ones_like(w), True)
        assert np.max(np.abs(got - ref) / ref) <= k * 2.0 ** -52

    @pytest.mark.parametrize("e", [5.0, 5.3])
    @pytest.mark.parametrize("times", [False, True], ids=["alone", "times"])
    def test_writes_in_place_with_no_new_array(self, e, times):
        w, u = self.samples()
        w, out = np.tile(w, 64), np.tile(u, 64)
        tracemalloc.start()
        try:
            got = _power(w, e, out, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out
        assert peak < w.nbytes // 8

    @staticmethod
    def spy(monkeypatch):
        calls = []
        original = np.power

        def power(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "power", power)
        return calls

    # a factor-2 pass streams its samples in 8 slabs, each with its own power
    @pytest.mark.parametrize("p,expected", [(4.0, []), (4.3, [4.3 - 1.0] * 8)])
    def test_kick_calls_np_power_only_for_fractional_p(self, p, expected, monkeypatch):
        u = random_field(G3, 42, decay=1.0)
        calls = self.spy(monkeypatch)
        nonlinear_term(u, p, 2)
        assert calls == expected

    @pytest.mark.parametrize("r,expected", [(5.0, []), (5.3, [5.3] * 8)])
    def test_quadrature_calls_np_power_only_for_fractional_r(self, r, expected,
                                                             monkeypatch):
        f = random_field(G3, 43, decay=1.0)
        calls = self.spy(monkeypatch)
        lebesgue_norm(f, r, 2)
        assert calls == expected


def oversampled_values(field, factor):
    """Physical samples on a factor-times-finer grid (trigonometric values):
    the padded transform that the kick and `lebesgue_norm` stream slab by
    slab through a workspace, assembled into a new array."""
    grid = field.grid
    m = _check_oversample(factor) * grid.n
    out = np.empty((m,) * grid.dim)
    for rows, samples in _sample_slabs(grid, field.coeffs, m, _workspace(grid.n, m)):
        out[rows] = samples
    return out


def workspace_arrays(ws):
    """Every ndarray a workspace holds, those in lists included."""
    values = [a for v in vars(ws).values() for a in (v if isinstance(v, list) else (v,))]
    return [a for a in values if isinstance(a, np.ndarray)]


def workspace_bytes(*workspaces):
    """Bytes of the distinct buffers of some workspaces (`spec`, `work`, ...
    and the views of every m of one n share memory, and count once)."""
    bases = {}
    for a in (a for ws in workspaces for a in workspace_arrays(ws)):
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


def fresh_workspaces():
    """Drop every workspace buffer and view, as in a new process."""
    _BUFFERS.clear()
    _workspace.cache_clear()


def factor_workspaces(n, factors):
    """The workspaces of n at each factor, taken once every one of them has
    been made: a view taken before a buffer grows keeps the old buffer."""
    for k in factors:
        _workspace(n, k * n)
    return [_workspace(n, k * n) for k in factors]


class TestWorkspaceMemory:
    """The oversampled transforms stream slabs of x-planes, so a workspace
    holds no m^3 buffer and a kick or a quadrature allocates next to nothing."""

    def test_grids_of_one_size_share_a_workspace(self):
        # the buffers depend on n alone: box lengths L, 2L and 4L (the
        # rescaled grids of `scaling`) and factors 1 and 2 run in one set
        fresh_workspaces()
        for L in (8.0, 16.0, 32.0):
            f = random_field(Grid(n=16, L=L), 49)
            to_physical(f)
            lebesgue_norm(f, 5.0, 2)
        one, two = factor_workspaces(16, (1, 2))
        for role in ("rows", "pad", "phys", "spec"):
            assert np.shares_memory(getattr(one, role), getattr(two, role))
        assert sorted(_BUFFERS) == [16] and len(_BUFFERS[16]) == 4

    def test_buffers_of_factors_1_and_2_are_shared_and_hold_at_most_1_3_mib(self):
        # each buffer is as large as the larger m needs: 1.27 MiB at n = 32,
        # against 1.02 + 1.13 MiB for a workspace of its own per m
        fresh_workspaces()
        one, two = factor_workspaces(G32.n, (1, 2))
        for role in ("rows", "pad", "phys", "spec"):
            assert np.shares_memory(getattr(one, role), getattr(two, role))
        assert workspace_bytes(one, two) <= 1.3 * 2 ** 20

    def test_interleaved_factors_equal_fresh_calls(self):
        # factor 3 grows the buffers of n, so the views of factors 1 and 2
        # cached before it are dropped and made again after it
        f = random_field(G3, 50, decay=1.0)
        mults = (power_multiplier(-0.05), smoothing_multiplier(4.0, 0.95))
        factors = (1, 2, 3, 2, 1)
        fresh_workspaces()
        got = [lebesgue_norm(f, r, k, mults) for k in factors for r in (5.0, 5.3)]
        one, three = _workspace(G3.n, G3.n), _workspace(G3.n, 3 * G3.n)
        assert np.shares_memory(one.rows, three.rows)  # made after the growth
        want = []
        for k in factors:
            for r in (5.0, 5.3):
                fresh_workspaces()
                _symbol.cache_clear()
                want.append(lebesgue_norm(f, r, k, mults))
        assert got == want

    @staticmethod
    def traced_peak(fn):
        fn()  # builds the workspace and the caches
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_kick_allocates_only_the_half_it_returns(self):
        u = random_field(G32, 44, decay=1.0)
        half, peak = self.traced_peak(lambda: _nonlinear_raw(G32, u.coeffs, 4.0, 2))
        assert peak <= half.nbytes + 64 * 2 ** 10

    @pytest.mark.parametrize("multipliers", [
        (), (power_multiplier(-0.3), smoothing_multiplier(0.7, 0.95))], ids=["none", "two"])
    def test_sobolev_norm_allocates_under_64_kib(self, multipliers):
        # the product and |c|^2 are formed in the (n, n) workspace
        f = random_field(G32, 42, decay=1.0)
        _, peak = self.traced_peak(lambda: sobolev_norm(f, 0.95, multipliers))
        assert peak < 64 * 2 ** 10

    def test_oversampled_quadrature_allocates_under_64_kib(self):
        f = random_field(G32, 45, decay=1.0)
        _, peak = self.traced_peak(lambda: lebesgue_norm(f, 5.0, 2))
        assert peak < 64 * 2 ** 10

    @pytest.mark.parametrize("factor,multipliers", [
        (1, (power_multiplier(-0.05), smoothing_multiplier(4.0, 0.95))),
        (2, (smoothing_multiplier(4.0, 0.95),))], ids=["1", "2"])
    def test_quadrature_with_multipliers_allocates_under_96_kib(self, factor, multipliers):
        # real-by-real products into `half` need no cast of the symbol, and
        # the symbols' halves are contiguous; what remains (65 KiB) are
        # numpy's buffers for the strided real and imaginary parts
        f = random_field(G32, 45, decay=1.0)
        _, peak = self.traced_peak(lambda: lebesgue_norm(f, 5.3, factor, multipliers))
        assert peak < 96 * 2 ** 10

    def test_meter_builds_no_field(self):
        # each (cutoff, triple) norm multiplies u's half in a workspace
        # buffer; composing `apply_multiplier` would build a 512 KiB field
        meter = OrbitMeter((2.0, 4.0), 0.95, 4.0, reference_triples(PdeParams(p=4.0, s=0.95)))
        state = WaveState(u=random_field(G32, 46, decay=1.0), v=random_field(G32, 47))
        _, peak = self.traced_peak(lambda: meter(state))
        assert peak < G32.num_points * 16

    def test_meter_builds_no_full_grid_power_symbol(self, monkeypatch):
        # the quadrature reads the D^(1-m) symbols as k_z < n/2 halves only
        state = WaveState(u=random_field(G32, 46, decay=1.0), v=random_field(G32, 47))
        meter = OrbitMeter((2.0, 4.0), 0.95, 4.0, reference_triples(PdeParams(p=4.0, s=0.95)))
        built = []
        symbol = MultiplierSpec.symbol

        def spy(spec, kmag):
            built.append((spec.kind, kmag.shape))
            return symbol(spec, kmag)

        monkeypatch.setattr(MultiplierSpec, "symbol", spy)
        _symbol.cache_clear()
        meter(state)
        powers = [shape for kind, shape in built if kind == "power"]
        assert powers and set(powers) == {(G32.n, G32.n, G32.n // 2)}


class TestOversampleFactor:
    """Every entry point takes the factor under `StepperConfig`'s rule."""

    @staticmethod
    def states():
        u = random_field(G3, 48, decay=1.0)
        return [WaveState(u=u * (1.0 + 0.1 * i), v=u, t=0.25 * i) for i in range(3)]

    @pytest.mark.parametrize("factor", [0, -1, 1.5, 2.0])
    @pytest.mark.parametrize("entry", ["nonlinear_term", "pde_residual", "lebesgue_norm",
                                       "smoothed_energy", "true_energy"])
    def test_rejects_anything_but_an_integer_at_least_one(self, entry, factor):
        w = self.states()
        call = {
            "nonlinear_term": lambda: nonlinear_term(w[0].u, 4.0, factor),
            "pde_residual": lambda: pde_residual(*w, 4.0, factor),
            "lebesgue_norm": lambda: lebesgue_norm(w[0].u, 5.0, factor),
            "smoothed_energy": lambda: smoothed_energy(w[0], 4.0, 0.95, 4.0, factor),
            "true_energy": lambda: true_energy(w[0], 4.0, factor),
        }[entry]
        with pytest.raises(FieldError, match=f"^oversample must be an integer >= 1, "
                                             f"got {factor}$"):
            call()


class TestWorkspaceBoundary:
    """Only `fields` drives the transform workspaces: no other module of the
    package imports or names its workspace, slab, transform-step, power,
    reflection or completion helpers."""

    SEALED = {"_workspace", "_Workspace", "_buffer", "_sample_slabs", "_fold_slab",
              "_fold_half", "_power", "_symbol", "_complete", "_resize", "_forward",
              "_half_band", "_conj_mirror", "_clean"}

    def test_every_sealed_name_is_defined_in_fields(self):
        # a name that fields no longer defines would guard nothing
        tree = ast.parse((Path(nlwlab.__file__).parent / "fields.py").read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert self.SEALED <= defined

    def test_no_other_module_names_a_workspace_helper(self):
        root = Path(nlwlab.__file__).parent
        modules = sorted(root.rglob("*.py"))
        assert root / "fields.py" in modules and root / "dynamics.py" in modules
        found = []
        for path in modules:
            if path == root / "fields.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.alias):
                    names = {node.name, node.name.rsplit(".", 1)[-1]}
                elif isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                found += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in names & self.SEALED]
        assert found == []


class TestOversampledValues:
    def test_factor_one_is_plain_transform(self):
        f = random_field(G3, 8)
        assert np.array_equal(oversampled_values(f, 1), to_physical(f))

    def test_exact_trigonometric_interpolation(self):
        f = single_mode(GX, (3, 0, 0), amplitude=2.0)
        fine = oversampled_values(f, 4)
        x = np.arange(4 * GX.n) * (GX.L / (4 * GX.n))
        expected = 2.0 * np.cos(3.0 * x)
        assert np.max(np.abs(fine - expected[:, None, None])) < 1e-12

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_successive_results_stay_fresh(self, grid):
        f, g = random_field(grid, 16), random_field(grid, 17)
        meter = OrbitMeter((0.5,), 0.95, 4.0, (TripleMQR(0.5, 4.0, 5.3),))
        buffers = [a for m in (grid.n, 2 * grid.n)
                   for a in workspace_arrays(_workspace(grid.n, m))]
        for transform in (to_physical, lambda x: oversampled_values(x, 2),
                          lambda x: from_physical(grid, to_physical(x)).coeffs):
            first = transform(f)
            kept = first.copy()
            assert not any(np.shares_memory(first, b) for b in buffers)
            lebesgue_norm(g, 5.0, 2)  # runs in the (n, 2n) workspace
            lebesgue_norm(g, 5.0, 1)  # and these two in the (n, n) one
            meter(WaveState(u=g, v=g))
            second = transform(g)
            assert np.array_equal(first, kept)
            assert not np.shares_memory(first, second)
            assert np.array_equal(second, transform(g))

    def test_rejects_silly_factor(self):
        with pytest.raises(FieldError):
            oversampled_values(random_field(G3, 1), 0)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_matches_c2c_reference(self, grid, factor):
        f = random_field(grid, 12, decay=1.0)
        m = factor * grid.n
        big = np.zeros((m,) * grid.dim, dtype=np.complex128)
        for src, dst in block_slices(grid.n, m, grid.dim):
            big[dst] = f.coeffs[src]
        ref = np.real(np.fft.ifftn(big)) * m ** grid.dim
        got = oversampled_values(f, factor)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_pad_truncate_round_trip_is_exact(self, grid, factor):
        f = random_field(grid, 13)
        m, h = factor * grid.n, grid.n // 2
        for axis in range(grid.dim):
            # NaN-filled buffers: every entry of a result is written
            shape = list(grid.shape)
            shape[axis] = m
            wide = _resize(f.coeffs, axis, m, h, np.full(shape, np.nan, dtype=complex))
            assert wide.shape[axis] == m
            assert np.count_nonzero(wide) == np.count_nonzero(f.coeffs)
            narrow = np.full(grid.shape, np.nan, dtype=complex)
            assert np.array_equal(_resize(wide, axis, grid.n, h, narrow), f.coeffs)

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_pruned_transforms_match_reference_bit_for_bit(self, grid, factor):
        f = random_field(grid, 13)
        m = factor * grid.n
        samples = oversampled_values(f, factor)
        assert np.array_equal(samples, reference_samples(grid, f.coeffs, m))
        # generic samples carry modes beyond the band, which _half_band drops
        rough = np.random.default_rng(14).standard_normal((m,) * grid.dim)
        for data in (samples, rough):
            band = _complete(grid, _half_band(grid, data, _workspace(grid.n, m)))
            assert np.array_equal(band, reference_band(grid, data))

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_half_band_is_the_kept_half_of_band(self, grid, factor):
        h = grid.n // 2
        rough = np.random.default_rng(15).standard_normal((factor * grid.n,) * grid.dim)
        half = _half_band(grid, rough, _workspace(grid.n, factor * grid.n))
        assert half.shape == grid.shape[:-1] + (h,)
        assert np.array_equal(half, reference_band(grid, rough)[..., :h])

    @pytest.mark.parametrize("grid", [G3], ids=["dim3"])
    def test_complete_rebuilds_a_field_from_its_half(self, grid):
        f = random_field(grid, 16)
        full = _complete(grid, f.coeffs[..., :grid.n // 2])
        assert np.array_equal(full, f.coeffs)
        assert not np.shares_memory(full, f.coeffs)


class TestFrequencySplit:
    def test_exact_reconstruction(self):
        f = random_field(G3, 55)
        low, high = frequency_split(f, 0.4)
        assert np.array_equal(low.coeffs + high.coeffs, f.coeffs)

    def test_supports_are_disjoint(self):
        f = random_field(G3, 56)
        low, high = frequency_split(f, 0.4)
        assert np.all((low.coeffs == 0.0) | (high.coeffs == 0.0))
        assert np.array_equal(apply_multiplier(low, low_pass(0.4)).coeffs, low.coeffs)
        assert sobolev_norm(apply_multiplier(high, low_pass(0.4)), 0.0) == 0.0

    def test_cutoff_above_grid_keeps_everything(self):
        f = random_field(G3, 57)
        low, high = frequency_split(f, G3.max_wavenumber + 1.0)
        assert np.array_equal(low.coeffs, f.coeffs)
        assert np.all(high.coeffs == 0.0)

    def test_tiny_cutoff_keeps_nothing(self):
        f = random_field(G3, 58)
        low, high = frequency_split(f, 1e-12)
        assert np.all(low.coeffs == 0.0)
        assert np.array_equal(high.coeffs, f.coeffs)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(FieldError):
            frequency_split(random_field(G3, 1), 0.0)
        # one rule: the sharp cutoff refuses what the smoothing one does
        for cutoff in (0.0, -1.0):
            with pytest.raises(FieldError, match=f"cutoff must be positive, got {cutoff}"):
                low_pass(cutoff)

    @pytest.mark.parametrize("cutoff", [0.4, 1.0, 2.5])
    def test_low_part_is_the_low_pass_multiplier(self, cutoff):
        f = random_field(G3, 59)
        low, high = frequency_split(f, cutoff)
        assert np.array_equal(low.coeffs, apply_multiplier(f, low_pass(cutoff)).coeffs)
        assert np.array_equal(high.coeffs, (f - low).coeffs)

    def test_high_part_bernstein(self):
        # per-coefficient: |k| > N makes |k|^(2 sp) <= N^(2(sp-s)) |k|^(2s)
        sp, s = 5.0 / 6.0, 0.95
        for seed in range(50):
            f = random_field(G3, seed + 7)
            cutoff = 0.5
            _, high = frequency_split(f, cutoff)
            lhs = sobolev_norm(high, sp)
            rhs = cutoff ** (sp - s) * sobolev_norm(high, s)
            assert lhs <= rhs * (1.0 + 1e-12)

