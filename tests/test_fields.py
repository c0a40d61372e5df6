"""Transform contract, multipliers, norms, splits, and snapshots.

Exactness tests pin the conventions everything downstream leans on: the
1/n^dim forward normalization, the mean-free and empty-Nyquist invariants,
and the closed-form norms of single cosine modes.
"""

import math

import numpy as np
import pytest

from nlwlab.fields import (
    FieldError,
    Grid,
    _pad,
    _reverse_indices,
    _symbol,
    _truncate,
    apply_multiplier,
    block_slices,
    fields_from_bytes,
    fields_to_bytes,
    frequency_split,
    from_coeffs,
    from_physical,
    hermitian_symmetrize,
    high_pass,
    lebesgue_norm,
    low_pass,
    oversampled_values,
    power_multiplier,
    read_fields,
    shell_spectrum,
    single_mode,
    smoothing_multiplier,
    smoothing_profile,
    sobolev_norm,
    to_physical,
    wavenumber_of_index,
    write_fields,
    write_spectrum_csv,
    zero_field,
)

G3 = Grid(n=16, L=32.0, dim=3)
G1 = Grid(n=64, L=2.0 * math.pi, dim=1)


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
        assert G1.max_wavenumber == pytest.approx(31.0, rel=1e-15)

    def test_axis_wavenumbers_layout(self):
        k = G1.axis_wavenumbers()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(1.0, rel=1e-15)
        assert k[-1] == pytest.approx(-1.0, rel=1e-15)
        assert np.max(np.abs(k)) == pytest.approx(G1.nyquist, rel=1e-15)


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

    @pytest.mark.parametrize("grid", [G1, G3], ids=["dim1", "dim3"])
    def test_from_physical_matches_c2c_and_is_hermitian(self, grid):
        samples = np.random.default_rng(19).standard_normal(grid.shape)
        got = from_physical(grid, samples).coeffs
        ref = np.fft.fftn(samples) / grid.num_points
        keep = got != 0.0  # mean mode and Nyquist planes are cleaned
        assert np.max(np.abs(got[keep] - ref[keep])) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(got, np.conj(_reverse_indices(got)))

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
        sym = hermitian_symmetrize(G3, np.asarray(c))
        assert np.max(np.abs(sym - c)) < 1e-15

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
        cutoff = G1.k_spacing  # |k| = 4 sits at rho = 4
        f = single_mode(G1, (4,), amplitude=1.0)
        g = apply_multiplier(f, smoothing_multiplier(cutoff, s))
        expected = 0.5 * 4.0 ** (s - 1.0)
        assert g.coeffs[4] == pytest.approx(expected, rel=1e-14)

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

    def test_negative_power_demands_mean_free(self):
        c = np.zeros(G3.shape, dtype=np.complex128)
        c[0, 0, 0] = 1.0
        c[1, 0, 0] = c[-1, 0, 0] = 0.5
        dirty = type(random_field(G3, 0))(grid=G3, coeffs=c)
        with pytest.raises(FieldError):
            apply_multiplier(dirty, power_multiplier(-0.5))

    def test_hermitian_symmetry_preserved(self):
        f = random_field(G3, 23)
        g = apply_multiplier(f, smoothing_multiplier(0.5, 0.9))
        sym = hermitian_symmetrize(G3, np.asarray(g.coeffs))
        assert np.max(np.abs(sym - g.coeffs)) < 1e-15

    def test_symbol_is_cached_read_only(self):
        spec = smoothing_multiplier(0.5, 0.9)
        sym = _symbol(G3, spec)
        assert sym is _symbol(G3, smoothing_multiplier(0.5, 0.9))
        assert not sym.flags.writeable
        f = random_field(G3, 29)
        assert np.array_equal(apply_multiplier(f, spec).coeffs, f.coeffs * sym)

    def test_unknown_kind_rejected(self):
        from nlwlab.fields import MultiplierSpec
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


class TestSobolevNorm:
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

    def test_rejects_bad_exponent(self):
        f = random_field(G3, 1)
        with pytest.raises(FieldError):
            lebesgue_norm(f, 0.5)
        with pytest.raises(FieldError):
            lebesgue_norm(f, math.inf)


class TestOversampledValues:
    def test_factor_one_is_plain_transform(self):
        f = random_field(G3, 8)
        assert np.array_equal(oversampled_values(f, 1), to_physical(f))

    def test_exact_trigonometric_interpolation(self):
        f = single_mode(G1, (3,), amplitude=2.0)
        fine = oversampled_values(f, 4)
        x = np.arange(4 * G1.n) * (G1.L / (4 * G1.n))
        expected = 2.0 * np.cos(3.0 * x)
        assert np.max(np.abs(fine - expected)) < 1e-12

    def test_rejects_silly_factor(self):
        with pytest.raises(FieldError):
            oversampled_values(random_field(G3, 1), 0)

    @pytest.mark.parametrize("grid", [G1, G3], ids=["dim1", "dim3"])
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

    @pytest.mark.parametrize("grid", [G1, G3], ids=["dim1", "dim3"])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_pad_truncate_round_trip_is_exact(self, grid, factor):
        f = random_field(grid, 13)
        half = _pad(grid, f.coeffs, factor * grid.n)
        assert half.shape == ((factor * grid.n,) * (grid.dim - 1)
                              + (factor * grid.n // 2 + 1,))
        assert np.array_equal(_truncate(grid, half), f.coeffs)

    def test_block_slices_round_trip(self):
        f = random_field(G3, 99)
        big = np.zeros((32,) * 3, dtype=np.complex128)
        for src, dst in block_slices(16, 32, 3):
            big[dst] = f.coeffs[src]
        back = np.zeros(G3.shape, dtype=np.complex128)
        for src, dst in block_slices(16, 32, 3):
            back[src] = big[dst]
        assert np.array_equal(back, f.coeffs)
        assert len(list(block_slices(16, 32, 3))) == 8


class TestFrequencySplit:
    def test_exact_reconstruction(self):
        f = random_field(G3, 55)
        low, high = frequency_split(f, 0.4)
        assert np.array_equal(low.coeffs + high.coeffs, f.coeffs)

    def test_supports_are_disjoint(self):
        f = random_field(G3, 56)
        low, high = frequency_split(f, 0.4)
        assert np.all((low.coeffs == 0.0) | (high.coeffs == 0.0))
        assert sobolev_norm(apply_multiplier(low, high_pass(0.4)), 0.0) == 0.0
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


class TestSerialization:
    def test_bytes_round_trip(self):
        f = random_field(G3, 101)
        g = random_field(G3, 102)
        blob = fields_to_bytes([f, g], t=1.25)
        grid, t, fields = fields_from_bytes(blob)
        assert grid == G3
        assert t == 1.25
        assert len(fields) == 2
        assert np.array_equal(fields[0].coeffs, f.coeffs)
        assert np.array_equal(fields[1].coeffs, g.coeffs)

    def test_file_round_trip(self, tmp_path):
        f = random_field(G1, 103)
        path = tmp_path / "snap.bin"
        write_fields(path, [f], t=0.5)
        grid, t, fields = read_fields(path)
        assert grid == G1 and t == 0.5
        assert np.array_equal(fields[0].coeffs, f.coeffs)

    def test_rejects_malformed_blobs(self):
        f = random_field(G1, 104)
        blob = fields_to_bytes([f])
        with pytest.raises(FieldError):
            fields_from_bytes(blob[:16])
        with pytest.raises(FieldError):
            fields_from_bytes(blob + b"\x00" * 8)

    def test_rejects_mixed_grids_and_empty(self):
        with pytest.raises(FieldError):
            fields_to_bytes([random_field(G3, 1), random_field(G1, 2)])
        with pytest.raises(FieldError):
            fields_to_bytes([])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FieldError):
            read_fields(tmp_path / "absent.bin")


class TestShellSpectrum:
    def test_energies_sum_to_l2_squared(self):
        f = random_field(G3, 201)
        _, energies = shell_spectrum(f)
        total = float(np.sum(energies))
        assert total == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-12)

    def test_single_mode_lands_in_its_shell(self):
        f = single_mode(G3, (3, 0, 0), amplitude=2.0)
        centers, energies = shell_spectrum(f)
        hot = int(np.argmax(energies))
        assert centers[hot] == pytest.approx(3.0 * G3.k_spacing, rel=1e-14)
        assert energies[hot] == pytest.approx(float(np.sum(energies)), rel=1e-14)

    def test_csv_output(self, tmp_path):
        f = random_field(G1, 202)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k_shell,energy"
        assert len(lines) == 1 + shell_spectrum(f)[1].size
