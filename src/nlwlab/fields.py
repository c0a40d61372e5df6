"""Periodic pseudospectral fields on a uniform grid.

A field is stored by its Fourier coefficients in numpy fftn layout with the
forward transform normalized by 1/n^dim, so a coefficient is the amplitude of
exp(i k.x) in the trigonometric expansion and wavenumbers are (2 pi / L) times
integer vectors.  Three conventions hold for every field in the package:

* the zero mode is 0 (mean-free convention),
* the unpaired Nyquist planes (any axis index n/2) are 0, so that real fields
  are exactly Hermitian and spectral padding/truncation is loss-free,
* coefficient arrays are frozen (writeable=False); operations return new fields.

Transforms act on real data, so they run real-to-complex from the half
spectrum (k_z >= 0, the last axis).  Coefficients stay stored in the full
layout; `_pad` and `_truncate` are the only places that move between the two,
and `_truncate` rebuilds the k_z < 0 half by Hermitian reflection, so every
transform result is exactly Hermitian.

Norms: the homogeneous Sobolev norm of order sigma is the weighted coefficient
l2 norm sqrt(L^dim * sum |k|^(2 sigma) |c_k|^2), which by the normalization
above coincides with the grid L2 norm at sigma = 0.  Lebesgue norms are
uniform-grid quadrature of |u|^r.

Binary snapshots: little-endian header (dim:int64, n:int64, L:float64,
t:float64) followed by one interleaved re/im float64 payload per field in
row-major wavenumber order.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_HEADER_BYTES = 32


class FieldError(ValueError):
    """Raised on grid mismatches, invalid multipliers, or malformed snapshots."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points per axis (power of two, >= 16) on [0, L)^dim."""

    n: int
    L: float
    dim: int = 3

    def __post_init__(self) -> None:
        if self.dim not in (1, 3):
            raise FieldError(f"dim must be 1 or 3, got {self.dim}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise FieldError(f"n must be a power of two >= 16, got {self.n}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise FieldError(f"box length must be positive and finite, got {self.L}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_points(self) -> int:
        return self.n ** self.dim

    @property
    def spacing(self) -> float:
        return self.L / self.n

    @property
    def k_spacing(self) -> float:
        return 2.0 * math.pi / self.L

    @property
    def nyquist(self) -> float:
        """Largest per-axis wavenumber magnitude, pi n / L."""
        return math.pi * self.n / self.L

    @property
    def max_wavenumber(self) -> float:
        """Largest representable |k|: the corner mode below the Nyquist planes."""
        return self.k_spacing * (self.n // 2 - 1) * math.sqrt(self.dim)

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing

    def axis_wavenumbers(self) -> np.ndarray:
        """Per-axis wavenumbers in fftn layout: (2 pi / L) * [0..n/2-1, -n/2..-1]."""
        return self.k_spacing * np.fft.fftfreq(self.n, d=1.0 / self.n)


@lru_cache(maxsize=64)
def _kmag(grid: Grid) -> np.ndarray:
    ax = grid.axis_wavenumbers()
    if grid.dim == 1:
        out = np.abs(ax)
    else:
        kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
        out = np.sqrt(kx * kx + ky * ky + kz * kz)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable Fourier-side field; build via from_coeffs / from_physical."""

    grid: Grid
    coeffs: np.ndarray

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _same_grid(self, other)
        return _make(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _same_grid(self, other)
        return _make(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "SpectralField":
        return _make(self.grid, self.coeffs * a)

    __rmul__ = __mul__


def _make(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """Wrap coefficients known to satisfy the field conventions (no checks)."""
    coeffs.flags.writeable = False
    return SpectralField(grid=grid, coeffs=coeffs)


def _same_grid(a: SpectralField, b: SpectralField) -> None:
    if a.grid != b.grid:
        raise FieldError(f"grid mismatch: {a.grid} vs {b.grid}")


def _clean(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Zero the mean mode and the unpaired Nyquist planes, in place."""
    half = grid.n // 2
    for axis in range(grid.dim):
        idx: list = [slice(None)] * grid.dim
        idx[axis] = half
        coeffs[tuple(idx)] = 0.0
    coeffs[(0,) * grid.dim] = 0.0
    return coeffs


def _reverse_indices(c: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -k: flip every axis, then roll by one."""
    out = np.flip(c)
    return np.roll(out, shift=(1,) * c.ndim, axis=tuple(range(c.ndim)))


def hermitian_symmetrize(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Project onto coefficients of a real field: c <- (c + conj(c at -k)) / 2."""
    return 0.5 * (coeffs + np.conj(_reverse_indices(coeffs)))


def from_coeffs(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """Build a field from arbitrary complex coefficients.

    The input is projected onto the package conventions: Hermitian symmetry,
    zero mean mode, empty Nyquist planes.  Already-conforming input round-trips
    bit for bit.
    """
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise FieldError(f"coefficient shape {arr.shape} != grid shape {grid.shape}")
    arr = hermitian_symmetrize(grid, arr)
    return _make(grid, _clean(grid, arr))


def zero_field(grid: Grid) -> SpectralField:
    return _make(grid, np.zeros(grid.shape, dtype=np.complex128))


def from_physical(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Forward transform of real grid samples, normalized by 1/n^dim."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape != grid.shape:
        raise FieldError(f"sample shape {arr.shape} != grid shape {grid.shape}")
    return _make(grid, _band(grid, arr))


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform to real grid samples."""
    return _samples(field.grid, field.coeffs, field.grid.n)


def single_mode(grid: Grid, index: tuple[int, ...], amplitude: complex = 1.0) -> SpectralField:
    """Real field amplitude * cos(k.x + phase) at wavenumber index.

    A complex amplitude a yields Re(a exp(i k.x)); the two symmetric
    coefficients are a/2 and conj(a)/2.  The zero mode and Nyquist indices are
    rejected since they cannot carry a paired mode.
    """
    if len(index) != grid.dim:
        raise FieldError(f"index length {len(index)} != dim {grid.dim}")
    half = grid.n // 2
    if all(i % grid.n == 0 for i in index):
        raise FieldError("zero mode cannot carry a field (mean-free convention)")
    if any(i % grid.n == half for i in index):
        raise FieldError("Nyquist indices are excluded by convention")
    c = np.zeros(grid.shape, dtype=np.complex128)
    pos = tuple(i % grid.n for i in index)
    neg = tuple((-i) % grid.n for i in index)
    c[pos] = 0.5 * amplitude
    c[neg] = 0.5 * np.conj(amplitude)
    return _make(grid, c)


def wavenumber_of_index(grid: Grid, index: tuple[int, ...]) -> float:
    """|k| for an integer index vector (indices interpreted symmetrically)."""
    signed = [i if i <= grid.n // 2 else i - grid.n for i in
              (j % grid.n for j in index)]
    return grid.k_spacing * math.sqrt(sum(i * i for i in signed))


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3 on [0, 1]."""
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smoothing_profile(rho, s: float):
    """Radial profile: 1 below 1, rho^-(1-s) above 2, smooth power ramp between.

    On 1 < rho < 2 the exponent is -(1-s) * smoothstep(log2 rho), which makes
    the profile continuous, non-increasing, and equal to the pure power law at
    rho = 2.
    """
    rho = np.asarray(rho, dtype=np.float64)
    out = np.ones_like(rho)
    high = rho >= 2.0
    out[high] = rho[high] ** (s - 1.0)
    mid = (rho > 1.0) & (rho < 2.0)
    if np.any(mid):
        t = np.log2(rho[mid])
        out[mid] = rho[mid] ** ((s - 1.0) * _smoothstep(t))
    return out


@dataclass(frozen=True)
class MultiplierSpec:
    """Radial Fourier multiplier; build via the factory functions below."""

    kind: str
    order: float = 0.0
    cutoff: float = 0.0
    s: float = 0.0

    def symbol(self, kmag: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            if self.order == 0.0:
                return np.ones_like(kmag)
            with np.errstate(divide="ignore"):
                sym = np.where(kmag > 0.0, kmag, 1.0) ** self.order
            sym[kmag == 0.0] = 0.0
            return sym
        if self.kind == "smoothing":
            return smoothing_profile(kmag / self.cutoff, self.s)
        if self.kind == "low_pass":
            return (kmag <= self.cutoff).astype(np.float64)
        if self.kind == "high_pass":
            return (kmag > self.cutoff).astype(np.float64)
        raise FieldError(f"unknown multiplier kind {self.kind!r}")


@lru_cache(maxsize=64)
def _symbol(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """The symbol of spec on the grid's |k|, computed once per (grid, spec)."""
    out = spec.symbol(_kmag(grid))
    out.flags.writeable = False
    return out


def power_multiplier(order: float) -> MultiplierSpec:
    """|k|^order; the zero mode is annihilated for any nonzero order."""
    return MultiplierSpec(kind="power", order=order)


def smoothing_multiplier(cutoff: float, s: float) -> MultiplierSpec:
    """Identity below the cutoff, (cutoff/|k|)^(1-s) damping above twice it."""
    if cutoff <= 0.0:
        raise FieldError(f"cutoff must be positive, got {cutoff}")
    return MultiplierSpec(kind="smoothing", cutoff=cutoff, s=s)


def cutoff_profile(cutoff: float, s: float) -> MultiplierSpec:
    """The raw radial profile of smoothing_multiplier, exposed for symbol scans."""
    return smoothing_multiplier(cutoff, s)


def low_pass(cutoff: float) -> MultiplierSpec:
    """Sharp indicator of |k| <= cutoff."""
    return MultiplierSpec(kind="low_pass", cutoff=cutoff)


def high_pass(cutoff: float) -> MultiplierSpec:
    """Sharp indicator of |k| > cutoff."""
    return MultiplierSpec(kind="high_pass", cutoff=cutoff)


def apply_multiplier(field: SpectralField, spec) -> SpectralField:
    """Multiply coefficients by one radial symbol or a sequence of them.

    A negative-order power multiplier demands a clean zero mode; the field
    conventions guarantee it, and a violation (hand-built coefficients) raises.
    """
    specs = (spec,) if isinstance(spec, MultiplierSpec) else tuple(spec)
    out = field.coeffs
    for sp in specs:
        if sp.kind == "power" and sp.order < 0.0 \
                and field.coeffs[(0,) * field.grid.dim] != 0.0:
            raise FieldError("negative-order multiplier on a field with a mean")
        out = out * _symbol(field.grid, sp)
    return _make(field.grid, np.ascontiguousarray(out))


# ---------------------------------------------------------------------------
# Norms and splits
# ---------------------------------------------------------------------------

def sobolev_norm(field: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm sqrt(L^dim sum |k|^(2 sigma) |c_k|^2).

    The zero mode carries no weight for any sigma (it is zero by convention,
    and negative orders are undefined there).
    """
    c = field.coeffs
    power = c.real * c.real + c.imag * c.imag
    if sigma != 0.0:
        power = power * _symbol(field.grid, power_multiplier(2.0 * sigma))
    return math.sqrt(field.grid.L ** field.grid.dim * float(np.sum(power)))


def block_slices(n_small: int, n_big: int, dim: int):
    """Per-axis slice pairs mapping a small spectrum into a bigger fftn layout.

    Yields (src, dst) index tuples covering the 2^dim corner blocks; with the
    Nyquist planes zero the copy is loss-free in both directions.
    """
    h = n_small // 2
    lo = slice(0, h)
    hi_small = slice(n_small - h, n_small)
    hi_big = slice(n_big - h, n_big)
    for combo in itertools.product(range(2), repeat=dim):
        yield (tuple(lo if c == 0 else hi_small for c in combo),
               tuple(lo if c == 0 else hi_big for c in combo))


def _pad(grid: Grid, coeffs: np.ndarray, m: int) -> np.ndarray:
    """Full n-point coefficients -> m-point half spectrum (rfftn layout).

    Only k_z in [0, n/2) is kept on the last axis; the rest is the Hermitian
    mirror or the empty Nyquist plane, so nothing is lost.
    """
    n, dim = grid.n, grid.dim
    kz = (slice(0, n // 2),)
    half = np.zeros((m,) * (dim - 1) + (m // 2 + 1,), dtype=np.complex128)
    for src, dst in block_slices(n, m, dim - 1):
        half[dst + kz] = coeffs[src + kz]
    return half


def _truncate(grid: Grid, half: np.ndarray) -> np.ndarray:
    """m-point half spectrum -> full n-point layout, exactly Hermitian and clean.

    The resolved k_z >= 0 half is copied, the k_z < 0 half is filled by
    Hermitian reflection, and the k_z = 0 plane, which both halves share, is
    replaced by its Hermitian part.
    """
    n, dim = grid.n, grid.dim
    kz = (slice(0, n // 2),)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for src, dst in block_slices(n, half.shape[0], dim - 1):
        out[src + kz] = half[dst + kz]
    out += np.conj(_reverse_indices(out))
    out[..., 0] *= 0.5
    return _clean(grid, out)


def _samples(grid: Grid, coeffs: np.ndarray, m: int) -> np.ndarray:
    """Real values of the coefficients on the m-point grid (m a multiple of n)."""
    return np.fft.irfftn(_pad(grid, coeffs, m), s=(m,) * grid.dim,
                         axes=tuple(range(grid.dim)), norm="forward")


def _band(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Resolved-band coefficients of real samples on any m-point grid (m >= n)."""
    return _truncate(grid, np.fft.rfftn(samples, axes=tuple(range(grid.dim)),
                                        norm="forward"))


def oversampled_values(field: SpectralField, factor: int) -> np.ndarray:
    """Physical samples on a factor-times-finer grid (trigonometric values).

    Zero-padding the spectrum is exact interpolation, so the samples are the
    same trigonometric polynomial read on more points.
    """
    if factor < 1:
        raise FieldError(f"oversample factor must be >= 1, got {factor}")
    return _samples(field.grid, field.coeffs, factor * field.grid.n)


def lebesgue_norm(field: SpectralField, r: float, oversample: int = 1) -> float:
    """Grid-quadrature Lebesgue norm (cell_volume * sum |u(x_j)|^r)^(1/r).

    oversample > 1 evaluates on a finer grid; quadrature of |u|^r is then
    exact for even integer r <= 2*oversample, where |u|^r is a polynomial
    the finer grid resolves.  Odd r is not a polynomial and keeps a small
    error (r = 5: 5.9e-8 relative at factor 2 on the growth defaults, against
    factor 6), which matters for conserved-energy diagnostics.
    """
    if not (1.0 <= r and math.isfinite(r)):
        raise FieldError(f"Lebesgue exponent must satisfy 1 <= r < inf, got {r}")
    u = oversampled_values(field, oversample)
    cell = field.grid.L ** field.grid.dim / u.size
    return float(cell * np.sum(np.abs(u) ** r)) ** (1.0 / r)


def frequency_split(field: SpectralField, cutoff: float) -> tuple[SpectralField, SpectralField]:
    """Sharp split at the cutoff: (coefficients with |k| <= cutoff, the rest).

    The two parts sum to the original field exactly, coefficient by coefficient.
    """
    if cutoff <= 0.0:
        raise FieldError(f"cutoff must be positive, got {cutoff}")
    mask = _kmag(field.grid) <= cutoff
    low = np.where(mask, field.coeffs, 0.0)
    high = np.where(mask, 0.0, field.coeffs)
    return _make(field.grid, low), _make(field.grid, high)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def fields_to_bytes(fields, t: float = 0.0) -> bytes:
    """Snapshot one or more same-grid fields: 32-byte header plus payloads.

    Header is little-endian (dim:int64, n:int64, L:float64, t:float64); each
    payload is the coefficient array as interleaved re/im float64 pairs in
    row-major order.
    """
    fields = tuple(fields)
    if not fields:
        raise FieldError("nothing to serialize")
    grid = fields[0].grid
    for f in fields[1:]:
        _same_grid(fields[0], f)
    header = (np.array([grid.dim, grid.n], dtype="<i8").tobytes()
              + np.array([grid.L, t], dtype="<f8").tobytes())
    payloads = b"".join(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes()
                        for f in fields)
    return header + payloads


def fields_from_bytes(buf: bytes) -> tuple[Grid, float, list[SpectralField]]:
    """Inverse of fields_to_bytes; the field count is inferred from the length."""
    if len(buf) < _HEADER_BYTES:
        raise FieldError("snapshot shorter than its header")
    dim, n = (int(x) for x in np.frombuffer(buf[:16], dtype="<i8"))
    L, t = (float(x) for x in np.frombuffer(buf[16:32], dtype="<f8"))
    grid = Grid(n=n, L=L, dim=dim)
    payload = buf[_HEADER_BYTES:]
    per_field = grid.num_points * 16
    if per_field == 0 or len(payload) % per_field != 0:
        raise FieldError("snapshot payload does not match the header geometry")
    count = len(payload) // per_field
    out = []
    for i in range(count):
        raw = np.frombuffer(payload[i * per_field:(i + 1) * per_field], dtype="<c16")
        out.append(from_coeffs(grid, raw.astype(np.complex128).reshape(grid.shape)))
    return grid, t, out


def write_fields(path, fields, t: float = 0.0) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(fields_to_bytes(fields, t))
    except OSError as exc:
        raise FieldError(f"cannot write snapshot {path}: {exc}") from exc


def read_fields(path) -> tuple[Grid, float, list[SpectralField]]:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise FieldError(f"cannot read snapshot {path}: {exc}") from exc
    return fields_from_bytes(buf)


def shell_spectrum(field: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Radial shell energies: shells of width one grid wavenumber.

    Returns (shell centers |k|, shell energies); the energies sum to the
    squared L2 norm of the field.
    """
    kmag = _kmag(field.grid)
    dk = field.grid.k_spacing
    idx = np.rint(kmag / dk).astype(np.int64).ravel()
    c = field.coeffs
    power = (c.real * c.real + c.imag * c.imag).ravel()
    energies = np.bincount(idx, weights=power) * field.grid.L ** field.grid.dim
    centers = np.arange(energies.size) * dk
    return centers, energies


def write_spectrum_csv(field: SpectralField, path) -> None:
    """CSV of the radial shell spectrum with columns k_shell, energy."""
    centers, energies = shell_spectrum(field)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k_shell", "energy"])
            for k, e in zip(centers, energies):
                writer.writerow([repr(float(k)), repr(float(e))])
    except OSError as exc:
        raise FieldError(f"cannot write spectrum {path}: {exc}") from exc
