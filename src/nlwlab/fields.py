"""Periodic pseudospectral fields on a uniform grid.

The grid is three-dimensional, the dimension of the paper's equation.  A
field is stored by its Fourier coefficients in numpy fftn layout with the
forward transform normalized by 1/n^3, so a coefficient is the amplitude of
exp(i k.x) in the trigonometric expansion and wavenumbers are (2 pi / L) times
integer vectors.  Three conventions hold for every field in the package:

* the zero mode is 0 (mean-free convention),
* the unpaired Nyquist planes (any axis index n/2) are 0, so that real fields
  are exactly Hermitian and spectral padding/truncation is loss-free,
* coefficient arrays are frozen (writeable=False); operations return new fields.

Transforms act on real data, so they run real-to-complex from the half
spectrum (k_z < n/2 on the last axis; the k_z = n/2 Nyquist plane is zero).
`_sample_slabs` reads only that half, so it takes a full or a half array.
`_half_band` returns that half: its k_z = 0 plane, which the dropped k_z < 0
half shares, is replaced by its Hermitian part, and the mean and the Nyquist
planes are zeroed.  `_complete` rebuilds the full fftn layout from such a
half by Hermitian reflection, and `from_physical` is the two in turn.
`_conj_mirror` writes every k -> -k reflection, `from_coeffs`'s too.  Both
transforms run numpy's per-axis irfftn/rfftn steps in numpy's axis order,
pruned to skip the columns that are all zero padding (or are truncated
away), so their results are bit for bit those of the unpruned transforms.
Every field is exactly Hermitian, so its half holds all of it; the
integrator (`dynamics.evolve`) carries only halves between samples, and the
exact free-wave propagator (`dynamics.propagate_linear`) rotates only the
half.

Every transform runs in a workspace, `_workspace(n, m)` for its grid's n
and its m-point samples: views into one set of buffers per n, built once per
process, grown to the largest m asked for and shared by every grid of n
points and every m, since no two passes are ever live at once.  Every
intermediate step writes into them through numpy's `out=`.  The
physical-space step is pointwise and every step after the axis-0 inverse is
independent per x-plane, so an oversampled pass (m > n) streams its m
x-planes in eight slabs: the axis-0 inverse runs once, into an (m, n, n/2)
buffer, and each slab is then sampled (`_sample_slabs`), reduced or, in the
kick, transformed back into its own rows of that buffer (`_fold_slab`); the
axis-0 forward transform runs once more at the end (`_fold_half`).  A pass
at m = n is one slab.  Every per-row transform is the one the
whole-array pass runs, so the results are the same bits, and no workspace
holds an m^3 array: the buffers of n = 32 hold 1.27 MiB for m = 32 and 64
together, against 5.6 MiB for whole m^3 buffers at m = 64 alone.

Only this module drives the workspaces.  Other modules call its kernels,
which build no field: `_projected_power` (the kick; it allocates only the
half it returns), `lebesgue_norm`, `sobolev_norm` and `_from_half`.  Every
kernel reads the k_z < n/2 half, and `_symbol` caches each symbol as that
contiguous half only.  Both norms multiply the half by each symbol alike,
the real parts into one real workspace buffer and the imaginary parts into
another: for finite values that is `apply_multiplier`'s product up to the
sign of a zero, which no norm reads, with no cast buffer.  A quadrature with
no multiplier allocates nothing but its eight slab sums, and `sobolev_norm`
nothing at all.
`to_physical` copies its samples out of the (n, n) workspace, and
`from_physical` returns a new array of coefficients, so no public function
returns a workspace buffer.

Norms: the homogeneous Sobolev norm of order sigma is the weighted coefficient
l2 norm sqrt(L^3 * sum |k|^(2 sigma) |c_k|^2), which by the normalization
above coincides with the grid L2 norm at sigma = 0.  Lebesgue norms are
uniform-grid quadrature of |u|^r.

Pointwise powers, |u|^r in the quadrature and |u|^(p-1) u in the kick, go
through one helper, `_power`, in place in the workspace's slab buffers
`phys` and `work`.  A whole exponent (r = 5 and p = 4 at the defaults) is a
fixed chain of IEEE products, square-and-multiply, so its bits are the same
on every machine; any other exponent runs `np.power`, whose bits follow the
pow kernel numpy dispatches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class FieldError(ValueError):
    """Raised on grid mismatches or invalid multipliers."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points per axis (power of two, >= 16) on [0, L)^3.

    The lab is three-dimensional, so `dim` must be 3; it stays a field so
    that a config names it (`grid.dim`) and its hash covers it.
    """

    n: int
    L: float
    dim: int = 3

    def __post_init__(self) -> None:
        if self.dim != 3:
            raise FieldError(f"dim must be 3, got {self.dim}")
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
    """Zero the mean mode and the unpaired Nyquist planes, in place.

    A k_z < n/2 half holds no k_z Nyquist plane; its other planes are zeroed.
    """
    h = grid.n // 2
    coeffs[h] = 0.0
    coeffs[:, h] = 0.0
    if coeffs.shape[2] > h:
        coeffs[:, :, h] = 0.0
    coeffs[0, 0, 0] = 0.0
    return coeffs


def from_coeffs(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """Build a field from arbitrary complex coefficients.

    The input is projected onto the package conventions: Hermitian symmetry,
    c <- (c + conj(c at -k)) / 2 with the reflection of `_conj_mirror`, zero
    mean mode, empty Nyquist planes.  Already-conforming input round-trips
    value for value (a zero part may change its sign).
    """
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise FieldError(f"coefficient shape {arr.shape} != grid shape {grid.shape}")
    out = np.empty(grid.shape, dtype=np.complex128)
    _conj_mirror(arr[..., :1], out[..., :1])
    _conj_mirror(arr[..., :0:-1], out[..., 1:])
    out += arr
    out *= 0.5
    return _make(grid, _clean(grid, out))


def from_physical(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Forward transform of real grid samples, normalized by 1/n^3.

    It runs in the (n, n) workspace; the coefficients are a new array.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape != grid.shape:
        raise FieldError(f"sample shape {arr.shape} != grid shape {grid.shape}")
    return _from_half(grid, _half_band(grid, arr, _workspace(grid.n, grid.n)))


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform to real grid samples.

    It runs in the (n, n) workspace and returns a copy of the samples.
    """
    grid = field.grid
    out = np.empty(grid.shape)
    for rows, samples in _sample_slabs(grid, field.coeffs, grid.n, _workspace(grid.n, grid.n)):
        out[rows] = samples
    return out


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
    """Radial Fourier multiplier; build via the factory functions below.
    A cutoff, sharp or smooth, must be positive (FieldError)."""

    kind: str
    order: float = 0.0
    cutoff: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in ("smoothing", "low_pass") and self.cutoff <= 0.0:
            raise FieldError(f"cutoff must be positive, got {self.cutoff}")

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
        raise FieldError(f"unknown multiplier kind {self.kind!r}")


@lru_cache(maxsize=64)
def _symbol(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """The symbol of spec on the k_z < n/2 half of the grid's |k|, contiguous,
    computed once per (grid, spec).  The symbol is pointwise in |k|, so this
    is the full-grid symbol's half value for value, and the half is all that
    any kernel reads: no symbol is built on the full grid.
    """
    out = spec.symbol(np.ascontiguousarray(_kmag(grid)[..., :grid.n // 2]))
    out.flags.writeable = False
    return out


def power_multiplier(order: float) -> MultiplierSpec:
    """|k|^order; the zero mode is annihilated for any nonzero order."""
    return MultiplierSpec(kind="power", order=order)


def smoothing_multiplier(cutoff: float, s: float) -> MultiplierSpec:
    """Identity below the cutoff, (cutoff/|k|)^(1-s) damping above twice it."""
    return MultiplierSpec(kind="smoothing", cutoff=cutoff, s=s)


def low_pass(cutoff: float) -> MultiplierSpec:
    """Sharp indicator of |k| <= cutoff."""
    return MultiplierSpec(kind="low_pass", cutoff=cutoff)


def apply_multiplier(field: SpectralField, spec) -> SpectralField:
    """Multiply coefficients by one radial symbol or a sequence of them (the
    k_z < n/2 half, completed by `_from_half`: the full product up to the
    sign of a zero).  A negative-order power multiplier demands a clean zero
    mode; the field conventions guarantee it, and a violation (hand-built
    coefficients) raises."""
    out = field.coeffs[..., :field.grid.n // 2]
    for sp in _checked_specs(field, spec):
        out = out * _symbol(field.grid, sp)
    return _from_half(field.grid, out)


def _checked_specs(field: SpectralField, spec) -> tuple:
    """One spec or a sequence of them as a tuple, after the mean check of
    `apply_multiplier` and of both norms: a negative-order power multiplier
    on a field whose zero mode is not 0 raises FieldError."""
    specs = (spec,) if isinstance(spec, MultiplierSpec) else tuple(spec)
    if field.coeffs[0, 0, 0] != 0.0 and any(
            sp.kind == "power" and sp.order < 0.0 for sp in specs):
        raise FieldError("negative-order multiplier on a field with a mean")
    return specs


def _norm_specs(field: SpectralField, spec) -> tuple:
    """The checked specs that a norm multiplies by: a power of order 0 is
    skipped, since its symbol is all ones and c * 1.0 == c for every finite
    c, so the norm is the same and no all-ones symbol is built or cached."""
    return tuple(sp for sp in _checked_specs(field, spec)
                 if not (sp.kind == "power" and sp.order == 0.0))


# ---------------------------------------------------------------------------
# Norms and splits
# ---------------------------------------------------------------------------

def sobolev_norm(field: SpectralField, sigma: float, multipliers=()) -> float:
    """Homogeneous Sobolev norm sqrt(L^3 sum |k|^(2 sigma) |c_k|^2) of the
    field times the multipliers, if any.

    The zero mode carries no weight for any sigma (it is zero by convention,
    and negative orders are undefined there).  With multipliers the result is
    `sobolev_norm(apply_multiplier(field, multipliers), sigma)` (and raises
    as it does), bit for bit for finite coefficients; a power of order 0 is
    skipped.  The sum is 2 sum_half - sum_(k_z = 0 plane) over the k_z < n/2
    half, which relies on the field conventions: exact Hermitian symmetry and
    an empty k_z = n/2 plane.  It allocates nothing: the half's real and
    imaginary parts are copied into the (n, n) workspace (see `_Workspace`)
    and multiplied, squared and weighted there.
    """
    grid, n, h = field.grid, field.grid.n, field.grid.n // 2
    ws = _workspace(n, n)
    re, im = (buf[:h].reshape(n, n, h) for buf in (ws.phys, ws.work))
    np.copyto(re, field.coeffs.real[..., :h])
    np.copyto(im, field.coeffs.imag[..., :h])
    for spec in _norm_specs(field, multipliers):
        sym = _symbol(grid, spec)
        re *= sym
        im *= sym
    re *= re
    re += np.multiply(im, im, out=im)
    if sigma != 0.0:
        re *= _symbol(grid, power_multiplier(2.0 * sigma))
    return math.sqrt(grid.L ** grid.dim * float(2.0 * np.sum(re) - np.sum(re[..., 0])))


def _resize(a: np.ndarray, axis: int, size: int, h: int, out: np.ndarray) -> np.ndarray:
    """Keep the first and last h entries of one axis at a new axis length.

    These are the modes 0..h-1 and -h..-1 in fftn layout.  Growing zero-fills
    the middle (spectral padding); shrinking drops it (truncation).  At the
    same length the result is `a` itself, else `out`, which has the new length.
    """
    if a.shape[axis] == size:
        return a
    lead = (slice(None),) * axis
    out[lead + (slice(h, size - h),)] = 0.0
    out[lead + (slice(0, h),)] = a[lead + (slice(0, h),)]
    out[lead + (slice(size - h, size),)] = a[lead + (slice(a.shape[axis] - h, None),)]
    return out


def _conj_mirror(c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- conj(c at -k) on the leading axes; the last axis maps straight across.

    Per leading axis, index 0 stays and 1..n-1 run backwards.
    """
    n = c.shape[0]
    pairs = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(n - 1, 0, -1)))
    for combo in itertools.product(pairs, repeat=c.ndim - 1):
        np.conjugate(c[tuple(s for _, s in combo)], out=out[tuple(d for d, _ in combo)])
    return out


def _forward(a: np.ndarray, axis: int, n: int, h: int, scratch: np.ndarray,
             dst: np.ndarray) -> np.ndarray:
    """Forward transform of one axis of a, truncated to n rows into dst and
    returned: through `scratch` when a has more rows, straight into dst when
    it has n."""
    if a.shape[axis] == n:
        return np.fft.fft(a, axis=axis, norm="forward", out=dst)
    return _resize(np.fft.fft(a, axis=axis, norm="forward", out=scratch), axis, n, h, dst)


# x-planes of an oversampled pass are streamed in this many slabs; eight
# partial sums add up, in numpy's pairwise order, to the sum of the whole.
_SLABS = 8


# grid size n -> buffer role -> the one allocation of that role (`_buffer`)
_BUFFERS: dict[int, dict[str, np.ndarray]] = {}


def _buffer(n: int, role: str, shape: tuple, dtype) -> np.ndarray:
    """A C-contiguous view of `shape` at the start of the one buffer of this
    role for grids of n points.  The buffer grows to the largest view asked
    for; when it grows, every cached workspace is dropped, so that no view
    keeps the old allocation alive."""
    size = math.prod(shape)
    buffers = _BUFFERS.setdefault(n, {})
    if role not in buffers or buffers[role].size < size:
        buffers[role] = np.empty(size, dtype=dtype)
        _workspace.cache_clear()
    return buffers[role][:size].reshape(shape)


class _Workspace:
    """Views, for the transforms between n and m points per axis, of the one
    set of buffers of grids of n points (`_buffer`): grids that differ only in
    box length share them, and so do the passes of every m, since every
    kernel finishes its pass before another starts.  `_sample_slabs`,
    `_fold_slab` and `_fold_half` take the workspace of their grid's n and
    their m as a required argument.  Only this module's kernels use them.

    A pass at m > n streams its m x-planes in `_SLABS` slabs of m/8 planes
    (`slabs`, the row ranges); at m = n one slab holds them all.

    * `rows` holds the spectrum with m k_x rows, n k_y and the n/2 resolved
      k_z: the axis-0 inverse writes it whole, each slab's axis-1 inverse
      reads the slab's rows and its forward steps write them back;
    * `pad` holds one slab's spectrum, m k_y rows, while axis 1 is
      transformed;
    * `phys` holds one slab's m-point samples (the kick and the quadrature
      then write their `_power` into it);
    * `work` is real slab scratch for `_power`.  Its memory also holds the
      slab's rfft output `spec`, the k -> -k `mirror` of the k_z = 0 plane,
      which `_fold_half` writes once every slab is in, and `half`, the
      multiplied k_z < n/2 coefficients of `lebesgue_norm`, which
      `_sample_slabs` has read into `rows` before `work` is written.

    In the (n, n) workspace, whose one slab is the whole grid, `sobolev_norm`
    holds its product's k_z < n/2 real and imaginary parts in (n, n, n/2)
    views of `phys` and `work`; `work` aliases `half`, which it does not read.
    At n = 32 the buffers of m = 32 and m = 64 together hold 1.27 MiB.
    """

    def __init__(self, n: int, m: int):
        h = n // 2
        planes = m // _SLABS if m > n else m
        self.slabs = [slice(i, i + planes) for i in range(0, m, planes)]
        self.rows = _buffer(n, "rows", (m, n, h), np.complex128)
        self.pad = _buffer(n, "pad", (planes, m, h), np.complex128)
        self.phys = _buffer(n, "phys", (planes, m, m), np.float64)
        flat = _buffer(n, "flat", (planes * m * (m // 2 + 1),), np.complex128)
        self.spec = flat.reshape(planes, m, m // 2 + 1)
        self.mirror = flat[:n * n].reshape(n, n, 1)
        self.half = flat[:n * n * h].reshape(n, n, h)
        self.work = flat.view(np.float64)[:planes * m * m].reshape(planes, m, m)


@lru_cache(maxsize=4)
def _workspace(n: int, m: int) -> _Workspace:
    """The views of (n, m) into the buffers of n, made once per process like
    `_symbol` (and again after a buffer grows)."""
    return _Workspace(n, m)


def _sample_slabs(grid: Grid, coeffs: np.ndarray, m: int, ws: _Workspace):
    """Real values of the coefficients on the m-point grid (m a multiple of
    n), one slab at a time: yields (rows, samples) per slab of `ws.slabs`.

    The steps and axis order of irfftn, pruned: each leading axis is padded to
    m just before its own inverse transform, so no transform runs over columns
    that are all padding.  Axis 0 is transformed once, whole, into `ws.rows`;
    then each slab's rows go through axis 1 into `ws.pad` and the last axis
    into `ws.phys`.  The last axis goes in as its n/2 resolved k_z, which
    irfft zero-fills to m/2 + 1 itself.  A slab's samples live until the next
    slab is made, and its rows of `ws.rows` are free for `_fold_slab`.
    """
    h = grid.n // 2
    a = np.fft.ifft(_resize(coeffs[..., :h], 0, m, h, ws.rows), axis=0, norm="forward",
                    out=ws.rows)
    for rows in ws.slabs:
        b = np.fft.ifft(_resize(a[rows], 1, m, h, ws.pad), axis=1, norm="forward", out=ws.pad)
        yield rows, np.fft.irfft(b, n=m, axis=-1, norm="forward", out=ws.phys)


def _fold_slab(grid: Grid, samples: np.ndarray, rows: slice, ws: _Workspace) -> None:
    """The forward steps of one slab of m-point samples: rfft into `ws.spec`,
    kept to its n/2 resolved k_z, then the axis-1 transform, truncated to n
    into the slab's rows of `ws.rows`."""
    h = grid.n // 2
    a = np.fft.rfft(samples, axis=-1, norm="forward", out=ws.spec)[..., :h]
    _forward(a, 1, grid.n, h, ws.pad, ws.rows[rows])


def _fold_half(grid: Grid, ws: _Workspace) -> np.ndarray:
    """Resolved k_z < n/2 half, a new array, of the samples whose every slab
    `_fold_slab` has put into `ws.rows`.

    Axis 0 is transformed and truncated to n.  The k_z = 0 plane,
    which the k_z < 0 half would share, is then replaced by its Hermitian
    part, and the mean and the Nyquist planes are zeroed, so `_complete` of
    the result is exactly Hermitian and clean.
    """
    h = grid.n // 2
    half = np.empty(grid.shape[:-1] + (h,), dtype=np.complex128)
    _forward(ws.rows, 0, grid.n, h, ws.rows, half)
    plane = half[..., :1]
    plane += _conj_mirror(plane, ws.mirror)
    plane *= 0.5
    return _clean(grid, half)


def _half_band(grid: Grid, samples: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Resolved k_z < n/2 half of the coefficients of real samples on any
    m-point grid (m >= n), a new array; `ws`, the workspace of (grid.n, m),
    holds every intermediate step.

    The steps and axis order of rfftn, pruned: each leading axis is truncated
    to n right after its own transform, so later axes transform only resolved
    columns.  The samples go in slab by slab (`_fold_slab`), then `_fold_half`.
    """
    for rows in ws.slabs:
        _fold_slab(grid, samples[rows], rows, ws)
    return _fold_half(grid, ws)


def _complete(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full fftn layout, as a new array, of the Hermitian field whose k_z < n/2
    half is given: k_z > n/2 is its conjugate reflection, k_z = n/2 is zero."""
    h = grid.n // 2
    out = np.empty(grid.shape, dtype=np.complex128)
    out[..., :h] = half
    out[..., h] = 0.0
    _conj_mirror(half[..., 1:], out[..., :h:-1])
    return out


def _check_oversample(factor) -> int:
    """The oversampling factor, which must be an integer >= 1 (FieldError)."""
    if not (isinstance(factor, int) and factor >= 1):
        raise FieldError(f"oversample must be an integer >= 1, got {factor}")
    return factor


def lebesgue_norm(field: SpectralField, r: float, oversample: int = 1,
                  multipliers=()) -> float:
    """Grid-quadrature Lebesgue norm (cell_volume * sum |u(x_j)|^r)^(1/r) of
    the field times the multipliers, if any.

    oversample > 1 evaluates on a finer grid; quadrature of |u|^r is then
    exact for even integer r <= 2*oversample, where |u|^r is a polynomial
    the finer grid resolves.  Odd r is not a polynomial and keeps a small
    error (r = 5: 5.9e-8 relative at factor 2 on the growth defaults, against
    factor 6), which matters for conserved-energy diagnostics.  A whole r
    forms |u|^r by products (`_power`), any other r by `np.power`.

    With multipliers the result is `lebesgue_norm(apply_multiplier(field,
    multipliers), r, oversample)` (and raises as it does), bit for bit, the
    product's k_z < n/2 half, formed with the symbols' contiguous halves, held
    in the workspace's `half`; a power of order 0 is skipped, as in
    `sobolev_norm`.  The samples, |.|^r (`_power`, into the samples' buffer)
    and the sums all run slab by slab; the slab sums are added by one more
    `np.sum`, which gives numpy's pairwise sum of the whole.
    """
    if not (1.0 <= r and math.isfinite(r)):
        raise FieldError(f"Lebesgue exponent must satisfy 1 <= r < inf, got {r}")
    grid, coeffs, h = field.grid, field.coeffs, field.grid.n // 2
    m = _check_oversample(oversample) * grid.n
    ws = _workspace(grid.n, m)
    for spec in _norm_specs(field, multipliers):
        sym = _symbol(grid, spec)
        np.multiply(coeffs.real[..., :h], sym, out=ws.half.real)
        np.multiply(coeffs.imag[..., :h], sym, out=ws.half.imag)
        coeffs = ws.half
    sums = [np.sum(_power(np.abs(samples, out=ws.work), r, samples, times=False))
            for _, samples in _sample_slabs(grid, coeffs, m, ws)]
    return float(grid.L ** 3 / m ** 3 * np.sum(sums)) ** (1.0 / r)


def _power(w: np.ndarray, e: float, out: np.ndarray, times: bool) -> np.ndarray:
    """w^e, or out * w^e with `times`, written into out and returned; w is
    scratch and is overwritten.

    A whole e >= 0 runs square-and-multiply over the bits of e, lowest first:
    a set bit multiplies out by w (without `times`, the first set bit copies
    w into out, and e = 0 fills it with 1), then w is squared for the next
    bit.  So the p = 4 kick is `out *= w; w *= w; out *= w` and |s|^5 is
    w * ((w * w) * (w * w)): IEEE products, the same bits on every machine.
    Any other e runs `np.power`, as `np.power(w, e, out=out)` or as
    `out *= np.power(w, e, out=w)`, whose bits follow numpy's pow kernel.
    """
    if not (e >= 0 and float(e).is_integer()):
        if times:
            out *= np.power(w, e, out=w)
        else:
            np.power(w, e, out=out)
        return out
    k = int(e)
    if k == 0 and not times:
        out.fill(1.0)
    while k:
        if k & 1:
            if times:
                out *= w
            else:
                np.copyto(out, w)
                times = True
        k >>= 1
        if k:
            w *= w
    return out


def _from_half(grid: Grid, half: np.ndarray) -> SpectralField:
    """The field, on a new array, whose k_z < n/2 half is given (`_complete`)."""
    return _make(grid, _complete(grid, half))


def _projected_power(grid: Grid, coeffs: np.ndarray, e: float, oversample: int) -> np.ndarray:
    """Band projection of u |u|^e, sampled `oversample` times finer, as its
    k_z < n/2 half, the only new array; coeffs is u's full or half.  Each
    slab's samples are multiplied by |u|^e (`_power`) and folded back
    (`_fold_slab`) before the next slab is sampled."""
    m = _check_oversample(oversample) * grid.n
    ws = _workspace(grid.n, m)
    for rows, u in _sample_slabs(grid, coeffs, m, ws):
        _fold_slab(grid, _power(np.abs(u, out=ws.work), e, u, times=True), rows, ws)
    return _fold_half(grid, ws)


def frequency_split(field: SpectralField, cutoff: float) -> tuple[SpectralField, SpectralField]:
    """Sharp split at the cutoff: the field times `low_pass(cutoff)`, and the
    rest.

    The two parts sum to the original field exactly, coefficient by coefficient.
    """
    low = apply_multiplier(field, low_pass(cutoff))
    return low, field - low

