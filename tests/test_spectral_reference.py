"""Reference transforms shared by the transform and kick tests.

`block_slices` maps a small fftn-layout spectrum into a bigger one; the c2c
references pad and truncate with it.  `reference_samples` and `reference_band`
are the unpruned real-to-complex transforms: the whole padded half spectrum
goes through `irfftn`, and the whole `rfftn` output is truncated afterwards.
`nlwlab.fields._sample_slabs` and `_half_band` skip the columns of the same
per-axis steps that are all padding or are truncated away, and run them
slab by slab, so they must agree with these bit for bit.  `reverse_indices`
is the k -> -k oracle, written apart from the package's `_conj_mirror`.
"""

import itertools

import numpy as np
import pytest

from nlwlab.fields import Grid, _clean, from_coeffs

# (grid, factor) cases of the bit-for-bit kick and quadrature tests: n = 16
# at factors 1-4, and the benchmark's n = 32 grid at factor 2, whose m = 64
# points stream in slabs of 8 x-planes
BIT_SHAPES = [pytest.param(Grid(n=16, L=32.0), factor, id=f"{factor}-dim3")
              for factor in (1, 2, 3, 4)]
BIT_SHAPES.append(pytest.param(Grid(n=32, L=32.0), 2, id="2-n32"))


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


def reverse_indices(c: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -k: flip every axis, then roll by one."""
    out = np.flip(c)
    return np.roll(out, shift=(1,) * c.ndim, axis=tuple(range(c.ndim)))


def reference_samples(grid: Grid, coeffs: np.ndarray, m: int) -> np.ndarray:
    """Full n-point coefficients -> zero-padded m-point half spectrum -> irfftn."""
    n, dim = grid.n, grid.dim
    kz = (slice(0, n // 2),)
    half = np.zeros((m,) * (dim - 1) + (m // 2 + 1,), dtype=np.complex128)
    for src, dst in block_slices(n, m, dim - 1):
        half[dst + kz] = coeffs[src + kz]
    return np.fft.irfftn(half, s=(m,) * dim, axes=tuple(range(dim)), norm="forward")


def reference_band(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """rfftn of m-point samples -> resolved k_z >= 0 block -> Hermitian full layout."""
    n, dim = grid.n, grid.dim
    half = np.fft.rfftn(samples, axes=tuple(range(dim)), norm="forward")
    kz = (slice(0, n // 2),)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for src, dst in block_slices(n, half.shape[0], dim - 1):
        out[src + kz] = half[dst + kz]
    out += np.conj(reverse_indices(out))
    out[..., 0] *= 0.5
    return _clean(grid, out)


def test_block_slices_round_trip():
    grid = Grid(n=16, L=32.0, dim=3)
    rng = np.random.default_rng(99)
    f = from_coeffs(grid, rng.standard_normal(grid.shape)
                    + 1j * rng.standard_normal(grid.shape))
    big = np.zeros((32,) * 3, dtype=np.complex128)
    for src, dst in block_slices(16, 32, 3):
        big[dst] = f.coeffs[src]
    back = np.zeros(grid.shape, dtype=np.complex128)
    for src, dst in block_slices(16, 32, 3):
        back[src] = big[dst]
    assert np.array_equal(back, f.coeffs)
    assert len(list(block_slices(16, 32, 3))) == 8
