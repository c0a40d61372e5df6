"""Hand-built fields for the tests: the zero field, a single cosine mode, and
the |k| of an integer index vector, whose closed forms the tests check the
transforms, norms and kicks against."""

import math

import numpy as np

from nlwlab.fields import FieldError, Grid, SpectralField, _make


def zero_field(grid: Grid) -> SpectralField:
    return _make(grid, np.zeros(grid.shape, dtype=np.complex128))


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
