"""Synthesis of low-regularity initial data, scaling maps, and perturbations.

Data are built in Fourier space: a power-law amplitude profile on a wavenumber
band, independent uniform phases from a counter-based generator, Hermitian
symmetrization, an optional half-box window in physical space, and an exact
normalization of the position at the target Sobolev order and of the velocity
one order lower.  The position's profile slope -(s + 3/2) makes the expected
shell-summed Sobolev density flat, i.e. every dyadic block contributes equally
at order s, which is as rough as the order allows; the velocity's is one power
rougher.

The rescaling map sends (u, v) on a box of side L to the relabeled pair on a
box of side lambda L with amplitudes scaled by the critical-regularity
exponents, so the critical pair norm is preserved exactly and the order-s pair
norm picks up the factor lambda^(s_c - s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    Grid,
    SpectralField,
    _kmag,
    _make,
    _smoothstep,
    from_coeffs,
    from_physical,
    to_physical,
    sobolev_norm,
)
from .dynamics import WaveState, pair_sobolev_norm
from .params import PdeParams


class DataError(ValueError):
    """Unusable synthesis recipe (empty band, unresolved band, zero data)."""


@dataclass(frozen=True)
class DataRecipe:
    """Deterministic recipe for a rough pair (u, v) at position order s_target.

    size_hs fixes the position norm at order s_target; the velocity is
    normalized to the same value at order s_target - 1.  The position's
    profile has the shell-flat slope -(s_target + 3/2), the velocity's one
    power rougher.  window=True confines support to the centered half box via
    a quintic ramp before normalizing.
    """

    seed: int
    s_target: float
    k_min: float
    k_max: float
    size_hs: float
    window: bool = True

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if not (0.0 < self.k_min < self.k_max):
            raise DataError(f"need 0 < k_min < k_max, got [{self.k_min}, {self.k_max}]")
        if not self.size_hs > 0.0:
            raise DataError(f"size_hs must be positive, got {self.size_hs}")
        if not math.isfinite(self.s_target):
            raise DataError(f"s_target must be finite, got {self.s_target}")


def profile_amplitudes(grid: Grid, k_min: float, k_max: float, slope: float) -> np.ndarray:
    """|k|^slope on the band k_min <= |k| <= k_max, zero elsewhere."""
    kmag = _kmag(grid)
    band = (kmag >= k_min) & (kmag <= k_max)
    amp = np.zeros(grid.shape)
    amp[band] = kmag[band] ** slope
    return amp


def _window_profile(grid: Grid) -> np.ndarray:
    """Half-box plateau with quintic ramps, as a per-axis profile."""
    x = grid.axis_coordinates()
    L = grid.L
    w = np.zeros_like(x)
    ramp = L / 8.0
    up = (x >= L / 4.0) & (x < L / 4.0 + ramp)
    flat = (x >= L / 4.0 + ramp) & (x <= 3.0 * L / 4.0 - ramp)
    down = (x > 3.0 * L / 4.0 - ramp) & (x <= 3.0 * L / 4.0)
    w[up] = _smoothstep((x[up] - L / 4.0) / ramp)
    w[flat] = 1.0
    w[down] = _smoothstep((3.0 * L / 4.0 - x[down]) / ramp)
    return w


def window_array(grid: Grid) -> np.ndarray:
    """Tensor-product half-box window on the physical grid."""
    w = _window_profile(grid)
    return np.multiply.outer(np.multiply.outer(w, w), w)


def _random_band_field(grid: Grid, rng: np.random.Generator, k_min: float,
                       k_max: float, slope: float, window: bool) -> SpectralField:
    """amp * exp(i phases), projected by `from_coeffs` and windowed, with the
    products of that formula built in one complex buffer: each intermediate
    is dropped once the next exists."""
    amp = profile_amplitudes(grid, k_min, k_max, slope)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=grid.shape)
    coeffs = np.multiply(1j, phases)
    del phases
    np.exp(coeffs, out=coeffs)
    np.multiply(amp, coeffs, out=coeffs)
    del amp
    field = from_coeffs(grid, coeffs)
    del coeffs
    if not window:
        return field
    samples = to_physical(field)
    del field
    samples *= window_array(grid)
    return from_physical(grid, samples)


def _check_band(recipe: DataRecipe, grid: Grid) -> None:
    """Raise DataError unless the recipe's band is resolved on the grid and
    holds a mode off the mean and the Nyquist planes, which the field
    conventions zero (k_min > 0 keeps the mean out)."""
    if recipe.k_max >= grid.max_wavenumber:
        raise DataError(
            f"band edge {recipe.k_max} is not resolved "
            f"(representable limit {grid.max_wavenumber})")
    kmag, h = _kmag(grid), grid.n // 2
    band = (kmag >= recipe.k_min) & (kmag <= recipe.k_max)
    band[h] = band[:, h] = band[:, :, h] = False
    if not np.any(band):
        raise DataError(f"band [{recipe.k_min}, {recipe.k_max}] holds no mode off the "
                        "mean and the Nyquist planes")


def _normalized(field: SpectralField, order: float, size: float) -> SpectralField:
    norm = sobolev_norm(field, order)
    if norm == 0.0:
        raise DataError("synthesized field vanishes; band does not meet the grid")
    return field * (size / norm)


def synthesize(recipe: DataRecipe, grid: Grid) -> WaveState:
    """Build the rough pair (u, v) at t=0 from a recipe, deterministically.

    Equal seeds give bit-identical output; the position and velocity use
    independent child streams so either can be regenerated alone.  The band
    must pass `_check_band`.  Each field is built in place in one complex
    buffer (`_random_band_field`) and its norm allocates nothing
    (`sobolev_norm`), so at n = 32 a call peaks at about 1.75 MiB.
    """
    _check_band(recipe, grid)
    root = np.random.SeedSequence(recipe.seed)
    child_u, child_v = root.spawn(2)
    rng_u = np.random.Generator(np.random.Philox(child_u))
    rng_v = np.random.Generator(np.random.Philox(child_v))
    slope_u = -(recipe.s_target + 1.5)
    slope_v = slope_u + 1.0
    u = _random_band_field(grid, rng_u, recipe.k_min, recipe.k_max, slope_u, recipe.window)
    v = _random_band_field(grid, rng_v, recipe.k_min, recipe.k_max, slope_v, recipe.window)
    u = _normalized(u, recipe.s_target, recipe.size_hs)
    v = _normalized(v, recipe.s_target - 1.0, recipe.size_hs)
    return WaveState(u=u, v=v, t=0.0)


# ---------------------------------------------------------------------------
# Scaling and perturbation maps
# ---------------------------------------------------------------------------

def _dyadic_exponent(lam: float) -> int:
    mant, exp = math.frexp(lam)
    if not (lam > 0.0 and mant == 0.5):
        raise DataError(f"scale factor must be a power of two, got {lam}")
    return exp - 1


def rescale(state: WaveState, lam: float, params: PdeParams) -> WaveState:
    """Critical-regularity rescaling onto the box of side lam * L.

    Mode amplitudes carry over index by index with the factors lam^-(3/2 - s_c)
    on u and lam^-(5/2 - s_c) on v, and time stretches by lam, so wavenumbers
    shrink by exactly lam.  The critical pair norm is invariant to roundoff
    and the order-s pair norm scales by lam^(s_c - s).  Composition of factors
    is exact: the grid stores lam * L and the amplitude scalings multiply.
    """
    _dyadic_exponent(lam)
    grid = state.grid
    new_grid = Grid(n=grid.n, L=lam * grid.L)
    a = 1.5 - params.s_crit
    u = _make(new_grid, state.u.coeffs * lam ** (-a))
    v = _make(new_grid, state.v.coeffs * lam ** (-a - 1.0))
    return WaveState(u=u, v=v, t=lam * state.t)


def perturb(state: WaveState, eps: float, seed: int, params: PdeParams,
            template: DataRecipe) -> WaveState:
    """Add an independent rough pair scaled to critical pair norm exactly eps.

    The template supplies the band and the window; its seed and size are
    ignored.  eps = 0 returns the state unchanged.
    """
    if eps < 0.0:
        raise DataError(f"perturbation size must be nonnegative, got {eps}")
    if eps == 0.0:
        return state
    bump_recipe = replace(template, seed=seed, size_hs=1.0)
    bump = synthesize(bump_recipe, state.grid)
    crit = pair_sobolev_norm(bump, params.s_crit)
    if crit == 0.0:
        raise DataError("perturbation pair vanishes at the critical order")
    factor = eps / crit
    return WaveState(u=state.u + bump.u * factor, v=state.v + bump.v * factor,
                     t=state.t)
