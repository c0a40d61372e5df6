"""Exponent arithmetic for the defocusing nonlinear wave equation u_tt - Lap u = -|u|^(p-1) u.

Everything in this module is closed-form arithmetic on the nonlinearity power p
and the data regularity s: scaling-critical regularity, the regularity
threshold above which the growth exponents are finite, the growth exponents
themselves, and the bookkeeping for admissible space-time norm triples.
No arrays, no state; plain floats in, plain floats out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

P_LOW = 11.0 / 3.0  # strict lower end of the supported nonlinearity range
P_HIGH = 5.0        # strict upper end (energy-critical power is excluded)

INF = math.inf      # sentinel for an unbounded time exponent (q = infinity)


class ParamError(ValueError):
    """Raised when (p, s) leave the supported region."""


class ThresholdError(ParamError):
    """Raised when a formula is evaluated at or below its regularity threshold."""


class IndeterminateThresholdError(ParamError):
    """Raised when s sits within the floating-point guard band around the threshold."""


def critical_regularity(p: float) -> float:
    """Scaling-critical Sobolev regularity 3/2 - 2/(p-1) for power p > 1."""
    if not p > 1.0:
        raise ParamError(f"nonlinearity power must exceed 1, got p={p}")
    return 1.5 - 2.0 / (p - 1.0)


def regularity_threshold(p: float) -> float:
    """Regularity above which the norm-growth exponents are finite.

    Computed as (2 + (5-p)*s_c) / (7-p) with s_c the critical regularity.
    Only defined on the supported power range 11/3 < p < 5.
    """
    _check_p(p)
    sc = critical_regularity(p)
    return (2.0 + (5.0 - p) * sc) / (7.0 - p)


def threshold_condition(s: float, p: float, boundary_tol: float = 1e-12) -> bool:
    """True iff (5-p)/2 > (1-s)/(s - s_c), i.e. the damping rate beats the loss rate.

    Algebraically this is equivalent to s > regularity_threshold(p); both sides
    reduce to the same polynomial sign test, which is what we evaluate so the
    two phrasings can never disagree in floating point.  Inside a +-boundary_tol
    band around the threshold the sign is not trustworthy and we refuse to
    booleanize it.
    """
    _check_p(p)
    sc = critical_regularity(p)
    if not sc < s < 1.0:
        raise ParamError(f"s={s} outside the open strip ({sc}, 1) for p={p}")
    if abs(s - regularity_threshold(p)) <= boundary_tol:
        raise IndeterminateThresholdError(
            f"s={s} within {boundary_tol} of the threshold for p={p}")
    return _gaps(p, s)[0] > 0.0


def _gaps(p: float, s: float) -> tuple[float, float]:
    """(5-p)(s-s_c) - 2(1-s) and (5-p)/2 - (1-s)/(s-s_c), for s > s_c: the
    denominators of the growth and cutoff exponents, positive exactly above
    the regularity threshold."""
    sc = critical_regularity(p)
    return ((5.0 - p) * (s - sc) - 2.0 * (1.0 - s),
            0.5 * (5.0 - p) - (1.0 - s) / (s - sc))


def _gaps_above_threshold(params: PdeParams) -> tuple[float, float]:
    """`_gaps` of params; at or below the regularity threshold it raises."""
    gap, rate = _gaps(params.p, params.s)
    if gap <= 0.0:
        raise ThresholdError(
            f"s={params.s} is at or below the regularity threshold for p={params.p}; "
            "growth exponents diverge")
    return gap, rate


@dataclass(frozen=True)
class PdeParams:
    """Nonlinearity power p in (11/3, 5) and data regularity s in (s_c(p), 1)."""

    p: float
    s: float

    def __post_init__(self) -> None:
        _check_p(self.p)
        sc = critical_regularity(self.p)
        if not sc < self.s < 1.0:
            raise ParamError(
                f"s={self.s} outside the open strip ({sc}, 1) for p={self.p}")

    @property
    def s_crit(self) -> float:
        return critical_regularity(self.p)


@dataclass(frozen=True)
class GrowthExponents:
    """Polynomial-in-time exponents for the data norm (alpha) and solution norm (beta)."""

    alpha: float
    beta: float


def growth_exponents(params: PdeParams) -> GrowthExponents:
    """Exponents alpha, beta in the polynomial norm-growth bounds.

    alpha = ((5-p)/2 * (1 + s - s_c)) / ((5-p)(s - s_c) - 2(1-s))
    beta  = (1 - s + (5-p)/2) / ((5-p)/2 - (1-s)/(s - s_c))

    Both denominators vanish together exactly at the regularity threshold;
    below it the formulas are meaningless and we raise.
    """
    p, s = params.p, params.s
    gap, rate = _gaps_above_threshold(params)
    alpha = (0.5 * (5.0 - p) * (1.0 + s - params.s_crit)) / gap
    beta = (1.0 - s + 0.5 * (5.0 - p)) / rate
    return GrowthExponents(alpha=alpha, beta=beta)


def composite_critical_exponent(params: PdeParams) -> float:
    """Time exponent beta/(s - s_c) + 1 for the critical-norm growth bound.

    This is a composite of the plain beta; no simpler closed form is exposed.
    """
    g = growth_exponents(params)
    return g.beta / (params.s - params.s_crit) + 1.0


def data_size(norm_s: tuple[float, float], norm_crit: float, p: float) -> float:
    """Size functional of the initial data entering the scale and cutoff choices.

    norm_s is the pair (position norm at regularity s, velocity norm at s-1),
    norm_crit the critical-regularity norm of the position component:

        C = a^2 + b^2 + a^2 * c^(p-1)   for (a, b), c = norm_s, norm_crit.
    """
    a, b = norm_s
    if a < 0.0 or b < 0.0 or norm_crit < 0.0:
        raise ParamError("norms must be nonnegative")
    _check_p(p)
    return a * a + b * b + a * a * norm_crit ** (p - 1.0)


def scale_choice(c_u: float, cutoff: float, params: PdeParams,
                 prefactor: float = 1.0) -> float:
    """Rescaling factor prefactor * C^(1/(2(s-s_c))) * cutoff^((1-s)/(s-s_c)).

    Prefactors are caller-supplied; the default 1.0 gives the bare power law.
    """
    if c_u <= 0.0 or cutoff <= 0.0:
        raise ParamError("data size and cutoff must be positive")
    s, sc = params.s, params.s_crit
    return prefactor * c_u ** (0.5 / (s - sc)) * cutoff ** ((1.0 - s) / (s - sc))


def cutoff_choice(c_u: float, horizon: float, params: PdeParams,
                  prefactor: float = 1.0, floor: float = 1.0) -> float:
    """Frequency cutoff prefactor * max{C^e1 * T^e2, floor} for horizon T.

    e1 = 1 / ((5-p)(s-s_c) - 2(1-s)) and e2 = 1 / ((5-p)/2 - (1-s)/(s-s_c));
    both are finite and positive only above the regularity threshold.
    """
    if c_u <= 0.0 or horizon <= 0.0 or floor <= 0.0:
        raise ParamError("data size, horizon and floor must be positive")
    gap, rate = _gaps_above_threshold(params)
    return prefactor * max(c_u ** (1.0 / gap) * horizon ** (1.0 / rate), floor)


@dataclass(frozen=True)
class TripleMQR:
    """Space-time norm triple: derivative weight m, time exponent q, space exponent r.

    q may be math.inf (sup in time); r is finite for every allowed triple and
    the allowedness check rejects r = inf rather than the constructor.
    """

    m: float
    q: float
    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ParamError(f"derivative weight m={self.m} outside [0, 1]")
        if not self.q >= 2.0:
            raise ParamError(f"time exponent q={self.q} below 2")
        if not self.r >= 2.0:
            raise ParamError(f"space exponent r={self.r} below 2")


_ADMISSIBLE_TOL = 1e-12


def is_allowed_triple(triple: TripleMQR, params: PdeParams) -> bool:
    """Check the scaling identity and the allowed-region conditions for a triple.

    Requires 1/q + 3/r = 3/2 - m (to within 1e-12), 1/q + 1/r <= 1/2, finite r,
    and either 0 <= m <= s or m = 1 with 1/q below the wave-admissibility cap
    max{(p-3)/(2(p-1)), (7-p)/(4(p-1)) + (1-s)/(2(p-1))}.
    """
    m, q, r = triple.m, triple.q, triple.r
    if not math.isfinite(r):
        return False
    inv_q = 0.0 if q == INF else 1.0 / q
    inv_r = 1.0 / r
    if abs(inv_q + 3.0 * inv_r - (1.5 - m)) > _ADMISSIBLE_TOL:
        return False
    if inv_q + inv_r > 0.5 + _ADMISSIBLE_TOL:
        return False
    p, s = params.p, params.s
    if m <= s:
        return True
    if m == 1.0:
        cap = max((p - 3.0) / (2.0 * (p - 1.0)),
                  (7.0 - p) / (4.0 * (p - 1.0)) + (1.0 - s) / (2.0 * (p - 1.0)))
        return inv_q <= cap + _ADMISSIBLE_TOL
    return False


def reference_triples(params: PdeParams) -> tuple[TripleMQR, ...]:
    """The fixed family of triples the energy and norm estimates are run over.

    Five finite-q triples plus the sup-in-time member; every returned triple
    passes is_allowed_triple for the given parameters.
    """
    p, s = params.p, params.s
    sc = params.s_crit
    triples = (
        TripleMQR(1.0, 2.0 * (p - 1.0) / (p - 3.0), 3.0 * (p - 1.0)),
        TripleMQR(sc, p - 1.0, 3.0 * (p - 1.0)),
        TripleMQR((p - 3.0) / 2.0, 4.0 / (p - 3.0), 4.0 / (5.0 - p)),
        TripleMQR((3.0 * p - 5.0) / (2.0 * p), p, 2.0 * p),
        TripleMQR((3.0 * p - 7.0 + 2.0 * s) / (2.0 * p), p, 6.0 * p / (5.0 - 2.0 * s)),
        TripleMQR(s, INF, 6.0 / (3.0 - 2.0 * s)),
    )
    for t in triples:
        if not is_allowed_triple(t, params):
            raise ParamError(f"internal: reference triple {t} fell outside the "
                             f"allowed region for p={p}, s={s}")
    return triples


def _check_p(p: float) -> None:
    if not P_LOW < p < P_HIGH:
        raise ParamError(
            f"nonlinearity power p={p} outside the supported open range "
            f"({P_LOW}, {P_HIGH})")
