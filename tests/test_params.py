"""Exponent arithmetic, thresholds, and the admissible-triple region.

Expected values are frozen from independent hand evaluation of the closed
forms; property loops use seeded RNG sweeps over the hypothesis region.
"""

import math

import numpy as np
import pytest

from nlwlab.params import (
    INF,
    IndeterminateThresholdError,
    ParamError,
    PdeParams,
    ThresholdError,
    TripleMQR,
    composite_critical_exponent,
    critical_regularity,
    cutoff_choice,
    data_size,
    growth_exponents,
    is_allowed_triple,
    reference_triples,
    regularity_threshold,
    scale_choice,
    threshold_condition,
)

P4 = PdeParams(p=4.0, s=0.95)


class TestCriticalRegularity:
    def test_endpoint_p5(self):
        assert critical_regularity(5.0) == pytest.approx(1.0, abs=1e-14)

    def test_cubic(self):
        assert critical_regularity(3.0) == pytest.approx(0.5, abs=1e-14)

    def test_quartic(self):
        assert critical_regularity(4.0) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_rejects_singular_power(self):
        with pytest.raises(ParamError):
            critical_regularity(1.0)
        with pytest.raises(ParamError):
            critical_regularity(0.5)


class TestRegularityThreshold:
    def test_quartic_value(self):
        assert regularity_threshold(4.0) == pytest.approx(17.0 / 18.0, rel=1e-14)

    def test_limit_toward_quintic(self):
        assert regularity_threshold(5.0 - 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_out_of_range(self):
        for p in (11.0 / 3.0, 5.0, 3.0, 6.0):
            with pytest.raises(ParamError):
                regularity_threshold(p)

    def test_dominates_three_lower_bounds(self):
        # max{(3p-7)/(2(p-1)), (p-3)/2, (3p-5)/(2p)}; at p=4 the max is 7/8
        assert regularity_threshold(4.0) >= 7.0 / 8.0
        rng = np.random.default_rng(2024)
        for p in rng.uniform(11.0 / 3.0 + 1e-9, 5.0 - 1e-9, size=1000):
            s0 = regularity_threshold(p)
            bounds = ((3 * p - 7) / (2 * (p - 1)), (p - 3) / 2,
                      (3 * p - 5) / (2 * p))
            assert s0 >= max(bounds) - 1e-12

    def test_between_critical_and_one(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(11.0 / 3.0 + 1e-9, 5.0 - 1e-9, size=1000):
            s0 = regularity_threshold(p)
            assert critical_regularity(p) < s0 < 1.0


class TestThresholdCondition:
    def test_above(self):
        assert threshold_condition(0.95, 4.0) is True

    def test_below(self):
        assert threshold_condition(0.90, 4.0) is False

    def test_boundary_is_indeterminate(self):
        with pytest.raises(IndeterminateThresholdError):
            threshold_condition(17.0 / 18.0, 4.0)

    def test_agrees_with_threshold_on_random_samples(self):
        # the inequality (5-p)/2 > (1-s)/(s-s_p) must match s > s_0(p)
        # exactly, outside the declared boundary band
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(10_000):
            p = rng.uniform(11.0 / 3.0 + 1e-9, 5.0 - 1e-9)
            sp = critical_regularity(p)
            s = rng.uniform(sp + 1e-9, 1.0 - 1e-9)
            s0 = regularity_threshold(p)
            if abs(s - s0) <= 1e-10:
                continue
            assert threshold_condition(s, p) == (s > s0), (s, p)
            checked += 1
        assert checked > 9_900


class TestGrowthExponents:
    def test_quartic_defaults(self):
        g = growth_exponents(P4)
        assert g.alpha == pytest.approx(33.5, rel=1e-9)
        assert g.beta == pytest.approx(7.7, rel=1e-9)

    def test_beta_limit_smooth_data(self):
        g = growth_exponents(PdeParams(p=4.0, s=1.0 - 1e-9))
        assert g.beta == pytest.approx(1.0, abs=1e-6)

    def test_blowup_near_threshold(self):
        s0 = regularity_threshold(4.0)
        g = growth_exponents(PdeParams(p=4.0, s=s0 + 1e-6))
        assert g.alpha > 1e3 and g.beta > 1e3

    def test_raises_at_or_below_threshold(self):
        with pytest.raises(ThresholdError):
            growth_exponents(PdeParams(p=4.0, s=0.94))

    def test_raises_exactly_when_condition_fails(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            p = rng.uniform(11.0 / 3.0 + 1e-9, 5.0 - 1e-9)
            sp = critical_regularity(p)
            s = rng.uniform(sp + 1e-9, 1.0 - 1e-9)
            s0 = regularity_threshold(p)
            if abs(s - s0) <= 1e-10:
                continue
            params = PdeParams(p=p, s=s)
            if s > s0:
                g = growth_exponents(params)
                assert g.alpha > 0.0 and g.beta > 0.0
            else:
                with pytest.raises(ThresholdError):
                    growth_exponents(params)

    def test_composite_exponent_quartic(self):
        # beta/(s - s_p) + 1 with beta=7.7, s-s_p=7/60
        assert composite_critical_exponent(P4) == pytest.approx(67.0, rel=1e-9)


class TestPdeParams:
    def test_rejects_power_out_of_strip(self):
        for p in (11.0 / 3.0, 5.0, 2.0):
            with pytest.raises(ParamError):
                PdeParams(p=p, s=0.95)

    def test_rejects_regularity_out_of_window(self):
        with pytest.raises(ParamError):
            PdeParams(p=4.0, s=5.0 / 6.0)
        with pytest.raises(ParamError):
            PdeParams(p=4.0, s=1.0)

    def test_s_crit_property(self):
        assert P4.s_crit == pytest.approx(5.0 / 6.0, rel=1e-14)


class TestDataSize:
    def test_zero(self):
        assert data_size((0.0, 0.0), 0.0, 4.0) == 0.0

    def test_unit(self):
        assert data_size((1.0, 1.0), 1.0, 4.2) == pytest.approx(3.0)

    def test_worked_example(self):
        assert data_size((2.0, 1.0), 3.0, 4.0) == pytest.approx(113.0)

    def test_rejects_negative(self):
        with pytest.raises(ParamError):
            data_size((-1.0, 0.0), 0.0, 4.0)


class TestScaleChoice:
    def test_unit_bases(self):
        assert scale_choice(1.0, 1.0, P4) == pytest.approx(1.0)

    def test_worked_example(self):
        # exponent (1-s)/(s-s_p) = 0.05/(7/60) = 3/7
        assert scale_choice(1.0, 16.0, P4) == pytest.approx(16.0 ** (3.0 / 7.0),
                                                            rel=1e-12)

    def test_monotone_in_cutoff(self):
        vals = [scale_choice(1.0, n, P4) for n in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ParamError):
            scale_choice(0.0, 1.0, P4)


class TestCutoffChoice:
    def test_floor_active(self):
        assert cutoff_choice(1.0, 1.0, P4, floor=8.0) == pytest.approx(8.0)

    def test_worked_example_exponent(self):
        # time exponent 1/((5-p)/2 - (1-s)/(s-s_p)) = 1/(1/2 - 3/7) = 14
        got = cutoff_choice(1.0, 100.0, P4)
        assert math.log10(got) == pytest.approx(28.0, rel=1e-9)

    def test_eventually_increasing_in_horizon(self):
        vals = [cutoff_choice(1.0, t, P4, floor=1.0) for t in (10.0, 20.0, 40.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_raises_below_threshold(self):
        with pytest.raises(ThresholdError):
            cutoff_choice(1.0, 1.0, PdeParams(p=4.0, s=0.9))


class TestAllowedTriples:
    def test_derivative_one_example(self):
        assert is_allowed_triple(TripleMQR(m=1.0, q=4.0, r=12.0), P4)

    def test_sup_in_time_embedding_pair(self):
        r = 6.0 / (3.0 - 2.0 * 0.95)
        assert is_allowed_triple(TripleMQR(m=0.95, q=INF, r=r), P4)

    def test_rejects_infinite_space_exponent(self):
        assert not is_allowed_triple(TripleMQR(m=1.0, q=2.0, r=INF), P4)

    def test_rejects_broken_scaling_identity(self):
        assert not is_allowed_triple(TripleMQR(m=1.0, q=6.0, r=9.1), P4)

    def test_rejects_derivative_weight_in_gap(self):
        # scaling-consistent pair but m strictly between s and 1
        m = 0.97
        q = 4.0
        r = 3.0 / (1.5 - m - 0.25)
        assert not is_allowed_triple(TripleMQR(m=m, q=q, r=r), P4)

    def test_rejects_slow_time_decay_at_derivative_one(self):
        # 1/q + 3/r = 1/2 but 1/q above the allowed cap
        assert not is_allowed_triple(TripleMQR(m=1.0, q=3.0, r=18.0), P4)


class TestReferenceTriples:
    def test_quartic_catalog(self):
        triples = reference_triples(P4)
        assert len(triples) == 6
        assert TripleMQR(m=1.0, q=6.0, r=9.0) in triples
        assert TripleMQR(m=0.5, q=4.0, r=4.0) in triples
        assert TripleMQR(m=7.0 / 8.0, q=4.0, r=8.0) in triples
        mqs = {(t.m, t.q) for t in triples}
        assert (5.0 / 6.0, 3.0) in mqs
        assert (0.8625, 4.0) in mqs

    def test_includes_unbounded_time_pair(self):
        triples = reference_triples(P4)
        infs = [t for t in triples if t.q == INF]
        assert len(infs) == 1
        assert infs[0].r == pytest.approx(60.0 / 11.0, rel=1e-12)

    def test_all_admissible(self):
        for t in reference_triples(P4):
            assert is_allowed_triple(t, P4), t

    def test_admissibility_identity_tight(self):
        for t in reference_triples(P4):
            inv_q = 0.0 if t.q == INF else 1.0 / t.q
            assert abs(inv_q + 3.0 / t.r - (1.5 - t.m)) < 1e-12

    def test_admissible_across_powers(self):
        rng = np.random.default_rng(5)
        for p in rng.uniform(11.0 / 3.0 + 1e-6, 5.0 - 1e-6, size=200):
            sp = critical_regularity(p)
            s0 = regularity_threshold(p)
            params = PdeParams(p=p, s=0.5 * (s0 + 1.0))
            for t in reference_triples(params):
                assert is_allowed_triple(t, params), (p, t)
