import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovup import (
    KappaSpec,
    fall_length_bound,
    jump_moment,
    make_bound_set,
    overshoot_bound,
    power_series,
    q_bar,
    theorem_bound,
)
from markovup.bound_calc import MAX_TERMS, InvalidQError, SeriesLengthError, SeriesValue
from markovup.model_zoo import InvalidParameterError

from oracles import brute_series

# closed forms of sum_{k>=1} k**m q**k for m = 0, 1, 2
CLOSED = {
    0: lambda q: q / (1 - q),
    1: lambda q: q / (1 - q) ** 2,
    2: lambda q: q * (1 + q) / (1 - q) ** 3,
}

# frozen by brute-force product of (1 - 0.5**j) to below 1e-14
Q_BAR_BENCH = 0.711211904913398

Q_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


class TestPowerSeries:
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("q", Q_GRID)
    def test_matches_closed_form(self, m, q):
        # eps below the advertised relative tolerance; the default 1e-10
        # absolute tail is checked separately via the bracket property
        sv = power_series(m, q, eps=1e-12)
        expected = CLOSED[m](q)
        assert abs(sv.value - expected) / expected < 1e-10

    def test_reference_values(self):
        assert power_series(2, 0.5).value == pytest.approx(6.0, abs=1e-9)
        assert power_series(1, 0.5).value == pytest.approx(2.0, abs=1e-9)
        assert power_series(0, 0.5).value == pytest.approx(1.0, abs=1e-9)

    def test_invalid_q(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidQError):
                power_series(1, bad)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.05, max_value=0.9),
    )
    def test_bracket_contains_true_sum(self, m, q):
        sv = power_series(m, q)
        brute = brute_series(m, q, 10 * sv.truncation_k)
        assert sv.value <= brute * (1 + 1e-12) + 1e-15
        assert brute <= sv.value + sv.tail_bound + 1e-12 * brute

    def test_zero_eps_rejected(self):
        # no tail is below 0, so eps = 0 would never stop the sum
        with pytest.raises(ValueError, match="eps must be positive"):
            power_series(1, 0.5, eps=0.0)

    def test_ratio_near_one_stops_at_term_budget(self):
        # at q = 1 - 1e-12 the tail falls under eps only after about 10**13 terms
        with pytest.raises(SeriesLengthError, match=f"more than {MAX_TERMS} terms"):
            power_series(1, 1.0 - 1e-12)

    def test_tail_under_requested_eps(self):
        for eps in (1e-6, 1e-10, 1e-13):
            sv = power_series(3, 0.8, eps)
            assert sv.tail_bound < eps


class TestFallLengthBound:
    def test_reference_values(self):
        kappa = KappaSpec(a=0.5, r=0.5)
        assert fall_length_bound(1, kappa).value == pytest.approx(1.0, abs=1e-9)
        assert fall_length_bound(2, kappa).value == pytest.approx(3.0, abs=1e-9)

    def test_scales_with_gap_size(self):
        small = fall_length_bound(1, KappaSpec(a=1e-6, r=0.5)).upper
        assert small == pytest.approx(2e-6, rel=1e-6)

    def test_bracket(self):
        kappa = KappaSpec(a=0.3, r=0.7)
        sv = fall_length_bound(2, kappa)
        brute = sum(i**2 * (1 - kappa.at(i)) for i in range(1, 10 * sv.truncation_k))
        assert sv.value <= brute <= sv.value + sv.tail_bound + 1e-12 * brute


class TestJumpMoment:
    def test_reference_values(self):
        assert jump_moment(0.5, 0) == 1.0
        assert jump_moment(0.5, 1) == pytest.approx(1.0, abs=1e-9)
        assert jump_moment(0.5, 2) == pytest.approx(3.0, abs=1e-9)
        assert jump_moment(0.5, 3) == pytest.approx(13.0, abs=1e-9)

    def test_mean_closed_form(self):
        for s in (0.2, 0.5, 0.8):
            assert jump_moment(s, 1) == pytest.approx((1 - s) / s, rel=1e-9)

    def test_second_moment_closed_form(self):
        for s in (0.2, 0.5, 0.8):
            expected = (1 - s) * (2 - s) / s**2
            assert jump_moment(s, 2) == pytest.approx(expected, rel=1e-9)

    def test_tiny_s_named(self):
        with pytest.raises(InvalidParameterError, match="^s is too small") as info:
            jump_moment(1e-12, 1)
        assert info.value.name == "s"


class TestOvershootBound:
    def test_both_forms_reported(self):
        dual = overshoot_bound(1, 0.5, 1.0)
        assert dual.per_step_form.value == pytest.approx(4.0, abs=1e-9)
        assert dual.compact_form.value == pytest.approx(1.0, abs=1e-9)
        assert dual.chosen is dual.per_step_form
        assert dual.value == pytest.approx(4.0, abs=1e-9)

    def test_zero_jump_moment(self):
        dual = overshoot_bound(2, 0.5, 0.0)
        assert dual.value == 0.0
        assert dual.upper == 0.0

    def test_per_step_form_always_at_least_compact(self):
        for q in Q_GRID:
            for m in (1, 2, 3):
                dual = overshoot_bound(m, q, 2.5)
                assert dual.per_step_form.upper >= dual.compact_form.upper


class TestQBar:
    def test_benchmark_value(self):
        sv = q_bar(KappaSpec(a=0.5, r=0.5))
        assert sv.value - 1e-15 <= Q_BAR_BENCH <= sv.upper + 1e-15
        assert sv.value == pytest.approx(Q_BAR_BENCH, abs=1e-9)
        assert sv.tail_bound < 1e-10

    def test_bracket_contains_brute_force_product(self):
        for a, r in [(0.5, 0.5), (0.3, 0.8), (0.9, 0.2)]:
            kappa = KappaSpec(a=a, r=r)
            sv = q_bar(kappa)
            prod = 1.0
            for i in range(5000):
                prod *= kappa.at(i)
            true_q_bar = 1.0 - prod
            assert sv.value - 1e-12 <= true_q_bar <= sv.value + sv.tail_bound + 1e-12

    def test_small_gap_limit(self):
        assert q_bar(KappaSpec(a=1e-9, r=0.5)).upper < 1e-8

    def test_fast_decay_limit(self):
        # with r tiny only kappa_0 contributes materially, so q_bar -> a
        sv = q_bar(KappaSpec(a=0.3, r=1e-9))
        assert sv.value == pytest.approx(0.3, rel=1e-6)

    def test_small_gap_near_one_stops_at_factor_budget(self):
        # at a = 1e-9, r = 1 - 1e-9 the log-tail falls under eps only after about 2e10 factors
        with pytest.raises(SeriesLengthError, match=f"more than {MAX_TERMS} factors"):
            q_bar(KappaSpec(a=1e-9, r=0.999999999))

    @pytest.mark.parametrize("a, r", [(0.5, 0.985), (0.5, 0.99), (0.9, 0.98), (0.5, 0.999)])
    def test_upper_bracket_at_one_rejected(self, a, r):
        # q_bar's value plus its tail bound rounds to 1, so its attempt series
        # has no ratio below 1 to certify: the bounds name the series, not q
        kappa = KappaSpec(a=a, r=r)
        assert q_bar(kappa).upper >= 1.0
        with pytest.raises(SeriesLengthError, match="is not certified below 1"):
            make_bound_set(1, kappa, 0.5)


class TestTheoremBound:
    def test_m1_reference_value(self):
        kappa = KappaSpec(a=0.5, r=0.5)
        bs = make_bound_set(1, kappa, 0.5)
        tb = theorem_bound(1, 10, bs)
        # display assembly: x + (2 + 1 + 4*q_bar) / (1 - q_bar)**2
        expected_display = 10 + (2 + 1 + 4 * Q_BAR_BENCH) / (1 - Q_BAR_BENCH) ** 2
        assert tb.display == pytest.approx(expected_display, rel=1e-7)
        # term-by-term assembly drops the q_bar factor on the overshoot term
        expected_termwise = 10 + (2 + 1 + 4) / (1 - Q_BAR_BENCH) ** 2
        assert tb.termwise == pytest.approx(expected_termwise, rel=1e-7)
        assert tb.value == max(tb.display, tb.termwise)

    def test_x_zero_reduces_to_constants(self):
        kappa = KappaSpec(a=0.5, r=0.5)
        for m in (1, 2, 3):
            bs = make_bound_set(m, kappa, 0.5)
            tb = theorem_bound(m, 0, bs)
            assert tb.display == pytest.approx(tb.c1 * tb.c2, rel=1e-12)

    def test_monotone_in_x(self):
        bs = make_bound_set(2, KappaSpec(a=0.5, r=0.5), 0.5)
        values = [theorem_bound(2, x, bs).value for x in range(0, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_finite_and_dominates_components(self):
        kappa = KappaSpec(a=0.5, r=0.5)
        for m in range(1, 7):
            bs = make_bound_set(m, kappa, 0.5)
            tb = theorem_bound(m, 6, bs)
            assert math.isfinite(tb.value)
            assert tb.value >= bs.rise_bound.upper
            assert tb.value >= bs.fall_bound.upper
            assert tb.value >= bs.overshoot.upper

    def test_wrong_order_rejected(self):
        bs = make_bound_set(1, KappaSpec(a=0.5, r=0.5), 0.5)
        with pytest.raises(ValueError):
            theorem_bound(2, 5, bs)


def test_series_value_scaling():
    sv = SeriesValue(2.0, 10, 1e-12)
    scaled = sv.scaled(3.0)
    assert scaled.value == 6.0
    assert scaled.tail_bound == 3e-12
    with pytest.raises(ValueError):
        sv.scaled(-1.0)
