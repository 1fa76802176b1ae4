import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovup import (
    DeterministicDownKernel,
    FallWindow,
    StepDistribution,
    StopReason,
    initial_window,
    path_stream,
    sample_step,
    simulate_path,
    window_update,
)
from markovup.process_core import DistributionInvalidError

from helpers import distribution_items
from oracles import window_oracle


class TestFallWindow:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FallWindow(0, (3, 5))  # not decreasing
        with pytest.raises(ValueError):
            FallWindow(0, (4, 4))  # not strictly
        with pytest.raises(ValueError):
            FallWindow(0, ())
        with pytest.raises(ValueError):
            FallWindow(-1, (3,))

    def test_accessors(self):
        w = FallWindow(2, (9, 7, 6))
        assert w.current == 6
        assert w.fall_length == 2

    def test_update_extends_on_strict_fall(self):
        w = FallWindow(0, (9, 7))
        out = window_update(w, 6, 2)
        assert out == FallWindow(0, (9, 7, 6))

    def test_update_resets_on_flat_step(self):
        w = FallWindow(0, (9, 7))
        out = window_update(w, 7, 2)
        assert out == FallWindow(2, (7,))

    def test_update_resets_on_up_step(self):
        w = FallWindow(0, (9, 7))
        out = window_update(w, 12, 2)
        assert out == FallWindow(2, (12,))

    def test_update_rejects_wrong_time(self):
        w = FallWindow(0, (9, 7))
        with pytest.raises(ValueError):
            window_update(w, 6, 5)

    def test_update_rejects_negative_state(self):
        with pytest.raises(ValueError, match="non-negative"):
            window_update(FallWindow(0, (9, 7)), -1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
def test_incremental_window_matches_direct_scan(states):
    window = initial_window(states[0])
    for n in range(1, len(states)):
        window = window_update(window, states[n], n)
        start, suffix = window_oracle(states, n)
        assert window.start_time == start
        assert window.values == suffix


def test_incremental_window_matches_scan_on_benchmark_paths(benchmark_kernel):
    # spec-level volume: 10^4 random paths, prefix length <= 50
    rng = np.random.default_rng(1234)
    checked = 0
    for pid in range(10_000):
        x0 = int(rng.integers(6, 13))
        traj = simulate_path(benchmark_kernel, x0, 50, path_stream(99, pid))
        states = traj.states
        window = initial_window(states[0])
        for n in range(1, len(states)):
            window = window_update(window, states[n], n)
            start, suffix = window_oracle(states, n)
            assert (window.start_time, window.values) == (start, suffix)
        checked += 1
    assert checked == 10_000


class TestStepDistribution:
    def test_degenerate_quantile(self):
        d = StepDistribution((5,), (1.0,))
        assert d.quantile(0.0) == 5
        assert d.quantile(0.999999) == 5

    def test_two_point_inverse_cdf(self):
        d = StepDistribution((4, 6), (0.5, 0.5))
        assert d.quantile(0.25) == 4
        assert d.quantile(0.75) == 6

    def test_invalid_mass_detected(self):
        with pytest.raises(DistributionInvalidError):
            d = StepDistribution((4, 6), (0.5, 0.4))
            d.quantile(0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(states=(1, 2), probs=(1.5, -0.5)),
        dict(states=(1,), probs=(1.2,), tail_start=2, tail_mass=-0.2, tail_ratio=0.5),
        dict(states=(1,), probs=(0.7,), tail_mass=0.3),  # no tail to carry the 0.3
    ])
    def test_negative_or_misplaced_mass_rejected(self, kwargs):
        with pytest.raises(DistributionInvalidError):
            StepDistribution(**kwargs)

    def test_geometric_tail_quantile_matches_cdf(self):
        # head {2: 0.5}, tail on {3, 4, ...} with ratio 0.5
        d = StepDistribution((2,), (0.5,), tail_start=3, tail_mass=0.5, tail_ratio=0.5)
        assert abs(d.total_mass() - 1.0) < 1e-15
        assert d.quantile(0.49) == 2
        # P(3) = 0.25, P(4) = 0.125, ...
        assert d.quantile(0.5) == 3
        assert d.quantile(0.74) == 3
        assert d.quantile(0.76) == 4
        assert d.quantile(0.9999999) > 4

    def test_prob_and_items_consistent(self):
        d = StepDistribution((2,), (0.5,), tail_start=3, tail_mass=0.5, tail_ratio=0.5)
        assert d.prob(2) == 0.5
        assert d.prob(3) == pytest.approx(0.25)
        assert d.prob(17) == pytest.approx(0.5 * 0.5 * 0.5**14)
        total = sum(p for _, p in distribution_items(d, 1e-12))
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_quantile_agrees_with_enumerated_cdf(self):
        d = StepDistribution((1, 4), (0.3, 0.2), tail_start=6, tail_mass=0.5, tail_ratio=0.7)
        pairs = list(distribution_items(d, 1e-13))
        rng = np.random.default_rng(5)
        for u in rng.random(2000):
            acc = 0.0
            expected = pairs[-1][0]
            for s, p in pairs:
                acc += p
                if u < acc:
                    expected = s
                    break
            assert d.quantile(u) == expected


class TestSampleStep:
    def test_fixed_draws(self, benchmark_kernel, fixed_draws):
        w = FallWindow(0, (7,))
        # kappa_0 = 0.5: draw below it falls, above it jumps
        assert sample_step(benchmark_kernel, w, fixed_draws([0.25])) == 6
        assert sample_step(benchmark_kernel, w, fixed_draws([0.5])) == 7
        assert sample_step(benchmark_kernel, w, fixed_draws([0.76])) == 8

    def test_down_frequency_matches_kappa0(self, benchmark_kernel):
        # 10^6 draws against the declared kappa_0, three binomial sigmas
        n = 1_000_000
        w = FallWindow(0, (7,))
        rng = path_stream(2024, 0)
        draws = rng.random(n)
        downs = sum(1 for u in draws if benchmark_kernel.next(w).quantile(u) == 6)
        kappa0 = 0.5
        se = math.sqrt(kappa0 * (1 - kappa0) / n)
        assert abs(downs / n - kappa0) < 3 * se


class TestSimulatePath:
    def test_start_at_or_below_floor(self, benchmark_kernel):
        traj = simulate_path(benchmark_kernel, 3, 100, path_stream(0, 0))
        assert traj.states == (3,)
        assert traj.tau == 0
        assert traj.stop_reason is StopReason.HIT_FLOOR

    def test_deterministic_down_kernel(self):
        kernel = DeterministicDownKernel(floor_n=5)
        traj = simulate_path(kernel, 8, 100, path_stream(0, 0))
        assert traj.states == (8, 7, 6, 5)
        assert traj.tau == 3

    def test_same_seed_same_path(self, benchmark_kernel):
        a = simulate_path(benchmark_kernel, 10, 10**6, path_stream(42, 7))
        b = simulate_path(benchmark_kernel, 10, 10**6, path_stream(42, 7))
        assert a == b

    def test_different_paths_differ(self, benchmark_kernel):
        a = simulate_path(benchmark_kernel, 10, 10**6, path_stream(42, 0))
        b = simulate_path(benchmark_kernel, 10, 10**6, path_stream(42, 1))
        assert a.states != b.states

    def test_hitting_correctness(self, benchmark_kernel):
        for pid in range(500):
            traj = simulate_path(benchmark_kernel, 12, 10**6, path_stream(3, pid))
            assert traj.stop_reason is StopReason.HIT_FLOOR
            assert traj.states[traj.tau] <= 5
            assert all(s > 5 for s in traj.states[: traj.tau])

    def test_step_cap(self, benchmark_kernel):
        traj = simulate_path(benchmark_kernel, 50, 3, path_stream(0, 0))
        assert traj.stop_reason is StopReason.STEP_CAP
        assert traj.tau is None
        assert len(traj.states) == 4


def test_kernel_is_window_pure(benchmark_kernel):
    w1 = FallWindow(3, (9, 8, 7))
    w2 = FallWindow(3, (9, 8, 7))
    assert w1 is not w2
    assert benchmark_kernel.next(w1) == benchmark_kernel.next(w2)
    # the benchmark family is also time-homogeneous: absolute clock ignored
    w3 = FallWindow(11, (9, 8, 7))
    assert benchmark_kernel.next(w3) == benchmark_kernel.next(w1)
