import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovup import (
    StopReason,
    Trajectory,
    chi_at,
    decompose_attempts,
    path_stream,
    simulate_path,
    tau_of,
    xi_at,
    zeta_at,
)
from markovup.path_analysis import NotHitError, UnterminatedRunError

from helpers import production_stop_times
from oracles import chi_oracle, tau_oracle, xi_oracle, zeta_oracle


class TestZeta:
    def test_mixed_path(self):
        assert zeta_at([5, 7, 6, 4], 3) == 1

    def test_up_step_resets(self):
        assert zeta_at([5, 7], 1) == 1

    def test_time_zero(self):
        assert zeta_at([5, 7, 6, 4], 0) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            zeta_at([5, 7], 2)


class TestXi:
    def test_flat_steps_extend_rise(self):
        assert xi_at([4, 5, 5, 3], 0) == 2

    def test_immediate_fall(self):
        assert xi_at([9, 7, 6], 0) == 0

    def test_unterminated(self):
        with pytest.raises(UnterminatedRunError):
            xi_at([4, 5, 6], 0)
        with pytest.raises(UnterminatedRunError):
            xi_at([4, 3, 2], 2)  # last index: next step unknown


class TestChi:
    def test_two_down_steps(self):
        assert chi_at([9, 7, 6, 8], 0) == 2

    def test_immediate_rise(self):
        assert chi_at([4, 5, 3], 0) == 0

    def test_unterminated(self):
        with pytest.raises(UnterminatedRunError):
            chi_at([4, 3, 2], 0)


class TestTau:
    def test_already_inside(self):
        assert tau_of([3], 5) == 0

    def test_first_crossing(self):
        assert tau_of([7, 8, 6, 5], 5) == 3

    def test_never(self):
        assert tau_of([7, 8, 9], 5) is None


def _oracle_outcomes(states, n):
    return {
        "zeta": zeta_oracle(states, n),
        "xi": xi_oracle(states, n),
        "chi": chi_oracle(states, n),
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=25), st.data())
def test_stopping_times_match_definition_scans(states, data):
    n = data.draw(st.integers(min_value=0, max_value=len(states) - 1))
    assert production_stop_times(states, n) == _oracle_outcomes(states, n)
    assert tau_of(states, 5) == tau_oracle(states, 5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=25), st.data())
def test_run_end_relations(states, data):
    n = data.draw(st.integers(min_value=0, max_value=len(states) - 1))
    try:
        xi = xi_at(states, n)
        assert xi >= n
        assert states[xi] >= states[n]
    except UnterminatedRunError:
        pass
    try:
        chi = chi_at(states, n)
        assert chi >= n
        if chi > n:
            assert states[chi] < states[n]
    except UnterminatedRunError:
        pass


def _hit_paths(kernel, n_paths, x0, seed, max_steps=10**6):
    for pid in range(n_paths):
        yield simulate_path(kernel, x0, max_steps, path_stream(seed, pid))


class TestDecomposition:
    def test_pure_fall(self):
        traj = Trajectory(8, (8, 7, 6, 5), 5, StopReason.HIT_FLOOR, 3)
        d = decompose_attempts(traj)
        assert d.case == "I"
        assert len(d.attempts) == 1
        assert d.successful_attempt == 1
        assert d.attempts[0].end == 3 == traj.tau
        assert d.rise_segments == ((0, 0, 0),)

    def test_alternating_path(self):
        traj = Trajectory(6, (6, 7, 6, 7, 6, 5), 5, StopReason.HIT_FLOOR, 5)
        d = decompose_attempts(traj)
        assert d.case == "II"
        assert d.times == (0, 1, 2, 3, 5)
        assert [a.success for a in d.attempts] == [False, True]
        assert d.successful_attempt == 2
        # the successful fall covers the two final down-steps
        assert d.attempts[-1].start == 3 and d.attempts[-1].end == 5

    def test_tau_zero_is_trivial(self):
        traj = Trajectory(3, (3,), 5, StopReason.HIT_FLOOR, 0)
        d = decompose_attempts(traj)
        assert d.attempts == ()
        assert d.successful_attempt is None

    def test_capped_path_rejected(self):
        traj = Trajectory(9, (9, 8, 7), 5, StopReason.STEP_CAP, None)
        with pytest.raises(NotHitError):
            decompose_attempts(traj)

    def test_tiling_and_single_success(self, benchmark_kernel):
        rng = np.random.default_rng(11)
        for traj in _hit_paths(benchmark_kernel, 2000, 10, seed=5):
            d = decompose_attempts(traj)
            # intervals tile [0, tau]
            assert d.times[0] == 0
            assert d.times[-1] == traj.tau
            assert all(b >= a for a, b in zip(d.times, d.times[1:]))
            # alternation: falls strictly down, rises non-decreasing
            states = traj.states
            for j, t_prev, T in d.fall_segments:
                assert all(states[i + 1] < states[i] for i in range(t_prev, T))
            for j, T, t in d.rise_segments:
                assert all(states[i + 1] >= states[i] for i in range(T, t))
            # exactly one success, at the last attempt, ending at tau
            assert sum(a.success for a in d.attempts) == 1
            assert d.attempts[-1].success
            assert d.attempts[-1].end == traj.tau
            # each fall is no longer than its start height
            for a in d.attempts:
                assert a.length <= states[a.start]

    def test_empirical_attempt_tail_below_ceiling(self, benchmark_kernel):
        # one-sided check of the attempt-failure ceiling, 3 sigma slack
        import math

        from markovup import q_bar

        n = 20_000
        qb = q_bar(benchmark_kernel.spec.kappa).upper
        counts = [0] * 6
        for traj in _hit_paths(benchmark_kernel, n, 10, seed=99):
            k = len(decompose_attempts(traj).attempts)
            for i in range(1, min(k, 5) + 1):
                counts[i] += 1
        for i in range(1, 6):
            freq = counts[i] / n
            bound = qb ** (i - 1)
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / n)
            assert freq <= bound + 3 * se, (i, freq, bound)
