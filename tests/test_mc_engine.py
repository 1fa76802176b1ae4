import itertools
import math
import statistics

import numpy as np
import pytest

from markovup import (
    DeterministicDownKernel,
    StopReason,
    Trajectory,
    estimate_segment_moments,
    estimate_tau_moments,
    make_bound_set,
    verify,
)
from markovup.mc_engine import (
    AllCappedError,
    AssumptionsFailError,
    PathRecord,
    binomial_lower99,
    fold_records,
    record_from_trajectory,
    simulate_records,
    simulate_trajectories,
)

from oracles import record_oracle


class TestFoldRecords:
    RECORDS = (
        PathRecord(0, tau=3, capped=False, attempts=1, max_state=8, steps=3,
                   rise_lengths=(), fall_lengths=(0,), overshoots=()),
        # capped, with segment samples that must not reach any statistic
        PathRecord(1, tau=None, capped=True, attempts=3, max_state=40, steps=100,
                   rise_lengths=(50,), fall_lengths=(50, 50, 50), overshoots=(50,)),
        PathRecord(2, tau=20, capped=False, attempts=7, max_state=15, steps=20,
                   rise_lengths=(2, 1, 3, 1, 2, 4, 1), fall_lengths=(1, 2, 1, 3, 1, 2, 0),
                   overshoots=(3, 1, 4, 1, 5, 9, 2)),
        PathRecord(3, tau=9, capped=False, attempts=2, max_state=12, steps=9,
                   rise_lengths=(2,), fall_lengths=(2, 0), overshoots=(5,)),
    )

    def test_capped_record_only_counted(self):
        fold = fold_records(self.RECORDS, 10, [1])
        assert (fold.capped, fold.n_live, fold.steps) == (1, 3, 132)
        assert fold.estimates[("tau_m", 1)].n_samples == 3
        assert fold.estimates[("fall_length_m", 1)].n_samples == 10
        assert all(e.capped_paths == 1 for e in fold.estimates.values())
        assert fold.hits[0] == 3
        assert sum(fold.diagnostics["attempt_count_hist"].values()) == 3
        assert fold.diagnostics["rise_length_by_index"]["1"] == {"n": 2, "mean": 2.0}

    def test_long_attempt_run_in_top_bucket_and_every_hit(self):
        fold = fold_records(self.RECORDS, 10, [1])
        assert fold.hits == (3, 2, 1, 1, 1)
        assert fold.diagnostics["attempt_count_hist"] == {"1": 1, "2": 1, "6+": 1}
        assert fold.diagnostics["fall_length_by_index"]["5"] == {"n": 1, "mean": 1.0}
        assert "6" not in fold.diagnostics["fall_length_by_index"]

    def test_estimates_match_two_pass(self):
        live = [r for r in self.RECORDS if not r.capped]
        pooled = {
            "tau_m": [r.tau for r in live],
            "rise_length_m": [v for r in live for v in r.rise_lengths],
            "fall_length_m": [v for r in live for v in r.fall_lengths],
            "overshoot_m": [v for r in live for v in r.overshoots],
        }
        fold = fold_records(self.RECORDS, 10, [1, 2, 3])
        for m in (1, 2, 3):
            for quantity, values in pooled.items():
                powers = [float(v) ** m for v in values]
                est = fold.estimates[(quantity, m)]
                assert est.n_samples == len(powers)
                assert est.mean == pytest.approx(statistics.mean(powers), rel=1e-12)
                se = statistics.stdev(powers) / math.sqrt(len(powers))
                assert est.std_error == pytest.approx(se, rel=1e-12)

    def test_mean_is_exact_power_sum_ratio(self):
        live = [r for r in self.RECORDS if not r.capped]
        overshoots = [v for r in live for v in r.overshoots]
        fold = fold_records(self.RECORDS, 10, [1, 2, 3])
        for m in (1, 2, 3):
            assert fold.estimates[("tau_m", m)].mean == sum(r.tau**m for r in live) / len(live)
            est = fold.estimates[("overshoot_m", m)]
            assert est.mean == sum(v**m for v in overshoots) / len(overshoots)

    def test_fold_independent_of_record_order(self):
        fold = fold_records(self.RECORDS, 10, [1, 2, 3])
        for perm in itertools.permutations(self.RECORDS):
            assert fold_records(perm, 10, [1, 2, 3]) == fold

    def test_moment_beyond_float_range_reads_inf(self):
        records = [
            PathRecord(pid, tau=tau, capped=False, attempts=1, max_state=6, steps=1, fall_lengths=(0,))
            for pid, tau in enumerate((0, 10**160))
        ]
        est = fold_records(records, 6, [1]).estimates[("tau_m", 1)]
        assert est.mean == 5e159
        assert est.std_error == math.inf


def _hit(*states, floor_n=5):
    return Trajectory(states[0], states, floor_n, StopReason.HIT_FLOOR, len(states) - 1)


class TestRecordFromTrajectory:
    """Each record equals the literal-definition reducer, field by field."""

    HAND_BUILT = {
        "opens with a fall": _hit(8, 7, 9, 10, 8, 7, 6, 5),
        "opens with a rise": _hit(7, 9, 8, 6, 7, 6, 4),
        "opens with a flat step": _hit(7, 7, 6, 8, 8, 7, 5),
        "flat step mid-rise": _hit(9, 8, 10, 10, 12, 11, 12, 12, 13, 6, 4),
        "down-steps larger than 1": _hit(12, 9, 10, 10, 4),
        "tau = 0": _hit(3),
        "capped": Trajectory(9, (9, 8, 10, 10, 7, 8), 5, StopReason.STEP_CAP, None),
    }

    @staticmethod
    def check(trajectories):
        for pid, traj in enumerate(trajectories):
            record = record_from_trajectory(pid, traj)
            want = record_oracle(traj.states, traj.floor_n)
            got = {name: getattr(record, name) for name in want}
            assert got == want, traj.states
            assert record.path_id == pid

    @pytest.mark.parametrize("case", HAND_BUILT)
    def test_hand_built(self, case):
        self.check([self.HAND_BUILT[case]])

    @pytest.mark.parametrize("x0", [10, 20])
    def test_default_model_paths(self, benchmark_kernel, x0):
        self.check(simulate_trajectories(benchmark_kernel, x0, 10_000, seed=13))

    def test_capped_model_paths(self, benchmark_kernel):
        trajectories = simulate_trajectories(benchmark_kernel, 20, 300, seed=13, max_steps=30)
        assert any(t.stop_reason is StopReason.STEP_CAP for t in trajectories)
        self.check(trajectories)

    def test_deterministic_down_path(self):
        self.check(simulate_trajectories(DeterministicDownKernel(floor_n=5), 12, 2, seed=0))


class TestDeterministicDynamics:
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_tau_equals_distance(self, k):
        kernel = DeterministicDownKernel(floor_n=5)
        estimates = estimate_tau_moments(kernel, 5 + k, [1, 2, 3], n_traj=200, seed=0)
        for est in estimates:
            assert est.mean == float(k) ** est.m
            assert est.std_error == 0.0
            assert est.capped_paths == 0

    def test_no_rises_flagged(self):
        kernel = DeterministicDownKernel(floor_n=5)
        out = estimate_segment_moments(kernel, 10, 1, n_traj=100, seed=0)
        assert out["rise_length_m"].flag == "no-samples"
        assert out["overshoot_m"].flag == "no-samples"
        # the single fall per path succeeds, so its indicator zeroes it
        assert out["fall_length_m"].mean == 0.0


class TestTauMoments:
    def test_start_inside_floor_gives_zero(self, benchmark_kernel):
        for est in estimate_tau_moments(benchmark_kernel, 3, [1, 2], n_traj=100, seed=1):
            assert est.mean == 0.0
            assert est.std_error == 0.0

    def test_all_capped_raises(self, benchmark_kernel):
        with pytest.raises(AllCappedError):
            estimate_tau_moments(benchmark_kernel, 50, [1], n_traj=10, seed=1, max_steps=2)

    def test_self_consistency_across_seeds(self, benchmark_kernel):
        # two disjoint-seed runs agree within 4 combined standard errors
        n = 100_000
        a = estimate_tau_moments(benchmark_kernel, 10, [1], n_traj=n, seed=101)[0]
        b = estimate_tau_moments(benchmark_kernel, 10, [1], n_traj=n, seed=202)[0]
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 4 * combined
        # and each mean lies inside the other run's 99% band
        assert abs(a.mean - b.mean) <= 2.576 * combined


class TestDeterminism:
    def test_records_independent_of_worker_count(self, benchmark_kernel, scalar_benchmark_kernel):
        # the benchmark kernel runs in lockstep on one thread; its subclass
        # runs on the scalar engine's chunked thread pool
        for kernel in (benchmark_kernel, scalar_benchmark_kernel):
            runs = [
                simulate_records(kernel, 10, 500, seed=42, threads=t)
                for t in (1, 4, 8)
            ]
            assert runs[0] == runs[1] == runs[2]

    def test_records_keyed_by_path_and_task(self, benchmark_kernel):
        a = simulate_records(benchmark_kernel, 10, 50, seed=42, task_index=0)
        b = simulate_records(benchmark_kernel, 10, 50, seed=42, task_index=1)
        assert a != b
        again = simulate_records(benchmark_kernel, 10, 50, seed=42, task_index=0)
        assert a == again


class TestSegmentMoments:
    def test_pooled_moments_respect_bounds(self, benchmark_kernel, benchmark_spec):
        # one-sided: pooled means stay under the certified constants
        n = 20_000
        for m in (1, 2):
            bs = make_bound_set(m, benchmark_spec.kappa, benchmark_spec.up_jump_s)
            out = estimate_segment_moments(benchmark_kernel, 10, m, n_traj=n, seed=7)
            cells = [
                (out["rise_length_m"], bs.rise_bound.upper),
                (out["fall_length_m"], bs.fall_bound.upper),
                (out["overshoot_m"], bs.overshoot.upper),
            ]
            for est, bound in cells:
                assert est.mean <= bound + 3 * est.std_error, (m, est.quantity)

    def test_segment_sample_structure(self, benchmark_kernel):
        records = simulate_records(benchmark_kernel, 10, 2000, seed=3)
        # rises are actual rises; overshoots pair with them one to one
        assert all(v >= 1 for r in records for v in r.rise_lengths)
        assert all(len(r.rise_lengths) == len(r.overshoots) for r in records)
        for r in records:
            # one fall sample per attempt; exactly the successful one is zero
            assert len(r.fall_lengths) == r.attempts
            assert sum(1 for v in r.fall_lengths if v == 0) == 1
            assert r.fall_lengths[-1] == 0


class TestBinomialTest:
    def test_lower_bound_basic_properties(self):
        assert binomial_lower99(0, 100) == 0.0
        assert 0.9 < binomial_lower99(100, 100) < 1.0
        lo = binomial_lower99(50, 100)
        assert 0.3 < lo < 0.5  # well below the point estimate

    def test_equals_scipy_stats_beta_quantile(self):
        from scipy.stats import beta

        rng = np.random.default_rng(2024)
        n = rng.integers(1, 300_001, size=2400)
        s = rng.integers(1, n, endpoint=True)
        # edge counts: one success, all successes, and the largest n
        s[:400], s[400:800] = 1, n[400:800]
        pairs = [(1, 1), (1, 300_000), (300_000, 300_000), (150_000, 300_000)]
        pairs += list(zip(s.tolist(), n.tolist()))
        for k, m in pairs:
            assert binomial_lower99(k, m) == float(beta.ppf(0.01, k, m - k + 1)), (k, m)

    def test_duality_with_exact_binomial_test(self):
        from scipy.stats import binomtest

        for k, n, p0 in [(7200, 10000, 0.71), (7200, 10000, 0.73), (55, 80, 0.6)]:
            reject = binomtest(k, n, p0, alternative="greater").pvalue < 0.01
            assert (binomial_lower99(k, n) > p0) == reject


class TestVerify:
    def test_small_grid_all_pass(self, benchmark_kernel, benchmark_spec):
        report = verify(
            benchmark_kernel, benchmark_spec,
            x_grid=[6, 10], m_list=[1, 2], n_traj=5000, seed=11,
        )
        assert report.all_passed
        quantities = {v.estimate.quantity for v in report.verdicts}
        assert quantities == {
            "tau_m", "rise_length_m", "fall_length_m", "overshoot_m", "attempt_survival",
        }
        # 2 x-values * (2 m * 4 moment cells + 5 attempt cells)
        assert len(report.verdicts) == 2 * (2 * 4 + 5)

    def test_attempt_survival_first_cell_trivial(self, benchmark_kernel, benchmark_spec):
        report = verify(
            benchmark_kernel, benchmark_spec,
            x_grid=[10], m_list=[1], n_traj=1000, seed=5,
        )
        first = [
            v for v in report.verdicts
            if v.estimate.quantity == "attempt_survival" and v.estimate.m == 1
        ][0]
        assert first.estimate.mean == 1.0
        assert first.bound == 1.0
        assert first.passed

    def test_verdicts_deterministic_across_threads(self, benchmark_kernel, benchmark_spec):
        reports = [
            verify(
                benchmark_kernel, benchmark_spec,
                x_grid=[8], m_list=[1], n_traj=2000, seed=9, threads=t,
            )
            for t in (1, 4)
        ]
        rows = [[v.to_dict() for v in rep.verdicts] for rep in reports]
        assert rows[0] == rows[1]

    def test_assumption_gate(self, benchmark_spec):
        # a kernel whose spec fails the structural checks cannot be verified;
        # simulate that by monkeypatching the certificate outcome
        import markovup.mc_engine as eng

        class FakeCert:
            theorem_ready = False

        original = eng.certify
        eng.certify = lambda spec, m_max: FakeCert()
        try:
            with pytest.raises(AssumptionsFailError):
                verify(None, benchmark_spec, [10], [1], 100, 0)
        finally:
            eng.certify = original

    def test_repeated_moment_order_rejected(self, benchmark_kernel, benchmark_spec):
        with pytest.raises(ValueError, match="m_list"):
            verify(benchmark_kernel, benchmark_spec, x_grid=[6], m_list=[1, 1], n_traj=10, seed=0)

    def test_capped_paths_block_verdicts(self, benchmark_kernel, benchmark_spec):
        report = verify(
            benchmark_kernel, benchmark_spec,
            x_grid=[30], m_list=[1], n_traj=50, seed=2, max_steps=5,
        )
        assert not report.all_passed
        assert any("capped" in w for w in report.warnings)
        assert all(v.method == "not-issued" for v in report.verdicts)
