import itertools
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from markovup import (
    DeterministicDownKernel,
    StopReason,
    Trajectory,
    cli,
    estimate_tau_moments,
    make_bound_set,
    mc_engine,
    verify,
)
from markovup.lockstep import BLOCK
from markovup.mc_engine import (
    AllCappedError,
    AssumptionsFailError,
    RecordColumns,
    binomial_lower99,
    fold_records,
    reduce_block,
    simulate_records,
)
from markovup.process_core import PathBlock, state_array

from helpers import simulated_trajectories
from oracles import record_oracle


def _record(steps, capped, attempts, max_state, rise_lengths=(), fall_lengths=(), overshoots=()):
    """One path's record as a dict shaped like record_oracle's."""
    return {
        "tau": None if capped else steps, "capped": capped, "attempts": attempts,
        "max_state": max_state, "steps": steps, "rise_lengths": rise_lengths,
        "fall_lengths": fall_lengths, "overshoots": overshoots,
    }


def _per_path(records):
    """Each path's record read back from the columns, whose segments must run in path order."""
    segments = {}
    for name, path in (
        ("rise_lengths", records.rise_path), ("overshoots", records.rise_path),
        ("fall_lengths", records.fall_path),
    ):
        tags = path.tolist()
        assert tags == sorted(tags) and all(0 <= t < len(records) for t in tags)
        by_path = [[] for _ in range(len(records))]
        for pid, value in zip(tags, getattr(records, name).tolist()):
            by_path[pid].append(value)
        segments[name] = by_path
    per_path = zip(
        records.steps.tolist(), records.capped.tolist(),
        records.attempts.tolist(), records.max_state.tolist(),
    )
    return [
        _record(*fields, **{name: tuple(by_path[pid]) for name, by_path in segments.items()})
        for pid, fields in enumerate(per_path)
    ]


def _columns(records):
    """The columns of per-path records, their paths numbered in the given order."""
    rises = [
        (pid, v, o) for pid, r in enumerate(records) for v, o in zip(r["rise_lengths"], r["overshoots"])
    ]
    falls = [(pid, v) for pid, r in enumerate(records) for v in r["fall_lengths"]]
    rise_path, rise_lengths, overshoots = zip(*rises) if rises else ((), (), ())
    fall_path, fall_lengths = zip(*falls) if falls else ((), ())
    return RecordColumns(
        steps=state_array([r["steps"] for r in records]),
        capped=np.array([r["capped"] for r in records], dtype=bool),
        attempts=state_array([r["attempts"] for r in records]),
        max_state=state_array([r["max_state"] for r in records]),
        rise_path=state_array(rise_path),
        rise_lengths=state_array(rise_lengths),
        overshoots=state_array(overshoots),
        fall_path=state_array(fall_path),
        fall_lengths=state_array(fall_lengths),
    )


class TestFoldRecords:
    RECORDS = (
        _record(3, capped=False, attempts=1, max_state=8,
                rise_lengths=(), fall_lengths=(0,), overshoots=()),
        # capped, with segment samples that must not reach any statistic
        _record(100, capped=True, attempts=3, max_state=40,
                rise_lengths=(50,), fall_lengths=(50, 50, 50), overshoots=(50,)),
        _record(20, capped=False, attempts=7, max_state=15,
                rise_lengths=(2, 1, 3, 1, 2, 4, 1), fall_lengths=(1, 2, 1, 3, 1, 2, 0),
                overshoots=(3, 1, 4, 1, 5, 9, 2)),
        _record(9, capped=False, attempts=2, max_state=12,
                rise_lengths=(2,), fall_lengths=(2, 0), overshoots=(5,)),
    )

    def test_capped_record_only_counted(self):
        fold = fold_records(_columns(self.RECORDS), 10, [1])
        assert (fold.capped, fold.n_live, fold.steps) == (1, 3, 132)
        assert fold.estimates[("tau_m", 1)].n_samples == 3
        assert fold.estimates[("fall_length_m", 1)].n_samples == 10
        assert all(e.capped_paths == 1 for e in fold.estimates.values())
        assert fold.hits[0] == 3
        assert sum(fold.diagnostics["attempt_count_hist"].values()) == 3
        assert fold.diagnostics["rise_length_by_index"]["1"] == {"n": 2, "mean": 2.0}

    def test_long_attempt_run_in_top_bucket_and_every_hit(self):
        fold = fold_records(_columns(self.RECORDS), 10, [1])
        assert fold.hits == (3, 2, 1, 1, 1)
        assert fold.diagnostics["attempt_count_hist"] == {"1": 1, "2": 1, "6+": 1}
        assert fold.diagnostics["fall_length_by_index"]["5"] == {"n": 1, "mean": 1.0}
        assert "6" not in fold.diagnostics["fall_length_by_index"]

    def test_estimates_match_two_pass(self):
        live = [r for r in self.RECORDS if not r["capped"]]
        pooled = {
            "tau_m": [r["tau"] for r in live],
            "rise_length_m": [v for r in live for v in r["rise_lengths"]],
            "fall_length_m": [v for r in live for v in r["fall_lengths"]],
            "overshoot_m": [v for r in live for v in r["overshoots"]],
        }
        fold = fold_records(_columns(self.RECORDS), 10, [1, 2, 3])
        for m in (1, 2, 3):
            for quantity, values in pooled.items():
                powers = [float(v) ** m for v in values]
                est = fold.estimates[(quantity, m)]
                assert est.n_samples == len(powers)
                assert est.mean == pytest.approx(statistics.mean(powers), rel=1e-12)
                se = statistics.stdev(powers) / math.sqrt(len(powers))
                assert est.std_error == pytest.approx(se, rel=1e-12)

    def test_mean_is_exact_power_sum_ratio(self):
        live = [r for r in self.RECORDS if not r["capped"]]
        overshoots = [v for r in live for v in r["overshoots"]]
        fold = fold_records(_columns(self.RECORDS), 10, [1, 2, 3])
        for m in (1, 2, 3):
            assert fold.estimates[("tau_m", m)].mean == sum(r["tau"]**m for r in live) / len(live)
            est = fold.estimates[("overshoot_m", m)]
            assert est.mean == sum(v**m for v in overshoots) / len(overshoots)

    def test_fold_independent_of_record_order(self):
        fold = fold_records(_columns(self.RECORDS), 10, [1, 2, 3])
        for perm in itertools.permutations(self.RECORDS):
            assert fold_records(_columns(perm), 10, [1, 2, 3]) == fold

    def test_moment_beyond_float_range_reads_inf(self):
        records = [
            _record(tau, capped=False, attempts=1, max_state=6, fall_lengths=(0,)) for tau in (0, 10**160)
        ]
        est = fold_records(_columns(records), 6, [1]).estimates[("tau_m", 1)]
        assert est.mean == 5e159
        assert est.std_error == math.inf


def _hit(*states, floor_n=5):
    return Trajectory(states[0], states, floor_n, StopReason.HIT_FLOOR, len(states) - 1)


class TestRecordFromTrajectory:
    """Each path, reduced as a block of that path alone, equals the literal-definition reducer."""

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
        for traj in trajectories:
            (record,) = _per_path(reduce_block(PathBlock.of([traj])))
            assert record == record_oracle(traj.states, traj.floor_n), traj.states

    @pytest.mark.parametrize("case", HAND_BUILT)
    def test_hand_built(self, case):
        self.check([self.HAND_BUILT[case]])

    @pytest.mark.parametrize("x0", [10, 20])
    def test_default_model_paths(self, benchmark_kernel, x0):
        self.check(simulated_trajectories(benchmark_kernel, x0, 10_000, seed=13))

    def test_capped_model_paths(self, benchmark_kernel):
        trajectories = simulated_trajectories(benchmark_kernel, 20, 300, seed=13, max_steps=30)
        assert any(t.stop_reason is StopReason.STEP_CAP for t in trajectories)
        self.check(trajectories)

    def test_deterministic_down_path(self):
        self.check(simulated_trajectories(DeterministicDownKernel(floor_n=5), 12, 2, seed=0))


class TestBlockReducer:
    """reduce_block on whole blocks equals the literal-definition reducer path by path."""

    @staticmethod
    def check(trajectories, records):
        records = _per_path(records)
        assert len(records) == len(trajectories)
        for traj, record in zip(trajectories, records):
            assert record == record_oracle(traj.states, traj.floor_n), traj.states

    def test_hand_built_block(self):
        # a capped path in the middle, a start in the floor, falls from the first step
        # and flat steps (up-jumps of 0), all in one block
        hand_built = TestRecordFromTrajectory.HAND_BUILT
        trajectories = [
            hand_built["opens with a fall"],
            hand_built["opens with a flat step"],
            hand_built["capped"],
            _hit(9, 8, 8, 7, 5),  # a flat step ends a fall
            hand_built["tau = 0"],
            hand_built["flat step mid-rise"],
            _hit(6, 5),  # one fall, from the first step into the floor
            hand_built["down-steps larger than 1"],
            hand_built["opens with a rise"],
        ]
        block = PathBlock.of(trajectories)
        assert block.states.dtype == np.int64
        self.check(trajectories, reduce_block(block))
        assert block.trajectories() == trajectories

    def test_start_in_floor(self, benchmark_kernel):
        self.check([_hit(3)] * 40, simulate_records(benchmark_kernel, 3, 40, seed=1))

    def test_path_ids_offset_across_blocks(self, benchmark_kernel):
        n = BLOCK + 300
        records = simulate_records(benchmark_kernel, 7, n, seed=8)
        assert records.rise_path[-1] >= BLOCK and records.fall_path[-1] == n - 1
        self.check(simulated_trajectories(benchmark_kernel, 7, n, seed=8), records)

    def test_capped_paths_mid_block(self, benchmark_kernel):
        trajectories = simulated_trajectories(benchmark_kernel, 20, 300, seed=13, max_steps=30)
        assert trajectories[0].tau is not None and any(t.tau is None for t in trajectories)
        self.check(trajectories, simulate_records(benchmark_kernel, 20, 300, seed=13, max_steps=30))

    def test_states_beyond_int64_as_python_ints(self):
        big = 2**63
        trajectories = [
            _hit(big, big - 1, big + 5, big + 5, big + 2**70, 3),
            Trajectory(big + 1, (big + 1, big, big + 9), 5, StopReason.STEP_CAP, None),
            _hit(7, 6, 8, 5),
        ]
        block = PathBlock.of(trajectories)
        assert block.states.dtype == object
        self.check(trajectories, reduce_block(block))

    def test_start_beyond_int64_through_scalar_fallback(self, benchmark_kernel):
        # the lockstep engine re-runs such a block on the scalar engine
        records = simulate_records(benchmark_kernel, 2**63, 30, seed=2, max_steps=40)
        self.check(simulated_trajectories(benchmark_kernel, 2**63, 30, seed=2, max_steps=40), records)
        assert records.max_state.dtype == object

    def test_columns_read_back_per_path(self):
        records = TestFoldRecords.RECORDS
        assert _per_path(_columns(records)) == list(records)
        assert _columns(records) == _columns(records)
        assert _columns(records) != _columns(records[:3])

    @pytest.mark.parametrize("fault, message", [
        ("negative state", "non-negative"),
        ("early floor entry", "first enter the floor at its last state"),
        ("capped path in the floor", "capped path"),
    ])
    def test_corrupted_block_raises(self, benchmark_kernel, fault, message):
        block = next(mc_engine.simulate_blocks(benchmark_kernel, 20, 200, seed=13, max_steps=30))
        ends = np.cumsum(block.steps + 1) - 1
        if fault == "capped path in the floor":
            pid = int(np.flatnonzero(block.capped)[0])
        else:
            pid = int(np.flatnonzero(~block.capped & (block.steps >= 2))[0])
        state = ends[pid] - 1  # the state before the path's last
        states = block.states.copy()
        states[state] = -1 if fault == "negative state" else block.floor_n
        reduce_block(block)
        with pytest.raises(ValueError, match=message):
            reduce_block(replace(block, states=states))


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
        out = fold_records(simulate_records(kernel, 10, 100, seed=0), 10, [1]).estimates
        assert out[("rise_length_m", 1)].flag == "no-samples"
        assert out[("overshoot_m", 1)].flag == "no-samples"
        # the single fall per path succeeds, so its indicator zeroes it
        assert out[("fall_length_m", 1)].mean == 0.0

    def test_start_in_floor_builds_no_stream(self, monkeypatch):
        # a start in the floor takes no step, so no path's stream is built
        kernel = DeterministicDownKernel(floor_n=5)
        streams = []
        monkeypatch.setattr(mc_engine, "path_stream", lambda *key: streams.append(key))
        blocks = list(mc_engine.simulate_blocks(kernel, 3, BLOCK + 3, seed=0))
        assert streams == []
        assert [block.steps.size for block in blocks] == [BLOCK, 3]
        for block in blocks:
            assert block.floor_n == 5
            assert block.states.tolist() == [3] * block.steps.size
            assert not block.steps.any() and not block.capped.any()


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
            out = fold_records(simulate_records(benchmark_kernel, 10, n, seed=7), 10, [m]).estimates
            cells = [
                (out[("rise_length_m", m)], bs.rise_bound.upper),
                (out[("fall_length_m", m)], bs.fall_bound.upper),
                (out[("overshoot_m", m)], bs.overshoot.upper),
            ]
            for est, bound in cells:
                assert est.mean <= bound + 3 * est.std_error, (m, est.quantity)

    def test_segment_sample_structure(self, benchmark_kernel):
        records = _per_path(simulate_records(benchmark_kernel, 10, 2000, seed=3))
        # rises are actual rises; overshoots pair with them one to one
        assert all(v >= 1 for r in records for v in r["rise_lengths"])
        assert all(len(r["rise_lengths"]) == len(r["overshoots"]) for r in records)
        for r in records:
            # one fall sample per attempt; exactly the successful one is zero
            assert len(r["fall_lengths"]) == r["attempts"]
            assert sum(1 for v in r["fall_lengths"] if v == 0) == 1
            assert r["fall_lengths"][-1] == 0


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

    def test_same_report_from_both_engines(
        self, benchmark_kernel, scalar_benchmark_kernel, benchmark_spec, tmp_path
    ):
        # the subclass takes the scalar engine; both engines' paths go through one reducer
        reports, paths_csv = [], []
        for name, kernel in (("lockstep", benchmark_kernel), ("scalar", scalar_benchmark_kernel)):
            reports.append(verify(
                kernel, benchmark_spec, x_grid=[5, 6, 20], m_list=[1, 2], n_traj=BLOCK + 100, seed=17,
                max_steps=60,
            ))
            cli.write_paths_csv(str(tmp_path / name), reports[-1].records_by_x)
            paths_csv.append((tmp_path / name).read_bytes())
        lockstep, scalar = reports
        assert lockstep.folds == scalar.folds
        assert lockstep.records_by_x == scalar.records_by_x
        assert paths_csv[0] == paths_csv[1]
        assert lockstep.folds[20].capped and lockstep.folds[20].n_live

    def test_capped_paths_block_verdicts(self, benchmark_kernel, benchmark_spec):
        report = verify(
            benchmark_kernel, benchmark_spec,
            x_grid=[30], m_list=[1], n_traj=50, seed=2, max_steps=5,
        )
        assert not report.all_passed
        assert any("capped" in w for w in report.warnings)
        assert all(v.method == "not-issued" for v in report.verdicts)
