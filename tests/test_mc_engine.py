import itertools
import json
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from markovup import (
    BenchmarkKernel,
    BenchmarkModelSpec,
    DeterministicDownKernel,
    KappaSpec,
    StopReason,
    Trajectory,
    cli,
    decompose_attempts,
    estimate_tau_moments,
    make_bound_set,
    mc_engine,
    verify,
)
from markovup.mc_engine import (
    AllCappedError,
    AssumptionsFailError,
    RecordColumns,
    binomial_lower99,
    fold_records,
    reduce_block,
    simulate_records,
    verify_records,
)
from markovup.process_core import PathBlock

from helpers import block_trajectories, simulated_trajectories
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
        steps=np.array([r["steps"] for r in records], dtype=np.int64),
        capped=np.array([r["capped"] for r in records], dtype=bool),
        attempts=np.array([r["attempts"] for r in records], dtype=np.int64),
        max_state=np.array([r["max_state"] for r in records], dtype=np.int64),
        rise_path=np.array(rise_path, dtype=np.int64),
        rise_lengths=np.array(rise_lengths, dtype=np.int64),
        overshoots=np.array(overshoots, dtype=np.int64),
        fall_path=np.array(fall_path, dtype=np.int64),
        fall_lengths=np.array(fall_lengths, dtype=np.int64),
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
        fold = fold_records([_columns(self.RECORDS)], 10, [1])
        assert (fold.capped, fold.n_live, fold.steps) == (1, 3, 132)
        assert fold.estimates[("tau_m", 1)].n_samples == 3
        assert fold.estimates[("fall_length_m", 1)].n_samples == 10
        assert all(e.capped_paths == 1 for e in fold.estimates.values())
        assert fold.hits[0] == 3
        assert sum(fold.diagnostics["attempt_count_hist"].values()) == 3
        assert fold.diagnostics["rise_length_by_index"]["1"] == {"n": 2, "mean": 2.0}

    def test_one_live_path_flagged_single_sample(self):
        fold = fold_records([_columns(self.RECORDS[:2])], 10, [1])
        assert fold.estimates[("tau_m", 1)].flag == "single-sample"
        for i in range(1, 6):
            est = fold.estimates[("attempt_survival", i)]
            assert (est.n_samples, est.flag) == (1, "single-sample")

    def test_long_attempt_run_in_top_bucket_and_every_hit(self):
        fold = fold_records([_columns(self.RECORDS)], 10, [1])
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
        fold = fold_records([_columns(self.RECORDS)], 10, [1, 2, 3])
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
        fold = fold_records([_columns(self.RECORDS)], 10, [1, 2, 3])
        for m in (1, 2, 3):
            assert fold.estimates[("tau_m", m)].mean == sum(r["tau"]**m for r in live) / len(live)
            est = fold.estimates[("overshoot_m", m)]
            assert est.mean == sum(v**m for v in overshoots) / len(overshoots)

    def test_fold_independent_of_record_order(self):
        # nor of how the records are cut into blocks: of 1, of 3 and of all records
        fold = fold_records([_columns(self.RECORDS)], 10, [1, 2, 3])
        for perm in itertools.permutations(self.RECORDS):
            for size in (1, 3, len(perm)):
                parts = [perm[lo:lo + size] for lo in range(0, len(perm), size)]
                assert fold_records([_columns(part) for part in parts], 10, [1, 2, 3]) == fold, size

    def test_moment_beyond_float_range_reads_inf(self):
        records = [
            _record(tau, capped=False, attempts=1, max_state=6, fall_lengths=(0,)) for tau in (0, 2**62)
        ]
        # tau**9 sums exactly to 2**558; tau**18 to 2**1116, past float range
        est = fold_records([_columns(records)], 6, [9]).estimates[("tau_m", 9)]
        assert est.mean == 2.0**557
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
        """Also checks that decompose_attempts splits each live path as its record does."""
        for traj in trajectories:
            (record,) = _per_path(reduce_block(PathBlock.of([traj])))
            oracle = record_oracle(traj.states, traj.floor_n)
            assert record == oracle, traj.states
            if traj.tau is None:
                continue
            d = decompose_attempts(traj)
            rises = [(T, t) for _, T, t in d.rise_segments if t > T]
            assert {
                "attempts": len(d.attempts),
                "fall_lengths": tuple(0 if a.success else a.length for a in d.attempts),
                "rise_lengths": tuple(t - T for T, t in rises),
                "overshoots": tuple(traj.states[t] - traj.states[T] for T, t in rises),
            } == {k: oracle[k] for k in ("attempts", "fall_lengths", "rise_lengths", "overshoots")}, traj.states

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
    def check(trajectories, parts):
        """parts: the records of consecutive blocks, each block's paths numbered from 0."""
        records = [record for part in parts for record in _per_path(part)]
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
        records = reduce_block(block)
        self.check(trajectories, [records])
        assert block_trajectories(block) == trajectories
        # every column but capped is int64, as RecordColumns promises
        assert {name: getattr(records, name).dtype for name in mc_engine._COLUMNS} == {
            name: np.dtype(bool if name == "capped" else np.int64) for name in mc_engine._COLUMNS
        }

    def test_layout_derived_when_made(self):
        # a block made by dataclasses.replace derives starts and ends again, and
        # block_trajectories, which cuts the states there, gives back its paths
        hand_built = TestRecordFromTrajectory.HAND_BUILT
        paths = [hand_built["opens with a rise"], hand_built["capped"]]
        two = PathBlock.of(paths)
        three = PathBlock.of([hand_built["tau = 0"], _hit(6, 5), hand_built["opens with a fall"]])
        assert (three.starts.tolist(), three.ends.tolist()) == ([0, 1, 3], [0, 2, 10])
        moved = replace(three, states=two.states, steps=two.steps, capped=two.capped)
        assert (moved.starts.tolist(), moved.ends.tolist()) == ([0, 7], [6, 12])
        assert moved.starts.dtype == moved.ends.dtype == np.int64
        assert block_trajectories(moved) == paths

    def test_start_in_floor(self, benchmark_kernel):
        self.check([_hit(3)] * 40, simulate_records(benchmark_kernel, 3, 40, seed=1))

    def test_path_ids_offset_across_blocks(self, benchmark_kernel, scalar_benchmark_kernel, tmp_path, monkeypatch):
        # paths.csv numbers each start state's rows 0..n-1 across its blocks, two
        # of 650 under a cap of 1,000 lanes, and each row is the record of the
        # scalar engine's path of that id
        monkeypatch.setattr(mc_engine, "MAX_LANES", 1000)
        n, x_grid = 1300, [7, 20]
        for x0 in x_grid:
            assert [block.steps.size for block in mc_engine.simulate_blocks(benchmark_kernel, x0, n, 8)] == [650, 650]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "x_grid": x_grid, "m_list": [1], "n_traj": n, "seed": 8,
            "output": {
                "report_json": str(tmp_path / "report.json"),
                "paths_csv": str(tmp_path / "paths.csv"),
                "verdicts_csv": str(tmp_path / "verdicts.csv"),
            },
        }))
        assert cli.main(["verify", str(config)]) == cli.EXIT_OK
        lines = (tmp_path / "paths.csv").read_text().splitlines()[1:]
        assert len(lines) == n * len(x_grid)
        for task_index, x0 in enumerate(x_grid):
            trajectories = simulated_trajectories(scalar_benchmark_kernel, x0, n, seed=8, task_index=task_index)
            for pid, (line, traj) in enumerate(zip(lines[task_index * n:], trajectories)):
                path_id, tau, attempts, max_state, capped = line.split(",")
                oracle = record_oracle(traj.states, traj.floor_n)
                assert int(path_id) == pid
                assert (int(tau) if tau else None, int(attempts), int(max_state), capped == "1") == (
                    oracle["tau"], oracle["attempts"], oracle["max_state"], oracle["capped"]
                ), (x0, pid)

    def test_capped_paths_mid_block(self, benchmark_kernel):
        trajectories = simulated_trajectories(benchmark_kernel, 20, 300, seed=13, max_steps=30)
        assert trajectories[0].tau is not None and any(t.tau is None for t in trajectories)
        self.check(trajectories, simulate_records(benchmark_kernel, 20, 300, seed=13, max_steps=30))

    def test_states_beyond_int64_rejected(self):
        # the first path with a state past int64 is named
        big = 2**63
        trajectories = [
            _hit(7, 6, 8, 5),
            Trajectory(big - 1, (big - 1, big - 2, big + 9), 5, StopReason.STEP_CAP, None),
            _hit(big, big - 1, 3),
        ]
        with pytest.raises(ValueError, match=f"^path 1 of the block has a state past int64: {big + 9}$"):
            PathBlock.of(trajectories)

    def test_start_beyond_int64_through_scalar_fallback(self, benchmark_kernel, scalar_benchmark_kernel):
        # a start of 2**63 runs on neither engine: the lockstep engine rejects x0,
        # the scalar engine, path by path, names the block's first path
        with pytest.raises(ValueError, match=r"^x0 must be below 2\*\*63"):
            list(simulate_records(benchmark_kernel, 2**63, 30, seed=2, max_steps=40))
        with pytest.raises(ValueError, match="^path 0 of the block has a state past int64"):
            list(simulate_records(scalar_benchmark_kernel, 2**63, 30, seed=2, max_steps=40))

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
        if fault == "capped path in the floor":
            pid = int(np.flatnonzero(block.capped)[0])
        else:
            pid = int(np.flatnonzero(~block.capped & (block.steps >= 2))[0])
        state = block.ends[pid] - 1  # the state before the path's last
        states = block.states.copy()
        states[state] = -1 if fault == "negative state" else block.floor_n
        reduce_block(block)
        with pytest.raises(ValueError, match=message):
            replace(block, states=states)


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
        blocks = list(mc_engine.simulate_blocks(kernel, 3, mc_engine.MAX_LANES + 3, seed=0))
        assert streams == []
        half = mc_engine.MAX_LANES // 2  # the paths of two blocks, cut near-equal
        assert [block.steps.size for block in blocks] == [half + 1, half + 2]
        for block in blocks:
            assert block.floor_n == 5
            assert block.states.tolist() == [3] * block.steps.size
            assert not block.steps.any() and not block.capped.any()

    @pytest.mark.parametrize("kernel", [
        DeterministicDownKernel(floor_n=2**64),
        BenchmarkKernel(BenchmarkModelSpec(kappa=KappaSpec(a=0.5, r=0.5), up_jump_s=0.5, floor_n=2**64)),
    ], ids=["deterministic", "benchmark"])
    def test_start_in_floor_past_int64_rejected(self, kernel):
        # a start in a floor past int64 takes no step, but its state still does not fit the block
        with pytest.raises(ValueError, match=f"^path 0 of the block has a state past int64: {2**63}$"):
            list(mc_engine.simulate_blocks(kernel, 2**63, 3, seed=0))


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
        a = list(simulate_records(benchmark_kernel, 10, 50, seed=42, task_index=0))
        b = list(simulate_records(benchmark_kernel, 10, 50, seed=42, task_index=1))
        assert a != b
        again = list(simulate_records(benchmark_kernel, 10, 50, seed=42, task_index=0))
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
        (part,) = simulate_records(benchmark_kernel, 10, 2000, seed=3)
        records = _per_path(part)
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


class TestBlockCuts:
    @pytest.mark.parametrize("x0, n_traj, n_blocks", [
        (6, 20_000, 2), (20, 16_385, 2), (517, 100_000, 13), (1000, 120, 1), (1000, 9_000, 3),
        (20_000, 1_024, 5), (10**5, 100, 3), (2**22 + 5, 3, 3),
    ])
    def test_cuts_by_state_budget(self, benchmark_kernel, monkeypatch, x0, n_traj, n_blocks):
        # each block's path ids, as the lockstep engine is handed them
        monkeypatch.setattr(mc_engine, "run_block", lambda kernel, x0, pids, *args: pids)
        cuts = list(mc_engine.simulate_blocks(benchmark_kernel, x0, n_traj, seed=0))
        sizes = [cut.size for cut in cuts]
        fewest = x0 - benchmark_kernel.floor_n + 1  # states of a path from x0, at the fewest
        assert np.array_equal(np.concatenate(cuts), np.arange(n_traj))
        assert len(cuts) == n_blocks and max(sizes) - min(sizes) <= 1
        assert max(sizes) <= mc_engine.MAX_LANES
        if 512 < fewest <= mc_engine.STATE_BUDGET:
            assert max(sizes) * fewest <= mc_engine.STATE_BUDGET


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

    def test_one_live_path_gets_attempt_survival_verdicts(self, benchmark_kernel, benchmark_spec):
        # one uncapped path is enough to test P(attempts >= i) against its bound
        # (verify asks for two paths; verify_records takes any records)
        records = simulate_records(benchmark_kernel, 10, 1, 3)
        report = verify_records(benchmark_spec, [10], [1], [records], eps=1e-10)
        assert report.folds[10].n_live == 1 and not report.folds[10].capped
        survival = [v for v in report.verdicts if v.estimate.quantity == "attempt_survival"]
        assert len(survival) == 5
        assert all(v.method == "binomial-test-99" for v in survival)

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

    def test_record_sources_run_to_their_end(self, benchmark_kernel, benchmark_spec):
        # a writer that owns its files closes them only when its generator ends
        ended = []

        def sources(x_grid):
            for task_index, x0 in enumerate(x_grid):
                yield simulate_records(benchmark_kernel, x0, 50, 3, task_index=task_index)
            ended.append(True)

        report = verify_records(benchmark_spec, [6, 10], [1], sources([6, 10]), 1e-10)
        assert ended and list(report.folds) == [6, 10]
        with pytest.raises(ValueError):  # one source more than x_grid has starts
            verify_records(benchmark_spec, [6], [1], sources([6, 10]), 1e-10)

    def test_repeated_moment_order_rejected(self, benchmark_kernel, benchmark_spec):
        with pytest.raises(ValueError, match="m_list"):
            verify(benchmark_kernel, benchmark_spec, x_grid=[6], m_list=[1, 1], n_traj=10, seed=0)

    def test_same_report_from_both_engines(
        self, benchmark_kernel, scalar_benchmark_kernel, benchmark_spec, monkeypatch
    ):
        # the subclass takes the scalar engine; both engines' paths go through one reducer
        monkeypatch.setattr(mc_engine, "MAX_LANES", 1000)
        reports, records = [], []

        def spy(block):
            records[-1].append(reduce_block(block))
            return records[-1][-1]

        monkeypatch.setattr(mc_engine, "reduce_block", spy)
        for kernel in (benchmark_kernel, scalar_benchmark_kernel):
            records.append([])
            reports.append(verify(
                kernel, benchmark_spec, x_grid=[5, 6, 20], m_list=[1, 2], n_traj=1100, seed=17,
                max_steps=60,
            ))
        lockstep, scalar = reports
        assert lockstep.folds == scalar.folds
        # two blocks of 550 per start state under a cap of 1,000 lanes
        assert [len(block) for block in records[0]] == [550] * 6 and records[0] == records[1]
        assert lockstep.folds[20].capped and lockstep.folds[20].n_live

    def test_capped_paths_block_verdicts(self, benchmark_kernel, benchmark_spec):
        report = verify(
            benchmark_kernel, benchmark_spec,
            x_grid=[30], m_list=[1], n_traj=50, seed=2, max_steps=5,
        )
        assert not report.all_passed
        assert any("capped" in w for w in report.warnings)
        assert all(v.method == "not-issued" for v in report.verdicts)
