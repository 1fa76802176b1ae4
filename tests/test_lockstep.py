import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovup import BenchmarkKernel, BenchmarkModelSpec, KappaSpec, build_benchmark, lockstep, mc_engine
from markovup.lockstep import FallLaws, _jumps, max_jump, run_block, step_lanes
from markovup.process_core import INT64_MAX, PathBlock, StopReason, simulate_path
from markovup.streams import path_stream

from conftest import ScalarBenchmarkKernel
from helpers import block_trajectories, check_state_ranges, simulated_trajectories


def _kernel(a, r, s, floor_n=5):
    return build_benchmark(BenchmarkModelSpec(kappa=KappaSpec(a=a, r=r), up_jump_s=s, floor_n=floor_n))


def _both(kernel, x0, n_traj, seed, max_steps=10**6, task_index=0):
    """(lockstep, scalar) trajectories of the same paths."""
    lockstep = simulated_trajectories(kernel, x0, n_traj, seed, max_steps, task_index)
    scalar = [
        simulate_path(kernel, x0, max_steps, path_stream(seed, pid, task_index))
        for pid in range(n_traj)
    ]
    return lockstep, scalar


@pytest.mark.parametrize("x0, n_traj", [(5, 30), (6, 400), (20, 400), (300, 30)])
@pytest.mark.parametrize("task_index", [0, 3])
def test_matches_scalar_engine(benchmark_kernel, x0, n_traj, task_index):
    lockstep, scalar = _both(benchmark_kernel, x0, n_traj, seed=11, task_index=task_index)
    assert lockstep == scalar


def test_task_index_changes_paths(benchmark_kernel):
    a = simulated_trajectories(benchmark_kernel, 20, 50, 11, 10**6, 0)
    b = simulated_trajectories(benchmark_kernel, 20, 50, 11, 10**6, 3)
    assert a != b


def test_capped_run(benchmark_kernel):
    lockstep, scalar = _both(benchmark_kernel, 8, 300, seed=4, max_steps=3)
    assert lockstep == scalar
    reasons = {t.stop_reason for t in lockstep}
    assert reasons == {StopReason.HIT_FLOOR, StopReason.STEP_CAP}


@pytest.mark.parametrize(
    "a, r, s, max_steps",
    [
        (0.9, 0.95, 0.1, 300),
        # jumps near 1e15, where the jump's logarithm must round as math.log1p does
        (0.999, 0.999, 1e-15, 50),
    ],
)
def test_non_default_model(a, r, s, max_steps):
    kernel = _kernel(a, r, s)
    lockstep, scalar = _both(kernel, 10, 200, seed=5, max_steps=max_steps, task_index=1)
    assert lockstep == scalar


def test_non_default_model_reaches_floor():
    lockstep = simulated_trajectories(_kernel(0.9, 0.95, 0.1), 10, 200, 5, 300, 1)
    assert any(t.stop_reason is StopReason.HIT_FLOOR for t in lockstep)


@pytest.mark.parametrize("a, r, s", [(0.5, 0.5, 0.5), (0.9, 0.95, 0.1), (0.999, 0.999, 1e-15)])
def test_step_rule_is_the_law_quantile(a, r, s):
    # uniforms at and next to each kappa, and 1.0, which Philox never
    # draws but quantile clamps, besides random ones
    kernel = _kernel(a, r, s)
    rng = np.random.default_rng(6)
    lanes = []
    for ell in range(60):
        for x in (6, 1000):
            kappa = kernel.law(ell, x).probs[0]
            crafted = {0.0, math.nextafter(kappa, 0.0), math.nextafter(1.0, 0.0)}
            if kappa < 1.0:  # else every uniform falls, and no up-law exists
                crafted |= {kappa, math.nextafter(kappa, 1.0), 1.0}
            crafted |= set(rng.random(20).tolist())
            lanes += [(x, ell, u) for u in sorted(crafted)]
    x, ell, u = (np.array(col) for col in zip(*lanes))
    x_next, ell_next, up, rises = step_lanes(FallLaws(kernel, max_steps=60), x, ell, u)
    for (x_i, ell_i, u_i), x_n, ell_n in zip(lanes, x_next.tolist(), ell_next.tolist()):
        expected = kernel.law(ell_i, x_i).quantile(u_i)
        assert x_n == expected, (x_i, ell_i, u_i)
        assert ell_n == (ell_i + 1 if expected < x_i else 0)
    # the rises are x_next - x on exactly the lanes whose fall length resets
    assert up.tolist() == np.flatnonzero(ell_next == 0).tolist()
    assert rises.tolist() == (x_next - x)[up].tolist()


def _with_neighbours(values):
    """values and the floats next to them, below 1."""
    out = []
    for v in values:
        out += [v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]
    return [v for v in out if v < 1.0]


@pytest.mark.parametrize("s", [0.5, 0.3, 0.01, 1e-15])
def test_jumps_truncate_as_math_log1p(s, monkeypatch):
    # v whose quotient is an integer k in exact arithmetic, such as
    # v = 1 - 2**-k at s = 1/2, and their neighbours straddle the integer
    log_ratio = math.log(1.0 - s)
    v = [0.0] + _with_neighbours(
        [-math.expm1(k * log_ratio) for k in range(1, 201)] + [1.0 - 2.0**-k for k in range(1, 54)]
    )
    v += np.random.default_rng(3).random(10_000).tolist()
    expected = [int(math.log1p(-vi) / log_ratio) for vi in v]
    calls = []
    log1p = math.log1p
    monkeypatch.setattr(math, "log1p", lambda x: calls.append(x) or log1p(x))
    q = _jumps(np.array(v), log_ratio)
    assert q.astype(np.int64).tolist() == expected
    assert calls  # some quotients were taken again with math.log1p


def test_fall_laws_grow_geometrically_to_the_step_cap():
    kernel = _kernel(0.5, 1 - 1e-9, 0.5)
    laws = FallLaws(kernel, max_steps=100)
    sizes = []
    for ell in range(100):
        laws.cover(ell)
        if laws.kappa.size not in sizes:
            sizes.append(laws.kappa.size)
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 100]
    x = kernel.floor_n + 1
    assert laws.kappa.tolist() == [kernel.law(ell, x).probs[0] for ell in range(100)]
    assert laws.tail_mass.tolist() == [kernel.law(ell, x).tail_mass for ell in range(100)]


def _sure_by_rule(spec):
    """The first fall length with ``a*r**ell <= 2**-56``, found from a logarithm's estimate."""
    ell = max(0, int(math.log(2.0**-56 / spec.a) / math.log(spec.r)) - 2)
    while spec.a * spec.r**ell > 2.0**-56:
        ell += 1
    return ell


@pytest.mark.parametrize("a, r", [(0.5, 0.5), (0.01, 0.01), (0.999, 0.2), (0.9, 0.95), (0.3, 0.999)])
def test_fall_laws_find_sure_where_kappa_turns_one(a, r):
    # the table stops growing once it holds sure: asking for more finds the same one
    kernel = _kernel(a, r, 0.5)
    laws = FallLaws(kernel, max_steps=10**6)
    ell = 0
    while laws.sure == 10**6:
        laws.cover(ell)
        ell = 2 * ell + 1
    sure = laws.sure
    assert sure == _sure_by_rule(kernel.spec.kappa)
    assert laws.kappa[sure] == 1.0 and (laws.kappa[sure:] == 1.0).all()
    laws.cover(laws.kappa.size)
    assert laws.sure == sure


@pytest.mark.parametrize("a", [1e-3, 0.5, 0.999])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.95, 0.999, 1 - 1e-5, 1 - 1e-7])
def test_kappa_stays_one_past_sure(a, r):
    # the arithmetic FallLaws rests on, also at r near 1, where sure lies far
    # past any table: 20,000 fall lengths past sure, from the kernel's own laws
    kernel = _kernel(a, r, 0.5)
    sure = _sure_by_rule(kernel.spec.kappa)
    x = kernel.floor_n + 1
    assert all(kernel.law(ell, x).probs[0] == 1.0 for ell in range(sure, sure + 20_000))


def test_run_block_takes_any_path_ids(benchmark_kernel):
    # ids out of order, apart, and past the first block: paths in the order given
    pids = np.array([9000, 0, 4097, 5])
    block = run_block(benchmark_kernel, 20, pids, seed=11, max_steps=10**6, task_index=2)
    assert block_trajectories(block) == [
        simulate_path(benchmark_kernel, 20, 10**6, path_stream(11, pid, 2)) for pid in pids.tolist()
    ]


def test_more_than_one_block(benchmark_kernel, monkeypatch):
    # under a cap of 1,000 lanes, 2,037 paths are cut into three blocks of 679
    monkeypatch.setattr(mc_engine, "MAX_LANES", 1000)
    blocks = mc_engine.simulate_blocks(benchmark_kernel, 7, 2037, seed=8)
    assert [block.steps.size for block in blocks] == [679, 679, 679]
    lockstep, scalar = _both(benchmark_kernel, 7, 2037, seed=8)
    assert lockstep == scalar


def test_state_budget_cut_changes_no_path(benchmark_kernel, monkeypatch):
    # from x0 = 300 a budget of 3,000 states gives 3000 // 296 = 10 lanes, so
    # 31 paths are cut into four blocks, each path still the scalar engine's
    monkeypatch.setattr(mc_engine, "STATE_BUDGET", 3000)
    blocks = mc_engine.simulate_blocks(benchmark_kernel, 300, 31, seed=11, task_index=1)
    assert [block.steps.size for block in blocks] == [7, 8, 8, 8]
    lockstep, scalar = _both(benchmark_kernel, 300, 31, seed=11, task_index=1)
    assert lockstep == scalar


def test_default_grid_work(monkeypatch):
    # the default grid at seed 11, 10,000 paths per start, runs one block per
    # start; in two blocks of 5,000 per start the same 332,483 steps took 357
    # numpy iterations and 477,952 Philox words, and in blocks of 4,096 paths,
    # with a Philox lookahead of up to 4,096 counter blocks a lane, 9 blocks,
    # 510 iterations and 604,540 words
    counts = {"iterations": 0, "words": 0}
    step, philox = lockstep.step_lanes, lockstep.philox_words

    def counted_step(*args):
        counts["iterations"] += 1
        return step(*args)

    def counted_philox(seed, keys, first, depth):
        counts["words"] += 4 * depth * keys.size
        return philox(seed, keys, first, depth)

    monkeypatch.setattr(lockstep, "step_lanes", counted_step)
    monkeypatch.setattr(lockstep, "philox_words", counted_philox)
    kernel = _kernel(0.5, 0.5, 0.5)
    blocks = [
        block for task_index, x0 in enumerate((6, 10, 20))
        for block in mc_engine.simulate_blocks(kernel, x0, 10_000, seed=11, task_index=task_index)
    ]
    assert [block.steps.size for block in blocks] == [10000] * 3
    assert sum(int(block.steps.sum()) for block in blocks) == 332_483
    assert counts["iterations"] <= 200 and counts["words"] <= 450_000, counts


def test_block_record_peak_memory(benchmark_kernel):
    # 10,000 paths from x0 = 20 run as one block of about 209,000 states
    # (1.7 MB as int64).  The loop records only the steps that rise, 12 bytes
    # each on about a fifth of the steps, and simulating the block peaks near
    # 2.9 MB, in philox_words at the fourth refill, with every lane still
    # live; recording every time step's lanes and states, 12 bytes a state,
    # peaked near 4 MB
    tracemalloc.start()
    try:
        blocks = list(mc_engine.simulate_blocks(benchmark_kernel, 20, 10_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [block.steps.size for block in blocks] == [10_000]
    assert peak <= 3.4e6, peak


def test_block_holds_no_states(benchmark_kernel):
    # 10,000 paths from x0 = 20 as one block: about 199,000 steps, 24,700 of
    # them jumps.  In jump form the block holds 0.92 MB, and reducing it peaks
    # at 2.25 MB, the block included; with its 1.7 MB of int64 states the
    # block held 1.95 MB, and reducing it peaked at 3.20 MB.  Simulating it
    # peaks at 2.91 MB, in philox_words at the block's fourth refill
    tracemalloc.start()
    try:
        (block,) = mc_engine.simulate_blocks(benchmark_kernel, 20, 10_000, seed=1)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mc_engine.reduce_block(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 1.0e6 and peak <= 2.5e6, (held, peak)


_JUMP_COLUMNS = ("first", "last", "jump_counts", "jump_at", "jumps")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(0.01, 0.99), r=st.floats(0.01, 0.95), s=st.floats(0.05, 0.95), floor_n=st.integers(0, 8),
    x0=st.integers(1, 60), max_steps=st.integers(1, 200), n=st.integers(1, 40), seed=st.integers(0, 2**32),
)
# sure is 8 at (a, r) = (0.01, 0.01): every lane from 60 is capped inside its certain fall
@example(a=0.01, r=0.01, s=0.5, floor_n=5, x0=60, max_steps=30, n=20, seed=3)
def test_jump_form_is_the_states_form(a, r, s, floor_n, x0, max_steps, n, seed):
    # the columns the engine makes are those read off its own states, and its
    # paths are the scalar engine's
    x0 = max(x0, floor_n + 1)
    kernel = _kernel(a, r, s, floor_n)
    block = run_block(kernel, x0, np.arange(n), seed, max_steps, task_index=1)
    derived = PathBlock.of_states(block.floor_n, block.states, block.steps, block.capped)
    for name in _JUMP_COLUMNS:
        ours, theirs = getattr(block, name), getattr(derived, name)
        assert ours.dtype == theirs.dtype == np.int64 and np.array_equal(ours, theirs), name
    assert block_trajectories(block) == [
        simulate_path(kernel, x0, max_steps, path_stream(seed, pid, 1)) for pid in range(n)
    ]


_FRACTIONS = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a=st.floats(0.01, 0.99), r=st.floats(0.01, 0.95), s=st.floats(0.05, 0.95), floor_n=st.integers(0, 8),
    x0=st.one_of(st.integers(1, 60), st.integers(900, 1100)), max_steps=st.integers(1, 1200), n=st.integers(1, 6),
    seed=st.integers(0, 2**32), fractions=_FRACTIONS,
)
# every lane from 60 is capped inside its certain fall; from 1000 about a
# third are capped, and every last fall is long past its certain fall
@example(a=0.01, r=0.01, s=0.5, floor_n=5, x0=60, max_steps=30, n=6, seed=3, fractions=[(0.1, 0.9)])
@example(a=0.5, r=0.5, s=0.5, floor_n=5, x0=1000, max_steps=1000, n=6, seed=3, fractions=[(0.3, 0.31)])
def test_state_ranges_of_engine_blocks(a, r, s, floor_n, x0, max_steps, n, seed, fractions):
    # the states of any range of an engine-made block are the scalar engine's
    x0 = max(x0, floor_n + 1)
    kernel = _kernel(a, r, s, floor_n)
    block = run_block(kernel, x0, np.arange(n), seed, max_steps, task_index=2)
    paths = [simulate_path(kernel, x0, max_steps, path_stream(seed, pid, 2)) for pid in range(n)]
    check_state_ranges(block, np.concatenate([t.states for t in paths]), fractions)


def _lowered(block, path, rise, drop):
    """block with the rise ``jumps[rise]`` of ``path`` lowered by drop: every later state of the path too."""
    jumps, last = block.jumps.copy(), block.last.copy()
    jumps[rise] -= drop
    last[path] -= drop
    return PathBlock(
        block.floor_n, block.steps, block.capped, block.first, last, block.jump_counts, block.jump_at, jumps
    )


@pytest.mark.parametrize("fault, message", [
    ("negative state", "non-negative"),
    ("early floor entry", "first enter the floor at its last state"),
    ("capped path in the floor", "capped path"),
])
def test_corrupted_jump_form_raises(benchmark_kernel, fault, message):
    # an engine-made block is checked on its columns, in PathBlock's words: the
    # first rise that can be lowered, still a rise, to take its path below 0,
    # into the floor before its last state, or into the floor while capped
    block = run_block(benchmark_kernel, 20, np.arange(200), seed=13, max_steps=30, task_index=0)
    states, ends, floor_n = block.states, block.ends, block.floor_n
    cut = np.cumsum(block.jump_counts)

    def drop_into_fault(path, rise):
        after = states[block.jump_at[rise]:ends[path] + 1]  # from the state the rise reaches to the path's last
        if fault == "negative state":
            fits, drop = not block.capped[path], after.min() + 1
        elif fault == "early floor entry":
            drop = after[:-1].min(initial=INT64_MAX) - floor_n
            fits = not block.capped[path] and after[-1] >= drop
        else:
            fits, drop = block.capped[path], after.min() - floor_n
        return drop if fits and 0 < drop <= block.jumps[rise] else None

    path, rise, drop = next(
        (path, rise, drop) for path in range(cut.size) for rise in range(cut[path] - block.jump_counts[path], cut[path])
        if (drop := drop_into_fault(path, rise)) is not None
    )
    with pytest.raises(ValueError, match=message):
        _lowered(block, path, rise, drop)


@pytest.mark.parametrize("fault, message", [
    ("last state", "end at"),
    ("jump order", "in order in their paths"),
])
def test_inconsistent_jump_form_raises(benchmark_kernel, fault, message):
    # columns that disagree with each other: a last state the steps do not
    # reach, or two jumps swapped out of place order
    block = run_block(benchmark_kernel, 20, np.arange(50), seed=13, max_steps=200, task_index=0)
    last, jump_at = block.last.copy(), block.jump_at.copy()
    if fault == "last state":
        last[7] += 1
    else:
        jump_at[[3, 4]] = jump_at[[4, 3]]
    with pytest.raises(ValueError, match=message):
        PathBlock(
            block.floor_n, block.steps, block.capped, block.first, last, block.jump_counts, jump_at, block.jumps
        )


def test_replaced_jumps_are_checked(benchmark_kernel):
    # dataclasses.replace makes a block as the engine does, so it is checked
    # again: one increment raised by one ends its path above its last state
    block = run_block(benchmark_kernel, 20, np.arange(50), seed=13, max_steps=200, task_index=0)
    jumps = block.jumps.copy()
    jumps[0] += 1
    path = int(np.flatnonzero(block.jump_counts)[0])
    with pytest.raises(ValueError, match=f"the steps of path {path} end at {block.last[path] + 1}, not at"):
        replace(block, jumps=jumps)


@pytest.mark.parametrize("s", [0.5, 0.01, 1e-15])
def test_max_jump_is_the_largest_step(s):
    # uniforms of 1.0 and just below it, at every fall length and at two states
    kernel = _kernel(0.5, 0.5, s)
    lanes = [(x, ell, u) for x in (6, 1000) for ell in range(20) for u in (1.0, math.nextafter(1.0, 0.0))]
    x, ell, u = (np.array(col) for col in zip(*lanes))
    x_next, *_ = step_lanes(FallLaws(kernel, max_steps=60), x, ell, u)
    assert (x_next - x).max() == max_jump(kernel)


@pytest.mark.parametrize("x0", [2**63 - 1, 2**63])
def test_start_at_int64_edge_matches_scalar_engine(benchmark_kernel, x0):
    # the highest start whose paths cannot leave int64 in 3 steps; one higher is
    # rejected, and so is x0 at the edge or past it, naming max_steps or x0
    edge = INT64_MAX - 3 * max_jump(benchmark_kernel)
    lockstep, scalar = _both(benchmark_kernel, edge, 20, seed=2, max_steps=3)
    assert lockstep == scalar
    assert max(max(t.states) for t in lockstep) > edge
    with pytest.raises(ValueError, match="max_steps must be at most 2 from"):
        run_block(benchmark_kernel, edge + 1, np.arange(20), seed=2, max_steps=3, task_index=0)
    with pytest.raises(ValueError, match="^max_steps " if x0 <= INT64_MAX else "^x0 "):
        run_block(benchmark_kernel, x0, np.arange(20), seed=2, max_steps=3, task_index=0)


@pytest.mark.parametrize("kernel_args, x0, max_steps, name", [
    # huge geometric jumps: these paths pass 2**63 within the step cap
    pytest.param((0.999, 0.999, 1e-15), 6, 20_000, "max_steps", id="jumps_past_int64"),
])
def test_states_beyond_int64_rejected_by_both_engines(kernel_args, x0, max_steps, name):
    # the lockstep engine rejects the arguments, naming them; the scalar engine's
    # block names the first path with a state past int64
    kernel = _kernel(*kernel_args)
    with pytest.raises(ValueError, match=f"^{name} "):
        list(mc_engine.simulate_blocks(kernel, x0, 2, seed=0, max_steps=max_steps))
    scalar = ScalarBenchmarkKernel(kernel.spec)
    with pytest.raises(ValueError, match="^path 0 of the block has a state past int64"):
        list(mc_engine.simulate_blocks(scalar, x0, 2, seed=0, max_steps=max_steps))


def test_kappa_near_one_ratio():
    # r = 1 - 1e-9: kappa approaches 1 only after ~1e10 fall steps, so a
    # table sized from r instead of from the falls reached would not fit
    kernel = _kernel(a=0.5, r=1 - 1e-9, s=0.5)
    lockstep, scalar = _both(kernel, 20, 100, seed=3, max_steps=1_000)
    assert lockstep == scalar


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "kernel_args, x0, max_steps, seed, task_index",
    [
        ((0.5, 0.5, 0.5), -1, 10, 0, 0),
        ((0.5, 0.5, 0.5), 10, 0, 0, 0),
        ((0.5, 0.5, 0.5), -1, 0, 0, 0),
        # the stream's key is checked first, also for a start at the floor
        ((0.5, 0.5, 0.5), 5, 0, -1, 0),
        ((0.5, 0.5, 0.5), 5, 10, 0, 2**24),
    ],
)
def test_invalid_arguments_raise_as_scalar_engine(kernel_args, x0, max_steps, seed, task_index):
    kernel = _kernel(*kernel_args)
    scalar = _error(
        lambda: simulate_path(kernel, x0, max_steps, path_stream(seed, 0, task_index))
    )
    lockstep = _error(lambda: list(mc_engine.simulate_blocks(kernel, x0, 3, seed, max_steps, task_index)))
    assert lockstep == scalar


def test_invalid_step_law_unused_at_floor(benchmark_kernel, monkeypatch):
    # neither engine draws a step from the floor, so neither builds the law
    def no_law(self, ell, x):
        raise ValueError("a step law was built")

    monkeypatch.setattr(BenchmarkKernel, "law", no_law)
    lockstep, scalar = _both(benchmark_kernel, 5, 3, seed=0)
    assert lockstep == scalar


def test_runner_uses_lockstep_for_benchmark_kernel_only(
    benchmark_kernel, scalar_benchmark_kernel, monkeypatch
):
    kernels_seen = []

    def spy(kernel, *args):
        kernels_seen.append(kernel)
        return run_block(kernel, *args)

    monkeypatch.setattr(mc_engine, "run_block", spy)
    for simulate in (mc_engine.simulate_records, simulated_trajectories):
        lockstep = list(simulate(benchmark_kernel, 20, 300, 9, task_index=2))
        # the subclass keeps the scalar engine
        scalar = list(simulate(scalar_benchmark_kernel, 20, 300, 9, task_index=2))
        assert lockstep == scalar
    assert kernels_seen == [benchmark_kernel, benchmark_kernel]


def test_far_start_matches_scalar_engine(benchmark_kernel):
    # every path from 2000 ends in a certain fall, finished in closed form
    lockstep, scalar = _both(benchmark_kernel, 2000, 30, seed=21, task_index=1)
    assert lockstep == scalar
    assert {t.stop_reason for t in lockstep} == {StopReason.HIT_FLOOR}


@pytest.mark.parametrize("max_steps", [56, 60, 500])
def test_cap_inside_a_certain_fall(benchmark_kernel, max_steps):
    # sure is 55 on the default model: lanes reach it and are capped at once
    lockstep, scalar = _both(benchmark_kernel, 1000, 60, seed=4, max_steps=max_steps)
    assert lockstep == scalar
    assert {t.stop_reason for t in lockstep} == {StopReason.STEP_CAP}


def test_floor_entered_at_the_cap(benchmark_kernel):
    # a cap of exactly a path's tau: it hits the floor on its last step, uncapped
    taus = [t.tau for t in simulated_trajectories(benchmark_kernel, 1000, 8, 6)]
    lockstep, scalar = _both(benchmark_kernel, 1000, 8, seed=6, max_steps=taus[3])
    assert lockstep == scalar
    assert lockstep[3].stop_reason is StopReason.HIT_FLOOR and lockstep[3].tau == taus[3]
    assert all(t.stop_reason is StopReason.STEP_CAP for t, tau in zip(lockstep, taus) if tau > taus[3])


def test_certain_fall_to_floor_zero():
    # floor_n = 0: a path's last state is 0, which Trajectory holds as a state
    lockstep, scalar = _both(_kernel(0.5, 0.5, 0.5, floor_n=0), 300, 20, seed=3)
    assert lockstep == scalar
    assert all(t.states[-1] == 0 for t in scalar)


def test_certain_fall_of_a_slow_kappa():
    # (a, r) = (0.9, 0.95): sure is 755; from a start above it, no fall gets
    # there in 2,000 steps, and every path is capped
    kernel = _kernel(0.9, 0.95, 0.5)
    laws = FallLaws(kernel, max_steps=2000)
    laws.cover(1999)
    assert laws.sure == 755
    lockstep, scalar = _both(kernel, 1000, 20, seed=2, max_steps=2000)
    assert lockstep == scalar
    assert {t.stop_reason for t in lockstep} == {StopReason.STEP_CAP}


def test_far_start_builds_few_laws(monkeypatch):
    # from x0 = 10**5 each path falls about 10**5 steps, yet the laws stop at
    # the table that holds sure; a table of one law per fall length would
    # build 131,072
    built = set()
    law = BenchmarkKernel.law

    def spy(self, ell, x):
        built.add((ell, x))
        return law(self, ell, x)

    monkeypatch.setattr(BenchmarkKernel, "law", spy)
    block = run_block(_kernel(0.5, 0.5, 0.5), 10**5, np.arange(4), seed=1, max_steps=10**6, task_index=0)
    assert (block.steps > 10**5 - 10).all() and not block.capped.any()
    assert len(built) <= 64
