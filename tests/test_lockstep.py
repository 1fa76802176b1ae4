import math

import numpy as np
import pytest

from markovup import BenchmarkModelSpec, KappaSpec, build_benchmark, mc_engine
from markovup.lockstep import BLOCK, FallLaws, _jumps, run_block, step_lanes
from markovup.process_core import StopReason, simulate_path
from markovup.streams import path_stream

from helpers import simulated_trajectories


def _kernel(a, r, s, floor_n=5):
    return build_benchmark(BenchmarkModelSpec(kappa=KappaSpec(a=a, r=r), up_jump_s=s, floor_n=floor_n))


def _lockstep(kernel, x0, n_traj, seed, max_steps, task_index):
    """The lockstep engine's trajectories, block after block, as simulate_blocks runs it."""
    blocks = mc_engine.simulate_blocks(kernel, x0, n_traj, seed, max_steps, task_index)
    return [traj for block in blocks for traj in block.trajectories()]


def _both(kernel, x0, n_traj, seed, max_steps=10**6, task_index=0):
    """(lockstep, scalar) trajectories of the same paths."""
    lockstep = _lockstep(kernel, x0, n_traj, seed, max_steps, task_index)
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
    a = _lockstep(benchmark_kernel, 20, 50, 11, 10**6, 0)
    b = _lockstep(benchmark_kernel, 20, 50, 11, 10**6, 3)
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
    lockstep = _lockstep(_kernel(0.9, 0.95, 0.1), 10, 200, 5, 300, 1)
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
    x_next, ell_next = step_lanes(FallLaws(kernel, max_steps=60), x, ell, u)
    for (x_i, ell_i, u_i), x_n, ell_n in zip(lanes, x_next.tolist(), ell_next.tolist()):
        expected = kernel.law(ell_i, x_i).quantile(u_i)
        assert x_n == expected, (x_i, ell_i, u_i)
        assert ell_n == (ell_i + 1 if expected < x_i else 0)


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


def test_run_block_takes_any_path_ids(benchmark_kernel):
    # ids out of order, apart, and past the first block: paths in the order given
    pids = np.array([9000, 0, 4097, 5])
    block = run_block(benchmark_kernel, 20, pids, seed=11, max_steps=10**6, task_index=2)
    assert block.trajectories() == [
        simulate_path(benchmark_kernel, 20, 10**6, path_stream(11, pid, 2)) for pid in pids.tolist()
    ]


def test_more_than_one_block(benchmark_kernel):
    lockstep, scalar = _both(benchmark_kernel, 7, BLOCK + 37, seed=8)
    assert lockstep == scalar


def test_states_beyond_int64_match_scalar_engine():
    # huge geometric jumps: these paths pass 2**63 within the step cap,
    # where int64 lanes would wrap to negative states
    kernel = _kernel(a=0.999, r=0.999, s=1e-15)
    lockstep, scalar = _both(kernel, 6, 2, seed=0, max_steps=20_000)
    assert lockstep == scalar
    assert all(max(t.states) > 2**63 for t in lockstep)


@pytest.mark.parametrize("x0", [2**63 - 1, 2**63])
def test_start_at_int64_edge_matches_scalar_engine(benchmark_kernel, x0):
    # 2**63 does not fit an int64 lane, so its block runs on the scalar engine
    lockstep, scalar = _both(benchmark_kernel, x0, 5, seed=2, max_steps=3)
    assert lockstep == scalar


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
        # 1 - s rounds to 1.0: the spec accepts s, the step law does not
        ((0.5, 0.5, 1e-17), 10, 10, 0, 0),
    ],
)
def test_invalid_arguments_raise_as_scalar_engine(kernel_args, x0, max_steps, seed, task_index):
    kernel = _kernel(*kernel_args)
    scalar = _error(
        lambda: simulate_path(kernel, x0, max_steps, path_stream(seed, 0, task_index))
    )
    lockstep = _error(lambda: list(mc_engine.simulate_blocks(kernel, x0, 3, seed, max_steps, task_index)))
    assert lockstep == scalar


def test_invalid_step_law_unused_at_floor():
    # neither engine draws a step from the floor, so neither builds the law
    kernel = _kernel(0.5, 0.5, 1e-17)
    lockstep, scalar = _both(kernel, 5, 3, seed=0)
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
        lockstep = simulate(benchmark_kernel, 20, 300, 9, task_index=2)
        # the subclass keeps the scalar engine
        scalar = simulate(scalar_benchmark_kernel, 20, 300, 9, task_index=2)
        assert lockstep == scalar
    assert kernels_seen == [benchmark_kernel, benchmark_kernel]
