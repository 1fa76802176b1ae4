"""Lockstep simulation of the benchmark kernel: the paths of one start state together.

All paths from one start state take their t-th step at the same time t, so
this engine keeps one array entry ("lane") per live path and advances
every lane at once with numpy.  It reproduces the scalar engine
(:func:`~markovup.process_core.simulate_path` on
:func:`~markovup.streams.path_stream`) bit for bit:

* each lane's t-th uniform is word (t-1) % 4 of Philox counter block
  (t-1) // 4 + 1 under the lane's own key, computed for all lanes by
  :func:`~markovup.streams.philox_block`;
* the step rule is :meth:`StepDistribution.quantile` of the law
  :meth:`BenchmarkKernel.law` returns for the lane's fall length: down by
  one iff ``u < kappa``, otherwise up by
  ``int(log1p(-v) / log(1 - s))`` with ``v = (u - kappa) / (1 - kappa)``
  clamped as ``quantile`` clamps it.  The subtraction, division and clamp
  are exact in numpy; the logarithms are taken with :mod:`math` on Python
  floats, because ``np.log1p`` differs from ``math.log1p`` in the last
  bit on some inputs;
* a lane leaves at the floor or at the step cap, and its states are
  regrouped into the same :class:`Trajectory`.

Paths run in blocks of ``BLOCK`` lanes, which bounds the memory of the
recorded states.  States are held as int64: a block whose start state or
later states would leave that range is simulated again by the scalar
engine, whose Python integers do not wrap.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model_zoo import BenchmarkKernel
from .process_core import StopReason, Trajectory, simulate_path
from .streams import block_uniforms, lane_keys, path_stream, philox_block

__all__ = ["BLOCK", "FallLaws", "simulate_lockstep", "step_lanes"]

BLOCK = 4096
_INT64_MAX = 2**63 - 1
_BELOW_ONE = math.nextafter(1.0, 0.0)


class _LeavesInt64(Exception):
    """A state of the block would not fit in int64."""


class FallLaws:
    """kappa and tail mass by fall length, read from the kernel's own step laws.

    The table grows on demand, up to the longest fall a lane has reached,
    so each law passes StepDistribution's construction checks before use.
    """

    def __init__(self, kernel: BenchmarkKernel) -> None:
        self._kernel = kernel
        self._x = kernel.floor_n + 1  # lowest state a lane steps from
        self.kappa = np.empty(0)
        self.tail_mass = np.empty(0)
        self.log_ratio = math.log(kernel.law(0, self._x).tail_ratio)

    def cover(self, ell_max: int) -> None:
        have = self.kappa.size
        if ell_max < have:
            return
        laws = [self._kernel.law(ell, self._x) for ell in range(have, ell_max + 1)]
        self.kappa = np.concatenate([self.kappa, [law.probs[0] for law in laws]])
        self.tail_mass = np.concatenate([self.tail_mass, [law.tail_mass for law in laws]])


def step_lanes(
    laws: FallLaws, x: np.ndarray, ell: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Next states and fall lengths of lanes at states x > 0 with fall lengths ell, given uniforms u.

    Lane i moves to ``kernel.law(ell[i], x[i]).quantile(u[i])``.
    """
    laws.cover(int(ell.max()))
    kappa = laws.kappa[ell]
    down = u < kappa
    x_next = x - 1
    up = np.flatnonzero(~down)
    if up.size:
        v = (u[up] - kappa[up]) / laws.tail_mass[ell[up]]
        np.clip(v, 0.0, _BELOW_ONE, out=v)
        log_ratio = laws.log_ratio
        jumps = [int(math.log1p(-vi) / log_ratio) for vi in v.tolist()]
        x_up = x[up]
        if max(jumps) > _INT64_MAX - int(x_up.max()):
            raise _LeavesInt64
        x_next[up] = x_up + np.array(jumps, dtype=np.int64)
    # a down-step extends the fall; an up or flat step starts a new window
    return x_next, np.where(down, ell + 1, 0)


def simulate_lockstep(
    kernel: BenchmarkKernel, x0: int, n_traj: int, seed: int, max_steps: int, task_index: int
) -> Iterator[Trajectory]:
    """Yield the trajectories of paths 0..n_traj-1 from x0, in path order.

    Path ``pid`` equals ``simulate_path(kernel, x0, max_steps,
    path_stream(seed, pid, task_index))``, and invalid arguments raise the
    same errors, checked in the same order.
    """
    lane_keys(seed, np.array([0, n_traj - 1]), task_index)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if x0 < 0:
        raise ValueError("x0 must be non-negative")
    floor_n = kernel.floor_n
    if x0 <= floor_n:
        for _ in range(n_traj):
            yield Trajectory(x0, (x0,), floor_n, StopReason.HIT_FLOOR, 0)
        return
    laws = FallLaws(kernel)
    for lo in range(0, n_traj, BLOCK):
        hi = min(lo + BLOCK, n_traj)
        try:
            block = _run_block(laws, x0, floor_n, lo, hi, seed, max_steps, task_index)
        except _LeavesInt64:
            block = [
                simulate_path(kernel, x0, max_steps, path_stream(seed, pid, task_index))
                for pid in range(lo, hi)
            ]
        yield from block


def _run_block(
    laws: FallLaws, x0: int, floor_n: int, lo: int, hi: int,
    seed: int, max_steps: int, task_index: int,
) -> list[Trajectory]:
    """Trajectories of paths lo..hi-1, all lanes stepped together."""
    if x0 > _INT64_MAX:
        raise _LeavesInt64
    n = hi - lo
    keys = lane_keys(seed, np.arange(lo, hi), task_index)
    lane = np.arange(n)  # block-local index of each live lane
    x = np.full(n, x0, dtype=np.int64)
    ell = np.zeros(n, dtype=np.int64)
    steps = np.empty(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    # states after each step, with the lanes they belong to
    seen_lane: list[np.ndarray] = []
    seen_x: list[np.ndarray] = []
    t = 0
    draws = np.empty((0, n))  # row j: each live lane's uniform for step t + 1 + j - row
    row = 0
    while lane.size:
        if row == len(draws):
            # about BLOCK counter blocks per Philox call: the fewer lanes
            # are live, the more steps ahead they are drawn
            depth = max(1, BLOCK // lane.size)
            counters = np.arange(t // 4 + 1, t // 4 + 1 + depth, dtype=np.uint64)
            words = philox_block(seed, np.tile(keys, depth), np.repeat(counters, lane.size))
            draws = block_uniforms(words).reshape(4, depth, lane.size).transpose(1, 0, 2)
            draws = draws.reshape(4 * depth, lane.size)
            row = 0
        u = draws[row]
        row += 1
        t += 1
        x, ell = step_lanes(laws, x, ell, u)
        seen_lane.append(lane)
        seen_x.append(x)
        done = x <= floor_n
        if t == max_steps:
            capped[lane[~done]] = True
            done[:] = True
        if done.any():
            steps[lane[done]] = t
            keep = ~done
            lane, x, ell, keys, draws = lane[keep], x[keep], ell[keep], keys[keep], draws[:, keep]
    # regroup: a stable sort by lane keeps each lane's states in step order
    order = np.argsort(np.concatenate(seen_lane), kind="stable")
    states = np.concatenate(seen_x)[order].tolist()
    out = []
    end = 0
    for n_steps, is_capped in zip(steps.tolist(), capped.tolist()):
        start, end = end, end + n_steps
        path = (x0, *states[start:end])
        if is_capped:
            out.append(Trajectory(x0, path, floor_n, StopReason.STEP_CAP, None))
        else:
            out.append(Trajectory(x0, path, floor_n, StopReason.HIT_FLOOR, n_steps))
    return out
