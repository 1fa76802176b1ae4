"""Lockstep simulation of the benchmark kernel: a block of paths from one start state together.

All paths from one start state take their t-th step at the same time t, so
:func:`run_block` keeps one array entry ("lane") per live path of a block
and advances every lane at once with numpy.  It reproduces the scalar
engine (:func:`~markovup.process_core.simulate_path` on
:func:`~markovup.streams.path_stream`) bit for bit:

* each lane's t-th uniform is word (t-1) % 4 of Philox counter block
  (t-1) // 4 + 1 under the lane's own key, computed for all lanes by
  :func:`~markovup.streams.philox_block`;
* the step rule is :meth:`StepDistribution.quantile` of the law
  :meth:`BenchmarkKernel.law` returns for the lane's fall length: down by
  one iff ``u < kappa``, otherwise up by
  ``int(log1p(-v) / log(1 - s))`` with ``v = (u - kappa) / (1 - kappa)``
  clamped as ``quantile`` clamps it.  The subtraction, division and clamp
  are exact in numpy.  ``np.log1p`` differs from ``math.log1p`` in the
  last bit on some inputs, which moves the truncated quotient only where
  it lies next to an integer: :func:`_jumps` takes every quotient with
  numpy and only those few again with :mod:`math`;
* a lane leaves at the floor or at the step cap, and its states are
  regrouped path by path into a :class:`PathBlock`, whose
  :meth:`~PathBlock.trajectories` are the scalar engine's.

States are held as int64: a block whose start state or later states would
leave that range raises :class:`LeavesInt64`.  The block loop, the
argument checks, the zero-step block of a start in the floor and the
scalar engine's rerun of a block that leaves int64 all live in
:func:`~markovup.mc_engine.simulate_blocks`.
"""

from __future__ import annotations

import math

import numpy as np

from .model_zoo import BenchmarkKernel
from .process_core import PathBlock
from .streams import block_uniforms, lane_keys, philox_block

__all__ = ["BLOCK", "FallLaws", "LeavesInt64", "run_block", "step_lanes"]

BLOCK = 4096  # paths a block holds: bounds the memory of its recorded states
_INT64_MAX = 2**63 - 1
_BELOW_ONE = math.nextafter(1.0, 0.0)
_MARGIN = 2.0**-40  # see _jumps


class LeavesInt64(Exception):
    """A state of the block would not fit in int64."""


class FallLaws:
    """kappa and tail mass by fall length, read from the kernel's own step laws.

    The tables grow on demand, doubling in size up to ``max_steps``
    entries, enough for every fall a path steps from before the cap; each
    law is built by ``kernel.law``, so it passes StepDistribution's
    construction checks before use.
    """

    def __init__(self, kernel: BenchmarkKernel, max_steps: int) -> None:
        self._kernel = kernel
        self._x = kernel.floor_n + 1  # lowest state a lane steps from
        self._cap = max_steps
        self.kappa = np.empty(0)
        self.tail_mass = np.empty(0)
        self.log_ratio = math.log(kernel.law(0, self._x).tail_ratio)

    def cover(self, ell_max: int) -> None:
        have = self.kappa.size
        if ell_max < have:
            return
        size = max(min(2 * have, self._cap), ell_max + 1)
        laws = [self._kernel.law(ell, self._x) for ell in range(have, size)]
        self.kappa = np.concatenate([self.kappa, [law.probs[0] for law in laws]])
        self.tail_mass = np.concatenate([self.tail_mass, [law.tail_mass for law in laws]])


def _jumps(v: np.ndarray, log_ratio: float) -> np.ndarray:
    """Quotients ``log1p(-v) / log_ratio`` that truncate as ``int(math.log1p(-v) / log_ratio)`` does.

    ``np.log1p`` and ``math.log1p`` each lie within a few ulp of the exact
    logarithm (they differ by one ulp on about 7% of uniform draws), and
    the division rounds both alike, so the two quotients are within a
    relative 2**-49 of each other.  Their truncations differ only if an
    integer lies between them, hence only where q lies that close to an
    integer.  Quotients within ``2**-40 * max(q, 1)`` of an integer, a
    margin 500 times wider, are taken again with ``math.log1p``: exact
    integers, such as every ``v = 1 - 2**-k`` at s = 1/2, and every q of
    2**39 or more, where the margin exceeds 1/2.
    """
    q = np.log1p(-v)
    q /= log_ratio
    gap = np.rint(q)
    gap -= q
    near = np.flatnonzero(np.abs(gap, out=gap) <= _MARGIN * np.maximum(q, 1.0))
    if near.size:
        q[near] = [math.log1p(-vi) / log_ratio for vi in v[near].tolist()]
    return q


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
        q = _jumps(v, laws.log_ratio)
        x_up = x[up]
        # int() truncates the largest quotient as astype truncates each one
        if int(q.max()) > _INT64_MAX - int(x_up.max()):
            raise LeavesInt64
        x_next[up] = x_up + q.astype(np.int64)
    # a down-step extends the fall; an up or flat step starts a new window
    return x_next, np.where(down, ell + 1, 0)


def run_block(
    kernel: BenchmarkKernel, x0: int, pids: np.ndarray, seed: int, max_steps: int, task_index: int
) -> PathBlock:
    """The paths ``pids`` from x0 > kernel.floor_n, in that order, all lanes stepped together.

    Path ``pids[i]`` equals ``simulate_path(kernel, x0, max_steps,
    path_stream(seed, pids[i], task_index))``; ``pids`` may be any ids, in
    any order.  Raises :class:`LeavesInt64` if a state would not fit int64.
    """
    if x0 > _INT64_MAX:
        raise LeavesInt64
    floor_n = kernel.floor_n
    laws = FallLaws(kernel, max_steps)
    n = pids.size
    keys = lane_keys(seed, pids, task_index)
    lane = np.arange(n)  # block-local index of each live lane
    x = np.full(n, x0, dtype=np.int64)
    ell = np.zeros(n, dtype=np.int64)
    steps = np.empty(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    # states at each time, with the lanes they belong to
    seen_lane: list[np.ndarray] = [lane]
    seen_x: list[np.ndarray] = [x]
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
    # regroup: a lane's state at time t goes to the lane's first state's place
    # plus t.  Each list is emptied once joined, so that no more than three
    # arrays of every state are alive at once.
    size = steps + 1
    live = [lanes.size for lanes in seen_lane]
    place = (np.cumsum(size) - size)[np.concatenate(seen_lane)]
    seen_lane.clear()
    place += np.repeat(np.arange(len(live)), live)
    values = np.concatenate(seen_x)
    seen_x.clear()
    states = np.empty(place.size, dtype=np.int64)
    states[place] = values
    return PathBlock(floor_n, states, steps, capped)
