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
* a lane leaves at the floor or at the step cap.  Each time step keeps
  its live lanes' block-local int32 indices and int64 states; at the end
  they are regrouped path by path into a :class:`PathBlock`, one time
  step at a time, each step's pair dropped once written, so about 20
  bytes per recorded state are held at the peak;
* a certain fall is finished in closed form: once a lane's fall length
  reaches :attr:`FallLaws.sure`, from where every kappa is exactly 1.0,
  every later uniform falls, so the lane's n more steps down to the floor
  or the cap are known.  It leaves the live set with its cap flag set; at
  the regroup its steps grow by n and its states ``x-1 .. x-n`` are
  written into the block, one slice per lane.  It takes no more
  iterations, uniforms or laws, and since each path's stream is its own,
  the words it skips change no other path.

States are int64, and :func:`check_int64` keeps them so: a step falls by
one or rises by at most :func:`max_jump`, so a start x0 whose
``x0 + max_steps * max_jump`` fits int64 reaches no state past it, and
:func:`run_block` rejects any other start.  The block loop, the argument
checks and the zero-step block of a start in the floor live in
:func:`~markovup.mc_engine.simulate_blocks`.
"""

from __future__ import annotations

import math

import numpy as np

from .model_zoo import BenchmarkKernel, InvalidParameterError
from .process_core import INT64_MAX, PathBlock
from .streams import block_uniforms, lane_keys, philox_block

__all__ = ["FallLaws", "check_int64", "max_jump", "run_block", "step_lanes"]

PHILOX_BATCH = 4096  # counter blocks one Philox call draws for all live lanes, at most
LOOKAHEAD = 16  # counter blocks (4 steps each) one refill draws per lane, at most
_BELOW_ONE = math.nextafter(1.0, 0.0)
_MARGIN = 2.0**-40  # see _jumps
_SURE_GAP = 2.0**-56  # see FallLaws


def max_jump(kernel: BenchmarkKernel) -> int:
    """J, the largest rise of one step: ``law.quantile(1.0) - x``, the same from every state and fall length.

    ``quantile`` clamps the tail's uniform below 1, so no draw rises further.
    """
    x = kernel.floor_n + 1
    return kernel.law(0, x).quantile(1.0) - x


def check_int64(kernel: BenchmarkKernel, x0: int, max_steps: int) -> None:
    """Raise InvalidParameterError, naming floor_n, x0 or max_steps, unless every state a path can reach fits int64.

    A step falls by one or rises by at most J = :func:`max_jump`, so the
    states of a path from x0 within max_steps steps fit iff
    ``x0 + max_steps * J <= 2**63 - 1``; the floor must fit too.
    """
    if kernel.floor_n > INT64_MAX:
        raise InvalidParameterError("floor_n", f"must be below 2**63, got {kernel.floor_n}")
    if x0 > INT64_MAX:
        raise InvalidParameterError("x0", f"must be below 2**63, got {x0}")
    jump = max_jump(kernel)
    if x0 + max_steps * jump > INT64_MAX:
        raise InvalidParameterError(
            "max_steps", f"must be at most {(INT64_MAX - x0) // jump} from x0={x0}, where one step rises "
            f"by up to {jump}: a longer path could leave int64, got {max_steps}",
        )


class FallLaws:
    """kappa and tail mass by fall length, read from the kernel's own step laws.

    The tables grow on demand, doubling in size up to ``max_steps``
    entries, enough for every fall a path steps from before the cap; each
    law is built by ``kernel.law``, so it passes StepDistribution's
    construction checks before use.  ``asked`` is the fall length the last
    :meth:`cover` was asked for.

    ``sure`` is the first fall length in the table with ``a*r**ell <=
    2**-56``; until the table holds one it is ``max_steps``, a fall length
    no lane reaches while it steps.  From ``sure`` on every kappa
    ``1 - a*r**ell`` is exactly 1.0 and every uniform lies below 1.0, so a
    lane there falls on every later step.  No lane steps from there
    (:func:`run_block` finishes its fall), so the table stops growing at
    ``sure``.  Why every later kappa is 1.0: KappaSpec's kappa is
    non-decreasing, as ``a*r**ell`` decreases in exact arithmetic.  As
    computed, ``a*r**ell`` lies within a relative 2**-51 of its exact value
    (C's pow to within one ulp, then one rounded product), or is tinier
    still below float's normal range.  So every later one is at most
    ``2**-56 * (1 + 2**-49) < 2**-54``, and ``1 - y`` rounds to 1.0 for
    every ``y <= 2**-54``.
    """

    def __init__(self, kernel: BenchmarkKernel, max_steps: int) -> None:
        self._kernel = kernel
        self._x = kernel.floor_n + 1  # lowest state a lane steps from
        self._cap = max_steps
        self.kappa = np.empty(0)
        self.tail_mass = np.empty(0)
        self.log_ratio = math.log(kernel.law(0, self._x).tail_ratio)
        self.asked = -1
        self.sure = max_steps

    def cover(self, ell_max: int) -> None:
        self.asked = ell_max
        have = self.kappa.size
        if ell_max < have:
            return
        size = max(min(2 * have, self._cap), ell_max + 1)
        laws = [self._kernel.law(ell, self._x) for ell in range(have, size)]
        self.kappa = np.concatenate([self.kappa, [law.probs[0] for law in laws]])
        self.tail_mass = np.concatenate([self.tail_mass, [law.tail_mass for law in laws]])
        if self.sure == self._cap:
            spec = self._kernel.spec.kappa
            self.sure = next((ell for ell in range(have, size) if spec.a * spec.r**ell <= _SURE_GAP), self._cap)


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
        x_next[up] = x[up] + q.astype(np.int64)
    # a down-step extends the fall; an up or flat step starts a new window
    return x_next, np.where(down, ell + 1, 0)


def run_block(
    kernel: BenchmarkKernel, x0: int, pids: np.ndarray, seed: int, max_steps: int, task_index: int
) -> PathBlock:
    """The paths ``pids`` from x0 > kernel.floor_n, in that order, all lanes stepped together.

    Path ``pids[i]`` equals ``simulate_path(kernel, x0, max_steps,
    path_stream(seed, pids[i], task_index))``; ``pids`` may be any ids, in
    any order.  Raises InvalidParameterError, a ValueError, unless
    :func:`check_int64` passes.
    """
    check_int64(kernel, x0, max_steps)
    floor_n = kernel.floor_n
    laws = FallLaws(kernel, max_steps)
    n = pids.size
    keys = lane_keys(seed, pids, task_index)
    lane = np.arange(n, dtype=np.int32)  # block-local index of each live lane
    x = np.full(n, x0, dtype=np.int64)
    ell = np.zeros(n, dtype=np.int64)
    steps = np.empty(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    # states at each time, with the lanes they belong to
    seen_lane: list[np.ndarray] = [lane]
    seen_x: list[np.ndarray] = [x]
    # lanes that left at fall length laws.sure: (lanes, their states, time)
    falls: list[tuple[np.ndarray, np.ndarray, int]] = []
    t = 0
    draws = np.empty((0, n))  # row j: each live lane's uniform for step t + 1 + j - row
    row = 0
    while lane.size:
        if row == len(draws):
            # up to PHILOX_BATCH counter blocks per call: the fewer lanes are
            # live, the more steps ahead they are drawn, up to LOOKAHEAD blocks
            depth = max(1, min(PHILOX_BATCH // lane.size, LOOKAHEAD))
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
        elif laws.asked >= laws.sure - 1:  # tested in Python first: most blocks never get there
            sure = np.flatnonzero((ell >= laws.sure) & ~done)
            if sure.size:
                falls.append((lane[sure], x[sure], t))
                capped[lane[sure]] = x[sure] - floor_n > max_steps - t
                done[sure] = True
        if done.any():
            steps[lane[done]] = t
            keep = ~done
            lane, x, ell, keys, draws = lane[keep], x[keep], ell[keep], keys[keep], draws[:, keep]
    # a certain fall from state x at time t takes the n = min(x - floor_n,
    # max_steps - t) steps left to the floor or the cap, all down
    for lanes, x_at, t_at in falls:
        steps[lanes] += np.minimum(x_at - floor_n, max_steps - t_at)
    # regroup: a lane's state at time t goes to the lane's first state's place
    # plus t, one time step at a time, each step's arrays dropped once written
    size = steps + 1
    start = np.cumsum(size) - size
    states = np.empty(int(size.sum()), dtype=np.int64)
    seen_lane.reverse()
    seen_x.reverse()
    for t in range(len(seen_x)):
        states[start[seen_lane.pop()] + t] = seen_x.pop()
    for lanes, x_at, t_at in falls:
        first, end = start[lanes] + t_at + 1, start[lanes] + size[lanes]
        for lo, hi, x_t in zip(first.tolist(), end.tolist(), x_at.tolist()):
            states[lo:hi] = np.arange(x_t - 1, x_t - 1 - (hi - lo), -1)
    return PathBlock(floor_n, states, steps, capped)
