"""Lockstep simulation of the benchmark kernel: a block of paths from one start state together.

All paths from one start state take their t-th step at the same time t, so
:func:`run_block` keeps one array entry ("lane") per live path of a block
and advances every lane at once with numpy.  It reproduces the scalar
engine (:func:`~markovup.process_core.simulate_path` on
:func:`~markovup.streams.path_stream`) bit for bit:

* each lane's t-th uniform is word (t-1) % 4 of Philox counter block
  (t-1) // 4 + 1 under the lane's own key.  A refill draws the same
  counter blocks for every live lane, so it is one call of
  :func:`~markovup.streams.philox_words` on the live lanes' keys and the
  first block and depth, its uniforms written into the refill's draws;
* the step rule is :meth:`StepDistribution.quantile` of the law
  :meth:`BenchmarkKernel.law` returns for the lane's fall length: down by
  one iff ``u < kappa``, otherwise up by
  ``int(log1p(-v) / log(1 - s))`` with ``v = (u - kappa) / (1 - kappa)``
  clamped as ``quantile`` clamps it.  The subtraction, division and clamp
  are exact in numpy.  ``np.log1p`` differs from ``math.log1p`` in the
  last bit on some inputs, which moves the truncated quotient only where
  it lies next to an integer: :func:`_jumps` takes every quotient with
  numpy and only those few again with :mod:`math`;
* a lane leaves at the floor or at the step cap.  Every step that does
  not fall by one rises, by zero or more, so the loop records only the
  steps that rise: the time, the block-local int32 lanes and their int64
  rises, 12 bytes a rise (about 2 bytes a state on the default model,
  where 18.5% of steps rise), and each lane's last state.  At the end
  the rises are put in path order by one stable sort of their lanes, each
  at its path's first place plus its time, and the block is handed over
  in jump form, its columns by keyword
  (:class:`~markovup.process_core.PathBlock`): no state is built;
* the live lanes are compacted through one index as lanes leave.  Each
  lane's Philox key stays at its block-local place, and a refill's
  uniforms stay in the column the lane had at the refill, which the lane
  reads: until a lane leaves, the columns are the live lanes, and a step
  reads its row of draws whole;
* a certain fall is finished in closed form: once a lane's fall length
  reaches :attr:`FallLaws.sure`, from where every kappa is exactly 1.0,
  every later uniform falls, so the lane's n more steps down to the floor
  or the cap are known.  It leaves the live set with its steps, last
  state and cap flag set; its states ``x-1 .. x-n`` are -1 steps, which
  the jump form does not list.  It takes no more iterations, uniforms or
  laws, and since each path's stream is its own, the words it skips change
  no other path.

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
from .streams import block_uniforms, lane_keys, philox_words

__all__ = ["FallLaws", "check_int64", "max_jump", "run_block", "step_lanes"]

PHILOX_BATCH = 4096  # a refill draws PHILOX_BATCH // live lanes counter blocks a lane, at least one
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Next states and fall lengths of lanes at states x > 0 with fall lengths ell, given uniforms u.

    Lane i moves to ``kernel.law(ell[i], x[i]).quantile(u[i])``: down by
    one, or, for the lanes ``up`` (indices into x), by ``rises >= 0``.
    Returns ``(x_next, ell_next, up, rises)``.
    """
    laws.cover(int(ell.max()))
    kappa = laws.kappa[ell]
    up = np.flatnonzero(u >= kappa)
    # a down-step extends the fall; an up or flat step starts a new window
    x_next = x - 1
    ell_next = ell + 1
    rises = np.empty(0, dtype=np.int64)
    if up.size:
        v = (u[up] - kappa[up]) / laws.tail_mass[ell[up]]
        np.clip(v, 0.0, _BELOW_ONE, out=v)
        rises = _jumps(v, laws.log_ratio).astype(np.int64)
        x_next[up] += rises + 1
        ell_next[up] = 0
    return x_next, ell_next, up, rises


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
    steps = np.zeros(n, dtype=np.int64)
    last = np.empty(n, dtype=np.int64)  # each path's last state
    capped = np.zeros(n, dtype=bool)
    # (t, lanes, rises) of each time step with a rise, after an empty one at t = 0
    rises: list[tuple[int, np.ndarray, np.ndarray]] = [(0, lane[:0], np.empty(0, dtype=np.int64))]
    t = 0
    draws = np.empty((0, n))  # row j: the uniforms of step t + 1 + j - row, a lane in each column
    row = 0
    while lane.size:
        if row == len(draws):
            # the fewer lanes are live, the more steps ahead they are drawn:
            # PHILOX_BATCH // lane.size counter blocks a lane, 1 to LOOKAHEAD
            depth = max(1, min(PHILOX_BATCH // lane.size, LOOKAHEAD))
            draws = np.empty((depth, 4, lane.size))
            block_uniforms(philox_words(seed, keys[lane], t // 4 + 1, depth).transpose(1, 0, 2), out=draws)
            draws = draws.reshape(4 * depth, lane.size)
            col = None  # each live lane's column of draws, once a lane has left since the refill
            row = 0
        u = draws[row] if col is None else draws[row, col]
        row += 1
        t += 1
        x, ell, up, rise = step_lanes(laws, x, ell, u)
        if up.size:
            rises.append((t, lane[up], rise))
        done = x <= floor_n
        if t == max_steps or laws.asked >= laws.sure - 1:  # tested in Python first: most blocks never get there
            sure = np.flatnonzero(((ell >= laws.sure) | (t == max_steps)) & ~done)
            if sure.size:
                # a certain fall from state x takes the n = min(x - floor_n,
                # max_steps - t) steps left to the floor or the cap, all down;
                # at the cap n is 0, and every live lane is capped
                fall = np.minimum(x[sure] - floor_n, max_steps - t)
                capped[lane[sure]] = fall < x[sure] - floor_n
                steps[lane[sure]] = fall
                x[sure] -= fall
                done[sure] = True
        if done.any():
            steps[lane[done]] += t
            last[lane[done]] = x[done]
            keep = np.flatnonzero(~done)
            lane, x, ell = lane[keep], x[keep], ell[keep]
            col = keep if col is None else col[keep]
    # the rises in path order, by one stable sort of their lanes, which keeps
    # each lane's in time order.  In the smallest unsigned type that holds the
    # lanes, up to 16 bits, numpy's stable sort is a radix sort
    times, lane_runs, rise_runs = zip(*rises)
    lanes = np.concatenate(lane_runs)
    order = np.argsort(lanes.astype(np.min_scalar_type(n - 1)), kind="stable")
    size = steps + 1
    jump_at = (np.cumsum(size) - size)[lanes]  # the first place of each rise's path
    jump_at += np.repeat(times, [run.size for run in lane_runs])
    return PathBlock(
        floor_n=floor_n, steps=steps, capped=capped, first=np.full(n, x0, dtype=np.int64), last=last,
        jump_counts=np.bincount(lanes, minlength=n), jump_at=jump_at[order], jumps=np.concatenate(rise_runs)[order],
    )
