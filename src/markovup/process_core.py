"""Memory-window state, transition-kernel contract, path simulation, and the layout of many paths.

A Markov-up process is Markov while it rises but, while it falls, may
condition on the whole current strictly-decreasing run.  That run (the
"fall window") is therefore the entire state a kernel is allowed to see:
two calls with equal windows must return identical step distributions.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DistributionInvalidError",
    "FallWindow",
    "INT64_MAX",
    "KernelContract",
    "PathBlock",
    "StepDistribution",
    "StopReason",
    "Trajectory",
    "initial_window",
    "sample_step",
    "simulate_path",
    "states_between",
    "window_update",
]

MASS_TOL = 1e-12
INT64_MAX = 2**63 - 1  # every state a PathBlock holds fits int64
_EARLY_ENTRY = "a path that hit the floor at tau={} must first enter the floor at its last state"


class DistributionInvalidError(ValueError):
    """A step distribution with negative or misplaced mass, or total mass not 1 within tolerance."""


class StopReason(Enum):
    HIT_FLOOR = "hit_floor"
    STEP_CAP = "step_cap"


@dataclass(frozen=True, slots=True)
class FallWindow:
    """The strictly decreasing trajectory suffix the process remembers.

    ``start_time`` is the index at which the current down-run began;
    ``values`` holds the states from there to the present.  A window of
    length one means the last step was non-decreasing (or time is 0).
    """

    start_time: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if len(self.values) < 1:
            raise ValueError("window must contain at least one state")
        for a, b in zip(self.values, self.values[1:]):
            if not b < a:
                raise ValueError(f"window values must strictly decrease, got {self.values}")
        if self.values[-1] < 0:
            raise ValueError("states must be non-negative")

    @property
    def current(self) -> int:
        """State at the present time."""
        return self.values[-1]

    @property
    def fall_length(self) -> int:
        """Number of consecutive down-steps leading into the present state."""
        return len(self.values) - 1


def initial_window(x0: int) -> FallWindow:
    """Window of a freshly started path: just the start state at time 0."""
    return FallWindow(0, (x0,))


def _trusted_window(start_time: int, values: tuple[int, ...]) -> FallWindow:
    """A window whose invariants the caller has established, built without re-checking them."""
    window = object.__new__(FallWindow)
    object.__setattr__(window, "start_time", start_time)
    object.__setattr__(window, "values", values)
    return window


def window_update(window: FallWindow, x_next: int, n_next: int) -> FallWindow:
    """Advance the fall window by one observed step.

    A strict decrease extends the run; anything else (including a flat
    step) resets the window to the single new state.  The checks are O(1):
    ``window`` already holds a strictly decreasing run, so only the new
    step needs checking.
    """
    expected = window.start_time + len(window.values)
    if n_next != expected:
        raise ValueError(f"n_next must be {expected}, got {n_next}")
    if x_next < 0:
        raise ValueError("states must be non-negative")
    if x_next < window.values[-1]:
        return _trusted_window(window.start_time, window.values + (x_next,))
    return _trusted_window(n_next, (x_next,))


@dataclass(frozen=True, slots=True)
class StepDistribution:
    """One-step law over non-negative integers, checked once at construction.

    The finite head is given explicitly; an optional geometric tail
    carries the remaining mass exactly, so countable supports need no
    truncation:  P(tail_start + k) = tail_mass * (1 - tail_ratio) * tail_ratio**k.
    """

    states: tuple[int, ...]
    probs: tuple[float, ...]
    tail_start: Optional[int] = None
    tail_mass: float = 0.0
    tail_ratio: float = 0.0

    def __post_init__(self) -> None:
        if len(self.states) != len(self.probs):
            raise ValueError("states and probs must have equal length")
        if any(b <= a for a, b in zip(self.states, self.states[1:])):
            raise ValueError("states must be strictly increasing")
        if self.tail_start is not None:
            if self.states and self.tail_start <= self.states[-1]:
                raise ValueError("tail must start above the finite head")
            if not 0.0 < self.tail_ratio < 1.0:
                raise ValueError("tail_ratio must be in (0, 1)")
        if (self.states and self.states[0] < 0) or (
            self.tail_start is not None and self.tail_start < 0
        ):
            raise DistributionInvalidError("support must be non-negative")
        if any(p < 0.0 for p in self.probs) or self.tail_mass < 0.0:
            raise DistributionInvalidError("probabilities must be non-negative")
        if self.tail_start is None and self.tail_mass > 0.0:
            raise DistributionInvalidError("tail_mass needs a tail_start to carry it")
        mass = self.total_mass()
        if abs(mass - 1.0) > MASS_TOL:
            raise DistributionInvalidError(f"total mass {mass!r} is not 1 within {MASS_TOL}")

    def total_mass(self) -> float:
        return sum(self.probs) + self.tail_mass

    def quantile(self, u: float) -> int:
        """Inverse CDF with states enumerated in increasing order."""
        acc = 0.0
        for state, p in zip(self.states, self.probs):
            acc += p
            if u < acc:
                return state
        if self.tail_start is None:
            # u landed in the rounding sliver above the last cumulative value
            return self.states[-1]
        v = (u - acc) / self.tail_mass
        if v < 0.0:
            v = 0.0
        elif v >= 1.0:
            v = math.nextafter(1.0, 0.0)
        k = int(math.log1p(-v) / math.log(self.tail_ratio))
        return self.tail_start + k

    def prob(self, state: int) -> float:
        """Point mass at ``state``."""
        for s, p in zip(self.states, self.probs):
            if s == state:
                return p
        if self.tail_start is not None and state >= self.tail_start:
            k = state - self.tail_start
            return self.tail_mass * (1.0 - self.tail_ratio) * self.tail_ratio**k
        return 0.0


class KernelContract(ABC):
    """Transition law that sees nothing but the current fall window.

    Implementations must be pure: equal windows yield equal (structurally
    identical) distributions, supports stay in the non-negative integers,
    and no down-move is offered from state 0.
    """

    @property
    @abstractmethod
    def floor_n(self) -> int:
        """Level of the floor set [0, floor_n]."""

    @abstractmethod
    def next(self, window: FallWindow) -> StepDistribution:
        """Distribution of the next state given the fall window."""


def sample_step(kernel: KernelContract, window: FallWindow, rng) -> int:
    """Draw the next state by inverse CDF on the kernel's distribution.

    ``rng`` is any object with a ``random()`` method producing uniforms
    on [0, 1); for a fixed draw the result is deterministic.
    """
    return kernel.next(window).quantile(rng.random())


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A realized path together with its floor level and stopping data."""

    x0: int
    states: tuple[int, ...]
    floor_n: int
    stop_reason: StopReason
    tau: Optional[int]

    def __post_init__(self) -> None:
        if not self.states or self.states[0] != self.x0:
            raise ValueError("states must start at x0")
        if min(self.states) < 0:
            raise ValueError("states must be non-negative")
        if self.stop_reason is StopReason.HIT_FLOOR:
            if self.tau is None:
                raise ValueError("hit_floor trajectories must carry tau")
            if len(self.states) != self.tau + 1:
                raise ValueError(f"a path that hit the floor at tau={self.tau} must end there")
            if self.states[-1] > self.floor_n or (self.tau and min(self.states[:-1]) <= self.floor_n):
                raise ValueError(_EARLY_ENTRY.format(self.tau))
        elif self.tau is not None:
            raise ValueError("capped trajectories have no tau")
        elif min(self.states) <= self.floor_n:
            raise ValueError("a capped path must never enter the floor")


@dataclass(frozen=True, slots=True, eq=False)
class PathBlock:
    """Paths in jump form, the form the record reducer reads.

    Per path i: ``first[i]``, its start state, ``steps[i]``, ``capped[i]``
    and ``last[i]``, its last state.  In path order, every step whose
    increment is not -1 (a rise, a flat step or a fall by more than one):
    ``jump_at``, the place of the state it reaches in the block's flat
    layout, ``jumps``, its increment, and ``reached``, that state, which
    one running sum over the jumps derives when the block is made;
    ``jump_counts[i]`` of them are path i's.  The flat layout holds every
    path's states, its start state included, one path after another: path
    i's ``steps[i] + 1`` states at places ``starts[i]`` to ``ends[i]``, so
    no two paths' steps reach neighbouring places.  Every column is int64
    but ``capped``.

    A block is made from its jump-form columns, every field but
    ``reached``, as the engine hands them over, and so
    ``dataclasses.replace`` makes one too; :meth:`of_states` reads the
    columns off a flat layout of states with one ``np.diff`` pass.
    ``starts``, ``ends`` and ``states`` are built when read;
    :func:`states_between` builds those of any range of places.  A path is
    capped iff ``capped[i]``; otherwise it first enters [0, floor_n] at its
    last state.  A block checks this when it is made, on its columns in
    O(jumps + paths) and in :class:`Trajectory`'s words.
    """

    floor_n: int
    steps: np.ndarray   # int64
    capped: np.ndarray  # bool
    first: np.ndarray
    last: np.ndarray
    jump_counts: np.ndarray
    jump_at: np.ndarray
    jumps: np.ndarray
    reached: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self._check()

    @classmethod
    def of_states(cls, floor_n: int, states: np.ndarray, steps: np.ndarray, capped: np.ndarray) -> PathBlock:
        """The block of a flat layout of states, paths of ``steps`` steps one after another."""
        ends = np.cumsum(steps + 1) - 1
        if states.size != ends[-1] + 1:
            raise ValueError(f"{states.size} states do not lay out paths of {int(steps.sum())} steps")
        step = np.diff(states)  # step i reaches place i + 1
        jump = step != -1
        jump[ends[:-1]] = False  # from a path's last state to the next path's first is no step
        jump_at = np.flatnonzero(jump) + 1
        return cls(floor_n=floor_n, steps=steps, capped=capped, first=states[ends - steps], last=states[ends],
                   jump_counts=np.diff(np.searchsorted(jump_at, ends, "right"), prepend=0), jump_at=jump_at,
                   jumps=step[jump_at - 1])

    @property
    def ends(self) -> np.ndarray:
        """Each path's last place in the flat layout."""
        return np.cumsum(self.steps + 1) - 1

    @property
    def starts(self) -> np.ndarray:
        """Each path's first place in the flat layout."""
        return self.ends - self.steps

    @property
    def states(self) -> np.ndarray:
        """The flat layout of every path's states, int64, built anew from the columns in O(states)."""
        return states_between(self.anchors(), 0, int(self.ends[-1]) + 1)

    def anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(at, top)`` of each path's start and each jump, in place order: its place, and its state plus its place.

        ``at`` ends with the block's size; ``top`` is uint64, which the sum of two numbers below 2**63 fits.
        """
        ends, counts = self.ends, self.jump_counts
        where = np.cumsum(counts) - counts  # each path's first jump, before which its start goes
        at = np.insert(self.jump_at, np.append(where, self.jump_at.size), np.append(ends - self.steps, ends[-1] + 1))
        top = np.insert(self.reached, where, self.first).astype(np.uint64)
        top += at[:-1].astype(np.uint64)
        return at, top

    def _check(self) -> None:
        at, steps, last, floor_n = self.jump_at, self.steps, self.last, self.floor_n
        # jumps[:cut[i]] are those of paths 0..i, and some are the paths that jump
        ends, cut, some = self.ends, np.cumsum(self.jump_counts), np.flatnonzero(self.jump_counts > 0)
        head, tail = cut[some] - self.jump_counts[some], cut[some] - 1  # the first and last jump of each
        if cut[-1] != at.size or (np.diff(at) <= 0).any() or (
            at[head] <= (ends - steps)[some]
        ).any() or (at[tail] > ends[some]).any():
            raise ValueError(f"{at.size} jumps do not lie in order in their paths of {int(steps.sum())} steps")
        # A path's state at place j is its start plus ``increment + 1`` summed
        # over its jumps to there, less ``j - starts[i]``.  The sum runs on
        # through the block: at a path's first jump it takes back the last
        # state plus the last place of the path that jumped before, which is
        # that path's sum once its last state is where its steps end, as the
        # check below confirms path by path.  The sums may wrap in int64, but
        # every state fits it, so each comes out exact.
        lead = self.first[some] + (ends - steps)[some]
        lead[1:] -= (last + ends)[some[:-1]]
        reached = self.jumps + 1
        reached[head] += lead
        np.cumsum(reached, out=reached)
        reached -= at
        object.__setattr__(self, "reached", reached)
        end = self.first - steps
        end[some] = reached[tail] - (ends[some] - at[tail])
        wrong = np.flatnonzero(end != last)
        if wrong.size:
            p = int(wrong[0])
            raise ValueError(f"the steps of path {p} end at {end[p]}, not at its last state {last[p]}")
        # from any state a path falls by one a step to the state a jump leaves
        # or to its last, so these are its lowest; a live path's last is then
        # its only state in the floor iff it is in the floor and the state
        # before it, last + 1 if its last step falls by one, is not
        left = reached - self.jumps  # the state each jump leaves: never a path's last
        low = left.min(initial=INT64_MAX)
        if low < 0 or last.min() < 0:
            raise ValueError("states must be non-negative")
        live = ~self.capped
        bad = (last <= floor_n) != live
        by_one = live & (steps > 0) & (last < floor_n)
        by_one[some] &= at[tail] != ends[some]
        bad |= by_one
        if low <= floor_n:  # the first jump from a state in the floor marks its path
            bad[np.searchsorted(cut, np.argmax(left <= floor_n), "right")] = True
        bad = np.flatnonzero(bad)
        if bad.size:
            p = int(bad[0])
            if self.capped[p]:
                raise ValueError("a capped path must never enter the floor")
            raise ValueError(_EARLY_ENTRY.format(steps[p]))

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> PathBlock:
        """The block of trajectories that share one floor, in their order.

        Raises ValueError, naming the path, if a state does not fit int64.
        """
        try:  # without a list of every state in between
            flat = np.fromiter(itertools.chain.from_iterable(t.states for t in trajectories), dtype=np.int64)
        except OverflowError:
            i = next(i for i, t in enumerate(trajectories) if max(t.states) > INT64_MAX)
            raise ValueError(f"path {i} of the block has a state past int64: {max(trajectories[i].states)}") from None
        steps = np.array([len(t.states) - 1 for t in trajectories], dtype=np.int64)
        return cls.of_states(trajectories[0].floor_n, flat, steps, np.array([t.tau is None for t in trajectories]))


def states_between(anchors: tuple[np.ndarray, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """The states at places lo..hi-1 of a block's flat layout, int64, from its :meth:`PathBlock.anchors`.

    A path falls by one a step from each anchor to the next, so the state at
    place p is ``top - p`` of the last anchor at or before p: one ``np.repeat``.
    """
    at, top = anchors
    k0, k1 = np.searchsorted(at, lo, "right") - 1, np.searchsorted(at, hi)  # anchors k0..k1-1 hold the range
    edges = at[k0:k1 + 1].copy()  # the places where each of them starts, cut to the range
    edges[0], edges[-1] = lo, hi
    lengths = np.diff(edges)
    return (np.repeat(top[k0:k1], lengths) - np.arange(lo, hi, dtype=np.uint64)).view(np.int64)


def simulate_path(
    kernel: KernelContract, x0: int, max_steps: int, rng
) -> Trajectory:
    """Run one path until it enters [0, N] or the step cap is hit.

    The same (kernel, x0, stream) always reproduces the same trajectory.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if x0 < 0:
        raise ValueError("x0 must be non-negative")
    floor_n = kernel.floor_n
    if x0 <= floor_n:
        return Trajectory(x0, (x0,), floor_n, StopReason.HIT_FLOOR, 0)
    states = [x0]
    window = initial_window(x0)
    for t in range(1, max_steps + 1):
        x = sample_step(kernel, window, rng)
        states.append(x)
        if x <= floor_n:
            return Trajectory(x0, tuple(states), floor_n, StopReason.HIT_FLOOR, t)
        window = window_update(window, x, t)
    return Trajectory(x0, tuple(states), floor_n, StopReason.STEP_CAP, None)
