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
    """Paths in one flat layout, the form the record reducer reads.

    ``states`` holds every path's states, its start state included, one
    path after another: path i has ``steps[i] + 1`` states, ``starts[i]``
    to ``ends[i]``, which the block derives when it is made (and
    ``dataclasses.replace`` again).  It is capped iff ``capped[i]``;
    otherwise it first enters [0, floor_n] at its last state.  A block
    checks this when it is made, in :class:`Trajectory`'s words.
    """

    floor_n: int
    states: np.ndarray  # int64
    steps: np.ndarray   # int64
    capped: np.ndarray  # bool
    starts: np.ndarray = field(init=False)  # int64: each path's first state
    ends: np.ndarray = field(init=False)    # int64: each path's last state

    def __post_init__(self) -> None:
        ends = np.cumsum(self.steps + 1) - 1
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "starts", ends - self.steps)
        if self.states.size != ends[-1] + 1:
            raise ValueError(f"{self.states.size} states do not lay out paths of {int(self.steps.sum())} steps")
        if (self.states < 0).any():
            raise ValueError("states must be non-negative")
        live = ~self.capped
        # states in the floor, per path, counted from their places: no int64 copy of every state
        entries = np.bincount(np.searchsorted(ends, np.flatnonzero(self.states <= self.floor_n)), minlength=ends.size)
        bad = np.flatnonzero((entries != live) | ((self.states[ends] <= self.floor_n) != live))
        if bad.size:
            p = int(bad[0])
            if self.capped[p]:
                raise ValueError("a capped path must never enter the floor")
            raise ValueError(_EARLY_ENTRY.format(self.steps[p]))

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
        return cls(
            trajectories[0].floor_n,
            flat,
            np.array([len(t.states) - 1 for t in trajectories], dtype=np.int64),
            np.array([t.tau is None for t in trajectories], dtype=bool),
        )


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
