"""Offline stopping times and the fall/rise split of paths.

Works on realized (finite) state sequences.  The forward-looking run ends
are only defined once the run is observed to break; asking for one on a
path that ends mid-run raises instead of silently clamping, so downstream
statistics are never biased by truncation.  :func:`segments` is the one
rule for where the rises and falls of a block's paths lie, each path cut at
the bounds the block holds: the record reducer
(:func:`markovup.mc_engine.reduce_block`) and ``decompose_attempts`` both
read it.  A fall that reaches the floor set is complete by definition, even
though the path stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .process_core import PathBlock, StopReason, Trajectory

__all__ = [
    "Attempt",
    "AttemptDecomposition",
    "NotHitError",
    "UnterminatedRunError",
    "chi_at",
    "decompose_attempts",
    "segments",
    "tau_of",
    "xi_at",
    "zeta_at",
]


class UnterminatedRunError(ValueError):
    """The sequence ended while the queried run was still in progress."""


class NotHitError(ValueError):
    """Decomposition requested for a path that never reached the floor."""


def _check_index(states: Sequence[int], n: int) -> None:
    if not 0 <= n < len(states):
        raise IndexError(f"index {n} out of range for sequence of length {len(states)}")


def zeta_at(states: Sequence[int], n: int) -> int:
    """Start index of the strict down-run ending at n.

    Smallest k <= n with every step on [k, n-1] strictly down; equals n
    itself when the step into n was non-decreasing or n is 0.
    """
    _check_index(states, n)
    k = n
    while k > 0 and states[k] < states[k - 1]:
        k -= 1
    return k


def _run_end(states: Sequence[int], n: int, down: bool, run: str) -> int:
    """Last index k >= n such that every step on [n, k-1] is strictly down if ``down``, else not."""
    _check_index(states, n)
    k = n
    last = len(states) - 1
    while True:
        if k == last:
            raise UnterminatedRunError(f"{run} starting at {n} is still open at the end of the sequence")
        if (states[k + 1] < states[k]) != down:
            return k
        k += 1


def xi_at(states: Sequence[int], n: int) -> int:
    """End index of the non-decreasing run starting at n.

    Largest k >= n with every step on [n, k-1] non-decreasing; equals n
    when the first step is strictly down.  Raises if the sequence ends
    before a strict down-step is seen, because the true run end is then
    unknowable.
    """
    return _run_end(states, n, down=False, run="rise")


def chi_at(states: Sequence[int], n: int) -> int:
    """End index of the strict down-run starting at n (mirror of xi_at)."""
    return _run_end(states, n, down=True, run="fall")


def tau_of(states: Sequence[int], floor_n: int) -> Optional[int]:
    """First index at or below the floor level, or None if never."""
    for t, x in enumerate(states):
        if x <= floor_n:
            return t
    return None


@dataclass(frozen=True, slots=True)
class Attempt:
    """One maximal fall [start, end]; successful iff it reached the floor."""

    index: int
    start: int
    end: int
    success: bool

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class AttemptDecomposition:
    """Alternating fall/rise tiling of [0, tau].

    ``times`` is the flat sequence (T_0, t_0, T_1, t_1, ..., T_i): falls
    run over [t_{j-1}, T_j], rises over [T_j, t_j].  In case "I" the path
    starts falling and the initial rise [T_0, t_0] is empty; in case "II"
    it starts rising.  The final fall is the single successful attempt.
    A path with tau = 0 decomposes trivially (no attempts).
    """

    case: str
    times: tuple[int, ...]
    attempts: tuple[Attempt, ...]
    successful_attempt: Optional[int]

    @property
    def rise_segments(self) -> tuple[tuple[int, int, int], ...]:
        """(j, T_j, t_j) for every rise in the decomposition, j from 0."""
        return tuple((j, T, t) for j, (T, t) in enumerate(zip(self.times[:-1:2], self.times[1::2])))

    @property
    def fall_segments(self) -> tuple[tuple[int, int, int], ...]:
        """(j, t_{j-1}, T_j) for every attempt, j from 1."""
        return tuple((j, t, T) for j, (t, T) in enumerate(zip(self.times[1::2], self.times[2::2]), 1))


def segments(block: PathBlock) -> tuple[np.ndarray, np.ndarray]:
    """Where each rise and each fall of the paths of a block starts, with array operations over all their states at once.

    Returns ``(first, falls)``: the positions in ``block.states`` at which
    every segment of every live path starts, path by path, and whether the
    segment falls.  A fall is a maximal run of strictly down steps; any other
    step, a flat one included, continues a rise.  A path's first step starts
    a segment, each path is cut at the block's ``starts`` and ``ends``, and a
    capped path has none.  So a path's rises and falls alternate, and a live
    path's last segment is the fall that reaches the floor.
    """
    starts = block.starts
    # step i goes from state i to state i + 1; only the steps inside live paths start a segment
    down = block.states[1:] < block.states[:-1]
    new = np.ones_like(down)
    np.not_equal(down[1:], down[:-1], out=new[1:])
    new[starts[starts < down.size]] = True
    new &= np.repeat(~block.capped, block.steps + 1)[:-1]
    new[block.ends[:-1]] = False
    first = np.flatnonzero(new)
    return first, down[first]


def decompose_attempts(traj: Trajectory) -> AttemptDecomposition:
    """Split a floor-hitting path into descent attempts and rises.

    Each attempt is a maximal strict fall; exactly the last one reaches
    [0, N].  The intervals tile [0, tau] and each fall is no longer than
    its start height (down-steps have size at least one).  The segments are
    :func:`segments` of the path alone; a state past int64 raises ValueError.
    """
    if traj.stop_reason is not StopReason.HIT_FLOOR or traj.tau is None:
        raise NotHitError("decomposition requires a trajectory that hit the floor")
    first, falls = segments(PathBlock.of([traj]))
    # a path that opens with a fall has the empty rise [0, 0] before it
    times = (0,) * bool(falls[:1].any()) + (*first.tolist(), traj.tau)
    n = len(times) // 2
    attempts = tuple(Attempt(j, t, T, success=j == n) for j, (t, T) in enumerate(zip(times[1::2], times[2::2]), 1))
    case = "II" if n and times[1] > 0 else "I"  # II: the path opens with a rise
    return AttemptDecomposition(case=case, times=times, attempts=attempts, successful_attempt=n or None)
