"""Offline stopping times and the fall/rise split of paths.

Works on realized (finite) state sequences.  The forward-looking run ends
are only defined once the run is observed to break; asking for one on a
path that ends mid-run raises instead of silently clamping, so downstream
statistics are never biased by truncation.  :func:`decompose_attempts`
reads a path's rises and falls off its record, made by the one record
reducer (:func:`markovup.mc_engine.reduce_block`).  A fall that reaches the
floor set is complete by definition, even though the path stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mc_engine import reduce_block
from .process_core import PathBlock, StopReason, Trajectory

__all__ = [
    "Attempt",
    "AttemptDecomposition",
    "NotHitError",
    "UnterminatedRunError",
    "chi_at",
    "decompose_attempts",
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


def decompose_attempts(traj: Trajectory) -> AttemptDecomposition:
    """Split a floor-hitting path into descent attempts and rises.

    Each attempt is a maximal strict fall; exactly the last one reaches
    [0, N].  The intervals tile [0, tau] and each fall is no longer than
    its start height (down-steps have size at least one).  The lengths are
    those of the path's record, from :func:`~markovup.mc_engine.reduce_block`
    of the path alone; a state past int64 raises ValueError.
    """
    if traj.stop_reason is not StopReason.HIT_FLOOR or traj.tau is None:
        raise NotHitError("decomposition requires a trajectory that hit the floor")
    records = reduce_block(PathBlock.of([traj]))
    falls = records.fall_lengths
    # attempt j follows rise j - 1: a path that opens with a fall has the empty rise [0, 0] before it
    rises = np.concatenate((np.zeros(falls.size - records.rise_lengths.size, dtype=np.int64), records.rise_lengths))
    lengths = np.stack([rises, falls], axis=1).ravel()
    if lengths.size:
        lengths[-1] = traj.tau - lengths[:-1].sum()  # the successful attempt, which its record counts 0, runs to tau
    times = (0, *np.cumsum(lengths).tolist())
    n = falls.size
    attempts = tuple(Attempt(j, t, T, success=j == n) for j, (t, T) in enumerate(zip(times[1::2], times[2::2]), 1))
    case = "II" if n and times[1] > 0 else "I"  # II: the path opens with a rise
    return AttemptDecomposition(case=case, times=times, attempts=attempts, successful_attempt=n or None)
