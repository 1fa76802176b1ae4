"""Deterministic Monte Carlo estimation and one-sided bound verification.

Each path owns a counter-based substream keyed by (seed, path index), and
every engine runs on one thread.  :func:`simulate_blocks` is the one loop
that simulates paths, a block at a time.  The benchmark kernel's paths
are stepped together by the lockstep engine (:mod:`markovup.lockstep`),
which reproduces the scalar engine bit for bit; any other kernel runs on
the scalar engine, path by path.  Both hand over blocks of paths in one flat
layout (:class:`~markovup.process_core.PathBlock`), and one reducer,
:func:`reduce_block`, turns each block into record columns
(:class:`RecordColumns`, the only form a record takes) with array
operations.  Every folded sample is an integer, so the fold keeps exact
integer power sums over a histogram of values and rounds each reported
number once: it does not depend on the order of the records.  Results
are therefore bit-identical for a fixed seed.

Two comparison rules are used, matching how sharp each inequality is:

* hitting-time moments sit far below the theorem bound, so their verdict
  demands the 99% upper confidence limit of the sample mean stay at or
  below it;
* the per-segment ceilings (rise/fall lengths, overshoots, attempt
  survival) can be attained exactly: a rise, conditioned on having
  started, has m-th length moment equal to sum(k**m q**k) when q = 1/2.
  An estimate hovering at a true bound is not a defect, so these
  verdicts are one-sided tests: they fail only when the data contradicts
  the ceiling (pooled moments: mean more than three standard errors
  above it; attempt frequencies: an exact binomial test at 99%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import betaincinv

from . import bound_calc
from .bound_calc import BoundSet
from .lockstep import BLOCK, LeavesInt64, run_block
from .model_zoo import AssumptionCertificate, BenchmarkKernel, BenchmarkModelSpec, certify
from .process_core import KernelContract, PathBlock, simulate_path, state_array
from .streams import lane_keys, path_stream

__all__ = [
    "AllCappedError",
    "AssumptionsFailError",
    "MomentEstimate",
    "RecordColumns",
    "RecordFold",
    "VerificationVerdict",
    "certify_bounds",
    "estimate_tau_moments",
    "fold_records",
    "records_of",
    "reduce_block",
    "report_from_records",
    "simulate_blocks",
    "simulate_records",
    "verify",
]

Z99_CI = 2.576     # half-width multiplier of the reported 99% band
Z_SEGMENT = 3.0    # one-sided slack, in standard errors, for segment ceilings
ATTEMPT_TAIL_MAX = 5
DEFAULT_MAX_STEPS = 10**6


class AllCappedError(RuntimeError):
    """Every simulated path hit the step cap; no hitting times observed."""


class AssumptionsFailError(RuntimeError):
    """The model certificate does not support the bound being verified."""


@dataclass(frozen=True, slots=True)
class MomentEstimate:
    """Sample moment with its 99% upper confidence limit."""

    quantity: str
    m: int
    x0: int
    n_samples: int
    mean: float
    std_error: float
    capped_paths: int
    flag: Optional[str] = None

    @property
    def ci99_upper(self) -> float:
        return self.mean + Z99_CI * self.std_error

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "m": self.m,
            "x0": self.x0,
            "n_samples": self.n_samples,
            "mean": self.mean,
            "std_error": self.std_error,
            "ci99_upper": self.ci99_upper,
            "capped_paths": self.capped_paths,
            "flag": self.flag,
        }


@dataclass(frozen=True, slots=True)
class VerificationVerdict:
    """One bound comparison: pass iff the test value is at or below it."""

    estimate: MomentEstimate
    bound: float
    test_value: float
    method: str

    @property
    def passed(self) -> bool:
        return self.slack >= 0.0

    @property
    def slack(self) -> float:
        return self.bound - self.test_value

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate.to_dict(),
            "bound": self.bound,
            "test_value": self.test_value,
            "method": self.method,
            "passed": self.passed,
            "slack": self.slack,
        }


_COLUMNS = (
    "steps", "capped", "attempts", "max_state",
    "rise_path", "rise_lengths", "overshoots", "fall_path", "fall_lengths",
)


@dataclass(frozen=True, slots=True, eq=False)
class RecordColumns:
    """The records of one start state's paths 0..n-1, as columns: the only form a record takes.

    Per path: ``steps``, ``capped``, ``attempts`` and ``max_state``; a live
    path's tau is its step count.  Per segment, grouped by path in path
    order: ``rise_lengths`` and ``overshoots`` with each rise's path in
    ``rise_path``, and ``fall_lengths`` with ``fall_path``.  Rise lengths
    and overshoots sample the segments where the process actually rose.
    Fall lengths have one entry per attempt: the fall length for an
    unsuccessful attempt and 0 for the successful one, mirroring the
    indicator in the fall-length moment bound.  ``max_state`` and
    ``overshoots`` are object arrays of Python ints when a state does not
    fit int64.
    """

    steps: np.ndarray
    capped: np.ndarray
    attempts: np.ndarray
    max_state: np.ndarray
    rise_path: np.ndarray
    rise_lengths: np.ndarray
    overshoots: np.ndarray
    fall_path: np.ndarray
    fall_lengths: np.ndarray

    def __len__(self) -> int:
        return self.steps.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _COLUMNS)

    @classmethod
    def concat(cls, parts: Sequence[RecordColumns]) -> RecordColumns:
        """The columns of consecutive runs of paths, path ids shifted to follow on."""
        if len(parts) == 1:
            return parts[0]
        firsts = np.cumsum([0] + [len(p) for p in parts[:-1]])

        def joined(name: str) -> np.ndarray:
            columns = [getattr(p, name) for p in parts]
            if name in ("rise_path", "fall_path"):
                columns = [c + first for c, first in zip(columns, firsts)]
            return np.concatenate(columns)

        return cls(**{name: joined(name) for name in _COLUMNS})


def reduce_block(block: PathBlock) -> RecordColumns:
    """Every path's record of a block, with array operations over all its states at once.

    This is the one record reducer.  A live path's turning times
    (T_0, t_0, T_1, ..., T_i) are those of
    :func:`~markovup.path_analysis.turning_times`: T_0 = 0, then every state
    after which the path turns from non-decreasing to strictly down or
    back, then tau.  A path that opens with a fall has T_0 = t_0 = 0, so
    the times are gathered as positions, not marked in a mask that would
    merge the two.  Rises run over [T_j, t_j] and falls over [t_{j-1}, T_j].

    Raises ValueError, as :class:`Trajectory` does for one path, when a
    state is negative, a live path does not first enter the floor at its
    last state, or a capped path enters the floor.
    """
    states, steps, capped = block.states, block.steps, block.capped
    n = steps.size
    live = ~capped
    ends = np.cumsum(steps + 1) - 1  # each path's last state
    starts = ends - steps
    if states.size != ends[-1] + 1:
        raise ValueError(f"{states.size} states do not lay out paths of {int(steps.sum())} steps")
    if (states < 0).any():
        raise ValueError("states must be non-negative")
    in_floor = states <= block.floor_n
    entries = np.add.reduceat(in_floor, starts, dtype=np.int64)  # states in the floor, per path
    bad = np.flatnonzero((entries != live) | (in_floor[ends] != live))
    if bad.size:
        p = int(bad[0])
        if capped[p]:
            raise ValueError(f"capped path {p} of the block enters the floor")
        raise ValueError(f"path {p} of the block does not first enter the floor at its last state")

    # step i goes from state i to state i + 1; only the steps inside live paths turn
    down = states[1:] < states[:-1]
    inside = np.repeat(live, steps + 1)[:-1]
    inside[ends[:-1]] = False
    before = np.zeros_like(down)  # is the step before down; a path starts as if rising
    before[1:] = down[:-1]
    before[starts[starts < down.size]] = False
    turns = np.flatnonzero(inside & (down != before))  # t_0, T_1, t_1, ..., t_{i-1}, path by path
    n_turns = np.bincount(np.searchsorted(ends, turns), minlength=n)
    attempts = (n_turns + 1) // 2

    split = np.flatnonzero(n_turns)  # the live paths with tau >= 1
    size = n_turns[split] + 2  # T_0, the turns, T_i = tau
    first = np.cumsum(size) - size
    last = first + size - 1
    times = np.empty(int(size.sum()), dtype=np.int64)
    inner = np.ones(times.size, dtype=bool)
    inner[first] = inner[last] = False
    times[first], times[last], times[inner] = starts[split], ends[split], turns
    owner = np.repeat(split, size)
    odd = (np.arange(times.size) - np.repeat(first, size)) % 2 == 1  # the slots of t_j
    rise_at = ~odd
    rise_at[last] = False
    r, f = np.flatnonzero(rise_at), np.flatnonzero(odd)
    rise_lengths = times[r + 1] - times[r]
    real = rise_lengths > 0  # the empty first rise of a path that opens with a fall is no sample
    r = r[real]
    fall_lengths = times[f + 1] - times[f]
    fall_lengths[np.cumsum(attempts[split]) - 1] = 0  # the last, successful fall counts as 0
    return RecordColumns(
        steps=steps,
        capped=capped,
        attempts=attempts,
        max_state=np.maximum.reduceat(states, starts),
        rise_path=owner[r],
        rise_lengths=rise_lengths[real],
        overshoots=states[times[r + 1]] - states[times[r]],
        fall_path=owner[f],
        fall_lengths=fall_lengths,
    )


def simulate_blocks(
    kernel: KernelContract,
    x0: int,
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    task_index: int = 0,
) -> Iterator[PathBlock]:
    """Yield paths 0..n_traj-1 from x0 in blocks of up to ``BLOCK``, in path order.

    This is the one loop that simulates paths.  The arguments are checked
    once, as the scalar engine checks them: the stream keys, then
    max_steps, then x0.  A start in the floor gives zero-step blocks on
    every kernel.  A :class:`BenchmarkKernel` (not a subclass, which may
    change the law) runs each block on the lockstep engine,
    :func:`~markovup.lockstep.run_block`; any other kernel, and a block
    whose states leave int64, on the scalar engine, path by path, laid out
    in the same block.  Each path's stream is keyed by its index, so both
    give the same paths.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    lane_keys(seed, np.array([0, n_traj - 1]), task_index)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if x0 < 0:
        raise ValueError("x0 must be non-negative")
    floor_n = kernel.floor_n
    for lo in range(0, n_traj, BLOCK):
        pids = np.arange(lo, min(lo + BLOCK, n_traj))
        if x0 <= floor_n:
            steps = np.zeros(pids.size, dtype=np.int64)
            yield PathBlock(floor_n, state_array([x0] * pids.size), steps, steps.astype(bool))
            continue
        if type(kernel) is BenchmarkKernel:
            try:
                yield run_block(kernel, x0, pids, seed, max_steps, task_index)
                continue
            except LeavesInt64:  # the scalar engine's Python ints do not wrap
                pass
        yield PathBlock.of([
            simulate_path(kernel, x0, max_steps, path_stream(seed, pid, task_index)) for pid in pids.tolist()
        ])


def records_of(blocks: Iterable[PathBlock]) -> RecordColumns:
    """The records of one start state's paths, given in consecutive blocks, reduced block by block."""
    return RecordColumns.concat([reduce_block(block) for block in blocks])


def simulate_records(
    kernel: KernelContract,
    x0: int,
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    task_index: int = 0,
) -> RecordColumns:
    """Simulate n_traj paths, each block reduced to its records as soon as it ends."""
    return records_of(simulate_blocks(kernel, x0, n_traj, seed, max_steps, task_index))


def _ratio(num: int, den: int) -> float:
    """num / den, correctly rounded; inf when the quotient is beyond float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _histogram(values: np.ndarray) -> dict[int, int]:
    """Count of each distinct value, as Python ints."""
    distinct, counts = np.unique(values, return_counts=True)
    return dict(zip(distinct.tolist(), counts.tolist()))


def _moment_estimate(
    quantity: str, m: int, x0: int, hist: dict[int, int], capped: int
) -> MomentEstimate:
    """Mean and standard error of v**m over a histogram of integer samples v.

    Both come from the exact sums S1 = sum(v**m) and S2 = sum(v**(2m)) and
    are rounded once, whatever order the samples arrived in.
    """
    n = sum(hist.values())
    s1 = sum(c * v**m for v, c in hist.items())
    s2 = sum(c * v ** (2 * m) for v, c in hist.items())
    flag = None
    if n == 0:
        flag = "no-samples"
    elif n < 2:
        flag = "single-sample"
    return MomentEstimate(
        quantity=quantity,
        m=m,
        x0=x0,
        n_samples=n,
        mean=_ratio(s1, n) if n else 0.0,
        std_error=math.sqrt(_ratio(n * s2 - s1 * s1, n * n * (n - 1))) if n >= 2 else 0.0,
        capped_paths=capped,
        flag=flag,
    )


@dataclass(frozen=True, slots=True)
class RecordFold:
    """One start state's records folded into every number that is reported of them.

    ``estimates`` is keyed by (quantity, m); attempt-survival entries use
    (quantity, i) with i the minimum attempt count whose frequency is
    estimated.  ``hits[i-1]`` counts the live paths with at least i
    attempts.  Capped paths count toward ``capped`` and ``steps`` only.
    """

    x0: int
    estimates: dict[tuple[str, int], MomentEstimate]
    hits: tuple[int, ...]
    n_live: int
    capped: int
    steps: int
    diagnostics: dict


def _index_means(values: np.ndarray, path: np.ndarray, live: np.ndarray) -> dict:
    """Count and mean of the j-th value of each live path that has one, j <= ATTEMPT_TAIL_MAX.

    ``path`` tags each value with its path, in path order.
    """
    counts = np.bincount(path, minlength=live.size)
    index = np.arange(path.size) - np.repeat(np.cumsum(counts) - counts, counts)  # j - 1
    out = {}
    for j in range(1, ATTEMPT_TAIL_MAX + 1):
        vals = values[live[path] & (index == j - 1)]
        if vals.size:
            out[str(j)] = {"n": vals.size, "mean": int(vals.sum()) / vals.size}
    return out


def fold_records(records: RecordColumns, x0: int, m_list: Sequence[int]) -> RecordFold:
    """Fold one start state's records into estimates, attempt hits, counters and diagnostics.

    This is the only place records become statistics.  Each quantity's
    samples become one histogram of values, and every number is derived
    from exact integer sums over it, so any order of the paths gives the
    same fold.  The diagnostics break the pooled samples down by segment
    index (first rise, second rise, ...), which makes index-dependent
    drift visible without affecting any verdict.
    """
    live = ~records.capped
    n_live = int(live.sum())
    capped = len(records) - n_live
    live_rise, live_fall = live[records.rise_path], live[records.fall_path]
    hists = {
        "tau_m": _histogram(records.steps[live]),
        "rise_length_m": _histogram(records.rise_lengths[live_rise]),
        "fall_length_m": _histogram(records.fall_lengths[live_fall]),
        "overshoot_m": _histogram(records.overshoots[live_rise]),
    }
    estimates = {
        (quantity, m): _moment_estimate(quantity, m, x0, hist, capped)
        for m in m_list
        for quantity, hist in hists.items()
    }
    # counts above ATTEMPT_TAIL_MAX share one bucket: no verdict tests them
    attempt_hist = _histogram(np.minimum(records.attempts[live], ATTEMPT_TAIL_MAX + 1))
    hits = tuple(
        sum(n for a, n in attempt_hist.items() if a >= i) for i in range(1, ATTEMPT_TAIL_MAX + 1)
    )
    for i, hit in enumerate(hits, start=1):
        mean = hit / n_live if n_live else 0.0
        se = math.sqrt(mean * (1.0 - mean) / n_live) if n_live else 0.0
        estimates[("attempt_survival", i)] = MomentEstimate(
            quantity="attempt_survival",
            m=i,
            x0=x0,
            n_samples=n_live,
            mean=mean,
            std_error=se,
            capped_paths=capped,
            flag=None if n_live >= 2 else "no-samples",
        )
    diagnostics = {
        "rise_length_by_index": _index_means(records.rise_lengths, records.rise_path, live),
        "fall_length_by_index": _index_means(records.fall_lengths, records.fall_path, live),
        "attempt_count_hist": {
            str(a) if a <= ATTEMPT_TAIL_MAX else f"{a}+": n for a, n in sorted(attempt_hist.items())
        },
    }
    return RecordFold(x0, estimates, hits, n_live, capped, int(records.steps.sum()), diagnostics)


def estimate_tau_moments(
    kernel: KernelContract,
    x0: int,
    m_list: Sequence[int],
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> list[MomentEstimate]:
    """Estimate E_x tau**m for each m, excluding capped paths."""
    fold = fold_records(simulate_records(kernel, x0, n_traj, seed, max_steps), x0, m_list)
    if not fold.n_live:
        raise AllCappedError(f"all {n_traj} paths hit the {max_steps}-step cap")
    return [fold.estimates[("tau_m", m)] for m in m_list]


def binomial_lower99(successes: int, n: int) -> float:
    """Exact one-sided 99% lower confidence bound for a binomial proportion.

    The dual of the exact binomial test of H0: p <= p0; the verdict passes
    exactly when this bound does not exceed the claimed ceiling.  It is
    the 1% quantile of Beta(successes, n - successes + 1), which
    ``scipy.special.betaincinv`` gives bit for bit as ``scipy.stats.beta.ppf``
    does, without the import cost of ``scipy.stats``.
    """
    if not 0 <= successes <= n or n < 1:
        raise ValueError("need 0 <= successes <= n with n >= 1")
    if successes == 0:
        return 0.0
    return float(betaincinv(successes, n - successes + 1, 0.01))


def verdicts_for_records(
    fold: RecordFold, m_list: Sequence[int], bound_sets: dict[int, BoundSet]
) -> tuple[list[VerificationVerdict], list[str]]:
    """All bound comparisons for one start state's folded records."""
    verdicts: list[VerificationVerdict] = []
    warnings: list[str] = []
    x0, capped, table = fold.x0, fold.capped, fold.estimates
    if capped:
        warnings.append(
            f"x0={x0}: {capped} capped paths; bound verdicts for this start state "
            "are reported as failures because they cannot be issued"
        )
    for m in m_list:
        bset = bound_sets[m]
        cells = [
            ("tau_m", bound_calc.theorem_bound(m, x0, bset).value, "ci99-upper"),
            ("rise_length_m", bset.rise_bound.upper, "lower99-test"),
            ("fall_length_m", bset.fall_bound.upper, "lower99-test"),
            ("overshoot_m", bset.overshoot.upper, "lower99-test"),
        ]
        for quantity, bound, form in cells:
            est = table[(quantity, m)]
            if est.flag == "no-samples":
                continue  # nothing observed (e.g. no rises under degenerate dynamics)
            if capped or est.flag is not None:
                test_value = math.inf
                method = "not-issued"
            elif form == "ci99-upper":
                test_value = est.ci99_upper
                method = "ci99-upper<=bound"
            else:
                # one-sided test: fail only when the data contradicts the
                # ceiling by more than Z_SEGMENT standard errors; segment
                # ceilings can be attained exactly (a rise, given that it
                # started, has length moment equal to its ceiling at q=1/2)
                test_value = max(est.mean - Z_SEGMENT * est.std_error, 0.0)
                method = "mean-3se<=bound"
            verdicts.append(
                VerificationVerdict(estimate=est, bound=bound, test_value=test_value, method=method)
            )
    q_bar = bound_sets[m_list[0]].q_bar
    for i, hit in enumerate(fold.hits, start=1):
        est = table[("attempt_survival", i)]
        bound = q_bar ** (i - 1)
        if capped or fold.n_live < 1:
            test_value = math.inf
            method = "not-issued"
        else:
            test_value = binomial_lower99(hit, fold.n_live)
            method = "binomial-test-99"
        verdicts.append(
            VerificationVerdict(estimate=est, bound=bound, test_value=test_value, method=method)
        )
    return verdicts, warnings


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Everything verify() concluded, plus the inputs it rested on."""

    verdicts: tuple[VerificationVerdict, ...]
    certificate: AssumptionCertificate
    bound_sets: dict[int, BoundSet]
    records_by_x: dict[int, RecordColumns]
    folds: dict[int, RecordFold]
    warnings: tuple[str, ...] = field(default=())

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def certify_bounds(
    spec: BenchmarkModelSpec, m_list: Sequence[int], x_grid: Sequence[int],
    eps: float = bound_calc.DEFAULT_EPS,
) -> tuple[AssumptionCertificate, dict[int, BoundSet]]:
    """Certify the model, or raise AssumptionsFailError, and build each order's bound set.

    Every start state's theorem bound is evaluated here, so a start beyond
    float range raises StartRangeError before any path is simulated.
    """
    cert = certify(spec, m_max=max(m_list))
    if not cert.theorem_ready:
        raise AssumptionsFailError("model certificate does not satisfy the required assumptions")
    bound_sets = {m: bound_calc.make_bound_set(m, spec.kappa, spec.up_jump_s, eps) for m in m_list}
    for x0 in x_grid:
        for m, bset in bound_sets.items():
            bound_calc.theorem_bound(m, x0, bset)
    return cert, bound_sets


def report_from_records(
    certificate: AssumptionCertificate, bound_sets: dict[int, BoundSet],
    records_by_x: dict[int, RecordColumns], m_list: Sequence[int],
) -> VerificationReport:
    """Fold each start state's records once into verdicts and warnings."""
    folds = {x0: fold_records(records, x0, m_list) for x0, records in records_by_x.items()}
    verdicts: list[VerificationVerdict] = []
    warnings: list[str] = []
    for fold in folds.values():
        vs, ws = verdicts_for_records(fold, m_list, bound_sets)
        verdicts.extend(vs)
        warnings.extend(ws)
    return VerificationReport(
        tuple(verdicts), certificate, bound_sets, records_by_x, folds, tuple(warnings)
    )


def verify(
    kernel: KernelContract,
    spec: BenchmarkModelSpec,
    x_grid: Sequence[int],
    m_list: Sequence[int],
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    eps: float = bound_calc.DEFAULT_EPS,
) -> VerificationReport:
    """Compare Monte Carlo estimates against every computed bound.

    For each start state x and order m: the hitting-time moment against
    the theorem bound, the pooled segment moments against their certified
    ceilings, and the attempt-count tail against powers of the attempt
    failure ceiling.
    """
    if not x_grid or not m_list:
        raise ValueError("x_grid and m_list must be non-empty")
    if len(set(x_grid)) != len(x_grid):
        raise ValueError("x_grid entries must be distinct")
    if len(set(m_list)) != len(m_list):
        raise ValueError("m_list entries must be distinct")
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2")
    cert, bound_sets = certify_bounds(spec, m_list, x_grid, eps)
    records_by_x = {
        x0: simulate_records(kernel, x0, n_traj, seed, max_steps, task_index)
        for task_index, x0 in enumerate(x_grid)
    }
    return report_from_records(cert, bound_sets, records_by_x, m_list)
