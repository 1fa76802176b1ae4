"""Deterministic Monte Carlo estimation and one-sided bound verification.

Each path owns a counter-based substream keyed by (seed, path index), and
every engine runs on one thread.  :func:`simulate_blocks` is the one loop
that simulates paths, a block at a time.  The benchmark kernel's paths
are stepped together by the lockstep engine (:mod:`markovup.lockstep`),
which reproduces the scalar engine bit for bit; any other kernel runs on
the scalar engine, path by path.  Both hand over blocks of paths in jump
form (:class:`~markovup.process_core.PathBlock`), and one reducer,
:func:`reduce_block`, turns each block into record columns
(:class:`RecordColumns`, the only form a record takes) with array
operations over its rises and falls, read off its jumps alone.  Every
folded sample is an integer, so the fold counts each block's samples
into a histogram of values, keeps exact integer power sums over it and
rounds each reported number once: neither the order of the records nor
how they are cut into blocks changes it.  Results are therefore
bit-identical for a fixed seed.

:func:`verify_records` is the one verification pipeline: certificate,
bound sets, then each start state's fold and verdicts.  Its callers only
supply the records: simulated ones (:func:`verify`, ``markovup verify``)
or those read back from a trajectory dump (``markovup report``).

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

import importlib.util
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# scipy.special's package __init__ clones numpy's namespace for the array
# API and so imports numpy.f2py, numpy.testing and numpy.ma: about half of
# every command's set-up.  An unexecuted stand-in for the package, with its
# real spec and __path__, lets the compiled scipy.special._ufuncs load alone.
# A later ``import scipy.special`` runs the package as usual and reuses the
# cached _ufuncs, so it hands out this very betaincinv.
if "scipy.special" in sys.modules:
    from scipy.special import betaincinv
else:
    sys.modules["scipy.special"] = importlib.util.module_from_spec(
        importlib.util.find_spec("scipy.special"))
    try:
        from scipy.special._ufuncs import betaincinv
    finally:
        del sys.modules["scipy.special"]

from . import bound_calc
from .bound_calc import BoundSet
from .lockstep import run_block
from .model_zoo import AssumptionCertificate, BenchmarkKernel, BenchmarkModelSpec, certify
from .process_core import KernelContract, PathBlock, simulate_path
from .streams import lane_keys, path_stream

__all__ = [
    "AllCappedError",
    "AssumptionsFailError",
    "MomentEstimate",
    "RecordColumns",
    "RecordFold",
    "VerificationVerdict",
    "estimate_tau_moments",
    "fold_records",
    "reduce_block",
    "simulate_blocks",
    "simulate_records",
    "verify",
    "verify_records",
]

Z99_CI = 2.576     # half-width multiplier of the reported 99% band
Z_SEGMENT = 3.0    # one-sided slack, in standard errors, for segment ceilings
ATTEMPT_TAIL_MAX = 5
DEFAULT_MAX_STEPS = 10**6
MAX_LANES = 2**14  # paths a block holds, at most
STATE_BUDGET = 2**22  # states a block's paths hold at the fewest, at most, unless one path alone holds more


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
        """Every field, plus ``ci99_upper``."""
        return {**asdict(self), "ci99_upper": self.ci99_upper}


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


@dataclass(frozen=True, slots=True, eq=False)
class RecordColumns:
    """The records of one block's paths, numbered 0..n-1 in the block, as columns: the only form a record takes.

    Per path: ``steps``, ``capped``, ``max_state``, and ``attempts`` and
    ``rises``, its counts of falls and rises; a live path's tau is its step
    count.  Per segment, in path order: ``rise_lengths`` and ``overshoots``
    per rise, ``fall_lengths`` per fall.  Path i's are the ``rises[i]``
    (``attempts[i]``) entries after those of paths 0..i-1; a capped path has
    none.  Rise lengths and overshoots sample the segments where the process
    actually rose.  Fall lengths have one entry per attempt: the fall length
    for an unsuccessful attempt and 0 for the successful one, mirroring the
    indicator in the fall-length moment bound.  Every column but ``capped``
    is int64.
    """

    steps: np.ndarray
    capped: np.ndarray
    attempts: np.ndarray
    rises: np.ndarray
    max_state: np.ndarray
    rise_lengths: np.ndarray
    overshoots: np.ndarray
    fall_lengths: np.ndarray

    def __len__(self) -> int:
        return self.steps.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _rises(block: PathBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(path, start, stop, overshoot, max_state)``: each live path's rises, and each path's largest state.

    A rise is a run of jumps of non-negative increment at consecutive places
    (no two paths' steps are).  It is given by its path, the places its first
    and last steps reach and the sum of its increments.  A path's largest
    state is its start or a state one of its rises reaches.
    """
    at, jumps, reached = block.jump_at, block.jumps, block.reached
    up = jumps >= 0
    joined = np.diff(at) == 1  # jumps k and k + 1 at consecutive places
    joined &= up[1:]
    joined &= up[:-1]
    cuts = np.ones(at.size + 1, dtype=bool)
    np.logical_not(joined, out=cuts[1:-1])
    head, tail = np.flatnonzero(up & cuts[:-1]), np.flatnonzero(up & cuts[1:])  # each rise's first and last jump
    path = np.repeat(np.arange(block.steps.size), block.jump_counts)[head]
    max_state = block.first.copy()
    np.maximum.at(max_state, path, reached[tail])
    live = ~block.capped[path]  # a capped path's rises are no records
    head, tail = head[live], tail[live]
    return path[live], at[head], at[tail], reached[tail] - reached[head] + jumps[head], max_state


def reduce_block(block: PathBlock) -> RecordColumns:
    """Every path's record of a block, read off its jumps alone with array operations, in O(jumps + paths).

    This is the one record reducer, one entry per attempt, read off the
    :func:`_rises` of the block; the falls are the gaps between them.  A live
    path ends falling, so its falls are the gap before its first rise if it
    opens falling, the gap after each of its rises but the last, and a last
    fall, which reaches the floor and counts 0.  Everything runs in path
    order with no sort; the block was checked when made.
    """
    steps, capped = block.steps, block.capped
    path, start, stop, overshoots, max_state = _rises(block)
    rise_lengths = stop - start + 1
    # the fall before each rise runs from the end of the rise before, or from its path's start
    gap = np.empty_like(start)
    gap[1:] = stop[:-1]
    opens = np.ones(path.size, dtype=bool)  # each path's first rise
    np.not_equal(path[1:], path[:-1], out=opens[1:])
    opens = np.flatnonzero(opens)
    gap[opens] = block.starts[path[opens]]
    np.subtract(start - 1, gap, out=gap)  # 0 only before a rise that opens its path
    falls = np.flatnonzero(gap > 0)
    ends_falling = ~capped & (steps > 0)  # each live path that steps has a last fall
    attempts = np.bincount(path[falls], minlength=steps.size) + ends_falling
    fall_lengths = np.zeros(int(attempts.sum()), dtype=np.int64)
    # a path's falls before its rises, then its last fall's 0
    fall_lengths[np.arange(falls.size) + (np.cumsum(ends_falling) - 1)[path[falls]]] = gap[falls]
    return RecordColumns(
        steps=steps,
        capped=capped,
        attempts=attempts,
        rises=np.bincount(path, minlength=steps.size),
        max_state=max_state,
        rise_lengths=rise_lengths,
        overshoots=overshoots,
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
    """Yield paths 0..n_traj-1 from x0 in blocks of consecutive ids, in path order.

    This is the one loop that simulates paths.  A step falls by one at
    most, so a path from x0 holds at least ``x0 - floor_n + 1`` states,
    and a block holds ``lanes = STATE_BUDGET // (x0 - floor_n + 1)``
    paths, kept within 1..MAX_LANES: paths of STATE_BUDGET states at their
    fewest from a start far above the floor, and MAX_LANES paths from one
    near it.  The n_traj paths are cut into ``ceil(n_traj / lanes)`` runs
    of consecutive ids whose sizes differ by at most one.  The arguments
    are checked once, as the scalar engine checks them: the stream keys,
    then max_steps, then x0.  A start in the floor gives blocks of the scalar
    engine's zero-step path on every kernel, with no stream built.  A
    :class:`BenchmarkKernel` (not a subclass, which may change the law)
    runs each block on the lockstep engine,
    :func:`~markovup.lockstep.run_block`, which raises ValueError unless
    every state its paths can reach fits int64, and hands over the block
    in jump form with no states built; any other kernel on the scalar
    engine, path by path, its states read into the same jump form by
    :meth:`PathBlock.of`, which raises ValueError at a state past int64.
    Each path's stream is keyed by its index, so both give the same paths,
    wherever the blocks are cut.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    lane_keys(seed, np.array([0, n_traj - 1]), task_index)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if x0 < 0:
        raise ValueError("x0 must be non-negative")
    lanes = min(max(STATE_BUDGET // max(x0 - kernel.floor_n + 1, 1), 1), MAX_LANES)
    n_blocks = -(-n_traj // lanes)
    for i in range(n_blocks):
        pids = np.arange(i * n_traj // n_blocks, (i + 1) * n_traj // n_blocks)
        if x0 <= kernel.floor_n:
            yield PathBlock.of([simulate_path(kernel, x0, max_steps, None)] * pids.size)
        elif type(kernel) is BenchmarkKernel:
            yield run_block(kernel, x0, pids, seed, max_steps, task_index)
        else:
            yield PathBlock.of([
                simulate_path(kernel, x0, max_steps, path_stream(seed, pid, task_index)) for pid in pids.tolist()
            ])


def simulate_records(
    kernel: KernelContract,
    x0: int,
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    task_index: int = 0,
) -> Iterator[RecordColumns]:
    """Simulate n_traj paths, and yield each block's records as soon as the block ends."""
    return map(reduce_block, simulate_blocks(kernel, x0, n_traj, seed, max_steps, task_index))


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


def _sample_flag(n: int) -> Optional[str]:
    """Why an estimate from n samples cannot be tested, or None."""
    return None if n >= 2 else "single-sample" if n else "no-samples"


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
    return MomentEstimate(
        quantity=quantity,
        m=m,
        x0=x0,
        n_samples=n,
        mean=_ratio(s1, n) if n else 0.0,
        std_error=math.sqrt(_ratio(n * s2 - s1 * s1, n * n * (n - 1))) if n >= 2 else 0.0,
        capped_paths=capped,
        flag=_sample_flag(n),
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


def _add_index_sums(sums: dict[int, tuple[int, int]], values: np.ndarray, counts: np.ndarray) -> None:
    """Add the count and integer sum of the j-th value of each path that has one to sums[j], j <= ATTEMPT_TAIL_MAX.

    Path i's values are the ``counts[i]`` entries of ``values`` after those of paths 0..i-1.
    """
    first = np.cumsum(counts) - counts
    for j in range(1, ATTEMPT_TAIL_MAX + 1):
        vals = values[first[counts >= j] + j - 1]
        n, total = sums.get(j, (0, 0))
        sums[j] = (n + vals.size, total + int(vals.sum()))


def fold_records(parts: Iterable[RecordColumns], x0: int, m_list: Sequence[int]) -> RecordFold:
    """Fold one start state's records, block by block, into estimates, attempt hits, counters and diagnostics.

    This is the only place records become statistics.  Each block's
    samples of a quantity are counted into one histogram of values, and the
    block is dropped; every number comes from exact integer sums, so neither
    the order of the paths nor how they are cut into blocks changes the fold.
    A capped path has no segments, so only its tau and attempt count are
    skipped.  The diagnostics break the samples down by segment index (first
    rise, second rise, ...), which shows index-dependent drift without
    affecting any verdict.
    """
    hists = {quantity: Counter() for quantity in ("tau_m", "rise_length_m", "fall_length_m", "overshoot_m")}
    attempt_hist: Counter = Counter()
    by_index: dict[str, dict[int, tuple[int, int]]] = {"rise_length_by_index": {}, "fall_length_by_index": {}}
    n = n_live = steps = 0
    for records in parts:
        live = ~records.capped
        hists["tau_m"].update(_histogram(records.steps[live]))
        hists["rise_length_m"].update(_histogram(records.rise_lengths))
        hists["fall_length_m"].update(_histogram(records.fall_lengths))
        hists["overshoot_m"].update(_histogram(records.overshoots))
        # counts above ATTEMPT_TAIL_MAX share one bucket: no verdict tests them
        attempt_hist.update(_histogram(np.minimum(records.attempts[live], ATTEMPT_TAIL_MAX + 1)))
        _add_index_sums(by_index["rise_length_by_index"], records.rise_lengths, records.rises)
        _add_index_sums(by_index["fall_length_by_index"], records.fall_lengths, records.attempts)
        n += len(records)
        n_live += int(live.sum())
        steps += int(records.steps.sum())
    capped = n - n_live
    estimates = {
        (quantity, m): _moment_estimate(quantity, m, x0, hist, capped)
        for m in m_list
        for quantity, hist in hists.items()
    }
    hits = tuple(
        sum(c for a, c in attempt_hist.items() if a >= i) for i in range(1, ATTEMPT_TAIL_MAX + 1)
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
            flag=_sample_flag(n_live),
        )
    diagnostics = {
        name: {str(j): {"n": c, "mean": total / c} for j, (c, total) in sorted(sums.items()) if c}
        for name, sums in by_index.items()
    }
    diagnostics["attempt_count_hist"] = {
        str(a) if a <= ATTEMPT_TAIL_MAX else f"{a}+": c for a, c in sorted(attempt_hist.items())
    }
    return RecordFold(x0, estimates, hits, n_live, capped, steps, diagnostics)


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
    does, without the import cost of ``scipy.stats``.  The ufunc comes from
    the compiled ``scipy.special._ufuncs``, loaded at import without the
    ``scipy.special`` package init, which would be about half of every
    command's set-up (see the note at the imports); it is the very object
    ``scipy.special.betaincinv`` names.
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
    """Everything verify_records() concluded, plus the inputs it rested on."""

    verdicts: tuple[VerificationVerdict, ...]
    certificate: AssumptionCertificate
    bound_sets: dict[int, BoundSet]
    folds: dict[int, RecordFold]
    warnings: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def verify_records(
    spec: BenchmarkModelSpec,
    x_grid: Sequence[int],
    m_list: Sequence[int],
    sources: Iterable[Iterable[RecordColumns]],
    eps: float,
) -> VerificationReport:
    """Certify the model, build each order's bound set, fold each start state's records, then judge the folds.

    ``sources`` holds one iterable of record blocks per x_grid entry, in
    x_grid order, and is run to its end.  Its first item is taken only
    after the certificate (AssumptionsFailError) and every theorem bound
    (StartRangeError) pass, so a rejected run simulates and reads nothing.
    """
    if not x_grid or not m_list:
        raise ValueError("x_grid and m_list must be non-empty")
    if len(set(x_grid)) != len(x_grid):
        raise ValueError("x_grid entries must be distinct")
    if len(set(m_list)) != len(m_list):
        raise ValueError("m_list entries must be distinct")
    cert = certify(spec, m_max=max(m_list))
    if not cert.theorem_ready:
        raise AssumptionsFailError("model certificate does not satisfy the required assumptions")
    bound_sets = {m: bound_calc.make_bound_set(m, spec.kappa, spec.up_jump_s, eps) for m in m_list}
    for x0 in x_grid:
        for m, bset in bound_sets.items():
            bound_calc.theorem_bound(m, x0, bset)
    folds = {x0: fold_records(records, x0, m_list) for x0, records in zip(x_grid, sources, strict=True)}
    verdicts: list[VerificationVerdict] = []
    warnings: list[str] = []
    for fold in folds.values():
        vs, ws = verdicts_for_records(fold, m_list, bound_sets)
        verdicts.extend(vs)
        warnings.extend(ws)
    return VerificationReport(tuple(verdicts), cert, bound_sets, folds, tuple(warnings))


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
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2")
    sources = (
        simulate_records(kernel, x0, n_traj, seed, max_steps, task_index)
        for task_index, x0 in enumerate(x_grid)
    )
    return verify_records(spec, x_grid, m_list, sources, eps)
