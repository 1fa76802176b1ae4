"""Deterministic Monte Carlo estimation and one-sided bound verification.

Paths are embarrassingly parallel: each owns a counter-based substream
keyed by (seed, path index), and workers only simulate.  The benchmark
kernel's paths are stepped together by the lockstep engine
(:mod:`markovup.lockstep`), which reproduces the scalar engine bit for bit
on one thread; any other kernel runs on the scalar engine, path by path,
over a pool of worker threads.  Every folded
sample is an integer, so the fold keeps exact integer power sums over a
histogram of values and rounds each reported number once: it does not
depend on the order of the records.  Results are therefore bit-identical
for a fixed seed no matter how many workers run.

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
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from scipy.special import betaincinv

from . import bound_calc, path_analysis
from .bound_calc import BoundSet
from .lockstep import simulate_lockstep
from .model_zoo import AssumptionCertificate, BenchmarkKernel, BenchmarkModelSpec, certify
from .process_core import KernelContract, StopReason, Trajectory, simulate_path
from .streams import path_stream

__all__ = [
    "AllCappedError",
    "AssumptionsFailError",
    "MomentEstimate",
    "PathRecord",
    "RecordFold",
    "VerificationVerdict",
    "certify_bounds",
    "estimate_segment_moments",
    "estimate_tau_moments",
    "fold_records",
    "report_from_records",
    "simulate_records",
    "simulate_trajectories",
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


@dataclass(frozen=True, slots=True)
class PathRecord:
    """Per-path sufficient statistics for every verified quantity.

    ``rise_lengths`` and ``overshoots`` sample the segments where the
    process actually rose.  ``fall_lengths`` has one entry per attempt:
    the fall length for unsuccessful attempts and 0 for the successful
    one, mirroring the indicator in the fall-length moment bound (falls
    that reach the floor do not count toward it).
    """

    path_id: int
    tau: Optional[int]
    capped: bool
    attempts: int
    max_state: int
    steps: int
    rise_lengths: tuple[int, ...] = ()
    fall_lengths: tuple[int, ...] = ()
    overshoots: tuple[int, ...] = ()


def record_from_trajectory(path_id: int, traj) -> PathRecord:
    """Reduce one trajectory to the statistics the estimators need."""
    states = traj.states
    if not traj.tau:  # capped, or started in the floor: no attempts
        return PathRecord(
            path_id=path_id,
            tau=traj.tau,
            capped=traj.tau is None,
            attempts=0,
            max_state=max(states),
            steps=len(states) - 1,
        )
    times = path_analysis.turning_times(states, traj.tau)
    rises, falls = path_analysis.rises_of(times), path_analysis.falls_of(times)
    if rises[0][1] == 0:  # a path that opens with a fall: its empty first rise is no sample
        del rises[0]
    return PathRecord(
        path_id=path_id,
        tau=traj.tau,
        capped=False,
        attempts=len(falls),
        max_state=max(states),
        steps=len(states) - 1,
        rise_lengths=tuple(t - T for T, t in rises),
        # the last, successful fall counts as 0
        fall_lengths=tuple(T - t for t, T in falls[:-1]) + (0,),
        overshoots=tuple(states[t] - states[T] for T, t in rises),
    )


def _run_paths(
    reduce: Callable[[int, Trajectory], Any], kernel: KernelContract, x0: int,
    n_traj: int, seed: int, max_steps: int, task_index: int, threads: int,
) -> list:
    """Simulate paths 0..n_traj-1 from x0; reduce(pid, path) of each, in path order.

    A :class:`BenchmarkKernel` (not a subclass, which may change the law)
    runs on the lockstep engine, which ignores ``threads``.  Other kernels
    run on the scalar engine in ``threads`` workers.  Worker count affects
    speed only: each path's stream is keyed by its index, and results are
    reassembled in path order, which paths.csv and the trajectory dump keep.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if type(kernel) is BenchmarkKernel:
        paths = simulate_lockstep(kernel, x0, n_traj, seed, max_steps, task_index)
        return [reduce(pid, traj) for pid, traj in enumerate(paths)]

    def run_chunk(bounds: tuple[int, int]) -> list:
        lo, hi = bounds
        return [
            reduce(pid, simulate_path(kernel, x0, max_steps, path_stream(seed, pid, task_index)))
            for pid in range(lo, hi)
        ]

    if threads == 1:
        return run_chunk((0, n_traj))
    chunk = max(1, math.ceil(n_traj / (threads * 4)))
    spans = [(lo, min(lo + chunk, n_traj)) for lo in range(0, n_traj, chunk)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run_chunk, spans))
    return [res for part in parts for res in part]


def simulate_trajectories(
    kernel: KernelContract,
    x0: int,
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    task_index: int = 0,
    threads: int = 1,
) -> list[Trajectory]:
    """Simulate n_traj raw paths, returned in path-index order."""
    return _run_paths(lambda pid, traj: traj, kernel, x0, n_traj, seed, max_steps, task_index, threads)


def simulate_records(
    kernel: KernelContract,
    x0: int,
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    task_index: int = 0,
    threads: int = 1,
) -> list[PathRecord]:
    """Simulate n_traj paths, each reduced to its record as soon as it ends, in path-index order."""
    return _run_paths(record_from_trajectory, kernel, x0, n_traj, seed, max_steps, task_index, threads)


def _ratio(num: int, den: int) -> float:
    """num / den, correctly rounded; inf when the quotient is beyond float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _moment_estimate(quantity: str, m: int, x0: int, hist: Counter, capped: int) -> MomentEstimate:
    """Mean and standard error of v**m over a histogram of integer samples v.

    Both come from the exact sums S1 = sum(v**m) and S2 = sum(v**(2m)) and
    are rounded once, whatever order the samples arrived in.
    """
    n = hist.total()
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


def _index_means(seqs: list[tuple[int, ...]]) -> dict:
    """Count and mean of the j-th entry over the sequences that have one, j <= ATTEMPT_TAIL_MAX."""
    out = {}
    for j in range(1, ATTEMPT_TAIL_MAX + 1):
        vals = [s[j - 1] for s in seqs if len(s) >= j]
        if vals:
            out[str(j)] = {"n": len(vals), "mean": sum(vals) / len(vals)}
    return out


def fold_records(records: Sequence[PathRecord], x0: int, m_list: Sequence[int]) -> RecordFold:
    """Fold one start state's records into estimates, attempt hits, counters and diagnostics.

    This is the only place records become statistics.  Each quantity's
    samples become one histogram of values, and every number is derived
    from exact integer sums over it, so any permutation of ``records``
    gives the same fold.  The diagnostics break the pooled samples down by
    segment index (first rise, second rise, ...), which makes
    index-dependent drift visible without affecting any verdict.
    """
    live = [r for r in records if not r.capped]
    n_live = len(live)
    capped = len(records) - n_live
    hists = {
        "tau_m": Counter(r.tau for r in live),
        "rise_length_m": Counter(v for r in live for v in r.rise_lengths),
        "fall_length_m": Counter(v for r in live for v in r.fall_lengths),
        "overshoot_m": Counter(v for r in live for v in r.overshoots),
    }
    estimates = {
        (quantity, m): _moment_estimate(quantity, m, x0, hist, capped)
        for m in m_list
        for quantity, hist in hists.items()
    }
    # counts above ATTEMPT_TAIL_MAX share one bucket: no verdict tests them
    attempt_hist = Counter(min(r.attempts, ATTEMPT_TAIL_MAX + 1) for r in live)
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
        "rise_length_by_index": _index_means([r.rise_lengths for r in live]),
        "fall_length_by_index": _index_means([r.fall_lengths for r in live]),
        "attempt_count_hist": {
            str(a) if a <= ATTEMPT_TAIL_MAX else f"{a}+": n for a, n in sorted(attempt_hist.items())
        },
    }
    return RecordFold(x0, estimates, hits, n_live, capped, sum(r.steps for r in records), diagnostics)


def _estimate_table(
    kernel: KernelContract, x0: int, m_list: Sequence[int],
    n_traj: int, seed: int, max_steps: int, threads: int,
) -> dict[tuple[str, int], MomentEstimate]:
    fold = fold_records(
        simulate_records(kernel, x0, n_traj, seed, max_steps, threads=threads), x0, m_list
    )
    if not fold.n_live:
        raise AllCappedError(f"all {n_traj} paths hit the {max_steps}-step cap")
    return fold.estimates


def estimate_tau_moments(
    kernel: KernelContract,
    x0: int,
    m_list: Sequence[int],
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    threads: int = 1,
) -> list[MomentEstimate]:
    """Estimate E_x tau**m for each m, excluding capped paths."""
    table = _estimate_table(kernel, x0, m_list, n_traj, seed, max_steps, threads)
    return [table[("tau_m", m)] for m in m_list]


def estimate_segment_moments(
    kernel: KernelContract,
    x0: int,
    m: int,
    n_traj: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    threads: int = 1,
) -> dict[str, MomentEstimate]:
    """Pooled m-th moments of rise lengths, fall lengths, and overshoots.

    Pooling follows the attempt decomposition: rise lengths and overshoots
    over every segment where the process actually rose, and fall lengths
    with one sample per attempt, zeroed on the successful one (the fall
    that reaches the floor does not count toward its ceiling).
    """
    table = _estimate_table(kernel, x0, [m], n_traj, seed, max_steps, threads)
    return {q: table[(q, m)] for q in ("rise_length_m", "fall_length_m", "overshoot_m")}


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
    records_by_x: dict[int, tuple[PathRecord, ...]]
    folds: dict[int, RecordFold]
    warnings: tuple[str, ...] = field(default=())

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def certify_bounds(
    spec: BenchmarkModelSpec, m_list: Sequence[int], eps: float = bound_calc.DEFAULT_EPS
) -> tuple[AssumptionCertificate, dict[int, BoundSet]]:
    """Certify the model, or raise AssumptionsFailError, and build each order's bound set."""
    cert = certify(spec, m_max=max(m_list))
    if not cert.theorem_ready:
        raise AssumptionsFailError("model certificate does not satisfy the required assumptions")
    bound_sets = {m: bound_calc.make_bound_set(m, spec.kappa, spec.up_jump_s, eps) for m in m_list}
    return cert, bound_sets


def report_from_records(
    certificate: AssumptionCertificate, bound_sets: dict[int, BoundSet],
    records_by_x: dict[int, tuple[PathRecord, ...]], m_list: Sequence[int],
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
    threads: int = 1,
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
    cert, bound_sets = certify_bounds(spec, m_list, eps)
    records_by_x = {
        x0: tuple(simulate_records(
            kernel, x0, n_traj, seed, max_steps, task_index=task_index, threads=threads
        ))
        for task_index, x0 in enumerate(x_grid)
    }
    return report_from_records(cert, bound_sets, records_by_x, m_list)
