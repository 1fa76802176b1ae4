"""Deterministic Monte Carlo estimation and one-sided bound verification.

Paths are embarrassingly parallel: each owns a counter-based substream
keyed by (seed, path index), workers only simulate, and all statistics
are folded by the main thread in path-index order.  Results are therefore
bit-identical for a fixed seed no matter how many workers run.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from scipy.stats import beta as beta_dist

from . import bound_calc, path_analysis
from .bound_calc import BoundSet
from .model_zoo import AssumptionCertificate, BenchmarkModelSpec, certify
from .process_core import KernelContract, StopReason, Trajectory, simulate_path
from .streams import path_stream

__all__ = [
    "AllCappedError",
    "AssumptionsFailError",
    "MomentEstimate",
    "PathRecord",
    "VerificationVerdict",
    "Welford",
    "certify_bounds",
    "estimate_segment_moments",
    "estimate_tau_moments",
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


class Welford:
    """Streaming mean and variance, numerically stable."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than two samples)."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    @property
    def std_error(self) -> float:
        if self.n < 1:
            return 0.0
        return math.sqrt(self.variance / self.n)


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
    if traj.stop_reason is StopReason.STEP_CAP:
        return PathRecord(
            path_id=path_id,
            tau=None,
            capped=True,
            attempts=0,
            max_state=max(states),
            steps=len(states) - 1,
        )
    decomp = path_analysis.decompose_attempts(traj)
    # only segments where the process actually rose; paths that open with
    # a fall have an empty initial rise, which carries no sample
    real_rises = [(T_j, t_j) for _, T_j, t_j in decomp.rise_segments if t_j > T_j]
    rises = tuple(t_j - T_j for T_j, t_j in real_rises)
    falls = tuple(
        0 if a.success else a.length for a in decomp.attempts
    )
    overs = tuple(states[t_j] - states[T_j] for T_j, t_j in real_rises)
    return PathRecord(
        path_id=path_id,
        tau=traj.tau,
        capped=False,
        attempts=len(decomp.attempts),
        max_state=max(states),
        steps=len(states) - 1,
        rise_lengths=rises,
        fall_lengths=falls,
        overshoots=overs,
    )


def _run_paths(
    reduce: Callable[[int, Trajectory], Any], kernel: KernelContract, x0: int,
    n_traj: int, seed: int, max_steps: int, task_index: int, threads: int,
) -> list:
    """Simulate paths 0..n_traj-1 from x0; reduce(pid, path) of each, in path order.

    Worker count affects speed only: each path's stream is keyed by its
    index, and results are reassembled in order before any statistics.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")

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
    """Simulate and decompose n_traj paths, each as soon as it ends, in path-index order."""
    return _run_paths(record_from_trajectory, kernel, x0, n_traj, seed, max_steps, task_index, threads)


def _moment_estimate(
    quantity: str,
    m: int,
    x0: int,
    samples: Iterable[float],
    capped: int,
) -> MomentEstimate:
    acc = Welford()
    for v in samples:
        acc.push(v)
    flag = None
    if acc.n == 0:
        flag = "no-samples"
    elif acc.n < 2:
        flag = "single-sample"
    return MomentEstimate(
        quantity=quantity,
        m=m,
        x0=x0,
        n_samples=acc.n,
        mean=acc.mean,
        std_error=acc.std_error,
        capped_paths=capped,
        flag=flag,
    )


def estimates_from_records(
    records: Sequence[PathRecord], x0: int, m_list: Sequence[int]
) -> dict[tuple[str, int], MomentEstimate]:
    """Fold per-path records into moment estimates, in path-index order.

    Keys are (quantity, m); attempt-survival entries use (quantity, i)
    with i the minimum attempt count whose frequency is estimated.
    """
    capped = sum(1 for r in records if r.capped)
    live = [r for r in records if not r.capped]
    out: dict[tuple[str, int], MomentEstimate] = {}
    for m in m_list:
        out[("tau_m", m)] = _moment_estimate(
            "tau_m", m, x0, (float(r.tau) ** m for r in live), capped
        )
        out[("rise_length_m", m)] = _moment_estimate(
            "rise_length_m", m, x0,
            (float(v) ** m for r in live for v in r.rise_lengths), capped,
        )
        out[("fall_length_m", m)] = _moment_estimate(
            "fall_length_m", m, x0,
            (float(v) ** m for r in live for v in r.fall_lengths), capped,
        )
        out[("overshoot_m", m)] = _moment_estimate(
            "overshoot_m", m, x0,
            (float(v) ** m for r in live for v in r.overshoots), capped,
        )
    n = len(live)
    for i in range(1, ATTEMPT_TAIL_MAX + 1):
        hits = sum(1 for r in live if r.attempts >= i)
        mean = hits / n if n else 0.0
        se = math.sqrt(mean * (1.0 - mean) / n) if n else 0.0
        out[("attempt_survival", i)] = MomentEstimate(
            quantity="attempt_survival",
            m=i,
            x0=x0,
            n_samples=n,
            mean=mean,
            std_error=se,
            capped_paths=capped,
            flag=None if n >= 2 else "no-samples",
        )
    return out


def _estimate_table(
    kernel: KernelContract, x0: int, m_list: Sequence[int],
    n_traj: int, seed: int, max_steps: int, threads: int,
) -> dict[tuple[str, int], MomentEstimate]:
    records = simulate_records(kernel, x0, n_traj, seed, max_steps, threads=threads)
    if all(r.capped for r in records):
        raise AllCappedError(f"all {n_traj} paths hit the {max_steps}-step cap")
    return estimates_from_records(records, x0, m_list)


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


def segment_breakdown(records: Sequence[PathRecord], max_index: int = 5) -> dict:
    """Diagnostic per-segment-index means (first rise, second rise, ...).

    The bound verdicts pool across segment indices; this breakdown makes
    index-dependent drift visible without affecting any verdict.
    """
    rise_by_j: dict[int, Welford] = {}
    fall_by_j: dict[int, Welford] = {}
    attempt_hist: dict[str, int] = {}
    for rec in records:
        if rec.capped:
            continue
        key = str(rec.attempts) if rec.attempts <= max_index else f"{max_index + 1}+"
        attempt_hist[key] = attempt_hist.get(key, 0) + 1
        for j, v in enumerate(rec.rise_lengths[:max_index], start=1):
            rise_by_j.setdefault(j, Welford()).push(float(v))
        for j, v in enumerate(rec.fall_lengths[:max_index], start=1):
            fall_by_j.setdefault(j, Welford()).push(float(v))

    def fold(table: dict[int, Welford]) -> dict:
        return {
            str(j): {"n": acc.n, "mean": acc.mean}
            for j, acc in sorted(table.items())
        }

    return {
        "rise_length_by_index": fold(rise_by_j),
        "fall_length_by_index": fold(fall_by_j),
        "attempt_count_hist": dict(sorted(attempt_hist.items())),
    }


def binomial_lower99(successes: int, n: int) -> float:
    """Exact one-sided 99% lower confidence bound for a binomial proportion.

    The dual of the exact binomial test of H0: p <= p0; the verdict passes
    exactly when this bound does not exceed the claimed ceiling.
    """
    if not 0 <= successes <= n or n < 1:
        raise ValueError("need 0 <= successes <= n with n >= 1")
    if successes == 0:
        return 0.0
    return float(beta_dist.ppf(0.01, successes, n - successes + 1))


def verdicts_for_records(
    x0: int,
    records: Sequence[PathRecord],
    m_list: Sequence[int],
    bound_sets: dict[int, BoundSet],
) -> tuple[list[VerificationVerdict], list[str]]:
    """All bound comparisons for one start state's records."""
    verdicts: list[VerificationVerdict] = []
    warnings: list[str] = []
    capped = sum(1 for r in records if r.capped)
    if capped:
        warnings.append(
            f"x0={x0}: {capped} capped paths; bound verdicts for this start state "
            "are reported as failures because they cannot be issued"
        )
    table = estimates_from_records(records, x0, m_list)
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
    live = [r for r in records if not r.capped]
    n_live = len(live)
    q_bar = bound_sets[m_list[0]].q_bar
    for i in range(1, ATTEMPT_TAIL_MAX + 1):
        est = table[("attempt_survival", i)]
        bound = q_bar ** (i - 1)
        if capped or n_live < 1:
            test_value = math.inf
            method = "not-issued"
        else:
            hits = sum(1 for r in live if r.attempts >= i)
            test_value = binomial_lower99(hits, n_live)
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
    """Fold each start state's records, in order, into verdicts and warnings."""
    verdicts: list[VerificationVerdict] = []
    warnings: list[str] = []
    for x0, records in records_by_x.items():
        vs, ws = verdicts_for_records(x0, records, m_list, bound_sets)
        verdicts.extend(vs)
        warnings.extend(ws)
    return VerificationReport(tuple(verdicts), certificate, bound_sets, records_by_x, tuple(warnings))


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
