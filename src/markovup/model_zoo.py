"""Parametric Markov-up model families with certifiable recurrence structure.

The benchmark family falls by exactly one with probability kappa_ell
(ell = current fall length) and otherwise jumps up by a geometric amount.
Its kappa sequence 1 - a*r**i increases to 1 fast enough that every
polynomial moment of the hitting time is finite, which is exactly what
the bound machinery in :mod:`markovup.bound_calc` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .process_core import FallWindow, KernelContract, StepDistribution

__all__ = [
    "AssumptionCertificate",
    "BenchmarkKernel",
    "BenchmarkModelSpec",
    "CertificateEntry",
    "DeterministicDownKernel",
    "InvalidParameterError",
    "KappaSpec",
    "build_benchmark",
    "certify",
]


class InvalidParameterError(ValueError):
    """A model parameter outside its documented open range."""


def _check_open_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise InvalidParameterError(f"{name} must lie in the open interval (0, 1), got {value}")


@dataclass(frozen=True, slots=True)
class KappaSpec:
    """Non-decreasing fall-continuation lower bounds kappa_i = 1 - a*r**i.

    The geometric gap makes sum(i**m * (1 - kappa_i)) finite for every m
    and keeps the infinite product of the kappa_i strictly positive.
    """

    a: float
    r: float

    def __post_init__(self) -> None:
        _check_open_unit("a", self.a)
        _check_open_unit("r", self.r)

    def at(self, i: int) -> float:
        """Fall-continuation lower bound after i prior consecutive down-steps."""
        if i < 0:
            raise ValueError("index must be non-negative")
        return 1.0 - self.a * self.r**i

    @property
    def q(self) -> float:
        """Upper bound 1 - kappa_0 on the probability of a non-decrease."""
        return self.a


@dataclass(frozen=True, slots=True)
class BenchmarkModelSpec:
    """Benchmark family: down-steps of size one, geometric up-jumps.

    From state x >= 1 with fall length ell: move to x-1 with probability
    kappa_ell, else jump to x + G with G geometric on {0, 1, ...} with
    parameter s.  From 0 the up branch is forced.
    """

    kappa: KappaSpec
    up_jump_s: float
    floor_n: int

    def __post_init__(self) -> None:
        _check_open_unit("s", self.up_jump_s)
        if self.floor_n < 0:
            raise InvalidParameterError(f"floor_n must be non-negative, got {self.floor_n}")


class BenchmarkKernel(KernelContract):
    """Window-pure kernel realizing :class:`BenchmarkModelSpec` exactly.

    Distributions depend only on (fall length, current state) and are
    cached, so equal windows return the identical object.
    """

    def __init__(self, spec: BenchmarkModelSpec) -> None:
        self._spec = spec
        self._cache: dict[tuple[int, int], StepDistribution] = {}

    @property
    def spec(self) -> BenchmarkModelSpec:
        return self._spec

    @property
    def floor_n(self) -> int:
        return self._spec.floor_n

    def next(self, window: FallWindow) -> StepDistribution:
        return self.law(window.fall_length, window.current)

    def law(self, ell: int, x: int) -> StepDistribution:
        """The step law from state x after ell consecutive down-steps (what next() returns)."""
        key = (ell, x)
        dist = self._cache.get(key)
        if dist is None:
            s = self._spec.up_jump_s
            if x == 0:
                dist = StepDistribution((), (), tail_start=0, tail_mass=1.0, tail_ratio=1.0 - s)
            else:
                kappa = self._spec.kappa.at(ell)
                dist = StepDistribution(
                    (x - 1,), (kappa,), tail_start=x, tail_mass=1.0 - kappa, tail_ratio=1.0 - s
                )
            self._cache[key] = dist
        return dist


def build_benchmark(spec: BenchmarkModelSpec) -> BenchmarkKernel:
    """Kernel realizing the benchmark family described by ``spec``."""
    return BenchmarkKernel(spec)


class DeterministicDownKernel(KernelContract):
    """Degenerate reference dynamics: always step down by one, stick at 0.

    Useful as a zero-variance oracle: from x = N + k the hitting time is
    exactly k.
    """

    def __init__(self, floor_n: int) -> None:
        if floor_n < 0:
            raise InvalidParameterError("floor_n must be non-negative")
        self._floor_n = floor_n

    @property
    def floor_n(self) -> int:
        return self._floor_n

    def next(self, window: FallWindow) -> StepDistribution:
        x = window.current
        if x == 0:
            return StepDistribution((0,), (1.0,))
        return StepDistribution((x - 1,), (1.0,))


@dataclass(frozen=True, slots=True)
class CertificateEntry:
    """Verdict for one assumption: how it holds, or a witness that it fails."""

    status: str  # holds_analytically | holds_numerically | fails | not_required
    required_for_theorem: bool
    detail: str
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status.startswith("holds")

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "required_for_theorem": self.required_for_theorem,
            "detail": self.detail,
            "data": dict(self.data),
        }


@dataclass(frozen=True, slots=True)
class AssumptionCertificate:
    """Per-assumption verdicts plus the numeric payloads they rest on."""

    entries: dict[str, CertificateEntry]
    q: float
    q_bar: float
    kappa_inf: float
    jump_moments: dict[int, float]

    @property
    def theorem_ready(self) -> bool:
        """True when every assumption the hitting-time bound needs holds."""
        return all(
            self.entries[name].holds for name in ("A1", "A3", "A4", "A5")
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "entries": {name: e.to_dict() for name, e in sorted(self.entries.items())},
            "q": self.q,
            "q_bar": self.q_bar,
            "kappa_inf": self.kappa_inf,
            "jump_moments": {str(m): v for m, v in sorted(self.jump_moments.items())},
            "theorem_ready": self.theorem_ready,
        }


def certify(spec: BenchmarkModelSpec, m_max: int, tol: float = 1e-6) -> AssumptionCertificate:
    """Check every structural assumption of the benchmark family.

    A1 and A3-A5 hold analytically by construction; the certificate also
    carries the derived constants q, q_bar and the up-jump moments.  The
    local-mixing condition A2 genuinely fails for this family (the stay
    probability (1 - kappa_ell) * s vanishes as the fall lengthens), so it
    is reported with a witness but flagged as not required, since the
    moment bound does not use it.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    from . import bound_calc

    kappa = spec.kappa
    q = kappa.q
    q_bar_sv = bound_calc.q_bar(kappa)
    q_bar_val = q_bar_sv.value + q_bar_sv.tail_bound
    kappa_inf = 1.0 - q_bar_val
    jump_moments = {m: bound_calc.jump_moment(spec.up_jump_s, m) for m in range(1, m_max + 1)}

    # smallest fall length at which the stay probability drops below tol
    ell = 0
    while (1.0 - kappa.at(ell)) * spec.up_jump_s >= tol:
        ell += 1

    entries = {
        "A1": CertificateEntry(
            "holds_analytically",
            True,
            "kernel output is a pure function of the fall window",
        ),
        "A2": CertificateEntry(
            "fails",
            False,
            "stay probability (1 - kappa_ell) * s has no uniform positive lower bound;"
            " not required by the moment bound",
            {"witness_fall_length": ell, "stay_prob_at_witness": (1.0 - kappa.at(ell)) * spec.up_jump_s},
        ),
        "A3": CertificateEntry(
            "holds_analytically",
            True,
            "kappa_i = 1 - a*r**i is non-decreasing with kappa_0 > 0",
            {"q": q},
        ),
        "A4": CertificateEntry(
            "holds_analytically",
            True,
            "geometric gaps: sum(i**m (1 - kappa_i)) < inf for all m and prod(kappa_i) > 0",
            {"q_bar": q_bar_val, "kappa_inf": kappa_inf},
        ),
        "A5": CertificateEntry(
            "holds_analytically",
            True,
            "geometric up-jumps have finite moments of every order",
            {"jump_moments": {str(m): v for m, v in jump_moments.items()}},
        ),
    }
    return AssumptionCertificate(
        entries=entries,
        q=q,
        q_bar=q_bar_val,
        kappa_inf=kappa_inf,
        jump_moments=jump_moments,
    )
