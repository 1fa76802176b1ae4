"""Certified evaluation of the series and constants behind the moment bounds.

Every series is returned as a partial sum plus a proven bound on the
discarded tail, so the true value is bracketed by [value, value + tail].
Tails are certified with elementary ratio majorants only: past the
truncation point the terms of sum(k**m * q**k) shrink at least as fast as
a geometric series with ratio q * ((K+1)/K)**m, which is summable in
closed form.  No special functions are involved, so every number here is
auditable by brute-force summation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .model_zoo import InvalidParameterError, KappaSpec

__all__ = [
    "BoundRangeError",
    "BoundSet",
    "DualBound",
    "InvalidQError",
    "SeriesLengthError",
    "SeriesValue",
    "StartRangeError",
    "TheoremBound",
    "fall_length_bound",
    "jump_moment",
    "make_bound_set",
    "overshoot_bound",
    "power_series",
    "q_bar",
    "theorem_bound",
]

DEFAULT_EPS = 1e-10
MAX_TERMS = 10**6  # terms power_series sums, or factors q_bar takes, at most: under 1 s


class InvalidQError(ValueError):
    """Series ratio outside (0, 1)."""


class SeriesLengthError(ValueError):
    """A series whose ratio lies so near 1 that its certified sum takes more than MAX_TERMS terms."""


class BoundRangeError(ValueError):
    """A certified constant too large to represent as a float (the moment order is too high)."""


class StartRangeError(BoundRangeError):
    """The theorem bound at a start state leaves float range, though its constants do not."""


@dataclass(frozen=True, slots=True)
class SeriesValue:
    """Partial sum with a certified upper bound on the discarded tail."""

    value: float
    truncation_k: int
    tail_bound: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and math.isfinite(self.tail_bound)):
            raise BoundRangeError(
                f"series value {self.value} + tail {self.tail_bound} leaves float range"
            )
        if self.tail_bound < 0.0:
            raise ValueError("series tail bound must be non-negative")

    @property
    def upper(self) -> float:
        """Certified upper bracket of the true sum."""
        return self.value + self.tail_bound

    def scaled(self, factor: float) -> "SeriesValue":
        """The series multiplied termwise by a non-negative constant."""
        if factor < 0.0:
            raise ValueError("factor must be non-negative")
        return SeriesValue(self.value * factor, self.truncation_k, self.tail_bound * factor)


def power_series(m: int, q: float, eps: float = DEFAULT_EPS) -> SeriesValue:
    """Certified evaluation of sum_{k>=1} k**m * q**k.

    Terms are accumulated until the ratio majorant
    rho_K = q * ((K+1)/K)**m drops below 1 and the geometric tail estimate
    term_K * rho_K / (1 - rho_K) falls under eps.  That takes about
    ``log(1/eps) / (1 - q)`` terms or more, so a q near 1 raises
    SeriesLengthError after MAX_TERMS of them.
    """
    if not 0.0 < q < 1.0:
        raise InvalidQError(f"q must lie in (0, 1), got {q}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    total = 0.0
    k = 0
    try:
        while k < MAX_TERMS:
            k += 1
            term = k**m * q**k
            total += term
            rho = q * ((k + 1) / k) ** m
            if rho < 1.0:
                tail = term * rho / (1.0 - rho)
                if tail < eps:
                    return SeriesValue(total, k, tail)
    except OverflowError as exc:
        raise BoundRangeError(f"sum of k**{m} * {q}**k leaves float range") from exc
    raise SeriesLengthError(f"the sum of k**{m} * {q}**k takes more than {MAX_TERMS} terms to certify")


def fall_length_bound(m: int, kappa: KappaSpec, eps: float = DEFAULT_EPS) -> SeriesValue:
    """Certified evaluation of sum_{i>=1} i**m * (1 - kappa_i).

    Bounds the m-th moment of a fall length on falls that stop above the
    floor.  For the geometric-gap family the summand is a * i**m * r**i,
    so this is the power series at ratio r scaled by a.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return power_series(m, kappa.r, eps / kappa.a).scaled(kappa.a)


def jump_moment(s: float, m: int, eps: float = DEFAULT_EPS) -> float:
    """m-th moment of a geometric up-jump on {0, 1, 2, ...} with parameter s.

    Raises InvalidParameterError, naming s, where its series at 1 - s is
    too long to certify (s below about 7.3e-5 at m = 3).
    """
    if not 0.0 < s < 1.0:
        raise InvalidQError(f"s must lie in (0, 1), got {s}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 1.0
    try:
        series = power_series(m, 1.0 - s, eps)
    except SeriesLengthError as exc:
        raise InvalidParameterError("s", f"is too small for certified jump moments: {exc}") from exc
    return s * series.upper


@dataclass(frozen=True, slots=True)
class DualBound:
    """Two assemblies of the overshoot constant; the larger one is binding.

    ``per_step_form``  M * sum_{i>=1} i**m * q**(i-1)
    ``compact_form``   M * q * sum_{i>=1} i**m * q**i
    where M is the single-jump moment.  The two differ by index
    bookkeeping; keeping the max stays sound under either reading and
    both are reported.
    """

    per_step_form: SeriesValue
    compact_form: SeriesValue

    @property
    def chosen(self) -> SeriesValue:
        if self.per_step_form.upper >= self.compact_form.upper:
            return self.per_step_form
        return self.compact_form

    @property
    def upper(self) -> float:
        return self.chosen.upper

    @property
    def value(self) -> float:
        return self.chosen.value

    def to_dict(self) -> dict:
        """Every field, plus ``chosen``, the binding form's value."""
        return {**asdict(self), "chosen": self.value}


def overshoot_bound(m: int, q: float, m_jump: float, eps: float = DEFAULT_EPS) -> DualBound:
    """Certified bound on the m-th moment of a rise overshoot.

    ``m_jump`` is the m-th moment of the positive part of a single jump.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m_jump < 0.0:
        raise ValueError("m_jump must be non-negative")
    base = power_series(m, q, eps)
    if m_jump == 0.0:
        zero = SeriesValue(0.0, base.truncation_k, 0.0)
        return DualBound(zero, zero)
    per_step = base.scaled(m_jump / q)
    compact = base.scaled(m_jump * q)
    return DualBound(per_step_form=per_step, compact_form=compact)


def q_bar(kappa: KappaSpec, eps: float = DEFAULT_EPS) -> SeriesValue:
    """Certified evaluation of 1 - prod_{i>=0} kappa_i.

    This is the failure-probability bound for a single descent attempt.
    The product is truncated at K and the dropped log-tail is dominated by
    sum_{i>K} (1 - kappa_i) / kappa_K <= a * r**(K+1) / ((1 - r) * kappa_K),
    which converts back to a multiplicative bracket on the product.  A small
    a with r near 1 needs about ``log(1/eps) / (1 - r)`` factors, so this
    raises SeriesLengthError after MAX_TERMS of them, as power_series does.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a, r = kappa.a, kappa.r
    prod = 1.0
    for k in range(MAX_TERMS):
        kappa_k = kappa.at(k)
        prod *= kappa_k
        log_tail = a * r ** (k + 1) / ((1.0 - r) * kappa_k)
        # prod_inf lies in [prod * exp(-log_tail), prod]
        tail = prod * (1.0 - math.exp(-log_tail))
        if tail < eps:
            return SeriesValue(1.0 - prod, k, tail)
    raise SeriesLengthError(f"1 - prod(1 - {a} * {r}**i) takes more than {MAX_TERMS} factors to certify")


@dataclass(frozen=True, slots=True)
class BoundSet:
    """All certified constants needed by the hitting-time bound at order m."""

    m: int
    q: float
    q_bar: float
    q_bar_series: SeriesValue
    rise_bound: SeriesValue       # sum k**m q**k
    fall_bound: SeriesValue       # sum i**m (1 - kappa_i)
    overshoot: DualBound
    jump_m: float                 # m-th moment of one up-jump
    attempt_series: SeriesValue   # sum_{i>=1} i**m q_bar**(i-1)

    @property
    def c1(self) -> float:
        return 2.0 ** (2 * self.m - 2)

    @property
    def c2(self) -> float:
        return (
            self.rise_bound.upper + self.fall_bound.upper + self.overshoot.upper * self.q_bar
        ) * self.attempt_series.upper

    def to_dict(self) -> dict:
        """Every field, ``overshoot`` with its ``chosen``, plus ``c1`` and ``c2``."""
        return {**asdict(self), "overshoot": self.overshoot.to_dict(),
                "c1": self.c1, "c2": self.c2}


def make_bound_set(
    m: int, kappa: KappaSpec, up_jump_s: float, eps: float = DEFAULT_EPS
) -> BoundSet:
    """Assemble every constant for moment order m from the model parameters.

    Raises BoundRangeError when a constant, or the theorem bound it gives
    even at x = 0, leaves float range, and SeriesLengthError when a series
    is too long to certify or q_bar's upper bracket is not below 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = kappa.q
    qb_series = q_bar(kappa, eps)
    qb = qb_series.upper
    if qb >= 1.0:  # 1 - prod kappa_i within rounding of 1: no attempt series to certify
        raise SeriesLengthError(f"q_bar = {qb_series.value!r} + {qb_series.tail_bound!r} is not certified below 1")
    rise = power_series(m, q, eps)
    fall = fall_length_bound(m, kappa, eps)
    jm = jump_moment(up_jump_s, m, eps)
    over = overshoot_bound(m, q, jm, eps)
    attempt = power_series(m, qb, eps).scaled(1.0 / qb)
    bounds = BoundSet(
        m=m,
        q=q,
        q_bar=qb,
        q_bar_series=qb_series,
        rise_bound=rise,
        fall_bound=fall,
        overshoot=over,
        jump_m=jm,
        attempt_series=attempt,
    )
    theorem_bound(m, 0, bounds)
    return bounds


@dataclass(frozen=True, slots=True)
class TheoremBound:
    """Hitting-time moment bound at one start state, both assemblies reported.

    ``display``  2**(2m-2) * (x**m + (R + F + V*q_bar) * S)
    ``termwise`` the same sum re-derived term by term, which carries the
                 overshoot constant V without the extra q_bar factor and
                 is therefore larger.
    ``value``    the max of the two, the certified bound.
    """

    display: float
    termwise: float
    c1: float
    c2: float

    @property
    def value(self) -> float:
        return max(self.display, self.termwise)

    def to_dict(self) -> dict:
        """Every field, plus ``value``."""
        return {**asdict(self), "value": self.value}


def theorem_bound(m: int, x: int, bounds: BoundSet) -> TheoremBound:
    """Evaluate the polynomial moment bound E_x tau**m <= C1 * (C2 + x**m).

    Raises BoundRangeError when the bound leaves float range; at x > 0, where
    a bound set from :func:`make_bound_set` is finite at x = 0, that is the
    start state's doing and the error is a StartRangeError.
    """
    if m != bounds.m:
        raise ValueError(f"bound set was built for m={bounds.m}, got m={m}")
    if x < 0:
        raise ValueError("x must be non-negative")
    try:
        x_m = float(x**m)
    except OverflowError:
        x_m = math.inf
    c1 = bounds.c1
    core = bounds.rise_bound.upper + bounds.fall_bound.upper
    display = c1 * (x_m + bounds.c2)
    # Term-by-term assembly: the fall-bound sum re-indexes to the same S
    # and the overshoot sum carries q_bar**(i-1) directly, so no q_bar
    # factor on the overshoot constant.
    termwise = c1 * (x_m + (core + bounds.overshoot.upper) * bounds.attempt_series.upper)
    if not math.isfinite(termwise):
        error = StartRangeError if x else BoundRangeError
        raise error(f"theorem bound for m={m} at x={x} leaves float range")
    return TheoremBound(display=display, termwise=termwise, c1=c1, c2=bounds.c2)
