"""Markov-up processes: simulation, path analysis, and moment-bound checks.

A Markov-up process on the non-negative integers is Markov while it rises
but may remember the whole current falling run while it falls.  This
package simulates such processes, decomposes realized paths into descent
attempts, evaluates certified polynomial bounds on the moments of the
floor-hitting time, and verifies those bounds by Monte Carlo.
"""

from .bound_calc import (
    BoundSet,
    DualBound,
    SeriesValue,
    TheoremBound,
    fall_length_bound,
    jump_moment,
    make_bound_set,
    overshoot_bound,
    power_series,
    q_bar,
    theorem_bound,
)
from .mc_engine import (
    MomentEstimate,
    VerificationReport,
    VerificationVerdict,
    estimate_tau_moments,
    verify,
)
from .model_zoo import (
    AssumptionCertificate,
    BenchmarkKernel,
    BenchmarkModelSpec,
    DeterministicDownKernel,
    KappaSpec,
    build_benchmark,
    certify,
)
from .path_analysis import (
    Attempt,
    AttemptDecomposition,
    chi_at,
    decompose_attempts,
    tau_of,
    xi_at,
    zeta_at,
)
from .process_core import (
    FallWindow,
    KernelContract,
    StepDistribution,
    StopReason,
    Trajectory,
    initial_window,
    sample_step,
    simulate_path,
    window_update,
)
from .streams import path_stream

__version__ = "0.1.0"

__all__ = [
    "Attempt",
    "AttemptDecomposition",
    "AssumptionCertificate",
    "BenchmarkKernel",
    "BenchmarkModelSpec",
    "BoundSet",
    "DeterministicDownKernel",
    "DualBound",
    "FallWindow",
    "KappaSpec",
    "KernelContract",
    "MomentEstimate",
    "SeriesValue",
    "StepDistribution",
    "StopReason",
    "TheoremBound",
    "Trajectory",
    "VerificationReport",
    "VerificationVerdict",
    "build_benchmark",
    "certify",
    "chi_at",
    "decompose_attempts",
    "estimate_tau_moments",
    "fall_length_bound",
    "initial_window",
    "jump_moment",
    "make_bound_set",
    "overshoot_bound",
    "path_stream",
    "power_series",
    "q_bar",
    "sample_step",
    "simulate_path",
    "tau_of",
    "theorem_bound",
    "verify",
    "window_update",
    "xi_at",
    "zeta_at",
]
