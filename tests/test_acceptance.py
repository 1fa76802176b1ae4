"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture) so a full run
shows the acceptance scorecard.  The heavy Monte Carlo grid is executed
once per worker count through the command line interface and shared by
the criteria that consume it.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from markovup import (
    DeterministicDownKernel,
    decompose_attempts,
    estimate_tau_moments,
    path_stream,
    power_series,
    simulate_path,
    tau_of,
)
from markovup.process_core import StopReason

from helpers import cli_env, production_stop_times
from oracles import (
    chi_oracle,
    tau_oracle,
    xi_oracle,
    zeta_oracle,
)

ACCEPTANCE_SEED = 7
GRID_TIME_BUDGET = 120.0  # seconds, single-worker full grid

# sha256 of the files the default `verify` writes with one worker, the
# north-star command's bytes
NORTH_STAR_GOLDEN = {
    "report.json": "3cbc208a89efea3716385b07f46a129a6c9b5f3747182a40620ed29e31dd25c1",
    "paths.csv": "b6ff9cb6e3412f133b28aea8f87b998e39e29612380ac642f0996c7e8c52749a",
    "verdicts.csv": "a1c5cf70d611881049d82943d9932a1fcb9763ef67a04f3453b616d3c199f23e",
}

# frozen by brute-force product of (1 - 0.5**j), j >= 1, to below 1e-14
Q_BAR = 0.711211904913398


@pytest.fixture()
def announce(capsys):
    """Print one scorecard line per criterion, visible despite capture."""

    def _announce(criterion, ok, detail=""):
        line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Full verification grid via the CLI, once per worker count.

    Uses the built-in default configuration: benchmark model a=r=s=0.5,
    floor 5, x in {6, 10, 20}, m in {1, 2, 3}, 10**5 paths, seed 7.

    Each run works in its own temporary directory, with the environment
    of :func:`helpers.cli_env`, and keeps its report bytes and the sha256
    of each file it writes.
    """
    env = cli_env()
    runs = {}
    for threads in (1, 4, 8):
        workdir = tmp_path_factory.mktemp(f"grid_t{threads}")
        cmd = [sys.executable, "-m", "markovup.cli", "--threads", str(threads), "verify"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, (
            f"command {cmd} exited {proc.returncode}\n"
            f"cwd: {workdir}\n"
            f"PYTHONPATH: {env['PYTHONPATH']}\n"
            f"stderr:\n{proc.stderr}"
        )
        runs[threads] = {
            "report_bytes": (workdir / "report.json").read_bytes(),
            "sha256": {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                       for name in NORTH_STAR_GOLDEN},
            "elapsed": elapsed,
        }
    runs["report"] = json.loads(runs[1]["report_bytes"])
    return runs


def test_criterion_1_series_oracle(announce):
    closed = {
        0: lambda q: q / (1 - q),
        1: lambda q: q / (1 - q) ** 2,
        2: lambda q: q * (1 + q) / (1 - q) ** 3,
    }
    start = time.perf_counter()
    worst = 0.0
    for m in (0, 1, 2):
        for q10 in range(1, 10):
            q = q10 / 10.0
            value = power_series(m, q, eps=1e-12).value
            worst = max(worst, abs(value - closed[m](q)) / closed[m](q))
    elapsed = time.perf_counter() - start
    announce(
        "1 series-oracle",
        worst < 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_stopping_time_oracle(benchmark_kernel, announce):
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    paths = 10_000
    agreements = 0
    for pid in range(paths):
        x0 = int(rng.integers(6, 13))
        traj = simulate_path(benchmark_kernel, x0, 50, path_stream(17, pid))
        states = traj.states
        assert tau_of(states, 5) == tau_oracle(states, 5)
        for n in range(len(states)):
            got = production_stop_times(states, n)
            want = {
                "zeta": zeta_oracle(states, n),
                "xi": xi_oracle(states, n),
                "chi": chi_oracle(states, n),
            }
            assert got == want, (states, n, got, want)
        agreements += 1
    elapsed = time.perf_counter() - start
    announce(
        "2 stopping-time-oracle",
        agreements == paths and elapsed < 5.0,
        f"{agreements}/{paths} paths, {elapsed:.2f}s",
    )


def test_criterion_3_decomposition_tiling(benchmark_kernel, announce):
    paths = 10_000
    checked = 0
    for pid in range(paths):
        traj = simulate_path(benchmark_kernel, 10, 10**6, path_stream(23, pid))
        assert traj.stop_reason is StopReason.HIT_FLOOR
        d = decompose_attempts(traj)
        states = traj.states
        # exact tiling of [0, tau]: segments chain with no gaps or overlaps
        assert d.times[0] == 0 and d.times[-1] == traj.tau
        assert all(b >= a for a, b in zip(d.times, d.times[1:]))
        for j, t_prev, T in d.fall_segments:
            assert all(states[i + 1] < states[i] for i in range(t_prev, T))
        for j, T, t in d.rise_segments:
            assert all(states[i + 1] >= states[i] for i in range(T, t))
        # exactly one successful attempt, and it ends at tau
        assert [a.success for a in d.attempts].count(True) == 1
        assert d.attempts[-1].success and d.attempts[-1].end == traj.tau
        # a fall cannot outlast its start height
        assert all(a.length <= states[a.start] for a in d.attempts)
        checked += 1
    announce("3 decomposition-tiling", checked == paths, f"{checked}/{paths} paths")


def test_criterion_4_theorem_bound_grid(grid_runs, announce):
    report = grid_runs["report"]
    cells = [v for v in report["verdicts"] if v["quantity"] == "tau_m"]
    ok_cells = (
        len(cells) == 9
        and all(v["method"] == "ci99-upper<=bound" for v in cells)
        and all(v["test_value"] <= v["bound"] for v in cells)
        and all(v["passed"] for v in cells)
    )
    zero_capped = report["timing"]["capped_paths"] == 0
    elapsed = grid_runs[1]["elapsed"]
    announce(
        "4 theorem-bound-grid",
        ok_cells and zero_capped and elapsed < GRID_TIME_BUDGET,
        f"9 cells, capped={report['timing']['capped_paths']}, {elapsed:.0f}s",
    )


def test_criterion_5_segment_ceilings(grid_runs, announce):
    report = grid_runs["report"]
    cells = [
        v for v in report["verdicts"]
        if v["quantity"] in ("rise_length_m", "fall_length_m", "overshoot_m")
    ]
    announce(
        "5 segment-ceilings",
        len(cells) == 27 and all(v["passed"] for v in cells),
        f"{sum(v['passed'] for v in cells)}/{len(cells)} cells",
    )


def test_criterion_6_attempt_tail(grid_runs, announce):
    report = grid_runs["report"]
    q_bar = report["bound_sets"]["1"]["q_bar"]
    cells = [v for v in report["verdicts"] if v["quantity"] == "attempt_survival"]
    bounds_ok = all(
        abs(v["bound"] - q_bar ** (v["order"] - 1)) < 1e-12 for v in cells
    )
    announce(
        "6 attempt-tail",
        len(cells) == 15
        and bounds_ok
        and abs(q_bar - Q_BAR) < 1e-9
        and all(v["passed"] for v in cells),
        f"{sum(v['passed'] for v in cells)}/{len(cells)} cells, q_bar={q_bar:.6f}",
    )


def test_criterion_7_determinism(grid_runs, announce):
    b1 = grid_runs[1]["report_bytes"]
    b4 = grid_runs[4]["report_bytes"]
    b8 = grid_runs[8]["report_bytes"]
    announce(
        "7 determinism",
        b1 == b4 == b8,
        f"{len(b1)} bytes identical across workers 1/4/8",
    )


def test_north_star_bytes_are_pinned(grid_runs):
    assert grid_runs[1]["sha256"] == NORTH_STAR_GOLDEN


def test_criterion_8_degenerate_dynamics(announce):
    kernel = DeterministicDownKernel(floor_n=5)
    ok = True
    details = []
    for k in (1, 5, 10):
        estimates = estimate_tau_moments(kernel, 5 + k, [1, 2], 1000, seed=0)
        for est in estimates:
            ok = ok and est.mean == float(k) ** est.m and est.std_error == 0.0
        details.append(f"k={k}: tau=={k}")
    announce("8 degenerate-dynamics", ok, ", ".join(details))
