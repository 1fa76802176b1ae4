"""Shared test helpers built on the library's public engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import markovup
from markovup import chi_at, xi_at, zeta_at
from markovup.mc_engine import DEFAULT_MAX_STEPS, simulate_blocks
from markovup.path_analysis import UnterminatedRunError
from markovup.process_core import StopReason, Trajectory, states_between

from oracles import UNTERMINATED


def block_trajectories(block):
    """One checked Trajectory per path of a PathBlock, in block order."""
    states = block.states.tolist()
    return [
        Trajectory(
            states[start], tuple(states[start:end + 1]), block.floor_n,
            StopReason.STEP_CAP if capped else StopReason.HIT_FLOOR, None if capped else end - start,
        )
        for start, end, capped in zip(block.starts.tolist(), block.ends.tolist(), block.capped.tolist())
    ]


def check_state_ranges(block, states, fractions):
    """Check that states_between on the block's anchors gives ``states[lo:hi]``, and block.states all of them.

    The ranges: both empty ends, each whole path, each path's last fall from
    its middle on (past a certain fall, on a long one) and on into the next
    path, and one drawn range per pair of fractions of the block's size.
    """
    anchors, size, starts, ends = block.anchors(), states.size, block.starts, block.ends
    last, jumps = starts.copy(), block.jump_counts > 0  # where each path's last fall starts
    last[jumps] = block.jump_at[np.cumsum(block.jump_counts)[jumps] - 1]
    ranges = [(0, 0), (size, size), *zip(starts, ends + 1), *zip((last + ends + 1) // 2, np.minimum(ends + 3, size))]
    ranges += [tuple(sorted((int(a * size), int(b * size)))) for a, b in fractions]
    for lo, hi in ranges:
        got = states_between(anchors, int(lo), int(hi))
        assert got.dtype == np.int64 and got.tolist() == states[lo:hi].tolist(), (lo, hi)
    assert block.states.tolist() == states.tolist()


def distribution_items(d, coverage_eps=1e-12):
    """Yield a StepDistribution's (state, prob) pairs until at most ``coverage_eps`` mass remains."""
    for s, p in zip(d.states, d.probs):
        yield s, p
    if d.tail_start is None:
        return
    remaining = d.tail_mass
    k = 0
    while remaining > coverage_eps:
        p = d.tail_mass * (1.0 - d.tail_ratio) * d.tail_ratio**k
        yield d.tail_start + k, p
        remaining -= p
        k += 1


def simulated_trajectories(kernel, x0, n_traj, seed, max_steps=DEFAULT_MAX_STEPS, task_index=0):
    """The paths simulate_blocks yields, as Trajectory objects in path order."""
    blocks = simulate_blocks(kernel, x0, n_traj, seed, max_steps, task_index)
    return [traj for block in blocks for traj in block_trajectories(block)]


def production_stop_times(states, n):
    """zeta, xi and chi at time n from the library, in the oracles' form: an unterminated run is UNTERMINATED."""
    out = {"zeta": zeta_at(states, n)}
    try:
        out["xi"] = xi_at(states, n)
    except UnterminatedRunError:
        out["xi"] = UNTERMINATED
    try:
        out["chi"] = chi_at(states, n)
    except UnterminatedRunError:
        out["chi"] = UNTERMINATED
    return out


def cli_env():
    """The environment for a ``python -m markovup.cli`` child in any directory.

    The child is handed the absolute directory of the imported package on
    PYTHONPATH: it then runs the same code as this process, installed or not.
    """
    env = dict(os.environ)
    package_root = str(Path(markovup.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH", "")) if p)
    return env


# Starts one command and prints its exit code and ru_maxrss (KiB).  Linux
# counts in a child's ru_maxrss the RSS of the process that spawned it, up to
# the exec, so a test process larger than the command would hide its peak:
# the command is spawned by this small process instead.
_RSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "with open(sys.argv[1], 'wb') as err:\n"
    "    proc = subprocess.Popen([sys.executable, '-m', 'markovup.cli', *sys.argv[2:]],\n"
    "                            stdout=subprocess.DEVNULL, stderr=err)\n"
    "    _, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def cli_peak_rss_mb(args, cwd):
    """Run ``python -m markovup.cli ARGS`` in a child in cwd; the child's peak RSS in MiB.

    The peak is the child's own ``ru_maxrss``, from ``os.wait4`` in a small
    launcher process (see _RSS_LAUNCHER): ``RUSAGE_CHILDREN`` would give
    the largest peak of any child ever waited for, and a child of the test
    process would count that process's RSS.  A non-zero exit raises
    AssertionError with the child's stderr.
    """
    err_path = Path(cwd) / "stderr.txt"
    launcher = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, str(err_path), *args],
        cwd=cwd, env=cli_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    code, maxrss = map(int, launcher.stdout.split())
    assert code == 0, f"markovup {' '.join(args)} exited {code}:\n{err_path.read_text()}"
    return maxrss / 1024  # Linux reports KiB
