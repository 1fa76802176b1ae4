"""Literal-definition oracles used to cross-check the production code.

Each function translates its defining expression as directly as possible
(explicit search over candidates, no incremental shortcuts), so agreement
with the library is a meaningful check rather than a tautology.
"""

import re

from markovup.process_core import StopReason, Trajectory

UNTERMINATED = "unterminated"
INT64_MAX = 2**63 - 1


def zeta_oracle(states, n):
    """Smallest k <= n with every step on [k, n-1] strictly down."""
    for k in range(0, n + 1):
        if all(states[i + 1] - states[i] < 0 for i in range(k, n)):
            return k
    raise AssertionError("k = n always satisfies the vacuous condition")


def xi_oracle(states, n):
    """Largest k >= n with every step on [n, k-1] non-decreasing, or n.

    Returns UNTERMINATED when the sequence ends before the run breaks,
    i.e. no strict down-step exists at or after n.
    """
    if not any(states[i + 1] - states[i] < 0 for i in range(n, len(states) - 1)):
        return UNTERMINATED
    candidates = [
        k for k in range(n, len(states))
        if all(states[i + 1] - states[i] >= 0 for i in range(n, k))
    ]
    return max(candidates + [n])


def chi_oracle(states, n):
    """Largest k >= n with every step on [n, k-1] strictly down, or n."""
    if not any(states[i + 1] - states[i] >= 0 for i in range(n, len(states) - 1)):
        return UNTERMINATED
    candidates = [
        k for k in range(n, len(states))
        if all(states[i + 1] - states[i] < 0 for i in range(n, k))
    ]
    return max(candidates + [n])


def tau_oracle(states, floor_n):
    """First index with state at or below the floor, scanning from 0."""
    for t in range(len(states)):
        if states[t] <= floor_n:
            return t
    return None


def window_oracle(states, n):
    """(start, suffix) of the strict down-run ending at n, by direct scan."""
    k = zeta_oracle(states, n)
    return k, tuple(states[k:n + 1])


def brute_series(m, q, terms):
    """Naive partial sum of sum_{k>=1} k**m * q**k."""
    return sum(k**m * q**k for k in range(1, terms + 1))


def record_oracle(states, floor_n):
    """Per-path record fields of a path, read off the run-end definitions.

    From each rise start n the rise ends at xi(n) (an empty rise when the
    path falls at once), and the fall that follows ends at chi; a fall still
    open at the end of the path is the one that reached the floor.  Every
    real rise gives a length and an overshoot; every fall gives a length,
    except the successful one, which counts as 0.
    """
    tau = tau_oracle(states, floor_n)
    rises, overshoots, falls = [], [], []
    if tau is not None:
        path = list(states[:tau + 1])
        n = 0
        while n < tau:
            t = xi_oracle(path, n)
            if t > n:
                rises.append(t - n)
                overshoots.append(path[t] - path[n])
            end = chi_oracle(path, t)
            if end == UNTERMINATED:
                falls.append(0)
                n = tau
            else:
                falls.append(end - t)
                n = end
    return {
        "tau": tau,
        "capped": tau is None,
        "attempts": len(falls),
        "max_state": max(states),
        "steps": len(states) - 1,
        "rise_lengths": tuple(rises),
        "fall_lengths": tuple(falls),
        "overshoots": tuple(overshoots),
    }


DUMP_HEADER = "x0,path_id,tau,floor_n,states"
# a dump row in plain form: five cells of digits, tau empty in a capped row,
# states one or more integers between single spaces
PLAIN_ROW = re.compile(r"([0-9]+),([0-9]+),([0-9]*),([0-9]+),([0-9]+(?: [0-9]+)*)")


def dump_oracle(data):
    """A trajectory dump's bytes read a line at a time, a Trajectory per row.

    A line ends at LF, and a CR before it is part of the line end; the last
    line may have none.  Returns ("ok", columns), the lists x0, path_id,
    floor_n, steps, capped and states, or ("error", line, reason) for the
    first line that is not the header, not a row PLAIN_ROW matches (reason
    None), a row with an integer past int64, or not a path Trajectory
    accepts (its message); a dump without rows fails at line 2.
    """
    lines = data.decode("latin-1").split("\n")
    if lines[-1] == "":
        lines.pop()
    lines = [line.removesuffix("\r") for line in lines]
    if not lines or lines[0] != DUMP_HEADER:
        return "error", 1, None
    if len(lines) == 1:
        return "error", 2, None
    columns = {name: [] for name in ("x0", "path_id", "floor_n", "steps", "capped", "states")}
    for number, line in enumerate(lines[1:], start=2):
        match = PLAIN_ROW.fullmatch(line)
        if match is None:
            return "error", number, None
        if any(int(token) > INT64_MAX for token in re.findall(r"[0-9]+", line)):
            return "error", number, "an integer past int64"
        x0, path_id, tau, floor_n, states = match.groups()
        states = tuple(int(s) for s in states.split(" "))
        tau = int(tau) if tau else None
        try:
            Trajectory(
                x0=int(x0), states=states, floor_n=int(floor_n), tau=tau,
                stop_reason=StopReason.STEP_CAP if tau is None else StopReason.HIT_FLOOR,
            )
        except ValueError as exc:
            return "error", number, str(exc)
        columns["x0"].append(int(x0))
        columns["path_id"].append(int(path_id))
        columns["floor_n"].append(int(floor_n))
        columns["steps"].append(len(states) - 1)
        columns["capped"].append(tau is None)
        columns["states"].extend(states)
    return "ok", columns
