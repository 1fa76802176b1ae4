"""Literal-definition oracles used to cross-check the production code.

Each function translates its defining expression as directly as possible
(explicit search over candidates, no incremental shortcuts), so agreement
with the library is a meaningful check rather than a tautology.
"""

UNTERMINATED = "unterminated"


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
