"""Counter-based random streams for reproducible parallel simulation.

Each path owns a Philox generator keyed by (seed, task, path index), so
results never depend on the order in which paths are run.  Philox is a
counter-based generator: distinct keys give statistically independent
streams and identical output on every platform.

Because the output is a pure function of key and counter, the streams of
many paths can also be advanced together: :func:`lane_keys` and
:func:`philox_block` compute, with numpy array arithmetic, the same
Philox4x64-10 words that each path's own generator would produce, so a
lockstep simulation reads every path's next uniform in one call.
"""

from __future__ import annotations

import numpy as np

# Task index is packed into the high bits of the second key word, leaving
# room for 2**40 paths per task and 2**24 tasks per seed.
_PATH_BITS = 40
MAX_PATHS = 1 << _PATH_BITS
_MAX_TASKS = 1 << (64 - _PATH_BITS)

# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_TWO_M53 = 2.0**-53
# (M1, M0) as a column, the multipliers of counter words 2 and 0
_MUL = np.array([[_M1], [_M0]], dtype=np.uint64)
_MUL_HI = _MUL >> _SHIFT32
_MUL_LO = _MUL & _MASK32
# (W0, W1) as a column, the increments of key words 0 and 1
_BUMP = np.array([[_W0], [_W1]], dtype=np.uint64)


def _check_key(seed: int, path_index: int, task_index: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= path_index < MAX_PATHS:
        raise ValueError(f"path_index must be in [0, 2**{_PATH_BITS}), got {path_index}")
    if not 0 <= task_index < _MAX_TASKS:
        raise ValueError(f"task_index must be in [0, 2**{64 - _PATH_BITS}), got {task_index}")


def path_stream(seed: int, path_index: int, task_index: int = 0) -> np.random.Generator:
    """Return the uniform-[0,1) source owned by one simulated path."""
    _check_key(seed, path_index, task_index)
    key = np.array([seed, (task_index << _PATH_BITS) | path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def lane_keys(seed: int, path_ids: np.ndarray, task_index: int = 0) -> np.ndarray:
    """Second Philox key word of each path in ``path_ids``, range-checked as by path_stream.

    The first key word is ``seed`` itself, shared by every path.
    """
    path_ids = np.asarray(path_ids, dtype=np.int64)
    for pid in (int(path_ids.min()), int(path_ids.max())):
        _check_key(seed, pid, task_index)
    return path_ids.astype(np.uint64) | np.uint64(task_index << _PATH_BITS)


def philox_block(seed: int, keys: np.ndarray, block) -> np.ndarray:
    """Philox4x64-10 output for counter ``block`` under keys (seed, keys[i]): shape (4, n).

    ``block`` is one counter for every key, or an array of one per key.
    ``path_stream(seed, pid, task)`` returns the words of counter blocks
    1, 2, 3, ... in order, four per block, so its j-th raw draw (from 0)
    is ``philox_block(seed, lane_keys(seed, [pid], task), j // 4 + 1)[j % 4, 0]``.
    The high 64 bits of each 64x64-bit product are assembled from 32-bit
    halves, and the rounds run in buffers allocated once per call.
    """
    n = keys.shape[0]
    ctr = np.zeros((4, n), dtype=np.uint64)
    ctr[0] = block
    nxt = np.empty_like(ctr)
    # key words k0 (the seed) and k1, XORed into output words 0 and 2
    key = np.empty((2, n), dtype=np.uint64)
    key[0] = seed
    key[1] = keys
    # 32-bit halves of words 2 and 0, and two partial sums of their products
    c_lo, c_hi, t, w = (np.empty((2, n), dtype=np.uint64) for _ in range(4))
    for r in range(_ROUNDS):
        if r:
            key += _BUMP
        # words 2 and 0 times (M1, M0): the high 64 bits of each product
        # gathered in c_hi as Hacker's Delight's mulhu does, no sum overflowing
        c = ctr[2::-2]
        np.bitwise_and(c, _MASK32, out=c_lo)
        np.right_shift(c, _SHIFT32, out=c_hi)
        np.multiply(c_lo, _MUL_LO, out=t)
        t >>= _SHIFT32
        np.multiply(c_hi, _MUL_LO, out=w)
        t += w
        np.bitwise_and(t, _MASK32, out=w)
        c_lo *= _MUL_HI
        w += c_lo
        c_hi *= _MUL_HI
        t >>= _SHIFT32
        c_hi += t
        w >>= _SHIFT32
        c_hi += w
        out = nxt[0::2]
        np.bitwise_xor(c_hi, ctr[1::2], out=out)
        out ^= key
        np.multiply(_MUL, c, out=nxt[1::2])
        ctr, nxt = nxt, ctr
    return ctr


def block_uniforms(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random`` maps them: (w >> 11) * 2**-53.

    Written into ``out``, a float64 array of the words' shape, if given.
    Both steps are exact: w >> 11 is below 2**53.
    """
    return np.multiply(words >> _SHIFT11, _TWO_M53, out=out)
