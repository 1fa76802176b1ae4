"""Counter-based random streams for reproducible parallel simulation.

Each path owns a Philox generator keyed by (seed, task, path index), so
results never depend on the order in which paths are run.  Philox is a
counter-based generator: distinct keys give statistically independent
streams and identical output on every platform.

Because the output is a pure function of key and counter, the streams of
many paths can also be advanced together: :func:`lane_keys` and
:func:`philox_words` compute, with numpy array arithmetic, the same
Philox4x64-10 words that each path's own generator would produce, so a
lockstep simulation reads every path's next uniforms in one call.  The
paths of a call share their counter blocks, whose words 1 to 3 are
zero, so its first two rounds take one exact Python product per
block and one for the seed, not one per path.
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


def _mulhi(c: np.ndarray, mul_hi, mul_lo, c_lo: np.ndarray, c_hi: np.ndarray, t: np.ndarray, w: np.ndarray) -> None:
    """High 64 bits of each ``c * mul`` into c_hi, summed from 32-bit halves as Hacker's Delight's mulhu does."""
    np.bitwise_and(c, _MASK32, out=c_lo)
    np.right_shift(c, _SHIFT32, out=c_hi)
    np.multiply(c_lo, mul_lo, out=t)
    t >>= _SHIFT32
    np.multiply(c_hi, mul_lo, out=w)
    t += w
    np.bitwise_and(t, _MASK32, out=w)
    c_lo *= mul_hi
    w += c_lo
    c_hi *= mul_hi
    t >>= _SHIFT32
    c_hi += t
    w >>= _SHIFT32
    c_hi += w


def philox_words(seed: int, keys: np.ndarray, first: int, depth: int) -> np.ndarray:
    """Philox4x64-10 words of counter blocks ``first .. first + depth - 1`` under keys (seed, keys[i]): shape (4, depth, n).

    ``[w, d, i]`` is word w of block ``first + d`` under key i, keys being
    uint64 as :func:`lane_keys` makes them.  Block b is the counter ``(b, 0,
    0, 0)``, ``0 <= b < 2**64``.  ``path_stream(seed, pid, task)`` draws
    blocks 1, 2, 3, ... four words each, so its j-th raw draw (from 0) is
    ``philox_words(seed, lane_keys(seed, [pid], task), j // 4 + 1, 1)[j % 4, 0, 0]``.

    A round maps counter ``(c0, c1, c2, c3)`` under key ``(k0, k1)`` to
    ``(hi(M1*c2) ^ c1 ^ k0, lo(M1*c2), hi(M0*c0) ^ c3 ^ k1, lo(M0*c0))``,
    hi and lo the high and low words of the 128-bit product, then bumps the
    key by (W0, W1) mod 2**64.  Every key shares the counters, and c1 = c2 =
    c3 = 0, so rounds 1 and 2 are exact in closed form.  Round 1 gives
    ``(seed, 0, hi(M0*b) ^ k1, lo(M0*b))``, as ``M1*0 = 0``: ``M0*b`` is one
    exact Python-int product a block, so word 2 is one XOR per key and word
    3 a row shared by every key.  Round 2 multiplies word 0, the seed, once
    (``M0*seed``) and only word 2 per key.  In rounds 3 to 10 the seed's
    key word is a scalar, and the other is bumped on the n keys and
    broadcast over the blocks.
    """
    if first < 0 or first + depth > 2**64:
        raise ValueError(f"counter blocks must lie in [0, 2**64), got {first} .. {first + depth - 1}")
    n = keys.shape[0]
    # words of block first + d under key i at column d * n + i
    ctr = np.empty((4, depth * n), dtype=np.uint64)
    nxt = np.empty_like(ctr)
    c_lo, c_hi, t, w = (np.empty((2, depth * n), dtype=np.uint64) for _ in range(4))
    # round 1 on (b, 0, 0, 0): only word 2, hi(M0*b) ^ k1, is held, the others are the
    # seed, 0 and lo(M0*b)
    products = [b * _M0 for b in range(first, first + depth)]
    high = np.array([p >> 64 for p in products], dtype=np.uint64)
    np.bitwise_xor(high[:, None], keys, out=ctr[2].reshape(depth, n))
    # round 2 under (seed + W0, k1 + W1): word 2 times M1 per key, the seed times M0 once
    key0, key1, seed_product = (seed + _W0) % 2**64, keys + np.uint64(_W1), seed * _M0
    _mulhi(ctr[2:3], _MUL_HI[:1], _MUL_LO[:1], c_lo[:1], c_hi[:1], t[:1], w[:1])
    np.bitwise_xor(c_hi[0], np.uint64(key0), out=nxt[0])
    np.multiply(ctr[2], np.uint64(_M1), out=nxt[1])
    low = np.array([(p % 2**64) ^ (seed_product >> 64) for p in products], dtype=np.uint64)
    np.bitwise_xor(low[:, None], key1, out=nxt[2].reshape(depth, n))
    nxt[3] = seed_product % 2**64
    # rounds 3 to 10
    for _ in range(2, _ROUNDS):
        ctr, nxt = nxt, ctr
        key0 = (key0 + _W0) % 2**64
        key1 += np.uint64(_W1)
        # words 2 and 0 times (M1, M0)
        c, out = ctr[2::-2], nxt[0::2]
        _mulhi(c, _MUL_HI, _MUL_LO, c_lo, c_hi, t, w)
        np.bitwise_xor(c_hi, ctr[1::2], out=out)
        out[0] ^= np.uint64(key0)
        word2 = out[1].reshape(depth, n)
        word2 ^= key1
        np.multiply(_MUL, c, out=nxt[1::2])
    return nxt.reshape(4, depth, n)


def block_uniforms(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random`` maps them: (w >> 11) * 2**-53.

    Written into ``out``, a float64 array of the words' shape, if given.
    Both steps are exact: w >> 11 is below 2**53.
    """
    return np.multiply(words >> _SHIFT11, _TWO_M53, out=out)
