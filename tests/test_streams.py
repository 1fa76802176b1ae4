import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovup.streams import block_uniforms, lane_keys, path_stream, philox_words

SEEDS = (0, 7, 2**64 - 1)  # the largest seed makes the first key word wrap when bumped
PATHS = np.array([0, 1, 2**20 + 3, 2**40 - 1])
TASKS = (0, 2, 2**24 - 1)


def _lockstep_words(seed, pids, task, k):
    """The first k raw words of each path, one row per path."""
    keys = lane_keys(seed, pids, task)
    depth = (k + 3) // 4
    words = philox_words(seed, keys, 1, depth)
    return words.transpose(1, 0, 2).reshape(4 * depth, keys.size)[:k].T


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("task", TASKS)
def test_words_and_uniforms_match_path_stream(seed, task):
    for k in (1, 3, 4, 5, 12):
        words = _lockstep_words(seed, PATHS, task, k)
        uniforms = block_uniforms(words)
        for row, pid in enumerate(PATHS.tolist()):
            raw = path_stream(seed, pid, task).bit_generator.random_raw(k)
            assert words[row].tolist() == raw.tolist(), (seed, task, pid, k)
            expected = path_stream(seed, pid, task).random(k)
            assert uniforms[row].tobytes() == expected.tobytes(), (seed, task, pid, k)


@pytest.mark.parametrize("n", [1, 4096, 16385])
def test_many_lanes_match_path_stream(n):
    # one lane, a block of lanes, and more keys than the lockstep engine passes in one call
    seed, task = 2**64 - 1, 5
    words = _lockstep_words(seed, np.arange(n), task, 8)
    for pid in range(n):
        raw = path_stream(seed, pid, task).bit_generator.random_raw(8)
        assert words[pid].tolist() == raw.tolist(), pid


def test_block_is_per_lane():
    # a lane's words do not depend on which other lanes share the call
    keys = lane_keys(5, np.arange(64), 1)
    together = philox_words(5, keys, 3, 2)
    alone = np.concatenate([philox_words(5, keys[i:i + 1], 3, 2) for i in range(64)], axis=2)
    assert (together == alone).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1), task=st.integers(0, 2**24 - 1),
    pids=st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=40), first=st.integers(1, 2**62),
    depth=st.integers(1, 16),
)
# the largest seed makes the first key word wrap when bumped
@example(seed=0, task=0, pids=[0], first=1, depth=1)
@example(seed=2**64 - 1, task=2**24 - 1, pids=[2**40 - 1, 0], first=2**62, depth=16)
def test_words_match_philox(seed, task, pids, first, depth):
    # block b * M0 spans more than 64 bits for any first past 1; numpy's
    # Philox, counting from counter first - 1, draws block first first.  The
    # key and counter are uint64 arrays: a list holding 2**64 - 1 goes
    # through float64
    keys = lane_keys(seed, np.array(pids), task)
    words = philox_words(seed, keys, first, depth)
    assert words.shape == (4, depth, len(pids)) and words.dtype == np.uint64
    for i, pid in enumerate(pids):
        philox = np.random.Philox(
            key=np.array([seed, task << 40 | pid], dtype=np.uint64),
            counter=np.array([first - 1, 0, 0, 0], dtype=np.uint64),
        )
        assert words[:, :, i].T.ravel().tolist() == philox.random_raw(4 * depth).tolist(), pid
        assert (philox_words(seed, keys[i:i + 1], first, depth)[:, :, 0] == words[:, :, i]).all(), pid


@pytest.mark.parametrize("first, depth", [(-1, 1), (2**64 - 1, 2), (2**64, 1)])
def test_counter_blocks_past_64_bits_raise(first, depth):
    with pytest.raises(ValueError, match="counter blocks"):
        philox_words(0, lane_keys(0, np.arange(2)), first, depth)


@pytest.mark.parametrize(
    "seed, pids, task, field",
    [
        (-1, [0], 0, "seed"),
        (2**64, [0], 0, "seed"),
        (0, [-1, 0], 0, "path_index"),
        (0, [0, 2**40], 0, "path_index"),
        (0, [0], -1, "task_index"),
        (0, [0], 2**24, "task_index"),
    ],
)
def test_out_of_range_key_raises_as_path_stream(seed, pids, task, field):
    bad = min(pids) if min(pids) < 0 else max(pids)
    with pytest.raises(ValueError, match=field) as scalar:
        path_stream(seed, bad, task)
    with pytest.raises(ValueError, match=field) as vectorized:
        lane_keys(seed, np.array(pids, dtype=np.int64), task)
    assert str(vectorized.value) == str(scalar.value)
