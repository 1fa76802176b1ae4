import numpy as np
import pytest

from markovup.streams import block_uniforms, lane_keys, path_stream, philox_block

SEEDS = (0, 7, 2**64 - 1)  # the largest seed makes the first key word wrap when bumped
PATHS = np.array([0, 1, 2**20 + 3, 2**40 - 1])
TASKS = (0, 2, 2**24 - 1)


def _lockstep_words(seed, pids, task, k):
    """The first k raw words of each path, one row per path."""
    keys = lane_keys(seed, pids, task)
    blocks = [philox_block(seed, keys, b) for b in range(1, (k + 3) // 4 + 1)]
    return np.concatenate(blocks, axis=0)[:k].T


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


def test_block_is_per_lane():
    # a lane's words do not depend on which other lanes share the call
    keys = lane_keys(5, np.arange(64), 1)
    together = philox_block(5, keys, 3)
    alone = np.concatenate([philox_block(5, keys[i:i + 1], 3) for i in range(64)], axis=1)
    assert (together == alone).all()


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
