import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from markovup import cli, csv_io, mc_engine
from markovup.process_core import INT64_MAX, PathBlock

from helpers import check_state_ranges

EDGE_VALUES = [0, 9, 10, 9_999, 10_000, 10**8 - 1, 10**8, 2**63 - 1]


def test_formatter_matches_str_at_edge_values():
    # the four-digit tables and the groups past 9,999; -1 is an empty cell
    values = EDGE_VALUES + [-1, 123_456_789_012, 10**16, 10**16 - 1]
    for seps, text in (
        (csv_io._COMMA, ","), (csv_io._SPACE, " "), (csv_io._CRLF, "\r\n"),
    ):
        got = csv_io._ascii(np.array(values, dtype=np.int64), np.full(len(values), seps))
        assert bytes(got) == "".join(("" if v < 0 else str(v)) + text for v in values).encode()
    for v in EDGE_VALUES:  # one value alone, as a chunk holding only it is formatted
        assert bytes(csv_io._ascii(np.array([v], dtype=np.int64), csv_io._SPACE)) == f"{v} ".encode()


def test_formatter_writes_paths_rows():
    # a capped row's tau is empty, and its flag is 1
    rows = np.array([[3, -1, 2, 10**8, 1], [10_000, 9_999, 1, 7, 0], [0, 0, 0, 0, 0]])
    assert bytes(csv_io._ascii(rows, csv_io._PATHS_SEPS)) == (
        b"3,,2,100000000,1\r\n10000,9999,1,7,0\r\n0,0,0,0,0\r\n"
    )
    assert bytes(csv_io._ascii(rows[:0], csv_io._PATHS_SEPS)) == b""


def test_paths_rows_with_object_max_state():
    # a max_state at the top of int64 stays an int64 column, never an object one;
    # its rows, and a block's numbered on after them, with the flag 1 or 0
    top = INT64_MAX
    wide = PathBlock.of_states(5, np.array([top - 2, top - 1, top, top - 2, 4]),
                     np.array([2, 1]), np.array([True, False]))
    narrow = PathBlock.of_states(5, np.array([6, 7, 8, 6, 4]), np.array([2, 1]), np.array([True, False]))
    parts = [mc_engine.reduce_block(wide), mc_engine.reduce_block(narrow)]
    assert parts[0].max_state.dtype == np.int64
    text = b"".join(bytes(t) for first, records in zip((0, 2), parts) for t in csv_io.paths_rows(first, records))
    assert text == f"0,,0,{top},1\r\n1,1,1,{top - 2},0\r\n2,,0,8,1\r\n3,1,1,6,0\r\n".encode()


@pytest.mark.parametrize("budget", [1, 7])
def test_output_bytes_hold_at_any_write_budget(tmp_path, monkeypatch, budget):
    # a budget of 1 or 7 tokens cuts rows anywhere, also inside a row's first
    # four cells; the files are the pinned seed-5 ones
    monkeypatch.setattr(csv_io, "_TOKENS_PER_WRITE", budget)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"n_traj": 3000, "seed": 5, "output": {"trajectories_csv": "trajectories.csv"}}
    ))
    assert cli.main(["simulate", str(config)]) == cli.EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("paths.csv", "trajectories.csv")}
    assert digests == {
        "paths.csv": "4e236573e84f28d66c970f97be01a6cea7b471a27988a95c47b396ed34cfea81",
        "trajectories.csv": "e9da91480e09a697bfa45da7754908d60a00ab36f6fdcb064cc013a66f17c137",
    }


def test_long_row_is_split_across_writes():
    # a pure fall of 30,000 states, and a short capped path after it: no
    # write holds more than the budget's tokens, each ended by its separator
    states = np.concatenate([np.arange(30_004, 4, -1), [6, 7]])
    block = PathBlock.of_states(5, states, np.array([29_999, 1]), np.array([False, True]))
    writes = [bytes(text) for text in csv_io.dump_rows(30_004, 0, block)]
    expected = (
        f"30004,0,29999,5,{' '.join(map(str, range(30_004, 4, -1)))}\r\n"
        "30004,1,,5,6 7\r\n"
    )
    assert b"".join(writes) == expected.encode()
    assert len(writes) > 1
    assert all(sum(w.count(sep) for sep in (b",", b" ", b"\n")) <= csv_io._TOKENS_PER_WRITE for w in writes)


def test_dump_rows_at_the_top_of_int64():
    # a state plus its place passes int64 here; the states come out exact
    top = INT64_MAX
    states = np.array([top - 2, top - 3, top, top - 1, top - 2, 6, 4])
    block = PathBlock.of_states(5, states, np.array([4, 1]), np.array([True, False]))
    check_state_ranges(block, states, [(0.2, 0.9)])
    assert b"".join(bytes(t) for t in csv_io.dump_rows(7, 0, block)) == (
        f"7,0,,5,{top - 2} {top - 3} {top} {top - 1} {top - 2}\r\n7,1,1,5,6 4\r\n".encode()
    )


def test_dump_rows_peak_memory(benchmark_kernel):
    # 2,000 paths from x0 = 1000 as one block, about 2.0M states (16 MB as
    # int64): each write builds only its own states, and writing the block's
    # rows peaks at 0.92 MB; building the block's states at once peaked at 16.8 MB
    (block,) = mc_engine.simulate_blocks(benchmark_kernel, 1000, 2000, seed=1)
    tracemalloc.start()
    try:
        size = sum(text.size for text in csv_io.dump_rows(1000, 0, block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.steps.sum() + block.steps.size > 2_000_000 and size > 7_000_000
    assert peak <= 2.5e6, peak


def test_far_capped_dump_bytes_are_pinned(tmp_path, monkeypatch):
    # one start far above the floor, 73 of 200 paths capped: each inside a
    # long last fall, written across many writes
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n_traj": 200, "x_grid": [1000], "max_steps": 1000, "seed": 3,
        "output": {"trajectories_csv": "trajectories.csv"},
    }))
    assert cli.main(["simulate", str(config)]) == cli.EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("paths.csv", "trajectories.csv")}
    assert digests == {
        "paths.csv": "7984bd6a7d0f9c7a996d5d21862ed6dba4f8fd664fb6f30d88964a8da20b58e5",
        "trajectories.csv": "6814a03fab37a622fed7992a1521153c3ebc207a6bc39d807dd79984bf1b84dc",
    }
    rows = (tmp_path / "paths.csv").read_text().splitlines()[1:]
    assert sum(row.endswith(",1") for row in rows) == 73
