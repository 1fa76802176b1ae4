"""The per-path CSV files, written and read as numpy byte arrays.

paths.csv has a row per path: ``path_id,tau,attempts,max_state,capped``.
The trajectory dump has a row per path too: ``x0,path_id,tau,floor_n,states``,
the states space-separated.  A capped path's tau is empty; every line ends
in CRLF.  After its header, a file is written a block at a time, by
:func:`paths_rows` and :func:`dump_rows`; both format int64 columns with
one lookup-table formatter (:func:`_ascii`), a bounded number of tokens at
a time.
:func:`read_trajectories_csv` reads a dump in that form back, a chunk at a
time, as ``(path_id, block)`` per run of rows from one x0 at one floor: the
rows' int64 path ids, and their paths as one :class:`PathBlock`, checked
once as it is made.  It names the first line that fails.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Sequence

import numpy as np

from .mc_engine import RecordColumns
from .process_core import PathBlock, states_between

__all__ = [
    "DUMP_HEADER", "MalformedDump", "PATHS_HEADER", "dump_rows", "first_failure", "paths_rows",
    "read_trajectories_csv",
]

# Tokens formatted into one write.  The arrays a write builds, its states
# included, take about 40 bytes a token, so a write holds well under 1 MB, also
# for a dump of long paths.
_TOKENS_PER_WRITE = 1 << 14
_GROUP = 10_000  # a token is formatted four digits at a time


@functools.cache
def _digit_table() -> np.ndarray:
    """The ASCII of 0..9,999, one uint32 each in memory order, leading zeros as NUL bytes (0 keeps its "0").

    The formatter drops NUL bytes; OR-ing _ZEROS pads an entry to four
    digits.  The entry past 9,999, read at index -1, is an empty cell.
    Built on first use: a table allocated at import sits under the
    engine's arrays and raised the peak RSS of ``verify`` by 0.1-0.2 MB.
    """
    value = np.arange(_GROUP, dtype=np.uint16)  # small dtypes: no table-sized int64 temporaries
    table = np.zeros((_GROUP + 1, 4), dtype=np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        table[:_GROUP, i] = np.where(value >= place, value // place % 10 + ord("0"), 0)
    table[0, 3] = ord("0")
    table.flags.writeable = False  # every caller shares it
    return table.view(np.uint32).ravel()


_ZEROS = np.frombuffer(b"0000", dtype=np.uint32)[0]
_COMMA, _SPACE, _CRLF = np.frombuffer(b",\0\0\0 \0\0\0\r\n\0\0", dtype=np.uint32)
_PATHS_SEPS = np.array([_COMMA, _COMMA, _COMMA, _COMMA, _CRLF])  # one paths.csv row


def _ascii(tokens: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The bytes of tokens in decimal, each followed by its separator (_COMMA, _SPACE or _CRLF).

    Tokens are non-negative int64 integers, and -1 is an empty cell;
    ``seps`` broadcasts to ``tokens``.  Each token becomes uint32 cells of
    four digits, from a lookup table, followed by its separator's cell; one
    boolean compress drops the NUL bytes.
    """
    table, top, groups = _digit_table(), int(tokens.max(initial=0)), 1
    while top >= _GROUP**groups:
        groups += 1
    cells = np.empty(tokens.shape + (groups + 1,), dtype=np.uint32)
    cells[..., groups] = seps
    if groups == 1:
        cells[..., 0] = table[tokens]
    else:
        rest = tokens
        for g in range(groups - 1, -1, -1):  # the last group first
            above, group = np.divmod(rest, _GROUP)
            digits = table[group]
            # a group is padded below a leading one, stripped if it leads, and
            # absent above it; -1 has no group
            leads = rest >= 0 if g == groups - 1 else rest > 0
            cells[..., g] = np.where(above > 0, digits | _ZEROS, np.where(leads, digits, 0))
            rest = above
    text = cells.view(np.uint8).ravel()
    return text[text != 0]


PATHS_HEADER = b"path_id,tau,attempts,max_state,capped\r\n"


def paths_rows(first: int, records: RecordColumns) -> Iterator[np.ndarray]:
    """A block's paths.csv rows, numbered from first, _TOKENS_PER_WRITE tokens at a time; a capped path has no tau."""
    rows = max(1, _TOKENS_PER_WRITE // _PATHS_SEPS.size)
    for lo in range(0, len(records), rows):
        part = slice(lo, lo + rows)
        capped = records.capped[part]
        yield _ascii(np.stack([
            np.arange(first + lo, first + lo + capped.size), np.where(capped, -1, records.steps[part]),
            records.attempts[part], records.max_state[part], capped,
        ], axis=1), _PATHS_SEPS)


_DUMP_COLUMNS = ("x0", "path_id", "tau", "floor_n", "states")
DUMP_HEADER = ",".join(_DUMP_COLUMNS).encode() + b"\r\n"
# dump bytes parsed at a time, with the rest of the line they cut: bounds the
# arrays the parse holds
_CHUNK_CHARS = 1 << 16
_MAX_DIGITS = 18  # an integer of up to this many digits fits int64
_CELLS = len(_DUMP_COLUMNS)
_ROW_STOPS = np.frombuffer(b",,,,\n", dtype=np.uint8)  # the bytes that end a row's cells


def dump_rows(x0: int, first: int, block: PathBlock) -> Iterator[np.ndarray]:
    """A block's dump rows, numbered from first, _TOKENS_PER_WRITE tokens at a time; a cut may fall inside a row."""
    n, starts, anchors = block.steps.size, block.starts, block.anchors()  # a write builds only its own states
    heads = np.empty((n, 4), dtype=np.int64)  # x0, path_id, tau and floor_n of each row
    heads[:, 0], heads[:, 1], heads[:, 3] = x0, np.arange(first, first + n), block.floor_n
    heads[:, 2] = np.where(block.capped, -1, block.steps)
    # row r is tokens row_at[r]..row_at[r + 1]-1: its four heads, then its states
    row_at = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(block.steps + 5, out=row_at[1:])
    for lo in range(0, int(row_at[-1]), _TOKENS_PER_WRITE):
        hi = min(lo + _TOKENS_PER_WRITE, int(row_at[-1]))
        r0, r1 = np.searchsorted(row_at, lo, "right") - 1, np.searchsorted(row_at, hi)  # the rows cut
        head_at = (row_at[r0:r1, None] + np.arange(4)).ravel()
        inside = (head_at >= lo) & (head_at < hi)
        is_head = np.zeros(hi - lo, dtype=bool)
        is_head[head_at[inside] - lo] = True
        tokens = np.empty(hi - lo, dtype=np.int64)
        tokens[is_head] = heads[r0:r1].ravel()[inside]
        a = starts[r0] + max(0, lo - row_at[r0] - 4)  # the states before the cut
        tokens[~is_head] = states_between(anchors, a, a + tokens.size - np.count_nonzero(inside))
        seps = np.where(is_head, _COMMA, _SPACE)
        last = row_at[r0 + 1:r1 + 1] - 1  # each row's last state
        seps[last[last < hi] - lo] = _CRLF
        yield _ascii(tokens, seps)


class MalformedDump(ValueError):
    """A dump line that is not the header or a well-formed path in plain form.

    The message names the file and the line.
    """


def first_failure(checks: Sequence[tuple[np.ndarray, str]]) -> Optional[tuple[int, str]]:
    """The first row any mask marks, and the message of the first mask that marks it."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(message for mask, message in checks if mask[row])


def read_trajectories_csv(path: str) -> Iterator[tuple[np.ndarray, PathBlock]]:
    """Parse a trajectory dump as runs of rows, a chunk at a time; the first malformed line raises MalformedDump.

    A dump is read in the form simulate writes: the header line
    ``x0,path_id,tau,floor_n,states``, then one or more rows of five cells,
    each line ending in LF or CRLF (the last may end without).  Every cell
    is one integer in plain digits, but tau, which a capped row leaves
    empty, and states, which holds one or more between single spaces.  The
    states must make the path its x0, tau and floor_n describe, as
    :class:`~markovup.process_core.Trajectory` checks a path.  Each run of
    rows from one x0 at one floor comes as ``(path_id, block)``: row i is
    path ``path_id[i]``, and path i of ``block`` holds its x0, in
    ``first[i]``, its floor, states, steps and capped flag.  The bytes are
    parsed _CHUNK_CHARS at a time, cut at a line end, and each chunk's
    runs are yielded before the next is read; a chunk that fails is
    parsed again, and yielded, a line at a time, and the first line that
    fails is named with the check it fails.  So a consumer that checks each
    row as it comes meets every row before the first malformed line.  An
    unreadable file raises OSError.
    """
    with open(path, "rb") as fh:
        if fh.readline().removesuffix(b"\n").removesuffix(b"\r") + b"\r\n" != DUMP_HEADER:
            raise MalformedDump(f"{path}:1: malformed dump row: the header is not {DUMP_HEADER.decode().rstrip()}")
        line = 2  # the chunk's first line
        while chunk := fh.read(_CHUNK_CHARS):
            chunk += fh.readline()  # to the end of the line the read cut
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            try:
                runs = _plain_chunk(chunk)
            except ValueError:  # the same parse a line at a time, to name the first line that fails
                for text in chunk.split(b"\n")[:-1]:
                    try:
                        runs = _plain_chunk(text + b"\n")
                    except ValueError as exc:
                        raise MalformedDump(f"{path}:{line}: malformed dump row: {exc}") from exc
                    line += 1
                    yield from runs
            else:
                line += chunk.count(b"\n")
                yield from runs
    if line == 2:
        raise MalformedDump(f"{path}:2: malformed dump row: no row after the header")


def _plain_chunk(raw: bytes) -> list[tuple[np.ndarray, PathBlock]]:
    """Whole dump lines, each ending in LF, as one run per stretch of rows with one x0 and one floor_n.

    ValueError, with the reason, unless each line is a well-formed path in
    plain form.  Where a run's paths meet the floor is the check its
    :class:`PathBlock` makes when it is made.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = (b - np.uint8(ord("0"))) < 10  # the bytes below "0" wrap past "9"
    cr = b == ord("\r")
    stops = np.flatnonzero((b == ord(",")) | (b == ord("\n")))  # where each cell ends
    n_space = np.count_nonzero(b == ord(" "))
    if (
        (cr[:-1] & (b[1:] != ord("\n"))).any()  # a CR only before LF
        or np.count_nonzero(digit) + np.count_nonzero(cr) + stops.size + n_space != b.size
    ):
        raise ValueError("a byte that is not a digit, a comma, a space or a line end")
    if stops.size % _CELLS or (b[stops].reshape(-1, _CELLS) != _ROW_STOPS).any():
        raise ValueError("not five cells")
    width = (np.diff(stops, prepend=-1) - 1).reshape(-1, _CELLS)
    live = width[:, 2] > 0
    past = np.flatnonzero(digit[:-1] & ~digit[1:]) + 1  # where each token's digits end
    end = b[past]  # the byte that ends each token
    spaced, last = end == ord(" "), (end == ord("\n")) | (end == ord("\r"))
    # a space lies between two digits, and no cell end follows the token
    # after it before the line end: it splits a states cell
    if (
        np.count_nonzero((b[1:-1] == ord(" ")) & digit[:-2] & digit[2:]) != n_space
        or (spaced[:-1] & (end[1:] == ord(","))).any()
    ):
        raise ValueError("a space that is not between two states")
    row_last = np.flatnonzero(last)  # each row's last token
    if not (width[:, [0, 1, 3]] > 0).all() or row_last.size != live.size:
        raise ValueError("an empty cell")
    values = _decimal(b, digit, past)
    row_first = np.concatenate(([0], row_last[:-1] + 1))
    counts = row_last - row_first - 2 - live  # the tokens past x0, path_id, tau and floor_n
    x0, path_id = values[row_first], values[row_first + 1]
    tau, floor_n = np.where(live, values[row_first + 2], 0), values[row_first + 2 + live]
    states = values[spaced | last]
    ends = np.cumsum(counts)  # row i's states are states[ends[i] - counts[i]:ends[i]]
    failure = first_failure((
        (states[ends - counts] != x0, "states must start at x0"),
        (live & (counts != tau + 1), "a path that hit the floor at tau={tau} must end there"),
    ))
    if failure is not None:
        row, message = failure
        raise ValueError(message.format(tau=tau[row]))
    runs = [0, *(np.flatnonzero((x0[1:] != x0[:-1]) | (floor_n[1:] != floor_n[:-1])) + 1).tolist(), x0.size]
    return [(path_id[lo:hi], PathBlock.of_states(
        int(floor_n[lo]), states[ends[lo] - counts[lo]:ends[hi - 1]], counts[lo:hi] - 1, ~live[lo:hi]
    )) for lo, hi in zip(runs, runs[1:])]


def _decimal(b: np.ndarray, digit: np.ndarray, past: np.ndarray) -> np.ndarray:
    """The value of each run of digits of ``b`` that ends before ``past``.

    The values are int64.  A run longer than _MAX_DIGITS digits, such as a
    zero-padded one, is read with ``int``; ValueError if its value does not
    fit int64.
    """
    values = (b[past - 1] - np.uint8(ord("0"))).astype(np.int64)
    # the tokens with a digit left of the ones read, and where; -1 reads the
    # last byte, a line end
    tokens, at = np.arange(past.size), past - 2
    for k in range(1, _MAX_DIGITS):
        more = digit[at]
        tokens, at = tokens[more], at[more]
        if not tokens.size:
            return values
        values[tokens] += (b[at] - np.uint8(ord("0"))) * np.int64(10) ** k
        at -= 1
    wide = tokens[digit[at]]  # the tokens of more digits than int64 is sure to hold: read by int
    if not wide.size:
        return values
    start = np.flatnonzero(digit & np.diff(digit, prepend=False))[wide]  # where each wide token begins
    text = b.tobytes()
    try:
        values[wide] = [int(text[i:j]) for i, j in zip(start.tolist(), past[wide].tolist())]
    except OverflowError:
        raise ValueError("an integer past int64") from None
    return values
