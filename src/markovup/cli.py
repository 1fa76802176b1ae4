"""Configuration-driven command line front end.

Subcommands mirror the pipeline stages and are each runnable standalone:

    certify    model assumption certificate (JSON to stdout)
    bounds     certified bound constants per moment order (JSON to stdout)
    simulate   per-path CSV dump (paths.csv, optional trajectory dump)
    verify     full pipeline: report.json + paths.csv + verdicts.csv
    report     rebuild report.json/verdicts.csv from a trajectory dump

Exit codes: 0 all verdicts pass, 1 usage/config/assumption error, 2 verdict failure.

--threads is accepted and validated but has no effect: every engine runs
on one thread.  report.json must be byte-identical for a fixed seed, so
wall-clock time goes to stderr and the report's "timing" section carries
deterministic work counters only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import bound_calc, mc_engine
from .model_zoo import BenchmarkModelSpec, KappaSpec, build_benchmark, certify
from .process_core import PathBlock, state_array
from .streams import MAX_PATHS

__all__ = ["ConfigError", "ExperimentConfig", "main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT_FAIL = 2

LOW_SAMPLE_THRESHOLD = 100


class ConfigError(ValueError):
    """Bad configuration; the message names the offending field."""


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Validated experiment parameters (see README for the file format)."""

    a: float = 0.5
    r: float = 0.5
    s: float = 0.5
    floor_n: int = 5
    x_grid: tuple[int, ...] = (6, 10, 20)
    m_list: tuple[int, ...] = (1, 2, 3)
    n_traj: int = 100_000
    seed: int = 7
    max_steps: int = mc_engine.DEFAULT_MAX_STEPS
    epsilon: float = bound_calc.DEFAULT_EPS
    threads: int = 1
    report_json: str = "report.json"
    paths_csv: str = "paths.csv"
    verdicts_csv: str = "verdicts.csv"
    trajectories_csv: Optional[str] = None

    def model_spec(self) -> BenchmarkModelSpec:
        return BenchmarkModelSpec(
            kappa=KappaSpec(a=self.a, r=self.r), up_jump_s=self.s, floor_n=self.floor_n
        )

    def to_dict(self) -> dict[str, Any]:
        # threads deliberately omitted: it has no effect, and the echo
        # lands in report.json, whose bytes must not depend on it
        return {
            "model": {"a": self.a, "r": self.r, "s": self.s},
            "floor_n": self.floor_n,
            "x_grid": list(self.x_grid),
            "m_list": list(self.m_list),
            "n_traj": self.n_traj,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "epsilon": self.epsilon,
            "output": {
                "report_json": self.report_json,
                "paths_csv": self.paths_csv,
                "verdicts_csv": self.verdicts_csv,
                "trajectories_csv": self.trajectories_csv,
            },
        }


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config field '{field_name}': {message}")


def _as_int(raw: Any, field_name: str) -> int:
    _require(isinstance(raw, int) and not isinstance(raw, bool), field_name, "must be an integer")
    return raw


def _as_prob(raw: Any, field_name: str) -> float:
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), field_name, "must be a number")
    # compared before the float conversion, which overflows on integers beyond float range
    _require(0 < raw < 1, field_name, f"must lie strictly between 0 and 1, got {raw}")
    return float(raw)


def parse_config(data: dict[str, Any]) -> ExperimentConfig:
    """Build a validated config from a parsed JSON document."""
    _require(isinstance(data, dict), "<root>", "must be a JSON object")
    known = {
        "model", "floor_n", "x_grid", "m_list", "n_traj", "seed",
        "max_steps", "epsilon", "threads", "output",
    }
    for key in data:
        _require(key in known, key, "unknown field")
    defaults = ExperimentConfig()

    model = data.get("model", {})
    _require(isinstance(model, dict), "model", "must be an object with a, r, s")
    a = _as_prob(model.get("a", defaults.a), "model.a")
    r = _as_prob(model.get("r", defaults.r), "model.r")
    s = _as_prob(model.get("s", defaults.s), "model.s")

    floor_n = _as_int(data.get("floor_n", defaults.floor_n), "floor_n")
    _require(floor_n >= 0, "floor_n", "must be non-negative")

    x_grid_raw = data.get("x_grid", list(defaults.x_grid))
    _require(isinstance(x_grid_raw, list) and x_grid_raw, "x_grid", "must be a non-empty list")
    x_grid = tuple(_as_int(x, "x_grid") for x in x_grid_raw)
    _require(all(x >= 0 for x in x_grid), "x_grid", "entries must be non-negative")
    _require(len(set(x_grid)) == len(x_grid), "x_grid", "entries must be distinct")

    m_list_raw = data.get("m_list", list(defaults.m_list))
    _require(isinstance(m_list_raw, list) and m_list_raw, "m_list", "must be a non-empty list")
    m_list = tuple(_as_int(m, "m_list") for m in m_list_raw)
    _require(all(m >= 1 for m in m_list), "m_list", "entries must be >= 1")
    _require(len(set(m_list)) == len(m_list), "m_list", "entries must be distinct")

    n_traj = _as_int(data.get("n_traj", defaults.n_traj), "n_traj")
    _require(n_traj >= 2, "n_traj", "must be >= 2")
    _require(n_traj <= MAX_PATHS, "n_traj", f"must be <= {MAX_PATHS}: paths beyond it have no random stream")

    seed = _as_int(data.get("seed", defaults.seed), "seed")
    _require(0 <= seed < 2**64, "seed", "must be in [0, 2**64)")

    max_steps = _as_int(data.get("max_steps", defaults.max_steps), "max_steps")
    _require(max_steps >= 1, "max_steps", "must be >= 1")

    epsilon_raw = data.get("epsilon", defaults.epsilon)
    _require(
        isinstance(epsilon_raw, (int, float)) and not isinstance(epsilon_raw, bool)
        and 0 < epsilon_raw <= sys.float_info.max,  # finite, also as a float
        "epsilon", "must be a positive finite number",
    )
    epsilon = float(epsilon_raw)

    threads = _as_int(data.get("threads", defaults.threads), "threads")
    _require(threads >= 1, "threads", "must be >= 1")

    output = data.get("output", {})
    _require(isinstance(output, dict), "output", "must be an object")
    report_json = output.get("report_json", defaults.report_json)
    paths_csv = output.get("paths_csv", defaults.paths_csv)
    verdicts_csv = output.get("verdicts_csv", defaults.verdicts_csv)
    trajectories_csv = output.get("trajectories_csv", defaults.trajectories_csv)
    for name, value in (
        ("output.report_json", report_json),
        ("output.paths_csv", paths_csv),
        ("output.verdicts_csv", verdicts_csv),
    ):
        _require(isinstance(value, str) and value, name, "must be a non-empty string")
    _require(
        trajectories_csv is None or (isinstance(trajectories_csv, str) and trajectories_csv),
        "output.trajectories_csv", "must be null or a non-empty string",
    )

    return ExperimentConfig(
        a=a, r=r, s=s, floor_n=floor_n, x_grid=x_grid, m_list=m_list,
        n_traj=n_traj, seed=seed, max_steps=max_steps, epsilon=epsilon,
        threads=threads, report_json=report_json, paths_csv=paths_csv,
        verdicts_csv=verdicts_csv, trajectories_csv=trajectories_csv,
    )


def load_config(
    path: Optional[str], seed: Optional[int] = None, threads: Optional[int] = None
) -> ExperimentConfig:
    """Read and validate a JSON config file; None means built-in defaults.

    A seed or thread count given here replaces the file's before validation.
    """
    data: Any = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer with more digits than int() converts
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        data.update((k, v) for k, v in (("seed", seed), ("threads", threads)) if v is not None)
    return parse_config(data)


# ---------------------------------------------------------------- reporting


def _verdict_rows(report: mc_engine.VerificationReport) -> list[dict[str, Any]]:
    rows = []
    for v in report.verdicts:
        e = v.estimate
        rows.append({
            "quantity": e.quantity,
            "x0": e.x0,
            "order": e.m,
            "n_samples": e.n_samples,
            "mean": e.mean,
            "std_error": e.std_error,
            "ci99_upper": e.ci99_upper,
            "test_value": v.test_value,
            "bound": v.bound,
            "method": v.method,
            "passed": v.passed,
            "slack": v.slack,
        })
    return rows


def build_report(
    config: ExperimentConfig, report: mc_engine.VerificationReport
) -> dict[str, Any]:
    """Assemble the stable report document (deterministic for a fixed seed)."""
    warnings = list(report.warnings)
    if config.n_traj < LOW_SAMPLE_THRESHOLD:
        warnings.append(f"low-sample warning: n_traj={config.n_traj} < {LOW_SAMPLE_THRESHOLD}")
    folds = report.folds.values()
    return {
        "config": config.to_dict(),
        "certificate": report.certificate.to_dict(),
        "bound_sets": {str(m): bs.to_dict() for m, bs in sorted(report.bound_sets.items())},
        "estimates": [v.estimate.to_dict() for v in report.verdicts],
        "verdicts": _verdict_rows(report),
        "diagnostics": {str(x0): fold.diagnostics for x0, fold in report.folds.items()},
        "warnings": warnings,
        "timing": {
            "paths_simulated": sum(f.n_live + f.capped for f in folds),
            "steps_simulated": sum(f.steps for f in folds),
            "capped_paths": sum(f.capped for f in folds),
        },
    }


def _dump_json(doc: dict[str, Any], path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def write_paths_csv(path: str, records_by_x: dict[int, mc_engine.RecordColumns]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "tau", "attempts", "max_state", "capped"])
        for records in records_by_x.values():
            capped = records.capped.tolist()
            writer.writerows(zip(
                range(len(records)),
                ["" if c else steps for steps, c in zip(records.steps.tolist(), capped)],
                records.attempts.tolist(),
                records.max_state.tolist(),
                map(int, capped),
            ))


def write_verdicts_csv(path: str, report: mc_engine.VerificationReport) -> None:
    rows = _verdict_rows(report)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


_DUMP_COLUMNS = ("x0", "path_id", "tau", "floor_n", "states")
# states text parsed at a time, which bounds the tokens held as strings
_CHUNK_CHARS = 1 << 16
_MAX_DIGITS = 18  # an integer of up to this many digits fits int64


def write_trajectories_csv(path: str, blocks_by_x: dict[int, list[PathBlock]]) -> None:
    """Dump each start state's blocks of paths: one row per path, states space-separated."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_DUMP_COLUMNS)
        for x0, blocks in blocks_by_x.items():
            paths = ((block.floor_n, *path) for block in blocks for path in block.paths())
            writer.writerows(
                [x0, pid, "" if capped else steps, floor_n, " ".join(map(str, states))]
                for pid, (floor_n, states, steps, capped) in enumerate(paths)
            )


@dataclass(frozen=True, slots=True, eq=False)
class TrajectoryDump:
    """A trajectory dump's rows as columns, in file order.

    Row i is path ``path_id[i]`` from ``x0[i]`` at floor ``floor_n[i]``.  It
    has ``steps[i] + 1`` states, which follow row i-1's in ``states``, and is
    capped iff ``capped[i]``.  The integer columns are laid out as
    :func:`state_array` lays out states: int64, or Python ints when one does
    not fit.
    """

    x0: np.ndarray
    path_id: np.ndarray
    floor_n: np.ndarray
    steps: np.ndarray
    capped: np.ndarray
    states: np.ndarray


def _first_failure(checks: Sequence[tuple[np.ndarray, str]]) -> Optional[tuple[int, str]]:
    """The first row any mask marks, and the message of the first mask that marks it."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(message for mask, message in checks if mask[row])


def _parse_int_cells(cells: list[str]) -> tuple[np.ndarray, np.ndarray, Optional[tuple[int, ValueError]]]:
    """The whitespace-separated integers of the cells, flat, and each cell's count.

    A cell with a token int() rejects ends the parse: the third value is its
    index and the error, and the first two cover the cells before it.
    """
    text = "\n".join(cells)
    if text.isascii():
        b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        digit = (b >= ord("0")) & (b <= ord("9"))
        newline = b == ord("\n")
        # plain digits between spaces, never past a cell's end, parse in one pass
        breaks = np.flatnonzero(newline)
        if (digit | newline | (b == ord(" "))).all() and breaks.size == len(cells) - 1:
            padded = np.concatenate(([False], digit, [False]))
            first = np.flatnonzero(padded[1:] & ~padded[:-1])  # where each token starts
            if not first.size or (np.flatnonzero(padded[:-1] & ~padded[1:]) - first).max() <= _MAX_DIGITS:
                counts = np.bincount(np.searchsorted(breaks, first), minlength=len(cells))
                return np.fromstring(text, dtype=np.int64, sep=" "), counts, None
    # anything else is read token by token with int(), and laid out as state_array does
    parts = []
    bad = None
    for i, cell in enumerate(cells):
        try:
            parts.append(state_array([int(tok) for tok in cell.split()]))
        except ValueError as exc:
            bad = (i, exc)
            break
    counts = np.array([part.size for part in parts], dtype=np.int64)
    return np.concatenate(parts or [np.empty(0, np.int64)]), counts, bad


def _path_failure(
    x0: np.ndarray, tau: np.ndarray, floor_n: np.ndarray, capped: np.ndarray,
    states: np.ndarray, counts: np.ndarray,
) -> Optional[tuple[int, str]]:
    """The first row :class:`Trajectory` would reject, with its message, checked for all rows at once."""
    if not counts.size:
        return None
    if not states.size:  # every row is empty
        return 0, "states must start at x0"
    starts = np.cumsum(counts) - counts

    # how many of each row's states a mask marks; an empty row reads a neighbour's
    # count, and it, like the first and last state below, goes unread: the row
    # fails the first check
    def per_row(mask: np.ndarray) -> np.ndarray:
        return np.add.reduceat(np.append(mask, False), starts, dtype=np.int64)

    first = states[np.minimum(starts, states.size - 1)]
    last = states[starts + counts - 1]
    in_floor = per_row(states <= np.repeat(floor_n, counts))
    live = ~capped
    failure = _first_failure((
        ((counts == 0) | (first != x0), "states must start at x0"),
        (per_row(states < 0) > 0, "states must be non-negative"),
        (live & (counts != tau + 1), "a path that hit the floor at tau={tau} must end there"),
        (live & ((last > floor_n) | (in_floor != 1)), "a path that hit the floor at tau={tau} must first enter it there"),
        (capped & (in_floor > 0), "a capped path must never enter the floor"),
    ))
    if failure is None:
        return None
    row, message = failure
    return row, message.format(tau=tau[row])


def read_trajectories_csv(path: str) -> TrajectoryDump:
    """Parse a trajectory dump into columns; an unreadable file or a malformed row raises ConfigError.

    A row is malformed when it has more cells than the header, a cell that is
    not an integer where one is due, or states that do not make the path its
    x0, tau and floor_n describe (the checks :class:`Trajectory` makes of one
    path).  The error names the first malformed row's line.  Rows are parsed
    and checked a chunk of states text at a time, so the tokens of the whole
    file are never held as strings.
    """
    limit = csv.field_size_limit(sys.maxsize)  # a states cell is as long as its path; restored below
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            dump, fault = _DumpReader().read(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"config field 'output.trajectories_csv': cannot read {path}: {exc}") from exc
    finally:
        csv.field_size_limit(limit)
    if fault is not None:
        raise ConfigError(f"{path}:{fault[2]}: malformed dump row: {fault[3]!r}")
    return dump


class _DumpReader:
    """Reads a dump's rows into columns, parsing and checking _CHUNK_CHARS of states text at a time.

    A fault is (row, stage, line, error).  The faults of one row are met in
    stage order: 0 its shape, 1 its states, 2 its tau, x0 and floor_n, 3 its
    path (see _path_failure), 4 its path id.  The first row's first fault is
    the one reported, as a row-by-row parse would meet it.
    """

    def __init__(self) -> None:
        self.parts: list[tuple[np.ndarray, ...]] = []  # TrajectoryDump's columns, chunk by chunk
        self.faults: list[tuple[int, int, int, Exception]] = []
        self.rows = 0  # rows in parts
        # line, tau, x0, floor_n, capped, path id and states cell of each row not yet in parts
        self.pending: tuple[list, ...] = ([], [], [], [], [], [], [])

    def read(self, reader: Any) -> tuple[TrajectoryDump, Optional[tuple[int, int, int, Exception]]]:
        header = next(reader, [])
        width = len(header)
        where = {name: i for i, name in enumerate(header)}  # a repeated name is its last column
        # in the order a row-by-row parse looked the columns up
        absent = [name for name in ("states", "tau", "x0", "floor_n", "path_id") if name not in where]
        i_x0, i_pid, i_tau, i_floor, i_states = (where.get(name, 0) for name in _DUMP_COLUMNS)
        lines, taus, x0s, floors, capped, pids, cells = self.pending
        if absent:  # the first row lacks a cell it must have
            row = next(filter(None, reader), None)
            if row is not None:
                self.faults.append((0, 0, reader.line_num, KeyError(absent[0])))
            return self.finish()
        chars = 0
        for row in reader:
            if len(row) != width:
                if not row:
                    continue  # a blank line holds no row
                if len(row) > width:
                    fault = ValueError(f"{len(row)} cells under a header of {width}")
                    self.faults.append((self.rows + len(cells), 0, reader.line_num, fault))
                    break
                row += [""] * (width - len(row))  # a short row's missing cells are empty
            cell, tau = row[i_states], row[i_tau]
            try:
                tau_value = 0 if tau == "" else int(tau)
                x0 = int(row[i_x0])
                floor_n = int(row[i_floor])
            except ValueError as exc:
                bad = _parse_int_cells([cell])[2]
                fault = (1, bad[1]) if bad else (2, exc)
                self.faults.append((self.rows + len(cells), fault[0], reader.line_num, fault[1]))
                break
            lines.append(reader.line_num)
            taus.append(tau_value)
            x0s.append(x0)
            floors.append(floor_n)
            capped.append(tau == "")
            cells.append(cell)
            try:
                pids.append(int(row[i_pid]))
            except ValueError as exc:
                pids.append(0)
                self.faults.append((self.rows + len(cells) - 1, 4, reader.line_num, exc))
                break
            chars += len(cell)
            if chars >= _CHUNK_CHARS:
                self.flush()
                chars = 0
                if self.faults:
                    break
        return self.finish()

    def finish(self) -> tuple[TrajectoryDump, Optional[tuple[int, int, int, Exception]]]:
        """The dump's columns and its first fault, once the last rows are flushed."""
        self.flush()
        fault = min(self.faults, key=lambda f: f[:2], default=None)
        return TrajectoryDump(*(np.concatenate(column) for column in zip(*self.parts))), fault

    def flush(self) -> None:
        """Parse and check the pending rows, and move them into parts."""
        lines, taus, x0s, floors, capped, pids, cells = self.pending
        values, counts, bad = _parse_int_cells(cells)
        if bad is not None:
            self.faults.append((self.rows + bad[0], 1, lines[bad[0]], bad[1]))
        n = counts.size  # the rows whose states parsed
        x0, floor_n, capped_col = state_array(x0s[:n]), state_array(floors[:n]), np.array(capped[:n], dtype=bool)
        failure = _path_failure(x0, state_array(taus[:n]), floor_n, capped_col, values, counts)
        if failure is not None:
            r, message = failure
            self.faults.append((self.rows + r, 3, lines[r], ValueError(message)))
        self.parts.append((x0, state_array(pids[:n]), floor_n, counts - 1, capped_col, values))
        self.rows += len(cells)
        for column in self.pending:
            column.clear()


# ------------------------------------------------------------- subcommands


def cmd_certify(config: ExperimentConfig, out: Optional[str]) -> int:
    cert = certify(config.model_spec(), m_max=max(config.m_list))
    _dump_json(cert.to_dict(), out)
    return EXIT_OK


def cmd_bounds(config: ExperimentConfig, out: Optional[str]) -> int:
    spec = config.model_spec()
    doc = {}
    for m in config.m_list:
        bs = bound_calc.make_bound_set(m, spec.kappa, spec.up_jump_s, config.epsilon)
        entry = bs.to_dict()
        entry["theorem_bound_at_x"] = {
            str(x): bound_calc.theorem_bound(m, x, bs).to_dict() for x in config.x_grid
        }
        doc[str(m)] = entry
    _dump_json(doc, out)
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig) -> int:
    kernel = build_benchmark(config.model_spec())
    records_by_x: dict[int, mc_engine.RecordColumns] = {}
    blocks_by_x: dict[int, list[PathBlock]] = {}
    for task_index, x0 in enumerate(config.x_grid):
        blocks = mc_engine.simulate_blocks(
            kernel, x0, config.n_traj, config.seed, config.max_steps, task_index
        )
        if config.trajectories_csv is not None:
            blocks = blocks_by_x[x0] = list(blocks)
        records_by_x[x0] = mc_engine.records_of(blocks)
    write_paths_csv(config.paths_csv, records_by_x)
    if config.trajectories_csv is not None:
        write_trajectories_csv(config.trajectories_csv, blocks_by_x)
    print(f"wrote {config.paths_csv}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(config: ExperimentConfig) -> int:
    """Full pipeline: certify, bounds, simulate, verify, write reports."""
    start = time.perf_counter()
    spec = config.model_spec()
    kernel = build_benchmark(spec)
    report = mc_engine.verify(
        kernel, spec, config.x_grid, config.m_list, config.n_traj,
        config.seed, config.max_steps, config.epsilon,
    )
    doc = build_report(config, report)
    _dump_json(doc, config.report_json)
    write_paths_csv(config.paths_csv, report.records_by_x)
    write_verdicts_csv(config.verdicts_csv, report)
    elapsed = time.perf_counter() - start
    n_pass = sum(1 for v in report.verdicts if v.passed)
    print(
        f"{n_pass}/{len(report.verdicts)} verdicts passed in {elapsed:.1f}s "
        f"-> {config.report_json}",
        file=sys.stderr,
    )
    return EXIT_OK if report.all_passed else EXIT_VERDICT_FAIL


def _blocks_from_dump(config: ExperimentConfig, dump: TrajectoryDump) -> dict[int, list[PathBlock]]:
    """Each start state's dumped paths, in x_grid and path order, in the blocks simulate_blocks yields.

    Each x0 of the grid must have exactly path ids 0..n_traj-1, at the config's
    floor_n, and a capped row must have run the config's max_steps; the first
    row that does not names its x0 and path id.  A start state whose rows
    come in path order, as simulate writes them, shares the dump's states.
    """
    n_traj, rows = config.n_traj, dump.steps.size
    task = np.full(rows, -1)
    for i, x0 in enumerate(config.x_grid):
        task[dump.x0 == x0] = i
    known = (task >= 0) & (dump.path_id >= 0) & (dump.path_id < n_traj)
    pid = np.where(known, dump.path_id, 0).astype(np.int64)
    key = np.where(known, task * n_traj + pid, -1 - np.arange(rows))  # only known rows can repeat a key
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(rows, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]  # a later row of a key seen before
    failure = _first_failure((
        (dump.floor_n != config.floor_n, f"has floor_n={{floor_n}}, config floor_n={config.floor_n}"),
        (task < 0, f"starts outside config x_grid {list(config.x_grid)}"),
        (~known | repeat, f"is duplicated or outside path ids 0..{n_traj - 1}"),
        (dump.capped & (dump.steps != config.max_steps),
         f"is capped after {{steps}} steps, config max_steps={config.max_steps}"),
    ))
    if failure is not None:
        r, message = failure
        detail = message.format(floor_n=dump.floor_n[r], steps=dump.steps[r])
        raise ConfigError(f"trajectory dump row (x0={dump.x0[r]}, path_id={dump.path_id[r]}) {detail}")

    row_stops = np.cumsum(dump.steps + 1)  # where each row's states end in dump.states
    blocks_by_x: dict[int, list[PathBlock]] = {}
    for i, x0 in enumerate(config.x_grid):
        at = np.flatnonzero(task == i)
        at = at[np.argsort(pid[at])]  # the rows in path order
        if at.size != n_traj:
            gap = np.flatnonzero(pid[at] != np.arange(at.size))
            raise ConfigError(f"trajectory dump has no row (x0={x0}, path_id={gap[0] if gap.size else at.size})")
        steps, capped = dump.steps[at], dump.capped[at]
        size = steps + 1
        bounds = np.concatenate([[0], np.cumsum(size)])  # path p's states are states[bounds[p]:bounds[p + 1]]
        if (np.diff(at) == 1).all():  # in file order too: a slice of the dump's states
            states = dump.states[row_stops[at[-1]] - bounds[-1]:row_stops[at[-1]]]
        else:
            states = dump.states[np.repeat(row_stops[at] - size - bounds[:-1], size) + np.arange(bounds[-1])]
        edges = [*range(0, n_traj, mc_engine.BLOCK), n_traj]
        blocks_by_x[x0] = [
            PathBlock(config.floor_n, _fit(states[bounds[lo]:bounds[hi]]), steps[lo:hi], capped[lo:hi])
            for lo, hi in zip(edges, edges[1:])
        ]
    return blocks_by_x


def _fit(states: np.ndarray) -> np.ndarray:
    """A block's states as int64 when they fit, as simulate_blocks lays them out."""
    return state_array(states.tolist()) if states.dtype == object else states


def cmd_report(config: ExperimentConfig) -> int:
    """Recompute estimates and verdicts from a previous trajectory dump."""
    if config.trajectories_csv is None:
        raise ConfigError("config field 'output.trajectories_csv': required by the report command")
    cert, bound_sets = mc_engine.certify_bounds(
        config.model_spec(), config.m_list, config.x_grid, config.epsilon
    )
    # records in x_grid and path order, as verify builds them; the dump and its
    # blocks are dropped before the fold
    blocks_by_x = _blocks_from_dump(config, read_trajectories_csv(config.trajectories_csv))
    records_by_x = {x0: mc_engine.records_of(blocks_by_x.pop(x0)) for x0 in config.x_grid}
    report = mc_engine.report_from_records(cert, bound_sets, records_by_x, config.m_list)
    _dump_json(build_report(config, report), config.report_json)
    write_verdicts_csv(config.verdicts_csv, report)
    return EXIT_OK if report.all_passed else EXIT_VERDICT_FAIL


def _guarded(command: Callable[[], int]) -> int:
    """Run a command; input it cannot serve ends it with exit 1 and an error line."""
    try:
        return command()
    except (ConfigError, mc_engine.AssumptionsFailError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except bound_calc.StartRangeError as exc:
        print(f"error: config field 'x_grid': start state too large: {exc}", file=sys.stderr)
    except bound_calc.BoundRangeError as exc:
        print(f"error: config field 'm_list': moment order too large: {exc}", file=sys.stderr)
    return EXIT_USAGE


def run(config_path: Optional[str], seed: Optional[int] = None, threads: Optional[int] = None) -> int:
    """Run the whole pipeline for a config file; returns the exit code."""
    return _guarded(lambda: cmd_verify(load_config(config_path, seed, threads)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovup",
        description="Simulation and moment-bound verification for Markov-up processes.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="must be >= 1; has no effect (every engine runs on one thread)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "print the model assumption certificate"),
        ("bounds", "print the certified bound constants"),
        ("simulate", "simulate paths and write paths.csv"),
        ("verify", "full pipeline: certify, bounds, simulate, verify"),
        ("report", "rebuild the report from an existing trajectory dump"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", default=None, help="JSON config file (defaults built in)")
        if name in ("certify", "bounds"):
            p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed, args.threads)
    if args.command == "certify":
        return cmd_certify(config, args.out)
    if args.command == "bounds":
        return cmd_bounds(config, args.out)
    if args.command == "simulate":
        return cmd_simulate(config)
    if args.command == "verify":
        return cmd_verify(config)
    if args.command == "report":
        return cmd_report(config)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _guarded(lambda: _dispatch(args))


if __name__ == "__main__":
    sys.exit(main())
