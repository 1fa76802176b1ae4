"""Configuration-driven command line front end.

Subcommands mirror the pipeline stages and are each runnable standalone:

    certify    model assumption certificate (JSON to stdout)
    bounds     certified bound constants per moment order (JSON to stdout)
    simulate   per-path CSV dump (paths.csv, optional trajectory dump)
    verify     full pipeline: report.json + paths.csv + verdicts.csv
    report     rebuild report.json/verdicts.csv from a trajectory dump

simulate and verify share one block writer, which writes each block's
rows and hands its records on; report reads the dump a chunk at a time,
in the order simulate writes it, as the blocks the reader checked.  verify and
report hand each start state's records to mc_engine.verify_records and
share one output step.  No command holds a start state's records, and a
rejected run writes nothing: records are taken only once the bounds pass.

Exit codes: 0 all verdicts pass, 1 usage/config/assumption error, 2 verdict failure.

--threads is accepted and validated but has no effect: every engine runs
on one thread.  report.json must be byte-identical for a fixed seed, so
wall-clock time goes to stderr and the report's "timing" section carries
deterministic work counters only.

main() sets up its process once, at its first call, not at import.  It
freezes the garbage collector (gc.freeze): the interpreter's final
collections would otherwise scan and free one by one the import heap of
numpy and scipy, which was most of a command's exit time.  A library
importer's heap is left alone; an in-process caller of main() has the
cyclic garbage it holds at that first call never collected.  Under glibc it
also fixes malloc's mmap and trim thresholds (mallopt), so that the memory a
block's arrays free is kept for the next ones rather than handed back to
the OS and faulted in again, page by page.

Every JSON document is strict JSON (RFC 8259): a non-finite float, such as
the test value of a verdict that is not issued, is written as null, and the
report's warnings say why.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import gc
import itertools
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import bound_calc, csv_io, mc_engine
from .csv_io import TrajectoryDump, first_failure
from .lockstep import check_int64
from .model_zoo import (
    BenchmarkKernel, BenchmarkModelSpec, InvalidParameterError, KappaSpec, build_benchmark, certify,
)
from .process_core import PathBlock
from .streams import MAX_PATHS

__all__ = ["ConfigError", "ExperimentConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT_FAIL = 2

LOW_SAMPLE_THRESHOLD = 100


class ConfigError(ValueError):
    """Bad configuration; the message names the offending field."""


OUTPUT_FIELDS = ("report_json", "paths_csv", "verdicts_csv", "trajectories_csv")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Validated experiment parameters (see README for the file format).

    ``spec`` is the model parse_config checked, handed on as it was built.
    """

    spec: BenchmarkModelSpec = BenchmarkModelSpec(kappa=KappaSpec(a=0.5, r=0.5), up_jump_s=0.5, floor_n=5)
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

    def to_dict(self) -> dict[str, Any]:
        # threads deliberately omitted: it has no effect, and the echo
        # lands in report.json, whose bytes must not depend on it
        spec = self.spec
        return {
            "model": {"a": spec.kappa.a, "r": spec.kappa.r, "s": spec.up_jump_s},
            "floor_n": spec.floor_n,
            "x_grid": list(self.x_grid),
            "m_list": list(self.m_list),
            "n_traj": self.n_traj,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "epsilon": self.epsilon,
            "output": {name: getattr(self, name) for name in OUTPUT_FIELDS},
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


def _known_fields(data: dict[str, Any], known: Iterable[str], prefix: str = "") -> None:
    for key in data:
        _require(key in known, prefix + key, "unknown field")


def _as_int_list(raw: Any, field_name: str, least: int) -> tuple[int, ...]:
    """A non-empty list of distinct integers, each at least ``least`` (0 or 1)."""
    _require(isinstance(raw, list) and raw, field_name, "must be a non-empty list")
    values = tuple(_as_int(v, field_name) for v in raw)
    _require(all(v >= least for v in values), field_name,
             f"entries must be >= {least}" if least else "entries must be non-negative")
    _require(len(set(values)) == len(values), field_name, "entries must be distinct")
    return values


def parse_config(data: dict[str, Any]) -> ExperimentConfig:
    """Build a validated config from a parsed JSON document."""
    _require(isinstance(data, dict), "<root>", "must be a JSON object")
    _known_fields(data, {
        "model", "floor_n", "x_grid", "m_list", "n_traj", "seed",
        "max_steps", "epsilon", "threads", "output",
    })
    defaults = ExperimentConfig()

    model = data.get("model", {})
    _require(isinstance(model, dict), "model", "must be an object with a, r, s")
    _known_fields(model, {"a", "r", "s"}, "model.")
    a = _as_prob(model.get("a", defaults.spec.kappa.a), "model.a")
    r = _as_prob(model.get("r", defaults.spec.kappa.r), "model.r")
    s = _as_prob(model.get("s", defaults.spec.up_jump_s), "model.s")

    floor_n = _as_int(data.get("floor_n", defaults.spec.floor_n), "floor_n")
    _require(floor_n >= 0, "floor_n", "must be non-negative")
    try:  # the spec also rejects a model that is degenerate in floating point
        spec = BenchmarkModelSpec(kappa=KappaSpec(a=a, r=r), up_jump_s=s, floor_n=floor_n)
    except InvalidParameterError as exc:
        raise ConfigError(f"config field 'model.{exc.name}': {exc}") from exc

    x_grid = _as_int_list(data.get("x_grid", list(defaults.x_grid)), "x_grid", 0)
    m_list = _as_int_list(data.get("m_list", list(defaults.m_list)), "m_list", 1)

    n_traj = _as_int(data.get("n_traj", defaults.n_traj), "n_traj")
    _require(n_traj >= 2, "n_traj", "must be >= 2")
    _require(n_traj <= MAX_PATHS, "n_traj", f"must be <= {MAX_PATHS}: paths beyond it have no random stream")

    seed = _as_int(data.get("seed", defaults.seed), "seed")
    _require(0 <= seed < 2**64, "seed", "must be in [0, 2**64)")

    max_steps = _as_int(data.get("max_steps", defaults.max_steps), "max_steps")
    _require(max_steps >= 1, "max_steps", "must be >= 1")
    kernel = build_benchmark(spec)
    for x0 in x_grid:  # every state a path can reach must fit int64
        try:
            check_int64(kernel, x0, max_steps)
        except InvalidParameterError as exc:
            raise ConfigError(f"config field '{'x_grid' if exc.name == 'x0' else exc.name}': {exc}") from exc

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
    _known_fields(output, OUTPUT_FIELDS, "output.")
    outputs: dict[str, Optional[str]] = {}
    for key in OUTPUT_FIELDS:  # every field's type first, then the files they name
        value = outputs[key] = output.get(key, getattr(defaults, key))
        optional = key == "trajectories_csv"  # the one output a command may go without
        _require((optional and value is None) or (isinstance(value, str) and value), f"output.{key}",
                 "must be null or a non-empty string" if optional else "must be a non-empty string")
    named: dict[Path, str] = {}  # each file, resolved, and the first field that names it
    for key, value in outputs.items():
        if value is not None:
            name = f"output.{key}"
            _require("\0" not in value, name, "must not hold a NUL byte")  # resolve() raises on one
            target = Path(value).resolve()
            _require(target not in named, name, f"names the same file as {named.get(target)}")
            named[target] = name

    return ExperimentConfig(
        spec=spec, x_grid=x_grid, m_list=m_list, n_traj=n_traj, seed=seed,
        max_steps=max_steps, epsilon=epsilon, threads=threads, **outputs,
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


def _finite(value: Any) -> Any:
    """value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _dump_json(doc: dict[str, Any], path: Optional[str]) -> None:
    """Write doc to path, or print it, as strict JSON: a non-finite float is null."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float: only then is the copy without one made
        text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def write_verdicts_csv(path: str, report: mc_engine.VerificationReport) -> None:
    rows = _verdict_rows(report)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_trajectories_csv(path: str) -> Iterator[TrajectoryDump]:
    """Parse a trajectory dump a chunk of rows at a time; an unreadable file or a malformed line raises ConfigError.

    :func:`markovup.csv_io.read_trajectories_csv` reads the file.
    """
    try:
        yield from csv_io.read_trajectories_csv(path)
    except csv_io.MalformedDump as exc:
        raise ConfigError(f"config field 'output.trajectories_csv': {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config field 'output.trajectories_csv': cannot read {path}: {exc}") from exc


# ------------------------------------------------------------- subcommands


def cmd_certify(config: ExperimentConfig, out: Optional[str]) -> int:
    cert = certify(config.spec, m_max=max(config.m_list))
    _dump_json(cert.to_dict(), out)
    return EXIT_OK


def cmd_bounds(config: ExperimentConfig, out: Optional[str]) -> int:
    spec = config.spec
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


def _records(config: ExperimentConfig, kernel: BenchmarkKernel, task_index: int, paths: BinaryIO,
             dump: Optional[BinaryIO]) -> Iterator[mc_engine.RecordColumns]:
    """Simulate one start state's paths a block at a time; write each block's rows, then yield its records.

    The rows go to paths.csv and, if given, the dump, each path numbered on from the block before.
    """
    x0, first = config.x_grid[task_index], 0  # path id of the block's first path
    blocks = mc_engine.simulate_blocks(kernel, x0, config.n_traj, config.seed, config.max_steps, task_index)
    for block in blocks:
        records = mc_engine.reduce_block(block)
        paths.writelines(csv_io.paths_rows(first, records))
        if dump is not None:
            dump.writelines(csv_io.dump_rows(x0, first, block))
        first += len(records)
        del block  # not held while the next block is simulated
        yield records


def _written_records(
    config: ExperimentConfig, kernel: BenchmarkKernel, dump_path: Optional[str]
) -> Iterator[Iterator[mc_engine.RecordColumns]]:
    """Open paths.csv, and the dump if a path is given, write their headers, and yield each start state's records.

    The files are closed when this generator runs to its end.
    """
    with open(config.paths_csv, "wb") as paths, (open(dump_path, "wb") if dump_path else nullcontext()) as dump:
        paths.write(csv_io.PATHS_HEADER)
        if dump is not None:
            dump.write(csv_io.DUMP_HEADER)
        for task_index in range(len(config.x_grid)):
            yield _records(config, kernel, task_index, paths, dump)


def cmd_simulate(config: ExperimentConfig) -> int:
    kernel = build_benchmark(config.spec)
    for records in _written_records(config, kernel, config.trajectories_csv):
        for _ in records:
            pass  # the rows are written as each block's records come
    print(f"wrote {config.paths_csv}", file=sys.stderr)
    return EXIT_OK


def _judge(config: ExperimentConfig, sources: Iterable[Iterable[mc_engine.RecordColumns]]) -> int:
    """Fold and judge each start state's records, write report.json and verdicts.csv, tally them; the exit code."""
    start = time.perf_counter()
    report = mc_engine.verify_records(config.spec, config.x_grid, config.m_list, sources, config.epsilon)
    _dump_json(build_report(config, report), config.report_json)
    write_verdicts_csv(config.verdicts_csv, report)
    elapsed = time.perf_counter() - start
    n_pass = sum(1 for v in report.verdicts if v.passed)
    print(f"{n_pass}/{len(report.verdicts)} verdicts passed in {elapsed:.1f}s -> {config.report_json}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERDICT_FAIL


def cmd_verify(config: ExperimentConfig) -> int:
    """Full pipeline: certify, bounds, simulate, verify, write reports."""
    kernel = build_benchmark(config.spec)
    return _judge(config, _written_records(config, kernel, dump_path=None))


def _blocks_from_dump(
    config: ExperimentConfig, runs: Iterable[TrajectoryDump]
) -> Iterator[tuple[int, PathBlock]]:
    """The dumped paths as (task index, block), in file order, each run checked against the config as it comes.

    Rows must come in the one order simulate writes: each x0 of the grid in
    turn, with path ids 0..n_traj-1 in order, so row i is path
    i % n_traj from x_grid[i // n_traj].  Each row must also be at the
    config's floor_n, and must have run the config's max_steps if capped
    and at most that many steps if not; the first row that does not names
    its x0 and path id.  A run is one start's block, as the grid's x0 values are distinct.
    """
    n_traj, grid = config.n_traj, np.array(config.x_grid, dtype=np.int64)
    first = 0  # the index of the run's first row
    for dump in runs:
        block = dump.block
        row = np.arange(first, first + block.steps.size)
        task = np.minimum(row // n_traj, grid.size - 1)
        failure = first_failure((
            (row >= grid.size * n_traj, f"is past the last path (x0={grid[-1]}, path_id={n_traj - 1})"),
            ((dump.x0 != grid[task]) | (dump.path_id != row % n_traj),
             "stands where simulate writes (x0={x0}, path_id={path_id})"),
            (np.full(row.size, block.floor_n != config.spec.floor_n),
             f"has floor_n={block.floor_n}, config floor_n={config.spec.floor_n}"),
            (block.capped & (block.steps != config.max_steps),
             f"is capped after {{steps}} steps, config max_steps={config.max_steps}"),
            (~block.capped & (block.steps > config.max_steps),
             f"hits the floor after {{steps}} steps, past config max_steps={config.max_steps}"),
        ))
        if failure is not None:
            r, message = failure
            detail = message.format(x0=grid[task[r]], path_id=row[r] % n_traj, steps=block.steps[r])
            raise ConfigError(f"trajectory dump row (x0={dump.x0}, path_id={dump.path_id[r]}) {detail}")
        yield int(task[0]), block
        first += block.steps.size
    if first < grid.size * n_traj:
        raise ConfigError(f"trajectory dump has no row (x0={grid[first // n_traj]}, path_id={first % n_traj})")


def cmd_report(config: ExperimentConfig) -> int:
    """Recompute estimates and verdicts from a previous trajectory dump."""
    if config.trajectories_csv is None:
        raise ConfigError("config field 'output.trajectories_csv': required by the report command")
    # one group of blocks per start state, in x_grid order, each folded and dropped as the dump is read
    blocks = _blocks_from_dump(config, read_trajectories_csv(config.trajectories_csv))
    return _judge(config, (
        map(mc_engine.reduce_block, map(itemgetter(1), group))
        for _, group in itertools.groupby(blocks, key=itemgetter(0))
    ))


def _guarded(command: Callable[[], int]) -> int:
    """Run a command; input it cannot serve, or a file it cannot write, ends it with exit 1 and an error line."""
    try:
        return command()
    except (ConfigError, mc_engine.AssumptionsFailError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except InvalidParameterError as exc:  # a model the bounds cannot serve; the config checks the rest
        print(f"error: config field 'model.{exc.name}': {exc}", file=sys.stderr)
    except bound_calc.SeriesLengthError as exc:  # a series at a or q_bar near 1, or q_bar's product at r near 1
        print(f"error: config field 'model': too near critical for certified bounds: {exc}", file=sys.stderr)
    except bound_calc.StartRangeError as exc:
        print(f"error: config field 'x_grid': start state too large: {exc}", file=sys.stderr)
    except bound_calc.BoundRangeError as exc:
        print(f"error: config field 'm_list': moment order too large: {exc}", file=sys.stderr)
    return EXIT_USAGE


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


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


@functools.cache
def _set_up_process() -> None:
    """Freeze the collector, unless the caller has, and fix malloc's thresholds under glibc; at most once.

    Unless the heap was frozen already, every object the garbage collector
    tracks now, chiefly the ~25,000 that numpy and scipy build at import,
    moves into its permanent generation (``gc.freeze``).  The interpreter's
    final collections then skip them and the OS takes their memory back at
    exit, which cuts a command's exit time by about three quarters.
    Objects made afterwards are collected as before, but cyclic garbage
    already present, such as an in-process caller's, is never collected.

    glibc serves an allocation past its mmap threshold from fresh pages,
    and hands the free top of its heap back once it passes the trim
    threshold.  Both start at 128 KiB and rise only as larger arrays are
    freed.  An engine refill frees about 1.4 MB of Philox buffers at
    10,000 lanes, and a block in jump form holds no array of states larger
    than them, so a command faulted those pages in again at every refill.
    Allocations up to 32 MiB (glibc's most) now come from the heap, which
    keeps up to 64 MiB free.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and return its exit code; the first call in a process sets it up (:func:`_set_up_process`)."""
    _set_up_process()
    args = build_parser().parse_args(argv)
    return _guarded(lambda: _dispatch(args))


if __name__ == "__main__":
    sys.exit(main())
