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

from . import bound_calc, csv_io, mc_engine
from .csv_io import TrajectoryDump, first_failure, write_paths_csv, write_trajectories_csv
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


def write_verdicts_csv(path: str, report: mc_engine.VerificationReport) -> None:
    rows = _verdict_rows(report)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_trajectories_csv(path: str) -> TrajectoryDump:
    """Parse a trajectory dump into columns; an unreadable file or a malformed line raises ConfigError.

    :func:`markovup.csv_io.read_trajectories_csv` reads the file.
    """
    try:
        return csv_io.read_trajectories_csv(path)
    except csv_io.MalformedDump as exc:
        raise ConfigError(f"config field 'output.trajectories_csv': {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config field 'output.trajectories_csv': cannot read {path}: {exc}") from exc


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
    floor_n, and a row must have run the config's max_steps if capped and at
    most that many steps if not; the first row that does not names its x0
    and path id.  A start state whose rows come in path order, as simulate
    writes them, shares the dump's states.
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
    failure = first_failure((
        (dump.floor_n != config.floor_n, f"has floor_n={{floor_n}}, config floor_n={config.floor_n}"),
        (task < 0, f"starts outside config x_grid {list(config.x_grid)}"),
        (~known | repeat, f"is duplicated or outside path ids 0..{n_traj - 1}"),
        (dump.capped & (dump.steps != config.max_steps),
         f"is capped after {{steps}} steps, config max_steps={config.max_steps}"),
        (~dump.capped & (dump.steps > config.max_steps),
         f"hits the floor after {{steps}} steps, past config max_steps={config.max_steps}"),
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
            PathBlock(config.floor_n, state_array(states[bounds[lo]:bounds[hi]]), steps[lo:hi], capped[lo:hi])
            for lo, hi in zip(edges, edges[1:])
        ]
    return blocks_by_x


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
