"""End-to-end and per-layer benchmark of the markovup command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs the real CLI (``markovup.cli.main``, as ``python -m
markovup.cli`` does) as a child process on a config generated from
``--seed``, in a scratch directory under ``.bench_work/`` of the checkout.
The package is found through an absolute ``src`` path on the child's
PYTHONPATH, derived from this file's location, so no install is needed and
any cwd works.

``--trace 0`` repeats the workload until ``--seconds`` are spent, with a
speed probe on the commands' core scaling each run's times, and reports the
median of each end-to-end metric.  ``--trace 1`` runs the
workload through ``traced_child.py`` once per level (no hooks, per-path
hooks, per-step hooks), repeats the first two levels until ``--seconds``
are spent, and reports per-layer metrics plus the tracing overhead of
each level.  Every run's outputs are checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 120.0
MIN_REPS = 3
MAX_REPS = 40

# A shared host's speed drifts by up to 2x over seconds to minutes, and
# every time metric drifts with it, one core apart from the other.  During
# the timed runs this process and the commands it starts are pinned to one
# core, where a thread of this process wakes every PROBE_SLEEP_S to time a
# fixed unit of interpreter work, about 0.5 ms.  Each of a command's times is
# scaled by REFERENCE_UNIT_S over the median unit time in the same interval:
# the times reported are those of a core that runs the unit in
# REFERENCE_UNIT_S.  See NOTES.md.
PROBE_LOOPS = 6_000
PROBE_SLEEP_S = 0.01
REFERENCE_UNIT_S = 0.0005
MIN_PROBE_UNITS = 5

# Runs one CLI command as `python -m markovup.cli ARGS` does (import the
# module, call main), and writes to stderr when set-up ended (markovup.cli
# imported and the config parsed) and when the command returned, as
# CLOCK_MONOTONIC readings the parent can compare with its spawn time.  The
# config path is the last argument of every command the benchmark runs.
CLI_CHILD = (
    "import sys, time\n"
    "import markovup.cli as cli\n"
    "cli.load_config(sys.argv[-1])\n"
    "t_setup = time.monotonic()\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stderr.write(f'\\nbench-times {t_setup!r} {time.monotonic()!r}\\n')\n"
    "sys.exit(code)\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_traj: int
    tiny_n_traj: int
    x_grid: Optional[tuple[int, ...]] = None  # None: the CLI's built-in grid
    dump_replay: bool = False
    # a direct verify at the same seed, run once and not timed, whose
    # report the timed runs' reports must match
    reference: Optional[str] = None  # "bytes" | "all-but-config"
    reference_threads: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # the 2-worker reference drives the worker pool and checks that the
        # report does not depend on the worker count
        Workload("grid_default", n_traj=10_000, tiny_n_traj=40, reference="bytes",
                 reference_threads=2),
        Workload("far_start", n_traj=120, tiny_n_traj=3, x_grid=(1000,)),
        Workload("dump_replay", n_traj=6_000, tiny_n_traj=40, dump_replay=True,
                 reference="all-but-config"),
    )
}


class CheckFailed(Exception):
    """An output check failed; the message says which and why."""


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    t_spawn: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv: list[str], cwd: Path) -> ChildRun:
    """Run one child to completion and collect its own resource usage."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    lock = threading.Lock()
    reaped = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
        with lock:
            reaped = True
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        t_spawn=t0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# ------------------------------------------------------------------ checks


def check_exit(run: ChildRun, what: str) -> None:
    if run.code != 0:
        tail = run.stderr.strip().splitlines()[-3:]
        raise CheckFailed(f"{what} exited {run.code}: {' | '.join(tail)}")


@dataclass
class Outputs:
    report_bytes: bytes
    report: dict
    verdicts_bytes: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report_bytes).hexdigest()


def load_outputs(directory: Path) -> Outputs:
    """Read report.json and verdicts.csv; both must exist and parse."""
    try:
        report_bytes = (directory / "report.json").read_bytes()
        verdicts_bytes = (directory / "verdicts.csv").read_bytes()
    except OSError as exc:
        raise CheckFailed(f"missing output: {exc}") from exc
    try:
        report = json.loads(report_bytes)
        rows = list(csv.DictReader(verdicts_bytes.decode().splitlines()))
    except (ValueError, csv.Error) as exc:
        raise CheckFailed(f"unparseable output in {directory.name}: {exc}") from exc
    if not isinstance(report, dict) or not rows or "passed" not in rows[0]:
        raise CheckFailed(f"malformed report.json or verdicts.csv in {directory.name}")
    return Outputs(report_bytes, report, verdicts_bytes)


def check_paths(outputs: Outputs, expected: int) -> None:
    got = outputs.report.get("timing", {}).get("paths_simulated")
    if got != expected:
        raise CheckFailed(f"timing.paths_simulated is {got}, configured {expected}")


def check_same_bytes(what: str, got: bytes, want: bytes) -> None:
    if got != want:
        raise CheckFailed(f"{what} differs ({len(got)} vs {len(want)} bytes)")


def check_same_except_config(got: dict, want: dict) -> None:
    strip = lambda doc: {k: v for k, v in doc.items() if k != "config"}  # noqa: E731
    if strip(got) != strip(want):
        keys = sorted(k for k in set(got) | set(want) if k != "config" and got.get(k) != want.get(k))
        raise CheckFailed(f"report differs from direct verify outside the config echo: {keys}")


# ------------------------------------------------------------- the workload


@dataclass
class Runner:
    workload: Workload
    seed: int
    tiny: bool
    work: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def n_traj(self) -> int:
        return self.workload.tiny_n_traj if self.tiny else self.workload.n_traj

    @property
    def expected_paths(self) -> int:
        grid = self.workload.x_grid or (6, 10, 20)
        return self.n_traj * len(grid)

    def config(self, dump: bool) -> dict:
        doc: dict = {"seed": self.seed, "n_traj": self.n_traj}
        if self.workload.x_grid is not None:
            doc["x_grid"] = list(self.workload.x_grid)
        if dump:
            doc["output"] = {"trajectories_csv": "trajectories.csv"}
        return doc

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        cfg = self.config(dump=self.workload.dump_replay and name != "reference")
        (path / "config.json").write_text(json.dumps(cfg))
        return path

    def commands(self, reference: bool = False) -> list[list[str]]:
        """CLI argument lists, in order, for one run of the workload."""
        if reference:
            return [["--threads", str(self.workload.reference_threads), "verify", "config.json"]]
        if self.workload.dump_replay:
            return [["simulate", "config.json"], ["report", "config.json"]]
        return [["--threads", "1", "verify", "config.json"]]

    def attempt(self, fn, *args):
        """Run one checked attempt; a failed check is recorded, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))
            return None


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_CHILD, *args]


def child_times(run: ChildRun, what: str) -> tuple[float, float]:
    """Set-up and command seconds of one CLI child, from its stderr."""
    for line in reversed(run.stderr.splitlines()):
        if line.startswith("bench-times "):
            t_setup, t_end = map(float, line.split()[1:3])
            return t_setup - run.t_spawn, t_end - t_setup
    raise CheckFailed(f"{what} did not report its times")


def probe_unit() -> int:
    """The speed probe's fixed unit of work, about 0.5 ms of interpreter loop."""
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Pins the calling thread, and so the commands it starts, to one core,
    and times probe_unit on that core from a thread of its own."""

    def __init__(self) -> None:
        self.units: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._saved = os.sched_getaffinity(0)

    def __enter__(self) -> "SpeedProbe":
        # the thread and every child started from here on inherit the core
        os.sched_setaffinity(0, {min(self._saved)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._saved)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_SLEEP_S):
            t0 = time.monotonic()
            probe_unit()
            self.units.append((t0, time.monotonic()))

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_UNIT_S over the median unit time in [t0, t1], or over
        all units so far when fewer than MIN_PROBE_UNITS fall in it."""
        inside = [u1 - u0 for u0, u1 in self.units if t0 <= u0 and u1 <= t1]
        if len(inside) < MIN_PROBE_UNITS:
            inside = [u1 - u0 for u0, u1 in self.units]
        return REFERENCE_UNIT_S / statistics.median(inside) if inside else 1.0


@dataclass
class Command:
    """One CLI process of a rep: its times as measured, and the probe's
    scale over the whole run, its set-up and its command."""
    wall_s: float
    cpu_s: float
    setup_s: float
    command_s: float  # inside cli.main
    scale: float = 1.0
    setup_scale: float = 1.0
    command_scale: float = 1.0


@dataclass
class Rep:
    commands: list[Command]
    maxrss_mb: float
    outputs: Outputs

    def raw(self, attr: str) -> float:
        return sum(getattr(c, attr) for c in self.commands)

    def scaled(self, attr: str) -> float:
        scale = {"setup_s": "setup_scale", "command_s": "command_scale"}.get(attr, "scale")
        return sum(getattr(c, attr) * getattr(c, scale) for c in self.commands)


def run_plain(runner: Runner, name: str, probe: Optional[SpeedProbe], reference: bool = False) -> Rep:
    """Run the workload's commands once; with ``probe``, scale their times."""
    d = runner.fresh_dir(name)
    commands, rss = [], 0.0
    for args in runner.commands(reference):
        what = f"markovup {' '.join(args)}"
        run = run_child(cli_argv(args), d)
        check_exit(run, what)
        setup, command = child_times(run, what)
        c = Command(run.wall_s, run.cpu_s, setup, command)
        if probe is not None:
            t_setup, t_end = run.t_spawn + setup, run.t_spawn + setup + command
            c.scale = probe.scale(run.t_spawn, run.t_spawn + run.wall_s)
            c.setup_scale = probe.scale(run.t_spawn, t_setup)
            c.command_scale = probe.scale(t_setup, t_end)
        commands.append(c)
        rss = max(rss, run.maxrss_mb)
    outputs = load_outputs(d)
    check_paths(outputs, runner.expected_paths)
    return Rep(commands, rss, outputs)


def check_against_reference(runner: Runner, rep: Rep, ref: Optional[Rep], first: Optional[Rep]) -> Rep:
    if first is not None:
        check_same_bytes("report.json between runs at one seed",
                         rep.outputs.report_bytes, first.outputs.report_bytes)
    if ref is None:
        return rep
    if runner.workload.reference == "bytes":
        check_same_bytes(f"report.json against the {runner.workload.reference_threads}-worker run",
                         rep.outputs.report_bytes, ref.outputs.report_bytes)
    else:
        check_same_except_config(rep.outputs.report, ref.outputs.report)
        check_same_bytes("verdicts.csv against direct verify",
                         rep.outputs.verdicts_bytes, ref.outputs.verdicts_bytes)
    return rep


def measure_plain(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str]]:
    start = time.monotonic()
    min_reps = 2 if runner.tiny else MIN_REPS
    ref = None
    if runner.workload.reference:
        # before the probe pins this process: the reference may use 2 cores
        ref = runner.attempt(run_plain, runner, "reference", None, True)
    reps: list[Rep] = []
    tries = 0
    with SpeedProbe() as probe:
        while tries < MAX_REPS:
            t0 = time.monotonic()
            rep = runner.attempt(
                lambda: check_against_reference(runner, run_plain(runner, "rep", probe), ref,
                                                reps[0] if reps else None)
            )
            tries += 1
            if rep is not None:
                reps.append(rep)
            now = time.monotonic()
            if tries >= min_reps and now - start + (now - t0) > seconds:
                break
    if not reps:
        return {}, []

    def med(values) -> float:
        return statistics.median(list(values))

    # every rep's report has the bytes of the first, so one has the counts
    timing = reps[0].outputs.report["timing"]
    command_s = med(r.scaled("command_s") for r in reps)
    metrics = {
        "setup_s": med(c.setup_s * c.setup_scale for r in reps for c in r.commands),
        "wall_s": med(r.scaled("wall_s") for r in reps),
        "cpu_s": med(r.scaled("cpu_s") for r in reps),
        "paths_per_s": timing["paths_simulated"] / command_s,
        "steps_per_s": timing["steps_simulated"] / command_s,
        "peak_rss_mb": med(r.maxrss_mb for r in reps),
    }
    notes = [
        f"reps {len(reps)}; the times below are as measured, the metrics scaled",
        f"probe scale   {[round(c.scale, 4) for r in reps for c in r.commands]}",
        f"rep wall_s    {[round(r.raw('wall_s'), 4) for r in reps]}",
        f"rep command_s {[round(r.raw('command_s'), 4) for r in reps]}",
        f"setup_s       {[round(c.setup_s, 4) for r in reps for c in r.commands]}",
        f"report_sha256 {sorted({r.outputs.sha256 for r in reps})}",
    ]
    return metrics, notes


# ------------------------------------------------------------ traced runs

COARSE, DEEP = 1, 2


@dataclass
class Pass:
    wall_s: float = 0.0
    command_s: float = 0.0  # inside cli.main, without interpreter start-up
    spans: list = field(default_factory=list)
    sums: dict = field(default_factory=dict)
    maxes: dict = field(default_factory=dict)
    sim_records: list = field(default_factory=list)
    kernel_dists: int = 0
    bytes_written: int = 0
    outputs: Optional[Outputs] = None


def _snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir() if p.is_file()}


def run_traced(runner: Runner, level: int, base: Optional[Pass], reference: bool = False) -> Pass:
    """One traced run of the workload, or of its reference command; its
    report must match the untraced pass."""
    d = runner.fresh_dir("reference" if reference else f"trace{level}")
    child = str(BENCH_DIR / "traced_child.py")
    p = Pass()
    for i, args in enumerate(runner.commands(reference)):
        out = d / f"trace{i}.json"
        before = _snapshot(d)
        run = run_child([sys.executable, child, str(level), str(out), "--", *args], d)
        check_exit(run, f"traced markovup {' '.join(args)}")
        after = _snapshot(d)
        p.bytes_written += sum(
            size for name, (size, mtime) in after.items()
            if before.get(name) != (size, mtime)
            and name not in ("child.out", "child.err") and not name.startswith("trace")
        )
        doc = json.loads(out.read_text())
        p.wall_s += doc["t_end"] - run.t_spawn
        p.command_s += doc["t_end"] - doc["t_main"]
        p.spans += doc["spans"]
        for key, value in doc["sums"].items():
            p.sums[key] = p.sums.get(key, 0.0) + value
        for key, value in doc["maxes"].items():
            p.maxes[key] = max(p.maxes.get(key, value), value)
        p.sim_records += doc["sim_records"]
        p.kernel_dists += doc["kernel_dists"]
    p.outputs = load_outputs(d)
    check_paths(p.outputs, runner.expected_paths)
    if base is not None:
        check_same_bytes(f"report.json under trace level {level}",
                         p.outputs.report_bytes, base.outputs.report_bytes)
    return p


def self_times(spans: list) -> dict[str, float]:
    """Span duration minus the union of its children's intervals, per name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out: dict[str, float] = {}
    for sid, _parent, name, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    return out


def layer_metrics(coarse: Pass, deep: Pass, pool: Optional[list] = None) -> dict[str, float]:
    """Per-layer metrics of a per-path and a per-step pass; ``pool``, the
    simulate_records tallies of a multi-worker pass, gives the worker CPU
    use when the workload has one."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for _sid, _parent, name, t0, t1 in coarse.spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
    c = lambda name: float(calls.get(name, 0))  # noqa: E731
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    d = lambda key: float(deep.sums.get(key, 0.0))  # noqa: E731
    steps = float(coarse.sums.get("process_core.steps", 0.0))
    next_calls = d("model_zoo.BenchmarkKernel.next.calls")
    sim_records = coarse.sim_records if pool is None else pool
    workers_wall = sum(threads * wall for threads, wall, _cpu in sim_records)
    workers_cpu = sum(cpu for _threads, _wall, cpu in sim_records)
    m = {
        "streams.path_stream.calls": c("streams.path_stream"),
        "streams.path_stream.busy_s": b("streams.path_stream"),
        "streams.path_stream.us_per_call":
            1e6 * b("streams.path_stream") / c("streams.path_stream") if c("streams.path_stream") else 0.0,
        "process_core.simulate_path.calls": c("process_core.simulate_path"),
        "process_core.simulate_path.busy_s": b("process_core.simulate_path"),
        "process_core.steps": steps,
        "process_core.us_per_step": 1e6 * b("process_core.simulate_path") / steps if steps else 0.0,
        "process_core.max_window_len": float(deep.maxes.get("process_core.max_window_len", 0)),
        "process_core.sample_step.busy_s": d("process_core.sample_step.busy_s"),
        "process_core.window_update.busy_s": d("process_core.window_update.busy_s"),
        "process_core.StepDistribution.quantile.busy_s": d("process_core.StepDistribution.quantile.busy_s"),
        "model_zoo.BenchmarkKernel.next.calls": next_calls,
        "model_zoo.BenchmarkKernel.next.busy_s": d("model_zoo.BenchmarkKernel.next.busy_s"),
        "model_zoo.kernel_cache_entries": float(deep.kernel_dists),
        "model_zoo.kernel_cache_hit_ratio": 1.0 - deep.kernel_dists / next_calls if next_calls else 0.0,
        "model_zoo.certify.calls": c("model_zoo.certify"),
        "path_analysis.decompose_attempts.calls": c("path_analysis.decompose_attempts"),
        "path_analysis.decompose_attempts.busy_s": b("path_analysis.decompose_attempts"),
        "path_analysis.states_scanned": float(coarse.sums.get("path_analysis.states_scanned", 0.0)),
        "mc_engine.records_held": float(coarse.maxes.get("mc_engine.records_held", 0)),
        "mc_engine.samples_folded": float(coarse.sums.get("mc_engine.samples_folded", 0.0)),
        "mc_engine.worker_cpu_util": workers_cpu / workers_wall if workers_wall else 0.0,
        "bound_calc.make_bound_set.calls": c("bound_calc.make_bound_set"),
        "bound_calc.make_bound_set.busy_s": b("bound_calc.make_bound_set"),
        "cli.bytes_written": float(coarse.bytes_written),
        "cli.bytes_read": float(coarse.sums.get("cli.bytes_read", 0.0)),
    }
    for name in ("simulate_records", "record_from_trajectory", "estimates_from_records",
                 "verdicts_for_records", "segment_breakdown"):
        m[f"mc_engine.{name}.busy_s"] = b(f"mc_engine.{name}")
    for name in ("load_config", "build_report", "write_paths_csv", "write_verdicts_csv",
                 "write_trajectories_csv", "read_trajectories_csv"):
        m[f"cli.{name}.busy_s"] = b(f"cli.{name}")
    return m


def measure_traced(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str]]:
    """One pass per level, then untraced and per-path passes until time is up."""
    start = time.monotonic()
    passes: dict[int, list[Pass]] = {0: [], COARSE: [], DEEP: []}
    took: dict[int, float] = {}

    def run(level: int) -> bool:
        t0 = time.monotonic()
        base = passes[0][0] if passes[0] else None
        p = runner.attempt(run_traced, runner, level, base)
        if p is not None:
            passes[level].append(p)
        took[level] = time.monotonic() - t0
        return p is not None

    if not all(run(level) for level in (0, COARSE, DEEP)):
        return {}, []
    # room for one more round, and for the pool pass after it
    pool_passes = 1 if runner.workload.reference_threads > 1 else 0
    reserve = lambda: took[0] + took[COARSE] * (1 + pool_passes)  # noqa: E731
    while not runner.tiny and time.monotonic() - start + reserve() <= seconds:
        if not (run(0) and run(COARSE)):
            return {}, []
    pool = None
    if pool_passes:
        # the worker pool runs only in the reference command
        pool_pass = runner.attempt(run_traced, runner, COARSE, passes[0][0], True)
        if pool_pass is None:
            return {}, []
        pool = pool_pass.sim_records
    base_wall = statistics.median(p.wall_s for p in passes[0])
    base_command = statistics.median(p.command_s for p in passes[0])
    coarse = sorted(passes[COARSE], key=lambda p: p.wall_s)[(len(passes[COARSE]) - 1) // 2]
    own = self_times(coarse.spans)
    notes = [
        f"passes: untraced {len(passes[0])}, per-path {len(passes[COARSE])}, per-step {len(passes[DEEP])}",
        f"report_sha256 ['{passes[0][0].outputs.sha256}']",
        "self time (median per-path pass), s:",
    ]
    notes += [f"  {name:<40} {value:.4f}" for name, value in sorted(own.items(), key=lambda kv: -kv[1])]
    metrics = layer_metrics(coarse, passes[DEEP][0], pool)
    metrics.update({
        "trace.untraced_wall_s": base_wall,
        "trace.untraced_command_s": base_command,
        "trace.coarse.command_s": coarse.command_s,
        "trace.coarse.overhead_s": statistics.median(p.wall_s for p in passes[COARSE]) - base_wall,
        "trace.deep.overhead_s": passes[DEEP][0].wall_s - base_wall,
    })
    return metrics, notes


# -------------------------------------------------------------------- main


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "markovup" / "cli.py").is_file():
        print(f"error: markovup sources not found under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.tiny, WORK_ROOT / f"{workload.name}-t{args.trace}")
    if args.trace:
        values, notes = measure_traced(runner, args.seconds)
    else:
        values, notes = measure_plain(runner, args.seconds)
    if not values:
        print(f"error: no run of {workload.name} completed: {runner.failures}", file=sys.stderr)
        return 1

    units = metric_units(bool(args.trace))
    failed = len(runner.failures)
    print(f"workload {workload.name}  seed {args.seed}  n_traj {runner.n_traj}  "
          f"trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed / runner.attempted:>14.6g} ratio "
          f"({failed}/{runner.attempted})")
    for message in runner.failures:
        print(f"  FAILED: {message}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _exit_on_sigterm(signum, frame) -> None:
    # unwinds through run_child, which kills and reaps the running child
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
