"""Run one markovup CLI command in-process, with per-layer hooks installed.

Usage: traced_child.py LEVEL OUT_JSON -- CLI_ARGS...

LEVEL 0 installs nothing and only records when the command returned, so
the traced levels have a like-for-like baseline.  LEVEL 1 wraps every
per-x0, per-path and I/O function at the names its callers look up and
keeps one span per call.  LEVEL 2 adds the four per-step functions, which
are tallied (calls, busy time) rather than kept as spans: there are
hundreds of thousands of them and a span each would distort the per-path
self times and memory.

The program itself is not modified: hooks replace module attributes and
class attributes of the imported package before the command runs.  When
the command returns, the spans and counters go to OUT_JSON.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    """In-memory spans and per-thread counters, written once at exit."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_sums: list[defaultdict] = []
        self._thread_maxes: list[dict] = []
        # id of the open per-x0 stage span; worker threads parent their
        # per-path spans to it because their own stacks start empty
        self.stage = 0
        self.worker_cpu: list[float] = []
        self.sim_records: list[tuple[int, float, float]] = []  # threads, wall, cpu
        self.kernel_dists: dict[int, object] = {}

    def _tls(self):
        tls = self._local
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.sums = defaultdict(float)
            tls.maxes = {}
            self._thread_sums.append(tls.sums)
            self._thread_maxes.append(tls.maxes)
        return tls

    def span(self, name, fn, after=None, stage=False):
        """Wrap fn so each call records a span; after(tls, args, kwargs, result).

        A stage span becomes the parent of spans opened by worker threads
        while it is open.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = tracer._tls()
            parent = tls.stack[-1] if tls.stack else tracer.stage
            sid = next(tracer._ids)
            tls.stack.append(sid)
            if stage:
                outer_stage, tracer.stage = tracer.stage, sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tls.stack.pop()
                if stage:
                    tracer.stage = outer_stage
                tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(tls, args, kwargs, result)
            return result

        return wrapper

    def tally(self, name, fn, after=None):
        """Wrap a per-step function: count calls and busy time, keep no span."""
        tracer = self
        calls_key, busy_key = f"{name}.calls", f"{name}.busy_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            tls = tracer._tls()
            tls.sums[calls_key] += 1
            tls.sums[busy_key] += t1 - t0
            if after is not None:
                after(tls, args, kwargs, result)
            return result

        return wrapper

    def simulate_records(self, fn):
        """Stage span for one start state, plus the CPU its workers used."""
        tracer = self
        signature = inspect.signature(fn)
        traced = self.span("mc_engine.simulate_records", fn, stage=True)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            threads = bound.arguments.get("threads", 1)
            first_chunk = len(tracer.worker_cpu)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            result = traced(*args, **kwargs)
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - cpu0 + sum(tracer.worker_cpu[first_chunk:])
            tracer.sim_records.append((threads, wall, cpu))
            return result

        return wrapper

    def timed_pool(self):
        """ThreadPoolExecutor whose mapped calls report their thread CPU time."""
        tracer = self

        class TimedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                def timed(*args):
                    c0 = time.thread_time()
                    try:
                        return fn(*args)
                    finally:
                        tracer.worker_cpu.append(time.thread_time() - c0)

                return super().map(timed, *iterables, **kwargs)

        return TimedPool

    def dump(self, path: str, exit_code: int, t_main: float, t_end: float) -> None:
        sums: dict[str, float] = defaultdict(float)
        for part in self._thread_sums:
            for key, value in part.items():
                sums[key] += value
        maxes: dict[str, float] = {}
        for part in self._thread_maxes:
            for key, value in part.items():
                maxes[key] = max(maxes.get(key, value), value)
        doc = {
            "exit": exit_code,
            "t_main": t_main,
            "t_end": t_end,
            "spans": self.spans,
            "sums": sums,
            "maxes": maxes,
            "sim_records": self.sim_records,
            "kernel_dists": len(self.kernel_dists),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(name: str, position: int):
    """Read one argument of a hooked call, positional or by keyword."""
    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[position] if len(args) > position else None
    return get


def _file_size(path) -> int:
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


def _patch(targets, attr: str, make) -> None:
    """Replace attr on every target that has it, wrapping the first original."""
    present = [t for t in targets if hasattr(t, attr)]
    if not present:
        return
    wrapped = make(getattr(present[0], attr))
    for target in present:
        setattr(target, attr, wrapped)


def install(tracer: Tracer, level: int) -> None:
    from markovup import bound_calc, cli, mc_engine, model_zoo, path_analysis, process_core, streams

    def add(key, value):
        def after(tls, args, kwargs, result):
            tls.sums[key] += value(args, kwargs, result)
        return after

    def largest(key, value):
        def after(tls, args, kwargs, result):
            v = value(args, kwargs, result)
            if v > tls.maxes.get(key, 0):
                tls.maxes[key] = v
        return after

    def records_in(mapping) -> int:
        return sum(len(v) for v in mapping.values()) if isinstance(mapping, dict) else 0

    span = tracer.span
    # per-path layer
    _patch([streams, mc_engine, cli], "path_stream",
           lambda f: span("streams.path_stream", f))
    _patch([process_core, mc_engine, cli], "simulate_path",
           lambda f: span("process_core.simulate_path", f,
                          add("process_core.steps", lambda a, k, r: len(r.states) - 1)))
    _patch([mc_engine], "record_from_trajectory",
           lambda f: span("mc_engine.record_from_trajectory", f))
    traj_arg = _arg("traj", 0)
    _patch([path_analysis], "decompose_attempts",
           lambda f: span("path_analysis.decompose_attempts", f,
                          add("path_analysis.states_scanned",
                              lambda a, k, r: len(traj_arg(a, k).states))))
    # per-x0 and fold layer
    _patch([mc_engine], "simulate_records", tracer.simulate_records)
    _patch([mc_engine], "ThreadPoolExecutor", lambda f: tracer.timed_pool())
    _patch([mc_engine], "estimates_from_records",
           lambda f: span("mc_engine.estimates_from_records", f,
                          add("mc_engine.samples_folded",
                              lambda a, k, r: sum(e.n_samples for e in r.values()))))
    for name in ("verdicts_for_records", "segment_breakdown", "verify"):
        _patch([mc_engine], name, lambda f, n=name: span(f"mc_engine.{n}", f))
    _patch([model_zoo, mc_engine, cli], "certify", lambda f: span("model_zoo.certify", f))
    _patch([bound_calc], "make_bound_set", lambda f: span("bound_calc.make_bound_set", f))
    # command and I/O layer
    report_arg = _arg("report", 1)
    _patch([cli], "build_report",
           lambda f: span("cli.build_report", f,
                          largest("mc_engine.records_held",
                                  lambda a, k, r: records_in(getattr(report_arg(a, k), "records_by_x", None)))))
    paths_arg = _arg("records_by_x", 1)
    _patch([cli], "write_paths_csv",
           lambda f: span("cli.write_paths_csv", f,
                          largest("mc_engine.records_held",
                                  lambda a, k, r: records_in(paths_arg(a, k)))))
    for name in ("write_verdicts_csv", "write_trajectories_csv",
                 "cmd_verify", "cmd_simulate", "cmd_report"):
        _patch([cli], name, lambda f, n=name: span(f"cli.{n}", f))
    for name in ("load_config", "read_trajectories_csv"):
        path_arg = _arg("path", 0)
        _patch([cli], name,
               lambda f, n=name, p=path_arg: span(f"cli.{n}", f,
                                                  add("cli.bytes_read", lambda a, k, r: _file_size(p(a, k)))))
    if level < 2:
        return
    # per-step layer: tallies only
    tally = tracer.tally
    _patch([process_core], "sample_step", lambda f: tally("process_core.sample_step", f))
    _patch([process_core], "window_update",
           lambda f: tally("process_core.window_update", f,
                           largest("process_core.max_window_len", lambda a, k, r: len(r.values))))

    def remember(tls, args, kwargs, result):
        tracer.kernel_dists[id(result)] = result

    _patch([model_zoo.BenchmarkKernel], "next",
           lambda f: tally("model_zoo.BenchmarkKernel.next", f, remember))
    _patch([process_core.StepDistribution], "quantile",
           lambda f: tally("process_core.StepDistribution.quantile", f))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    level, out, cli_args = int(argv[0]), argv[1], argv[3:]
    from markovup import cli

    tracer = Tracer()
    if level > 0:
        install(tracer, level)
    t_main = time.monotonic()
    code = cli.main(cli_args)
    t_end = time.monotonic()
    tracer.dump(out, code, t_main, t_end)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
