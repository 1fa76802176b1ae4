"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its tiny size in plain and traced mode and checks
that each metric BENCHMARK.json lists comes back with its unit, that
failed_frac is 0, that every output check fails when its condition is
forced, and that the speed probe runs.  Finally it checks that the
benchmark refuses to run, without printing a result, in a copy that holds
only BENCHMARK.json and bench/.
Scratch files go under .bench_work/smoke.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench

SMOKE_DIR = bench.WORK_ROOT / "smoke"


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=SMOKE_DIR, capture_output=True, text=True, timeout=170,
    )


def check_workloads(problems: list[str]) -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(bench.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in bench.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run_bench(bench.ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), float):
                    problems.append(f"{label}: metric {metric['name']} missing or without unit: {got}")
            if not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
                problems.append(f"{label}: no 'failed_frac 0' line")
            print(f"ok  {label}: {len(result['metrics'])} metrics, {result['attempted']} runs checked")


def expect_failure(problems: list[str], what: str, fn, *args) -> None:
    try:
        fn(*args)
    except bench.CheckFailed as exc:
        print(f"ok  forced {what}: {exc}")
        return
    problems.append(f"check did not fail when forced: {what}")


def check_forced_failures(problems: list[str]) -> None:
    rep_dir = bench.WORK_ROOT / "grid_default-t0" / "rep"
    good = bench.load_outputs(rep_dir)
    expected = good.report["timing"]["paths_simulated"]

    crashed = bench.ChildRun(code=1, wall_s=0.0, cpu_s=0.0, maxrss_mb=0.0, t_spawn=0.0,
                             stdout="", stderr="Traceback\nModuleNotFoundError: markovup\n")
    expect_failure(problems, "non-zero exit", bench.check_exit, crashed, "markovup verify")
    expect_failure(problems, "child without its times", bench.child_times, crashed, "markovup verify")

    broken = SMOKE_DIR / "broken"
    broken.mkdir(parents=True, exist_ok=True)
    for name in ("report.json", "verdicts.csv"):
        (broken / name).unlink(missing_ok=True)
    expect_failure(problems, "missing report.json", bench.load_outputs, broken)
    (broken / "report.json").write_bytes(good.report_bytes)
    expect_failure(problems, "missing verdicts.csv", bench.load_outputs, broken)
    (broken / "verdicts.csv").write_bytes(good.verdicts_bytes)
    (broken / "report.json").write_bytes(good.report_bytes[:-10])
    expect_failure(problems, "unparseable report.json", bench.load_outputs, broken)

    expect_failure(problems, "paths_simulated off by one", bench.check_paths, good, expected + 1)

    edited = bytearray(good.report_bytes)
    at = edited.index(b'"mean": ') + len(b'"mean": ')
    edited[at] = ord("9") if edited[at] != ord("9") else ord("8")
    expect_failure(problems, "report.json with one edited byte", bench.check_same_bytes,
                   "report.json between runs at one seed", bytes(edited), good.report_bytes)
    expect_failure(problems, "two-worker report with one edited byte", bench.check_same_bytes,
                   "report.json against the 2-worker run", bytes(edited), good.report_bytes)
    expect_failure(problems, "replayed report with one edited byte", bench.check_same_except_config,
                   json.loads(bytes(edited)), good.report)

    echo_only = json.loads(good.report_bytes)
    echo_only["config"]["output"]["trajectories_csv"] = "trajectories.csv"
    try:
        bench.check_same_except_config(echo_only, good.report)
        print("ok  a report differing only in its config echo passes")
    except bench.CheckFailed as exc:
        problems.append(f"config-echo difference was flagged: {exc}")


def check_speed_probe(problems: list[str]) -> None:
    with bench.SpeedProbe() as probe:
        time.sleep(0.3)
        t = time.monotonic()
        scale = probe.scale(t - 0.25, t - 0.05)
    if not scale > 0:
        problems.append(f"speed probe gave scale {scale}")
    else:
        print(f"ok  speed probe: scale {scale:.3f} over 0.2 s, {len(probe.units)} units")


def check_stripped_copy(problems: list[str]) -> None:
    stripped = SMOKE_DIR / "stripped"
    if stripped.exists():
        shutil.rmtree(stripped)
    stripped.mkdir(parents=True)
    shutil.copy2(bench.ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    shutil.copytree(bench.BENCH_DIR, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(stripped, "grid_default", 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"stripped copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok  stripped copy refused: exit {proc.returncode}")


def main() -> int:
    SMOKE_DIR.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    check_workloads(problems)
    check_forced_failures(problems)
    check_speed_probe(problems)
    check_stripped_copy(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
