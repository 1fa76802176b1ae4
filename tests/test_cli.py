import csv
import hashlib
import itertools
import json
import math
import random
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from markovup import cli, csv_io, mc_engine, model_zoo, process_core, tau_of
from helpers import cli_env, cli_peak_rss_mb
from oracles import dump_oracle


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "model": {"a": 0.5, "r": 0.5, "s": 0.5},
        "floor_n": 5,
        "x_grid": [6, 10],
        "m_list": [1, 2],
        "n_traj": 400,
        "seed": 7,
        "max_steps": 1000000,
        "epsilon": 1e-10,
        "output": {
            "report_json": str(tmp_path / "report.json"),
            "paths_csv": str(tmp_path / "paths.csv"),
            "verdicts_csv": str(tmp_path / "verdicts.csv"),
        },
    }
    for key, value in overrides.items():
        if key in ("a", "r", "s"):
            doc["model"][key] = value
        elif key.startswith("output_"):
            doc["output"][key[len("output_"):]] = value
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigValidation:
    def test_defaults_load_without_file(self):
        config = cli.load_config(None)
        assert config.n_traj == 100_000
        assert config.x_grid == (6, 10, 20)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "floor_n": 5,\n  oops\n}')
        with pytest.raises(cli.ConfigError, match=r":3:"):
            cli.load_config(str(path))

    def test_out_of_range_parameter_names_field(self, tmp_path):
        # n_traj past the 2**40 paths one stream key can address
        # an infinite epsilon would stop every series at its first term
        # a floor past int64 does not fit the dump's int64 columns
        # no file path holds a NUL byte
        for field, value, name in (
            ("r", 1.0, "model.r"), ("n_traj", 2**40 + 1, "n_traj"), ("epsilon", math.inf, "epsilon"),
            ("floor_n", 2**63, "floor_n"), ("output_report_json", "a\0b", "output.report_json"),
        ):
            path = write_config(tmp_path, **{field: value})
            with pytest.raises(cli.ConfigError, match=name):
                cli.load_config(str(path))

    @pytest.mark.parametrize("field", ["a", "r", "s"])
    def test_parameter_beyond_float_range_names_field(self, tmp_path, capsys, field):
        # a JSON integer too large for a float is out of range, not a traceback
        path = write_config(tmp_path, **{field: 10**400})
        assert cli.main(["certify", str(path)]) == cli.EXIT_USAGE
        assert f"error: config field 'model.{field}': must lie strictly between 0 and 1" in (
            capsys.readouterr().err
        )

    def test_max_steps_keeps_every_state_in_int64(self, tmp_path):
        # at s = 1e-12 one step rises by up to about 3.67e13, so from x0 = 20 a
        # path of 251,061 steps could pass 2**63 - 1
        path = write_config(tmp_path, s=1e-12, x_grid=[20], max_steps=251_060)
        assert cli.load_config(str(path)).max_steps == 251_060
        path = write_config(tmp_path, s=1e-12, x_grid=[20], max_steps=251_061)
        with pytest.raises(cli.ConfigError, match="^config field 'max_steps': max_steps must be at most 251060 "):
            cli.load_config(str(path))

    @pytest.mark.parametrize("command", ["certify", "bounds", "verify"])
    def test_tiny_s_rejected_in_bounded_time(self, tmp_path, command):
        # the config above accepts s = 1e-12, but the jump moments' series at
        # 1 - s would take about 10**13 terms: the bounds stop after
        # bound_calc.MAX_TERMS of them (about 0.2 s), naming the field
        (tmp_path / "config.json").write_text(json.dumps(
            {"model": {"s": 1e-12}, "n_traj": 4, "max_steps": 50, "x_grid": [6]}
        ))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "markovup.cli", command, "config.json"],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=10,
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == cli.EXIT_USAGE
        assert re.fullmatch(r"error: config field 'model\.s': s is too small[^\n]*\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("command", ["certify", "bounds", "verify"])
    def test_small_gap_near_one_rejected_in_bounded_time(self, tmp_path, command):
        # q_bar's product of kappa factors would take about 2e10 of them to
        # certify: it stops after bound_calc.MAX_TERMS, naming the model
        (tmp_path / "config.json").write_text(json.dumps(
            {"model": {"a": 1e-9, "r": 0.999999999}, "n_traj": 4, "max_steps": 50, "x_grid": [6]}
        ))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "markovup.cli", command, "config.json"],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=10,
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == cli.EXIT_USAGE
        assert re.fullmatch(r"error: config field 'model': too near critical[^\n]*\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("command, code, budget_s", [("certify", cli.EXIT_OK, 1), ("verify", cli.EXIT_USAGE, 2)])
    def test_slow_kappa_certified_in_bounded_time(self, tmp_path, monkeypatch, capsys, command, code, budget_s):
        # at r = 1 - 1e-7 the A2 witness lies past 1.2e8 fall lengths, which
        # certify reaches from a closed-form estimate; verify then finds the
        # fall-length series too long to certify
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, r=0.9999999, n_traj=4, max_steps=50, x_grid=[6])
        start = time.perf_counter()
        assert cli.main([command, str(path)]) == code
        assert time.perf_counter() - start < budget_s
        out, err = capsys.readouterr()
        if command == "certify":
            assert json.loads(out)["entries"]["A2"]["data"]["witness_fall_length"] == 124_292_156
        else:
            assert err.startswith("error: config field 'model': too near critical")

    def test_duplicate_start_rejected(self, tmp_path):
        path = write_config(tmp_path, x_grid=[6, 10, 6])
        with pytest.raises(cli.ConfigError, match="x_grid"):
            cli.load_config(str(path))

    def test_repeated_moment_order_rejected(self, tmp_path):
        path = write_config(tmp_path, m_list=[1, 1])
        with pytest.raises(cli.ConfigError, match="m_list"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--seed", "-1")])
    def test_bad_override_names_field(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path)
        assert cli.main([flag, value, "verify", str(path)]) == cli.EXIT_USAGE
        assert f"'{flag[2:]}'" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"floor": 5}')
        with pytest.raises(cli.ConfigError, match="floor"):
            cli.load_config(str(path))
        # a misspelt key inside model or output is named too, and no command
        # runs with the default it would have left in place
        monkeypatch.chdir(tmp_path)
        for doc, field in (
            ({"model": {"A": 0.9}, "n_traj": 50}, "model.A"),
            ({"output": {"report_jsn": "r.json"}, "n_traj": 50}, "output.report_jsn"),
        ):
            path.write_text(json.dumps(doc))
            for command in ("certify", "verify"):
                assert cli.main([command, str(path)]) == cli.EXIT_USAGE
                assert capsys.readouterr() == ("", f"error: config field '{field}': unknown field\n"), command
                assert [p.name for p in tmp_path.iterdir()] == ["c.json"], command

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(cli.ConfigError, match="no/such/file"):
            cli.load_config("no/such/file.json")
        # files that exist but hold no JSON document: a byte that is not UTF-8, and an
        # integer of more digits than int() converts
        for name, content in (
            ("latin1.json", b'{"seed": 7}\xff'), ("digits.json", b'{"seed": ' + b"7" * 5000 + b"}"),
        ):
            path = tmp_path / name
            path.write_bytes(content)
            assert cli.main(["certify", str(path)]) == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(path) in err

    def test_usage_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, r=1.5)
        code = cli.main(["verify", str(path)])
        assert code == cli.EXIT_USAGE
        assert "model.r" in capsys.readouterr().err

    @pytest.mark.parametrize("first, later", [
        ("paths_csv", "trajectories_csv"), ("report_json", "verdicts_csv"), ("report_json", "trajectories_csv"),
    ])
    def test_outputs_naming_one_file_rejected(self, tmp_path, monkeypatch, capsys, first, later):
        # the later field is named, also where the two spell the path apart, and
        # no command writes a file or changes one, such as the dump report would read
        monkeypatch.chdir(tmp_path)
        dump = tmp_path / "same.csv"
        assert cli.main(["simulate", str(write_config(tmp_path, n_traj=10, output_trajectories_csv=str(dump)))]) == 0
        path = write_config(tmp_path, n_traj=10, **{f"output_{first}": str(dump), f"output_{later}": "same.csv"})
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        for command in ("certify", "bounds", "simulate", "verify", "report"):
            assert cli.main([command, str(path)]) == cli.EXIT_USAGE
            assert (f"error: config field 'output.{later}': names the same file as output.{first}"
                    in capsys.readouterr().err), command
            assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files, command

    def test_unwritable_output_is_an_error_line(self, tmp_path, capsys):
        # a file in a directory that does not exist: one error line naming it, exit 1,
        # where the OSError used to escape main as a traceback
        missing = tmp_path / "no" / "dir"
        path = write_config(tmp_path, n_traj=10, output_report_json=str(missing / "r.json"))
        for argv in (["verify", str(path)], ["certify", "--out", str(missing / "x.json"), str(path)]):
            assert cli.main(argv) == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(missing) in err, argv


@pytest.mark.parametrize("command", ["certify", "bounds", "simulate", "verify"])
@pytest.mark.parametrize("field, value", [("s", 1e-17), ("a", 1e-300)])
def test_model_degenerate_in_floating_point_names_field(tmp_path, capsys, command, field, value):
    # 1 - value rounds to 1: the jump law's tail ratio is 1, or q_bar is 0
    path = write_config(tmp_path, n_traj=10, **{field: value})
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: config field 'model.{field}'")
    assert not (tmp_path / "paths.csv").exists()


_LIST_FAULTS = [
    (6, "must be a non-empty list"), ([], "must be a non-empty list"),
    ([6, "7"], "must be an integer"), ([6, 6], "entries must be distinct"),
]


@pytest.mark.parametrize("overrides, field, message", [
    *[pytest.param({"x_grid": raw}, "x_grid", message, id=f"x_grid={raw!r}") for raw, message in _LIST_FAULTS],
    pytest.param({"x_grid": [-1]}, "x_grid", "entries must be non-negative", id="x_grid=[-1]"),
    *[pytest.param({"m_list": raw}, "m_list", message, id=f"m_list={raw!r}") for raw, message in _LIST_FAULTS],
    pytest.param({"m_list": [-1]}, "m_list", "entries must be >= 1", id="m_list=[-1]"),
    pytest.param({"m_list": [0]}, "m_list", "entries must be >= 1", id="m_list=[0]"),
    pytest.param({"model": 0.5}, "model", "must be an object with a, r, s", id="model=0.5"),
    pytest.param({"output_report_json": ""}, "output.report_json", "must be a non-empty string", id="report=''"),
    pytest.param({"output_report_json": 3}, "output.report_json", "must be a non-empty string", id="report=3"),
    pytest.param({"output_trajectories_csv": 3}, "output.trajectories_csv", "must be null or a non-empty string",
                 id="trajectories=3"),
    pytest.param({"output_paths_csv": "a\0b"}, "output.paths_csv", "must not hold a NUL byte", id="paths-NUL"),
    pytest.param({"output_verdicts_csv": "paths.csv"}, "output.verdicts_csv",
                 "names the same file as output.paths_csv", id="one-file-twice"),
    pytest.param({"x_grid": [6, 6], "output_report_json": ""}, "x_grid", "entries must be distinct",
                 id="x_grid-before-output"),
])
def test_config_fault_gives_its_exact_line(tmp_path, monkeypatch, capsys, overrides, field, message):
    # the whole error line, not only the field it names; a config with two
    # faults names the field parse_config checks first
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, **overrides)
    assert cli.main(["certify", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: config field '{field}': {message}\n")


class TestSubcommands:
    def test_certify_prints_json(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["certify", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem_ready"] is True
        assert doc["entries"]["A2"]["status"] == "fails"

    def test_bounds_include_theorem_values(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["bounds", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"1", "2"}
        per_x = doc["1"]["theorem_bound_at_x"]
        assert set(per_x) == {"6", "10"}
        assert per_x["10"]["value"] >= per_x["10"]["display"]

    def test_simulate_writes_paths_csv(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        with open(tmp_path / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 400
        assert set(rows[0]) == {"path_id", "tau", "attempts", "max_state", "capped"}
        assert all(r["capped"] == "0" for r in rows)

    def test_verify_pipeline_outputs(self, tmp_path):
        path = write_config(tmp_path)
        code = cli.main(["verify", str(path)])
        assert code == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {
            "config", "certificate", "bound_sets", "estimates",
            "verdicts", "diagnostics", "warnings", "timing",
        }
        assert all(v["passed"] for v in report["verdicts"])
        assert report["timing"]["capped_paths"] == 0
        breakdown = report["diagnostics"]["10"]
        assert breakdown["rise_length_by_index"]["1"]["n"] > 0
        assert sum(breakdown["attempt_count_hist"].values()) == 400
        with open(tmp_path / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report["verdicts"])

    def test_capped_paths_fail_verdicts(self, tmp_path):
        path = write_config(tmp_path, x_grid=[40], max_steps=4, n_traj=50)
        code = cli.main(["verify", str(path)])
        assert code == cli.EXIT_VERDICT_FAIL
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["timing"]["capped_paths"] > 0
        assert any("capped" in w for w in report["warnings"])
        # 4 steps from 40 cannot reach the floor: every row has an empty tau and the flag 1
        rows = [row.split(",") for row in (tmp_path / "paths.csv").read_text().splitlines()[1:]]
        assert {(tau, flag) for _, tau, _, _, flag in rows} == {("", "1")}

    def test_report_is_strict_json_where_no_verdict_is_issued(self, tmp_path):
        # every path from 60 is capped at 20 steps, so no verdict is issued: each
        # test value and slack, once Infinity and -Infinity, is null, and a parser
        # that refuses those constants reads the report
        path = write_config(tmp_path, n_traj=50, x_grid=[60], max_steps=20, m_list=[1])
        assert cli.main(["verify", str(path)]) == cli.EXIT_VERDICT_FAIL

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(tmp_path / "report.json") as fh:
            report = json.load(fh, parse_constant=reject)
        verdicts = report["verdicts"]
        assert len(verdicts) == 5 and {v["method"] for v in verdicts} == {"not-issued"}
        assert all(v["test_value"] is None and v["slack"] is None for v in verdicts)
        assert any("cannot be issued" in w for w in report["warnings"])

    def test_low_sample_warning(self, tmp_path):
        path = write_config(tmp_path, n_traj=10)
        code = cli.main(["verify", str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_VERDICT_FAIL)
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("low-sample" in w for w in report["warnings"])

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["verify", str(path)])
        first = (tmp_path / "paths.csv").read_text()
        cli.main(["--seed", "123", "verify", str(path)])
        second = (tmp_path / "paths.csv").read_text()
        assert first != second

    def test_threads_do_not_change_results(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--threads", "1", "verify", str(path)])
        first = (tmp_path / "report.json").read_bytes()
        cli.main(["--threads", "4", "verify", str(path)])
        second = (tmp_path / "report.json").read_bytes()
        assert first == second


# sha256 of every file simulate, report and verify write for one small
# config (PINNED_CONFIG), so an engine or writer change that drifts a bit
# fails here.  report.json echoes the output file names, so they are pinned too.
OUTPUT_GOLDEN = {
    "simulate": {
        "paths.csv": "4e236573e84f28d66c970f97be01a6cea7b471a27988a95c47b396ed34cfea81",
        "trajectories.csv": "e9da91480e09a697bfa45da7754908d60a00ab36f6fdcb064cc013a66f17c137",
    },
    "report": {
        "report.json": "8ee84e579dc214b64a18cea81d285f9b3fb50fbf0b62e8394499b2c1bd0c6f28",
        "verdicts.csv": "386971ee05a741627c77e7e43d6bf9e540b193beee2ef26fe27182fe1adb0eb4",
    },
    "verify": {
        "report.json": "8ee84e579dc214b64a18cea81d285f9b3fb50fbf0b62e8394499b2c1bd0c6f28",
        "paths.csv": "4e236573e84f28d66c970f97be01a6cea7b471a27988a95c47b396ed34cfea81",
        "verdicts.csv": "386971ee05a741627c77e7e43d6bf9e540b193beee2ef26fe27182fe1adb0eb4",
    },
}
PINNED_CONFIG = {"n_traj": 3000, "seed": 5, "output": {"trajectories_csv": "trajectories.csv"}}


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PINNED_CONFIG))
    for command, files in OUTPUT_GOLDEN.items():
        assert cli.main([command, str(config)]) == cli.EXIT_OK
        for name, digest in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, (command, name)


# sha256 of the files certify and bounds write with --out, at the built-in
# defaults and at an m_list reaching 10, whose "10" keys sort before "2"
CERTIFY_BOUNDS_GOLDEN = {
    "defaults": (None, {
        "certify": "002cb7c36233bdec2918b525715c1fa7b255d6ac9089c34c48413c1344f36220",
        "bounds": "d055763caa3ac884a1d715f7f5b56ef28d21a2a428a40beacc143d801963e47b",
    }),
    "m_list 1, 2, 10": ({"m_list": [1, 2, 10]}, {
        "certify": "9502aad593d2f821804f40f96b6acc8a2c82140bb9abe3301924b549c2d4a5c3",
        "bounds": "2e85b5bbba67fd8c5dfa4f21a19b8642d885d33d732c5145776d24196b06a0f6",
    }),
}


@pytest.mark.parametrize("case", CERTIFY_BOUNDS_GOLDEN)
def test_certify_and_bounds_bytes_are_pinned(tmp_path, case):
    config, digests = CERTIFY_BOUNDS_GOLDEN[case]
    args = []
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = [str(tmp_path / "config.json")]
    for command, digest in digests.items():
        out = tmp_path / f"{command}.json"
        assert cli.main([command, *args, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


def test_output_bytes_are_pinned_across_process_exits(tmp_path):
    # the same commands as `python -m markovup.cli` children, so every file
    # is checked after a real interpreter exit, not after main() returns
    (tmp_path / "config.json").write_text(json.dumps(PINNED_CONFIG))
    for command, files in OUTPUT_GOLDEN.items():
        proc = subprocess.run(
            [sys.executable, "-m", "markovup.cli", command, "config.json"],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_OK, (command, proc.stderr)
        for name, digest in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, (command, name)


# Imports the package, then the command line module, then calls main() twice
# in one process, and prints the collector's freeze count at each point and
# how many objects it tracked just before the first call.
_FREEZE_CHILD = """
import gc, json, sys
import markovup
after_package = gc.get_freeze_count()
import markovup.cli as cli
after_cli = gc.get_freeze_count()
tracked = len(gc.get_objects())
codes = [cli.main(["certify", sys.argv[1], "--out", "cert.json"])]
first = gc.get_freeze_count()
codes.append(cli.main(["certify", sys.argv[1], "--out", "cert.json"]))
print(json.dumps({"after_package": after_package, "after_cli": after_cli, "tracked": tracked,
                  "first": first, "second": gc.get_freeze_count(), "codes": codes}))
"""


def test_main_freezes_the_collector_once(tmp_path):
    # importing freezes nothing; the first main() freezes at least every
    # object tracked before it; a second main() freezes nothing more
    path = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_CHILD, str(path)],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["codes"] == [cli.EXIT_OK, cli.EXIT_OK]
    assert counts["after_package"] == counts["after_cli"] == 0
    assert counts["first"] >= counts["tracked"] > 0
    assert counts["second"] == counts["first"]


def test_later_main_calls_skip_the_freeze_count(tmp_path, monkeypatch, capsys):
    # gc.get_freeze_count walks the frozen heap, milliseconds for numpy's and
    # scipy's; only a process's first main() asks it
    path = write_config(tmp_path)
    assert cli.main(["certify", str(path)]) == cli.EXIT_OK

    def no_count():
        raise AssertionError("gc.get_freeze_count called again")

    monkeypatch.setattr(cli.gc, "get_freeze_count", no_count)
    assert cli.main(["certify", str(path)]) == cli.EXIT_OK


DUMP_COLUMNS = ("x0", "path_id", "floor_n", "steps", "capped", "states")


def dump_columns(dump):
    """The runs cli.read_trajectories_csv yields, joined into the columns DUMP_COLUMNS names."""
    runs = list(cli.read_trajectories_csv(str(dump)))
    sizes = [run.path_id.size for run in runs]
    return SimpleNamespace(
        x0=np.repeat(np.array([run.x0 for run in runs], dtype=np.int64), sizes),
        path_id=np.concatenate([run.path_id for run in runs]),
        floor_n=np.repeat(np.array([run.block.floor_n for run in runs], dtype=np.int64), sizes),
        **{name: np.concatenate([getattr(run.block, name) for run in runs]) for name in ("steps", "capped", "states")},
    )


def read_outcome(dump):
    """dump_columns' columns, with their dtype kinds, or the line and reason the reader's error names."""
    try:
        columns = dump_columns(dump)
    except cli.ConfigError as exc:
        line, reason = re.fullmatch(
            r"config field 'output\.trajectories_csv': .*:(\d+): malformed dump row: (.*)", str(exc)
        ).groups()
        return "error", int(line), reason
    return "ok", [(getattr(columns, name).dtype.kind, getattr(columns, name).tolist())
                  for name in DUMP_COLUMNS]


def oracle_outcome(dump):
    """dump_oracle's outcome in read_outcome's form; a line it rejects by its regex has the reason None."""
    outcome = dump_oracle(dump.read_bytes())
    if outcome[0] == "error":
        return outcome
    columns = outcome[1]
    return "ok", [("b" if name == "capped" else "i", columns[name]) for name in DUMP_COLUMNS]


def assert_same_paths(read, simulated):
    """Two lists of blocks hold the same paths at the same floor, in the same order and states dtype."""
    assert {block.floor_n for block in read} == {block.floor_n for block in simulated}
    for name in ("states", "steps", "capped"):
        a, b = (np.concatenate([getattr(block, name) for block in blocks]) for blocks in (read, simulated))
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestTrajectoryRoundTrip:
    def test_dump_and_report(self, tmp_path, monkeypatch):
        traj_csv = str(tmp_path / "trajectories.csv")
        # the second config's paths span two blocks of 550 under a cap of 1,000
        # lanes; the third's states have 19 digits, which the reader reads with
        # int, and each of its paths falls 10**18 steps at least, a block of its own
        monkeypatch.setattr(mc_engine, "MAX_LANES", 1000)
        for overrides, n_rows, code, sizes in (
            ({}, 2 * 400, cli.EXIT_OK, [400]),
            ({"x_grid": [6], "n_traj": 1100}, 1100, cli.EXIT_OK, [550, 550]),
            ({"x_grid": [10**18], "n_traj": 3, "max_steps": 50}, 3, cli.EXIT_VERDICT_FAIL, [1, 1, 1]),
        ):
            path = write_config(tmp_path, output_trajectories_csv=traj_csv, **overrides)
            assert cli.main(["simulate", str(path)]) == 0
            dump = dump_columns(traj_csv)
            assert dump.steps.size == n_rows
            stops = np.cumsum(dump.steps + 1)
            for stop, steps, capped, floor_n in zip(stops, dump.steps, dump.capped, dump.floor_n):
                states = dump.states[stop - steps - 1:stop].tolist()
                assert tau_of(states, floor_n) == (None if capped else steps)
            # the blocks the reader cuts hold each start state's paths as simulate
            # laid them out, and the dump's rows are their str-joined values
            config = cli.load_config(str(path))
            kernel = model_zoo.build_benchmark(config.spec)
            read = {}
            for task_index, block in cli._blocks_from_dump(config, cli.read_trajectories_csv(traj_csv)):
                read.setdefault(task_index, []).append(block)
            assert list(read) == list(range(len(config.x_grid)))
            rows = []
            for task_index, x0 in enumerate(config.x_grid):
                simulated = list(mc_engine.simulate_blocks(
                    kernel, x0, config.n_traj, config.seed, config.max_steps, task_index
                ))
                assert [block.steps.size for block in simulated] == sizes
                assert_same_paths(read[task_index], simulated)
                states = np.concatenate([block.states for block in simulated]).tolist()
                steps = np.concatenate([block.steps for block in simulated]).tolist()
                capped = np.concatenate([block.capped for block in simulated]).tolist()
                stops = np.cumsum(np.array(steps) + 1).tolist()
                rows += [
                    f"{x0},{pid},{'' if capped[pid] else steps[pid]},{config.spec.floor_n},"
                    f"{' '.join(map(str, states[stop - steps[pid] - 1:stop]))}\r\n"
                    for pid, stop in enumerate(stops)
                ]
            with open(traj_csv, newline="") as fh:
                assert fh.readlines()[1:] == rows
            # report rebuilds verdicts from the dump alone
            assert cli.main(["report", str(path)]) == code
            replayed = (tmp_path / "report.json").read_bytes()
            report = json.loads(replayed)
            assert all(v["passed"] for v in report["verdicts"]) == (code == cli.EXIT_OK)
            # and rebuilds exactly what verify reports for the same config
            assert cli.main(["verify", str(path)]) == code
            assert (tmp_path / "report.json").read_bytes() == replayed

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_report_equals_verify_at_any_block_cut(self, tmp_path, monkeypatch, seed):
        # simulate makes one block per start of the default grid, and report reduces
        # the blocks the reader cuts every 4 KiB of the dump: the records, and so
        # every byte report writes, must not depend on where the blocks are cut
        monkeypatch.setattr(csv_io, "_CHUNK_CHARS", 4096)
        traj_csv = str(tmp_path / "trajectories.csv")
        defaults = cli.ExperimentConfig()
        path = write_config(
            tmp_path, x_grid=list(defaults.x_grid), m_list=list(defaults.m_list), n_traj=2000, seed=seed,
            output_trajectories_csv=traj_csv,
        )
        assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
        config = cli.load_config(str(path))
        assert len(list(cli._blocks_from_dump(config, cli.read_trajectories_csv(traj_csv)))) > 3
        written = {}
        for command in ("report", "verify"):
            code = cli.main([command, str(path)])
            written[command] = (code, *((tmp_path / name).read_bytes() for name in ("report.json", "verdicts.csv")))
        assert written["report"] == written["verify"]

    @pytest.mark.parametrize("chunk_chars", [None, 40])
    def test_report_rejects_rows_out_of_order(self, tmp_path, monkeypatch, capsys, chunk_chars):
        # simulate writes each x0 of the grid in turn, its path ids in order, and
        # report reads rows in that order only; a small chunk size parses the
        # states cells in many chunks
        if chunk_chars is not None:
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
        path, traj_csv, rows = self.simulate_dump(tmp_path, x_grid=[6, 10, 20])
        simulated = traj_csv.read_bytes()
        # two rows of one x0 swapped: the first displaced row is named, with the row expected there
        i = next(i for i, r in enumerate(rows) if r["x0"] == "10" and r["path_id"] == "3")
        rows[i], rows[i + 2] = rows[i + 2], rows[i]
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "row (x0=10, path_id=5) stands where simulate writes (x0=10, path_id=3)" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        # the same starts in another grid order: the task index keys each start's
        # random streams, so verify of this config simulates other paths
        traj_csv.write_bytes(simulated)
        path = write_config(tmp_path, x_grid=[10, 6, 20], output_trajectories_csv=str(traj_csv))
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "row (x0=6, path_id=0) stands where simulate writes (x0=10, path_id=0)" in capsys.readouterr().err

    def test_report_rejects_cells_past_the_plain_form(self, tmp_path, capsys):
        # cells int() would read but that are not plain digits between single
        # spaces: the first such line is named
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        rows[3]["states"] = "+" + rows[3]["states"].replace(" ", " \t")
        rows[4]["states"] = " " + rows[4]["states"]
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "trajectories.csv:5: malformed dump row: a byte that is not a digit" in capsys.readouterr().err

    def test_report_reads_zero_padded_states(self, tmp_path):
        # states of 19 digits, 18 of them leading zeros, are read by int() to the
        # same report
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        assert cli.main(["report", str(path)]) == cli.EXIT_OK
        expected = (tmp_path / "report.json").read_bytes()
        rows[4]["states"] = rows[4]["states"].replace(" ", " 000000000000000000")
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_OK
        assert (tmp_path / "report.json").read_bytes() == expected

    def test_dump_independent_of_threads(self, tmp_path):
        traj_csv = tmp_path / "trajectories.csv"
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv))
        outputs = []
        for threads in ("1", "4"):
            assert cli.main(["--threads", threads, "simulate", str(path)]) == 0
            outputs.append(((tmp_path / "paths.csv").read_bytes(), traj_csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_report_rejects_corrupted_dump(self, tmp_path):
        traj_csv = tmp_path / "trajectories.csv"
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv))
        assert cli.main(["simulate", str(path)]) == 0
        rows = traj_csv.read_text().splitlines()
        header, first = rows[0], rows[1]
        cells = first.split(",")
        cells[2] = str(int(cells[2]) + 1)  # corrupt recorded tau
        traj_csv.write_text("\n".join([header, ",".join(cells)] + rows[2:]))
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE

    @staticmethod
    def simulate_dump(tmp_path, **overrides):
        """Config with a trajectory dump, the dump's path, and its rows."""
        traj_csv = tmp_path / "trajectories.csv"
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv), **overrides)
        assert cli.main(["simulate", str(path)]) == 0
        with open(traj_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return path, traj_csv, rows

    @staticmethod
    def rewrite_dump(traj_csv, rows):
        with open(traj_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    def test_report_rejects_floor_mismatch(self, tmp_path, monkeypatch, capsys):
        # a consistent row at another floor: it first enters that floor at tau and
        # ends there.  With the line after it malformed too, at either chunk size,
        # the floor row is still named: it comes first in the file
        for bad_next_line, chunk_chars in itertools.product((False, True), (csv_io._CHUNK_CHARS, 40)):
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
            workdir = tmp_path / f"{bad_next_line}-{chunk_chars}"
            workdir.mkdir()
            path, traj_csv, rows = self.simulate_dump(workdir)
            i = next(i for i, r in enumerate(rows) if r["x0"] == "10" and r["path_id"] == "3")
            states = rows[i]["states"].split()
            tau = tau_of(tuple(int(s) for s in states), 6)
            rows[i]["floor_n"], rows[i]["tau"], rows[i]["states"] = "6", str(tau), " ".join(states[:tau + 1])
            self.rewrite_dump(traj_csv, rows)
            if bad_next_line:
                lines = traj_csv.read_bytes().split(b"\r\n")
                lines[i + 2] = b"7,5"  # the line after the header and rows[:i + 1]
                traj_csv.write_bytes(b"\r\n".join(lines))
            # a chunk with rows at two floors is read in one pass as two runs, to the
            # oracle's columns; one whose next line is malformed is read a line at a
            # time, to that line, which the oracle's regex rejects
            got, expected = read_outcome(traj_csv), oracle_outcome(traj_csv)
            assert (got[:2] + (None,) if bad_next_line else got) == expected, chunk_chars
            assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert "(x0=10, path_id=3) has floor_n=6" in err, (bad_next_line, chunk_chars)

    def test_report_rejects_start_outside_grid(self, tmp_path, capsys):
        path, _traj_csv, _rows = self.simulate_dump(tmp_path)
        doc = json.loads(path.read_text())
        doc["x_grid"] = [6]
        path.write_text(json.dumps(doc))
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "(x0=10, path_id=0)" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing", "duplicated"])
    def test_report_rejects_incomplete_path_ids(self, tmp_path, capsys, fault):
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        i = next(i for i, r in enumerate(rows) if r["x0"] == "10" and r["path_id"] == "7")
        if fault == "missing":
            del rows[i]
        else:
            rows.insert(i, dict(rows[i]))
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "(x0=10, path_id=7)" in capsys.readouterr().err

    MALFORMED_ROWS = [
        "x0", "tau", "short", "long", "past_tau", "negative", "floor_before_tau", "capped_in_floor", "past_int64",
        "other_floor",
    ]

    @pytest.mark.parametrize("fault", MALFORMED_ROWS)
    def test_report_rejects_malformed_row(self, tmp_path, capsys, fault):
        path, traj_csv, _rows = self.simulate_dump(tmp_path)
        lines = traj_csv.read_text().splitlines()
        cells = lines[5].split(",")
        if fault == "x0":
            cells[0] = str(int(cells[0]) + 1)  # no longer the first state
        elif fault == "tau":
            cells[2] = "x"
        elif fault == "short":
            cells = cells[:3]
        elif fault == "long":
            cells.append("junk")  # an extra cell used to be filed under no column
        elif fault == "past_tau":
            cells[4] += " 900 901 902"  # states go on past tau
        elif fault == "floor_before_tau":
            cells[0], cells[2], cells[4] = "7", "2", "7 5 5"
        elif fault == "capped_in_floor":
            cells[0], cells[2], cells[4] = "7", "", "7 5 6"
        elif fault == "past_int64":
            cells[4] = cells[4].rsplit(" ", 1)[0] + f" {2**63}"  # the last state
        elif fault == "other_floor":  # a path at the rows' floor 5, but not at its own
            cells[0], cells[2], cells[3], cells[4] = "7", "2", "2", "7 6 5"
        else:
            cells[0], cells[2], cells[4] = "6", "1", "6 -1"
        lines[5] = ",".join(cells)
        traj_csv.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "trajectories.csv:6: malformed dump row" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", MALFORMED_ROWS)
    def test_report_rejects_malformed_row_after_passed_chunks(self, tmp_path, monkeypatch, capsys, fault):
        # at 40 characters a chunk, the rows before the malformed one pass the array checks
        monkeypatch.setattr(csv_io, "_CHUNK_CHARS", 40)
        self.test_report_rejects_malformed_row(tmp_path, capsys, fault)

    @pytest.mark.parametrize("chunk_chars", [None, 40])
    @pytest.mark.parametrize("fault, message", [
        # a header without the states column is named before the width of the first row
        ("no_states_column", ":1: malformed dump row: the header is not x0,path_id,tau,floor_n,states"),
        # line 4, a path int() would read, is named before the malformed path of line 6
        ("after_plus_token", ":4: malformed dump row: a byte that is not a digit"),
    ])
    def test_report_names_malformed_row_after_declined_one(
        self, tmp_path, monkeypatch, capsys, chunk_chars, fault, message
    ):
        if chunk_chars is not None:
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
        path, traj_csv, _rows = self.simulate_dump(tmp_path)
        lines = traj_csv.read_text().splitlines()
        if fault == "no_states_column":
            lines[0] = lines[0].replace("states", "path")
            lines[1] += ",junk"
        else:
            cells = lines[3].split(",")
            cells[4] = "+" + cells[4]
            lines[3] = ",".join(cells)
            lines[5] = "7,5,2,5,7 5 5"
        traj_csv.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert f"trajectories.csv{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk_chars", [None, 40])
    def test_report_names_first_malformed_row(self, tmp_path, monkeypatch, capsys, chunk_chars):
        # line 9 has two cells, line 8 a token that is not digits, and line 7's path
        # enters the floor before its tau: line 7 comes first
        if chunk_chars is not None:
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
        path, traj_csv, _rows = self.simulate_dump(tmp_path)
        lines = traj_csv.read_text().splitlines()
        lines[6] = "7,5,2,5,7 5 5"
        lines[7] = lines[7] + " x"
        lines[8] = "7,5"
        traj_csv.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert ("trajectories.csv:7: malformed dump row: a path that hit the floor at tau=2 "
                "must first enter the floor at its last state") in capsys.readouterr().err

    def test_reader_matches_row_by_row_parse_on_mutated_dumps(self, tmp_path, monkeypatch):
        # seeded corruptions of a small dump: at every chunk size, the reader gives
        # the columns, or the first bad line, of a regex and a Trajectory per line;
        # where the Trajectory rejects the line, the reason too
        traj_csv = tmp_path / "trajectories.csv"
        path = write_config(tmp_path, n_traj=12, output_trajectories_csv=str(traj_csv))
        assert cli.main(["simulate", str(path)]) == 0
        lines = traj_csv.read_text().splitlines()
        rng = random.Random(11)
        dumps = []
        for k in range(200):
            rows = [line.split(",") for line in lines]
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(1, len(rows))
                edit = rng.choice(["cell", "cell", "states", "cut", "lengthen", "blank", "repeat"])
                if edit == "cell" and rows[i]:
                    rows[i][rng.randrange(len(rows[i]))] = rng.choice(["", "x", "-1", str(2**63), "7 5 5"])
                elif edit == "states" and len(rows[i]) == 5:
                    states = rows[i][4].split()
                    kind = rng.randrange(3)
                    if kind == 0:  # a path that hit the floor leaves it again
                        states[-2:] = reversed(states[-2:])
                    elif kind == 1:  # a state past int64, above the floor unless it is the last
                        states[len(states) // 2] = str(2**63)
                    else:  # a capped row without states
                        rows[i][2], states = "", []
                    rows[i][4] = " ".join(states)
                elif edit == "cut":
                    rows[i] = rows[i][:rng.randrange(len(rows[i]) + 1)]
                elif edit == "lengthen":
                    rows[i] = rows[i] + ["5"]
                elif edit == "blank":
                    rows[i] = []
                elif edit == "repeat":
                    rows.insert(i, list(rows[i]))
            dumps.append(tmp_path / f"mutated{k}.csv")
            line_end = "\r\n" if k % 2 else "\n"  # half the corpus as simulate writes its line ends
            final = "" if k % 3 == 2 else line_end  # a third without the final line end
            dumps[-1].write_bytes((line_end.join(",".join(row) for row in rows) + final).encode())

        expected = [oracle_outcome(dump) for dump in dumps]
        assert {kind for kind, *_ in expected} == {"ok", "error"}
        assert any(outcome[0] == "error" and outcome[2] for outcome in expected)
        for chunk_chars in (csv_io._CHUNK_CHARS, 40, 1):
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
            got = [read_outcome(dump) for dump in dumps]
            # where the regex rejects a line, the reader gives a reason of its own
            assert [g[:2] + (None,) if e[2:] == (None,) else g for g, e in zip(got, expected)] == expected

    @pytest.mark.parametrize("final_line_end", [True, False])
    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    def test_simulate_format_takes_the_array_pass(self, tmp_path, line_end, final_line_end):
        # a dump with LF line ends, or without its final line end, is read to the
        # columns of the dump as simulate writes it
        path, traj_csv, _rows = self.simulate_dump(tmp_path)
        expected = read_outcome(traj_csv)
        assert expected[0] == "ok"
        text = traj_csv.read_bytes().replace(b"\r\n", line_end.encode())
        traj_csv.write_bytes(text if final_line_end else text.removesuffix(line_end.encode()))
        assert read_outcome(traj_csv) == expected

    CELL_EDITS = {
        "quoted_cell": (1, lambda cell: f'"{cell}"'),
        "plus_sign": (1, lambda cell: "+" + cell),
        "past_int64": (1, lambda cell: str(2**63)),  # a path id past int64
        "past_int64_floor": (3, lambda cell: str(2**63)),  # a floor past int64
        "tab": (4, lambda cell: cell.replace(" ", "\t ", 1)),
        "cr_in_cell": (4, lambda cell: cell.replace(" ", "\r", 1)),
    }

    @pytest.mark.parametrize("form", [*CELL_EDITS, "reordered_header", "lone_cr", "space_in_cell"])
    def test_forms_outside_the_array_pass(self, tmp_path, form):
        # each form is rejected, naming line 3, or line 1 for the header
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        lines = traj_csv.read_bytes().decode().splitlines(keepends=True)  # CRLF kept
        if form in self.CELL_EDITS:
            column, edit = self.CELL_EDITS[form]
            cells = lines[2].split(",")
            cells[column] = edit(cells[column])
            lines[2] = ",".join(cells)
        elif form == "lone_cr":
            lines[2] = lines[2].replace("\r\n", "\r")
        elif form == "space_in_cell":  # a well-formed path if the space did not split "9 0"
            lines[2] = "9 0,2,5,7,8 4\r\n"
        with open(traj_csv, "w", newline="") as fh:
            fh.write("".join(lines))
        if form == "reordered_header":
            self.rewrite_dump(traj_csv, [dict(reversed(row.items())) for row in rows])
        outcome = read_outcome(traj_csv)
        assert outcome[:2] == ("error", 1 if form == "reordered_header" else 3)
        if form.startswith("past_int64"):
            assert outcome[2] == "an integer past int64"

    def test_report_rejects_capped_row_short_of_max_steps(self, tmp_path, capsys):
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        row = next(r for r in rows if r["x0"] == "10" and r["path_id"] == "3")
        row["tau"], row["states"] = "", "10 11 12"
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "(x0=10, path_id=3)" in err and "max_steps" in err

    def test_report_rejects_row_past_max_steps(self, tmp_path, capsys):
        # a dump simulated under a higher step cap: its longest paths could not
        # have run under the config's max_steps, which verify would cap
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        taus = [int(r["tau"]) for r in rows]
        row = rows[taus.index(max(taus))]
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv), max_steps=max(taus) - 1)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"(x0={row['x0']}, path_id={row['path_id']}) hits the floor after {max(taus)} steps" in err
        assert f"max_steps={max(taus) - 1}" in err

    @pytest.mark.parametrize("content", [
        None, b"x0,path_id,tau,floor_n,states\n\xff\xfe\x80,0\n", b"x0,path_id,tau,floor_n,states\r\n",
    ])
    def test_report_rejects_unreadable_dump(self, tmp_path, capsys, content):
        traj_csv = tmp_path / "trajectories.csv"
        if content is not None:
            traj_csv.write_bytes(content)
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv))
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "output.trajectories_csv" in capsys.readouterr().err

    def test_report_reads_paths_longer_than_a_read_chunk(self, tmp_path):
        # two pure falls from 30,000, each a line longer than the chunk the reader reads at once
        states = " ".join(map(str, range(30_000, 4, -1)))
        traj_csv = tmp_path / "trajectories.csv"
        traj_csv.write_text(
            "x0,path_id,tau,floor_n,states\n" + "".join(f"30000,{pid},29995,5,{states}\n" for pid in (0, 1))
        )
        path = write_config(tmp_path, x_grid=[30_000], n_traj=2, output_trajectories_csv=str(traj_csv))
        assert len(states) > csv_io._CHUNK_CHARS
        assert cli.main(["report", str(path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["timing"]["steps_simulated"] == 2 * 29_995

    def test_report_builds_no_trajectory(self, tmp_path, monkeypatch):
        path, _traj_csv, _rows = self.simulate_dump(tmp_path)

        def no_trajectory(traj):
            raise AssertionError("report built a Trajectory")

        monkeypatch.setattr(process_core.Trajectory, "__post_init__", no_trajectory)
        assert cli.main(["report", str(path)]) == cli.EXIT_OK

    @pytest.mark.parametrize("chunk_chars", [None, 40])
    def test_report_checks_each_dumped_path_once(self, tmp_path, monkeypatch, chunk_chars):
        # the blocks report folds are the ones the reader checked, one per run of
        # rows, also where a chunk holds rows from more than one start
        if chunk_chars is not None:
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
        path, _traj_csv, _rows = self.simulate_dump(tmp_path, x_grid=[6, 10, 20])
        checked, yielded = [], []
        check, blocks_from_dump = process_core.PathBlock._check, cli._blocks_from_dump

        def counted_check(block):
            checked.append(block)
            check(block)

        def counted_blocks(config, runs):
            for task_index, block in blocks_from_dump(config, runs):
                yielded.append(block)
                yield task_index, block

        monkeypatch.setattr(process_core.PathBlock, "_check", counted_check)
        monkeypatch.setattr(cli, "_blocks_from_dump", counted_blocks)
        assert cli.main(["report", str(path)]) == cli.EXIT_OK
        assert len(yielded) >= 3 and checked == yielded  # blocks compare by identity

    def test_report_requires_dump(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE


def test_certify_once_per_command(tmp_path, monkeypatch):
    calls = []

    def counting_certify(spec, m_max):
        calls.append(m_max)
        return model_zoo.certify(spec, m_max)

    monkeypatch.setattr(mc_engine, "certify", counting_certify)
    monkeypatch.setattr(cli, "certify", counting_certify)
    path = write_config(tmp_path, output_trajectories_csv=str(tmp_path / "trajectories.csv"))
    counts = {}
    for command in ("simulate", "verify", "report"):
        calls.clear()
        assert cli.main([command, str(path)]) == cli.EXIT_OK
        counts[command] = len(calls)
    assert counts == {"simulate": 0, "verify": 1, "report": 1}


@pytest.mark.parametrize(
    "command, m",
    [("bounds", 60), ("verify", 60), ("bounds", 91), ("verify", 91),
     ("certify", 200), ("bounds", 200), ("verify", 200)],
)
def test_moment_order_beyond_float_range_exit_usage(tmp_path, capsys, command, m):
    path = write_config(tmp_path, m_list=[m])
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'m_list'" in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "paths.csv").exists()


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_start_beyond_float_range_names_x_grid(tmp_path, monkeypatch, capsys, command):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(mc_engine, "simulate_blocks", no_paths)
    path = write_config(tmp_path, x_grid=[2**62], m_list=[20], n_traj=2, max_steps=5)
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'x_grid'") and f"x={2**62}" in err
    assert not (tmp_path / "paths.csv").exists()


@pytest.mark.parametrize("command", ["certify", "bounds", "simulate", "verify", "report"])
def test_start_past_int64_names_x_grid(tmp_path, capsys, command):
    # every state a path holds is int64, so a start of 2**63 is rejected as the config is read
    path = write_config(tmp_path, x_grid=[2**63], output_trajectories_csv=str(tmp_path / "trajectories.csv"))
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: config field 'x_grid': x0 must be below 2**63, got {2**63}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command", ["verify", "report"])
def test_failed_assumptions_exit_usage(tmp_path, monkeypatch, capsys, command):
    path = write_config(tmp_path, output_trajectories_csv=str(tmp_path / "trajectories.csv"))
    assert cli.main(["simulate", str(path)]) == 0
    simulated = (tmp_path / "paths.csv").read_bytes()

    class FakeCert:
        theorem_ready = False

    monkeypatch.setattr(mc_engine, "certify", lambda spec, m_max: FakeCert())
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert (tmp_path / "paths.csv").read_bytes() == simulated  # a rejected run writes nothing


@pytest.mark.parametrize("command, output", [
    ("verify", {}), ("simulate", {"trajectories_csv": "trajectories.csv"}),
    ("report", {"trajectories_csv": "trajectories.csv"}),
])
def test_peak_rss_flat_in_n_traj(tmp_path, command, output):
    # each block is written and folded, then dropped, and report reads its dump
    # (simulated first) a chunk at a time, so ten times the paths on the default
    # grid raise the command's peak RSS by less than 8 MB; when every start
    # state's records (and, for the dump, blocks) were held to the end, the peak
    # rose by about 60 MB for verify and 107 MB for simulate, and when report
    # held the whole dump, by about 160 MB
    peaks = []
    for n_traj in (20_000, 200_000):
        workdir = tmp_path / str(n_traj)
        workdir.mkdir()
        (workdir / "config.json").write_text(json.dumps({"n_traj": n_traj, "output": output}))
        if command == "report":
            cli_peak_rss_mb(["simulate", "config.json"], workdir)
        peaks.append(cli_peak_rss_mb([command, "config.json"], workdir))
    assert peaks[1] - peaks[0] < 8, peaks


def test_long_paths_peak_rss_within_three_times_their_states(tmp_path):
    # simulate of 4,096 paths from x0 = 1000 holds about 4.1M int64 states (33 MB)
    # in one block; over certify's peak (the imports and the config), its peak
    # must stay within three times those bytes.  When every lane stepped each
    # fall to its end and its states were regrouped by an index of them all,
    # it rose by about four times
    (tmp_path / "config.json").write_text(json.dumps({"n_traj": 4096, "x_grid": [1000]}))
    base = cli_peak_rss_mb(["certify", "config.json"], tmp_path)
    peak = cli_peak_rss_mb(["simulate", "config.json"], tmp_path)
    with open(tmp_path / "paths.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4096 and all(row["tau"] for row in rows)
    states_mb = 8 * sum(int(row["tau"]) + 1 for row in rows) / 2**20
    assert peak - base <= 3 * states_mb, (base, peak, states_mb)


def test_far_start_peak_rss_bounded_by_state_budget(tmp_path):
    # 1,024 paths from x0 = 20,000 hold about 2*10**7 states (160 MB as int64);
    # a block holds paths of at most STATE_BUDGET states at their fewest (2**22,
    # 32 MiB as int64), here 5 blocks of about 205 paths, so simulate's peak
    # over certify's stays within three such budgets.  When all 1,024 paths
    # made one block it rose by about 332 MB
    (tmp_path / "config.json").write_text(json.dumps({"n_traj": 1024, "x_grid": [20000]}))
    base = cli_peak_rss_mb(["certify", "config.json"], tmp_path)
    peak = cli_peak_rss_mb(["simulate", "config.json"], tmp_path)
    with open(tmp_path / "paths.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1024 and all(int(row["tau"]) >= 19_995 for row in rows)
    assert peak - base <= 3 * 8 * mc_engine.STATE_BUDGET / 2**20, (base, peak)


def test_verify_and_report_tally_verdicts_on_stderr(tmp_path, capsys):
    path = write_config(tmp_path, output_trajectories_csv=str(tmp_path / "trajectories.csv"))
    assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    for command in ("verify", "report"):
        assert cli.main([command, str(path)]) == cli.EXIT_OK
        err = capsys.readouterr().err
        # 2 starts * (2 orders * 4 moment cells + 5 attempt cells)
        assert re.fullmatch(rf"26/26 verdicts passed in \d+\.\ds -> {re.escape(str(tmp_path / 'report.json'))}\n", err)


def test_main_verify_entry_point(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK
    assert cli.main(["verify", str(write_config(tmp_path, name="bad.json", s=0.0))]) == cli.EXIT_USAGE
