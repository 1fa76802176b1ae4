import csv
import hashlib
import json
import math
import random
import re

import numpy as np
import pytest

from markovup import cli, csv_io, mc_engine, model_zoo, process_core, tau_of
from markovup.lockstep import BLOCK
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
        for field, value, name in (
            ("r", 1.0, "model.r"), ("n_traj", 2**40 + 1, "n_traj"), ("epsilon", math.inf, "epsilon"),
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

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"floor": 5}')
        with pytest.raises(cli.ConfigError, match="floor"):
            cli.load_config(str(path))

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

    def test_start_beyond_int64_reports_capped(self, tmp_path):
        path = write_config(tmp_path, x_grid=[2**63], n_traj=3, max_steps=5)
        assert cli.main(["verify", str(path)]) == cli.EXIT_VERDICT_FAIL
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["timing"]["capped_paths"] == 3
        assert report["verdicts"]
        assert all(v["method"] == "not-issued" for v in report["verdicts"])
        # paths.csv rows from an object-array block: an empty tau, and the capped flag as 1
        rows = (tmp_path / "paths.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1::3] for row in rows] == [["", "1"]] * 3

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


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    # sha256 of every file simulate, report and verify write for one small
    # config, so an engine or writer change that drifts a bit fails here.
    # report.json echoes the output file names, so they are pinned too.
    golden = {
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
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"n_traj": 3000, "seed": 5, "output": {"trajectories_csv": "trajectories.csv"}}
    ))
    for command, files in golden.items():
        assert cli.main([command, str(config)]) == cli.EXIT_OK
        for name, digest in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, (command, name)


DUMP_COLUMNS = ("x0", "path_id", "floor_n", "steps", "capped", "states")


def read_outcome(dump):
    """cli.read_trajectories_csv's columns, with their dtype kinds, or the line and reason its error names."""
    try:
        columns = cli.read_trajectories_csv(str(dump))
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
    kinds = {"steps": "i", "capped": "b"}  # the others are int64 unless a value is past it
    return "ok", [
        (kinds.get(name, "i" if max(columns[name]) < 2**63 else "O"), columns[name]) for name in DUMP_COLUMNS
    ]


def assert_same_blocks(read, simulated):
    assert len(read) == len(simulated)
    for a, b in zip(read, simulated):
        assert a.floor_n == b.floor_n and a.states.dtype == b.states.dtype
        for name in ("states", "steps", "capped"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestTrajectoryRoundTrip:
    def test_dump_and_report(self, tmp_path):
        traj_csv = str(tmp_path / "trajectories.csv")
        # the second config's paths span two blocks; the third's, from 2**63, are laid
        # out in object-array blocks and end capped; the last two write states of 19
        # and 31 digits, read back as int64 and as Python ints
        for overrides, n_rows, code in (
            ({}, 2 * 400, cli.EXIT_OK),
            ({"x_grid": [6], "n_traj": BLOCK + 100}, BLOCK + 100, cli.EXIT_OK),
            ({"x_grid": [2**63, 6], "n_traj": 3, "max_steps": 50}, 2 * 3, cli.EXIT_VERDICT_FAIL),
            ({"x_grid": [10**18], "n_traj": 3, "max_steps": 50}, 3, cli.EXIT_VERDICT_FAIL),
            ({"x_grid": [10**30, 6], "n_traj": 3, "max_steps": 50}, 2 * 3, cli.EXIT_VERDICT_FAIL),
        ):
            path = write_config(tmp_path, output_trajectories_csv=traj_csv, **overrides)
            assert cli.main(["simulate", str(path)]) == 0
            dump = cli.read_trajectories_csv(traj_csv)
            assert dump.steps.size == n_rows
            stops = np.cumsum(dump.steps + 1)
            for stop, steps, capped, floor_n in zip(stops, dump.steps, dump.capped, dump.floor_n):
                states = dump.states[stop - steps - 1:stop].tolist()
                assert tau_of(states, floor_n) == (None if capped else steps)
            # the reader's blocks are the ones simulate laid out, and the dump's rows
            # are their str-joined values, from 2**63 too
            config = cli.load_config(str(path))
            kernel = model_zoo.build_benchmark(config.model_spec())
            blocks_by_x = cli._blocks_from_dump(config, dump)
            rows = []
            for task_index, x0 in enumerate(config.x_grid):
                simulated = list(mc_engine.simulate_blocks(
                    kernel, x0, config.n_traj, config.seed, config.max_steps, task_index
                ))
                assert_same_blocks(blocks_by_x[x0], simulated)
                states = np.concatenate([block.states for block in simulated]).tolist()
                steps = np.concatenate([block.steps for block in simulated]).tolist()
                capped = np.concatenate([block.capped for block in simulated]).tolist()
                stops = np.cumsum(np.array(steps) + 1).tolist()
                rows += [
                    f"{x0},{pid},{'' if capped[pid] else steps[pid]},{config.floor_n},"
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

    @pytest.mark.parametrize("chunk_chars", [None, 40])
    def test_report_reads_rows_in_any_order(self, tmp_path, monkeypatch, chunk_chars):
        # shuffled rows, across x0 too, are gathered into path order; a small chunk
        # size parses the states cells in many chunks
        if chunk_chars is not None:
            monkeypatch.setattr(csv_io, "_CHUNK_CHARS", chunk_chars)
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        assert cli.main(["report", str(path)]) == cli.EXIT_OK
        ordered = [(tmp_path / name).read_bytes() for name in ("report.json", "verdicts.csv")]
        random.Random(3).shuffle(rows)
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_OK
        assert [(tmp_path / name).read_bytes() for name in ("report.json", "verdicts.csv")] == ordered

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
    def simulate_dump(tmp_path):
        """Config with a trajectory dump, the dump's path, and its rows."""
        traj_csv = tmp_path / "trajectories.csv"
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv))
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

    def test_report_rejects_floor_mismatch(self, tmp_path, capsys):
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        row = next(r for r in rows if r["x0"] == "10" and r["path_id"] == "3")
        # a consistent row at another floor: it first enters that floor at
        # tau and ends there
        states = row["states"].split()
        tau = tau_of(tuple(int(s) for s in states), 6)
        row["floor_n"], row["tau"], row["states"] = "6", str(tau), " ".join(states[:tau + 1])
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "(x0=10, path_id=3)" in err and "floor_n" in err

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

    MALFORMED_ROWS = ["x0", "tau", "short", "long", "past_tau", "negative", "floor_before_tau", "capped_in_floor"]

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
        assert ("trajectories.csv:7: malformed dump row: "
                "a path that hit the floor at tau=2 must first enter it there") in capsys.readouterr().err

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
        "past_int64": (1, lambda cell: str(2**63)),  # a path id past int64: object columns
        "past_int64_floor": (3, lambda cell: str(2**63)),  # a floor past int64: a malformed row
        "tab": (4, lambda cell: cell.replace(" ", "\t ", 1)),
        "cr_in_cell": (4, lambda cell: cell.replace(" ", "\r", 1)),
    }

    @pytest.mark.parametrize("form", [*CELL_EDITS, "reordered_header", "lone_cr", "space_in_cell"])
    def test_forms_outside_the_array_pass(self, tmp_path, form):
        # each form but a wide path id is rejected, naming line 3, or line 1 for
        # the header
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        plain = read_outcome(traj_csv)
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
        if form == "past_int64":
            x0, (_kind, path_id), *rest = plain[1]
            path_id[1] = 2**63
            assert outcome == ("ok", [x0, ("O", path_id), *rest])
        else:
            assert outcome[:2] == ("error", 1 if form == "reordered_header" else 3)
        if form == "past_int64_floor":  # every state is in the floor
            assert re.fullmatch(r"a path that hit the floor at tau=\d+ must first enter it there", outcome[2])

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


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_start_beyond_float_range_names_x_grid(tmp_path, monkeypatch, capsys, command):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(mc_engine, "simulate_blocks", no_paths)
    path = write_config(tmp_path, x_grid=[10**400], m_list=[1], n_traj=2, max_steps=5)
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'x_grid'") and f"x={10**400}" in err


@pytest.mark.parametrize("command", ["verify", "report"])
def test_failed_assumptions_exit_usage(tmp_path, monkeypatch, capsys, command):
    path = write_config(tmp_path, output_trajectories_csv=str(tmp_path / "trajectories.csv"))
    assert cli.main(["simulate", str(path)]) == 0

    class FakeCert:
        theorem_ready = False

    monkeypatch.setattr(mc_engine, "certify", lambda spec, m_max: FakeCert())
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_run_entry_point(tmp_path):
    path = write_config(tmp_path)
    assert cli.run(str(path)) == cli.EXIT_OK
    assert cli.run(str(write_config(tmp_path, name="bad.json", s=0.0))) == cli.EXIT_USAGE
