import csv
import json
import math

import pytest

from markovup import cli, mc_engine, model_zoo, tau_of


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

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="no/such/file"):
            cli.load_config("no/such/file.json")

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


class TestTrajectoryRoundTrip:
    def test_dump_and_report(self, tmp_path):
        traj_csv = str(tmp_path / "trajectories.csv")
        path = write_config(tmp_path, output_trajectories_csv=traj_csv)
        assert cli.main(["simulate", str(path)]) == 0
        dumped = cli.read_trajectories_csv(traj_csv)
        assert len(dumped) == 2 * 400
        for x0, pid, traj in dumped:
            assert tau_of(traj.states, traj.floor_n) == traj.tau
        # report rebuilds verdicts from the dump alone
        code = cli.main(["report", str(path)])
        assert code == cli.EXIT_OK
        replayed = (tmp_path / "report.json").read_bytes()
        report = json.loads(replayed)
        assert all(v["passed"] for v in report["verdicts"])
        # and rebuilds exactly what verify reports for the same config
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        assert (tmp_path / "report.json").read_bytes() == replayed

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

    @pytest.mark.parametrize(
        "fault", ["x0", "tau", "short", "past_tau", "negative", "floor_before_tau", "capped_in_floor"]
    )
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
        assert "trajectories.csv:6:" in capsys.readouterr().err

    def test_report_rejects_capped_row_short_of_max_steps(self, tmp_path, capsys):
        path, traj_csv, rows = self.simulate_dump(tmp_path)
        row = next(r for r in rows if r["x0"] == "10" and r["path_id"] == "3")
        row["tau"], row["states"] = "", "10 11 12"
        self.rewrite_dump(traj_csv, rows)
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "(x0=10, path_id=3)" in err and "max_steps" in err

    @pytest.mark.parametrize("content", [None, b"x0,path_id,tau,floor_n,states\n\xff\xfe\x80,0\n"])
    def test_report_rejects_unreadable_dump(self, tmp_path, capsys, content):
        traj_csv = tmp_path / "trajectories.csv"
        if content is not None:
            traj_csv.write_bytes(content)
        path = write_config(tmp_path, output_trajectories_csv=str(traj_csv))
        assert cli.main(["report", str(path)]) == cli.EXIT_USAGE
        assert "output.trajectories_csv" in capsys.readouterr().err

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
