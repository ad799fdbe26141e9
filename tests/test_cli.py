"""Exit codes, output shapes, and determinism of the command line."""

import json

import pytest

import multiagent_recourse as mr
from multiagent_recourse.cli import main

QUERY_CASE1 = {
    "scm_file": "model.json",
    "principal": 1,
    "agents": {"1": "h1", "2": "h2"},
    "factual": {"x1": 0, "x2": 1},
    "feasible": [{"x1": 1}, {}],
    "constraints": [{"kind": "principal_improvement", "strict": True}],
}


@pytest.fixture()
def workdir(tmp_path, pd1):
    (tmp_path / "model.json").write_text(json.dumps(mr.scm_to_dict(pd1)))
    (tmp_path / "query.json").write_text(json.dumps(QUERY_CASE1))
    pareto = dict(QUERY_CASE1)
    pareto["constraints"] = [
        {"kind": "principal_improvement", "strict": True},
        {"kind": "pareto"},
    ]
    (tmp_path / "pareto.json").write_text(json.dumps(pareto))
    return tmp_path


class TestSolve:
    def test_recommendation_found(self, workdir, capsys):
        code = main(["solve", str(workdir / "query.json")])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["action"] == {"x1": 1}
        assert payload["per_agent"]["1"]["after"] == "3.5"

    def test_no_recommendation_exit_2(self, workdir, capsys):
        code = main(["solve", str(workdir / "pareto.json")])
        out = capsys.readouterr().out
        assert code == 2
        payload = json.loads(out)
        assert payload["found"] is False
        assert "reason" in payload

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "principal": ,\n}')
        code = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json")])
        assert code == 1

    def test_baseline_solver_mode(self, workdir, capsys):
        data = dict(QUERY_CASE1)
        data["solver"] = "baseline"
        data["constraints"] = []
        (workdir / "baseline.json").write_text(json.dumps(data))
        code = main(["solve", str(workdir / "baseline.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["action"] == {"x1": 1}


class TestExperiment:
    def test_synthetic_counts(self, capsys):
        code = main(
            [
                "experiment",
                "--synthetic", "n=12", "silent=5",
                "--matrix", "table2",
                "--mode", "single_agent",
                "--seed", "7",
                "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        report = mr.report_from_json(captured.out)
        assert report.overall.recommendations == 5
        assert "filtered out" in captured.err

    def test_social_welfare_mode(self, capsys):
        code = main(
            [
                "experiment",
                "--synthetic", "n=12", "silent=5",
                "--matrix", "table2",
                "--mode", "social_welfare",
                "--seed", "7",
                "--format", "json",
            ]
        )
        assert code == 0
        report = mr.report_from_json(capsys.readouterr().out)
        assert report.overall.recommendations == 7

    def test_full_scale_synthetic_counts(self, capsys):
        base = [
            "experiment",
            "--synthetic", "n=3294", "silent=434",
            "--matrix", "table2",
            "--seed", "1",
            "--format", "json",
        ]
        assert main(base + ["--mode", "single_agent"]) == 0
        single = mr.report_from_json(capsys.readouterr().out)
        assert single.recommendations_made == 434
        assert main(base + ["--mode", "social_welfare"]) == 0
        welfare = mr.report_from_json(capsys.readouterr().out)
        assert welfare.recommendations_made == 2860

    def test_log_file_input_and_filtering(self, tmp_path, capsys):
        games = [
            mr.GameRecord("g0", "table2", "test", mr.as_value(0), [(0, 1)]),
            mr.GameRecord("g1", "table2", "test", mr.as_value("3/4"), [(1, 1), (0, 0)]),
        ]
        log = tmp_path / "games.csv"
        log.write_text(mr.write_game_log(games))
        code = main(["experiment", "--log", str(log), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "1 of 2 games filtered out" in captured.err
        assert mr.report_from_json(captured.out).overall.games == 1

    def test_empty_after_filtering_warns(self, tmp_path, capsys):
        games = [mr.GameRecord("g0", "table2", "test", mr.as_value("3/4"), [(0, 1)])]
        log = tmp_path / "games.csv"
        log.write_text(mr.write_game_log(games))
        code = main(["experiment", "--log", str(log), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no games remain" in captured.err
        assert mr.report_from_json(captured.out).overall.games == 0

    def test_include_identity_flag(self, capsys):
        base = [
            "experiment",
            "--synthetic", "n=6", "silent=6",
            "--matrix", "table2",
            "--mode", "pareto",
            "--seed", "1",
            "--format", "json",
        ]
        assert main(base) == 0
        strictly = mr.report_from_json(capsys.readouterr().out)
        assert strictly.overall.recommendations == 0
        # non-strict custom variant would differ; the flag only widens the
        # candidate set, and improvement-strict still rejects do-nothing
        assert main(base + ["--include-identity"]) == 0
        widened = mr.report_from_json(capsys.readouterr().out)
        assert widened.overall.recommendations == 0

    def test_both_principals(self, capsys):
        args = [
            "experiment",
            "--synthetic", "n=10", "silent=4",
            "--matrix", "table3",
            "--mode", "single_agent",
            "--seed", "2",
            "--format", "json",
            "--principal", "both",
        ]
        assert main(args) == 0
        report = mr.report_from_json(capsys.readouterr().out)
        assert report.overall.queries == 20

    def test_matrix_mix_and_jobs(self, capsys):
        args = [
            "experiment",
            "--synthetic", "n=20", "silent=8",
            "--matrix", "table2=1/2,table3=1/2",
            "--mode", "single_agent",
            "--seed", "3",
            "--format", "json",
            "--jobs", "3",
        ]
        assert main(args) == 0
        report = mr.report_from_json(capsys.readouterr().out)
        assert set(report.per_matrix) == {"table2", "table3"}
        assert report.overall.recommendations == 8

    def test_jobs_zero_exit_1(self, capsys):
        args = [
            "experiment",
            "--synthetic", "n=4", "silent=2",
            "--matrix", "table2",
            "--jobs", "0",
        ]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: jobs must be at least 1" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_synthetic_params(self, capsys):
        code = main(["experiment", "--synthetic", "n=10", "--matrix", "table2"])
        assert code == 1

    def test_custom_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(mr.matrix_to_csv(mr.builtin_matrix("table2")))
        args = [
            "experiment",
            "--synthetic", "n=4", "silent=2",
            "--matrix", "mine",
            "--matrix-file", f"mine={path}",
            "--mode", "single_agent",
            "--seed", "0",
            "--format", "json",
        ]
        assert main(args) == 0
        report = mr.report_from_json(capsys.readouterr().out)
        assert report.overall.recommendations == 2


class TestGenerateAndGraph:
    def test_generate_writes_stable_file(self, tmp_path):
        out = tmp_path / "log.csv"
        args = [
            "generate",
            "--synthetic", "n=9", "silent=4",
            "--matrix", "table1",
            "--seed", "5",
            "-o", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        records = mr.parse_game_log(out)
        assert len(records) == 9

    def test_graph_export(self, workdir, capsys):
        code = main(["graph", str(workdir / "model.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("->") == 4

    def test_graph_cyclic_model_exit_1(self, tmp_path, capsys):
        cyclic = {
            "variables": [
                {"name": "a", "kind": "endogenous", "domain": [0, 1]},
                {"name": "b", "kind": "endogenous", "domain": [0, 1]},
            ],
            "equations": [
                {"target": "a", "parents": ["b"], "table": [
                    {"in": [0], "out": 0}, {"in": [1], "out": 1}]},
                {"target": "b", "parents": ["a"], "table": [
                    {"in": [0], "out": 0}, {"in": [1], "out": 1}]},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(cyclic))
        code = main(["graph", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "cycle" in err


class TestUsage:
    def test_unknown_flag_exit_1(self, capsys):
        assert main(["experiment", "--bogus"]) == 1

    def test_missing_subcommand_exit_1(self, capsys):
        assert main([]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_output_env_dir(self, workdir, monkeypatch, tmp_path):
        monkeypatch.setenv("MULTIAGENT_RECOURSE_OUT_DIR", str(tmp_path / "outputs"))
        assert main(["solve", str(workdir / "query.json"), "-o", "result.json"]) == 0
        written = tmp_path / "outputs" / "result.json"
        assert written.exists()
        assert json.loads(written.read_text())["found"] is True
