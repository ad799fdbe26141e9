"""Exit codes, output shapes, and determinism of the command line."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiagent_recourse as mr
from multiagent_recourse.cli import main
from multiagent_recourse.gamelog import synthetic_log_text

QUERY_CASE1 = {
    "scm_file": "model.json",
    "principal": 1,
    "agents": {"1": "h1", "2": "h2"},
    "factual": {"x1": 0, "x2": 1},
    "feasible": [{"x1": 1}, {}],
    "constraints": [{"kind": "principal_improvement", "strict": True}],
}

# h1 flips x1; replaces QUERY_CASE1's model file when a case sets "scm".
SMALL_MODEL = {
    "variables": [
        {"name": "x1", "kind": "exogenous", "domain": [0, 1]},
        {"name": "h1", "kind": "endogenous", "domain": [0, 1]},
    ],
    "equations": [
        {"target": "h1", "parents": ["x1"], "table": [{"in": [0], "out": 1}, {"in": [1], "out": 0}]}
    ],
}


# Query files with the exact stdout (and stderr, if any) the CLI gives for them,
# and the exit code it gives.
GOLDEN = Path(__file__).parent / "data" / "solve"
GOLDEN_CODES = {
    "structural": 0,
    "baseline": 0,
    "weighted_fractional": 0,
    "scm_file": 0,
    "no_recommendation": 2,
    "non_invertible": 1,
    "malformed_clause": 1,
}


def small_model_with(path, value):
    """SMALL_MODEL with the field at ``path`` (keys and indices) set to ``value``."""
    model = copy.deepcopy(SMALL_MODEL)
    *parents, last = path
    node = model
    for key in parents:
        node = node[key]
    node[last] = value
    return model


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
    def test_threshold_past_the_digit_limit(self, workdir, capsys):
        outputs = []
        for solver in ("structural", "baseline"):
            query = dict(QUERY_CASE1, feasible=[{"x1": 1}], solver=solver)
            query["constraints"] = [{"kind": "threshold", "agent": 1, "t": "3/" + str(2**14000)}]
            (workdir / "large.json").write_text(json.dumps(query))
            assert main(["solve", str(workdir / "large.json")]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert (payload["found"], payload["action"], payload["cost"]) == (True, {"x1": 1}, 1)

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("factual", [0, 1], "'factual' must be an object"),
            ("cost", {"weights": [1, 2]}, "'cost.weights' must be an object"),
            ("cost", {"weights": {"x1": "abc"}}, "cannot interpret 'abc'"),
            ("constraints", [{"kind": "threshold", "agent": 1, "t": "abc"}], "cannot interpret 'abc'"),
            ("plausible", [{"x1": "abc"}], "'plausible': cannot interpret 'abc'"),
            ("factual", {"x1": "1e999999", "x2": 1}, "out of range"),
            ("feasible", [{"x1": "1e999999"}], "out of range"),
            (
                "scm",
                small_model_with(("variables", 0, "domain"), 5),
                "variables[0] field 'domain' must be a list",
            ),
            (
                "scm",
                small_model_with(("variables", 0, "domain"), "01"),
                "variables[0] field 'domain' must be a list",
            ),
            (
                "scm",
                small_model_with(("equations", 0, "parents"), 5),
                "equations[0] field 'parents' must be a list",
            ),
            (
                "scm",
                small_model_with(("equations", 0, "parents"), "x1"),
                "equations[0] field 'parents' must be a list",
            ),
            (
                "scm",
                small_model_with(("equations", 0, "table", 1, "in"), 5),
                "equations[0].table[1] field 'in' must be a list",
            ),
            (
                "scm",
                small_model_with(("equations", 0, "table", 1, "in"), "1"),
                "equations[0].table[1] field 'in' must be a list",
            ),
            (
                "scm",
                small_model_with(("equations",), 5),
                "model field 'equations' must be a list",
            ),
            ("scm_file", 5, "query field 'scm_file' must be a string"),
            ("constraints", 5, "query field 'constraints' must be a list"),
            ("constraints", [{"kind": ["pareto"]}], "constraints[0] field 'kind' must be a string"),
            # Not decimal integers, so string ids: agent 1 is then missing.
            ("agents", {"\u00b2": "h1"}, "principal 1 is not among the agents"),
            ("agents", {"--1": "h1"}, "principal 1 is not among the agents"),
            ("principal", True, "query field 'principal' must be an integer or a string"),
            ("agents", {"1": None, "2": "h2"}, "agents field '1' must be a string, got None"),
            ("cost", {"kind": "count", "bogus": 1}, "query field 'cost' has unknown field(s): bogus"),
            # JSON true is no number, though Python's True equals 1.
            ("factual", {"x1": True, "x2": 1}, "query field 'factual': cannot interpret bool value True"),
            (
                "scm",
                small_model_with(("variables", 0, "domain"), [True, 0]),
                "variables[0] field 'domain': cannot interpret bool value True",
            ),
            (
                "scm",
                small_model_with(("equations", 0, "table", 1, "in"), [True]),
                "equations[0].table[1] field 'in': cannot interpret bool value True",
            ),
            ("agents", {"1": "h1", "01": "h2"}, "query field 'agents' names agent 1 twice: '1' and '01'"),
            ("agents", {}, "error: query declares no agents"),
            (
                "scm",
                small_model_with(("variables", 0, "kind"), "latent"),
                "error: variable 'x1' has unknown kind 'latent'",
            ),
            (
                "scm",
                small_model_with(("equations", 0, "target"), "ghost"),
                "error: equation targets undeclared variable 'ghost'",
            ),
            ("plausible", [{"x1": 0}, {"ghost": 1}], "error: plausible[1]: unknown variable 'ghost'"),
            ("plausible", [{"x1": 7}], "error: plausible[0]: value 7 is outside the domain of 'x1'"),
            (
                "cost",
                {"kind": "weighted", "weights": {"ghost": 1}},
                "error: cost weight names undeclared variable 'ghost'",
            ),
        ],
        ids=[
            "factual-list",
            "weights-list",
            "weight-text",
            "threshold-text",
            "plausible-text",
            "factual-huge",
            "feasible-huge",
            "domain-int",
            "domain-text",
            "parents-int",
            "parents-text",
            "in-int",
            "in-text",
            "equations-int",
            "scm-file-int",
            "constraints-int",
            "kind-list",
            "agent-superscript",
            "agent-double-minus",
            "principal-bool",
            "outcome-null",
            "cost-unknown-field",
            "factual-bool",
            "domain-bool",
            "in-bool",
            "agents-collide",
            "agents-empty",
            "kind-unknown",
            "target-undeclared",
            "plausible-undeclared",
            "plausible-outside",
            "weight-undeclared",
        ],
    )
    def test_malformed_query_field_exit_1(self, workdir, capsys, field, value, message):
        data = dict(QUERY_CASE1, **{field: value})
        if field == "scm":
            del data["scm_file"]
        (workdir / "bad.json").write_text(json.dumps(data))
        code = main(["solve", str(workdir / "bad.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "literal", ["1e999999999", "1.5E-999999999", "1" * 5000], ids=["exp", "neg-exp", "int"]
    )
    def test_oversized_json_number_exit_1(self, workdir, capsys, literal):
        text = json.dumps(dict(QUERY_CASE1, factual={"x1": "N", "x2": 1}))
        (workdir / "bad.json").write_text(text.replace('"N"', literal))
        code = main(["solve", str(workdir / "bad.json")])
        shown = literal if len(literal) <= 40 else literal[:37] + "..."
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {workdir / 'bad.json'}: numeric literal {shown!r} "
            "is out of range (more than 4300 digits)\n"
        )

    @pytest.mark.parametrize(
        "value, message",
        [
            (" " * 100_000 + "x", "'" + " " * 37 + "...' as a rational value"),
            ([0] * 100_000, "list value [0, 0, 0, 0, 0, 0, ...] as a rational"),
        ],
        ids=["padded-string", "long-list"],
    )
    def test_unreadable_long_field_one_short_line(self, workdir, capsys, value, message):
        (workdir / "bad.json").write_text(json.dumps(dict(QUERY_CASE1, factual={"x1": value, "x2": 1})))
        code = main(["solve", str(workdir / "bad.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: query field 'factual': cannot interpret {message}\n"

    @pytest.mark.parametrize("name", ["query.json", "model.json"])
    def test_deeply_nested_json_exit_1(self, workdir, capsys, name):
        (workdir / name).write_text("[" * 200_000)
        code = main(["solve", str(workdir / "query.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {workdir / name}: maximum recursion depth exceeded")
        assert "Traceback" not in err

    def test_oversized_result_exit_1(self, tmp_path, capsys):
        # Both literals are in range; the weighted cost, 10**6000, is not.
        query = {
            "scm": {
                "variables": [
                    {"name": "x1", "kind": "exogenous", "domain": [0, "1e3000"]},
                    {"name": "h1", "kind": "endogenous", "domain": [0, 1]},
                ],
                "equations": [
                    {
                        "target": "h1",
                        "parents": ["x1"],
                        "table": [{"in": [0], "out": 0}, {"in": ["1e3000"], "out": 1}],
                    }
                ],
            },
            "principal": 1,
            "agents": {"1": "h1"},
            "factual": {"x1": 0},
            "feasible": [{"x1": "1e3000"}],
            "constraints": [{"kind": "principal_improvement"}],
            "cost": {"kind": "weighted", "weights": {"x1": "1e3000"}},
        }
        (tmp_path / "huge.json").write_text(json.dumps(query))
        code = main(["solve", str(tmp_path / "huge.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and "out of range" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name, exit_code", list(GOLDEN_CODES.items()))
    def test_golden_output(self, capsysbinary, name, exit_code):
        code = main(["solve", str(GOLDEN / f"{name}.json")])
        captured = capsysbinary.readouterr()
        assert code == exit_code
        assert captured.out == (GOLDEN / f"{name}.stdout").read_bytes()
        stderr = GOLDEN / f"{name}.stderr"
        assert captured.err == (stderr.read_bytes() if stderr.exists() else b"")

    def test_out_of_domain_action_quoted_as_a_file_writes_it(self, workdir, capsys):
        data = dict(QUERY_CASE1, feasible=[{"x1": "7/2"}])
        (workdir / "bad_action.json").write_text(json.dumps(data))
        code = main(["solve", str(workdir / "bad_action.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: value 3.5 is outside the domain of 'x1'\n"

    @pytest.mark.parametrize("which", ["query", "model"])
    def test_json_file_not_utf8_exit_1(self, workdir, capsys, which):
        bad = workdir / ("query.json" if which == "query" else "model.json")
        bad.write_bytes(b"\xff" + bad.read_bytes())
        code = main(["solve", str(workdir / "query.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {which} file {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_baseline_solver_mode(self, workdir, capsys):
        data = dict(QUERY_CASE1)
        data["solver"] = "baseline"
        data["constraints"] = []
        (workdir / "baseline.json").write_text(json.dumps(data))
        code = main(["solve", str(workdir / "baseline.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["action"] == {"x1": 1}


# Arguments that parse but that the draws refuse, with the message.
BAD_DRAW_ARGS = [
    (["--synthetic", "n=-1", "silent=0"], "n_total must be nonnegative"),
    (["--synthetic", "n=5", "silent=9"], "n_principal_silent must lie between 0 and n_total"),
    (["--synthetic", "n=5", "silent=-1"], "n_principal_silent must lie between 0 and n_total"),
    (["--synthetic", "n=5", "silent=2", "--matrix", "table1=-1/2,table2=3/2"],
     "matrix proportions must be nonnegative"),
    (["--synthetic", "n=5", "silent=2", "--matrix", "table2=1/2"], "matrix proportions must sum to 1"),
    # Counts that no list can hold: CPython refuses both before asking for memory.
    (["--synthetic", "n=100000000000000000000", "silent=1"], "n_total is too large to draw in memory"),
    (["--synthetic", f"n={2**62}", "silent=1"], "n_total is too large to draw in memory"),
]
BAD_DRAW_IDS = ["negative-n", "silent-above-n", "negative-silent", "negative-proportion", "proportions-not-one",
                "n-past-an-index", "n-past-memory"]


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

    def test_jobs_zero_exit_1(self, tmp_path, capsys):
        # --jobs is checked before the log is read or generated: no note line.
        for source in (["--synthetic", "n=4", "silent=2"], ["--log", str(tmp_path / "absent.csv")]):
            assert main(["experiment", *source, "--matrix", "table2", "--jobs", "0"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: jobs must be at least 1\n"

    def test_mode_choices_are_the_paper_modes_in_order(self, capsys):
        assert main(["experiment", "--synthetic", "n=4", "silent=2", "--mode", "custom"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --mode: invalid choice: 'custom' (choose from "
            "'single_agent', 'social_welfare', 'pareto', 'pareto_and_welfare')\n"
        )

    def test_bad_synthetic_params(self, capsys):
        code = main(["experiment", "--synthetic", "n=10", "--matrix", "table2"])
        assert code == 1

    @pytest.mark.parametrize("command", ["experiment", "generate"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--synthetic", "n=5", "silent=2", "n=7"], "--synthetic gives n more than once"),
            (["--synthetic", "silent=2", "n=5", "silent=2"], "--synthetic gives silent more than once"),
            (["--synthetic", "n=5", "silent=2", "--matrix", "a=1/2,a=1/2"], "--matrix gives 'a' more than once"),
        ],
        ids=["n", "silent", "matrix"],
    )
    def test_repeated_parameter_exit_1(self, capsys, command, args, message):
        assert main([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["experiment", "generate"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--synthetic", "n=5", "quiet=2"], "--synthetic takes n=<total> silent=<count>, got 'quiet=2'"),
            (["--synthetic", "n=5", "silent"], "--synthetic takes n=<total> silent=<count>, got 'silent'"),
            (["--synthetic", "n=five", "silent=2"], "--synthetic n must be an integer"),
            (["--synthetic", "n=5", "silent=2", "--matrix", "table2=1/2,table3"], "bad --matrix entry 'table3'"),
            (["--synthetic", "n=5", "silent=2", "--matrix", "table2=1/2,=1/2"], "bad --matrix entry '=1/2'"),
            (["--synthetic", "n=5", "silent=2", "--matrix", ""], "bad --matrix entry ''"),
            (
                ["--synthetic", "n=5", "silent=2", "--matrix", "table2=half,table3=1/2"],
                "bad proportion in --matrix entry 'table2=half'",
            ),
            *BAD_DRAW_ARGS,
        ],
        ids=["synthetic-key", "synthetic-no-value", "synthetic-not-integer", "matrix-no-proportion",
             "matrix-no-name", "matrix-empty", "matrix-proportion", *BAD_DRAW_IDS],
    )
    def test_bad_parameter_exit_1(self, capsys, command, args, message):
        assert main([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["experiment", "generate"])
    @pytest.mark.parametrize(
        "n, silent",
        [
            ("1_0", "3"), ("10", "\u0663"), ("\uff11\uff10", "3"), (" 10", "3"), ("10\n", "3"),
            ("+10", "3"), ("--1", "3"), ("", "3"), ("-", "3"), ("1e1", "3"),
        ],
        ids=["underscore", "arabic-indic", "fullwidth", "space", "newline", "plus", "double-minus",
             "empty", "minus-only", "exponent"],
    )
    def test_synthetic_counts_are_ascii_integers(self, capsys, command, n, silent):
        # int() alone would read the first six as n=10 or silent=3.
        key = "silent" if silent != "3" else "n"
        assert main([command, "--synthetic", f"n={n}", f"silent={silent}", "--matrix", "table2"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --synthetic {key} must be an integer\n")

    @pytest.mark.parametrize(
        "command, flag", [("experiment", "--seed"), ("generate", "--seed"), ("experiment", "--jobs")]
    )
    @pytest.mark.parametrize(
        "value",
        ["1_0", "١٠", "１０", " 10", "10\n", "+10", "1e1", "abc", "9" * 4301],
        ids=["underscore", "arabic-indic", "fullwidth", "space", "newline", "plus", "exponent",
             "letters", "over-the-digit-limit"],
    )
    def test_seed_and_jobs_are_ascii_integers(self, capsys, command, flag, value):
        # The rule of --synthetic's counts; int() alone would read the first six as 10.
        assert main([command, "--synthetic", "n=3", "silent=1", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("seed", ["-1", "0", "401"])
    def test_seed_reads_as_the_int_it_writes(self, capsys, seed):
        assert main(["generate", "--synthetic", "n=30", "silent=4", "--seed", seed]) == 0
        assert capsys.readouterr().out == synthetic_log_text(30, 4, {"table1": 1}, int(seed))
        args = ["--synthetic", "n=30", "silent=4", "--seed", seed, "--format", "json"]
        assert main(["experiment", *args, "--jobs", "2"]) == 0
        with_jobs = capsys.readouterr()
        assert main(["experiment", *args]) == 0
        assert capsys.readouterr() == with_jobs

    # An empty mix cannot be spelled here: --matrix "" is refused as an entry with no name.
    @pytest.mark.parametrize(
        "args, message",
        [
            (["n=5", "quiet=2"], "--synthetic takes n=<total> silent=<count>, got 'quiet=2'"),
            (["n=5", "silent=2", "n=7"], "--synthetic gives n more than once"),
            (["n=5"], "--synthetic needs both n=<total> and silent=<count>"),
            (["n=5", "silent=x"], "--synthetic silent must be an integer"),
            (["n=5", "silent=2", "--matrix", "table2=1/2,table2=1/2"], "--matrix gives 'table2' more than once"),
            (["n=5", "silent=2", "--matrix", "table2=1/2,=1/2"], "bad --matrix entry '=1/2'"),
            (["n=5", "silent=2", "--matrix", ""], "bad --matrix entry ''"),
            (["n=5", "silent=2", "--matrix", "table2=half,table3=1/2"], "bad proportion in --matrix entry 'table2=half'"),
            *((args[1:], message) for args, message in BAD_DRAW_ARGS),
        ],
        ids=["synthetic-key", "synthetic-repeated", "synthetic-missing", "synthetic-not-integer",
             "matrix-repeated", "matrix-no-name", "matrix-empty", "matrix-proportion", *BAD_DRAW_IDS],
    )
    def test_generate_refusal_writes_no_file(self, tmp_path, capsys, args, message):
        out = tmp_path / "log.csv"
        assert main(["generate", "--synthetic", *args, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

    def test_matrix_file_without_name_exit_1(self, capsys):
        args = ["experiment", "--synthetic", "n=4", "silent=2", "--matrix-file", "mine.csv"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[1:] == ["error: --matrix-file takes NAME=PATH, got 'mine.csv'"]

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

    @pytest.mark.parametrize(
        "mode, counts",
        [
            ("single_agent", "380,380,0,190,190,380,0"),
            ("social_welfare", "380,380,0,190,190,380,0"),
            ("pareto", "190,190,0,190,0,190,0"),
            ("pareto_and_welfare", "190,190,0,190,0,190,0"),
        ],
    )
    def test_stag_hunt(self, tmp_path, capsys, mode, counts):
        # Not a prisoner's dilemma: R 4 > T 3 > P 2 > S 0 (stag is silent).  The
        # counts follow the switch rule of tests/test_cells.py.
        path = tmp_path / "stag.csv"
        path.write_text("row_action,col_action,p1,p2\n0,0,4,4\n0,1,0,3\n1,0,3,0\n1,1,2,2\n")
        args = [
            "experiment", "--synthetic", "n=400", "silent=200", "--matrix", "stag",
            "--matrix-file", f"stag={path}", "--principal", "both", "--mode", mode, "--seed", "7",
            "--format", "csv",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"overall,400,800,{counts}", f"stag,400,800,{counts}"]

    @pytest.mark.parametrize(
        "names, message",
        [
            (["mine", "mine"], "--matrix-file gives 'mine' more than once"),
            (["mine", "overall"], "--matrix-file cannot name a matrix 'overall': reports use it for the totals"),
        ],
        ids=["repeated", "overall"],
    )
    def test_bad_matrix_file_name_exit_1(self, tmp_path, capsys, names, message):
        path = tmp_path / "m.csv"
        path.write_text(mr.matrix_to_csv(mr.builtin_matrix("table2")))
        # The second file does not exist: the name is refused before it is read.
        files = [f"{names[0]}={path}", f"{names[1]}={tmp_path / 'absent.csv'}"]
        args = ["experiment", "--synthetic", "n=4", "silent=2", "--matrix", "mine", "--format", "csv"]
        assert main([*args, "--matrix-file", files[0], "--matrix-file", files[1]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[1:] == [f"error: {message}"]

    @pytest.mark.parametrize(
        "which, content, message",
        [
            ("log", b"\xff" + mr.write_game_log([]).encode(), "cannot read log file {path}: 'utf-8' codec"),
            ("matrix", b"row_action,col_action,p1,p2\n0,0,\xe9,1\n", "cannot read matrix file {path}: 'utf-8' codec"),
            ("log", (mr.write_game_log([]) + "g" * 131073 + ",table2,test,0,1,0,1\n").encode(),
             "{path}: line 2: field larger than field limit (131072)"),
            ("matrix", ("row_action,col_action,p1,p2\n\n0,0,1,1\n0,1,\"" + "9" * 131073 + "\",1\n").encode(),
             "{path}: line 4: field larger than field limit (131072)"),
        ],
        ids=["log-not-utf8", "matrix-not-utf8", "log-oversized-field", "matrix-oversized-field"],
    )
    def test_unreadable_csv_exit_1(self, tmp_path, capsys, which, content, message):
        path = tmp_path / f"{which}.csv"
        path.write_bytes(content)
        if which == "log":
            args = ["experiment", "--log", str(path)]
        else:
            args = ["experiment", "--synthetic", "n=2", "silent=1", "--matrix", "mine", "--matrix-file", f"mine={path}"]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if not line.startswith("note: ")]
        assert len(errors) == 1 and errors[0].startswith("error: " + message.format(path=path))
        assert "Traceback" not in err

    @pytest.mark.parametrize("noun", ["query", "model", "log", "matrix"])
    def test_missing_input_file_exit_1(self, tmp_path, capsys, noun):
        path = tmp_path / "absent" / f"{noun}.file"
        args = {
            "query": ["solve", str(path)],
            "model": ["graph", str(path)],
            "log": ["experiment", "--log", str(path)],
            "matrix": ["experiment", "--synthetic", "n=2", "silent=1", "--matrix", "mine", "--matrix-file", f"mine={path}"],
        }[noun]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if not line.startswith("note: ")] == [
            f"error: cannot read {noun} file {path}: [Errno 2] No such file or directory: '{path}'"
        ]


# SHA-256 of the stdout and stderr of `experiment --synthetic`, recorded when
# the synthetic log was still built game by game as GameRecords and folded
# through run_experiment: counting the draws per cell must not change a byte.
# The paper's runs, keyed by mode, format and principal policy:
PAPER_DIGESTS = {
    ("single_agent", "table", "p1"): "cdf5b161a570820324df0e7aa24ab1075b5dd084d7e8668970e64fe71794f1de",
    ("single_agent", "table", "both"): "d914e6abcbd74b70409f8cbed40d4e680ff3370bceb703d8a9b86909b64ebb39",
    ("single_agent", "csv", "p1"): "7bb0f423dc24bc9d8dc05a34cfbc09d75523abb0da79807c0543641c0a2c830c",
    ("single_agent", "csv", "both"): "90441b53f5259bb9ac68c28d0e826b91a1ea3996899a2768b0574ed3ea0429bd",
    ("single_agent", "json", "p1"): "c846be4353001897d2b458e5a3eb1595fb9944bf5228098d0b31e542f2843adf",
    ("single_agent", "json", "both"): "a8d74add08404a37dc3adefa07dd38732c8254a4ba394c39608336054dc5c8d0",
    ("social_welfare", "table", "p1"): "efa12b647c4fdba926a92ec5dceb514ebb749f4e71f4d258c040c21e6b19658a",
    ("social_welfare", "table", "both"): "036f91a4b9998b9fa0b83d365a1ae12c0b68b70fc2553fea4834207e8cefbfcc",
    ("social_welfare", "csv", "p1"): "6fd43ca40d56adc17791e6e7e210ae71cfa7a090654a6f14d9bb2bbbe3703557",
    ("social_welfare", "csv", "both"): "fbb7524a94c42427f6f20061cf0518c2c44a32a0093fdb839ec34ccb8ff5be3b",
    ("social_welfare", "json", "p1"): "e03fb13b45da9402484bc0bf75ea995a967537daa5c154136573cc3f23363d5d",
    ("social_welfare", "json", "both"): "6c7b3905044335187d72a2620df099eb4a13534d19f26e1b61cbe41c799f4fec",
    ("pareto", "table", "p1"): "911eb9a2d78a1a63888228ee65e15084839aa3c4751e41cffc1b863529a521c0",
    ("pareto", "table", "both"): "b13432c86c7e047ce9679d9b6c29c1fbfa1c66005755e41512156c14ca292365",
    ("pareto", "csv", "p1"): "3e0bc9b545630eb41518f514f266daa7a26b88fa6ba091fbf259d69d9e93d788",
    ("pareto", "csv", "both"): "04c37af09c5609ade62de239fa9cc98badab110e94750d9e962ddcb6874a1e40",
    ("pareto", "json", "p1"): "c987a0d6d45af80a6477a02a3f930b83fc10d6acfe8c7835c438b91cd4b90751",
    ("pareto", "json", "both"): "ed2f3622ee2ee07d92d28b6049baac54a3a77eb1bafe3f190dfb8ac74c004699",
    ("pareto_and_welfare", "table", "p1"): "911eb9a2d78a1a63888228ee65e15084839aa3c4751e41cffc1b863529a521c0",
    ("pareto_and_welfare", "table", "both"): "b13432c86c7e047ce9679d9b6c29c1fbfa1c66005755e41512156c14ca292365",
    ("pareto_and_welfare", "csv", "p1"): "3e0bc9b545630eb41518f514f266daa7a26b88fa6ba091fbf259d69d9e93d788",
    ("pareto_and_welfare", "csv", "both"): "04c37af09c5609ade62de239fa9cc98badab110e94750d9e962ddcb6874a1e40",
    ("pareto_and_welfare", "json", "p1"): "c987a0d6d45af80a6477a02a3f930b83fc10d6acfe8c7835c438b91cd4b90751",
    ("pareto_and_welfare", "json", "both"): "ed2f3622ee2ee07d92d28b6049baac54a3a77eb1bafe3f190dfb8ac74c004699",
}
# A mix with a custom matrix from --matrix-file and --include-identity, in
# table format, keyed by mode and principal policy:
MIX_DIGESTS = {
    ("single_agent", "p1"): "cca9bbede4480fbf177ae32cec41d665547c78e32a269e5278f4192461e16b4c",
    ("single_agent", "both"): "ea5bdf2d639a0ef14b7855de27724b7be9ed1d13101a9d7b4ac92b37bfd2bd03",
    ("social_welfare", "p1"): "762eac5548796b73419a765ae784b8e60af65097fa90f31fcc52919ec04f2d3c",
    ("social_welfare", "both"): "f6299c8d4f6a0da4d8106bebe108ed81b1aa4b88a895e60ec3edada237b5f95f",
    ("pareto", "p1"): "6bef5f5d57e152388eca3e846fab0951d80c3bebce5af08541060c24e25fc0c1",
    ("pareto", "both"): "387bf5b833ab9b65f4a01ec1111f6f5e69f244ff9e173c6291de650014100d00",
    ("pareto_and_welfare", "p1"): "6bef5f5d57e152388eca3e846fab0951d80c3bebce5af08541060c24e25fc0c1",
    ("pareto_and_welfare", "both"): "387bf5b833ab9b65f4a01ec1111f6f5e69f244ff9e173c6291de650014100d00",
}
EMPTY_DIGEST = "a8297d4acaa7ad65a1204fbbdccf759e51f446c862f7e0f73b4e563e6503d9d1"  # n=0, csv
# stderr, keyed by the number of games:
NOTE_DIGESTS = {
    3294: "2a6266362333b0098b7336c782877b7d5664608bab3dd9ff209959fe28a7ba2d",
    600: "d866d8cf3d6651ecbd0aebe12866e68eceb7cfd62e87fb6dd34c30e2601ca0f0",
    0: "1b85b52c06b8b014b1ad2c427e2f4a32909ed6508a2289cffcc4f629345ee955",  # and the warning
}
# SHA-256 of the generated log (`--seed 401`) for the benchmark's two argument
# sets, as the row-by-row writer wrote it: sharing row tails must not change a
# byte.  The third, written from GameRecords, has six-digit game ids and a
# matrix id the CSV writer quotes.
GENERATE_DIGESTS = {
    "log_ingest": (["n=30000", "silent=9000", "--matrix", "table1=1/4,table2=1/4,table3=1/2"],
                   "7e5a7c0b66c1205ac825bf38b0e45bce0827894629981f5d79670c20fc854ecc"),
    "paper": (["n=3294", "silent=434", "--matrix", "table2"],
              "9c72b4b445c9a4868dae74c614ee9a353a071985ea86220a821985252730457e"),
    "six-digit-ids-quoted-matrix": (["n=100001", "silent=13000", "--matrix", 'say "t"=1/3,table2=2/3'],
                                    "15b8c2247f899db51c3cd9a008414cfe01c8e079e5e3509c522649ec7837c358"),
}
MINE = mr.PayoffMatrix(
    "mine", {(1, 1): ("2", "2"), (1, 0): ("9/2", "1/4"), (0, 1): ("1/4", "9/2"), (0, 0): ("3", "3")}
)


NO_GAMES_ARGS = ["--synthetic", "n=0", "silent=0", "--matrix", "table2", "--format", "csv"]


def paper_args(mode, fmt, principal):
    """The `experiment` arguments of a PAPER_DIGESTS key."""
    return ["--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "401",
            "--mode", mode, "--format", fmt, "--principal", principal]


def mix_args(mode, principal, directory):
    """The `experiment` arguments of a MIX_DIGESTS key, with MINE written into ``directory``."""
    path = directory / "mine.csv"
    path.write_text(mr.matrix_to_csv(MINE))
    return ["--synthetic", "n=600", "silent=200", "--matrix", "mine=1/4,table1=1/4,table3=1/2",
            "--matrix-file", f"mine={path}", "--include-identity", "--seed", "401",
            "--mode", mode, "--principal", principal]


class TestExperimentGolden:
    def digests(self, capsysbinary, argv):
        assert main(["experiment", *argv]) == 0
        captured = capsysbinary.readouterr()
        return hashlib.sha256(captured.out).hexdigest(), hashlib.sha256(captured.err).hexdigest()

    @pytest.mark.parametrize("key", list(PAPER_DIGESTS), ids="-".join)
    def test_paper(self, capsysbinary, key):
        assert self.digests(capsysbinary, paper_args(*key)) == (PAPER_DIGESTS[key], NOTE_DIGESTS[3294])

    @pytest.mark.parametrize("key", list(MIX_DIGESTS), ids="-".join)
    def test_mix_with_a_custom_matrix(self, tmp_path, capsysbinary, key):
        argv = mix_args(*key, tmp_path)
        assert self.digests(capsysbinary, argv) == (MIX_DIGESTS[key], NOTE_DIGESTS[600])

    def test_no_games(self, capsysbinary):
        assert self.digests(capsysbinary, NO_GAMES_ARGS) == (EMPTY_DIGEST, NOTE_DIGESTS[0])


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

    @pytest.mark.parametrize("args, digest", list(GENERATE_DIGESTS.values()), ids=list(GENERATE_DIGESTS))
    def test_generate_golden_digest(self, tmp_path, args, digest):
        out = tmp_path / "log.csv"
        assert main(["generate", "--synthetic", *args, "--seed", "401", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args",
        [["n=0", "silent=0"], ["n=60", "silent=25", "--matrix", 'say "t"=1/4,t 3=1/4,tableé=1/2']],
        ids=["empty", "quoted-matrix-ids"],
    )
    def test_generate_stdout_and_file_are_the_same_bytes(self, tmp_path, capsysbinary, args):
        out = tmp_path / "log.csv"
        assert main(["generate", "--synthetic", *args, "--seed", "7"]) == 0
        printed = capsysbinary.readouterr().out
        assert main(["generate", "--synthetic", *args, "--seed", "7", "-o", str(out)]) == 0
        assert out.read_bytes() == printed
        assert printed.startswith(b"game_id,matrix_id,group,delta,round,p1_action,p2_action\n")

    def test_generated_log_keeps_a_carriage_return_in_an_id(self, tmp_path, capsys):
        # The id is quoted in the file, and reads back with its "\r" from there.
        matrix = tmp_path / "m.csv"
        matrix.write_text(mr.matrix_to_csv(mr.builtin_matrix("table2")))
        log = tmp_path / "x.csv"
        args = ["--synthetic", "n=4", "silent=1", "--matrix", "t\r1=1/2,table2=1/2", "-o", str(log)]
        assert main(["generate", *args]) == 0
        assert {game.matrix_id for game in mr.parse_game_log(log)} == {"t\r1", "table2"}
        assert main(["experiment", "--log", str(log), "--matrix-file", f"t\r1={matrix}", "--format", "json"]) == 0
        assert set(json.loads(capsys.readouterr().out)["per_matrix"]) == {"t\r1", "table2"}

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    @pytest.mark.parametrize(
        "target, reason",
        [("", "Is a directory"), ("file.txt/log.csv", "File exists"), ("file.txt/sub/log.csv", "Not a directory")],
        ids=["directory", "under-file", "deep-under-file"],
    )
    def test_unwritable_output_exit_1(self, tmp_path, capsys, command, target, reason):
        (tmp_path / "file.txt").write_text("")
        path = tmp_path / target
        assert main([command, "--synthetic", "n=4", "silent=2", "--matrix", "table2", "-o", str(path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if not line.startswith("note: ")]
        assert errors == [f"error: cannot write output file {path}: {reason}"]

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_output_utf8_cannot_encode_exit_1(self, tmp_path, capsys, command):
        # An argument that does not decode reaches the program as a lone surrogate.
        matrix = tmp_path / "m.csv"
        matrix.write_text(mr.matrix_to_csv(mr.builtin_matrix("table2")))
        out = tmp_path / "out.csv"
        args = ["--synthetic", "n=1", "silent=0", "--matrix", "t\udcff", "-o", str(out)]
        if command == "experiment":
            args += ["--matrix-file", f"t\udcff={matrix}", "--format", "csv"]
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if not line.startswith("note: ")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot write output file {out}: 'utf-8' codec can't encode character")
        assert errors[0].endswith(": surrogates not allowed")
        assert not out.exists()

    def test_files_are_utf8_in_the_c_locale(self, tmp_path):
        env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0")
        package_root = str(Path(mr.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "multiagent_recourse.cli", *argv],
                capture_output=True, env=env, cwd=tmp_path,
            )

        log = tmp_path / "log.csv"
        log.write_bytes(mr.write_game_log([mr.GameRecord("gé", "table2", "control", None, [(0, 1)])]).encode("utf-8"))
        done = run("experiment", "--log", "log.csv", "--format", "json")
        assert (done.returncode, done.stderr) == (0, b"note: 0 of 1 games filtered out (not single-round-equivalent)\n")
        assert json.loads(done.stdout)["overall"]["games"] == 1
        # A non-ASCII argument does not decode in this locale, so the log cannot be written:
        # the program writes no file that its own readers would refuse.
        done = run("generate", "--synthetic", "n=2", "silent=0", "--matrix", "tableé", "-o", "x.csv")
        assert done.returncode == 1
        assert done.stderr.startswith(b"error: cannot write output file x.csv: 'utf-8' codec can't encode")
        assert not (tmp_path / "x.csv").exists()
        # Standard output is written with surrogateescape, so there the argument's bytes come back.
        done = run("generate", "--synthetic", "n=2", "silent=0", "--matrix", "tableé")
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[1] == b"g00000,table\xc3\xa9,test,0,1,1,1"

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

    TINY = "3/" + str(2**14000)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (("equations", 0, "table", 0, "out"), TINY,
             "table for 'h1' maps [0] to {shown}, outside the declared domain"),
            (("variables", 0, "domain"), [0, TINY],
             "table for 'h1' is missing 1 row(s), e.g. parents=[{shown}]"),
        ],
        ids=["output", "missing-row"],
    )
    def test_graph_table_error_cuts_a_long_value(self, tmp_path, capsys, field, value, message):
        model = small_model_with(field, value)
        if field[0] == "variables":  # the table still gives x1 = 0 and 1: drop the row for 1
            del model["equations"][0]["table"][1]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["graph", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.format(shown=self.TINY[:37] + "...") + "\n"

    def test_graph_model_not_utf8_exit_1(self, workdir, capsys):
        bad = workdir / "model.json"
        bad.write_bytes(bad.read_bytes() + b"\xe9")
        size = bad.stat().st_size
        code = main(["graph", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read model file {bad}: 'utf-8' codec can't decode byte 0xe9 "
            f"in position {size - 1}: unexpected end of data\n"
        )

    def test_graph_deeply_nested_model_exit_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"variables": ' + "[" * 200_000)
        code = main(["graph", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
        assert "Traceback" not in err


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


def _model(variables, equations):
    return {
        "variables": [{"name": n, "kind": k, "domain": d} for n, k, d in variables],
        "equations": [
            {"target": t, "parents": p, "table": [{"in": i, "out": o} for i, o in rows]}
            for t, p, rows in equations
        ],
    }


# Models whose errors come from sets: the cycle's members, the stray and the missing rows.
BROKEN_MODELS = {
    "cycle": _model(
        [("x", "exogenous", [0, 1])] + [(n, "endogenous", [0, 1]) for n in "dcba"],
        [
            ("a", ["d"], [([0], 0), ([1], 1)]),
            ("b", ["a", "x"], [([i, j], i) for i in (0, 1) for j in (0, 1)]),
            ("c", ["b"], [([0], 1), ([1], 0)]),
            ("d", ["c"], [([0], 0), ([1], 1)]),
        ],
    ),
    "stray": _model(
        [("x", "exogenous", [0, 1]), ("y", "exogenous", [0, 1, 2]), ("h", "endogenous", [0, 1])],
        [("h", ["x", "y"], [([i, j], 0) for i in (0, 1, 5, 7) for j in (0, 2, 9, 4)])],
    ),
    "missing": _model(
        [("x", "exogenous", [0, 1, 2]), ("y", "exogenous", [0, 1, 2]), ("h", "endogenous", [0, 1])],
        [("h", ["x", "y"], [([i, i], 1) for i in (0, 1, 2)])],
    ),
}

# Runs each argument list through the CLI in one process and prints one JSON
# line per command: its arguments, exit code, stdout and stderr.
_RUN_COMMANDS = """
import contextlib, io, json, sys
from multiagent_recourse.cli import main
from multiagent_recourse.gamelog import synthetic_log_text

for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue(), err.getvalue()]))
"""


class TestHashSeed:
    """Output does not depend on the hash seed: every command gives the same
    bytes and exit code in two interpreters with different ``PYTHONHASHSEED``."""

    def commands(self, tmp_path):
        for name, model in BROKEN_MODELS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(model))
        paper = ["--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "401"]
        mix = ["--synthetic", "n=600", "silent=200", "--matrix", "table1=1/4,table2=1/4,table3=1/2",
               "--seed", "401"]
        queries = [path for path in sorted(GOLDEN.glob("*.json")) if path.with_suffix(".stdout").exists()]
        commands = [["solve", str(path)] for path in queries]
        commands += [
            ["experiment", *paper, "--principal", "both", "--mode", mode, "--format", fmt]
            for mode in ("single_agent", "social_welfare", "pareto", "pareto_and_welfare")
            for fmt in ("table", "csv", "json")
        ]
        log = str(tmp_path / "log.csv")
        commands += [
            ["generate", *mix],
            ["generate", *mix, "-o", log],
            ["experiment", "--log", log, "--principal", "both", "--jobs", "2", "--format", "json"],
            ["experiment", *mix, "--principal", "both", "--mode", "social_welfare", "--format", "csv"],
            ["graph", str(GOLDEN / "pd_table2_model.json")],
        ]
        commands += [["graph", str(tmp_path / f"{name}.json")] for name in BROKEN_MODELS]
        return commands

    def run(self, commands, seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        package_root = str(Path(mr.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _RUN_COMMANDS], input=json.dumps(commands),
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stderr == ""
        return [json.loads(line) for line in done.stdout.splitlines()]

    def test_two_hash_seeds_give_the_same_bytes(self, tmp_path):
        commands = self.commands(tmp_path)
        first = self.run(commands, 1)
        assert len(first) == len(commands)
        assert first == self.run(commands, 2)
        for argv, _, out, _ in first:
            if argv[0] == "solve":
                assert out == Path(argv[1]).with_suffix(".stdout").read_text()
        errors = [err for argv, code, _, err in first if argv[0] == "graph" and code == 1]
        assert errors == [
            "error: causal graph has a cycle through: a, b, c, d\n",
            "error: table for 'h' has a row outside the parent domains: [0, 4]\n",
            "error: table for 'h' is missing 6 row(s), e.g. parents=[0, 1]\n",
        ]
