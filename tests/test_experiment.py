"""Log parsing, filtering, synthesis, experiment runs, and report rendering."""

import json
import random
from fractions import Fraction as F

import pytest

import multiagent_recourse as mr
from multiagent_recourse import experiment
from multiagent_recourse.gamelog import parse_game_log_text


def one_round_game(game_id, p1, p2, matrix_id="table2"):
    return mr.GameRecord(game_id, matrix_id, "test", F(0), [(p1, p2)])


SAMPLE_LOG = (
    "game_id,matrix_id,group,delta,round,p1_action,p2_action\n"
    "g1,table2,test,0,1,0,1\n"
    "g2,table2,test,1/2,1,1,1\n"
    "g2,table2,test,1/2,2,0,0\n"
    "g3,table3,control,,1,1,0\n"
)


class TestParsing:
    def test_three_games(self):
        records = parse_game_log_text(SAMPLE_LOG)
        assert [r.game_id for r in records] == ["g1", "g2", "g3"]
        assert records[0].delta == F(0)
        assert records[1].rounds == [(1, 1), (0, 0)]
        assert records[2].group == "control"
        assert records[2].delta is None

    def test_bad_action_reports_line(self):
        text = (
            "game_id,matrix_id,group,delta,round,p1_action,p2_action\n"
            "g1,table2,test,0,1,0,1\n"
            "g2,table2,test,0,1,2,0\n"
        )
        with pytest.raises(mr.DomainError, match="line 3"):
            parse_game_log_text(text)

    def test_bad_header(self):
        with pytest.raises(mr.ParseError):
            parse_game_log_text("a,b\n1,2\n")

    def test_bad_delta(self):
        text = (
            "game_id,matrix_id,group,delta,round,p1_action,p2_action\n"
            "g1,table2,test,1/3,1,0,1\n"
        )
        with pytest.raises(mr.ParseError, match="line 2"):
            parse_game_log_text(text)

    def test_inconsistent_game_rows(self):
        text = (
            "game_id,matrix_id,group,delta,round,p1_action,p2_action\n"
            "g1,table2,test,0,1,0,1\n"
            "g1,table3,test,0,2,0,1\n"
        )
        with pytest.raises(mr.ParseError, match="line 3"):
            parse_game_log_text(text)

    def test_duplicate_round(self):
        text = (
            "game_id,matrix_id,group,delta,round,p1_action,p2_action\n"
            "g1,table2,test,0,1,0,1\n"
            "g1,table2,test,0,1,1,1\n"
        )
        with pytest.raises(mr.ParseError, match="duplicate round"):
            parse_game_log_text(text)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ([], mr.ParseError, "log is empty; expected a header line"),
            (["g1,table2,test,0,1,0"], mr.ParseError, "line 2: expected 7 fields, got 6"),
            ([",table2,test,0,1,0,1"], mr.ParseError, "line 2: empty game_id"),
            (["g1,table2,treated,0,1,0,1"], mr.ParseError, "line 2: group must be 'test' or 'control'"),
            (["g1,table2,test,,1,0,1"], mr.ParseError, "line 2: test rows need a continuation probability"),
            (["g1,table2,test,half,1,0,1"], mr.ParseError, "line 2: test rows need a continuation probability"),
            (["g1,table2,test,0,one,0,1"], mr.ParseError, "line 2: round must be an integer"),
            (["g1,table2,test,0,0,0,1"], mr.ParseError, "line 2: round numbers start at 1"),
            (["g1,table2,test,0,1,0,x"], mr.DomainError, "line 2: p2_action must be 0 or 1"),
            (
                ["g1,table2,test,0,1,0,1", "g1,table2,test,0,3,0,1"],
                mr.ParseError,
                "game 'g1' has non-contiguous round numbers",
            ),
        ],
        ids=[
            "empty", "field-count", "empty-game-id", "bad-group", "no-delta", "unreadable-delta",
            "round-not-integer", "round-zero", "action-not-integer", "round-gap",
        ],
    )
    def test_log_errors(self, rows, error, message):
        text = "\n".join([SAMPLE_LOG.splitlines()[0], *rows]) + "\n" if rows else ""
        with pytest.raises(error) as caught:
            parse_game_log_text(text)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_one_game_may_spell_its_delta_two_ways(self):
        text = (
            "game_id,matrix_id,group,delta,round,p1_action,p2_action\n"
            "g1,table2,test,1/2,1,0,1\n"
            "g1,table2,test,0.5,2,1,1\n"
        )
        (record,) = parse_game_log_text(text)
        assert record.delta == F(1, 2)
        assert record.rounds == [(0, 1), (1, 1)]

    def test_round_trip_is_canonical(self):
        records = parse_game_log_text(SAMPLE_LOG)
        text = mr.write_game_log(records)
        assert parse_game_log_text(text) == records
        assert mr.write_game_log(parse_game_log_text(text)) == text


class TestFilter:
    def test_keeps_zero_delta_test_games(self):
        game = one_round_game("g1", 0, 1)
        assert mr.filter_single_round([game]) == [game]

    def test_drops_multi_round_control(self):
        game = mr.GameRecord("g1", "table2", "control", None, [(0, 1)] * 4)
        assert mr.filter_single_round([game]) == []

    def test_drops_positive_delta_test_games(self):
        game = mr.GameRecord("g1", "table2", "test", F(1, 2), [(0, 1)])
        assert mr.filter_single_round([game]) == []

    def test_keeps_one_round_control(self):
        game = mr.GameRecord("g1", "table2", "control", None, [(0, 1)])
        assert mr.filter_single_round([game]) == [game]


class TestGenerator:
    def test_counts_and_determinism(self):
        first = mr.generate_synthetic_log(50, 20, {"table2": 1}, seed=3)
        second = mr.generate_synthetic_log(50, 20, {"table2": 1}, seed=3)
        assert first == second
        assert len(first) == 50
        assert sum(1 for g in first if g.rounds[0][0] == 0) == 20
        assert all(g.group == "test" and g.delta == F(0) for g in first)
        assert mr.filter_single_round(first) == first

    def test_different_seed_differs(self):
        a = mr.generate_synthetic_log(50, 20, {"table2": 1}, seed=3)
        b = mr.generate_synthetic_log(50, 20, {"table2": 1}, seed=4)
        assert a != b

    def test_empty_log(self):
        assert mr.generate_synthetic_log(0, 0, {"table2": 1}, seed=0) == []

    def test_matrix_mix(self):
        games = mr.generate_synthetic_log(
            200, 100, {"table2": F(1, 2), "table3": F(1, 2)}, seed=5
        )
        ids = {g.matrix_id for g in games}
        assert ids == {"table2", "table3"}

    def test_bad_params(self):
        with pytest.raises(mr.InvalidParamsError):
            mr.generate_synthetic_log(5, 9, {"table2": 1}, seed=0)
        with pytest.raises(mr.InvalidParamsError):
            mr.generate_synthetic_log(5, 2, {"table2": F(1, 2)}, seed=0)
        with pytest.raises(mr.InvalidParamsError):
            mr.generate_synthetic_log(5, 2, {}, seed=0)
        with pytest.raises(mr.InvalidParamsError):
            mr.generate_synthetic_log(-1, 0, {"table2": 1}, seed=0)

    @pytest.mark.parametrize("make", [mr.generate_synthetic_log, mr.synthetic_log_text, mr.synthetic_cells])
    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((-1, 0, {"table2": 1}), mr.InvalidParamsError, "n_total must be nonnegative"),
            ((5, 9, {"table2": 1}), mr.InvalidParamsError, "n_principal_silent must lie between 0 and n_total"),
            ((5, -1, {"table2": 1}), mr.InvalidParamsError, "n_principal_silent must lie between 0 and n_total"),
            ((5, 2, {}), mr.InvalidParamsError, "matrix_mix must name at least one matrix"),
            ((5, 2, {"table1": F(-1, 2), "table2": F(3, 2)}), mr.InvalidParamsError,
             "matrix proportions must be nonnegative"),
            ((5, 2, {"table2": F(1, 2)}), mr.InvalidParamsError, "matrix proportions must sum to 1"),
            ((5, 2, {"table2": "half"}), mr.InvalidParamsError,
             "matrix_mix entry 'table2': cannot interpret 'half' as a rational value"),
            ((5, 2, {"table1": F(1, 2), "table2": True}), mr.InvalidParamsError,
             "matrix_mix entry 'table2': cannot interpret bool value True as a rational"),
            ((5, 2, {"a": F(1, 2), 1: F(1, 2)}), mr.InvalidParamsError,
             "matrix_mix ids 'a' and 1 cannot be sorted together"),
            ((5, 2, {(1, 2): F(1, 2), (1, "b"): F(1, 2)}), mr.InvalidParamsError,
             "matrix_mix ids (1, 2) and (1, 'b') cannot be sorted together"),
            # Counts that no list can hold: CPython refuses both before asking for memory.
            ((10**20, 1, {"table2": 1}), mr.InvalidParamsError, "n_total is too large to draw in memory"),
            ((2**62, 1, {"table2": 1}), mr.InvalidParamsError, "n_total is too large to draw in memory"),
        ],
        ids=["negative-n", "silent-above-n", "negative-silent", "empty-mix", "negative-proportion",
             "proportions-not-one", "proportion-not-a-number", "proportion-a-bool", "ids-of-two-types",
             "tuple-ids-that-do-not-sort", "n-past-an-index", "n-past-memory"],
    )
    def test_both_paths_refuse_alike(self, make, args, error, message):
        with pytest.raises(error) as caught:
            make(*args, seed=0)
        assert type(caught.value) is error
        assert str(caught.value) == message


ALL_PROFILES = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestRunExperiment:
    def four_profile_log(self, matrix_id="table2"):
        return [
            one_round_game(f"g{i}", p1, p2, matrix_id)
            for i, (p1, p2) in enumerate(ALL_PROFILES)
        ]

    def test_single_agent_counts(self):
        report = mr.run_experiment(
            self.four_profile_log(), mr.ExperimentConfig(mode="single_agent")
        )
        counts = report.overall
        assert counts.games == 4 and counts.queries == 4
        assert counts.recommendations == 2  # silent principals only
        assert counts.principal_improved == 2
        assert counts.pareto_violated == 2
        assert counts.welfare_decreased == 2
        assert counts.opponent_improved == 0
        assert counts.welfare_increased == 0
        assert counts.principal_worsened == 0

    def test_social_welfare_counts(self):
        report = mr.run_experiment(
            self.four_profile_log(), mr.ExperimentConfig(mode="social_welfare")
        )
        counts = report.overall
        assert counts.recommendations == 2  # betraying principals only
        assert counts.principal_worsened == 2
        assert counts.principal_improved == 0
        assert counts.welfare_increased == 2
        assert counts.opponent_improved == 2

    def test_pareto_modes_find_nothing(self):
        for mode in ("pareto", "pareto_and_welfare"):
            report = mr.run_experiment(
                self.four_profile_log(), mr.ExperimentConfig(mode=mode)
            )
            assert report.overall.recommendations == 0

    def test_both_players_policy(self):
        report = mr.run_experiment(
            self.four_profile_log(),
            mr.ExperimentConfig(mode="single_agent", principal_policy="both_players"),
        )
        counts = report.overall
        assert counts.games == 4
        assert counts.queries == 8
        # one recommendation per silent action across the four profiles
        assert counts.recommendations == 4

    def test_counts_match_per_outcome_recount(self):
        # recount every flag from the audit rows: pick each game's first
        # satisfying row and rederive the deltas from its counterfactual,
        # bypassing solve/classify and the report fold entirely
        games = mr.generate_synthetic_log(
            60, 25, {"table2": F(1, 2), "table3": F(1, 2)}, seed=11
        )
        config = mr.ExperimentConfig(mode="social_welfare")
        report = mr.run_experiment(games, config)
        expected = {
            "recommendations": 0,
            "principal_improved": 0,
            "principal_worsened": 0,
            "opponent_improved": 0,
            "pareto_violated": 0,
            "welfare_increased": 0,
            "welfare_decreased": 0,
        }
        for game in games:
            p1, p2 = game.rounds[0]
            scm = mr.pd_scm(mr.builtin_matrix(game.matrix_id))
            query = mr.RecourseQuery(
                scm=scm,
                principal=1,
                agents={1: "h1", 2: "h2"},
                factual={"x1": p1, "x2": p2},
                feasible=[{"x1": 0}, {"x1": 1}],
                constraints=[mr.SocialWelfare(strict=True)],
                exclude_identity=True,
            )
            rows = [r for r in mr.enumerate_feasible(query) if r.satisfies_all]
            if not rows:
                continue
            chosen = rows[0]
            before = scm.evaluate({"x1": p1, "x2": p2})
            d1 = chosen.counterfactual["h1"] - before["h1"]
            d2 = chosen.counterfactual["h2"] - before["h2"]
            expected["recommendations"] += 1
            expected["principal_improved"] += d1 > 0
            expected["principal_worsened"] += d1 < 0
            expected["opponent_improved"] += d2 > 0
            expected["pareto_violated"] += d1 < 0 or d2 < 0
            expected["welfare_increased"] += d1 + d2 > 0
            expected["welfare_decreased"] += d1 + d2 < 0
        for name, value in expected.items():
            assert getattr(report.overall, name) == value

    def test_order_independent(self):
        games = mr.generate_synthetic_log(80, 30, {"table2": 1}, seed=9)
        shuffled = list(games)
        random.Random(4).shuffle(shuffled)
        config = mr.ExperimentConfig(mode="single_agent")
        assert mr.run_experiment(games, config) == mr.run_experiment(shuffled, config)

    def test_per_matrix_breakdown(self):
        games = [
            one_round_game("g0", 0, 0, "table2"),
            one_round_game("g1", 0, 0, "table3"),
            one_round_game("g2", 1, 0, "table3"),
            one_round_game("g3", 0, 0, "table3"),  # same cell as g1
        ]
        report = mr.run_experiment(games, mr.ExperimentConfig(mode="single_agent"))
        assert report.per_matrix["table2"].games == 1
        assert report.per_matrix["table3"].games == 3
        assert report.per_matrix["table3"].queries == 3
        assert report.per_matrix["table2"].recommendations == 1
        assert report.per_matrix["table3"].recommendations == 2
        assert report.per_matrix["table3"].principal_improved == 2
        assert report.per_matrix["table3"].welfare_decreased == 2
        assert report.overall.recommendations == 3

    def test_custom_matrix_registry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(mr.matrix_to_csv(mr.builtin_matrix("table2")))
        custom = mr.load_matrix_csv(path, matrix_id="mine")
        games = [one_round_game("g0", 0, 0, "mine")]
        report = mr.run_experiment(
            games,
            mr.ExperimentConfig(mode="single_agent"),
            matrices={"mine": custom},
        )
        assert report.overall.recommendations == 1

    def test_each_cell_solved_once_per_principal(self, monkeypatch):
        calls = []
        real_solve = experiment.solve
        monkeypatch.setattr(experiment, "solve", lambda q: calls.append(q) or real_solve(q))
        games = mr.generate_synthetic_log(
            200, 80, {"table2": F(1, 2), "table3": F(1, 2)}, seed=1
        )
        config = mr.ExperimentConfig(principal_policy="both_players")
        report = mr.run_experiment(games, config)
        assert report.overall.queries == 400
        assert len(calls) == 2 * len({(g.matrix_id, *g.rounds[0]) for g in games})

    def test_solve_error_names_first_game_in_log_order(self):
        games = [
            one_round_game("g5", 1, 1),
            one_round_game("g2", 0, 0),
            one_round_game("g9", 1, 1),
        ]
        config = mr.ExperimentConfig(
            mode="custom", custom_clauses=(mr.Threshold(agent=3, t=F(1)),)
        )
        with pytest.raises(mr.InvalidQueryError, match=r"^game 'g5': .*unknown agent 3"):
            mr.run_experiment(games, config)

    def test_a_repeated_record_counts_as_a_game(self):
        game = one_round_game("g0", 0, 1)
        config = mr.ExperimentConfig(principal_policy="both_players")
        twice = mr.run_experiment([game, game], config)
        assert (twice.overall.games, twice.overall.queries) == (2, 4)
        assert (twice.per_matrix["table2"].games, twice.per_matrix["table2"].queries) == (2, 4)
        assert twice == mr.run_cells([(game, 2)], config)

    def test_a_game_without_rounds_is_refused(self):
        games = [one_round_game("g0", 0, 0), mr.GameRecord("g1", "table2", "test", F(0), [])]
        with pytest.raises(mr.InvalidParamsError) as info:
            mr.run_experiment(games, mr.ExperimentConfig())
        assert str(info.value) == "game 'g1' has no rounds"

    def test_unknown_matrix_id(self):
        games = [one_round_game("g0", 0, 0, "tableX")]
        with pytest.raises(mr.UnknownMatrixError):
            mr.run_experiment(games, mr.ExperimentConfig(mode="single_agent"))

    def test_matrix_named_overall_rejected(self, monkeypatch):
        # Reports use the scope 'overall' for the totals; the name is refused
        # before any cell is solved.
        monkeypatch.setattr(experiment, "solve", None)
        matrices = {"overall": mr.builtin_matrix("table2")}
        with pytest.raises(mr.InvalidParamsError) as caught:
            mr.run_experiment(self.four_profile_log("overall"), mr.ExperimentConfig(), matrices=matrices)
        assert str(caught.value) == "matrices cannot name a matrix 'overall': reports use it for the totals"

    def test_custom_mode_requires_clauses(self):
        with pytest.raises(mr.InvalidParamsError):
            mr.run_experiment([], mr.ExperimentConfig(mode="custom"))

    def test_custom_mode_runs_given_clauses(self):
        config = mr.ExperimentConfig(
            mode="custom", custom_clauses=(mr.Threshold(agent=1, t=F(100)),)
        )
        report = mr.run_experiment(self.four_profile_log(), config)
        # only a betrayal against a silent opponent reaches 100
        assert report.overall.recommendations == 1


class TestConfig:
    @pytest.mark.parametrize(
        "mode, clauses",
        [
            ("single_agent", [mr.PrincipalImprovement()]),
            ("social_welfare", [mr.SocialWelfare()]),
            ("pareto", [mr.PrincipalImprovement(), mr.Pareto()]),
            ("pareto_and_welfare", [mr.PrincipalImprovement(), mr.Pareto(), mr.SocialWelfare()]),
            ("custom", [mr.Threshold(1, F(5)), mr.Pareto()]),
        ],
    )
    def test_clauses_per_mode(self, mode, clauses):
        config = mr.ExperimentConfig(mode=mode, custom_clauses=(mr.Threshold(1, F(5)), mr.Pareto()))
        assert config.clauses() == clauses

    @pytest.mark.parametrize(
        "policy, principals", [("player1_only", (1,)), ("both_players", (1, 2))]
    )
    def test_principals_per_policy(self, policy, principals):
        assert mr.ExperimentConfig(principal_policy=policy).principals() == principals

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                mr.ExperimentConfig(mode="utilitarian", principal_policy="nobody"),
                "unknown mode 'utilitarian'; expected one of "
                "single_agent, social_welfare, pareto, pareto_and_welfare, custom",
            ),
            (mr.ExperimentConfig(mode=["pareto"]), "unknown mode ['pareto']; expected one of "
             "single_agent, social_welfare, pareto, pareto_and_welfare, custom"),
            (mr.ExperimentConfig(mode="custom", principal_policy="nobody"),
             "custom mode needs custom_clauses"),
            (mr.ExperimentConfig(principal_policy="nobody"), "unknown principal policy 'nobody'"),
            (mr.ExperimentConfig(principal_policy=["both_players"]),
             "unknown principal policy ['both_players']"),
        ],
        ids=["mode", "unhashable-mode", "custom-without-clauses", "policy", "unhashable-policy"],
    )
    def test_bad_config_is_an_invalid_params_error(self, config, message):
        with pytest.raises(mr.InvalidParamsError) as info:
            mr.run_experiment([one_round_game("g0", 0, 0)], config)
        assert str(info.value) == message

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_exclude_identity_must_be_a_bool(self, flag):
        with pytest.raises(mr.InvalidParamsError) as info:
            mr.ExperimentConfig(exclude_identity=flag)
        assert str(info.value) == (
            f"ExperimentConfig field 'exclude_identity' must be True or False, got {flag!r}"
        )


class TestSingleRoundStructure:
    """Exhaustive per-profile behavior for the PD-ordered builtin matrices.

    For any matrix with temptation > reward > punishment > sucker, switching
    away from silence always improves the principal and always harms the
    opponent, so single-agent recourse exists exactly for silent principals
    and can never be Pareto-compatible.  Welfare-strict recourse additionally
    depends on how temptation + sucker compares with twice the reward and
    twice the punishment: table2 and table3 satisfy both inequalities, while
    table1 has temptation + sucker = 11 above twice the reward = 10.  Every
    count of every profile, mode and policy on the three matrices is checked
    against that rule in ``test_cells.py::test_builtin_matrices_follow_the_closed_form``.
    """

    def run_mode(self, matrix_id, profile, mode):
        report = mr.run_experiment(
            [one_round_game("g", *profile, matrix_id)], mr.ExperimentConfig(mode=mode)
        )
        return report.overall

    @pytest.mark.parametrize("matrix_id", ["table1", "table2", "table3"])
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_single_agent_iff_principal_silent(self, matrix_id, profile):
        counts = self.run_mode(matrix_id, profile, "single_agent")
        assert counts.recommendations == (1 if profile[0] == 0 else 0)

    @pytest.mark.parametrize("matrix_id", ["table1", "table2", "table3"])
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_pareto_plus_improvement_never_feasible(self, matrix_id, profile):
        counts = self.run_mode(matrix_id, profile, "pareto")
        assert counts.recommendations == 0

    @pytest.mark.parametrize("matrix_id", ["table2", "table3"])
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_welfare_iff_betray_when_cooperation_dominates(self, matrix_id, profile):
        counts = self.run_mode(matrix_id, profile, "social_welfare")
        assert counts.recommendations == (1 if profile[0] == 1 else 0)
        if counts.recommendations:
            assert counts.principal_worsened == 1
            assert counts.principal_improved == 0

    def test_partition_on_table2_and_table3(self):
        for matrix_id in ("table2", "table3"):
            games = [
                one_round_game(f"g{i}", p1, p2, matrix_id)
                for i, (p1, p2) in enumerate(ALL_PROFILES)
            ]
            single = mr.run_experiment(games, mr.ExperimentConfig(mode="single_agent"))
            welfare = mr.run_experiment(games, mr.ExperimentConfig(mode="social_welfare"))
            assert (
                single.overall.recommendations + welfare.overall.recommendations
                == single.overall.queries
            )


def report_text(**counts):
    """A JSON report whose overall counts are all 1 except ``counts``."""
    overall = dict.fromkeys(experiment._COUNT_FIELDS, 1) | counts
    return json.dumps({"overall": overall, "per_matrix": {}})


def report_csv(**counts):
    """A CSV report with all counts 1, except ``counts`` in the row for table2."""
    ones = dict.fromkeys(experiment._COUNT_FIELDS, 1)
    rows = [["scope", *ones], ["overall", *ones.values()], ["table2", *(ones | counts).values()]]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


INCONSISTENT_COUNTS = [
    pytest.param({"games": -3}, "field 'games' is negative: -3", id="negative"),
    pytest.param(
        {"recommendations": 2},
        r"field 'recommendations' \(2\) exceeds 'queries' \(1\)",
        id="recommendations-above-queries",
    ),
    pytest.param(
        {"pareto_violated": 2},
        r"field 'pareto_violated' \(2\) exceeds 'recommendations' \(1\)",
        id="outcome-above-recommendations",
    ),
]


class TestRendering:
    def sample_report(self):
        games = mr.generate_synthetic_log(30, 12, {"table2": 1}, seed=8)
        return mr.run_experiment(games, mr.ExperimentConfig(mode="single_agent"))

    def test_json_round_trip(self):
        report = self.sample_report()
        assert mr.report_from_json(mr.render_report(report, "json")) == report

    def test_csv_round_trip(self):
        report = self.sample_report()
        assert mr.report_from_csv(mr.render_report(report, "csv")) == report

    def test_table_contains_totals(self):
        text = mr.render_report(self.sample_report(), "table")
        assert "total_games:" in text
        assert "recommendations_made:" in text

    def test_csv_header_is_fixed(self):
        text = mr.render_report(self.sample_report(), "csv")
        assert text.splitlines()[0] == (
            "scope,games,queries,recommendations,principal_improved,"
            "principal_worsened,opponent_improved,pareto_violated,"
            "welfare_increased,welfare_decreased"
        )

    def test_unknown_format(self):
        with pytest.raises(mr.InvalidParamsError):
            mr.render_report(self.sample_report(), "xml")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json", "report JSON: line 1"),
            ("{}", "missing field 'overall'"),
            ('{"overall": [], "per_matrix": {}}', "objects of integers"),
            pytest.param(
                report_text(games=float("inf")),
                "field 'games' must be an integer, got inf",
                id="count-infinity",
            ),
            pytest.param(
                report_text(games=5.9), "field 'games' must be an integer, got 5.9", id="count-float"
            ),
            pytest.param(
                report_text(games="N").replace('"N"', "1" * 5000),
                r"report JSON: numeric literal '1{37}\.\.\.' is out of range \(more than 4300 digits\)",
                id="count-over-4300-digits",
            ),
            pytest.param(
                "[" * 200_000, "report JSON: maximum recursion depth exceeded", id="deep-nesting"
            ),
        ],
    )
    def test_bad_json_report_is_a_parse_error(self, text, message):
        with pytest.raises(mr.ParseError, match=message):
            mr.report_from_json(text)

    @pytest.mark.parametrize("counts, message", INCONSISTENT_COUNTS)
    def test_inconsistent_json_counts_are_a_parse_error(self, counts, message):
        with pytest.raises(mr.ParseError, match="report JSON counts 'overall' " + message):
            mr.report_from_json(report_text(**counts))

    @pytest.mark.parametrize("counts, message", INCONSISTENT_COUNTS)
    def test_inconsistent_csv_counts_are_a_parse_error(self, counts, message):
        assert mr.report_from_csv(report_csv()).per_matrix["table2"].games == 1
        with pytest.raises(mr.ParseError, match=r"report CSV counts 'table2' \(line 3\) " + message):
            mr.report_from_csv(report_csv(**counts))

    def test_empty_csv_report_is_a_parse_error(self):
        with pytest.raises(mr.ParseError, match="must start with the header"):
            mr.report_from_csv("")

    def test_non_integer_csv_count_is_a_parse_error(self):
        lines = mr.render_report(self.sample_report(), "csv").splitlines()
        lines[1] = lines[1].replace(",", ",x", 1)
        with pytest.raises(mr.ParseError, match="line 2: expected 9 integer counts"):
            mr.report_from_csv("\n".join(lines) + "\n")

    def test_oversized_csv_field_is_a_parse_error(self):
        text = report_csv() + "table3," + "1" * 200_000 + "\n"
        with pytest.raises(mr.ParseError, match="line 4: field larger than field limit"):
            mr.report_from_csv(text)

    def test_short_csv_row_is_a_parse_error(self):
        text = mr.render_report(self.sample_report(), "csv") + "table9,1,2\n"
        with pytest.raises(mr.ParseError, match="line 4: expected 9 integer counts"):
            mr.report_from_csv(text)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_csv_report_reads_alike_with_any_line_ends(self, end):
        report = self.sample_report()
        report.per_matrix["t\r2"] = report.per_matrix["table2"]
        text = mr.render_report(report, "csv")  # the quoted "t\r2" holds a line break
        assert mr.report_from_csv(text.replace("\n", end)) == report
        with pytest.raises(mr.ParseError, match="^line 6: expected 9 integer counts$"):
            mr.report_from_csv((text + "table9,1,2\n").replace("\n", end))

    def test_csv_report_skips_blank_lines(self):
        report = self.sample_report()
        text = mr.render_report(report, "csv").replace("\n", "\n\n")
        assert mr.report_from_csv(text) == report
        with pytest.raises(mr.ParseError, match="^line 7: expected 9 integer counts$"):
            mr.report_from_csv(text + "table9,1,2\n")

    def test_repeated_csv_scope_is_a_parse_error(self):
        text = report_csv() + report_csv().splitlines(keepends=True)[2]
        with pytest.raises(mr.ParseError) as info:
            mr.report_from_csv(text)
        assert str(info.value) == "line 4: report CSV gives scope 'table2' more than once"
        overall_twice = report_csv().replace("table2", "overall")
        with pytest.raises(mr.ParseError, match="^line 3: report CSV gives scope 'overall' more than once$"):
            mr.report_from_csv(overall_twice)

    def test_json_matrix_named_overall_is_a_parse_error(self):
        # Its CSV form would give the scope 'overall' twice, which the CSV reader refuses.
        counts = dict.fromkeys(experiment._COUNT_FIELDS, 1)
        text = json.dumps({"overall": counts, "per_matrix": {"overall": counts}})
        with pytest.raises(mr.ParseError) as info:
            mr.report_from_json(text)
        assert str(info.value) == (
            "report JSON field 'per_matrix' cannot name a matrix 'overall': reports use it for the totals"
        )

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(0, 3, 2)], ids=["header-only", "no-overall"])
    def test_csv_without_overall_row_is_a_parse_error(self, rows):
        text = "".join(report_csv().splitlines(keepends=True)[rows])
        with pytest.raises(mr.ParseError, match="^report CSV has no 'overall' row$"):
            mr.report_from_csv(text)

    def test_rendering_deterministic(self):
        report = self.sample_report()
        for fmt in ("table", "csv", "json"):
            assert mr.render_report(report, fmt) == mr.render_report(report, fmt)


# A CSV header that starts with U+FEFF looks right in an editor, so its error says so.
BOM_NOTE = " (the text starts with a UTF-8 byte-order mark)"


@pytest.mark.parametrize(
    "good, read, message",
    [
        (SAMPLE_LOG, mr.parse_game_log,
         "log header must be 'game_id,matrix_id,group,delta,round,p1_action,p2_action'"),
        (mr.matrix_to_csv(mr.builtin_matrix("table1")), mr.load_matrix_csv,
         "{path}: first line must be 'row_action,col_action,p1,p2'"),
        (report_csv(), lambda path: mr.report_from_csv(path.read_text(encoding="utf-8")),
         f"report CSV must start with the header 'scope,{','.join(experiment._COUNT_FIELDS)}'"),
    ],
    ids=["log", "matrix", "report"],
)
def test_a_header_error_names_a_leading_byte_order_mark(tmp_path, good, read, message):
    path = tmp_path / "in.csv"
    path.write_text(good, encoding="utf-8")
    read(path)
    for text, note in (("\ufeff" + good, BOM_NOTE), (good[1:], ""), ("\ufeff", BOM_NOTE)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(mr.ParseError) as info:
            read(path)
        assert str(info.value) == message.format(path=path) + note
