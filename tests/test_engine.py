"""Solver behavior: worked examples, constraint semantics, cost models, file forms."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import multiagent_recourse as mr
from conftest import pd_query
from multiagent_recourse import engine, files, values


class TestSolveWorkedExamples:
    def test_single_agent_flip_from_silent(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}, {}],
            constraints=[mr.PrincipalImprovement(strict=True)],
        )
        outcome = mr.solve(query)
        assert outcome is not None
        assert outcome.action == {"x1": F(1)}
        assert outcome.per_agent[1].before == F(1)
        assert outcome.per_agent[1].after == F("3.5")

    def test_pareto_makes_it_infeasible(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}, {}],
            constraints=[mr.PrincipalImprovement(strict=True), mr.Pareto()],
        )
        assert mr.solve(query) is None

    def test_welfare_gain_from_mutual_silence(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{"x1": 1}, {}],
            constraints=[
                mr.PrincipalImprovement(strict=True),
                mr.SocialWelfare(strict=True),
            ],
        )
        outcome = mr.solve(query)
        assert outcome is not None
        assert outcome.action == {"x1": F(1)}
        assert outcome.flags.welfare_delta == F(1)  # 10 -> 11
        assert outcome.per_agent[2].before == F(5)
        assert outcome.per_agent[2].after == F(1)

    def test_table2_welfare_requires_self_sacrifice(self, pd2):
        # Derived by enumerating both candidate actions against the matrix:
        # do(x1:=1) leaves the state unchanged and is excluded as a no-op;
        # do(x1:=0) moves (1,1)->(0,1): welfare 70 -> 110, h1 35 -> 10.
        query = pd_query(
            pd2,
            principal=1,
            factual={"x1": 1, "x2": 1},
            feasible=[{"x1": 0}, {"x1": 1}],
            constraints=[mr.SocialWelfare(strict=True)],
            exclude_identity=True,
        )
        outcome = mr.solve(query)
        assert outcome is not None
        assert outcome.action == {"x1": F(0)}
        assert outcome.per_agent[1].before == F(35)
        assert outcome.per_agent[1].after == F(10)
        assert outcome.flags.welfare_delta == F(40)  # 70 -> 110


def test_solve_builds_no_model(pd1, monkeypatch):
    # Candidates are evaluated as pin overlays on the query's model.
    built, intervened = [], []
    construct, intervene = mr.Scm.__post_init__, mr.Scm.intervene
    monkeypatch.setattr(mr.Scm, "__post_init__", lambda self: built.append(1) or construct(self))
    monkeypatch.setattr(
        mr.Scm, "intervene", lambda self, action: intervened.append(action) or intervene(self, action)
    )
    query = pd_query(
        pd1,
        principal=1,
        factual={"h1": 1, "h2": 10},
        feasible=[{"x1": 1}, {"h1": 5}, {"x1": 1, "x2": 0}, {}],
        constraints=[mr.PrincipalImprovement(strict=True)],
    )
    assert mr.solve(query).action == {"x1": F(1)}
    assert len(mr.enumerate_feasible(query)) == 4
    assert pd1.counterfactual({"x1": 0, "x2": 1}, {"h1": 5})["h1"] == F(5)
    assert intervened == [] and built == []


class TestConstraintSemantics:
    def test_identity_in_feasible_can_win(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}, {}],
            constraints=[mr.Pareto()],
        )
        outcome = mr.solve(query)
        assert outcome is not None
        assert outcome.action == {}
        assert outcome.cost == F(0)
        assert not outcome.flags.principal_improved
        assert not outcome.flags.pareto_violated
        assert outcome.flags.welfare_delta == F(0)

    def test_exclude_identity_skips_noop_pins(self, pd1):
        # pinning x1 to its factual value changes nothing, so it is skipped too
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 0}, {}],
            constraints=[mr.Pareto()],
            exclude_identity=True,
        )
        assert mr.solve(query) is None

    def test_threshold_clause(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{"x1": 1}, {}],
            constraints=[mr.Threshold(agent=1, t=F(10))],
        )
        outcome = mr.solve(query)
        assert outcome is not None and outcome.action == {"x1": F(1)}
        strict = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{"x1": 1}, {}],
            constraints=[mr.Threshold(agent=1, t=F(10), strict=True)],
        )
        assert mr.solve(strict) is None

    def test_plausibility_predicate_restricts(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}, {}],
            constraints=[mr.PrincipalImprovement(strict=True)],
            plausible=lambda state: state["x1"] == 0,
        )
        assert mr.solve(query) is None

    def test_plausible_clause_gives_the_predicates_verdict(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}, {"x2": 0}],
            constraints=[mr.Plausible()],
            plausible=lambda state: state["x1"] == 0,
        )
        rows = mr.enumerate_feasible(query)
        assert [(row.action, row.plausible, row.clauses) for row in rows] == [
            ({"x1": F(1)}, False, (("plausible", False),)),
            ({"x2": F(0)}, True, (("plausible", True),)),
        ]
        assert mr.solve(query).action == {"x2": F(0)}

    def test_factual_can_be_outcome_observation(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"h1": 1, "h2": 10},
            feasible=[{"x1": 1}],
            constraints=[mr.PrincipalImprovement(strict=True)],
        )
        outcome = mr.solve(query)
        assert outcome is not None and outcome.per_agent[1].after == F("3.5")


class TestCostAndTies:
    def test_count_model(self, pd1):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1}, {}],
            constraints=[], cost=mr.CostModel(kind="count"),
        )
        rows = mr.enumerate_feasible(query)
        assert [(row.action, row.cost) for row in rows] == [({}, F(0)), ({"x1": F(1)}, F(1))]
        assert mr.solve(query).cost == F(0)

    def test_weighted_model(self):
        scm = mr.Scm(
            (
                mr.VariableDecl("a", mr.EXOGENOUS, (0, 1, 2)),
                mr.VariableDecl("b", mr.EXOGENOUS, (0, 1)),
                mr.VariableDecl("y", mr.ENDOGENOUS, (0,)),
            ),
            (mr.StructuralEquation("y", (), {(): F(0)}),),
        )
        query = mr.RecourseQuery(
            scm=scm, principal=1, agents={1: "y"}, factual={"a": 0, "b": 0},
            feasible=[{"a": 2, "b": 1}, {"a": 2}],
            cost=mr.CostModel(kind="weighted", weights={"a": F(3)}),
        )
        rows = mr.enumerate_feasible(query)
        assert [(row.action, row.cost) for row in rows] == [
            ({"a": F(2)}, F(6)),
            ({"a": F(2), "b": F(1)}, F(7)),
        ]
        assert mr.solve(query).cost == F(6)

    def test_negative_weight_rejected(self):
        with pytest.raises(mr.InvalidQueryError):
            mr.CostModel(weights={"a": F(-1)})

    def test_unknown_kind_rejected(self):
        with pytest.raises(mr.InvalidQueryError):
            mr.CostModel(kind="manhattan")

    def test_composite_prefers_fewer_interventions(self, pd1):
        # do(x1:=1) moves h1 1 -> 3.5; do(x1:=1, h2:=1) also improves h1 but
        # touches two variables, so the single intervention wins even though
        # a weighted-only model could rank them differently.
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1, "h2": 1}, {"x1": 1}],
            constraints=[mr.PrincipalImprovement(strict=True)],
        )
        outcome = mr.solve(query)
        assert outcome is not None and outcome.action == {"x1": F(1)}

    def test_equal_cost_breaks_lexicographically(self, pd2):
        # both pins improve h1 at equal cost; sorted variable names decide
        scm = pd2.intervene({})  # same model
        query = pd_query(
            scm,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x2": 0}, {"x1": 1}],
            constraints=[mr.PrincipalImprovement(strict=True)],
        )
        outcome = mr.solve(query)
        assert outcome is not None
        assert outcome.action == {"x1": F(1)}  # "x1" < "x2"

    def test_value_rank_breaks_remaining_ties(self):
        # one binary variable, both values satisfy the constraints at equal
        # cost under the count model; the earlier domain value wins
        scm = mr.Scm(
            (
                mr.VariableDecl("u", mr.EXOGENOUS, (0, 1, 2)),
                mr.VariableDecl("y", mr.ENDOGENOUS, (0, 1)),
            ),
            (
                mr.StructuralEquation(
                    "y", ("u",), {(F(0),): F(0), (F(1),): F(1), (F(2),): F(1)}
                ),
            ),
        )
        query = mr.RecourseQuery(
            scm=scm,
            principal=1,
            agents={1: "y"},
            factual={"u": 0},
            feasible=[{"u": 2}, {"u": 1}],
            constraints=[mr.PrincipalImprovement(strict=True)],
            cost=mr.CostModel(kind="count"),
        )
        outcome = mr.solve(query)
        assert outcome is not None and outcome.action == {"u": F(1)}


class TestEnumerate:
    def test_row_per_candidate(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{}, {"x1": 1}],
            constraints=[mr.PrincipalImprovement(strict=True), mr.Pareto()],
        )
        rows = mr.enumerate_feasible(query)
        assert len(rows) == 2

    def test_pareto_clause_marked_unsatisfied(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}],
            constraints=[mr.Pareto()],
        )
        (row,) = mr.enumerate_feasible(query)
        assert dict(row.clauses)["pareto"] is False
        assert not row.satisfies_all

    def test_serialization_is_stable(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{}, {"x1": 1}],
            constraints=[mr.PrincipalImprovement(strict=True)],
        )
        first = mr.rows_to_json(mr.enumerate_feasible(query))
        second = mr.rows_to_json(mr.enumerate_feasible(query))
        assert first.encode() == second.encode()

    def test_solve_is_first_satisfying_row(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{"x1": 1}, {}, {"x2": 1}],
            constraints=[mr.SocialWelfare(strict=True)],
        )
        rows = mr.enumerate_feasible(query)
        outcome = mr.solve(query)
        satisfying = [row for row in rows if row.satisfies_all]
        assert outcome is not None
        assert satisfying[0].action == outcome.action
        assert all(row.cost >= outcome.cost for row in satisfying)


class TestQueryValidation:
    def test_principal_must_be_an_agent(self, pd1):
        query = pd_query(
            pd1, principal=3, factual={"x1": 0, "x2": 0}, feasible=[{}], constraints=[]
        )
        with pytest.raises(mr.InvalidQueryError):
            mr.solve(query)

    def test_outcome_variable_must_be_endogenous(self, pd1):
        query = mr.RecourseQuery(
            scm=pd1,
            principal=1,
            agents={1: "x1"},
            factual={"x1": 0, "x2": 0},
            feasible=[{}],
        )
        with pytest.raises(mr.InvalidQueryError):
            mr.solve(query)

    def test_threshold_agent_must_exist(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{}],
            constraints=[mr.Threshold(agent=9, t=F(1))],
        )
        with pytest.raises(mr.InvalidQueryError):
            mr.solve(query)

    @pytest.mark.parametrize("solver", [mr.solve, mr.solve_cfe_baseline, mr.enumerate_feasible])
    def test_cost_weight_must_name_a_declared_variable(self, pd1, solver):
        # Unlisted variables weigh 1, so a weight for no variable would be ignored.
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{}],
            constraints=[],
            cost=mr.CostModel("weighted", {"x1": 2, "ghost": 1}),
        )
        with pytest.raises(mr.DomainError) as info:
            solver(query)
        assert str(info.value) == "cost weight names undeclared variable 'ghost'"

    def test_feasible_action_must_be_in_domain(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{"x1": 7}],
            constraints=[],
        )
        with pytest.raises(mr.DomainError):
            mr.solve(query)


class TestClassify:
    def test_flip_from_silent(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}],
            constraints=[],
        )
        outcome = mr.solve(query)
        flags = mr.classify(outcome)
        assert flags == outcome.flags
        assert flags.principal_improved
        assert flags.pareto_violated
        assert flags.welfare_delta == F(7) - F(11)

    def test_identity_action(self, pd1):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{}], constraints=[]
        )
        flags = mr.classify(mr.solve(query))
        assert not flags.principal_improved
        assert not flags.pareto_violated
        assert flags.welfare_delta == F(0)

    def test_flip_from_mutual_silence(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 0},
            feasible=[{"x1": 1}],
            constraints=[],
        )
        flags = mr.classify(mr.solve(query))
        assert flags.principal_improved
        assert flags.pareto_violated
        assert flags.welfare_delta == F(11) - F(10)


class TestBaseline:
    def test_lowest_cost_shift(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1, "x2": 0}, {"x1": 0, "x2": 0}],
            constraints=[],
        )
        outcome = mr.solve_cfe_baseline(query)
        assert outcome is not None
        assert outcome.action == {"x1": F(1)}  # zero components dropped
        assert outcome.per_agent[1].after == F("3.5")

    def test_zero_shift_cannot_clear_strict_threshold(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 0, "x2": 0}],
            constraints=[mr.Threshold(agent=1, t=F(2), strict=True)],
        )
        assert mr.solve_cfe_baseline(query) is None

    def test_reports_third_party_harm(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}],
            constraints=[],
        )
        outcome = mr.solve_cfe_baseline(query)
        assert outcome is not None
        assert outcome.per_agent[2].before == F(10)
        assert outcome.per_agent[2].after == F("3.5")
        assert outcome.flags.pareto_violated

    def test_threshold_on_another_agent_rejected(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}],
            constraints=[mr.Threshold(agent=2, t=F(1))],
        )
        with pytest.raises(mr.InvalidQueryError) as caught:
            mr.solve_cfe_baseline(query)
        assert str(caught.value) == "the additive baseline only supports thresholds on the principal"

    def test_plausible_clause_is_left_to_the_predicate(self, pd1):
        given = dict(principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1}])
        with_clause = mr.solve_cfe_baseline(pd_query(pd1, **given, constraints=[mr.Plausible()]))
        assert with_clause is not None
        assert with_clause == mr.solve_cfe_baseline(pd_query(pd1, **given, constraints=[]))
        blocked = pd_query(pd1, **given, constraints=[mr.Plausible()], plausible=lambda state: state["x1"] == 0)
        assert mr.solve_cfe_baseline(blocked) is None

    def test_shift_leaving_domain(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 1, "x2": 0},
            feasible=[{"x1": 1}],
            constraints=[],
        )
        with pytest.raises(mr.DomainError):
            mr.solve_cfe_baseline(query)

    def test_negative_shift_found(self, pd1):
        # A shift amount need not be a domain value: -1 takes x2 from 1 to 0.
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 1, "x2": 1},
            feasible=[{"x1": -1}, {"x2": -1}],
            constraints=[],
        )
        outcome = mr.solve_cfe_baseline(query)
        assert outcome is not None
        assert outcome.action == {"x2": F(-1)}
        assert outcome.counterfactual["x2"] == F(0)
        assert outcome.per_agent[1].after == F(10)

    @pytest.mark.parametrize("amount", [1, 0])
    def test_unknown_shift_variable(self, pd1, amount):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x9": amount}],
            constraints=[],
        )
        with pytest.raises(mr.DomainError, match="unknown variable 'x9'"):
            mr.solve_cfe_baseline(query)

    def test_multi_agent_clauses_rejected(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}],
            constraints=[mr.Pareto()],
        )
        with pytest.raises(mr.InvalidQueryError):
            mr.solve_cfe_baseline(query)

    def test_shift_cannot_target_outcome(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"h1": 1}],
            constraints=[],
        )
        with pytest.raises(mr.InvalidQueryError):
            mr.solve_cfe_baseline(query)

    def test_inconsistent_factual_outcome_rejected(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1, "h1": 5},
            feasible=[{"x1": 1}],
            constraints=[],
        )
        with pytest.raises(mr.InvalidQueryError):
            mr.solve_cfe_baseline(query)

    def test_predicate_runs_after_every_shift_is_checked(self, pd1):
        calls = []
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1}, {"x2": 5}],
            constraints=[], plausible=lambda state: calls.append(state) or True,
        )
        with pytest.raises(mr.DomainError, match="shifting 'x2' by 5 leaves its domain"):
            mr.solve_cfe_baseline(query)
        assert calls == []

    @pytest.mark.parametrize(
        "amount, shown",
        [
            (F(3, 2**14000), "3/26299003673253117803893412934407213..."),  # past the digit limit
            (F(10**45), "1000000000000000000000000000000000000..."),  # writable, cut at 40
            (F(5, 2), "2.5"),
        ],
    )
    def test_shift_leaving_the_domain_is_quoted_by_shown_value(self, pd1, amount, shown):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": amount}], constraints=[],
        )
        with pytest.raises(mr.DomainError) as caught:
            mr.solve_cfe_baseline(query)
        assert str(caught.value) == f"shifting 'x1' by {shown} leaves its domain"

    def test_predicate_runs_only_until_the_first_passing_candidate(self, pd1):
        # In rank order: {} keeps h1 at 1 and fails the default strict
        # improvement, {x1: 1} passes, and {x1: 1, x2: -1} is never predicted.
        calls = []
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1, "x2": -1}, {"x1": 1}, {}],
            constraints=[], plausible=lambda state: calls.append(state) or True,
        )
        assert mr.solve_cfe_baseline(query).action == {"x1": F(1)}
        assert [(state["x1"], state["x2"]) for state in calls] == [(0, 1), (1, 1)]

    def test_no_propagation_through_features(self):
        # u feeds m feeds y; a baseline shift of u must leave m at its factual
        # value even though the structural route would update it
        scm = mr.Scm(
            (
                mr.VariableDecl("u", mr.EXOGENOUS, (0, 1)),
                mr.VariableDecl("m", mr.ENDOGENOUS, (0, 1)),
                mr.VariableDecl("y", mr.ENDOGENOUS, (0, 1, 2)),
            ),
            (
                mr.StructuralEquation("m", ("u",), {(F(0),): F(0), (F(1),): F(1)}),
                mr.StructuralEquation(
                    "y",
                    ("u", "m"),
                    {
                        (F(0), F(0)): F(0),
                        (F(0), F(1)): F(1),
                        (F(1), F(0)): F(1),
                        (F(1), F(1)): F(2),
                    },
                ),
            ),
        )
        query = mr.RecourseQuery(
            scm=scm,
            principal=1,
            agents={1: "y"},
            factual={"u": 0},
            feasible=[{"u": 1}],
            constraints=[],
        )
        outcome = mr.solve_cfe_baseline(query)
        assert outcome is not None
        assert outcome.counterfactual["m"] == F(0)  # stale, by design
        assert outcome.counterfactual["y"] == F(1)
        structural = mr.solve(
            mr.RecourseQuery(
                scm=scm,
                principal=1,
                agents={1: "y"},
                factual={"u": 0},
                feasible=[{"u": 1}],
                constraints=[],
            )
        )
        assert structural.counterfactual["m"] == F(1)
        assert structural.counterfactual["y"] == F(2)


class TestLargeThreshold:
    """A threshold whose label text is past the digit limit of ``format_value``:
    its denominator, 2**15000, has 4516 digits."""

    def test_solvers_agree(self, pd1):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1}],
            constraints=[mr.Threshold(1, F(3, 2**15000))],
        )
        outcome = mr.solve(query)
        assert outcome is not None and outcome.action == {"x1": F(1)}
        assert mr.solve_cfe_baseline(query) == outcome

    def test_audit_rows_label_it_by_its_head(self, pd1):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{}, {"x1": 1}],
            constraints=[mr.Threshold(1, 1 + F(3, 2**15000))],  # h1 is 1, and 3.5 after x1=1
        )
        rows = mr.enumerate_feasible(query)
        first = next(row for row in rows if row.satisfies_all)
        outcome = mr.solve(query)
        assert (first.action, first.counterfactual, first.cost) == (
            outcome.action, outcome.counterfactual, outcome.cost,
        )
        label = "threshold[1]>=2817960879631397637428637785383222308..."
        assert [row.clauses for row in rows] == [((label, False),), ((label, True),)]
        assert json.loads(mr.rows_to_json(rows)) == [row.to_dict() for row in rows]


def reversed_domains(scm):
    """``scm``'s file form with every domain listed in reverse."""
    document = mr.scm_to_dict(scm)
    for variable in document["variables"]:
        variable["domain"].reverse()
    return document


class TestFileForms:
    def query_data(self, exclude=False):
        return {
            "scm": {
                "variables": [
                    {"name": "x1", "kind": "exogenous", "domain": [0, 1]},
                    {"name": "x2", "kind": "exogenous", "domain": [0, 1]},
                    {"name": "h1", "kind": "endogenous", "domain": [1, 3.5, 5, 10]},
                    {"name": "h2", "kind": "endogenous", "domain": [1, 3.5, 5, 10]},
                ],
                "equations": [
                    {
                        "target": "h1",
                        "parents": ["x1", "x2"],
                        "table": [
                            {"in": [0, 1], "out": 1},
                            {"in": [1, 1], "out": 3.5},
                            {"in": [0, 0], "out": 5},
                            {"in": [1, 0], "out": 10},
                        ],
                    },
                    {
                        "target": "h2",
                        "parents": ["x2", "x1"],
                        "table": [
                            {"in": [0, 1], "out": 1},
                            {"in": [1, 1], "out": 3.5},
                            {"in": [0, 0], "out": 5},
                            {"in": [1, 0], "out": 10},
                        ],
                    },
                ],
            },
            "principal": 1,
            "agents": {"1": "h1", "2": "h2"},
            "factual": {"x1": 0, "x2": 1},
            "feasible": [{"x1": 1}, {}],
            "constraints": [{"kind": "principal_improvement", "strict": True}],
            "exclude_identity": exclude,
        }

    def test_query_from_dict(self):
        query, solver = mr.query_from_dict(self.query_data())
        assert solver == "structural"
        assert query.principal == 1
        assert query.agents == {1: "h1", 2: "h2"}
        outcome = mr.solve(query)
        assert outcome.action == {"x1": F(1)}
        assert outcome.per_agent[1].after == F("3.5")

    def test_plausibility_allowlist(self):
        data = self.query_data()
        data["plausible"] = [{"x1": 0, "x2": 0}, {"x1": 0, "x2": 1}]
        query, _ = mr.query_from_dict(data)
        assert mr.solve(query) is None  # counterfactual (1,1) is not allowed

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"ghost": 1}, "plausible[1]: unknown variable 'ghost'"),
            ({"x1": 7}, "plausible[1]: value 7 is outside the domain of 'x1'"),
            ({"h1": "7/2", "x2": "1/2"}, "plausible[1]: value 0.5 is outside the domain of 'x2'"),
        ],
        ids=["undeclared", "outside", "outside-after-a-match"],
    )
    def test_allowlist_entries_name_declared_values(self, entry, message):
        # Such an entry admits no state; it is refused where the list is read.
        data = self.query_data()
        data["plausible"] = [{"x1": 0, "x2": 0}, entry]
        with pytest.raises(mr.DomainError) as info:
            mr.query_from_dict(data)
        assert str(info.value) == message

    def test_a_query_file_loads_equal_with_a_plain_repr(self):
        path = Path(__file__).parent / "data" / "solve" / "weighted_fractional.json"
        first, second = mr.load_query(path)[0], mr.load_query(path)[0]
        assert first == second
        assert repr(first) == repr(second) and "0x" not in repr(first)
        assert first.plausible == mr.AllowList([{"x1": "7/4"}, {"x1": 3}, {"x1": "1/3"}])
        assert repr(first.plausible) == (
            "AllowList(entries=[{'x1': Fraction(7, 4)}, {'x1': Fraction(3, 1)}, {'x1': Fraction(1, 3)}])"
        )
        assert mr.AllowList is engine.AllowList
        read = files._allowlist_predicate([{"x1": 3}], first.scm)
        assert read == mr.AllowList([{"x1": "3"}]) != mr.AllowList([{"x1": "1/3"}])

    def test_an_allowlist_called_on_values_keeps_its_rule(self):
        allowed = mr.AllowList([{"x1": 0, "x2": "1/2"}, {"x2": 1}])
        assert allowed({"x1": F(0), "x2": F(1, 2), "h1": F(3)})
        assert allowed({"x1": F(1), "x2": F(1)})
        assert not allowed({"x1": F(1), "x2": F(1, 2)})
        assert not allowed({"x1": F(0)})
        assert not mr.AllowList([])({"x1": F(0)})
        assert mr.AllowList([{}])({})

    @pytest.mark.parametrize(
        "edit",
        [
            lambda q: setattr(q, "feasible", [{"x2": F(0)}, {"x1": F(1), "x2": F(0)}]),
            lambda q: q.feasible.append({"x1": F(1), "x2": F(0)}),
            lambda q: q.feasible[0].update(x1=F(0)),  # in the domain: now the identity
            lambda q: q.feasible[0].update(x1=F(7)),  # outside it
            lambda q: q.feasible[0].update(x1=1),  # the same value as an int
            lambda q: q.feasible[0].pop("x1"),
            lambda q: q.feasible.reverse(),
            # The same variables, each domain in the other order.
            lambda q: setattr(q, "scm", mr.scm_from_dict(reversed_domains(q.scm))),
            lambda q: None,
        ],
        ids=["replaced", "appended", "in-domain", "outside", "int", "deleted", "reordered", "model", "none"],
    )
    def test_an_edited_query_solves_as_one_built_in_code(self, edit):
        loaded, _ = mr.query_from_dict(self.query_data())
        edit(loaded)
        built = mr.RecourseQuery(
            loaded.scm, loaded.principal, loaded.agents, loaded.factual,
            [dict(action) for action in loaded.feasible], loaded.constraints, loaded.cost,
        )

        def outcome(query):
            try:
                found = mr.solve(query)
                rows = mr.rows_to_json(mr.enumerate_feasible(query))
            except mr.RecourseError as exc:
                return type(exc), str(exc)
            return found and mr.outcome_to_dict(found), rows

        assert outcome(loaded) == outcome(built)

    def test_unknown_field(self):
        data = self.query_data()
        data["bogus"] = True
        with pytest.raises(mr.ParseError):
            mr.query_from_dict(data)

    def test_unknown_clause_kind(self):
        data = self.query_data()
        data["constraints"] = [{"kind": "paretto"}]
        with pytest.raises(mr.ParseError) as info:
            mr.query_from_dict(data)
        assert str(info.value) == (
            "constraints[0] has unknown kind 'paretto'; expected one of "
            "pareto, plausible, principal_improvement, social_welfare, threshold"
        )

    @pytest.mark.parametrize("source", [{}, {"scm_file": "model.json"}], ids=["neither", "both"])
    def test_exactly_one_model_source(self, source):
        data = self.query_data()
        if not source:
            del data["scm"]
        data.update(source)
        with pytest.raises(mr.ParseError) as caught:
            mr.query_from_dict(data)
        assert str(caught.value) == "query must contain exactly one of 'scm' or 'scm_file'"

    def test_unknown_solver(self):
        data = self.query_data()
        data["solver"] = "exhaustive"
        with pytest.raises(mr.ParseError) as caught:
            mr.query_from_dict(data)
        assert str(caught.value) == "query field 'solver' names unknown solver 'exhaustive'"

    @pytest.mark.parametrize("raw", ["false", "no", 0, None])
    def test_booleans_must_be_json_true_or_false(self, raw):
        data = self.query_data()
        data["exclude_identity"] = raw
        with pytest.raises(mr.ParseError, match="'exclude_identity' must be true or false"):
            mr.query_from_dict(data)
        for clause in (
            {"kind": "principal_improvement"},
            {"kind": "social_welfare"},
            {"kind": "threshold", "agent": 1, "t": 3},
        ):
            data = self.query_data()
            data["constraints"] = [dict(clause, strict=raw)]
            with pytest.raises(mr.ParseError, match=r"constraints\[0\] field 'strict'"):
                mr.query_from_dict(data)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: mr.Threshold(1, 3, strict="no"), "Threshold field 'strict' must be True or False, got 'no'"),
            (lambda: mr.PrincipalImprovement(strict="false"),
             "PrincipalImprovement field 'strict' must be True or False, got 'false'"),
            (lambda: mr.SocialWelfare(strict=1), "SocialWelfare field 'strict' must be True or False, got 1"),
            (lambda: mr.RecourseQuery(mr.pd_scm(mr.builtin_matrix("table2")), 1, {1: "h1"}, {}, [],
                                      exclude_identity="false"),
             "RecourseQuery field 'exclude_identity' must be True or False, got 'false'"),
        ],
        ids=["threshold", "principal-improvement", "social-welfare", "query"],
    )
    def test_constructors_take_only_bool_flags(self, make, message):
        with pytest.raises(mr.InvalidQueryError) as caught:
            make()
        assert str(caught.value) == message

    def test_a_threshold_literal_is_read_once(self, monkeypatch):
        seen = []
        for module in (engine, values):
            real = module.as_value
            monkeypatch.setattr(module, "as_value", lambda raw, real=real: seen.append(raw) or real(raw))
        clause = files._clause_from_dict({"kind": "threshold", "agent": 1, "t": "7/2"}, 0)
        assert seen == ["7/2"]
        assert (clause.agent, clause.t, clause.strict) == (1, F(7, 2), False)

    def test_absent_booleans_keep_their_defaults(self):
        data = self.query_data()
        del data["exclude_identity"]
        data["constraints"] = [
            {"kind": "threshold", "agent": 1, "t": 3},
            {"kind": "principal_improvement"},
            {"kind": "social_welfare"},
        ]
        query, _ = mr.query_from_dict(data)
        assert query.exclude_identity is False
        assert query.constraints == [
            mr.Threshold(1, F(3), strict=False),
            mr.PrincipalImprovement(strict=True),
            mr.SocialWelfare(strict=True),
        ]

    def test_scm_file_reference(self, tmp_path, pd1):
        (tmp_path / "model.json").write_text(json.dumps(mr.scm_to_dict(pd1)))
        data = self.query_data()
        del data["scm"]
        data["scm_file"] = "model.json"
        query, _ = mr.query_from_dict(data, base_dir=tmp_path)
        assert mr.solve(query) is not None

    def test_outcome_to_dict_exact_values(self, pd1):
        query = pd_query(
            pd1,
            principal=1,
            factual={"x1": 0, "x2": 1},
            feasible=[{"x1": 1}],
            constraints=[],
        )
        payload = mr.outcome_to_dict(mr.solve(query))
        assert payload["found"] is True
        assert payload["action"] == {"x1": 1}
        assert payload["per_agent"]["1"] == {"before": 1, "after": "3.5", "delta": "2.5"}
        assert payload["flags"]["welfare_delta"] == -4
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload


class TestClauseKinds:
    """Each clause's label, and what happens to a constraint that is not a clause."""

    @pytest.mark.parametrize(
        "clause, label",
        [
            (mr.Threshold(1, F(1, 2)), "threshold[1]>=0.5"),
            (mr.Threshold(2, F(1, 3)), "threshold[2]>=1/3"),
            (mr.Threshold("b", F(3), strict=True), "threshold[b]>3"),
            (mr.PrincipalImprovement(), "principal_improvement(strict)"),
            (mr.PrincipalImprovement(strict=False), "principal_improvement(non-strict)"),
            (mr.SocialWelfare(), "social_welfare(strict)"),
            (mr.SocialWelfare(strict=False), "social_welfare(non-strict)"),
            (mr.Pareto(), "pareto"),
            (mr.Plausible(), "plausible"),
        ],
    )
    def test_labels(self, clause, label):
        assert mr.clause_label(clause) == label

    @pytest.mark.parametrize("not_a_clause", ["pareto", None, {"kind": "pareto"}])
    def test_clause_label_rejects_a_non_clause(self, not_a_clause):
        with pytest.raises(mr.InvalidQueryError) as info:
            mr.clause_label(not_a_clause)
        assert str(info.value) == f"unknown constraint clause {not_a_clause!r}"

    @pytest.mark.parametrize("run", [mr.solve, mr.enumerate_feasible, mr.solve_cfe_baseline])
    def test_solvers_reject_a_non_clause(self, pd1, run):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1}],
            constraints=[mr.Plausible(), "pareto"],
        )
        with pytest.raises(mr.InvalidQueryError) as info:
            run(query)
        assert str(info.value) == "unknown constraint clause 'pareto'"

    @pytest.mark.parametrize("run", [mr.solve, mr.enumerate_feasible])
    def test_out_of_domain_action_is_reported_first(self, pd1, run):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 7}],
            constraints=["pareto"],
        )
        with pytest.raises(mr.DomainError):
            run(query)

    @pytest.mark.parametrize("run", [mr.solve, mr.enumerate_feasible])
    def test_failed_abduction_is_reported_first(self, run):
        query, _ = mr.load_query(Path(__file__).parent / "data" / "solve" / "non_invertible.json")
        query.constraints = ["pareto"]
        with pytest.raises(mr.NonInvertibleError):
            run(query)

    @pytest.mark.parametrize(
        "clause, label",
        [
            (mr.Pareto(), "pareto"),
            (mr.SocialWelfare(strict=False), "social_welfare(non-strict)"),
            (mr.PrincipalImprovement(), "principal_improvement(strict)"),
        ],
    )
    def test_baseline_names_the_clause_it_does_not_support(self, pd1, clause, label):
        query = pd_query(
            pd1, principal=1, factual={"x1": 0, "x2": 1}, feasible=[{"x1": 1}], constraints=[clause]
        )
        with pytest.raises(mr.InvalidQueryError) as info:
            mr.solve_cfe_baseline(query)
        assert str(info.value) == f"the additive baseline does not support the {label} clause"

    def test_clause_file_forms(self):
        items = [
            {"kind": "threshold", "agent": 2, "t": "1/2"},
            {"kind": "threshold", "agent": 1, "t": 3, "strict": True},
            {"kind": "principal_improvement"},
            {"kind": "social_welfare", "strict": False},
            {"kind": "pareto", "strict": False},
            {"kind": "plausible"},
        ]
        data = TestFileForms().query_data()
        data["constraints"] = items
        query, _ = mr.query_from_dict(data)
        assert query.constraints == [
            mr.Threshold(2, F(1, 2), strict=False),
            mr.Threshold(1, F(3), strict=True),
            mr.PrincipalImprovement(strict=True),
            mr.SocialWelfare(strict=False),
            mr.Pareto(),
            mr.Plausible(),
        ]
