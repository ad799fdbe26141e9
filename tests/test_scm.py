"""Model construction, evaluation, abduction, intervention, counterfactuals."""

import re
from fractions import Fraction as F
from itertools import product

import pytest

import multiagent_recourse as mr

# A value whose text is past format_value's digit limit, as messages quote it.
TINY = F(3, 2**14000)
TINY_SHOWN = "3/" + str(2**14000)[:35] + "..."

# Inline payoff lookup for the classic matrix, used as an independent check
# against the model's equations: (own action, other action) -> own payoff.
PAYOFF = {(0, 1): F(1), (1, 1): F("3.5"), (0, 0): F(5), (1, 0): F(10)}


def chain_scm():
    # u -> m -> h, all binary, identity equations
    return mr.Scm(
        (
            mr.VariableDecl("u", mr.EXOGENOUS, (0, 1)),
            mr.VariableDecl("m", mr.ENDOGENOUS, (0, 1)),
            mr.VariableDecl("h", mr.ENDOGENOUS, (0, 1)),
        ),
        (
            mr.StructuralEquation("m", ("u",), {(F(0),): F(0), (F(1),): F(1)}),
            mr.StructuralEquation("h", ("m",), {(F(0),): F(0), (F(1),): F(1)}),
        ),
    )


def constant_scm():
    # h1 is 5 regardless of x1, so observing h1 alone cannot pin x1
    return mr.Scm(
        (
            mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),
            mr.VariableDecl("h1", mr.ENDOGENOUS, (5,)),
        ),
        (mr.StructuralEquation("h1", ("x1",), {(F(0),): F(5), (F(1),): F(5)}),),
    )


class TestBuild:
    def test_pd_shape(self, pd1):
        assert len(pd1.variables) == 4
        assert len(pd1.equations) == 2
        assert pd1.exogenous_names == ("x1", "x2")
        assert pd1.endogenous_names == ("h1", "h2")

    def test_build_from_dict(self):
        data = {
            "variables": [
                {"name": "x1", "kind": "exogenous", "domain": [0, 1]},
                {"name": "h1", "kind": "endogenous", "domain": [0, 1]},
            ],
            "equations": [
                {
                    "target": "h1",
                    "parents": ["x1"],
                    "table": [{"in": [0], "out": 1}, {"in": [1], "out": 0}],
                }
            ],
        }
        scm = mr.scm_from_dict(data)
        assert scm.evaluate({"x1": 0}) == {"x1": F(0), "h1": F(1)}

    def test_a_string_domain_is_refused(self):
        # Read as a sequence, "01" would be the domain (0, 1), one character at a time.
        with pytest.raises(mr.ScmValidationError) as caught:
            mr.VariableDecl("x", mr.EXOGENOUS, "01")
        assert str(caught.value) == "VariableDecl field 'domain' must be a sequence, not the string '01'"

    def test_string_parents_are_refused(self):
        with pytest.raises(mr.ScmValidationError) as caught:
            mr.StructuralEquation("y", "ab", {})
        assert str(caught.value) == "StructuralEquation field 'parents' must be a sequence, not the string 'ab'"

    @pytest.mark.parametrize(
        "variables, equations, message",
        [
            ([{"name": "x", "kind": "exogenous", "domain": "01"}], [], "variables[0] field 'domain' must be a list, got '01'"),
            (
                [{"name": "x", "kind": "exogenous", "domain": [0, 1]}],
                [{"target": "y", "parents": "x", "table": []}],
                "equations[0] field 'parents' must be a list, got 'x'",
            ),
        ],
        ids=["domain", "parents"],
    )
    def test_a_model_file_string_stays_a_parse_error(self, variables, equations, message):
        with pytest.raises(mr.ParseError) as caught:
            mr.scm_from_dict({"variables": variables, "equations": equations})
        assert str(caught.value) == message

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(mr.CycleError):
            mr.Scm(
                (mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),),
                (mr.StructuralEquation("h1", ("h1",), {(F(0),): F(0), (F(1),): F(1)}),),
            )

    def test_two_node_cycle(self):
        with pytest.raises(mr.CycleError):
            mr.Scm(
                (
                    mr.VariableDecl("a", mr.ENDOGENOUS, (0, 1)),
                    mr.VariableDecl("b", mr.ENDOGENOUS, (0, 1)),
                ),
                (
                    mr.StructuralEquation("a", ("b",), {(F(0),): F(0), (F(1),): F(1)}),
                    mr.StructuralEquation("b", ("a",), {(F(0),): F(0), (F(1),): F(1)}),
                ),
            )

    def test_missing_table_row(self):
        message = "table for 'h1' is missing 1 row(s), e.g. parents=[1, 1]"
        with pytest.raises(mr.IncompleteTableError, match=re.escape(message)):
            mr.Scm(
                (
                    mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),
                    mr.VariableDecl("x2", mr.EXOGENOUS, (0, 1)),
                    mr.VariableDecl("h1", mr.ENDOGENOUS, (1, F("3.5"), 5, 10)),
                ),
                (
                    mr.StructuralEquation(
                        "h1",
                        ("x1", "x2"),
                        {  # (x_i=1, x_j=1) row left out
                            (F(0), F(1)): F(1),
                            (F(0), F(0)): F(5),
                            (F(1), F(0)): F(10),
                        },
                    ),
                ),
            )

    def test_duplicate_equation(self):
        eq = mr.StructuralEquation("h1", (), {(): F(0)})
        with pytest.raises(mr.DuplicateEquationError):
            mr.Scm((mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),), (eq, eq))

    def test_out_of_domain_table_output(self):
        message = "table for 'h1' maps [] to 7, outside the declared domain"
        with pytest.raises(mr.DomainError, match=re.escape(message)):
            mr.Scm(
                (mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),),
                (mr.StructuralEquation("h1", (), {(): F(7)}),),
            )

    def test_stray_table_row(self):
        message = "table for 'h1' has a row outside the parent domains: [2]"
        with pytest.raises(mr.DomainError, match=re.escape(message)):
            mr.Scm(
                (
                    mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),
                    mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),
                ),
                (
                    mr.StructuralEquation(
                        "h1", ("x1",), {(F(0),): F(0), (F(1),): F(1), (F(2),): F(0)}
                    ),
                ),
            )

    @pytest.mark.parametrize(
        "domain, table, error, message",
        [
            # (1,) is missing, (3,) and (2,) are stray, and (0,) maps outside {0, 1}
            (
                (0, 1),
                {(F(0),): F(5), (F(3),): F(0), (F(2),): F(1)},
                mr.DomainError,
                "table for 'h1' has a row outside the parent domains: [2]",
            ),
            # (1,) is missing and (0,) maps outside {0, 1}
            (
                (0, 1),
                {(F(0),): F(5)},
                mr.IncompleteTableError,
                "table for 'h1' is missing 1 row(s), e.g. parents=[1]",
            ),
            # Rows and outputs are written as a model file writes them.
            (
                (0, F(1, 2)),
                {(F(0),): F(0), (F(1, 2),): F(0), (F(1, 3),): F(0)},
                mr.DomainError,
                "table for 'h1' has a row outside the parent domains: [1/3]",
            ),
            (
                (0, F(1, 2)),
                {(F(0),): F(0)},
                mr.IncompleteTableError,
                "table for 'h1' is missing 1 row(s), e.g. parents=[0.5]",
            ),
            (
                (0, F(1, 2)),
                {(F(0),): F(7, 2), (F(1, 2),): F(0)},
                mr.DomainError,
                "table for 'h1' maps [0] to 3.5, outside the declared domain",
            ),
            # A value past format_value's digit limit is quoted as the head of
            # its n/d, cut to 40 characters like every quoted value.
            (
                (0, 1),
                {(F(0),): TINY, (F(1),): F(0)},
                mr.DomainError,
                f"table for 'h1' maps [0] to {TINY_SHOWN}, outside the declared domain",
            ),
            (
                (0, TINY),
                {(F(0),): F(0)},
                mr.IncompleteTableError,
                f"table for 'h1' is missing 1 row(s), e.g. parents=[{TINY_SHOWN}]",
            ),
        ],
        ids=[
            "stray-first", "missing-before-output", "stray-fraction", "missing-decimal", "output-decimal",
            "output-long", "missing-long",
        ],
    )
    def test_table_errors_reported_in_order(self, domain, table, error, message):
        with pytest.raises(error) as caught:
            mr.Scm(
                (
                    mr.VariableDecl("x1", mr.EXOGENOUS, domain),
                    mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),
                ),
                (mr.StructuralEquation("h1", ("x1",), table),),
            )
        assert str(caught.value) == message

    def test_unknown_parent(self):
        with pytest.raises(mr.DomainError):
            mr.Scm(
                (mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),),
                (mr.StructuralEquation("h1", ("ghost",), {(F(0),): F(0)}),),
            )

    def test_exogenous_with_equation(self):
        with pytest.raises(mr.ScmValidationError):
            mr.Scm(
                (mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),),
                (mr.StructuralEquation("x1", (), {(): F(0)}),),
            )

    def test_endogenous_without_equation(self):
        with pytest.raises(mr.ScmValidationError):
            mr.Scm((mr.VariableDecl("h1", mr.ENDOGENOUS, (0, 1)),), ())

    def test_duplicate_variable_name(self):
        with pytest.raises(mr.ScmValidationError):
            mr.Scm(
                (
                    mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),
                    mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),
                ),
                (),
            )

    def test_empty_and_repeated_domain(self):
        with pytest.raises(mr.ScmValidationError):
            mr.Scm((mr.VariableDecl("x1", mr.EXOGENOUS, ()),), ())
        with pytest.raises(mr.ScmValidationError):
            mr.Scm((mr.VariableDecl("x1", mr.EXOGENOUS, (1, 1)),), ())


class TestEvaluate:
    @pytest.mark.parametrize(
        "x1,x2",
        [(0, 1), (1, 1), (0, 0), (1, 0)],
    )
    def test_pd_matches_payoff_table(self, pd1, x1, x2):
        state = pd1.evaluate({"x1": x1, "x2": x2})
        assert state["h1"] == PAYOFF[(x1, x2)]
        assert state["h2"] == PAYOFF[(x2, x1)]

    def test_missing_exogenous(self, pd1):
        with pytest.raises(mr.MissingExogenousError):
            pd1.evaluate({"x1": 0})

    def test_rejects_endogenous_input(self, pd1):
        with pytest.raises(mr.DomainError):
            pd1.evaluate({"x1": 0, "x2": 1, "h1": 1})

    def test_rejects_out_of_domain(self, pd1):
        with pytest.raises(mr.DomainError):
            pd1.evaluate({"x1": 2, "x2": 0})

    def test_rejects_unknown_variable(self, pd1):
        with pytest.raises(mr.DomainError):
            pd1.evaluate({"x1": 0, "x2": 0, "zz": 1})


# An out-of-domain value is quoted as a model file writes it (format_value),
# cut to 40 characters like any quoted literal, however it was spelled.
OUT_OF_DOMAIN = [
    ("7/2", "3.5"),
    (F(7, 2), "3.5"),
    ("0.25", "0.25"),
    ("1e2", "100"),
    (2, "2"),
    ("-1/3", "-1/3"),
    (F(10**50), "1" + "0" * 36 + "..."),
    # No decimal text within the digit limit: the head of n/d, still cut.
    (F(10**5000), "1" + "0" * 36 + "..."),
    (F(-(10**5000) + 1), "-" + "9" * 36 + "..."),
    (F(3, 2**14000), "3/26299003673253117803893412934407213..."),
]


class TestOutOfDomainMessage:
    @pytest.mark.parametrize("value, shown", OUT_OF_DOMAIN)
    def test_evaluate(self, pd1, value, shown):
        with pytest.raises(mr.DomainError) as info:
            pd1.evaluate({"x1": value, "x2": 0})
        assert str(info.value) == f"value {shown} is outside the domain of 'x1'"

    # 3.5 is a payoff of table1.
    @pytest.mark.parametrize("value, shown", [case for case in OUT_OF_DOMAIN if case[1] != "3.5"])
    def test_abduct(self, pd1, value, shown):
        with pytest.raises(mr.DomainError) as info:
            pd1.abduct({"h1": value})
        assert str(info.value) == f"value {shown} is outside the domain of 'h1'"

    @pytest.mark.parametrize("value, shown", OUT_OF_DOMAIN)
    def test_intervene(self, pd1, value, shown):
        with pytest.raises(mr.DomainError) as info:
            pd1.intervene({"x2": value})
        assert str(info.value) == f"value {shown} is outside the domain of 'x2'"

    def test_a_bool_is_still_refused_as_a_literal(self, pd1):
        with pytest.raises(ValueError, match="cannot interpret bool value True as a rational"):
            pd1.evaluate({"x1": True, "x2": 0})


class TestAbduct:
    def test_unique_from_payoffs(self, pd1):
        # Independent derivation: enumerate the four exogenous assignments
        # against the inline payoff lookup and keep the consistent one.
        consistent = [
            (a, b)
            for a, b in product((0, 1), repeat=2)
            if PAYOFF[(a, b)] == F(1) and PAYOFF[(b, a)] == F(10)
        ]
        assert consistent == [(0, 1)]
        state = pd1.abduct({"h1": 1, "h2": 10})
        assert state == {"x1": F(0), "x2": F(1), "h1": F(1), "h2": F(10)}

    def test_full_exogenous_observation(self, pd1):
        state = pd1.abduct({"x1": 1, "x2": 0})
        assert state == pd1.evaluate({"x1": 1, "x2": 0})
        assert state["h1"] == F(10) and state["h2"] == F(1)

    def test_constant_equation_not_invertible(self):
        with pytest.raises(mr.NonInvertibleError, match="several exogenous assignments"):
            constant_scm().abduct({"h1": 5})

    def test_impossible_observation(self, pd1):
        with pytest.raises(mr.NonInvertibleError, match="no exogenous assignment"):
            pd1.abduct({"h1": 1, "h2": 1})

    def test_more_exogenous_variables_than_the_recursion_limit(self):
        n = 1500
        exogenous = [mr.VariableDecl(f"u{i}", mr.EXOGENOUS, (0, 1)) for i in range(n)]
        scm = mr.Scm(
            (*exogenous, mr.VariableDecl("y", mr.ENDOGENOUS, (0, 1))),
            (mr.StructuralEquation("y", (f"u{n - 1}",), {(F(0),): F(1), (F(1),): F(0)}),),
        )
        world = {f"u{i}": F(i % 2) for i in range(n)}
        expected = {**world, "y": F(0)}
        assert scm.abduct(world) == expected
        # the last exogenous value is recovered from y alone
        partial = {name: v for name, v in expected.items() if name != f"u{n - 1}"}
        assert scm.abduct(partial) == expected


class TestIntervene:
    def test_pin_exogenous(self, pd1):
        pinned = pd1.intervene({"x1": 1})
        assert pinned.exogenous_names == ("x2",)
        assert pinned.graph().in_degree("x1") == 0
        state = pinned.evaluate({"x2": 1})
        assert state == {"x1": F(1), "x2": F(1), "h1": F("3.5"), "h2": F("3.5")}
        # graph otherwise unchanged
        assert set(pinned.graph().edges) == set(pd1.graph().edges)

    def test_chain_edge_removed(self):
        scm = chain_scm()
        pinned = scm.intervene({"m": 1})
        assert ("u", "m") not in pinned.graph().edges
        assert ("m", "h") in pinned.graph().edges
        assert pinned.graph().in_degree("m") == 0
        for u in (0, 1):
            state = pinned.evaluate({"u": u})
            assert state["m"] == F(1) and state["h"] == F(1)

    def test_empty_intervention_is_identity(self, pd1):
        assert pd1.intervene({}) is pd1

    def test_pin_endogenous(self, pd1):
        pinned = pd1.intervene({"h1": 5})
        state = pinned.evaluate({"x1": 1, "x2": 1})
        assert state["h1"] == F(5)
        assert state["h2"] == F("3.5")

    def test_out_of_domain_pin(self, pd1):
        with pytest.raises(mr.DomainError):
            pd1.intervene({"x1": 3})


class TestCounterfactual:
    def test_flip_from_silent(self, pd1):
        state = pd1.counterfactual({"x1": 0, "x2": 1}, {"x1": 1})
        assert state == {"x1": F(1), "x2": F(1), "h1": F("3.5"), "h2": F("3.5")}

    def test_empty_action_returns_completed_factual(self, pd1):
        state = pd1.counterfactual({"x1": 0, "x2": 1}, {})
        assert state == pd1.evaluate({"x1": 0, "x2": 1})

    def test_flip_from_mutual_silence(self, pd1):
        state = pd1.counterfactual({"x1": 0, "x2": 0}, {"x1": 1})
        assert state["h1"] == F(10) and state["h2"] == F(1)

    def test_propagates_non_invertible(self):
        with pytest.raises(mr.NonInvertibleError):
            constant_scm().counterfactual({"h1": 5}, {"x1": 1})


class TestGraph:
    def test_pd_nodes_and_edges(self, pd1):
        graph = pd1.graph()
        assert set(graph.nodes) == {"x1", "x2", "h1", "h2"}
        assert set(graph.edges) == {
            ("x1", "h1"),
            ("x1", "h2"),
            ("x2", "h1"),
            ("x2", "h2"),
        }

    def test_no_endogenous_variables(self):
        scm = mr.Scm((mr.VariableDecl("x1", mr.EXOGENOUS, (0, 1)),), ())
        graph = scm.graph()
        assert graph.nodes == ("x1",)
        assert graph.edges == ()

    def test_dot_deterministic_and_sorted(self, pd1):
        dot = mr.graph_to_dot(pd1.graph())
        assert dot == mr.graph_to_dot(pd1.graph())
        assert dot == (
            "digraph causal_model {\n"
            '    "h1";\n'
            '    "h2";\n'
            '    "x1";\n'
            '    "x2";\n'
            '    "x1" -> "h1";\n'
            '    "x1" -> "h2";\n'
            '    "x2" -> "h1";\n'
            '    "x2" -> "h2";\n'
            "}\n"
        )

    def test_dot_escapes_quotes_and_backslashes_in_names(self):
        scm = mr.Scm(
            (
                mr.VariableDecl('u"1', mr.EXOGENOUS, (0, 1)),
                mr.VariableDecl("a\\", mr.ENDOGENOUS, (0, 1)),
            ),
            (mr.StructuralEquation("a\\", ('u"1',), {(F(0),): F(0), (F(1),): F(1)}),),
        )
        assert mr.graph_to_dot(scm.graph()) == (
            "digraph causal_model {\n"
            '    "a\\\\";\n'
            '    "u\\"1";\n'
            '    "u\\"1" -> "a\\\\";\n'
            "}\n"
        )


class TestFiles:
    def test_round_trip(self, pd1):
        data = mr.scm_to_dict(pd1)
        again = mr.scm_from_dict(data)
        assert again == pd1

    def test_load_scm(self, tmp_path, pd1):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(mr.scm_to_dict(pd1)))
        assert mr.load_scm(path) == pd1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "variables": [,]\n}')
        with pytest.raises(mr.ParseError, match="line 2"):
            mr.load_scm(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(mr.ParseError):
            mr.scm_from_dict({"variables": [], "equations": [], "bogus": 1})

    @pytest.mark.parametrize(
        "domain, rows, error, message",
        [
            # Every row error comes before every structural one, even when
            # the domain repeats a value, so that two spellings share a row.
            ([0, 1, "1"], [[0, 1], [1, 0], ["1", 0]], mr.ParseError, "table[2] repeats inputs ['1']"),
            ([0, 0], [[0, 1], [1, 0]], mr.ScmValidationError, "'x1' repeats a domain value"),
            ([0, 1], [[0, 1], [1, 0], [2, 0], [1, 5]], mr.ParseError, "table[3] repeats inputs [1]"),
            ([0, 1], [[0, 5], [2, 0]], mr.DomainError, "row outside the parent domains: [2]"),
            ([0, 1], [[0, 5]], mr.IncompleteTableError, "missing 1 row(s), e.g. parents=[1]"),
            ([0, 1], [[0, 5], ["2/2", 0]], mr.DomainError, "maps [0] to 5, outside"),
            ([0, 1], [[0, 1], [1, "1/0"]], mr.ParseError, "table[1] field 'out': cannot interpret '1/0'"),
        ],
        ids=["respelled-repeat", "repeated-domain", "repeat-after-stray", "stray", "missing", "output", "bad-out"],
    )
    def test_file_errors_keep_their_order(self, domain, rows, error, message):
        data = {
            "variables": [
                {"name": "x1", "kind": "exogenous", "domain": domain},
                {"name": "h1", "kind": "endogenous", "domain": [0, 1]},
            ],
            "equations": [
                {"target": "h1", "parents": ["x1"], "table": [{"in": [i], "out": o} for i, o in rows]}
            ],
        }
        with pytest.raises(error, match=re.escape(message)):
            mr.scm_from_dict(data)

    def test_row_with_wrong_arity(self):
        data = {
            "variables": [
                {"name": "x1", "kind": "exogenous", "domain": [0, 1]},
                {"name": "h1", "kind": "endogenous", "domain": [0, 1]},
            ],
            "equations": [
                {"target": "h1", "parents": ["x1"], "table": [{"in": [0], "out": 0}, {"in": [1, 0], "out": 1}]}
            ],
        }
        with pytest.raises(mr.ParseError) as caught:
            mr.scm_from_dict(data)
        assert str(caught.value) == "equations[0].table[1] has 2 inputs for 1 parent(s)"

    def test_fractional_values_survive(self, pd1):
        data = mr.scm_to_dict(pd1)
        h1 = next(e for e in data["equations"] if e["target"] == "h1")
        outs = {row["out"] for row in h1["table"]}
        assert "3.5" in outs  # exact decimal text, not a float


def test_pure_functions_are_repeatable(pd1):
    for _ in range(2):
        assert pd1.evaluate({"x1": 0, "x2": 1})["h1"] == F(1)
        assert pd1.abduct({"h1": 1, "h2": 10})["x1"] == F(0)
        assert pd1.counterfactual({"x1": 0, "x2": 1}, {"x1": 1})["h1"] == F("3.5")
