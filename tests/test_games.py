"""Builtin payoff matrices and their game models."""

from fractions import Fraction as F
from itertools import product

import pytest

import multiagent_recourse as mr


class TestBuiltins:
    def test_table1_cells(self, table1):
        assert table1.payoffs(1, 1) == (F("3.5"), F("3.5"))
        assert table1.payoffs(1, 0) == (F(10), F(1))
        assert table1.payoffs(0, 1) == (F(1), F(10))
        assert table1.payoffs(0, 0) == (F(5), F(5))

    def test_table2_cells(self, table2):
        assert table2.payoffs(1, 1) == (F(35), F(35))
        assert table2.payoffs(1, 0) == (F(100), F(10))
        assert table2.payoffs(0, 1) == (F(10), F(100))
        assert table2.payoffs(0, 0) == (F(65), F(65))

    def test_table3_cells(self, table3):
        assert table3.payoffs(1, 1) == (F(45), F(45))
        assert table3.payoffs(1, 0) == (F(100), F(10))
        assert table3.payoffs(0, 1) == (F(10), F(100))
        assert table3.payoffs(0, 0) == (F(75), F(75))

    def test_unknown_matrix(self):
        with pytest.raises(mr.UnknownMatrixError):
            mr.builtin_matrix("table9")

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(mr.InvalidParamsError):
            mr.PayoffMatrix("partial", {(0, 0): (F(1), F(1))})

    @pytest.mark.parametrize(
        "key", [(1.7, 0), (True, True), (F(1), 1), (0, 1, 1), (0,), "01", (2, 0)],
        ids=["float", "bools", "fraction", "triple", "single", "text", "two"],
    )
    def test_matrix_keys_are_pairs_of_the_ints_0_and_1(self, key):
        entries = {(0, 0): (1, 1), (0, 1): (1, 1), (1, 0): (1, 1), key: (1, 1)}
        with pytest.raises(mr.DomainError) as caught:
            mr.PayoffMatrix("m", entries)
        assert str(caught.value) == f"matrix 'm' has an action outside {{0, 1}}: {key}"

    @pytest.mark.parametrize(
        "cell, shown",
        [((1, 2, 3), "(1, 2, 3)"), (5, "5"), ((1,), "(1,)"), ("12", "'12'"), (None, "None")],
        ids=["triple", "number", "single", "text", "none"],
    )
    def test_matrix_cells_are_pairs(self, cell, shown):
        entries = {(0, 0): (1, 1), (0, 1): cell, (1, 0): (1, 1), (1, 1): (1, 1)}
        with pytest.raises(mr.InvalidParamsError) as caught:
            mr.PayoffMatrix("m", entries)
        assert str(caught.value) == f"matrix 'm' cell (0, 1) must be a pair of payoffs, got {shown}"

    @pytest.mark.parametrize(
        "matrix_id", ["m", "it's", 7, ("a", 1), None, 10**4299],
        ids=["text", "quote", "int", "tuple", "none", "4300-digit-int"],
    )
    def test_a_matrix_id_is_quoted_by_its_repr(self, matrix_id):
        # Only an id that repr refuses is quoted another way (tests/test_values.py).
        cells = {(0, 0): (1, 1), (0, 1): (1, 2), (1, 0): (1, 1), (1, 1): (1, 1)}
        shown = repr(matrix_id)
        cases = [
            (lambda: mr.PayoffMatrix(matrix_id, {(2, 0): (1, 1)}),
             f"matrix {shown} has an action outside {{0, 1}}: (2, 0)"),
            (lambda: mr.PayoffMatrix(matrix_id, {(0, 0): 5}),
             f"matrix {shown} cell (0, 0) must be a pair of payoffs, got 5"),
            (lambda: mr.PayoffMatrix(matrix_id, {(0, 0): (1, 1)}),
             f"matrix {shown} must define all four action pairs"),
            (lambda: mr.builtin_matrix(matrix_id),
             f"unknown payoff matrix {shown}; builtins are table1, table2, table3"),
            (lambda: mr.is_pd_ordered(mr.PayoffMatrix(matrix_id, cells)),
             f"matrix {shown} is asymmetric; the ordering check assumes symmetry"),
        ]
        for make, message in cases:
            with pytest.raises(mr.RecourseError) as caught:
                make()
            assert str(caught.value) == message

    def test_a_bad_key_is_refused_before_its_cell(self):
        with pytest.raises(mr.DomainError):
            mr.PayoffMatrix("m", {(2, 0): 5})


class TestPdScm:
    def test_evaluations_match_cells(self, table1, table2, table3):
        for matrix in (table1, table2, table3):
            scm = mr.pd_scm(matrix)
            for a1, a2 in product((0, 1), repeat=2):
                state = scm.evaluate({"x1": a1, "x2": a2})
                assert (state["h1"], state["h2"]) == matrix.payoffs(a1, a2)

    def test_table2_mutual_betrayal(self, pd2):
        state = pd2.evaluate({"x1": 1, "x2": 1})
        assert state["h1"] == F(35) and state["h2"] == F(35)

    def test_graph_shape(self, pd1):
        graph = pd1.graph()
        assert set(graph.edges) == {
            ("x1", "h1"),
            ("x1", "h2"),
            ("x2", "h1"),
            ("x2", "h2"),
        }

    def test_invertible_from_payoff_pairs(self, table1, table2, table3):
        # all four payoff pairs are pairwise distinct, so the payoff
        # observation pins the actions
        for matrix in (table1, table2, table3):
            pairs = set(matrix.entries.values())
            assert len(pairs) == 4
            scm = mr.pd_scm(matrix)
            for a1, a2 in product((0, 1), repeat=2):
                p1, p2 = matrix.payoffs(a1, a2)
                state = scm.abduct({"h1": p1, "h2": p2})
                assert (state["x1"], state["x2"]) == (a1, a2)

    def test_duplicate_pairs_break_invertibility(self):
        flat = mr.PayoffMatrix(
            "flat",
            {(0, 0): (F(2), F(2)), (0, 1): (F(2), F(2)), (1, 0): (F(3), F(1)), (1, 1): (F(4), F(4))},
        )
        scm = mr.pd_scm(flat)
        with pytest.raises(mr.NonInvertibleError):
            scm.abduct({"h1": 2, "h2": 2})

    def test_symmetry(self, table1, table2, table3):
        for matrix in (table1, table2, table3):
            scm = mr.pd_scm(matrix)
            for a, b in product((0, 1), repeat=2):
                assert (
                    scm.evaluate({"x1": a, "x2": b})["h1"]
                    == scm.evaluate({"x1": b, "x2": a})["h2"]
                )


class TestOrdering:
    def test_builtin_orderings(self, table1, table2, table3):
        assert mr.is_pd_ordered(table1)  # 10 > 5 > 3.5 > 1
        assert mr.is_pd_ordered(table2)  # 100 > 65 > 35 > 10
        assert mr.is_pd_ordered(table3)  # 100 > 75 > 45 > 10

    def test_tie_breaks_ordering(self):
        matrix = mr.PayoffMatrix(
            "tied",
            {(1, 0): (F(5), F(0)), (0, 0): (F(5), F(5)), (1, 1): (F(1), F(1)), (0, 1): (F(0), F(5))},
        )
        assert not mr.is_pd_ordered(matrix)  # reward == temptation

    def test_asymmetric_rejected(self):
        matrix = mr.PayoffMatrix(
            "skew",
            {(0, 0): (F(1), F(2)), (0, 1): (F(3), F(4)), (1, 0): (F(5), F(6)), (1, 1): (F(7), F(8))},
        )
        with pytest.raises(mr.AsymmetricMatrixError):
            mr.is_pd_ordered(matrix)


class TestMatrixFiles:
    def test_round_trip(self, tmp_path, table1):
        path = tmp_path / "m.csv"
        path.write_text(mr.matrix_to_csv(table1))
        loaded = mr.load_matrix_csv(path)
        assert loaded.entries == table1.entries
        assert loaded.id == "custom"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c,d\n0,0,1,1\n")
        with pytest.raises(mr.ParseError):
            mr.load_matrix_csv(path)

    def test_bad_action(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "row_action,col_action,p1,p2\n0,0,1,1\n0,1,1,1\n1,0,1,1\n2,1,1,1\n"
        )
        with pytest.raises(mr.DomainError):
            mr.load_matrix_csv(path)

    def test_error_names_the_file_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("row_action,col_action,p1,p2\n\n0,0,x,1\n")
        with pytest.raises(mr.ParseError, match=r"m\.csv: line 3: cannot interpret 'x'"):
            mr.load_matrix_csv(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_read_alike(self, tmp_path, table1, end):
        path = tmp_path / "m.csv"
        path.write_bytes(mr.matrix_to_csv(table1).replace("\n", end).encode())
        assert mr.load_matrix_csv(path).entries == table1.entries
        path.write_bytes(end.join(["row_action,col_action,p1,p2", "", "0,0,1,1", "0,1,1", ""]).encode())
        with pytest.raises(mr.ParseError) as caught:
            mr.load_matrix_csv(path)
        assert str(caught.value) == f"{path}: line 4: expected 4 fields, got 3"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0,1,1", "0,1,1"], "line 3: expected 4 fields, got 3"),
            (["0,0,1,1", "0,1,1,1", "0,0,2,2"], "line 4: duplicate cell (0, 0)"),
        ],
        ids=["field-count", "duplicate-cell"],
    )
    def test_bad_rows(self, tmp_path, rows, message):
        path = tmp_path / "m.csv"
        path.write_text("\n".join(["row_action,col_action,p1,p2", *rows]) + "\n")
        with pytest.raises(mr.ParseError) as caught:
            mr.load_matrix_csv(path)
        assert str(caught.value) == f"{path}: {message}"
