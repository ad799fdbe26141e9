"""Two-player betray/silent payoff matrices and their causal models.

Actions are encoded betray=1, silent=0.  Three builtin matrices ship with the
package (ids "table1", "table2", "table3"); custom matrices load from a
four-row CSV.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path

from .errors import AsymmetricMatrixError, DomainError, InvalidParamsError, ParseError, UnknownMatrixError
from .gamelog import BETRAY, SILENT
from .scm import ENDOGENOUS, EXOGENOUS, Scm, StructuralEquation, VariableDecl
from .values import Record, as_value, bom_note, format_value, quoted, read_file, shown_repr

ACTIONS = (SILENT, BETRAY)

Cell = tuple[Fraction, Fraction]
_PAIRS = frozenset(product(ACTIONS, ACTIONS))


class PayoffMatrix(Record):
    """Payoffs (row player, column player) for each pair of actions."""

    __slots__ = _fields = ("id", "entries")

    def __init__(self, id: str, entries: dict[tuple[int, int], Cell]) -> None:
        self.id = id
        normalized: dict[tuple[int, int], Cell] = {}
        for key, cell in entries.items():
            # A pair of the ints 0 and 1, as they are: no float, bool or longer tuple.
            if key not in _PAIRS or type(key[0]) is not int or type(key[1]) is not int:
                raise DomainError(
                    f"matrix {quoted(id)} has an action outside {{0, 1}}: {quoted(key, str)}"
                )
            try:
                p1, p2 = () if isinstance(cell, str) else cell
            except (TypeError, ValueError):  # 5, (1, 2, 3), or a string read by character
                raise InvalidParamsError(
                    f"matrix {quoted(id)} cell {key} must be a pair of payoffs, got {shown_repr(cell)}"
                ) from None
            normalized[tuple(key)] = (as_value(p1), as_value(p2))
        if len(normalized) != len(_PAIRS):
            raise InvalidParamsError(f"matrix {quoted(id)} must define all four action pairs")
        self.entries = normalized

    def payoffs(self, a1: int, a2: int) -> Cell:
        return self.entries[(a1, a2)]

    def is_symmetric(self) -> bool:
        return all(
            self.entries[(a, b)][0] == self.entries[(b, a)][1]
            for a, b in self.entries
        )


_BUILTIN: dict[str, dict[tuple[int, int], tuple[str, str]]] = {
    "table1": {
        (BETRAY, BETRAY): ("3.5", "3.5"),
        (BETRAY, SILENT): ("10", "1"),
        (SILENT, BETRAY): ("1", "10"),
        (SILENT, SILENT): ("5", "5"),
    },
    "table2": {
        (BETRAY, BETRAY): ("35", "35"),
        (BETRAY, SILENT): ("100", "10"),
        (SILENT, BETRAY): ("10", "100"),
        (SILENT, SILENT): ("65", "65"),
    },
    "table3": {
        (BETRAY, BETRAY): ("45", "45"),
        (BETRAY, SILENT): ("100", "10"),
        (SILENT, BETRAY): ("10", "100"),
        (SILENT, SILENT): ("75", "75"),
    },
}

BUILTIN_MATRIX_IDS = tuple(sorted(_BUILTIN))


def builtin_matrix(matrix_id: str) -> PayoffMatrix:
    try:
        cells = _BUILTIN[matrix_id]
    except KeyError:
        raise UnknownMatrixError(
            f"unknown payoff matrix {quoted(matrix_id)}; builtins are "
            + ", ".join(BUILTIN_MATRIX_IDS)
        ) from None
    return PayoffMatrix(matrix_id, {k: (as_value(a), as_value(b)) for k, (a, b) in cells.items()})


def pd_scm(matrix: PayoffMatrix) -> Scm:
    """Causal model of one game round: actions are exogenous, payoffs endogenous.

    Each payoff equation reads (own action, other action), so both payoff
    nodes have both action nodes as parents.
    """
    h1_domain = tuple(sorted({cell[0] for cell in matrix.entries.values()}))
    h2_domain = tuple(sorted({cell[1] for cell in matrix.entries.values()}))
    binary = (Fraction(0), Fraction(1))
    f1 = {
        (Fraction(a1), Fraction(a2)): matrix.entries[(a1, a2)][0]
        for a1, a2 in matrix.entries
    }
    f2 = {
        (Fraction(a2), Fraction(a1)): matrix.entries[(a1, a2)][1]
        for a1, a2 in matrix.entries
    }
    return Scm(
        (
            VariableDecl("x1", EXOGENOUS, binary),
            VariableDecl("x2", EXOGENOUS, binary),
            VariableDecl("h1", ENDOGENOUS, h1_domain),
            VariableDecl("h2", ENDOGENOUS, h2_domain),
        ),
        (
            StructuralEquation("h1", ("x1", "x2"), f1),
            StructuralEquation("h2", ("x2", "x1"), f2),
        ),
    )


def is_pd_ordered(matrix: PayoffMatrix) -> bool:
    """True iff temptation > reward > punishment > sucker for the row player."""
    if not matrix.is_symmetric():
        raise AsymmetricMatrixError(
            f"matrix {quoted(matrix.id)} is asymmetric; the ordering check assumes symmetry"
        )
    temptation = matrix.entries[(BETRAY, SILENT)][0]
    reward = matrix.entries[(SILENT, SILENT)][0]
    punishment = matrix.entries[(BETRAY, BETRAY)][0]
    sucker = matrix.entries[(SILENT, BETRAY)][0]
    return temptation > reward > punishment > sucker


# ------------------------------------------------------------------ file I/O

_MATRIX_HEADER = ["row_action", "col_action", "p1", "p2"]


def load_matrix_csv(path: str | Path, matrix_id: str = "custom") -> PayoffMatrix:
    """Read a matrix from CSV with header row_action,col_action,p1,p2."""
    import csv
    import io

    path = Path(path)
    text = read_file(path, "matrix", newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or rows[0][1] != _MATRIX_HEADER:
        raise ParseError(f"{path}: first line must be '{','.join(_MATRIX_HEADER)}'{bom_note(text)}")
    entries: dict[tuple[int, int], Cell] = {}
    for lineno, row in rows[1:]:
        if len(row) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
        try:
            a1, a2 = int(row[0]), int(row[1])
            cell = (as_value(row[2]), as_value(row[3]))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if (a1, a2) in entries:
            raise ParseError(f"{path}: line {lineno}: duplicate cell ({a1}, {a2})")
        entries[(a1, a2)] = cell
    return PayoffMatrix(matrix_id, entries)


def matrix_to_csv(matrix: PayoffMatrix) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_MATRIX_HEADER)
    for (a1, a2) in sorted(matrix.entries):
        p1, p2 = matrix.entries[(a1, a2)]
        writer.writerow([a1, a2, format_value(p1), format_value(p2)])
    return out.getvalue()
