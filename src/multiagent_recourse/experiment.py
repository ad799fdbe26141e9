"""Batch harness: game logs in, per-mode recourse count tables out.

A log is a list of two-player game records (``gamelog``).  After filtering to
the games that are equivalent to a single round (continuation probability 0,
or a one-round control game), a game's outcome depends only on its cell: the
matrix and the first-round actions.  The harness counts the games per cell,
solves one recourse query per cell and principal, and folds each outcome into
a report of counts, weighted by the cell's game count.  The fold is a
commutative sum, so the report does not depend on game order.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import repeat
from typing import Any, Iterable, Mapping, Sequence

from .engine import (
    Clause,
    CostModel,
    Pareto,
    PrincipalImprovement,
    RecourseOutcome,
    RecourseQuery,
    SocialWelfare,
    solve,
)
from .errors import InvalidParamsError, ParseError, RecourseError
# The game log lives in ``gamelog``; its names stay this module's own too, so
# ``experiment.parse_game_log`` and the other old paths keep working.
from .gamelog import (  # noqa: F401
    ALLOWED_DELTAS, BETRAY, BOTH_PLAYERS, GROUP_CONTROL, GROUP_TEST, MODE_CUSTOM, MODE_PARETO,
    MODE_PARETO_AND_WELFARE, MODE_SINGLE_AGENT, MODE_SOCIAL_WELFARE, PAPER_MODES, PLAYER1_ONLY,
    SILENT, _LOG_HEADER, _NO_CONTINUATION, GameRecord, _RowText, _checked_tail, _draw_games,
    _row_text, _synthetic_draws, filter_single_round, generate_synthetic_log, parse_game_log,
    parse_game_log_text, synthetic_cells, synthetic_log_text, write_game_log,
)
from .games import PayoffMatrix, builtin_matrix, pd_scm
from .scm import Scm
from .values import Record, checked_flag, decode_json, read_int, read_object

# The clauses each of the paper's recourse modes asks of an action.
MODE_CLAUSES = dict(
    zip(
        PAPER_MODES,
        (
            (PrincipalImprovement(),),  # single_agent
            (SocialWelfare(),),  # social_welfare
            (PrincipalImprovement(), Pareto()),  # pareto
            (PrincipalImprovement(), Pareto(), SocialWelfare()),  # pareto_and_welfare
        ),
        strict=True,
    )
)
MODES = (*MODE_CLAUSES, MODE_CUSTOM)
_PRINCIPALS = {PLAYER1_ONLY: (1,), BOTH_PLAYERS: (1, 2)}


class ExperimentConfig(Record):
    __slots__ = _fields = ("mode", "principal_policy", "exclude_identity", "custom_clauses")

    def __init__(
        self, mode: str = MODE_SINGLE_AGENT, principal_policy: str = PLAYER1_ONLY,
        exclude_identity: bool = True, custom_clauses: tuple[Clause, ...] = (),
    ) -> None:
        self.mode = mode
        self.principal_policy = principal_policy
        self.exclude_identity = checked_flag(
            self, "exclude_identity", exclude_identity, InvalidParamsError
        )
        self.custom_clauses = custom_clauses

    def clauses(self) -> list[Clause]:
        if self.mode == MODE_CUSTOM:
            if not self.custom_clauses:
                raise InvalidParamsError("custom mode needs custom_clauses")
            return list(self.custom_clauses)
        try:
            return list(MODE_CLAUSES[self.mode])
        except (KeyError, TypeError):  # TypeError: an unhashable mode
            raise InvalidParamsError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}"
            ) from None

    def principals(self) -> tuple[int, ...]:
        try:
            return _PRINCIPALS[self.principal_policy]
        except (KeyError, TypeError):
            raise InvalidParamsError(f"unknown principal policy {self.principal_policy!r}") from None


class OutcomeCounts(Record):
    # The reports' columns, in this order.
    __slots__ = _fields = (
        "games", "queries", "recommendations", "principal_improved", "principal_worsened",
        "opponent_improved", "pareto_violated", "welfare_increased", "welfare_decreased",
    )

    def __init__(
        self, games: int = 0, queries: int = 0, recommendations: int = 0,
        principal_improved: int = 0, principal_worsened: int = 0, opponent_improved: int = 0,
        pareto_violated: int = 0, welfare_increased: int = 0, welfare_decreased: int = 0,
    ) -> None:
        self.games = games
        self.queries = queries
        self.recommendations = recommendations
        self.principal_improved = principal_improved
        self.principal_worsened = principal_worsened
        self.opponent_improved = opponent_improved
        self.pareto_violated = pareto_violated
        self.welfare_increased = welfare_increased
        self.welfare_decreased = welfare_decreased

    def tally(self, outcome: RecourseOutcome | None, n: int = 1) -> None:
        """Count n queries that all led to ``outcome`` (None: no recommendation)."""
        self.queries += n
        if outcome is None:
            return
        self.recommendations += n
        self.principal_improved += n * outcome.flags.principal_improved
        self.principal_worsened += n * outcome.principal_worsened
        self.opponent_improved += n * outcome.opponent_improved
        self.pareto_violated += n * outcome.flags.pareto_violated
        self.welfare_increased += n * (outcome.flags.welfare_delta > 0)
        self.welfare_decreased += n * (outcome.flags.welfare_delta < 0)


class ExperimentReport(Record):
    """Counts over all games and per matrix; each defaults to a new empty one."""

    __slots__ = _fields = ("overall", "per_matrix")

    def __init__(
        self, overall: OutcomeCounts | None = None,
        per_matrix: dict[str, OutcomeCounts] | None = None,
    ) -> None:
        self.overall = OutcomeCounts() if overall is None else overall
        self.per_matrix = {} if per_matrix is None else per_matrix

    @property
    def total_games(self) -> int:
        return self.overall.games

    @property
    def total_queries(self) -> int:
        return self.overall.queries

    @property
    def recommendations_made(self) -> int:
        return self.overall.recommendations


# ------------------------------------------------------------------ the runs


def run_experiment(
    games: Sequence[GameRecord],
    config: ExperimentConfig,
    *,
    matrices: Mapping[str, PayoffMatrix] | None = None,
) -> ExperimentReport:
    """Fold every (game, principal) outcome into counts: ``run_cells`` with
    every weight 1, so each record counts as a game.

    The caller filters to single-round-equivalent games first.  Games in one
    cell (matrix, p1 action, p2 action) share their outcome, so each cell is
    solved once per principal.
    """
    return run_cells(zip(games, repeat(1)), config, matrices=matrices)


def run_cells(
    weighted: Iterable[tuple[GameRecord, int]],
    config: ExperimentConfig,
    *,
    matrices: Mapping[str, PayoffMatrix] | None = None,
) -> ExperimentReport:
    """The report of the (game, weight) pairs, each game counted weight times,
    such as ``synthetic_cells`` gives.

    Each game is checked for rounds, its matrix is resolved at its first game,
    and it joins the table ``cell -> [first game id, games]``; every record
    counts, so a game given twice counts twice.  Games, queries and outcomes
    are then counted per cell.  An error in a cell names its first game.
    """
    if matrices and "overall" in matrices:
        raise InvalidParamsError("matrices cannot name a matrix 'overall': reports use it for the totals")
    clauses = config.clauses()
    principals = config.principals()
    scms: dict[str, Scm] = {}
    cells: dict[tuple[str, int, int], list] = {}  # (matrix, p1, p2) -> [first game id, games]
    for game, n in weighted:
        if not game.rounds:
            raise InvalidParamsError(f"game {game.game_id!r} has no rounds")
        if game.matrix_id not in scms:
            matrix = (matrices or {}).get(game.matrix_id) or builtin_matrix(game.matrix_id)
            scms[game.matrix_id] = pd_scm(matrix)
        cell = cells.setdefault((game.matrix_id, *game.rounds[0]), [game.game_id, 0])
        cell[1] += n

    report = ExperimentReport(per_matrix={matrix_id: OutcomeCounts() for matrix_id in scms})
    for (matrix_id, p1, p2), (first_game, n) in cells.items():
        scopes = (report.overall, report.per_matrix[matrix_id])
        for counts in scopes:
            counts.games += n
        for principal in principals:
            query = RecourseQuery(
                scm=scms[matrix_id],
                principal=principal,
                agents={1: "h1", 2: "h2"},
                factual={"x1": Fraction(p1), "x2": Fraction(p2)},
                feasible=[{f"x{principal}": Fraction(a)} for a in (SILENT, BETRAY)],
                constraints=clauses,
                cost=CostModel(),
                exclude_identity=config.exclude_identity,
            )
            try:
                outcome = solve(query)
            except RecourseError as exc:
                raise type(exc)(f"game {first_game!r}: {exc}") from exc
            for counts in scopes:
                counts.tally(outcome, n)
    return report


# ----------------------------------------------------------------- rendering

_COUNT_FIELDS = list(OutcomeCounts._fields)


def _counts_to_dict(counts: OutcomeCounts) -> dict:
    return {name: getattr(counts, name) for name in _COUNT_FIELDS}


_COUNT_SET = frozenset(_COUNT_FIELDS)
_REPORT_FIELDS = frozenset({"overall", "per_matrix"})


def _counts_from_dict(raw: Any, scope: str) -> OutcomeCounts:
    where = f"report JSON counts {scope!r}"
    data = read_object(
        raw, where, allowed=_COUNT_SET, required=_COUNT_SET, expected="objects of integers"
    )
    counts = {name: read_int(data[name], where, name) for name in _COUNT_FIELDS}
    return _consistent(OutcomeCounts(**counts), where)


# Count -> the count it may not exceed: recommendations answer queries, and
# each outcome count counts some of the recommendations.
_COUNT_BOUNDS = {"recommendations": "queries", **dict.fromkeys(_COUNT_FIELDS[3:], "recommendations")}


def _consistent(counts: OutcomeCounts, where: str) -> OutcomeCounts:
    """``counts`` unless one is negative or exceeds its bound; ``where`` names the scope."""
    values = _counts_to_dict(counts)
    for name, value in values.items():
        if value < 0:
            raise ParseError(f"{where} field {name!r} is negative: {value}")
    for name, bound in _COUNT_BOUNDS.items():
        if values[name] > values[bound]:
            raise ParseError(
                f"{where} field {name!r} ({values[name]}) exceeds {bound!r} ({values[bound]})"
            )
    return counts


def render_report(report: ExperimentReport, fmt: str = "table") -> str:
    """Render to 'table', 'csv', or 'json'; csv and json parse back exactly."""
    if fmt == "json":
        payload = {
            "overall": _counts_to_dict(report.overall),
            "per_matrix": {
                mid: _counts_to_dict(c) for mid, c in sorted(report.per_matrix.items())
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        scopes = [("overall", report.overall), *sorted(report.per_matrix.items())]
        rows = [["scope", *_COUNT_FIELDS]]
        rows += [[scope, *(getattr(counts, n) for n in _COUNT_FIELDS)] for scope, counts in scopes]
        return "".join(map(_row_text, rows))
    if fmt == "table":
        labels = {
            "games": "total_games",
            "queries": "total_queries",
            "recommendations": "recommendations_made",
        }
        lines = ["experiment report", "-----------------"]
        for name in _COUNT_FIELDS:
            label = labels.get(name, name)
            lines.append(f"{label + ':':<24}{getattr(report.overall, name)}")
        if report.per_matrix:
            lines.append("")
            lines.append("per matrix")
            for mid in sorted(report.per_matrix):
                counts = report.per_matrix[mid]
                parts = " ".join(f"{n}={getattr(counts, n)}" for n in _COUNT_FIELDS)
                lines.append(f"  {mid}: {parts}")
        return "\n".join(lines) + "\n"
    raise InvalidParamsError(f"unknown report format {fmt!r}; use table, csv, or json")


def report_from_json(text: str) -> ExperimentReport:
    data = decode_json(text, "report JSON")
    data = read_object(data, "report JSON", allowed=_REPORT_FIELDS, required=_REPORT_FIELDS)
    per_matrix = read_object(data["per_matrix"], "report JSON", "per_matrix")
    if "overall" in per_matrix:
        raise ParseError(
            "report JSON field 'per_matrix' cannot name a matrix 'overall': reports use it for the totals"
        )
    return ExperimentReport(
        overall=_counts_from_dict(data["overall"], "overall"),
        per_matrix={mid: _counts_from_dict(c, mid) for mid, c in per_matrix.items()},
    )


def report_from_csv(text: str) -> ExperimentReport:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != ["scope"] + _COUNT_FIELDS:
            raise ParseError(
                f"report CSV must start with the header 'scope,{','.join(_COUNT_FIELDS)}'"
            )
        scopes: dict[str, OutcomeCounts] = {}
        for row in reader:
            if not row:
                continue
            try:
                counts = OutcomeCounts(**dict(zip(_COUNT_FIELDS, map(int, row[1:]), strict=True)))
            except ValueError:
                raise ParseError(
                    f"line {reader.line_num}: expected {len(_COUNT_FIELDS)} integer counts"
                ) from None
            _consistent(counts, f"report CSV counts {row[0]!r} (line {reader.line_num})")
            if row[0] in scopes:
                raise ParseError(
                    f"line {reader.line_num}: report CSV gives scope {row[0]!r} more than once"
                )
            scopes[row[0]] = counts
    except csv.Error as exc:  # text the CSV reader cannot split, such as an oversized field
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if "overall" not in scopes:
        raise ParseError("report CSV has no 'overall' row")
    return ExperimentReport(overall=scopes.pop("overall"), per_matrix=scopes)
