"""Batch harness: game logs in, per-mode recourse count tables out.

A log is a list of two-player game records.  After filtering to the games
that are equivalent to a single round (continuation probability 0, or a
one-round control game), a game's outcome depends only on its cell: the
matrix and the first-round actions.  The harness counts the games per cell,
solves one recourse query per cell and principal, and folds each outcome into
a report of counts, weighted by the cell's game count.  The fold is a
commutative sum, so the report does not depend on game order.
"""

from __future__ import annotations

import csv
import io
import json
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import ceil
from pathlib import Path
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
from .errors import DomainError, InvalidParamsError, ParseError, RecourseError
from .games import BETRAY, SILENT, PayoffMatrix, builtin_matrix, pd_scm
from .scm import Scm
from .values import Record, as_value, decode_json, format_value, read_file, read_int, read_object

GROUP_TEST = "test"
GROUP_CONTROL = "control"
ALLOWED_DELTAS = (Fraction(0), Fraction(1, 2), Fraction(3, 4))
# The delta of a game equivalent to one round.  Logs read and generated here
# hold this object itself, so a check for it is an identity test.
_NO_CONTINUATION = ALLOWED_DELTAS[0]

PLAYER1_ONLY = "player1_only"
BOTH_PLAYERS = "both_players"

MODE_SINGLE_AGENT = "single_agent"
MODE_SOCIAL_WELFARE = "social_welfare"
MODE_PARETO = "pareto"
MODE_PARETO_AND_WELFARE = "pareto_and_welfare"
MODE_CUSTOM = "custom"
# The paper's recourse modes and the clauses each one asks of an action.
MODE_CLAUSES = {
    MODE_SINGLE_AGENT: (PrincipalImprovement(),),
    MODE_SOCIAL_WELFARE: (SocialWelfare(),),
    MODE_PARETO: (PrincipalImprovement(), Pareto()),
    MODE_PARETO_AND_WELFARE: (PrincipalImprovement(), Pareto(), SocialWelfare()),
}
MODES = (*MODE_CLAUSES, MODE_CUSTOM)
_PRINCIPALS = {PLAYER1_ONLY: (1,), BOTH_PLAYERS: (1, 2)}


class GameRecord(Record):
    """One logged game: matrix, experimental group, and per-round actions."""

    __slots__ = _fields = ("game_id", "matrix_id", "group", "delta", "rounds")

    def __init__(
        self, game_id: str, matrix_id: str, group: str, delta: Fraction | None,
        rounds: list[tuple[int, int]],
    ) -> None:
        self.game_id = game_id
        self.matrix_id = matrix_id
        self.group = group
        self.delta = delta
        self.rounds = rounds


class ExperimentConfig(Record):
    __slots__ = _fields = ("mode", "principal_policy", "exclude_identity", "custom_clauses")

    def __init__(
        self, mode: str = MODE_SINGLE_AGENT, principal_policy: str = PLAYER1_ONLY,
        exclude_identity: bool = True, custom_clauses: tuple[Clause, ...] = (),
    ) -> None:
        self.mode = mode
        self.principal_policy = principal_policy
        self.exclude_identity = exclude_identity
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


# ----------------------------------------------------------------- log files
#
# CSV header: game_id,matrix_id,group,delta,round,p1_action,p2_action
# One row per round; delta is empty for control rows.

_LOG_HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]


def parse_game_log(source: str | Path) -> list[GameRecord]:
    """Read and validate a log file; records keep their first-seen order."""
    path = Path(source)
    text = read_file(path, "log")
    try:
        return parse_game_log_text(text)
    except ParseError as exc:
        if isinstance(exc.__cause__, csv.Error):  # text the CSV reader cannot split
            raise ParseError(f"{path}: {exc}") from None
        raise


# Each pair of canonical action texts -> its actions; other texts are read by int().
_ACTION_PAIRS = {(str(a), str(b)): (a, b) for a in (SILENT, BETRAY) for b in (SILENT, BETRAY)}


def parse_game_log_text(text: str) -> list[GameRecord]:
    """Read and validate a log; an error names the line of the first bad row.
    Each distinct delta text is read once: a game's delta is the element of
    ALLOWED_DELTAS itself.  Round numbers are checked for gaps after the last row."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("log is empty; expected a header line")
        if header != _LOG_HEADER:
            raise ParseError(f"log header must be '{','.join(_LOG_HEADER)}'")
        games: dict[str, tuple[GameRecord, dict[int, tuple[int, int]]]] = {}
        deltas: dict[str, Fraction] = {}
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(_LOG_HEADER):
                raise ParseError(
                    f"line {lineno}: expected {len(_LOG_HEADER)} fields, got {len(row)}"
                )
            game_id, matrix_id, group, delta_text, round_text, p1_text, p2_text = row
            if not game_id:
                raise ParseError(f"line {lineno}: empty game_id")
            if group not in (GROUP_TEST, GROUP_CONTROL):
                raise ParseError(f"line {lineno}: group must be 'test' or 'control'")
            delta: Fraction | None = None
            if group == GROUP_TEST:
                delta = deltas.get(delta_text)
                if delta is None:
                    try:
                        value = as_value(delta_text)
                    except ValueError:
                        raise ParseError(
                            f"line {lineno}: test rows need a continuation probability"
                        ) from None
                    if value not in ALLOWED_DELTAS:
                        raise ParseError(
                            f"line {lineno}: continuation probability must be 0, 1/2, or 3/4"
                        )
                    delta = deltas[delta_text] = ALLOWED_DELTAS[ALLOWED_DELTAS.index(value)]
            try:
                round_no = int(round_text)
            except ValueError:
                raise ParseError(f"line {lineno}: round must be an integer") from None
            if round_no < 1:
                raise ParseError(f"line {lineno}: round numbers start at 1")
            actions = _ACTION_PAIRS.get((p1_text, p2_text))
            if actions is None:
                for label, text_value in (("p1_action", p1_text), ("p2_action", p2_text)):
                    try:
                        action = int(text_value)
                    except ValueError:
                        raise DomainError(f"line {lineno}: {label} must be 0 or 1") from None
                    if action not in (SILENT, BETRAY):
                        raise DomainError(f"line {lineno}: {label} must be 0 or 1")
                actions = (int(p1_text), int(p2_text))
            game = games.get(game_id)
            if game is None:
                record, by_round = games[game_id] = (GameRecord(game_id, matrix_id, group, delta, []), {})
            else:
                record, by_round = game
                if (record.matrix_id, record.group, record.delta) != (matrix_id, group, delta):
                    raise ParseError(
                        f"line {lineno}: game {game_id!r} changes matrix, group, or delta"
                    )
            if round_no in by_round:
                raise ParseError(f"line {lineno}: duplicate round {round_no} in game {game_id!r}")
            by_round[round_no] = actions
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from exc
    for record, by_round in games.values():
        numbers = sorted(by_round)
        if numbers != list(range(1, len(numbers) + 1)):
            raise ParseError(f"game {record.game_id!r} has non-contiguous round numbers")
        record.rounds = [by_round[n] for n in numbers]
    return [record for record, _ in games.values()]


class _RowText:
    """A file for ``csv.writer`` whose ``write`` returns the text it is given,
    so that ``writerow`` returns the row's line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def write_game_log(records: Iterable[GameRecord]) -> str:
    """Canonical CSV form of a log (the inverse of parse_game_log_text).

    Rows that differ only in their game id share the text after it, so each
    distinct tail goes through the CSV writer once and each delta object is
    formatted once.  A game id that is not alphanumeric, or a field of another
    type than the parser gives, sends the row through the writer whole.
    """
    row_text = csv.writer(_RowText, lineterminator="\n").writerow
    lines = [row_text(_LOG_HEADER)]
    tails: dict[tuple, str] = {}  # (matrix, group, delta text, round, p1, p2) -> ",...\n"
    delta, delta_text = None, ""
    for record in records:
        game_id, matrix_id, group = record.game_id, record.matrix_id, record.group
        if record.delta is not delta:
            delta = record.delta
            delta_text = "" if delta is None else format_value(delta)
        # Equal keys must write equal text: 1 == True, so only exact types share a tail.
        plain = (
            type(game_id) is str and game_id.isalnum()
            and type(matrix_id) is str and type(group) is str
        )
        for round_no, (p1, p2) in enumerate(record.rounds, start=1):
            if not (plain and type(p1) is int and type(p2) is int):
                lines.append(row_text([game_id, matrix_id, group, delta_text, round_no, p1, p2]))
                continue
            key = (matrix_id, group, delta_text, round_no, p1, p2)
            tail = tails.get(key)
            if tail is None:  # an alphanumeric id is written as it is
                tail = tails[key] = row_text([game_id, *key])[len(game_id):]
            lines.append(game_id + tail)
    return "".join(lines)


def filter_single_round(games: Sequence[GameRecord]) -> list[GameRecord]:
    """Keep games equivalent to one round: zero continuation probability, or
    one-round control games.  Order is preserved."""
    return [
        g
        for g in games
        if (g.group == GROUP_TEST and (g.delta is _NO_CONTINUATION or g.delta == 0))
        or (g.group == GROUP_CONTROL and len(g.rounds) == 1)
    ]


def generate_synthetic_log(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> list[GameRecord]:
    """Deterministic synthetic log of single-round games.

    Exactly n_principal_silent games have player 1 silent; player 2's actions
    and the matrix assignment are drawn from the seeded generator, matrices in
    proportion to matrix_mix.
    """
    if n_total < 0:
        raise InvalidParamsError("n_total must be nonnegative")
    if not 0 <= n_principal_silent <= n_total:
        raise InvalidParamsError("n_principal_silent must lie between 0 and n_total")
    if not matrix_mix:
        raise InvalidParamsError("matrix_mix must name at least one matrix")
    proportions = [(mid, as_value(p)) for mid, p in sorted(matrix_mix.items())]
    if any(p < 0 for _, p in proportions):
        raise InvalidParamsError("matrix proportions must be nonnegative")
    if sum(p for _, p in proportions) != 1:
        raise InvalidParamsError("matrix proportions must sum to 1")

    # A roll of random() is k / 2**53 for an integer k, so it lies below the
    # cumulative proportion c exactly when k < ceil(c * 2**53).  A roll picks
    # the first matrix whose bound lies above k.
    ids = [mid for mid, _ in proportions]
    bounds = [ceil(c * 2**53) for c in accumulate(p for _, p in proportions)]
    rng = random.Random(seed)
    p1_actions = [BETRAY] * n_total
    for i in rng.sample(range(n_total), n_principal_silent):
        p1_actions[i] = SILENT
    roll, coin = rng.random, rng.randrange
    # Arguments are evaluated left to right: each game rolls its matrix, then p2.
    records = [
        GameRecord(
            "g%05d" % i, ids[bisect_right(bounds, int(roll() * 2**53))], GROUP_TEST,
            _NO_CONTINUATION, [(p1, coin(2))],
        )
        for i, p1 in enumerate(p1_actions)
    ]
    return records


# ------------------------------------------------------------------ the runs


def run_experiment(
    games: Sequence[GameRecord],
    config: ExperimentConfig,
    *,
    matrices: Mapping[str, PayoffMatrix] | None = None,
) -> ExperimentReport:
    """Fold every (game, principal) outcome into counts.

    The caller filters to single-round-equivalent games first.  Games in one
    cell (matrix, p1 action, p2 action) share their outcome, so each cell is
    solved once per principal.
    """
    if matrices and "overall" in matrices:
        raise InvalidParamsError("matrices cannot name a matrix 'overall': reports use it for the totals")
    clauses = config.clauses()
    principals = config.principals()
    scms: dict[str, Scm] = {}
    cells: Counter[tuple[str, int, int]] = Counter()
    first_game: dict[tuple[str, int, int], str] = {}
    report = ExperimentReport()
    seen_games: set[str] = set()
    for game in games:
        if not game.rounds:
            raise InvalidParamsError(f"game {game.game_id!r} has no rounds")
        if game.matrix_id not in scms:
            matrix = (matrices or {}).get(game.matrix_id) or builtin_matrix(game.matrix_id)
            scms[game.matrix_id] = pd_scm(matrix)
            report.per_matrix[game.matrix_id] = OutcomeCounts()
        if game.game_id not in seen_games:
            seen_games.add(game.game_id)
            report.overall.games += 1
            report.per_matrix[game.matrix_id].games += 1
        cell = (game.matrix_id, *game.rounds[0])
        cells[cell] += 1
        first_game.setdefault(cell, game.game_id)

    for cell, n in cells.items():
        matrix_id, p1, p2 = cell
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
                raise type(exc)(f"game {first_game[cell]!r}: {exc}") from exc
            report.overall.tally(outcome, n)
            report.per_matrix[matrix_id].tally(outcome, n)
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["scope"] + _COUNT_FIELDS)
        writer.writerow(["overall"] + [getattr(report.overall, n) for n in _COUNT_FIELDS])
        for mid in sorted(report.per_matrix):
            counts = report.per_matrix[mid]
            writer.writerow([mid] + [getattr(counts, n) for n in _COUNT_FIELDS])
        return out.getvalue()
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
    return ExperimentReport(
        overall=_counts_from_dict(data["overall"], "overall"),
        per_matrix={mid: _counts_from_dict(c, mid) for mid, c in per_matrix.items()},
    )


def report_from_csv(text: str) -> ExperimentReport:
    reader = csv.reader(io.StringIO(text))
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
