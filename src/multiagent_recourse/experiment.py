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
from itertools import accumulate, permutations, repeat
from math import ceil
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

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
from .values import Record, as_value, checked_flag, decode_json, format_value, read_file, read_int
from .values import read_object

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


# ----------------------------------------------------------------- log files
#
# CSV header: game_id,matrix_id,group,delta,round,p1_action,p2_action
# One row per round; delta is empty for control rows.

_LOG_HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]


def parse_game_log(source: str | Path) -> list[GameRecord]:
    """Read and validate a log file; records keep their first-seen order."""
    path = Path(source)
    text = read_file(path, "log", newline="")
    try:
        return parse_game_log_text(text)
    except ParseError as exc:
        if isinstance(exc.__cause__, csv.Error):  # text the CSV reader cannot split
            raise ParseError(f"{path}: {exc}") from None
        raise


def parse_game_log_text(text: str) -> list[GameRecord]:
    """Read and validate a log; an error names the line of the first bad row.

    Each distinct row tail (the fields after the game id) is checked once per
    call, for its group, delta, round and actions in that order, and what the
    check gives is kept for the call: the game's (matrix, group, delta) head
    as one shared tuple, its delta the element of ALLOWED_DELTAS itself, the
    round number and the action pair.  A row that fails is never kept.  Every
    row is checked for an empty id, a changed head and a repeated round.  A
    game whose rounds arrive out of order, or start past round 1, is sorted
    and checked for gaps after the last row, in first-seen game order.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("log is empty; expected a header line")
        if header != _LOG_HEADER:
            raise ParseError(f"log header must be '{','.join(_LOG_HEADER)}'")
        records: list[GameRecord] = []
        # Game id -> [head, rounds, round -> actions once its rounds come out of order].
        games: dict[str, list] = {}
        tails: dict[tuple[str, ...], tuple] = {}  # row tail -> (head, round, actions)
        heads: dict[tuple, tuple] = {}
        disordered = False
        for row in reader:
            try:
                game_id, matrix_id, group, delta_text, round_text, p1_text, p2_text = row
            except ValueError:
                if not row:
                    continue
                raise ParseError(
                    f"line {reader.line_num}: expected {len(_LOG_HEADER)} fields, got {len(row)}"
                ) from None
            if not game_id:
                raise ParseError(f"line {reader.line_num}: empty game_id")
            tail = (matrix_id, group, delta_text, round_text, p1_text, p2_text)
            checked = tails.get(tail)
            if checked is None:
                checked = tails[tail] = _checked_tail(tail, reader.line_num, heads)
            head, round_no, actions = checked
            game = games.get(game_id)
            if game is None:
                record = GameRecord(game_id, *head, [])
                records.append(record)
                game = games[game_id] = [head, record.rounds, None]
            game_head, rounds, by_round = game
            if game_head is not head:
                raise ParseError(
                    f"line {reader.line_num}: game {game_id!r} changes matrix, group, or delta"
                )
            if by_round is None:
                if round_no == len(rounds) + 1:
                    rounds.append(actions)
                    continue
                by_round = game[2] = dict(enumerate(rounds, 1))
                disordered = True
            if round_no in by_round:
                raise ParseError(
                    f"line {reader.line_num}: duplicate round {round_no} in game {game_id!r}"
                )
            by_round[round_no] = actions
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from exc
    if disordered:
        for game_id, (_, rounds, by_round) in games.items():
            if by_round is not None:
                numbers = sorted(by_round)
                if numbers != list(range(1, len(numbers) + 1)):
                    raise ParseError(f"game {game_id!r} has non-contiguous round numbers")
                rounds[:] = [by_round[n] for n in numbers]
    return records


def _checked_tail(tail: tuple[str, ...], lineno: int, heads: dict[tuple, tuple]) -> tuple:
    """(head, round number, action pair) of a log row whose fields after the
    game id are ``tail``; ``heads`` gives each distinct head one tuple."""
    matrix_id, group, delta_text, round_text, p1_text, p2_text = tail
    if group not in (GROUP_TEST, GROUP_CONTROL):
        raise ParseError(f"line {lineno}: group must be 'test' or 'control'")
    delta: Fraction | None = None
    if group == GROUP_TEST:
        try:
            value = as_value(delta_text)
        except ValueError:
            raise ParseError(f"line {lineno}: test rows need a continuation probability") from None
        if value not in ALLOWED_DELTAS:
            raise ParseError(f"line {lineno}: continuation probability must be 0, 1/2, or 3/4")
        delta = ALLOWED_DELTAS[ALLOWED_DELTAS.index(value)]
    try:
        round_no = int(round_text)
    except ValueError:
        raise ParseError(f"line {lineno}: round must be an integer") from None
    if round_no < 1:
        raise ParseError(f"line {lineno}: round numbers start at 1")
    actions = []
    for label, action_text in (("p1_action", p1_text), ("p2_action", p2_text)):
        try:
            action = int(action_text)
        except ValueError:
            raise DomainError(f"line {lineno}: {label} must be 0 or 1") from None
        if action not in (SILENT, BETRAY):
            raise DomainError(f"line {lineno}: {label} must be 0 or 1")
        actions.append(action)
    head = (matrix_id, group, delta)
    return heads.setdefault(head, head), round_no, tuple(actions)


class _RowText:
    r"""A file for ``csv.writer`` whose ``write`` returns the line it is given,
    so that ``writerow`` returns the row's line.

    The writer quotes a field that holds a line break only when its line
    terminator holds that character, so it ends rows in "\r\n", and this file
    writes "\n" for it: a field that holds a "\r" is quoted and reads back.
    """

    @staticmethod
    def write(line: str) -> str:
        return line[:-2] + "\n"


# The text of one CSV row of the given fields, ended by "\n".
_row_text = csv.writer(_RowText, lineterminator="\r\n").writerow


def write_game_log(records: Iterable[GameRecord]) -> str:
    """Canonical CSV form of a log (the inverse of parse_game_log_text): one
    row per round, each written whole by the CSV writer."""
    lines = [_row_text(_LOG_HEADER)]
    for record in records:
        delta_text = "" if record.delta is None else format_value(record.delta)
        head = [record.game_id, record.matrix_id, record.group, delta_text]
        for round_no, (p1, p2) in enumerate(record.rounds, start=1):
            lines.append(_row_text([*head, round_no, p1, p2]))
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


def _synthetic_draws(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> Iterator[tuple[str, int, int]]:
    """Check a synthetic log's arguments, then draw its games lazily: one
    (matrix id, p1 action, p2 action) per game, in game order."""
    if n_total < 0:
        raise InvalidParamsError("n_total must be nonnegative")
    if not 0 <= n_principal_silent <= n_total:
        raise InvalidParamsError("n_principal_silent must lie between 0 and n_total")
    if not matrix_mix:
        raise InvalidParamsError("matrix_mix must name at least one matrix")
    try:
        entries = sorted(matrix_mix.items())
    except TypeError:
        for a, b in permutations(matrix_mix, 2):
            try:
                a < b  # the comparison that sorted() makes
            except TypeError:
                raise InvalidParamsError(
                    f"matrix_mix ids {a!r} and {b!r} cannot be sorted together"
                ) from None
        raise
    proportions = []
    for mid, p in entries:
        try:
            proportions.append((mid, as_value(p)))
        except ValueError as exc:
            raise InvalidParamsError(f"matrix_mix entry {mid!r}: {exc}") from None
    if any(p < 0 for _, p in proportions):
        raise InvalidParamsError("matrix proportions must be nonnegative")
    if sum(p for _, p in proportions) != 1:
        raise InvalidParamsError("matrix proportions must sum to 1")

    try:
        p1_actions = [BETRAY] * n_total
    except (OverflowError, MemoryError):  # refused before any memory is taken
        raise InvalidParamsError("n_total is too large to draw in memory") from None
    # A roll of random() is k / 2**53 for an integer k, so it lies below the
    # cumulative proportion c exactly when k < ceil(c * 2**53).  That bound
    # is an int of at most 2**53, so over 2**53 it is an exact float, which
    # the roll lies below exactly when k lies below the bound.
    bounds = [ceil(c * 2**53) / 2**53 for c in accumulate(p for _, p in proportions)]
    rng = random.Random(seed)
    for i in rng.sample(range(n_total), n_principal_silent):
        p1_actions[i] = SILENT
    return _draw_games(p1_actions, [mid for mid, _ in proportions], bounds, rng)


def _draw_games(
    p1_actions: list[int], ids: list[str], bounds: list[float], rng: random.Random
) -> Iterator[tuple[str, int, int]]:
    """Each game rolls its matrix, the first whose bound lies above the roll,
    then draws p2 as ``rng.randrange(2)`` does: two bits, again while they
    read 2 or more."""
    roll, bits = rng.random, rng.getrandbits
    for p1 in p1_actions:
        matrix_id = ids[bisect_right(bounds, roll())]
        p2 = bits(2)
        while p2 > 1:
            p2 = bits(2)
        yield matrix_id, p1, p2


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
    return [
        GameRecord("g%05d" % i, matrix_id, GROUP_TEST, _NO_CONTINUATION, [(p1, p2)])
        for i, (matrix_id, p1, p2) in enumerate(
            _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
        )
    ]


def synthetic_log_text(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> str:
    """``write_game_log(generate_synthetic_log(...))`` of the same arguments,
    byte for byte, written from the draws without building the records."""
    draws = _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
    delta_text = format_value(_NO_CONTINUATION)
    lines = [_row_text(_LOG_HEADER)]
    # (matrix id, p1, p2) -> ",...\n".  Ids are distinct keys of the mix,
    # so no two equal ids of other types can share a tail.
    tails: dict[tuple, str] = {}
    for i, cell in enumerate(draws):
        tail = tails.get(cell)
        if tail is None:
            matrix_id, p1, p2 = cell
            # Text after an alphanumeric id, which the CSV writer leaves as it is.
            tail = tails[cell] = _row_text(["g", matrix_id, GROUP_TEST, delta_text, 1, p1, p2])[1:]
        lines.append("g%05d" % i + tail)
    return "".join(lines)


def synthetic_cells(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> list[tuple[GameRecord, int]]:
    """The cells of ``generate_synthetic_log(...)`` of the same arguments,
    counted from the draws without building a record per game: each cell's
    first game, as built there, with the cell's game count, in first-seen
    order.  Arguments are checked and refused as there."""
    draws = list(_synthetic_draws(n_total, n_principal_silent, matrix_mix, seed))
    return [  # cell: (matrix id, p1 action, p2 action)
        (GameRecord("g%05d" % draws.index(cell), cell[0], GROUP_TEST, _NO_CONTINUATION, [cell[1:]]), n)
        for cell, n in Counter(draws).items()
    ]


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
