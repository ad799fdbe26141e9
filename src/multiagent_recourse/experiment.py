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
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
from .values import as_value, format_value

GROUP_TEST = "test"
GROUP_CONTROL = "control"
ALLOWED_DELTAS = (Fraction(0), Fraction(1, 2), Fraction(3, 4))

PLAYER1_ONLY = "player1_only"
BOTH_PLAYERS = "both_players"

MODE_SINGLE_AGENT = "single_agent"
MODE_SOCIAL_WELFARE = "social_welfare"
MODE_PARETO = "pareto"
MODE_PARETO_AND_WELFARE = "pareto_and_welfare"
MODE_CUSTOM = "custom"
MODES = (
    MODE_SINGLE_AGENT,
    MODE_SOCIAL_WELFARE,
    MODE_PARETO,
    MODE_PARETO_AND_WELFARE,
    MODE_CUSTOM,
)


@dataclass
class GameRecord:
    """One logged game: matrix, experimental group, and per-round actions."""

    game_id: str
    matrix_id: str
    group: str
    delta: Fraction | None
    rounds: list[tuple[int, int]]


@dataclass
class ExperimentConfig:
    mode: str = MODE_SINGLE_AGENT
    principal_policy: str = PLAYER1_ONLY
    improvement_strict: bool = True
    welfare_strict: bool = True
    exclude_identity: bool = True
    custom_clauses: tuple[Clause, ...] = ()

    def clauses(self) -> list[Clause]:
        if self.mode == MODE_SINGLE_AGENT:
            return [PrincipalImprovement(self.improvement_strict)]
        if self.mode == MODE_SOCIAL_WELFARE:
            return [SocialWelfare(self.welfare_strict)]
        if self.mode == MODE_PARETO:
            return [PrincipalImprovement(self.improvement_strict), Pareto()]
        if self.mode == MODE_PARETO_AND_WELFARE:
            return [
                PrincipalImprovement(self.improvement_strict),
                Pareto(),
                SocialWelfare(self.welfare_strict),
            ]
        if self.mode == MODE_CUSTOM:
            if not self.custom_clauses:
                raise InvalidParamsError("custom mode needs custom_clauses")
            return list(self.custom_clauses)
        raise InvalidParamsError(
            f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}"
        )

    def principals(self) -> tuple[int, ...]:
        if self.principal_policy == PLAYER1_ONLY:
            return (1,)
        if self.principal_policy == BOTH_PLAYERS:
            return (1, 2)
        raise InvalidParamsError(
            f"unknown principal policy {self.principal_policy!r}"
        )


@dataclass
class OutcomeCounts:
    games: int = 0
    queries: int = 0
    recommendations: int = 0
    principal_improved: int = 0
    principal_worsened: int = 0
    opponent_improved: int = 0
    pareto_violated: int = 0
    welfare_increased: int = 0
    welfare_decreased: int = 0

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


@dataclass
class ExperimentReport:
    overall: OutcomeCounts = field(default_factory=OutcomeCounts)
    per_matrix: dict[str, OutcomeCounts] = field(default_factory=dict)

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
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read log file {path}: {exc}") from exc
    return parse_game_log_text(text)


def parse_game_log_text(text: str) -> list[GameRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("log is empty; expected a header line") from None
    if header != _LOG_HEADER:
        raise ParseError(f"log header must be '{','.join(_LOG_HEADER)}'")
    records: dict[str, GameRecord] = {}
    rounds_seen: dict[str, dict[int, tuple[int, int]]] = {}
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
            try:
                delta = as_value(delta_text)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: test rows need a continuation probability"
                ) from None
            if delta not in ALLOWED_DELTAS:
                raise ParseError(
                    f"line {lineno}: continuation probability must be 0, 1/2, or 3/4"
                )
        try:
            round_no = int(round_text)
        except ValueError:
            raise ParseError(f"line {lineno}: round must be an integer") from None
        if round_no < 1:
            raise ParseError(f"line {lineno}: round numbers start at 1")
        actions = []
        for label, text_value in (("p1_action", p1_text), ("p2_action", p2_text)):
            try:
                action = int(text_value)
            except ValueError:
                raise DomainError(f"line {lineno}: {label} must be 0 or 1") from None
            if action not in (SILENT, BETRAY):
                raise DomainError(f"line {lineno}: {label} must be 0 or 1")
            actions.append(action)
        record = records.get(game_id)
        if record is None:
            records[game_id] = GameRecord(game_id, matrix_id, group, delta, [])
            rounds_seen[game_id] = {}
        else:
            if (record.matrix_id, record.group, record.delta) != (matrix_id, group, delta):
                raise ParseError(
                    f"line {lineno}: game {game_id!r} changes matrix, group, or delta"
                )
        if round_no in rounds_seen[game_id]:
            raise ParseError(f"line {lineno}: duplicate round {round_no} in game {game_id!r}")
        rounds_seen[game_id][round_no] = (actions[0], actions[1])
    for game_id, by_round in rounds_seen.items():
        numbers = sorted(by_round)
        if numbers != list(range(1, len(numbers) + 1)):
            raise ParseError(f"game {game_id!r} has non-contiguous round numbers")
        records[game_id].rounds = [by_round[n] for n in numbers]
    return list(records.values())


def write_game_log(records: Iterable[GameRecord]) -> str:
    """Canonical CSV form of a log (the inverse of parse_game_log_text)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_LOG_HEADER)
    for record in records:
        delta_text = "" if record.delta is None else format_value(record.delta)
        for round_no, (p1, p2) in enumerate(record.rounds, start=1):
            writer.writerow(
                [record.game_id, record.matrix_id, record.group, delta_text, round_no, p1, p2]
            )
    return out.getvalue()


def filter_single_round(games: Sequence[GameRecord]) -> list[GameRecord]:
    """Keep games equivalent to one round: zero continuation probability, or
    one-round control games.  Order is preserved."""
    return [
        g
        for g in games
        if (g.group == GROUP_TEST and g.delta == 0)
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

    rng = random.Random(seed)
    silent_games = set(rng.sample(range(n_total), n_principal_silent))
    records = []
    for i in range(n_total):
        roll = rng.random()
        matrix_id = proportions[-1][0]
        cumulative = Fraction(0)
        for mid, p in proportions:
            cumulative += p
            if roll < cumulative:
                matrix_id = mid
                break
        p1 = SILENT if i in silent_games else BETRAY
        p2 = rng.randrange(2)
        records.append(
            GameRecord(f"g{i:05d}", matrix_id, GROUP_TEST, Fraction(0), [(p1, p2)])
        )
    return records


# ------------------------------------------------------------------ the runs


def run_experiment(
    games: Sequence[GameRecord],
    config: ExperimentConfig,
    *,
    matrices: Mapping[str, PayoffMatrix] | None = None,
    jobs: int = 1,
) -> ExperimentReport:
    """Fold every (game, principal) outcome into counts.

    The caller filters to single-round-equivalent games first.  Games in one
    cell (matrix, p1 action, p2 action) share their outcome, so each cell is
    solved once per principal.  ``jobs`` must be at least 1 and does not
    change the work done; it is kept for compatibility.
    """
    if jobs < 1:
        raise InvalidParamsError("jobs must be at least 1")
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
        matrix_counts = report.per_matrix.setdefault(game.matrix_id, OutcomeCounts())
        if game.game_id not in seen_games:
            seen_games.add(game.game_id)
            report.overall.games += 1
            matrix_counts.games += 1
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

_COUNT_FIELDS = [f.name for f in fields(OutcomeCounts)]


def _counts_to_dict(counts: OutcomeCounts) -> dict:
    return {name: getattr(counts, name) for name in _COUNT_FIELDS}


def _counts_from_dict(data: Mapping) -> OutcomeCounts:
    return OutcomeCounts(**{name: int(data[name]) for name in _COUNT_FIELDS})


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
    try:
        data = json.loads(text)
        return ExperimentReport(
            overall=_counts_from_dict(data["overall"]),
            per_matrix={mid: _counts_from_dict(c) for mid, c in data["per_matrix"].items()},
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"report JSON: line {exc.lineno}: {exc.msg}") from None
    except KeyError as exc:
        raise ParseError(f"report JSON is missing field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError):
        raise ParseError("report JSON counts must be objects of integers") from None


def report_from_csv(text: str) -> ExperimentReport:
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["scope"] + _COUNT_FIELDS:
        raise ParseError(f"report CSV must start with the header 'scope,{','.join(_COUNT_FIELDS)}'")
    report = ExperimentReport()
    for row in reader:
        if not row:
            continue
        try:
            counts = OutcomeCounts(**dict(zip(_COUNT_FIELDS, map(int, row[1:]), strict=True)))
        except ValueError:
            raise ParseError(
                f"line {reader.line_num}: expected {len(_COUNT_FIELDS)} integer counts"
            ) from None
        if row[0] == "overall":
            report.overall = counts
        else:
            report.per_matrix[row[0]] = counts
    return report
