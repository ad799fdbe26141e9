"""The game log: its records, its CSV file form and the synthetic draws.

A log is a list of two-player game records, one row per round in CSV.  This
module reads, writes, filters and draws logs, and names the experiment's
modes and principal policies, without the model code: the command line
parses its arguments and writes a synthetic log with this module alone.  The
experiment harness (``experiment``) folds what it gives.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, permutations
from math import ceil
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InvalidParamsError, ParseError, RecourseError
from .values import Record, as_value, format_value, quoted, read_file

BETRAY = 1
SILENT = 0

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
# The paper's recourse modes, in the order the CLI lists them.
PAPER_MODES = (MODE_SINGLE_AGENT, MODE_SOCIAL_WELFARE, MODE_PARETO, MODE_PARETO_AND_WELFARE)


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


# ----------------------------------------------------------------- log files
#
# CSV header: game_id,matrix_id,group,delta,round,p1_action,p2_action
# One row per round; delta is empty for control rows.

_LOG_HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]
_LOG_HEADER_LINE = ",".join(_LOG_HEADER)


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

    A text with no quote, CR or NUL is first read line by line
    (``_plain_records``); a text that path declines, every bad log included,
    is read by ``csv.reader``, which reports its errors.
    """
    records = _plain_records(text)
    if records is not None:
        return records
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("log is empty; expected a header line")
        if header != _LOG_HEADER:
            raise ParseError(f"log header must be '{_LOG_HEADER_LINE}'")
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


def _plain_records(text: str) -> list[GameRecord] | None:
    """The records of ``text`` as ``parse_game_log_text`` reads them, from
    lines split at "\n" and fields at ",", or None for a text this cannot
    vouch for: one that holds a quote, CR or NUL, or has a line the CSV loop
    would refuse, skip as blank or sort (a round not one past the game's
    last), or a field it might find over its size limit."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[0] != _LOG_HEADER_LINE:
        return None
    if not lines[-1]:
        del lines[-1]  # the text after the last line end
    limit = csv.field_size_limit()
    records: list[GameRecord] = []
    games: dict[str, tuple] = {}  # game id -> (head, rounds)
    tails: dict[str, tuple] = {}  # row text after the game id -> (head, round, actions)
    heads: dict[tuple, tuple] = {}
    for line in lines[1:]:
        game_id, _, tail = line.partition(",")
        checked = tails.get(tail)
        if checked is None:
            fields = tail.split(",")
            if len(fields) != len(_LOG_HEADER) - 1 or len(tail) > limit:
                return None
            try:
                checked = tails[tail] = _checked_tail(fields, 0, heads)
            except RecourseError:
                return None
        head, round_no, actions = checked
        game = games.get(game_id)
        if game is None:
            if round_no != 1 or not game_id or len(game_id) > limit:
                return None
            record = GameRecord(game_id, *head, [actions])
            records.append(record)
            games[game_id] = head, record.rounds
        elif game[0] is head and round_no == len(game[1]) + 1:
            game[1].append(actions)
        else:
            return None
    return records


def _checked_tail(tail: Sequence[str], lineno: int, heads: dict[tuple, tuple]) -> tuple:
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
                    f"matrix_mix ids {quoted(a)} and {quoted(b)} cannot be sorted together"
                ) from None
        raise
    proportions = []
    for mid, p in entries:
        try:
            proportions.append((mid, as_value(p)))
        except ValueError as exc:
            raise InvalidParamsError(f"matrix_mix entry {quoted(mid)}: {exc}") from None
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
