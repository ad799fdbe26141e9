"""The game log: its records, its CSV file form and the synthetic draws.

A log is a list of two-player game records, one row per round in CSV.  This
module reads every log in one fold, writes, filters and draws logs, and names
the experiment's modes and principal policies, without the model code: the
command line parses its arguments and writes a synthetic log with this
module alone.  The experiment harness (``experiment``) folds what it gives.

A synthetic log is drawn once, as one int cell code per game (its matrix and
its two actions), and its records, its text and its cell counts are each
built from those codes.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, permutations
from math import ceil
from operator import length_hint
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InvalidParamsError, ParseError, ValueRangeError
from .values import (
    MAX_LITERAL_DIGITS, Record, as_value, bom_note, format_value, quoted, read_file, shown_repr,
)

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
        if delta is not None and not isinstance(delta, Fraction):
            raise InvalidParamsError(
                f"GameRecord field 'delta' must be None or a Fraction, got {shown_repr(delta)}"
            )
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

    A text whose lines ``csv.reader`` would split at their commas alone
    (``_plain_lines``) is split at "\n" and each line at its first comma, any
    other by ``csv.reader``; one fold (``_fold``) checks the rows of both.
    """
    lines = _plain_lines(text)
    if lines is not None:
        rows = iter(lines)
        next(rows)  # the header
        return _fold(rows, lambda: len(lines) - length_hint(rows))
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("log is empty; expected a header line")
        if header != _LOG_HEADER:
            raise ParseError(f"log header must be '{_LOG_HEADER_LINE}'{bom_note(text)}")
        return _fold(map(_CsvRow, reader), lambda: reader.line_num)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from exc


def _plain_lines(text: str) -> list[str] | None:
    """The lines of ``text``, header first, if ``csv.reader`` would split each
    at its commas alone: the text holds no quote, CR or NUL, its first line is
    the header, and no line is longer than ``csv.field_size_limit()``.  Else None."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    limit, start = csv.field_size_limit(), 0
    while len(text) - start > limit:  # a line end within the next limit + 1 characters
        start = text.rfind("\n", start, start + limit + 1) + 1
        if not start:
            return None
    lines = text.split("\n")
    if lines[0] != _LOG_HEADER_LINE:
        return None
    if not lines[-1]:
        del lines[-1]  # the text after the last line end
    return lines


class _CsvRow(list):
    """A row of ``csv.reader`` that splits as a plain log line does: into its
    game id and the tuple of its other fields, or into its fields."""

    __slots__ = ()

    def partition(self, sep: str) -> tuple:
        return (self[0] if self else ""), sep, tuple(self[1:])

    def split(self, sep: str) -> list[str]:
        return self


def _fold(rows: Iterator, lineno: Callable[[], int]) -> list[GameRecord]:
    """The records of a log's rows after its header, each a plain line or a
    ``_CsvRow``, split at its first comma into game id and tail.  ``lineno()``,
    the line of the row last taken, is asked for a new tail or an error only:
    a row of a known tail and game costs one split and two lookups."""
    records: list[GameRecord] = []
    # Game id -> (head, rounds) while its rounds come in order from round 1;
    # then (None, rounds), and (head, round -> actions) in ``late``.
    games: dict[str, tuple] = {}
    late: dict[str, tuple] = {}
    tails: dict = {}  # row tail -> (head, round, actions)
    heads: dict[tuple, tuple] = {}
    for row in rows:
        game_id, _, tail = row.partition(",")
        checked = tails.get(tail)
        if checked is None:
            fields = row.split(",")
            if len(fields) != len(_LOG_HEADER):
                if not row:
                    continue  # a blank line
                raise ParseError(
                    f"line {lineno()}: expected {len(_LOG_HEADER)} fields, got {len(fields)}"
                )
            if not game_id:
                raise ParseError(f"line {lineno()}: empty game_id")
            checked = tails[tail] = _checked_tail(fields[1:], lineno(), heads)
        head, round_no, actions = checked
        game = games.get(game_id)
        if game is None:
            if not game_id:
                raise ParseError(f"line {lineno()}: empty game_id")
            record = GameRecord(game_id, *head, [actions] if round_no == 1 else [])
            records.append(record)
            game = games[game_id] = head, record.rounds
            if round_no == 1:
                continue
        if game[0] is head and round_no == len(game[1]) + 1:
            game[1].append(actions)
            continue
        if game[0] is not None:  # its rounds came in order until this row
            late[game_id] = game[0], dict(enumerate(game[1], 1))
            games[game_id] = None, game[1]
        game_head, by_round = late[game_id]
        if game_head is not head:
            raise ParseError(f"line {lineno()}: game {game_id!r} changes matrix, group, or delta")
        if round_no in by_round:
            raise ParseError(f"line {lineno()}: duplicate round {round_no} in game {game_id!r}")
        by_round[round_no] = actions
    if late:  # sorted here, in first-seen game order
        for game_id, (head, rounds) in games.items():
            if head is None:
                by_round = late[game_id][1]  # distinct and >= 1, so gapless iff max == count
                if max(by_round) != len(by_round):
                    raise ParseError(f"game {game_id!r} has non-contiguous round numbers")
                rounds[:] = [by_round[n] for n in range(1, len(by_round) + 1)]
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
        try:
            for round_no, (p1, p2) in enumerate(record.rounds, start=1):
                lines.append(_row_text([*head, round_no, p1, p2]))
        except ValueError:
            _refuse_long_int("game id", record.game_id)
            _refuse_long_int("matrix id", record.matrix_id)
            raise
    return "".join(lines)


def _refuse_long_int(name: str, value: object) -> None:
    """Raise ValueRangeError if ``value`` is an int past the digit limit, which
    the CSV writer cannot turn into text."""
    try:
        str(value)
    except ValueError:
        raise ValueRangeError(
            f"{name} {shown_repr(value)} has more than {MAX_LITERAL_DIGITS} digits"
        ) from None


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
) -> tuple[list, list[int]]:
    """Check a synthetic log's arguments, then draw its games: the mix's
    matrix ids in sorted order, and each game's cell code, in game order.
    A game's code is ``4 * matrix index + 2 * p1 action + p2 action``."""
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
        p1_codes = [2 * BETRAY] * n_total
    except (OverflowError, MemoryError):  # refused before any memory is taken
        raise InvalidParamsError("n_total is too large to draw in memory") from None
    # A roll of random() is k / 2**53 for an integer k, so it lies below the
    # cumulative proportion c exactly when k < ceil(c * 2**53).  That bound
    # is an int of at most 2**53, so over 2**53 it is an exact float, which
    # the roll lies below exactly when k lies below the bound.
    bounds = [ceil(c * 2**53) / 2**53 for c in accumulate(p for _, p in proportions)]
    rng = random.Random(seed)
    for i in rng.sample(range(n_total), n_principal_silent):
        p1_codes[i] = 2 * SILENT
    # Each game rolls its matrix, the first whose bound lies above the roll,
    # then draws p2 as ``rng.randrange(2)`` does: two bits, again while they
    # read 2 or more.
    roll, bits = rng.random, rng.getrandbits
    codes: list[int] = []
    append = codes.append
    for code in p1_codes:
        code += 4 * bisect_right(bounds, roll())
        p2 = bits(2)
        while p2 > 1:
            p2 = bits(2)
        append(code + p2)
    return [mid for mid, _ in proportions], codes


# The (p1, p2) action pair of each value of a cell code's two low bits.
_CODE_ACTIONS = [(p1, p2) for p1 in (SILENT, BETRAY) for p2 in (SILENT, BETRAY)]
# The two digits that end the id of each game in a block of a hundred.
_ID_ENDS = ["%02d" % end for end in range(100)]


def _game_ids(n_total: int) -> list[str]:
    """``"g%05d" % i`` for each i below ``n_total``, rounded up to a whole
    hundred: game 100 h + e is ``"g%03d" % h`` followed by ``"%02d" % e``."""
    return [head + end for head in map("g%03d".__mod__, range(-(-n_total // 100))) for end in _ID_ENDS]


def generate_synthetic_log(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> list[GameRecord]:
    """Deterministic synthetic log of single-round games.

    Exactly n_principal_silent games have player 1 silent; player 2's actions
    and the matrix assignment are drawn from the seeded generator, matrices in
    proportion to matrix_mix.  Each game's record is built from its cell code.
    """
    ids, codes = _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
    return [
        GameRecord(game_id, ids[code >> 2], GROUP_TEST, _NO_CONTINUATION, [_CODE_ACTIONS[code & 3]])
        for game_id, code in zip(_game_ids(n_total), codes)
    ]


def synthetic_log_text(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> str:
    """``write_game_log(generate_synthetic_log(...))`` of the same arguments,
    byte for byte, written from the cell codes without building the records:
    each distinct cell's row tail is written once, in first-drawn order, and
    each line is a game id and its cell's tail."""
    ids, codes = _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
    delta_text = format_value(_NO_CONTINUATION)
    tails = [""] * (4 * len(ids))
    for code in dict.fromkeys(codes):
        matrix_id = ids[code >> 2]
        # Text after an alphanumeric id, which the CSV writer leaves as it is.
        try:
            tails[code] = _row_text(["g", matrix_id, GROUP_TEST, delta_text, 1, *_CODE_ACTIONS[code & 3]])[1:]
        except ValueError:
            _refuse_long_int("matrix id", matrix_id)
            raise
    rows = zip(_game_ids(n_total), map(tails.__getitem__, codes))
    return _row_text(_LOG_HEADER) + "".join(chain.from_iterable(rows))


def synthetic_cells(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> list[tuple[GameRecord, int]]:
    """The cells of ``generate_synthetic_log(...)`` of the same arguments,
    counted from the cell codes without building a record per game: each
    cell's first game, as built there, with the cell's game count, in
    first-drawn order.  Arguments are checked and refused as there."""
    ids, codes = _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
    return [
        (GameRecord("g%05d" % codes.index(code), ids[code >> 2], GROUP_TEST, _NO_CONTINUATION,
                    [_CODE_ACTIONS[code & 3]]), n)
        for code, n in Counter(codes).items()
    ]
