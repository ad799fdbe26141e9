"""The game-log reader as it was before rows were checked once per distinct
tail: every row checked on its own, every game's rounds kept by number and
sorted after the last row.

It is kept frozen as the reference that ``tests/test_log_reader.py`` compares
``multiagent_recourse.parse_game_log_text`` against: equal records, or the
same error type and message.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from multiagent_recourse import BETRAY, SILENT, DomainError, GameRecord, ParseError, as_value
from multiagent_recourse.gamelog import ALLOWED_DELTAS, GROUP_CONTROL, GROUP_TEST

_LOG_HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]

# Each pair of canonical action texts -> its actions; other texts are read by int().
_ACTION_PAIRS = {(str(a), str(b)): (a, b) for a in (SILENT, BETRAY) for b in (SILENT, BETRAY)}


def parse_game_log_text(text: str) -> list[GameRecord]:
    """Read and validate a log; an error names the line of the first bad row.
    Each distinct delta text is read once: a game's delta is the element of
    ALLOWED_DELTAS itself.  Round numbers are checked for gaps after the last row."""
    # Lines end at "\r\n", "\r" or "\n", as the csv module reads a file opened with newline="".
    reader = csv.reader(io.StringIO(text, newline=""))
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
