"""The game-log reader against its frozen row-by-row reference (``log_reference``).

Each case is a log built from a seed, then broken in a few of the ways a log
can be wrong: a row of the wrong length, an empty id, a bad group, delta,
round or action, a game whose head changes, a repeated, missing or late first
round, blank and CRLF lines, quoted fields, a NUL byte, a field over the CSV
reader's limit.  Some breaks reuse a tail another row has already used: the
same bad tail on two lines, or a good tail read once and then met again in a
game that breaks later.  The reader must give equal records, or the same
error type and message.

The tier-1 run draws a few hundred cases; to draw more:

    PYTHONPATH=src:tests python3 -c "import test_log_reader as t; t.fuzz(20000)"
"""

from __future__ import annotations

import csv
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import log_reference
import multiagent_recourse as mr
from multiagent_recourse.experiment import ALLOWED_DELTAS

SEEDS = st.integers(min_value=0, max_value=10**9)

HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]
GAME_IDS = ["g{}", "g,{}", 'g "{}"', "g\n{}", "g\r\n{}", " g{} ", "{}"]
MATRIX_IDS = ["table1", "table2", "my, matrix", 'say "t"', "t\n1", ""]
DELTA_SPELLINGS = {"0": ["0", "0.0", " 0", "-0"], "1/2": ["1/2", "0.5", "2/4"], "3/4": ["3/4", "0.75 "]}
BAD_GROUPS = ["", "Test", "tests", "CONTROL", " test"]
BAD_DELTAS = ["", "x", "1", "0.3", "1/0", "nan", "1e99999", "-1/2", "1" * 5000]
BAD_ROUNDS = ["x", "0", "-1", "1.5", "", " ", "1e3", "٣x"]
# Texts int() reads as 0 or 1 are good actions; the rest are not.
ACTION_TEXTS = ["0", "1", " 1 ", "01", "+0", "2", "-1", "x", "", "1.0", "True"]


def good_rows(rng: random.Random) -> list[list[str]]:
    """A log's rows with every check passing, in game order, interleaved or shuffled."""
    games = []
    for i in range(rng.randint(0, 6)):
        group = rng.choice(["test", "control"])
        delta = rng.choice(list(DELTA_SPELLINGS)) if group == "test" else None
        # Few matrices and actions, so that rows of different games share tails.
        game = [rng.choice(GAME_IDS).format(i), rng.choice(MATRIX_IDS[:3]), group]
        games.append([
            [*game, "" if delta is None else rng.choice(DELTA_SPELLINGS[delta]), str(r),
             rng.choice("01"), rng.choice("01")]
            for r in range(1, rng.randint(1, 4) + 1)
        ])
    order = rng.choice(["games", "interleaved", "shuffled"])
    if order == "games":
        return [row for game in games for row in game]
    if order == "interleaved":  # each game's rounds keep their order
        queues = [list(game) for game in games]
        rows = []
        while any(queues):
            rows.append(rng.choice([q for q in queues if q]).pop(0))
        return rows
    rows = [row for game in games for row in game]
    rng.shuffle(rows)
    return rows


def bad_tail(rng: random.Random, row: list[str]) -> None:
    """Break one field after the game id of ``row``, in place."""
    field = rng.choice(["group", "delta", "round", "action"])
    if field == "group":
        row[2] = rng.choice(BAD_GROUPS)
    elif field == "delta":
        row[2], row[3] = "test", rng.choice(BAD_DELTAS)
    elif field == "round":
        row[4] = rng.choice(BAD_ROUNDS)
    else:
        row[rng.choice([5, 6])] = rng.choice(ACTION_TEXTS)


def break_rows(rng: random.Random, rows: list[list[str]]) -> None:
    """Apply a few breaks to ``rows``, in place."""
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        if not rows:
            return
        i = rng.randrange(len(rows))
        row = rows[i]
        if len(row) != len(HEADER):  # broken already
            continue
        later = rng.randint(i + 1, len(rows))
        kind = rng.choice([
            "fields", "empty id", "tail", "head", "repeat", "gap", "late start",
            "bad tail twice", "good tail then break",
        ])
        if kind == "fields":
            if rng.random() < 0.5:
                row.append(rng.choice(["", "x"]))
            else:
                row.pop()
        elif kind == "empty id":
            row[0] = ""
        elif kind == "tail":
            bad_tail(rng, row)
        elif kind == "head":  # the same game again: another matrix, group or delta, or a respelled delta
            other = list(row)
            j = rng.choice([1, 2, 3])
            other[j] = rng.choice([MATRIX_IDS, ["test", "control"], [*DELTA_SPELLINGS["0"], "1/2", ""]][j - 1])
            other[4] = str(rng.randint(1, 6))
            rows.insert(later, other)
        elif kind == "repeat":  # a round of the game again, maybe with other actions
            other = list(row)
            other[5] = rng.choice("01")
            rows.insert(later, other)
        elif kind == "gap":
            if row[4].isdecimal():
                row[4] = str(int(row[4]) + rng.randint(1, 3))
        elif kind == "late start":
            firsts = [k for k, r in enumerate(rows) if len(r) > 4 and r[4] == "1"]
            if firsts:
                del rows[rng.choice(firsts)]
        elif kind == "bad tail twice":  # the first line that has it is named
            bad_tail(rng, row)
            rows.insert(later, [f"other{i}", *row[1:]])
        else:  # a tail read once, then met in a new game that breaks later
            new_id = f"new{i}"
            rows.insert(later, [new_id, *row[1:]])
            broken = [new_id, *row[1:]]
            if rng.random() < 0.5:
                bad_tail(rng, broken)
            rows.insert(rng.randint(later + 1, len(rows)), broken)


def write_text(rng: random.Random, rows: list[list[str]]) -> str:
    if rng.random() < 0.01:
        return ""
    out = io.StringIO()
    if rng.random() < 0.97:
        out.write(",".join(HEADER) + rng.choice(["\n", "\r\n"]))
    elif rng.random() < 0.5:
        out.write("game_id,matrix_id,group\n")
    for row in rows:
        if rng.random() < 0.1:
            out.write(rng.choice(["\n", "\r\n"]))
        quoting = rng.choice([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
        csv.writer(out, quoting=quoting, lineterminator=rng.choice(["\n", "\r\n"])).writerow(row)
    text = out.getvalue()
    cut = rng.randint(0, len(text))
    odd = rng.random()
    if odd < 0.03:
        text = text[:cut] + "\0" + text[cut:]
    elif odd < 0.04:
        text = text[:cut] + "\n" + "x" * (csv.field_size_limit() + 1) + "\n" + text[cut:]
    elif odd < 0.06:
        text += 'g9,table1,test,0,1,"0,1\n'  # a quote never closed
    return text


def broken_log(seed: int) -> str:
    rng = random.Random(seed)
    rows = good_rows(rng)
    break_rows(rng, rows)
    return write_text(rng, rows)


def read(parse, text: str):
    try:
        records = parse(text)
    except mr.RecourseError as exc:
        return type(exc), str(exc), type(exc.__cause__)
    for record in records:
        assert record.delta is None or any(record.delta is d for d in ALLOWED_DELTAS)
    return records


def check(seed: int) -> None:
    text = broken_log(seed)
    assert read(mr.parse_game_log_text, text) == read(log_reference.parse_game_log_text, text)


@settings(max_examples=400, deadline=None)
@given(SEEDS)
def test_reader_agrees_with_the_frozen_reference(seed):
    check(seed)


def fuzz(n: int) -> None:
    """``n`` more cases of the property above, drawn by Hypothesis."""
    settings(max_examples=n, deadline=None, database=None)(given(SEEDS)(check))()


# A phrase of each error the reader raises.
ERRORS = [
    "log is empty", "log header must be", "expected 7 fields", "empty game_id", "group must be",
    "test rows need a continuation probability", "continuation probability must be",
    "round must be an integer", "round numbers start at 1", "p1_action must be", "p2_action must be",
    "changes matrix, group, or delta", "duplicate round", "non-contiguous round numbers",
    "field larger than field limit",
]


def test_the_breaks_reach_every_check():
    """The cases drawn above raise each of the reader's errors, and read some logs whole."""
    seen = set()
    for seed in range(600):
        outcome = read(log_reference.parse_game_log_text, broken_log(seed))
        if isinstance(outcome, list):
            seen.add("records" if outcome else "no records")
        else:
            seen.update(phrase for phrase in ERRORS if phrase in outcome[1])
    assert seen == {"records", "no records", *ERRORS}
