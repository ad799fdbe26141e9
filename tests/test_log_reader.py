"""The game-log reader against its frozen row-by-row reference (``log_reference``).

Each case is a log built from a seed, then broken in a few of the ways a log
can be wrong: a row of the wrong length, an empty id, a bad group, delta,
round or action, a game whose head changes, a repeated, missing or late first
round, blank and CRLF lines, quoted fields, a NUL byte, a field over the CSV
reader's limit.  Some breaks reuse a tail another row has already used: the
same bad tail on two lines, or a good tail read once and then met again in a
game that breaks later.  The reader must give equal records, or the same
error type and message.

A second generator writes plain logs: "\n" line ends only, and ids with no
comma, quote, CR, LF or NUL, so that no field is quoted.  The reader splits
such a log at its line ends and commas itself (``logfile._plain_lines``)
unless a line is over the CSV reader's limit, and its one fold then meets
each break there: some logs put hundreds of good rows before the breaks.

The tier-1 run draws a few hundred cases of each; to draw more:

    PYTHONPATH=src:tests python3 -c "import test_log_reader as t; t.fuzz(20000); t.fuzz(20000, t.check_plain)"
"""

from __future__ import annotations

import csv
import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import log_reference
import multiagent_recourse as mr
from multiagent_recourse import logfile
from multiagent_recourse.gamelog import ALLOWED_DELTAS

SEEDS = st.integers(min_value=0, max_value=10**9)

HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]
HEADER_LINE = ",".join(HEADER) + "\n"
GAME_IDS = ["g{}", "g,{}", 'g "{}"', "g\n{}", "g\r\n{}", " g{} ", "{}"]
MATRIX_IDS = ["table1", "table2", "my, matrix", 'say "t"', "t\n1", ""]
DELTA_SPELLINGS = {"0": ["0", "0.0", " 0", "-0"], "1/2": ["1/2", "0.5", "2/4"], "3/4": ["3/4", "0.75 "]}
BAD_GROUPS = ["", "Test", "tests", "CONTROL", " test"]
BAD_DELTAS = ["", "x", "1", "0.3", "1/0", "nan", "1e99999", "-1/2", "1" * 5000]
BAD_ROUNDS = ["x", "0", "-1", "1.5", "", " ", "1e3", "٣x"]
# Texts int() reads as 0 or 1 are good actions; the rest are not.
ACTION_TEXTS = ["0", "1", " 1 ", "01", "+0", "2", "-1", "x", "", "1.0", "True"]


def good_rows(rng: random.Random, n_games: int | None = None) -> list[list[str]]:
    """A log's rows with every check passing, in game order, interleaved or
    shuffled: ``n_games`` games, or 0 to 6."""
    games = []
    for i in range(rng.randint(0, 6) if n_games is None else n_games):
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


def fuzz(n: int, case=check) -> None:
    """``n`` more cases of a property here (``check`` or ``check_plain``), drawn by Hypothesis."""
    settings(max_examples=n, deadline=None, database=None)(given(SEEDS)(case))()


def plain_log(seed: int) -> str:
    """A log of ``good_rows`` broken by ``break_rows``, sometimes after
    hundreds of good rows, with no character that a CSV writer quotes in its
    ids, written with "\n" line ends and sometimes a blank line, a missing
    last line end, or a field near the CSV reader's limit."""
    rng = random.Random(seed)
    rows = good_rows(rng)
    break_rows(rng, rows)
    if rng.random() < 0.3:  # good games first, whose ids start with "p" as no other does
        rows[:0] = [[f"p{row[0]}", *row[1:]] for row in good_rows(rng, rng.randint(60, 150))]
    for row in rows:
        row[:2] = [re.sub('[,"\r\n\0]', "_", field) for field in row[:2]]
    limit = csv.field_size_limit()
    odd = rng.random()
    if rows and odd < 0.08:  # a long field in every row of one game
        j, long_field = [
            (0, "g" * (limit + 1)),  # an id over the limit
            (0, "g" * limit),  # an id at the limit
            (1, "t" * (limit + 1)),  # a matrix id over the limit
            (1, "t" * (limit - 10)),  # fields under the limit whose tail is over it
        ][int(odd / 0.02)]
        game_id = rng.choice(rows)[0]
        for row in rows:
            if row[0] == game_id:
                row[j] = long_field
    elif odd < 0.1:  # a line of one field over the limit
        rows.insert(rng.randint(0, len(rows)), ["x" * (limit + 1)])
    if rng.random() < 0.01:
        return ""
    out = io.StringIO()
    if rng.random() < 0.97:
        out.write(HEADER_LINE)
    elif rng.random() < 0.5:
        out.write("game_id,matrix_id,group\n")
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        if rng.random() < 0.03:
            out.write("\n")
        writer.writerow(row)
    text = out.getvalue()
    assert not any(c in text for c in '"\r\0')
    return text[:-1] if rng.random() < 0.1 else text


def check_plain(seed: int) -> None:
    text = plain_log(seed)
    assert read(mr.parse_game_log_text, text) == read(log_reference.parse_game_log_text, text)


@settings(max_examples=400, deadline=None)
@given(SEEDS)
def test_reader_agrees_with_the_frozen_reference_on_plain_logs(seed):
    check_plain(seed)


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


def test_the_plain_breaks_reach_every_check():
    """Plain logs raise each error a log without quotes, CR or NUL can, and
    are read whole from their own lines and, with a line over the CSV
    reader's limit, by ``csv.reader``; some break after hundreds of rows."""
    seen = set()
    for seed in range(600):
        text = plain_log(seed)
        outcome = read(log_reference.parse_game_log_text, text)
        assert read(mr.parse_game_log_text, text) == outcome
        if isinstance(outcome, list):
            seen.add("records" if outcome else "no records")
            seen.add("csv path" if logfile._plain_lines(text) is None else "line path")
        else:
            seen.update(phrase for phrase in ERRORS if phrase in outcome[1])
            if int(re.match(r"line (\d+):|", outcome[1]).group(1) or 0) > 200:
                seen.add("late break")
    assert seen == {"records", "no records", "line path", "csv path", "late break", *ERRORS}


def mixed_log(seed: int) -> str:
    """A log shaped like the benchmark's: one-round and repeated games, test
    and control, in game order over four matrices."""
    rng = random.Random(seed)
    records = []
    for i in range(400):
        group = rng.choice(["test", "control"])
        n_rounds = rng.choice([1, 1, rng.randint(2, 12)])
        records.append(mr.GameRecord(
            f"m{i:06d}", rng.choice(["table1", "table2", "table3", "custom"]), group,
            rng.choice(ALLOWED_DELTAS) if group == "test" else None,
            [(rng.randrange(2), rng.randrange(2)) for _ in range(n_rounds)],
        ))
    return mr.write_game_log(records)


def refuse_csv_reader(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(logfile.csv, "reader", refuse)


def test_plain_logs_take_the_line_path(monkeypatch):
    texts = [
        mr.synthetic_log_text(300, 40, {"table1": "1/3", "table2": "2/3"}, 7), mixed_log(7),
        HEADER_LINE + "g1,table1,control,,2,0,1\ng1,table1,control,,1,1,1\n",  # rounds out of order
    ]
    expected = [log_reference.parse_game_log_text(text) for text in texts]
    assert all(expected)
    refuse_csv_reader(monkeypatch)
    assert [mr.parse_game_log_text(text) for text in texts] == expected


# Rows that break a plain log, each put after the 500th line of a good one.
PLAIN_BREAKS = {
    "bad group": "z1,table1,Test,0,1,0,1",
    "bad delta": "z1,table1,test,0.3,1,0,1",
    "bad round": "z1,table1,test,0,x,0,1",
    "bad action": "z1,table1,test,0,1,0,2",
    "wrong length": "z1,table1,test,0,1,0",
    "empty id": ",table1,test,0,1,0,1",
    "changed head": "z1,table1,test,0,1,0,1\nz1,table2,test,0,2,0,1",
    "duplicate round": "z1,table1,control,,1,0,1\nz1,table1,control,,1,1,1",
    "gap": "z1,table1,control,,1,0,1\nz1,table1,control,,3,1,1",
    "blank line": "",
    "out-of-order game": "z1,table1,control,,2,0,1\nz1,table1,control,,1,1,1",
}


@pytest.mark.parametrize("rows", PLAIN_BREAKS.values(), ids=PLAIN_BREAKS)
def test_a_broken_plain_log_is_read_without_csv_reader(monkeypatch, rows):
    lines = mixed_log(7).split("\n")
    text = "\n".join([*lines[:500], rows, *lines[500:]])
    expected = read(log_reference.parse_game_log_text, text)
    refuse_csv_reader(monkeypatch)
    assert read(mr.parse_game_log_text, text) == expected
    assert isinstance(expected, list) or re.match("line 50[12]: |game 'z1' has non-contiguous", expected[1])


@pytest.mark.parametrize("text", [
    HEADER_LINE + '"g1",table1,test,0,1,0,1\n',
    (HEADER_LINE + "g1,table1,test,1/2,1,0,1\ng1,table1,test,1/2,2,1,1\n").replace("\n", "\r\n"),
    HEADER_LINE + "g\r1,table1,test,0,1,0,1\n",
    HEADER_LINE + "g\0,table1,test,0,1,0,1\n",
], ids=["quoted id", "CRLF", "CR in an id", "NUL"])
def test_other_logs_are_read_by_csv_reader(monkeypatch, text):
    expected = read(log_reference.parse_game_log_text, text)
    calls = []

    def reader(*args):
        calls.append(args)
        return csv_reader(*args)

    csv_reader = csv.reader
    monkeypatch.setattr(logfile.csv, "reader", reader)
    assert read(mr.parse_game_log_text, text) == expected
    assert len(calls) == 1


def test_a_plain_text_is_split_here_when_its_lines_fit_the_field_limit():
    """``_plain_lines`` declines a text with no quote, CR or NUL exactly when
    one of its lines is longer than the CSV reader's field limit: lines at
    the limit and one past it, first, last and without a last line end."""
    seen = set()
    old_limit = csv.field_size_limit()
    try:
        for seed in range(300):
            rng = random.Random(seed)
            limit = len(HEADER_LINE) + rng.randint(0, 30)
            csv.field_size_limit(limit)
            lengths = [rng.choice([rng.randint(0, limit), limit, limit + 1 if rng.random() < 0.3 else limit])
                       for _ in range(rng.randint(0, 8))]
            text = HEADER_LINE + "\n".join("x" * n for n in lengths) + rng.choice(["", "\n"])
            fits = max(map(len, text.split("\n"))) <= limit
            assert (logfile._plain_lines(text) is not None) == fits
            seen.add(fits)
    finally:
        csv.field_size_limit(old_limit)
    assert seen == {True, False}
