"""How the command line reads its arguments.

``cli._plain_args`` reads a plain command line straight from ``cli.COMMANDS``
and leaves anything else to argparse, built from the same table.  The
goldens pin the bytes argparse prints (help, usage errors); the differential
checks that the reader gives argparse's namespace or nothing.

The tier-1 run draws a few hundred command lines; to draw more:

    PYTHONPATH=src:tests python3 -c "import test_cli_args as t; t.fuzz(20000)"
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiagent_recourse import cli
from test_cli_fuzz import draw_case

GOLDEN = Path(__file__).parent / "data" / "cli"

# Golden file name -> (argv, exit code, the stream the file holds; the other stays empty).
PRINTED = {
    "help": (["--help"], 0, "stdout"),
    "help_solve": (["solve", "--help"], 0, "stdout"),
    "help_experiment": (["experiment", "--help"], 0, "stdout"),
    "help_generate": (["generate", "--help"], 0, "stdout"),
    "help_graph": (["graph", "--help"], 0, "stdout"),
    "no_command": ([], 1, "stderr"),
    "no_source": (["experiment", "--matrix", "table2"], 1, "stderr"),
    "bad_mode": (["experiment", "--synthetic", "n=4", "silent=2", "--mode", "custom"], 1, "stderr"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently in other versions")
@pytest.mark.parametrize("name", list(PRINTED))
def test_main_prints_the_golden_help_and_usage(monkeypatch, capsys, name):
    # Captured at an 80-column width, which argparse reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    argv, code, stream = PRINTED[name]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    printed, silent = (captured.out, captured.err) if stream == "stdout" else (captured.err, captured.out)
    assert silent == ""
    assert printed == (GOLDEN / f"{name}.{stream}").read_text()


# Command lines of tests/test_cli.py and of the benchmark (bench/run.py), as
# literals; every one is plain, so none of them loads argparse.
PLAIN = [
    ["solve", "query.json"],
    ["solve", "query.json", "-o", "result.json"],
    ["solve", "q.json", "--output", "out.json"],
    ["graph", "model.json"],
    ["graph", "model.json", "-o", "model.dot"],
    ["experiment", "--synthetic", "n=12", "silent=5", "--matrix", "table2", "--mode", "single_agent",
     "--seed", "7", "--format", "json"],
    ["experiment", "--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "1", "--format", "json",
     "--mode", "social_welfare"],
    ["experiment", "--log", "games.csv", "--format", "json"],
    ["experiment", "--synthetic", "n=6", "silent=6", "--matrix", "table2", "--mode", "pareto", "--seed", "1",
     "--format", "json", "--include-identity"],
    ["experiment", "--synthetic", "n=10", "silent=4", "--matrix", "table3", "--mode", "single_agent", "--seed", "2",
     "--format", "json", "--principal", "both"],
    ["experiment", "--synthetic", "n=20", "silent=8", "--matrix", "table2=1/2,table3=1/2", "--jobs", "3"],
    ["experiment", "--synthetic", "n=4", "silent=2", "--matrix", "table2", "--jobs", "0"],
    ["experiment", "--log", "absent.csv", "--matrix", "table2", "--jobs", "0"],
    ["experiment", "--synthetic", "n=10", "--matrix", "table2"],
    ["experiment", "--synthetic", "n=5", "silent=2", "n=7"],
    ["experiment", "--synthetic", "n=5", "silent=2", "--matrix", ""],
    ["experiment", "--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "401", "--mode", "pareto",
     "--format", "csv", "--principal", "both"],
    ["experiment", "--synthetic", "n=600", "silent=200", "--matrix", "mine=1/4,table1=1/4,table3=1/2",
     "--matrix-file", "mine=mine.csv", "--include-identity", "--seed", "401", "--mode", "pareto_and_welfare",
     "--principal", "p1"],
    ["experiment", "--synthetic", "n=4", "silent=2", "--matrix-file", "mine.csv"],
    ["experiment", "--log", "log.csv", "--matrix-file", "t\r1=m.csv", "--format", "json"],
    ["experiment", "--synthetic", "n=1", "silent=0", "--matrix", "t\udcff", "-o", "out.csv", "--matrix-file",
     "t\udcff=m.csv", "--format", "csv"],
    ["experiment", "--synthetic", "n=4", "silent=2", "--matrix-file", "a=1.csv", "--matrix-file", "b=2.csv"],
    ["generate", "--synthetic", "n=30", "silent=4", "--seed", "401"],
    ["generate", "--synthetic", "n=9", "silent=4", "--matrix", "table1", "--seed", "5", "-o", "log.csv"],
    ["generate", "--synthetic", "n=60", "silent=25", "--matrix", 'say "t"=1/4,t 3=1/4,tableé=1/2', "--seed", "7"],
    ["generate", "--synthetic", "n=5", "quiet=2"],
    # bench/run.py
    ["generate", "--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "951",
     "--output", "generated.csv"],
    ["generate", "--synthetic", "n=30000", "silent=9000", "--matrix", "table1=1/4,table2=1/4,table3=1/2",
     "--seed", "951", "--output", "generated.csv"],
    ["experiment", "--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "951",
     "--mode", "pareto_and_welfare", "--format", "json"],
    ["experiment", "--log", "mixed.csv", "--matrix-file", "custom=custom.csv", "--principal", "both",
     "--jobs", "2", "--mode", "social_welfare", "--format", "json"],
]

# Command lines of tests/test_cli.py that argparse must read: help, usage
# errors, and values that only argparse reads or refuses.
OTHER = [
    [],
    ["--help"],
    ["solve", "--help"],
    ["frobnicate"],
    ["experiment", "--bogus"],
    ["experiment"],
    ["experiment", "--synthetic", "n=4", "silent=2", "--mode", "custom"],
    ["experiment", "--synthetic", "n=4", "silent=2", "--log", "log.csv"],
    ["generate", "--synthetic", "n=30", "silent=4", "--seed", "-1"],
    ["generate", "--synthetic"],
    ["generate", "--matrix", "table2"],
    *(["experiment", "--synthetic", "n=3", "silent=1", flag, value]
      for flag in ("--seed", "--jobs")
      for value in ["1_0", "١٠", "１０", " 10", "10\n", "+10", "1e1", "abc", "9" * 4301]),
    ["solve"],
    ["solve", "a.json", "b.json"],
    ["solve", "q.json", "-o"],
    ["graph", "--output=model.dot", "model.json"],
    ["experiment", "--synth", "n=4", "silent=2"],
    ["experiment", "--synthetic", "n=4", "silent=2", "--", "x"],
]

PARSER = cli.build_parser()


def parsed_by_argparse(argv: list[str]) -> dict | None:
    """``vars()`` of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def check(argv: list[str]) -> None:
    plain = cli._plain_args(argv)
    assert plain is None or plain == parsed_by_argparse(argv), argv


def test_plain_command_lines_read_as_argparse_reads_them():
    for argv in PLAIN:
        assert cli._plain_args(argv) is not None, argv
        check(argv)


def test_other_command_lines_are_left_to_argparse():
    for argv in OTHER:
        assert cli._plain_args(argv) is None, argv
        check(argv)


def test_the_mutated_arguments_of_the_cli_fuzz():
    with tempfile.TemporaryDirectory() as root:
        for seed in range(300):
            check(draw_case(random.Random(seed), Path(root)))


# Values by the kind of option that takes them, and tokens from anywhere: the
# table's commands, spellings and choices, and tokens that are not plain.
NUMBERS = ["0", "7", "401", "1_0", "-1", "9" * 4400]
TEXTS = ["n=4", "silent=2", "n=x", "table2", "mine=1/2,table2=1/2", "q.json", "", "x y"]
ARGUMENTS = [argument for _, arguments, _ in cli.COMMANDS.values() for argument in arguments]
SPELLINGS = sorted({flag for flags, _ in ARGUMENTS for flag in flags if flag.startswith("-")})
CHOICES = sorted({choice for _, keywords in ARGUMENTS for choice in keywords.get("choices", ())})
ODD = ["-h", "--help", "--", "-", "-3", "--form", "--seed=5", "", "=", "-o5", "--bogus", "-x y", "xml"]
TOKENS = st.sampled_from([*cli.COMMANDS, *SPELLINGS, *CHOICES, *ODD, *NUMBERS, *TEXTS])


@st.composite
def command_lines(draw):
    """A command with its positional, its required options, one of its
    exclusive options and some others, in any order, each with values drawn
    for its kind, repeats allowed; sometimes a token inserted or dropped."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, arguments, exclusive = cli.COMMANDS[command]
    needed = [(flags, keywords) for flags, keywords in arguments
              if not flags[0].startswith("-") or keywords.get("required")]
    if exclusive:
        needed.append(draw(st.sampled_from([entry for entry in arguments if cli._dest(entry[0]) in exclusive])))
    chosen = draw(st.permutations(needed + draw(st.lists(st.sampled_from(arguments), max_size=6))))
    argv = [command]
    for flags, keywords in chosen:
        if flags[0].startswith("-"):
            argv.append(draw(st.sampled_from(flags)))
        if keywords.get("action") == "store_true":
            continue
        values = [*keywords["choices"], "custom"] if "choices" in keywords else NUMBERS if "type" in keywords else TEXTS
        argv += draw(st.lists(st.sampled_from(values), min_size=1, max_size=3 if keywords.get("nargs") == "+" else 1))
    if draw(st.booleans()):
        at = draw(st.integers(1, len(argv)))
        if at < len(argv) and draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(TOKENS))
    return argv


ARGVS = st.one_of(command_lines(), st.lists(TOKENS, max_size=10))


@settings(max_examples=300, deadline=None)
@given(ARGVS)
def test_the_reader_gives_argparse_namespace_or_nothing(argv):
    check(argv)


def fuzz(n: int) -> None:
    """``n`` more command lines of the property above, drawn by Hypothesis."""
    settings(max_examples=n, deadline=None, database=None)(given(ARGVS)(check))()
