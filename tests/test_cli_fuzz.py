"""The command line on mutated input files and arguments.

Every run must exit 0, 1 or 2, and an exit 1 must end in exactly one
``error:`` line (after any ``note:`` and ``warning:`` lines) or in argparse's
usage message: never a traceback.  Each case is drawn from a seed: a command
(``solve``, ``graph``, ``experiment --log``, ``experiment --synthetic`` with
a matrix file, or ``generate``), its input file mutated as text or, for a
JSON file, by replacing or dropping one field, and sometimes one argument
replaced, dropped or added.

The tier-1 run draws a few hundred cases; to draw more:

    PYTHONPATH=src:tests python3 -c "import test_cli_fuzz as t; t.fuzz(5000)"
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import multiagent_recourse as mr
from multiagent_recourse.cli import OUT_DIR_ENV, main
from multiagent_recourse.experiment import MODE_CLAUSES

SEEDS = st.integers(min_value=0, max_value=10**9)

MATRIX = mr.matrix_to_csv(
    mr.PayoffMatrix("mine", {(0, 0): ("4", "4"), (0, 1): ("0", "3"), (1, 0): ("3", "0"), (1, 1): ("2", "2")})
)
LOG = mr.write_game_log([
    mr.GameRecord("g1", "table2", "test", F(0), [(0, 1)]),
    mr.GameRecord("g2", "mine", "test", F(0), [(1, 1)]),
    mr.GameRecord("g3", "table1", "test", F(1, 2), [(1, 0), (0, 0)]),
    mr.GameRecord("g4", "mine", "control", None, [(0, 0)]),
    mr.GameRecord("g5", "table3", "control", None, [(1, 0), (1, 1)]),
])
MODEL = {
    "variables": [
        {"name": "u", "kind": "exogenous", "domain": [0, 1, 2]},
        {"name": "m", "kind": "endogenous", "domain": [0, "1/2"]},
        {"name": "y", "kind": "endogenous", "domain": [0, 1]},
    ],
    "equations": [
        {"target": "m", "parents": ["u"],
         "table": [{"in": [0], "out": 0}, {"in": [1], "out": "1/2"}, {"in": [2], "out": "1/2"}]},
        {"target": "y", "parents": ["m"], "table": [{"in": [0], "out": 0}, {"in": ["0.5"], "out": 1}]},
    ],
}
QUERY = {
    "scm": mr.scm_to_dict(mr.pd_scm(mr.builtin_matrix("table1"))),
    "principal": 1,
    "agents": {"1": "h1", "2": "h2"},
    "factual": {"x1": 0, "x2": 1},
    "feasible": [{"x1": 1}, {}],
    "constraints": [{"kind": "principal_improvement", "strict": True}, {"kind": "pareto"}],
    "cost": {"kind": "weighted", "weights": {"x1": "1/2"}},
    "exclude_identity": False,
}

# Pieces that mutations put in: separators, quotes, line ends, signs,
# fractions, exponents, non-ASCII text, a NUL and long digit runs.
TEXT_PIECES = [",", "\n", "\r", "\r\n", '"', "-", "/", ".", "e", "0", "1", "2", "9", "x", " ", "é",
               "\x00", "9" * 5000, "1e99999", "table2", "mine", "test", "control"]
JSON_VALUES = [0, 1, -1, 2, "1/2", "0.5", "x", "", True, False, None, [], {}, [0, 1], [[0]], {"a": 1},
               "1e99999", "9" * 4400, F(3, 2), "exogenous", "endogenous", "h1", "x1"]
ARGS = ["--mode", "pareto", "social_welfare", "--format", "json", "csv", "xml", "--principal", "both",
        "--include-identity", "--seed", "-3", "n=4", "silent=9", "n=-1", "n=" + "9" * 30, "silent=x",
        "--matrix", "mine=1/2,table2=1/2", "mine=2", "overall", "--jobs", "0", "-h", "", "=", "--bogus"]


def mutate_text(rng: random.Random, text: str) -> str:
    """``text`` with up to three edits: none, sometimes, so that runs also succeed."""
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:at] + text[at + rng.randint(1, 8):]
        elif op == 1:
            text = text[:at] + rng.choice(TEXT_PIECES) + text[at:]
        elif op == 2:
            text = text[:at]
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                i = rng.randrange(len(lines))
                if op == 3:
                    lines.insert(rng.randint(0, len(lines)), lines[i])
                else:
                    del lines[i]
            text = "".join(lines)
    return text


def mutate_json(rng: random.Random, document) -> object:
    """``document`` with one node, reached by a random walk, replaced or dropped."""
    root = json.loads(json.dumps(document, default=str))
    parent, key, node = None, None, root
    while isinstance(node, (dict, list)) and node and rng.random() < 0.75:
        parent, key = node, rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        node = parent[key]
    if parent is None:
        return rng.choice(JSON_VALUES)
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = rng.choice(JSON_VALUES)
    if isinstance(parent, dict) and rng.random() < 0.1:
        parent["bogus"] = 1
    return root


def json_text(rng: random.Random, document) -> str:
    """``document`` mutated as text or as JSON, or (sometimes) as it is."""
    if rng.random() < 0.4:
        return mutate_text(rng, json.dumps(document))
    return json.dumps(mutate_json(rng, document), default=str)


def draw_case(rng: random.Random, root: Path) -> list[str]:
    """Write the case's input files under ``root``; return its arguments."""
    command = rng.choice(["solve", "graph", "log", "synthetic", "generate"])
    matrix = root / "m.csv"
    matrix.write_text(mutate_text(rng, MATRIX) if rng.random() < 0.5 else MATRIX, encoding="utf-8")
    if command == "solve":
        (root / "q.json").write_text(json_text(rng, QUERY), encoding="utf-8")
        argv = ["solve", str(root / "q.json")]
    elif command == "graph":
        (root / "model.json").write_text(json_text(rng, MODEL), encoding="utf-8")
        argv = ["graph", str(root / "model.json")]
    elif command == "log":
        (root / "log.csv").write_text(mutate_text(rng, LOG), encoding="utf-8", newline="")
        argv = ["experiment", "--log", str(root / "log.csv"), "--matrix-file", f"mine={matrix}"]
        argv += ["--mode", rng.choice(list(MODE_CLAUSES)), "--principal", rng.choice(["p1", "both"])]
    else:
        n = rng.randint(0, 40)
        argv = [command, "--synthetic", f"n={n}", f"silent={rng.randint(0, n)}"]
        argv += ["--matrix", rng.choice(["mine", "table2", "mine=1/2,table1=1/2"])]
        argv += ["--seed", str(rng.randint(0, 9))]
        if command == "synthetic":
            argv[0] = "experiment"
            argv += ["--matrix-file", f"mine={matrix}", "--format", rng.choice(["table", "csv", "json"])]
    if rng.random() < 0.1:
        argv += ["-o", str(root / "out" / "file.txt")]
    if rng.random() < 0.25:
        at = rng.randrange(1, len(argv) + 1)
        op = rng.randrange(3)
        if op == 0 and at < len(argv):
            argv[at] = rng.choice(ARGS)
        elif op == 1 and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, rng.choice(ARGS))
    return argv


def run_case(seed: int) -> tuple[list[str], int, str]:
    """The case's arguments, exit code and standard error.  A relative ``-o``
    path (an argument replaced after ``-o``) lands in the case's directory."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ, {OUT_DIR_ENV: root}):
        argv = draw_case(rng, Path(root))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return argv, code, err.getvalue()


def check(seed: int) -> None:
    argv, code, err = run_case(seed)
    lines = err.splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 1 and lines and lines[0].startswith("usage: "):
        assert lines[-1].startswith("multiagent-recourse") and ": error: " in lines[-1], (argv, lines)
        return
    rest = [line for line in lines if not line.startswith(("note: ", "warning: "))]
    if code == 1:
        assert len(rest) == 1 and rest[0].startswith("error: "), (argv, lines)
    else:
        assert rest == [], (argv, lines)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_the_cli_exits_cleanly_on_mutated_input(seed):
    check(seed)


def fuzz(n: int) -> None:
    """``n`` more cases of the property above, drawn by Hypothesis."""
    settings(max_examples=n, deadline=None, database=None)(given(SEEDS)(check))()


def test_the_cases_reach_every_exit():
    """The cases drawn above exit 0, 1 (an error line or the usage) and 2."""
    seen = set()
    for seed in range(300):
        _, code, err = run_case(seed)
        seen.add(code if code != 1 else "usage" if err.startswith("usage: ") else "error")
    assert seen == {0, 2, "error", "usage"}
