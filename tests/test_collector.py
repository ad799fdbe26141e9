"""The command line's use of the cyclic garbage collector.

``cli.main`` runs each command with the collector paused and gives it back as
it found it, and has ``gc.freeze`` run at exit, registered once per process,
so that the interpreter's shutdown passes skip what is still alive.  Nothing
is frozen while an in-process caller runs, and library calls leave the
collector alone.
"""

import gc
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import multiagent_recourse as mr
from multiagent_recourse import cli, engine, experiment, files, gamelog
from test_cli import (
    EMPTY_DIGEST,
    GENERATE_DIGESTS,
    GOLDEN,
    GOLDEN_CODES,
    MIX_DIGESTS,
    NO_GAMES_ARGS,
    NOTE_DIGESTS,
    PAPER_DIGESTS,
    mix_args,
    paper_args,
)

SRC = str(Path(mr.__file__).resolve().parents[1])
GENERATE = ["generate", "--synthetic", "n=30", "silent=4", "--seed", "3"]


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector switched on or off for the test, and restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [
        (GENERATE, cli.EXIT_OK),
        (["generate", "--synthetic", "n=30"], cli.EXIT_ERROR),
        (["solve", str(GOLDEN / "no_recommendation.json")], cli.EXIT_NO_RECOMMENDATION),
        (["frobnicate"], cli.EXIT_ERROR),
    ],
    ids=["ok", "error", "no-recommendation", "usage"],
)
def test_main_gives_the_collector_back_as_it_found_it(collector, capsys, argv, code):
    assert cli.main(argv) == code
    assert gc.isenabled() is collector


def test_an_escaping_exception_gives_the_collector_back(collector, monkeypatch):
    def fail(args):
        raise RuntimeError("not a RecourseError")

    monkeypatch.setattr(cli, "_cmd_generate", fail)
    with pytest.raises(RuntimeError):
        cli.main(GENERATE)
    assert gc.isenabled() is collector


def test_the_command_runs_with_the_collector_paused(collector, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_generate", lambda args: seen.append(gc.isenabled()) or 0)
    assert cli.main(GENERATE) == 0
    assert seen == [False]


def fresh(tmp_path, script):
    """The stdout of ``script`` run in a fresh interpreter, in ``tmp_path``."""
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    )
    return done.stdout


RUN_GENERATE = f"from multiagent_recourse.cli import main\nmain({[*GENERATE, '-o', 'log.csv']!r})\n"


def test_nothing_is_frozen_while_the_caller_runs(tmp_path):
    script = "import gc\n" + RUN_GENERATE + "print(gc.get_freeze_count())\n"
    assert fresh(tmp_path, script) == "0\n"


def test_what_is_alive_at_exit_is_frozen_once(tmp_path):
    # A handler registered before the first main runs after the freeze; gc.freeze
    # is counted through a wrapper, which main registers as it would gc.freeze.
    script = (
        "import atexit, gc\n"
        "calls = []\n"
        "atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: calls.append(freeze())\n"
        + RUN_GENERATE * 3
    )
    assert fresh(tmp_path, script) == "1 True\n"


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamelog.parse_game_log_text(gamelog.synthetic_log_text(300, 40, {"table1": 1}, 7)),
        lambda: experiment.run_experiment(
            gamelog.parse_game_log_text(gamelog.synthetic_log_text(300, 40, {"table1": 1}, 7)),
            mr.ExperimentConfig(),
        ),
        lambda: gamelog.synthetic_log_text(300, 40, {"table1": 1}, 7),
        lambda: engine.solve(files.load_query(GOLDEN / "structural.json")[0]),
    ],
    ids=["parse_game_log_text", "run_experiment", "synthetic_log_text", "load_query-solve"],
)
def test_library_calls_leave_the_collector_alone(collector, call):
    frozen = gc.get_freeze_count()
    call()
    assert gc.isenabled() is collector
    assert gc.get_freeze_count() == frozen


GARBAGE_SCRIPT = """
import gc, random
import multiagent_recourse as mr
from multiagent_recourse.cli import main
from multiagent_recourse.gamelog import ALLOWED_DELTAS

main(["generate", "--synthetic", "n=600", "silent=200", "--matrix", "table1=1/4,table2=1/4,table3=1/2",
      "--seed", "401", "-o", "small.csv"])
rng = random.Random(5)
records = []
for i in range(6000):
    group = rng.choice(["test", "control"])
    rounds = rng.choice([1, 1, rng.randint(2, 12)])
    records.append(mr.GameRecord(
        f"m{i:06d}", rng.choice(["table1", "table2", "table3"]), group,
        rng.choice(ALLOWED_DELTAS) if group == "test" else None,
        [(rng.randrange(2), rng.randrange(2)) for _ in range(rounds)],
    ))
with open("mixed.csv", "w", newline="") as file:
    file.write(mr.write_game_log(records))
del records
gc.collect()
gc.disable()
for log in ("small", "mixed"):
    code = main(["experiment", "--log", log + ".csv", "--principal", "both", "-o", log + ".txt"])
    print(code, gc.collect())
"""


def test_a_paused_run_leaves_no_more_garbage_for_more_games(tmp_path):
    # The games are freed by their counts, not by the collector: a command's
    # cyclic garbage (the argument parser's, the imports') does not grow with
    # its input, so pausing the collector costs no memory per game.
    small, mixed = fresh(tmp_path, GARBAGE_SCRIPT).splitlines()
    assert small == mixed
    assert small.startswith("0 ")


def parity_cases(directory):
    """(name, argv, exit code, stdout, stderr) of every golden and digest of
    tests/test_cli.py; a SHA-256 digest stands for bytes when it is a str."""
    cases = []
    for name, code in GOLDEN_CODES.items():
        stderr = GOLDEN / f"{name}.stderr"
        cases.append((name, ["solve", str(GOLDEN / f"{name}.json")], code,
                      (GOLDEN / f"{name}.stdout").read_bytes(), stderr.read_bytes() if stderr.exists() else b""))
    experiments = [(key, paper_args(*key), PAPER_DIGESTS[key], NOTE_DIGESTS[3294]) for key in PAPER_DIGESTS]
    experiments += [(key, mix_args(*key, directory), MIX_DIGESTS[key], NOTE_DIGESTS[600]) for key in MIX_DIGESTS]
    experiments.append((("no-games",), NO_GAMES_ARGS, EMPTY_DIGEST, NOTE_DIGESTS[0]))
    cases += [("-".join(key), ["experiment", *argv], 0, out, err) for key, argv, out, err in experiments]
    cases += [(name, ["generate", "--synthetic", *args, "--seed", "401"], 0, digest, b"")
              for name, (args, digest) in GENERATE_DIGESTS.items()]
    return cases


def run_process(argv):
    done = subprocess.run([sys.executable, "-m", "multiagent_recourse.cli", *argv],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def same(data, expected):
    return (hashlib.sha256(data).hexdigest() if isinstance(expected, str) else data) == expected


def test_real_processes_give_the_golden_bytes_to_stdout_and_with_o(tmp_path):
    # Each command as its own process, so that whatever runs at exit (the
    # freeze, the flush of stdout) stands between the output and the test.
    cases = parity_cases(tmp_path)
    runs = []
    for i, (name, argv, code, out, err) in enumerate(cases):
        target = tmp_path / f"out{i}"
        runs += [(name, argv, code, out, err, None), (name, [*argv, "-o", str(target)], code, out, err, target)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_process, [argv for _, argv, *_ in runs]))
    for (name, argv, code, out, err, target), (got_code, got_out, got_err) in zip(runs, results):
        assert got_code == code, name
        assert same(got_err, err), name
        if target is None:
            assert same(got_out, out), name
        else:
            assert got_out == b"", name
            if code == cli.EXIT_ERROR:
                assert not target.exists(), name  # an error writes no file
            else:
                assert same(target.read_bytes(), out), name
