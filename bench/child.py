"""Child processes of the benchmark, one fresh interpreter each.

    child.py setup experiment CUSTOM_CSV   import the CLI, build every game model
    child.py setup solve_wide              import the CLI only
    child.py [--trace OUT] cli ARGS...     run the CLI in-process
    child.py [--trace OUT] solve MANIFEST RESULTS
                                           solve each query file named in MANIFEST

Each command may be preceded by ``--clock OUT``: a metronome (see
metronome.py) ticks from before the import to the end of the work, and its
ticks are written to OUT as JSON.

The package must come from the checkout's own ``src/`` (the benchmark puts it
on PYTHONPATH); any other copy is refused.  With ``--trace`` the tracing
wrappers are installed after the import and a summary of the spans is
written to OUT when the work is done.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from metronome import Metronome

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_package():
    start = time.perf_counter()
    import multiagent_recourse.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import multiagent_recourse as package

    if Path(package.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"multiagent_recourse came from {package.__file__}, not from {SRC}")
    return package, import_s


def _setup(package, args: list[str]) -> None:
    if args[0] == "experiment":
        games = package.games
        for matrix_id in games.BUILTIN_MATRIX_IDS:
            games.pd_scm(games.builtin_matrix(matrix_id))
        games.pd_scm(games.load_matrix_csv(args[1], matrix_id="custom"))


def _solve_all(cli, manifest: str, results_path: str) -> None:
    """The calls ``cli._cmd_solve`` makes, timed per query file.

    Each result keeps the query's start and end on ``time.perf_counter``, so
    the parent can take out the metronome's ticks within it.
    """
    results = []
    for path in Path(manifest).read_text().splitlines():
        start = time.perf_counter()
        try:
            query, solver = cli.load_query(path)
            if solver == cli.SOLVER_BASELINE:
                outcome = cli.solve_cfe_baseline(query)
            else:
                outcome = cli.solve(query)
            result = {"outcome": None if outcome is None else cli.outcome_to_dict(outcome)}
        except cli.RecourseError as exc:
            result = {"error": type(exc).__name__}
        except Exception as exc:  # keep going; the parent counts it as a failure
            result = {"error": f"unexpected {type(exc).__name__}: {exc}"}
        result["start_s"], result["end_s"] = start, time.perf_counter()
        results.append(result)
    Path(results_path).write_text(json.dumps(results))


def main(argv: list[str]) -> int:
    clock = clock_out = None
    if argv[0] == "--clock":
        clock_out, argv = argv[1], argv[2:]
        clock = Metronome()
        clock.start()
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    command, args = argv[0], argv[1:]
    try:
        return _run(command, args, trace_out)
    finally:
        if clock is not None:
            clock.stop()
            Path(clock_out).write_text(json.dumps(clock.ticks))


def _run(command: str, args: list[str], trace_out: str | None) -> int:
    package, import_s = _import_package()
    if command == "setup":
        _setup(package, args)
        return 0
    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(package)
    if command == "cli":
        code = package.cli.main(args)
    elif command == "solve":
        _solve_all(package.cli, *args)
        code = 0
    else:
        raise SystemExit(f"unknown child command {command!r}")
    if tracer is not None:
        start = time.perf_counter()
        summary = tracer.summary()
        summary["import_s"] = import_s
        summary["finish_s"] = time.perf_counter() - start
        Path(trace_out).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
