"""Command line entry point: solve, experiment, generate, graph.

Exit codes: 0 success, 1 error, 2 well-formed "no feasible recommendation".
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import re
import sys
from pathlib import Path

from .errors import InvalidParamsError, OutputError, RecourseError
from .gamelog import BOTH_PLAYERS, MODE_SINGLE_AGENT, PAPER_MODES, PLAYER1_ONLY, synthetic_log_text
from .values import as_value, lazy_names

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_RECOMMENDATION = 2

OUT_DIR_ENV = "MULTIAGENT_RECOURSE_OUT_DIR"

# Each command imports the modules it runs, so parsing the arguments and
# writing a synthetic log load no model code.  bench/child.py reads these names
# of the query path from here; each is bound on first access.
__getattr__ = lazy_names(
    __name__, "engine", ("SOLVER_BASELINE", "load_query", "outcome_to_dict", "solve", "solve_cfe_baseline")
)


class _Parser(argparse.ArgumentParser):
    # Usage problems are ordinary errors (exit 1); exit 2 is reserved for
    # "no feasible recommendation".
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = Path(output)
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    try:
        # Encoded before the file is opened, so that a text UTF-8 cannot encode
        # (a lone surrogate, as from an undecodable argument) leaves no file.
        data = text.encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except (OSError, UnicodeEncodeError) as exc:  # OSError: such as a directory
        reason = getattr(exc, "strerror", None) or exc
        raise OutputError(f"cannot write output file {path}: {reason}") from exc


def _integer(text: str) -> int:
    """An integer argument, written as ``-?[0-9]+``; anything else, or more
    digits than int() reads, is a ValueError.  int() alone would also read
    "_", padding and the digits of other scripts."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


_integer.__name__ = "int"  # as argparse names the type: "invalid int value: ..."


def _parse_synthetic(tokens: list[str]) -> tuple[int, int]:
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key not in ("n", "silent"):
            raise InvalidParamsError(
                f"--synthetic takes n=<total> silent=<count>, got {token!r}"
            )
        if key in params:
            raise InvalidParamsError(f"--synthetic gives {key} more than once")
        try:
            params[key] = _integer(value)
        except ValueError:
            raise InvalidParamsError(f"--synthetic {key} must be an integer") from None
    if set(params) != {"n", "silent"}:
        raise InvalidParamsError("--synthetic needs both n=<total> and silent=<count>")
    return params["n"], params["silent"]


def _parse_matrix_mix(spec: str) -> dict:
    # "table2" or "table2=1/2,table3=1/2"
    if "=" not in spec:
        if not spec:
            raise InvalidParamsError("bad --matrix entry ''")
        return {spec: 1}
    mix = {}
    for part in spec.split(","):
        mid, sep, proportion = part.partition("=")
        if not sep or not mid:
            raise InvalidParamsError(f"bad --matrix entry {part!r}")
        if mid in mix:
            raise InvalidParamsError(f"--matrix gives {mid!r} more than once")
        try:
            mix[mid] = as_value(proportion)
        except ValueError:
            raise InvalidParamsError(f"bad proportion in --matrix entry {part!r}") from None
    return mix


def _synthetic_args(args) -> tuple:
    """The arguments of ``synthetic_cells`` and ``synthetic_log_text``."""
    n_total, n_silent = _parse_synthetic(args.synthetic)
    return n_total, n_silent, _parse_matrix_mix(args.matrix), args.seed


def _load_matrix_files(pairs: list[str]) -> dict:
    from .games import load_matrix_csv

    registry = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise InvalidParamsError(f"--matrix-file takes NAME=PATH, got {pair!r}")
        if name == "overall":
            raise InvalidParamsError(
                "--matrix-file cannot name a matrix 'overall': reports use it for the totals"
            )
        if name in registry:
            raise InvalidParamsError(f"--matrix-file gives {name!r} more than once")
        registry[name] = load_matrix_csv(path, matrix_id=name)
    return registry


def _cmd_solve(args) -> int:
    import json

    # Read through ``engine``, where a tracer wraps them.
    from .engine import SOLVER_BASELINE, load_query, outcome_to_dict, solve, solve_cfe_baseline

    query, solver = load_query(args.query_file)
    outcome = solve_cfe_baseline(query) if solver == SOLVER_BASELINE else solve(query)
    if outcome is None:
        payload = {
            "found": False,
            "reason": "no feasible action satisfies the constraints",
            "candidates": len(query.feasible),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_NO_RECOMMENDATION
    _emit(json.dumps(outcome_to_dict(outcome), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .experiment import (
        ExperimentConfig,
        filter_single_round,
        parse_game_log,
        render_report,
        run_cells,
        run_experiment,
    )
    from .gamelog import synthetic_cells

    if args.jobs < 1:  # --jobs is accepted for old scripts and changes nothing
        raise InvalidParamsError("jobs must be at least 1")
    if args.log:
        games = parse_game_log(args.log)
        source = filter_single_round(games)
        fold, total, kept = run_experiment, len(games), len(source)
    else:  # a synthetic log is all single-round games, counted per cell from its draws
        params = _synthetic_args(args)
        source = synthetic_cells(*params)
        fold, total, kept = run_cells, params[0], params[0]
    print(
        f"note: {total - kept} of {total} games filtered out (not single-round-equivalent)",
        file=sys.stderr,
    )
    if not kept:
        print("warning: no games remain after filtering", file=sys.stderr)
    config = ExperimentConfig(
        mode=args.mode,
        principal_policy=BOTH_PLAYERS if args.principal == "both" else PLAYER1_ONLY,
        exclude_identity=not args.include_identity,
    )
    matrices = _load_matrix_files(args.matrix_file) if args.matrix_file else None
    report = fold(source, config, matrices=matrices)
    _emit(render_report(report, args.format), args.output)
    return EXIT_OK


def _cmd_generate(args) -> int:
    _emit(synthetic_log_text(*_synthetic_args(args)), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
    from .files import graph_to_dot, load_scm

    scm = load_scm(args.scm_file)
    _emit(graph_to_dot(scm.graph()), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multiagent-recourse",
        description="Multi-agent algorithmic recourse over finite structural causal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a recourse query file")
    p_solve.add_argument("query_file", help="JSON query file")
    p_solve.add_argument("-o", "--output", help="write the outcome JSON here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("experiment", help="run a recourse mode over a game log")
    source = p_exp.add_mutually_exclusive_group(required=True)
    source.add_argument("--log", help="game log CSV file")
    source.add_argument(
        "--synthetic",
        nargs="+",
        metavar="KEY=VALUE",
        help="generate a log in memory: n=<total> silent=<count>",
    )
    p_exp.add_argument(
        "--mode",
        choices=list(PAPER_MODES),
        default=MODE_SINGLE_AGENT,
    )
    p_exp.add_argument("--matrix", default="table1", help="matrix id or id=proportion list")
    p_exp.add_argument(
        "--matrix-file",
        action="append",
        metavar="NAME=PATH",
        help="register a custom matrix CSV under NAME (repeatable)",
    )
    p_exp.add_argument("--seed", type=_integer, default=0)
    p_exp.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_exp.add_argument("--jobs", type=_integer, default=1, help="at least 1; does not change the work done")
    p_exp.add_argument("--principal", choices=["p1", "both"], default="p1")
    p_exp.add_argument(
        "--include-identity",
        action="store_true",
        help="let do-nothing actions count as recommendations",
    )
    p_exp.add_argument("-o", "--output", help="write the report here instead of stdout")
    p_exp.set_defaults(func=_cmd_experiment)

    p_gen = sub.add_parser("generate", help="write a synthetic game log CSV")
    p_gen.add_argument(
        "--synthetic",
        nargs="+",
        metavar="KEY=VALUE",
        required=True,
        help="n=<total> silent=<count>",
    )
    p_gen.add_argument("--matrix", default="table1", help="matrix id or id=proportion list")
    p_gen.add_argument("--seed", type=_integer, default=0)
    p_gen.add_argument("-o", "--output", help="write the log here instead of stdout")
    p_gen.set_defaults(func=_cmd_generate)

    p_graph = sub.add_parser("graph", help="export a model's causal graph as DOT")
    p_graph.add_argument("scm_file", help="JSON model file")
    p_graph.add_argument("-o", "--output", help="write the DOT text here instead of stdout")
    p_graph.set_defaults(func=_cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the collector paused, and give it back as found.

    A command's objects live until it returns, most of them until the process
    exits, so a collection while it runs only walks them.  ``gc.freeze`` runs
    at exit, so that the interpreter's shutdown passes skip whatever is still
    alive; nothing is frozen while an in-process caller runs.
    """
    atexit.unregister(gc.freeze)  # registered once, however often main runs
    atexit.register(gc.freeze)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RecourseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
