"""Command line entry point: solve, experiment, generate, graph.

Exit codes: 0 success, 1 error, 2 well-formed "no feasible recommendation".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .engine import (
    SOLVER_BASELINE,
    load_query,
    outcome_to_dict,
    solve,
    solve_cfe_baseline,
)
from .errors import InvalidParamsError, RecourseError
from .experiment import (
    BOTH_PLAYERS,
    MODE_PARETO,
    MODE_PARETO_AND_WELFARE,
    MODE_SINGLE_AGENT,
    MODE_SOCIAL_WELFARE,
    PLAYER1_ONLY,
    ExperimentConfig,
    filter_single_round,
    generate_synthetic_log,
    parse_game_log,
    render_report,
    run_experiment,
    write_game_log,
)
from .games import load_matrix_csv
from .scm import graph_to_dot, load_scm
from .values import as_value

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_RECOMMENDATION = 2

OUT_DIR_ENV = "MULTIAGENT_RECOURSE_OUT_DIR"


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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _parse_synthetic(tokens: list[str]) -> tuple[int, int]:
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key not in ("n", "silent"):
            raise InvalidParamsError(
                f"--synthetic takes n=<total> silent=<count>, got {token!r}"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise InvalidParamsError(f"--synthetic {key} must be an integer") from None
    if set(params) != {"n", "silent"}:
        raise InvalidParamsError("--synthetic needs both n=<total> and silent=<count>")
    return params["n"], params["silent"]


def _parse_matrix_mix(spec: str) -> dict:
    # "table2" or "table2=1/2,table3=1/2"
    if "=" not in spec:
        return {spec: 1}
    mix = {}
    for part in spec.split(","):
        mid, sep, proportion = part.partition("=")
        if not sep or not mid:
            raise InvalidParamsError(f"bad --matrix entry {part!r}")
        try:
            mix[mid] = as_value(proportion)
        except ValueError:
            raise InvalidParamsError(f"bad proportion in --matrix entry {part!r}") from None
    return mix


def _load_matrix_files(pairs: list[str]) -> dict:
    registry = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise InvalidParamsError(f"--matrix-file takes NAME=PATH, got {pair!r}")
        registry[name] = load_matrix_csv(path, matrix_id=name)
    return registry


def _cmd_solve(args) -> int:
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
    if args.log:
        games = parse_game_log(args.log)
    else:
        n_total, n_silent = _parse_synthetic(args.synthetic)
        games = generate_synthetic_log(
            n_total, n_silent, _parse_matrix_mix(args.matrix), args.seed
        )
    kept = filter_single_round(games)
    dropped = len(games) - len(kept)
    print(
        f"note: {dropped} of {len(games)} games filtered out (not single-round-equivalent)",
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
    report = run_experiment(kept, config, matrices=matrices, jobs=args.jobs)
    _emit(render_report(report, args.format), args.output)
    return EXIT_OK


def _cmd_generate(args) -> int:
    n_total, n_silent = _parse_synthetic(args.synthetic)
    games = generate_synthetic_log(
        n_total, n_silent, _parse_matrix_mix(args.matrix), args.seed
    )
    _emit(write_game_log(games), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
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
        choices=[MODE_SINGLE_AGENT, MODE_SOCIAL_WELFARE, MODE_PARETO, MODE_PARETO_AND_WELFARE],
        default=MODE_SINGLE_AGENT,
    )
    p_exp.add_argument("--matrix", default="table1", help="matrix id or id=proportion list")
    p_exp.add_argument(
        "--matrix-file",
        action="append",
        metavar="NAME=PATH",
        help="register a custom matrix CSV under NAME (repeatable)",
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_exp.add_argument("--jobs", type=int, default=1, help="at least 1; does not change the work done")
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
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="write the log here instead of stdout")
    p_gen.set_defaults(func=_cmd_generate)

    p_graph = sub.add_parser("graph", help="export a model's causal graph as DOT")
    p_graph.add_argument("scm_file", help="JSON model file")
    p_graph.add_argument("-o", "--output", help="write the DOT text here instead of stdout")
    p_graph.set_defaults(func=_cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
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
