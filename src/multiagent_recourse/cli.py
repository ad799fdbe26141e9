"""Command line entry point: solve, experiment, generate, graph.

Exit codes: 0 success, 1 error, 2 well-formed "no feasible recommendation".
"""

from __future__ import annotations

import atexit
import gc
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import InvalidParamsError, OutputError, RecourseError
from .gamelog import BOTH_PLAYERS, MODE_SINGLE_AGENT, PAPER_MODES, PLAYER1_ONLY
from .values import _shown, as_value, lazy_names

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_RECOMMENDATION = 2

OUT_DIR_ENV = "MULTIAGENT_RECOURSE_OUT_DIR"

# Each command imports the modules it runs, so parsing the arguments and
# writing a synthetic log load no model code, and only the commands that read
# or write a log file load its CSV form.  bench/child.py reads these names of
# the query path from here; each is bound on first access.
__getattr__ = lazy_names(
    __name__, {"engine": ("SOLVER_BASELINE", "load_query", "outcome_to_dict", "solve", "solve_cfe_baseline")}
)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        _write_stdout(text)
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
        file = path.open("wb")
    except (OSError, UnicodeEncodeError) as exc:  # OSError: such as a directory
        raise _unwritable(path, exc) from exc
    try:
        with file:
            file.write(data)
    except OSError as exc:  # such as a full disk or a file size limit
        try:
            if path.is_file():  # what was written of it; a device such as /dev/null stays
                path.unlink()
        except OSError:
            pass  # the write's own error is the one to report
        raise _unwritable(path, exc) from exc


def _unwritable(path: Path, exc: Exception) -> OutputError:
    reason = getattr(exc, "strerror", None) or exc
    return OutputError(f"cannot write output file {path}: {reason}")


def _write_stdout(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # What the buffer still holds goes to the null device at exit, so the
        # interpreter's own flush finds nothing to report (the recipe of the
        # signal module's documentation for a broken pipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise OutputError(f"cannot write standard output: {exc.strerror or exc}") from exc


def _integer(text: str) -> int:
    """An integer argument, written as ``-?[0-9]+``; anything else is a
    ValueError.  int() alone would also read "_", padding and the digits of
    other scripts.  More digits than int() reads is an ArgumentTypeError that
    quotes only their head, as the library quotes an over-long literal."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(text)
    try:
        return int(text)
    except ValueError:
        raise _argument_type_error()(
            f"{_shown(text)!r} has more than {sys.get_int_max_str_digits()} digits"
        ) from None


_integer.__name__ = "int"  # as argparse names the type: "invalid int value: ..."


def _argument_type_error() -> type:
    # argparse is loaded only once a value is refused: an ``except`` clause
    # evaluates its types only when an exception reaches it.
    import argparse

    return argparse.ArgumentTypeError


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
        except (ValueError, _argument_type_error()):
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

    # Read through ``engine``, where a tracer wraps them; the additive
    # baseline's module loads only for a query that names it.
    from . import engine

    query, solver = engine.load_query(args.query_file)
    outcome = engine.solve_cfe_baseline(query) if solver == engine.SOLVER_BASELINE else engine.solve(query)
    if outcome is None:
        payload = {
            "found": False,
            "reason": "no feasible action satisfies the constraints",
            "candidates": len(query.feasible),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_NO_RECOMMENDATION
    _emit(json.dumps(engine.outcome_to_dict(outcome), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .experiment import ExperimentConfig, render_report, run_cells, run_experiment
    from .gamelog import synthetic_cells

    if args.jobs < 1:  # --jobs is accepted for old scripts and changes nothing
        raise InvalidParamsError("jobs must be at least 1")
    if args.log:
        # Read through ``experiment``, where a tracer wraps them.
        from .experiment import filter_single_round, parse_game_log

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
    from .logfile import synthetic_log_text

    _emit(synthetic_log_text(*_synthetic_args(args)), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
    from .files import graph_to_dot, load_scm

    scm = load_scm(args.scm_file)
    _emit(graph_to_dot(scm.graph()), args.output)
    return EXIT_OK


def _arg(*flags: str, **keywords) -> tuple:
    return flags, keywords


# The commands, each with its help line, its arguments in order as
# add_argument's flags and keywords, and the destinations of its required
# group of exclusive options.  ``build_parser`` gives them to argparse, and
# ``_plain_args`` reads a plain command line from them; ``_cmd_<command>``
# runs each.
COMMANDS = {
    "solve": (
        "solve a recourse query file",
        [
            _arg("query_file", help="JSON query file"),
            _arg("-o", "--output", help="write the outcome JSON here instead of stdout"),
        ],
        (),
    ),
    "experiment": (
        "run a recourse mode over a game log",
        [
            _arg("--log", help="game log CSV file"),
            _arg(
                "--synthetic",
                nargs="+",
                metavar="KEY=VALUE",
                help="generate a log in memory: n=<total> silent=<count>",
            ),
            _arg("--mode", choices=list(PAPER_MODES), default=MODE_SINGLE_AGENT),
            _arg("--matrix", default="table1", help="matrix id or id=proportion list"),
            _arg(
                "--matrix-file",
                action="append",
                metavar="NAME=PATH",
                help="register a custom matrix CSV under NAME (repeatable)",
            ),
            _arg("--seed", type=_integer, default=0),
            _arg("--format", choices=["table", "csv", "json"], default="table"),
            _arg("--jobs", type=_integer, default=1, help="at least 1; does not change the work done"),
            _arg("--principal", choices=["p1", "both"], default="p1"),
            _arg(
                "--include-identity",
                action="store_true",
                help="let do-nothing actions count as recommendations",
            ),
            _arg("-o", "--output", help="write the report here instead of stdout"),
        ],
        ("log", "synthetic"),
    ),
    "generate": (
        "write a synthetic game log CSV",
        [
            _arg(
                "--synthetic",
                nargs="+",
                metavar="KEY=VALUE",
                required=True,
                help="n=<total> silent=<count>",
            ),
            _arg("--matrix", default="table1", help="matrix id or id=proportion list"),
            _arg("--seed", type=_integer, default=0),
            _arg("-o", "--output", help="write the log here instead of stdout"),
        ],
        (),
    ),
    "graph": (
        "export a model's causal graph as DOT",
        [
            _arg("scm_file", help="JSON model file"),
            _arg("-o", "--output", help="write the DOT text here instead of stdout"),
        ],
        (),
    ),
}


def _dest(flags: tuple) -> str:
    # The attribute argparse gives an argument: a positional's name, or an
    # option's long flag (each option's last) with its dashes made underscores.
    return flags[-1].lstrip("-").replace("-", "_")


def _runner(command: str):
    # Looked up when the arguments are read, so that a replaced function runs.
    return globals()[f"_cmd_{command}"]


def build_parser():
    """argparse's parser of ``COMMANDS``: it prints the help and the usage
    errors, and reads every command line that ``_plain_args`` leaves."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Usage problems are ordinary errors (exit 1); exit 2 is reserved for
        # "no feasible recommendation".
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="multiagent-recourse",
        description="Multi-agent algorithmic recourse over finite structural causal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments, exclusive) in COMMANDS.items():
        p_command = sub.add_parser(command, help=help_line)
        group = p_command.add_mutually_exclusive_group(required=True) if exclusive else None
        for flags, keywords in arguments:
            (group if _dest(flags) in exclusive else p_command).add_argument(*flags, **keywords)
        p_command.set_defaults(func=_runner(command))
    return parser


def _plain_args(argv: list[str]) -> dict | None:
    """``vars()`` of the namespace argparse gives ``argv`` when the command
    line is plain, read from ``COMMANDS`` without argparse; else None.

    Plain is: a command, then its options, each spelled in full and, but for
    a switch, followed by a value that does not start with "-" (with
    ``nargs="+"``, every token up to the next one that does), and the
    command's positional, if it has one; each value of its option's type and
    among its choices, each required option given, and exactly one of the
    exclusive group.  Anything else (help, an abbreviation, ``--opt=value``,
    ``--``, a negative number, any usage error) is None, left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    _, arguments, exclusive = COMMANDS[command]
    values = {"command": command, "func": _runner(command)}
    options, names = {}, []
    for flags, keywords in arguments:
        dest = _dest(flags)
        values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (dest, keywords)))
        else:
            names.append(dest)
    given, positionals = set(), []
    at = 1
    while at < len(argv):
        token = argv[at]
        at += 1
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in options:
            return None
        dest, keywords = options[token]
        given.add(dest)
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        end = at
        while end < len(argv) and not argv[end].startswith("-"):
            end += 1
        if end == at:
            return None
        if keywords.get("nargs") != "+":
            end = at + 1
        read, at = argv[at:end], end
        if "type" in keywords:
            try:
                read = [keywords["type"](value) for value in read]
            except (TypeError, ValueError, _argument_type_error()):  # what argparse reports
                return None
        if "choices" in keywords and not all(value in keywords["choices"] for value in read):
            return None
        if keywords.get("nargs") == "+":
            values[dest] = read
        elif keywords.get("action") == "append":
            values[dest] = [*(values[dest] or ()), *read]
        else:
            values[dest] = read[0]
    required = {_dest(flags) for flags, keywords in arguments if keywords.get("required")}
    if len(positionals) != len(names) or not required <= given:
        return None
    if exclusive and len(given.intersection(exclusive)) != 1:
        return None
    values.update(zip(names, positionals))
    return values


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
    if argv is None:
        argv = sys.argv[1:]
    plain = _plain_args(argv)
    if plain is not None:
        args = SimpleNamespace(**plain)
    else:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except RecourseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
