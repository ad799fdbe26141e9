"""The package's public names, which it imports from their modules on first use."""

import importlib
import pickle
import sys
import types
from fractions import Fraction as F

import pytest

import multiagent_recourse as mr

# Every name the package exports, by the module that defines it.
EXPORTED = {
    "errors": """AsymmetricMatrixError CycleError DomainError DuplicateEquationError
        IncompleteTableError InvalidParamsError InvalidQueryError MissingExogenousError
        NonInvertibleError OutputError ParseError RecourseError ScmError ScmValidationError
        UnknownMatrixError ValueRangeError""",
    "values": "Value as_value format_value value_to_json",
    "scm": "ENDOGENOUS EXOGENOUS Assignment CausalGraph Scm StructuralEquation VariableDecl",
    "engine": """AgentDelta AgentId AllowList Clause CostModel FeasibleRow OutcomeFlags Pareto
        Plausible PrincipalImprovement RecourseOutcome RecourseQuery SocialWelfare Threshold
        classify clause_label enumerate_feasible solve""",
    "baseline": "solve_cfe_baseline",
    "files": """graph_to_dot load_query load_scm outcome_to_dict query_from_dict report_from_csv
        report_from_json rows_to_json scm_from_dict scm_to_dict""",
    "games": """ACTIONS BUILTIN_MATRIX_IDS PayoffMatrix builtin_matrix is_pd_ordered load_matrix_csv
        matrix_to_csv pd_scm""",
    "gamelog": """BETRAY BOTH_PLAYERS MODE_CUSTOM MODE_PARETO MODE_PARETO_AND_WELFARE
        MODE_SINGLE_AGENT MODE_SOCIAL_WELFARE PLAYER1_ONLY SILENT GameRecord filter_single_round
        generate_synthetic_log synthetic_cells""",
    "logfile": "parse_game_log parse_game_log_text synthetic_log_text write_game_log",
    "experiment": """ExperimentConfig ExperimentReport OutcomeCounts render_report run_cells
        run_experiment""",
}
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}
MODULES = {*EXPORTED, "cli"}


def test_each_name_is_its_modules_attribute():
    assert NAMES.keys() | MODULES == set(mr.__all__)
    for name, module in NAMES.items():
        home = importlib.import_module(f"multiagent_recourse.{module}")
        assert getattr(mr, name) is getattr(home, name), name
    assert mr.__version__ == "0.1.0"


# The names a module still serves for the module they moved to, by that module.
# Each has a reader at this path outside the package: the benchmark's tracer
# wraps the binding (bench/tracing.py), bench/child.py reads cli's, and a
# GameRecord pickled before the move names experiment.
SERVED = {
    "scm": {"scm_from_dict": "files"},
    "engine": {
        **dict.fromkeys(["SOLVER_BASELINE", "load_query", "outcome_to_dict"], "files"),
        "solve_cfe_baseline": "baseline",
    },
    "experiment": {
        **dict.fromkeys(["GameRecord", "filter_single_round", "generate_synthetic_log"], "gamelog"),
        **dict.fromkeys(["parse_game_log", "write_game_log"], "logfile"),
    },
    "cli": {
        **dict.fromkeys(["SOLVER_BASELINE", "load_query", "outcome_to_dict"], "files"),
        **dict.fromkeys(["solve", "solve_cfe_baseline"], "engine"),
    },
}
# The names these modules served for ``files``, ``gamelog``, ``logfile`` and
# ``baseline`` before, and no longer do.  The game-log names ``experiment``'s own
# code uses (``BETRAY``, ``PAPER_MODES`` ...) are still bound there, as any
# module's imports are.
DROPPED = {
    "values": """_json_int decode_json load_json_exact _place _reject read_object _reader read_list
        read_str read_bool read_int read_value read_values read_agent""",
    "scm": """_VARIABLE_FIELDS _EQUATION_FIELDS _ROW_FIELDS _LITERAL_TYPES _PositionMemo
        _variable_from_dict _equation_from_dict _table_positions _read_table scm_to_dict load_scm
        graph_to_dot""",
    "engine": """SOLVER_STRUCTURAL _QUERY_FIELDS _assignment _clause_from_dict _allowlist_predicate
        query_from_dict rows_to_json _rank_shifts""",
    "experiment": """_counts_from_dict _consistent report_from_json report_from_csv ALLOWED_DELTAS
        GROUP_CONTROL GROUP_TEST MODE_PARETO MODE_PARETO_AND_WELFARE MODE_SOCIAL_WELFARE
        _LOG_HEADER _NO_CONTINUATION _RowText _checked_tail _draw_games _synthetic_draws
        parse_game_log_text synthetic_cells synthetic_log_text _row_text""",
    "gamelog": """parse_game_log parse_game_log_text write_game_log synthetic_log_text _LOG_HEADER
        _LOG_HEADER_LINE _plain_lines _CsvRow _fold _checked_tail _RowText _row_text
        _refuse_long_int csv io""",
}


def test_an_old_module_serves_only_the_names_read_there():
    assert sum(map(len, SERVED.values())) == 15
    for module, names in SERVED.items():
        old = importlib.import_module(f"multiagent_recourse.{module}")
        for name, home in names.items():
            assert not name.startswith("_"), f"{module}.{name}"
            moved = importlib.import_module(f"multiagent_recourse.{home}")
            assert getattr(old, name) is getattr(moved, name), f"{module}.{name}"
    for module, names in DROPPED.items():
        old = importlib.import_module(f"multiagent_recourse.{module}")
        for name in names.split():
            with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
                getattr(old, name)


def test_lazy_names_serves_each_name_from_its_home_and_binds_it(monkeypatch):
    from multiagent_recourse import files, gamelog
    from multiagent_recourse.values import lazy_names

    probe = types.ModuleType("multiagent_recourse.probe")
    probe.__getattr__ = lazy_names(probe.__name__, {"files": ("load_scm",), "gamelog": ("GameRecord",)})
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    assert not {"load_scm", "GameRecord"} & vars(probe).keys()
    assert probe.load_scm is files.load_scm
    assert probe.GameRecord is gamelog.GameRecord
    assert vars(probe)["load_scm"] is files.load_scm  # bound: a later read finds it there
    assert vars(probe)["GameRecord"] is gamelog.GameRecord
    for name in ("scm_from_dict", "SILENT", "files"):  # defined in a home, but not listed
        with pytest.raises(AttributeError) as info:
            getattr(probe, name)
        assert str(info.value) == f"module 'multiagent_recourse.probe' has no attribute {name!r}"
    # The package's own use: engine serves names from files and from baseline.
    from multiagent_recourse.engine import load_query, solve_cfe_baseline

    assert solve_cfe_baseline is mr.solve_cfe_baseline is mr.baseline.solve_cfe_baseline
    assert load_query is mr.load_query is files.load_query


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from multiagent_recourse import *", namespace)
    assert NAMES.keys() | MODULES <= namespace.keys()
    assert all(namespace[name] is getattr(mr, name) for name in NAMES)
    assert NAMES.keys() | MODULES <= set(dir(mr))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(mr, "no_such_name")
    assert getattr(mr, "GROUP_TEST", None) is None  # never exported


def test_game_record_pickles_under_its_old_path():
    from multiagent_recourse import experiment, gamelog

    assert mr.GameRecord is experiment.GameRecord is gamelog.GameRecord
    record = mr.GameRecord("g1", "table1", "test", F(0), [(0, 1)])
    assert pickle.loads(pickle.dumps(record)) == record
    # A pickle that names the class by the module it was defined in before.
    data = pickle.dumps(record, protocol=2)
    old = data.replace(b"cmultiagent_recourse.gamelog\n", b"cmultiagent_recourse.experiment\n")
    assert old != data and pickle.loads(old) == record
