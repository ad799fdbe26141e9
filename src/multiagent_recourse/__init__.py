"""Multi-agent algorithmic recourse over finite structural causal models.

Build a model, ask for the cheapest feasible action that satisfies
single-agent, social-welfare, or Pareto constraints on the structural
counterfactual, and batch the whole thing over game logs.

The public names below are imported from their modules on first use (PEP
562), so that a command that needs no model code, such as writing a game
log, does not load it.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines.
_NAMES = {
    "errors": (
        "AsymmetricMatrixError", "CycleError", "DomainError", "DuplicateEquationError",
        "IncompleteTableError", "InvalidParamsError", "InvalidQueryError",
        "MissingExogenousError", "NonInvertibleError", "OutputError", "ParseError",
        "RecourseError", "ScmError", "ScmValidationError", "UnknownMatrixError",
        "ValueRangeError",
    ),
    "values": ("Value", "as_value", "format_value", "value_to_json"),
    "scm": (
        "ENDOGENOUS", "EXOGENOUS", "Assignment", "CausalGraph", "Scm", "StructuralEquation",
        "VariableDecl",
    ),
    "engine": (
        "AgentDelta", "AgentId", "AllowList", "Clause", "CostModel", "FeasibleRow",
        "OutcomeFlags", "Pareto", "Plausible", "PrincipalImprovement", "RecourseOutcome",
        "RecourseQuery", "SocialWelfare", "Threshold", "classify", "clause_label",
        "enumerate_feasible", "solve", "solve_cfe_baseline",
    ),
    "files": (
        "graph_to_dot", "load_query", "load_scm", "outcome_to_dict", "query_from_dict",
        "report_from_csv", "report_from_json", "rows_to_json", "scm_from_dict", "scm_to_dict",
    ),
    "games": (
        "ACTIONS", "BUILTIN_MATRIX_IDS", "PayoffMatrix", "builtin_matrix", "is_pd_ordered",
        "load_matrix_csv", "matrix_to_csv", "pd_scm",
    ),
    "gamelog": (
        "BETRAY", "BOTH_PLAYERS", "MODE_CUSTOM", "MODE_PARETO", "MODE_PARETO_AND_WELFARE",
        "MODE_SINGLE_AGENT", "MODE_SOCIAL_WELFARE", "PLAYER1_ONLY", "SILENT", "GameRecord",
        "filter_single_round", "generate_synthetic_log", "parse_game_log",
        "parse_game_log_text", "synthetic_cells", "synthetic_log_text", "write_game_log",
    ),
    "experiment": (
        "ExperimentConfig", "ExperimentReport", "OutcomeCounts", "render_report", "run_cells",
        "run_experiment",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
_MODULES = (*_NAMES, "cli")
__all__ = [*_HOME, *_MODULES]


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
