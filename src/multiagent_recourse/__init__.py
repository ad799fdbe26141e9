"""Multi-agent algorithmic recourse over finite structural causal models.

Build a model, ask for the cheapest feasible action that satisfies
single-agent, social-welfare, or Pareto constraints on the structural
counterfactual, and batch the whole thing over game logs.
"""

from .errors import (
    AsymmetricMatrixError,
    CycleError,
    DomainError,
    DuplicateEquationError,
    IncompleteTableError,
    InvalidParamsError,
    InvalidQueryError,
    MissingExogenousError,
    NonInvertibleError,
    OutputError,
    ParseError,
    RecourseError,
    ScmError,
    ScmValidationError,
    UnknownMatrixError,
    ValueRangeError,
)
from .values import Value, as_value, format_value, value_to_json
from .scm import (
    ENDOGENOUS,
    EXOGENOUS,
    Assignment,
    CausalGraph,
    Scm,
    StructuralEquation,
    VariableDecl,
    graph_to_dot,
    load_scm,
    scm_from_dict,
    scm_to_dict,
)
from .engine import (
    AgentDelta,
    AgentId,
    Clause,
    CostModel,
    FeasibleRow,
    OutcomeFlags,
    Pareto,
    Plausible,
    PrincipalImprovement,
    RecourseOutcome,
    RecourseQuery,
    SocialWelfare,
    Threshold,
    classify,
    clause_label,
    enumerate_feasible,
    load_query,
    outcome_to_dict,
    query_from_dict,
    rows_to_json,
    solve,
    solve_cfe_baseline,
)
from .games import (
    ACTIONS,
    BETRAY,
    BUILTIN_MATRIX_IDS,
    SILENT,
    PayoffMatrix,
    builtin_matrix,
    is_pd_ordered,
    load_matrix_csv,
    matrix_to_csv,
    pd_scm,
)
from .experiment import (
    BOTH_PLAYERS,
    MODE_CUSTOM,
    MODE_PARETO,
    MODE_PARETO_AND_WELFARE,
    MODE_SINGLE_AGENT,
    MODE_SOCIAL_WELFARE,
    PLAYER1_ONLY,
    ExperimentConfig,
    ExperimentReport,
    GameRecord,
    OutcomeCounts,
    filter_single_round,
    generate_synthetic_log,
    parse_game_log,
    parse_game_log_text,
    render_report,
    report_from_csv,
    report_from_json,
    run_cells,
    run_experiment,
    synthetic_cells,
    synthetic_log_text,
    write_game_log,
)

__version__ = "0.1.0"
