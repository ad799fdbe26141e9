"""The package's public names, which it imports from their modules on first use."""

import importlib
import pickle
from fractions import Fraction as F

import multiagent_recourse as mr

# Every name the package has exported since before it loaded its modules
# lazily, by the module it was first imported from.  The game log's names
# moved to ``gamelog`` and are still attributes of these modules.
EXPORTED = {
    "errors": """AsymmetricMatrixError CycleError DomainError DuplicateEquationError
        IncompleteTableError InvalidParamsError InvalidQueryError MissingExogenousError
        NonInvertibleError OutputError ParseError RecourseError ScmError ScmValidationError
        UnknownMatrixError ValueRangeError""",
    "values": "Value as_value format_value value_to_json",
    "scm": """ENDOGENOUS EXOGENOUS Assignment CausalGraph Scm StructuralEquation VariableDecl
        graph_to_dot load_scm scm_from_dict scm_to_dict""",
    "engine": """AgentDelta AgentId Clause CostModel FeasibleRow OutcomeFlags Pareto Plausible
        PrincipalImprovement RecourseOutcome RecourseQuery SocialWelfare Threshold classify
        clause_label enumerate_feasible load_query outcome_to_dict query_from_dict rows_to_json
        solve solve_cfe_baseline""",
    "games": """ACTIONS BETRAY BUILTIN_MATRIX_IDS SILENT PayoffMatrix builtin_matrix is_pd_ordered
        load_matrix_csv matrix_to_csv pd_scm""",
    "experiment": """BOTH_PLAYERS MODE_CUSTOM MODE_PARETO MODE_PARETO_AND_WELFARE MODE_SINGLE_AGENT
        MODE_SOCIAL_WELFARE PLAYER1_ONLY ExperimentConfig ExperimentReport GameRecord
        OutcomeCounts filter_single_round generate_synthetic_log parse_game_log
        parse_game_log_text render_report report_from_csv report_from_json run_cells
        run_experiment synthetic_cells synthetic_log_text write_game_log""",
}
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}
MODULES = set(EXPORTED)


def test_each_name_is_its_modules_attribute():
    for name, module in NAMES.items():
        home = importlib.import_module(f"multiagent_recourse.{module}")
        assert getattr(mr, name) is getattr(home, name), name
    assert mr.__version__ == "0.1.0"


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
