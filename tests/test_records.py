"""The package's record types, and what importing the command line loads."""

import copy
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import multiagent_recourse as mr


def test_cli_import_loads_no_dataclasses():
    # ``dataclasses`` brings in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    # and each process of the command line would pay for them at start.
    src = Path(mr.__file__).resolve().parents[1]
    code = "import sys, multiagent_recourse.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


LOADED_SCRIPT = """
import contextlib, io, sys

def loaded():
    # The package's submodules, then "json" and "csv", each if that standard module is loaded.
    names = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("multiagent_recourse."))
    return names + [name for name in ("json", "csv") if name in sys.modules]

def run(*args):
    import multiagent_recourse.cli as cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(args)) == 0, args

paper = ["--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "1"]
query, model = sys.argv[1:3]
steps = {
    "package": lambda: __import__("multiagent_recourse"),
    "log name": lambda: __import__("multiagent_recourse").parse_game_log,
    "cli": lambda: __import__("multiagent_recourse.cli"),
    "help": lambda: [run(command, "--help") for command in ("solve", "experiment", "generate", "graph")],
    "generate": lambda: run("generate", *paper, "-o", "log.csv"),
    "experiment table": lambda: run("experiment", *paper, "-o", "report.txt"),
    "experiment json": lambda: run("experiment", *paper, "--format", "json", "-o", "report.json"),
    "solve": lambda: run("solve", query, "-o", "outcome.json"),
    "graph": lambda: run("graph", model, "-o", "model.dot"),
}
seen = {}
for step in sys.argv[3:]:
    steps[step]()
    seen[step] = loaded()
import json
print(json.dumps(seen))
"""


def loaded_after(tmp_path, *steps):
    """What a fresh interpreter has loaded after each of ``steps`` (``LOADED_SCRIPT``)."""
    src = Path(mr.__file__).resolve().parents[1]
    data = Path(__file__).parent / "data" / "solve"
    result = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT, str(data / "structural.json"),
         str(data / "pd_table2_model.json"), *steps],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_generate_loads_no_model_code(tmp_path):
    # Each command imports the modules it runs: argument parsing needs only
    # the game log's names, ``generate`` its file form too, ``experiment`` no
    # file forms, ``solve`` and ``graph`` no game code, ``graph`` no query
    # code, and a structural ``solve`` no baseline.  ``json`` and ``csv`` load
    # only where JSON or CSV is read or written.
    steps = loaded_after(tmp_path, "package", "log name", "generate")
    log_file = ["errors", "gamelog", "logfile", "values", "csv"]
    assert steps["package"] == []
    assert steps["log name"] == log_file
    assert steps["generate"] == ["cli", *log_file]
    steps = loaded_after(tmp_path, "cli", "help", "experiment table", "experiment json")
    assert steps["cli"] == steps["help"] == ["cli", "errors", "gamelog", "values"]
    model_code = ["cli", "engine", "errors", "experiment", "gamelog", "games", "scm", "values"]
    assert steps["experiment table"] == model_code
    assert steps["experiment json"] == [*model_code, "json"]
    solve, graph = (set(loaded_after(tmp_path, command)[command]) for command in ("solve", "graph"))
    assert {"engine", "files", "scm", "json"} <= solve
    assert {"files", "scm", "json"} <= graph
    assert not {"games", "experiment", "logfile", "baseline", "csv"} & (solve | graph)
    assert "engine" not in graph


def admit_all(state):
    return True


VARIABLES = (
    mr.VariableDecl("x", mr.EXOGENOUS, (F(0), F(1))),
    mr.VariableDecl("y", mr.ENDOGENOUS, (F(0), F(1))),
)
COPY_X = (mr.StructuralEquation("y", ("x",), {(F(0),): F(0), (F(1),): F(1)}),)
SCM = mr.Scm(VARIABLES, COPY_X)
OTHER_SCM = mr.Scm(VARIABLES, (mr.StructuralEquation("y", ("x",), {(F(0),): F(1), (F(1),): F(0)}),))
ENTRIES = {(0, 0): (F(5), F(5)), (0, 1): (F(1), F(10)), (1, 0): (F(10), F(1)), (1, 1): (F(3), F(3))}
COUNTS = dict(zip(mr.experiment._COUNT_FIELDS, range(1, 10)))

# (class, every field in order with a value, a different value for each field,
#  the fields that have defaults with their defaults)
CASES = [
    (
        mr.VariableDecl,
        {"name": "x", "kind": mr.EXOGENOUS, "domain": (F(0), F(1))},
        {"name": "z", "kind": mr.ENDOGENOUS, "domain": (F(1), F(0))},
        {},
    ),
    (
        mr.StructuralEquation,
        {"target": "y", "parents": ("x",), "table": {(F(0),): F(0), (F(1),): F(1)}},
        {"target": "z", "parents": ("w",), "table": {(F(0),): F(1), (F(1),): F(0)}},
        {},
    ),
    (
        mr.CausalGraph,
        {"nodes": ("x", "y"), "edges": (("x", "y"),)},
        {"nodes": ("x",), "edges": ()},
        {},
    ),
    (
        mr.Scm,
        {"variables": VARIABLES, "equations": COPY_X},
        {
            "variables": (VARIABLES[0], mr.VariableDecl("y", mr.ENDOGENOUS, (F(1), F(0)))),
            "equations": OTHER_SCM.equations,
        },
        {},
    ),
    (
        mr.Threshold,
        {"agent": 1, "t": F(3), "strict": True},
        {"agent": 2, "t": F(7, 2), "strict": False},
        {"strict": False},
    ),
    (mr.PrincipalImprovement, {"strict": False}, {"strict": True}, {"strict": True}),
    (mr.SocialWelfare, {"strict": False}, {"strict": True}, {"strict": True}),
    (mr.Pareto, {}, {}, {}),
    (mr.Plausible, {}, {}, {}),
    (
        mr.CostModel,
        {"kind": "weighted", "weights": None},
        {"kind": "count", "weights": {"x": F(2)}},
        {"kind": "composite", "weights": None},
    ),
    (
        mr.RecourseQuery,
        {
            "scm": SCM,
            "principal": 1,
            "agents": {1: "y"},
            "factual": {"x": F(0)},
            "feasible": [{"x": F(1)}],
            "constraints": [mr.Pareto()],
            "cost": mr.CostModel("count"),
            "plausible": admit_all,
            "exclude_identity": True,
        },
        {
            "scm": OTHER_SCM,
            "principal": 2,
            "agents": {2: "y"},
            "factual": {"x": F(1)},
            "feasible": [],
            "constraints": [],
            "cost": mr.CostModel(),
            "plausible": None,
            "exclude_identity": False,
        },
        {"constraints": [], "cost": mr.CostModel(), "plausible": None, "exclude_identity": False},
    ),
    (mr.AgentDelta, {"before": F(1), "after": F(2)}, {"before": F(0), "after": F(1)}, {}),
    (
        mr.OutcomeFlags,
        {"principal_improved": True, "pareto_violated": False, "welfare_delta": F(1)},
        {"principal_improved": False, "pareto_violated": True, "welfare_delta": F(-1)},
        {},
    ),
    (
        mr.RecourseOutcome,
        {
            "action": {"x": F(1)},
            "counterfactual": {"x": F(1), "y": F(1)},
            "cost": F(1),
            "principal": 1,
            "per_agent": {1: mr.AgentDelta(F(0), F(1))},
            "flags": mr.OutcomeFlags(True, False, F(1)),
        },
        {
            "action": {},
            "counterfactual": {"x": F(0), "y": F(0)},
            "cost": F(0),
            "principal": 2,
            "per_agent": {},
            "flags": mr.OutcomeFlags(False, False, F(0)),
        },
        {},
    ),
    (
        mr.FeasibleRow,
        {
            "action": {"x": F(1)},
            "counterfactual": {"x": F(1), "y": F(1)},
            "cost": F(1),
            "plausible": True,
            "clauses": (("pareto", True),),
        },
        {
            "action": {},
            "counterfactual": {"x": F(0), "y": F(0)},
            "cost": F(0),
            "plausible": False,
            "clauses": (),
        },
        {},
    ),
    (
        mr.PayoffMatrix,
        {"id": "m", "entries": ENTRIES},
        {"id": "n", "entries": {**ENTRIES, (1, 1): (F(4), F(4))}},
        {},
    ),
    (
        mr.GameRecord,
        {"game_id": "g1", "matrix_id": "table1", "group": "test", "delta": F(0), "rounds": [(0, 1)]},
        {"game_id": "g2", "matrix_id": "table2", "group": "control", "delta": None, "rounds": []},
        {},
    ),
    (
        mr.ExperimentConfig,
        {
            "mode": mr.MODE_PARETO,
            "principal_policy": mr.BOTH_PLAYERS,
            "exclude_identity": False,
            "custom_clauses": (mr.Pareto(),),
        },
        {
            "mode": mr.MODE_CUSTOM,
            "principal_policy": mr.PLAYER1_ONLY,
            "exclude_identity": True,
            "custom_clauses": (),
        },
        {
            "mode": mr.MODE_SINGLE_AGENT,
            "principal_policy": mr.PLAYER1_ONLY,
            "exclude_identity": True,
            "custom_clauses": (),
        },
    ),
    (
        mr.OutcomeCounts,
        COUNTS,
        {name: n + 10 for name, n in COUNTS.items()},
        dict.fromkeys(COUNTS, 0),
    ),
    (
        mr.ExperimentReport,
        {"overall": mr.OutcomeCounts(1), "per_matrix": {"table1": mr.OutcomeCounts(1)}},
        {"overall": mr.OutcomeCounts(2), "per_matrix": {}},
        {"overall": mr.OutcomeCounts(), "per_matrix": {}},
    ),
]
FROZEN = {
    mr.Threshold,
    mr.PrincipalImprovement,
    mr.SocialWelfare,
    mr.Pareto,
    mr.Plausible,
    mr.CostModel,
    mr.AgentDelta,
    mr.OutcomeFlags,
}


def fields_of(record, names):
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize(
    "cls, values, others, defaults", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record(cls, values, others, defaults):
    assert others.keys() == values.keys()  # every field is compared
    record = cls(**values)
    assert fields_of(record, values) == values
    assert fields_of(cls(*values.values()), values) == values
    assert cls(*values.values()) == record and not cls(*values.values()) != record
    assert record != object() and record != values

    # Omitted fields take their defaults, each a new object.
    required = {name: value for name, value in values.items() if name not in defaults}
    assert fields_of(cls(**required), defaults) == defaults
    assert fields_of(cls(*required.values()), defaults) == defaults
    for name, default in defaults.items():
        if isinstance(default, (list, dict, mr.OutcomeCounts)):
            assert getattr(cls(**required), name) is not getattr(cls(**required), name)

    for name, other in others.items():
        changed = cls(**{**values, name: other})
        assert changed != record and not changed == record, name

    # What a record computes from its fields does not take part in ==; a
    # slot that holds a field under its private name is the field itself.
    for name in set(cls.__slots__) - values.keys() - {f"_{field}" for field in values}:
        stripped = cls(**values)
        setattr(stripped, name, None)
        assert stripped == record, name

    if cls in FROZEN:
        assert hash(cls(**values)) == hash(record)
        for name in [*values, "other"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_of_different_classes_are_not_equal():
    assert mr.PrincipalImprovement(True) != mr.SocialWelfare(True)
    assert mr.Pareto() != mr.Plausible()
    assert len({mr.Pareto(), mr.Pareto(), mr.Plausible(), mr.Threshold(1, 2), mr.Threshold(1, "2")}) == 3


def test_constructors_check_their_arguments():
    with pytest.raises(TypeError):
        mr.Pareto(True)
    with pytest.raises(TypeError):
        mr.Threshold(1)
    with pytest.raises(TypeError):
        mr.OutcomeCounts(*range(10))
    with pytest.raises(TypeError):
        mr.GameRecord("g1", "table1", "test", F(0), [], extra=1)


@pytest.mark.parametrize("delta, shown", [("1/2", "'1/2'"), (0, "0"), (0.5, "0.5"), (False, "False")])
def test_game_record_refuses_a_delta_that_is_not_a_fraction(delta, shown):
    with pytest.raises(mr.InvalidParamsError) as info:
        mr.GameRecord("g", "table1", "test", delta, [(0, 1)])
    assert str(info.value) == f"GameRecord field 'delta' must be None or a Fraction, got {shown}"
    assert mr.GameRecord("g", "table1", "control", None, []).delta is None
    assert mr.GameRecord("g", "table1", "test", F(1, 2), []).delta == F(1, 2)


def test_equation_read_from_a_file_equals_the_same_equation_built_in_code():
    read = mr.scm_from_dict(mr.scm_to_dict(SCM)).equations[0]
    assert read._table is None  # read as positions; the table is built when asked for
    assert read == COPY_X[0] and COPY_X[0] == read and not read != COPY_X[0]
    assert read != OTHER_SCM.equations[0]
    assert repr(read) == repr(COPY_X[0])
    assert copy.deepcopy(read) == read
    assert pickle.loads(pickle.dumps(read)) == read
    with pytest.raises(TypeError, match="unhashable"):
        hash(read)


def test_only_record_writes_eq_and_repr():
    # Every record type takes ``==`` and ``repr`` from ``values.Record``.
    modules = [
        importlib.import_module(f"{mr.__name__}.{info.name}") for info in pkgutil.iter_modules(mr.__path__)
    ]
    classes = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    }
    assert mr.StructuralEquation in classes and mr.values.Record in classes
    writers = {cls.__qualname__ for cls in classes if {"__eq__", "__repr__"} & vars(cls).keys()}
    assert writers == {"Record"}
