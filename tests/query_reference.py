"""The query file reader as it was before a structural query's actions were
read straight to positions and its allow-list became a record: every action
read to values by ``_assignment``, and the allow-list a closure that compares
a state's values.

It is kept frozen as the reference that ``tests/test_query_reader.py``
compares ``multiagent_recourse.query_from_dict`` against: the same outcome
and audit JSON, or the same error type and message.  The field readers it
calls (``read_object``, ``_assignment``, ``_clause_from_dict`` ...) are the
package's own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from multiagent_recourse import DomainError, ParseError, scm
from multiagent_recourse.engine import COST_COMPOSITE, AgentId, CostModel, RecourseQuery
from multiagent_recourse.files import (
    SOLVER_BASELINE, SOLVER_STRUCTURAL, _QUERY_FIELDS, _assignment, _clause_from_dict, load_scm,
    read_agent, read_bool, read_list, read_object, read_str,
)
from multiagent_recourse.scm import Assignment, Scm


def _allowlist_predicate(entries: list, model: Scm) -> Callable[[Assignment], bool]:
    """The plausibility predicate of an allow-list: a state passes if it agrees
    with some entry on every variable the entry names.  An entry that names a
    variable ``model`` does not declare, or a value outside its domain, could
    admit no state, and is a DomainError that names the entry."""
    normalized = []
    for j, entry in enumerate(entries):
        where = f"plausible[{j}]"
        allowed = _assignment(read_object(entry, where), "query", "plausible")
        try:
            model._positions(allowed)
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
        normalized.append(allowed)

    def admitted(state: Assignment) -> bool:
        return any(
            all(state.get(name) == value for name, value in entry.items())
            for entry in normalized
        )

    return admitted


def query_from_dict(data: Any, base_dir: str | Path = ".") -> tuple[RecourseQuery, str]:
    """Build a query from its JSON form; returns (query, solver mode)."""
    required = {"principal", "agents", "factual", "feasible"}
    data = read_object(data, "query", allowed=_QUERY_FIELDS, required=required)
    if ("scm" in data) == ("scm_file" in data):
        raise ParseError("query must contain exactly one of 'scm' or 'scm_file'")
    if "scm" in data:
        model = scm.scm_from_dict(data["scm"])
    else:
        model = load_scm(Path(base_dir) / read_str(data["scm_file"], "query", "scm_file"))
    agents: dict[AgentId, str] = {}
    keys: dict[AgentId, str] = {}  # agent -> the key that named it
    for key, variable in read_object(data["agents"], "query", "agents").items():
        agent = read_agent(key, "query", "agents")
        if agent in keys:
            raise ParseError(
                f"query field 'agents' names agent {agent!r} twice: {keys[agent]!r} and {key!r}"
            )
        keys[agent] = key
        agents[agent] = read_str(variable, "agents", key)
    constraints = [
        _clause_from_dict(item, i)
        for i, item in enumerate(read_list(data.get("constraints", []), "query", "constraints"))
    ]
    cost_data = read_object(data.get("cost", {}), "query", "cost", allowed={"kind", "weights"})
    weights = cost_data.get("weights")
    # Read here, not in CostModel, so that a bad weight comes before an unknown kind.
    cost = CostModel(
        read_str(cost_data.get("kind", COST_COMPOSITE), "cost", "kind"),
        None if weights is None else _assignment(weights, "query", "cost.weights"),
    )
    plausible = None
    if "plausible" in data:
        plausible = _allowlist_predicate(read_list(data["plausible"], "query", "plausible"), model)
    solver = read_str(data.get("solver", SOLVER_STRUCTURAL), "query", "solver")
    if solver not in (SOLVER_STRUCTURAL, SOLVER_BASELINE):
        raise ParseError(f"query field 'solver' names unknown solver {solver!r}")
    # Every value is read exactly once here, so the query takes them as they are.
    return RecourseQuery(
        model,
        read_agent(data["principal"], "query", "principal"),
        agents,
        _assignment(data["factual"], "query", "factual"),
        [
            _assignment(action, f"feasible[{j}]")
            for j, action in enumerate(read_list(data["feasible"], "query", "feasible"))
        ],
        constraints,
        cost,
        plausible,
        read_bool(data.get("exclude_identity", False), "query", "exclude_identity"),
    ), solver
