"""Recourse solvers: exact enumeration over a finite action set.

Two solvers share the query type.  ``solve`` pushes every candidate action
through the abduction/intervention/prediction pipeline and returns the
cheapest action whose counterfactual state satisfies every constraint clause
plus the plausibility predicate.  ``solve_cfe_baseline`` is the deliberately
naive additive variant: it shifts the named features in place, re-predicts
only the agents' outcome models, and never touches the causal structure.

Ties between equal-cost actions break lexicographically over (sorted
intervened variable names, then value positions in each variable's declared
domain), so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, Union

from .errors import DomainError, InvalidQueryError, ParseError
from .scm import ENDOGENOUS, Assignment, Scm, scm_from_dict, load_scm
from .values import as_value, format_value, load_json_exact, value_to_json

AgentId = Union[int, str]


# ------------------------------------------------------------------- clauses


@dataclass(frozen=True)
class Threshold:
    """The named agent's outcome must reach t (strictly, if asked)."""

    agent: AgentId
    t: Fraction
    strict: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", as_value(self.t))


@dataclass(frozen=True)
class PrincipalImprovement:
    """The principal's outcome must not fall below its factual value (or must rise)."""

    strict: bool = True


@dataclass(frozen=True)
class SocialWelfare:
    """The summed outcomes of all agents must not fall (or must rise)."""

    strict: bool = True


@dataclass(frozen=True)
class Pareto:
    """No agent's outcome may fall below its factual value."""


@dataclass(frozen=True)
class Plausible:
    """The counterfactual state must pass the query's plausibility predicate."""


Clause = Union[Threshold, PrincipalImprovement, SocialWelfare, Pareto, Plausible]


def clause_label(clause: Clause) -> str:
    if isinstance(clause, Threshold):
        op = ">" if clause.strict else ">="
        return f"threshold[{clause.agent}]{op}{format_value(clause.t)}"
    if isinstance(clause, PrincipalImprovement):
        return f"principal_improvement({'strict' if clause.strict else 'non-strict'})"
    if isinstance(clause, SocialWelfare):
        return f"social_welfare({'strict' if clause.strict else 'non-strict'})"
    if isinstance(clause, Pareto):
        return "pareto"
    if isinstance(clause, Plausible):
        return "plausible"
    raise InvalidQueryError(f"unknown constraint clause {clause!r}")


def _clause_holds(
    clause: Clause,
    principal: AgentId,
    before: dict[AgentId, Fraction],
    after: dict[AgentId, Fraction],
    plausible_ok: bool,
) -> bool:
    if isinstance(clause, Threshold):
        value = after[clause.agent]
        return value > clause.t if clause.strict else value >= clause.t
    if isinstance(clause, PrincipalImprovement):
        if clause.strict:
            return after[principal] > before[principal]
        return after[principal] >= before[principal]
    if isinstance(clause, SocialWelfare):
        total_after = sum(after.values(), Fraction(0))
        total_before = sum(before.values(), Fraction(0))
        return total_after > total_before if clause.strict else total_after >= total_before
    if isinstance(clause, Pareto):
        return all(after[agent] >= before[agent] for agent in after)
    if isinstance(clause, Plausible):
        return plausible_ok
    raise InvalidQueryError(f"unknown constraint clause {clause!r}")


# ---------------------------------------------------------------- cost model

COST_COUNT = "count"
COST_WEIGHTED = "weighted"
COST_COMPOSITE = "composite"
_COST_KINDS = (COST_COUNT, COST_WEIGHTED, COST_COMPOSITE)


@dataclass(frozen=True)
class CostModel:
    """Action cost at a factual state.

    kinds:
      count      number of intervened variables
      weighted   sum of w_i * |new_i - factual_i| over intervened variables
      composite  count first, weighted change as tie-breaker (the default)

    Unlisted variables weigh 1; weights must be nonnegative.
    """

    kind: str = COST_COMPOSITE
    weights: Mapping[str, Fraction] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _COST_KINDS:
            raise InvalidQueryError(
                f"unknown cost kind {self.kind!r}; expected one of {', '.join(_COST_KINDS)}"
            )
        if self.weights is not None:
            normalized = {}
            for name, raw in self.weights.items():
                w = as_value(raw)
                if w < 0:
                    raise InvalidQueryError(f"cost weight for {name!r} is negative")
                normalized[name] = w
            object.__setattr__(self, "weights", normalized)

    def weight(self, name: str) -> Fraction:
        if self.weights is None:
            return Fraction(1)
        return self.weights.get(name, Fraction(1))

    def weighted_change(self, assigned: Mapping[str, Fraction], factual: Mapping[str, Fraction]) -> Fraction:
        return sum(
            (self.weight(name) * abs(value - factual[name]) for name, value in assigned.items()),
            Fraction(0),
        )

    def order_key(self, assigned: Mapping[str, Fraction], factual: Mapping[str, Fraction]) -> tuple[Fraction, ...]:
        count = Fraction(len(assigned))
        if self.kind == COST_COUNT:
            return (count,)
        change = self.weighted_change(assigned, factual)
        if self.kind == COST_WEIGHTED:
            return (change,)
        return (count, change)

    def scalar(self, assigned: Mapping[str, Fraction], factual: Mapping[str, Fraction]) -> Fraction:
        """The reported cost: the count for the count model, the weighted change otherwise."""
        if self.kind == COST_COUNT:
            return Fraction(len(assigned))
        return self.weighted_change(assigned, factual)


# ------------------------------------------------------------------- queries


@dataclass
class RecourseQuery:
    """One solver invocation: who is advised, from where, with which actions.

    ``feasible`` lists candidate actions.  For ``solve`` each action maps
    variables to the values a do-intervention pins them to; for
    ``solve_cfe_baseline`` each action maps variables to additive shifts.
    ``plausible`` defaults to accepting every in-domain state.  With
    ``exclude_identity`` set, actions that would leave the world exactly as it
    is (the empty action, or pins equal to the current values) are skipped, so
    "no recommendation" is distinguishable from "recommend doing nothing".
    """

    scm: Scm
    principal: AgentId
    agents: dict[AgentId, str]
    factual: dict[str, Fraction]
    feasible: list[dict[str, Fraction]]
    constraints: list[Clause] = field(default_factory=list)
    cost: CostModel = field(default_factory=CostModel)
    plausible: Callable[[Assignment], bool] | None = None
    exclude_identity: bool = False

    def __post_init__(self) -> None:
        self.factual = {name: as_value(v) for name, v in self.factual.items()}
        self.feasible = [
            {name: as_value(v) for name, v in action.items()} for action in self.feasible
        ]


@dataclass(frozen=True)
class AgentDelta:
    before: Fraction
    after: Fraction

    @property
    def delta(self) -> Fraction:
        return self.after - self.before


@dataclass(frozen=True)
class OutcomeFlags:
    principal_improved: bool
    pareto_violated: bool
    welfare_delta: Fraction


@dataclass
class RecourseOutcome:
    """The chosen action, the state it leads to, and per-agent consequences."""

    action: dict[str, Fraction]
    counterfactual: Assignment
    cost: Fraction
    principal: AgentId
    per_agent: dict[AgentId, AgentDelta]
    flags: OutcomeFlags

    @property
    def principal_worsened(self) -> bool:
        return self.per_agent[self.principal].delta < 0

    @property
    def opponent_improved(self) -> bool:
        return any(
            d.delta > 0 for agent, d in self.per_agent.items() if agent != self.principal
        )


def _flags(principal: AgentId, per_agent: Mapping[AgentId, AgentDelta]) -> OutcomeFlags:
    deltas = {agent: d.delta for agent, d in per_agent.items()}
    return OutcomeFlags(
        principal_improved=deltas[principal] > 0,
        pareto_violated=any(d < 0 for d in deltas.values()),
        welfare_delta=sum(deltas.values(), Fraction(0)),
    )


def classify(outcome: RecourseOutcome) -> OutcomeFlags:
    """Recompute the outcome flags from the per-agent payoffs."""
    return _flags(outcome.principal, outcome.per_agent)


@dataclass
class FeasibleRow:
    """Audit row: one candidate action with its clause-by-clause verdicts."""

    action: dict[str, Fraction]
    counterfactual: Assignment
    cost: Fraction
    plausible: bool
    clauses: tuple[tuple[str, bool], ...]

    @property
    def satisfies_all(self) -> bool:
        return self.plausible and all(ok for _, ok in self.clauses)

    def to_dict(self) -> dict:
        return {
            "action": {name: value_to_json(self.action[name]) for name in sorted(self.action)},
            "counterfactual": {n: value_to_json(v) for n, v in self.counterfactual.items()},
            "cost": value_to_json(self.cost),
            "plausible": self.plausible,
            "clauses": [{"clause": label, "satisfied": ok} for label, ok in self.clauses],
            "satisfies_all": self.satisfies_all,
        }


def rows_to_json(rows: Sequence[FeasibleRow]) -> str:
    return json.dumps([row.to_dict() for row in rows], indent=2) + "\n"


# -------------------------------------------------------------------- solver


def _check_query(query: RecourseQuery) -> None:
    if not query.agents:
        raise InvalidQueryError("query declares no agents")
    if query.principal not in query.agents:
        raise InvalidQueryError(f"principal {query.principal!r} is not among the agents")
    for agent, variable in query.agents.items():
        if query.scm.decl(variable).kind != ENDOGENOUS:
            raise InvalidQueryError(
                f"outcome variable {variable!r} of agent {agent!r} is not endogenous"
            )
    for clause in query.constraints:
        if isinstance(clause, Threshold) and clause.agent not in query.agents:
            raise InvalidQueryError(
                f"threshold clause names unknown agent {clause.agent!r}"
            )
    for action in query.feasible:
        query.scm.check_assignment(action)


def _action_key(scm: Scm, assigned: Mapping[str, Fraction]) -> tuple:
    names = tuple(sorted(assigned))
    positions = tuple(scm.domain(name).index(assigned[name]) for name in names)
    return (names, positions)


def _is_identity(action: Mapping[str, Fraction], current: Mapping[str, Fraction]) -> bool:
    return all(current[name] == value for name, value in action.items())


def _candidate_rows(query: RecourseQuery) -> tuple[Assignment, list[tuple[tuple, tuple, FeasibleRow]]]:
    _check_query(query)
    factual_state = query.scm.abduct(query.factual)
    before = {agent: factual_state[var] for agent, var in query.agents.items()}
    keyed: list[tuple[tuple, tuple, FeasibleRow]] = []
    for action in query.feasible:
        if query.exclude_identity and _is_identity(action, factual_state):
            continue
        mutated = query.scm.intervene(action)
        free = {name: factual_state[name] for name in mutated.exogenous_names}
        counterfactual = mutated.evaluate(free)
        after = {agent: counterfactual[var] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(counterfactual) if query.plausible else True
        verdicts = tuple(
            (clause_label(c), _clause_holds(c, query.principal, before, after, plausible_ok))
            for c in query.constraints
        )
        row = FeasibleRow(
            action=dict(action),
            counterfactual=counterfactual,
            cost=query.cost.scalar(action, factual_state),
            plausible=plausible_ok,
            clauses=verdicts,
        )
        keyed.append((query.cost.order_key(action, factual_state), _action_key(query.scm, action), row))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return factual_state, keyed


def enumerate_feasible(query: RecourseQuery) -> list[FeasibleRow]:
    """Every candidate action with its verdicts, cheapest first.

    ``solve`` returns exactly the first row here whose clauses all hold.
    """
    _, keyed = _candidate_rows(query)
    return [row for _, _, row in keyed]


def _assemble_outcome(query: RecourseQuery, before: dict[AgentId, Fraction], row: FeasibleRow) -> RecourseOutcome:
    ordered_agents = sorted(query.agents, key=str)
    per_agent = {
        agent: AgentDelta(before[agent], row.counterfactual[query.agents[agent]])
        for agent in ordered_agents
    }
    return RecourseOutcome(
        action=row.action,
        counterfactual=row.counterfactual,
        cost=row.cost,
        principal=query.principal,
        per_agent=per_agent,
        flags=_flags(query.principal, per_agent),
    )


def solve(query: RecourseQuery) -> RecourseOutcome | None:
    """Cheapest feasible action satisfying every clause, or None if there is none."""
    factual_state, keyed = _candidate_rows(query)
    before = {agent: factual_state[var] for agent, var in query.agents.items()}
    for _, _, row in keyed:
        if row.satisfies_all:
            return _assemble_outcome(query, before, row)
    return None


def solve_cfe_baseline(query: RecourseQuery) -> RecourseOutcome | None:
    """Additive-shift solver with no causal propagation.

    Feasible entries are shift vectors.  The factual feature vector is
    completed from the exogenous assignment, each shift is added in place, and
    only the agents' outcome models are re-predicted from the shifted vector;
    every other variable keeps its factual value.  Only threshold constraints
    on the principal are supported; when none is given the principal must
    strictly improve on its factual prediction.
    """
    _check_query(query)
    outcome_vars = set(query.agents.values())
    exogenous_part = {
        name: value for name, value in query.factual.items() if name not in query.scm.endogenous_names
    }
    factual_state = query.scm.evaluate(exogenous_part)
    for name, value in query.factual.items():
        if factual_state[name] != value:
            raise InvalidQueryError(
                f"factual value of {name!r} disagrees with the outcome models"
            )
    before = {agent: factual_state[var] for agent, var in query.agents.items()}

    thresholds: list[Threshold] = []
    for clause in query.constraints:
        if isinstance(clause, Threshold):
            if clause.agent != query.principal:
                raise InvalidQueryError(
                    "the additive baseline only supports thresholds on the principal"
                )
            thresholds.append(clause)
        elif isinstance(clause, Plausible):
            continue
        else:
            raise InvalidQueryError(
                f"the additive baseline does not support the {clause_label(clause)} clause"
            )
    if not thresholds:
        thresholds = [Threshold(query.principal, before[query.principal], strict=True)]

    best: tuple[tuple, tuple, dict, Assignment, Fraction] | None = None
    for delta in query.feasible:
        shift = {name: value for name, value in delta.items() if value != 0}
        if outcome_vars & set(shift):
            raise InvalidQueryError("baseline shifts cannot target an agent's outcome variable")
        if query.exclude_identity and not shift:
            continue
        assigned: dict[str, Fraction] = {}
        shifted = dict(factual_state)
        for name, amount in shift.items():
            new_value = factual_state[name] + amount
            if new_value not in query.scm.domain(name):
                raise DomainError(
                    f"shifting {name!r} by {format_value(amount)} leaves its domain"
                )
            shifted[name] = new_value
            assigned[name] = new_value
        # Re-predict the outcome models from the shifted vector; parents that
        # are themselves outcomes read their factual values (no propagation).
        frozen = dict(shifted)
        for eq in query.scm.equations:
            if eq.target in outcome_vars:
                shifted[eq.target] = eq.table[tuple(frozen[p] for p in eq.parents)]
        after = {agent: shifted[var] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(shifted) if query.plausible else True
        if not plausible_ok:
            continue
        if not all(
            _clause_holds(t, query.principal, before, after, plausible_ok) for t in thresholds
        ):
            continue
        entry = (
            query.cost.order_key(assigned, factual_state),
            _action_key(query.scm, assigned),
            shift,
            shifted,
            query.cost.scalar(assigned, factual_state),
        )
        if best is None or entry[:2] < best[:2]:
            best = entry
    if best is None:
        return None
    _, _, shift, shifted, cost = best
    row = FeasibleRow(action=shift, counterfactual=shifted, cost=cost, plausible=True, clauses=())
    return _assemble_outcome(query, before, row)


# ---------------------------------------------------------------- file forms
#
# Query files are JSON:
#   {"scm": {...} | "scm_file": "path.json",
#    "principal": 1, "agents": {"1": "h1", "2": "h2"},
#    "factual": {"x1": 0, "x2": 1},
#    "feasible": [{"x1": 1}, {}],
#    "constraints": [{"kind": "principal_improvement", "strict": true}, ...],
#    "cost": {"kind": "composite", "weights": {...}},
#    "plausible": [{"x1": 0, "x2": 0}, ...],      # optional allow-list
#    "exclude_identity": false, "solver": "structural"}

SOLVER_STRUCTURAL = "structural"
SOLVER_BASELINE = "baseline"

_QUERY_FIELDS = {
    "scm",
    "scm_file",
    "principal",
    "agents",
    "factual",
    "feasible",
    "constraints",
    "cost",
    "plausible",
    "exclude_identity",
    "solver",
}

_CLAUSE_KINDS = {
    "threshold",
    "principal_improvement",
    "social_welfare",
    "pareto",
    "plausible",
}


def _agent_id(raw: Any) -> AgentId:
    if isinstance(raw, str) and raw.lstrip("-").isdigit():
        return int(raw)
    if isinstance(raw, (int, str)):
        return raw
    raise ParseError(f"agent ids must be integers or strings, got {raw!r}")


def _json_bool(data: dict, key: str, default: bool, where: str) -> bool:
    """A JSON true/false field; absent means ``default``, anything else is an error."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{where} field {key!r} must be true or false, got {value!r}")
    return value


def _clause_from_dict(item: Any, index: int) -> Clause:
    if not isinstance(item, dict) or "kind" not in item:
        raise ParseError(f"constraints[{index}] must be an object with a 'kind'")
    kind = item["kind"]
    if kind not in _CLAUSE_KINDS:
        raise ParseError(
            f"constraints[{index}] has unknown kind {kind!r}; expected one of "
            + ", ".join(sorted(_CLAUSE_KINDS))
        )
    extras = set(item) - {"kind", "strict", "agent", "t"}
    if extras:
        raise ParseError(
            f"constraints[{index}] has unknown field(s): {', '.join(sorted(extras))}"
        )
    strict = _json_bool(item, "strict", kind != "threshold", f"constraints[{index}]")
    if kind == "threshold":
        if "agent" not in item or "t" not in item:
            raise ParseError(f"constraints[{index}] (threshold) needs 'agent' and 't'")
        return Threshold(_agent_id(item["agent"]), as_value(item["t"]), strict)
    if kind == "principal_improvement":
        return PrincipalImprovement(strict)
    if kind == "social_welfare":
        return SocialWelfare(strict)
    if kind == "pareto":
        return Pareto()
    return Plausible()


def _allowlist_predicate(entries: list[dict[str, Any]]) -> Callable[[Assignment], bool]:
    normalized = [
        {name: as_value(v) for name, v in entry.items()} for entry in entries
    ]

    def admitted(state: Assignment) -> bool:
        return any(
            all(state.get(name) == value for name, value in entry.items())
            for entry in normalized
        )

    return admitted


def query_from_dict(data: Any, base_dir: str | Path = ".") -> tuple[RecourseQuery, str]:
    """Build a query from its JSON form; returns (query, solver mode)."""
    if not isinstance(data, dict):
        raise ParseError("query document must be a JSON object")
    unknown = set(data) - _QUERY_FIELDS
    if unknown:
        raise ParseError(f"unknown query field(s): {', '.join(sorted(unknown))}")
    if ("scm" in data) == ("scm_file" in data):
        raise ParseError("query must contain exactly one of 'scm' or 'scm_file'")
    if "scm" in data:
        scm = scm_from_dict(data["scm"])
    else:
        scm = load_scm(Path(base_dir) / data["scm_file"])
    for required in ("principal", "agents", "factual", "feasible"):
        if required not in data:
            raise ParseError(f"query is missing field {required!r}")
    if not isinstance(data["agents"], dict):
        raise ParseError("query field 'agents' must be an object")
    agents = {_agent_id(k): str(v) for k, v in data["agents"].items()}
    if not isinstance(data["feasible"], list) or not all(
        isinstance(a, dict) for a in data["feasible"]
    ):
        raise ParseError("query field 'feasible' must be a list of objects")
    constraints = [
        _clause_from_dict(item, i) for i, item in enumerate(data.get("constraints", []))
    ]
    cost_data = data.get("cost", {})
    if not isinstance(cost_data, dict):
        raise ParseError("query field 'cost' must be an object")
    cost = CostModel(cost_data.get("kind", COST_COMPOSITE), cost_data.get("weights"))
    plausible = None
    if "plausible" in data:
        if not isinstance(data["plausible"], list) or not all(
            isinstance(e, dict) for e in data["plausible"]
        ):
            raise ParseError("query field 'plausible' must be a list of objects")
        plausible = _allowlist_predicate(data["plausible"])
    solver = data.get("solver", SOLVER_STRUCTURAL)
    if solver not in (SOLVER_STRUCTURAL, SOLVER_BASELINE):
        raise ParseError(f"unknown solver {solver!r}")
    try:
        query = RecourseQuery(
            scm=scm,
            principal=_agent_id(data["principal"]),
            agents=agents,
            factual={str(k): as_value(v) for k, v in data["factual"].items()},
            feasible=[{str(k): as_value(v) for k, v in a.items()} for a in data["feasible"]],
            constraints=constraints,
            cost=cost,
            plausible=plausible,
            exclude_identity=_json_bool(data, "exclude_identity", False, "query"),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return query, solver


def load_query(path: str | Path) -> tuple[RecourseQuery, str]:
    path = Path(path)
    return query_from_dict(load_json_exact(path, "query"), path.parent)


def outcome_to_dict(outcome: RecourseOutcome) -> dict:
    return {
        "found": True,
        "action": {name: value_to_json(outcome.action[name]) for name in sorted(outcome.action)},
        "counterfactual": {n: value_to_json(v) for n, v in outcome.counterfactual.items()},
        "cost": value_to_json(outcome.cost),
        "principal": outcome.principal,
        "per_agent": {
            str(agent): {
                "before": value_to_json(d.before),
                "after": value_to_json(d.after),
                "delta": value_to_json(d.delta),
            }
            for agent, d in outcome.per_agent.items()
        },
        "flags": {
            "principal_improved": outcome.flags.principal_improved,
            "pareto_violated": outcome.flags.pareto_violated,
            "welfare_delta": value_to_json(outcome.flags.welfare_delta),
        },
    }
