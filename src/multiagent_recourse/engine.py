"""Recourse solvers: exact enumeration over a finite action set.

Two solvers share the query type.  ``solve`` pushes every candidate action
through the abduction/intervention/prediction pipeline and returns the
cheapest action whose counterfactual state satisfies every constraint clause
plus the plausibility predicate.  The factual world is abducted once per
query and mapped once to positions in the variables' domains.  Each candidate
maps only its pins to positions, is predicted as a pin overlay on the
model's compiled index tables (no mutilated model is built), and turns the
resulting positions back into values.  ``solve_cfe_baseline`` is the
deliberately naive additive variant: it shifts the named features in place,
re-predicts only the agents' outcome models, and never touches the causal
structure.

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
from .values import exact_value, format_value, load_json_exact, value_to_json
from .values import read_agent, read_bool, read_list, read_object, read_str, read_value

AgentId = Union[int, str]


# ------------------------------------------------------------------- clauses


@dataclass(frozen=True)
class Threshold:
    """The named agent's outcome must reach t (strictly, if asked)."""

    agent: AgentId
    t: Fraction
    strict: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", exact_value(self.t))


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
    welfare_before: Fraction,
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
        return total_after > welfare_before if clause.strict else total_after >= welfare_before
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
                w = exact_value(raw)
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
        """What actions are ranked by; its last entry is the reported cost (``scalar``)."""
        count = Fraction(len(assigned))
        if self.kind == COST_COUNT:
            return (count,)
        change = self.weighted_change(assigned, factual)
        if self.kind == COST_WEIGHTED:
            return (change,)
        return (count, change)

    def scalar(self, assigned: Mapping[str, Fraction], factual: Mapping[str, Fraction]) -> Fraction:
        """The reported cost: the count for the count model, the weighted change otherwise."""
        return self.order_key(assigned, factual)[-1]


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
        self.factual = {name: exact_value(v) for name, v in self.factual.items()}
        self.feasible = [
            {name: exact_value(v) for name, v in action.items()} for action in self.feasible
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


def _action_key(positions: Mapping[str, int]) -> tuple:
    """Tie-break: sorted names, then each value's position in its declared domain."""
    names = tuple(sorted(positions))
    return (names, tuple(positions[name] for name in names))


def _candidate_rows(query: RecourseQuery) -> tuple[Assignment, list[tuple[tuple, tuple, FeasibleRow]]]:
    _check_query(query)
    scm = query.scm
    # Mapping each action to positions checks it against the domains.
    actions = [(action, scm._positions(action)) for action in query.feasible]
    factual_state = scm.abduct(query.factual)
    world = scm._positions(factual_state)
    before = {agent: factual_state[var] for agent, var in query.agents.items()}
    welfare_before = sum(before.values(), Fraction(0))
    labels = [clause_label(c) for c in query.constraints]
    keyed: list[tuple[tuple, tuple, FeasibleRow]] = []
    for action, pins in actions:
        if query.exclude_identity and all(world[name] == p for name, p in pins.items()):
            continue
        counterfactual = scm._values(scm._evaluate_exact(world, pins))
        after = {agent: counterfactual[var] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(counterfactual) if query.plausible else True
        verdicts = tuple(
            (label, _clause_holds(c, query.principal, before, after, plausible_ok, welfare_before))
            for label, c in zip(labels, query.constraints)
        )
        order_key = query.cost.order_key(action, factual_state)
        row = FeasibleRow(
            action=dict(action),
            counterfactual=counterfactual,
            cost=order_key[-1],
            plausible=plausible_ok,
            clauses=verdicts,
        )
        keyed.append((order_key, _action_key(pins), row))
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
    welfare_before = sum(before.values(), Fraction(0))

    best: tuple[tuple, tuple, dict, Assignment, Fraction] | None = None
    for delta in query.feasible:
        # Look every name up first: an unknown one is a DomainError, even unshifted.
        domains = {name: query.scm.domain(name) for name in delta}
        shift = {name: value for name, value in delta.items() if value != 0}
        if outcome_vars & set(shift):
            raise InvalidQueryError("baseline shifts cannot target an agent's outcome variable")
        if query.exclude_identity and not shift:
            continue
        assigned: dict[str, Fraction] = {}
        shifted = dict(factual_state)
        for name, amount in shift.items():
            new_value = factual_state[name] + amount
            if new_value not in domains[name]:
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
            _clause_holds(t, query.principal, before, after, plausible_ok, welfare_before)
            for t in thresholds
        ):
            continue
        order_key = query.cost.order_key(assigned, factual_state)
        entry = (
            order_key,
            _action_key(query.scm._positions(assigned)),
            shift,
            shifted,
            order_key[-1],
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
    "threshold": Threshold,
    "principal_improvement": PrincipalImprovement,
    "social_welfare": SocialWelfare,
    "pareto": Pareto,
    "plausible": Plausible,
}


def _assignment(raw: Any, where: str, field: str | None = None) -> dict[str, Fraction]:
    """A JSON object of exact values; a bad value is named by the object's place."""
    return {name: read_value(v, where, field) for name, v in read_object(raw, where, field).items()}


def _clause_from_dict(item: Any, index: int) -> Clause:
    where = f"constraints[{index}]"
    item = read_object(item, where, allowed={"kind", "strict", "agent", "t"}, required={"kind"})
    kind = read_str(item["kind"], where, "kind")
    if kind not in _CLAUSE_KINDS:
        kinds = ", ".join(sorted(_CLAUSE_KINDS))
        raise ParseError(f"{where} has unknown kind {kind!r}; expected one of {kinds}")
    strict = read_bool(item.get("strict", kind != "threshold"), where, "strict")
    if kind == "threshold":
        read_object(item, where, required={"agent", "t"})
        agent = read_agent(item["agent"], where, "agent")
        return Threshold(agent, read_value(item["t"], where, "t"), strict)
    if kind in ("principal_improvement", "social_welfare"):
        return _CLAUSE_KINDS[kind](strict)
    return _CLAUSE_KINDS[kind]()


def _allowlist_predicate(entries: list) -> Callable[[Assignment], bool]:
    normalized = [
        _assignment(read_object(entry, f"plausible[{j}]"), "query", "plausible")
        for j, entry in enumerate(entries)
    ]

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
        scm = scm_from_dict(data["scm"])
    else:
        scm = load_scm(Path(base_dir) / read_str(data["scm_file"], "query", "scm_file"))
    agents = {
        read_agent(agent, "query", "agents"): read_str(variable, "agents", agent)
        for agent, variable in read_object(data["agents"], "query", "agents").items()
    }
    constraints = [
        _clause_from_dict(item, i)
        for i, item in enumerate(read_list(data.get("constraints", []), "query", "constraints"))
    ]
    cost_data = read_object(data.get("cost", {}), "query", "cost", allowed={"kind", "weights"})
    weights = cost_data.get("weights")
    cost = CostModel(
        read_str(cost_data.get("kind", COST_COMPOSITE), "cost", "kind"),
        None if weights is None else _assignment(weights, "query", "cost.weights"),
    )
    plausible = None
    if "plausible" in data:
        plausible = _allowlist_predicate(read_list(data["plausible"], "query", "plausible"))
    solver = read_str(data.get("solver", SOLVER_STRUCTURAL), "query", "solver")
    if solver not in (SOLVER_STRUCTURAL, SOLVER_BASELINE):
        raise ParseError(f"query field 'solver' names unknown solver {solver!r}")
    return RecourseQuery(
        scm=scm,
        principal=read_agent(data["principal"], "query", "principal"),
        agents=agents,
        factual=_assignment(data["factual"], "query", "factual"),
        feasible=[
            _assignment(action, f"feasible[{j}]")
            for j, action in enumerate(read_list(data["feasible"], "query", "feasible"))
        ],
        constraints=constraints,
        cost=cost,
        plausible=plausible,
        exclude_identity=read_bool(data.get("exclude_identity", False), "query", "exclude_identity"),
    ), solver


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
