"""Recourse solvers: exact enumeration over a finite action set.

Two solvers share the query type.  ``solve`` returns the cheapest candidate
action whose counterfactual state satisfies every constraint clause plus the
plausibility predicate.  The factual world is abducted once per query and
mapped once to positions in the variables' domains.  An action's cost depends
only on the action and the factual state, so every candidate is ranked before
any is predicted, on integer keys: the count, and the weighted change as a
numerator over the query's common denominator.  Candidates are then predicted
in rank order, each as a pin overlay on the model's compiled index tables (no
mutilated model is built), and the first whose clauses all hold is returned;
only its state is turned back into values.  ``enumerate_feasible`` shares the
ranking and predicts every candidate for its audit table.
``solve_cfe_baseline`` is the deliberately naive additive variant: it shifts
the named features in place, re-predicts only the agents' outcome models from
their compiled tables, and never touches the causal structure.

Ties between equal-cost actions break lexicographically over (sorted
intervened variable names, then value positions in each variable's declared
domain), so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from math import lcm
from typing import Any, Callable, Iterator, Mapping, Sequence, Union

from .errors import DomainError, InvalidQueryError, ParseError
from .scm import ENDOGENOUS, Assignment, Positions, Scm, scm_from_dict, load_scm
from .values import FrozenRecord, Record, as_value, format_value, load_json_exact, value_to_json
from .values import read_agent, read_bool, read_list, read_object, read_str, read_value

AgentId = Union[int, str]


# ------------------------------------------------------------------- clauses


class Threshold(FrozenRecord):
    """The named agent's outcome must reach t (strictly, if asked)."""

    __slots__ = _fields = ("agent", "t", "strict")

    def __init__(self, agent: AgentId, t: Fraction, strict: bool = False) -> None:
        self._set(agent, as_value(t), strict)


class PrincipalImprovement(FrozenRecord):
    """The principal's outcome must not fall below its factual value (or must rise)."""

    __slots__ = _fields = ("strict",)

    def __init__(self, strict: bool = True) -> None:
        self._set(strict)


class SocialWelfare(FrozenRecord):
    """The summed outcomes of all agents must not fall (or must rise)."""

    __slots__ = _fields = ("strict",)

    def __init__(self, strict: bool = True) -> None:
        self._set(strict)


class Pareto(FrozenRecord):
    """No agent's outcome may fall below its factual value."""

    __slots__ = ()


class Plausible(FrozenRecord):
    """The counterfactual state must pass the query's plausibility predicate."""

    __slots__ = ()


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


class CostModel(FrozenRecord):
    """Action cost at a factual state.

    kinds:
      count      number of intervened variables
      weighted   sum of w_i * |new_i - factual_i| over intervened variables
      composite  count first, weighted change as tie-breaker (the default)

    Unlisted variables weigh 1; weights must be nonnegative.
    """

    __slots__ = _fields = ("kind", "weights")

    def __init__(
        self, kind: str = COST_COMPOSITE, weights: Mapping[str, Fraction] | None = None
    ) -> None:
        if kind not in _COST_KINDS:
            raise InvalidQueryError(
                f"unknown cost kind {kind!r}; expected one of {', '.join(_COST_KINDS)}"
            )
        if weights is not None:
            normalized = {}
            for name, raw in weights.items():
                w = as_value(raw)
                if w < 0:
                    raise InvalidQueryError(f"cost weight for {name!r} is negative")
                normalized[name] = w
            weights = normalized
        self._set(kind, weights)

    def weight(self, name: str) -> Fraction:
        if self.weights is None:
            return Fraction(1)
        return self.weights.get(name, Fraction(1))

    def scalar(self, assigned: Mapping[str, Fraction], factual: Mapping[str, Fraction]) -> Fraction:
        """The reported cost: the count for the count model, the weighted change otherwise.

        Actions are ranked on the same quantities, as integers (``_rank_keys``).
        """
        if self.kind == COST_COUNT:
            return Fraction(len(assigned))
        return sum(
            (self.weight(name) * abs(value - factual[name]) for name, value in assigned.items()),
            Fraction(0),
        )


# ------------------------------------------------------------------- queries


class RecourseQuery(Record):
    """One solver invocation: who is advised, from where, with which actions.

    ``feasible`` lists candidate actions.  For ``solve`` each action maps
    variables to the values a do-intervention pins them to; for
    ``solve_cfe_baseline`` each action maps variables to additive shifts.
    ``plausible`` defaults to accepting every in-domain state.  With
    ``exclude_identity`` set, actions that would leave the world exactly as it
    is (the empty action, or pins equal to the current values) are skipped, so
    "no recommendation" is distinguishable from "recommend doing nothing".
    ``constraints`` defaults to a new empty list and ``cost`` to ``CostModel()``.
    """

    __slots__ = _fields = (
        "scm", "principal", "agents", "factual", "feasible",
        "constraints", "cost", "plausible", "exclude_identity",
    )

    def __init__(
        self, scm: Scm, principal: AgentId, agents: dict[AgentId, str],
        factual: dict[str, Fraction], feasible: list[dict[str, Fraction]],
        constraints: list[Clause] | None = None, cost: CostModel | None = None,
        plausible: Callable[[Assignment], bool] | None = None, exclude_identity: bool = False,
    ) -> None:
        self.scm = scm
        self.principal = principal
        self.agents = agents
        self.factual = {name: as_value(v) for name, v in factual.items()}
        self.feasible = [{name: as_value(v) for name, v in action.items()} for action in feasible]
        self.constraints = [] if constraints is None else constraints
        self.cost = CostModel() if cost is None else cost
        self.plausible = plausible
        self.exclude_identity = exclude_identity


class AgentDelta(FrozenRecord):
    __slots__ = _fields = ("before", "after")

    def __init__(self, before: Fraction, after: Fraction) -> None:
        self._set(before, after)

    @property
    def delta(self) -> Fraction:
        return self.after - self.before


class OutcomeFlags(FrozenRecord):
    __slots__ = _fields = ("principal_improved", "pareto_violated", "welfare_delta")

    def __init__(
        self, principal_improved: bool, pareto_violated: bool, welfare_delta: Fraction
    ) -> None:
        self._set(principal_improved, pareto_violated, welfare_delta)


class RecourseOutcome(Record):
    """The chosen action, the state it leads to, and per-agent consequences."""

    __slots__ = _fields = ("action", "counterfactual", "cost", "principal", "per_agent", "flags")

    def __init__(
        self, action: dict[str, Fraction], counterfactual: Assignment, cost: Fraction,
        principal: AgentId, per_agent: dict[AgentId, AgentDelta], flags: OutcomeFlags,
    ) -> None:
        self.action = action
        self.counterfactual = counterfactual
        self.cost = cost
        self.principal = principal
        self.per_agent = per_agent
        self.flags = flags

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


class FeasibleRow(Record):
    """Audit row: one candidate action with its clause-by-clause verdicts."""

    __slots__ = _fields = ("action", "counterfactual", "cost", "plausible", "clauses")

    def __init__(
        self, action: dict[str, Fraction], counterfactual: Assignment, cost: Fraction,
        plausible: bool, clauses: tuple[tuple[str, bool], ...],
    ) -> None:
        self.action = action
        self.counterfactual = counterfactual
        self.cost = cost
        self.plausible = plausible
        self.clauses = clauses

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


def _rank_keys(cost: CostModel, candidates: list[tuple], factual: Assignment) -> Callable[[tuple], tuple]:
    """Sort key of a candidate (action, pins, ...): its cost as ints, then ``_action_key``.

    The count is an int.  The weighted change is a sum of terms w*|v - f|, one
    per pinned (variable, position); each distinct term is computed once and
    scaled to the terms' common denominator, so changes compare as numerators.
    """
    scaled = {}
    if cost.kind != COST_COUNT:
        terms = {}
        for action, pins, *_ in candidates:
            for name, position in pins.items():
                if (name, position) not in terms:
                    terms[name, position] = cost.weight(name) * abs(action[name] - factual[name])
        scale = lcm(*(term.denominator for term in terms.values()))
        scaled = {item: t.numerator * (scale // t.denominator) for item, t in terms.items()}

    def key(candidate: tuple) -> tuple:
        pins = candidate[1]
        if cost.kind == COST_COUNT:
            return (len(pins), *_action_key(pins))
        change = sum(map(scaled.__getitem__, pins.items()))
        if cost.kind == COST_WEIGHTED:
            return (change, *_action_key(pins))
        return (len(pins), change, *_action_key(pins))

    return key


def _rank(
    query: RecourseQuery,
) -> tuple[Assignment, list[tuple[dict[str, Fraction], Positions]], Callable]:
    """Check the query, abduct its factual world, and rank its candidate actions
    without predicting any: a cost depends only on the action and the factual
    state.

    Returns the factual state, the candidates as (action, pins) cheapest
    first, and ``predict``: pins -> the counterfactual state as positions, the
    plausibility predicate's verdict on it, and each clause's verdict,
    computed as it is drawn.
    """
    _check_query(query)
    scm = query.scm
    # Mapping each action to positions checks it against the domains.
    candidates = [(action, scm._positions(action)) for action in query.feasible]
    factual = scm.abduct(query.factual)
    world = scm._positions(factual)
    for clause in query.constraints:
        clause_label(clause)  # rejects an unknown clause
    if query.exclude_identity:
        candidates = [c for c in candidates if any(world[n] != p for n, p in c[1].items())]
    candidates.sort(key=_rank_keys(query.cost, candidates, factual))
    before = {agent: factual[var] for agent, var in query.agents.items()}
    welfare_before = sum(before.values(), Fraction(0))

    def predict(pins: Positions) -> tuple[Positions, bool, Iterator[bool]]:
        state = scm._evaluate_exact(world, pins)
        after = {agent: scm.domain(var)[state[var]] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(scm._values(state)) if query.plausible else True
        return state, plausible_ok, (
            _clause_holds(c, query.principal, before, after, plausible_ok, welfare_before)
            for c in query.constraints
        )

    return factual, candidates, predict


def enumerate_feasible(query: RecourseQuery) -> list[FeasibleRow]:
    """Every candidate action with its verdicts, cheapest first.

    ``solve`` returns exactly the first row here whose clauses all hold.
    """
    factual, candidates, predict = _rank(query)
    labels = [clause_label(c) for c in query.constraints]
    rows = []
    for action, pins in candidates:
        state, plausible_ok, verdicts = predict(pins)
        rows.append(
            FeasibleRow(
                action=dict(action),
                counterfactual=query.scm._values(state),
                cost=query.cost.scalar(action, factual),
                plausible=plausible_ok,
                clauses=tuple(zip(labels, verdicts)),
            )
        )
    return rows


def _assemble_outcome(
    query: RecourseQuery,
    factual: Assignment,
    action: dict[str, Fraction],
    counterfactual: Assignment,
    cost: Fraction,
) -> RecourseOutcome:
    per_agent = {
        agent: AgentDelta(factual[query.agents[agent]], counterfactual[query.agents[agent]])
        for agent in sorted(query.agents, key=str)
    }
    return RecourseOutcome(
        action=action,
        counterfactual=counterfactual,
        cost=cost,
        principal=query.principal,
        per_agent=per_agent,
        flags=_flags(query.principal, per_agent),
    )


def solve(query: RecourseQuery) -> RecourseOutcome | None:
    """Cheapest feasible action satisfying every clause, or None if there is none.

    Candidates are predicted in rank order, and the first one whose clauses
    all hold is returned; none ranked after it is predicted.
    """
    factual, candidates, predict = _rank(query)
    for action, pins in candidates:
        state, plausible_ok, verdicts = predict(pins)
        if plausible_ok and all(verdicts):
            return _assemble_outcome(
                query,
                factual,
                dict(action),
                query.scm._values(state),
                query.cost.scalar(action, factual),
            )
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

    scm = query.scm
    world = scm._positions(factual_state)
    passing = []
    for delta in query.feasible:
        # Look every name up first: an unknown one is a DomainError, even unshifted.
        for name in delta:
            scm.decl(name)
        shift = {name: value for name, value in delta.items() if value != 0}
        if outcome_vars & set(shift):
            raise InvalidQueryError("baseline shifts cannot target an agent's outcome variable")
        if query.exclude_identity and not shift:
            continue
        assigned: dict[str, Fraction] = {}
        pins: Positions = {}
        shifted = dict(factual_state)
        for name, amount in shift.items():
            new_value = factual_state[name] + amount
            position = scm._index[name].get(new_value)
            if position is None:
                raise DomainError(
                    f"shifting {name!r} by {format_value(amount)} leaves its domain"
                )
            shifted[name] = assigned[name] = new_value
            pins[name] = position
        # Re-predict the outcome models from the shifted vector; parents that
        # are themselves outcomes read their factual values (no propagation).
        positions = {**world, **pins}
        for var in outcome_vars:
            shifted[var] = scm.domain(var)[scm._output(var, positions)]
        after = {agent: shifted[var] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(shifted) if query.plausible else True
        if not plausible_ok:
            continue
        if not all(
            _clause_holds(t, query.principal, before, after, plausible_ok, welfare_before)
            for t in thresholds
        ):
            continue
        passing.append((assigned, pins, shift, shifted))
    if not passing:
        return None
    assigned, _, shift, shifted = min(passing, key=_rank_keys(query.cost, passing, factual_state))
    return _assemble_outcome(query, factual_state, shift, shifted, query.cost.scalar(assigned, factual_state))


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
