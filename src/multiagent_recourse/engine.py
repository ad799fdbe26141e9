"""Recourse solvers: exact enumeration over a finite action set.

Two solvers share the query type, the ranking and the loop that picks an
action; they differ only in how a candidate is predicted.  ``solve`` returns
the cheapest candidate action whose counterfactual state satisfies every
constraint clause plus the plausibility predicate.  The factual world is
abducted once per query and mapped once to positions in the variables'
domains.  An action's cost depends
only on the action and the factual state, so every candidate is ranked before
any is predicted, on integer keys: the count, and the weighted change as a
numerator over the query's common denominator, built from each variable's
domain on its integer scale (``VariableDecl._integer_scale``) and the
weights' numerators and denominators, with no ``Fraction`` arithmetic.
The reported cost is the ranking's own value, made exact.
Values are mapped to positions through maps keyed by ``int`` for integral
values (``scm._key``), and each literal of a query file is read once.
Candidates are then predicted
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
from typing import Any, Callable, Iterator, Mapping, Sequence, Union, get_args

from .errors import DomainError, InvalidQueryError, ParseError, ValueRangeError
from .scm import ENDOGENOUS, Assignment, Positions, Scm, _key, scm_from_dict, load_scm
from .values import FrozenRecord, Record, as_value, format_value, load_json_exact, shown_value
from .values import read_agent, read_bool, read_list, read_object, read_str, read_value, read_values
from .values import checked_flag, value_to_json

AgentId = Union[int, str]


# ------------------------------------------------------------------- clauses
#
# Each clause class carries its JSON kind, its label, and its check: ``holds``
# tells, from the principal, every agent's factual and counterfactual outcome
# and the plausibility predicate's verdict, whether the clause holds.

Outcomes = Mapping[AgentId, Fraction]


class Threshold(FrozenRecord):
    """The named agent's outcome must reach t (strictly, if asked)."""

    __slots__ = _fields = ("agent", "t", "strict")
    kind = "threshold"

    def __init__(self, agent: AgentId, t: Fraction, strict: bool = False) -> None:
        self._set(agent, as_value(t), checked_flag(self, "strict", strict, InvalidQueryError))

    @property
    def label(self) -> str:
        try:
            t = format_value(self.t)
        except ValueRangeError:  # past the digit limit: the head of its n/d
            t = shown_value(self.t)
        return f"threshold[{self.agent}]{'>' if self.strict else '>='}{t}"

    def holds(self, principal: AgentId, before: Outcomes, after: Outcomes, plausible: bool) -> bool:
        value = after[self.agent]
        return value > self.t if self.strict else value >= self.t


class PrincipalImprovement(FrozenRecord):
    """The principal's outcome must not fall below its factual value (or must rise)."""

    __slots__ = _fields = ("strict",)
    kind = "principal_improvement"

    def __init__(self, strict: bool = True) -> None:
        self._set(checked_flag(self, "strict", strict, InvalidQueryError))

    @property
    def label(self) -> str:
        return f"principal_improvement({'strict' if self.strict else 'non-strict'})"

    def holds(self, principal: AgentId, before: Outcomes, after: Outcomes, plausible: bool) -> bool:
        if self.strict:
            return after[principal] > before[principal]
        return after[principal] >= before[principal]


class SocialWelfare(FrozenRecord):
    """The summed outcomes of all agents must not fall (or must rise)."""

    __slots__ = _fields = ("strict",)
    kind = "social_welfare"

    def __init__(self, strict: bool = True) -> None:
        self._set(checked_flag(self, "strict", strict, InvalidQueryError))

    @property
    def label(self) -> str:
        return f"social_welfare({'strict' if self.strict else 'non-strict'})"

    def holds(self, principal: AgentId, before: Outcomes, after: Outcomes, plausible: bool) -> bool:
        total_before = sum(before.values(), Fraction(0))
        total_after = sum(after.values(), Fraction(0))
        return total_after > total_before if self.strict else total_after >= total_before


class Pareto(FrozenRecord):
    """No agent's outcome may fall below its factual value."""

    __slots__ = ()
    kind = label = "pareto"

    def holds(self, principal: AgentId, before: Outcomes, after: Outcomes, plausible: bool) -> bool:
        return all(after[agent] >= before[agent] for agent in after)


class Plausible(FrozenRecord):
    """The counterfactual state must pass the query's plausibility predicate."""

    __slots__ = ()
    kind = label = "plausible"

    def holds(self, principal: AgentId, before: Outcomes, after: Outcomes, plausible: bool) -> bool:
        return plausible


Clause = Union[Threshold, PrincipalImprovement, SocialWelfare, Pareto, Plausible]
_CLAUSE_TYPES = get_args(Clause)
_CLAUSE_KINDS = {cls.kind: cls for cls in _CLAUSE_TYPES}


def _known(clause: Any) -> Clause:
    """``clause``, if it is one of the clause classes; else an InvalidQueryError."""
    if not isinstance(clause, _CLAUSE_TYPES):
        raise InvalidQueryError(f"unknown constraint clause {clause!r}")
    return clause


def clause_label(clause: Clause) -> str:
    return _known(clause).label


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
        self._set(
            scm, principal, agents,
            {name: as_value(v) for name, v in factual.items()},
            [{name: as_value(v) for name, v in action.items()} for action in feasible],
            [] if constraints is None else constraints,
            CostModel() if cost is None else cost,
            plausible, checked_flag(self, "exclude_identity", exclude_identity, InvalidQueryError),
        )

    @classmethod
    def _exact(cls, *fields: Any) -> "RecourseQuery":
        """The query of ``fields``, in ``_fields`` order, taken as they are: the
        values already exact and no default left to fill in."""
        query = cls.__new__(cls)
        query._set(*fields)
        return query


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


def _rank_keys(
    scm: Scm, cost: CostModel, candidates: list[tuple], world: Positions
) -> tuple[Callable[[tuple], tuple], Callable[[Positions], Fraction]]:
    """Sort key of a candidate (action, pins): its cost as ints, then
    ``_action_key``; and the reported cost of pins: the count for the count
    model, the weighted change otherwise.

    The count is an int.  The weighted change is a sum of terms w*|v - f|, one
    per pinned (variable, position), with f the variable's value at the
    factual positions ``world``.  On the variable's integer scale (values
    n_i/d) and with w = a/b, a term is a*|n_v - n_f| / (b*d).  Every term is
    taken over the least common multiple ``common`` of the pinned variables'
    b*d, so a change is an integer numerator and changes compare exactly as
    the rational sums do: the same order and the same ties.  The reported
    weighted change is that numerator over ``common``.
    """
    terms = {}  # pinned variable -> (a * (common // (b*d)), its numerators, n_f)
    common = 1
    if cost.kind != COST_COUNT:
        for _, pins in candidates:
            for name in pins:
                if name not in terms:
                    w = cost.weight(name)
                    d, numerators = scm._decls[name]._integer_scale()
                    terms[name] = (w.numerator, w.denominator * d, numerators, numerators[world[name]])
        common = lcm(*(den for _, den, _, _ in terms.values()))
        terms = {
            name: (a * (common // den), numerators, at)
            for name, (a, den, numerators, at) in terms.items()
        }

    def change(pins: Positions) -> int:
        total = 0
        for name, position in pins.items():
            factor, numerators, at = terms[name]
            total += factor * abs(numerators[position] - at)
        return total

    def key(candidate: tuple) -> tuple:
        pins = candidate[1]
        if cost.kind == COST_COUNT:
            return (len(pins), *_action_key(pins))
        if cost.kind == COST_WEIGHTED:
            return (change(pins), *_action_key(pins))
        return (len(pins), change(pins), *_action_key(pins))

    def reported(pins: Positions) -> Fraction:
        return Fraction(len(pins)) if cost.kind == COST_COUNT else Fraction(change(pins), common)

    return key, reported


def _ranked(
    query: RecourseQuery, factual: Assignment, world: Positions, candidates: list[tuple],
    clauses: Sequence[Clause], evaluate: Callable[[Positions], Positions],
) -> tuple:
    """The factual state, the candidates as (action, pins) cheapest first,
    ``predict`` and the reported cost of pins (``_rank_keys``).

    ``predict``: pins -> the counterfactual state as positions (by
    ``evaluate``), the plausibility predicate's verdict on it, and each
    clause's verdict, computed as it is drawn.
    """
    scm = query.scm
    key, cost = _rank_keys(scm, query.cost, candidates, world)
    candidates.sort(key=key)
    before = {agent: factual[var] for agent, var in query.agents.items()}

    def predict(pins: Positions) -> tuple[Positions, bool, Iterator[bool]]:
        state = evaluate(pins)
        after = {agent: scm.domain(var)[state[var]] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(scm._values(state)) if query.plausible else True
        return state, plausible_ok, (
            c.holds(query.principal, before, after, plausible_ok) for c in clauses
        )

    return factual, candidates, predict, cost


def _rank(query: RecourseQuery) -> tuple:
    """Check the query, abduct its factual world, and rank its candidate actions
    without predicting any: a cost depends only on the action and the factual
    state.  A candidate is predicted as a pin overlay on the whole model."""
    _check_query(query)
    scm = query.scm
    # Mapping each action to positions checks it against the domains.
    candidates = [(action, scm._positions(action)) for action in query.feasible]
    factual = scm.abduct(query.factual)
    world = scm._positions(factual)
    for clause in query.constraints:
        _known(clause)
    if query.exclude_identity:
        candidates = [c for c in candidates if any(world[n] != p for n, p in c[1].items())]
    return _ranked(
        query, factual, world, candidates, query.constraints,
        lambda pins: scm._evaluate_exact(world, pins),
    )


def _rank_shifts(query: RecourseQuery) -> tuple:
    """``_rank`` for ``solve_cfe_baseline``; every shift is checked, in
    feasible order, before any candidate is predicted."""
    _check_query(query)
    scm = query.scm
    outcome_vars = set(query.agents.values())
    endogenous = scm.endogenous_names
    factual = scm.evaluate({name: v for name, v in query.factual.items() if name not in endogenous})
    for name, value in query.factual.items():
        if factual[name] != value:
            raise InvalidQueryError(
                f"factual value of {name!r} disagrees with the outcome models"
            )

    thresholds: list[Threshold] = []
    for clause in query.constraints:
        if isinstance(clause, Threshold):
            if clause.agent != query.principal:
                raise InvalidQueryError(
                    "the additive baseline only supports thresholds on the principal"
                )
            thresholds.append(clause)
        elif not isinstance(clause, Plausible):
            raise InvalidQueryError(
                f"the additive baseline does not support the {clause_label(clause)} clause"
            )
    if not thresholds:
        thresholds = [Threshold(query.principal, factual[query.agents[query.principal]], strict=True)]

    candidates = []
    for delta in query.feasible:
        # Look every name up first: an unknown one is a DomainError, even unshifted.
        for name in delta:
            scm.decl(name)
        shift = {name: value for name, value in delta.items() if value != 0}
        if outcome_vars & set(shift):
            raise InvalidQueryError("baseline shifts cannot target an agent's outcome variable")
        if query.exclude_identity and not shift:
            continue
        pins: Positions = {}
        for name, amount in shift.items():
            position = scm.decl(name)._index.get(_key(factual[name] + amount))
            if position is None:
                raise DomainError(
                    f"shifting {name!r} by {shown_value(amount)} leaves its domain"
                )
            pins[name] = position
        candidates.append((shift, pins))

    world = scm._positions(factual)

    def evaluate(pins: Positions) -> Positions:
        # Parents that are themselves outcomes read their factual values (no propagation).
        shifted = {**world, **pins}
        return {**shifted, **{var: scm._output(var, shifted) for var in outcome_vars}}

    return _ranked(query, factual, world, candidates, thresholds, evaluate)


def _first_passing(query: RecourseQuery, ranked: tuple) -> RecourseOutcome | None:
    """The outcome of the first candidate, in rank order, whose clauses all
    hold, or None if none does; none ranked after it is predicted."""
    factual, candidates, predict, cost = ranked
    for action, pins in candidates:
        state, plausible_ok, verdicts = predict(pins)
        if plausible_ok and all(verdicts):
            counterfactual = query.scm._values(state)
            per_agent = {
                agent: AgentDelta(factual[query.agents[agent]], counterfactual[query.agents[agent]])
                for agent in sorted(query.agents, key=str)
            }
            return RecourseOutcome(
                dict(action), counterfactual, cost(pins), query.principal, per_agent,
                _flags(query.principal, per_agent),
            )
    return None


def enumerate_feasible(query: RecourseQuery) -> list[FeasibleRow]:
    """Every candidate action with its verdicts, cheapest first.

    ``solve`` returns exactly the first row here whose clauses all hold.
    """
    _, candidates, predict, cost = _rank(query)
    labels = [clause_label(c) for c in query.constraints]
    rows = []
    for action, pins in candidates:
        state, plausible_ok, verdicts = predict(pins)
        rows.append(
            FeasibleRow(
                action=dict(action),
                counterfactual=query.scm._values(state),
                cost=cost(pins),
                plausible=plausible_ok,
                clauses=tuple(zip(labels, verdicts)),
            )
        )
    return rows


def solve(query: RecourseQuery) -> RecourseOutcome | None:
    """Cheapest feasible action satisfying every clause, or None if there is none."""
    return _first_passing(query, _rank(query))


def solve_cfe_baseline(query: RecourseQuery) -> RecourseOutcome | None:
    """Additive-shift solver with no causal propagation.

    Feasible entries are shift vectors.  The factual feature vector is
    completed from the exogenous assignment, each shift is added in place, and
    only the agents' outcome models are re-predicted from the shifted vector;
    every other variable keeps its factual value.  Only threshold constraints
    on the principal are supported; when none is given the principal must
    strictly improve on its factual prediction.  Candidates are ranked and
    picked as in ``solve``.
    """
    return _first_passing(query, _rank_shifts(query))


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


def _assignment(raw: Any, where: str, field: str | None = None) -> dict[str, Fraction]:
    """A JSON object of exact values; a bad value is named by the object's place."""
    items = read_object(raw, where, field)
    try:
        return {name: as_value(v) for name, v in items.items()}
    except ValueError:
        read_values([*items.values()], where, field)  # the first non-number's ParseError
        raise


def _clause_from_dict(item: Any, index: int) -> Clause:
    where = f"constraints[{index}]"
    item = read_object(item, where, allowed={"kind", "strict", "agent", "t"}, required={"kind"})
    kind = read_str(item["kind"], where, "kind")
    if kind not in _CLAUSE_KINDS:
        kinds = ", ".join(sorted(_CLAUSE_KINDS))
        raise ParseError(f"{where} has unknown kind {kind!r}; expected one of {kinds}")
    cls = _CLAUSE_KINDS[kind]
    strict = read_bool(item.get("strict", cls is not Threshold), where, "strict")
    if cls is Threshold:
        read_object(item, where, required={"agent", "t"})
        agent = read_agent(item["agent"], where, "agent")
        try:
            return Threshold(agent, item["t"], strict)
        except ValueError:
            read_value(item["t"], where, "t")  # its ParseError
            raise
    return cls(strict) if cls._fields else cls()


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
    # Read here, not in CostModel, so that a bad weight comes before an unknown kind.
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
    # Every value is read exactly once here, so the query takes them as they are.
    return RecourseQuery._exact(
        scm,
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
