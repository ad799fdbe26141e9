"""Recourse solvers: exact enumeration over a finite action set.

Two solvers share the query type, the ranking and the loop that picks an
action, all three defined here; they differ only in how a candidate is
predicted.  ``solve`` returns the cheapest candidate action whose
counterfactual state satisfies every constraint clause plus the plausibility
predicate.  The factual world is abducted once per query and mapped once to
positions in the variables' domains.  An action's cost depends only on the
action and the factual state, so every candidate is ranked before
any is predicted, on integer keys: the count, and the weighted change as a
numerator over the query's common denominator, built from each variable's
domain on its integer scale (``VariableDecl._integer_scale``) and the
weights' numerators and denominators, with no ``Fraction`` arithmetic.
The reported cost is the ranking's own value, made exact.
Values are mapped to positions through maps keyed by ``int`` for integral
values (``scm._key``), and each literal of a query file is read once
(``files``); every query's actions, from a file or built in code, are mapped
to positions the same way (``Scm._positions``).
Candidates are then predicted
in rank order, each as a pin overlay on the model's compiled index tables (no
mutilated model is built), and the first whose clauses all hold is returned;
only its state is turned back into values.  Prediction does no ``Fraction``
arithmetic either: the clauses compare the agents' outcomes as ints on one
scale, and an allow-list (``AllowList``) is checked on the state's positions.
``enumerate_feasible`` shares the
ranking and predicts every candidate for its audit table.
``solve_cfe_baseline``, the deliberately naive additive variant, is in
``baseline`` (served from here on first access): it shifts the named features
in place, re-predicts only the agents' outcome models from their compiled
tables, and never touches the causal structure.

Ties between equal-cost actions break lexicographically over (sorted
intervened variable names, then value positions in each variable's declared
domain), so results are reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterator, Mapping, Sequence, Union, get_args

from .errors import DomainError, InvalidQueryError, ValueRangeError
from .scm import ENDOGENOUS, Assignment, Positions, Scm
from .values import FrozenRecord, Record, as_value, checked_flag, format_value, lazy_names
from .values import shown_repr, shown_value, value_to_json

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

    def _on_scale(self, d: int) -> "Threshold":
        """This clause for outcomes given as integer numerators over ``d``: t*d
        rounded to the integer bound that an integer passes exactly when it
        passes t*d, down for a strict clause and up for a non-strict one."""
        n, den = self.t.numerator * d, self.t.denominator
        return Threshold._exact(self.agent, n // den if self.strict else -(-n // den), self.strict)


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
        total_before = sum(before.values())
        total_after = sum(after.values())
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

    Unlisted variables weigh 1; weights must be nonnegative, and a solver
    refuses a weight for a variable its model does not declare.
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


class AllowList(Record):
    """A plausibility predicate that admits a state when it agrees with some
    entry on every variable the entry names.

    ``entries`` holds each entry as a dict of exact values.  A query file's
    ``plausible`` list is read into one.  The solvers check it on domain
    positions (``_positions``); called on a state of values, it applies the
    same rule to the values.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[Mapping[str, Fraction]]) -> None:
        self.entries = [{name: as_value(v) for name, v in entry.items()} for entry in entries]

    def __call__(self, state: Assignment) -> bool:
        return any(
            all(state.get(name) == value for name, value in entry.items())
            for entry in self.entries
        )

    def _positions(self, scm: Scm) -> list | None:
        """The items of each entry as positions in ``scm``'s domains, for
        ``entry <= state.items()`` on a complete state of positions.  An entry
        that names an undeclared variable or a value outside its domain admits
        no state, and is left out.  None if an entry is not a dict of ints and
        ``Fraction``s, whose equality positions could not stand for."""
        allowed = []
        for entry in self.entries:
            if type(entry) is not dict or not {*map(type, entry.values())} <= {int, Fraction}:
                return None
            try:
                allowed.append(scm._positions(entry).items())
            except DomainError:
                pass
        return allowed


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


# -------------------------------------------------------------------- solver


def _check_query(query: RecourseQuery) -> None:
    if not query.agents:
        raise InvalidQueryError("query declares no agents")
    if query.principal not in query.agents:
        raise InvalidQueryError(f"principal {shown_repr(query.principal)} is not among the agents")
    for agent, variable in query.agents.items():
        if query.scm.decl(variable).kind != ENDOGENOUS:
            raise InvalidQueryError(
                f"outcome variable {variable!r} of agent {shown_repr(agent)} is not endogenous"
            )
    for clause in query.constraints:
        if isinstance(clause, Threshold) and clause.agent not in query.agents:
            raise InvalidQueryError(
                f"threshold clause names unknown agent {shown_repr(clause.agent)}"
            )
    for name in query.cost.weights or ():
        if name not in query.scm._decls:
            raise DomainError(f"cost weight names undeclared variable {name!r}")


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


def _on_one_scale(
    scm: Scm, agents: Mapping[AgentId, str], clauses: Sequence[Clause]
) -> tuple[list[tuple[AgentId, str, tuple]], Sequence[Clause]]:
    """Each agent with its outcome variable and that variable's domain as the
    clauses compare it, and the clauses to check.

    When every clause is of a clause class itself (not of a subclass, whose
    ``holds`` may read the values), the outcome domains are put on one
    integer scale: with ``D`` the least common multiple of their
    ``_integer_scale`` denominators, value v is the int v*D.  Each threshold
    is carried to that scale once (``Threshold._on_scale``).  Since D > 0,
    every comparison and sum gives the verdict it gives on the values.
    Otherwise the domains are the values themselves.
    """
    variables = [(agent, var, scm._decls[var]) for agent, var in agents.items()]
    if not all(type(c) in _CLAUSE_TYPES for c in clauses):
        return [(agent, var, decl.domain) for agent, var, decl in variables], clauses
    d = lcm(*(decl._integer_scale()[0] for _, _, decl in variables))
    outcomes = []
    for agent, var, decl in variables:
        den, numerators = decl._integer_scale()
        outcomes.append((agent, var, tuple(n * (d // den) for n in numerators)))
    return outcomes, [c._on_scale(d) if type(c) is Threshold else c for c in clauses]


def _ranked(
    query: RecourseQuery, factual: Assignment, world: Positions, candidates: list[tuple],
    clauses: Sequence[Clause], evaluate: Callable[[Positions], Positions],
) -> tuple:
    """The factual state, the candidates as (action, pins) cheapest first,
    ``predict`` and the reported cost of pins (``_rank_keys``).

    ``predict``: pins -> the counterfactual state as positions (by
    ``evaluate``), the plausibility predicate's verdict on it, and each
    clause's verdict, computed as it is drawn.  The clauses compare the
    outcomes on one integer scale (``_on_one_scale``).  An ``AllowList`` is
    checked on the state's positions; any other predicate is called on its
    values.
    """
    scm = query.scm
    key, cost = _rank_keys(scm, query.cost, candidates, world)
    candidates.sort(key=key)
    outcomes, clauses = _on_one_scale(scm, query.agents, clauses)
    before = {agent: domain[world[var]] for agent, var, domain in outcomes}
    plausible = query.plausible
    allowed = plausible._positions(scm) if type(plausible) is AllowList else None

    def predict(pins: Positions) -> tuple[Positions, bool, Iterator[bool]]:
        state = evaluate(pins)
        after = {agent: domain[state[var]] for agent, var, domain in outcomes}
        if allowed is not None:
            items = state.items()
            plausible_ok = any(entry <= items for entry in allowed)
        else:
            plausible_ok = plausible(scm._values(state)) if plausible else True
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


# Moved to ``files`` and ``baseline``; ``cli`` reads and serves these from here,
# where the benchmark's tracer (bench/tracing.py) wraps all but ``SOLVER_BASELINE``.
__getattr__ = lazy_names(__name__, {
    "files": ("SOLVER_BASELINE", "load_query", "outcome_to_dict"),
    "baseline": ("solve_cfe_baseline",),
})
