"""The additive baseline solver: recourse without causal propagation.

``solve_cfe_baseline`` is the deliberately naive variant of ``engine.solve``:
it shifts the named features in place, re-predicts only the agents' outcome
models from their compiled tables, and never touches the causal structure.
It shares ``engine``'s query type, ranking and the loop that picks an action.
Only a query file that names the baseline solver runs it, so ``engine``
serves it from here on first access and the paper's experiment never loads it.
"""

from __future__ import annotations

from .engine import (
    Plausible, RecourseOutcome, RecourseQuery, Threshold, _check_query, _first_passing, _ranked,
    clause_label,
)
from .errors import DomainError, InvalidQueryError
from .scm import Positions, _key
from .values import shown_value


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
