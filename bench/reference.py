"""Expected outputs, computed without the engine under test.

Structural answers come from ``tests/oracle.py`` (exhaustive abduction,
fixpoint evaluation, a scan over every action).  Experiment reports are
rebuilt by solving each distinct (matrix, p1 action, p2 action, principal)
cell with the oracle once and multiplying by the number of games in it.
The additive baseline has no oracle in the test suite, so it gets a direct
transcription of its documented rule here.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

from inputs import EXO, BUILTIN_MATRICES, QueryCase, matrix_cells

COUNT_FIELDS = (
    "games",
    "queries",
    "recommendations",
    "principal_improved",
    "principal_worsened",
    "opponent_improved",
    "pareto_violated",
    "welfare_increased",
    "welfare_decreased",
)

MODE_CLAUSES = {
    "single_agent": [("pi", True)],
    "social_welfare": [("sw", True)],
    "pareto": [("pi", True), ("pareto",)],
    "pareto_and_welfare": [("pi", True), ("pareto",), ("sw", True)],
}


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def as_fraction(raw) -> Fraction:
    return Fraction(str(raw))


# --------------------------------------------------------------- experiment


def _pd_plain(cells):
    """The one-round game as a plain model: actions exogenous, payoffs endogenous."""
    binary = (Fraction(0), Fraction(1))
    h1 = tuple(sorted({c[0] for c in cells.values()}))
    h2 = tuple(sorted({c[1] for c in cells.values()}))
    variables = [("x1", EXO, binary), ("x2", EXO, binary), ("h1", "endogenous", h1), ("h2", "endogenous", h2)]
    equations = {
        "h1": (("x1", "x2"), {(Fraction(a1), Fraction(a2)): c[0] for (a1, a2), c in cells.items()}),
        "h2": (("x2", "x1"), {(Fraction(a2), Fraction(a1)): c[1] for (a1, a2), c in cells.items()}),
    }
    return variables, equations


def _cell_counts(oracle, variables, equations, a1, a2, principal, clauses) -> dict:
    factual = {"x1": Fraction(a1), "x2": Fraction(a2)}
    own = f"x{principal}"
    result = oracle.brute_force_solve(
        variables, equations, principal, {1: "h1", 2: "h2"}, factual,
        [{own: Fraction(0)}, {own: Fraction(1)}], clauses, ("composite", {}),
        exclude_identity=True,
    )
    counts = dict.fromkeys(COUNT_FIELDS, 0)
    counts["queries"] = 1
    if result[0] != "found":
        return counts
    cf = result[2]
    before = oracle.fixpoint_eval(variables, equations, factual)
    deltas = {a: cf[f"h{a}"] - before[f"h{a}"] for a in (1, 2)}
    welfare = sum(deltas.values())
    counts["recommendations"] = 1
    counts["principal_improved"] = int(deltas[principal] > 0)
    counts["principal_worsened"] = int(deltas[principal] < 0)
    counts["opponent_improved"] = int(any(d > 0 for a, d in deltas.items() if a != principal))
    counts["pareto_violated"] = int(any(d < 0 for d in deltas.values()))
    counts["welfare_increased"] = int(welfare > 0)
    counts["welfare_decreased"] = int(welfare < 0)
    return counts


def expected_report(oracle, kept_games, mode: str, principals, custom=None) -> dict:
    """The JSON report ``experiment --format json`` must print for these games."""
    matrices = {mid: matrix_cells(spec) for mid, spec in BUILTIN_MATRICES.items()}
    if custom is not None:
        matrices["custom"] = custom
    cells = Counter((g.matrix_id, g.rounds[0]) for g in kept_games)
    games_per_matrix = Counter(g.matrix_id for g in kept_games)
    per_matrix = {mid: dict.fromkeys(COUNT_FIELDS, 0) for mid in games_per_matrix}
    for mid, n in games_per_matrix.items():
        per_matrix[mid]["games"] = n
    for (mid, (a1, a2)), n in cells.items():
        variables, equations = _pd_plain(matrices[mid])
        for principal in principals:
            counts = _cell_counts(oracle, variables, equations, a1, a2, principal, MODE_CLAUSES[mode])
            for name in COUNT_FIELDS[1:]:
                per_matrix[mid][name] += n * counts[name]
    overall = {name: sum(c[name] for c in per_matrix.values()) for name in COUNT_FIELDS}
    return {"overall": overall, "per_matrix": dict(sorted(per_matrix.items()))}


# ------------------------------------------------------------------ queries


def _admits(allow_list):
    if allow_list is None:
        return None

    def admitted(state):
        return any(all(state.get(n) == v for n, v in entry.items()) for entry in allow_list)

    return admitted


def _cost_scalar(cost, assigned, base) -> Fraction:
    kind, weights = cost
    if kind == "count":
        return Fraction(len(assigned))
    return sum(
        (weights.get(n, Fraction(1)) * abs(v - base[n]) for n, v in assigned.items()), Fraction(0)
    )


def _outcome(case: QueryCase, action, cf, cost, base) -> dict:
    per_agent = {}
    for agent in sorted(case.agents, key=str):
        var = case.agents[agent]
        per_agent[str(agent)] = (base[var], cf[var], cf[var] - base[var])
    deltas = [d for _, _, d in per_agent.values()]
    return {
        "action": dict(action),
        "counterfactual": {n: cf[n] for n, _, _ in case.variables},
        "cost": cost,
        "principal": case.principal,
        "per_agent": per_agent,
        "flags": (
            per_agent[str(case.principal)][2] > 0,
            any(d < 0 for d in deltas),
            sum(deltas, Fraction(0)),
        ),
    }


def _structural(oracle, case: QueryCase):
    # Observed exogenous variables are pinned to their observed value before
    # the exhaustive search; any consistent completion must agree with them.
    # Actions only pin endogenous variables, so ranks stay on full domains.
    narrowed = [
        (n, kind, (case.factual[n],) if kind == EXO and n in case.factual else dom)
        for n, kind, dom in case.variables
    ]
    states = oracle.completions(narrowed, case.equations, case.factual)
    if len(states) != 1:
        return ("error", "NonInvertibleError")
    base = states[0]
    pinned = [(n, kind, (base[n],) if kind == EXO else dom) for n, kind, dom in case.variables]
    result = oracle.brute_force_solve(
        pinned, case.equations, case.principal, case.agents, case.factual, case.feasible,
        case.clauses, case.cost, _admits(case.allow_list), case.exclude_identity,
    )
    if result[0] == "none":
        return ("none",)
    _, action, cf = result
    return ("found", _outcome(case, action, cf, _cost_scalar(case.cost, action, base), base))


def _baseline(oracle, case: QueryCase):
    """Shift in place, re-predict only the agents' payoff tables, no propagation."""
    base = oracle.fixpoint_eval(
        case.variables, case.equations,
        {n: case.factual[n] for n, kind, _ in case.variables if kind == EXO},
    )
    domains = {n: dom for n, _, dom in case.variables}
    outcome_vars = set(case.agents.values())
    before = {a: base[v] for a, v in case.agents.items()}
    thresholds = [c for c in case.clauses if c[0] == "threshold"]
    admitted = _admits(case.allow_list)
    best = None
    for delta in case.feasible:
        shift = {n: v for n, v in delta.items() if v != 0}
        if case.exclude_identity and not shift:
            continue
        assigned = {n: base[n] + v for n, v in shift.items()}
        shifted = {**base, **assigned}
        frozen = dict(shifted)
        for var in outcome_vars:
            parents, table = case.equations[var]
            shifted[var] = table[tuple(frozen[p] for p in parents)]
        after = {a: shifted[v] for a, v in case.agents.items()}
        if admitted is not None and not admitted(shifted):
            continue
        if thresholds:
            ok = all(oracle.clause_holds(t, case.principal, before, after, True) for t in thresholds)
        else:
            ok = after[case.principal] > before[case.principal]
        if not ok:
            continue
        key = oracle.cost_key(case.cost, assigned, base, domains)
        if best is None or key < best[0]:
            best = (key, shift, shifted, _cost_scalar(case.cost, assigned, base))
    if best is None:
        return ("none",)
    _, shift, shifted, cost = best
    return ("found", _outcome(case, shift, shifted, cost, base))


def expected_query(oracle, case: QueryCase):
    if case.spec.kind == "baseline":
        return _baseline(oracle, case)
    return _structural(oracle, case)


def normalize_outcome(doc: dict) -> dict:
    """An ``outcome_to_dict`` document in the form ``expected_query`` returns."""
    return {
        "action": {n: as_fraction(v) for n, v in doc["action"].items()},
        "counterfactual": {n: as_fraction(v) for n, v in doc["counterfactual"].items()},
        "cost": as_fraction(doc["cost"]),
        "principal": doc["principal"],
        "per_agent": {
            a: (as_fraction(d["before"]), as_fraction(d["after"]), as_fraction(d["delta"]))
            for a, d in doc["per_agent"].items()
        },
        "flags": (
            doc["flags"]["principal_improved"],
            doc["flags"]["pareto_violated"],
            as_fraction(doc["flags"]["welfare_delta"]),
        ),
    }


def query_matches(expected, result: dict) -> bool:
    """Compare one child result ({"error": name} / {"outcome": doc | None})."""
    if "error" in result:
        return expected == ("error", result["error"])
    if result["outcome"] is None:
        return expected == ("none",)
    if expected[0] != "found":
        return False
    try:
        return normalize_outcome(result["outcome"]) == expected[1]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
