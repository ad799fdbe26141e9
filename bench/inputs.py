"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the benchmark seed, so
the same seed always yields byte-identical files.  The composition of each
input (how many games of each kind, how many queries of each size class) is
fixed; the seed only varies the values inside it.  That keeps the work per
run the same across seeds, so run-to-run spread measures the program and not
the draw.

Models and games are also returned in the plain form of ``tests/oracle.py``
(variables as ``(name, kind, domain)``, equations as
``target -> (parents, table)``) so the reference checks never go through the
package under test.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

EXO = "exogenous"
ENDO = "endogenous"

LOG_HEADER = ["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]
MATRIX_HEADER = ["row_action", "col_action", "p1", "p2"]

# The builtin payoff matrices as published in the README: (a1, a2) -> (p1, p2),
# betray = 1, silent = 0.
BUILTIN_MATRICES = {
    "table1": {(1, 1): ("3.5", "3.5"), (1, 0): ("10", "1"), (0, 1): ("1", "10"), (0, 0): ("5", "5")},
    "table2": {(1, 1): ("35", "35"), (1, 0): ("100", "10"), (0, 1): ("10", "100"), (0, 0): ("65", "65")},
    "table3": {(1, 1): ("45", "45"), (1, 0): ("100", "10"), (0, 1): ("10", "100"), (0, 0): ("75", "75")},
}


def value_text(v: Fraction) -> str:
    """Decimal text when it terminates in two places, else n/d."""
    if v.denominator == 1:
        return str(v.numerator)
    if 100 % v.denominator == 0:
        return str(float(v))
    return f"{v.numerator}/{v.denominator}"


def value_json(v: Fraction):
    return v.numerator if v.denominator == 1 else value_text(v)


def matrix_cells(spec: dict) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    return {k: (Fraction(a), Fraction(b)) for k, (a, b) in spec.items()}


# ------------------------------------------------------------- game logs


@dataclass(frozen=True)
class Game:
    game_id: str
    matrix_id: str
    group: str
    delta: Fraction | None
    rounds: tuple[tuple[int, int], ...]


def custom_matrix(rng: random.Random) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """A random (usually asymmetric) 2x2 matrix with half-integer payoffs."""
    pool = [Fraction(k, 2) for k in range(0, 41)]
    return {cell: (rng.choice(pool), rng.choice(pool)) for cell in product((0, 1), (0, 1))}


def matrix_csv(cells: dict[tuple[int, int], tuple[Fraction, Fraction]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MATRIX_HEADER)
    for (a1, a2) in sorted(cells):
        p1, p2 = cells[(a1, a2)]
        writer.writerow([a1, a2, value_text(p1), value_text(p2)])
    return out.getvalue()


# Share of each kind of game in the mixed log, in units of 1/20.  Kept by the
# single-round filter: one-round test games with delta 0 and one-round control
# games (half the log).  Dropped: multi-round test games with delta 1/2 or
# 3/4, and multi-round control games.
_MIX_TWENTIETHS = (
    ("test_single", 8),
    ("control_single", 2),
    ("test_repeated", 6),
    ("control_repeated", 4),
)


def mixed_log(rng: random.Random, n_games: int, matrix_ids: tuple[str, ...]) -> list[Game]:
    """A log of ``n_games`` games (a multiple of 20 * len(matrix_ids))."""
    unit = 20 * len(matrix_ids)
    if n_games % unit:
        raise ValueError(f"n_games must be a multiple of {unit}")
    slots = []
    for kind, share in _MIX_TWENTIETHS:
        for mid in matrix_ids:
            slots.extend([(kind, mid)] * (n_games // unit * share))
    rng.shuffle(slots)
    games = []
    for i, (kind, mid) in enumerate(slots):
        if kind == "test_single":
            group, delta, n_rounds = "test", Fraction(0), 1
        elif kind == "control_single":
            group, delta, n_rounds = "control", None, 1
        elif kind == "test_repeated":
            group, delta, n_rounds = "test", rng.choice((Fraction(1, 2), Fraction(3, 4))), rng.randint(2, 12)
        else:
            group, delta, n_rounds = "control", None, rng.randint(2, 10)
        rounds = tuple((rng.randrange(2), rng.randrange(2)) for _ in range(n_rounds))
        games.append(Game(f"m{i:06d}", mid, group, delta, rounds))
    return games


def log_csv(games: list[Game]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOG_HEADER)
    for g in games:
        delta = "" if g.delta is None else value_text(g.delta)
        for round_no, (p1, p2) in enumerate(g.rounds, start=1):
            writer.writerow([g.game_id, g.matrix_id, g.group, delta, round_no, p1, p2])
    return out.getvalue()


def parse_log(text: str) -> list[Game]:
    """The benchmark's own reader for the log format (no validation beyond shape)."""
    reader = csv.reader(io.StringIO(text))
    if next(reader) != LOG_HEADER:
        raise ValueError("unexpected log header")
    order: list[str] = []
    meta: dict[str, tuple[str, str, Fraction | None]] = {}
    rounds: dict[str, dict[int, tuple[int, int]]] = {}
    for row in reader:
        if not row:
            continue
        game_id, mid, group, delta, round_no, p1, p2 = row
        if game_id not in meta:
            order.append(game_id)
            meta[game_id] = (mid, group, Fraction(delta) if delta else None)
            rounds[game_id] = {}
        rounds[game_id][int(round_no)] = (int(p1), int(p2))
    return [
        Game(gid, *meta[gid], tuple(rounds[gid][n] for n in sorted(rounds[gid])))
        for gid in order
    ]


def is_single_round(g: Game) -> bool:
    return (g.group == "test" and g.delta == 0) or (g.group == "control" and len(g.rounds) == 1)


# ------------------------------------------------------------ query files
#
# Chain models: exogenous u0..u(k-1), endogenous x0..x(k-1) with
# x_i = f_i(u_i, x_(i-1)) a bijection in u_i for every x_(i-1), and one
# payoff variable h_a per agent reading two of the x's.  Observing every x
# therefore pins every u, and the abduction search spans the product of the
# domains of the u's left unobserved.

_PAYOFF_POOL = [Fraction(k, 2) for k in range(-6, 31)]


@dataclass(frozen=True)
class QuerySpec:
    """Shape of one query: its size class is fixed, the values are drawn."""

    kind: str  # "structural", "ambiguous" or "baseline"
    n_exo: int
    domain_sizes: tuple[int, ...]
    hidden: tuple[int, ...]  # the exogenous variables left unobserved
    n_candidates: int
    n_agents: int
    clause_kinds: frozenset[str]  # which constraint kinds the query carries


def _clause_kinds(shapes: random.Random, kind: str) -> frozenset[str]:
    if kind == "baseline":
        odds = {"threshold": 0.6}
    else:
        odds = {"pi": 0.7, "sw": 0.4, "pareto": 0.3, "threshold": 0.3, "plausible": 0.3}
    return frozenset(name for name, p in odds.items() if shapes.random() < p)


def query_plan(rng: random.Random, n_queries: int) -> list[QuerySpec]:
    """Fixed composition: 5% ambiguous, 10% baseline, and structural queries
    in size classes from 27 to 4096 abduction combinations (the largest class
    holds 8% of the queries).

    The shapes (sizes, candidate counts, agents, constraint kinds) are drawn
    from a generator of their own, the same for every seed, so every seed
    gets the same set of shapes and the work, and its percentiles, do not
    move with the seed.  The seed orders the queries and draws every value
    inside them (make_query).
    """
    shapes = random.Random(n_queries)
    n_ambiguous = n_queries // 20
    n_baseline = n_queries // 10
    n_large = n_queries // 12
    n_medium = n_queries // 5
    n_small = n_queries - n_ambiguous - n_baseline - n_large - n_medium
    specs = []

    def spec(kind, k, sizes, n_unobserved, n_candidates):
        # An ambiguous query hides the last variable, whose x is not observed.
        hidden = (k - 1,) if kind == "ambiguous" else tuple(sorted(shapes.sample(range(k), n_unobserved)))
        return QuerySpec(kind, k, sizes, hidden, n_candidates, shapes.choice((2, 3)),
                         _clause_kinds(shapes, kind))

    def sizes(k):
        return tuple(shapes.choice((3, 4)) for _ in range(k))

    for _ in range(n_ambiguous):
        specs.append(spec("ambiguous", 3, sizes(3), 1, shapes.randint(10, 40)))
    for _ in range(n_baseline):
        k = shapes.randint(3, 8)
        specs.append(spec("baseline", k, sizes(k), 0, shapes.randint(10, 40)))
    for _ in range(n_small):
        k = shapes.randint(3, 8)
        specs.append(spec("structural", k, sizes(k), 3, shapes.randint(10, 40)))
    for _ in range(n_medium):
        k = shapes.randint(5, 8)
        specs.append(spec("structural", k, sizes(k), 5, shapes.randint(10, 40)))
    # One shape for the whole largest class, heavier than any other query, so
    # the 95th percentile falls well inside it.
    for _ in range(n_large):
        specs.append(spec("structural", 8, (4,) * 8, 6, 25))
    rng.shuffle(specs)
    return specs


@dataclass
class QueryCase:
    """One generated query: its JSON document plus the plain form for checks."""

    spec: QuerySpec
    document: dict
    variables: list
    equations: dict
    agents: dict
    principal: int
    factual: dict
    feasible: list
    clauses: list
    cost: tuple
    allow_list: list | None
    exclude_identity: bool


def _chain_model(rng: random.Random, spec: QuerySpec, n_agents: int):
    k = spec.n_exo
    variables = []
    equations = {}
    # The baseline validates each shift amount against the variable's domain
    # as well as the shifted value, so its domains are 0..d-1.
    baseline = spec.kind == "baseline"

    def draw_domain(d, pool):
        return tuple(Fraction(v) for v in (range(d) if baseline else sorted(rng.sample(pool, d))))

    for i, d in enumerate(spec.domain_sizes):
        variables.append((f"u{i}", EXO, draw_domain(d, range(10))))
    domains = {name: dom for name, _, dom in variables}
    for i, d in enumerate(spec.domain_sizes):
        x_dom = draw_domain(d, range(-5, 15))
        perm = list(range(d))
        rng.shuffle(perm)
        u_dom = domains[f"u{i}"]
        if i == 0:
            parents = ("u0",)
            table = {(u,): x_dom[perm[j]] for j, u in enumerate(u_dom)}
        else:
            prev = domains[f"x{i - 1}"]
            step = rng.randint(1, d - 1)
            parents = (f"u{i}", f"x{i - 1}")
            table = {
                (u, p): x_dom[perm[(j + step * q) % d]]
                for j, u in enumerate(u_dom)
                for q, p in enumerate(prev)
            }
        variables.append((f"x{i}", ENDO, x_dom))
        domains[f"x{i}"] = x_dom
        equations[f"x{i}"] = (parents, table)
    # An ambiguous query leaves the last x unobserved, so no payoff may read it.
    readable = [f"x{i}" for i in range(k - 1 if spec.kind == "ambiguous" else k)]
    for a in range(1, n_agents + 1):
        h_dom = tuple(sorted(rng.sample(_PAYOFF_POOL, rng.randint(4, 6))))
        parents = tuple(rng.sample(readable, 2))
        table = {
            combo: rng.choice(h_dom) for combo in product(*(domains[p] for p in parents))
        }
        variables.append((f"h{a}", ENDO, h_dom))
        domains[f"h{a}"] = h_dom
        equations[f"h{a}"] = (parents, table)
    return variables, equations, domains


def _evaluate(equations: dict, exogenous: dict) -> dict:
    # Equations are inserted parents-first, so one pass resolves them.
    state = dict(exogenous)
    for target, (parents, table) in equations.items():
        state[target] = table[tuple(state[p] for p in parents)]
    return state


def _model_document(variables, equations) -> dict:
    return {
        "variables": [
            {"name": n, "kind": kind, "domain": [value_json(v) for v in dom]}
            for n, kind, dom in variables
        ],
        "equations": [
            {
                "target": target,
                "parents": list(parents),
                "table": [
                    {"in": [value_json(v) for v in key], "out": value_json(out)}
                    for key, out in table.items()
                ],
            }
            for target, (parents, table) in equations.items()
        ],
    }


def make_query(rng: random.Random, spec: QuerySpec) -> QueryCase:
    n_agents = spec.n_agents
    variables, equations, domains = _chain_model(rng, spec, n_agents)
    k = spec.n_exo
    exo = {f"u{i}": rng.choice(domains[f"u{i}"]) for i in range(k)}
    state = _evaluate(equations, exo)
    agents = {a: f"h{a}" for a in range(1, n_agents + 1)}
    principal = rng.choice(list(agents))
    xs = [f"x{i}" for i in range(k)]

    if spec.kind == "baseline":
        factual = dict(state)
    else:
        factual = {f"u{i}": exo[f"u{i}"] for i in range(k) if i not in spec.hidden}
        factual.update({x: state[x] for x in xs if not (spec.kind == "ambiguous" and x == xs[-1])})
        factual.update({h: state[h] for h in agents.values()})

    targets = xs + ([f"u{i}" for i in range(k)] if spec.kind == "baseline" else [])

    def options(name):
        if spec.kind == "baseline":
            # Shift amounts that keep the variable inside its domain.
            return domains[name][: len(domains[name]) - int(state[name])]
        return domains[name]

    singles = [{n: v} for n in targets for v in options(n)]
    pairs = [{a: v, b: w} for a, b in combinations(targets, 2) for v in options(a) for w in options(b)]
    n_single = min(len(singles), spec.n_candidates // 2)
    feasible = rng.sample(singles, n_single) + rng.sample(pairs, min(len(pairs), spec.n_candidates - n_single))
    rng.shuffle(feasible)

    clauses: list[tuple] = []
    constraint_docs: list[dict] = []
    if spec.kind == "baseline":
        if "threshold" in spec.clause_kinds:
            t = rng.choice(domains[agents[principal]])
            strict = rng.random() < 0.5
            clauses.append(("threshold", principal, t, strict))
            constraint_docs.append({"kind": "threshold", "agent": principal, "t": value_json(t), "strict": strict})
    else:
        if "pi" in spec.clause_kinds:
            strict = rng.random() < 0.7
            clauses.append(("pi", strict))
            constraint_docs.append({"kind": "principal_improvement", "strict": strict})
        if "sw" in spec.clause_kinds:
            strict = rng.random() < 0.5
            clauses.append(("sw", strict))
            constraint_docs.append({"kind": "social_welfare", "strict": strict})
        if "pareto" in spec.clause_kinds:
            clauses.append(("pareto",))
            constraint_docs.append({"kind": "pareto"})
        if "threshold" in spec.clause_kinds:
            agent = rng.choice(list(agents))
            t = rng.choice(domains[agents[agent]]) + rng.choice((Fraction(0), Fraction(1, 2), Fraction(-1, 2)))
            strict = rng.random() < 0.5
            clauses.append(("threshold", agent, t, strict))
            constraint_docs.append({"kind": "threshold", "agent": agent, "t": value_json(t), "strict": strict})

    allow_list = None
    if "plausible" in spec.clause_kinds:
        allow_list = []
        for _ in range(rng.randint(3, 6)):
            names = rng.sample(xs, min(2, k))[: rng.choice((1, 2))]
            allow_list.append({n: rng.choice(domains[n]) for n in names})
        clauses.append(("plausible",))
        constraint_docs.append({"kind": "plausible"})

    kind = rng.choice(("count", "weighted", "composite"))
    weights = {}
    if rng.random() < 0.4:
        weights = {n: Fraction(rng.randint(0, 6), 2) for n in rng.sample(targets, 2)}
    exclude_identity = rng.random() < 0.5

    document = {
        "scm": _model_document(variables, equations),
        "principal": principal,
        "agents": {str(a): v for a, v in agents.items()},
        "factual": {n: value_json(v) for n, v in factual.items()},
        "feasible": [{n: value_json(v) for n, v in a.items()} for a in feasible],
        "constraints": constraint_docs,
        "cost": {"kind": kind, **({"weights": {n: value_json(w) for n, w in weights.items()}} if weights else {})},
        "exclude_identity": exclude_identity,
        "solver": "baseline" if spec.kind == "baseline" else "structural",
    }
    if allow_list is not None:
        document["plausible"] = [{n: value_json(v) for n, v in e.items()} for e in allow_list]
    return QueryCase(
        spec, document, variables, equations, agents, principal, factual, feasible,
        clauses, (kind, weights), allow_list, exclude_identity,
    )


def query_json(case: QueryCase) -> str:
    return json.dumps(case.document, indent=1) + "\n"
