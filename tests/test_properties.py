"""Property tests: invariants over randomized models and queries.

Random structures come from seeded generators in oracle.py; hypothesis drives
the seeds so failures shrink to a reproducible integer.  The decoding property
draws its JSON values from hypothesis strategies, so a failure shrinks to the
smallest replaced value.
"""

import copy
import csv
import io
import json
import random
import tempfile
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate, product
from math import ceil, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiagent_recourse as mr
from multiagent_recourse import engine, files, scm as scm_module
from multiagent_recourse.gamelog import ALLOWED_DELTAS
import oracle
from conftest import build_scm_from_plain, plain_clauses_to_engine

SEEDS = st.integers(min_value=0, max_value=10**9)


def exo_assignments(scm):
    names = scm.exogenous_names
    domains = [scm.domain(n) for n in names]
    for combo in product(*domains):
        yield dict(zip(names, combo))


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_evaluate_abduct_round_trip(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    for u in exo_assignments(scm):
        state = scm.evaluate(u)
        # complete observations always abduct back to themselves
        assert scm.abduct(state) == state
        # observing only the endogenous part must agree whenever it succeeds
        endo_view = {n: state[n] for n in scm.endogenous_names}
        try:
            recovered = scm.abduct(endo_view)
        except mr.NonInvertibleError:
            continue
        assert {n: recovered[n] for n in scm.exogenous_names} == u


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_abduction_matches_brute_force_in_any_declaration_order(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng, max_exo=5, max_endo=4)
    rng.shuffle(variables)
    scm = build_scm_from_plain(variables, equations)
    names = [name for name, _, _ in variables]
    domains = {name: domain for name, _, domain in variables}
    world = scm.evaluate({n: rng.choice(domains[n]) for n in scm.exogenous_names})
    # a random partial observation, sometimes contradicting the model
    observation = {
        n: world[n] if rng.random() < 0.8 else rng.choice(domains[n])
        for n in rng.sample(names, rng.randint(0, len(names)))
    }
    expected = oracle.completions(variables, equations, observation)
    if len(expected) != 1:
        message = "several exogenous" if expected else "no exogenous"
        with pytest.raises(mr.NonInvertibleError, match=message):
            scm.abduct(observation)
        return
    state = scm.abduct(observation)
    assert state == expected[0]
    assert list(state) == names
    action = {n: rng.choice(domains[n]) for n in rng.sample(names, rng.randint(0, min(3, len(names))))}
    mutated = scm.intervene(action)
    free = {n: state[n] for n in mutated.exogenous_names}
    assert scm.counterfactual(observation, action) == mutated.evaluate(free)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_counterfactual_consistency(seed):
    # the empty action reproduces the completed factual state
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    for u in exo_assignments(scm):
        state = scm.evaluate(u)
        assert scm.counterfactual(state, {}) == state


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_mutilation_pins_and_disconnects(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    target = rng.choice(scm.endogenous_names)
    value = rng.choice(scm.domain(target))
    pinned = scm.intervene({target: value})
    assert pinned.graph().in_degree(target) == 0
    for u in exo_assignments(scm):
        assert pinned.evaluate(u)[target] == value


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_acyclicity_preserved_by_interventions(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    names = [n for n, _, _ in variables]
    targets = rng.sample(names, rng.randint(1, len(names)))
    action = {n: rng.choice(scm.domain(n)) for n in targets}
    pinned = scm.intervene(action)  # construction re-checks acyclicity
    assert set(pinned.graph().nodes) == set(names)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_pareto_implies_weak_social_welfare(seed):
    # containment: a sum of nonnegative deltas is nonnegative
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    query = mr.RecourseQuery(
        scm=scm,
        principal=parts["principal"],
        agents=parts["agents"],
        factual=parts["factual"],
        feasible=parts["feasible"],
        constraints=[mr.Pareto(), mr.SocialWelfare(strict=False)],
    )
    try:
        rows = mr.enumerate_feasible(query)
    except mr.NonInvertibleError:
        return
    for row in rows:
        verdicts = dict(row.clauses)
        if verdicts["pareto"]:
            assert verdicts["social_welfare(non-strict)"]


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_adding_a_clause_shrinks_the_satisfying_set(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    base_clauses = plain_clauses_to_engine(parts["clauses"])
    extra = rng.choice(
        [mr.Pareto(), mr.SocialWelfare(strict=True), mr.PrincipalImprovement(strict=True)]
    )

    def satisfying(constraints):
        query = mr.RecourseQuery(
            scm=scm,
            principal=parts["principal"],
            agents=parts["agents"],
            factual=parts["factual"],
            feasible=parts["feasible"],
            constraints=constraints,
        )
        rows = mr.enumerate_feasible(query)
        return {
            tuple(sorted(row.action.items())) for row in rows if row.satisfies_all
        }

    try:
        wider = satisfying(base_clauses)
        narrower = satisfying(base_clauses + [extra])
    except mr.NonInvertibleError:
        return
    assert narrower <= wider


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_identity_neutrality(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    endo = rng.sample(scm.endogenous_names, min(2, len(scm.endogenous_names)))
    agents = {i + 1: v for i, v in enumerate(endo)}
    u = {n: rng.choice(scm.domain(n)) for n in scm.exogenous_names}
    query = mr.RecourseQuery(
        scm=scm,
        principal=1,
        agents=agents,
        factual=scm.evaluate(u),
        feasible=[{}],
        constraints=[
            mr.Pareto(),
            mr.SocialWelfare(strict=False),
            mr.SocialWelfare(strict=True),
            mr.PrincipalImprovement(strict=True),
        ],
    )
    (row,) = mr.enumerate_feasible(query)
    verdicts = dict(row.clauses)
    assert verdicts["pareto"]
    assert verdicts["social_welfare(non-strict)"]
    assert not verdicts["social_welfare(strict)"]
    assert not verdicts["principal_improvement(strict)"]


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_solver_matches_brute_force(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    query = mr.RecourseQuery(
        scm=scm,
        principal=parts["principal"],
        agents=parts["agents"],
        factual=parts["factual"],
        feasible=parts["feasible"],
        constraints=plain_clauses_to_engine(parts["clauses"]),
        cost=mr.CostModel(parts["cost"][0], parts["cost"][1] or None),
        plausible=parts["plausible"],
        exclude_identity=parts["exclude_identity"],
    )
    expected = oracle.brute_force_solve(
        variables,
        equations,
        parts["principal"],
        parts["agents"],
        parts["factual"],
        parts["feasible"],
        parts["clauses"],
        parts["cost"],
        parts["plausible"],
        parts["exclude_identity"],
    )
    if expected[0] == "non_invertible":
        with pytest.raises(mr.NonInvertibleError):
            mr.solve(query)
        return
    outcome = mr.solve(query)
    if expected[0] == "none":
        assert outcome is None
    else:
        assert outcome is not None
        assert outcome.action == expected[1]
        assert outcome.counterfactual == expected[2]


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_solve_predicts_only_up_to_the_first_satisfying_row(seed):
    # solve ranks every candidate first, then predicts in rank order and stops
    # at the first row whose clauses all hold: the one enumerate_feasible puts
    # first among those.  Fractional weights give the cost terms several
    # denominators.
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    names = [name for name, _, _ in variables]
    weights = {n: F(rng.randint(0, 6), rng.randint(1, 4)) for n in rng.sample(names, min(3, len(names)))}
    kind = parts["cost"][0]
    query = mr.RecourseQuery(
        scm=scm,
        principal=parts["principal"],
        agents=parts["agents"],
        factual=parts["factual"],
        feasible=parts["feasible"],
        constraints=plain_clauses_to_engine(parts["clauses"]),
        cost=mr.CostModel(kind, weights),
        plausible=parts["plausible"],
        exclude_identity=parts["exclude_identity"],
    )
    try:
        rows = mr.enumerate_feasible(query)
    except mr.NonInvertibleError:
        return
    # The ranking matches the oracle's, which compares Fraction costs.
    base = scm.abduct(parts["factual"])
    domains = {name: domain for name, _, domain in variables}
    keys = [oracle.cost_key((kind, weights), row.action, base, domains) for row in rows]
    assert keys == sorted(keys)

    predicted = []
    evaluate = mr.Scm._evaluate_exact  # a model takes no attributes of its own: patch the class
    with mock.patch.object(
        mr.Scm,
        "_evaluate_exact",
        lambda self, world, pins=None: predicted.append(pins) or evaluate(self, world, pins),
    ):
        outcome = mr.solve(query)
    chosen = next((i for i, row in enumerate(rows) if row.satisfies_all), None)
    if chosen is None:
        assert outcome is None
        assert len(predicted) == len(rows)
    else:
        row = rows[chosen]
        assert (outcome.action, outcome.counterfactual, outcome.cost) == (row.action, row.counterfactual, row.cost)
        assert len(predicted) == chosen + 1
    assert [{n: scm.domain(n)[p] for n, p in pins.items()} for pins in predicted] == [
        row.action for row in rows[: len(predicted)]
    ]


def respell(rng, value):
    """One JSON spelling of an exact value, drawn at random: 1, "1", "2/2" or 1.0."""
    spellings = [str(value), f"{value.numerator * 2}/{value.denominator * 2}"]
    if value.denominator == 1:
        spellings.append(value.numerator)
    if F(repr(float(value))) == value:
        spellings.append(float(value))
    return rng.choice(spellings)


def respelled_model(rng, scm):
    doc = mr.scm_to_dict(scm)
    for variable in doc["variables"]:
        variable["domain"] = [respell(rng, F(v)) for v in variable["domain"]]
    for equation in doc["equations"]:
        for row in equation["table"]:
            row["in"] = [respell(rng, F(v)) for v in row["in"]]
            row["out"] = respell(rng, F(row["out"]))
    return doc


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_model_tables_read_as_positions(seed):
    # A valid model file is read straight into positions: no equation holds a
    # table of values until one is asked for, and the model it gives is the
    # one its tables describe, however its literals are spelled.
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    document = respelled_model(rng, scm)
    loaded = mr.scm_from_dict(document)
    assert all(eq._table is None for eq in loaded.equations)
    # A mutilated model reuses the kept equations' positions as they are.
    names = [name for name, _, _ in variables]
    action = {n: rng.choice(scm.domain(n)) for n in rng.sample(names, rng.randint(1, min(2, len(names))))}
    mutated = loaded.intervene(action)
    assert all(eq._table is None for eq in mutated.equations if eq.target not in action)
    assert mutated == scm.intervene(action)
    assert mr.graph_to_dot(loaded.graph()) == mr.graph_to_dot(scm.graph())
    assert mr.scm_to_dict(loaded) == mr.scm_to_dict(scm)
    assert mr.scm_to_dict(mr.scm_from_dict(mr.scm_to_dict(loaded))) == mr.scm_to_dict(scm)
    assert loaded == scm
    for u in exo_assignments(scm):
        assert loaded.evaluate(u) == scm.evaluate(u)


TABLE_VALUES = [F(0), F(1), F(-2), F(1, 2), F(7, 3), F(5)]
# Literals no table may hold: bools, non-numbers, and a number past the literal bound.
NOT_NUMBERS = [True, False, None, "x", "", [], {}, [1], {"in": 1}, "1e999999"]


def literal(rng, value):
    """``value`` spelled as ``respell`` does, or as the Fraction a decoded float is."""
    return value if rng.random() < 0.2 else respell(rng, value)


def damaged_table(rng, table, domains):
    """``table`` (a list of rows) with one defect of a kind drawn at random."""
    defect = rng.choice(
        ["repeat", "drop", "stray", "out", "arity", "extra", "not-object", "not-number",
         "bool", "missing-key", "in-not-list"]
    )
    intact = [
        j for j, row in enumerate(table)
        if isinstance(row, dict) and isinstance(row.get("in"), list) and "out" in row
    ]
    if not intact:
        return table
    j = rng.choice(intact)
    row = table[j]
    # The domain of each input of the row (an input past the parents gets the
    # last parent's), then of its output.
    spots = [domains[min(k, len(domains) - 2)] for k in range(len(row["in"]))] + [domains[-1]]
    if defect == "repeat":
        table.insert(rng.randrange(len(table) + 1), copy.deepcopy(row))
    elif defect == "drop":
        del table[j]
    elif defect == "stray" and row["in"]:
        k = rng.randrange(len(row["in"]))
        row["in"][k] = literal(rng, rng.choice([v for v in TABLE_VALUES if v not in spots[k]] or [F(9)]))
    elif defect == "out":
        row["out"] = literal(rng, rng.choice([v for v in TABLE_VALUES if v not in domains[-1]] or [F(9)]))
    elif defect == "arity":
        shorter = row["in"] and rng.random() < 0.5
        row["in"] = row["in"][:-1] if shorter else row["in"] + [literal(rng, F(0))]
    elif defect == "extra":
        row[rng.choice(["x", "In", "parents"])] = 0
    elif defect == "not-object":
        table[j] = rng.choice([[row["in"], row["out"]], 0, None, "row", list(row.items())])
    elif defect in ("not-number", "bool"):
        spot = rng.randrange(len(spots))
        if defect == "bool":  # equal to a domain value where it can be (True == 1), so a lookup finds it
            bad = F(1) in spots[spot] if rng.random() < 0.8 else rng.random() < 0.5
        else:
            bad = rng.choice(NOT_NUMBERS)
        if spot == len(row["in"]):
            row["out"] = bad
        else:
            row["in"][spot] = bad
    elif defect == "missing-key":
        del row[rng.choice(["in", "out"])]
    elif defect == "in-not-list":
        row["in"] = rng.choice([tuple(row["in"]), {"a": 0}, "01", 0])
    return table


def random_table_document(rng, arity):
    """A model with one equation of ``arity`` parents, its literals spelled at
    random and, most of the time, one or two defects somewhere in its table or
    domains."""
    domains = [rng.sample(TABLE_VALUES, rng.randint(1, 3)) for _ in range(arity + 1)]
    if rng.random() < 0.1:  # a domain that repeats a value, so it gets no memo
        repeated = rng.choice(domains)
        repeated.append(rng.choice(repeated))
    variables = [
        {"name": f"u{k}", "kind": "exogenous", "domain": [literal(rng, v) for v in domain]}
        for k, domain in enumerate(domains[:-1])
    ]
    variables.append({"name": "y", "kind": "endogenous", "domain": [literal(rng, v) for v in domains[-1]]})
    table = [
        {"in": [literal(rng, v) for v in combo], "out": literal(rng, rng.choice(domains[-1]))}
        for combo in product(*domains[:-1])
    ]
    rng.shuffle(table)
    for _ in range(rng.choice([0, 1, 1, 2])):
        table = damaged_table(rng, table, domains)
    parents = [f"u{k}" for k in range(arity)]
    if parents and rng.random() < 0.05:
        parents[rng.randrange(arity)] = "undeclared"
    return {"variables": variables, "equations": [{"target": "y", "parents": parents, "table": table}]}


def read_or_error(document):
    try:
        return mr.scm_from_dict(copy.deepcopy(document))
    except mr.RecourseError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("arity", [0, 1, 2, 3])  # the general loop, both unrolled bodies, general again
@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_model_reader_matches_the_value_path(arity, seed):
    # A table read straight into positions gives the model, or the error,
    # that reading it as values (_read_table, StructuralEquation, Scm) gives.
    document = random_table_document(random.Random(seed), arity)
    fast = read_or_error(document)
    with mock.patch.object(files, "_table_positions", return_value=None):
        slow = read_or_error(document)
    assert type(fast) is type(slow)
    if isinstance(slow, mr.Scm):
        assert fast.equations[0]._table is None  # read as positions
        assert slow.equations[0]._positions is None  # read as values
        assert fast._compiled == slow._compiled and fast._order == slow._order
    assert fast == slow


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_json_query_with_respelled_literals_matches_brute_force(seed):
    # The same model and query as test_solver_matches_brute_force, but loaded
    # from their JSON form with every literal spelled one of several ways.
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    clauses = []
    for clause in parts["clauses"]:
        if clause[0] == "threshold":
            _, agent, t, strict = clause
            clauses.append({"kind": "threshold", "agent": agent, "t": respell(rng, t), "strict": strict})
        elif clause[0] == "pareto":
            clauses.append({"kind": "pareto"})
        else:
            kind = "principal_improvement" if clause[0] == "pi" else "social_welfare"
            clauses.append({"kind": kind, "strict": clause[1]})
    kind, weights = parts["cost"]
    cost = {"kind": kind}
    if weights:
        cost["weights"] = {name: respell(rng, w) for name, w in weights.items()}
    document = {
        "scm": respelled_model(rng, scm),
        "principal": parts["principal"],
        "agents": {str(agent): var for agent, var in parts["agents"].items()},
        "factual": {name: respell(rng, v) for name, v in parts["factual"].items()},
        "feasible": [
            {name: respell(rng, v) for name, v in action.items()} for action in parts["feasible"]
        ],
        "constraints": clauses,
        "cost": cost,
        "exclude_identity": parts["exclude_identity"],
    }
    query, solver = mr.query_from_dict(document)
    assert solver == "structural"
    expected = oracle.brute_force_solve(
        variables,
        equations,
        parts["principal"],
        parts["agents"],
        parts["factual"],
        parts["feasible"],
        parts["clauses"],
        parts["cost"],
        None,
        parts["exclude_identity"],
    )
    if expected[0] == "non_invertible":
        with pytest.raises(mr.NonInvertibleError):
            mr.solve(query)
        return
    outcome = mr.solve(query)
    if expected[0] == "none":
        assert outcome is None
    else:
        assert outcome is not None
        assert outcome.action == expected[1]
        assert outcome.counterfactual == expected[2]


# Valid documents of each kind that the decoders read, every optional field
# present so that a replacement can reach each of them.
FUZZ_MODEL = mr.scm_to_dict(mr.pd_scm(mr.builtin_matrix("table1")))
FUZZ_QUERY = {
    "scm": FUZZ_MODEL,
    "principal": 1,
    "agents": {"1": "h1", "2": "h2"},
    "factual": {"x1": 0, "x2": 1},
    "feasible": [{"x1": 1}, {"x2": 0}, {}],
    "constraints": [
        {"kind": "threshold", "agent": 1, "t": "1/2", "strict": False},
        {"kind": "principal_improvement", "strict": True},
        {"kind": "social_welfare", "strict": False},
        {"kind": "pareto"},
        {"kind": "plausible"},
    ],
    "cost": {"kind": "weighted", "weights": {"x1": 2, "x2": 0.5}},
    "plausible": [{"x1": 1}, {"x2": 0}],
    "exclude_identity": False,
    "solver": "structural",
}
FUZZ_BASELINE = dict(
    FUZZ_QUERY,
    constraints=[{"kind": "threshold", "agent": "1", "t": 3, "strict": True}],
    feasible=[{"x1": 1}, {"x2": -1}],
    solver="baseline",
)
FUZZ_REPORT = json.loads(
    mr.render_report(
        mr.run_experiment(mr.generate_synthetic_log(6, 3, {"table1": 1}, seed=1), mr.ExperimentConfig()),
        "json",
    )
)

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = (
    JSON_SCALARS
    | st.lists(JSON_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=4), JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2), max_size=3)
)


def json_paths(node, path=()):
    """The path (keys and indices) of ``node`` and of every value inside it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from json_paths(child, path + (key,))


def replaced(document, path, value):
    """A deep copy of ``document`` with the value at ``path`` set to ``value``."""
    if not path:
        return value
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


def decode(kind, document):
    """Decode ``document`` as the CLI would, solving a query and writing its outcome."""
    if kind == "model":
        mr.scm_from_dict(document)
    elif kind == "report":
        mr.report_from_json(json.dumps(document))
    else:
        query, solver = mr.query_from_dict(document)
        outcome = (mr.solve if solver == "structural" else mr.solve_cfe_baseline)(query)
        if outcome is not None:
            json.dumps(mr.outcome_to_dict(outcome))


FUZZ_DOCUMENTS = {
    "query": ("query", FUZZ_QUERY),
    "baseline": ("query", FUZZ_BASELINE),
    "model": ("model", FUZZ_MODEL),
    "report": ("report", FUZZ_REPORT),
}
# Every place a replacement can go: (kind, document, path).  Inside a query's
# embedded model only "scm" itself: the model document covers the rest.
FUZZ_SITES = [
    (kind, document, path)
    for kind, document in FUZZ_DOCUMENTS.values()
    for path in json_paths(document)
    if not (kind == "query" and path[:1] == ("scm",) and len(path) > 1)
]


@pytest.mark.parametrize("name", list(FUZZ_DOCUMENTS))
def test_fuzz_documents_are_valid(name):
    decode(*FUZZ_DOCUMENTS[name])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUZZ_SITES), JSON_VALUES)
def test_one_replaced_field_decodes_or_raises_a_recourse_error(site, value):
    kind, document, path = site
    try:
        decode(kind, replaced(document, path, value))
    except mr.RecourseError:
        pass


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_matrix_invertibility_iff_distinct_payoff_pairs(seed):
    rng = random.Random(seed)
    pool = [F(k) for k in range(4)]
    entries = {
        (a, b): (rng.choice(pool), rng.choice(pool))
        for a, b in product((0, 1), repeat=2)
    }
    matrix = mr.PayoffMatrix("random", entries)
    scm = mr.pd_scm(matrix)
    distinct = len(set(entries.values())) == 4
    invertible = True
    for a, b in product((0, 1), repeat=2):
        p1, p2 = matrix.payoffs(a, b)
        try:
            scm.abduct({"h1": p1, "h2": p2})
        except mr.NonInvertibleError:
            invertible = False
    assert invertible == distinct


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_operations_are_deterministic(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    u = {n: rng.choice(scm.domain(n)) for n in scm.exogenous_names}
    state = scm.evaluate(u)
    assert scm.evaluate(u) == state
    assert scm.abduct(state) == scm.abduct(state)
    target = rng.choice(scm.endogenous_names)
    value = rng.choice(scm.domain(target))
    assert scm.counterfactual(state, {target: value}) == scm.counterfactual(
        state, {target: value}
    )


def kahn_by_declaration(variables, equations):
    """The order the quadratic Kahn's algorithm gave: the ready targets, each
    batch that one placement frees sorted by declaration; or its cycle message."""
    declared = {name: i for i, (name, _, _) in enumerate(variables)}
    pending = {t: {p for p in parents if p in equations} for t, (parents, _) in equations.items()}
    order = []
    ready = sorted((t for t, deps in pending.items() if not deps), key=declared.get)
    while ready:
        target = ready.pop(0)
        order.append(target)
        del pending[target]
        newly = []
        for other, deps in pending.items():
            if target in deps:
                deps.discard(target)
                if not deps:
                    newly.append(other)
        ready.extend(sorted(newly, key=declared.get))
    if pending:
        return "causal graph has a cycle through: " + ", ".join(sorted(pending))
    return tuple(order)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_topological_order_matches_kahn_by_declaration(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng, max_exo=3, max_endo=6)
    domains = {name: domain for name, _, domain in variables}
    for _ in range(rng.randint(0, 2)):  # extra edges between endogenous variables may close cycles
        target, parent = rng.choice(list(equations)), rng.choice(list(equations))
        parents = equations[target][0]
        if parent not in parents:
            parents += (parent,)
            rows = product(*(domains[p] for p in parents))
            equations[target] = (parents, {row: rng.choice(domains[target]) for row in rows})
    rng.shuffle(variables)
    equations = dict(rng.sample(list(equations.items()), len(equations)))
    expected = kahn_by_declaration(variables, equations)
    if isinstance(expected, str):
        with pytest.raises(mr.CycleError) as raised:
            build_scm_from_plain(variables, equations)
        assert str(raised.value) == expected
    else:
        assert build_scm_from_plain(variables, equations)._order == expected


# Spellings that the log reader accepts for each value.
DELTA_SPELLINGS = {
    F(0): ["0", "0.0", " 0", "0/3", "-0"],
    F(1, 2): ["1/2", "0.5", " 1/2", "2/4", "0.50 "],
    F(3, 4): ["3/4", " 3/4", "0.75", "6/8"],
}
ACTION_SPELLINGS = {0: ["0", "00", "+0", " 0"], 1: ["1", "01", "+1", " 1 "]}


def read_log_directly(text):
    """Each row read on its own: the delta by Fraction, numbers by int()."""
    games = {}
    for row in csv.reader(io.StringIO(text)):
        if not row or row[0] == "game_id":
            continue
        game_id, matrix_id, group, delta, round_no, p1, p2 = row
        record = games.setdefault(
            game_id,
            mr.GameRecord(game_id, matrix_id, group, F(delta.strip()) if group == "test" else None, []),
        )
        record.rounds.append((int(round_no), int(p1), int(p2)))
    for record in games.values():
        record.rounds = [(p1, p2) for _, p1, p2 in sorted(record.rounds)]
    return list(games.values())


def mixed_log_rows(rng, game_ids, matrix_ids):
    """The rows of a random log, its values spelled in any way the reader
    accepts, its games in any order; ``game_ids(i)`` gives the choices for
    the id of the i-th game."""
    # Half the logs spell every value one way, so that their games share row tails.
    canonical = rng.random() < 0.5
    spell = (lambda options: options[0]) if canonical else rng.choice
    games = []
    for i in range(rng.choice([rng.randint(1, 12), rng.randint(20, 80)])):
        game_id = rng.choice(game_ids(i))
        matrix_id = rng.choice(matrix_ids)
        group = rng.choice(["test", "control"])
        delta = rng.choice(list(DELTA_SPELLINGS)) if group == "test" else None
        rows = []
        for round_no in range(1, rng.randint(1, 4) + 1):
            delta_text = "" if delta is None else spell(DELTA_SPELLINGS[delta])
            actions = [spell(ACTION_SPELLINGS[rng.randrange(2)]) for _ in range(2)]
            round_text = spell([str(round_no), f"0{round_no}", f"+{round_no}"])
            rows.append([game_id, matrix_id, group, delta_text, round_text, *actions])
        games.append(rows)
    order = rng.choice(["any", "games", "interleaved"])
    if order == "any":  # games interleave and their rounds come in any order
        rows = [row for game in games for row in game]
        rng.shuffle(rows)
    elif order == "games":  # one game after another, its rounds in any order
        for game in games:
            rng.shuffle(game)
        rows = [row for game in games for row in game]
    else:  # games interleave, each starting past round 1 when it has more than one
        for game in games:
            game[:] = game[1:] + game[:1]
        rows = []
        while any(games):
            rows.append(rng.choice([game for game in games if game]).pop(0))
    return rows


def log_text(rng, rows):
    """A log of ``rows``, with blank lines, quoting and line ends drawn at random."""
    out = io.StringIO()
    out.write("game_id,matrix_id,group,delta,round,p1_action,p2_action\n")
    for row in rows:
        if rng.random() < 0.2:
            out.write(rng.choice(["\n", "\r\n"]))
        quoting = rng.choice([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
        terminator = rng.choice(["\n", "\r\n"])
        if any("\r" in field for field in row):  # the writer quotes a "\r" only if it ends rows with one
            terminator = "\r\n"
        csv.writer(out, quoting=quoting, lineterminator=terminator).writerow(row)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_log_with_mixed_spellings_reads_as_row_by_row(seed):
    rng = random.Random(seed)
    rows = mixed_log_rows(
        rng, lambda i: [f"g{i}", f"g,{i}", f'g "{i}"', f"g\n{i}"], ["table1", "table2", "my, matrix"]
    )
    text = log_text(rng, rows)
    records = mr.parse_game_log_text(text)
    assert records == read_log_directly(text)
    for record in records:
        assert record.delta is None or any(record.delta is d for d in ALLOWED_DELTAS)


def csv_field(value):
    """A CSV field as a reader needs it: quoted when it holds a comma, a
    quote or a line break, its quotes doubled."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_log_row_by_row(records):
    """The log written field by field, without the csv module."""
    rows = [["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"]]
    for record in records:
        delta_text = "" if record.delta is None else mr.format_value(record.delta)
        for round_no, (p1, p2) in enumerate(record.rounds, start=1):
            rows.append([record.game_id, record.matrix_id, record.group, delta_text, round_no, p1, p2])
    return "".join(",".join(map(csv_field, row)) + "\n" for row in rows)


# Ids with every character the CSV writer quotes, non-ASCII letters and digits, or nothing.
ODD_IDS = ["", "g,1", 'g"1', "g\n1", "g\r1", "g 1", " ", "gé1", "ß", "g١"]
MATRIX_IDS = ["table1", "table2", "my, matrix", 'say "t"', "t\n1", "t\r2", "t 3", "tableé", ""]


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_log_writer_matches_row_by_row_writer(seed):
    rng = random.Random(seed)
    records = []
    for i in range(rng.randint(0, 30)):
        game_id = rng.choice([f"g{i}", f"g{i % 4}", rng.choice(ODD_IDS)])
        # Equal deltas come as one shared object or as distinct ones.
        delta = rng.choice([None, *ALLOWED_DELTAS, F(rng.choice(["0", "1/2", "3/4"]))])
        # A bool action is written "True": it must not share the tail of a 1.
        rounds = [
            (rng.choice([0, 1, 1, True]), rng.choice([0, 1, 0, False]))
            for _ in range(rng.randint(1, 12))
        ]
        records.append(
            mr.GameRecord(game_id, rng.choice(MATRIX_IDS), rng.choice(["test", "control"]), delta, rounds)
        )
    assert mr.write_game_log(records) == write_log_row_by_row(records)


def generate_log_game_by_game(n_total, n_principal_silent, matrix_mix, seed):
    """The synthetic log as it was drawn: a set probe and two draws per game."""
    proportions = [(mid, mr.as_value(p)) for mid, p in sorted(matrix_mix.items())]
    ids = [mid for mid, _ in proportions]
    bounds = [ceil(c * 2**53) for c in accumulate(p for _, p in proportions)]
    rng = random.Random(seed)
    silent_games = set(rng.sample(range(n_total), n_principal_silent))
    records = []
    for i in range(n_total):
        matrix_id = ids[bisect_right(bounds, int(rng.random() * 2**53))]
        p1 = mr.SILENT if i in silent_games else mr.BETRAY
        p2 = rng.randrange(2)
        records.append(mr.GameRecord(f"g{i:05d}", matrix_id, "test", F(0), [(p1, p2)]))
    return records


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_synthetic_log_draws_as_game_by_game(seed):
    rng = random.Random(seed)
    n_total = rng.choice([rng.randint(0, 300), rng.randint(0, 3000)])
    n_silent = rng.choice([0, n_total, rng.randint(0, n_total)])
    mix = rng.choice([
        {"table2": 1},
        {"table1": F(1, 4), "table2": F(1, 4), "table3": F(1, 2)},
        {"table3": "0.7", "table1": "0.3", "table2": 0},
        {"table1": F(1, 3), "mine": 0, "table2": F(1, 6), "table3": F(1, 2)},
    ])
    expected = generate_log_game_by_game(n_total, n_silent, mix, seed)
    assert mr.generate_synthetic_log(n_total, n_silent, mix, seed) == expected


# Ids of one mix must sort together: strings the CSV writer quotes or not
# (a quote, a comma, a line break, a space, non-ASCII, nothing), or ids of
# another type, which the log writer sends through the CSV writer whole.
GENERATED_MATRIX_IDS = [
    ["table1", "table2", "table3", 'say "t"', "my, matrix", "t\n1", "t\r2", "t 3", "tableé", "ß", ""],
    [1, 2, -3, 10**20],
    [True],
    [("a", 1), ("b", 2)],
]


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_synthetic_log_text_equals_the_written_records(seed):
    rng = random.Random(seed)
    n_total = rng.choice([0, rng.randint(0, 300)])
    n_silent = rng.randint(0, n_total)
    ids = rng.choice(GENERATED_MATRIX_IDS)
    ids = rng.sample(ids, rng.randint(1, len(ids)))
    weights = [rng.randint(0, 3) for _ in ids]
    weights[0] += sum(weights) == 0
    mix = {mid: rng.choice([F(w, sum(weights)), str(F(w, sum(weights)))]) for mid, w in zip(ids, weights)}
    expected = mr.write_game_log(generate_log_game_by_game(n_total, n_silent, mix, seed))
    assert mr.synthetic_log_text(n_total, n_silent, mix, seed) == expected


# ------------------------------------ every log and report that reads is written back

# Text for one field of one row, so that some logs do not read.
LOG_JUNK = ["", "x", "2", "-1", "0", "1/3", "probe", "1e999", "g\x00"]


def read_log(text, through_file):
    """The records of a log, or its error's type and message; read from a
    UTF-8 file holding ``text`` if ``through_file``, else from the text."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder, "log.csv")
        try:
            if not through_file:
                return mr.parse_game_log_text(text)
            path.write_bytes(text.encode("utf-8"))
            return mr.parse_game_log(path)
        except mr.RecourseError as exc:  # a file's CSV errors also name the file
            return type(exc), str(exc).removeprefix(f"{path}: ")


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_every_log_that_reads_is_written_back(seed):
    """A log that reads, with odd and non-ASCII ids, control games, several
    rounds and rows out of order, is written without raising, reads back to
    equal records from text and from a file, and is written again to the
    same text."""
    rng = random.Random(seed)
    odd = [game_id for game_id in ODD_IDS if game_id] + ["game_id", "é́", "\ud800"]
    rows = mixed_log_rows(rng, lambda i: [f"g{i}", f"{rng.choice(odd)}{i}", f"{i}{rng.choice(odd)}"], MATRIX_IDS)
    if rng.random() < 0.2:
        rng.choice(rows)[rng.randrange(7)] = rng.choice(LOG_JUNK)
    text = log_text(rng, rows)
    try:
        records = mr.parse_game_log_text(text)
    except mr.RecourseError:
        return
    written = mr.write_game_log(records)
    assert mr.parse_game_log_text(written) == records
    assert mr.write_game_log(mr.parse_game_log_text(written)) == written
    if "\ud800" not in text:  # a lone surrogate, which no UTF-8 file holds
        assert read_log(text, through_file=True) == records
        assert read_log(written, through_file=True) == records


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_a_log_reads_alike_with_any_line_ends(seed):
    r"""A log whose rows end in "\n", "\r\n" or "\r", its fields quoted and
    holding any line break, gives the same records, or the same error on
    the same line, from text and from a file."""
    rng = random.Random(seed)
    odd = ["g\r1", "g\n1", "g\r\n1", "g,1", "gé1"]
    rows = mixed_log_rows(rng, lambda i: [f"g{i}", f"{rng.choice(odd)}{i}"], MATRIX_IDS)
    if rng.random() < 0.5:
        rng.choice(rows)[rng.randrange(7)] = rng.choice(LOG_JUNK)
    outcomes = set()
    for terminator in ("\n", "\r\n", "\r"):
        out = io.StringIO()
        writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator=terminator)
        writer.writerows([["game_id", "matrix_id", "group", "delta", "round", "p1_action", "p2_action"], *rows])
        for through_file in (False, True):
            outcomes.add(repr(read_log(out.getvalue(), through_file)))
    assert len(outcomes) == 1, outcomes


COUNT_FIELDS = list(mr.OutcomeCounts._fields)
# Scope names the CSV writer quotes or not, non-ASCII ones, a lone surrogate
# (JSON can spell it) and names near 'overall', which only the totals may use.
SCOPE_NAMES = [
    "table1", "", " ", "my, matrix", 'say "t"', "t\n1", "t\r2", "tableé", "ß", "\ud800", "1",
    "scope", "Overall", "overall ",
]


def random_counts(rng):
    """Report counts, most of them consistent, some up to the 4300-digit limit."""
    big = rng.choice([10, 10**6, 10**40, 10**4299])
    queries = rng.randint(0, big)
    counts = {"games": rng.randint(0, big), "queries": queries, "recommendations": rng.randint(0, queries)}
    for name in COUNT_FIELDS[3:]:
        counts[name] = rng.randint(0, counts["recommendations"])
    if rng.random() < 0.1:
        counts[rng.choice(COUNT_FIELDS)] = rng.choice([-1, big + 1])
    return counts


def assert_written_back(report):
    """``report`` is written in every format, and its JSON and CSV read back equal."""
    assert mr.report_from_json(mr.render_report(report, "json")) == report
    assert mr.report_from_csv(mr.render_report(report, "csv")) == report
    mr.render_report(report, "table")


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_every_json_report_that_reads_is_written_back(seed):
    rng = random.Random(seed)
    names = rng.sample(SCOPE_NAMES + ["overall"], rng.randint(0, 5))
    document = {"overall": random_counts(rng), "per_matrix": {name: random_counts(rng) for name in names}}
    try:
        report = mr.report_from_json(json.dumps(document, indent=rng.choice([None, 2])))
    except mr.ParseError:
        return
    assert "overall" not in report.per_matrix
    assert_written_back(report)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_every_csv_report_that_reads_is_written_back(seed):
    rng = random.Random(seed)
    names = rng.sample(SCOPE_NAMES + ["overall", "overall"], rng.randint(0, 6))
    if rng.random() < 0.9:
        names.insert(rng.randint(0, len(names)), "overall")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(["scope", *COUNT_FIELDS])
    for name in names:
        quoting = rng.choice([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
        writer = csv.writer(out, quoting=quoting, lineterminator=rng.choice(["\n", "\r\n"]))
        writer.writerow([name, *random_counts(rng).values()])
    try:
        report = mr.report_from_csv(out.getvalue())
    except mr.ParseError:
        return
    assert_written_back(report)


# ------------------------------------------------- integer keys and cost terms

# Numeric hashes are taken modulo 2**61 - 1, so ints around it collide with
# small ones; a value->position map must still tell them apart.
HASH_MODULUS = 2**61 - 1
DOMAIN_VALUES = st.one_of(
    st.integers(-6, 6),
    st.integers(-(2**70), 2**70),
    st.sampled_from([HASH_MODULUS - 1, HASH_MODULUS, HASH_MODULUS + 1, 2**64, -HASH_MODULUS, -(2**64) - 1]),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.fractions(max_denominator=2**62),
).map(F)


def spellings(value):
    """Ways a file or a caller writes ``value``: the Fraction, its int, and
    strings as a file writes them."""
    out = [value, mr.format_value(value), f"{value.numerator * 2}/{value.denominator * 2}", f" {value} "]
    if value.denominator == 1:
        out.append(value.numerator)
    return out


def plain_lookup(domain, raw):
    """The position of ``raw`` in a plain {Fraction: position} map of ``domain``
    (the last one when a value repeats), or None; a literal that does not read
    raises as ``as_value`` does."""
    return {v: i for i, v in enumerate(domain)}.get(mr.as_value(raw))


@settings(max_examples=300, deadline=None)
@given(st.lists(DOMAIN_VALUES, min_size=1, max_size=8), st.data())
def test_int_keyed_domain_maps_look_up_as_a_fraction_map(domain, data):
    # Repeat some values, spelled as ints where they are integral.
    domain = domain + data.draw(st.lists(st.sampled_from(domain), max_size=2))
    decl = mr.VariableDecl("v", mr.EXOGENOUS, domain)
    probes = domain + data.draw(st.lists(DOMAIN_VALUES, max_size=4))
    repeats = len(set(domain)) != len(domain)
    scm = None if repeats else mr.Scm((decl,), ())
    # A model file's memo, starting from the domain's own value->position map.
    memo = None if repeats else files._PositionMemo(decl)
    for value in probes:
        for raw in spellings(value):
            expected = plain_lookup(domain, raw)
            assert decl._index.get(scm_module._literal_key(raw)) == expected
            if scm is None:
                continue
            if expected is None:
                with pytest.raises(mr.DomainError, match="is outside the domain of 'v'"):
                    scm._positions({"v": raw})
                with pytest.raises(KeyError):
                    memo[raw]
            else:
                assert scm._positions({"v": raw}) == {"v": expected}
                assert memo[raw] == expected
    if scm is not None:
        with pytest.raises(ValueError, match="cannot interpret bool value True as a rational"):
            scm._positions({"v": True})


def rank_keys_by_fractions(cost, candidates, factual):
    """Sort key of a candidate (action, pins, ...) as it was built before integer
    cost terms, kept as the oracle: each term w*|v - f| a Fraction, scaled to
    the terms' common denominator."""
    scaled = {}
    if cost.kind != engine.COST_COUNT:
        terms = {}
        for action, pins, *_ in candidates:
            for name, position in pins.items():
                if (name, position) not in terms:
                    terms[name, position] = cost.weight(name) * abs(action[name] - factual[name])
        scale = lcm(*(term.denominator for term in terms.values()))
        scaled = {item: t.numerator * (scale // t.denominator) for item, t in terms.items()}

    def key(candidate):
        pins = candidate[1]
        if cost.kind == engine.COST_COUNT:
            return (len(pins), *engine._action_key(pins))
        change = sum(map(scaled.__getitem__, pins.items()))
        if cost.kind == engine.COST_WEIGHTED:
            return (change, *engine._action_key(pins))
        return (len(pins), change, *engine._action_key(pins))

    return key


def scalar_cost(cost, assigned, factual):
    """The reported cost as ``CostModel.scalar`` computed it before the ranking
    gave it, kept as the oracle: the count for the count model, the weighted
    change as a sum of Fractions otherwise."""
    if cost.kind == engine.COST_COUNT:
        return F(len(assigned))
    return sum((cost.weight(name) * abs(value - factual[name]) for name, value in assigned.items()), F(0))


def ranked_by_fractions(scm, cost, candidates, world):
    """``engine._rank_keys`` replaced by the oracle, for the same call: the
    sort key, and the reported cost of pins.  A candidate's action may be a
    baseline shift, so the oracle reads the pinned values from the pins."""
    factual = scm._values(world)

    def assigned(pins):
        return {n: scm.domain(n)[p] for n, p in pins.items()}

    pinned = [(assigned(pins), pins) for _, pins in candidates]
    return rank_keys_by_fractions(cost, pinned, factual), lambda pins: scalar_cost(cost, assigned(pins), factual)


def random_cost(rng, names):
    kind = rng.choice([engine.COST_COUNT, engine.COST_WEIGHTED, engine.COST_COMPOSITE])
    weights = None
    if rng.random() < 0.7:
        pool = [F(0), F(1), F(3), F(1, 2), F(2, 3), F(5, 7), F(10**20, 3)]
        weights = {n: rng.choice(pool) for n in rng.sample(names, rng.randint(1, len(names)))}
    return mr.CostModel(kind, weights)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_integer_cost_terms_rank_as_fraction_terms(seed):
    rng = random.Random(seed)
    pool = [F(k, d) for k in range(-12, 13) for d in (1, 2, 3, 4, 6, 10)] + [F(2**64 + 1), F(-(10**30), 7)]
    names = [f"v{i}" for i in range(rng.randint(1, 5))]
    decls = tuple(mr.VariableDecl(n, mr.EXOGENOUS, rng.sample(sorted(set(pool)), rng.randint(1, 6))) for n in names)
    scm = mr.Scm(decls, ())
    world = {d.name: rng.randrange(len(d.domain)) for d in decls}
    candidates = []
    for _ in range(rng.randint(1, 30)):
        pins = {n: rng.randrange(len(scm.domain(n))) for n in rng.sample(names, rng.randint(0, len(names)))}
        candidates.append(({n: scm.domain(n)[p] for n, p in pins.items()}, pins))
    cost = random_cost(rng, names)
    new, new_cost = engine._rank_keys(scm, cost, candidates, world)
    old, old_cost = ranked_by_fractions(scm, cost, candidates, world)
    assert sorted(candidates, key=new) == sorted(candidates, key=old)
    for _, pins in candidates:
        assert new_cost(pins) == old_cost(pins)
    # The same ties: two candidates share a key under one ranking iff under the other.
    for a, b in product(candidates, repeat=2):
        assert (new(a) == new(b)) == (old(a) == old(b))
        assert (new(a) < new(b)) == (old(a) < old(b))


def random_outcome_model(rng):
    """A model of 1-4 exogenous variables on non-integral domains drawn from a
    pool of values, and the agent whose outcome each one is."""
    pool = sorted({F(k, d) for k in range(-12, 13) for d in (1, 2, 3, 4, 6, 10)} | {F(2**64 + 1, 3), F(-(10**30), 7)})
    fractional = [v for v in pool if v.denominator != 1]
    decls = []
    for i in range(rng.randint(1, 4)):
        domain = rng.sample(pool, rng.randint(0, 5)) + rng.sample(fractional, 1)
        decls.append(mr.VariableDecl(f"h{i}", mr.EXOGENOUS, sorted(set(domain))))
    return mr.Scm(tuple(decls), ()), {i + 1: d.name for i, d in enumerate(decls)}


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_clause_verdicts_on_one_integer_scale_are_fraction_verdicts(seed):
    rng = random.Random(seed)
    scm, agents = random_outcome_model(rng)
    clauses = [mr.Pareto(), mr.Plausible()]
    for strict in (True, False):
        clauses += [mr.PrincipalImprovement(strict), mr.SocialWelfare(strict)]
        for agent, var in agents.items():
            domain = scm.domain(var)
            a, b = rng.choice(domain), rng.choice(domain)
            # On a value, between two, and off every value by a little.
            for t in (a, (a + b) / 2, a + F(1, 97), a - F(1, 10**20)):
                clauses.append(mr.Threshold(agent, t, strict))
    outcomes, scaled = engine._on_one_scale(scm, agents, clauses)
    assert [(agent, var) for agent, var, _ in outcomes] == list(agents.items())
    assert all(type(v) is int for _, _, domain in outcomes for v in domain)
    assert all(type(c.t) is int for c in scaled if isinstance(c, mr.Threshold))
    for _ in range(20):
        world, state = ({var: rng.randrange(len(scm.domain(var))) for var in agents.values()} for _ in range(2))
        before = {agent: scm.domain(var)[world[var]] for agent, var in agents.items()}
        after = {agent: scm.domain(var)[state[var]] for agent, var in agents.items()}
        before_int = {agent: domain[world[var]] for agent, var, domain in outcomes}
        after_int = {agent: domain[state[var]] for agent, var, domain in outcomes}
        principal, plausible = rng.choice(list(agents)), rng.random() < 0.5
        for clause, on_scale in zip(clauses, scaled):
            assert on_scale.holds(principal, before_int, after_int, plausible) == clause.holds(
                principal, before, after, plausible
            ), clause
    # A clause of a subclass may read the values: they are left as they are.
    class Strict(mr.Pareto):
        pass

    outcomes, kept = engine._on_one_scale(scm, agents, [*clauses, Strict()])
    assert [domain for _, _, domain in outcomes] == [scm.domain(var) for var in agents.values()]
    assert kept == [*clauses, Strict()]


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_allowlist_on_positions_admits_as_on_values(seed):
    rng = random.Random(seed)
    scm, _ = random_outcome_model(rng)
    names = [d.name for d in scm.variables]
    entries = []
    for _ in range(rng.randint(0, 4)):
        entry = {name: rng.choice(scm.domain(name)) for name in rng.sample(names, rng.randint(0, len(names)))}
        odd = rng.random()
        if entry and odd < 0.15:  # a value outside the domain
            entry[rng.choice(list(entry))] = F(1, 97)
        elif odd < 0.25:
            entry["undeclared"] = F(0)
        entries.append(entry)
    allowed = mr.AllowList(entries)
    if rng.random() < 0.2:  # an entry given a value that only the values rule can read
        allowed.entries.append({rng.choice(names): rng.choice([True, 0.5, "1/2"])})
    # ``predict`` with the model's whole state as the pins, no clause and no candidate.
    state0 = {name: 0 for name in names}
    query = mr.RecourseQuery(scm, 1, {1: names[0]}, {}, [], plausible=allowed)
    _, _, predict, _ = engine._ranked(query, {}, state0, [], [], lambda pins: pins)
    for _ in range(30):
        state = {name: rng.randrange(len(scm.domain(name))) for name in names}
        assert predict(state)[1] == allowed(scm._values(state))


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_solvers_choose_as_with_fraction_cost_terms(seed):
    rng = random.Random(seed)
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    names = [name for name, _, _ in variables]
    structural = mr.RecourseQuery(
        scm, parts["principal"], parts["agents"], parts["factual"], parts["feasible"],
        plain_clauses_to_engine(parts["clauses"]), random_cost(rng, names), parts["plausible"],
        parts["exclude_identity"],
    )
    # The baseline from a complete factual state, shifting the variables no agent reads out.
    outcomes = set(parts["agents"].values())
    state = scm.evaluate({n: rng.choice(scm.domain(n)) for n in scm.exogenous_names})
    shiftable = [n for n in names if n not in outcomes]
    shifts = [
        {n: rng.choice(scm.domain(n)) - state[n] for n in rng.sample(shiftable, rng.randint(0, min(2, len(shiftable))))}
        for _ in range(rng.randint(1, 12))
    ]
    principal = parts["principal"]
    thresholds = [mr.Threshold(principal, rng.choice(scm.domain(parts["agents"][principal])), rng.random() < 0.5)]
    baseline = mr.RecourseQuery(
        scm, principal, parts["agents"], state, shifts, thresholds if rng.random() < 0.5 else [],
        random_cost(rng, names), exclude_identity=rng.random() < 0.5,
    )

    def outcome(solver, query):
        try:
            return solver(query)
        except mr.RecourseError as exc:
            return type(exc), str(exc)

    for solver, query in ((mr.solve, structural), (mr.solve_cfe_baseline, baseline)):
        chosen = outcome(solver, query)
        with mock.patch.object(engine, "_rank_keys", ranked_by_fractions):
            assert outcome(solver, query) == chosen
    try:
        rows = mr.enumerate_feasible(structural)
    except mr.NonInvertibleError:
        return
    with mock.patch.object(engine, "_rank_keys", ranked_by_fractions):
        assert mr.enumerate_feasible(structural) == rows


def baseline_by_passing_list(query):
    """``solve_cfe_baseline`` as it was before it shared ``solve``'s loop, kept
    as the oracle: every shift is predicted as it is validated, the passing
    ones are collected, and the cheapest is taken by ``min``."""
    engine._check_query(query)
    scm = query.scm
    outcome_vars = set(query.agents.values())
    exogenous_part = {n: v for n, v in query.factual.items() if n not in scm.endogenous_names}
    factual_state = scm.evaluate(exogenous_part)
    for name, value in query.factual.items():
        if factual_state[name] != value:
            raise mr.InvalidQueryError(f"factual value of {name!r} disagrees with the outcome models")
    before = {agent: factual_state[var] for agent, var in query.agents.items()}
    thresholds = []
    for clause in query.constraints:
        if isinstance(clause, mr.Threshold):
            if clause.agent != query.principal:
                raise mr.InvalidQueryError("the additive baseline only supports thresholds on the principal")
            thresholds.append(clause)
        elif isinstance(clause, mr.Plausible):
            continue
        else:
            raise mr.InvalidQueryError(
                f"the additive baseline does not support the {mr.clause_label(clause)} clause"
            )
    if not thresholds:
        thresholds = [mr.Threshold(query.principal, before[query.principal], strict=True)]
    world = scm._positions(factual_state)
    passing = []
    for delta in query.feasible:
        for name in delta:
            scm.decl(name)
        shift = {name: value for name, value in delta.items() if value != 0}
        if outcome_vars & set(shift):
            raise mr.InvalidQueryError("baseline shifts cannot target an agent's outcome variable")
        if query.exclude_identity and not shift:
            continue
        assigned, pins, shifted = {}, {}, dict(factual_state)
        for name, amount in shift.items():
            new_value = factual_state[name] + amount
            position = scm.decl(name)._index.get(scm_module._key(new_value))
            if position is None:
                raise mr.DomainError(f"shifting {name!r} by {mr.format_value(amount)} leaves its domain")
            shifted[name] = assigned[name] = new_value
            pins[name] = position
        positions = {**world, **pins}
        for var in outcome_vars:
            shifted[var] = scm.domain(var)[scm._output(var, positions)]
        after = {agent: shifted[var] for agent, var in query.agents.items()}
        plausible_ok = query.plausible(shifted) if query.plausible else True
        if plausible_ok and all(t.holds(query.principal, before, after, True) for t in thresholds):
            passing.append((assigned, pins, shift, shifted))
    if not passing:
        return None
    key = rank_keys_by_fractions(query.cost, passing, factual_state)
    assigned, _, shift, shifted = min(passing, key=key)
    per_agent = {
        agent: mr.AgentDelta(factual_state[query.agents[agent]], shifted[query.agents[agent]])
        for agent in sorted(query.agents, key=str)
    }
    return mr.RecourseOutcome(
        shift, shifted, scalar_cost(query.cost, assigned, factual_state), query.principal,
        per_agent, engine._flags(query.principal, per_agent),
    )


def random_baseline_query(rng):
    """A baseline query over a random model.  About one in four carries one
    fault of a kind the baseline reports, placed at random."""
    variables, equations = oracle.random_plain_scm(rng)
    scm = build_scm_from_plain(variables, equations)
    parts = oracle.random_query_parts(rng, variables, equations)
    names = [name for name, _, _ in variables]
    agents, principal = parts["agents"], parts["principal"]
    state = scm.evaluate({n: rng.choice(scm.domain(n)) for n in scm.exogenous_names})
    factual = {n: v for n, v in state.items() if n in scm.exogenous_names or rng.random() < 0.5}
    outcomes = sorted(set(agents.values()))
    shiftable = [n for n in names if n not in outcomes]
    feasible = []
    for _ in range(rng.randint(1, 10)):
        if feasible and rng.random() < 0.2:
            feasible.append(dict(rng.choice(feasible)))  # a duplicate shift
            continue
        targets = rng.sample(shiftable, rng.randint(0, min(3, len(shiftable))))
        feasible.append({n: F(0) if rng.random() < 0.2 else rng.choice(scm.domain(n)) - state[n] for n in targets})
    if rng.random() < 0.2:
        rng.choice(feasible)[rng.choice(outcomes)] = F(0)  # a zero shift of an outcome is dropped
    constraints = [
        mr.Threshold(principal, rng.choice(scm.domain(agents[principal])) + rng.choice([F(0), F(1, 2), F(-1, 3)]),
                     rng.random() < 0.5)
        for _ in range(rng.randint(0, 2))
    ]
    if rng.random() < 0.2:
        constraints.append(mr.Plausible())
    fault = rng.randrange(32)
    if fault == 0:
        factual.pop(rng.choice(scm.exogenous_names))
    elif fault == 1:
        factual[rng.choice(scm.endogenous_names)] = F(99)  # disagrees with its outcome model
    elif fault == 2:
        rng.choice(feasible)[rng.choice(outcomes)] = F(1)
    elif fault == 3:
        rng.choice(feasible)["unknown"] = F(0)
    elif fault == 4:
        rng.choice(feasible)[rng.choice(names)] = F(1, 7)  # leaves every domain the generator draws
    elif fault == 5:
        constraints.append(mr.Threshold(rng.choice(list(agents)), F(0)))
    elif fault == 6:
        constraints.append(rng.choice([mr.Pareto(), mr.SocialWelfare(), mr.PrincipalImprovement(), "pareto"]))
    rng.shuffle(constraints)
    plausible = None
    if rng.random() < 0.4:
        exogenous = scm.exogenous_names
        entries = [
            {n: v for n, v in scm.evaluate({u: rng.choice(scm.domain(u)) for u in exogenous}).items() if rng.random() < 0.4}
            for _ in range(rng.randint(1, 4))
        ]
        plausible = files._allowlist_predicate(entries, scm)
    return mr.RecourseQuery(
        scm, principal, agents, factual, feasible, constraints, random_cost(rng, names), plausible,
        rng.random() < 0.4,
    )


@settings(max_examples=400, deadline=None)
@given(SEEDS)
def test_baseline_matches_its_passing_list_oracle(seed):
    query = random_baseline_query(random.Random(seed))

    def outcome(solver):
        try:
            found = solver(query)
        except mr.RecourseError as exc:
            return type(exc), str(exc)
        return found, found and json.dumps(mr.outcome_to_dict(found))

    assert outcome(mr.solve_cfe_baseline) == outcome(baseline_by_passing_list)
