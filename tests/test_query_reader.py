"""The query file reader against its frozen values-path reference (``query_reference``).

Each case is a query document built from a seed, one of two ways:

- a valid document of ``test_properties`` (a structural and a baseline
  query) with one field replaced (``FUZZ_SITES``) by a value drawn from a
  list of numbers in several spellings, bools, floats, strings, lists and
  objects;
- a query shaped as the benchmark's ``solve_wide`` queries
  (``bench/inputs.py``, only read), broken in a few of the ways an action or
  an allow-list entry can be wrong: a literal respelled, moved out of its
  domain, made a bool, a float, a non-number or a list; an undeclared
  variable; an action that is not an object; the other solver.

Both readers load the document, and the query is solved and, for the
structural solver, audited (``enumerate_feasible``), twice.  They must give
the same outcome and audit JSON, or the same error type and message.

The tier-1 run draws a few hundred cases; to draw more and print how they
ended:

    PYTHONPATH=src:tests python3 -c "import test_query_reader as t; t.fuzz(20000)"
"""

from __future__ import annotations

import copy
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import multiagent_recourse as mr
import query_reference
from test_properties import FUZZ_SITES, replaced

ROOT = Path(__file__).resolve().parents[1]
SEEDS = st.integers(min_value=0, max_value=10**9)

QUERY_SITES = [(document, path) for kind, document, path in FUZZ_SITES if kind == "query"]
VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 5, 7, 10**5000, 0.5, 1.0, 0.1, F(1, 2), F(1), "0", "1", " 1 ",
    "2/2", "1.0", "1/2", "x", "", "1e999999", "-0", [], [1], [{}], [{"x1": 1}], [{"x1": True}],
    [{"x1": "1"}, {"x2": 0}], [{"x9": 1}], {}, {"x1": 1}, {"x1": 1, "x2": 0}, {"x1": 7},
    {"x1": "0.0"}, {"x1": False}, {"x1": None}, {"ghost": 0}, {"h1": 35},
]

# The structural and baseline shapes of a 40-query plan, its seed fixed.
_bench = None


def bench_inputs():
    """``bench/inputs.py``, imported once and without writing bytecode to ``bench/``."""
    global _bench
    if _bench is None:
        sys.path.insert(0, str(ROOT / "bench"))
        written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            import inputs
        finally:
            sys.dont_write_bytecode = written
            sys.path.remove(str(ROOT / "bench"))
        _bench = inputs, inputs.query_plan(random.Random(0), 40)
    return _bench


def respelled(rng: random.Random, exact: F):
    """A spelling of the number ``exact``."""
    spellings = [exact, str(exact), f"{exact.numerator * 3}/{exact.denominator * 3}", f" {exact} "]
    if exact.denominator == 1:
        spellings += [exact.numerator, f"{exact.numerator}.0"]
    return rng.choice(spellings)


def broken_literal(rng: random.Random, value):
    """``value`` respelled, moved off its number, or replaced by something else."""
    junk = [99, True, False, None, "x", [value], "1e999999"]
    try:
        exact = mr.as_value(value)
    except ValueError:
        return rng.choice(junk)
    if rng.random() < 0.3:
        return rng.choice(junk)
    return rng.choice([respelled(rng, exact), exact + F(1, 7), float(exact)])


def bench_document(rng: random.Random) -> dict:
    inputs, plan = bench_inputs()
    document = inputs.make_query(rng, rng.choice(plan)).document
    feasible = document["feasible"]
    if rng.random() < 0.2:  # every literal in another spelling
        for action in feasible:
            action.update((name, respelled(rng, F(v))) for name, v in action.items())
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        odd = rng.random()
        action = rng.choice(feasible) if feasible else None
        action = action if type(action) is dict else None
        if action and odd < 0.6:
            name = rng.choice(list(action))
            action[name] = broken_literal(rng, action[name])
        elif action and odd < 0.7:
            action["ghost"] = 0
        elif odd < 0.8:
            feasible.insert(rng.randint(0, len(feasible)), rng.choice([[], "x", None, 1]))
        elif odd < 0.9 and "plausible" in document:
            entry = rng.choice(document["plausible"])
            if entry:
                name = rng.choice(list(entry))
                entry[name] = broken_literal(rng, entry[name])
        else:
            document["solver"] = rng.choice(["structural", "baseline"])
    return document


def document(seed: int) -> dict:
    rng = random.Random(seed)
    if rng.random() < 0.5:
        base, path = rng.choice(QUERY_SITES)
        return replaced(base, path, copy.deepcopy(rng.choice(VALUES)))
    return bench_document(rng)


def run(read, document: dict):
    """What loading, solving and auditing ``document`` gives: (the solver, the
    outcome JSON twice, the audit JSON), or the error's type and message."""
    try:
        query, solver = read(copy.deepcopy(document))
        if solver == "baseline":
            found = [mr.solve_cfe_baseline(query) for _ in range(2)]
            rows = None
        else:
            found = [mr.solve(query) for _ in range(2)]
            rows = mr.rows_to_json(mr.enumerate_feasible(query))
        return solver, [outcome and json.dumps(mr.outcome_to_dict(outcome)) for outcome in found], rows
    except Exception as exc:  # the same error either way, of whatever type
        return type(exc), str(exc)


ENDINGS: Counter = Counter()


def check(seed: int) -> None:
    case = document(seed)
    got = run(mr.query_from_dict, case)
    assert got == run(query_reference.query_from_dict, case)
    if isinstance(got[0], type):
        ENDINGS[got[0].__name__] += 1
    else:
        ENDINGS[f"{got[0]}: {'found' if got[1][0] else 'none found'}"] += 1


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_reader_agrees_with_the_frozen_reference(seed):
    check(seed)


def fuzz(n: int) -> None:
    """``n`` more cases of the property above, drawn by Hypothesis; prints how they ended."""
    ENDINGS.clear()
    settings(max_examples=n, deadline=None, database=None)(given(SEEDS)(check))()
    for ending, count in sorted(ENDINGS.items()):
        print(f"{count:7d}  {ending}")


def test_the_cases_reach_every_ending():
    """The cases drawn from the first seeds load and solve, find nothing, and
    fail in the reader and in the solver."""
    ENDINGS.clear()
    for seed in range(300):
        check(seed)
    assert {
        "structural: found", "structural: none found", "baseline: found", "baseline: none found",
        "ParseError", "DomainError", "InvalidQueryError", "NonInvertibleError",
    } <= ENDINGS.keys(), ENDINGS
