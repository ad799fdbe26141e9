"""The benchmark's own solve traffic: the 200 seed-401 ``solve_wide`` queries.

The query files are built with ``bench/inputs.py`` and checked with
``bench/reference.py`` (the oracle), both only read.  Each query is solved
with the calls the CLI's ``solve`` command makes, and the digest of every
output pins the results byte for byte.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from multiagent_recourse import cli

ROOT = Path(__file__).resolve().parents[1]
SEED = 401
N_QUERIES = 200
# Recorded before the query path moved to int keys and integer cost terms.
DIGEST = "edf15c1e8347113744f37a5ae672216a50d1dc7e1c4509a39b1be689b3d38aa4"


@pytest.fixture(scope="module")
def bench_modules():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(ROOT / "bench"))
    mp.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import inputs
    import reference

    yield inputs, reference
    mp.undo()


def solve_like_the_cli(path):
    """(the child-style result that ``reference.query_matches`` reads, the
    text ``solve`` writes: its stdout, or its error line)."""
    try:
        query, solver = cli.load_query(path)
        outcome = cli.solve_cfe_baseline(query) if solver == cli.SOLVER_BASELINE else cli.solve(query)
    except cli.RecourseError as exc:
        return {"error": type(exc).__name__}, f"error: {exc}\n"
    if outcome is None:
        payload = {
            "found": False,
            "reason": "no feasible action satisfies the constraints",
            "candidates": len(query.feasible),
        }
        return {"outcome": None}, json.dumps(payload, indent=2) + "\n"
    document = cli.outcome_to_dict(outcome)
    return {"outcome": document}, json.dumps(document, indent=2) + "\n"


def test_solve_wide_queries_match_the_oracle_and_the_pinned_digest(tmp_path, bench_modules):
    inputs, reference = bench_modules
    oracle = reference.load_oracle(ROOT)
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for i, spec in enumerate(inputs.query_plan(rng, N_QUERIES)):
        case = inputs.make_query(rng, spec)
        path = tmp_path / f"q{i:04d}.json"
        path.write_text(inputs.query_json(case))
        result, text = solve_like_the_cli(path)
        assert reference.query_matches(reference.expected_query(oracle, case), result), (i, text)
        digest.update(text.encode())
    assert digest.hexdigest() == DIGEST
