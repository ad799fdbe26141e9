"""The README's "Library use" example runs and does what its comments say."""

import re
from fractions import Fraction as F
from pathlib import Path

import multiagent_recourse as mr

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs_as_commented():
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    outcome = names["outcome"]
    # action do(x1:=1), h1: 1 -> 3.5
    assert outcome.action == {"x1": F(1)}
    assert (outcome.per_agent[1].before, outcome.per_agent[1].after) == (F(1), F("3.5"))
    # principal_improved, pareto_violated, welfare_delta
    flags = names["flags"]
    assert flags is outcome.flags
    assert flags._fields == ("principal_improved", "pareto_violated", "welfare_delta")
    assert flags == mr.OutcomeFlags(principal_improved=True, pareto_violated=True, welfare_delta=F(-4))
    # full audit table: every candidate, cheapest first; solve's action is the first that passes
    rows = names["rows"]
    assert [row.action for row in rows] == [{}, {"x1": F(1)}]
    assert next(row for row in rows if row.satisfies_all).action == outcome.action
