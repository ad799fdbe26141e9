"""The benchmark's tracer still finds every binding it wraps.

``bench/tracing.py`` wraps package functions by module and attribute name and
``Scm`` methods by name, from outside the package.  A rename there would make
``bench/run.py --trace 1`` fail, so this test binds it in a fresh interpreter
(only reading ``bench/``) and checks the spans of one solve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "solve" / "structural.json"

SCRIPT = """
import json, sys
import multiagent_recourse.cli
import multiagent_recourse as package
import tracing

missing = [
    f"{home}.{attr}" for _, home, attr in tracing.FUNCTIONS
    if not callable(getattr(getattr(package, home, None), attr, None))
]
missing += [
    f"Scm.{attr}" for _, attr in tracing.METHODS if not callable(getattr(package.scm.Scm, attr, None))
]
tracer = tracing.Tracer()
tracer.install(package)
query, solver = package.cli.load_query(sys.argv[1])
outcome = package.cli.solve(query)
print(json.dumps({
    "missing": missing,
    "solver": solver,
    "found": outcome is not None,
    "layers": sorted(tracer.summary()["layers"]),
}))
"""


def test_tracer_binds_and_records_a_solve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave bench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(GOLDEN)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["missing"] == []
    assert report["solver"] == "structural" and report["found"]
    assert {"engine.load_query", "scm.scm_from_dict", "engine.solve", "scm.abduct"} <= set(
        report["layers"]
    )
