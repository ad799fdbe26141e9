"""The benchmark's tracer still finds every binding it wraps.

``bench/tracing.py`` wraps package functions by module and attribute name and
``Scm`` methods by name, from outside the package.  A rename there would make
``bench/run.py --trace 1`` fail, so this test binds it in a fresh interpreter
(only reading ``bench/``) and checks the spans of one solve and of one
``experiment --log`` run through the command line.
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
solve_calls = {name: layer["calls"] for name, layer in tracer.summary()["layers"].items()}
log, matrix, report = sys.argv[2:]
code = package.cli.main([
    "experiment", "--log", log, "--matrix-file", f"custom={matrix}", "--principal", "both",
    "--format", "json", "-o", report,
])
print(json.dumps({
    "missing": missing,
    "solver": solver,
    "found": outcome is not None,
    "layers": sorted(solve_calls),
    "code": code,
    "log_layers": sorted(  # the layers the experiment called
        name for name, layer in tracer.summary()["layers"].items()
        if layer["calls"] > solve_calls.get(name, 0)
    ),
}))
"""

# Two single-round games, one on a custom matrix, and a two-round game that
# the filter drops.
LOG = """game_id,matrix_id,group,delta,round,p1_action,p2_action
g1,table2,test,0,1,0,1
g2,custom,control,,1,1,1
g3,table1,test,1/2,1,0,0
g3,table1,test,1/2,2,1,0
"""


def test_tracer_binds_and_records_a_solve(tmp_path):
    log, matrix, report = tmp_path / "log.csv", tmp_path / "custom.csv", tmp_path / "report.json"
    log.write_text(LOG)
    matrix.write_text("row_action,col_action,p1,p2\n0,0,3,3\n0,1,0,5\n1,0,5,0\n1,1,1,1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave bench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(GOLDEN), str(log), str(matrix), str(report)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    assert traced["missing"] == []
    assert traced["solver"] == "structural" and traced["found"]
    assert {"engine.load_query", "scm.scm_from_dict", "engine.solve", "scm.abduct"} <= set(
        traced["layers"]
    )
    assert traced["code"] == 0
    assert {
        "cli.main",
        "experiment.parse_game_log",
        "experiment.filter_single_round",
        "experiment.run_experiment",
        "games.load_matrix_csv",
        "engine.solve",
        "experiment.render_report",
    } <= set(traced["log_layers"])
    assert json.loads(report.read_text())["overall"]["games"] == 2
