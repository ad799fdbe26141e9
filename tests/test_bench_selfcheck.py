"""The benchmark's own checks pass against the package under ``src/``.

``bench/selfcheck.py`` matches the harness against BENCHMARK.json and
recounts, with the benchmark's oracle, what the program reports.  A package
change that breaks either fails here.  The script runs in a fresh interpreter
that writes no bytecode, so ``bench/`` is only read (about 4 s).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
