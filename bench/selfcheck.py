"""The benchmark's own checks.  Run from the repository root:

    python3 bench/selfcheck.py

- the metrics and workloads match BENCHMARK.json;
- the same seed gives byte-identical generated inputs;
- self-time arithmetic is right on a hand-built span tree whose children
  overlap on worker threads, and on live spans from a thread pool;
- the metronome ticks while work runs and its arithmetic is right;
- the oracle recounts match what the program under ``src/`` reports.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import inputs
import metronome
import reference
import run
import tracing

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _all_inputs(seed: int) -> list[str]:
    rng = random.Random(seed)
    texts = [inputs.matrix_csv(inputs.custom_matrix(rng))]
    texts.append(inputs.log_csv(inputs.mixed_log(rng, 400, ("table1", "table2", "table3", "custom"))))
    for spec in inputs.query_plan(rng, 40):
        texts.append(inputs.query_json(inputs.make_query(rng, spec)))
    return texts


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(_all_inputs(11), _all_inputs(11))
        self.assertNotEqual(_all_inputs(11), _all_inputs(12))

    def test_mixed_log_composition(self):
        games = inputs.mixed_log(random.Random(3), 800, ("table1", "table2", "table3", "custom"))
        self.assertEqual(sum(inputs.is_single_round(g) for g in games), 400)
        self.assertEqual(inputs.parse_log(inputs.log_csv(games)), games)


class Definition(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_overlapping_thread_children(self):
        # run_experiment [0, 10] on the main thread with pd_scm [1, 2]; two pool
        # threads run solve [2, 6] (with intervene [3, 4]) and solve [4, 8].
        main = [(2, "pd_scm", 1.0, 2.0, 1, 0), (1, "run_experiment", 0.0, 10.0, 0, 0)]
        pool_a = [(4, "intervene", 3.0, 4.0, 3, 0), (3, "solve", 2.0, 6.0, 1, 1)]
        pool_b = [(5, "solve", 4.0, 8.0, 1, 1)]
        got = sorted(tracing.self_times([main, pool_a, pool_b]))
        self.assertEqual(got, [
            ("intervene", 1.0, 1.0),
            ("pd_scm", 1.0, 1.0),
            ("run_experiment", 10.0, 3.0),  # children cover [1, 8]
            ("solve", 4.0, 3.0),
            ("solve", 4.0, 4.0),
        ])

    def test_union_clips_to_parent(self):
        self.assertEqual(tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0), 3.5)

    def test_live_spans_from_a_pool(self):
        tracer = tracing.Tracer()
        leaf = tracer.wrap("leaf", lambda: time.sleep(0.01))

        def work(_):
            leaf()

        worker = tracer.wrap("work", work)

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(worker, range(4)))

        tracer.wrap("outer", outer)()
        layers = tracer.summary()["layers"]
        self.assertEqual({n: e["calls"] for n, e in layers.items()}, {"outer": 1, "work": 4, "leaf": 4})
        self.assertLess(layers["work"]["self_s"], layers["leaf"]["self_s"])
        # Two workers overlap, so the union of the four work spans is about half their sum.
        covered = layers["outer"]["total_s"] - layers["outer"]["self_s"]
        self.assertLess(covered, 0.8 * layers["work"]["total_s"])


class Metronome(unittest.TestCase):
    def test_reference_seconds(self):
        # A host twice as slow as the reference: 1 s of wall time held four
        # ticks of twice the nominal length.
        ticks = [(0.0, 2 * metronome.NOMINAL_S)] * 4
        self.assertAlmostEqual(metronome.slowdown(ticks), 2.0)
        self.assertAlmostEqual(metronome.reference_seconds(1.0, 4, ticks), (1.0 - 8 * metronome.NOMINAL_S) / 2)

    def test_ticks_during_work(self):
        clock = metronome.Metronome()
        clock.start()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        clock.stop()
        # Ticks every 5 ms; a busy host may delay some.
        self.assertGreater(len(clock.ticks), 10)
        self.assertTrue(gc.isenabled())
        starts = [start for start, _ in clock.ticks]
        self.assertEqual(starts, sorted(starts))


def _cli(args: list[str], cwd: str) -> str:
    done = subprocess.run([sys.executable, "-m", "multiagent_recourse.cli", *args],
                          capture_output=True, text=True, env=ENV, cwd=cwd, check=True)
    return done.stdout


class OracleMatchesProgram(unittest.TestCase):
    oracle = reference.load_oracle(ROOT)

    def test_paper_counts(self):
        with tempfile.TemporaryDirectory() as tmp:
            log = _cli(["generate", "--synthetic", "n=3294", "silent=434", "--matrix", "table2", "--seed", "1"], tmp)
            kept = [g for g in inputs.parse_log(log) if inputs.is_single_round(g)]
            for mode, count in run.PAPER_RECOMMENDATIONS.items():
                expected = reference.expected_report(self.oracle, kept, mode, (1,))
                self.assertEqual(expected["overall"]["recommendations"], count)
                report = _cli(["experiment", "--synthetic", "n=3294", "silent=434", "--matrix", "table2",
                               "--seed", "1", "--mode", mode, "--format", "json"], tmp)
                self.assertEqual(json.loads(report), expected, mode)

    def test_mixed_log_reports(self):
        rng = random.Random(5)
        custom = inputs.custom_matrix(rng)
        games = inputs.mixed_log(rng, 400, ("table1", "table2", "table3", "custom"))
        kept = [g for g in games if inputs.is_single_round(g)]
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "log.csv").write_text(inputs.log_csv(games))
            Path(tmp, "custom.csv").write_text(inputs.matrix_csv(custom))
            for mode in run.MODES:
                report = _cli(["experiment", "--log", "log.csv", "--matrix-file", "custom=custom.csv",
                               "--principal", "both", "--jobs", "2", "--mode", mode, "--format", "json"], tmp)
                self.assertEqual(json.loads(report), reference.expected_report(self.oracle, kept, mode, (1, 2), custom))

    def test_query_outcomes(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = run.SolveWide(run.Runner(Path(tmp)), 6, self.oracle)
            workload.n_queries = 40
            workload.prepare()
            job = workload.job(None)
            self.assertEqual((job.failed, job.notes), (0, []))
            # generate steps, the solve child, one per query
            self.assertEqual(job.attempted, workload.generate_repeats + 1 + 40)
            kinds = {e[0] for e in workload.expected}
            self.assertTrue({"found", "none", "error"} <= kinds, kinds)


if __name__ == "__main__":
    unittest.main()
