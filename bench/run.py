"""The repository benchmark: one command, stdlib only, seeded.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of the commit in this checkout (always the package under
``src/``, never an installed copy) as a single-client closed loop: each
child process starts when the previous one has exited.  A job is repeated
until ``--seconds`` have passed; every output is checked against references
that do not use the engine under test.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Lines before it, starting with ``#``, record the machine and
the sample counts.

Workloads (see bench/README.md for what each metric should move):

  paper_modes  the paper's experiment, ``experiment --synthetic n=3294
               silent=434 --matrix table2`` once per recourse mode
  log_ingest   ``experiment --log`` on a mixed multi-round log with a custom
               matrix, ``--principal both --jobs 2``
  solve_wide   200 distinct chain-model query files solved in one child

Each job also runs the ``generate`` step (the write path), timed on its own.
Every timing is in reference seconds: each child's wall time, less the
metronome's ticks, over the host's slowdown the ticks measured during that
child (metronome.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
import metronome
import reference

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

MODES = ("single_agent", "social_welfare", "pareto", "pareto_and_welfare")
# The README's counts for the paper's experiment (table2, 434 of 3294 silent).
PAPER_GAMES, PAPER_SILENT = 3294, 434
PAPER_RECOMMENDATIONS = {"single_agent": 434, "social_welfare": 2860, "pareto": 0, "pareto_and_welfare": 0}

LOG_GAMES = 4000  # mixed log read by log_ingest; half survive the filter
GENERATE_GAMES, GENERATE_SILENT = 30000, 9000  # log written by log_ingest
GENERATE_MIX = "table1=1/4,table2=1/4,table3=1/2"
SOLVE_QUERIES = 200

SETUP_REPEATS = 15
MIN_JOBS = 3  # a run's medians need at least this many jobs, whatever --seconds says
CHILD_TIMEOUT_S = 150
# A query's slowdown is taken from the ticks within this many seconds of it.
QUERY_CLOCK_WINDOW_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_wall_s": "s",
    "queries_per_s": "1/s",
    "query_latency_p50_ms": "ms",
    "query_latency_p95_ms": "ms",
    "generate_wall_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, read from traced jobs: (name, unit).
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("values.as_value.calls", "count"),
    ("values.as_value.self_s", "s"),
    ("values.format_value.calls", "count"),
    ("values.format_value.self_s", "s"),
    ("games.pd_scm.calls", "count"),
    ("games.pd_scm.self_s", "s"),
    ("games.load_matrix_csv.self_s", "s"),
    ("scm.Scm.construct.calls", "count"),
    ("scm.Scm.construct.self_s", "s"),
    ("scm.intervene.calls", "count"),
    ("scm.intervene.self_s", "s"),
    ("scm.abduct.calls", "count"),
    ("scm.abduct.self_s", "s"),
    ("scm.abduct.failed", "count"),
    ("scm.evaluate.calls", "count"),
    ("scm.evaluate.self_s", "s"),
    ("scm.scm_from_dict.self_s", "s"),
    ("engine.solve.calls", "count"),
    ("engine.solve.self_s", "s"),
    ("engine.solve.found_ratio", "ratio"),
    ("engine.solve.intervene_per_call", "ratio"),
    ("engine.solve_cfe_baseline.calls", "count"),
    ("engine.solve_cfe_baseline.self_s", "s"),
    ("engine.load_query.self_s", "s"),
    ("engine.outcome_to_dict.self_s", "s"),
    ("experiment.parse_game_log.self_s", "s"),
    ("experiment.parse_game_log.rows_per_s", "1/s"),
    ("experiment.filter_single_round.kept_ratio", "ratio"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.run_experiment.queries", "count"),
    ("experiment.generate_synthetic_log.self_s", "s"),
    ("experiment.write_game_log.self_s", "s"),
    ("experiment.render_report.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_remainder_s", "s"),
)


class BenchError(Exception):
    """The benchmark itself cannot go on (missing program, child hung)."""


# ------------------------------------------------------------------ children


class Runner:
    """Starts children in a private work directory and measures each one."""

    def __init__(self, work: Path) -> None:
        self.work = work
        # A fixed hash seed gives every child the same set and dict layouts.
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
        self._n = 0
        # Wall time, tick time and slowdown of every child, in order.
        self.children: list[dict] = []

    def path(self, name: str) -> Path:
        return self.work / name

    def run(self, args: list[str], trace: Path | None = None) -> dict:
        """Run ``child.py ARGS`` to completion and measure it.

        Returns the child's wall time, its time in reference seconds, peak RSS,
        exit code, stdout path and the metronome's ticks.  A traced child runs
        without the metronome, so its spans hold no ticks; its ``ref_s`` is
        its wall time, and per_layer() scales it.
        """
        self._n += 1
        out_path = self.work / f"child{self._n}.out"
        err_path = self.work / f"child{self._n}.err"
        clock_path = self.work / f"child{self._n}.clock"
        prefix = ["--clock", str(clock_path)] if trace is None else ["--trace", str(trace)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), *prefix, *args],
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ticks = json.loads(clock_path.read_text()) if clock_path.exists() else []
        clock_path.unlink(missing_ok=True)
        slowdown = metronome.slowdown(ticks) if ticks else None
        tick_s = len(ticks) * slowdown * metronome.NOMINAL_S if ticks else 0.0
        self.children.append({"wall_s": wall, "tick_s": tick_s, "slowdown": slowdown})
        return {
            "wall_s": wall,
            "ref_s": metronome.reference_seconds(wall, len(ticks), ticks) if ticks else wall,
            "tick_s": tick_s,
            "ticks": ticks,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
            "stdout": out_path,
            "stderr": err_path,
        }

    def median_slowdown(self) -> float:
        return statistics.median(c["slowdown"] for c in self.children if c["slowdown"] is not None)


# ----------------------------------------------------------------- workloads


class Job:
    """What one closed-loop job measured."""

    def __init__(self) -> None:
        self.walls: dict[str, float] = {}      # the steps that make up job_wall_s
        self.unscaled_s = 0.0  # the same steps' wall time less their ticks
        self.queries: dict[str, int] = {}
        self.latencies: dict[str, float] = {}  # seconds per query, by step or query file
        self.rss_mb = 0.0
        self.generate_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.traces: list[dict] = []     # every traced child's summary
        self.step_traces: list[tuple[float, dict]] = []  # (wall, summary) of job_wall_s steps
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    def add_step(self, key: str, step: dict, queries: int, trace: dict | None) -> None:
        self.walls[key] = step["ref_s"]
        self.unscaled_s += step["wall_s"] - step["tick_s"]
        self.queries[key] = queries
        self.rss_mb = max(self.rss_mb, step["rss_mb"])
        if trace is not None:
            self.step_traces.append((step["wall_s"], trace))


class Workload:
    setup_args: list[str]
    generate_repeats = 1  # generate steps per untraced job

    def __init__(self, runner: Runner, seed: int, oracle) -> None:
        self.runner = runner
        self.seed = seed
        self.oracle = oracle
        self._log_digest: str | None = None

    def prepare(self) -> None:
        """Write the seeded inputs and compute what needs no program output."""

    def generate_args(self) -> list[str]:
        return ["generate", "--synthetic", f"n={PAPER_GAMES}", f"silent={PAPER_SILENT}",
                "--matrix", "table2", "--seed", str(self.seed)]

    def _step(self, args: list[str], job: Job, trace_dir: Path | None, tag: str):
        trace = None if trace_dir is None else trace_dir / f"{tag}.json"
        step = self.runner.run(["cli", *args], trace)
        summary = self._read_trace(trace, job) if step["code"] == 0 else None
        return step, summary

    def _read_trace(self, trace: Path | None, job: Job) -> dict | None:
        if trace is None:
            return None
        summary = json.loads(trace.read_text())
        job.traces.append(summary)
        return summary

    def _generate(self, job: Job, trace_dir: Path | None) -> bytes | None:
        """The write-path steps every job starts with; checks the log they write.

        A traced job runs one, so that its layers count one ``generate``.
        """
        data = None
        for _ in range(self.generate_repeats if trace_dir is None else 1):
            data = self._generate_once(job, trace_dir)
        return data

    def _generate_once(self, job: Job, trace_dir: Path | None) -> bytes | None:
        log_path = self.runner.path("generated.csv")
        args = [*self.generate_args(), "--output", str(log_path)]
        step, _ = self._step(args, job, trace_dir, "generate")
        job.generate_s.append(step["ref_s"])
        data = log_path.read_bytes() if step["code"] == 0 else b""
        log_path.unlink(missing_ok=True)
        digest = hashlib.sha256(data).hexdigest()
        if self._log_digest is None and step["code"] == 0:
            ok = self._valid_generated(args, data)
            if ok:
                self._log_digest = digest
        else:
            ok = step["code"] == 0 and digest == self._log_digest
        job.check(ok, f"generate exit {step['code']} or log differs from the spec or the first job")
        return data if ok else None

    @staticmethod
    def _valid_generated(args: list[str], data: bytes) -> bool:
        n = int(args[args.index("--synthetic") + 1].split("=")[1])
        silent = int(args[args.index("--synthetic") + 2].split("=")[1])
        matrices = {part.split("=")[0] for part in args[args.index("--matrix") + 1].split(",")}
        games = inputs.parse_log(data.decode())
        return (
            len(games) == n
            and len({g.game_id for g in games}) == n
            and all(g.group == "test" and g.delta == 0 and len(g.rounds) == 1 for g in games)
            and sum(g.rounds[0][0] == 0 for g in games) == silent
            and {g.matrix_id for g in games} <= matrices
        )

    def _check_report(self, job: Job, step: dict, expected: dict, what: str) -> int:
        try:
            report = json.loads(step["stdout"].read_text()) if step["code"] == 0 else None
        except json.JSONDecodeError:
            report = None
        job.check(report == expected, f"{what}: exit {step['code']}, report differs from the oracle recount")
        return expected["overall"]["queries"]

    def job(self, trace_dir: Path | None) -> Job:
        raise NotImplementedError


class PaperModes(Workload):
    name = "paper_modes"

    def prepare(self) -> None:
        custom = inputs.custom_matrix(random.Random(self.seed))
        self.custom_csv = self.runner.path("custom.csv")
        self.custom_csv.write_text(inputs.matrix_csv(custom))
        self.setup_args = ["setup", "experiment", str(self.custom_csv)]
        self.expected: dict[str, dict] | None = None

    def _expect(self, log: bytes) -> None:
        kept = [g for g in inputs.parse_log(log.decode()) if inputs.is_single_round(g)]
        self.expected = {mode: reference.expected_report(self.oracle, kept, mode, (1,)) for mode in MODES}
        for mode, count in PAPER_RECOMMENDATIONS.items():
            if self.expected[mode]["overall"]["recommendations"] != count:
                raise BenchError(f"oracle recount gives the README a different {mode} count")

    def job(self, trace_dir: Path | None) -> Job:
        job = Job()
        log = self._generate(job, trace_dir)
        if log is not None and self.expected is None:
            self._expect(log)
        for mode in MODES:
            args = ["experiment", "--synthetic", f"n={PAPER_GAMES}", f"silent={PAPER_SILENT}",
                    "--matrix", "table2", "--seed", str(self.seed), "--mode", mode, "--format", "json"]
            step, summary = self._step(args, job, trace_dir, mode)
            if self.expected is None:
                job.check(False, "no reference: the generated log was wrong")
                queries = PAPER_GAMES
            else:
                queries = self._check_report(job, step, self.expected[mode], mode)
            job.add_step(mode, step, queries, summary)
            job.latencies[mode] = step["ref_s"] / queries
        return job


class LogIngest(Workload):
    name = "log_ingest"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        custom = inputs.custom_matrix(rng)
        games = inputs.mixed_log(rng, LOG_GAMES, ("table1", "table2", "table3", "custom"))
        self.custom_csv = self.runner.path("custom.csv")
        self.custom_csv.write_text(inputs.matrix_csv(custom))
        self.log_csv = self.runner.path("mixed.csv")
        self.log_csv.write_text(inputs.log_csv(games))
        self.setup_args = ["setup", "experiment", str(self.custom_csv)]
        kept = [g for g in games if inputs.is_single_round(g)]
        self.expected = reference.expected_report(self.oracle, kept, "social_welfare", (1, 2), custom)

    def generate_args(self) -> list[str]:
        return ["generate", "--synthetic", f"n={GENERATE_GAMES}", f"silent={GENERATE_SILENT}",
                "--matrix", GENERATE_MIX, "--seed", str(self.seed)]

    def job(self, trace_dir: Path | None) -> Job:
        job = Job()
        self._generate(job, trace_dir)
        args = ["experiment", "--log", str(self.log_csv), "--matrix-file", f"custom={self.custom_csv}",
                "--principal", "both", "--jobs", "2", "--mode", "social_welfare", "--format", "json"]
        step, summary = self._step(args, job, trace_dir, "experiment")
        queries = self._check_report(job, step, self.expected, "log_ingest experiment")
        job.add_step("experiment", step, queries, summary)
        job.latencies["experiment"] = step["ref_s"] / queries
        return job


class SolveWide(Workload):
    name = "solve_wide"
    n_queries = SOLVE_QUERIES
    generate_repeats = 4  # a run has only three or four jobs

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        query_dir = self.runner.path("queries")
        query_dir.mkdir()
        paths, self.expected = [], []
        for i, spec in enumerate(inputs.query_plan(rng, self.n_queries)):
            case = inputs.make_query(rng, spec)
            path = query_dir / f"q{i:04d}.json"
            path.write_text(inputs.query_json(case))
            paths.append(str(path))
            self.expected.append(reference.expected_query(self.oracle, case))
        self.manifest = self.runner.path("manifest.txt")
        self.manifest.write_text("\n".join(paths) + "\n")
        self.setup_args = ["setup", "solve_wide"]

    def job(self, trace_dir: Path | None) -> Job:
        job = Job()
        self._generate(job, trace_dir)
        results_path = self.runner.path("results.json")
        trace = None if trace_dir is None else trace_dir / "solve.json"
        step = self.runner.run(["solve", str(self.manifest), str(results_path)], trace)
        summary = self._read_trace(trace, job) if step["code"] == 0 else None
        results = json.loads(results_path.read_text()) if step["code"] == 0 else []
        job.check(len(results) == len(self.expected), f"solve child exit {step['code']}")
        for i, (expected, result) in enumerate(zip(self.expected, results)):
            job.check(reference.query_matches(expected, result), f"query {i}: {result.get('error', 'outcome')} vs {expected[0]}")
            job.latencies[f"q{i}"] = query_latency(result, step["ticks"])
        job.add_step("solve", step, len(results), summary)
        results_path.unlink(missing_ok=True)
        return job


WORKLOADS = {cls.name: cls for cls in (PaperModes, LogIngest, SolveWide)}


def query_latency(result: dict, ticks: list) -> float:
    """A query's latency in reference seconds.

    Its wall time less the ticks within it, at the speed of the ticks near
    it; a traced child has no ticks and returns the wall time.
    """
    start, end = result["start_s"], result["end_s"]
    if not ticks:
        return end - start
    within = sum(start <= t[0] < end for t in ticks)
    near = [t for t in ticks if start - QUERY_CLOCK_WINDOW_S <= t[0] < end + QUERY_CLOCK_WINDOW_S] or ticks
    return metronome.reference_seconds(end - start, within, near)


# ------------------------------------------------------------------- metrics


def percentile_95(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def job_wall(jobs: list[Job]) -> float:
    return statistics.median(sum(job.walls.values()) for job in jobs)


def query_latencies(jobs: list[Job]) -> list[float]:
    """Each query's (or experiment step's) median latency over the run's jobs."""
    per_key: dict[str, list[float]] = {}
    for job in jobs:
        for key, x in job.latencies.items():
            per_key.setdefault(key, []).append(x)
    return [statistics.median(xs) for xs in per_key.values()]


def end_to_end(setup: list[float], jobs: list[Job]) -> dict:
    wall = job_wall(jobs)
    latencies = query_latencies(jobs)
    return {
        "setup_s": statistics.median(setup),
        "job_wall_s": wall,
        "queries_per_s": sum(jobs[0].queries.values()) / wall,
        "query_latency_p50_ms": statistics.median(latencies) * 1000,
        "query_latency_p95_ms": percentile_95(latencies) * 1000,
        "generate_wall_s": statistics.median(x for j in jobs for x in j.generate_s),
        "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
    }


def scaled(metrics: dict, units: dict, slowdown: float) -> dict:
    """Timings divided, and rates multiplied, by a slowdown."""
    factor = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
    return {name: value * factor.get(units[name], 1) for name, value in metrics.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_layers(job: Job) -> dict:
    """Per-layer values of one traced job, summed over its children."""
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for summary in job.traces:
        for name, entry in summary["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    out = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = layer(base, field)
    out["cli.import_s"] = statistics.median(s["import_s"] for s in job.traces)
    out["scm.abduct.failed"] = counts.get("scm.abduct.failed", 0)
    out["engine.solve.found_ratio"] = _ratio(counts.get("engine.solve.found", 0), layer("engine.solve", "calls"))
    out["engine.solve.intervene_per_call"] = _ratio(
        counts.get("engine.solve.intervene", 0), layer("engine.solve", "calls"))
    out["experiment.parse_game_log.rows_per_s"] = _ratio(
        counts.get("experiment.parse_game_log.rows", 0), layer("experiment.parse_game_log", "total_s"))
    out["experiment.filter_single_round.kept_ratio"] = _ratio(
        counts.get("experiment.filter_single_round.kept", 0), counts.get("experiment.filter_single_round.seen", 0))
    out["experiment.run_experiment.queries"] = counts.get("experiment.run_experiment.queries", 0)
    out["trace.untraced_remainder_s"] = sum(
        wall - s["import_s"] - s["root_s"] - s["finish_s"] for wall, s in job.step_traces)
    return out


def per_layer(untraced: list[Job], traced: list[Job], slowdown: float) -> dict:
    """Medians over the traced jobs, with timings divided by ``slowdown``.

    Traced children run without the metronome, so the run's median slowdown
    stands in for theirs.  The overhead compares each traced job with the
    untraced job just before it, both unscaled and without ticks.
    """
    per_job = [job_layers(job) for job in traced]
    units = {name: unit for name, unit in PER_LAYER if name != "trace.overhead_ratio"}
    out = scaled({name: statistics.median(values[name] for values in per_job) for name in units}, units, slowdown)
    out["trace.overhead_ratio"] = statistics.median(t.unscaled_s / u.unscaled_s for u, t in zip(untraced, traced))
    return out


# ------------------------------------------------------------------- machine


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


# ---------------------------------------------------------------------- main


def measure(workload: Workload, runner: Runner, seconds: float, trace: bool):
    warm = runner.run(workload.setup_args)  # fills the bytecode cache, checks the import
    if warm["code"] != 0:
        raise BenchError("set-up child failed: " + warm["stderr"].read_text().strip()[-500:])
    setup = []
    for _ in range(SETUP_REPEATS):
        step = runner.run(workload.setup_args)
        if step["code"] != 0:
            raise BenchError("set-up child failed")
        setup.append(step["ref_s"])

    # Jobs repeat while the next one, if as long as the longest so far, ends
    # within --seconds.
    untraced: list[Job] = []
    traced: list[Job] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        job_start = time.perf_counter()
        untraced.append(workload.job(None))
        if trace:
            trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=runner.work))
            traced.append(workload.job(trace_dir))
        now = time.perf_counter()
        longest = max(longest, now - job_start)
        if len(untraced) >= MIN_JOBS and now - start + longest > seconds:
            break
    return setup, untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiagent_recourse" / "__init__.py").is_file():
        print(f"error: no package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracle.py").is_file():
        print("error: tests/oracle.py is missing; the checks need it", file=sys.stderr)
        return 2

    env = machine()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(work)
        workload = WORKLOADS[args.workload](runner, args.seed, reference.load_oracle(ROOT))
        workload.prepare()
        setup, untraced, traced = measure(workload, runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = _read("/proc/loadavg").split()[:3]

    jobs = untraced + traced
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    e2e = end_to_end(setup, untraced)
    slowdowns = [c["slowdown"] for c in runner.children if c["slowdown"] is not None]
    latencies = [x * 1000 for x in query_latencies(untraced)]
    beyond = sum(x > e2e["query_latency_p95_ms"] for x in latencies)
    print("# machine " + json.dumps(env))
    print(f"# workload {args.workload} seed {args.seed}: {len(untraced)} untraced jobs, "
          f"{len(traced)} traced jobs, {SETUP_REPEATS} set-ups, {len(latencies)} latency samples "
          f"({beyond} beyond p95)")
    print("# slowdown over {} metronome-timed children: median {:.4f}, min {:.4f}, max {:.4f}".format(
        len(slowdowns), statistics.median(slowdowns), min(slowdowns), max(slowdowns)))
    print("# samples " + json.dumps({
        "setup_s": setup,
        "job_walls_s": [j.walls for j in untraced],
        "generate_s": [j.generate_s for j in untraced],
        "latencies_s": [j.latencies for j in untraced],
        "children": runner.children,
    }))
    print(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for job in jobs:
        for note in job.notes:
            print(f"# failure: {note}")
    for name, value in e2e.items():
        print(f"# {name} {value:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        units = dict(PER_LAYER)
        layers = per_layer(untraced, traced, runner.median_slowdown())
        for name, _ in PER_LAYER:
            print(f"# {name} {layers[name]:.6g} {units[name]}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
