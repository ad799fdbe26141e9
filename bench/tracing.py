"""Span tracing installed from outside the package.

``install`` replaces each traced function at every binding its callers look
it up through (the package imports names with ``from .x import y``, so
``experiment.solve`` and ``engine.solve`` are separate bindings of one
function) and wraps the ``Scm`` methods on the class.  Nothing under ``src/``
changes.

Each call becomes a span: name, start, end and the span that was open when it
started.  A call on a worker thread with nothing open on that thread takes
the main thread's innermost open span as its parent (for ``--jobs 2`` that is
``run_experiment``) and is marked foreign.  Spans stay in per-thread arrays
until ``summary`` folds them; a layer's self time is its span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import Counter, defaultdict

# (span name, module that defines it, attribute name)
FUNCTIONS = (
    ("values.as_value", "values", "as_value"),
    ("values.format_value", "values", "format_value"),
    ("games.pd_scm", "games", "pd_scm"),
    ("games.load_matrix_csv", "games", "load_matrix_csv"),
    ("scm.scm_from_dict", "scm", "scm_from_dict"),
    ("engine.solve", "engine", "solve"),
    ("engine.solve_cfe_baseline", "engine", "solve_cfe_baseline"),
    ("engine.load_query", "engine", "load_query"),
    ("engine.outcome_to_dict", "engine", "outcome_to_dict"),
    ("experiment.parse_game_log", "experiment", "parse_game_log"),
    ("experiment.filter_single_round", "experiment", "filter_single_round"),
    ("experiment.run_experiment", "experiment", "run_experiment"),
    ("experiment.generate_synthetic_log", "experiment", "generate_synthetic_log"),
    ("experiment.write_game_log", "experiment", "write_game_log"),
    ("experiment.render_report", "experiment", "render_report"),
    ("cli.main", "cli", "main"),
)
METHODS = (
    ("scm.Scm.construct", "__post_init__"),
    ("scm.intervene", "intervene"),
    ("scm.abduct", "abduct"),
    ("scm.evaluate", "evaluate"),
)
MODULES = ("values", "games", "scm", "engine", "experiment", "cli")


def _observe_solve(counts, args, result):
    counts["engine.solve.found"] += result is not None


def _observe_parse(counts, args, result):
    counts["experiment.parse_game_log.rows"] += sum(len(g.rounds) for g in result)


def _observe_filter(counts, args, result):
    counts["experiment.filter_single_round.seen"] += len(args[0])
    counts["experiment.filter_single_round.kept"] += len(result)


def _observe_run(counts, args, result):
    counts["experiment.run_experiment.queries"] += result.total_queries


OBSERVERS = {
    "engine.solve": _observe_solve,
    "experiment.parse_game_log": _observe_parse,
    "experiment.filter_single_round": _observe_filter,
    "experiment.run_experiment": _observe_run,
}


class _Buffer:
    """One thread's finished spans, in the order they ended."""

    def __init__(self, names: list[str]) -> None:
        self.span_names = names
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.foreign = array("b")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def __iter__(self):
        names = self.span_names
        for sid, n, start, end, parent, foreign in zip(
            self.ids, self.names, self.starts, self.ends, self.parents, self.foreign
        ):
            yield sid, names[n], start, end, parent, foreign


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)  # 0 means "no parent"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self.names: list[str] = []
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(self.names)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        ids = self._ids
        main_stack = self._main.stack
        get_buffer = self._buffer

        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            if stack:
                parent, foreign = stack[-1], 0
            elif main_stack and buf is not self._main:
                parent, foreign = main_stack[-1], 1
            else:
                parent, foreign = 0, 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                buf.counts[name + ".failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
                buf.foreign.append(foreign)
            if observe is not None:
                observe(buf.counts, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function at every module binding that refers to it."""
        modules = {m: getattr(package, m) for m in MODULES}
        for name, home, attr in FUNCTIONS:
            original = getattr(modules[home], attr)
            wrapper = self.wrap(name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        scm_class = modules["scm"].Scm
        for name, attr in METHODS:
            setattr(scm_class, attr, self.wrap(name, getattr(scm_class, attr)))

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds, plus the observers' counts."""
        buffers = self._buffers
        layers: dict[str, dict] = {}
        for name, duration, self_s in self_times(buffers):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_s
        counts: Counter = Counter()
        for b in self._buffers:
            counts.update(b.counts)
        solve_ids = {span[0] for spans in buffers for span in spans if span[1] == "engine.solve"}
        counts["engine.solve.intervene"] = sum(
            1 for spans in buffers for span in spans
            if span[1] == "scm.intervene" and span[4] in solve_ids
        )
        roots = sum(e - s for spans in buffers for _, _, s, e, p, _ in spans if p == 0)
        return {"layers": layers, "counts": dict(counts), "root_s": roots}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(threads):
    """Yield (name, duration, self time) for every span.

    ``threads`` holds one list per thread of spans ``(id, name, start, end,
    parent, foreign)`` in the order they ended, so a span's same-thread
    children come before it and never overlap each other: their durations
    simply add up.  Children marked foreign ran on other threads and may
    overlap anything, so a parent that has them takes the union of all its
    children's intervals instead.
    """
    foreign_children = defaultdict(list)
    for spans in threads:
        for _, _, start, end, parent, foreign in spans:
            if foreign:
                foreign_children[parent].append((start, end))
    for spans in threads:
        child_sum: dict[int, float] = {}
        child_intervals: dict[int, list] = defaultdict(list)
        for sid, name, start, end, parent, foreign in spans:
            if sid in foreign_children:
                covered = union_length(child_intervals.pop(sid, []) + foreign_children[sid], start, end)
            else:
                covered = child_sum.pop(sid, 0.0)
            yield name, end - start, (end - start) - covered
            if parent and not foreign:
                if parent in foreign_children:
                    child_intervals[parent].append((start, end))
                else:
                    child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
