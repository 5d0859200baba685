"""Spans around each layer's public entry points, installed from outside.

The benchmark never edits ``src/``: it wraps the public functions and
methods each layer exposes, in every process it starts (the server gets
them from :mod:`perfbench.launch_server` before ``repro.cli`` runs). A span
records name, start, end, parent span and request id; spans stay in memory
until :meth:`SpanRecorder.dump` at shutdown. Parents come from a
``ContextVar``, so spans opened in concurrent asyncio tasks or worker
threads never adopt each other.

The same wrapping machinery injects faults for the benchmark's self-test
(:func:`install_injection`): a fixed sleep in ``ShardRuntime.execute`` or a
2x slowdown of ``QueryEngine``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import os
import sys
import threading
import time

#: (span name, module, attribute path). A span's layer is the part of its
#: name before the first dot. Names ending in ``*`` take the first
#: positional argument as a suffix (``runtime.op.*`` -> ``runtime.op.range``).
#: A module-level function is swapped in every loaded module that imported
#: it (``benchmarks/conftest.py`` too), except the ``encode_frame`` pair in
#: LOCAL_TARGETS: client and server share that function, but not the layer.
LOCAL_TARGETS = [
    ("client.encode", "repro.client.aio", "encode_frame"),
    ("server.encode", "repro.service.server", "encode_frame"),
]
TARGETS = [
    ("client.encode", "repro.client.aio", "request_to_json"),
    ("client.encode", "repro.client.aio", "trajectory_to_json"),
    ("client.decode", "repro.client.aio", "response_from_json"),
    ("server.decode", "repro.service.server", "request_from_json"),
    ("server.decode", "repro.service.server", "trajectory_from_json"),
    ("server.encode", "repro.service.server", "response_to_json"),
    ("service.execute", "repro.service.service", "QueryService.execute"),
    ("service.ingest", "repro.service.service", "QueryService.ingest"),
    ("executor.run", "repro.service.executors", "SerialShardExecutor.run_on"),
    ("executor.run", "repro.service.executors", "SerialShardExecutor.broadcast"),
    ("executor.run", "repro.service.executors", "SerialShardExecutor.ingest"),
    ("executor.run", "repro.service.executors", "ProcessShardExecutor.run_on"),
    ("executor.run", "repro.service.executors", "ProcessShardExecutor.broadcast"),
    ("executor.run", "repro.service.executors", "ProcessShardExecutor.ingest"),
    ("runtime.op.*", "repro.service.runtime", "ShardRuntime.execute"),
    ("runtime.ingest", "repro.service.runtime", "ShardRuntime.ingest"),
    ("compaction.compact", "repro.service.compaction", "SimplifyingCompaction.compact"),
    ("baselines.keep", "repro.baselines.registry", "UniformSimplifier.keep_indices"),
    ("baselines.keep", "repro.baselines.registry", "GreedySimplifier.keep_indices"),
    ("baselines.keep", "repro.baselines.registry", "RLSimplifier.keep_indices"),
    ("engine.execute", "repro.queries.engine", "QueryEngine.execute"),
    ("engine.evaluate", "repro.queries.engine", "QueryEngine.evaluate"),
    ("engine.evaluate_state", "repro.queries.engine", "QueryEngine.evaluate_state"),
    ("engine.count", "repro.queries.engine", "QueryEngine.count"),
    ("engine.histogram", "repro.queries.engine", "QueryEngine.histogram"),
    ("engine.knn_candidates", "repro.queries.engine", "QueryEngine.knn_candidates"),
    ("engine.similarity", "repro.queries.engine", "QueryEngine.similarity"),
    ("engine.point_memberships", "repro.queries.engine", "QueryEngine.point_memberships"),
    ("engine.incremental_view", "repro.queries.engine", "QueryEngine.incremental_view"),
    ("engine.state_rows", "repro.queries.engine", "QueryEngine.state_rows"),
    ("engine.view_reset", "repro.queries.engine", "IncrementalWorkloadView.reset"),
    ("engine.view_insert", "repro.queries.engine", "IncrementalWorkloadView.notify_insert"),
    ("index.build", "repro.index.octree", "Octree.__init__"),
    ("index.annotate", "repro.index.common", "CubeTree.annotate_queries"),
    ("index.sample", "repro.index.common", "CubeTree.sample_node_at_level"),
    ("core.cube_state", "repro.core.env", "QDTSEnvironment.cube_state"),
    ("core.point_state", "repro.core.env", "QDTSEnvironment.point_state"),
    ("core.insert", "repro.core.env", "QDTSEnvironment.insert"),
    ("core.reward", "repro.core.reward", "IncrementalRangeEvaluator.notify_insert"),
    ("core.reward", "repro.core.reward", "IncrementalRangeEvaluator.diff"),
    ("rl.act", "repro.rl.dqn", "DQNAgent.act"),
    ("rl.learn", "repro.rl.dqn", "DQNAgent.learn"),
    ("eval.truth", "repro.eval.harness", "QueryAccuracyEvaluator.__init__"),
    ("eval.score", "repro.eval.harness", "QueryAccuracyEvaluator.evaluate"),
    ("eval.traclus", "repro.queries.clustering.traclus", "traclus_cluster"),
    ("eval.t2vec", "repro.queries.t2vec", "T2VecEmbedder.fit"),
    ("data.generate", "repro.data.synthetic", "synthetic_database"),
]

#: Layers in the order the per-layer table prints them.
LAYERS = (
    "client", "server", "service", "executor", "runtime", "compaction",
    "baselines", "engine", "index", "core", "rl", "eval", "data",
)

_parent: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_request: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _replace(owner, attr: str, wrapper, everywhere: bool = True) -> None:
    """Swap ``owner.attr`` and every ``from x import attr`` copy of it."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type) or not everywhere:
        return
    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get(attr) is original:
            setattr(mod, attr, wrapper)


class SpanRecorder:
    """In-memory spans plus counters, for one process."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request)
        self.events: list[tuple] = []  # (time, counter name, increment)
        self._ids = iter(range(1, 1 << 62))

    def count(self, name: str, value: float) -> None:
        if os.getpid() != self.pid:
            self._adopt_child()
        self.events.append((time.perf_counter(), name, value))

    def _adopt_child(self) -> None:
        """First record in a forked worker: start this process's own record,
        written to ``<path>.<pid>`` when the worker exits in order."""
        import multiprocessing.util

        self.pid = os.getpid()
        self.spans, self.events = [], []
        if self.path is not None:
            multiprocessing.util.Finalize(
                self, self.dump, args=(f"{self.path}.{self.pid}",), exitpriority=0
            )

    @contextlib.contextmanager
    def root(self, name: str, request: str | None = None):
        """A span the benchmark opens itself (one request, one pipeline
        pass); wrapped calls made inside it become its children."""
        sid = next(self._ids)
        parent_token = _parent.set(sid)
        request_token = _request.set(request)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _request.reset(request_token)
            _parent.reset(parent_token)
            self.spans.append((sid, None, name, start, end, request))

    @contextlib.contextmanager
    def span(self, name: str):
        """A child span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = _parent.get()
        token = _parent.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _parent.reset(token)
            self.spans.append((sid, parent, name, start, end, _request.get()))

    def wrap(self, name: str, fn):
        recorder = self
        suffix = name.endswith("*")
        base = name[:-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder.pid:
                recorder._adopt_child()
            label = base + str(args[1]) if suffix else name
            sid = next(recorder._ids)
            parent = _parent.get()
            token = _parent.set(sid)
            request = kwargs.get("trace_id") or _request.get()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _parent.reset(token)
                recorder.spans.append((sid, parent, label, start, end, request))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` (import order independent)."""
        for name, module, path in LOCAL_TARGETS:
            owner, attr = _resolve(module, path)
            _replace(owner, attr, self.wrap(name, getattr(owner, attr)), False)
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            _replace(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._install_counters()

    def _install_counters(self) -> None:
        """Counters measured where the work happens: engine memo hits and
        index candidates against results."""
        from repro.index.backend import IndexBackend
        from repro.queries.engine import QueryEngine

        recorder = self
        candidate_ids = IndexBackend.candidate_ids

        @functools.wraps(candidate_ids)
        def counted_candidates(self, lo, hi):
            result = candidate_ids(self, lo, hi)
            recorder.count("index.candidates", sum(len(c) for c in result))
            return result

        IndexBackend.candidate_ids = counted_candidates
        evaluate = QueryEngine.evaluate

        @functools.wraps(evaluate)
        def counted_evaluate(self, *args, **kwargs):
            hits, misses = self.cache_hits, self.cache_misses
            result = evaluate(self, *args, **kwargs)
            recorder.count("engine.memo_hits", self.cache_hits - hits)
            recorder.count("engine.memo_misses", self.cache_misses - misses)
            recorder.count("engine.results", sum(len(r) for r in result))
            return result

        QueryEngine.evaluate = counted_evaluate

    def dump(self, path: str | None = None) -> None:
        with open(path or self.path, "w") as fh:
            json.dump({"spans": self.spans, "events": self.events}, fh)


# ------------------------------------------------------------- injections
def install_injection(kind: str) -> None:
    """Slow one layer on purpose (the benchmark's can-it-fail self-test).

    ``sleep10``: ShardRuntime.execute sleeps 10 ms before every op.
    ``engine2x``: every outermost QueryEngine call spins for as long as the
    call itself took, doubling the engine's cost.
    """
    if kind == "sleep10":
        from repro.service.runtime import ShardRuntime

        execute = ShardRuntime.execute

        @functools.wraps(execute)
        def slow_execute(self, op, payload):
            time.sleep(0.010)
            return execute(self, op, payload)

        ShardRuntime.execute = slow_execute
    elif kind == "engine2x":
        from repro.queries.engine import IncrementalWorkloadView, QueryEngine

        depth = threading.local()

        def doubled(fn):
            @functools.wraps(fn)
            def slow(*args, **kwargs):
                level = getattr(depth, "n", 0)
                depth.n = level + 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth.n = level
                    if level == 0:
                        until = 2 * time.perf_counter() - start
                        while time.perf_counter() < until:
                            pass

            return slow

        for name, module, path in TARGETS:
            if name.startswith("engine."):
                owner, attr = _resolve(module, path)
                if owner in (QueryEngine, IncrementalWorkloadView):
                    setattr(owner, attr, doubled(getattr(owner, attr)))
    else:
        raise ValueError(f"unknown injection {kind!r}")


# ------------------------------------------------------------ aggregation
def self_times(spans) -> dict[str, float]:
    """Self seconds per span name: duration minus the child spans' time."""
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _req in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, _parent_id, name, start, end, _req in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return out


def busy_times(spans) -> dict[str, tuple[int, float]]:
    """(calls, seconds) per span name, counting only the outermost span of
    a name (a recursive call is not counted twice)."""
    by_id = {s[0]: s for s in spans}
    out: dict[str, tuple[int, float]] = {}
    for sid, parent, name, start, end, _req in spans:
        nested = False
        while parent is not None:
            up = by_id.get(parent)
            if up is None:
                break
            if up[2] == name:
                nested = True
                break
            parent = up[1]
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + (0.0 if nested else end - start))
    return out


def counters_in(events, *intervals: tuple[float, float]) -> dict[str, float]:
    """Counter totals over the increments made inside any of the intervals."""
    out: dict[str, float] = {}
    for t, name, value in events:
        if any(start <= t <= end for start, end in intervals):
            out[name] = out.get(name, 0.0) + value
    return out


def _root_of(by_id: dict, span):
    while span[1] is not None and span[1] in by_id:
        span = by_id[span[1]]
    return span


def in_window(spans, start: float, end: float) -> list:
    """Spans whose root started inside [start, end] (same monotonic clock
    in every process on one host)."""
    by_id = {s[0]: s for s in spans}
    return [s for s in spans if start <= _root_of(by_id, s)[3] <= end]


def under(spans, root_name: str) -> list:
    """Spans below a root span named ``root_name`` (the roots excluded)."""
    by_id = {s[0]: s for s in spans}
    return [
        s for s in spans
        if s[1] is not None and _root_of(by_id, s)[2] == root_name
    ]


#: Every per-layer metric a traced run reports, with its unit.
KINDS = ("range", "count", "histogram", "knn", "similarity")
PER_LAYER = [
    ("client.encode_ms", "ms"), ("client.decode_ms", "ms"),
    ("client.retries", "count"),
    ("server.decode_ms", "ms"), ("server.encode_ms", "ms"),
    ("server.queue_wait_ms", "ms"), ("server.queue_depth_hwm", "count"),
    ("server.refused", "count"),
    ("service.execute_ms", "ms"), ("service.ingest_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"), ("service.knn_skip_ratio", "ratio"),
    ("executor.run_ms", "ms"), ("executor.transport_ms", "ms"),
    ("executor.bytes_per_req", "B"),
    *[(f"runtime.op_ms.{k}", "ms") for k in KINDS],
    *[(f"runtime.op_calls.{k}", "count") for k in KINDS],
    ("compaction.passes", "count"), ("compaction.busy_ms", "ms"),
    ("compaction.max_pass_ms", "ms"), ("compaction.bytes_rewritten", "B"),
    ("baselines.keep_ms", "ms"),
    ("engine.calls", "count"), ("engine.busy_ms", "ms"),
    ("engine.memo_hit_ratio", "ratio"), ("index.candidates_per_result", "ratio"),
    ("index.build_ms", "ms"), ("index.annotate_ms", "ms"), ("index.sample_ms", "ms"),
    ("core.cube_state_ms", "ms"), ("core.point_state_ms", "ms"),
    ("core.insert_ms", "ms"), ("core.reward_ms", "ms"), ("core.steps", "count"),
    ("rl.act_ms", "ms"), ("rl.act_calls", "count"),
    ("rl.learn_ms", "ms"), ("rl.learn_calls", "count"),
    ("eval.truth_ms", "ms"), ("eval.traclus_ms", "ms"),
    ("eval.t2vec_ms", "ms"), ("eval.score_ms", "ms"),
    ("data.generate_ms", "ms"),
    *[(f"{layer}.self_ms", "ms") for layer in LAYERS],
    ("bench.train_s", "s"), ("bench.simplify_s", "s"), ("bench.eval_s", "s"),
    ("bench.read_p50_ms", "ms"), ("bench.read_p99_ms", "ms"),
    ("bench.write_p90_ms", "ms"), ("bench.gen_late_p99_ms", "ms"),
    ("trace.unattributed_pct", "%"), ("trace.overhead_pct", "%"),
]

#: Per-layer metric -> (span name, what to take) for span-derived values.
_FROM_SPANS = {
    "client.encode_ms": "client.encode", "client.decode_ms": "client.decode",
    "server.decode_ms": "server.decode", "server.encode_ms": "server.encode",
    "service.execute_ms": "service.execute", "service.ingest_ms": "service.ingest",
    "executor.run_ms": "executor.run", "compaction.busy_ms": "compaction.compact",
    "baselines.keep_ms": "baselines.keep", "index.build_ms": "index.build",
    "index.annotate_ms": "index.annotate", "index.sample_ms": "index.sample",
    "core.cube_state_ms": "core.cube_state", "core.point_state_ms": "core.point_state",
    "core.insert_ms": "core.insert", "core.reward_ms": "core.reward",
    "rl.act_ms": "rl.act", "rl.learn_ms": "rl.learn",
    "eval.truth_ms": "eval.truth", "eval.traclus_ms": "eval.traclus",
    "eval.t2vec_ms": "eval.t2vec", "eval.score_ms": "eval.score",
    "data.generate_ms": "data.generate",
    **{f"runtime.op_ms.{k}": f"runtime.op.{k}" for k in KINDS},
}


def span_metrics(spans, counters) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric that spans and counters determine;
    the rest start at 0 for the workload to fill in."""
    out = {name: 0.0 for name, _unit in PER_LAYER}
    busy = busy_times(spans)
    for metric, span in _FROM_SPANS.items():
        out[metric] = 1000.0 * busy.get(span, (0, 0.0))[1]
    for k in KINDS:
        out[f"runtime.op_calls.{k}"] = busy.get(f"runtime.op.{k}", (0, 0.0))[0]
    out["core.steps"] = busy.get("core.insert", (0, 0.0))[0]
    out["rl.act_calls"] = busy.get("rl.act", (0, 0.0))[0]
    out["rl.learn_calls"] = busy.get("rl.learn", (0, 0.0))[0]
    passes = [s[4] - s[3] for s in spans if s[2] == "compaction.compact"]
    out["compaction.passes"] = len(passes)
    out["compaction.max_pass_ms"] = 1000.0 * max(passes, default=0.0)

    # Engine calls count once however deep engine methods call each other.
    by_id = {s[0]: s for s in spans}
    for sid, parent, name, start, end, _req in spans:
        if not name.startswith("engine."):
            continue
        while parent is not None and parent in by_id:
            if by_id[parent][2].startswith("engine."):
                break
            parent = by_id[parent][1]
        else:
            out["engine.calls"] += 1
            out["engine.busy_ms"] += 1000.0 * (end - start)

    for name, secs in self_times(spans).items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_ms"] += 1000.0 * secs
    hits = counters.get("engine.memo_hits", 0.0)
    lookups = hits + counters.get("engine.memo_misses", 0.0)
    out["engine.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    results = counters.get("engine.results", 0.0)
    out["index.candidates_per_result"] = (
        counters.get("index.candidates", 0.0) / results if results else 0.0
    )
    return out
