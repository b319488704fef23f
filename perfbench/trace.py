"""Per-layer spans and counters, taken from outside the engine.

Nothing in ``pythongis_ray`` is edited. The traced run replaces public
kernel functions of the engine's modules with timing wrappers, in the
driver (``install_driver``) and, through Ray's
``worker_process_setup_hook``, in every worker and actor process
(``install_worker``), so spans are recorded where the work runs (Ray
Data is lazy: the driver-side call of a Dataset-returning function only
builds a plan).

A span's *self* time (its duration minus the spans nested in it) is
added to its layer, so the layer busy times of one job do not overlap.

Tracing is switched per job by the driver: the file ``<dir>/ON`` holds
the current job id. With it absent every wrapper is a pass-through.
Each process keeps its own totals for the current job and rewrites
``<dir>/<pid>.json`` when its outermost span closes; the driver sums
the files stamped with the job id once the job's result is consumed.

The driver also wraps ``GroupedData.map_groups`` (to time the grouped
UDFs that the engine defines as closures, and to record group sizes)
and Ray Data's ``StreamingExecutor.shutdown`` (to read the per-operator
stats of every Dataset executed during the job).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# grouped UDF name (the closure passed to map_groups) -> layer
GROUP_LAYERS = {"per_bucket": "relational", "bucket_join": "relational",
                "refine": "spatial", "sink": "checkpoint"}
# corpus_build's near-duplicate threshold: a verified pair has
# shingle Jaccard >= this
VERIFY_THRESHOLD = 0.5


class Recorder:
    """Span and counter totals of one process for the current job."""

    def __init__(self, trace_dir: str):
        self.flag = os.path.join(trace_dir, "ON")
        self.path = os.path.join(trace_dir, f"{os.getpid()}.json")
        self._tl = threading.local()
        self._lock = threading.Lock()
        self.job = None
        self._reset()

    def _reset(self):
        self.busy = defaultdict(float)     # layer -> self seconds
        self.counts = defaultdict(float)   # counter -> summed value
        self.groups = defaultdict(list)    # "layer/op" -> group row counts
        self.events = defaultdict(float)   # name -> latest wall clock

    def _current_job(self):
        try:
            with open(self.flag) as f:
                return f.read().strip() or None
        except FileNotFoundError:
            return None

    def _stack(self) -> list:
        st = getattr(self._tl, "stack", None)
        if st is None:
            st = self._tl.stack = []
        return st

    def active(self) -> bool:
        """True inside a traced span, or when a traced job is running."""
        if self._stack():
            return True
        job = self._current_job()
        if job is None:
            return False
        if job != self.job:
            with self._lock:
                self.job = job
                self._reset()
        return True

    def span(self, layer: str, fn, args, kwargs, count=None):
        """Run ``fn`` as a span of ``layer``; ``count(args, kwargs,
        result)`` returns counters to add."""
        st = self._stack()
        frame = [0.0]
        st.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                self.add(**count(args, kwargs, out))
            return out
        finally:
            dt = time.perf_counter() - t0
            st.pop()
            with self._lock:
                self.busy[layer] += dt - frame[0]
            if st:
                st[-1][0] += dt
            else:
                self.flush()

    def add(self, **counts):
        with self._lock:
            for k, v in counts.items():
                self.counts[k] += float(v)

    def event(self, name: str):
        with self._lock:
            self.events[name] = time.time()

    def group(self, key: str, rows: int):
        with self._lock:
            self.groups[key].append(int(rows))

    def flush(self):
        with self._lock:
            data = {"job": self.job, "busy": dict(self.busy),
                    "counts": dict(self.counts),
                    "groups": dict(self.groups), "events": dict(self.events)}
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as f:
            json.dump(data, f)
        os.replace(tmp, self.path)


_RECORDER: Recorder | None = None


def recorder() -> Recorder | None:
    return _RECORDER


def _wrap(layer: str, fn, count=None):
    """``fn`` timed under ``layer`` (see :meth:`Recorder.span`)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        if rec is None or not rec.active():
            return fn(*args, **kwargs)
        return rec.span(layer, fn, args, kwargs, count)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _patch(owner, name: str, layer: str, count=None):
    fn = getattr(owner, name)
    if not hasattr(fn, "__perfbench_wrapped__"):
        setattr(owner, name, _wrap(layer, fn, count))


def _pip_count(args, kwargs, out):
    return {"geom.pip_tests": len(out), "geom.pip_hits": int(out.sum())}


def _verify_count(args, kwargs, out):
    return {"text.candidate_pairs": len(out),
            "text.verified_pairs": int((out >= VERIFY_THRESHOLD).sum())}


def _patch_engine():
    """Wrap the engine's public kernels (every process)."""
    from pythongis_ray import graph, grid, pages, spatial, state, text
    from pythongis_ray.geom import algo

    _patch(pages, "synthesize_pages", "pages",
           lambda a, k, out: {"pages.rows": out.num_rows})
    _patch(pages, "geocode_pages", "pages")
    _patch(pages, "extract_links", "pages")
    _patch(grid, "point_to_cell", "grid",
           lambda a, k, out: {"grid.cells": len(out)})
    _patch(grid, "bboxes_to_cells", "grid",
           lambda a, k, out: {"grid.cells": len(out[1])})
    _patch(algo.PreparedPolygon, "contains_points", "geom", _pip_count)
    _patch(algo.PreparedPolygon, "covers_points", "geom", _pip_count)
    _patch(spatial.ZoneIndex, "match_points", "spatial")
    _patch(spatial, "plan_salts", "spatial",
           lambda a, k, out: {"spatial.hot_cells": len(out),
                              "spatial.salt_replicas": sum(out.values())})
    for name in ("quality_score", "fingerprint", "pii_scrub",
                 "_batch_token_hashes", "_batch_shingles", "_batch_minhash"):
        _patch(text, name, "text")
    _patch(text, "jaccard_pairs_batch", "text", _verify_count)

    get = state.get_broadcast

    @functools.wraps(get)
    def get_broadcast(*args, **kwargs):
        rec = _RECORDER
        if rec is None or not rec.active():
            return get(*args, **kwargs)
        # a build is a get that adds a cache entry
        before = len(state._CACHE)
        return rec.span("state", get, args, kwargs, lambda a, k, out: {
            "state.broadcast_gets": 1,
            "state.broadcast_builds": int(len(state._CACHE) > before)})

    if not hasattr(get, "__perfbench_wrapped__"):
        get_broadcast.__perfbench_wrapped__ = get
        state.get_broadcast = get_broadcast

    _patch_shard(graph._CCShard)
    _patch(graph, "_shard_count", "graph",
           lambda a, k, out: _RECORDER.event("graph.spawn_requested") or {})


def _patch_shard(cls):
    init = cls.__init__
    if hasattr(init, "__perfbench_wrapped__"):
        return

    @functools.wraps(init)
    def shard_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec = _RECORDER
        if rec is not None and rec.active():
            rec.event("graph.shard_ready")
            rec.flush()

    shard_init.__perfbench_wrapped__ = init
    cls.__init__ = shard_init
    for name in ("add_edges", "init"):
        _patch(cls, name, "graph.load")
    # one scatter per shard per round: each shard process counts the
    # rounds (the driver takes the max over shards, not the sum)
    _patch(cls, "scatter", "graph.round",
           lambda a, k, out: {"graph.rounds": 1})
    _patch(cls, "gather", "graph.round")


def install_worker():
    """``worker_process_setup_hook``: wrap the kernels in this worker."""
    global _RECORDER
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir and _RECORDER is None:
        _RECORDER = Recorder(trace_dir)
        _patch_engine()


# ------------------------------------------------------------ driver side

_OP_IDS = itertools.count()


def install_driver(trace_dir: str) -> "ExecutorStats":
    """Wrap the kernels in the driver process, plus ``map_groups`` and
    the Ray Data executor. Returns the collector of executor stats."""
    global _RECORDER
    _RECORDER = Recorder(trace_dir)
    _patch_engine()

    from ray.data.grouped_data import GroupedData

    map_groups = GroupedData.map_groups

    @functools.wraps(map_groups)
    def traced_map_groups(self, fn, *args, **kwargs):
        if isinstance(fn, type):
            return map_groups(self, fn, *args, **kwargs)
        layer = GROUP_LAYERS.get(getattr(fn, "__name__", ""), "other")
        return map_groups(self, _group_fn(fn, layer, next(_OP_IDS)),
                          *args, **kwargs)

    GroupedData.map_groups = traced_map_groups
    return ExecutorStats()


def _group_fn(fn, layer: str, op_id: int):
    @functools.wraps(fn)
    def grouped(group, *args, **kwargs):
        rec = recorder()
        if rec is None or not rec.active():
            return fn(group, *args, **kwargs)
        rec.group(f"{layer}/{op_id}", len(group))
        return rec.span(layer, fn, (group, *args), kwargs)

    return grouped


class ExecutorStats:
    """Per-operator stats of every Dataset execution while tracing."""

    def __init__(self):
        from ray.data._internal.execution.operators.input_data_buffer import \
            InputDataBuffer
        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor

        self.ops: list[dict] = []
        shutdown = StreamingExecutor.shutdown
        stats = self

        @functools.wraps(shutdown)
        def traced_shutdown(executor, *args, **kwargs):
            # shutdown runs more than once per execution; record the first
            first = not getattr(executor, "_shutdown", False)
            out = shutdown(executor, *args, **kwargs)
            rec = recorder()
            if first and rec is not None and rec.active():
                for op in getattr(executor, "_topology", None) or ():
                    if not isinstance(op, InputDataBuffer):
                        stats.ops.append(_op_record(op))
            return out

        StreamingExecutor.shutdown = traced_shutdown

    def take(self) -> list[dict]:
        ops, self.ops = self.ops, []
        return ops


def _op_record(op) -> dict:
    udf = wall = 0.0
    blocks = 0
    for block_stats in op.get_stats().values():
        for b in block_stats:
            blocks += 1
            es = b.exec_stats
            if es is not None:
                udf += es.udf_time_s or 0.0
                wall += es.wall_time_s or 0.0
    spilled = getattr(op.metrics, "obj_store_mem_spilled", 0) or 0
    return {"name": op.name, "udf_s": udf, "task_wall_s": wall,
            "blocks": blocks, "spilled_bytes": int(spilled)}


def read_job(trace_dir: str, job: str) -> list[dict]:
    """The per-process records stamped with ``job``."""
    out = []
    for name in os.listdir(trace_dir):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(trace_dir, name)) as f:
                data = json.load(f)
        except (OSError, ValueError):
            continue
        if data.get("job") == job:
            out.append(data)
    return out
