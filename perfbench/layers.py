"""Per-layer metrics of one traced job, from the spans of every process
(``trace.read_job``), the Ray Data operator records
(``trace.ExecutorStats``) and the sink's returned partition metrics.

Layer names are the engine's module names. ``*.busy_s`` is the layer's
self time summed over processes; on one core, the layer busy times plus
``ray.overhead_s`` add up to about the job's wall time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

UNITS = {
    "pages.busy_s": "s", "pages.rows": "rows",
    "grid.busy_s": "s", "grid.cells": "cells",
    "geom.pip_busy_s": "s", "geom.pip_tests": "tests",
    "geom.pip_hit_ratio": "ratio",
    "spatial.refine_busy_s": "s", "spatial.hot_cells": "cells",
    "spatial.salt_replicas": "count", "spatial.bucket_skew": "ratio",
    "relational.shuffle_rows": "rows", "relational.shuffle_busy_s": "s",
    "relational.bucket_skew": "ratio",
    "text.busy_s": "s", "text.candidate_pairs": "pairs",
    "text.verified_pairs": "pairs", "text.verify_ratio": "ratio",
    "graph.spawn_s": "s", "graph.load_s": "s", "graph.round_s": "s",
    "graph.rounds": "count",
    "checkpoint.write_s": "s", "checkpoint.bytes": "bytes",
    "checkpoint.partitions": "count",
    "state.broadcast_gets": "count", "state.broadcast_builds": "count",
    "ray.udf_s": "s", "ray.overhead_s": "s", "ray.blocks": "count",
    "ray.spilled_mb": "MB",
    "trace_overhead_s": "s",
}
# counters every shard counts for itself: take the max, not the sum
MAX_COUNTERS = {"graph.rounds"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _skew(groups: dict, layer: str) -> float:
    """max / median group rows of the layer's largest grouped shuffle."""
    ops = [rows for key, rows in groups.items() if key.startswith(layer + "/")]
    if not ops:
        return 0.0
    rows = max(ops, key=sum)
    return _ratio(max(rows), statistics.median(rows))


def job_metrics(procs: list, ops: list, wall_s: float, sink) -> dict:
    busy: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    events: dict = {}
    groups: dict = defaultdict(list)
    for p in procs:
        for k, v in p["busy"].items():
            busy[k] += v
        for k, v in p["counts"].items():
            counts[k] = max(counts[k], v) if k in MAX_COUNTERS else counts[k] + v
        for k, v in p["events"].items():
            events[k] = max(events.get(k, v), v)
        for k, v in p["groups"].items():
            groups[k] += v
    udf = sum(o["udf_s"] for o in ops)
    spawn = 0.0
    if "graph.shard_ready" in events and "graph.spawn_requested" in events:
        spawn = max(0.0, events["graph.shard_ready"]
                    - events["graph.spawn_requested"])
    rel_rows = sum(sum(v) for k, v in groups.items()
                   if k.startswith("relational/"))
    m = {
        "pages.busy_s": busy["pages"], "pages.rows": counts["pages.rows"],
        "grid.busy_s": busy["grid"], "grid.cells": counts["grid.cells"],
        "geom.pip_busy_s": busy["geom"],
        "geom.pip_tests": counts["geom.pip_tests"],
        "geom.pip_hit_ratio": _ratio(counts["geom.pip_hits"],
                                     counts["geom.pip_tests"]),
        "spatial.refine_busy_s": busy["spatial"],
        "spatial.hot_cells": counts["spatial.hot_cells"],
        "spatial.salt_replicas": counts["spatial.salt_replicas"],
        "spatial.bucket_skew": _skew(groups, "spatial"),
        "relational.shuffle_rows": rel_rows,
        "relational.shuffle_busy_s": busy["relational"],
        "relational.bucket_skew": _skew(groups, "relational"),
        "text.busy_s": busy["text"],
        "text.candidate_pairs": counts["text.candidate_pairs"],
        "text.verified_pairs": counts["text.verified_pairs"],
        "text.verify_ratio": _ratio(counts["text.verified_pairs"],
                                    counts["text.candidate_pairs"]),
        "graph.spawn_s": spawn,
        "graph.load_s": busy["graph.load"],
        "graph.round_s": busy["graph.round"],
        "graph.rounds": counts["graph.rounds"],
        "checkpoint.write_s": 0.0, "checkpoint.bytes": 0.0,
        "checkpoint.partitions": 0.0,
        "state.broadcast_gets": counts["state.broadcast_gets"],
        "state.broadcast_builds": counts["state.broadcast_builds"],
        "ray.udf_s": udf,
        "ray.overhead_s": wall_s - udf,
        "ray.blocks": float(sum(o["blocks"] for o in ops)),
        "ray.spilled_mb": sum(o["spilled_bytes"] for o in ops) / 2**20,
    }
    if sink is not None:
        m["checkpoint.write_s"] = float(sink["wall_sec"].sum())
        m["checkpoint.bytes"] = float(sink["bytes"].sum())
        m["checkpoint.partitions"] = float(len(sink))
    # UDF time outside every wrapped kernel (the engine's own closures)
    busy["unattributed_udf"] = udf - sum(
        v for k, v in busy.items() if k != "graph.round" and k != "graph.load")
    m["_busy_by_layer"] = dict(busy)
    m["_operators"] = ops
    return m


def median_metrics(per_job: list) -> dict:
    return {k: statistics.median(j[k] for j in per_job)
            for k in UNITS if k != "trace_overhead_s"}
