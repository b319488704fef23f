"""Scale check of the grouped shuffle: ``relational.bucketed_group_apply``
(a hash exchange of Ray tasks) against the sort path it replaced (Ray's
``sort("_bucket")``, then one kernel call per sorted block), on one
synthetic shape.

    python tools/shuffle_scale.py [--rows N] [--keys K] [--blocks B]
                                  [--cpus C] [--repeats R]

Both paths group N int64 rows (K distinct keys, B materialized input
blocks) into 64 hash buckets and sum ``v`` per key with the same kernel,
in a fresh local Ray session of C cpus. Each path runs once untimed,
then R timed runs, alternating; the two results must hold the same
per-key sums. Prints one JSON line per path: the shape, every run's
wall seconds and the best.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np
import pandas as pd

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

NUM_BUCKETS = 64


def combine(b: pd.DataFrame) -> pd.DataFrame:
    return b.groupby("k", sort=False)["v"].sum().reset_index()


def sort_path(ds, keys, fn, num_buckets: int):
    """The sort path: hash buckets, one sort on them, ``fn`` once per
    sorted block."""

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(batch[keys], index=False).to_numpy()
        batch = batch.copy()
        batch["_bucket"] = (h % np.uint64(num_buckets)).astype(np.int64)
        return batch

    def per_block(block: pd.DataFrame):
        if len(block):
            block = block.drop(columns=["_bucket"])
            block.index = pd.RangeIndex(len(block))
            yield fn(block)

    return ds.map_batches(add_bucket, batch_format="pandas",
                          batch_size=8192).sort("_bucket") \
        .map_batches(per_block, batch_format="pandas", batch_size=None) \
        .materialize()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, default=4_000_000)
    ap.add_argument("--keys", type=int, default=400_000)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    a = ap.parse_args()

    import pyarrow as pa
    import ray
    import ray.data as rd

    from pythongis_ray import relational as rel

    ray.init(address="local", num_cpus=a.cpus, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    rng = np.random.default_rng(0)
    cuts = np.linspace(0, a.rows, a.blocks + 1).astype(int)
    ds = rd.from_arrow_refs([ray.put(pa.table({
        "k": rng.integers(0, a.keys, hi - lo, dtype=np.int64),
        "v": rng.integers(0, 1000, hi - lo, dtype=np.int64)}))
        for lo, hi in zip(cuts, cuts[1:])])

    paths = {
        "exchange": lambda: rel.bucketed_group_apply(ds, ["k"], combine,
                                                     NUM_BUCKETS),
        "sort": lambda: sort_path(ds, ["k"], combine, NUM_BUCKETS),
    }
    walls = {p: [] for p in paths}
    results = {p: f() for p, f in paths.items()}       # untimed warm-up
    for _ in range(a.repeats):
        for p, f in paths.items():
            t = time.perf_counter()
            f().count()
            walls[p].append(round(time.perf_counter() - t, 3))
    sums = [results[p].to_pandas().sort_values("k").reset_index(drop=True)
            for p in paths]
    pd.testing.assert_frame_equal(sums[0], sums[1], check_dtype=False)
    for p in paths:
        print(json.dumps({"path": p, "rows": a.rows, "keys": a.keys,
                          "blocks": a.blocks, "cpus": a.cpus,
                          "buckets": NUM_BUCKETS, "wall_s": walls[p],
                          "best_s": min(walls[p])}), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
