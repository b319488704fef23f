"""Resumable partitioned-parquet sink with per-partition lineage.

BASELINE.json requires: "streaming with per-partition lineage and
metrics checkpointed to Parquet so a killed run resumes mid-shuffle".
The engine's unit of resumability is the *partition* (a key range of
the cell grid, or any integer partition column):

    out/
      part=<k>/ ...parquet        (written atomically: tmp dir + rename)
      _manifest/part-<k>.json     (lineage: rows, bytes, wall time)

On resume, partitions with a manifest entry whose ``part=<k>`` dir
holds at least the rows it records are skipped entirely — including
their upstream work, because the skip is pushed into the
*read/filter* stage, not the sink (a killed shuffle re-runs only the
missing partitions' inputs). A partition whose dir is lost or short
is rewritten.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from pythongis_ray.relational import group_apply, map_arrow


def partition_of(values: np.ndarray, num_partitions: int) -> np.ndarray:
    """Deterministic partition id for an int64 key column."""
    return (values.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            % np.uint64(num_partitions)).astype(np.int64)


def _manifest_rows(out_dir: str) -> dict[int, int]:
    """Partition id → the rows its manifest entry records."""
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return {}
    out = {}
    for f in os.listdir(mdir):
        if f.startswith("part-") and f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                out[int(f[5:-5])] = json.load(fh)["rows"]
    return out


def _rows_on_disk(pdir: str) -> int:
    """Rows in a partition dir's parquet files (footers only); -1 when
    the dir is missing."""
    if not os.path.isdir(pdir):
        return -1
    return sum(pq.ParquetFile(os.path.join(pdir, f)).metadata.num_rows
               for f in os.listdir(pdir) if f.endswith(".parquet"))


def completed_partitions(out_dir: str) -> set[int]:
    """Partitions whose manifest entry is backed by a ``part=<k>`` dir
    holding at least the rows the entry records."""
    return {k for k, rows in _manifest_rows(out_dir).items()
            if _rows_on_disk(os.path.join(out_dir, f"part={k}")) >= rows}


def write_partition(table: pa.Table, out_dir: str, part: int,
                    lineage: dict | None = None) -> dict:
    """Atomic per-partition write + manifest entry. Returns metrics."""
    t0 = time.monotonic()
    pdir = os.path.join(out_dir, f"part={part}")
    tmp = pdir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(table, os.path.join(tmp, "data.parquet"))
    os.replace(tmp, pdir) if not os.path.exists(pdir) else None
    if os.path.exists(tmp):  # pdir already existed → keep original
        shutil.rmtree(tmp, ignore_errors=True)
    mdir = os.path.join(out_dir, "_manifest")
    os.makedirs(mdir, exist_ok=True)
    metrics = {
        "partition": part,
        "rows": table.num_rows,
        "bytes": table.nbytes,
        "wall_sec": round(time.monotonic() - t0, 4),
        **(lineage or {}),
    }
    mtmp = os.path.join(mdir, f".part-{part}.json.tmp")
    with open(mtmp, "w") as f:
        json.dump(metrics, f)
    os.replace(mtmp, os.path.join(mdir, f"part-{part}.json"))
    return metrics


def write_partitioned(ds, out_dir: str, key_col: str, num_partitions: int = 64,
                      resume: bool = True):
    """Write a Dataset to resumable partitioned parquet.

    Rows are routed to ``hash(key) % num_partitions`` and each
    partition is written by one Arrow group of a
    ``relational.group_apply`` on the partition id, as it is: the
    parquet holds the Dataset's exact Arrow types (an int64 column
    with nulls stays int64) and no ``pandas`` schema metadata. On a
    rerun with ``resume=True``, rows belonging to completed partitions
    are dropped at the FILTER stage (before any downstream work) and
    only the other partitions are written: those never written, and
    those whose dir is lost or holds fewer rows than their manifest
    entry. Returns the list of partition metrics written this run.
    """
    os.makedirs(out_dir, exist_ok=True)
    done = set()
    if resume:
        done = completed_partitions(out_dir)
        # a lost or short partition is written again from scratch
        # (write_partition keeps a dir that already exists)
        for k in _manifest_rows(out_dir).keys() - done:
            shutil.rmtree(os.path.join(out_dir, f"part={k}"),
                          ignore_errors=True)

    def add_part(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        part = partition_of(keys, num_partitions)
        batch = batch.append_column("_part", pa.array(part))
        if done:
            keep = ~np.isin(part, np.fromiter(done, dtype=np.int64))
            batch = batch.filter(pa.array(keep))
        return batch

    keyed = map_arrow(ds, add_part)

    def sink(group: pa.Table) -> pa.Table:
        table = group.drop_columns(["_part"]).replace_schema_metadata()
        m = write_partition(table, out_dir, group["_part"][0].as_py())
        return pa.table({k: [m[k]] for k in ("partition", "rows", "bytes",
                                             "wall_sec")})

    metrics = group_apply(keyed, "_part", sink, batch_format="pyarrow")
    out = metrics.to_pandas()
    # lineage + metrics additionally checkpointed AS PARQUET (the
    # BASELINE.json wording): the cumulative manifest across runs
    full = read_manifest(out_dir)
    if len(full):
        pq.write_table(pa.Table.from_pandas(full, preserve_index=False),
                       os.path.join(out_dir, "_manifest", "metrics.parquet"))
    return out


def read_manifest(out_dir: str):
    import pandas as pd

    mdir = os.path.join(out_dir, "_manifest")
    rows = []
    if os.path.isdir(mdir):
        for f in sorted(os.listdir(mdir)):
            if f.startswith("part-") and f.endswith(".json"):
                rows.append(json.load(open(os.path.join(mdir, f))))
    return pd.DataFrame(rows)
