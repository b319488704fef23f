"""The benchmark's workloads: engine job, DuckDB reference, check.

``BENCHMARK.json`` runs ``geo_shuffle_sink`` and ``corpus_dedup``.
``geo_flagship`` is the worker-pool warm-up of every session and can be
run by hand with ``--workload``; it is left out of ``BENCHMARK.json``
because with three sessions per run, only two workloads fit the
benchmark's time budget (4 + 22 x workloads runs in 3420 s) on one CPU.

Each workload is a :class:`Workload` with

* ``sizes`` -- input size per scale (documents, page replication);
* ``job(ctx)`` -- runs the engine through its public entry points and
  returns the *consumed* result (a pandas frame or, for the sink, the
  directory it wrote);
* ``reference(ctx)`` -- the DuckDB reference, computed once per run
  before anything is timed;
* ``check(ctx, out)`` -- compares a job's output with the reference and
  returns the list of failed checks (empty when the output is correct).

``rows(ctx)`` is the input-row count that ``rows_per_s`` divides by:
pages for the geo workloads, documents for ``corpus_dedup``.

No workload uses the native ``relational.join_large`` (Ray's hash
shuffle): ``pipelines.flagship_wide_rejoin`` does not finish within
180 s on a one-CPU session, because its ``HashShuffleAggregator``
actors starve the single CPU.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd

# spatial_join_shuffle's rows_per_task: low enough that the hottest
# geocode cells of the full-scale input are salted
SHUFFLE_ROWS_PER_TASK = 500
SINK_PARTITIONS = 16


@dataclass
class Ctx:
    """One run's inputs: the generated sf directory, its replication
    factor, a DuckDB connection holding the input views, the cached
    reference and a scratch directory for sink output."""
    sf_dir: str
    replicate: int
    con: Any
    scratch: str
    ref: Any = None
    jobs: int = 0
    sink_metrics: Any = None


@dataclass
class Workload:
    name: str
    sizes: dict            # scale -> (n_docs, replicate)
    job: Callable[[Ctx], Any]
    reference: Callable[[Ctx], Any]
    check: Callable[[Ctx, Any], list]
    rows: Callable[[Ctx], int]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _frame_diff(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list:
    if sorted(got.columns) != sorted(want.columns):
        return [f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows != reference {len(want)}"]
    g, w = _canon(got), _canon(want)
    bad = [c for c in g.columns if not g[c].equals(w[c])]
    return [f"{name}: column {c} differs from reference" for c in bad]


def duck_views(con, sf_dir: str, replicate: int) -> None:
    """``documents`` is the page table with ``doc_id`` := page id, so the
    registry's oracle SQL runs unchanged over replicated pages
    (page_id = doc_id * R + r, every replica carries its doc's text)."""
    src = os.path.join(sf_dir, "documents.parquet")
    con.sql(f"CREATE OR REPLACE VIEW raw_documents AS "
            f"SELECT * FROM read_parquet('{src}')")
    con.sql(f"""CREATE OR REPLACE VIEW documents AS
        SELECT d.doc_id * {replicate} + r.r AS doc_id, d.text, d.lang
        FROM raw_documents d, range({replicate}) r(r)""")
    con.sql(f"CREATE OR REPLACE VIEW nation AS SELECT * FROM "
            f"read_parquet('{os.path.join(sf_dir, 'nation.parquet')}')")


def _oracle(name: str) -> str:
    from pythongis_ray import queries

    return queries.get_oracle_sql_one(name)


# ------------------------------------------------------------ geo_flagship

def flagship_job(ctx: Ctx) -> pd.DataFrame:
    from pythongis_ray import pipelines

    return pipelines.flagship(ctx.sf_dir, replicate=ctx.replicate).to_pandas()


def flagship_reference(ctx: Ctx) -> pd.DataFrame:
    return ctx.con.sql(_oracle("flagship")).df()


def flagship_check(ctx: Ctx, out: pd.DataFrame) -> list:
    return _frame_diff("flagship", out, ctx.ref)


def page_rows(ctx: Ctx) -> int:
    return int(ctx.con.sql("SELECT count(*) FROM documents").fetchone()[0])


# -------------------------------------------------------- geo_shuffle_sink

def shuffle_sink_job(ctx: Ctx) -> str:
    import ray.data as rd

    from pythongis_ray import checkpoint, pages, pipelines, spatial

    ctx.jobs += 1
    out_dir = os.path.join(ctx.scratch, f"sink-{ctx.jobs}")
    pts = pages.pages_dataset(ctx.sf_dir, replicate=ctx.replicate,
                              columns=["page_id", "url", "text", "lon", "lat"])
    zones = rd.from_pandas(
        pipelines.load_zones(ctx.sf_dir)[["zone_id", "name", "geometry"]])
    joined = spatial.spatial_join_shuffle(
        pts, zones, predicate="within", rows_per_task=SHUFFLE_ROWS_PER_TASK)
    ctx.sink_metrics = checkpoint.write_partitioned(
        joined, out_dir, key_col="page_id", num_partitions=SINK_PARTITIONS,
        resume=False)
    return out_dir


def shuffle_sink_reference(ctx: Ctx) -> pd.DataFrame:
    """Per-zone page counts of the flagship oracle (summed over langs)."""
    return ctx.con.sql(f"""SELECT zone_id, CAST(SUM(n_pages) AS BIGINT) AS n
        FROM ({_oracle('flagship')}) f GROUP BY zone_id""").df()


def shuffle_sink_check(ctx: Ctx, out_dir: str) -> list:
    from pythongis_ray import pages

    glob = os.path.join(out_dir, "part=*", "*.parquet")
    try:
        con = ctx.con
        con.sql(f"CREATE OR REPLACE TEMP VIEW sink AS SELECT * FROM "
                f"read_parquet('{glob}', hive_partitioning = false)")
        fails = _frame_diff(
            "sink zone counts",
            con.sql("SELECT zone_id, CAST(count(*) AS BIGINT) AS n "
                    "FROM sink GROUP BY zone_id").df(), ctx.ref)
        n, dup, bad = con.sql(f"""
            SELECT count(*), count(*) - count(DISTINCT s.page_id),
                   count(*) FILTER (WHERE d.doc_id IS NULL
                       OR s.text IS DISTINCT FROM d.text
                       OR s.url IS DISTINCT FROM 'https://site'
                          || CAST(s.page_id % {pages.N_SITES} AS VARCHAR)
                          || '.example/' || CAST(s.page_id AS VARCHAR))
            FROM sink s LEFT JOIN documents d ON d.doc_id = s.page_id
            """).fetchone()
        if dup:
            fails.append(f"sink: {dup} duplicated page ids")
        if bad:
            fails.append(f"sink: {bad} of {n} rows whose url/text differ "
                         "from the input page")
        parts = ctx.sink_metrics
        if int(parts["rows"].sum()) != n:
            fails.append("sink: write_partitioned row metrics disagree "
                         "with the rows read back")
        return fails
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# ------------------------------------------------------------ corpus_dedup

# Two rewrites keep the registry's corpus_build oracle affordable at
# benchmark scale; both are asserted to apply, so a changed oracle
# fails loudly instead of being compared to something else.
# 1. It compares every document pair. A pair with Jaccard >= 0.5 shares
#    at least one shingle, so joining only documents that share a
#    shingle gives the same pair set.
_ALL_PAIRS = """pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM s a JOIN s b ON a.doc_id < b.doc_id
  WHERE"""
_BLOCKED_PAIRS = """sx AS (SELECT doc_id, UNNEST(sh) AS g FROM s),
cand AS (SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
         FROM sx a JOIN sx b ON a.g = b.g AND a.doc_id < b.doc_id),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM cand c JOIN s a ON a.doc_id = c.id_a JOIN s b ON b.doc_id = c.id_b
  WHERE"""
# 2. Its recursive transitive closure is cubic in the cluster size; the
#    minimum reachable id per node is the same from a union-find over
#    the pairs DuckDB returns.
_CLOSURE = """reach(src, dst) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a),
comp AS (SELECT src AS doc_id, MIN(dst) AS component
         FROM reach GROUP BY src),
"""
_COMPONENTS = "comp AS (SELECT doc_id, component FROM pair_components),\n"


def _min_components(pairs: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, component = smallest id connected to it) per paired doc."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].tolist(), pairs["id_b"].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:   # the smaller root wins, so a root is its set's min
            parent[max(ra, rb)] = min(ra, rb)
    nodes = list(parent)
    return pd.DataFrame({"doc_id": np.array(nodes, np.int64),
                         "component": np.array([find(n) for n in nodes],
                                               np.int64)})


def corpus_job(ctx: Ctx) -> pd.DataFrame:
    import ray.data as rd

    from pythongis_ray import pipelines

    docs = rd.read_parquet(os.path.join(ctx.sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return pipelines.corpus_build(docs).to_pandas()


def corpus_reference(ctx: Ctx) -> pd.DataFrame:
    sql = _oracle("corpus_build")
    if sql.count(_ALL_PAIRS) != 1 or sql.count(_CLOSURE) != 1:
        raise RuntimeError("corpus_build oracle SQL changed shape: the "
                           "benchmark's rewrites no longer apply")
    # replicate is 1 here, so the `documents` view is the raw corpus
    sql = sql.replace(_ALL_PAIRS, _BLOCKED_PAIRS)
    head = sql[:sql.index(_CLOSURE)].rstrip().rstrip(",")
    pairs = ctx.con.sql(head + "\nSELECT id_a, id_b FROM pairs").df()
    ctx.con.register("pair_components", _min_components(pairs))
    return ctx.con.sql(sql.replace(_CLOSURE, _COMPONENTS)).df()


def corpus_check(ctx: Ctx, out: pd.DataFrame) -> list:
    return _frame_diff("corpus_build", out, ctx.ref)


def doc_rows(ctx: Ctx) -> int:
    return int(ctx.con.sql("SELECT count(*) FROM raw_documents").fetchone()[0])


WORKLOADS = {w.name: w for w in (
    Workload("geo_flagship", {"full": (5000, 50), "tiny": (300, 2)},
             flagship_job, flagship_reference, flagship_check, page_rows),
    Workload("geo_shuffle_sink", {"full": (5000, 6), "tiny": (300, 2)},
             shuffle_sink_job, shuffle_sink_reference, shuffle_sink_check,
             page_rows),
    Workload("corpus_dedup", {"full": (1200, 1), "tiny": (300, 1)},
             corpus_job, corpus_reference, corpus_check, doc_rows),
)}


def doc_ids(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])["doc_id"].to_numpy()
