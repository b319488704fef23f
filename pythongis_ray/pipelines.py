"""End-to-end pipelines; `flagship` is the engine's headline job.

Flagship (the BASELINE.json north star, scaled to the sandbox):
  read documents.parquet (column-pruned)
  → synthesize pages (url, warc_ts, html, text, lang)
  → geocode (skewed deterministic hash → lon/lat + cell id)
  → spatial join against the nation zone polygons (broadcast index)
  → per (zone, lang) aggregate page counts + token sums
Everything streams: no take_all/to_pandas on the big side; the only
materialized result is the tiny aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pythongis_ray import (fixtures, pages, relational as rel,  # noqa: F401
                           spatial)
from pythongis_ray.relational import bucketed_group_apply


def load_zones(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    return fixtures.zones_from_nation(nation)


def flagship(sf_dir: str, replicate: int = 1):
    """pages → geocode → fused spatial-join+partial-aggregate →
    125-key combine. Returns a small aggregated Dataset
    (zone_id, name, lang, n_pages, sum_tokens).

    Scale shape: token counting, the PIP join and the (zone, lang)
    partial aggregate all happen INSIDE one map_batches over the pages
    stream — no joined row ever hits the object store; the only
    shuffle is one bucketed sum-combine over zones×langs keys
    (``relational.bucketed_group_apply``, a hash exchange of Ray
    tasks; one partial row per (zone, lang, task)). At 10^12 pages
    the data moved after the scan is O(zones × langs × tasks)."""
    import ray

    from pythongis_ray import state

    ds = pages.pages_dataset(sf_dir, replicate=replicate)
    zones = load_zones(sf_dir)
    index = spatial.ZoneIndex.from_pandas(zones[["zone_id", "name", "geometry"]])
    ref = ray.put(index)
    nz = index.n_zones()

    def partial(batch: pa.Table) -> pd.DataFrame:
        idx: spatial.ZoneIndex = state.get_broadcast(ref, key_extra=("flag_idx",))
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        pidx, zidx = idx.match_points(lon, lat, "within")
        if len(pidx) == 0:
            return pd.DataFrame({"zone_idx": np.empty(0, np.int64),
                                 "lang": np.empty(0, object),
                                 "pp": np.empty(0, np.int64),
                                 "pt": np.empty(0, np.int64)})
        ntok = pc.add(pc.count_substring(batch["text"], " "), 1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        langs, lcode = np.unique(lang[pidx], return_inverse=True)
        nl = len(langs)
        key = zidx * nl + lcode
        cnt = np.bincount(key, minlength=nz * nl)
        tok = np.bincount(key, weights=ntok[pidx], minlength=nz * nl)
        hit = np.flatnonzero(cnt)
        return pd.DataFrame({"zone_idx": (hit // nl).astype(np.int64),
                             "lang": langs[hit % nl],
                             "pp": cnt[hit].astype(np.int64),
                             "pt": tok[hit].astype(np.int64)})

    # batch_size=None: one batch per upstream block, so the fused
    # chain's task bundling follows the synthesis batch size (a fixed
    # batch here would re-bundle the small doc input into one task —
    # see pages.pages_dataset)
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    # two-level aggregate, fully distributed: the per-batch partials
    # above are already combined per task, so the final combine input
    # is a BOUNDED (tasks × zones × langs) table — ONE hash-bucketed
    # shuffle reduces it (relational.bucketed_group_apply; Ray 2.49's
    # sort-based aggregate iterates keys in Python). Nothing
    # proportional to task count ever lands on the driver — at 10^6
    # tasks × 10^4 keys the old driver-side to_pandas reduce was a
    # 10^10-row table.
    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["zone_idx", "lang"], sort=False)[["pp", "pt"]]
                .sum().reset_index())

    agg = bucketed_group_apply(parts, ["zone_idx", "lang"], combine,
                               num_buckets=16)

    zid = zones["zone_id"].to_numpy(np.int64)
    zname = zones["name"].to_numpy()

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        zi = b["zone_idx"].to_numpy(np.int64)
        return pd.DataFrame({"zone_id": zid[zi], "name": zname[zi],
                             "lang": b["lang"],
                             "n_pages": b["pp"].to_numpy(np.int64),
                             "sum_tokens": b["pt"].to_numpy(np.int64)})

    return agg.map_batches(finish, batch_format="pandas") \
        .sort(["zone_id", "lang"])


def flagship_wide_rejoin(sf_dir: str, replicate: int = 1):
    """The wide-row discipline end-to-end (SURVEY.md §7.5 / SCALING.md):
    heavy columns (html, text) are PROJECTED OUT before the spatial
    join; the joined slim rows re-attach them afterwards by key via a
    bucketed hash join — html/text never enter the join or any
    shuffle. Returns the joined pages WITH html/text re-attached
    (byte-identical; asserted in tests)."""
    ds = pages.pages_dataset(sf_dir, replicate=replicate)
    slim = ds.select_columns(["page_id", "lon", "lat", "lang"])
    heavy = ds.select_columns(["page_id", "url", "warc_ts", "html", "text"])
    zones = load_zones(sf_dir)
    joined = spatial.spatial_join(slim, zones[["zone_id", "name", "geometry"]],
                                  predicate="within")
    return rel.join_large(joined, heavy, on="page_id")


def flagship_joined_pages(sf_dir: str, replicate: int = 1):
    """The un-aggregated joined pages Dataset (page_id..zone columns),
    with text carried through — used by the byte-identity invariant
    test and the resumable-sink path."""
    ds = pages.pages_dataset(sf_dir, replicate=replicate)
    zones = load_zones(sf_dir)
    return spatial.spatial_join(
        ds, zones[["zone_id", "name", "geometry"]], predicate="within", how="left")


def corpus_build(docs_ds):
    """The full web-corpus BUILD: quality filter → exact dedup →
    near-dup cluster removal → PII scrub, composed from the individual
    operators (each independently oracle-checked) into one streaming
    pipeline. Returns kept docs as (doc_id, n_tokens, text_final).

    Stages (every predicate integer-exact so the composed DuckDB
    oracle matches bit-for-bit):

      1. quality: keep docs with stopword ratio ≥ 5% — evaluated as
         ``n_stop * 20 >= n_tokens`` (no float);
      2. exact dedup: keep the min-doc_id row per content fingerprint;
      3. near-dup: MinHash-LSH pairs (J ≥ 0.5) over the survivors →
         distributed connected components → drop every cluster member
         except the min-id representative;
      4. PII scrub of the surviving text (identity on clean text).
    """
    import ray

    from pythongis_ray import graph, text

    # 1. quality filter (integer predicate)
    def qual(batch: pa.Table) -> pa.Table:
        b = text.quality_score(batch)
        ns = b["n_stop"].to_numpy(zero_copy_only=False)
        nt = b["n_tokens"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ns * 20 >= nt)) \
            .select(["doc_id", "text", "n_tokens"])

    survivors = docs_ds.map_batches(qual, batch_format="pyarrow",
                                    batch_size=4096)

    # 2. exact dedup: keep-first (min doc_id) per content fingerprint.
    # The result is built from task outputs, so the pair stage and the
    # final filter below both read its blocks without running a plan;
    # ``fp`` is dropped downstream (the band explode and the text filter
    # read only doc_id/text, keep_rep selects the output columns).
    survivors = survivors.map_batches(text.fingerprint,
                                      batch_format="pyarrow",
                                      batch_size=4096)
    survivors = rel.dedup(survivors, ["fp"], order_col="doc_id")

    # 3. near-dup clusters among survivors; keep representatives
    # through a broadcast drop set, not a join.
    # degree_cap=64: bounded candidate volume under template-cluster
    # skew (n x 64 pairs max); CC connectivity to each cluster's
    # min-id representative is preserved (see minhash_dedup_pairs),
    # and recall is exact while clusters stay <= 64 members — the
    # oracle-fixture regime (components there are 2-5 docs)
    pairs = text.minhash_dedup_pairs(survivors, threshold=0.5,
                                     degree_cap=64)
    # the drop set is the non-representatives (node != component) of
    # CC's shard result blocks, filtered where the set is built (no
    # shuffle, nothing pulled to the driver; no near-dups give an empty
    # set, which keeps every survivor)
    drop_ref = ray.put(list(rel.nonempty_blocks(
        graph.connected_components(pairs))))

    def drop_set(blocks) -> np.ndarray:
        return np.concatenate([np.empty(0, np.int64)] + [
            t.filter(pc.not_equal(t["node"], t["component"]))["node"]
            .to_numpy() for t in ray.get(blocks)])

    def keep_rep(batch: pa.Table) -> pa.Table:
        from pythongis_ray import state
        drop = state.get_broadcast(drop_ref, drop_set,
                                   key_extra=("corpus_drop",),
                                   latest_only=True)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(~np.isin(did, drop))) \
            .select(["doc_id", "text", "n_tokens"])

    kept = survivors.map_batches(keep_rep, batch_format="pyarrow",
                                 batch_size=8192)

    # 4. PII scrub → final text
    def scrub(batch: pa.Table) -> pa.Table:
        b = text.pii_scrub(batch)
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": b["n_tokens"],
                         "text_final": b["text_scrubbed"]})

    return kept.map_batches(scrub, batch_format="pyarrow",
                            batch_size=8192)


def choropleth(sf_dir: str, path: str, replicate: int = 1,
               width: int = 512, height: int = 256):
    """The flagship's visual data product: run the fused page
    spatial-join aggregate, color each zone polygon by its page
    count (quantile breaks over the 25 zone totals), compose the
    annotation layer (title + per-class legend with formatted break
    values — reference Map.title/add_legend), and save a
    georeferenced PNG/JPEG through the distributed renderer — the
    reference's Map(…).save() workflow (renderer.py Map/save)
    re-expressed over the engine's own pipeline output."""
    import ray.data as rd

    from pythongis_ray import classify, render

    agg = flagship(sf_dir, replicate=replicate).to_pandas()
    per_zone = agg.groupby("zone_id", as_index=False)["n_pages"].sum()
    zones = load_zones(sf_dir)
    z = zones.merge(per_zone, on="zone_id", how="left").fillna(
        {"n_pages": 0})
    bks = classify.quantile(z["n_pages"].to_numpy(np.float64),
                            len(render.SEQUENTIAL))
    m = render.MapCanvas(width=width, height=height)
    m.add_polygons(rd.from_pandas(z[["geometry", "n_pages"]]),
                   value_col="n_pages", breaks=bks, color=None,
                   label="pages per zone")
    m.title = "Pages per zone"
    m.add_legend()
    return m.save(path)
