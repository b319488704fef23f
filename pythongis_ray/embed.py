"""Similarity search over embedding columns (``list<float>``).

Baseline: brute-force top-k by dot product / cosine — one numpy matmul
per batch against a broadcast query matrix (the classic
broadcast-small-side pattern: queries go through ``ray.put`` once).
Scale path: LSH-bucketed search (random hyperplane signs) that turns
the all-pairs problem into bucketed groups. Every keyed shuffle here
(block-pair tasks, per-label and per-cluster folds) is one
``relational.group_apply``.

Exactness: for the DuckDB-verifiable variant, embeddings are quantized
to integers (``round(x * 1000)``) so dot products are exact int64
arithmetic — identical in numpy and SQL regardless of summation order.
(float32*1000 can never be an exact half-integer, so rounding is
unambiguous; see queries 'ann' oracle.)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from pythongis_ray import relational as rel, state
from pythongis_ray.relational import map_pandas


def _as_matrix(col) -> np.ndarray:
    """list<float> Arrow column → (n, d) float matrix, zero-copy when
    the layout is fixed-length."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.ExtensionArray):  # Ray ArrowTensorArray
        return np.asarray(arr.to_numpy(zero_copy_only=False).tolist(),
                          dtype=np.float64)
    flat = arr.values.to_numpy(zero_copy_only=False)
    offs = arr.offsets.to_numpy()
    d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
    if d and np.all(np.diff(offs) == d):
        return flat[offs[0]:offs[-1]].reshape(-1, d)
    return np.array([flat[s:e] for s, e in zip(offs[:-1], offs[1:])])


def quantize(mat: np.ndarray, scale: int = 1000) -> np.ndarray:
    """round(x*scale) → int64 (bit-stable across platforms)."""
    return np.rint(mat.astype(np.float64) * scale).astype(np.int64)


class TopKDot:
    """Actor-pool stage: for each row in the broadcast query set, keep
    the global top-k dataset rows by (quantized) dot product. Emits
    per-batch partial top-k rows (query_id, vec_id, score, rank later);
    the final exact top-k is a tiny driver-side combine."""

    def __init__(self, queries_ref, id_col: str, emb_col: str, k: int,
                 scale: int = 1000, label_col: str | None = None):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.qids = np.asarray(q["id"], np.int64)
        self.qmat = np.asarray(q["mat"], np.int64)
        self.qlabs = (np.asarray(q["lab"], np.int64)
                      if label_col is not None else None)
        self.id_col = id_col
        self.emb_col = emb_col
        self.k = k
        self.scale = scale
        self.label_col = label_col

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        mat = quantize(_as_matrix(batch[self.emb_col]), self.scale)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        scores = self.qmat @ mat.T  # (nq, nb) exact int64
        if self.label_col is not None:
            # hard-negative masking: same-label rows can never win
            lab = batch[self.label_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            scores = np.where(self.qlabs[:, None] == lab[None, :],
                              np.int64(-1) << 62, scores)
        k = min(self.k, scores.shape[1])
        # partial top-k per query within this batch (ties → smallest id)
        out_q, out_i, out_s = [], [], []
        order = np.lexsort((ids[None, :].repeat(len(self.qids), 0),
                            -scores), axis=1)[:, :k]
        for qi in range(len(self.qids)):
            sel = order[qi]
            out_q.append(np.full(k, self.qids[qi]))
            out_i.append(ids[sel])
            out_s.append(scores[qi, sel])
        return pd.DataFrame({
            "query_id": np.concatenate(out_q),
            "neighbor_id": np.concatenate(out_i).astype(np.int64),
            "score": np.concatenate(out_s),
        })


def ann_topk(ds, queries: pd.DataFrame, k: int = 5, id_col: str = "vec_id",
             emb_col: str = "embedding", scale: int = 1000,
             exclude_self: bool = True) -> pd.DataFrame:
    """Exact top-k by quantized dot product: per-batch partial top-k
    (map_batches actor pool) → driver combine over ≤ nq*k*nbatches
    rows. Ties break to the smallest neighbor id."""
    qmat = quantize(np.vstack(queries[emb_col].to_numpy()), scale)
    payload = {"id": queries[id_col].to_numpy(np.int64), "mat": qmat}
    ref = ray.put(payload)
    ncpu = max(2, int(ray.cluster_resources().get("CPU", 4)) - 2)
    # keep one extra partial candidate so dropping the self-match can't
    # shrink a query's final top-k below k
    k_eff = k + 1 if exclude_self else k

    def fn(batch):
        st = state.get_broadcast(
            ref, builder=lambda q: TopKDot(q, id_col, emb_col, k_eff, scale),
            key_extra=("topk", id_col, emb_col, k_eff, scale))
        return st(batch)

    parts = ds.map_batches(fn, batch_format="pyarrow",
                           batch_size=4096).to_pandas()
    if exclude_self:
        parts = parts[parts.query_id != parts.neighbor_id]
    parts = parts.sort_values(["query_id", "score", "neighbor_id"],
                              ascending=[True, False, True], kind="stable")
    out = parts.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out


def hard_negatives(ds, queries: pd.DataFrame, k: int = 1,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   label_col: str = "label",
                   scale: int = 1000) -> pd.DataFrame:
    """Contrastive hard-negative mining: per query, the top-k corpus
    vectors by quantized dot product whose label DIFFERS from the
    query's (the highest-similarity wrong-class examples a contrastive
    trainer wants). Same shape as ann_topk — broadcast query matrix,
    per-batch vectorized matmul with same-label rows masked to −2^62,
    driver combine over nq·k·nbatches partial rows. Exact int64
    scoring, ties to the smallest neighbor id."""
    qmat = quantize(np.vstack(queries[emb_col].to_numpy()), scale)
    payload = {"id": queries[id_col].to_numpy(np.int64), "mat": qmat,
               "lab": queries[label_col].to_numpy(np.int64)}
    ref = ray.put(payload)

    def fn(batch):
        st = state.get_broadcast(
            ref, builder=lambda q: TopKDot(q, id_col, emb_col, k, scale,
                                           label_col=label_col),
            key_extra=("hardneg", id_col, emb_col, k, scale, label_col))
        return st(batch)

    parts = ds.map_batches(fn, batch_format="pyarrow",
                           batch_size=4096).to_pandas()
    parts = parts[parts["score"] > (np.int64(-1) << 62)]
    parts = parts.sort_values(["query_id", "score", "neighbor_id"],
                              ascending=[True, False, True], kind="stable")
    out = parts.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out


# ------------------------------------------------------------- LSH path

N_PLANES = 16


def lsh_bucket_ids(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Random-hyperplane signature → int bucket id. With int64 inputs
    (quantized embeddings × quantized planes) the signs are exact
    integer predicates, so bucket assignment is bit-stable and
    replayable in SQL."""
    signs = (mat @ planes.T) > 0
    return (signs.astype(np.int64) << np.arange(planes.shape[0], dtype=np.int64)).sum(axis=1)


def lsh_planes(n_planes: int, d: int, seed: int = 42,
               scale: int = 1000) -> np.ndarray:
    """Deterministic quantized hyperplanes (shared by the engine and
    the generated SQL oracle literals)."""
    rng = np.random.default_rng(seed)
    return np.round(rng.standard_normal((n_planes, d)) * scale) \
        .astype(np.int64)


def ann_lsh(ds, queries: pd.DataFrame, k: int = 5, id_col: str = "vec_id",
            emb_col: str = "embedding", n_planes: int = N_PLANES,
            seed: int = 42) -> pd.DataFrame:
    """Approximate top-k: candidates restricted to query LSH buckets.
    The 100-TB shape: bucket the corpus ONCE (cheap map_batches),
    then only matching buckets are scanned per query. Recall < 1 by
    construction — this is the documented approximate scale path;
    `ann_topk` is the exact baseline. Hyperplanes AND embeddings are
    quantized to int64 so every sign test is exact — the whole
    approximate pipeline hash-matches its DuckDB replay."""
    d = len(queries[emb_col].iloc[0])
    planes = lsh_planes(n_planes, d, seed)
    planes_ref = ray.put(planes)
    qmat = quantize(np.vstack(queries[emb_col].to_numpy()))
    qbuckets = set(lsh_bucket_ids(qmat, planes).tolist())
    qb_ref = ray.put(qbuckets)

    def bucket_filter(batch: pa.Table) -> pa.Table:
        mat = quantize(_as_matrix(batch[emb_col]))
        b = lsh_bucket_ids(mat, ray.get(planes_ref))
        keep = np.isin(b, np.fromiter(ray.get(qb_ref), dtype=np.int64))
        return batch.filter(pa.array(keep))

    cand = ds.map_batches(bucket_filter, batch_format="pyarrow", batch_size=4096)
    return ann_topk(cand, queries, k=k, id_col=id_col, emb_col=emb_col)


def train_ivf_centroids(ds, n_centroids: int = 16, emb_col: str = "embedding",
                        sample_rows: int = 4096, iters: int = 8,
                        seed: int = 42) -> np.ndarray:
    """Deterministic coarse quantizer for IVF: Lloyd's k-means on a
    bounded sample (k-means++-style farthest-point seeding with a
    fixed RNG). The sample is the ONLY data pulled to the driver;
    training cost is independent of corpus size. Sampling is a seeded
    ``random_sample`` (not a prefix ``limit`` — a sorted/clustered
    parquet would bias prefix centroids)."""
    n = ds.count()
    if n > sample_rows:
        frac = min(1.0, sample_rows * 1.25 / n)
        sample = (ds.random_sample(frac, seed=seed)
                  .limit(sample_rows).to_pandas())
    else:
        sample = ds.to_pandas()
    X = np.vstack(sample[emb_col].to_numpy()).astype(np.float64)
    rng = np.random.default_rng(seed)
    cent = [X[int(rng.integers(len(X)))]]
    for _ in range(n_centroids - 1):
        d2 = np.min([((X - c) ** 2).sum(axis=1) for c in cent], axis=0)
        cent.append(X[int(np.argmax(d2))])      # farthest-point, determ.
    C = np.vstack(cent)
    for _ in range(iters):
        assign = np.argmin(((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2),
                           axis=1)
        for k in range(n_centroids):
            m = assign == k
            if m.any():
                C[k] = X[m].mean(axis=0)
    return C


def ann_ivf(ds, queries: pd.DataFrame, k: int = 5, n_centroids: int = 16,
            nprobe: int = 4, id_col: str = "vec_id",
            emb_col: str = "embedding", seed: int = 42) -> pd.DataFrame:
    """IVF approximate top-k: the corpus partitions into inverted
    lists by nearest coarse centroid (one assignment matmul per
    batch — at scale this is a one-time bucketing written as
    partitioned parquet); each query probes only its ``nprobe``
    nearest lists, then the exact quantized top-k runs on the
    candidates. Recall grows with nprobe (= exact at
    nprobe = n_centroids); `ann_topk` is the exact baseline, `ann_lsh`
    the hyperplane alternative.

    Partitioning assumption: inverted lists are balanced enough that
    nprobe lists ≈ nprobe/n_centroids of the corpus — true for
    k-means lists on non-degenerate data; a skewed list shows up in
    the probe-fraction this function reports via attrs."""
    C = train_ivf_centroids(ds, n_centroids, emb_col, seed=seed)
    C_ref = ray.put(C)
    qmat = np.vstack(queries[emb_col].to_numpy()).astype(np.float64)
    qd = ((qmat[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    probe = set(np.argsort(qd, axis=1)[:, :nprobe].ravel().tolist())
    probe_ref = ray.put(np.fromiter(probe, dtype=np.int64))

    def bucket_filter(batch: pa.Table) -> pa.Table:
        Cl = state.get_broadcast(C_ref, key_extra=("ivf_c",))
        pl = state.get_broadcast(probe_ref, key_extra=("ivf_p",))
        mat = _as_matrix(batch[emb_col]).astype(np.float64)
        assign = np.argmin(
            (mat ** 2).sum(axis=1)[:, None] - 2.0 * (mat @ Cl.T)
            + (Cl ** 2).sum(axis=1)[None, :], axis=1)
        return batch.filter(pa.array(np.isin(assign, pl)))

    cand = ds.map_batches(bucket_filter, batch_format="pyarrow",
                          batch_size=4096)
    return ann_topk(cand, queries, k=k, id_col=id_col, emb_col=emb_col)


def ann_ivf_int(ds, queries: pd.DataFrame, k: int = 5,
                n_centroids: int = 16, nprobe: int = 4, iters: int = 4,
                id_col: str = "vec_id", emb_col: str = "embedding",
                scale: int = 1000) -> pd.DataFrame:
    """IVF approximate top-k on the INTEGER LATTICE, fully
    SQL-replayable: the coarse quantizer is ``kmeans_fit`` (distributed
    Lloyd's with int64 centroids, bit-reproducible for any
    partitioning), probe selection and list assignment are exact
    integer distance tests (ties -> lowest centroid id), and the final
    re-rank is the exact quantized top-k. Candidates = union of the
    queries' ``nprobe`` nearest lists (same union-candidate contract as
    ``ann_lsh``). ``ann_ivf`` remains the float-trained variant; this
    one trades a prefix-seeded init for a DuckDB-checkable pipeline.

    Scale: training streams the corpus (k x (d+1) integer partials per
    block, no shuffle); probing is one broadcast-filter map_batches; the
    re-rank scans only the probed fraction (~nprobe/n_centroids)."""
    C = kmeans_fit(ds, k=n_centroids, iters=iters, emb_col=emb_col,
                   id_col=id_col, scale=scale)
    qmat = quantize(np.vstack(queries[emb_col].to_numpy()), scale)
    Qf, Cf = qmat.astype(np.float64), C.astype(np.float64)
    qd = ((Qf ** 2).sum(axis=1)[:, None] - 2.0 * (Qf @ Cf.T)
          + (Cf ** 2).sum(axis=1)[None, :])      # exact ints < 2^53
    order = np.argsort(qd, axis=1, kind="stable")[:, :nprobe]
    probe_ref = ray.put(np.unique(order).astype(np.int64))
    C_ref = ray.put(C)

    def bucket_filter(batch: pa.Table) -> pa.Table:
        Cl = state.get_broadcast(C_ref, key_extra=("ivfi_c",))
        pl = state.get_broadcast(probe_ref, key_extra=("ivfi_p",))
        mat = quantize(_as_matrix(batch[emb_col]), scale)
        return batch.filter(pa.array(np.isin(_int_assign(mat, Cl), pl)))

    cand = ds.map_batches(bucket_filter, batch_format="pyarrow",
                          batch_size=4096)
    return ann_topk(cand, queries, k=k, id_col=id_col, emb_col=emb_col,
                    scale=scale)


def _replicate_to_block_tasks(batch: pa.Table, B: int, id_col: str,
                              emb_col: str) -> pd.DataFrame:
    """1-Bucket-Theta replication: a row in block b (id hash % B) joins
    every block-pair task (min(b, j), max(b, j)), j < B."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    blk = ((ids.astype(np.uint64) * np.uint64(2654435761)) >> np.uint64(7)
           ).astype(np.int64) % B
    j = np.arange(B, dtype=np.int64)
    lo = np.minimum(blk[:, None], j[None, :])
    hi = np.maximum(blk[:, None], j[None, :])
    task = (lo * B + hi).ravel()
    rep = np.repeat(np.arange(len(ids)), B)
    emb = batch[emb_col].take(pa.array(rep))
    return pd.DataFrame({
        "task": task,
        "_blk": np.repeat(blk, B),
        id_col: np.repeat(ids, B),
        emb_col: emb.to_pandas(),
    })


def neardup_pairs_blocked(ds, threshold: int, id_col: str = "vec_id",
                          emb_col: str = "embedding", scale: int = 1000,
                          n_blocks: int = 8):
    """Exact embedding near-duplicate pairs, distributed: all (a < b)
    with quantized dot >= threshold, computed as a 1-Bucket-Theta
    block self-join (Okcan & Riedewald, SIGMOD'11): rows hash into
    ``n_blocks`` blocks; each row replicates to every block-pair task
    (i, j), i <= j, via one vectorized map_batches; a
    ``group_apply(task)`` co-locates each pair of blocks exactly once
    and the per-group matmul verifies exactly in int64.

    Scale story: nothing materializes on the driver; shuffled bytes
    are n x n_blocks rows; per-task memory is two blocks
    (~2n/n_blocks rows); total compute is the inherent O(n^2) of the
    EXACT all-pairs semantics, spread over B(B+1)/2 independent
    tasks. Pick n_blocks ~ sqrt(cluster cores). For approximate
    near-dup at billions of rows use `ann_lsh`/`ann_ivf` bucketing
    instead (recall < 1). Replaces the round-2 broadcast version that
    pulled the whole corpus to the driver."""
    B = int(n_blocks)

    def pairs_in_task(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": np.array([], np.int64),
                              "id_b": np.array([], np.int64),
                              "score": np.array([], np.int64)})
        if len(g) < 2:
            return empty
        task = int(g["task"].iloc[0])
        i, j = divmod(task, B)
        ids = g[id_col].to_numpy(np.int64)
        blk = g["_blk"].to_numpy(np.int64)
        mat = quantize(np.vstack(g[emb_col].to_numpy()), scale)
        if i == j:
            scores = mat @ mat.T
            hit = (scores >= threshold) & (ids[:, None] < ids[None, :])
            ai, bj = np.nonzero(hit)
            return pd.DataFrame({"id_a": ids[ai], "id_b": ids[bj],
                                 "score": scores[ai, bj]})
        ma, mb = blk == i, blk == j
        if not ma.any() or not mb.any():
            return empty
        scores = mat[ma] @ mat[mb].T
        hit = scores >= threshold
        ai, bj = np.nonzero(hit)
        a, b = ids[ma][ai], ids[mb][bj]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({"id_a": lo, "id_b": hi,
                             "score": scores[ai, bj]})

    rep = ds.map_batches(_replicate_to_block_tasks, batch_format="pyarrow",
                         batch_size=4096,
                         fn_kwargs={"B": B, "id_col": id_col, "emb_col": emb_col})
    return rel.group_apply(rep, "task", pairs_in_task)


def label_centroids(ds, label_col: str = "label", emb_col: str = "embedding",
                    scale: int = 1000):
    """Per-label centroid of quantized embeddings: per-batch partial
    (sum vector, count) → group_apply(label) sum → one division.
    Exact int sums → bit-stable means."""
    def partial(batch: pa.Table) -> pd.DataFrame:
        mat = quantize(_as_matrix(batch[emb_col]), scale)
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        u = np.unique(labels)
        rows = []
        for lab in u:
            m = labels == lab
            rows.append((int(lab), mat[m].sum(axis=0).tolist(), int(m.sum())))
        return pd.DataFrame(rows, columns=[label_col, "psum", "pcnt"])

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=4096)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        s = np.sum(np.vstack(g["psum"].to_numpy()), axis=0)
        n = int(g["pcnt"].sum())
        return pd.DataFrame({label_col: [g[label_col].iloc[0]],
                             "centroid": [(s / n).tolist()], "n": [n]})

    return rel.group_apply(parts, label_col, combine)


# ------------------------------------------------- distributed k-means

def _round_half_away(x):
    """round-half-away-from-zero (SQL ROUND semantics; numpy's rint is
    half-to-even, which would diverge from a DuckDB replay)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def _int_assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """argmin_i ||x - C_i||^2 over int64 lattice points, ties -> lowest
    i. Computed in float64 BLAS, which is EXACT here: every product
    and partial sum is an integer < 2^53 (|values| <= ~1e6 after
    quantize, d <= few hundred), so the matmul result is the exact
    integer regardless of summation order — float speed with integer
    semantics."""
    assert np.abs(X).max(initial=0) < 1 << 20 and np.abs(C).max() < 1 << 20
    Xf, Cf = X.astype(np.float64), C.astype(np.float64)
    d2 = ((Xf ** 2).sum(axis=1)[:, None] - 2.0 * (Xf @ Cf.T)
          + (Cf ** 2).sum(axis=1)[None, :])
    return np.argmin(d2, axis=1)          # first min = lowest centroid id


def kmeans_fit(ds, k: int = 8, iters: int = 4, emb_col: str = "embedding",
               id_col: str = "vec_id", scale: int = 1000) -> np.ndarray:
    """Full-corpus distributed Lloyd's k-means on the INTEGER LATTICE,
    bit-reproducible AND SQL-replayable: embeddings quantize to int64;
    per-batch partials carry exact integer (sum-vector, count) per
    centroid; the driver's update rounds sum/count half-away-from-zero
    back onto the lattice. Every round is therefore identical for ANY
    partitioning / batch order (integer addition commutes), and a
    DuckDB chained-CTE replay reproduces each round bit-exactly (sums
    of integer-valued doubles stay < 2^53 hence exact; division and
    ROUND are single correctly-rounded ops). Init is the k smallest
    ``id_col`` rows (deterministic, no RNG); empty clusters keep their
    previous centroid. Returns (k, d) int64 centroids.

    At cluster scale: centroids broadcast once per round via ray.put;
    each block ships only <=k x (d+1) integers of partials; the
    corpus streams, never pulled to the driver; the combine is a
    driver-side sum over n_blocks x k tiny rows — no shuffle at all."""
    seed = ds.filter(expr=f"{id_col} < {k}").to_pandas() \
        .sort_values(id_col).head(k)
    C = quantize(np.vstack(seed[emb_col].to_numpy()), scale)
    for _ in range(iters):
        C_ref = ray.put(C)

        def partial(batch: pa.Table) -> pd.DataFrame:
            Cl = state.get_broadcast(C_ref, key_extra=("km",))
            mat = quantize(_as_matrix(batch[emb_col]), scale)
            assign = _int_assign(mat, Cl)
            sums = np.zeros((len(Cl), mat.shape[1]), dtype=np.int64)
            np.add.at(sums, assign, mat)
            cnt = np.bincount(assign, minlength=len(Cl)).astype(np.int64)
            nz = np.flatnonzero(cnt)
            return pd.DataFrame({
                "cid": nz.astype(np.int64),
                "psum": [sums[i].tolist() for i in nz],
                "pcnt": cnt[nz]})

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=4096).to_pandas()
        C = C.copy()
        for cid, grp in parts.groupby("cid"):
            s = np.sum(np.vstack(grp["psum"].to_numpy()).astype(np.int64),
                       axis=0)
            n = int(grp["pcnt"].sum())
            C[int(cid)] = _round_half_away(s.astype(np.float64) / n)
    return C


def kmeans_assign(ds, centroids: np.ndarray, emb_col: str = "embedding",
                  out_col: str = "cluster", scale: int = 1000):
    """Adds the nearest-centroid id per row (exact int64 distances on
    the quantized lattice; ties -> lowest centroid id)."""
    C_ref = ray.put(np.asarray(centroids, dtype=np.int64))

    def fn(batch: pa.Table) -> pa.Table:
        Cl = state.get_broadcast(C_ref, key_extra=("kma",))
        mat = quantize(_as_matrix(batch[emb_col]), scale)
        return batch.append_column(out_col,
                                   pa.array(_int_assign(mat, Cl)
                                            .astype(np.int64)))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def semdedup(ds, centroids: np.ndarray, threshold: int,
             id_col: str = "vec_id", emb_col: str = "embedding",
             scale: int = 1000):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication = k-means clustering as the blocking stage, then
    EXACT pairwise similarity only WITHIN each cluster; a row is
    dropped when a lower-id row in its cluster has quantized dot
    >= threshold (the deterministic keep-first policy). Emits
    (id, cluster, kept).

    Scale story: the cluster id is the ONLY shuffle key (one
    ``group_apply``); per-group work is an O(c^2) int-exact matmul
    where c is the cluster size — SemDeDup's own contract is that k
    grows with the corpus so c = n/k stays bounded (the paper uses 50k
    clusters for LAION-440M). For a skewed giant cluster, sub-block it
    with `neardup_pairs_blocked` keyed by (cluster, block-pair)."""
    labeled = kmeans_assign(ds, centroids, emb_col=emb_col, scale=scale)

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        mat = quantize(np.vstack(g[emb_col].to_numpy())[order], scale)
        Xf = mat.astype(np.float64)
        scores = Xf @ Xf.T                       # exact (ints < 2^53)
        dup = (scores >= float(threshold)) & np.tri(len(ids), k=-1,
                                                    dtype=bool)
        return pd.DataFrame({
            id_col: ids,
            "cluster": np.full(len(ids), int(g["cluster"].iloc[0]),
                               np.int64),
            "kept": (~dup.any(axis=1)).astype(np.int64)})

    return rel.group_apply(labeled, "cluster", mark)


# ---------------------------------------------- product quantization

def pq_fit(ds, m: int = 4, k: int = 8, iters: int = 2,
           emb_col: str = "embedding", id_col: str = "vec_id",
           scale: int = 1000) -> list[np.ndarray]:
    """Product-quantization codebooks (Jegou et al. 2011, "Product
    Quantization for Nearest Neighbor Search"): the d-dim space splits
    into ``m`` contiguous subspaces, each trained with its own
    integer-lattice k-means. All m sub-fits share ONE streaming pass
    per round — a single map_batches emits (subspace, centroid)
    partials — so training costs the same corpus I/O as one k-means
    regardless of m. Arithmetic is the :func:`kmeans_fit` contract
    (int64 lattice, exact partial sums, round-half-away update), so
    the whole fit replays bit-exactly in DuckDB for ANY partitioning
    (queries.SQL_PQ_TOPK). Returns m (k, d/m) int64 codebooks."""
    seed = ds.filter(expr=f"{id_col} < {k}").to_pandas() \
        .sort_values(id_col).head(k)
    full = quantize(np.vstack(seed[emb_col].to_numpy()), scale)
    d = full.shape[1]
    if d % m:
        raise ValueError("embedding dim must divide into m subspaces")
    sub = d // m
    C = [full[:, j * sub:(j + 1) * sub].copy() for j in range(m)]
    for _ in range(iters):
        C_ref = ray.put([c.copy() for c in C])

        def partial(batch: pa.Table) -> pd.DataFrame:
            Cl = state.get_broadcast(C_ref, key_extra=("pq",))
            mat = quantize(_as_matrix(batch[emb_col]), scale)
            sj, cids, psums, pcnts = [], [], [], []
            for j in range(m):
                X = mat[:, j * sub:(j + 1) * sub]
                assign = _int_assign(X, Cl[j])
                sums = np.zeros((k, sub), dtype=np.int64)
                np.add.at(sums, assign, X)
                cnt = np.bincount(assign, minlength=k).astype(np.int64)
                nz = np.flatnonzero(cnt)
                sj.extend([j] * len(nz))
                cids.extend(nz.tolist())
                psums.extend(sums[i].tolist() for i in nz)
                pcnts.extend(cnt[nz].tolist())
            return pd.DataFrame({"sub": np.array(sj, np.int64),
                                 "cid": np.array(cids, np.int64),
                                 "psum": psums,
                                 "pcnt": np.array(pcnts, np.int64)})

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=4096).to_pandas()
        C = [c.copy() for c in C]
        for (j, cid), grp in parts.groupby(["sub", "cid"]):
            s = np.sum(np.vstack(grp["psum"].to_numpy()).astype(np.int64),
                       axis=0)
            n = int(grp["pcnt"].sum())
            C[int(j)][int(cid)] = _round_half_away(s.astype(np.float64) / n)
    return C


def pq_search(ds, codebooks: list[np.ndarray], query: np.ndarray,
              k_top: int = 10, emb_col: str = "embedding",
              id_col: str = "vec_id", scale: int = 1000) -> pd.DataFrame:
    """Asymmetric-distance PQ top-k: the query stays exact; every
    corpus vector is scored as sum_j LUT[j, code_j] where
    LUT[j, c] = ||q_j - C_j[c]||^2 (int64-exact) — the codes are the
    vector's per-subspace nearest codewords. Per batch: m tiny
    assigns + one LUT gather + a deterministic partial top-k
    (lexsort by (d2, id) so boundary ties resolve identically
    everywhere); the driver merges <= k_top x n_blocks candidate rows.
    This is the memory shape that makes 100-TB ANN feasible: corpus
    vectors compress from d floats to m bytes, the LUT is m x k ints
    broadcast once, and raw vectors never leave their block."""
    m = len(codebooks)
    sub = codebooks[0].shape[1]
    q = np.asarray(query, dtype=np.int64)
    lut = np.stack([
        ((codebooks[j].astype(np.float64)
          - q[j * sub:(j + 1) * sub].astype(np.float64)) ** 2)
        .sum(axis=1) for j in range(m)]).astype(np.int64)
    refs = ray.put((codebooks, lut))

    def score(batch: pa.Table) -> pd.DataFrame:
        Cb, L = state.get_broadcast(refs, key_extra=("pqs",))
        mat = quantize(_as_matrix(batch[emb_col]), scale)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = np.zeros(len(ids), np.int64)
        for j in range(m):
            assign = _int_assign(mat[:, j * sub:(j + 1) * sub], Cb[j])
            d2 += L[j][assign]
        order = np.lexsort((ids, d2))[:k_top]
        return pd.DataFrame({"vec_id": ids[order], "d2": d2[order]})

    cand = ds.map_batches(score, batch_format="pyarrow",
                          batch_size=8192).to_pandas()
    cand = cand.sort_values(["d2", "vec_id"], kind="stable") \
        .head(k_top).reset_index(drop=True)
    cand["rank"] = np.arange(1, len(cand) + 1, dtype=np.int64)
    return cand


def mutual_nn_blocked(ds, id_col: str = "vec_id",
                      emb_col: str = "embedding", scale: int = 1000,
                      n_blocks: int = 8):
    """Mutual nearest-neighbor pairs (each the other's exact top-1 by
    quantized dot, ties → smaller id) — the reciprocal-best-match
    primitive behind entity matching and contrastive-pair mining.
    Same 1-Bucket-Theta block plan as neardup_pairs_blocked, but each
    task emits per-row PARTIAL best-partner candidates; a per-id
    combine picks the global top-1 and one unordered-pair co-location
    keeps exactly the reciprocal pairs. Nothing driver-side; compute
    is the inherent exact O(n²) spread over B(B+1)/2 tasks."""
    B = int(n_blocks)

    def best_in_task(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id": np.array([], np.int64),
                              "partner": np.array([], np.int64),
                              "score": np.array([], np.int64)})
        if len(g) < 2:
            return empty
        task = int(g["task"].iloc[0])
        i, j = divmod(task, B)
        g = g.sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy(np.int64)
        blk = g["_blk"].to_numpy(np.int64)
        mat = quantize(np.vstack(g[emb_col].to_numpy()), scale)
        if i == j:
            sc = mat @ mat.T
            np.fill_diagonal(sc, np.iinfo(np.int64).min)
            best = sc.argmax(axis=1)      # first max = smallest id
            return pd.DataFrame({"id": ids, "partner": ids[best],
                                 "score": sc[np.arange(len(ids)), best]})
        ma, mb = blk == i, blk == j
        if not ma.any() or not mb.any():
            return empty
        sc = mat[ma] @ mat[mb].T
        ba = sc.argmax(axis=1)
        bb = sc.argmax(axis=0)
        return pd.DataFrame({
            "id": np.concatenate([ids[ma], ids[mb]]),
            "partner": np.concatenate([ids[mb][ba], ids[ma][bb]]),
            "score": np.concatenate([sc[np.arange(int(ma.sum())), ba],
                                     sc[bb, np.arange(int(mb.sum()))]])})

    rep = ds.map_batches(_replicate_to_block_tasks, batch_format="pyarrow",
                         batch_size=4096,
                         fn_kwargs={"B": B, "id_col": id_col, "emb_col": emb_col})
    parts = rel.group_apply(rep, "task", best_in_task)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id", "score", "partner"],
                          ascending=[True, False, True], kind="stable")
        first = ~g["id"].duplicated()
        return g[first][["id", "partner", "score"]]

    nn = rel.bucketed_group_apply(parts, ["id"], combine)

    def pair_key(b: pd.DataFrame) -> pd.DataFrame:
        i = b["id"].to_numpy(np.int64)
        p = b["partner"].to_numpy(np.int64)
        return pd.DataFrame({"lo": np.minimum(i, p),
                             "hi": np.maximum(i, p),
                             "id": i, "score": b["score"].to_numpy(np.int64)})

    keyed = map_pandas(nn, pair_key)

    def mutual(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["lo", "hi"], sort=False).agg(
            n=("id", "size"), score=("score", "max")).reset_index()
        c = c[c["n"] == 2]
        return pd.DataFrame({"id_a": c["lo"].to_numpy(np.int64),
                             "id_b": c["hi"].to_numpy(np.int64),
                             "score": c["score"].to_numpy(np.int64)})

    out = rel.bucketed_group_apply(keyed, ["lo", "hi"], mutual)
    return rel.with_empty_schema(out, pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()),
         ("score", pa.int64())]))
