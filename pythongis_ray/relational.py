"""Attribute (non-spatial) operators: aggregation, joins, dedup, windows.

Semantics source: the reference's ``sql.aggreg`` kernel
(/root/reference/pythongis/vector/sql.py:20-137) — stats
``count, sum, max, min, mean/avg, first, last, majority, minority,
concat`` with missing values dropped — plus `VectorData.join`
(/root/reference/pythongis/vector/data.py:1017-1114),
`duplicates` (data.py:990-1015), `moving_window` (data.py:653-695),
`manager.merge` (vector/manager.py:536-565) and `manager.split`
(manager.py:501-534).

Determinism notes (these define the oracle contract):
* ``majority``/``minority`` tie-break to the SMALLEST value (the
  reference's dict-order behavior is not reproducible distributed);
* ``first``/``last``/``concat``/``moving_window`` require an explicit
  order column — insertion order does not survive a shuffle
  (SURVEY.md §7.5 "ordering-dependent ops");
* ``mean`` is finalized as one division of exact partial sums so the
  float result is independent of partitioning;
* an all-missing group yields NULL (SQL semantics) — the reference
  returns the empty string there (sql.py:124-127), a quirk of its
  string-typed save path that would poison Arrow column types; the
  deviation is deliberate and matched by the DuckDB oracles.

Map stages: :func:`map_arrow` and :func:`map_pandas` are the package's
map stage, ``map_batches`` over Arrow or pandas batches of
``MAP_BATCH_SIZE`` rows; a stage that sets another batch size states
its reason beside it.

Scale pattern: :func:`group_apply` is the package's one Ray Data
grouped shuffle (pinned to the sort shuffle; ``key=None`` gathers one
group) and calls its UDF once per group. Every hash-partitioned
operator is one call of :func:`bucketed_group_apply`, a hash exchange
of plain Ray tasks with no Ray Data shuffle or plan of its own: one
split task per input block (small blocks bundled to
``BUCKET_BATCH_SIZE`` rows) routes rows to B hash buckets grouped into
R = min(B, splits) parts, and one reduce task per part runs a
vectorized pandas kernel over its rows in bucket order. Its kernel is
key-wise and may see several buckets at once; given several inputs,
it co-groups them (one frame per input). Algebraic stats
(count/sum/min/max/mean) pre-aggregate per batch inside
``map_batches`` (combiner), so the exchange moves one row per (key,
batch) instead of every input row; holistic stats
(majority/minority/concat/first/last/median/quantile) run the one
group-stat kernel :func:`_group_stats` per part. The two-input joins
(``join_large``, ``asof_join``, ``interval_join``) are kernels over
the (left, right) frames of one two-input exchange; ``hash_join``
broadcasts a small right side instead and shuffles nothing. ``add_global_rank``'s range buckets
and ``skyline``'s single group call ``group_apply`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data.context import ShuffleStrategy

ALGEBRAIC = {"count", "sum", "min", "max", "mean", "avg"}
HOLISTIC = {"first", "last", "majority", "minority", "concat", "median",
            "quantile"}

NUM_BUCKETS = 64
# Rows an exchange split task takes at least (input blocks are
# bundled in order until they reach it): a split makes one piece per
# part, so tiny blocks would multiply pieces and tasks (a 32-block,
# 35k-row as-of join input ran 32 x 32 pieces). It is the batch size
# the sort path keyed its buckets at.
BUCKET_BATCH_SIZE = 8192
# Rows per batch of every map stage (map_arrow / map_pandas): one
# setting for the package instead of one per call. A batch is one UDF
# call, so a large batch spreads the per-call Python and Arrow/pandas
# conversion cost over many rows. 65536 is the size these stages were
# written, verified and benchmarked at; no measurement has tuned it
# yet. A stage that needs another size passes it to ``map_batches``
# with its reason beside it (see ``pipelines.flagship``'s
# ``batch_size=None``).
MAP_BATCH_SIZE = 65536


def map_arrow(ds, fn):
    """A map stage over ``pa.Table`` batches of MAP_BATCH_SIZE rows."""
    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=MAP_BATCH_SIZE)


def map_pandas(ds, fn):
    """A map stage over ``pd.DataFrame`` batches of MAP_BATCH_SIZE rows."""
    return ds.map_batches(fn, batch_format="pandas",
                          batch_size=MAP_BATCH_SIZE)


def group_apply(ds, key: str | None, fn, batch_format: str = "pandas"):
    """The engine's one grouped shuffle: ``fn`` runs once per group of
    ``key`` (its key column still in the frame) and returns a frame of
    its rows; ``key=None`` gathers the whole Dataset into ONE group
    (Ray repartitions to one block — no sort, no aggregator).

    ``batch_format`` is the group's type: a pandas frame by default,
    ``"pyarrow"`` for a ``pa.Table``. Use Arrow for wide-row groups
    that are only indexed and gathered (``take``): it skips the
    pandas round trip of every column, keeps declared types where
    pandas would promote a null-padded int64 to float64, and carries
    no ``pandas`` schema metadata into the output blocks.

    The groupby is pinned to the sort-based pull shuffle, so a global
    ``HASH_SHUFFLE`` setting cannot route it through hash-shuffle
    aggregator actors (which stall on small clusters). Ray picks the
    shuffle when ``map_groups`` is called, from the Dataset's context —
    an object shared with the input's whole ``map_batches`` chain — so
    the pin is set there only while the groupby is built and then
    restored: neither the global ``DataContext`` nor the caller's
    Datasets change.
    """
    ctx = ds.context
    strategy = ctx.shuffle_strategy
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    try:
        return ds.groupby(key).map_groups(fn, batch_format=batch_format)
    finally:
        ctx.shuffle_strategy = strategy


@ray.remote
def _exchange_split(keys: list[str], num_buckets: int, n_parts: int,
                    *blocks):
    """Consecutive blocks of one input of :func:`bucketed_group_apply`
    as ``n_parts`` (frame, bucket ids) pieces: row r goes to bucket
    ``hash_pandas_object(keys) % num_buckets`` and bucket b to part
    ``b * n_parts // num_buckets`` (contiguous bucket ranges, so the
    parts laid end to end are in bucket order). Signed-int keys hash
    as int64, so an int32 key meets the same int64 key of another
    input. A piece keeps its rows in block order, and an empty piece
    keeps the input's columns."""
    from ray.data.block import BlockAccessor

    df = pd.concat([BlockAccessor.for_block(b).to_pandas() for b in blocks],
                   ignore_index=True)
    k = df[keys] if len(df) else df.reindex(columns=keys)
    h = pd.util.hash_pandas_object(_keys64(k, keys), index=False).to_numpy()
    bucket = (h % np.uint64(num_buckets)).astype(np.int64)
    part = bucket * n_parts // num_buckets
    order = np.argsort(part, kind="stable")
    cuts = np.searchsorted(part[order], np.arange(n_parts + 1))
    pieces = tuple((df.take(order[a:b]), bucket[order[a:b]])
                   for a, b in zip(cuts, cuts[1:]))
    return pieces if n_parts > 1 else pieces[0]


def _keys64(frame: pd.DataFrame, keys) -> pd.DataFrame:
    """``frame`` with its signed-int ``keys`` columns as int64."""
    wide = {c: np.int64 for c in keys
            if frame[c].dtype.kind == "i" and frame[c].dtype.itemsize < 8}
    return frame.astype(wide) if wide else frame


@ray.remote(num_returns=2)
def _exchange_reduce(fn, splits: list[int], *pieces):
    """One part of :func:`bucketed_group_apply`: ``splits[i]`` of the
    pieces (in input block order) are input i's. Each input's pieces
    are concatenated and stably ordered by bucket, and ``fn`` is called
    once with one frame per input. Returns (block, rows); a part with
    no rows returns (None, -1) without calling ``fn``."""
    from ray.data.block import BlockAccessor

    frames, at = [], 0
    for n in splits:
        mine, at = pieces[at:at + n], at + n
        full = [(f, b) for f, b in mine if len(b)]
        if not full:
            frames.append(mine[0][0] if mine else pd.DataFrame())
            continue
        df = pd.concat([f for f, _ in full], ignore_index=True)
        bucket = np.concatenate([b for _, b in full])
        if (np.diff(bucket) < 0).any():
            df = df.take(np.argsort(bucket, kind="stable")) \
                .reset_index(drop=True)
        frames.append(df)
    if not any(len(f) for f in frames):
        return None, -1
    out = BlockAccessor.batch_to_block(fn(*frames))
    return out, BlockAccessor.for_block(out).num_rows()


def bucketed_group_apply(ds, keys: list[str], fn, num_buckets: int = NUM_BUCKETS):
    """Hash-bucketed grouped apply: the high-cardinality groupby path,
    run as a hash exchange of plain Ray tasks (no Ray Data shuffle).

    Ray's sort-based ``groupby().aggregate`` iterates keys in Python —
    fine for hundreds of groups, minutes for 10^5+. This routes rows to
    ``hash(keys) % B`` buckets and calls ``fn`` ONCE PER PART:
      * split: one task per non-empty input block (consecutive blocks
        bundled to at least ``BUCKET_BATCH_SIZE`` rows) cuts it into
        R = min(B, splits) parts, each a contiguous range of buckets
        (``num_returns=R``);
      * reduce: one task per part concatenates its pieces in input
        block order, orders the rows by bucket (stably) and calls
        ``fn`` once.
    Only per-part row counts reach the driver; the non-empty outputs
    come back as one ``rd.from_pandas_refs`` Dataset (materialized, so
    a chained call reads its block refs without running a plan), in
    bucket order. A bucket never spans two parts, so every key's rows
    reach one call, and a key's rows arrive in input block order: a
    keep-first kernel (:func:`dedup`) keeps the first input row.

    Co-group: ``ds`` may be a LIST of Datasets, all split into the same
    parts by the same key hash (``keys`` names the key columns of every
    input, or is one list of names per input), and ``fn`` gets one
    frame per input: that input's rows of the part, with its own
    columns and dtypes. An input with no rows in the part arrives as a
    0-row frame with its columns; one with no rows at all as a 0-row
    frame with the columns of its first (0-row) block, or with NO
    columns when it has no block. The joins are kernels over (left, right)
    frames, so no side is tagged, padded or unioned, and no schema is
    read on the driver.

    ``fn``'s contract: a key-wise VECTORIZED kernel. It receives pandas
    frames (each with a fresh RangeIndex) that may hold several
    buckets, i.e. any number of whole keys, and returns a frame of its
    rows computed key by key (a ``groupby`` on ``keys`` or a superset
    of them, a sort by key, a merge on key). A kernel that folds
    keys together (partial counts per another column, the frame's
    maximum) emits one set of rows per part, not per bucket, so its
    caller must re-aggregate them. A part with no rows on any input
    never reaches ``fn``; inputs with no rows give a Dataset with no
    rows and no columns. Bucket hash is ``pd.util.hash_pandas_object``
    (deterministic, fixed key).
    """
    inputs = list(ds) if isinstance(ds, (list, tuple)) else [ds]
    if not (keys and isinstance(keys[0], (list, tuple))):
        keys = [keys] * len(inputs)
    bundles = [_bundles(d) for d in inputs]
    if not any(b for b, _ in bundles):
        return blocks_dataset([])
    bundles = [b or empty for b, empty in bundles]
    n_parts = min(num_buckets, sum(map(len, bundles)))
    split = _exchange_split.options(num_returns=n_parts)
    pieces = [split.remote(k, num_buckets, n_parts, *refs)
              for k, b in zip(keys, bundles) for refs in b]
    if n_parts == 1:
        pieces = [[p] for p in pieces]
    fn_ref = ray.put(fn)
    splits = [len(b) for b in bundles]
    return blocks_dataset([_exchange_reduce.remote(fn_ref, splits,
                                                   *[p[t] for p in pieces])
                           for t in range(n_parts)])


def _bundles(ds):
    """The non-empty block refs of ``ds`` in order, bundled into runs
    of at least ``BUCKET_BATCH_SIZE`` rows (one exchange split each),
    and the bundle of its first 0-row block, if it has one."""
    bundles, rows, empty = [], BUCKET_BATCH_SIZE, []
    for ref, n in _blocks(ds):
        if not n:
            empty = empty or [[ref]]
            continue
        if rows >= BUCKET_BATCH_SIZE:
            bundles.append([])
            rows = 0
        bundles[-1].append(ref)
        rows += n
    return bundles, empty


def blocks_dataset(outs: list):
    """A Dataset of task outputs ``outs``, each a (block ref, rows ref)
    pair whose rows read -1 when the task made no block. Only the row
    counts are fetched; the blocks with rows form the Dataset
    (``rd.from_pandas_refs``, which also takes Arrow blocks), and an
    all-empty result keeps one 0-row block for its schema."""
    import ray.data as rd

    rows = ray.get([n for _, n in outs])
    keep = [o for (o, _), n in zip(outs, rows) if n > 0] \
        or [o for (o, _), n in zip(outs, rows) if n == 0][:1]
    return rd.from_pandas_refs(keep)


@dataclass
class Agg:
    out: str
    col: str | None
    stat: str  # one of ALGEBRAIC | HOLISTIC (or 'concat:<delim>')


def _normalize(specs) -> list[Agg]:
    out = []
    for s in specs:
        if isinstance(s, Agg):
            out.append(s)
        else:
            o, c, st = s
            out.append(Agg(o, c, st))
    return out


def groupby_aggregate(ds, keys, specs, order_col: str | list[str] | None = None):
    """Grouped aggregation with the reference's stat vocabulary.

    ``keys``: str or list[str]. ``specs``: iterable of (out, col, stat)
    or :class:`Agg`. ``order_col``: column name or LIST of column names
    ordering first/last/concat within each group (a multi-column list
    avoids deriving a combined sort key, which risks int64 overflow).
    Missing values are dropped per-stat (reference sql.py:103-118).
    Returns a Ray Dataset of pandas blocks, columns ``keys`` then each
    spec's ``out`` in spec order.

    The algebraic stats (count/sum/min/max/mean) run two phases: a
    per-batch partial, then one bucketed combine (one hash exchange).
    The partial is this function's own, so callers pass ROW-LEVEL
    frames (a derive ``map_batches``), never hand-folded partials.
    Contract: ``sum``/``min``/``max`` of an int64 column stay int64,
    ``count`` is int64, and rows whose key is null form ONE group
    (``dropna=False``; pandas' default ``groupby`` drops them).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    specs = _normalize(specs)
    if all(s.stat.split(":")[0] in ALGEBRAIC for s in specs):
        return _aggregate_partial(ds, keys, specs)
    return bucketed_group_apply(
        ds, keys, lambda b: _group_stats(b, keys, specs, order_col))


def _aggregate_partial(ds, keys: list[str], specs: list[Agg]):
    """Combiner path: per-batch partials → bucketed hash combine."""
    need = []  # (partial_col, src_col, kind)
    for s in specs:
        st = "mean" if s.stat == "avg" else s.stat
        if st == "count":
            need.append((f"__cnt_{s.col or '*'}", s.col, "count"))
        elif st == "sum":
            need.append((f"__sum_{s.col}", s.col, "sum"))
        elif st == "min":
            need.append((f"__min_{s.col}", s.col, "min"))
        elif st == "max":
            need.append((f"__max_{s.col}", s.col, "max"))
        elif st == "mean":
            need.append((f"__sum_{s.col}", s.col, "sum"))
            need.append((f"__cnt_{s.col}", s.col, "count"))
    need = list(dict.fromkeys(need))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # reference quirk (sql.py:120-122): NUMERIC stats (sum/min/max/
        # mean) coerce values via float() and silently drop non-numeric
        # entries. Coercion goes through a SHADOW column so `count` (and
        # group keys) still see the raw values.
        batch = batch.copy()
        shadow = {}
        for _, src, kind in need:
            if (kind != "count" and src and src not in shadow
                    and batch[src].dtype == object):
                shadow[src] = f"__num_{src}"
                batch[shadow[src]] = pd.to_numeric(batch[src], errors="coerce")
        g = batch.groupby(keys, sort=False, dropna=False)
        cols = {}
        for pc, src, kind in need:
            nsrc = shadow.get(src, src) if kind != "count" else src
            if kind == "count":
                cols[pc] = g[src].count() if src else g.size()
            elif kind == "sum":
                cols[pc] = g[nsrc].sum(min_count=1)
            elif kind == "min":
                cols[pc] = g[nsrc].min()
            elif kind == "max":
                cols[pc] = g[nsrc].max()
        return pd.DataFrame(cols).reset_index()

    partials = map_pandas(ds, partial)
    combine_ops = {}
    for pc, src, kind in need:
        combine_ops[pc] = {"count": "sum", "sum": "sum_min1",
                           "min": "min", "max": "max"}[kind]

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        gb = bucket.groupby(keys, sort=False, dropna=False)
        cols = {}
        for pc2, op in combine_ops.items():
            if op == "sum_min1":
                # min_count=1 → an all-missing group propagates NULL
                # (SQL SUM semantics, matching the holistic path);
                # stays on the cythonized sum kernel — a lambda in
                # .agg() would run Python per group
                cols[pc2] = gb[pc2].sum(min_count=1)
            else:
                cols[pc2] = getattr(gb[pc2], op)()
        g = pd.DataFrame(cols).reset_index()
        out = g[keys].copy()
        for s in specs:
            st = "mean" if s.stat == "avg" else s.stat
            if st == "count":
                out[s.out] = g[f"__cnt_{s.col or '*'}"].astype(np.int64)
            elif st == "sum":
                out[s.out] = g[f"__sum_{s.col}"]
            elif st == "min":
                out[s.out] = g[f"__min_{s.col}"]
            elif st == "max":
                out[s.out] = g[f"__max_{s.col}"]
            elif st == "mean":
                out[s.out] = g[f"__sum_{s.col}"].to_numpy(np.float64) \
                    / g[f"__cnt_{s.col}"].to_numpy(np.float64)
        return out

    # bucketed hash combine: one B-group shuffle, vectorized inside
    return bucketed_group_apply(partials, keys, combine)


def _group_stats(frame: pd.DataFrame, keys: list[str], specs: list[Agg],
                 order_col=None) -> pd.DataFrame:
    """The sql.aggreg kernel over one pandas frame: one output row per
    key group, columns ``keys + [s.out for s in specs]``. Runs inside
    each bucket of :func:`groupby_aggregate`'s holistic path, and once
    over the whole right frame for the ``hash_join`` collapse fusion."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        if order_col is not None:
            g = g.sort_values(order_col, kind="stable")
        row = {k: [g[k].iloc[0]] for k in keys}
        for s in specs:
            st = s.stat
            delim = ","
            qq = 0.5
            if st.startswith("concat"):
                parts = st.split(":", 1)
                delim = parts[1] if len(parts) > 1 else ","
                st = "concat"
            elif st.startswith("quantile"):
                parts = st.split(":", 1)
                qq = float(parts[1]) if len(parts) > 1 else 0.5
                st = "quantile"
            vals = g[s.col].dropna() if s.col else g[keys[0]]
            if st in ("sum", "min", "max", "mean", "avg", "median") \
                    and vals.dtype == object:
                # reference float()-coercion quirk (sql.py:120-122)
                vals = pd.to_numeric(vals, errors="coerce").dropna()
            if st == "count":
                row[s.out] = [len(vals)]
            elif st == "sum":
                row[s.out] = [vals.sum() if len(vals) else None]
            elif st == "min":
                row[s.out] = [vals.min() if len(vals) else None]
            elif st == "max":
                row[s.out] = [vals.max() if len(vals) else None]
            elif st in ("mean", "avg"):
                row[s.out] = [float(vals.sum()) / len(vals) if len(vals) else None]
            elif st == "median":
                row[s.out] = [vals.median() if len(vals) else None]
            elif st == "quantile":
                # discrete quantile: sorted[ceil(q*n) - 1] — DuckDB
                # quantile_disc semantics (probed at n=5..2000; the
                # floor((n-1)q) convention differs at e.g. n=6, q=.75)
                if not len(vals):
                    row[s.out] = [None]
                else:
                    sv = vals.sort_values(kind="stable")
                    i = max(0, int(np.ceil(qq * len(sv))) - 1)
                    row[s.out] = [sv.iloc[i]]
            elif st == "first":
                row[s.out] = [vals.iloc[0] if len(vals) else None]
            elif st == "last":
                row[s.out] = [vals.iloc[-1] if len(vals) else None]
            elif st in ("majority", "minority"):
                if not len(vals):
                    row[s.out] = [None]
                else:
                    vc = vals.value_counts()
                    # deterministic tie-break: smallest value
                    target = vc.max() if st == "majority" else vc.min()
                    cand = sorted(v for v, c in vc.items() if c == target)
                    row[s.out] = [cand[0]]
            elif st == "concat":
                row[s.out] = [delim.join(str(v) for v in vals)]
            else:
                raise ValueError(f"unknown stat {s.stat!r}")
        return pd.DataFrame(row)

    outs = [per_group(g) for _, g in
            frame.groupby(keys, sort=False, dropna=False)]
    if not outs:
        return pd.DataFrame({c: [] for c in keys + [s.out for s in specs]})
    return pd.concat(outs, ignore_index=True)


def compute_grouped(ds, by, value_col: str, stat: str, out_col: str,
                    order_col=None):
    """Grouped stat written back onto every member row — the
    reference's ``VectorData.compute(by=..., stat=...)`` window-
    write-back (/root/reference/pythongis/vector/data.py:602-639).
    Plan: grouped aggregate (partial/holistic path) → tiny result
    broadcast-joined back on the keys. The group table is the ONLY
    thing that moves besides the stream itself."""
    by = [by] if isinstance(by, str) else list(by)
    agg = groupby_aggregate(ds, by, [(out_col, value_col, stat)],
                            order_col=order_col).to_pandas()
    return hash_join(ds, agg, on=by)


# ----------------------------------------------------------------- joins

def hash_join(left_ds, right: pd.DataFrame, on, how: str = "inner",
              collapse=None):
    """Broadcast hash join: small right side shipped once via ray.put,
    pandas merge per batch. Duplicate right column names are DROPPED
    (reference rule, /root/reference/pythongis/vector/data.py:1040-1043)
    unless they are join keys. ``collapse``: fieldmapping specs — the
    reference's join ``collapse=True`` fusion (data.py:1017-1114):
    matching right rows aggregate per key BEFORE attaching, so the
    join stays 1:1."""
    on = [on] if isinstance(on, str) else list(on)
    if collapse is not None:
        right = _group_stats(right, on, _normalize(collapse))
    ref = ray.put(right)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        from pythongis_ray import state
        r = state.get_broadcast(ref, key_extra=("hashjoin",))
        drop = [c for c in r.columns if c in batch.columns and c not in on]
        return batch.merge(r.drop(columns=drop), on=on, how=how)

    return map_pandas(left_ds, fn)


def join_large(left_ds, right_ds, on, num_buckets: int = 32, how: str = "inner"):
    """Partitioned hash join for two large Datasets: ONE two-input
    :func:`bucketed_group_apply` over ``hash(on) % num_buckets``
    co-locates each key's rows of both sides, merged per part.
    Right-side non-key columns that the left side also has are DROPPED
    (the reference rule, vector/data.py:1040-1043, as in
    :func:`hash_join`); signed-int keys come out int64. A side with no
    rows at all joins as an empty frame of the keys, so an inner join
    with it returns no rows."""
    on = [on] if isinstance(on, str) else list(on)

    def bucket_join(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        l, r = _keys64(_or_keys(l, r, on), on), _keys64(_or_keys(r, l, on), on)
        return l.merge(r.drop(columns=[c for c in r.columns
                                       if c in l.columns and c not in on]),
                       on=on, how=how)

    return bucketed_group_apply([left_ds, right_ds], on, bucket_join,
                                num_buckets)


def _or_keys(frame: pd.DataFrame, other: pd.DataFrame, keys) -> pd.DataFrame:
    """``frame``, or a 0-row frame of ``other``'s ``keys`` when
    ``frame`` is the no-column frame of an input with no rows."""
    return other[keys].iloc[:0] if frame.columns.empty else frame


def _right_frame(rg: pd.DataFrame, lcols, rkeep: list[str],
                 rename: dict[str, str], shared: set[str]) -> pd.DataFrame:
    """The right frame of :func:`asof_join` / :func:`interval_join`:
    its ``rkeep`` columns renamed into the left's namespace (all of
    them, empty, when the right side has no rows at all)."""
    rg = pd.DataFrame(columns=rkeep) if rg.columns.empty else rg[rkeep]
    rg = rg.rename(columns=rename)
    clash = [c for c in rg.columns if c in lcols and c not in shared]
    if clash:
        raise ValueError(f"right columns collide with left: {clash}")
    return rg


def asof_join(left_ds, right_ds, left_on: str, right_on: str,
              left_by: str, right_by: str, right_cols: list[str],
              direction: str = "backward", tolerance=None,
              how: str = "left", tie_cols: list[str] | None = None,
              num_buckets: int = NUM_BUCKETS):
    """Distributed as-of join: each left row ``(by, on)`` gets the ONE
    right row with the same key and the nearest ``on`` at-or-before it
    (``direction='backward'``; ``'forward'`` = at-or-after,
    ``'nearest'`` = closest either way). The ordered-log lookup the
    reference cannot express (its closest analogue is the ordered
    ``moving_window``, /root/reference/pythongis/vector/data.py:653-695)
    and Ray Data lacks natively — DuckDB ``ASOF JOIN`` is the oracle.

    Scale shape: ONE two-input :func:`bucketed_group_apply` over B
    hash buckets of the key co-locates each key's rows from both
    inputs; inside a bucket the match is ``pd.merge_asof`` — a
    vectorized C merge over both sides sorted by ``on``. A key's full
    right-side history lands in one bucket (the documented
    partitioning assumption); under extreme single-key skew, slice the
    time range and carry a one-row boundary lookback per slice.

    Determinism: right rows sharing ``(by, on)`` resolve to the LAST in
    ``(on, *tie_cols)`` sort order, i.e. the max of ``tie_cols`` — stable
    under any shuffle order. ``how='inner'`` drops unmatched left rows
    (DuckDB ``ASOF JOIN``); ``'left'`` keeps them with nulls
    (``ASOF LEFT JOIN``) — null-padded numeric right columns then ride
    pandas' NaN upcast, so exact-dtype contracts should use 'inner'.
    """
    tie_cols = list(tie_cols or [])
    rkeep = list(dict.fromkeys([right_by, right_on] + tie_cols + right_cols))
    rename = {right_by: left_by, right_on: left_on}
    on, by = left_on, left_by
    tie_sorted = [rename.get(c, c) for c in tie_cols]

    def bucket_asof(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        if lg.columns.empty:
            return lg
        lg = _keys64(lg, [by])
        rg = _keys64(_right_frame(rg, lg.columns, rkeep, rename, {by, on}),
                     [by])
        out_rcols = [c for c in right_cols if c not in lg.columns]
        rg = rg[[by, on] + list(dict.fromkeys(tie_sorted + out_rcols))]
        lg = lg[lg[on].notna()].sort_values(on, kind="mergesort")
        rg = rg[rg[on].notna()].sort_values([on] + tie_sorted,
                                            kind="mergesort")
        for c in (on, by):
            if lg[c].dtype != rg[c].dtype:
                rg[c] = rg[c].astype(lg[c].dtype)
        rg = rg.assign(_rmatch=np.int8(1))
        out = pd.merge_asof(
            lg, rg.drop(columns=[c for c in tie_sorted if c not in out_rcols]),
            on=on, by=by, direction=direction, tolerance=tolerance)
        if how == "inner":
            out = out[out["_rmatch"].notna()]
            # NaN-free now: collapse the merge's float upcast back to
            # the right side's true integer dtypes
            for c in out_rcols:
                if (rg[c].dtype.kind in "iu"
                        and out[c].dtype.kind == "f"):
                    out[c] = out[c].astype(rg[c].dtype)
        return out.drop(columns=["_rmatch"])

    return bucketed_group_apply([left_ds, right_ds], [[by], [right_by]],
                                bucket_asof, num_buckets)


def interval_join(left_ds, right_ds, left_by: str, right_by: str,
                  left_time: str, right_start: str, right_end: str,
                  right_cols: list[str], closed: str = "left",
                  num_buckets: int = NUM_BUCKETS):
    """Distributed range (interval) join: one output row per
    (left, right) pair with equal key and ``start <= t < end``
    (``closed='left'``; ``'both'`` makes the end inclusive). The 1-D
    analogue of the engine's spatial cell join, with the right side
    playing the zone layer.

    Scale shape: the same two-sided hash-bucket co-location as
    :func:`asof_join`; inside a bucket the right side sorts once by
    ``(key, start)`` and every left row's candidate range comes from a
    single vectorized lexicographic merge (cumsum of side indicators
    over one ``np.lexsort``) — candidates are emitted by ragged
    ``np.repeat`` index arrays and filtered on ``end``, no Python row
    loop. Per-bucket work is O((L+R) log(L+R) + pairs); an interval
    whose length dwarfs the key's event span degrades toward the
    key-cartesian bound — at that shape, switch to the grid cell-cover
    pattern (``grid.py``) on time cells.
    """
    rkeep = list(dict.fromkeys([right_by, right_start, right_end]
                               + right_cols))
    rename = {right_by: left_by}
    by, t = left_by, left_time

    def bucket_iv(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        if lg.columns.empty:
            return lg
        lg = _keys64(lg, [by])
        rg = _keys64(_right_frame(rg, lg.columns, rkeep, rename, {by}), [by])
        out_rcols = [c for c in right_cols if c not in lg.columns]
        rg = rg[[by, right_start, right_end] + out_rcols]
        lg = lg[lg[t].notna()]
        rg = rg[rg[right_start].notna() & rg[right_end].notna()]
        rg = rg.sort_values([by, right_start], kind="mergesort") \
            .reset_index(drop=True)
        empty = pd.concat([lg.iloc[:0].reset_index(drop=True),
                           rg[out_rcols].iloc[:0].reset_index(drop=True)],
                          axis=1)
        if not len(lg) or not len(rg):
            return empty
        rk = rg[by].to_numpy()
        rs = rg[right_start].to_numpy()
        re_ = rg[right_end].to_numpy()
        lk = lg[by].to_numpy()
        lt = lg[t].to_numpy()
        n_r, n_l = len(rg), len(lg)
        # klo: start of the key's block in rg (rg sorted by key first)
        klo = np.searchsorted(rk, lk, side="left")
        # hi: lexicographic (key, time) insertion index — merge both
        # sides, sort by (key, time, side) with queries AFTER equal
        # starts (start <= t is inclusive), count rights before each
        # query; because rg is sorted by (key, start) that count IS the
        # global rg index bounding the candidate range
        allk = np.concatenate([rk, lk])
        allt = np.concatenate([rs, lt])
        side = np.concatenate([np.zeros(n_r, np.int8), np.ones(n_l, np.int8)])
        order = np.lexsort((side, allt, allk))
        rights_before = np.cumsum(side[order] == 0)
        pos = np.empty(n_r + n_l, np.int64)
        pos[order] = np.arange(n_r + n_l)
        hi = rights_before[pos[n_r:]]
        reps = hi - klo
        total = int(reps.sum())
        if total == 0:
            return empty
        base = np.repeat(klo, reps)
        off = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(reps) - reps, reps)
        ridx = base + off
        lidx = np.repeat(np.arange(n_l, dtype=np.int64), reps)
        keep = (re_[ridx] >= lt[lidx]) if closed == "both" \
            else (re_[ridx] > lt[lidx])
        return pd.concat(
            [lg.iloc[lidx[keep]].reset_index(drop=True),
             rg[out_rcols].iloc[ridx[keep]].reset_index(drop=True)], axis=1)

    return bucketed_group_apply([left_ds, right_ds], [[by], [right_by]],
                                bucket_iv, num_buckets)


# ------------------------------------------------------------ dedup/window

def dedup(ds, keys, order_col: str | None = None):
    """Exact dedup: keep the first row per key: in input block order
    without ``order_col`` (:func:`bucketed_group_apply` hands a key's
    rows over in that order), else the first (ordered by ``order_col``
    if given, matching the reference's keep-first geometry dedup,
    /root/reference/pythongis/vector/data.py:990-1015)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        if order_col is not None:
            bucket = bucket.sort_values(order_col, kind="stable")
        return bucket.drop_duplicates(subset=keys, keep="first")

    return bucketed_group_apply(ds, keys, per_bucket)


def moving_window(ds, group_key, order_cols, value_col, n: int, stat: str = "mean",
                  out_col: str | None = None):
    """Per-row trailing window of n rows within each group, ordered by
    ``order_cols`` (reference moving_window, data.py:653-695 — one of
    the explicitly order-dependent operators). Supports the FULL
    fieldmapping vocabulary: mean/sum/min/max/median/count +
    first/last/majority/minority/concat[:delim] (reference passes any
    aggreg stat through, data.py:679-688)."""
    out_col = out_col or f"{value_col}_{stat.split(':')[0]}{n}"
    group_key = [group_key] if isinstance(group_key, str) else list(group_key)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    base_stat, _, delim = stat.partition(":")
    delim = delim or ","

    def _window_matrix(v: np.ndarray, gid: np.ndarray):
        """(rows, n) trailing-window matrix: row i holds the last n
        values of i's group up to i (missing slots masked)."""
        m = len(v)
        idx = np.arange(m)[:, None] - np.arange(n - 1, -1, -1)[None, :]
        valid = idx >= 0
        idxc = np.clip(idx, 0, m - 1)
        # a slot is valid only while still in the same group
        valid &= gid[idxc] == gid[:, None]
        return idxc, valid

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(group_key + order_cols, kind="stable") \
            .reset_index(drop=True)
        if not len(g):
            g[out_col] = []
            return g
        if base_stat in ("mean", "sum", "min", "max", "median", "count"):
            r = g.groupby(group_key, sort=False)[value_col].rolling(
                n, min_periods=1)
            if base_stat == "mean":
                # exact: integer rolling sum / count in one division
                vals = (r.sum() / r.count()).to_numpy()
            elif base_stat == "count":
                vals = r.count().to_numpy().astype(np.int64)
            else:
                vals = getattr(r, base_stat)().to_numpy()
            g[out_col] = vals
            return g
        # holistic window stats over an explicit trailing-window matrix
        gid = pd.factorize(pd.util.hash_pandas_object(
            g[group_key], index=False))[0]
        v = g[value_col].to_numpy()
        idxc, valid = _window_matrix(v, gid)
        if base_stat == "first":
            first_pos = np.argmax(valid, axis=1)
            g[out_col] = v[idxc[np.arange(len(g)), first_pos]]
        elif base_stat == "last":
            g[out_col] = v
        elif base_stat in ("majority", "minority"):
            out = np.empty(len(g), dtype=object)
            for i in range(len(g)):
                w = v[idxc[i][valid[i]]]
                u, c = np.unique(w, return_counts=True)
                tgt = c.max() if base_stat == "majority" else c.min()
                out[i] = sorted(u[c == tgt])[0]  # tie-break: smallest
            g[out_col] = out
        elif base_stat == "concat":
            g[out_col] = [delim.join(str(x) for x in v[idxc[i][valid[i]]])
                          for i in range(len(g))]
        else:
            raise ValueError(stat)
        return g

    return bucketed_group_apply(ds, group_key, per_bucket)


def running_sum(ds, group_key, order_cols, value_col: str,
                out_col: str = "running_sum"):
    """Per-row running (cumulative) sum within each group, ordered —
    the unbounded-preceding window frame. Groups co-locate through the
    bucketed hash shuffle; the cumsum inside each group is one
    vectorized pandas pass."""
    group_key = [group_key] if isinstance(group_key, str) else list(group_key)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def per_bucket(b: pd.DataFrame) -> pd.DataFrame:
        g = b.sort_values(group_key + order_cols, kind="stable") \
            .reset_index(drop=True)
        g[out_col] = g.groupby(group_key, sort=False)[value_col].cumsum()
        return g

    return bucketed_group_apply(ds, group_key, per_bucket)


def add_global_rank(ds, sort_cols, out_col: str = "rank",
                    descending: bool = False, num_buckets: int = 64,
                    sample_size: int = 8192):
    """Distributed EXACT global row_number by ``sort_cols``:

      1. a bounded key sample picks ~``num_buckets`` RANGE split
         points (approximate splits only imbalance bucket sizes —
         exactness never depends on them, because ranges are
         contiguous and ties on the first key always land in one
         bucket via one-sided searchsorted);
      2. a counting pass reduces per-bucket row counts to the driver
         (B numbers) → exclusive prefix offsets;
      3. one group_apply on the range bucket sorts each and assigns
         ``offset + local index``.

    The input is scanned twice (count + assign) — the standard
    two-pass distributed ranking. ``descending`` applies to ALL sort
    columns; the first column must be numeric (range bucketing
    negates it for descending order)."""
    sort_cols = [sort_cols] if isinstance(sort_cols, str) else list(sort_cols)
    first = sort_cols[0]
    samp = ds.select_columns([first]).limit(sample_size).to_pandas()[first] \
        .to_numpy()
    key = -samp if descending else samp
    qs = np.linspace(0, 1, num_buckets + 1)[1:-1]
    splits = np.unique(np.quantile(key.astype(np.float64), qs))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch[first].to_numpy()
        k = -k if descending else k
        batch = batch.copy()
        batch["_rb"] = np.searchsorted(splits, k.astype(np.float64),
                                       side="right").astype(np.int64)
        return batch

    tagged = map_pandas(ds, assign)

    def pcount(b: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(b["_rb"].to_numpy(), return_counts=True)
        return pd.DataFrame({"_rb": u, "n": c.astype(np.int64)})

    cnt = tagged.map_batches(pcount, batch_format="pandas").to_pandas() \
        .groupby("_rb")["n"].sum().sort_index()
    offsets = np.zeros(len(splits) + 1, dtype=np.int64)
    running = 0
    for rb in range(len(splits) + 1):
        offsets[rb] = running
        running += int(cnt.get(rb, 0))
    off_ref = ray.put(offsets)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        from pythongis_ray import state
        offs = state.get_broadcast(off_ref, key_extra=("grank",))
        rb = int(g["_rb"].iloc[0])
        g = g.sort_values(sort_cols, ascending=not descending,
                          kind="stable").reset_index(drop=True)
        g[out_col] = offs[rb] + np.arange(1, len(g) + 1, dtype=np.int64)
        return g.drop(columns=["_rb"])

    return group_apply(tagged, "_rb", per_group)


def hopping_window(ds, group_key, ts_col: str, size: int, hop: int, specs,
                   win_col: str = "win_start"):
    """Hopping (sliding-by-hop) event-time windows: each row lands in
    ``size/hop`` overlapping windows; emits one aggregate row per
    (group, window-start). ``size`` must be a multiple of ``hop``;
    with size == hop this degenerates to the tumbling window. The
    replicate is a vectorized map_batches (no flat_map-per-row); the
    aggregate is the normal partial/holistic path."""
    if size % hop != 0:
        raise ValueError("size must be a multiple of hop")
    r = size // hop
    group_key = [group_key] if isinstance(group_key, str) else list(group_key)

    def replicate(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ts)
        idx = np.repeat(np.arange(n, dtype=np.int64), r)
        k = np.tile(np.arange(r, dtype=np.int64), n)
        win = (ts[idx] // hop - k) * hop
        out = batch.take(pa.array(idx))
        return out.append_column(win_col, pa.array(win))

    rep = map_arrow(ds, replicate)
    return groupby_aggregate(rep, group_key + [win_col], specs)


def sessionize(ds, group_key, order_cols, ts_col: str, gap: int,
               out_col: str = "session_id"):
    """Gap-based sessionization: within each group (ordered by
    ``order_cols``), a new session starts when the timestamp jumps by
    more than ``gap``; session ids number from 0 per group. The
    stream-shaped operator of the engine (Ray Data has no event-time
    windows — this is the ordered-log pattern, see ray_guide
    'Streaming-shaped workloads')."""
    group_key = [group_key] if isinstance(group_key, str) else list(group_key)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(group_key + order_cols, kind="stable") \
            .reset_index(drop=True)
        ts = g[ts_col].to_numpy()
        new_group = np.zeros(len(g), dtype=bool)
        if len(g):
            gkeys = g[group_key].to_numpy()
            new_group[1:] = (gkeys[1:] != gkeys[:-1]).any(axis=1)
        jump = np.zeros(len(g), dtype=bool)
        jump[1:] = (ts[1:] - ts[:-1]) > gap
        new_sess = new_group | (jump & ~new_group)
        # per-group session counter: cumsum of jumps, reset at group start
        sess = np.cumsum(jump & ~new_group)
        # subtract the cumulative count at each group's start
        start_idx = np.flatnonzero(np.r_[True, new_group[1:]])
        base = np.zeros(len(g), dtype=np.int64)
        base[start_idx] = sess[start_idx]
        base = np.maximum.accumulate(base)
        g[out_col] = sess - base
        return g

    return bucketed_group_apply(ds, group_key, per_bucket)


# ----------------------------------------------------------- merge/split

def merge(*datasets):
    """Union-all with schema harmonization: missing columns null-filled
    (reference merge fills ``""`` — preserved only at legacy export,
    /root/reference/pythongis/vector/manager.py:536-565)."""
    all_cols: list[str] = []
    types: dict[str, pa.DataType] = {}
    for d in datasets:
        sch = d.schema()
        for c, t in zip(sch.names, sch.types):
            if c not in all_cols:
                all_cols.append(c)
                # Ray schemas of pandas-backed blocks report Python
                # classes, not Arrow DataTypes — only a real DataType
                # can drive a typed pad
                types[c] = t if isinstance(t, pa.DataType) else None

    def pad(cols_present):
        missing = [c for c in all_cols if c not in cols_present]

        def fn(batch: pa.Table) -> pa.Table:
            # pad with the DECLARED type of the column's owning side —
            # an untyped pa.nulls() null-types the column and poisons
            # the union's schema (the r1 shuffle dtype failure class)
            for m in missing:
                batch = batch.append_column(
                    m, pa.nulls(batch.num_rows, types[m])
                    if types[m] is not None else pa.nulls(batch.num_rows))
            return batch.select(all_cols)
        return fn

    out = None
    for d in datasets:
        dd = d.map_batches(pad(d.schema().names), batch_format="pyarrow")
        out = dd if out is None else out.union(dd)
    return out


def split_by_class(ds, col: str, breaks: list[float], out_col: str = "class"):
    """Equal/user-break classification column (classypie 'breaks' +
    split, /root/reference/classypie/main.py:303-497): class i covers
    (breaks[i], breaks[i+1]]; values ≤ breaks[0] get class 0."""
    br = np.asarray(breaks, np.float64)

    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col].to_numpy(np.float64)
        batch[out_col] = np.clip(np.searchsorted(br, v, side="left") - 1, 0, len(br) - 2).astype(np.int64)
        return batch

    return ds.map_batches(classify, batch_format="pandas")


def equal_breaks(lo: float, hi: float, k: int) -> list[float]:
    """classypie equal-interval breaks (/root/reference/classypie/
    breaks.py:17-30)."""
    step = (hi - lo) / k
    return [lo + i * step for i in range(k + 1)]



def driver_safe(ds, schema: pa.Schema):
    """Driver-boundary finalizer for results that can be legitimately
    empty: ``Dataset.to_pandas`` DROPS the schema of an ALL-empty
    dataset (even one holding a typed empty Arrow block), so a query
    whose result may be empty at some checked scale must hand the
    driver a typed empty PANDAS frame instead (the price_band
    pattern). Non-empty results pass through as the materialized
    Dataset — zero extra cost beyond the count. Use in queries()
    wrappers, not inside operators (tests chain .to_pandas on
    operator Datasets)."""
    ds = ds.materialize()
    if ds.count() == 0:
        return schema.empty_table().to_pandas()
    return ds


def with_empty_schema(ds, schema: pa.Schema):
    """Union a zero-row TYPED block into ``ds`` so a query result keeps
    its declared columns even when it has no rows: a grouped apply with
    ZERO groups (``map_groups``, or :func:`bucketed_group_apply` over
    no rows) yields a dataset with no blocks and no schema. Joins do
    not need it: they read no schema. The extra block has no rows —
    plans and results are unchanged otherwise."""
    import ray.data as rd

    return ds.union(rd.from_arrow(schema.empty_table()))


def nonempty_blocks(ds):
    """Yields the block refs of ``ds`` without its 0-row blocks, from
    one streaming execution of a lazy plan (``to_arrow_refs`` runs a
    lazy lineage once more as a ``limit=1`` schema peek), so a consumer
    that submits a task per ref does not hold the whole input at once.
    A materialized Dataset (a :func:`bucketed_group_apply` result, any
    ``from_*_refs``) runs no plan at all: ``materialize`` hands its
    refs over, where ``iter_internal_ref_bundles`` would run an
    input-only plan. Ray 2.49's ``map_batches`` over a 0-row block
    emits a block with no schema, which breaks a consumer that reads a
    column of it."""
    return (ref for ref, _ in _nonempty(ds))


def _nonempty(ds):
    """(block ref, rows) of each non-empty block of ``ds``, as
    :func:`nonempty_blocks` yields them."""
    return ((ref, n) for ref, n in _blocks(ds) if n)


def _blocks(ds):
    """(block ref, rows) of each block of ``ds``, read as
    :func:`nonempty_blocks` describes."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    for bundle in ds.iter_internal_ref_bundles():
        yield from ((ref, meta.num_rows) for ref, meta in bundle.blocks)


# ---------------------------------------------------- bloom semi-join

# odd 64-bit mixing constants (splitmix64 / murmur3 finalizers)
_BLOOM_M1 = np.uint64(0x9E3779B97F4A7C15)
_BLOOM_M2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _bloom_positions(keys: np.ndarray, nhash: int,
                     log2_bits: int) -> np.ndarray:
    """(nhash, n) bit positions via multiplicative double hashing:
    pos_j = top log2_bits bits of (k*M1 + j*((k*M2)|1)) mod 2^64.
    Exact integer arithmetic — the same key always sets the same bits
    on every worker."""
    x = keys.astype(np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        h1 = x * _BLOOM_M1
        h2 = (x * _BLOOM_M2) | np.uint64(1)
        j = np.arange(nhash, dtype=np.uint64)[:, None]
        pos = (h1[None, :] + j * h2[None, :]) >> np.uint64(64 - log2_bits)
    return pos.astype(np.int64)


def bloom_build(ds, key_col: str, nhash: int = 4,
                log2_bits: int = 20) -> np.ndarray:
    """Distributed Bloom-filter build over a key column.

    Each batch emits its DISTINCT set-bit positions (≤ nhash × batch
    keys int64s, deduped batch-locally), and the driver folds the
    position stream into one fixed-size bitmap — so the reduce payload
    is bounded by the build side's key count and the bitmap by
    2^log2_bits bits (128 KiB at the default 20), never by the probe
    side. At cluster scale the same fold is a tree reduce of
    fixed-size bitmaps; the driver loop here is the two-level version
    of it and moves only positions, not rows."""

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.unique(_bloom_positions(k, nhash, log2_bits))
        return pa.table({"pos": pa.array(pos, pa.int64())})

    bits = np.zeros(1 << max(log2_bits - 3, 0), np.uint8)
    stream = map_arrow(ds, partial)
    for b in stream.iter_batches(batch_format="pyarrow"):
        p = b["pos"].to_numpy()
        np.bitwise_or.at(bits, p >> 3,
                         (np.uint8(1) << (p & 7).astype(np.uint8)))
    return bits


def bloom_check(bits: np.ndarray, keys: np.ndarray, nhash: int = 4,
                log2_bits: int = 20) -> np.ndarray:
    """Vectorized membership probe: True where ALL nhash bits are set
    (superset of true members — one-sided error)."""
    pos = _bloom_positions(keys, nhash, log2_bits)
    m = np.ones(len(keys), bool)
    for d in range(nhash):
        pd_ = pos[d]
        m &= (bits[pd_ >> 3] &
              (np.uint8(1) << (pd_ & 7).astype(np.uint8))) != 0
    return m


def bloom_semi_join(big, small, key: str, small_key: str | None = None,
                    nhash: int = 4, log2_bits: int = 20):
    """Exact semi-join with a Bloom prefilter (the classic distributed
    pattern when the build side's raw keys are too wide to broadcast
    but its bitmap is not): build a 2^log2_bits-bit filter over the
    small side's keys, broadcast it once (``ray.put`` +
    ``state.get_broadcast`` — one deserialize per worker), drop every
    big-side row whose key fails the probe, then run ONE bucketed hash
    semi-join (:func:`join_large` against the deduped key set) of the
    survivors (true matches + ~fp-rate false positives) for exactness.
    The all-to-all shuffle carries survivors only — at a 1% hit rate
    that is ~100× less data than joining the raw big side. Result is
    exact (the Bloom probe is a superset; the verify join removes
    false positives), so the DuckDB oracle is a plain ``IN``
    subquery."""
    from pythongis_ray import state

    skc = small_key or key

    def project(batch: pa.Table) -> pa.Table:
        col = batch[skc].cast(pa.int64())
        return pa.table({key: col})

    keys_ds = map_arrow(small, project)
    # the verify join needs unique build keys (inner join == semi only
    # then); dedup is bucket-local + tiny
    keys_ds = bucketed_group_apply(
        keys_ds, [key],
        lambda b: b.drop_duplicates(subset=[key]))
    keys_ds = keys_ds.materialize()

    bits = bloom_build(keys_ds, key, nhash=nhash, log2_bits=log2_bits)
    ref = ray.put(bits)

    def filt(batch: pa.Table) -> pa.Table:
        bm = state.get_broadcast(ref)
        k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(bloom_check(bm, k, nhash, log2_bits)))

    cand = big.map_batches(filt, batch_format="pyarrow", batch_size=16384)
    return join_large(cand, keys_ds, on=key)

# ------------------------------------------- windowed count-distinct

def windowed_distinct(ds, group_key, ts_col: str, size: int, hop: int,
                      user_col: str, out_col: str = "n_distinct",
                      win_col: str = "win_start"):
    """Hopping-window COUNT DISTINCT (unique users per sliding window
    per group) — the streaming-analytics staple Ray Data has no
    built-in for. Each row replicates into ``size/hop`` windows
    vectorized; the batch then dedupes (group, window, user) locally
    with one Arrow group_by (the combiner — the shuffle payload is
    bounded by the batch's distinct triples, not its rows); ONE
    hash-bucketed shuffle keyed on (group, window) counts uniques per
    group with a vectorized pandas pass. Distinct state never touches
    the driver and is bounded per bucket by the window's unique-user
    count."""
    if size % hop != 0:
        raise ValueError("size must be a multiple of hop")
    r = size // hop
    keys = [group_key] if isinstance(group_key, str) else list(group_key)

    def replicate(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ts)
        idx = np.repeat(np.arange(n, dtype=np.int64), r)
        k = np.tile(np.arange(r, dtype=np.int64), n)
        win = (ts[idx] // hop - k) * hop
        take = pa.array(idx)
        cols = {c: batch[c].take(take) for c in keys + [user_col]}
        cols[win_col] = pa.array(win)
        return pa.table(cols).group_by(
            keys + [win_col, user_col]).aggregate([])

    rep = map_arrow(ds, replicate)

    def per_bucket(b: pd.DataFrame) -> pd.DataFrame:
        g = (b.drop_duplicates(keys + [win_col, user_col])
             .groupby(keys + [win_col], sort=False)
             .size().rename(out_col).reset_index())
        g[out_col] = g[out_col].astype(np.int64)
        return g

    return bucketed_group_apply(rep, keys + [win_col], per_bucket)


def pareto_front_frame(df: pd.DataFrame, xc: str, yc: str) -> pd.DataFrame:
    """Maximal (non-dominated) rows of a frame under 2-D dominance:
    b dominates a iff b.x >= a.x and b.y >= a.y with at least one
    strict. Duplicated frontier points all survive (neither dominates
    the other). Vectorized: sort by (x desc, y desc); a row survives
    iff its y equals its x-group max AND that max strictly exceeds the
    running max over all strictly-greater x."""
    if not len(df):
        return df
    d = df.sort_values([xc, yc], ascending=False, kind="stable")
    x = d[xc].to_numpy()
    y = d[yc].to_numpy()
    newx = np.empty(len(x), dtype=bool)
    newx[0] = True
    newx[1:] = x[1:] != x[:-1]
    gidx = np.cumsum(newx) - 1        # x-group index per row
    gm = y[newx]                      # per-group max y (y desc in group)
    prev = np.empty(len(gm), dtype=y.dtype)
    if np.issubdtype(y.dtype, np.integer):
        prev[0] = np.iinfo(y.dtype).min
    else:
        prev[0] = -np.inf
    np.maximum.accumulate(gm[:-1], out=prev[1:])
    keep = (y == gm[gidx]) & (gm[gidx] > prev[gidx])
    return d[keep]


def skyline(ds, xc: str, yc: str):
    """Distributed 2-D skyline (Pareto frontier, maximize both axes).

    Stage 1 prunes each block to its local frontier — a row dominated
    inside any block is dominated globally, so only per-block frontier
    candidates (output bounded by the frontier's antichain width, tiny
    for correlated data) reach stage 2, which refines the concatenated
    candidates in ONE group. The corpus streams once; nothing
    corpus-sized is materialized. Custom operator (no Ray Data
    counterpart); oracle = NOT EXISTS dominance anti-join."""
    local = map_pandas(ds, lambda b: pareto_front_frame(b, xc, yc))
    return group_apply(local, None, lambda g: pareto_front_frame(g, xc, yc))
