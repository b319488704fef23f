"""Distributed graph operators over edge Datasets.

Most operators here run on ONE resident-shard engine (Pregel/GraphX
layout): the graph is split into shards, each holding the edges whose
key endpoint hashes to it plus the state of the nodes that hash to it.
A round is a local pre-combine, then an owner-side combine of the
per-destination messages — the two-phase aggregation shape, with only
O(nodes-touched) message bytes per round. That shape needs no
long-lived process, only state that stays put between rounds, so a
shard lives in the object store as driver-owned refs and every shard
method call is one stateless task: (shard state, *incoming parts) →
(new state, *outgoing parts), the parts via ``num_returns``.

  * Load: tasks split each edge block into per-shard parts (the only
    time O(E) bytes move); each shard's first task builds it from its
    parts, and ``init`` turns the edges into the shard's immutable
    layout, put once and read zero-copy by every later round. A round
    writes only the round-mutable state and the messages.
  * ``_Shard`` owns what every algorithm shares: edge ingest, the
    node exchange that registers in-link-only nodes, the
    by-destination-shard edge layout and the result table.
  * ``_FoldShard`` is the one neighbour fold (an int64 value per node,
    a message per key-side edge, a sum or min fold at the owner) with
    atomic per-round checkpoint/restore: PageRank, neighbour sums,
    connected components and every BFS are its hooks; the other
    algorithms keep a subclass with their own messages and state.
  * ``_run`` is the one round loop: edge split, init, the loop over
    rounds (each an ``_exchange`` all-to-all), round-level
    checkpoint/resume. Every ref is a task return the driver owns, so
    a lost one is rebuilt from lineage, and nothing outlives the call.
  * On it run PageRank/TrustRank, neighbour sums (Katz, WL colours),
    connected components, HITS, BFS (seeded, weighted, temporal and
    multi-landmark), random walks, k-core and densest-subgraph
    peeling, minimum-edge rounds (Borůvka, locally-dominant
    matching), label propagation and SCC.

The one the dedup plan needs is connected components, turning a
near-duplicate PAIR table (MinHash/SimHash/embedding candidates) into
CLUSTERS so a corpus keeps exactly one representative per duplicate
group — pairwise output alone under-deletes transitively-linked dups
(a~b, b~c but a!~c by the pair list). It is hash-min label
propagation (Kiveris et al., "Connected Components in MapReduce and
Beyond", SoCC 2014): every node starts labeled with its own id, each
round sends labels across every edge and keeps the min, converging
in O(diameter) rounds. The reference has no graph ops (its dedup is
exact keep-first); this is the web-corpus extension.

The Dataset-only operators (``triangle_count``, ``ktruss``,
``clustering_coefficient``) are hash-partitioned joins and shuffles
with nothing resident.
"""

from __future__ import annotations

import json
import os
import re
import time
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from pythongis_ray import relational as rel
from pythongis_ray.relational import map_arrow


def triangle_count(edges, src: str = "src", dst: str = "dst"):
    """Directed-path triangle count: instances of u→v, v→w with a
    closing edge u→w (multi-edges multiply, matching the SQL 3-way
    join exactly). The classic two-join formulation: a bucketed
    equi-join builds wedges (u,v,w), a second join on the composite
    (u,w) key probes for closing edges, and the count is the result
    cardinality — every step a hash-partitioned Dataset op, nothing
    driver-side but the final scalar. At cluster scale the standard
    degree-ordering optimization (orient edges low→high degree) would
    bound wedge fan-out on hot nodes; the synthetic web graph's
    out-degree is a constant 3 so it is omitted here.
    """
    def as_uv(batch: pa.Table) -> pa.Table:
        return pa.table({
            "u": pc.cast(batch[src], pa.int64()),
            "v": pc.cast(batch[dst], pa.int64())})

    def as_vw(batch: pa.Table) -> pa.Table:
        return pa.table({
            "v": pc.cast(batch[src], pa.int64()),
            "w": pc.cast(batch[dst], pa.int64())})

    def as_uw(batch: pa.Table) -> pa.Table:
        return pa.table({
            "u": pc.cast(batch[src], pa.int64()),
            "w": pc.cast(batch[dst], pa.int64())})

    e_uv = map_arrow(edges, as_uv)
    e_vw = map_arrow(edges, as_vw)
    e_uw = map_arrow(edges, as_uw)
    wedges = rel.join_large(e_uv, e_vw, on="v", num_buckets=16)
    closed = rel.join_large(
        map_arrow(wedges, lambda b: b.select(["u", "w"])),
        e_uw, on=["u", "w"], num_buckets=16)
    n = closed.count()
    return pa.table({"n_triangles": pa.array([n], pa.int64())})


# ------------------------------------------------- resident-shard engine

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_EMPTY = np.empty(0, np.int64)
_MISSING = object()


def _bucket_of(ids: np.ndarray, nb: int) -> np.ndarray:
    """Deterministic shard assignment for int64 node ids (Fibonacci
    multiplicative hash — internal partitioning only, never mirrored
    in SQL)."""
    return ((ids.astype(np.int64).view(np.uint64) * _GOLD)
            % np.uint64(nb)).astype(np.int64)


def _group_fold(ufunc, ids: np.ndarray, vals: np.ndarray):
    """Exact int64 per-id folds by ``ufunc`` (np.add: sums, np.minimum:
    minima) as sort + reduceat, ids ascending (bincount's float
    weights would lose exactness past 2^53)."""
    if len(ids) == 0:
        return ids, vals
    o = np.argsort(ids, kind="stable")
    ids, vals = ids[o], vals[o]
    first = np.concatenate(([True], ids[1:] != ids[:-1]))
    starts = np.nonzero(first)[0]
    return ids[starts], ufunc.reduceat(vals, starts)


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else _EMPTY


class _Shard:
    """One graph partition of the resident-shard engine. It holds the
    edges whose KEY endpoint hashes here plus the state of the nodes
    that hash here (same hash → a node's edges and its state are
    co-resident, so a round reads state locally and ships only
    pre-combined messages). The edge layout stays RESIDENT across
    rounds — re-shuffling it every round (a union+groupby round)
    would move O(E) per round where messages are only
    O(nodes-touched). ``_run`` keeps a shard's attributes in the
    object store and runs each method as one stateless task.

    Edges arrive as kind-tagged parts: ``"f"`` is the layout keyed by
    src (or by both endpoints, for undirected algorithms) and ``"r"``
    the reversed layout keyed by dst. ``state`` names the
    round-mutable arrays: unless ``result`` is overridden, the result
    columns after ``node``. An
    array a round changes in place must be listed there; everything
    else ``init`` builds is the read-only layout."""

    state: tuple = ()

    def __init__(self, b: int, nb: int):
        self.b, self.nb = b, nb
        self._blocks = {"f": [], "r": []}
        self._loaded = None

    def add_edges(self, kind: str, key: np.ndarray,
                  other: np.ndarray) -> int:
        self._blocks[kind].append((key, other))
        return len(key)

    def _edges(self, keep: bool = False) -> dict:
        """The ingested layouts as {kind: (key, other)}, concatenated
        on first use. ``node_exchange`` keeps them for ``init``;
        ``init`` takes them and the shard drops its copy."""
        if self._blocks is not None:
            self._loaded = {
                kind: (_cat([k for k, _ in blocks]),
                       _cat([o for _, o in blocks]))
                for kind, blocks in self._blocks.items()}
            self._blocks = None
        edges = self._loaded
        if not keep:
            self._loaded = None
        return edges

    def node_exchange(self):
        """Route every referenced other-end id to its owner shard so
        nodes that are never a key (e.g. only in-links) get registered
        (one part per shard)."""
        ends = np.unique(np.concatenate(
            [o for _, o in self._edges(keep=True).values()]))
        eb = _bucket_of(ends, self.nb)
        return tuple(ends[eb == t] for t in range(self.nb))

    def _by_dest(self, dest: np.ndarray, *cols):
        """Sort edge columns ONCE by (shard owning ``dest``, ``dest``):
        each round's per-destination parts are contiguous slices, in id
        order so the per-round group-by sort is a linear pass. Returns
        (splits, dest, *cols) in that order."""
        db = _bucket_of(dest, self.nb)
        o = np.lexsort((dest, db))
        return (np.searchsorted(db[o], np.arange(self.nb + 1)), dest[o],
                *(c[o] for c in cols))

    def _route(self, to: np.ndarray, *cols) -> tuple:
        """``(to, *cols)`` split into one part per owner shard of
        ``to``."""
        tb = _bucket_of(to, self.nb)
        return tuple(tuple(c[tb == t] for c in (to, *cols))
                     for t in range(self.nb))

    def _per_dest(self, splits: np.ndarray, fn, *cols) -> tuple:
        """``fn`` over each destination shard's slice of ``cols``."""
        return tuple(fn(*(c[splits[t]:splits[t + 1]] for c in cols))
                     for t in range(self.nb))

    def _fold(self, vals: np.ndarray, msgs, ufunc) -> np.ndarray:
        """A copy of ``vals`` with (ids, values) messages folded in by
        ``ufunc`` (np.add / np.minimum) at the ids' owned positions.
        Canonical dtypes keep ``ufunc.at`` on its fast path (~25x): a
        pickled array's dtype is another instance."""
        new = vals.astype(vals.dtype.type)
        for ids, m in msgs:
            if len(ids):
                ufunc.at(new, np.searchsorted(self.owned, ids),
                         m.view(new.dtype))
        return new

    def _update(self, name: str, new: np.ndarray) -> int:
        """Replace state array ``name``; returns how many entries
        changed."""
        changed = int((new != getattr(self, name)).sum())
        setattr(self, name, new)
        return changed

    def result(self) -> pa.Table:
        return pa.table({"node": pa.array(self.owned),
                         **{c: pa.array(getattr(self, c))
                            for c in self.state}})



def _shard_count(num_shards) -> int:
    """Default shard count: half the advertised CPUs, 2..16."""
    nb = num_shards or max(2, min(16, int(
        ray.cluster_resources().get("CPU", 4)) // 2))
    return max(2, nb)


@ray.remote
def _split(block, nb: int, src: str, dst: str, mode: str) -> tuple:
    """One edge block as ``nb`` per-shard parts, each a list of
    (kind, key, other). mode: 'directed' keys each edge by src;
    'doubled' keys by both endpoints (undirected algorithms); 'both'
    adds the reversed layout keyed by dst (kind "r")."""
    a = np.asarray(block[src]).astype(np.int64)
    b = np.asarray(block[dst]).astype(np.int64)
    layouts = {"directed": [("f", a, b)],
               "doubled": [("f", np.concatenate([a, b]),
                            np.concatenate([b, a]))],
               "both": [("f", a, b), ("r", b, a)]}[mode]
    parts = tuple([] for _ in range(nb))
    for kind, key, other in layouts:
        kb = _bucket_of(key, nb)
        for t in range(nb):
            m = kb == t
            parts[t].append((kind, key[m], other[m]))
    return parts


@ray.remote
def _shard_task(cls, b: int, nb: int, layout, state, method: str, args,
                *parts):
    """``method(*args, *parts)`` of shard ``b`` as one stateless task:
    returns (new state, *the method's outputs).

    A ``state`` of None means the shard is not built yet: it is
    constructed here and ``parts`` are its edge parts. ``init``
    freezes the shard: every attribute but the ``state`` arrays is
    returned once, ahead of the state, as the layout that later calls
    read zero-copy. After that a call returns as state the ``state``
    arrays plus whatever attributes the method reassigned, so a round
    writes O(state + messages), never the edges."""
    if state is None:
        sh = cls(b, nb)
        for part in parts:
            for kind, key, other in part:
                sh.add_edges(kind, key, other)
        state, parts = {}, ()
    else:
        sh = cls.__new__(cls)
        vars(sh).update(layout)
        # own (writable) copies of the round-mutable arrays
        vars(sh).update((k, v.copy() if isinstance(v, np.ndarray) else v)
                        for k, v in state.items())
    out = getattr(sh, method)(*args, *parts)
    out = out if isinstance(out, tuple) else (out,)
    attrs = vars(sh)
    if method == "init":
        return ({k: v for k, v in attrs.items() if k not in cls.state},
                {k: attrs[k] for k in cls.state}, *out)
    return ({k: v for k, v in attrs.items()
             if k in state or layout.get(k, _MISSING) is not v}, *out)


class _ShardRef:
    """The driver's handle of one shard: refs to its layout and state,
    both task returns the driver owns (a lost one is rebuilt from
    lineage). ``call`` runs one method and moves the state ref on; it
    returns the refs of the method's ``n_out`` outputs."""

    def __init__(self, cls, b: int, nb: int, edge_parts: list):
        self.cls, self.b, self.nb, self.edge_parts = cls, b, nb, edge_parts
        self.layout, self.state = {}, None

    def call(self, method: str, args=(), parts=(), n_out: int = 1):
        frozen = method == "init"
        refs = _shard_task.options(num_returns=1 + frozen + n_out).remote(
            self.cls, self.b, self.nb, self.layout, self.state, method,
            args, *self.edge_parts, *parts)
        if frozen:
            self.layout, *refs = refs
        self.edge_parts = ()
        self.state, *out = refs
        return out


def _each(shards, method: str, *args) -> list:
    """``method(*args)`` on every shard; returns the results."""
    return ray.get([sh.call(method, args)[0] for sh in shards])


def _exchange(shards, send: str, recv: str, *args, send_args=(),
              extra=None) -> list:
    """One all-to-all message round: each shard's ``send(*send_args)``
    returns one part per shard (``num_returns=nb``, so only object refs
    pass through the caller) and shard t's ``recv(*args, *parts)``
    folds part t of every sender. Returns the ``recv`` results. With an
    ``extra`` list, ``recv`` returns (result, output) and the refs of
    the outputs are appended to it, never fetched."""
    parts = [sh.call(send, send_args, n_out=len(shards)) for sh in shards]
    outs = [sh.call(recv, args, [p[t] for p in parts],
                    n_out=1 + (extra is not None))
            for t, sh in enumerate(shards)]
    if extra is not None:
        extra += [o[1] for o in outs]
    return ray.get([o[0] for o in outs])


def _scatter_gather(shards, rnd: int) -> list:
    return _exchange(shards, "scatter", "gather", rnd)


def _complete_rounds(cdir: str, nb: int) -> list[int]:
    """Rounds whose _DONE marker AND all shard files exist."""
    out = []
    if not os.path.isdir(cdir):
        return out
    for name in os.listdir(cdir):
        m = re.fullmatch(r"round_(\d{4,})", name)
        if not m:
            continue
        d = os.path.join(cdir, name)
        if os.path.exists(os.path.join(d, "_DONE")) and all(
                os.path.exists(os.path.join(d, f"shard_{b}.parquet"))
                for b in range(nb)):
            out.append(int(m.group(1)))
    return sorted(out)


def _run(cls, edges, src: str, dst: str, mode: str, rounds: int, *,
         init_args=(), step=_scatter_gather, num_shards=None,
         checkpoint_dir=None, meta=None, must_converge=None):
    """Run one resident-shard algorithm end to end: split the edges
    into per-shard parts (``mode`` as in ``_split``), node exchange
    plus ``init(*init_args, *incoming)`` (undirected 'doubled' layouts
    make every node a key on its owner shard, so they skip the
    exchange), then up to ``rounds`` calls of ``step(shards, rnd)``.
    A step returns per-shard counts; a zero total is a fixed point
    (nothing changed, nothing left to do), so the loop stops there —
    later rounds would be identical.

    ``must_converge`` (the op name) makes a run that ends without
    such a round raise. ``checkpoint_dir`` (fold shards only) adds
    round-level resume: ``meta`` (plus the shard count) must match
    the directory's meta.json, the newest complete round is restored,
    and every round writes the shards' state, a metrics.parquet and a
    _DONE marker.
    State is ONLY the per-node columns — edges are rebuilt from the
    (deterministic) input on restart, so a round_k snapshot + the
    same inputs reproduce rounds k+1.. bit-exactly."""
    nb = _shard_count(num_shards)
    if checkpoint_dir:
        # validate/write run parameters BEFORE loading — a mismatched
        # resume must fail fast, not after the edge load
        os.makedirs(checkpoint_dir, exist_ok=True)
        meta_path = os.path.join(checkpoint_dir, "meta.json")
        meta = {"num_shards": nb, **meta}
        if os.path.exists(meta_path):
            if json.load(open(meta_path)) != meta:
                raise ValueError("checkpoint_dir was written with "
                                 "different parameters/shard count")
        else:
            tmp = meta_path + ".tmp"
            json.dump(meta, open(tmp, "w"))
            os.replace(tmp, meta_path)
    # the load is the only time O(E) bytes move: tasks split each edge
    # block into per-shard parts, and a shard's first call builds it
    split = _split.options(num_returns=nb)
    blocks = [split.remote(ref, nb, src, dst, mode)
              for ref in rel.nonempty_blocks(edges)]
    shards = [_ShardRef(cls, b, nb, [p[b] for p in blocks])
              for b in range(nb)]
    if mode == "doubled":
        n_nodes = _each(shards, "init", *init_args)
    else:
        n_nodes = _exchange(shards, "node_exchange", "init", *init_args)

    start, converged = 0, False
    done = (_complete_rounds(checkpoint_dir, nb) if checkpoint_dir
            else [])
    done = [r for r in done if r <= rounds]
    if done:
        start = max(done)
        _each(shards, "restore", checkpoint_dir, start)
        if must_converge:
            # a restored round with zero changes IS the fixed point
            # (otherwise a resume at start == rounds would
            # spuriously raise despite a valid converged snapshot)
            m = pq.read_table(os.path.join(
                checkpoint_dir, f"round_{start:04d}",
                "metrics.parquet"))
            converged = int(pc.sum(m["n_changed"]).as_py() or 0) == 0

    for rnd in range(start + 1, rounds + 1):
        if converged:
            break
        t0 = time.monotonic()
        counts = step(shards, rnd)
        if checkpoint_dir:
            wall = time.monotonic() - t0
            _each(shards, "checkpoint", checkpoint_dir, rnd)
            cols = {"round": np.full(nb, rnd, np.int64),
                    "shard": np.arange(nb, dtype=np.int64),
                    "n_nodes": np.asarray(n_nodes, np.int64)}
            if must_converge:
                cols["n_changed"] = np.asarray(counts, np.int64)
            cols["round_wall_s"] = np.full(nb, wall, np.float64)
            d = os.path.join(checkpoint_dir, f"round_{rnd:04d}")
            pq.write_table(pa.table(cols),
                           os.path.join(d, "metrics.parquet"))
            open(os.path.join(d, "_DONE"), "w").close()
        converged = sum(counts) == 0
    if must_converge and not converged:
        raise RuntimeError(f"{must_converge}: no convergence "
                           f"in {rounds} rounds")
    return rd.from_arrow_refs([sh.call("result")[0] for sh in shards])


# ------------------------------------------------------- neighbour fold

class _FoldShard(_Shard):
    """The neighbour fold: an int64 ``x`` per node (2-D for multi-source
    BFS, a column per landmark; ``cols`` names the result columns). A
    round sends a message across every key-side edge, pre-combines
    them per destination with ``fold`` (np.add or np.minimum) and
    folds them in at the owner: a min-fold into ``x`` itself, a sum
    into zeros that ``update`` turns into the new ``x``. The hooks are
    module-level functions of the shard ``sh``, bound by ``partial``:
    ``start(sh)`` gives x₀ from ``sh.owned`` and ``sh.deg`` (key-side
    edge counts); ``send(sh)`` gives each edge ``owned[e_idx]`` →
    ``e_dst`` its message, or (messages, live mask); ``update(sh, s,
    rnd)`` gives round ``rnd``'s ``x`` from the sums ``s``.

    A round that changes no ``x`` ends the run (``_run``'s fixed
    point). That is bit-exact when the update depends on the state
    alone, as for PageRank, WL colours, CC and BFS. Katz's update adds
    2^rnd, so its ``x`` rises strictly at every round before the last
    and never stops early; a round-dependent update without such a
    guarantee does not belong here."""

    state = ("x",)

    def init(self, cols, start, send, fold, update, *incoming) -> int:
        src, dst = self._edges()["f"]
        self.owned = np.unique(np.concatenate([src, *incoming]))
        idx = np.searchsorted(self.owned, src)
        self.splits, self.e_dst, self.e_idx = self._by_dest(dst, idx)
        self.deg = np.bincount(idx, minlength=len(self.owned)).astype(np.int64)
        self.cols, self.send, self.fold, self.update = cols, send, fold, update
        self.x = start(self)
        return len(self.owned)

    def scatter(self):
        msg = self.send(self)
        msg, live = msg if isinstance(msg, tuple) else (msg, None)
        shape = (len(msg), len(self.cols))
        msg = msg.reshape(shape)
        live = np.ones(shape, bool) if live is None else live.reshape(shape)

        def part(dst, m, lv):
            return tuple(_group_fold(self.fold, dst[lv[:, c]], m[lv[:, c], c])
                         for c in range(len(self.cols)))

        return self._per_dest(self.splits, part, self.e_dst, msg, live)

    def gather(self, rnd: int, *msgs) -> int:
        acc = (self.x if self.update is None else np.zeros_like(self.x)) \
            .reshape(len(self.owned), len(self.cols))
        s = np.stack([self._fold(acc[:, c], [m[c] for m in msgs], self.fold)
                      for c in range(len(self.cols))], axis=1) \
            .reshape(self.x.shape)
        return self._update(
            "x", s if self.update is None else self.update(self, s, rnd))

    def result(self) -> pa.Table:
        x = self.x.reshape(len(self.owned), len(self.cols))
        return pa.table({"node": pa.array(self.owned),
                         **{name: pa.array(x[:, c])
                            for c, name in enumerate(self.cols)}})

    def checkpoint(self, cdir: str, rnd: int) -> int:
        """Atomic per-shard state snapshot (tmp + rename, same
        discipline as checkpoint.write_partition)."""
        d = os.path.join(cdir, f"round_{rnd:04d}")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f".shard_{self.b}.parquet.tmp")
        pq.write_table(self.result(), tmp)
        os.replace(tmp, os.path.join(d, f"shard_{self.b}.parquet"))
        return len(self.owned)

    def restore(self, cdir: str, rnd: int) -> int:
        t = pq.read_table(os.path.join(cdir, f"round_{rnd:04d}",
                                       f"shard_{self.b}.parquet"))
        if not np.array_equal(t["node"].to_numpy(), self.owned):
            raise ValueError(
                f"checkpoint shard {self.b}: node layout mismatch "
                f"(different edges or shard count?)")
        self.x = np.stack([t[c].to_numpy().astype(np.int64)
                           for c in self.cols], axis=1).reshape(self.x.shape)
        return rnd


def _sent(send, sh) -> np.ndarray:
    """Each edge's message: its key end's ``send(x)`` (``x`` when
    ``send`` is None)."""
    return (sh.x if send is None else send(sh.x))[sh.e_idx]


# ------------------------------------------------------------- pagerank

def _seeded(seed_mod, mass: int, sh) -> np.ndarray:
    """``mass`` on the seed set {node % seed_mod == 0} and 0 elsewhere;
    ``mass`` on every node when ``seed_mod`` is None."""
    if seed_mod:
        return np.where(sh.owned % np.int64(seed_mod) == 0,
                        np.int64(mass), np.int64(0))
    return np.full(len(sh.owned), mass, np.int64)


def _pr_send(d_num: int, d_den: int, sh) -> np.ndarray:
    return (np.int64(d_num) * sh.x[sh.e_idx]) \
        // (np.int64(d_den) * sh.deg[sh.e_idx])


def _pr_update(seed_mod, base_mass: int, sh, s, rnd) -> np.ndarray:
    return _seeded(seed_mod, base_mass, sh) + s


def pagerank(edges, src: str = "src", dst: str = "dst",
             iters: int = 5, init_mass: int = 1_000_000,
             base_mass: int = 150_000, d_num: int = 85,
             d_den: int = 100, num_shards: int | None = None,
             checkpoint_dir: str | None = None,
             seed_mod: int | None = None):
    """Deterministic INTEGER PageRank over an edge Dataset — host/page
    authority scoring for a crawled web graph (the classic corpus-
    quality signal; the reference has no graph ops at all).

    Works in integer "mass" units so the result is bit-exact and
    replayable in SQL (the float power iteration is order-dependent
    and can't be hash-checked):

        mass_0(v)     = init_mass
        mass_{k+1}(v) = base_mass
                        + sum over edges (u,v) of
                          (d_num * mass_k(u)) // (d_den * outdeg(u))

    Multi-edges count with multiplicity; dangling-node mass is dropped
    (both choices mirror exactly in SQL). All arithmetic is int64:
    with d_num/d_den = 0.85 total mass stays O(nodes * init_mass), so
    85*mass fits int64 up to ~10^11 nodes. ``iters=0`` runs no round
    and returns mass_0, so a per-round trace is one call per round
    count. ``seed_mod`` puts base/init mass only on the seed set
    {node % seed_mod == 0} (TrustRank).

    Runs as a sum fold on the resident-shard engine: edge blocks are
    split straight into per-shard parts (the load IS the shuffle — no
    sort) and built once into each shard's layout, then each round is
    a pure message exchange: every shard task pushes O(distinct dsts)
    pre-combined int64 sums to its peers via ``num_returns`` object
    refs, so the caller only routes refs and the static O(E) edge
    arrays are never written again (the Pregel/GraphX layout).
    ``checkpoint_dir`` makes a killed run resume at its newest
    complete round."""
    meta = {"d_num": int(d_num), "d_den": int(d_den),
            "init_mass": init_mass, "base_mass": base_mass,
            "seed_mod": seed_mod}
    return _run(_FoldShard, edges, src, dst, "directed", iters,
                init_args=(("mass",), partial(_seeded, seed_mod, init_mass),
                           partial(_pr_send, d_num, d_den), np.add,
                           partial(_pr_update, seed_mod, base_mass)),
                num_shards=num_shards, checkpoint_dir=checkpoint_dir,
                meta=meta)


def _nbr_start(start, sh) -> np.ndarray:
    return sh.deg if start is None else start(sh.deg)


def _nbr_update(update, sh, s, rnd) -> np.ndarray:
    return update(sh.x, s, rnd)


def neighbour_sums(edges, src: str, dst: str, rounds: int, update, start=None,
                   send=None, undirected: bool = False, num_shards=None):
    """``rounds`` rounds of a sum fold (over both edge directions when
    ``undirected``); returns (node, x). x₀ is ``start(deg)`` (deg, the
    key-side edge count, when None); a round sends ``send(x)[u]``
    (``x[u]`` when None) across each edge (u, v), sums it per
    destination, and v sets x = update(x, sum, round). The caller's
    int64 arithmetic comes in as module-level functions."""
    return _run(_FoldShard, edges, src, dst,
                "doubled" if undirected else "directed", rounds,
                init_args=(("x",), partial(_nbr_start, start),
                           partial(_sent, send), np.add,
                           partial(_nbr_update, update)),
                num_shards=num_shards)


# ------------------------------------------------ connected components

def _own_ids(sh) -> np.ndarray:
    return sh.owned.copy()


class _CCShard(_FoldShard):
    """The fold shard connected components run on. It keeps its own
    name because ``perfbench/trace.py`` wraps ``_CCShard``'s
    ``__init__``, ``add_edges``, ``init``, ``scatter`` and ``gather``
    to time the graph layer of the ``corpus_dedup`` benchmark."""


def connected_components(edges, src: str = "id_a", dst: str = "id_b",
                         max_iters: int = 50,
                         num_shards: int | None = None,
                         checkpoint_dir: str | None = None):
    """Edge Dataset (src, dst) → Dataset (node, component) where
    ``component`` is the minimum node id reachable from ``node``
    (undirected). Only nodes appearing in at least one edge are
    returned. A min fold: the doubled edge table is built into the
    shard layouts ONCE and each round exchanges only per-shard
    pre-combined label minima. Convergence = a round with zero label
    changes; raises if ``max_iters`` rounds don't converge.
    ``checkpoint_dir`` makes a killed run resume at its newest
    complete round."""
    return _run(_CCShard, edges, src, dst, "doubled", max_iters,
                init_args=(("component",), _own_ids, partial(_sent, None),
                           np.minimum, None),
                num_shards=num_shards, checkpoint_dir=checkpoint_dir,
                meta={"algo": "cc_hashmin"},
                must_converge="connected_components")


# ----------------------------------------------------------------- hits

class _HitsShard(_Shard):
    """HITS (Kleinberg 1999) hubs & authorities: TWO edge layouts —
    forward edges keyed by src (authority scatter: hub mass flows
    src→dst) and reversed edges keyed by dst (hub scatter: authority
    mass flows dst→src) — plus the (hub, auth) state of the nodes
    hashing here. Each half-round ships only per-destination
    pre-combined int64 sums; the caller injects the GLOBAL max-based
    divisor for integer normalization (values stay ≤ ~2·scale, so
    per-node message sums stay far below 2^63 up to ~10^12 in-links
    per node at scale=10^6)."""

    state = ("hub", "auth")

    def init(self, scale: int, *incoming) -> int:
        e = self._edges()
        (fs, fd), (rs, rd) = e["f"], e["r"]
        self.owned = np.unique(np.concatenate([fs, rs, *incoming]))
        # forward layout: contribution h[owned_idx(src)] routed to dst
        self.f_splits, self.f_dst, self.f_idx = \
            self._by_dest(fd, np.searchsorted(self.owned, fs))
        # reverse layout: contribution a[owned_idx(dst)] routed to src
        self.r_splits, self.r_dst, self.r_idx = \
            self._by_dest(rd, np.searchsorted(self.owned, rs))
        self.hub = np.full(len(self.owned), scale, np.int64)
        self.auth = np.full(len(self.owned), scale, np.int64)
        return len(self.owned)

    def scatter_fwd(self):
        return self._per_dest(self.f_splits, partial(_group_fold, np.add),
                              self.f_dst, self.hub[self.f_idx])

    def scatter_rev(self):
        return self._per_dest(self.r_splits, partial(_group_fold, np.add),
                              self.r_dst, self.auth[self.r_idx])

    def gather_raw(self, *msgs) -> int:
        """Accumulate raw sums; return the local max for the driver's
        global normalization divisor."""
        self.raw = self._fold(np.zeros(len(self.owned), np.int64), msgs,
                              np.add)
        return int(self.raw.max(initial=0))

    def finish(self, name: str, divisor: int) -> int:
        """Normalize the raw sums into state ``name`` (hub or auth)."""
        setattr(self, name, self.raw // np.int64(divisor))
        self.raw = None
        return len(self.owned)


def hits(edges, src: str = "src", dst: str = "dst",
         iters: int = 5, scale: int = 1_000_000,
         num_shards: int | None = None):
    """Integer HITS on the resident-shard engine: per round, authority =
    per-node sum of in-neighbor hub scores normalized by the global
    divisor max(1, max_raw // scale), then hub = sum of out-neighbor
    (new) authority scores, same normalization — all int64 floor
    arithmetic, bit-reproducible for any partitioning and replayable
    in DuckDB as chained CTEs (the pagerank-oracle pattern plus a MAX
    subquery per half-round). Returns (node, hub, auth)."""
    def step(shards, rnd):
        for send, name in (("scatter_fwd", "auth"), ("scatter_rev", "hub")):
            mx = _exchange(shards, send, "gather_raw")
            n = _each(shards, "finish", name, max(1, max(mx) // scale))
        return n

    return _run(_HitsShard, edges, src, dst, "both", iters,
                init_args=(scale,), step=step, num_shards=num_shards)


# ------------------------------------------------------------------ bfs

BFS_INF = np.int64(1) << np.int64(40)   # unreachable sentinel (2^40)


def _bfs_start(seed_mod: int, seeds, sh) -> np.ndarray:
    seed = (sh.owned % seed_mod == 0 if seeds is None
            else np.isin(sh.owned, seeds))
    return np.where(seed, np.int64(0), BFS_INF)


def _landmarks(seed_mod: int, n_land: int, sh) -> np.ndarray:
    """Column l: 0 on the landmarks {node % seed_mod == l}, else INF."""
    rem = sh.owned % np.int64(seed_mod)
    return np.where(
        rem[:, None] == np.arange(n_land, dtype=np.int64)[None, :],
        np.int64(0), BFS_INF)


def _edge_mod(mod: int, sh) -> np.ndarray:
    """(src + dst) % mod per edge: a pure function of the edge, so
    duplicate edges agree and the DuckDB replay computes it inline."""
    return (sh.owned[sh.e_idx] + sh.e_dst) % np.int64(mod)


def _relax(weight_mod, sh):
    """dist[src] + w, w = 1 or (src + dst) % weight_mod + 1; sources
    still at BFS_INF are masked out — bit-exact, since INF + w can
    never lower any distance ≤ INF."""
    d = sh.x[sh.e_idx]
    w = (np.int64(1) if weight_mod is None
         else _edge_mod(weight_mod, sh) + np.int64(1))
    return d + w, d < BFS_INF


def _arrive(temporal_mod: int, sh):
    """Time-respecting earliest arrival: the edge time
    t = (src + dst) % temporal_mod crosses an edge only when t is at
    or after the source's current arrival."""
    d = sh.x[sh.e_idx]
    t = _edge_mod(temporal_mod, sh)
    return t, (d < BFS_INF) & (t >= d)


def bfs(edges, src: str = "src", dst: str = "dst",
        seed_mod: int = 97, iters: int = 8,
        num_shards: int | None = None,
        weight_mod: int | None = None,
        temporal_mod: int | None = None,
        seeds: np.ndarray | None = None):
    """Hop distance from the seed set {node : node % seed_mod == 0}
    following edge direction, capped at ``iters`` rounds (nodes
    farther than that — or unreachable — keep the BFS_INF sentinel).
    With ``weight_mod`` set, edges carry the deterministic integer
    weight ``(src + dst) % weight_mod + 1`` and the propagation is
    min-plus over weighted paths (Bellman-Ford rounds on the same
    resident-shard engine — SSSP, not just hop count). With
    ``temporal_mod`` set, edges carry the deterministic TIME
    ``(src + dst) % temporal_mod`` and the fold is time-respecting
    EARLIEST ARRIVAL (Wu et al., VLDB'14 one-pass semantics run in
    synchronous rounds): an edge relaxes only when its time ≥ the
    source's current arrival, and the relaxed value is the edge time.
    Fixed round count makes any of these an exact replay of a chained
    min-fold LEFT-JOIN CTE in DuckDB, independent of sharding.
    ``seeds`` (an array of node ids) replaces the ``seed_mod`` rule as
    the seed set.
    Reference analogue: link-distance crawls in web-graph analysis
    (no direct reference op; the graph layer generalizes
    /root/reference/pythongis/vector/sql.py's per-group folds to
    iterative whole-graph folds)."""
    if weight_mod is not None and temporal_mod is not None:
        raise ValueError("weight_mod and temporal_mod are exclusive")
    send = (partial(_relax, weight_mod) if temporal_mod is None
            else partial(_arrive, temporal_mod))
    return _run(_FoldShard, edges, src, dst, "directed", iters,
                init_args=(("dist",), partial(_bfs_start, seed_mod, seeds),
                           send, np.minimum, None),
                num_shards=num_shards)


def multi_bfs(edges, src: str = "src", dst: str = "dst",
              seed_mod: int = 97, n_landmarks: int = 3,
              iters: int = 8, num_shards: int | None = None):
    """Simultaneous hop distances from ``n_landmarks`` seed sets
    ({node % seed_mod == l}) in ONE resident-shard run — the landmark
    distance-feature / harmonic-centrality prep. Edges route once;
    every round advances all landmark frontiers together (one ``x``
    column each, messages pre-combined per column), so the cost over
    single-landmark BFS is only the extra message columns. Fixed
    round cap => exact replay of n_landmarks chained min-plus
    LEFT-JOIN CTE sets in DuckDB."""
    return _run(_FoldShard, edges, src, dst, "directed", iters,
                init_args=(tuple(f"d{l}" for l in range(n_landmarks)),
                           partial(_landmarks, seed_mod, n_landmarks),
                           partial(_relax, None), np.minimum, None),
                num_shards=num_shards)


# -------------------------------------------------------- random walks

WALK_MUL = np.int64(2654435761)          # Knuth multiplicative hash
WALK_ADD = np.int64(40503)
WALK_MOD = np.int64(2147483647)          # 2^31 - 1
_WALK_CUR_MOD = np.int64(1) << np.int64(31)


def _walk_choice(cur: np.ndarray, step: int) -> np.ndarray:
    """Deterministic per-(node, step) pseudo-random draw in
    [0, 2^31-1): ((cur mod 2^31)·MUL + step·ADD) mod (2^31-1).
    (cur mod 2^31)·MUL ≤ 2^31·2.66e9 < 2^63, so int64 is exact and
    the same expression replays verbatim in DuckDB BIGINT."""
    return ((cur % _WALK_CUR_MOD) * WALK_MUL
            + np.int64(step) * WALK_ADD) % WALK_MOD


class _WalkShard(_Shard):
    """Deterministic random walks: the DISTINCT sorted out-adjacency
    (CSR keyed by src) of the nodes hashing here plus the walkers
    currently AT those nodes. Each round every walker steps to
    out-neighbor[h(cur, k) mod deg] (dead ends stay put) and is routed
    to the next node's owner, which emits the (start, step, node) rows
    it now hosts as a table of their own; ``k`` counts the steps taken
    so far. The state is only the walkers, never the rows."""

    state = ("w_start", "w_cur", "k")

    def init(self, *incoming) -> int:
        src, dst = self._edges()["f"]
        # distinct (src, dst), sorted by (src, dst) → CSR
        pair = np.unique(np.stack([src, dst], axis=1), axis=0)
        s, self.nbrs = ((pair[:, 0], pair[:, 1]) if len(pair)
                        else (_EMPTY, _EMPTY))
        self.owned = np.unique(np.concatenate([src, *incoming]))
        # CSR bounds: run of owned[i] in s is [indptr[i], indptr[i+1])
        # (every s value is owned, so the next node's start closes it)
        self.indptr = np.concatenate(
            [np.searchsorted(s, self.owned), [len(s)]]).astype(np.int64)
        # walkers start at every owned node
        self.w_start = self.owned.copy()
        self.w_cur = self.owned.copy()
        self.k = 0
        return len(self.owned)

    def step(self):
        """Advance resident walkers one round; return per-target-shard
        (next, start) arrays."""
        idx = np.searchsorted(self.owned, self.w_cur)
        lo = self.indptr[idx]
        deg = self.indptr[idx + 1] - lo
        h = _walk_choice(self.w_cur, self.k + 1)
        nxt = self.w_cur.copy()
        m = deg > 0
        nxt[m] = self.nbrs[lo[m] + h[m] % deg[m]]
        return self._route(nxt, self.w_start)

    def land(self, *msgs):
        """Host the arriving walkers; returns their count and their
        (start, step, node) rows."""
        self.w_cur, self.w_start = map(_cat, zip(*msgs))
        self.k += 1
        return len(self.w_cur), pa.table({
            "start": pa.array(self.w_start),
            "step": pa.array(np.full(len(self.w_start), self.k, np.int64)),
            "node": pa.array(self.w_cur)})

    def result(self) -> pa.Table:
        """The step-0 rows: every walker at its start node."""
        return pa.table({
            "start": pa.array(self.owned),
            "step": pa.array(np.zeros(len(self.owned), np.int64)),
            "node": pa.array(self.owned)})


def random_walks(edges, src: str = "src", dst: str = "dst",
                 length: int = 4, num_shards: int | None = None):
    """DeepWalk-style sampling corpus: one deterministic walk of
    ``length`` steps from EVERY node, stepping to the h(cur, k)-th
    distinct out-neighbor (sorted by id; dead ends stay put). Output
    is (start, step, node), (length+1) rows per start node —
    bit-reproducible for any sharding and an exact DuckDB replay
    (ROW_NUMBER adjacency + chained LEFT-JOIN CTEs). This is the
    sampling stage a graph-embedding (DeepWalk/node2vec) training
    pipeline runs at corpus scale."""
    rows = []   # refs of steps 1..length; the result holds step 0
    walks = _run(_WalkShard, edges, src, dst, "directed", length,
                 step=lambda shards, rnd: _exchange(shards, "step", "land",
                                                    extra=rows),
                 num_shards=num_shards)
    return rd.from_arrow_refs(walks.to_arrow_refs() + rows)


# ---------------------------------------------------------------- kcore

class _KCoreShard(_Shard):
    """k-core peeling: the DOUBLED distinct edges whose KEY endpoint
    hashes here (CSR), plus an alive mask and the alive-degree (count
    of neighbors not yet announced dead) per owned node. Each round
    kills owned nodes whose alive-degree is below the threshold the
    driver passes and ships ONLY the dead ids to the shards owning the
    reverse edges (message volume = edges of dying nodes — O(E) summed
    over the whole peel, not per round)."""

    state = ("alive", "deg")

    def init(self) -> int:
        key, other = self._edges()["f"]
        # distinct (key, other) — global dedup holds because every
        # copy of an edge keyed by this node hashes to this shard
        pair = (np.unique(np.stack([key, other], axis=1), axis=0)
                if len(key) else np.empty((0, 2), np.int64))
        key, other = pair[:, 0], pair[:, 1]
        self.owned = np.unique(key)
        self.e_other = other                  # sorted by key already
        self.indptr = np.concatenate(
            [np.searchsorted(key, self.owned), [len(key)]]).astype(np.int64)
        self.deg = np.diff(self.indptr)
        self.e_key_idx = np.repeat(np.arange(len(self.owned)), self.deg)
        self.alive = np.ones(len(self.owned), bool)
        return len(self.owned)

    def peel(self, mul: int, lim: int):
        """Kill owned alive nodes with alive-degree·mul < lim; return
        the dead ids routed per owner shard of the reverse edges."""
        dead = self.alive & (self.deg * mul < lim)
        self.alive[dead] = False
        # notify the owners of the REVERSE edges: for each dying
        # node's edge (dead → other), other's owner shard holds
        # (other → dead) and must discount it
        idx = np.nonzero(dead)[0]
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return tuple(_EMPTY for _ in range(self.nb))
        base = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pos = np.repeat(starts - base, counts) + np.arange(total)
        others = self.e_other[pos]
        deads = np.repeat(self.owned[idx], counts)
        tb = _bucket_of(others, self.nb)
        return tuple(np.unique(deads[tb == t]) for t in range(self.nb))

    def mark_dead(self, *msgs) -> int:
        allv = [m for m in msgs if len(m)]
        if not allv:
            return 0
        dead = np.unique(np.concatenate(allv))
        # each node dies once, so each edge to it is discounted once
        hit = np.isin(self.e_other, dead)
        self.deg -= np.bincount(self.e_key_idx[hit],
                                minlength=len(self.deg))
        return int(len(dead))

    def density(self) -> list:
        """[alive nodes with an alive neighbor, sum of their
        alive-degrees]."""
        m = self.alive & (self.deg > 0)
        return [int(m.sum()), int(self.deg[m].sum())]

    def result(self) -> pa.Table:
        m = self.alive
        return pa.table({"node": pa.array(self.owned[m]),
                         "deg_core": pa.array(self.deg[m])})


def kcore(edges, src: str = "src", dst: str = "dst", k: int = 2,
          max_rounds: int = 16, num_shards: int | None = None):
    """k-core membership of the UNDIRECTED distinct-edge graph:
    iteratively remove nodes with fewer than k alive neighbors
    (simultaneous rounds) until a fixed point or ``max_rounds``;
    returns surviving (node, deg_core). Fixed simultaneous rounds
    make the result an exact replay of chained degree-filter CTEs in
    DuckDB regardless of sharding; the early exit on a no-death
    round is bit-exact (monotone fixed point). Self-loops count once
    toward degree (distinct doubled pairs)."""
    return _run(_KCoreShard, edges, src, dst, "doubled", max_rounds,
                step=lambda shards, rnd: _exchange(
                    shards, "peel", "mark_dead", send_args=(1, k)),
                num_shards=num_shards)


def densest(edges, src: str = "src", dst: str = "dst", rounds: int = 6,
            num_shards: int | None = None) -> pd.DataFrame:
    """Densest-subgraph peeling (Bahmani, Kumar and Vassilvitskii,
    VLDB 2012, ε = 1) of the UNDIRECTED distinct-edge graph on the
    k-core shards: each round sums over the shards the nodes nV with an
    alive neighbor and the edges nE between alive nodes, then kills
    every node with deg·nV < 2·nE (below twice the average degree,
    cross-multiplied: no division). Returns (round, n_nodes, n_edges)
    for rounds 1..``rounds``, up to the first round with no edge."""
    rows = []

    def step(shards, rnd):
        nv, deg = np.sum(_each(shards, "density"), axis=0)
        rows.append((rnd, nv, deg // 2))
        if deg and rnd < rounds:
            _exchange(shards, "peel", "mark_dead", send_args=(nv, deg))
        return [deg]

    _run(_KCoreShard, edges, src, dst, "doubled", rounds, step=step,
         num_shards=num_shards)
    return pd.DataFrame(rows, columns=["round", "n_nodes",
                                       "n_edges"]).astype(np.int64)


def _first_per(key: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Positions of each key's minimum ``val`` (ties to the first)."""
    o = np.lexsort((val, key))
    if len(o) == 0:
        return o
    k = key[o]
    return o[np.concatenate(([True], k[1:] != k[:-1]))]


class _MinEdgeShard(_KCoreShard):
    """Minimum outgoing edges on the k-core layout: ``comp`` labels each
    owned node's component (-1: the node has left the graph). A round
    ships every edge's key-end label to the owner of its other end,
    then, per component, the shard's minimum-``prio`` edge to another
    live component (pre-combined locally) to the shard owning the
    component id, which keeps the global minimum. ``prio(u, v)``
    (u < v) is the caller's injective int64 edge priority."""

    state = ("comp",)

    def init(self, prio) -> int:
        n = super().init()
        key = self.owned[self.e_key_idx]
        self.e_u = np.minimum(key, self.e_other)
        self.e_v = np.maximum(key, self.e_other)
        self.e_prio = prio(self.e_u, self.e_v)
        self.comp = self.owned.copy()
        return n

    def send_comp(self):
        return self._route(self.e_other, self.owned[self.e_key_idx],
                           self.comp[self.e_key_idx])

    def recv_comp(self, *msgs) -> int:
        to, frm, comp = map(_cat, zip(*msgs))
        # the edge set is symmetric: sorted by (to, frm) the labels line
        # up with the (key, other)-sorted edges
        self.e_ocomp = comp[np.lexsort((frm, to))]
        return len(to)

    def send_min(self):
        cu = self.comp[self.e_key_idx]
        out = np.nonzero((cu != self.e_ocomp) & (cu >= 0)
                         & (self.e_ocomp >= 0))[0]
        pos = out[_first_per(cu[out], self.e_prio[out])]
        parts = self._route(cu[pos], self.e_prio[pos], self.e_ocomp[pos],
                            self.e_u[pos], self.e_v[pos])
        self.e_ocomp = None
        return parts

    def recv_min(self, *msgs) -> list:
        """Each component's minimum outgoing edge as [component,
        priority, other component, u, v]."""
        cols = list(map(_cat, zip(*msgs)))
        pos = _first_per(cols[0], cols[1])
        return [c[pos] for c in cols]

    def relabel(self, keys: np.ndarray, labels: np.ndarray) -> int:
        i = np.clip(np.searchsorted(keys, self.comp), 0, len(keys) - 1)
        self.comp = np.where(keys[i] == self.comp, labels[i], self.comp)
        return len(self.comp)


def _min_edge_rounds(edges, prio, src, dst, rounds, num_shards, merge):
    """Up to ``rounds`` rounds of ``_MinEdgeShard``. Each round the
    driver gets every component's minimum outgoing edge, sorted by
    component, and ``merge(comp, prio, succ)`` (succ: the edge's other
    component) returns (the rows to emit, relabel keys, their new
    labels). Returns (u, v, round) per emitted edge; stops at a round
    with no outgoing edge."""
    sel = {"u": [], "v": [], "round": []}

    def step(shards, rnd):
        _exchange(shards, "send_comp", "recv_comp")
        cols = list(map(np.concatenate, zip(
            *_exchange(shards, "send_min", "recv_min"))))
        if len(cols[0]) == 0:
            return [0]
        o = np.argsort(cols[0])
        comp, pr, s, u, v = (c[o] for c in cols)
        keep, keys, labels = merge(comp, pr, s)
        u, v = u[keep], v[keep]
        for c, a in (("u", u), ("v", v),
                     ("round", np.full(len(u), rnd, np.int64))):
            sel[c].append(a)
        if rnd < rounds:
            _each(shards, "relabel", keys, labels)
        return [len(comp)]

    _run(_MinEdgeShard, edges, src, dst, "doubled", rounds,
         init_args=(prio,), step=step, num_shards=num_shards)
    return pd.DataFrame({c: _cat(a) for c, a in sel.items()})


def _mutual_pairs(node, pr, succ):
    """Matching merge: a node and its successor that pick each other
    are matched; both leave the graph (label -1)."""
    i = np.clip(np.searchsorted(node, succ), 0, len(node) - 1)
    mutual = (node[i] == succ) & (succ[i] == node)
    dead = node[mutual]
    return mutual & (node < succ), dead, np.full(len(dead), -1)


def matching(edges, prio, src: str = "u", dst: str = "v",
             rounds: int = 3, num_shards: int | None = None):
    """Greedy matching by locally-dominant edges (Hoepman 2004) over
    the UNDIRECTED distinct-edge graph: an edge matches when it is the
    minimum-``prio`` live edge of both its ends, which is Borůvka's
    min-edge round on singleton components, keeping the mutual pairs.
    Matched nodes leave, taking their edges. Returns (u, v, round)."""
    return _min_edge_rounds(edges, prio, src, dst, rounds, num_shards,
                            _mutual_pairs)


def _merge_roots(keys, pr, sv):
    """Borůvka merge: every component's min edge joins the forest (an
    edge two components chose, once), and each component is relabeled
    to the root of its successor tree. The successor function (each
    component's edge names its partner) has only mutual 2-cycles,
    broken toward the smaller id; it is resolved on the driver by
    pointer doubling f ← f∘f to a fixed point (one row per merging
    component)."""
    idx = np.clip(np.searchsorted(keys, sv), 0, len(keys) - 1)
    ss = np.where(keys[idx] == sv, sv[idx], sv)
    f = np.where((ss == keys) & (keys < sv), keys, sv)
    for _ in range(64):
        idx = np.clip(np.searchsorted(keys, f), 0, len(keys) - 1)
        nf = np.where(keys[idx] == f, f[idx], f)
        if np.array_equal(nf, f):
            break
        f = nf
    return np.unique(pr, return_index=True)[1], keys, f


def boruvka(edges, prio, src: str = "u", dst: str = "v",
            rounds: int = 3, num_shards: int | None = None):
    """Borůvka minimum-spanning-forest rounds over the UNDIRECTED
    distinct-edge graph with the injective priority ``prio(u, v)``:
    each round every component selects its minimum-priority outgoing
    edge, the selected edges join the forest, and touching components
    merge (``_merge_roots``). Returns (u, v, round) per selected edge."""
    return _min_edge_rounds(edges, prio, src, dst, rounds, num_shards,
                            _merge_roots)


# ---------------------------------------------------- label propagation

def _group_mode_min(node: np.ndarray, lbl: np.ndarray,
                    cnt: np.ndarray):
    """Per-node argmax label by count, ties to the SMALLEST label:
    lexsort by (node, -count, label) and take each node's first row.
    Exact and deterministic for int64 inputs."""
    o = np.lexsort((lbl, -cnt, node))
    n, l = node[o], lbl[o]
    first = np.concatenate(([True], n[1:] != n[:-1]))
    return n[first], l[first]


def _group_sum2(a: np.ndarray, b: np.ndarray, v: np.ndarray):
    """Sum v per (a, b) pair (lexsort + reduceat), exact int64."""
    if len(a) == 0:
        return a, b, v
    o = np.lexsort((b, a))
    a, b, v = a[o], b[o], v[o]
    first = np.concatenate(
        ([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
    starts = np.nonzero(first)[0]
    return a[starts], b[starts], np.add.reduceat(v, starts)


class _LpaShard(_Shard):
    """Synchronous label propagation (community detection): doubled
    distinct edges keyed by node, the node's current label resident.
    Each round ships per-destination (label, count) pairs PRE-COMBINED
    per shard — volume is O(distinct (dst, label)), not O(E) — and
    each node adopts its neighbors' majority label, ties to the
    smallest label id."""

    state = ("community",)

    def init(self) -> int:
        key, other = self._edges()["f"]
        pair = (np.unique(np.stack([key, other], axis=1), axis=0)
                if len(key) else np.empty((0, 2), np.int64))
        key, other = pair[:, 0], pair[:, 1]
        self.owned = np.unique(key)
        self.splits, self.e_other, self.e_key_idx = \
            self._by_dest(other, np.searchsorted(self.owned, key))
        self.community = self.owned.copy()
        return len(self.owned)

    def scatter(self):
        return self._per_dest(
            self.splits, lambda dst, lab: _group_sum2(
                dst, lab, np.ones(len(dst), np.int64)),
            self.e_other, self.community[self.e_key_idx])

    def gather(self, rnd: int, *msgs) -> int:
        nodes = np.concatenate([m[0] for m in msgs])
        lbls = np.concatenate([m[1] for m in msgs])
        cnts = np.concatenate([m[2] for m in msgs])
        if len(nodes) == 0:
            return 0
        a, b, v = _group_sum2(nodes, lbls, cnts)
        n, l = _group_mode_min(a, b, v)
        new = self.community.copy()
        new[np.searchsorted(self.owned, n)] = l
        return self._update("community", new)


def label_propagation(edges, src: str = "src", dst: str = "dst",
                      rounds: int = 3, num_shards: int | None = None):
    """Synchronous label propagation communities (Raghavan et al.
    2007, made deterministic): every node starts as its own label;
    each of the FIXED ``rounds`` simultaneous rounds adopts the
    majority label among neighbors, ties broken toward the smallest
    label id. Fixed rounds + deterministic ties = bit-reproducible
    for any sharding and an exact DuckDB replay (grouped counts +
    ROW_NUMBER per round); a round that changes no label is a fixed
    point, so stopping there is bit-exact."""
    return _run(_LpaShard, edges, src, dst, "doubled", rounds,
                num_shards=num_shards)


# ------------------------------------------- strongly connected comps

class _SccShard(_Shard):
    """Strongly connected components via forward min-coloring +
    backward same-color anchoring (the distributed coloring algorithm
    of Orzan 2004 / Slota et al., with FIXED round caps so the whole
    run replays as chained CTEs): per outer round, (1) undecided nodes
    propagate the minimum color along forward edges for ≤ inner
    rounds; (2) roots (col == id) anchor; (3) anchoring spreads
    ≤ inner rounds along REVERSE edges but only onto nodes of the SAME
    color — an anchored node is therefore mutually reachable with its
    root, so every emitted group is strongly connected BY CONSTRUCTION
    (caps can only split a large-diameter SCC across outer rounds,
    never merge two); (4) anchored nodes are decided with scc = color,
    colors reset. Holds both edge layouts (as _HitsShard); color
    messages are per-destination pre-combined minima, anchor messages
    are deduped (target, color) pairs."""

    state = ("scc", "dec", "col", "anch")

    def init(self, *incoming) -> int:
        e = self._edges()
        (fs, fd), (rs, rd) = e["f"], e["r"]
        self.owned = np.unique(np.concatenate([fs, rs, *incoming]))
        self.f_splits, self.f_dst, self.f_idx = \
            self._by_dest(fd, np.searchsorted(self.owned, fs))
        self.r_splits, self.r_dst, self.r_idx = \
            self._by_dest(rd, np.searchsorted(self.owned, rs))
        self.col = self.owned.copy()
        self.dec = np.zeros(len(self.owned), bool)
        self.anch = np.zeros(len(self.owned), bool)
        self.scc = np.full(len(self.owned), np.int64(-1))
        return len(self.owned)

    def scatter_col(self):
        return self._per_dest(
            self.f_splits, lambda dst, c, live: _group_fold(
                np.minimum, dst[live], c[live]),
            self.f_dst, self.col[self.f_idx], ~self.dec[self.f_idx])

    def gather_col(self, *msgs) -> int:
        new = self._fold(self.col, msgs, np.minimum)
        return self._update("col", np.where(self.dec, self.col, new))

    def mark_roots(self) -> int:
        self.anch = (~self.dec) & (self.col == self.owned)
        return int(self.anch.sum())

    def scatter_anch(self):
        def part(u, idx, live):
            u, c = u[live], self.col[idx[live]]
            if len(u):
                o = np.lexsort((c, u))
                u, c = u[o], c[o]
                keep = np.concatenate(
                    ([True], (u[1:] != u[:-1]) | (c[1:] != c[:-1])))
                u, c = u[keep], c[keep]
            return u, c

        return self._per_dest(self.r_splits, part, self.r_dst,
                              self.r_idx, self.anch[self.r_idx])

    def gather_anch(self, *msgs) -> int:
        changed = 0
        for ids, cols in msgs:
            if len(ids):
                idx = np.searchsorted(self.owned, ids)
                upd = (~self.dec[idx]) & (~self.anch[idx]) \
                    & (self.col[idx] == cols)
                if upd.any():
                    self.anch[idx[upd]] = True
                    changed += int(upd.sum())
        return changed

    def finish_outer(self) -> int:
        a = self.anch
        self.scc = np.where(a, self.col, self.scc)
        self.dec = self.dec | a
        self.col = np.where(self.dec, self.col, self.owned)
        self.anch = np.zeros(len(self.owned), bool)
        return int((~self.dec).sum())

    def result(self) -> pa.Table:
        return pa.table({"node": pa.array(self.owned),
                         "scc": pa.array(self.scc)})


def scc(edges, src: str = "src", dst: str = "dst",
        outer: int = 4, inner: int = 8,
        num_shards: int | None = None):
    """Strongly connected components (web bow-tie structure, spam
    rings): ``outer`` coloring rounds of ``inner``-capped forward
    min-color propagation + backward same-color anchoring on the
    resident-shard engine. Deterministic for any sharding; nodes not
    decided within the caps keep scc = -1 (sound: every emitted
    group is strongly connected; exact when inner covers each class
    diameter and outer covers the root chain — the link_distance
    round-cap contract). Early exits at fixpoints are bit-exact."""
    def step(shards, rnd):
        for _ in range(inner):
            if sum(_exchange(shards, "scatter_col", "gather_col")) == 0:
                break
        _each(shards, "mark_roots")
        for _ in range(inner):
            if sum(_exchange(shards, "scatter_anch", "gather_anch")) == 0:
                break
        return _each(shards, "finish_outer")   # undecided nodes left

    return _run(_SccShard, edges, src, dst, "both", outer, step=step,
                num_shards=num_shards)


def _truss_support(e):
    """Per-edge triangle support over a CANONICAL (u<v, distinct)
    edge Dataset: enumerate triangles a<b<c via wedge join (b) +
    closing-edge probe ((a,c) composite key), then count each
    triangle once toward all three of its edges. Edges in no
    triangle do not appear (support 0). Returns Dataset
    (u, v, support). Both joins are bucketed hash joins
    (``rel.join_large``): task-based shuffles with no per-call actor
    pool, cheap enough to rerun every round of the peeling loop."""
    ab = map_arrow(e, lambda b: pa.table({"a": b["u"], "b": b["v"]}))
    bc = map_arrow(e, lambda b: pa.table({"b": b["u"], "c": b["v"]}))
    ac = map_arrow(e, lambda b: pa.table({"a": b["u"], "c": b["v"]}))
    wedges = rel.join_large(ab, bc, on="b", num_buckets=16)
    tri = rel.join_large(
        map_arrow(wedges, lambda b: b.select(["a", "b", "c"])),
        ac, on=["a", "c"], num_buckets=16)

    def emit_roles(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        c = batch["c"].to_numpy(zero_copy_only=False)
        return pa.table({
            "u": np.concatenate([a, b, a]).astype(np.int64),
            "v": np.concatenate([b, c, c]).astype(np.int64)})

    roles = map_arrow(tri, emit_roles)

    def count(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["u", "v"], sort=False).size()
        out = c.reset_index()
        out.columns = ["u", "v", "support"]
        return out.astype(np.int64)

    supp = rel.bucketed_group_apply(roles, ["u", "v"], count)
    return rel.with_empty_schema(supp, pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("support", pa.int64())]))


def _undirected_edges(edges, src: str, dst: str):
    """Distinct undirected edges (u < v, self-loops dropped) of a
    directed edge Dataset, materialized."""
    def canon(batch: pa.Table) -> pa.Table:
        u = batch[src].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return pa.table({"u": np.minimum(u, v), "v": np.maximum(u, v)})

    e = map_arrow(edges, canon)
    e = rel.dedup(e, ["u", "v"])
    return rel.with_empty_schema(e, pa.schema(
        [("u", pa.int64()), ("v", pa.int64())])).materialize()


def ktruss(edges, src: str = "src", dst: str = "dst", k: int = 4,
           max_rounds: int = 4):
    """k-truss of the undirected distinct-edge graph (Cohen 2008):
    iteratively delete edges supported by fewer than k-2 triangles
    (simultaneous rounds) until a fixed point or ``max_rounds``;
    returns surviving edges with their final support. The community-
    core / spam-ring detector one notch stricter than k-core.

    Simultaneous rounds with a FIXED cap make the result an exact
    replay of chained triangle-filter CTEs in DuckDB; the early exit
    on a no-death round is bit-exact (edge deletion is monotone, so
    once a round removes nothing every later round is identical).
    Each round is two hash-partitioned joins + one bucketed count —
    the per-round state is only the narrow surviving edge list,
    re-materialized so the peeling loop never re-executes lineage."""
    e = _undirected_edges(edges, src, dst)
    n_edges = e.count()

    thresh = k - 2
    for _ in range(max_rounds):
        supp = _truss_support(e)
        e = map_arrow(supp, lambda b: b.filter(pc.greater_equal(
            b["support"], thresh)).select(["u", "v"])).materialize()
        n_new = e.count()
        if n_new == 0:
            # all later rounds (and the final support pass) are empty
            return rd.from_arrow(pa.table({
                "u": pa.array([], pa.int64()),
                "v": pa.array([], pa.int64()),
                "support": pa.array([], pa.int64())}))
        if n_new == n_edges:
            break
        n_edges = n_new

    return _truss_support(e)


def clustering_coefficient(edges, src: str = "src", dst: str = "dst"):
    """Local clustering coefficient per node over the undirected
    distinct-edge graph: cc = 2·tri / (deg·(deg-1)) reported as exact
    integer ppm (one floor division — no float accumulates), for
    nodes with deg >= 2. Triangles are enumerated once (a<b<c wedge
    join + closing-edge probe, the _truss_support plan) and each
    counts toward all three corners; degrees come from the doubled
    distinct edge list. Both per-node tables are node-bounded; they
    meet in ONE bucketed combine via union-all partials (no join)."""
    e = _undirected_edges(edges, src, dst)

    supp = _truss_support(e)   # reuse: emits (u,v,support) per EDGE

    # per-NODE triangle counts: sum each edge's support and divide by
    # 2 (every triangle at a node covers exactly two incident edges)
    def node_tri(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        s = batch["support"].to_numpy(zero_copy_only=False)
        return pa.table({
            "node": np.concatenate([u, v]).astype(np.int64),
            "tri2": np.concatenate([s, s]).astype(np.int64),
            "deg": np.zeros(2 * len(u), np.int64)})

    def node_deg(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        n = 2 * len(u)
        return pa.table({
            "node": np.concatenate([u, v]).astype(np.int64),
            "tri2": np.zeros(n, np.int64),
            "deg": np.ones(n, np.int64)})

    tri_parts = map_arrow(supp, node_tri)
    deg_parts = map_arrow(e, node_deg)
    parts = tri_parts.union(deg_parts)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("node", sort=False)[["tri2", "deg"]].sum() \
            .reset_index()
        c = c[c["deg"] >= 2]
        node = c["node"].to_numpy(np.int64)
        tri = c["tri2"].to_numpy(np.int64) // 2
        deg = c["deg"].to_numpy(np.int64)
        return pd.DataFrame({
            "node": node, "tri": tri, "deg": deg,
            "cc_ppm": 2 * tri * 1_000_000 // (deg * (deg - 1))})

    out = rel.bucketed_group_apply(parts, ["node"], combine)
    return rel.with_empty_schema(out, pa.schema(
        [("node", pa.int64()), ("tri", pa.int64()),
         ("deg", pa.int64()), ("cc_ppm", pa.int64())]))
