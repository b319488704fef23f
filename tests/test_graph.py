"""Distributed connected components (graph.py) vs a reference
union-find on the same edges."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _uf_components(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(0, 30, 20), (7, 200, 150)])
def test_connected_components_matches_union_find(ray_session, seed,
                                                 n_nodes, n_edges):
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    b = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    edges = pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
    out = graph.connected_components(rd.from_arrow(edges)).to_pandas()
    got = dict(zip(out["node"], out["component"]))
    assert got == _uf_components(list(zip(a.tolist(), b.tolist())))


def test_connected_components_chain(ray_session):
    """Worst-case diameter: a chain still converges (O(d) rounds)
    and collapses to one component."""
    import ray.data as rd

    from pythongis_ray import graph

    n = 8
    edges = pa.table({"id_a": pa.array(np.arange(n - 1, 0, -1)),
                      "id_b": pa.array(np.arange(n, 1, -1))})
    out = graph.connected_components(rd.from_arrow(edges)).to_pandas()
    assert len(out) == n
    assert set(out["component"]) == {1}


def test_connected_components_actors_empty_edges(ray_session):
    import ray.data as rd

    from pythongis_ray import graph

    edges = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})
    out = graph.connected_components(rd.from_arrow(edges))
    assert out.count() == 0
    # Ray's to_pandas drops columns at 0 rows; the Dataset schema is
    # what downstream consumers that read it rely on
    assert out.schema().names == ["node", "component"]


def _hits_reference(src, dst, iters, scale):
    nodes = np.unique(np.concatenate([src, dst]))
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    h = np.full(len(nodes), scale, np.int64)
    a = np.full(len(nodes), scale, np.int64)
    for _ in range(iters):
        raw = np.zeros(len(nodes), np.int64)
        np.add.at(raw, di, h[si])
        a = raw // max(1, int(raw.max(initial=0)) // scale)
        raw = np.zeros(len(nodes), np.int64)
        np.add.at(raw, si, a[di])
        h = raw // max(1, int(raw.max(initial=0)) // scale)
    return nodes, h, a


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(3, 40, 60), (11, 500, 2000)])
def test_hits_matches_serial_replay(ray_session, seed, n_nodes, n_edges):
    """graph.hits is bit-identical to a serial numpy replay of the
    integer HITS recurrence for any sharding (global divisor is
    injected by the driver, so partitioning cannot change results)."""
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    edges = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    out = graph.hits(rd.from_arrow(edges), iters=3,
                     scale=10_000, num_shards=3).to_pandas()
    out = out.sort_values("node").reset_index(drop=True)
    nodes, h, a = _hits_reference(src, dst, 3, 10_000)
    assert out["node"].to_numpy().tolist() == nodes.tolist()
    assert out["hub"].to_numpy().tolist() == h.tolist()
    assert out["auth"].to_numpy().tolist() == a.tolist()


def test_hits_hub_authority_split(ray_session):
    """A pure hub (points at everything, no in-links) ends with auth 0
    and the max hub score; the pure authorities end with hub 0."""
    import ray.data as rd

    from pythongis_ray import graph

    src = np.array([0, 0, 0, 0], np.int64)
    dst = np.array([1, 2, 3, 4], np.int64)
    out = graph.hits(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        iters=2, scale=1000, num_shards=2).to_pandas()
    row0 = out[out["node"] == 0].iloc[0]
    assert row0["auth"] == 0 and row0["hub"] == out["hub"].max()
    assert (out[out["node"] != 0]["hub"] == 0).all()
    assert (out[out["node"] != 0]["auth"] > 0).all()


def _bfs_reference(src, dst, seed_mod, iters):
    INF = 1 << 40
    nodes = np.unique(np.concatenate([src, dst]))
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    dist = np.where(nodes % seed_mod == 0, 0, INF).astype(np.int64)
    for _ in range(iters):
        new = dist.copy()
        np.minimum.at(new, di, dist[si] + 1)
        dist = new
    return nodes, dist


@pytest.mark.parametrize("seed,n_nodes,n_edges,iters",
                         [(5, 60, 90, 4), (13, 400, 1200, 8)])
def test_bfs_matches_serial_replay(ray_session, seed, n_nodes,
                                   n_edges, iters):
    """graph.bfs distances are bit-identical to a serial min-plus
    replay with the same fixed round cap, for any sharding."""
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.bfs(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        seed_mod=7, iters=iters, num_shards=3).to_pandas()
    out = out.sort_values("node").reset_index(drop=True)
    nodes, dist = _bfs_reference(src, dst, 7, iters)
    assert out["node"].to_numpy().tolist() == nodes.tolist()
    assert out["dist"].to_numpy().tolist() == dist.tolist()


def test_bfs_chain_directed(ray_session):
    """Directedness: on the chain 0→1→…→5 with only node 0 a seed,
    dist is the hop index; the round cap truncates deeper nodes."""
    import ray.data as rd

    from pythongis_ray import graph

    n = 6
    edges = pa.table({"src": pa.array(np.arange(n - 1)),
                      "dst": pa.array(np.arange(1, n))})
    out = graph.bfs(rd.from_arrow(edges), seed_mod=1000,
                    iters=3, num_shards=2).to_pandas()
    got = dict(zip(out["node"], out["dist"]))
    assert got[0] == 0 and got[1] == 1 and got[2] == 2 and got[3] == 3
    assert got[4] == int(graph.BFS_INF) and got[5] == int(graph.BFS_INF)


def _walks_reference(src, dst, length):
    nodes = np.unique(np.concatenate([src, dst]))
    adj = {}
    for s, d in sorted(set(zip(src.tolist(), dst.tolist()))):
        adj.setdefault(s, []).append(d)
    rows = {(int(n), 0, int(n)) for n in nodes}
    cur = {int(n): int(n) for n in nodes}
    for k in range(1, length + 1):
        for start in cur:
            c = cur[start]
            nb = adj.get(c)
            if nb:
                h = ((c % 2**31) * 2654435761 + k * 40503) % (2**31 - 1)
                c = nb[h % len(nb)]
            cur[start] = c
            rows.add((start, k, c))
    return rows


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(2, 30, 50), (9, 300, 900)])
def test_random_walks_match_serial_replay(ray_session, seed,
                                          n_nodes, n_edges):
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.random_walks(
        rd.from_arrow(pa.table({"src": pa.array(src),
                                "dst": pa.array(dst)})),
        length=4, num_shards=3).to_pandas()
    got = set(zip(out["start"].tolist(), out["step"].tolist(),
                  out["node"].tolist()))
    want = _walks_reference(src, dst, 4)
    assert got == want
    n_nodes_real = len(np.unique(np.concatenate([src, dst])))
    assert len(out) == n_nodes_real * 5   # one row per (start, step)


def test_trustrank_personalized_teleport(ray_session):
    """seed_mod gates BOTH the init and the teleport mass: a node
    unreachable from the seed set ends at exactly 0; results match a
    serial integer replay."""
    import ray.data as rd

    from pythongis_ray import graph

    # 0 (seed, via seed_mod=5) → 1 → 2 ; isolated pair 3 → 4
    src = np.array([0, 1, 3], np.int64)
    dst = np.array([1, 2, 4], np.int64)
    out = graph.pagerank(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        iters=3, seed_mod=5, num_shards=2).to_pandas()
    got = dict(zip(out["node"], out["mass"]))

    nodes = np.arange(5)
    mass = {int(n): (1_000_000 if n % 5 == 0 else 0) for n in nodes}
    adj = {0: [1], 1: [2], 3: [4]}
    od = {k: len(v) for k, v in adj.items()}
    for _ in range(3):
        new = {int(n): (150_000 if n % 5 == 0 else 0) for n in nodes}
        for s, ds_ in adj.items():
            for d in ds_:
                new[d] += (85 * mass[s]) // (100 * od[s])
        mass = new
    assert got == mass
    assert got[3] == 0 and got[4] == 0      # untrusted island demoted
    assert got[0] > 0 and got[1] > 0 and got[2] > 0


def _kcore_reference(src, dst, k, rounds):
    de = set()
    for a, b in zip(src.tolist(), dst.tolist()):
        de.add((a, b)); de.add((b, a))
    alive = {u for u, _ in de}
    for _ in range(rounds):
        deg = {}
        for u, v in de:
            if u in alive and v in alive:
                deg[u] = deg.get(u, 0) + 1
        new = {u for u in alive if deg.get(u, 0) >= k}
        if new == alive:
            break
        alive = new
    deg = {}
    for u, v in de:
        if u in alive and v in alive:
            deg[u] = deg.get(u, 0) + 1
    return {u: deg.get(u, 0) for u in alive}


@pytest.mark.parametrize("seed,n_nodes,n_edges,k",
                         [(4, 40, 55, 2), (17, 300, 500, 3)])
def test_kcore_matches_serial_peel(ray_session, seed, n_nodes,
                                   n_edges, k):
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.kcore(
        rd.from_arrow(pa.table({"src": pa.array(src),
                                "dst": pa.array(dst)})),
        k=k, max_rounds=50, num_shards=3).to_pandas()
    got = ({} if len(out) == 0 else
           dict(zip(out["node"].tolist(), out["deg_core"].tolist())))
    assert got == _kcore_reference(src, dst, k, 50)


def test_kcore_peels_chain_keeps_clique(ray_session):
    """A 4-clique survives k=3 peeling; a pendant chain hanging off
    it is fully peeled away."""
    import ray.data as rd

    from pythongis_ray import graph

    cl = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    chain = [(3, 10), (10, 11), (11, 12)]
    src = np.array([a for a, _ in cl + chain], np.int64)
    dst = np.array([b for _, b in cl + chain], np.int64)
    out = graph.kcore(
        rd.from_arrow(pa.table({"src": pa.array(src),
                                "dst": pa.array(dst)})),
        k=3, max_rounds=20, num_shards=2).to_pandas()
    assert sorted(out["node"].tolist()) == [0, 1, 2, 3]
    assert (out["deg_core"] == 3).all()


def _lpa_reference(src, dst, rounds):
    de = set()
    for a, b in zip(src.tolist(), dst.tolist()):
        de.add((a, b)); de.add((b, a))
    adj = {}
    for u, v in de:
        adj.setdefault(u, []).append(v)
    lab = {u: u for u in adj}
    for _ in range(rounds):
        new = {}
        for u, nbrs in adj.items():
            cnt = {}
            for v in nbrs:
                cnt[lab[v]] = cnt.get(lab[v], 0) + 1
            best = min(cnt, key=lambda l: (-cnt[l], l))
            new[u] = best
        lab = new
    return lab


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(6, 40, 60), (21, 400, 900)])
def test_label_propagation_matches_serial(ray_session, seed,
                                          n_nodes, n_edges):
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.label_propagation(
        rd.from_arrow(pa.table({"src": pa.array(src),
                                "dst": pa.array(dst)})),
        rounds=3, num_shards=3).to_pandas()
    got = dict(zip(out["node"].tolist(), out["community"].tolist()))
    assert got == _lpa_reference(src, dst, 3)


def test_label_propagation_two_cliques(ray_session):
    """Two 3-cliques joined by one bridge edge: each clique converges
    to its minimum id."""
    import ray.data as rd

    from pythongis_ray import graph

    ed = [(0, 1), (0, 2), (1, 2), (10, 11), (10, 12), (11, 12), (2, 10)]
    src = np.array([a for a, _ in ed], np.int64)
    dst = np.array([b for _, b in ed], np.int64)
    out = graph.label_propagation(
        rd.from_arrow(pa.table({"src": pa.array(src),
                                "dst": pa.array(dst)})),
        rounds=4, num_shards=2).to_pandas()
    got = dict(zip(out["node"].tolist(), out["community"].tolist()))
    assert got == _lpa_reference(src, dst, 4)
    assert got[0] == got[1] == got[2] == 0    # left clique keeps 0


def test_graph_ops_invariant_to_shard_count(ray_session):
    """Every resident-shard op returns BIT-IDENTICAL tables at any
    num_shards — the determinism contract the SQL oracles rely on."""
    import pandas as pd
    import ray.data as rd

    from pythongis_ray import graph
    from pythongis_ray import queries as q

    rng = np.random.default_rng(42)
    src = rng.integers(0, 200, 600).astype(np.int64)
    dst = rng.integers(0, 200, 600).astype(np.int64)
    u, v = _undirected(42, 200, 600)

    def edges():
        return rd.from_arrow(pa.table({"src": pa.array(src),
                                       "dst": pa.array(dst)}))

    def undirected():
        return rd.from_arrow(pa.table({"u": pa.array(u), "v": pa.array(v)}))

    ops = {
        "pagerank": lambda e, nb: graph.pagerank(
            e, iters=3, num_shards=nb),
        "trustrank": lambda e, nb: graph.pagerank(
            e, iters=3, seed_mod=7, num_shards=nb),
        "hits": lambda e, nb: graph.hits(
            e, iters=2, scale=10_000, num_shards=nb),
        "bfs": lambda e, nb: graph.bfs(
            e, seed_mod=11, iters=5, num_shards=nb),
        "walks": lambda e, nb: graph.random_walks(
            e, length=3, num_shards=nb),
        "kcore": lambda e, nb: graph.kcore(
            e, k=2, max_rounds=30, num_shards=nb),
        "lpa": lambda e, nb: graph.label_propagation(
            e, rounds=3, num_shards=nb),
        "cc": lambda e, nb: graph.connected_components(
            e, src="src", dst="dst", num_shards=nb),
        "scc": lambda e, nb: graph.scc(
            e, outer=3, inner=4, num_shards=nb),
        "multi_bfs": lambda e, nb: graph.multi_bfs(
            e, seed_mod=11, n_landmarks=3, iters=5, num_shards=nb),
        "bfs_seeds": lambda e, nb: graph.bfs(
            e, seeds=np.array([3, 17, 40]), iters=5, num_shards=nb),
        "bfs_weighted": lambda e, nb: graph.bfs(
            e, seed_mod=11, iters=5, weight_mod=7, num_shards=nb),
        "bfs_temporal": lambda e, nb: graph.bfs(
            e, seed_mod=11, iters=5, temporal_mod=9, num_shards=nb),
        "katz_sums": lambda e, nb: graph.neighbour_sums(
            e, "src", "dst", q.KATZ_L, q._katz_update, start=np.ones_like,
            num_shards=nb),
        "wl_sums": lambda e, nb: graph.neighbour_sums(
            undirected(), "u", "v", q.WL_ROUNDS, q._wl_update,
            send=q._wl_hash, undirected=True, num_shards=nb),
        "densest": lambda e, nb: graph.densest(
            undirected(), "u", "v", num_shards=nb),
        "matching": lambda e, nb: graph.matching(
            undirected(), q._edge_priority, num_shards=nb),
        "boruvka": lambda e, nb: graph.boruvka(
            undirected(), q._edge_priority, num_shards=nb),
    }
    for name, fn in ops.items():
        frames = []
        for nb in (2, 5):
            df = fn(edges(), nb)
            df = df if isinstance(df, pd.DataFrame) else df.to_pandas()
            df = df.sort_values(list(df.columns),
                                kind="stable").reset_index(drop=True)
            frames.append(df)
        assert frames[0].equals(frames[1]), name


# The keys are the pytest ids. They keep the op names from before the
# ``_actors`` suffix was dropped (``pagerank_actors`` runs
# ``graph.pagerank``), so a test keeps its id across that rename.
_SHARD_OPS = {
    "pagerank_actors": lambda g, e: g.pagerank(e, iters=2),
    "connected_components": lambda g, e: g.connected_components(
        e, src="src", dst="dst"),
    "hits_actors": lambda g, e: g.hits(e, iters=2),
    "bfs_actors": lambda g, e: g.bfs(e, iters=2),
    "multi_bfs_actors": lambda g, e: g.multi_bfs(e, iters=2),
    "random_walks": lambda g, e: g.random_walks(e, length=2),
    "kcore": lambda g, e: g.kcore(e, max_rounds=2),
    "label_propagation": lambda g, e: g.label_propagation(e, rounds=2),
    "scc_actors": lambda g, e: g.scc(e, outer=2, inner=2),
    "neighbour_sums": lambda g, e: g.neighbour_sums(
        e, "src", "dst", 2, _q()._katz_update, start=np.ones_like),
    "densest": lambda g, e: _ds(g.densest(e, rounds=2)),
    "matching": lambda g, e: _ds(g.matching(
        e, _q()._edge_priority, "src", "dst", rounds=2)),
    "boruvka": lambda g, e: _ds(g.boruvka(
        e, _q()._edge_priority, "src", "dst", rounds=2)),
}

# the columns of each op's result (multi_bfs' default 3 landmarks)
_OP_COLUMNS = {
    "pagerank_actors": ["node", "mass"],
    "connected_components": ["node", "component"],
    "hits_actors": ["node", "hub", "auth"],
    "bfs_actors": ["node", "dist"],
    "multi_bfs_actors": ["node", "d0", "d1", "d2"],
    "random_walks": ["start", "step", "node"],
    "kcore": ["node", "deg_core"],
    "label_propagation": ["node", "community"],
    "scc_actors": ["node", "scc"],
    "neighbour_sums": ["node", "x"],
    "densest": ["round", "n_nodes", "n_edges"],
    "matching": ["u", "v", "round"],
    "boruvka": ["u", "v", "round"],
}


def _q():
    """The queries module: its module-level int64 arithmetic is what
    the neighbour-sum, matching and Borůvka ops take."""
    from pythongis_ray import queries

    return queries


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


@pytest.mark.parametrize("op", sorted(_SHARD_OPS))
def test_shard_pool_torn_down_on_error(ray_session, op):
    """An edge load that fails (no ``src`` column) raises, and leaves
    no shard actor behind: the engine runs each shard method as a
    stateless task over object-store state, so there is no pool to
    leak, and none may reappear."""
    import time

    import ray.data as rd
    from ray._private import state

    from pythongis_ray import graph

    edges = rd.from_arrow(pa.table({"dst": pa.array([1, 2, 3],
                                                    pa.int64())}))
    with pytest.raises(Exception) as err:
        _SHARD_OPS[op](graph, edges)

    def live():
        return [a["ActorClassName"] for a in state.actors().values()
                if a["ActorClassName"].endswith("Shard")
                and a["State"] != "DEAD"]

    # ``err`` keeps the failed call's frames, and so its actor handles,
    # alive: a pool nobody killed can't vanish through handle GC here
    deadline = time.monotonic() + 10
    while live() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert live() == [], err.value


@pytest.mark.parametrize("op", sorted(_SHARD_OPS))
def test_graph_ops_start_no_actors(ray_session, op):
    """Graph rounds are tasks over object-store shard state: a full
    run starts no shard actor, so none shows up in the actor table,
    not even a dead one."""
    import ray.data as rd
    from ray._private import state

    from pythongis_ray import graph

    rng = np.random.default_rng(5)
    edges = rd.from_arrow(pa.table({
        "src": pa.array(rng.integers(0, 40, 80).astype(np.int64)),
        "dst": pa.array(rng.integers(0, 40, 80).astype(np.int64))}))
    assert _SHARD_OPS[op](graph, edges).count() > 0
    shards = [a["ActorClassName"] for a in state.actors().values()
              if a["ActorClassName"].endswith("Shard")]
    assert shards == []


@pytest.mark.parametrize("op", sorted(_SHARD_OPS))
def test_graph_ops_read_lazy_edges_once(ray_session, monkeypatch, op):
    """On a lazy 3-block ``map_batches`` edge lineage an op runs no
    ``limit=1`` schema peek (its shards read the non-empty block refs
    of one execution); on a filter-emptied lineage it returns no rows,
    with the op's columns in the result schema."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from pythongis_ray import graph
    from pythongis_ray.relational import map_arrow

    rng = np.random.default_rng(5)
    blocks = [pa.table({
        "src": pa.array(rng.integers(0, 40, 30).astype(np.int64)),
        "dst": pa.array(rng.integers(0, 40, 30).astype(np.int64))})
        for _ in range(3)]

    def edges(lo):
        return map_arrow(rd.from_arrow(blocks),
                         lambda b: b.filter(pc.greater_equal(b["src"], lo)))

    peeks = []
    execute = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        ops, todo = [], [dag]
        while todo:
            node = todo.pop()
            ops.append(node)
            todo.extend(node.input_dependencies)
        peeks.extend(node for node in ops
                     if type(node).__name__ == "LimitOperator"
                     and node._limit == 1)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    assert _SHARD_OPS[op](graph, edges(0)).count() > 0
    assert peeks == []

    out = _SHARD_OPS[op](graph, edges(1 << 40))
    # densest reports round 1 of the empty graph: 0 nodes, 0 edges
    assert out.count() == (1 if op == "densest" else 0)
    assert out.schema().names == _OP_COLUMNS[op]


def test_no_join_large_in_query_loops():
    """No ``q_`` function calls ``join_large`` (bare or as
    ``rel.join_large``) inside a ``for``/``while`` loop, nested defs
    included: graph rounds run on the resident-shard engine
    (``graph._run``), which keeps the edges in place instead of
    re-shuffling the O(E) edge table every round."""
    import ast
    import pathlib

    from pythongis_ray import relational

    exempt = {
        # no edge table: each round joins supplier state against the
        # 25 nation acceptors
        "q_stable_match",
        # joins five finished PageRank traces, not graph rounds
        "q_pagerank_delta",
    }
    path = pathlib.Path(relational.__file__).with_name("queries.py")
    found = set()
    for fn in ast.parse(path.read_text()).body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("q_")):
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, (ast.For, ast.While)) and any(
                    isinstance(c, ast.Call) and getattr(
                        c.func, "attr", getattr(c.func, "id", None))
                    == "join_large" for c in ast.walk(loop)):
                found.add(fn.name)
    assert found == exempt


def _undirected(seed, n_nodes, n_edges):
    """Distinct undirected edges u < v of a random graph, self-loops
    dropped: the input contract of the Borůvka, matching, densest and
    WL rounds."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges).tolist()
    b = rng.integers(0, n_nodes, n_edges).tolist()
    pairs = sorted({(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y})
    return (np.array([x for x, _ in pairs], np.int64),
            np.array([y for _, y in pairs], np.int64))


def _uv(u, v):
    import ray.data as rd

    return rd.from_arrow(pa.table({"u": pa.array(u), "v": pa.array(v)}))


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(5, 60, 90), (13, 400, 1200)])
def test_bfs_seed_set_matches_serial_replay(ray_session, seed, n_nodes,
                                            n_edges):
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    seeds = rng.choice(n_nodes, 4, replace=False).astype(np.int64)
    out = graph.bfs(rd.from_arrow(pa.table({"src": pa.array(src),
                                            "dst": pa.array(dst)})),
                    seeds=seeds, iters=4, num_shards=3).to_pandas()
    got = dict(zip(out["node"].tolist(), out["dist"].tolist()))
    nodes = np.unique(np.concatenate([src, dst]))
    dist = np.where(np.isin(nodes, seeds), 0, 1 << 40).astype(np.int64)
    si, di = np.searchsorted(nodes, src), np.searchsorted(nodes, dst)
    for _ in range(4):
        new = dist.copy()
        np.minimum.at(new, di, dist[si] + 1)
        dist = new
    assert got == dict(zip(nodes.tolist(), dist.tolist()))


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(3, 40, 60), (11, 300, 900)])
def test_neighbour_sums_match_serial_katz_and_wl(ray_session, seed,
                                                 n_nodes, n_edges):
    """Katz in Horner form equals the level sum Σ 2^(L−l)·p_l (0 off
    p_1's support), and the WL rounds equal a serial refinement."""
    import ray.data as rd

    from pythongis_ray import graph
    from pythongis_ray import queries as q

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.neighbour_sums(
        rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)})),
        "src", "dst", q.KATZ_L, q._katz_update, start=np.ones_like,
        num_shards=3).to_pandas()
    nodes = np.unique(np.concatenate([src, dst]))
    si, di = np.searchsorted(nodes, src), np.searchsorted(nodes, dst)
    p, katz = np.ones(len(nodes), np.int64), np.zeros(len(nodes), np.int64)
    for lvl in range(1, q.KATZ_L + 1):
        new = np.zeros(len(nodes), np.int64)
        np.add.at(new, di, p[si])
        p = new
        katz += (1 << (q.KATZ_L - lvl)) * p
    assert dict(zip(out["node"].tolist(), out["x"].tolist())) \
        == dict(zip(nodes.tolist(), katz.tolist()))

    u, v = _undirected(seed, n_nodes, n_edges)
    out = graph.neighbour_sums(_uv(u, v), "u", "v", q.WL_ROUNDS,
                               q._wl_update, send=q._wl_hash,
                               undirected=True, num_shards=3).to_pandas()
    nodes = np.unique(np.concatenate([u, v]))
    a = np.searchsorted(nodes, np.concatenate([u, v]))
    b = np.searchsorted(nodes, np.concatenate([v, u]))
    col = np.bincount(a, minlength=len(nodes)).astype(np.int64)
    for _ in range(q.WL_ROUNDS):
        sm = np.zeros(len(nodes), np.int64)
        np.add.at(sm, a, (col[b] * q.WL_P1 + q.WL_P2) % q.WL_M)
        col = (col * q.WL_OWN + sm % q.WL_M) % q.WL_M
    assert dict(zip(out["node"].tolist(), out["x"].tolist())) \
        == dict(zip(nodes.tolist(), col.tolist()))


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(4, 40, 80), (17, 300, 900)])
def test_densest_matches_serial_peel(ray_session, seed, n_nodes, n_edges):
    from pythongis_ray import graph

    u, v = _undirected(seed, n_nodes, n_edges)
    got = graph.densest(_uv(u, v), "u", "v", rounds=6, num_shards=3)
    e, want = set(zip(u.tolist(), v.tolist())), []
    for rnd in range(1, 7):
        deg = {}
        for x in (n for ab in e for n in ab):
            deg[x] = deg.get(x, 0) + 1
        want.append((rnd, len(deg), len(e)))
        if not e:
            break
        keep = {n for n, d in deg.items() if d * len(deg) >= 2 * len(e)}
        e = {(a, b) for a, b in e if a in keep and b in keep}
    assert list(got.itertuples(index=False, name=None)) == want


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(2, 40, 80), (9, 300, 900)])
def test_matching_matches_serial_rounds(ray_session, seed, n_nodes,
                                        n_edges):
    from pythongis_ray import graph
    from pythongis_ray import queries as q

    u, v = _undirected(seed, n_nodes, n_edges)
    out = graph.matching(_uv(u, v), q._edge_priority, rounds=3,
                         num_shards=3)
    alive = dict(zip(zip(u.tolist(), v.tolist()),
                     q._edge_priority(u, v).tolist()))
    want = []
    for rnd in range(1, 4):
        mn = {}
        for (a, b), k in alive.items():
            for n in (a, b):
                mn[n] = min(mn.get(n, k), k)
        hit = [(a, b) for (a, b), k in alive.items() if mn[a] == k == mn[b]]
        want += [(a, b, rnd) for a, b in hit]
        gone = {n for ab in hit for n in ab}
        alive = {ab: k for ab, k in alive.items() if not set(ab) & gone}
    assert sorted(out.itertuples(index=False, name=None)) == sorted(want)


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(6, 40, 70), (21, 300, 700)])
def test_boruvka_matches_serial_rounds(ray_session, seed, n_nodes,
                                       n_edges):
    """Each round selects every component's minimum outgoing edge and
    merges the components they join (a union-find replay)."""
    from pythongis_ray import graph
    from pythongis_ray import queries as q

    u, v = _undirected(seed, n_nodes, n_edges)
    got = graph.boruvka(_uv(u, v), q._edge_priority, rounds=3,
                        num_shards=3)
    ek = q._edge_priority(u, v).tolist()
    parent = {n: n for n in np.concatenate([u, v]).tolist()}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    want = []
    for rnd in range(1, 4):
        best = {}
        for a, b, k in zip(u.tolist(), v.tolist(), ek):
            ca, cb = find(a), find(b)
            if ca != cb:
                for c in (ca, cb):
                    best[c] = min(best.get(c, (k, a, b)), (k, a, b))
        if not best:
            break
        sel = sorted(set(best.values()))
        want += [(a, b, rnd) for _, a, b in sel]
        for _, a, b in sel:
            parent[find(a)] = find(b)
    assert sorted(got.itertuples(index=False, name=None)) == sorted(want)


# op -> (rounds of the full run, run(graph, edges, rounds, cdir)):
# the ops with round-level resume; each is still short of its fixed
# point after 2 rounds (ids as in ``_SHARD_OPS``)
_RESUME_OPS = {
    "pagerank_actors": (5, lambda g, e, r, d: g.pagerank(
        e, iters=r, checkpoint_dir=d)),
    "connected_components": (60, lambda g, e, r, d: g.connected_components(
        e, src="src", dst="dst", max_iters=r, checkpoint_dir=d)),
}


@pytest.mark.parametrize("op", sorted(_RESUME_OPS))
def test_kill_at_round_k_resumes_identically(ray_session, tmp_path, op):
    """A run stopped after round k leaves its checkpoint; re-running to
    the end with the same directory restores round k, runs only the
    rest, and returns exactly the uninterrupted run's table (values,
    dtypes and row order)."""
    import os

    import ray.data as rd

    from pythongis_ray import graph

    # a random graph with a 30-node chain hanging off node 0: the chain
    # keeps the component labels moving for many rounds
    rng = np.random.default_rng(8)
    src = np.concatenate([rng.integers(0, 120, 300), [0],
                          np.arange(1000, 1029)]).astype(np.int64)
    dst = np.concatenate([rng.integers(0, 120, 300), [1000],
                          np.arange(1001, 1030)]).astype(np.int64)

    def edges():
        return rd.from_arrow(pa.table({"src": pa.array(src),
                                       "dst": pa.array(dst)}))

    rounds, run = _RESUME_OPS[op]
    fdir = str(tmp_path / "full")
    full = run(graph, edges(), rounds, fdir).to_pandas()

    cdir = str(tmp_path / "killed")
    k = 2
    if op == "connected_components":
        with pytest.raises(RuntimeError, match="no convergence"):
            run(graph, edges(), k, cdir)
    else:
        run(graph, edges(), k, cdir)
    first = f"{cdir}/round_0001/shard_0.parquet"
    stamp = os.stat(first).st_mtime_ns
    assert os.path.exists(f"{cdir}/round_{k:04d}/_DONE")
    assert not os.path.exists(f"{cdir}/round_{k + 1:04d}")

    resumed = run(graph, edges(), rounds, cdir).to_pandas()
    assert os.path.exists(f"{cdir}/round_{k + 1:04d}/_DONE")
    assert os.stat(first).st_mtime_ns == stamp     # not re-run
    # a fixed point is reached in the same round as without the kill
    assert sorted(os.listdir(cdir)) == sorted(os.listdir(fdir))
    assert resumed.equals(full), op


def test_cc_checkpoint_resume(ray_session, tmp_path):
    """Kill-after-round-2 resume of connected components: a fresh
    call with the same checkpoint_dir restores the newest complete
    round and converges to the identical component table as an
    uninterrupted run."""
    import os

    import ray.data as rd

    from pythongis_ray import graph

    # chain of 40 + a cross edge: several propagation rounds needed
    edge_list = [(i, i + 1) for i in range(40)] + [(39, 2)]
    src = np.array([a for a, _ in edge_list], np.int64)
    dst = np.array([b for _, b in edge_list], np.int64)

    def edges():
        return rd.from_arrow(pa.table({"id_a": pa.array(src),
                                       "id_b": pa.array(dst)}))

    cdir = str(tmp_path / "cc_ckpt")
    # "crashed" run: capped at 2 rounds (far from convergence) —
    # the cap raises, but rounds 1-2 are durably checkpointed
    with pytest.raises(RuntimeError, match="no convergence"):
        graph.connected_components(edges(), max_iters=2,
                                   checkpoint_dir=cdir)
    assert os.path.exists(f"{cdir}/round_0002/_DONE")
    assert os.path.exists(f"{cdir}/round_0002/metrics.parquet")

    resumed = graph.connected_components(
        edges(), max_iters=50, checkpoint_dir=cdir).to_pandas()
    got = dict(zip(resumed["node"], resumed["component"]))
    assert got == _uf_components(edge_list)
    # per-round lineage metrics carry the change counts
    import pyarrow.parquet as pq
    m = pq.read_table(f"{cdir}/round_0001/metrics.parquet").to_pandas()
    assert (m["n_changed"].sum()) > 0


def test_cc_checkpoint_resume_after_convergence(ray_session, tmp_path):
    """Re-running with the same checkpoint_dir after the run already
    converged returns the identical table instead of raising — the
    zero-change round recorded in the metrics IS the fixed point."""
    import ray.data as rd

    from pythongis_ray import graph

    edge_list = [(1, 2), (2, 3), (7, 8)]
    src = np.array([a for a, _ in edge_list], np.int64)
    dst = np.array([b for _, b in edge_list], np.int64)

    def edges():
        return rd.from_arrow(pa.table({"id_a": pa.array(src),
                                       "id_b": pa.array(dst)}))

    cdir = str(tmp_path / "cc_ckpt_conv")
    first = graph.connected_components(
        edges(), max_iters=50, checkpoint_dir=cdir).to_pandas()
    import os
    import re
    last = max(int(re.search(r"(\d+)", d).group(1))
               for d in os.listdir(cdir) if d.startswith("round_"))
    # resume with max_iters == the converged round: must NOT raise
    again = graph.connected_components(
        edges(), max_iters=last, checkpoint_dir=cdir).to_pandas()
    a = dict(zip(first["node"], first["component"]))
    b = dict(zip(again["node"], again["component"]))
    assert a == b == _uf_components(edge_list)


@pytest.mark.parametrize("seed,n_nodes,n_edges,iters",
                         [(3, 40, 80, 6), (11, 250, 700, 10)])
def test_weighted_bfs_matches_serial_replay(ray_session, seed, n_nodes,
                                            n_edges, iters):
    """Weighted min-plus (SSSP Bellman-Ford rounds) is bit-identical
    to a serial synchronous replay with the same round cap and the
    same deterministic edge weight (src+dst) % wmod + 1."""
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    wmod = 5
    out = graph.bfs(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        seed_mod=7, iters=iters, num_shards=3, weight_mod=wmod) \
        .to_pandas().sort_values("node").reset_index(drop=True)

    INF = int(graph.BFS_INF)
    nodes = np.unique(np.concatenate([src, dst]))
    dist = {int(n): (0 if n % 7 == 0 else INF) for n in nodes}
    w = ((src + dst) % wmod + 1).tolist()
    for _ in range(iters):
        new = dict(dist)
        for s, d, wt in zip(src.tolist(), dst.tolist(), w):
            if dist[s] < INF:
                new[d] = min(new[d], dist[s] + wt)
        if new == dist:
            break
        dist = new
    assert out["node"].tolist() == sorted(dist)
    assert out["dist"].tolist() == [dist[n] for n in sorted(dist)]


def _tarjan_min_labels(src, dst):
    """Iterative Tarjan; label = min member id of each SCC."""
    adj = {}
    nodes = set()
    for s, d in zip(src.tolist(), dst.tolist()):
        adj.setdefault(s, []).append(d)
        nodes.add(s)
        nodes.add(d)
    index, low, onstk, stk = {}, {}, set(), []
    label, cnt = {}, [0]

    for start in nodes:
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = cnt[0]
                cnt[0] += 1
                stk.append(v)
                onstk.add(v)
            recurse = False
            nbrs = adj.get(v, [])
            for i in range(pi, len(nbrs)):
                w = nbrs[i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in onstk:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stk.pop()
                    onstk.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    label[w] = m
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return label


@pytest.mark.parametrize("seed,n_nodes,n_edges",
                         [(1, 25, 60), (8, 120, 420), (21, 60, 75)])
def test_scc_matches_tarjan(ray_session, seed, n_nodes, n_edges):
    """With caps covering the graph (inner/outer = n), every node is
    decided and scc(v) == min member of v's Tarjan SCC."""
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.scc(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        outer=n_nodes, inner=n_nodes, num_shards=3).to_pandas()
    got = dict(zip(out["node"], out["scc"]))
    exp = _tarjan_min_labels(src, dst)
    assert got == exp


def test_scc_capped_groups_are_strongly_connected(ray_session):
    """Under-capped rounds may leave nodes undecided (-1) or split a
    big SCC, but every emitted group must be a strongly connected
    SUBSET of one Tarjan SCC."""
    import ray.data as rd

    from pythongis_ray import graph

    # one big cycle 0→1→…→19→0 (diameter 19) + tail
    n = 20
    src = np.r_[np.arange(n), [25]].astype(np.int64)
    dst = np.r_[(np.arange(n) + 1) % n, [0]].astype(np.int64)
    out = graph.scc(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        outer=2, inner=4, num_shards=2).to_pandas()
    exp = _tarjan_min_labels(src, dst)
    for _, row in out.iterrows():
        if row["scc"] != -1:
            # same Tarjan component as the claimed root
            assert exp[int(row["node"])] == exp[int(row["scc"])]


def _brute_ktruss(pairs, k, rounds):
    """Simultaneous-round edge peeling on canonical (u<v) edge sets."""
    E = {(min(a, b), max(a, b)) for a, b in pairs if a != b}

    def support(E):
        s = {}
        Es = sorted(E)
        for a, b in Es:
            for x, c in Es:
                if x == b and (a, c) in E:        # a<b<c triangle
                    for e in ((a, b), (b, c), (a, c)):
                        s[e] = s.get(e, 0) + 1
        return s

    for _ in range(rounds):
        s = support(E)
        nE = {e for e in E if s.get(e, 0) >= k - 2}
        if nE == E:
            break
        E = nE
    return {e: s for e, s in support(E).items()}


def test_ktruss_matches_bruteforce(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from pythongis_ray import graph

    rng = np.random.default_rng(7)
    src = rng.integers(0, 30, 400)
    dst = rng.integers(0, 30, 400)
    ds = rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                 "dst": pa.array(dst, pa.int64())}))
    out = graph.ktruss(ds, k=4, max_rounds=4).to_pandas()
    got = {(int(r.u), int(r.v)): int(r.support) for r in out.itertuples()}
    exp = _brute_ktruss(zip(src.tolist(), dst.tolist()), 4, 4)
    assert got == exp


def test_ktruss_triangle_free_graph_empty(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from pythongis_ray import graph

    # a path graph has no triangles: every edge dies in round 1
    ds = rd.from_arrow(pa.table({"src": pa.array(range(9), pa.int64()),
                                 "dst": pa.array(range(1, 10), pa.int64())}))
    out = graph.ktruss(ds, k=3, max_rounds=2).to_pandas()
    assert len(out) == 0


def test_clustering_coefficient_bruteforce(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from itertools import combinations
    from pythongis_ray import graph

    rng = np.random.default_rng(11)
    src = rng.integers(0, 25, 300)
    dst = rng.integers(0, 25, 300)
    ds = rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                 "dst": pa.array(dst, pa.int64())}))
    out = graph.clustering_coefficient(ds).to_pandas()
    E = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
    adj = {}
    for a, b in E:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    exp = {}
    for n, nb in adj.items():
        if len(nb) < 2:
            continue
        tri = sum(1 for x, y in combinations(sorted(nb), 2)
                  if (min(x, y), max(x, y)) in E)
        d = len(nb)
        exp[n] = (tri, d, 2 * tri * 1_000_000 // (d * (d - 1)))
    got = {int(r.node): (int(r.tri), int(r.deg), int(r.cc_ppm))
           for r in out.itertuples()}
    assert got == exp


def test_multi_bfs_matches_single_runs(ray_session):
    """Vector-state landmark BFS must equal S independent BFS runs."""
    import ray.data as rd
    import pyarrow as pa
    from pythongis_ray import graph

    rng = np.random.default_rng(3)
    src = rng.integers(0, 40, 200)
    dst = rng.integers(0, 40, 200)
    t = pa.table({"src": pa.array(src, pa.int64()),
                  "dst": pa.array(dst, pa.int64())})
    multi = graph.multi_bfs(rd.from_arrow(t), seed_mod=7,
                            n_landmarks=3, iters=6).to_pandas() \
        .set_index("node").sort_index()
    # brute force per landmark
    adj = {}
    for a, b in zip(src.tolist(), dst.tolist()):
        adj.setdefault(a, set()).add(b)
    nodes = sorted(set(src.tolist()) | set(dst.tolist()))
    INF = int(graph.BFS_INF)
    for l in range(3):
        dist = {n: (0 if n % 7 == l else INF) for n in nodes}
        for _ in range(6):
            nd = dict(dist)
            for u, vs in adj.items():
                if dist[u] < INF:
                    for v in vs:
                        nd[v] = min(nd[v], dist[u] + 1)
            dist = nd
        got = multi[f"d{l}"].to_dict()
        assert got == dist


def test_two_hop_bruteforce(ray_session):
    import pandas as pd
    from pythongis_ray.queries import q_two_hop

    SF = "/root/testdata/sf0.001"
    out = q_two_hop(SF).to_pandas().set_index("node")["two_hop"].to_dict()
    ids = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"]) \
        .doc_id.astype(int).tolist()
    E = set()
    for d in ids:
        for k in (2, 4, 8):
            E.add((d, d // k))
    adj = {}
    for a, b in E:
        adj.setdefault(a, set()).add(b)
    exp = {}
    for u in adj:
        ws = set()
        for v in adj[u]:
            ws |= adj.get(v, set())
        if ws:
            exp[u] = len(ws)
    assert out == exp


def test_ann_recall_consistent(ray_session):
    from pythongis_ray.queries import q_ann_recall

    out = q_ann_recall("/root/testdata/sf0.001")
    assert (out.recall_pct == out.n_hit * 20).all()
    assert out.n_hit.between(0, 5).all()
    assert len(out) == 8


def test_modularity_invariants(ray_session):
    from pythongis_ray.queries import q_modularity

    SF = "/root/testdata/sf0.001"
    out = q_modularity(SF).to_pandas()
    # degree mass sums to 2m over all communities; e_in <= m
    import pandas as pd

    ids = pd.read_parquet(f"{SF}/documents.parquet",
                          columns=["doc_id"]).doc_id.astype(int)
    E = {(min(d, d // k), max(d, d // k))
         for d in ids for k in (2, 4, 8) if d != d // k}
    m = len(E)
    assert out.d_sum.sum() == 2 * m
    assert out.e_in.sum() <= m
    assert (out.q_contrib == 4 * m * out.e_in - out.d_sum ** 2).all()
    # modularity Q = sum/4m^2 must be in [-1, 1]
    q = out.q_contrib.sum() / (4 * m * m)
    assert -1.0 <= q <= 1.0


def test_good_turing_bruteforce(ray_session):
    import pandas as pd
    from collections import Counter
    from pythongis_ray.queries import q_good_turing

    SF = "/root/testdata/sf0.001"
    out = q_good_turing(SF).to_pandas().set_index("r")
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    c = Counter(w for t in pdf.text for w in t.split(" "))
    coc = Counter(c.values())
    for r in range(1, 11):
        assert out.loc[r, "n_r"] == coc.get(r, 0)
        assert out.loc[r, "gt_num"] == (r + 1) * coc.get(r + 1, 0)


def _temporal_reference(src, dst, seed_mod, tmod, iters):
    """Serial earliest-arrival replay of graph.bfs temporal mode."""
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    ea = np.where(nodes % seed_mod == 0, np.int64(0),
                  np.int64(1) << 40)
    t = (src + dst) % tmod
    si = np.array([idx[int(s)] for s in src])
    di = np.array([idx[int(d)] for d in dst])
    for _ in range(iters):
        new = ea.copy()
        ok = (ea[si] < (1 << 40)) & (t >= ea[si])
        np.minimum.at(new, di[ok], t[ok])
        ea = new
    return nodes, ea


@pytest.mark.parametrize("seed,n_nodes,n_edges,iters",
                         [(3, 50, 120, 5), (11, 300, 900, 8)])
def test_temporal_bfs_matches_serial(ray_session, seed, n_nodes,
                                     n_edges, iters):
    """Temporal mode (earliest arrival, edge usable only at
    t >= arrival(src), arrival = edge time) is bit-identical to the
    serial synchronous replay for any sharding."""
    import ray.data as rd

    from pythongis_ray import graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    out = graph.bfs(
        rd.from_arrow(pa.table({"src": pa.array(src),
                         "dst": pa.array(dst)})),
        seed_mod=7, iters=iters, num_shards=3,
        temporal_mod=16).to_pandas()
    out = out.sort_values("node").reset_index(drop=True)
    nodes, ea = _temporal_reference(src, dst, 7, 16, iters)
    assert out["node"].to_numpy().tolist() == nodes.tolist()
    assert out["dist"].to_numpy().tolist() == ea.tolist()


def test_temporal_bfs_respects_time_order(ray_session):
    """On the chain 0→1→2 with edge times t(0,1)=(0+1)%16=1 and
    t(1,2)=(1+2)%16=3 ≥ 1, node 2 is reached at time 3; with
    temporal_mod=2 the second edge's time (3%2=1) equals arrival 1,
    still passable."""
    import ray.data as rd

    from pythongis_ray import graph

    edges = pa.table({"src": pa.array(np.array([0, 1], np.int64)),
                      "dst": pa.array(np.array([1, 2], np.int64))})
    out = graph.bfs(rd.from_arrow(edges), seed_mod=1000,
                    iters=4, num_shards=2,
                    temporal_mod=16).to_pandas()
    got = dict(zip(out["node"], out["dist"]))
    assert got[0] == 0 and got[1] == 1 and got[2] == 3


def test_pagerank_trace(ray_session):
    """The per-round mass tables of a PageRank trace are runs of
    ``graph.pagerank`` with 0, 1, ... rounds: ``iters=0`` is the
    initial mass, and ``iters=1`` matches a hand replay of round 1."""
    import pandas as pd
    import ray.data as rd
    from pythongis_ray import graph

    e = pd.DataFrame({"src": [0, 1, 2, 2], "dst": [1, 2, 0, 1]})
    m0 = graph.pagerank(rd.from_pandas(e), iters=0).to_pandas()
    assert sorted(m0["node"]) == [0, 1, 2]
    assert (m0["mass"] == 1_000_000).all()
    # replay round 1 by hand: contributions (85*m)//(100*od)
    od = e.groupby("src").size()
    m1 = graph.pagerank(rd.from_pandas(e), iters=1).to_pandas() \
        .set_index("node")["mass"]
    for v in (0, 1, 2):
        contrib = sum((85 * 1_000_000) // (100 * od[u])
                      for u, w in zip(e.src, e.dst) if w == v)
        assert m1[v] == 150_000 + contrib


def test_cluster_sizes_consistency(ray_session):
    from pythongis_ray.queries import (q_cluster_sizes,
                                       q_dedup_components)

    SF = "/root/testdata/sf0.001"
    hist = q_cluster_sizes(SF)
    comp = q_dedup_components(SF).to_pandas()
    sizes = comp.groupby("component").size().value_counts()
    assert dict(zip(hist["size"], hist.n_clusters)) \
        == {int(k): int(v) for k, v in sizes.items()}
    # total docs in clusters match
    assert (hist["size"] * hist.n_clusters).sum() == len(comp)


def test_bowtie_structure(ray_session):
    from pythongis_ray.queries import q_bowtie, q_scc_hosts

    SF = "/root/testdata/sf0.001"
    bt = q_bowtie(SF).to_pandas().set_index("node")
    scc = q_scc_hosts(SF).to_pandas()
    # core = largest SCC (ties to smallest label)
    sz = scc[scc.scc >= 0].groupby("scc").size().reset_index(name="c")
    giant = int(sz.sort_values(["c", "scc"],
                               ascending=[False, True]).iloc[0].scc)
    core = set(scc[scc.scc == giant].node)
    assert set(bt[bt.klass == "core"].index) == core
    # classes partition all nodes
    assert set(bt.klass) <= {"core", "in", "out", "other"}
    assert len(bt) == scc.node.nunique()
    # brute reachability on the host edge set
    import pandas as pd
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id"])
    edges = set()
    for d in docs.doc_id:
        for k in (2, 4, 8):
            edges.add((d % 50, (d // k) % 50))
    fwd = {}
    for s, t in edges:
        fwd.setdefault(s, set()).add(t)
    to_core = set(core)
    for _ in range(8):
        to_core |= {s for s, t in edges if t in to_core}
    from_core = set(core)
    for _ in range(8):
        from_core |= {t for s, t in edges if s in from_core}
    for node, r in bt.iterrows():
        if node in core:
            want = "core"
        elif node in to_core:
            want = "in"
        elif node in from_core:
            want = "out"
        else:
            want = "other"
        assert r.klass == want, (node, r.klass, want)


def test_canonical_docs_without_near_dups(ray_session, tmp_path):
    """A corpus with no near-duplicate pair has no cluster: zero rows,
    not an error from the empty component table."""
    import pandas as pd

    from pythongis_ray.queries import q_canonical_docs

    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet").head(3)
    docs["text"] = ["alpha beta gamma delta epsilon zeta",
                    "one two three four five six seven",
                    "red green blue cyan magenta yellow black"]
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    assert q_canonical_docs(str(tmp_path)).count() == 0


def test_knn_degree_bruteforce(ray_session):
    import pandas as pd
    from pythongis_ray.queries import q_knn_degree

    SF = "/root/testdata/sf0.001"
    got = q_knn_degree(SF).set_index("k")
    d = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    edges = set()
    for i in d.doc_id:
        for k in (2, 4, 8):
            edges.add((int(i) % 50, (int(i) // k) % 50))
    od = {}
    for s, t in edges:
        od[s] = od.get(s, 0) + 1
    want = {}
    for s, t in edges:
        if t not in od:
            continue
        n, tot = want.get(od[s], (0, 0))
        want[od[s]] = (n + 1, tot + od[t])
    assert len(got) == len(want)
    for k, (n, tot) in want.items():
        r = got.loc[k]
        assert (r.n_edges, r.sum_nbr_deg) == (n, tot)
        assert r.knn_ppm == 10**6 * tot // n


def test_bipartite_check_bruteforce(ray_session):
    import pandas as pd
    from pythongis_ray.queries import q_bipartite_check

    SF = "/root/testdata/sf0.001"
    r = q_bipartite_check(SF).iloc[0]
    d = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    edges = set()
    nodes = set()
    for i in d.doc_id:
        for k in (2, 4, 8):
            edges.add((int(i), int(i) // k))
            nodes.add(int(i))
            nodes.add(int(i) // k)
    INF = 1 << 40
    # synchronous bounded-round BFS, matching the engine's 8 rounds
    dist = {n: (0 if n % 97 == 0 else INF) for n in nodes}
    for _ in range(8):
        nxt = dict(dist)
        for s, t in edges:
            if dist[s] + 1 < nxt[t]:
                nxt[t] = dist[s] + 1
        dist = nxt
    checked = [(s, t) for s, t in edges
               if s != t and dist[s] < INF and dist[t] < INF]
    conf = sum(1 for s, t in checked
               if dist[s] % 2 == dist[t] % 2)
    assert (r.n_checked, r.n_conflict) == (len(checked), conf)
    assert r.n_unreached == sum(1 for n in nodes if dist[n] >= INF)
    assert r.is_bipartite == (1 if conf == 0 else 0)
