import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from pythongis_ray import relational as rel

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def lineitem(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/lineitem.parquet")


def test_groupby_aggregate_algebraic(ray_session, lineitem):
    out = rel.groupby_aggregate(
        lineitem, ["l_returnflag", "l_linestatus"],
        [("sum_qty", "l_quantity", "sum"),
         ("cnt", "l_orderkey", "count"),
         ("min_qty", "l_quantity", "min"),
         ("max_qty", "l_quantity", "max"),
         ("avg_qty", "l_quantity", "mean")],
    ).to_pandas().sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    pdf = pd.read_parquet(f"{SF}/lineitem.parquet")
    exp = (pdf.groupby(["l_returnflag", "l_linestatus"])
           .agg(sum_qty=("l_quantity", "sum"), cnt=("l_orderkey", "count"),
                min_qty=("l_quantity", "min"), max_qty=("l_quantity", "max"))
           .reset_index().sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True))
    exp["avg_qty"] = exp.sum_qty / exp.cnt
    pd.testing.assert_frame_equal(
        out[exp.columns.tolist()].astype({"cnt": np.int64}), exp.astype({"cnt": np.int64}))

    # the contract queries rely on: int64 values stay int64 across the
    # per-block partial and the combine, and null keys form one group
    import ray.data as rd

    blocks = [pa.table({"k": pa.array(k, pa.int64()), "v": pa.array(v, pa.int64())})
              for k, v in (([1, None, 2], [5, 7, 1]), ([None, 1], [3, 9]),
                           ([2, 2, None], [4, 6, 2]))]
    got = rel.groupby_aggregate(
        rd.from_arrow(blocks), ["k"],
        [("s", "v", "sum"), ("mn", "v", "min"), ("mx", "v", "max"),
         ("n", None, "count")]).to_pandas()
    assert got[["s", "mn", "mx", "n"]].dtypes.tolist() == [np.dtype(np.int64)] * 4
    null = got[got["k"].isna()]
    assert len(got) == 3 and len(null) == 1
    assert null[["s", "mn", "mx", "n"]].iloc[0].tolist() == [12, 2, 7, 3]


def test_groupby_aggregate_holistic(ray_session):
    import ray.data as rd

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b"],
        "ord": [3, 1, 2, 10, 9],
        "v": [5.0, 7.0, 5.0, None, 4.0],
        "s": ["x", "y", "x", "z", "z"],
    })
    out = rel.groupby_aggregate(
        rd.from_pandas(df), "k",
        [("first_v", "v", "first"), ("last_v", "v", "last"),
         ("maj_s", "s", "majority"), ("min_s", "s", "minority"),
         ("cat_s", "s", "concat:|")],
        order_col="ord",
    ).to_pandas().sort_values("k").reset_index(drop=True)
    a = out[out.k == "a"].iloc[0]
    assert a.first_v == 7.0  # ord=1 row
    assert a.last_v == 5.0   # ord=3 row
    assert a.maj_s == "x" and a.min_s == "y"
    assert a.cat_s == "y|x|x"
    b = out[out.k == "b"].iloc[0]
    assert b.first_v == 4.0  # None dropped
    assert b.maj_s == "z"


def test_all_missing_group_sum_is_null(ray_session):
    """SQL SUM semantics on BOTH aggregate paths: a group whose values
    are all missing yields NULL, not 0 (round-1 advisor: the partial
    combine used pandas' default min_count=0)."""
    import ray.data as rd

    df = pd.DataFrame({"k": ["a", "a", "b", "b"],
                       "v": [1.0, 2.0, None, None]})
    out = rel.groupby_aggregate(rd.from_pandas(df), "k",
                                [("s", "v", "sum")]) \
        .to_pandas().set_index("k")
    assert out.loc["a", "s"] == 3.0
    assert pd.isna(out.loc["b", "s"])


def test_multi_column_order_col(ray_session):
    """order_col as a list: (ts, id) pair ordering without a derived
    combined key (which can overflow int64)."""
    import ray.data as rd

    big = 1_700_000_000_000_000  # epoch-us scale, like the events table
    df = pd.DataFrame({
        "k": ["a"] * 4,
        "ts": [big, big, big + 1, big + 1],
        "id": [2, 1, 2, 1],
        "v": [10.0, 20.0, 30.0, 40.0],
    })
    out = rel.groupby_aggregate(
        rd.from_pandas(df), "k",
        [("first_v", "v", "first"), ("last_v", "v", "last")],
        order_col=["ts", "id"]).to_pandas().iloc[0]
    assert out.first_v == 20.0  # (big, 1)
    assert out.last_v == 30.0   # (big+1, 2)


def test_majority_tiebreak_smallest(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"k": [1, 1, 1, 1], "v": ["b", "a", "a", "b"], "o": range(4)})
    out = rel.groupby_aggregate(rd.from_pandas(df), "k",
                                [("m", "v", "majority")], order_col="o").to_pandas()
    assert out.m.iloc[0] == "a"


def test_hash_join_broadcast(ray_session):
    import ray.data as rd

    orders = rd.read_parquet(f"{SF}/orders.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    out = rel.hash_join(orders, cust, on="o_custkey_join", how="inner") \
        if False else None
    # join on differing key names → pre-rename
    cust2 = cust.rename(columns={"c_custkey": "o_custkey"})
    out = rel.hash_join(orders, cust2[["o_custkey", "c_mktsegment"]],
                        on="o_custkey").to_pandas()
    exp = pd.read_parquet(f"{SF}/orders.parquet").merge(
        cust2[["o_custkey", "c_mktsegment"]], on="o_custkey")
    assert len(out) == len(exp)
    assert out.c_mktsegment.value_counts().to_dict() == exp.c_mktsegment.value_counts().to_dict()


def test_join_large_matches_broadcast(ray_session):
    import ray.data as rd

    orders = rd.read_parquet(f"{SF}/orders.parquet")
    cust_pd = pd.read_parquet(f"{SF}/customer.parquet").rename(
        columns={"c_custkey": "o_custkey"})[["o_custkey", "c_acctbal"]]
    bc = rel.hash_join(orders, cust_pd, on="o_custkey").to_pandas()
    lg = rel.join_large(orders, rd.from_pandas(cust_pd), on="o_custkey").to_pandas()
    k = lambda d: sorted(zip(d.o_orderkey.astype(int), d.c_acctbal.round(2)))
    assert k(bc) == k(lg)

    # each case: join_large == pandas merge of the right side without
    # its non-key columns that the left side also has
    rng = np.random.default_rng(3)
    n = 400
    left = pd.DataFrame({
        "k": rng.integers(-60, 60, n).astype(np.int64),
        "k2": rng.integers(0, 3, n).astype(np.int64),
        "x": np.arange(n, dtype=np.int64),
        "flag": np.arange(n) % 3 == 0})
    right = pd.DataFrame({"k": np.arange(-40, 40, dtype=np.int64),
                          "y": np.arange(80, dtype=np.float64) * 1.5})
    right2 = pd.DataFrame({
        "k": np.repeat(np.arange(-30, 30, dtype=np.int64), 2),
        "k2": np.tile(np.array([0, 2], np.int64), 60),
        "y": np.arange(120, dtype=np.float64)})
    no_groups = rel.bucketed_group_apply(
        rd.from_pandas(right).filter(lambda r: False), ["k"], lambda b: b)
    empty = rel.with_empty_schema(no_groups, pa.schema(
        [("k", pa.int64()), ("y", pa.float64())]))
    cases = [
        ("inner", right, ["k"]),
        ("left", right, ["k"]),
        ("inner", right2, ["k", "k2"]),
        ("left", right2, ["k", "k2"]),
        # overlapping non-key column: the right side's x is dropped
        ("inner", right.assign(x=np.int64(-1)), ["k"]),
        ("inner", right.iloc[:0], ["k"]),
        ("left", right.iloc[:0], ["k"]),
        # int32 right key (negative values) against an int64 left key;
        # more rows than one bucketing batch, so the sides hash apart
        ("inner", pd.DataFrame({
            "k": np.arange(-20000, 20000, dtype=np.int32),
            "y": np.arange(40000, dtype=np.float64)}), ["k"]),
        # the right side lacks left keys -60..-41 and 40..59: the left's
        # int64 and bool columns keep their dtypes (checked for every
        # case below), with no typed pad to rely on
        ("left", right.iloc[::2], ["k"]),
        # an UNGUARDED exchange output with no rows and no columns
        ("inner", right.iloc[:0], ["k"], no_groups),
    ]
    for how, rpd, on, *rds in cases:
        # an empty right side is a schema-less grouped output, guarded
        # unless the case names its Dataset
        rds = rds[0] if rds else \
            empty if rpd.empty else rd.from_pandas(rpd)
        got = rel.join_large(rd.from_pandas(left), rds, on=on if len(on) > 1
                             else on[0], how=how).to_pandas()
        exp = left.merge(rpd.drop(columns=[c for c in rpd.columns
                                           if c in left.columns
                                           and c not in on]),
                         on=on, how=how)
        if exp.empty:
            # to_pandas drops the schema of an all-empty result
            assert len(got) == 0, (how, on)
            continue
        assert sorted(got.columns) == sorted(exp.columns), (how, on)
        assert all(got[c].dtype == exp[c].dtype for c in left.columns), \
            (how, on, got.dtypes)
        cols = sorted(exp.columns)
        canon = lambda d: d[cols].astype(np.float64) \
            .sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(canon(got), canon(exp))


def test_joins_run_no_schema_peek(ray_session, monkeypatch):
    """``join_large`` chained on its own output, ``asof_join`` and
    ``interval_join`` over lazy ``map_batches`` inputs run no ``limit=1``
    schema peek, counted from the plans the streaming executor runs:
    the joins read no schema, so each input's plan runs once, in the
    exchange that splits it."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    plans = []
    execute = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        ops, todo = {}, [dag]
        while todo:
            op = todo.pop()
            ops[id(op)] = op
            todo.extend(op.input_dependencies)
        plans.append(list(ops.values()))
        return execute(self, dag, *args, **kwargs)

    def lazy(df):
        return rd.from_pandas(df).map_batches(lambda b: b,
                                              batch_format="pandas")

    a = pd.DataFrame({"k": np.arange(30, dtype=np.int64) % 7,
                      "t": np.arange(30, dtype=np.int64),
                      "x": np.arange(30, dtype=np.int64)})
    b = pd.DataFrame({"k": np.arange(5, dtype=np.int64),
                      "y": np.arange(5, dtype=np.float64)})
    c = pd.DataFrame({"k": np.arange(3, 7, dtype=np.int64),
                      "z": np.arange(4, dtype=np.int64)})
    r = pd.DataFrame({"k": np.arange(6, dtype=np.int64),
                      "s": np.arange(6, dtype=np.int64) * 3,
                      "e": np.arange(6, dtype=np.int64) * 3 + 9,
                      "v": np.arange(6, dtype=np.int64) + 100})
    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    abc = rel.join_large(rel.join_large(lazy(a), lazy(b), on="k"),
                         lazy(c), on="k").to_pandas()
    asof = rel.asof_join(lazy(a), lazy(r), left_on="t", right_on="s",
                         left_by="k", right_by="k", right_cols=["v"],
                         how="inner").to_pandas()
    iv = rel.interval_join(lazy(a), lazy(r), left_by="k", right_by="k",
                           left_time="t", right_start="s", right_end="e",
                           right_cols=["v"]).to_pandas()
    peeks = sum(any(type(op).__name__ == "LimitOperator"
                    and op._limit == 1 for op in ops) for ops in plans)
    assert peeks == 0
    assert sorted(abc["x"]) == sorted(a.merge(b).merge(c)["x"])
    m = a.merge(r, on="k")
    assert sorted(iv["x"]) == sorted(m.loc[(m.t >= m.s) & (m.t < m.e), "x"])
    assert sorted(asof["x"]) == sorted(m.loc[m.t >= m.s, "x"].unique())


def test_hash_join_collapse_matches_groupby_aggregate(ray_session):
    """The collapse fusion aggregates the right side with the same
    kernel as groupby_aggregate before attaching it."""
    import ray.data as rd

    left = pd.DataFrame({"k": [1, 2, 3, 4], "name": list("abcd")})
    # k=2 is an all-missing group; k=5 has no left row
    right = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 3, 3, 5],
        "v": [1.0, 2.0, 2.0, None, None, 4.0, 5.0, 6.0],
        "s": ["p", "q", "q", None, None, "y", "x", "z"],
        "ord": range(8)})
    specs = [("n", "v", "count"), ("tot", "v", "sum"),
             ("maj", "s", "majority"), ("cat", "s", "concat:|")]
    got = rel.hash_join(rd.from_pandas(left), right, on="k",
                        collapse=specs).to_pandas()
    # collapse concats in the right frame's row order; after the
    # shuffle, groupby_aggregate needs that order spelled out
    agg = rel.groupby_aggregate(rd.from_pandas(right), "k", specs,
                                order_col="ord").to_pandas()
    exp = left.merge(agg, on="k")

    def rows(d):
        d = d[["k", "name", "n", "tot", "maj", "cat"]].sort_values("k")
        return [[None if pd.isna(v) else v for v in r]
                for r in d.itertuples(index=False)]

    assert rows(got) == rows(exp)
    assert rows(got) == [[1, "a", 3, 5.0, "q", "p|q|q"],
                         [2, "b", 0, None, None, ""],
                         [3, "c", 2, 9.0, "x", "y|x"]]


def test_bucketed_shuffle_ignores_global_hash_shuffle(ray_session, tmp_path):
    """No grouped shuffle follows the global shuffle strategy
    (group_apply pins the sort shuffle; bucketed_group_apply's hash
    exchange is plain Ray tasks, not a Ray Data shuffle): under a
    global HASH_SHUFFLE, one caller per module
    returns the same rows as under the default strategy (and
    groupby_aggregate / join_large still equal pandas), and no
    hash-shuffle aggregator actor starts."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray._private import state
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from pythongis_ray import checkpoint, embed, fixtures, grid, spatial

    def aggregators():
        return sum("HashShuffleAggregator" in a["ActorClassName"]
                   for a in state.actors().values())

    df = pd.DataFrame({"k": np.arange(200, dtype=np.int64) % 7,
                       "v": np.arange(200, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(5, dtype=np.int64),
                          "w": np.arange(5, dtype=np.int64) * 10})
    rng = np.random.default_rng(5)
    xy = pd.DataFrame({"id": np.arange(300, dtype=np.int64),
                       "x": rng.integers(0, 40, 300),
                       "y": rng.integers(0, 40, 300)})
    # points with hot cells: rows_per_task=20 gives a non-empty salt plan
    key = np.arange(800, dtype=np.int64) * 11 + 3
    lon, lat = fixtures.units_to_deg(*fixtures.geocode_units(key))
    pts = pd.DataFrame({"pid": key, "lon": lon, "lat": lat})
    _, n = np.unique(grid.point_to_cell(lon, lat, spatial.DEFAULT_INDEX_RES),
                     return_counts=True)
    assert (n > 20).any()
    nation = pq.read_table(f"{SF}/nation.parquet").to_pandas()
    zones = fixtures.zones_from_nation(nation)[["zone_id", "geometry"]]
    emb = pa.table({"label": pa.array(np.arange(60) % 4, pa.int64()),
                    "embedding": pa.array(
                        rng.integers(-9, 9, (60, 3)).astype(float).tolist(),
                        pa.list_(pa.float64()))})

    def written(name):
        def run():
            out = str(tmp_path / name)
            m = checkpoint.write_partitioned(rd.from_pandas(df), out, "v", 8)
            return pd.concat([m[["partition", "rows"]],
                              pd.read_parquet(out)[["k", "v"]]])
        return run

    cases = {
        "skyline": lambda: rel.skyline(rd.from_pandas(xy), "x", "y"),
        "add_global_rank": lambda: rel.add_global_rank(
            rd.from_pandas(xy), ["x", "id"], num_buckets=4),
        "spatial_join_shuffle": lambda: spatial.spatial_join_shuffle(
            rd.from_pandas(pts), rd.from_pandas(zones), predicate="within",
            num_buckets=8, rows_per_task=20),
        "label_centroids": lambda: embed.label_centroids(rd.from_arrow(emb)),
        "gather": lambda: rel.group_apply(
            rd.from_pandas(df), None,
            lambda g: pd.DataFrame({"n": [len(g)], "s": [g["v"].sum()]})),
    }

    def frame(out):
        out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return out.astype(str).sort_values(list(out.columns)) \
            .reset_index(drop=True)

    want = {c: frame(f()) for c, f in cases.items()}
    want["write_partitioned"] = frame(written("sort")())
    cases["write_partitioned"] = written("hash")
    ctx = DataContext.get_current()
    prev = ctx.shuffle_strategy
    before = aggregators()
    try:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        agg = rel.groupby_aggregate(rd.from_pandas(df), "k",
                                    [("s", "v", "sum")]).to_pandas()
        joined = rel.join_large(rd.from_pandas(df), rd.from_pandas(right),
                                on="k").to_pandas()
        got = {c: frame(f()) for c, f in cases.items()}
        assert ctx.shuffle_strategy == ShuffleStrategy.HASH_SHUFFLE
    finally:
        ctx.shuffle_strategy = prev
    exp = df.groupby("k", as_index=False)["v"].sum().rename(
        columns={"v": "s"})
    pd.testing.assert_frame_equal(
        agg.sort_values("k").reset_index(drop=True)[["k", "s"]], exp,
        check_dtype=False)
    ej = df.merge(right, on="k").sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        joined[ej.columns].sort_values("v").reset_index(drop=True), ej,
        check_dtype=False)
    for c in want:
        assert len(want[c]) > 0, c
        pd.testing.assert_frame_equal(got[c], want[c], obj=c)
    assert aggregators() == before


def test_one_grouped_shuffle_entry_point():
    """relational.group_apply is the package's only map_groups call; no
    sort on a ``_bucket`` key remains, and ``_exchange_split`` (the
    split of ``bucketed_group_apply``'s hash exchange) is the only
    function that routes rows to hash buckets, i.e. reduces a
    ``hash_pandas_object`` hash ``% np.uint64(...)``; no hand-rolled
    one-group gather (constant ``_one`` key or ``repartition(1)``)
    remains. No package function hands ``bucketed_group_apply`` a
    ``.union(...)`` of its inputs (directly, in its input list, or
    through a name the function assigns from one): inputs that meet in
    one exchange are its input list, one frame each per part, never
    side-tagged rows of a union."""
    import ast
    import pathlib

    import pythongis_ray

    # "module.py:function:input" -> why that union may reach an exchange
    exempt: dict[str, str] = {}

    def is_union(n):
        return isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "union"

    root = pathlib.Path(pythongis_ray.__file__).parent
    found = {"map_groups": [], "_bucket": [], "_one=": [],
             "repartition(1)": []}
    routers, unions = [], []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text()
        for fn in ast.parse(src).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            named = {t.id for a in ast.walk(fn) if isinstance(a, ast.Assign)
                     and any(map(is_union, ast.walk(a.value)))
                     for t in a.targets if isinstance(t, ast.Name)}
            for c in ast.walk(fn):
                if not (isinstance(c, ast.Call) and c.args and getattr(
                        c.func, "attr", getattr(c.func, "id", None))
                        == "bucketed_group_apply"):
                    continue
                x = c.args[0]
                for x in x.elts if isinstance(x, (ast.List, ast.Tuple)) else [x]:
                    if any(map(is_union, ast.walk(x))) or \
                            (isinstance(x, ast.Name) and x.id in named):
                        unions.append(f"{path.relative_to(root)}:{fn.name}:"
                                      f"{ast.unparse(x)}")
        for i, line in enumerate(src.splitlines(), 1):
            for pat, hits in (("map_groups(", found["map_groups"]),
                              ('sort("_bucket"', found["_bucket"]),
                              ("sort('_bucket'", found["_bucket"]),
                              ("_one=", found["_one="]),
                              ("repartition(1)", found["repartition(1)"])):
                if pat in line:
                    hits.append(f"{path.relative_to(root)}:{i}")
        for fn in ast.walk(ast.parse(src)):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            hashes = any(isinstance(c, ast.Call) and getattr(
                c.func, "attr", None) == "hash_pandas_object"
                for c in ast.walk(fn))
            mods = any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mod)
                       and isinstance(b.right, ast.Call)
                       and getattr(b.right.func, "attr", None) == "uint64"
                       for b in ast.walk(fn))
            if hashes and mods:
                routers.append(f"{path.relative_to(root)}:"
                               f"{getattr(fn, 'name', '<lambda>')}")
    assert len(found["map_groups"]) == 1, found["map_groups"]
    assert found["map_groups"][0].startswith("relational.py:")
    assert found["_bucket"] == []
    assert routers == ["relational.py:_exchange_split"], routers
    assert found["_one="] == [] and found["repartition(1)"] == []
    assert [u for u in unions if u not in exempt] == [], unions


def test_keyed_reaggregation_uses_groupby_aggregate():
    """No kernel that ``queries.py`` passes to ``bucketed_group_apply``
    only re-aggregates its bucket by that call's keys with
    sum/min/max/size (or an ``agg`` of those): such a combine is
    ``rel.groupby_aggregate`` over a row-level derive map, whose
    per-batch partial and bucketed combine are the engine's own."""
    import ast
    import pathlib

    import pythongis_ray

    # sums over one column per embedding dimension: the column names
    # are known only from the data, so no spec list can name them
    kept = {"q_label_compact"}
    reductions = {"sum", "min", "max", "size"}

    def keys_of(node, env):
        node = env.get(node.id, node) if isinstance(node, ast.Name) else node
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) for e in node.elts):
            return [e.value for e in node.elts]
        return None

    def reaggregates(fn, keys, env):
        # every groupby is the bucket frame's own, by the bucket keys,
        # and the frame is used for nothing else
        param = fn.args.args[0].arg
        uses = [n for n in ast.walk(fn)
                if isinstance(n, ast.Name) and n.id == param]
        grouped, names = [], set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "groupby":
                if not (n.args and keys_of(n.args[0], env) == keys
                        and isinstance(n.func.value, ast.Name)
                        and n.func.value.id == param):
                    return False
                grouped.append(n)
            elif isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name):
                v = n.value
                while isinstance(v, ast.Subscript):
                    v = v.value
                if isinstance(v, ast.Call) and getattr(v.func, "attr", "") == "groupby":
                    names.add(n.targets[0].id)
        if not grouped or len(uses) != len(grouped):
            return False

        def on_group(v):
            while isinstance(v, ast.Subscript):
                v = v.value
            return any(v is g for g in grouped) or (
                isinstance(v, ast.Name) and v.id in names)

        stats = []
        for n in ast.walk(fn):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and on_group(n.func.value):
                if n.func.attr not in ("agg", "aggregate"):
                    stats.append(n.func.attr)
                    continue
                for v in n.args + [k.value for k in n.keywords]:
                    if isinstance(v, ast.Tuple) and len(v.elts) == 2:
                        v = v.elts[1]
                    stats.append(v.value if isinstance(v, ast.Constant) else None)
        return bool(stats) and set(stats) <= reductions

    path = pathlib.Path(pythongis_ray.__file__).parent / "queries.py"
    body = ast.parse(path.read_text()).body
    module_fns = {n.name: n for n in body if isinstance(n, ast.FunctionDef)}
    found = []
    for top in body:
        if not isinstance(top, ast.FunctionDef) or top.name in kept:
            continue
        defs = dict(module_fns)
        for n in ast.walk(top):
            if isinstance(n, ast.FunctionDef) and n is not top:
                defs[n.name] = n
            elif isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda) \
                    and isinstance(n.targets[0], ast.Name):
                defs[n.targets[0].id] = n.value
        for c in ast.walk(top):
            if not (isinstance(c, ast.Call) and len(c.args) >= 3 and getattr(
                    c.func, "attr", getattr(c.func, "id", "")) == "bucketed_group_apply"):
                continue
            fn, env = c.args[2], {}
            if isinstance(fn, ast.Call) and getattr(fn.func, "id", "") in defs:
                # a kernel factory: bind its arguments, scan what it returns
                factory = defs[fn.func.id]
                env = {a.arg: v for a, v in zip(factory.args.args, fn.args)}
                fn = next((n for n in factory.body
                           if isinstance(n, ast.FunctionDef)), None)
            elif isinstance(fn, ast.Name):
                fn = defs.get(fn.id)
            elif not isinstance(fn, ast.Lambda):
                fn = None
            keys = keys_of(c.args[1], {})
            if keys and fn is not None and reaggregates(fn, keys, env):
                found.append(f"queries.py:{c.lineno} {top.name}")
    assert found == [], found


def test_no_duplicate_nested_kernels():
    """No two nested functions inside the package's module-level
    functions are AST-identical (names aside) within a module: a kernel
    several functions share is one module-level function. A closure
    counts as a copy of another when its code is identical and it
    closes over the same names: the closed-over values become
    arguments of the shared kernel."""
    import ast
    import pathlib
    import symtable

    import pythongis_ray

    root = pathlib.Path(pythongis_ray.__file__).parent
    dups = []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text()
        frees, tables = {}, [symtable.symtable(src, str(path), "exec")]
        while tables:
            for t in tables.pop().get_children():
                if t.get_type() == "function":
                    frees[(t.get_lineno(), t.get_name())] = t.get_frees()
                tables.append(t)
        seen = {}
        for top in ast.parse(src).body:
            if not isinstance(top, ast.FunctionDef):
                continue
            for fn in ast.walk(top):
                if fn is top or not isinstance(fn, ast.FunctionDef):
                    continue
                key = ast.dump(fn).replace(f"name='{fn.name}'", "", 1) \
                    + repr(sorted(frees.get((fn.lineno, fn.name), ())))
                here = f"{path.relative_to(root)}:{fn.lineno} {top.name}.{fn.name}"
                if key in seen:
                    dups.append(f"{here} == {seen[key]}")
                seen.setdefault(key, here)
    assert dups == [], dups


def test_one_map_batch_size():
    """A map stage at the package's batch size goes through
    ``rel.map_arrow``/``rel.map_pandas``: no ``map_batches`` call passes
    the literal 65536, and ``MAP_BATCH_SIZE`` is read only inside those
    two functions."""
    import ast
    import pathlib

    root = pathlib.Path(rel.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "attr", "") == "map_batches" \
                        and any(isinstance(v, ast.Constant) and v.value == 65536
                                for v in node.args + [k.value for k in node.keywords]):
                    found.append(where)
                elif ((isinstance(node, ast.Name) and node.id == "MAP_BATCH_SIZE"
                       and isinstance(node.ctx, ast.Load))
                      or (isinstance(node, ast.Attribute)
                          and node.attr == "MAP_BATCH_SIZE")) \
                        and getattr(top, "name", None) not in ("map_arrow", "map_pandas"):
                    found.append(f"{where} reads MAP_BATCH_SIZE")
    assert found == [], (len(found), found)


def test_map_stage_batches(ray_session):
    """``map_arrow``'s ``fn`` sees ``pa.Table`` batches and
    ``map_pandas``'s sees ``pd.DataFrame`` batches, none longer than
    ``MAP_BATCH_SIZE`` rows, and every row comes through once."""
    import ray.data as rd

    n = 150_000
    ds = rd.from_arrow([pa.table({"x": pa.array(np.arange(lo, lo + 50_000))})
                        for lo in range(0, n, 50_000)])
    for stage, kind in ((rel.map_arrow, pa.Table), (rel.map_pandas, pd.DataFrame)):
        def fn(b, kind=kind):
            assert isinstance(b, kind), type(b)
            if kind is pa.Table:
                return b.append_column("rows", pa.array(np.full(len(b), len(b))))
            return b.assign(rows=len(b))

        out = stage(ds, fn).to_pandas()
        assert out["rows"].max() <= rel.MAP_BATCH_SIZE
        assert sorted(out["x"]) == list(range(n))


def test_dedup(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"k": [1, 1, 2, 2, 3], "o": [5, 2, 1, 9, 4], "v": list("abcde")})
    out = rel.dedup(rd.from_pandas(df), "k", order_col="o").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out.v.tolist() == ["b", "c", "e"]


def test_moving_window(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"g": [1] * 5, "t": [1, 2, 3, 4, 5], "v": [2.0, 4.0, 6.0, 8.0, 10.0]})
    out = rel.moving_window(rd.from_pandas(df), "g", "t", "v", 3, "mean") \
        .to_pandas().sort_values("t")
    assert out.v_mean3.tolist() == [2.0, 3.0, 4.0, 6.0, 8.0]


def test_merge_schema_harmonization(ray_session):
    import ray.data as rd

    a = rd.from_pandas(pd.DataFrame({"x": [1, 2], "y": ["p", "q"]}))
    b = rd.from_pandas(pd.DataFrame({"x": [3], "z": [9.5]}))
    out = rel.merge(a, b).to_pandas().sort_values("x").reset_index(drop=True)
    assert set(out.columns) == {"x", "y", "z"}
    assert out.y.isna().tolist() == [False, False, True]
    assert out.z.isna().tolist() == [True, True, False]


def test_split_by_class(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"v": [0.5, 10.0, 25.0, 49.9, 50.0]})
    breaks = rel.equal_breaks(0, 50, 5)
    out = rel.split_by_class(rd.from_pandas(df), "v", breaks).to_pandas()
    assert out["class"].tolist() == [0, 0, 2, 4, 4]


def test_hopping_window(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"k": ["a", "a", "a"], "ts": [5, 15, 25],
                       "v": [1.0, 10.0, 100.0]})
    out = rel.hopping_window(rd.from_pandas(df), "k", "ts", size=20, hop=10,
                             specs=[("n", "v", "count"), ("s", "v", "sum")]) \
        .to_pandas().sort_values("win_start").reset_index(drop=True)
    # ts=5 -> windows starting -10, 0; ts=15 -> 0, 10; ts=25 -> 10, 20
    assert out.win_start.tolist() == [-10, 0, 10, 20]
    assert out.n.tolist() == [1, 2, 2, 1]
    assert out.s.tolist() == [1.0, 11.0, 110.0, 100.0]


def test_hopping_window_rejects_bad_hop(ray_session):
    import pytest
    import ray.data as rd

    df = pd.DataFrame({"k": ["a"], "ts": [0], "v": [1.0]})
    with pytest.raises(ValueError):
        rel.hopping_window(rd.from_pandas(df), "k", "ts", size=25, hop=10,
                           specs=[("n", "v", "count")])


def test_running_sum(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"k": ["a", "a", "b", "a"], "o": [2, 1, 1, 3],
                       "v": [10, 20, 5, 30]})
    out = rel.running_sum(rd.from_pandas(df), "k", "o", "v") \
        .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    assert out.running_sum.tolist() == [20, 30, 60, 5]


def test_global_rank_exact(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"id": np.arange(5000),
                       "v": rng.integers(0, 300, 5000)})
    out = rel.add_global_rank(rd.from_pandas(df), ["v", "id"],
                              num_buckets=16).to_pandas()
    exp = df.sort_values(["v", "id"], kind="stable").reset_index(drop=True)
    exp["rank"] = np.arange(1, len(exp) + 1)
    got = out.sort_values("rank").reset_index(drop=True)
    assert got.id.tolist() == exp.id.tolist()
    # descending too
    outd = rel.add_global_rank(rd.from_pandas(df), ["v", "id"],
                               descending=True, num_buckets=16).to_pandas()
    expd = df.sort_values(["v", "id"], ascending=False, kind="stable")
    assert outd.sort_values("rank").id.tolist() == expd.id.tolist()


def test_quantile_stat(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"k": ["a"] * 6, "v": [10, 20, 30, 40, 50, 60]})
    out = rel.groupby_aggregate(rd.from_pandas(df), "k",
                                [("p25", "v", "quantile:0.25"),
                                 ("p75", "v", "quantile:0.75")]).to_pandas()
    # DuckDB quantile_disc convention: sorted[ceil(q*n)-1]
    assert out.p25.iloc[0] == 20 and out.p75.iloc[0] == 50


def _asof_expected(ldf, rdf, direction="backward", tolerance=None,
                   how="left"):
    lg = ldf.sort_values("t", kind="mergesort")
    rg = rdf.sort_values(["t", "rv"], kind="mergesort")
    out = pd.merge_asof(lg, rg, on="t", by="k", direction=direction,
                        tolerance=tolerance)
    if how == "inner":
        out = out[out["rv"].notna()].copy()
        out["rv"] = out["rv"].astype("int64")
    return out.sort_values(["k", "t", "lid"]).reset_index(drop=True)


def test_asof_join_directions(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    ldf = pd.DataFrame({"k": rng.integers(0, 20, 400),
                        "t": rng.integers(0, 1000, 400).astype("int64"),
                        "lid": np.arange(400)})
    rdf = pd.DataFrame({"k": rng.integers(0, 25, 300),
                        "t": rng.integers(0, 1000, 300).astype("int64"),
                        "rv": rng.integers(0, 10**6, 300).astype("int64")})
    # dedupe right on (k, t) keeping max rv — the tie_cols contract
    for direction in ("backward", "forward", "nearest"):
        got = rel.asof_join(
            rd.from_pandas(ldf), rd.from_pandas(rdf),
            left_on="t", right_on="t", left_by="k", right_by="k",
            right_cols=["rv"], tie_cols=["rv"], direction=direction,
            how="inner", num_buckets=8,
        ).to_pandas().sort_values(["k", "t", "lid"]).reset_index(drop=True)
        rmax = rdf.groupby(["k", "t"], as_index=False)["rv"].max()
        exp = _asof_expected(ldf, rmax, direction=direction, how="inner")
        pd.testing.assert_frame_equal(
            got[["k", "t", "lid", "rv"]], exp[["k", "t", "lid", "rv"]])


def test_asof_join_left_and_tolerance(ray_session):
    import ray.data as rd

    ldf = pd.DataFrame({"k": [1, 1, 2, 3], "t": [5, 50, 7, 9],
                        "lid": [0, 1, 2, 3]})
    rdf = pd.DataFrame({"k": [1, 1, 2], "t": [3, 10, 100],
                        "rv": [30, 100, 999]})
    got = rel.asof_join(rd.from_pandas(ldf), rd.from_pandas(rdf),
                        left_on="t", right_on="t", left_by="k",
                        right_by="k", right_cols=["rv"], tolerance=4,
                        how="left", num_buckets=4) \
        .to_pandas().sort_values("lid").reset_index(drop=True)
    # lid0: t=5, nearest-before within 4 is t=3 -> 30; lid1: t=50,
    # before is t=10 but |50-10|>4 -> NaN; lid2/3: no right within tol
    assert got.rv.iloc[0] == 30
    assert got.rv.isna().tolist() == [False, True, True, True]


def test_interval_join_matches_bruteforce(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(13)
    ldf = pd.DataFrame({"k": rng.integers(0, 15, 500),
                        "t": rng.integers(0, 500, 500).astype("int64"),
                        "lid": np.arange(500)})
    s = rng.integers(0, 500, 200).astype("int64")
    rdf = pd.DataFrame({"k": rng.integers(0, 18, 200), "s": s,
                        "e": s + rng.integers(1, 60, 200),
                        "rid": np.arange(200)})
    for closed in ("left", "both"):
        got = rel.interval_join(
            rd.from_pandas(ldf), rd.from_pandas(rdf), left_by="k",
            right_by="k", left_time="t", right_start="s", right_end="e",
            right_cols=["rid"], closed=closed, num_buckets=8,
        ).to_pandas().sort_values(["lid", "rid"]).reset_index(drop=True)
        m = ldf.merge(rdf, on="k")
        keep = (m.t >= m.s) & ((m.t <= m.e) if closed == "both"
                               else (m.t < m.e))
        exp = m[keep].sort_values(["lid", "rid"]).reset_index(drop=True)
        assert got.lid.tolist() == exp.lid.tolist()
        assert got.rid.tolist() == exp.rid.tolist()


def test_interval_join_empty_side(ray_session):
    import ray.data as rd

    ldf = pd.DataFrame({"k": [1, 2], "t": [5, 6], "lid": [0, 1]})
    rdf = pd.DataFrame({"k": [9], "s": [0], "e": [10], "rid": [0]})
    got = rel.interval_join(rd.from_pandas(ldf), rd.from_pandas(rdf),
                            left_by="k", right_by="k", left_time="t",
                            right_start="s", right_end="e",
                            right_cols=["rid"], num_buckets=4).to_pandas()
    # no rows anywhere: the empty per-bucket frames must not crash the
    # pipeline (Ray drops the schema of an all-empty pandas dataset, so
    # only the row count is asserted)
    assert len(got) == 0


def test_bloom_check_superset_and_fp_rate(ray_session):
    from pythongis_ray import relational as rel

    rng = np.random.default_rng(7)
    members = rng.choice(10**9, 5000, replace=False).astype(np.int64)
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": pa.array(members)}))
    bits = rel.bloom_build(ds, "k", nhash=4, log2_bits=20)
    # every member passes (no false negatives)
    assert rel.bloom_check(bits, members).all()
    # false-positive rate near (1 - e^{-kn/m})^k ~ 1.2e-5 at these params
    probe = rng.choice(10**9, 20000, replace=False).astype(np.int64)
    probe = probe[~np.isin(probe, members)]
    fp = rel.bloom_check(bits, probe).mean()
    assert fp < 0.01


def test_bloom_semi_join_exact(ray_session):
    from pythongis_ray import relational as rel
    import ray.data as rd

    rng = np.random.default_rng(11)
    big_keys = rng.integers(0, 300, 5000).astype(np.int64)
    big = rd.from_arrow(pa.table({
        "k": pa.array(big_keys),
        "v": pa.array(np.arange(5000, dtype=np.int64))}))
    small_keys = np.unique(rng.integers(0, 300, 80)).astype(np.int64)
    # duplicate keys on the small side must not duplicate output rows
    dup = np.concatenate([small_keys, small_keys[:10]])
    small = rd.from_arrow(pa.table({"sk": pa.array(dup)}))
    out = rel.bloom_semi_join(big, small, key="k", small_key="sk") \
        .to_pandas().sort_values("v").reset_index(drop=True)
    exp_mask = np.isin(big_keys, small_keys)
    assert len(out) == int(exp_mask.sum())
    assert (out.v.to_numpy() == np.arange(5000)[exp_mask]).all()
    assert set(out.columns) == {"k", "v"}


def test_windowed_distinct_matches_pandas(ray_session):
    """Hopping-window COUNT DISTINCT == pandas expand/dedup/nunique."""
    import ray.data as rd

    from pythongis_ray import relational as rel

    rng = np.random.default_rng(5)
    n = 600
    df = pd.DataFrame({
        "grp": rng.choice(["a", "b", "c"], n),
        "ts": rng.integers(0, 1000, n).astype(np.int64),
        "user": rng.integers(0, 25, n).astype(np.int64)})
    ds = rd.from_pandas(df).repartition(4)
    got = rel.windowed_distinct(ds, "grp", "ts", size=100, hop=50,
                                user_col="user", out_col="nu") \
        .to_pandas().sort_values(["grp", "win_start"]) \
        .reset_index(drop=True)

    rows = []
    for k in (0, 1):
        e = df.copy()
        e["win_start"] = (e["ts"] // 50 - k) * 50
        rows.append(e)
    exp = (pd.concat(rows).groupby(["grp", "win_start"])["user"]
           .nunique().rename("nu").reset_index()
           .sort_values(["grp", "win_start"]).reset_index(drop=True))
    assert got["grp"].tolist() == exp["grp"].tolist()
    assert got["win_start"].tolist() == exp["win_start"].tolist()
    assert got["nu"].tolist() == exp["nu"].tolist()


# ------------------------------------- bucketed_group_apply: per-block kernels

def _per_bucket_reference(df, keys, kernel, num_buckets):
    """The per-bucket loop: rows keyed to ``bucketed_group_apply``'s
    hash buckets, ``kernel`` once per non-empty bucket, the outputs
    laid end to end."""
    h = pd.util.hash_pandas_object(df[keys], index=False).to_numpy()
    b = (h % np.uint64(num_buckets)).astype(np.int64)
    outs = [kernel(df[b == i].reset_index(drop=True)) for i in np.unique(b)]
    return pd.concat(outs, ignore_index=True)


def _rows(df, cols):
    return sorted(map(tuple, df[cols].to_numpy().tolist()))


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=60),
       st.sampled_from([1, 3, 64]),
       st.sampled_from([1, 4]),
       st.integers(min_value=0, max_value=2**31))
def test_bucketed_group_apply_matches_per_bucket_loop(
        ray_session, n, n_keys, num_buckets, n_blocks, seed):
    """Per-part kernels give the per-bucket loop's rows: ``dedup``
    with and without ``order_col`` (without it, the first input row
    per key), the ``groupby_aggregate`` combine and the LSH degree
    cap, each chained on a first call so the second exchange reads the
    first one's output blocks."""
    import ray.data as rd

    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "k": rng.integers(0, n_keys, n).astype(np.int64),
        "j": rng.integers(0, 3, n).astype(np.int64),
        "o": rng.permutation(n).astype(np.int64),
        "v": rng.integers(-50, 50, n).astype(np.int64)})
    df["s"] = "s" + df["k"].astype(str)
    pairs = pd.DataFrame({"id_a": rng.integers(0, n_keys, n),
                          "id_b": rng.integers(0, n_keys, n)}).astype(np.int64)

    def blocks(f):
        cuts = np.linspace(0, len(f), n_blocks + 1).astype(int)
        return rd.from_pandas([f.iloc[a:b] for a, b in zip(cuts, cuts[1:])])
    specs = [("sv", "v", "sum"), ("n", None, "count"), ("mx", "v", "max")]

    def cap_degree(b, d=2):
        # minhash_dedup_pairs' degree cap (keyed on id_b); nested, so
        # Ray workers get it by value
        b = b.drop_duplicates(["id_a", "id_b"]) \
            .sort_values(["id_b", "id_a"], kind="stable")
        return b.groupby("id_b", sort=False).head(d)

    def ref_agg(g):
        return g.groupby(["s"], sort=False).agg(
            sv=("v", "sum"), n=("v", "size"), mx=("v", "max")).reset_index()

    real = rel.bucketed_group_apply
    with pytest.MonkeyPatch.context() as mp:
        # one split per input block, so 4 blocks make up to 4 parts
        mp.setattr(rel, "BUCKET_BATCH_SIZE", 1)
        mp.setattr(rel, "bucketed_group_apply",
                   lambda ds, keys, fn, num_buckets=num_buckets:
                   real(ds, keys, fn, num_buckets))
        ordered = rel.groupby_aggregate(
            rel.dedup(blocks(df), ["k", "j"], order_col="o"),
            ["s"], specs).to_pandas()
        firsts = rel.dedup(rel.dedup(blocks(df), ["k", "j"]), ["k"]) \
            .to_pandas()
        one = rel.dedup(blocks(df), ["k"]).to_pandas()
        capped = rel.bucketed_group_apply(
            rel.dedup(blocks(pairs), ["id_a", "id_b"]), ["id_b"],
            cap_degree).to_pandas()

    first = _per_bucket_reference(
        df, ["k", "j"],
        lambda g: g.sort_values("o", kind="stable")
        .drop_duplicates(["k", "j"]), num_buckets)
    want = _per_bucket_reference(first, ["s"], ref_agg, num_buckets)
    assert list(ordered.columns) == ["s", "sv", "n", "mx"]
    assert _rows(ordered, list(want.columns)) == _rows(want, list(want.columns))

    # without order_col a key keeps its first input row: each call
    # hands a key's rows over in input block order, and the outputs
    # come back in bucket order (the per-bucket loop's order)
    want = _per_bucket_reference(
        _per_bucket_reference(df, ["k", "j"],
                              lambda g: g.drop_duplicates(["k", "j"]),
                              num_buckets),
        ["k"], lambda g: g.drop_duplicates(["k"]), num_buckets)
    cols = list(df.columns)
    assert _rows(firsts, cols) == _rows(want, cols)
    assert _rows(one, cols) == _rows(df.drop_duplicates(["k"]), cols)

    want = _per_bucket_reference(
        _per_bucket_reference(pairs, ["id_a", "id_b"],
                              lambda g: g.drop_duplicates(), num_buckets),
        ["id_b"], cap_degree, num_buckets)
    assert _rows(capped, ["id_a", "id_b"]) == _rows(want, ["id_a", "id_b"])


def test_bucketed_group_apply_calls_kernel_once_per_sort_block(ray_session):
    """``fn`` runs at most once per non-empty exchange part (at most
    one per input block), and each call holds whole buckets: 4 input
    blocks of 9,000 rows over 64 buckets make at most 4 calls (one per
    bucket would make 64)."""
    import ray.data as rd

    n = 36000
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64) % 5000,
                       "v": np.arange(n, dtype=np.int64)})

    def fn(b):
        return pd.DataFrame({"rows": [len(b)],
                             "keys": [sorted(set(b["k"].tolist()))]})

    out = rel.bucketed_group_apply(
        rd.from_pandas([df.iloc[i:i + 9000] for i in range(0, n, 9000)]),
        ["k"], fn).to_pandas()
    assert 1 <= len(out) <= 4
    assert out["rows"].sum() == n
    seen = [k for keys in out["keys"] for k in keys]
    assert len(seen) == len(set(seen)) == 5000


def test_bucketed_group_apply_skips_empty_sort_blocks(ray_session):
    """A 0-row exchange part never reaches ``fn``. An all-empty input
    returns no rows (and, as ``map_groups`` did, no columns); rows that
    all hash to one bucket across 3 input blocks leave two parts empty
    and reach ``fn`` once, whole."""
    import ray.data as rd

    def fn(b):
        assert len(b), "fn called on a 0-row block"
        return b.assign(calls=np.int64(1), seen=np.int64(len(b)))

    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    empty = rel.bucketed_group_apply(
        rd.from_arrow(schema.empty_table()), ["k"], fn).to_pandas()
    assert len(empty) == 0 and list(empty.columns) == []

    n = 9000
    one = rd.from_arrow([pa.table({"k": np.full(n, 7, np.int64),
                                   "v": np.arange(i * n, (i + 1) * n)},
                                  schema=schema) for i in range(3)])
    out = rel.bucketed_group_apply(one, ["k"], fn).to_pandas()
    assert list(out.columns) == ["k", "v", "calls", "seen"]
    assert sorted(out["v"]) == list(range(3 * n))
    assert set(out["seen"]) == {3 * n}


@pytest.mark.parametrize("backing", ["pandas", "arrow"])
def test_bucket_membership_is_the_key_hash(ray_session, backing,
                                           monkeypatch):
    """Every row lands in bucket ``hash_pandas_object(keys) % B`` for
    int32, int64, object and string keys (and a two-column key), over
    pandas- and Arrow-backed blocks; a signed-int key hashes as int64,
    so the int32 key and the same int64 key share a bucket. With B = 4 buckets and 4 input
    blocks split one by one, the exchange has one part per bucket, so
    each ``fn`` call must hold exactly the rows of one bucket, and the
    calls come back in bucket order."""
    import ray.data as rd

    monkeypatch.setattr(rel, "BUCKET_BATCH_SIZE", 1)

    n, nb = 400, 4
    rng = np.random.default_rng(11)
    words = np.array([f"w{i}" for i in range(40)], dtype=object)
    df = pd.DataFrame({
        "row": np.arange(n, dtype=np.int64),
        "i32": rng.integers(-60, 60, n).astype(np.int32),
        "i64": rng.integers(-60, 60, n).astype(np.int64),
        "obj": words[rng.integers(0, 40, n)],
        "str": pd.array(words[rng.integers(0, 40, n)], dtype="string")})
    cuts = np.linspace(0, n, nb + 1).astype(int)
    if backing == "pandas":
        parts = [df.iloc[a:b] for a, b in zip(cuts, cuts[1:])]
        ds = rd.from_pandas(parts)
    else:
        parts = [pa.Table.from_pandas(df.iloc[a:b], preserve_index=False)
                 .replace_schema_metadata() for a, b in zip(cuts, cuts[1:])]
        ds = rd.from_arrow(parts)
        assert pa.types.is_int32(parts[0].schema.field("i32").type)
    # the frames the exchange hashes: each block as pandas
    seen = pd.concat([p if backing == "pandas" else p.to_pandas()
                      for p in parts], ignore_index=True)

    as64 = seen.astype({"i32": np.int64})
    for keys in (["i32"], ["i64"], ["obj"], ["str"], ["i32", "obj"]):
        h = pd.util.hash_pandas_object(as64[keys], index=False).to_numpy()
        want = pd.Series((h % np.uint64(nb)).astype(np.int64),
                         index=seen["row"].to_numpy())

        def fn(b):
            return pd.DataFrame({"row": b["row"].to_numpy(np.int64),
                                 "call": np.int64(b["row"].min())})

        out = rel.bucketed_group_apply(ds, keys, fn, num_buckets=nb) \
            .to_pandas()
        assert sorted(out["row"]) == list(range(n)), keys
        bucket = want.loc[out["row"].to_numpy()].to_numpy()
        per_call = pd.Series(bucket).groupby(out["call"].to_numpy(),
                                              sort=False).unique()
        assert all(len(b) == 1 for b in per_call), keys
        assert [b[0] for b in per_call] == sorted(set(bucket)), keys
