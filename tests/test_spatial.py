import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from pythongis_ray import fixtures, spatial

SF = "/root/testdata/sf0.001"


def make_points(n=2000):
    key = np.arange(n, dtype=np.int64) * 11 + 3
    ix, iy = fixtures.geocode_units(key)
    lon, lat = fixtures.units_to_deg(ix, iy)
    return pd.DataFrame({"pid": key, "lon": lon, "lat": lat,
                         "val": (key % 100).astype(np.int64)})


def oracle_rect_join(pts: pd.DataFrame, zones: pd.DataFrame) -> set:
    out = set()
    for _, z in zones.iterrows():
        m = (pts.lon > z.x0) & (pts.lon < z.x1) & (pts.lat > z.y0) & (pts.lat < z.y1)
        for pid in pts.pid[m]:
            out.add((int(pid), int(z.zone_id)))
    return out


@pytest.fixture(scope="module")
def zones():
    nation = pq.read_table(f"{SF}/nation.parquet").to_pandas()
    return fixtures.zones_from_nation(nation)


def test_broadcast_join_matches_oracle(ray_session, zones):
    import ray.data as rd

    pts = make_points()
    ds = rd.from_pandas(pts)
    joined = spatial.spatial_join(ds, zones, predicate="within").to_pandas()
    got = set(zip(joined.pid.astype(int), joined.zone_id.astype(int)))
    assert got == oracle_rect_join(pts, zones)
    assert len(joined) > 100  # sanity: fixture produces real matches


def test_left_outer_join(ray_session, zones):
    import ray.data as rd

    pts = make_points(500)
    ds = rd.from_pandas(pts)
    joined = spatial.spatial_join(ds, zones, predicate="within", how="left").to_pandas()
    expect = oracle_rect_join(pts, zones)
    matched_pids = {p for p, _ in expect}
    # every left row appears; unmatched get null zone
    assert set(joined.pid[joined.zone_id.notna()].astype(int)) == matched_pids
    unmatched = set(pts.pid.astype(int)) - matched_pids
    assert set(joined.pid[joined.zone_id.isna()].astype(int)) == unmatched
    assert len(joined) == len(expect) + len(unmatched)


def test_semi_and_anti_join_partition(ray_session, zones):
    import ray.data as rd

    pts = make_points(800)
    ds = rd.from_pandas(pts)
    semi = spatial.spatial_where(ds, zones, predicate="intersects").to_pandas()
    anti = spatial.spatial_join(ds, zones, predicate="disjoint").to_pandas()
    matched = {p for p, _ in oracle_rect_join(pts, zones)}
    assert set(semi.pid.astype(int)) == matched
    assert set(anti.pid.astype(int)) == set(pts.pid.astype(int)) - matched
    assert len(semi) + len(anti) == len(pts)


def test_diamond_join_matches_formula(ray_session):
    import ray.data as rd

    region = pq.read_table(f"{SF}/region.parquet").to_pandas()
    dia = fixtures.diamonds_from_region(region)
    pts = make_points(3000)
    ds = rd.from_pandas(pts)
    joined = spatial.spatial_join(
        ds, dia[["region_id", "geometry"]], predicate="within").to_pandas()
    got = set(zip(joined.pid.astype(int), joined.region_id.astype(int)))
    # closed-form oracle in unit space
    ix, iy = fixtures.geocode_units(pts.pid.to_numpy())
    expect = set()
    for _, r in dia.iterrows():
        inside = (fixtures.DIA_B * np.abs(ix - r.cxu)
                  + fixtures.DIA_A * np.abs(iy - r.cyu)) < fixtures.DIA_A * fixtures.DIA_B
        for pid in pts.pid.to_numpy()[inside]:
            expect.add((int(pid), int(r.region_id)))
    assert got == expect


def test_shuffle_join_matches_broadcast(ray_session, zones):
    import ray.data as rd

    pts = make_points(1500)
    ds = rd.from_pandas(pts)
    zds = rd.from_pandas(zones)
    # rows_per_task=20 forces the salted-split branch on the hot city
    # cells of this fixture (max cell count ~76) — verifies salting
    # preserves exact pair semantics
    from pythongis_ray import grid as _grid
    cells = _grid.point_to_cell(pts.lon.to_numpy(), pts.lat.to_numpy(),
                                spatial.DEFAULT_INDEX_RES)
    import numpy as _np
    _, counts = _np.unique(cells, return_counts=True)
    assert counts.max() > 20  # fixture really has hot cells
    key = lambda df: sorted(zip(df.pid.astype(int), df.zone_id.astype(int)))
    for pred in ("intersects", "covers", "within", "contains"):
        bc = spatial.spatial_join(ds, zones, predicate=pred).to_pandas()
        sh = spatial.spatial_join_shuffle(
            rd.from_pandas(pts), zds, predicate=pred,
            rows_per_task=20).to_pandas()
        assert key(sh) == key(bc), pred
        # declared-dtype contract: the shuffle path must emit the SAME
        # schema as the broadcast path (round-1 regression: untyped null
        # padding promoted pk/zone_id to float64)
        assert {c: str(sh[c].dtype) for c in bc.columns} == \
            {c: str(bc[c].dtype) for c in bc.columns}, pred


def test_shuffle_join_rejects_unsupported(ray_session, zones):
    import pytest
    import ray.data as rd

    pts = make_points(10)
    zds = rd.from_pandas(zones)
    with pytest.raises(ValueError):
        spatial.spatial_join_shuffle(rd.from_pandas(pts), zds, how="left")
    with pytest.raises(ValueError):
        spatial.spatial_join_shuffle(rd.from_pandas(pts), zds,
                                     predicate="touches")
    with pytest.raises(ValueError):
        spatial.spatial_join_lines_shuffle(rd.from_pandas(pts), zds,
                                           predicate="contains")
    with pytest.raises(ValueError):
        spatial.spatial_join_polygons_shuffle(rd.from_pandas(pts), zds,
                                              predicate="within")


def test_spatial_agg_exact(ray_session, zones):
    import ray.data as rd

    pts = make_points(2500)
    ds = rd.from_pandas(pts)
    out = spatial.spatial_agg(ds, zones, value_col="val", predicate="within")
    # oracle
    rows = []
    for _, z in zones.iterrows():
        m = (pts.lon > z.x0) & (pts.lon < z.x1) & (pts.lat > z.y0) & (pts.lat < z.y1)
        if m.any():
            v = pts.val[m]
            rows.append((int(z.zone_id), int(v.sum()), int(m.sum()),
                         int(v.min()), int(v.max())))
    exp = pd.DataFrame(rows, columns=["zone_id", "sum_val", "cnt", "min_val", "max_val"])
    exp = exp.sort_values("zone_id").reset_index(drop=True)
    got = out[["zone_id", "sum_val", "cnt", "min_val", "max_val"]].astype(int)
    pd.testing.assert_frame_equal(got, exp.astype(int))
    assert (out["mean_val"] == out["sum_val"] / out["cnt"]).all()


def test_knn_join_matches_bruteforce(ray_session):
    import ray.data as rd

    pts = make_points(300)
    pl_key = np.arange(50, dtype=np.int64) * 7 + 1
    ix, iy = fixtures.geocode_units(pl_key)
    plon, plat = fixtures.units_to_deg(ix, iy)
    places = pd.DataFrame({"place_id": pl_key, "lon": plon, "lat": plat})
    ds = rd.from_pandas(pts)
    out = spatial.knn_join(ds, places, k=3, id_col="place_id").to_pandas()
    # brute-force oracle with (dist, id) tie-break
    for pid in pts.pid[:20]:
        row = pts[pts.pid == pid].iloc[0]
        d2 = (row.lon - plon) ** 2 + (row.lat - plat) ** 2
        order = np.lexsort((pl_key, d2))[:3]
        got = out[out.pid == pid].sort_values("nn_rank")
        assert got.nn_id.tolist() == [int(pl_key[i]) for i in order]
    assert len(out) == 3 * len(pts)


def test_grid_knn_matches_bruteforce_direct():
    """GridKnnJoiner (expanding k-ring) must equal brute KnnJoiner
    exactly, including (distance, id) tie-breaks."""
    import pyarrow as pa

    pl_key = np.arange(3000, dtype=np.int64) * 4 + 2
    ix, iy = fixtures.geocode_units(pl_key)
    plon, plat = fixtures.units_to_deg(ix, iy)
    right = {"lon": plon, "lat": plat, "id": pl_key}
    ck = np.arange(700, dtype=np.int64) * 4 + 1
    cix, ciy = fixtures.geocode_units(ck)
    clon, clat = fixtures.units_to_deg(cix, ciy)
    batch = pa.table({"ck": ck, "lon": clon, "lat": clat})
    g = spatial.GridKnnJoiner(right, k=4)
    b = spatial.KnnJoiner(right, k=4, right_chunk=1000)
    og = g(batch).to_pandas().sort_values(["ck", "nn_rank"]).reset_index(drop=True)
    ob = b(batch).to_pandas().sort_values(["ck", "nn_rank"]).reset_index(drop=True)
    assert og.nn_id.tolist() == ob.nn_id.tolist()
    assert og.nn_dist_sq.tolist() == ob.nn_dist_sq.tolist()


def test_spatial_stats_holistic(ray_session, zones):
    import ray.data as rd

    pts = make_points(1200)
    pts["tag"] = np.where(pts.pid % 3 == 0, "a", "b")
    out = spatial.spatial_stats(
        rd.from_pandas(pts), zones,
        [("n", "val", "count"), ("maj_tag", "tag", "majority")],
        predicate="within", order_col="pid").to_pandas()
    # oracle for one zone
    z = zones.iloc[0]
    m = (pts.lon > z.x0) & (pts.lon < z.x1) & (pts.lat > z.y0) & (pts.lat < z.y1)
    if m.any():
        got = out[out.zone_id == z.zone_id].iloc[0]
        assert got.n == m.sum()
        vc = pts.tag[m].value_counts()
        best = sorted(v for v, c in vc.items() if c == vc.max())[0]
        assert got.maj_tag == best


def test_polygon_join_touch_exclusion(ray_session):
    import ray.data as rd
    from pythongis_ray.geom import wkb as _wkb

    def rect_wkb(x0, y0, x1, y1):
        return _wkb.encode_polygon([np.array(
            [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)])

    zones_df = pd.DataFrame({
        "zone_id": [0, 1, 2],
        "geometry": [rect_wkb(0, 0, 10, 10), rect_wkb(10, 0, 20, 10),
                     rect_wkb(40, 40, 50, 50)],
    })
    left = pd.DataFrame({
        "lid": [100],
        "geometry": [rect_wkb(5, 5, 10, 15)],  # overlaps z0, touches z1 edge
    })
    ds = rd.from_pandas(left)
    inter = spatial.spatial_join_polygons(ds, zones_df, "intersects").to_pandas()
    over = spatial.spatial_join_polygons(ds, zones_df, "overlaps").to_pandas()
    assert set(inter.zone_id) == {0, 1}   # touching counts as intersects
    assert set(over.zone_id) == {0}       # touch-only neighbour excluded


def test_shuffle_join_checkpoint_resume(ray_session, zones, tmp_path):
    """Phase-1 keyed output materialized as a resumable stage boundary:
    second run with the same checkpoint dir skips completed partitions
    and produces identical join results."""
    import os
    import ray.data as rd
    from pythongis_ray import checkpoint as ckpt

    pts = make_points(800)
    zds = rd.from_pandas(zones[["zone_id", "geometry"]])
    cdir = str(tmp_path / "phase1")
    sh1 = spatial.spatial_join_shuffle(
        rd.from_pandas(pts), zds, predicate="within", rows_per_task=20,
        num_buckets=8, checkpoint_dir=cdir).to_pandas()
    done = ckpt.completed_partitions(cdir)
    assert len(done) > 0
    # delete one partition → resume should rewrite ONLY that one
    import shutil
    victim = sorted(done)[0]
    shutil.rmtree(os.path.join(cdir, f"part={victim}"))
    os.remove(os.path.join(cdir, "_manifest", f"part-{victim}.json"))
    sh2 = spatial.spatial_join_shuffle(
        rd.from_pandas(pts), zds, predicate="within", rows_per_task=20,
        num_buckets=8, checkpoint_dir=cdir).to_pandas()
    key = lambda df: sorted(zip(df.pid.astype(int), df.zone_id.astype(int)))
    assert key(sh1) == key(sh2)
    bc = spatial.spatial_join(rd.from_pandas(pts), zones,
                              predicate="within").to_pandas()
    assert key(sh1) == key(bc)


def test_shuffle_join_resume_rewrites_lost_and_short_partitions(
        ray_session, zones, tmp_path):
    """A manifest entry alone does not mark a partition done: two
    partitions whose dirs are deleted (manifest kept) and one whose
    parquet lost rows are rewritten on resume, and every pair comes
    back."""
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from pythongis_ray import checkpoint as ckpt

    pts = make_points(800)
    zds = rd.from_pandas(zones[["zone_id", "geometry"]])

    def run(cdir):
        return spatial.spatial_join_shuffle(
            rd.from_pandas(pts), zds, predicate="within", rows_per_task=20,
            num_buckets=8, checkpoint_dir=cdir).to_pandas()

    cdir = str(tmp_path / "phase1")
    first = run(cdir)
    done = sorted(ckpt.completed_partitions(cdir))
    assert len(done) >= 3
    for p in done[:2]:
        shutil.rmtree(os.path.join(cdir, f"part={p}"))
    short = os.path.join(cdir, f"part={done[2]}", "data.parquet")
    t = pq.read_table(short)
    pq.write_table(t.slice(0, t.num_rows // 2), short)
    assert ckpt.completed_partitions(cdir) == set(done[3:])

    again = run(cdir)
    key = lambda df: sorted(zip(df.pid.astype(int), df.zone_id.astype(int)))
    assert len(again) == len(first)
    assert key(again) == key(first)
    assert sorted(ckpt.completed_partitions(cdir)) == done


def test_wide_rejoin_byte_identity(ray_session):
    """html/text projected out of the join and re-attached by key must
    be byte-identical (per-url invariant through the wide-row path)."""
    import pandas as _pd
    from pythongis_ray import pipelines

    out = pipelines.flagship_wide_rejoin(SF).to_pandas()
    src = _pd.read_parquet(f"{SF}/documents.parquet")
    m = dict(zip(src.doc_id, src.text))
    assert len(out) > 100
    for pid, txt, html in zip(out.page_id, out.text, out.html):
        assert m[pid] == txt
        assert bytes(html) == b"<html><body>" + txt.encode() + b"</body></html>"


def test_line_line_join(ray_session):
    import ray.data as rd

    from pythongis_ray.geom import wkb as _wkb

    def seg(a, b):
        return _wkb.encode_linestring(np.array([a, b], float))

    left = pd.DataFrame({
        "lid": [0, 1, 2, 3],
        "geometry": [
            seg((0, 0), (10, 10)),     # crosses right 0
            seg((0, 10), (10, 0)),     # crosses right 0 too
            seg((20, 20), (30, 20)),   # disjoint
            seg((5, 5), (5, 15)),      # endpoint ON right 0 (touch)
        ],
    })
    right = pd.DataFrame({
        "rid": [100, 200],
        "geometry": [seg((0, 5), (10, 5)), seg((50, 50), (60, 50))],
    })
    out = spatial.spatial_join_line_line(
        rd.from_pandas(left), right).to_pandas()
    assert set(zip(out.lid, out.rid)) == {(0, 100), (1, 100), (3, 100)}


def test_spatial_join_subkey(ray_session, zones):
    import ray.data as rd

    pts = make_points(600)
    ds = rd.from_pandas(pts)
    base = spatial.spatial_join(ds, zones, predicate="within").to_pandas()
    # extra pair predicate: only even zone ids AND val < 50
    sub = spatial.spatial_join(
        ds, zones, predicate="within",
        subkey=lambda df: (df.zone_id % 2 == 0) & (df.val < 50)).to_pandas()
    exp = base[(base.zone_id % 2 == 0) & (base.val < 50)]
    key = lambda d: sorted(zip(d.pid.astype(int), d.zone_id.astype(int)))
    assert key(sub) == key(exp)


def test_dissolve_intersection(ray_session):
    import ray.data as rd

    from pythongis_ray.geom import wkb as _wkb

    def rect(x0, y0, x1, y1):
        return _wkb.encode_polygon([np.array(
            [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])])

    df = pd.DataFrame({
        "g": [1, 1, 2, 2],
        "geometry": [rect(0, 0, 4, 4), rect(2, 2, 6, 6),   # overlap 2x2
                     rect(0, 0, 1, 1), rect(5, 5, 6, 6)],  # disjoint
    })
    out = spatial.dissolve(rd.from_pandas(df), "g",
                           geomfunc="intersection").to_pandas()
    assert out.g.tolist() == [1]
    assert out.inter_area.iloc[0] == 4.0


def test_line_join_multilinestring(ray_session, zones):
    import ray.data as rd

    from pythongis_ray.geom import wkb as _wkb

    z = zones.iloc[0]
    inside = np.array([[(z.x0 + z.x1) / 2, (z.y0 + z.y1) / 2],
                       [(z.x0 + z.x1) / 2 + 0.1, (z.y0 + z.y1) / 2]])
    faraway = np.array([[150.0, 80.0], [151.0, 80.0]])
    # part 2 intersects zone 0 even though part 1 is far away
    ml = _wkb.encode_multi("MultiLineString", [faraway, inside])
    df = pd.DataFrame({"lid": [1], "geometry": [ml]})
    out = spatial.spatial_join_lines(
        rd.from_pandas(df), zones[["zone_id", "geometry"]],
        predicate="intersects").to_pandas()
    assert (1, int(z.zone_id)) in set(zip(out.lid, out.zone_id))


def test_knn_join_geoms_matches_bruteforce(ray_session):
    """Grid kNN against lines == brute-force per-feature min distance
    (exact single-division kernel), ties by right id."""
    import ray.data as rd

    from pythongis_ray.geom import algo, wkb

    rng = np.random.default_rng(3)
    lines = []
    for i in range(40):
        npts = int(rng.integers(2, 5))
        pts = rng.uniform(-20, 20, (npts, 2)).round(3)
        lines.append(wkb.encode_linestring(pts))
    right = pd.DataFrame({"lid": np.arange(40, dtype=np.int64),
                          "geometry": lines})
    px = rng.uniform(-25, 25, 300).round(3)
    py = rng.uniform(-25, 25, 300).round(3)
    left = pd.DataFrame({"pid": np.arange(300, dtype=np.int64),
                         "lon": px, "lat": py})
    out = spatial.knn_join_geoms(rd.from_pandas(left), right, k=3,
                                 id_col="lid").to_pandas()
    A, B, F = [], [], []
    for i, b in enumerate(lines):
        g = wkb.decode(b)["rings"][0]
        A.append(g[:-1])
        B.append(g[1:])
        F.append(np.full(len(g) - 1, i))
    A, B, F = np.vstack(A), np.vstack(B), np.concatenate(F)
    for _, row in out.iterrows():
        d2 = algo.points_to_segments_sq_pairwise(
            np.full(len(A), row.lon), np.full(len(A), row.lat),
            A[:, 0], A[:, 1], B[:, 0], B[:, 1])
        per = np.full(40, np.inf)
        np.minimum.at(per, F, d2)
        order = np.lexsort((np.arange(40), per))
        r = int(row.nn_rank) - 1
        assert row.nn_id == order[r]
        assert row.nn_dist_sq == per[order[r]]


def test_knn_join_geoms_polygon_containment(ray_session):
    import ray.data as rd

    from pythongis_ray.geom import wkb

    polys = [wkb.encode_polygon([np.array([[0, 0], [10, 0], [10, 10],
                                           [0, 10], [0, 0]], float)]),
             wkb.encode_polygon([np.array([[20, 20], [24, 20], [24, 24],
                                           [20, 24], [20, 20]], float)])]
    rp = pd.DataFrame({"lid": np.array([7, 9], np.int64),
                       "geometry": polys})
    lp = pd.DataFrame({"pid": [0, 1], "lon": [5.0, 30.0],
                       "lat": [5.0, 30.0]})
    o2 = spatial.knn_join_geoms(rd.from_pandas(lp), rp, k=1, id_col="lid",
                                polygons=True).to_pandas()
    assert o2[o2.pid == 0].nn_dist_sq.iloc[0] == 0.0
    assert o2[o2.pid == 0].nn_id.iloc[0] == 7
    assert o2[o2.pid == 1].nn_id.iloc[0] == 9
    assert o2[o2.pid == 1].nn_dist_sq.iloc[0] == 72.0


def test_dissolve_general_intersection_diamonds(ray_session):
    """General (non-rect) dissolve intersection folds through the
    exact overlay; empty-intersection groups are dropped."""
    import ray.data as rd

    from pythongis_ray.geom import wkb

    def diamond(cx, cy, r):
        return np.array([[cx - r, cy], [cx, cy - r], [cx + r, cy],
                         [cx, cy + r], [cx - r, cy]], float)

    geoms = [wkb.encode_polygon([diamond(0, 0, 3)]),
             wkb.encode_polygon([diamond(2, 0, 3)]),
             wkb.encode_polygon([diamond(0, 0, 1)]),
             wkb.encode_polygon([diamond(10, 0, 1)])]
    df = pd.DataFrame({"grp": [0, 0, 1, 1], "geometry": geoms})
    out = spatial.dissolve(rd.from_pandas(df), "grp",
                           geomfunc="intersection").to_pandas()
    assert len(out) == 1 and out.grp.iloc[0] == 0
    assert out.inter_area.iloc[0] == 8.0


def test_line_clip_general_zone(ray_session):
    """Line clip overlay against a NON-rect (diamond) zone via the
    exact rational split-and-classify path."""
    import ray.data as rd

    from pythongis_ray.geom import algo, wkb

    zone = wkb.encode_polygon([np.array([[-4.0, 0], [0, -4], [4, 0],
                                         [0, 4], [-4, 0]])])
    zones = pd.DataFrame({"zone_id": [1], "geometry": [zone]})
    lines = pd.DataFrame({
        "lid": [0],
        "geometry": [wkb.encode_linestring(
            np.array([[-10.0, 0.0], [10.0, 0.0]]))]})
    out = spatial.spatial_join_lines(rd.from_pandas(lines), zones,
                                     predicate="intersects",
                                     clip="intersection").to_pandas()
    assert len(out) == 1 and out.clip_len.iloc[0] == 8.0
    g = wkb.decode(bytes(out.clip_geometry.iloc[0]))
    np.testing.assert_array_equal(g["rings"][0], [[-4, 0], [4, 0]])
    out2 = spatial.spatial_join_lines(rd.from_pandas(lines), zones,
                                      predicate="intersects",
                                      clip="difference").to_pandas()
    assert len(out2) == 1 and out2.clip_len.iloc[0] == 12.0


def _cover_cells(geoms) -> np.ndarray:
    """The shuffle joins' bbox cover cells of these geometries."""
    from pythongis_ray import grid
    from pythongis_ray.geom import wkb

    bb = np.array([wkb.bbox(g) for g in geoms], np.float64)
    return grid.bboxes_to_cells(bb[:, 0], bb[:, 1], bb[:, 2], bb[:, 3],
                                res=spatial.DEFAULT_INDEX_RES)[1]


def _cover_salt_plan(geoms, rows_per_task: int) -> dict:
    """The geometry shuffle join's salt plan for these left geometries
    (one batch): bbox cover-cell counts fed to ``plan_salts``."""
    cell, n = np.unique(_cover_cells(geoms), return_counts=True)
    return spatial.plan_salts(pd.DataFrame({"cell": cell, "n": n}),
                              rows_per_task)


def test_lines_shuffle_matches_broadcast(ray_session):
    """The big-x-big line shuffle join must emit exactly the broadcast
    join's pair set — once per pair (canonical-cell rule), across
    multi-cell lines, hash-collided buckets and salted hot cells."""
    import ray.data as rd

    from pythongis_ray.geom import wkb

    rng = np.random.default_rng(11)
    n = 400
    ax = rng.uniform(-60, 60, n).round(2)
    ay = rng.uniform(-40, 40, n).round(2)
    bx = (ax + rng.uniform(-15, 15, n)).round(2)
    by = (ay + rng.uniform(-15, 15, n)).round(2)
    lines = pd.DataFrame({
        "lid": np.arange(n, dtype=np.int64),
        "geometry": [wkb.encode_linestring(np.array([[x1, y1], [x2, y2]]))
                     for x1, y1, x2, y2 in zip(ax, ay, bx, by)]})
    zx = rng.uniform(-60, 60, 30).round(2)
    zy = rng.uniform(-40, 40, 30).round(2)
    zones = pd.DataFrame({
        "zone_id": np.arange(30, dtype=np.int64),
        "geometry": [wkb.encode_polygon([np.array(
            [[x, y], [x + 8, y], [x + 8, y + 6], [x, y + 6], [x, y]])])
            for x, y in zip(zx, zy)]})
    # rows_per_task=3 salts the cells covered by >3 lines (at most 9
    # here), so the salted branch really runs
    assert _cover_salt_plan(lines.geometry, 3)
    for pred in ("intersects", "within", "crosses"):
        want = spatial.spatial_join_lines(
            rd.from_pandas(lines), zones, predicate=pred) \
            .to_pandas()[["lid", "zone_id"]]
        got = spatial.spatial_join_lines_shuffle(
            rd.from_pandas(lines), rd.from_pandas(zones), predicate=pred,
            num_buckets=16, rows_per_task=3) \
            .to_pandas()[["lid", "zone_id"]]
        a = set(map(tuple, want.to_numpy()))
        b = set(map(tuple, got.to_numpy()))
        assert a == b, (pred, len(a), len(b),
                        list(a - b)[:5], list(b - a)[:5])
        assert len(got) == len(b)       # exactly-once emission


def _random_boxes(seed: int, n: int, nz: int):
    """``n`` random left boxes (``pid``) and ``nz`` zone boxes."""
    from pythongis_ray.geom import wkb

    rng = np.random.default_rng(seed)
    px = rng.uniform(-60, 60, n).round(2)
    py = rng.uniform(-40, 40, n).round(2)
    pw = rng.uniform(1, 12, n).round(2)
    ph = rng.uniform(1, 10, n).round(2)
    polys = pd.DataFrame({
        "pid": np.arange(n, dtype=np.int64),
        "geometry": [wkb.encode_polygon([np.array(
            [[x, y], [x + w, y], [x + w, y + h], [x, y + h], [x, y]])])
            for x, y, w, h in zip(px, py, pw, ph)]})
    zx = rng.uniform(-60, 60, nz).round(2)
    zy = rng.uniform(-40, 40, nz).round(2)
    zones = pd.DataFrame({
        "zone_id": np.arange(nz, dtype=np.int64),
        "geometry": [wkb.encode_polygon([np.array(
            [[x, y], [x + 9, y], [x + 9, y + 7], [x, y + 7], [x, y]])])
            for x, y in zip(zx, zy)]})
    return polys, zones


def test_polygons_shuffle_matches_broadcast(ray_session, monkeypatch):
    """Polygon-left big×big shuffle join == broadcast polygon join
    for intersects and overlaps, and its salt plan is ``plan_salts``
    over the cover-cell counts of the whole left, also when a cell is
    hot only once the per-block counts are summed."""
    import ray.data as rd

    polys, zones = _random_boxes(13, 300, 25)
    assert _cover_salt_plan(polys.geometry, 3)  # salted branch runs
    # two nearly equal big boxes, one per block: each of their ~5,000
    # shared cover cells holds one left row per block, so at
    # rows_per_task=1 it is hot in the whole left and in no block
    big = [_square(-70.0, -40.0, 100.0), _square(-69.5, -39.5, 100.0)]
    blocks = [pd.DataFrame({"pid": np.array([1000 + i], np.int64),
                            "geometry": [g]}) for i, g in enumerate(big)]
    assert not _cover_salt_plan(big[:1], 1)
    assert not _cover_salt_plan(big[1:], 1)
    assert len(_cover_salt_plan(big, 1)) > 4000
    plans = []
    plan_salts = spatial.plan_salts

    def spy(*args):
        plans.append(plan_salts(*args))
        return plans[-1]

    monkeypatch.setattr(spatial, "plan_salts", spy)
    for left, geoms, rows_per_task in ((polys, polys.geometry, 3),
                                       (blocks, big, 1)):
        for pred in ("intersects", "overlaps"):
            want = spatial.spatial_join_polygons(
                rd.from_pandas(left), zones, predicate=pred) \
                .to_pandas()[["pid", "zone_id"]]
            got = spatial.spatial_join_polygons_shuffle(
                rd.from_pandas(left), rd.from_pandas(zones), predicate=pred,
                num_buckets=16, rows_per_task=rows_per_task) \
                .to_pandas()[["pid", "zone_id"]]
            assert plans[-1] == _cover_salt_plan(geoms, rows_per_task), pred
            a = set(map(tuple, want.to_numpy()))
            b = set(map(tuple, got.to_numpy()))
            assert a == b, (pred, len(a), len(b),
                            list(a - b)[:5], list(b - a)[:5])
            assert len(got) == len(b)
    assert len(b) > 0


def test_shuffle_joins_run_left_lineage_once(ray_session, zones, tmp_path):
    """A point- and a polygon-left shuffle join with a salt plan run the
    left's lineage once: a UDF over the left input sees each of its rows
    exactly once (no re-run for the cell counts, the keying or a
    schema peek)."""
    import uuid

    import pyarrow as pa
    import ray.data as rd

    from pythongis_ray import grid

    def recorded(frame, id_col):
        """``frame`` in three blocks behind a UDF that saves the ids of
        each batch it sees to its own file."""
        out = tmp_path / uuid.uuid4().hex
        out.mkdir()

        def record(batch: pa.Table) -> pa.Table:
            np.save(out / f"{uuid.uuid4().hex}.npy", batch[id_col].to_numpy())
            return batch

        k = -(-len(frame) // 3)
        ds = rd.from_pandas([frame.iloc[i:i + k]
                             for i in range(0, len(frame), k)]).map_batches(
            record, batch_format="pyarrow")
        return ds, lambda: np.sort(np.concatenate(
            [np.load(f) for f in out.glob("*.npy")]))

    pts = make_points(1500)
    _, n = np.unique(grid.point_to_cell(pts.lon.to_numpy(), pts.lat.to_numpy(),
                                        spatial.DEFAULT_INDEX_RES),
                     return_counts=True)
    assert n.max() > 20   # salted
    left, seen = recorded(pts, "pid")
    out = spatial.spatial_join_shuffle(
        left, rd.from_pandas(zones), predicate="within",
        rows_per_task=20).to_pandas()
    assert len(out) > 100
    np.testing.assert_array_equal(seen(), np.sort(pts.pid.to_numpy()))

    polys, pzones = _random_boxes(13, 300, 25)
    assert _cover_salt_plan(polys.geometry, 3)
    left, seen = recorded(polys, "pid")
    out = spatial.spatial_join_polygons_shuffle(
        left, rd.from_pandas(pzones), num_buckets=16,
        rows_per_task=3).to_pandas()
    assert len(out) > 0
    np.testing.assert_array_equal(seen(), polys.pid.to_numpy())


def test_shuffle_join_runs_one_sort_and_no_schema_peek(ray_session, zones,
                                                       monkeypatch):
    """A salted point shuffle join over pandas-backed zones runs at most
    one sort shuffle (the bucket co-location; the salt plan's cell
    counts are combined on the driver) and no ``limit=1`` schema peek
    (the zone covers are materialized once), counted from the plans
    the streaming executor runs."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from pythongis_ray import grid

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

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    pts = make_points(1500)
    _, n = np.unique(grid.point_to_cell(pts.lon.to_numpy(), pts.lat.to_numpy(),
                                        spatial.DEFAULT_INDEX_RES),
                     return_counts=True)
    assert n.max() > 20   # salted
    out = spatial.spatial_join_shuffle(
        rd.from_pandas(pts), rd.from_pandas(zones), predicate="within",
        rows_per_task=20).to_pandas()
    got = set(zip(out.pid.astype(int), out.zone_id.astype(int)))
    assert got == oracle_rect_join(pts, zones)
    peeks = sum(any(type(op).__name__ == "LimitOperator"
                    and op._limit == 1 for op in ops) for ops in plans)
    sorts = sum(type(op).__name__ == "AllToAllOperator"
                and op.name.startswith("Sort")
                for ops in plans for op in ops)
    assert peeks == 0
    assert sorts <= 1


def test_radius_join_geoms_matches_bruteforce(ray_session):
    import ray.data as rd

    from pythongis_ray.geom import algo, wkb

    rng = np.random.default_rng(17)
    lines = []
    for i in range(30):
        pts = rng.uniform(-20, 20, (int(rng.integers(2, 4)), 2)).round(2)
        lines.append(wkb.encode_linestring(pts))
    right = pd.DataFrame({"lid": np.arange(30, dtype=np.int64),
                          "geometry": lines})
    px = rng.uniform(-25, 25, 200).round(2)
    py = rng.uniform(-25, 25, 200).round(2)
    left = pd.DataFrame({"pid": np.arange(200, dtype=np.int64),
                         "lon": px, "lat": py})
    R = 3.0
    out = spatial.radius_join_geoms(rd.from_pandas(left), right, radius=R,
                                    id_col="lid").to_pandas()
    A, B, F = [], [], []
    for i, b in enumerate(lines):
        g = wkb.decode(b)["rings"][0]
        A.append(g[:-1])
        B.append(g[1:])
        F.append(np.full(len(g) - 1, i))
    A, B, F = np.vstack(A), np.vstack(B), np.concatenate(F)
    got = set(map(tuple, out[["pid", "nn_id"]].to_numpy()))
    want = set()
    for p in range(200):
        d2 = algo.points_to_segments_sq_pairwise(
            np.full(len(A), px[p]), np.full(len(A), py[p]),
            A[:, 0], A[:, 1], B[:, 0], B[:, 1])
        per = np.full(30, np.inf)
        np.minimum.at(per, F, d2)
        for f in np.flatnonzero(per <= R * R):
            want.add((p, f))
    assert got == want
    # reported distance is the exact per-feature min
    for _, row in out.iterrows():
        d2 = algo.points_to_segments_sq_pairwise(
            np.full(len(A), row.lon), np.full(len(A), row.lat),
            A[:, 0], A[:, 1], B[:, 0], B[:, 1])
        per = np.full(30, np.inf)
        np.minimum.at(per, F, d2)
        assert row.nn_dist_sq == per[int(row.nn_id)]


def test_lines_shuffle_checkpoint_resume(ray_session, tmp_path):
    """Killing after the phase-1 checkpoint and re-running with the
    same dir reproduces the identical pair set (resume skips the
    completed partitions), for line-left and polygon-left joins."""
    import ray.data as rd

    from pythongis_ray.geom import wkb

    rng = np.random.default_rng(21)
    n = 120
    ax = rng.uniform(-40, 40, n).round(2)
    ay = rng.uniform(-30, 30, n).round(2)
    lines = pd.DataFrame({
        "lid": np.arange(n, dtype=np.int64),
        "geometry": [wkb.encode_linestring(
            np.array([[x, y], [x + 6, y + 4]]))
            for x, y in zip(ax, ay)]})
    zones = pd.DataFrame({
        "zone_id": np.arange(10, dtype=np.int64),
        "geometry": [wkb.encode_polygon([np.array(
            [[x, y], [x + 12, y], [x + 12, y + 9], [x, y + 9], [x, y]])])
            for x, y in zip(rng.uniform(-40, 40, 10).round(2),
                            rng.uniform(-30, 30, 10).round(2))]})
    polys = pd.DataFrame({
        "lid": np.arange(n, dtype=np.int64),
        "geometry": [wkb.encode_polygon([np.array(
            [[x, y], [x + 5, y], [x + 5, y + 3], [x, y + 3], [x, y]])])
            for x, y in zip(ax, ay)]})
    for left, shuffle, broadcast in (
            (lines, spatial.spatial_join_lines_shuffle,
             spatial.spatial_join_lines),
            (polys, spatial.spatial_join_polygons_shuffle,
             spatial.spatial_join_polygons)):
        ck = str(tmp_path / shuffle.__name__)
        first = shuffle(rd.from_pandas(left), rd.from_pandas(zones),
                        num_buckets=8, checkpoint_dir=ck).to_pandas()
        # second run resumes from the existing checkpoint
        second = shuffle(rd.from_pandas(left), rd.from_pandas(zones),
                         num_buckets=8, checkpoint_dir=ck).to_pandas()
        a = sorted(map(tuple, first[["lid", "zone_id"]].to_numpy()))
        b = sorted(map(tuple, second[["lid", "zone_id"]].to_numpy()))
        assert a == b, shuffle.__name__
        want = broadcast(rd.from_pandas(left), zones).to_pandas()
        c = sorted(map(tuple, want[["lid", "zone_id"]].to_numpy()))
        assert a == c, shuffle.__name__
        assert len(a) > 0, shuffle.__name__


# ------------------------------------- dwithin_self_pairs (exactly-once)

def _brute_pairs(ids, ix, iy, eps):
    out = {}
    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            d2 = int(ix[i] - ix[j]) ** 2 + int(iy[i] - iy[j]) ** 2
            if d2 <= eps * eps:
                a, b = sorted((int(ids[i]), int(ids[j])))
                out[(a, b)] = d2
    return out


def _pairs_df(ids, ix, iy, eps, **kw):
    import ray.data as rd
    ds = rd.from_pandas(pd.DataFrame({
        "pk": ids.astype(np.int64), "ix": ix.astype(np.int64),
        "iy": iy.astype(np.int64)}))
    got = spatial.dwithin_self_pairs(ds, "pk", "ix", "iy", eps=eps,
                                     **kw).to_pandas()
    return got


def test_dwithin_self_pairs_brute(ray_session):
    rng = np.random.default_rng(7)
    n = 600
    # clustered + uniform mix, duplicated coords, exact-eps distances
    ix = np.concatenate([rng.integers(0, 400, n // 2),
                         rng.integers(0, 100000, n // 2 - 4),
                         [500, 500 + 96, 777, 777]])
    iy = np.concatenate([rng.integers(0, 400, n // 2),
                         rng.integers(0, 100000, n // 2 - 4),
                         [9000, 9000, 42, 42]])
    ids = np.arange(n) * 3 + 1
    want = _brute_pairs(ids, ix, iy, 96)
    got = _pairs_df(ids, ix, iy, 96)
    have = {(int(a), int(b)): int(d) for a, b, d in
            zip(got["id_a"], got["id_b"], got["d2"])}
    assert len(got) == len(have), "duplicate pair emitted"
    assert have == want


def test_dwithin_self_pairs_tile_and_slab(ray_session):
    # larger tile than eps + tiny slab cap exercise the chunked path
    rng = np.random.default_rng(11)
    n = 300
    ix = rng.integers(0, 600, n)
    iy = rng.integers(0, 600, n)
    ids = np.arange(n).astype(np.int64)
    want = _brute_pairs(ids, ix, iy, 50)
    got = _pairs_df(ids, ix, iy, 50, tile=128,
                    max_candidates_per_slab=500)
    have = {(int(a), int(b)): int(d) for a, b, d in
            zip(got["id_a"], got["id_b"], got["d2"])}
    assert len(got) == len(have)
    assert have == want


def test_dwithin_self_pairs_empty(ray_session):
    got = _pairs_df(np.array([1, 2]), np.array([0, 100000]),
                    np.array([0, 100000]), 96)
    assert len(got) == 0


def test_dbscan_brute(ray_session):
    """q_dbscan vs a brute-force reference DBSCAN on sf0.001 customers."""
    from pythongis_ray import queries as q

    cust = pq.read_table(f"{SF}/customer.parquet",
                         columns=["c_custkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64) * 4 + 1
    ix, iy = fixtures.geocode_units(ck)
    n = len(ck)
    eps2 = q.DBSCAN_EPS ** 2
    # brute neighbor counts (self included)
    nbrs = {int(k): set() for k in ck}
    for i in range(n):
        d2 = (ix - ix[i]) ** 2 + (iy - iy[i]) ** 2
        for j in np.flatnonzero(d2 <= eps2):
            if j != i:
                nbrs[int(ck[i])].add(int(ck[j]))
    core = {k for k, s in nbrs.items() if len(s) + 1 >= q.DBSCAN_MINPTS}
    # components over core-core edges (min-label)
    label = {k: k for k in core}
    changed = True
    while changed:
        changed = False
        for k in core:
            for m in nbrs[k]:
                if m in core and label[m] < label[k]:
                    label[k] = label[m]
                    changed = True
    want = {(k, label[k], 1) for k in core}
    for k, s in nbrs.items():
        if k in core:
            continue
        cs = [label[m] for m in s if m in core]
        if cs:
            want.add((k, min(cs), 0))
    got = q.q_dbscan(SF)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    have = {(int(a), int(b), int(c)) for a, b, c in
            zip(got["ck"], got["cluster"], got["core"])}
    assert have == want


def test_ripley_k_brute(ray_session):
    from pythongis_ray import queries as q

    cust = pq.read_table(f"{SF}/customer.parquet",
                         columns=["c_custkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64) * 4 + 1
    ix, iy = fixtures.geocode_units(ck)
    got = q.q_ripley_k(SF)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    for r, np_ in zip(got["r"], got["n_pairs"]):
        n = 0
        for i in range(len(ck)):
            d2 = (ix[i+1:] - ix[i]) ** 2 + (iy[i+1:] - iy[i]) ** 2
            n += int((d2 <= int(r) * int(r)).sum())
        assert int(np_) == n


def test_dwithin_self_pairs_carry_filter(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(3)
    n = 400
    ix = rng.integers(0, 500, n).astype(np.int64)
    iy = rng.integers(0, 500, n).astype(np.int64)
    ids = np.arange(n).astype(np.int64)
    grp = (ids % 7).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame(
        {"pk": ids, "ix": ix, "iy": iy, "grp": grp}))
    got = spatial.dwithin_self_pairs(
        ds, "pk", "ix", "iy", eps=40, carry=("grp",),
        pair_filter=lambda d2, ca, cb: ca["grp"] != cb["grp"]).to_pandas()
    want = {}
    for (a, b), d2 in _brute_pairs(ids, ix, iy, 40).items():
        if a % 7 != b % 7:
            want[(a, b)] = d2
    have = {(int(a), int(b)): int(d) for a, b, d in
            zip(got["id_a"], got["id_b"], got["d2"])}
    assert have == want
    # carried columns align with the canonical order
    assert (got["grp_a"].to_numpy() == got["id_a"].to_numpy() % 7).all()
    assert (got["grp_b"].to_numpy() == got["id_b"].to_numpy() % 7).all()


def _density_grid(sf="/root/testdata/sf0.001"):
    import pandas as pd
    from pythongis_ray import fixtures
    li = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber"])
    pk = li.l_orderkey.to_numpy(np.int64) * 8 \
        + li.l_linenumber.to_numpy(np.int64)
    ix, iy = fixtures.geocode_units(pk)
    df = pd.DataFrame({"cx": np.asarray(ix) // 8192,
                       "cy": np.asarray(iy) // 8192})
    return df.groupby(["cx", "cy"]).size().to_dict()


_D8T = ((1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1))


def _brute_flow(grid):
    """steepest-descent pointer per cell (ties by direction order)."""
    ptr = {}
    for (cx, cy), n in grid.items():
        best = None
        for d, (dx, dy) in enumerate(_D8T):
            m = grid.get((cx + dx, cy + dy))
            if m is not None and m < n and \
                    (best is None or (m, d) < best[:2]):
                best = (m, d, (cx + dx, cy + dy))
        ptr[(cx, cy)] = best[2] if best else (cx, cy)
    return ptr


def test_watershed_brute(ray_session):
    from pythongis_ray import queries as q
    grid = _density_grid()
    ptr = _brute_flow(grid)
    # brute: follow pointers to the fixpoint (sink)
    want = {}
    for c in grid:
        cur = c
        while ptr[cur] != cur:
            cur = ptr[cur]
        want[c] = cur
    got = q.q_watershed("/root/testdata/sf0.001").to_pandas()
    assert len(got) == len(grid)
    for _, r in got.iterrows():
        assert want[(r.cx, r.cy)] == (r.basin_x, r.basin_y)


def test_fill_sinks_brute(ray_session):
    from pythongis_ray import queries as q
    grid = _density_grid()
    BIG = 1 << 60
    # boundary = any missing 8-neighbor; relax to convergence
    inter = {c for c in grid
             if all((c[0] + dx, c[1] + dy) in grid for dx, dy in _D8T)}
    f = {c: (BIG if c in inter else n) for c, n in grid.items()}
    while True:
        changed = False
        for c in grid:
            if c not in inter:
                continue
            m = min(f[(c[0] + dx, c[1] + dy)] for dx, dy in _D8T)
            v = max(grid[c], m)
            if v != f[c]:
                f[c] = v
                changed = True
        if not changed:
            break
    want = {c: (grid[c], f[c]) for c in grid if f[c] > grid[c]}
    got = q.q_fill_sinks("/root/testdata/sf0.001")
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    have = {(int(r.cx), int(r.cy)): (int(r.elev), int(r.filled))
            for _, r in got.iterrows()}
    assert have == want


def test_traj_hausdorff_brute(ray_session):
    """q_traj_hausdorff's chunked reduceat kernel vs an O(n²)
    per-pair recomputation at sf0.001."""
    from pythongis_ray import fixtures
    from pythongis_ray import queries as q

    sf = "/root/testdata/sf0.001"
    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_id", "user_id"])
    ix, iy = fixtures.geocode_units(
        ev.event_id.to_numpy(np.int64) * 4 + 1)
    ev = ev.assign(ix=np.asarray(ix), iy=np.asarray(iy))
    # home tile = location of the user's smallest event_id
    first = ev.sort_values(["user_id", "event_id"]) \
        .groupby("user_id").head(1)
    home = {int(r.user_id): (int(r.ix) // q.TRAJ_CELL,
                             int(r.iy) // q.TRAJ_CELL)
            for _, r in first.iterrows()}
    pts = {u: g[["ix", "iy"]].to_numpy(np.int64)
           for u, g in ev.groupby("user_id")}

    def directed(pa_, pb_):
        return max(min(int((px - qx) ** 2 + (py - qy) ** 2)
                       for qx, qy in pb_) for px, py in pa_)

    want = {}
    users = sorted(pts)
    for i, ua in enumerate(users):
        for ub in users[i + 1:]:
            if home[ua] != home[ub]:
                continue
            want[(ua, ub)] = max(directed(pts[ua], pts[ub]),
                                 directed(pts[ub], pts[ua]))
    out = q.q_traj_hausdorff(sf)
    out = out.to_pandas() if hasattr(out, "to_pandas") else out
    have = {(int(r.user_a), int(r.user_b)): int(r.h2)
            for _, r in out.iterrows()}
    assert have == want


def test_colocation_brute(ray_session):
    """q_colocation participation counts vs O(n²) recomputation."""
    from pythongis_ray import fixtures
    from pythongis_ray import queries as q

    sf = "/root/testdata/sf0.001"
    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_id", "event_type"])
    ix, iy = fixtures.geocode_units(
        ev.event_id.to_numpy(np.int64) * 4 + 1)
    x = np.asarray(ix); y = np.asarray(iy)
    et = ev.event_type.to_numpy()
    n = len(ev)
    eps2 = q.COLOC_EPS ** 2
    part = {}
    for i in range(n):
        d2 = (x - x[i]) ** 2 + (y - y[i]) ** 2
        near = (d2 <= eps2) & (et != et[i])
        near[i] = False
        for other in set(et[near]):
            part.setdefault((et[i], other), set()).add(i)
    want = {k: len(v) for k, v in part.items()}
    out = q.q_colocation(sf).to_pandas()
    have = {(r.type_a, r.type_b): int(r.n_events)
            for _, r in out.iterrows()}
    assert have == want


def test_dwithin_self_pairs_property(ray_session):
    """Randomized robustness sweep for the exactly-once tile kernel:
    duplicate coordinates, tile != eps, degenerate clusters, single
    points — every draw must equal the O(n²) reference."""
    import ray.data as rd
    rng = np.random.default_rng(17)
    for trial in range(8):
        n = int(rng.integers(1, 300))
        span = int(rng.integers(8, 600))
        eps = int(rng.integers(1, 150))
        tile = eps + int(rng.integers(0, 64))
        ix = rng.integers(0, span, n).astype(np.int64)
        iy = rng.integers(0, span, n).astype(np.int64)
        if n > 10:      # force coordinate duplicates
            ix[n // 2:n // 2 + 5] = ix[0]
            iy[n // 2:n // 2 + 5] = iy[0]
        ids = rng.permutation(n).astype(np.int64)
        ds = rd.from_pandas(pd.DataFrame(
            {"pk": ids, "ix": ix, "iy": iy}))
        got = spatial.dwithin_self_pairs(
            ds, "pk", "ix", "iy", eps=eps, tile=tile).to_pandas()
        want = _brute_pairs(ids, ix, iy, eps)
        have = {(int(a), int(b)): int(d) for a, b, d in
                zip(got["id_a"], got["id_b"], got["d2"])}
        assert have == want, (trial, n, span, eps, tile)


def test_flow_length_brute(ray_session):
    from pythongis_ray import queries as q
    grid = _density_grid()
    ptr = _brute_flow(grid)
    want = {}
    for c in grid:
        cur, hops = c, 0
        while ptr[cur] != cur:
            cur = ptr[cur]
            hops += 1
        want[c] = hops
    got = q.q_flow_length("/root/testdata/sf0.001").to_pandas()
    assert len(got) == len(grid)
    for _, r in got.iterrows():
        assert want[(r.cx, r.cy)] == r.flow_len


def test_terrain_aspect_brute(ray_session):
    from pythongis_ray import queries as q
    grid = _density_grid()
    got = q.q_terrain_aspect("/root/testdata/sf0.001").to_pandas()
    # rows = cells with all 8 neighbors
    full = {c for c in grid
            if all((c[0] + dx, c[1] + dy) in grid for dx, dy in _D8T)}
    assert set(zip(got.cx, got.cy)) == full
    for _, r in got.iterrows():
        c = (int(r.cx), int(r.cy))
        e = grid[(c[0] + 1, c[1])]
        w = grid[(c[0] - 1, c[1])]
        s = grid[(c[0], c[1] + 1)]
        n = grid[(c[0], c[1] - 1)]
        se = grid[(c[0] + 1, c[1] + 1)]
        ne = grid[(c[0] + 1, c[1] - 1)]
        sw = grid[(c[0] - 1, c[1] + 1)]
        nw = grid[(c[0] - 1, c[1] - 1)]
        gx = (ne + 2 * e + se) - (nw + 2 * w + sw)
        gy = (sw + 2 * s + se) - (nw + 2 * n + ne)
        assert r.curv == e + w + s + n - 4 * grid[c]
        if gx == 0 and gy == 0:
            assert r.aspect_oct == -1
        else:
            # octant contains the gradient angle (45-degree sectors,
            # left-closed starting at the +x axis)
            import math
            ang = math.atan2(gy, gx) % (2 * math.pi)
            lo = r.aspect_oct * math.pi / 4
            hi = lo + math.pi / 4
            eps = 1e-12
            assert lo - eps <= ang < hi + eps


# ------------------------------- salted shuffle join: declared types

def _buckets(cells, num_buckets: int) -> set:
    """Unsalted shuffle-join buckets of uint64 cells."""
    import pyarrow as pa

    t = spatial._append_keys(pa.table({"x": np.zeros(len(cells))}), cells,
                             np.zeros(len(cells), np.int64), 0, num_buckets)
    return set(t["_bucket"].to_pylist())


def _blocks(ds) -> list:
    """The Dataset's Arrow blocks, less the column-less empty blocks
    Ray emits for a shuffle partition that received no rows."""
    import ray

    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    return [b for b in blocks if b.num_columns or b.num_rows]


def _square(x, y, d):
    from pythongis_ray.geom import wkb

    return wkb.encode_polygon([np.array(
        [[x, y], [x + d, y], [x + d, y + d], [x, y + d], [x, y]])])


def test_shuffle_join_declared_types(ray_session):
    """Point-, line- and polygon-left shuffle joins with int64 left and
    zone attributes emit exactly the declared schema (no float64
    promotion of the null-padded ids, VERDICT #1) in every block, also
    when some buckets hold only left rows or only zone rows, when the
    join matches nothing, and when the left or zone input has no rows
    (Arrow-backed, or pandas-backed with no object column kept)."""
    import pyarrow as pa
    import ray.data as rd

    from pythongis_ray import grid
    from pythongis_ray.geom import wkb

    nb = 64
    # zone 0 holds the hits; zones 1-3 and the left rows at x >= 100
    # are far from everything
    zx = np.array([10.2, -120.0, -60.0, 40.0])
    zy = np.array([10.2, -50.0, 60.0, -40.0])
    zones = pd.DataFrame({"zone_id": np.arange(4, dtype=np.int64) + 7,
                          "pop": np.arange(4, dtype=np.int64) * 1000,
                          "geometry": [_square(x, y, 1.0)
                                       for x, y in zip(zx, zy)]})
    lx = np.concatenate([10.3 + np.arange(6) * 0.1, [100.5, 130.5, 160.5]])
    ly = np.concatenate([10.3 + np.arange(6) * 0.1, [20.5, -30.5, 70.5]])
    n = len(lx)
    ids = {"lid": np.arange(n, dtype=np.int64) * 3,
           "val": np.arange(n, dtype=np.int64) - 4}
    points = pd.DataFrame({**ids, "lon": lx, "lat": ly})
    lines = pd.DataFrame({**ids, "geometry": [wkb.encode_linestring(
        np.array([[x, y], [x + 0.05, y + 0.03]])) for x, y in zip(lx, ly)]})
    polys = pd.DataFrame({**ids, "geometry": [_square(x, y, 0.05)
                                              for x, y in zip(lx, ly)]})

    zb = _buckets(_cover_cells(zones.geometry), nb)
    point_b = _buckets(grid.point_to_cell(lx, ly, spatial.DEFAULT_INDEX_RES),
                       nb)
    for lb in (point_b, _buckets(_cover_cells(lines.geometry), nb),
               _buckets(_cover_cells(polys.geometry), nb)):
        assert lb - zb and zb - lb and lb & zb   # left-only, zone-only, both

    def join(kind, left, zds):
        if kind == "points":
            return spatial.spatial_join_shuffle(
                left, zds, lon_col="lon", lat_col="lat", num_buckets=nb)
        fn = (spatial.spatial_join_lines_shuffle if kind == "lines"
              else spatial.spatial_join_polygons_shuffle)
        return fn(left, zds, num_buckets=nb)

    def arrow(frame, rows=None):
        """An Arrow-backed Dataset of ``frame``'s first ``rows`` rows."""
        return rd.from_arrow(pa.Table.from_pandas(frame, preserve_index=False)
                             .slice(0, rows).replace_schema_metadata())

    for kind, left in (("points", points), ("lines", lines),
                       ("polygons", polys)):
        lschema = pa.Schema.from_pandas(left, preserve_index=False)
        want = pa.schema([lschema.field(c) for c in left.columns]
                         + [pa.field("zone_id", pa.int64()),
                            pa.field("pop", pa.int64())])
        assert want.field("lid").type == pa.int64()
        cases = [(rd.from_pandas(left), rd.from_pandas(zones), 6),
                 (rd.from_pandas(left), rd.from_pandas(zones.iloc[1:]), 0),
                 (rd.from_pandas(left), rd.from_pandas(zones.iloc[:0]), 0),
                 (arrow(left, 0), arrow(zones), 0),
                 (arrow(left), arrow(zones, 0), 0)]
        if kind == "points":   # an empty pandas object column has no type
            cases.append((rd.from_pandas(left.iloc[:0]),
                          rd.from_pandas(zones), 0))
        for lds, zds, n_hits in cases:
            blocks = _blocks(join(kind, lds, zds))
            assert blocks, kind
            for b in blocks:
                assert b.schema == want, (kind, b.schema)
                assert b.schema.metadata is None, kind
            out = pa.concat_tables(blocks)
            assert out.num_rows == n_hits, kind
            if n_hits:
                assert sorted(out["lid"].to_pylist()) == \
                    sorted(ids["lid"][:6].tolist()), kind
                assert set(out["zone_id"].to_pylist()) == {7}, kind
                assert set(out["pop"].to_pylist()) == {0}, kind


def test_shuffle_join_blocks_have_hashable_schemas(ray_session, zones,
                                                   tmp_path):
    """Every block of ``pages_dataset`` and of a shuffle join hashes its
    schema, and so does every partition ``write_partitioned`` writes
    from it: a ``pandas`` metadata dict makes ``Schema.__hash__`` raise
    and sends Ray's schema unification off its same-schema fast path."""
    import glob

    import ray.data as rd

    from pythongis_ray import checkpoint as ckpt
    from pythongis_ray import pages

    pts = pages.pages_dataset(SF, columns=["page_id", "url", "lon", "lat"])
    joined = spatial.spatial_join_shuffle(
        pts, rd.from_pandas(zones[["zone_id", "name", "geometry"]]),
        predicate="within", rows_per_task=20, num_buckets=8)
    for ds in (pages.pages_dataset(SF), joined):
        blocks = _blocks(ds)
        assert sum(b.num_rows for b in blocks) > 0
        for b in blocks:
            hash(b.schema)
    ckpt.write_partitioned(joined, str(tmp_path), key_col="page_id",
                           num_partitions=4, resume=False)
    files = glob.glob(f"{tmp_path}/part=*/data.parquet")
    assert files
    for f in files:
        assert pq.read_schema(f).metadata is None, f


def _to_pandas_sink_format(cdir):
    """Rewrite every partition of a shuffle-join checkpoint dir as the
    older pandas partition sink wrote it: Arrow → pandas → Arrow, so
    the null-padded int64 columns are double and the schema carries
    ``pandas`` metadata."""
    import glob

    import pyarrow as pa

    for f in glob.glob(f"{cdir}/part=*/data.parquet"):
        t = pq.read_table(f).to_pandas()
        pq.write_table(pa.Table.from_pandas(t, preserve_index=False), f)


def test_shuffle_join_resumes_pandas_sink_checkpoint(ray_session, zones,
                                                     tmp_path):
    """A checkpoint dir in the older pandas-sink format resumes to the
    same rows in the declared types, complete or partly complete (the
    missing partitions then come from the Arrow sink, so int64 and
    double files mix)."""
    import os
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from pythongis_ray import checkpoint as ckpt

    pts = make_points(800)
    zds = rd.from_pandas(zones[["zone_id", "geometry"]])

    def run(cdir):
        return _blocks(spatial.spatial_join_shuffle(
            rd.from_pandas(pts), zds, predicate="within", rows_per_task=20,
            num_buckets=8, checkpoint_dir=cdir))

    def part_types(cdir):
        return {pq.read_schema(f"{cdir}/part={p}/data.parquet")
                .field("pid").type for p in ckpt.completed_partitions(cdir)}

    cdir = str(tmp_path / "phase1")
    first = pa.concat_tables(run(cdir))
    want = first.schema
    assert want.field("pid").type == pa.int64()
    assert want.field("zone_id").type == pa.int64()
    assert part_types(cdir) == {pa.int64()}
    key = sorted(zip(first["pid"].to_pylist(), first["zone_id"].to_pylist()))
    assert len(key) > 100

    _to_pandas_sink_format(cdir)
    assert part_types(cdir) == {pa.float64()}
    done = sorted(ckpt.completed_partitions(cdir))
    assert b"pandas" in pq.read_schema(
        f"{cdir}/part={done[0]}/data.parquet").metadata
    for partial in (False, True):
        if partial:
            for p in done[::2]:
                shutil.rmtree(os.path.join(cdir, f"part={p}"))
                os.remove(os.path.join(cdir, "_manifest", f"part-{p}.json"))
        blocks = run(cdir)
        for b in blocks:
            assert b.schema == want, (partial, b.schema)
            hash(b.schema)
        out = pa.concat_tables(blocks)
        assert sorted(zip(out["pid"].to_pylist(),
                          out["zone_id"].to_pylist())) == key, partial
    assert part_types(cdir) == {pa.int64(), pa.float64()}
