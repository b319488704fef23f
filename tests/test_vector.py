import numpy as np
import pandas as pd
import pytest

from pythongis_ray import vector
from pythongis_ray.geom import algo, geodesy, wkb


def rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)


def test_buffer_points_planar(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"pid": [1, 2], "lon": [10.0, 20.0], "lat": [0.0, 5.0]})
    out = vector.buffer_points(rd.from_pandas(df), 2.0, n=32).to_pandas()
    g = wkb.decode(bytes(out.geometry.iloc[0]))
    ring = g["rings"][0]
    d = np.hypot(ring[:, 0] - 10.0, ring[:, 1] - 0.0)
    assert np.allclose(d, 2.0)


def test_buffer_points_geodetic(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"pid": [1], "lon": [10.0], "lat": [45.0]})
    out = vector.buffer_points(rd.from_pandas(df), 10000.0, geodetic=True, n=8).to_pandas()
    ring = wkb.decode(bytes(out.geometry.iloc[0]))["rings"][0]
    d = geodesy.vincenty_inverse_m(np.full(8, 10.0), np.full(8, 45.0),
                                   ring[:-1, 0], ring[:-1, 1])
    assert np.allclose(d, 10000.0, atol=0.01)


def test_centroids_and_vertices(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"zid": [1], "geometry": [wkb.encode_polygon([rect(0, 0, 4, 8)])]})
    cent = vector.centroids(rd.from_pandas(df)).to_pandas()
    assert (cent.lon.iloc[0], cent.lat.iloc[0]) == (2.0, 4.0)
    verts = vector.to_vertices(rd.from_pandas(df)).to_pandas()
    assert len(verts) == 5  # closed ring vertices


def test_simplify_collinear(ray_session):
    import ray.data as rd

    line = np.array([[0, 0], [1, 0.001], [2, 0], [3, 0.001], [10, 0]], float)
    df = pd.DataFrame({"geometry": [wkb.encode_linestring(line)]})
    out = vector.simplify(rd.from_pandas(df), 0.01).to_pandas()
    pts = wkb.decode(bytes(out.geometry.iloc[0]))["rings"][0]
    assert len(pts) == 2  # collapses to endpoints
    out2 = vector.simplify(rd.from_pandas(df), 0.0001).to_pandas()
    pts2 = wkb.decode(bytes(out2.geometry.iloc[0]))["rings"][0]
    assert len(pts2) == 5  # everything kept


def test_clean_drops_nonfinite_and_null(ray_session):
    import ray.data as rd

    bad = wkb.encode_linestring(np.array([[0, 0], [np.nan, 1], [2, 2]]))
    df = pd.DataFrame({"geometry": [wkb.encode_point(1, 2), None, bad]})
    out = vector.clean(rd.from_pandas(df)).to_pandas()
    assert len(out) == 2
    fixed = wkb.decode(bytes(out.geometry.iloc[1]))["rings"][0]
    assert len(fixed) == 2  # NaN vertex dropped


def test_reproject_roundtrip(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"lon": [12.5, -100.0], "lat": [41.9, 45.0]})
    fwd = vector.reproject(rd.from_pandas(df), "to_webmercator").to_pandas()
    # canonical check: lon 12.5 → x = 12.5/180 * 20037508.34
    assert np.isclose(fwd.x.iloc[0], 12.5 / 180 * 20037508.342789244)
    inv = vector.reproject(rd.from_pandas(fwd[["x", "y"]]), "to_lonlat").to_pandas()
    assert np.allclose(inv.lon, df.lon) and np.allclose(inv.lat, df.lat)


def test_connect_great_circle(ray_session):
    import ray.data as rd

    left = pd.DataFrame({"k": [1], "lon": [0.0], "lat": [0.0]})
    right = pd.DataFrame({"k": [1], "lon": [90.0], "lat": [0.0]})
    out = vector.connect(rd.from_pandas(left), right, on="k", segments=4).to_pandas()
    path = wkb.decode(bytes(out.geometry.iloc[0]))["rings"][0]
    assert len(path) == 5
    assert np.allclose(path[:, 1], 0.0, atol=1e-9)  # equator stays equator
    assert path[0, 0] == 0.0 and np.isclose(path[-1, 0], 90.0)

    # every row matches great_circle_path, coincident endpoints included
    left = pd.DataFrame({"k": [1, 2, 3], "lon": [0.0, 12.5, -30.0],
                         "lat": [0.0, -7.25, 45.0]})
    right = pd.DataFrame({"k": [1, 2, 3], "lon": [90.0, 12.5, 60.0],
                          "lat": [0.0, -7.25, -10.0]})
    out = vector.connect(rd.from_pandas(left), right, on="k",
                         segments=4).to_pandas().sort_values("k")
    for k, g in zip(out.k, out.geometry):
        a, b = left[left.k == k].iloc[0], right[right.k == k].iloc[0]
        exp = vector.great_circle_path(a.lon, a.lat, b.lon, b.lat, n=4)
        got = wkb.decode(bytes(g))["rings"][0]
        assert got.shape == exp.shape
        np.testing.assert_allclose(got, exp, rtol=0, atol=1e-12)


def test_crop_points_and_polys(ray_session):
    import ray.data as rd

    pts = pd.DataFrame({"lon": [1.0, 50.0], "lat": [1.0, 50.0]})
    out = vector.crop(rd.from_pandas(pts), (0, 0, 10, 10)).to_pandas()
    assert len(out) == 1
    polys = pd.DataFrame({"geometry": [wkb.encode_polygon([rect(5, 5, 15, 15)]),
                                       wkb.encode_polygon([rect(50, 50, 60, 60)])]})
    outp = vector.crop(rd.from_pandas(polys), (0, 0, 10, 10),
                       geometry_col="geometry").to_pandas()
    assert len(outp) == 1
    clipped = wkb.decode(bytes(outp.geometry.iloc[0]))["rings"][0]
    assert algo.polygon_area([clipped]) == 25.0


def test_describe(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"a": [1.0, 2.0, None, 4.0], "b": ["x", None, "y", "z"]})
    out = vector.describe(rd.from_pandas(df)).set_index("column")
    assert out.loc["a", "n"] == 4 and out.loc["a", "missing"] == 1
    assert out.loc["a", "min"] == 1.0 and out.loc["a", "max"] == 4.0
    assert out.loc["a", "mean"] == 7.0 / 3
    assert out.loc["b", "missing"] == 1


def test_snap_vertices(ray_session):
    import ray.data as rd

    targets = pd.DataFrame({"lon": [10.0, 20.0], "lat": [10.0, 20.0]})
    # line with one vertex near (10,10) and one far from anything
    line = wkb.encode_linestring(np.array([[10.05, 10.02], [15.0, 15.0]]))
    pt = wkb.encode_point(19.99, 20.01)
    df = pd.DataFrame({"gid": [1, 2], "geometry": [line, pt]})
    out = vector.snap(rd.from_pandas(df), targets, tolerance=0.1) \
        .to_pandas().sort_values("gid")
    l2 = wkb.decode(bytes(out.geometry.iloc[0]))["rings"][0]
    assert l2[0].tolist() == [10.0, 10.0]     # snapped
    assert l2[1].tolist() == [15.0, 15.0]     # out of tolerance, unmoved
    p2 = wkb.decode(bytes(out.geometry.iloc[1]))["rings"][0][0]
    assert p2.tolist() == [20.0, 20.0]


def test_snap_target_order_independent(ray_session):
    """Regression: GridKnnJoiner sorts targets by (cell, id), not by id
    — snap must map returned ids back through an inverse permutation,
    not searchsorted on the unsorted id array (round-1 advisor bug:
    a vertex near (10,10) snapped to (50,50))."""
    import ray.data as rd

    # target id order deliberately opposite to spatial (cell) order:
    # id 0 sits at (50,50) (a LATER cell), id 1 at (10,10)
    targets = pd.DataFrame({"lon": [50.0, 10.0], "lat": [50.0, 10.0]})
    line = wkb.encode_linestring(np.array([[10.05, 10.02], [49.98, 50.01]]))
    df = pd.DataFrame({"gid": [1], "geometry": [line]})
    out = vector.snap(rd.from_pandas(df), targets, tolerance=0.1).to_pandas()
    l2 = wkb.decode(bytes(out.geometry.iloc[0]))["rings"][0]
    assert l2[0].tolist() == [10.0, 10.0]
    assert l2[1].tolist() == [50.0, 50.0]


def test_cut_line_by_cutter(ray_session):
    import ray.data as rd

    # horizontal line crossed by a vertical cutter at x=5
    line = wkb.encode_linestring(np.array([[0.0, 0.0], [10.0, 0.0]]))
    cutter = pd.DataFrame({"geometry": [
        wkb.encode_linestring(np.array([[5.0, -1.0], [5.0, 1.0]]))]})
    df = pd.DataFrame({"gid": [7], "geometry": [line]})
    out = vector.cut(rd.from_pandas(df), cutter).to_pandas()
    assert len(out) == 2
    pieces = [wkb.decode(bytes(b))["rings"][0] for b in out.geometry]
    assert pieces[0].tolist() == [[0.0, 0.0], [5.0, 0.0]]
    assert pieces[1].tolist() == [[5.0, 0.0], [10.0, 0.0]]
    assert out.gid.tolist() == [7, 7]
    assert out.piece.tolist() == [0, 1]


def test_cut_no_intersection_passthrough(ray_session):
    import ray.data as rd

    line = wkb.encode_linestring(np.array([[0.0, 0.0], [1.0, 0.0]]))
    cutter = pd.DataFrame({"geometry": [
        wkb.encode_linestring(np.array([[50.0, -1.0], [50.0, 1.0]]))]})
    out = vector.cut(rd.from_pandas(pd.DataFrame({"gid": [1], "geometry": [line]})),
                     cutter).to_pandas()
    assert len(out) == 1 and out.piece.iloc[0] == 0


def test_centroids_multi_and_fallback(ray_session):
    import ray.data as rd

    from pythongis_ray.geom import algo

    # MultiPolygon (second part subtracts per polygon_centroid's
    # convention), LineString fallback, Point, and a null row
    mp = wkb.encode_multi("MultiPolygon", [[rect(0, 0, 4, 4)],
                                      [rect(10, 0, 2, 2)]])
    line = wkb.encode_linestring(np.array([[0.0, 0.0], [4.0, 8.0]]))
    pt = wkb.encode_point(1.5, 2.5)
    df = pd.DataFrame({"geometry": [mp, line, pt]})
    out = vector.centroids(rd.from_pandas(df)).to_pandas()
    want = algo.polygon_centroid(
        [rect(0, 0, 4, 4), rect(10, 0, 2, 2)])
    assert abs(out.lon.iloc[0] - want[0]) < 1e-12
    assert abs(out.lat.iloc[0] - want[1]) < 1e-12
    assert (out.lon.iloc[1], out.lat.iloc[1]) == (2.0, 4.0)
    assert (out.lon.iloc[2], out.lat.iloc[2]) == (1.5, 2.5)


def test_buffer_line_square_rectilinear_exact(ray_session):
    """Square-cap buffer of a rectilinear L-line = union of the two
    cap-extended axis-aligned rectangles, exactly."""
    import ray.data as rd

    from pythongis_ray import vector
    from pythongis_ray.geom import algo, wkb

    line = wkb.encode_linestring(np.array([[0., 0.], [4., 0.], [4., 3.]]))
    ds = rd.from_pandas(pd.DataFrame({"fid": [1], "geometry": [line]}))
    out = vector.buffer(ds, 0.5, cap="square").to_pandas()
    g = wkb.decode(bytes(out["geometry"].iloc[0]))
    pp = algo.PreparedPolygon(g["rings"], g.get("ring_part"))
    # R1=[-.5,4.5]x[-.5,.5]  R2=[3.5,4.5]x[-.5,3.5]
    cases = [((0, 0), True), ((4, 3), True), ((4.4, 3.4), True),
             ((-0.4, 0.4), True), ((2, 1), False), ((4.6, 0), False),
             ((3.6, 2.0), True), ((3.4, 2.0), False),
             ((2.0, 0.49), True), ((2.0, 0.51), False)]
    for (x, y), want in cases:
        got = bool(pp.covers_points(np.array([x], float),
                                    np.array([y], float))[0])
        assert got == want, ((x, y), got, want)


def test_buffer_line_round_distance_semantics(ray_session):
    """Round buffer ≈ the distance-d sausage: points clearly inside d
    are covered, clearly outside are not (k-gon arc tolerance)."""
    import ray.data as rd

    from pythongis_ray import vector
    from pythongis_ray.geom import algo, wkb

    line = wkb.encode_linestring(np.array([[0., 0.], [10., 0.]]))
    ds = rd.from_pandas(pd.DataFrame({"geometry": [line]}))
    out = vector.buffer(ds, 1.0, cap="round", n=64).to_pandas()
    g = wkb.decode(bytes(out["geometry"].iloc[0]))
    pp = algo.PreparedPolygon(g["rings"], g.get("ring_part"))
    assert pp.covers_points(np.array([5.0]), np.array([0.95]))[0]
    assert not pp.covers_points(np.array([5.0]), np.array([1.05]))[0]
    assert pp.covers_points(np.array([-0.9]), np.array([0.0]))[0]
    assert not pp.covers_points(np.array([-1.1]), np.array([0.0]))[0]
    assert pp.covers_points(np.array([10.6]), np.array([0.6]))[0]


def test_buffer_polygon_dilation_with_hole(ray_session):
    import ray.data as rd

    from pythongis_ray import vector
    from pythongis_ray.geom import algo, wkb

    poly = wkb.encode_polygon([
        np.array([[0., 0.], [10., 0.], [10., 10.], [0., 10.], [0., 0.]]),
        np.array([[4., 4.], [6., 4.], [6., 6.], [4., 6.], [4., 4.]])])
    ds = rd.from_pandas(pd.DataFrame({"geometry": [poly]}))
    out = vector.buffer(ds, 1.0, cap="round", n=32).to_pandas()
    g = wkb.decode(bytes(out["geometry"].iloc[0]))
    pp = algo.PreparedPolygon(g["rings"], g.get("ring_part"))
    assert pp.covers_points(np.array([-0.9]), np.array([5.0]))[0]  # grew
    assert not pp.covers_points(np.array([-1.1]), np.array([5.0]))[0]
    assert pp.covers_points(np.array([4.5]), np.array([4.5]))[0]   # hole gone
    # a 2x2 hole dilated by 1 closes completely
    assert pp.covers_points(np.array([5.0]), np.array([5.0]))[0]


def test_buffer_point_matches_buffer_points(ray_session):
    import ray.data as rd

    from pythongis_ray import vector
    from pythongis_ray.geom import algo, wkb

    pt = wkb.encode_point(3.0, 4.0)
    ds = rd.from_pandas(pd.DataFrame({"geometry": [pt]}))
    out = vector.buffer(ds, 2.0, n=32).to_pandas()
    g = wkb.decode(bytes(out["geometry"].iloc[0]))
    pp = algo.PreparedPolygon(g["rings"], g.get("ring_part"))
    assert pp.covers_points(np.array([3.0]), np.array([5.8]))[0]
    assert not pp.covers_points(np.array([3.0]), np.array([6.1]))[0]


def test_reproject_albers_lcc_roundtrip(ray_session):
    import ray.data as rd

    from pythongis_ray import vector

    df = pd.DataFrame({"lon": np.linspace(-110, -80, 50),
                       "lat": np.linspace(25, 48, 50)})
    for kind in ("albers", "lcc"):
        ds = vector.reproject(rd.from_pandas(df), f"to_{kind}",
                              lon0=-96.0, lat0=23.0, lat1=29.5, lat2=45.5)
        back = vector.reproject(
            ds.drop_columns(["lon", "lat"]), f"from_{kind}",
            lon0=-96.0, lat0=23.0, lat1=29.5, lat2=45.5).to_pandas()
        assert np.abs(back["lon"].to_numpy() - df["lon"].to_numpy()).max() \
            < 1e-9
        assert np.abs(back["lat"].to_numpy() - df["lat"].to_numpy()).max() \
            < 1e-9


def test_simplify_vw_one_pass(ray_session):
    import ray.data as rd

    # vertex 1 nearly collinear (tiny effective area); 2 and 3 sharp
    pts = np.array([[0.0, 0.0], [1.0, 0.01], [2.0, 0.0],
                    [3.0, 4.0], [4.0, 0.0]])
    df = pd.DataFrame({"lid": [7], "geometry": [wkb.encode_linestring(pts)]})
    out = vector.simplify_vw(rd.from_pandas(df), 1.0).to_pandas()
    got = wkb.decode(bytes(out.geometry.iloc[0]))["rings"][0]
    # brute-force: doubled area at each interior vertex
    def a2(i):
        a, b, c = pts[i - 1], pts[i], pts[i + 1]
        return abs((b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0]))
    keep = [0] + [i for i in (1, 2, 3) if a2(i) >= 1.0] + [4]
    assert np.array_equal(got, pts[keep])
    assert len(got) < len(pts)      # something was actually dropped


def test_simplify_vw_passthrough(ray_session):
    import ray.data as rd

    poly = wkb.encode_polygon([rect(0, 0, 4, 8)])
    line = wkb.encode_linestring(np.array([[0.0, 0.0], [1.0, 1.0]]))
    df = pd.DataFrame({"lid": [1, 2], "geometry": [poly, line]})
    out = vector.simplify_vw(rd.from_pandas(df), 100.0).to_pandas()
    out = out.sort_values("lid")
    assert bytes(out.geometry.iloc[0]) == poly      # polygons untouched
    assert bytes(out.geometry.iloc[1]) == line      # 2-pt line untouched


def test_centroids_matches_rational_form(ray_session):
    """vector.centroids (float op) vs the exact cleared-denominator
    centroid the poly_centroids oracle computes."""
    import ray.data as rd

    rng = [(257, 900, 1300, 2000), (3000, 400, 257, 3800),
           (1111, 2222, 3333, 444)]
    rows = []
    exp = []
    for i, (a, b, c, d) in enumerate(rng):
        cxu, cyu = 200000 + i * 9000, 90000 + i * 4000
        ring = np.array([[cxu - a, cyu], [cxu, cyu - b], [cxu + c, cyu],
                         [cxu, cyu + d], [cxu - a, cyu]], float)
        ring[:, 0] = ring[:, 0] / 1024.0 - 180.0
        ring[:, 1] = ring[:, 1] / 1024.0 - 90.0
        rows.append({"pid": i, "geometry": wkb.encode_polygon([ring])})
        a2 = (a + c) * (b + d)
        cx_num = 3 * a2 * cxu + (c * c - a * a) * (b + d)
        cy_num = 3 * a2 * cyu + (a + c) * (d * d - b * b)
        exp.append((cx_num / (3 * a2) / 1024.0 - 180.0,
                    cy_num / (3 * a2) / 1024.0 - 90.0))
    out = vector.centroids(rd.from_pandas(pd.DataFrame(rows))).to_pandas()
    out = out.sort_values("pid")
    for (elon, elat), lon, lat in zip(exp, out.lon, out.lat):
        assert abs(lon - elon) < 1e-9 and abs(lat - elat) < 1e-9
