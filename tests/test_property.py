"""Property-based tests (hypothesis) for the geometry kernel and grid.

These are the robustness layer over the example-based suites: the PIP
crossing test is checked against an independent scalar winding
implementation, WKB round-trips over arbitrary coordinates, and the
grid over arbitrary lon/lat.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pythongis_ray import grid
from pythongis_ray.geom import algo, wkb

coord = st.floats(min_value=-179.99, max_value=179.99, allow_nan=False,
                  width=64).map(lambda x: round(x, 6))
lat_c = st.floats(min_value=-89.99, max_value=89.99, allow_nan=False,
                  width=64).map(lambda x: round(x, 6))


def scalar_winding_inside(px, py, ring):
    """Independent reference PIP: scalar winding-number accumulation."""
    wn = 0
    for i in range(len(ring) - 1):
        x1, y1 = ring[i]
        x2, y2 = ring[i + 1]
        if y1 <= py:
            if y2 > py and (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1) > 0:
                wn += 1
        else:
            if y2 <= py and (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1) < 0:
                wn -= 1
    return wn != 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, lat_c), min_size=3, max_size=8, unique=True),
       coord, lat_c)
def test_pip_matches_winding_reference(poly_pts, px, py):
    # winding and crossing agree for points off the boundary of a
    # SIMPLE polygon; angular sort around the centroid yields a simple
    # (star-shaped) ring as long as no two points share an angle
    hull = np.array(poly_pts, dtype=np.float64)
    c = hull.mean(axis=0)
    ang = np.arctan2(hull[:, 1] - c[1], hull[:, 0] - c[0])
    if len(np.unique(ang)) != len(ang):
        return  # duplicate angles → ordering ambiguous → possibly non-simple
    hull = hull[np.argsort(ang)]
    ring = np.vstack([hull, hull[:1]])
    # skip points exactly on (or within float-noise of) the boundary of
    # the ring actually being tested
    if algo.points_on_ring(np.array([px]), np.array([py]), ring)[0]:
        return
    d = algo.points_to_ring_distance(np.array([px]), np.array([py]), ring)[0]
    if d < 1e-7:
        return
    got = algo.points_in_ring(np.array([px]), np.array([py]), ring)[0]
    exp = scalar_winding_inside(px, py, ring)
    assert got == exp


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, lat_c), min_size=1, max_size=20))
def test_wkb_points_roundtrip(pts):
    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    col = wkb.encode_points(lon, lat)
    lo, la = wkb.decode_points(list(col))
    assert np.array_equal(lo, lon) and np.array_equal(la, lat)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, lat_c), min_size=3, max_size=12))
def test_wkb_polygon_roundtrip(pts):
    ring = np.array(list(pts) + [pts[0]], dtype=np.float64)
    b = wkb.encode_polygon([ring])
    g = wkb.decode(b)
    assert g["type"] == "Polygon"
    assert np.array_equal(g["rings"][0], ring)
    x0, y0, x1, y1 = wkb.bbox(b)
    assert x0 == ring[:, 0].min() and x1 == ring[:, 0].max()
    assert y0 == ring[:, 1].min() and y1 == ring[:, 1].max()


@settings(max_examples=300, deadline=None)
@given(coord, lat_c, st.integers(min_value=0, max_value=14))
def test_grid_point_cell_contains_point(lon, lat, res):
    c = grid.point_to_cell(np.array([lon]), np.array([lat]), res)
    xmin, ymin, xmax, ymax = grid.cell_bounds(c)
    assert xmin[0] <= lon < xmax[0] or np.isclose(lon, 180.0)
    assert ymin[0] <= lat < ymax[0] or lat >= 90.0 - grid.cell_size_deg(res)
    # parent relation
    if res > 0:
        p = grid.parent(c)
        pxmin, pymin, pxmax, pymax = grid.cell_bounds(p)
        assert pxmin[0] <= xmin[0] and pxmax[0] >= xmax[0]
        assert pymin[0] <= ymin[0] and pymax[0] >= ymax[0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coord, lat_c), min_size=4, max_size=10, unique=True))
def test_centroid_inside_bbox(pts):
    # the bbox property holds for SIMPLE polygons (a self-intersecting
    # bowtie legitimately puts the area-weighted centroid outside);
    # convexify by angular sort, like the reference's valid inputs
    hull = np.array(pts, dtype=np.float64)
    c = hull.mean(axis=0)
    ang = np.arctan2(hull[:, 1] - c[1], hull[:, 0] - c[0])
    hull = hull[np.argsort(ang)]
    ring = np.vstack([hull, hull[:1]])
    cx, cy = algo.polygon_centroid([ring])
    assert ring[:, 0].min() - 1e-9 <= cx <= ring[:, 0].max() + 1e-9
    assert ring[:, 1].min() - 1e-9 <= cy <= ring[:, 1].max() + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-5000, 5000), st.integers(-5000, 5000)),
                min_size=3, max_size=6, unique=True))
def test_prepared_polygon_partition(int_pts):
    """covers == contains ∪ touches, and they are disjoint."""
    pts = [(x / 16.0, y / 16.0) for x, y in int_pts]
    hull = np.array(pts)
    c = hull.mean(axis=0)
    ang = np.arctan2(hull[:, 1] - c[1], hull[:, 0] - c[0])
    hull = hull[np.argsort(ang)]
    ring = np.vstack([hull, hull[:1]])
    if abs(algo.ring_area(ring)) < 1e-9:
        return
    poly = algo.PreparedPolygon([ring])
    rng = np.random.default_rng(0)
    px = rng.integers(-6000, 6000, 200) / 16.0
    py = rng.integers(-6000, 6000, 200) / 16.0
    cov = poly.covers_points(px, py)
    inside = poly.contains_points(px, py)
    touch = poly.touches_points(px, py)
    assert not (inside & touch).any()
    assert np.array_equal(cov, inside | touch)


def _lattice_ring(int_pts):
    """A closed star-shaped ring through the lattice points (x/16, y/16)."""
    pts = np.array(int_pts, np.float64) / 16.0
    c = pts.mean(axis=0)
    pts = pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]),
                         kind="stable")]
    return np.vstack([pts, pts[:1]])


def _rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]],
                    np.float64)


def _assert_paired_pip_matches(polys, px, py, chunk=algo._PAIR_CHUNK):
    """Every (point, polygon) pair, in a shuffled order, against the
    polygon's own contains/covers/touches."""
    P, G = len(px), len(polys)
    pi = np.repeat(np.arange(P), G)
    grp = np.tile(np.arange(G), P)
    perm = np.random.default_rng(P * 31 + G).permutation(len(pi))
    pi, grp = pi[perm], grp[perm]
    inside, onb = algo.points_in_polygons_paired(px[pi], py[pi], grp, polys,
                                                 chunk=chunk)
    assert inside.dtype == bool and onb.dtype == bool
    for g, poly in enumerate(polys):
        m = grp == g
        x, y = px[pi[m]], py[pi[m]]
        assert np.array_equal(inside[m], poly.contains_points(x, y))
        assert np.array_equal(inside[m] | onb[m], poly.covers_points(x, y))
        assert np.array_equal(onb[m], poly.touches_points(x, y))


def _probe_points(polys, rng, n_random):
    """Every vertex and edge midpoint of ``polys`` (on the boundary),
    the points collinear with each edge one edge length past either
    end, plus lattice points in and far outside their bboxes."""
    rings = [r for p in polys for r in p.rings]
    verts = np.vstack([r[:-1] for r in rings])
    mids = np.vstack([(r[:-1] + r[1:]) * 0.5 for r in rings])
    past = np.vstack([np.vstack([2 * r[1:] - r[:-1], 2 * r[:-1] - r[1:]])
                      for r in rings])
    lattice = rng.integers(-480, 480, (n_random, 2)) / 16.0
    pts = np.vstack([verts, mids, past, lattice,
                     [[500.0, 0.0], [0.0, -500.0]]])
    return pts[:, 0].copy(), pts[:, 1].copy()


lattice_ring = st.lists(st.tuples(st.integers(-400, 400),
                                  st.integers(-400, 400)),
                        min_size=3, max_size=7, unique=True).map(_lattice_ring)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(lattice_ring, min_size=1, max_size=3),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1), st.integers(0, 60),
       st.sampled_from([1, 7, algo._PAIR_CHUNK]))
def test_paired_pip_matches_prepared_polygon(ring_sets, seed, n_random, chunk):
    """The pair-aligned PIP kernel is bit-identical to the prepared
    polygon's own tests on lattice polygons of 1-3 rings (even-odd, so
    any inner ring acts as a hole), at every chunk size."""
    polys = [algo.PreparedPolygon(rings) for rings in ring_sets]
    px, py = _probe_points(polys, np.random.default_rng(seed), n_random)
    _assert_paired_pip_matches(polys, px, py, chunk)


def test_paired_pip_holes_multipolygons_and_no_pairs():
    """A square with a hole and a two-part multipolygon: vertices and
    edge points of every ring are boundary, hole points are outside,
    points beyond the bbox never match; zero pairs give empty masks."""
    holed = algo.PreparedPolygon([_rect(0, 0, 8, 8), _rect(2, 2, 4, 4)])
    multi = algo.PreparedPolygon([_rect(10, 0, 12, 2), _rect(14, 0, 16, 2),
                                  _rect(14.5, 0.5, 15, 1)], [0, 1, 1])
    polys = [holed, multi]
    px, py = _probe_points(polys, np.random.default_rng(5), 200)
    _assert_paired_pip_matches(polys, px, py)
    _assert_paired_pip_matches(polys, px, py, chunk=3)
    inside, onb = algo.points_in_polygons_paired(
        np.array([3.0, 3.0, 2.0, 1.0, 11.0, 15.0, 14.75, 13.0, 50.0]),
        np.array([3.0, 2.0, 3.0, 1.0, 1.0, 1.5, 0.75, 1.0, 1.0]),
        np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]), polys)
    assert inside.tolist() == [False, False, False, True, True, True,
                               False, False, False]
    assert onb.tolist() == [False, True, True, False, False, False,
                            False, False, False]
    inside, onb = algo.points_in_polygons_paired(
        np.empty(0), np.empty(0), np.empty(0, np.int64), polys)
    assert inside.shape == onb.shape == (0,)


rect_int = st.integers(min_value=0, max_value=24)


@given(st.lists(st.tuples(rect_int, rect_int, st.integers(1, 8),
                          st.integers(1, 8)), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_union_rects_matches_grid(rs):
    """union_rects area/parts vs an integer-grid rasterized oracle."""
    rects = np.array([[x, y, x + w, y + h] for x, y, w, h in rs], float)
    area, parts = algo.union_rects(rects)
    cov = np.zeros((40, 40), bool)
    for x0, y0, x1, y1 in rects.astype(int):
        cov[x0:x1, y0:y1] = True
    assert area == float(cov.sum())
    # parts are disjoint and total the same area
    pcov = np.zeros((40, 40), bool)
    for x0, y0, x1, y1 in parts:
        sl = pcov[int(x0):int(x1), int(y0):int(y1)]
        assert not sl.any()          # disjoint
        pcov[int(x0):int(x1), int(y0):int(y1)] = True
    assert np.array_equal(pcov, cov)


seg_c = st.floats(min_value=-20.0, max_value=30.0, allow_nan=False,
                  width=64).map(lambda x: round(x, 3))


@given(seg_c, seg_c, seg_c, seg_c)
@settings(max_examples=120, deadline=None)
def test_clip_partition_property(ax, ay, bx, by):
    """clip(seg) + complement(seg) partition the segment's length
    against rect [0,10]^2 (up to float addition)."""
    pts = np.array([[ax, ay], [bx, by]])
    total = algo.line_length(pts)
    inside = sum(algo.line_length(p)
                 for p in algo.clip_polyline_rect(pts, 0.0, 0.0, 10.0, 10.0))
    outside = sum(algo.line_length(p) for p in
                  algo.clip_polyline_rect_complement(pts, 0.0, 0.0, 10.0, 10.0))
    assert abs((inside + outside) - total) < 1e-9 * max(1.0, total)
    # any clipped point lies inside the (slightly grown) rect
    for p in algo.clip_polyline_rect(pts, 0.0, 0.0, 10.0, 10.0):
        assert (p[:, 0] >= -1e-9).all() and (p[:, 0] <= 10 + 1e-9).all()
        assert (p[:, 1] >= -1e-9).all() and (p[:, 1] <= 10 + 1e-9).all()


@given(seg_c, seg_c, seg_c, seg_c)
@settings(max_examples=120, deadline=None)
def test_line_predicate_partition(ax, ay, bx, by):
    """Exactly one of within/crosses/touches/disjoint-ish holds in a
    consistent way: intersects == not disjoint; within implies
    intersects and not crosses."""
    rect = algo.PreparedPolygon([np.array(
        [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0], [0.0, 0.0]])])
    seg = np.array([[ax, ay], [bx, by]])
    inter = algo.polyline_polygon_predicate(seg, rect, "intersects")
    disj = algo.polyline_polygon_predicate(seg, rect, "disjoint")
    within = algo.polyline_polygon_predicate(seg, rect, "within")
    crosses = algo.polyline_polygon_predicate(seg, rect, "crosses")
    touches = algo.polyline_polygon_predicate(seg, rect, "touches")
    assert inter != disj
    if within:
        assert inter and not crosses and not touches
    if crosses:
        assert inter and not within
    if touches:
        assert inter and not within and not crosses


# ---------------------------------------------- overlay algebra invariants

_rect_vals = st.integers(min_value=-40, max_value=40)


def _rects_strategy(n_max):
    return st.lists(
        st.tuples(_rect_vals, _rect_vals,
                  st.integers(min_value=1, max_value=12),
                  st.integers(min_value=1, max_value=12)),
        min_size=1, max_size=n_max)


def _as_polys(rects):
    out = []
    for x, y, w, h in rects:
        out.append([np.array([[x, y], [x + w, y], [x + w, y + h],
                              [x, y + h], [x, y]], np.float64)])
    return out


@settings(max_examples=60, deadline=None)
@given(_rects_strategy(4), _rects_strategy(4))
def test_overlay_inclusion_exclusion(ra, rb):
    """area(A∪B) + area(A∩B) == area(A) + area(B), and
    area(A−B) == area(A) − area(A∩B) — exact (integer rects)."""
    from pythongis_ray.geom import union as gu

    A, B = _as_polys(ra), _as_polys(rb)
    a_area, _ = gu.union_polygons_exact(A)
    b_area, _ = gu.union_polygons_exact(B)
    u_area, _ = gu.overlay_exact(A, B, "union")
    i_area, _ = gu.overlay_exact(A, B, "intersection")
    d_area, _ = gu.overlay_exact(A, B, "difference")
    assert u_area + i_area == a_area + b_area
    assert d_area == a_area - i_area


@settings(max_examples=60, deadline=None)
@given(_rects_strategy(5))
def test_union_matches_rect_sweep(rects):
    """General slab-sweep union area == the axis-rect sweep's area on
    pure rect inputs."""
    from pythongis_ray.geom import union as gu

    polys = _as_polys(rects)
    a, _ = gu.union_polygons_exact(polys)
    want, _ = algo.union_rects(np.array(
        [[x, y, x + w, y + h] for x, y, w, h in rects], np.float64))
    assert a == want


# ---------------------------------------------------------- web-text kernels

_word = st.text(alphabet="abcdefg", min_size=1, max_size=4)
_doc = st.lists(_word, min_size=0, max_size=30).map(lambda w: " ".join(w))


@settings(max_examples=200, deadline=None)
@given(st.lists(_doc, min_size=1, max_size=8))
def test_repetition_stats_property(texts):
    import pyarrow as pa

    from collections import Counter

    from pythongis_ray import text as t

    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    out = t.repetition_stats(batch).to_pydict()
    got = {d: (a, b, c) for d, a, b, c in zip(
        out["doc_id"], out["n_ngrams"], out["dup_ngrams"], out["top_count"])}
    for i, txt in enumerate(texts):
        toks = txt.split(" ")
        if len(toks) < 2:
            assert i not in got
            continue
        c = Counter(" ".join(toks[j:j + 2]) for j in range(len(toks) - 1))
        total = sum(c.values())
        dup = sum(v for v in c.values() if v > 1)
        assert got[i] == (total, dup, max(c.values()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(
    ["http", "https", "ftp"]), min_size=1, max_size=1),
    st.text(alphabet="aB.c9-", min_size=1, max_size=8),
    st.sampled_from(["", ":80", ":443", ":8080"]),
    st.text(alphabet="/ab2.", max_size=8),
    st.sampled_from(["", "?x=1", "?utm_a=1", "?utm_a=1&k=2", "?k=2&utm_b=9"]),
    st.sampled_from(["", "#f", "#a/b?c"]))
def test_canonicalize_idempotent(scheme, host, port, path, query, frag):
    import pyarrow as pa

    from pythongis_ray import urltools

    url = f"{scheme[0]}://{host}{port}{path}{query}{frag}"
    once = urltools.canonicalize_urls(pa.array([url])).to_pylist()[0]
    assert once is not None
    twice = urltools.canonicalize_urls(pa.array([once])).to_pylist()[0]
    assert twice == once  # canonical form is a fixed point


@settings(max_examples=50, deadline=None)
@given(st.lists(_doc.filter(lambda s: s != ""), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=4))
def test_line_rows_conservation(texts, line_len):
    """Every token lands in exactly one line; line counts are
    ceil(ntok/len); ranks are unique."""
    import pyarrow as pa

    from pythongis_ray import text as t

    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    rows = t._batch_line_rows(batch, "doc_id", "text", line_len).to_pydict()
    for i, txt in enumerate(texts):
        ntok = len(txt.split(" "))
        want = -(-ntok // line_len)
        assert sum(1 for d in rows["doc_id"] if d == i) == want
    assert len(set(rows["rank"])) == len(rows["rank"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abc"), min_size=0, max_size=12)
                .map(lambda w: " ".join(w)), min_size=1, max_size=5),
       st.integers(min_value=2, max_value=4))
def test_dup_spans_matches_bruteforce(ray_session, texts, w):
    import pyarrow as pa
    import ray.data as rd

    from pythongis_ray import text as t

    out = t.dup_spans(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)})), w=w).to_pandas()
    got = {r.doc_id: (r.n_tokens, r.n_dup_windows, r.n_tokens_covered)
           for r in out.itertuples()}

    from collections import Counter
    wins = []
    for i, txt in enumerate(texts):
        toks = txt.split(" ")
        wins += [(i, p, tuple(toks[p:p + w]))
                 for p in range(len(toks) - w + 1)]
    cnt = Counter(g for _, _, g in wins)
    want = {}
    for i, txt in enumerate(texts):
        toks = txt.split(" ")
        dups = [p for d, p, g in wins if d == i and cnt[g] > 1]
        if dups:
            cov = set()
            for p in dups:
                cov |= set(range(p, p + w))
            want[i] = (len(toks), len(dups), len(cov))
    assert got == want


# ------------------------------------------------------ graph kernels

from pythongis_ray.graph import _bucket_of, _group_fold  # noqa: E402

ids_vals = st.lists(
    st.tuples(st.integers(min_value=-2**40, max_value=2**40),
              st.integers(min_value=-2**40, max_value=2**40)),
    min_size=0, max_size=64)


@settings(max_examples=200, deadline=None)
@given(ids_vals)
def test_group_sum_matches_dict_reference(pairs):
    ids = np.array([p[0] for p in pairs], dtype=np.int64)
    vals = np.array([p[1] for p in pairs], dtype=np.int64)
    gi, gv = _group_fold(np.add, ids, vals)
    ref = {}
    for i, v in pairs:
        ref[i] = ref.get(i, 0) + v
    assert dict(zip(gi.tolist(), gv.tolist())) == ref
    assert np.all(np.diff(gi) > 0)  # sorted unique ids


@settings(max_examples=200, deadline=None)
@given(ids_vals)
def test_group_min_matches_dict_reference(pairs):
    ids = np.array([p[0] for p in pairs], dtype=np.int64)
    vals = np.array([p[1] for p in pairs], dtype=np.int64)
    gi, gv = _group_fold(np.minimum, ids, vals)
    ref = {}
    for i, v in pairs:
        ref[i] = min(ref.get(i, v), v)
    assert dict(zip(gi.tolist(), gv.tolist())) == ref


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-2**62, max_value=2**62),
                min_size=1, max_size=128),
       st.integers(min_value=2, max_value=32))
def test_bucket_of_total_and_stable(nodes, nb):
    ids = np.array(nodes, dtype=np.int64)
    b = _bucket_of(ids, nb)
    assert ((b >= 0) & (b < nb)).all()
    # same id → same bucket (shard ownership must be a function)
    assert (_bucket_of(ids, nb) == b).all()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.text(alphabet=st.characters(blacklist_characters='"<>',
                                   min_codepoint=32, max_codepoint=126),
            max_size=20),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=4)),
    min_size=1, max_size=16))
def test_extract_links_recovers_embedded_hrefs(docs):
    """Arbitrary surrounding text: the extractor recovers exactly the
    embedded (src, dst) multiset, in order."""
    import pyarrow as pa

    from pythongis_ray import pages

    htmls, expected = [], []
    for i, (noise, targets) in enumerate(docs):
        h = "<p>" + noise
        for t in targets:
            h += f'<a href="https://site{t % 50}.example/{t}"></a>' + noise
            expected.append((i, t))
        htmls.append(h.encode())
    batch = pa.table({
        "page_id": pa.array(range(len(docs)), pa.int64()),
        "html": pa.array(htmls, pa.binary())})
    out = pages.extract_links(batch)
    got = list(zip(out["src_page"].to_pylist(), out["dst_page"].to_pylist()))
    assert got == expected


# ------------------------- late-r3 analytics kernels (property tests)

def _lev_ref(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[len(b)]


_word = st.text(alphabet="abc", min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_word, _word), min_size=1, max_size=30))
def test_lev1_mask_matches_dp(pairs):
    import pyarrow as pa

    from pythongis_ray import text

    a = pa.array([p[0] for p in pairs], pa.string())
    b = pa.array([p[1] for p in pairs], pa.string())
    got = text.lev1_mask(a, b)
    want = np.array([_lev_ref(x, y) <= 1 for x, y in pairs])
    assert (got == want).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(_word, min_size=1, max_size=25))
def test_edit1_keys_complete_for_lev1(words):
    import pyarrow as pa

    from pythongis_ray import text

    uw = sorted(set(words))  # includes "" — lev("", "x") == 1 pairs
    if not uw:
        return
    keys, rows = text.edit1_keys(pa.array(uw, pa.string()))
    ksets = [set(keys[rows == i].tolist()) for i in range(len(uw))]
    for i in range(len(uw)):
        for j in range(i + 1, len(uw)):
            if _lev_ref(uw[i], uw[j]) <= 1:
                assert ksets[i] & ksets[j], (uw[i], uw[j])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                min_size=1, max_size=60))
def test_pareto_front_matches_bruteforce(pts):
    import pandas as pd

    from pythongis_ray import relational as rel

    df = pd.DataFrame(pts, columns=["x", "y"]).astype(np.int64)
    df["tag"] = np.arange(len(df))
    got = set(rel.pareto_front_frame(df, "x", "y")["tag"])
    want = set()
    for i, (ax, ay) in enumerate(pts):
        if not any(bx >= ax and by >= ay and (bx > ax or by > ay)
                   for bx, by in pts):
            want.add(i)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 50)),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 50),
                          st.integers(0, 999)),
                min_size=1, max_size=40))
def test_asof_join_matches_pandas(lrows, rrows):
    """Differential: the bucketed distributed asof_join must equal a
    single pd.merge_asof over the whole (deduped) data — catches
    partition-boundary and dtype bugs."""
    import pandas as pd
    import ray.data as rd

    from pythongis_ray import relational as rel

    ld = pd.DataFrame(lrows, columns=["k", "t"]).astype(np.int64)
    ld["lid"] = np.arange(len(ld), dtype=np.int64)
    # dedup right (k, t) to the max payload — the documented tie rule
    rdf = pd.DataFrame(rrows, columns=["k", "t", "v"]).astype(np.int64)
    rdf = rdf.groupby(["k", "t"], as_index=False)["v"].max()

    got = rel.asof_join(
        rd.from_pandas(ld).repartition(3),
        rd.from_pandas(rdf).repartition(3),
        left_on="t", right_on="t", left_by="k", right_by="k",
        right_cols=["v"], tie_cols=["v"], how="inner",
        num_buckets=4).to_pandas()

    want = pd.merge_asof(ld.sort_values("t", kind="mergesort"),
                         rdf.sort_values("t", kind="mergesort"),
                         on="t", by="k", direction="backward")
    want = want[want["v"].notna()]
    if len(want) == 0:
        assert len(got) == 0
        return
    g = got.sort_values("lid").reset_index(drop=True)
    w = want.sort_values("lid").reset_index(drop=True)
    assert list(g["lid"]) == list(w["lid"])
    assert [int(x) for x in g["v"]] == [int(x) for x in w["v"]]
