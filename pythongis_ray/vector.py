"""Per-feature vector operators (maps over geometry columns).

Covers the reference's manager/converter per-feature transforms
(SURVEY.md §2.2) as stateless vectorized ``map_batches`` stages:

  buffer        manager.buffer (planar n-gon ring; geodetic Vincenty
                ring) — /root/reference/pythongis/vector/manager.py:726-780
  centroids     converter.to_points 'centroid' — converter.py:115-128
  to_vertices   converter.to_points vertex explosion (flat-map shape)
  simplify      manager.clean(tolerance) Douglas-Peucker —
                manager.py:576-610
  clean         drop null/invalid geometries, drop non-finite coords —
                Feature.transform semantics, data.py:249-310
  reproject     manager.reproject — manager.py:822-846; pyproj is not
                available in this environment, so the built-in CRS pair
                is WGS84⟷WebMercator (EPSG:4326⟷3857, the standard
                published spherical-Mercator formulas); the stage shape
                (per-worker cached transform fn) is the same for any
                pyproj-backed transformer
  connect       manager.connect: key-join two point sets and emit
                great-circle paths — manager.py:660-713
  crop          manager.crop: bbox filter + rectangle clip —
                manager.py:26-45
  describe      data.describe/summarystats profiling — data.py:731-824
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pythongis_ray.geom import algo, geodesy, wkb
from pythongis_ray.relational import map_arrow, map_pandas

EARTH_R = 6378137.0  # WebMercator sphere radius


# ------------------------------------------------------------- buffers

def buffer_points(ds, radius, lon_col: str = "lon", lat_col: str = "lat",
                  n: int = 16, geodetic: bool = False,
                  out_col: str = "geometry"):
    """Point buffer → polygon WKB column. ``radius`` is a constant
    (degrees planar / meters geodetic) or a column name (the
    reference accepts per-feature distance callables,
    manager.py:738-741)."""

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        r = (batch[radius].to_numpy(zero_copy_only=False)
             if isinstance(radius, str) else np.full(len(lon), float(radius)))
        m = len(lon)
        if geodetic:
            # one vectorized Vincenty fan for the whole batch (m×n
            # bearings, per-point radii) — no per-point Python solver
            bearings = np.linspace(0.0, 360.0, n, endpoint=False)
            xs, ys = geodesy.vincenty_direct(
                np.repeat(lon, n), np.repeat(lat, n),
                np.tile(bearings, m), np.repeat(r.astype(np.float64), n))
            xs, ys = xs.reshape(m, n), ys.reshape(m, n)
        else:
            # vectorized ring lattice: (m,n) broadcast, no per-point loop
            ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
            ca, sa = np.cos(ang), np.sin(ang)
            xs = lon[:, None] + r[:, None] * ca[None, :]
            ys = lat[:, None] + r[:, None] * sa[None, :]
        ring3 = np.stack([xs, ys], axis=2)
        ring3 = np.concatenate([ring3, ring3[:, :1]], axis=1)
        geoms = wkb.encode_polygons_uniform(ring3)
        return batch.append_column(out_col, pa.array(list(geoms), pa.binary()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def _disc_ring(x: float, y: float, d: float, n: int) -> np.ndarray:
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ring = np.column_stack([x + d * np.cos(ang), y + d * np.sin(ang)])
    return np.vstack([ring, ring[:1]])


def _seg_rect(a: np.ndarray, b: np.ndarray, d: float, square: bool):
    v = b - a
    L = float(np.hypot(v[0], v[1]))
    if L == 0.0:
        return None
    u = v / L
    if square:
        a = a - u * d
        b = b + u * d
    nx, ny = -u[1] * d, u[0] * d
    return np.array([[a[0] + nx, a[1] + ny], [b[0] + nx, b[1] + ny],
                     [b[0] - nx, b[1] - ny], [a[0] - nx, a[1] - ny],
                     [a[0] + nx, a[1] + ny]])


def _buffer_one(buf: bytes, d: float, cap: str, n: int) -> bytes:
    from pythongis_ray.geom import union as gunion

    g = wkb.decode(bytes(buf))
    t = g["type"]
    parts: list[list[np.ndarray]] = []     # list of [rings] polys
    if t in ("Point", "MultiPoint"):
        for x, y in g["rings"][0]:
            parts.append([_disc_ring(float(x), float(y), d, n)])
    elif t in ("LineString", "MultiLineString"):
        for coords in g["rings"]:
            m = len(coords)
            for i in range(m - 1):
                r = _seg_rect(coords[i], coords[i + 1], d,
                              cap == "square")
                if r is not None:
                    parts.append([r])
            if cap == "round":
                vs = range(m)              # caps + joins
            elif cap == "flat":
                vs = range(1, m - 1)       # joins only, butt ends
            else:
                vs = ()                    # square: extended rects
            for i in vs:
                parts.append([_disc_ring(float(coords[i, 0]),
                                         float(coords[i, 1]), d, n)])
    elif t in ("Polygon", "MultiPolygon"):
        rp = g.get("ring_part") or [0] * len(g["rings"])
        by_part: dict[int, list] = {}
        for p, r in zip(rp, g["rings"]):
            by_part.setdefault(int(p), []).append(r)
        for rings in by_part.values():
            parts.append(list(rings))      # the region itself
            for ring in rings:             # dilate every edge (incl. holes)
                for i in range(len(ring) - 1):
                    r = _seg_rect(ring[i], ring[i + 1], d,
                                  cap == "square")
                    if r is not None:
                        parts.append([r])
                if cap in ("round", "flat"):
                    for i in range(len(ring) - 1):
                        parts.append([_disc_ring(float(ring[i, 0]),
                                                 float(ring[i, 1]), d, n)])
    else:
        raise ValueError(f"cannot buffer geometry type {t}")
    _, comps = gunion.union_polygons_exact(parts)
    return wkb.encode_multi("MultiPolygon", comps)


def buffer(ds, dist: float, geometry_col: str = "geometry",
           cap: str = "round", n: int = 16, out_col: str | None = None):
    """Planar buffer of ANY geometry column → MultiPolygon WKB
    (reference manager.buffer buffers any geometry via shapely,
    /root/reference/pythongis/vector/manager.py:726-780; here the
    dilation is built shapely-free as a union of per-segment offset
    rectangles + vertex discs, merged by the EXACT rational slab
    sweep in geom/union.py).

    Semantics per geometry type:
      Point/MultiPoint   n-gon disc per point
      LineString         per-segment rectangles; ``cap`` = 'round'
                         (k-gon discs at every vertex: round caps +
                         round joins), 'flat' (butt ends, round
                         joins), 'square' (each segment extended
                         ``dist`` at both ends — EXACT miter for
                         rectilinear/right-angle polylines; oblique
                         joins should use 'round')
      Polygon            region ∪ edge rectangles ∪ vertex discs —
                         the Minkowski dilation of the closed region
                         (holes erode correctly)

    Negative ``dist`` (erosion) is unsupported. Output parts are the
    union's connected components."""
    if dist <= 0:
        raise ValueError("buffer distance must be positive")
    out_col = out_col or geometry_col

    def fn(batch: pa.Table) -> pa.Table:
        geoms = [None if b is None else _buffer_one(bytes(b), float(dist),
                                                    cap, n)
                 for b in batch[geometry_col].to_pylist()]
        arr = pa.array(geoms, pa.binary())
        if out_col in batch.column_names:
            batch = batch.drop_columns([out_col])
        return batch.append_column(out_col, arr)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=2048)


def geodetic_area(ds, geometry_col: str = "geometry",
                  out_col: str = "area_m2"):
    """Add the ellipsoidal polygon area in m² (reference
    Geography.area via geographiclib,
    /root/reference/pythongis/vector/geography.py:68-95; here the
    authalic-latitude formula — exact for lat-lon-aligned quads,
    trapezoid approximation for diagonal edges)."""

    def fn(batch: pa.Table) -> pa.Table:
        areas = np.empty(batch.num_rows, np.float64)
        for i, b in enumerate(batch[geometry_col].to_pylist()):
            if b is None:
                areas[i] = np.nan
                continue
            g = wkb.decode(bytes(b))
            if g["type"] == "Polygon":
                areas[i] = geodesy.geodetic_polygon_area_m2(g["rings"])
            elif g["type"] == "MultiPolygon":
                # group rings by part, exterior first per part
                parts: dict[int, list] = {}
                for r, p in zip(g["rings"], g["ring_part"]):
                    parts.setdefault(p, []).append(r)
                areas[i] = sum(geodesy.geodetic_polygon_area_m2(rs)
                               for rs in parts.values())
            else:
                areas[i] = 0.0
        return batch.append_column(out_col, pa.array(areas))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


# ------------------------------------------------------- geometry maps

def centroids(ds, geometry_col: str = "geometry"):
    """Add lon/lat centroid columns for a WKB geometry column.

    Fully batch-vectorized over :func:`wkb.decode_flat` (the flat-
    cohort plan the join refines use): per-ring shoelace moments are
    one ``np.add.reduceat`` each, per-feature combination is
    ``np.add.at`` scatter — no per-feature Python or WKB dict
    building. Semantics match ``algo.polygon_centroid`` (holes and
    later rings subtract, zero-area features fall back to the vertex
    mean — which is also the Point/LineString path)."""

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        f = wkb.decode_flat(batch[geometry_col])
        pts, off = f["pts"], f["ring_off"]
        feat, rtype = f["ring_feat"], f["ring_type"]
        lens = off[1:] - off[:-1]
        nring = len(feat)
        xs = np.full(n, np.nan)
        ys = np.full(n, np.nan)
        cx_acc = np.zeros(n)
        cy_acc = np.zeros(n)
        ar_acc = np.zeros(n)
        if nring:
            is_last = np.zeros(len(pts), bool)
            is_last[off[1:] - 1] = True
            src = np.nonzero(~is_last)[0]
            x, y = pts[src, 0], pts[src, 1]
            xn, yn = pts[src + 1, 0], pts[src + 1, 1]
            cr = x * yn - xn * y
            nseg = np.maximum(lens - 1, 0)
            red = np.concatenate(([0], np.cumsum(nseg)))[:-1]
            segged = nseg > 0
            a_r = np.zeros(nring)
            gxn = np.zeros(nring)
            gyn = np.zeros(nring)
            if segged.any() and len(cr):
                a_r[segged] = 0.5 * np.add.reduceat(cr, red[segged])
                gxn[segged] = np.add.reduceat((x + xn) * cr, red[segged])
                gyn[segged] = np.add.reduceat((y + yn) * cr, red[segged])
            # polygon rings with nonzero area contribute; the FIRST
            # ring of a feature adds, every later ring subtracts
            # (algo.polygon_centroid's convention)
            poly = (rtype == 3) & (a_r != 0)
            first = np.concatenate(([True], feat[1:] != feat[:-1]))
            sign = np.where(first, 1.0, -1.0)
            a_safe = np.where(a_r == 0, 1.0, a_r)
            gx = gxn / (6.0 * a_safe)
            gy = gyn / (6.0 * a_safe)
            w = np.where(poly, sign * np.abs(a_r), 0.0)
            np.add.at(cx_acc, feat, w * gx)
            np.add.at(cy_acc, feat, w * gy)
            np.add.at(ar_acc, feat, w)
            good = ar_acc != 0
            xs[good] = cx_acc[good] / ar_acc[good]
            ys[good] = cy_acc[good] / ar_acc[good]
            # fallback: vertex mean (points, lines, zero-area polys)
            need = f["valid"] & ~good
            if need.any():
                prow = np.repeat(feat, lens)
                sx = np.zeros(n)
                sy = np.zeros(n)
                cnt = np.zeros(n)
                np.add.at(sx, prow, pts[:, 0])
                np.add.at(sy, prow, pts[:, 1])
                np.add.at(cnt, prow, 1.0)
                xs[need] = sx[need] / cnt[need]
                ys[need] = sy[need] / cnt[need]
        batch = batch.append_column("lon", pa.array(xs))
        return batch.append_column("lat", pa.array(ys))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def to_vertices(ds, geometry_col: str = "geometry"):
    """Explode each geometry into one row per vertex (flat-map shape:
    more output rows than input). Vectorized: one flat decode, one
    repeat, one take."""

    def fn(batch: pa.Table) -> pa.Table:
        f = wkb.decode_flat(batch[geometry_col])
        lens = f["ring_off"][1:] - f["ring_off"][:-1]
        idx = np.repeat(f["ring_feat"], lens)
        out = batch.drop_columns([geometry_col]).take(pa.array(idx))
        out = out.append_column("vx", pa.array(f["pts"][:, 0]))
        return out.append_column("vy", pa.array(f["pts"][:, 1]))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def _dp_mask(pts: np.ndarray, tol: float) -> np.ndarray:
    """Douglas-Peucker keep-mask (iterative stack, no recursion)."""
    n = len(pts)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    t2 = tol * tol
    while stack:
        s, e = stack.pop()
        if e - s < 2:
            continue
        seg = pts[s + 1:e]
        d2 = algo.points_to_segments_sq(
            seg[:, 0], seg[:, 1],
            np.array([pts[s, 0]]), np.array([pts[s, 1]]),
            np.array([pts[e, 0]]), np.array([pts[e, 1]]))[:, 0]
        imax = int(np.argmax(d2))
        if d2[imax] > t2:
            m = s + 1 + imax
            keep[m] = True
            stack.append((s, m))
            stack.append((m, e))
    return keep


def simplify(ds, tolerance: float, geometry_col: str = "geometry"):
    """Douglas-Peucker simplification of LineString/Polygon WKB."""

    def fn(batch: pa.Table) -> pa.Table:
        out = []
        for b in batch[geometry_col].to_pylist():
            g = wkb.decode(bytes(b))
            if g["type"] == "LineString":
                pts = g["rings"][0]
                out.append(wkb.encode_linestring(pts[_dp_mask(pts, tolerance)]))
            elif g["type"] == "Polygon":
                rings = []
                for ring in g["rings"]:
                    kept = ring[_dp_mask(ring, tolerance)]
                    if len(kept) >= 4:
                        rings.append(kept)
                out.append(wkb.encode_polygon(rings) if rings else b)
            else:
                out.append(b)
        return batch.set_column(batch.column_names.index(geometry_col),
                                geometry_col, pa.array(out, pa.binary()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def simplify_vw(ds, min_area2: float, geometry_col: str = "geometry"):
    """One-pass Visvalingam–Whyatt effective-area filter: interior
    LineString vertices whose DOUBLED triangle area
    ``|cross(prev, cur, next)|`` is below ``min_area2`` are dropped
    simultaneously; endpoints always survive. The non-iterative sweep
    (a single VW elimination round, the standard pre-weeding pass) —
    the classic simplifier alongside Douglas-Peucker
    (:func:`simplify`); reference simplify delegates to shapely
    (/root/reference/pythongis/vector/manager.py).

    Vectorized over the :func:`wkb.decode_flat` cohort: ONE cross-
    product kernel for the whole batch; only the WKB re-encode is
    per-feature. Non-line rings pass through untouched. On the dyadic
    lattice fixtures every cross product is float-exact, so the keep
    decision is deterministic and SQL-replayable."""

    def fn(batch: pa.Table) -> pa.Table:
        f = wkb.decode_flat(batch[geometry_col])
        pts, off = f["pts"], f["ring_off"]
        rtyp, feat = f["ring_type"], f["ring_feat"]
        lens = off[1:] - off[:-1]
        n = len(pts)
        keep = np.ones(n, dtype=bool)
        if n >= 3:
            a, b_, c = pts[:-2], pts[1:-1], pts[2:]
            cr = np.abs((b_[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                        - (b_[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
            interior = np.zeros(n, dtype=bool)
            interior[1:-1] = True
            interior[off[:-1]] = False          # ring starts
            interior[np.maximum(off[1:] - 1, 0)] = False  # ring ends
            line_v = np.repeat(rtyp == 2, lens)
            drop = np.zeros(n, dtype=bool)
            drop[1:-1] = cr < float(min_area2)
            keep = ~(drop & interior & line_v)
        out = []
        vrow = np.repeat(feat, lens) if len(lens) else np.empty(0, np.int64)
        nring_feat = np.bincount(feat, minlength=batch.num_rows) \
            if len(feat) else np.zeros(batch.num_rows, np.int64)
        for i, b in enumerate(batch[geometry_col].to_pylist()):
            if b is None or not f["valid"][i]:
                out.append(b)
                continue
            m = vrow == i
            # only single-ring LineStrings are rewritten; anything
            # else (points, polygons, multi-part) passes through
            if nring_feat[i] != 1 or keep[m].all():
                out.append(bytes(b))
            else:
                out.append(wkb.encode_linestring(pts[m & keep]))
        return batch.set_column(batch.column_names.index(geometry_col),
                                geometry_col, pa.array(out, pa.binary()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def clean(ds, geometry_col: str = "geometry"):
    """Drop rows with null geometry; drop non-finite coordinates inside
    geometries (reference Feature.transform drops inf/NaN points,
    data.py:249-310; query_to_data drops null-geometry rows,
    sql.py:253-255)."""

    def fn(batch: pa.Table) -> pa.Table:
        keep, fixed = [], []
        for b in batch[geometry_col].to_pylist():
            if b is None:
                keep.append(False)
                continue
            g = wkb.decode(bytes(b))
            ok = True
            rings = []
            for ring in g["rings"]:
                finite = np.isfinite(ring).all(axis=1)
                ring = ring[finite]
                min_pts = 4 if g["type"].endswith("Polygon") else \
                    (1 if g["type"].endswith("Point") else 2)
                if len(ring) < min_pts:
                    ok = False
                    break
                rings.append(ring)
            keep.append(ok)
            if ok:
                if g["type"] == "Point":
                    fixed.append(wkb.encode_point(*rings[0][0]))
                elif g["type"] == "LineString":
                    fixed.append(wkb.encode_linestring(rings[0]))
                elif g["type"] == "Polygon":
                    fixed.append(wkb.encode_polygon(rings))
                else:
                    fixed.append(b)
        out = batch.filter(pa.array(keep))
        return out.set_column(out.column_names.index(geometry_col),
                              geometry_col, pa.array(fixed, pa.binary()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


# ----------------------------------------------------------- reproject

def lonlat_to_webmercator(lon: np.ndarray, lat: np.ndarray):
    x = np.radians(lon) * EARTH_R
    y = np.log(np.tan(np.pi / 4 + np.radians(np.clip(lat, -85.051129, 85.051129)) / 2)) * EARTH_R
    return x, y


def webmercator_to_lonlat(x: np.ndarray, y: np.ndarray):
    lon = np.degrees(x / EARTH_R)
    lat = np.degrees(2 * np.arctan(np.exp(y / EARTH_R)) - np.pi / 2)
    return lon, lat


def reproject(ds, direction: str = "to_webmercator",
              lon_col: str = "lon", lat_col: str = "lat",
              x_col: str = "x", y_col: str = "y",
              zone: int = 31, lon0: float = 10.0, lat0: float = 52.0,
              lat1: float = 33.0, lat2: float = 45.0):
    """Vectorized coordinate reprojection stage. Directions:
    ``to_webmercator``/``from_webmercator`` (spherical),
    ``to_utm``/``from_utm`` (Snyder ellipsoidal TM, ``zone``;
    inverse assumes northern hemisphere unless a ``northern`` column
    is present), ``to_laea``/``from_laea`` (ellipsoidal equal-area
    centred at ``lon0``/``lat0``), ``to_albers``/``from_albers``
    (ellipsoidal Albers Equal-Area Conic, standard parallels
    ``lat1``/``lat2``), ``to_lcc``/``from_lcc`` (ellipsoidal Lambert
    Conformal Conic, 2SP), ``to_moll``/``from_moll`` (Mollweide
    equal-area world map via the authalic sphere, centred ``lon0``).
    The general-CRS engine of the reference is pyproj (absent here);
    these cover the common projected workflows (web tiles, metric
    zones, equal-area statistics, conic national grids, world
    thematic maps)."""
    from pythongis_ray.geom import proj as _proj

    def fwd(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        if direction == "to_webmercator":
            x, y = lonlat_to_webmercator(lon, lat)
        elif direction == "to_utm":
            x, y = _proj.utm_forward(lon, lat, zone)
        elif direction == "to_albers":
            x, y = _proj.albers_forward(lon, lat, lon0, lat0, lat1, lat2)
        elif direction == "to_lcc":
            x, y = _proj.lcc_forward(lon, lat, lon0, lat0, lat1, lat2)
        elif direction == "to_moll":
            x, y = _proj.moll_forward(lon, lat, lon0)
        elif direction == "to_robin":
            x, y = _proj.robin_forward(lon, lat, lon0)
        else:  # to_laea
            x, y = _proj.laea_forward(lon, lat, lon0, lat0)
        batch = batch.append_column(x_col, pa.array(x))
        return batch.append_column(y_col, pa.array(y))

    def inv(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        if direction == "from_webmercator":
            lon, lat = webmercator_to_lonlat(x, y)
        elif direction == "from_utm":
            northern = (batch["northern"].to_numpy(zero_copy_only=False)
                        if "northern" in batch.column_names else True)
            lon, lat = _proj.utm_inverse(x, y, zone, northern=northern)
        elif direction == "from_albers":
            lon, lat = _proj.albers_inverse(x, y, lon0, lat0, lat1, lat2)
        elif direction == "from_lcc":
            lon, lat = _proj.lcc_inverse(x, y, lon0, lat0, lat1, lat2)
        elif direction == "from_moll":
            lon, lat = _proj.moll_inverse(x, y, lon0)
        elif direction == "from_robin":
            lon, lat = _proj.robin_inverse(x, y, lon0)
        else:  # from_laea
            lon, lat = _proj.laea_inverse(x, y, lon0, lat0)
        batch = batch.append_column(lon_col, pa.array(lon))
        return batch.append_column(lat_col, pa.array(lat))

    if direction == "to_lonlat":     # legacy name for the inverse
        direction = "from_webmercator"
    if "+proj=" in direction:        # proj4-token CRS alias — the
        # reference's CRS currency ('+proj=robin' etc.; its engine is
        # pyproj, manager.py:822-846). '+inv' selects the inverse.
        p = _proj.parse_proj4(direction)
        direction = ("from_" if p["inverse"] else "to_") + p["proj"]
        zone = p.get("zone", zone)
        # absent +lon_0/+lat_x tokens mean 0 in proj4, not the
        # keyword defaults (which are demo-region values)
        lon0 = p.get("lon0", 0.0)
        lat0 = p.get("lat0", 0.0)
        lat1 = p.get("lat1", 0.0)
        lat2 = p.get("lat2", 0.0)
    if direction not in ("to_webmercator", "to_utm", "to_laea",
                         "to_albers", "to_lcc", "to_moll", "to_robin",
                         "from_webmercator", "from_utm", "from_laea",
                         "from_albers", "from_lcc", "from_moll",
                         "from_robin"):
        raise ValueError(f"unsupported direction {direction!r}")
    return map_arrow(ds, fwd if direction.startswith("to_") else inv)


# ------------------------------------------------------------- connect

def great_circle_path(lon1, lat1, lon2, lat2, n: int = 32) -> np.ndarray:
    """(n+1, 2) great-circle intermediate points (spherical slerp) —
    the reference's `line_to`/path generator shape (_helpers.py:236-294)."""
    p1 = np.radians([lon1, lat1])
    p2 = np.radians([lon2, lat2])
    v1 = np.array([np.cos(p1[1]) * np.cos(p1[0]), np.cos(p1[1]) * np.sin(p1[0]),
                   np.sin(p1[1])])
    v2 = np.array([np.cos(p2[1]) * np.cos(p2[0]), np.cos(p2[1]) * np.sin(p2[0]),
                   np.sin(p2[1])])
    omega = np.arccos(np.clip(v1 @ v2, -1, 1))
    if omega == 0:
        return np.array([[lon1, lat1], [lon2, lat2]])
    t = np.linspace(0, 1, n + 1)
    so = np.sin(omega)
    vs = (np.sin((1 - t)[:, None] * omega) * v1[None, :]
          + np.sin(t[:, None] * omega) * v2[None, :]) / so
    lons = np.degrees(np.arctan2(vs[:, 1], vs[:, 0]))
    lats = np.degrees(np.arcsin(np.clip(vs[:, 2] / np.linalg.norm(vs, axis=1), -1, 1)))
    return np.column_stack([lons, lats])


def connect(left_ds, right: pd.DataFrame, on: str,
            lon_col: str = "lon", lat_col: str = "lat", segments: int = 16):
    """Key-join two point layers and emit great-circle LineString WKB
    per pair (reference connect, manager.py:660-713). Right side is
    broadcast."""
    import ray

    ref = ray.put(right)

    class _Connect:
        def __init__(self):
            r = ray.get(ref)
            self.right = r[[on, lon_col, lat_col]].rename(columns={
                lon_col: "_rlon", lat_col: "_rlat"})

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            j = batch.merge(self.right, on=on, how="inner")
            m = len(j)
            if m == 0:
                return pd.DataFrame({on: np.empty(0, np.int64),
                                     "geometry": np.empty(0, object)})
            # batched spherical slerp: same op order as
            # great_circle_path, broadcast over the whole batch
            lo1 = np.radians(j[lon_col].to_numpy(np.float64))
            la1 = np.radians(j[lat_col].to_numpy(np.float64))
            lo2 = np.radians(j["_rlon"].to_numpy(np.float64))
            la2 = np.radians(j["_rlat"].to_numpy(np.float64))
            v1 = np.stack([np.cos(la1) * np.cos(lo1),
                           np.cos(la1) * np.sin(lo1), np.sin(la1)], 1)
            v2 = np.stack([np.cos(la2) * np.cos(lo2),
                           np.cos(la2) * np.sin(lo2), np.sin(la2)], 1)
            omega = np.arccos(np.clip((v1 * v2).sum(1), -1, 1))
            t = np.linspace(0, 1, segments + 1)
            so = np.sin(omega)
            sosafe = np.where(so == 0, 1.0, so)
            vs = (np.sin((1 - t)[None, :, None] * omega[:, None, None])
                  * v1[:, None, :]
                  + np.sin(t[None, :, None] * omega[:, None, None])
                  * v2[:, None, :]) / sosafe[:, None, None]
            # omega=0: a finite constant path; these rows are re-encoded below
            vs[so == 0] = v1[so == 0][:, None, :]
            lons = np.degrees(np.arctan2(vs[:, :, 1], vs[:, :, 0]))
            lats = np.degrees(np.arcsin(np.clip(
                vs[:, :, 2] / np.linalg.norm(vs, axis=2), -1, 1)))
            paths = np.stack([lons, lats], axis=2)
            geoms = wkb.encode_linestrings_uniform(paths)
            # coincident endpoints: great_circle_path's 2-point line
            for i in np.flatnonzero(omega == 0):
                geoms[i] = wkb.encode_linestring(
                    [[j[lon_col].iat[i], j[lat_col].iat[i]],
                     [j["_rlon"].iat[i], j["_rlat"].iat[i]]])
            return pd.DataFrame({on: j[on].to_numpy(),
                                 "geometry": geoms})

    return left_ds.map_batches(_Connect, batch_format="pandas", batch_size=4096,
                               concurrency=2, num_cpus=1)


# ----------------------------------------------------------------- crop

def crop(ds, bbox: tuple, geometry_col: str | None = None,
         lon_col: str = "lon", lat_col: str = "lat", clip: bool = True):
    """Crop to bbox: points filtered; polygons bbox-filtered then
    rectangle-clipped (reference crop: spindex candidates + shapely
    intersection, manager.py:26-45)."""
    x0, y0, x1, y1 = bbox

    def pts(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        keep = (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)
        return batch.filter(pa.array(keep))

    if geometry_col is None:
        return map_arrow(ds, pts)

    rect = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])

    def polys(batch: pa.Table) -> pa.Table:
        keep, out = [], []
        for b in batch[geometry_col].to_pylist():
            gx0, gy0, gx1, gy1 = wkb.bbox(bytes(b))
            if gx1 < x0 or gx0 > x1 or gy1 < y0 or gy0 > y1:
                keep.append(False)
                continue
            keep.append(True)
            if clip:
                g = wkb.decode(bytes(b))
                if g["type"] == "Polygon":
                    c = algo.clip_polygon_convex(g["rings"][0], rect)
                    out.append(wkb.encode_polygon([c]) if c is not None else b)
                else:
                    out.append(b)
            else:
                out.append(b)
        t = batch.filter(pa.array(keep))
        return t.set_column(t.column_names.index(geometry_col), geometry_col,
                            pa.array(out, pa.binary()))

    return ds.map_batches(polys, batch_format="pyarrow", batch_size=4096)


# -------------------------------------------------------------- profiling

def describe(ds, columns: list[str] | None = None) -> pd.DataFrame:
    """Per-column profile: n, missing, min/max/mean for numeric columns
    (reference describe/summarystats, data.py:731-824). Partial
    per-batch stats → driver combine; one streaming pass."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in (columns or batch.columns):
            col = batch[c]
            miss = int(col.isna().sum())
            if pd.api.types.is_numeric_dtype(col):
                v = col.dropna()
                rows.append((c, len(col), miss,
                             float(v.sum()) if len(v) else 0.0,
                             float(v.min()) if len(v) else np.nan,
                             float(v.max()) if len(v) else np.nan,
                             len(v)))
            else:
                rows.append((c, len(col), miss, np.nan, np.nan, np.nan, 0))
        return pd.DataFrame(rows, columns=["column", "n", "missing", "psum",
                                           "pmin", "pmax", "pcnt"])

    parts = map_pandas(ds, partial).to_pandas()
    g = parts.groupby("column", sort=True)
    out = pd.DataFrame({
        "n": g["n"].sum(),
        "missing": g["missing"].sum(),
        "min": g["pmin"].min(),
        "max": g["pmax"].max(),
    })
    cnt = g["pcnt"].sum()
    out["mean"] = np.where(cnt > 0, g["psum"].sum() / cnt.replace(0, 1), np.nan)
    return out.reset_index()


# ------------------------------------------------------------ snap / cut

def snap(ds, targets: pd.DataFrame, tolerance: float,
         geometry_col: str = "geometry",
         t_lon: str = "lon", t_lat: str = "lat"):
    """Snap geometry vertices to the nearest target point within
    ``tolerance`` (reference manager.snap,
    /root/reference/pythongis/vector/manager.py:622-648). Targets are
    broadcast; per batch ALL vertices across the batch snap in one
    vectorized nearest-neighbour pass (grid-bucketed)."""
    import ray

    from pythongis_ray import state as _state
    from pythongis_ray.spatial import GridKnnJoiner

    payload = {"lon": targets[t_lon].to_numpy(np.float64),
               "lat": targets[t_lat].to_numpy(np.float64),
               "id": np.arange(len(targets), dtype=np.int64)}
    ref = ray.put(payload)

    def fn(batch: pa.Table) -> pa.Table:
        knn = _state.get_broadcast(
            ref, builder=lambda r: GridKnnJoiner(r, k=1), key_extra=("snap",))
        geoms = batch[geometry_col].to_pylist()
        # gather every vertex of the batch
        all_pts, spans = [], []
        parsed = []
        for b in geoms:
            g = wkb.decode(bytes(b))
            parsed.append(g)
            pts = np.vstack(g["rings"])
            spans.append(len(pts))
            all_pts.append(pts)
        if not all_pts:
            return batch
        flat = np.vstack(all_pts)
        vb = pa.table({"i": np.arange(len(flat), dtype=np.int64),
                       "lon": flat[:, 0], "lat": flat[:, 1]})
        nn = knn(vb)
        order = np.argsort(nn["i"].to_numpy(zero_copy_only=False))
        d2 = nn["nn_dist_sq"].to_numpy(zero_copy_only=False)[order]
        nid = nn["nn_id"].to_numpy(zero_copy_only=False)[order]
        move = d2 <= tolerance * tolerance
        flat = flat.copy()
        # knn.rid is sorted by (cell, id), NOT globally by id — map the
        # returned target ids back to array positions through an
        # explicit argsort-based inverse (searchsorted on the unsorted
        # rid array silently picked the wrong target's coordinates)
        rorder = np.argsort(knn.rid, kind="stable")
        ppos = rorder[np.searchsorted(knn.rid[rorder], nid[move])]
        flat[move, 0] = knn.rlon[ppos]
        flat[move, 1] = knn.rlat[ppos]
        # rebuild geometries
        out = []
        pos = 0
        for g, n in zip(parsed, spans):
            seg = flat[pos:pos + n]
            pos += n
            ring_sizes = [len(r) for r in g["rings"]]
            new_rings, s = [], 0
            for rs in ring_sizes:
                new_rings.append(seg[s:s + rs])
                s += rs
            if g["type"] == "Point":
                out.append(wkb.encode_point(*new_rings[0][0]))
            elif g["type"] == "LineString":
                out.append(wkb.encode_linestring(new_rings[0]))
            elif g["type"] == "Polygon":
                # re-close rings after snapping
                closed = []
                for r in new_rings:
                    r = r.copy()
                    r[-1] = r[0]
                    closed.append(r)
                out.append(wkb.encode_polygon(closed))
            else:
                out.append(wkb.encode_multi(g["type"], [r for r in new_rings]))
        return batch.set_column(batch.column_names.index(geometry_col),
                                geometry_col, pa.array(out, pa.binary()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def cut(ds, cutters: pd.DataFrame, geometry_col: str = "geometry",
        cutter_geom_col: str = "geometry"):
    """Split LineStrings by a broadcast line layer (reference
    manager.cut via shapely.ops.split,
    /root/reference/pythongis/vector/manager.py:782-820). Each
    intersection point with any cutter segment splits the line; output
    is one row per resulting piece with a ``piece`` index column."""
    import ray

    from pythongis_ray import state as _state

    cut_segs = []
    for b in cutters[cutter_geom_col]:
        g = wkb.decode(bytes(b))
        for ring in g["rings"]:
            cut_segs.append(ring)
    A = np.vstack([r[:-1] for r in cut_segs]) if cut_segs else np.empty((0, 2))
    B = np.vstack([r[1:] for r in cut_segs]) if cut_segs else np.empty((0, 2))
    ref = ray.put({"a": A, "b": B})

    def fn(batch: pa.Table) -> pd.DataFrame:
        seg = _state.get_broadcast(ref, key_extra=("cut",))
        ax, ay = seg["a"][:, 0], seg["a"][:, 1]
        bx, by = seg["b"][:, 0], seg["b"][:, 1]
        rows = []
        others = [c for c in batch.column_names if c != geometry_col]
        for ri in range(batch.num_rows):
            b = batch[geometry_col][ri].as_py()
            g = wkb.decode(bytes(b))
            if g["type"] != "LineString":
                rec = {c: batch[c][ri].as_py() for c in others}
                rec.update({"piece": 0, geometry_col: b})
                rows.append(rec)
                continue
            line = g["rings"][0]
            out_pts = [line[0].tolist()]
            cut_marks = []
            for i in range(len(line) - 1):
                p0, p1 = line[i], line[i + 1]
                # parametric intersections of segment p0→p1 with all cutters
                d1x, d1y = p1[0] - p0[0], p1[1] - p0[1]
                d2x, d2y = bx - ax, by - ay
                denom = d1x * d2y - d1y * d2x
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = ((ax - p0[0]) * d2y - (ay - p0[1]) * d2x) / denom
                    u = ((ax - p0[0]) * d1y - (ay - p0[1]) * d1x) / denom
                valid = (denom != 0) & (t > 0) & (t < 1) & (u >= 0) & (u <= 1)
                ts = np.sort(np.unique(t[valid]))
                for tv in ts:
                    px, py = p0[0] + tv * d1x, p0[1] + tv * d1y
                    out_pts.append([px, py])
                    cut_marks.append(len(out_pts) - 1)
                out_pts.append(p1.tolist())
            # split out_pts at cut_marks (cut point belongs to both pieces)
            pieces = []
            start = 0
            for m in cut_marks:
                pieces.append(out_pts[start:m + 1])
                start = m
            pieces.append(out_pts[start:])
            for pi, pts in enumerate(pieces):
                if len(pts) < 2:
                    continue
                rec = {c: batch[c][ri].as_py() for c in others}
                rec.update({"piece": pi,
                            geometry_col: wkb.encode_linestring(np.asarray(pts))})
                rows.append(rec)
        return pd.DataFrame(rows, columns=others + ["piece", geometry_col])

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=2048)
