"""Planar geometry predicates & measures, vectorized numpy.

These implement the predicate semantics the reference gets from shapely
(`intersects/within/contains/touches/disjoint/...` dispatched at
/root/reference/pythongis/vector/manager.py:381-431 and the prepared
`intersects` fast path at manager.py:401-414), without shapely.

Robustness note: the point-in-polygon test uses the division-free
crossing-number formulation (sign of the edge cross product, never an
intersection x computed by division). For coordinates on a dyadic
lattice (multiples of 2^-11 degrees — all engine test fixtures, see
fixtures.py) every comparison is exact in float64, so results are
bit-reproducible and match a closed-form SQL oracle exactly.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- points

def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Crossing-number test of many points against one closed ring.

    Returns a boolean interior mask (points exactly on the boundary are
    NOT classified here — use :func:`points_on_ring`). Division-free:
    for edge (a→b) straddling the horizontal ray of p, the ray crosses
    iff sign((py-ay)*(bx-ax) - (px-ax)*(by-ay)) == sign(by-ay).
    """
    px = np.asarray(px, np.float64)[:, None]
    py = np.asarray(py, np.float64)[:, None]
    ax, ay = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
    bx, by = ring[1:, 0][None, :], ring[1:, 1][None, :]
    straddle = (ay > py) != (by > py)
    t = (py - ay) * (bx - ax) - (px - ax) * (by - ay)
    cross = straddle & ((t > 0) == (by > ay))
    return (cross.sum(axis=1) & 1).astype(bool)


def points_on_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray,
                   include_vertices: bool = True) -> np.ndarray:
    """True where a point lies exactly on a ring segment (collinear and
    within the segment's bbox)."""
    px = np.asarray(px, np.float64)[:, None]
    py = np.asarray(py, np.float64)[:, None]
    ax, ay = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
    bx, by = ring[1:, 0][None, :], ring[1:, 1][None, :]
    cross = (px - ax) * (by - ay) - (py - ay) * (bx - ax)
    inx = (px >= np.minimum(ax, bx)) & (px <= np.maximum(ax, bx))
    iny = (py >= np.minimum(ay, by)) & (py <= np.maximum(ay, by))
    return ((cross == 0) & inx & iny).any(axis=1)


def points_in_rings(px, py, rings) -> np.ndarray:
    """Even-odd interior over a ring list (exterior + holes)."""
    inside = np.zeros(len(px), dtype=bool)
    for ring in rings:
        inside ^= points_in_ring(px, py, ring)
    return inside


class PreparedPolygon:
    """One polygon parsed once and reused across many point batches.

    This is the engine's analog of the reference caching a prepared
    shapely geometry per right-side feature before the join loop
    (/root/reference/pythongis/vector/manager.py:383-386,401-406): here
    the preparation happens once per worker-side zone index (a
    broadcast :class:`~pythongis_ray.spatial.ZoneIndex`) or once per
    shuffle-join refine task, not per point batch.
    """

    __slots__ = ("rings", "bbox", "exterior_parts")

    def __init__(self, rings: list[np.ndarray], ring_part=None):
        self.rings = [np.asarray(r, np.float64) for r in rings]
        pts = np.vstack(self.rings)
        self.bbox = (pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())
        self.exterior_parts = ring_part

    def contains_points(self, px, py):
        """Strict interior (boundary excluded)."""
        xmin, ymin, xmax, ymax = self.bbox
        cand = (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)
        out = np.zeros(len(px), dtype=bool)
        if cand.any():
            idx = np.flatnonzero(cand)
            inside = points_in_rings(px[idx], py[idx], self.rings)
            onb = points_on_boundary_rings(px[idx], py[idx], self.rings)
            out[idx] = inside & ~onb
        return out

    def covers_points(self, px, py):
        """Interior OR boundary (shapely 'covers' / point 'intersects')."""
        xmin, ymin, xmax, ymax = self.bbox
        cand = (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)
        out = np.zeros(len(px), dtype=bool)
        if cand.any():
            idx = np.flatnonzero(cand)
            out[idx] = (points_in_rings(px[idx], py[idx], self.rings)
                        | points_on_boundary_rings(px[idx], py[idx], self.rings))
        return out

    def touches_points(self, px, py):
        """Exactly on the boundary."""
        xmin, ymin, xmax, ymax = self.bbox
        cand = (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)
        out = np.zeros(len(px), dtype=bool)
        if cand.any():
            idx = np.flatnonzero(cand)
            out[idx] = points_on_boundary_rings(px[idx], py[idx], self.rings)
        return out

    def distance_points(self, px, py):
        """Planar distance from each point to the polygon (0 if covered)."""
        d = np.full(len(px), np.inf)
        for ring in self.rings:
            d = np.minimum(d, points_to_ring_distance(px, py, ring))
        cov = self.covers_points(np.asarray(px, np.float64), np.asarray(py, np.float64))
        d[cov] = 0.0
        return d


def points_on_boundary_rings(px, py, rings):
    on = np.zeros(len(px), dtype=bool)
    for ring in rings:
        on |= points_on_ring(px, py, ring)
    return on


# ------------------------------------------------------------- distances

def points_to_segments_sq(px, py, ax, ay, bx, by):
    """Squared distance from each point i to each segment j → (n, m)."""
    px = np.asarray(px, np.float64)[:, None]
    py = np.asarray(py, np.float64)[:, None]
    dx, dy = (bx - ax)[None, :], (by - ay)[None, :]
    apx, apy = px - ax[None, :], py - ay[None, :]
    seg_len_sq = dx * dx + dy * dy
    t = np.where(seg_len_sq > 0, (apx * dx + apy * dy) / np.where(seg_len_sq == 0, 1, seg_len_sq), 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx, cy = apx - t * dx, apy - t * dy
    return cx * cx + cy * cy


def points_to_segments_sq_pairwise(px, py, ax, ay, bx, by):
    """Aligned arrays → squared distance of point_i to segment_i.

    Single-division formulation: the clamp decisions (dot ≤ 0,
    dot ≥ |AB|²) and the endpoint distances are EXACT products/sums of
    lattice values; only the interior case rounds, once, in
    cross²/|AB|² — an expression a SQL oracle mirrors op-for-op, so
    results are bit-identical across engines."""
    dx, dy = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    bpx, bpy = px - bx, py - by
    L2 = dx * dx + dy * dy
    dot = apx * dx + apy * dy
    cross = apx * dy - apy * dx
    da = apx * apx + apy * apy
    db = bpx * bpx + bpy * bpy
    mid = (cross * cross) / np.where(L2 == 0, 1.0, L2)
    return np.where(dot <= 0, da, np.where(dot >= L2, db, mid))


def points_to_ring_distance(px, py, ring):
    d2 = points_to_segments_sq(px, py, ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1])
    return np.sqrt(d2.min(axis=1))


# -------------------------------------------------------- segment algebra

def _on(d, sx, sy, ex, ey, qx, qy):
    """Collinear (orientation ``d == 0``) q inside segment s→e's bbox."""
    return (d == 0) & (qx >= np.minimum(sx, ex)) & (qx <= np.maximum(sx, ex)) \
        & (qy >= np.minimum(sy, ey)) & (qy <= np.maximum(sy, ey))


def segments_intersect(a0x, a0y, a1x, a1y, b0x, b0y, b1x, b1y):
    """Vectorized proper-or-touching segment intersection (broadcast
    (n,1) vs (1,m) shaped inputs)."""
    d1 = (a1x - a0x) * (b0y - a0y) - (a1y - a0y) * (b0x - a0x)
    d2 = (a1x - a0x) * (b1y - a0y) - (a1y - a0y) * (b1x - a0x)
    d3 = (b1x - b0x) * (a0y - b0y) - (b1y - b0y) * (a0x - b0x)
    d4 = (b1x - b0x) * (a1y - b0y) - (b1y - b0y) * (a1x - b0x)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    # collinear / endpoint touches
    touch = (_on(d1, a0x, a0y, a1x, a1y, b0x, b0y) | _on(d2, a0x, a0y, a1x, a1y, b1x, b1y)
             | _on(d3, b0x, b0y, b1x, b1y, a0x, a0y) | _on(d4, b0x, b0y, b1x, b1y, a1x, a1y))
    return proper | touch


def polygons_intersect(pa: PreparedPolygon, pb: PreparedPolygon) -> bool:
    """Area-intersects test for two polygons (interiors or boundaries
    share a point). Matches shapely `intersects` for valid polygons."""
    ax0, ay0, ax1, ay1 = pa.bbox
    bx0, by0, bx1, by1 = pb.bbox
    if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
        return False
    ar, br = pa.rings[0], pb.rings[0]
    if pb.covers_points(ar[:-1, 0], ar[:-1, 1]).any():
        return True
    if pa.covers_points(br[:-1, 0], br[:-1, 1]).any():
        return True
    for ra in pa.rings:
        for rb in pb.rings:
            hit = segments_intersect(
                ra[:-1, 0][:, None], ra[:-1, 1][:, None], ra[1:, 0][:, None], ra[1:, 1][:, None],
                rb[:-1, 0][None, :], rb[:-1, 1][None, :], rb[1:, 0][None, :], rb[1:, 1][None, :])
            if hit.any():
                return True
    return False


# -------------------------------------------------- polyline × polygon

def polyline_polygon_relate(pts: np.ndarray, poly: PreparedPolygon):
    """Exact relate flags for one polyline vs one polygon:
    (any_contact, any_strict_in, any_strict_out, proper_cross).

    any_contact: closure∩closure ≠ ∅ (vertex covered or any
    segment touches/crosses any boundary edge);
    any_strict_in / any_strict_out: a vertex strictly inside /
    strictly outside;
    proper_cross: a transversal segment×edge crossing (implies
    interior points on both sides).

    All tests are sign-of-cross-product — exact on the dyadic
    lattice (see module docstring)."""
    px, py = pts[:, 0], pts[:, 1]
    strict_in = poly.contains_points(px, py)
    cov = strict_in | poly.touches_points(px, py)
    any_strict_in = bool(strict_in.any())
    any_strict_out = bool((~cov).any())
    any_contact = bool(cov.any())
    proper_cross = False
    if len(pts) >= 2:
        # segment midpoints as extra interior/exterior witnesses: they
        # resolve improper passages through polygon VERTICES (e.g. a
        # segment slicing corner-to-corner with both endpoints
        # outside). Midpoints of dyadic coords are dyadic → tests stay
        # exact; a midpoint exactly on the boundary is classified
        # boundary, never a false interior hit.
        mx = (px[:-1] + px[1:]) * 0.5
        my = (py[:-1] + py[1:]) * 0.5
        m_in = poly.contains_points(mx, my)
        m_cov = m_in | poly.touches_points(mx, my)
        if m_in.any():
            any_strict_in = True
            any_contact = True
        if (~m_cov).any():
            any_strict_out = True
    if len(pts) >= 2:
        a0x, a0y = px[:-1][:, None], py[:-1][:, None]
        a1x, a1y = px[1:][:, None], py[1:][:, None]
        for ring in poly.rings:
            b0x, b0y = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
            b1x, b1y = ring[1:, 0][None, :], ring[1:, 1][None, :]
            if not any_contact and segments_intersect(
                    a0x, a0y, a1x, a1y, b0x, b0y, b1x, b1y).any():
                any_contact = True
            d1 = (a1x - a0x) * (b0y - a0y) - (a1y - a0y) * (b0x - a0x)
            d2 = (a1x - a0x) * (b1y - a0y) - (a1y - a0y) * (b1x - a0x)
            d3 = (b1x - b0x) * (a0y - b0y) - (b1y - b0y) * (a0x - b0x)
            d4 = (b1x - b0x) * (a1y - b0y) - (b1y - b0y) * (a1x - b0x)
            proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
                & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
            if proper.any():
                proper_cross = True
                any_contact = True
    return any_contact, any_strict_in, any_strict_out, proper_cross


def polyline_polygon_predicate(parts, poly: PreparedPolygon,
                               predicate: str) -> bool:
    """Line×polygon predicate dispatch (reference line branch of the
    join dispatch, /root/reference/pythongis/vector/manager.py:381-431).
    ``parts``: one (n,2) array or a LIST of them (MultiLineString) —
    relate flags OR across parts.

    Documented deviation: a line whose every vertex lies ON the
    boundary but that passes through the interior between them is
    classified `touches` (measure-zero on the lattice fixtures)."""
    if isinstance(parts, np.ndarray):
        parts = [parts]
    contact = s_in = s_out = proper = False
    for pts in parts:
        c, i, o, p = polyline_polygon_relate(pts, poly)
        contact |= c
        s_in |= i
        s_out |= o
        proper |= p
    if predicate == "intersects":
        return contact
    if predicate == "disjoint":
        return not contact
    if predicate == "within":
        return s_in and not s_out and not proper
    if predicate == "crosses":
        return proper or (s_in and s_out)
    if predicate == "touches":
        return contact and not s_in and not proper
    raise ValueError(f"unsupported line predicate {predicate!r}")


# ------------------------------------- batched (flat-cohort) relate kernels
#
# These batch the per-feature relate loops across ALL features of a
# zone cohort at once (the refine shape of the geometry-left joins):
# one call tests every candidate polyline/polygon of a batch against
# one zone polygon, with per-feature flags reduced by np.bincount.
# Semantics are identical to the scalar polyline_polygon_relate /
# polygons_intersect above (same sign-of-cross-product tests — exact
# on the dyadic lattice).

_PAIR_CHUNK = 4_000_000


def _segments_vs_ring_accum(sa, sb, ring, touch_seg, proper_seg,
                            chunk: int = _PAIR_CHUNK):
    """Accumulate per-segment touch/proper-cross flags vs one ring's
    edges (|=). Chunked over segments so the pairwise matrix stays
    ≤ ``chunk`` cells."""
    E = len(ring) - 1
    S = len(sa)
    if E <= 0 or S == 0:
        return
    b0x, b0y = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
    b1x, b1y = ring[1:, 0][None, :], ring[1:, 1][None, :]
    step = max(1, chunk // E)
    for s0 in range(0, S, step):
        sl = slice(s0, min(S, s0 + step))
        a0x, a0y = sa[sl, 0][:, None], sa[sl, 1][:, None]
        a1x, a1y = sb[sl, 0][:, None], sb[sl, 1][:, None]
        d1 = (a1x - a0x) * (b0y - a0y) - (a1y - a0y) * (b0x - a0x)
        d2 = (a1x - a0x) * (b1y - a0y) - (a1y - a0y) * (b1x - a0x)
        d3 = (b1x - b0x) * (a0y - b0y) - (b1y - b0y) * (a0x - b0x)
        d4 = (b1x - b0x) * (a1y - b0y) - (b1y - b0y) * (a1x - b0x)
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
            & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
        touch = proper \
            | _on(d1, a0x, a0y, a1x, a1y, b0x, b0y) \
            | _on(d2, a0x, a0y, a1x, a1y, b1x, b1y) \
            | _on(d3, b0x, b0y, b1x, b1y, a0x, a0y) \
            | _on(d4, b0x, b0y, b1x, b1y, a1x, a1y)
        touch_seg[sl] |= touch.any(axis=1)
        proper_seg[sl] |= proper.any(axis=1)


def _any_per_group(mask, grp, n_grp):
    return np.bincount(grp[mask], minlength=n_grp).astype(bool)


def polylines_polygon_relate_flat(pts, pt_grp, sa, sb, seg_grp, n_grp,
                                  poly: PreparedPolygon):
    """Batched :func:`polyline_polygon_relate` over many polylines.

    ``pts (M,2)`` / ``pt_grp (M,)``: all vertices of the cohort and
    their group index in [0, n_grp); ``sa``/``sb`` (S,2) /
    ``seg_grp (S,)``: the cohort's segments. Returns four (n_grp,)
    bool arrays (contact, strict_in, strict_out, proper_cross) with
    flags OR-ed across each group's parts (multi-part features simply
    contribute more points/segments to their group)."""
    px, py = pts[:, 0], pts[:, 1]
    strict_pt = poly.contains_points(px, py)
    cov_pt = strict_pt | poly.touches_points(px, py)
    s_in = _any_per_group(strict_pt, pt_grp, n_grp)
    s_out = _any_per_group(~cov_pt, pt_grp, n_grp)
    contact = _any_per_group(cov_pt, pt_grp, n_grp)
    proper = np.zeros(n_grp, dtype=bool)
    if len(sa):
        # segment midpoints: interior/exterior witnesses for improper
        # vertex-to-vertex passages (see polyline_polygon_relate)
        mx = (sa[:, 0] + sb[:, 0]) * 0.5
        my = (sa[:, 1] + sb[:, 1]) * 0.5
        m_in = poly.contains_points(mx, my)
        m_cov = m_in | poly.touches_points(mx, my)
        m_in_g = _any_per_group(m_in, seg_grp, n_grp)
        s_in |= m_in_g
        contact |= m_in_g
        s_out |= _any_per_group(~m_cov, seg_grp, n_grp)
        touch_seg = np.zeros(len(sa), dtype=bool)
        proper_seg = np.zeros(len(sa), dtype=bool)
        for ring in poly.rings:
            _segments_vs_ring_accum(sa, sb, ring, touch_seg, proper_seg)
        contact |= _any_per_group(touch_seg, seg_grp, n_grp)
        proper = _any_per_group(proper_seg, seg_grp, n_grp)
        contact |= proper
    return contact, s_in, s_out, proper


def points_vs_flat_polygons(qx, qy, sa, sb, seg_grp, n_grp,
                            chunk: int = _PAIR_CHUNK):
    """Even-odd PIP + boundary test of K query points against n_grp
    polygons given as flat CLOSED-ring segments (sa→sb, labeled by
    ``seg_grp``; WKB rings repeat the first point, so consecutive-pair
    segments already include the closure edge). Returns
    (inside (K, n_grp), on_boundary (K, n_grp)) — same crossing-number
    formulation as points_in_ring (exact on the lattice)."""
    K = len(qx)
    S = len(sa)
    inside = np.zeros((K, n_grp), dtype=bool)
    onb = np.zeros((K, n_grp), dtype=bool)
    if S == 0 or K == 0:
        return inside, onb
    crossn = np.zeros((K, n_grp), dtype=np.int64)
    step = max(1, chunk // S)
    for k0 in range(0, K, step):
        ke = min(K, k0 + step)
        px = np.asarray(qx[k0:ke], np.float64)[:, None]
        py = np.asarray(qy[k0:ke], np.float64)[:, None]
        ax, ay = sa[:, 0][None, :], sa[:, 1][None, :]
        bx, by = sb[:, 0][None, :], sb[:, 1][None, :]
        straddle = (ay > py) != (by > py)
        t = (py - ay) * (bx - ax) - (px - ax) * (by - ay)
        cross = straddle & ((t > 0) == (by > ay))
        onseg = (((px - ax) * (by - ay) - (py - ay) * (bx - ax)) == 0) \
            & (px >= np.minimum(ax, bx)) & (px <= np.maximum(ax, bx)) \
            & (py >= np.minimum(ay, by)) & (py <= np.maximum(ay, by))
        for k in range(k0, ke):
            crossn[k] = np.bincount(seg_grp[cross[k - k0]], minlength=n_grp)
            onb[k] = np.bincount(seg_grp[onseg[k - k0]],
                                 minlength=n_grp).astype(bool)
    inside = (crossn & 1).astype(bool)
    return inside & ~onb, onb


def points_in_polygons_paired(px, py, grp, polys,
                              chunk: int = _PAIR_CHUNK):
    """Pair-aligned point-in-polygon: point i against ``polys[grp[i]]``
    (a list of :class:`PreparedPolygon`). Returns (interior, boundary),
    two (P,) bool arrays: strictly inside, and exactly on a ring.

    The same bbox prefilter and expressions as
    :meth:`PreparedPolygon.contains_points` (interior) and
    :meth:`PreparedPolygon.covers_points` (interior | boundary), so the
    results are bit-identical: crossing parity over the segments of all
    rings (even-odd, as :func:`points_in_rings`) plus the on-segment
    test of :func:`points_on_ring`. Each surviving pair is expanded to
    one row per segment of its polygon, ``chunk`` rows at a time."""
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    interior = np.zeros(len(px), dtype=bool)
    boundary = np.zeros(len(px), dtype=bool)
    if not len(px):
        return interior, boundary
    grp = np.asarray(grp, np.int64)
    bb = np.array([p.bbox for p in polys], np.float64)[grp]
    keep = np.flatnonzero((px >= bb[:, 0]) & (px <= bb[:, 2])
                          & (py >= bb[:, 1]) & (py <= bb[:, 3]))
    if not len(keep):
        return interior, boundary
    # flat segments of every ring (WKB rings repeat their first point,
    # so consecutive pairs include the closing edge), polygon-major
    rings = [r for p in polys for r in p.rings]
    sa = np.concatenate([r[:-1] for r in rings])
    sb = np.concatenate([r[1:] for r in rings])
    nseg = np.array([sum(len(r) - 1 for r in p.rings) for p in polys],
                    np.int64)
    sstart = np.cumsum(nseg) - nseg
    lens = nseg[grp[keep]]
    ends = np.cumsum(lens)
    i0 = 0
    while i0 < len(keep):
        i1 = max(i0 + 1, int(np.searchsorted(ends, ends[i0] - lens[i0] + chunk,
                                             "right")))
        k, n = keep[i0:i1], lens[i0:i1]
        pair = np.repeat(np.arange(len(k)), n)
        seg = np.arange(int(n.sum()), dtype=np.int64) \
            - (np.cumsum(n) - n)[pair] + sstart[grp[k]][pair]
        qx, qy = px[k][pair], py[k][pair]
        ax, ay, bx, by = sa[seg, 0], sa[seg, 1], sb[seg, 0], sb[seg, 1]
        straddle = (ay > qy) != (by > qy)
        t = (qy - ay) * (bx - ax) - (qx - ax) * (by - ay)
        cross = straddle & ((t > 0) == (by > ay))
        onseg = (((qx - ax) * (by - ay) - (qy - ay) * (bx - ax)) == 0) \
            & (qx >= np.minimum(ax, bx)) & (qx <= np.maximum(ax, bx)) \
            & (qy >= np.minimum(ay, by)) & (qy <= np.maximum(ay, by))
        onb = np.bincount(pair[onseg], minlength=len(k)).astype(bool)
        odd = (np.bincount(pair[cross], minlength=len(k)) & 1).astype(bool)
        interior[k] = odd & ~onb
        boundary[k] = onb
        i0 = i1
    return interior, boundary


def is_axis_rect(ring: np.ndarray) -> tuple | None:
    """(x0, y0, x1, y1) when the closed ring is an axis-aligned
    rectangle, else None."""
    if len(ring) != 5 or not np.array_equal(ring[0], ring[-1]):
        return None
    xs, ys = np.unique(ring[:4, 0]), np.unique(ring[:4, 1])
    if len(xs) != 2 or len(ys) != 2:
        return None
    corners = {(x, y) for x, y in ring[:4]}
    want = {(xs[0], ys[0]), (xs[0], ys[1]), (xs[1], ys[0]), (xs[1], ys[1])}
    if corners != want:
        return None
    return float(xs[0]), float(ys[0]), float(xs[1]), float(ys[1])


def _clip_seg_rect(ax, ay, bx, by, x0, y0, x1, y1):
    """Liang–Barsky clip of one segment to a closed rect. Returns
    ((cx0, cy0), (cx1, cy1)) or None. Crossing coordinates on the
    clipped axis are set to the rect BOUND exactly (no ax + t*dx
    round-trip), so axis-aligned segments clip exactly."""
    dx, dy = bx - ax, by - ay
    t0, tag0 = 0.0, None            # (t, (axis, bound)) of entry/exit
    t1, tag1 = 1.0, None
    for p, q, axis, bound in ((-dx, ax - x0, "x", x0), (dx, x1 - ax, "x", x1),
                              (-dy, ay - y0, "y", y0), (dy, y1 - ay, "y", y1)):
        if p == 0:
            if q < 0:
                return None         # parallel and outside this bound
            continue
        t = q / p
        if p < 0:                   # entering
            if t > t1:
                return None
            if t > t0:
                t0, tag0 = t, (axis, bound)
        else:                       # leaving
            if t < t0:
                return None
            if t < t1:
                t1, tag1 = t, (axis, bound)
    def pt(t, tag):
        if tag is None:
            return (ax, ay) if t == 0.0 else (bx, by)
        axis, bound = tag
        if axis == "x":
            return bound, ay + t * dy
        return ax + t * dx, bound
    return pt(t0, tag0), pt(t1, tag1)


def clip_polyline_rect(pts: np.ndarray, x0, y0, x1, y1) -> list[np.ndarray]:
    """Clip a polyline to an axis-aligned rect → list of polyline
    pieces (each (m,2), m ≥ 2; single-point grazes dropped). The
    engine's line half of the spatial-join `clip` overlay
    (/root/reference/pythongis/vector/manager.py:208-266)."""
    pieces: list[list] = []
    cur: list = []
    for i in range(len(pts) - 1):
        c = _clip_seg_rect(pts[i, 0], pts[i, 1], pts[i + 1, 0], pts[i + 1, 1],
                           x0, y0, x1, y1)
        if c is None or c[0] == c[1]:
            if len(cur) >= 2:
                pieces.append(cur)
            cur = []
            continue
        (p, q) = c
        if cur and cur[-1] == p:
            cur.append(q)
        else:
            if len(cur) >= 2:
                pieces.append(cur)
            cur = [p, q]
    if len(cur) >= 2:
        pieces.append(cur)
    return [np.asarray(p, np.float64) for p in pieces]


def clip_polyline_rect_complement(pts: np.ndarray, x0, y0, x1, y1):
    """Difference overlay: the polyline pieces OUTSIDE the rect.
    Derived per segment: the sub-intervals of [0,1] not covered by the
    clip (endpoints snapped to the exact crossing coordinates)."""
    out: list[np.ndarray] = []
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        c = _clip_seg_rect(a[0], a[1], b[0], b[1], x0, y0, x1, y1)
        if c is None:
            out.append(np.vstack([a, b]))
            continue
        (p, q) = c
        pa_ = (float(a[0]), float(a[1]))
        pb_ = (float(b[0]), float(b[1]))
        if p != pa_:
            out.append(np.asarray([pa_, p], np.float64))
        if q != pb_:
            out.append(np.asarray([q, pb_], np.float64))
    # merge chains (consecutive pieces sharing endpoints)
    merged: list[np.ndarray] = []
    for piece in out:
        if merged and tuple(merged[-1][-1]) == tuple(piece[0]):
            merged[-1] = np.vstack([merged[-1], piece[1:]])
        else:
            merged.append(piece)
    return merged


# ------------------------------------------------------------ rect union

def clip_polyline_polygon(pts: np.ndarray, poly: PreparedPolygon,
                          mode: str = "intersection") -> list:
    """Clip a polyline against an ARBITRARY polygon (holes included):
    ``mode='intersection'`` keeps the pieces inside the closed
    polygon, ``'difference'`` the pieces outside. Exact split points:
    segment×edge crossing parameters are solved in Fractions (float64
    lattice inputs convert exactly), pieces classify by a covers-test
    of their midpoint, and consecutive kept pieces re-chain into
    maximal polylines. The general companion of the rect fast paths
    (clip_polyline_rect / _complement); reference overlay rewrite
    /root/reference/pythongis/vector/manager.py:208-266."""
    from fractions import Fraction as Fr

    if mode not in ("intersection", "difference"):
        raise ValueError(f"unsupported mode {mode!r}")
    edges = []
    for ring in poly.rings:
        for k in range(len(ring) - 1):
            edges.append((Fr(float(ring[k, 0])), Fr(float(ring[k, 1])),
                          Fr(float(ring[k + 1, 0])), Fr(float(ring[k + 1, 1]))))
    pieces: list[list] = []
    cur: list = []
    for i in range(len(pts) - 1):
        ax, ay = Fr(float(pts[i, 0])), Fr(float(pts[i, 1]))
        bx, by = Fr(float(pts[i + 1, 0])), Fr(float(pts[i + 1, 1]))
        dx, dy = bx - ax, by - ay
        ts = [Fr(0), Fr(1)]
        for ex0, ey0, ex1, ey1 in edges:
            fx, fy = ex1 - ex0, ey1 - ey0
            den = dx * fy - dy * fx
            if den == 0:
                # parallel: collinear overlap splits at edge endpoints
                if (ex0 - ax) * dy - (ey0 - ay) * dx == 0:
                    L2 = dx * dx + dy * dy
                    if L2 > 0:
                        for qx, qy in ((ex0, ey0), (ex1, ey1)):
                            t = ((qx - ax) * dx + (qy - ay) * dy) / L2
                            if 0 < t < 1:
                                ts.append(t)
                continue
            t = ((ex0 - ax) * fy - (ey0 - ay) * fx) / den
            u = ((ex0 - ax) * dy - (ey0 - ay) * dx) / den
            if 0 < t < 1 and 0 <= u <= 1:
                ts.append(t)
        ts = sorted(set(ts))
        for t0, t1 in zip(ts[:-1], ts[1:]):
            tm = (t0 + t1) / 2
            mx = float(ax + dx * tm)
            my = float(ay + dy * tm)
            cov = bool(poly.covers_points(np.array([mx]),
                                          np.array([my]))[0])
            keep = cov if mode == "intersection" else not cov
            p = (float(ax + dx * t0), float(ay + dy * t0))
            q = (float(ax + dx * t1), float(ay + dy * t1))
            if not keep or p == q:
                if len(cur) >= 2:
                    pieces.append(cur)
                cur = []
                continue
            if cur and cur[-1] == p:
                cur.append(q)
            else:
                if len(cur) >= 2:
                    pieces.append(cur)
                cur = [p, q]
    if len(cur) >= 2:
        pieces.append(cur)
    return [np.asarray(p, np.float64) for p in pieces]


def merge_intervals(iv: np.ndarray) -> list[tuple[float, float]]:
    """Union of 1-D closed intervals (n,2) → sorted disjoint list
    (touching intervals merge). Exact: comparisons only."""
    if len(iv) == 0:
        return []
    order = np.lexsort((iv[:, 1], iv[:, 0]))
    out: list[list[float]] = []
    for s, e in iv[order]:
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([float(s), float(e)])
    return [(s, e) for s, e in out]


def union_rects(rects: np.ndarray):
    """Exact union of axis-aligned rects (n,4: x0,y0,x1,y1) by x-slab
    sweep → (area, parts) where parts is a list of DISJOINT maximal
    (x0, y0, x1, y1) rects (adjacent slabs with identical y-cover are
    merged). Area is a sum of exact dyadic width×height products —
    bit-reproducible and SQL-mirrorable. This is the GEOS-free
    dissolve kernel (reference aggreg geometry union,
    /root/reference/pythongis/vector/sql.py:129-137)."""
    rects = np.asarray(rects, np.float64)
    if len(rects) == 0:
        return 0.0, []
    xs = np.unique(np.concatenate([rects[:, 0], rects[:, 2]]))
    area = 0.0
    parts: list[tuple[float, float, float, float]] = []
    prev_cover: tuple = ()
    run_start = 0.0
    prev_end = None
    for i in range(len(xs) - 1):
        xa, xb = float(xs[i]), float(xs[i + 1])
        act = rects[(rects[:, 0] <= xa) & (rects[:, 2] >= xb)]
        cover = tuple(merge_intervals(act[:, (1, 3)]))
        area += sum((e - s) * (xb - xa) for s, e in cover)
        if cover != prev_cover or prev_end != xa:
            for s, e in prev_cover:
                parts.append((run_start, s, prev_end, e))
            prev_cover = cover
            run_start = xa
        prev_end = xb
    for s, e in prev_cover:
        parts.append((run_start, s, prev_end, e))
    return area, parts


# -------------------------------------------------------------- measures

def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area (CCW positive)."""
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def polygon_area(rings) -> float:
    """Planar area, holes subtracted (reference `area` semantics,
    /root/reference/pythongis/vector/data.py:319-321 via shapely)."""
    return abs(ring_area(rings[0])) - sum(abs(ring_area(r)) for r in rings[1:])


def line_length(coords: np.ndarray) -> float:
    d = np.diff(coords, axis=0)
    return float(np.sqrt((d * d).sum(axis=1)).sum())


def polygon_centroid(rings) -> tuple[float, float]:
    """Area-weighted centroid (holes subtract), matching shapely
    centroid for valid polygons (reference to_points 'centroid',
    /root/reference/pythongis/vector/converter.py:115-128)."""
    cx = cy = area = 0.0
    for i, ring in enumerate(rings):
        x, y = ring[:-1, 0], ring[:-1, 1]
        xn, yn = ring[1:, 0], ring[1:, 1]
        cr = x * yn - xn * y
        a = 0.5 * cr.sum()
        if a == 0:
            continue
        sign = 1.0 if i == 0 else -1.0
        gx = ((x + xn) * cr).sum() / (6.0 * a)
        gy = ((y + yn) * cr).sum() / (6.0 * a)
        cx += sign * abs(a) * gx
        cy += sign * abs(a) * gy
        area += sign * abs(a)
    if area == 0:
        pts = np.vstack(rings)
        return float(pts[:, 0].mean()), float(pts[:, 1].mean())
    return cx / area, cy / area


# ------------------------------------------------------------------ clip

def clip_polygon_convex(subject: np.ndarray, clip_ring: np.ndarray) -> np.ndarray | None:
    """Sutherland–Hodgman: clip a subject ring by a CONVEX clip ring
    (CCW). Returns the clipped closed ring or None if empty. Used for
    the spatial join ``clip='intersection'`` overlay rewrite
    (/root/reference/pythongis/vector/manager.py:208-266) when the clip
    side is convex (all engine zone fixtures are)."""
    poly = subject[:-1] if np.array_equal(subject[0], subject[-1]) else subject
    cr = clip_ring[:-1] if np.array_equal(clip_ring[0], clip_ring[-1]) else clip_ring
    if ring_area(np.vstack([cr, cr[:1]])) < 0:
        cr = cr[::-1]
    out = [tuple(p) for p in poly]
    for i in range(len(cr)):
        ax, ay = cr[i]
        bx, by = cr[(i + 1) % len(cr)]
        inp, out = out, []
        if not inp:
            return None
        for j in range(len(inp)):
            cx, cy = inp[j]
            dx, dy = inp[(j + 1) % len(inp)]
            c_in = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) >= 0
            d_in = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax) >= 0
            if c_in:
                out.append((cx, cy))
            if c_in != d_in:
                denom = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
                if denom != 0:
                    t = ((bx - ax) * (ay - cy) - (by - ay) * (ax - cx)) / denom
                    out.append((cx + t * (dx - cx), cy + t * (dy - cy)))
    if len(out) < 3:
        return None
    arr = np.asarray(out, np.float64)
    return np.vstack([arr, arr[:1]])


def convex_hull_ccw(pts: np.ndarray) -> np.ndarray:
    """Andrew monotone-chain convex hull of integer lattice points,
    returned as an (m, 2) int64 vertex array in CCW order with NO
    repeated closing vertex and no collinear interior vertices
    (strict turns only — every retained edge is maximal). Degenerate
    inputs: 1 point -> that point; all-collinear -> the two extreme
    points. All predicates are exact int64 cross products (lattice
    coords < 2^20, so products < 2^41)."""
    pts = np.unique(np.asarray(pts, np.int64), axis=0)  # sorts (x, y)
    n = len(pts)
    if n <= 2:
        return pts

    def chain(seq):
        h = []
        for p in seq:
            while len(h) >= 2:
                ox, oy = h[-2]
                ax, ay = h[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    h.pop()
                else:
                    break
            h.append((int(p[0]), int(p[1])))
        return h

    lower = chain(pts)
    upper = chain(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1], np.int64)


def min_enclosing_circle(pts: np.ndarray):
    """Exact minimum enclosing circle of integer lattice points.

    Returns ``(cxn, cyn, cd, r2_floor)``: the center as a reduced
    fraction (cxn/cd, cyn/cd) with cd > 0, and floor(r^2) — every
    intermediate is an exact Python int, no float ever enters.

    Method: candidates are restricted to convex-hull vertices (the
    MEC's support points are hull vertices). A diameter (pair) circle
    is the MEC iff it encloses all vertices; a circumcircle (triple)
    is the MEC iff it encloses all vertices AND its center lies in
    the closed triangle (the classical optimality condition: center
    in conv(touching points)). All valid candidates describe the same
    unique circle; the lexicographically-first (pairs before triples,
    then by support coordinates) is evaluated — mirrored verbatim by
    the SQL oracle."""
    from math import gcd

    P = np.unique(np.asarray(pts, np.int64), axis=0)
    if len(P) == 1:
        return int(P[0, 0]), int(P[0, 1]), 1, 0
    H = convex_hull_ccw(P)
    hv = sorted((int(x), int(y)) for x, y in H)

    def reduce_out(cxn, cyn, cd, r2n, r2d):
        g = gcd(gcd(cxn, cyn), cd)
        return cxn // g, cyn // g, cd // g, r2n // r2d

    def feasible(cxn, cyn, cd, r2n):
        return all((qx * cd - cxn) ** 2 + (qy * cd - cyn) ** 2 <= r2n
                   for qx, qy in hv)

    for i in range(len(hv)):          # pairs, lex order
        ax, ay = hv[i]
        for j in range(i + 1, len(hv)):
            bx, by = hv[j]
            cxn, cyn, cd = ax + bx, ay + by, 2
            r2n = (ax - bx) ** 2 + (ay - by) ** 2
            if feasible(cxn, cyn, cd, r2n):
                return reduce_out(cxn, cyn, cd, r2n, 4)

    for i in range(len(hv)):          # triples, lex order
        ax, ay = hv[i]
        for j in range(i + 1, len(hv)):
            bx, by = hv[j]
            for k in range(j + 1, len(hv)):
                cx, cy = hv[k]
                d0 = 2 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
                if d0 == 0:
                    continue
                b2 = (bx - ax) ** 2 + (by - ay) ** 2
                c2 = (cx - ax) ** 2 + (cy - ay) ** 2
                uxn = (cy - ay) * b2 - (by - ay) * c2
                uyn = (bx - ax) * c2 - (cx - ax) * b2
                if d0 < 0:
                    d0, uxn, uyn = -d0, -uxn, -uyn
                cxn, cyn, cd = ax * d0 + uxn, ay * d0 + uyn, d0
                r2n = uxn ** 2 + uyn ** 2
                if not feasible(cxn, cyn, cd, r2n):
                    continue
                s1 = (bx - ax) * (cyn - ay * cd) \
                    - (by - ay) * (cxn - ax * cd)
                s2 = (cx - bx) * (cyn - by * cd) \
                    - (cy - by) * (cxn - bx * cd)
                s3 = (ax - cx) * (cyn - cy * cd) \
                    - (ay - cy) * (cxn - cx * cd)
                if (s1 >= 0 and s2 >= 0 and s3 >= 0) or \
                        (s1 <= 0 and s2 <= 0 and s3 <= 0):
                    return reduce_out(cxn, cyn, cd, r2n, d0 * d0)
    raise AssertionError("no MEC candidate found (impossible)")
