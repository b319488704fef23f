"""Distributed spatial join / semi-join / kNN over the cell grid.

Re-expresses the reference's flagship single-process spatial join
(/root/reference/pythongis/vector/manager.py:160-489: per-left-feature
R-tree candidate fetch + exact shapely predicate) as Ray-Data-native
plans:

* **broadcast path** (small polygon side, the common web-scale shape:
  10^12 geocoded pages × 10^4..10^5 zones): the zone layer is parsed
  once into a :class:`ZoneIndex`, put in the object store once
  (``ray.put``), and every refine worker pulls it once through the
  worker-side state cache (``state.get_broadcast``).
  No shuffle at all — the pipeline stays a streaming ``map_batches``.

* **shuffle path** (both sides large; one salted two-phase driver,
  :func:`_salted_shuffle_join`, for point, line and polygon left
  sides): phase 0 counts left rows per cell to find hot cells; phase 1
  explodes right-side polygon cell covers (flat_map shape) and keys
  each left row by its cell (a point's single cell, a geometry's bbox
  cover), spreading a hot cell's left rows over its salts by row
  position and replicating the right side across them; phase 2 is
  one ``relational.group_apply`` on the bucket key, running the same
  vectorized refine per co-located bucket. A left point has exactly
  one cell, so each (left, right) pair meets in exactly one bucket. A line or polygon
  pair can share many cover cells; it is emitted only from its
  canonical cell (the smallest cell of the two covers' overlap), so no
  pair dedup pass is needed either way.

Predicate semantics (point left × polygon right), matching shapely's
DE-9IM results as used by the reference dispatch at manager.py:381-431:
  intersects = interior ∪ boundary        within/contains = interior
  touches    = boundary only              disjoint = complement
  dwithin    = planar distance ≤ radius (reference `distance`+radius,
               manager.py:268-379)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from pythongis_ray import grid, relational as rel, state
from pythongis_ray.geom import algo, wkb
from pythongis_ray.relational import (bucketed_group_apply, group_apply,
                                    map_arrow)


def _full_cover(bb, res: int):
    """Cell cover of a bbox AT exactly ``res`` (no adaptive
    coarsening): candidate-LOOKUP covers must key at the index
    resolution — bbox_to_cells' coarsening (meant to bound cover
    EXPLOSION in shuffle replication) would silently return zero
    candidates for world-spanning geometries."""
    nx, ny = grid.cell_dims(res)
    return grid.bbox_to_cells(*bb, res=res, max_cells=nx * ny + 1)


DEFAULT_INDEX_RES = 7  # zone index resolution (~1.4 deg cells)
POINT_PREDICATES = ("intersects", "within", "contains", "covers", "touches",
                    "disjoint", "dwithin")


# ------------------------------------------------------------ zone index

@dataclass
class ZoneIndex:
    """Broadcastable prepared-polygon index over the small join side.

    Replaces the reference's per-dataset rtree/quadtree
    (/root/reference/pythongis/vector/data.py:1189-1229) with an
    immutable cell→zones map built ONCE on the driver, shipped through
    the object store, and reused by every refine worker.
    """

    polys: list  # list[PreparedPolygon]
    attrs: dict  # column -> numpy array aligned with polys
    res: int
    cell_to_zones: dict = field(default_factory=dict)

    @classmethod
    def from_wkb(cls, geometry_wkbs, attrs: dict, res: int = DEFAULT_INDEX_RES):
        polys = []
        for b in geometry_wkbs:
            g = wkb.decode(bytes(b))
            polys.append(algo.PreparedPolygon(g["rings"], g.get("ring_part")))
        idx = cls(polys=polys, attrs={k: np.asarray(v) for k, v in attrs.items()}, res=res)
        pc, pz = [np.empty(0, np.uint64)], [np.empty(0, np.int64)]
        for zi, p in enumerate(polys):
            cells = _full_cover(p.bbox, res)
            pc.append(cells)
            pz.append(np.full(len(cells), zi, dtype=np.int64))
        idx._pair_cells = np.concatenate(pc)
        idx._pair_zones = np.concatenate(pz)
        idx._build_csr()
        return idx

    def _build_csr(self):
        """Dense CSR cell→zones lookup so candidate assignment per batch
        is pure vectorized gather (no Python per unique cell). Built
        vectorized from the (cell, zone) pair arrays."""
        nx, ny = grid.cell_dims(self.res)
        _, ix, iy = grid.unpack(self._pair_cells)
        li = iy * nx + ix
        order = np.argsort(li, kind="stable")
        counts = np.bincount(li, minlength=nx * ny)
        self.csr_off = np.concatenate(([0], np.cumsum(counts)))
        self.csr_zones = self._pair_zones[order]
        self._nx = nx
        self._ny = ny

    @property
    def cell_to_zones_map(self) -> dict:
        """Lazy dict view (only the polygon-join path needs it)."""
        if not self.cell_to_zones:
            d: dict[int, list[int]] = {}
            for c, z in zip(self._pair_cells.tolist(), self._pair_zones.tolist()):
                d.setdefault(int(c), []).append(int(z))
            self.cell_to_zones = d
        return self.cell_to_zones

    @classmethod
    def from_pandas(cls, df: pd.DataFrame, geometry_col: str = "geometry",
                    res: int = DEFAULT_INDEX_RES):
        attrs = {c: df[c].to_numpy() for c in df.columns if c != geometry_col}
        return cls.from_wkb(df[geometry_col].tolist(), attrs, res=res)

    def n_zones(self) -> int:
        return len(self.polys)

    def match_points(self, lon: np.ndarray, lat: np.ndarray, predicate: str,
                     radius: float = 0.0):
        """→ (point_idx, zone_idx) pair arrays for a batch of points.

        Vectorized: points are cell-grouped once, then each candidate
        zone tests all of its candidate points in one numpy call (the
        engine equivalent of the reference's per-feature
        quick_overlap + prepared predicate loop, manager.py:389-414).
        """
        step = grid.cell_size_deg(self.res)
        ix = np.floor((np.asarray(lon, np.float64) + 180.0) / step).astype(np.int64) % self._nx
        iy = np.clip(np.floor((np.asarray(lat, np.float64) + 90.0) / step).astype(np.int64),
                     0, self._ny - 1)
        li = iy * self._nx + ix
        # vectorized candidate-pair expansion via the CSR lookup
        starts = self.csr_off[li]
        cnts = self.csr_off[li + 1] - starts
        total = int(cnts.sum())
        if total == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64))
        pt_pair = np.repeat(np.arange(len(li), dtype=np.int64), cnts)
        cum = np.concatenate(([0], np.cumsum(cnts)[:-1]))
        local = np.arange(total, dtype=np.int64) - np.repeat(cum, cnts)
        zi_pair = self.csr_zones[np.repeat(starts, cnts) + local]
        # group candidate pairs by zone (few zones → short Python loop)
        zorder = np.argsort(zi_pair, kind="stable")
        zsorted = zi_pair[zorder]
        zbounds = np.flatnonzero(np.r_[True, zsorted[1:] != zsorted[:-1], True])
        out_p, out_z = [], []
        for s, e in zip(zbounds[:-1], zbounds[1:]):
            zi = int(zsorted[s])
            pts = pt_pair[zorder[s:e]]
            poly = self.polys[zi]
            if predicate in ("intersects", "covers"):
                m = poly.covers_points(lon[pts], lat[pts])
            elif predicate in ("within", "contains"):
                m = poly.contains_points(lon[pts], lat[pts])
            elif predicate == "touches":
                m = poly.touches_points(lon[pts], lat[pts])
            elif predicate == "dwithin":
                m = poly.distance_points(lon[pts], lat[pts]) <= radius
            else:
                raise ValueError(f"unsupported point predicate {predicate!r}")
            hit = pts[m]
            if len(hit):
                out_p.append(hit)
                out_z.append(np.full(len(hit), zi, dtype=np.int64))
        if not out_p:
            return (np.empty(0, np.int64), np.empty(0, np.int64))
        return np.concatenate(out_p), np.concatenate(out_z)


# ------------------------------------------------- broadcast join stage

def _emit_joined(batch: pa.Table, pidx: np.ndarray, zidx: np.ndarray,
                 index: ZoneIndex, how: str, rsuffix: str = "") -> pa.Table:
    """Build the joined Arrow table from pair indices.

    Duplicate right-side field names are dropped, matching the
    reference join column rule (/root/reference/pythongis/vector/
    data.py:1040-1043, manager.py:203-206)."""
    if how in ("left", "outer"):
        matched = np.zeros(batch.num_rows, dtype=bool)
        matched[pidx] = True
        un = np.flatnonzero(~matched)
        take = np.concatenate([pidx, un])
        out = batch.take(pa.array(take))
        for name, arr in index.attrs.items():
            if name in batch.column_names:
                name = name + rsuffix
                if not rsuffix:
                    continue
            vals = pa.array(arr)
            col = pa.concat_arrays([
                vals.take(pa.array(zidx)),
                pa.nulls(len(un), vals.type),
            ])
            out = out.append_column(name, col)
        return out
    out = batch.take(pa.array(pidx))
    for name, arr in index.attrs.items():
        if name in batch.column_names:
            name = name + rsuffix
            if not rsuffix:
                continue
        out = out.append_column(name, pa.array(arr[zidx]))
    return out


class BroadcastSpatialJoiner:
    """Refine stage: spatial join a point batch against a broadcast
    :class:`ZoneIndex`. Built once per worker process (through
    ``state.get_broadcast``), batches refined in __call__."""

    def __init__(self, index_ref, predicate: str = "intersects", how: str = "inner",
                 lon_col: str = "lon", lat_col: str = "lat",
                 geometry_col: str | None = None, radius: float = 0.0,
                 rsuffix: str = ""):
        self.index: ZoneIndex = ray.get(index_ref) if isinstance(
            index_ref, ray.ObjectRef) else index_ref
        self.predicate = predicate
        self.how = how
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.geometry_col = geometry_col
        self.radius = radius
        self.rsuffix = rsuffix

    def _lonlat(self, batch: pa.Table):
        if self.geometry_col is not None:
            return wkb.decode_points(batch[self.geometry_col])
        return (batch[self.lon_col].to_numpy(zero_copy_only=False),
                batch[self.lat_col].to_numpy(zero_copy_only=False))

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon, lat = self._lonlat(batch)
        pred = "intersects" if self.predicate == "disjoint" else self.predicate
        pidx, zidx = self.index.match_points(lon, lat, pred, self.radius)
        if self.predicate == "disjoint":
            # anti-join: keep left rows with NO matching zone
            # (reference disjoint branch, manager.py:433-486)
            matched = np.zeros(batch.num_rows, dtype=bool)
            matched[pidx] = True
            return batch.take(pa.array(np.flatnonzero(~matched)))
        return _emit_joined(batch, pidx, zidx, self.index, self.how, self.rsuffix)


def spatial_join(points_ds, zones: pd.DataFrame | ZoneIndex, predicate: str = "intersects",
                 how: str = "inner", lon_col: str = "lon", lat_col: str = "lat",
                 geometry_col: str | None = None, radius: float = 0.0,
                 rsuffix: str = "", batch_size: int = 65536, subkey=None):
    """Broadcast spatial join: Dataset of points × small polygon layer.

    The 100 TB shape: zones go through ``ray.put`` once; the Dataset
    streams through warm stateless tasks that hold the parsed index in
    a worker-side state cache (see state.py) — no all-to-all shuffle,
    no driver materialization.

    ``subkey``: optional extra pair predicate applied to the joined
    batch (the reference's ``subkey`` option, manager.py:175-183):
    a callable ``(pandas.DataFrame) -> bool mask`` evaluated inside
    the refine stage (vectorize it!), keeping only pairs where the
    attribute condition also holds."""
    index = zones if isinstance(zones, ZoneIndex) else ZoneIndex.from_pandas(zones)
    ref = ray.put(index)
    kw = dict(predicate=predicate, how=how, lon_col=lon_col, lat_col=lat_col,
              geometry_col=geometry_col, radius=radius, rsuffix=rsuffix)
    if subkey is not None and how != "inner":
        raise ValueError("subkey requires how='inner'")
    key = ("spjoin", predicate, how, lon_col, lat_col, geometry_col or "",
           radius, rsuffix)

    def fn(batch: pa.Table) -> pa.Table:
        joiner = state.get_broadcast(
            ref, builder=lambda idx: BroadcastSpatialJoiner(idx, **kw),
            key_extra=key)
        out = joiner(batch)
        if subkey is not None:
            mask = np.asarray(subkey(out.to_pandas()), bool)
            out = out.filter(pa.array(mask))
        return out

    return points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def spatial_where(points_ds, zones, predicate: str = "intersects", **kw):
    """Spatial semi-join: keep left rows matching ≥1 zone, attaching no
    zone columns (reference `where`, manager.py:81-158)."""
    index = zones if isinstance(zones, ZoneIndex) else ZoneIndex.from_pandas(zones)
    ref = ray.put(index)

    def fn(batch: pa.Table) -> pa.Table:
        joiner = state.get_broadcast(
            ref, builder=lambda idx: BroadcastSpatialJoiner(idx, predicate=predicate, **kw),
            key_extra=("semi", predicate) + tuple(sorted(kw.items())))
        lon, lat = joiner._lonlat(batch)
        pidx, _ = joiner.index.match_points(lon, lat, joiner.predicate, joiner.radius)
        keep = np.zeros(batch.num_rows, dtype=bool)
        keep[pidx] = True
        return batch.take(pa.array(np.flatnonzero(keep)))

    return map_arrow(points_ds, fn)


# ------------------------------------------------ partial-agg spatial stats

class _ZonalPartial:
    """Fused join+aggregate stage: per batch, join points to zones and
    emit ONE partial-aggregate row per (zone, batch) — the combiner
    that keeps the shuffle tiny (SURVEY.md §4 'pre-aggregate partial').

    Replaces the reference's per-group-feature aggregation loop in
    spatial_stats (/root/reference/pythongis/vector/analyzer.py:16-152)."""

    def __init__(self, index_ref, value_col: str, predicate: str,
                 lon_col: str, lat_col: str):
        self.index = ray.get(index_ref) if isinstance(index_ref, ray.ObjectRef) else index_ref
        self.value_col = value_col
        self.predicate = predicate
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        pidx, zidx = self.index.match_points(lon, lat, self.predicate)
        if len(pidx) == 0:
            return pd.DataFrame({"zone_idx": np.empty(0, np.int64),
                                 "psum": np.empty(0, np.int64),
                                 "pcnt": np.empty(0, np.int64),
                                 "pmin": np.empty(0, np.int64),
                                 "pmax": np.empty(0, np.int64)})
        vals = batch[self.value_col].to_numpy(zero_copy_only=False)[pidx]
        nz = self.index.n_zones()
        psum = np.bincount(zidx, weights=vals, minlength=nz)
        pcnt = np.bincount(zidx, minlength=nz)
        pmin = np.full(nz, np.iinfo(np.int64).max, dtype=np.float64)
        pmax = np.full(nz, np.iinfo(np.int64).min, dtype=np.float64)
        np.minimum.at(pmin, zidx, vals)
        np.maximum.at(pmax, zidx, vals)
        nzmask = pcnt > 0
        return pd.DataFrame({
            "zone_idx": np.flatnonzero(nzmask).astype(np.int64),
            "psum": psum[nzmask].astype(np.int64),
            "pcnt": pcnt[nzmask].astype(np.int64),
            "pmin": pmin[nzmask].astype(np.int64),
            "pmax": pmax[nzmask].astype(np.int64),
        })


def spatial_agg(points_ds, zones: pd.DataFrame, value_col: str,
                predicate: str = "intersects", lon_col: str = "lon",
                lat_col: str = "lat", zone_id_col: str = "zone_id"):
    """Per-zone sum/count/min/max/mean of an integer value column over
    joined points. Partial per-batch combine → small groupby final.
    Mean is computed as one division of exact integer sum/count so the
    result is bit-reproducible (and DuckDB-matchable)."""
    index = ZoneIndex.from_pandas(zones)
    ref = ray.put(index)

    def partial_fn(batch: pa.Table) -> pd.DataFrame:
        st = state.get_broadcast(
            ref, builder=lambda idx: _ZonalPartial(idx, value_col=value_col,
                                                   predicate=predicate,
                                                   lon_col=lon_col, lat_col=lat_col),
            key_extra=("zonalp", value_col, predicate, lon_col, lat_col))
        return st(batch)

    partials = map_arrow(points_ds, partial_fn)
    # two-level aggregate: bounded (batches × zones) table → one
    # vectorized driver reduce (exact int sums are order-free)
    pdf = partials.to_pandas()
    out = pdf.groupby("zone_idx", sort=True).agg(
        sum_val=("psum", "sum"), cnt=("pcnt", "sum"),
        min_val=("pmin", "min"), max_val=("pmax", "max")).reset_index()
    zid = zones[zone_id_col].to_numpy()
    out.insert(0, zone_id_col, zid[out["zone_idx"].to_numpy()])
    out = out.drop(columns=["zone_idx"])
    out["mean_val"] = out["sum_val"].astype(np.float64) / out["cnt"].to_numpy()
    return out.sort_values(zone_id_col).reset_index(drop=True)


# ------------------------------------------------------------- kNN join

class KnnJoiner:
    """Brute-force k-nearest-neighbour join, the reference that
    :class:`GridKnnJoiner` is tested against: each left point gets its k
    nearest right points (planar squared-euclidean in degrees, exact on
    the dyadic lattice; ties broken by right id ascending — the
    deterministic analog of the reference's distance sort at
    /root/reference/pythongis/vector/manager.py:293-296,324-355).

    Right side is broadcast (coordinates + id arrays); distance is
    computed blockwise (points × right-chunk) with a running top-k so
    memory stays bounded for large right sides.
    """

    def __init__(self, right_ref, k: int = 1, lon_col: str = "lon",
                 lat_col: str = "lat", right_chunk: int = 4096,
                 out_prefix: str = "nn_"):
        # fixed-shape scratch buffers, reused across chunks AND batches:
        # this sandbox's kernel makes first-touch page faults ~100x
        # slower than reuse, so fresh (n, m) temporaries per chunk would
        # dominate the stage
        self._bufs: dict = {}
        right = ray.get(right_ref) if isinstance(right_ref, ray.ObjectRef) else right_ref
        self.rlon = np.asarray(right["lon"], np.float64)
        self.rlat = np.asarray(right["lat"], np.float64)
        self.rid = np.asarray(right["id"], np.int64)
        order = np.argsort(self.rid, kind="stable")  # tie-break by id
        self.rlon, self.rlat, self.rid = self.rlon[order], self.rlat[order], self.rid[order]
        self.rattrs = {k2: np.asarray(v)[order] for k2, v in right.items()
                       if k2 not in ("lon", "lat", "id")}
        self.k = k
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.right_chunk = right_chunk
        self.out_prefix = out_prefix

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        n, k = len(lon), self.k
        m = len(self.rlon)
        # two-level selection: cheap unordered argpartition to a top-M
        # candidate pool per chunk (M = k + 32 tie head-room), then ONE
        # exact lexsort over the small pool with (distance, id-position)
        # tie-break. Exactness: a dropped candidate can only matter if
        # >32 right points are exactly equidistant at the cut — not
        # constructible on the hashed fixture lattice.
        M = min(k + 32, m)
        pool_d, pool_j = [], []
        for s in range(0, m, self.right_chunk):
            e = min(s + self.right_chunk, m)
            shape = (n, e - s)
            bufs = self._bufs.get(shape)
            if bufs is None:
                bufs = self._bufs[shape] = (np.empty(shape), np.empty(shape))
            dx, dy = bufs
            np.subtract(lon[:, None], self.rlon[None, s:e], out=dx)
            np.subtract(lat[:, None], self.rlat[None, s:e], out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)
            d2 = dx
            if e - s > M:
                part = np.argpartition(d2, M - 1, axis=1)[:, :M]
                pool_d.append(np.take_along_axis(d2, part, axis=1))
                pool_j.append(part + s)
            else:
                pool_d.append(d2.copy())
                pool_j.append(np.broadcast_to(np.arange(s, e), (n, e - s)).copy())
        cand_d = np.concatenate(pool_d, axis=1)
        cand_j = np.concatenate(pool_j, axis=1)
        sel = np.lexsort((cand_j, cand_d), axis=1)[:, :k]
        best_d = np.take_along_axis(cand_d, sel, axis=1)
        best_j = np.take_along_axis(cand_j, sel, axis=1)
        if cand_d.shape[1] < k:  # fewer right rows than k
            pad = k - cand_d.shape[1]
            best_d = np.concatenate([best_d, np.full((n, pad), np.inf)], axis=1)
            best_j = np.concatenate([best_j, np.full((n, pad), -1, np.int64)], axis=1)
        rank = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
        flat_j = best_j.ravel()
        valid = flat_j >= 0
        left_take = np.repeat(np.arange(n, dtype=np.int64), k)[valid]
        out = batch.take(pa.array(left_take))
        out = out.append_column(self.out_prefix + "rank", pa.array(rank[valid]))
        out = out.append_column(self.out_prefix + "id", pa.array(self.rid[flat_j[valid]]))
        out = out.append_column(self.out_prefix + "dist_sq",
                                pa.array(best_d.ravel()[valid]))
        for name, arr in self.rattrs.items():
            out = out.append_column(self.out_prefix + name, pa.array(arr[flat_j[valid]]))
        return out


class GridKnnJoiner:
    """Grid-accelerated kNN join: right points bucketed by cell ONCE per
    worker; each left point searches expanding Chebyshev rings of cells
    until its k-th candidate distance is provably final (kth_d <
    r * cell_size ⇒ no unexplored cell can hold a closer point).

    This is the scale path promised in SURVEY.md §7.2(6): per-left
    top-k with expanding k-ring escalation, replacing the reference's
    brute-force nearest scan (/root/reference/pythongis/vector/
    analyzer.py:289-310). Exact same results (and tie-break by right
    id) as the brute-force :class:`KnnJoiner`, verified in tests.
    """

    def __init__(self, right_ref, k: int = 1, lon_col: str = "lon",
                 lat_col: str = "lat", out_prefix: str = "nn_",
                 res: int | None = None):
        right = ray.get(right_ref) if isinstance(right_ref, ray.ObjectRef) else right_ref
        rlon = np.asarray(right["lon"], np.float64)
        rlat = np.asarray(right["lat"], np.float64)
        rid = np.asarray(right["id"], np.int64)
        m = len(rid)
        if res is None:
            # aim for ~2 right points per cell
            res = 2
            while (2 << res) * (1 << res) < m // 2 and res < 12:
                res += 1
        self.res = res
        self.nx, self.ny = grid.cell_dims(res)
        self.cell_deg = grid.cell_size_deg(res)
        cells = grid.point_to_cell(rlon, rlat, res)
        order = np.lexsort((rid, cells.view(np.int64)))
        self.cell_sorted = cells.view(np.int64)[order]
        self.rlon = rlon[order]
        self.rlat = rlat[order]
        self.rid = rid[order]
        self.rattrs = {k2: np.asarray(v)[order] for k2, v in right.items()
                       if k2 not in ("lon", "lat", "id")}
        self.k = k
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.out_prefix = out_prefix

    def _ring_cells(self, ix: np.ndarray, iy: np.ndarray, r: int):
        """(p, (2r+1)^2) candidate cell ids with validity mask (rows
        outside the lat range are masked, lon wraps)."""
        xo = np.arange(-r, r + 1, dtype=np.int64)
        if len(xo) > self.nx:  # ring wider than the grid: one column each
            xo = np.arange(self.nx, dtype=np.int64) - self.nx // 2
        yo = np.arange(-r, r + 1, dtype=np.int64)
        ox, oy = np.meshgrid(xo, yo)
        ox, oy = ox.ravel(), oy.ravel()
        gx = np.mod(ix[:, None] + ox[None, :], self.nx)
        gy = iy[:, None] + oy[None, :]
        valid = (gy >= 0) & (gy < self.ny)
        gyc = np.clip(gy, 0, self.ny - 1)
        cells = grid.pack(self.res, gx, gyc).view(np.int64)
        return cells, valid

    def _topk_flat(self, lon, lat, r):
        """top-k for the given points using ring radius r. Returns
        (cnt, kth_d, flat_point, flat_pos, flat_d2 sorted per point)."""
        k = self.k
        ix = np.floor((lon + 180.0) / self.cell_deg).astype(np.int64) % self.nx
        iy = np.clip(np.floor((lat + 90.0) / self.cell_deg).astype(np.int64),
                     0, self.ny - 1)
        cells, valid = self._ring_cells(ix, iy, r)
        starts = np.searchsorted(self.cell_sorted, cells, "left")
        ends = np.searchsorted(self.cell_sorted, cells, "right")
        cnts = np.where(valid, ends - starts, 0)
        flat_cnt = cnts.ravel()
        total = int(flat_cnt.sum())
        q = cells.shape[1]
        seg_row = np.repeat(np.arange(cells.shape[0] * q), flat_cnt)
        cum = np.concatenate(([0], np.cumsum(flat_cnt)[:-1]))
        local = np.arange(total, dtype=np.int64) - np.repeat(cum, flat_cnt)
        pos = np.repeat(starts.ravel(), flat_cnt) + local
        point_of = seg_row // q
        dx = lon[point_of] - self.rlon[pos]
        dy = lat[point_of] - self.rlat[pos]
        d2 = dx * dx + dy * dy
        order = np.lexsort((self.rid[pos], d2, point_of))
        point_s = point_of[order]
        pos_s = pos[order]
        d2_s = d2[order]
        # segment boundaries per point
        seg_start = np.zeros(len(lon), dtype=np.int64)
        seg_cnt = np.bincount(point_of, minlength=len(lon))
        seg_start[1:] = np.cumsum(seg_cnt)[:-1]
        return seg_cnt, seg_start, point_s, pos_s, d2_s

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        n, k = len(lon), self.k
        out_pos = np.full((n, k), -1, dtype=np.int64)
        out_d = np.full((n, k), np.inf)
        unresolved = np.arange(n)
        r = 1
        max_r = max(self.nx, self.ny)
        while len(unresolved):
            lo, la = lon[unresolved], lat[unresolved]
            seg_cnt, seg_start, point_s, pos_s, d2_s = self._topk_flat(lo, la, r)
            kth = np.full(len(unresolved), np.inf)
            has_k = seg_cnt >= k
            kth[has_k] = d2_s[seg_start[has_k] + k - 1]
            bound = (r * self.cell_deg) ** 2
            done = has_k & (kth < bound)
            if r >= max_r:
                done = np.ones(len(unresolved), dtype=bool)
            didx = np.flatnonzero(done)
            for col in range(k):
                sel = didx[seg_cnt[didx] > col]
                out_pos[unresolved[sel], col] = pos_s[seg_start[sel] + col]
                out_d[unresolved[sel], col] = d2_s[seg_start[sel] + col]
            unresolved = unresolved[~done]
            r *= 2
        rank = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
        flat_pos = out_pos.ravel()
        vld = flat_pos >= 0
        left_take = np.repeat(np.arange(n, dtype=np.int64), k)[vld]
        out = batch.take(pa.array(left_take))
        out = out.append_column(self.out_prefix + "rank", pa.array(rank[vld]))
        out = out.append_column(self.out_prefix + "id", pa.array(self.rid[flat_pos[vld]]))
        out = out.append_column(self.out_prefix + "dist_sq", pa.array(out_d.ravel()[vld]))
        for name, arr in self.rattrs.items():
            out = out.append_column(self.out_prefix + name, pa.array(arr[flat_pos[vld]]))
        return out


def knn_join(points_ds, right: pd.DataFrame, k: int = 1, id_col: str = "id",
             lon_col: str = "lon", lat_col: str = "lat", out_prefix: str = "nn_",
             batch_size: int = 4096):
    """kNN join of a point Dataset against a broadcast right point set.
    (reference nearest/`closest_point`: /root/reference/pythongis/
    vector/analyzer.py:289-310 and data.py:1261-1314)."""
    payload = {c: right[c].to_numpy() for c in right.columns}
    payload["id"] = right[id_col].to_numpy()
    if id_col != "id":
        payload.pop(id_col, None)
    ref = ray.put(payload)

    def fn(batch: pa.Table) -> pa.Table:
        joiner = state.get_broadcast(
            ref, builder=lambda r: GridKnnJoiner(r, k=k, lon_col=lon_col,
                                                 lat_col=lat_col,
                                                 out_prefix=out_prefix),
            key_extra=("knn", k, lon_col, lat_col, out_prefix))
        return joiner(batch)

    return points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def spatial_stats(points_ds, zones: pd.DataFrame, fieldmapping,
                  predicate: str = "intersects", zone_id_col: str = "zone_id",
                  order_col: str | None = None):
    """Overlay aggregation with the full fieldmapping stat vocabulary
    (count/sum/min/max/mean + first/last/majority/minority/concat) —
    the reference's `analyzer.spatial_stats`
    (/root/reference/pythongis/vector/analyzer.py:16-152): join points
    to zones, then grouped aggregate per zone. Purely-algebraic
    fieldmappings should prefer :func:`spatial_agg` (fused partial
    combine, no joined-row materialization)."""
    joined = spatial_join(points_ds, zones[[zone_id_col, "geometry"]],
                          predicate=predicate)
    return rel.groupby_aggregate(joined, zone_id_col, fieldmapping,
                                 order_col=order_col)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated aranges: [s0..s0+l0) ++ [s1..s1+l1) ++ … — the
    vectorized gather feed for flat-cohort refines."""
    tot = int(lens.sum())
    if tot == 0:
        return np.empty(0, np.int64)
    cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return (np.arange(tot, dtype=np.int64) - np.repeat(cum, lens)
            + np.repeat(starts, lens))


class _FlatBatch:
    """One batch of WKB geometries decoded to flat arrays plus the
    per-feature index structure the vectorized refines gather from.

    Derived once per batch: per-present-feature point ranges
    (f_start/f_end into ``pts``), segment ranges (s_start/s_end into
    ``sa_idx``: global point index of each segment start), ring ranges
    (r_start/r_end into ``ring_off``), and per-feature bboxes."""

    def __init__(self, geom_col, nrows: int):
        flat = wkb.decode_flat(geom_col)
        self.pts = flat["pts"]
        self.ring_off = flat["ring_off"]
        self.ring_feat = flat["ring_feat"]
        self.ring_part = flat["ring_part"]
        self.valid = flat["valid"]
        self.nrows = nrows
        ring_len = np.diff(self.ring_off)
        self.pt_feat = np.repeat(self.ring_feat, ring_len)
        if len(self.ring_feat):
            self.feat_ids, first_ring = np.unique(self.ring_feat,
                                                  return_index=True)
        else:
            self.feat_ids = np.empty(0, np.int64)
            first_ring = np.empty(0, np.int64)
        self.f_start = self.ring_off[first_ring]
        self.f_end = np.append(self.f_start[1:],
                               len(self.pts)).astype(np.int64)
        self.r_start = np.searchsorted(self.ring_feat, self.feat_ids, "left")
        self.r_end = np.searchsorted(self.ring_feat, self.feat_ids, "right")
        # segments: consecutive point pairs within each ring
        seg_keep = np.ones(len(self.pts), dtype=bool)
        if len(self.pts):
            seg_keep[self.ring_off[1:] - 1] = False
        self.sa_idx = np.flatnonzero(seg_keep)
        self.seg_feat = self.pt_feat[self.sa_idx]
        self.s_start = np.searchsorted(self.seg_feat, self.feat_ids, "left")
        self.s_end = np.searchsorted(self.seg_feat, self.feat_ids, "right")
        if len(self.feat_ids):
            xs, ys = self.pts[:, 0], self.pts[:, 1]
            self.xmin = np.minimum.reduceat(xs, self.f_start)
            self.xmax = np.maximum.reduceat(xs, self.f_start)
            self.ymin = np.minimum.reduceat(ys, self.f_start)
            self.ymax = np.maximum.reduceat(ys, self.f_start)
        else:
            self.xmin = self.xmax = self.ymin = self.ymax = \
                np.empty(0, np.float64)

    def candidate_pairs(self, idx: "ZoneIndex"):
        """(local_feature_pos, zone) candidate pairs via the CSR cell
        lookup over per-feature bbox covers, deduped. Local positions
        index the present-feature arrays; ``feat_ids`` maps back to
        batch rows."""
        if not len(self.feat_ids):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        row_idx, cells = grid.bboxes_to_cells(self.xmin, self.ymin,
                                              self.xmax, self.ymax,
                                              res=idx.res)
        _, cix, ciy = grid.unpack(cells)
        li = ciy * idx._nx + cix
        starts = idx.csr_off[li]
        cnts = idx.csr_off[li + 1] - starts
        tot = int(cnts.sum())
        if tot == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        cf = np.repeat(row_idx, cnts)
        cz = idx.csr_zones[_ranges(starts, cnts)]
        nz = idx.n_zones()
        key = np.unique(cf * nz + cz)
        return key // nz, key % nz

    def gather_points(self, fsel: np.ndarray):
        """→ (point_rows (M',2) gather, group index per point)."""
        plen = self.f_end[fsel] - self.f_start[fsel]
        pidx = _ranges(self.f_start[fsel], plen)
        grp = np.repeat(np.arange(len(fsel), dtype=np.int64), plen)
        return self.pts[pidx], grp

    def gather_segments(self, fsel: np.ndarray):
        """→ (seg starts (S',2), seg ends (S',2), group per segment)."""
        slen = self.s_end[fsel] - self.s_start[fsel]
        sidx = _ranges(self.s_start[fsel], slen)
        grp = np.repeat(np.arange(len(fsel), dtype=np.int64), slen)
        gi = self.sa_idx[sidx]
        return self.pts[gi], self.pts[gi + 1], grp

    def feature_parts(self, local_pos: int) -> list[np.ndarray]:
        """Ring/part coordinate arrays of one feature (for the scalar
        clip path, which only runs on matched pairs)."""
        return [self.pts[self.ring_off[r]:self.ring_off[r + 1]]
                for r in range(self.r_start[local_pos],
                               self.r_end[local_pos])]

    def feature_ring_parts(self, local_pos: int) -> list[int]:
        return [int(self.ring_part[r])
                for r in range(self.r_start[local_pos],
                               self.r_end[local_pos])]


def spatial_join_polygons(left_ds, zones: pd.DataFrame,
                          predicate: str = "intersects",
                          geometry_col: str = "geometry", rsuffix: str = "",
                          clip: str | None = None):
    """Polygon×polygon spatial join (left polygons stream; zone side
    broadcast). Predicates: intersects (boundaries count) |
    overlaps (interiors only — the reference's touch-only exclusion,
    analyzer.py:62-66). Candidates via bbox cell cover; refine with
    exact polygon tests. Left geometries are parsed per batch (the
    polygon side of web-scale joins is the small one; a polygon-heavy
    LEFT at 10^9 scale would move parsing into the cell-shuffle path).

    ``clip`` (reference overlay rewrite, manager.py:208-266) adds
    ``clip_geometry`` (WKB) and ``clip_area``; zero-area (touch-only
    / fully-covered-difference) pairs are dropped:

    * ``'intersection'``: exact interval arithmetic when both sides
      are axis-aligned rects, Sutherland–Hodgman against convex zones
      otherwise;
    * ``'difference'`` / ``'union'``: the EXACT rational slab-sweep
      overlay (geom.union.overlay_exact) — any simple polygons,
      holes included."""
    if clip not in (None, "intersection", "difference", "union"):
        raise ValueError(f"unsupported clip {clip!r}")
    index = ZoneIndex.from_pandas(zones, geometry_col=geometry_col)
    ref = ray.put(index)

    def fn(batch: pa.Table) -> pa.Table:
        idx: ZoneIndex = state.get_broadcast(ref, key_extra=("polyjoin",))
        fb = _FlatBatch(batch[geometry_col], batch.num_rows)
        cf, cz = fb.candidate_pairs(idx)
        hits_f: list = []
        hits_z: list = []
        zorder = np.argsort(cz, kind="stable")
        zs, fs = cz[zorder], cf[zorder]
        zb = np.flatnonzero(np.r_[True, zs[1:] != zs[:-1], True]) \
            if len(zs) else np.zeros(1, np.int64)
        strict = predicate == "overlaps"
        for s0, e0 in zip(zb[:-1], zb[1:]):
            zi = int(zs[s0])
            fsel = fs[s0:e0]
            poly = idx.polys[zi]
            bx0, by0, bx1, by1 = poly.bbox
            if strict:     # touch-only bbox contact can't overlap interiors
                drop = (fb.xmax[fsel] <= bx0) | (bx1 <= fb.xmin[fsel]) \
                    | (fb.ymax[fsel] <= by0) | (by1 <= fb.ymin[fsel])
            else:
                drop = (fb.xmax[fsel] < bx0) | (bx1 < fb.xmin[fsel]) \
                    | (fb.ymax[fsel] < by0) | (by1 < fb.ymin[fsel])
            fsel = fsel[~drop]
            if not len(fsel):
                continue
            G = len(fsel)
            gp, pgrp = fb.gather_points(fsel)
            gsa, gsb, sgrp = fb.gather_segments(fsel)
            # (a) any left vertex covered by / strictly inside the zone
            vmask = (poly.contains_points(gp[:, 0], gp[:, 1]) if strict
                     else poly.covers_points(gp[:, 0], gp[:, 1]))
            hit = algo._any_per_group(vmask, pgrp, G)
            # (b) edge contact: touching (intersects) / proper (overlaps)
            touch_seg = np.zeros(len(gsa), dtype=bool)
            proper_seg = np.zeros(len(gsa), dtype=bool)
            for ring in poly.rings:
                algo._segments_vs_ring_accum(gsa, gsb, ring,
                                             touch_seg, proper_seg)
            hit |= algo._any_per_group(proper_seg if strict else touch_seg,
                                       sgrp, G)
            # (c) zone-inside-left, only for still-unresolved features:
            # with no edge contact the containment is all-or-nothing for
            # 'intersects' (one probe vertex decides); 'overlaps' needs
            # every exterior vertex (boundaries may still touch)
            un = np.flatnonzero(~hit)
            if len(un):
                usel = fsel[un]
                usa, usb, usgrp = fb.gather_segments(usel)
                ring0 = poly.rings[0]
                q = ring0[:-1] if strict else ring0[:1]
                inside, _onb = algo.points_vs_flat_polygons(
                    q[:, 0], q[:, 1], usa, usb, usgrp, len(usel))
                hit[un] |= inside.any(axis=0)
            hh = np.flatnonzero(hit)
            hits_f.append(fsel[hh])
            hits_z.append(np.full(len(hh), zi, dtype=np.int64))
        pf_loc = np.concatenate(hits_f) if hits_f else np.empty(0, np.int64)
        pz = np.concatenate(hits_z) if hits_z else np.empty(0, np.int64)
        order = np.lexsort((pz, pf_loc))
        pf_loc, pz = pf_loc[order], pz[order]
        clip_geoms: list = []
        clip_areas: list = []
        if clip in ("difference", "union"):
            from pythongis_ray.geom import union as gunion
            keep_pair = np.ones(len(pf_loc), dtype=bool)
            for n_, (fl, zi) in enumerate(zip(pf_loc, pz)):
                lparts = fb.feature_parts(int(fl))
                lpp = fb.feature_ring_parts(int(fl))
                by_part: dict[int, list] = {}
                for p, r in zip(lpp, lparts):
                    by_part.setdefault(p, []).append(r)
                zp = idx.polys[zi]
                zrp = zp.exterior_parts or [0] * len(zp.rings)
                zby: dict[int, list] = {}
                for p, r in zip(zrp, zp.rings):
                    zby.setdefault(p, []).append(r)
                area, parts = gunion.overlay_exact(
                    list(by_part.values()), list(zby.values()), clip)
                if area == 0.0 or not parts:
                    keep_pair[n_] = False
                    continue
                clip_geoms.append(wkb.encode_multi("MultiPolygon", parts))
                clip_areas.append(area)
            pf_loc, pz = pf_loc[keep_pair], pz[keep_pair]
        elif clip is not None:
            # scalar clip over MATCHED pairs only
            keep_pair = np.ones(len(pf_loc), dtype=bool)
            for n_, (fl, zi) in enumerate(zip(pf_loc, pz)):
                lring0 = fb.feature_parts(int(fl))[0]
                zp = idx.polys[zi]
                rl = algo.is_axis_rect(lring0)
                rz = algo.is_axis_rect(zp.rings[0])
                if rl is not None and rz is not None:
                    cx0, cy0 = max(rl[0], rz[0]), max(rl[1], rz[1])
                    cx1, cy1 = min(rl[2], rz[2]), min(rl[3], rz[3])
                    if cx1 <= cx0 or cy1 <= cy0:
                        keep_pair[n_] = False
                        continue
                    ring = np.array([[cx0, cy0], [cx1, cy0], [cx1, cy1],
                                     [cx0, cy1], [cx0, cy0]])
                else:
                    ring = algo.clip_polygon_convex(lring0, zp.rings[0])
                    if ring is None:
                        keep_pair[n_] = False
                        continue
                area = algo.polygon_area([ring])
                if area == 0.0:
                    keep_pair[n_] = False
                    continue
                clip_geoms.append(wkb.encode_polygon([ring]))
                clip_areas.append(area)
            pf_loc, pz = pf_loc[keep_pair], pz[keep_pair]
        out = _emit_joined(batch, fb.feat_ids[pf_loc], pz, idx,
                           "inner", rsuffix)
        if clip is not None:
            out = out.append_column("clip_geometry",
                                    pa.array(clip_geoms, pa.binary()))
            out = out.append_column("clip_area",
                                    pa.array(np.asarray(clip_areas, np.float64)))
        return out

    return left_ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def dissolve(ds, keys, geometry_col: str = "geometry",
             geomfunc: str = "union"):
    """Geometry aggregation per key group (the reference's aggreg
    geometry functions `union`/dissolve and `intersection`,
    /root/reference/pythongis/vector/sql.py:129-137) — exact for
    axis-aligned rect geometries (no GEOS in this environment).

    ``geomfunc='union'``: axis-rect groups take the x-slab sweep
    (geom.algo.union_rects); any other polygons take the EXACT
    rational slab-decomposition union (geom.union — GEOS-free
    cascaded_union equivalent for measures; see its docstring for the
    geometry-output contract). Emits MultiPolygon + ``union_area`` +
    ``n_parts``. NOTE on ``n_parts`` semantics: the rect fast path
    counts the DISJOINT-RECT DECOMPOSITION (oracle-locked legacy);
    the general path counts CONNECTED COMPONENTS (shapely
    semantics) — identical whenever the rects don't overlap/abut.
    ``geomfunc='intersection'``: common rect of the group (max of
    mins / min of maxes); groups with empty intersection are dropped;
    emits Polygon + ``inter_area``.
    Groups co-locate through the bucketed hash shuffle."""
    from pythongis_ray.geom import union as gunion

    if geomfunc not in ("union", "intersection"):
        raise ValueError(f"unsupported geomfunc {geomfunc!r}")
    keys = [keys] if isinstance(keys, str) else list(keys)

    def _decode_group(geom_bufs):
        polys = []
        for buf in geom_bufs:
            g = wkb.decode(bytes(buf))
            rp = g.get("ring_part") or [0] * len(g["rings"])
            by_part: dict[int, list] = {}
            for p, r in zip(rp, g["rings"]):
                by_part.setdefault(int(p), []).append(r)
            polys.extend(by_part.values())
        return polys

    def general_union_row(kv, geom_bufs):
        area, parts = gunion.union_polygons_exact(_decode_group(geom_bufs))
        geom = wkb.encode_multi("MultiPolygon", parts)
        return dict(zip(keys, kv), union_area=area,
                    n_parts=np.int64(len(parts)), geometry=geom)

    def general_intersection_row(kv, geom_bufs):
        # fold pairwise through the exact overlay; a part with holes
        # round-trips as its even-odd trapezoid decomposition
        polys = _decode_group(geom_bufs)
        cur = [polys[0]]
        area = None
        for p in polys[1:]:
            area, cur = gunion.overlay_exact(cur, [p], "intersection")
            if not cur:
                return None
        if area is None:    # single-member group
            area, cur = gunion.union_polygons_exact(cur)
        if not cur:
            return None
        geom = wkb.encode_multi("MultiPolygon", cur)
        return dict(zip(keys, kv), inter_area=area, geometry=geom)

    def per_bucket(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in b.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            rects = []
            for buf in g[geometry_col]:
                gg = wkb.decode(bytes(buf))
                r = (algo.is_axis_rect(gg["rings"][0])
                     if len(gg["rings"]) == 1 else None)
                if r is None:
                    rects = None
                    break
                rects.append(r)
            if rects is None:
                row = (general_union_row(kv, g[geometry_col])
                       if geomfunc == "union"
                       else general_intersection_row(kv, g[geometry_col]))
                if row is not None:
                    rows.append(row)
                continue
            ra = np.asarray(rects)
            if geomfunc == "union":
                area, parts = algo.union_rects(ra)
                geom = wkb.encode_multi("MultiPolygon", [
                    [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1],
                               [x0, y0]])]
                    for x0, y0, x1, y1 in parts])
                rows.append(dict(zip(keys, kv), union_area=area,
                                 n_parts=np.int64(len(parts)), geometry=geom))
            else:
                x0, y0 = ra[:, 0].max(), ra[:, 1].max()
                x1, y1 = ra[:, 2].min(), ra[:, 3].min()
                if x1 <= x0 or y1 <= y0:
                    continue
                geom = wkb.encode_polygon([np.array(
                    [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])])
                rows.append(dict(zip(keys, kv),
                                 inter_area=(x1 - x0) * (y1 - y0),
                                 geometry=geom))
        cols = keys + (["union_area", "n_parts", "geometry"]
                       if geomfunc == "union"
                       else ["inter_area", "geometry"])
        if not rows:
            return pd.DataFrame({c: [] for c in cols})
        return pd.DataFrame(rows, columns=cols)

    return rel.bucketed_group_apply(ds, keys, per_bucket)


def spatial_join_line_line(lines_ds, right: pd.DataFrame,
                           geometry_col: str = "geometry",
                           right_geom_col: str = "geometry",
                           rsuffix: str = "_r", res: int = DEFAULT_INDEX_RES):
    """Line×line spatial join (the reference's line-vs-line intersects
    dispatch, /root/reference/pythongis/vector/manager.py:381-431):
    left LineStrings stream; the small right line layer broadcasts as
    segment arrays bucketed by cell. Candidates via shared bbox cells;
    refine with the exact orientation/collinearity segment test
    (geom.algo.segments_intersect). Emits left rows × matching right
    rows (right attrs suffixed on collision)."""
    rflat = wkb.decode_flat(right[right_geom_col].to_numpy())
    rpts, roff, rfeat = rflat["pts"], rflat["ring_off"], rflat["ring_feat"]
    seg_keep = np.ones(len(rpts), dtype=bool)
    if len(rpts):
        seg_keep[roff[1:] - 1] = False
    rsa = np.flatnonzero(seg_keep)
    A = rpts[rsa]
    B = rpts[rsa + 1] if len(rsa) else np.empty((0, 2))
    F = np.repeat(rfeat, np.diff(roff))[rsa]
    # CSR cell→right-segment buckets (vectorized lookup per batch)
    nx, ny = grid.cell_dims(res)
    if len(A):
        seg_j, cells = grid.bboxes_to_cells(
            np.minimum(A[:, 0], B[:, 0]), np.minimum(A[:, 1], B[:, 1]),
            np.maximum(A[:, 0], B[:, 0]), np.maximum(A[:, 1], B[:, 1]),
            res=res)
        _, cix, ciy = grid.unpack(cells)
        li = ciy * nx + cix
        order = np.argsort(li, kind="stable")
        csr_off = np.concatenate(
            ([0], np.cumsum(np.bincount(li, minlength=nx * ny))))
        csr_segs = seg_j[order]
    else:
        csr_off = np.zeros(nx * ny + 1, np.int64)
        csr_segs = np.empty(0, np.int64)
    attrs = {c: right[c].to_numpy() for c in right.columns
             if c != right_geom_col}
    ref = ray.put({"A": A, "B": B, "F": F, "off": csr_off,
                   "segs": csr_segs, "attrs": attrs})

    def fn(batch: pa.Table) -> pa.Table:
        st = state.get_broadcast(ref, key_extra=("linelinejoin", res))
        A_, B_, F_ = st["A"], st["B"], st["F"]
        fb = _FlatBatch(batch[geometry_col], batch.num_rows)
        gi = fb.sa_idx
        la, lb = fb.pts[gi], (fb.pts[gi + 1] if len(gi)
                              else np.empty((0, 2)))
        lfeat = fb.seg_feat
        pidx = np.empty(0, np.int64)
        ridx = np.empty(0, np.int64)
        if len(la) and len(A_):
            # candidates at SEGMENT×SEGMENT granularity via the CSR
            # buckets, then ONE aligned vectorized intersect pass
            si, cells = grid.bboxes_to_cells(
                np.minimum(la[:, 0], lb[:, 0]),
                np.minimum(la[:, 1], lb[:, 1]),
                np.maximum(la[:, 0], lb[:, 0]),
                np.maximum(la[:, 1], lb[:, 1]), res=res)
            _, cix, ciy = grid.unpack(cells)
            li = ciy * nx + cix
            starts = st["off"][li]
            cnts = st["off"][li + 1] - starts
            ls = np.repeat(si, cnts)
            rs = st["segs"][_ranges(starts, cnts)]
            key = np.unique(ls * len(A_) + rs)      # dedupe pair once
            ls, rs = key // len(A_), key % len(A_)
            hit = algo.segments_intersect(
                la[ls, 0], la[ls, 1], lb[ls, 0], lb[ls, 1],
                A_[rs, 0], A_[rs, 1], B_[rs, 0], B_[rs, 1])
            fkey = np.unique(lfeat[ls[hit]] * (int(F_.max()) + 1 if len(F_)
                                               else 1) + F_[rs[hit]])
            nrf = int(F_.max()) + 1 if len(F_) else 1
            pidx, ridx = fkey // nrf, fkey % nrf
        out = batch.take(pa.array(pidx))
        for name, arr in st["attrs"].items():   # broadcast, not closure
            if name in batch.column_names:
                name2 = name + rsuffix
            else:
                name2 = name
            out = out.append_column(name2, pa.array(arr[ridx]))
        return out

    return lines_ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)


LINE_PREDICATES = ("intersects", "within", "crosses", "touches", "disjoint")


def spatial_join_lines(lines_ds, zones: pd.DataFrame,
                       predicate: str = "intersects", how: str = "inner",
                       geometry_col: str = "geometry", rsuffix: str = "",
                       clip: str | None = None, batch_size: int = 4096):
    """Line-left spatial join: LineString Dataset × broadcast polygon
    layer — the reference's line branch of the join dispatch
    (/root/reference/pythongis/vector/manager.py:381-431).

    Predicates: intersects | within | crosses | touches | disjoint,
    via exact orientation tests (geom.algo.polyline_polygon_predicate).
    ``clip``: 'intersection' or 'difference' (reference overlay
    rewrite, manager.py:208-266) — requires axis-aligned-rect zones
    (exact Liang–Barsky with bound-snapped crossings); adds columns
    ``clip_geometry`` (WKB LineString/MultiLineString of the pieces)
    and ``clip_len`` (planar length, exact for axis-aligned segments).

    Broadcast shape: zones parsed once into the ZoneIndex; the line
    stream never shuffles. Candidates per line via its bbox cell
    cover."""
    if predicate not in LINE_PREDICATES:
        raise ValueError(f"unsupported line predicate {predicate!r}")
    if clip not in (None, "intersection", "difference"):
        raise ValueError(f"unsupported clip {clip!r}")
    if clip is not None and predicate != "intersects":
        raise ValueError("clip overlay implies predicate='intersects'")
    index = ZoneIndex.from_pandas(zones, geometry_col=geometry_col)
    ref = ray.put(index)

    def fn(batch: pa.Table) -> pa.Table:
        idx: ZoneIndex = state.get_broadcast(ref, key_extra=("linejoin",))
        fb = _FlatBatch(batch[geometry_col], batch.num_rows)
        cf, cz = fb.candidate_pairs(idx)
        # zone-cohort refine: each candidate zone tests ALL its
        # candidate polylines in one batched relate call
        contact_any = np.zeros(batch.num_rows, dtype=bool)
        hits_f: list = []
        hits_z: list = []
        zorder = np.argsort(cz, kind="stable")
        zs, fs = cz[zorder], cf[zorder]
        zb = np.flatnonzero(np.r_[True, zs[1:] != zs[:-1], True]) \
            if len(zs) else np.zeros(1, np.int64)
        for s0, e0 in zip(zb[:-1], zb[1:]):
            zi = int(zs[s0])
            fsel = fs[s0:e0]
            poly = idx.polys[zi]
            bx0, by0, bx1, by1 = poly.bbox
            keep = ~((fb.xmax[fsel] < bx0) | (bx1 < fb.xmin[fsel])
                     | (fb.ymax[fsel] < by0) | (by1 < fb.ymin[fsel]))
            fsel = fsel[keep]
            if not len(fsel):
                continue
            gp, pgrp = fb.gather_points(fsel)
            gsa, gsb, sgrp = fb.gather_segments(fsel)
            contact, s_in, s_out, proper = \
                algo.polylines_polygon_relate_flat(
                    gp, pgrp, gsa, gsb, sgrp, len(fsel), poly)
            if predicate in ("intersects", "disjoint"):
                m = contact
            elif predicate == "within":
                m = s_in & ~s_out & ~proper
            elif predicate == "crosses":
                m = proper | (s_in & s_out)
            else:  # touches
                m = contact & ~s_in & ~proper
            hit = np.flatnonzero(m)
            if predicate == "disjoint":
                contact_any[fb.feat_ids[fsel[hit]]] = True
                continue
            hits_f.append(fsel[hit])
            hits_z.append(np.full(len(hit), zi, dtype=np.int64))
        if predicate == "disjoint":
            # null-geometry rows are excluded (consistent with every
            # other predicate — they can't satisfy any relate)
            keep_rows = fb.valid & ~contact_any
            return batch.take(pa.array(np.flatnonzero(keep_rows)))
        pf_loc = np.concatenate(hits_f) if hits_f else np.empty(0, np.int64)
        pz = np.concatenate(hits_z) if hits_z else np.empty(0, np.int64)
        order = np.lexsort((pz, pf_loc))        # (feature, zone) order
        pf_loc, pz = pf_loc[order], pz[order]
        clip_geoms: list = []
        clip_lens: list = []
        if clip is not None:
            # scalar clip only over MATCHED pairs (far fewer than
            # candidates); mask drops zero-piece (touch-only) pairs
            keep_pair = np.ones(len(pf_loc), dtype=bool)
            for n_, (fl, zi) in enumerate(zip(pf_loc, pz)):
                poly_z = idx.polys[zi]
                rect = (algo.is_axis_rect(poly_z.rings[0])
                        if len(poly_z.rings) == 1 else None)
                if rect is not None:
                    clipper = (algo.clip_polyline_rect
                               if clip == "intersection"
                               else algo.clip_polyline_rect_complement)
                    pieces = [pc for part in fb.feature_parts(int(fl))
                              for pc in clipper(part, *rect)]
                else:
                    # general zones: exact rational split-and-classify
                    pieces = [pc for part in fb.feature_parts(int(fl))
                              for pc in algo.clip_polyline_polygon(
                                  part, poly_z, clip)]
                if not pieces:
                    keep_pair[n_] = False
                    continue
                clip_geoms.append(
                    wkb.encode_linestring(pieces[0]) if len(pieces) == 1
                    else wkb.encode_multi("MultiLineString", pieces))
                clip_lens.append(sum(algo.line_length(p) for p in pieces))
            pf_loc, pz = pf_loc[keep_pair], pz[keep_pair]
        out = _emit_joined(batch, fb.feat_ids[pf_loc], pz, idx, how, rsuffix)
        if clip is not None:
            # how='left' unsupported with clip (unmatched rows have no
            # clip geometry); _emit_joined was called with inner rows
            out = out.append_column("clip_geometry",
                                    pa.array(clip_geoms, pa.binary()))
            out = out.append_column("clip_len",
                                    pa.array(np.asarray(clip_lens, np.float64)))
        return out

    if clip is not None and how != "inner":
        raise ValueError("clip overlay supports how='inner' only")
    return lines_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size)


class RadiusJoiner(GridKnnJoiner):
    """Distance join: all right points within ``radius`` (planar
    degrees) of each left point — the reference's `spatial_join`
    distance-with-radius condition for point layers
    (/root/reference/pythongis/vector/manager.py:268-379).

    Grid-accelerated: candidates come from the fixed Chebyshev ring
    that covers the radius (r_cells = ceil(radius / cell) + 1), then an
    exact d² ≤ radius² filter. Exact on the dyadic lattice."""

    def __init__(self, right_ref, radius: float, lon_col: str = "lon",
                 lat_col: str = "lat", out_prefix: str = "nn_",
                 res: int | None = None):
        super().__init__(right_ref, k=1, lon_col=lon_col, lat_col=lat_col,
                         out_prefix=out_prefix, res=res)
        self.radius = float(radius)
        self.r_cells = int(np.ceil(self.radius / self.cell_deg)) + 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        seg_cnt, seg_start, point_s, pos_s, d2_s = self._topk_flat(
            lon, lat, self.r_cells)
        keep = d2_s <= self.radius * self.radius
        point_k = point_s[keep]
        pos_k = pos_s[keep]
        out = batch.take(pa.array(point_k))
        out = out.append_column(self.out_prefix + "id", pa.array(self.rid[pos_k]))
        out = out.append_column(self.out_prefix + "dist_sq", pa.array(d2_s[keep]))
        for name, arr in self.rattrs.items():
            out = out.append_column(self.out_prefix + name, pa.array(arr[pos_k]))
        return out


def radius_join(points_ds, right: pd.DataFrame, radius: float,
                id_col: str = "id", lon_col: str = "lon", lat_col: str = "lat",
                out_prefix: str = "nn_", batch_size: int = 4096):
    """All-pairs-within-radius join against a broadcast right point set."""
    payload = {c: right[c].to_numpy() for c in right.columns}
    payload["id"] = right[id_col].to_numpy()
    if id_col != "id":
        payload.pop(id_col, None)
    ref = ray.put(payload)

    def fn(batch: pa.Table) -> pa.Table:
        joiner = state.get_broadcast(
            ref, builder=lambda r: RadiusJoiner(r, radius, lon_col=lon_col,
                                                lat_col=lat_col,
                                                out_prefix=out_prefix),
            key_extra=("radius", radius, lon_col, lat_col, out_prefix))
        return joiner(batch)

    return points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


class GridKnnGeomJoiner:
    """Grid-accelerated kNN join of points against a broadcast LINE /
    POLYGON layer — the non-point extension of :class:`GridKnnJoiner`
    (reference `closest_point` works on any geometry via shapely,
    /root/reference/pythongis/vector/analyzer.py:289-310).

    Right geometries decode once per worker into flat segments; each
    segment registers in every cell its bbox covers (CSR). A left
    point searches expanding Chebyshev rings; candidate segment
    distances (exact single-division kernel) reduce to per-FEATURE
    minima, and the ring stop bound is sound because any feature with
    no segment in an explored cell lies entirely ≥ r·cell away.
    ``polygons=True`` additionally zeroes the distance of features
    that COVER the point (shapely distance semantics)."""

    def __init__(self, right_ref, k: int = 1, lon_col: str = "lon",
                 lat_col: str = "lat", out_prefix: str = "nn_",
                 res: int | None = None, polygons: bool = False):
        right = ray.get(right_ref) if isinstance(right_ref, ray.ObjectRef) \
            else right_ref
        flat = wkb.decode_flat(right["geoms"])
        pts, roff = flat["pts"], flat["ring_off"]
        seg_keep = np.ones(len(pts), dtype=bool)
        if len(pts):
            seg_keep[roff[1:] - 1] = False
        si = np.flatnonzero(seg_keep)
        self.A = pts[si]
        self.B = pts[si + 1] if len(si) else np.empty((0, 2))
        feat_of_seg = np.repeat(flat["ring_feat"], np.diff(roff))[si]
        self.rid = np.asarray(right["id"], np.int64)
        self.seg_rid = self.rid[feat_of_seg]
        self.seg_feat = feat_of_seg
        self.rattrs = {k2: np.asarray(v) for k2, v in right.items()
                       if k2 not in ("geoms", "id")}
        self.polygons = polygons
        if polygons:
            self.polys = []
            for b in right["geoms"]:
                g = wkb.decode(bytes(b))
                self.polys.append(algo.PreparedPolygon(g["rings"],
                                                       g.get("ring_part")))
        m = max(1, len(self.A))
        if res is None:
            res = 2
            while (2 << res) * (1 << res) < m // 2 and res < 10:
                res += 1
        self.res = res
        self.nx, self.ny = grid.cell_dims(res)
        self.cell_deg = grid.cell_size_deg(res)
        # CSR cell→segments over bbox covers
        if len(self.A):
            seg_j, cells = grid.bboxes_to_cells(
                np.minimum(self.A[:, 0], self.B[:, 0]),
                np.minimum(self.A[:, 1], self.B[:, 1]),
                np.maximum(self.A[:, 0], self.B[:, 0]),
                np.maximum(self.A[:, 1], self.B[:, 1]), res=res)
            _, cix, ciy = grid.unpack(cells)
            li = ciy * self.nx + cix
            order = np.argsort(li, kind="stable")
            self.csr_off = np.concatenate(
                ([0], np.cumsum(np.bincount(li, minlength=self.nx * self.ny))))
            self.csr_segs = seg_j[order]
        else:
            self.csr_off = np.zeros(self.nx * self.ny + 1, np.int64)
            self.csr_segs = np.empty(0, np.int64)
        self.k = k
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.out_prefix = out_prefix

    def _ring_candidates(self, lon, lat, r: int):
        """→ (point_idx, seg_idx) deduped candidate pairs from the
        (2r+1)² ring of cells around each point."""
        ix = np.floor((lon + 180.0) / self.cell_deg).astype(np.int64) % self.nx
        iy = np.clip(np.floor((lat + 90.0) / self.cell_deg).astype(np.int64),
                     0, self.ny - 1)
        xo = np.arange(-r, r + 1, dtype=np.int64)
        if len(xo) > self.nx:
            xo = np.arange(self.nx, dtype=np.int64) - self.nx // 2
        yo = np.arange(-r, r + 1, dtype=np.int64)
        ox, oy = np.meshgrid(xo, yo)
        ox, oy = ox.ravel(), oy.ravel()
        gx = np.mod(ix[:, None] + ox[None, :], self.nx)
        gy = iy[:, None] + oy[None, :]
        valid = (gy >= 0) & (gy < self.ny)
        li = (np.clip(gy, 0, self.ny - 1) * self.nx + gx)
        starts = self.csr_off[li]
        cnts = np.where(valid, self.csr_off[li + 1] - starts, 0)
        flat_cnt = cnts.ravel()
        total = int(flat_cnt.sum())
        if total == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        q = li.shape[1]
        seg_row = np.repeat(np.arange(li.shape[0] * q), flat_cnt)
        segs = self.csr_segs[_ranges(starts.ravel(), flat_cnt)]
        pt = seg_row // q
        key = np.unique(pt * max(1, len(self.A)) + segs)
        return key // max(1, len(self.A)), key % max(1, len(self.A))

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        n, k = len(lon), self.k
        out_fid = np.full((n, k), -1, dtype=np.int64)
        out_d = np.full((n, k), np.inf)
        unresolved = np.arange(n)
        r = 1
        max_r = max(self.nx, self.ny)
        while len(unresolved):
            lo, la = lon[unresolved], lat[unresolved]
            pt, sj = self._ring_candidates(lo, la, r)
            if len(pt):
                d2 = algo.points_to_segments_sq_pairwise(
                    lo[pt], la[pt], self.A[sj, 0], self.A[sj, 1],
                    self.B[sj, 0], self.B[sj, 1])
                rid = self.seg_rid[sj]
                if self.polygons:
                    feats = self.seg_feat[sj]
                    pos = d2 > 0
                    for f in np.unique(feats[pos]):
                        m_ = pos & (feats == f)
                        cov = self.polys[f].covers_points(lo[pt[m_]],
                                                          la[pt[m_]])
                        idxs = np.flatnonzero(m_)[cov]
                        d2[idxs] = 0.0
                # per (point, feature-id) min distance: group by
                # (pt, rid) with d2 ascending inside each group, keep
                # the first (= min) row per group
                order = np.lexsort((d2, rid, pt))
                pt_s, rid_s, d2_s = pt[order], rid[order], d2[order]
                first = np.r_[True, (pt_s[1:] != pt_s[:-1])
                              | (rid_s[1:] != rid_s[:-1])]
                pt_f, rid_f, d2_f = pt_s[first], rid_s[first], d2_s[first]
                # top-k features per point (already (pt, d2, rid)-sorted
                # within each point after re-sorting by d2)
                order2 = np.lexsort((rid_f, d2_f, pt_f))
                pt_f, rid_f, d2_f = pt_f[order2], rid_f[order2], d2_f[order2]
                seg_cnt = np.bincount(pt_f, minlength=len(unresolved))
                seg_start = np.zeros(len(unresolved), dtype=np.int64)
                seg_start[1:] = np.cumsum(seg_cnt)[:-1]
            else:
                seg_cnt = np.zeros(len(unresolved), dtype=np.int64)
                seg_start = np.zeros(len(unresolved), dtype=np.int64)
                rid_f = np.empty(0, np.int64)
                d2_f = np.empty(0)
            kth = np.full(len(unresolved), np.inf)
            has_k = seg_cnt >= k
            kth[has_k] = d2_f[seg_start[has_k] + k - 1]
            bound = (r * self.cell_deg) ** 2
            done = has_k & (kth < bound)
            if r >= max_r:
                done = np.ones(len(unresolved), dtype=bool)
            didx = np.flatnonzero(done)
            for col in range(k):
                sel = didx[seg_cnt[didx] > col]
                out_fid[unresolved[sel], col] = rid_f[seg_start[sel] + col]
                out_d[unresolved[sel], col] = d2_f[seg_start[sel] + col]
            unresolved = unresolved[~done]
            r *= 2
        rank = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
        flat_fid = out_fid.ravel()
        vld = flat_fid >= 0
        left_take = np.repeat(np.arange(n, dtype=np.int64), k)[vld]
        out = batch.take(pa.array(left_take))
        out = out.append_column(self.out_prefix + "rank",
                                pa.array(rank[vld]))
        out = out.append_column(self.out_prefix + "id",
                                pa.array(flat_fid[vld]))
        out = out.append_column(self.out_prefix + "dist_sq",
                                pa.array(out_d.ravel()[vld]))
        # attrs align to right rows; map id → row position
        id_order = np.argsort(self.rid, kind="stable")
        pos_of = id_order[np.searchsorted(self.rid[id_order], flat_fid[vld])]
        for name, arr in self.rattrs.items():
            out = out.append_column(self.out_prefix + name,
                                    pa.array(arr[pos_of]))
        return out


class RadiusGeomJoiner(GridKnnGeomJoiner):
    """Distance join against a line/polygon layer: all right features
    within ``radius`` (planar degrees) of each left point — the
    non-point extension of :class:`RadiusJoiner` (reference
    `spatial_join` distance+radius on any geometry,
    /root/reference/pythongis/vector/manager.py:268-379). One fixed
    Chebyshev ring covers the radius; exact per-feature min d² ≤ r²
    filter."""

    def __init__(self, right_ref, radius: float, **kw):
        super().__init__(right_ref, k=1, **kw)
        self.radius = float(radius)
        self.r_cells = int(np.ceil(self.radius / self.cell_deg)) + 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        pt, sj = self._ring_candidates(lon, lat, self.r_cells)
        if len(pt):
            d2 = algo.points_to_segments_sq_pairwise(
                lon[pt], lat[pt], self.A[sj, 0], self.A[sj, 1],
                self.B[sj, 0], self.B[sj, 1])
            rid = self.seg_rid[sj]
            if self.polygons:
                feats = self.seg_feat[sj]
                pos = d2 > 0
                for f in np.unique(feats[pos]):
                    m_ = pos & (feats == f)
                    cov = self.polys[f].covers_points(lon[pt[m_]],
                                                      lat[pt[m_]])
                    d2[np.flatnonzero(m_)[cov]] = 0.0
            order = np.lexsort((d2, rid, pt))
            pt_s, rid_s, d2_s = pt[order], rid[order], d2[order]
            first = np.r_[True, (pt_s[1:] != pt_s[:-1])
                          | (rid_s[1:] != rid_s[:-1])]
            keep = first & (d2_s <= self.radius * self.radius)
            pt_k, rid_k, d2_k = pt_s[keep], rid_s[keep], d2_s[keep]
        else:
            pt_k = rid_k = np.empty(0, np.int64)
            d2_k = np.empty(0)
        out = batch.take(pa.array(pt_k))
        out = out.append_column(self.out_prefix + "id", pa.array(rid_k))
        out = out.append_column(self.out_prefix + "dist_sq",
                                pa.array(d2_k))
        id_order = np.argsort(self.rid, kind="stable")
        pos_of = id_order[np.searchsorted(self.rid[id_order], rid_k)]
        for name, arr in self.rattrs.items():
            out = out.append_column(self.out_prefix + name,
                                    pa.array(arr[pos_of]))
        return out


def radius_join_geoms(points_ds, right: pd.DataFrame, radius: float,
                      id_col: str = "id", geometry_col: str = "geometry",
                      lon_col: str = "lon", lat_col: str = "lat",
                      out_prefix: str = "nn_", batch_size: int = 4096,
                      polygons: bool = False):
    """All right line/polygon features within ``radius`` of each left
    point (broadcast right side)."""
    payload = {"geoms": [bytes(b) for b in right[geometry_col]],
               "id": right[id_col].to_numpy()}
    for c in right.columns:
        if c not in (geometry_col, id_col):
            payload[c] = right[c].to_numpy()
    ref = ray.put(payload)

    def fn(batch: pa.Table) -> pa.Table:
        joiner = state.get_broadcast(
            ref, builder=lambda rp: RadiusGeomJoiner(
                rp, radius, lon_col=lon_col, lat_col=lat_col,
                out_prefix=out_prefix, polygons=polygons),
            key_extra=("radg", radius, lon_col, lat_col, out_prefix,
                       polygons))
        return joiner(batch)

    return points_ds.map_batches(fn, batch_format="pyarrow",
                                 batch_size=batch_size)


def knn_join_geoms(points_ds, right: pd.DataFrame, k: int = 1,
                   id_col: str = "id", geometry_col: str = "geometry",
                   lon_col: str = "lon", lat_col: str = "lat",
                   out_prefix: str = "nn_", batch_size: int = 4096,
                   polygons: bool = False):
    """kNN join of a point Dataset against a broadcast LINE/POLYGON
    layer (point-to-geometry distance; ties by right id ascending)."""
    payload = {"geoms": [bytes(b) for b in right[geometry_col]],
               "id": right[id_col].to_numpy()}
    for c in right.columns:
        if c not in (geometry_col, id_col):
            payload[c] = right[c].to_numpy()
    ref = ray.put(payload)

    def fn(batch: pa.Table) -> pa.Table:
        joiner = state.get_broadcast(
            ref, builder=lambda rp: GridKnnGeomJoiner(
                rp, k=k, lon_col=lon_col, lat_col=lat_col,
                out_prefix=out_prefix, polygons=polygons),
            key_extra=("knng", k, lon_col, lat_col, out_prefix, polygons))
        return joiner(batch)

    return points_ds.map_batches(fn, batch_format="pyarrow",
                                 batch_size=batch_size)


# ------------------------------------------------------- shuffle join path

SALT_BITS = 6
MAX_SALT = 1 << SALT_BITS  # up to 64-way split of one hot cell


def plan_salts(cell_counts: pd.DataFrame, rows_per_task: int = 50_000) -> dict[int, int]:
    """cell → salt factor for cells whose row count exceeds the target
    rows-per-refine-task (explicit skew handling; BASELINE.json
    mandates hot-cell salting)."""
    hot = cell_counts[cell_counts["n"] > rows_per_task]
    return {int(c): int(min(MAX_SALT, -(-n // rows_per_task)))
            for c, n in zip(hot["cell"], hot["n"])}


def _salt_factors(cells: np.ndarray, salt_map: dict) -> np.ndarray:
    """Per-row salt factor of uint64 ``cells``: the planned split of a
    hot cell, 1 everywhere else."""
    cells_i64 = cells.view(np.int64)
    fac = np.ones(len(cells), dtype=np.int64)
    if salt_map:
        hot = np.fromiter(salt_map.keys(), dtype=np.int64)
        hfac = np.fromiter(salt_map.values(), dtype=np.int64)
        order = np.argsort(hot)
        hot, hfac = hot[order], hfac[order]
        pos = np.clip(np.searchsorted(hot, cells_i64), 0, len(hot) - 1)
        m = hot[pos] == cells_i64
        fac[m] = hfac[pos[m]]
    return fac


def _cell_bucket(cells: np.ndarray, salt: np.ndarray,
                 num_buckets: int) -> np.ndarray:
    """int64 bucket = hash(cell, salt) of uint64 ``cells``."""
    return ((cells * np.uint64(0x9E3779B97F4A7C15) + salt.astype(np.uint64))
            % np.uint64(num_buckets)).astype(np.int64)


def _append_keys(batch: pa.Table, cells: np.ndarray, salt: np.ndarray,
                 side: int, num_buckets: int) -> pa.Table:
    """Append ``_cell``, ``_bucket`` = hash(cell, salt) and ``_side``
    (0 = left, 1 = zone) to a batch with one row per uint64 cell."""
    t = batch.append_column("_cell", pa.array(cells.view(np.int64)))
    t = t.append_column("_bucket", pa.array(_cell_bucket(cells, salt,
                                                         num_buckets)))
    return t.append_column("_side", pa.array(np.full(len(cells), side, np.int8)))


def _arrow_schema(ds) -> pa.Schema | None:
    """The Arrow schema of ``ds``'s blocks; ``None`` when Ray knows none
    (a Dataset whose blocks are all empty). Pandas-backed blocks give
    the Arrow types of their dtypes (``null`` for an object column)."""
    s = ds.schema()
    s = getattr(s, "base_schema", s)
    if s is None or isinstance(s, pa.Schema):
        return s
    return pa.Schema.from_pandas(pd.DataFrame(
        {c: pd.Series(dtype=t) for c, t in zip(s.names, s.types)}),
        preserve_index=False)


def _join_schema(left: pa.Schema | None, zones: pa.Schema | None,
                 zone_geom_col: str) -> pa.Schema:
    """A shuffle join's output schema: the left fields, then the zone
    attributes (the zone fields less its geometry), no key column."""
    keys = ("_cell", "_pos", "_bucket", "_side")
    return pa.schema(
        [f for f in (left or []) if f.name not in keys]
        + [f for f in (zones or []) if f.name not in keys + (zone_geom_col,)])


def _salted_shuffle_join(left_ds, zones_ds, cells_of, matcher,
                         left_batch_size: int, res: int, num_buckets: int,
                         rows_per_task: int, zone_geom_col: str,
                         checkpoint_dir: str | None):
    """The two-phase salted shuffle join behind every ``*_shuffle`` join.

    The left kind supplies two functions:

    * ``cells_of(batch) -> (rows, cells)``: the uint64 cell of each
      left row, ``rows`` the batch row each cell belongs to (``None``
      when it is one cell per row, as for points);
    * ``matcher(group, rows) -> match``: binds the left rows ``rows``
      of one bucket's Arrow group and returns ``match(lpos, zu,
      zones)``, called once per bucket: a bool mask over the bucket's
      candidate pairs, pair i being left position ``lpos[i]`` (into
      ``rows``) and zone ``zones[zu[i]]`` (a list of
      :class:`~pythongis_ray.geom.algo.PreparedPolygon`; ``zu`` is
      ascending).

    Phase 0 runs the left's lineage (read, synthesis, geocode) once:
    it maps the left to its *celled* table (the left rows plus an int64
    ``_cell``, one row per cell, and the row's position ``_pos`` in its
    phase-0 batch) and materializes it. Nothing later re-executes the
    left's lineage: the cell counts, the keying and the left schema all
    read the celled table, whose schema costs no plan. The counts are a
    two-phase aggregate: per-block partials (at most one row per block
    and cell) pulled to the driver and summed there with one Arrow
    ``group_by`` → :func:`plan_salts`, with no shuffle. Phase 1 spreads
    a hot cell's celled rows over its salts by ``_pos`` (the salt does
    not depend on how Ray blocks the celled table, so a checkpoint dir
    resumes with the same row placement) and replicates the zone covers
    across every salt of the cell, materialized so the zone lineage
    runs once; both are keyed by hash(cell, salt) bucket and reach the
    union in one column order with no schema metadata. Phase 2 co-locates
    with one ``relational.group_apply`` on the bucket over ``pa.Table``
    groups: ``refine`` builds every (left row, distinct zone) candidate
    pair of its bucket in one vectorized pass (the distinct (zone,
    cover cell) rows, each expanded to the left rows of its cell),
    decodes each distinct zone at most once per task, tests all pairs
    with one ``match`` call, and builds its output from the int64
    (left row, zone row) index pairs with one ``take`` per side, in the
    declared types (left schema, then the zone attributes), with no
    pandas round trip and no separate cast stage. Pairs come out zone
    by zone (first appearance), cells ascending, left rows in bucket
    order within a cell. An input with no rows gives an empty result in
    those types.
    """
    import ray.data as rd

    def with_cells(batch: pa.Table) -> pa.Table:
        rows, cells = cells_of(batch)
        if rows is not None:
            batch = batch.take(pa.array(rows))
        t = batch.append_column("_cell", pa.array(cells.view(np.int64)))
        return t.append_column("_pos", pa.array(np.arange(len(cells),
                                                          dtype=np.int64)))

    celled = left_ds.map_batches(with_cells, batch_format="pyarrow",
                                 batch_size=left_batch_size).materialize()
    cschema = _arrow_schema(celled)
    if cschema is None:
        # no left row: the left's declared types come from its source
        return rd.from_arrow(_join_schema(
            _arrow_schema(left_ds), _arrow_schema(zones_ds),
            zone_geom_col).empty_table())

    def count(batch: pa.Table) -> pa.Table:
        cell, n = np.unique(batch["_cell"].to_numpy(), return_counts=True)
        return pa.table({"cell": cell, "n": n.astype(np.int64)})

    # per-block partials, at most one row per (block, cell): the driver
    # combines them, no shuffle
    parts = ray.get(list(rel.nonempty_blocks(celled.map_batches(
        count, batch_format="pyarrow", batch_size=left_batch_size))))
    salts = {}
    if parts:
        counts = pa.concat_tables(parts).group_by("cell") \
            .aggregate([("n", "sum")])
        salts = plan_salts(pd.DataFrame({
            "cell": counts["cell"].to_numpy().view(np.uint64),
            "n": counts["n_sum"].to_numpy()}), rows_per_task)
    salts_ref = ray.put(salts)

    def key_left(batch: pa.Table) -> pa.Table:
        cells = batch["_cell"].to_numpy().view(np.uint64)
        salt_map = state.get_broadcast(salts_ref, key_extra=("salts",))
        # deterministic spread of each hot cell's rows
        salt = batch["_pos"].to_numpy() % _salt_factors(cells, salt_map)
        return _append_keys(batch.drop_columns(["_cell", "_pos"]), cells,
                            salt, 0, num_buckets)

    def explode_zones(batch: pa.Table) -> pa.Table:
        geoms = batch[zone_geom_col].to_pylist()
        salt_map = state.get_broadcast(salts_ref, key_extra=("salts",))
        if not geoms:
            return _append_keys(batch, np.empty(0, np.uint64),
                                np.empty(0, np.int64), 1, num_buckets)
        bb = np.array([wkb.bbox(bytes(g)) for g in geoms], np.float64)
        # vectorized cover of every zone bbox, replicated across salts
        rws, cls = grid.bboxes_to_cells(bb[:, 0], bb[:, 1], bb[:, 2], bb[:, 3],
                                        res=res)
        fac = _salt_factors(cls, salt_map)
        cum = np.concatenate(([0], np.cumsum(fac)[:-1]))
        salt = np.arange(int(fac.sum()), dtype=np.int64) - np.repeat(cum, fac)
        return _append_keys(batch.take(pa.array(np.repeat(rws, fac))),
                            np.repeat(cls, fac), salt, 1, num_buckets)

    left_keyed = celled.map_batches(key_left, batch_format="pyarrow",
                                    batch_size=left_batch_size)
    # materialized: a pandas-backed zone Dataset carries no Arrow types
    # until its blocks are built, and the union reuses these blocks, so
    # the zone lineage runs once and its schema costs no plan
    right_keyed = zones_ds.map_batches(explode_zones, batch_format="pyarrow",
                                       batch_size=4096).materialize()
    rschema = _arrow_schema(right_keyed)
    target = _join_schema(cschema, rschema or _arrow_schema(zones_ds),
                          zone_geom_col)
    if rschema is None:
        return rd.from_arrow(target.empty_table())   # no zone row
    left_cols = _join_schema(cschema, None, zone_geom_col).names
    zone_attr_cols = target.names[len(left_cols):]
    lschema = pa.schema([f for f in cschema if f.name != "_pos"]
                        + [pa.field("_bucket", pa.int64()),
                           pa.field("_side", pa.int8())])
    # schema-harmonized union: both sides emit ONE column order (left
    # columns, zone columns, then the keys) with no schema metadata,
    # and each side's missing columns are null-filled with the OTHER
    # side's declared type — untyped pa.nulls() would null-type the
    # column and lose its int64 (the round-1 spjoin_rect_shuffle
    # hash-fail, VERDICT #1)
    keys = ["_cell", "_bucket", "_side"]
    union_cols = [c for c in lschema.names if c not in keys]
    union_cols += [c for c in rschema.names
                   if c not in keys and c not in union_cols] + keys

    def align(schema):
        fill = {c: (lschema if c in lschema.names else rschema).field(c).type
                for c in union_cols if c not in schema.names}

        def fn(batch: pa.Table) -> pa.Table:
            return pa.table([pa.nulls(batch.num_rows, fill[c]) if c in fill
                             else batch[c] for c in union_cols],
                            names=union_cols)
        return fn

    both = left_keyed.map_batches(align(lschema), batch_format="pyarrow") \
        .union(right_keyed.map_batches(align(rschema), batch_format="pyarrow"))

    if checkpoint_dir is not None:
        # materialized, resumable stage boundary between phase 1 and the
        # refine shuffle: per-bucket parquet partitions + lineage
        from pythongis_ray import checkpoint as ckpt

        def add_key(batch: pa.Table) -> pa.Table:
            return batch.append_column("_ckpt_key", batch["_bucket"])

        ckpt.write_partitioned(both.map_batches(add_key, batch_format="pyarrow"),
                               checkpoint_dir, key_col="_ckpt_key",
                               num_partitions=num_buckets, resume=True)

        def strip_ckpt_cols(b: pa.Table) -> pa.Table:
            # drops _ckpt_key and the hive ``part`` column; a dir written
            # by the older pandas sink also carries ``pandas`` metadata
            return b.select(union_cols).replace_schema_metadata()

        both = rd.read_parquet(checkpoint_dir) \
            .map_batches(strip_ckpt_cols, batch_format="pyarrow")

    polys = {}   # zone WKB -> PreparedPolygon, filled inside each refine task

    def prepared(gb: bytes) -> algo.PreparedPolygon:
        poly = polys.get(gb)
        if poly is None:
            g = wkb.decode(gb)
            poly = polys[gb] = algo.PreparedPolygon(g["rings"],
                                                    g.get("ring_part"))
        return poly

    def refine(group: pa.Table) -> pa.Table:
        side = group["_side"].to_numpy()
        lrows = np.flatnonzero(side == 0)
        zrows = np.flatnonzero(side == 1)
        if len(lrows) == 0 or len(zrows) == 0:
            return target.empty_table()
        cell = group["_cell"].to_numpy()
        lcell = cell[lrows]
        order = np.argsort(lcell, kind="stable")
        lcell_s = lcell[order]
        # the distinct (zone, cover cell) rows, zones in dictionary
        # order (first appearance) and cells ascending; each expands to
        # the cell-stable left rows of its cell: every candidate pair
        # of the bucket in one pass
        zgeom = pc.dictionary_encode(
            group[zone_geom_col].take(zrows).combine_chunks())
        zidx = zgeom.indices.to_numpy()
        zcell = cell[zrows]
        zs = np.lexsort((zcell, zidx))
        zd, cd = zidx[zs], zcell[zs]
        first = np.ones(len(zs), dtype=bool)
        first[1:] = (zd[1:] != zd[:-1]) | (cd[1:] != cd[:-1])
        zd, cd = zd[first], cd[first]
        s0 = np.searchsorted(lcell_s, cd, "left")
        n = np.searchsorted(lcell_s, cd, "right") - s0
        if not n.any():
            return target.empty_table()
        lpos = order[_ranges(s0, n)]
        used, zu = np.unique(np.repeat(zd, n), return_inverse=True)
        zones = [prepared(gb) for gb in
                 zgeom.dictionary.take(pa.array(used)).to_pylist()]
        hit = matcher(group, lrows)(lpos, zu, zones)
        # each hit takes its zone's first row in the bucket
        _, zfirst = np.unique(zidx, return_index=True)
        # one gather per side; a checkpoint dir written by the older
        # pandas sink holds the null-padded int64 columns as double
        lt = group.select(left_cols).take(lrows[lpos[hit]])
        zt = group.select(zone_attr_cols).take(zrows[zfirst[used[zu[hit]]]])
        return pa.Table.from_arrays(
            [c if c.type == f.type else pc.cast(c, f.type)
             for c, f in zip(lt.columns + zt.columns, target)], schema=target)

    return group_apply(both, "_bucket", refine, batch_format="pyarrow")


def spatial_join_lines_shuffle(lines_ds, zones_ds,
                               predicate: str = "intersects", **kw):
    """Shuffle spatial join for large×large LINE-left inputs — see
    :func:`_spatial_join_geoms_shuffle`."""
    if predicate not in ("intersects", "within", "crosses", "touches"):
        raise ValueError(f"unsupported predicate {predicate!r}")
    return _spatial_join_geoms_shuffle(lines_ds, zones_ds, "lines",
                                       predicate, **kw)


def spatial_join_polygons_shuffle(left_ds, zones_ds,
                                  predicate: str = "intersects", **kw):
    """Shuffle spatial join for large×large POLYGON-left inputs — see
    :func:`_spatial_join_geoms_shuffle`. Predicates: intersects |
    overlaps (interiors-only, the reference touch exclusion)."""
    if predicate not in ("intersects", "overlaps"):
        raise ValueError(f"unsupported predicate {predicate!r}")
    return _spatial_join_geoms_shuffle(left_ds, zones_ds, "polygons",
                                       predicate, **kw)


def _cover_origin(res: int, xmin, ymin):
    """(ix, iy) of the lowest cover cell of bboxes with these minima."""
    step = grid.cell_size_deg(res)
    _, ny = grid.cell_dims(res)
    ix0 = np.floor((np.asarray(xmin) + 180.0) / step).astype(np.int64)
    iy0 = np.clip(np.floor((np.asarray(ymin) + 90.0) / step).astype(np.int64),
                  0, ny - 1)
    return ix0, iy0


def _spatial_join_geoms_shuffle(lines_ds, zones_ds, geom_kind: str,
                                predicate: str,
                                res: int = DEFAULT_INDEX_RES,
                                num_buckets: int = 64,
                                rows_per_task: int = 50_000,
                                geometry_col: str = "geometry",
                                zone_geom_col: str = "geometry",
                                checkpoint_dir: str | None = None):
    """Shuffle spatial join for large×large GEOMETRY-left inputs — the
    geometry-left extension of :func:`spatial_join_shuffle` (broadcast
    geometry joins need the zone side in the object store; this path
    shuffles both).

    Phase 0 explodes the left's bbox covers (one row per (feature,
    cover cell)) once, materializes them, and counts them per cell →
    salt plan. Phase 1 keys those cover rows (salted on hot cells) and
    the zone covers (replicated across salts). Phase 2 co-locates with
    one ``group_apply(bucket)``; inside a
    bucket each unique zone relates against its candidate cohort via the
    batched flat kernels (polyline relate for lines; the
    vertex/edge/probe polygon tests for polygons).

    A (left, zone) pair shares possibly MANY cover cells and would be
    emitted once per shared cell; instead of a dedup shuffle, each
    pair is claimed only by its canonical cell — the smallest cell id
    of the intersection of the two bbox covers, computed O(1) from
    the two index ranges. Exactly-once emission with zero extra data
    movement. (Covers assume no antimeridian-crossing bboxes, as
    everywhere in the engine.)
    """

    def cells_of(batch: pa.Table):
        fb = _FlatBatch(batch[geometry_col], batch.num_rows)
        if not len(fb.feat_ids):
            return np.empty(0, np.int64), np.empty(0, np.uint64)
        rows, cells = grid.bboxes_to_cells(fb.xmin, fb.ymin, fb.xmax,
                                           fb.ymax, res=res)
        return fb.feat_ids[rows], cells

    def matcher(group: pa.Table, rows: np.ndarray):
        fb = _FlatBatch(group[geometry_col].take(rows), len(rows))
        lx0, ly0 = _cover_origin(res, fb.xmin, fb.ymin)
        lcell = group["_cell"].to_numpy()[rows]   # one row per cover cell

        def match_zone(cand, poly):
            # canonical cell: smallest shared cover cell of the pair
            # (pack order is iy-major, ix-minor); ``pos`` maps cover
            # rows to present-feature positions (feat_ids may skip
            # null rows)
            zx0, zy0 = _cover_origin(res, poly.bbox[0], poly.bbox[1])
            pos = np.searchsorted(fb.feat_ids, cand)
            can = grid.pack(res, np.maximum(lx0[pos], zx0),
                            np.maximum(ly0[pos], zy0)).view(np.int64)
            hit = np.zeros(len(cand), dtype=bool)
            kept = np.flatnonzero(lcell[cand] == can)
            pos = pos[kept]
            if not len(kept):
                return hit
            gp, pgrp = fb.gather_points(pos)
            gsa, gsb, sgrp = fb.gather_segments(pos)
            if geom_kind == "lines":
                contact, s_in, s_out, proper = \
                    algo.polylines_polygon_relate_flat(
                        gp, pgrp, gsa, gsb, sgrp, len(pos), poly)
                if predicate == "intersects":
                    m = contact
                elif predicate == "within":
                    m = s_in & ~s_out & ~proper
                elif predicate == "crosses":
                    m = proper | (s_in & s_out)
                else:
                    m = contact & ~s_in & ~proper
                hit[kept] = m
                return hit
            strict = predicate == "overlaps"
            G = len(pos)
            vmask = (poly.contains_points(gp[:, 0], gp[:, 1]) if strict
                     else poly.covers_points(gp[:, 0], gp[:, 1]))
            m = algo._any_per_group(vmask, pgrp, G)
            touch_seg = np.zeros(len(gsa), dtype=bool)
            proper_seg = np.zeros(len(gsa), dtype=bool)
            for ring in poly.rings:
                algo._segments_vs_ring_accum(gsa, gsb, ring,
                                             touch_seg, proper_seg)
            m |= algo._any_per_group(
                proper_seg if strict else touch_seg, sgrp, G)
            un = np.flatnonzero(~m)
            if len(un):
                usa, usb, usgrp = fb.gather_segments(pos[un])
                ring0 = poly.rings[0]
                q = ring0[:-1] if strict else ring0[:1]
                inside, _onb = algo.points_vs_flat_polygons(
                    q[:, 0], q[:, 1], usa, usb, usgrp, len(un))
                m[un] |= inside.any(axis=0)
            hit[kept] = m
            return hit

        def match(lpos, zu, zones):
            # the pairs of one zone are one run of the ascending ``zu``
            cut = np.flatnonzero(np.diff(zu)) + 1
            return np.concatenate([
                match_zone(lpos[a:b], zones[zu[a]])
                for a, b in zip(np.r_[0, cut], np.r_[cut, len(zu)])])
        return match

    return _salted_shuffle_join(lines_ds, zones_ds, cells_of, matcher, 8192,
                                res, num_buckets, rows_per_task,
                                zone_geom_col, checkpoint_dir)


def spatial_join_shuffle(points_ds, zones_ds, predicate: str = "intersects",
                         res: int = DEFAULT_INDEX_RES, num_buckets: int = 64,
                         rows_per_task: int = 50_000,
                         lon_col: str = "lon", lat_col: str = "lat",
                         zone_geom_col: str = "geometry", how: str = "inner",
                         checkpoint_dir: str | None = None):
    """Two-phase shuffle spatial join for large×large inputs.

    Phase 0 cells the left points once, materializes them, and counts
    them per cell → salt plan for hot cells. Phase 1 keys those rows by
    hash(cell, salt) bucket and explodes zone cell covers (replicated
    across salts for hot cells).
    Phase 2 co-locates with one ``group_apply(bucket)`` and refines each
    bucket vectorized (sort-merge on cell inside the bucket).

    ``checkpoint_dir`` materializes the phase-1 keyed union as a
    RESUMABLE partitioned-parquet stage boundary (one partition per
    bucket + lineage manifest): a killed run re-submitted with the same
    dir skips completed phase-1 partitions and the refine re-reads the
    checkpoint — the "resume mid-shuffle" path of BASELINE.json.

    Returns a Dataset of joined rows (left columns + zone attr columns).
    """
    if how != "inner":
        raise ValueError(
            f"spatial_join_shuffle supports how='inner' only (got {how!r}); "
            "use the broadcast spatial_join for left joins")
    if predicate not in ("intersects", "covers", "within", "contains"):
        raise ValueError(
            f"spatial_join_shuffle supports intersects/covers/within/contains "
            f"(got {predicate!r})")
    interior = predicate in ("within", "contains")

    def cells_of(batch: pa.Table):
        # one cell per point: the keyed batch is the input batch plus
        # the key columns (no take of the possibly wide rows)
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        return None, grid.point_to_cell(lon, lat, res)

    def matcher(group: pa.Table, rows: np.ndarray):
        lon = group[lon_col].to_numpy()[rows].astype(np.float64, copy=False)
        lat = group[lat_col].to_numpy()[rows].astype(np.float64, copy=False)

        def match(lpos, zu, zones):
            inside, onb = algo.points_in_polygons_paired(
                lon[lpos], lat[lpos], zu, zones)
            return inside if interior else inside | onb
        return match

    return _salted_shuffle_join(points_ds, zones_ds, cells_of, matcher, 65536,
                                res, num_buckets, rows_per_task,
                                zone_geom_col, checkpoint_dir)


# ----------------------------------------- exactly-once point self-join

def dwithin_self_pairs(points_ds, id_col: str = "pk", ix_col: str = "ix",
                       iy_col: str = "iy", eps: int = 96,
                       tile: int | None = None,
                       max_candidates_per_slab: int = 2_000_000,
                       carry: tuple = (), pair_filter=None):
    """All unordered point pairs within ``eps`` lattice units, each
    emitted EXACTLY ONCE as ``(id_a < id_b, d2)`` — fully distributed.

    The 2-D generalization of the price-band down-halo plan (and the
    distributed analogue of the reference's rtree candidate step,
    /root/reference/pythongis/vector/sql.py): points bucket into square
    tiles of side ``T = tile or eps`` (T >= eps required). A pair
    within eps spans home tiles at Chebyshev distance <= 1, and its
    canonical meeting tile is the lexicographically smaller of the two
    home tiles. Each point therefore routes one ANCHOR copy to its
    home tile plus HALO copies to its four lex-smaller neighbors
    ((-1,-1), (-1,0), (-1,+1), (0,-1)); inside a tile the vectorized
    all-pairs kernel keeps anchor-anchor and anchor-halo pairs only
    (a halo-halo pair's canonical tile is elsewhere), so every
    qualifying pair appears once and only once. ONE bucketed shuffle;
    in-bucket pair emission is pure index arithmetic (repeat/cumsum)
    over ALL tiles in the bucket at once — no Python loop per tile.

    Scale note: per-tile candidate volume is m_tile² — bounded by point
    density at the tile side (= eps, the same density bound DBSCAN-type
    consumers assume). Slabs of ``max_candidates_per_slab`` bound the
    in-bucket temporary when a bucket holds hot tiles.

    ``carry`` names extra int64 columns to ride through the shuffle and
    appear on the pair rows as ``{col}_a`` / ``{col}_b`` (aligned with
    the id_a < id_b canonical order) — the shuffle-once alternative to
    re-joining attributes onto the pair table. ``pair_filter(d2, ca,
    cb)`` (carried-column dicts, canonical order) may return a bool
    mask applied IN-KERNEL, so selective non-spatial predicates (a time
    window, a key inequality) prune before any pair row is emitted.
    Symmetric predicates only — the canonical order is not the input
    order.
    """
    T = int(tile) if tile is not None else int(eps)
    if T < eps:
        raise ValueError(f"tile side {T} must be >= eps {eps}")
    eps2 = int(eps) * int(eps)
    HALO = ((-1, -1), (-1, 0), (-1, 1), (0, -1))

    def route(batch: pa.Table) -> pd.DataFrame:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ix = batch[ix_col].to_numpy(zero_copy_only=False).astype(np.int64)
        iy = batch[iy_col].to_numpy(zero_copy_only=False).astype(np.int64)
        tx = ix // T
        ty = iy // T
        n = len(ids)
        reps = 1 + len(HALO)
        otx = np.empty(n * reps, np.int64)
        oty = np.empty(n * reps, np.int64)
        anc = np.zeros(n * reps, np.int64)
        otx[:n] = tx
        oty[:n] = ty
        anc[:n] = 1
        for i, (dx, dy) in enumerate(HALO):
            s = slice(n * (i + 1), n * (i + 2))
            otx[s] = tx + dx
            oty[s] = ty + dy
        out = {"tx": otx, "ty": oty, "anc": anc,
               "id": np.tile(ids, reps),
               "x": np.tile(ix, reps), "y": np.tile(iy, reps)}
        for c in carry:
            v = batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
            out[c] = np.tile(v, reps)
        return pd.DataFrame(out)

    routed = map_arrow(points_ds, route)
    # the bucketed combine parallelism follows the SORT's output
    # partitioning, which follows INPUT block count — a single-row-
    # group parquet source reaches here as 2 fat blocks and the
    # 64-bucket pair kernel runs as 2 TASKS (measured: 9.3s of kernel
    # on 2 cores). Split the routed table to ~2 blocks/CPU first.
    import ray as _ray

    nsplit = 2 * max(4, int(_ray.cluster_resources().get("CPU", 4)))
    routed = routed.repartition(nsplit)

    empty_cols = {"id_a": pd.Series([], dtype=np.int64),
                  "id_b": pd.Series([], dtype=np.int64),
                  "d2": pd.Series([], dtype=np.int64)}
    for c in carry:
        empty_cols[f"{c}_a"] = pd.Series([], dtype=np.int64)
        empty_cols[f"{c}_b"] = pd.Series([], dtype=np.int64)
    empty = pd.DataFrame(empty_cols)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return empty.copy()
        key = np.lexsort((g["ty"].to_numpy(), g["tx"].to_numpy()))
        tx = g["tx"].to_numpy()[key]
        ty = g["ty"].to_numpy()[key]
        ids = g["id"].to_numpy()[key]
        x = g["x"].to_numpy()[key]
        y = g["y"].to_numpy()[key]
        anc = g["anc"].to_numpy()[key]
        cvals = {c: g[c].to_numpy()[key] for c in carry}
        new = np.empty(len(tx), bool)
        new[0] = True
        new[1:] = (tx[1:] != tx[:-1]) | (ty[1:] != ty[:-1])
        gid = np.cumsum(new) - 1                    # tile index per row
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(tx)))
        # slab boundaries on cumulative m² so temporaries stay bounded
        cand = sizes.astype(np.int64) ** 2
        cum = np.cumsum(cand)
        outs = []
        lo_g = 0
        while lo_g < len(sizes):
            hi_g = int(np.searchsorted(
                cum, (cum[lo_g - 1] if lo_g else 0)
                + max_candidates_per_slab, side="right"))
            hi_g = max(hi_g, lo_g + 1)
            r0 = starts[lo_g]
            r1 = (starts[hi_g] if hi_g < len(sizes) else len(tx))
            m = sizes[lo_g:hi_g]
            srel = starts[lo_g:hi_g] - r0
            # per-row block = all rows of its tile (within the slab)
            per_row = np.repeat(m, m)               # |tile| per row
            tot = int(per_row.sum())
            li = np.repeat(np.arange(r1 - r0), per_row)
            csr = np.concatenate(([0], np.cumsum(per_row)))
            pos = np.arange(tot) - np.repeat(csr[:-1], per_row)
            ri = np.repeat(np.repeat(srel, m), per_row) + pos
            keep = li < ri                          # upper triangle
            li = li[keep]
            ri = ri[keep]
            fa = anc[r0 + li]
            fb = anc[r0 + ri]
            keep2 = (fa + fb) >= 1                  # drop halo-halo
            li = li[keep2]
            ri = ri[keep2]
            dx = x[r0 + li] - x[r0 + ri]
            dy = y[r0 + li] - y[r0 + ri]
            d2 = dx * dx + dy * dy
            hit = d2 <= eps2
            if hit.any():
                gi = r0 + li[hit]
                gj = r0 + ri[hit]
                ia = ids[gi]
                ib = ids[gj]
                swap = ib < ia              # canonical id_a < id_b
                lo = np.where(swap, ib, ia)
                hi = np.where(swap, ia, ib)
                d2h = d2[hit]
                ca = {c: np.where(swap, v[gj], v[gi])
                      for c, v in cvals.items()}
                cb = {c: np.where(swap, v[gi], v[gj])
                      for c, v in cvals.items()}
                if pair_filter is not None:
                    fm = np.asarray(pair_filter(d2h, ca, cb), bool)
                    if not fm.any():
                        lo_g = hi_g
                        continue
                    lo, hi, d2h = lo[fm], hi[fm], d2h[fm]
                    ca = {c: v[fm] for c, v in ca.items()}
                    cb = {c: v[fm] for c, v in cb.items()}
                row = {"id_a": lo, "id_b": hi, "d2": d2h}
                for c in carry:
                    row[f"{c}_a"] = ca[c]
                    row[f"{c}_b"] = cb[c]
                outs.append(pd.DataFrame(row))
            lo_g = hi_g
        if not outs:
            return empty.copy()
        return pd.concat(outs, ignore_index=True)

    return bucketed_group_apply(routed, ["tx", "ty"], per_bucket)
