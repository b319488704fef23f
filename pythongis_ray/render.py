"""Distributed headless map renderer — the data-product core of the
reference's renderer (``/root/reference/pythongis/renderer.py``:
Map/Layout/ColorPalette render layers to an image and ``save()`` it;
2434 lines on PIL/aggdraw). This module re-expresses the headless
part Ray-Data-first: every layer rasterizes to ASSOCIATIVE per-batch
partial canvases (count-sum or class-max — order-free, so the
streaming executor may combine them in any order), partials fold in a
two-level tree (per-block fold → bounded driver fold), symbology
comes from classify.py break algorithms, and the canvas writes
through the repo's own PNG/JPEG codecs with a world-file sidecar so
the output is itself a georeferenced raster.

Annotation layer (reference Map.title / add_legend / fillsize —
test_render_title.py, test_render_legend.py:28,
test_render_size_units.py): title bar, legend box (swatch / class
ramp / density ramp / graduated-size circles with formatted break
values) and size-graduated point symbols, composited driver-side
over the rendered canvas with a built-in 5x7 bitmap font.

Out of scope (GUI surface, correctly): tkinter view, interactive
zoom, antialiasing.

Scale shape: POINT layers stream any cardinality (dense per-batch
canvases for small canvases, sparse (pixel, value) partials + one
bucketed shuffle above 2^18 px — O(touched pixels) moved, not
O(batches x canvas)). POLYGON layers loop features inside each batch
(each feature's pixel window is PIP-vectorized) — right for the
10^2..10^5 polygons a map draws; a 10^7-polygon choropleth should
pre-dissolve (spatial.dissolve) first. Giant outputs go through
``render_tile_pyramid`` (independent, resumable per-tile jobs), not
one driver-side canvas.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pythongis_ray.relational import bucketed_group_apply, map_arrow

# a small categorical palette (ColorBrewer Set1-like, public values)
PALETTE = [(228, 26, 28), (55, 126, 184), (77, 175, 74),
           (152, 78, 163), (255, 127, 0), (255, 255, 51),
           (166, 86, 40), (247, 129, 191), (153, 153, 153)]

# sequential ramp for density/graduated rendering (light → dark blue)
SEQUENTIAL = [(239, 243, 255), (198, 219, 239), (158, 202, 225),
              (107, 174, 214), (66, 146, 198), (33, 113, 181),
              (8, 69, 148)]


def _fold_canvases(partials, h: int, w: int, dtype, op):
    """Fold a Dataset of ``{"canvas": bytes}`` rows into one (h, w)
    array. Two levels: per-arrow-block fold inside map_batches, then
    a bounded driver fold over the surviving one-row-per-block
    partials (#blocks, not #features)."""
    npop = np.maximum if op == "max" else np.add

    def fold_block(b: pa.Table) -> pa.Table:
        acc = None
        for buf in b["canvas"].to_pylist():
            a = np.frombuffer(buf, dtype).reshape(h, w)
            acc = a.astype(dtype) if acc is None else npop(acc, a)
        if acc is None:                    # empty upstream block
            return pa.table({"canvas": pa.array([], pa.binary())})
        return pa.table({"canvas": pa.array([acc.tobytes()], pa.binary())})

    folded = partials.map_batches(fold_block, batch_format="pyarrow",
                                  batch_size=64)
    acc = np.zeros((h, w), dtype)
    for row in folded.iter_rows():
        npop(acc, np.frombuffer(row["canvas"], dtype).reshape(h, w),
             out=acc)
    return acc


class MapCanvas:
    """Headless map: ``add_points`` / ``add_lines`` / ``add_polygons``
    queue distributed layer rasterizations; ``render()`` executes
    them (each layer = one streaming map_batches + tree fold) and
    composes in painter order; ``save()`` writes PNG/JPEG (by
    extension) + a world-file sidecar."""

    def __init__(self, width: int = 512, height: int = 256,
                 bbox=(-180.0, -90.0, 180.0, 90.0),
                 background=(255, 255, 255)):
        self.width = int(width)
        self.height = int(height)
        self.bbox = tuple(float(v) for v in bbox)
        self.background = tuple(background)
        self._layers: list = []       # (classval (h,w) int, colors list)
        # annotation state (reference Map.title / Map.add_legend —
        # renderer.py Legend/Title; composited driver-side in render())
        self.title: str | None = None
        self._legend_on = False
        self._legend_title: str | None = None
        self._legend_pos = "se"
        self._legend_entries: list[dict] = []

    # --- coordinate mapping (mirrored verbatim in the SQL oracle) ---

    def to_px(self, lon: np.ndarray, lat: np.ndarray):
        """lon/lat → (col, row, in_bounds). floor mapping; points on
        the right/bottom edge fall out of bounds (half-open pixels)."""
        x0, y0, x1, y1 = self.bbox
        col = np.floor((lon - x0) / (x1 - x0) * self.width)
        row = np.floor((y1 - lat) / (y1 - y0) * self.height)
        ok = (col >= 0) & (col < self.width) & (row >= 0) \
            & (row < self.height)
        return col.astype(np.int64), row.astype(np.int64), ok

    # ------------------------------------------------------- layers

    def add_points(self, ds, lon_col: str = "lon", lat_col: str = "lat",
                   value_col: str | None = None, breaks=None,
                   color=None, radius: int = 0, mode: str = "class",
                   sparse: bool | None = None, label: str | None = None,
                   size_col: str | None = None, sizes=(2, 8),
                   size_range=None):
        """Point layer. ``mode="class"``: pixel takes the max class
        (1-based; classes from ``breaks`` over ``value_col``, else
        constant class 1 colored ``color``). ``mode="count"``: pixel
        counts points (density map; colored by a sequential ramp over
        quantile breaks of the nonzero counts at render time).

        ``sparse`` (default: auto — on for canvases > 2^18 px when
        radius is 0): partials are (pixel, value) TABLES combined by
        one bucketed shuffle instead of dense per-batch canvases —
        the scale-safe form: dense partials move O(batches × h × w)
        bytes; sparse moves O(touched pixels) regardless of batch
        count.

        ``size_col``: size-graduated symbols (the reference's
        fillsize={'key','sizes'} layer option,
        test_render_size_units.py): per-point disc radius interpolated
        linearly between ``sizes=(min_px, max_px)`` over
        ``size_range=(vmin, vmax)``. When size_range is None it is
        computed with one min/max aggregate over ``ds`` — pass it
        explicitly at scale to avoid the extra pass."""
        h, w = self.height, self.width
        to_px = self.to_px
        rad = int(radius)
        if size_col is not None:
            if size_range is None:
                from ray.data.aggregate import Max, Min
                agg = ds.aggregate(Min(size_col), Max(size_col))
                size_range = (float(agg[f"min({size_col})"]),
                              float(agg[f"max({size_col})"]))
            self._add_legend_entry(label, mode, color, breaks,
                                   sizes=sizes, size_range=size_range)
            return self._add_points_graduated(
                ds, lon_col, lat_col, value_col, breaks, color,
                size_col, sizes, size_range)
        self._add_legend_entry(label, mode, color, breaks)
        if sparse is None:
            sparse = rad == 0 and h * w > (1 << 18)
        if sparse and rad == 0:
            def sparse_partial(b: pa.Table) -> pd.DataFrame:
                lon = b[lon_col].to_numpy(zero_copy_only=False)
                lat = b[lat_col].to_numpy(zero_copy_only=False)
                col, row, ok = to_px(lon, lat)
                pix = row[ok] * w + col[ok]
                if mode == "count":
                    val = np.ones(len(pix), np.int64)
                elif value_col is not None and breaks is not None:
                    from pythongis_ray import classify
                    v = b[value_col].to_numpy(zero_copy_only=False)
                    val = classify.find_class(v, breaks) \
                        .astype(np.int64)[ok] + 1
                else:
                    val = np.ones(len(pix), np.int64)
                agg = "sum" if mode == "count" else "max"
                d = pd.DataFrame({"pix": pix, "val": val})
                g = d.groupby("pix", sort=False)["val"] \
                    .agg(agg).reset_index()
                g["val"] = g["val"].astype(np.int64)
                return g

            self._layers.append(("points_sparse", ds, sparse_partial,
                                 "sum" if mode == "count" else "max",
                                 mode, color, breaks))
            return self

        def partial(b: pa.Table) -> pa.Table:
            lon = b[lon_col].to_numpy(zero_copy_only=False)
            lat = b[lat_col].to_numpy(zero_copy_only=False)
            col, row, ok = to_px(lon, lat)
            if mode == "count":
                canvas = np.zeros((h, w), np.int64)
                np.add.at(canvas, (row[ok], col[ok]), 1)
            else:
                if value_col is not None and breaks is not None:
                    from pythongis_ray import classify
                    v = b[value_col].to_numpy(zero_copy_only=False)
                    cls = classify.find_class(v, breaks).astype(np.int64) + 1
                else:
                    cls = np.ones(len(lon), np.int64)
                canvas = np.zeros((h, w), np.int64)
                np.maximum.at(canvas, (row[ok], col[ok]), cls[ok])
            if rad > 0:                      # disc stamp (small radii)
                base = canvas.copy()
                for dy in range(-rad, rad + 1):
                    for dx in range(-rad, rad + 1):
                        if dx * dx + dy * dy > rad * rad or (dx, dy) == (0, 0):
                            continue
                        sh = np.zeros_like(base)
                        ys = slice(max(0, dy), min(h, h + dy))
                        yd = slice(max(0, -dy), min(h, h - dy))
                        xs = slice(max(0, dx), min(w, w + dx))
                        xd = slice(max(0, -dx), min(w, w - dx))
                        sh[yd, xd] = base[ys, xs]
                        canvas = (canvas + sh if mode == "count"
                                  else np.maximum(canvas, sh))
            return pa.table({"canvas": pa.array([canvas.tobytes()],
                                                pa.binary())})

        self._layers.append(("points", ds, partial,
                             "sum" if mode == "count" else "max",
                             mode, color, breaks))
        return self

    def _add_points_graduated(self, ds, lon_col, lat_col, value_col,
                              breaks, color, size_col, sizes,
                              size_range):
        h, w = self.height, self.width
        to_px = self.to_px
        smin, smax = int(sizes[0]), int(sizes[1])
        vmin, vmax = float(size_range[0]), float(size_range[1])
        vspan = (vmax - vmin) or 1.0

        def partial(b: pa.Table) -> pa.Table:
            lon = b[lon_col].to_numpy(zero_copy_only=False)
            lat = b[lat_col].to_numpy(zero_copy_only=False)
            col, row, ok = to_px(lon, lat)
            v = b[size_col].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            rads = np.rint(smin + np.clip((v - vmin) / vspan, 0.0, 1.0)
                           * (smax - smin)).astype(np.int64)
            if value_col is not None and breaks is not None:
                from pythongis_ray import classify
                vv = b[value_col].to_numpy(zero_copy_only=False)
                cls = classify.find_class(vv, breaks) \
                    .astype(np.int64) + 1
            else:
                cls = np.ones(len(lon), np.int64)
            col, row, rads, cls = col[ok], row[ok], rads[ok], cls[ok]
            canvas = np.zeros((h, w), np.int64)
            for r in np.unique(rads):       # few distinct radii
                sel = rads == r
                cr, rr, cc = col[sel], row[sel], cls[sel]
                r = int(r)
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        if dx * dx + dy * dy > r * r:
                            continue
                        r2, c2 = rr + dy, cr + dx
                        m = (r2 >= 0) & (r2 < h) & (c2 >= 0) & (c2 < w)
                        np.maximum.at(canvas, (r2[m], c2[m]), cc[m])
            return pa.table({"canvas": pa.array([canvas.tobytes()],
                                                pa.binary())})

        self._layers.append(("points", ds, partial, "max", "class",
                             color, breaks))
        return self

    # --------------------------------------------------- annotations

    def _add_legend_entry(self, label, mode, color, breaks,
                          sizes=None, size_range=None):
        """Collect the legend entry for one layer at add time (the
        reference builds Legend from layer options, renderer.py
        Legend.render)."""
        if sizes is not None:
            self._legend_entries.append({
                "kind": "sizes", "label": label,
                "color": color if color is not None else PALETTE[0],
                "sizes": (int(sizes[0]), int(sizes[1])),
                "range": size_range})
        elif mode == "count":
            self._legend_entries.append({
                "kind": "ramp", "label": label, "colors": SEQUENTIAL})
        elif breaks is not None:
            ramp = SEQUENTIAL if color is None else PALETTE
            self._legend_entries.append({
                "kind": "classes", "label": label, "colors": ramp,
                "breaks": list(breaks)})
        else:
            self._legend_entries.append({
                "kind": "swatch", "label": label,
                "color": color if color is not None else PALETTE[0]})

    def add_legend(self, title: str | None = None, position: str = "se"):
        """Composite a legend box over the rendered map (reference
        Map.add_legend, test_render_legend.py:28): one row per layer —
        a color swatch, per-class swatches with formatted break
        values, a sequential ramp for density layers, or min/max
        graduated circles for size-graduated layers. ``position`` is a
        corner: 'ne', 'nw', 'se', 'sw'."""
        self._legend_on = True
        self._legend_title = title
        self._legend_pos = position
        return self

    def _compose_annotations(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape[:2]
        if self.title:
            tw = text_width(self.title, 2)
            x0 = max(0, (w - tw) // 2 - 6)
            _draw_box(img, x0, 2, min(w, x0 + tw + 12), 2 + 20)
            draw_text(img, x0 + 6, 5, self.title, scale=2)
        if not self._legend_on:
            return img
        # measure rows
        rows = []                       # (kind, entry, height, width)
        for e in self._legend_entries:
            lab = e.get("label") or ""
            if e["kind"] == "swatch":
                rows.append((e, 14, 20 + text_width(lab)))
            elif e["kind"] == "ramp":
                rows.append((e, 14, 12 * len(e["colors"]) + 8
                             + text_width(lab)))
            elif e["kind"] == "classes":
                b = e["breaks"]
                labels = [f"{format_value(b[i])} - {format_value(b[i + 1])}"
                          for i in range(len(b) - 1)]
                e = dict(e, labels=labels)
                wmax = max(20 + text_width(t) for t in labels)
                rows.append((e, 4 + 12 * len(labels)
                             + (12 if lab else 0),
                             max(wmax, 20 + text_width(lab))))
            else:                       # sizes
                rmin, rmax = e["sizes"]
                vr = e.get("range")
                labels = (["min", "max"] if vr is None else
                          [format_value(vr[0]), format_value(vr[1])])
                e = dict(e, labels=labels)
                rh = (2 * rmin + 6) + (2 * rmax + 6)
                wmax = max(2 * rmax + 10 + text_width(t) for t in labels)
                rows.append((e, rh, max(wmax, 20 + text_width(lab))))
        if not rows:
            return img
        pad = 6
        bw = max(r[2] for r in rows) + 2 * pad
        if self._legend_title:
            bw = max(bw, text_width(self._legend_title) + 2 * pad)
        bh = sum(r[1] + 4 for r in rows) + 2 * pad \
            + (12 if self._legend_title else 0)
        x0 = w - bw - 4 if "e" in self._legend_pos else 4
        y0 = h - bh - 4 if "s" in self._legend_pos else 4
        _draw_box(img, x0, y0, x0 + bw, y0 + bh)
        y = y0 + pad
        if self._legend_title:
            draw_text(img, x0 + pad, y, self._legend_title)
            y += 12
        for e, rh, _ in rows:
            lab = e.get("label") or ""
            if e["kind"] == "swatch":
                _draw_box(img, x0 + pad, y, x0 + pad + 12, y + 12,
                          fill=e["color"])
                draw_text(img, x0 + pad + 16, y + 2, lab)
            elif e["kind"] == "ramp":
                for i, c in enumerate(e["colors"]):
                    _draw_box(img, x0 + pad + 12 * i, y,
                              x0 + pad + 12 * (i + 1), y + 12,
                              fill=c, outline=c)
                draw_text(img, x0 + pad + 12 * len(e["colors"]) + 4,
                          y + 2, lab or "count")
            elif e["kind"] == "classes":
                if lab:
                    draw_text(img, x0 + pad, y, lab)
                    y += 12
                    rh -= 12
                ramp = e["colors"]
                for i, t in enumerate(e["labels"]):
                    c = ramp[min(i, len(ramp) - 1)]
                    _draw_box(img, x0 + pad, y + 12 * i,
                              x0 + pad + 12, y + 12 * i + 12, fill=c)
                    draw_text(img, x0 + pad + 16, y + 12 * i + 2, t)
            else:                       # sizes: min + max circles
                rmin, rmax = e["sizes"]
                cy = y + rmin + 3
                _draw_disc(img, x0 + pad + rmax, cy, rmin, e["color"])
                draw_text(img, x0 + pad + 2 * rmax + 8,
                          cy - 3, e["labels"][0])
                cy = y + 2 * rmin + 6 + rmax + 3
                _draw_disc(img, x0 + pad + rmax, cy, rmax, e["color"])
                draw_text(img, x0 + pad + 2 * rmax + 8,
                          cy - 3, e["labels"][1])
            y += rh + 4
        return img

    def add_lines(self, ds, geometry_col: str = "geometry",
                  color=(55, 126, 184), label: str | None = None):
        """Polyline layer (WKB LineStrings): segments sample at ~1 px
        steps and stamp a binary mask — vectorized over all sample
        points of a batch."""
        self._add_legend_entry(label, "class", color, None)
        h, w = self.height, self.width
        to_px = self.to_px
        x0, y0, x1, y1 = self.bbox
        sx = self.width / (x1 - x0)
        sy = self.height / (y1 - y0)

        def partial(b: pa.Table) -> pa.Table:
            from pythongis_ray.geom import wkb as _wkb

            flat = _wkb.decode_flat(b[geometry_col])
            pts, off = flat["pts"], flat["ring_off"]
            canvas = np.zeros((h, w), np.int64)
            ax_l, ay_l, bx_l, by_l = [], [], [], []
            for r in range(len(off) - 1):
                s, e = off[r], off[r + 1]
                if e - s < 2:
                    continue
                ax_l.append(pts[s:e - 1, 0])
                ay_l.append(pts[s:e - 1, 1])
                bx_l.append(pts[s + 1:e, 0])
                by_l.append(pts[s + 1:e, 1])
            if ax_l:
                ax = np.concatenate(ax_l)
                ay = np.concatenate(ay_l)
                bx = np.concatenate(bx_l)
                by = np.concatenate(by_l)
                # samples per segment ~ 2x its pixel length (the
                # oversampling closes float-rounding gaps at column
                # boundaries, the classic DDA fix)
                npx = np.maximum(np.abs((bx - ax) * sx),
                                 np.abs((by - ay) * sy))
                nseg = 2 * np.maximum(1, np.ceil(npx).astype(np.int64)) + 1
                segi = np.repeat(np.arange(len(ax)), nseg)
                # t = k / (nseg-1) per segment, flattened
                k = np.concatenate([np.arange(n) for n in nseg])
                t = k / np.maximum(1, np.repeat(nseg - 1, nseg))
                lx = ax[segi] + (bx - ax)[segi] * t
                ly = ay[segi] + (by - ay)[segi] * t
                col, row, ok = to_px(lx, ly)
                canvas[row[ok], col[ok]] = 1
            return pa.table({"canvas": pa.array([canvas.tobytes()],
                                                pa.binary())})

        self._layers.append(("lines", ds, partial, "max", "class",
                             color, None))
        return self

    def add_polygons(self, ds, geometry_col: str = "geometry",
                     value_col: str | None = None, breaks=None,
                     color=(77, 175, 74), label: str | None = None):
        """Filled polygon layer (WKB Polygons/MultiPolygons): per
        feature, the pixel centers inside its bbox run the exact
        vectorized PIP (geom.algo crossing-number); pixel takes the
        max class value (choropleth via ``breaks``, else class 1)."""
        self._add_legend_entry(label, "class", color, breaks)
        h, w = self.height, self.width
        x0b, y0b, x1b, y1b = self.bbox
        pxw = (x1b - x0b) / w
        pxh = (y1b - y0b) / h

        def partial(b: pa.Table) -> pa.Table:
            from pythongis_ray import classify
            from pythongis_ray.geom import algo as _algo
            from pythongis_ray.geom import wkb as _wkb

            flat = _wkb.decode_flat(b[geometry_col])
            pts, off = flat["pts"], flat["ring_off"]
            feat = flat["ring_feat"]
            if value_col is not None and breaks is not None:
                v = b[value_col].to_numpy(zero_copy_only=False)
                cls = classify.find_class(v, breaks).astype(np.int64) + 1
            else:
                cls = np.ones(b.num_rows, np.int64)
            canvas = np.zeros((h, w), np.int64)
            for fi in np.unique(feat):
                rsel = np.flatnonzero(feat == fi)
                sa_l, sb_l = [], []
                for r in rsel:
                    s, e = off[r], off[r + 1]
                    sa_l.append(pts[s:e - 1])
                    sb_l.append(pts[s + 1:e])
                sa = np.concatenate(sa_l)
                sb = np.concatenate(sb_l)
                gxmin, gymin = sa.min(0)
                gxmax, gymax = sa.max(0)
                c0 = max(0, int(np.floor((gxmin - x0b) / pxw)))
                c1 = min(w - 1, int(np.floor((gxmax - x0b) / pxw)))
                r1 = min(h - 1, int(np.floor((y1b - gymin) / pxh)))
                r0 = max(0, int(np.floor((y1b - gymax) / pxh)))
                if c1 < c0 or r1 < r0:
                    continue
                cols = np.arange(c0, c1 + 1)
                rows = np.arange(r0, r1 + 1)
                cx = x0b + (cols + 0.5) * pxw
                cy = y1b - (rows + 0.5) * pxh
                gx, gy = np.meshgrid(cx, cy)
                inside, onb = _algo.points_vs_flat_polygons(
                    gx.ravel(), gy.ravel(), sa, sb,
                    np.zeros(len(sa), np.int64), 1)
                hit = (inside[:, 0] | onb[:, 0]).reshape(len(rows),
                                                         len(cols))
                sub = canvas[r0:r1 + 1, c0:c1 + 1]
                np.maximum(sub, np.where(hit, cls[fi], 0), out=sub)
            return pa.table({"canvas": pa.array([canvas.tobytes()],
                                                pa.binary())})

        self._layers.append(("polygons", ds, partial, "max", "class",
                             color, breaks))
        return self

    # ------------------------------------------------------- output

    def render(self) -> np.ndarray:
        """Execute every queued layer and compose → (h, w, 3) uint8."""
        from pythongis_ray import classify

        h, w = self.height, self.width
        img = np.empty((h, w, 3), np.uint8)
        img[:] = np.asarray(self.background, np.uint8)
        for kind, ds, partial, op, mode, color, breaks in self._layers:
            if kind == "points_sparse":
                parts = map_arrow(ds, partial)
                agg = "sum" if op == "sum" else "max"

                def combine(b: pd.DataFrame, _agg=agg) -> pd.DataFrame:
                    g = b.groupby("pix", sort=False)["val"] \
                        .agg(_agg).reset_index()
                    g["val"] = g["val"].astype(np.int64)
                    return g

                folded = bucketed_group_apply(parts, ["pix"], combine) \
                    .to_pandas()
                canvas = np.zeros(h * w, np.int64)
                canvas[folded["pix"].to_numpy(np.int64)] = \
                    folded["val"].to_numpy(np.int64)
                canvas = canvas.reshape(h, w)
            else:
                partials = ds.map_batches(partial, batch_format="pyarrow",
                                          batch_size=8192)
                canvas = _fold_canvases(partials, h, w, np.int64, op)
            if mode == "count":
                nz = canvas[canvas > 0]
                if len(nz) == 0:
                    continue
                bks = classify.quantile(nz.astype(np.float64),
                                        len(SEQUENTIAL))
                cls = classify.find_class(
                    canvas.ravel().astype(np.float64), bks) \
                    .reshape(h, w)
                mask = canvas > 0
                ramp = np.asarray(SEQUENTIAL, np.uint8)
                img[mask] = ramp[np.clip(cls[mask], 0,
                                         len(SEQUENTIAL) - 1)]
            else:
                mask = canvas > 0
                if breaks is not None:
                    ramp = np.asarray(
                        (SEQUENTIAL if color is None else PALETTE),
                        np.uint8)
                    img[mask] = ramp[np.clip(canvas[mask] - 1, 0,
                                             len(ramp) - 1)]
                else:
                    img[mask] = np.asarray(
                        color if color is not None else PALETTE[0],
                        np.uint8)
        return self._compose_annotations(img)

    def save(self, path: str, quality: int = 90) -> str:
        """Render and write PNG (lossless) or JPEG by extension, plus
        a world-file sidecar — the saved map IS a georeferenced
        raster (reference Map.save, renderer.py:~337)."""
        from pythongis_ray import raster as _raster

        img = self.render()
        x0, y0, x1, y1 = self.bbox
        transform = (x0, (x1 - x0) / self.width, y1,
                     (y1 - y0) / self.height)
        arr = np.moveaxis(img, 2, 0).astype(np.float64)
        low = path.lower()
        if low.endswith((".jpg", ".jpeg")):
            return _raster.write_jpg(path, arr, transform=transform,
                                     quality=quality)
        return _raster.write_png(path, arr, transform=transform)


# ---------------------------------------------------- annotation layer
#
# The reference's only asserted render surface is its legend/title/
# size-units tests (/root/reference/tests/test_render_legend.py:28
# add_legend(), test_render_title.py Map.title,
# test_render_size_units.py fillsize={'key','sizes'}). The compositing
# here is driver-side numpy over the already-rendered (h, w, 3) canvas
# — annotation cost is O(annotation pixels), never distributed work.

# 5x7 bitmap font (uppercase + digits + punctuation; lowercase maps to
# uppercase). Rows are 5-char bitstrings, MSB left.
_FONT5x7 = {
    " ": ("00000",) * 7,
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "1": ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    "2": ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    "3": ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    "4": ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    "5": ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    "6": ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    "7": ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    "8": ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    "9": ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
    "A": ("01110", "10001", "10001", "11111", "10001", "10001", "10001"),
    "B": ("11110", "10001", "10001", "11110", "10001", "10001", "11110"),
    "C": ("01110", "10001", "10000", "10000", "10000", "10001", "01110"),
    "D": ("11100", "10010", "10001", "10001", "10001", "10010", "11100"),
    "E": ("11111", "10000", "10000", "11110", "10000", "10000", "11111"),
    "F": ("11111", "10000", "10000", "11110", "10000", "10000", "10000"),
    "G": ("01110", "10001", "10000", "10111", "10001", "10001", "01111"),
    "H": ("10001", "10001", "10001", "11111", "10001", "10001", "10001"),
    "I": ("01110", "00100", "00100", "00100", "00100", "00100", "01110"),
    "J": ("00111", "00010", "00010", "00010", "00010", "10010", "01100"),
    "K": ("10001", "10010", "10100", "11000", "10100", "10010", "10001"),
    "L": ("10000", "10000", "10000", "10000", "10000", "10000", "11111"),
    "M": ("10001", "11011", "10101", "10101", "10001", "10001", "10001"),
    "N": ("10001", "11001", "10101", "10011", "10001", "10001", "10001"),
    "O": ("01110", "10001", "10001", "10001", "10001", "10001", "01110"),
    "P": ("11110", "10001", "10001", "11110", "10000", "10000", "10000"),
    "Q": ("01110", "10001", "10001", "10001", "10101", "10010", "01101"),
    "R": ("11110", "10001", "10001", "11110", "10100", "10010", "10001"),
    "S": ("01111", "10000", "10000", "01110", "00001", "00001", "11110"),
    "T": ("11111", "00100", "00100", "00100", "00100", "00100", "00100"),
    "U": ("10001", "10001", "10001", "10001", "10001", "10001", "01110"),
    "V": ("10001", "10001", "10001", "10001", "01010", "01010", "00100"),
    "W": ("10001", "10001", "10001", "10101", "10101", "10101", "01010"),
    "X": ("10001", "10001", "01010", "00100", "01010", "10001", "10001"),
    "Y": ("10001", "10001", "01010", "00100", "00100", "00100", "00100"),
    "Z": ("11111", "00001", "00010", "00100", "01000", "10000", "11111"),
    ".": ("00000", "00000", "00000", "00000", "00000", "00110", "00110"),
    ",": ("00000", "00000", "00000", "00000", "00110", "00100", "01000"),
    "-": ("00000", "00000", "00000", "01110", "00000", "00000", "00000"),
    ":": ("00000", "00110", "00110", "00000", "00110", "00110", "00000"),
    "%": ("11001", "11010", "00010", "00100", "01000", "01011", "10011"),
    "(": ("00010", "00100", "01000", "01000", "01000", "00100", "00010"),
    ")": ("01000", "00100", "00010", "00010", "00010", "00100", "01000"),
    "<": ("00010", "00100", "01000", "10000", "01000", "00100", "00010"),
    ">": ("01000", "00100", "00010", "00001", "00010", "00100", "01000"),
    "=": ("00000", "00000", "11111", "00000", "11111", "00000", "00000"),
    "/": ("00001", "00010", "00010", "00100", "01000", "01000", "10000"),
    "+": ("00000", "00100", "00100", "11111", "00100", "00100", "00000"),
}

_GLYPH_CACHE: dict = {}


def _glyph(ch: str, scale: int) -> np.ndarray:
    key = (ch, scale)
    g = _GLYPH_CACHE.get(key)
    if g is None:
        rows = _FONT5x7.get(ch.upper(), _FONT5x7[" "])
        bits = np.array([[c == "1" for c in r] for r in rows], bool)
        if scale > 1:
            bits = np.kron(bits, np.ones((scale, scale), bool))
        g = _GLYPH_CACHE[key] = bits
    return g


def text_width(s: str, scale: int = 1) -> int:
    return (6 * len(s) - 1) * scale if s else 0


def draw_text(img: np.ndarray, x: int, y: int, s: str,
              color=(0, 0, 0), scale: int = 1) -> None:
    """Stamp ``s`` onto (h, w, 3) ``img`` with the 5x7 font, top-left
    anchor (x, y); clipped at the canvas edges."""
    h, w = img.shape[:2]
    col = np.asarray(color, np.uint8)
    for ch in s:
        bits = _glyph(ch, scale)
        gh, gw = bits.shape
        x0, y0 = max(x, 0), max(y, 0)
        x1, y1 = min(x + gw, w), min(y + gh, h)
        if x1 > x0 and y1 > y0:
            sub = img[y0:y1, x0:x1]
            sub[bits[y0 - y:y1 - y, x0 - x:x1 - x]] = col
        x += 6 * scale


def format_value(v: float) -> str:
    """Legend value formatting (the reference's add_legend formats
    break values across magnitudes — test_render_legend.py exercises
    0..2e6 / 0..100 / 0..10 / 0..1 ranges): k/M/B suffixes above 1e3,
    integers above 10, short decimals below."""
    av = abs(v)
    for cut, suf in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if av >= cut:
            q = v / cut
            s = f"{q:.1f}".rstrip("0").rstrip(".")
            return s + suf
    if av >= 10 or v == int(v):
        return str(int(round(v)))
    if av >= 1:
        return f"{v:.1f}"
    return f"{v:.2f}".rstrip("0").rstrip(".") or "0"


def _draw_box(img, x0, y0, x1, y1, fill=(255, 255, 255),
              outline=(0, 0, 0)):
    h, w = img.shape[:2]
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(w, x1), min(h, y1)
    if x1 <= x0 or y1 <= y0:
        return
    img[y0:y1, x0:x1] = np.asarray(fill, np.uint8)
    ol = np.asarray(outline, np.uint8)
    img[y0, x0:x1] = ol
    img[y1 - 1, x0:x1] = ol
    img[y0:y1, x0] = ol
    img[y0:y1, x1 - 1] = ol


def _draw_disc(img, cx, cy, r, color):
    h, w = img.shape[:2]
    yy, xx = np.ogrid[max(0, cy - r):min(h, cy + r + 1),
                      max(0, cx - r):min(w, cx + r + 1)]
    m = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    img[max(0, cy - r):min(h, cy + r + 1),
        max(0, cx - r):min(w, cx + r + 1)][m] = np.asarray(color, np.uint8)


# ------------------------------------------------- slippy tile pyramid

def tile_bbox(z: int, x: int, y: int):
    """Slippy z/x/y (plate carrée here — the engine's canonical
    lon/lat canvas, not web-mercator) → (x0, y0, x1, y1) degrees.
    2^(z+1) x 2^z tiles cover the world (2:1 aspect)."""
    n = 1 << z
    w = 360.0 / (2 * n)
    h = 180.0 / n
    x0 = -180.0 + x * w
    y1 = 90.0 - y * h
    return (x0, y1 - h, x0 + w, y1)


def render_tile_pyramid(layer_fn, out_dir: str, zmin: int = 0,
                        zmax: int = 2, tile_px: int = 256,
                        fmt: str = "png"):
    """Write a z/x/y tile pyramid (the standard web-map deliverable;
    the reference's renderer draws one Map, this writes the tiled
    version a tile server consumes). ``layer_fn(canvas)`` adds layers
    to a MapCanvas bounded to one tile. Every tile renders
    INDEPENDENTLY — one Ray task per tile via the driver loop at
    small z; at scale, tiles of one zoom level are an embarrassingly
    parallel map over the (z, x, y) list (documented partitioning
    assumption: the layer source dataset must be re-readable, which
    Ray Datasets are — lineage re-executes per tile with the tile's
    bbox filter pushed into the layer).

    Returns the list of written paths. Layout: out_dir/z/x/y.png —
    resumable: existing files are skipped, so a killed run continues
    where it stopped."""
    import os

    paths = []
    for z in range(zmin, zmax + 1):
        for x in range(2 * (1 << z)):
            for y in range(1 << z):
                p = os.path.join(out_dir, str(z), str(x),
                                 f"{y}.{fmt}")
                if os.path.exists(p):      # resume: skip finished
                    paths.append(p)
                    continue
                os.makedirs(os.path.dirname(p), exist_ok=True)
                m = MapCanvas(width=tile_px, height=tile_px,
                              bbox=tile_bbox(z, x, y))
                layer_fn(m)
                m.save(p)
                paths.append(p)
    return paths
