"""Cell grid: the engine's universal spatial partition key.

Every spatial shuffle in this engine (spatial join, zonal statistics,
raster tiling, kNN candidate search) is keyed by a *cell id* — a uint64
packing an equal-angle quadkey cell. This replaces the reference's
per-dataset in-memory R-tree / quadtree spatial index
(/root/reference/pythongis/vector/data.py:1189-1229,
/root/reference/pythongis/vector/spindex.py:4-98): instead of a mutable
index attached to a dataset object, the index is a *column* computed in a
stateless ``map_batches`` pass, and co-location happens via
``Dataset.groupby(cell)``.

Scheme (H3-shaped API, quadkey implementation — neither h3 nor s2 is
available in this environment, see SURVEY.md §7.0):

    resolution r: the world [-180,180] x [-90,90] splits into
    nx = 2^(r+1) columns and ny = 2^r rows (cells are square in degrees).
    cell id = (r << 58) | (iy << 29) | ix          (uint64)

    r = 0  →  2 x 1 cells of 180°
    r = 7  →  256 x 128 cells of ~1.4°
    r = 10 →  2048 x 1024 cells of ~0.176°       (default join resolution)
    r <= 28 supported.

All functions are vectorized numpy; none touch Ray. Longitude wraps,
latitude clamps. Points exactly on a cell's max edge belong to the next
cell (half-open [lo, hi) intervals), except the poles which clamp into
the top row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

RES_SHIFT = 58
IY_SHIFT = 29
IXY_MASK = (1 << 29) - 1
DEFAULT_RES = 10


def cell_dims(res: int) -> tuple[int, int]:
    """(nx, ny) cell counts at a resolution."""
    return 2 << res, 1 << res


def cell_size_deg(res: int) -> float:
    """Edge length of a cell in degrees at a resolution."""
    return 180.0 / (1 << res)


def pack(res: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Pack (res, ix, iy) into uint64 cell ids."""
    return (
        (np.uint64(res) << np.uint64(RES_SHIFT))
        | (iy.astype(np.uint64) << np.uint64(IY_SHIFT))
        | ix.astype(np.uint64)
    )


def unpack(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack uint64 cell ids → (res, ix, iy) int64 arrays."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = (cell >> np.uint64(RES_SHIFT)).astype(np.int64)
    iy = ((cell >> np.uint64(IY_SHIFT)) & np.uint64(IXY_MASK)).astype(np.int64)
    ix = (cell & np.uint64(IXY_MASK)).astype(np.int64)
    return res, ix, iy


def point_to_cell(lon: np.ndarray, lat: np.ndarray, res: int = DEFAULT_RES) -> np.ndarray:
    """Vectorized point→cell. Half-open cells; lon wraps, lat clamps."""
    nx, ny = cell_dims(res)
    step = cell_size_deg(res)
    ix = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / step).astype(np.int64)
    iy = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) / step).astype(np.int64)
    ix = np.mod(ix, nx)
    iy = np.clip(iy, 0, ny - 1)
    return pack(res, ix, iy)


def cell_bounds(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xmin, ymin, xmax, ymax) degree bounds per cell id."""
    res, ix, iy = unpack(cell)
    # per-element step (supports mixed resolutions)
    step = 180.0 / (np.int64(1) << res).astype(np.float64) if np.ndim(res) else 180.0 / (1 << int(res))
    xmin = ix * step - 180.0
    ymin = iy * step - 90.0
    return xmin, ymin, xmin + step, ymin + step


def parent(cell: np.ndarray, steps: int = 1) -> np.ndarray:
    """Parent cell ``steps`` resolutions up (4:1 aggregation per step).

    Replaces the reference's ``upscale`` regridding
    (/root/reference/pythongis/raster/manager.py:724-775) with cell-id
    arithmetic: ``groupby(parent(cell))`` aggregates 4^steps children.
    """
    res, ix, iy = unpack(cell)
    return pack(int(res.flat[0]) - steps if np.ndim(res) else int(res) - steps,
                ix >> steps, iy >> steps)


def children(cell: int) -> np.ndarray:
    """The 4 child cells one resolution down (scalar in, array out)."""
    res, ix, iy = unpack(np.asarray([cell], dtype=np.uint64))
    r, x, y = int(res[0]) + 1, int(ix[0]) << 1, int(iy[0]) << 1
    xs = np.array([x, x + 1, x, x + 1], dtype=np.int64)
    ys = np.array([y, y, y + 1, y + 1], dtype=np.int64)
    return pack(r, xs, ys)


def k_ring(cell: np.ndarray, k: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance k of each input cell.

    Returns shape ``(n, (2k+1)^2)``. Longitude wraps; latitude rows
    outside [0, ny) are clamped into the edge row (duplicates possible
    at the poles — callers dedup pairs anyway, see spatial.py). This is
    the expanding-search primitive for kNN correctness
    (reference brute-force: /root/reference/pythongis/vector/data.py:1261-1314).
    """
    res, ix, iy = unpack(np.atleast_1d(np.asarray(cell, dtype=np.uint64)))
    r = int(res[0])
    nx, ny = cell_dims(r)
    offs = np.arange(-k, k + 1, dtype=np.int64)
    ox, oy = np.meshgrid(offs, offs)
    ox, oy = ox.ravel(), oy.ravel()
    gx = np.mod(ix[:, None] + ox[None, :], nx)
    gy = np.clip(iy[:, None] + oy[None, :], 0, ny - 1)
    return pack(r, gx, gy)


def bbox_to_cells(
    xmin: float, ymin: float, xmax: float, ymax: float, res: int = DEFAULT_RES,
    max_cells: int = 4096,
) -> np.ndarray:
    """Cell cover of one bbox (scalar). Used for polygon cover expansion.

    The cover is the coarse candidate filter — exact predicates run in
    the refine stage, so covering a superset is always safe. If the
    bbox would cover more than ``max_cells`` cells at ``res``, the
    resolution is coarsened (mixed-resolution covers are not produced;
    the caller re-expands children as needed).
    """
    r = res
    while True:
        nx, ny = cell_dims(r)
        step = cell_size_deg(r)
        ix0 = int(np.floor((xmin + 180.0) / step))
        ix1 = int(np.floor((xmax + 180.0) / step))
        iy0 = max(0, int(np.floor((ymin + 90.0) / step)))
        iy1 = min(ny - 1, int(np.floor((ymax + 90.0) / step)))
        n = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        if n <= max_cells or r == 0:
            break
        r -= 1
    xs = np.arange(ix0, ix1 + 1, dtype=np.int64) % nx
    ys = np.arange(iy0, iy1 + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys)
    return pack(r, gx.ravel(), gy.ravel())


def bboxes_to_cells(
    xmin: np.ndarray, ymin: np.ndarray, xmax: np.ndarray, ymax: np.ndarray,
    res: int = DEFAULT_RES,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cell cover for many bboxes (all at one resolution).

    Returns ``(row_index, cell_id)`` flat pair arrays — one output row
    per (input row, covered cell), ready to build an exploded
    candidate table (the flat_map shape of phase 1 of the spatial
    join, SURVEY.md §2.4).
    """
    nx, ny = cell_dims(res)
    step = cell_size_deg(res)
    ix0 = np.floor((np.asarray(xmin, np.float64) + 180.0) / step).astype(np.int64)
    ix1 = np.floor((np.asarray(xmax, np.float64) + 180.0) / step).astype(np.int64)
    iy0 = np.clip(np.floor((np.asarray(ymin, np.float64) + 90.0) / step).astype(np.int64), 0, ny - 1)
    iy1 = np.clip(np.floor((np.asarray(ymax, np.float64) + 90.0) / step).astype(np.int64), 0, ny - 1)
    ncols = ix1 - ix0 + 1
    nrows = iy1 - iy0 + 1
    counts = ncols * nrows
    total = int(counts.sum())
    row_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # local offset within each bbox's cover
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    ncols_r = np.repeat(ncols, counts)
    gx = np.mod(np.repeat(ix0, counts) + local % ncols_r, nx)
    gy = np.repeat(iy0, counts) + local // ncols_r
    return row_idx, pack(res, gx, gy)


# Lattice cells of the fixtures' (ix, iy) points (fixtures.UNITS = 1024
# units per degree): the ``map_batches`` kernels of the raster-grid
# queries, (ix, iy) → (cx, cy) per point.
def cellify_1deg(batch: pa.Table) -> pa.Table:
    ix = batch["ix"].to_numpy(zero_copy_only=False)
    iy = batch["iy"].to_numpy(zero_copy_only=False)
    return pa.table({"cx": pa.array(ix // 1024), "cy": pa.array(iy // 1024)})


# 8° cells (8192 units): dense enough at sf0.001 that interior
# cells have all four neighbors (a 1° stencil grid is empty there)
def cellify_8deg(batch: pa.Table) -> pa.Table:
    ix = batch["ix"].to_numpy(zero_copy_only=False)
    iy = batch["iy"].to_numpy(zero_copy_only=False)
    return pa.table({"cx": pa.array(ix // 8192),
                     "cy": pa.array(iy // 8192)})
