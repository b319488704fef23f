"""Raster engine: tile tables over the cell grid.

The reference stores rasters as PIL-image bands with an affine
geotransform (/root/reference/pythongis/raster/data.py:151-926,
945-1367). Here a raster is a *tile table* Dataset:

    cell_id: int64   -- grid.pack(res, tx, ty) of the TILE cell
    band:    int32
    tile:    binary  -- raw little-endian float32 grid, shape (T, T)
    nodata:  double

with dataset-level metadata (tile size T, grid resolution). Each tile
covers one cell of the partition grid, so raster⟷vector operations
join on the same cell ids the vector side shuffles by (SURVEY.md §1.4).

Per-tile kernels are numpy on (T, T) views — bounded memory, no
MemoryError fallbacks (the reference's tiled/per-pixel fallback
machinery at raster/data.py:482-514 and raster/manager.py:1347-1408 is
unnecessary under bounded streaming blocks).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from pythongis_ray import grid, relational as rel, state
from pythongis_ray.geom import algo, wkb
from pythongis_ray.relational import (bucketed_group_apply, map_arrow,
                                    map_pandas)

TILE = 64  # tile edge in pixels
NODATA = -9999.0

# decompression-bomb guard (PIL's MAX_IMAGE_PIXELS analogue): web
# payloads carry attacker-controlled headers; a corrupt/malicious
# size field must raise BEFORE the allocation, not OOM the worker
MAX_DECODE_PIXELS = 1 << 28          # 268M px ~ 16384x16384


def check_decode_dims(w: int, h: int, what: str = "image"):
    if w <= 0 or h <= 0 or w * h > MAX_DECODE_PIXELS:
        raise ValueError(
            f"{what} dimensions {w}x{h} outside sane decode bounds "
            f"(decompression-bomb guard, max {MAX_DECODE_PIXELS} px)")


# ------------------------------------------------------------ tile codec

def tile_to_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def bytes_to_tile(buf: bytes, t: int = TILE) -> np.ndarray:
    return np.frombuffer(buf, dtype="<f4").reshape(t, t)


def make_raster(fn, res: int = 4, bands: int = 1, t: int = TILE,
                nodata: float = NODATA) -> pd.DataFrame:
    """Build a tile table covering the world at tile-grid resolution
    ``res``; ``fn(lon2d, lat2d, band) -> value2d`` fills pixels.
    (replaces raster from_file for synthetic fixtures; GeoTIFF/ASCII
    ingest is a one-time tiling map_batches in the same shape,
    /root/reference/pythongis/raster/loader.py:35-524)."""
    nx, ny = grid.cell_dims(res)
    rows = []
    for ty in range(ny):
        for tx in range(nx):
            cell = int(grid.pack(res, np.array([tx]), np.array([ty]))[0])
            xmin, ymin, xmax, ymax = (v[0] for v in
                                      grid.cell_bounds(np.array([cell], np.uint64)))
            xs = xmin + (np.arange(t) + 0.5) * (xmax - xmin) / t
            ys = ymin + (np.arange(t) + 0.5) * (ymax - ymin) / t
            lon2, lat2 = np.meshgrid(xs, ys)
            for b in range(bands):
                rows.append({"cell_id": np.int64(np.uint64(cell).view(np.int64)),
                             "band": np.int32(b),
                             "tile": tile_to_bytes(fn(lon2, lat2, b)),
                             "nodata": nodata})
    return pd.DataFrame(rows)


# ---------------------------------------------------------- GeoTIFF I/O

_TIFF_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
                   10: 8, 11: 4, 12: 8}
_TIFF_TYPE_FMT = {1: "B", 3: "H", 4: "I", 8: "h", 9: "i", 11: "f", 12: "d"}


def _tiff_read_ifd(data: bytes, bo: str, ifd_off: int) -> dict:
    import struct

    (n,) = struct.unpack_from(bo + "H", data, ifd_off)
    tags = {}
    for i in range(n):
        off = ifd_off + 2 + i * 12
        tag, typ, cnt = struct.unpack_from(bo + "HHI", data, off)
        size = _TIFF_TYPE_SIZE.get(typ, 1) * cnt
        voff = off + 8 if size <= 4 else struct.unpack_from(bo + "I", data, off + 8)[0]
        if typ == 2:
            tags[tag] = data[voff:voff + cnt].split(b"\x00")[0].decode("ascii", "replace")
        elif typ in _TIFF_TYPE_FMT:
            vals = struct.unpack_from(bo + str(cnt) + _TIFF_TYPE_FMT[typ], data, voff)
            tags[tag] = vals[0] if cnt == 1 else vals
        elif typ == 5:  # RATIONAL
            vals = struct.unpack_from(bo + str(2 * cnt) + "I", data, voff)
            tags[tag] = tuple(vals[j] / vals[j + 1] for j in range(0, 2 * cnt, 2))
    return tags


# --------------------------------------------------------- TIFF codecs
#
# Pure-Python/zlib codecs from the public TIFF 6.0 spec so compressed
# GeoTIFFs read without PIL (the reference gets these free via PIL,
# /root/reference/pythongis/raster/loader.py:419-524). Deflate is
# zlib; LZW uses libtiff's "early change" code widths; PackBits is
# the Apple RLE. Predictor tag 317 value 2 (horizontal differencing)
# is undone with one cumsum per segment.

def _lzw_decode(buf: bytes) -> bytes:
    """TIFF-variant LZW (MSB-first codes, Clear=256, EOI=257, 9→12-bit
    widths with libtiff early change)."""
    out = bytearray()
    CLEAR, EOI = 256, 257
    width = 9
    bitpos = 0
    nbits = len(buf) * 8
    table: list[bytes] = []
    prev = b""

    def read_code():
        nonlocal bitpos
        if bitpos + width > nbits:
            return EOI
        b0 = bitpos >> 3
        shift = bitpos & 7
        v = int.from_bytes(buf[b0:b0 + 4].ljust(4, b"\x00"), "big")
        bitpos += width
        return (v >> (32 - shift - width)) & ((1 << width) - 1)

    while True:
        code = read_code()
        if code == EOI:
            break
        if code == CLEAR:
            table = [bytes([i]) for i in range(256)] + [b"", b""]
            width = 9
            code = read_code()
            if code == EOI:
                break
            entry = table[code]
            out += entry
            prev = entry
            continue
        if code < len(table):
            entry = table[code]
        elif code == len(table):
            entry = prev + prev[:1]
        else:
            raise ValueError("corrupt LZW stream")
        out += entry
        table.append(prev + entry[:1])
        prev = entry
        # early change, decoder side: the decoder's table lags the
        # encoder's by one entry, so it widens at 2^n - 2 where the
        # encoder widens at 2^n - 1 (libtiff LZWDecode rule)
        if len(table) == (1 << width) - 2 and width < 12:
            width += 1
    return bytes(out)


def _lzw_encode(data: bytes) -> bytes:
    """TIFF LZW encoder symmetric with :func:`_lzw_decode`."""
    CLEAR, EOI = 256, 257
    out = bytearray()
    acc = 0
    nacc = 0
    width = 9

    def emit(code):
        nonlocal acc, nacc
        acc = (acc << width) | code
        nacc += width
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)

    def reset():
        nonlocal width
        width = 9
        return {bytes([i]): i for i in range(256)}, 258

    emit(CLEAR)
    table, next_code = reset()
    w = b""
    for ch in data:
        wc = w + bytes([ch])
        if wc in table:
            w = wc
            continue
        emit(table[w])
        table[wc] = next_code
        next_code += 1
        if next_code == (1 << width) - 1:
            if width < 12:
                width += 1
            else:
                emit(CLEAR)
                table, next_code = reset()
        w = bytes([ch])
    if w:
        emit(table[w])
    emit(EOI)
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _packbits_decode(buf: bytes) -> bytes:
    out = bytearray()
    i = 0
    L = len(buf)
    while i < L:
        n = buf[i]
        i += 1
        if n < 128:
            out += buf[i:i + n + 1]
            i += n + 1
        elif n > 128:
            out += buf[i:i + 1] * (257 - n)
            i += 1
    return bytes(out)


def _packbits_encode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    L = len(data)
    while i < L:
        if i + 1 < L and data[i] == data[i + 1]:
            j = i
            while j + 1 < L and data[j] == data[j + 1] and j - i < 127:
                j += 1
            out.append(257 - (j - i + 1))
            out.append(data[i])
            i = j + 1
        else:
            j = i
            while j < L and j - i < 128:
                if j + 2 < L and data[j] == data[j + 1] == data[j + 2]:
                    break
                j += 1
            out.append(j - i - 1)
            out += data[i:j]
            i = j
    return bytes(out)


_TIFF_COMP_NONE = 1
_TIFF_COMP_LZW = 5
_TIFF_COMP_DEFLATE = 8
_TIFF_COMP_DEFLATE_OLD = 32946
_TIFF_COMP_PACKBITS = 32773


def _tiff_decompress(seg: bytes, comp: int) -> bytes:
    if comp == _TIFF_COMP_NONE:
        return seg
    if comp in (_TIFF_COMP_DEFLATE, _TIFF_COMP_DEFLATE_OLD):
        import zlib
        return zlib.decompress(seg)
    if comp == _TIFF_COMP_LZW:
        return _lzw_decode(seg)
    if comp == _TIFF_COMP_PACKBITS:
        return _packbits_decode(seg)
    raise NotImplementedError(f"GeoTIFF compression {comp} unsupported")


def _undo_predictor(a: np.ndarray, predictor: int) -> np.ndarray:
    """Undo horizontal differencing (tag 317 value 2) in place-ish."""
    if predictor in (0, 1):
        return a
    if predictor != 2:
        raise NotImplementedError(f"TIFF predictor {predictor} unsupported")
    if not np.issubdtype(a.dtype, np.integer):
        raise NotImplementedError("predictor=2 on non-integer samples")
    u = a.view(np.dtype(f"u{a.dtype.itemsize}"))
    np.cumsum(u, axis=1, dtype=u.dtype, out=u)
    return a


def read_geotiff(path: str):
    """Minimal GeoTIFF reader from the public TIFF 6.0 + GeoTIFF specs
    (the reference reads these via PIL,
    /root/reference/pythongis/raster/loader.py:35-524, including
    multiband via mode/band split at loader.py:236-334): strips or
    tiles, none/deflate/LZW/PackBits compression (+ horizontal
    predictor), 8/16/32-bit int/uint/float, ANY SamplesPerPixel in
    chunky (PlanarConfiguration=1, interleaved) or planar (=2)
    layout. Georeferencing from ModelPixelScale+ModelTiepoint
    (33550/33922) or ModelTransformation (34264); nodata from GDAL
    tag 42113.

    Returns (array, meta): (h, w) float64 for 1 sample/pixel,
    (bands, h, w) float64 for multiband (e.g. RGB); meta has
    ``transform`` = (x0, px, y0, py) with lon = x0 + (col+0.5)*px,
    lat = y0 - (row+0.5)*py, ``nodata`` and ``bands``."""
    with open(path, "rb") as f:
        data = f.read()
    return decode_tiff_bytes(data)


def decode_tiff_bytes(data: bytes):
    """TIFF/GeoTIFF bytes → (array, meta); the in-memory core of
    :func:`read_geotiff` (also the multimodal TIFF decode kernel)."""
    import struct

    bo = "<" if data[:2] == b"II" else ">"
    (ifd_off,) = struct.unpack_from(bo + "I", data, 4)
    t = _tiff_read_ifd(data, bo, ifd_off)
    w, h = int(t[256]), int(t[257])
    check_decode_dims(w, h, "TIFF")
    comp = int(t.get(259, 1))
    predictor = int(t.get(317, 1))
    spp = int(t.get(277, 1))
    planar = int(t.get(284, 1))
    bits = int(t[258]) if not isinstance(t.get(258), tuple) else int(t[258][0])
    sfmt = int(t.get(339, 1)) if not isinstance(t.get(339), tuple) else int(t[339][0])
    dt = {(1, 8): "u1", (1, 16): "u2", (1, 32): "u4",
          (2, 8): "i1", (2, 16): "i2", (2, 32): "i4",
          (3, 32): "f4", (3, 64): "f8"}.get((sfmt, bits))
    if dt is None:
        raise NotImplementedError(f"sample_format={sfmt} bits={bits}")
    dtype = np.dtype(bo + dt)
    native = dtype.newbyteorder("=")
    # samples interleaved per pixel within a segment row (chunky) or
    # one sample per segment (planar / single-band)
    seg_spp = spp if planar == 1 else 1

    def segment(so: int, nbytes: int, rows: int, cols: int) -> np.ndarray:
        n_samp = rows * cols * seg_spp
        if comp == _TIFF_COMP_NONE:
            a = np.frombuffer(data, dtype, n_samp, so)
        else:
            raw = _tiff_decompress(data[so:so + nbytes], comp)
            a = np.frombuffer(raw, dtype, n_samp)
        a = a.reshape(rows, cols, seg_spp) if seg_spp > 1 \
            else a.reshape(rows, cols)
        if predictor != 1:
            # horizontal differencing runs per sample CHANNEL along
            # the row (TIFF 6.0 §14) — the 3-D reshape keeps channels
            # on their own axis so the cumsum never crosses channels
            a = _undo_predictor(a.astype(native), predictor)
        return a

    if seg_spp > 1:
        arr = np.empty((h, w, spp), dtype=native)
    elif planar == 2 and spp > 1:
        arr = np.empty((spp, h, w), dtype=native)
    else:
        arr = np.empty((h, w), dtype=native)
    if 322 in t:  # tiled layout
        tw, th = int(t[322]), int(t[323])
        offs = t[324] if isinstance(t[324], tuple) else (t[324],)
        cnts = (t.get(325) if isinstance(t.get(325), tuple)
                else (t.get(325, len(data)),))
        ntx = (w + tw - 1) // tw
        nty = (h + th - 1) // th
        per_band = ntx * nty
        i = 0
        for b in range(spp if planar == 2 else 1):
            for ty in range(0, h, th):
                for tx in range(0, w, tw):
                    tile = segment(offs[i],
                                   int(cnts[i] if i < len(cnts) else cnts[-1]),
                                   th, tw)
                    view = tile[:min(th, h - ty), :min(tw, w - tx)]
                    if planar == 2 and spp > 1:
                        arr[b, ty:ty + th, tx:tx + tw] = view
                    else:
                        arr[ty:ty + th, tx:tx + tw] = view
                    i += 1
        del per_band
    else:  # strips
        rps = int(t.get(278, h))
        offs = t[273] if isinstance(t[273], tuple) else (t[273],)
        cnts = (t.get(279) if isinstance(t.get(279), tuple)
                else (t.get(279, len(data)),))
        spb = (h + rps - 1) // rps         # strips per band (planar)
        for i, so in enumerate(offs):
            nb = int(cnts[i] if i < len(cnts) else cnts[-1])
            if planar == 2 and spp > 1:
                b, si = divmod(i, spb)
                r0 = si * rps
                nr = min(rps, h - r0)
                arr[b, r0:r0 + nr] = segment(so, nb, nr, w)
            else:
                r0 = i * rps
                nr = min(rps, h - r0)
                arr[r0:r0 + nr] = segment(so, nb, nr, w)
    if seg_spp > 1:                        # chunky → (bands, h, w)
        arr = np.moveaxis(arr, 2, 0)
    if spp == 1 and arr.ndim == 3:
        arr = arr[0]
    nodata = float(t[42113]) if 42113 in t else None
    if 33550 in t and 33922 in t:
        sx, sy = t[33550][0], abs(t[33550][1])
        i_, j_, _, gx, gy, _ = t[33922][:6]
        x0 = gx - i_ * sx
        y0 = gy + j_ * sy
        transform = (x0, sx, y0, sy)
    elif 34264 in t:
        m = t[34264]
        # affine without rotation: x = m0*col + m3 ; y = m5*row + m7
        transform = (m[3], m[0], m[7], -m[5])
    else:
        transform = (0.0, 1.0, float(h), 1.0)
    return arr.astype(np.float64), {"transform": transform, "nodata": nodata,
                                    "width": w, "height": h, "bands": spp}


def read_ascii_grid(path: str):
    """ESRI ASCII grid reader (reference semantics,
    /root/reference/pythongis/raster/loader.py:88-218): ncols/nrows,
    xllcorner|xllcenter, yllcorner|yllcenter, cellsize, optional
    nodata_value (default -9999.0); cells are whitespace-separated
    and NOT necessarily one row per line. Returns (array (h, w)
    float64, meta) with the same contract as ``read_geotiff``:
    transform = (x0, px, y0, py), lon = x0 + (col+0.5)*px,
    lat = y0 - (row+0.5)*py."""
    with open(path) as f:
        text = f.read()
    toks = text.split()
    hdr: dict[str, float] = {}
    i = 0
    while i + 1 < len(toks):
        key = toks[i].lower()
        if key in ("ncols", "nrows", "xllcorner", "xllcenter",
                   "yllcorner", "yllcenter", "cellsize",
                   "nodata_value"):
            hdr[key] = float(toks[i + 1])
            i += 2
        else:
            break
    w, h = int(hdr["ncols"]), int(hdr["nrows"])
    cs = float(hdr["cellsize"])
    nodata = hdr.get("nodata_value", -9999.0)
    vals = np.array(toks[i:], dtype=np.float64)
    if len(vals) != w * h:
        raise ValueError(f"ascii grid: expected {w*h} cells, "
                         f"got {len(vals)}")
    # normalize corner/center anchors into the x0/y0 edge convention
    if "xllcorner" in hdr:
        x0 = hdr["xllcorner"]
    else:
        x0 = hdr["xllcenter"] - cs / 2.0
    if "yllcorner" in hdr:
        y0 = hdr["yllcorner"] + h * cs
    else:
        y0 = hdr["yllcenter"] - cs / 2.0 + h * cs
    arr = vals.reshape(h, w)
    return arr, {"transform": (x0, cs, y0, cs), "nodata": nodata,
                 "width": w, "height": h}


def write_ascii_grid(path: str, arr: np.ndarray, transform,
                     nodata: float = -9999.0):
    """ESRI ASCII grid writer (XLLCORNER/YLLCORNER convention —
    byte-exact round trip through %.17g). Mirrors the reference's
    square-cell requirement (saver.py:65)."""
    x0, px, y0, py = transform
    if px != py:
        raise ValueError("ascii grid requires square cells "
                         "(xscale == yscale)")
    h, w = arr.shape
    # the format stores the BOTTOM edge but the engine's transform
    # anchors on the top edge: pick the representable yll whose
    # yll + h*cs reconstructs y0 EXACTLY (the naive y0 - h*py can be
    # 1 ulp off after the reader adds h*cs back)
    yll = y0 - h * py
    if yll + h * py != y0:
        for _ in range(4):
            yll = np.nextafter(yll, yll + (y0 - (yll + h * py)))
            if yll + h * py == y0:
                break
    with open(path, "w") as f:
        f.write(f"NCOLS {w}\nNROWS {h}\n")
        f.write(f"XLLCORNER {x0!r}\nYLLCORNER {yll!r}\n")
        f.write(f"CELLSIZE {px!r}\nNODATA_VALUE {nodata!r}\n")
        for row in arr:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def ascii_grid_to_tiles(path: str, res: int = 4, t: int = TILE,
                        nodata: float = NODATA) -> pd.DataFrame:
    """ASCII grid → the engine's world tile table (same nearest
    sampling as geotiff_to_tiles)."""
    return _grid_to_tiles(read_ascii_grid(path), res, t, nodata)


def geotiff_to_tiles(path: str, res: int = 4, t: int = TILE,
                     nodata: float = NODATA) -> pd.DataFrame:
    """GeoTIFF → the engine's world tile table by nearest sampling of
    each tile pixel center from the source grid (the from_file half of
    reference raster loader; resample semantics = 'nearest')."""
    return _grid_to_tiles(read_geotiff(path), res, t, nodata)


def _grid_to_tiles(arr_meta, res: int, t: int,
                   nodata: float) -> pd.DataFrame:
    arr, meta = arr_meta
    x0, px, y0, py = meta["transform"]
    src_nd = meta["nodata"]
    nb = arr.shape[0] if arr.ndim == 3 else 1

    def fill(lon2, lat2, band):
        src = arr if arr.ndim == 2 else arr[band]
        col = np.floor((lon2 - x0) / px).astype(np.int64)
        row = np.floor((y0 - lat2) / py).astype(np.int64)
        ok = (col >= 0) & (col < meta["width"]) & (row >= 0) & (row < meta["height"])
        out = np.full(lon2.shape, nodata, dtype=np.float64)
        v = src[row[ok], col[ok]]
        if src_nd is not None:
            v = np.where(v == src_nd, nodata, v)
        out[ok] = v
        return out.astype(np.float32)

    return make_raster(fill, res=res, t=t, nodata=nodata, bands=nb)


_WRITE_COMP_CODES = {None: _TIFF_COMP_NONE, "none": _TIFF_COMP_NONE,
                     "deflate": _TIFF_COMP_DEFLATE, "lzw": _TIFF_COMP_LZW,
                     "packbits": _TIFF_COMP_PACKBITS}


def write_geotiff(path: str, arr: np.ndarray, transform,
                  nodata: float | None = None,
                  compression: str | None = None):
    """Minimal GeoTIFF writer (one-strip, float32/int32/uint8/int16/
    uint16; single band (h, w) or multiband (bands, h, w) chunky
    interleave with RGB photometric for 3 bands; ``compression``:
    None | 'deflate' | 'lzw' | 'packbits'): ModelPixelScale +
    ModelTiepoint + GDAL nodata tags — round-trips through
    :func:`read_geotiff` (reference raster/saver.py:10-187 writes via
    PIL tiffinfo)."""
    import struct

    arr = np.asarray(arr)
    multi = arr.ndim == 3
    if multi:
        spp, h, w = arr.shape
        pix = np.moveaxis(arr, 0, 2)       # chunky interleave (h, w, spp)
    else:
        spp = 1
        h, w = arr.shape
        pix = arr
    if pix.dtype == np.float64:
        pix = pix.astype(np.float32)
    dt_map = {np.dtype("float32"): (32, 3), np.dtype("int32"): (32, 2),
              np.dtype("uint8"): (8, 1), np.dtype("int16"): (16, 2),
              np.dtype("uint16"): (16, 1)}
    if pix.dtype not in dt_map:
        raise NotImplementedError(f"dtype {pix.dtype}")
    bits, sfmt = dt_map[pix.dtype]
    comp_code = _WRITE_COMP_CODES[compression]
    x0, px, y0, py = transform
    data = np.ascontiguousarray(pix).astype(
        pix.dtype.newbyteorder("<")).tobytes()
    if comp_code == _TIFF_COMP_DEFLATE:
        import zlib
        data = zlib.compress(data)
    elif comp_code == _TIFF_COMP_LZW:
        data = _lzw_encode(data)
    elif comp_code == _TIFF_COMP_PACKBITS:
        data = _packbits_encode(data)
    if nodata is not None:
        nd_ascii = f"{nodata}".encode() + b"\x00"
        if len(nd_ascii) <= 4:
            # TIFF 6.0 inlines values ≤ 4 bytes in the entry's value
            # field; pad so the value always lives at an offset and
            # the reader's inline/offset rule stays consistent
            nd_ascii += b"\x00" * (5 - len(nd_ascii))
    else:
        nd_ascii = b""
    scale = struct.pack("<3d", px, py, 0.0)
    tiepoint = struct.pack("<6d", 0.0, 0.0, 0.0, x0, y0, 0.0)
    # per-sample BitsPerSample/SampleFormat arrays live at offsets only
    # when they exceed the 4-byte inline slot (TIFF 6.0 inline rule):
    # spp=2 packs two SHORTs into the value field, spp>=3 needs a blob
    bits_blob = struct.pack(f"<{spp}H", *([bits] * spp)) if spp > 2 else b""
    sfmt_blob = struct.pack(f"<{spp}H", *([sfmt] * spp)) if spp > 2 else b""
    ntags = (12 if nodata is not None else 11) + (1 if spp > 1 else 0)
    hdr_len = 8
    ifd_len = 2 + ntags * 12 + 4
    data_off = hdr_len + ifd_len
    scale_off = data_off + len(data)
    tie_off = scale_off + len(scale)
    bits_off = tie_off + len(tiepoint)
    sfmt_off = bits_off + len(bits_blob)
    nd_off = sfmt_off + len(sfmt_blob)
    photometric = 2 if spp == 3 else 1     # RGB for 3-band, else gray
    entries = [
        (256, 3, 1, w), (257, 3, 1, h),
        (258, 3, spp, bits if spp == 1
         else (bits | (bits << 16)) if spp == 2 else bits_off),
        (259, 3, 1, comp_code),
        (262, 3, 1, photometric), (273, 4, 1, data_off), (278, 3, 1, h),
        (279, 4, 1, len(data)),
        (339, 3, spp, sfmt if spp == 1
         else (sfmt | (sfmt << 16)) if spp == 2 else sfmt_off),
        (33550, 12, 3, scale_off),
    ]
    if spp > 1:
        entries.append((277, 3, 1, spp))
    entries.append((33922, 12, 6, tie_off))
    if nodata is not None:
        entries.append((42113, 2, len(nd_ascii), nd_off))
    entries.sort()
    with open(path, "wb") as f:
        f.write(b"II*\x00" + struct.pack("<I", 8))
        f.write(struct.pack("<H", len(entries)))
        for tag, typ, cnt, val in entries:
            f.write(struct.pack("<HHII", tag, typ, cnt, val))
        f.write(struct.pack("<I", 0))
        f.write(data)
        f.write(scale)
        f.write(tiepoint)
        f.write(bits_blob)
        f.write(sfmt_blob)
        if nodata is not None:
            f.write(nd_ascii)
    return path


# ------------------------------------------------------- .prj sidecars

_WKT_WGS84 = ('GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",'
              '6378137,298.257223563]],PRIMEM["Greenwich",0],'
              'UNIT["degree",0.0174532925199433]]')


def crs_wkt(crs: str) -> str:
    """Canonical CRS token → WKT1 for a .prj sidecar. Tokens:
    ``wgs84`` | ``webmercator`` | ``utm:<zone>[N|S]`` |
    ``laea:<lon0>,<lat0>`` — the projections this engine actually
    computes (vector.reproject / geom.proj); the reference writes
    arbitrary pyproj CRSes (absent here)."""
    if crs == "wgs84":
        return _WKT_WGS84
    if crs == "webmercator":
        return ('PROJCS["WGS 84 / Pseudo-Mercator",' + _WKT_WGS84 + ","
                'PROJECTION["Mercator_1SP"],'
                'PARAMETER["central_meridian",0],'
                'PARAMETER["scale_factor",1],'
                'PARAMETER["false_easting",0],'
                'PARAMETER["false_northing",0],UNIT["metre",1]]')
    if crs.startswith("utm:"):
        z = crs[4:].rstrip("NS")
        south = crs.endswith("S")
        from pythongis_ray.geom import proj as _proj
        lon0 = _proj.utm_zone_lon0(int(z))
        return (f'PROJCS["WGS 84 / UTM zone {z}{"S" if south else "N"}",'
                + _WKT_WGS84 + ',PROJECTION["Transverse_Mercator"],'
                'PARAMETER["latitude_of_origin",0],'
                f'PARAMETER["central_meridian",{lon0:g}],'
                'PARAMETER["scale_factor",0.9996],'
                'PARAMETER["false_easting",500000],'
                f'PARAMETER["false_northing",{10000000 if south else 0}],'
                'UNIT["metre",1]]')
    if crs.startswith("laea:"):
        lon0, lat0 = (float(v) for v in crs[5:].split(","))
        return ('PROJCS["Lambert Azimuthal Equal Area",' + _WKT_WGS84 + ","
                'PROJECTION["Lambert_Azimuthal_Equal_Area"],'
                f'PARAMETER["latitude_of_center",{lat0:g}],'
                f'PARAMETER["longitude_of_center",{lon0:g}],'
                'PARAMETER["false_easting",0],'
                'PARAMETER["false_northing",0],UNIT["metre",1]]')
    if crs.startswith("albers:"):
        lon0, lat0, lat1, lat2 = (float(v) for v in crs[7:].split(","))
        return ('PROJCS["Albers Equal Area Conic",' + _WKT_WGS84 + ","
                'PROJECTION["Albers_Conic_Equal_Area"],'
                f'PARAMETER["latitude_of_center",{lat0:g}],'
                f'PARAMETER["longitude_of_center",{lon0:g}],'
                f'PARAMETER["standard_parallel_1",{lat1:g}],'
                f'PARAMETER["standard_parallel_2",{lat2:g}],'
                'PARAMETER["false_easting",0],'
                'PARAMETER["false_northing",0],UNIT["metre",1]]')
    if crs.startswith("lcc:"):
        lon0, lat0, lat1, lat2 = (float(v) for v in crs[4:].split(","))
        return ('PROJCS["Lambert Conformal Conic 2SP",' + _WKT_WGS84 + ","
                'PROJECTION["Lambert_Conformal_Conic_2SP"],'
                f'PARAMETER["latitude_of_origin",{lat0:g}],'
                f'PARAMETER["central_meridian",{lon0:g}],'
                f'PARAMETER["standard_parallel_1",{lat1:g}],'
                f'PARAMETER["standard_parallel_2",{lat2:g}],'
                'PARAMETER["false_easting",0],'
                'PARAMETER["false_northing",0],UNIT["metre",1]]')
    if crs.startswith("moll:"):
        lon0 = float(crs[5:])
        return ('PROJCS["Mollweide",' + _WKT_WGS84 + ","
                'PROJECTION["Mollweide"],'
                f'PARAMETER["central_meridian",{lon0:g}],'
                'PARAMETER["false_easting",0],'
                'PARAMETER["false_northing",0],UNIT["metre",1]]')
    raise ValueError(f"unsupported crs token {crs!r}")


def parse_wkt(wkt: str) -> dict:
    """WKT1 CRS string → structured node tree
    ``{"name": keyword, "values": [str | float | node, ...]}`` —
    a PARSER, not a transformer (the reference carries arbitrary
    pycrs CRSes, /root/reference/pythongis/vector/data.py:503-511;
    pycrs is absent here, so foreign ``.prj`` sidecars round-trip
    structurally instead of erroring)."""
    s = wkt.strip()
    pos = 0

    def node():
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in "[(":
            pos += 1
        name = s[start:pos].strip()
        pos += 1                           # consume the [ or (
        values = []
        while True:
            while pos < len(s) and s[pos] in ", \t\r\n":
                pos += 1
            if pos >= len(s):
                raise ValueError("unterminated WKT node")
            ch = s[pos]
            if ch in ")]":
                pos += 1
                return {"name": name, "values": values}
            if ch == '"':
                end = s.index('"', pos + 1)
                values.append(s[pos + 1:end])
                pos = end + 1
            else:
                start = pos
                while pos < len(s) and s[pos] not in ",])":
                    pos += 1
                tok = s[start:pos].strip()
                if any(c in tok for c in "[("):
                    pos = start
                    values.append(node())
                else:
                    try:
                        values.append(float(tok))
                    except ValueError:
                        values.append(tok)
        # unreachable

    return node()


def format_wkt(node: dict) -> str:
    """Inverse of :func:`parse_wkt` (canonical minified WKT1)."""
    vals = []
    for v in node["values"]:
        if isinstance(v, dict):
            vals.append(format_wkt(v))
        elif isinstance(v, float):
            vals.append(f"{int(v)}" if v == int(v) and abs(v) < 1e15
                        else repr(v))
        else:
            vals.append(f'"{v}"')
    return f'{node["name"]}[{",".join(vals)}]'


def write_prj(path: str, crs: str) -> str:
    with open(path, "w") as f:
        if crs.startswith("wkt:"):         # foreign CRS round-trip
            f.write(crs[4:])
        else:
            f.write(crs_wkt(crs))
    return path


def read_prj(path: str) -> str:
    """.prj WKT → canonical CRS token (recognizes the engine's CRSes;
    raises on anything else so callers fail loudly instead of
    silently misprojecting)."""
    import re

    wkt = open(path).read()
    if "Pseudo-Mercator" in wkt or "Mercator_1SP" in wkt:
        return "webmercator"
    m = re.search(r"UTM zone (\d+)(N|S)", wkt)
    if m:
        return f"utm:{m.group(1)}{m.group(2)}"
    if "Transverse_Mercator" in wkt:
        cm = re.search(r'central_meridian"?\s*,\s*(-?[\d.]+)', wkt)
        zone = int(round((float(cm.group(1)) + 183.0) / 6.0))
        south = re.search(r'false_northing"?\s*,\s*10000000', wkt)
        return f"utm:{zone}{'S' if south else 'N'}"
    if "Lambert_Azimuthal_Equal_Area" in wkt:
        lat0 = re.search(r'latitude_of_center"?\s*,\s*(-?[\d.]+)', wkt)
        lon0 = re.search(r'longitude_of_center"?\s*,\s*(-?[\d.]+)', wkt)
        return f"laea:{float(lon0.group(1)):g},{float(lat0.group(1)):g}"
    if '"Mollweide"' in wkt:
        lon0 = re.search(r'central_meridian"?\s*,\s*(-?[\d.]+)', wkt)
        return f"moll:{float(lon0.group(1)):g}"
    if "Albers_Conic_Equal_Area" in wkt or "Lambert_Conformal_Conic" in wkt:
        lat0 = re.search(r'latitude_of_(?:center|origin)"?\s*,\s*(-?[\d.]+)',
                         wkt)
        lon0 = re.search(
            r'(?:longitude_of_center|central_meridian)"?\s*,\s*(-?[\d.]+)',
            wkt)
        sp1 = re.search(r'standard_parallel_1"?\s*,\s*(-?[\d.]+)', wkt)
        sp2 = re.search(r'standard_parallel_2"?\s*,\s*(-?[\d.]+)', wkt)
        if lat0 and lon0 and sp1:
            kind = ("albers" if "Albers_Conic_Equal_Area" in wkt else "lcc")
            p2 = float(sp2.group(1)) if sp2 else float(sp1.group(1))
            return (f"{kind}:{float(lon0.group(1)):g},"
                    f"{float(lat0.group(1)):g},"
                    f"{float(sp1.group(1)):g},{p2:g}")
    if "GEOGCS" in wkt and "WGS" in wkt and "PROJCS" not in wkt:
        return "wgs84"
    # foreign CRS: carry it structurally (parse → canonical WKT) so
    # the sidecar round-trips instead of erroring; projecting through
    # it still fails loudly in _proj_pair / crs_wkt
    return "wkt:" + format_wkt(parse_wkt(wkt))


def read_world_file(path: str):
    """.wld/.tfw sidecar → (x0, px, y0, py) center-anchored transform
    (reference world-file support, raster/loader.py 'worldfile')."""
    vals = [float(tok) for tok in open(path).read().split()]
    a, _, _, e, cx, cy = vals[:6]
    return (cx - a / 2, a, cy - e / 2, -e)


def write_world_file(path: str, transform):
    x0, px, y0, py = transform
    with open(path, "w") as f:
        f.write(f"{px}\n0.0\n0.0\n{-py}\n{x0 + px / 2}\n{y0 - py / 2}\n")


# ------------------------------------------------------------ PNG codec
#
# Pure-zlib PNG from the public spec (RFC 2083): the reference reads
# any PIL image + world file as a raster
# (/root/reference/pythongis/raster/loader.py:39-86,420-470); PIL is
# absent here, so 8-bit gray/RGB/RGBA/palette PNGs decode natively.

def _png_unfilter(raw: bytes, h: int, rowbytes: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters 0-4. None/Sub/Up are vectorized
    (Sub is a per-channel modular cumsum); Average/Paeth are
    inherently sequential along x and run on bytearrays."""
    out = np.empty((h, rowbytes), np.uint8)
    prev = np.zeros(rowbytes, np.uint8)
    pos = 0
    for y in range(h):
        ft = raw[pos]
        pos += 1
        row = np.frombuffer(raw, np.uint8, rowbytes, pos).copy()
        pos += rowbytes
        if ft == 0:
            rec = row
        elif ft == 1:                      # Sub: recon[x] += recon[x-bpp]
            r2 = row.reshape(-1, bpp)
            np.cumsum(r2, axis=0, dtype=np.uint8, out=r2)
            rec = row
        elif ft == 2:                      # Up (uint8 add wraps mod 256)
            rec = row + prev
        elif ft == 3:                      # Average
            rb = bytearray(rowbytes)
            pv = prev.tolist()
            rw = row.tolist()
            for i in range(rowbytes):
                left = rb[i - bpp] if i >= bpp else 0
                rb[i] = (rw[i] + ((left + pv[i]) >> 1)) & 0xFF
            rec = np.frombuffer(bytes(rb), np.uint8)
        elif ft == 4:                      # Paeth
            rb = bytearray(rowbytes)
            pv = prev.tolist()
            rw = row.tolist()
            for i in range(rowbytes):
                a = rb[i - bpp] if i >= bpp else 0
                b = pv[i]
                c = pv[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa_ = p - a if p >= a else a - p
                pb_ = p - b if p >= b else b - p
                pc_ = p - c if p >= c else c - p
                if pa_ <= pb_ and pa_ <= pc_:
                    pred = a
                elif pb_ <= pc_:
                    pred = b
                else:
                    pred = c
                rb[i] = (rw[i] + pred) & 0xFF
            rec = np.frombuffer(bytes(rb), np.uint8)
        else:
            raise NotImplementedError(f"PNG filter {ft}")
        out[y] = rec
        prev = out[y]
    return out


PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def decode_png_bytes(data: bytes) -> np.ndarray:
    """8-bit non-interlaced PNG bytes → (h, w, channels) uint8 pixel
    array (palette expanded to RGB). The byte-level decode behind
    :func:`read_png` — also the REAL image-decode kernel for
    multimodal PNG payloads (no PIL in this container)."""
    import struct
    import zlib

    if data[:8] != PNG_MAGIC:
        raise ValueError("not a PNG")
    pos = 8
    idat = []
    plte = None
    w = h = depth = ctype = inter = None
    while pos + 8 <= len(data):
        ln, typ = struct.unpack_from(">I4s", data, pos)
        chunk = data[pos + 8:pos + 8 + ln]
        if typ == b"IHDR":
            w, h, depth, ctype, _, _, inter = struct.unpack(">IIBBBBB", chunk)
            check_decode_dims(w, h, "PNG")
        elif typ == b"PLTE":
            plte = np.frombuffer(chunk, np.uint8).reshape(-1, 3)
        elif typ == b"IDAT":
            idat.append(chunk)
        elif typ == b"IEND":
            break
        pos += 12 + ln
    if inter != 0:
        raise NotImplementedError("interlaced PNG")
    if depth != 8:
        raise NotImplementedError(f"PNG bit depth {depth}")
    nch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[ctype]
    raw = zlib.decompress(b"".join(idat))
    px = _png_unfilter(raw, h, w * nch, nch).reshape(h, w, nch)
    if ctype == 3:
        px = plte[px[:, :, 0]]             # palette → RGB
    return px


def read_png(path: str):
    """8-bit non-interlaced PNG → (array, meta). Gray → (h, w);
    RGB/RGBA/palette → (bands, h, w). Georeferencing from a ``.wld``/
    ``.pgw`` world-file sidecar when present (reference
    check_world_file, raster/loader.py:39-86), else pixel coords."""
    import os

    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != PNG_MAGIC:
        raise ValueError(f"{path}: not a PNG")
    px = decode_png_bytes(data)
    h, w, bands = px.shape
    arr = px[:, :, 0].astype(np.float64) if bands == 1 \
        else np.moveaxis(px, 2, 0).astype(np.float64)
    transform = None
    stem = os.path.splitext(path)[0]
    for cand in (stem + ".wld", stem + ".pgw"):
        if os.path.exists(cand):
            transform = read_world_file(cand)
            break
    if transform is None:
        transform = (0.0, 1.0, float(h), 1.0)
    return arr, {"transform": transform, "nodata": None,
                 "width": w, "height": h, "bands": bands}


def encode_png_bytes(px: np.ndarray) -> bytes:
    """(h, w, channels) uint8 pixel array → 8-bit PNG bytes (filter 0
    scanlines, zlib)."""
    import struct
    import zlib

    px = np.asarray(px, np.uint8)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, nch = px.shape
    ctype = {1: 0, 2: 4, 3: 2, 4: 6}[nch]
    body = np.concatenate(
        [np.zeros((h, 1), np.uint8),       # filter byte 0 per scanline
         px.reshape(h, w * nch)], axis=1).tobytes()

    def chunk(typ: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + typ + payload
                + struct.pack(">I", zlib.crc32(typ + payload) & 0xFFFFFFFF))

    return (PNG_MAGIC
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, ctype,
                                         0, 0, 0))
            + chunk(b"IDAT", zlib.compress(body))
            + chunk(b"IEND", b""))


def write_png(path: str, arr: np.ndarray, transform=None):
    """8-bit PNG writer (gray (h, w) or multiband (bands, h, w) with
    2→gray+alpha, 3→RGB, 4→RGBA). Writes a ``.wld`` sidecar when
    ``transform`` is given."""
    import os

    arr = np.asarray(arr)
    px = arr.astype(np.uint8) if arr.ndim == 2 \
        else np.moveaxis(arr.astype(np.uint8), 0, 2)
    with open(path, "wb") as f:
        f.write(encode_png_bytes(px))
    if transform is not None:
        write_world_file(os.path.splitext(path)[0] + ".wld", transform)
    return path


def png_to_tiles(path: str, res: int = 4, t: int = TILE,
                 nodata: float = NODATA) -> pd.DataFrame:
    """PNG + world file → the engine's tile table (one row per band,
    same nearest sampling as geotiff_to_tiles)."""
    return _grid_to_tiles(read_png(path), res, t, nodata)


def read_jpg(path: str):
    """Baseline JPEG → (array, meta) via the clean-room T.81 codec
    (pythongis_ray.jpeg — no PIL). Gray → (h, w); RGB → (bands, h, w).
    Georeferencing from a ``.jgw``/``.wld`` world-file sidecar when
    present (reference check_world_file, raster/loader.py:39-86),
    else pixel coords."""
    import os

    from pythongis_ray import jpeg as _jpeg

    with open(path, "rb") as f:
        data = f.read()
    if data[:3] != _jpeg.JPEG_MAGIC:
        raise ValueError(f"{path}: not a JPEG")
    px = _jpeg.decode_jpeg_bytes(data)
    h, w, bands = px.shape
    arr = px[:, :, 0].astype(np.float64) if bands == 1 \
        else np.moveaxis(px, 2, 0).astype(np.float64)
    transform = None
    stem = os.path.splitext(path)[0]
    for cand in (stem + ".jgw", stem + ".wld"):
        if os.path.exists(cand):
            transform = read_world_file(cand)
            break
    if transform is None:
        transform = (0.0, 1.0, float(h), 1.0)
    return arr, {"transform": transform, "nodata": None,
                 "width": w, "height": h, "bands": bands}


def write_jpg(path: str, arr: np.ndarray, transform=None,
              quality: int = 90):
    """Baseline JPEG writer (gray (h, w) or 3-band (3, h, w) RGB).
    Writes a ``.jgw`` sidecar when ``transform`` is given. Lossy —
    round-trips are approximate, unlike PNG/GeoTIFF."""
    import os

    from pythongis_ray import jpeg as _jpeg

    arr = np.asarray(arr)
    px = arr.astype(np.uint8) if arr.ndim == 2 \
        else np.moveaxis(arr.astype(np.uint8), 0, 2)
    with open(path, "wb") as f:
        f.write(_jpeg.encode_jpeg_bytes(px, quality=quality))
    if transform is not None:
        write_world_file(os.path.splitext(path)[0] + ".jgw", transform)
    return path


def jpg_to_tiles(path: str, res: int = 4, t: int = TILE,
                 nodata: float = NODATA) -> pd.DataFrame:
    """JPEG + world file → the engine's tile table (one row per band,
    same nearest sampling as geotiff_to_tiles)."""
    return _grid_to_tiles(read_jpg(path), res, t, nodata)


def read_gif(path: str):
    """GIF (first frame) → (array, meta) via the clean-room LZW codec
    (pythongis_ray.gif — no PIL). Always 3-band RGB (palette
    expanded). Georeferencing from a ``.gfw``/``.wld`` world-file
    sidecar when present (reference check_world_file,
    raster/loader.py:39-86), else pixel coords."""
    import os

    from pythongis_ray import gif as _gif

    with open(path, "rb") as f:
        data = f.read()
    if data[:6] not in _gif.GIF_MAGICS:
        raise ValueError(f"{path}: not a GIF")
    frames, _delays = _gif.decode_gif_bytes(data)
    px = frames[0]
    h, w, bands = px.shape
    arr = np.moveaxis(px, 2, 0).astype(np.float64)
    transform = None
    stem = os.path.splitext(path)[0]
    for cand in (stem + ".gfw", stem + ".wld"):
        if os.path.exists(cand):
            transform = read_world_file(cand)
            break
    if transform is None:
        transform = (0.0, 1.0, float(h), 1.0)
    return arr, {"transform": transform, "nodata": None,
                 "width": w, "height": h, "bands": bands}


def write_gif(path: str, arr: np.ndarray, transform=None):
    """GIF writer (gray (h, w) or 3-band (3, h, w) RGB with ≤256
    distinct colors). Writes a ``.gfw`` sidecar when ``transform``
    is given."""
    import os

    from pythongis_ray import gif as _gif

    arr = np.asarray(arr)
    px = arr.astype(np.uint8) if arr.ndim == 2 \
        else np.moveaxis(arr.astype(np.uint8), 0, 2)
    with open(path, "wb") as f:
        f.write(_gif.encode_gif_bytes(px))
    if transform is not None:
        write_world_file(os.path.splitext(path)[0] + ".gfw", transform)
    return path


def gif_to_tiles(path: str, res: int = 4, t: int = TILE,
                 nodata: float = NODATA) -> pd.DataFrame:
    """GIF + world file → the engine's tile table (one row per band,
    same nearest sampling as geotiff_to_tiles)."""
    return _grid_to_tiles(read_gif(path), res, t, nodata)


# ------------------------------------------------------------- band math

_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": np.divide, "pow": np.power,
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
    "and": np.logical_and, "or": np.logical_or, "xor": np.logical_xor,
    "min": np.minimum, "max": np.maximum,
}


def band_math_scalar(ds, op: str, scalar: float, t: int = TILE):
    """tile OP scalar, nodata preserved (reference Band operators,
    /root/reference/pythongis/raster/data.py:244-346)."""
    f = _OPS[op]

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for buf, nd in zip(batch["tile"], batch["nodata"]):
            a = bytes_to_tile(buf, t)
            mask = a == nd
            r = f(a, scalar).astype(np.float32)
            r[mask] = nd
            out.append(tile_to_bytes(r))
        batch = batch.copy()
        batch["tile"] = out
        return batch

    return ds.map_batches(fn, batch_format="pandas", batch_size=256)


_TILE_KEY = ["cell_id", "band"]


def _first_tiles(g: pd.DataFrame) -> pd.DataFrame:
    """One raster's rows of an exchange part: the first tile per
    (cell_id, band), in key order."""
    return g.drop_duplicates(_TILE_KEY).sort_values(_TILE_KEY, kind="stable")


def _no_tiles() -> pd.DataFrame:
    return pd.DataFrame({c: [] for c in ("cell_id", "band", "tile", "nodata")})


def _paired_tile_combine(ds_a, ds_b, pixfn, t: int = TILE,
                         num_buckets: int = 16):
    """Tile-aligned binary combine on (cell_id, band), hash-bucketed:
    ONE two-input exchange co-groups both sides into ``num_buckets``
    buckets, and the per-part kernel pairs ALL its (cell, band) keys at
    once — one merge of the sides' first tiles per key, then ``pixfn``
    over stacked (n, t, t) pixel arrays. Replaces the sort-based ``groupby().map_groups`` combine,
    which iterates keys in Python (minutes at 10^5 tiles — the Ray
    2.49 gotcha measured on mosaic). Nodata mask union per the
    reference rule (raster/data.py:318-346)."""
    def combine(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        m = _first_tiles(a).merge(_first_tiles(b), on=_TILE_KEY,
                                  suffixes=("_a", "_b")) \
            if len(a) and len(b) else ()
        if len(m) == 0:
            return _no_tiles()
        ta = np.stack([bytes_to_tile(x, t) for x in m["tile_a"]])
        tb = np.stack([bytes_to_tile(x, t) for x in m["tile_b"]])
        nd = m["nodata_a"].to_numpy(np.float64)
        nda = nd.astype(np.float32)[:, None, None]
        ndb = m["nodata_b"].to_numpy(np.float32)[:, None, None]
        mask = (ta == nda) | (tb == ndb)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(mask, nda, pixfn(ta, tb)).astype(np.float32)
        return pd.DataFrame({"cell_id": m["cell_id"].to_numpy(np.int64),
                             "band": m["band"].to_numpy(),
                             "tile": [tile_to_bytes(x) for x in r],
                             "nodata": nd})

    return bucketed_group_apply([ds_a, ds_b], _TILE_KEY, combine,
                                num_buckets=num_buckets)


def band_math(ds_a, ds_b, op: str, t: int = TILE, num_buckets: int = 16):
    """tile-aligned binary op: join on (cell_id, band) via one
    hash-bucketed co-location + vectorized stacked-pixel kernel;
    nodata mask union (reference mask-union rule,
    raster/data.py:318-346)."""
    return _paired_tile_combine(ds_a, ds_b, _OPS[op], t, num_buckets)


def recode(ds, cond_op: str, cond_val: float, new_val: float, t: int = TILE):
    """Conditional overwrite (reference Band.recode/conditional,
    raster/data.py:516-590)."""
    f = _OPS[cond_op]

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for buf, nd in zip(batch["tile"], batch["nodata"]):
            a = bytes_to_tile(buf, t).copy()
            m = f(a, cond_val) & (a != nd)
            a[m] = new_val
            out.append(tile_to_bytes(a))
        batch = batch.copy()
        batch["tile"] = out
        return batch

    return ds.map_batches(fn, batch_format="pandas", batch_size=256)


# ------------------------------------------------------------ statistics

def summarystats(ds, t: int = TILE) -> dict:
    """Global raster stats via per-tile partials + driver combine —
    count/sum/min/max/mean exactly (reference Band.summarystats,
    raster/data.py:592-779; the reference's approximate tiled median
    is replaced by exact value-count merging for quantized grids)."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for buf, nd in zip(batch["tile"], batch["nodata"]):
            a = bytes_to_tile(buf, t)
            v = a[a != nd]
            if len(v) == 0:
                continue
            rows.append((len(v), float(v.sum(dtype=np.float64)),
                         float(v.min()), float(v.max())))
        return pd.DataFrame(rows, columns=["cnt", "sum", "min", "max"])

    parts = ds.map_batches(partial, batch_format="pandas", batch_size=256).to_pandas()
    if len(parts) == 0:
        return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None}
    cnt = int(parts["cnt"].sum())
    s = float(parts["sum"].sum())
    return {"count": cnt, "sum": s, "min": float(parts["min"].min()),
            "max": float(parts["max"].max()), "mean": s / cnt}


def upscale(ds, t: int = TILE):
    """4:1 upscale: each tile aggregates its 2x2 pixel blocks (mean of
    valid pixels), and sibling tiles merge into the parent cell —
    `groupby(parent(cell))` (reference upscale,
    raster/manager.py:724-775)."""
    def shrink(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, band, buf, nd in zip(batch["cell_id"], batch["band"],
                                      batch["tile"], batch["nodata"]):
            a = bytes_to_tile(buf, t)
            v = np.where(a == nd, np.nan, a).reshape(t // 2, 2, t // 2, 2)
            with np.errstate(invalid="ignore"):
                m = np.nanmean(v, axis=(1, 3))
            m = np.where(np.isnan(m), nd, m).astype(np.float32)
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            p = grid.parent(cu)[0]
            _, ix, iy = grid.unpack(cu)
            rows.append({"cell_id": np.int64(np.uint64(p).view(np.int64)),
                         "band": band, "quad": (int(ix[0]) & 1) | ((int(iy[0]) & 1) << 1),
                         "tile": tile_to_bytes(m), "nodata": nd})
        return pd.DataFrame(rows)

    halves = ds.map_batches(shrink, batch_format="pandas", batch_size=256)

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        # all parent keys in the bucket assemble at once into a
        # (k, t, t) stack; the only per-row work is one h×h block copy
        g = g.sort_values(["cell_id", "band", "quad"], kind="stable")
        if len(g) == 0:
            return pd.DataFrame(
                {c: [] for c in ("cell_id", "band", "tile", "nodata")})
        cell = g["cell_id"].to_numpy(np.int64)
        band = g["band"].to_numpy()
        quad = g["quad"].to_numpy(np.int64)
        ndv = g["nodata"].to_numpy(np.float64)
        tiles = g["tile"].to_numpy()
        new = np.empty(len(g), bool)
        new[0] = True
        new[1:] = (cell[1:] != cell[:-1]) | (band[1:] != band[:-1])
        gid = np.cumsum(new) - 1
        first = np.flatnonzero(new)
        k = len(first)
        ndk = ndv[first]
        full = np.empty((k, t, t), dtype=np.float32)
        full[:] = ndk.astype(np.float32)[:, None, None]
        h = t // 2
        for i in range(len(g)):
            q = int(quad[i])
            x0 = (q & 1) * h
            y0 = ((q >> 1) & 1) * h
            full[gid[i], y0:y0 + h, x0:x0 + h] = bytes_to_tile(tiles[i], h)
        return pd.DataFrame({"cell_id": cell[first], "band": band[first],
                             "tile": [tile_to_bytes(x) for x in full],
                             "nodata": ndk})

    return bucketed_group_apply(halves, ["cell_id", "band"], assemble,
                                num_buckets=16)


def mosaic(datasets, rule: str = "first"):
    """Paste rasters; overlapping tiles resolved first/last by the
    rasters' list order (reference mosaic, raster/manager.py:23-63)."""
    # vectorized per-bucket pick (sources concatenated in priority
    # order + keyed drop_duplicates) — the sort-based
    # groupby().map_groups iterates cells in Python and is minutes at
    # 10^4+ cells (CLAUDE.md Ray 2.49 gotcha)
    def pick(*frames: pd.DataFrame) -> pd.DataFrame:
        srt = pd.concat([f for f in frames if len(f)], ignore_index=True) \
            .sort_values(_TILE_KEY, kind="stable")
        return srt.drop_duplicates(subset=_TILE_KEY,
                                   keep="first" if rule == "first" else "last")

    return bucketed_group_apply(list(datasets), _TILE_KEY, pick)


# -------------------------------------------------------- raster⟷vector

def rasterize_points(points_ds, res: int, t: int = TILE,
                     lon_col: str = "lon", lat_col: str = "lat",
                     stat: str = "count", value_col: str | None = None):
    """Burn points into a tile raster: per-batch partial per-pixel
    counts/sums → groupby(tile cell) combine (reference rasterize with
    per-cell stat resolution, raster/manager.py:790-974)."""
    pix_res_factor = t  # pixels per tile edge

    def partial(batch: pa.Table) -> pd.DataFrame:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        cell = grid.point_to_cell(lon, lat, res)
        xmin, ymin, xmax, ymax = grid.cell_bounds(cell)
        fx = np.clip(((lon - xmin) / (xmax - xmin) * t).astype(np.int64), 0, t - 1)
        fy = np.clip(((lat - ymin) / (ymax - ymin) * t).astype(np.int64), 0, t - 1)
        key = cell.view(np.int64) * (t * t) + fy * t + fx
        if stat == "count":
            u, c = np.unique(key, return_counts=True)
            w = c.astype(np.float64)
        else:
            vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            u, inv = np.unique(key, return_inverse=True)
            w = np.bincount(inv, weights=vals)
        return pd.DataFrame({"pix": u, "w": w})

    parts = map_arrow(points_ds, partial)

    def combine_bucket(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("pix", sort=False)["w"].sum().reset_index()
        g["cell_id"] = g["pix"] // (t * t)
        # assemble full tiles per cell within the bucket (vectorized
        # scatter per cell; cells hash whole to one bucket via pix? no —
        # pix buckets split cells, so emit per-pixel rows and assemble
        # in a second cell-keyed pass)
        return g

    combined = bucketed_group_apply(parts, ["pix"], combine_bucket)

    def to_tiles_bucket(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, g in b.groupby("cell_id", sort=False):
            tile = np.zeros((t, t), dtype=np.float32)
            loc = g["pix"].to_numpy() % (t * t)
            tile.ravel()[loc] = g["w"].to_numpy()
            rows.append({"cell_id": cid, "band": np.int32(0),
                         "tile": tile_to_bytes(tile), "nodata": 0.0})
        return pd.DataFrame(rows, columns=["cell_id", "band", "tile", "nodata"])

    return bucketed_group_apply(combined, ["cell_id"], to_tiles_bucket)


def rasterize_vector(ds, value_col: str = "val", specs=None,
                     cell_units: int = 1024, geometry_col: str = "geometry",
                     order_col: str | None = None):
    """Burn polygon / line features into the integer unit-lattice cell
    grid with valuekey + per-cell conflict stats (reference
    raster/manager.py:790-974: `valuekey`, `stat`, and `priority` —
    priority maps to ``order_col`` + a 'first'/'last' stat).

    Cell (cx, cy) spans ``[cx*cell_units, (cx+1)*cell_units)`` ×
    ``[cy*cell_units, (cy+1)*cell_units)`` in lattice units
    (lon = u/1024 − 180). Coverage rules, both exact on the lattice:

    * Polygon: CENTER SAMPLING — burned iff the cell center is
      strictly inside (axis-rect fast path is pure integer range
      arithmetic; general polygons vectorize a PIP over the bbox cell
      centers);
    * LineString: burned iff a segment intersects the CLOSED cell
      square (vectorized SAT: bbox overlap + corner orientation signs).

    Per-batch burns feed ONE grouped aggregate over (cx, cy) with the
    full aggreg stat vocabulary — the combine is bucketed, so the
    shuffle moves partial rows, not pixels."""
    from pythongis_ray.geom import algo

    specs = specs or [("n", value_col, "count")]
    cu = float(cell_units)

    def _expand_ranges(lo_x, hi_x, lo_y, hi_y):
        """Vectorized candidate expansion: per-row integer ranges →
        (row_of_candidate, gx, gy) flat arrays."""
        ncx = hi_x - lo_x + 1
        ncy = hi_y - lo_y + 1
        cnt = np.maximum(ncx, 0) * np.maximum(ncy, 0)
        tot = int(cnt.sum())
        if tot == 0:
            e = np.empty(0, np.int64)
            return e, e, e
        rows = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
        cum = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        local = np.arange(tot, dtype=np.int64) - np.repeat(cum, cnt)
        ncx_r = np.repeat(ncx, cnt)
        gx = np.repeat(lo_x, cnt) + local % ncx_r
        gy = np.repeat(lo_y, cnt) + local // ncx_r
        return rows, gx, gy

    def burn(batch: pa.Table) -> pd.DataFrame:
        vals = batch[value_col].to_numpy(zero_copy_only=False)
        ovals = (batch[order_col].to_numpy(zero_copy_only=False)
                 if order_col else None)
        out_cx, out_cy, out_i = [], [], []
        geoms = batch[geometry_col].to_pylist()
        line_rows: list[int] = []
        for i, b in enumerate(geoms):
            if b is None:
                continue
            code = b[1] if b[0] == 1 else b[4]
            if code in (wkb.WKB_LINESTRING, wkb.WKB_MULTILINESTRING):
                line_rows.append(i)
                continue
            if code != wkb.WKB_POLYGON:
                raise ValueError(
                    f"rasterize_vector: geometry code {code} unsupported")
            g = wkb.decode(bytes(b))
            ring = g["rings"][0]
            xu = (ring[:, 0] + 180.0) * 1024.0
            yu = (ring[:, 1] + 90.0) * 1024.0
            rect = algo.is_axis_rect(np.column_stack([xu, yu]))
            # candidate cell-center range, strict interior on BOTH
            # bounds: lo = floor+1 excludes center == min edge,
            # hi = ceil-1 excludes center == max edge (a plain floor
            # would include a center exactly on the max bound,
            # diverging from the strict PIP path below)
            cx_lo = int(np.floor((xu.min() - cu / 2) / cu)) + 1
            cx_hi = int(np.ceil((xu.max() - cu / 2) / cu)) - 1
            cy_lo = int(np.floor((yu.min() - cu / 2) / cu)) + 1
            cy_hi = int(np.ceil((yu.max() - cu / 2) / cu)) - 1
            if cx_hi < cx_lo or cy_hi < cy_lo:
                continue
            cxs = np.arange(cx_lo, cx_hi + 1, dtype=np.int64)
            cys = np.arange(cy_lo, cy_hi + 1, dtype=np.int64)
            gx, gy = np.meshgrid(cxs, cys, indexing="ij")
            gx, gy = gx.ravel(), gy.ravel()
            if rect is None:
                # general polygon: strict PIP of the cell centers
                poly = algo.PreparedPolygon(g["rings"], g.get("ring_part"))
                lon_c = (gx * cu + cu / 2) / 1024.0 - 180.0
                lat_c = (gy * cu + cu / 2) / 1024.0 - 90.0
                keep = poly.contains_points(lon_c, lat_c)
                gx, gy = gx[keep], gy[keep]
            out_cx.append(gx)
            out_cy.append(gy)
            out_i.append(np.full(len(gx), i, dtype=np.int64))
        if line_rows:
            # ALL line features of the batch burn in one flat pass:
            # segments concatenated via decode_flat, candidate cells
            # expanded vectorized, one SAT test over every
            # (segment, cell) candidate pair
            flat = wkb.decode_flat([geoms[i] for i in line_rows])
            pts, roff = flat["pts"], flat["ring_off"]
            xu = (pts[:, 0] + 180.0) * 1024.0
            yu = (pts[:, 1] + 90.0) * 1024.0
            seg_keep = np.ones(len(pts), dtype=bool)
            if len(pts):
                seg_keep[roff[1:] - 1] = False
            sidx = np.flatnonzero(seg_keep)
            if len(sidx):
                lmap = np.asarray(line_rows, np.int64)
                seg_feat = lmap[np.repeat(flat["ring_feat"],
                                          np.diff(roff))[sidx]]
                ax, ay = xu[sidx], yu[sidx]
                bx, by = xu[sidx + 1], yu[sidx + 1]
                cx_lo = np.ceil(np.minimum(ax, bx) / cu - 1.0).astype(np.int64)
                cx_hi = np.floor(np.maximum(ax, bx) / cu).astype(np.int64)
                cy_lo = np.ceil(np.minimum(ay, by) / cu - 1.0).astype(np.int64)
                cy_hi = np.floor(np.maximum(ay, by) / cu).astype(np.int64)
                cs, gx, gy = _expand_ranges(cx_lo, cx_hi, cy_lo, cy_hi)
                # SAT: corners of each candidate cell vs the segment
                # line (closed; sign 0 = touching)
                x0c, y0c = gx * cu, gy * cu
                x1c, y1c = x0c + cu, y0c + cu
                dx, dy = (bx - ax)[cs], (by - ay)[cs]
                axc, ayc = ax[cs], ay[cs]
                s00 = dx * (y0c - ayc) - dy * (x0c - axc)
                s10 = dx * (y0c - ayc) - dy * (x1c - axc)
                s11 = dx * (y1c - ayc) - dy * (x1c - axc)
                s01 = dx * (y1c - ayc) - dy * (x0c - axc)
                pos = (s00 > 0) & (s10 > 0) & (s11 > 0) & (s01 > 0)
                neg = (s00 < 0) & (s10 < 0) & (s11 < 0) & (s01 < 0)
                keep = ~(pos | neg)
                out_cx.append(gx[keep])
                out_cy.append(gy[keep])
                out_i.append(seg_feat[cs[keep]])
        if not out_cx:
            cols = {"cx": np.empty(0, np.int64), "cy": np.empty(0, np.int64),
                    value_col: np.empty(0, object)}
            if order_col:
                cols[order_col] = np.empty(0, object)
            return pd.DataFrame(cols)
        cx = np.concatenate(out_cx)
        cy = np.concatenate(out_cy)
        fi = np.concatenate(out_i)
        cols = {"cx": cx, "cy": cy, "_fi": fi, value_col: vals[fi]}
        if order_col:
            cols[order_col] = ovals[fi]
        df = pd.DataFrame(cols)
        # a multi-segment line can burn one cell twice — dedup PER
        # FEATURE (not per value: distinct features sharing a value
        # must both count) before the stats
        df = df.drop_duplicates(subset=["cx", "cy", "_fi"])
        return df.drop(columns=["_fi"])

    parts = ds.map_batches(burn, batch_format="pyarrow", batch_size=4096)
    return rel.groupby_aggregate(parts, ["cx", "cy"], specs,
                                 order_col=order_col)


def vectorize(ds, t: int = TILE):
    """Cells → one rectangle polygon per non-nodata pixel with
    col/row/x/y/val columns (reference vectorize one-rect-per-cell
    variant, raster/manager.py:976-1167). The reference's
    contiguous-merge variant (cascaded_union of same-value cells) maps
    to a downstream ``groupby(val)`` + per-value geometry union; with
    no GEOS in this environment the dissolve itself is out of scope —
    the per-cell rows carry (cell_id, col, row, val) so the grouping
    key structure is already in place."""
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cid, buf, nd in zip(batch["cell_id"], batch["tile"], batch["nodata"]):
            a = bytes_to_tile(buf, t)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(
                np.array([np.int64(cid)], dtype=np.uint64)))
            px = (xmax - xmin) / t
            py = (ymax - ymin) / t
            yy, xx = np.nonzero(a != nd)
            if len(xx) == 0:
                continue
            # whole tile vectorized: corner arrays + one bulk WKB encode
            x0 = xmin + xx * px
            y0 = ymin + yy * py
            outs.append(pd.DataFrame({
                "cell_id": np.full(len(xx), cid, dtype=np.int64),
                "col": xx.astype(np.int64), "row": yy.astype(np.int64),
                "x": x0 + px / 2, "y": y0 + py / 2,
                "val": a[yy, xx].astype(np.float64),
                "geometry": wkb.encode_rects(x0, y0, x0 + px, y0 + py),
            }))
        if not outs:
            return pd.DataFrame({c: [] for c in
                                 ["cell_id", "col", "row", "x", "y", "val",
                                  "geometry"]})
        return pd.concat(outs, ignore_index=True)

    return ds.map_batches(fn, batch_format="pandas", batch_size=64)


def vectorize_merged(ds, t: int = TILE):
    """Contiguous same-value merge variant of vectorize (reference
    raster/manager.py:976-1167 cascaded_union path): per-cell rects →
    per-VALUE rect-union dissolve (exact lattice x-slab sweep; no
    GEOS). Emits one row per value: MultiPolygon + union_area +
    n_parts. Deviation: cells touching only at a corner become
    separate parts (shapely's union would join them through the
    point)."""
    from pythongis_ray import spatial

    rects = vectorize(ds, t).select_columns(["val", "geometry"])
    return spatial.dissolve(rects, "val")


def zonal_statistics(tiles_ds, zones: pd.DataFrame, t: int = TILE):
    """Per-zone raster stats on the shared grid: broadcast zone index,
    per-tile masked partials keyed by zone → groupby(zone) combine
    (reference zonal_statistics, raster/analyzer.py:16-88; exact mean
    via single division of int-exact partial sums when values are
    quantized)."""
    from pythongis_ray.spatial import ZoneIndex

    index = ZoneIndex.from_pandas(zones)
    ref = ray.put(index)

    class _Partial:
        def __init__(self, index):
            self.index: ZoneIndex = index

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            rows = []
            for cid, buf, nd in zip(batch["cell_id"], batch["tile"], batch["nodata"]):
                a = bytes_to_tile(buf, t)
                xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(
                    np.array([np.int64(cid)], dtype=np.uint64)))
                xs = xmin + (np.arange(t) + 0.5) * (xmax - xmin) / t
                ys = ymin + (np.arange(t) + 0.5) * (ymax - ymin) / t
                lon2, lat2 = np.meshgrid(xs, ys)
                pidx, zidx = self.index.match_points(lon2.ravel(), lat2.ravel(),
                                                     "within")
                if len(pidx) == 0:
                    continue
                vals = a.ravel()[pidx]
                valid = vals != nd
                pz = zidx[valid]
                pv = vals[valid].astype(np.float64)
                for z in np.unique(pz):
                    m = pz == z
                    rows.append((int(z), float(pv[m].sum()), int(m.sum()),
                                 float(pv[m].min()), float(pv[m].max())))
            return pd.DataFrame(rows, columns=["zone_idx", "psum", "pcnt",
                                               "pmin", "pmax"])

    def partial_fn(batch: pd.DataFrame) -> pd.DataFrame:
        st = state.get_broadcast(ref, builder=_Partial, key_extra=("zonal_tiles",))
        return st(batch)

    parts = tiles_ds.map_batches(partial_fn, batch_format="pandas", batch_size=64)
    # two-level aggregate: bounded (batches × zones) partial table →
    # one vectorized driver reduce (Ray's sort aggregate costs
    # seconds even at tens of keys)
    pdf = parts.to_pandas()
    out = pdf.groupby("zone_idx", sort=True).agg(
        sum_val=("psum", "sum"), cnt=("pcnt", "sum"),
        min_val=("pmin", "min"), max_val=("pmax", "max")).reset_index()
    zid = zones["zone_id"].to_numpy()
    out.insert(0, "zone_id", zid[out["zone_idx"].to_numpy()])
    out = out.drop(columns=["zone_idx"])
    out["mean_val"] = out["sum_val"] / out["cnt"]
    return out.sort_values("zone_id").reset_index(drop=True)


# ----------------------------------------------------- resample / align

def resample_to_res(ds, src_res: int, dst_res: int, t: int = TILE):
    """Nearest-neighbour resample onto the tile grid at another
    resolution (reference resample 'nearest',
    /root/reference/pythongis/raster/manager.py:560-650). Each source
    tile maps its pixels to destination tiles (cell-id arithmetic —
    alignment is free on a shared grid, reference align
    manager.py:678-722), then destination tiles assemble via one
    groupby."""
    if dst_res == src_res:
        return ds

    def scatter(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, band, buf, nd in zip(batch["cell_id"], batch["band"],
                                      batch["tile"], batch["nodata"]):
            a = bytes_to_tile(buf, t)
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            xs = xmin + (np.arange(t) + 0.5) * (xmax - xmin) / t
            ys = ymin + (np.arange(t) + 0.5) * (ymax - ymin) / t
            lon2, lat2 = np.meshgrid(xs, ys)
            lonf, latf = lon2.ravel(), lat2.ravel()
            dcell = grid.point_to_cell(lonf, latf, dst_res)
            # destination pixel index within its tile + distance of the
            # source center to the destination pixel center (for a
            # deterministic nearest-center pick)
            dxm, dym, dxx, dyx = grid.cell_bounds(dcell)
            px = (dxx - dxm) / t
            py = (dyx - dym) / t
            fx = np.clip(((lonf - dxm) / px).astype(np.int64), 0, t - 1)
            fy = np.clip(((latf - dym) / py).astype(np.int64), 0, t - 1)
            dcx = dxm + (fx + 0.5) * px
            dcy = dym + (fy + 0.5) * py
            d2 = (lonf - dcx) ** 2 + (latf - dcy) ** 2
            pix = dcell.view(np.int64) * (t * t) + fy * t + fx
            rows.append(pd.DataFrame({"pix": pix, "v": a.ravel(), "d2": d2,
                                      "band": band, "nodata": nd}))
        if not rows:
            return pd.DataFrame({"pix": [], "v": [], "d2": [], "band": [],
                                 "nodata": []})
        out = pd.concat(rows, ignore_index=True)
        # keep the nearest source center per destination pixel (ties → min value)
        out = out.sort_values(["pix", "band", "d2", "v"], kind="stable")
        return out.drop_duplicates(subset=["pix", "band"], keep="first")

    scattered = ds.map_batches(scatter, batch_format="pandas", batch_size=64)

    def assemble(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values(["pix", "band", "d2", "v"], kind="stable") \
            .drop_duplicates(subset=["pix", "band"], keep="first")
        bucket["cell_id"] = bucket["pix"] // (t * t)
        rows = []
        for (cid, band), g in bucket.groupby(["cell_id", "band"], sort=False):
            nd = float(g["nodata"].iloc[0])
            tile = np.full((t, t), nd, dtype=np.float32)
            loc = g["pix"].to_numpy() % (t * t)
            tile.ravel()[loc] = g["v"].to_numpy()
            rows.append({"cell_id": cid, "band": band,
                         "tile": tile_to_bytes(tile), "nodata": nd})
        return pd.DataFrame(rows, columns=["cell_id", "band", "tile", "nodata"])

    def add_cell_key(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["dcell"] = batch["pix"] // (t * t)
        return batch

    keyed = map_pandas(scattered, add_cell_key)
    return bucketed_group_apply(keyed, ["dcell"],
                                lambda b: assemble(b.drop(columns=["dcell"])),
                                num_buckets=32)


def resample_bilinear(ds, src_res: int, dst_res: int, t: int = TILE,
                      method: str = "bilinear"):
    """Bilinear (or ``method='bicubic'`` Catmull-Rom) resample onto the
    tile grid at another resolution (reference resample
    'bilinear'/'bicubic',
    /root/reference/pythongis/raster/manager.py:560-650).

    Distributed shape: every SOURCE tile is shipped to each
    DESTINATION tile whose extent (±1 source pixel) it overlaps; one
    groupby co-locates the sources per destination tile; the per-tile
    kernel pastes them into a local mosaic indexed by GLOBAL source
    pixel coordinates and evaluates the 4-tap interpolation of every
    destination pixel center in one vectorized pass. Any nodata tap →
    nodata (mask-union rule)."""
    nx_s, ny_s = grid.cell_dims(src_res)
    src_cell = grid.cell_size_deg(src_res)
    psx = src_cell / t          # source pixel size (deg)
    ncol = nx_s * t             # global source pixel columns
    nrow = ny_s * t

    halo = psx * (2.0 if method == "bicubic" else 1.0)

    def scatter(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, band, buf, nd in zip(batch["cell_id"], batch["band"],
                                      batch["tile"], batch["nodata"]):
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            # destination cells whose (extent grown by the stencil
            # halo: 1 src pixel bilinear, 2 bicubic) touches this
            # source tile — including across the antimeridian
            seen = set()
            for shift in (-360.0, 0.0, 360.0):
                x0s, x1s = xmin - halo + shift, xmax + halo + shift
                if x1s < -180.0 or x0s > 180.0:
                    continue
                dcells = grid.bbox_to_cells(
                    max(x0s, -180.0), max(ymin - halo, -90.0),
                    min(x1s, 180.0), min(ymax + halo, 90.0), res=dst_res)
                seen.update(int(c) for c in dcells.view(np.int64))
            for dc in seen:
                rows.append({"dcell": dc, "band": band,
                             "scell": int(np.int64(cid)), "tile": buf,
                             "nodata": nd})
        return pd.DataFrame(rows,
                            columns=["dcell", "band", "scell", "tile", "nodata"])

    scattered = ds.map_batches(scatter, batch_format="pandas", batch_size=64)

    def per_dst(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (dc, band), gg in g.groupby(["dcell", "band"], sort=False):
            nd = float(gg["nodata"].iloc[0])
            du = np.array([dc], dtype=np.int64).view(np.uint64)
            dxm, dym, dxx, dyx = (v[0] for v in grid.cell_bounds(du))
            lon_c = dxm + (np.arange(t) + 0.5) * (dxx - dxm) / t
            lat_c = dym + (np.arange(t) + 0.5) * (dyx - dym) / t
            lon2, lat2 = np.meshgrid(lon_c, lat_c)
            v = _mosaic_sample(list(zip(gg["scell"], gg["tile"])),
                               lon2, lat2, nd, t, psx, ncol, method)
            out = np.where(np.isnan(v), nd, v).astype(np.float32)
            rows.append({"cell_id": int(dc), "band": band,
                         "tile": tile_to_bytes(out), "nodata": nd})
        return pd.DataFrame(rows, columns=["cell_id", "band", "tile", "nodata"])

    return bucketed_group_apply(scattered, ["dcell"], per_dst, num_buckets=32)


def _mosaic_sample(tiles, lon2: np.ndarray, lat2: np.ndarray, nd: float,
                   t: int, psx: float, ncol: int, method: str) -> np.ndarray:
    """Sample arbitrary (lon, lat) positions from source tiles on the
    shared lonlat pixel grid: paste the tiles into a local mosaic
    indexed by GLOBAL source pixel coordinates (±world-width aliases
    for antimeridian stencils), then gather 'nearest' or 4-tap
    'bilinear' vectorized. Returns float64 with NaN where
    nodata/uncovered."""
    gx = (lon2 + 180.0) / psx - 0.5   # fractional global col
    gy = (lat2 + 90.0) / psx - 0.5
    if method == "nearest":
        x0 = np.rint(gx).astype(np.int64)
        y0 = np.rint(gy).astype(np.int64)
        c_lo, c_hi = int(x0.min()), int(x0.max())
        r_lo, r_hi = int(y0.min()), int(y0.max())
    elif method == "bicubic":
        x0 = np.floor(gx).astype(np.int64)
        y0 = np.floor(gy).astype(np.int64)
        c_lo, c_hi = int(x0.min()) - 1, int(x0.max()) + 2
        r_lo, r_hi = int(y0.min()) - 1, int(y0.max()) + 2
    else:
        x0 = np.floor(gx).astype(np.int64)
        y0 = np.floor(gy).astype(np.int64)
        c_lo, c_hi = int(x0.min()), int(x0.max()) + 1
        r_lo, r_hi = int(y0.min()), int(y0.max()) + 1
    mos = np.full((r_hi - r_lo + 1, c_hi - c_lo + 1), np.nan, dtype=np.float64)
    for scell, buf in tiles:
        a = bytes_to_tile(buf, t).astype(np.float64)
        a[a == nd] = np.nan
        su = np.array([scell], dtype=np.int64).view(np.uint64)
        _, tx, ty = grid.unpack(su)
        sr0 = int(ty[0]) * t
        rs = slice(max(sr0, r_lo), min(sr0 + t, r_hi + 1))
        for off in (-ncol, 0, ncol):
            sc0 = int(tx[0]) * t + off      # global col of tile col 0
            cs = slice(max(sc0, c_lo), min(sc0 + t, c_hi + 1))
            if cs.start < cs.stop and rs.start < rs.stop:
                mos[rs.start - r_lo:rs.stop - r_lo,
                    cs.start - c_lo:cs.stop - c_lo] = \
                    a[rs.start - sr0:rs.stop - sr0,
                      cs.start - sc0:cs.stop - sc0]
    X0 = np.clip(x0 - c_lo, 0, mos.shape[1] - 1)
    Y0 = np.clip(y0 - r_lo, 0, mos.shape[0] - 1)
    if method == "nearest":
        return mos[Y0, X0]
    fx = gx - x0
    fy = gy - y0
    if method == "bicubic":
        # Catmull-Rom 4x4 tap (any NaN tap → NaN, nodata propagates)
        def w(t):
            return (-0.5 * t**3 + t**2 - 0.5 * t,
                    1.5 * t**3 - 2.5 * t**2 + 1.0,
                    -1.5 * t**3 + 2.0 * t**2 + 0.5 * t,
                    0.5 * t**3 - 0.5 * t**2)
        wx = w(fx)
        wy = w(fy)
        out = np.zeros_like(gx, dtype=np.float64)
        for j in range(4):
            Yj = np.clip(Y0 + j - 1, 0, mos.shape[0] - 1)
            rowacc = np.zeros_like(gx, dtype=np.float64)
            for i in range(4):
                Xi = np.clip(X0 + i - 1, 0, mos.shape[1] - 1)
                rowacc += wx[i] * mos[Yj, Xi]
            out += wy[j] * rowacc
        return out
    X1 = np.clip(X0 + 1, 0, mos.shape[1] - 1)
    Y1 = np.clip(Y0 + 1, 0, mos.shape[0] - 1)
    return (mos[Y0, X0] * (1 - fy) * (1 - fx)
            + mos[Y0, X1] * (1 - fy) * fx
            + mos[Y1, X0] * fy * (1 - fx)
            + mos[Y1, X1] * fy * fx)


# ----------------------------------------------------- mercator warp

MERC_R = 6378137.0
MERC_MAX_LAT = 85.05112877980659


def merc_forward(lon, lat):
    x = np.radians(np.asarray(lon, np.float64)) * MERC_R
    latc = np.clip(np.asarray(lat, np.float64), -MERC_MAX_LAT, MERC_MAX_LAT)
    y = MERC_R * np.log(np.tan(np.pi / 4 + np.radians(latc) / 2))
    return x, y


def merc_inverse(x, y):
    lon = np.degrees(np.asarray(x, np.float64) / MERC_R)
    lat = np.degrees(2 * np.arctan(np.exp(np.asarray(y, np.float64) / MERC_R))
                     - np.pi / 2)
    return lon, lat


def warp_to_mercator(ds, src_res: int, zoom: int = 3, t: int = TILE,
                     method: str = "bilinear"):
    """Raster mesh warp: lonlat tile grid → WebMercator tile pyramid
    level ``zoom`` (the reference's raster reproject/warp path,
    /root/reference/pythongis/raster/manager.py:560-650 — a per-pixel
    PIL mesh there; here a destination-driven inverse mapping).

    Distributed shape: each source tile ships to the mercator tiles
    covering its projected bbox (+1 dst pixel); one groupby co-locates
    them; the per-tile kernel inverse-projects the t×t destination
    pixel centers and samples the assembled source mosaic
    nearest/bilinear (``_mosaic_sample``). Output rows:
    (mcell = ty·2^zoom + tx, band, tile, nodata); mercator pixel
    (tx·t + i) has center x = −L + (tx·t + i + 0.5)·2L/(2^zoom·t),
    L = πR."""
    n = 1 << zoom
    L = np.pi * MERC_R
    tile_m = 2.0 * L / n
    px_m = tile_m / t
    nx_s, _ = grid.cell_dims(src_res)
    psx = grid.cell_size_deg(src_res) / t
    ncol = nx_s * t

    def scatter(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, band, buf, nd in zip(batch["cell_id"], batch["band"],
                                      batch["tile"], batch["nodata"]):
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            if ymin >= MERC_MAX_LAT or ymax <= -MERC_MAX_LAT:
                continue
            x0m, y0m = merc_forward(xmin, ymin)
            x1m, y1m = merc_forward(xmax, ymax)
            tx_lo = max(0, int((x0m - px_m + L) // tile_m))
            tx_hi = min(n - 1, int((x1m + px_m + L) // tile_m))
            ty_lo = max(0, int((y0m - px_m + L) // tile_m))
            ty_hi = min(n - 1, int((y1m + px_m + L) // tile_m))
            for ty in range(ty_lo, ty_hi + 1):
                for tx in range(tx_lo, tx_hi + 1):
                    rows.append({"mcell": ty * n + tx, "band": band,
                                 "scell": int(np.int64(cid)), "tile": buf,
                                 "nodata": nd})
        return pd.DataFrame(rows,
                            columns=["mcell", "band", "scell", "tile", "nodata"])

    scattered = ds.map_batches(scatter, batch_format="pandas", batch_size=64)

    def per_dst(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (mc, band), gg in g.groupby(["mcell", "band"], sort=False):
            nd = float(gg["nodata"].iloc[0])
            tx, ty = int(mc) % n, int(mc) // n
            xs = -L + (tx * t + np.arange(t) + 0.5) * px_m
            ys = -L + (ty * t + np.arange(t) + 0.5) * px_m
            xm, ym = np.meshgrid(xs, ys)
            lon2, lat2 = merc_inverse(xm, ym)
            v = _mosaic_sample(list(zip(gg["scell"], gg["tile"])),
                               lon2, lat2, nd, t, psx, ncol, method)
            out = np.where(np.isnan(v), nd, v).astype(np.float32)
            rows.append({"mcell": int(mc), "band": band,
                         "tile": tile_to_bytes(out), "nodata": nd})
        return pd.DataFrame(rows, columns=["mcell", "band", "tile", "nodata"])

    return bucketed_group_apply(scattered, ["mcell"], per_dst, num_buckets=32)


def _proj_pair(crs: str):
    """CRS token → (forward, inverse) vectorized lonlat⟷metre fns
    (the tokens crs_wkt understands: webmercator | utm:<zone>[N|S] |
    laea:<lon0>,<lat0>)."""
    if crs == "webmercator":
        return merc_forward, merc_inverse
    if crs.startswith("utm:"):
        from pythongis_ray.geom import proj as _proj

        zone = int(crs[4:].rstrip("NS"))
        northern = not crs.endswith("S")
        return (lambda lon, lat: _proj.utm_forward(lon, lat, zone),
                lambda x, y: _proj.utm_inverse(x, y, zone, northern))
    if crs.startswith("laea:"):
        from pythongis_ray.geom import proj as _proj

        lon0, lat0 = (float(v) for v in crs[5:].split(","))
        return (lambda lon, lat: _proj.laea_forward(lon, lat, lon0, lat0),
                lambda x, y: _proj.laea_inverse(x, y, lon0, lat0))
    if crs.startswith("albers:"):
        from pythongis_ray.geom import proj as _proj

        p = tuple(float(v) for v in crs[7:].split(","))
        return (lambda lon, lat: _proj.albers_forward(lon, lat, *p),
                lambda x, y: _proj.albers_inverse(x, y, *p))
    if crs.startswith("lcc:"):
        from pythongis_ray.geom import proj as _proj

        p = tuple(float(v) for v in crs[4:].split(","))
        return (lambda lon, lat: _proj.lcc_forward(lon, lat, *p),
                lambda x, y: _proj.lcc_inverse(x, y, *p))
    if crs.startswith("moll:"):
        from pythongis_ray.geom import proj as _proj

        lon0 = float(crs[5:])
        return (lambda lon, lat: _proj.moll_forward(lon, lat, lon0),
                lambda x, y: _proj.moll_inverse(x, y, lon0))
    if crs.startswith("robin:"):
        from pythongis_ray.geom import proj as _proj

        lon0 = float(crs[6:])
        return (lambda lon, lat: _proj.robin_forward(lon, lat, lon0),
                lambda x, y: _proj.robin_inverse(x, y, lon0))
    raise ValueError(f"unsupported warp crs {crs!r}")


def warp_to_projection(ds, src_res: int, crs: str, x_min: float,
                       y_min: float, cell_m: float, width_px: int,
                       height_px: int, t: int = TILE,
                       method: str = "bilinear"):
    """Raster mesh warp to ANY of the engine's projected CRSes
    (UTM / LAEA / WebMercator — generalizes :func:`warp_to_mercator`;
    reference raster reproject, raster/manager.py:175-395). The
    destination grid is (x_min, y_min, cell_m, width_px, height_px)
    in projected metres, tiled t×t.

    Same distributed shape as the mercator warp: each source tile
    ships to the destination tiles covering its PROJECTED bbox
    (boundary sampled at 8 points per edge — projections curve, the
    corner bbox alone under-covers), one hash-bucketed co-location,
    and the per-tile kernel inverse-projects the destination pixel
    centers and samples the assembled source mosaic. Output rows:
    (dcell = ty·ntx + tx, band, tile, nodata)."""
    fwd, inv = _proj_pair(crs)
    ntx = (width_px + t - 1) // t
    nty = (height_px + t - 1) // t
    nx_s, _ = grid.cell_dims(src_res)
    psx = grid.cell_size_deg(src_res) / t
    ncol = nx_s * t
    tile_m = cell_m * t
    x_max = x_min + width_px * cell_m
    y_max = y_min + height_px * cell_m

    # boundary parameterization for projected-bbox estimation
    bnd = np.linspace(0.0, 1.0, 9)

    def scatter(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, band, buf, nd in zip(batch["cell_id"], batch["band"],
                                      batch["tile"], batch["nodata"]):
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            bl = np.concatenate([xmin + bnd * (xmax - xmin),
                                 np.full(9, xmax),
                                 xmax - bnd * (xmax - xmin),
                                 np.full(9, xmin)])
            bb = np.concatenate([np.full(9, ymin),
                                 ymin + bnd * (ymax - ymin),
                                 np.full(9, ymax),
                                 ymax - bnd * (ymax - ymin)])
            with np.errstate(invalid="ignore"):
                px_, py_ = fwd(bl, bb)
            ok = np.isfinite(px_) & np.isfinite(py_)
            if not ok.any():
                continue
            x0m, x1m = px_[ok].min(), px_[ok].max()
            y0m, y1m = py_[ok].min(), py_[ok].max()
            if x1m < x_min or x0m > x_max or y1m < y_min or y0m > y_max:
                continue
            tx_lo = max(0, int((x0m - cell_m - x_min) // tile_m))
            tx_hi = min(ntx - 1, int((x1m + cell_m - x_min) // tile_m))
            ty_lo = max(0, int((y0m - cell_m - y_min) // tile_m))
            ty_hi = min(nty - 1, int((y1m + cell_m - y_min) // tile_m))
            for ty in range(ty_lo, ty_hi + 1):
                for tx in range(tx_lo, tx_hi + 1):
                    rows.append({"dcell": ty * ntx + tx, "band": band,
                                 "scell": int(np.int64(cid)), "tile": buf,
                                 "nodata": nd})
        return pd.DataFrame(rows,
                            columns=["dcell", "band", "scell", "tile",
                                     "nodata"])

    scattered = ds.map_batches(scatter, batch_format="pandas",
                               batch_size=64)

    def per_dst(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (dc, band), gg in g.groupby(["dcell", "band"], sort=False):
            nd = float(gg["nodata"].iloc[0])
            tx, ty = int(dc) % ntx, int(dc) // ntx
            xs = x_min + (tx * t + np.arange(t) + 0.5) * cell_m
            ys = y_min + (ty * t + np.arange(t) + 0.5) * cell_m
            xm, ym = np.meshgrid(xs, ys)
            with np.errstate(invalid="ignore"):
                lon2, lat2 = inv(xm, ym)
            bad = ~(np.isfinite(lon2) & np.isfinite(lat2))
            lon2 = np.where(bad, 0.0, lon2)
            lat2 = np.where(bad, 0.0, lat2)
            v = _mosaic_sample(list(zip(gg["scell"], gg["tile"])),
                               lon2, lat2, nd, t, psx, ncol, method)
            out = np.where(np.isnan(v) | bad, nd, v).astype(np.float32)
            rows.append({"dcell": int(dc), "band": band,
                         "tile": tile_to_bytes(out), "nodata": nd})
        return pd.DataFrame(rows, columns=["dcell", "band", "tile",
                                           "nodata"])

    return bucketed_group_apply(scattered, ["dcell"], per_dst,
                                num_buckets=32)


# --------------------------------------------------- morphology (halo)

def morphology(ds, op: str = "dilate", t: int = TILE):
    """3x3 dilation/erosion/edge with cross-tile halo exchange
    (reference morphology via PIL.ImageMorph,
    /root/reference/pythongis/raster/analyzer.py:616-631).

    Each tile ships its 1-pixel edge strips to the 8 neighbour cells
    (flat-map), one groupby co-locates core+halo, the kernel runs on
    the padded array — the canonical stencil pattern on a tile table."""

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, band, buf, nd in zip(batch["cell_id"], batch["band"],
                                      batch["tile"], batch["nodata"]):
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            res, ix, iy = grid.unpack(cu)
            r, x, y = int(res[0]), int(ix[0]), int(iy[0])
            nx, ny = grid.cell_dims(r)
            a = bytes_to_tile(buf, t)
            rows.append({"cell_id": cid, "band": band, "part": 4,
                         "tile": buf, "nodata": nd})
            # halo strips: (dx,dy) → neighbour tile receives our edge
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    njx = (x + dx) % nx
                    njy = y + dy
                    if not (0 <= njy < ny):
                        continue
                    ncell = int(grid.pack(r, np.array([njx]), np.array([njy]))[0])
                    xs = slice(t - 1, t) if dx == 1 else (slice(0, 1) if dx == -1 else slice(0, t))
                    ys = slice(t - 1, t) if dy == 1 else (slice(0, 1) if dy == -1 else slice(0, t))
                    strip = a[ys, xs]
                    part = (dx + 1) + 3 * (dy + 1)  # position of SENDER relative to receiver mirrored below
                    rows.append({"cell_id": np.int64(np.uint64(ncell).view(np.int64)),
                                 "band": band, "part": part,
                                 "tile": strip.tobytes(), "nodata": nd})
        return pd.DataFrame(rows, columns=["cell_id", "band", "part", "tile", "nodata"])

    halos = ds.map_batches(emit, batch_format="pandas", batch_size=64)

    def stencil(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over ALL receiving tiles in the bucket: every
        # core pads into one (k, t+2, t+2) stack, halo strips land on
        # their stack borders (one strip copy per halo row), and the
        # 3x3 min/max/sum kernel evaluates ONCE for the whole stack —
        # no per-key pandas groups
        g = g.sort_values(["cell_id", "band", "part"], kind="stable")
        cell = g["cell_id"].to_numpy(np.int64)
        band = g["band"].to_numpy()
        part = g["part"].to_numpy(np.int64)
        ndv = g["nodata"].to_numpy(np.float64)
        tiles = g["tile"].to_numpy()
        n_rows = len(g)
        if n_rows == 0:
            return pd.DataFrame(
                {c: [] for c in ("cell_id", "band", "tile", "nodata")})
        new = np.empty(n_rows, bool)
        new[0] = True
        new[1:] = (cell[1:] != cell[:-1]) | (band[1:] != band[:-1])
        gid = np.cumsum(new) - 1
        n_keys = gid[-1] + 1
        # keys without a core (pure-halo receivers) emit nothing
        has_core = np.zeros(n_keys, bool)
        core_rows = np.flatnonzero(part == 4)
        has_core[gid[core_rows]] = True
        kid_of_key = np.full(n_keys, -1, np.int64)
        kid_of_key[has_core] = np.arange(int(has_core.sum()))
        kid = kid_of_key[gid]              # per-row stack index or -1
        k = int(has_core.sum())
        if k == 0:
            return pd.DataFrame(
                {c: [] for c in ("cell_id", "band", "tile", "nodata")})
        ndk = ndv[core_rows]               # core's nodata per key
        nd3 = ndk.astype(np.float32)[:, None, None]
        pad = np.empty((k, t + 2, t + 2), dtype=np.float32)
        pad[:] = nd3
        for i in core_rows:
            pad[kid[i], 1:-1, 1:-1] = bytes_to_tile(tiles[i], t)
        for i in np.flatnonzero((part != 4) & (kid >= 0)):
            p = int(part[i])
            # part encodes sender→receiver direction; the sender sits
            # at the OPPOSITE offset relative to this (receiving) tile
            dx, dy = -(p % 3 - 1), -(p // 3 - 1)
            strip = np.frombuffer(tiles[i], dtype="<f4")
            j = kid[i]
            if dx == -1 and dy == 0:
                pad[j, 1:-1, 0] = strip
            elif dx == 1 and dy == 0:
                pad[j, 1:-1, -1] = strip
            elif dx == 0 and dy == -1:
                pad[j, 0, 1:-1] = strip
            elif dx == 0 and dy == 1:
                pad[j, -1, 1:-1] = strip
            elif dx == -1 and dy == -1:
                pad[j, 0, 0] = strip[0]
            elif dx == 1 and dy == -1:
                pad[j, 0, -1] = strip[0]
            elif dx == -1 and dy == 1:
                pad[j, -1, 0] = strip[0]
            elif dx == 1 and dy == 1:
                pad[j, -1, -1] = strip[0]
        valid = pad != nd3
        stacks = [pad[:, 1 + dy:t + 1 + dy, 1 + dx:t + 1 + dx]
                  for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        vstacks = [valid[:, 1 + dy:t + 1 + dy, 1 + dx:t + 1 + dx]
                   for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        arr = np.stack(stacks)
        va = np.stack(vstacks)
        if op == "dilate":
            out = np.where(va, arr, -np.inf).max(axis=0)
            out = np.where(np.isfinite(out), out, nd3)
        elif op == "erode":
            out = np.where(va, arr, np.inf).min(axis=0)
            out = np.where(np.isfinite(out), out, nd3)
        elif op == "edge":
            mx = np.where(va, arr, -np.inf).max(axis=0)
            mn = np.where(va, arr, np.inf).min(axis=0)
            out = np.where(np.isfinite(mx) & np.isfinite(mn), mx - mn, nd3)
        elif op == "smooth":
            s_ = np.where(va, arr, 0.0).sum(axis=0)
            c_ = va.sum(axis=0)
            out = np.where(c_ > 0, s_ / np.maximum(c_, 1), nd3)
        else:
            raise ValueError(op)
        core_valid = pad[:, 1:-1, 1:-1] != nd3
        out = np.where(core_valid, out, nd3).astype(np.float32)
        return pd.DataFrame({"cell_id": cell[core_rows],
                             "band": band[core_rows],
                             "tile": [tile_to_bytes(x) for x in out],
                             "nodata": ndk})

    return bucketed_group_apply(halos, ["cell_id", "band"], stencil,
                                num_buckets=16)


# -------------------------------------------------------- interpolation

def idw_interpolate(points_df: pd.DataFrame, res: int = 4, t: int = TILE,
                    power: float = 2.0, value_col: str = "value",
                    lon_col: str = "lon", lat_col: str = "lat"):
    """Inverse-distance-weighted surface from a broadcast point set
    (reference analyzer.interpolate, O(cells×points),
    /root/reference/pythongis/raster/analyzer.py:150-267): per-tile
    map_batches computing IDW for the tile's pixel centers against the
    broadcast points — embarrassingly parallel over tiles."""
    import ray
    import ray.data as rd

    from pythongis_ray import state as _state

    nx, ny = grid.cell_dims(res)
    tx, ty = np.meshgrid(np.arange(nx, dtype=np.int64),
                         np.arange(ny, dtype=np.int64))
    cells = grid.pack(res, tx.ravel(), ty.ravel()).view(np.int64)
    tiles = rd.from_pandas(pd.DataFrame({"cell_id": cells}))
    payload = {"lon": points_df[lon_col].to_numpy(np.float64),
               "lat": points_df[lat_col].to_numpy(np.float64),
               "val": points_df[value_col].to_numpy(np.float64)}
    ref = ray.put(payload)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        p = _state.get_broadcast(ref, key_extra=("idw",))
        rows = []
        for cid in batch["cell_id"]:
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            xs = xmin + (np.arange(t) + 0.5) * (xmax - xmin) / t
            ys = ymin + (np.arange(t) + 0.5) * (ymax - ymin) / t
            lon2, lat2 = np.meshgrid(xs, ys)
            d2 = ((lon2.ravel()[:, None] - p["lon"][None, :]) ** 2
                  + (lat2.ravel()[:, None] - p["lat"][None, :]) ** 2)
            w = 1.0 / np.maximum(d2, 1e-12) ** (power / 2.0)
            v = (w * p["val"][None, :]).sum(axis=1) / w.sum(axis=1)
            # exact hits take the point value
            hit = d2.min(axis=1) < 1e-12
            if hit.any():
                v[hit] = p["val"][d2.argmin(axis=1)[hit]]
            rows.append({"cell_id": cid, "band": np.int32(0),
                         "tile": tile_to_bytes(v.reshape(t, t).astype(np.float32)),
                         "nodata": NODATA})
        return pd.DataFrame(rows)

    return tiles.map_batches(fn, batch_format="pandas", batch_size=16)


def distance_to_points(points_df: pd.DataFrame, res: int = 4, t: int = TILE,
                       lon_col: str = "lon", lat_col: str = "lat"):
    """Per-pixel planar distance to the nearest broadcast point
    (reference analyzer.distance, raster/analyzer.py:485-607)."""
    import ray
    import ray.data as rd

    from pythongis_ray import state as _state

    nx, ny = grid.cell_dims(res)
    tx, ty = np.meshgrid(np.arange(nx, dtype=np.int64),
                         np.arange(ny, dtype=np.int64))
    cells = grid.pack(res, tx.ravel(), ty.ravel()).view(np.int64)
    tiles = rd.from_pandas(pd.DataFrame({"cell_id": cells}))
    payload = {"lon": points_df[lon_col].to_numpy(np.float64),
               "lat": points_df[lat_col].to_numpy(np.float64)}
    ref = ray.put(payload)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        p = _state.get_broadcast(ref, key_extra=("dist",))
        rows = []
        for cid in batch["cell_id"]:
            cu = np.array([cid], dtype=np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            xs = xmin + (np.arange(t) + 0.5) * (xmax - xmin) / t
            ys = ymin + (np.arange(t) + 0.5) * (ymax - ymin) / t
            lon2, lat2 = np.meshgrid(xs, ys)
            d2 = ((lon2.ravel()[:, None] - p["lon"][None, :]) ** 2
                  + (lat2.ravel()[:, None] - p["lat"][None, :]) ** 2)
            d = np.sqrt(d2.min(axis=1)).reshape(t, t).astype(np.float32)
            rows.append({"cell_id": cid, "band": np.int32(0),
                         "tile": tile_to_bytes(d), "nodata": NODATA})
        return pd.DataFrame(rows)

    return tiles.map_batches(fn, batch_format="pandas", batch_size=16)


# ------------------------------------------------------ smoothing / algebra

def smooth(ds, t: int = TILE):
    """3x3 mean smoothing with cross-tile halo exchange (reference
    analyzer.smooth radial kernel, /root/reference/pythongis/raster/
    analyzer.py:269-434, kernel radius 1 on the tile grid). Reuses the
    morphology halo plumbing with a mean-over-valid kernel."""
    return morphology(ds, "smooth", t)


def roll(ds, shift_cells_x: int, t: int = TILE):
    """Wrap-around recenter: shift the raster by whole tiles in x
    (reference manager.roll, raster/manager.py:652-676) — pure cell-id
    remap, no pixel movement."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        cu = batch["cell_id"].to_numpy(np.int64).view(np.uint64)
        res, ix, iy = grid.unpack(cu)
        nx, _ = grid.cell_dims(int(res[0])) if len(res) else (1, 1)
        nix = (ix + shift_cells_x) % nx
        out["cell_id"] = grid.pack(int(res[0]), nix, iy).view(np.int64)
        return out

    return ds.map_batches(fn, batch_format="pandas", batch_size=256)


def sequence_lerp(ds_a, ds_b, t_frac: float, t: int = TILE):
    """Interpolated raster between two keyframes (reference
    manager.sequence band lerp, raster/manager.py:65-160): per-tile
    a*(1-t) + b*t via the hash-bucketed aligned-tile join (vectorized
    stacked-pixel kernel, no per-key Python groups)."""
    return _paired_tile_combine(
        ds_a, ds_b, lambda ta, tb: ta * (1.0 - t_frac) + tb * t_frac, t)


def raster_algebra(datasets, fn, t: int = TILE):
    """N-raster expression evaluation (reference analyzer.mathexpr,
    raster/analyzer.py:94-143): co-locate aligned tiles from N rasters
    with one groupby, apply ``fn(list_of_arrays) -> array``. User
    expressions are CALLABLES, not eval'd strings — no string eval on
    workers (SURVEY.md §2.7 sandboxing note)."""
    n = len(datasets)

    def combine(*frames: pd.DataFrame) -> pd.DataFrame:
        # vectorized over ALL keys in the part: the keys present in
        # every raster are one inner merge of the rasters' first tiles;
        # ``fn`` receives n stacked (k, t, t) arrays — elementwise /
        # broadcast-safe callables (the documented contract) evaluate
        # once for the whole part, not per key
        if not all(len(f) for f in frames):
            return _no_tiles()
        m = None
        for j, f in enumerate(frames):
            f = _first_tiles(f)[_TILE_KEY + ["tile", "nodata"]].rename(
                columns={"tile": f"tile{j}", "nodata": f"nodata{j}"})
            m = f if m is None else m.merge(f, on=_TILE_KEY)
        if len(m) == 0:
            return _no_tiles()
        ndk = m["nodata0"].to_numpy(np.float64)
        nd3 = ndk.astype(np.float32)[:, None, None]
        stacks = [np.stack([bytes_to_tile(x, t) for x in m[f"tile{j}"]])
                  for j in range(n)]
        mask = np.zeros(stacks[0].shape, dtype=bool)
        for a in stacks:
            mask |= a == nd3
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(mask, nd3,
                         np.asarray(fn(stacks))).astype(np.float32)
        return pd.DataFrame({"cell_id": m["cell_id"].to_numpy(np.int64),
                             "band": m["band"].to_numpy(),
                             "tile": [tile_to_bytes(x) for x in r],
                             "nodata": ndk})

    return bucketed_group_apply(list(datasets), _TILE_KEY, combine,
                                num_buckets=16)


def disperse(points_df: pd.DataFrame, res: int = 4, t: int = TILE,
             value_col: str = "value", lon_col: str = "lon",
             lat_col: str = "lat", spread: int = 1):
    """Value-preserving dispersal: each point's value spreads uniformly
    over a (2*spread+1)^2 pixel neighbourhood; global sum of the raster
    equals the sum of input values (reference analyzer.disperse,
    raster/analyzer.py:436-476 — two-pass weight normalization is
    implicit here because uniform in-bounds weights are renormalized
    per point)."""
    import ray.data as rd

    lon = points_df[lon_col].to_numpy(np.float64)
    lat = points_df[lat_col].to_numpy(np.float64)
    val = points_df[value_col].to_numpy(np.float64)
    cell = grid.point_to_cell(lon, lat, res)
    xmin, ymin, xmax, ymax = grid.cell_bounds(cell)
    fx = np.clip(((lon - xmin) / (xmax - xmin) * t).astype(np.int64), 0, t - 1)
    fy = np.clip(((lat - ymin) / (ymax - ymin) * t).astype(np.int64), 0, t - 1)
    nx, ny = grid.cell_dims(res)
    _, cix, ciy = grid.unpack(cell)
    gx = cix * t + fx  # global pixel coords
    gy = ciy * t + fy
    rows = []
    offs = range(-spread, spread + 1)
    for i in range(len(val)):
        tgt = [(gx[i] + dx, gy[i] + dy) for dx in offs for dy in offs
               if 0 <= gy[i] + dy < ny * t]
        w = val[i] / len(tgt)
        for tx_, ty_ in tgt:
            rows.append(((tx_ % (nx * t)), ty_, w))
    df = pd.DataFrame(rows, columns=["gx", "gy", "w"])
    df["pix_cell"] = grid.pack(res, df.gx.to_numpy() // t,
                               df.gy.to_numpy() // t).view(np.int64)
    df["pix"] = df["pix_cell"] * (t * t) + (df.gy.to_numpy() % t) * t \
        + (df.gx.to_numpy() % t)
    agg = df.groupby("pix")["w"].sum().reset_index()
    agg["cell_id"] = agg["pix"] // (t * t)
    out_rows = []
    for cid, g in agg.groupby("cell_id"):
        tile = np.zeros((t, t), dtype=np.float32)
        loc = g["pix"].to_numpy() % (t * t)
        tile.ravel()[loc] = g["w"].to_numpy()
        out_rows.append({"cell_id": cid, "band": np.int32(0),
                         "tile": tile_to_bytes(tile), "nodata": 0.0})
    return rd.from_pandas(pd.DataFrame(out_rows))
