"""Sources & sinks beyond parquet.

The reference reads Shapefile/GeoJSON/CSV/XLS/DTA
(/root/reference/pythongis/vector/loader.py:42-215) and writes
SHP/GeoJSON/CSV/XLS (vector/saver.py:24-169). In this engine parquet is
the canonical format (BASELINE input_hint); this module adds:

  read_geojson / write_geojson   GeoJSON FeatureCollection ⟷ Dataset
                                 with a WKB geometry column
  read_points_csv                CSV with xfield/yfield → point layer
                                 (reference loader xfield/yfield option,
                                 loader.py:48,180-196)
  write_csv_with_geometry        CSV sink with geometry as GeoJSON text

  read_shapefile / shapefile_dataset   pure-python ESRI Shapefile
                                 (.shp geometry + .dbf attributes)
                                 reader — the format the reference's
                                 loader.py:42-102 reads via pyshp;
                                 spec is public (ESRI whitepaper).

XLS/DTA are intentionally out of scope: their parsers (xlrd/openpyxl)
are not in this environment and the reference treats them as
interchange formats, not engine semantics. The loader shape (format
branch → batch parser → Dataset) is the same.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from pythongis_ray.geom import algo, wkb
from pythongis_ray.relational import map_arrow


# ------------------------------------------------------------- GeoJSON

def _geojson_geom_to_wkb(geom: dict | None) -> bytes | None:
    if geom is None:
        return None
    t = geom["type"]
    c = geom["coordinates"]
    if t == "Point":
        return wkb.encode_point(c[0], c[1])
    if t == "LineString":
        return wkb.encode_linestring(np.asarray(c, np.float64))
    if t == "Polygon":
        return wkb.encode_polygon([np.asarray(r, np.float64) for r in c])
    if t == "MultiPoint":
        return wkb.encode_multi("MultiPoint", c)
    if t == "MultiLineString":
        return wkb.encode_multi("MultiLineString",
                                [np.asarray(l, np.float64) for l in c])
    if t == "MultiPolygon":
        return wkb.encode_multi("MultiPolygon",
                                [[np.asarray(r, np.float64) for r in p] for p in c])
    raise ValueError(f"unsupported GeoJSON type {t}")


def wkb_to_geojson_geom(buf: bytes | None) -> dict | None:
    if buf is None:
        return None
    g = wkb.decode(bytes(buf))
    t = g["type"]
    if t == "Point":
        p = g["rings"][0][0]
        return {"type": "Point", "coordinates": [float(p[0]), float(p[1])]}
    if t in ("LineString", "MultiPoint"):
        return {"type": t, "coordinates": g["rings"][0].tolist()}
    if t == "Polygon":
        return {"type": t, "coordinates": [r.tolist() for r in g["rings"]]}
    if t == "MultiLineString":
        return {"type": t, "coordinates": [r.tolist() for r in g["rings"]]}
    if t == "MultiPolygon":
        parts: dict[int, list] = {}
        for r, p in zip(g["rings"], g["ring_part"]):
            parts.setdefault(p, []).append(r.tolist())
        return {"type": t, "coordinates": [parts[k] for k in sorted(parts)]}
    raise ValueError(t)


def write_jsonl(ds, dir_path: str):
    """Newline-delimited JSON sink — the lingua-franca web-corpus
    interchange format (Common-Crawl-derived corpora, dataset-hub
    dumps ship as ndjson shards). Ray's native distributed writer:
    each task writes its own shard file, so output parallelism follows
    block parallelism and no driver assembly happens (unlike
    write_geojson's single FeatureCollection). Unicode round-trips via
    standard JSON escapes byte-exactly (see q_jsonl_roundtrip)."""
    ds.write_json(dir_path)


def read_jsonl(dir_or_paths):
    """Distributed ndjson read (Arrow's JSON reader, one task per
    file/shard) — the splittable at-scale companion to read_geojson's
    driver-side FeatureCollection parse."""
    import ray.data as rd

    return rd.read_json(dir_or_paths)


def read_geojson(path: str):
    """GeoJSON FeatureCollection file → Dataset with property columns +
    ``geometry`` (WKB binary). The file-level parse is a single driver
    read (GeoJSON is not splittable); rows then stream as blocks —
    for large inputs prefer newline-delimited GeoJSON via read_json."""
    import ray.data as rd

    with open(path) as f:
        fc = json.load(f)
    rows = []
    for feat in fc.get("features", []):
        row = dict(feat.get("properties") or {})
        row["geometry"] = _geojson_geom_to_wkb(feat.get("geometry"))
        rows.append(row)
    df = pd.DataFrame(rows)
    return rd.from_pandas(df)


def write_geojson(ds, path: str, geometry_col: str = "geometry"):
    """Dataset → one GeoJSON FeatureCollection (driver-side assembly;
    for big outputs use write_parquet — this is the interchange sink).
    Streams batch-at-a-time: properties come from the C-level
    ``to_dict('records')`` (no iterrows) and each batch is serialized
    with ONE json.dumps call, so memory is O(batch), not O(file)."""

    def _default(o):
        if hasattr(o, "item"):
            return o.item()
        raise TypeError(type(o))

    n = 0
    with open(path, "w") as f:
        f.write('{"type": "FeatureCollection", "features": [')
        for batch in ds.iter_batches(batch_size=4096,
                                     batch_format="pandas"):
            geoms = [wkb_to_geojson_geom(g) for g in batch[geometry_col]]
            props = batch.drop(columns=[geometry_col]).to_dict("records")
            feats = [{"type": "Feature", "properties": p, "geometry": g}
                     for p, g in zip(props, geoms)]
            if feats:
                chunk = json.dumps(feats, default=_default)[1:-1]
                f.write(("" if n == 0 else ", ") + chunk)
                n += len(feats)
        f.write("]}")
    return n


# ------------------------------------------------------------ Shapefile

_SHP_POINT_TYPES = {1, 11, 21}
_SHP_LINE_TYPES = {3, 13, 23}
_SHP_POLY_TYPES = {5, 15, 25}
_SHP_MPOINT_TYPES = {8, 18, 28}


def _shp_record_to_wkb(buf: memoryview) -> bytes | None:
    """One .shp record content → WKB (Z/M ordinates dropped)."""
    import struct

    (stype,) = struct.unpack_from("<i", buf, 0)
    if stype == 0:
        return None
    if stype in _SHP_POINT_TYPES:
        x, y = struct.unpack_from("<dd", buf, 4)
        return wkb.encode_point(x, y)
    if stype in _SHP_MPOINT_TYPES:
        (n,) = struct.unpack_from("<i", buf, 36)
        pts = np.frombuffer(buf, "<f8", 2 * n, 40).reshape(n, 2)
        return wkb.encode_multi("MultiPoint", pts.tolist())
    if stype in _SHP_LINE_TYPES or stype in _SHP_POLY_TYPES:
        nparts, npoints = struct.unpack_from("<ii", buf, 36)
        parts = np.frombuffer(buf, "<i4", nparts, 44).astype(np.int64)
        pts = np.frombuffer(buf, "<f8", 2 * npoints, 44 + 4 * nparts) \
            .reshape(npoints, 2)
        bounds = np.concatenate([parts, [npoints]])
        rings = [pts[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        if stype in _SHP_LINE_TYPES:
            if len(rings) == 1:
                return wkb.encode_linestring(rings[0])
            return wkb.encode_multi("MultiLineString", rings)
        # polygon: ESRI ring-winding → exterior rings are CLOCKWISE;
        # group each CCW ring (hole) with the preceding exterior
        from pythongis_ray.geom import algo
        polys: list[list[np.ndarray]] = []
        for r in rings:
            if algo.ring_area(r) <= 0 or not polys:  # CW = exterior
                polys.append([r])
            else:
                polys[-1].append(r)
        if len(polys) == 1:
            return wkb.encode_polygon(polys[0])
        return wkb.encode_multi("MultiPolygon", polys)
    raise ValueError(f"unsupported shapefile shape type {stype}")


def parse_shp(path: str) -> list[bytes | None]:
    """.shp file → list of WKB geometries (None for null shapes).
    File layout per the public ESRI whitepaper: 100-byte header, then
    (big-endian record header, little-endian shape) records."""
    import struct

    with open(path, "rb") as f:
        data = f.read()
    (magic,) = struct.unpack_from(">i", data, 0)
    if magic != 9994:
        raise ValueError(f"{path}: not a shapefile (magic {magic})")
    (flen_words,) = struct.unpack_from(">i", data, 24)
    end = flen_words * 2
    out: list[bytes | None] = []
    off = 100
    mv = memoryview(data)
    while off < end:
        (_, clen) = struct.unpack_from(">ii", data, off)
        out.append(_shp_record_to_wkb(mv[off + 8:off + 8 + clen * 2]))
        off += 8 + clen * 2
    return out


def parse_dbf(path: str, encoding: str = "latin-1") -> pd.DataFrame:
    """.dbf (dBase III/IV) attribute table → DataFrame. Field types:
    C→str, N/F→int/float, L→bool, D→str (yyyymmdd). Deleted rows
    (flag '*') are skipped, matching pyshp/the reference loader."""
    import struct

    with open(path, "rb") as f:
        data = f.read()
    nrec, hsize, rsize = struct.unpack_from("<IHH", data, 4)
    fields = []
    off = 32
    while data[off] != 0x0D:
        name = data[off:off + 11].split(b"\x00")[0].decode("ascii")
        ftype = chr(data[off + 11])
        flen = data[off + 16]
        fdec = data[off + 17]
        fields.append((name, ftype, flen, fdec))
        off += 32
    cols: dict[str, list] = {name: [] for name, *_ in fields}
    for i in range(nrec):
        roff = hsize + i * rsize
        if data[roff:roff + 1] == b"*":
            continue
        p = roff + 1
        for name, ftype, flen, fdec in fields:
            raw = data[p:p + flen]
            p += flen
            if ftype in ("N", "F"):
                s = raw.strip()
                if not s or s in (b"*" * len(s),):
                    cols[name].append(None)
                elif ftype == "N" and fdec == 0 and b"." not in s:
                    cols[name].append(int(s))
                else:
                    cols[name].append(float(s))
            elif ftype == "L":
                cols[name].append(raw in b"YyTt")
            else:
                cols[name].append(raw.decode(encoding, "replace").strip())
    return pd.DataFrame(cols)


def read_shapefile(path: str, encoding: str = "latin-1") -> pd.DataFrame:
    """Shapefile → DataFrame with attribute columns + WKB ``geometry``.
    ``path`` may end in .shp or be the basename; .dbf is joined when
    present. Driver-side parse — shapefiles are the SMALL side of the
    engine's joins (zone layers); a huge .shp would instead split by
    .shx record offsets into parallel byte-range parses."""
    import os

    base = path[:-4] if path.lower().endswith(".shp") else path
    geoms = parse_shp(base + ".shp")
    dbf_path = base + ".dbf"
    if os.path.exists(dbf_path):
        df = parse_dbf(dbf_path, encoding)
        if len(df) != len(geoms):
            raise ValueError(f"{path}: .dbf rows {len(df)} != .shp "
                             f"records {len(geoms)}")
    else:
        df = pd.DataFrame(index=range(len(geoms)))
    df["geometry"] = geoms
    return df


def shapefile_dataset(path: str, encoding: str = "latin-1"):
    """Shapefile → Ray Dataset (see :func:`read_shapefile`)."""
    import ray.data as rd

    return rd.from_pandas(read_shapefile(path, encoding))


def write_shapefile(ds, path: str, geometry_col: str = "geometry",
                    crs: str | None = "wgs84"):
    """Dataset → .shp/.shx/.dbf sink (point/line/polygon geometries;
    attribute columns → DBF C/N fields; ``crs`` token → .prj sidecar,
    None to skip). Interchange sink — driver side, like the reference
    saver (vector/saver.py:24-100)."""
    import struct

    base = path[:-4] if path.lower().endswith(".shp") else path
    if crs is not None:
        from pythongis_ray import raster as _raster
        _raster.write_prj(base + ".prj", crs)
    pdf = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    geoms = [None if b is None else wkb.decode(bytes(b))
             for b in pdf[geometry_col]]
    kinds = {g["type"] for g in geoms if g is not None}
    if kinds <= {"Point"}:
        stype = 1
    elif kinds <= {"LineString", "MultiLineString"}:
        stype = 3
    elif kinds <= {"Polygon", "MultiPolygon"}:
        stype = 5
    else:
        raise ValueError(f"mixed geometry types {kinds}")
    recs = []
    for g in geoms:
        if g is None:
            recs.append(struct.pack("<i", 0))
            continue
        if stype == 1:
            x, y = g["rings"][0][0]
            recs.append(struct.pack("<idd", 1, x, y))
        else:
            rings = g["rings"]
            if stype == 5:
                # ESRI winding: exteriors CW, holes CCW. Engine-native
                # rings (encode_rects, dissolve output) are CCW, and a
                # conformant reader classifies by winding — so flip
                # per ring here or MultiPolygon round-trips corrupt
                # (later exteriors would read back as holes).
                ring_part = g.get("ring_part") or [0] * len(rings)
                seen_parts: set = set()
                fixed = []
                for rp, r in zip(ring_part, rings):
                    is_ext = rp not in seen_parts
                    seen_parts.add(rp)
                    area = algo.ring_area(np.asarray(r, np.float64))
                    if (is_ext and area > 0) or (not is_ext and area < 0):
                        r = np.asarray(r)[::-1]
                    fixed.append(np.asarray(r, np.float64))
                rings = fixed
            pts = np.vstack(rings)
            parts, acc = [], 0
            for r in rings:
                parts.append(acc)
                acc += len(r)
            bb = (pts[:, 0].min(), pts[:, 1].min(),
                  pts[:, 0].max(), pts[:, 1].max())
            recs.append(struct.pack(f"<i4dii{len(parts)}i", stype, *bb,
                                    len(parts), len(pts), *parts)
                        + pts.astype("<f8").tobytes())
    # .shp + .shx
    offsets, off = [], 50
    for r in recs:
        offsets.append(off)
        off += 4 + len(r) // 2
    allpts = np.vstack([np.vstack(g["rings"]) for g in geoms
                        if g is not None]) if any(g is not None for g in geoms) \
        else np.zeros((1, 2))
    bbox = (allpts[:, 0].min(), allpts[:, 1].min(),
            allpts[:, 0].max(), allpts[:, 1].max())
    hdr = struct.pack(">iiiiiii", 9994, 0, 0, 0, 0, 0, off) \
        + struct.pack("<ii4d4d", 1000, stype, *bbox, 0, 0, 0, 0)
    with open(base + ".shp", "wb") as f:
        f.write(hdr)
        for i, r in enumerate(recs):
            f.write(struct.pack(">ii", i + 1, len(r) // 2))
            f.write(r)
    shx_len = 50 + 4 * len(recs)
    shx_hdr = struct.pack(">iiiiiii", 9994, 0, 0, 0, 0, 0, shx_len) \
        + struct.pack("<ii4d4d", 1000, stype, *bbox, 0, 0, 0, 0)
    with open(base + ".shx", "wb") as f:
        f.write(shx_hdr)
        for o, r in zip(offsets, recs):
            f.write(struct.pack(">ii", o, len(r) // 2))
    # .dbf
    attr_cols = [c for c in pdf.columns if c != geometry_col]
    fdescs, encoders = [], []
    for c in attr_cols:
        s = pdf[c]
        if pd.api.types.is_integer_dtype(s):
            flen, ftype = 18, b"N"
            encoders.append(lambda v: b"" if v is None else str(int(v)).encode())
        elif pd.api.types.is_float_dtype(s):
            flen, ftype = 18, b"N"
            encoders.append(lambda v: b"" if v is None or v != v
                            else f"{v:.6f}".encode())
        else:
            flen, ftype = 64, b"C"
            encoders.append(lambda v: b"" if v is None else str(v).encode("latin-1", "replace")[:64])
        fdescs.append((c.encode("ascii")[:10], ftype, flen))
    rsize = 1 + sum(f[2] for f in fdescs)
    hsize = 32 + 32 * len(fdescs) + 1
    with open(base + ".dbf", "wb") as f:
        f.write(struct.pack("<BBBBIHH20x", 3, 24, 1, 1, len(pdf), hsize, rsize))
        for name, ftype, flen in fdescs:
            f.write(struct.pack("<11sc4xBB14x", name, ftype, flen, 0))
        f.write(b"\x0d")
        # itertuples: no per-row Series construction (interchange
        # sink — small exports; corpora go through write_parquet)
        for row in pdf[attr_cols].itertuples(index=False, name=None):
            f.write(b" ")
            for (name, ftype, flen), enc, v in zip(fdescs, encoders, row):
                f.write(enc(v).ljust(flen)[:flen])
        f.write(b"\x1a")
    return len(recs)


# ------------------------------------------------------------- XLSX/DTA

def read_xlsx(path: str, sheet: int = 0, header: bool = True) -> pd.DataFrame:
    """Minimal XLSX reader from the public OOXML spec via stdlib
    zipfile + ElementTree (openpyxl/xlrd absent in this container;
    the reference reads XLS via xlrd, loader.py:120-160). Supports
    inline and shared strings, numeric cells, and a header row."""
    import xml.etree.ElementTree as ET
    import zipfile

    NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
    with zipfile.ZipFile(path) as z:
        shared = []
        if "xl/sharedStrings.xml" in z.namelist():
            root = ET.fromstring(z.read("xl/sharedStrings.xml"))
            for si in root.findall(f"{NS}si"):
                shared.append("".join(t.text or ""
                                      for t in si.iter(f"{NS}t")))
        sheets = sorted(n for n in z.namelist()
                        if n.startswith("xl/worksheets/sheet"))
        root = ET.fromstring(z.read(sheets[sheet]))
        rows = []
        for r in root.iter(f"{NS}row"):
            row = {}
            for c in r.findall(f"{NS}c"):
                ref = c.get("r") or ""
                col = "".join(ch for ch in ref if ch.isalpha())
                t = c.get("t")
                v = c.find(f"{NS}v")
                if t == "inlineStr":
                    val = "".join(x.text or "" for x in c.iter(f"{NS}t"))
                elif v is None:
                    val = None
                elif t == "s":
                    val = shared[int(v.text)]
                else:
                    f = float(v.text)
                    val = int(f) if f.is_integer() else f
                row[col] = val
            rows.append(row)
    if not rows:
        return pd.DataFrame()
    cols = sorted({c for r in rows for c in r},
                  key=lambda c: (len(c), c))  # A..Z, AA..
    table = [[r.get(c) for c in cols] for r in rows]
    if header:
        names = [str(h) if h is not None else c
                 for h, c in zip(table[0], cols)]
        return pd.DataFrame(table[1:], columns=names)
    return pd.DataFrame(table, columns=cols)


def write_xlsx(df: pd.DataFrame, path: str):
    """Minimal XLSX writer (inline strings; one sheet) — interchange
    sink mirroring the reference's XLS saver (saver.py:101-149)."""
    import zipfile
    from xml.sax.saxutils import escape

    def cell(ref, v):
        if v is None or (isinstance(v, float) and v != v):
            return ""
        if isinstance(v, (int, float, np.integer, np.floating)):
            return f'<c r="{ref}"><v>{v}</v></c>'
        return (f'<c r="{ref}" t="inlineStr"><is><t>{escape(str(v))}</t>'
                f"</is></c>")

    def colname(i):
        s = ""
        i += 1
        while i:
            i, r = divmod(i - 1, 26)
            s = chr(65 + r) + s
        return s

    body = []
    header = "".join(cell(f"{colname(j)}1", c)
                     for j, c in enumerate(df.columns))
    body.append(f'<row r="1">{header}</row>')
    for i, row in enumerate(df.itertuples(index=False, name=None),
                            start=2):
        cells = "".join(cell(f"{colname(j)}{i}", v)
                        for j, v in enumerate(row))
        body.append(f'<row r="{i}">{cells}</row>')
    sheet = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
             '<worksheet xmlns="http://schemas.openxmlformats.org/'
             'spreadsheetml/2006/main"><sheetData>'
             + "".join(body) + "</sheetData></worksheet>")
    ct = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
          '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
          'content-types"><Default Extension="rels" ContentType='
          '"application/vnd.openxmlformats-package.relationships+xml"/>'
          '<Default Extension="xml" ContentType="application/xml"/>'
          '<Override PartName="/xl/workbook.xml" ContentType="application/'
          'vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
          '<Override PartName="/xl/worksheets/sheet1.xml" ContentType='
          '"application/vnd.openxmlformats-officedocument.spreadsheetml.'
          'worksheet+xml"/></Types>')
    rels = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<Relationships xmlns="http://schemas.openxmlformats.org/'
            'package/2006/relationships"><Relationship Id="rId1" Type='
            '"http://schemas.openxmlformats.org/officeDocument/2006/'
            'relationships/officeDocument" Target="xl/workbook.xml"/>'
            "</Relationships>")
    wb = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
          '<workbook xmlns="http://schemas.openxmlformats.org/'
          'spreadsheetml/2006/main" xmlns:r="http://schemas.'
          'openxmlformats.org/officeDocument/2006/relationships">'
          '<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets>'
          "</workbook>")
    wb_rels = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
               '<Relationships xmlns="http://schemas.openxmlformats.org/'
               'package/2006/relationships"><Relationship Id="rId1" Type='
               '"http://schemas.openxmlformats.org/officeDocument/2006/'
               'relationships/worksheet" Target="worksheets/sheet1.xml"/>'
               "</Relationships>")
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", ct)
        z.writestr("_rels/.rels", rels)
        z.writestr("xl/workbook.xml", wb)
        z.writestr("xl/_rels/workbook.xml.rels", wb_rels)
        z.writestr("xl/worksheets/sheet1.xml", sheet)
    return path


# ------------------------------------------------- legacy .xls (BIFF8)
#
# Pure-stdlib BIFF8-in-OLE2 from the public [MS-CFB] + [MS-XLS] specs
# (the reference reads legacy XLS via xlrd,
# /root/reference/pythongis/vector/loader.py:88-108; xlrd is absent
# here). Reader: CFB FAT/miniFAT streams; BIFF NUMBER/RK/MULRK/
# LABEL/LABELSST+SST/BOOLERR cells. Writer: minimal valid CFB with a
# single padded Workbook stream (regular sectors).

_CFB_MAGIC = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"
_FREESECT, _ENDOFCHAIN, _FATSECT = 0xFFFFFFFF, 0xFFFFFFFE, 0xFFFFFFFD


def _cfb_open_stream(data: bytes, want: str = "Workbook") -> bytes:
    """Extract a named stream from an OLE2 compound file (FAT and
    miniFAT paths both supported)."""
    import struct

    if data[:8] != _CFB_MAGIC:
        raise ValueError("not an OLE2 compound file")
    ssz = 1 << struct.unpack_from("<H", data, 30)[0]
    mssz = 1 << struct.unpack_from("<H", data, 32)[0]
    n_fat = struct.unpack_from("<I", data, 44)[0]
    dir_start = struct.unpack_from("<I", data, 48)[0]
    mini_cutoff = struct.unpack_from("<I", data, 56)[0]
    minifat_start = struct.unpack_from("<I", data, 60)[0]
    difat_start = struct.unpack_from("<I", data, 68)[0]
    n_difat = struct.unpack_from("<I", data, 72)[0]

    def sector(i: int) -> bytes:
        off = 512 + i * ssz
        return data[off:off + ssz]

    # DIFAT: 109 header entries + chained DIFAT sectors
    difat = list(struct.unpack_from("<109I", data, 76))
    s = difat_start
    for _ in range(n_difat):
        blk = sector(s)
        vals = struct.unpack(f"<{ssz // 4}I", blk)
        difat.extend(vals[:-1])
        s = vals[-1]
    fat = []
    for fs in difat[:n_fat]:
        fat.extend(struct.unpack(f"<{ssz // 4}I", sector(fs)))

    def chain(start: int) -> bytes:
        out, s = [], start
        seen = 0
        while s not in (_ENDOFCHAIN, _FREESECT) and seen < len(fat) + 2:
            out.append(sector(s))
            s = fat[s]
            seen += 1
        return b"".join(out)

    dirdata = chain(dir_start)
    entries = []
    for off in range(0, len(dirdata) - 127, 128):
        nlen = struct.unpack_from("<H", dirdata, off + 64)[0]
        name = dirdata[off:off + max(0, nlen - 2)].decode("utf-16-le",
                                                          "replace")
        typ = dirdata[off + 66]
        start = struct.unpack_from("<I", dirdata, off + 116)[0]
        size = struct.unpack_from("<I", dirdata, off + 120)[0]
        entries.append((name, typ, start, size))
    root = next(e for e in entries if e[1] == 5)
    target = next((e for e in entries
                   if e[1] == 2 and e[0].lstrip("\x05") == want), None)
    if target is None:                     # common aliases
        target = next(e for e in entries if e[1] == 2
                      and e[0] in ("Book", "Workbook"))
    name, _, start, size = target
    if size < mini_cutoff:
        # ministream: follow miniFAT inside the root entry's stream
        ministream = chain(root[2])
        minifat = []
        s = minifat_start
        while s not in (_ENDOFCHAIN, _FREESECT):
            minifat.extend(struct.unpack(f"<{ssz // 4}I", sector(s)))
            s = fat[s]
        out, s = [], start
        while s not in (_ENDOFCHAIN, _FREESECT):
            out.append(ministream[s * mssz:(s + 1) * mssz])
            s = minifat[s]
        return b"".join(out)[:size]
    return chain(start)[:size]


def _biff_str(payload: bytes, off: int, cch: int):
    """BIFF8 XLUnicodeRichExtendedString at ``off`` (cch chars known)
    → (text, next_off)."""
    import struct

    grbit = payload[off]
    off += 1
    n_runs = n_ext = 0
    if grbit & 0x08:                       # rich runs
        n_runs = struct.unpack_from("<H", payload, off)[0]
        off += 2
    if grbit & 0x04:                       # ext (phonetic)
        n_ext = struct.unpack_from("<I", payload, off)[0]
        off += 4
    if grbit & 0x01:                       # uncompressed UTF-16LE
        raw = payload[off:off + 2 * cch]
        off += 2 * cch
        txt = raw.decode("utf-16-le", "replace")
    else:                                  # compressed (latin-1 bytes)
        raw = payload[off:off + cch]
        off += cch
        txt = raw.decode("latin-1")
    off += 4 * n_runs + n_ext
    return txt, off


def _rk_value(rk: int) -> float:
    div100 = rk & 1
    if rk & 2:                             # 30-bit signed int
        v = rk >> 2
        if v & 0x20000000:
            v -= 0x40000000
        v = float(v)
    else:                                  # top 30 bits of an IEEE f64
        import struct

        v = struct.unpack("<d", struct.pack("<Q", (rk & ~0x3) << 32))[0]
    return v / 100.0 if div100 else v


def read_xls(path: str, sheet: int = 0, header: bool = True) -> pd.DataFrame:
    """Legacy BIFF8 ``.xls`` reader (reference vector/loader.py:88-108
    via xlrd). Parses the OLE2 Workbook stream: globals substream for
    SST + BOUNDSHEET, then the requested sheet substream's
    NUMBER/RK/MULRK/LABEL/LABELSST/BOOLERR cell records. SST spanning
    CONTINUE records is unsupported (raises) — beyond the small-table
    interchange this covers."""
    import struct

    with open(path, "rb") as f:
        data = f.read()
    stream = _cfb_open_stream(data) if data[:8] == _CFB_MAGIC else data

    # pass 1: globals — SST and sheet offsets
    sst: list[str] = []
    sheets: list[int] = []
    pos = 0
    while pos + 4 <= len(stream):
        op, ln = struct.unpack_from("<HH", stream, pos)
        payload = stream[pos + 4:pos + 4 + ln]
        pos += 4 + ln
        if op == 0x0000:
            break
        if op == 0x0085:                   # BOUNDSHEET
            sheets.append(struct.unpack_from("<I", payload, 0)[0])
        elif op == 0x00FC:                 # SST
            n_unique = struct.unpack_from("<I", payload, 4)[0]
            off = 8
            for _ in range(n_unique):
                if off + 3 > len(payload):
                    raise NotImplementedError(
                        "SST spans CONTINUE records — unsupported")
                cch = struct.unpack_from("<H", payload, off)[0]
                txt, off = _biff_str(payload, off + 2, cch)
                sst.append(txt)
        elif op == 0x000A and sheets:      # globals EOF
            break
    if not sheets:
        raise ValueError(f"{path}: no BOUNDSHEET records")
    pos = sheets[sheet]

    cells: dict[tuple[int, int], object] = {}
    while pos + 4 <= len(stream):
        op, ln = struct.unpack_from("<HH", stream, pos)
        payload = stream[pos + 4:pos + 4 + ln]
        pos += 4 + ln
        if op in (0x000A, 0x0000):         # sheet EOF
            break
        if op == 0x0203:                   # NUMBER
            r, c = struct.unpack_from("<HH", payload, 0)
            cells[(r, c)] = struct.unpack_from("<d", payload, 6)[0]
        elif op == 0x027E:                 # RK
            r, c = struct.unpack_from("<HH", payload, 0)
            cells[(r, c)] = _rk_value(
                struct.unpack_from("<I", payload, 6)[0])
        elif op == 0x00BD:                 # MULRK
            r, c0 = struct.unpack_from("<HH", payload, 0)
            ncell = (ln - 6) // 6
            for i in range(ncell):
                rk = struct.unpack_from("<I", payload, 4 + i * 6 + 2)[0]
                cells[(r, c0 + i)] = _rk_value(rk)
        elif op == 0x00FD:                 # LABELSST
            r, c = struct.unpack_from("<HH", payload, 0)
            cells[(r, c)] = sst[struct.unpack_from("<I", payload, 6)[0]]
        elif op == 0x0204:                 # LABEL (inline string)
            r, c = struct.unpack_from("<HH", payload, 0)
            cch = struct.unpack_from("<H", payload, 6)[0]
            cells[(r, c)], _ = _biff_str(payload, 8, cch)
        elif op == 0x0205:                 # BOOLERR
            r, c = struct.unpack_from("<HH", payload, 0)
            if payload[7] == 0:            # bool (not error)
                cells[(r, c)] = bool(payload[6])
    if not cells:
        return pd.DataFrame()
    nrow = max(r for r, _ in cells) + 1
    ncol = max(c for _, c in cells) + 1
    table = [[cells.get((r, c)) for c in range(ncol)]
             for r in range(nrow)]
    for row in table:
        for i, v in enumerate(row):
            if isinstance(v, float) and v.is_integer():
                row[i] = int(v)
    if header:
        names = [str(h) if h is not None else f"col{i}"
                 for i, h in enumerate(table[0])]
        return pd.DataFrame(table[1:], columns=names)
    return pd.DataFrame(table)


def write_xls(df: pd.DataFrame, path: str, sheet_name: str = "Sheet1"):
    """Minimal BIFF8 ``.xls`` writer (NUMBER + inline LABEL cells in a
    single worksheet, wrapped in a minimal valid OLE2 container) —
    round-trips through :func:`read_xls`; the stream is padded past
    the 4096-byte mini-stream cutoff so it legally lives in regular
    FAT sectors."""
    import struct

    def rec(op: int, payload: bytes) -> bytes:
        return struct.pack("<HH", op, len(payload)) + payload

    def bof(dt: int) -> bytes:
        return rec(0x0809, struct.pack("<HHHHII", 0x0600, dt, 0x0DBB,
                                       0x07CC, 0, 0))

    # sheet substream
    sheet = bytearray(bof(0x0010))
    values = [list(df.columns)] + df.values.tolist()
    for r, row in enumerate(values):
        for c, v in enumerate(row):
            if v is None or (isinstance(v, float) and v != v):
                continue
            if isinstance(v, (int, float, np.integer, np.floating)) \
                    and not isinstance(v, bool):
                sheet += rec(0x0203, struct.pack("<HHHd", r, c, 15,
                                                 float(v)))
            else:
                s = str(v).encode("latin-1", "replace")
                sheet += rec(0x0204, struct.pack("<HHHHB", r, c, 15,
                                                 len(s), 0) + s)
    sheet += rec(0x000A, b"")

    # globals substream: BOUNDSHEET needs the sheet BOF offset
    name = sheet_name.encode("latin-1", "replace")[:31]
    bs_payload = struct.pack("<IHBB", 0, 0, len(name), 0) + name
    globals_len = len(bof(0x0005)) + 4 + len(bs_payload) + 4
    bs_payload = struct.pack("<IHBB", globals_len, 0, len(name), 0) + name
    stream = bytearray(bof(0x0005))
    stream += rec(0x0085, bs_payload)
    stream += rec(0x000A, b"")
    assert len(stream) == globals_len
    stream += sheet
    if len(stream) < 4097:                 # stay above the mini cutoff
        stream += b"\x00" * (4097 - len(stream))

    # OLE2: header | sector0 FAT | sector1 directory | stream sectors
    ssz = 512
    n_stream_sect = (len(stream) + ssz - 1) // ssz
    stream = bytes(stream) + b"\x00" * (n_stream_sect * ssz - len(stream))
    fat = [_FATSECT, _ENDOFCHAIN]          # FAT itself, dir chain
    fat += [2 + i + 1 for i in range(n_stream_sect - 1)] + [_ENDOFCHAIN]
    fat += [_FREESECT] * (ssz // 4 - len(fat))
    if len(fat) > ssz // 4:
        raise NotImplementedError("xls stream > one FAT sector (64 MB)")

    def direntry(nm: str, typ: int, start: int, size: int,
                 child: int = _FREESECT) -> bytes:
        raw = nm.encode("utf-16-le")
        e = bytearray(128)
        e[:len(raw)] = raw
        struct.pack_into("<H", e, 64, len(raw) + 2)
        e[66] = typ
        e[67] = 1                          # black
        struct.pack_into("<III", e, 68, _FREESECT, _FREESECT, child)
        struct.pack_into("<II", e, 116, start, size)
        return bytes(e)

    dirsec = (direntry("Root Entry", 5, _ENDOFCHAIN, 0, child=1)
              + direntry("Workbook", 2, 2, len(stream))
              + bytes(128) + bytes(128))
    hdr = bytearray(512)
    hdr[:8] = _CFB_MAGIC
    struct.pack_into("<H", hdr, 24, 0x003E)   # minor version
    struct.pack_into("<H", hdr, 26, 0x0003)   # major version 3
    struct.pack_into("<H", hdr, 28, 0xFFFE)   # little-endian
    struct.pack_into("<H", hdr, 30, 9)        # 512-byte sectors
    struct.pack_into("<H", hdr, 32, 6)        # 64-byte minisectors
    struct.pack_into("<I", hdr, 44, 1)        # one FAT sector
    struct.pack_into("<I", hdr, 48, 1)        # dir starts at sector 1
    struct.pack_into("<I", hdr, 56, 4096)     # mini cutoff
    struct.pack_into("<I", hdr, 60, _ENDOFCHAIN)  # no miniFAT
    struct.pack_into("<I", hdr, 64, 0)
    struct.pack_into("<I", hdr, 68, _ENDOFCHAIN)  # no DIFAT chain
    struct.pack_into("<I", hdr, 72, 0)
    struct.pack_into("<I", hdr, 76, 0)        # DIFAT[0] = FAT at sector 0
    for i in range(1, 109):
        struct.pack_into("<I", hdr, 76 + 4 * i, _FREESECT)
    with open(path, "wb") as f:
        f.write(bytes(hdr))
        f.write(struct.pack(f"<{ssz // 4}I", *fat))
        f.write(dirsec)
        f.write(stream)
    return path


def read_dta(path: str) -> pd.DataFrame:
    """Stata DTA reader (pandas' built-in parser — no external dep;
    reference loader.py:162-178 uses its own vendored parser)."""
    return pd.read_stata(path)


def write_dta(df: pd.DataFrame, path: str):
    df.to_stata(path, write_index=False)
    return path


# ----------------------------------------------------------------- CSV

def read_points_csv(path: str, xfield: str, yfield: str):
    """CSV with coordinate columns → point layer (adds WKB geometry).
    Column type inference is Arrow's CSV reader (replacing the
    reference's per-cell str→number coercion, loader.py:109-119)."""
    import ray.data as rd

    ds = rd.read_csv(path)

    def add_geom(batch: pa.Table) -> pa.Table:
        lon = batch[xfield].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[yfield].to_numpy(zero_copy_only=False).astype(np.float64)
        geoms = wkb.encode_points(lon, lat)
        return batch.append_column("geometry", pa.array(list(geoms), pa.binary()))

    return map_arrow(ds, add_geom)


def write_csv_with_geometry(ds, dir_path: str, geometry_col: str = "geometry"):
    """CSV sink: geometry serialized as GeoJSON text column (the
    reference CSV saver writes geojson strings, saver.py:150-160)."""
    def stringify(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch[geometry_col] = [
            json.dumps(wkb_to_geojson_geom(b)) if b is not None else ""
            for b in batch[geometry_col]]
        return batch

    return ds.map_batches(stringify, batch_format="pandas",
                          batch_size=8192).write_csv(dir_path)


# ---------------------------------------------------------------- WARC

# Minimal WARC/1.0 response-record reader/writer — the Common-Crawl
# interchange format the north-star pipeline ingests. Writer is a
# distributed sink (one file per block, vectorized record assembly —
# the concatenated record column's Arrow data buffer IS the file
# body); reader parses files Content-Length-driven (the only correct
# framing: payloads may contain any delimiter) with a per-record
# cursor, like the shapefile record parser. Dates carry microseconds
# (WARC/1.1-style fractional seconds) so `warc_ts` round-trips
# bit-exactly.

def _warc_file_name(urls, n: int) -> str:
    from pythongis_ray import text as _text

    h = _text._poly_hash_segments(
        np.frombuffer(urls[0].as_py().encode(), dtype=np.uint8),
        np.array([0]), np.array([len(urls[0].as_py().encode())]))[0]
    return f"part-{int(h):016x}-{n}"


def write_warc(ds, dir_path: str, url_col: str = "url",
               ts_col: str = "warc_ts", payload_col: str = "html",
               compress: bool = False) -> int:
    """Dataset → directory of .warc[.gz] files (one per block; block
    names are content-derived so re-runs overwrite, not duplicate —
    the resumable-sink discipline of checkpoint.py). Returns the
    number of records written."""
    import os

    import pyarrow.compute as pc

    os.makedirs(dir_path, exist_ok=True)

    def sink(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        urls = batch[url_col].combine_chunks() if isinstance(
            batch[url_col], pa.ChunkedArray) else batch[url_col]
        payload = batch[payload_col]
        us = batch[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        dates = np.char.add(us.astype(str), "Z")
        lens = pc.binary_length(payload).to_numpy(zero_copy_only=False)
        rec = pc.binary_join_element_wise(
            pa.array([b"WARC/1.0\r\nWARC-Type: response\r\n"
                      b"WARC-Target-URI: "] * n, pa.binary()),
            pc.cast(urls, pa.binary()),
            pa.array([b"\r\nWARC-Date: "] * n, pa.binary()),
            pa.array(dates.astype(bytes), pa.binary()),
            pa.array([b"\r\nContent-Length: "] * n, pa.binary()),
            pc.cast(pc.cast(pa.array(lens.astype(np.int64)), pa.string()),
                    pa.binary()),
            pa.array([b"\r\n\r\n"] * n, pa.binary()),
            pc.cast(payload, pa.binary()),
            pa.array([b"\r\n\r\n"] * n, pa.binary()),
            b"").combine_chunks()
        # the concatenation of all records == the array's data buffer
        offs = np.frombuffer(rec.buffers()[1], dtype=np.int32)[
            rec.offset:rec.offset + n + 1]
        body = rec.buffers()[2][offs[0]:offs[-1]]
        name = _warc_file_name(urls, n)
        if compress:
            import gzip
            data = gzip.compress(bytes(body), mtime=0)
            path = os.path.join(dir_path, name + ".warc.gz")
        else:
            data = body
            path = os.path.join(dir_path, name + ".warc")
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "file": pa.array([os.path.basename(path)])})

    out = ds.map_batches(sink, batch_format="pyarrow",
                         batch_size=2048).to_pandas()
    # manifest: THIS run's files. Re-runs with different batching
    # produce different part names; read_warc prefers the manifest so
    # stale parts from an earlier differently-batched run are ignored
    # (same discipline as checkpoint.py's partition manifest).
    import json

    mtmp = os.path.join(dir_path, "_MANIFEST.json.tmp")
    with open(mtmp, "w") as f:
        json.dump({"files": sorted(out["file"].tolist())}, f)
    os.replace(mtmp, os.path.join(dir_path, "_MANIFEST.json"))
    return int(out["n"].sum())


def parse_warc_bytes(data: bytes) -> pa.Table:
    """One WARC file's bytes → (url, warc_ts, html) table.
    Content-Length-driven cursor; raises on malformed framing."""
    urls, dates, payloads = [], [], []
    pos, total = 0, len(data)
    while pos < total:
        if data[pos:pos + 8] != b"WARC/1.0":
            raise ValueError(f"WARC: bad record header at byte {pos}")
        hend = data.find(b"\r\n\r\n", pos)
        if hend < 0:
            raise ValueError("WARC: unterminated header block")
        headers = {}
        for line in data[pos:hend].split(b"\r\n")[1:]:
            k, _, v = line.partition(b": ")
            headers[k] = v
        clen = int(headers[b"Content-Length"])
        body = data[hend + 4:hend + 4 + clen]
        if len(body) != clen:
            raise ValueError("WARC: truncated payload")
        urls.append(headers[b"WARC-Target-URI"].decode())
        dates.append(headers[b"WARC-Date"].decode().rstrip("Z"))
        payloads.append(body)
        pos = hend + 4 + clen + 4  # payload + \r\n\r\n separator
    ts = np.array(dates, dtype="datetime64[us]")
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts),
        "html": pa.array(payloads, pa.binary()),
    })


def read_warc(dir_or_paths):
    """Directory (or path list) of .warc[.gz] files → Dataset
    (url, warc_ts, html). Files stream as independent blocks
    (read_binary_files), each parsed in one map task — per-file
    parallelism, nothing driver-side."""
    import ray.data as rd

    if isinstance(dir_or_paths, str):
        import json
        import os

        mpath = os.path.join(dir_or_paths, "_MANIFEST.json")
        if os.path.exists(mpath):
            names = json.load(open(mpath))["files"]
            dir_or_paths = [os.path.join(dir_or_paths, n) for n in names]
    ds = rd.read_binary_files(dir_or_paths, include_paths=True)

    def parse(batch: pd.DataFrame) -> pa.Table:
        tables = []
        for _path, data in zip(batch["path"], batch["bytes"]):
            data = bytes(data)
            # magic-byte sniff, NOT extension: Ray's read_binary_files
            # already auto-decompresses *.gz via the Arrow filesystem,
            # so extension-based logic would double-decompress
            if data[:2] == b"\x1f\x8b":
                import gzip
                data = gzip.decompress(data)
            tables.append(parse_warc_bytes(data))
        if not tables:
            return parse_warc_bytes(b"")
        return pa.concat_tables(tables)

    return ds.map_batches(parse, batch_format="pandas", batch_size=4)


# --- GeoPackage (OGC 12-128r19) — stdlib sqlite3, no GDAL -----------------

_GPKG_SRS = (
    ("Undefined cartesian SRS", -1, "NONE", -1, "undefined", None),
    ("Undefined geographic SRS", 0, "NONE", 0, "undefined", None),
    ("WGS 84 geodetic", 4326, "EPSG", 4326,
     'GEOGCS["WGS 84",DATUM["WGS_1984",'
     'SPHEROID["WGS 84",6378137,298.257223563]],'
     'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]]', None),
)


def _gpkg_parse_blob(blob: bytes) -> bytes | None:
    """GeoPackageBinary → plain WKB (header: magic 'GP', version,
    flags [bit0 endianness of srs_id, bits1-3 envelope indicator,
    bit5 empty-geometry], int32 srs_id, optional envelope doubles)."""
    import struct

    if blob is None or len(blob) < 8 or blob[:2] != b"GP":
        return None
    flags = blob[3]
    # OGC 12-128r19 flag byte: bit 5 = ExtendedGeoPackageBinary,
    # bit 4 = empty geometry, bits 1-3 envelope, bit 0 byte order
    if flags & 0x20:
        raise ValueError("gpkg: ExtendedGeoPackageBinary geometry "
                         "not supported")
    if flags & 0x10:            # empty-geometry flag
        return None
    env = (flags >> 1) & 0x07
    n_env = {0: 0, 1: 4, 2: 6, 3: 6, 4: 8}.get(env)
    if n_env is None:
        raise ValueError(f"gpkg: invalid envelope indicator {env}")
    return blob[8 + 8 * n_env:]


def read_geopackage(path: str, layer: str | None = None):
    """GeoPackage feature layer → Dataset with attribute columns +
    ``geometry`` (plain WKB). ``layer=None`` picks the single feature
    layer (raises if ambiguous). Driver-side sqlite read (a .gpkg is
    one local sqlite file — not splittable); rows stream as blocks
    after the parse, like read_geojson."""
    import sqlite3

    import ray.data as rd

    con = sqlite3.connect(path)
    try:
        layers = [r[0] for r in con.execute(
            "SELECT table_name FROM gpkg_contents "
            "WHERE data_type = 'features'")]
        if layer is None:
            if len(layers) != 1:
                raise ValueError(f"gpkg has {len(layers)} feature "
                                 f"layers {layers}; pass layer=")
            layer = layers[0]
        elif layer not in layers:
            raise ValueError(f"gpkg layer {layer!r} not in {layers}")
        (gcol,) = next(con.execute(
            "SELECT column_name FROM gpkg_geometry_columns "
            "WHERE table_name = ?", (layer,)))
        cols = [r[1] for r in con.execute(f'PRAGMA table_info("{layer}")')]
        rows = con.execute(
            f'SELECT {", ".join(chr(34)+c+chr(34) for c in cols)} '
            f'FROM "{layer}"').fetchall()
    finally:
        con.close()
    df = pd.DataFrame(rows, columns=cols)
    df["geometry"] = [_gpkg_parse_blob(b) for b in df[gcol]]
    if gcol != "geometry":
        df = df.drop(columns=[gcol])
    return rd.from_pandas(df)


def write_geopackage(ds, path: str, layer: str = "features",
                     geometry_col: str = "geometry",
                     geometry_type: str = "GEOMETRY", srs_id: int = 4326):
    """Dataset → one GeoPackage feature layer (minimal conformant
    file: gpkg_spatial_ref_sys / gpkg_contents / gpkg_geometry_columns
    + the feature table; application_id 'GPKG'). Driver-side sqlite
    write — the interchange sink, like write_geojson."""
    import os
    import sqlite3

    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        con.execute("PRAGMA application_id = 1196444487")  # 'GPKG'
        con.execute("PRAGMA user_version = 10300")
        con.execute("""CREATE TABLE gpkg_spatial_ref_sys (
            srs_name TEXT NOT NULL, srs_id INTEGER PRIMARY KEY,
            organization TEXT NOT NULL,
            organization_coordsys_id INTEGER NOT NULL,
            definition TEXT NOT NULL, description TEXT)""")
        con.executemany(
            "INSERT INTO gpkg_spatial_ref_sys VALUES (?,?,?,?,?,?)",
            [(n, i, o, oi, d or "undefined", None)
             for n, i, o, oi, d, _ in _GPKG_SRS])
        con.execute("""CREATE TABLE gpkg_contents (
            table_name TEXT PRIMARY KEY, data_type TEXT NOT NULL,
            identifier TEXT UNIQUE, description TEXT DEFAULT '',
            last_change DATETIME, min_x DOUBLE, min_y DOUBLE,
            max_x DOUBLE, max_y DOUBLE, srs_id INTEGER)""")
        con.execute("""CREATE TABLE gpkg_geometry_columns (
            table_name TEXT NOT NULL, column_name TEXT NOT NULL,
            geometry_type_name TEXT NOT NULL, srs_id INTEGER NOT NULL,
            z TINYINT NOT NULL, m TINYINT NOT NULL,
            PRIMARY KEY (table_name, column_name))""")
        con.execute(
            "INSERT INTO gpkg_contents (table_name, data_type, "
            "identifier, srs_id) VALUES (?, 'features', ?, ?)",
            (layer, layer, srs_id))
        con.execute(
            "INSERT INTO gpkg_geometry_columns VALUES (?,?,?,?,0,0)",
            (layer, "geom", geometry_type, srs_id))

        first = True
        n = 0
        import struct

        hdr = b"GP\x00\x01" + struct.pack("<i", srs_id)  # no envelope
        for batch in ds.iter_batches(batch_size=4096,
                                     batch_format="pandas"):
            attrs = [c for c in batch.columns if c != geometry_col]
            if first:
                defs = ", ".join(
                    f'"{c}" {_gpkg_sql_type(batch[c])}' for c in attrs)
                con.execute(
                    f'CREATE TABLE "{layer}" (fid INTEGER PRIMARY KEY '
                    f'AUTOINCREMENT, geom BLOB'
                    + (", " + defs if defs else "") + ")")
                first = False
            ph = ", ".join("?" for _ in range(len(attrs) + 1))
            acols = ", ".join(f'"{c}"' for c in attrs)
            vals = [
                (hdr + bytes(row[geometry_col])
                 if row[geometry_col] is not None else None,
                 *[_py(row[c]) for c in attrs])
                for _, row in batch.iterrows()]
            con.executemany(
                f'INSERT INTO "{layer}" (geom'
                + (", " + acols if acols else "")
                + f") VALUES ({ph})", vals)
            n += len(vals)
        if first:   # empty dataset: still emit the (schema-less) table
            con.execute(f'CREATE TABLE "{layer}" (fid INTEGER PRIMARY '
                        f'KEY AUTOINCREMENT, geom BLOB)')
        con.commit()
    finally:
        con.close()
    return n


def _gpkg_sql_type(col: pd.Series) -> str:
    if pd.api.types.is_integer_dtype(col):
        return "INTEGER"
    if pd.api.types.is_float_dtype(col):
        return "DOUBLE"
    return "TEXT"


def _py(v):
    return v.item() if hasattr(v, "item") else v


# ------------------------------------------- Arrow IPC (Feather) / ORC

# Columnar interchange beyond Parquet: Feather (Arrow IPC) and ORC,
# both as distributed per-block sinks (content-derived part names +
# manifest — the write_warc / checkpoint.py resumable-sink discipline)
# with multi-file Dataset readers.

def _part_file_name(batch: pa.Table) -> str:
    import zlib

    head = batch.slice(0, min(64, batch.num_rows))
    h = zlib.crc32(b"|".join(
        str(head[c][0].as_py()).encode() for c in head.column_names))
    return f"part-{h:08x}-{batch.num_rows}"


def _write_columnar(ds, dir_path: str, ext: str, writer) -> int:
    import json
    import os

    os.makedirs(dir_path, exist_ok=True)

    def sink(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "file": pa.array([], pa.string())})
        name = _part_file_name(batch) + ext
        path = os.path.join(dir_path, name)
        tmp = path + ".tmp"
        writer(batch, tmp)
        os.replace(tmp, path)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                         "file": pa.array([name])})

    out = ds.map_batches(sink, batch_format="pyarrow",
                         batch_size=16384).to_pandas()
    mtmp = os.path.join(dir_path, "_MANIFEST.json.tmp")
    with open(mtmp, "w") as f:
        json.dump({"files": sorted(out["file"].tolist())}, f)
    os.replace(mtmp, os.path.join(dir_path, "_MANIFEST.json"))
    return int(out["n"].sum())


def _read_columnar(dir_or_paths, ext: str, reader):
    import glob
    import json
    import os

    import ray.data as rd

    if isinstance(dir_or_paths, str) and os.path.isdir(dir_or_paths):
        man = os.path.join(dir_or_paths, "_MANIFEST.json")
        if os.path.exists(man):
            with open(man) as f:
                names = json.load(f)["files"]
            paths = [os.path.join(dir_or_paths, n) for n in names]
        else:
            paths = sorted(glob.glob(os.path.join(dir_or_paths,
                                                  f"*{ext}")))
    elif isinstance(dir_or_paths, str):
        paths = [dir_or_paths]
    else:
        paths = list(dir_or_paths)

    def load(batch: pa.Table) -> pa.Table:
        tables = [reader(p) for p in batch["item"].to_pylist()]
        return pa.concat_tables(tables)

    return rd.from_items(paths).map_batches(load, batch_format="pyarrow",
                                            batch_size=1)


def write_feather(ds, dir_path: str) -> int:
    """Dataset → directory of Arrow IPC (Feather v2) files, one per
    block. Returns rows written."""
    import pyarrow.feather as paf

    return _write_columnar(ds, dir_path, ".feather",
                           lambda t, p: paf.write_feather(t, p))


def read_feather(dir_or_paths):
    """Feather directory/paths → Dataset (one read task per file)."""
    import pyarrow.feather as paf

    return _read_columnar(dir_or_paths, ".feather", paf.read_table)


def write_orc(ds, dir_path: str) -> int:
    """Dataset → directory of ORC files, one per block."""
    import pyarrow.orc as porc

    return _write_columnar(ds, dir_path, ".orc",
                           lambda t, p: porc.write_table(t, p))


def read_orc(dir_or_paths):
    """ORC directory/paths → Dataset (one read task per file)."""
    import pyarrow.orc as porc

    return _read_columnar(dir_or_paths, ".orc",
                          lambda p: porc.ORCFile(p).read())


# ------------------------------------------------------------- GPX

# GPS-track interchange (the classic field-data format next to the
# shapefile): one <trk> per row, <trkpt lat lon> per vertex. Writer is
# a distributed per-block sink like write_warc; reader parses with two
# regex kernels (no XML lib needed for the subset we emit — attribute
# order is fixed by our writer and checked by the round-trip oracle).

def write_gpx(ds, dir_path: str, key_col: str = "tid",
              geometry_col: str = "geometry") -> int:
    import json
    import os

    from pythongis_ray.geom import wkb as _wkb

    os.makedirs(dir_path, exist_ok=True)

    def sink(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "file": pa.array([], pa.string())})
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        parts = ['<?xml version="1.0"?>\n<gpx version="1.1">\n']
        for k, buf in zip(keys, batch[geometry_col].to_pylist()):
            g = _wkb.decode(bytes(buf))
            pts = g["rings"][0]
            seg = "".join(
                f'<trkpt lat="{lat!r}" lon="{lon!r}"></trkpt>'
                for lon, lat in pts)
            parts.append(f'<trk><name>{int(k)}</name><trkseg>'
                         f'{seg}</trkseg></trk>\n')
        parts.append("</gpx>\n")
        body = "".join(parts).encode()
        name = f"part-{int(keys[0]):012d}-{n}.gpx"
        path = os.path.join(dir_path, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(body)
        os.replace(tmp, path)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "file": pa.array([name])})

    out = ds.map_batches(sink, batch_format="pyarrow",
                         batch_size=4096).to_pandas()
    mtmp = os.path.join(dir_path, "_MANIFEST.json.tmp")
    with open(mtmp, "w") as f:
        json.dump({"files": sorted(out["file"].tolist())}, f)
    os.replace(mtmp, os.path.join(dir_path, "_MANIFEST.json"))
    return int(out["n"].sum())


def read_gpx(dir_or_paths):
    """GPX directory/paths → Dataset (tid, geometry LineString WKB);
    one parse task per file, two regex kernels per track."""
    import glob
    import json
    import os
    import re

    import ray.data as rd

    from pythongis_ray.geom import wkb as _wkb

    if isinstance(dir_or_paths, str) and os.path.isdir(dir_or_paths):
        man = os.path.join(dir_or_paths, "_MANIFEST.json")
        if os.path.exists(man):
            with open(man) as f:
                paths = [os.path.join(dir_or_paths, n)
                         for n in json.load(f)["files"]]
        else:
            paths = sorted(glob.glob(os.path.join(dir_or_paths, "*.gpx")))
    elif isinstance(dir_or_paths, str):
        paths = [dir_or_paths]
    else:
        paths = list(dir_or_paths)

    trk_re = re.compile(
        r"<trk><name>(\d+)</name><trkseg>(.*?)</trkseg></trk>", re.S)
    pt_re = re.compile(r'<trkpt lat="([^"]+)" lon="([^"]+)">')

    def load(batch: pa.Table) -> pa.Table:
        tids, geoms = [], []
        for p in batch["item"].to_pylist():
            with open(p, "rb") as f:
                text = f.read().decode()
            for m in trk_re.finditer(text):
                tids.append(int(m.group(1)))
                pts = np.array([(float(lon), float(lat))
                                for lat, lon in pt_re.findall(m.group(2))],
                               np.float64)
                geoms.append(_wkb.encode_linestring(pts))
        return pa.table({"tid": pa.array(tids, pa.int64()),
                         "geometry": pa.array(geoms, pa.binary())})

    return rd.from_items(paths).map_batches(load, batch_format="pyarrow",
                                            batch_size=1)


# ------------------------------------------------------------- Avro

# Clean-room Avro 1.11 object-container files (public spec,
# https://avro.apache.org/docs/ — magic Obj\x01, metadata map with the
# JSON schema, codec null, 16-byte sync marker, zigzag-varint framing).
# Flat record schemas over long / double / string / bytes — the subset
# the engine's tables need. Distributed per-block sink + multi-file
# reader like the Feather/ORC pair above.

_AVRO_MAGIC = b"Obj\x01"


def _zz_encode(n: int) -> bytes:
    u = (n << 1) ^ (n >> 63)
    out = bytearray()
    while True:
        b = u & 0x7F
        u >>= 7
        if u:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _zz_read(buf: memoryview, pos: int) -> tuple[int, int]:
    shift = 0
    u = 0
    while True:
        b = buf[pos]
        pos += 1
        u |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    return (u >> 1) ^ -(u & 1), pos


def _avro_schema_of(table: pa.Table) -> tuple[str, list]:
    import json

    fields = []
    kinds = []
    for name, typ in zip(table.schema.names, table.schema.types):
        if pa.types.is_integer(typ):
            at, k = "long", "long"
        elif pa.types.is_floating(typ):
            at, k = "double", "double"
        elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
            at, k = "string", "string"
        elif pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
            at, k = "bytes", "bytes"
        else:
            raise ValueError(f"avro sink: unsupported type {typ}")
        fields.append({"name": name, "type": at})
        kinds.append(k)
    schema = json.dumps({"type": "record", "name": "row",
                         "fields": fields})
    return schema, kinds


def write_avro(ds, dir_path: str) -> int:
    """Dataset → directory of .avro object-container files (one per
    block, codec null). Returns rows written."""
    import hashlib
    import json
    import os
    import struct

    os.makedirs(dir_path, exist_ok=True)

    def sink(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "file": pa.array([], pa.string())})
        schema, kinds = _avro_schema_of(batch)
        cols = []
        for name, kind in zip(batch.schema.names, kinds):
            v = batch[name].to_pylist()
            cols.append((kind, v))
        body = bytearray()
        for i in range(n):
            for kind, v in cols:
                x = v[i]
                if kind == "long":
                    body += _zz_encode(int(x))
                elif kind == "double":
                    body += struct.pack("<d", float(x))
                elif kind == "string":
                    b = x.encode()
                    body += _zz_encode(len(b)) + b
                else:
                    b = bytes(x)
                    body += _zz_encode(len(b)) + b
        sync = hashlib.md5(schema.encode()
                           + _zz_encode(n)).digest()   # deterministic
        meta = {b"avro.schema": schema.encode(),
                b"avro.codec": b"null"}
        head = bytearray(_AVRO_MAGIC)
        head += _zz_encode(len(meta))
        for k, v in sorted(meta.items()):
            head += _zz_encode(len(k)) + k + _zz_encode(len(v)) + v
        head += _zz_encode(0)          # end of metadata map
        head += sync
        head += _zz_encode(n) + _zz_encode(len(body)) + body + sync
        name = f"part-{hashlib.md5(bytes(body[:256])).hexdigest()[:12]}-{n}.avro"
        path = os.path.join(dir_path, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(head)
        os.replace(tmp, path)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "file": pa.array([name])})

    out = ds.map_batches(sink, batch_format="pyarrow",
                         batch_size=16384).to_pandas()
    mtmp = os.path.join(dir_path, "_MANIFEST.json.tmp")
    with open(mtmp, "w") as f:
        json.dump({"files": sorted(out["file"].tolist())}, f)
    os.replace(mtmp, os.path.join(dir_path, "_MANIFEST.json"))
    return int(out["n"].sum())


def _avro_parse(data: bytes) -> pa.Table:
    import json
    import struct

    if data[:4] != _AVRO_MAGIC:
        raise ValueError("not an avro object container")
    buf = memoryview(data)
    pos = 4
    meta = {}
    while True:
        cnt, pos = _zz_read(buf, pos)
        if cnt == 0:
            break
        if cnt < 0:                   # block with byte size prefix
            cnt = -cnt
            _, pos = _zz_read(buf, pos)
        for _ in range(cnt):
            klen, pos = _zz_read(buf, pos)
            k = bytes(buf[pos:pos + klen]).decode()
            pos += klen
            vlen, pos = _zz_read(buf, pos)
            meta[k] = bytes(buf[pos:pos + vlen])
            pos += vlen
    if meta.get("avro.codec", b"null") != b"null":
        raise ValueError("avro reader: only codec null supported")
    schema = json.loads(meta["avro.schema"].decode())
    names = [f["name"] for f in schema["fields"]]
    kinds = [f["type"] for f in schema["fields"]]
    sync = bytes(buf[pos:pos + 16])
    pos += 16
    cols: dict[str, list] = {n: [] for n in names}
    total = len(buf)
    while pos < total:
        cnt, pos = _zz_read(buf, pos)
        blen, pos = _zz_read(buf, pos)
        end = pos + blen
        for _ in range(cnt):
            for n_, k in zip(names, kinds):
                if k == "long":
                    v, pos = _zz_read(buf, pos)
                elif k == "double":
                    v = struct.unpack_from("<d", buf, pos)[0]
                    pos += 8
                else:
                    ln, pos = _zz_read(buf, pos)
                    raw = bytes(buf[pos:pos + ln])
                    pos += ln
                    v = raw.decode() if k == "string" else raw
                cols[n_].append(v)
        if pos != end:
            raise ValueError("avro reader: block length mismatch")
        if bytes(buf[pos:pos + 16]) != sync:
            raise ValueError("avro reader: sync marker mismatch")
        pos += 16
    arrays = []
    for n_, k in zip(names, kinds):
        t = {"long": pa.int64(), "double": pa.float64(),
             "string": pa.string(), "bytes": pa.binary()}[k]
        arrays.append(pa.array(cols[n_], t))
    return pa.table(dict(zip(names, arrays)))


def read_avro(dir_or_paths):
    """Avro directory/paths → Dataset (one parse task per file)."""
    def reader(p):
        with open(p, "rb") as f:
            return _avro_parse(f.read())

    return _read_columnar(dir_or_paths, ".avro", reader)
