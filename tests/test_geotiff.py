"""Minimal GeoTIFF reader vs the reference's real pop rasters."""
import os

import numpy as np
import pytest

from pythongis_ray import raster

NE = "/root/reference/tests/data"


@pytest.mark.skipif(not os.path.exists(f"{NE}/pop2000.tif"),
                    reason="reference data absent")
def test_read_pop2000():
    arr, meta = raster.read_geotiff(f"{NE}/pop2000.tif")
    assert arr.shape == (354, 463)
    x0, px, y0, py = meta["transform"]
    assert px > 0 and py > 0
    assert abs(px - 1 / 24) < 1e-9        # 2.5-arcmin grid
    fin = arr[np.isfinite(arr)]
    assert fin.min() >= 0.0 and fin.max() > 1e5   # population counts


@pytest.mark.skipif(not os.path.exists(f"{NE}/pop2000.tif"),
                    reason="reference data absent")
def test_geotiff_to_tiles_preserves_mass_location(ray_session):
    import ray.data as rd

    tiles = raster.geotiff_to_tiles(f"{NE}/pop2000.tif", res=4)
    ds = rd.from_pandas(tiles)
    stats = raster.summarystats(ds)
    # pop2000 covers ~Yemen (lon 44..63): nonzero pixels must exist
    assert stats["count"] > 0 and stats["max"] > 1e5
    # and a tile far away (americas) must be all nodata
    arr, meta = raster.read_geotiff(f"{NE}/pop2000.tif")
    from pythongis_ray import grid
    # pick the world tile containing lon=-100, lat=40
    vec = tiles
    cnt_far = 0
    for _, row in vec.iterrows():
        xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(
            np.array([np.int64(row.cell_id)], np.uint64)))
        if xmin <= -100 <= xmax and ymin <= 40 <= ymax:
            a = raster.bytes_to_tile(row.tile)
            cnt_far = (a != row.nodata).sum()
    assert cnt_far == 0


def test_world_file_roundtrip(tmp_path):
    t = (10.0, 0.5, 60.0, 0.25)
    p = str(tmp_path / "x.wld")
    raster.write_world_file(p, t)
    assert raster.read_world_file(p) == t


@pytest.mark.skipif(not os.path.exists(f"{NE}/_land_shallow_topo_2048.wld"),
                    reason="reference data absent")
def test_read_reference_world_file_tokens():
    # the reference's sample .wld is a nonstandard 2x3 affine (and is
    # underscore-disabled in its own tests); we only assert the parser
    # tokenizes it — standard A D B E C F files are covered by the
    # roundtrip test above
    vals = [float(tok) for tok in
            open(f"{NE}/_land_shallow_topo_2048.wld").read().split()]
    assert len(vals) == 6 and vals[2] == -180.0


def test_write_geotiff_roundtrip(tmp_path):
    a = (np.arange(12, dtype=np.float32).reshape(3, 4) * 1.5)
    t = (10.0, 0.5, 60.0, 0.25)
    p = str(tmp_path / "rt.tif")
    raster.write_geotiff(p, a, t, nodata=-9.0)
    back, meta = raster.read_geotiff(p)
    assert np.array_equal(back, a.astype(np.float64))
    assert meta["transform"] == t and meta["nodata"] == -9.0


@pytest.mark.skipif(not os.path.exists(f"{NE}/pop2000.tif"),
                    reason="reference data absent")
def test_write_reference_raster_roundtrip(tmp_path):
    src, smeta = raster.read_geotiff(f"{NE}/pop2000.tif")
    p = str(tmp_path / "pop.tif")
    raster.write_geotiff(p, src.astype(np.float32), smeta["transform"])
    back, meta = raster.read_geotiff(p)
    assert np.array_equal(back, src)
    assert meta["transform"] == smeta["transform"]


@pytest.mark.skipif(not os.path.exists(f"{NE}/pop2000.tif"),
                    reason="reference data absent")
@pytest.mark.parametrize("comp", ["deflate", "lzw", "packbits"])
def test_compressed_roundtrip_matches_uncompressed(tmp_path, comp):
    """Recompress a reference pop raster with each codec; the decode
    must be value-equal to the uncompressed read."""
    want, meta = raster.read_geotiff(f"{NE}/pop2000.tif")
    src = want.astype(np.float32)
    p = str(tmp_path / f"pop_{comp}.tif")
    raster.write_geotiff(p, src, meta["transform"], nodata=-9.0,
                         compression=comp)
    got, gmeta = raster.read_geotiff(p)
    np.testing.assert_array_equal(got.astype(np.float32), src)
    assert gmeta["transform"] == meta["transform"]
    assert gmeta["nodata"] == -9.0
    # the compressed file is genuinely compressed (not a stored copy)
    if comp != "packbits":   # float noise rarely RLEs
        assert os.path.getsize(p) < src.nbytes


def test_codec_roundtrip_bytes():
    rng = np.random.default_rng(7)
    for data in (b"", b"\x00" * 1000, bytes(rng.integers(0, 4, 5000,
                                                         dtype=np.uint8)),
                 bytes(rng.integers(0, 256, 70000, dtype=np.uint8))):
        assert raster._lzw_decode(raster._lzw_encode(data)) == data
        assert raster._packbits_decode(raster._packbits_encode(data)) == data


def test_predictor_undo():
    a = np.array([[1, 2, 3, 250], [7, 255, 1, 2]], np.uint8)
    d = a.copy()
    d[:, 1:] = (a[:, 1:].astype(np.int64) - a[:, :-1].astype(np.int64)) \
        .astype(np.uint8)
    out = raster._undo_predictor(d.copy(), 2)
    np.testing.assert_array_equal(out, a)


def test_small_nodata_ascii_roundtrip(tmp_path):
    """nodata=0.0 has a ≤4-byte ASCII — must round-trip (TIFF inline
    rule)."""
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    p = str(tmp_path / "nd.tif")
    raster.write_geotiff(p, a, (0.0, 1.0, 3.0, 1.0), nodata=0.0)
    _, meta = raster.read_geotiff(p)
    assert meta["nodata"] == 0.0


def test_prj_sidecar_roundtrip(tmp_path):
    """.prj write → read recognizes every engine CRS token."""
    for crs in ("wgs84", "webmercator", "utm:31N", "utm:33S",
                "laea:10,52", "moll:0", "moll:-96"):
        p = str(tmp_path / f"{crs.replace(':', '_').replace(',', '_')}.prj")
        raster.write_prj(p, crs)
        assert raster.read_prj(p) == crs
    # a foreign CRS round-trips structurally as a wkt: token (r3 it
    # raised; projecting through it still fails loudly in crs_wkt)
    p = str(tmp_path / "foreign.prj")
    with open(p, "w") as f:
        f.write('PROJCS["NAD83 / Conus Albers",'
                'PROJECTION["Albers_Conic_Equal_Area"]]')
    tok = raster.read_prj(p)
    assert tok.startswith("wkt:PROJCS")
    with pytest.raises(ValueError):
        raster.crs_wkt(tok)


def test_ascii_grid_roundtrip_and_geotiff_parity(tmp_path):
    """ESRI ASCII grid: %.17g round trip is exact; the same grid read
    via ASCII and via GeoTIFF yields identical array + transform;
    center-anchor headers normalize to the same edge convention."""
    from pythongis_ray import raster as R

    rng = np.random.default_rng(3)
    # float32-exact values so the GeoTIFF (f4) path is lossless too
    arr = (np.round(rng.normal(size=(7, 5)) * 100, 3)
           .astype(np.float32).astype(np.float64))
    arr[0, 0] = -9999.0
    transform = (10.0, 0.25, 60.0, 0.25)

    asc = str(tmp_path / "g.asc")
    tif = str(tmp_path / "g.tif")
    R.write_ascii_grid(asc, arr, transform, nodata=-9999.0)
    R.write_geotiff(tif, arr.astype(np.float64), transform,
                    nodata=-9999.0)
    a1, m1 = R.read_ascii_grid(asc)
    a2, m2 = R.read_geotiff(tif)
    assert np.array_equal(a1, arr) and np.array_equal(a2, arr)
    assert m1["transform"] == transform == m2["transform"]
    assert m1["nodata"] == -9999.0

    # center-anchored header variant → same normalized transform
    hdr = (f"ncols 5\nnrows 7\nxllcenter {10.0 + 0.125}\n"
           f"yllcenter {60.0 - 7*0.25 + 0.125}\ncellsize 0.25\n")
    body = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in arr)
    p2 = tmp_path / "c.asc"
    p2.write_text(hdr + body + "\n")
    a3, m3 = R.read_ascii_grid(str(p2))
    assert np.array_equal(a3, arr)
    assert m3["transform"] == transform
    assert m3["nodata"] == -9999.0          # default when header absent


def test_ascii_grid_to_tiles_matches_geotiff(tmp_path):
    import pandas as pd

    from pythongis_ray import raster as R

    rng = np.random.default_rng(5)
    arr = (np.round(rng.uniform(0, 50, size=(16, 16)), 2)
           .astype(np.float32).astype(np.float64))
    transform = (-20.0, 0.5, 30.0, 0.5)
    asc = str(tmp_path / "t.asc")
    tif = str(tmp_path / "t.tif")
    R.write_ascii_grid(asc, arr, transform)
    R.write_geotiff(tif, arr.astype(np.float64), transform)
    ta = R.ascii_grid_to_tiles(asc, res=2)
    tt = R.geotiff_to_tiles(tif, res=2)
    pd.testing.assert_frame_equal(
        ta.reset_index(drop=True), tt.reset_index(drop=True))


def test_ascii_grid_y_origin_ulp_roundtrip(tmp_path):
    """Non-dyadic cellsize × height: the writer nudges yllcorner so
    the reader's yll + h*cs reconstructs the top edge EXACTLY."""
    from pythongis_ray import raster as R

    arr = np.arange(21, dtype=np.float64).reshape(7, 3)
    transform = (10.0, 0.1, 60.05, 0.1)   # 0.1 is not dyadic
    p = str(tmp_path / "u.asc")
    R.write_ascii_grid(p, arr, transform)
    a, m = R.read_ascii_grid(p)
    assert np.array_equal(a, arr)
    assert m["transform"] == transform


def test_multiband_geotiff_roundtrip_all_compressions():
    import tempfile

    rng = np.random.default_rng(3)
    arr = (rng.random((3, 21, 34)) * 255).astype(np.uint8)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        for comp in (None, "deflate", "lzw", "packbits"):
            p = f"{d}/mb_{comp}.tif"
            raster.write_geotiff(p, arr, (-180.0, 1.0, 90.0, 1.0),
                                 compression=comp)
            back, meta = raster.read_geotiff(p)
            assert back.shape == (3, 21, 34)
            assert meta["bands"] == 3
            assert np.array_equal(back, arr), comp
            assert meta["transform"] == (-180.0, 1.0, 90.0, 1.0)


def test_multiband_float_geotiff_roundtrip():
    import tempfile

    rng = np.random.default_rng(4)
    arr = rng.random((2, 10, 13)).astype(np.float32)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        p = f"{d}/f.tif"
        raster.write_geotiff(p, arr, (0.0, 0.5, 5.0, 0.5), nodata=-1.0)
        back, meta = raster.read_geotiff(p)
        assert back.shape == (2, 10, 13) and meta["nodata"] == -1.0
        assert np.allclose(back, arr)


def test_png_roundtrip_gray_and_rgb():
    import tempfile

    rng = np.random.default_rng(5)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        g = (rng.random((12, 17)) * 255).astype(np.uint8).astype(np.float64)
        raster.write_png(f"{d}/g.png", g, transform=(-180.0, 1.0, 90.0, 1.0))
        back, meta = raster.read_png(f"{d}/g.png")
        assert np.array_equal(back, g) and meta["bands"] == 1
        assert meta["transform"] == (-180.0, 1.0, 90.0, 1.0)
        rgb = (rng.random((3, 9, 9)) * 255).astype(np.uint8).astype(np.float64)
        raster.write_png(f"{d}/rgb.png", rgb)
        b2, m2 = raster.read_png(f"{d}/rgb.png")
        assert np.array_equal(b2, rgb) and m2["bands"] == 3


def _png_filter_rows(px: np.ndarray, bpp: int, shift: int) -> bytes:
    """Filter each scanline of an (h, rowbytes) uint8 image with PNG
    filter type 1 + (y + shift) % 4 (Sub/Up/Average/Paeth), computed
    with numpy from the raw bytes, each row led by its filter byte."""
    rows = []
    prev = np.zeros(px.shape[1], np.int64)
    for y, raw in enumerate(px.astype(np.int64)):
        a = np.concatenate([np.zeros(bpp, np.int64), raw[:-bpp]])
        c = np.concatenate([np.zeros(bpp, np.int64), prev[:-bpp]])
        b = prev
        ft = 1 + (y + shift) % 4
        if ft == 1:
            pred = a
        elif ft == 2:
            pred = b
        elif ft == 3:
            pred = (a + b) >> 1
        else:
            p = a + b - c
            pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
            pred = np.where((pa <= pb) & (pa <= pc), a,
                            np.where(pb <= pc, b, c))
        rows.append(bytes([ft]) + ((raw - pred) % 256).astype(np.uint8)
                    .tobytes())
        prev = raw
    return b"".join(rows)


def test_png_reads_all_scanline_filters():
    """Sub/Up/Average/Paeth scanlines (write_png emits filter 0 only)
    decode bit-exact, for gray and RGB, whichever filter starts the
    image."""
    import struct
    import tempfile
    import zlib

    def chunk(typ: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + typ + payload
                + struct.pack(">I", zlib.crc32(typ + payload) & 0xFFFFFFFF))

    rng = np.random.default_rng(8)
    h, w = 11, 13
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        for nch, ctype in ((1, 0), (3, 2)):
            px = rng.integers(0, 256, (h, w * nch), dtype=np.uint8)
            for shift in range(4):
                body = _png_filter_rows(px, nch, shift)
                data = (raster.PNG_MAGIC
                        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8,
                                                     ctype, 0, 0, 0))
                        + chunk(b"IDAT", zlib.compress(body))
                        + chunk(b"IEND", b""))
                path = f"{d}/f{nch}{shift}.png"
                with open(path, "wb") as f:
                    f.write(data)
                arr, meta = raster.read_png(path)
                want = px.reshape(h, w, nch).astype(np.float64)
                want = want[:, :, 0] if nch == 1 else np.moveaxis(want, 2, 0)
                assert meta["bands"] == nch
                assert np.array_equal(arr, want), (nch, shift)


@pytest.mark.skipif(not os.path.exists(f"{NE}/land_shallow_topo_2048.png"),
                    reason="reference data absent")
def test_png_reads_reference_natural_earth_image():
    """The reference's real 2048x1024 RGB basemap (adaptive filters
    incl. Paeth) decodes; ocean blue dominates the channel means."""
    arr, meta = raster.read_png(f"{NE}/land_shallow_topo_2048.png")
    assert arr.shape == (3, 1024, 2048) and meta["bands"] == 3
    means = arr.mean(axis=(1, 2))
    assert means[2] > means[0] and means[2] > means[1]  # blue planet
    assert 40 < means[0] < 60


def test_png_to_tiles_multiband():
    import tempfile

    rng = np.random.default_rng(6)
    rgb = (rng.random((3, 180, 360)) * 200 + 1).astype(np.uint8) \
        .astype(np.float64)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        raster.write_png(f"{d}/w.png", rgb,
                         transform=(-180.0, 1.0, 90.0, 1.0))
        from pythongis_ray import grid

        tiles = raster.png_to_tiles(f"{d}/w.png", res=1)
        assert set(tiles["band"]) == {0, 1, 2}
        # spot-check one pixel per band: tile pixel centers sample the
        # source grid nearest — with 1:1 alignment values must match
        for b in range(3):
            row = tiles[(tiles.band == b)].iloc[0]
            cu = np.array([row["cell_id"]], np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            a = raster.bytes_to_tile(row["tile"])
            lon = xmin + 0.5 * (xmax - xmin) / raster.TILE
            lat = ymin + 0.5 * (ymax - ymin) / raster.TILE
            col = int(np.floor(lon + 180.0))
            srow = int(np.floor(90.0 - lat))
            assert a[0, 0] == np.float32(rgb[b, srow, col])


def test_parse_wkt_reference_prj_roundtrip():
    """Foreign .prj sidecars (the reference's Natural Earth ESRI WKT
    and a hand-made projected CRS) parse structurally and round-trip
    through read_prj → write_prj byte-stably (canonical form is a
    fixed point)."""
    import glob
    import tempfile

    for p in sorted(glob.glob(f"{NE}/*.prj")):
        tree = raster.parse_wkt(open(p).read())
        assert tree["name"] == "GEOGCS"
        assert tree["values"][0] == "GCS_WGS_1984"
        datum = next(v for v in tree["values"]
                     if isinstance(v, dict) and v["name"] == "DATUM")
        sph = next(v for v in datum["values"]
                   if isinstance(v, dict) and v["name"] == "SPHEROID")
        assert sph["values"][1] == 6378137.0
        # canonical form is a fixed point of parse∘format
        canon = raster.format_wkt(tree)
        assert raster.format_wkt(raster.parse_wkt(canon)) == canon

    foreign = ('PROJCS["NAD83 / Conus Albers",GEOGCS["NAD83",'
               'DATUM["North_American_Datum_1983",'
               'SPHEROID["GRS 1980",6378137,298.257222101]],'
               'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]],'
               'PROJECTION["Albers_Conic_Equal_Area"],'
               'PARAMETER["latitude_of_center",23],UNIT["metre",1]]')
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        with open(f"{d}/f.prj", "w") as f:
            f.write(foreign)
        tok = raster.read_prj(f"{d}/f.prj")
        assert tok.startswith("wkt:PROJCS")
        raster.write_prj(f"{d}/g.prj", tok)
        assert raster.read_prj(f"{d}/g.prj") == tok  # stable round-trip
    # the engine's own CRSes still map to their tokens
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        raster.write_prj(f"{d}/u.prj", "utm:33N")
        assert raster.read_prj(f"{d}/u.prj") == "utm:33N"


def test_jpg_roundtrip_gray_and_rgb():
    """Baseline JPEG round-trip via the clean-room T.81 codec (lossy:
    assert closeness, not equality) + .jgw world-file georef."""
    import tempfile

    yy, xx = np.mgrid[0:24, 0:31]
    g = (128 + 90 * np.sin(xx / 6) * np.cos(yy / 5)).astype(np.uint8) \
        .astype(np.float64)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        raster.write_jpg(f"{d}/g.jpg", g, transform=(-180.0, 1.0, 90.0, 1.0),
                         quality=95)
        back, meta = raster.read_jpg(f"{d}/g.jpg")
        assert back.shape == g.shape and meta["bands"] == 1
        assert meta["transform"] == (-180.0, 1.0, 90.0, 1.0)
        assert np.abs(back - g).mean() < 2.0
        rgb = np.stack([(128 + 80 * np.sin(xx / 7)),
                        (128 + 80 * np.cos(yy / 6)),
                        (128 + 50 * np.sin((xx + yy) / 9))]) \
            .astype(np.uint8).astype(np.float64)
        raster.write_jpg(f"{d}/rgb.jpg", rgb, quality=95)
        b2, m2 = raster.read_jpg(f"{d}/rgb.jpg")
        assert b2.shape == rgb.shape and m2["bands"] == 3
        assert np.abs(b2 - rgb).mean() < 3.0


REF_JPG = "/root/reference/pythongis/app/icons/perspectivemap.jpg"


@pytest.mark.skipif(not os.path.exists(REF_JPG),
                    reason="reference data absent")
def test_jpg_reads_reference_real_file():
    """A real libjpeg-produced file from the reference tree decodes
    (its own DQT/DHT tables, subsampled chroma)."""
    arr, meta = raster.read_jpg(REF_JPG)
    assert arr.shape == (3, 250, 238) and meta["bands"] == 3
    assert 200 < arr.mean() < 255          # light-background icon


def test_jpg_to_tiles_multiband():
    import tempfile

    yy, xx = np.mgrid[0:180, 0:360]
    rgb = np.stack([(120 + 60 * np.sin(xx / 40)),
                    (120 + 60 * np.cos(yy / 30)),
                    (120 + 40 * np.sin((xx - yy) / 50))]) \
        .astype(np.uint8).astype(np.float64)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        raster.write_jpg(f"{d}/w.jpg", rgb,
                         transform=(-180.0, 1.0, 90.0, 1.0), quality=95)
        tiles = raster.jpg_to_tiles(f"{d}/w.jpg", res=1)
        assert set(tiles["band"]) == {0, 1, 2}
        decoded, _ = raster.read_jpg(f"{d}/w.jpg")
        from pythongis_ray import grid

        # spot-check one pixel per band: tile pixel centers sample the
        # DECODED grid nearest — with 1:1 alignment values must match
        for b in range(3):
            row = tiles[(tiles.band == b)].iloc[0]
            cu = np.array([row["cell_id"]], np.int64).view(np.uint64)
            xmin, ymin, xmax, ymax = (v[0] for v in grid.cell_bounds(cu))
            a = raster.bytes_to_tile(row["tile"])
            lon = xmin + 0.5 * (xmax - xmin) / raster.TILE
            lat = ymin + 0.5 * (ymax - ymin) / raster.TILE
            col = int(np.floor(lon + 180.0))
            srow = int(np.floor(90.0 - lat))
            assert a[0, 0] == np.float32(decoded[b, srow, col])


def test_gif_raster_roundtrip_and_tiles():
    import tempfile

    rng = np.random.default_rng(7)
    g = rng.integers(0, 256, (20, 33), dtype=np.uint8).astype(np.float64)
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        raster.write_gif(f"{d}/g.gif", g, transform=(-180.0, 1.0, 90.0, 1.0))
        back, meta = raster.read_gif(f"{d}/g.gif")
        # gray writes as RGB triplets; every band equals the source
        assert meta["bands"] == 3 and meta["transform"][0] == -180.0
        for b in range(3):
            assert np.array_equal(back[b], g)
        tiles = raster.gif_to_tiles(f"{d}/g.gif", res=5)
        assert set(tiles["band"]) == {0, 1, 2}


def test_prj_conic_tokens_roundtrip(tmp_path):
    """albers:/lcc: CRS tokens → WKT .prj → token round-trip."""
    for crs in ("albers:-96,23,29.5,45.5", "lcc:-96,23,33,45"):
        p = str(tmp_path / "c.prj")
        raster.write_prj(p, crs)
        assert raster.read_prj(p) == crs
