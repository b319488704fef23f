"""Distributed headless renderer (render.py) — reference renderer.py
Map.save parity for the data-product core: layers rasterize to
associative partial canvases, symbology via classify breaks, output
through the repo's own PNG/JPEG codecs + world file."""
import numpy as np
import pandas as pd
import pytest


def _rd():
    import ray.data as rd

    return rd


def test_point_layer_exact_pixels(ray_session):
    from pythongis_ray import render

    df = pd.DataFrame({"lon": [-180.0, 0.0, 179.0],
                       "lat": [89.9, 0.1, -89.0]})
    m = render.MapCanvas(width=360, height=180)
    m.add_points(_rd().from_pandas(df), color=(255, 0, 0))
    img = m.render()
    col, row, ok = m.to_px(df.lon.to_numpy(), df.lat.to_numpy())
    assert ok.all()
    for r, c in zip(row, col):
        assert tuple(img[r, c]) == (255, 0, 0)
    # background untouched elsewhere
    assert (img == 255).sum() >= 360 * 180 * 3 - 3 * 3 - 27


def test_graduated_points_and_density(ray_session):
    from pythongis_ray import classify, render

    rng = np.random.default_rng(4)
    df = pd.DataFrame({"lon": rng.uniform(-170, 170, 500),
                       "lat": rng.uniform(-80, 80, 500),
                       "val": rng.uniform(0, 100, 500)})
    bks = classify.equal(df["val"].to_numpy(), 5)
    m = render.MapCanvas(width=128, height=64)
    m.add_points(_rd().from_pandas(df), value_col="val", breaks=bks)
    img = m.render()
    # graduated (no explicit color) → sequential ramp colors only
    colored = img[(img != 255).any(axis=2)]
    ramp0 = {tuple(c) for c in render.SEQUENTIAL}
    assert len(colored) > 0
    assert all(tuple(c) in ramp0 for c in colored)

    m2 = render.MapCanvas(width=64, height=32)
    m2.add_points(_rd().from_pandas(df), mode="count")
    img2 = m2.render()
    ramp = {tuple(c) for c in render.SEQUENTIAL}
    colored2 = img2[(img2 != 255).any(axis=2)]
    assert len(colored2) > 0
    assert all(tuple(c) in ramp for c in colored2)


def test_polygon_fill_matches_pip(ray_session):
    from pythongis_ray import render
    from pythongis_ray.geom import wkb as _wkb

    ring = np.array([[-10.0, -10.0], [30.0, -10.0], [30.0, 20.0],
                     [-10.0, 20.0], [-10.0, -10.0]])
    tri = np.array([[-60.0, -40.0], [-20.0, -40.0], [-40.0, 0.0],
                    [-60.0, -40.0]])
    df = pd.DataFrame({"geometry": [_wkb.encode_polygon([ring]),
                                    _wkb.encode_polygon([tri])],
                       "val": [1.0, 2.0]})
    m = render.MapCanvas(width=180, height=90)
    m.add_polygons(_rd().from_pandas(df), color=(0, 0, 200))
    img = m.render()
    # reference check: every pixel center inside the rect must be blue
    x0, y0, x1, y1 = m.bbox
    pxw, pxh = (x1 - x0) / m.width, (y1 - y0) / m.height
    for r in range(m.height):
        for c in range(m.width):
            cx = x0 + (c + 0.5) * pxw
            cy = y1 - (r + 0.5) * pxh
            in_rect = -10 < cx < 30 and -10 < cy < 20
            if in_rect:
                assert tuple(img[r, c]) == (0, 0, 200)
    # triangle contributes some pixels too
    assert (img == (0, 0, 200)).all(axis=2).sum() > \
        int((40 / pxw) * (30 / pxh)) - 5


def test_line_layer_covers_segment(ray_session):
    from pythongis_ray import render
    from pythongis_ray.geom import wkb as _wkb

    seg = _wkb.encode_linestring(np.array([[-90.0, 0.0], [90.0, 0.0]]))
    df = pd.DataFrame({"geometry": [seg]})
    m = render.MapCanvas(width=360, height=180)
    m.add_lines(_rd().from_pandas(df), color=(10, 20, 30))
    img = m.render()
    col0, row, _ = m.to_px(np.array([-90.0]), np.array([0.0]))
    col1, _, _ = m.to_px(np.array([89.9]), np.array([0.0]))
    hit = (img[row[0], col0[0]:col1[0] + 1] == (10, 20, 30)).all(axis=1)
    assert hit.all()                      # continuous horizontal line


def test_save_png_jpg_roundtrip(ray_session, tmp_path):
    from pythongis_ray import raster, render

    df = pd.DataFrame({"lon": [0.0, 10.0], "lat": [0.0, 5.0]})
    m = render.MapCanvas(width=64, height=32)
    m.add_points(_rd().from_pandas(df), color=(200, 30, 40), radius=1)
    img = m.render()
    p = str(tmp_path / "map.png")
    m.save(p)
    back, meta = raster.read_png(p)
    assert meta["bands"] == 3
    assert np.array_equal(np.moveaxis(back, 0, 2).astype(np.uint8), img)
    assert meta["transform"] == (-180.0, 360.0 / 64, 90.0, 180.0 / 32)
    j = str(tmp_path / "map.jpg")
    m.save(j, quality=95)
    jb, jm = raster.read_jpg(j)
    assert jm["bands"] == 3
    assert np.abs(np.moveaxis(jb, 0, 2) - img.astype(np.float64)).mean() < 6


def test_choropleth_end_to_end(ray_session, tmp_path):
    """flagship aggregate → zone choropleth → saved georeferenced PNG
    that decodes to sequential-ramp zone fills."""
    from pythongis_ray import pipelines, raster, render

    p = str(tmp_path / "choro.png")
    pipelines.choropleth("/root/testdata/sf0.001", p, width=180,
                         height=90)
    back, meta = raster.read_png(p)
    assert meta["bands"] == 3 and meta["transform"][0] == -180.0
    img = np.moveaxis(back, 0, 2).astype(np.uint8)
    colored = img[(img != 255).any(axis=2)]
    ramp = {tuple(c) for c in render.SEQUENTIAL}
    assert len(colored) > 100                 # zones actually filled
    # every non-background pixel is a ramp fill or annotation ink
    # (title/legend black, composited since r5)
    assert all(tuple(c) in ramp or tuple(c) == (0, 0, 0)
               for c in colored)
    assert (img == 0).all(axis=2).any()       # annotations present


def test_sparse_density_matches_dense(ray_session):
    """The scale-safe sparse (pixel,count) path produces the exact
    same canvas image as dense per-batch partials."""
    from pythongis_ray import render

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"lon": rng.uniform(-179, 179, 3000),
                       "lat": rng.uniform(-89, 89, 3000)})
    md = render.MapCanvas(width=1024, height=512)
    md.add_points(_rd().from_pandas(df), mode="count", sparse=False)
    ms = render.MapCanvas(width=1024, height=512)
    ms.add_points(_rd().from_pandas(df), mode="count", sparse=True)
    assert np.array_equal(md.render(), ms.render())
    # class mode too
    mc = render.MapCanvas(width=1024, height=512)
    mc.add_points(_rd().from_pandas(df), color=(9, 9, 9), sparse=True)
    mcd = render.MapCanvas(width=1024, height=512)
    mcd.add_points(_rd().from_pandas(df), color=(9, 9, 9), sparse=False)
    assert np.array_equal(mc.render(), mcd.render())


def test_tile_pyramid_consistent_with_world(ray_session, tmp_path):
    """z0..z1 pyramid: each tile is the world render restricted to
    its bbox — checked by re-projecting a known point into both the
    world canvas and its tile; resume skips existing files."""
    import os

    from pythongis_ray import raster, render

    df = pd.DataFrame({"lon": [10.0, -120.0, 45.0],
                       "lat": [50.0, -30.0, 10.0]})

    def layers(m):
        m.add_points(_rd().from_pandas(df), color=(250, 10, 10),
                     sparse=False)

    out = str(tmp_path / "tiles")
    paths = render.render_tile_pyramid(layers, out, zmin=0, zmax=1,
                                       tile_px=64)
    assert len(paths) == 2 + 8             # z0: 2x1, z1: 4x2
    # every source point must appear red in exactly the tile that
    # contains it, at the position its tile-local canvas maps to
    for lon, lat in df.itertuples(index=False):
        for z in (0, 1):
            n = 1 << z
            tw, th = 360.0 / (2 * n), 180.0 / n
            tx = int((lon + 180.0) // tw)
            ty = int((90.0 - lat) // th)
            m = render.MapCanvas(width=64, height=64,
                                 bbox=render.tile_bbox(z, tx, ty))
            col, row, ok = m.to_px(np.array([lon]), np.array([lat]))
            assert ok[0]
            back, _ = raster.read_png(f"{out}/{z}/{tx}/{ty}.png")
            img = np.moveaxis(back, 0, 2).astype(np.uint8)
            assert tuple(img[row[0], col[0]]) == (250, 10, 10)
    # resume: second call skips (same paths, no rewrite)
    mtimes = {p: os.path.getmtime(p) for p in paths}
    paths2 = render.render_tile_pyramid(layers, out, zmin=0, zmax=1,
                                        tile_px=64)
    assert paths2 == paths
    assert all(os.path.getmtime(p) == mtimes[p] for p in paths)


# ------------------------------------------------- annotation layer


def test_title_composited(ray_session):
    from pythongis_ray import render

    df = pd.DataFrame({"lon": [0.0], "lat": [0.0]})
    m = render.MapCanvas(width=200, height=100)
    m.add_points(_rd().from_pandas(df), color=(255, 0, 0))
    m.title = "Map Title"
    img = m.render()
    # title bar: white box with black border + black glyph ink in the
    # top rows, horizontally centered
    top = img[:24]
    assert (top == 0).all(axis=2).sum() > 20          # border + ink
    tw = render.text_width("Map Title", 2)
    x0 = (200 - tw) // 2 - 6
    assert (img[2, x0:x0 + tw + 12] == 0).all()       # top border row
    # without a title the same map has no black ink up there
    m2 = render.MapCanvas(width=200, height=100)
    m2.add_points(_rd().from_pandas(df), color=(255, 0, 0))
    assert not (m2.render()[:24] == 0).all(axis=2).any()


def test_legend_swatch_and_classes(ray_session):
    from pythongis_ray import classify, render

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"lon": rng.uniform(-170, 170, 200),
                       "lat": rng.uniform(-80, 80, 200),
                       "val": rng.uniform(0, 100, 200)})
    bks = classify.equal(df["val"].to_numpy(), 4)
    m = render.MapCanvas(width=300, height=200)
    m.add_points(_rd().from_pandas(df), value_col="val", breaks=bks,
                 label="values")
    m.add_legend(title="Legend")
    img = m.render()
    # the legend box is in the SE corner: locate its white fill and
    # assert one swatch pixel-row per class in ramp order
    entry = m._legend_entries[0]
    assert entry["kind"] == "classes" and len(entry["breaks"]) == 5
    # swatch colors appear in the image (4 classes → first 4 ramp colors)
    flat = img.reshape(-1, 3)
    for c in render.SEQUENTIAL[:4]:
        assert (flat == np.asarray(c, np.uint8)).all(axis=1).any(), c
    # formatted break labels end up as black ink inside the box
    se = img[120:, 180:]
    assert (se == 0).all(axis=2).sum() > 30


def test_size_graduated_points_and_legend(ray_session):
    from pythongis_ray import render

    df = pd.DataFrame({"lon": [-90.0, 90.0], "lat": [0.0, 0.0],
                       "pop": [0.0, 2_000_000.0]})
    m = render.MapCanvas(width=360, height=180)
    m.add_points(_rd().from_pandas(df), size_col="pop", sizes=(2, 8),
                 color=(200, 0, 0), label="population")
    m.add_legend()
    img = m.render()
    red = (img == np.asarray((200, 0, 0), np.uint8)).all(axis=2)
    col, row, _ = m.to_px(df.lon.to_numpy(), df.lat.to_numpy())
    # small symbol: radius-2 disc (13 px); big symbol: radius-8 disc
    half = 360 // 2
    small = red[:, :half - 20].sum()   # around lon=-90
    big = red[60:120, half:half + 160].sum()  # around lon=+90, mid rows
    assert 10 <= small <= 30
    assert big >= 150                  # ~197 px disc (+ none of legend)
    # legend labels use the value formatter: 0 and 2M
    assert m._legend_entries[0]["kind"] == "sizes"
    assert render.format_value(2_000_000) == "2M"
    assert render.format_value(0) == "0"


def test_format_value_magnitudes():
    from pythongis_ray.render import format_value

    assert format_value(1_200_000) == "1.2M"
    assert format_value(2_500_000_000) == "2.5B"
    assert format_value(1500) == "1.5K"
    assert format_value(100) == "100"
    assert format_value(12.4) == "12"
    assert format_value(1.25) == "1.2"
    assert format_value(0.25) == "0.25"
    assert format_value(0.5) == "0.5"
    assert format_value(0.999) == "1"
    assert format_value(0.001) == "0"
