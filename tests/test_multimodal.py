import os

import numpy as np
import pyarrow as pa
import pytest

from pythongis_ray import multimodal as mm


def test_stub_raises_without_fake():
    dec = mm.DecodeImage(fake=False)
    with pytest.raises(NotImplementedError):
        dec._decode_one(b"xx", 4, 4, 3)


def test_image_pipeline_end_to_end(ray_session):
    import ray.data as rd

    df = mm.synthesize_media(32, "image", payload_bytes=1024)
    ds = rd.from_pandas(df)
    out = mm.image_pipeline(ds, fake=True, out_w=8, out_h=8).to_pandas()
    assert len(out) == 32
    assert (out.meta_w == 8).all() and (out.meta_h == 8).all()
    f = np.asarray(out.features.iloc[0])
    assert len(f) == 3 + 3 + 8  # means + stds + hist bins
    assert np.isclose(f[6:].sum(), 1.0)  # histogram normalized
    # determinism
    out2 = mm.image_pipeline(rd.from_pandas(df), fake=True, out_w=8, out_h=8).to_pandas()
    assert np.array_equal(np.asarray(out.features.iloc[5]),
                          np.asarray(out2.features.iloc[5]))


def test_frame_sample():
    df = mm.synthesize_media(16, "image", payload_bytes=64)
    t = pa.Table.from_pandas(df)
    out = mm.frame_sample(t, every=4)
    assert out.num_rows == 4
    assert out["id"].to_pylist() == [0, 4, 8, 12]


def test_resize_nearest_semantics(ray_session):
    # a 2x2 image upscaled: nearest must replicate source pixels
    dec = mm.DecodeImage(fake=True)
    rs = mm.ResizeImage(out_w=4, out_h=4)
    src = np.arange(2 * 2 * 3, dtype=np.uint8).tobytes()
    t = pa.table({"id": [1], "pixels": [src],
                  "meta_w": [np.int32(2)], "meta_h": [np.int32(2)],
                  "meta_channels": [np.int32(3)]})
    out = rs(t)
    a = np.frombuffer(out["pixels"].to_pylist()[0], np.uint8).reshape(4, 4, 3)
    s = np.frombuffer(src, np.uint8).reshape(2, 2, 3)
    assert (a[0, 0] == s[0, 0]).all() and (a[3, 3] == s[1, 1]).all()
    assert (a[0, 1] == s[0, 0]).all()  # nearest replication


def test_uniform_stack_matches_fallback():
    """Vectorized uniform-batch kernels must equal the per-row path."""
    rng = np.random.default_rng(1)
    n, h, w, c = 6, 5, 4, 3
    bufs = [rng.integers(0, 256, h * w * c, dtype=np.uint8).tobytes()
            for _ in range(n)]
    t = pa.table({"id": list(range(n)), "pixels": bufs,
                  "meta_w": pa.array([w] * n, pa.int32()),
                  "meta_h": pa.array([h] * n, pa.int32()),
                  "meta_channels": pa.array([c] * n, pa.int32())})
    stack = mm._stack_uniform(t, "pixels")
    assert stack is not None and stack.shape == (n, h, w, c)
    feats_vec = mm.ImageFeatures()(t)["features"].to_pylist()
    # force the fallback by a mixed-shape batch of one
    for i in range(n):
        ti = t.slice(i, 1)
        a = np.frombuffer(bufs[i], np.uint8).reshape(h, w, c).astype(np.float64)
        exp_mu = a.mean(axis=(0, 1))
        assert np.allclose(feats_vec[i][:3], exp_mu)
        hist, _ = np.histogram(a, bins=np.linspace(0, 256, 9))
        assert np.allclose(feats_vec[i][6:], hist / a.size)
    # resize: vectorized equals per-row
    rs = mm.ResizeImage(out_w=2, out_h=2)
    out_vec = rs(t)["pixels"].to_pylist()
    for i in range(n):
        a = np.frombuffer(bufs[i], np.uint8).reshape(h, w, c)
        yi = np.arange(2) * h // 2
        xi = np.arange(2) * w // 2
        assert out_vec[i] == a[yi][:, xi].tobytes()


def test_audio_pipeline(ray_session):
    import ray.data as rd

    df = mm.synthesize_media(16, "audio", payload_bytes=2048)
    out = mm.audio_pipeline(rd.from_pandas(df), fake=True).to_pandas()
    assert len(out) == 16
    # oracle: per-clip numpy on the raw payload
    for i in (0, 5, 15):
        wav = np.frombuffer(df.payload.iloc[i][:2048], dtype="<i2") \
            .astype(np.float64)
        assert np.isclose(out.rms.iloc[i], np.sqrt((wav ** 2).mean()))
        assert out.peak.iloc[i] == np.abs(wav).max()
        sign = np.signbit(wav)
        assert np.isclose(out.zcr.iloc[i],
                          (sign[1:] != sign[:-1]).sum() / len(wav))


def test_audio_stub_raises(ray_session):
    import ray.data as rd

    df = mm.synthesize_media(2, "audio", payload_bytes=64)
    with pytest.raises(Exception):
        mm.audio_pipeline(rd.from_pandas(df), fake=False).to_pandas()


def test_sample_frames_uniform_and_mixed(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(6, kind="video")
    batch = pa.Table.from_pandas(df)
    out = mm.SampleFrames(every=3)(batch)
    # 8 frames, every 3rd -> idx 0,3,6 per video
    assert out.num_rows == 6 * 3
    assert out["frame_idx"].to_pylist()[:3] == [0, 3, 6]
    # frame bytes are the exact payload slice
    fsz = 16 * 12 * 3
    src = bytes(df.payload[0])
    got = out["payload"][1].as_py()
    assert got == src[3 * fsz:4 * fsz]
    # mixed shapes take the per-row path, same framing contract
    df2 = df.copy()
    df2.loc[0, "meta_frames"] = np.int32(5)
    out2 = mm.SampleFrames(every=3)(pa.Table.from_pandas(df2))
    assert out2.num_rows == 2 + 5 * 3  # video0: idx 0,3; others: 3 each
    assert not mm.SampleFrames(every=3).__call__.__name__ == "missing"


def test_video_pipeline_end_to_end(ray_session):
    import ray.data as rd

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(12, kind="video")
    ds = rd.from_pandas(df)
    out = mm.video_pipeline(ds, every=4).to_pandas()
    assert len(out) == 12 * 2  # frames 0 and 4 of 8
    assert {"id", "frame_idx", "mean", "std"} <= set(out.columns) or \
        {"id", "frame_idx"} <= set(out.columns)
    assert out.groupby("id").size().eq(2).all()


def test_sample_frames_real_decode_raises(ray_session):
    import pyarrow as pa
    import pytest as _pytest

    from pythongis_ray import multimodal as mm

    # raw (non-Y4M) payloads with fake=False raise at the call site
    df = mm.synthesize_media(2, kind="video")
    with _pytest.raises(NotImplementedError):
        mm.SampleFrames(fake=False)(pa.Table.from_pandas(df))


def _ref_ahash(payload: bytes, w: int, h: int, c: int) -> int:
    """Independent reference aHash over the fake decode."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    reps = -(-(w * h * c) // len(raw))
    img = np.tile(raw, reps)[: w * h * c].reshape(h, w, c)
    gray = img.astype(np.int64).sum(axis=2)
    hh, ww = h - h % 8, w - w % 8
    gray = gray[:hh, :ww]
    bh, bw = hh // 8, ww // 8
    blocks = [gray[by * bh:(by + 1) * bh, bx * bw:(bx + 1) * bw].sum()
              for by in range(8) for bx in range(8)]
    tot = sum(blocks)
    bits = 0
    for i, b in enumerate(blocks):
        if b * 64 > tot:
            bits |= 1 << i
    return bits


def test_image_neardup_pairs_matches_bruteforce(ray_session):
    import ray.data as rd

    df = mm.synthesize_media(24, "image", payload_bytes=4096)
    # plant near-dups: copies of images 0..5 with one payload byte bumped
    dups = df.head(6).copy()
    dups["id"] = dups["id"] + 100
    dups["payload"] = [
        bytes([(b + 1) % 256 if j == 17 else b for j, b in enumerate(p)])
        for p in dups["payload"]]
    full = __import__("pandas").concat([df, dups], ignore_index=True)

    out = mm.image_neardup_pairs(rd.from_pandas(full), max_hamming=6) \
        .to_pandas()
    got = {(a, b): h for a, b, h in zip(out.id_a, out.id_b, out.hamming)}

    hashes = {row.id: _ref_ahash(row.payload, row.meta_w, row.meta_h,
                                 row.meta_channels)
              for row in full.itertuples()}
    want = {}
    ids = sorted(hashes)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            x = hashes[a] ^ hashes[b]
            ham = bin(x).count("1")
            bands_share = any(((hashes[a] >> (16 * k)) & 0xFFFF)
                              == ((hashes[b] >> (16 * k)) & 0xFFFF)
                              for k in range(4))
            if ham <= 6 and bands_share:
                want[(a, b)] = ham
    assert got == want
    # the planted one-byte dups must actually be near their originals
    assert sum(1 for (a, b) in want if b == a + 100) >= 4


def test_real_png_decode_pipeline(ray_session):
    """PNG payloads decode for REAL (pure-zlib codec, no PIL): the
    decoded pixels are bit-exact vs the source arrays, and the full
    decode → resize → features → phash chain runs on them with
    fake=False."""
    import pandas as pd
    import ray.data as rd

    from pythongis_ray import multimodal as mm, raster

    rng = np.random.default_rng(11)
    srcs = [rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
            for _ in range(6)]
    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64), "kind": ["image"] * 6,
        "payload": [raster.encode_png_bytes(p) for p in srcs],
        "meta_w": np.full(6, 0, np.int32),      # wrong on purpose:
        "meta_h": np.full(6, 0, np.int32),      # decoded truth wins
        "meta_channels": np.full(6, 0, np.int32)})
    ds = rd.from_pandas(df)
    px = ds.map_batches(mm.DecodeImage, batch_size=mm.MEDIA_BATCH_ROWS,
                        batch_format="pyarrow", concurrency=1,
                        fn_constructor_kwargs={"fake": False})
    out = px.to_pandas().sort_values("id")
    assert (out.meta_w == 64).all() and (out.meta_h == 48).all()
    for i, row in out.iterrows():
        got = np.frombuffer(row["pixels"], np.uint8).reshape(48, 64, 3)
        assert np.array_equal(got, srcs[int(row["id"])])
    feats = px.map_batches(mm.ImageFeatures, batch_size=8,
                           batch_format="pyarrow", concurrency=1) \
        .map_batches(mm.PerceptualHash, batch_size=8,
                     batch_format="pyarrow", concurrency=1).to_pandas()
    assert len(feats) == 6 and feats["phash"].nunique() == 6


def test_real_bmp_decode_roundtrip(ray_session):
    from pythongis_ray import multimodal as mm

    rng = np.random.default_rng(12)
    px = rng.integers(0, 256, (10, 7, 3), dtype=np.uint8)  # odd width pad
    data = mm.encode_bmp_bytes(px)
    back = mm.decode_bmp_bytes(data)
    assert np.array_equal(back, px)


def test_synthesize_media_png_kind_decodes(ray_session):
    import ray.data as rd

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(4, kind="png")
    ds = rd.from_pandas(df)
    out = ds.map_batches(mm.DecodeImage, batch_size=4,
                         batch_format="pyarrow", concurrency=1,
                         fn_constructor_kwargs={"fake": False}).to_pandas()
    assert len(out) == 4
    assert (out.meta_w == 64).all() and (out.meta_channels == 3).all()


def test_wav_codec_roundtrip():
    from pythongis_ray import multimodal as mm

    rng = np.random.default_rng(21)
    mono = rng.integers(-30000, 30000, 1000, dtype=np.int16)
    wave, sr = mm.decode_wav_bytes(mm.encode_wav_bytes(mono, 22050))
    assert sr == 22050 and np.array_equal(wave, mono)
    # stereo downmixes by integer mean
    st = rng.integers(-30000, 30000, (500, 2), dtype=np.int16)
    wave2, sr2 = mm.decode_wav_bytes(mm.encode_wav_bytes(st, 8000))
    want = (st.astype(np.int32).sum(1) // 2).astype(np.int16)
    assert sr2 == 8000 and np.array_equal(wave2, want)


def test_real_wav_audio_pipeline(ray_session):
    import ray.data as rd

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(8, kind="wav")
    out = mm.audio_pipeline(rd.from_pandas(df), fake=False).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert len(out) == 8
    assert (out.meta_sr == 8000).all() and (out.meta_samples == 800).all()
    # features computed over the DECODED waveform
    rng = np.random.default_rng(42)
    for i in (0, 7):
        # synthesize_media draws per-row in order; regenerate row i's wave
        pass
    wav0 = np.frombuffer(
        mm.decode_wav_bytes(bytes(df.payload.iloc[0]))[0].tobytes(),
        "<i2").astype(np.float64)
    assert np.isclose(out.rms.iloc[0], np.sqrt((wav0 ** 2).mean()))


def test_y4m_codec_mono_lossless_color_close():
    from pythongis_ray import multimodal as mm

    rng = np.random.default_rng(22)
    gray = rng.integers(0, 256, (3, 10, 8), dtype=np.uint8)
    frames, w, h, c = mm.decode_y4m_bytes(mm.encode_y4m_bytes(gray))
    assert (w, h, c) == (8, 10, 1)
    assert np.array_equal(frames[:, :, :, 0], gray)
    rgb = rng.integers(0, 256, (2, 6, 4, 3), dtype=np.uint8)
    back, w2, h2, c2 = mm.decode_y4m_bytes(mm.encode_y4m_bytes(rgb))
    assert (w2, h2, c2) == (4, 6, 3)
    # C444 BT.601 round trip is lossy only to rounding
    assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 3


def test_y4m_frame_selection():
    from pythongis_ray import multimodal as mm

    rng = np.random.default_rng(23)
    gray = rng.integers(0, 256, (7, 4, 4), dtype=np.uint8)
    data = mm.encode_y4m_bytes(gray)
    frames, _, _, _ = mm.decode_y4m_bytes(data, sel=range(0, 1 << 30, 3))
    assert frames.shape[0] == 3          # idx 0, 3, 6
    assert np.array_equal(frames[1][:, :, 0], gray[3])


def test_real_y4m_video_pipeline(ray_session):
    import ray.data as rd

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(5, kind="y4m")
    ds = rd.from_pandas(df)
    out = mm.video_pipeline(ds, every=2, fake=False).to_pandas()
    # 6 frames, every 2nd -> idx 0, 2, 4 per clip
    assert len(out) == 5 * 3
    assert set(out.frame_idx) == {0, 2, 4}
    assert (out.meta_w == 16).all() and (out.meta_h == 12).all()


def test_sample_frames_mixed_y4m_and_raw(ray_session):
    import pandas as pd
    import pyarrow as pa

    from pythongis_ray import multimodal as mm

    real = mm.synthesize_media(2, kind="y4m")
    fake = mm.synthesize_media(2, kind="video")
    fake["id"] += 100
    batch = pa.Table.from_pandas(
        pd.concat([real, fake], ignore_index=True))
    out = mm.SampleFrames(every=3)(batch).to_pandas()
    # y4m: 6 frames -> idx 0,3; raw: 8 frames -> idx 0,3,6
    assert len(out) == 2 * 2 + 2 * 3
    y4m_rows = out[out.id < 100]
    assert sorted(set(y4m_rows.frame_idx)) == [0, 3]


def test_jpeg_codec_subsampling_roundtrip():
    """Clean-room T.81 codec: 4:4:4 / 4:2:2 / 4:2:0 all round-trip on
    a smooth image (lossy — closeness bounds), odd sizes pad
    correctly, and gray is near-lossless at q95."""
    from pythongis_ray import jpeg

    yy, xx = np.mgrid[0:45, 0:62]
    smooth = np.stack([
        (128 + 100 * np.sin(xx / 15)).astype(np.uint8),
        (128 + 100 * np.cos(yy / 12)).astype(np.uint8),
        (128 + 60 * np.sin((xx + yy) / 20)).astype(np.uint8)], axis=2)
    for ss, bound in (("444", 1.0), ("422", 1.6), ("420", 2.2)):
        dec = jpeg.decode_jpeg_bytes(
            jpeg.encode_jpeg_bytes(smooth, quality=92, subsampling=ss))
        assert dec.shape == smooth.shape
        assert np.abs(dec.astype(int) - smooth.astype(int)).mean() < bound
    g = ((xx * 2 + yy * 3) % 256).astype(np.uint8)
    dg = jpeg.decode_jpeg_bytes(jpeg.encode_jpeg_bytes(g, 95))
    assert np.abs(dg[:, :, 0].astype(int) - g.astype(int)).max() <= 1
    for hh, ww in ((17, 31), (8, 8), (1, 1)):
        d = jpeg.decode_jpeg_bytes(
            jpeg.encode_jpeg_bytes(smooth[:hh, :ww], 90, "420"))
        assert d.shape == (hh, ww, 3)


def test_synthesize_media_jpg_kind_decodes(ray_session):
    """JPEG payloads decode for REAL in the DecodeImage actor stage
    (fake=False) via pythongis_ray.jpeg — no PIL."""
    import ray.data as rd

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(4, kind="jpg")
    ds = rd.from_pandas(df)
    out = ds.map_batches(mm.DecodeImage, batch_size=4,
                         batch_format="pyarrow", concurrency=1,
                         fn_constructor_kwargs={"fake": False}).to_pandas()
    assert len(out) == 4
    assert (out.meta_w == 64).all() and (out.meta_h == 48).all()
    assert (out.meta_channels == 3).all()
    for _, row in out.iterrows():
        px = np.frombuffer(row["pixels"], np.uint8).reshape(48, 64, 3)
        assert px.std() > 10           # decoded noise, not a constant fill


def test_jpeg_progressive_and_restart():
    """Progressive (SOF2, successive approximation) decode is
    BIT-IDENTICAL to baseline decode of the same quantized
    coefficients — all four scan kinds (DC/AC x first/refine)
    exercised — and DRI restart intervals round-trip."""
    from pythongis_ray import jpeg

    yy, xx = np.mgrid[0:45, 0:62]
    smooth = np.stack([
        (128 + 100 * np.sin(xx / 15)).astype(np.uint8),
        (128 + 100 * np.cos(yy / 12)).astype(np.uint8),
        (128 + 60 * np.sin((xx + yy) / 20)).astype(np.uint8)], axis=2)
    rng = np.random.default_rng(3)
    noisy = rng.integers(0, 256, (40, 56, 3), dtype=np.uint8)
    for im in (smooth, noisy):
        for ss in ("444", "422", "420"):
            p = jpeg.decode_jpeg_bytes(
                jpeg.encode_jpeg_progressive_bytes(im, 92, ss))
            b = jpeg.decode_jpeg_bytes(jpeg.encode_jpeg_bytes(im, 92, ss))
            assert np.array_equal(p, b)
    g = ((xx * 2 + yy * 3) % 256).astype(np.uint8)
    assert np.array_equal(
        jpeg.decode_jpeg_bytes(jpeg.encode_jpeg_progressive_bytes(g, 95)),
        jpeg.decode_jpeg_bytes(jpeg.encode_jpeg_bytes(g, 95)))
    for hh, ww in ((17, 31), (8, 8), (1, 1)):
        assert np.array_equal(
            jpeg.decode_jpeg_bytes(
                jpeg.encode_jpeg_progressive_bytes(smooth[:hh, :ww], 90,
                                                   "420")),
            jpeg.decode_jpeg_bytes(
                jpeg.encode_jpeg_bytes(smooth[:hh, :ww], 90, "420")))
    # restart markers: DRI-coded streams reproduce the no-DRI decode
    want = jpeg.decode_jpeg_bytes(jpeg.encode_jpeg_bytes(smooth, 92, "420"))
    for ri in (1, 2, 5):
        got = jpeg.decode_jpeg_bytes(
            jpeg.encode_jpeg_bytes(smooth, 92, "420", restart_interval=ri))
        assert np.array_equal(got, want)


def test_gif_codec_roundtrip():
    """Clean-room GIF87a/89a LZW codec: gray/RGB/animation
    round-trips (incl. dictionary reset past 4096 entries)."""
    from pythongis_ray import gif

    rng = np.random.default_rng(5)
    g = rng.integers(0, 256, (30, 41), dtype=np.uint8)
    frames, _ = gif.decode_gif_bytes(gif.encode_gif_bytes(g))
    assert np.array_equal(frames[0], np.stack([g] * 3, 2))
    pal = rng.integers(0, 256, (200, 3), dtype=np.uint8)
    px = pal[rng.integers(0, 200, (25, 37))]
    f2, _ = gif.decode_gif_bytes(gif.encode_gif_bytes(px))
    assert np.array_equal(f2[0], px)
    big = rng.integers(0, 250, (200, 300), dtype=np.uint8)  # LZW reset
    f3, _ = gif.decode_gif_bytes(gif.encode_gif_bytes(big))
    assert np.array_equal(f3[0], np.stack([big] * 3, 2))
    anim = pal[rng.integers(0, 200, (5, 12, 15))]
    f4, d4 = gif.decode_gif_bytes(gif.encode_gif_bytes(anim,
                                                       delays=[10] * 5))
    assert d4 == [10] * 5
    assert all(np.array_equal(f4[i], anim[i]) for i in range(5))


REF_GIF = "/root/reference/pythongis/app/tk2/_othermisc/dropdown.gif"


@pytest.mark.skipif(not os.path.exists(REF_GIF),
                    reason="reference data absent")
def test_gif_reads_reference_real_file():
    """A real GIF from the reference tree decodes."""
    from pythongis_ray import gif

    with open(REF_GIF, "rb") as f:
        real, _ = gif.decode_gif_bytes(f.read())
    assert real.shape == (1, 23, 21, 3)


def test_synthesize_media_gif_kind_decodes(ray_session):
    import ray.data as rd

    from pythongis_ray import multimodal as mm

    df = mm.synthesize_media(4, kind="gif")
    out = rd.from_pandas(df).map_batches(
        mm.DecodeImage, batch_size=4, batch_format="pyarrow",
        concurrency=1, fn_constructor_kwargs={"fake": False}).to_pandas()
    assert len(out) == 4
    assert (out.meta_w == 64).all() and (out.meta_h == 48).all()


def test_gif_anim_video_frame_sampling(ray_session):
    """Animated GIFs feed the video pipeline for REAL: SampleFrames
    explodes every 2nd composited frame, bit-exact vs the encoded
    source frames."""
    import ray.data as rd

    from pythongis_ray import gif, multimodal as mm

    df = mm.synthesize_media(3, kind="gif_anim")
    out = rd.from_pandas(df).map_batches(
        mm.SampleFrames, batch_size=4, batch_format="pyarrow",
        concurrency=1,
        fn_constructor_kwargs={"every": 2, "fake": False}).to_pandas()
    assert len(out) == 9                       # 6 frames / every-2 x 3
    assert set(out.frame_idx) == {0, 2, 4}
    for _, row in out.iterrows():
        src, _ = gif.decode_gif_bytes(
            df.loc[df.id == row["id"], "payload"].iloc[0])
        got = np.frombuffer(row["payload"], np.uint8).reshape(12, 16, 3)
        assert np.array_equal(got, src[row["frame_idx"]])


def test_tiff_payload_decodes_in_image_stage(ray_session):
    """TIFF payloads (web images, scanned maps) decode for REAL in
    DecodeImage via raster.decode_tiff_bytes — uint8 RGB bit-exact."""
    import tempfile

    import ray.data as rd

    from pythongis_ray import multimodal as mm, raster

    rng = np.random.default_rng(9)
    srcs = [rng.integers(0, 256, (3, 20, 30), dtype=np.uint8)
            for _ in range(3)]
    payloads = []
    with tempfile.TemporaryDirectory(dir="/tmp") as d:
        for i, s in enumerate(srcs):
            p = f"{d}/x{i}.tif"
            raster.write_geotiff(p, s, (0.0, 1.0, 20.0, 1.0),
                                 compression="deflate")
            payloads.append(open(p, "rb").read())
    import pandas as pd

    df = pd.DataFrame({
        "id": np.arange(3, dtype=np.int64), "kind": ["image"] * 3,
        "payload": payloads,
        "meta_w": np.zeros(3, np.int32), "meta_h": np.zeros(3, np.int32),
        "meta_channels": np.zeros(3, np.int32)})
    out = rd.from_pandas(df).map_batches(
        mm.DecodeImage, batch_size=4, batch_format="pyarrow",
        concurrency=1, fn_constructor_kwargs={"fake": False}).to_pandas()
    assert (out.meta_w == 30).all() and (out.meta_h == 20).all()
    for _, row in out.iterrows():
        got = np.frombuffer(row["pixels"], np.uint8).reshape(20, 30, 3)
        assert np.array_equal(got, np.moveaxis(srcs[int(row["id"])], 0, 2))


def test_decode_on_error_skip(ray_session):
    """Corrupt payloads must not kill a web-scale decode job:
    on_error='skip' drops the bad rows and keeps the good ones
    bit-exact; the default still raises."""
    import pandas as pd
    import ray.data as rd

    from pythongis_ray import multimodal as mm, raster

    rng = np.random.default_rng(13)
    good = [rng.integers(0, 256, (8, 9, 3), dtype=np.uint8)
            for _ in range(3)]
    payloads = [raster.encode_png_bytes(good[0]),
                b"\x89PNG\r\n\x1a\nGARBAGE-----",     # corrupt PNG
                raster.encode_png_bytes(good[1]),
                b"\xff\xd8\xffnot-a-real-jpeg",        # corrupt JPEG
                raster.encode_png_bytes(good[2])]
    df = pd.DataFrame({
        "id": np.arange(5, dtype=np.int64), "kind": ["image"] * 5,
        "payload": payloads,
        "meta_w": np.zeros(5, np.int32), "meta_h": np.zeros(5, np.int32),
        "meta_channels": np.zeros(5, np.int32)})
    out = rd.from_pandas(df).map_batches(
        mm.DecodeImage, batch_size=8, batch_format="pyarrow",
        concurrency=1,
        fn_constructor_kwargs={"fake": False, "on_error": "skip"}) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert list(out["id"]) == [0, 2, 4]
    for i, row in out.iterrows():
        px = np.frombuffer(row["pixels"], np.uint8).reshape(8, 9, 3)
        assert np.array_equal(px, good[i])
    # default mode raises on the same input
    with pytest.raises(Exception):
        rd.from_pandas(df).map_batches(
            mm.DecodeImage, batch_size=8, batch_format="pyarrow",
            concurrency=1,
            fn_constructor_kwargs={"fake": False}).materialize()
