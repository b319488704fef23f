import os
import shutil

import numpy as np
import pandas as pd
import pytest

from pythongis_ray import checkpoint, pages, pipelines

SF = "/root/testdata/sf0.001"


def test_pages_synthesis_schema_and_determinism(ray_session):
    ds = pages.pages_dataset(SF)
    t = ds.take_batch(50, batch_format="pyarrow")
    assert set(t.column_names) >= {"page_id", "url", "warc_ts", "html", "text",
                                   "lang", "lon", "lat", "cell"}
    # determinism: second run identical
    t2 = pages.pages_dataset(SF).take_batch(50, batch_format="pyarrow")
    assert t.select(["url", "lon", "lat"]).equals(t2.select(["url", "lon", "lat"]))


def test_text_byte_identity_invariant(ray_session):
    """BASELINE.json per-row invariant: text byte-identical per url
    through every stage (synthesize → geocode → join)."""
    src = pd.read_parquet(f"{SF}/documents.parquet")
    joined = pipelines.flagship_joined_pages(SF).to_pandas()
    assert len(joined) >= len(src)
    m = dict(zip(src.doc_id, src.text))
    # page_id == doc_id at replicate=1
    for pid, txt in zip(joined.page_id, joined.text):
        assert m[pid] == txt, f"text mutated for page {pid}"
    # html embeds the exact text bytes
    row = joined.iloc[0]
    assert bytes(row.html) == b"<html><body>" + row.text.encode() + b"</body></html>"


def test_replicate_upsampling(ray_session):
    ds = pages.pages_dataset(SF, replicate=3, geocode=False)
    n_docs = len(pd.read_parquet(f"{SF}/documents.parquet"))
    assert ds.count() == 3 * n_docs
    ids = ds.select_columns(["page_id"]).to_pandas().page_id
    assert ids.is_unique


def test_flagship_aggregate(ray_session):
    out = pipelines.flagship(SF).to_pandas()
    assert {"zone_id", "name", "lang", "n_pages", "sum_tokens"} <= set(out.columns)
    assert out.n_pages.sum() > 0
    # cross-check total joined pages against a pandas oracle
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    from pythongis_ray import fixtures
    ix, iy = fixtures.geocode_units(docs.doc_id.to_numpy())
    lon, lat = fixtures.units_to_deg(ix, iy)
    zones = pipelines.load_zones(SF)
    total = 0
    for _, z in zones.iterrows():
        total += int(((lon > z.x0) & (lon < z.x1) & (lat > z.y0) & (lat < z.y1)).sum())
    assert out.n_pages.sum() == total


def test_checkpoint_write_and_resume(ray_session, tmp_path):
    import ray.data as rd

    out_dir = str(tmp_path / "ckpt")
    df = pd.DataFrame({"k": np.arange(1000, dtype=np.int64), "v": np.arange(1000) * 2})
    ds = rd.from_pandas(df)
    m1 = checkpoint.write_partitioned(ds, out_dir, "k", num_partitions=8)
    assert m1.rows.sum() == 1000
    assert len(checkpoint.completed_partitions(out_dir)) == 8
    # simulate a partial failure: delete 3 partitions' outputs+manifests
    for p in [1, 3, 5]:
        shutil.rmtree(os.path.join(out_dir, f"part={p}"), ignore_errors=True)
        os.remove(os.path.join(out_dir, "_manifest", f"part-{p}.json"))
    m2 = checkpoint.write_partitioned(rd.from_pandas(df), out_dir, "k", num_partitions=8)
    assert set(m2.partition) == {1, 3, 5}  # only missing partitions rewritten
    # full result intact and byte-identical content
    import pyarrow.parquet as pq

    got = pd.concat([
        pq.read_table(os.path.join(out_dir, f"part={p}", "data.parquet")).to_pandas()
        for p in range(8)
    ]).sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, df)
    man = checkpoint.read_manifest(out_dir)
    assert man.rows.sum() == 1000


def test_images_preserve_text_byte_identity(ray_session):
    """<img> tags are void: extraction over image-carrying html must
    yield byte-identical text (the north-rule invariant), and the
    vectorized extractor must recover every generated ref exactly."""
    import pyarrow as pa

    from pythongis_ray import pages

    docs = pa.table({
        "doc_id": pa.array([0, 1, 5, 99], pa.int64()),
        "text": pa.array(["alpha", "beta <kept", "g&mma", ""],
                         pa.string()),
        "lang": pa.array(["en"] * 4, pa.string())})
    plain = pages.synthesize_pages(docs, links=True)
    with_img = pages.synthesize_pages(docs, links=True, images=True)
    import pyarrow.compute as pc

    t1 = pages.extract_text(plain)["text_extracted"]
    t2 = pages.extract_text(with_img)["text_extracted"]
    assert t1.to_pylist() == t2.to_pylist()
    refs = pages.extract_image_refs(with_img).to_pandas() \
        .sort_values(["page_id", "img_id"]).reset_index(drop=True)
    assert len(refs) == 4 * pages.IMGS_PER_PAGE
    for _, r in refs.iterrows():
        p = int(r.page_id)
        k = int(r.img_id) - p * pages.IMGS_PER_PAGE
        assert 0 <= k < pages.IMGS_PER_PAGE
        assert int(r.cdn) == (p + k) % pages.N_CDN
        assert r.img_url == (f"https://cdn{(p + k) % pages.N_CDN}"
                             f".example/img/{r.img_id}.jpg")
    # links still extract unchanged alongside images
    e1 = pages.extract_links(plain).to_pandas()
    e2 = pages.extract_links(with_img).to_pandas()
    assert e1.equals(e2)


def test_tag_depth_kernel():
    import pyarrow as pa

    docs = pa.table({
        "page_id": pa.array([1, 2, 3, 4], pa.int64()),
        "html": pa.array([
            b"<html><body><div><div>x</div></div></body></html>",  # depth 4
            b"plain text, no tags at all",                          # depth 0
            b"<p>a<br><img src='x.jpg'>b</p>",                      # voids: depth 1
            b"<html><body>stray <kept here</body></html>",          # '<' in text
        ], pa.binary())})
    out = pages.tag_depth(docs).to_pandas().sort_values("page_id")
    assert out.depth.tolist() == [4, 0, 1, 2]
    assert out.n_tags.tolist() == [8, 0, 4, 4]


def test_nested_pages_text_byte_identical():
    import pyarrow as pa

    docs = pa.table({
        "doc_id": pa.array([0, 5, 13], pa.int64()),
        "text": pa.array(["alpha beta", "", "g&mma"], pa.string()),
        "lang": pa.array(["en"] * 3, pa.string())})
    nested = pages.synthesize_pages(docs, nest=True, links=True)
    t = pages.extract_text(nested)["text_extracted"].to_pylist()
    assert t == ["alpha beta", "", "g&mma"]
    d = pages.tag_depth(nested).to_pandas().sort_values("page_id")
    assert d.depth.tolist() == [3 + i % 7 for i in (0, 5, 13)]


def test_read_sf_table_drops_pandas_metadata(ray_session, tmp_path):
    """The sf-table reader keeps the file's Arrow types, carries no
    ``pandas`` schema metadata (a schema with that dict is unhashable,
    so Ray unifies schemas on every concat) and converts to the same
    pandas frame as ``pd.read_parquet``."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    n = 50
    df = pd.DataFrame({
        "k": np.arange(n, dtype=np.int32),
        "ts": (np.datetime64("2024-01-01", "s")
               + np.arange(n).astype("timedelta64[s]")),
        "s": [f"row{i}" for i in range(n)],
        "v": [np.arange(i % 4, dtype=np.float32) for i in range(n)],
    })
    df.to_parquet(tmp_path / "t.parquet")
    schema = pq.read_schema(tmp_path / "t.parquet")
    assert b"pandas" in schema.metadata
    assert schema.field("v").type == pa.list_(pa.float32())
    for cols in (None, ["v", "k", "ts"]):
        ds = pages.read_sf_table(str(tmp_path), "t", columns=cols)
        names = cols or list(df.columns)
        blocks = ray.get(ds.materialize().to_arrow_refs())
        for b in blocks:
            assert b.schema.metadata is None
            assert b.schema == pa.schema([schema.field(c) for c in names])
        got = ds.to_pandas()
        exp = pd.read_parquet(tmp_path / "t.parquet", columns=names)
        assert list(got.dtypes) == list(exp.dtypes)
        for c in names:
            assert [np.asarray(x).tolist() for x in got[c]] == \
                [np.asarray(x).tolist() for x in exp[c]], c


def test_one_sf_table_reader():
    """Every Dataset read in queries.py and pages.py goes through
    ``pages.read_sf_table``; the one other ``read_parquet`` reads a
    query's own partition files (``q_indexed_search``). Driver-side
    ``pd.read_parquet`` calls are not Dataset reads."""
    import ast
    import pathlib

    root = pathlib.Path(pages.__file__).parent
    found = []
    for name in ("queries.py", "pages.py"):
        tree = ast.parse((root / name).read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "read_parquet" \
                        and ast.unparse(node.func.value) != "pd":
                    found.append(f"{name}:{getattr(top, 'name', '?')}")
    assert sorted(found) == ["pages.py:read_sf_table",
                             "queries.py:q_indexed_search"], found
