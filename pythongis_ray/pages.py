"""Common-Crawl-style `pages` table synthesis + geocoding.

BASELINE.json input_hint: the engine's primary input is a Parquet table
``(url: string, warc_ts: timestamp, html: binary, text: string,
lang: string)``. No such table ships with the test data, so it is
synthesized deterministically from the provided `documents` table
(doc_id → url/warc_ts; text/lang pass through; html wraps text) —
pure arithmetic, no wall clock, reproducible at any scale.

Per-row invariant (BASELINE.json): the `text` column must be
byte-identical per `url` through every stage. All stages here carry
`text` untouched through zero-copy Arrow batches; the invariant is
asserted in tests/test_pages.py and in the resume test.

Geocode: `hash(url-key) → skewed lat/lon point` (fixtures.geocode_units)
— the stand-in for the reference pipeline's "pages are geocoded into
point features" step, with ~70% of pages concentrated in 32 hotspot
cities (power-law) to exercise hot-cell salting.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pythongis_ray import fixtures, grid
from pythongis_ray.relational import map_arrow

EPOCH_2024 = 1704067200_000000  # 2024-01-01 in microseconds
N_SITES = 50


N_CDN = 7          # synthetic image CDN hosts (img_hosts oracle)
IMGS_PER_PAGE = 2


def synthesize_pages(batch: pa.Table, replicate: int = 1,
                     links: bool = False,
                     images: bool = False,
                     nest: bool = False) -> pa.Table:
    """documents batch → pages batch. With ``replicate`` > 1 each doc
    yields `replicate` pages with distinct page ids/urls (deterministic
    upsampling for benchmarks; ids = doc_id * replicate + r).

    With ``links=True`` each page's html additionally carries three
    deterministic outlinks as empty-anchor tags placed after the text:
    page p links to pages p>>1, p>>2, p>>3 (its "ancestors" — a
    tree-shaped web where low ids are hubs; page 0 self-loops). The
    anchors are EMPTY (``<a href="..."></a>``) so extract_text still
    yields byte-identical `text` — the north-rule invariant holds with
    links on. SQL replay of the j-th target: ``doc_id // 2**j``.

    With ``images=True`` each page carries IMGS_PER_PAGE ``<img>``
    tags: the k-th references ``https://cdn{(p+k) % N_CDN}.example/
    img/{p*IMGS_PER_PAGE+k}.jpg``. ``<img ...>`` is a void tag, so
    the tag-strip extraction again yields byte-identical text. SQL
    replay of the k-th ref: cdn = (page_id+k) % N_CDN,
    img = page_id*IMGS_PER_PAGE + k."""
    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    text = batch["text"]
    lang = batch["lang"]
    if replicate > 1:
        idx = np.repeat(np.arange(len(doc_id), dtype=np.int64), replicate)
        rep = np.tile(np.arange(replicate, dtype=np.int64), len(doc_id))
        page_id = doc_id[idx] * replicate + rep
        text = text.take(pa.array(idx))
        lang = lang.take(pa.array(idx))
    else:
        page_id = doc_id
    site = page_id % N_SITES
    n = len(page_id)
    url = pc.binary_join_element_wise(
        pa.array(np.full(n, "https://site"), pa.string()),
        pc.cast(pa.array(site), pa.string()),
        pa.array(np.full(n, ".example/"), pa.string()),
        pc.cast(pa.array(page_id), pa.string()),
        "")
    warc_ts = pa.array((EPOCH_2024 + page_id * 37_000_000).view(np.int64),
                       type=pa.timestamp("us"))
    segs = [pa.array([b"<html><body>"] * len(page_id), pa.binary())]
    if nest:
        # deterministic DOM depth: 1 + page_id % 7 nested divs wrap
        # the text; tag-strip extraction still yields byte-identical
        # text (the north-rule invariant), while real parsers must
        # measure depth = 3 + page_id % 7 from the bytes
        ndiv = 1 + page_id % 7
        opens = pa.array([b"<div>" * int(k) for k in ndiv], pa.binary())
        segs.append(opens)
    segs.append(pc.cast(text, pa.binary()))
    if nest:
        closes = pa.array([b"</div>" * int(k) for k in ndiv],
                          pa.binary())
        segs.append(closes)
    if links:
        for j in (1, 2, 3):
            t = page_id >> j
            segs += [
                pa.array([b'<a href="https://site'] * n, pa.binary()),
                pc.cast(pc.cast(pa.array(t % N_SITES), pa.string()),
                        pa.binary()),
                pa.array([b".example/"] * n, pa.binary()),
                pc.cast(pc.cast(pa.array(t), pa.string()), pa.binary()),
                pa.array([b'"></a>'] * n, pa.binary()),
            ]
    if images:
        for k in range(IMGS_PER_PAGE):
            cdn = (page_id + k) % N_CDN
            img = page_id * IMGS_PER_PAGE + k
            segs += [
                pa.array([b'<img src="https://cdn'] * n, pa.binary()),
                pc.cast(pc.cast(pa.array(cdn), pa.string()), pa.binary()),
                pa.array([b".example/img/"] * n, pa.binary()),
                pc.cast(pc.cast(pa.array(img), pa.string()), pa.binary()),
                pa.array([b'.jpg">'] * n, pa.binary()),
            ]
    segs.append(pa.array([b"</body></html>"] * len(page_id), pa.binary()))
    html = pc.binary_join_element_wise(*segs, b"")
    return pa.table({
        "page_id": pa.array(page_id),
        "url": url,
        "warc_ts": warc_ts,
        "html": html,
        "text": text,
        "lang": lang,
    })


def geocode_pages(batch: pa.Table, res: int = grid.DEFAULT_RES) -> pa.Table:
    """Add lon/lat (skewed deterministic geocode of page_id) + cell id.
    Stateless vectorized map_batches stage — phase 1 of the flagship
    join."""
    page_id = batch["page_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ix, iy = fixtures.geocode_units(page_id)
    lon, lat = fixtures.units_to_deg(ix, iy)
    cell = grid.point_to_cell(lon, lat, res)
    batch = batch.append_column("lon", pa.array(lon))
    batch = batch.append_column("lat", pa.array(lat))
    return batch.append_column("cell", pa.array(cell.view(np.int64)))


def read_sf_table(sf_dir: str, table: str, columns: list[str] | None = None):
    """``{sf_dir}/{table}.parquet`` as a Dataset (all columns, or
    ``columns`` in that order), read with the file's column types but
    without its ``pandas`` schema metadata: a schema carrying that dict
    is unhashable, and Ray then unifies the schemas on every concat of
    the read blocks. The one Dataset reader of the sf tables."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path)
    names = schema.names if columns is None else columns
    return rd.read_parquet(path, columns=columns,
                           schema=pa.schema([schema.field(c) for c in names]))


def pages_dataset(sf_dir: str, replicate: int = 1, geocode: bool = True,
                  columns: list[str] | None = None, links: bool = False,
                  images: bool = False, nest: bool = False):
    """read documents.parquet → pages Dataset (lazy, streaming)."""
    ds = read_sf_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    # keep output blocks bounded: a replicate-R synthesis multiplies
    # rows AND bytes by R, so the input batch shrinks by R (wide-row
    # memory rule — html ~1 KB/row must not produce GB-sized blocks)
    bs = max(256, 8192 // max(1, replicate))
    ds = ds.map_batches(lambda b: synthesize_pages(b, replicate, links=links,
                                                   images=images, nest=nest),
                        batch_format="pyarrow", batch_size=bs)
    if geocode:
        # batch_size=None → one batch per upstream block. Ray fuses
        # the map chain and bundles INPUT blocks to satisfy the
        # LARGEST requested batch size in the chain: a fixed 8192
        # here swallowed the whole sf0.1 input into ONE task
        # (5000 docs < 8192), serializing everything on one core.
        # With None, bundling follows the synthesis batch (bs input
        # docs → bs×replicate pages ≈ 8k-row natural batches).
        ds = ds.map_batches(geocode_pages, batch_format="pyarrow",
                            batch_size=None)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def extract_text(batch: pa.Table, html_col: str = "html",
                 out_col: str = "text_extracted") -> pa.Table:
    """HTML → text extraction: strip every ``<...>`` tag from the html
    payload with ONE RE2 kernel over the whole batch (the CC
    pipeline's extraction step reduced to its tag-strip core — no
    parser libs in this container). The north-rule invariant is that
    the result is byte-identical to the carried ``text`` column per
    url; tests and the `extract_text` oracle assert it."""
    s = pc.cast(batch[html_col], pa.string())
    stripped = pc.replace_substring_regex(s, "<[^>]*>", "")
    return batch.append_column(out_col, stripped)


_VOID_TAGS = {"img", "br", "hr", "meta", "link", "input", "area",
              "base", "col", "embed", "source", "track", "wbr"}


def tag_depth(batch: pa.Table, html_col: str = "html",
              src_col: str = "page_id") -> pa.Table:
    """html → per-page DOM statistics ``(page_id, depth, n_tags)``:
    maximum tag-nesting depth (the structural-complexity signal CC
    quality filters use) and total tag count. Parser-free and
    vectorized like :func:`extract_links`: ONE ``split_pattern('<')``
    kernel explodes tags, ONE ``extract_regex`` classifies each tag
    (closing slash + name), HTML void elements contribute no depth,
    and the per-page max-prefix-sum is a segmented
    ``np.maximum.reduceat`` over one global cumsum — zero Python per
    tag. Tag-soup semantics: a stray ``<name ...>`` sequence inside
    text counts as a tag (like every strip-based CC extractor); a
    bare ``<`` with no following ``>`` does not."""
    col = batch[html_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    src = batch[src_col]
    src_arr = src.combine_chunks() if isinstance(src, pa.ChunkedArray) else src
    if arr.null_count:
        valid = pc.is_valid(arr)
        arr = arr.filter(valid)
        src_arr = src_arr.filter(valid)
    s = pc.cast(arr, pa.string())
    lists = pc.split_pattern(s, "<")
    counts = pc.list_value_length(lists).to_numpy(
        zero_copy_only=False).astype(np.int64)
    pid = src_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    if len(pid) == 0 or int(counts.sum()) == 0:
        return pa.table({"page_id": pa.array([], pa.int64()),
                         "depth": pa.array([], pa.int64()),
                         "n_tags": pa.array([], pa.int64())})
    flat = pc.list_flatten(lists)
    # piece 0 of each doc is the pre-first-'<' prefix, not a tag
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_prefix = np.zeros(len(flat), dtype=bool)
    is_prefix[starts] = True
    # a real tag piece carries its closing '>' (a stray '<' in text
    # never does, since pieces are '<'-delimited)
    m = pc.extract_regex(
        flat, r"^(?P<close>/?)(?P<name>[a-zA-Z][a-zA-Z0-9]*)[^>]*>")
    ok = pc.is_valid(m).to_numpy(zero_copy_only=False) & ~is_prefix
    close = np.zeros(len(flat), dtype=bool)
    name = np.empty(len(flat), dtype=object)
    st = pc.struct_field(m, "close").to_numpy(zero_copy_only=False)
    nm = pc.struct_field(m, "name").to_numpy(zero_copy_only=False)
    close[ok] = st[ok] == "/"
    name[ok] = nm[ok]
    void = np.zeros(len(flat), dtype=bool)
    void[ok] = pd.Series(name[ok]).str.lower().isin(_VOID_TAGS).to_numpy()
    delta = np.zeros(len(flat), dtype=np.int64)
    delta[ok & ~void] = 1
    delta[ok & ~void & close] = -1
    run = np.cumsum(delta)
    seg_max = np.maximum.reduceat(run, starts)
    base = np.concatenate(([0], run[np.cumsum(counts) - 1][:-1]))
    n_tags = np.add.reduceat(ok.astype(np.int64), starts)
    return pa.table({"page_id": pa.array(pid),
                     "depth": pa.array(seg_max - base),
                     "n_tags": pa.array(n_tags)})


def extract_links(batch: pa.Table, html_col: str = "html",
                  src_col: str = "page_id") -> pa.Table:
    """html → outlink edge table ``(src_page, dst_page, dst_url)``.

    The link-graph construction step of a web-corpus pipeline (the
    reference has no graph surface). This is the batch kernel; the
    Dataset read is :func:`link_edges`, which the link-graph queries
    feed to the ``graph`` engines (pagerank, hits, bfs, scc, ...).
    Fully vectorized: ONE
    ``split_pattern('href="')`` kernel explodes every doc into
    href-delimited pieces, numpy offset arithmetic drops each doc's
    pre-href prefix and maps pieces back to their source row, and ONE
    ``extract_regex`` kernel per field pulls the quoted url and its
    trailing page id — zero Python per row/link. Pages without links
    (or hrefs without a numeric tail) simply emit no edges."""
    col = batch[html_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    src = batch[src_col]
    src_arr = src.combine_chunks() if isinstance(src, pa.ChunkedArray) else src
    if arr.null_count:
        valid = pc.is_valid(arr)
        arr = arr.filter(valid)          # null html → no edges, not a crash
        src_arr = src_arr.filter(valid)
    s = pc.cast(arr, pa.string())
    lists = pc.split_pattern(s, 'href="')
    counts = pc.list_value_length(lists).to_numpy(
        zero_copy_only=False).astype(np.int64)
    total = int(counts.sum())
    empty = pa.table({"src_page": pa.array([], pa.int64()),
                      "dst_page": pa.array([], pa.int64()),
                      "dst_url": pa.array([], pa.string())})
    if total == 0:
        return empty
    flat = pc.list_flatten(lists)
    parent = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    keep = np.ones(total, dtype=bool)
    keep[starts] = False  # first piece per doc = everything before a href
    idx = np.nonzero(keep)[0]
    if len(idx) == 0:
        return empty
    tails = flat.take(pa.array(idx))
    parent = parent[keep]
    urls = pc.struct_field(pc.extract_regex(tails, r'^(?P<u>[^"]*)"'), "u")
    dst = pc.struct_field(pc.extract_regex(urls, r"/(?P<d>[0-9]+)$"), "d")
    ok = pc.and_kleene(pc.is_valid(urls), pc.is_valid(dst))
    ok_np = ok.to_numpy(zero_copy_only=False).astype(bool)
    if not ok_np.all():
        sel = pa.array(np.nonzero(ok_np)[0])
        urls, dst, parent = urls.take(sel), dst.take(sel), parent[ok_np]
    src_np = src_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "src_page": pa.array(src_np[parent]),
        "dst_page": pc.cast(dst, pa.int64()),
        "dst_url": urls,
    })


def link_edges(sf_dir: str, replicate: int = 1):
    """The link graph of the synthesized pages: a lazy Dataset of
    ``(src_page, dst_page, dst_url)`` edges, one row per href (multi-
    edges kept), read through :func:`extract_links`. Every link-graph
    query and the graph CLI/bench stages start here."""
    ds = pages_dataset(sf_dir, replicate=replicate, geocode=False,
                       links=True, columns=["page_id", "html"])
    # 4096 html rows (~1 KB each) per extract batch: no larger than the
    # synthesis batch at replicate=1 (8192), so Ray's fused
    # read→synthesize→extract task keeps the synthesis bundling (a
    # chain bundles inputs to its LARGEST batch size), and one batch's
    # split_pattern explode stays a few MB
    return ds.map_batches(extract_links, batch_format="pyarrow",
                          batch_size=4096)


def extract_image_refs(batch: pa.Table, html_col: str = "html",
                       src_col: str = "page_id") -> pa.Table:
    """html → image-reference table ``(page_id, cdn, img_id,
    img_url)`` — the media-discovery step of a multimodal corpus
    pipeline (what feeds a fetch stage whose payloads the
    multimodal codecs then decode). Same fully-vectorized shape as
    :func:`extract_links`: ONE ``split_pattern('<img src="')``
    explode + offset arithmetic + regex kernels; pages without images
    emit no rows."""
    col = batch[html_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    src = batch[src_col]
    src_arr = src.combine_chunks() if isinstance(src, pa.ChunkedArray) else src
    if arr.null_count:
        valid = pc.is_valid(arr)
        arr = arr.filter(valid)
        src_arr = src_arr.filter(valid)
    s = pc.cast(arr, pa.string())
    lists = pc.split_pattern(s, '<img src="')
    counts = pc.list_value_length(lists).to_numpy(
        zero_copy_only=False).astype(np.int64)
    total = int(counts.sum())
    empty = pa.table({"page_id": pa.array([], pa.int64()),
                      "cdn": pa.array([], pa.int64()),
                      "img_id": pa.array([], pa.int64()),
                      "img_url": pa.array([], pa.string())})
    if total == 0:
        return empty
    flat = pc.list_flatten(lists)
    parent = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    keep = np.ones(total, dtype=bool)
    keep[starts] = False               # pre-first-img prefix per doc
    idx = np.nonzero(keep)[0]
    if len(idx) == 0:
        return empty
    tails = flat.take(pa.array(idx))
    parent = parent[keep]
    urls = pc.struct_field(pc.extract_regex(tails, r'^(?P<u>[^"]*)"'), "u")
    cdn = pc.struct_field(
        pc.extract_regex(urls, r"^https://cdn(?P<c>[0-9]+)\."), "c")
    img = pc.struct_field(
        pc.extract_regex(urls, r"/(?P<i>[0-9]+)\.[A-Za-z0-9]+$"), "i")
    ok = pc.and_kleene(pc.is_valid(cdn), pc.is_valid(img))
    ok_np = ok.to_numpy(zero_copy_only=False).astype(bool)
    if not ok_np.all():
        sel = pa.array(np.nonzero(ok_np)[0])
        urls, cdn, img = urls.take(sel), cdn.take(sel), img.take(sel)
        parent = parent[ok_np]
    src_np = src_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "page_id": pa.array(src_np[parent]),
        "cdn": pc.cast(cdn, pa.int64()),
        "img_id": pc.cast(img, pa.int64()),
        "img_url": urls,
    })


def host_edges(edges):
    """Project a page-level edge Dataset to host-level (site(u) →
    site(v), multiplicity preserved) — shared by the host-PageRank
    queries; the SQL mirror is queries._SQL_HOST_EDGES."""
    def to_hosts(batch: pa.Table) -> pa.Table:
        s = batch["src_page"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["dst_page"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"src": pa.array(s % N_SITES),
                         "dst": pa.array(d % N_SITES)})

    return map_arrow(edges, to_hosts)
