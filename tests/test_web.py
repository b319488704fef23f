"""Web-corpus ops: URL parsing/canonicalization, HTML tag-strip
extraction, repetition stats, decontamination.

Reference has no URL/web analogue (pure-geo engine); these are the
CC-pipeline operators the north rule's webtext payload needs. All
kernels are batch-vectorized Arrow/RE2 — tests pin the documented
canonicalization contract and cross-check the numpy repetition kernel
against a per-doc pure-Python counter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from pythongis_ray import pages, text, urltools
from tests.conftest import SF_DIR


def test_parse_urls_components():
    p = urltools.parse_urls(pa.array([
        "https://Ex.COM:8443/a/b?x=1&y=2#frag",
        "http://ex.com/",
        "ftp://h",
        "not a url",
    ]))
    assert p["scheme"].to_pylist() == ["https", "http", "ftp", ""]
    assert p["host"].to_pylist() == ["Ex.COM", "ex.com", "h", ""]
    assert p["port"].to_pylist() == ["8443", "", "", ""]
    assert p["path"].to_pylist() == ["/a/b", "/", "", ""]
    assert p["query"].to_pylist() == ["x=1&y=2", "", "", ""]
    assert p["fragment"].to_pylist() == ["frag", "", "", ""]


def test_canonicalize_contract():
    cases = {
        # scheme+host lowered, default port stripped, fragment dropped
        "HTTPS://WWW.Ex.COM:443/Path#f": "https://www.ex.com/Path",
        "http://a.b:80/x": "http://a.b/x",
        # non-default port kept
        "http://a.b:8080/x": "http://a.b:8080/x",
        # utm params removed; emptied query drops '?'
        "https://a.b/p?utm_source=s&utm_c=1": "https://a.b/p",
        "https://a.b/p?utm_source=s&keep=1": "https://a.b/p?keep=1",
        "https://a.b/p?keep=1&utm_x=2": "https://a.b/p?keep=1",
        # trailing slash stripped off non-root; empty path -> '/'
        "https://a.b/p///": "https://a.b/p",
        "https://a.b": "https://a.b/",
        "https://a.b///": "https://a.b/",
        "garbage": None,
    }
    out = urltools.canonicalize_urls(pa.array(list(cases))).to_pylist()
    assert out == list(cases.values())


def test_canonical_dedup_collapses_spellings():
    messy = "HTTPS://Site7.Example:443/p/123/?utm_source=feed&ref=3#s"
    clean = "https://site7.example/p/123?ref=3"
    out = urltools.canonicalize_urls(pa.array([messy, clean])).to_pylist()
    assert out[0] == out[1] == clean


def test_extract_text_byte_identity(ray_session):
    ds = pages.pages_dataset(SF_DIR, geocode=False)
    t = ds.map_batches(pages.extract_text, batch_format="pyarrow",
                       batch_size=1024).take_all()
    assert len(t) > 0
    for row in t:
        assert row["text_extracted"] == row["text"]


def _ref_repetition(texts, n=2):
    rows = []
    for i, t_ in enumerate(texts):
        toks = t_.split(" ")
        if len(toks) < n:
            continue
        grams = [" ".join(toks[j:j + n]) for j in range(len(toks) - n + 1)]
        from collections import Counter

        c = Counter(grams)
        total = sum(c.values())
        dup = sum(v for v in c.values() if v > 1)
        rows.append((i, total, dup, max(c.values())))
    return rows


def test_repetition_stats_matches_python_counter():
    texts = [
        "a b a b a b c",
        "x y z",
        "q",                      # < n tokens: dropped
        "r r r r",
        "one two three four five",
    ]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    out = text.repetition_stats(batch).to_pydict()
    ref = _ref_repetition(texts)
    assert out["doc_id"] == [r[0] for r in ref]
    assert out["n_ngrams"] == [r[1] for r in ref]
    assert out["dup_ngrams"] == [r[2] for r in ref]
    assert out["top_count"] == [r[3] for r in ref]
    np.testing.assert_allclose(
        out["dup_frac"], [r[2] / r[1] for r in ref])


def test_decontaminate_flags_shingle_overlap(ray_session):
    import ray.data as rd

    # doc 0 is "benchmark" (0 % 3 == 0); doc 1 shares the 2-shingle
    # "b c"; doc 2 shares nothing
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["a b c d", "x b c y b c", "p q r s"]),
    })
    ds = rd.from_arrow(tbl)
    out = text.decontaminate(ds, n=2, bench_mod=3).take_all()
    assert out == [{"doc_id": 1, "n_contaminated": 2}]


def test_pii_scrub_kernel():
    batch = pa.table({"text": pa.array([
        "mail bob.smith+x@sub.example.org now",
        "call 555-0142 or 555-01",
        "host 10.2.3.4 and 192.168.0.255 up",
        "clean text",
    ])})
    out = text.pii_scrub(batch).to_pydict()
    assert out["text_scrubbed"] == [
        "mail <EMAIL> now",
        "call <PHONE> or <PHONE>",
        "host <IP> and <IP> up",
        "clean text",
    ]
    assert out["n_emails"] == [1, 0, 0, 0]
    assert out["n_phones"] == [0, 2, 0, 0]
    assert out["n_ips"] == [0, 0, 2, 0]


def test_line_dedup_keep_first(ray_session):
    import ray.data as rd

    # line_len=2: doc0 lines ["a b","c d"], doc1 ["a b","e f"],
    # doc2 ["c d","a b","g"] — "a b" kept only in doc0, "c d" in doc0
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["a b c d", "a b e f", "c d a b g"]),
    })
    out = text.line_dedup(rd.from_arrow(tbl), line_len=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["n_lines"].tolist() == [2, 2, 3]
    assert out["n_kept"].tolist() == [2, 1, 1]


def test_tfidf_topk_small(ray_session):
    import ray.data as rd

    # 3 docs; "rare" appears once in doc2 only -> df=1, top score there
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["a a b", "a b b", "a rare b"]),
    })
    out = text.tfidf_topk(rd.from_arrow(tbl), k=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # doc0: tf(a)=2 df(a)=3 -> 2; tf(b)=1 df=3 -> 1 => 'a'
    # doc2: rare tf=1 df=1 -> 3.0 beats a/b at 1.0
    assert out["word"].tolist() == ["a", "b", "rare"]
    assert out["score"].tolist() == [2.0, 2.0, 3.0]
    assert out["rank"].tolist() == [1, 1, 1]


def test_kmv_distinct_exact_and_estimate(ray_session):
    import ray.data as rd

    # vocab smaller than k -> exact path
    tbl = pa.table({"text": pa.array(["a b c", "b c d", "a d"])})
    out = text.kmv_distinct(rd.from_arrow(tbl), k=16).to_pydict()
    assert out["est"] == [4.0] and out["kth_hash"] == [-1]
    assert out["n_seen"] == [4]

    # vocab larger than k -> estimator within 50% on 200 distinct
    words = [f"w{i}" for i in range(200)]
    docs = [" ".join(words[i:i + 20]) for i in range(0, 200, 20)]
    out = text.kmv_distinct(rd.from_arrow(
        pa.table({"text": pa.array(docs)})), k=64).to_pydict()
    assert out["n_seen"] == [64]
    assert 100 <= out["est"][0] <= 400


def test_dup_spans_coverage(ray_session):
    import ray.data as rd

    # w=2: dup windows are "a b" (docs 0,1) and "c d" (twice in doc 2,
    # a self-repeat at positions 0 and 2 -> union covers 4 tokens)
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["a b x", "y a b", "c d c d", "unique words only"]),
    })
    out = text.dup_spans(rd.from_arrow(tbl), w=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [0, 1, 2]
    assert out["n_dup_windows"].tolist() == [1, 1, 2]
    # doc0: tokens a,b covered (2); doc1: a,b (2); doc2: all 4
    assert out["n_tokens_covered"].tolist() == [2, 2, 4]
    assert out["n_tokens"].tolist() == [3, 3, 4]


def test_corpus_build_no_neardups(ray_session):
    """A corpus with zero near-dup pairs must pass through the
    cluster-removal stage untouched (empty component table)."""
    import ray.data as rd

    from pythongis_ray import pipelines

    tbl = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array([
                        "the quick fox is here now",
                        "a completely different sentence for sure",
                        "of all other words in existence"])})
    out = pipelines.corpus_build(rd.from_arrow(tbl)).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 2]
    assert (out["text_final"] == out["text_final"]).all()


def test_corpus_build_removes_dups_and_clusters(ray_session):
    import ray.data as rd

    from pythongis_ray import pipelines

    base = "the quick brown fox is jumping over a lazy dog in summer"
    near = base + " extra"
    tbl = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                    "text": pa.array([
                        base,             # representative
                        base,             # exact dup -> removed
                        near,             # near-dup -> removed
                        "numbers numbers numbers numbers numbers",  # no stopwords -> quality-filtered
                    ])})
    out = pipelines.corpus_build(rd.from_arrow(tbl)).to_pandas()
    assert out["doc_id"].tolist() == [0]


def _near_dup_corpus() -> pa.Table:
    """One 6-doc near-dup cluster (ids 0-5) and 6 distinct docs."""
    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "across the misty field of tall green grass today while a "
            "small bird sings in the old oak tree").split()
    docs = []
    for i in range(6):
        t = list(base)
        t[-3] = f"v{i}"
        docs.append(" ".join(t))
    docs += [" ".join(f"u{i}q{j}" if j % 4 else "the" for j in range(30))
             for i in range(6)]
    return pa.table({"doc_id": pa.array(np.arange(len(docs)), pa.int64()),
                     "text": pa.array(docs)})


def test_corpus_build_runs_no_schema_peek(ray_session, monkeypatch):
    """One corpus_build with near-dup pairs runs no ``limit=1`` schema
    peek, no sort shuffle and at most 3 Dataset executions, counted
    from the plans the streaming executor runs. The executions are the
    quality filter + fingerprint map, the LSH band explode, and the
    representative filter + PII scrub. The exact dedup, the band
    bucketing and the pair dedup fused with the degree cap on ``id_b``
    are task hash exchanges (``bucketed_group_apply``), the text attach
    and verify are tasks over block refs, and connected components and
    the drop set read block refs: none of them runs a plan."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from pythongis_ray import pipelines

    plans = []
    execute = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        ops, todo = {}, [dag]
        while todo:
            op = todo.pop()
            ops[id(op)] = op
            todo.extend(op.input_dependencies)
        plans.append(list(ops.values()))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    out = pipelines.corpus_build(rd.from_arrow(_near_dup_corpus())) \
        .to_pandas()
    assert sorted(out["doc_id"]) == [0, 6, 7, 8, 9, 10, 11]
    peeks = sum(any(type(op).__name__ == "LimitOperator"
                    and op._limit == 1 for op in ops) for ops in plans)
    sorts = sum(type(op).__name__ == "AllToAllOperator"
                and op.name.startswith("Sort")
                for ops in plans for op in ops)
    assert peeks == 0
    assert sorts == 0
    assert len(plans) <= 3


def test_corpus_build_logs_no_refbundle_schema_warning(ray_session):
    """One corpus_build maps no stage over a 0-row or schema-less
    block, so the streaming executor logs no "RefBundle with a
    different schema" line."""
    import logging

    import ray.data as rd

    from pythongis_ray import pipelines

    lines = []

    class Collect(logging.Handler):
        def emit(self, record):
            if "RefBundle with a different schema" in record.getMessage():
                lines.append(record.getMessage())

    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    handler, level = Collect(), log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    try:
        out = pipelines.corpus_build(rd.from_arrow(_near_dup_corpus())) \
            .to_pandas()
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    assert sorted(out["doc_id"]) == [0, 6, 7, 8, 9, 10, 11]
    assert lines == []


def test_dedup_incremental_reference(ray_session):
    """Engine vs plain-python reference on a corpus with cross-half
    duplicates."""
    import pandas as pd
    import ray.data as rd

    from pythongis_ray import text as t

    texts = ["alpha", "beta", "gamma", "alpha", "delta", "beta",
             "epsilon", "zeta", "epsilon", "eta"]
    df = pd.DataFrame({"doc_id": range(10), "text": texts})
    old_df = df[df.doc_id % 2 == 0]
    new_df = df[df.doc_id % 2 == 1]
    out = t.dedup_incremental(rd.from_pandas(new_df),
                              rd.from_pandas(old_df)).to_pandas()
    seen = set(old_df.text)
    ref = {}
    for _, r in new_df.iterrows():
        if r.text in seen:
            continue
        k = ref.setdefault(r.text, [r.doc_id, 0])
        k[1] += 1
    expect = sorted((v[0], v[1]) for v in ref.values())
    got = sorted(zip(out.doc_id, out.n_copies))
    assert got == expect


def test_split_holdout_leakage_free(ray_session):
    """Every page of a host lands in the same split; splits are
    deterministic across runs and partitionings."""
    from pythongis_ray import queries as q

    out = q.q_split_holdout(SF_DIR).to_pandas()
    per_host = out.groupby("host")["split"].nunique()
    assert (per_host == 1).all()
    assert set(out.split.unique()) <= {"train", "valid", "test"}
    assert (out.bucket == out.bucket).all() and out.bucket.between(0, 99).all()
    again = q.q_split_holdout(SF_DIR).to_pandas()
    m = out.sort_values("page_id").reset_index(drop=True)
    a = again.sort_values("page_id").reset_index(drop=True)
    assert m.equals(a)


def test_mixture_sample_rates(ray_session):
    """Kept fraction per language tracks the configured per-mille rate
    (content-addressed: exact membership is deterministic)."""
    import pandas as pd

    from pythongis_ray import queries as q

    out = q.q_mixture_sample(SF_DIR).to_pandas()
    full = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id", "lang"])
    kept = out.groupby("lang").size()
    tot = full.groupby("lang").size()
    for lang, rate in q.MIXTURE_PERMILLE.items():
        if lang not in tot.index:
            continue
        frac = kept.get(lang, 0) / tot[lang]
        assert abs(frac - rate / 1000) < 0.2, (lang, frac, rate)
    assert len(out) < len(full)
