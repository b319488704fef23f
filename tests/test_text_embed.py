import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pythongis_ray import embed, text
from pythongis_ray.pages import read_sf_table

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    return read_sf_table(SF, "documents")


def test_token_count_matches_split(ray_session, docs):
    out = docs.map_batches(text.token_count, batch_format="pyarrow").to_pandas()
    exp = out.text.str.split(" ").str.len()
    assert (out.n_tokens == exp).all()


def test_quality_score(ray_session, docs):
    out = docs.map_batches(text.quality_score, batch_format="pyarrow").to_pandas()
    row = out.iloc[0]
    toks = row.text.split(" ")
    assert row.n_tokens == len(toks)
    assert row.n_stop == sum(t in text.STOPWORDS for t in toks)
    assert row.stop_ratio == row.n_stop / row.n_tokens


def test_word_frequency(ray_session, docs):
    top = text.word_frequency(docs, top_k=5)
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    from collections import Counter

    c = Counter(w for t in pdf.text for w in t.split(" "))
    exp = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(top.word, top.cnt)) == [(w, n) for w, n in exp]


def test_fingerprint_dedup_key(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"text": ["a b c", "a b c", "x y", "", "a b d"]})
    out = rd.from_pandas(df).map_batches(text.fingerprint,
                                         batch_format="pyarrow").to_pandas()
    assert out.fp[0] == out.fp[1]
    assert out.fp[0] != out.fp[2]
    assert out.fp[0] != out.fp[4]
    # vectorized hash equals scalar recurrence
    h = 0
    for b in b"a b c":
        h = (h * 1099511628211 + b) % (1 << 64)
    assert int(np.uint64(out.fp[0])) == h


def test_minhash_similar_docs_bucket_together():
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = "the quick brown fox jumps over the lazy dog again and again tomorrow"
    c = "completely different words with no overlap whatsoever in this text"
    sa, sb, sc = (text.minhash_signature(t) for t in (a, b, c))
    sim_ab = (sa == sb).mean()
    sim_ac = (sa == sc).mean()
    assert sim_ab > 0.5 > sim_ac
    assert text.jaccard_tokens(a, b) > 0.8


def test_batch_minhash_matches_per_doc():
    """The batch-vectorized signature path (raw-buffer token hashing →
    rolling shingles → reduceat minhash) must equal the per-doc
    reference implementation, including <k-token and empty docs."""
    import pyarrow as pa

    docs = [
        "the quick brown fox jumps over the lazy dog again and again",
        "one two",            # fewer tokens than the shingle width
        "",                   # empty doc
        "a b c d e",          # exactly k tokens
        "alpha beta gamma delta epsilon zeta eta theta",
    ]
    arr = pa.array(docs, pa.string())
    th, tok_offs = text._batch_token_hashes(arr)
    sh, sh_offs = text._batch_shingles(th, tok_offs)
    sigs = text._batch_minhash(sh, sh_offs)
    for i, d in enumerate(docs):
        assert (sigs[i] == text.minhash_signature(d)).all(), d
    # sliced array (non-zero offset) must hash identically
    sl = arr.slice(2, 3)
    th2, to2 = text._batch_token_hashes(sl)
    sh2, so2 = text._batch_shingles(th2, to2)
    sigs2 = text._batch_minhash(sh2, so2)
    assert (sigs2 == sigs[2:5]).all()


def test_minhash_dedup_pairs(ray_session):
    import ray.data as rd

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [base + " one", base + " two", "unrelated totally distinct tokens here"],
    })
    pairs = text.minhash_dedup_pairs(rd.from_pandas(df), threshold=0.5).to_pandas()
    assert set(zip(pairs.id_a, pairs.id_b)) == {(1, 2)}


def _loop_bucket_pairs(b, keys, id_col, bucket_cap, degree_cap):
    """The reference for text._bucket_pairs: one np.unique and one
    emission per bucket, as the pair generators ran before."""
    outs, n_dropped = [], 0
    for _, g in b.groupby(keys, sort=False):
        ids = np.unique(g[id_col].to_numpy())
        if bucket_cap is not None and len(ids) > bucket_cap:
            n_dropped += len(ids) - bucket_cap
            ids = ids[:bucket_cap]
        if degree_cap is None:
            ia, ib = np.triu_indices(len(ids), k=1)
        else:
            counts = np.minimum(np.arange(len(ids)), degree_cap)
            ib = np.repeat(np.arange(len(ids)), counts)
            ia = np.arange(counts.sum()) - np.repeat(
                np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        outs += zip(ids[ia].tolist(), ids[ib].tolist())
    return sorted(outs), n_dropped


def test_bucket_pairs_matches_per_bucket_loop():
    """The vectorized band-bucket kernel emits the per-bucket loop's
    pair multiset and dropped-member count on random buckets with
    repeated ids, for every cap combination and a 0-row bucket."""
    rng = np.random.default_rng(17)
    frames = [pd.DataFrame({"band_id": np.empty(0, np.int64),
                            "band_hash": np.empty(0, np.int64),
                            "doc_id": np.empty(0, np.int64)})]
    for _ in range(30):
        n = int(rng.integers(1, 600))
        frames.append(pd.DataFrame({
            "band_id": rng.integers(0, 3, n),
            "band_hash": rng.integers(-4, 4, n) * (1 << 60),
            "doc_id": rng.integers(0, int(rng.integers(2, 300)), n)}))
    keys = ["band_id", "band_hash"]
    for b in frames:
        for bucket_cap in (None, 5, 1024):
            for degree_cap in (None, 3, 64):
                pairs, n_dropped = text._bucket_pairs(
                    b, keys, "doc_id", bucket_cap, degree_cap)
                got = sorted(zip(pairs["id_a"].tolist(),
                                 pairs["id_b"].tolist()))
                assert (got, n_dropped) == _loop_bucket_pairs(
                    b, keys, "doc_id", bucket_cap, degree_cap)
                assert list(pairs.columns) == ["id_a", "id_b"]
                assert pairs["id_a"].dtype == np.int64


def _joined_pair_texts(cand, ds):
    """The reference for _attach_pair_texts: its texts attached by two
    join_large shuffles, on id_a and then on id_b."""
    from pythongis_ray import relational as rel

    def side(s: str):
        return ds.map_batches(
            lambda b: b.select(["doc_id", "text"]).rename_columns(
                [f"id_{s}", f"text_{s}"]), batch_format="pyarrow")

    return rel.join_large(rel.join_large(cand, side("a"), on="id_a"),
                          side("b"), on="id_b")


def test_attach_pair_texts_broadcast_matches_join(ray_session):
    """The broadcast lookup of _attach_pair_texts gives the rows of
    the two-join reference: int32 ids come out int64, an id that ds
    holds twice gives one row per match, a pair with an id missing
    from ds is dropped, the 0-row blocks of both inputs are skipped,
    and candidates none of whose ids is in ds give no rows."""
    import ray.data as rd

    i32 = pa.int32()
    ds = rd.from_arrow([
        pa.table({"doc_id": pa.array([1, 2, 3], i32),
                  "text": ["a b", "c d", "e f"]}),
        pa.table({"doc_id": pa.array([], i32),
                  "text": pa.array([], pa.string())}),
        pa.table({"doc_id": pa.array([3, 4, 6], i32),
                  "text": ["e f again", "g h", "not a candidate"]})])
    cand = rd.from_arrow([
        pa.table({"id_a": pa.array([1, 2, 1], i32),
                  "id_b": pa.array([2, 3, 5], i32)}),
        pa.table({"id_a": pa.array([], i32), "id_b": pa.array([], i32)}),
        pa.table({"id_a": pa.array([3], i32), "id_b": pa.array([4], i32)})])

    def rows(out):
        out = out.to_pandas()
        return out.sort_values(list(out.columns)).reset_index(drop=True)

    broadcast = rows(text._attach_pair_texts(cand, ds, "doc_id", "text"))
    pd.testing.assert_frame_equal(broadcast, rows(_joined_pair_texts(cand, ds)))
    assert list(broadcast.columns) == ["id_a", "id_b", "text_a", "text_b"]
    assert broadcast["id_a"].dtype == np.int64
    assert broadcast["id_b"].dtype == np.int64
    assert broadcast.values.tolist() == [
        [1, 2, "a b", "c d"],
        [2, 3, "c d", "e f"],
        [2, 3, "c d", "e f again"],
        [3, 4, "e f", "g h"],
        [3, 4, "e f again", "g h"]]
    absent = rd.from_arrow(pa.table({"id_a": pa.array([7], i32),
                                     "id_b": pa.array([8], i32)}))
    assert text._attach_pair_texts(absent, ds, "doc_id", "text") \
        .count() == 0
    empty = rd.from_arrow(pa.table({"id_a": pa.array([], i32),
                                    "id_b": pa.array([], i32)}))
    assert text._attach_pair_texts(empty, ds, "doc_id", "text") is None


def test_attach_pair_texts_keeps_one_lookup_per_worker(ray_session):
    """Every _attach_pair_texts call broadcasts a new text lookup; the
    worker that builds it drops the previous call's, so repeated calls
    leave one lookup per worker, not one per call. The probe is the
    attach tasks' ``finish`` step, so it reads the cache of the worker
    that just attached."""
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"doc_id": [1, 2, 3],
                                 "text": ["a b", "c d", "e f"]}))
    cand = rd.from_arrow(pa.table({"id_a": [1, 2], "id_b": [2, 3]}))

    def probe(batch: pa.Table) -> pa.Table:
        from pythongis_ray import state
        n = sum(k[1:] == ("pair_texts",) for k in state._CACHE)
        return pa.table({"lookups": [n]})

    for _ in range(6):
        out = text._attach_pair_texts(cand, ds, "doc_id", "text",
                                      finish=probe)
        assert out.to_pandas()["lookups"].tolist() == [1]


def test_jaccard_pairs_batch_matches_scalar():
    import pyarrow as pa

    docs_a = ["alpha beta gamma delta epsilon zeta eta theta",
              "one two three", "", "x", "a b c d e f g h i j",
              "the quick brown fox jumps over the lazy dog again and again"]
    docs_b = ["alpha beta gamma delta epsilon zeta eta iota",
              "one two three", "", "x y", "a b c d e f g h i j",
              "the quick brown fox jumps over the lazy cat again and again"]
    vec = text.jaccard_pairs_batch(pa.array(docs_a), pa.array(docs_b))
    for i, (a, b) in enumerate(zip(docs_a, docs_b)):
        assert vec[i] == text.jaccard_shingles(a, b), (a, b)


def test_simhash_similarity():
    a = text.simhash64("the quick brown fox jumps over the lazy dog")
    b = text.simhash64("the quick brown fox jumps over the lazy cat")
    c = text.simhash64("zzz completely unrelated corpus of terms qqq")
    ham = lambda x, y: bin(x ^ y).count("1")
    assert ham(a, b) < ham(a, c)


def test_batch_simhash_matches_per_doc():
    import pyarrow as pa

    docs = ["the quick brown fox", "", "one", "a b c d e f g h i j k",
            "the quick brown fox jumps over the lazy cat"]
    out = text.simhash_batch(pa.array(docs, pa.string()))
    for i, d in enumerate(docs):
        assert int(out[i]) == text.simhash64(d), d


def test_simhash_pairs_hamming_verified(ray_session):
    """simhash_dedup_pairs == brute-force (share-a-band AND
    hamming <= t) on a small corpus."""
    import itertools

    import ray.data as rd

    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
             "theta", "iota", "kappa", "mu", "nu"]
    docs = []
    for i in range(40):
        base = list(rng.choice(vocab, size=12))
        docs.append(" ".join(base))
        if i % 3 == 0:  # a near-dup: one token swapped
            mut = base.copy()
            mut[rng.integers(len(mut))] = "swapped"
            docs.append(" ".join(mut))
    df = pd.DataFrame({"doc_id": np.arange(len(docs)), "text": docs})
    t = 8
    got = text.simhash_dedup_pairs(rd.from_pandas(df), max_hamming=t) \
        .to_pandas()
    hs = {i: text.simhash64(d) for i, d in enumerate(docs)}
    exp = set()
    for a, b in itertools.combinations(range(len(docs)), 2):
        ham = bin(hs[a] ^ hs[b]).count("1")
        shares_band = any(((hs[a] >> (16 * k)) & 0xFFFF) ==
                          ((hs[b] >> (16 * k)) & 0xFFFF) for k in range(4))
        if ham <= t and shares_band:
            exp.add((a, b, ham))
    assert set(zip(got.id_a, got.id_b, got.hamming)) == exp


def test_langid(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"text": [
        "the cat is in the house and the dog is on a mat",
        "der hund ist nicht die katze und das ist gut",
        "le chat est dans la maison et les chiens",
        "qqq zzz www",
    ]})
    out = rd.from_pandas(df).map_batches(
        text.LanguageId, batch_format="pyarrow", batch_size=10,
        concurrency=2).to_pandas()
    assert out.lang_pred.tolist() == ["en", "de", "fr", "und"]


# ----------------------------------------------------------- embeddings

def test_ann_topk_matches_bruteforce(ray_session):
    emb = read_sf_table(SF, "embeddings")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    queries = pdf[pdf.vec_id < 3]
    out = embed.ann_topk(emb, queries, k=4)
    mat = embed.quantize(np.vstack(pdf.embedding.to_numpy()))
    ids = pdf.vec_id.to_numpy()
    for qid in queries.vec_id:
        q = mat[ids == qid][0]
        scores = mat @ q
        order = [i for i in np.lexsort((ids, -scores)) if ids[i] != qid][:4]
        got = out[out.query_id == qid].sort_values("rank")
        assert got.neighbor_id.tolist() == ids[order].tolist()
        assert got.score.tolist() == scores[order].tolist()


def test_ann_lsh_recall(ray_session):
    emb = read_sf_table(SF, "embeddings")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    queries = pdf[pdf.vec_id < 5]
    exact = embed.ann_topk(emb, queries, k=3)
    approx = embed.ann_lsh(emb, queries, k=3, n_planes=2)
    # approximate: shape identical, some overlap with the exact result
    assert set(approx.columns) == set(exact.columns)
    hits = len(set(zip(approx.query_id, approx.neighbor_id))
               & set(zip(exact.query_id, exact.neighbor_id)))
    assert hits >= 2


def test_label_centroids(ray_session):
    emb = read_sf_table(SF, "embeddings")
    out = embed.label_centroids(emb).to_pandas().sort_values("label")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    mat = embed.quantize(np.vstack(pdf.embedding.to_numpy()))
    for _, r in out.iterrows():
        m = pdf.label.to_numpy() == r.label
        exp = mat[m].sum(axis=0) / m.sum()
        assert np.array_equal(np.asarray(r.centroid), exp)
        assert r.n == m.sum()


def test_neardup_pairs_exact(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    base = rng.standard_normal(8)
    vecs = [base, base + rng.standard_normal(8) * 0.01,
            rng.standard_normal(8), rng.standard_normal(8)]
    vecs = [(v / np.linalg.norm(v)).astype(np.float32) for v in vecs]
    df = pd.DataFrame({"vec_id": [0, 1, 2, 3], "embedding": [list(map(float, v)) for v in vecs]})
    out = embed.neardup_pairs_blocked(rd.from_pandas(df),
                                      threshold=900_000).to_pandas()
    assert set(zip(out.id_a, out.id_b)) == {(0, 1)}
    # score equals the brute-force quantized dot
    q = [np.rint(np.asarray(v, np.float64) * 1000).astype(np.int64) for v in vecs]
    assert out.score.iloc[0] == int(q[0] @ q[1])


def test_neardup_pairs_blocked_matches_broadcast(ray_session):
    """The distributed 1-Bucket-Theta self-join emits exactly the
    brute-force pair set (every a < b with quantized dot >= the
    threshold, each unordered pair once), for any block count."""
    emb = read_sf_table(SF, "embeddings",
                        columns=["vec_id", "embedding"])
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    ids = pdf.vec_id.to_numpy(np.int64)
    mat = embed.quantize(np.vstack(pdf.embedding.to_numpy()))
    scores = mat @ mat.T
    ai, bj = np.nonzero((scores >= 400_000)
                        & (ids[:, None] < ids[None, :]))
    want = sorted(zip(ids[ai].tolist(), ids[bj].tolist(),
                      scores[ai, bj].tolist()))
    assert want                        # the check is not vacuous
    for nb in (1, 3, 8):
        got = embed.neardup_pairs_blocked(
            emb, threshold=400_000, n_blocks=nb).to_pandas()
        assert sorted(zip(got.id_a.tolist(), got.id_b.tolist(),
                          got.score.tolist())) == want


def test_ann_ivf_recall_and_exactness_at_full_probe(ray_session):
    emb = read_sf_table(SF, "embeddings")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    queries = pdf[pdf.vec_id < 4]
    exact = embed.ann_topk(emb, queries, k=3)
    # probing EVERY list must reproduce the exact result
    full = embed.ann_ivf(emb, queries, k=3, n_centroids=8, nprobe=8)
    key = lambda d: sorted(zip(d.query_id, d["rank"], d.neighbor_id))
    assert key(full) == key(exact)
    # small probe: valid shape, ranked, plausible recall
    part = embed.ann_ivf(emb, queries, k=3, n_centroids=8, nprobe=2)
    assert set(part.columns) == set(exact.columns)
    overlap = len(set(zip(part.query_id, part.neighbor_id))
                  & set(zip(exact.query_id, exact.neighbor_id)))
    assert overlap >= len(exact) // 2


def test_lm_surprisal_matches_bruteforce(ray_session, docs):
    """Engine LM score == brute-force: total token count, top-V vocab
    (count desc, word asc ties), OOV -> count 1, per-token surprisal =
    bit_length(total // count), summed per doc."""
    from collections import Counter

    V = 16   # far below the corpus vocab so OOV is exercised
    out = text.lm_surprisal(docs, vocab_size=V).to_pandas() \
        .set_index("doc_id").sort_index()
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    c = Counter(w for t in pdf.text for w in t.split(" "))
    total = sum(c.values())
    top = dict(sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:V])
    for _, row in pdf.head(40).iterrows():
        toks = row.text.split(" ")
        bits = sum((total // top.get(w, 1)).bit_length() for w in toks)
        assert out.loc[row.doc_id, "n_tokens"] == len(toks)
        assert out.loc[row.doc_id, "surprisal_bits"] == bits


def test_quality_funnel_first_failing_rule(ray_session):
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "short text",                                    # too_short
            " ".join(["x y"] * 20),                         # no stopwords
            " ".join(["the quick fox"] * 12),   # repetitive, has stopwords
            "the quick brown fox jumps over a lazy dog and "
            "then it runs to the old mill by the river bank",  # kept
        ])})
    out = text.quality_funnel(tbl).to_pandas().set_index("doc_id")
    assert out.loc[0, "verdict"] == "too_short"
    assert out.loc[1, "verdict"] == "low_stopword"
    # doc 2: 36 tokens, stopword 'the' 12/36 >= 2%, bigram dup mass high
    assert out.loc[2, "verdict"] == "repetitive"
    assert out.loc[3, "verdict"] == "kept"


def _ref_bpe_learn(word_counts, n_merges):
    """Independent reference BPE (Sennrich et al. algorithm 1)."""
    words = {tuple(w): c for w, c in word_counts.items()}
    merges = []
    for _ in range(n_merges):
        pairs = {}
        for syms, c in words.items():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        nw = {}
        for syms, c in words.items():
            out, j = [], 0
            while j < len(syms):
                if j + 1 < len(syms) and (syms[j], syms[j + 1]) == best:
                    out.append(syms[j] + syms[j + 1]); j += 2
                else:
                    out.append(syms[j]); j += 1
            nw[tuple(out)] = nw.get(tuple(out), 0) + c
        words = nw
    return merges


def _ref_bpe_encode_len(word, rank):
    syms = list(word)
    while len(syms) > 1:
        cand = [(rank[(a, b)], i) for i, (a, b) in
                enumerate(zip(syms, syms[1:])) if (a, b) in rank]
        if not cand:
            break
        r0 = min(r for r, _ in cand)
        out, j = [], 0
        while j < len(syms):
            if j + 1 < len(syms) and rank.get((syms[j], syms[j + 1])) == r0:
                out.append(syms[j] + syms[j + 1]); j += 2
            else:
                out.append(syms[j]); j += 1
        syms = out
    return len(syms)


def test_bpe_matches_reference_implementation(ray_session, docs):
    from collections import Counter

    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    wc = Counter(w for t in pdf.text for w in t.split(" "))
    merges = text.bpe_learn(docs, n_merges=24, vocab_words=1 << 20)
    assert merges == _ref_bpe_learn(dict(wc), 24)
    rank = {m: i for i, m in enumerate(merges)}
    out = text.bpe_token_counts(docs, merges).to_pandas() \
        .set_index("doc_id").sort_index()
    for _, row in pdf.head(25).iterrows():
        toks = row.text.split(" ")
        want = sum(_ref_bpe_encode_len(w, rank) for w in toks)
        assert out.loc[row.doc_id, "n_words"] == len(toks)
        assert out.loc[row.doc_id, "n_bpe_tokens"] == want


def test_ann_ivf_int_full_probe_exact_and_deterministic(ray_session):
    """Integer-lattice IVF: probing every list reproduces the exact
    top-k, and two runs produce identical output (bit-reproducible
    training — no RNG, integer partials)."""
    emb = read_sf_table(SF, "embeddings")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    queries = pdf[pdf.vec_id < 4]
    exact = embed.ann_topk(emb, queries, k=3)
    full = embed.ann_ivf_int(emb, queries, k=3, n_centroids=8, nprobe=8,
                             iters=2)
    key = lambda d: sorted(zip(d.query_id, d["rank"], d.neighbor_id))
    assert key(full) == key(exact)
    part1 = embed.ann_ivf_int(emb, queries, k=3, n_centroids=8, nprobe=2,
                              iters=2)
    part2 = embed.ann_ivf_int(emb, queries, k=3, n_centroids=8, nprobe=2,
                              iters=2)
    assert key(part1) == key(part2)
    assert set(part1.columns) == set(exact.columns)


def test_cms_sketch_one_sided_and_mergeable(ray_session, docs):
    """CM estimates dominate true counts for EVERY word (not just the
    registered candidates), and two shard sketches merged cell-wise
    equal the full-corpus sketch."""
    from collections import Counter

    sk = text.cms_sketch(docs).to_pandas()
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    true = Counter(w for t in pdf.text for w in t.split(" "))
    words = sorted(true)
    est = text.cms_estimate(sk, words)
    for w, e in zip(words, est):
        assert e >= true[w]
    # total mass per depth row equals the token stream length
    assert (sk.groupby("d")["cnt"].sum() == sum(true.values())).all()
    # mergeability: shard sketches add cell-wise to the full sketch
    import ray.data as rd

    half = len(pdf) // 2
    a = text.cms_sketch(rd.from_pandas(pdf.iloc[:half])).to_pandas()
    b = text.cms_sketch(rd.from_pandas(pdf.iloc[half:])).to_pandas()
    merged = (
        pd.concat([a, b]).groupby(["d", "slot"])["cnt"].sum().reset_index()
    )
    full = sk.sort_values(["d", "slot"]).reset_index(drop=True)
    merged = merged.sort_values(["d", "slot"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(full, merged)


def test_cms_slots_match_scalar_hash(ray_session):
    words = ["the", "zebra", "", "Straße"]
    th = np.array([text.hash_token(w) for w in words], dtype=np.uint64)
    sl = text.cms_slots(th)
    assert sl.shape == (text.CMS_DEPTH, len(words))
    assert ((sl >= 0) & (sl < text.CMS_WIDTH)).all()
    # independent recompute of the split-multiply the SQL oracle uses
    for d in range(text.CMS_DEPTH):
        m = int(text.CMS_MULTS[d])
        for i, w in enumerate(words):
            h = text.hash_token(w)
            mixed = (h * (m & 0xFFFFFFFF)
                     + ((h * (m >> 32)) % (1 << 32)) * (1 << 32)) % (1 << 64)
            assert sl[d, i] == mixed >> (64 - text.CMS_WIDTH_BITS)


def test_quality_lr_exact(ray_session, docs):
    out = docs.map_batches(text.quality_lr,
                           batch_format="pyarrow").to_pandas()
    w = text.QLR_WEIGHTS
    for _, row in out.head(20).iterrows():
        t = row.text
        toks = t.split(" ")
        exp = (w["bias"] + w["n_tokens"] * len(toks)
               + w["n_stop"] * sum(x in text.STOPWORDS for x in toks)
               + w["n_punct"] * sum(c in ".,!?;:" for c in t)
               + w["n_digit"] * sum(c.isdigit() for c in t)
               + w["n_upper"] * sum("A" <= c <= "Z" for c in t))
        assert row.score == exp
    assert out.score.dtype == np.int64


def test_url_filter_semantics(ray_session):
    from pythongis_ray.queries import q_url_filter, URL_BLOCKLIST

    out = q_url_filter(SF).to_pandas()
    assert len(out) > 0
    for h in out.url_host:
        for e in URL_BLOCKLIST:
            assert h != e and not h.endswith("." + e)
    # blocked hosts actually existed: an adsnet page must have been dropped
    pdf = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    assert (pdf.doc_id % 4 == 2).any()
    assert len(out) < len(pdf)


def _cdc_ref_chunks(s: str):
    P, M = 1099511628211, 1 << 64
    b = s.encode()
    bounds = []
    for p in range(7, len(b) - 1):
        h = 0
        for j in range(8):
            h = (h * P + b[p - 7 + j]) % M
        if h % 64 == 0:
            bounds.append(p)
    cuts = [0] + [p + 1 for p in bounds] + [len(b)]
    return [s[cuts[i]:cuts[i + 1]] for i in range(len(cuts) - 1)]


def test_cdc_chunks_match_reference(ray_session, docs):
    """Vectorized chunker == per-byte Python reference, and the
    shift property: inserting a prefix re-chunks only the head."""
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/documents.parquet")[["doc_id", "text"]]
    out = rd.from_pandas(pdf).map_batches(
        text.cdc_chunk_table, batch_format="pyarrow",
        batch_size=64).to_pandas()
    P, M = 1099511628211, 1 << 64

    def polyh(s):
        h = 0
        for c in s.encode():
            h = (h * P + c) % M
        return h - (M if False else 0)

    rows = []
    for _, r in pdf.iterrows():
        for c in _cdc_ref_chunks(r.text):
            h = polyh(c)
            rows.append((r.doc_id, h - (M if h >= 1 << 63 else 0)))
    ref = pd.DataFrame(rows, columns=["doc_id", "ch"])
    a = out.sort_values(["doc_id", "ch"]).reset_index(drop=True)
    b = ref.sort_values(["doc_id", "ch"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # content-defined shift property: a long doc keeps most chunk
    # hashes when text is PREPENDED (fixed-size blocks would lose all)
    t = pdf.loc[pdf.text.str.len().idxmax(), "text"]
    orig = set(polyh(c) for c in _cdc_ref_chunks(t))
    shifted = set(polyh(c) for c in _cdc_ref_chunks("PREFIX " + t))
    assert len(orig & shifted) >= len(orig) * 0.5


def test_cdc_shared_stats(ray_session, docs):
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/documents.parquet")[["doc_id", "text"]]
    st = text.cdc_shared_stats(rd.from_pandas(pdf)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(st) == len(pdf)
    assert (st.n_shared <= st.n_chunks).all()
    assert st.n_chunks.sum() == sum(
        len(_cdc_ref_chunks(t)) for t in pdf.text)


def test_kmeans_bit_reproducible_vs_reference(ray_session):
    """Distributed integer-sum Lloyd == single-machine numpy Lloyd,
    bit-exact, regardless of partitioning."""
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    for nblocks in (1, 7):
        ds = rd.from_pandas(pdf).repartition(nblocks)
        C = embed.kmeans_fit(ds, k=4, iters=3)
        # reference: same init (vec_id < k sorted), same integer sums
        seed = pdf[pdf.vec_id < 4].sort_values("vec_id")
        R = embed.quantize(np.vstack(seed.embedding.to_numpy()))
        X = embed.quantize(np.vstack(pdf.embedding.to_numpy()))
        for _ in range(3):
            Xf, Rf = X.astype(np.float64), R.astype(np.float64)
            d2 = ((Xf ** 2).sum(1)[:, None] - 2 * (Xf @ Rf.T)
                  + (Rf ** 2).sum(1)[None, :])
            a = np.argmin(d2, axis=1)
            R = R.copy()
            for c in range(4):
                m = a == c
                if m.any():
                    R[c] = embed._round_half_away(
                        X[m].sum(axis=0).astype(np.float64) / m.sum())
        assert np.array_equal(C, R), f"mismatch at nblocks={nblocks}"


def test_kmeans_assign_nearest(ray_session):
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    ds = rd.from_pandas(pdf)
    C = embed.kmeans_fit(ds, k=4, iters=2)
    out = embed.kmeans_assign(ds, C).to_pandas()
    X = embed.quantize(np.vstack(out.embedding.to_numpy()))
    assert np.array_equal(out.cluster.to_numpy(), embed._int_assign(X, C))
    assert out.cluster.nunique() > 1


def test_semdedup_vs_bruteforce(ray_session):
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    ds = rd.from_pandas(pdf).repartition(5)
    C = embed.kmeans_fit(ds, k=4, iters=2)
    out = embed.semdedup(ds, C, threshold=350_000).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    # brute force: same assignment, then pairwise dots within cluster
    X = embed.quantize(np.vstack(
        pdf.sort_values("vec_id").embedding.to_numpy()))
    ids = np.sort(pdf.vec_id.to_numpy())
    a = embed._int_assign(X, C)
    S = X.astype(np.float64) @ X.astype(np.float64).T
    dup = (S >= 350_000.0) & (a[:, None] == a[None, :]) \
        & (ids[None, :] < ids[:, None])
    kept = ~dup.any(axis=1)
    assert np.array_equal(out.vec_id.to_numpy(), ids)
    assert np.array_equal(out.cluster.to_numpy(), a)
    assert np.array_equal(out.kept.to_numpy().astype(bool), kept)
    assert 0 < kept.sum() < len(ids)


def test_lm_score_vs_bruteforce(ray_session):
    """lm_score matches a dict-based serial bigram model exactly,
    including <2-token docs scoring (0, 0)."""
    import ray.data as rd

    from pythongis_ray import text as T

    docs = ["a b a b c", "a b", "x", "", "b c b c", "a a a",
            "c a b c a"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(docs)), pa.int64()),
        "text": pa.array(docs)}))
    out = (T.lm_score(ds).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    from collections import Counter
    c12, c1 = Counter(), Counter()
    for d in docs:
        t = d.split(" ")
        for w1, w2 in zip(t, t[1:]):
            c12[(w1, w2)] += 1
            c1[w1] += 1
    for i, d in enumerate(docs):
        t = d.split(" ")
        prs = list(zip(t, t[1:]))
        want = sum(c12[p] * T.LM_SCALE // c1[p[0]] for p in prs)
        row = out.iloc[i]
        assert row["doc_id"] == i
        assert row["lm_score"] == want, (i, d)
        assert row["n_bigrams"] == len(prs)


def test_bigram_model_standalone(ray_session):
    """bigram_model (the exportable model-table op) matches the dict
    brute force; bigrams_exploded emits exactly the consecutive
    pairs."""
    import ray.data as rd

    from pythongis_ray import text as T

    docs = ["a b a", "b a b", "c", ""]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(docs)), pa.int64()),
        "text": pa.array(docs)}))
    pairs = T.bigrams_exploded(ds).to_pandas()
    want_pairs = sorted([(0, "a", "b"), (0, "b", "a"),
                         (1, "b", "a"), (1, "a", "b")])
    got_pairs = sorted(zip(pairs.doc_id, pairs.w1, pairs.w2))
    assert got_pairs == want_pairs

    model = T.bigram_model(T.bigrams_exploded(ds)).to_pandas()
    got = {(r.w1, r.w2): r.r for r in model.itertuples()}
    # C(a,b)=2 C(a)=2 ; C(b,a)=2 C(b)=2
    assert got == {("a", "b"): T.LM_SCALE, ("b", "a"): T.LM_SCALE}


def test_gopher_rules_vs_bruteforce(ray_session):
    from pythongis_ray import text as T

    docs = ["the a and of to in is on for with extra words here",
            "zz zz zz zz", "one", "", "the the the a a xyzzy",
            "abcdefghijk lmnopqrstuv wxyzabcdefg"]
    batch = pa.table({"doc_id": pa.array(np.arange(len(docs)),
                                         pa.int64()),
                      "text": pa.array(docs)})
    out = T.gopher_rules(batch).to_pandas()
    for i, d in enumerate(docs):
        toks = d.split(" ")
        r = out.iloc[i]
        assert r["n_tokens"] == len(toks)
        assert r["n_distinct"] == len(set(toks))
        stops = {t for t in toks if t in T.STOPWORDS}
        assert r["n_stop_distinct"] == len(stops)
        n_alpha = len(d.replace(" ", ""))
        assert r["ok_wordlen"] == int(3 * len(toks) <= n_alpha
                                      <= 10 * len(toks))
        assert r["ok_stopvariety"] == int(len(stops) >= 2)
        assert r["ok_ttr"] == int(2 * len(set(toks)) >= len(toks))


def test_kmv_by_host_exact_below_k(ray_session):
    """With k larger than any group's distinct-token count, every
    group reports its EXACT distinct count (kth_hash = -1)."""
    import ray.data as rd

    from pythongis_ray import text as T

    docs = ["a b c", "a b", "x y z w", "x x x", "p q", "p q r"]
    hosts = [0, 0, 1, 1, 2, 2]
    ds = rd.from_arrow(pa.table({
        "host": pa.array(hosts, pa.int64()),
        "text": pa.array(docs)}))
    out = (T.kmv_distinct_by(ds, "host", k=64).to_pandas()
           .sort_values("host").reset_index(drop=True))
    want = {0: 3, 1: 4, 2: 3}
    assert out["host"].tolist() == [0, 1, 2]
    assert out["est"].tolist() == [float(want[h]) for h in (0, 1, 2)]
    assert (out["kth_hash"] == -1).all()
    assert out["n_seen"].tolist() == [3, 4, 3]


def test_phrase_search_vs_bruteforce(ray_session, docs):
    phrase = ["part", "filter"]
    out = text.phrase_search(docs, phrase).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    exp = []
    for did, t in zip(pdf.doc_id, pdf.text):
        toks = t.split(" ")
        hits = [i for i in range(len(toks) - len(phrase) + 1)
                if toks[i:i + len(phrase)] == phrase]
        if hits:
            exp.append((did, len(hits), hits[0]))
    exp = sorted(exp)
    assert len(out) == len(exp) > 0
    assert list(zip(out.doc_id, out.n_matches, out.first_pos)) == exp


def test_phrase_search_doc_boundary(ray_session):
    """A phrase straddling two docs must NOT match; repeated and
    overlapping occurrences within one doc all count."""
    import ray.data as rd

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "x y a b",          # ends with the phrase prefix 'a b'
            "c z z",            # starts with the suffix 'c' -> no match
            "a b c q a b c",    # two occurrences
            "a a a",            # overlapping occurrences of 'a a'
        ]),
    })
    ds = rd.from_arrow(tbl)
    out = text.phrase_search(ds, ["a", "b", "c"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(zip(out.doc_id, out.n_matches, out.first_pos)) == \
        [(3, 2, 0)]
    out2 = text.phrase_search(ds, ["a", "a"]).to_pandas()
    assert list(zip(out2.doc_id, out2.n_matches, out2.first_pos)) == \
        [(4, 2, 0)]


def test_proximity_search_matches_brute_force(ray_session):
    """Vectorized nearest-B probe == per-doc brute force over all
    (A, B) position pairs, including gap boundary and cross-doc
    isolation (the batch-wide hash stream must not match across doc
    boundaries)."""
    import ray.data as rd

    from pythongis_ray import text as T

    docs = ["aa bb cc", "aa x x x bb", "bb aa", "cc cc", "aa", "bb",
            "aa x x bb x aa bb", "x aa x x x x bb x"]
    ids = list(range(len(docs)))
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": pa.array(docs)})).repartition(3)
    w = 3
    got = T.proximity_search(ds, "aa", "bb", w).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    exp = []
    for i, d in enumerate(docs):
        tk = d.split(" ")
        pa_ = [j for j, t in enumerate(tk) if t == "aa"]
        pb_ = [j for j, t in enumerate(tk) if t == "bb"]
        gaps = [min(abs(a - b) for b in pb_) for a in pa_ if pb_]
        hits = [g for g in gaps if g <= w]
        if hits:
            exp.append((i, len(hits), min(hits)))
    exp = pd.DataFrame(exp, columns=["doc_id", "n_matches", "min_gap"])
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["n_matches"].tolist() == exp["n_matches"].tolist()
    assert got["min_gap"].tolist() == exp["min_gap"].tolist()


def test_pq_fit_m1_equals_kmeans_fit(ray_session):
    """Product quantization at m=1 IS k-means: the fused one-pass
    multi-subspace trainer must reproduce kmeans_fit bit-for-bit."""
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    ds = rd.from_pandas(pdf).repartition(5)
    C1 = embed.pq_fit(ds, m=1, k=4, iters=3)
    C2 = embed.kmeans_fit(ds, k=4, iters=3)
    assert len(C1) == 1 and np.array_equal(C1[0], C2)


def test_pq_fit_partition_invariant_and_search_exact(ray_session):
    """pq_fit is bit-identical for any partitioning, and pq_search's
    LUT top-k equals a serial ADC scan with the same codebooks."""
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    cb = None
    for nblocks in (1, 7):
        ds = rd.from_pandas(pdf).repartition(nblocks)
        C = embed.pq_fit(ds, m=4, k=4, iters=2)
        if cb is None:
            cb = C
        else:
            assert all(np.array_equal(a, b) for a, b in zip(cb, C))

    X = embed.quantize(np.vstack(pdf.embedding.to_numpy()))
    ids = pdf.vec_id.to_numpy(np.int64)
    q = X[np.flatnonzero(ids == 0)[0]]
    sub = X.shape[1] // 4
    d2 = np.zeros(len(ids), np.int64)
    for j in range(4):
        Xs = X[:, j * sub:(j + 1) * sub]
        code = embed._int_assign(Xs, cb[j])
        lut = ((cb[j].astype(np.float64)
                - q[j * sub:(j + 1) * sub]) ** 2).sum(1).astype(np.int64)
        d2 += lut[code]
    order = np.lexsort((ids, d2))[:7]
    exp = pd.DataFrame({"vec_id": ids[order], "d2": d2[order]})

    got = embed.pq_search(rd.from_pandas(pdf).repartition(6), cb, q,
                          k_top=7)
    assert got["vec_id"].tolist() == exp["vec_id"].tolist()
    assert got["d2"].tolist() == exp["d2"].tolist()
    assert got["rank"].tolist() == list(range(1, 8))


def test_hll_partition_invariant_and_sane(ray_session):
    """HLL registers merge by MAX — the estimate must be bit-identical
    for any partitioning, and within HLL's error band (~13% at m=64;
    assert 35%) of the true per-group distinct count."""
    import ray.data as rd

    from pythongis_ray import text as T

    rng = np.random.default_rng(17)
    docs, keys, truth = [], [], {}
    for g in range(3):
        vocab = [f"w{g}_{i}" for i in range(500 + 400 * g)]
        truth[g] = len(vocab)
        for _ in range(40):
            docs.append(" ".join(rng.choice(vocab, 60)))
            keys.append(g)
    # ensure full vocab appears
    for g in range(3):
        docs.append(" ".join(f"w{g}_{i}" for i in range(truth[g])))
        keys.append(g)
    t = pa.table({"host": pa.array(keys, pa.int64()),
                  "text": pa.array(docs)})
    prev = None
    for nblocks in (1, 6):
        out = T.hll_distinct_by(rd.from_arrow(t).repartition(nblocks),
                                "host").to_pandas() \
            .sort_values("host").reset_index(drop=True)
        if prev is not None:
            assert out["est"].tolist() == prev["est"].tolist()
        prev = out
    for g in range(3):
        est = int(prev.loc[prev.host == g, "est"].iloc[0])
        assert abs(est - truth[g]) / truth[g] < 0.35, (g, est, truth[g])


def test_dsir_importance_vs_bruteforce(ray_session):
    """dsir_importance matches a serial dict-based replay of the
    hashed-bucket frequency-ratio weighting (add-one smoothing,
    cleared denominators), including empty docs and block-count
    invariance of the two-pass fold."""
    import ray.data as rd

    from pythongis_ray import text as T

    rng = np.random.default_rng(7)
    vocab_en = [f"the{i}" for i in range(40)]
    vocab_xx = [f"zz{i}" for i in range(40)]
    docs, langs = [], []
    for i in range(60):
        en = i % 3 == 0
        v = vocab_en if en else vocab_xx
        # mix in some shared vocabulary so ratios are non-trivial
        words = list(rng.choice(v, 12)) + list(rng.choice(vocab_en[:5], 3))
        docs.append(" ".join(words))
        langs.append("en" if en else "xx")
    docs.append("")            # empty doc: one empty token, hash 0
    langs.append("xx")
    t = pa.table({"doc_id": pa.array(np.arange(len(docs)), pa.int64()),
                  "text": pa.array(docs),
                  "lang": pa.array(langs)})

    def tok_hash(w):
        h = 0
        for ch in w.encode():
            h = (h * 1099511628211 + ch) % (1 << 64)
        return h

    B, S = T.DSIR_BUCKETS, T.DSIR_SCALE
    ct = [0] * B
    cr = [0] * B
    for d, lg in zip(docs, langs):
        for w in d.split(" "):
            b = tok_hash(w) % B
            cr[b] += 1
            if lg == "en":
                ct[b] += 1
    nt = sum(ct) + B
    nr = sum(cr) + B
    wt = [S * (c + 1) * nr // ((r + 1) * nt) for c, r in zip(ct, cr)]

    prev = None
    for nblocks in (1, 5):
        out = T.dsir_importance(rd.from_arrow(t).repartition(nblocks)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        if prev is not None:
            assert out.equals(prev)
        prev = out
    for i, d in enumerate(docs):
        toks = d.split(" ")
        want = sum(wt[tok_hash(w) % B] for w in toks)
        row = prev.iloc[i]
        assert row["n_tokens"] == len(toks)
        assert row["dsir_score"] == want, (i, d)


def test_nb_classify_vs_bruteforce(ray_session):
    """nb_classify matches a serial dict replay of the per-class
    hashed frequency-ratio weights, including the argmax tie-break to
    the lexicographically smallest label and block-count invariance."""
    import ray.data as rd

    from pythongis_ray import text as T

    rng = np.random.default_rng(11)
    vocabs = {"de": [f"der{i}" for i in range(30)],
              "en": [f"the{i}" for i in range(30)],
              "fr": [f"les{i}" for i in range(30)]}
    shared = [f"sh{i}" for i in range(10)]
    docs, labs = [], []
    for i in range(90):
        lg = ("de", "en", "fr")[i % 3]
        words = list(rng.choice(vocabs[lg], 10)) + list(rng.choice(shared, 5))
        docs.append(" ".join(words))
        labs.append(lg)
    docs.append("sh0 sh1")     # ambiguous doc exercises the tie path
    labs.append("en")
    t = pa.table({"doc_id": pa.array(np.arange(len(docs)), pa.int64()),
                  "text": pa.array(docs), "lang": pa.array(labs)})

    def tok_hash(w):
        h = 0
        for ch in w.encode():
            h = (h * 1099511628211 + ch) % (1 << 64)
        return h

    B, S = T.DSIR_BUCKETS, T.DSIR_SCALE
    classes = sorted(set(labs))
    cl = {L: [0] * B for L in classes}
    cr = [0] * B
    for d, lg in zip(docs, labs):
        for w in d.split(" "):
            b = tok_hash(w) % B
            cr[b] += 1
            cl[lg][b] += 1
    nr = sum(cr) + B
    wt = {}
    for L in classes:
        ntl = sum(cl[L]) + B
        wt[L] = [S * (c + 1) * nr // ((r + 1) * ntl)
                 for c, r in zip(cl[L], cr)]

    prev = None
    for nblocks in (1, 4):
        out = T.nb_classify(rd.from_arrow(t).repartition(nblocks)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        if prev is not None:
            assert out.equals(prev)
        prev = out
    n_right = 0
    for i, d in enumerate(docs):
        scores = {L: sum(wt[L][tok_hash(w) % B] for w in d.split(" "))
                  for L in classes}
        best = min(classes, key=lambda L: (-scores[L], L))
        assert prev.iloc[i]["pred_lang"] == best, (i, d, scores)
        n_right += best == labs[i]
    assert n_right / len(docs) > 0.9   # the classifier actually works


def test_dup_shingle_stats_vs_bruteforce(ray_session):
    """dup_shingle_stats matches a serial set-based replay: shingles
    (as token tuples) shared across >=2 docs count toward n_dup with
    their within-doc multiplicity; doc-internal repeats alone don't."""
    import ray.data as rd

    from pythongis_ray import text as T

    docs = [
        "a b c d e f g",          # shares 'a b c d e' with doc 1
        "a b c d e x y",
        "p q r s t",              # unique
        "m m m m m m",            # internal repeats only (m>=2 per s)
        "z",                      # short doc -> single folded shingle
        "z",                      # exact dup of doc 4
        "m m m m m m",            # cross-doc dup of doc 3
    ]
    t = pa.table({"doc_id": pa.array(np.arange(len(docs)), pa.int64()),
                  "text": pa.array(docs)})

    k = 3
    shl = []
    for d in docs:
        toks = d.split(" ")
        if len(toks) <= k:
            shl.append([tuple(toks)])
        else:
            shl.append([tuple(toks[i:i + k])
                        for i in range(len(toks) - k + 1)])
    docs_of = {}
    for i, shs in enumerate(shl):
        for s in set(shs):
            docs_of.setdefault(s, set()).add(i)

    prev = None
    for nblocks in (1, 3):
        out = T.dup_shingle_stats(rd.from_arrow(t).repartition(nblocks),
                                  k=k) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        if prev is not None:
            assert out.equals(prev)
        prev = out
    for i, shs in enumerate(shl):
        want_dup = sum(1 for s in shs if len(docs_of[s]) >= 2)
        row = prev.iloc[i]
        assert row["doc_id"] == i
        assert row["n_shingles"] == len(shs)
        assert row["n_dup"] == want_dup, (i, docs[i])


def test_chunk_tokens_vs_bruteforce(ray_session):
    """chunk_tokens matches a serial replay: window/stride coverage,
    short trailing chunks, single-token and empty docs."""
    import ray.data as rd

    from pythongis_ray import text as T

    docs = ["", "one",
            " ".join(f"w{i}" for i in range(200)),
            " ".join(f"v{i}" for i in range(64)),
            " ".join(f"u{i}" for i in range(65))]
    t = pa.table({"doc_id": pa.array(np.arange(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    out = T.chunk_tokens(rd.from_arrow(t), window=64, stride=48) \
        .to_pandas().sort_values(["doc_id", "chunk_id"]) \
        .reset_index(drop=True)

    def tok_hash(w):
        h = 0
        for ch in w.encode():
            h = (h * 1099511628211 + ch) % (1 << 64)
        return h

    want = []
    for did, d in enumerate(docs):
        toks = d.split(" ")
        n = len(toks)
        i = 0
        while i * 48 < n:
            st = i * 48
            wl = min(64, n - st)
            h = 0
            for w in toks[st:st + wl]:
                h = (h * 1000003 + tok_hash(w)) % (1 << 64)
            sh = h - (1 << 64) if h >= (1 << 63) else h
            want.append((did, i, st, wl, sh))
            i += 1
    got = [(int(r.doc_id), int(r.chunk_id), int(r.start_tok),
            int(r.n_tokens), int(r.chunk_hash))
           for r in out.itertuples()]
    assert got == want
    # doc 2 (200 tokens): chunks at 0,48,96,144,192 with last len 8
    assert [w for w in want if w[0] == 2][-1][3] == 8


def test_common_span_vs_bruteforce(ray_session):
    """common_span_pairs finds the exact longest shared token run on
    crafted near-duplicate docs (serial DP reference)."""
    import ray.data as rd

    from pythongis_ray import text as T

    base = " ".join(f"w{i}" for i in range(60))
    toks = base.split(" ")
    # doc1 = doc0 with one token swapped at position 40 -> runs 40, 19
    d1 = " ".join(toks[:40] + ["XX"] + toks[41:])
    # doc2 = doc0 shifted copy: tokens 10.. plus tail padding
    d2 = " ".join(toks[10:] + [f"z{i}" for i in range(10)])
    docs = [base, d1, d2, "completely different unrelated words here"]
    t = pa.table({"doc_id": pa.array(np.arange(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    out = T.common_span_pairs(rd.from_arrow(t), max_hamming=20) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def lcs_run(a, b):
        A, B = a.split(" "), b.split(" ")
        best = 0
        for i in range(len(A)):
            for j in range(len(B)):
                k = 0
                while i + k < len(A) and j + k < len(B) \
                        and A[i + k] == B[j + k]:
                    k += 1
                best = max(best, k)
        return best

    assert len(out) >= 2   # the near-dup pairs got candidates
    for r in out.itertuples():
        assert int(r.lcs_run) == lcs_run(docs[int(r.id_a)],
                                         docs[int(r.id_b)])
    d01 = out[(out.id_a == 0) & (out.id_b == 1)]
    assert len(d01) == 1 and int(d01["lcs_run"].iloc[0]) == 40


def test_ppjoin_matches_bruteforce(ray_session, docs):
    """Prefix-filtered candidates must reach the exact all-pairs
    shingle-Jaccard result (full recall of the prefix lemma)."""
    t = 0.4
    out = text.ppjoin_pairs(docs, threshold=t).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    exp = []
    rows = list(zip(pdf.doc_id, pdf.text))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            ja = text.jaccard_shingles(a[1], b[1])
            if ja >= t:
                lo, hi = sorted((int(a[0]), int(b[0])))
                exp.append((lo, hi, ja))
    exp = sorted(exp)
    assert list(zip(out.id_a, out.id_b, out.jaccard)) == exp


def test_ppjoin_prefix_shorter_than_full_index(ray_session):
    """The point of PPJoin: with a high threshold most of each doc's
    shingles are NOT indexed (prefix length n - ceil(t*n) + 1)."""
    import ray.data as rd

    txts = ["w%d x%d y%d z%d q%d r%d s%d t%d" % ((i,) * 8)
            for i in range(20)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array(txts, pa.string())}))
    out = text.ppjoin_pairs(ds, threshold=0.9).to_pandas()
    assert len(out) == 0  # all-distinct corpus, no candidates survive


def test_snm_pairs_bruteforce(ray_session):
    from pythongis_ray.queries import q_snm_pairs, SNM_WINDOW

    out = q_snm_pairs(SF).to_pandas() \
        .sort_values(["id_a", "id_b", "gap"]).reset_index(drop=True)
    pdf = pd.read_parquet(f"{SF}/documents.parquet") \
        .sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
    exp = []
    for i in range(len(pdf)):
        for g in range(1, SNM_WINDOW + 1):
            if i + g < len(pdf):
                exp.append((int(pdf.doc_id[i]), int(pdf.doc_id[i + g]), g,
                            abs(int(pdf.n_chars[i + g]) - int(pdf.n_chars[i]))))
    exp = sorted(exp)
    got = sorted(zip(out.id_a, out.id_b, out.gap, out.cdiff))
    assert got == exp


def test_weighted_sample_deterministic_and_weighted(ray_session):
    from pythongis_ray.queries import q_weighted_sample

    a = q_weighted_sample(SF).to_pandas().reset_index(drop=True)
    b = q_weighted_sample(SF).to_pandas().reset_index(drop=True)
    assert a.equals(b)
    assert len(a) == 25
    assert a.priority.is_monotonic_increasing
    # priorities are hash//weight — verify one row end to end
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    row = a.iloc[0]
    t = pa.table({"u": pa.array([str(int(row.doc_id))], pa.string())})
    h = text.fingerprint(t, text_col="u", out_col="h")["h"][0].as_py()
    uh = np.int64(h).view(np.uint64) if h < 0 else np.uint64(h)
    w = int(pdf.loc[pdf.doc_id == row.doc_id, "n_chars"].iloc[0])
    assert int(row.priority) == int((int(uh) >> 1) // w)


def test_containment_pairs_bruteforce(ray_session, docs):
    out = text.containment_pairs(docs, threshold_ppm=800_000).to_pandas()
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    sets = {int(i): text.shingle_set(t) for i, t in zip(pdf.doc_id, pdf.text)}
    exp = set()
    for a, sa in sets.items():
        for b, sb in sets.items():
            if a != b and len(sa & sb) * 1_000_000 >= 800_000 * len(sa):
                exp.add((a, b, len(sa & sb) * 1_000_000 // len(sa)))
    assert set(zip(out.id_a, out.id_b, out.cont_ppm)) == exp


def test_crawl_budget_sums_to_k(ray_session):
    from pythongis_ray.queries import q_crawl_budget, CRAWL_BUDGET_K

    out = q_crawl_budget(SF)
    assert out.quota.sum() == CRAWL_BUDGET_K
    # proportionality: quota within 1 of the exact share
    import numpy as np
    share = CRAWL_BUDGET_K * out.n.to_numpy(np.int64) / out.n.sum()
    assert (np.abs(out.quota.to_numpy() - share) < 1.0 + 1e-9).all()


def test_label_compact_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    from pythongis_ray.queries import q_label_compact, LC_K

    SF = "/root/testdata/sf0.001"
    out = q_label_compact(SF).to_pandas().set_index("label")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    q = np.round(np.stack(pdf.embedding.to_numpy()) * 1000).astype("int64")
    lab = pdf.label.to_numpy("int64")
    labs = np.unique(lab)
    S = np.stack([q[lab == l].sum(axis=0) for l in labs])
    n = np.array([(lab == l).sum() for l in labs], "int64")
    sc = (q @ S.T) * LC_K // n[None, :]
    nearest = labs[np.argmax(sc == sc.max(axis=1, keepdims=True), axis=1)]
    for l in labs:
        assert out.loc[l, "n_members"] == (lab == l).sum()
        assert out.loc[l, "n_compact"] == ((lab == l) & (nearest == l)).sum()


def test_fd_check_expected_verdicts(ray_session):
    from pythongis_ray.queries import q_fd_check

    out = q_fd_check("/root/testdata/sf0.001").to_pandas() \
        .set_index("fd")
    assert out.loc["event_id->user_id", "holds"] == 1    # PK determines
    assert out.loc["user_id->event_id", "holds"] == 0    # users repeat
    assert out.loc["user_id->event_type", "holds"] == 0
    assert (out.n_violations <= out.n_keys).all()


def test_mutual_nn_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    import pyarrow as pa

    rng = np.random.default_rng(5)
    n, d = 60, 8
    vecs = rng.normal(size=(n, d)).astype(np.float64)
    t = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                  "embedding": pa.array(list(vecs))})
    out = embed.mutual_nn_blocked(rd.from_arrow(t), n_blocks=4) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    q = np.round(vecs * 1000).astype(np.int64)
    sc = q @ q.T
    np.fill_diagonal(sc, np.iinfo(np.int64).min)
    nn = sc.argmax(axis=1)     # first max = smallest id
    exp = sorted((a, int(nn[a]), int(sc[a, nn[a]]))
                 for a in range(n)
                 if nn[nn[a]] == a and a < nn[a])
    assert list(zip(out.id_a, out.id_b, out.score)) == exp


def test_minhash_bucket_cap_bounds_template_cluster(ray_session):
    """A near-identical template cluster (here: byte-identical, the
    worst case) must NOT go quadratic: with bucket_cap=C the candidate
    set is bounded by C(C,2) pairs regardless of cluster size, and the
    run stays seconds."""
    import time

    import ray.data as rd

    from pythongis_ray import text

    n, cap = 5000, 64
    body = "the quick brown fox jumps over the lazy dog again and again " * 5
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [body] * n})).repartition(8)
    t0 = time.time()
    out = text.minhash_dedup_pairs(ds, threshold=0.5,
                                   bucket_cap=cap).to_pandas()
    wall = time.time() - t0
    assert 0 < len(out) <= cap * (cap - 1) // 2
    # capped ids are the smallest — pairs only among doc_id < cap
    assert out.id_b.max() < cap
    assert wall < 90, f"capped LSH took {wall:.0f}s"


def test_hard_negatives_matches_bruteforce(ray_session):
    emb = read_sf_table(SF, "embeddings")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    queries = pdf[pdf.vec_id < 4]
    out = embed.hard_negatives(emb, queries, k=2)
    mat = embed.quantize(np.vstack(pdf.embedding.to_numpy()))
    ids = pdf.vec_id.to_numpy()
    labs = pdf.label.to_numpy()
    for _, q in queries.iterrows():
        qv = mat[ids == q.vec_id][0]
        scores = mat @ qv
        order = [i for i in np.lexsort((ids, -scores))
                 if labs[i] != q.label][:2]
        got = out[out.query_id == q.vec_id].sort_values("rank")
        assert got.neighbor_id.tolist() == ids[order].tolist()
        assert got.score.tolist() == scores[order].tolist()
        # every mined negative really is another class
        assert (labs[np.isin(ids, got.neighbor_id)] != q.label).all()


def test_winnow_stats_brute(ray_session):
    import ray.data as rd

    pdf = pd.read_parquet(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"]).head(120)
    out = text.winnow_stats(rd.from_pandas(pdf), k=5, w=4).to_pandas()
    # brute: per doc, shingle hashes -> window minima -> distinct set
    fps = {}
    for _, r in pdf.iterrows():
        th, offs = text._batch_token_hashes(
            __import__("pyarrow").array([r.text]))
        sh, _ = text._batch_shingles(th, offs, 5)
        m = len(sh)
        wins = [min(sh[i:i + 4]) for i in range(max(m - 3, 1))]
        fps[r.doc_id] = set(int(v) for v in wins)
    shared = {}
    for d, s in fps.items():
        for f in s:
            shared.setdefault(f, set()).add(d)
    got = {int(r.doc_id): (int(r.n_fps), int(r.n_shared))
           for _, r in out.iterrows()}
    for d, s in fps.items():
        ns = sum(1 for f in s if len(shared[f]) >= 2)
        assert got[d] == (len(s), ns)
    # the winnowing bandwidth bound: fps kept << shingles
    th, offs = text._batch_token_hashes(
        __import__("pyarrow").array(list(pdf.text)))
    sh_all, _ = text._batch_shingles(th, offs, 5)
    assert out.n_fps.sum() < len(sh_all)


def test_compress_ratio_parity(ray_session):
    """q_compress_ratio rows-only entry: brute-force parity on the
    same fixture slice."""
    import zlib

    import pandas as pd

    from pythongis_ray import queries

    out = queries.q_compress_ratio("/root/testdata/sf0.001").to_pandas()
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    exp = {int(r.doc_id): len(zlib.compress(r.text.encode(), 6)) * 1000
           // max(1, len(r.text.encode()))
           for r in docs.itertuples()}
    got = dict(zip(out.doc_id.astype(int), out.ratio_pm.astype(int)))
    assert got == exp
    # word-soup text compresses well; tiny docs may inflate past
    # 1000‰ (zlib header overhead), but nothing degenerates to 0
    assert 0 < min(exp.values()) and max(exp.values()) < 2000
    assert sum(v < 1000 for v in exp.values()) > len(exp) // 2


def test_doc_ttr_bruteforce(ray_session):
    import pandas as pd
    from pythongis_ray.queries import q_doc_ttr

    SF = "/root/testdata/sf0.001"
    got = q_doc_ttr(SF).to_pandas().set_index("doc_id")
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    for _, r in docs.iterrows():
        toks = r.text.split(" ")
        row = got.loc[r.doc_id]
        assert row.n_words == len(toks)
        assert row.n_types == len(set(toks))
        assert row.ttr_ppm == 1_000_000 * len(set(toks)) // max(
            len(toks), 1)


def test_hapax_stats_bruteforce(ray_session):
    from collections import Counter

    import pandas as pd
    from pythongis_ray.queries import q_hapax_stats

    SF = "/root/testdata/sf0.001"
    got = q_hapax_stats(SF).set_index("source")
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["source", "text"])
    for src, g in docs.groupby("source"):
        cnt = Counter(w for t in g.text for w in t.split(" "))
        hap = sum(1 for v in cnt.values() if v == 1)
        r = got.loc[src]
        assert (r.n_types, r.n_hapax) == (len(cnt), hap)
        assert r.hapax_ppm == 1_000_000 * hap // max(len(cnt), 1)


def test_etld_rollup_longest_suffix(ray_session):
    import pandas as pd
    from pythongis_ray.queries import (_PSL_1, _PSL_2, _PSL_SUBS,
                                       _PSL_SUFFIXES, q_etld_rollup)

    SF = "/root/testdata/sf0.001"
    got = q_etld_rollup(SF).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id"])
    want = {}
    for did in docs.doc_id:
        host = (_PSL_SUBS[did % 3] + f"site{did % 50}."
                + _PSL_SUFFIXES[did % 7])
        labels = host.split(".")
        if ".".join(labels[-2:]) in _PSL_2:
            regd = ".".join(labels[-3:])
        else:
            assert labels[-1] in _PSL_1
            regd = ".".join(labels[-2:])
        want[regd] = want.get(regd, 0) + 1
    assert dict(zip(got.regd, got.n_pages)) == want
    # a multi-label suffix must never be mistaken for a registrable
    # domain, and subdomain prefixes never survive the rollup
    for regd in got.regd:
        assert regd not in _PSL_2
        assert not regd.startswith(("www.", "cdn."))


def _skew_corpus(n: int, cluster: int, mutate_every: int = 25):
    """Deterministic torture corpus: ``cluster`` docs share one
    template (1 token in ``mutate_every`` doc-specific — Jaccard far
    above 0.5, exact fingerprints all distinct), the rest fully
    unique. Every doc passes the 5% stopword quality gate."""
    base = ("the quick brown fox jumps over the lazy dog and runs to "
            "the old stone bridge in the misty morning light with a "
            "heavy pack of provisions for the long journey ahead "
            "across the wide river valley and the high mountain pass").split()
    docs = []
    for i in range(n):
        if i < cluster:
            toks = list(base)
            toks[7 + (i % 3)] = f"var{i}"          # tiny mutation
        else:
            toks = [f"tok{i}x{j}" if j % 5 else "the"
                    for j in range(40)]            # unique + stopwords
        docs.append(" ".join(toks))
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "text": docs})


def test_minhash_skew_cluster_capped(ray_session):
    """The LSH worst case: one template cluster = 10% of the corpus.
    bucket_cap must bound candidate volume to C(cap, 2) PAIRS no
    matter the cluster size (r4 VERDICT item 6), and no false pairs
    may appear among the unique 90%."""
    import time

    import ray.data as rd
    from pythongis_ray import text

    n, cluster, cap = 4000, 400, 128
    df = _skew_corpus(n, cluster)
    t0 = time.monotonic()
    pairs = text.minhash_dedup_pairs(rd.from_pandas(df), threshold=0.5,
                                     bucket_cap=cap).to_pandas()
    t_skew = time.monotonic() - t0
    # every pair is inside the template cluster
    assert (pairs.id_a < cluster).all() and (pairs.id_b < cluster).all()
    # the cap bounds candidate volume PER BUCKET: total verified pairs
    # <= sum over band buckets of C(min(size, cap), 2), and that bound
    # is far below the uncapped quadratic volume
    bands = text.minhash_bands(rd.from_pandas(df)).to_pandas()
    sizes = bands.groupby(["band_id", "band_hash"]).size().to_numpy()
    capped = np.minimum(sizes, cap)
    bound = int((capped * (capped - 1) // 2).sum())
    uncapped = int((sizes * (sizes - 1) // 2).sum())
    assert len(pairs) <= bound
    assert bound < uncapped // 2          # the cap genuinely bit
    assert len(pairs) >= cap * (cap - 1) // 4      # cluster really met
    # uniform corpus of the same size: no pairs at all, and the skewed
    # run's wall time stays within a small factor of it (the cap keeps
    # the hot bucket from going quadratic); generous bound — this host
    # carries external load bursts
    df_u = _skew_corpus(n, 0)
    t0 = time.monotonic()
    pairs_u = text.minhash_dedup_pairs(rd.from_pandas(df_u),
                                       threshold=0.5,
                                       bucket_cap=cap).to_pandas()
    t_uni = time.monotonic() - t0
    assert len(pairs_u) == 0
    # the capped run stays in constant time territory (an uncapped
    # quadratic blow-up at this shape is minutes); the at-scale 2x
    # wall-time comparison lives in tools/skew_torture.py → BASELINE.md
    assert t_skew <= 30.0, (t_skew, t_uni)


def test_corpus_build_skew_collapses_capped_cluster(ray_session):
    """corpus_build end-to-end on the skewed corpus: the capped
    members that DID form pairs collapse to one representative; the
    unique 90% all survive."""
    import ray.data as rd
    from pythongis_ray import pipelines

    n, cluster = 1200, 120
    df = _skew_corpus(n, cluster)
    kept = pipelines.corpus_build(rd.from_pandas(df)).to_pandas()
    kept_ids = set(kept.doc_id)
    # all unique docs kept
    assert all(i in kept_ids for i in range(cluster, n))
    # cluster collapses to its min-id representative (cluster < default
    # bucket_cap here, so recall is complete)
    assert 0 in kept_ids
    assert len([i for i in kept_ids if i < cluster]) == 1


def test_degree_cap_preserves_components(ray_session):
    """Connected components over degree-capped candidate pairs equal
    components over uncapped pairs on this corpus: its candidates are
    the template clusters' true near-dups, so every doc's degree_cap
    smallest smaller-id candidates hold a verified partner and the
    descending chain to each representative survives. The guarantee
    is scoped to candidate degree: LSH false-positive co-bucket
    members count against the cap too and could crowd a verified edge
    out, whatever the near-dup cluster size."""
    import ray.data as rd
    from pythongis_ray import graph, text

    # two template clusters + unique docs
    base1 = ("the quick brown fox jumps over the lazy dog and runs "
             "far across the misty field of tall green grass today").split()
    base2 = ("a heavy rain falls on the old roof of the small house "
             "near the river bend where the willows lean in wind").split()
    docs = []
    for i in range(60):
        t = list(base1)
        t[5] = f"v{i}"
        docs.append(" ".join(t))
    for i in range(40):
        t = list(base2)
        t[7] = f"w{i}"
        docs.append(" ".join(t))
    for i in range(50):
        docs.append(" ".join(f"u{i}q{j}" if j % 4 else "the"
                             for j in range(30)))
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})

    def comps(degree_cap):
        pairs = text.minhash_dedup_pairs(
            rd.from_pandas(df), threshold=0.5,
            degree_cap=degree_cap).materialize()
        if pairs.count() == 0:
            return {}
        cc = graph.connected_components(
            pairs.select_columns(["id_a", "id_b"])).to_pandas()
        return dict(zip(cc.iloc[:, 0], cc.iloc[:, 1]))

    uncapped = comps(None)
    capped = comps(3)           # aggressive cap
    assert set(uncapped) == set(capped)          # same nodes paired
    # identical partition (same representative per node)
    assert uncapped == capped
