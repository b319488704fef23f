"""Text-analysis operators for large-scale training-data pipelines.

These go beyond the reference (which has no text ops) per the build
brief: token counting, quality scoring, language-ID, document
fingerprinting, exact and near-duplicate detection (MinHash-LSH,
SimHash, n-gram Jaccard). All stages are vectorized ``map_batches``
transforms; regexes/hash tables are compiled once per actor.

Determinism: every hash here is an explicit integer recurrence (no
Python ``hash``), so results are stable across processes and match
the documented SQL mirrors where one exists.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from pythongis_ray import relational as rel
from pythongis_ray.relational import bucketed_group_apply, map_arrow

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "on", "for", "with")

# MinHash parameters: 32 bands x 2 rows -> P(candidate | jaccard J) =
# 1-(1-J^2)^32, i.e. miss probability 6e-15 at J=0.8 and 1e-4 at
# J=0.5 — deterministic full recall on any corpus whose near-dup
# pairs sit above ~0.5 (verified exhaustively vs DuckDB on the
# fixtures at sf0.001/0.01/0.1)
MH_PERMS = 64
MH_BANDS = 32
MH_ROWS = MH_PERMS // MH_BANDS


def token_count(batch: pa.Table, text_col: str = "text",
                out_col: str = "n_tokens") -> pa.Table:
    """Whitespace token count, zero-copy Arrow kernel:
    count(' ') + 1 (documents are single-space tokenized).
    SQL mirror: length(text) - length(replace(text,' ','')) + 1."""
    n = pc.add(pc.count_substring(batch[text_col], " "), 1)
    return batch.append_column(out_col, pc.cast(n, pa.int64()))


BPE_TOKEN_PATTERN = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]"


def token_count_regex(batch: pa.Table, text_col: str = "text",
                      out_col: str = "n_tokens_re",
                      pattern: str = BPE_TOKEN_PATTERN) -> pa.Table:
    """BPE-ish regex token count (word / number / punctuation runs) —
    one RE2 pass per batch via pyarrow (the library-tokenizer slot for
    training-data pipelines; the pattern mirrors GPT-2-style
    pre-tokenization categories)."""
    n = pc.count_substring_regex(batch[text_col], pattern)
    return batch.append_column(out_col, pc.cast(n, pa.int64()))


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / stopword-ratio quality features (heuristic quality
    scoring for web text). Adds n_tokens, n_stop, stop_ratio.
    stop_ratio is one division of exact integer counts."""
    toks = pc.split_pattern(batch[text_col], " ")
    ntok = pc.cast(pc.list_value_length(toks), pa.int64())
    flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    stop = pc.is_in(flat.values, value_set=pa.array(list(STOPWORDS)))
    stop_i = pc.cast(stop, pa.int8()).to_numpy(zero_copy_only=False)
    offs = flat.offsets.to_numpy()
    nstop = np.add.reduceat(np.r_[stop_i, 0], offs[:-1])
    nstop[offs[:-1] == offs[1:]] = 0
    batch = batch.append_column("n_tokens", ntok)
    batch = batch.append_column("n_stop", pa.array(nstop.astype(np.int64)))
    ratio = nstop.astype(np.float64) / ntok.to_numpy(zero_copy_only=False)
    return batch.append_column("stop_ratio", pa.array(ratio))


def words_exploded(ds, text_col: str = "text", word_col: str = "word"):
    """documents → one row per token, with per-batch partial counts —
    the combiner feeding a small groupby for global word frequency."""
    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        words = flat.values
        t = pa.table({word_col: words})
        # partial count within the batch
        return t.group_by(word_col).aggregate([(word_col, "count")]) \
            .rename_columns([word_col, "pcnt"])

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=8192)


def word_frequency(ds, text_col: str = "text", top_k: int | None = None):
    """Global word frequency: per-batch partial counts → bucketed hash
    combine (word cardinality is high — Ray's sort-aggregate iterates
    keys in Python, so the combine goes through the vectorized bucket
    path). Ties in top-k broken alphabetically (deterministic)."""
    parts = words_exploded(ds, text_col)
    freq = bucketed_group_apply(
        parts, ["word"],
        lambda b: b.groupby("word", sort=False)["pcnt"].sum()
        .rename("cnt").reset_index())
    if top_k is None:
        return freq
    # per-block partial top-k, then a B×k driver merge — the driver
    # never sees the full vocabulary table
    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["cnt", "word"], ascending=[False, True],
                             kind="stable").head(top_k)

    parts_k = freq.map_batches(block_topk, batch_format="pandas").to_pandas()
    pdf = parts_k.sort_values(["cnt", "word"], ascending=[False, True],
                              kind="stable").head(top_k)
    return pdf.reset_index(drop=True)


def _bit_length_i64(q: np.ndarray) -> np.ndarray:
    """Exact bit length of positive int64 values (== LENGTH(bin(q)) in
    DuckDB): a 6-step vectorized binary search — no float log2, whose
    last-ulp behavior at exact powers of two differs across libm
    builds."""
    q = q.astype(np.uint64).copy()
    bits = np.zeros(q.shape, np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = q >= (np.uint64(1) << np.uint64(s))
        bits[m] += s
        q[m] >>= np.uint64(s)
    return bits + 1


def lm_surprisal(ds, vocab_size: int = 4096, text_col: str = "text",
                 id_col: str = "doc_id"):
    """Corpus-trained unigram-LM surprisal score — the CCNet-style
    perplexity-filter slot (Wenzek et al. 2020), made exactly
    SQL-replayable. Two streaming passes:

    1. TRAIN: global word counts (per-batch partial counts → bucketed
       hash combine), from which the total token count and the top-V
       vocabulary (ties: count desc, word asc) derive. Only
       vocab-bounded tables ever reach the driver; the corpus itself
       streams. The tiny freq table is materialized once so the two
       consumers (total + top-V) don't re-run the corpus pass.
    2. SCORE: the (word -> count) table broadcasts once (`ray.put` +
       worker-side cache); each batch is one Arrow split + one
       `index_in` lookup + one reduceat — no per-row Python.

    The per-token surprisal is the INTEGER bit length of
    total // count (OOV -> count 1): a quantized -log2 p(token) that
    is bit-exact in both numpy and DuckDB (`LENGTH(bin(t // c))`),
    unlike float log-probabilities whose summation order matters.
    High bits-per-token = rare/garbled text; low = boilerplate.
    Emits (doc_id, n_tokens, surprisal_bits)."""
    import ray

    from pythongis_ray import state

    parts = words_exploded(ds, text_col)
    freq = bucketed_group_apply(
        parts, ["word"],
        lambda b: b.groupby("word", sort=False)["pcnt"].sum()
        .rename("cnt").reset_index()).materialize()
    total = int(sum(
        r["s"] for r in freq.map_batches(
            lambda b: pd.DataFrame({"s": [int(b["cnt"].sum())]}),
            batch_format="pandas").take_all()))

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["cnt", "word"], ascending=[False, True],
                             kind="stable").head(vocab_size)

    top = freq.map_batches(block_topk, batch_format="pandas").to_pandas() \
        .sort_values(["cnt", "word"], ascending=[False, True],
                     kind="stable").head(vocab_size)
    ref = ray.put({"vocab": pa.array(top["word"].to_numpy(object)),
                   "cnt": top["cnt"].to_numpy(np.int64),
                   "total": total})

    def score(batch: pa.Table) -> pa.Table:
        lm = state.get_broadcast(ref, key_extra=("lm_surprisal",))
        toks = pc.split_pattern(batch[text_col], " ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        idx = pc.fill_null(pc.index_in(flat.values, value_set=lm["vocab"]),
                           -1).to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.where(idx >= 0, lm["cnt"][np.maximum(idx, 0)], np.int64(1))
        bits = _bit_length_i64(np.int64(lm["total"]) // cnt)
        off = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # slice to [off[0], off[-1]) — a sliced ListArray's values buffer
        # can extend past the last offset, which would pollute the final
        # reduceat segment
        seg = bits[off[0]:off[-1]]
        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pa.array(np.diff(off)),
            "surprisal_bits": pa.array(
                np.add.reduceat(seg, (off - off[0])[:-1]).astype(np.int64)),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


def bpe_learn(ds, n_merges: int = 64, vocab_words: int = 32768,
              text_col: str = "text") -> list[tuple[str, str]]:
    """Byte-pair-encoding merge learning (Sennrich et al. 2016,
    arXiv:1508.07909) — the tokenizer-training slot of a training-data
    pipeline. The distributed part is ONE streaming pass building the
    word-frequency table (per-batch partial counts → bucketed hash
    combine → per-block top-V + tiny driver merge, so the driver never
    holds the full vocabulary); merge learning then iterates on that
    vocab-bounded (word, count) table driver-side — the same contract
    as ``kmeans_fit``'s centroid update: per-round work is bounded by
    the vocabulary, the corpus is never re-read.

    Deterministic: pair selection ties break lexicographically; the
    word table is capped at the top ``vocab_words`` words (count desc,
    word asc), which bounds driver memory at 100-TB scale where the
    raw vocabulary is unbounded junk (the standard practice — rare
    words contribute negligible pair mass). Returns merges in learned
    order; symbols never span words."""
    freq = word_frequency(ds, text_col, top_k=vocab_words)
    words = [tuple(w) for w in freq["word"].tolist()]
    counts = freq["cnt"].to_numpy(np.int64)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pair_cnt: dict[tuple[str, str], int] = {}
        for syms, c in zip(words, counts):
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pair_cnt[p] = pair_cnt.get(p, 0) + int(c)
        if not pair_cnt:
            break
        best = min(pair_cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        new = best[0] + best[1]
        out = []
        for syms in words:
            j, acc = 0, []
            while j < len(syms):
                if (j + 1 < len(syms)
                        and syms[j] == best[0] and syms[j + 1] == best[1]):
                    acc.append(new)
                    j += 2
                else:
                    acc.append(syms[j])
                    j += 1
            out.append(tuple(acc))
        words = out
    return merges


class BpeEncoder:
    """Actor-pool stage applying learned BPE merges: per batch, encode
    each DISTINCT word once (the encode cache persists across batches
    in actor state — Zipf makes the hit rate ~99% after warmup), then
    scatter token counts back per document with one reduceat. The
    per-distinct-word loop is vocabulary-bounded, not corpus-bounded."""

    def __init__(self, merges: list[tuple[str, str]],
                 text_col: str = "text", id_col: str = "doc_id"):
        self.rank = {tuple(m): i for i, m in enumerate(merges)}
        self.text_col, self.id_col = text_col, id_col
        self.cache: dict[str, int] = {}

    def _encode_len(self, word: str) -> int:
        hit = self.cache.get(word)
        if hit is not None:
            return hit
        syms = list(word)
        while len(syms) > 1:
            ranks = [r for i in range(len(syms) - 1)
                     if (r := self.rank.get((syms[i], syms[i + 1])))
                     is not None]
            if not ranks:
                break
            r0 = min(ranks)
            out, j = [], 0
            while j < len(syms):
                if (j + 1 < len(syms)
                        and self.rank.get((syms[j], syms[j + 1])) == r0):
                    out.append(syms[j] + syms[j + 1])
                    j += 2
                else:
                    out.append(syms[j])
                    j += 1
            syms = out
        n = len(syms)
        if len(self.cache) < 1 << 20:
            self.cache[word] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[self.text_col], " ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        uniq, inv = np.unique(
            flat.values.to_numpy(zero_copy_only=False), return_inverse=True)
        lens = np.fromiter((self._encode_len(w) for w in uniq),
                           dtype=np.int64, count=len(uniq))
        per_tok = lens[inv]
        off = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        seg = per_tok[off[0]:off[-1]]
        return pa.table({
            self.id_col: batch[self.id_col],
            "n_words": pa.array(np.diff(off)),
            "n_bpe_tokens": pa.array(
                np.add.reduceat(seg, (off - off[0])[:-1]).astype(np.int64)),
        })


def bpe_token_counts(ds, merges: list[tuple[str, str]],
                     text_col: str = "text", id_col: str = "doc_id"):
    """documents → (doc_id, n_words, n_bpe_tokens) under learned
    merges. Actor pool so the encode cache amortizes across batches."""
    import ray

    merges_ref = ray.put([tuple(m) for m in merges])

    from pythongis_ray import state

    def fn(batch: pa.Table) -> pa.Table:
        enc = state.get_broadcast(
            merges_ref, builder=lambda m: BpeEncoder(m, text_col, id_col),
            key_extra=("bpe", text_col, id_col))
        return enc(batch)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


class LanguageId:
    """Heuristic language-ID actor: per-language stopword tables
    compiled once per actor; per batch, vectorized token membership
    scoring. (The fixture corpus is synthetic, so the lexicons are
    deliberately tiny — the Ray plumbing, not the linguistics, is the
    deliverable here.)"""

    LEX = {
        "en": {"the", "and", "of", "to", "a", "in", "is"},
        "de": {"der", "die", "das", "und", "ist", "nicht"},
        "fr": {"le", "la", "les", "et", "est", "une"},
        "es": {"el", "la", "los", "y", "es", "una"},
    }

    def __init__(self):
        self.langs = sorted(self.LEX)
        self.tables = [pa.array(sorted(self.LEX[l])) for l in self.langs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        offs = flat.offsets.to_numpy()
        empty = offs[:-1] == offs[1:]
        scores = np.zeros((batch.num_rows, len(self.langs)), dtype=np.int64)
        for j, table in enumerate(self.tables):
            # one is_in kernel over the batch's flat token run, then a
            # per-doc reduceat — no Python per row
            hit = pc.cast(pc.is_in(flat.values, value_set=table), pa.int8()) \
                .to_numpy(zero_copy_only=False)
            s = np.add.reduceat(np.r_[hit, np.int8(0)], offs[:-1])
            s[empty] = 0
            scores[:, j] = s
        best = scores.argmax(axis=1)  # tie-break: first (alphabetical) lang
        pred = np.array(self.langs, dtype=object)[best]
        pred[scores.max(axis=1) == 0] = "und"
        return batch.append_column("lang_pred", pa.array(pred, pa.string()))


_FP_P = np.uint64(1099511628211)
_FP_POW_CACHE = np.array([1], dtype=np.uint64)


def _fp_powers(n: int) -> np.ndarray:
    global _FP_POW_CACHE
    if len(_FP_POW_CACHE) < n:
        m = len(_FP_POW_CACHE)
        ext = np.empty(n, dtype=np.uint64)
        ext[:m] = _FP_POW_CACHE
        with np.errstate(over="ignore"):
            for i in range(m, n):
                ext[i] = ext[i - 1] * _FP_P  # uint64 wraparound (intended)
        _FP_POW_CACHE = ext
    return _FP_POW_CACHE


def _poly_hash_segments(data: np.ndarray, starts: np.ndarray,
                        ends: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit polynomial hash of many byte segments:
    h(seg) = sum(byte[j] * P^(len-1-j)) mod 2^64, one weighted
    add.reduceat over the whole buffer — zero Python per segment."""
    lens = ends - starts
    out = np.zeros(len(starts), dtype=np.uint64)
    nz = lens > 0
    if not nz.any():
        return out
    total = int(lens.sum())
    pos = np.arange(total, dtype=np.int64) \
        - np.repeat(np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    exp = np.repeat(lens, lens) - 1 - pos
    src = np.repeat(starts, lens) + pos
    pw = _fp_powers(int(lens.max()) + 1)
    vals = data[src].astype(np.uint64) * pw[exp]
    red_offs = np.concatenate(([0], np.cumsum(lens)[:-1]))[nz]
    # reduceat over the contiguous per-segment value runs
    out[nz] = np.add.reduceat(vals, red_offs)
    return out


def fingerprint(batch: pa.Table, text_col: str = "text",
                out_col: str = "fp") -> pa.Table:
    """64-bit polynomial content fingerprint per document — the
    exact-dedup key (hash-partitionable; analog of the reference's
    group-by-geometry dedup key, /root/reference/pythongis/vector/
    data.py:990-1015).

    Fully vectorized: h(doc) = sum(byte[j] * P^(len-1-j)) mod 2^64,
    computed for the whole batch with one weighted ``add.reduceat``
    over the raw Arrow string buffer (zero Python-per-row)."""
    col = batch[text_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return batch.append_column(out_col, pa.array([], pa.int64()))
    buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    h = _poly_hash_segments(buf, offs[:-1], offs[1:])
    return batch.append_column(out_col, pa.array(h.view(np.int64)))


# multiply-add uint64 permutations (odd multipliers → bijective mod 2^64)
_mh_rng = np.random.default_rng(4242)
MH_A64 = (_mh_rng.integers(0, 1 << 63, MH_PERMS, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
MH_B64 = _mh_rng.integers(0, 1 << 63, MH_PERMS, dtype=np.uint64)
MH_SHINGLE_K = 5
_SH_P = np.uint64(1000003)


def _token_hashes(text_bytes: np.ndarray) -> np.ndarray:
    """uint64 polynomial hash per whitespace token, fully vectorized."""
    spaces = np.flatnonzero(text_bytes == 32)
    starts = np.concatenate(([0], spaces + 1))
    ends = np.concatenate((spaces, [len(text_bytes)]))
    return _poly_hash_segments(text_bytes, starts, ends)


def _shingle_hashes_from_tokens(th: np.ndarray, k: int = MH_SHINGLE_K) -> np.ndarray:
    """Rolling combine of k consecutive token hashes (uint64 wraparound)."""
    if len(th) <= k:
        h = np.uint64(0)
        for t in th:
            h = h * _SH_P + t
        return np.array([h], dtype=np.uint64)
    s = th[:len(th) - k + 1].copy()
    for j in range(1, k):
        s = s * _SH_P + th[j:len(th) - k + 1 + j]
    return s


def _string_buffer(arr: pa.Array):
    """(byte buffer, int64 offsets) of an Arrow string/binary array.
    Handles both 32-bit (string/binary) and 64-bit (large_string/
    large_binary) offset widths — misreading int64 offsets as int32
    would silently produce garbage hashes."""
    buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8) \
        if arr.buffers()[2] is not None else np.empty(0, np.uint8)
    off_dtype = (np.int64 if pa.types.is_large_string(arr.type)
                 or pa.types.is_large_binary(arr.type) else np.int32)
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    return buf, offs


def _batch_token_hashes(arr: pa.Array):
    """Token hashes for a WHOLE batch of documents in one vectorized
    pass over the raw Arrow string buffer. Returns (th, tok_offs):
    uint64 hashes of every token of every doc concatenated, and int64
    offsets (n_docs+1) delimiting each doc's token run."""
    n = len(arr)
    buf, offs = _string_buffer(arr)
    if n == 0:
        return np.empty(0, np.uint64), np.zeros(1, np.int64)
    spaces = np.flatnonzero(buf == 32)
    spaces = spaces[(spaces >= offs[0]) & (spaces < offs[-1])]
    # tokens are the non-overlapping segments between doc bounds and
    # spaces: i-th smallest start pairs with i-th smallest end
    starts = np.sort(np.concatenate([offs[:-1], spaces + 1]))
    ends = np.sort(np.concatenate([spaces, offs[1:]]))
    tok_counts = np.bincount(np.searchsorted(offs, spaces, "right") - 1,
                             minlength=n).astype(np.int64) + 1
    tok_offs = np.concatenate(([0], np.cumsum(tok_counts)))
    return _poly_hash_segments(buf, starts, ends), tok_offs


def _batch_shingles(th: np.ndarray, tok_offs: np.ndarray,
                    k: int = MH_SHINGLE_K):
    """k-token rolling shingle hashes per doc, vectorized across the
    batch (docs with < k tokens fold all their tokens into one
    shingle, matching :func:`_shingle_hashes_from_tokens`). Returns
    (sh, sh_offs)."""
    ntok = np.diff(tok_offs)
    nw = np.maximum(ntok - k + 1, 1)
    sh_offs = np.concatenate(([0], np.cumsum(nw)))
    total = int(nw.sum())
    sh = np.zeros(total, np.uint64)
    if total == 0:
        return sh, sh_offs
    doc_of = np.repeat(np.arange(len(ntok), dtype=np.int64), nw)
    local = np.arange(total, dtype=np.int64) - np.repeat(sh_offs[:-1], nw)
    base = tok_offs[:-1][doc_of] + local
    wlen = np.minimum(ntok, k)[doc_of]
    with np.errstate(over="ignore"):
        for j in range(k):
            m = j < wlen
            if not m.any():
                break
            sh[m] = sh[m] * _SH_P + th[base[m] + j]
    return sh, sh_offs


def winnow_stats(ds, k: int = MH_SHINGLE_K, w: int = 4,
                 id_col: str = "doc_id", text_col: str = "text"):
    """Winnowing fingerprints (Schleimer/Wilkerson/Aiken's MOSS
    algorithm): per document, the DISTINCT set of sliding-window
    minima over the k-token shingle hashes (window ``w``), and how
    many of those fingerprints also appear in another document. The
    guarantee that makes winnowing the local-document-fingerprint
    standard: any shared run of w+k-1 tokens yields at least one
    shared fingerprint, while only ~2/(w+1) of shingles are kept —
    the bandwidth knob for cross-corpus matching. Same two-shuffle
    shape as dup_shingle_stats; the window minimum is w vectorized
    np.minimum passes over the batch-flat shingle array (uint64
    order — identical to the HUGEINT mod-2^64 order the SQL oracle
    replays)."""
    import pandas as pd

    def explode(batch: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": np.array([], np.int64),
                              "f": np.array([], np.int64)})
        if batch.num_rows == 0:
            return empty
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs, k)
        nsh = np.diff(sh_offs)
        nwin = np.maximum(nsh - w + 1, 1)
        total = int(nwin.sum())
        if total == 0:
            return empty
        doc_of = np.repeat(np.arange(len(nsh), dtype=np.int64), nwin)
        win_offs = np.concatenate(([0], np.cumsum(nwin)))
        local = np.arange(total, dtype=np.int64) \
            - np.repeat(win_offs[:-1], nwin)
        base = sh_offs[:-1][doc_of] + local
        wlen = np.minimum(nsh, w)[doc_of]
        acc = sh[base].copy()
        for j in range(1, w):
            m = j < wlen
            if not m.any():
                break
            acc[m] = np.minimum(acc[m], sh[base[m] + j])
        ids = pc.cast(batch[id_col], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        did = np.repeat(ids, nwin)
        f = acc.view(np.int64)
        order = np.lexsort((f, did))
        dd, ff = did[order], f[order]
        new = np.concatenate(([True],
                              (dd[1:] != dd[:-1]) | (ff[1:] != ff[:-1])))
        return pd.DataFrame({"doc_id": dd[new], "f": ff[new]})

    rows = ds.select_columns([id_col, text_col]) \
        .map_batches(explode, batch_format="pyarrow", batch_size=4096)

    def flag_shared(g: pd.DataFrame) -> pd.DataFrame:
        # one row per (doc, fp) — group size == distinct docs carrying f
        nd = g.groupby("f")["doc_id"].transform("size").to_numpy()
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                             "shared": (nd >= 2).astype(np.int64)})

    flagged = bucketed_group_apply(rows, ["f"], flag_shared)

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", sort=False).agg(
            n_fps=("shared", "size"),
            n_shared=("shared", "sum")).reset_index()
        return out.astype(np.int64)

    return bucketed_group_apply(flagged, ["doc_id"], per_doc)


def _batch_minhash(sh: np.ndarray, sh_offs: np.ndarray) -> np.ndarray:
    """(n_docs, MH_PERMS) uint64 signatures via one
    ``minimum.reduceat`` per permutation chunk — zero Python per doc.
    Permutations go in chunks of 8 so the (8, total_shingles) temp
    stays small (this VM's first-touch page faults punish big fresh
    allocations)."""
    n = len(sh_offs) - 1
    sigs = np.empty((n, MH_PERMS), dtype=np.uint64)
    if n == 0:
        return sigs
    starts = sh_offs[:-1]
    with np.errstate(over="ignore"):
        for p0 in range(0, MH_PERMS, 8):
            v = MH_A64[p0:p0 + 8, None] * sh[None, :] + MH_B64[p0:p0 + 8, None]
            sigs[:, p0:p0 + 8] = np.minimum.reduceat(v, starts, axis=1).T
    return sigs


def minhash_signature(text: str) -> np.ndarray:
    """64-permutation MinHash signature of one document's 5-token
    shingles (the per-doc reference implementation; production stages
    use the batch-vectorized :func:`_batch_minhash` path, equivalence
    is property-tested)."""
    th = _token_hashes(np.frombuffer(text.encode(), dtype=np.uint8))
    sh = _shingle_hashes_from_tokens(th)
    with np.errstate(over="ignore"):
        v = MH_A64[:, None] * sh[None, :] + MH_B64[:, None]
        return v.min(axis=1)


def minhash_bands(ds, id_col: str = "doc_id", text_col: str = "text"):
    """documents → (band_id, band_hash, doc_id) rows: the LSH explode
    stage, fully batch-vectorized (raw-buffer token hashing → rolling
    shingles → reduceat minhash → band fold). Bucketing then happens
    with ONE groupby on (band_id, band_hash) — candidate pairs only
    ever meet in buckets."""

    def explode(batch: pa.Table) -> pd.DataFrame:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        n = len(arr)
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs)
        sigs = _batch_minhash(sh, sh_offs)
        bands = sigs.reshape(n, MH_BANDS, MH_ROWS)
        h = np.zeros((n, MH_BANDS), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(MH_ROWS):
                h = h * _SH_P + bands[:, :, j]
        return pd.DataFrame({
            "band_id": np.tile(np.arange(MH_BANDS), n),
            "band_hash": h.reshape(-1).view(np.int64),
            id_col: np.repeat(batch[id_col].to_numpy(zero_copy_only=False), MH_BANDS),
        })

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=4096)


def jaccard_tokens(a: str, b: str) -> float:
    sa, sb = set(a.split(" ")), set(b.split(" "))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def shingle_set(text: str, k: int = MH_SHINGLE_K) -> set:
    """Exact k-token shingle STRING set of one document (≤k tokens →
    the whole doc is the single shingle, mirroring the hashed path)."""
    toks = text.split(" ")
    if len(toks) <= k:
        return {" ".join(toks)}
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def jaccard_shingles(a: str, b: str, k: int = MH_SHINGLE_K) -> float:
    """Exact shingle-set Jaccard — one division of exact integer
    counts, bit-identical to the DuckDB list_intersect mirror."""
    sa, sb = shingle_set(a, k), shingle_set(b, k)
    return len(sa & sb) / len(sa | sb)


def _pair_unique_shingles(arr: pa.Array, k: int = MH_SHINGLE_K):
    """Per-row UNIQUE shingle hashes for a batch of texts: returns
    (ush, upair, usize) — the sorted-unique shingle hashes, the row
    index of each, and the per-row unique-set size. One lexsort over
    the batch-flat shingle run; no per-row Python."""
    n = len(arr)
    th, toffs = _batch_token_hashes(arr)
    sh, soffs = _batch_shingles(th, toffs, k)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(soffs))
    order = np.lexsort((sh, row))
    shs, rs = sh[order], row[order]
    new = np.ones(len(shs), bool)
    if len(shs) > 1:
        new[1:] = (shs[1:] != shs[:-1]) | (rs[1:] != rs[:-1])
    return shs[new], rs[new], np.bincount(rs[new], minlength=n)


def jaccard_pairs_batch(arr_a: pa.Array, arr_b: pa.Array,
                        k: int = MH_SHINGLE_K) -> np.ndarray:
    """Vectorized exact shingle-set Jaccard for n (text_a, text_b)
    pairs — the batch kernel behind the near-dup verify stages
    (replaces the per-pair :func:`jaccard_shingles` loop; equal sets
    of 64-bit polynomial shingle hashes stand in for equal shingle
    strings, property-tested against the scalar path). Intersection =
    adjacent duplicates after sorting the two unique lists by
    (pair, hash); union = |A|+|B|−|A∩B| — one division of exact
    integer counts per pair."""
    n = len(arr_a)
    if n == 0:
        return np.empty(0, np.float64)
    sa, pa_, na = _pair_unique_shingles(arr_a, k)
    sb, pb, nb = _pair_unique_shingles(arr_b, k)
    allsh = np.concatenate([sa, sb])
    allp = np.concatenate([pa_, pb])
    order = np.lexsort((allsh, allp))
    s2, p2 = allsh[order], allp[order]
    inter = np.zeros(n, np.int64)
    if len(s2) > 1:
        dup = (s2[1:] == s2[:-1]) & (p2[1:] == p2[:-1])
        inter = np.bincount(p2[1:][dup], minlength=n)
    return inter / (na + nb - inter)


def _verify_pairs(table: pa.Table, threshold: float) -> pa.Table:
    """Verify of a candidate-pair table carrying (id_a, id_b, text_a,
    text_b): exact vectorized shingle Jaccard, keep pairs ≥
    threshold. Returns (id_a, id_b, jaccard), verified 4,096 pairs at
    a time to bound the shingle temporaries."""
    outs = []
    for i in range(0, max(table.num_rows, 1), 4096):
        batch = table.slice(i, 4096)
        ja = jaccard_pairs_batch(batch["text_a"].combine_chunks(),
                                 batch["text_b"].combine_chunks())
        keep = pa.array(ja >= threshold)
        outs.append(pa.table({
            "id_a": pc.cast(batch["id_a"], pa.int64()).filter(keep),
            "id_b": pc.cast(batch["id_b"], pa.int64()).filter(keep),
            "jaccard": pa.array(ja, pa.float64()).filter(keep)}))
    return pa.concat_tables(outs)


def _pair_text_lookup(refs, id_col: str, text_col: str):
    """(ids, texts) of the candidate-text blocks ``refs``, sorted by
    int64 id: built once per worker by :func:`state.get_broadcast`.
    The ``take`` copies the texts out of the object store. No rows (no
    candidate id found in ``ds``) give an empty lookup, so every pair
    is dropped."""
    tables = [t for t in ray.get(refs) if t.num_rows]
    if not tables:
        return np.empty(0, np.int64), pa.array([], pa.string())
    ids = np.concatenate([t[id_col].to_numpy(zero_copy_only=False)
                          .astype(np.int64) for t in tables])
    texts = pa.concat_arrays([c for t in tables
                              for c in t[text_col].chunks])
    order = np.argsort(ids, kind="stable")
    return ids[order], texts.take(order)


def _pair_ids(refs) -> np.ndarray:
    """The distinct int64 ids of the candidate-pair blocks ``refs``."""
    return np.unique(np.concatenate(
        [np.asarray(b[c]).astype(np.int64)
         for b in ray.get(refs) for c in ("id_a", "id_b")]))


@ray.remote
def _pair_text_filter(block, need, id_col: str, text_col: str):
    """The (id, text) rows of one corpus block whose id is in a
    candidate pair. ``need`` is a one-element list holding the
    broadcast ref of the candidate blocks' refs (in a list, Ray passes
    the ref itself, which keys the per-worker cache)."""
    from ray.data.block import BlockAccessor

    from pythongis_ray import state

    t = BlockAccessor.for_block(block).to_arrow()
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    need = state.get_broadcast(need[0], _pair_ids,
                               key_extra=("pair_need",), latest_only=True)
    return t.select([id_col, text_col]).filter(pa.array(np.isin(ids, need)))


@ray.remote(num_returns=2)
def _pair_text_attach(block, lookup, id_col: str, text_col: str,
                      finish):
    """One candidate-pair block with ``text_a`` and ``text_b`` added
    from the per-worker lookup of the candidates' texts, then
    ``finish`` (if any) applied. Returns (table, rows). ``lookup`` is a
    one-element list holding the broadcast ref of the filtered text
    blocks' refs, as ``need`` in :func:`_pair_text_filter`."""
    from ray.data.block import BlockAccessor

    from pythongis_ray import state

    batch = BlockAccessor.for_block(block).to_arrow()
    ids, texts = state.get_broadcast(
        lookup[0], lambda blocks: _pair_text_lookup(blocks, id_col, text_col),
        key_extra=("pair_texts",), latest_only=True)
    cols = dict(zip(batch.column_names, batch.columns))
    lo, n = {}, {}
    for c in ("id_a", "id_b"):
        if pa.types.is_signed_integer(cols[c].type):
            cols[c] = pc.cast(cols[c], pa.int64())
        v = cols[c].to_numpy(zero_copy_only=False).astype(np.int64)
        lo[c] = np.searchsorted(ids, v, "left")
        n[c] = np.searchsorted(ids, v, "right") - lo[c]
    # one row per (id_a match, id_b match) of each pair
    per_pair = n["id_a"] * n["id_b"]
    row = np.repeat(np.arange(batch.num_rows), per_pair)
    k = np.arange(len(row)) - np.repeat(np.cumsum(per_pair) - per_pair,
                                        per_pair)
    nb = n["id_b"][row]
    out = {c: v.take(row) for c, v in cols.items()}
    out["text_a"] = texts.take(lo["id_a"][row] + k // nb)
    out["text_b"] = texts.take(lo["id_b"][row] + k % nb)
    out = pa.table(out)
    if finish is not None:
        out = finish(out)
    return out, out.num_rows


# Why one broadcast lookup at every size, and not two join_large
# shuffles or two rel.hash_join calls. Sweep on a 1-CPU host, 2 KB
# random documents, every one a candidate in about two chain pairs,
# one warm Ray session per point; wall s / peak RSS MB of the driver
# and its Ray workers, sampled every 0.1 s:
#   candidate text   this lookup    two join_large   two hash_join
#     1 MB           0.08 /   684   0.61 /   706     0.09 /   685
#    16 MB           0.15 /   924   1.18 / 1,151     0.23 / 1,056
#    64 MB           0.37 / 1,699   3.07 / 2,221     0.64 / 2,246
# hash_join is as fast on the benchmark's corpus_build (0.99 vs
# 1.01 s a call), but it copies the texts to the driver and caches a
# pandas copy per side in every worker. Its cache tag is shared by all
# of its callers, so it could not drop the previous call's copy
# without branching on its caller.
def _attach_pair_texts(cand, ds, id_col: str, text_col: str, finish=None):
    """Re-attach texts to a candidate-PAIR table (id_a, id_b): the
    candidate table is tiny by construction (LSH bands / shared
    shingles), so its id SET is the filter of ONE streaming semi-join
    over the corpus — texts of non-candidates never move (the naive
    shape bucket-shuffles the full wide corpus twice, ~8× this cost).

    Both barrier stages are plain Ray tasks over block refs, so they
    run no Dataset plan of their own: one filter task per corpus block
    keeps the (id, text) rows of candidate ids (each worker builds the
    id set once from the candidate blocks), and one attach task per
    candidate block adds ``text_a`` and ``text_b`` from a broadcast
    lookup of the filtered rows (fetched and indexed once per worker
    through :func:`state.get_broadcast`), then runs ``finish`` (a
    ``pa.Table`` -> ``pa.Table`` step, e.g. the verify of
    :func:`minhash_dedup_pairs`) on its output. No shuffle, no schema
    peek; a Dataset built from refs (a :func:`rel.bucketed_group_apply`
    result) is read without running a plan. The rows are those of an
    inner join on each id: a pair whose id is missing from ``ds`` is
    dropped, an id that ``ds`` holds twice gives one row per match,
    and signed integer ids come out int64. Each worker holds one copy
    of the candidates' texts; the next call's lookup replaces it.
    Returns the (cand columns, text_a, text_b) Dataset (or ``finish``'s
    output), or None when there are no candidates."""
    cand_refs = list(rel.nonempty_blocks(cand))
    if not cand_refs:
        return None
    need = [ray.put(cand_refs)]
    small = [_pair_text_filter.remote(ref, need, id_col, text_col)
             for ref in rel.nonempty_blocks(ds)]
    lookup = [ray.put(small)]
    return rel.blocks_dataset([
        _pair_text_attach.remote(ref, lookup, id_col, text_col, finish)
        for ref in cand_refs])


def _bucket_pairs(b: pd.DataFrame, keys: list[str], id_col: str,
                  bucket_cap: int | None = None,
                  degree_cap: int | None = None) -> tuple[pd.DataFrame, int]:
    """Candidate pairs (id_a < id_b) of every bucket of ``keys`` in
    ``b``, in one vectorized pass (no per-bucket Python loop: almost
    all buckets are singletons, and 10^5 of them make a loop slow).

    The distinct (keys, id) rows are sorted; a member's rank is its
    position in its bucket. Members ranked at or past ``bucket_cap``
    are dropped, so a bucket keeps its smallest ids. Each member pairs
    with the ``min(rank, degree_cap)`` smallest ids before it, or with
    all of them when ``degree_cap`` is None (each pair of the bucket
    once). Returns the pairs and the number of dropped members."""
    ids = b[id_col].to_numpy()
    cols = [b[k].to_numpy() for k in keys]
    o = np.lexsort([ids] + cols[::-1])
    ids, cols = ids[o], [c[o] for c in cols]
    new = np.arange(len(ids)) == 0        # first row of its bucket
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    distinct = new.copy()
    distinct[1:] |= ids[1:] != ids[:-1]
    ids, new = ids[distinct], new[distinct]
    first = np.flatnonzero(new)[np.cumsum(new) - 1]
    rank = np.arange(len(ids)) - first
    cnt = rank if degree_cap is None else np.minimum(rank, degree_cap)
    n_dropped = 0
    if bucket_cap is not None:
        over = rank >= bucket_cap
        n_dropped = int(over.sum())
        cnt = np.where(over, 0, cnt)
    ib = np.repeat(np.arange(len(ids)), cnt)
    ia = np.repeat(first - np.cumsum(cnt) + cnt, cnt) + np.arange(len(ib))
    return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]}), n_dropped


def minhash_dedup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        threshold: float = 0.7, bucket_cap: int = 1024,
                        degree_cap: int | None = None):
    """Near-duplicate pairs via MinHash-LSH, every stage distributed:

      1. shingle → minhash → band explode (vectorized map_batches);
      2. ONE groupby on (band_id, band_hash): bucket members become
         candidate pairs (:func:`_bucket_pairs`, ids only — text
         never enters the shuffle);
      3. ONE bucketed shuffle on ``id_b`` drops the pairs repeated
         across bands and, with ``degree_cap``, caps each doc's
         partners (every copy of a pair shares its ``id_b`` bucket);
         without it, a bucketed dedup of (id_a, id_b);
      4. texts re-attached to the candidate table by one task per
         candidate block over a broadcast lookup of the candidates'
         texts (:func:`_attach_pair_texts`) — no shuffle, no
         driver-side corpus materialization;
      5. verify, inside those attach tasks: exact shingle-set
         Jaccard ≥ threshold.

    Returns a Dataset of (id_a, id_b, jaccard) with id_a < id_b.
    Scale note: run EXACT dedup first — a cluster of m identical docs
    emits O(m²) candidate pairs per band (reference dedup plan analog:
    /root/reference/pythongis/vector/data.py:990-1015). A degenerate
    band bucket (near-identical template cluster surviving exact
    dedup) is additionally CAPPED at ``bucket_cap`` members — smallest
    ids kept, deterministic — so no bucket can go quadratic unbounded;
    dropped members are counted and logged once per bucket task.

    ``degree_cap`` (opt-in; the connected-components consumers set
    it): after cross-band dedup, each doc keeps only its
    ``degree_cap`` SMALLEST-id partners — candidate volume is then
    <= n_docs x degree_cap instead of buckets x C(bucket_cap, 2)
    (mutation-variant bucket memberships of one template cluster
    otherwise multiply: the 10%-template torture corpus emits 3.5M
    clique pairs uncapped). The cap counts CANDIDATE partners, before
    verify, and LSH false-positive co-bucket members take slots too.
    Exact pair RECALL is complete whenever no doc has more than
    ``degree_cap`` smaller-id candidate partners; a bound on near-dup
    CLUSTER size alone does not give it.
    CC-based dedup keeps its components while each doc's ``degree_cap``
    smallest candidates still hold a verified partner (a clique of
    true near-dups of any size qualifies); when false positives fill
    those slots, a doc can lose its only verified edge and its cluster
    splits."""
    import logging

    bands = minhash_bands(ds, id_col, text_col)

    def bucket_pairs(b: pd.DataFrame) -> pd.DataFrame:
        # with degree_cap, each member pairs only with its degree_cap
        # smallest co-members: the global cap keeps exactly the D
        # smallest partners per id across buckets, and each of those
        # is within the D smallest of its own bucket — so pre-capping
        # here changes nothing downstream while cutting emission from
        # C(m,2) to m*D per bucket
        pairs, n_dropped = _bucket_pairs(b, ["band_id", "band_hash"],
                                         id_col, bucket_cap, degree_cap)
        if n_dropped:
            logging.getLogger("pythongis_ray.text").warning(
                "minhash LSH: capped degenerate band buckets, dropped "
                "%d members (bucket_cap=%d)", n_dropped, bucket_cap)
        return pairs

    cand = rel.bucketed_group_apply(bands, ["band_id", "band_hash"],
                                    bucket_pairs)
    if degree_cap is None:
        cand = rel.dedup(cand, ["id_a", "id_b"])
    else:
        def cap_degree(b: pd.DataFrame, _d=int(degree_cap)) -> pd.DataFrame:
            b = b.drop_duplicates(["id_a", "id_b"]) \
                .sort_values(["id_b", "id_a"], kind="stable")
            return b.groupby("id_b", sort=False).head(_d)

        cand = rel.bucketed_group_apply(cand, ["id_b"], cap_degree)
    return _verified_pairs(cand, ds, id_col, text_col, threshold)


def _verified_pairs(cand, ds, id_col: str, text_col: str,
                    threshold: float):
    """(id_a, id_b, jaccard) of the candidate pairs ``cand`` whose
    exact shingle Jaccard is ≥ threshold: the verify runs inside
    :func:`_attach_pair_texts`' attach tasks."""
    import functools

    out = _attach_pair_texts(cand, ds, id_col, text_col, finish=functools
                             .partial(_verify_pairs, threshold=threshold))
    if out is None:                       # no candidate pairs
        import ray.data as _rd
        return _rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))
    return out


def _doc_shingles(batch: pa.Table, id_col: str,
                  text_col: str) -> pd.DataFrame:
    """Distinct (shingle hash, doc id) rows of one batch: the
    inverted-index explode of the exact n-gram pair joins."""
    col = batch[text_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    th, tok_offs = _batch_token_hashes(arr)
    sh, sh_offs = _batch_shingles(th, tok_offs)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(ids)), np.diff(sh_offs))
    df = pd.DataFrame({"sh": sh.view(np.int64), id_col: ids[doc_of]})
    return df.drop_duplicates()


def ngram_jaccard_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        threshold: float = 0.5):
    """EXACT n-gram (5-token shingle) Jaccard near-dup pairs — full
    recall by construction: candidates are every pair sharing ≥ 1
    shingle (inverted-index explode → bucket groupby), then the exact
    shingle-set Jaccard verifies. The exact baseline beside the
    MinHash-LSH approximation (same verify, different candidate
    generator); candidate volume is Σ bucket² over shared shingles,
    so run exact dedup first on heavy-duplicate corpora."""
    bands = ds.map_batches(_doc_shingles, batch_format="pyarrow",
                           batch_size=4096,
                           fn_kwargs={"id_col": id_col, "text_col": text_col})

    cand = rel.bucketed_group_apply(
        bands, ["sh"], lambda b: _bucket_pairs(b, ["sh"], id_col)[0])
    cand = rel.dedup(cand, ["id_a", "id_b"])
    return _verified_pairs(cand, ds, id_col, text_col, threshold)


def simhash64(text: str) -> int:
    """64-bit SimHash of one document (per-doc reference path; the
    production stage is the batch-vectorized :func:`simhash_batch`,
    equivalence property-tested)."""
    th = _token_hashes(np.frombuffer(text.encode(), dtype=np.uint8))
    bits = (th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    acc = np.where(bits.astype(bool), 1, -1).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_batch(arr: pa.Array) -> np.ndarray:
    """uint64 SimHash for a whole batch of documents: one reduceat per
    bit over the batch's token-hash run — 64 numpy passes total,
    zero Python per document."""
    th, tok_offs = _batch_token_hashes(arr)
    n = len(tok_offs) - 1
    if n == 0:
        return np.empty(0, np.uint64)
    ntok = np.diff(tok_offs).astype(np.uint64)
    starts = tok_offs[:-1]
    out = np.zeros(n, np.uint64)
    for j in range(64):
        cnt1 = np.add.reduceat((th >> np.uint64(j)) & np.uint64(1), starts)
        # bit set iff majority of tokens have it: 2*cnt1 > ntok
        out |= (np.uint64(2) * cnt1 > ntok).astype(np.uint64) << np.uint64(j)
    return out


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy < 2 has no bitwise_count)."""
    return np.unpackbits(x[:, None].view(np.uint8), axis=1).sum(axis=1) \
        .astype(np.int64)


def add_simhash(ds, text_col: str = "text", out_col: str = "simhash"):
    """Adds the signed-int64 simhash column (stored as value - 2^63 so
    the Arrow column is int64; band extraction views it back)."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        h = simhash_batch(arr)
        signed = (h ^ np.uint64(1 << 63)).view(np.int64)  # == h - 2^63
        return batch.append_column(out_col, pa.array(signed))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def simhash_dedup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        max_hamming: int = 8, bucket_cap: int = 1024):
    """SimHash near-dup pairs: 4×16-bit bands → bucket groupby →
    vectorized pair emission + popcount Hamming verify (≤
    ``max_hamming``). A degenerate bucket (e.g. many near-empty docs
    sharing a band) is CAPPED at ``bucket_cap`` members (smallest ids
    kept, deterministic) so no bucket goes quadratic unbounded.
    Returns (id_a, id_b, hamming) with id_a < id_b."""
    hashed = add_simhash(ds, text_col)
    return hash_neardup_pairs(hashed, "simhash", id_col,
                              max_hamming=max_hamming,
                              bucket_cap=bucket_cap)


def hash_neardup_pairs(ds, hash_col: str, id_col: str,
                       max_hamming: int = 8, bucket_cap: int = 1024):
    """Generic banded-Hamming near-dup pairs over ANY 64-bit
    fingerprint column (SimHash for text, perceptual hash for images):
    4×16-bit bands → bucket groupby → vectorized triu pair emission +
    popcount verify. Recall: a pair is caught iff ≥ 1 band matches
    exactly; by pigeonhole every pair at Hamming ≤ 3 is guaranteed
    (3 flipped bits touch ≤ 3 of the 4 bands), and beyond that recall
    degrades gracefully as flips spread across bands — the standard
    banded-fingerprint trade (Manku et al. 2007 use the same scheme
    with more tables for higher guaranteed radius).
    Emits (id_a, id_b, hamming), id_a < id_b."""
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch[hash_col].to_numpy(np.int64).view(np.uint64)
        n = len(h)
        out = {
            "band_id": np.repeat(np.arange(4, dtype=np.int64), n),
            "band_val": np.concatenate([
                ((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
                for b in range(4)]),
            id_col: np.tile(batch[id_col].to_numpy(), 4),
            hash_col: np.tile(batch[hash_col].to_numpy(np.int64), 4),
        }
        return pd.DataFrame(out)

    bands_ds = ds.map_batches(explode, batch_format="pandas",
                              batch_size=8192)

    def bucket_pairs(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b.duplicated(subset=["band_id", "band_val"], keep=False)]
        outs = []
        for _, g in b.groupby(["band_id", "band_val"], sort=False):
            if len(g) > bucket_cap:
                g = g.nsmallest(bucket_cap, id_col)
            order = np.argsort(g[id_col].to_numpy())
            ids = g[id_col].to_numpy()[order]
            hs = g[hash_col].to_numpy(np.int64).view(np.uint64)[order]
            ia, ib = np.triu_indices(len(ids), k=1)
            ham = popcount64(hs[ia] ^ hs[ib])
            keep = ham <= max_hamming
            outs.append(pd.DataFrame({"id_a": ids[ia][keep],
                                      "id_b": ids[ib][keep],
                                      "hamming": ham[keep]}))
        if not outs:
            return pd.DataFrame({"id_a": np.empty(0, np.int64),
                                 "id_b": np.empty(0, np.int64),
                                 "hamming": np.empty(0, np.int64)})
        return pd.concat(outs, ignore_index=True)

    cand = rel.bucketed_group_apply(bands_ds, ["band_id", "band_val"],
                                    bucket_pairs)
    # a pair surfaces once per shared band with the SAME hamming —
    # dedup is order-independent
    return rel.dedup(cand, ["id_a", "id_b"])


def feature_hash_vectors(ds, dims: int = 16, id_col: str = "doc_id",
                         text_col: str = "text"):
    """Hashing-trick document vectors (Weinberger et al. 2009): dim =
    token_hash % dims, value = count — the fast featurization slot for
    linear classifiers over web text. One raw-buffer token-hash pass +
    one bincount per batch; no vocabulary, no training state, so the
    stage is stateless and embarrassingly parallel at any scale.
    Emits (id, vec list<int64>[dims])."""
    def fn(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        ntok = np.diff(tok_offs)
        doc_of = np.repeat(np.arange(len(ntok), dtype=np.int64), ntok)
        d = (th % np.uint64(dims)).astype(np.int64)
        cnt = np.bincount(doc_of * dims + d,
                          minlength=len(ntok) * dims) \
            .reshape(-1, dims).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "vec": pa.array(cnt.tolist(), pa.list_(pa.int64()))})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


FUNNEL_MIN_TOKENS = 16
FUNNEL_STOP_DENOM = 50   # reject if n_stop * 50 < n_tokens  (< 2% stopwords)
FUNNEL_REP_NUM = 2       # reject if dup_ngrams * 2 > n_ngrams (> 50% dup mass)


def quality_funnel(batch: pa.Table, id_col: str = "doc_id",
                   text_col: str = "text",
                   min_tokens: int = FUNNEL_MIN_TOKENS,
                   stop_denom: int = FUNNEL_STOP_DENOM,
                   rep_num: int = FUNNEL_REP_NUM) -> pa.Table:
    """Filter-funnel verdict per document — the pipeline-observability
    stage every production corpus build runs: each doc gets the FIRST
    rule it fails (too_short → low_stopword → repetitive) or 'kept'.
    Grouping the output by verdict gives the per-stage rejection
    report. All three rules are exact integer predicates (no float
    thresholds), so the funnel replays bit-exactly in SQL.

    One fused pass: token/stopword counts and the Gopher repeated-
    bigram mass are computed in the same batch (the corpus is read
    once); docs with < 2 tokens have no bigram and pass rule 3."""
    q = quality_score(batch, text_col)
    ntok = q["n_tokens"].to_numpy(zero_copy_only=False)
    nstop = q["n_stop"].to_numpy(zero_copy_only=False)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    rep = repetition_stats(batch, id_col, text_col, n=2)
    dup = np.zeros(len(ids), np.int64)
    ngr = np.ones(len(ids), np.int64)
    pos = pd.Index(ids).get_indexer(
        rep[id_col].to_numpy(zero_copy_only=False))
    dup[pos] = rep["dup_ngrams"].to_numpy(zero_copy_only=False)
    ngr[pos] = rep["n_ngrams"].to_numpy(zero_copy_only=False)
    verdict = np.full(len(ids), "kept", object)
    verdict[dup * rep_num > ngr] = "repetitive"
    verdict[nstop * stop_denom < ntok] = "low_stopword"
    verdict[ntok < min_tokens] = "too_short"
    return pa.table({id_col: batch[id_col],
                     "verdict": pa.array(verdict, pa.string())})


# ------------------------------------------------------ repetition / decontam

def repetition_stats(batch: pa.Table, id_col: str = "doc_id",
                     text_col: str = "text", n: int = 2) -> pa.Table:
    """Gopher-style repetition signals per document: over the doc's
    n-token word n-grams, the total count, the count of occurrences
    belonging to an n-gram seen more than once in the doc, the top
    n-gram's occurrence count, and dup_frac = dup/total (one division
    of exact integer counts). Repeated-n-gram fraction is the standard
    repetitious-text filter in web-corpus pipelines (Gopher §A.1.1).

    Fully batch-vectorized: one raw-buffer token-hash pass
    (:func:`_batch_token_hashes`), rolling shingle combine, then a
    single lexsort over (doc, hash) with run-length counting — no
    Python per row. Docs with fewer than ``n`` tokens are dropped
    (they have no n-gram; mirrors the SQL unnest semantics). n-grams
    are compared by 64-bit hash; a cross-n-gram collision within one
    doc (~2^-64 per pair) would merge two counts.
    """
    col = batch[text_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    th, tok_offs = _batch_token_hashes(arr)
    sh, sh_offs = _batch_shingles(th, tok_offs, k=n)
    ntok = np.diff(tok_offs)
    nsh = np.diff(sh_offs)
    ndocs = len(ntok)
    doc_of = np.repeat(np.arange(ndocs, dtype=np.int64), nsh)
    # mask out the folded pseudo-shingle of docs with < n tokens
    valid_doc = ntok >= n
    keep = valid_doc[doc_of]
    sh, doc_of = sh[keep], doc_of[keep]
    order = np.lexsort((sh, doc_of))
    s, d = sh[order], doc_of[order]
    new = np.ones(len(s), dtype=bool)
    if len(s) > 1:
        new[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    run_id = np.cumsum(new) - 1
    run_len = np.bincount(run_id)
    elem_dup = run_len[run_id] > 1
    n_ngrams = np.bincount(d, minlength=ndocs)[valid_doc].astype(np.int64)
    dup_ngrams = np.bincount(d, weights=elem_dup, minlength=ndocs)[
        valid_doc].astype(np.int64)
    run_doc = d[new]
    top = np.zeros(ndocs, np.int64)
    if len(run_doc):
        # per-doc max run length: reduceat over the doc-change
        # boundaries of the (doc-sorted) run list. (A searchsorted
        # per doc index here is WRONG: clamping its out-of-range
        # entries corrupts the preceding segment when trailing docs
        # have no runs — caught by the hypothesis property test.)
        seg = np.concatenate(
            ([0], np.flatnonzero(run_doc[1:] != run_doc[:-1]) + 1))
        top[run_doc[seg]] = np.maximum.reduceat(run_len, seg)
    ids = batch[id_col].to_numpy(zero_copy_only=False)[valid_doc]
    return pa.table({
        id_col: pa.array(ids),
        "n_ngrams": pa.array(n_ngrams),
        "dup_ngrams": pa.array(dup_ngrams),
        "top_count": pa.array(top[valid_doc]),
        "dup_frac": pa.array(dup_ngrams.astype(np.float64) / n_ngrams),
    })


def decontaminate(ds, id_col: str = "doc_id", text_col: str = "text",
                  n: int = 4, bench_mod: int = 101):
    """Benchmark decontamination: flag every corpus document sharing at
    least one n-token shingle with the benchmark set (here the
    deterministic subset ``id % bench_mod == 0`` standing in for an
    eval benchmark), returning (id, n_contaminated) for flagged docs —
    the standard pre-training decontamination pass.

    Scale shape: the benchmark side is SMALL by nature (eval sets are
    KBs against a 100-TB corpus), so its distinct shingle hashes are
    reduced per-batch, unioned on the driver (bounded by the benchmark
    vocabulary, not the corpus), sorted, and broadcast once via
    ``ray.put``; the corpus streams through one map_batches whose
    membership test is a single ``np.isin`` against the sorted
    broadcast array. No corpus materialization, no shuffle. Shingles
    are compared by 64-bit polynomial hash (equal strings always hash
    equal, so no false negatives; a false positive needs a 2^-64
    collision).
    """
    import ray

    from pythongis_ray import state

    def bench_hashes(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(ids % bench_mod == 0))
        col = b[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs, k=n)
        keep = (np.diff(tok_offs) >= n)[
            np.repeat(np.arange(len(b), dtype=np.int64), np.diff(sh_offs))]
        u = np.unique(sh[keep])
        return pa.table({"h": pa.array(u.view(np.int64))})

    parts = ds.map_batches(bench_hashes, batch_format="pyarrow",
                           batch_size=8192).to_pandas()
    bench = np.unique(parts["h"].to_numpy().view(np.uint64))
    ref = ray.put(bench)

    def flag(batch: pa.Table) -> pa.Table:
        bh = state.get_broadcast(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(ids % bench_mod != 0))
        ids = b[id_col].to_numpy(zero_copy_only=False)
        col = b[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs, k=n)
        nsh = np.diff(sh_offs)
        doc_of = np.repeat(np.arange(len(b), dtype=np.int64), nsh)
        keep = (np.diff(tok_offs) >= n)[doc_of]
        hit = np.zeros(len(sh), dtype=np.int64)
        hit[keep] = np.isin(sh[keep], bh)
        cnt = np.bincount(doc_of, weights=hit, minlength=len(b)).astype(np.int64)
        m = cnt > 0
        return pa.table({id_col: pa.array(ids[m]),
                         "n_contaminated": pa.array(cnt[m])})

    return ds.map_batches(flag, batch_format="pyarrow", batch_size=8192)


# ----------------------------------------------------------- line dedup / PII

LINE_RANK_BITS = 20  # line_idx < 2^20 → rank = doc_id * 2^20 + line_idx


def _batch_line_rows(batch: pa.Table, id_col: str, text_col: str,
                     line_len: int) -> pa.Table:
    """Per-doc fixed-length token 'lines' (disjoint ``line_len``-token
    chunks; the last partial chunk counts) → one row per line:
    (line_hash, doc_id, line_idx, rank). Hash is an order-sensitive
    64-bit polynomial over the token hashes (equal token sequences
    always hash equal). Fully vectorized: the in-chunk combine is
    ``line_len`` masked passes over all chunks at once."""
    col = batch[text_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    th, tok_offs = _batch_token_hashes(arr)
    ntok = np.diff(tok_offs)
    nlines = -(-ntok // line_len)  # ceil
    line_offs = np.concatenate(([0], np.cumsum(nlines)))
    total = int(nlines.sum())
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if total == 0:
        e = np.empty(0, np.int64)
        return pa.table({"line_hash": pa.array(e), id_col: pa.array(e),
                         "line_idx": pa.array(e), "rank": pa.array(e)})
    doc_of_tok = np.repeat(np.arange(len(ntok), dtype=np.int64), ntok)
    local = np.arange(len(th), dtype=np.int64) \
        - np.repeat(tok_offs[:-1], ntok)
    gchunk = np.repeat(line_offs[:-1], ntok) + local // line_len
    pos = local % line_len
    P = np.uint64(1099511628211)
    h = np.zeros(total, np.uint64)
    with np.errstate(over="ignore"):
        for p in range(line_len):
            m = pos == p
            h[gchunk[m]] = h[gchunk[m]] * P + th[m]
    doc_of_line = np.repeat(np.arange(len(ntok), dtype=np.int64), nlines)
    line_idx = np.arange(total, dtype=np.int64) \
        - np.repeat(line_offs[:-1], nlines)
    did = ids[doc_of_line]
    rank = (did << LINE_RANK_BITS) + line_idx
    return pa.table({"line_hash": pa.array(h.view(np.int64)),
                     id_col: pa.array(did),
                     "line_idx": pa.array(line_idx),
                     "rank": pa.array(rank)})


def line_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
               line_len: int = 10):
    """C4/MassiveText-style cross-document LINE dedup over fixed
    ``line_len``-token lines: a line is kept only in its FIRST
    occurrence across the whole corpus (first = smallest
    (doc_id, line_idx)). Returns (doc_id, n_lines, n_kept).

    Scale shape: one vectorized explode to (line_hash, rank) rows, ONE
    hash-bucketed shuffle on line_hash with a vectorized keep-first
    inside each bucket, then a per-doc count combine — the same plan
    exact dedup uses, at line granularity. No joins, no driver state.
    Lines are compared by 64-bit polynomial hash (equal lines always
    collide; a false merge needs a 2^-64 collision)."""
    lines = ds.map_batches(
        lambda b: _batch_line_rows(b, id_col, text_col, line_len),
        batch_format="pyarrow", batch_size=8192)

    def keep_first(bucket: pd.DataFrame) -> pd.DataFrame:
        first = bucket.groupby("line_hash", sort=False)["rank"].transform("min")
        return pd.DataFrame({
            id_col: bucket[id_col],
            "kept": (bucket["rank"] == first).astype(np.int64)})

    flags = rel.bucketed_group_apply(lines, ["line_hash"], keep_first)
    return rel.groupby_aggregate(flags, id_col,
                                 [("n_lines", "kept", "count"),
                                  ("n_kept", "kept", "sum")])


PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\b555-[0-9]{2,4}\b"
PII_IP_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"


def pii_scrub(batch: pa.Table, text_col: str = "text",
              out_col: str = "text_scrubbed") -> pa.Table:
    """Scrub emails → ``<EMAIL>``, 555-prefixed phone numbers →
    ``<PHONE>``, dotted-quad IPs → ``<IP>`` (in that documented order;
    counts are taken on the ORIGINAL text) and append per-row match
    counts. One RE2 kernel per pattern per batch — the standard PII
    redaction pass of a web-corpus build, mirrored 1:1 by DuckDB
    regexp_replace/regexp_extract_all on the same RE2 patterns."""
    col = batch[text_col]
    s = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n_email = pc.count_substring_regex(s, PII_EMAIL_RE)
    n_phone = pc.count_substring_regex(s, PII_PHONE_RE)
    n_ip = pc.count_substring_regex(s, PII_IP_RE)
    out = pc.replace_substring_regex(s, PII_EMAIL_RE, "<EMAIL>")
    out = pc.replace_substring_regex(out, PII_PHONE_RE, "<PHONE>")
    out = pc.replace_substring_regex(out, PII_IP_RE, "<IP>")
    for name, arr in ((out_col, out),
                      ("n_emails", pc.cast(n_email, pa.int64())),
                      ("n_phones", pc.cast(n_phone, pa.int64())),
                      ("n_ips", pc.cast(n_ip, pa.int64()))):
        batch = batch.append_column(name, arr)
    return batch


# ------------------------------------------------------------------ tf-idf

def tfidf_topk(ds, id_col: str = "doc_id", text_col: str = "text",
               k: int = 3):
    """Per-document top-k TF-IDF terms: score = tf * n_docs / df
    (raw-count idf ratio — kept as ONE exact-integer product and ONE
    division so both engines produce bit-identical doubles; a log idf
    would differ in the last ulp between libm implementations).

    Plan (all streaming): per-batch Arrow group_by gives FINAL
    (doc, word, tf) rows — a document never spans batches, so tf needs
    no cross-batch combine; df = one bucketed count over the tf rows;
    tf ⋈ df on word (partitioned hash join); per-doc top-k inside a
    hash-bucketed grouped sort. Ties break word-ascending. The tf
    stream is consumed twice (df pass + join side) and recomputed from
    lineage rather than materialized — two corpus passes instead of an
    object-store-sized pin."""
    n_docs = ds.count()

    def tf_batch(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        nw = np.diff(flat.offsets.to_numpy(zero_copy_only=False))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        t = pa.table({id_col: pa.array(np.repeat(ids, nw)),
                      "word": flat.values})
        return t.group_by([id_col, "word"]).aggregate([("word", "count")]) \
            .rename_columns([id_col, "word", "tf"])

    tf = ds.map_batches(tf_batch, batch_format="pyarrow", batch_size=4096)

    def df_partial(batch: pa.Table) -> pa.Table:
        return batch.group_by("word").aggregate([("tf", "count")]) \
            .rename_columns(["word", "pdf"])

    dfreq = rel.bucketed_group_apply(
        tf.map_batches(df_partial, batch_format="pyarrow", batch_size=8192),
        ["word"],
        lambda b: b.groupby("word", sort=False)["pdf"].sum()
        .rename("df").reset_index())

    joined = rel.join_large(tf, dfreq, on="word")

    def topk(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.copy()
        b["score"] = (b["tf"].to_numpy(np.int64) * n_docs).astype(np.float64) \
            / b["df"].to_numpy(np.int64).astype(np.float64)
        b = b.sort_values([id_col, "score", "word"],
                          ascending=[True, False, True], kind="stable")
        g = b.groupby(id_col, sort=False)
        b["rank"] = g.cumcount() + 1
        out = b[b["rank"] <= k]
        return out[[id_col, "word", "tf", "df", "score", "rank"]].astype(
            {"tf": np.int64, "df": np.int64, "rank": np.int64})

    return rel.bucketed_group_apply(joined, [id_col], topk)


# ---------------------------------------------------------------- sketches

KMV_MIX = np.uint64(11400714819323198485)  # 0x9E3779B97F4A7C15, odd


def kmv_distinct(ds, text_col: str = "text", k: int = 256):
    """Approximate COUNT(DISTINCT token) via a K-Minimum-Values sketch
    (Bar-Yossef et al. 2002): keep the k smallest distinct 64-bit token
    hashes; estimate = (k-1) * 2^64 / h_k where h_k is the k-th
    smallest. The sketch is MERGEABLE — each batch contributes its own
    k-minima (one np.partition, no shuffle), partials concatenate and
    re-partition to k on the driver (k rows per batch, trivially
    bounded) — so distinct counting never needs the global
    dedup-shuffle an exact count does. Deterministic given the hash
    function, hence DuckDB-oracle-able: the SQL replays the same
    polynomial hash and formula bit-for-bit.

    Returns a 1-row pa.Table: (est DOUBLE, kth_hash BIGINT, n_seen
    BIGINT=k) — or the EXACT distinct count when fewer than k distinct
    hashes exist (est = n, kth_hash = -1 sentinel).
    """
    def partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, _ = _batch_token_hashes(arr)
        # the raw polynomial hash is NOT uniform for short tokens
        # (len<3 chars never wraps 2^64); a multiply-shift mix by a
        # fixed odd constant uniformizes the ORDER (KMV only needs
        # order) and stays one HUGEINT multiply in the SQL mirror
        with np.errstate(over="ignore"):
            th = th * KMV_MIX
        u = np.unique(th)  # sorted
        return pa.table({"h": pa.array(u[:k].view(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=8192).take_all()
    allh = np.unique(np.array([r["h"] for r in parts],
                              dtype=np.int64).view(np.uint64))
    if len(allh) < k:
        est, kth = float(len(allh)), -1
    else:
        kth_u = allh[k - 1]
        est = (k - 1) * (2.0 ** 64) / float(kth_u)
        kth = int(kth_u.view(np.int64)) if hasattr(kth_u, "view") \
            else int(np.uint64(kth_u).view(np.int64))
    return pa.table({"est": pa.array([est], pa.float64()),
                     "kth_hash": pa.array([int(kth)], pa.int64()),
                     "n_seen": pa.array([min(len(allh), k)], pa.int64())})


def dup_spans(ds, id_col: str = "doc_id", text_col: str = "text",
              w: int = 8):
    """Exact duplicated-substring spans (the Lee et al. 2022
    "Deduplicating Training Data" exact-substring pass, windowed):
    every rolling ``w``-token window whose text occurs MORE THAN ONCE
    corpus-wide (any doc, any position, self-repeats included) marks
    its tokens as duplicated; returns, per document with at least one
    duplicated window, (doc_id, n_tokens, n_dup_windows,
    n_tokens_covered) where coverage is the UNION of window spans.

    Plan: vectorized window-hash explode → ONE bucketed count keeps
    hashes with count > 1 → partitioned hash join back to the window
    rows (the dup-hash table is corpus-scale, so a broadcast is NOT
    safe — unlike decontaminate's benchmark side) → per-doc coverage
    via a difference array + cumsum in a bucketed grouped apply.
    Windows compare by 64-bit rolling hash (equal windows always
    collide; a false dup needs a 2^-64 collision).
    """
    def explode(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs, k=w)
        ntok = np.diff(tok_offs)
        nsh = np.diff(sh_offs)
        doc_of = np.repeat(np.arange(len(ntok), dtype=np.int64), nsh)
        # docs with < w tokens have one folded pseudo-shingle: drop it
        # (mirrors the SQL range() emptiness)
        keep = (ntok >= w)[doc_of]
        pos = np.arange(len(sh), dtype=np.int64) \
            - np.repeat(sh_offs[:-1], nsh)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "h": pa.array(sh[keep].view(np.int64)),
            id_col: pa.array(ids[doc_of[keep]]),
            "pos": pa.array(pos[keep]),
            "ntok": pa.array(ntok[doc_of[keep]]),
        })

    wins = ds.map_batches(explode, batch_format="pyarrow", batch_size=8192)

    def count_keep_dups(bucket: pd.DataFrame) -> pd.DataFrame:
        c = bucket.groupby("h", sort=False).size()
        return c[c > 1].rename("dup_n").reset_index()[["h"]]

    dups = rel.bucketed_group_apply(wins.select_columns(["h"]),
                                    ["h"], count_keep_dups)
    # dups may be all-empty: an inner join with it returns no rows
    hits = rel.join_large(wins, dups, on="h")

    def coverage(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([id_col, "pos"], kind="stable")
        ids = b[id_col].to_numpy(np.int64)
        pos = b["pos"].to_numpy(np.int64)
        ntok = b["ntok"].to_numpy(np.int64)
        new = np.ones(len(ids), dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        doc_idx = np.cumsum(new) - 1
        doc_ids = ids[new]
        doc_ntok = ntok[new]
        # one global difference array, docs laid out back to back
        base = np.concatenate(([0], np.cumsum(doc_ntok + 1)))[:-1]
        diff = np.zeros(int((doc_ntok + 1).sum()) + 1, np.int64)
        start = base[doc_idx] + pos
        end = np.minimum(pos + w, ntok)  # clip (always fits, but safe)
        np.add.at(diff, start, 1)
        np.add.at(diff, base[doc_idx] + end, -1)
        covered_all = np.cumsum(diff[:-1]) > 0
        # per-doc covered-token count (the +1 gap slot is never covered)
        cuts = np.concatenate((base, [len(covered_all)]))
        sums = np.add.reduceat(covered_all.astype(np.int64), cuts[:-1])
        return pd.DataFrame({
            id_col: doc_ids,
            "n_tokens": doc_ntok,
            "n_dup_windows": np.bincount(doc_idx).astype(np.int64),
            "n_tokens_covered": sums.astype(np.int64),
        })

    return rel.bucketed_group_apply(hits, [id_col], coverage)


def pmi_bigrams(ds, text_col: str = "text", k: int = 20,
                min_count: int = 5):
    """Top-k word bigrams by (unnormalized) PMI ratio:
    score = c(ab) * N / (c(a) * c(b)) with N = total bigram count —
    kept as ONE exact-integer product ratio evaluated in a single
    double division on each side (numerator and denominator each fit
    int64 at any realistic count), so both engines order identically.
    ``min_count`` drops rare bigrams (the standard PMI noise guard).

    Plan: bigram + unigram counts ride the SAME explode pass (partial
    counts per batch, one bucketed combine each), two small hash joins
    attach c(a), c(b), and the top-k is a per-block partial + B×k
    driver merge (vocabulary-bounded, same shape as word_frequency).
    Returns a pandas DataFrame (w1, w2, n_ab, n_a, n_b, score, rank).
    """
    def bigram_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        nw = np.diff(flat.offsets.to_numpy(zero_copy_only=False))
        words = flat.values
        n = len(words)
        keep = np.ones(n - 1, dtype=bool) if n else np.zeros(0, bool)
        # mask pairs that straddle a document boundary
        ends = np.cumsum(nw)[:-1] - 1
        keep[ends[ends < n - 1]] = False
        t = pa.table({"w1": words.slice(0, n - 1).filter(pa.array(keep)),
                      "w2": words.slice(1, n - 1).filter(pa.array(keep))})
        return t.group_by(["w1", "w2"]).aggregate([("w1", "count")]) \
            .rename_columns(["w1", "w2", "pcnt"])

    bi = rel.bucketed_group_apply(
        ds.map_batches(bigram_partial, batch_format="pyarrow",
                       batch_size=8192),
        ["w1", "w2"],
        lambda b: b.groupby(["w1", "w2"], sort=False)["pcnt"].sum()
        .rename("n_ab").reset_index())
    uni = word_frequency(ds, text_col)  # (word, cnt)

    n_total = int(sum(r["n_ab"] for r in
                      bi.map_batches(
                          lambda b: pd.DataFrame(
                              {"n_ab": [b["n_ab"].sum()]}),
                          batch_format="pandas").take_all()))

    u1 = uni.map_batches(lambda b: b.rename(
        columns={"word": "w1", "cnt": "n_a"}), batch_format="pandas")
    u2 = uni.map_batches(lambda b: b.rename(
        columns={"word": "w2", "cnt": "n_b"}), batch_format="pandas")
    # bi is empty when no doc has two tokens: the joins return no rows
    j = rel.join_large(rel.join_large(bi, u1, on="w1"),
                       u2, on="w2")

    def score_block(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_ab"] >= min_count].copy()
        num = b["n_ab"].to_numpy(np.int64) * n_total
        den = b["n_a"].to_numpy(np.int64) * b["n_b"].to_numpy(np.int64)
        b["score"] = num.astype(np.float64) / den.astype(np.float64)
        return b.sort_values(["score", "w1", "w2"],
                             ascending=[False, True, True],
                             kind="stable").head(k)

    parts = j.map_batches(score_block, batch_format="pandas").to_pandas()
    if parts.empty or "score" not in parts.columns:
        # no bigram reached min_count: typed empty result
        return pd.DataFrame({"w1": pd.Series([], dtype=object),
                             "w2": pd.Series([], dtype=object),
                             "n_ab": pd.Series([], dtype=np.int64),
                             "n_a": pd.Series([], dtype=np.int64),
                             "n_b": pd.Series([], dtype=np.int64),
                             "score": pd.Series([], dtype=np.float64),
                             "rank": pd.Series([], dtype=np.int64)})
    out = parts.sort_values(["score", "w1", "w2"],
                            ascending=[False, True, True],
                            kind="stable").head(k).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["w1", "w2", "n_ab", "n_a", "n_b", "score", "rank"]].astype(
        {"n_ab": np.int64, "n_a": np.int64, "n_b": np.int64})


def dedup_incremental(new_ds, old_ds, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Incremental exact dedup for an append-only crawl: keep only the
    NEW documents whose content fingerprint does not appear in the
    EXISTING corpus, one representative (min id) per new fingerprint —
    the production ingestion pattern (each crawl snapshot dedups
    against everything already accepted, without re-reading old text).

    ONE two-input bucketed exchange on the fingerprint: new rows carry
    (fp, id), existing-corpus rows only fp (8 bytes/row — the old TEXT
    never moves); a new fp that the existing corpus also has is
    dropped, else its min-id representative survives with its copy
    count. Emits (doc_id, n_copies).
    """
    def old_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"fp": fingerprint(batch, text_col=text_col)["fp"]})

    def new_rows(batch: pa.Table) -> pa.Table:
        b = fingerprint(batch, text_col=text_col)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"fp": b["fp"], "id": pa.array(ids)})

    old = old_ds.map_batches(old_rows, batch_format="pyarrow",
                             batch_size=4096)
    new = new_ds.map_batches(new_rows, batch_format="pyarrow",
                             batch_size=4096)

    def combine(n: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        n = n[~n["fp"].isin(o.get("fp", ()))] if len(n) \
            else pd.DataFrame({"fp": [], "id": []}, dtype=np.int64)
        g = n.groupby("fp", sort=False)["id"].agg(["min", "count"])
        return pd.DataFrame({
            "doc_id": g["min"].to_numpy(np.int64),
            "n_copies": g["count"].to_numpy(np.int64)})

    return bucketed_group_apply([new, old], ["fp"], combine)


# ------------------------------------------------------- Count-Min sketch

CMS_DEPTH = 4
CMS_WIDTH_BITS = 10
CMS_WIDTH = 1 << CMS_WIDTH_BITS
# odd 64-bit multiplicative-hash constants (splitmix64 / murmur finalizers)
CMS_MULTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                      0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53],
                     dtype=np.uint64)


def cms_slots(th: np.ndarray) -> np.ndarray:
    """(depth, n) slot ids: the top CMS_WIDTH_BITS bits of
    th * M_d mod 2^64 (multiplicative hashing — high product bits are
    the well-mixed ones). Exact integer arithmetic, so the DuckDB
    replay (HUGEINT split-multiply) lands in identical slots."""
    with np.errstate(over="ignore"):
        prod = th[None, :].astype(np.uint64) * CMS_MULTS[:, None]
    return (prod >> np.uint64(64 - CMS_WIDTH_BITS)).astype(np.int64)


def cms_sketch(ds, text_col: str = "text"):
    """Mergeable Count-Min sketch over the whitespace-token stream
    (Cormode & Muthukrishnan 2005): each batch emits its partial
    (depth, slot) cell counts; the global sketch is one tiny
    groupby-sum over <= depth*width keys. Sketches of disjoint shards
    merge by cell-wise addition — the property that makes CM a
    streaming combiner at corpus scale: state is depth*width cells
    regardless of vocabulary size, and no shuffle ever carries more
    than depth*width rows per block."""
    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[text_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        th, _ = _batch_token_hashes(arr)
        sl = cms_slots(th)
        ds_, slots_, cnts_ = [], [], []
        for d in range(CMS_DEPTH):
            c = np.bincount(sl[d], minlength=CMS_WIDTH)
            nz = np.flatnonzero(c)
            ds_.append(np.full(len(nz), d, np.int64))
            slots_.append(nz.astype(np.int64))
            cnts_.append(c[nz].astype(np.int64))
        return pa.table({"d": np.concatenate(ds_),
                         "slot": np.concatenate(slots_),
                         "pcnt": np.concatenate(cnts_)})

    sk = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
    return bucketed_group_apply(
        sk, ["d", "slot"],
        lambda b: b.groupby(["d", "slot"], sort=False)["pcnt"].sum()
        .rename("cnt").reset_index())


def hash_token(word: str) -> int:
    """Scalar mirror of _poly_hash_segments for driver-side candidate
    hashing (tiny lists only)."""
    h = 0
    for b in word.encode("utf-8"):
        h = (h * 1099511628211 + b) % (1 << 64)
    return h


def cms_estimate(sketch_df: pd.DataFrame, words: list) -> np.ndarray:
    """CM point estimates (min over depth rows) for a small candidate
    word list against a materialized sketch table. est >= true count
    always (one-sided error); the sketch table is depth*width rows,
    so pulling it to the driver is bounded by the sketch, not the
    corpus."""
    cell = {(int(d), int(s)): int(c) for d, s, c in
            zip(sketch_df["d"], sketch_df["slot"], sketch_df["cnt"])}
    if not words:
        return np.empty(0, np.int64)
    th = np.array([hash_token(w) for w in words], dtype=np.uint64)
    sl = cms_slots(th)
    return np.array([min(cell.get((d, int(sl[d, i])), 0)
                         for d in range(CMS_DEPTH))
                     for i in range(len(words))], dtype=np.int64)


# ------------------------------------------------- linear quality scorer

QLR_WEIGHTS = {
    # milli-unit integer weights (the fastText-classifier slot of a
    # web-corpus pipeline, kept linear + integer so SQL replays exactly)
    "bias": -290,
    "n_tokens": 3,
    "n_stop": 40,
    "n_punct": -25,
    "n_digit": -8,
    "n_upper": -5,
}
QLR_THRESHOLD = 0
QLR_PUNCT_RE = r"[.,!?;:]"


def _stopword_counts(t) -> np.ndarray:
    """Per-document stopword occurrence counts (vectorized reduceat
    over the flattened token list)."""
    toks = pc.split_pattern(t, " ")
    flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    stop = pc.is_in(flat.values, value_set=pa.array(list(STOPWORDS)))
    stop_i = pc.cast(stop, pa.int8()).to_numpy(zero_copy_only=False)
    offs = flat.offsets.to_numpy()
    nstop = np.add.reduceat(np.r_[stop_i, 0], offs[:-1])
    nstop[offs[:-1] == offs[1:]] = 0
    return nstop.astype(np.int64)


def quality_lr(batch: pa.Table, text_col: str = "text",
               score_col: str = "score") -> pa.Table:
    """Linear quality classifier: integer character/token-class
    features x fixed integer milli-weights -> exact integer score.
    Every feature is a count and every weight an integer literal, so
    the DuckDB replay is bit-exact. One pyarrow kernel per feature —
    no per-row Python."""
    t = batch[text_col]
    feats = {
        "n_tokens": pc.cast(pc.add(pc.count_substring(t, " "), 1),
                            pa.int64()).to_numpy(zero_copy_only=False),
        "n_stop": _stopword_counts(t),
        "n_punct": pc.cast(pc.count_substring_regex(t, QLR_PUNCT_RE),
                           pa.int64()).to_numpy(zero_copy_only=False),
        "n_digit": pc.cast(pc.count_substring_regex(t, "[0-9]"),
                           pa.int64()).to_numpy(zero_copy_only=False),
        "n_upper": pc.cast(pc.count_substring_regex(t, "[A-Z]"),
                           pa.int64()).to_numpy(zero_copy_only=False),
    }
    score = np.full(len(batch), QLR_WEIGHTS["bias"], np.int64)
    for name, arr in feats.items():
        score += QLR_WEIGHTS[name] * arr
    return batch.append_column(score_col, pa.array(score))


# ------------------------------------------- content-defined chunking

CDC_WINDOW = 8          # rolling-hash window (bytes)
CDC_DIVISOR = 64        # boundary when H % DIVISOR == 0 (~64-byte chunks)


def _cdc_window_hashes(buf: np.ndarray) -> np.ndarray:
    """H[p] = poly hash of the CDC_WINDOW bytes ending at p (valid for
    p >= CDC_WINDOW-1), over the WHOLE concatenated batch buffer —
    CDC_WINDOW shifted multiply-adds, no per-position Python."""
    w = CDC_WINDOW
    n = len(buf)
    H = np.zeros(n, dtype=np.uint64)
    if n < w:
        return H
    pw = _fp_powers(w)
    vals = buf.astype(np.uint64)
    with np.errstate(over="ignore"):
        for j in range(w):
            H[w - 1:] += vals[j:n - w + 1 + j] * pw[w - 1 - j]
    return H


def cdc_chunk_table(batch: pa.Table, id_col: str = "doc_id",
                    text_col: str = "text") -> pa.Table:
    """Content-defined chunking (FastCDC-style, Muthitacharoen LBFS
    2001): a chunk boundary falls AFTER byte p whenever the rolling
    window hash H(p) % CDC_DIVISOR == 0 (never at a doc's last byte —
    no empty tail chunks). Boundaries move with content, so an
    insertion reshifts only the chunks it touches — the property that
    makes chunk-level dedup catch partially-overlapping documents
    that whole-doc fingerprints miss. Emits one row per chunk:
    (doc_id, ch) with ch the signed chunk poly-hash."""
    arr = batch[text_col]
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    buf, offs = _string_buffer(arr)
    if len(ids) == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "ch": pa.array([], pa.int64())})
    H = _cdc_window_hashes(buf)
    pos = np.arange(offs[0], offs[-1], dtype=np.int64)
    # doc of each in-bounds byte (empty docs hold no positions, and
    # 'right' search lands shared boundary bytes in the later doc)
    doc_of = np.searchsorted(offs, pos, "right") - 1
    # window must fit inside the doc; boundary never at the last byte
    valid = ((pos - np.int64(CDC_WINDOW - 1) >= offs[doc_of])
             & (pos < offs[doc_of + 1] - 1))
    b = pos[valid & (H[pos] % np.uint64(CDC_DIVISOR) == 0)]
    starts = np.sort(np.concatenate([offs[:-1][offs[:-1] < offs[1:]],
                                     b + 1]))
    ends = np.sort(np.concatenate([b + 1,
                                   offs[1:][offs[:-1] < offs[1:]]]))
    ch = _poly_hash_segments(buf, starts, ends)
    # non-empty chunk -> owning doc: strictly-increasing offsets around
    # it make 'right'-1 exact even with empty docs in between
    cdoc = np.searchsorted(offs, starts, "right") - 1
    out_ids = ids[cdoc]
    out_ch = ch.view(np.int64)
    # empty docs still get one zero-length chunk row (hash 0) so every
    # doc appears in the output
    empty = np.flatnonzero(offs[:-1] == offs[1:])
    if len(empty):
        out_ids = np.concatenate([out_ids, ids[empty]])
        out_ch = np.concatenate([out_ch, np.zeros(len(empty), np.int64)])
    return pa.table({
        id_col: pa.array(out_ids),
        "ch": pa.array(out_ch),
    })


def cdc_shared_stats(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-doc CDC dedup stats: n_chunks and n_shared (chunk
    occurrences whose hash appears in >= 2 distinct docs). Two
    bucketed shuffles: hash-bucket the chunk stream by ch (every
    occurrence of a hash meets in exactly one bucket, so the
    distinct-doc count AND the per-doc partials come out of the same
    pass), then one small per-doc combine — never a corpus
    cross-product."""
    chunks = ds.map_batches(cdc_chunk_table, batch_format="pyarrow",
                            batch_size=4096,
                            fn_kwargs={"id_col": id_col,
                                       "text_col": text_col})

    def per_hash(b: pd.DataFrame) -> pd.DataFrame:
        nd = b.groupby("ch", sort=False)[id_col].nunique()
        shared = (b["ch"].map(nd).to_numpy(np.int64) >= 2).astype(np.int64)
        g = pd.DataFrame({id_col: b[id_col].to_numpy(np.int64),
                          "shared": shared}) \
            .groupby(id_col, sort=False)["shared"] \
            .agg(["count", "sum"]).reset_index()
        return pd.DataFrame({id_col: g[id_col].to_numpy(np.int64),
                             "pn": g["count"].to_numpy(np.int64),
                             "ps": g["sum"].to_numpy(np.int64)})

    part = bucketed_group_apply(chunks, ["ch"], per_hash)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(id_col, sort=False)[["pn", "ps"]].sum().reset_index()
        return pd.DataFrame({id_col: g[id_col].to_numpy(np.int64),
                             "n_chunks": g["pn"].to_numpy(np.int64),
                             "n_shared": g["ps"].to_numpy(np.int64)})

    return bucketed_group_apply(part, [id_col], fin)


# --- bigram language-model quality scoring -------------------------------

LM_SCALE = 1_000_000


def _explode_bigrams(batch: pa.Table, text_col: str,
                     id_col: str) -> pa.Table:
    """One batch → one row per consecutive space-split token pair
    (id, w1, w2), fully vectorized: one split_pattern kernel, then the
    pair mask is "every flat position except each doc's last token".
    The flat values/offsets trick mirrors words_exploded."""
    toks = pc.split_pattern(batch[text_col], " ")
    flat = (toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray) else toks)
    offs = np.asarray(flat.offsets)
    vals = flat.values
    n = len(vals)
    lens = offs[1:] - offs[:-1]
    keep = np.ones(max(n - 1, 0), bool)
    last = offs[1:] - 1              # last-token position per doc
    last = last[(lens > 0) & (last < n - 1)]
    keep[last] = False
    idx = np.nonzero(keep)[0]
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: pa.array(np.repeat(ids, np.maximum(lens - 1, 0))),
        "w1": vals.take(pa.array(idx, pa.int64())),
        "w2": vals.take(pa.array(idx + 1, pa.int64())),
    })


def bigrams_exploded(ds, text_col: str = "text", id_col: str = "doc_id"):
    """documents → the (id, w1, w2) pair table (see _explode_bigrams)."""
    return ds.map_batches(
        lambda b: _explode_bigrams(b, text_col, id_col),
        batch_format="pyarrow", batch_size=8192)


def bigram_model(pairs_ds, scale: int = LM_SCALE):
    """Train the conditional-frequency bigram model over an exploded
    pair table: r(w1,w2) = floor(C(w1,w2)·scale / C(w1)) with
    C(w1) = Σ_w2 C(w1,w2). One per-batch partial count, then ONE
    hash-bucketed combine keyed by w1 — the denominator is a
    groupby-transform inside the bucket, so no second shuffle or join
    is needed (all rows sharing w1 land in one bucket)."""
    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["w1", "w2"]).group_by(["w1", "w2"]) \
            .aggregate([([], "count_all")])
        return t.rename_columns(["w1", "w2", "pcnt"])

    parts = map_arrow(pairs_ds, partial)

    def per_bucket(b: pd.DataFrame) -> pd.DataFrame:
        g = (b.groupby(["w1", "w2"], sort=False)["pcnt"].sum()
             .reset_index(name="c12"))
        c1 = g.groupby("w1", sort=False)["c12"].transform("sum")
        g["r"] = (g["c12"].to_numpy(np.int64) * np.int64(scale)
                  ) // c1.to_numpy(np.int64)
        return g[["w1", "w2", "r"]]

    return bucketed_group_apply(parts, ["w1"], per_bucket)


def lm_score(ds, text_col: str = "text", id_col: str = "doc_id",
             scale: int = LM_SCALE):
    """Per-document bigram-LM quality score: the corpus trains its own
    conditional bigram model (self-scoring, the KenLM-style quality
    filter shape), then each doc scores Σ r(w1,w2) over its pairs —
    all int64, so the result is an exact DuckDB replay.

    ONE pass over the corpus: the exploded pairs are compressed to
    per-doc (w1, w2, c) counts batch-locally (doc-local grouping
    needs no shuffle), then a single w1-keyed hash-bucket pass BOTH
    trains the model slice (every global occurrence of a bucket's w1
    lands in that bucket, so C(w1,w2)/C(w1) are exact there) AND
    scores its rows via an in-bucket merge — no pair-table re-read,
    no large×large join. A final doc-keyed combine sums the bucket
    partials; docs with <2 tokens union in as (0, 0). Scale note:
    r ≤ scale=10^6 and scores are per-doc sums, so int64 holds to
    ~10^12 pairs per doc."""
    def doc_pairs(batch: pa.Table) -> pa.Table:
        t = _explode_bigrams(batch, text_col, id_col)
        g = t.group_by([id_col, "w1", "w2"]).aggregate(
            [([], "count_all")])
        g = g.rename_columns([id_col, "w1", "w2", "c"])
        # <2-token docs produce no pair; emit them here as null-w1
        # sentinel rows (a real token is never null) so the zeros
        # union doesn't need a SECOND corpus scan
        nt = pc.list_value_length(pc.split_pattern(batch[text_col],
                                                   " "))
        short = pc.filter(batch[id_col], pc.less(nt, 2))
        if len(short):
            z = pa.table({
                id_col: short,
                "w1": pa.array([None] * len(short), pa.string()),
                "w2": pa.array([None] * len(short), pa.string()),
                "c": pa.array(np.zeros(len(short), np.int64))})
            g = pa.concat_tables([g.cast(z.schema), z])
        return g

    tfp = ds.map_batches(doc_pairs, batch_format="pyarrow",
                         batch_size=8192)

    def per_w1_bucket(b: pd.DataFrame) -> pd.DataFrame:
        znull = b["w1"].isna()
        zeros = b[znull]
        b = b[~znull]
        if len(b) == 0:
            return pd.DataFrame({
                id_col: zeros[id_col].to_numpy(np.int64),
                "part_score": np.zeros(len(zeros), np.int64),
                "part_nb": np.zeros(len(zeros), np.int64)})
        m = (b.groupby(["w1", "w2"], sort=False)["c"].sum()
             .reset_index(name="c12"))
        c1 = m.groupby("w1", sort=False)["c12"].transform("sum")
        m["r"] = (m["c12"].to_numpy(np.int64) * np.int64(scale)
                  ) // c1.to_numpy(np.int64)
        j = b.merge(m[["w1", "w2", "r"]], on=["w1", "w2"], how="left")
        c = j["c"].to_numpy(np.int64)
        j["part_score"] = c * j["r"].to_numpy(np.int64)
        j["part_nb"] = c
        g = (j.groupby(id_col, sort=False)[["part_score", "part_nb"]]
             .sum())
        out = pd.DataFrame({
            id_col: g.index.to_numpy(np.int64),
            "part_score": g["part_score"].to_numpy(np.int64),
            "part_nb": g["part_nb"].to_numpy(np.int64)})
        if len(zeros):
            out = pd.concat([out, pd.DataFrame({
                id_col: zeros[id_col].to_numpy(np.int64),
                "part_score": np.zeros(len(zeros), np.int64),
                "part_nb": np.zeros(len(zeros), np.int64)})],
                ignore_index=True)
        return out

    parts = bucketed_group_apply(tfp, ["w1"], per_w1_bucket)

    def per_doc(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(id_col, sort=False)[["part_score", "part_nb"]].sum()
        return pd.DataFrame({
            id_col: g.index.to_numpy(np.int64),
            "lm_score": g["part_score"].to_numpy(np.int64),
            "n_bigrams": g["part_nb"].to_numpy(np.int64)})

    return bucketed_group_apply(parts, [id_col], per_doc)


def gopher_rules(batch: pa.Table, id_col: str = "doc_id",
                 text_col: str = "text") -> pa.Table:
    """The remaining Gopher §A.1 document-quality rules as exact
    integer predicates (complementing quality_funnel's length/
    stopword/repetition rules): mean-word-length bounds
    (3 ≤ mean ≤ 10 as cross-multiplications), stopword VARIETY
    (≥ 2 distinct stopwords present), and type-token ratio
    (distinct words ≥ half the tokens). Emits the signals plus 0/1
    flags; one split kernel + dictionary-encode per batch, per-doc
    distincts via a single lexsort run-length — no Python per row."""
    toks = pc.split_pattern(batch[text_col], " ")
    flat = (toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray) else toks)
    offs = np.asarray(flat.offsets)
    vals = flat.values
    lens = (offs[1:] - offs[:-1]).astype(np.int64)
    n = len(batch)
    doc = np.repeat(np.arange(n, dtype=np.int64), lens)
    enc = pc.dictionary_encode(vals)
    codes = np.asarray(enc.indices).astype(np.int64)

    def distinct_per_doc(d, c):
        if len(d) == 0:
            return np.zeros(n, np.int64)
        o = np.lexsort((c, d))
        d2, c2 = d[o], c[o]
        new = np.concatenate(
            ([True], (d2[1:] != d2[:-1]) | (c2[1:] != c2[:-1])))
        return np.bincount(d2[new], minlength=n).astype(np.int64)

    n_distinct = distinct_per_doc(doc, codes)
    stop_mask = pc.is_in(
        vals, value_set=pa.array(STOPWORDS)).to_numpy(
        zero_copy_only=False)
    n_stop_distinct = distinct_per_doc(doc[stop_mask],
                                       codes[stop_mask])
    n_alpha = (pc.utf8_length(batch[text_col]).to_numpy(
        zero_copy_only=False).astype(np.int64)
        - pc.count_substring(batch[text_col], " ").to_numpy(
        zero_copy_only=False).astype(np.int64))
    ok_wordlen = ((3 * lens <= n_alpha)
                  & (n_alpha <= 10 * lens)).astype(np.int64)
    ok_stopvariety = (n_stop_distinct >= 2).astype(np.int64)
    ok_ttr = (2 * n_distinct >= lens).astype(np.int64)
    return pa.table({
        id_col: pc.cast(batch[id_col], pa.int64()),
        "n_tokens": pa.array(lens),
        "n_distinct": pa.array(n_distinct),
        "n_stop_distinct": pa.array(n_stop_distinct),
        "ok_wordlen": pa.array(ok_wordlen),
        "ok_stopvariety": pa.array(ok_stopvariety),
        "ok_ttr": pa.array(ok_ttr)})


def _kmv_partial(batch: pa.Table, key_col: str, text_col: str,
                 k: int) -> pa.Table:
    """One batch's per-group KMV partial: the ``k`` smallest distinct
    mixed token hashes of each ``key_col`` group, as (key, h) rows."""
    col = batch[text_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    th, offs = _batch_token_hashes(arr)
    with np.errstate(over="ignore"):
        th = th * KMV_MIX
    keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    lens = offs[1:] - offs[:-1]
    g = np.repeat(keys, lens)
    if len(g) == 0:
        return pa.table({key_col: pa.array([], pa.int64()),
                         "h": pa.array([], pa.int64())})
    o = np.lexsort((th, g))
    g2, t2 = g[o], th[o]
    new = np.concatenate(
        ([True], (g2[1:] != g2[:-1]) | (t2[1:] != t2[:-1])))
    g2, t2 = g2[new], t2[new]
    # rank within group over the (sorted) distinct run
    starts = np.concatenate(([True], g2[1:] != g2[:-1]))
    sidx = np.nonzero(starts)[0]
    rank = np.arange(len(g2)) - np.repeat(
        sidx, np.diff(np.concatenate((sidx, [len(g2)]))))
    m = rank < k
    return pa.table({key_col: pa.array(g2[m]),
                     "h": pa.array(t2[m].view(np.int64))})


def kmv_distinct_by(ds, key_col: str, text_col: str = "text",
                    k: int = 256):
    """Per-GROUP approximate distinct-token counts via mergeable KMV
    sketches — the grouped-cardinality shape (distinct URLs per host,
    distinct tokens per language) that stays O(groups × k) through
    the shuffle instead of O(distinct values): each batch contributes
    per-group k-minima (one lexsort), a key-bucketed combine merges
    them. Same hash/mix/estimator contract as :func:`kmv_distinct`
    (exactly SQL-replayable); groups with fewer than k distinct
    hashes report the exact count with kth_hash = -1."""
    parts = ds.map_batches(_kmv_partial, batch_format="pyarrow",
                           batch_size=8192,
                           fn_kwargs={"key_col": key_col,
                                      "text_col": text_col, "k": k})

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, grp in b.groupby(key_col, sort=False):
            u = np.unique(grp["h"].to_numpy(np.int64).view(np.uint64))
            if len(u) < k:
                est, kth = float(len(u)), -1
            else:
                u = u[:k]
                est = (k - 1) * (2.0 ** 64) / float(u[k - 1])
                kth = int(u[k - 1].view(np.int64))
            out.append((key, est, kth, min(len(u), k)))
        return pd.DataFrame(out, columns=[key_col, "est", "kth_hash",
                                          "n_seen"])

    res = bucketed_group_apply(parts, [key_col], combine)
    return map_arrow(res, lambda b: pa.table({
        key_col: pc.cast(b[key_col], pa.int64()),
        "est": pc.cast(b["est"], pa.float64()),
        "kth_hash": pc.cast(b["kth_hash"], pa.int64()),
        "n_seen": pc.cast(b["n_seen"], pa.int64())}))

# ----------------------------------------------------- phrase search

def phrase_search(ds, phrase: list[str], id_col: str = "doc_id",
                  text_col: str = "text"):
    """Exact consecutive-token phrase retrieval (positional match).

    One vectorized scan: per batch the raw-buffer token-hash stream
    (:func:`_batch_token_hashes`) is probed for the phrase's first
    token and the k-1 following hashes are chain-compared in place —
    no postings shuffle, no per-row Python. A window only counts when
    it lies entirely inside one document (checked against the doc
    token offsets). Emits one row per matching doc: occurrence count
    and first token position (0-based).

    Scale note: for ONE phrase this scan moves strictly less data
    than building (term, doc, pos) postings; at repeated-query scale
    you materialize the postings once (same explode) and run the
    identical chain test on just the phrase terms' posting lists.
    Token equality is by 64-bit polynomial hash (collision odds
    ~2^-64 per comparison; the same hash the dedup family replays in
    SQL)."""
    ph = np.array([hash_token(w) for w in phrase], dtype=np.uint64)
    k = len(ph)
    if k == 0:
        raise ValueError("empty phrase")

    def scan(batch: pa.Table) -> pa.Table:
        arr = batch[text_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        th, tok_offs = _batch_token_hashes(arr)
        cand = np.flatnonzero(th == ph[0])
        cand = cand[cand + k <= len(th)]
        ok = np.ones(len(cand), bool)
        for j in range(1, k):
            ok &= th[cand + j] == ph[j]
        cand = cand[ok]
        doc = np.searchsorted(tok_offs, cand, "right") - 1
        inside = cand + k <= tok_offs[doc + 1]
        cand, doc = cand[inside], doc[inside]
        # cand ascending => per-doc first index is the minimal position
        ud, first_i, ncnt = np.unique(doc, return_index=True,
                                      return_counts=True)
        return pa.table({
            "doc_id": pa.array(ids[ud], pa.int64()),
            "n_matches": pa.array(ncnt.astype(np.int64)),
            "first_pos": pa.array(
                (cand[first_i] - tok_offs[ud]).astype(np.int64)),
        })

    return ds.map_batches(scan, batch_format="pyarrow", batch_size=8192)


def proximity_search(ds, term_a: str, term_b: str, window: int,
                     id_col: str = "doc_id", text_col: str = "text"):
    """Proximity retrieval: docs where TERM_A occurs within ``window``
    token positions of TERM_B (the other half of positional search,
    next to :func:`phrase_search`). Same single-scan raw-buffer
    machinery: per batch the token-hash stream yields the A and B
    position lists; each A's nearest B is found with ONE searchsorted
    (left/right neighbors checked, same-doc masked), so the cost is
    O(tokens + occ_A log occ_B) with zero per-row Python. Emits per
    doc the count of in-range A occurrences and the minimum
    token-index gap."""
    ha = np.uint64(hash_token(term_a))
    hb = np.uint64(hash_token(term_b))
    w = np.int64(window)
    INF = np.int64(1) << np.int64(62)

    def scan(batch: pa.Table) -> pa.Table:
        arr = batch[text_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        th, tok_offs = _batch_token_hashes(arr)
        pos_a = np.flatnonzero(th == ha).astype(np.int64)
        pos_b = np.flatnonzero(th == hb).astype(np.int64)
        empty = pa.table({
            "doc_id": pa.array(np.empty(0, np.int64)),
            "n_matches": pa.array(np.empty(0, np.int64)),
            "min_gap": pa.array(np.empty(0, np.int64))})
        if not len(pos_a) or not len(pos_b):
            return empty
        doc_a = np.searchsorted(tok_offs, pos_a, "right") - 1
        doc_b = np.searchsorted(tok_offs, pos_b, "right") - 1
        j = np.searchsorted(pos_b, pos_a)
        jr = np.minimum(j, len(pos_b) - 1)
        gap_r = np.where((j < len(pos_b)) & (doc_b[jr] == doc_a),
                         pos_b[jr] - pos_a, INF)
        jl = np.maximum(j - 1, 0)
        gap_l = np.where((j > 0) & (doc_b[jl] == doc_a),
                         pos_a - pos_b[jl], INF)
        gap = np.minimum(gap_l, gap_r)
        m = gap <= w
        if not m.any():
            return empty
        d, g = doc_a[m], gap[m]
        # doc_a is nondecreasing (positions ascend) -> unique gives runs
        ud, first_i = np.unique(d, return_index=True)
        cnt = np.diff(np.r_[first_i, len(d)])
        return pa.table({
            "doc_id": pa.array(ids[ud]),
            "n_matches": pa.array(cnt.astype(np.int64)),
            "min_gap": pa.array(np.minimum.reduceat(g, first_i)
                                .astype(np.int64))})

    return ds.map_batches(scan, batch_format="pyarrow", batch_size=8192)

# ------------------------------------------------- HyperLogLog sketch

HLL_LOG2M = 6            # 64 registers
HLL_RHO_CAP = 56         # register ceiling: keeps Σ 2^(cap-M) ≤ 2^62
HLL_ALPHA_NUM, HLL_ALPHA_DEN = 709, 1000   # α₆₄ ≈ 0.709 as a rational


def hll_distinct_by(ds, key_col: str, text_col: str = "text"):
    """Per-group HyperLogLog distinct-token estimate (Flajolet et al.
    2007) with FIXED per-group state: 64 six-bit registers, vs KMV's
    k hashes — the sketch whose merge is a plain elementwise MAX, so
    any tree/shuffle combine order gives the identical registers.
    Registers use the trailing-zero rank of the KMV-mixed token hash
    (exact integer ops on both sides; no float log anywhere): the
    low 6 bits pick the register, ρ = tz(hash >> 6) + 1 capped at 56.
    The estimate is the classic α·m²/Σ2^(−M_r) computed as ONE exact
    integer division (α as 709/1000, the sum scaled by 2^56), so the
    whole sketch — partials, merge, finalize — replays bit-exactly in
    DuckDB HUGEINT. Shuffle payload: ≤ 64 rows per (group, batch).

    This is the RAW estimator (no linear-counting small-range
    correction — that needs a transcendental ln, which would break
    the bit-exact SQL replay): accurate to ~13% for n ≳ 3m distinct
    values, biased high below that; use kmv_distinct_by when groups
    can be tiny."""
    m = 1 << HLL_LOG2M

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, offs = _batch_token_hashes(arr)
        with np.errstate(over="ignore"):
            th = th * KMV_MIX
        keys = batch[key_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = np.repeat(keys, offs[1:] - offs[:-1])
        if len(g) == 0:
            return pa.table({key_col: pa.array([], pa.int64()),
                             "reg": pa.array([], pa.int64()),
                             "mr": pa.array([], pa.int64())})
        tb = (th & np.uint64((1 << 63) - 1)).astype(np.int64)
        reg = tb & np.int64(m - 1)
        rest = tb >> np.int64(HLL_LOG2M)
        low = rest & -rest               # lowest set bit (0 if rest==0)
        # frexp on an exact power of two returns (0.5, tz+1) — pure
        # integer semantics, no log2 rounding hazard
        _, expo = np.frexp(low.astype(np.float64))
        rho = np.where(rest == 0, np.int64(HLL_RHO_CAP),
                       np.minimum(expo.astype(np.int64),
                                  np.int64(HLL_RHO_CAP)))
        comp = g * np.int64(m) + reg
        uc, inv = np.unique(comp, return_inverse=True)
        mr = np.zeros(len(uc), np.int64)
        np.maximum.at(mr, inv, rho)
        return pa.table({key_col: pa.array(uc // m),
                         "reg": pa.array(uc % m),
                         "mr": pa.array(mr)})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=8192)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, grp in b.groupby(key_col, sort=False):
            mx = grp.groupby("reg")["mr"].max()
            # Python-int arithmetic: Σ over ALL m registers (absent
            # register → M=0 → 2^cap), then one exact floor division
            s = sum(1 << (HLL_RHO_CAP - int(v)) for v in mx) \
                + (m - len(mx)) * (1 << HLL_RHO_CAP)
            est = (HLL_ALPHA_NUM * m * m * (1 << HLL_RHO_CAP)) \
                // (HLL_ALPHA_DEN * s)
            out.append((key, est, len(mx)))
        return pd.DataFrame(out, columns=[key_col, "est", "n_regs"])

    res = bucketed_group_apply(parts, [key_col], finalize)
    return map_arrow(res, lambda b: pa.table({
        key_col: pc.cast(b[key_col], pa.int64()),
        "est": pc.cast(b["est"], pa.int64()),
        "n_regs": pc.cast(b["n_regs"], pa.int64())}))


# --------------------------------------------------- edit-distance-1 join

_FP_PINV = np.uint64(pow(int(_FP_P), -1, 1 << 64))  # P odd -> invertible


def edit1_keys(arr: pa.Array):
    """SymSpell-style candidate keys for an edit-distance-<=1 self-join:
    for each string s, the polynomial hash of s itself plus the hash of
    every single-character deletion of s. Two strings with
    levenshtein <= 1 ALWAYS share a key (equal -> same full hash;
    deletion -> the shorter IS a deletion of the longer; substitution
    -> deleting the substituted position from both yields the same
    string); sharing a key does NOT imply distance <= 1 (e.g. 'ab' /
    'ba'), so candidates must be verified (see lev1_mask). Fully
    vectorized over the raw Arrow buffer: the deletion hash at
    position i is pref_w(i)*P^-1 + (H - pref_w(i) - s[i]*P^(L-1-i))
    where pref_w is the within-row exclusive prefix of the full-hash
    terms — one cumsum over the flat byte buffer, zero Python per row.

    Returns (keys uint64, row_idx int64): one key row per (string,
    position) plus one per string."""
    n = len(arr)
    buf, offs = _string_buffer(arr)
    lens = offs[1:] - offs[:-1]
    if n == 0 or int(lens.sum()) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    total = int(lens.sum())
    row = np.repeat(np.arange(n, dtype=np.int64), lens)
    base = np.concatenate(([0], np.cumsum(lens)[:-1]))
    pos = np.arange(total, dtype=np.int64) - np.repeat(base, lens)
    exp = np.repeat(lens, lens) - 1 - pos
    src = np.repeat(offs[:-1], lens) + pos
    pw = _fp_powers(int(lens.max()) + 1)
    with np.errstate(over="ignore"):
        vals = buf[src].astype(np.uint64) * pw[exp]
        cum = np.cumsum(vals)
        # within-row EXCLUSIVE prefix of the weighted terms
        pref = cum - vals
        row_start = np.repeat(cum[base] - vals[base], lens)
        pref = pref - row_start
        full = np.add.reduceat(vals, base).astype(np.uint64)
        # reduceat yields vals[base[i]] (not 0) when row i is empty —
        # zero those so "" hashes to 0 == the deletion hash any
        # 1-char string emits (keeps ("", "x") pairs candidate-complete)
        full[lens == 0] = np.uint64(0)
        del_keys = pref * _FP_PINV + (np.repeat(full, lens) - pref - vals)
    keys = np.concatenate([full, del_keys])
    rows = np.concatenate([np.arange(n, dtype=np.int64), row])
    return keys, rows


def lev1_mask(aa: pa.Array, bb: pa.Array) -> np.ndarray:
    """Vectorized exact levenshtein(a,b) <= 1 verify for candidate
    pairs: same length -> Hamming <= 1 (an edit-distance-1 edit
    between equal-length strings must be a substitution); length
    diff 1 -> longest-common-prefix + longest-common-suffix >= the
    shorter length (the single-deletion criterion); anything else ->
    False. Works on zero-padded byte matrices (padding bytes compare
    equal on both sides, so they never add mismatches)."""
    la_off = _string_buffer(aa)
    lb_off = _string_buffer(bb)
    bufa, offa = la_off
    bufb, offb = lb_off
    la = offa[1:] - offa[:-1]
    lb = offb[1:] - offb[:-1]
    n = len(la)
    if n == 0:
        return np.zeros(0, bool)
    W = int(max(la.max(), lb.max()))
    pos = np.arange(W, dtype=np.int64)

    def left_mat(buf, offs, lens):
        idx = offs[:-1, None] + pos[None, :]
        valid = pos[None, :] < lens[:, None]
        m = np.zeros((len(lens), W), np.uint8)
        m[valid] = buf[idx[valid]]
        return m

    def right_mat(buf, offs, lens):
        idx = offs[1:, None] - W + pos[None, :]
        valid = pos[None, :] >= W - lens[:, None]
        m = np.zeros((len(lens), W), np.uint8)
        m[valid] = buf[idx[valid]]
        return m

    A, B = left_mat(bufa, offa, la), left_mat(bufb, offb, lb)
    mm = A != B
    ham = mm.sum(axis=1)
    same = la == lb
    ok = same & (ham <= 1)
    d1 = np.abs(la - lb) == 1
    if d1.any():
        anym = mm.any(axis=1)
        prefix = np.where(anym, mm.argmax(axis=1), W)
        Ar, Br = right_mat(bufa, offa, la), right_mat(bufb, offb, lb)
        mr = (Ar != Br)[:, ::-1]
        anyr = mr.any(axis=1)
        suffix = np.where(anyr, mr.argmax(axis=1), W)
        ok |= d1 & (prefix + suffix >= np.minimum(la, lb))
    return ok


def edit1_pairs(ds, str_col: str):
    """Distributed edit-distance-<=1 self-join over the DISTINCT values
    of ``str_col`` (the typo-squat / near-URL detection shape): explode
    SymSpell deletion keys (edit1_keys), co-locate per key, emit
    candidate pairs within equal-key runs (canonical a < b string
    order), dedup pairs once, verify with the exact vectorized
    lev<=1 kernel. Strings ride the key rows — right for SHORT keys
    like URLs/words (<= ~100B); for long payloads pair ids instead
    and attach the payloads once, after the pair dedup, with
    _attach_pair_texts (one broadcast lookup of the candidates'
    payloads). Returns (a, b) string pairs."""
    def explode(batch: pa.Table) -> pd.DataFrame:
        arr = batch[str_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        # batch-local distinct first: keys per string ~ len(s)
        arr = pc.unique(arr)
        keys, rows = edit1_keys(arr)
        s = arr.to_pandas()
        return pd.DataFrame({"key": keys.view(np.int64),
                             "s": s.iloc[rows].to_numpy()})

    kd = ds.map_batches(explode, batch_format="pyarrow", batch_size=8192)

    def per_key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates(["key", "s"])
        b = b.sort_values(["key", "s"], kind="stable")
        k = b["key"].to_numpy(np.int64)
        s = b["s"].to_numpy()
        outs = []
        d = 1
        while True:
            msk = k[d:] == k[:-d]
            if not msk.any():
                break
            outs.append((s[:-d][msk], s[d:][msk]))
            d += 1
        if not outs:
            return pd.DataFrame({"a": np.empty(0, object),
                                 "b": np.empty(0, object)})
        df = pd.DataFrame({"a": np.concatenate([o[0] for o in outs]),
                           "b": np.concatenate([o[1] for o in outs])})
        return df.drop_duplicates()

    cand = bucketed_group_apply(kd, ["key"], per_key)

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates(["a", "b"])

    pairs = bucketed_group_apply(cand, ["a", "b"], dedup)

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["a"].combine_chunks() if isinstance(
            batch["a"], pa.ChunkedArray) else batch["a"]
        b = batch["b"].combine_chunks() if isinstance(
            batch["b"], pa.ChunkedArray) else batch["b"]
        keep = pa.array(lev1_mask(a, b))
        return pa.table({"a": a.filter(keep), "b": b.filter(keep)})

    return map_arrow(pairs, verify)


def kmv_sketch_by(ds, key_col: str, text_col: str = "text", k: int = 16):
    """Per-group KMV sketch TABLE — the k smallest distinct mixed
    token hashes per group, as rows (key, h) — the mergeable-state
    form of :func:`kmv_distinct_by` (same hash/mix contract, exactly
    SQL-replayable). Set algebra on sketches (union / intersection /
    Jaccard between groups) composes from these rows; the table is
    O(groups × k) regardless of corpus size."""
    parts = ds.map_batches(_kmv_partial, batch_format="pyarrow",
                           batch_size=8192,
                           fn_kwargs={"key_col": key_col,
                                      "text_col": text_col, "k": k})

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, grp in b.groupby(key_col, sort=False):
            u = np.unique(grp["h"].to_numpy(np.int64).view(np.uint64))[:k]
            out.append(pd.DataFrame({key_col: np.full(len(u), key,
                                                      np.int64),
                                     "h": u.view(np.int64)}))
        if not out:
            return pd.DataFrame({key_col: np.empty(0, np.int64),
                                 "h": np.empty(0, np.int64)})
        return pd.concat(out, ignore_index=True)

    return bucketed_group_apply(parts, [key_col], combine)


DSIR_BUCKETS = 256
DSIR_SCALE = 16384


def dsir_importance(ds, target_langs=("en",), buckets: int = DSIR_BUCKETS,
                    scale: int = DSIR_SCALE, id_col: str = "doc_id",
                    text_col: str = "text", lang_col: str = "lang"):
    """DSIR-style importance weights (Xie et al. 2023, Data Selection
    via Importance Resampling): score each raw document by how much it
    resembles a TARGET distribution, via hashed token-bucket frequency
    ratios. Two streaming passes:

    pass 1 — per-batch bucket counts (target vs raw), pre-aggregated
    inside map_batches to a ``buckets``-row partial, folded on the
    driver (batches-bounded, never corpus-bounded);
    pass 2 — a broadcast ``w[buckets]`` integer weight table scores
    every doc with one ``reduceat`` over its token run.

    The weight is the add-one-smoothed frequency ratio cleared of
    divisions: ``w[b] = scale*(ct[b]+1)*Nr // ((cr[b]+1)*Nt)`` with
    ``Nt/Nr`` the smoothed token totals — exact integers, so the SQL
    oracle hash-matches (DSIR's log-ratio replaced by the ratio
    itself; ranking is monotone within a doc-length class). Returns
    (id, dsir_score, n_tokens)."""
    import ray

    from pythongis_ray import state

    def count_partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        ntok = np.diff(tok_offs)
        is_t = pc.is_in(batch[lang_col],
                        value_set=pa.array(list(target_langs))) \
            .to_numpy(zero_copy_only=False)
        tok_t = np.repeat(is_t, ntok)
        bkt = (th % np.uint64(buckets)).astype(np.int64)
        ct = np.bincount(bkt[tok_t], minlength=buckets)
        cr = np.bincount(bkt, minlength=buckets)
        return pa.table({"b": pa.array(np.arange(buckets, dtype=np.int64)),
                         "ct": pa.array(ct.astype(np.int64)),
                         "cr": pa.array(cr.astype(np.int64))})

    parts = ds.select_columns([text_col, lang_col]) \
        .map_batches(count_partial, batch_format="pyarrow",
                     batch_size=8192).to_pandas()
    tot = parts.groupby("b", sort=True)[["ct", "cr"]].sum()
    ct = tot["ct"].to_numpy(np.int64)
    cr = tot["cr"].to_numpy(np.int64)
    nt = int(ct.sum()) + buckets
    nr = int(cr.sum()) + buckets
    # exact Python-int weights (no int64 overflow at any corpus size)
    w = np.array([scale * (int(c) + 1) * nr // ((int(r) + 1) * nt)
                  for c, r in zip(ct, cr)], np.int64)
    wref = ray.put(w)

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "dsir_score": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64())})
        wa = state.get_broadcast(wref, key_extra=("dsir",))
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        bkt = (th % np.uint64(buckets)).astype(np.int64)
        tw = wa[bkt]
        ntok = np.diff(tok_offs)
        sc = np.add.reduceat(tw, tok_offs[:-1])
        sc[ntok == 0] = 0
        return pa.table({id_col: pc.cast(batch[id_col], pa.int64()),
                         "dsir_score": pa.array(sc.astype(np.int64)),
                         "n_tokens": pa.array(ntok.astype(np.int64))})

    return ds.select_columns([id_col, text_col]) \
        .map_batches(score, batch_format="pyarrow", batch_size=8192)


def nb_classify(ds, label_col: str = "lang", buckets: int = DSIR_BUCKETS,
                scale: int = DSIR_SCALE, id_col: str = "doc_id",
                text_col: str = "text"):
    """fastText-style hashed linear classifier (the lang-ID / quality-
    filter slot): train per-class token-bucket weights on the corpus's
    own labels, then score every doc against every class and argmax.

    Same two-pass streaming shape as :func:`dsir_importance` but with
    one weight row per class: pass 1 folds per-(class, bucket) token
    counts (each batch emits at most n_classes*buckets pre-aggregated
    rows); pass 2 broadcasts the (L, buckets) int64 weight matrix and
    scores a batch with ONE axis-1 reduceat, argmax with ties going to
    the lexicographically smallest class label.

    Per-class weight is the class-conditional frequency ratio with
    cleared denominators (all exact integers, so the DuckDB replay
    hash-matches): ``w_L[b] = scale*(c_L[b]+1)*Nr // ((cr[b]+1)*Nt_L)``
    where ``Nt_L = sum_b c_L + buckets`` and ``Nr = sum_b cr +
    buckets``. Returns (id, label, pred_label)."""
    import pandas as pd
    import ray

    from pythongis_ray import state

    def count_partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        ntok = np.diff(tok_offs)
        labs = batch[label_col].to_pandas().to_numpy(object)
        codes, uniq = pd.factorize(np.repeat(labs, ntok))
        bkt = (th % np.uint64(buckets)).astype(np.int64)
        c = np.bincount(codes * buckets + bkt,
                        minlength=len(uniq) * buckets)
        return pa.table({
            "lab": pa.array(np.repeat(uniq, buckets)),
            "b": pa.array(np.tile(np.arange(buckets, dtype=np.int64),
                                  len(uniq))),
            "c": pa.array(c.astype(np.int64))})

    parts = ds.select_columns([text_col, label_col]) \
        .map_batches(count_partial, batch_format="pyarrow",
                     batch_size=8192).to_pandas()
    tot = parts.groupby(["lab", "b"], sort=True)["c"].sum().unstack(
        fill_value=0).reindex(columns=range(buckets), fill_value=0)
    labs = list(tot.index)           # sorted class labels
    cl = tot.to_numpy(np.int64)      # (L, buckets)
    cr = cl.sum(axis=0)
    nr = int(cr.sum()) + buckets
    ntl = cl.sum(axis=1) + buckets   # (L,)
    w = np.array([[scale * (int(c) + 1) * nr // ((int(r) + 1) * int(n))
                   for c, r in zip(crow, cr)]
                  for crow, n in zip(cl, ntl)], np.int64)
    wref = ray.put((labs, w))

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             label_col: pa.array([], pa.string()),
                             "pred_" + label_col: pa.array([], pa.string())})
        labs_w, wa = state.get_broadcast(wref, key_extra=("nbcls",))
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        bkt = (th % np.uint64(buckets)).astype(np.int64)
        # (L, n_docs) class scores in one pass; ties -> first (lowest
        # label, matching SQL ORDER BY s DESC, cand ASC)
        sc = np.add.reduceat(wa[:, bkt], tok_offs[:-1], axis=1)
        pred = np.asarray(labs_w, object)[np.argmax(sc, axis=0)]
        return pa.table({id_col: pc.cast(batch[id_col], pa.int64()),
                         label_col: batch[label_col],
                         "pred_" + label_col: pa.array(pred, pa.string())})

    return ds.select_columns([id_col, text_col, label_col]) \
        .map_batches(score, batch_format="pyarrow", batch_size=8192)


def dup_shingle_stats(ds, k: int = MH_SHINGLE_K, id_col: str = "doc_id",
                      text_col: str = "text"):
    """Exact duplicated-substring contamination stats (the measure
    behind Lee et al. 2022, "Deduplicating Training Data Makes
    Language Models Better"): per document, how many of its k-token
    shingle positions carry a shingle that also appears in at least
    one OTHER document.

    Three streaming stages, two hash shuffles (both inherent — dup
    detection is corpus-global): (1) map-side explode to per-(doc,
    shingle) multiplicity rows (one lexsort per batch, no Python per
    row); (2) bucketed group by shingle flags cross-doc duplicates
    in place; (3) bucketed group by doc folds multiplicities back to
    (doc_id, n_shingles, n_dup). No stage is corpus-bounded on the
    driver. Shingle identity is the 64-bit rolling hash of token
    hashes (collision odds ~n^2/2^65)."""
    import pandas as pd

    def explode(batch: pa.Table) -> pd.DataFrame:
        if batch.num_rows == 0:
            return pd.DataFrame({"doc_id": np.array([], np.int64),
                                 "s": np.array([], np.int64),
                                 "m": np.array([], np.int64)})
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs, k)
        ids = pc.cast(batch[id_col], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        did = np.repeat(ids, np.diff(sh_offs))
        s = sh.view(np.int64)
        order = np.lexsort((s, did))
        dd, ss = did[order], s[order]
        new = np.concatenate(([True],
                              (dd[1:] != dd[:-1]) | (ss[1:] != ss[:-1])))
        starts = np.flatnonzero(new)
        m = np.diff(np.concatenate((starts, [len(ss)])))
        return pd.DataFrame({"doc_id": dd[starts], "s": ss[starts],
                             "m": m.astype(np.int64)})

    pairs = ds.select_columns([id_col, text_col]) \
        .map_batches(explode, batch_format="pyarrow", batch_size=4096)

    def flag_dups(g: pd.DataFrame) -> pd.DataFrame:
        # rows are per (doc, shingle), so group size == n distinct docs
        nd = g.groupby("s")["doc_id"].transform("size").to_numpy()
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                             "m": g["m"].to_numpy(),
                             "dm": g["m"].to_numpy() * (nd >= 2)})

    flagged = bucketed_group_apply(pairs, ["s"], flag_dups)

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", sort=False).agg(
            n_shingles=("m", "sum"), n_dup=("dm", "sum")).reset_index()
        return out.astype(np.int64)

    return bucketed_group_apply(flagged, ["doc_id"], per_doc)


CHUNK_W = 64
CHUNK_T = 48


def chunk_tokens(ds, window: int = CHUNK_W, stride: int = CHUNK_T,
                 id_col: str = "doc_id", text_col: str = "text"):
    """RAG-prep chunking: overlapping token windows (chunk i covers
    tokens [i*stride, min(i*stride+window, ntok)), included while
    i*stride < ntok) with a replayable 64-bit rolling hash of each
    chunk's token-hash run (fold acc*P + th mod 2^64, P = 1000003 —
    the shingle fold). Fully vectorized across the batch: one
    window-bounded fold loop of `window` vectorized steps, no Python
    per row. Returns (id, chunk_id, start_tok, n_tokens,
    chunk_hash)."""

    def chunks(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "chunk_id": pa.array([], pa.int64()),
                             "start_tok": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "chunk_hash": pa.array([], pa.int64())})
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        th, tok_offs = _batch_token_hashes(arr)
        ntok = np.diff(tok_offs)
        nch = (ntok + stride - 1) // stride      # i*stride < ntok
        ids = pc.cast(batch[id_col], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(ntok), dtype=np.int64), nch)
        coffs = np.concatenate(([0], np.cumsum(nch)))
        cid = np.arange(int(nch.sum()), dtype=np.int64) \
            - np.repeat(coffs[:-1], nch)
        start = cid * stride
        wlen = np.minimum(ntok[doc_of] - start, window)
        base = tok_offs[:-1][doc_of] + start
        h = np.zeros(len(cid), np.uint64)
        with np.errstate(over="ignore"):
            for j in range(window):
                m = j < wlen
                if not m.any():
                    break
                h[m] = h[m] * _SH_P + th[base[m] + j]
        return pa.table({id_col: pa.array(ids[doc_of]),
                         "chunk_id": pa.array(cid),
                         "start_tok": pa.array(start),
                         "n_tokens": pa.array(wlen.astype(np.int64)),
                         "chunk_hash": pa.array(h.view(np.int64))})

    return ds.select_columns([id_col, text_col]) \
        .map_batches(chunks, batch_format="pyarrow", batch_size=8192)


def common_span_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      max_hamming: int = 8):
    """Plagiarism-span measure: for every SimHash near-dup candidate
    pair, the length of the LONGEST COMMON CONSECUTIVE TOKEN RUN
    (diagonal islands over the (i, j) token-match grid). Candidates
    come from :func:`simhash_dedup_pairs`; texts re-attach through
    the broadcast-id streaming semi-join; the per-pair grid is
    match-sparse (positions found by one sorted searchsorted pass,
    runs by one lexsort) — pairs with no shared token are dropped,
    matching the oracle's inner join. Returns (id_a, id_b,
    lcs_run)."""
    pairs = simhash_dedup_pairs(ds, id_col=id_col, text_col=text_col,
                                max_hamming=max_hamming)
    joined = _attach_pair_texts(pairs, ds, id_col, text_col)
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                        ("lcs_run", pa.int64())])
    if joined is None:
        import ray.data as rd
        return rd.from_arrow(schema.empty_table())

    def spans(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        ca = batch["text_a"].combine_chunks() \
            if isinstance(batch["text_a"], pa.ChunkedArray) \
            else batch["text_a"]
        cb = batch["text_b"].combine_chunks() \
            if isinstance(batch["text_b"], pa.ChunkedArray) \
            else batch["text_b"]
        tha, offa = _batch_token_hashes(ca)
        thb, offb = _batch_token_hashes(cb)
        ia = pc.cast(batch["id_a"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ib = pc.cast(batch["id_b"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        out_a, out_b, out_l = [], [], []
        for r in range(batch.num_rows):
            A = tha[offa[r]:offa[r + 1]]
            B = thb[offb[r]:offb[r + 1]]
            order = np.argsort(B, kind="stable")
            Bs = B[order]
            lo = np.searchsorted(Bs, A, "left")
            hi = np.searchsorted(Bs, A, "right")
            cnt = hi - lo
            tot = int(cnt.sum())
            if tot == 0:
                continue
            i_idx = np.repeat(np.arange(len(A), dtype=np.int64), cnt)
            flat = np.concatenate([np.arange(l, h)
                                   for l, h in zip(lo, hi) if h > l])
            j_idx = order[flat]
            d = i_idx - j_idx
            o2 = np.lexsort((i_idx, d))
            ds_, is_ = d[o2], i_idx[o2]
            newrun = np.concatenate(([True],
                                     (ds_[1:] != ds_[:-1])
                                     | (is_[1:] != is_[:-1] + 1)))
            rid = np.cumsum(newrun)
            runlen = np.bincount(rid)
            out_a.append(int(ia[r]))
            out_b.append(int(ib[r]))
            out_l.append(int(runlen.max()))
        return pa.table({"id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64()),
                         "lcs_run": pa.array(out_l, pa.int64())})

    return rel.with_empty_schema(
        joined.map_batches(spans, batch_format="pyarrow",
                           batch_size=1024), schema)


def ppjoin_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                 threshold: float = 0.4):
    """Prefix-filtered set-similarity self-join (AllPairs / PPJoin,
    Bayardo et al. WWW'07, Xiao et al. WWW'08) over 5-token shingle
    sets — the classic sparse alternative to LSH for Jaccard >= t.

    Candidate generation differs from :func:`ngram_jaccard_pairs`
    (which indexes EVERY shingle): under a global rarest-first order
    (document frequency asc, shingle hash tiebreak), a doc with n
    distinct shingles only indexes its first ``p = n - ceil(t*n) + 1``
    shingles. Any pair with Jaccard >= t has overlap >= ceil(t*max(na,
    nb)), so it must collide inside both prefixes — completeness holds
    for ANY common total order; df-ascending merely makes the indexed
    lists short (rare shingles first). Buckets also apply the length
    filter min(na,nb) >= t*max(na,nb) before emitting a pair.

    Distribution: shingle explode (vectorized raw-buffer hashing) →
    df count (one hash-bucketed combine over the shingle table) →
    partitioned join re-attaching df → per-doc prefix select (one
    doc-keyed co-location) → per-shingle candidate pairs → exact
    verify on the texts of the tiny candidate set. Nothing touches
    the driver except the candidate pairs.
    """
    t_ppm = int(round(threshold * 1_000_000))

    def explode(batch: pa.Table) -> pd.DataFrame:
        col = batch[text_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        th, tok_offs = _batch_token_hashes(arr)
        sh, sh_offs = _batch_shingles(th, tok_offs)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(ids)), np.diff(sh_offs))
        df = pd.DataFrame({"sh": sh.view(np.int64), id_col: ids[doc_of]})
        df = df.drop_duplicates()
        df["n"] = df.groupby(id_col, sort=False)["sh"] \
            .transform("size").to_numpy(np.int64)
        return df

    toks = ds.map_batches(explode, batch_format="pyarrow", batch_size=4096)
    toks = toks.materialize()  # consumed twice (df count + join)

    def count_df(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("sh", sort=False).size()
        return pd.DataFrame({"sh": c.index.to_numpy(np.int64),
                             "df": c.to_numpy(np.int64)})

    dfreq = rel.bucketed_group_apply(toks.select_columns(["sh"]),
                                     ["sh"], count_df)
    joined = rel.join_large(toks, dfreq, on="sh")

    def prefix(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "df", "sh"], kind="stable")
        r = g.groupby(id_col, sort=False).cumcount().to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        p = n - (-((-t_ppm * n) // 1_000_000)) + 1
        return g.loc[r < p, ["sh", id_col, "n"]]

    pref = rel.bucketed_group_apply(joined, [id_col], prefix)

    def bucket_pairs(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b.duplicated(subset=["sh"], keep=False)]
        outs = []
        for _, g in b.groupby("sh", sort=False):
            g = g.drop_duplicates(subset=[id_col])
            if len(g) < 2:
                continue
            ids = g[id_col].to_numpy(np.int64)
            ns = g["n"].to_numpy(np.int64)
            o = np.argsort(ids)
            ids, ns = ids[o], ns[o]
            ia, ib = np.triu_indices(len(ids), k=1)
            na, nb = ns[ia], ns[ib]
            keep = (np.minimum(na, nb) * 1_000_000
                    >= t_ppm * np.maximum(na, nb))
            outs.append(pd.DataFrame({"id_a": ids[ia][keep],
                                      "id_b": ids[ib][keep]}))
        if not outs:
            return pd.DataFrame({"id_a": np.empty(0, np.int64),
                                 "id_b": np.empty(0, np.int64)})
        return pd.concat(outs, ignore_index=True)

    cand = rel.bucketed_group_apply(pref, ["sh"], bucket_pairs)
    cand = rel.dedup(cand, ["id_a", "id_b"])
    cand = _attach_pair_texts(cand, ds, id_col, text_col)
    if cand is None:
        import ray.data as _rd
        return _rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        ja = np.array([jaccard_shingles(a, b) for a, b in
                       zip(batch["text_a"], batch["text_b"])], np.float64)
        keep = ja >= threshold
        return pd.DataFrame({
            "id_a": batch["id_a"].to_numpy()[keep],
            "id_b": batch["id_b"].to_numpy()[keep],
            "jaccard": ja[keep],
        })

    return cand.map_batches(verify, batch_format="pandas", batch_size=4096)


def containment_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      threshold_ppm: int = 800_000):
    """Asymmetric shingle-set CONTAINMENT self-join: ordered pairs
    (a, b) with |Sa ∩ Sb| >= t·|Sa| — the subset-duplicate detector
    (page a is mostly inside page b: boilerplate supersets, quote
    farms, wrapper pages) that symmetric Jaccard misses when the
    container is much larger. Broder's containment measure beside
    resemblance (SEQUENCES '97). Same inverted-index candidate plan
    as ngram_jaccard_pairs (pairs sharing >= 1 shingle — complete for
    any t > 0 since containment > 0 implies a shared shingle), but
    pairs are emitted in BOTH orders and verified against the exact
    integer containment in ppm."""
    bands = ds.map_batches(_doc_shingles, batch_format="pyarrow",
                           batch_size=4096,
                           fn_kwargs={"id_col": id_col, "text_col": text_col})

    def bucket_pairs(b: pd.DataFrame) -> pd.DataFrame:
        p = _bucket_pairs(b, ["sh"], id_col)[0]
        return pd.DataFrame({
            "id_a": np.concatenate([p["id_a"], p["id_b"]]),
            "id_b": np.concatenate([p["id_b"], p["id_a"]])})

    cand = rel.bucketed_group_apply(bands, ["sh"], bucket_pairs)
    cand = rel.dedup(cand, ["id_a", "id_b"])
    cand = _attach_pair_texts(cand, ds, id_col, text_col)
    if cand is None:
        import ray.data as _rd
        return _rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cont_ppm": pa.array([], pa.int64())}))

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_c = [], [], []
        for a_id, b_id, ta, tb in zip(batch["id_a"], batch["id_b"],
                                      batch["text_a"], batch["text_b"]):
            sa, sb = shingle_set(ta), shingle_set(tb)
            cont = len(sa & sb) * 1_000_000 // len(sa)
            if cont >= threshold_ppm:
                out_a.append(int(a_id))
                out_b.append(int(b_id))
                out_c.append(cont)
        return pd.DataFrame({"id_a": np.array(out_a, np.int64),
                             "id_b": np.array(out_b, np.int64),
                             "cont_ppm": np.array(out_c, np.int64)})

    return cand.map_batches(verify, batch_format="pandas", batch_size=4096)
