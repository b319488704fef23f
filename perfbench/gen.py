"""Seeded input generator: writes an sf-shaped directory.

``generate(out_dir, seed, n_docs)`` writes

* ``documents.parquet`` -- (doc_id, text, lang, source, n_chars), the
  schema of the test data's ``documents`` table;
* ``nation.parquet`` -- the 25 fixed nations that
  ``fixtures.zones_from_nation`` turns into the 5x5 zone rectangles.

Everything is drawn from one ``numpy`` generator seeded with ``seed``,
so the same seed gives byte-identical files. Document ids are a seeded
sample of ``[0, 8 * n_docs)``; page ids (and so the geocoded positions,
which are a pure function of the page id) therefore move with the seed.

The corpus carries what the dedup pipeline has to find:

* planted exact duplicates (a copied text under a new id);
* near-duplicate clusters of 2..64 members, each member its base text
  with one token substituted (pairwise 5-shingle Jaccard >= ~0.6, far
  above the 0.5 threshold, so MinHash-LSH recall is not the question);
* documents below the 5% stopword quality bar;
* e-mail, phone and IP tokens for the PII scrub.

Generation runs in this one process; pyarrow is limited to ``nproc``
threads by the caller.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "on", "for", "with")
LANGS = ("en", "zh", "es", "fr", "de")
LANG_P = (0.41, 0.15, 0.15, 0.15, 0.14)
_SYL = ("ka", "ro", "mi", "tel", "san", "vo", "lu", "pen", "dar", "is",
        "ne", "bo", "gra", "fu", "le", "tor", "zi", "ham", "ou", "rin")
MIN_CLUSTER, MAX_CLUSTER = 2, 64


def _vocabulary() -> np.ndarray:
    """Fixed 8000-word vocabulary of syllable compounds (seed-free)."""
    s = np.array(_SYL, dtype=object)
    two = [a + b for a in s for b in s]
    three = [a + b + c for a in s[:10] for b in s for c in s[:19]]
    return np.array(two + three, dtype=object)[:8000]


def _doc_tokens(rng, vocab, n_tok: int, stop_rate: float) -> list[str]:
    # mildly skewed word ranks (the top word ~1%): common words exist,
    # but 5-token shingles of unrelated documents do not collide
    ranks = (len(vocab) * rng.random(n_tok) ** 2).astype(np.int64)
    words = list(vocab[ranks])
    stops = rng.random(n_tok) < stop_rate
    for i in np.flatnonzero(stops):
        words[i] = STOPWORDS[rng.integers(len(STOPWORDS))]
    return words


def generate(out_dir: str, seed: int, n_docs: int) -> dict:
    """Write the inputs for one workload run; return the input record
    (sizes and planted counts)."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    vocab = _vocabulary()
    doc_id = np.sort(rng.choice(8 * n_docs, n_docs, replace=False)).astype(np.int64)

    texts: list[str] = []
    low_quality = 0
    for _ in range(n_docs):
        n_tok = int(rng.integers(40, 101))
        bad = rng.random() < 0.08
        low_quality += bool(bad)
        words = _doc_tokens(rng, vocab, n_tok, 0.0 if bad else 0.15)
        r = rng.random()
        if r < 0.02:
            words[rng.integers(n_tok)] = f"user{int(rng.integers(1000))}@mail.example"
        elif r < 0.04:
            words[rng.integers(n_tok)] = f"555-{int(rng.integers(100, 10000))}"
        elif r < 0.05:
            words[rng.integers(n_tok)] = ".".join(
                str(int(v)) for v in rng.integers(0, 256, 4))
        texts.append(" ".join(words))

    # near-duplicate clusters: members overwrite distinct random slots
    n_clusters = max(1, n_docs // 100)
    sizes = np.minimum(MIN_CLUSTER + rng.geometric(0.12, n_clusters) - 1,
                       MAX_CLUSTER)
    slots = rng.permutation(n_docs)
    pos = clustered = made = 0
    for size in sizes:
        if pos + size > n_docs // 2:
            break
        members = slots[pos:pos + size]
        pos += size
        made += 1
        base = _doc_tokens(rng, vocab, int(rng.integers(50, 101)), 0.2)
        for m in members:
            words = list(base)
            words[rng.integers(len(words))] = vocab[rng.integers(len(vocab))]
            texts[m] = " ".join(words)
        clustered += int(size)

    # exact duplicates: copy texts of other (non-cluster) documents
    n_exact = n_docs // 40
    src = slots[pos:pos + n_exact]
    dst = slots[pos + n_exact:pos + 2 * n_exact]
    for s, d in zip(src, dst):
        texts[d] = texts[s]

    lang = rng.choice(np.array(LANGS, dtype=object), n_docs, p=LANG_P)
    source = np.array([f"src{i % 5}" for i in range(n_docs)], dtype=object)
    docs = pa.table({
        "doc_id": pa.array(doc_id),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(lang, pa.string()),
        "source": pa.array(source, pa.string()),
        "n_chars": pa.array(np.array([len(t) for t in texts], np.int64)),
    })
    nation = pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": pa.array([f"NATION_{k}" for k in range(25)], pa.string()),
        "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5),
    })
    paths = {"documents": os.path.join(out_dir, "documents.parquet"),
             "nation": os.path.join(out_dir, "nation.parquet")}
    pq.write_table(docs, paths["documents"])
    pq.write_table(nation, paths["nation"])
    return {
        "docs": n_docs,
        "bytes": sum(os.path.getsize(p) for p in paths.values()),
        "sha256": {k: file_digest(p) for k, p in paths.items()},
        "exact_duplicates": int(len(dst)),
        "near_dup_clusters": made,
        "near_dup_members": clustered,
        "low_quality_docs": int(low_quality),
    }


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def hot_cells(doc_ids: np.ndarray, replicate: int, rows_per_task: int) -> int:
    """Cells (zone-index resolution) holding more than ``rows_per_task``
    geocoded pages -- the cells the shuffle join salts."""
    from pythongis_ray import fixtures, grid, spatial

    page = (np.repeat(doc_ids, replicate) * replicate
            + np.tile(np.arange(replicate, dtype=np.int64), len(doc_ids)))
    lon, lat = fixtures.units_to_deg(*fixtures.geocode_units(page))
    cells = grid.point_to_cell(lon, lat, spatial.DEFAULT_INDEX_RES)
    _, counts = np.unique(cells, return_counts=True)
    return int((counts > rows_per_task).sum())
