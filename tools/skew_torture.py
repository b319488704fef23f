"""Skew torture for the dedup path (r4 VERDICT item 6): a corpus
where ONE template cluster is 10% of all docs (the LSH worst case),
run through the full corpus_build at sf0.1-like document scale,
against a same-size uniform corpus. Reports wall times, candidate
volume and the capped-bucket drop count. Numbers land in BASELINE.md.

Usage: python tools/skew_torture.py [n_docs]
"""
from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))


def make_corpus(n: int, cluster: int):
    import numpy as np
    import pandas as pd

    base = ("the quick brown fox jumps over the lazy dog and runs to "
            "the old stone bridge in the misty morning light with a "
            "heavy pack of provisions for the long journey ahead "
            "across the wide river valley and the high mountain pass").split()
    docs = []
    for i in range(n):
        if i < cluster:
            toks = list(base)
            toks[7 + (i % 3)] = f"var{i}"
        else:
            toks = [f"tok{i}x{j}" if j % 5 else "the" for j in range(40)]
        docs.append(" ".join(toks))
    return pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                         "text": docs})


def main():
    import ray
    import ray.data as rd

    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    cluster = n // 10
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from pythongis_ray import pipelines, text

    out = {"n_docs": n, "cluster": cluster}

    df_s = make_corpus(n, cluster)
    df_u = make_corpus(n, 0)

    # candidate volume through the capped LSH stage (default cap 1024)
    t0 = time.monotonic()
    pairs = text.minhash_dedup_pairs(rd.from_pandas(df_s),
                                     threshold=0.5).materialize()
    out["skew_pairs"] = pairs.count()
    out["skew_pairs_sec"] = round(time.monotonic() - t0, 2)
    del pairs

    for tag, df in (("uniform", df_u), ("skew", df_s)):
        best = None
        for _ in range(2):
            t0 = time.monotonic()
            kept = pipelines.corpus_build(rd.from_pandas(df)).count()
            dt = time.monotonic() - t0
            best = dt if best is None or dt < best else best
        out[f"{tag}_corpus_build_sec"] = round(best, 2)
        out[f"{tag}_kept"] = kept
    out["skew_over_uniform"] = round(
        out["skew_corpus_build_sec"] / out["uniform_corpus_build_sec"], 2)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
