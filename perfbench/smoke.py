"""The benchmark's own smoke test, on tiny inputs (about two minutes).

    python3 perfbench/smoke.py

Checks that

* the generator is deterministic: the same seed gives byte-identical
  files, another seed changes the documents and the geocoded positions;
* every workload of ``BENCHMARK.json`` runs with ``--trace 0`` and
  ``--trace 1``, is correct, and prints every end-to-end metric
  (resp. every per-layer metric) with its declared unit;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench`` the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work", "smoke")


def check(cond: bool, msg: str) -> None:
    if not cond:
        print(f"smoke: FAILED: {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok: {msg}")


def determinism() -> None:
    import numpy as np
    import pyarrow.parquet as pq

    from perfbench import gen
    from pythongis_ray import fixtures

    a = gen.generate(os.path.join(WORK, "a"), 7, 200)
    b = gen.generate(os.path.join(WORK, "b"), 7, 200)
    c = gen.generate(os.path.join(WORK, "c"), 8, 200)
    check(a["sha256"] == b["sha256"], "same seed gives byte-identical files")

    def docs(d):
        return pq.read_table(os.path.join(WORK, d, "documents.parquet"))

    check(docs("a")["text"] != docs("c")["text"],
          "another seed changes the documents")
    pos = [np.stack(fixtures.geocode_units(docs(d)["doc_id"].to_numpy()))
           for d in ("a", "c")]
    check(not np.array_equal(*pos), "another seed changes geocoded positions")


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny",
           "--record", os.path.join(WORK, "smoke.jsonl")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def main() -> int:
    sys.path.insert(0, ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    determinism()
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(wl["name"], trace)
            check(p.returncode == 0,
                  f"{wl['name']} --trace {trace} exits 0 ({p.stderr[-500:]})")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{wl['name']} --trace {trace} is correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want,
                  f"{wl['name']} --trace {trace} prints every {key} metric "
                  f"with its unit")
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = run(spec["workloads"][0]["name"], 0, cwd=bare)
    check(p.returncode != 0 and '"metrics"' not in p.stdout,
          "without the engine the benchmark fails without a result")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
