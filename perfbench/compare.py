"""Compare two benchmark result files.

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds run records as ``perfbench/run.py --record`` appends
them (one JSON object per line, any number of seeds and workloads).
For every workload and end-to-end metric of ``BENCHMARK.json`` it
prints A's and B's median and quartiles over their untraced runs and
marks the move from A to B:

* ``unresolved`` -- either side's spread (quartile distance / median)
  is wider than the metric's bound, so the runs cannot tell;
* ``worse`` / ``better`` -- B's median moved past the bound;
* ``within bound`` -- otherwise.

Per-layer metrics of the traced runs follow as medians, without a
verdict: they have no bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """(workload, trace) -> metric -> list of values."""
    out: dict = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            runs = out.setdefault((r["workload"], r["trace"]), {})
            for name, m in r["metrics"].items():
                runs.setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q[2] - q[0]) / q[1] if q[1] else float("inf")
                 for q in (qa, qb))
    if spread > bound:
        return "unresolved"
    move = (qb[1] - qa[1]) / qa[1]
    if better == "higher":
        move = -move
    if move > bound:
        return "worse"
    if move < -bound:
        return "better"
    return "within bound"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load(argv[0]), load(argv[1])
    print(f"{'workload':18s} {'metric':26s} {'A q1/median/q3':>30s} "
          f"{'B q1/median/q3':>30s}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        ra, rb = a.get((name, 0), {}), b.get((name, 0), {})
        for m in spec["end_to_end"]:
            va, vb = ra.get(m["name"]), rb.get(m["name"])
            if not va or not vb:
                print(f"{name:18s} {m['name']:26s} missing in "
                      f"{'A' if not va else 'B'}")
                continue
            fa = "/".join(f"{x:.4g}" for x in quartiles(va))
            fb = "/".join(f"{x:.4g}" for x in quartiles(vb))
            print(f"{name:18s} {m['name']:26s} {fa:>30s} {fb:>30s}  "
                  f"{verdict(va, vb, m['better'], m['bound'])} "
                  f"(n={len(va)}/{len(vb)}, bound {m['bound']})")
        ta, tb = a.get((name, 1), {}), b.get((name, 1), {})
        for m in spec["per_layer"]:
            va, vb = ta.get(m["name"]), tb.get(m["name"])
            if va and vb:
                print(f"{name:18s} {m['name']:26s} "
                      f"{statistics.median(va):>30.4g} "
                      f"{statistics.median(vb):>30.4g}  ({m['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
