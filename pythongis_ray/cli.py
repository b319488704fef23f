"""``ray job submit``-ready command-line entry point.

The north-rule deployment shape is `ray job submit -- python -m
pythongis_ray run <pipeline> ...` against a running cluster: the
driver process owns the Ray session (we only init when standalone),
every registered pipeline is addressable by name, and output goes to
the resumable partitioned-parquet sink so a killed job re-submitted
with the same --out resumes from its partition manifest.

Commands
--------
list                      show registered pipeline names (* = DuckDB-
                          oracle-paired)
run <name> [options]      execute one registered pipeline
    --sf-dir DIR          input table directory (default
                          /root/testdata/sf0.001)
    --out DIR             write result via the resumable partitioned
                          sink (requires --key); omit to print row
                          count + head instead
    --key COL             partition key column for --out
    --partitions N        number of output partitions (default 16)
    --limit N             rows to show without --out (default 5)
"""

from __future__ import annotations

import argparse
import sys
import time


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")


def _as_dataset(obj):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if isinstance(obj, pd.DataFrame):
        return rd.from_pandas(obj)
    if isinstance(obj, pa.Table):
        return rd.from_arrow(obj)
    return obj


def main(argv=None) -> int:
    from pythongis_ray import queries as q

    ap = argparse.ArgumentParser(prog="python -m pythongis_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list")
    runp = sub.add_parser("run")
    runp.add_argument("name")
    runp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    runp.add_argument("--out")
    runp.add_argument("--key")
    runp.add_argument("--partitions", type=int, default=16)
    runp.add_argument("--limit", type=int, default=5)
    prp = sub.add_parser("pagerank")
    prp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    prp.add_argument("--iters", type=int, default=5)
    prp.add_argument("--replicate", type=int, default=1,
                     help="deterministic page upsampling factor")
    prp.add_argument("--checkpoint-dir",
                     help="round-level snapshots; a killed job "
                          "re-submitted with the same dir resumes at "
                          "the last complete round")
    prp.add_argument("--out")
    prp.add_argument("--partitions", type=int, default=16)
    args = ap.parse_args(argv)

    if args.cmd == "list":
        for name, (_, sql) in sorted(q.REGISTRY.items()):
            print(("* " if sql else "  ") + name)
        return 0

    if args.cmd == "pagerank":
        _ensure_ray()
        from pythongis_ray import graph, pages

        t0 = time.monotonic()
        edges = pages.link_edges(args.sf_dir, replicate=args.replicate)
        pr = graph.pagerank(edges, src="src_page", dst="dst_page",
                            iters=args.iters,
                            checkpoint_dir=args.checkpoint_dir)
        if args.out:
            from pythongis_ray import checkpoint

            metrics = checkpoint.write_partitioned(
                pr, args.out, "node", num_partitions=args.partitions)
            rows = int(metrics["rows"].sum()) if len(metrics) else 0
            print(f"pagerank: {rows} rows -> {args.out} "
                  f"({time.monotonic() - t0:.2f}s)")
        else:
            n = pr.count()
            print(f"pagerank: {n} nodes, {args.iters} rounds "
                  f"({time.monotonic() - t0:.2f}s)")
        return 0

    if args.name not in q.REGISTRY:
        print(f"unknown pipeline {args.name!r} (see `list`)",
              file=sys.stderr)
        return 2
    _ensure_ray()
    t0 = time.monotonic()
    result = q.REGISTRY[args.name][0](args.sf_dir)
    if args.out:
        if not args.key:
            print("--out requires --key <partition column>",
                  file=sys.stderr)
            return 2
        from pythongis_ray import checkpoint

        metrics = checkpoint.write_partitioned(
            _as_dataset(result), args.out, args.key,
            num_partitions=args.partitions)  # DataFrame, one row/partition
        done = len(metrics)
        rows = int(metrics["rows"].sum()) if done else 0
        print(f"{args.name}: {rows} rows in {done} new partitions -> "
              f"{args.out} ({time.monotonic() - t0:.2f}s; rerun with the "
              f"same --out resumes from the manifest)")
    else:
        ds = _as_dataset(result)
        n = ds.count()
        print(f"{args.name}: {n} rows ({time.monotonic() - t0:.2f}s)")
        for row in ds.take(args.limit):
            print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
