"""Local mimic of the driver's queries()-vs-oracle_sql() DuckDB harness.

Runs each registry entry at a given sf, converts both results to pandas,
sorts columns by name and rows by all columns, and compares row count,
column names and exact values. Usage:

    python tools/check_oracle.py [sf_dir] [query ...] [--snapshot PATH]
                                 [--counts PATH]

``--snapshot PATH`` also writes one JSON line per query that returned a
result: its columns and dtypes as returned (``canon`` casts every int
to int64, so a dtype change would pass the comparison unseen), its row
count and the sha256 of its canonical values. Two snapshots of the same
sf directory ``diff`` empty when no query's output changed.

``--counts PATH`` writes one JSON line per query that returned a
result: its wall time (the query call and ``to_pandas``, as printed),
and, counted from the plans the streaming executor runs in that time,
its Dataset executions, sort shuffles and ``limit=1`` peeks (a plan
holding a one-row limit: a schema or first-row probe), and its
``exchanges``: calls of ``relational.bucketed_group_apply``, whose hash
exchange runs as Ray tasks and so shows up in none of the plan counts.
``peek_callers`` names, for each peek, the innermost ``pythongis_ray``
function on the driver stack when the plan started (``module.function``
with its count), so each peek names the call that made it.
The comparison with the oracle is the same with or without it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))


def to_pandas(obj):
    import pandas as pd

    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    import pyarrow as pa

    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    raise TypeError(type(obj))


def canon(df):
    import numpy as np
    import pandas as pd

    df = df.copy()
    df = df[sorted(df.columns)]
    # normalize dtypes: ints → int64, floats stay float64
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def snapshot_line(name, res) -> str:
    """One query's snapshot record (see the module docstring)."""
    try:
        c = canon(res)
    except (TypeError, ValueError):  # cells that do not sort (arrays)
        c = res[sorted(res.columns)].reset_index(drop=True)

    def plain(v):
        return v.tolist() if hasattr(v, "tolist") else str(v)

    values = json.dumps(c.to_dict("split")["data"], default=plain)
    return json.dumps({"query": name, "columns": list(res.columns),
                       "dtypes": [str(t) for t in res.dtypes],
                       "rows": len(res),
                       "sha256": hashlib.sha256(values.encode()).hexdigest()})


class PlanCounter:
    """Counts the plans the streaming executor runs (wraps
    ``StreamingExecutor.execute`` on the driver): executions, sort
    shuffles and ``limit=1`` peeks since the last ``reset``; and the
    grouped-shuffle exchanges (wraps ``bucketed_group_apply`` in every
    loaded ``pythongis_ray`` module that holds it, so build it after
    importing the queries)."""

    def __init__(self):
        import collections
        import functools

        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor

        from pythongis_ray import relational

        self.plans, self.exchanges = [], 0
        self.peek_callers = collections.Counter()
        execute = StreamingExecutor.execute
        counter = self
        apply = relational.bucketed_group_apply

        @functools.wraps(apply)
        def counted(*args, **kwargs):
            counter.exchanges += 1
            return apply(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items()
                    if n.split(".")[0] == "pythongis_ray"]:
            for attr, val in list(vars(mod).items()):
                if val is apply:
                    setattr(mod, attr, counted)

        def counting(self, dag, *args, **kwargs):
            ops, todo = {}, [dag]
            while todo:
                op = todo.pop()
                ops[id(op)] = op
                todo.extend(op.input_dependencies)
            counter.plans.append(list(ops.values()))
            if _is_peek(counter.plans[-1]):
                counter.peek_callers[_package_caller()] += 1
            return execute(self, dag, *args, **kwargs)

        StreamingExecutor.execute = counting

    def reset(self):
        self.plans, self.exchanges = [], 0
        self.peek_callers.clear()

    def line(self, name, wall_s) -> str:
        peeks = sum(map(_is_peek, self.plans))
        sorts = sum(type(op).__name__ == "AllToAllOperator"
                    and op.name.startswith("Sort")
                    for ops in self.plans for op in ops)
        return json.dumps({"query": name, "wall_s": round(wall_s, 3),
                           "executions": len(self.plans), "sorts": sorts,
                           "exchanges": self.exchanges, "peeks": peeks,
                           "peek_callers": dict(self.peek_callers)})


def _is_peek(ops) -> bool:
    """A plan holding a one-row limit: a schema or first-row probe."""
    return any(type(op).__name__ == "LimitOperator" and op._limit == 1
               for op in ops)


def _package_caller() -> str:
    """``module.function`` of the innermost ``pythongis_ray`` frame on
    the calling thread's stack (``?`` when the package is not on it)."""
    f = sys._getframe()
    while f is not None:
        mod = f.f_globals.get("__name__", "")
        if mod.split(".")[0] == "pythongis_ray":
            return f"{mod.split('.', 1)[-1]}.{f.f_code.co_name}"
        f = f.f_back
    return "?"


def main():
    import duckdb
    import ray

    def path_option(flag):
        if flag not in sys.argv:
            return None
        i = sys.argv.index(flag)
        f = open(sys.argv[i + 1], "w")
        del sys.argv[i:i + 2]
        return f

    snap = path_option("--snapshot")
    counts = path_option("--counts")
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pythongis_ray import queries as q

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    fns = q.get_queries()
    sqls = q.get_oracle_sql()
    counter = PlanCounter() if counts else None
    failures = []
    for name, fn in fns.items():
        if only and name not in only:
            continue
        if counter:
            counter.reset()
        t0 = time.time()
        try:
            res = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append((name, f"RAY ERROR: {type(e).__name__}: {e}"))
            print(f"[FAIL-ray ] {name}: {e}")
            continue
        t_ray = time.time() - t0
        if snap:
            print(snapshot_line(name, res), file=snap, flush=True)
        if counter:
            print(counter.line(name, t_ray), file=counts, flush=True)
        if name not in sqls:
            print(f"[rows-only] {name}: {len(res)} rows ({t_ray:.1f}s)")
            continue
        try:
            exp = con.sql(sqls[name]).df()
        except Exception as e:
            failures.append((name, f"SQL ERROR: {e}"))
            print(f"[FAIL-sql ] {name}: {e}")
            continue
        a, b = canon(res), canon(exp)
        if list(a.columns) != list(b.columns):
            failures.append((name, f"schema {list(a.columns)} vs {list(b.columns)}"))
            print(f"[FAIL-schema] {name}: {list(a.columns)} vs {list(b.columns)}")
            continue
        if len(a) != len(b):
            failures.append((name, f"rows {len(a)} vs {len(b)}"))
            print(f"[FAIL-rows] {name}: {len(a)} vs {len(b)}")
            continue
        mism = None
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            try:
                eq = (av == bv) | ((av != av) & (bv != bv))
            except Exception:
                eq = a[c].astype(str).to_numpy() == b[c].astype(str).to_numpy()
            if not eq.all():
                i = int((~eq).argmax())
                mism = f"col {c} row {i}: {av[i]!r} != {bv[i]!r}"
                break
        if mism:
            failures.append((name, mism))
            print(f"[FAIL-val ] {name}: {mism}")
        else:
            print(f"[OK       ] {name}: {len(a)} rows ({t_ray:.1f}s)")
    ray.shutdown()
    for f in (snap, counts):
        if f:
            f.close()
    print(f"\n{len(failures)} failures")
    for n, m in failures:
        print(" -", n, ":", m[:200])
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
