"""SQL-ish pipeline composition layer.

The reference's ``sql.query(_from, _select, _geomselect, _where,
_groupby, _limit)`` (/root/reference/pythongis/vector/sql.py:182-244)
composes generator stages over one-or-more feature tables; its
N-input form is a full cartesian ``itertools.product`` (sql.py:209-213).

Ray-native equivalent: a :class:`Query` builder that emits a plan of
``filter → map_batches(select) → groupby_aggregate → limit`` over a
Dataset. Cross-table composition uses the engine's join operators
(broadcast nested-loop only for tiny inputs, mirroring the reference's
all-pairs semantics with an explicit guard).

Where-predicates and select-exprs are *batch-level* callables
(pandas DataFrame → mask / columns) — the vectorized adapter around the
reference's per-Feature callables (user-extension surface, SURVEY.md
§2.11).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pythongis_ray import relational as rel
from pythongis_ray.relational import map_pandas

CROSS_JOIN_LIMIT = 100_000  # max rows on the broadcast side of a cartesian


class Query:
    """Fluent pipeline builder over a Ray Dataset."""

    def __init__(self, ds):
        self.ds = ds

    def where(self, predicate):
        """predicate: pandas DataFrame -> boolean mask (vectorized)."""
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch[np.asarray(predicate(batch), bool)]

        return Query(map_pandas(self.ds, fn))

    def select(self, **exprs):
        """Keep/compute columns: name=str keeps a column, name=callable
        computes one from the batch (reference _select funcs,
        sql.py:223-231)."""
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = {}
            for name, e in exprs.items():
                out[name] = batch[e] if isinstance(e, str) else e(batch)
            return pd.DataFrame(out)

        return Query(map_pandas(self.ds, fn))

    def cross(self, other_df: pd.DataFrame, suffix: str = "_r"):
        """Cartesian product with a SMALL broadcast side — the
        reference's N-input product (sql.py:209-213), guarded."""
        if len(other_df) > CROSS_JOIN_LIMIT:
            raise ValueError(
                f"cross() side has {len(other_df)} rows; cartesian joins are "
                f"only supported for tiny inputs (<= {CROSS_JOIN_LIMIT})")
        import ray

        ref = ray.put(other_df)

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            from pythongis_ray import state

            r = state.get_broadcast(ref, key_extra=("cross",))
            r = r.rename(columns={c: c + suffix for c in r.columns
                                  if c in batch.columns})
            return batch.merge(r, how="cross")

        return Query(self.ds.map_batches(fn, batch_format="pandas",
                                         batch_size=8192))

    def join(self, other_df: pd.DataFrame, on, how: str = "inner"):
        return Query(rel.hash_join(self.ds, other_df, on=on, how=how))

    def groupby(self, keys, specs, order_col: str | None = None):
        return Query(rel.groupby_aggregate(self.ds, keys, specs, order_col))

    def sort(self, keys, descending=False):
        return Query(self.ds.sort(keys, descending=descending))

    def limit(self, n: int):
        return Query(self.ds.limit(n))

    def collect(self) -> pd.DataFrame:
        return self.ds.to_pandas()

    def dataset(self):
        return self.ds


def query(ds, where=None, select=None, groupby=None, aggs=None, limit=None,
          order_col=None):
    """One-shot form mirroring the reference's keyword signature."""
    qb = Query(ds)
    if where is not None:
        qb = qb.where(where)
    if select is not None:
        qb = qb.select(**select)
    if groupby is not None:
        qb = qb.groupby(groupby, aggs or [], order_col=order_col)
    if limit is not None:
        qb = qb.limit(limit)
    return qb.dataset()
