"""Worker-side broadcast-state cache.

Two ways to amortize per-stage state (a zone index, a kNN grid, a
query matrix) across batches:

1. **Actor pool** (`map_batches(Cls, concurrency=N)`): state built in
   ``__init__`` once per actor. The classic pattern — but each actor is
   a fresh OS process, and on this sandbox's kernel cold process
   startup (page-faulting numpy/pandas into a new address space) costs
   seconds, serialized across the pool.

2. **Stateless tasks + this cache**: the stage is a plain function, so
   Ray Data schedules it on its long-lived default worker pool (already
   warm from earlier stages, fusable with upstream ops). The function
   looks its state up here, keyed by the broadcast ObjectRef; the first
   task on each worker pays one ``ray.get`` + build, every later task
   hits the cache. Same asymptotics as an actor pool, without paying
   process spawn per stage.

The spatial joins and kNN joins use the second way only. Actor pools
remain in a few non-join stages (the decode and feature stages of
``multimodal.py``, ``vector.connect``).
"""

from __future__ import annotations

from typing import Any, Callable

import ray

_CACHE: dict[tuple, Any] = {}


def get_broadcast(ref, builder: Callable[[Any], Any] | None = None,
                  key_extra: tuple = (), latest_only: bool = False) -> Any:
    """Fetch-and-cache a broadcast object on this worker process.

    ``ref``: ObjectRef (or the object itself for in-process use).
    ``builder``: optional one-time transform of the fetched payload
    (e.g. wrap arrays into a joiner instance).
    ``latest_only``: before caching a new entry, drop every cached
    entry with the same ``key_extra``. The cache never evicts
    otherwise, so an operator that broadcasts a fresh ref on each call
    sets it to keep one entry per worker instead of one per call. Two
    calls' stages that run interleaved on one worker then rebuild on
    every switch: still correct, only slower.

    Only ObjectRefs are cached: their hex id is globally unique for the
    session. A plain object passed directly is built-and-returned
    UNCACHED — ``id()`` can be reused after garbage collection, so
    keying on it could hand a long-lived worker stale state for the
    wrong input.
    """
    if not isinstance(ref, ray.ObjectRef):
        return builder(ref) if builder is not None else ref
    key = (ref.hex(),) + key_extra
    obj = _CACHE.get(key)
    if obj is None:
        if latest_only:
            for k in [k for k in _CACHE if k[1:] == key_extra]:
                del _CACHE[k]
        obj = ray.get(ref)
        if builder is not None:
            obj = builder(obj)
        _CACHE[key] = obj
    return obj


_MALLOC_TUNED = False


def tune_malloc(threshold_bytes: int = 1 << 30) -> bool:
    """Raise glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD so large
    numpy temporaries are served from the (warm, reused) heap arena
    instead of fresh mmap/munmap cycles.

    Why: the vectorized text/geometry kernels allocate ~10-100 MB of
    short-lived arrays per batch. Default glibc mmaps anything >128 KB
    and munmaps it on free, so EVERY batch re-faults its pages — and on
    this VM first-touch faults run ~100x slower than warm memory
    (measured: the line-dedup kernel at 9k docs/s cold vs 60k warm,
    reaching steady state immediately once freed buffers stay in the
    arena). Cost: per-process RSS holds its high-water mark (~hundreds
    of MB per worker) — the standard long-lived-worker trade.

    Called at package import, so every Ray worker that deserializes a
    pythongis_ray task gets it. Idempotent; no-op off glibc.
    """
    global _MALLOC_TUNED
    if _MALLOC_TUNED:
        return True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        ok = bool(libc.mallopt(-1, threshold_bytes))   # M_TRIM_THRESHOLD
        ok = bool(libc.mallopt(-3, threshold_bytes)) and ok  # M_MMAP_THRESHOLD
        _MALLOC_TUNED = ok
        return ok
    except Exception:
        return False
