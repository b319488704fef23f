"""Value classification (the reference's `classypie` sidecar).

Break algorithms from /root/reference/classypie/breaks.py:17-413 —
equal, quantile, log, stdev, headtail, pretty, natural (jenks on a
sample) — plus `Classifier`-style apply (`find_class` interpolation,
classypie/main.py:194-300) and `rescale` (main.py:554-631).

Breaks are computed on an aggregated/sampled view of the Dataset on the
driver (they are O(k) outputs); the *apply* is a vectorized
``map_batches`` stage (np.digitize/searchsorted), matching the engine
rule that per-row work never runs on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pythongis_ray.relational import map_pandas


# ------------------------------------------------------------ breaks

def equal(values, k: int) -> list[float]:
    """Equal-interval breaks (classypie/breaks.py 'equal')."""
    v = np.asarray(values, np.float64)
    lo, hi = float(np.nanmin(v)), float(np.nanmax(v))
    step = (hi - lo) / k
    return [lo + i * step for i in range(k + 1)]


def quantile(values, k: int) -> list[float]:
    """Quantile breaks (equal counts per class)."""
    v = np.sort(np.asarray(values, np.float64))
    v = v[~np.isnan(v)]
    qs = np.linspace(0, 1, k + 1)
    return [float(np.quantile(v, q)) for q in qs]


def log_breaks(values, k: int) -> list[float]:
    """Logarithmic breaks (positive values)."""
    v = np.asarray(values, np.float64)
    lo, hi = float(np.nanmin(v)), float(np.nanmax(v))
    if lo <= 0:
        raise ValueError("log breaks require positive values")
    e = np.linspace(np.log10(lo), np.log10(hi), k + 1)
    return [float(10 ** x) for x in e]


def stdev(values, k: int) -> list[float]:
    """Mean ± i·σ breaks, clipped to the data range."""
    v = np.asarray(values, np.float64)
    v = v[~np.isnan(v)]
    mu, sd = float(v.mean()), float(v.std())
    half = k // 2
    br = [mu + (i - half) * sd for i in range(k + 1)]
    br[0] = min(br[0], float(v.min()))
    br[-1] = max(br[-1], float(v.max()))
    return br


def headtail(values, k: int) -> list[float]:
    """Head/tail breaks for heavy-tailed data (iterative mean split)."""
    v = np.asarray(values, np.float64)
    v = v[~np.isnan(v)]
    br = [float(v.min())]
    part = v
    for _ in range(k - 1):
        if len(part) < 2:
            break
        mu = float(part.mean())
        br.append(mu)
        part = part[part > mu]
    br.append(float(v.max()))
    return sorted(set(br))


def _jenks_back(v: np.ndarray, k: int) -> np.ndarray:
    """Fisher–Jenks DP over sorted ``v``: ``back[i, j]`` is where the
    last of ``j`` classes starts in the best split of ``v[:i]`` (cost =
    summed within-class squared deviation, from prefix sums)."""
    n = len(v)
    csum = np.concatenate(([0.0], np.cumsum(v)))
    csq = np.concatenate(([0.0], np.cumsum(v * v)))
    cost = np.full((n + 1, k + 1), np.inf)
    back = np.zeros((n + 1, k + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for j in range(1, k + 1):
        for i in range(j, n + 1):
            for m in range(j - 1, i):
                s = csum[i] - csum[m]
                c = cost[m, j - 1] + (csq[i] - csq[m]) - s * s / (i - m)
                if c < cost[i, j]:
                    cost[i, j] = c
                    back[i, j] = m
    return back


def jenks_sample(values, k: int, sample: int = 1000, seed: int = 42) -> list[float]:
    """Natural breaks (Fisher-Jenks) on a bounded sample — mirrors the
    reference's sampling strategy for large inputs
    (/root/reference/classypie/breaks.py:271-374). O(sample² · k) DP."""
    v = np.asarray(values, np.float64)
    v = v[~np.isnan(v)]
    if len(v) > sample:
        rng = np.random.default_rng(seed)
        v = rng.choice(v, sample, replace=False)
    v = np.sort(v)
    n = len(v)
    if k >= n:
        return [float(x) for x in np.unique(v)]
    back = _jenks_back(v, k)
    # recover break positions
    breaks = [float(v[-1])]
    i = n
    for j in range(k, 0, -1):
        m = back[i, j]
        breaks.append(float(v[m]) if m > 0 else float(v[0]))
        i = m
    return sorted(breaks)


def pretty(values=None, k: int = 5, start=None, end=None) -> list[float]:
    """'Pretty' legend breaks — behavior-parity with the reference's
    port of R's pretty() (classypie/breaks.py:150-243; the classInt
    default): pick a unit of {1,2,5,10}·10^m so ~k intervals span the
    data, snap bounds out to unit multiples, then clamp the end
    breaks to the data range. Quirks preserved deliberately for
    output parity: the 1e-07 epsilons and the ceil-before-divide in
    the final count."""
    import math

    lo = float(min(values)) if start is None else float(start)
    hi = float(max(values)) if end is None else float(end)
    min_n = int(k / 3)
    h = 1.5                      # high-unit bias
    h5 = 0.5 + 1.5 * h           # factor-5 bias
    span = hi - lo
    if span == 0 and hi == 0:
        cell, tiny = 1.0, True
    else:
        cell = max(abs(lo), abs(hi))
        u = 1 + (1.0 / (1 + h)) if h5 >= 1.5 * h + 0.5 \
            else 1 + (1.5 / (1 + h5))
        tiny = span < cell * u * max(1.0, k) * 1e-07 * 3.0
    if tiny:
        if cell > 10:
            cell = (9 + cell / 10) * 0.75
        if min_n > 1:
            cell = cell / min_n
    else:
        cell = span
        if k > 1:
            cell = cell / k
    cell = max(cell, 20 * 1e-07)
    base = 10.0 ** math.floor(math.log10(cell))
    unit = base
    if (2 * base) - cell < h * (cell - unit):
        unit = 2.0 * base
        if (5 * base) - cell < h5 * (cell - unit):
            unit = 5.0 * base
            if (10 * base) - cell < h * (cell - unit):
                unit = 10.0 * base
    ns = math.floor(lo / unit + 1e-07)
    nu = math.ceil(hi / unit - 1e-07)
    while ns * unit > lo + (1e-07 * unit):
        ns -= 1
    while nu * unit < hi - (1e-07 * unit):
        nu += 1
    cnt = math.floor(0.5 + nu - ns)
    if cnt < min_n:
        pad = min_n - cnt
        if ns >= 0:
            nu = nu + pad / 2
            ns = ns - pad / 2 + pad % 2
        else:
            ns = ns - pad / 2
            nu = nu + pad / 2 + pad % 2
    gmin = ns * unit
    gmax = nu * unit
    count = int(math.ceil(gmax - gmin) / unit)
    res = [gmin + i * unit for i in range(count + 1)]
    if res[0] < lo:
        res[0] = lo
    if res[-1] > hi:
        res[-1] = hi
    return res


def _jenks_exact(v: np.ndarray, k: int) -> list[float]:
    """Exact Fisher–Jenks DP over ALL (sorted) values, emitting breaks
    in the reference's convention: break i = LAST value of class i
    (classypie getbreaks, breaks.py:294-345). O(n²·k)."""
    n = len(v)
    back = _jenks_back(v, k)
    breaks = [0.0] * (k + 1)
    breaks[k] = float(v[-1])
    breaks[0] = float(v[0])
    i = n
    for j in range(k, 1, -1):
        m = back[i, j]
        breaks[j - 1] = float(v[m - 1])
        i = m
    return breaks


def natural(values, k: int = 5, maxsize: int = 1000, samples: int = 3,
            seed: int = 42) -> list[float]:
    """Full-data natural (Jenks) breaks — reference semantics
    (classypie/breaks.py:271-374): exact DP when n ≤ maxsize; above,
    the mean of ``samples`` subsample runs with the data bounds
    pinned. Deviation: the subsampling RNG is SEEDED (deterministic
    engine contract) where the reference uses an unseeded
    random.sample."""
    v = np.sort(np.asarray(values, np.float64))
    v = v[~np.isnan(v)]
    n = len(v)
    if n <= k:
        return [float(x) for x in v] + [float(v[-1])]
    if n <= maxsize:
        return _jenks_exact(v, k)
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(samples):
        s = np.sort(rng.choice(v, maxsize, replace=False))
        s[0] = v[0]
        s[-1] = v[-1]
        runs.append(_jenks_exact(s, k))
    return [float(np.mean(col)) for col in zip(*runs)]


ALGORITHMS = {
    "equal": equal,
    "quantile": quantile,
    "log": log_breaks,
    "stdev": stdev,
    "headtail": headtail,
    "natural": jenks_sample,
    "natural_full": natural,
    "pretty": pretty,
}


def breaks_for_dataset(ds, col: str, algorithm: str, k: int,
                       sample_limit: int = 100_000, seed: int = 42) -> list[float]:
    """Compute breaks from a Dataset column: exact min/max path for
    'equal', bounded random sample for the distribution-shaped
    algorithms (never materializes the full column on the driver)."""
    if algorithm == "equal":
        from pythongis_ray.vector import describe

        prof = describe(ds, [col]).set_index("column")
        lo, hi = float(prof.loc[col, "min"]), float(prof.loc[col, "max"])
        step = (hi - lo) / k
        return [lo + i * step for i in range(k + 1)]
    n = ds.count()
    frac = min(1.0, sample_limit / max(1, n))
    vals = ds.select_columns([col]).random_sample(frac, seed=seed).to_pandas()[col]
    return ALGORITHMS[algorithm](vals.to_numpy(), k)


# ------------------------------------------------------------- apply

def find_class(values, breaks) -> np.ndarray:
    """Class index per value: class i covers [breaks[i], breaks[i+1])
    with the last class closed (reference find_class semantics,
    classypie/main.py:194-243)."""
    br = np.asarray(breaks, np.float64)
    v = np.asarray(values, np.float64)
    idx = np.searchsorted(br, v, side="right") - 1
    return np.clip(idx, 0, len(br) - 2).astype(np.int64)


def apply_classes(ds, col: str, breaks, out_col: str = "class"):
    """Vectorized classification stage."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        batch[out_col] = find_class(batch[col].to_numpy(), breaks)
        return batch

    return map_pandas(ds, fn)


def rescale(ds, col: str, to: tuple[float, float], out_col: str | None = None):
    """Linear rescale of a column to a target range (classypie rescale,
    main.py:554-631). Global min/max via one streaming describe pass."""
    from pythongis_ray.vector import describe

    prof = describe(ds, [col]).set_index("column")
    lo, hi = float(prof.loc[col, "min"]), float(prof.loc[col, "max"])
    a, b = to
    span = hi - lo if hi > lo else 1.0
    out_col = out_col or f"{col}_scaled"

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        batch[out_col] = (batch[col].to_numpy(np.float64) - lo) / span * (b - a) + a
        return batch

    return map_pandas(ds, fn)
