"""Generate docs/REGISTRY.md — the query → oracle → test cross-index.

The committed index is asserted against the live registry by
tests/test_cli.py::test_registry_index_current, so the counts in
COVERAGE.md can never silently go stale again (r4 VERDICT item 7).
Run after adding queries:  python tools/registry_index.py
"""
from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))


def build() -> str:
    from pythongis_ray import queries

    q = queries.get_queries()
    o = queries.get_oracle_sql()
    lines = [
        "# Registry cross-index (generated — tools/registry_index.py)",
        "",
        f"Queries: **{len(q)}** · bit-exact DuckDB oracles: **{len(o)}**"
        f" · rows-only: **{len(q) - len(o)}**",
        "",
        "| query | oracle | impl |",
        "|---|---|---|",
    ]
    for name in sorted(q):
        fn = q[name]
        mod = getattr(fn, "__module__", "?")
        lines.append(
            f"| {name} | {'sql' if name in o else 'rows-only'} | "
            f"{mod}.{getattr(fn, '__qualname__', '?')} |")
    missing = sorted(set(o) - set(q))
    if missing:
        lines += ["", f"**ORPHAN ORACLES (bug!): {missing}**"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    out = build()
    with open(ROOT / "docs" / "REGISTRY.md", "w") as f:
        f.write(out)
    print(out.splitlines()[2])
