"""CLI smoke: run + resumable --out through a subprocess (the
`ray job submit` shape — the CLI owns its own Ray session there)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cli_run_out_and_resume(tmp_path):
    out = str(tmp_path / "tok")
    env = dict(os.environ, RAY_ADDRESS="local")
    cmd = [sys.executable, "-m", "pythongis_ray", "run", "doc_tokens",
           "--sf-dir", "/root/testdata/sf0.001", "--out", out,
           "--key", "doc_id", "--partitions", "4"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=240,
                        cwd=ROOT)
    assert r1.returncode == 0, r1.stderr[-2000:]
    assert "4 new partitions" in r1.stdout
    assert sorted(os.listdir(out))[1:] == [f"part={i}" for i in range(4)]
    # rerun resumes from the manifest: nothing new written
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=240,
                        cwd=ROOT)
    assert r2.returncode == 0, r2.stderr[-2000:]
    assert "0 rows in 0 new partitions" in r2.stdout


def test_cli_pagerank_with_checkpoint(ray_session, tmp_path, capsys):
    from pythongis_ray import cli

    cdir = str(tmp_path / "pr")
    rc = cli.main(["pagerank", "--sf-dir", "/root/testdata/sf0.001",
                   "--iters", "2", "--checkpoint-dir", cdir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pagerank: 500 nodes, 2 rounds" in out
    import os
    assert os.path.exists(f"{cdir}/round_0002/_DONE")
    # re-submit with more rounds resumes (round 1-2 restored, 3 run)
    rc = cli.main(["pagerank", "--sf-dir", "/root/testdata/sf0.001",
                   "--iters", "3", "--checkpoint-dir", cdir])
    assert rc == 0
    assert os.path.exists(f"{cdir}/round_0003/_DONE")


def test_registry_index_current():
    """docs/REGISTRY.md must match the live registry exactly — the
    CI-style staleness guard from the r4 verdict (COVERAGE.md's
    headline had drifted 349 vs 500). Regenerate with
    `python tools/registry_index.py` after adding queries."""
    sys.path.insert(0, str(ROOT / "tools"))
    import registry_index

    with open(ROOT / "docs" / "REGISTRY.md") as f:
        committed = f.read()
    assert committed == registry_index.build(), (
        "docs/REGISTRY.md is stale — run python tools/registry_index.py")


def test_oracles_subset_of_queries():
    from pythongis_ray import queries

    q, o = queries.get_queries(), queries.get_oracle_sql()
    assert set(o) <= set(q)
    assert len(q) >= 501
