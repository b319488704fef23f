"""Link synthesis, html href extraction, and integer PageRank."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pythongis_ray import graph, pages

SF = "/root/testdata/sf0.001"


def test_links_preserve_text_invariant(ray_session):
    """Empty-anchor links must not break the north-rule byte-identity
    of extracted text."""
    ds = pages.pages_dataset(SF, geocode=False, links=True)
    ds = ds.map_batches(pages.extract_text, batch_format="pyarrow",
                        batch_size=4096)
    t = ds.select_columns(["text", "text_extracted"]).to_pandas()
    assert (t.text == t.text_extracted).all()


def test_extract_links_matches_arithmetic(ray_session):
    ds = pages.pages_dataset(SF, geocode=False, links=True,
                             columns=["page_id", "html"])
    e = ds.map_batches(pages.extract_links, batch_format="pyarrow",
                       batch_size=512).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    pid = docs.doc_id.to_numpy(np.int64)
    want = set()
    for j in (1, 2, 3):
        want.update(zip(pid.tolist(), (pid >> j).tolist()))
    got = set(zip(e.src_page.tolist(), e.dst_page.tolist()))
    assert got == want
    assert len(e) == 3 * len(pid)  # multi-edges preserved
    # urls well-formed and consistent with the dst id
    row = e.iloc[0]
    assert row.dst_url == (
        f"https://site{row.dst_page % 50}.example/{row.dst_page}")
    # the one link-graph reader gives the same edge multiset
    le = pages.link_edges(SF).to_pandas()
    assert list(le.columns) == ["src_page", "dst_page", "dst_url"]
    assert sorted(zip(le.src_page, le.dst_page, le.dst_url)) \
        == sorted(zip(e.src_page, e.dst_page, e.dst_url))


def test_one_link_edge_reader():
    """Every link-graph read in the package and ``bench.py`` goes
    through ``pages.link_edges``: it is the only function that hands
    ``extract_links`` to a Dataset stage."""
    import ast
    import pathlib

    root = pathlib.Path(pages.__file__).parent
    files = sorted(root.rglob("*.py")) + [root.parent / "bench.py"]
    found = []
    for path in files:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and any(
                        ast.unparse(a).split(".")[-1] == "extract_links"
                        for a in node.args + [k.value
                                              for k in node.keywords]):
                    found.append(f"{path.name}:{getattr(top, 'name', '?')}")
    assert found == ["pages.py:link_edges"], found


def test_extract_links_linkless_html(ray_session):
    batch = pa.table({
        "page_id": pa.array([1, 2], pa.int64()),
        "html": pa.array([b"<html><body>plain</body></html>",
                          b'x <a href="no-digits"></a>'], pa.binary()),
    })
    out = pages.extract_links(batch)
    assert out.num_rows == 0
    assert out.column_names == ["src_page", "dst_page", "dst_url"]
    assert out.schema.field("dst_page").type == pa.int64()


def _pagerank_reference(edge_list, iters, init=1_000_000, base=150_000):
    nodes = sorted({n for e in edge_list for n in e})
    outdeg = {}
    for u, _ in edge_list:
        outdeg[u] = outdeg.get(u, 0) + 1
    mass = {n: init for n in nodes}
    for _ in range(iters):
        nxt = {n: base for n in nodes}
        for u, v in edge_list:
            nxt[v] += (85 * mass[u]) // (100 * outdeg[u])
        mass = nxt
    return mass


_TINY = [(1, 2), (1, 3), (2, 3), (3, 1), (3, 1), (4, 3), (5, 5)]
# the tree p -> p >> 1 overlaid with p -> 7p mod 11: mixed
# out-degrees and self-loops (0, 11, 22, 33)
_TREE_RING = [(p, p >> 1) for p in range(1, 40)] \
    + [(p, (p * 7) % 11) for p in range(40)]


@pytest.mark.parametrize("iters,edge_list", [
    pytest.param(1, _TINY, id="1"),
    pytest.param(4, _TINY, id="4"),
    pytest.param(3, _TREE_RING, id="tree_ring"),
])
def test_pagerank_tiny_graph(ray_session, iters, edge_list):
    import ray.data as rd

    edges = rd.from_pandas(pd.DataFrame(edge_list, columns=["src", "dst"]))
    got = graph.pagerank(edges, iters=iters).to_pandas() \
        .set_index("node")["mass"].to_dict()
    assert got == _pagerank_reference(edge_list, iters)


def test_pagerank_dangling_and_hubs(ray_session):
    """Tree graph p -> p>>1: node 0 is dangling (no outlinks, its mass
    is dropped each round); internal nodes with two children outrank
    leaves. Exact match vs the plain-Python reference."""
    import ray.data as rd

    edge_list = [(p, p >> 1) for p in range(1, 64)]
    edges = rd.from_pandas(pd.DataFrame(edge_list, columns=["src", "dst"]))
    got = graph.pagerank(edges, iters=3).to_pandas()
    ref = _pagerank_reference(edge_list, 3)
    assert got.set_index("node")["mass"].to_dict() == ref
    m = got.set_index("node")["mass"]
    assert m[1] > m[33]  # two-child internal node beats a leaf


def test_triangle_count_matches_bruteforce(ray_session):
    import ray.data as rd

    edge_list = [(p, p >> 1) for p in range(1, 32)] \
        + [(p, p >> 2) for p in range(1, 32)] + [(3, 1), (3, 1)]
    n_ref = sum(1 for (a, b) in edge_list for (b2, c) in edge_list
                if b2 == b for (a2, c2) in edge_list
                if a2 == a and c2 == c)
    edges = rd.from_pandas(pd.DataFrame(edge_list, columns=["src", "dst"]))
    out = graph.triangle_count(edges)
    assert out["n_triangles"][0].as_py() == n_ref


def test_pagerank_hosts_small_graph(ray_session):
    """Host rollup: 6 pages on 3 hosts (page % 3), exact vs reference."""
    import ray.data as rd

    edge_list = [(p, p >> 1) for p in range(1, 6)]
    host_edges = [(a % 3, b % 3) for a, b in edge_list]
    edges = rd.from_pandas(pd.DataFrame(host_edges, columns=["src", "dst"]))
    got = graph.pagerank(edges, iters=2).to_pandas() \
        .set_index("node")["mass"].to_dict()
    assert got == _pagerank_reference(host_edges, 2)


def test_pagerank_checkpoint_resume(ray_session, tmp_path):
    """Kill-after-round-2 resume: a fresh call with the same
    checkpoint_dir restores round 2 and completes to the identical
    mass table as an uninterrupted run."""
    import os

    import ray.data as rd

    edge_list = [(p, p >> 1) for p in range(1, 64)] + [(5, 60), (60, 7)]
    edges = rd.from_pandas(pd.DataFrame(edge_list, columns=["src", "dst"]))
    cdir = str(tmp_path / "pr_ckpt")

    # "crashed" run: only 2 of 5 rounds
    graph.pagerank(edges, iters=2, checkpoint_dir=cdir)
    assert os.path.exists(f"{cdir}/round_0002/_DONE")
    assert os.path.exists(f"{cdir}/round_0002/metrics.parquet")

    # resumed run completes rounds 3..5 from the snapshot
    resumed = graph.pagerank(edges, iters=5, checkpoint_dir=cdir) \
        .to_pandas().set_index("node")["mass"].to_dict()
    direct = graph.pagerank(edges, iters=5).to_pandas() \
        .set_index("node")["mass"].to_dict()
    assert resumed == direct == _pagerank_reference(edge_list, 5)
    # lineage: all 5 round snapshots + metrics present after resume
    for r in range(1, 6):
        assert os.path.exists(f"{cdir}/round_{r:04d}/_DONE")


def test_pagerank_checkpoint_param_mismatch(ray_session, tmp_path):
    import ray.data as rd

    edges = rd.from_pandas(pd.DataFrame([(1, 2), (2, 1)],
                                        columns=["src", "dst"]))
    cdir = str(tmp_path / "pr_ckpt2")
    graph.pagerank(edges, iters=1, checkpoint_dir=cdir)
    with pytest.raises(ValueError, match="different parameters"):
        graph.pagerank(edges, iters=1, d_num=80,
                       checkpoint_dir=cdir)


def test_extract_links_null_html(ray_session):
    batch = pa.table({
        "page_id": pa.array([1, 2, 3], pa.int64()),
        "html": pa.array([b'<a href="https://site0.example/7"></a>',
                          None, b"plain"], pa.binary()),
    })
    out = pages.extract_links(batch)
    assert out["src_page"].to_pylist() == [1]
    assert out["dst_page"].to_pylist() == [7]
