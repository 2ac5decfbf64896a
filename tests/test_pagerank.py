"""PageRank conformance: Ray pipeline vs the oracle transcription, including
the popularity write-back feeding the reference scorer's blend (A7/A8)."""

import math
import os

import numpy as np
import pyarrow.dataset as pads
import pytest
import ray.data

from nadry_search_engine_be_ray.config import PageRankConfig
from nadry_search_engine_be_ray.oracle import pagerank_reference
from nadry_search_engine_be_ray.pipelines.pagerank import run_pagerank
from nadry_search_engine_be_ray.pipelines.query import SearchEngine
from nadry_search_engine_be_ray.sources.corpus import make_links


@pytest.fixture(scope="module")
def edges_and_urls(built_index):
    from nadry_search_engine_be_ray.stages.prep import derive_urls

    prepped = pads.dataset(
        os.path.join(built_index, "prepped"), format="parquet"
    ).to_table(columns=["repo", "path", "commit"])
    urls = sorted(derive_urls(prepped))
    edges = make_links(urls, seed=42)
    return edges, urls


def test_distributed_pagerank_matches_driver(ray_session, built_index,
                                             edges_and_urls):
    """The object-store/raw-task variant must agree with the oracle-parity
    driver version to float tolerance (summation order differs) with
    identical node sets and rank order."""
    import numpy as np

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        compute_pagerank,
        compute_pagerank_distributed,
    )

    edges_tbl, _ = edges_and_urls
    doc_ints = pads.dataset(
        os.path.join(built_index, "prepped"), format="parquet"
    ).to_table(columns=["doc_int"])["doc_int"].to_numpy(zero_copy_only=False)

    for cfg in (PageRankConfig(), PageRankConfig(as_implemented=False)):
        a = compute_pagerank(
            ray.data.from_arrow(edges_tbl), doc_ints, cfg
        ).to_pandas().sort_values("url").reset_index(drop=True)
        b = compute_pagerank_distributed(
            ray.data.from_arrow(edges_tbl), doc_ints, cfg
        ).to_pandas().sort_values("url").reset_index(drop=True)

        assert list(a["url"]) == list(b["url"])
        assert np.allclose(a["popularity"], b["popularity"],
                           rtol=1e-10, atol=1e-15)
        # rank ORDER identical under the deterministic (pop desc, url) sort
        oa = a.sort_values(["popularity", "url"], ascending=[False, True])["url"]
        ob = b.sort_values(["popularity", "url"], ascending=[False, True])["url"]
        assert list(oa) == list(ob)


def test_pagerank_matches_oracle(ray_session, built_index, edges_and_urls):
    edges_tbl, urls = edges_and_urls
    # method="driver" is the oracle-parity mode (bit-identical summation
    # order); the default distributed path agrees to 1e-10 (test above)
    result = run_pagerank(ray.data.from_arrow(edges_tbl), built_index,
                          method="driver")

    pairs = list(zip(edges_tbl["src"].to_pylist(), edges_tbl["dst"].to_pylist()))
    expected = pagerank_reference(pairs, set(urls))

    got = dict(zip(result["url"].to_pylist(), result["popularity"].to_pylist()))
    assert set(got) == set(expected)
    for u in expected:
        assert got[u] == pytest.approx(expected[u], rel=1e-12, abs=1e-15), u
    # sink node (receives, never links) and cycle nodes must be present
    assert len(got) > 10


def test_textbook_mode_differs(ray_session, built_index, edges_and_urls):
    edges_tbl, _ = edges_and_urls
    cfg = PageRankConfig(as_implemented=False)
    textbook = run_pagerank_no_write(edges_tbl, built_index, cfg)
    quirk = run_pagerank_no_write(edges_tbl, built_index, PageRankConfig())
    # the quirk must actually change some ranks (documented deviation)
    t = dict(zip(textbook["url"].to_pylist(), textbook["popularity"].to_pylist()))
    q = dict(zip(quirk["url"].to_pylist(), quirk["popularity"].to_pylist()))
    assert any(abs(t[u] - q[u]) > 1e-9 for u in t)


def run_pagerank_no_write(edges_tbl, index_dir, cfg):
    from nadry_search_engine_be_ray.pipelines.pagerank import compute_pagerank

    doc_ints = (
        pads.dataset(os.path.join(index_dir, "prepped"), format="parquet")
        .to_table(columns=["doc_int"])["doc_int"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    return compute_pagerank(ray.data.from_arrow(edges_tbl), doc_ints, cfg)


def test_popularity_feeds_scoring(ray_session, built_index, edges_and_urls, oracle_index):
    # after write-back, engine search must still match the oracle when the
    # oracle gets the same popularity scores (A7 normalization + A8 blend)
    edges_tbl, urls = edges_and_urls
    pairs = list(zip(edges_tbl["src"].to_pylist(), edges_tbl["dst"].to_pylist()))
    oracle_index.set_popularity(pagerank_reference(pairs, set(urls)))

    engine = SearchEngine(built_index)  # fresh: picks up popularity/
    for q in ("item order arrived", "search engine", "nation", "import"):
        got = engine.search(q)
        exp = oracle_index.search(q)
        assert [r["doc_id"] for r in got["results"]] == [
            r["doc_id"] for r in exp["results"]
        ]
        for g, e in zip(got["results"], exp["results"]):
            if math.isnan(e["score"]):
                assert math.isnan(g["score"])
            else:
                assert g["score"] == pytest.approx(e["score"], rel=1e-12)


def test_quirk_int_matches_brute_force(ray_session):
    """pagerank_quirk_int (the SQL-checkable fixed-iteration quirk variant)
    vs an independent per-rule brute force: in-degree divisor, in-linkless
    contributors skipped, node set = targets with >= 1 in-link."""
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        pagerank_quirk_int,
    )

    # node 0 has NO in-links (it only contributes -> must be skipped);
    # parallel edge (2 -> 3) twice must count twice
    src = [0, 0, 1, 2, 2, 3, 4]
    dst = [1, 2, 2, 3, 3, 4, 1]
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()),
                  "dst": pa.array(dst, pa.int64())})
    ).repartition(3)
    got = pagerank_quirk_int(edges, 5, damping=0.85, n_iter=5).to_pandas()

    # brute force over the documented rule
    import collections

    indeg = collections.Counter(dst)
    nodes = sorted(indeg)            # targets with >= 1 in-link: 1,2,3,4
    n = len(nodes)
    rank = {v: 1.0 / n for v in nodes}
    for _ in range(5):
        new = {}
        for v in nodes:
            s = 0.0
            for sv, dv in zip(src, dst):
                if dv == v and sv in rank:      # skip in-linkless src (0)
                    s += rank[sv] / indeg[sv]   # IN-degree divisor
            new[v] = 0.15 / n + 0.85 * s
        rank = new
    assert got["node"].tolist() == nodes
    for v, r in zip(got["node"], got["rank"]):
        assert math.isclose(r, round(rank[v], 9), abs_tol=1e-9)


def test_quirk_int_matches_url_pipeline(ray_session):
    """Same arithmetic as compute_pagerank(as_implemented=True) when the
    stop rule is pinned to a fixed iteration count (tolerance=0)."""
    import hashlib

    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        compute_pagerank,
        pagerank_quirk_int,
    )

    # url graph whose sorted-url order equals int order (u0..u5)
    iedges = [(0, 1), (1, 2), (2, 0), (3, 1), (4, 2), (0, 2), (5, 0)]
    urls = [f"https://e.com/u{i}" for i in range(6)]
    str_edges = pa.table(
        {
            "src": pa.array([urls[a] for a, _ in iedges], pa.string()),
            "dst": pa.array([urls[b] for _, b in iedges], pa.string()),
        }
    )
    corpus_ints = np.array(
        [int(hashlib.sha256(u.encode()).hexdigest()[:15], 16) for u in urls],
        dtype=np.int64,
    )
    cfg = PageRankConfig(tolerance=0.0, max_iter=7, as_implemented=True)
    ref = (
        compute_pagerank(
            ray.data.from_arrow(str_edges), corpus_ints, cfg
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    int_edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([a for a, _ in iedges], pa.int64()),
                "dst": pa.array([b for _, b in iedges], pa.int64()),
            }
        )
    )
    got = pagerank_quirk_int(int_edges, 6, damping=0.85, n_iter=7).to_pandas()
    # node ids map to sorted urls 1:1 (u0..u5 sort lexicographically)
    exp = {int(u.rsplit("u", 1)[1]): p
           for u, p in zip(ref["url"], ref["popularity"])}
    assert sorted(got["node"].tolist()) == sorted(exp)
    for v, r in zip(got["node"], got["rank"]):
        assert math.isclose(r, exp[v], abs_tol=1e-9)


def test_hits_matches_numpy_bruteforce(ray_session):
    """hits_int's distributed gather waves must equal a dense numpy HITS
    on a random multigraph (parallel edges included)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import hits_int

    rng = np.random.default_rng(11)
    n = 40
    src = rng.integers(0, n, 300).astype(np.int64)
    dst = rng.integers(0, n, 300).astype(np.int64)
    edges = ray.data.from_arrow(pa.table(
        {"src": pa.array(src, pa.int64()),
         "dst": pa.array(dst, pa.int64())}
    )).repartition(4)
    out = hits_int(edges, n, n_iter=5)

    A = np.zeros((n, n))
    np.add.at(A, (src, dst), 1.0)  # multigraph adjacency counts
    h = np.ones(n)
    for _ in range(5):
        a = A.T @ h
        a = a / np.linalg.norm(a)
        h = A @ a
        h = h / np.linalg.norm(h)
    assert np.allclose(out["hub"].to_numpy(), np.round(h, 9), atol=1e-8)
    assert np.allclose(out["authority"].to_numpy(), np.round(a, 9),
                       atol=1e-8)
    # skewed random graph: scores must not be uniform
    assert out["authority"].to_numpy().std() > 1e-6


def test_triangle_count_known_graphs(ray_session):
    """Exact counts on constructed graphs: K4 has 4 triangles; adding a
    pendant edge changes nothing; duplicate/reversed/self-loop edges are
    normalized away."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import triangle_count

    def edges(pairs):
        return ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs], pa.int64()),
            "dst": pa.array([b for _, b in pairs], pa.int64()),
        }))

    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    out = triangle_count(edges(k4)).to_pandas().iloc[0]
    assert (out["n_nodes"], out["n_edges"], out["n_triangles"]) == (4, 6, 4)

    messy = k4 + [(1, 0), (2, 2), (3, 4), (4, 3), (0, 1)]
    out = triangle_count(edges(messy)).to_pandas().iloc[0]
    assert (out["n_nodes"], out["n_edges"], out["n_triangles"]) == (5, 7, 4)

    # triangle-free: star
    star = [(0, i) for i in range(1, 6)]
    out = triangle_count(edges(star)).to_pandas().iloc[0]
    assert out["n_triangles"] == 0


def test_kcore_peeling_bruteforce(ray_session):
    """Fixed-round peeling == a brute-force set simulation, including a
    cascade (the tail-chain nodes die round by round)."""
    import collections

    import numpy as np
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import kcore_nodes

    # K5 core + a chain hanging off it
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    pairs += [(4, 5), (5, 6), (6, 7)]
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.int64()),
        "dst": pa.array([b for _, b in pairs], pa.int64()),
    }))
    for k in (2, 3, 4, 5):
        got = kcore_nodes(edges, k=k, n_rounds=5).to_pandas()
        es = set(pairs)
        for _ in range(5):
            deg = collections.Counter()
            for a, b in es:
                deg[a] += 1
                deg[b] += 1
            alive = {x for x, c in deg.items() if c >= k}
            es = {(a, b) for a, b in es if a in alive and b in alive}
        deg = collections.Counter()
        for a, b in es:
            deg[a] += 1
            deg[b] += 1
        exp = sorted(deg.items())
        assert list(zip(got["node"], got["deg"])) == exp, k


def test_common_neighbors_topk_bruteforce(ray_session):
    import itertools

    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        common_neighbors_topk,
    )

    # two hubs sharing neighbors + noise
    pairs = [(0, i) for i in range(2, 8)] + [(1, i) for i in range(2, 8)]
    pairs += [(8, 9), (9, 10)]
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.int64()),
        "dst": pa.array([b for _, b in pairs], pa.int64()),
    }))
    got = common_neighbors_topk(edges, k=5).to_pandas()
    # brute force
    import collections

    adj = collections.defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    es = {(min(a, b), max(a, b)) for a, b in pairs}
    cand = []
    for x, y in itertools.combinations(sorted(adj), 2):
        if (x, y) in es:
            continue
        c = len(adj[x] & adj[y])
        if c:
            cand.append((x, y, c))
    cand.sort(key=lambda r: (-r[2], r[0], r[1]))
    assert list(map(tuple, got.itertuples(index=False))) == cand[:5]
    # (0,1) share all 6 neighbors and are non-adjacent -> rank 1
    assert tuple(got.iloc[0]) == (0, 1, 6)


def test_graph_ops_empty_and_selfloop_inputs(ray_session):
    """Empty edge lists and pure-self-loop graphs must yield empty/zero
    results, not index errors (the clamped-searchsorted edge guards)."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        common_neighbors_topk,
        int_table,
        triangle_count,
        undirected_edges,
    )

    empty = ray.data.from_arrow(pa.table({
        "src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64()),
    }))
    out = triangle_count(empty).to_pandas().iloc[0]
    assert tuple(out) == (0, 0, 0)
    assert common_neighbors_topk(empty).num_rows == 0

    loops = ray.data.from_arrow(pa.table({
        "src": pa.array([1, 2], pa.int64()),
        "dst": pa.array([1, 2], pa.int64()),
    }))
    out = triangle_count(loops).to_pandas().iloc[0]
    assert tuple(out) == (0, 0, 0)
    assert common_neighbors_topk(loops).num_rows == 0

    uv_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    for ds in (empty, loops):
        und = undirected_edges(ds)
        assert und.count() == 0
        t = int_table(und, ["u", "v"])
        assert t.num_rows == 0 and t.schema == uv_schema


@pytest.mark.parametrize("quadratic", [True, False])
def test_synthetic_edges_match_python_rule(ray_session, quadratic):
    """The one synthetic link graph equals the rule spelled as a plain
    loop over documents.parquet's doc_ids, and its undirected form is the
    {(min, max)} set without self-loops."""
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        int_table,
        synthetic_edges,
        undirected_edges,
    )

    sf = "/root/testdata/sf0.001"
    ids = pq.read_table(f"{sf}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_pylist()
    n = len(ids)
    want = [(i, ((i * i if quadratic else i) * 31 + 97 * k) % n)
            for i in ids for k in (1, 2, 3)]

    edges, got_n = synthetic_edges(sf, quadratic=quadratic)
    assert got_n == n
    got = edges.to_pandas()
    assert str(got["src"].dtype) == str(got["dst"].dtype) == "int64"
    assert sorted(zip(got["src"].tolist(), got["dst"].tolist())) \
        == sorted(want)

    und = int_table(undirected_edges(edges), ["u", "v"])
    assert sorted(zip(und["u"].to_pylist(), und["v"].to_pylist())) \
        == sorted({(min(s, d), max(s, d)) for s, d in want if s != d})


def test_bfs_depths_bruteforce(ray_session):
    """Fixed-round BFS equals a networkx-free BFS brute force on a
    deterministic random graph, and stops early when the frontier
    empties (a disconnected component stays unreached)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import bfs_depths

    rng = np.random.RandomState(7)
    n = 60
    src = rng.randint(0, n, 150).astype(np.int64)
    dst = rng.randint(0, n, 150).astype(np.int64)
    # isolate nodes 50..59 into their own component
    mask = (src < 50) == (dst < 50)
    src, dst = src[mask], dst[mask]

    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64()),
    }))
    got = bfs_depths(edges, source=0, n_rounds=10).to_pandas()

    # brute-force BFS over the undirected simple graph
    adj: dict[int, set[int]] = {}
    for s, d in zip(src, dst):
        if s == d:
            continue
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    depth = {0: 0}
    frontier = [0]
    r = 0
    while frontier and r < 10:
        r += 1
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y not in depth:
                    depth[y] = r
                    nxt.append(y)
        frontier = nxt
    exp = sorted(depth.items())
    assert list(zip(got["node"], got["depth"])) == exp
    # the >= 50 component is unreachable from node 0
    assert (got["node"] < 50).all()


def test_bfs_depths_chain(ray_session):
    """Depths on a 6-chain are exact and the round cap truncates."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import bfs_depths

    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "dst": pa.array([1, 2, 3, 4, 5], pa.int64()),
    }))
    full = bfs_depths(edges, source=0, n_rounds=10).to_pandas()
    assert list(full["depth"]) == [0, 1, 2, 3, 4, 5]
    capped = bfs_depths(edges, source=0, n_rounds=2).to_pandas()
    assert list(capped["node"]) == [0, 1, 2]


def test_ppr_matches_dense_bruteforce(ray_session):
    """Personalized PageRank (restart_node) equals the dense power
    iteration, and the uniform default is untouched by the refactor."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        pagerank_power_int,
    )

    rng = np.random.RandomState(11)
    n = 40
    src = rng.randint(0, n, 120).astype(np.int64)
    dst = rng.randint(0, n, 120).astype(np.int64)
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64()),
    }))

    d = 0.85
    od = np.bincount(src, minlength=n).astype(np.float64)
    A = np.zeros((n, n))
    for s, t in zip(src, dst):
        A[t, s] += 1.0
    P = A / np.maximum(od, 1.0)

    # personalized: teleport to node 3
    e = np.zeros(n)
    e[3] = 1.0
    r = e.copy()
    for _ in range(5):
        r = (1 - d) * e + d * (P @ r)
    got = pagerank_power_int(edges, n, restart_node=3).to_pandas()
    assert np.allclose(got["rank"].to_numpy(), np.round(r, 9), atol=1e-9)

    # uniform: same as dense uniform recurrence
    r = np.full(n, 1.0 / n)
    for _ in range(5):
        r = (1 - d) / n + d * (P @ r)
    got_u = pagerank_power_int(edges, n).to_pandas()
    assert np.allclose(got_u["rank"].to_numpy(), np.round(r, 9), atol=1e-9)


def test_clustering_coeff_bruteforce(ray_session):
    """clustering_coeff == a dense numpy adjacency brute force on a
    seeded random graph (coefficients, degrees, triangle counts and the
    (coeff desc, node asc) top-k cut), plus exact values on K4 (all 1.0)
    and a star (all 0 for the hub; leaves have deg 1 and are excluded)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import clustering_coeff

    def edges(pairs):
        return ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs], pa.int64()),
            "dst": pa.array([b for _, b in pairs], pa.int64()),
        }))

    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    out = clustering_coeff(edges(k4), k=10).to_pandas()
    assert list(out["node"]) == [0, 1, 2, 3]
    assert (out["coeff"] == 1.0).all()
    assert (out["n_tri"] == 3).all()

    star = [(0, i) for i in range(1, 6)]
    out = clustering_coeff(edges(star), k=10).to_pandas()
    assert list(out["node"]) == [0] and out["coeff"].iloc[0] == 0.0

    rng = np.random.RandomState(7)
    n = 40
    pairs = [(int(rng.randint(n)), int(rng.randint(n))) for _ in range(220)]
    adj = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        if a != b:
            adj[a, b] = adj[b, a] = True
    deg = adj.sum(1)
    a3 = np.linalg.matrix_power(adj.astype(np.int64), 3)
    tri = np.diag(a3) // 2
    rows = []
    for v in range(n):
        if deg[v] >= 2:
            rows.append({"node": v, "deg": int(deg[v]), "n_tri": int(tri[v]),
                         "coeff": round(2.0 * tri[v] / (deg[v] * (deg[v] - 1)), 6)})
    exp = (pd.DataFrame(rows)
           .sort_values(["coeff", "node"], ascending=[False, True])
           .head(15).reset_index(drop=True))
    got = clustering_coeff(edges(pairs), k=15).to_pandas()
    got = got.astype({"node": "int64", "deg": "int64", "n_tri": "int64"})
    pd.testing.assert_frame_equal(got, exp.astype({"node": "int64", "deg": "int64",
                                                   "n_tri": "int64"}))


def test_clustering_coeff_empty(ray_session):
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import clustering_coeff

    e = ray.data.from_arrow(pa.table({"src": pa.array([7], pa.int64()),
                                      "dst": pa.array([7], pa.int64())}))
    out = clustering_coeff(e).to_pandas()
    assert len(out) == 0


def test_label_propagation_bruteforce(ray_session):
    """Fixed-round min-label propagation == a dense numpy simulation on
    a seeded random graph, and converges to connected components when
    rounds ≥ diameter (two disjoint cliques + an isolated node)."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        label_propagation_min,
    )

    def edges(pairs):
        return ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs], pa.int64()),
            "dst": pa.array([b for _, b in pairs], pa.int64()),
        }))

    # two triangles {0,1,2} and {3,4,5}, node 6 isolated
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    out = label_propagation_min(edges(pairs), 7, n_rounds=3).to_pandas()
    assert out.set_index("community")["size"].to_dict() == {0: 3, 3: 3, 6: 1}

    rng = np.random.RandomState(11)
    n = 30
    pairs = [(int(rng.randint(n)), int(rng.randint(n))) for _ in range(40)]
    rounds = 4
    # dense simulation
    lab = np.arange(n, dtype=np.int64)
    und = {(a, b) for a, b in pairs if a != b}
    for _ in range(rounds):
        nxt = lab.copy()
        for a, b in und:
            nxt[b] = min(nxt[b], lab[a])
            nxt[a] = min(nxt[a], lab[b])
        lab = nxt
    exp_c, exp_s = np.unique(lab, return_counts=True)
    out = label_propagation_min(edges(pairs), n, n_rounds=rounds).to_pandas()
    assert out["community"].tolist() == exp_c.tolist()
    assert out["size"].tolist() == exp_s.tolist()


def test_assortativity_known_values(ray_session):
    """r = 1 on a disjoint union of a triangle and an edge? No — exact
    values checked against the dense numpy Pearson correlation of the
    directed half-edge degree pairs, plus the star graph's r = −1."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        degree_assortativity,
    )

    def edges(pairs):
        return ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs], pa.int64()),
            "dst": pa.array([b for _, b in pairs], pa.int64()),
        }))

    # star: the hub (deg n-1) pairs only with leaves (deg 1) -> r = -1
    star = [(0, i) for i in range(1, 6)]
    out = degree_assortativity(edges(star)).to_pandas().iloc[0]
    assert out["n_edges"] == 5 and abs(out["assortativity"] + 1.0) < 1e-9

    rng = np.random.RandomState(5)
    n = 25
    pairs = [(int(rng.randint(n)), int(rng.randint(n))) for _ in range(60)]
    und = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    deg = np.zeros(n, dtype=np.int64)
    for a, b in und:
        deg[a] += 1
        deg[b] += 1
    xs = np.array([deg[a] for a, b in und] + [deg[b] for a, b in und],
                  dtype=np.float64)
    ys = np.array([deg[b] for a, b in und] + [deg[a] for a, b in und],
                  dtype=np.float64)
    exp = np.corrcoef(xs, ys)[0, 1]
    out = degree_assortativity(edges(pairs)).to_pandas().iloc[0]
    assert out["n_edges"] == len(und)
    assert abs(out["assortativity"] - exp) < 1e-6


def test_jaccard_link_pred_bruteforce(ray_session):
    """score="jaccard" == dense set computation (integer ppm floors,
    (ppm desc, x, y) ordering, adjacency exclusion) on a seeded graph."""
    import itertools

    import pandas as pd
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        common_neighbors_topk,
    )

    rng = np.random.RandomState(3)
    n = 22
    pairs = [(int(rng.randint(n)), int(rng.randint(n))) for _ in range(60)]
    neigh = {v: set() for v in range(n)}
    edges_set = set()
    for a, b in pairs:
        if a != b:
            neigh[a].add(b)
            neigh[b].add(a)
            edges_set.add((min(a, b), max(a, b)))
    rows = []
    for x, y in itertools.combinations(range(n), 2):
        if (x, y) in edges_set:
            continue
        c = len(neigh[x] & neigh[y])
        if c == 0:
            continue
        denom = len(neigh[x]) + len(neigh[y]) - c
        rows.append({"x": x, "y": y, "common_neighbors": c,
                     "jaccard_ppm": (1_000_000 * c) // denom})
    exp = (pd.DataFrame(rows)
           .sort_values(["jaccard_ppm", "x", "y"],
                        ascending=[False, True, True])
           .head(10).reset_index(drop=True))
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.int64()),
        "dst": pa.array([b for _, b in pairs], pa.int64()),
    }))
    got = common_neighbors_topk(ds, k=10, score="jaccard").to_pandas()
    pd.testing.assert_frame_equal(
        got.astype("int64"), exp.astype("int64"))
