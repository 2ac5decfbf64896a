"""PageRank pipeline (operator A10, nadry/ranker/PageRank.java:15-81).

Replicates the AS-IMPLEMENTED reference recurrence including its quirk
(SURVEY.md §2.5 A10): the "graph" is the incoming-links map keyed by target,
``outLinks`` is therefore the IN-degree of the contributing page
(PageRank.java:67), and contributors with no in-links of their own are
skipped (PageRank.java:63-66).  A ``textbook`` mode with true out-degrees is
available behind PageRankConfig.as_implemented=False.

Structure:
* heavy, data-parallel parts in Ray Data — url -> doc_int mapping (a pure
  hash, no broadcast join needed), corpus semi-join (broadcast sorted
  doc_int array; at 10^12-doc scale this becomes a Bloom filter), edge dedup
  + in-degree groupby;
* the rank iterations run vectorized on the driver over factorized COO edge
  arrays, summing contributions in sorted (dst, src) url order so the
  floating-point accumulation order matches the declared-deterministic
  oracle transcription exactly.  At cluster scale the same recurrence is one
  ``groupby(dst).sum`` + broadcast of the (small) rank vector per iteration;
  the driver-side loop is the single-node instantiation of that design.

Output: ``popularity/`` parquet (doc_int, url, popularity) inside the index
dir — the immutable-rewrite analog of the per-URL score write-back (S13,
MongoDBIndexStore.java:105-129); DocStore picks it up automatically.

Integer graph kernels (``pagerank_power_int`` onwards) take a Dataset of
int64 ``(src, dst)`` edges — the one edge schema.  The SQL-checked
queries feed them :func:`synthetic_edges`, the 3-out-link graph of
``documents.parquet`` whose rule :func:`link_targets` owns; the
undirected kernels canonicalise through :func:`undirected_edges` (no
self-loops, u < v, distinct), the directed ones through
:func:`directed_edges`, and collect with :func:`int_table`.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import PageRankConfig
from ..stages.blocks import block_ok, nonempty_refs


def url_doc_int_batch(batch: pa.Table) -> pa.Table:
    """Map src/dst urls to doc_ints (same derivation as prep_batch)."""
    if batch.num_rows == 0 or "src" not in batch.column_names:
        # zero-row blocks can arrive with an EMPTY schema — emit typed empty
        return pa.table({"src": pa.array([], pa.string()),
                         "dst": pa.array([], pa.string()),
                         "src_int": pa.array([], pa.int64()),
                         "dst_int": pa.array([], pa.int64())})
    out = {}
    for col in ("src", "dst"):
        urls = batch[col].to_pylist()
        out[col + "_int"] = pa.array(
            [int(hashlib.sha256(u.encode()).hexdigest()[:15], 16) for u in urls],
            pa.int64(),
        )
    return pa.table({**{c: batch[c] for c in batch.column_names}, **out})


def compute_pagerank(
    edges_ds: "ray.data.Dataset",
    corpus_doc_ints: np.ndarray,
    config: PageRankConfig | None = None,
) -> pa.Table:
    """edges_ds: Dataset with string columns (src, dst).  Returns a table
    (doc_int, url, popularity) over the nodes that received a rank (= targets
    with at least one in-link, matching the reference's graph keys)."""
    cfg = config or PageRankConfig()
    members = np.sort(np.asarray(corpus_doc_ints, dtype=np.int64))

    def semi_join(batch: pa.Table) -> pa.Table:
        # PageRank.java:27: drop edges whose TARGET is outside the corpus
        # (sources always come from corpus docs in the reference).
        v = batch["dst_int"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(members, v)
        idx[idx == members.size] = 0
        keep = members[idx] == v
        return batch.filter(pa.array(keep))

    mapped = edges_ds.map_batches(url_doc_int_batch, batch_format="pyarrow")
    mapped = mapped.map_batches(semi_join, batch_format="pyarrow")

    # Collect the (deduped) edge list; iterations are driver-vectorized.
    # NOTE: the reference does NOT dedup parallel edges (ArrayList append,
    # PageRank.java:30-33) — a doc linking twice contributes twice.  Keep
    # duplicates for parity.
    edge_tbl = mapped.select_columns(["src", "dst", "src_int", "dst_int"]) \
        .sort(["dst", "src"]).to_pandas()
    if len(edge_tbl) == 0:
        return pa.table(
            {"doc_int": pa.array([], pa.int64()),
             "url": pa.array([], pa.string()),
             "popularity": pa.array([], pa.float64())}
        )

    # nodes = targets with >= 1 in-link, iterated in sorted-url order
    dst_urls = edge_tbl["dst"].to_numpy()
    src_urls = edge_tbl["src"].to_numpy()
    node_urls = np.unique(dst_urls)          # sorted
    n = node_urls.size
    dst_idx = np.searchsorted(node_urls, dst_urls)
    # src contributes only when it is itself a graph key (has in-links)
    src_pos = np.searchsorted(node_urls, src_urls)
    src_pos_c = np.minimum(src_pos, n - 1)
    src_in_graph = node_urls[src_pos_c] == src_urls
    src_idx = src_pos_c

    indeg = np.bincount(dst_idx, minlength=n).astype(np.float64)

    if cfg.as_implemented:
        divisor = indeg  # the quirk: divide by the contributor's IN-degree
    else:
        # textbook: true out-degree over the semi-joined edge set
        all_src = np.unique(src_urls)
        outdeg_by_src = np.bincount(
            np.searchsorted(all_src, src_urls), minlength=all_src.size
        )
        divisor = np.zeros(n)
        pos = np.searchsorted(all_src, node_urls)
        pos_c = np.minimum(pos, all_src.size - 1)
        ok = all_src[pos_c] == node_urls
        divisor[ok] = outdeg_by_src[pos_c][ok]

    e_mask = src_in_graph
    e_src = src_idx[e_mask]
    e_dst = dst_idx[e_mask]

    ranks = np.full(n, 1.0 / n)
    for _ in range(cfg.max_iter):
        acc = np.zeros(n)
        np.add.at(acc, e_dst, ranks[e_src] / divisor[e_src])
        new_ranks = (1 - cfg.damping) / n + cfg.damping * acc
        diff = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if diff < cfg.tolerance:
            break

    node_ints = np.array(
        [int(hashlib.sha256(u.encode()).hexdigest()[:15], 16) for u in node_urls],
        dtype=np.int64,
    )
    return pa.table(
        {
            "doc_int": pa.array(node_ints, pa.int64()),
            "url": pa.array(node_urls, pa.string()),
            "popularity": pa.array(ranks, pa.float64()),
        }
    )


def compute_pagerank_distributed(
    edges_ds: "ray.data.Dataset",
    corpus_doc_ints: np.ndarray,
    config: PageRankConfig | None = None,
) -> pa.Table:
    """Distributed PageRank: the EDGES never leave the cluster.

    The Dataset API can't express an iterative fixed point without one full
    job launch per iteration (~1 s of fixed cost × 100 iterations), so this
    is the sanctioned drop-to-raw-Ray case (task brief: "iterative
    algorithms"): the semi-joined edge blocks are pinned in the object store
    once (``to_arrow_refs``), and each iteration fans out one lightweight
    ``@ray.remote`` task per block computing SPARSE partial contribution
    sums against the broadcast rank vector; the driver holds only the
    O(nodes) rank state (the same small side every broadcast-join in this
    repo keeps driver-side) and combines partials in fixed block order, so
    results are deterministic.

    Same as-implemented recurrence as :func:`compute_pagerank`; summation
    ORDER differs from the oracle-parity driver version, so scores agree to
    float tolerance rather than bit-exactly — conformance keeps using the
    driver version, this is the 100 TB path.
    """
    import ray

    cfg = config or PageRankConfig()
    members = np.sort(np.asarray(corpus_doc_ints, dtype=np.int64))

    def semi_join(batch: pa.Table) -> pa.Table:
        v = batch["dst_int"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(members, v)
        idx[idx == members.size] = 0
        keep = members[idx] == v
        return batch.filter(pa.array(keep))

    mapped = (
        edges_ds.map_batches(url_doc_int_batch, batch_format="pyarrow")
        .map_batches(semi_join, batch_format="pyarrow")
        .select_columns(["src", "dst"])
    )
    block_refs = nonempty_refs(mapped, ["src", "dst"])

    @ray.remote
    def node_partial(tbl: pa.Table):
        if not block_ok(tbl, "src", "dst"):   # empty-schema block guard
            e = np.array([], dtype=object)
            return e, e
        # hash-based Arrow unique (C++), then only the per-block unique set
        # materializes as Python strings — never the full column
        return (
            pc.unique(tbl["dst"].combine_chunks()).to_numpy(
                zero_copy_only=False),
            pc.unique(tbl["src"].combine_chunks()).to_numpy(
                zero_copy_only=False),
        )

    parts = ray.get([node_partial.remote(r) for r in block_refs])
    if not parts or all(p[0].size == 0 for p in parts):
        return pa.table(
            {"doc_int": pa.array([], pa.int64()),
             "url": pa.array([], pa.string()),
             "popularity": pa.array([], pa.float64())}
        )
    node_urls = np.unique(np.concatenate([p[0] for p in parts]))
    n = node_urls.size
    nodes_ref = ray.put(node_urls)

    @ray.remote
    def edge_arrays(tbl: pa.Table, nodes):
        """Factorize one block's edges against the global node list; keep
        only edges whose src is itself a graph key (PageRank.java:63-66).
        Also emit in-degree AND node-out-degree partials so both divisor
        modes (quirk / textbook) work without another pass."""
        if not block_ok(tbl, "src", "dst"):   # empty-schema block guard
            e = np.array([], dtype=np.int64)
            z = np.zeros(nodes.size, dtype=np.int64)
            return e, e, z, z
        # pc.index_in = Arrow hash lookup against the broadcast node list —
        # the factorization runs entirely in C++; every dst is in `nodes` by
        # construction (nodes = union of per-block dst uniques), a null src
        # index means the src is not itself a graph key (PageRank.java:63-66)
        nodes_pa = pa.array(nodes)
        dst_idx = pc.fill_null(
            pc.index_in(tbl["dst"].combine_chunks(), value_set=nodes_pa), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        if dst_idx.size and dst_idx.min() < 0:
            raise ValueError("edge_arrays: dst outside the global node list")
        src_raw = pc.fill_null(
            pc.index_in(tbl["src"].combine_chunks(), value_set=nodes_pa), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        in_graph = src_raw >= 0
        indeg_part = np.bincount(dst_idx, minlength=nodes.size)
        outdeg_part = np.bincount(src_raw[in_graph], minlength=nodes.size)
        return dst_idx[in_graph], src_raw[in_graph], indeg_part, outdeg_part

    fact = ray.get(
        [edge_arrays.remote(r, nodes_ref) for r in block_refs]
    )
    indeg = np.zeros(n, dtype=np.float64)
    outdeg = np.zeros(n, dtype=np.float64)
    for _, _, ipart, opart in fact:
        indeg += ipart
        outdeg += opart
    # as-implemented divisor = contributor's IN-degree (the reference quirk);
    # textbook = contributor's true out-degree over the semi-joined edges
    divisor = indeg if cfg.as_implemented else outdeg
    edge_refs = [
        (ray.put(d), ray.put(s)) for d, s, _, _ in fact if d.size
    ]
    divisor_ref = ray.put(divisor)

    @ray.remote
    def contrib(dst_ref, src_ref, ranks, divisor):
        d, s = dst_ref, src_ref
        vals = ranks[s] / divisor[s]
        uniq, inv = np.unique(d, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inv, vals)
        return uniq, acc

    ranks = np.full(n, 1.0 / n)
    for _ in range(cfg.max_iter):
        rref = ray.put(ranks)
        partials = ray.get(
            [contrib.remote(d, s, rref, divisor_ref) for d, s in edge_refs]
        )
        acc = np.zeros(n)
        for uniq, vals in partials:   # fixed block order -> deterministic
            acc[uniq] += vals
        new_ranks = (1 - cfg.damping) / n + cfg.damping * acc
        diff = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if diff < cfg.tolerance:
            break

    node_ints = np.array(
        [int(hashlib.sha256(u.encode()).hexdigest()[:15], 16) for u in node_urls],
        dtype=np.int64,
    )
    return pa.table(
        {
            "doc_int": pa.array(node_ints, pa.int64()),
            "url": pa.array(node_urls, pa.string()),
            "popularity": pa.array(ranks, pa.float64()),
        }
    )


def run_pagerank(
    edges_path_or_ds,
    index_dir: str,
    config: PageRankConfig | None = None,
    method: str = "distributed",
) -> pa.Table:
    """Full job: load edges, semi-join against the built index's documents,
    iterate, write popularity/ into the index (S13 write-back analog).

    ``method="distributed"`` (default, the 100 TB path) keeps edges in the
    object store and fans out per-block contribution tasks;
    ``method="driver"`` is the oracle-parity mode whose summation order is
    bit-identical to the transcribed reference recurrence (conformance
    tests use it; the two agree to ~1e-10 relative — test_pagerank)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    if isinstance(edges_path_or_ds, str):
        edges_ds = ray.data.read_parquet(edges_path_or_ds)
    else:
        edges_ds = edges_path_or_ds

    doc_ints = (
        pads.dataset(os.path.join(index_dir, "prepped"), format="parquet")
        .to_table(columns=["doc_int"])["doc_int"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    compute = (
        compute_pagerank_distributed if method == "distributed"
        else compute_pagerank
    )
    result = compute(edges_ds, doc_ints, config)
    out_dir = os.path.join(index_dir, "popularity")
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(result, os.path.join(out_dir, "popularity.parquet"))
    return result


def link_targets(ids, n: int, quadratic: bool = True):
    """The synthetic link rule: doc ``i`` links to ``(31·i² + 97k) mod n``
    for k = 1..3 (``quadratic=False``: ``31·i`` — a union of three
    bijections, so every in-degree is 3; the quadratic rule skews them).
    Returns int64 ``(src, dst)`` arrays, three rows per id in k order."""
    src = np.repeat(np.asarray(ids, dtype=np.int64), 3)
    ks = np.tile(np.array([1, 2, 3], dtype=np.int64), len(ids))
    base = src * src if quadratic else src
    return src, (base * 31 + ks * 97) % n


def synthetic_edges(sf_dir: str, quadratic: bool = True):
    """``(Dataset[src, dst], n)``: :func:`link_targets` over every doc_id of
    ``documents.parquet``, one map over a fresh read (``n`` is its
    metadata-only count), so the edges come in the read's batch order."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = int(docs.count())

    def link_batch(batch: pa.Table) -> pa.Table:
        src, dst = link_targets(
            batch["doc_id"].to_numpy(zero_copy_only=False), n, quadratic)
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return docs.map_batches(link_batch, batch_format="pyarrow"), n


def _edge_uv(batch: pa.Table, orient: str) -> pa.Table:
    """``(src, dst)`` edges without self-loops as int64 (u, v): ``orient``
    "undirected" is (min, max), "forward" (src, dst), "reverse" (dst, src)."""
    s = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = s != d
    s, d = s[keep], d[keep]
    if orient == "undirected":
        s, d = np.minimum(s, d), np.maximum(s, d)
    elif orient == "reverse":
        s, d = d, s
    return pa.table({"u": pa.array(s, pa.int64()), "v": pa.array(d, pa.int64())})


def _distinct_edges(edges_ds, orient: str) -> "ray.data.Dataset":
    return (
        edges_ds.map_batches(_edge_uv, fn_kwargs={"orient": orient},
                             batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])
        .materialize()
    )


def undirected_edges(edges_ds) -> "ray.data.Dataset":
    """The simple undirected graph of ``(src, dst)`` edges: self-loops
    dropped, each edge as (u, v) with u < v, distinct (one groupby-dedup
    exchange), materialized."""
    return _distinct_edges(edges_ds, "undirected")


def directed_edges(edges_ds, reverse: bool = False) -> "ray.data.Dataset":
    """The distinct directed edges of ``(src, dst)`` edges as (u, v) with
    u -> v along the edge (``reverse=True``: against it), self-loops
    dropped, materialized — :func:`undirected_edges` without the min/max."""
    return _distinct_edges(edges_ds, "reverse" if reverse else "forward")


def int_table(ds, cols: list[str]) -> pa.Table:
    """Collect the int64 ``cols`` of a Dataset on the driver; the
    empty-schema blocks an empty input leaves are skipped, so no rows is
    a 0-row int64 table."""
    return pa.concat_tables(
        [pa.table({c: pa.array([], pa.int64()) for c in cols})]
        + [t.select(cols) for t in ray.get(ds.to_arrow_refs())
           if cols[0] in t.schema.names])


def pagerank_power_int(
    edges_ds: "ray.data.Dataset",
    n_nodes: int,
    damping: float = 0.85,
    n_iter: int = 5,
    restart_node: int | None = None,
) -> pa.Table:
    """Textbook power-iteration PageRank over integer nodes 0..n_nodes-1
    with a FIXED iteration count — the SQL-checkable variant (the driver
    oracle unrolls the same recurrence as chained CTEs).

    ``restart_node`` switches the teleport vector from uniform to a
    single-node indicator — personalized PageRank / random walk with
    restart (Haveliwala 2002): rank = (1-d)·e_s + d·AᵀD⁻¹·rank, started
    from e_s.  ``None`` keeps the classic uniform teleport bit-exactly.

    Same distributed shape as :func:`compute_pagerank_distributed`: edge
    blocks pinned in the object store once, per-iteration raw tasks compute
    sparse partial contribution sums against the broadcast rank vector, the
    driver holds only the O(n) rank state.  Parallel edges count multiply;
    nodes with out-degree 0 simply leak mass (matched by the SQL oracle).
    """
    import ray

    block_refs = nonempty_refs(
        edges_ds.select_columns(["src", "dst"]), ["src", "dst"]
    )

    @ray.remote
    def factorize(tbl: pa.Table):
        if not block_ok(tbl, "src", "dst"):   # empty-schema block guard
            e = np.array([], dtype=np.int64)
            return e, e, np.zeros(n_nodes, dtype=np.int64)
        src = tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        # the 0..n-1 contiguity precondition, enforced (an out-of-range src
        # would otherwise surface as an opaque bincount broadcast error)
        for name, arr in (("src", src), ("dst", dst)):
            if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
                raise ValueError(
                    f"pagerank_power_int: {name} ids must be in "
                    f"[0, {n_nodes}); got range "
                    f"[{arr.min()}, {arr.max()}]"
                )
        outdeg_part = np.bincount(src, minlength=n_nodes)
        return src, dst, outdeg_part

    fact = ray.get([factorize.remote(r) for r in block_refs])
    outdeg = np.zeros(n_nodes, dtype=np.float64)
    for _, _, part in fact:
        outdeg += part
    edge_refs = [(ray.put(s), ray.put(d)) for s, d, _ in fact if s.size]
    div_ref = ray.put(np.maximum(outdeg, 1.0))  # od=0 nodes never contribute

    @ray.remote
    def contrib(src_ref, dst_ref, ranks, divisor):
        vals = ranks[src_ref] / divisor[src_ref]
        uniq, inv = np.unique(dst_ref, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inv, vals)
        return uniq, acc

    if restart_node is None:
        teleport = np.full(n_nodes, (1 - damping) / n_nodes)
        ranks = np.full(n_nodes, 1.0 / n_nodes)
    else:
        e_s = np.zeros(n_nodes)
        e_s[restart_node] = 1.0
        teleport = (1 - damping) * e_s
        ranks = e_s.copy()
    for _ in range(n_iter):
        rref = ray.put(ranks)
        partials = ray.get(
            [contrib.remote(s, d, rref, div_ref) for s, d in edge_refs]
        )
        acc = np.zeros(n_nodes)
        for uniq, vals in partials:   # fixed block order -> deterministic
            acc[uniq] += vals
        ranks = teleport + damping * acc

    return pa.table(
        {
            "node": pa.array(np.arange(n_nodes, dtype=np.int64), pa.int64()),
            "rank": pa.array(np.round(ranks, 9), pa.float64()),
        }
    )


def pagerank_quirk_int(
    edges_ds: "ray.data.Dataset",
    n_nodes: int,
    damping: float = 0.85,
    n_iter: int = 5,
) -> pa.Table:
    """Fixed-iteration variant of the AS-IMPLEMENTED reference recurrence
    (``nadry/ranker/PageRank.java:44-81``) over integer nodes — the
    SQL-checkable complement to the converge-to-tolerance ``pagerank``
    pipeline (VERDICT r3 #5).  Reference quirks preserved exactly:

    * the graph is keyed by TARGET: the node set is the targets with
      >= 1 in-link (``PageRank.java:27-33``);
    * a contribution is divided by the contributor's **IN-degree**, not
      its out-degree (``PageRank.java:67``);
    * contributors that have no in-links of their own are skipped
      (``PageRank.java:63-66``) — modeled as rank 0 for non-nodes;
    * parallel edges contribute multiply (ArrayList append, no dedup).

    Only the stop rule differs (fixed ``n_iter`` instead of tolerance) so
    a DuckDB oracle can unroll the iterations as chained CTEs.  Same
    distributed shape as :func:`pagerank_power_int`: edge blocks pinned
    once, per-iteration sparse partial sums, O(n) driver state."""
    import ray

    block_refs = nonempty_refs(
        edges_ds.select_columns(["src", "dst"]), ["src", "dst"]
    )

    @ray.remote
    def factorize(tbl: pa.Table):
        if not block_ok(tbl, "src", "dst"):   # empty-schema block guard
            e = np.array([], dtype=np.int64)
            return e, e, np.zeros(n_nodes, dtype=np.int64)
        src = tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        for name, arr in (("src", src), ("dst", dst)):
            if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
                raise ValueError(
                    f"pagerank_quirk_int: {name} ids must be in "
                    f"[0, {n_nodes}); got range "
                    f"[{arr.min()}, {arr.max()}]"
                )
        indeg_part = np.bincount(dst, minlength=n_nodes)
        return src, dst, indeg_part

    fact = ray.get([factorize.remote(r) for r in block_refs])
    indeg = np.zeros(n_nodes, dtype=np.float64)
    for _, _, part in fact:
        indeg += part
    node_mask = indeg > 0
    n_graph = int(node_mask.sum())
    if n_graph == 0:
        return pa.table(
            {"node": pa.array([], pa.int64()),
             "rank": pa.array([], pa.float64())}
        )
    edge_refs = [(ray.put(s), ray.put(d)) for s, d, _ in fact if s.size]
    # divisor = contributor's in-degree (THE quirk); non-nodes hold rank 0
    # in the dense vector, so their skipped contribution falls out as 0/1
    div_ref = ray.put(np.maximum(indeg, 1.0))

    @ray.remote
    def contrib(src_ref, dst_ref, ranks, divisor):
        vals = ranks[src_ref] / divisor[src_ref]
        uniq, inv = np.unique(dst_ref, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inv, vals)
        return uniq, acc

    ranks = np.where(node_mask, 1.0 / n_graph, 0.0)
    for _ in range(n_iter):
        rref = ray.put(ranks)
        partials = ray.get(
            [contrib.remote(s, d, rref, div_ref) for s, d in edge_refs]
        )
        acc = np.zeros(n_nodes)
        for uniq, vals in partials:   # fixed block order -> deterministic
            acc[uniq] += vals
        ranks = np.where(
            node_mask, (1 - damping) / n_graph + damping * acc, 0.0
        )

    nodes = np.flatnonzero(node_mask).astype(np.int64)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "rank": pa.array(np.round(ranks[nodes], 9), pa.float64()),
        }
    )


def hits_int(
    edges_ds: "ray.data.Dataset",
    n_nodes: int,
    n_iter: int = 5,
) -> pa.Table:
    """Kleinberg HITS (hubs & authorities, JACM 1999) over integer nodes
    0..n_nodes-1 with a FIXED iteration count — the link-analysis
    complement to PageRank (the reference only has PageRank,
    ranker/PageRank.java).  Per iteration: authority = in-neighbor hub
    sum, L2-normalized; then hub = out-neighbor authority sum,
    L2-normalized; h0 = all ones.

    Same distributed shape as :func:`pagerank_power_int`: edge blocks are
    factorized once and pinned in the object store; each half-iteration is
    a wave of sparse partial-sum tasks against the broadcast score vector;
    the driver holds only the two O(n) vectors.  Parallel edges count
    multiply (matched by the SQL oracle's row-wise sum).

    Returns (node, hub, authority) with scores rounded to 9 decimals.
    """
    import ray

    block_refs = nonempty_refs(
        edges_ds.select_columns(["src", "dst"]), ["src", "dst"]
    )

    @ray.remote
    def factorize(tbl: pa.Table):
        if not block_ok(tbl, "src", "dst"):   # empty-schema block guard
            e = np.array([], dtype=np.int64)
            return e, e
        src = tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        for name, arr in (("src", src), ("dst", dst)):
            if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
                raise ValueError(
                    f"hits_int: {name} ids must be in [0, {n_nodes}); "
                    f"got range [{arr.min()}, {arr.max()}]"
                )
        return src, dst

    fact = ray.get([factorize.remote(r) for r in block_refs])
    edge_refs = [(ray.put(s), ray.put(d)) for s, d in fact if s.size]

    @ray.remote
    def gather(from_ref, to_ref, scores):
        """Partial Σ scores[from] grouped by to (sparse)."""
        vals = scores[from_ref]
        uniq, inv = np.unique(to_ref, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inv, vals)
        return uniq, acc

    def wave(score_vec: np.ndarray, direction: str) -> np.ndarray:
        ref = ray.put(score_vec)
        parts = ray.get([
            gather.remote(s if direction == "fwd" else d,
                          d if direction == "fwd" else s, ref)
            for s, d in edge_refs
        ])
        acc = np.zeros(n_nodes)
        for uniq, vals in parts:  # fixed block order -> deterministic
            acc[uniq] += vals
        norm = float(np.sqrt(np.dot(acc, acc)))
        return acc / norm if norm > 0 else acc

    hub = np.ones(n_nodes, dtype=np.float64)
    auth = np.zeros(n_nodes, dtype=np.float64)
    for _ in range(n_iter):
        auth = wave(hub, "fwd")    # authority: hub mass flows src -> dst
        hub = wave(auth, "rev")    # hub: authority mass flows dst -> src

    return pa.table(
        {
            "node": pa.array(np.arange(n_nodes, dtype=np.int64), pa.int64()),
            "hub": pa.array(np.round(hub, 9), pa.float64()),
            "authority": pa.array(np.round(auth, 9), pa.float64()),
        }
    )


def triangle_count(edges_ds):
    """Distributed triangle counting (node-iterator with degree
    orientation): undirect + dedup the edge list, orient every edge from
    the lower (degree, node) endpoint to the higher — bounding per-node
    wedge fan-out by O(sqrt(m)) on any graph — generate wedges per
    oriented source with one groupby, and close them against the edge
    set.  The closing membership probe is a BROADCAST sorted u64-packed
    edge array here (the graph key set; at 10^12 edges swap in the hash
    join on (y, z) — the probe is the op's only exchange besides the
    wedge groupby).

    Returns an Arrow table (n_nodes, n_edges, n_triangles) — one row.
    """
    et = int_table(undirected_edges(edges_ds), ["u", "v"])
    uu = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    vv = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_edges = int(uu.size)
    if n_edges == 0:
        return pa.table(
            {"n_nodes": pa.array([0], pa.int64()),
             "n_edges": pa.array([0], pa.int64()),
             "n_triangles": pa.array([0], pa.int64())}
        )
    nodes, counts = np.unique(np.concatenate([uu, vv]), return_counts=True)
    n_nodes = int(nodes.size)
    # degree-orientation rank: (degree, node) lexicographic
    deg_ref = ray.put((nodes, counts))
    # packed closing-edge key set (ORIENTED edges, so each triangle
    # closes exactly once)
    du = counts[np.searchsorted(nodes, uu)]
    dv = counts[np.searchsorted(nodes, vv)]
    fwd = (du < dv) | ((du == dv) & (uu < vv))
    a = np.where(fwd, uu, vv)
    b = np.where(fwd, vv, uu)
    shift = np.int64(max(int(nodes.max()) + 1, 1))
    keys_ref = ray.put(np.sort(a * shift + b))

    def wedges_closed(group: pa.Table) -> pa.Table:
        nds, cnts = ray.get(deg_ref)
        keys = ray.get(keys_ref)
        bs = group["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        # neighbors ordered by orientation rank so each wedge is emitted
        # once with its smaller-rank endpoint first
        db = cnts[np.searchsorted(nds, bs)]
        order = np.lexsort((bs, db))
        bs = bs[order]
        m = bs.size
        if m < 2:
            return pa.table({"n": pa.array([0], pa.int64())})
        ii, jj = np.triu_indices(m, k=1)
        wk = bs[ii] * shift + bs[jj]
        idx = np.searchsorted(keys, wk)
        idx[idx == keys.size] = 0
        n_closed = int((keys[idx] == wk).sum())
        return pa.table({"n": pa.array([n_closed], pa.int64())})

    parts = (
        ray.data.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                      "b": pa.array(b, pa.int64())}))
        .groupby("a")
        .map_groups(wedges_closed, batch_format="pyarrow")
    )
    total = int(sum(
        t["n"].to_numpy(zero_copy_only=False).sum()
        for t in ray.get(parts.to_arrow_refs()) if t.num_rows
    ))
    return pa.table(
        {"n_nodes": pa.array([n_nodes], pa.int64()),
         "n_edges": pa.array([n_edges], pa.int64()),
         "n_triangles": pa.array([total], pa.int64())}
    )


def kcore_nodes(edges_ds, k: int = 3, n_rounds: int = 5):
    """Fixed-round k-core peeling: repeatedly drop nodes of undirected
    degree < ``k`` (``n_rounds`` synchronous rounds — the pagerank_power
    fixed-iteration idiom, so the SQL oracle unrolls the same rounds as
    chained MATERIALIZED CTEs; run more rounds to converge fully).

    Distributed shape per round: one degree groupby over the surviving
    edges + one broadcast survivor filter (survivor set ≤ node count and
    shrinking); the edge list itself never collects on the driver.
    Returns (node, deg) over the final surviving edge subgraph, sorted by
    node.
    """
    from ray.data.aggregate import Sum

    def degree_partial(batch: pa.Table) -> pa.Table:
        nodes = np.concatenate([
            batch["u"].to_numpy(zero_copy_only=False).astype(np.int64),
            batch["v"].to_numpy(zero_copy_only=False).astype(np.int64),
        ])
        un, ct = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(un, pa.int64()),
                         "deg": pa.array(ct, pa.int64())})

    def degrees_of(ds):
        return int_table(
            ds.map_batches(degree_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("deg", alias_name="deg")),
            ["node", "deg"])

    cur = undirected_edges(edges_ds)
    for _ in range(n_rounds):
        deg_tbl = degrees_of(cur)
        nd = deg_tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        dg = deg_tbl["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        alive = np.sort(nd[dg >= k])
        alive_ref = ray.put(alive)

        def alive_filter(batch: pa.Table, ref=alive_ref) -> pa.Table:
            al = ray.get(ref)
            if al.size == 0:
                return batch.slice(0, 0)
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            iu = np.searchsorted(al, u)
            iu[iu == al.size] = 0
            iv = np.searchsorted(al, v)
            iv[iv == al.size] = 0
            return batch.filter(pa.array((al[iu] == u) & (al[iv] == v)))

        cur = cur.map_batches(alive_filter,
                              batch_format="pyarrow").materialize()

    return degrees_of(cur).sort_by("node")


def common_neighbors_topk(edges_ds, k: int = 20, *, cap: int = 10_000,
                          score: str = "cn"):
    """Link prediction by common-neighbor count (the integer-exact core
    of Adamic-Adar — the 1/ln(deg) weighting is deliberately omitted so
    the SQL oracle needs no libm parity): top-k NON-adjacent node pairs
    by |N(x) ∩ N(y)|, ties (count DESC, x, y).

    ``score="jaccard"`` normalizes by the neighborhood union —
    |N∩| / (deg(x) + deg(y) − |N∩|) — as FLOOR(10⁶·c/denom) integer
    ppm, never a float: the union denominators are frequently powers
    of two, whose exact 1e-6 halves round half-even in numpy but
    half-away in DuckDB (measured), so a rounded-double column would
    hash-diverge.  Ranks by (jaccard_ppm DESC, x, y), returns
    (x, y, common_neighbors, jaccard_ppm).  Degrees come from the same
    O(n) driver arrays the other graph ops hold.

    Distributed shape: adjacency = both edge directions grouped per
    node; each group emits its neighbor pairs (wedges) — quadratic in
    degree, so hub groups above ``cap`` pairs are truncated with a log
    line (the candidate_pairs contract); the pair groupby sums wedge
    counts; existing edges are masked with a broadcast packed-key probe;
    the driver sees only the k-row result and the edge key array.
    """
    et = int_table(undirected_edges(edges_ds), ["u", "v"])
    uu = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    vv = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    if uu.size == 0:
        cols = {"x": pa.array([], pa.int64()),
                "y": pa.array([], pa.int64()),
                "common_neighbors": pa.array([], pa.int64())}
        if score == "jaccard":
            cols["jaccard_ppm"] = pa.array([], pa.int64())
        return pa.table(cols)
    shift = np.int64(max(int(max(uu.max(), vv.max())) + 1, 1))
    ekeys_ref = ray.put(np.sort(uu * shift + vv))

    adj = ray.data.from_arrow(pa.table({
        "n": pa.array(np.concatenate([uu, vv]), pa.int64()),
        "m": pa.array(np.concatenate([vv, uu]), pa.int64()),
    }))

    def wedges(group: pa.Table) -> pa.Table:
        ms = np.sort(
            group["m"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        if ms.size < 2:
            return pa.table({"x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        ii, jj = np.triu_indices(ms.size, k=1)
        if ii.size > cap:
            print(f"common_neighbors_topk: truncating hub wedge set "
                  f"{ii.size} -> {cap}")
            ii, jj = ii[:cap], jj[:cap]
        return pa.table({"x": pa.array(ms[ii], pa.int64()),
                         "y": pa.array(ms[jj], pa.int64()),
                         "c": pa.array(np.ones(ii.size, np.int64),
                                       pa.int64())})

    from ray.data.aggregate import Sum

    pairs = (
        adj.groupby("n")
        .map_groups(wedges, batch_format="pyarrow")
        .groupby(["x", "y"])
        .aggregate(Sum("c", alias_name="c"))
    )

    def drop_edges(batch: pa.Table) -> pa.Table:
        ek = ray.get(ekeys_ref)
        if ek.size == 0:
            return batch
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        kk = x * shift + y
        idx = np.searchsorted(ek, kk)
        idx[idx == ek.size] = 0
        return batch.filter(pa.array(ek[idx] != kk))

    out = int_table(pairs.map_batches(drop_edges, batch_format="pyarrow"),
                    ["x", "y", "c"])
    if score == "jaccard":
        nodes, counts = np.unique(np.concatenate([uu, vv]),
                                  return_counts=True)
        df = out.to_pandas()
        dx = counts[np.searchsorted(nodes, df["x"].to_numpy(np.int64))]
        dy = counts[np.searchsorted(nodes, df["y"].to_numpy(np.int64))]
        c = df["c"].to_numpy(np.int64)
        df["jaccard_ppm"] = (1_000_000 * c) // (dx + dy - c)
        df = df.sort_values(["jaccard_ppm", "x", "y"],
                            ascending=[False, True, True]).head(k)
        df = df.reset_index(drop=True)
        return pa.table({
            "x": pa.array(df["x"].to_numpy(np.int64), pa.int64()),
            "y": pa.array(df["y"].to_numpy(np.int64), pa.int64()),
            "common_neighbors": pa.array(df["c"].to_numpy(np.int64),
                                         pa.int64()),
            "jaccard_ppm": pa.array(df["jaccard_ppm"].to_numpy(np.int64),
                                    pa.int64()),
        })

    df = out.to_pandas().sort_values(
        ["c", "x", "y"], ascending=[False, True, True]
    ).head(k).reset_index(drop=True)
    return pa.table({
        "x": pa.array(df["x"].to_numpy(np.int64), pa.int64()),
        "y": pa.array(df["y"].to_numpy(np.int64), pa.int64()),
        "common_neighbors": pa.array(df["c"].to_numpy(np.int64),
                                     pa.int64()),
    })


def bfs_depths(edges_ds, source: int = 0, n_rounds: int = 4):
    """Fixed-round synchronous BFS over the undirected link graph:
    shortest-hop depth from ``source`` for every node reached within
    ``n_rounds`` rounds (the pagerank_power fixed-iteration idiom — the
    SQL oracle unrolls the same rounds as chained MATERIALIZED CTEs).

    Distributed shape per round: the frontier node set broadcasts via
    ``ray.put`` (frontier ≤ node count; the same bounded-broadcast
    contract as kcore_nodes' survivor set — at 10^12 edges the frontier
    probe becomes the bloom/filtered semi-join exchange documented in
    bloom_semi_join) and one map_batches over the edge list emits
    per-batch-deduped neighbor partials; a node-keyed groupby dedups
    globally.  The edge list itself never collects on the driver; the
    driver holds only node-set-bounded arrays.  Returns (node, depth),
    sorted by node.
    """
    nodes, depth = _frontier_depths(undirected_edges(edges_ds), source,
                                    n_rounds, both_ends=True)
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "depth": pa.array(depth, pa.int64())})


def _frontier_depths(edges, source: int, n_rounds: int, both_ends: bool):
    """Fixed-round frontier expansion from ``source`` over a materialized
    (u, v) edge Dataset: each round broadcasts the sorted frontier, one
    map_batches emits per-batch-deduped neighbours — v of every u in the
    frontier and, with ``both_ends``, u of every v — and a node groupby
    dedups them globally.  Returns (nodes, hop depths) sorted by node."""
    visited_nodes = np.array([source], dtype=np.int64)
    visited_depth = np.array([0], dtype=np.int64)
    frontier = visited_nodes

    for r in range(1, n_rounds + 1):
        if frontier.size == 0:
            break
        fr_ref = ray.put(np.sort(frontier))

        def neigh_partial(batch: pa.Table, ref=fr_ref) -> pa.Table:
            fr = ray.get(ref)
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            iu = np.searchsorted(fr, u)
            iu[iu == fr.size] = 0
            nodes = v[fr[iu] == u]
            if both_ends:
                iv = np.searchsorted(fr, v)
                iv[iv == fr.size] = 0
                nodes = np.concatenate([nodes, u[fr[iv] == v]])
            return pa.table({"node": pa.array(np.unique(nodes), pa.int64())})

        reached = int_table(
            edges.map_batches(neigh_partial, batch_format="pyarrow")
            .groupby("node")
            .count(),
            ["node"],
        )["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        fresh = reached[~np.isin(reached, visited_nodes)]
        visited_nodes = np.concatenate([visited_nodes, fresh])
        visited_depth = np.concatenate(
            [visited_depth, np.full(fresh.size, r, dtype=np.int64)]
        )
        frontier = fresh

    order = np.argsort(visited_nodes, kind="stable")
    return visited_nodes[order], visited_depth[order]


def multi_bfs_closeness(edges_ds, seeds: list[int], n_rounds: int = 4):
    """Bounded-radius closeness centrality for a SEED SET: one
    simultaneous multi-source BFS (all seeds advance in the same
    ``n_rounds`` synchronous rounds over ONE deduped undirected edge
    materialization — not |seeds| separate traversals), then per seed
    closeness over the radius-``n_rounds`` ball, reported as the exact
    integer micro-ratio (n_reached - 1) * 10^6 // sum_depth so no
    quotient ever rounds.

    Distributed shape per round: the per-seed frontiers broadcast as one
    (seed, node) array via ``ray.put`` (bounded by |seeds| x nodes, the
    bfs_depths contract); one map_batches over the edge list emits
    per-batch-deduped (seed, neighbor) partials; a pair-keyed groupby
    dedups globally.  The driver holds only seed-set-bounded visited
    arrays.  Returns (seed, n_reached, sum_depth, closeness_micro)
    sorted by seed.
    """
    edges = undirected_edges(edges_ds)

    seeds_arr = np.array(sorted(set(seeds)), dtype=np.int64)
    # per-seed visited sets + depth sums, all driver-side and
    # seed x ball-size bounded
    visited = {int(s): np.array([s], dtype=np.int64) for s in seeds_arr}
    sum_depth = {int(s): 0 for s in seeds_arr}
    frontier = {int(s): np.array([s], dtype=np.int64) for s in seeds_arr}

    for r in range(1, n_rounds + 1):
        live = [s for s, f in frontier.items() if f.size]
        if not live:
            break
        fs = np.concatenate([np.full(frontier[s].size, s, np.int64)
                             for s in live])
        fn = np.concatenate([frontier[s] for s in live])
        # symmetric 31-bit packing (31+31 = 62 bits, fits int64 for BOTH
        # components; the previous 40-bit node shift silently overflowed
        # for any seed id >= 2^23), with the bound enforced loudly
        if fs.size and (min(fs.min(), fn.min()) < 0
                        or max(fs.max(), fn.max()) >= (1 << 31)):
            raise ValueError(
                "multi_bfs_closeness: seed/node ids must be in [0, 2^31) "
                f"for pair packing; got seed range [{fs.min()}, {fs.max()}], "
                f"node range [{fn.min()}, {fn.max()}]"
            )
        comp = fs * (1 << 31) + fn
        fr_ref = ray.put(np.sort(comp))

        def neigh_partial(batch: pa.Table, ref=fr_ref) -> pa.Table:
            fr = ray.get(ref)
            fr_seed = fr >> 31
            fr_node = fr & ((1 << 31) - 1)
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            # probe each endpoint against every live seed's frontier:
            # iterate seeds (tiny), vectorize over the edge batch
            out_s, out_n = [], []
            for s in np.unique(fr_seed):
                nodes = fr_node[fr_seed == s]
                hit_u = np.isin(u, nodes)
                hit_v = np.isin(v, nodes)
                reach = np.unique(np.concatenate([v[hit_u], u[hit_v]]))
                out_s.append(np.full(reach.size, s, np.int64))
                out_n.append(reach)
            return pa.table({
                "seed": pa.array(np.concatenate(out_s) if out_s
                                 else np.array([], np.int64), pa.int64()),
                "node": pa.array(np.concatenate(out_n) if out_n
                                 else np.array([], np.int64), pa.int64()),
            })

        reached = int_table(
            edges.map_batches(neigh_partial, batch_format="pyarrow")
            .groupby(["seed", "node"])
            .count(),
            ["seed", "node"],
        )
        rs = reached["seed"].to_numpy(zero_copy_only=False).astype(np.int64)
        rn = reached["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        for s in list(frontier):
            mine = rn[rs == s]
            fresh = mine[~np.isin(mine, visited[s])]
            visited[s] = np.concatenate([visited[s], fresh])
            sum_depth[s] += r * int(fresh.size)
            frontier[s] = fresh

    rows = []
    for s in seeds_arr:
        n_reached = int(visited[int(s)].size)
        sd = sum_depth[int(s)]
        cm = ((n_reached - 1) * 10**6 // sd) if sd else 0
        rows.append((int(s), n_reached, sd, cm))
    return pa.table({
        "seed": pa.array([r[0] for r in rows], pa.int64()),
        "n_reached": pa.array([r[1] for r in rows], pa.int64()),
        "sum_depth": pa.array([r[2] for r in rows], pa.int64()),
        "closeness_micro": pa.array([r[3] for r in rows], pa.int64()),
    })


def clustering_coeff(edges_ds, k: int = 20):
    """Per-node local clustering coefficient (watts-strogatz):
    c(v) = 2·T(v) / (deg(v)·(deg(v)−1)) over the undirected deduped
    graph.  Reuses the degree-oriented wedge machinery of
    ``triangle_count`` but each CLOSED wedge emits its three corner
    nodes (+1 triangle each) instead of a scalar; per-partition Arrow
    partials bound the per-node shuffle.  Degrees live in the same
    O(n_nodes) driver arrays the pagerank path holds; at 10^12 edges the
    closing probe swaps to the (y, z) hash join as documented on
    triangle_count.  Returns the top-``k`` nodes by (coeff desc, node
    asc) among deg ≥ 2 nodes, coefficient as an exact rational rounded
    to 6 dp."""
    import pandas as pd

    et = int_table(undirected_edges(edges_ds), ["u", "v"])
    uu = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    vv = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    if uu.size == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "deg": pa.array([], pa.int64()),
                         "n_tri": pa.array([], pa.int64()),
                         "coeff": pa.array([], pa.float64())})
    nodes, counts = np.unique(np.concatenate([uu, vv]), return_counts=True)
    deg_ref = ray.put((nodes, counts))
    du = counts[np.searchsorted(nodes, uu)]
    dv = counts[np.searchsorted(nodes, vv)]
    fwd = (du < dv) | ((du == dv) & (uu < vv))
    a = np.where(fwd, uu, vv)
    b = np.where(fwd, vv, uu)
    shift = np.int64(max(int(nodes.max()) + 1, 1))
    keys_ref = ray.put(np.sort(a * shift + b))

    def wedges_corners(group: pa.Table) -> pa.Table:
        nds, cnts = ray.get(deg_ref)
        keys = ray.get(keys_ref)
        av = int(group["a"][0].as_py())
        bs = group["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = cnts[np.searchsorted(nds, bs)]
        order = np.lexsort((bs, db))
        bs = bs[order]
        m = bs.size
        if m < 2:
            return pa.table({"node": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64())})
        ii, jj = np.triu_indices(m, k=1)
        wk = bs[ii] * shift + bs[jj]
        idx = np.searchsorted(keys, wk)
        idx[idx == keys.size] = 0
        hit = keys[idx] == wk
        corners = np.concatenate(
            [np.full(int(hit.sum()), av, dtype=np.int64),
             bs[ii[hit]], bs[jj[hit]]]
        )
        if corners.size == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64())})
        u, c = np.unique(corners, return_counts=True)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "t": pa.array(c, pa.int64())})

    from ray.data.aggregate import Sum

    tri = (
        ray.data.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                      "b": pa.array(b, pa.int64())}))
        .groupby("a")
        .map_groups(wedges_corners, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("t", alias_name="n_tri"))
        .to_pandas()
    )
    df = pd.DataFrame({"node": nodes, "deg": counts.astype(np.int64)})
    df = df[df["deg"] >= 2]
    tlk = tri.set_index("node")["n_tri"] if len(tri) else pd.Series(dtype="int64")
    df["n_tri"] = df["node"].map(tlk).fillna(0).astype("int64")
    df["coeff"] = (2.0 * df["n_tri"] / (df["deg"] * (df["deg"] - 1))).round(6)
    df = df.sort_values(["coeff", "node"], ascending=[False, True]).head(k)
    return pa.Table.from_pandas(df.reset_index(drop=True), preserve_index=False)


def label_propagation_min(edges_ds, n_nodes: int, n_rounds: int = 5):
    """Synchronous min-label community propagation over integer nodes
    0..n_nodes−1: l₀(v) = v; each round every node takes the minimum of
    its own label and its undirected neighbors' labels.  Fixed
    ``n_rounds`` keeps it SQL-checkable (the oracle unrolls the same
    recurrence as MATERIALIZED CTEs, the kcore/bfs idiom); at
    convergence labels equal connected components, and bounded rounds
    give the diameter-truncated refinement.  Same distributed shape as
    ``pagerank_power_int``: undirected edge blocks pinned once, per-round
    tasks compute per-destination label MINIMA against the broadcast
    label vector, the driver holds only the O(n) label state.

    Returns (community, size) counts for the final labels, community asc.
    """
    block_refs = nonempty_refs(
        edges_ds.select_columns(["src", "dst"]), ["src", "dst"]
    )

    @ray.remote
    def undirect(tbl: pa.Table):
        if not block_ok(tbl, "src", "dst"):  # empty-schema block guard
            e = np.array([], dtype=np.int64)
            return e, e
        s = tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        if s.size and (min(s.min(), d.min()) < 0
                       or max(s.max(), d.max()) >= n_nodes):
            raise ValueError("label_propagation_min: ids out of range")
        return np.concatenate([s, d]), np.concatenate([d, s])

    both = ray.get([undirect.remote(r) for r in block_refs])
    edge_refs = [(ray.put(a), ray.put(b)) for a, b in both if a.size]

    @ray.remote
    def min_contrib(src_ref, dst_ref, labels):
        vals = labels[src_ref]
        uniq, inv = np.unique(dst_ref, return_inverse=True)
        acc = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(acc, inv, vals)
        return uniq, acc

    labels = np.arange(n_nodes, dtype=np.int64)
    for _ in range(n_rounds):
        lref = ray.put(labels)
        partials = ray.get(
            [min_contrib.remote(s, d, lref) for s, d in edge_refs]
        )
        nxt = labels.copy()
        for uniq, vals in partials:
            np.minimum.at(nxt, uniq, vals)
        labels = nxt

    comm, size = np.unique(labels, return_counts=True)
    return pa.table({"community": pa.array(comm, pa.int64()),
                     "size": pa.array(size.astype(np.int64), pa.int64())})


def degree_assortativity(edges_ds):
    """Degree assortativity coefficient r (Newman 2002): the Pearson
    correlation of endpoint degrees over the undirected deduped edge
    list.  Every moment is an INTEGER sum over edges (Σdᵢdⱼ, Σ(dᵢ+dⱼ),
    Σ(dᵢ²+dⱼ²)) so Ray and the SQL oracle agree exactly until the one
    final float division:

        r = (S_xy/m − (S_x/2m)²) / (S_xx/2m − (S_x/2m)²)

    with S_xy = Σ 2·dᵢdⱼ (both orientations), S_x = Σ(dᵢ+dⱼ),
    S_xx = Σ(dᵢ²+dⱼ²), m = 2·n_edges directed half-edges.  The edge
    dedup groupby is the only exchange; degrees are the O(n) driver
    arrays the other graph ops already hold."""

    et = int_table(undirected_edges(edges_ds), ["u", "v"])
    uu = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    vv = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_edges = int(uu.size)
    if n_edges == 0:
        return pa.table({"n_edges": pa.array([0], pa.int64()),
                         "assortativity": pa.array([float("nan")],
                                                   pa.float64())})
    nodes, counts = np.unique(np.concatenate([uu, vv]), return_counts=True)
    du = counts[np.searchsorted(nodes, uu)].astype(object)
    dv = counts[np.searchsorted(nodes, vv)].astype(object)
    # python-int sums: exact regardless of magnitude
    s_xy = int((2 * du * dv).sum())
    s_x = int((du + dv).sum())
    s_xx = int((du * du + dv * dv).sum())
    m = 2 * n_edges
    mean = s_x / m
    num = s_xy / m - mean * mean
    den = s_xx / m - mean * mean
    r = float("nan") if den == 0 else num / den
    return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                     "assortativity": pa.array(
                         [round(r, 6) if r == r else r], pa.float64())})


def reachable_fixed(edges_ds, source: int = 0, n_rounds: int = 4, *,
                    reverse: bool = False):
    """Fixed-round DIRECTED reachability from ``source``: hop depth for
    every node reachable within ``n_rounds`` following edge direction
    (``reverse=True`` follows edges backwards).  Same bounded-broadcast
    frontier shape as :func:`bfs_depths`, but over the directed distinct
    edge list.  Returns a (node -> depth) dict-shaped pandas frame."""
    import pandas as pd

    nodes, depth = _frontier_depths(directed_edges(edges_ds, reverse), source,
                                    n_rounds, both_ends=False)
    return pd.DataFrame({"node": nodes, "depth": depth})


def scc_seeded(edges_ds, source: int = 0, n_rounds: int = 4):
    """Radius-bounded strongly-connected component of ``source`` — the
    forward-backward (Fleischer/Hendrickson/Pinar) seed step with FIXED
    rounds: nodes both forward- and backward-reachable from the seed
    within ``n_rounds`` hops.  Two directed BFS sweeps share the edge
    materialization; output is (node, fwd_depth, bwd_depth) for the
    intersection, sorted by node.  The fixed-round bound is the same
    declared contract as bfs_depths / kcore_nodes (the SQL oracle
    unrolls identical rounds)."""
    fwd = reachable_fixed(edges_ds, source, n_rounds)
    bwd = reachable_fixed(edges_ds, source, n_rounds, reverse=True)
    out = fwd.rename(columns={"depth": "fwd_depth"}).merge(
        bwd.rename(columns={"depth": "bwd_depth"}), on="node")
    out["node"] = out["node"].astype("int64")
    out["fwd_depth"] = out["fwd_depth"].astype("int64")
    out["bwd_depth"] = out["bwd_depth"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def sssp_fixed(edges_ds, source: int = 0, n_rounds: int = 4, *,
               weight_col: str = "w"):
    """Fixed-round single-source shortest paths (Bellman-Ford over the
    min-plus semiring) on a DIRECTED weighted edge list: after round r,
    dist(v) is the cheapest path from ``source`` using ≤ r edges — the
    weighted counterpart of bfs_depths, same bounded-broadcast shape
    (the frontier dict of IMPROVED nodes broadcasts; per-batch edge
    relaxations emit (node, candidate) min-partials; a node groupby
    folds them; the driver keeps only the node-sized dist array).
    Integer weights make every min exact."""
    import pandas as pd
    from ray.data.aggregate import Min

    edges = edges_ds.materialize()

    dist_nodes = np.array([source], dtype=np.int64)
    dist_vals = np.array([0], dtype=np.int64)
    frontier_nodes = dist_nodes
    frontier_vals = dist_vals

    for _ in range(n_rounds):
        if frontier_nodes.size == 0:
            break
        ref = ray.put((frontier_nodes, frontier_vals))

        def relax(batch: pa.Table, ref=ref) -> pa.Table:
            fn, fv = ray.get(ref)
            a = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            w = batch[weight_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            idx = np.searchsorted(fn, a)
            idx[idx == fn.size] = 0
            hit = fn[idx] == a
            cand_n = b[hit]
            cand_d = fv[idx[hit]] + w[hit]
            ks, inv = np.unique(cand_n, return_inverse=True)
            best = np.full(ks.size, np.iinfo(np.int64).max, np.int64)
            np.minimum.at(best, inv, cand_d)
            return pa.table({"node": pa.array(ks, pa.int64()),
                             "d": pa.array(best, pa.int64())})

        cand = (edges.map_batches(relax, batch_format="pyarrow")
                .groupby("node").aggregate(Min("d", alias_name="d"))
                .to_pandas())
        cn = cand["node"].to_numpy(np.int64)
        cd = cand["d"].to_numpy(np.int64)
        pos = np.searchsorted(dist_nodes, cn)
        pos_c = np.minimum(pos, max(dist_nodes.size - 1, 0))
        known = (dist_nodes.size > 0) & (dist_nodes[pos_c] == cn)
        improved = np.zeros(cn.size, dtype=bool)
        improved[~known] = True
        improved[known] = cd[known] < dist_vals[pos_c[known]]
        # merge
        upd_n, upd_d = cn[improved], cd[improved]
        if upd_n.size:
            keep_known = known & improved
            dist_vals[pos_c[keep_known]] = cd[keep_known]
            new_mask = improved & ~known
            dist_nodes = np.concatenate([dist_nodes, cn[new_mask]])
            dist_vals = np.concatenate([dist_vals, cd[new_mask]])
            order = np.argsort(dist_nodes)
            dist_nodes, dist_vals = dist_nodes[order], dist_vals[order]
        frontier_nodes, frontier_vals = upd_n, upd_d
        fo = np.argsort(frontier_nodes)
        frontier_nodes, frontier_vals = frontier_nodes[fo], frontier_vals[fo]

    order = np.argsort(dist_nodes)
    return pd.DataFrame({"node": dist_nodes[order].astype(np.int64),
                         "dist": dist_vals[order].astype(np.int64)})


def luby_mis(edges_ds, n_nodes: int, n_rounds: int = 4):
    """Fixed-round Luby maximal-independent-set (Luby 1986, the
    deterministic-priority variant): each round every UNDECIDED node
    whose affine-hash priority beats all undecided neighbors joins the
    MIS, and its neighbors become excluded.  Priorities p(v) =
    (2654435761·v + 12345) mod M31 are injective over the node range,
    so no ties exist and the rounds are fully deterministic (the SQL
    oracle unrolls the identical rounds).

    Distributed shape per round: the undecided set broadcasts (node-
    bounded, the kcore_nodes contract); pass 1 folds each undecided
    node's max undecided-neighbor priority via per-batch partials +
    one groupby Max; pass 2 marks neighbors of the new MIS members.
    Edges never leave the cluster.  Returns (node, status, round) for
    all DECIDED nodes after ``n_rounds``; undecided nodes are absent.
    """
    import pandas as pd
    from ray.data.aggregate import Max

    M = 2_147_483_647

    def prio(v: np.ndarray) -> np.ndarray:
        return (2654435761 * v + 12345) % M

    edges = undirected_edges(edges_ds)

    undecided = np.arange(n_nodes, dtype=np.int64)
    out_nodes, out_status, out_round = [], [], []

    for r in range(1, n_rounds + 1):
        if undecided.size == 0:
            break
        und_ref = ray.put(undecided)

        def max_nbr(batch: pa.Table, ref=und_ref) -> pa.Table:
            if not block_ok(batch, "u", "v"):  # empty-schema block guard
                return pa.table({"node": pa.array([], pa.int64()),
                                 "mx": pa.array([], pa.int64())})
            und = ray.get(ref)
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            iu = np.searchsorted(und, u)
            iu[iu == und.size] = 0
            iv = np.searchsorted(und, v)
            iv[iv == und.size] = 0
            both = (und[iu] == u) & (und[iv] == v)
            u, v = u[both], v[both]
            nodes = np.concatenate([u, v])
            nbrp = np.concatenate([prio(v), prio(u)])
            ks, inv = np.unique(nodes, return_inverse=True)
            mx = np.zeros(ks.size, dtype=np.int64)
            np.maximum.at(mx, inv, nbrp)
            return pa.table({"node": pa.array(ks, pa.int64()),
                             "mx": pa.array(mx, pa.int64())})

        nbr = (edges.map_batches(max_nbr, batch_format="pyarrow")
               .groupby("node").aggregate(Max("mx", alias_name="mx"))
               .to_pandas())
        mx_map = np.full(undecided.size, -1, dtype=np.int64)
        # an all-empty round (no undecided-undecided edge left) collapses
        # to a COLUMN-LESS empty frame — every undecided node then joins
        if "node" in nbr.columns and len(nbr):
            nn = nbr["node"].to_numpy(np.int64)
            pos = np.searchsorted(undecided, nn)
            mx_map[pos] = nbr["mx"].to_numpy(np.int64)
        join = prio(undecided) > mx_map  # no undecided nbr -> mx -1 -> join
        mis = undecided[join]
        mis_ref = ray.put(mis)

        def excl_partial(batch: pa.Table, ref=mis_ref) -> pa.Table:
            if not block_ok(batch, "u", "v"):  # empty-schema block guard
                return pa.table({"node": pa.array([], pa.int64())})
            ms = ray.get(ref)
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            iu = np.searchsorted(ms, u)
            iu[iu == ms.size] = 0
            iv = np.searchsorted(ms, v)
            iv[iv == ms.size] = 0
            nodes = np.unique(np.concatenate(
                [v[ms[iu] == u], u[ms[iv] == v]]))
            return pa.table({"node": pa.array(nodes, pa.int64())})

        if mis.size:
            exn = (edges.map_batches(excl_partial, batch_format="pyarrow")
                   .groupby("node").count().to_pandas())
            excluded = (exn["node"].to_numpy(np.int64)
                        if len(exn) and "node" in exn.columns
                        else np.array([], np.int64))
        else:
            excluded = np.array([], np.int64)
        excluded = np.setdiff1d(
            np.intersect1d(excluded, undecided), mis)
        out_nodes += [mis, excluded]
        out_status += [np.repeat("mis", mis.size),
                       np.repeat("excluded", excluded.size)]
        out_round += [np.full(mis.size, r), np.full(excluded.size, r)]
        undecided = np.setdiff1d(undecided, np.concatenate([mis, excluded]))

    nodes = np.concatenate(out_nodes) if out_nodes else np.array([], np.int64)
    status = np.concatenate(out_status) if out_status else np.array([], str)
    rnd = (np.concatenate(out_round) if out_round
           else np.array([], np.int64))
    order = np.argsort(nodes)
    return pd.DataFrame({
        "node": nodes[order].astype(np.int64),
        "status": status[order],
        "round": rnd[order].astype(np.int64),
    })


def adamic_adar_topk(edges_ds, k: int = 20, *, cap: int = 10_000):
    """Adamic-Adar link prediction: top-k non-adjacent pairs by
    Σ_z 1/ln(deg(z)) over common neighbors z — the degree-discounted
    refinement of :func:`common_neighbors_topk`, riding the identical
    wedge plan (each center group knows its own degree, so the weight
    attaches at EMISSION and the pair groupby just sums floats).
    Ranking uses the 6-dp-rounded score with (x, y) ties so the order
    is bit-deterministic against the SQL oracle (ln = libm both
    sides; only summation order differs, absorbed by the rounding)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    et = int_table(undirected_edges(edges_ds), ["u", "v"])
    uu = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    vv = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    if uu.size == 0:
        return pd.DataFrame({"x": pd.array([], dtype="int64"),
                             "y": pd.array([], dtype="int64"),
                             "aa_score": pd.array([], dtype="float64")})
    shift = np.int64(max(int(max(uu.max(), vv.max())) + 1, 1))
    ekeys_ref = ray.put(np.sort(uu * shift + vv))

    adj = ray.data.from_arrow(pa.table({
        "n": pa.array(np.concatenate([uu, vv]), pa.int64()),
        "m": pa.array(np.concatenate([vv, uu]), pa.int64()),
    }))

    def wedges(group: pa.Table) -> pa.Table:
        ms = np.sort(group["m"].to_numpy(
            zero_copy_only=False).astype(np.int64))
        if ms.size < 2:
            return pa.table({"x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64()),
                             "w": pa.array([], pa.float64())})
        ii, jj = np.triu_indices(ms.size, k=1)
        if ii.size > cap:
            print(f"adamic_adar_topk: truncating hub wedge set "
                  f"{ii.size} -> {cap}")
            ii, jj = ii[:cap], jj[:cap]
        w = 1.0 / np.log(float(ms.size))
        return pa.table({"x": pa.array(ms[ii], pa.int64()),
                         "y": pa.array(ms[jj], pa.int64()),
                         "w": pa.array(np.full(ii.size, w), pa.float64())})

    pairs = (adj.groupby("n").map_groups(wedges, batch_format="pyarrow")
             .groupby(["x", "y"]).aggregate(Sum("w", alias_name="w")))

    def drop_edges(batch: pa.Table) -> pa.Table:
        ek = ray.get(ekeys_ref)
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        kk = x * shift + y
        idx = np.searchsorted(ek, kk)
        idx[idx == ek.size] = 0
        return batch.filter(pa.array(ek[idx] != kk))

    df = (pairs.map_batches(drop_edges, batch_format="pyarrow")
          .to_pandas())
    df["aa_score"] = df["w"].round(6)
    df = df.sort_values(["aa_score", "x", "y"],
                        ascending=[False, True, True]).head(k)
    df["x"] = df["x"].astype("int64")
    df["y"] = df["y"].astype("int64")
    return df[["x", "y", "aa_score"]].reset_index(drop=True)


def ktruss_nodes(edges_ds, k: int = 4, n_rounds: int = 4):
    """Fixed-round k-truss peeling: repeatedly drop edges supported by
    fewer than ``k - 2`` triangles (``n_rounds`` synchronous rounds —
    the kcore_nodes fixed-iteration idiom, so the SQL oracle unrolls the
    same rounds as chained MATERIALIZED CTEs).  The truss is the classic
    cohesive-subgraph refinement of k-core: an edge survives only if its
    endpoints share >= k-2 common neighbors in the surviving graph.

    Distributed shape per round: wedges fan out from each node's
    neighbor list (one groupby over the oriented edge list), close
    against the BROADCAST u64-packed edge set (graph-key-set-sized, the
    triangle_count probe), and per-edge support partials fold in one
    (u, v) groupby; the support table that returns to the driver is
    edge-set-sized — the same scale as the probe broadcast this op
    already assumes.  Returns (node, deg) over the final truss edges.
    """
    cur = undirected_edges(edges_ds)
    min_sup = k - 2
    for _ in range(n_rounds):
        et = int_table(cur, ["u", "v"])
        uu = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        vv = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        if uu.size == 0:
            break
        packed = np.sort(uu << np.int64(32) | vv)
        packed_ref = ray.put(packed)

        def support_partial(group: pa.Table) -> pa.Table:
            """Wedges of one source node closed against the broadcast
            edge set; emits (edge, support) partials for the 3 edges of
            every closed triangle, pre-summed within the group."""
            ps = ray.get(packed_ref)
            x = group["u"][0].as_py()
            ys = np.sort(
                group["v"].to_numpy(zero_copy_only=False).astype(np.int64))
            if ys.size < 2:
                return pa.table({"u": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.int64()),
                                 "sup": pa.array([], pa.int64())})
            ia, ib = np.triu_indices(ys.size, 1)
            y, z = ys[ia], ys[ib]
            key = y << np.int64(32) | z
            pos = np.searchsorted(ps, key)
            pos[pos == ps.size] = 0
            hit = ps[pos] == key
            y, z = y[hit], z[hit]
            eu = np.concatenate([np.full(y.size, x), np.full(y.size, x), y])
            ev = np.concatenate([y, z, z])
            ek = eu << np.int64(32) | ev
            un, ct = np.unique(ek, return_counts=True)
            return pa.table({
                "u": pa.array(un >> np.int64(32), pa.int64()),
                "v": pa.array(un & np.int64(0xFFFFFFFF), pa.int64()),
                "sup": pa.array(ct.astype(np.int64), pa.int64()),
            })

        from ray.data.aggregate import Sum

        sup = (cur.groupby("u").map_groups(
            support_partial, batch_format="pyarrow")
            .groupby(["u", "v"])
            .aggregate(Sum("sup", alias_name="sup"))
            .to_pandas())
        sup = sup[sup["sup"] >= min_sup]
        if len(sup) == uu.size:
            break  # fixpoint: every surviving edge already qualifies
        cur = ray.data.from_arrow(pa.table({
            "u": pa.array(sup["u"].to_numpy(np.int64), pa.int64()),
            "v": pa.array(sup["v"].to_numpy(np.int64), pa.int64()),
        })).materialize()

    final = int_table(cur, ["u", "v"])
    nodes = np.concatenate([
        final["u"].to_numpy(zero_copy_only=False).astype(np.int64),
        final["v"].to_numpy(zero_copy_only=False).astype(np.int64)])
    un, ct = np.unique(nodes, return_counts=True)
    return pa.table({"node": pa.array(un, pa.int64()),
                     "deg": pa.array(ct.astype(np.int64), pa.int64())})
