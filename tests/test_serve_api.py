"""Batch query actor pool + API facade tests."""

import dataclasses
import glob
import json
import os
import random
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray.data

from nadry_search_engine_be_ray.pipelines import serve
from nadry_search_engine_be_ray.pipelines.api import SearchAPI, find_first_context_match
from nadry_search_engine_be_ray.pipelines.query import SearchEngine, _DocMaps
from nadry_search_engine_be_ray.pipelines.serve import batch_search
from nadry_search_engine_be_ray.sources.corpus import reference_queries
from nadry_search_engine_be_ray.stages.prep import derive_urls, doc_id_of


def test_batch_search_matches_single(ray_session, built_index):
    queries = [q["query"] for q in reference_queries()[:8]]
    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(queries, pa.string())})
    )
    out = batch_search(qds, built_index, mode="reference", concurrency=2).to_pandas()

    engine = SearchEngine(built_index)
    for q in queries:
        exp = engine.search_auto(q, 0, 10)
        got = out[out["query"] == q].sort_values("rank")
        assert list(got["doc_id"]) == [r["doc_id"] for r in exp["results"]]
        if len(got):
            assert (got["total_results"] == exp["total_results"]).all()


def test_batch_search_bm25_mode(ray_session, built_index):
    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(["item order", "search engine"], pa.string())})
    )
    out = batch_search(qds, built_index, mode="bm25", concurrency=1).to_pandas()
    engine = SearchEngine(built_index)
    for q in ("item order", "search engine"):
        exp = engine.bm25_search(q, k=10, use_wand=False)
        got = out[out["query"] == q].sort_values("rank")
        assert list(got["doc_id"]) == [f"{d:015x}" for d, _ in exp]


def test_snippet_generation():
    content = "First sentence here. The item order arrived yesterday. Last bit."
    snip = find_first_context_match(content, ["order"])
    assert snip == "The item order arrived yesterday."
    # fallback: no token match -> first sentence
    assert find_first_context_match(content, ["zzz"]) == "First sentence here."
    # long sentence -> centered truncation with ellipses
    long = "word " * 100 + "needle" + " word" * 100
    s = find_first_context_match(long, ["needle"])
    assert "needle" in s and len(s) <= 246 and s.startswith("...")


def test_api_response_shape(ray_session, built_index):
    api = SearchAPI(built_index)
    res = api.search("item order arrived", page=1, limit=5)
    assert res["success"] is True
    assert set(res) >= {"data", "totalPages", "currentPage", "totalResults",
                        "tokens", "searchTimeSec"}
    assert res["currentPage"] == 1
    assert len(res["data"]) <= 5
    assert all("description" in d for d in res["data"])
    # quoted phrase path
    res2 = api.search('"item order"', page=1, limit=5)
    assert res2["totalResults"] >= 1


def _prepped_scan(index_dir, columns):
    return pads.dataset(
        os.path.join(index_dir, "prepped"), format="parquet"
    ).to_table(columns=columns)


def _content_scan(index_dir) -> dict:
    t = _prepped_scan(index_dir, ["doc_int", "content"])
    return dict(zip(t["doc_int"].to_pylist(), t["content"].to_pylist()))


def test_content_for_matches_full_scan(built_index):
    """The doc_int locator returns exactly what a full scan of every
    prepped file finds, for any page shape."""
    assert len(pads.dataset(os.path.join(built_index, "prepped"),
                            format="parquet").files) > 1
    truth = _content_scan(built_index)
    ids = sorted(truth)
    unknown = [i for i in (0, 1, -1, 2 ** 60 - 1, max(ids) + 1)
               if i not in truth]
    docs = SearchEngine(built_index).docs
    rng = random.Random(0)
    for size in (1, 3, 10, 10, 10, 50, len(ids)):
        page = rng.sample(ids, size)
        assert docs.content_for(page) == {d: truth[d] for d in page}
    assert docs.content_for([]) == {}
    assert docs.content_for(unknown) == {}
    a, b = ids[3], ids[-2]
    assert docs.content_for([a, unknown[0], b, a, a, unknown[-1]]) == {
        a: truth[a], b: truth[b]}

    t = _prepped_scan(built_index, ["doc_int", "repo", "path", "commit",
                                    "title", "description"])
    exp = {
        int(d): {"doc_int": int(d), "doc_id": doc_id_of(u), "url": u,
                 "title": ti, "description": de}
        for d, u, ti, de in zip(t["doc_int"].to_pylist(), derive_urls(t),
                                t["title"].to_pylist(),
                                t["description"].to_pylist())
    }
    assert docs.details(ids + unknown) == exp

    # a locator pointing at the wrong row raises instead of mis-snippeting
    m = docs._detail_maps()
    i, j = np.flatnonzero((m.file_idx == m.file_idx[0])
                          & (m.row_group == m.row_group[0]))[:2]
    rows = m.rg_row.copy()
    rows[[i, j]] = rows[[j, i]]
    docs._maps = dataclasses.replace(m, rg_row=rows)
    with pytest.raises(RuntimeError, match="located"):
        docs.content_for([int(m.doc_ints[i])])


def test_content_for_serves_its_snapshot_across_purge(ray_session,
                                                      built_index, tmp_path):
    """A store that loaded its locator keeps reading the prepped files it
    opened after purge replaces them; a fresh store sees the purge."""
    from nadry_search_engine_be_ray.pipelines.deletes import (
        delete_docs, purge_deletes,
    )

    idx = str(tmp_path / "idx")
    shutil.copytree(built_index, idx)
    truth = _content_scan(idx)
    ids = sorted(truth)
    victims = ids[::10]
    warm = SearchEngine(idx).docs
    assert warm.content_for(ids[:1]) == {ids[0]: truth[ids[0]]}

    delete_docs(idx, victims)
    assert purge_deletes(idx)["n_purged"] > 0

    assert warm.content_for(ids) == truth
    fresh = SearchEngine(idx).docs
    assert fresh.content_for(victims) == {}
    survivors = sorted(set(ids) - set(victims))
    assert fresh.content_for(survivors) == {d: truth[d] for d in survivors}


def _body(api, query, page):
    res = api.search(query, page=page, limit=10)
    res.pop("searchTimeSec")
    return json.dumps(res)  # the HTTP body; NaN scores compare equal


_API_REQS = [(q["query"], page) for q in reference_queries()
             for page in (1, 2)]


def _threaded_bodies(api, rounds):
    """Eight threads share ``api``, each sending every ``_API_REQS``
    request ``rounds`` times from its own starting offset; one
    ``{request: body}`` dict per thread and round."""
    start = threading.Barrier(8, timeout=60)

    def worker(k):
        start.wait()
        order = _API_REQS[k:] + _API_REQS[:k]
        return [{r: _body(api, *r) for r in order} for _ in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose races
    try:
        with ThreadPoolExecutor(8) as ex:
            futs = [ex.submit(worker, k) for k in range(8)]
            return [out for f in futs for out in f.result(timeout=300)]
    finally:
        sys.setswitchinterval(interval)


def test_search_api_concurrent_cold_engine_matches_serial(built_index,
                                                          monkeypatch):
    """Eight threads sharing one cold SearchAPI (as ThreadingHTTPServer
    does) get the same bodies as serial calls, over three rounds: the
    later rounds are page-cache hits."""
    serial = SearchAPI(built_index)
    exp = [_body(serial, q, p) for q, p in _API_REQS]

    loads = []
    load = _DocMaps.load
    monkeypatch.setattr(_DocMaps, "load",
                        lambda d: loads.append(d) or load(d))
    shared = SearchAPI(built_index)
    outs = _threaded_bodies(shared, rounds=3)
    assert len(outs) == 24
    for out in outs:
        assert [out[r] for r in _API_REQS] == exp
    assert all(("api", q, p, 10) in shared.engine._cache for q, p in _API_REQS)
    assert len(loads) == 1


def test_search_api_threads_with_tiny_query_cache_match_serial(built_index,
                                                               monkeypatch):
    """With the query cache capped at four entries, eight threads evict
    each other's pages constantly; no lookup raises and every body equals
    the serial one."""
    from nadry_search_engine_be_ray.pipelines import query

    serial = SearchAPI(built_index)
    exp = [_body(serial, q, p) for q, p in _API_REQS]
    monkeypatch.setattr(query, "QUERY_CACHE_ENTRIES", 4)
    shared = SearchAPI(built_index)
    outs = _threaded_bodies(shared, rounds=2)
    for out in outs:
        assert [out[r] for r in _API_REQS] == exp
    m = shared.engine.metrics()["query_cache"]
    assert m["size"] == m["cap"] == 4 and m["evictions"] > 0


def test_search_api_page_cache_matches_fresh_api(built_index):
    """A repeated request is a page-cache hit whose body equals a fresh
    SearchAPI's.  Each call returns its own envelope with its own
    ``searchTimeSec``, so a caller mutating one never changes the next."""
    cached = SearchAPI(built_index)
    for query, page in [("item order arrived", 1), ('"item order"', 1),
                        ("zzzznotaterm", 1), ("order", 10_000),
                        ("order", 0), ("order", 1)]:
        exp = _body(SearchAPI(built_index), query, page)
        assert _body(cached, query, page) == exp
        hits = cached.engine.metrics()["query_cache"]["hits"]
        first = cached.search(query, page=page, limit=10)
        assert cached.engine.metrics()["query_cache"]["hits"] == hits + 1
        assert "searchTimeSec" in first
        first.pop("searchTimeSec")
        first["data"] = []
        again = cached.search(query, page=page, limit=10)
        assert again is not first and "searchTimeSec" in again
        again.pop("searchTimeSec")
        assert json.dumps(again) == exp


def test_phrase_results_are_cached(built_index):
    """Repeated phrase queries, empty results included, come from the
    query cache and equal a fresh engine's answer."""
    eng = SearchEngine(built_index)
    for phrase in ("item order", "order arrived late", "zzzznotaterm item"):
        first = eng.phrase_search(phrase, 0, 10)
        assert ("p", phrase, 0, 10) in eng._cache
        assert eng.phrase_search(phrase, 0, 10) is first
        assert json.dumps(first) == json.dumps(
            SearchEngine(built_index).phrase_search(phrase, 0, 10))


def test_champion_topk_converges_to_bm25f(built_index):
    """At m >= max df the champion tier holds every posting, so the
    champion ranking must equal the engine's full bm25f ranking; at small
    m it is a subset-scored ranking whose entries never exceed their full
    scores."""
    import numpy as np
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.query import SearchEngine
    from nadry_search_engine_be_ray.pipelines.serve import (
        QueryEvalActor, ensure_champion_tier,
    )

    eng = SearchEngine(built_index)
    queries = ["search engine", "item order", "university running"]
    batch = pa.table({"query": pa.array(queries, pa.string())})

    big_m = 1_000_000
    ensure_champion_tier(built_index, m=big_m)
    full = QueryEvalActor(built_index, "champion", m=big_m, k=10)(batch)

    for q in queries:
        docs, acc = eng.all_scores(q, "bm25f")
        order = np.lexsort((docs, -acc))[:10]
        want = [(f"{int(docs[j]):015x}", round(float(acc[j]), 9))
                for j in order]
        got = [(d, round(s, 9))
               for qq, d, s in zip(full["query"].to_pylist(),
                                   full["doc_id"].to_pylist(),
                                   full["score"].to_pylist()) if qq == q]
        assert got == want, q

    ensure_champion_tier(built_index, m=2)
    small = QueryEvalActor(built_index, "champion", m=2, k=10)(batch)
    full_scores = {(q, d): s for q, d, s in zip(
        full["query"].to_pylist(), full["doc_id"].to_pylist(),
        full["score"].to_pylist())}
    for q, d, s in zip(small["query"].to_pylist(),
                       small["doc_id"].to_pylist(),
                       small["score"].to_pylist()):
        assert s <= full_scores.get((q, d), float("inf")) + 1e-9


def test_tiered_topk_matches_declared_ladder(built_index):
    """Tier-1-full queries must equal the champion ranking; under-filled
    queries must equal the full bm25f ranking — the ladder is exactly its
    two declared branches."""
    import numpy as np
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.query import SearchEngine
    from nadry_search_engine_be_ray.pipelines.serve import (
        QueryEvalActor, ensure_champion_tier,
    )

    eng = SearchEngine(built_index)
    queries = ["search engine", "item order arrived", "zzzznope",
               "university"]
    batch = pa.table({"query": pa.array(queries, pa.string())})
    ensure_champion_tier(built_index, m=8)
    tiered = QueryEvalActor(built_index, "tiered", m=8, k=10)(batch)
    champ = QueryEvalActor(built_index, "champion", m=8, k=10)(batch)
    champ_rows = {
        (q, r): (d, round(s, 9))
        for q, r, d, s in zip(champ["query"].to_pylist(),
                              champ["rank"].to_pylist(),
                              champ["doc_id"].to_pylist(),
                              champ["score"].to_pylist())
    }
    seen_t1 = seen_t2 = 0
    for q, r, d, s, tier in zip(tiered["query"].to_pylist(),
                                tiered["rank"].to_pylist(),
                                tiered["doc_id"].to_pylist(),
                                tiered["score"].to_pylist(),
                                tiered["tier"].to_pylist()):
        if tier == 1:
            seen_t1 += 1
            assert champ_rows[(q, r)] == (d, round(s, 9))
        else:
            seen_t2 += 1
            docs, acc = eng.all_scores(q, "bm25f")
            order = np.lexsort((docs, -acc))[:10]
            j = order[r]
            assert (f"{int(docs[j]):015x}", round(float(acc[j]), 9)) \
                == (d, round(s, 9))
    assert seen_t1 > 0 and seen_t2 > 0   # both branches exercised


def test_min_should_match_gate(built_index):
    """mm filtering: survivors hold >= ceil(ratio*n) distinct query
    terms, scores equal the plain BM25 scores of the same docs, and
    ratio=1.0 degenerates to conjunctive (AND) BM25."""
    import math

    import numpy as np
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.query import SearchEngine
    from nadry_search_engine_be_ray.pipelines.serve import QueryEvalActor

    eng = SearchEngine(built_index)
    q = "item order arrived"
    batch = pa.table({"query": pa.array([q], pa.string())})

    def brute(ratio):
        toks = eng.tokenizer.tokenize(q)
        distinct = sorted(set(toks))
        req = max(1, math.ceil(ratio * len(distinct)))
        docs, acc = eng.all_scores(q, "bm25")
        nm = np.zeros(docs.size, dtype=np.int64)
        for t in distinct:
            pl = eng.reader.postings(t)
            if pl is None:
                continue
            nm += np.isin(docs, pl.docs)
        keep = np.flatnonzero(nm >= req)
        order = keep[np.lexsort((docs[keep], -acc[keep]))][:10]
        return [(f"{int(docs[j]):015x}", round(float(acc[j]), 9),
                 int(nm[j])) for j in order]

    for ratio in (0.5, 1.0):
        got = QueryEvalActor(built_index, "min_should_match", ratio=ratio,
                             k=10)(batch)
        rows = [(d, round(s, 9), n) for d, s, n in
                zip(got["doc_id"].to_pylist(), got["score"].to_pylist(),
                    got["n_matched"].to_pylist())]
        assert rows == brute(ratio), ratio
    full = QueryEvalActor(built_index, "min_should_match", ratio=1.0,
                          k=10)(batch)
    n_terms = len(set(eng.tokenizer.tokenize(q)))
    assert all(n == n_terms for n in full["n_matched"].to_pylist())


@pytest.mark.parametrize("mode", sorted(serve.MODES))
def test_mode_empty_batch_has_declared_schema(built_index, mode):
    """Every retriever mode answers an empty batch with zero rows typed
    exactly like its non-empty output."""
    serve.ensure_champion_tier(built_index, m=3)
    actor = serve.QueryEvalActor(built_index, mode)
    empty = actor(pa.table({"query": pa.array([], pa.string())}))
    assert empty.num_rows == 0
    assert empty.schema == actor.schema
    assert empty.schema.names[0] == "query"
    full = actor(pa.table({"query": pa.array(
        ["search engine query", "item order arrived"], pa.string())}))
    assert full.schema == actor.schema


def test_unknown_mode_lists_valid_modes(built_index):
    with pytest.raises(ValueError) as err:
        serve.QueryEvalActor(built_index, "no_such_mode")
    assert all(m in str(err.value) for m in serve.MODES)


@pytest.mark.parametrize("mode,params", [
    ("collapse", {"group_col": "repo"}),
    ("min_should_match", {"ratio": 1.0}),
])
def test_batch_search_pool_equals_in_process_actor(ray_session, built_index,
                                                   mode, params):
    """``batch_search`` forwards ``params`` to every pooled actor: the
    pool's rows equal one in-process actor's (NaN-aware compare)."""
    qs = [q["query"] for q in reference_queries()
          if not q["query"].startswith('"')]
    tbl = pa.table({"query": pa.array(qs, pa.string())})
    blocks = ray.data.from_arrow(tbl).repartition(4)   # both actors work
    pooled = serve.batch_search(blocks, built_index, mode, concurrency=2,
                                batch_size=4, **params)
    local = serve.QueryEvalActor(built_index, mode, **params)(tbl)
    assert len(local) > 0

    def canon(df):
        return df.sort_values(["query", "rank"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(pooled.to_pandas()),
                                  canon(local.to_pandas()))


def test_segment_reader_concurrent_eviction_matches_serial(built_index):
    """Eight threads on one cold reader whose row-group LRU holds two
    entries and whose posting cache overflows: every thread gets the
    serial reader's postings and no eviction raises."""
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    serial = SegmentReader(built_index)
    terms = sorted(serial.terms())[:600]
    assert len(terms) > 512   # overflows the decoded-posting cache too

    def arrays(pl):
        return (pl.docs.tolist(), pl.tfs.tolist(), pl.weights.tolist(),
                pl.positions_buf, pl.pos_offsets.tolist(), pl.df_total)

    exp = {t: arrays(serial.postings(t)) for t in terms}

    def worker(shared, start, k):
        start.wait()
        order = terms[k * 75:] + terms[:k * 75]
        return {t: arrays(shared.postings(t)) for t in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose races
    try:
        for _ in range(3):   # a fresh cold reader each round
            shared = SegmentReader(built_index, rg_cache_cap=2)
            start = threading.Barrier(8, timeout=60)
            with ThreadPoolExecutor(8) as ex:
                outs = [f.result(timeout=300) for f in [
                    ex.submit(worker, shared, start, k) for k in range(8)]]
            assert all(out == exp for out in outs)
            assert len(shared._rg_cache) <= 2
    finally:
        sys.setswitchinterval(interval)


def test_champion_tiers_never_serve_deleted_docs(ray_session, built_index,
                                                 tmp_path):
    """Tombstoned docs drop out of champion and tiered rows at once, and
    purge removes the stale tier so a rebuilt one cannot serve them."""
    from nadry_search_engine_be_ray.pipelines.deletes import (
        delete_docs, purge_deletes,
    )

    idx = str(tmp_path / "idx")
    shutil.copytree(built_index, idx)
    for d in glob.glob(os.path.join(idx, "champions_*")):
        shutil.rmtree(d)
    batch = pa.table({"query": pa.array(
        ["search engine", "item order arrived", "university", "search"],
        pa.string())})

    def served(mode):
        out = serve.QueryEvalActor(idx, mode, m=8, k=10)(batch)
        return {int(d, 16) for d in out["doc_id"].to_pylist()}

    serve.ensure_champion_tier(idx, m=8)
    victims = sorted(served("champion"))[::2]
    assert victims
    delete_docs(idx, victims)
    for mode in ("champion", "tiered"):
        got = served(mode)
        assert got and not got & set(victims), mode

    purge_deletes(idx)
    assert not glob.glob(os.path.join(idx, "champions_*"))
    with pytest.raises(RuntimeError, match="champion tier missing"):
        serve.QueryEvalActor(idx, "champion", m=8)
    serve.ensure_champion_tier(idx, m=8)
    for mode in ("champion", "tiered"):
        got = served(mode)
        assert got and not got & set(victims), mode


def test_sharded_phrase_search_equals_local(ray_session, built_index):
    """Per-shard actors ship whole PostingLists, their lazy positions
    loaded before the pickle: a sharded phrase search equals the local
    one, single-token and missing-term phrases included."""
    from nadry_search_engine_be_ray.pipelines.serve import ShardedSearchEngine

    local, sharded = SearchEngine(built_index), ShardedSearchEngine(built_index)
    for phrase in ("item order", "order arrived late", "import",
                   "zzzznotaterm item"):
        exp = json.dumps(local.phrase_search(phrase, 0, 10))  # NaN-safe
        assert json.dumps(sharded.phrase_search(phrase, 0, 10)) == exp, phrase
    assert local.phrase_search("item order")["total_results"] > 0


def test_rest_page_miss_takes_one_cache_slot(built_index):
    """A REST page miss caches only the finished page: after N distinct
    requests — term, phrase and single-token phrase — the engine's query
    cache holds exactly N entries, all ``("api", ...)`` pages."""
    api = SearchAPI(built_index)
    reqs = [("item order arrived", 1), ('"item order"', 1), ('"order"', 1),
            ("order", 2), ("zzzznotaterm", 1), ('find "order arrived" x', 1)]
    for n, (q, p) in enumerate(reqs, 1):
        api.search(q, page=p, limit=10)
        assert len(api.engine._cache) == n
    assert all(("api", q, p, 10) in api.engine._cache for q, p in reqs)
