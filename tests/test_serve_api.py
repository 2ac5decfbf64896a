"""Batch query actor pool + API facade tests."""

import dataclasses
import json
import os
import random
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray.data

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


def test_search_api_concurrent_cold_engine_matches_serial(built_index,
                                                          monkeypatch):
    """Eight threads sharing one cold SearchAPI (as ThreadingHTTPServer
    does) get the same bodies as serial calls."""
    reqs = [(q["query"], page) for q in reference_queries()
            for page in (1, 2)]

    def body(api, query, page):
        res = api.search(query, page=page, limit=10)
        res.pop("searchTimeSec")
        return json.dumps(res)  # the HTTP body; NaN scores compare equal

    serial = SearchAPI(built_index)
    exp = [body(serial, q, p) for q, p in reqs]

    loads = []
    load = _DocMaps.load
    monkeypatch.setattr(_DocMaps, "load",
                        lambda d: loads.append(d) or load(d))
    shared = SearchAPI(built_index)
    start = threading.Barrier(8, timeout=60)

    def worker(k):
        start.wait()
        order = reqs[k:] + reqs[:k]
        return {r: body(shared, *r) for r in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose races
    try:
        with ThreadPoolExecutor(8) as ex:
            futs = [ex.submit(worker, k) for k in range(8)]
            outs = [f.result(timeout=300) for f in futs]
    finally:
        sys.setswitchinterval(interval)
    for out in outs:
        assert [out[r] for r in reqs] == exp
    assert len(loads) == 1


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
        ChampionEvalActor, ensure_champion_tier,
    )

    eng = SearchEngine(built_index)
    queries = ["search engine", "item order", "university running"]
    batch = pa.table({"query": pa.array(queries, pa.string())})

    big_m = 1_000_000
    ensure_champion_tier(built_index, m=big_m)
    full = ChampionEvalActor(built_index, m=big_m, k=10)(batch)

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
    small = ChampionEvalActor(built_index, m=2, k=10)(batch)
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
        ChampionEvalActor, TieredEvalActor, ensure_champion_tier,
    )

    eng = SearchEngine(built_index)
    queries = ["search engine", "item order arrived", "zzzznope",
               "university"]
    batch = pa.table({"query": pa.array(queries, pa.string())})
    ensure_champion_tier(built_index, m=8)
    tiered = TieredEvalActor(built_index, m=8, k=10)(batch)
    champ = ChampionEvalActor(built_index, m=8, k=10)(batch)
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
    from nadry_search_engine_be_ray.pipelines.serve import (
        MinShouldMatchEvalActor,
    )

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
        got = MinShouldMatchEvalActor(built_index, ratio, 10)(batch)
        rows = [(d, round(s, 9), n) for d, s, n in
                zip(got["doc_id"].to_pylist(), got["score"].to_pylist(),
                    got["n_matched"].to_pylist())]
        assert rows == brute(ratio), ratio
    full = MinShouldMatchEvalActor(built_index, 1.0, 10)(batch)
    n_terms = len(set(eng.tokenizer.tokenize(q)))
    assert all(n == n_terms for n in full["n_matched"].to_pylist())
