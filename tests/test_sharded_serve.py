"""Scatter/gather sharded serving: per-shard posting actors + gather-side
scoring must return results identical to the single-process engine."""

import math
from collections import Counter

import pytest

from nadry_search_engine_be_ray.pipelines import serve
from nadry_search_engine_be_ray.pipelines.query import SearchEngine
from nadry_search_engine_be_ray.pipelines.serve import ShardedSearchEngine
from nadry_search_engine_be_ray.sources.corpus import reference_queries
from nadry_search_engine_be_ray.stages.tokenize import term_shard
from nadry_search_engine_be_ray.state.segments import LRU


@pytest.fixture(scope="module")
def engines(ray_session, built_index):
    return SearchEngine(built_index), ShardedSearchEngine(built_index)


def _same_results(a: dict, b: dict):
    assert a["total_results"] == b["total_results"]
    assert [r["doc_id"] for r in a["results"]] == [
        r["doc_id"] for r in b["results"]
    ]
    for ra, rb in zip(a["results"], b["results"]):
        if isinstance(ra["score"], float) and math.isnan(ra["score"]):
            assert math.isnan(rb["score"])
        else:
            assert ra["score"] == rb["score"]


def test_sharded_matches_local_reference_queries(engines):
    local, sharded = engines
    for q in reference_queries():
        _same_results(
            local.search_auto(q["query"], q["page"], q["page_size"]),
            sharded.search_auto(q["query"], q["page"], q["page_size"]),
        )


def test_sharded_matches_local_bm25_and_additive(engines):
    local, sharded = engines
    for q in ("import", "search engine", "item order arrived", "zzzznope"):
        assert local.bm25_search(q, k=10) == sharded.bm25_search(q, k=10)
        assert local.additive_search(q, k=10) == sharded.additive_search(q, k=10)


def test_sharded_missing_terms(engines):
    _, sharded = engines
    out = sharded.search("qqqqq zzzzz")
    assert out["total_results"] == 0


@pytest.fixture(scope="module")
def fresh_varint_index(ray_session, tiny_corpus_dir, tmp_path_factory):
    """A varint index with NO popularity state: the session-scoped
    built_index gets a popularity write-back from the pagerank tests when
    the full suite runs, which would skew the reference scorer (0.3 *
    popularity) against the freshly built tier indexes compared here."""
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index

    idx = str(tmp_path_factory.mktemp("index_varint_serve"))
    build_index(tiny_corpus_dir, idx, BuildConfig(num_shards=4, salt_bits=1))
    return idx


@pytest.mark.parametrize("codec_name", ["bitpack", "ef"])
def test_whole_stream_index_serves_identically(ray_session, tiny_corpus_dir,
                                               fresh_varint_index,
                                               tmp_path_factory,
                                               codec_name):
    """End-to-end serving over a write-once segment tier (bitpack FOR
    blocks / Elias-Fano): every reference query must return results
    identical to the varint index — both through the local engine and the
    scatter/gather sharded path."""
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index

    idx = str(tmp_path_factory.mktemp(f"index_{codec_name}_serve"))
    build_index(tiny_corpus_dir, idx,
                BuildConfig(num_shards=4, salt_bits=1, docs_codec=codec_name))
    local_v = SearchEngine(fresh_varint_index)
    local_b = SearchEngine(idx)
    sharded_b = ShardedSearchEngine(idx)
    for q in reference_queries():
        want = local_v.search_auto(q["query"], q["page"], q["page_size"])
        _same_results(want, local_b.search_auto(
            q["query"], q["page"], q["page_size"]))
        _same_results(want, sharded_b.search_auto(
            q["query"], q["page"], q["page_size"]))


def test_sharded_matches_local_new_scorers(engines):
    """bm25f / weighted multiset / search_after run unchanged over the
    scatter/gather reader (all arithmetic is inherited; the facade ships
    weights and df_total with every posting list)."""
    for q in ["search engine", "item order arrived", "national community"]:
        local, sharded = engines
        assert local.topk_taat(q, k=10, scorer="bm25f") == \
            sharded.topk_taat(q, k=10, scorer="bm25f")
        w = {"search": 1.0, "engin": 0.5, "item": 2.0}
        ld, ls = local.all_scores_weighted(w, "bm25")
        sd, ss = sharded.all_scores_weighted(w, "bm25")
        assert ld.tolist() == sd.tolist()
        assert ls.tolist() == ss.tolist()
        p1 = local.search_after(q, None, k=10, scorer="bm25")
        assert p1 == sharded.search_after(q, None, k=10, scorer="bm25")
        if len(p1) == 10:
            cur = (p1[-1][1], p1[-1][0])
            assert local.search_after(q, cur, k=10, scorer="bm25") == \
                sharded.search_after(q, cur, k=10, scorer="bm25")


def test_sharded_ships_df_total_for_deleted_index(ray_session, built_index,
                                                  tmp_path):
    """On a tombstoned index the sharded reader must keep Lucene's
    stale-df scoring identical to the local reader (df_total rides the
    scatter/gather payload)."""
    import shutil

    import numpy as np
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.deletes import delete_docs

    idx = str(tmp_path / "idx_del")
    shutil.copytree(built_index, idx)
    import os as _os

    di = pads.dataset(
        _os.path.join(idx, "doc_stats"), format="parquet"
    ).to_table(columns=["doc_int"])["doc_int"].to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    delete_docs(idx, np.sort(di)[::3])
    local = SearchEngine(idx)
    sharded = ShardedSearchEngine(idx)
    for q in ["search engine", "item order arrived"]:
        lh = local.bm25_search(q, k=10)
        sh = sharded.bm25_search(q, k=10)
        assert lh == sh
        pl_l = local.reader.postings("search")
        pl_s = sharded.reader.postings("search")
        assert pl_l.df_stale == pl_s.df_stale
        assert pl_l.df_stale > pl_l.df  # deletes actually masked some docs


class _CountingActor:
    """Stands in for one shard actor handle: records the shard of every
    ``fetch.remote`` call, then forwards it."""

    def __init__(self, handle, shard: int, calls: list):
        self.handle, self.shard, self.calls = handle, shard, calls
        self.fetch = self

    def remote(self, terms):
        self.calls.append(self.shard)
        return self.handle.fetch.remote(terms)


def _plain(res):
    return [a.tolist() for a in res] if isinstance(res, tuple) else res


def test_sharded_fetches_once_per_shard(engines, monkeypatch):
    """On a cold gather cache, each query's terms go out as at most one
    ``fetch`` per owning shard, and the results equal the local engine's.
    Every query has two distinct terms owned by the same shard, so a
    term-by-term fetch would send that shard two calls."""
    local, sharded = engines
    calls: list[int] = []
    monkeypatch.setattr(sharded.reader, "actors", {
        s: _CountingActor(h, s, calls)
        for s, h in sharded.reader.actors.items()})
    explain_docs = sorted(
        d for d, _ in local.topk_taat("search engine query", k=5,
                                      scorer="bm25"))
    weights = {"data": 1.0, "search": 0.5, "engin": 2.0}
    cases = [
        (["search", "engin", "queri"],
         lambda e: e.topk_taat("search engine query", k=10, scorer="bm25f")),
        (["item", "order", "arriv"],
         lambda e: e.sloppy_phrase_search("item order arrived", 3, k=10)),
        (list(weights), lambda e: e.all_scores_weighted(weights, "bm25")),
        (["search", "engin", "queri"],
         lambda e: e.explain("search engine query", explain_docs)),
    ]
    for terms, run in cases:
        shards = [term_shard(t, len(sharded.reader.actors)) for t in terms]
        assert len(set(shards)) < len(shards), terms
        monkeypatch.setattr(sharded.reader, "_pl_cache",
                            LRU(serve.POSTING_CACHE_ENTRIES))
        calls.clear()
        want = _plain(run(local))
        assert want and len(want[0]), terms
        assert _plain(run(sharded)) == want, terms
        assert calls and max(Counter(calls).values()) == 1, (terms, calls)
        assert set(calls) <= set(shards), (terms, calls)

    # a term no shard holds is cached too: a repeat sends no fetch
    monkeypatch.setattr(sharded.reader, "_pl_cache",
                        LRU(serve.POSTING_CACHE_ENTRIES))
    calls.clear()
    for _ in range(2):
        assert sharded.topk_taat("search zzzznope", k=10) == \
            local.topk_taat("search zzzznope", k=10)
    assert len(calls) == len({term_shard(t, len(sharded.reader.actors))
                              for t in local.tokenizer.tokenize(
                                  "search zzzznope")})


def test_sharded_posting_cache_is_bounded(ray_session, built_index,
                                          monkeypatch):
    """The gather-side posting cache holds at most POSTING_CACHE_ENTRIES
    lists (lowered to 3 here) over many more distinct terms, and a query
    with more terms than the cap still reads all its lists."""
    monkeypatch.setattr(serve, "POSTING_CACHE_ENTRIES", 3)
    local, sharded = SearchEngine(built_index), ShardedSearchEngine(built_index)
    queries = ["search engine query", "item order arrived",
               "national community", "order arrived late",
               "query search engine index"]
    for q in queries:
        assert local.bm25_search(q, k=10) == sharded.bm25_search(q, k=10)
        _same_results(local.search_auto(f'"{q}"'),
                      sharded.search_auto(f'"{q}"'))
        assert len(sharded.reader._pl_cache) <= 3
    m = sharded.metrics()["posting_cache"]
    assert m["cap"] == 3 and m["size"] <= 3 and m["evictions"] > 0
