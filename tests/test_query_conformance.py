"""Query-path conformance: distributed engine vs single-process oracle on the
reference query set (FIXTURES.md §2) — rank-identical doc ids and
bit-identical scores (the engine and oracle share functions/scoring.py, so
any difference would come from the distributed candidate machinery)."""

import math
import os

import numpy as np
import pytest

from nadry_search_engine_be_ray.pipelines.query import SearchEngine
from nadry_search_engine_be_ray.sources.corpus import reference_queries


@pytest.fixture(scope="module")
def engine(built_index):
    return SearchEngine(built_index)


def _assert_same_results(got: dict, exp: dict):
    assert got["total_results"] == exp["total_results"]
    assert got["total_pages"] == exp["total_pages"]
    g_rows, e_rows = got["results"], exp["results"]
    assert len(g_rows) == len(e_rows)
    for g, e in zip(g_rows, e_rows):
        assert g["doc_id"] == e["doc_id"]
        for col in ("score", "relevance", "popularity"):
            if math.isnan(e[col]):
                assert math.isnan(g[col])
            else:
                assert g[col] == e[col], (col, g, e)


@pytest.mark.parametrize("q", reference_queries(), ids=lambda q: f"q{q['query_id']}")
def test_reference_query_set(engine, oracle_index, q):
    raw, page, size = q["query"], q["page"], q["page_size"]
    if raw.startswith('"'):
        phrase = raw.strip('"')
        got = engine.phrase_search(phrase, page, size)
        exp = oracle_index.phrase_search(phrase, page, size)
    else:
        got = engine.search(raw, page, size)
        exp = oracle_index.search(raw, page, size)
    _assert_same_results(got, exp)


def test_search_auto_quoted_detection(engine, oracle_index):
    got = engine.search_auto('find "item order" now')
    exp = oracle_index.phrase_search("item order")
    _assert_same_results(got, exp)


def test_additive_matches_oracle(engine, oracle_index):
    for q in ("item order arrived", "search engine", "import", "nation"):
        exp = [
            (int(doc_id[:15], 16), w)
            for doc_id, w in oracle_index.additive_search(q, k=10)
        ]
        got = engine.additive_search(q, k=10)
        assert got == exp


@pytest.mark.parametrize("scorer", ["additive", "bm25"])
def test_wand_equals_taat(engine, scorer):
    queries = [
        "item order arrived", "search engine index", "import return def",
        "nation", "zzzznotaterm", "func_7 zq11x", "university community block",
    ]
    for q in queries:
        taat = engine.topk_taat(q, k=10, scorer=scorer)
        wand = engine.topk_wand(q, k=10, scorer=scorer)
        assert [d for d, _ in taat] == [d for d, _ in wand], q
        for (d1, s1), (d2, s2) in zip(taat, wand):
            assert s1 == pytest.approx(s2, rel=1e-12)


def test_query_cache(engine):
    r1 = engine.search("item order arrived")
    r2 = engine.search("item order arrived")
    assert r1 is r2  # T4 query-result cache


def test_lru_recency_and_counters():
    """The oldest entry goes when a full cache takes a new key; ``get``
    refreshes recency, ``in`` and ``len`` change neither recency nor the
    counters, and re-putting a held key evicts nothing."""
    from nadry_search_engine_be_ray.state.segments import LRU

    c = LRU(3)
    for k in "abc":
        c.put(k, k.upper())
    assert c.get("a") == "A"              # order now b, c, a
    c.put("d", "D")                       # evicts b
    assert "b" not in c and len(c) == 3
    assert c.get("b") is None
    assert "c" in c                       # no refresh: c stays oldest
    c.put("e", "E")                       # evicts c, not a
    assert "c" not in c and "a" in c
    c.put("a", "A2")                      # held key: no eviction
    assert c.get("a") == "A2"
    assert c.metrics() == {"hits": 2, "misses": 1, "evictions": 2,
                           "size": 3, "cap": 3}


def test_query_cache_is_bounded(built_index, monkeypatch):
    """More distinct queries than the cap leave exactly cap entries, the
    oldest evicted, and a re-run evicted query gives the same page."""
    import json

    from nadry_search_engine_be_ray.pipelines import query
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    monkeypatch.setattr(query, "QUERY_CACHE_ENTRIES", 8)
    eng = SearchEngine(built_index)
    terms = sorted(SegmentReader(built_index).terms())[:20]
    first = [json.dumps(eng.search(t)) for t in terms]
    assert len(eng._cache) == query.QUERY_CACHE_ENTRIES
    assert ("t", terms[0], 0, 10) not in eng._cache
    assert ("t", terms[-1], 0, 10) in eng._cache
    assert json.dumps(eng.search(terms[0])) == first[0]
    m = eng.metrics()
    assert m["query_cache"] == {"hits": 0, "misses": 21, "evictions": 13,
                                "size": 8, "cap": 8}
    assert set(m) == {"query_cache", "posting_cache", "rowgroup_cache"}
    assert m["posting_cache"]["cap"] == 512
    assert m["posting_cache"]["misses"] == 20   # terms[0] decoded once


def test_proximity_pairs_matches_bruteforce(built_index):
    """proximity_pairs' searchsorted window counting must equal a brute
    double loop over the decoded positions, per doc per field."""
    import numpy as np

    from nadry_search_engine_be_ray.pipelines.query import proximity_pairs
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    # pick frequent terms so the intersection is non-trivial
    terms = sorted(r.terms(), key=lambda t: -r.postings(t).df)[:4]
    window = 2
    out = proximity_pairs(built_index, terms, window, concurrency=2)
    got = {
        (a, b, d): n
        for a, b, d, n in zip(out["term_a"].to_pylist(),
                              out["term_b"].to_pylist(),
                              out["doc_int"].to_pylist(),
                              out["n_pairs"].to_pylist())
    }
    assert got, "expected at least one proximity hit among head terms"
    exp = {}
    ts = sorted(set(terms))
    for i, a in enumerate(ts):
        for b in ts[i + 1:]:
            pla, plb = r.postings(a), r.postings(b)
            common = np.intersect1d(pla.docs, plb.docs)
            for di in common.tolist():
                fa = pla.positions_for(int(np.searchsorted(pla.docs, di)))
                fb = plb.positions_for(int(np.searchsorted(plb.docs, di)))
                n = sum(
                    1
                    for f, ap in fa.items()
                    if f in fb
                    for x in ap.tolist()
                    for y in fb[f].tolist()
                    if abs(x - y) <= window
                )
                if n:
                    exp[(a, b, int(di))] = n
    assert got == exp


def test_proximity_pairs_edges(built_index):
    from nadry_search_engine_be_ray.pipelines.query import proximity_pairs
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    # fewer than two terms -> no pairs -> empty table with the full schema
    out = proximity_pairs(built_index, ["onlyterm"], 3)
    assert out.num_rows == 0
    assert out.column_names == ["term_a", "term_b", "doc_int", "n_pairs"]
    # unknown terms are skipped, not an error
    out = proximity_pairs(built_index, ["zzznotaterm", "zzzalsonot"], 3)
    assert out.num_rows == 0
    # window=0 can never match across distinct terms (positions are unique
    # within a field), so every n_pairs row would need |pa-pb|=0
    r = SegmentReader(built_index)
    terms = sorted(r.terms(), key=lambda t: -r.postings(t).df)[:3]
    out = proximity_pairs(built_index, terms, 0)
    assert out.num_rows == 0


def test_proximity_ordered_matches_bruteforce(built_index):
    import numpy as np

    from nadry_search_engine_be_ray.pipelines.query import proximity_pairs
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    terms = sorted(r.terms(), key=lambda t: -r.postings(t).df)[:4]
    window = 2
    out = proximity_pairs(built_index, terms, window, ordered=True,
                          concurrency=2)
    got = {
        (a, b, d): n
        for a, b, d, n in zip(out["term_a"].to_pylist(),
                              out["term_b"].to_pylist(),
                              out["doc_int"].to_pylist(),
                              out["n_pairs"].to_pylist())
    }
    exp = {}
    ts = sorted(set(terms))
    for i, a in enumerate(ts):
        for b in ts[i + 1:]:
            pla, plb = r.postings(a), r.postings(b)
            common = np.intersect1d(pla.docs, plb.docs)
            for di in common.tolist():
                fa = pla.positions_for(int(np.searchsorted(pla.docs, di)))
                fb = plb.positions_for(int(np.searchsorted(plb.docs, di)))
                n = sum(
                    1
                    for f, ap in fa.items()
                    if f in fb
                    for x in ap.tolist()
                    for y in fb[f].tolist()
                    if 1 <= y - x <= window
                )
                if n:
                    exp[(a, b, int(di))] = n
    assert got == exp
    # ordered counts can never exceed the unordered counts
    un = proximity_pairs(built_index, terms, window, concurrency=2)
    un_map = {
        (a, b, d): n
        for a, b, d, n in zip(un["term_a"].to_pylist(),
                              un["term_b"].to_pylist(),
                              un["doc_int"].to_pylist(),
                              un["n_pairs"].to_pylist())
    }
    for k, n in got.items():
        assert n <= un_map[k], k


def test_proximity_out_path_streams_same_rows(built_index, tmp_path):
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.query import proximity_pairs
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    terms = sorted(r.terms(), key=lambda t: -r.postings(t).df)[:4]
    direct = proximity_pairs(built_index, terms, 2, concurrency=2)
    out = str(tmp_path / "prox")
    assert proximity_pairs(built_index, terms, 2, concurrency=2,
                           out_path=out) is None
    streamed = pads.dataset(out, format="parquet").to_table().sort_by(
        [("term_a", "ascending"), ("term_b", "ascending"),
         ("doc_int", "ascending")])
    assert streamed.equals(direct)


def test_facet_counts_matches_bruteforce(built_index):
    """facet_counts (any + all modes) must equal a brute recompute from the
    decoded posting lists joined to the prepped facet columns."""
    import os
    from collections import Counter

    import numpy as np
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.query import facet_counts
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    terms = sorted(r.terms(), key=lambda t: -r.postings(t).df)[:3]
    meta = pads.dataset(
        os.path.join(built_index, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", "repo", "lang"])
    di = meta["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
    by_doc = {
        int(d): (rp, lg)
        for d, rp, lg in zip(di, meta["repo"].to_pylist(),
                             meta["lang"].to_pylist())
    }

    for mode in ("any", "all"):
        sets = [set(r.postings(t).docs.tolist()) for t in terms]
        matched = (set.intersection(*sets) if mode == "all"
                   else set.union(*sets))
        exp: Counter = Counter()
        for d in matched:
            rp, lg = by_doc[int(d)]
            exp[("repo", rp)] += 1
            exp[("lang", lg)] += 1
        out = facet_counts(built_index, terms, mode=mode)
        got = {
            (f, v): n
            for f, v, n in zip(out["facet"].to_pylist(),
                               out["value"].to_pylist(),
                               out["n_docs"].to_pylist())
        }
        assert got == dict(exp), mode
        assert matched, "head terms should match at least one doc"


def test_facet_counts_edges(built_index):
    from nadry_search_engine_be_ray.pipelines.query import facet_counts

    assert facet_counts(built_index, []).num_rows == 0
    assert facet_counts(built_index, ["zzzznope"]).num_rows == 0
    # unknown + known term: any-mode ignores the miss, all-mode empties
    from nadry_search_engine_be_ray.state.segments import SegmentReader
    r = SegmentReader(built_index)
    head = max(r.terms(), key=lambda t: r.postings(t).df)
    any_out = facet_counts(built_index, [head, "zzzznope"], mode="any")
    assert any_out.num_rows > 0
    all_out = facet_counts(built_index, [head, "zzzznope"], mode="all")
    assert all_out.num_rows == 0


def test_spell_correct_matches_bruteforce_and_tiers(built_index,
                                                    tombstoned_index):
    """spell_correct's vectorized byte-DP + distributed combine must equal
    a brute per-pair recompute, and the tombstoned tier (on-disk df, as
    Lucene's docFreq) must answer identically to the built one."""
    from nadry_search_engine_be_ray.pipelines.query import spell_correct
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    def lev(a: bytes, b: bytes) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    words = ["serch", "documnt", "nosuchwordatall", "engin"]
    out = spell_correct(built_index, words, max_distance=2)
    got = {
        q: (s, d, f)
        for q, s, d, f in zip(out["query"].to_pylist(),
                              out["suggestion"].to_pylist(),
                              out["distance"].to_pylist(),
                              out["df"].to_pylist())
    }

    r = SegmentReader(built_index)
    exp = {}
    for w in words:
        wb = w.encode()
        best = None
        for t in r.terms():
            d = lev(wb, t.encode())
            if d <= 2:
                key = (d, -r.postings(t).df, t)
                if best is None or key < best[0]:
                    best = (key, t, d, r.postings(t).df)
        if best is not None:
            exp[w] = (best[1], best[2], best[3])
    assert got == exp
    assert "nosuchwordatall" not in got and "serch" in got

    out_t = spell_correct(tombstoned_index, words, max_distance=2)
    assert out_t.to_pylist() == out.to_pylist()


def test_prefix_suggest_matches_bruteforce_and_tiers(built_index,
                                                     tombstoned_index):
    from nadry_search_engine_be_ray.pipelines.query import prefix_suggest
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    prefixes = ["se", "i", "zzqx"]
    out = prefix_suggest(built_index, prefixes, k=3)
    got = list(zip(out["prefix"].to_pylist(), out["term"].to_pylist(),
                   out["df"].to_pylist(), out["rank"].to_pylist()))

    r = SegmentReader(built_index)
    exp = []
    for p in sorted(set(prefixes)):
        hits = sorted(
            ((t, r.postings(t).df) for t in r.terms() if t.startswith(p)),
            key=lambda x: (-x[1], x[0]),
        )[:3]
        exp.extend((p, t, d, i + 1) for i, (t, d) in enumerate(hits))
    assert got == exp
    assert any(p == "se" for p, *_ in got)
    assert not any(p == "zzqx" for p, *_ in got)

    out_t = prefix_suggest(tombstoned_index, prefixes, k=3)
    assert out_t.to_pylist() == out.to_pylist()


def test_boolean_search_matches_set_bruteforce(built_index):
    import os

    import numpy as np
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.query import boolean_search
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    terms = sorted(r.terms(), key=lambda t: -r.postings(t).df)[:4]
    a, b, c, d = terms
    exprs = {
        "x_and": ("and", a, b),
        "x_or": ("or", c, d),
        "x_not": ("not", a),
        "x_mix": ("or", ("and", a, ("not", b)), ("and", c, d)),
    }
    out = boolean_search(built_index, exprs)
    got: dict[str, set] = {}
    for n, di in zip(out["name"].to_pylist(), out["doc_int"].to_pylist()):
        got.setdefault(n, set()).add(di)

    universe = set(
        pads.dataset(os.path.join(built_index, "doc_stats"),
                     format="parquet")
        .to_table(columns=["doc_int"])["doc_int"].to_pylist()
    )
    s = {t: set(r.postings(t).docs.tolist()) for t in terms}
    exp = {
        "x_and": s[a] & s[b],
        "x_or": s[c] | s[d],
        "x_not": universe - s[a],
        "x_mix": (s[a] - s[b]) | (s[c] & s[d]),
    }
    exp = {k: v for k, v in exp.items() if v}
    assert got == exp
    # emitted order is (name, doc_int) sorted
    rows = list(zip(out["name"].to_pylist(), out["doc_int"].to_pylist()))
    assert rows == sorted(rows)


def test_wildcard_kgram_equals_scan_path(index_tiers):
    """The k-gram-pruned wildcard path must return exactly the stream-scan
    path's answers, including unprunable patterns (fallback) and patterns
    with no matches — on the built and tombstoned dictionary layouts."""
    from nadry_search_engine_be_ray.pipelines.query import (
        wildcard_terms, wildcard_terms_kgram,
    )

    pats = ["se%ch", "%tion", "q__ri", "zzqx%", "%a%", "import"]
    for tier, idx in index_tiers.items():
        scan = wildcard_terms(idx, pats)
        kgram = wildcard_terms_kgram(idx, pats)
        assert kgram.to_pylist() == scan.to_pylist(), tier
        got_pats = set(kgram["pattern"].to_pylist())
        assert "%a%" in got_pats      # unprunable fallback produced rows
        assert "import" in got_pats   # no-wildcard exact pattern
        assert "zzqx%" not in got_pats


def test_numeric_range_matches_bruteforce(built_index):
    from nadry_search_engine_be_ray.pipelines.query import (
        numeric_range_search,
    )
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    lo, hi = 10, 99
    out = numeric_range_search(built_index, lo, hi)
    got = dict(zip(out["doc_int"].to_pylist(), out["n_terms"].to_pylist()))

    r = SegmentReader(built_index)
    exp: dict[int, int] = {}
    n_terms_in_range = 0
    for t in r.terms():
        if not t.startswith("num:"):
            continue
        try:
            v = int(t[4:])
        except ValueError:
            continue
        if lo <= v <= hi:
            n_terms_in_range += 1
            for d in r.postings(t).docs.tolist():
                exp[d] = exp.get(d, 0) + 1
    assert got == exp and exp, "corpus should index in-range numbers"
    assert n_terms_in_range >= 1
    # wide range: every numeric term participates
    all_num = {t for t in r.terms()
               if t.startswith("num:") and t[4:].isdigit()}
    wide = numeric_range_search(built_index, 0, 10**12)
    assert sum(wide["n_terms"].to_pylist()) == sum(
        r.postings(t).df for t in all_num)
    # empty range behaves
    assert numeric_range_search(built_index, 10**15, 10**15 + 1).num_rows == 0


def test_more_like_this_matches_bruteforce(built_index):
    import os

    import numpy as np
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.query import more_like_this
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    di = pads.dataset(os.path.join(built_index, "doc_stats"),
                      format="parquet").to_table(columns=["doc_int"])
    src = min(di["doc_int"].to_pylist())
    out = more_like_this(built_index, src, n_terms=4, k=5)

    # brute: term vector = every term whose posting list contains src
    tv = []
    for t in r.terms():
        pl = r.postings(t)
        j = int(np.searchsorted(pl.docs, src))
        if j < pl.df and pl.docs[j] == src:
            tv.append((t, int(pl.tfs[j]), pl.df))
    sel = [t for t, _, _ in sorted(tv, key=lambda x: (-x[1], x[2], x[0]))[:4]]
    scores: dict[int, float] = {}
    for t in sel:
        pl = r.postings(t)
        for d, w in zip(pl.docs.tolist(), pl.weights.tolist()):
            if d != src:
                scores[d] = scores.get(d, 0.0) + w
    exp = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[:5]
    got = list(zip(out["doc_int"].to_pylist(), out["score"].to_pylist()))
    assert got == [(d, round(s, 9)) for d, s in exp]
    assert out["rank"].to_pylist() == list(range(1, len(exp) + 1))
    assert src not in out["doc_int"].to_pylist()
    # unknown doc -> empty
    assert more_like_this(built_index, -1).num_rows == 0


# ---------------------------------------------------------------------------
# keyset pagination + field collapsing
# ---------------------------------------------------------------------------

def test_search_after_equals_rank_window(engine):
    """Pages chained by the (score, doc_int) cursor must tile the single
    top-k ranking exactly (SearchEngine.search_after: strict-after filter
    under the total order (score DESC, doc_int ASC))."""
    for q in ["search engine query", "document the", "alpha beta"]:
        full = engine.topk_taat(q, k=30, scorer="bm25")
        if not full:
            continue
        pages, cursor = [], None
        for _ in range(3):
            page = engine.search_after(q, cursor, k=10, scorer="bm25")
            if not page:
                break
            pages.extend(page)
            cursor = (page[-1][1], page[-1][0])
        assert pages == full[: len(pages)]
        assert len(pages) == min(30, len(full))


def test_search_after_empty_and_tail(engine):
    assert engine.search_after("zzznotaterm", None, k=5) == []
    q = "search engine"
    full = engine.topk_taat(q, k=10 ** 6, scorer="bm25")
    last = (full[-1][1], full[-1][0])
    assert engine.search_after(q, last, k=5, scorer="bm25") == []


def test_collapse_by_group_matches_bruteforce(built_index):
    """mode="collapse" == pandas groupby-idxmax brute force: one winner
    per repo by (score DESC, doc_int ASC), global top-k over winners."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.pipelines.query import SearchEngine
    from nadry_search_engine_be_ray.pipelines.serve import batch_search

    qs = ["search engine query", "document the", "alpha beta"]
    out = batch_search(
        ray.data.from_arrow(pa.table({"query": pa.array(qs, pa.string())})),
        built_index, "collapse", concurrency=2,
    ).to_pandas()

    eng = SearchEngine(built_index)
    meta = pads.dataset(
        os.path.join(built_index, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", "repo"]).to_pandas()
    for q in qs:
        docs, acc = eng.all_scores(q, "bm25")
        df = pd.DataFrame({"doc_int": docs, "score": acc}).merge(
            meta, on="doc_int"
        )
        df = df.sort_values(
            ["score", "doc_int"], ascending=[False, True]
        ).drop_duplicates("repo").head(10).reset_index(drop=True)
        got = out[out["query"] == q].sort_values("rank")
        assert got["doc_id"].tolist() == [
            f"{int(d):015x}" for d in df["doc_int"]
        ]
        assert got["group"].tolist() == df["repo"].tolist()
        assert np.allclose(got["score"].to_numpy(), df["score"].to_numpy())


def test_weighted_scores_plain_multiset_special_case(engine):
    """all_scores_weighted with weights = token multiplicities must equal
    the plain accumulator (w*x vs x added w times is exact; only cross-term
    addition order differs -> allclose)."""
    from collections import Counter

    q = "search engine query the search"
    tokens = engine.tokenizer.tokenize(q)
    w = {t: float(m) for t, m in Counter(tokens).items()}
    d1, s1 = engine.all_scores(q, "bm25")
    d2, s2 = engine.all_scores_weighted(w, "bm25")
    assert np.array_equal(d1, d2)
    assert np.allclose(s1, s2, rtol=1e-12)


def test_rocchio_expansion_changes_ranking(built_index):
    """Rocchio: expansion terms are new (not in the query), weight beta
    contributes, and beta=0 degrades to plain BM25 top-10."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.serve import batch_search

    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(["search engine query"], pa.string())})
    )
    out = batch_search(qds, built_index, "rocchio", concurrency=1,
                       batch_size=4).to_pandas()
    assert len(out) > 0

    zero = batch_search(qds, built_index, "rocchio", concurrency=1,
                        batch_size=4, r=5, e=3, beta=0.0).to_pandas()
    eng = SearchEngine(built_index)
    plain = eng.topk_taat("search engine query", k=10, scorer="bm25")
    assert zero["doc_id"].tolist() == [f"{d:015x}" for d, _ in plain]
    assert np.allclose(
        zero["score"].to_numpy(), [s for _, s in plain], rtol=1e-12
    )


def test_bm25f_scores_accumulated_field_weight(engine):
    """bm25f == BM25 saturation applied to the stored accumulated field
    weight (brute-force recompute from the posting lists)."""
    q = "search engine query"
    got = engine.topk_taat(q, k=10, scorer="bm25f")
    assert got

    tokens = engine.tokenizer.tokenize(q)
    n = engine.stats["n_docs"]
    avgdl = engine.stats["avgdl"]
    acc = {}
    for t in set(tokens):
        pl = engine.reader.postings(t)
        if pl is None:
            continue
        idf = math.log((n - pl.df + 0.5) / (pl.df + 0.5) + 1.0)
        tw, _ = engine.docs.lookup(pl.docs)
        mult = tokens.count(t)
        for d, w, dl in zip(pl.docs, pl.weights, tw):
            s = idf * (w * 2.2) / (w + 1.2 * (0.25 + 0.75 * dl / avgdl))
            acc[int(d)] = acc.get(int(d), 0.0) + mult * s
    exp = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert [d for d, _ in got] == [d for d, _ in exp]
    assert np.allclose([s for _, s in got], [s for _, s in exp], rtol=1e-9)


def test_synonym_expansion_gamma_zero_is_plain(built_index):
    """gamma=0 synonym expansion must equal plain BM25 (synonym weights
    become 0 and a 0-weight term adds exact-zero contributions)."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.serve import batch_search

    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(["search engine"], pa.string())})
    )
    out = batch_search(qds, built_index, "synonym", concurrency=1,
                       batch_size=4, thesaurus=None, gamma=0.0).to_pandas()
    eng = SearchEngine(built_index)
    plain = eng.topk_taat("search engine", k=10, scorer="bm25")
    assert out["doc_id"].tolist() == [f"{d:015x}" for d, _ in plain]
    assert np.allclose(
        out["score"].to_numpy(), [s for _, s in plain], rtol=1e-12
    )


def test_stem_thesaurus_drops_multi_token_and_self(built_index):
    from nadry_search_engine_be_ray.pipelines.serve import stem_thesaurus

    eng = SearchEngine(built_index)
    syn = stem_thesaurus(
        {"search": ["searches", "find me", "lookup"],
         "the": ["a"]},  # stopwords tokenize to [] -> dropped
        eng.tokenizer,
    )
    # "searches" stems to "search" (self) and "find me" is 2 tokens
    assert syn.get("search") == ["lookup"]
    assert "the" not in syn


def test_field_search_matches_postings_dump(built_index):
    """serve.field_postings' positions-derived per-field tf must equal
    the re-tokenized term rows (``DocStore.term_rows``, the same numbers
    the SQL oracle reads)."""
    import pyarrow.compute as pc

    from nadry_search_engine_be_ray.pipelines.serve import field_postings

    eng = SearchEngine(built_index)
    post = eng.docs.term_rows(eng.docs.doc_ints)
    for term in ["search", "engin", "queri"]:
        fp = field_postings(eng, term, 1)
        rows = post.filter(
            (pc.field("term") == term) & (pc.field("field") == 1)
        ).select(["doc_int", "tf"])
        exp = rows.to_pandas().groupby("doc_int")["tf"].sum().sort_index()
        if fp is None:
            assert len(exp) == 0, term
            continue
        docs, tff, _ = fp
        assert docs.tolist() == exp.index.tolist(), term
        assert tff.tolist() == exp.values.astype(float).tolist(), term


def test_explain_contributions_sum_to_score(built_index):
    """Explain rows for a (query, doc) must sum to the doc's BM25 score
    (contributions are rounded to 9 dp; tolerance covers the rounding)."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.serve import batch_search

    q = "search engine query"
    out = batch_search(
        ray.data.from_arrow(pa.table({"query": pa.array([q], pa.string())})),
        built_index, "explain", concurrency=1, batch_size=4,
    ).to_pandas()
    assert len(out) > 0
    eng = SearchEngine(built_index)
    top = {f"{d:015x}": s for d, s in eng.topk_taat(q, k=3, scorer="bm25")}
    sums = out.groupby("doc_id")["contribution"].sum()
    assert set(sums.index) == set(top)
    for doc, s in sums.items():
        assert abs(s - top[doc]) < 1e-7, doc


def test_sloppy_phrase_slop1_equals_exact_adjacency(engine):
    """slop=1 sloppy phrase must match exactly the docs the exact phrase
    chain matches (same adjacency semantics; ranking differs only in the
    scorer, so compare doc sets)."""
    for phrase in ["item order", "order arrived late"]:
        sloppy = {d for d, _ in
                  engine.sloppy_phrase_search(phrase, slop=1, k=10 ** 6)}
        exact = engine.phrase_search(phrase, 0, 10 ** 6)
        # result doc_id is the full-length id; doc_int is its 15-hex prefix
        exact_docs = {int(r["doc_id"][:15], 16) for r in exact["results"]}
        assert sloppy == exact_docs, phrase


def test_sloppy_phrase_monotone_in_slop(engine):
    """Raising slop can only ADD matching docs (the window widens)."""
    prev: set = set()
    for slop in [1, 2, 4, 8]:
        cur = {d for d, _ in
               engine.sloppy_phrase_search("item order", slop, k=10 ** 6)}
        assert prev <= cur, slop
        prev = cur


def test_sloppy_phrase_bruteforce_window(engine):
    """Chain membership == brute-force scan over decoded positions."""
    phrase, slop = "item order", 3
    toks = engine.tokenizer.tokenize(phrase)
    pls = [engine.reader.postings(t) for t in toks]
    assert all(p is not None for p in pls)
    got = {d for d, _ in
           engine.sloppy_phrase_search(phrase, slop, k=10 ** 6)}
    exp = set()
    common = np.intersect1d(pls[0].docs, pls[1].docs)
    for d in common.tolist():
        pa_ = pls[0].positions_for(int(np.searchsorted(pls[0].docs, d)))
        pb_ = pls[1].positions_for(int(np.searchsorted(pls[1].docs, d)))
        for f, ps in pa_.items():
            qs = pb_.get(f)
            if qs is None:
                continue
            if any(1 <= q - p <= slop for p in ps for q in qs):
                exp.add(int(d))
                break
    assert got == exp


def test_facet_stats_matches_pandas_bruteforce(built_index):
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.query import facet_stats

    out = facet_stats(built_index, ["search", "engin"],
                      facet="lang").to_pandas()
    assert len(out) > 0

    eng = SearchEngine(built_index)
    matched = np.union1d(eng.reader.postings("search").docs,
                         eng.reader.postings("engin").docs)
    meta = pads.dataset(
        os.path.join(built_index, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", "lang"]).to_pandas()
    stats = pads.dataset(
        os.path.join(built_index, "doc_stats"), format="parquet"
    ).to_table().to_pandas()
    df = meta[meta["doc_int"].isin(matched)].merge(stats, on="doc_int")
    exp = df.groupby("lang")["total_words"].agg(
        ["count", "sum", "min", "max"]
    ).sort_index()
    assert out["value"].tolist() == exp.index.tolist()
    assert out["n_docs"].tolist() == exp["count"].tolist()
    assert out["sum_words"].tolist() == exp["sum"].tolist()
    assert out["min_words"].tolist() == exp["min"].tolist()
    assert out["max_words"].tolist() == exp["max"].tolist()

    # no matches -> empty table with the declared schema
    empty = facet_stats(built_index, ["zzznotaterm"])
    assert empty.num_rows == 0


def test_significant_terms_matches_bruteforce(built_index):
    """Partial-top-k segment scan == brute-force lift over every term."""
    from nadry_search_engine_be_ray.pipelines.query import significant_terms

    out = significant_terms(built_index, ["search", "engin"],
                            k=10).to_pandas()
    assert len(out) == 10

    eng = SearchEngine(built_index)
    matched = np.union1d(eng.reader.postings("search").docs,
                         eng.reader.postings("engin").docs)
    n_docs = eng.stats["n_docs"]
    rows = []
    for t in eng.reader.terms():
        pl = eng.reader.postings(t)
        nm = int(np.isin(pl.docs, matched).sum())
        if nm >= 3:
            lift = (nm / matched.size) / (pl.df / n_docs)
            rows.append((t, nm, pl.df, round(lift, 9)))
    rows.sort(key=lambda r: (-r[3], -r[1], r[0]))
    exp = rows[:10]
    assert list(map(tuple, out.itertuples(index=False))) == exp


def test_evaluate_bm25_known_values(built_index):
    """Metric sanity on constructed cases: a query whose top hit is
    relevant scores mrr=1; an unknown term scores zeros; metrics bounded
    in [0, 1]."""
    from nadry_search_engine_be_ray.pipelines.query import (
        NDCG_DISCOUNTS,
        evaluate_bm25,
    )

    out = evaluate_bm25(
        built_index, ["search", "zzzznotaterm", "search engine"]
    ).to_pandas().set_index("query")
    # single-term query: every candidate is relevant -> mrr = ndcg = 1
    row = out.loc["search"]
    assert row["mrr"] == 1.0 and row["ndcg"] == 1.0
    assert 0 < row["recall"] <= 1.0
    row = out.loc["zzzznotaterm"]
    assert row["n_rel"] == 0 and row["mrr"] == 0 and row["ndcg"] == 0
    row = out.loc["search engine"]
    assert 0 <= row["mrr"] <= 1 and 0 <= row["ndcg"] <= 1
    assert abs(NDCG_DISCOUNTS[0] - 1.0) < 1e-12


def test_spell_correct_kgram_equals_stream_path(index_tiers):
    """The gram-pruned spell path is DEFINED to answer identically to the
    stream scan (VERDICT r4 #7): same words, same (query, suggestion,
    distance, df) rows — including short words that fall back and words
    with no in-range candidate — on every dictionary layout."""
    from nadry_search_engine_be_ray.pipelines.query import (
        spell_correct, spell_correct_kgram,
    )

    words = ["serch", "documnt", "nosuchwordatall", "engin",
             "ab",          # |set(G(w))| - k*d <= 0 -> stream fallback
             "tokken", "indx"]
    for tier, idx in index_tiers.items():
        stream = spell_correct(idx, words, max_distance=2)
        pruned = spell_correct_kgram(idx, words, max_distance=2)
        assert pruned.to_pylist() == stream.to_pylist(), tier
        # distance-1 budget exercises a different threshold
        s1 = spell_correct(idx, words, max_distance=1)
        p1 = spell_correct_kgram(idx, words, max_distance=1)
        assert p1.to_pylist() == s1.to_pylist(), tier


def test_prefix_suggest_kgram_equals_stream_path(index_tiers):
    """The gram-pruned autocomplete answers identically to the stream
    scan, including sub-gram-length prefixes (dictionary fallback) and
    no-match prefixes, on every dictionary layout."""
    import pytest

    from nadry_search_engine_be_ray.pipelines.query import (
        prefix_suggest, prefix_suggest_kgram,
    )

    prefixes = ["se", "ind", "tok", "i", "zzqx"]
    for tier, idx in index_tiers.items():
        for k in (5, 3):
            stream = prefix_suggest(idx, prefixes, k=k)
            pruned = prefix_suggest_kgram(idx, prefixes, k=k)
            assert pruned.to_pylist() == stream.to_pylist(), (tier, k)
    with pytest.raises(ValueError, match="literal"):
        prefix_suggest_kgram(index_tiers["compacted"], ["se%"], k=3)


def test_reader_df_is_dictionary_df_stale(index_tiers):
    """``SegmentReader.df`` (the on-disk df of a term's row) equals
    the decoded list's ``df_stale`` for every term — tombstoned docs
    included, as Lucene's docFreq — and is 0 for an unknown term."""
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    for tier, idx in index_tiers.items():
        r = SegmentReader(idx)
        terms = sorted(r.terms())
        assert len(terms) > 1000, tier
        got = {t: r.df(t) for t in terms}
        assert got == {t: r.postings(t).df_stale for t in terms}, tier
        assert r.df("nosuchterm") == 0
    masked = SegmentReader(index_tiers["tombstoned"])
    assert any(masked.postings(t).df < masked.df(t) for t in masked.terms())


def test_reader_df_reads_no_payload(built_index):
    """df comes from the eagerly read dictionary columns: no posting row
    group is fetched and nothing is decoded."""
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(built_index)
    assert sum(r.df(t) for t in list(r.terms())) > 0
    assert not r._rg_cache and not r._pl_cache


def _eager_postings(index_dir):
    """Every term's posting list decoded from its one segment row with
    the per-row decoders (its docs cell as a one-row column mapped through
    the tier's doc-int map, the reader's own helper) and tombstoned docs
    dropped doc by doc: the reader's answer, computed without its
    row-group decode or its lazy positions."""
    import glob
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.functions import codec
    from nadry_search_engine_be_ray.stages.encode import (
        decode_docs_column, decode_docs_stream, decode_tfs_stream,
        load_doc_ints,
    )
    from nadry_search_engine_be_ray.state.deletes import load_tombstones
    from nadry_search_engine_be_ray.state.segments import segment_root

    with open(os.path.join(index_dir, "stats.json")) as f:
        c = json.load(f).get("docs_codec", "varint")
    dead = set(load_tombstones(index_dir).tolist())
    doc_ints = load_doc_ints(segment_root(index_dir))
    out = {}
    for fp in sorted(glob.glob(os.path.join(segment_root(index_dir), "*",
                                            "*.parquet"))):
        for r in pq.read_table(fp).to_pylist():
            term = r["term"]
            assert term not in out, term
            off = decode_docs_stream(r["pos_offsets"], c).astype(np.int64)
            docs = decode_docs_column(pa.array([r["docs"]], pa.binary()),
                                      [r["df"]], c, doc_ints)[0].tolist()
            tfs = decode_tfs_stream(r["tfs"], c).astype(np.int64).tolist()
            ws = codec.decode_f64(r["weights"]).tolist()
            slices = [r["positions"][a:b] for a, b in zip(off[:-1], off[1:])]
            live = [i for i, d in enumerate(docs) if d not in dead]
            kept = [slices[i] for i in live]
            out[term] = (
                [docs[i] for i in live], [tfs[i] for i in live],
                [ws[i] for i in live], b"".join(kept),
                np.cumsum([0] + [len(s) for s in kept]).tolist(),
                None if len(live) == len(docs) else len(docs),
            )
    return out


def test_postings_equal_eager_row_decode(index_tiers):
    """On every dictionary layout, each term's PostingList — positions
    included, tombstone mask applied at positions load — equals the
    per-row eager decode, with a row-group cache small enough to evict."""
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    for tier, idx in index_tiers.items():
        exp = _eager_postings(idx)
        r = SegmentReader(idx, rg_cache_cap=3)
        assert sorted(r.terms()) == sorted(exp), tier
        for term, e in exp.items():
            pl = r.postings(term)
            got = (pl.docs.tolist(), pl.tfs.tolist(), pl.weights.tolist(),
                   pl.positions_buf, pl.pos_offsets.tolist(), pl.df_total)
            assert got == e, (tier, term)
            assert pl.docs.dtype == pl.tfs.dtype == np.int64


def test_score_queries_read_no_positions_column(built_index, monkeypatch):
    """BM25/TAAT/WAND scoring fetches only the docs/tfs/weights columns;
    the first phrase query fetches positions/pos_offsets, by themselves."""
    import pyarrow.parquet as pq

    reads = []
    real = pq.ParquetFile.read_row_group

    def spy(self, i, columns=None, **kw):
        reads.append(tuple(columns or ()))
        return real(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", spy)
    eng = SearchEngine(built_index)
    for q in ("item order arrived", "search engine index", "nation"):
        eng.bm25_search(q, k=10)
        eng.bm25_search(q, k=10, use_wand=True)
        eng.topk_taat(q, k=10, scorer="additive")
    seg = [c for c in reads if "docs" in c or "positions" in c]
    assert seg and all(c == ("docs", "tfs", "weights") for c in seg)
    reads.clear()
    assert eng.phrase_search("item order")["total_results"] > 0
    assert ("positions", "pos_offsets") in reads
    assert all("docs" not in c for c in reads if "positions" in c)


def test_posting_list_holds_no_reader(built_index):
    """A used SegmentReader dies on ``del`` with cyclic GC off — no
    PostingList, loaded or not, refers back to it — and a surviving list
    still loads its positions afterwards."""
    import gc
    import pickle
    import weakref

    from nadry_search_engine_be_ray.state.segments import SegmentReader

    gc.disable()
    try:
        r = SegmentReader(built_index)
        terms = sorted(r.terms())[:40]
        for t in terms[:20]:
            r.postings(t).positions_for(0)
        lazy = r.postings(terms[-1])
        ref = weakref.ref(r)
        del r
        assert ref() is None
    finally:
        gc.enable()
    shipped = pickle.loads(pickle.dumps(lazy))
    assert not callable(shipped.positions)
    assert shipped.positions_buf == lazy.positions_buf
    assert shipped.pos_offsets.tolist() == lazy.pos_offsets.tolist()
