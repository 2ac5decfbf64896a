"""Batch + sharded query serving.

Reference analog: the Spring request path (SearchController.java:53-120) —
reexpressed Ray-Data-first, two layers:

* ``batch_search``: a Dataset of query rows flows through
  ``map_batches(QueryEvalActor, concurrency=N)`` where each actor holds a
  full ``SearchEngine`` (segments mmap'd + doc stats) built ONCE in
  ``__init__`` (T5: state loaded once per worker).  Per-query math is
  byte-identical to the single-query path because both call the same
  SearchEngine.  ``QueryEvalActor`` is the only batch actor: its ``mode``
  names a retriever set-up in :data:`MODES`, ``(engine, index_dir,
  **params) -> (fields, run)``; ``run(query, page, page_size)`` returns
  that query's rows in ``fields`` order, typed into one table per batch.
* ``ShardedSearchEngine``: the MULTI-NODE serving design made concrete —
  one ``ShardSegmentActor`` per segment shard (each holding a page-lazy
  SegmentReader for ONLY its shard, S9/S10 as a shared mutable-cache
  service), with the query layer scattering a query's terms to their
  ``term_shard`` owners in parallel and gathering decoded postings
  (numpy arrays ride the object store zero-copy).  Scoring runs on the
  gather side with the SAME SearchEngine arithmetic, so results are
  identical to the single-process engine (tested).  On one box the
  actors share the page cache; on a cluster they pin shards to nodes.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data

from ..functions.codec import decode_doc_positions_flat
from ..stages.tokenize import term_shard
from ..state.deletes import live_mask
from ..state.segments import LRU, POSTING_CACHE_ENTRIES, PostingList
from .query import SearchEngine, bm25_idf

_RANK = ("rank", pa.int32())
_DOC = ("doc_id", pa.string())
_SCORE = ("score", pa.float64())
_RANKED = [_RANK, _DOC, _SCORE]


def _top(docs: np.ndarray, acc: np.ndarray, k: int, *extra) -> list[tuple]:
    """Top-``k`` ``(rank, hex doc_id, score, *extra)`` rows by (score DESC,
    doc_int ASC); ``extra`` are int arrays aligned with ``docs``."""
    order = np.lexsort((docs, -acc))[:k]
    return [(i, f"{int(docs[j]):015x}", float(acc[j]),
             *(int(x[j]) for x in extra)) for i, j in enumerate(order)]


def _reference(engine, index_dir):
    """The reference request path (``SearchEngine.search_auto``: quoted
    queries go to phrase search, the rest to ``search``), paged by the
    row's ``page``/``page_size``."""
    def run(q, page, size):
        res = engine.search_auto(q, page, size)
        return [(i, r["doc_id"], float(r["score"]), res["total_results"])
                for i, r in enumerate(res["results"])]
    return _RANKED + [("total_results", pa.int64())], run


def _taat(scorer):
    """Set-up for the exact TAAT top-``page_size`` page under ``scorer``;
    ``total_results`` is the number of hits returned."""
    def setup(engine, index_dir):
        def run(q, page, size):
            hits = engine.topk_taat(q, k=size, scorer=scorer)
            return [(i, f"{d:015x}", float(s), len(hits))
                    for i, (d, s) in enumerate(hits)]
        return _RANKED + [("total_results", pa.int64())], run
    return setup


def _search_after(engine, index_dir, k=10, scorer="bm25"):
    """Keyset-pagination evaluator: page 1 (top-k) establishes the cursor,
    page 2 is fetched with SearchEngine.search_after — the deep-pagination
    path whose cost does not grow with the offset."""
    def run(q, page, size):
        page1 = engine.search_after(q, None, k=k, scorer=scorer)
        if len(page1) < k:
            return []  # no page 2
        cursor = (page1[-1][1], page1[-1][0])  # (score, doc_int)
        page2 = engine.search_after(q, cursor, k=k, scorer=scorer)
        return [(k + i, f"{d:015x}", float(s))
                for i, (d, s) in enumerate(page2)]
    return _RANKED, run


def _collapse(engine, index_dir, group_col="repo", k=10, scorer="bm25"):
    """Field-collapsed search (Lucene/ES collapse, web-search site
    collapsing): at most one result per ``group_col`` value, best doc per
    group by (score DESC, doc_int ASC), then global top-k over the group
    winners.

    The doc -> group mapping is the doc-values analog: a sorted doc_int
    array + dictionary-coded group ids loaded ONCE per actor from the
    index's prepped table (12 B/doc; at 100 TB this column is loaded per
    index shard by the sharded serve path, not the whole corpus per
    actor)."""
    t = pads.dataset(
        os.path.join(index_dir, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", group_col])
    di = t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
    de = t[group_col].combine_chunks().dictionary_encode()
    by_doc = np.argsort(di, kind="stable")
    doc_ints = di[by_doc]
    doc_codes = de.indices.to_numpy(
        zero_copy_only=False).astype(np.int64)[by_doc]
    names = de.dictionary.to_pylist()

    def run(q, page, size):
        docs, acc = engine.all_scores(q, scorer)
        if not docs.size:
            return []
        codes = doc_codes[np.searchsorted(doc_ints, docs)]
        order = np.lexsort((docs, -acc))
        # first occurrence of each group in rank order = group winner
        _, first = np.unique(codes[order], return_index=True)
        win = order[np.sort(first)][:k]
        return [(i, f"{int(docs[j]):015x}", names[int(codes[j])],
                 float(acc[j])) for i, j in enumerate(win)]
    return [_RANK, _DOC, ("group", pa.string()), _SCORE], run


def _rocchio(engine, index_dir, r=5, e=3, beta=0.5):
    """Pseudo-relevance feedback (Rocchio, SMART retrieval): take the
    top-``r`` BM25 hits as pseudo-relevant, pick the ``e`` most
    representative NEW terms from their term vectors — INTEGER-ONLY
    selection (tf-sum DESC, df ASC, term ASC), the more_like_this recipe,
    so the SQL oracle reproduces it without float-log hazards — and
    re-score with the expanded weighted query (original multiplicities at
    weight 1.0, expansion terms at ``beta``).

    ``engine.representative_terms`` picks them from the feedback docs'
    stored text, re-analyzed by the build's tokenizer (Lucene's
    ``MoreLikeThis`` without stored term vectors) — a point lookup per
    feedback doc through the prepped row-group locator, never a scan.
    """

    def run(q, page, size):
        docs, acc = engine.all_scores(q, "bm25")
        if not docs.size:
            return []
        fb_docs = docs[np.lexsort((docs, -acc))[:r]]
        tokens = engine.tokenizer.tokenize(q)
        weights = {t: float(m) for t, m in Counter(tokens).items()}
        for t in engine.representative_terms(fb_docs, e, set(tokens)):
            weights[t] = beta
        return _top(*engine.all_scores_weighted(weights, "bm25"), 10)
    return _RANKED, run


def expand_with_synonyms(tokens: list[str], syn: dict[str, list[str]],
                         gamma: float) -> dict[str, float]:
    """Weighted term multiset for a synonym-expanded query: original
    multiplicities at 1.0 plus ``gamma`` * multiplicity for each synonym
    of each token (weights merge when a synonym collides with another
    query term) — deterministic, shared verbatim by the SQL-oracle
    generator."""
    weights = {t: float(m) for t, m in Counter(tokens).items()}
    for t, m in sorted(Counter(tokens).items()):
        for s in syn.get(t, []):
            weights[s] = weights.get(s, 0.0) + gamma * m
    return weights


def stem_thesaurus(thesaurus: dict[str, list[str]], tokenizer) \
        -> dict[str, list[str]]:
    """RAW-word thesaurus -> stemmed term mapping via the engine's own
    tokenizer (single-token entries only; stopword-stemmed entries drop
    out naturally)."""
    syn: dict[str, list[str]] = {}
    for base, syns in sorted(thesaurus.items()):
        bts = tokenizer.tokenize(base)
        if len(bts) != 1:
            continue
        out = []
        for s in syns:
            sts = tokenizer.tokenize(s)
            if len(sts) == 1 and sts[0] != bts[0]:
                out.append(sts[0])
        if out:
            syn.setdefault(bts[0], []).extend(sorted(out))
    return syn


def _synonym(engine, index_dir, thesaurus=None, gamma=0.4):
    """Query-time synonym expansion (Lucene SynonymGraphFilter analog):
    each query term ORs in its thesaurus synonyms at a discounted weight
    ``gamma``, scored through the weighted BM25 accumulator.  The stemmed
    mapping is built once per actor; expansion itself is a pure dict
    rewrite — no extra index structure."""
    from ..sources.corpus import QUERY_THESAURUS

    syn = stem_thesaurus(
        thesaurus if thesaurus is not None else QUERY_THESAURUS,
        engine.tokenizer,
    )

    def run(q, page, size):
        tokens = engine.tokenizer.tokenize(q)
        if not tokens:
            return []
        weights = expand_with_synonyms(tokens, syn, gamma)
        return _top(*engine.all_scores_weighted(weights, "bm25"), 10)
    return _RANKED, run


def field_postings(engine, term: str, field: int):
    """Per-field posting list of ``term``: ``(docs, tf_f, idf_f)`` or
    None.  The index stores no per-field posting lists — the positions
    payload's field masks double as field storage (the FieldInfo analog),
    so per-field tf is one vectorized flat-decode + bincount per posting
    list: tf_f[doc] = |positions of the term in field f|.  df and idf are
    field-restricted (docs where tf_f > 0)."""
    pl = engine.reader.postings(term)
    if pl is None or pl.df == 0:
        return None
    dr, f, _ = decode_doc_positions_flat(
        pl.positions_buf, pl.pos_offsets, np.arange(pl.df)
    )
    tf = np.bincount(dr[f == field], minlength=pl.df)
    keep = tf > 0
    if not keep.any():
        return None
    docs = pl.docs[keep]
    return docs, tf[keep].astype(np.float64), bm25_idf(engine.n_docs, docs.size)


def _field(engine, index_dir, field=0, k=10):
    """Fielded search (Lucene ``title:term``): BM25 over the tf of ONE
    field only (:func:`field_postings`); dl stays the whole-doc length
    (documented simple variant — per-field length norms would need a
    per-field doc_stats column).

    100 TB note: a production fielded tier would materialize per-field
    posting lists at build time; this query-time derivation trades one
    positions decode per (term, query) for zero extra index bytes."""
    def run(q, page, size):
        # duplicates keep duplicate contribution
        parts = [fp for t in engine.tokenizer.tokenize(q)
                 if (fp := field_postings(engine, t, field)) is not None]
        return _top(*engine._accumulate(
            [(docs, idf * engine._saturate(docs, tff))
             for docs, tff, idf in parts]), k)
    return _RANKED, run


def _explain(engine, index_dir, n_docs=3):
    """Score explanation (Lucene's explain API): for each query's top-n
    BM25 hits, one row per contributing term with the full factor
    breakdown (tf, stale df, idf, saturated tf part, weighted
    contribution) — the rows sum to the hit's score, which the oracle
    recomputes independently term-by-term."""
    def run(q, page, size):
        top = sorted(d for d, _ in engine.topk_taat(q, k=n_docs, scorer="bm25"))
        return [(f"{d:015x}", t, tf, df, round(idf, 9), round(c, 9))
                for t, d, tf, df, idf, c in engine.explain(q, top)]
    return [_DOC, ("term", pa.string()), ("tf", pa.int64()),
            ("df", pa.int64()), ("idf", pa.float64()),
            ("contribution", pa.float64())], run


def ensure_champion_tier(index_dir: str, m: int = 3) -> str:
    """Build (once, `_DONE`-checkpointed) the champion-list parquet tier
    for ``index_dir`` — per term, the top-``m`` postings by accumulated
    field weight (pipelines/build.champion_lists), written sorted so a
    query's pruned read touches only its terms' row groups.  Called once
    before spawning ``champion``/``tiered`` actor pools so concurrent
    actors never race the build."""
    from .build import champion_lists

    champ_dir = os.path.join(index_dir, f"champions_{m}")
    done = os.path.join(champ_dir, "_DONE")
    if not os.path.exists(done):
        shutil.rmtree(champ_dir, ignore_errors=True)
        tbl = champion_lists(index_dir, m=m)
        os.makedirs(champ_dir, exist_ok=True)
        pq.write_table(
            tbl.sort_by([("term", "ascending"), ("w_rank", "ascending")]),
            os.path.join(champ_dir, "champions.parquet"),
            row_group_size=4096,
        )
        with open(done, "w") as f:
            f.write("champion tier")
    return champ_dir


def _champion_tier(engine, index_dir, m):
    """Tier-1 access shared by the ``champion`` and ``tiered`` modes: the
    champion dataset is opened once per actor; ``read(mult)`` returns one
    query's LIVE tier-1 rows (tombstoned docs masked like every posting
    read) and ``score(mult, rows, k)`` ranks them."""
    champ_dir = os.path.join(index_dir, f"champions_{m}")
    if not os.path.exists(os.path.join(champ_dir, "_DONE")):
        raise RuntimeError("champion tier missing — call "
                           "ensure_champion_tier() before the actors start")
    tier = pads.dataset(champ_dir, format="parquet")

    def read(mult: Counter):
        tbl = tier.to_table(
            columns=["term", "doc_int", "weight"],
            filter=pc.field("term").isin(pa.array(sorted(mult), pa.string())),
        )
        docs = tbl["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        live = live_mask(docs, engine.reader.deleted)
        return (np.asarray(tbl["term"].to_pylist(), dtype=object)[live],
                docs[live],
                tbl["weight"].to_numpy(zero_copy_only=False)[live])

    def score(mult: Counter, rows, k: int) -> list[tuple]:
        terms_col, docs_col, w_col = rows
        parts = []
        for t in sorted(mult):   # fixed term order -> deterministic
            sel = terms_col == t
            if sel.any():
                idf = bm25_idf(engine.n_docs, engine.reader.df(t))
                parts.append((docs_col[sel], mult[t] * idf
                              * engine._saturate(docs_col[sel], w_col[sel])))
        return _top(*engine._accumulate(parts), k)
    return read, score


def _champion(engine, index_dir, m=3, k=10):
    """Champion-list early-termination retrieval (Manning/Raghavan/
    Schütze IR §7.1.3; Persin-style impact ordering): each query term
    contributes ONLY its top-``m`` postings by accumulated field weight —
    the build-side champion tier — so a query's candidate work is bounded
    by ``len(tokens) × m`` REGARDLESS of posting-list length.  The score
    of a surviving entry is the exact bm25f expression (weight-saturated,
    stale-df idf), i.e. at m → ∞ the ranking equals the engine's bm25f
    mode; at finite m it is the declared inexact-top-k semantics, which
    the SQL oracle replays exactly (row_number ≤ m over the dumped
    tokw table), so the approximation is hash-checked, not hand-waved.

    100 TB note: the query path reads the champion parquet with a
    term-pruned row-group read (the tier is sorted by term) and never
    decodes a posting payload; df comes from the dictionary.  Production
    would store df beside the champion rows to avoid the dictionary
    lookup per term."""
    read, score = _champion_tier(engine, index_dir, m)

    def run(q, page, size):
        mult = Counter(engine.tokenizer.tokenize(q))
        return score(mult, read(mult), k) if mult else []
    return _RANKED, run


def _tiered(engine, index_dir, m=3, k=10):
    """Tiered retrieval (IR-book §7.2.1 tiered indexes): tier 1 is the
    champion parquet (per term, top-``m`` postings by field weight); if
    tier 1 yields at least ``k`` DISTINCT candidate docs the query is
    answered from tier 1 alone with the champion scoring (bounded work),
    otherwise it falls back to full bm25f evaluation over the complete
    posting lists — the classic accuracy/latency ladder, with the tier
    choice emitted per row so the oracle hash-checks WHICH tier fired,
    not just the ranking.  One tier-1 read per query serves both the
    gate and the scoring."""
    read, score = _champion_tier(engine, index_dir, m)

    def run(q, page, size):
        mult = Counter(engine.tokenizer.tokenize(q))
        if not mult:
            return []
        rows = read(mult)
        if np.unique(rows[1]).size >= k:
            return [(*r, 1) for r in score(mult, rows, k)]
        return [(*r, 2)  # tier-1 under-filled: full evaluation
                for r in _top(*engine.all_scores(q, "bm25f"), k)]
    return _RANKED + [("tier", pa.int32())], run


def _highlight(engine, index_dir, k=3):
    """Match-offset extraction for result highlighting (the Lucene
    UnifiedHighlighter analog; the reference's snippet marker consumes
    exactly this data, SearchWrapper.java:566-638): for each query, the
    engine's BM25 top-``k`` docs, then every (term, field, position)
    occurrence of each query term in each top doc, decoded from the
    positions payload of just the query terms' posting lists — per-query
    work is bounded by tokens × k docs × occurrences, never corpus size.

    Output (query, rank, doc_id, term, field, pos); a top doc missing a
    term (multi-term queries) simply contributes no rows for it."""
    def run(q, page, size):
        docs, acc = engine.all_scores(q, "bm25")
        if not docs.size:
            return []
        top_docs = docs[np.lexsort((docs, -acc))[:k]]
        rows = []
        for t in sorted(set(engine.tokenizer.tokenize(q))):
            pl = engine.reader.postings(t)
            if pl is None:
                continue
            idx_c = np.minimum(np.searchsorted(pl.docs, top_docs),
                               pl.docs.size - 1)
            hit = pl.docs[idx_c] == top_docs
            for rank in np.flatnonzero(hit):
                d = f"{int(top_docs[rank]):015x}"
                for field, poss in sorted(
                    pl.positions_for(int(idx_c[rank])).items()
                ):
                    rows += [(int(rank), d, t, int(field), int(p_))
                             for p_ in poss.tolist()]
        return rows
    return [_RANK, _DOC, ("term", pa.string()), ("field", pa.int32()),
            ("pos", pa.int64())], run


def _min_should_match(engine, index_dir, ratio=0.5, k=10):
    """Minimum-should-match retrieval (the Lucene/ES ``minimum_should_
    match`` parameter): a candidate must match at least ``ceil(ratio ×
    n_distinct_query_terms)`` DISTINCT query terms to be scored; the
    survivors get the full BM25 score over all their matched terms, top-k
    by (score DESC, doc_int ASC).  Kills the low-precision single-term
    tail of OR semantics without AND's recall cliff.

    Per query the distinct-match count is one searchsorted membership
    accumulation over the candidate array (no re-decode: the per-term
    posting arrays are already in hand from scoring)."""
    def run(q, page, size):
        distinct = sorted(set(engine.tokenizer.tokenize(q)))
        if not distinct:
            return []
        required = max(1, math.ceil(ratio * len(distinct)))
        docs, acc = engine.all_scores(q, "bm25")
        if not docs.size:
            return []
        nmatch = np.zeros(docs.size, dtype=np.int64)
        for t in distinct:
            pl = engine.reader.postings(t)
            if pl is None:
                continue
            idx_c = np.minimum(np.searchsorted(docs, pl.docs), docs.size - 1)
            hit = docs[idx_c] == pl.docs
            nmatch[idx_c[hit]] += 1
        keep = nmatch >= required
        return _top(docs[keep], acc[keep], k, nmatch[keep])
    return _RANKED + [("n_matched", pa.int64())], run


# mode -> set-up ``(engine, index_dir, **params) -> (fields, run)``.
# Every scorer mode evaluates with TAAT: block-max WAND skips no decode
# here and is slower, so no mode uses it (it stays in SearchEngine only
# while perfbench/workloads.py times it).  bm25f scores the stored
# accumulated field weight through the same saturation.
MODES = {
    "reference": _reference,
    "bm25": _taat("bm25"),
    "bm25f": _taat("bm25f"),
    "bm25plus": _taat("bm25plus"),
    "additive": _taat("additive"),
    "search_after": _search_after,
    "collapse": _collapse,
    "rocchio": _rocchio,
    "synonym": _synonym,
    "field": _field,
    "explain": _explain,
    "champion": _champion,
    "tiered": _tiered,
    "highlight": _highlight,
    "min_should_match": _min_should_match,
}


class QueryEvalActor:
    """Batch actor: one ``SearchEngine`` per actor, one retriever ``mode``
    (see :data:`MODES`) with its ``params``.  Each output batch is
    ``query`` followed by the mode's fields, typed even when empty; the
    optional ``page``/``page_size`` input columns default to 0/10."""

    def __init__(self, index_dir: str, mode: str = "reference", **params):
        if mode not in MODES:
            raise ValueError(
                f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
        self.engine = SearchEngine(index_dir)
        fields, self._run = MODES[mode](self.engine, index_dir, **params)
        self.schema = pa.schema([("query", pa.string()), *fields])

    def __call__(self, batch: pa.Table) -> pa.Table:
        queries = batch["query"].to_pylist()
        n, names = len(queries), batch.column_names
        pages = batch["page"].to_pylist() if "page" in names else [0] * n
        sizes = batch["page_size"].to_pylist() if "page_size" in names else [10] * n
        rows = [(q, *r) for q, p, s in zip(queries, pages, sizes)
                for r in self._run(q, int(p), int(s))]
        cols = list(zip(*rows)) or [()] * len(self.schema)
        return pa.table([pa.array(list(c), f.type)
                         for c, f in zip(cols, self.schema)],
                        schema=self.schema)


def batch_search(queries_ds: "ray.data.Dataset", index_dir: str,
                 mode: str = "reference", concurrency: int = 2,
                 batch_size: int = 16, **params) -> "ray.data.Dataset":
    """Evaluate a Dataset of queries against the index with an actor pool
    of ``QueryEvalActor(index_dir, mode, **params)``."""
    return queries_ds.map_batches(
        QueryEvalActor,
        fn_constructor_args=(index_dir, mode),
        fn_constructor_kwargs=params,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def _make_shard_actor():
    import ray

    @ray.remote
    class ShardSegmentActor:
        """Owns ONE shard's page-lazy SegmentReader; serves decoded posting
        arrays for term batches (the per-shard posting service of the
        scatter/gather design)."""

        def __init__(self, index_dir: str, shard: int):
            from ..state.segments import SegmentReader

            self.reader = SegmentReader(index_dir, shards=[shard])

        def fetch(self, terms: list[str]) -> list[PostingList | None]:
            # whole PostingLists, so df_total (stale-df scoring under
            # tombstone deletes, state/deletes.py) survives the hop
            return [self.reader.postings(t) for t in terms]

    return ShardSegmentActor


# cache value of a term the index lacks, since the LRU stores no None
_ABSENT = ()


class _ShardScatterReader:
    """The gather side of the per-shard actors: fetches terms from their
    ``term_shard`` owners and keeps the gathered lists, and the terms no
    shard holds, in a bounded LRU (``POSTING_CACHE_ENTRIES``, like
    ``SegmentReader``'s own cache)."""

    def __init__(self, actors: dict):
        self.actors = actors
        self._pl_cache = LRU(POSTING_CACHE_ENTRIES)

    def prefetch(self, terms) -> dict[str, PostingList | None]:
        """Every distinct term of ``terms`` -> its posting list (None when
        absent), in first-seen order.  The uncached terms go out as one
        ``fetch`` per owning shard, all shards in parallel; the result
        holds them, so no read depends on the cache keeping them."""
        import ray

        out = {t: self._pl_cache.get(t) for t in dict.fromkeys(terms)}
        by_shard: dict[int, list[str]] = {}
        for t, pl in out.items():
            if pl is None:
                by_shard.setdefault(term_shard(t, len(self.actors)), []).append(t)
        futures = [self.actors[s].fetch.remote(ts) for s, ts in by_shard.items()]
        for ts, pls in zip(by_shard.values(), ray.get(futures)):
            for t, pl in zip(ts, pls):
                out[t] = pl
                self._pl_cache.put(t, _ABSENT if pl is None else pl)
        return {t: None if pl is _ABSENT else pl for t, pl in out.items()}

    def postings(self, term: str) -> PostingList | None:
        return self.prefetch([term])[term]


class ShardedSearchEngine(SearchEngine):
    """SearchEngine whose posting reads scatter/gather across per-shard
    actors — the multi-node serving topology, runnable single-node.  Only
    the query's posting fetch (``_postings``) differs; all scoring
    arithmetic is inherited, so results match the single-process engine
    exactly."""

    def __init__(self, index_dir: str):
        super().__init__(index_dir, shards=[])   # no local segment state
        Actor = _make_shard_actor()
        self.reader = _ShardScatterReader({
            s: Actor.remote(index_dir, s)
            for s in range(int(self.stats["num_shards"]))})

    def _postings(self, terms) -> dict[str, PostingList]:
        return {t: pl for t, pl in self.reader.prefetch(terms).items()
                if pl is not None}
