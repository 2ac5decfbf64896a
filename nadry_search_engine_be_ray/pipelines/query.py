"""Query engine: top-k search over the built segments.

Implements the reference's three query paths (SURVEY.md §3.3):

* ``search``        — term search with the EXACT reference scorer
                      (SearchWrapper.searchWithMetadata → Ranker.Rank;
                      candidate-set-relative two-pass scoring via the shared
                      functions/scoring.py)
* ``phrase_search`` — field-local positional adjacency chain
                      (SearchWrapper.java:266-397, J2)
* ``additive_search`` / ``bm25_search`` — additive Σweight scorer
                      (SearchEngine.java:37-67, A9) and BM25, evaluated by
                      the vectorized TAAT accumulator.  The block-max WAND
                      DAAT evaluator (``use_wand=True``, same top-k, verified
                      in tests) skips no decode and is slower; it stays only
                      while perfbench/workloads.py still times it.

The BM25 arithmetic (``bm25_idf``, ``bm25_tf``) lives here once; the serve
modes and the HTTP explain route score through it.

State layout (T5 analog): a ``SearchEngine`` owns SegmentReader(s) plus
doc-stat arrays loaded once.  ``serve.QueryEvalActor``/``batch_search``
wrap it in a Ray actor pool for distributed batch query evaluation; the
per-query math stays identical because both call this class.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..functions.scoring import paginate, rank_fast
from ..functions.tokenizer import Tokenizer
from ..stages.tokenize import POSTING_SCHEMA, SENTINEL_FIELD, TokenizeBatch
from ..state.segments import LRU, PostingList, SegmentReader, segment_root

# SearchController.java:129 — first quoted phrase switches to phrase search
QUOTED = re.compile(r'"([^"]*)"')
# T4 analog: entries in SearchEngine's query/page cache
QUERY_CACHE_ENTRIES = 1024


_DETAIL_COLS = ["doc_int", "repo", "path", "commit", "title", "description"]
_EMPTY = np.zeros(0, dtype=np.int64)

# BM25 (Robertson/Zaragoza) saturation constants, Lucene's defaults
K1, B = 1.2, 0.75


def bm25_idf(n: int, df: int) -> float:
    """BM25 idf (Lucene's +1 variant, never negative)."""
    return math.log((n - df + 0.5) / (df + 0.5) + 1.0)


def bm25_tf(tf, dl, avgdl):
    """BM25's saturated tf part, elementwise over arrays."""
    return (tf * (K1 + 1)) / (tf + K1 * (1 - B + B * dl / avgdl))


def _empty_page(page: int) -> dict:
    return {"results": [], "total_results": 0, "total_pages": 0, "page": page}


@dataclass(frozen=True)
class _DocMaps:
    """DocStore's lazy state, built in one pass over ``prepped/`` and
    published as one object: the doc-details map plus a sorted
    ``doc_int -> (file, row group, row)`` locator over memory-mapped
    prepped files."""

    details: dict[int, dict]
    doc_ints: np.ndarray     # sorted, unique
    file_idx: np.ndarray     # prepped file of each doc_ints entry
    row_group: np.ndarray    # row group within that file
    rg_row: np.ndarray       # row within that row group
    files: list[pq.ParquetFile]

    @classmethod
    def load(cls, prepped_dir: str) -> "_DocMaps":
        from ..stages.prep import derive_urls, doc_id_of

        details: dict[int, dict] = {}
        files: list[pq.ParquetFile] = []
        ints, file_idx, row_group, rg_row = [_EMPTY], [_EMPTY], [_EMPTY], [_EMPTY]
        for frag in pads.dataset(prepped_dir, format="parquet").get_fragments():
            pf = pq.ParquetFile(frag.path, memory_map=True)
            md = pf.metadata
            if md.num_rows == 0:
                continue
            t = pf.read(columns=_DETAIL_COLS)
            urls = derive_urls(t)  # url/doc_id derived, not stored (prep.py)
            di = t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
            for d, u, ti, de in zip(
                di.tolist(), urls,
                t["title"].to_pylist(), t["description"].to_pylist(),
            ):
                details[d] = {
                    "doc_int": d, "doc_id": doc_id_of(u), "url": u,
                    "title": ti, "description": de,
                }
            sizes = [md.row_group(g).num_rows for g in range(md.num_row_groups)]
            ints.append(di)
            file_idx.append(np.full(di.size, len(files), dtype=np.int64))
            row_group.append(np.repeat(np.arange(len(sizes)), sizes))
            rg_row.append(np.concatenate([np.arange(n) for n in sizes]))
            files.append(pf)
        di = np.concatenate(ints)
        order = np.argsort(di, kind="stable")
        # a doc_int seen twice keeps its last row, as the details map does
        last = np.ones(di.size, dtype=bool)
        last[:-1] = di[order[1:]] != di[order[:-1]]
        order = order[last]
        return cls(details, di[order], np.concatenate(file_idx)[order],
                   np.concatenate(row_group)[order],
                   np.concatenate(rg_row)[order], files)


@dataclass
class DocStore:
    """doc_int-indexed arrays (sorted by doc_int) loaded eagerly, plus the
    lazy ``_DocMaps``: per-doc details and a locator that reads a page's
    content, or the text ``term_rows`` re-analyzes, straight from its
    prepped row groups.

    The prepped files stay memory-mapped once loaded, so a store keeps
    serving the snapshot it opened even after ``purge_deletes`` replaces
    ``prepped/`` on disk (the same as ``SegmentReader``)."""

    doc_ints: np.ndarray
    total_words: np.ndarray
    popularity: np.ndarray
    index_dir: str
    _maps: _DocMaps | None = field(default=None, init=False, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    _tokenize: TokenizeBatch = field(
        default_factory=TokenizeBatch, init=False, repr=False
    )

    @classmethod
    def load(cls, index_dir: str) -> "DocStore":
        t = pads.dataset(
            os.path.join(index_dir, "doc_stats"), format="parquet"
        ).to_table()
        di = t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        tw = t["total_words"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(di)
        di, tw = di[order], tw[order]
        pop = np.zeros(di.size, dtype=np.float64)
        pop_path = os.path.join(index_dir, "popularity")
        if os.path.isdir(pop_path):
            p = pads.dataset(pop_path, format="parquet").to_table()
            pdi = p["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
            ps = p["popularity"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(di, pdi)
            ok = (idx < di.size) & (di[np.minimum(idx, di.size - 1)] == pdi)
            pop[idx[ok]] = ps[ok]
        return cls(di, tw, pop, index_dir)

    def lookup(self, doc_ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """total_words + popularity for the given doc_ints (0 when missing,
        matching MongoDBIndexStore.populateScoresAndTotalword defaults,
        MongoDBIndexStore.java:131-178)."""
        idx = np.searchsorted(self.doc_ints, doc_ints)
        idx_c = np.minimum(idx, self.doc_ints.size - 1)
        ok = self.doc_ints[idx_c] == doc_ints
        tw = np.where(ok, self.total_words[idx_c], 0)
        pop = np.where(ok, self.popularity[idx_c], 0.0)
        return tw, pop

    def _detail_maps(self) -> _DocMaps:
        """The lazy state, loaded exactly once even when many HTTP threads
        share this store: one pass over the prepped files reads everything
        but content (~100 B/doc of details; the production design shards
        this across doc-store actors by doc_int range — S11/S12 analog) and
        records where each doc_int's row lives.  Content stays on disk."""
        maps = self._maps
        if maps is None:
            with self._lock:
                if self._maps is None:
                    self._maps = _DocMaps.load(
                        os.path.join(self.index_dir, "prepped")
                    )
                maps = self._maps
        return maps

    def details(self, doc_ints: list[int]) -> dict[int, dict]:
        """J4/S11: enrich only the visible page."""
        m = self._detail_maps().details
        return {d: m[d] for d in doc_ints if d in m}

    def _read_located(self, doc_ints, columns: list[str]) -> list[pa.Table]:
        """The prepped rows of the known ``doc_ints`` (unknown ones
        omitted), ``columns`` only, one table per touched row group.

        Each doc_int is located through the sorted locator, and each
        touched row group is read once and ``take``n at its rows.  The row
        group is the read unit, so its size (``build_index`` writes
        prepped with 64K-row groups) bounds the bytes one lookup reads."""
        m = self._detail_maps()
        want = np.unique(np.asarray(doc_ints, dtype=np.int64))
        idx = np.searchsorted(m.doc_ints, want)
        known = idx < m.doc_ints.size
        known[known] = m.doc_ints[idx[known]] == want[known]
        idx = idx[known]
        by_group: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for d, f, g, r in zip(want[known].tolist(), m.file_idx[idx].tolist(),
                              m.row_group[idx].tolist(), m.rg_row[idx].tolist()):
            ids, rows = by_group.setdefault((f, g), ([], []))
            ids.append(d)
            rows.append(r)
        out = []
        for (f, g), (ids, rows) in by_group.items():
            t = m.files[f].read_row_group(
                g, columns=columns, use_threads=False
            ).take(rows)
            got = t["doc_int"].to_pylist()
            if got != ids:
                raise RuntimeError(
                    f"prepped file {f} row group {g}: located {ids}, read {got}"
                )
            out.append(t)
        return out

    def content_for(self, doc_ints: list[int]) -> dict[int, str]:
        """Content of the visible page for snippet generation (M11)."""
        out: dict[int, str] = {}
        for t in self._read_located(doc_ints, ["doc_int", "content"]):
            out.update(zip(t["doc_int"].to_pylist(), t["content"].to_pylist()))
        return out

    def term_rows(self, doc_ints) -> pa.Table:
        """Term vectors of the indexed ``doc_ints``: one (term, doc_int,
        field, tf, pos) row per term x doc x field, exactly the rows the
        build's tokenize stage fed the segment encoder.  The index stores
        no term vectors; like Lucene's ``MoreLikeThis`` without them, this
        re-analyzes the stored text with the build's own ``TokenizeBatch``.
        Doc_ints not in ``doc_stats`` (dup losers, unknown ids) give no
        rows."""
        want = np.asarray(doc_ints, dtype=np.int64)
        parts = [self._tokenize(t) for t in self._read_located(
            want[np.isin(want, self.doc_ints)],
            ["doc_int", "title", "description", "content"])]
        t = pa.concat_tables([POSTING_SCHEMA.empty_table(), *parts])
        return t.filter(pc.field("field") != SENTINEL_FIELD).drop_columns(
            ["part"])


class SearchEngine:
    def __init__(self, index_dir: str, shards: list[int] | None = None):
        self.index_dir = index_dir
        self.reader = SegmentReader(index_dir, shards)
        self.docs = DocStore.load(index_dir)
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"] or 1.0
        self.tokenizer = Tokenizer()
        # T4 analog: ranked pages ("t"/"p" keys) and SearchAPI's enriched
        # pages ("api" keys); values are shared with callers, read-only
        self._cache = LRU(QUERY_CACHE_ENTRIES)

    def metrics(self) -> dict:
        """Hit/miss/eviction counts, size and cap of each cache.  A sharded
        engine's row-group caches live in its shard actors, so it reports
        the query cache and its gathered-posting cache only."""
        out = {"query_cache": self._cache.metrics(),
               "posting_cache": self.reader._pl_cache.metrics()}
        if isinstance(self.reader, SegmentReader):
            out["rowgroup_cache"] = self.reader._rg_cache.metrics()
        return out

    def _postings(self, terms) -> dict[str, PostingList]:
        """The posting lists of ``terms`` the index holds, by term, in
        first-seen order: the one fetch of a query's terms, which the
        sharded engine overrides with its scatter/gather."""
        return {t: pl for t in dict.fromkeys(terms)
                if (pl := self.reader.postings(t)) is not None}

    @staticmethod
    def _accumulate(parts) -> tuple[np.ndarray, np.ndarray]:
        """TAAT accumulator over per-term ``(docs, scores)`` parts:
        ``(docs, acc)`` with the sorted union of the docs, each doc's
        scores added in the order of ``parts``."""
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        docs = np.unique(np.concatenate([d for d, _ in parts]))
        acc = np.zeros(docs.size, dtype=np.float64)
        for d, s in parts:
            np.add.at(acc, np.searchsorted(docs, d), s)
        return docs, acc

    def _saturate(self, docs: np.ndarray, tf: np.ndarray) -> np.ndarray:
        """``bm25_tf`` of each posting at ``docs``, against its doc length."""
        tw, _ = self.docs.lookup(docs)
        return bm25_tf(tf, tw.astype(np.float64), self.avgdl)

    # ------------------------------------------------------------------
    # reference scorer path
    # ------------------------------------------------------------------

    def search(self, query: str, page: int = 0, page_size: int = 10) -> dict:
        key = ("t", query, page, page_size)
        res = self._cache.get(key)
        if res is None:
            res = self._term_page(query, page, page_size)
            self._cache.put(key, res)
        return res

    def _term_page(self, query: str, page: int, page_size: int) -> dict:
        query_bag = Counter(self.tokenizer.tokenize(query))
        # candidate union with per-doc tf merge (J1, SearchWrapper.java:169-185)
        term_pls = self._postings(query_bag)
        if not term_pls:
            return _empty_page(page)
        all_docs = np.unique(np.concatenate([pl.docs for pl in term_pls.values()]))
        term_postings = {
            t: (np.searchsorted(all_docs, pl.docs), pl.tfs)
            for t, pl in term_pls.items()
        }
        return self._rank_and_page(query_bag, all_docs, term_postings, page, page_size)

    @staticmethod
    def _sorted_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Intersection of two SORTED UNIQUE int arrays without the
        sort/unique overhead of np.intersect1d (posting doc lists and
        per-field position lists are strictly increasing by construction)."""
        if a.size == 0 or b.size == 0:
            return a[:0]
        idx = np.searchsorted(b, a)
        idx[idx == b.size] = 0  # out-of-range -> compare against b[0],
        return a[b[idx] == a]   # which can never equal those values

    def phrase_search(self, phrase: str, page: int = 0, page_size: int = 10) -> dict:
        if page < 0:
            page = 0
        if page_size <= 0:
            page_size = 10
        key = ("p", phrase, page, page_size)
        res = self._cache.get(key)
        if res is None:
            res = self._phrase_page(phrase, page, page_size)
            self._cache.put(key, res)
        return res

    def _phrase_page(self, phrase: str, page: int, page_size: int) -> dict:
        tokens = self.tokenizer.tokenize(phrase)
        if len(tokens) == 1:
            return self._term_page(tokens[0], page, page_size)
        all_docs = self._phrase_docs(tokens, 1)
        if not all_docs.size:
            return _empty_page(page)
        # phrase path: tf=1 per phrase token (SearchWrapper.java:357-366)
        idx = np.arange(all_docs.size)
        ones = np.ones(all_docs.size, dtype=np.int64)
        query_bag = Counter(tokens)
        term_postings = {t: (idx, ones) for t in query_bag}
        return self._rank_and_page(query_bag, all_docs, term_postings, page, page_size)

    def _phrase_docs(self, tokens: list[str], slop: int) -> np.ndarray:
        """Sorted doc_ints where ``tokens`` appear IN ORDER in one field,
        each consecutive pair at a positional gap in [1, ``slop``] (slop=1
        is the exact adjacency chain, SearchWrapper.java:266-397; the chain
        never crosses fields).  Doc sets are intersected FIRST (a doc
        missing any term can never match, SearchWrapper.java:313-316),
        then positions decoded for the intersection only, one vectorized
        ``positions_for_many`` per term, and each chain step is one
        searchsorted window probe per field."""
        got = self._postings(tokens)
        if not got or len(got) < len(set(tokens)):
            return _EMPTY
        pls = [got[t] for t in tokens]
        common = pls[0].docs
        for pl in pls[1:]:
            common = self._sorted_intersect(common, pl.docs)
            if common.size == 0:
                return _EMPTY
        fields_per_term = [
            pl.positions_for_many(np.searchsorted(pl.docs, common)) for pl in pls
        ]
        matched = np.zeros(common.size, dtype=bool)
        for k in range(common.size):
            prev = fields_per_term[0][k]
            for fields in fields_per_term[1:]:
                cur = fields[k]
                surv: dict[int, np.ndarray] = {}
                for f, pp in prev.items():
                    cp = cur.get(f)
                    if cp is None:
                        continue
                    # q survives iff some prev position in [q-slop, q-1]
                    lo = np.searchsorted(pp, cp - slop, side="left")
                    hi = np.searchsorted(pp, cp - 1, side="right")
                    hit = cp[hi > lo]
                    if hit.size:
                        surv[f] = hit
                prev = surv
                if not prev:
                    break
            matched[k] = bool(prev)
        return common[matched]

    def search_auto(self, raw_query: str, page: int = 0, page_size: int = 10) -> dict:
        """SearchController.search: quoted phrase -> phraseSearch, else
        term search (SearchController.java:127-140)."""
        m = QUOTED.search(raw_query or "")
        if m:
            return self.phrase_search(m.group(1), page, page_size)
        return self.search(raw_query, page, page_size)

    def _auto_page(self, raw_query: str, page: int, page_size: int) -> dict:
        """``search_auto`` without the ranked-page cache, for callers that
        cache the finished page themselves (``api.SearchAPI``); a phrase's
        paging is normalised as ``phrase_search`` does."""
        m = QUOTED.search(raw_query or "")
        if m:
            return self._phrase_page(m.group(1), max(page, 0),
                                     page_size if page_size > 0 else 10)
        return self._term_page(raw_query, page, page_size)

    def _rank_and_page(self, query_bag, doc_ints, term_postings, page, page_size) -> dict:
        """Vectorized reference ranking (rank_fast: bit-identical FP order to
        the scalar rank()/oracle — candidates sorted by doc_int, whose order
        equals the doc_id-hex tiebreak; no prefix collisions, asserted at
        build test time)."""
        tws, pops = self.docs.lookup(doc_ints)
        order, score, rel, pop_norm = rank_fast(
            query_bag, doc_ints, tws, pops, term_postings
        )
        total = int(doc_ints.size)
        pages = math.ceil(total / page_size)
        page_idx = paginate(order.tolist(), page, page_size)
        details = self.docs.details([int(doc_ints[i]) for i in page_idx])
        rows = []
        for i in page_idx:
            di = int(doc_ints[i])
            det = details.get(di, {})
            rows.append(
                {
                    "doc_id": det.get("doc_id", f"{di:015x}"),
                    "url": det.get("url", ""),
                    "title": det.get("title", ""),
                    "score": float(score[i]),
                    "relevance": float(rel[i]),
                    "popularity": float(pop_norm[i]),
                }
            )
        return {
            "results": rows,
            "total_results": total,
            "total_pages": pages,
            "page": page,
        }

    # ------------------------------------------------------------------
    # additive (A9) + BM25 scorers: the TAAT accumulator (and block-max
    # WAND, kept while perfbench/workloads.py times it)
    # ------------------------------------------------------------------

    def _term_arrays(self, terms: list[str], scorer: str):
        """``(term, posting list, idf)`` per entry of ``terms`` the index
        holds, duplicates kept (duplicate contribution, A9 loop).  The
        additive scorer weighs every term 1.0; bm25 weighs postings by idf
        at query time over df_stale = docFreq INCLUDING tombstoned docs
        (Lucene's documented semantics — stats stay stale until purge,
        state/deletes.py), which equals df when no deletes exist."""
        got = self._postings(terms)
        return [(t, got[t], 1.0 if scorer == "additive"
                 else bm25_idf(self.n_docs, got[t].df_stale))
                for t in terms if t in got]

    def _scores_for(self, pl: PostingList, idf: float, scorer: str) -> np.ndarray:
        if scorer == "additive":
            return pl.weights
        if scorer == "bm25f":
            # simple BM25F (Robertson/Zaragoza §3.3): the per-field
            # boosted tf sum feeds ONE saturation — and that weighted tf
            # is exactly the accumulated field weight the build already
            # stores per posting (stages/tokenize.py), so field-aware
            # ranking costs no extra decode
            tf = pl.weights
        else:
            tf = pl.tfs.astype(np.float64)
        sat = self._saturate(pl.docs, tf)
        if scorer == "bm25plus":
            # BM25+ (Lv & Zhai CIKM'11): a lower-bound delta per matched
            # term fixes BM25's long-document tf underflow
            return idf * (sat + 1.0)
        return idf * sat

    def explain(self, query: str, doc_ints) -> list[tuple]:
        """Lucene's explain over plain BM25: one ``(term, doc_int, tf,
        df_stale, idf, contribution)`` row per (distinct query term, doc
        of the SORTED UNIQUE ``doc_ints`` holding it), terms sorted, docs
        ascending.  A doc's contributions (multiplicity x idf x saturated
        tf) sum to its ``bm25`` score up to addition order."""
        docs = np.asarray(doc_ints, dtype=np.int64)
        mult = Counter(self.tokenizer.tokenize(query))
        rows = []
        for t, pl, idf in self._term_arrays(sorted(mult), "bm25"):
            hit = self._sorted_intersect(docs, pl.docs)
            tf = pl.tfs[np.searchsorted(pl.docs, hit)].astype(np.float64)
            contrib = mult[t] * idf * self._saturate(hit, tf)
            rows += [(t, d, int(f), int(pl.df_stale), idf, float(c))
                     for d, f, c in zip(hit.tolist(), tf, contrib)]
        return rows

    def representative_terms(self, doc_ints, n: int,
                             exclude=frozenset()) -> list[str]:
        """The ``n`` top terms of ``doc_ints``' summed term vector, outside
        ``exclude``: INTEGER-ONLY (tf DESC, df ASC, term ASC), so SQL
        oracles reproduce the choice without float-log hazards.  The
        more_like_this and rocchio term selection."""
        tv = self.docs.term_rows(doc_ints).group_by("term").aggregate(
            [("tf", "sum")])
        return [t for _, _, t in sorted(
            (-tf, self.reader.df(t), t)
            for t, tf in zip(tv["term"].to_pylist(), tv["tf_sum"].to_pylist())
            if t not in exclude)[:n]]

    def all_scores(self, query: str, scorer: str = "additive"):
        """Exact score of EVERY candidate doc: ``(docs, scores)`` sorted by
        doc_int — the TAAT accumulator before any top-k cut; shared by
        topk_taat, keyset pagination and result collapsing."""
        return self._accumulate([
            (pl.docs, self._scores_for(pl, idf, scorer))
            for _, pl, idf in self._term_arrays(
                self.tokenizer.tokenize(query), scorer)])

    def all_scores_weighted(self, weights: dict[str, float],
                            scorer: str = "bm25"):
        """Exact candidate scores for an explicit WEIGHTED term multiset
        (Rocchio-expanded queries): contribution of term t = weights[t] *
        idf(t) * bm25-tf-part — the plain query is the special case
        weights = token multiplicities.  Returns ``(docs, scores)`` sorted
        by doc_int."""
        return self._accumulate([
            (pl.docs, float(weights[t]) * self._scores_for(pl, idf, scorer))
            for t, pl, idf in self._term_arrays(sorted(weights), scorer)])

    def topk_taat(self, query: str, k: int = 10, scorer: str = "additive") -> list[tuple[int, float]]:
        """Vectorized term-at-a-time exact evaluation."""
        all_docs, acc = self.all_scores(query, scorer)
        if not all_docs.size:
            return []
        order = np.lexsort((all_docs, -acc))[:k]
        return [(int(all_docs[i]), float(acc[i])) for i in order]

    def sloppy_phrase_search(self, phrase: str, slop: int = 1,
                             k: int = 10) -> list[tuple[int, float]]:
        """Sloppy phrase ("a b"~slop, Lucene slop analog): the docs of the
        phrase walk ``_phrase_docs(tokens, slop)`` — slop=1 is exactly
        phrase_search's adjacency chain — ranked by plain BM25 over the
        phrase tokens (full tf; the reference's tf=1 phrase quirk stays
        exclusive to the reference-parity phrase path)."""
        tokens = self.tokenizer.tokenize(phrase)
        if len(tokens) == 1:
            return self.topk_taat(tokens[0], k, "bm25")
        m = self._phrase_docs(tokens, slop)
        if not m.size:
            return []
        weights = {t: float(c) for t, c in Counter(tokens).items()}
        docs, acc = self.all_scores_weighted(weights, "bm25")
        acc_m = acc[np.searchsorted(docs, m)]
        order = np.lexsort((m, -acc_m))[:k]
        return [(int(m[i]), float(acc_m[i])) for i in order]

    def search_after(self, query: str, after: tuple[float, int] | None,
                     k: int = 10, scorer: str = "bm25") -> list[tuple[int, float]]:
        """Keyset ("search_after") pagination: the next ``k`` hits STRICTLY
        after the ``(score, doc_int)`` cursor under the total order
        (score DESC, doc_int ASC) — Elasticsearch's deep-pagination
        mechanism: no offset-sized sort, page-N cost equals page-1 cost,
        and a stable cursor survives concurrent index growth (new docs
        sort after the cursor or are skipped consistently).  The cursor
        score must come from this engine's own prior page (bit-identical
        float); rank-offset paging is then reproducible (the SQL oracle
        uses the rank window)."""
        docs, acc = self.all_scores(query, scorer)
        if not docs.size:
            return []
        if after is not None:
            s_a, d_a = float(after[0]), int(after[1])
            keep = (acc < s_a) | ((acc == s_a) & (docs > d_a))
            docs, acc = docs[keep], acc[keep]
        order = np.lexsort((docs, -acc))[:k]
        return [(int(docs[i]), float(acc[i])) for i in order]

    def topk_wand(self, query: str, k: int = 10, scorer: str = "additive") -> list[tuple[int, float]]:
        """Block-max WAND document-at-a-time evaluation (A9).

        Upper bounds come from the decoded per-doc scores: each term's
        posting list is scored in full, then split into 128-doc blocks whose
        suffix maxima bound everything from a block onward.  The segments
        store no block metadata, so the bounds skip no decode.  Exact top-k:
        a candidate doc is fully scored before entering the heap.
        """
        arrays = self._term_arrays(self.tokenizer.tokenize(query), scorer)
        if not arrays:
            return []
        pls = [pl for _, pl, _ in arrays]
        per_doc_scores: list[np.ndarray] = [
            self._scores_for(pl, idf, scorer) for _, pl, idf in arrays
        ]
        # per-block upper bounds on the per-doc score arrays
        bs = 128
        ubs = []
        for s in per_doc_scores:
            nb = (s.size + bs - 1) // bs
            pad = np.full(nb * bs, -np.inf)
            pad[: s.size] = s
            bm = pad.reshape(nb, bs).max(axis=1)
            # suffix max: ub of everything from block i onward, O(1) lookups
            ubs.append(np.maximum.accumulate(bm[::-1])[::-1])

        cursors = [0] * len(pls)
        sizes = [pl.docs.size for pl in pls]
        heap: list[tuple[float, int]] = []  # (score, doc) min-heap of top-k

        def term_ub(t: int) -> float:
            c = cursors[t]
            if c >= sizes[t]:
                return 0.0
            return float(ubs[t][c // bs])

        while True:
            live = [t for t in range(len(pls)) if cursors[t] < sizes[t]]
            if not live:
                break
            # sort live terms by current doc id
            live.sort(key=lambda t: pls[t].docs[cursors[t]])
            threshold = heap[0][0] if len(heap) >= k else -math.inf
            # find pivot: smallest prefix whose UB sum exceeds threshold
            ub_sum = 0.0
            pivot = None
            for t in live:
                ub_sum += term_ub(t)
                if ub_sum > threshold:
                    pivot = t
                    break
            if pivot is None:
                break  # no doc can beat the threshold
            pivot_doc = int(pls[pivot].docs[cursors[pivot]])
            first_doc = int(pls[live[0]].docs[cursors[live[0]]])
            if first_doc == pivot_doc:
                # fully score pivot_doc
                score = 0.0
                for t in live:
                    d = pls[t].docs
                    c = cursors[t]
                    if c < sizes[t] and int(d[c]) == pivot_doc:
                        score += float(per_doc_scores[t][c])
                        cursors[t] = c + 1
                    elif c < sizes[t] and int(d[c]) < pivot_doc:
                        cursors[t] = int(np.searchsorted(d, pivot_doc))
                        if cursors[t] < sizes[t] and int(d[cursors[t]]) == pivot_doc:
                            score += float(per_doc_scores[t][cursors[t]])
                            cursors[t] += 1
                if len(heap) < k:
                    heapq.heappush(heap, (score, -pivot_doc))
                elif score > heap[0][0]:
                    heapq.heapreplace(heap, (score, -pivot_doc))
            else:
                # advance all pre-pivot terms to pivot_doc
                for t in live:
                    if t == pivot:
                        break
                    d = pls[t].docs
                    cursors[t] = int(np.searchsorted(d, pivot_doc))

        out = sorted(((-d, s) for s, d in heap), key=lambda x: (-x[1], x[0]))
        return [(int(d), float(s)) for d, s in out]

    # Default evaluator choice is MEASURED, not assumed: at bench scale the
    # fully vectorized TAAT (1.9 ms/q) beats the per-doc Python WAND loop
    # (24 ms/q).  Both are exact and conformance-tested identical.
    def additive_search(self, query: str, k: int = 10, use_wand: bool = False):
        return (self.topk_wand if use_wand else self.topk_taat)(
            query, k, "additive")

    def bm25_search(self, query: str, k: int = 10, use_wand: bool = False):
        return (self.topk_wand if use_wand else self.topk_taat)(
            query, k, "bm25")


def proximity_pairs(index_dir: str, terms: list[str], window: int,
                    *, ordered: bool = False, concurrency: int = 2,
                    out_path: str | None = None):
    """Proximity search over term PAIRS (Lucene sloppy-phrase analog the
    reference lacks): for every pair (a < b) of ``terms``, the docs where
    a and b co-occur within ``window`` positions in the SAME field, with
    the number of qualifying (pos_a, pos_b) combinations.  ``ordered``
    restricts to a BEFORE b: pos_b - pos_a in [1, window] (directional
    slop); unordered counts |pos_a - pos_b| <= window.

    Distributed shape: the pair list (|terms| choose 2, small) seeds a
    Dataset; a stateful actor pool holds one SegmentReader per worker and,
    per pair, intersects the two posting lists' doc sets FIRST (the
    phrase_search pruning above), flat-decodes positions for the
    intersection only (codec.decode_doc_positions_flat — vectorized over
    the whole candidate set, no per-doc Python), and counts window hits
    with ONE composite-key searchsorted pass per side: key = (doc_rank <<
    33) | pos keeps (doc, field, pos) order total, so even a head-term
    pair with a huge intersection is two sorted-array probes + a bincount.

    Returns an Arrow table (term_a, term_b, doc_int, n_pairs) sorted by
    (term_a, term_b, doc_int).
    """
    import pyarrow as pa
    import ray
    import ray.data

    from ..state.segments import SegmentReader

    ts = sorted(set(terms))
    pairs = [(a, b) for i, a in enumerate(ts) for b in ts[i + 1:]]
    out_schema = pa.schema(
        [("term_a", pa.string()), ("term_b", pa.string()),
         ("doc_int", pa.int64()), ("n_pairs", pa.int64())]
    )
    if not pairs:
        return out_schema.empty_table()
    seed = ray.data.from_arrow(
        pa.table({"term_a": pa.array([a for a, _ in pairs], pa.string()),
                  "term_b": pa.array([b for _, b in pairs], pa.string())})
    ).repartition(max(1, min(len(pairs), concurrency * 4)))

    class _Proximity:
        def __init__(self):
            self.reader = SegmentReader(index_dir)

        @staticmethod
        def _flat_keys(pl, common):
            """(doc_rank << 33 | pos) composite keys per (field, doc, pos),
            plus the doc_rank per position.  Positions < 2^32 and window
            offsets stay within one doc_rank block, so range counting over
            the SORTED composite array is field/doc-safe."""
            from ..functions.codec import decode_doc_positions_flat

            d, f, p = decode_doc_positions_flat(
                pl.positions_buf, pl.pos_offsets,
                np.searchsorted(pl.docs, common),
            )
            # flat output is grouped by field, (doc, pos)-sorted inside —
            # make (field, doc) the key prefix so blocks need no re-sort
            key = ((f * common.size + d) << np.int64(33)) | p
            return key, d

        def __call__(self, batch: pa.Table) -> pa.Table:
            rows_a, rows_b, rows_d, rows_n = [], [], [], []
            for a, b in zip(batch["term_a"].to_pylist(),
                            batch["term_b"].to_pylist()):
                pla = self.reader.postings(a)
                plb = self.reader.postings(b)
                if pla is None or plb is None:
                    continue
                common_all = np.intersect1d(pla.docs, plb.docs)
                # chunk the intersection: keeps 3*chunk < 2^30 so the
                # composite key fits int64, and bounds decoded positions
                # held at once for head-term pairs
                for c0 in range(0, common_all.size, 16_000_000):
                    common = common_all[c0 : c0 + 16_000_000]
                    ka, da = self._flat_keys(pla, common)
                    kb, _ = self._flat_keys(plb, common)
                    if ka.size == 0 or kb.size == 0:
                        continue
                    lo = ka + 1 if ordered else ka - window
                    counts = (np.searchsorted(kb, ka + window, side="right")
                              - np.searchsorted(kb, lo, side="left"))
                    n_doc = np.bincount(da, weights=counts,
                                        minlength=common.size).astype(np.int64)
                    hit = np.flatnonzero(n_doc)
                    rows_a.extend([a] * hit.size)
                    rows_b.extend([b] * hit.size)
                    rows_d.extend(common[hit].tolist())
                    rows_n.extend(n_doc[hit].tolist())
            return pa.table(
                {"term_a": pa.array(rows_a, pa.string()),
                 "term_b": pa.array(rows_b, pa.string()),
                 "doc_int": pa.array(rows_d, pa.int64()),
                 "n_pairs": pa.array(rows_n, pa.int64())},
                schema=out_schema,
            )

    mapped = seed.map_batches(
        _Proximity, batch_format="pyarrow", batch_size=16,
        concurrency=concurrency,
    )
    if out_path is not None:
        # hit count can approach |common docs| x |pairs| at corpus scale —
        # stream to parquet instead of a driver table in that regime
        mapped.write_parquet(out_path)
        return None
    out = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(mapped.to_arrow_refs()))
    )
    return out.sort_by([("term_a", "ascending"), ("term_b", "ascending"),
                        ("doc_int", "ascending")])


def facet_counts(index_dir: str, terms: list[str],
                 facets: tuple[str, ...] = ("lang", "repo"),
                 *, mode: str = "any", concurrency: int = 2,
                 max_broadcast_docs: int = 5_000_000):
    """Faceted search (the Lucene/Solr facet-count feature the reference
    lacks): per facet column, the number of docs MATCHING the query that
    carry each value.  ``mode="any"`` matches docs containing any query
    term (the engine's OR ranking semantics); ``mode="all"`` is the
    conjunctive filter.

    Distributed shape: the matched doc set is the union/intersection of
    the query terms' posting doc arrays (sorted-array set ops, bounded by
    the terms' summed df) and is BROADCAST once via ray.put; the facet
    scan streams the prepped side table reading ONLY (doc_int, *facets),
    filters each batch with one searchsorted membership probe, partially
    counts values per batch (pyarrow value_counts), and the driver
    combines partials bounded by distinct-facet-value cardinality — never
    by corpus size.  Above ``max_broadcast_docs`` matched ids the
    broadcast stops being the right exchange: log and fall through (the
    100 TB path would swap in the m-bit bloom prefilter + exact verify of
    stages/bloom.py, same contract as bloom_semi_join).

    Returns an Arrow table (facet, value, n_docs) sorted by (facet,
    value).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    out_schema = pa.schema(
        [("facet", pa.string()), ("value", pa.string()),
         ("n_docs", pa.int64())]
    )
    reader = SegmentReader(index_dir)
    doc_sets = []
    for t in sorted(set(terms)):
        pl = reader.postings(t)
        doc_sets.append(pl.docs if pl is not None
                        else np.empty(0, dtype=np.int64))
    if not doc_sets:
        return out_schema.empty_table()
    matched = doc_sets[0]
    for d in doc_sets[1:]:
        matched = (np.intersect1d(matched, d) if mode == "all"
                   else np.union1d(matched, d))
    if matched.size == 0:
        return out_schema.empty_table()
    if matched.size > max_broadcast_docs:  # pragma: no cover - scale knob
        print(f"facet_counts: matched set {matched.size} exceeds broadcast "
              f"bound {max_broadcast_docs}; switch to the bloom-prefilter "
              "exchange (stages/bloom.py) at this scale")
    matched_ref = ray.put(np.ascontiguousarray(matched, dtype=np.int64))

    prepped = os.path.join(index_dir, "prepped")
    fac_list = list(facets)

    def _partial(batch: pa.Table) -> pa.Table:
        ids = ray.get(matched_ref)
        di = batch["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ids, di)
        idx[idx == ids.size] = 0
        keep = ids[idx] == di if ids.size else np.zeros(di.size, bool)
        sel = batch.filter(pa.array(keep))
        fs, vs, ns = [], [], []
        for fac in fac_list:
            vc = pc.value_counts(sel[fac])
            vals = vc.field("values").to_pylist()
            cnts = vc.field("counts").to_pylist()
            fs.extend([fac] * len(vals))
            vs.extend(vals)
            ns.extend(cnts)
        return pa.table(
            {"facet": pa.array(fs, pa.string()),
             "value": pa.array(vs, pa.string()),
             "n_docs": pa.array(ns, pa.int64())},
            schema=out_schema,
        )

    partials = (
        ray.data.read_parquet(prepped, columns=["doc_int"] + fac_list)
        .map_batches(_partial, batch_format="pyarrow",
                     concurrency=concurrency)
    )
    combined = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(partials.to_arrow_refs()))
    )
    out = combined.group_by(["facet", "value"]).aggregate([("n_docs", "sum")])
    out = out.rename_columns(
        ["n_docs" if c == "n_docs_sum" else c for c in out.column_names]
    )
    return out.sort_by([("facet", "ascending"), ("value", "ascending")])


def facet_stats(index_dir: str, terms: list[str], facet: str = "lang",
                *, mode: str = "any", concurrency: int = 2):
    """Faceted NUMERIC aggregations over matched docs (the ES stats-
    aggregation analog of facet_counts): per facet value, n_docs and
    sum/avg/min/max of the doc length (doc_stats.total_words).

    Distributed shape (same broadcast contract as facet_counts): the
    matched doc set is sorted-array set ops over posting doc arrays,
    broadcast once; one streaming pass over prepped collects the matched
    docs' facet values (bounded by matched size — the same bound the
    broadcast already pays); one streaming pass over doc_stats emits
    per-batch INTEGER partials (int sums keep the final avg division
    bit-equal to the SQL oracle's sum/count) combined per facet value.

    Returns an Arrow table (value, n_docs, sum_words, avg_words,
    min_words, max_words) sorted by value.
    """
    import pyarrow as pa
    import ray
    import ray.data

    out_schema = pa.schema(
        [("value", pa.string()), ("n_docs", pa.int64()),
         ("sum_words", pa.int64()), ("avg_words", pa.float64()),
         ("min_words", pa.int64()), ("max_words", pa.int64())]
    )
    reader = SegmentReader(index_dir)
    doc_sets = []
    for t in sorted(set(terms)):
        pl = reader.postings(t)
        doc_sets.append(pl.docs if pl is not None
                        else np.empty(0, dtype=np.int64))
    if not doc_sets:
        return out_schema.empty_table()
    matched = doc_sets[0]
    for d in doc_sets[1:]:
        matched = (np.intersect1d(matched, d) if mode == "all"
                   else np.union1d(matched, d))
    if matched.size == 0:
        return out_schema.empty_table()
    matched_ref = ray.put(np.ascontiguousarray(matched, dtype=np.int64))

    def _sel(batch: pa.Table, cols: list[str]) -> pa.Table:
        ids = ray.get(matched_ref)
        di = batch["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ids, di)
        idx[idx == ids.size] = 0
        keep = ids[idx] == di
        return batch.filter(pa.array(keep)).select(cols)

    fac_tbl = pa.concat_tables(list(ray.get(
        ray.data.read_parquet(
            os.path.join(index_dir, "prepped"),
            columns=["doc_int", facet], file_extensions=["parquet"],
        )
        .map_batches(lambda b: _sel(b, ["doc_int", facet]),
                     batch_format="pyarrow", concurrency=concurrency)
        .to_arrow_refs()
    )))
    fd = fac_tbl["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(fd, kind="stable")
    fmap_ref = ray.put(
        (fd[order],
         np.asarray(fac_tbl[facet].to_pylist(), dtype=object)[order])
    )

    def _partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        keys, vals = ray.get(fmap_ref)
        t = _sel(batch, ["doc_int", "total_words"])
        if t.num_rows == 0:
            return pa.table(
                {"value": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64()),
                 "s": pa.array([], pa.int64()),
                 "mn": pa.array([], pa.int64()),
                 "mx": pa.array([], pa.int64())}
            )
        di = t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        tw = t["total_words"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = vals[np.searchsorted(keys, di)]
        df = pd.DataFrame({"value": v, "w": tw})
        g = df.groupby("value")["w"].agg(["count", "sum", "min", "max"])
        return pa.table(
            {"value": pa.array(g.index.astype(str), pa.string()),
             "n": pa.array(g["count"].to_numpy(np.int64), pa.int64()),
             "s": pa.array(g["sum"].to_numpy(np.int64), pa.int64()),
             "mn": pa.array(g["min"].to_numpy(np.int64), pa.int64()),
             "mx": pa.array(g["max"].to_numpy(np.int64), pa.int64())}
        )

    parts = pa.concat_tables(list(ray.get(
        ray.data.read_parquet(
            os.path.join(index_dir, "doc_stats"),
            file_extensions=["parquet"],
        )
        .map_batches(_partial, batch_format="pyarrow",
                     concurrency=concurrency)
        .to_arrow_refs()
    )))
    if parts.num_rows == 0:
        return out_schema.empty_table()
    import pandas as pd

    df = parts.to_pandas().groupby("value").agg(
        n_docs=("n", "sum"), sum_words=("s", "sum"),
        min_words=("mn", "min"), max_words=("mx", "max"),
    ).reset_index().sort_values("value")
    df["avg_words"] = np.round(
        df["sum_words"].to_numpy(np.float64)
        / df["n_docs"].to_numpy(np.float64), 6
    )
    return pa.table(
        {"value": pa.array(df["value"].astype(str), pa.string()),
         "n_docs": pa.array(df["n_docs"].to_numpy(np.int64), pa.int64()),
         "sum_words": pa.array(df["sum_words"].to_numpy(np.int64),
                               pa.int64()),
         "avg_words": pa.array(df["avg_words"].to_numpy(np.float64),
                               pa.float64()),
         "min_words": pa.array(df["min_words"].to_numpy(np.int64),
                               pa.int64()),
         "max_words": pa.array(df["max_words"].to_numpy(np.int64),
                               pa.int64())},
        schema=out_schema,
    )


def significant_terms(index_dir: str, terms: list[str], k: int = 20,
                      *, mode: str = "any", min_match: int = 3,
                      concurrency: int = 2):
    """Significant-terms aggregation (the ES feature): the terms most
    OVERREPRESENTED in the matched doc set vs the whole corpus, scored by
    lift = (n_match / |matched|) / (df / n_docs), ties broken by
    (n_match DESC, term ASC); ``min_match`` suppresses the 1-doc noise
    tail.

    Distributed shape — index analytics as a Dataset scan: the matched
    doc set broadcasts once, as ordinals in the tier's doc-int map; the
    SEGMENT term rows stream through ``map_batches`` (pruned to
    term/df/docs columns), each batch's docs column decodes in one pass
    and its stored ordinals are probed against the matched ones with one
    searchsorted membership pass, and each batch emits only its partial
    top-k by lift — the driver merges k-sized partials, never the
    dictionary.
    """
    import pyarrow as pa
    import ray
    import ray.data

    from ..stages.encode import decode_docs_column, doc_ordinals, row_bounds

    out_schema = pa.schema(
        [("term", pa.string()), ("n_match", pa.int64()),
         ("df", pa.int64()), ("lift", pa.float64())]
    )
    reader = SegmentReader(index_dir)
    doc_sets = []
    for t in sorted(set(terms)):
        pl = reader.postings(t)
        doc_sets.append(pl.docs if pl is not None
                        else np.empty(0, dtype=np.int64))
    if not doc_sets:
        return out_schema.empty_table()
    matched = doc_sets[0]
    for d in doc_sets[1:]:
        matched = (np.intersect1d(matched, d) if mode == "all"
                   else np.union1d(matched, d))
    if matched.size == 0:
        return out_schema.empty_table()
    n_docs = int(reader.stats["n_docs"])
    n_matched = int(matched.size)
    docs_codec = reader.stats.get("docs_codec", "varint")
    matched_ref = ray.put(doc_ordinals(reader.doc_ints, matched))

    def partial(batch: pa.Table) -> pa.Table:
        ids = ray.get(matched_ref)
        dfs = batch["df"].to_numpy()
        ords, bounds = decode_docs_column(batch["docs"], dfs, docs_codec)
        idx = np.searchsorted(ids, ords)
        idx[idx == ids.size] = 0
        n_match = np.diff(row_bounds(ids[idx] == ords)[bounds])
        terms_b = batch["term"].to_pylist()
        rows = []
        for i in np.flatnonzero(n_match >= min_match).tolist():
            nm, df = int(n_match[i]), int(dfs[i])
            lift = (nm / n_matched) / (df / n_docs)
            rows.append((terms_b[i], nm, df, round(lift, 9)))
        rows.sort(key=lambda r: (-r[3], -r[1], r[0]))
        rows = rows[:k]
        return pa.table(
            {"term": pa.array([r[0] for r in rows], pa.string()),
             "n_match": pa.array([r[1] for r in rows], pa.int64()),
             "df": pa.array([r[2] for r in rows], pa.int64()),
             "lift": pa.array([r[3] for r in rows], pa.float64())},
            schema=out_schema,
        )

    parts = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(
            ray.data.read_parquet(segment_root(index_dir),
                                  columns=["term", "df", "docs"])
            .map_batches(partial, batch_format="pyarrow",
                         concurrency=concurrency)
            .to_arrow_refs()
        ))
    )
    if parts.num_rows == 0:
        return out_schema.empty_table()
    import pandas as pd

    df = parts.to_pandas().sort_values(
        ["lift", "n_match", "term"], ascending=[False, False, True]
    ).head(k).reset_index(drop=True)
    return pa.Table.from_pandas(df, schema=out_schema,
                                preserve_index=False)


# nDCG discount table: 1/log2(rank+1) for ranks 1..10, precomputed ONCE
# and shared as float literals with the SQL oracle (libm log is not
# guaranteed correctly rounded, so both sides consume the same doubles
# instead of both calling log)
NDCG_DISCOUNTS = tuple(float(1.0 / np.log2(i + 1)) for i in range(1, 11))
NDCG_IDCG = tuple(float(s) for s in np.cumsum(NDCG_DISCOUNTS))


def evaluate_bm25(index_dir: str, queries: list[str], k: int = 10):
    """Built-in retrieval evaluation (the trec_eval triad): for each
    query, MRR@k, binary nDCG@k and recall@k of the BM25 top-k against
    DERIVED qrels — a doc is relevant iff it contains ALL the query's
    tokens (conjunctive containment, computable by both the engine and
    the SQL oracle with no human labels).  Discounts come from the shared
    NDCG_DISCOUNTS literals.

    Returns an Arrow table (query, n_rel, mrr, ndcg, recall), metrics
    rounded to 9 dp; queries with zero relevant docs score 0 across the
    board (and recall 0 by convention).
    """
    import pyarrow as pa

    eng = SearchEngine(index_dir)
    out = {c: [] for c in ("query", "n_rel", "mrr", "ndcg", "recall")}
    for q in queries:
        tokens = sorted(set(eng.tokenizer.tokenize(q)))
        if not tokens:
            continue
        rel = None
        for t in tokens:
            pl = eng.reader.postings(t)
            docs = pl.docs if pl is not None else np.empty(0, np.int64)
            rel = docs if rel is None else np.intersect1d(rel, docs)
            if rel.size == 0:
                break
        n_rel = int(rel.size) if rel is not None else 0
        top = eng.topk_taat(q, k=k, scorer="bm25")
        rel_flags = [
            n_rel > 0 and bool(
                rel[np.searchsorted(rel, d) % max(rel.size, 1)] == d
            )
            for d, _ in top
        ]
        mrr = 0.0
        for i, f in enumerate(rel_flags):
            if f:
                mrr = 1.0 / (i + 1)
                break
        dcg = sum(NDCG_DISCOUNTS[i] for i, f in enumerate(rel_flags) if f)
        idcg = NDCG_IDCG[min(n_rel, k) - 1] if n_rel > 0 else 0.0
        ndcg = (dcg / idcg) if idcg > 0 else 0.0
        hits = sum(rel_flags)
        recall = (hits / n_rel) if n_rel else 0.0
        out["query"].append(q)
        out["n_rel"].append(n_rel)
        out["mrr"].append(round(mrr, 9))
        out["ndcg"].append(round(ndcg, 9))
        out["recall"].append(round(recall, 9))
    return pa.table(
        {"query": pa.array(out["query"], pa.string()),
         "n_rel": pa.array(out["n_rel"], pa.int64()),
         "mrr": pa.array(out["mrr"], pa.float64()),
         "ndcg": pa.array(out["ndcg"], pa.float64()),
         "recall": pa.array(out["recall"], pa.float64())}
    )


def _levenshtein_vec(word: bytes, cand_mat: np.ndarray,
                     cand_lens: np.ndarray) -> np.ndarray:
    """Edit distance from ``word`` to each padded-byte row of ``cand_mat``
    (m x L uint8, padded with 0), vectorized across the candidate axis:
    the Wagner-Fischer DP runs its short loops over len(word) x L (both
    bounded by the tokenizer's term-length cap) with every cell update an
    m-wide numpy op.  Operates on UTF-8 BYTES (insert/delete/substitute
    = 1, no transposition) — exactly DuckDB's ``levenshtein()``, which is
    byte-based (levenshtein('café','cafe') = 2 there), so the SQL oracle
    reproduces the operator bit-for-bit on non-ASCII terms too."""
    m, L = cand_mat.shape
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (m, 1))
    for i, ch in enumerate(word, start=1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = prev[:, :-1] + (cand_mat != np.uint8(ch))
        for j in range(1, L + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), sub[:, j - 1]
            )
        prev = cur
    return prev[np.arange(m), cand_lens]


# ---- term-dictionary family: spell / prefix / wildcard lookups ----------

_SPELL_SCHEMA = pa.schema(
    [("query", pa.string()), ("suggestion", pa.string()),
     ("distance", pa.int64()), ("df", pa.int64())]
)
_PREFIX_SCHEMA = pa.schema(
    [("prefix", pa.string()), ("term", pa.string()),
     ("df", pa.int64()), ("rank", pa.int64())]
)
_WILDCARD_SCHEMA = pa.schema(
    [("pattern", pa.string()), ("term", pa.string()), ("df", pa.int64())]
)


def _rows(schema: pa.Schema, rows) -> pa.Table:
    """A typed table from row tuples given in schema order."""
    cols = list(zip(*rows)) or [()] * len(schema)
    return pa.table([pa.array(c, f.type) for c, f in zip(cols, schema)],
                    schema=schema)


def _scan_dictionary(index_dir: str, kernel, schema: pa.Schema,
                     concurrency: int) -> pa.Table:
    """Stream the segment tier's (term, df) dictionary columns — never the
    posting payloads — through ``kernel(batch)``, whose rows follow
    ``schema``, and concatenate the partials.  The dictionary holds one
    row per term, so a term's df is whole in the one batch that sees it;
    callers order the result themselves."""
    import ray
    import ray.data

    parts = (
        ray.data.read_parquet(segment_root(index_dir), columns=["term", "df"])
        .map_batches(kernel, batch_format="pyarrow", concurrency=concurrency)
    )
    return pa.concat_tables(
        [schema.empty_table()] + ray.get(parts.to_arrow_refs())
    )


def _edit_matches(word: str, tbytes: list[bytes], max_distance: int):
    """(indices, distances) of the UTF-8 terms ``tbytes`` within
    ``max_distance`` byte edits of ``word``; the length gap bounds the
    distance from below, so only in-range lengths reach the DP."""
    wb = word.encode("utf-8")
    lens = np.fromiter(map(len, tbytes), dtype=np.int64, count=len(tbytes))
    sel = np.flatnonzero(np.abs(lens - len(wb)) <= max_distance)
    if sel.size == 0:
        return sel, sel
    mat = np.zeros((sel.size, int(lens[sel].max())), dtype=np.uint8)
    for r, i in enumerate(sel.tolist()):
        mat[r, : lens[i]] = np.frombuffer(tbytes[i], dtype=np.uint8)
    dist = _levenshtein_vec(wb, mat, lens[sel])
    ok = dist <= max_distance
    return sel[ok], dist[ok]


def _best_suggestion(cands: pa.Table) -> pa.Table:
    """Per query, the (distance asc, df desc, suggestion asc) best row of
    a spell-candidate table, sorted by query."""
    cands = cands.sort_by([("query", "ascending"), ("distance", "ascending"),
                           ("df", "descending"), ("suggestion", "ascending")])
    qs = cands["query"].to_pylist()
    return cands.take([i for i, q in enumerate(qs) if i == 0 or q != qs[i - 1]])


def _prefix_topk(prefixes, terms, dfs, k: int) -> pa.Table:
    """Per prefix, the top-``k`` terms by (df desc, term asc) with their
    1-based rank, sorted by (prefix, rank)."""
    by_prefix: dict[str, list] = {}
    for p, t, d in zip(prefixes, terms, dfs):
        by_prefix.setdefault(p, []).append((-int(d), t))
    return _rows(_PREFIX_SCHEMA, [
        (p, t, -nd, rank) for p in sorted(by_prefix)
        for rank, (nd, t) in enumerate(sorted(by_prefix[p])[:k], start=1)
    ])


def _gram_candidates(index_dir: str, grams: dict[str, set],
                     need: dict[str, int], k: int) -> dict[str, list[str]]:
    """The one k-gram candidate filter: per word ``w``, the sorted terms
    sharing at least ``need[w]`` of its distinct grams ``grams[w]``.  The
    gram-sorted k-gram index is read once, at the union of all grams
    (row-group predicate pushdown), and its (gram, term) rows are
    deduplicated first — the index repeats them per repeated gram
    occurrence — so a count is of DISTINCT matched grams."""
    from .build import build_kgram_index

    wanted = _rows(pa.schema([("word", pa.string()), ("gram", pa.string())]),
                   [(w, g) for w, gs in grams.items() for g in sorted(gs)])
    idx = pads.dataset(build_kgram_index(index_dir, k),
                       format="parquet").to_table(
        columns=["gram", "term"],
        filter=pc.field("gram").isin(pc.unique(wanted["gram"])),
    )
    hits = (wanted.join(idx.group_by(["gram", "term"]).aggregate([]),
                        "gram", join_type="inner")
            .group_by(["word", "term"]).aggregate([("gram", "count")]))
    out: dict[str, list[str]] = {w: [] for w in grams}
    for w, t, c in zip(hits["word"].to_pylist(), hits["term"].to_pylist(),
                       hits["gram_count"].to_pylist()):
        if c >= need[w]:
            out[w].append(t)
    return {w: sorted(ts) for w, ts in out.items()}


def spell_correct(index_dir: str, words: list[str], *,
                  max_distance: int = 2, concurrency: int = 2):
    """Query spell correction ("did you mean"): for each normalized query
    word, the dictionary term within ``max_distance`` edits that has the
    highest document frequency (ties: smaller distance first, then
    lexicographic term) — the classic df-weighted edit-distance suggester
    (Manning/Raghavan/Schütze IR ch.3); the reference's suggestion store
    (SearchController.java:142-170) only replays past queries, it cannot
    propose corrections.

    Distributed shape: the term DICTIONARY is the big side — streamed
    straight from the segment parquet reading ONLY (term, df) columns
    (never the posting payloads); the query words (small) ride the closure.
    Each batch length-filters candidates per word (|len(t) - len(w)| <=
    max_distance bounds the distance from below), runs the m-wide
    vectorized DP, and emits at most one best candidate per (word,
    batch) — a term's df is whole in its one dictionary row — so the
    final combine is bounded by batches x words.

    Returns an Arrow table (query, suggestion, distance, df) sorted by
    query — one row per word that has a candidate.
    """
    qs = sorted(set(words))
    if not qs:
        return _SPELL_SCHEMA.empty_table()

    def _candidates(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        tbytes = [t.encode("utf-8") for t in terms]
        dfs = batch["df"].to_pylist()
        rows = []
        for w in qs:
            idx, dist = _edit_matches(w, tbytes, max_distance)
            hits = sorted((d, -dfs[i], terms[i])
                          for i, d in zip(idx.tolist(), dist.tolist()))
            rows += [(w, t, d, -nf) for d, nf, t in hits[:1]]
        return _rows(_SPELL_SCHEMA, rows)

    return _best_suggestion(
        _scan_dictionary(index_dir, _candidates, _SPELL_SCHEMA, concurrency)
    )


def spell_correct_kgram(index_dir: str, words: list[str], *,
                        max_distance: int = 2, k: int = 3,
                        concurrency: int = 2):
    """Gram-pruned spell correction — the 100 TB-dictionary path
    :func:`spell_correct` needs (VERDICT r4 #7): instead of streaming the
    WHOLE term dictionary past every query word, candidates come from the
    k-gram index (built once, sorted by gram → parquet row-group
    predicate pushdown reads only the query words' grams).

    Pruning bound (sound, IR-textbook §3.3.4 / Gravano et al. q-gram
    filters, adapted to DISTINCT grams): one edit changes the content of
    at most ``k`` length-``k`` windows of the boundary-marked word, so a
    distinct gram of ``w`` is absent from ``t`` only if ALL its
    occurrences were destroyed — ``ed(w, t) <= d`` implies
    ``|set(G(w)) ∩ set(G(t))| >= |set(G(w))| - k*d``.  Words whose
    threshold is <= 0 (too short to prune) fall back to the stream-scan
    :func:`spell_correct` for exactly those words, so answers are DEFINED
    to be identical to the stream path — the driver oracle for this key
    is the same levenshtein recompute, so the pruning's soundness is
    hash-checked, not assumed.

    A candidate surviving the gram filter still gets the exact
    byte-level DP verify and the (distance asc, df desc, term asc)
    ranking of :func:`spell_correct`; df is the on-disk dictionary count
    (``SegmentReader.df``, the wildcard_terms_kgram contract).

    Returns an Arrow table (query, suggestion, distance, df) sorted by
    query — one row per word that has a candidate.
    """
    from .build import kgram_of

    qs = sorted(set(words))
    grams = {w: set(kgram_of(w, k)) for w in qs}
    need = {w: len(grams[w]) - k * max_distance for w in qs}
    pruned = [w for w in qs if need[w] > 0]
    fallback = [w for w in qs if need[w] <= 0]
    rows = []
    if pruned:
        reader = SegmentReader(index_dir)
        cands = _gram_candidates(index_dir, {w: grams[w] for w in pruned},
                                 need, k)
        for w, terms in cands.items():
            idx, dist = _edit_matches(
                w, [t.encode("utf-8") for t in terms], max_distance)
            rows += [(w, terms[i], d, reader.df(terms[i]))
                     for i, d in zip(idx.tolist(), dist.tolist())]
    pieces = [_rows(_SPELL_SCHEMA, rows)]
    if fallback:   # too short to gram-prune: the stream-scan path
        pieces.append(spell_correct(index_dir, fallback,
                                    max_distance=max_distance,
                                    concurrency=concurrency))
    return _best_suggestion(pa.concat_tables(pieces))


def prefix_suggest(index_dir: str, prefixes: list[str], *, k: int = 5,
                   concurrency: int = 2):
    """Autocomplete: per prefix, the top-k dictionary terms by document
    frequency (df desc, term asc tiebreak) — the query-box suggester the
    reference backs with a replayed-query store (SearchController.java:
    142-170); this one works from the index itself so it can complete
    anything the corpus contains.

    Same distributed shape as :func:`spell_correct`: the (term, df)
    dictionary columns stream from the segment parquet, each batch keeps
    its local top-k per prefix, and the caller merges bounded partials.

    Returns an Arrow table (prefix, term, df, rank) sorted by
    (prefix, rank).
    """
    ps = sorted(set(prefixes))
    if not ps or k <= 0:
        return _PREFIX_SCHEMA.empty_table()

    partial_schema = pa.schema(list(_PREFIX_SCHEMA)[:3])

    def _partial(batch: pa.Table) -> pa.Table:
        pairs = list(zip(batch["term"].to_pylist(), batch["df"].to_pylist()))
        rows = []
        for p in ps:
            hits = sorted((-d, t) for t, d in pairs if t.startswith(p))
            rows += [(p, t, -nd) for nd, t in hits[:k]]
        return _rows(partial_schema, rows)

    merged = _scan_dictionary(index_dir, _partial, partial_schema, concurrency)
    return _prefix_topk(merged["prefix"].to_pylist(),
                        merged["term"].to_pylist(),
                        merged["df"].to_pylist(), k)


def prefix_suggest_kgram(index_dir: str, prefixes: list[str], *, k: int = 5,
                         gram_k: int = 3, concurrency: int = 2):
    """Gram-pruned autocomplete — the 100 TB-dictionary path for
    :func:`prefix_suggest` (the spell_correct_kgram companion): a prefix
    query IS the wildcard ``prefix%``, so candidates come from the k-gram
    index through :func:`wildcard_terms_kgram` (boundary-marked grams of
    ``$prefix``, parquet row-group pushdown, exact ``match_like`` verify;
    prefixes shorter than ``gram_k - 1`` chars yield no anchored gram and
    take that function's declared dictionary-scan fallback).  Ranking is
    then the same (df desc, term asc) top-``k`` as the stream path, so
    answers are DEFINED identical — the driver oracle for this key is
    the same LIKE recompute as prefix_suggest.

    Returns an Arrow table (prefix, term, df, rank) sorted by
    (prefix, rank).
    """
    ps = sorted(set(prefixes))
    if not ps or k <= 0:
        return _PREFIX_SCHEMA.empty_table()
    # '%'/'_' in a prefix would be LIKE metacharacters; the stream path
    # treats them literally, so refuse rather than silently diverge
    for p in ps:
        if "%" in p or "_" in p:
            raise ValueError(f"prefix_suggest_kgram: literal %/_ in {p!r}")

    wc = wildcard_terms_kgram(index_dir, [p + "%" for p in ps], k=gram_k,
                              concurrency=concurrency)
    return _prefix_topk([pat[:-1] for pat in wc["pattern"].to_pylist()],
                        wc["term"].to_pylist(), wc["df"].to_pylist(), k)


def _bool_eval(node, reader: SegmentReader,
               universe: np.ndarray) -> np.ndarray:
    """Recursively evaluate a boolean expression tree to a sorted doc_int
    array.  Nodes: a term string, or ("and"|"or"|"not", child, ...) — NOT
    is unary and complements against the doc UNIVERSE (doc_stats keys),
    the standard safe-negation semantics."""
    if isinstance(node, str):
        pl = reader.postings(node)
        return (pl.docs if pl is not None
                else np.empty(0, dtype=np.int64))
    op, *kids = node
    if op == "not":
        if len(kids) != 1:
            raise ValueError("NOT takes exactly one operand")
        child = _bool_eval(kids[0], reader, universe)
        return np.setdiff1d(universe, child, assume_unique=True)
    parts = [_bool_eval(k, reader, universe) for k in kids]
    if not parts:
        raise ValueError(f"{op} needs at least one operand")
    acc = parts[0]
    for p in parts[1:]:
        acc = (np.intersect1d(acc, p, assume_unique=True) if op == "and"
               else np.union1d(acc, p))
    if op not in ("and", "or"):
        raise ValueError(f"unknown boolean op {op!r}")
    return acc


def boolean_search(index_dir: str, exprs: dict[str, object], *,
                   concurrency: int = 2):
    """Boolean retrieval (the unranked AND/OR/NOT query model, IR-textbook
    ch.1 — the reference only does ranked OR + phrase): evaluates each
    named expression tree to its matching doc set via sorted-array set
    ops over the posting lists; NOT complements against the doc universe.

    Distributed shape: the expression list (small) seeds a Dataset; a
    stateful actor pool holds one SegmentReader + the doc-universe key
    array per worker and evaluates each expression independently —
    posting decode and set ops all happen inside the pool, only matching
    ids leave.  A production NOT over 100 TB would fold the complement
    lazily into the parent AND (complement sets are huge); here the
    universe array is the same DocStore broadcast the scorers hold, and
    the eager setdiff keeps semantics obvious.

    Returns an Arrow table (name, doc_int) sorted by (name, doc_int).
    """
    import pyarrow as pa
    import ray
    import ray.data

    out_schema = pa.schema([("name", pa.string()), ("doc_int", pa.int64())])
    if not exprs:
        return out_schema.empty_table()
    names = sorted(exprs)
    seed = ray.data.from_arrow(
        pa.table({"name": pa.array(names, pa.string())})
    ).repartition(len(names))
    exprs_ref = ray.put(dict(exprs))

    class _BoolEval:
        def __init__(self):
            self.reader = SegmentReader(index_dir)
            t = pads.dataset(
                os.path.join(index_dir, "doc_stats"), format="parquet"
            ).to_table(columns=["doc_int"])
            self.universe = np.sort(
                t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            # NOT must not resurrect tombstoned docs: complement against
            # the LIVE universe (reader.deleted is the same set that masks
            # every posting list — state/deletes.py)
            if self.reader.deleted.size:
                from ..state.deletes import live_mask
                self.universe = self.universe[
                    live_mask(self.universe, self.reader.deleted)
                ]
            self.exprs = ray.get(exprs_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ns, ds = [], []
            for name in batch["name"].to_pylist():
                docs = _bool_eval(self.exprs[name], self.reader,
                                  self.universe)
                ns.extend([name] * docs.size)
                ds.extend(docs.tolist())
            return pa.table(
                {"name": pa.array(ns, pa.string()),
                 "doc_int": pa.array(ds, pa.int64())},
                schema=out_schema,
            )

    mapped = seed.map_batches(
        _BoolEval, batch_format="pyarrow", batch_size=1,
        concurrency=concurrency,
    )
    out = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(mapped.to_arrow_refs()))
    )
    return out.sort_by([("name", "ascending"), ("doc_int", "ascending")])


def _like_verify(reader: SegmentReader, candidates: dict) -> pa.Table:
    """Post-verify each pattern's candidate terms with Arrow's
    ``match_like`` (exactly DuckDB's LIKE) and attach the on-disk
    dictionary df — consistent with the parquet-column df of the stream
    path and Lucene's docFreq.  Rows (pattern, term, df) sorted by
    (pattern, term)."""
    rows = []
    for p in sorted(candidates):
        terms = sorted(candidates[p])
        keep = pc.match_like(pa.array(terms, pa.string()), p).to_pylist()
        rows += [(p, t, reader.df(t)) for t, ok in zip(terms, keep) if ok]
    return _rows(_WILDCARD_SCHEMA, rows)


def wildcard_terms(index_dir: str, patterns: list[str], *,
                   concurrency: int = 2):
    """Wildcard term matching (the ``te%m``-style dictionary lookup behind
    wildcard queries, IR-textbook ch.3): every dictionary term matching
    each SQL-LIKE pattern (% = any run, _ = any char), with its df.
    Arrow's ``match_like`` kernel implements exactly DuckDB's LIKE, so the
    oracle is a direct LIKE join.

    Same dictionary-stream shape as :func:`prefix_suggest` — (term, df)
    columns only, vectorized kernel per batch.
    :func:`wildcard_terms_kgram` and :func:`wildcard_terms_permuterm`
    front this with a term index and post-verify their candidates with
    this same kernel.

    Returns an Arrow table (pattern, term, df) sorted by (pattern, term).
    """
    ps = sorted(set(patterns))
    if not ps:
        return _WILDCARD_SCHEMA.empty_table()

    def _match(batch: pa.Table) -> pa.Table:
        rows = []
        for p in ps:
            sel = batch.filter(pc.match_like(batch["term"], p))
            rows += [(p, t, d) for t, d in zip(sel["term"].to_pylist(),
                                               sel["df"].to_pylist())]
        return _rows(_WILDCARD_SCHEMA, rows)

    return _scan_dictionary(
        index_dir, _match, _WILDCARD_SCHEMA, concurrency
    ).sort_by([("pattern", "ascending"), ("term", "ascending")])


def wildcard_terms_kgram(index_dir: str, patterns: list[str], *, k: int = 3,
                         concurrency: int = 2):
    """Wildcard term matching through the K-GRAM INDEX (the scale path
    :func:`wildcard_terms` documents): each pattern's literal segments
    yield boundary-marked k-grams; the gram->term index (built once,
    sorted by gram for row-group predicate pushdown) is read ONLY at
    those grams; candidates = terms containing ALL the pattern's grams
    (:func:`_gram_candidates` with ``need`` = every distinct gram);
    a final ``match_like`` verify removes gram-collision false positives.
    Answers are defined to be IDENTICAL to the stream-scan path — the
    driver oracle for this query is the same LIKE recompute, so the
    pruning's soundness is hash-checked, not assumed.

    Patterns whose literal segments yield no k-gram (e.g. ``%a%``) cannot
    be pruned and fall back to the dictionary for that pattern.

    Returns an Arrow table (pattern, term, df) sorted by (pattern, term).
    """
    def pattern_grams(p: str) -> set[str]:
        segs = re.split(r"[%_]", p)
        out: set[str] = set()
        for i, seg in enumerate(segs):
            aug = ("$" if i == 0 else "") + seg \
                + ("$" if i == len(segs) - 1 else "")
            out.update(aug[j : j + k] for j in range(len(aug) - k + 1))
        return out

    grams = {p: pattern_grams(p) for p in set(patterns)}
    prunable = {p: gs for p, gs in grams.items() if gs}
    cands = _gram_candidates(
        index_dir, prunable, {p: len(gs) for p, gs in prunable.items()}, k
    ) if prunable else {}
    reader = SegmentReader(index_dir)
    return _like_verify(reader, {   # unprunable pattern: whole dictionary
        p: cands[p] if p in cands else reader.terms() for p in grams
    })


def wildcard_terms_permuterm(index_dir: str, patterns: list[str]):
    """Wildcard term matching through the PERMUTERM INDEX (IR-textbook
    §3.2.1): a single-``%`` pattern ``a%b`` rotates to the prefix
    ``b$a`` over the rotation dictionary, answered by ONE sorted-range
    parquet scan ([prefix, prefix+1) pushdown on the rot column) —
    no gram intersection, at the cost of the ~|term|x dictionary
    blow-up :func:`build_permuterm_index` materializes.  Patterns the
    permuterm transform cannot express (``_`` single-char wildcards,
    more than one ``%``) fall back to the whole dictionary, like
    the k-gram path's unprunable-pattern fallback.  Answers are defined
    IDENTICAL to :func:`wildcard_terms`; the driver oracle is the same
    LIKE recompute, so the rotation lookup's soundness is hash-checked.

    Returns an Arrow table (pattern, term, df) sorted by (pattern, term).
    """
    from .build import build_permuterm_index

    ps = set(patterns)
    if not ps:
        return _WILDCARD_SCHEMA.empty_table()
    rot_ds = pads.dataset(build_permuterm_index(index_dir), format="parquet")
    reader = SegmentReader(index_dir)

    def candidates(p: str):
        if "_" in p or p.count("%") > 1:   # permuterm-inexpressible
            return reader.terms()
        a, _, b = p.partition("%")
        lo = (b + "$" + a) if "%" in p else (p + "$")
        hi = lo[:-1] + chr(ord(lo[-1]) + 1)
        rot = rot_ds.to_table(columns=["term"], filter=(pc.field("rot") >= lo)
                              & (pc.field("rot") < hi))
        return set(rot["term"].to_pylist())

    return _like_verify(reader, {p: candidates(p) for p in ps})


def numeric_range_search(index_dir: str, lo: int, hi: int, *,
                         concurrency: int = 2):
    """Numeric range retrieval over the tokenizer's ``num:<value>``
    special tokens (Tokenizer M5 emits one per numeric literal): the docs
    containing ANY indexed number in [lo, hi], with how many distinct
    in-range numeric terms each doc matched — the "price:[10 TO 99]"
    feature of a fulltext engine, answered purely from the dictionary +
    posting lists (no doc scan).

    Shape: the (term, df) dictionary columns stream once; ``num:`` terms
    parse vectorized and range-filter to the matching term list (small);
    their posting doc arrays union inside a SegmentReader actor pool with
    per-term partial tables, combined by a (doc_int)-bounded groupby.

    Returns an Arrow table (doc_int, n_terms) sorted by doc_int.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    out_schema = pa.schema([("doc_int", pa.int64()), ("n_terms", pa.int64())])

    def find_terms(batch: pa.Table) -> pa.Table:
        terms = batch["term"]
        is_num = pc.starts_with(terms, "num:")
        cand = terms.filter(is_num).to_pylist()
        keep = []
        for t in cand:
            try:
                v = int(t[4:])
            except ValueError:
                continue
            if lo <= v <= hi:
                keep.append(t)
        return pa.table({"term": pa.array(sorted(set(keep)), pa.string())})

    term_parts = pa.concat_tables(
        [pa.schema([("term", pa.string())]).empty_table()]
        + list(ray.get(
            ray.data.read_parquet(segment_root(index_dir),
                                  columns=["term", "df"])
            .map_batches(find_terms, batch_format="pyarrow",
                         concurrency=concurrency)
            .to_arrow_refs()
        ))
    )
    matched_terms = sorted(set(term_parts["term"].to_pylist()))
    if not matched_terms:
        return out_schema.empty_table()

    seed = ray.data.from_arrow(
        pa.table({"term": pa.array(matched_terms, pa.string())})
    ).repartition(max(1, min(len(matched_terms), concurrency * 4)))

    class _Docs:
        def __init__(self):
            from ..state.segments import SegmentReader

            self.reader = SegmentReader(index_dir)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ds_, ns = [], []
            for t in batch["term"].to_pylist():
                pl = self.reader.postings(t)
                if pl is None:
                    continue
                ds_.append(pl.docs)
            if not ds_:
                return out_schema.empty_table()
            docs = np.concatenate(ds_)
            uniq, cnt = np.unique(docs, return_counts=True)
            return pa.table(
                {"doc_int": pa.array(uniq, pa.int64()),
                 "n_terms": pa.array(cnt.astype(np.int64), pa.int64())},
                schema=out_schema,
            )

    parts = seed.map_batches(_Docs, batch_format="pyarrow", batch_size=64,
                             concurrency=concurrency)
    combined = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(parts.to_arrow_refs()))
    )
    out = combined.group_by("doc_int").aggregate([("n_terms", "sum")])
    out = out.rename_columns(
        ["n_terms" if c == "n_terms_sum" else c for c in out.column_names]
    )
    return out.sort_by("doc_int")


def more_like_this(index_dir: str, doc_int: int, *, n_terms: int = 5,
                   k: int = 10):
    """More-Like-This (Lucene's MLT): select the source doc's most
    representative terms and retrieve the docs scoring highest on them.
    Term selection is deliberately INTEGER-ONLY — (tf DESC, df ASC, term
    ASC) — rather than float tf-idf, so the SQL oracle reproduces the
    selection without last-ulp log() hazards; the retrieval score is the
    additive accumulated-field-weight sum (exact multiples of 0.5), and
    the source doc is excluded.

    The source doc's term vector is ``DocStore.term_rows``: its stored
    text re-analyzed by the build's tokenizer (the index keeps no term
    vectors; ``SearchEngine.representative_terms`` picks the terms);
    candidate scoring is the vectorized TAAT accumulation over the
    selected terms' posting lists — a point-query path (same latency
    class as search), not a corpus job.

    Returns an Arrow table (rank, doc_int, score) — top-k by
    (score DESC, doc_int ASC), score rounded to 9 decimals.
    """
    out_schema = pa.schema(
        [("rank", pa.int64()), ("doc_int", pa.int64()),
         ("score", pa.float64())]
    )
    engine = SearchEngine(index_dir)
    sel = engine.representative_terms([doc_int], n_terms)
    if not sel:
        return out_schema.empty_table()
    uniq, scores = engine._accumulate(
        [(pl.docs, pl.weights) for pl in engine._postings(sel).values()])
    keep = uniq != doc_int
    uniq, scores = uniq[keep], scores[keep]
    top = np.lexsort((uniq, -scores))[:k]
    return pa.table(
        {"rank": pa.array(np.arange(1, top.size + 1), pa.int64()),
         "doc_int": pa.array(uniq[top], pa.int64()),
         "score": pa.array(np.round(scores[top], 9), pa.float64())},
        schema=out_schema,
    )
