"""Query engine: top-k search over the built segments.

Implements the reference's three query paths (SURVEY.md §3.3):

* ``search``        — term search with the EXACT reference scorer
                      (SearchWrapper.searchWithMetadata → Ranker.Rank;
                      candidate-set-relative two-pass scoring via the shared
                      functions/scoring.py)
* ``phrase_search`` — field-local positional adjacency chain
                      (SearchWrapper.java:266-397, J2)
* ``additive_search`` / ``bm25_search`` — additive Σweight scorer
                      (SearchEngine.java:37-67, A9) and BM25, each with a
                      vectorized TAAT evaluator and a block-max WAND DAAT
                      evaluator (the fast path; exact same top-k, verified in
                      tests)

State layout (T5 analog): a ``SearchEngine`` owns SegmentReader(s) plus
doc-stat arrays loaded once.  ``ScorerActor``/``batch_search`` wrap it in a
Ray actor pool for distributed batch query evaluation; the per-query math
stays identical because both call this class.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re
import threading
from dataclasses import dataclass, field

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..functions.scoring import paginate, rank_fast
from ..functions.tokenizer import Tokenizer
from ..state.segments import PostingList, SegmentReader

# SearchController.java:129 — first quoted phrase switches to phrase search
QUOTED = re.compile(r'"([^"]*)"')


_DETAIL_COLS = ["doc_int", "repo", "path", "commit", "title", "description"]
_EMPTY = np.zeros(0, dtype=np.int64)


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
    content straight from its prepped row groups.

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

    def content_for(self, doc_ints: list[int]) -> dict[int, str]:
        """Content of the visible page for snippet generation (M11).

        Each known doc_int is located through the sorted locator, and each
        touched row group is read once (``doc_int`` + ``content`` only) and
        ``take``n at the page's rows; unknown doc_ints are omitted.  The
        row group is the read unit, so its size (``build_index`` writes
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
        out: dict[int, str] = {}
        for (f, g), (ids, rows) in by_group.items():
            t = m.files[f].read_row_group(
                g, columns=["doc_int", "content"], use_threads=False
            ).take(rows)
            got = t["doc_int"].to_pylist()
            if got != ids:
                raise RuntimeError(
                    f"prepped file {f} row group {g}: located {ids}, read {got}"
                )
            out.update(zip(got, t["content"].to_pylist()))
        return out


class SearchEngine:
    def __init__(self, index_dir: str, shards: list[int] | None = None):
        self.index_dir = index_dir
        self.reader = SegmentReader(index_dir, shards)
        self.docs = DocStore.load(index_dir)
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.tokenizer = Tokenizer()
        # T4 analog: query-result cache
        self._cache: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # reference scorer path
    # ------------------------------------------------------------------

    def search(self, query: str, page: int = 0, page_size: int = 10) -> dict:
        key = ("t", query, page, page_size)
        if key in self._cache:
            return self._cache[key]
        tokens = self.tokenizer.tokenize(query)
        if not tokens:
            res = {"results": [], "total_results": 0, "total_pages": 0, "page": page}
            self._cache[key] = res
            return res

        query_bag: dict[str, int] = {}
        for t in tokens:
            query_bag[t] = query_bag.get(t, 0) + 1

        # candidate union with per-doc tf merge (J1, SearchWrapper.java:169-185)
        term_pls = {
            t: pl for t in query_bag if (pl := self.reader.postings(t)) is not None
        }
        if not term_pls:
            res = {"results": [], "total_results": 0, "total_pages": 0, "page": page}
            self._cache[key] = res
            return res
        all_docs = np.unique(np.concatenate([pl.docs for pl in term_pls.values()]))
        term_postings = {
            t: (np.searchsorted(all_docs, pl.docs), pl.tfs)
            for t, pl in term_pls.items()
        }
        res = self._rank_and_page(query_bag, all_docs, term_postings, page, page_size)
        self._cache[key] = res
        return res

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
        if key not in self._cache:
            self._cache[key] = self._phrase_page(phrase, page, page_size)
        return self._cache[key]

    def _phrase_page(self, phrase: str, page: int, page_size: int) -> dict:
        tokens = self.tokenizer.tokenize(phrase)
        if not tokens:
            return {"results": [], "total_results": 0, "total_pages": 0, "page": page}
        if len(tokens) == 1:
            return self.search(tokens[0], page, page_size)

        # Intersect doc sets FIRST (a doc missing any phrase term can never
        # survive adjacency — SearchWrapper.java:313-316 empty-on-missing),
        # then batch-decode positions for the intersection only: one
        # vectorized varint pass per term instead of one per (doc, term).
        pls = []
        for term in tokens:
            pl = self.reader.postings(term)
            if pl is None:
                return {"results": [], "total_results": 0, "total_pages": 0,
                        "page": page}
            pls.append(pl)
        common = pls[0].docs
        for pl in pls[1:]:
            common = self._sorted_intersect(common, pl.docs)
            if common.size == 0:
                break
        if common.size == 0:
            return {"results": [], "total_results": 0, "total_pages": 0, "page": page}

        fields_per_term = [
            pl.positions_for_many(np.searchsorted(pl.docs, common)) for pl in pls
        ]

        # per-doc chained positional adjacency, per field, never crossing
        # fields (SearchWrapper.java:266-397)
        matches: dict[int, dict[int, np.ndarray]] = {}
        for k, di in enumerate(common.tolist()):
            prev = fields_per_term[0][k]
            for ti in range(1, len(pls)):
                cur = fields_per_term[ti][k]
                surv: dict[int, np.ndarray] = {}
                for f, prev_pos in prev.items():
                    cp = cur.get(f)
                    if cp is None:
                        continue
                    hit = self._sorted_intersect(prev_pos + 1, cp)
                    if hit.size:
                        surv[f] = hit
                prev = surv
                if not prev:
                    break
            if prev:
                matches[int(di)] = prev

        if not matches:
            return {"results": [], "total_results": 0, "total_pages": 0, "page": page}

        query_bag: dict[str, int] = {}
        for t in tokens:
            query_bag[t] = query_bag.get(t, 0) + 1
        # phrase path: tf=1 per phrase token (SearchWrapper.java:357-366)
        all_docs = np.array(sorted(matches), dtype=np.int64)
        idx = np.arange(all_docs.size)
        ones = np.ones(all_docs.size, dtype=np.int64)
        term_postings = {t: (idx, ones) for t in query_bag}
        return self._rank_and_page(query_bag, all_docs, term_postings, page, page_size)

    def search_auto(self, raw_query: str, page: int = 0, page_size: int = 10) -> dict:
        """SearchController.search: quoted phrase -> phraseSearch, else
        term search (SearchController.java:127-140)."""
        m = QUOTED.search(raw_query or "")
        if m:
            return self.phrase_search(m.group(1), page, page_size)
        return self.search(raw_query, page, page_size)

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
    # additive (A9) + BM25 scorers: TAAT exact and block-max WAND fast path
    # ------------------------------------------------------------------

    def _term_arrays(self, query: str, scorer: str):
        tokens = self.tokenizer.tokenize(query)
        pls: list[tuple[PostingList, float]] = []
        n = self.stats["n_docs"]
        avgdl = self.stats["avgdl"] or 1.0
        for t in tokens:  # duplicates keep duplicate contribution (A9 loop)
            pl = self.reader.postings(t)
            if pl is None:
                continue
            if scorer == "additive":
                pls.append((pl, 1.0))
            else:  # bm25: weight postings by idf at query time.
                # df_stale = docFreq INCLUDING tombstoned docs (Lucene's
                # documented semantics — stats stay stale until purge,
                # state/deletes.py); equals df when no deletes exist.
                idf = math.log(
                    (n - pl.df_stale + 0.5) / (pl.df_stale + 0.5) + 1.0
                )
                pls.append((pl, idf))
        return pls, avgdl

    def _scores_for(self, pl: PostingList, idf: float, scorer: str,
                    avgdl: float, k1: float = 1.2, b: float = 0.75) -> np.ndarray:
        if scorer == "additive":
            return pl.weights
        tw, _ = self.docs.lookup(pl.docs)
        dl = tw.astype(np.float64)
        if scorer == "bm25f":
            # simple BM25F (Robertson/Zaragoza §3.3): the per-field
            # boosted tf sum feeds ONE saturation — and that weighted tf
            # is exactly the accumulated field weight the build already
            # stores per posting (stages/tokenize.py), so field-aware
            # ranking costs no extra decode
            tf = pl.weights
        else:
            tf = pl.tfs.astype(np.float64)
        sat = (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl))
        if scorer == "bm25plus":
            # BM25+ (Lv & Zhai CIKM'11): a lower-bound delta per matched
            # term fixes BM25's long-document tf underflow
            return idf * (sat + 1.0)
        return idf * sat

    def all_scores(self, query: str, scorer: str = "additive"):
        """Exact score of EVERY candidate doc: ``(docs, scores)`` sorted by
        doc_int — the TAAT accumulator before any top-k cut; shared by
        topk_taat, keyset pagination and result collapsing."""
        pls, avgdl = self._term_arrays(query, scorer)
        if not pls:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        all_docs = np.unique(np.concatenate([pl.docs for pl, _ in pls]))
        acc = np.zeros(all_docs.size, dtype=np.float64)
        for pl, idf in pls:
            idx = np.searchsorted(all_docs, pl.docs)
            np.add.at(acc, idx, self._scores_for(pl, idf, scorer, avgdl))
        return all_docs, acc

    def all_scores_weighted(self, weights: dict[str, float],
                            scorer: str = "bm25"):
        """Exact candidate scores for an explicit WEIGHTED term multiset
        (Rocchio-expanded queries): contribution of term t = weights[t] *
        idf(t) * bm25-tf-part — the plain query is the special case
        weights = token multiplicities.  Returns ``(docs, scores)`` sorted
        by doc_int."""
        n = self.stats["n_docs"]
        avgdl = self.stats["avgdl"] or 1.0
        pls: list[tuple[PostingList, float, float]] = []
        for t in sorted(weights):
            pl = self.reader.postings(t)
            if pl is None:
                continue
            idf = 1.0 if scorer == "additive" else math.log(
                (n - pl.df_stale + 0.5) / (pl.df_stale + 0.5) + 1.0
            )
            pls.append((pl, idf, float(weights[t])))
        if not pls:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        all_docs = np.unique(np.concatenate([pl.docs for pl, _, _ in pls]))
        acc = np.zeros(all_docs.size, dtype=np.float64)
        for pl, idf, w in pls:
            idx = np.searchsorted(all_docs, pl.docs)
            np.add.at(acc, idx, w * self._scores_for(pl, idf, scorer, avgdl))
        return all_docs, acc

    def topk_taat(self, query: str, k: int = 10, scorer: str = "additive") -> list[tuple[int, float]]:
        """Vectorized term-at-a-time exact evaluation."""
        all_docs, acc = self.all_scores(query, scorer)
        if not all_docs.size:
            return []
        order = np.lexsort((all_docs, -acc))[:k]
        return [(int(all_docs[i]), float(acc[i])) for i in order]

    def sloppy_phrase_search(self, phrase: str, slop: int = 1,
                             k: int = 10) -> list[tuple[int, float]]:
        """Sloppy phrase ("a b"~slop, Lucene slop analog): consecutive
        tokens must appear IN ORDER in the same field with positional gap
        in [1, slop] — slop=1 is exactly phrase_search's adjacency chain.
        Matching docs are ranked by plain BM25 over the phrase tokens
        (full tf; the reference's tf=1 phrase quirk stays exclusive to
        the reference-parity phrase path).  Candidates are pruned by doc
        intersection FIRST, positions decoded for the intersection only,
        and the chain step is one searchsorted window probe per field."""
        tokens = self.tokenizer.tokenize(phrase)
        if not tokens:
            return []
        if len(tokens) == 1:
            return self.topk_taat(tokens[0], k, "bm25")
        pls = []
        for term in tokens:
            pl = self.reader.postings(term)
            if pl is None:
                return []
            pls.append(pl)
        common = pls[0].docs
        for pl in pls[1:]:
            common = self._sorted_intersect(common, pl.docs)
            if common.size == 0:
                return []
        fields_per_term = [
            pl.positions_for_many(np.searchsorted(pl.docs, common))
            for pl in pls
        ]
        matched: list[int] = []
        for ki, di in enumerate(common.tolist()):
            prev = fields_per_term[0][ki]
            for ti in range(1, len(pls)):
                cur = fields_per_term[ti][ki]
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
            if prev:
                matched.append(int(di))
        if not matched:
            return []
        from collections import Counter

        weights = {t: float(m) for t, m in Counter(tokens).items()}
        docs, acc = self.all_scores_weighted(weights, "bm25")
        m = np.array(matched, dtype=np.int64)
        sel = np.searchsorted(docs, m)
        acc_m = acc[sel]
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

    def topk_maxscore(self, query: str, k: int = 10,
                      scorer: str = "additive") -> list[tuple[int, float]]:
        """Vectorized MaxScore (exact top-k): terms processed in decreasing
        max-contribution order; once the remaining terms' max-score sum can
        no longer lift an unseen doc past the current kth score, those terms
        stop admitting NEW docs and only update existing accumulators (a
        sorted-array intersection) — so a stop-like head term with a huge
        posting list costs an O(|acc|) update, not an O(df) accumulation.
        Sound because docs admitted only from the essential prefix: a doc
        absent from every essential term has upper bound <= threshold.
        Beats the classic per-doc WAND loop in this runtime (numpy kernels
        vs Python iteration) while using the same block-max metadata idea
        at term granularity."""
        pls, avgdl = self._term_arrays(query, scorer)
        if not pls:
            return []
        scores = [self._scores_for(pl, idf, scorer, avgdl) for pl, idf in pls]
        maxs = np.array([float(s.max()) if s.size else 0.0 for s in scores])
        order = np.argsort(-maxs, kind="stable")
        suffix = np.zeros(len(pls) + 1)
        suffix[:-1] = np.cumsum(maxs[order][::-1])[::-1]

        acc_docs = np.empty(0, dtype=np.int64)
        acc = np.empty(0, dtype=np.float64)
        threshold = -math.inf
        for rank, t in enumerate(order):
            docs, s = pls[t][0].docs, scores[t]
            # strict <: a pruned doc's bound equal to the threshold could
            # tie the kth score and win the (score desc, doc asc) tiebreak
            if suffix[rank] < threshold and acc_docs.size:
                # non-essential: update existing accumulators only
                idx = np.searchsorted(docs, acc_docs)
                idx[idx == docs.size] = 0
                hit = docs[idx] == acc_docs
                acc[hit] += s[idx[hit]]
            else:
                # essential: merge this term's docs into the accumulator
                merged = np.union1d(acc_docs, docs)
                new_acc = np.zeros(merged.size, dtype=np.float64)
                if acc_docs.size:
                    new_acc[np.searchsorted(merged, acc_docs)] = acc
                np.add.at(new_acc, np.searchsorted(merged, docs), s)
                acc_docs, acc = merged, new_acc
            if acc.size >= k:
                threshold = float(
                    np.partition(acc, acc.size - k)[acc.size - k]
                )
        order_f = np.lexsort((acc_docs, -acc))[:k]
        return [(int(acc_docs[i]), float(acc[i])) for i in order_f]

    def topk_wand(self, query: str, k: int = 10, scorer: str = "additive") -> list[tuple[int, float]]:
        """Block-max WAND document-at-a-time evaluation (A9 fast path).

        Upper bounds: per-term block-max of the additive weight (for bm25 the
        block payload upper bound is blockmax_weight scaled conservatively by
        idf * (k1+1) — weight >= tf so this dominates the bm25 tf component).
        Exact top-k: a candidate doc is fully scored before entering the heap.
        """
        pls, avgdl = self._term_arrays(query, scorer)
        if not pls:
            return []
        k1, b = 1.2, 0.75

        per_doc_scores: list[np.ndarray] = [
            self._scores_for(pl, idf, scorer, avgdl) for pl, idf in pls
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
        sizes = [pl.docs.size for pl, _ in pls]
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
            live.sort(key=lambda t: pls[t][0].docs[cursors[t]])
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
            pivot_doc = int(pls[pivot][0].docs[cursors[pivot]])
            first_doc = int(pls[live[0]][0].docs[cursors[live[0]]])
            if first_doc == pivot_doc:
                # fully score pivot_doc
                score = 0.0
                for t in live:
                    d = pls[t][0].docs
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
                    d = pls[t][0].docs
                    cursors[t] = int(np.searchsorted(d, pivot_doc))

        out = sorted(((-d, s) for s, d in heap), key=lambda x: (-x[1], x[0]))
        return [(int(d), float(s)) for d, s in out]

    def _topk_method(self, method: str):
        return {"taat": self.topk_taat, "wand": self.topk_wand,
                "maxscore": self.topk_maxscore}[method]

    # Default method choice is MEASURED, not assumed: at bench scale the
    # fully vectorized TAAT (1.9 ms/q) beats the per-doc Python WAND loop
    # (24 ms/q) and ties vectorized MaxScore; MaxScore becomes the right
    # default when head-term df dwarfs |top-k accumulator| (its non-
    # essential terms cost O(|acc|) instead of O(df)).  All three are
    # exact and conformance-tested identical.
    def additive_search(self, query: str, k: int = 10, use_wand: bool = False,
                        method: str | None = None):
        method = method or ("wand" if use_wand else "taat")
        return self._topk_method(method)(query, k, "additive")

    def bm25_search(self, query: str, k: int = 10, use_wand: bool = False,
                    method: str | None = None):
        method = method or ("wand" if use_wand else "taat")
        return self._topk_method(method)(query, k, "bm25")


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
    doc set broadcasts once; the SEGMENT term rows stream through
    ``map_batches`` (pruned to term+docs columns), each row's docs stream
    is varint-decoded and probed against the matched ids with one
    searchsorted membership pass, and each batch emits only its partial
    top-k by lift — the driver merges k-sized partials, never the
    dictionary.
    """
    import pyarrow as pa
    import ray
    import ray.data

    from ..stages.encode import decode_docs_stream

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
    matched_ref = ray.put(np.ascontiguousarray(matched, dtype=np.int64))

    seg_name = "segments_merged" if reader.stats.get("compacted") \
        else "segments"

    def partial(batch: pa.Table) -> pa.Table:
        ids = ray.get(matched_ref)
        terms_b = batch["term"].to_pylist()
        bufs = batch["docs"].to_pylist()
        rows = []
        for t, buf in zip(terms_b, bufs):
            docs = decode_docs_stream(buf, docs_codec).astype(np.int64)
            idx = np.searchsorted(ids, docs)
            idx[idx == ids.size] = 0
            nm = int((ids[idx] == docs).sum())
            if nm >= min_match:
                df = int(docs.size)
                lift = (nm / n_matched) / (df / n_docs)
                rows.append((t, nm, df, round(lift, 9)))
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
            ray.data.read_parquet(
                os.path.join(index_dir, seg_name),
                columns=["term", "docs"],
            )
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
    vectorized DP, and — on the compacted tier — emits at most one best
    candidate per (word, batch), so the driver combine is bounded by
    batches x words.  Uncompacted indexes emit every in-range candidate
    with its per-salt partial df; the combine sums df per (word, term)
    before ranking so both tiers answer identically.

    Returns an Arrow table (query, suggestion, distance, df) sorted by
    query — one row per word that has a candidate.
    """
    import os

    import pyarrow as pa
    import ray
    import ray.data

    out_schema = pa.schema(
        [("query", pa.string()), ("suggestion", pa.string()),
         ("distance", pa.int64()), ("df", pa.int64())]
    )
    qs = sorted(set(words))
    if not qs:
        return out_schema.empty_table()

    with open(os.path.join(index_dir, "stats.json")) as f:
        compacted = json.load(f)["compacted"]
    seg_root = os.path.join(
        index_dir, "segments_merged" if compacted else "segments"
    )

    def _candidates(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        tbytes = [t.encode("utf-8") for t in terms]
        dfs = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.array([len(b) for b in tbytes], dtype=np.int64)
        rq, rs, rd, rf = [], [], [], []
        for w in qs:
            wb = w.encode("utf-8")
            sel = np.flatnonzero(np.abs(lens - len(wb)) <= max_distance)
            if sel.size == 0:
                continue
            cand = [terms[i] for i in sel.tolist()]
            cb = [tbytes[i] for i in sel.tolist()]
            L = max(len(b) for b in cb)
            mat = np.zeros((len(cb), L), dtype=np.uint8)
            for r, b in enumerate(cb):
                mat[r, : len(b)] = np.frombuffer(b, dtype=np.uint8)
            dist = _levenshtein_vec(wb, mat, lens[sel])
            ok = np.flatnonzero(dist <= max_distance)
            if ok.size == 0:
                continue
            # compacted: one (term -> total df) row per term exists, so the
            # local best per word is safe — one row per (word, batch).
            # uncompacted: a term's df is SPLIT across salt rows that may
            # land in different batches, so every in-range candidate must
            # reach the driver for the df sum before ranking.
            order = sorted(
                ok.tolist(),
                key=lambda i: (int(dist[i]), -int(dfs[sel[i]]), cand[i]),
            )
            for i in (order[:1] if compacted else order):
                rq.append(w)
                rs.append(cand[i])
                rd.append(int(dist[i]))
                rf.append(int(dfs[sel[i]]))
        return pa.table(
            {"query": pa.array(rq, pa.string()),
             "suggestion": pa.array(rs, pa.string()),
             "distance": pa.array(rd, pa.int64()),
             "df": pa.array(rf, pa.int64())},
            schema=out_schema,
        )

    parts = (
        ray.data.read_parquet(seg_root, columns=["term", "df"])
        .map_batches(_candidates, batch_format="pyarrow",
                     concurrency=concurrency)
    )
    combined = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(parts.to_arrow_refs()))
    )
    if combined.num_rows == 0:
        return combined
    # uncompacted tiers: same term appears once per salt run — sum df
    merged = combined.group_by(
        ["query", "suggestion", "distance"]
    ).aggregate([("df", "sum")])
    best: dict[str, tuple] = {}
    for q, s, d, f in zip(merged["query"].to_pylist(),
                          merged["suggestion"].to_pylist(),
                          merged["distance"].to_pylist(),
                          merged["df_sum"].to_pylist()):
        key = (int(d), -int(f), s)
        if q not in best or key < best[q][0]:
            best[q] = (key, s, int(d), int(f))
    rows = sorted(best.items())
    return pa.table(
        {"query": pa.array([q for q, _ in rows], pa.string()),
         "suggestion": pa.array([v[1] for _, v in rows], pa.string()),
         "distance": pa.array([v[2] for _, v in rows], pa.int64()),
         "df": pa.array([v[3] for _, v in rows], pa.int64())},
        schema=out_schema,
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
    ranking of :func:`spell_correct`; df is the authoritative on-disk
    dictionary count (``df_stale``, the wildcard_terms_kgram contract).

    Returns an Arrow table (query, suggestion, distance, df) sorted by
    query — one row per word that has a candidate.
    """
    import os

    import pyarrow as pa
    import pyarrow.compute as pc_mod
    import pyarrow.dataset as pads_mod

    from ..pipelines.build import build_kgram_index, kgram_of
    from ..state.segments import SegmentReader

    out_schema = pa.schema(
        [("query", pa.string()), ("suggestion", pa.string()),
         ("distance", pa.int64()), ("df", pa.int64())]
    )
    qs = sorted(set(words))
    if not qs:
        return out_schema.empty_table()

    grams_of = {w: sorted(set(kgram_of(w, k))) for w in qs}
    thresh = {w: len(grams_of[w]) - k * max_distance for w in qs}
    pruned_words = [w for w in qs if thresh[w] > 0]
    fallback_words = [w for w in qs if thresh[w] <= 0]

    pieces = []
    if fallback_words:   # too short to gram-prune: the stream-scan path
        pieces.append(spell_correct(index_dir, fallback_words,
                                    max_distance=max_distance,
                                    concurrency=concurrency))

    if pruned_words:
        gram_dir = build_kgram_index(index_dir, k)
        reader = SegmentReader(index_dir)
        all_grams = sorted({g for w in pruned_words for g in grams_of[w]})
        idx = pads_mod.dataset(gram_dir, format="parquet").to_table(
            columns=["gram", "term"],
            filter=pc_mod.field("gram").isin(
                pa.array(all_grams, pa.string())),
        )
        # DISTINCT (gram, term) matches (the index duplicates rows per
        # salt run and per repeated gram occurrence)
        by_gram: dict[str, set] = {}
        for g, t in zip(idx["gram"].to_pylist(), idx["term"].to_pylist()):
            by_gram.setdefault(g, set()).add(t)

        rq, rs, rd, rf = [], [], [], []
        for w in pruned_words:
            counts: dict[str, int] = {}
            for g in grams_of[w]:
                for t in by_gram.get(g, ()):
                    counts[t] = counts.get(t, 0) + 1
            wb = w.encode("utf-8")
            cand = sorted(
                t for t, c in counts.items()
                if c >= thresh[w]
                and abs(len(t.encode("utf-8")) - len(wb)) <= max_distance
            )
            if not cand:
                continue
            cb = [t.encode("utf-8") for t in cand]
            lens = np.array([len(b) for b in cb], dtype=np.int64)
            mat = np.zeros((len(cb), int(lens.max())), dtype=np.uint8)
            for r, b in enumerate(cb):
                mat[r, : len(b)] = np.frombuffer(b, dtype=np.uint8)
            dist = _levenshtein_vec(wb, mat, lens)
            ok = np.flatnonzero(dist <= max_distance)
            if ok.size == 0:
                continue
            dfs = {t: int(reader.postings(t).df_stale)
                   for t in (cand[i] for i in ok.tolist())}
            best_i = min(
                ok.tolist(),
                key=lambda i: (int(dist[i]), -dfs[cand[i]], cand[i]),
            )
            rq.append(w)
            rs.append(cand[best_i])
            rd.append(int(dist[best_i]))
            rf.append(dfs[cand[best_i]])
        pieces.append(pa.table(
            {"query": pa.array(rq, pa.string()),
             "suggestion": pa.array(rs, pa.string()),
             "distance": pa.array(rd, pa.int64()),
             "df": pa.array(rf, pa.int64())},
            schema=out_schema,
        ))

    out = pa.concat_tables([out_schema.empty_table()] + pieces)
    return out.sort_by("query")


def prefix_suggest(index_dir: str, prefixes: list[str], *, k: int = 5,
                   concurrency: int = 2):
    """Autocomplete: per prefix, the top-k dictionary terms by document
    frequency (df desc, term asc tiebreak) — the query-box suggester the
    reference backs with a replayed-query store (SearchController.java:
    142-170); this one works from the index itself so it can complete
    anything the corpus contains.

    Same distributed shape as :func:`spell_correct`: the (term, df)
    dictionary columns stream from the segment parquet, each batch keeps
    its local top-k per prefix (uncompacted tiers emit every per-salt row
    for matched terms instead, see spell_correct's df-split note), and
    the driver merges bounded partials.

    Returns an Arrow table (prefix, term, df, rank) sorted by
    (prefix, rank).
    """
    import pyarrow as pa
    import ray
    import ray.data

    out_schema = pa.schema(
        [("prefix", pa.string()), ("term", pa.string()),
         ("df", pa.int64()), ("rank", pa.int64())]
    )
    ps = sorted(set(prefixes))
    if not ps or k <= 0:
        return out_schema.empty_table()

    with open(os.path.join(index_dir, "stats.json")) as f:
        compacted = json.load(f)["compacted"]
    seg_root = os.path.join(
        index_dir, "segments_merged" if compacted else "segments"
    )
    part_schema = pa.schema(
        [("prefix", pa.string()), ("term", pa.string()), ("df", pa.int64())]
    )

    def _partial(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        dfs = batch["df"].to_pylist()
        rp, rt, rf = [], [], []
        for p in ps:
            hits = [(t, int(d)) for t, d in zip(terms, dfs)
                    if t.startswith(p)]
            hits.sort(key=lambda x: (-x[1], x[0]))
            for t, d in (hits[:k] if compacted else hits):
                rp.append(p)
                rt.append(t)
                rf.append(d)
        return pa.table(
            {"prefix": pa.array(rp, pa.string()),
             "term": pa.array(rt, pa.string()),
             "df": pa.array(rf, pa.int64())},
            schema=part_schema,
        )

    parts = (
        ray.data.read_parquet(seg_root, columns=["term", "df"])
        .map_batches(_partial, batch_format="pyarrow",
                     concurrency=concurrency)
    )
    combined = pa.concat_tables(
        [part_schema.empty_table()] + list(ray.get(parts.to_arrow_refs()))
    )
    merged = combined.group_by(["prefix", "term"]).aggregate([("df", "sum")])
    by_prefix: dict[str, list] = {}
    for p, t, d in zip(merged["prefix"].to_pylist(),
                       merged["term"].to_pylist(),
                       merged["df_sum"].to_pylist()):
        by_prefix.setdefault(p, []).append((-int(d), t))
    rp, rt, rf, rr = [], [], [], []
    for p in sorted(by_prefix):
        for rank, (nd, t) in enumerate(sorted(by_prefix[p])[:k], start=1):
            rp.append(p)
            rt.append(t)
            rf.append(-nd)
            rr.append(rank)
    return pa.table(
        {"prefix": pa.array(rp, pa.string()),
         "term": pa.array(rt, pa.string()),
         "df": pa.array(rf, pa.int64()),
         "rank": pa.array(rr, pa.int64())},
        schema=out_schema,
    )


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
    import pyarrow as pa

    out_schema = pa.schema(
        [("prefix", pa.string()), ("term", pa.string()),
         ("df", pa.int64()), ("rank", pa.int64())]
    )
    ps = sorted(set(prefixes))
    if not ps or k <= 0:
        return out_schema.empty_table()
    # '%'/'_' in a prefix would be LIKE metacharacters; the stream path
    # treats them literally, so refuse rather than silently diverge
    for p in ps:
        if "%" in p or "_" in p:
            raise ValueError(f"prefix_suggest_kgram: literal %/_ in {p!r}")

    wc = wildcard_terms_kgram(index_dir, [p + "%" for p in ps], k=gram_k,
                              concurrency=concurrency)
    by_prefix: dict[str, list] = {}
    for pat, t, d in zip(wc["pattern"].to_pylist(),
                         wc["term"].to_pylist(),
                         wc["df"].to_pylist()):
        by_prefix.setdefault(pat[:-1], []).append((-int(d), t))
    rp, rt, rf, rr = [], [], [], []
    for p in sorted(by_prefix):
        for rank, (nd, t) in enumerate(sorted(by_prefix[p])[:k], start=1):
            rp.append(p)
            rt.append(t)
            rf.append(-nd)
            rr.append(rank)
    return pa.table(
        {"prefix": pa.array(rp, pa.string()),
         "term": pa.array(rt, pa.string()),
         "df": pa.array(rf, pa.int64()),
         "rank": pa.array(rr, pa.int64())},
        schema=out_schema,
    )


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


def wildcard_terms(index_dir: str, patterns: list[str], *,
                   concurrency: int = 2):
    """Wildcard term matching (the ``te%m``-style dictionary lookup behind
    wildcard queries, IR-textbook ch.3): every dictionary term matching
    each SQL-LIKE pattern (% = any run, _ = any char), with its df.
    Arrow's ``match_like`` kernel implements exactly DuckDB's LIKE, so the
    oracle is a direct LIKE join.

    Same dictionary-stream shape as :func:`prefix_suggest` — (term, df)
    columns only, vectorized kernel per batch, df summed per term at the
    combine for uncompacted tiers.  A 100 TB dictionary would front this
    with a k-gram index (gram -> term postings, intersect the pattern's
    grams, post-verify with this same kernel); the stream scan IS the
    post-verify stage of that design.

    Returns an Arrow table (pattern, term, df) sorted by (pattern, term).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    out_schema = pa.schema(
        [("pattern", pa.string()), ("term", pa.string()),
         ("df", pa.int64())]
    )
    ps = sorted(set(patterns))
    if not ps:
        return out_schema.empty_table()

    with open(os.path.join(index_dir, "stats.json")) as f:
        compacted = json.load(f)["compacted"]
    seg_root = os.path.join(
        index_dir, "segments_merged" if compacted else "segments"
    )

    def _match(batch: pa.Table) -> pa.Table:
        terms = batch["term"]
        rp, rt, rf = [], [], []
        for p in ps:
            keep = pc.match_like(terms, p)
            sel = batch.filter(keep)
            rp.extend([p] * sel.num_rows)
            rt.extend(sel["term"].to_pylist())
            rf.extend(sel["df"].to_pylist())
        return pa.table(
            {"pattern": pa.array(rp, pa.string()),
             "term": pa.array(rt, pa.string()),
             "df": pa.array(rf, pa.int64())},
            schema=out_schema,
        )

    parts = (
        ray.data.read_parquet(seg_root, columns=["term", "df"])
        .map_batches(_match, batch_format="pyarrow",
                     concurrency=concurrency)
    )
    combined = pa.concat_tables(
        [out_schema.empty_table()] + list(ray.get(parts.to_arrow_refs()))
    )
    merged = combined.group_by(["pattern", "term"]).aggregate([("df", "sum")])
    merged = merged.rename_columns(
        ["df" if c == "df_sum" else c for c in merged.column_names]
    )
    return merged.select(["pattern", "term", "df"]).sort_by(
        [("pattern", "ascending"), ("term", "ascending")]
    )


def wildcard_terms_kgram(index_dir: str, patterns: list[str], *, k: int = 3,
                         concurrency: int = 2):
    """Wildcard term matching through the K-GRAM INDEX (the scale path
    :func:`wildcard_terms` documents): each pattern's literal segments
    yield boundary-marked k-grams; the gram->term index (built once,
    sorted by gram for row-group predicate pushdown) is read ONLY at
    those grams; candidates = terms containing ALL the pattern's grams;
    a final ``match_like`` verify removes gram-collision false positives.
    Answers are defined to be IDENTICAL to the stream-scan path — the
    driver oracle for this query is the same LIKE recompute, so the
    pruning's soundness is hash-checked, not assumed.

    Patterns whose literal segments yield no k-gram (e.g. ``%a%``) cannot
    be pruned and fall back to the dictionary scan for that pattern.

    Returns an Arrow table (pattern, term, df) sorted by (pattern, term).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads_mod

    from ..pipelines.build import build_kgram_index, kgram_of
    from ..state.segments import SegmentReader

    out_schema = pa.schema(
        [("pattern", pa.string()), ("term", pa.string()),
         ("df", pa.int64())]
    )
    ps = sorted(set(patterns))
    if not ps:
        return out_schema.empty_table()

    gram_dir = build_kgram_index(index_dir, k)
    reader = SegmentReader(index_dir)

    def pattern_grams(p: str) -> list[str]:
        segs = re.split(r"[%_]", p)
        out: list[str] = []
        for i, seg in enumerate(segs):
            aug = seg
            if i == 0:
                aug = "$" + aug
            if i == len(segs) - 1:
                aug = aug + "$"
            out.extend(aug[j : j + k] for j in range(len(aug) - k + 1))
        return sorted(set(out))

    need: dict[str, list[str]] = {p: pattern_grams(p) for p in ps}
    all_grams = sorted({g for gs in need.values() for g in gs})
    if all_grams:
        idx = pads_mod.dataset(gram_dir, format="parquet").to_table(
            columns=["gram", "term"],
            filter=pc.field("gram").isin(pa.array(all_grams, pa.string())),
        )
        by_gram: dict[str, set] = {}
        for g, t in zip(idx["gram"].to_pylist(), idx["term"].to_pylist()):
            by_gram.setdefault(g, set()).add(t)
    else:
        by_gram = {}

    rp, rt, rf = [], [], []
    for p in ps:
        gs = need[p]
        if gs:
            cands: set | None = None
            for g in gs:
                cands = (by_gram.get(g, set()) if cands is None
                         else cands & by_gram.get(g, set()))
                if not cands:
                    break
            cand_list = sorted(cands or ())
        else:  # unprunable pattern: full dictionary fallback
            cand_list = sorted(reader.terms())
        if not cand_list:
            continue
        keep = pc.match_like(pa.array(cand_list, pa.string()), p)
        for t, ok in zip(cand_list, keep.to_pylist()):
            if ok:
                rp.append(p)
                rt.append(t)
                # dictionary df is the stale (on-disk) count — consistent
                # with the parquet-column df paths and Lucene's docFreq
                rf.append(int(reader.postings(t).df_stale))
    return pa.table(
        {"pattern": pa.array(rp, pa.string()),
         "term": pa.array(rt, pa.string()),
         "df": pa.array(rf, pa.int64())},
        schema=out_schema,
    )


def wildcard_terms_permuterm(index_dir: str, patterns: list[str]):
    """Wildcard term matching through the PERMUTERM INDEX (IR-textbook
    §3.2.1): a single-``%`` pattern ``a%b`` rotates to the prefix
    ``b$a`` over the rotation dictionary, answered by ONE sorted-range
    parquet scan ([prefix, prefix+1) pushdown on the rot column) —
    no gram intersection, at the cost of the ~|term|x dictionary
    blow-up :func:`build_permuterm_index` materializes.  Patterns the
    permuterm transform cannot express (``_`` single-char wildcards,
    more than one ``%``) fall back to the dictionary stream scan, like
    the k-gram path's unprunable-pattern fallback.  Answers are defined
    IDENTICAL to :func:`wildcard_terms`; the driver oracle is the same
    LIKE recompute, so the rotation lookup's soundness is hash-checked.

    Returns an Arrow table (pattern, term, df) sorted by (pattern, term).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads_mod

    from ..pipelines.build import build_permuterm_index
    from ..state.segments import SegmentReader

    out_schema = pa.schema(
        [("pattern", pa.string()), ("term", pa.string()),
         ("df", pa.int64())]
    )
    ps = sorted(set(patterns))
    if not ps:
        return out_schema.empty_table()

    rot_dir = build_permuterm_index(index_dir)
    reader = SegmentReader(index_dir)
    rot_ds = pads_mod.dataset(rot_dir, format="parquet")

    def rotation_prefix(p: str) -> str | None:
        if "_" in p or p.count("%") > 1:
            return None
        a, _, b = p.partition("%")
        return (b + "$" + a) if "%" in p else (p + "$")

    rp, rt, rf = [], [], []
    for p in ps:
        prefix = rotation_prefix(p)
        if prefix is not None:
            hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
            cand = rot_ds.to_table(
                columns=["term"],
                filter=(pc.field("rot") >= prefix)
                & (pc.field("rot") < hi),
            )
            cand_list = sorted(set(cand["term"].to_pylist()))
        else:  # permuterm-inexpressible: dictionary stream fallback
            cand_list = sorted(reader.terms())
        keep = pc.match_like(pa.array(cand_list, pa.string()), p)
        for t, ok in zip(cand_list, keep.to_pylist()):
            if ok:
                rp.append(p)
                rt.append(t)
                rf.append(int(reader.postings(t).df_stale))
    return pa.table(
        {"pattern": pa.array(rp, pa.string()),
         "term": pa.array(rt, pa.string()),
         "df": pa.array(rf, pa.int64())},
        schema=out_schema,
    )


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

    with open(os.path.join(index_dir, "stats.json")) as f:
        compacted = json.load(f)["compacted"]
    seg_root = os.path.join(
        index_dir, "segments_merged" if compacted else "segments"
    )

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
            ray.data.read_parquet(seg_root, columns=["term", "df"])
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

    The source doc's term vector comes from the postings-phase parquet
    (the build's map-side spill doubles as Lucene's stored term vectors)
    via doc_int predicate pushdown; candidate scoring is the vectorized
    TAAT accumulation over the selected terms' posting lists — a
    point-query path (same latency class as search), not a corpus job.

    Returns an Arrow table (rank, doc_int, score) — top-k by
    (score DESC, doc_int ASC), score rounded to 9 decimals.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads_mod

    out_schema = pa.schema(
        [("rank", pa.int64()), ("doc_int", pa.int64()),
         ("score", pa.float64())]
    )
    tv = pads_mod.dataset(
        os.path.join(index_dir, "postings"), format="parquet",
        partitioning="hive",
    ).to_table(
        columns=["term", "doc_int", "field", "tf"],
        filter=(pc.field("doc_int") == doc_int) & (pc.field("field") >= 0),
    )
    if tv.num_rows == 0:
        return out_schema.empty_table()
    agg = tv.group_by("term").aggregate([("tf", "sum")])
    reader = SegmentReader(index_dir)
    terms = agg["term"].to_pylist()
    tfs = agg["tf_sum"].to_pylist()
    dfs = [reader.postings(t).df_stale for t in terms]
    order = sorted(range(len(terms)),
                   key=lambda i: (-tfs[i], dfs[i], terms[i]))[:n_terms]
    sel = [terms[i] for i in order]

    docs_parts, w_parts = [], []
    for t in sel:
        pl = reader.postings(t)
        docs_parts.append(pl.docs)
        w_parts.append(pl.weights)
    docs_all = np.concatenate(docs_parts)
    w_all = np.concatenate(w_parts)
    uniq, inv = np.unique(docs_all, return_inverse=True)
    scores = np.zeros(uniq.size)
    np.add.at(scores, inv, w_all)
    keep = uniq != doc_int
    uniq, scores = uniq[keep], scores[keep]
    top = np.lexsort((uniq, -scores))[:k]
    return pa.table(
        {"rank": pa.array(np.arange(1, top.size + 1), pa.int64()),
         "doc_int": pa.array(uniq[top], pa.int64()),
         "score": pa.array(np.round(scores[top], 9), pa.float64())},
        schema=out_schema,
    )
