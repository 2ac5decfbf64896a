"""SQL-checkable inverted-index mechanics over the ``documents`` testdata.

These mirror the engine's posting-construction machinery (explode -> shuffle
-> aggregate; positional lookup; token adjacency) with a DELIBERATELY simple
tokenizer — ``re.split('[^a-z0-9]+', lower(text))`` — whose semantics DuckDB
reproduces exactly (``string_split_regex``), so the driver's SQL oracle can
hash-compare them.  The REAL tokenizer path (Porter2 + specials) is verified
against the transcribed oracle in pytest; it is not SQL-expressible.
"""

from __future__ import annotations

import re
import os as _os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages.partitioning import fused_parts
from ray.data.aggregate import Count, Sum

_SIMPLE = re.compile(r"[^a-z0-9]+")


def simple_tokens(text: str) -> list[str]:
    """Scalar path (query parsing / oracles); batch stages use _exploded."""
    return _SIMPLE.split((text or "").lower())


def _exploded(batch: pa.Table, min_len: int = 2):
    """Vectorized simple-tokenizer explode of ``batch['text']``: returns
    ``(doc_pos, flat, lengths, ok)`` where ``flat`` is the RAW re.split
    token stream (empty edge tokens preserved, verified char-identical to
    ``re.split`` — Arrow re2 split + utf8_lower match Python semantics),
    ``doc_pos[i]`` is the batch row owning ``flat[i]``, ``lengths`` the raw
    per-doc token counts, and ``ok`` the ``len >= min_len`` validity mask.
    This is the shared hot core: no Python loop ever touches a token."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    split = pc.split_pattern_regex(
        pc.utf8_lower(pc.fill_null(texts, "")), pattern="[^a-z0-9]+"
    )
    lengths = pc.list_value_length(split).to_numpy().astype(np.int64)
    flat = pc.list_flatten(split)
    doc_pos = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
    ok = pc.greater_equal(pc.utf8_length(flat), min_len).to_numpy(
        zero_copy_only=False
    )
    return doc_pos, flat, lengths, ok


def _docs(sf_dir: str):
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def _explode(batch: pa.Table, distinct_per_doc: bool) -> pa.Table:
    doc_pos, flat, _, ok = _exploded(batch)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_pos[ok]]
    terms = flat.filter(pa.array(ok))
    out = pa.table(
        {"doc_id": pa.array(doc_ids, pa.int64()), "term": terms}
    )
    if distinct_per_doc:
        g = out.group_by(["doc_id", "term"]).aggregate([])
        out = g.select(["doc_id", "term"])
    return out


def term_df(sf_dir: str) -> pd.DataFrame:
    """Document frequency per term (the A3/A4 groupby mechanics)."""
    ds = _docs(sf_dir).map_batches(
        lambda b: _explode(b, True), batch_format="pyarrow"
    )
    out = ds.groupby("term").aggregate(Count(alias_name="df")).to_pandas()
    out["df"] = out["df"].astype("int64")
    return out.sort_values("term").reset_index(drop=True)


def top_terms(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Top-k terms by total tf with deterministic (tf desc, term asc) order."""
    ds = _docs(sf_dir).map_batches(
        lambda b: _explode(b, False), batch_format="pyarrow"
    )
    counts = ds.groupby("term").aggregate(Count(alias_name="tf"))
    out = counts.sort(["tf", "term"], descending=[True, False]).limit(k).to_pandas()
    out["tf"] = out["tf"].astype("int64")
    return out.reset_index(drop=True)


def doc_token_count(sf_dir: str) -> pd.DataFrame:
    """Valid-token count per doc (A2 totalWords mechanics)."""

    def count_batch(batch: pa.Table) -> pa.Table:
        doc_pos, _, _, ok = _exploded(batch)
        ns = np.bincount(doc_pos[ok], minlength=len(batch))
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": pa.array(ns, pa.int64())}
        )

    out = _docs(sf_dir).map_batches(count_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def first_position(sf_dir: str, term: str = "spark") -> pd.DataFrame:
    """0-based first position of ``term`` in the raw split-token list per doc
    (positional-index mechanics; matches DuckDB list_position semantics)."""

    def pos_batch(batch: pa.Table) -> pa.Table:
        doc_pos, flat, lengths, _ = _exploded(batch)
        hits = np.flatnonzero(
            pc.equal(flat, term).to_numpy(zero_copy_only=False)
        )
        docs_hit = doc_pos[hits]
        # first hit per doc: flat indices are doc-major, so the first
        # occurrence of each doc id in docs_hit is its first match
        uniq, first = np.unique(docs_hit, return_index=True)
        starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        poss = hits[first] - starts[uniq]
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[uniq]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "pos": pa.array(poss, pa.int64())}
        )

    out = _docs(sf_dir).map_batches(pos_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def search_additive(sf_dir: str, query: str = "hash join performance",
                    k: int = 10) -> pd.DataFrame:
    """A9 additive scorer (api/SearchEngine.java:37-67: docScore = Σ posting
    weight over query terms, top-k) as a corpus-level Dataset op: explode ->
    filter to query terms -> groupby(doc) count -> global sort desc ->
    limit — the K1/K3 sort-limit path with the declared (score desc, doc_id
    asc) tiebreak.  Field weight is 1.0 here (the documents table has a
    single field), so Σ weight == Σ tf."""
    qset = {t for t in simple_tokens(query) if len(t) >= 2}

    qarr = pa.array(sorted(qset), pa.string())

    def explode_q(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, _ = _exploded(batch)
        hit = pc.is_in(flat, value_set=qarr).to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_pos[hit]]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "term": flat.filter(pa.array(hit))}
        )

    ds = _docs(sf_dir).map_batches(explode_q, batch_format="pyarrow")
    scored = ds.groupby("doc_id").aggregate(Count(alias_name="score"))
    out = (
        scored.sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    out["score"] = out["score"].astype("int64")
    return out.reset_index(drop=True)


def tfidf_rank(sf_dir: str, query: str = "hash join performance",
               k: int = 10) -> pd.DataFrame:
    """Reference-ranker arithmetic (A4-A6 + K1, Ranker.java:78-153) over the
    simple token stream, SQL-checkable: candidate set = docs containing any
    query term; N and df are CANDIDATE-RELATIVE; tfidf = (tf/len) *
    log10(N/(1+df)); relevance = raw dot product (not cosine —
    Ranker.java:152 comments the normalization out); scores divided by the
    candidate max; top-k with (score desc, doc_id asc).

    The distributed part is candidate generation (a corpus scan); the
    candidate table itself is the per-query small side (SURVEY.md §2.4 J1)
    and is scored in one vectorized pass, exactly like the scorer actors.
    """
    qterms = [t for t in simple_tokens(query) if len(t) >= 2]
    qset = set(qterms)
    qlen = float(len(qterms))

    qarr = pa.array(sorted(qset), pa.string())

    def cand_batch(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        total = np.bincount(doc_pos[ok], minlength=len(batch))
        hit = ok & pc.is_in(flat, value_set=qarr).to_numpy(zero_copy_only=False)
        occ = pa.table(
            {
                "row": pa.array(doc_pos[hit], pa.int64()),
                "term": flat.filter(pa.array(hit)),
            }
        )
        g = occ.group_by(["row", "term"]).aggregate([("term", "count")])
        rows = g["row"].to_numpy(zero_copy_only=False)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[rows]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "term": g["term"],
                "tf": pc.cast(g["term_count"], pa.int64()),
                "total_words": pa.array(total[rows], pa.int64()),
            }
        )

    import numpy as np

    cand = (
        _docs(sf_dir).map_batches(cand_batch, batch_format="pyarrow").to_pandas()
    )
    if len(cand) == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    n = cand["doc_id"].nunique()
    df_map = cand.groupby("term")["doc_id"].nunique()
    idf = np.log10(n / (1.0 + cand["term"].map(df_map).to_numpy(np.float64)))
    doc_tfidf = cand["tf"].to_numpy(np.float64) / cand["total_words"].to_numpy(np.float64) * idf
    q_tfidf = (1.0 / qlen) * idf
    cand = cand.assign(part=doc_tfidf * q_tfidf)
    rel = cand.groupby("doc_id")["part"].sum()
    score = (rel / rel.max()).round(9)
    out = (
        score.reset_index(name="score")
        .sort_values(["score", "doc_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    return out[["doc_id", "score"]]


def bm25_simple(sf_dir: str, query: str = "hash join performance",
                k: int = 10, k1: float = 1.2, b: float = 0.75) -> pd.DataFrame:
    """Okapi BM25 top-k over the simple-tokenized documents table — the
    driver-checkable analog of the engine's BM25 scorer (search_bm25_wand
    runs the REAL Porter2 index, which SQL can't reproduce; this query
    validates the k1/b/idf ARITHMETIC itself against a DuckDB oracle).

    Shape: one vectorized pass emits per-doc (dl, tf per query term)
    partials; the tiny global stats (N, avgdl, df) aggregate from those;
    scoring + partial top-k run per batch against the broadcast stats and a
    final small merge ranks.  idf = ln((N - df + 0.5)/(df + 0.5) + 1)
    (Lucene/trec_eval convention, always positive)."""
    import numpy as np
    import ray

    terms = [t for t in simple_tokens(query) if len(t) >= 2]

    def partials(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        dl = np.bincount(doc_pos[ok], minlength=len(batch))
        out = {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "dl": pa.array(dl, pa.int64()),
        }
        for i, t in enumerate(terms):
            hit = ok & pc.equal(flat, t).to_numpy(zero_copy_only=False)
            out[f"tf{i}"] = pa.array(
                np.bincount(doc_pos[hit], minlength=len(batch)), pa.int64()
            )
        return pa.table(out)

    stats_ds = _docs(sf_dir).map_batches(partials, batch_format="pyarrow")
    stats_mat = stats_ds.materialize()
    g = stats_mat.aggregate(
        Count(alias_name="n_docs"), Sum("dl", alias_name="sum_dl")
    )
    n_docs, avgdl = int(g["n_docs"]), g["sum_dl"] / max(1, int(g["n_docs"]))

    def df_partial(batch: pa.Table) -> pa.Table:
        out = {}
        for i in range(len(terms)):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False)
            out[f"df{i}"] = pa.array([int((tf > 0).sum())], pa.int64())
        return pa.table(out)

    dfs_tbl = stats_mat.map_batches(df_partial, batch_format="pyarrow").to_pandas()
    dfs = [int(dfs_tbl[f"df{i}"].sum()) for i in range(len(terms))]
    idf = np.array(
        [np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0) for d in dfs]
    )
    stats_ref = ray.put((idf, float(avgdl)))

    def score_topk(batch: pa.Table) -> pa.Table:
        idf_a, ad = ray.get(stats_ref)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.zeros(len(dl))
        for i in range(len(terms)):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False).astype(np.float64)
            score += idf_a[i] * tf * (k1 + 1) / (
                tf + k1 * (1 - b + b * dl / ad)
            )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = score > 0
        ids, score = ids[hit], score[hit]
        kk = min(k, score.size)
        if kk == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.float64())}
            )
        order = np.lexsort((ids, -score))[:kk]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "score": pa.array(score[order], pa.float64()),
            }
        )

    out = stats_mat.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
    out["score"] = out["score"].round(6)
    return out.reset_index(drop=True)


def lm_dirichlet(sf_dir: str, query: str = "hash join performance",
                 k: int = 10, mu: float = 2000.0) -> pd.DataFrame:
    """Query-likelihood ranking with Dirichlet-prior smoothing (Zhai &
    Lafferty, SIGIR 2001) — the third classic scorer family next to the
    reference's tf-idf (`functions/scoring.py`, `Ranker.java`) and BM25:

        score(q, d) = sum_t qtf_t * ln( (tf_td + mu * p(t|C)) / (dl_d + mu) )

    with p(t|C) = ctf_t / total collection tokens, restricted to docs
    matching at least one query term (the candidate set every scorer here
    ranks).  Scale shape is identical to ``bm25_simple``: one vectorized
    pass emits per-doc (dl, tf per query term) partials; collection stats
    (ctf_t, total tokens) reduce from those via bounded per-batch partials;
    scoring + per-block partial top-k run against the broadcast stats and a
    k-sized driver merge ranks.  No driver materialization beyond the
    k-row result."""
    import numpy as np
    import ray

    terms = [t for t in simple_tokens(query) if len(t) >= 2]
    qtf = pd.Series(terms).value_counts()
    uterms = sorted(qtf.index)
    qtf_vec = np.array([float(qtf[t]) for t in uterms])

    def partials(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        dl = np.bincount(doc_pos[ok], minlength=len(batch))
        out = {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "dl": pa.array(dl, pa.int64()),
        }
        for i, t in enumerate(uterms):
            hit = ok & pc.equal(flat, t).to_numpy(zero_copy_only=False)
            out[f"tf{i}"] = pa.array(
                np.bincount(doc_pos[hit], minlength=len(batch)), pa.int64()
            )
        return pa.table(out)

    stats_ds = _docs(sf_dir).map_batches(partials, batch_format="pyarrow")
    stats_mat = stats_ds.materialize()

    def ctf_partial(batch: pa.Table) -> pa.Table:
        out = {"total": pa.array(
            [int(batch["dl"].to_numpy(zero_copy_only=False).sum())], pa.int64()
        )}
        for i in range(len(uterms)):
            out[f"ctf{i}"] = pa.array(
                [int(batch[f"tf{i}"].to_numpy(zero_copy_only=False).sum())],
                pa.int64(),
            )
        return pa.table(out)

    cs = stats_mat.map_batches(ctf_partial, batch_format="pyarrow").to_pandas()
    total = int(cs["total"].sum())
    ctf = np.array([int(cs[f"ctf{i}"].sum()) for i in range(len(uterms))])
    # a term absent from the collection has p(t|C) = 0 — undefined under
    # the model (ln 0); standard QL drops it from the query (the oracle's
    # inner join on the ctf CTE encodes the same rule)
    keep = np.flatnonzero(ctf > 0)
    p_c = ctf[keep].astype(np.float64) / max(1, total)
    qtf_keep = qtf_vec[keep]
    stats_ref = ray.put((keep, p_c, qtf_keep))

    def score_topk(batch: pa.Table) -> pa.Table:
        keep_idx, pc_vec, qw = ray.get(stats_ref)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.zeros(len(dl))
        any_hit = np.zeros(len(dl), dtype=bool)
        for j, i in enumerate(keep_idx):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False).astype(np.float64)
            any_hit |= tf > 0
            score += qw[j] * np.log((tf + mu * pc_vec[j]) / (dl + mu))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids, score = ids[any_hit], score[any_hit]
        kk = min(k, score.size)
        if kk == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.float64())}
            )
        order = np.lexsort((ids, -score))[:kk]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "score": pa.array(score[order], pa.float64()),
            }
        )

    out = stats_mat.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
    out["score"] = out["score"].round(6)
    return out.reset_index(drop=True)


def hybrid_rrf(sf_dir: str, query: str = "hash join performance",
               k_each: int = 50, k: int = 10, rrf_k: int = 60) -> pd.DataFrame:
    """Hybrid lexical+dense retrieval via Reciprocal Rank Fusion (Cormack,
    Clarke & Buettcher, SIGIR 2009): fuse the BM25 top-``k_each`` over
    ``documents`` with the cosine top-``k_each`` over ``embeddings`` (the
    query vector is the smallest-vec_id embedding; doc_id == vec_id), score
    = Σ 1/(rrf_k + rank) over the lists the doc appears in.

    Ranks are assigned on the 6-dp-ROUNDED scores (ties by id) so the rank
    assignment is bit-deterministic vs the DuckDB oracle — RRF depends only
    on ranks, making the fusion itself float-robust.  Scale shape: each leg
    is the existing partial-top-k pipeline (bm25_simple /
    brute_force_topk); the fusion is a k_each-sized driver merge."""
    import ray

    from ..stages.similarity import brute_force_topk

    # fetch a margin past k_each on the raw-score ranking, then cut at
    # k_each on the ROUNDED ranking — kills raw-vs-rounded membership
    # flips at the list boundary
    bm = bm25_simple(sf_dir, query=query, k=k_each + 32)
    bm = bm.sort_values(["score", "doc_id"], ascending=[False, True])
    bm = bm.head(k_each).reset_index(drop=True)
    bm["bm25_rank"] = np.arange(1, len(bm) + 1, dtype=np.int64)

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    head = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
        .to_pandas().sort_values("vec_id").head(1)
    )
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    ann = brute_force_topk(emb, q, k=k_each + 32).to_pandas()
    ann["cosine"] = ann["cosine"].round(6)
    ann = ann.sort_values(["cosine", "vec_id"], ascending=[False, True])
    ann = ann.head(k_each).reset_index(drop=True)
    ann["ann_rank"] = np.arange(1, len(ann) + 1, dtype=np.int64)

    m = pd.merge(
        bm[["doc_id", "bm25_rank"]],
        ann[["vec_id", "ann_rank"]].rename(columns={"vec_id": "doc_id"}),
        on="doc_id", how="outer",
    )
    bm_term = np.where(
        m["bm25_rank"].notna(), 1.0 / (rrf_k + m["bm25_rank"].fillna(0)), 0.0
    )
    ann_term = np.where(
        m["ann_rank"].notna(), 1.0 / (rrf_k + m["ann_rank"].fillna(0)), 0.0
    )
    m["rrf_score"] = np.round(bm_term + ann_term, 6)
    m["bm25_rank"] = m["bm25_rank"].fillna(-1).astype("int64")
    m["ann_rank"] = m["ann_rank"].fillna(-1).astype("int64")
    m["doc_id"] = m["doc_id"].astype("int64")
    out = m.sort_values(["rrf_score", "doc_id"], ascending=[False, True])
    return out.head(k).reset_index(drop=True)[
        ["doc_id", "rrf_score", "bm25_rank", "ann_rank"]
    ]


def phrase_contains(sf_dir: str, phrase: str = "hash join") -> pd.DataFrame:
    """Docs whose token stream contains the exact adjacent phrase (J2
    adjacency mechanics on the simple token stream)."""
    needle = " " + " ".join(simple_tokens(phrase)) + " "

    def match_batch(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        split = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(texts, "")), pattern="[^a-z0-9]+"
        )
        joined = pc.binary_join_element_wise(
            " ", pc.binary_join(split, " "), " ", ""
        )
        hit = pc.match_substring(joined, needle).to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[hit]
        return pa.table({"doc_id": pa.array(ids, pa.int64())})

    out = _docs(sf_dir).map_batches(match_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def token_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-doc Shannon entropy (bits) of the valid-token distribution — the
    classic gibberish / boilerplate quality signal.  Pure per-doc
    map_batches (the counts are local to the doc): no shuffle, scan-bound
    at 100 TB.  entropy = log2(n) - Σ c·log2(c) / n over term counts c."""
    def ent_batch(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        occ = pa.table(
            {
                "row": pa.array(doc_pos[ok], pa.int64()),
                "term": flat.filter(pa.array(ok)),
            }
        )
        g = occ.group_by(["row", "term"]).aggregate([("term", "count")])
        rows = g["row"].to_numpy(zero_copy_only=False)
        c = g["term_count"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = np.bincount(rows, weights=c, minlength=len(batch))
        s = np.bincount(rows, weights=c * np.log2(c), minlength=len(batch))
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.round(np.log2(n) - s / n, 4)
        ent_arr = pa.array(ent, pa.float64(), mask=(n == 0))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
                "entropy_bits": ent_arr,
            }
        )

    out = _docs(sf_dir).map_batches(ent_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _lev_le1(a: str, b: str) -> bool:
    """Exact levenshtein(a, b) <= 1 (a != b assumed)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a plus one inserted char: advance past the single mismatch
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def term_fuzzy_pairs(sf_dir: str, min_len: int = 4) -> pd.DataFrame:
    """Edit-distance-1 term pairs over the corpus vocabulary via the
    SymSpell deletion-neighborhood join (Garbe's public algorithm): any two
    terms at levenshtein <= 1 share at least one key in
    {term} ∪ {single-char deletions of term}, so candidates come from a
    keyed shuffle (bucket sizes are tiny — a key collides only for
    1-edit-adjacent terms) and each bucket verifies exactly.  This is the
    scale shape of spelling-correction / fuzzy suggestion joins: no all-
    pairs comparison ever happens; the exchange is O(vocab × avg_len)
    keys.  Five planted misspelling docs (doc_id + 3,000,000) make the
    result non-trivial on the synthetic corpus."""
    n_parts_fused = fused_parts(bytes_hint=_os.path.getsize(f"{sf_dir}/documents.parquet"))
    import pyarrow.dataset as pads
    import ray.data

    base = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    head = base.slice(0, 5)
    planted = pa.table(
        {
            "doc_id": pa.compute.add(head["doc_id"], 3_000_000),
            "text": pa.array(
                [
                    t + " " + mis
                    for t, mis in zip(
                        head["text"].to_pylist(),
                        ["tablee", "valu", "batchh", "mergee", "sorta"],
                    )
                ],
                pa.string(),
            ),
        }
    )
    aug = pa.concat_tables([base, planted])

    def explode_terms(batch: pa.Table) -> pa.Table:
        _, flat, _, ok = _exploded(batch, min_len=min_len)
        uniq = pc.unique(flat.filter(pa.array(ok)))
        return pa.table({"term": uniq.take(pc.array_sort_indices(uniq))})

    def deletion_keys(batch: pa.Table) -> pa.Table:
        keys, terms = [], []
        col = (batch["term"].to_pylist()
               if "term" in batch.column_names else [])
        for t in col:
            keys.append(t)
            terms.append(t)
            for i in range(len(t)):
                keys.append(t[:i] + t[i + 1 :])
                terms.append(t)
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "term": pa.array(terms, pa.string()),
            }
        )

    def add_part(batch: pa.Table) -> pa.Table:
        import zlib

        h = np.array(
            [zlib.crc32(k.encode()) for k in batch["key"].to_pylist()],
            dtype=np.int64,
        ) if len(batch) else np.empty(0, np.int64)
        return batch.append_column("part", pa.array(h % n_parts_fused, pa.int64()))

    def bucket_pairs_partition(group: pa.Table) -> pa.Table:
        # one call per coarse key partition: slice deletion-key segments,
        # verify exact levenshtein <= 1 only within each tiny segment
        keys = group["key"].to_numpy(zero_copy_only=False)
        terms = group["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, keys))
        keys, terms = keys[order], terms[order]
        brk = np.concatenate(([True], keys[1:] != keys[:-1]))
        seg_starts = np.concatenate(
            (np.flatnonzero(brk), [keys.size])
        )
        a_o, b_o = [], []
        for s, e in zip(seg_starts[:-1], seg_starts[1:]):
            ts = sorted(set(terms[s:e]))
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    if _lev_le1(ts[i], ts[j]):
                        a_o.append(ts[i])
                        b_o.append(ts[j])
        return pa.table(
            {
                "term_a": pa.array(a_o, pa.string()),
                "term_b": pa.array(b_o, pa.string()),
            }
        )

    from ray.data.aggregate import Count as _CntA

    out = (
        ray.data.from_arrow(aug)
        .map_batches(explode_terms, batch_format="pyarrow")
        .groupby("term")
        .aggregate(_CntA(alias_name="_c"))
        .select_columns(["term"])
        .map_batches(deletion_keys, batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(bucket_pairs_partition, batch_format="pyarrow")
        .groupby(["term_a", "term_b"])
        .aggregate(_CntA(alias_name="_c"))
        .select_columns(["term_a", "term_b"])
        .to_pandas()
    )
    return out.sort_values(["term_a", "term_b"]).reset_index(drop=True)


def _band_pair_counts(sf_dir: str, df_lo: int, df_hi: int):
    """Shared core of term_cooccur / pmi_pairs: df pass -> broadcast the
    SMALL mid-band vocabulary (df in [df_lo, df_hi] — frequency banding
    bounds the pair fan-out: stop-word-like terms would pair with
    everything) -> per-doc pair emission over broadcast-filtered terms ->
    partial pair counts -> pair groupby.  The pair exchange is
    O(docs × band²), never O(vocab²).  Returns (pair-counts Dataset with
    columns term_a/term_b/n_docs, band df DataFrame)."""
    import itertools

    import ray

    ds = _docs(sf_dir).map_batches(
        lambda b: _explode(b, True), batch_format="pyarrow"
    )
    df = ds.groupby("term").aggregate(Count(alias_name="df"))
    band = df.filter(
        expr=f"df >= {df_lo} and df <= {df_hi}"
    ).select_columns(["term", "df"]).to_pandas()
    band_ref = ray.put(frozenset(band["term"].tolist()))

    def pairs(batch: pa.Table) -> pa.Table:
        # tokenize + vocab filter + per-doc distinct fully vectorized; only
        # the pair fan-out loops, over each doc's tiny (<= band) term list
        vocab_arr = pa.array(sorted(ray.get(band_ref)), pa.string())
        doc_pos, flat, _, ok = _exploded(batch)
        hit = ok & pc.is_in(flat, value_set=vocab_arr).to_numpy(
            zero_copy_only=False
        )
        occ = pa.table(
            {
                "row": pa.array(doc_pos[hit], pa.int64()),
                "term": flat.filter(pa.array(hit)),
            }
        ).group_by(["row", "term"]).aggregate([])
        df = occ.to_pandas().sort_values(["row", "term"])
        a_o, b_o = [], []
        for _, terms in df.groupby("row", sort=False)["term"]:
            for a, b in itertools.combinations(terms.tolist(), 2):
                a_o.append(a)
                b_o.append(b)
        return pa.table(
            {
                "term_a": pa.array(a_o, pa.string()),
                "term_b": pa.array(b_o, pa.string()),
            }
        )

    def partial_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["term_a", "term_b"]).aggregate(
            [("term_a", "count")]
        )
        # rename by generated name, not position (pyarrow ordering varies
        # across versions)
        return g.rename_columns(
            [{"term_a_count": "n"}.get(c, c) for c in g.column_names]
        )

    counts = (
        _docs(sf_dir)
        .map_batches(pairs, batch_format="pyarrow")
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby(["term_a", "term_b"])
        .aggregate(Sum("n", alias_name="n_docs"))
    )
    return counts, band


def term_cooccur(
    sf_dir: str, df_lo: int = 10, df_hi: int = 400, k: int = 20
) -> pd.DataFrame:
    """Top-k co-occurring mid-frequency term pairs (number of docs
    containing both); see _band_pair_counts for the distributed shape."""
    counts, _ = _band_pair_counts(sf_dir, df_lo, df_hi)
    out = (
        counts.sort(
            ["n_docs", "term_a", "term_b"], descending=[True, False, False]
        )
        .limit(k)
        .to_pandas()
    )
    if out.empty:
        # a band with < 2 terms (corpus-size dependent) emits no pairs and
        # the empty Dataset loses its schema — return the typed empty frame
        return pd.DataFrame(
            {
                "term_a": pd.Series([], dtype=object),
                "term_b": pd.Series([], dtype=object),
                "n_docs": pd.Series([], dtype="int64"),
            }
        )
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.reset_index(drop=True)


def pmi_pairs(sf_dir: str, df_lo: int = 10, df_hi: int = 400, k: int = 20,
              min_pair: int = 5) -> pd.DataFrame:
    """Pointwise mutual information over mid-band co-occurring term pairs
    (Church & Hanks 1990): pmi = ln(N·c(a,b) / (df_a·df_b)) for pairs with
    c(a,b) >= ``min_pair`` (the support floor that keeps PMI's
    low-frequency bias out of the top-k).  Same distributed shape as
    term_cooccur (_band_pair_counts); the PMI arithmetic runs per block
    over the pair-counts Dataset against the broadcast band-df map — all
    inputs integer, one division + one ln, so the oracle is bit-parity."""
    import ray

    counts, band = _band_pair_counts(sf_dir, df_lo, df_hi)
    n = int(_docs(sf_dir).count())
    df_map_ref = ray.put(dict(zip(band["term"], band["df"].astype(int))))

    empty = pd.DataFrame({
        "term_a": pd.Series([], dtype=object),
        "term_b": pd.Series([], dtype=object),
        "n_docs": pd.Series([], dtype="int64"),
        "pmi": pd.Series([], dtype="float64"),
    })

    def pmi_topk(batch: pa.Table) -> pa.Table:
        dfm = ray.get(df_map_ref)
        t = batch.to_pandas()
        t = t[t["n_docs"] >= min_pair]
        if t.empty:
            return pa.Table.from_pandas(empty, preserve_index=False)
        da = t["term_a"].map(dfm).to_numpy(np.int64)
        db = t["term_b"].map(dfm).to_numpy(np.int64)
        c = t["n_docs"].to_numpy(np.int64)
        pmi = np.log((n * c).astype(np.float64) / (da * db).astype(np.float64))
        t = t.assign(pmi=np.round(pmi, 6))
        t["n_docs"] = t["n_docs"].astype("int64")
        t = t.sort_values(["pmi", "term_a", "term_b"],
                          ascending=[False, True, True]).head(k)
        return pa.Table.from_pandas(t[["term_a", "term_b", "n_docs", "pmi"]],
                                    preserve_index=False)

    out = counts.map_batches(pmi_topk, batch_format="pyarrow").to_pandas()
    if out.empty:
        return empty
    out = out.sort_values(["pmi", "term_a", "term_b"],
                          ascending=[False, True, True]).head(k)
    return out.reset_index(drop=True)


def textrank_keywords(sf_dir: str, df_lo: int = 10, df_hi: int = 400,
                      n_iter: int = 5, k: int = 20) -> pd.DataFrame:
    """TextRank keyword extraction (Mihalcea & Tarau 2004): PageRank over
    the word co-occurrence graph — nodes are the mid-band vocabulary
    (same df banding as term_cooccur/pmi_pairs, which bounds the graph),
    edges are STRICT raw-stream adjacencies whose both endpoints are
    valid band terms, undirected (both directions materialized, deduped).
    The ranking itself REUSES pipelines/pagerank.pagerank_power_int —
    band terms map to dense ids by sorted rank, the fixed-iteration
    recurrence is the one the pagerank_power oracle already unrolls, and
    the oracle here unrolls the identical chain with the term strings as
    node keys (no id mapping needed in SQL).  Top-k by (rounded rank
    desc, term)."""
    import ray

    from .pagerank import pagerank_power_int

    ds = _docs(sf_dir).map_batches(
        lambda b: _explode(b, True), batch_format="pyarrow"
    )
    df = ds.groupby("term").aggregate(Count(alias_name="df"))
    band = df.filter(
        expr=f"df >= {df_lo} and df <= {df_hi}"
    ).select_columns(["term"]).to_pandas()
    vocab = np.array(sorted(band["term"].tolist()), dtype=object)
    n_v = len(vocab)
    empty = pd.DataFrame({"term": pd.Series([], dtype=object),
                          "rank": pd.Series([], dtype="float64")})
    if n_v == 0:
        return empty
    vocab_ref = ray.put(vocab)

    def adj(batch: pa.Table) -> pa.Table:
        v = ray.get(vocab_ref)
        doc_pos, flat, _, ok = _exploded(batch)
        f = flat.to_numpy(zero_copy_only=False)
        if len(f) < 2:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64())})
        both = ok[1:] & ok[:-1] & (doc_pos[1:] == doc_pos[:-1])
        a, b = f[:-1][both], f[1:][both]
        ia = np.searchsorted(v, a)
        ib = np.searchsorted(v, b)
        ia[ia == n_v] = 0
        ib[ib == n_v] = 0
        hit = (v[ia] == a) & (v[ib] == b) & (ia != ib)
        return pa.table({"src": pa.array(ia[hit].astype(np.int64)),
                         "dst": pa.array(ib[hit].astype(np.int64))})

    def both_dirs(batch: pa.Table) -> pa.Table:
        # a groupby at scale can emit a zero-row block with an EMPTY
        # schema (the BENCH_r04 crash class) — emit the typed empty
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64())})
        s = batch["src"].to_numpy(zero_copy_only=False)
        d = batch["dst"].to_numpy(zero_copy_only=False)
        return pa.table({
            "src": pa.array(np.concatenate([s, d]), pa.int64()),
            "dst": pa.array(np.concatenate([d, s]), pa.int64()),
        })

    edges = (
        _docs(sf_dir)
        .map_batches(adj, batch_format="pyarrow")
        .groupby(["src", "dst"]).count()
        .map_batches(both_dirs, batch_format="pyarrow")
        .groupby(["src", "dst"]).count()
        .select_columns(["src", "dst"])
    )
    ranks = pagerank_power_int(edges, n_v, damping=0.85,
                               n_iter=n_iter).to_pandas()
    out = pd.DataFrame({"term": vocab[ranks["node"].to_numpy(np.int64)],
                        "rank": np.round(ranks["rank"].to_numpy(), 9)})
    out = out.sort_values(["rank", "term"],
                          ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def data_card(sf_dir: str) -> pd.DataFrame:
    """Dataset-card statistics: per (lang, source) doc counts, token
    totals and mean doc length — the summary table a training-data release
    ships with.  Per-batch partials (token counting local to the doc)
    collapse to <= langs × sources × blocks rows before one tiny root
    combine; the corpus never shuffles."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["lang", "source", "text", "n_chars"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        doc_pos, _, _, ok = _exploded(batch)
        toks = np.bincount(doc_pos[ok], minlength=len(batch)).astype(np.int64)
        t = pa.table(
            {
                "lang": batch["lang"],
                "source": batch["source"],
                "n_tokens": pa.array(toks, pa.int64()),
                "n_chars": batch["n_chars"],
            }
        )
        g = t.group_by(["lang", "source"]).aggregate(
            [("n_tokens", "count"), ("n_tokens", "sum"), ("n_chars", "sum")]
        )
        return g.rename_columns(
            [
                {
                    "n_tokens_count": "n_docs",
                    "n_tokens_sum": "sum_tokens",
                    "n_chars_sum": "sum_chars",
                }.get(c, c)
                for c in g.column_names
            ]
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()       # bounded root combine
        .groupby(["lang", "source"], as_index=False)
        .agg(
            n_docs=("n_docs", "sum"),
            sum_tokens=("sum_tokens", "sum"),
            sum_chars=("sum_chars", "sum"),
        )
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_tokens"] = out["sum_tokens"].astype("int64")
    out["avg_chars"] = (out["sum_chars"] / out["n_docs"]).round(4)
    out = out.drop(columns=["sum_chars"])
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


def ltr_linear(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Pointwise linear learning-to-rank via distributed least squares —
    the closed-form normal-equations cousin of the SGD quality classifier
    (`stages/classifier.py`): fit y ~ w0 + w1*dl + w2*tf_data over every
    document and rank by the fitted score.

    Features and label are deliberately INTEGER (dl = valid-token count,
    tf = occurrences of 'data', y = #distinct present terms of
    {hash, join, data}) so the X^T X / X^T y partial sums are exact in
    both engines: each batch reduces to ONE row of int64 sums, the
    driver combines them in arbitrary-precision Python ints and solves
    the 3x3 system by Cramer's rule — weights are then bit-identical to
    the SQL oracle's HUGEINT-arithmetic solve (the only floats are the
    final det_i/det divisions, identical single IEEE ops).  Scoring +
    per-block partial top-k run against the broadcast weights; the
    driver sees 10-int partials and the k-row result."""
    import numpy as np
    import ray

    label_terms = ["data", "hash", "join"]
    tf_term = "data"

    def feats(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        dl = np.bincount(doc_pos[ok], minlength=len(batch))
        hit = ok & pc.equal(flat, tf_term).to_numpy(zero_copy_only=False)
        tf = np.bincount(doc_pos[hit], minlength=len(batch))
        y = np.zeros(len(batch), dtype=np.int64)
        for t in label_terms:
            h = ok & pc.equal(flat, t).to_numpy(zero_copy_only=False)
            y += np.bincount(doc_pos[h], minlength=len(batch)) > 0
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "dl": pa.array(dl, pa.int64()),
                "tf": pa.array(tf, pa.int64()),
                "y": pa.array(y, pa.int64()),
            }
        )

    stats = _docs(sf_dir).map_batches(feats, batch_format="pyarrow").materialize()

    def sums(batch: pa.Table) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = {
            "n": len(dl), "s1": dl.sum(), "s2": tf.sum(),
            "s11": (dl * dl).sum(), "s12": (dl * tf).sum(),
            "s22": (tf * tf).sum(), "sy": y.sum(),
            "s1y": (dl * y).sum(), "s2y": (tf * y).sum(),
        }
        return pa.table({c: pa.array([int(v)], pa.int64())
                         for c, v in vals.items()})

    ps = stats.map_batches(sums, batch_format="pyarrow").to_pandas()
    n, s1, s2, s11, s12, s22, sy, s1y, s2y = (
        int(ps[c].sum()) for c in
        ["n", "s1", "s2", "s11", "s12", "s22", "sy", "s1y", "s2y"]
    )
    # Cramer's rule on A = [[n,s1,s2],[s1,s11,s12],[s2,s12,s22]], b=[sy,s1y,s2y]
    det = (n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
           + s2 * (s1 * s12 - s11 * s2))
    det0 = (sy * (s11 * s22 - s12 * s12) - s1 * (s1y * s22 - s12 * s2y)
            + s2 * (s1y * s12 - s11 * s2y))
    det1 = (n * (s1y * s22 - s12 * s2y) - sy * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s2y - s1y * s2))
    det2 = (n * (s11 * s2y - s1y * s12) - s1 * (s1 * s2y - s1y * s2)
            + sy * (s1 * s12 - s11 * s2))
    w0 = float(det0) / float(det)
    w1 = float(det1) / float(det)
    w2 = float(det2) / float(det)
    w_ref = ray.put((w0, w1, w2))

    def score_topk(batch: pa.Table) -> pa.Table:
        a0, a1, a2 = ray.get(w_ref)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        yhat = np.round(a0 + a1 * dl + a2 * tf, 6)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, -yhat))[: min(k, ids.size)]
        return pa.table(
            {"doc_id": pa.array(ids[order], pa.int64()),
             "yhat": pa.array(yhat[order], pa.float64())}
        )

    out = stats.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["yhat", "doc_id"], ascending=[False, True]).head(k)
    out["w0"] = round(w0, 6)
    out["w1"] = round(w1, 6)
    out["w2"] = round(w2, 6)
    return out.reset_index(drop=True)


def phrase_suggest(sf_dir: str, phrase: str = "tble hach", k: int = 5,
                   max_distance: int = 1) -> pd.DataFrame:
    """Phrase suggester ("did you mean" over BIGRAMS — the phrase-level
    sibling of the index-backed single-term spell_correct): for a 2-word
    query, candidate corrections are dictionary terms within
    ``max_distance`` edits of each word, and candidate PAIRS are ranked
    by corpus bigram frequency (count desc, summed edit distance asc,
    pair asc) — frequency is what disambiguates which correction the
    corpus supports (Manning/Raghavan/Schütze IR ch.3 context-sensitive
    correction).

    Two passes, both with tiny exchanges: (1) the term dictionary streams
    through a per-batch vectorized Wagner-Fischer scan (byte-level,
    = DuckDB levenshtein) emitting per-word candidates; (2) the corpus
    emits only the bigrams whose BOTH sides are broadcast candidates, so
    the pair groupby is candidate²-bounded, never vocab²."""
    import ray

    from .query import _levenshtein_vec

    words = [t for t in simple_tokens(phrase) if len(t) >= 2]
    if len(words) != 2:
        raise ValueError("phrase_suggest expects a 2-word phrase")

    empty = pd.DataFrame({
        "w1": pd.Series([], dtype=object), "w2": pd.Series([], dtype=object),
        "n": pd.Series([], dtype="int64"), "dist": pd.Series([], dtype="int64"),
    })

    dict_ds = (
        _docs(sf_dir)
        .map_batches(lambda b: _explode(b, True), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Count(alias_name="df"))
    )

    def cand_batch(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        tbytes = [t.encode("utf-8") for t in terms]
        lens = np.array([len(b) for b in tbytes], dtype=np.int64)
        out_w, out_t, out_d = [], [], []
        for wi, w in enumerate(words):
            wb = w.encode("utf-8")
            sel = np.flatnonzero(np.abs(lens - len(wb)) <= max_distance)
            if sel.size == 0:
                continue
            L = int(lens[sel].max())
            mat = np.zeros((sel.size, L), dtype=np.uint8)
            for r, si in enumerate(sel):
                bs = tbytes[si]
                mat[r, : len(bs)] = np.frombuffer(bs, np.uint8)
            dist = _levenshtein_vec(wb, mat, lens[sel])
            okd = dist <= max_distance
            for r in np.flatnonzero(okd):
                out_w.append(wi)
                out_t.append(terms[sel[r]])
                out_d.append(int(dist[r]))
        return pa.table({
            "wi": pa.array(out_w, pa.int64()),
            "term": pa.array(out_t, pa.string()),
            "dist": pa.array(out_d, pa.int64()),
        })

    cands = dict_ds.map_batches(
        cand_batch, batch_format="pyarrow"
    ).to_pandas()
    c1 = dict(zip(cands.loc[cands["wi"] == 0, "term"],
                  cands.loc[cands["wi"] == 0, "dist"].astype(int)))
    c2 = dict(zip(cands.loc[cands["wi"] == 1, "term"],
                  cands.loc[cands["wi"] == 1, "dist"].astype(int)))
    if not c1 or not c2:
        return empty
    sets_ref = ray.put((pa.array(sorted(c1), pa.string()),
                        pa.array(sorted(c2), pa.string())))

    def big_partial(batch: pa.Table) -> pa.Table:
        s1, s2 = ray.get(sets_ref)
        doc_pos, flat, _, ok = _exploded(batch)
        f_idx = np.flatnonzero(ok)
        if f_idx.size < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string())})
        d = doc_pos[f_idx]
        w = flat.take(pa.array(f_idx))
        a, b = w.slice(0, len(w) - 1), w.slice(1)
        keep = (
            pc.and_(pc.is_in(a, value_set=s1), pc.is_in(b, value_set=s2))
            .to_numpy(zero_copy_only=False)
            & (d[1:] == d[:-1])
        )
        m = pa.array(keep)
        return pa.table({"w1": a.filter(m), "w2": b.filter(m)})

    counts = (
        _docs(sf_dir)
        .map_batches(big_partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .count()
        .to_pandas()
    )
    if counts.empty:
        return empty
    counts = counts.rename(columns={"count()": "n"})
    counts["n"] = counts["n"].astype("int64")
    counts["dist"] = (counts["w1"].map(c1) + counts["w2"].map(c2)).astype("int64")
    out = counts.sort_values(["n", "dist", "w1", "w2"],
                             ascending=[False, True, True, True]).head(k)
    return out[["w1", "w2", "n", "dist"]].reset_index(drop=True)


def lm_jelinek_mercer(sf_dir: str, query: str = "hash join table",
                      k: int = 10, lam: float = 0.3) -> pd.DataFrame:
    """Query-likelihood ranking with Jelinek-Mercer smoothing — the
    linear-interpolation sibling of ``lm_dirichlet`` (Zhai & Lafferty's
    smoothing comparison):

        score(q, d) = sum_t qtf_t * ln( (1-λ)·tf_td/dl_d + λ·p(t|C) )

    restricted to docs matching at least one in-collection query term;
    zero-ctf terms drop (same rule as Dirichlet).  Identical distributed
    shape: one partials pass, bounded collection-stat reduce, broadcast
    stats + per-block partial top-k."""
    import numpy as np
    import ray

    terms = [t for t in simple_tokens(query) if len(t) >= 2]
    qtf = pd.Series(terms).value_counts()
    uterms = sorted(qtf.index)
    qtf_vec = np.array([float(qtf[t]) for t in uterms])

    def partials(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        dl = np.bincount(doc_pos[ok], minlength=len(batch))
        out = {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "dl": pa.array(dl, pa.int64()),
        }
        for i, t in enumerate(uterms):
            hit = ok & pc.equal(flat, t).to_numpy(zero_copy_only=False)
            out[f"tf{i}"] = pa.array(
                np.bincount(doc_pos[hit], minlength=len(batch)), pa.int64()
            )
        return pa.table(out)

    stats_mat = _docs(sf_dir).map_batches(
        partials, batch_format="pyarrow"
    ).materialize()

    def ctf_partial(batch: pa.Table) -> pa.Table:
        out = {"total": pa.array(
            [int(batch["dl"].to_numpy(zero_copy_only=False).sum())], pa.int64()
        )}
        for i in range(len(uterms)):
            out[f"ctf{i}"] = pa.array(
                [int(batch[f"tf{i}"].to_numpy(zero_copy_only=False).sum())],
                pa.int64(),
            )
        return pa.table(out)

    cs = stats_mat.map_batches(ctf_partial, batch_format="pyarrow").to_pandas()
    total = int(cs["total"].sum())
    ctf = np.array([int(cs[f"ctf{i}"].sum()) for i in range(len(uterms))])
    keep = np.flatnonzero(ctf > 0)
    p_c = ctf[keep].astype(np.float64) / max(1, total)
    qtf_keep = qtf_vec[keep]
    stats_ref = ray.put((keep, p_c, qtf_keep))

    def score_topk(batch: pa.Table) -> pa.Table:
        keep_idx, pc_vec, qw = ray.get(stats_ref)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.zeros(len(dl))
        any_hit = np.zeros(len(dl), dtype=bool)
        for j, i in enumerate(keep_idx):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False).astype(np.float64)
            any_hit |= tf > 0
            # max(dl, 1) only guards the 0/0 of empty docs, which any_hit
            # drops anyway (a hit doc has dl >= 1)
            score += qw[j] * np.log(
                (1.0 - lam) * (tf / np.maximum(dl, 1.0)) + lam * pc_vec[j]
            )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids, score = ids[any_hit], score[any_hit]
        kk = min(k, score.size)
        if kk == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.float64())}
            )
        order = np.lexsort((ids, -score))[:kk]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "score": pa.array(score[order], pa.float64()),
            }
        )

    out = stats_mat.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
    out["score"] = out["score"].round(6)
    return out.reset_index(drop=True)


def type_token_ratio(sf_dir: str) -> pd.DataFrame:
    """Lexical-diversity profile per source: distinct terms (types),
    total valid tokens, and the type-token ratio — the corpus statistic
    a data card reports next to volume (a collapsing TTR flags template
    or boilerplate sources).  Shape: per-batch (source, term) dedupe +
    per-batch token-count partials; one pair groupby bounds the distinct
    count exactly (the grouped_distinct two-level shape on text); token
    totals ride a separate source-sized combine — the corpus never
    shuffles raw tokens."""
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        srcs = src.take(pa.array(doc_pos[ok]))
        return pa.table({
            "source": srcs, "term": flat.filter(pa.array(ok)),
        }).group_by(["source", "term"]).aggregate([])

    types = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["source", "term"])
        .count()
        .select_columns(["source", "term"])
        .groupby("source")
        .aggregate(Count(alias_name="n_types"))
        .to_pandas()
    )

    def tok_partial(batch: pa.Table) -> pa.Table:
        doc_pos, _, _, ok = _exploded(batch)
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = pa.table({
            "source": src,
            "n": pa.array(
                np.bincount(doc_pos[ok], minlength=len(batch)), pa.int64()
            ),
        }).group_by(["source"]).aggregate([("n", "sum")])
        return g.rename_columns(
            [{"n_sum": "n_tokens"}.get(c, c) for c in g.column_names]
        )

    toks = (
        ds.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_tokens", alias_name="n_tokens"))
        .to_pandas()
    )
    out = types.merge(toks, on="source")
    out["n_types"] = out["n_types"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["ttr"] = (out["n_types"] / out["n_tokens"]).round(6)
    return out.sort_values("source").reset_index(drop=True)


def hapax_rate(sf_dir: str) -> pd.DataFrame:
    """Hapax-legomena rate per source: the share of a source's distinct
    vocabulary that occurs exactly once there — the boilerplate/
    template-detection complement of type_token_ratio (templated
    sources have almost no hapaxes).  Per-batch (source, term) count
    partials -> one pair groupby (each pair lands exactly once) ->
    second-level per-batch (n_types, n_hapax) partials -> a
    sources-sized combine.  The rate is FLOOR(10⁶·hapax/types) integer
    ppm (cross-engine exact; see link_pred_jaccard for the half-
    rounding divergence this avoids)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        srcs = src.take(pa.array(doc_pos[ok]))
        g = pa.table({
            "source": srcs, "term": flat.filter(pa.array(ok)),
        }).group_by(["source", "term"]).aggregate([("term", "count")])
        return g.rename_columns(
            [{"term_count": "n"}.get(c, c) for c in g.column_names]
        )

    pair_counts = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["source", "term"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def hapax_partial(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({
            "source": batch["source"],
            "n_types": pa.array(np.ones(n.size, np.int64), pa.int64()),
            "n_hapax": pa.array((n == 1).astype(np.int64), pa.int64()),
        })
        g = t.group_by(["source"]).aggregate(
            [("n_types", "sum"), ("n_hapax", "sum")]
        )
        return g.rename_columns(
            [{"n_types_sum": "n_types", "n_hapax_sum": "n_hapax"}.get(c, c)
             for c in g.column_names]
        )

    out = (
        pair_counts.map_batches(hapax_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_types", alias_name="n_types"),
                   Sum("n_hapax", alias_name="n_hapax"))
        .to_pandas()
    )
    for c in ["n_types", "n_hapax"]:
        out[c] = out[c].astype("int64")
    out["hapax_ppm"] = (1_000_000 * out["n_hapax"]) // out["n_types"]
    return out.sort_values("source").reset_index(drop=True)


def doc_keywords(sf_dir: str, n_docs: int = 20, k: int = 3) -> pd.DataFrame:
    """Per-document keyword extraction: top-``k`` terms of each of the
    first ``n_docs`` documents by tf·idf with a LINEAR integer idf —
    score = tf · FLOOR(10⁶·N/df) — so Ray and SQL agree bit-for-bit
    with no libm log parity (same monotone term ranking per df as
    ln(N/df) would give within a document when tf ties break by term).
    Shape: tf partials over the target docs only (scan-side filter);
    df over the FULL corpus but semi-filtered to the target docs'
    vocabulary via a broadcast term set, so the df groupby ships only
    the needed terms; the driver joins two small tables."""
    import ray

    docs = _docs(sf_dir)
    n_total = int(docs.count())

    def tf_partial(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch["doc_id"], n_docs)
        b = batch.filter(keep)
        if b.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        doc_pos, flat, _, ok = _exploded(b)
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)[doc_pos[ok]]
        g = pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "term": flat.filter(pa.array(ok)),
        }).group_by(["doc_id", "term"]).aggregate([("term", "count")])
        return g.rename_columns(
            [{"term_count": "tf"}.get(c, c) for c in g.column_names]
        )

    tf = (
        docs.map_batches(tf_partial, batch_format="pyarrow")
        .groupby(["doc_id", "term"])
        .aggregate(Sum("tf", alias_name="tf"))
        .to_pandas()
    )
    vocab = np.sort(np.unique(tf["term"].to_numpy()))
    vref = ray.put(vocab)

    def df_partial(batch: pa.Table) -> pa.Table:
        voc = ray.get(vref)
        doc_pos, flat, _, ok = _exploded(batch)
        terms = flat.filter(pa.array(ok))
        tarr = terms.to_numpy(zero_copy_only=False)
        idx = np.searchsorted(voc, tarr)
        idx[idx == voc.size] = 0
        hit = voc[idx] == tarr
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_pos[ok]]
        g = pa.table({
            "doc_id": pa.array(doc_ids[hit], pa.int64()),
            "term": pa.array(tarr[hit]),
        }).group_by(["doc_id", "term"]).aggregate([])
        return g.select(["doc_id", "term"])

    df_tbl = (
        docs.map_batches(df_partial, batch_format="pyarrow")
        .groupby(["doc_id", "term"])
        .count()
        .select_columns(["term"])
        .groupby("term")
        .aggregate(Count(alias_name="df"))
        .to_pandas()
    )
    out = tf.merge(df_tbl, on="term")
    for c in ["tf", "df"]:
        out[c] = out[c].astype("int64")
    out["score"] = out["tf"] * ((n_total * 1_000_000) // out["df"])
    out = out.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True])
    out = out.groupby("doc_id", sort=True).head(k)
    return out[["doc_id", "term", "tf", "df", "score"]].reset_index(drop=True)


def kwic_concordance(sf_dir: str, term: str = "batch",
                     width: int = 2) -> pd.DataFrame:
    """KeyWord-In-Context concordance: every occurrence of ``term`` in
    the simple-tokenized stream with up to ``width`` tokens of context
    each side (clipped at document boundaries).  One map_batches pass:
    the explode/position arithmetic is vectorized; context strings are
    assembled only for the HIT rows (output-sized, not corpus-sized).
    Output: (doc_id, pos, left_ctx, right_ctx) sorted by (doc_id, pos),
    pos 0-based over the non-empty token stream."""

    def kwic(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch, min_len=1)
        doc_pos = doc_pos[ok]
        flat = flat.filter(pa.array(ok))
        n = len(flat)
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "left_ctx": pa.array([], pa.string()),
                "right_ctx": pa.array([], pa.string()),
            })
        # 0-based position within each doc's kept-token stream
        counts = np.bincount(doc_pos, minlength=int(doc_pos.max()) + 1)
        nz = counts[counts > 0]
        first = np.repeat(
            np.concatenate([[0], np.cumsum(nz)[:-1]]), nz)
        pos = np.arange(n, dtype=np.int64) - first
        hits = np.flatnonzero(
            pc.equal(flat, term).to_numpy(zero_copy_only=False))
        toks = flat.to_numpy(zero_copy_only=False)  # object array
        left, right = [], []
        for j in hits:
            lo = j - width
            l_parts = [toks[i] for i in range(max(lo, 0), j)
                       if doc_pos[i] == doc_pos[j]]
            r_parts = [toks[i] for i in range(j + 1, min(j + width + 1, n))
                       if doc_pos[i] == doc_pos[j]]
            left.append(" ".join(l_parts))
            right.append(" ".join(r_parts))
        doc_ids = batch["doc_id"].to_numpy(
            zero_copy_only=False)[doc_pos[hits]]
        return pa.table({
            "doc_id": pa.array(doc_ids.astype(np.int64), pa.int64()),
            "pos": pa.array(pos[hits], pa.int64()),
            "left_ctx": pa.array(left, pa.string()),
            "right_ctx": pa.array(right, pa.string()),
        })

    out = _docs(sf_dir).map_batches(kwic, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "pos"]).reset_index(drop=True)


def session_paths(sf_dir: str, gap_minutes: int = 30, path_len: int = 3,
                  k: int = 20) -> pd.DataFrame:
    """Top-k session OPENING PATHS: per (user, session) the first up-to-3
    event types joined with '>', counted across all sessions.  Session
    assignment is identical to q_sessionize (gap > 30 min splits); the
    path gather and the count fold both stay inside the fused user
    partitions — only (path, count) partials shuffle."""
    from .relational import _fused_parts

    n_parts = _fused_parts(sf_dir, "events")
    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    def paths_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        brk = np.ones(len(ts), dtype=bool)
        if len(ts) > 1:
            brk[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, len(ts)))
        path = et[starts].astype(object)
        for step in range(1, path_len):
            has = lens > step
            path[has] = path[has] + ">" + et[starts[has] + step]
        ps, inv = np.unique(path.astype(str), return_inverse=True)
        return pa.table({
            "path": pa.array(ps, pa.string()),
            "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
        })

    def part_key(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "part", pa.array(u % n_parts, pa.int64()))

    out = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_id", "ts", "event_type"])
        .map_batches(part_key, batch_format="pyarrow")
        .groupby("part")
        .map_groups(paths_partition, batch_format="pyarrow")
        .to_pandas()
        .groupby("path", as_index=False)
        .agg(n=("n", "sum"))
    )
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["n", "path"], ascending=[False, True])
            .head(k).reset_index(drop=True))


def dfr_pl2(sf_dir: str, query: str = "merge join column scan",
            k: int = 10, c: float = 1.0) -> pd.DataFrame:
    """Divergence-from-randomness ranking, PL2 model (Amati & van
    Rijsbergen, TOIS 2002) — Poisson randomness, Laplace first
    normalization, c-scaled document-length normalization 2:

        tfn    = tf · log2(1 + c·avdl/dl)
        λ_t    = ctf_t / N
        score += qtf · (tfn·log2(tfn/λ) + (λ−tfn)·log2(e)
                        + 0.5·log2(2π·tfn)) / (tfn + 1)

    summed over query terms with tf > 0 (λ = 0 terms dropped, the
    lm_dirichlet rule).  Same distributed shape as lm_dirichlet: one
    vectorized stats pass, bounded collection-stat partials, broadcast
    stats + per-block partial top-k.  log2 is computed as ln(x)/ln(2)
    in BOTH engines so the oracle's arithmetic matches op for op."""
    import numpy as np
    import ray

    terms = [t for t in simple_tokens(query) if len(t) >= 2]
    qtf = pd.Series(terms).value_counts()
    uterms = sorted(qtf.index)
    qtf_vec = np.array([float(qtf[t]) for t in uterms])

    def partials(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        dl = np.bincount(doc_pos[ok], minlength=len(batch))
        out = {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "dl": pa.array(dl, pa.int64()),
        }
        for i, t in enumerate(uterms):
            hit = ok & pc.equal(flat, t).to_numpy(zero_copy_only=False)
            out[f"tf{i}"] = pa.array(
                np.bincount(doc_pos[hit], minlength=len(batch)), pa.int64()
            )
        return pa.table(out)

    stats_mat = _docs(sf_dir).map_batches(
        partials, batch_format="pyarrow").materialize()

    def coll_partial(batch: pa.Table) -> pa.Table:
        out = {
            "total": pa.array(
                [int(batch["dl"].to_numpy(zero_copy_only=False).sum())],
                pa.int64()),
            "n_docs": pa.array([batch.num_rows], pa.int64()),
        }
        for i in range(len(uterms)):
            out[f"ctf{i}"] = pa.array(
                [int(batch[f"tf{i}"].to_numpy(zero_copy_only=False).sum())],
                pa.int64())
        return pa.table(out)

    cs = stats_mat.map_batches(
        coll_partial, batch_format="pyarrow").to_pandas()
    total = int(cs["total"].sum())
    n_docs = int(cs["n_docs"].sum())
    ctf = np.array([int(cs[f"ctf{i}"].sum()) for i in range(len(uterms))])
    keep = np.flatnonzero(ctf > 0)
    lam = ctf[keep].astype(np.float64) / n_docs
    avdl = total / n_docs
    stats_ref = ray.put((keep, lam, qtf_vec[keep], avdl))

    def score_topk(batch: pa.Table) -> pa.Table:
        keep_idx, lam_vec, qw, avdl_ = ray.get(stats_ref)
        ln2 = np.log(2.0)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.zeros(len(dl))
        any_hit = np.zeros(len(dl), dtype=bool)
        for j, i in enumerate(keep_idx):
            tf = batch[f"tf{i}"].to_numpy(
                zero_copy_only=False).astype(np.float64)
            m = tf > 0
            any_hit |= m
            tfn = tf[m] * np.log(1.0 + c * avdl_ / dl[m]) / ln2
            contrib = (qw[j] / (tfn + 1.0)) * (
                tfn * np.log(tfn / lam_vec[j]) / ln2
                + (lam_vec[j] - tfn) / ln2
                + 0.5 * np.log(2 * np.pi * tfn) / ln2)
            score[m] += contrib
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids, score = ids[any_hit], score[any_hit]
        kk = min(k, score.size)
        if kk == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.float64())})
        order = np.lexsort((ids, -score))[:kk]
        return pa.table(
            {"doc_id": pa.array(ids[order], pa.int64()),
             "score": pa.array(score[order], pa.float64())})

    out = stats_mat.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
    out["score"] = out["score"].round(6)
    return out.reset_index(drop=True)


def mlm_masking(sf_dir: str, every: int = 7, phase: int = 3) -> pd.DataFrame:
    """Deterministic BERT-style masked-LM data prep: over the non-empty
    simple-token stream, every token whose 1-based in-doc position ≡
    ``phase`` (mod ``every``) is replaced with ``[MASK]``; the masked
    originals become the label sequence.  Positional masking (not RNG)
    keeps the op bit-reproducible and SQL-checkable — swap the mask
    predicate for a seeded hash at training time.  The rebuild is fully
    vectorized: flat replace + offset ListArray + one binary_join per
    doc column, no Python token loop."""

    def mask(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch, min_len=1)
        doc_pos = doc_pos[ok]
        flat = flat.filter(pa.array(ok))
        n = len(flat)
        lens = np.bincount(doc_pos, minlength=len(batch)).astype(np.int64)
        first = np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]), lens)
        pos = np.arange(n, dtype=np.int64) - first + 1  # 1-based in doc
        hit = (pos % every) == phase

        masked = pc.if_else(pa.array(hit), pa.scalar("[MASK]"), flat)
        offsets = pa.array(
            np.concatenate([[0], np.cumsum(lens)]).astype(np.int32))
        masked_list = pa.ListArray.from_arrays(offsets, masked)
        masked_text = pc.binary_join(masked_list, " ")

        lab_flat = flat.filter(pa.array(hit))
        lab_lens = np.bincount(doc_pos[hit], minlength=len(batch))
        lab_offsets = pa.array(
            np.concatenate([[0], np.cumsum(lab_lens)]).astype(np.int32))
        labels = pc.binary_join(
            pa.ListArray.from_arrays(lab_offsets, lab_flat), " ")

        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "masked_text": masked_text,
            "labels": labels,
            "n_masked": pa.array(lab_lens.astype(np.int64), pa.int64()),
        })

    out = _docs(sf_dir).map_batches(mask, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def anchor_text_agg(sf_dir: str, max_dst: int = 10, top: int = 3,
                    anchor_len: int = 2) -> pd.DataFrame:
    """Anchor-text aggregation — the web-search index signal the
    reference's link graph implies: for each link target, the most
    common anchor phrases pointing at it (anchor of a link = the source
    document's first ``anchor_len`` tokens; links follow the synthetic
    quadratic rule used by the graph-ops family).  The key scale trick:
    an edge's anchor comes from its OWN source row, so each batch emits
    (dst, anchor) pairs with zero joins; one (dst, anchor) groupby
    counts, and only the ≤ max_dst targets' counts reach the driver for
    the top-k cut.  Parallel edges (two k-values hitting the same dst)
    count twice — declared, matching the oracle's no-DISTINCT join."""
    from .pagerank import link_targets

    docs = _docs(sf_dir)
    n = int(docs.count())

    def pairs(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch, min_len=1)
        doc_pos = doc_pos[ok]
        flat = flat.filter(pa.array(ok))
        lens = np.bincount(doc_pos, minlength=len(batch)).astype(np.int64)
        first = np.concatenate([[0], np.cumsum(lens)[:-1]])
        take = np.minimum(lens, anchor_len)
        offsets = pa.array(
            np.concatenate([[0], np.cumsum(take)]).astype(np.int32))
        idx = (np.repeat(first, take)
               + (np.arange(int(take.sum()), dtype=np.int64)
                  - np.repeat(np.concatenate([[0], np.cumsum(take)[:-1]]),
                              take)))
        anchor = pc.fill_null(pc.binary_join(
            pa.ListArray.from_arrays(offsets, flat.take(pa.array(idx))),
            " "), "").to_numpy(zero_copy_only=False)
        src, dst = link_targets(
            batch["doc_id"].to_numpy(zero_copy_only=False), n)
        keep = (dst < max_dst) & (src != dst)
        a = np.repeat(anchor, 3)[keep]
        t = pa.table({
            "dst": pa.array(dst[keep], pa.int64()),
            "anchor": pa.array(a, pa.string()),
            "n": pa.array(np.ones(int(keep.sum()), np.int64), pa.int64()),
        }).group_by(["dst", "anchor"]).aggregate([("n", "sum")])
        return t.rename_columns(
            [{"n_sum": "n"}.get(c, c) for c in t.column_names])

    out = (docs.map_batches(pairs, batch_format="pyarrow")
           .to_pandas()
           .groupby(["dst", "anchor"], as_index=False)
           .agg(n=("n", "sum")))
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["dst", "n", "anchor"],
                          ascending=[True, False, True])
    out = out.groupby("dst", as_index=False).head(top)
    return out.reset_index(drop=True)


def js_divergence_sources(sf_dir: str) -> pd.DataFrame:
    """Corpus-drift detection: Jensen-Shannon divergence (natural log)
    between the unigram distributions of every source pair.  The
    (source, token) count table folds distributed exactly like the NB
    trainer — per-batch pyarrow group_by partials, one composed-key Ray
    groupby — and only the model-sized count table reaches the driver,
    where the pairwise JSD is one vectorized pass over aligned count
    arrays.  Output (s1, s2, jsd) for s1 < s2."""
    from ray.data.aggregate import Sum

    from ..stages.lm import exploded_tokens

    def partial(batch: pa.Table) -> pa.Table:
        doc_pos, flat, lens = exploded_tokens(batch["text"])
        src = batch["source"].to_numpy(zero_copy_only=False)
        dpos = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        composed = pc.binary_join_element_wise(
            pa.array(src[dpos].astype(str)), flat, "\x1f")
        t = pa.table({
            "k": composed,
            "cnt": pa.array(np.ones(len(composed), np.int64), pa.int64()),
        }).group_by(["k"]).aggregate([("cnt", "sum")])
        return t.rename_columns(
            [{"cnt_sum": "cnt"}.get(c, c) for c in t.column_names])

    counts = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["text", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("k").aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    kk = counts["k"].astype(str).str.split("\x1f", n=1, expand=True)
    counts["source"], counts["token"] = kk[0].to_numpy(), kk[1].to_numpy()
    piv = counts.pivot_table(index="token", columns="source",
                             values="cnt", fill_value=0, aggfunc="sum")
    sources = sorted(piv.columns)
    rows = []
    for i, s1 in enumerate(sources):
        c1 = piv[s1].to_numpy(np.float64)
        p1 = c1 / c1.sum()
        for s2 in sources[i + 1:]:
            c2 = piv[s2].to_numpy(np.float64)
            p2 = c2 / c2.sum()
            m = (p1 + p2) / 2.0
            t1 = np.where(p1 > 0, 0.5 * p1 * np.log(
                np.where(p1 > 0, p1, 1.0) / np.where(m > 0, m, 1.0)), 0.0)
            t2 = np.where(p2 > 0, 0.5 * p2 * np.log(
                np.where(p2 > 0, p2, 1.0) / np.where(m > 0, m, 1.0)), 0.0)
            rows.append({"s1": s1, "s2": s2,
                         "jsd": round(float(t1.sum() + t2.sum()), 6)})
    return pd.DataFrame(rows).sort_values(["s1", "s2"]).reset_index(
        drop=True)


def zipf_fit(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Zipf power-law fit: OLS slope/intercept of ln(tf) on ln(rank)
    over the top-k terms — the distribution-shape diagnostic a corpus
    monitor tracks between snapshots (natural text ≈ −1).  The term
    counts fold in the usual distributed groupby; the fit runs on the
    k-row driver result with the explicit closed-form normal equations
    (both engines compute the identical Σx/Σy/Σxy/Σxx algebra)."""
    ds = _docs(sf_dir).map_batches(
        lambda b: _explode(b, False), batch_format="pyarrow"
    )
    counts = ds.groupby("term").aggregate(Count(alias_name="tf"))
    top = counts.sort(["tf", "term"], descending=[True, False]) \
        .limit(k).to_pandas()
    n = len(top)
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(top["tf"].to_numpy(np.float64))
    sx, sy = float(x.sum()), float(y.sum())
    sxy, sxx = float((x * y).sum()), float((x * x).sum())
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return pd.DataFrame({
        "slope": [round(slope, 6)],
        "intercept": [round(intercept, 6)],
        "n_terms": pd.array([n], dtype="int64"),
    })


def golden_records(sf_dir: str, anchor_len: int = 2) -> pd.DataFrame:
    """MDM survivorship: block documents by their first-``anchor_len``-
    token key and elect each multi-member block's golden record by the
    rule (longest n_chars, then smallest doc_id).  Argmax is
    associative, so each batch emits one partial winner per block key
    and a second fold finishes — no block's members ever co-locate.
    Output (block_key, golden_doc_id, n_members, max_chars)."""

    def partial(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch, min_len=1)
        doc_pos = doc_pos[ok]
        flat = flat.filter(pa.array(ok))
        lens = np.bincount(doc_pos, minlength=len(batch)).astype(np.int64)
        first = np.concatenate([[0], np.cumsum(lens)[:-1]])
        take = np.minimum(lens, anchor_len)
        offsets = pa.array(
            np.concatenate([[0], np.cumsum(take)]).astype(np.int32))
        idx = (np.repeat(first, take)
               + (np.arange(int(take.sum()), dtype=np.int64)
                  - np.repeat(np.concatenate([[0], np.cumsum(take)[:-1]]),
                              take)))
        key = pc.fill_null(pc.binary_join(
            pa.ListArray.from_arrays(offsets, flat.take(pa.array(idx))),
            " "), "").to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"block_key": key, "doc_id": ids,
                           "n_chars": nch, "n_members": 1})
        # partial survivorship per block: argmax inside this batch
        df = df.sort_values(["block_key", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        agg = (df.groupby("block_key", as_index=False)
               .agg(golden_doc_id=("doc_id", "first"),
                    max_chars=("n_chars", "first"),
                    n_members=("n_members", "sum")))
        return pa.Table.from_pandas(agg, preserve_index=False)

    out = (_docs_meta(sf_dir)
           .map_batches(partial, batch_format="pyarrow")
           .to_pandas())
    out = out.sort_values(["block_key", "max_chars", "golden_doc_id"],
                          ascending=[True, False, True])
    fin = (out.groupby("block_key", as_index=False)
           .agg(golden_doc_id=("golden_doc_id", "first"),
                max_chars=("max_chars", "first"),
                n_members=("n_members", "sum")))
    fin = fin[fin["n_members"] >= 2]
    for c in ("golden_doc_id", "max_chars", "n_members"):
        fin[c] = fin[c].astype("int64")
    return fin.sort_values("block_key").reset_index(drop=True)


def _docs_meta(sf_dir: str):
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "n_chars"])


def rank_correlation(sf_dir: str,
                     query: str = "hash join performance") -> pd.DataFrame:
    """Ranking-agreement metric: Spearman's rho between the BM25 and
    tf-idf orderings of the SAME candidate set (docs matching ≥1 query
    term) — what an engine reports when swapping scorers.  One stats
    pass builds (dl, tf per term) exactly like lm_dirichlet; both
    scores compute vectorized on the candidate-sized driver table
    (declared contract: ranks are global order statistics; the
    two-pass bin rank applies at 100 TB).  rho = 1 − 6Σd²/(n(n²−1))
    with integer Σd²; ranks assign on 6-dp-ROUNDED scores (doc_id
    ties) so the order is bit-deterministic across engines — the
    hybrid_rrf trick."""
    terms = [t for t in simple_tokens(query) if len(t) >= 2]
    uterms = sorted(set(terms))

    def partials(batch: pa.Table) -> pa.Table:
        doc_pos, flat, _, ok = _exploded(batch)
        dl = np.bincount(doc_pos[ok], minlength=len(batch))
        out = {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "dl": pa.array(dl, pa.int64()),
        }
        for i, t in enumerate(uterms):
            hit = ok & pc.equal(flat, t).to_numpy(zero_copy_only=False)
            out[f"tf{i}"] = pa.array(
                np.bincount(doc_pos[hit], minlength=len(batch)), pa.int64())
        return pa.table(out)

    stats = (_docs(sf_dir).map_batches(partials, batch_format="pyarrow")
             .to_pandas())
    n_docs = len(stats)
    avgdl = float(stats["dl"].mean())
    tfm = stats[[f"tf{i}" for i in range(len(uterms))]].to_numpy(np.float64)
    cand = tfm.sum(axis=1) > 0
    sub = stats[cand]
    tfm = tfm[cand]
    dl = sub["dl"].to_numpy(np.float64)
    df = (tfm > 0).sum(axis=0).astype(np.float64)
    n_cand = int(cand.sum())

    bm25 = np.zeros(n_cand)
    tfidf = np.zeros(n_cand)
    for i in range(len(uterms)):
        tf = tfm[:, i]
        m = tf > 0
        idf = np.log((n_docs - df[i] + 0.5) / (df[i] + 0.5) + 1)
        bm25[m] += (idf * tf[m] * (1.2 + 1)
                    / (tf[m] + 1.2 * (1 - 0.75 + 0.75 * dl[m] / avgdl)))
        w = np.log10(n_cand * 1.0 / (1 + df[i]))
        tfidf[m] += (tf[m] * 1.0 / dl[m]) * w * ((1.0 / 3) * w)
    ids = sub["doc_id"].to_numpy(np.int64)
    # rank on the 6-dp-ROUNDED scores (ties by doc_id) — the hybrid_rrf
    # trick that makes rank assignment bit-deterministic across engines
    r1 = np.empty(n_cand, np.int64)
    r1[np.lexsort((ids, -np.round(bm25, 6)))] = np.arange(n_cand)
    r2 = np.empty(n_cand, np.int64)
    r2[np.lexsort((ids, -np.round(tfidf, 6)))] = np.arange(n_cand)
    d2 = int(((r1 - r2) ** 2).sum())
    rho = 1.0 - 6.0 * d2 / (n_cand * (n_cand * n_cand - 1.0))
    return pd.DataFrame({
        "n_common": pd.array([n_cand], dtype="int64"),
        "sum_d2": pd.array([d2], dtype="int64"),
        "spearman_rho": [round(rho, 6)],
    })


def trigram_substring_search(sf_dir: str,
                             pattern: str = "hash join") -> pd.DataFrame:
    """Trigram-prefiltered substring search (the pg_trgm plan): a doc
    can contain the pattern only if it contains EVERY character trigram
    of the pattern, so the cheap per-trigram containment masks prune
    before the exact match check.  Both stages are Arrow
    match_substring kernels over the lowered text — one scan, no
    index rebuild; output one row per CANDIDATE doc with its exact-
    match flag, which exposes the pruning selectivity the real trigram
    index would deliver."""
    pat = pattern.lower()
    tris = [pat[i:i + 3] for i in range(len(pat) - 2)]

    def scan(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        cand = np.ones(len(low), dtype=bool)
        for t in tris:
            cand &= pc.match_substring(low, t).to_numpy(
                zero_copy_only=False)
        is_match = pc.match_substring(low, pat).to_numpy(
            zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[cand], pa.int64()),
            "is_match": pa.array(is_match[cand].astype(np.int64),
                                 pa.int64()),
        })

    out = _docs(sf_dir).map_batches(scan, batch_format="pyarrow") \
        .to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["is_match"] = out["is_match"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def flesch_scores(sf_dir: str) -> pd.DataFrame:
    """Flesch reading-ease readability per document — the classic
    curation quality signal (Gopher/C4-style filters threshold on it).
    Counts are regex-group counts the oracle reproduces exactly:
    words = non-whitespace runs, sentences = max(1, [.!?]+ runs) (the
    synthetic corpus is unpunctuated word salad, so the max(1) floor is
    load-bearing), syllables = [aeiouy]+ vowel runs in the lowercased
    text — the standard cheap syllable proxy.  Score arithmetic runs on
    exact integers; one vectorized pass, no shuffle (doc-local)."""

    def score(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        words = pc.count_substring_regex(txt, r"\S+").to_numpy().astype(
            np.int64)
        sents = np.maximum(
            pc.count_substring_regex(txt, r"[.!?]+").to_numpy().astype(
                np.int64), 1)
        syls = pc.count_substring_regex(
            pc.utf8_lower(txt), "[aeiouy]+").to_numpy().astype(np.int64)
        keep = words > 0
        w = words[keep].astype(np.float64)
        fre = 206.835 - 1.015 * (w / sents[keep]) - 84.6 * (syls[keep] / w)
        return pa.table({
            "doc_id": pc.filter(batch["doc_id"], pa.array(keep)),
            "words": pa.array(words[keep], pa.int64()),
            "sentences": pa.array(sents[keep], pa.int64()),
            "syllables": pa.array(syls[keep], pa.int64()),
            "flesch": pa.array(np.round(fre, 6), pa.float64()),
        })

    out = _docs(sf_dir).map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def heaps_law(sf_dir: str, n_checkpoints: int = 10) -> pd.DataFrame:
    """Heaps'-law vocabulary growth curve: V(k) = distinct simple-token
    vocabulary of the first k documents (doc_id order), sampled at
    ``n_checkpoints`` evenly spaced prefixes, plus the fitted log-log
    slope beta (V ~ K * n^beta).  Distributed shape: the term->min(doc_id)
    first-occurrence shuffle (the term_df exchange keyed the same way),
    then each checkpoint count folds from per-batch partials over the
    first-occurrence table — the full token stream is never re-scanned
    per checkpoint.  doc_ids are dense 0..n-1 in the synthetic corpus
    (asserted), so the k-th prefix threshold is k-1; on a non-dense
    corpus the thresholds would come from the ntile exact-rank pass."""
    ds = _docs(sf_dir)
    n_docs = ds.count()

    first = (
        ds.map_batches(
            lambda b: _explode(b, distinct_per_doc=True),
            batch_format="pyarrow")
        .groupby("term")
        .aggregate(ray.data.aggregate.Min("doc_id", alias_name="first_doc"))
    )

    ks = np.ceil(n_docs * (np.arange(1, n_checkpoints + 1)
                           / n_checkpoints)).astype(np.int64)

    def vocab_partial(batch: pa.Table) -> pa.Table:
        fd = batch["first_doc"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        # dense-id prefix: doc_id < k  <=>  among the first k docs
        counts = (fd[None, :] < ks[:, None]).sum(axis=1).astype(np.int64)
        return pa.table({
            "k_docs": pa.array(ks, pa.int64()),
            "vocab": pa.array(counts, pa.int64()),
        })

    agg = (first.map_batches(vocab_partial, batch_format="pyarrow")
           .to_pandas().groupby("k_docs", as_index=False)
           .agg(vocab=("vocab", "sum")))
    agg = agg.sort_values("k_docs").reset_index(drop=True)
    x = np.log(agg["k_docs"].to_numpy(np.float64))
    y = np.log(agg["vocab"].to_numpy(np.float64))
    n = float(len(agg))
    beta = ((n * (x * y).sum() - x.sum() * y.sum())
            / (n * (x * x).sum() - x.sum() ** 2))
    agg["vocab"] = agg["vocab"].astype("int64")
    agg["beta"] = round(float(beta), 6)
    return agg


def feature_hashing_stats(sf_dir: str, n_buckets: int = 4096,
                          k: int = 15) -> pd.DataFrame:
    """Hashing-trick (feature-hashing) collision audit: every DISTINCT
    vocabulary term maps to bucket = first-8-hex(sha256(term)) mod
    ``n_buckets`` — the fixed-width featurizer a streaming classifier
    uses instead of a vocabulary dict (Weinberger et al. 2009) — and the
    audit reports the ``k`` most collided buckets plus the global
    distinct-term count.  Distributed shape: the distinct-term shuffle
    (term_df's exchange), a per-batch hash map (hashing is inherently
    per-string; the term table is vocabulary-sized, not corpus-sized),
    one bucket-count groupby."""
    import hashlib

    vocab = (_docs(sf_dir)
             .map_batches(lambda b: _explode(b, distinct_per_doc=True),
                          batch_format="pyarrow")
             .groupby("term").count())

    def bucketize(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        b = np.fromiter(
            (int(hashlib.sha256(t.encode()).hexdigest()[:8], 16) % n_buckets
             for t in terms), np.int64, len(terms))
        un, ct = np.unique(b, return_counts=True)
        return pa.table({
            "bucket": pa.array(un, pa.int64()),
            "n_terms": pa.array(ct.astype(np.int64), pa.int64()),
        })

    agg = (vocab.map_batches(bucketize, batch_format="pyarrow")
           .to_pandas().groupby("bucket", as_index=False)
           .agg(n_terms=("n_terms", "sum")))
    total = int(agg["n_terms"].sum())
    agg = agg.sort_values(["n_terms", "bucket"],
                          ascending=[False, True]).head(k)
    agg["n_terms"] = agg["n_terms"].astype("int64")
    agg["total_terms"] = pd.array([total] * len(agg), dtype="int64")
    return agg.reset_index(drop=True)


def term_dict_frontcode(sf_dir: str) -> pd.DataFrame:
    """Front-coded term-dictionary size profile (the classic sorted-
    dictionary compression of an inverted index, Witten/Moffat/Bell):
    within each first-letter partition the sorted vocabulary stores its
    head term raw and every following term as (common-prefix-len byte,
    suffix-len byte, suffix bytes).  Reports per-partition term count,
    raw bytes (len byte + term), front-coded bytes and the ratio —
    extending the posting-codec size family to the dictionary itself.
    Distributed shape: the distinct-term shuffle, then a per-partition
    vectorized prefix-length pass (terms are grouped BY the partition
    key, so the sequential prefix chain never crosses tasks)."""
    from ray.data.aggregate import Sum

    def fc_partition(group: pa.Table) -> pa.Table:
        terms = sorted(t.as_py() for t in group["term"])
        head = terms[0][:1]
        enc = [t.encode("utf-8") for t in terms]
        lens = np.array([len(b) for b in enc], np.int64)
        raw = int((lens + 1).sum())
        if len(enc) == 1:
            fc = raw
        else:
            L = int(lens.max())
            m = np.zeros((len(enc), L), dtype=np.uint8)
            for i, b in enumerate(enc):
                m[i, :len(b)] = np.frombuffer(b, np.uint8)
            prev, cur = m[:-1], m[1:]
            minlen = np.minimum(lens[:-1], lens[1:])
            pos = np.arange(L)[None, :]
            mismatch = (prev != cur) | (pos >= minlen[:, None])
            cpl = np.where(mismatch.any(axis=1),
                           mismatch.argmax(axis=1), minlen)
            fc = int(lens[0] + 1
                     + (2 + lens[1:] - cpl).sum())
        return pa.table({
            "head": pa.array([head], pa.string()),
            "n_terms": pa.array([len(enc)], pa.int64()),
            "raw_bytes": pa.array([raw], pa.int64()),
            "fc_bytes": pa.array([int(fc)], pa.int64()),
        })

    vocab = (_docs(sf_dir)
             .map_batches(lambda b: _explode(b, distinct_per_doc=True),
                          batch_format="pyarrow")
             .groupby("term").count()
             .map_batches(
                 lambda b: pa.table({
                     "term": b["term"],
                     "head": pc.utf8_slice_codeunits(
                         b["term"].combine_chunks(), 0, 1),
                 }) if "term" in b.column_names else pa.table(
                     {"term": pa.array([], pa.string()),
                      "head": pa.array([], pa.string())}),
                 batch_format="pyarrow"))
    out = (vocab.groupby("head")
           .map_groups(fc_partition, batch_format="pyarrow")
           .to_pandas())
    out["ratio"] = (out["raw_bytes"] / out["fc_bytes"]).round(6)
    for c in ("n_terms", "raw_bytes", "fc_bytes"):
        out[c] = out[c].astype("int64")
    return out.sort_values("head").reset_index(drop=True)
