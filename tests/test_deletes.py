"""Tombstone deletes over immutable segments (state/deletes.py +
pipelines/deletes.py): mask-at-read, Lucene stale-stats scoring,
boolean-NOT safe negation, and purge == fresh-build-over-survivors.

The reference's only delete is dropping the whole store and re-crawling
(indexer/Main.java:58-61); this is the capability gap the tombstone
lifecycle closes.
"""

import hashlib
import json
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from nadry_search_engine_be_ray.config import BuildConfig
from nadry_search_engine_be_ray.pipelines.build import build_index
from nadry_search_engine_be_ray.pipelines.deletes import (
    delete_docs,
    purge_deletes,
)
from nadry_search_engine_be_ray.pipelines.query import (
    SearchEngine,
    boolean_search,
)
from nadry_search_engine_be_ray.sources.corpus import write_corpus
from nadry_search_engine_be_ray.stages.prep import make_url
from nadry_search_engine_be_ray.state.deletes import (
    live_mask,
    load_tombstones,
    tombstone_path,
    write_tombstones,
)
from nadry_search_engine_be_ray.state.segments import SegmentReader

CFG = BuildConfig(num_shards=4, salt_bits=1)


def _doc_int_of(repo: str, path: str, commit: str) -> int:
    h = hashlib.sha256(make_url(repo, path, commit).encode())
    return int(h.hexdigest()[:15], 16)


@pytest.fixture(scope="module")
def setup(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("deletes")
    corpus = str(tmp / "corpus")
    write_corpus(corpus, n_docs=400, seed=7)
    idx_full = str(tmp / "idx_full")
    build_index(corpus, idx_full, CFG)

    # victims must have corpus-UNIQUE content: deleting a dedup winner
    # whose loser survives in the corpus would let the fresh build
    # resurrect the loser, which purge (correctly) can't know about
    src = pads.dataset(corpus, format="parquet").to_table(
        columns=["repo", "path", "commit", "content"]
    )
    counts = Counter(
        hashlib.sha256((c or "").encode()).digest()
        for c in src["content"].to_pylist()
    )
    prepped = pads.dataset(
        os.path.join(idx_full, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", "content_sha256"])
    uniq = sorted(
        int(d)
        for d, s in zip(
            prepped["doc_int"].to_pylist(),
            prepped["content_sha256"].to_pylist(),
        )
        if counts[s] == 1
    )
    deleted = uniq[::5][:60]
    assert len(deleted) >= 40

    idx_del = str(tmp / "idx_del")
    shutil.copytree(idx_full, idx_del)
    info = delete_docs(idx_del, deleted)
    assert info["n_total"] == len(deleted)
    return {
        "tmp": tmp,
        "corpus": corpus,
        "idx_full": idx_full,
        "idx_del": idx_del,
        "deleted": np.asarray(deleted, dtype=np.int64),
    }


@pytest.fixture(scope="module")
def purged_vs_fresh(setup, tmp_path_factory):
    """idx_purge = purge of the tombstoned copy; idx_surv = fresh build
    over the corpus minus the deleted rows."""
    tmp = setup["tmp"]
    deleted = set(int(d) for d in setup["deleted"])

    src = pads.dataset(setup["corpus"], format="parquet").to_table()
    keep = [
        _doc_int_of(r, p, c) not in deleted
        for r, p, c in zip(
            src["repo"].to_pylist(),
            src["path"].to_pylist(),
            src["commit"].to_pylist(),
        )
    ]
    surv_corpus = str(tmp / "corpus_surv")
    os.makedirs(surv_corpus)
    pq.write_table(
        src.filter(pa.array(keep)), os.path.join(surv_corpus, "p.parquet")
    )
    idx_surv = str(tmp / "idx_surv")
    build_index(surv_corpus, idx_surv, CFG)

    idx_purge = str(tmp / "idx_purge")
    shutil.copytree(setup["idx_del"], idx_purge)
    metrics = purge_deletes(idx_purge)
    return {"idx_purge": idx_purge, "idx_surv": idx_surv,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# tombstone state primitives
# ---------------------------------------------------------------------------

def test_tombstone_union_and_idempotence(tmp_path):
    d = str(tmp_path)
    r1 = write_tombstones(d, [5, 3, 5, 9])
    assert (r1["n_requested"], r1["n_total"]) == (3, 3)
    r2 = write_tombstones(d, [9, 1])
    assert r2["n_new"] == 1 and r2["n_total"] == 4
    assert load_tombstones(d).tolist() == [1, 3, 5, 9]


def test_live_mask_vectorized_matches_set():
    rng = np.random.default_rng(0)
    docs = np.sort(rng.choice(10_000, 500, replace=False)).astype(np.int64)
    dead = np.sort(rng.choice(10_000, 200, replace=False)).astype(np.int64)
    got = live_mask(docs, dead)
    want = np.array([d not in set(dead.tolist()) for d in docs])
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# mask-at-read semantics (pre-purge)
# ---------------------------------------------------------------------------

def _common_terms(reader: SegmentReader, deleted: np.ndarray, n: int = 5):
    """Terms whose full posting list overlaps the deleted set (the
    interesting masking cases), by descending df."""
    hits = []
    for t in sorted(reader.terms()):
        pl = reader.postings(t)
        if not live_mask(pl.docs, deleted).all():
            hits.append((pl.df, t))
    hits.sort(reverse=True)
    assert hits, "fixture must delete docs that appear in some posting"
    return [t for _, t in hits[:n]]


def test_postings_masked_and_df_stale(setup):
    rf = SegmentReader(setup["idx_full"])
    rd = SegmentReader(setup["idx_del"])
    deleted = setup["deleted"]
    terms = _common_terms(rf, deleted)
    for t in terms:
        pf, pd_ = rf.postings(t), rd.postings(t)
        keep = live_mask(pf.docs, deleted)
        assert np.array_equal(pd_.docs, pf.docs[keep])
        assert np.array_equal(pd_.tfs, pf.tfs[keep])
        assert np.array_equal(pd_.weights, pf.weights[keep])
        # Lucene docFreq-includes-deletes: stale df == the full build's df
        assert pd_.df_stale == pf.df
        assert pd_.df == int(keep.sum()) < pf.df
        # positions payload compacted consistently: per-doc decode agrees
        for i_new, i_old in enumerate(np.flatnonzero(keep)[:3]):
            got = pd_.positions_for(int(i_new))
            want = pf.positions_for(int(i_old))
            assert got.keys() == want.keys()
            for f in got:
                assert np.array_equal(got[f], want[f])


def test_search_excludes_deleted_and_keeps_stale_scores(setup):
    """Surviving docs' scores are BIT-IDENTICAL pre/post delete — idf uses
    df_stale and n_docs/avgdl stay stale until purge, so a delete can
    never reshuffle the surviving ranking (the Lucene contract)."""
    ef = SearchEngine(setup["idx_full"])
    ed = SearchEngine(setup["idx_del"])
    deleted = set(int(d) for d in setup["deleted"])
    terms = _common_terms(ef.reader, setup["deleted"], n=3)
    queries = [terms[0], " ".join(terms[:2]), " ".join(terms)]
    for scorer in ("additive", "bm25"):
        for q in queries:
            full = ef.topk_taat(q, k=100_000, scorer=scorer)
            want = [(d, s) for d, s in full if d not in deleted]
            got = ed.topk_taat(q, k=100_000, scorer=scorer)
            assert got == want
            # WAND agrees with TAAT on the masked index too
            assert ed.topk_wand(q, k=10, scorer=scorer) == want[:10]


def test_boolean_not_does_not_resurrect(setup):
    rf = SegmentReader(setup["idx_full"])
    deleted = setup["deleted"]
    t = _common_terms(rf, deleted, n=1)[0]
    out = boolean_search(setup["idx_del"], {"q": ("not", t)})
    got = np.asarray(out["doc_int"].to_pylist(), dtype=np.int64)
    # no deleted doc in the complement...
    assert live_mask(got, deleted).all()
    # ...and it equals (full NOT-result) minus deleted
    full = boolean_search(setup["idx_full"], {"q": ("not", t)})
    fv = np.asarray(full["doc_int"].to_pylist(), dtype=np.int64)
    assert np.array_equal(got, fv[live_mask(fv, deleted)])


# ---------------------------------------------------------------------------
# purge == fresh build over the surviving corpus
# ---------------------------------------------------------------------------

def test_purge_metrics_and_stats(setup, purged_vs_fresh,
                                assert_one_row_per_term):
    m = purged_vs_fresh["metrics"]
    assert m["n_purged"] == len(setup["deleted"])
    assert 0 < m["tombstone_fraction"] < 1
    with open(os.path.join(purged_vs_fresh["idx_purge"], "stats.json")) as f:
        sp = json.load(f)
    with open(os.path.join(purged_vs_fresh["idx_surv"], "stats.json")) as f:
        ss = json.load(f)
    for k in ("n_docs", "total_words", "avgdl", "n_term_rows",
              "num_shards", "salt_bits", "compacted", "docs_codec"):
        assert sp[k] == ss[k], k
    assert_one_row_per_term(purged_vs_fresh["idx_purge"])


def test_purged_term_rows_match_segments(purged_vs_fresh,
                                         assert_term_rows_match_segments):
    assert_term_rows_match_segments(purged_vs_fresh["idx_purge"])


def test_purge_postings_byte_equal_fresh_build(purged_vs_fresh,
                                              assert_doc_ordinals):
    assert_doc_ordinals(purged_vs_fresh["idx_purge"],
                        purged_vs_fresh["idx_surv"])
    rp = SegmentReader(purged_vs_fresh["idx_purge"])
    rs = SegmentReader(purged_vs_fresh["idx_surv"])
    terms_p, terms_s = set(rp.terms()), set(rs.terms())
    assert terms_p == terms_s
    for t in sorted(terms_s):
        pp, ps = rp.postings(t), rs.postings(t)
        assert np.array_equal(pp.docs, ps.docs), t
        assert np.array_equal(pp.tfs, ps.tfs), t
        assert np.array_equal(pp.weights, ps.weights), t
        assert pp.positions_buf == ps.positions_buf, t
        assert np.array_equal(pp.pos_offsets, ps.pos_offsets), t
        assert pp.df_total is None  # tombstones are gone post-purge


def test_purge_search_equals_fresh_build(purged_vs_fresh):
    ep = SearchEngine(purged_vs_fresh["idx_purge"])
    es = SearchEngine(purged_vs_fresh["idx_surv"])
    terms = sorted(es.reader.terms())
    queries = [terms[0], " ".join(terms[:3]), terms[len(terms) // 2]]
    for scorer in ("additive", "bm25"):
        for q in queries:
            assert ep.topk_taat(q, k=50, scorer=scorer) == \
                es.topk_taat(q, k=50, scorer=scorer)


def test_purge_clears_tombstones_then_noop(purged_vs_fresh):
    idx = purged_vs_fresh["idx_purge"]
    assert not os.path.exists(tombstone_path(idx))
    again = purge_deletes(idx)
    assert again["n_purged"] == 0
    assert again["n_docs_before"] == again["n_docs_after"]


def test_purge_invalidates_permuterm(setup, tmp_path):
    """A purge that drops a term from the dictionary must drop the
    permuterm index too: a stale rotation would still offer the term."""
    from nadry_search_engine_be_ray.pipelines.build import (
        build_permuterm_index,
    )
    from nadry_search_engine_be_ray.pipelines.query import (
        wildcard_terms, wildcard_terms_kgram, wildcard_terms_permuterm,
    )

    idx = str(tmp_path / "idx")
    shutil.copytree(setup["idx_full"], idx)
    build_permuterm_index(idx)
    r = SegmentReader(idx)
    # a rotation-answerable term (no '_'/'%') that lives in one doc only
    term = next(t for t in sorted(r.terms())
                if r.postings(t).df == 1 and not set(t) & {"_", "%"})
    delete_docs(idx, r.postings(term).docs)
    assert purge_deletes(idx)["n_purged"] == 1
    assert not SegmentReader(idx).has_term(term)

    pats = [term[:2] + "%", "%" + term[-2:], term]
    scan = wildcard_terms(idx, pats)
    assert term not in scan["term"].to_pylist()
    assert wildcard_terms_permuterm(idx, pats).to_pylist() == scan.to_pylist()
    assert wildcard_terms_kgram(idx, pats).to_pylist() == scan.to_pylist()


def test_purge_filters_side_tables(setup, purged_vs_fresh):
    idx = purged_vs_fresh["idx_purge"]
    deleted = setup["deleted"]
    for sub in ("doc_stats", "prepped"):
        root = os.path.join(idx, sub)
        if not os.path.isdir(root):
            continue
        di = pads.dataset(root, format="parquet").to_table(
            columns=["doc_int"]
        )["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert live_mask(np.sort(di), deleted).all(), sub


# ---------------------------------------------------------------------------
# merge consumes tombstones (Lucene segment-merge semantics)
# ---------------------------------------------------------------------------

def test_merge_applies_tombstones(setup, tmp_path_factory,
                                  assert_doc_ordinals):
    """merge_indexes over tombstoned sources must equal purge-then-merge
    byte-for-byte on disk (pipelines/merge.py applies the same
    mask/re-encode row transform during the k-way merge), recompute stats
    over survivors, and emit NO tombstone file."""
    from nadry_search_engine_be_ray.pipelines.merge import merge_indexes

    tmp = tmp_path_factory.mktemp("mergedel")
    src = pads.dataset(setup["corpus"], format="parquet").to_table()
    ca, cb = str(tmp / "ca"), str(tmp / "cb")
    os.makedirs(ca), os.makedirs(cb)
    half = src.num_rows // 2
    pq.write_table(src.slice(0, half), os.path.join(ca, "p.parquet"))
    pq.write_table(src.slice(half), os.path.join(cb, "p.parquet"))
    ia, ib = str(tmp / "ia"), str(tmp / "ib")
    build_index(ca, ia, CFG)
    build_index(cb, ib, CFG)
    for d in (ia, ib):
        di = pads.dataset(
            os.path.join(d, "doc_stats"), format="parquet"
        ).to_table(columns=["doc_int"])["doc_int"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        delete_docs(d, np.sort(di)[::5])

    im = str(tmp / "im")
    stats_m = merge_indexes([ia, ib], im)
    assert stats_m["n_purged_on_merge"] > 0
    assert not os.path.exists(tombstone_path(im))

    ia2, ib2 = str(tmp / "ia2"), str(tmp / "ib2")
    shutil.copytree(ia, ia2), shutil.copytree(ib, ib2)
    purge_deletes(ia2), purge_deletes(ib2)
    im2 = str(tmp / "im2")
    stats_2 = merge_indexes([ia2, ib2], im2)

    for k in ("n_docs", "total_words", "avgdl", "n_term_rows"):
        assert stats_m[k] == stats_2[k], k
    assert_doc_ordinals(im, im2)
    rm, r2 = SegmentReader(im), SegmentReader(im2)
    assert sorted(rm.terms()) == sorted(r2.terms())
    for t in sorted(rm.terms())[::7]:
        pm, p2 = rm.postings(t), r2.postings(t)
        assert pm.docs.tolist() == p2.docs.tolist(), t
        assert pm.tfs.tolist() == p2.tfs.tolist(), t
        assert pm.weights.tolist() == p2.weights.tolist(), t
        assert pm.positions_buf == p2.positions_buf, t
        assert pm.pos_offsets.tolist() == p2.pos_offsets.tolist(), t

    # live-filtered side tables: no dead doc survives in doc_stats/prepped
    dead = np.unique(np.concatenate([
        np.sort(pads.dataset(os.path.join(d, "doc_stats"),
                             format="parquet").to_table(
            columns=["doc_int"])["doc_int"].to_numpy(
            zero_copy_only=False).astype(np.int64))[::5]
        for d in (ia, ib)
    ]))
    for sub in ("doc_stats", "prepped"):
        di = pads.dataset(
            os.path.join(im, sub), format="parquet"
        ).to_table(columns=["doc_int"])["doc_int"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        assert not np.isin(di, dead).any(), sub
