"""Incremental index merge: two half-corpus indexes merged must decode
byte-identically to one full-corpus build (general interleaving k-way merge,
pipelines/merge.py — the capability the reference lacks entirely: its build
drops the collections and restarts, indexer/Main.java:58-61)."""

import os

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from nadry_search_engine_be_ray.config import BuildConfig
from nadry_search_engine_be_ray.pipelines.build import build_index
from nadry_search_engine_be_ray.pipelines.merge import merge_indexes
from nadry_search_engine_be_ray.sources.corpus import write_corpus
from nadry_search_engine_be_ray.state.segments import SegmentReader


@pytest.fixture(scope="module")
def merged_and_full(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("idxmerge")
    full_corpus = str(tmp / "corpus_full")
    write_corpus(full_corpus, n_docs=600, seed=42)
    tbl = pads.dataset(full_corpus, format="parquet").to_table()

    half_a, half_b = str(tmp / "ca"), str(tmp / "cb")
    os.makedirs(half_a), os.makedirs(half_b)
    pq.write_table(tbl.slice(0, 300), os.path.join(half_a, "part.parquet"))
    pq.write_table(tbl.slice(300), os.path.join(half_b, "part.parquet"))

    cfg = BuildConfig(num_shards=4, salt_bits=1)
    idx_full, idx_a, idx_b = (str(tmp / n) for n in ("ifull", "ia", "ib"))
    build_index(full_corpus, idx_full, cfg)
    build_index(half_a, idx_a, cfg)
    build_index(half_b, idx_b, cfg)

    idx_m = str(tmp / "imerged")
    stats = merge_indexes([idx_a, idx_b], idx_m)
    return idx_m, idx_full, stats


def test_merged_stats_match_full(merged_and_full, assert_one_row_per_term):
    idx_m, idx_full, stats = merged_and_full
    full = SegmentReader(idx_full).stats
    # dedup is per-build: a cross-half duplicate pair survives in the split
    # builds (each half keeps its own copy), so n_docs may exceed the full
    # build's by the number of cross-half dup pairs; everything else about
    # the merge machinery is exercised below on the common doc set.
    assert stats["n_docs"] >= full["n_docs"]
    assert stats["merged_from"] == 2
    assert_one_row_per_term(idx_m)


def test_merged_postings_match_full(merged_and_full):
    idx_m, idx_full, _ = merged_and_full
    rm, rf = SegmentReader(idx_m), SegmentReader(idx_full)
    assert set(rf.terms()) <= set(rm.terms())
    full_docs = None
    for term in sorted(rf.terms())[:80]:
        pf, pm = rf.postings(term), rm.postings(term)
        # merged index may contain extra docs (cross-half dup losers were
        # deduped only in the full build); restrict to the full build's docs
        keep = np.isin(pm.docs, pf.docs)
        assert pm.docs[keep].tolist() == pf.docs.tolist(), term
        assert pm.tfs[keep].tolist() == pf.tfs.tolist(), term
        assert pm.weights[keep].tolist() == pf.weights.tolist(), term
        # strictly increasing docs (delta-gap precondition) after merge
        assert np.all(np.diff(pm.docs) > 0)
        # positions identical per common doc
        idxs_m = np.flatnonzero(keep)[:5]
        for k, i_m in enumerate(idxs_m):
            i_f = int(np.searchsorted(pf.docs, pm.docs[i_m]))
            fm = pm.positions_for(int(i_m))
            ff = pf.positions_for(i_f)
            assert fm.keys() == ff.keys(), term
            for f in fm:
                assert fm[f].tolist() == ff[f].tolist(), (term, f)


def test_merge_rejects_shared_docs(ray_session, tmp_path):
    corpus = str(tmp_path / "c")
    write_corpus(corpus, n_docs=120, seed=42)
    cfg = BuildConfig(num_shards=4, salt_bits=1)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(corpus, ia, cfg)
    build_index(corpus, ib, cfg)
    with pytest.raises(ValueError, match="share documents|duplicate doc_int"):
        merge_indexes([ia, ib], str(tmp_path / "im"))


def test_upsert_index(ray_session, tmp_path, assert_one_row_per_term):
    """upsert_index == Lucene updateDocument: new versions (same
    (repo,path), new commit ⇒ new doc_int) replace the old ones via
    tombstone + consuming merge; genuinely new docs are added.  Oracle:
    per-term df recomputed in pandas from the raw postings dumps under
    the same delete-by-key algebra."""
    import pandas as pd
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.merge import upsert_index
    from nadry_search_engine_be_ray.state.deletes import load_tombstones

    corpus = str(tmp_path / "c")
    write_corpus(corpus, n_docs=360, seed=11)
    tbl = pads.dataset(corpus, format="parquet").to_table()
    base_c = str(tmp_path / "base_c")
    os.makedirs(base_c)
    pq.write_table(tbl.slice(0, 300), os.path.join(base_c, "p.parquet"))

    # delta: 40 UPDATED versions of base docs + 60 new docs
    upd = tbl.slice(0, 40)
    upd = upd.set_column(
        upd.schema.get_field_index("commit"), "commit",
        pa.array([c[::-1] for c in upd["commit"].to_pylist()], pa.string()),
    )
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + "\nupdated marker line xylophone"
                  for c in upd["content"].to_pylist()], pa.string()),
    )
    delta_c = str(tmp_path / "delta_c")
    os.makedirs(delta_c)
    pq.write_table(
        pa.concat_tables([upd, tbl.slice(300)]),
        os.path.join(delta_c, "p.parquet"),
    )

    cfg = BuildConfig(num_shards=4, salt_bits=1)
    base_i = str(tmp_path / "bi")
    build_index(base_c, base_i, cfg)
    out = str(tmp_path / "up")
    stats = upsert_index(base_i, delta_c, out, cfg)
    assert stats["n_replaced"] == 40
    assert stats["n_purged_on_merge"] >= 40
    # base got the logical delete; the upserted index carries none
    assert load_tombstones(base_i).size == 40
    assert load_tombstones(out).size == 0
    assert_one_row_per_term(out)

    # pandas recompute of per-term df from the prepped keys and the
    # re-tokenized term rows
    from nadry_search_engine_be_ray.pipelines.query import DocStore

    def dump(d, sub, cols):
        return pads.dataset(
            os.path.join(d, sub), format="parquet"
        ).to_table(columns=cols).to_pandas()

    delta_i = out + ".delta"
    dkeys = dump(delta_i, "prepped", ["repo", "path"]).drop_duplicates()
    bprep = dump(base_i, "prepped", ["doc_int", "repo", "path"])
    dead = set(
        bprep.merge(dkeys, on=["repo", "path"])["doc_int"].astype("int64")
    )

    def term_rows(d):
        docs = DocStore.load(d)
        return docs.term_rows(docs.doc_ints).select(
            ["term", "doc_int"]).to_pandas()

    bp = term_rows(base_i)
    bp = bp[~bp["doc_int"].isin(dead)]
    dp = term_rows(delta_i)
    exp = (
        pd.concat([bp, dp])
        .drop_duplicates()
        .groupby("term")["doc_int"]
        .nunique()
        .sort_index()
    )
    r = SegmentReader(out)
    got = pd.Series(
        {t: r.postings(t).df for t in r.terms() if r.postings(t).df > 0}
    ).sort_index()
    pd.testing.assert_series_equal(got, exp, check_names=False)

    # the updated content is retrievable, old versions are not
    from nadry_search_engine_be_ray.pipelines.query import SearchEngine

    eng = SearchEngine(out)
    hits = eng.search("xylophone")
    assert len(hits) > 0


@pytest.fixture(scope="module")
def upserted_and_fresh(ray_session, tmp_path_factory):
    """An upserted index (base build, delta of 20 new versions of base docs
    plus 40 new docs, tombstone-consuming merge) and a fresh build of the
    same live corpus.  Rows with repeated content are dropped first, so
    per-build dedup cannot tell the two indexes apart."""
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.merge import upsert_index

    tmp = tmp_path_factory.mktemp("upsert_fresh")
    corpus = str(tmp / "c")
    write_corpus(corpus, n_docs=260, seed=5)
    tbl = pads.dataset(corpus, format="parquet").to_table()
    seen: set = set()
    first = [not (c in seen or seen.add(c))
             for c in tbl["content"].to_pylist()]
    tbl = tbl.filter(pa.array(first))
    base, new = tbl.slice(0, 200), tbl.slice(200, 40)
    upd = base.slice(0, 20)
    upd = upd.set_column(
        upd.schema.get_field_index("commit"), "commit",
        pa.array([c[::-1] for c in upd["commit"].to_pylist()], pa.string()))
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + "\nupdated marker line xylophone"
                  for c in upd["content"].to_pylist()], pa.string()))

    def corpus_dir(name, *parts):
        d = str(tmp / name)
        os.makedirs(d)
        pq.write_table(pa.concat_tables(parts), os.path.join(d, "p.parquet"))
        return d

    cfg = BuildConfig(num_shards=4, salt_bits=1)
    base_i, up, fresh = (str(tmp / n) for n in ("bi", "up", "fresh"))
    build_index(corpus_dir("base_c", base), base_i, cfg)
    upsert_index(base_i, corpus_dir("delta_c", upd, new), up, cfg)
    live = pa.concat_tables([base.slice(20), upd, new])
    build_index(corpus_dir("live_c", live), fresh, cfg)
    return up, fresh, {"tmp": tmp, "base": base_i, "live": live,
                       "spare": tbl.slice(240), "corpus_dir": corpus_dir}


def test_write_verbs_keep_doc_ordinals(upserted_and_fresh,
                                       assert_doc_ordinals):
    """Build, upsert, delete + purge and merge_indexes each leave a tier
    whose doc-int map is the sorted doc_stats ints, whose stored ordinals
    fall inside it, and whose rows are byte for byte those of a fresh
    build of the live corpus."""
    import shutil

    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.deletes import (
        delete_docs,
        purge_deletes,
    )
    from nadry_search_engine_be_ray.stages.prep import prep_batch

    up, fresh, ctx = upserted_and_fresh
    tmp, corpus_dir = ctx["tmp"], ctx["corpus_dir"]
    cfg = BuildConfig(num_shards=4, salt_bits=1)

    def doc_ints(t):
        return prep_batch(t)["doc_int"].to_numpy()

    def drop_every(t, k):
        keep = np.ones(t.num_rows, dtype=bool)
        keep[::k] = False
        return t.filter(pa.array(keep)), doc_ints(t.filter(pa.array(~keep)))

    assert_doc_ordinals(ctx["base"])
    assert_doc_ordinals(up, fresh)

    # delete + purge: every 9th live doc goes
    purged = str(tmp / "purged")
    shutil.copytree(up, purged)
    live, dead = drop_every(ctx["live"], 9)
    delete_docs(purged, dead)
    assert purge_deletes(purged)["n_purged"] == dead.size
    purged_fresh = str(tmp / "purged_fresh")
    build_index(corpus_dir("purged_c", live), purged_fresh, cfg)
    assert_doc_ordinals(purged, purged_fresh)

    # merge the purged index with a third one whose tombstones it consumes
    third = str(tmp / "third")
    build_index(corpus_dir("third_c", ctx["spare"]), third, cfg)
    spare, spare_dead = drop_every(ctx["spare"], 4)
    delete_docs(third, spare_dead)
    merged = str(tmp / "merged")
    merge_indexes([purged, third], merged)
    merged_fresh = str(tmp / "merged_fresh")
    build_index(corpus_dir("merged_c", live, spare), merged_fresh, cfg)
    assert_doc_ordinals(merged, merged_fresh)


@pytest.mark.parametrize("which", ["merged", "upserted"])
def test_term_rows_match_segments(which, request,
                                  assert_term_rows_match_segments):
    """Merge and upsert write no tokenize exchange, and re-tokenizing the
    docs they carried over gives back every term's postings and
    positions."""
    fixture = {"merged": "merged_and_full", "upserted": "upserted_and_fresh"}
    assert_term_rows_match_segments(request.getfixturevalue(fixture[which])[0])


def test_upserted_term_vectors_match_fresh_build(upserted_and_fresh):
    """more_like_this and the rocchio mode re-tokenize each doc's stored
    text from ``prepped/``, which merge carries over live-filtered, so on
    an upserted index both answer exactly as on a fresh build of the live
    corpus."""
    import pandas as pd
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.query import more_like_this
    from nadry_search_engine_be_ray.pipelines.serve import QueryEvalActor

    up, fresh, _ = upserted_and_fresh
    docs = sorted(pads.dataset(os.path.join(fresh, "doc_stats"),
                               format="parquet")
                  .to_table(columns=["doc_int"])["doc_int"].to_pylist())
    assert docs == sorted(pads.dataset(os.path.join(up, "doc_stats"),
                                       format="parquet")
                          .to_table(columns=["doc_int"])["doc_int"]
                          .to_pylist())
    for d in docs[::23]:
        got, exp = more_like_this(up, d), more_like_this(fresh, d)
        assert exp.num_rows > 0
        assert got.to_pylist() == exp.to_pylist(), d

    queries = pa.table({"query": ["xylophone marker", "search engine index",
                                  "return value", "zzzznotaterm"]})
    got = QueryEvalActor(up, "rocchio")(queries).to_pandas()
    exp = QueryEvalActor(fresh, "rocchio")(queries).to_pandas()
    assert len(exp) > 0
    pd.testing.assert_frame_equal(got, exp)
