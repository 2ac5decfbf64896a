"""End-to-end conformance: Ray-built segments vs the single-process oracle.

The oracle transcribes the reference's indexer semantics row-at-a-time
(SURVEY.md §5); the engine must reproduce the exact same postings —
doc sets, per-doc tf, field-boosted weights, per-field positions — through
the distributed prep → tokenize → shuffle → encode → merge path.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from nadry_search_engine_be_ray.state.segments import SegmentReader


@pytest.fixture(scope="module")
def reader(built_index):
    return SegmentReader(built_index)


def _oracle_doc_int(doc_id_hex: str) -> int:
    return int(doc_id_hex[:15], 16)


def test_doc_counts_match(reader, oracle_index):
    assert reader.stats["n_docs"] == len(oracle_index.documents)
    # total_words agree globally
    oracle_tw = sum(d["total_words"] for d in oracle_index.documents.values())
    assert reader.stats["total_words"] == oracle_tw


def test_term_dictionary_matches(reader, oracle_index):
    engine_terms = set(reader.terms())
    oracle_terms = set(oracle_index.index.keys())
    assert engine_terms == oracle_terms


@pytest.mark.parametrize(
    "term",
    ["import", "return", "def", "nation", "item", "order", "arriv",
     "_email_", "src", "py", "num:42", "email:test@example.com"],
)
def test_postings_match_oracle(reader, oracle_index, term):
    oracle_postings = oracle_index.index.get(term, {})
    pl = reader.postings(term)
    if not oracle_postings:
        assert pl is None
        return
    assert pl is not None

    expected = {
        _oracle_doc_int(doc_id): p for doc_id, p in oracle_postings.items()
    }
    got_docs = pl.docs.tolist()
    assert got_docs == sorted(expected)
    # strictly increasing (delta-gap precondition) across merged salt runs
    assert all(b > a for a, b in zip(got_docs, got_docs[1:]))

    for i, di in enumerate(got_docs):
        op = expected[di]
        assert int(pl.tfs[i]) == op.frequency()
        assert pl.weights[i] == pytest.approx(op.weight, abs=0)
        got_fields = pl.positions_for(i)
        exp_fields = {f: list(v) for f, v in op.field_positions.items() if v}
        assert {f: v.tolist() for f, v in got_fields.items()} == exp_fields


def test_dedup_kept_min_doc_id(reader, oracle_index, built_index):
    # duplicates existed in the corpus (1 in 50 rows); the engine and oracle
    # must agree on the kept doc for every duplicated content sha
    import pyarrow.dataset as pads

    losers = pads.dataset(
        os.path.join(built_index, "dup_losers"), format="parquet"
    ).to_table()
    assert losers.num_rows > 0
    oracle_ints = {
        _oracle_doc_int(d): d for d in oracle_index.documents
    }
    for di in losers["doc_int"].to_pylist():
        assert di not in oracle_ints


def test_content_sha_invariant(built_index, tiny_corpus_dir):
    # per-row invariant (BASELINE.json input_hint): content sha256 carried
    # through the documents table equals sha256 of the raw corpus content
    import pyarrow.dataset as pads

    prepped = pads.dataset(
        os.path.join(built_index, "prepped"), format="parquet"
    ).to_table(columns=["content", "content_sha256"])
    for content, sha in zip(
        prepped["content"].to_pylist()[:100], prepped["content_sha256"].to_pylist()[:100]
    ):
        assert hashlib.sha256(content.encode()).digest() == sha


def test_build_is_resumable(built_index, tiny_corpus_dir, ray_session,
                            assert_one_row_per_term):
    # rerunning build_index over a completed dir must skip all phases; the
    # dedup exchange is gone once its one reader (the losers phase) is done
    import time

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index

    assert not os.path.exists(os.path.join(built_index, "dedup_parts"))
    with open(os.path.join(built_index, "manifest.json")) as f:
        before = json.load(f)["phases"]
    t0 = time.time()
    manifest = build_index(tiny_corpus_dir, built_index, BuildConfig(num_shards=4, salt_bits=1))
    assert time.time() - t0 < 5.0  # no phase re-ran
    assert manifest["phases"] == before
    assert set(manifest["phases"]) >= {"prep", "losers", "postings", "segments"}
    assert not os.path.exists(os.path.join(built_index, "dedup_parts"))
    assert_one_row_per_term(built_index)
    with open(os.path.join(built_index, "stats.json")) as f:
        stats = json.load(f)
    assert stats["n_docs"] > 0


def test_term_rows_match_segments(built_index,
                                  assert_term_rows_match_segments):
    """The built index keeps no tokenize exchange, and re-tokenizing its
    stored docs gives back every term's postings and positions."""
    assert_term_rows_match_segments(built_index)


def test_unmerged_segment_layout_is_refused(built_index, tmp_path):
    """An index whose stats.json says ``compacted: false`` holds unmerged
    salt runs that nothing reads: opening it fails loudly instead of
    serving an empty dictionary."""
    from nadry_search_engine_be_ray.state.segments import segment_root

    with open(os.path.join(built_index, "stats.json")) as f:
        stats = json.load(f)
    with open(tmp_path / "stats.json", "w") as f:
        json.dump({**stats, "compacted": False}, f)
    with pytest.raises(ValueError, match="compacted: false"):
        segment_root(str(tmp_path))
    with pytest.raises(ValueError, match="compacted: false"):
        SegmentReader(str(tmp_path))
    assert segment_root(built_index) == os.path.join(built_index,
                                                     "segments_merged")


def test_segments_without_doc_int_map_are_refused(built_index, tmp_path):
    """A v7-layout tier stores doc_int gaps and has no ``_doc_ints`` map
    beside its shards: opening it fails with the rebuild message instead
    of reading ordinals that do not exist, and the built index carries
    the map."""
    import shutil

    from nadry_search_engine_be_ray.state.segments import segment_root

    shutil.copy(os.path.join(built_index, "stats.json"), tmp_path)
    shutil.copytree(os.path.join(built_index, "segments_merged"),
                    tmp_path / "segments_merged",
                    ignore=shutil.ignore_patterns("_doc_ints"))
    for open_tier in (segment_root, SegmentReader):
        with pytest.raises(ValueError, match="_doc_ints.*rebuild the index"):
            open_tier(str(tmp_path))
    assert os.path.isfile(os.path.join(segment_root(built_index),
                                       "_doc_ints"))


def test_built_index_doc_ordinals(built_index, assert_doc_ordinals):
    assert_doc_ordinals(built_index)


def test_batched_position_decode_matches_single(built_index, ray_session):
    import numpy as np

    reader = SegmentReader(built_index)
    checked = 0
    for term in list(reader.terms()):
        pl = reader.postings(term)
        if pl.df < 3:
            continue
        idx = np.arange(pl.df)
        many = pl.positions_for_many(idx)
        for i in range(pl.df):
            single = pl.positions_for(i)
            assert single.keys() == many[i].keys()
            for f in single:
                assert single[f].tolist() == many[i][f].tolist()
        checked += 1
        if checked >= 10:
            break
    assert checked >= 5


def test_resume_after_partial_phase_crash(tiny_corpus_dir, ray_session, tmp_path):
    """A phase dir left WITHOUT its _DONE marker (crash mid-write) must be
    rebuilt from scratch, not appended to — duplicated rows would corrupt
    postings silently.  The tokenize exchange (``postings/``) is gone after
    each build: the resume re-tokenizes, since the segments are not done."""
    import shutil

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    cfg = BuildConfig(num_shards=4, salt_bits=1)
    idx_a = str(tmp_path / "full")
    build_index(tiny_corpus_dir, idx_a, cfg)
    ref_stats = json.load(open(os.path.join(idx_a, "stats.json")))

    # simulate a crash: segment phase COMPLETE files but no marker
    idx_b = str(tmp_path / "crashed")
    build_index(tiny_corpus_dir, idx_b, cfg)
    assert not os.path.exists(os.path.join(idx_b, "postings"))
    for phase in ("segments_merged", "doc_stats"):
        os.remove(os.path.join(idx_b, phase, "_DONE"))
    os.remove(os.path.join(idx_b, "stats.json"))
    build_index(tiny_corpus_dir, idx_b, cfg)
    assert not os.path.exists(os.path.join(idx_b, "postings"))

    got_stats = json.load(open(os.path.join(idx_b, "stats.json")))
    assert got_stats["n_docs"] == ref_stats["n_docs"]
    assert got_stats["total_words"] == ref_stats["total_words"]
    assert got_stats["n_term_rows"] == ref_stats["n_term_rows"]

    ra, rb = SegmentReader(idx_a), SegmentReader(idx_b)
    assert set(ra.terms()) == set(rb.terms())
    for term in list(ra.terms())[:25]:
        pa_, pb_ = ra.postings(term), rb.postings(term)
        assert pa_.docs.tolist() == pb_.docs.tolist()
        assert pa_.tfs.tolist() == pb_.tfs.tolist()
    shutil.rmtree(idx_a, ignore_errors=True)
    shutil.rmtree(idx_b, ignore_errors=True)


def test_posting_codec_sizes_matches_local_recompute(built_index):
    """The distributed actor-pool size scan must equal a driver-local
    recompute from the same decoded posting lists (and bitpack must win
    on the dense gap streams it is designed for)."""
    import numpy as np

    from nadry_search_engine_be_ray.functions.codec import (
        _varint_nbytes, bitpack_nbytes, ef_nbytes, encode_sorted_bitpack)
    from nadry_search_engine_be_ray.pipelines.build import posting_codec_sizes
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    out = posting_codec_sizes(built_index, concurrency=2, batch_size=64)
    r = SegmentReader(built_index)
    assert out.num_rows == len(list(r.terms()))
    got = {
        t: (d, v, b, e, tv, tb)
        for t, d, v, b, e, tv, tb in zip(
            out["term"].to_pylist(), out["df"].to_pylist(),
            out["varint_bytes"].to_pylist(), out["bitpack_bytes"].to_pylist(),
            out["ef_bytes"].to_pylist(),
            out["tfs_varint_bytes"].to_pylist(),
            out["tfs_bitpack_bytes"].to_pylist())
    }
    for t in list(r.terms())[:50]:
        pl = r.postings(t)
        docs = pl.docs.astype(np.uint64)
        tfs = pl.tfs.astype(np.uint64)
        gaps = np.diff(docs, prepend=np.uint64(0)).astype(np.uint64)
        hdr = int(_varint_nbytes(np.array([docs.size], dtype=np.uint64))[0])
        exp = (docs.size, hdr + int(_varint_nbytes(gaps).sum()),
               len(encode_sorted_bitpack(docs)),
               ef_nbytes(docs),
               hdr + int(_varint_nbytes(tfs).sum()),
               bitpack_nbytes(tfs))
        assert got[t] == exp, t

    # dense_remap: docs first mapped to their rank in the doc universe —
    # recompute the rank locally and check one term's whole row
    import os

    import pyarrow.dataset as pads

    dense = posting_codec_sizes(built_index, concurrency=2, batch_size=64,
                                dense_remap=True)
    assert dense.num_rows == out.num_rows
    universe = np.sort(pads.dataset(
        os.path.join(built_index, "doc_stats"), format="parquet"
    ).to_table(columns=["doc_int"])["doc_int"].to_numpy(
        zero_copy_only=False).astype(np.int64))
    got_d = {
        t: (v, e) for t, v, e in zip(dense["term"].to_pylist(),
                                     dense["varint_bytes"].to_pylist(),
                                     dense["ef_bytes"].to_pylist())
    }
    for t in list(r.terms())[:20]:
        docs = np.searchsorted(
            universe, r.postings(t).docs).astype(np.uint64)
        gaps = np.diff(docs, prepend=np.uint64(0)).astype(np.uint64)
        hdr = int(_varint_nbytes(
            np.array([docs.size], dtype=np.uint64))[0])
        assert got_d[t] == (hdr + int(_varint_nbytes(gaps).sum()),
                            ef_nbytes(docs)), t
    # the remap tightens gaps: aggregate streams must shrink
    assert (sum(dense["varint_bytes"].to_pylist())
            < sum(out["varint_bytes"].to_pylist()))


import pytest as _pytest


@_pytest.mark.parametrize("codec_name", ["bitpack", "ef"])
def test_whole_stream_docs_codec_build_is_query_identical(tiny_corpus_dir,
                                                          built_index,
                                                          tmp_path_factory,
                                                          codec_name):
    """A build with a write-once final-tier codec (docs_codec='bitpack' FOR
    block code, or 'ef' Elias-Fano) must serve posting lists IDENTICAL to
    the default varint build — docs, tfs, weights and positions all equal
    per term — and stats.json must record the codec so readers
    pick the right decoder."""
    import json
    import os

    import numpy as np

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    idx = str(tmp_path_factory.mktemp(f"index_{codec_name}"))
    cfg = BuildConfig(num_shards=4, salt_bits=1, docs_codec=codec_name)
    build_index(tiny_corpus_dir, idx, cfg)
    with open(os.path.join(idx, "stats.json")) as f:
        assert json.load(f)["docs_codec"] == codec_name

    a, b = SegmentReader(built_index), SegmentReader(idx)
    terms_a, terms_b = set(a.terms()), set(b.terms())
    assert terms_a == terms_b and terms_a
    for t in sorted(terms_a):
        pa_, pb = a.postings(t), b.postings(t)
        assert np.array_equal(pa_.docs, pb.docs), t
        assert np.array_equal(pa_.tfs, pb.tfs), t
        assert np.array_equal(pa_.weights, pb.weights), t
        assert pa_.positions_buf == pb.positions_buf, t
        assert np.array_equal(pa_.pos_offsets, pb.pos_offsets), t


@_pytest.mark.parametrize("codec_name", ["bitpack", "ef"])
def test_whole_stream_docs_codec_requires_compaction(tiny_corpus_dir,
                                                     built_index,
                                                     tmp_path_factory,
                                                     assert_one_row_per_term,
                                                     codec_name):
    """A write-once codec encodes a term's whole doc stream as one block,
    so the build must merge every salt run of a term into that one row:
    with four salts per term, each term still has exactly one row whose
    stream holds every doc of the term, and the same index marked
    ``compacted: false`` is refused rather than read."""
    import shutil

    import pytest

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index

    idx = str(tmp_path_factory.mktemp(f"index_{codec_name}_salted"))
    build_index(tiny_corpus_dir, idx,
                BuildConfig(num_shards=2, salt_bits=2, docs_codec=codec_name))
    assert_one_row_per_term(idx)

    a, b = SegmentReader(built_index), SegmentReader(idx)
    assert set(a.terms()) == set(b.terms())
    for t in sorted(a.terms()):
        pa_, pb = a.postings(t), b.postings(t)
        assert b.df(t) == pb.df == len(pb.docs) == a.df(t), t
        assert np.array_equal(pa_.docs, pb.docs), t
        assert np.array_equal(pa_.tfs, pb.tfs), t

    bad = str(tmp_path_factory.mktemp(f"index_{codec_name}_unmerged"))
    shutil.copytree(idx, bad, dirs_exist_ok=True)
    with open(os.path.join(bad, "stats.json")) as f:
        stats = json.load(f)
    with open(os.path.join(bad, "stats.json"), "w") as f:
        json.dump({**stats, "compacted": False}, f)
    with pytest.raises(ValueError, match="compacted: false"):
        SegmentReader(bad)


@_pytest.mark.parametrize("codec_name", ["bitpack", "ef"])
def test_merge_indexes_refuses_whole_stream_sources(tiny_corpus_dir,
                                                    tmp_path_factory,
                                                    codec_name):
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index
    from nadry_search_engine_be_ray.pipelines.merge import merge_indexes

    ia = str(tmp_path_factory.mktemp(f"index_{codec_name}_a"))
    cfg = BuildConfig(num_shards=2, salt_bits=1, docs_codec=codec_name)
    build_index(tiny_corpus_dir, ia, cfg)
    out = str(tmp_path_factory.mktemp(f"index_{codec_name}_merged"))
    try:
        merge_indexes([ia, ia], out)
        raise AssertionError(
            f"expected merge_indexes to refuse {codec_name}")
    except AssertionError as e:
        assert "varint" in str(e)


def test_champion_lists_matches_full_sort(built_index):
    """champion_lists' per-term top-m must equal sorting the FULL decoded
    posting list by (weight desc, doc asc), and every champion weight must
    be >= the best non-champion weight (the tier-1 guarantee)."""
    import numpy as np

    from nadry_search_engine_be_ray.pipelines.build import champion_lists
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    m = 2
    out = champion_lists(built_index, m=m, concurrency=2, batch_size=64)
    r = SegmentReader(built_index)
    got: dict[str, list] = {}
    for t, d, w, k in zip(out["term"].to_pylist(),
                          out["doc_int"].to_pylist(),
                          out["weight"].to_pylist(),
                          out["w_rank"].to_pylist()):
        got.setdefault(t, []).append((k, d, w))
    assert set(got) == set(r.terms())
    for t in list(r.terms())[:60]:
        pl = r.postings(t)
        order = np.lexsort((pl.docs, -pl.weights))
        exp = [
            (i + 1, int(pl.docs[j]), float(np.round(pl.weights[j], 9)))
            for i, j in enumerate(order[:m])
        ]
        assert sorted(got[t]) == exp, t
        if pl.df > m:
            worst_champion = min(w for _, _, w in got[t])
            best_rest = float(np.max(pl.weights[order[m:]]))
            assert worst_champion >= np.round(best_rest, 9), t


def test_index_lineage_per_shard_accounting(built_index):
    """index_lineage's per-shard counts must tie out: shard rows sum to
    the total row, n_terms == dictionary size, n_postings == sum of df
    over terms, and byte footprints equal the raw payload octet lengths
    read directly from the segment parquet."""
    import os

    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.build import index_lineage
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    out = index_lineage(built_index).to_pandas()
    assert list(out["shard"])[0] == -1
    total = out.iloc[0]
    shards = out.iloc[1:]
    for c in ["n_terms", "n_postings", "docs_bytes", "tfs_bytes",
              "weights_bytes", "positions_bytes"]:
        assert int(shards[c].sum()) == int(total[c]), c

    r = SegmentReader(built_index)
    terms = list(r.terms())
    assert int(total["n_terms"]) == len(terms)
    assert int(total["n_postings"]) == sum(
        int(r.postings(t).df) for t in terms
    )

    seg_root = os.path.join(built_index, "segments_merged")
    if not os.path.isdir(seg_root):
        seg_root = os.path.join(built_index, "segments")
    seg = pads.dataset(seg_root, format="parquet",
                       partitioning="hive").to_table(columns=["docs"])
    raw_docs_bytes = sum(len(b) for b in seg["docs"].to_pylist())
    assert int(total["docs_bytes"]) == raw_docs_bytes
