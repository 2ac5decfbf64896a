"""Round-trip property tests for the posting-list codec (SURVEY.md §7.1.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadry_search_engine_be_ray.functions import codec
from nadry_search_engine_be_ray.stages.encode import (
    decode_docs_column, decode_docs_stream, decode_tfs_column,
    decode_tfs_stream, doc_ordinals, encode_docs_column, encode_docs_stream,
    encode_tfs_stream, merge_runs, row_bounds)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert np.array_equal(codec.decode_varints(codec.encode_varints(arr)), arr)


@given(st.sets(st.integers(min_value=0, max_value=2**63), max_size=300))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(vals):
    arr = np.array(sorted(vals), dtype=np.uint64)
    assert np.array_equal(
        codec.decode_sorted_deltas(codec.encode_sorted_deltas(arr)), arr
    )


def test_varint_boundaries():
    edge = np.array(
        [0, 1, 127, 128, 16383, 16384, 2**32 - 1, 2**63, 2**64 - 1],
        dtype=np.uint64,
    )
    assert np.array_equal(codec.decode_varints(codec.encode_varints(edge)), edge)


def test_small_values_one_byte():
    arr = np.arange(128, dtype=np.uint64)
    assert len(codec.encode_varints(arr)) == 128


def _encoded_run(docs, tfs, weights, payloads, docs_codec="varint"):
    """One term row's (docs, tfs, weights, positions, pos_offsets) bytes."""
    offs = np.zeros(len(payloads) + 1, dtype=np.uint64)
    np.cumsum([len(p) for p in payloads], out=offs[1:])
    return (
        encode_docs_stream(np.asarray(docs, dtype=np.uint64), docs_codec),
        encode_tfs_stream(np.asarray(tfs, dtype=np.uint64), docs_codec),
        codec.encode_f64(np.asarray(weights, dtype=np.float64)),
        b"".join(payloads),
        encode_docs_stream(offs, docs_codec),
    )


@given(
    docs=st.sets(st.integers(min_value=0, max_value=2**60), min_size=2,
                 max_size=80),
    n_runs=st.integers(min_value=2, max_value=4),
    interleave=st.booleans(),
    docs_codec=st.sampled_from(["varint", "bitpack", "ef"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_merge_runs_equals_single_sorted_run(docs, n_runs, interleave,
                                             docs_codec, seed):
    """Splitting a posting list into 2-4 varint runs — ascending doc ranges
    (a build's salt runs) or interleaved at random (a cross-index merge) —
    and merging them gives the single sorted run: its docs, and the bytes
    of its other cells encoded directly; a doc_int shared by two runs
    raises."""
    rng = np.random.default_rng(seed)
    docs = sorted(docs)
    n = len(docs)
    n_runs = min(n_runs, n)
    tfs = rng.integers(1, 9, n)
    weights = rng.random(n) * 7
    payloads = [rng.integers(0, 256, rng.integers(1, 7)).astype(np.uint8)
                .tobytes() for _ in range(n)]
    if interleave:
        label = rng.integers(0, n_runs, n)
        label[rng.permutation(n)[:n_runs]] = np.arange(n_runs)
        members = [np.flatnonzero(label == r) for r in rng.permutation(n_runs)]
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), n_runs - 1, replace=False))
        members = np.split(np.arange(n), cuts)

    def runs(groups):
        cols = [(np.array([docs[i] for i in g], dtype=np.int64),
                 *_encoded_run([docs[i] for i in g], tfs[g], weights[g],
                               [payloads[i] for i in g])[1:])
                for g in groups]
        return [list(c) for c in zip(*cols)]

    got = merge_runs(*runs(members), docs_codec)
    assert got[0].tolist() == docs
    assert got[1:] == (
        *_encoded_run(docs, tfs, weights, payloads, docs_codec)[1:], n)

    # the same doc_int in two runs is a merge of non-disjoint indexes
    a, b = members[0], members[1]
    dup = [np.sort(np.append(b, a[0])) if k == 1 else g
           for k, g in enumerate(members)]
    with pytest.raises(ValueError):
        merge_runs(*runs(dup), docs_codec)


def test_positions_roundtrip():
    docs = [
        [(0, np.array([0, 1, 5])), (2, np.array([3]))],
        [(1, np.array([2, 7, 8, 9]))],
        [],
        [(0, np.array([0])), (1, np.array([1])), (2, np.array([0, 10]))],
    ]
    buf = codec.encode_positions(docs)
    back = codec.decode_positions(buf, len(docs))
    assert len(back) == 4
    assert np.array_equal(back[0][0], [0, 1, 5])
    assert np.array_equal(back[0][2], [3])
    assert 1 not in back[0]
    assert np.array_equal(back[1][1], [2, 7, 8, 9])
    assert back[2] == {}
    assert np.array_equal(back[3][2], [0, 10])


def test_f64_roundtrip():
    w = np.array([0.0, 1.5, 3.0, 1e-300, 1e300])
    assert np.array_equal(codec.decode_f64(codec.encode_f64(w)), w)


# ---------------------------------------------------------------------------
# frame-of-reference bit packing (posting_codec_sizes' codec)
# ---------------------------------------------------------------------------


def test_bitpack_roundtrip_sizes_and_boundaries():
    rng = np.random.default_rng(11)
    for n in [0, 1, 2, 127, 128, 129, 255, 256, 1000, 4096]:
        for hi in [2, 1 << 8, 1 << 20, 1 << 40, 1 << 63]:
            v = rng.integers(0, hi, size=n).astype(np.uint64)
            enc = codec.encode_bitpack(v)
            assert len(enc) == codec.bitpack_nbytes(v)
            assert np.array_equal(codec.decode_bitpack(enc), v)


def test_bitpack_zero_and_mixed_width_blocks():
    z = np.zeros(300, dtype=np.uint64)
    assert np.array_equal(codec.decode_bitpack(codec.encode_bitpack(z)), z)
    # varint(128) count = 2 bytes + zero-width block header byte, 0 payload
    assert codec.bitpack_nbytes(np.zeros(128, dtype=np.uint64)) == 2 + 1
    v = np.concatenate([
        np.zeros(128, dtype=np.uint64),
        np.full(128, 2**60, dtype=np.uint64),
        np.arange(50, dtype=np.uint64),
    ])
    assert np.array_equal(codec.decode_bitpack(codec.encode_bitpack(v)), v)


def test_bitpack_sorted_delta_variant():
    rng = np.random.default_rng(12)
    docs = np.unique(rng.integers(0, 1 << 30, size=5000).astype(np.uint64))
    enc = codec.encode_sorted_bitpack(docs)
    assert np.array_equal(codec.decode_sorted_bitpack(enc), docs)
    # delta-gap packing of sorted ids beats packing the absolutes
    assert len(enc) < len(codec.encode_bitpack(docs))


def test_bitpack_property_roundtrip():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                 min_size=0, max_size=400)
    )
    def _prop(xs):
        v = np.array(xs, dtype=np.uint64)
        enc = codec.encode_bitpack(v)
        assert len(enc) == codec.bitpack_nbytes(v)
        assert np.array_equal(codec.decode_bitpack(enc), v)

    _prop()


def test_ef_roundtrip_boundaries():
    """Elias-Fano: edge shapes — empty, singletons (incl. 0 and the 63-bit
    max), duplicates (non-decreasing is allowed), dense 0..n-1 (l = 0) and
    sparse streams — must round-trip, and the analytic size must equal the
    encoder's output length in every case."""
    cases = [
        np.array([], dtype=np.uint64),
        np.array([0], dtype=np.uint64),
        np.array([1 << 62], dtype=np.uint64),
        np.array([0, 0, 0], dtype=np.uint64),
        np.array([7, 7, 9, 9, 9, 10], dtype=np.uint64),
        np.arange(1000, dtype=np.uint64),              # u < n -> l = 0
        np.arange(1000, dtype=np.uint64) * 100 + 3,
        np.array([0, (1 << 62) - 1, 1 << 62], dtype=np.uint64),
    ]
    for v in cases:
        enc = codec.encode_ef(v)
        assert len(enc) == codec.ef_nbytes(v), v[:4]
        assert np.array_equal(codec.decode_ef(enc), v), v[:4]


def test_ef_beats_varint_floor_on_dense_streams():
    """On a dense sorted id stream EF approaches 2 bits/value while varint
    pays its 1-byte floor — the reason the write-once tier exists."""
    rng = np.random.default_rng(5)
    docs = np.sort(rng.choice(1 << 20, size=200_000, replace=False)
                   ).astype(np.uint64)
    ef = len(codec.encode_ef(docs))
    varint = len(codec.encode_sorted_deltas(docs))
    assert ef < varint
    # ~ n*(2 + log2(u/n)) bits: within 20% of the EF bound here
    import math
    bound_bits = docs.size * (2 + math.log2(int(docs[-1]) / docs.size))
    assert ef * 8 < bound_bits * 1.2


def test_ef_property_roundtrip():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1),
                 min_size=0, max_size=400)
    )
    def _prop(xs):
        v = np.sort(np.array(xs, dtype=np.uint64))
        enc = codec.encode_ef(v)
        assert len(enc) == codec.ef_nbytes(v)
        assert np.array_equal(codec.decode_ef(enc), v)

    _prop()


def test_positions_flat_matches_dict_decode():
    """decode_doc_positions_flat must emit exactly the dict API's values,
    grouped by field with (doc, pos) order inside each field block."""
    rng = np.random.default_rng(21)
    docs = []
    for _ in range(200):
        fields = []
        for f in range(3):
            if rng.random() < 0.6:
                k = int(rng.integers(1, 8))
                pos = np.unique(rng.integers(0, 500, size=k)).astype(np.int64)
                fields.append((f, pos))
        docs.append(fields)
    buf, offsets = codec.encode_positions_indexed(docs)
    di = np.arange(len(docs), dtype=np.int64)[::3]  # every 3rd doc
    d, f, p = codec.decode_doc_positions_flat(buf, offsets, di)
    expected = codec.decode_doc_positions_many(buf, offsets, di)
    # rebuild the dicts from the flat triples
    got: dict[int, dict[int, list[int]]] = {}
    for dd, ff, pp in zip(d.tolist(), f.tolist(), p.tolist()):
        got.setdefault(dd, {}).setdefault(ff, []).append(pp)
    for k_rank, fields in enumerate(expected):
        gf = got.get(k_rank, {})
        assert set(gf) == set(fields), k_rank
        for ff, pos in fields.items():
            assert gf[ff] == pos.tolist(), (k_rank, ff)
    # empty selection
    d, f, p = codec.decode_doc_positions_flat(buf, offsets,
                                              np.empty(0, np.int64))
    assert d.size == f.size == p.size == 0


def _column_views(col):
    """The column as written, a slice of it (non-zero Arrow ``offset``)
    and the same rows split over three chunks, each with its row range."""
    import pyarrow as pa

    n = len(col)
    a, b = n // 3, 2 * n // 3
    return [
        (col, 0, n),
        (col.slice(1, n - 2), 1, n - 1),
        (pa.chunked_array([col.slice(0, a), col.slice(a, b - a),
                           col.slice(b)]), 0, n),
    ]


@given(
    rows=st.lists(st.sets(st.integers(min_value=0, max_value=2**60),
                          min_size=1, max_size=40),
                  min_size=3, max_size=40),
    docs_codec=st.sampled_from(["varint", "bitpack", "ef"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_column_decode_equals_per_row_stream_decode(rows, docs_codec, seed):
    """Decoding a whole docs/tfs/pos_offsets column at once gives each
    row's ``decode_*_stream`` values, concatenated, with row bounds at the
    per-row counts — for plain, sliced and chunked Arrow columns."""
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    docs = [np.array(sorted(r), dtype=np.uint64) for r in rows]
    tfs = [rng.integers(1, 300, d.size).astype(np.uint64) for d in docs]
    offs = [np.concatenate([[0], np.cumsum(rng.integers(1, 9, d.size))]
                           ).astype(np.uint64) for d in docs]
    counts = np.array([d.size for d in docs])
    for vals, enc, dec, col_dec, col_enc, extra in [
        (docs, encode_docs_stream, decode_docs_stream, decode_docs_column,
         encode_docs_column, 0),
        (offs, encode_docs_stream, decode_docs_stream, decode_docs_column,
         encode_docs_column, 1),
        (tfs, encode_tfs_stream, decode_tfs_stream, decode_tfs_column,
         None, 0),
    ]:
        col = pa.array([enc(v, docs_codec) for v in vals], pa.binary())
        if col_enc is not None:
            # the column encoder writes each row's stream bytes, so its
            # column decodes back to the values
            assert col_enc(np.concatenate(vals),
                           row_bounds(counts + extra), docs_codec).equals(col)
        for view, lo, hi in _column_views(col):
            got, bounds = col_dec(view, counts[lo:hi] + extra, docs_codec)
            per_row = [dec(col[i].as_py(), docs_codec) for i in range(lo, hi)]
            assert np.array_equal(got, np.concatenate(per_row))
            assert got.dtype == np.uint64
            for i, r in enumerate(per_row):
                assert np.array_equal(got[bounds[i]:bounds[i + 1]], r)


@pytest.mark.parametrize("docs_codec", ["varint", "bitpack"])
def test_column_decode_edges(docs_codec):
    """df=1 rows, 10-byte varints and 2**64-1: the column's single cumsum
    wraps mod 2**64 and the per-row subtraction still gives exact values;
    a count that disagrees with the bytes raises."""
    import pyarrow as pa

    docs = [np.array([2**64 - 1], dtype=np.uint64),
            np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
            np.array([2**63 + 5], dtype=np.uint64),
            np.array([7], dtype=np.uint64)]
    tfs = [np.array([2**64 - 1], dtype=np.uint64),
           np.array([1, 2**63, 3], dtype=np.uint64),
           np.array([1], dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64)]
    counts = [d.size for d in docs]
    if docs_codec == "varint":
        assert len(encode_docs_stream(docs[0], docs_codec)) == 10
    dcol = pa.array([encode_docs_stream(d, docs_codec) for d in docs])
    tcol = pa.array([encode_tfs_stream(t, docs_codec) for t in tfs])
    for view, lo, hi in _column_views(dcol):
        got, bounds = decode_docs_column(view, counts[lo:hi], docs_codec)
        assert np.array_equal(got, np.concatenate(docs[lo:hi]))
        assert bounds.tolist() == np.cumsum([0] + counts[lo:hi]).tolist()
    for view, lo, hi in _column_views(tcol):
        got, _ = decode_tfs_column(view, counts[lo:hi], docs_codec)
        assert np.array_equal(got, np.concatenate(tfs[lo:hi]))
    with pytest.raises(ValueError):
        decode_docs_column(dcol, [1, 3, 1, 2], docs_codec)


@pytest.mark.parametrize("docs_codec", ["varint", "bitpack", "ef"])
def test_docs_column_ordinal_roundtrip(docs_codec):
    """Doc ints stored through the tier's sorted doc-int map: their
    ordinals coded as one column equal each row's ordinals coded alone,
    df=1 rows included, and the map-aware decode gives back the sorted
    int64 doc ints.  A doc missing from the map and an ordinal past its
    end both raise."""
    import pyarrow as pa

    rng = np.random.default_rng(7)
    doc_ints = np.sort(rng.choice(2**60, 400, replace=False)).astype(np.int64)
    rows = [doc_ints[:1], doc_ints[-1:], doc_ints[::3], doc_ints[5:6],
            np.sort(rng.choice(doc_ints, 50, replace=False)), doc_ints]
    counts = [r.size for r in rows]
    bounds = row_bounds(counts)
    col = encode_docs_column(doc_ordinals(doc_ints, np.concatenate(rows)),
                             bounds, docs_codec)
    assert col.to_pylist() == [
        encode_docs_stream(np.searchsorted(doc_ints, r).astype(np.uint64),
                           docs_codec) for r in rows]
    for view, lo, hi in _column_views(col):
        got, b = decode_docs_column(view, counts[lo:hi], docs_codec, doc_ints)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.concatenate(rows[lo:hi]))
        assert b.tolist() == row_bounds(counts[lo:hi]).tolist()
    with pytest.raises(ValueError):
        doc_ordinals(doc_ints, np.array([doc_ints[3] + 1]))
    with pytest.raises(IndexError):
        decode_docs_column(col, counts, docs_codec, doc_ints[:100])
