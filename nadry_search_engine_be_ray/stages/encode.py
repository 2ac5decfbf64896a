"""Encode stage: posting tuples -> compressed posting-list segment rows.

This is the reduce side of THE wide shuffle (SURVEY.md §2.5 A3): posting
tuples grouped by ``part`` (shard × doc-range salt), then within each group a
vectorized local sort + group-walk builds one encoded posting-list *run* per
term.  A term's complete posting list is the concatenation of its runs in
salt order (runs cover disjoint, ordered doc_int ranges), which the build's
per-shard merge (streaming k-way merge analog, north_rule) writes as the
term's one segment row.

Replaces the reference's merge-on-write design (InvertedIndex.java:47-214,
MongoDBIndexStore.java:278-324): no random-access upserts — the build is a
shuffle.

Segment row schema (:data:`SEGMENT_SCHEMA`; a posting is the reference's
``docId, fieldPositions, weight`` plus tf, InvertedIndex.java:216-281):
    shard:i32, salt:i32 (-1 once merged), term:str, df:i64,
    docs:binary   (sorted doc ordinals, delta-gap + varint; see below),
    tfs:binary    (per-doc total tf, varint),
    weights:binary (per-doc accumulated field weight, f64le),
    positions:binary (per-(doc,field) position lists, see codec),
    pos_offsets:binary (per-doc byte offsets into positions, delta+varint)
The merged row may re-encode docs/tfs/pos_offsets with a whole-stream
codec (``BuildConfig.docs_codec``).  This module owns the row: the build,
the cross-index merge (pipelines/merge.py) and the purge
(pipelines/deletes.py) all emit it through :func:`merge_shard_runs` or
:func:`join_docs`.

Doc ordinals.  A ``doc_int`` is a 60-bit hash prefix, so its gaps cost
8-9 varint bytes.  The final tier stores each doc as its ORDINAL instead:
its rank in the tier's own sorted doc-int map, ``segments_merged/_doc_ints``
(raw ``<i8``, 8 B/doc, equal to the sorted ``doc_int`` column of
``doc_stats``; the underscore keeps it out of every dataset scan).  Rank is
monotone, so ordinal gaps are dense and sorted rows stay sorted.
:func:`doc_ordinals` is the one place doc ints become ordinals and
:func:`decode_docs_column` the one place ordinals become doc ints again;
every caller above them sees sorted ``doc_int`` arrays.  The salt runs the
encode tasks stage keep ``doc_int`` gaps, since a task cannot know global
ranks; the per-shard merge re-codes them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import BuildConfig
from ..functions import codec
from ..stages.fieldsplit import FIELD_WEIGHTS

# field id -> boost, as a numpy lookup (TITLE 3.0 / DESCRIPTION 1.5 / BODY 1.0,
# indexer/InvertedIndex.java:18-32)
_FIELD_BOOSTS = np.array(
    [FIELD_WEIGHTS[f] for f in sorted(FIELD_WEIGHTS)], dtype=np.float64
)

SEGMENT_SCHEMA = pa.schema(
    [
        ("shard", pa.int32()),
        ("salt", pa.int32()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
        ("weights", pa.binary()),
        ("positions", pa.binary()),
        ("pos_offsets", pa.binary()),
    ]
)


# a split_docs ``rows`` table: the segment row without its docs cell
_ROWS_SCHEMA = SEGMENT_SCHEMA.remove(SEGMENT_SCHEMA.get_field_index("docs"))


def _empty_segment_table() -> pa.Table:
    return SEGMENT_SCHEMA.empty_table()


class EncodePartGroup:
    """``map_groups`` callable for ``groupby("part")``."""

    def __init__(self, config: BuildConfig | None = None):
        self.config = config or BuildConfig()

    def __call__(self, group: pa.Table) -> pa.Table:
        """Fully vectorized encode: no per-row Python.  The tokenize stage
        already shipped each row's positions as final ``[count][abs][deltas]``
        varint bytes (codec.encode_row_positions), so the per-doc payload is
        a 1-byte field mask (mask <= 7, so its varint IS the byte) followed
        by the doc's row payloads in field order — assembled here with one
        numpy byte gather, no re-encoding.  Weight = tf × field boost is
        recomputed (it never rides the shuffle)."""
        cfg = self.config
        if group.num_rows == 0:
            return _empty_segment_table()
        part = int(group["part"][0].as_py())
        n_salts = 1 << cfg.salt_bits
        shard, salt = part // n_salts, part % n_salts

        g = group.combine_chunks().sort_by(
            [("term", "ascending"), ("doc_int", "ascending"), ("field", "ascending")]
        ).combine_chunks()
        term_codes_arr = g["term"].combine_chunks().dictionary_encode()
        term_codes = term_codes_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        term_dict = term_codes_arr.dictionary.to_pylist()
        doc = g["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        field = g["field"].to_numpy(zero_copy_only=False).astype(np.int64)
        tf = g["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        weight = tf * _FIELD_BOOSTS[field]
        pos_arr = g["pos"].combine_chunks()
        ao = pos_arr.offset
        n = doc.size
        offs = np.frombuffer(pos_arr.buffers()[1], dtype=np.int32)[
            ao : ao + n + 1
        ].astype(np.int64)
        data = np.frombuffer(pos_arr.buffers()[2], dtype=np.uint8)
        row_lens = offs[1:] - offs[:-1]

        # ---- doc / term boundaries at row granularity ----
        nd = np.ones(n, dtype=bool)
        nd[1:] = (term_codes[1:] != term_codes[:-1]) | (doc[1:] != doc[:-1])
        doc_start_rows = np.flatnonzero(nd)
        n_docs = doc_start_rows.size
        didx = np.cumsum(nd) - 1                      # doc index per row

        uniq_doc = doc[doc_start_rows]
        term_of_doc = term_codes[doc_start_rows]
        tf_doc = np.add.reduceat(tf, doc_start_rows)
        w_doc = np.add.reduceat(weight, doc_start_rows)
        mask_doc = np.bitwise_or.reduceat(
            np.left_shift(np.int64(1), field), doc_start_rows
        )

        ntd = np.ones(n_docs, dtype=bool)
        ntd[1:] = term_of_doc[1:] != term_of_doc[:-1]
        term_doc_starts = np.flatnonzero(ntd)         # doc-index of term starts
        term_doc_ends = np.empty_like(term_doc_starts)
        term_doc_ends[:-1] = term_doc_starts[1:]
        term_doc_ends[-1] = n_docs

        # ---- per-doc payload = [1-byte mask][row payload bytes...] -------
        row_byte_cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_lens, out=row_byte_cum[1:])
        doc_end_rows = np.empty_like(doc_start_rows)
        doc_end_rows[:-1] = doc_start_rows[1:]
        doc_end_rows[-1] = n
        rows_per_doc = doc_end_rows - doc_start_rows
        doc_payload_len = 1 + (
            row_byte_cum[doc_end_rows] - row_byte_cum[doc_start_rows]
        )
        doc_byte_off = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(doc_payload_len, out=doc_byte_off[1:])
        total_bytes = int(doc_byte_off[-1])
        out_buf = np.empty(total_bytes, dtype=np.uint8)
        out_buf[doc_byte_off[:-1]] = mask_doc.astype(np.uint8)
        row_out_start = (
            np.repeat(doc_byte_off[:-1] + 1, rows_per_doc)
            + row_byte_cum[:-1]
            - np.repeat(row_byte_cum[doc_start_rows], rows_per_doc)
        )
        total_row_bytes = int(row_byte_cum[-1])
        if total_row_bytes:
            dst_idx = np.repeat(row_out_start, row_lens) + (
                np.arange(total_row_bytes) - np.repeat(row_byte_cum[:-1], row_lens)
            )
            out_buf[dst_idx] = data[offs[0] : offs[0] + total_row_bytes]
        payload_all = out_buf.tobytes()
        doc_byte_off = doc_byte_off[:-1]               # start byte per doc

        # ---- doc-gap and tf varint streams at doc granularity ----
        dd = uniq_doc.astype(np.uint64).copy()
        if n_docs > 1:
            dd[1:] = (uniq_doc[1:] - uniq_doc[:-1]).astype(np.uint64)
        dd[term_doc_starts] = uniq_doc[term_doc_starts].astype(np.uint64)
        nb_d = codec._varint_nbytes(dd)
        cum_d = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(nb_d, out=cum_d[1:])
        enc_docs = codec.encode_varints(dd)

        tfu = tf_doc.astype(np.uint64)
        nb_t = codec._varint_nbytes(tfu)
        cum_t = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(nb_t, out=cum_t[1:])
        enc_tfs = codec.encode_varints(tfu)

        # ---- assemble one output row per term (cheap slicing loop) ----
        out = {k: [] for k in SEGMENT_SCHEMA.names}
        for ts, te in zip(term_doc_starts, term_doc_ends):
            out["shard"].append(shard)
            out["salt"].append(salt)
            out["term"].append(term_dict[int(term_of_doc[ts])])
            out["df"].append(int(te - ts))
            out["docs"].append(enc_docs[cum_d[ts] : cum_d[te]])
            out["tfs"].append(enc_tfs[cum_t[ts] : cum_t[te]])
            out["weights"].append(codec.encode_f64(w_doc[ts:te]))
            start_b = int(doc_byte_off[ts])
            end_b = int(doc_byte_off[te]) if te < n_docs else total_bytes
            out["positions"].append(payload_all[start_b:end_b])
            offs = np.empty(te - ts + 1, dtype=np.int64)
            offs[:-1] = doc_byte_off[ts:te] - start_b
            offs[-1] = end_b - start_b
            # offsets are monotone with tiny gaps -> delta+varint shrinks
            # them ~6x (raw i64 offsets dominated segment size at scale)
            out["pos_offsets"].append(
                codec.encode_sorted_deltas(offs.astype(np.uint64))
            )

        return pa.Table.from_pydict(out, schema=SEGMENT_SCHEMA)


def encode_part_dirs(
    batch: pa.Table,
    cfg: BuildConfig | None = None,
    doc_stats_parts_dir: str | None = None,
) -> pa.Table:
    """Map-side encode over a storage-partitioned shuffle: ``batch`` holds
    rows (part:int, path:str); each part's posting tuples were already
    hash-partitioned into ``path`` by the tokenize phase's partitioned
    parquet write, so the wide exchange needs NO in-memory shuffle here —
    this task just reads its part directory and encodes (the MapReduce
    shuffle-via-storage pattern; also what makes the reduce side resumable
    per part).

    When ``doc_stats_parts_dir`` is set, the per-doc SENTINEL rows the
    tokenize stage routed into this part (field == SENTINEL_FIELD, exactly
    one per doc corpus-wide) are split off and written there as the final
    (doc_int, total_words) doc-stats partial (idempotent tmp+rename), so
    doc stats need no groupby of their own.
    """
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq_mod

    from .tokenize import SENTINEL_FIELD

    cfg = cfg or BuildConfig()
    enc = EncodePartGroup(cfg)
    outs = []
    for part, path in zip(batch["part"].to_pylist(), batch["path"].to_pylist()):
        t = pq_mod.read_table(path, use_threads=False)  # 1-CPU task: avoid pool oversubscription
        is_sent = pc.equal(t["field"], pa.scalar(SENTINEL_FIELD, pa.int8()))
        if doc_stats_parts_dir is not None:
            sent = t.filter(is_sent)
            partial_tbl = pa.table(
                {
                    "doc_int": sent["doc_int"],
                    "total_words": sent["tf"],  # sentinel rows carry totalWords in tf
                }
            )
            final = os.path.join(doc_stats_parts_dir, f"part-{part:05d}.parquet")
            tmp = final + ".tmp"
            pq_mod.write_table(partial_tbl, tmp)
            os.replace(tmp, final)
        t = t.filter(pc.invert(is_sent))
        t = t.append_column(
            "part", pa.array(np.full(t.num_rows, part, dtype=np.int32), pa.int32())
        )
        if t.num_rows:
            outs.append(enc(t))
    if not outs:
        return _empty_segment_table()
    return pa.concat_tables(outs)


def encode_docs_stream(docs: np.ndarray, docs_codec: str) -> bytes:
    """Encode one sorted stream (a row's doc ordinals or its pos_offsets)
    with the configured FINAL-tier codec (BuildConfig.docs_codec; the salt
    runs staged before the build's merge are always varint).
    The "ef" tier (Elias-Fano, codec.encode_ef) applies to the MONOTONE
    streams only — docs and pos_offsets; its tfs stream falls back to the
    FOR block code since tf values are unsorted."""
    if docs_codec == "bitpack":
        return codec.encode_sorted_bitpack(docs.astype(np.uint64))
    if docs_codec == "ef":
        return codec.encode_ef(docs.astype(np.uint64))
    return codec.encode_sorted_deltas(docs)


def decode_docs_stream(buf: bytes, docs_codec: str) -> np.ndarray:
    if docs_codec == "bitpack":
        return codec.decode_sorted_bitpack(buf)
    if docs_codec == "ef":
        return codec.decode_ef(buf)
    return codec.decode_sorted_deltas(buf)


def encode_tfs_stream(tfs: np.ndarray, docs_codec: str) -> bytes:
    """tf values are 1-3 bits wide, so the block code cuts this stream
    ~55% vs varint's 1-byte floor (BASELINE.md posting-codec table); no
    delta — tfs are unsorted (so the ef tier also block-packs here)."""
    if docs_codec in ("bitpack", "ef"):
        return codec.encode_bitpack(tfs.astype(np.uint64))
    return codec.encode_varints(tfs)


def decode_tfs_stream(buf: bytes, docs_codec: str) -> np.ndarray:
    if docs_codec in ("bitpack", "ef"):
        return codec.decode_bitpack(buf)
    return codec.decode_varints(buf)


def binary_column(col) -> tuple[np.ndarray, np.ndarray]:
    """``(data, offsets)`` of an Arrow binary column (Array or
    ChunkedArray, sliced or not): the rows' bytes end to end as one uint8
    array, and int64 row byte bounds into it (len = rows + 1).  One
    chunk is a zero-copy view."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    datas, offs, base = [], [np.zeros(1, dtype=np.int64)], 0
    for ch in chunks:
        if ch.null_count:
            raise ValueError("null in a segment payload column")
        _, ob, db = ch.buffers()
        o = np.frombuffer(
            ob, dtype=np.int64 if pa.types.is_large_binary(ch.type)
            else np.int32)[ch.offset: ch.offset + len(ch) + 1].astype(np.int64)
        datas.append(np.frombuffer(db, dtype=np.uint8)[o[0]: o[-1]]
                     if db is not None else np.empty(0, dtype=np.uint8))
        offs.append(o[1:] - o[0] + base)
        base += int(o[-1] - o[0])
    data = datas[0] if len(datas) == 1 else (
        np.concatenate(datas) if datas else np.empty(0, dtype=np.uint8))
    return data, np.concatenate(offs)


def _decode_column(col, counts, docs_codec: str, stream, sorted_deltas):
    """Shared body of :func:`decode_docs_column`/:func:`decode_tfs_column`:
    varint columns decode in ONE pass over the contiguous data buffer
    (each row's stream is self-delimiting); the block codes carry a header
    per row, so they decode row by row with the stream decoder."""
    counts = np.asarray(counts, dtype=np.int64)
    bounds = row_bounds(counts)
    data, offs = binary_column(col)
    if offs.size != bounds.size:
        raise ValueError("column rows != count rows")
    if docs_codec in ("bitpack", "ef"):
        parts = [stream(data[s:e], docs_codec)
                 for s, e in zip(offs[:-1].tolist(), offs[1:].tolist())]
        vals = (np.concatenate(parts) if parts
                else np.empty(0, dtype=np.uint64))
    else:
        vals = codec.decode_varints(data)
        if sorted_deltas and vals.size:
            # deltas restart at every row: one cumsum over the column, then
            # subtract each row's running total before it; uint64 wraps
            # mod 2**64, so the difference is exact
            cs = np.zeros(vals.size + 1, dtype=np.uint64)
            np.cumsum(vals, dtype=np.uint64, out=cs[1:])
            vals = cs[1:] - np.repeat(cs[bounds[:-1]], counts)
    if vals.size != bounds[-1]:
        raise ValueError("decoded values != summed row counts")
    return vals, bounds


def decode_docs_column(col, counts, docs_codec: str,
                       doc_ints: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole Arrow binary column of sorted-stream rows (``docs``,
    or ``pos_offsets`` with ``counts = df + 1``): returns the flat values
    and int64 row bounds (row i is ``vals[bounds[i]:bounds[i + 1]]``),
    equal to per-row :func:`decode_docs_stream` concatenated.  Values are
    uint64, or, given the tier's sorted ``doc_ints`` map, the ``docs``
    column's ordinals mapped back to int64 doc ints with one ``take``."""
    vals, bounds = _decode_column(col, counts, docs_codec,
                                  decode_docs_stream, True)
    if doc_ints is not None:
        vals = doc_ints[vals]  # an ordinal past the map raises IndexError
    return vals, bounds


def doc_ordinals(doc_ints: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """uint64 ranks of ``docs`` in the tier's sorted ``doc_ints`` map; a
    doc missing from the map raises ``ValueError``."""
    ords = np.searchsorted(doc_ints, docs)
    if docs.size and (doc_ints.size == 0 or not np.array_equal(
            doc_ints[np.minimum(ords, doc_ints.size - 1)], docs)):
        raise ValueError("doc_int missing from the tier's doc-int map")
    return ords.astype(np.uint64)


def encode_docs_column(vals: np.ndarray, bounds: np.ndarray,
                       docs_codec: str) -> pa.Array:
    """The inverse of :func:`decode_docs_column` without a map: the Arrow
    binary column whose row i is
    ``encode_docs_stream(vals[bounds[i]:bounds[i + 1]])``.  Varint codes
    the whole column in one pass: deltas restart at every row, and the
    row byte offsets are the cumulative per-value varint lengths."""
    vals = np.asarray(vals).astype(np.uint64, copy=False)
    bounds = np.asarray(bounds, dtype=np.int64)
    if docs_codec in ("bitpack", "ef"):
        return pa.array(
            [encode_docs_stream(vals[s:e], docs_codec)
             for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist())],
            pa.binary())
    gaps = vals.copy()
    np.subtract(vals[1:], vals[:-1], out=gaps[1:])
    starts = bounds[:-1][bounds[:-1] < bounds[1:]]
    gaps[starts] = vals[starts]
    cum = np.zeros(vals.size + 1, dtype=np.int64)
    np.cumsum(codec._varint_nbytes(gaps), out=cum[1:])
    if cum[-1] >= 2**31:
        raise ValueError("docs column over 2 GiB: write smaller tables")
    return pa.Array.from_buffers(
        pa.binary(), bounds.size - 1,
        [None, pa.py_buffer(cum[bounds].astype(np.int32)),
         pa.py_buffer(codec.encode_varints(gaps))])


def row_bounds(dfs) -> np.ndarray:
    """int64 row bounds (len rows + 1) of per-row counts ``dfs``."""
    bounds = np.zeros(len(dfs) + 1, dtype=np.int64)
    np.cumsum(dfs, out=bounds[1:])
    return bounds


def split_docs(t: pa.Table, docs_codec: str,
               doc_ints: np.ndarray | None = None
               ) -> tuple[pa.Table, np.ndarray]:
    """Segment table -> ``(rows, docs)``: the table without its ``docs``
    column, and that column decoded to flat int64 doc ints in row order
    (row i's docs are ``docs[b[i]:b[i + 1]]``, ``b = row_bounds(df)``).
    Final-tier rows need their tier's ``doc_ints`` map; staged salt runs
    hold doc ints already and pass none."""
    docs, _ = decode_docs_column(t["docs"], t["df"].to_numpy(), docs_codec,
                                 doc_ints)
    return t.drop_columns(["docs"]), docs.astype(np.int64, copy=False)


def join_docs(rows: pa.Table, docs: np.ndarray, docs_codec: str,
              doc_ints: np.ndarray) -> pa.Table:
    """The inverse of :func:`split_docs` into the ordinal space of
    ``doc_ints``: ``docs`` ranked in the map and coded as the rows'
    ``docs`` column."""
    col = encode_docs_column(doc_ordinals(doc_ints, docs),
                             row_bounds(rows["df"].to_numpy()), docs_codec)
    return rows.append_column("docs", col).select(SEGMENT_SCHEMA.names)


DOC_INTS = "_doc_ints"


def write_doc_ints(seg_root: str, doc_ints: np.ndarray) -> None:
    """Write the tier's sorted doc-int map beside its ``shard=K`` dirs
    (tmp + rename, so a reader never sees half a map)."""
    import os

    path = os.path.join(seg_root, DOC_INTS)
    np.ascontiguousarray(doc_ints, dtype="<i8").tofile(path + ".tmp")
    os.replace(path + ".tmp", path)


def load_doc_ints(seg_root: str) -> np.ndarray:
    """The tier's sorted int64 doc-int map (:func:`write_doc_ints`)."""
    import os

    return np.fromfile(os.path.join(seg_root, DOC_INTS), dtype="<i8")


def decode_tfs_column(col, counts, docs_codec: str
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The ``tfs`` column counterpart of :func:`decode_docs_column`."""
    return _decode_column(col, counts, docs_codec, decode_tfs_stream, False)


def merge_runs(
    docs_runs: list[np.ndarray],
    tfs_bufs: list[bytes],
    w_bufs: list[bytes],
    pos_bufs: list[bytes],
    off_bufs: list[bytes],
    docs_codec: str = "varint",
) -> tuple[np.ndarray, bytes, bytes, bytes, bytes, int]:
    """Merge one term's posting runs — each a sorted doc-int array plus
    its varint payload cells — into a single row ``(docs, tfs, weights,
    positions, pos_offsets, df)``: ``docs`` the merged sorted doc ints
    (the caller codes the ``docs`` column, :func:`join_docs`), the cells
    re-encoded with the final-tier ``docs_codec``.

    Runs that are already strictly ascending in the given order (a build's
    salt runs cover disjoint ordered doc ranges) concatenate: tfs / weights /
    positions are per-value or per-doc codes, so they join byte-wise and only
    the offset stream re-encodes across run boundaries.  Runs whose doc
    ranges interleave (cross-index merge, Lucene-style) are merge-sorted by
    doc_int, with one byte gather for the positions payload.  Either way
    the bytes are those of the single sorted run.  A doc_int in more than
    one run raises ``ValueError`` — merging indexes that share documents
    requires a dedup pass first."""
    docs = np.concatenate(docs_runs)
    weights = np.concatenate([codec.decode_f64(b) for b in w_bufs])
    offs = [codec.decode_sorted_deltas(b).astype(np.int64) for b in off_bufs]
    if np.all(docs[1:] > docs[:-1]):
        tfs = b"".join(tfs_bufs)
        if docs_codec != "varint":
            tfs = encode_tfs_stream(codec.decode_varints(tfs), docs_codec)
        positions = b"".join(pos_bufs)
        parts, shift = [], 0
        for i, o in enumerate(offs):
            parts.append((o[1:] if i else o) + shift)
            shift += int(o[-1])
        out_off = np.concatenate(parts)
    else:
        order = np.argsort(docs, kind="stable")
        docs = docs[order]
        if np.any(docs[1:] == docs[:-1]):
            raise ValueError(
                "duplicate doc_int across merged runs — dedup before index merge"
            )
        weights = weights[order]
        tfs = encode_tfs_stream(
            np.concatenate([codec.decode_varints(b) for b in tfs_bufs])[order],
            docs_codec,
        )
        # per-doc byte slices into the concatenation of all runs' payloads
        bases = np.cumsum([0] + [len(b) for b in pos_bufs[:-1]])
        starts = np.concatenate(
            [o[:-1] + base for o, base in zip(offs, bases)])[order]
        lens = np.concatenate([np.diff(o) for o in offs])[order]
        out_off = np.zeros(docs.size + 1, dtype=np.int64)
        np.cumsum(lens, out=out_off[1:])
        idx = np.repeat(starts - out_off[:-1], lens) + np.arange(out_off[-1])
        positions = np.frombuffer(
            b"".join(pos_bufs), dtype=np.uint8)[idx].tobytes()
    return (
        docs,
        tfs,
        codec.encode_f64(weights),
        positions,
        encode_docs_stream(out_off.astype(np.uint64), docs_codec),
        int(docs.size),
    )


_CELLS = ("tfs", "weights", "positions", "pos_offsets")  # payload minus docs


def merge_shard_runs(rows: pa.Table, docs: np.ndarray, doc_ints: np.ndarray,
                     docs_codec: str = "varint") -> pa.Table:
    """The per-shard term walk: merge each term's runs — a build's salt
    runs, or the same shard of several indexes — into one row
    (:func:`merge_runs`), for every term of the shard in one vectorized task
    (grouping per shard, not per term, keeps the task count at num_shards
    instead of num_terms).  ``rows``/``docs`` are a :func:`split_docs` pair
    in doc-int space; the merged rows' ``docs`` column is coded as
    ordinals in ``doc_ints``, the written tier's map.  A term with a single
    varint run keeps its other payload cells' bytes."""
    n = rows.num_rows
    if n == 0:
        return _empty_segment_table()
    order = pc.sort_indices(
        rows, sort_keys=[("term", "ascending"), ("salt", "ascending")]
    ).to_numpy()
    g = rows.take(order)
    dfs = rows["df"].to_numpy()
    src = row_bounds(dfs)
    bounds = row_bounds(dfs[order])
    docs = docs[np.repeat(src[order] - bounds[:-1], dfs[order])
                + np.arange(bounds[-1])]
    terms = g["term"].to_numpy(zero_copy_only=False)
    new_term = np.ones(n, dtype=bool)
    new_term[1:] = terms[1:] != terms[:-1]
    starts = np.flatnonzero(new_term)
    ends = np.append(starts[1:], n)

    cols = {k: g[k].to_pylist() for k in (*_CELLS, "df")}
    out = {k: [] for k in (*_CELLS, "df")}
    out_docs = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        if e - s == 1 and docs_codec == "varint":
            row = (docs[bounds[s]:bounds[e]], *(cols[k][s] for k in _CELLS),
                   cols["df"][s])
        else:
            row = merge_runs(
                [docs[bounds[i]:bounds[i + 1]] for i in range(s, e)],
                *(cols[k][s:e] for k in _CELLS), docs_codec)
        out_docs.append(row[0])
        for k, v in zip((*_CELLS, "df"), row[1:]):
            out[k].append(v)
    out["term"] = terms[starts].tolist()
    out["shard"] = [int(g["shard"][0].as_py())] * starts.size
    out["salt"] = [-1] * starts.size  # merged marker
    return join_docs(pa.Table.from_pydict(out, schema=_ROWS_SCHEMA),
                     np.concatenate(out_docs), docs_codec, doc_ints)


def read_shard_runs(paths: list[str], shard: int) -> pa.Table:
    """The segment rows in ``paths``, parquet files of one ``shard=K`` hive
    directory; the hive write strips the partition column, so ``shard`` is
    restored here."""
    import pyarrow.parquet as pq

    if not paths:
        return _empty_segment_table()
    t = pa.concat_tables(
        [pq.read_table(p, use_threads=False) for p in paths])
    t = t.append_column(
        "shard", pa.array(np.full(t.num_rows, shard, dtype=np.int32)))
    return t.select(SEGMENT_SCHEMA.names)


def merge_shard_dirs(batch: pa.Table, doc_ints: np.ndarray,
                     docs_codec: str = "varint") -> pa.Table:
    """Reduce side of the build's storage segment exchange: ``batch`` holds
    rows (shard:int, path:str), where ``path`` is one ``shard=K`` hive
    directory of encoded salt-run rows staged by the encode tasks'
    partitioned write.  Reads each directory (page-cache-backed — the
    staging files were written moments ago) and merges it with
    :func:`merge_shard_runs` into the ordinal space of ``doc_ints``, the
    index's sorted doc ints."""
    import glob
    import os

    outs = [
        merge_shard_runs(
            *split_docs(read_shard_runs(
                sorted(glob.glob(os.path.join(path, "*.parquet"))), shard),
                "varint"),
            doc_ints, docs_codec,
        )
        for shard, path in zip(batch["shard"].to_pylist(),
                               batch["path"].to_pylist())
    ]
    return pa.concat_tables(outs) if outs else _empty_segment_table()
