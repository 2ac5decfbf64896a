"""Index build pipeline: corpus parquet -> posting-list segments (+ documents
metadata, doc stats, build manifest).

Ray-Data-native replacement for the reference's indexer job
(indexer/Main.java:32-174: producer/consumer queues + nested thread pools +
MongoDB write-behind).  Every stage is a Dataset transform; the posting
construction is a ``groupby`` shuffle instead of merge-on-write upserts
(SURVEY.md §3.4).

Phases (each checkpointed with a ``_DONE`` marker; a rerun skips completed
phases — the per-partition lineage + metrics live in ``manifest.json``,
satisfying the north_rule resumability requirement):

  1. prep      corpus -> prepped/          (ids, sha256, field split) — this
               doubles as the ``Documents`` table (S7: the reference stores
               title/description/content per doc, MongoDBIndexStore.java:208-228)
  2. losers    prepped -> dup_losers/      exact-dup losers (D1/D2; keep min
               doc_id per content_sha256)
  3. postings  prepped -> postings/        tokenize map side (T1/A1/A2);
               the written intermediate IS the map-side shuffle spill, making
               the reduce side restartable without re-tokenizing.  It is
               deleted once the segments are done: the index keeps no term
               vectors (query.DocStore.term_rows re-tokenizes prepped)
  4. segments  per-part encode tasks (A3; salted posting-list runs) feed
               a per-shard k-way merge (streaming concatenation of sorted
               runs, the segment-merge primitive) that writes one row per
               term to segments_merged/, docs coded as ordinals in the
               sorted doc-int map written beside the shards
               (segments_merged/_doc_ints, read once from doc_stats).  Runs
               reach their merge task via a hive-partitioned staging write —
               the same shuffle-via-storage pattern as the postings phase, no
               sort barrier.  The encode tasks also split the per-doc
               sentinel rows into doc_stats/ (A2) — totalWords costs no
               extra pass.
  5. stats     global stats.json (N, avgdl, n_terms) for BM25 (A11 analog)
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data


from ..config import BuildConfig
from ..stages.encode import (
    doc_ordinals,
    encode_part_dirs,
    load_doc_ints,
    merge_shard_dirs,
    write_doc_ints,
)
from ..stages.prep import make_loser_filter, prep_batch
from ..stages.tokenize import TokenizeBatch
from ..state.segments import segment_root

PREPPED = "prepped"
LOSERS = "dup_losers"
POSTINGS = "postings"
DOC_STATS = "doc_stats"
MERGED = "segments_merged"
SEGMENT_RUNS = "segment_runs"
DEDUP_PARTS = "dedup_parts"
# docs per tokenize task input batch
TOKENIZE_BATCH_SIZE = 128
# hash partitions for the exact-dedup storage shuffle; size so one
# partition's (sha, doc_int) rows fit in a task's heap (~40 B/row)
DEDUP_PARTITIONS = 32


def _done(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_DONE"))


def _mark_done(path: str) -> None:
    with open(os.path.join(path, "_DONE"), "w") as f:
        f.write("ok")


def _fresh(path: str) -> str:
    """Clear a phase output dir that exists WITHOUT a _DONE marker: a crash
    mid-write leaves partial parquet files, and the sink's append mode would
    otherwise duplicate rows on resume.  Completed phases are never touched
    (the resume contract is the _DONE marker, SURVEY.md §4.2)."""
    if os.path.exists(path) and not _done(path):
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    return path


def _cluster_cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 32))


def _parquet_row_count(root: str) -> int:
    """Row count from parquet footers (no Ray job, no data read)."""
    import glob as _glob

    import pyarrow.parquet as pq

    total = 0
    for fp in _glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True):
        total += pq.read_metadata(fp).num_rows
    return total


def live_stats(doc_stats_dir: str, seg_root: str) -> dict:
    """The stats.json counts every index writer (build, merge, purge)
    recomputes from what it wrote: ``n_docs`` and ``n_term_rows`` from
    parquet footers, ``total_words`` from one thin int column read in
    the calling process, and ``avgdl``.  A Ray job to sum one int per doc would
    cost more than the sum at any sane doc-stats size (~12 B/doc)."""
    import pyarrow.dataset as pads

    n_docs = _parquet_row_count(doc_stats_dir)
    tw = pads.dataset(doc_stats_dir, format="parquet").to_table(
        columns=["total_words"]
    )["total_words"]
    total_words = int(np.sum(tw.to_numpy(zero_copy_only=False),
                             dtype=np.int64))
    return {
        "n_docs": n_docs,
        "total_words": total_words,
        "avgdl": (total_words / n_docs) if n_docs else 0.0,
        "n_term_rows": _parquet_row_count(seg_root),
    }


def load_losers(index_dir: str) -> np.ndarray:
    import glob as _glob

    import pyarrow.dataset as pads

    path = os.path.join(index_dir, LOSERS)
    files = _glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
    if not files:
        # zero losers: the sink skips all-empty blocks, leaving no files
        return np.empty(0, dtype=np.int64)
    tbl = pads.dataset(files, format="parquet").to_table(columns=["doc_int"])
    return np.sort(tbl["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64))


def build_index(
    corpus_path: str,
    index_dir: str,
    config: BuildConfig | None = None,
) -> dict:
    """Run (or resume) the full index build; returns the manifest dict."""
    cfg = config or BuildConfig()
    if cfg.docs_codec not in ("varint", "bitpack", "ef"):
        raise ValueError(f"unknown docs_codec {cfg.docs_codec!r}")
    os.makedirs(index_dir, exist_ok=True)
    manifest_path = os.path.join(index_dir, "manifest.json")
    manifest: dict = {"config": dataclasses.asdict(cfg), "phases": {}}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            old = json.load(f)
        manifest["phases"].update(old.get("phases", {}))

    def record(phase: str, t0: float, **extra) -> None:
        manifest["phases"][phase] = {
            "seconds": round(time.time() - t0, 3),
            **extra,
        }
        with open(manifest_path, "w") as f:
            json.dump(manifest, f, indent=2)

    # ---- phase 1: prep ----------------------------------------------------
    prepped_dir = os.path.join(index_dir, PREPPED)
    if not _done(prepped_dir):
        t0 = time.time()
        _fresh(prepped_dir)
        # a small shard count would cap the fused read->prep parallelism at
        # n_files; force enough blocks to keep every core busy — clamped to
        # the corpus row count (from footers) so a tiny corpus doesn't write
        # empty, schema-less parquet fragments
        want_blocks = max(64, _cluster_cpus() * 2)
        n_corpus_rows = _parquet_row_count(corpus_path)
        ds = ray.data.read_parquet(
            corpus_path,
            override_num_blocks=max(1, min(want_blocks, n_corpus_rows)),
        )
        ds = ds.map_batches(
            lambda b, _m=cfg.content_mode: prep_batch(b, content_mode=_m),
            batch_format="pyarrow",
        )
        ds.write_parquet(prepped_dir, row_group_size=64 * 1024)
        _mark_done(prepped_dir)
        record("prep", t0)

    # ---- phase 2: dup losers ---------------------------------------------
    # Exact dedup (D1/D2) as a storage-partitioned shuffle, the same
    # MapReduce-exchange pattern as the posting build: map side hash-
    # partitions the thin (sha, doc_int) stream by sha into part dirs (all
    # copies of a content land in one part), reduce side runs one task per
    # part that keeps min-doc_int per sha and emits every other member as a
    # loser.  Ray Data's native groupby-aggregate measured ~4x slower here
    # (sort-based shuffle constants), and a driver combine would not scale.
    losers_dir = os.path.join(index_dir, LOSERS)
    dparts_dir = os.path.join(index_dir, DEDUP_PARTS)
    if not _done(losers_dir):
        t0 = time.time()
        _fresh(losers_dir)
        import glob as _glob
        import zlib as _zlib

        if not _done(dparts_dir):
            _fresh(dparts_dir)
            ds = ray.data.read_parquet(
                prepped_dir, columns=["content_sha256", "doc_int"]
            )

            def add_dpart(batch: pa.Table) -> pa.Table:
                shas = batch["content_sha256"].to_pylist()  # binary32
                dp = np.array(
                    [_zlib.crc32(s) % DEDUP_PARTITIONS for s in shas],
                    dtype=np.int32,
                )
                return pa.table(
                    {
                        "content_sha256": batch["content_sha256"],
                        "doc_int": batch["doc_int"],
                        "dpart": pa.array(dp, pa.int32()),
                    }
                )

            (
                ds.map_batches(add_dpart, batch_format="pyarrow")
                .repartition(8)
                .write_parquet(dparts_dir, partition_cols=["dpart"],
                               row_group_size=1_000_000)
            )
            _mark_done(dparts_dir)

        part_dirs = sorted(_glob.glob(os.path.join(dparts_dir, "dpart=*")))
        parts_tbl = pa.table({"path": pa.array(part_dirs, pa.string())})

        def losers_of_part(batch: pa.Table) -> pa.Table:
            import pyarrow.parquet as pq_mod

            out = []
            for path in batch["path"].to_pylist():
                t = pq_mod.read_table(
                    path,
                    columns=["content_sha256", "doc_int"],
                    use_threads=False,
                )
                if t.num_rows == 0:
                    continue
                s = t.sort_by(
                    [("content_sha256", "ascending"), ("doc_int", "ascending")]
                )
                shas = s["content_sha256"].combine_chunks().dictionary_encode()
                codes = shas.indices.to_numpy(zero_copy_only=False)
                ints = s["doc_int"].to_numpy(zero_copy_only=False)
                first = np.ones(len(codes), dtype=bool)
                first[1:] = codes[1:] != codes[:-1]
                out.append(ints[~first])  # everything but the min per sha
            losers = np.concatenate(out) if out else np.array([], dtype=np.int64)
            return pa.table({"doc_int": pa.array(losers, pa.int64())})

        (
            ray.data.from_arrow(parts_tbl)
            .repartition(max(1, len(part_dirs)))
            .map_batches(losers_of_part, batch_format="pyarrow", batch_size=1)
            .write_parquet(losers_dir)
        )
        _mark_done(losers_dir)
        record("losers", t0, n_losers=_parquet_row_count(losers_dir))
    # the dedup exchange's only reader is the phase above, which a resume
    # skips once losers are done
    shutil.rmtree(dparts_dir, ignore_errors=True)

    loser_ints = load_losers(index_dir)

    # ---- phase 3: postings (tokenize map side) ---------------------------
    postings_dir = os.path.join(index_dir, POSTINGS)
    merged_dir = os.path.join(index_dir, MERGED)
    if not _done(merged_dir) and not _done(postings_dir):
        t0 = time.time()
        _fresh(postings_dir)
        ds = ray.data.read_parquet(
            prepped_dir, columns=["doc_int", "title", "description", "content"]
        )
        ds = ds.map_batches(make_loser_filter(loser_ints), batch_format="pyarrow")
        ds = ds.map_batches(
            TokenizeBatch(cfg),
            batch_format="pyarrow",
            batch_size=TOKENIZE_BATCH_SIZE,
        )
        # hash-partitioned write = THE shuffle's map side, materialized to
        # storage (classic MapReduce exchange): the reduce side then reads
        # one part directory per task with no in-memory all-to-all, and a
        # failed reduce resumes per part.  Coalesce first so file count per
        # part dir stays bounded (write blocks x num_parts total); the
        # coalesce also caps write parallelism, so size it to the cores.
        ds = ds.repartition(max(16, _cluster_cpus()))
        # row_group_size forces the hive-partitioned sink to buffer incoming
        # chunks into real row groups — without it write_dataset appends one
        # tiny group per chunk and the reduce side pays a ~12x read penalty
        # (observed: 384-row row groups)
        ds.write_parquet(
            postings_dir, partition_cols=["part"], row_group_size=1_000_000
        )
        _mark_done(postings_dir)
        record("postings", t0)

    # ---- phase 4: segment encode (reduce side of THE shuffle) ------------
    # Also lands doc stats: each encode task splits off the one-per-doc
    # sentinel rows (routed here by the tokenize stage) and writes them as
    # final (doc_int, total_words) partials — A2 with zero extra passes.
    doc_stats_dir = os.path.join(index_dir, DOC_STATS)
    if not _done(merged_dir):
        _fresh(merged_dir)
        _fresh(doc_stats_dir)
        # Encode + merge: per-PART encode tasks (parallelism = shards ×
        # salts, so one skewed shard can't become a straggler) feed a
        # per-shard k-way merge.  The exchange between them is a storage
        # write: it measured ~2x faster at 8 CPUs and no worse at 32 than a
        # groupby("shard") sort shuffle on the 1M-doc bench, because the
        # sort's barrier wall time (~6 s) far exceeded its ~2 s of useful
        # task time (BASELINE.md).
        t0 = time.time()
        import glob as _glob

        import pyarrow.dataset as pads

        os.makedirs(doc_stats_dir, exist_ok=True)
        part_dirs = sorted(_glob.glob(os.path.join(postings_dir, "part=*")))
        parts_tbl = pa.table(
            {
                "part": pa.array(
                    [int(os.path.basename(p).split("=")[1]) for p in part_dirs],
                    pa.int32(),
                ),
                "path": pa.array(part_dirs, pa.string()),
            }
        )
        enc = (
            ray.data.from_arrow(parts_tbl)
            .repartition(max(1, len(part_dirs)))
            .map_batches(
                partial(encode_part_dirs, cfg=cfg,
                        doc_stats_parts_dir=doc_stats_dir),
                batch_format="pyarrow",
                batch_size=1,       # one part per task: bounded memory
            )
        )
        # note: subdividing this reduce by a second term hash (merge fanout)
        # was measured and does NOT help at this scale — the extra groups
        # cost as much in shuffle overhead as the shorter tail saves.
        # The encode tasks' hive write IS the exchange: runs land in one
        # shard=K dir each, then one merge task per shard reads its dir
        # (the staging write rides the page cache into the merge read).
        staging_dir = _fresh(os.path.join(index_dir, SEGMENT_RUNS))
        enc.write_parquet(
            staging_dir, partition_cols=["shard"], row_group_size=1_000_000,
        )
        # the tier's doc-int map: doc_stats is whole once the encode tasks
        # are done, and the merge tasks rank every posting doc in it
        doc_ints = np.sort(pads.dataset(doc_stats_dir, format="parquet")
                           .to_table(columns=["doc_int"])["doc_int"]
                           .to_numpy(zero_copy_only=False).astype(np.int64))
        doc_ints_ref = ray.put(doc_ints)

        def merge_dirs(batch: pa.Table) -> pa.Table:
            return merge_shard_dirs(batch, ray.get(doc_ints_ref),
                                    cfg.docs_codec)

        shard_dirs = sorted(_glob.glob(os.path.join(staging_dir, "shard=*")))
        shards_tbl = pa.table(
            {
                "shard": pa.array(
                    [int(os.path.basename(p).split("=")[1])
                     for p in shard_dirs],
                    pa.int32(),
                ),
                "path": pa.array(shard_dirs, pa.string()),
            }
        )
        (
            ray.data.from_arrow(shards_tbl)
            .repartition(max(1, len(shard_dirs)))
            .map_batches(
                merge_dirs,
                batch_format="pyarrow",
                batch_size=1,   # one shard per task: bounded memory
            )
            .write_parquet(
                merged_dir, partition_cols=["shard"],
                row_group_size=cfg.segment_row_group_size,
            )
        )
        write_doc_ints(merged_dir, doc_ints)
        shutil.rmtree(staging_dir, ignore_errors=True)
        _mark_done(merged_dir)
        _mark_done(doc_stats_dir)
        record("segments", t0, note="fused encode+merge (storage)",
               n_parts=len(part_dirs))
        record("merge", t0, n_shards=cfg.num_shards)
        record("doc_stats", t0, note="piggybacked on segment encode")
    # the tokenize exchange's only reader is the phase above, which a
    # resume skips once the segments are done
    shutil.rmtree(postings_dir, ignore_errors=True)

    # ---- phase 5: global stats -------------------------------------------
    stats_path = os.path.join(index_dir, "stats.json")
    if not os.path.exists(stats_path):
        t0 = time.time()
        stats = {
            **live_stats(doc_stats_dir, merged_dir),
            "num_shards": cfg.num_shards,
            "salt_bits": cfg.salt_bits,
            # the one segment layout; segment_root refuses any other
            "compacted": True,
            "docs_codec": cfg.docs_codec,
        }
        with open(stats_path, "w") as f:
            json.dump(stats, f, indent=2)
        record("stats", t0, **stats)

    return manifest


def posting_codec_sizes(index_dir: str, *, concurrency: int = 2,
                        batch_size: int = 512, out_path: str | None = None,
                        dense_remap: bool = False):
    """Per-term docs-stream size under the three posting codecs — the
    varint delta-gap stream, the frame-of-reference bit-packed alternative
    (``functions/codec.py`` encode_bitpack; see that module's design note
    on why the mergeable segment tier stays varint), and quasi-succinct
    Elias-Fano (encode_ef, the near-optimal monotone code for the
    write-once tier).

    By default the sizes are those of the doc_int HASH-gap stream: the
    sparse 60-bit keys themselves, which the index stored before format
    v8 and no longer does.  ``dense_remap=True`` ranks each doc in the
    tier's sorted doc-int map first (``segments_merged/_doc_ints``), which
    is the stream the segments store now: ``bitpack_bytes``/``ef_bytes``
    are the stored ``docs`` cell lengths under those codecs, and
    ``varint_bytes`` is the stored varint cell plus the one count-header
    varint every row of this table charges.  Dense gaps tighten the
    distribution, so Elias-Fano approaches its 2 + log2(u/n) bits/doc
    bound, where on the hash keys FOR bitpack beats it.

    Distributed shape: the term dictionary (small) seeds a Dataset; a
    stateful actor pool opens one SegmentReader per worker (index open +
    term-index build once per actor, not per batch) and walks its term
    batch.  Both sizes are computed from the DECODED merged posting list,
    so the numbers are codec-framing-only and independent of run/salt
    boundaries; the bitpack size is additionally verified by a real
    encode+decode roundtrip per term (the new codec rides the hot path
    here, not just a unit test).

    Returns an Arrow table (term, df, varint_bytes, bitpack_bytes, ef_bytes,
    tfs_varint_bytes, tfs_bitpack_bytes) sorted by term.  The SQL oracle
    recomputes all three framings analytically from the dumped pre-shuffle
    token table.

    At 100 TB the term dictionary is itself large; pass ``out_path`` to
    stream the per-term rows to partitioned parquet instead of
    materializing the table on the driver (returns None in that mode).
    """
    import ray.data

    from ..functions.codec import (
        _varint_nbytes,
        bitpack_nbytes,
        decode_ef,
        decode_sorted_bitpack,
        ef_nbytes,
        encode_ef,
        encode_sorted_bitpack,
    )
    from ..state.segments import SegmentReader

    terms = sorted(SegmentReader(index_dir).terms())
    # one block per batch so the actor pool actually fans out (from_arrow
    # alone yields a single block -> a single task regardless of concurrency)
    seed = ray.data.from_arrow(
        pa.table({"term": pa.array(terms, pa.string())})
    ).repartition(max(1, -(-len(terms) // batch_size)))

    class _CodecSizes:
        def __init__(self):
            self.reader = SegmentReader(index_dir)
            self.universe = (load_doc_ints(segment_root(index_dir))
                             if dense_remap else None)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ts = batch["term"].to_pylist()
            df = np.empty(len(ts), dtype=np.int64)
            vbytes = np.empty(len(ts), dtype=np.int64)
            bbytes = np.empty(len(ts), dtype=np.int64)
            ebytes = np.empty(len(ts), dtype=np.int64)
            tvbytes = np.empty(len(ts), dtype=np.int64)
            tbbytes = np.empty(len(ts), dtype=np.int64)
            for i, t in enumerate(ts):
                pl = self.reader.postings(t)
                docs = pl.docs
                if self.universe is not None:
                    docs = doc_ordinals(self.universe, docs)
                docs = docs.astype(np.uint64)
                gaps = np.empty_like(docs)
                if docs.size:
                    gaps[0] = docs[0]
                    np.subtract(docs[1:], docs[:-1], out=gaps[1:])
                hdr = int(_varint_nbytes(
                    np.array([docs.size], dtype=np.uint64))[0])
                df[i] = docs.size
                vbytes[i] = hdr + int(_varint_nbytes(gaps).sum())
                enc = encode_sorted_bitpack(docs)
                if len(enc) != bitpack_nbytes(gaps) or not np.array_equal(
                    decode_sorted_bitpack(enc), docs
                ):  # pragma: no cover - codec invariant
                    raise AssertionError(f"bitpack roundtrip failed: {t!r}")
                bbytes[i] = len(enc)
                ef = encode_ef(docs)
                if len(ef) != ef_nbytes(docs) or not np.array_equal(
                    decode_ef(ef), docs
                ):  # pragma: no cover - codec invariant
                    raise AssertionError(f"elias-fano roundtrip failed: {t!r}")
                ebytes[i] = len(ef)
                # tfs stream (per-doc summed tf, doc order): no delta —
                # values are unsorted small ints, both framings direct
                tfs = pl.tfs.astype(np.uint64)
                tvbytes[i] = hdr + int(_varint_nbytes(tfs).sum())
                tbbytes[i] = bitpack_nbytes(tfs)
            return pa.table(
                {
                    "term": batch["term"],
                    "df": pa.array(df, pa.int64()),
                    "varint_bytes": pa.array(vbytes, pa.int64()),
                    "bitpack_bytes": pa.array(bbytes, pa.int64()),
                    "ef_bytes": pa.array(ebytes, pa.int64()),
                    "tfs_varint_bytes": pa.array(tvbytes, pa.int64()),
                    "tfs_bitpack_bytes": pa.array(tbbytes, pa.int64()),
                }
            )

    import ray

    mapped = seed.map_batches(
        _CodecSizes,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    if out_path is not None:
        mapped.write_parquet(out_path)
        return None
    out = pa.concat_tables(
        [pa.Table.from_batches([], schema=pa.schema(
            [("term", pa.string()), ("df", pa.int64()),
             ("varint_bytes", pa.int64()), ("bitpack_bytes", pa.int64()),
             ("ef_bytes", pa.int64()),
             ("tfs_varint_bytes", pa.int64()),
             ("tfs_bitpack_bytes", pa.int64())]))]
        + [t for t in ray.get(mapped.to_arrow_refs()) if t.num_rows]
    )
    return out.sort_by("term")


def champion_lists(index_dir: str, m: int, *, concurrency: int = 2,
                   batch_size: int = 512, out_path: str | None = None):
    """Champion lists (tiered-index acceleration, Manning/Raghavan/Schütze
    IR §7.1.3): per term, the top-``m`` postings by accumulated field
    weight — the precomputed "first tier" a scorer consults before
    touching the full posting list.  Tie-break (weight DESC, doc_int ASC)
    is total, so the structure is deterministic and SQL-checkable
    (row_number over the dumped tokw table).

    Same distributed shape as :func:`posting_codec_sizes`: the term
    dictionary seeds a Dataset, a SegmentReader actor pool walks its term
    batches, and each term contributes at most ``m`` rows — the output is
    bounded by vocab x m, never by corpus size.  Pass ``out_path`` to
    stream to partitioned parquet at dictionary scale.

    Returns an Arrow table (term, doc_int, weight, w_rank) sorted by
    (term, w_rank).
    """
    import ray
    import ray.data

    from ..state.segments import SegmentReader

    terms = sorted(SegmentReader(index_dir).terms())
    seed = ray.data.from_arrow(
        pa.table({"term": pa.array(terms, pa.string())})
    ).repartition(max(1, -(-len(terms) // batch_size)))

    out_schema = pa.schema(
        [("term", pa.string()), ("doc_int", pa.int64()),
         ("weight", pa.float64()), ("w_rank", pa.int64())]
    )

    class _Champions:
        def __init__(self):
            self.reader = SegmentReader(index_dir)

        def __call__(self, batch: pa.Table) -> pa.Table:
            rt, rd, rw, rr = [], [], [], []
            for t in batch["term"].to_pylist():
                pl = self.reader.postings(t)
                # (weight DESC, doc_int ASC): lexsort keys are applied
                # last-key-primary, docs are already ascending-unique
                order = np.lexsort((pl.docs, -pl.weights))[:m]
                rt.extend([t] * order.size)
                rd.extend(pl.docs[order].tolist())
                rw.extend(np.round(pl.weights[order], 9).tolist())
                rr.extend(range(1, order.size + 1))
            return pa.table(
                {"term": pa.array(rt, pa.string()),
                 "doc_int": pa.array(rd, pa.int64()),
                 "weight": pa.array(rw, pa.float64()),
                 "w_rank": pa.array(rr, pa.int64())},
                schema=out_schema,
            )

    mapped = seed.map_batches(
        _Champions, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
    )
    if out_path is not None:
        mapped.write_parquet(out_path)
        return None
    out = pa.concat_tables(
        [out_schema.empty_table()]
        + [t for t in ray.get(mapped.to_arrow_refs()) if t.num_rows]
    )
    return out.sort_by([("term", "ascending"), ("w_rank", "ascending")])


def kgram_of(s: str, k: int = 3) -> list[str]:
    """All k-grams of '$s$' ('$' = Lucene-style boundary marker)."""
    a = "$" + s + "$"
    return [a[i : i + k] for i in range(len(a) - k + 1)]


def build_kgram_index(index_dir: str, k: int = 3, *,
                      concurrency: int = 2) -> str:
    """Build the k-gram -> term index for wildcard queries (IR-textbook
    §3.2.2): every dictionary term explodes into its boundary-marked
    k-grams; rows are sorted by gram so the parquet row-group stats give
    the lookup path predicate pushdown (a wildcard query touches only the
    row groups covering its grams, not the whole dictionary).

    The sort is the one (dictionary-sized, not corpus-sized) shuffle this
    structure costs; output is idempotent via a _DONE marker.  Returns
    the index directory.
    """
    import ray.data

    out_dir = os.path.join(index_dir, f"kgram_{k}")
    if _done(out_dir):
        return out_dir
    _fresh(out_dir)

    seg_root = segment_root(index_dir)

    def explode(batch: pa.Table) -> pa.Table:
        gs, ts, dfs = [], [], []
        for t, d in zip(batch["term"].to_pylist(), batch["df"].to_pylist()):
            grams = kgram_of(t, k)
            gs.extend(grams)
            ts.extend([t] * len(grams))
            dfs.extend([int(d)] * len(grams))
        return pa.table(
            {"gram": pa.array(gs, pa.string()),
             "term": pa.array(ts, pa.string()),
             "df": pa.array(dfs, pa.int64())}
        )

    (
        ray.data.read_parquet(seg_root, columns=["term", "df"])
        .map_batches(explode, batch_format="pyarrow",
                     concurrency=concurrency)
        .sort("gram")
        .write_parquet(out_dir)
    )
    _mark_done(out_dir)
    return out_dir


def static_prune_profile(index_dir: str, keep: int = 10, *,
                         concurrency: int = 2, batch_size: int = 512):
    """Static index-pruning profile (Carmel et al. 2001, top-k-by-tf
    term pruning): for every dictionary term, the footprint the posting
    list would keep under "retain only the ``keep`` highest-tf postings"
    — kept df, kept tf mass, total tf mass and the tf value at the
    pruning cutoff (ties broken by ascending doc key, so the kept SET is
    deterministic and the SQL oracle's row_number reproduces it
    exactly).  Same stateful actor-pool segment scan as
    posting_codec_sizes: one SegmentReader per worker, term batches
    fan out, the per-term work is one lexsort over the decoded list.

    Returns (term, df, df_kept, sum_tf_total, sum_tf_kept, cutoff_tf)
    sorted by term."""
    import ray.data

    from ..state.segments import SegmentReader

    terms = sorted(SegmentReader(index_dir).terms())
    seed = ray.data.from_arrow(
        pa.table({"term": pa.array(terms, pa.string())})
    ).repartition(max(1, -(-len(terms) // batch_size)))

    class _Prune:
        def __init__(self):
            self.reader = SegmentReader(index_dir)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ts = batch["term"].to_pylist()
            df = np.empty(len(ts), dtype=np.int64)
            dfk = np.empty(len(ts), dtype=np.int64)
            tot = np.empty(len(ts), dtype=np.int64)
            kept = np.empty(len(ts), dtype=np.int64)
            cut = np.empty(len(ts), dtype=np.int64)
            for i, t in enumerate(ts):
                pl = self.reader.postings(t)
                order = np.lexsort((pl.docs, -pl.tfs))[:keep]
                df[i] = pl.docs.size
                dfk[i] = order.size
                tot[i] = int(pl.tfs.sum())
                kept[i] = int(pl.tfs[order].sum())
                cut[i] = int(pl.tfs[order[-1]]) if order.size else 0
            return pa.table({
                "term": batch["term"],
                "df": pa.array(df, pa.int64()),
                "df_kept": pa.array(dfk, pa.int64()),
                "sum_tf_total": pa.array(tot, pa.int64()),
                "sum_tf_kept": pa.array(kept, pa.int64()),
                "cutoff_tf": pa.array(cut, pa.int64()),
            })

    out = seed.map_batches(
        _Prune, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
    ).to_arrow_refs()
    import ray as _ray

    prune_schema = pa.schema([
        ("term", pa.string()), ("df", pa.int64()), ("df_kept", pa.int64()),
        ("sum_tf_total", pa.int64()), ("sum_tf_kept", pa.int64()),
        ("cutoff_tf", pa.int64()),
    ])
    tbl = pa.concat_tables(
        [prune_schema.empty_table()]
        + [t for t in _ray.get(out) if t.num_rows]
    )
    return tbl.sort_by([("term", "ascending")])


def build_permuterm_index(index_dir: str, *, concurrency: int = 2) -> str:
    """Build the permuterm index for single-star wildcard queries
    (IR-textbook §3.2.1, the rotation alternative to the k-gram index of
    :func:`build_kgram_index`): every dictionary term t explodes into
    all rotations of ``t + '$'``; a pattern ``a*b`` rotates to the
    PREFIX ``b$a``, so the lookup is one sorted-range scan instead of a
    gram intersection.  The dictionary holds each term once, so rows need
    no dedupe (the lookup collects terms into a set); they are sorted by
    rotation so the parquet row-group stats give the prefix scan
    predicate pushdown.
    The sort is dictionary-sized, not corpus-sized; idempotent via a
    _DONE marker."""
    import ray.data

    out_dir = os.path.join(index_dir, "permuterm")
    if _done(out_dir):
        return out_dir
    _fresh(out_dir)

    seg_root = segment_root(index_dir)

    def explode(batch: pa.Table) -> pa.Table:
        rs, ts = [], []
        for t in batch["term"].to_pylist():
            aug = t + "$"
            rs.extend(aug[i:] + aug[:i] for i in range(len(aug)))
            ts.extend([t] * len(aug))
        return pa.table({"rot": pa.array(rs, pa.string()),
                         "term": pa.array(ts, pa.string())})

    (
        ray.data.read_parquet(seg_root, columns=["term"])
        .map_batches(explode, batch_format="pyarrow",
                     concurrency=concurrency)
        .sort("rot")
        .write_parquet(out_dir)
    )
    _mark_done(out_dir)
    return out_dir


def index_lineage(index_dir: str, *, concurrency: int = 2):
    """Per-PARTITION lineage + metrics over the final segment tier — the
    queryable surface of the north-rule's "resumable from per-partition
    checkpoints with lineage + build metrics" (manifest.json holds the
    per-phase wall times; this holds the per-shard accounting a 10^12-doc
    operator needs to audit or selectively rebuild a partition): per
    shard, the term count, posting count (Σ df) and the byte footprint of
    each payload stream, plus a ``shard = -1`` grand-total row.

    Distributed shape: one pruned columnar read of the segment parquet
    (term/df + octet lengths only — payloads are never decoded), per-batch
    Arrow partials, one shard groupby (bounded by shard count).  The
    driver oracle aggregates the dumped per-row segment facts in SQL and
    recomputes the TOTAL row's n_terms / n_postings INDEPENDENTLY from
    the pre-shuffle token dump (distinct terms / (term, doc) pairs), so
    the segment tier's df accounting is tied back to the map-side stream
    (one row per term after the salt-run merge).

    Returns (shard, n_terms, n_postings, docs_bytes, tfs_bytes,
    weights_bytes, positions_bytes) sorted by shard, total row first
    (shard -1).
    """
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    seg_root = segment_root(index_dir)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "term" not in batch.column_names:
            return pa.table({
                "shard": pa.array([], pa.int32()),
                "n_terms": pa.array([], pa.int64()),
                "n_postings": pa.array([], pa.int64()),
                "docs_bytes": pa.array([], pa.int64()),
                "tfs_bytes": pa.array([], pa.int64()),
                "weights_bytes": pa.array([], pa.int64()),
                "positions_bytes": pa.array([], pa.int64()),
            })
        t = pa.table({
            "shard": batch["shard"].cast(pa.int32()),
            "n_terms": pa.array(np.ones(batch.num_rows, np.int64)),
            "n_postings": batch["df"].cast(pa.int64()),
            "docs_bytes": pc.binary_length(
                batch["docs"].combine_chunks()).cast(pa.int64()),
            "tfs_bytes": pc.binary_length(
                batch["tfs"].combine_chunks()).cast(pa.int64()),
            "weights_bytes": pc.binary_length(
                batch["weights"].combine_chunks()).cast(pa.int64()),
            "positions_bytes": pc.binary_length(
                batch["positions"].combine_chunks()).cast(pa.int64()),
        })
        mcols = [c for c in t.column_names if c != "shard"]
        agg = t.group_by(["shard"]).aggregate([(c, "sum") for c in mcols])
        return pa.table({
            "shard": agg["shard"].cast(pa.int32()),
            **{c: agg[f"{c}_sum"].cast(pa.int64()) for c in mcols},
        })

    cols = ["shard", "term", "df", "docs", "tfs", "weights", "positions"]
    out = (
        ray.data.read_parquet(seg_root, columns=cols,
                              file_extensions=["parquet"])
        .map_batches(partial, batch_format="pyarrow",
                     concurrency=concurrency)
        .groupby("shard")
        .aggregate(*[Sum(c, alias_name=c) for c in
                     ["n_terms", "n_postings", "docs_bytes", "tfs_bytes",
                      "weights_bytes", "positions_bytes"]])
        .to_pandas()
    )
    import pandas as pd

    metric_cols = ["n_terms", "n_postings", "docs_bytes", "tfs_bytes",
                   "weights_bytes", "positions_bytes"]
    if "shard" not in out.columns or not len(out):
        out = pd.DataFrame(columns=["shard"] + metric_cols)
    total = {"shard": -1, **{c: int(out[c].sum()) for c in metric_cols}}
    out = pd.concat([pd.DataFrame([total]), out.sort_values("shard")],
                    ignore_index=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)
