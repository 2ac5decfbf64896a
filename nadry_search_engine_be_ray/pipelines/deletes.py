"""Document deletion: tombstone write + the purge merge that makes it real.

Reference analog: the reference engine deletes by re-crawling — its store
is dropped and rebuilt from scratch per index run (indexer/Main.java:58-61
drops the collections).  A 100 TB index cannot afford that, so this module
implements the Lucene delete lifecycle over immutable parquet segments:

* :func:`delete_docs` — O(tombstones): unions doc_ints into the side file
  (state/deletes.py); every SegmentReader masks posting lists against it
  at decode time and scoring stats stay STALE (docFreq-includes-deletes)
  until purge.
* :func:`purge_deletes` — the physical rewrite, one Ray task per term
  shard (the same parts-table shape as build/merge): the ``docs`` column
  decodes through the pre-purge doc-int map and, once masked, is
  re-ranked as one column into the map minus the dead docs (ordinals
  shift, so every row's docs cell is re-coded).  A row none of whose
  docs are deleted keeps its other four payload cells byte-identical
  (the common case); a row that loses docs is masked and re-encoded with
  the index's own codec tier.  The new map lands inside the rewritten
  tier, so the one ``os.replace`` of ``segments_merged`` swaps segments
  and map together.  Side tables (doc_stats / prepped / popularity) stream
  through one filtered write task each, the live filter ``merge_indexes``
  uses too; stats.json is recomputed; derived kgram, permuterm and
  champion-tier dirs are invalidated (they rebuild behind their _DONE
  marker); the tombstone file is cleared last.

After a purge the index is EQUIVALENT to a fresh build over the surviving
corpus — doc_ints are content-derived (stages/prep.py M2) and the
purged map equals the fresh build's sorted doc_stats ints, so every
row's docs cell, the untouched rows' other cells and the masked rows'
re-encodes are all literally the fresh build's bytes
(tests/test_deletes.py asserts per-term byte equality on disk).

Scale shape: purge parallelism = num_shards, no all-to-all — the term ->
shard routing is untouched, so every rewrite is shard-local.  The side-
table filters are streaming scans, one task per table.  The only
broadcast is the tombstone set itself (8 B/doc; see state/deletes.py for
the purge-before-it-outgrows-the-heap contract, tracked by the
``tombstone_fraction`` this function returns).
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..config import BuildConfig
from ..functions import codec
from ..stages.encode import (
    _empty_segment_table,
    decode_docs_stream,
    decode_tfs_stream,
    encode_docs_stream,
    encode_tfs_stream,
    join_docs,
    load_doc_ints,
    read_shard_runs,
    row_bounds,
    split_docs,
    write_doc_ints,
)
from ..state import deletes as deletes_state
from ..state.deletes import live_mask
from ..state.segments import segment_root
from .build import _done, _mark_done, live_stats

_SIDE_TABLES = ("doc_stats", "prepped", "popularity")


def _copy_parquet_dir(src: str, dst: str, tag: str,
                      dead: np.ndarray | None = None) -> None:
    """Copy every parquet file of flat side-table dir ``src`` into ``dst``,
    each name prefixed with ``tag``.  With a non-empty ``dead`` set, the
    files instead stream batch by batch through one filtered write that
    drops those docs' rows, so a directory of many small files lands as
    one.  The one live filter: merge and purge run it as Ray tasks, merge
    one per (source, table), purge one per side table."""
    os.makedirs(dst, exist_ok=True)
    fps = sorted(glob.glob(os.path.join(src, "*.parquet")))
    if fps and dead is not None and dead.size:
        pads.write_dataset(
            pads.dataset(fps, format="parquet").scanner(
                filter=~pc.field("doc_int").isin(pa.array(dead)),
                use_threads=False),
            dst, format="parquet", basename_template=f"{tag}-{{i}}.parquet",
            # prepped's content read unit (build_index writes 64K-row groups)
            max_rows_per_group=64 * 1024,
            existing_data_behavior="overwrite_or_ignore", use_threads=False)
        return
    for fp in fps:
        shutil.copy2(fp, os.path.join(dst, f"{tag}-{os.path.basename(fp)}"))


def delete_docs(index_dir: str, doc_ints) -> dict:
    """Logically delete documents: O(tombstones), visible to every reader
    constructed afterwards (running actors hold the set they loaded —
    the same snapshot semantics Lucene gives an open IndexReader)."""
    return deletes_state.write_tombstones(index_dir, doc_ints)


def _purge_row(row: dict, keep: np.ndarray, docs_codec: str) -> dict:
    """One touched segment row (no ``docs`` cell), given its docs'
    keep-mask (some dead, some live) -> the row re-encoded without the
    dead docs."""
    buf, off = deletes_state.mask_positions(
        row["positions"],
        decode_docs_stream(row["pos_offsets"], docs_codec).astype(np.int64),
        keep,
    )
    tfs = decode_tfs_stream(row["tfs"], docs_codec)[keep]
    return {
        **row,
        "df": int(keep.sum()),
        "tfs": encode_tfs_stream(tfs, docs_codec),
        "weights": codec.encode_f64(codec.decode_f64(row["weights"])[keep]),
        "positions": buf,
        "pos_offsets": encode_docs_stream(off.astype(np.uint64), docs_codec),
    }


def purge_rows(rows: pa.Table, docs: np.ndarray, deleted: np.ndarray,
               docs_codec: str) -> tuple[pa.Table, np.ndarray]:
    """Drop the ``deleted`` docs from a :func:`~..stages.encode.split_docs`
    pair (same row order out): rows whose docs all died go, untouched
    rows keep their bytes, and the surviving doc ints come back flat.
    The one tombstone row loop — ``purge_deletes`` runs it per shard,
    ``merge_indexes`` per source shard before its merge.  One membership
    probe over the flat docs gives the keep-mask, reduced per row, so only
    the rows that hold a dead doc are decoded further and rewritten."""
    if rows.num_rows == 0:
        return rows, docs
    dfs = rows["df"].to_numpy()
    bounds = row_bounds(dfs)
    keep = live_mask(docs, deleted)
    n_keep = np.diff(row_bounds(keep)[bounds])
    if np.array_equal(n_keep, dfs):
        return rows, docs
    same = np.flatnonzero(n_keep == dfs)
    redo = np.flatnonzero((n_keep < dfs) & (n_keep > 0))
    redone = [
        _purge_row(r, keep[bounds[i]:bounds[i + 1]], docs_codec)
        for i, r in zip(redo.tolist(), rows.take(redo).to_pylist())
    ]
    out = pa.concat_tables(
        [rows.take(same), pa.Table.from_pylist(redone, schema=rows.schema)])
    return (out.take(np.argsort(np.concatenate([same, redo]), kind="stable")),
            docs[keep])


def purge_deletes(index_dir: str) -> dict:
    """Physically remove tombstoned docs (module docstring).  Returns
    ``{"n_purged", "n_docs_before", "n_docs_after", "tombstone_fraction",
    "n_term_rows_before", "n_term_rows_after"}``; no-op when the
    tombstone set is empty."""
    import ray
    import ray.data

    deleted = deletes_state.load_tombstones(index_dir)
    stats_path = os.path.join(index_dir, "stats.json")
    with open(stats_path) as f:
        stats = json.load(f)
    if deleted.size == 0:
        return {
            "n_purged": 0,
            "n_docs_before": stats["n_docs"],
            "n_docs_after": stats["n_docs"],
            "tombstone_fraction": 0.0,
            "n_term_rows_before": stats.get("n_term_rows", 0),
            "n_term_rows_after": stats.get("n_term_rows", 0),
        }

    seg_root = segment_root(index_dir)
    num_shards = int(stats["num_shards"])
    docs_codec = stats.get("docs_codec", "varint")
    deleted_ref = ray.put(deleted)
    doc_ints = load_doc_ints(seg_root)
    live_ints = doc_ints[live_mask(doc_ints, deleted)]
    maps_ref = ray.put((doc_ints, live_ints))

    # ---- segments: one task per shard, byte-identical fast path ---------
    tmp_seg = seg_root + ".purge"
    shutil.rmtree(tmp_seg, ignore_errors=True)

    def purge_shard(batch: pa.Table) -> pa.Table:
        dead = ray.get(deleted_ref)
        old_map, new_map = ray.get(maps_ref)
        outs = []
        for shard in batch["shard"].to_pylist():
            t = read_shard_runs(sorted(glob.glob(os.path.join(
                seg_root, f"shard={shard}", "*.parquet"))), shard)
            rows, docs = purge_rows(*split_docs(t, docs_codec, old_map),
                                    dead, docs_codec)
            outs.append(join_docs(rows, docs, docs_codec, new_map))
        return pa.concat_tables(outs) if outs else _empty_segment_table()

    (
        ray.data.from_arrow(
            pa.table({"shard": pa.array(range(num_shards), pa.int32())})
        )
        .repartition(num_shards)
        .map_batches(purge_shard, batch_format="pyarrow", batch_size=1)
        .write_parquet(tmp_seg, partition_cols=["shard"],
                       row_group_size=BuildConfig.segment_row_group_size)
    )
    write_doc_ints(tmp_seg, live_ints)

    # ---- side tables: streaming live-mask filter -------------------------
    # one task per table: run in the caller, the scans' Arrow buffers stay
    # resident and raise its peak RSS
    rewritten: list[tuple[str, str, bool]] = []  # (live, tmp, had_marker)
    copies = []
    for sub in _SIDE_TABLES:
        live = os.path.join(index_dir, sub)
        if not os.path.isdir(live):
            continue
        tmp = live + ".purge"
        shutil.rmtree(tmp, ignore_errors=True)
        copies.append(ray.remote(_copy_parquet_dir).remote(
            live, tmp, "live", deleted_ref))
        rewritten.append((live, tmp, _done(live)))
    ray.get(copies)

    # ---- swap everything, then stats / invalidation / clear --------------
    # (not crash-atomic across dirs; a re-run of purge_deletes after a
    # crash is safe — surviving tombstones re-mask already-purged segments
    # to the same result, and .purge tmp dirs are cleared up front)
    shutil.rmtree(seg_root)
    os.replace(tmp_seg, seg_root)
    for live, tmp, had_marker in rewritten:
        shutil.rmtree(live)
        os.replace(tmp, live)
        if had_marker:
            _mark_done(live)

    n_before = int(stats["n_docs"])
    n_term_rows_before = int(stats.get("n_term_rows", 0))
    stats.update(live_stats(os.path.join(index_dir, "doc_stats"), seg_root))
    with open(stats_path, "w") as f:
        json.dump(stats, f, indent=2)

    # derived tiers would keep serving purged docs or terms; they rebuild
    # on demand
    for kd in (glob.glob(os.path.join(index_dir, "kgram_*"))
               + glob.glob(os.path.join(index_dir, "champions_*"))
               + [os.path.join(index_dir, "permuterm")]):
        shutil.rmtree(kd, ignore_errors=True)

    deletes_state.clear_tombstones(index_dir)
    return {
        "n_purged": n_before - stats["n_docs"],
        "n_docs_before": n_before,
        "n_docs_after": stats["n_docs"],
        "tombstone_fraction": (n_before - stats["n_docs"]) / n_before
        if n_before else 0.0,
        "n_term_rows_before": n_term_rows_before,
        "n_term_rows_after": stats["n_term_rows"],
    }
