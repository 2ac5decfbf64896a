"""Incremental index merge: combine independently built indexes into one.

The reference cannot do this at all — its index build DROPS the collections
and starts over (indexer/Main.java:58-61).  Here a delta corpus can be built
into its own index (cheap, only the new docs) and merged with the base in
one pass: per shard, each source's rows decode their ``docs`` through
that source's own doc-int map (stages/encode.split_docs), then the
build's own term walk (stages/encode.merge_shard_runs; where doc ranges
interleave across indexes its run merger merge-sorts by doc_int and
re-encodes with a single byte-gather for the positions payload) writes
them ranked in the merged map — the sources' maps minus the dead docs,
written beside the merged shards.  The doc-stats / documents tables are
concatenated by file copy, and global stats recompute from footers.

Preconditions (asserted): identical (num_shards, salt_bits), varint
segments, and DISJOINT document sets (run exact dedup across corpora first —
the merge raises on a doc_int in two sources' maps).

Tombstones are CONSUMED by the merge (Lucene's segment-merge semantics:
merging applies deletes physically): each source's
``deletes/tombstones.parquet`` set is unioned and dead docs are dropped
from posting rows before the k-way merge (the row loop of
``pipelines.deletes.purge_deletes``, byte-identical cells when a term
touches no dead doc), doc_stats / prepped copies are live-filtered,
stats recompute over survivors, and the merged index carries NO
tombstone file.

Shape: one Ray task per shard (the parts-table pattern used everywhere in
build.py) — parallelism = num_shards, no all-to-all: shard routing is a pure
function of the term, so the same shard of every index holds the same terms.
The side-table copies run as tasks too, one per (source, table), so their
Arrow scan buffers never land in the caller.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import ray
import ray.data

from ..config import BuildConfig
from ..stages.encode import (
    _empty_segment_table,
    load_doc_ints,
    merge_shard_runs,
    read_shard_runs,
    split_docs,
    write_doc_ints,
)
from ..state import deletes as deletes_state
from ..state.segments import segment_root
from .build import live_stats
from .deletes import _copy_parquet_dir, purge_rows


def merge_indexes(index_dirs: list[str], out_dir: str) -> dict:
    """Merge ≥2 indexes with identical layout config into ``out_dir``;
    returns the merged stats dict.  Merged segments keep the build's row
    group size, the page-lazy reader's fetch unit."""
    assert len(index_dirs) >= 2
    stats = []
    for d in index_dirs:
        with open(os.path.join(d, "stats.json")) as f:
            stats.append(json.load(f))
    num_shards = stats[0]["num_shards"]
    for s in stats[1:]:
        assert s["num_shards"] == num_shards, "num_shards mismatch"
        assert s["salt_bits"] == stats[0]["salt_bits"], "salt_bits mismatch"
    for s in stats:
        # the k-way merge concatenates/re-encodes per-value varint streams;
        # bitpack/ef are write-once FINAL tiers — merge varint indexes, then
        # rebuild with the whole-stream codec if one is wanted
        assert s.get("docs_codec", "varint") == "varint", (
            "merge_indexes requires varint docs streams; "
            f"got docs_codec={s.get('docs_codec')!r}")
    seg_roots = [segment_root(d) for d in index_dirs]

    # every source's doc ints, from the maps beside its segments: the
    # disjointness check runs before anything is written
    all_ints = np.sort(np.concatenate([load_doc_ints(r) for r in seg_roots]))
    if np.any(all_ints[1:] == all_ints[:-1]):
        raise ValueError("indexes share documents — dedup before merging")

    # tombstones are consumed by the merge (module docstring): union the
    # per-source sets — doc sets are disjoint, so one sorted array serves
    # every source's mask probe
    dead_parts = [deletes_state.load_tombstones(d) for d in index_dirs]
    dead = (np.unique(np.concatenate(dead_parts))
            if sum(p.size for p in dead_parts)
            else np.empty(0, dtype=np.int64))
    live_ints = all_ints[deletes_state.live_mask(all_ints, dead)]

    os.makedirs(out_dir, exist_ok=True)

    # side tables: concatenate by file copy (live-filtered when any source
    # carries tombstones).  dup_losers stays unfiltered — losers were
    # never indexed, so liveness doesn't apply to them.  One task per
    # (source, table): run in the caller, the filtered scans' Arrow
    # buffers stay resident and raise its peak RSS.
    dead_ref = ray.put(dead)
    copy_task = ray.remote(_copy_parquet_dir)
    ray.get([
        copy_task.remote(src, os.path.join(out_dir, sub), f"src{i}",
                         None if sub == "dup_losers" else dead_ref)
        for sub in ("doc_stats", "prepped", "dup_losers")
        for i, src in enumerate(os.path.join(d, sub) for d in index_dirs)
        if os.path.isdir(src)])

    shards_tbl = pa.table(
        {"shard": pa.array(list(range(num_shards)), pa.int32())}
    )
    merged_root = os.path.join(out_dir, "segments_merged")
    live_ref = ray.put(live_ints)

    def merge_shard(batch: pa.Table) -> pa.Table:
        dead_set, merged_map = ray.get([dead_ref, live_ref])
        outs = []
        for shard in batch["shard"].to_pylist():
            rows, docs = [], []
            for root in seg_roots:
                r, d = split_docs(read_shard_runs(sorted(glob.glob(
                    os.path.join(root, f"shard={shard}", "*.parquet"))),
                    shard), "varint", load_doc_ints(root))
                if dead_set.size:
                    r, d = purge_rows(r, d, dead_set, "varint")
                rows.append(r)
                docs.append(d)
            outs.append(merge_shard_runs(pa.concat_tables(rows),
                                         np.concatenate(docs),
                                         merged_map))
        return pa.concat_tables(outs) if outs else _empty_segment_table()

    (
        ray.data.from_arrow(shards_tbl)
        .repartition(num_shards)
        .map_batches(merge_shard, batch_format="pyarrow", batch_size=1)
        .write_parquet(merged_root, partition_cols=["shard"],
                       row_group_size=BuildConfig.segment_row_group_size)
    )
    write_doc_ints(merged_root, live_ints)

    merged_stats = {
        **live_stats(os.path.join(out_dir, "doc_stats"), merged_root),
        "num_shards": num_shards,
        "salt_bits": stats[0]["salt_bits"],
        "compacted": True,
        "docs_codec": "varint",
        "merged_from": len(index_dirs),
        # tombstoned docs consumed by this merge (0 = no source had any)
        "n_purged_on_merge": int(dead.size),
    }
    with open(os.path.join(out_dir, "stats.json"), "w") as f:
        json.dump(merged_stats, f, indent=2)
    return merged_stats


def upsert_index(base_dir: str, delta_corpus_dir: str, out_dir: str, cfg,
                 key_cols: tuple[str, ...] = ("repo", "path")) -> dict:
    """Document UPDATE as Lucene does it: updateDocument = delete-by-key +
    add.  doc_int is content/version-derived (stages/prep.py M2 — the
    commit participates in the id), so a new version of ``(repo, path)`` is
    a NEW doc_int; the upsert (1) builds a delta index over
    ``delta_corpus_dir`` alone (cost ∝ delta, never the base), (2)
    tombstones every base doc whose key matches a delta doc (broadcast
    delta-key set + one vectorized isin scan over the base's prepped
    table), and (3) runs the tombstone-consuming :func:`merge_indexes`, so
    ``out_dir`` holds exactly the base-minus-replaced plus delta corpus.

    The base keeps its tombstone file afterwards (its readers stop serving
    the replaced versions immediately — the logical-delete contract); the
    delta index is left at ``<out_dir>.delta`` for inspection.

    Scale shape: the only non-delta-sized work is the streaming key scan
    over base/prepped and the per-shard merge; the broadcast is the delta
    key set (documented small side — deltas are increments).
    """
    import pandas as pd

    # resolved at call time, so wrappers installed on the modules apply
    from .build import build_index
    from .deletes import delete_docs

    delta_idx = out_dir + ".delta"
    if not os.path.exists(os.path.join(delta_idx, "stats.json")):
        shutil.rmtree(delta_idx, ignore_errors=True)
        build_index(delta_corpus_dir, delta_idx, cfg)

    dk = pads.dataset(
        os.path.join(delta_idx, "prepped"), format="parquet"
    ).to_table(columns=list(key_cols))
    delta_keys = pd.Series(
        ["\x1f".join(vals)
         for vals in zip(*[dk[c].to_pylist() for c in key_cols])]
    ).unique()
    keys_ref = ray.put(set(delta_keys))

    def match_keys(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        key = pd.Series(batch[key_cols[0]].to_pandas(), dtype="string")
        for c in key_cols[1:]:
            key = key + "\x1f" + pd.Series(batch[c].to_pandas(),
                                           dtype="string")
        return batch.filter(
            pa.array(key.isin(ks).to_numpy(dtype=bool))
        ).select(["doc_int"])

    replaced = (
        ray.data.read_parquet(
            os.path.join(base_dir, "prepped"), file_extensions=["parquet"],
            columns=["doc_int", *key_cols],
        )
        .map_batches(match_keys, batch_format="pyarrow")
        .to_pandas()["doc_int"]
        .to_numpy()
        .astype(np.int64)
    )
    if replaced.size:
        delete_docs(base_dir, replaced)
    stats = merge_indexes([base_dir, delta_idx], out_dir)
    stats["n_replaced"] = int(replaced.size)
    with open(os.path.join(out_dir, "stats.json"), "w") as f:
        json.dump(stats, f, indent=2)
    return stats
