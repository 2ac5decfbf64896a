"""Deletion tombstones: the Lucene-liveness analog for immutable segments.

The reference mutates its store in place (MongoDBIndexStore.java upserts);
this engine's segments are write-once shuffle outputs, so document deletion
is a SIDE FILE — ``<index_dir>/deletes/tombstones.parquet`` holding the
sorted unique ``doc_int`` set — exactly Lucene's ``.liv`` design re-expressed
for term-sharded parquet segments:

* **Write**: :func:`write_tombstones` unions the new ids with the existing
  set and atomically replaces the file (tmp + rename), so concurrent readers
  see either the old or the new complete set, never a partial one.
* **Read**: ``SegmentReader`` loads the set once per actor and masks every
  decoded posting list against it (:func:`live_mask` on the score
  columns, :func:`mask_positions` when positions load; fully vectorized).
  Candidates drop out of results immediately, but df / n_docs / avgdl stay
  STALE until a purge — Lucene's documented docFreq-includes-deletes
  semantics, and what keeps a delete O(tombstones) instead of O(index).
* **Purge** (``pipelines.deletes.purge_deletes``) is the merge that makes
  deletes physical: per-shard segment rewrite dropping dead docs (one row
  loop, ``pipelines.deletes.purge_rows``, which
  ``pipelines.merge.merge_indexes`` also runs to consume tombstones),
  doc-stats rewrite, stats.json recompute, tombstones cleared.  After a
  purge the index scores byte-identically to a fresh build over the
  surviving corpus (tested in tests/test_deletes.py).

Scale note (100 TB): postings are sharded by TERM, so any posting list may
contain any doc — liveness must be a broadcast membership structure, not a
doc-partitioned bitmap.  A sorted int64 array costs 8 B per live tombstone
(1e8 deletes = 800 MB per scorer actor); the operational contract is
Lucene's: purge before the live set outgrows the actor heap, tracked by the
``tombstone_fraction`` metric purge_deletes returns.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TOMBSTONE_REL = os.path.join("deletes", "tombstones.parquet")


def tombstone_path(index_dir: str) -> str:
    return os.path.join(index_dir, TOMBSTONE_REL)


def load_tombstones(index_dir: str) -> np.ndarray:
    """The sorted unique deleted doc_int set (empty array when none)."""
    path = tombstone_path(index_dir)
    if not os.path.exists(path):
        return np.empty(0, dtype=np.int64)
    t = pq.read_table(path, columns=["doc_int"])
    return t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)


def write_tombstones(index_dir: str, doc_ints) -> dict:
    """Union ``doc_ints`` into the tombstone set; atomic replace.

    Returns ``{"n_requested", "n_new", "n_total"}``.
    """
    new = np.unique(np.asarray(doc_ints, dtype=np.int64))
    existing = load_tombstones(index_dir)
    merged = np.union1d(existing, new) if existing.size else new
    path = tombstone_path(index_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), suffix=".tmp.parquet"
    )
    os.close(fd)
    pq.write_table(
        pa.table({"doc_int": pa.array(merged, pa.int64())}), tmp
    )
    os.replace(tmp, path)  # atomic on POSIX
    return {
        "n_requested": int(new.size),
        "n_new": int(merged.size - existing.size),
        "n_total": int(merged.size),
    }


def clear_tombstones(index_dir: str) -> None:
    path = tombstone_path(index_dir)
    if os.path.exists(path):
        os.remove(path)


def live_mask(docs: np.ndarray, deleted: np.ndarray) -> np.ndarray:
    """Boolean keep-mask: True where ``docs[i]`` is NOT in ``deleted``.

    Both inputs sorted int64; one vectorized searchsorted membership probe.
    """
    if deleted.size == 0:
        return np.ones(docs.size, dtype=bool)
    idx = np.searchsorted(deleted, docs)
    idx[idx == deleted.size] = 0  # clamp; equality check below rejects
    return deleted[idx] != docs


def mask_positions(
    positions_buf: bytes, pos_offsets: np.ndarray, keep: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Compact one posting list's positions payload to the docs ``keep``
    marks (a :func:`live_mask`): one vectorized byte gather.  Returns
    ``(positions_buf, pos_offsets)``; the score columns mask with plain
    ``[keep]`` indexing."""
    off = pos_offsets.astype(np.int64)
    lens = off[1:] - off[:-1]
    keep_starts = off[:-1][keep]
    keep_lens = lens[keep]
    new_off = np.zeros(keep_lens.size + 1, dtype=np.int64)
    np.cumsum(keep_lens, out=new_off[1:])
    total = int(new_off[-1])
    if not total:
        return b"", new_off
    raw = np.frombuffer(positions_buf, dtype=np.uint8)
    gather = np.repeat(keep_starts - new_off[:-1], keep_lens) + np.arange(
        total, dtype=np.int64
    )
    return raw[gather].tobytes(), new_off
