"""Segment store: query-time access to the posting-list segments.

Reference analog: MongoDBIndexStore posting reads
(MongoDBIndexStore.java:326-409, S9/S10) and the doc-details lookups
(S11/S12).  Here each shard is a set of parquet files produced by the build.

Laziness is two-level (the 100 TB working-set story):

* SHARD-lazy: ``term -> shard`` is the same pure hash the build used
  (stages/tokenize.term_shard), so a query only faults in the shards its
  terms route to; ``terms()`` / ``has_term`` force-load the dictionary.
* PAGE-lazy: faulting in a shard reads ONLY the (term, salt, df)
  dictionary columns; the heavy binary payload columns (docs/tfs/weights/
  positions/pos_offsets, stages/encode.SEGMENT_SCHEMA) are fetched per
  parquet ROW GROUP on first touch and kept in a small LRU — a cold
  serving actor pays for the row groups its queries actually hit, not the
  whole segment.  Segment files are written with small row groups
  (BuildConfig.segment_row_group_size) precisely so this fetch unit stays
  bounded.

One ``LRU`` class bounds every query-time cache: the row-group and decoded
posting caches here, and ``SearchEngine``'s query/page cache
(pipelines/query.py).  Each instance holds its own lock and counts its
hits, misses and evictions.

At cluster scale one ``SegmentReader`` per shard lives inside a scorer actor
(pipelines/query.py); in tests a single reader loads all shards.
"""

from __future__ import annotations

import glob
import json
import os
import threading
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import codec
from ..stages.tokenize import term_shard
from . import deletes as deletes_state

_PAYLOAD_COLS = ["docs", "tfs", "weights", "positions", "pos_offsets"]
POSTING_CACHE_ENTRIES = 512


class LRU:
    """Bounded least-recently-used map that threads may share.

    ``get`` and ``put`` update recency and the hit/miss/eviction counters
    under one lock.  ``in`` and ``len`` are pure reads that change neither,
    so a probe can look at the cache without moving what it measures.
    ``get`` returns ``None`` for a miss, so callers never store ``None``."""

    def __init__(self, cap: int):
        self.cap = cap
        self._d: dict = {}
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        with self._lock:
            value = self._d.pop(key, None)
            if value is None:
                self.misses += 1
                return None
            self._d[key] = value  # pop + reinsert = most recently used
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if self._d.pop(key, None) is None and len(self._d) >= self.cap:
                del self._d[next(iter(self._d))]
                self.evictions += 1
            self._d[key] = value

    def __contains__(self, key) -> bool:
        return key in self._d

    def __len__(self) -> int:
        return len(self._d)

    def metrics(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "size": len(self._d),
                    "cap": self.cap}


def segment_root(index_dir: str) -> str:
    """The segment tier queries read: ``segments_merged`` once the build
    compacted its salted runs, else the raw ``segments`` runs."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        compacted = json.load(f)["compacted"]
    return os.path.join(index_dir,
                        "segments_merged" if compacted else "segments")


@dataclass
class PostingList:
    term: str
    docs: np.ndarray        # sorted int64 doc_ints (60-bit)
    tfs: np.ndarray         # int64 per-doc total tf
    weights: np.ndarray     # float64 per-doc accumulated field weight
    positions_buf: bytes
    pos_offsets: np.ndarray  # int64 per-doc byte offsets (len = df+1)
    # df INCLUDING tombstoned docs (None = no deletes touched this list).
    # Scoring idf uses df_stale — Lucene's docFreq-includes-deletes
    # semantics: stats stay stale until purge (state/deletes.py).
    df_total: int | None = None

    @property
    def df(self) -> int:
        return int(self.docs.size)

    @property
    def df_stale(self) -> int:
        return self.df if self.df_total is None else int(self.df_total)

    def positions_for(self, doc_index: int) -> dict[int, np.ndarray]:
        return codec.decode_doc_positions(
            self.positions_buf, self.pos_offsets, doc_index
        )

    def positions_for_many(
        self, doc_indices: np.ndarray
    ) -> list[dict[int, np.ndarray]]:
        """Batched positions decode (one vectorized varint pass)."""
        return codec.decode_doc_positions_many(
            self.positions_buf, self.pos_offsets, doc_indices
        )


class _SegFile:
    """One segment parquet file: dictionary columns (term, salt, df) eager,
    payload columns row-group-lazy."""

    def __init__(self, path: str):
        self.pf = pq.ParquetFile(path, memory_map=True)
        md = self.pf.metadata
        self.rg_offsets = np.cumsum(
            [0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        )
        small = self.pf.read(columns=["term", "salt", "df"])
        self.terms = small["term"].to_pylist()
        self.salts = small["salt"].to_pylist()
        self.dfs = small["df"].to_numpy()

    def row(self, row: int, rg_cache: LRU) -> pa.Table:
        """The 1-row payload slice for ``row`` (all payload columns), its
        row group fetched through ``rg_cache``."""
        g = int(np.searchsorted(self.rg_offsets, row, side="right") - 1)
        key = (id(self), g)
        tbl = rg_cache.get(key)
        if tbl is None:
            tbl = self.pf.read_row_group(g, columns=_PAYLOAD_COLS)
            rg_cache.put(key, tbl)
        return tbl.slice(row - int(self.rg_offsets[g]), 1)


class SegmentReader:
    """Serves decoded posting lists from segment shard(s) — see module
    docstring for the two-level laziness."""

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 rg_cache_cap: int = 64):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self._seg_root = segment_root(index_dir)
        self.num_shards = int(self.stats["num_shards"])
        # docs/tfs/pos_offsets-stream decoders per the build's final-tier
        # codec (stats.json); the nested positions payload stays varint
        _codec_name = self.stats.get("docs_codec", "varint")
        if _codec_name == "bitpack":
            self._decode_docs = codec.decode_sorted_bitpack
            self._decode_tfs = codec.decode_bitpack
        elif _codec_name == "ef":
            self._decode_docs = codec.decode_ef
            self._decode_tfs = codec.decode_bitpack
        else:
            self._decode_docs = codec.decode_sorted_deltas
            self._decode_tfs = codec.decode_varints
        # tombstone set (state/deletes.py): loaded once per reader/actor,
        # applied to every decoded posting list; empty array = zero overhead
        self.deleted = deletes_state.load_tombstones(index_dir)
        self.shards = shards if shards is not None else list(range(self.num_shards))
        # term -> list[(file_idx, row, salt)] — multiple rows when uncompacted
        self._term_index: dict[str, list[tuple[int, int, int]]] = {}
        # decoded postings (Zipfian term reuse across queries)
        self._pl_cache = LRU(POSTING_CACHE_ENTRIES)
        self._files: list[_SegFile] = []
        self._rg_cache = LRU(rg_cache_cap)
        self._loaded: set[int] = set()
        self._load_lock = threading.Lock()

    def _load_shard(self, shard: int) -> None:
        """Fault in one shard's dictionary exactly once, even when HTTP
        threads share this reader: its terms become visible whole, and the
        shard counts as loaded only after they are."""
        if shard in self._loaded or shard not in self.shards:
            return
        with self._load_lock:
            if shard in self._loaded:
                return
            files = sorted(glob.glob(
                os.path.join(self._seg_root, f"shard={shard}", "*.parquet")
            ))
            # a term routes to one shard, so this shard's runs are all of it
            index: dict[str, list[tuple[int, int, int]]] = {}
            for fp in files:
                sf = _SegFile(fp)
                ti = len(self._files)
                self._files.append(sf)
                for row, (term, salt) in enumerate(zip(sf.terms, sf.salts)):
                    index.setdefault(term, []).append((ti, row, salt))
            # order runs by salt so concatenation preserves doc_int order
            for rows in index.values():
                rows.sort(key=lambda r: r[2])
            self._term_index.update(index)
            self._loaded.add(shard)

    def _load_all(self) -> None:
        for shard in self.shards:
            self._load_shard(shard)

    def has_term(self, term: str) -> bool:
        self._load_shard(self.shard_for(term))
        return term in self._term_index

    def terms(self):
        self._load_all()
        return self._term_index.keys()

    def df(self, term: str) -> int:
        """On-disk document frequency, summed over the term's runs; 0 for
        an unknown term.  Dictionary-only (no payload read) and, like
        ``PostingList.df_stale``, it counts tombstoned docs until purge."""
        self._load_shard(self.shard_for(term))
        return sum(int(self._files[ti].dfs[row])
                   for ti, row, _salt in self._term_index.get(term, ()))

    def postings(self, term: str) -> PostingList | None:
        self._load_shard(self.shard_for(term))
        rows = self._term_index.get(term)
        if not rows:
            return None
        cached = self._pl_cache.get(term)
        if cached is not None:
            return cached
        docs_parts, tf_parts, w_parts = [], [], []
        pos_bufs: list[bytes] = []
        off_parts: list[np.ndarray] = []
        shift = 0
        for ti, row, _salt in rows:
            t = self._files[ti].row(row, self._rg_cache)
            docs_parts.append(
                self._decode_docs(t["docs"][0].as_py()).astype(np.int64)
            )
            tf_parts.append(
                self._decode_tfs(t["tfs"][0].as_py()).astype(np.int64)
            )
            w_parts.append(codec.decode_f64(t["weights"][0].as_py()))
            buf = t["positions"][0].as_py()
            off = self._decode_docs(
                t["pos_offsets"][0].as_py()
            ).astype(np.int64)
            pos_bufs.append(buf)
            off_parts.append((off[1:] if shift else off) + shift)
            shift += int(off[-1])
        docs = np.concatenate(docs_parts)
        weights = np.concatenate(w_parts)
        tfs = np.concatenate(tf_parts)
        pos_buf = b"".join(pos_bufs)
        offs = np.concatenate(off_parts)
        df_total = None
        if self.deleted.size:
            masked = deletes_state.mask_posting(
                docs, tfs, weights, pos_buf, offs, self.deleted)
            if masked is not None:
                docs, tfs, weights, pos_buf, offs, df_total = masked
        pl = PostingList(
            term=term,
            docs=docs,
            tfs=tfs,
            weights=weights,
            positions_buf=pos_buf,
            pos_offsets=offs,
            df_total=df_total,
        )
        self._pl_cache.put(term, pl)
        return pl

    def shard_for(self, term: str) -> int:
        return term_shard(term, self.num_shards)
