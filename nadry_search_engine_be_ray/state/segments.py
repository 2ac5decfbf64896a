"""Segment store: query-time access to the posting-list segments.

Reference analog: MongoDBIndexStore posting reads
(MongoDBIndexStore.java:326-409, S9/S10) and the doc-details lookups
(S11/S12).  Here each shard is a set of parquet files produced by the build.

Laziness is two-level (the 100 TB working-set story):

* SHARD-lazy: ``term -> shard`` is the same pure hash the build used
  (stages/tokenize.term_shard), so a query only faults in the shards its
  terms route to; ``terms()`` / ``has_term`` force-load the dictionary.
* PAGE-lazy (default): faulting in a shard reads ONLY the (term, salt)
  dictionary columns; the heavy binary payload columns (docs/tfs/weights/
  block_max/positions/pos_offsets) are fetched per parquet ROW GROUP on
  first touch and kept in a small LRU — a cold serving actor pays for the
  row groups its queries actually hit, not the whole segment.  Segment
  files are written with small row groups (BuildConfig
  .segment_row_group_size) precisely so this fetch unit stays bounded.

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

_PAYLOAD_COLS = [
    "df", "docs", "tfs", "weights", "block_max", "positions", "pos_offsets",
]


@dataclass
class PostingList:
    term: str
    docs: np.ndarray        # sorted int64 doc_ints (60-bit)
    tfs: np.ndarray         # int64 per-doc total tf
    weights: np.ndarray     # float64 per-doc accumulated field weight
    block_max: np.ndarray   # float64 per-block max weight
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
    """One segment parquet file: dictionary columns eager, payload columns
    row-group-lazy (or fully eager when ``lazy_payload=False``)."""

    def __init__(self, path: str, lazy_payload: bool):
        self.lazy = lazy_payload
        self.pf = pq.ParquetFile(path, memory_map=True)
        md = self.pf.metadata
        self.rg_offsets = np.cumsum(
            [0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        )
        if lazy_payload:
            small = self.pf.read(columns=["term", "salt"])
            self.table = None
        else:
            self.table = self.pf.read()
            small = self.table
        self.terms = small["term"].to_pylist()
        self.salts = small["salt"].to_pylist()

    def row(self, row: int, rg_cache: dict, cache_cap: int) -> pa.Table:
        """The 1-row payload slice for ``row`` (all payload columns)."""
        if not self.lazy:
            return self.table.slice(row, 1)
        g = int(np.searchsorted(self.rg_offsets, row, side="right") - 1)
        key = (id(self), g)
        tbl = rg_cache.pop(key, None)   # pop + reinsert = true LRU recency
        if tbl is None:
            tbl = self.pf.read_row_group(g, columns=_PAYLOAD_COLS)
            if len(rg_cache) >= cache_cap:
                rg_cache.pop(next(iter(rg_cache)))
        rg_cache[key] = tbl
        return tbl.slice(row - int(self.rg_offsets[g]), 1)


class SegmentReader:
    """Serves decoded posting lists from segment shard(s) — see module
    docstring for the two-level laziness."""

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 lazy: bool = True, lazy_payload: bool = True,
                 rg_cache_cap: int = 64):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self._seg_root = os.path.join(
            index_dir, "segments_merged" if self.stats["compacted"] else "segments"
        )
        self.num_shards = int(self.stats["num_shards"])
        self.block_size = int(self.stats.get("block_size", codec.BLOCK_SIZE))
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
        self.lazy_payload = lazy_payload
        self.rg_cache_cap = rg_cache_cap
        # term -> list[(file_idx, row, salt)] — multiple rows when uncompacted
        self._term_index: dict[str, list[tuple[int, int, int]]] = {}
        self._pl_cache: dict[str, PostingList] = {}
        self._files: list[_SegFile] = []
        self._rg_cache: dict = {}
        self._loaded: set[int] = set()
        self._load_lock = threading.Lock()
        if not lazy:
            self._load_all()

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
                sf = _SegFile(fp, self.lazy_payload)
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
        row_tbls = [
            self._files[ti].row(row, self._rg_cache, self.rg_cache_cap)
            for ti, row, _salt in rows
        ]
        shift = 0
        for t in row_tbls:
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
        if len(rows) == 1:
            # compacted hot path: consume the block_max the build wrote
            # (stats.json block_size matches by construction)
            bmax = codec.decode_f64(row_tbls[0]["block_max"][0].as_py())
        else:
            # multi-run concatenation shifts block boundaries -> recompute
            bmax = codec.block_max(weights, self.block_size)
        df_total = None
        if self.deleted.size:
            masked = deletes_state.mask_posting(
                docs, tfs, weights, pos_buf, offs, self.deleted,
                self.block_size,
            )
            if masked is not None:
                (docs, tfs, weights, bmax, pos_buf, offs,
                 df_total) = masked
        pl = PostingList(
            term=term,
            docs=docs,
            tfs=tfs,
            weights=weights,
            block_max=bmax,
            positions_buf=pos_buf,
            pos_offsets=offs,
            df_total=df_total,
        )
        # bounded decoded-posting cache (Zipfian term reuse across queries)
        if len(self._pl_cache) >= 512:
            self._pl_cache.pop(next(iter(self._pl_cache)))
        self._pl_cache[term] = pl
        return pl

    def shard_for(self, term: str) -> int:
        return term_shard(term, self.num_shards)
