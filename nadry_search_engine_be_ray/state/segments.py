"""Segment store: query-time access to the posting-list segments.

Reference analog: MongoDBIndexStore posting reads
(MongoDBIndexStore.java:326-409, S9/S10) and the doc-details lookups
(S11/S12).  Here each shard is a set of parquet files produced by the build.

Laziness is two-level (the 100 TB working-set story):

* SHARD-lazy: ``term -> shard`` is the same pure hash the build used
  (stages/tokenize.term_shard), so a query only faults in the shards its
  terms route to; ``terms()`` / ``has_term`` force-load the dictionary.
* PAGE-lazy: faulting in a shard reads ONLY the (term, df) dictionary
  columns — one row per term, since the build merges a term's salt
  runs; the binary payload columns
  (stages/encode.SEGMENT_SCHEMA) are fetched per parquet ROW GROUP on
  first touch and kept decoded in a small LRU — a cold serving actor pays
  for the row groups its queries actually hit, not the whole segment.
  Scoring reads only the docs/tfs/weights columns: a group's three score
  columns are decoded once, one pass per column
  (stages/encode.decode_docs_column), so every later term of that group is
  an array slice.  The ``docs`` column stores doc ordinals; the decode
  maps them back through the tier's sorted doc-int map
  (``segments_merged/_doc_ints``, loaded once per reader) with one
  ``take``, so the cache and every caller see sorted doc ints.
  Positions (positions/pos_offsets) are a separate per-group fetch under
  their own cache key, made on a posting list's
  first ``positions_buf``/``pos_offsets`` access — BM25 never pays for
  them.  Segment files are written with small row groups
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

import functools
import glob
import json
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pyarrow.parquet as pq

from ..functions import codec
from ..stages.encode import (
    DOC_INTS,
    binary_column,
    decode_docs_column,
    decode_tfs_column,
    load_doc_ints,
)
from ..stages.tokenize import term_shard
from . import deletes as deletes_state

_SCORE_COLS = ["docs", "tfs", "weights"]
_POSITION_COLS = ["positions", "pos_offsets"]
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
    """The segment tier queries read: ``segments_merged``, one row per
    term.  An index whose stats.json says ``compacted: false`` left its
    salt runs unmerged, and one whose tier has no doc-int map stores
    doc_int gaps (format v7 and older); nothing reads either any more."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        if not json.load(f)["compacted"]:
            raise ValueError(
                f"{index_dir}: unmerged segment runs (compacted: false) are "
                "not readable; rebuild the index")
    root = os.path.join(index_dir, "segments_merged")
    if not os.path.exists(os.path.join(root, DOC_INTS)):
        raise ValueError(
            f"{index_dir}: segments without a {DOC_INTS} doc-ordinal map "
            "(doc_int gaps, index format v7 or older) are not readable; "
            "rebuild the index")
    return root


@dataclass
class PostingList:
    term: str
    # sorted int64 doc_ints (60-bit), mapped back from the stored ordinals
    docs: np.ndarray
    tfs: np.ndarray         # int64 per-doc total tf
    weights: np.ndarray     # float64 per-doc accumulated field weight
    # (positions_buf, pos_offsets), or a no-argument loader that returns
    # the pair; ``SegmentReader.postings`` passes a loader, called on the
    # first ``positions_buf``/``pos_offsets`` access
    positions: tuple[bytes, np.ndarray] | Callable[[], tuple]
    # df INCLUDING tombstoned docs (None = no deletes touched this list).
    # Scoring idf uses df_stale — Lucene's docFreq-includes-deletes
    # semantics: stats stay stale until purge (state/deletes.py).
    df_total: int | None = None

    def _positions(self) -> tuple[bytes, np.ndarray]:
        pair = self.positions
        if callable(pair):
            # threads racing here load the same pair; either store is fine
            pair = self.positions = pair()
        return pair

    @property
    def positions_buf(self) -> bytes:
        return self._positions()[0]

    @property
    def pos_offsets(self) -> np.ndarray:
        """int64 per-doc byte offsets into ``positions_buf`` (len df+1)."""
        return self._positions()[1]

    def __getstate__(self):
        # ShardSegmentActor.fetch ships whole PostingLists: send the loaded
        # positions, not the loader's file handles and cache lock
        self._positions()
        return self.__dict__

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
    """One segment parquet file: dictionary columns (term, df) eager,
    payload columns fetched and decoded per row group on first touch."""

    def __init__(self, path: str, docs_codec: str, doc_ints: np.ndarray):
        self.pf = pq.ParquetFile(path, memory_map=True)
        self.docs_codec = docs_codec
        self.doc_ints = doc_ints  # the tier's ordinal -> doc_int map
        md = self.pf.metadata
        self.rg_offsets = np.cumsum(
            [0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        )
        small = self.pf.read(columns=["term", "df"])
        self.terms = small["term"].to_pylist()
        self.dfs = small["df"].to_numpy()

    def _group(self, row: int) -> tuple[int, int]:
        """(row group, ``row``'s index inside it)."""
        g = int(np.searchsorted(self.rg_offsets, row, side="right") - 1)
        return g, row - int(self.rg_offsets[g])

    def _dfs(self, g: int) -> np.ndarray:
        return self.dfs[self.rg_offsets[g]:self.rg_offsets[g + 1]]

    def row(self, row: int, rg_cache: LRU):
        """``(docs, tfs, weights)`` of ``row``, docs as int64 doc ints.  On
        a miss its row group's three score columns are read and decoded
        whole, one pass per column (the docs ordinals mapped to doc ints),
        and cached in ``rg_cache`` under ``(id(self), g)``; a hit is three
        array slices."""
        g, i = self._group(row)
        key = (id(self), g)
        dec = rg_cache.get(key)
        if dec is None:
            t = self.pf.read_row_group(g, columns=_SCORE_COLS)
            dfs = self._dfs(g)
            docs, bounds = decode_docs_column(t["docs"], dfs, self.docs_codec,
                                              self.doc_ints)
            tfs, _ = decode_tfs_column(t["tfs"], dfs, self.docs_codec)
            weights = np.frombuffer(binary_column(t["weights"])[0], "<f8")
            if weights.size != docs.size:
                raise ValueError("weights column != docs column")
            dec = (bounds, docs, tfs.astype(np.int64), weights)
            rg_cache.put(key, dec)
        bounds, docs, tfs, weights = dec
        s, e = bounds[i], bounds[i + 1]
        return docs[s:e], tfs[s:e], weights[s:e]

    def positions(self, row: int, rg_cache: LRU) -> tuple[bytes, np.ndarray]:
        """``(positions bytes, pos_offsets)`` of ``row``, its row group's
        two position columns fetched and decoded like :meth:`row`, under
        ``(id(self), g, "positions")``."""
        g, i = self._group(row)
        key = (id(self), g, "positions")
        dec = rg_cache.get(key)
        if dec is None:
            t = self.pf.read_row_group(g, columns=_POSITION_COLS)
            offs, bounds = decode_docs_column(
                t["pos_offsets"], self._dfs(g) + 1, self.docs_codec)
            dec = (bounds, offs.astype(np.int64),
                   *binary_column(t["positions"]))
            rg_cache.put(key, dec)
        bounds, offs, data, byte_offs = dec
        return (data[byte_offs[i]:byte_offs[i + 1]].tobytes(),
                offs[bounds[i]:bounds[i + 1]])


def _load_positions(sf: _SegFile, row: int, rg_cache: LRU,
                    keep: np.ndarray | None) -> tuple[bytes, np.ndarray]:
    """The positions pair of ``sf``'s ``row``, masked to the docs ``keep``
    marks.  It holds no ``SegmentReader``: a cached PostingList that
    referenced its reader would make a reader -> _pl_cache -> PostingList
    cycle, and the reader would outlive ``del`` until cyclic GC ran."""
    buf, offs = sf.positions(row, rg_cache)
    if keep is not None:
        return deletes_state.mask_positions(buf, offs, keep)
    return buf, offs.copy()  # a loaded list must not pin its row group


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
        # docs/tfs/pos_offsets streams use the build's final-tier codec;
        # the nested positions payload stays varint
        self._docs_codec = self.stats.get("docs_codec", "varint")
        # the tier's sorted doc-int map (ordinal -> doc_int), 8 B/doc
        self.doc_ints = load_doc_ints(self._seg_root)
        # tombstone set (state/deletes.py): loaded once per reader/actor,
        # applied to every decoded posting list; empty array = zero overhead
        self.deleted = deletes_state.load_tombstones(index_dir)
        self.shards = shards if shards is not None else list(range(self.num_shards))
        # term -> (file_idx, row) of its one segment row
        self._term_index: dict[str, tuple[int, int]] = {}
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
            index: dict[str, tuple[int, int]] = {}
            for fp in files:
                sf = _SegFile(fp, self._docs_codec, self.doc_ints)
                ti = len(self._files)
                self._files.append(sf)
                index.update((term, (ti, row))
                             for row, term in enumerate(sf.terms))
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
        """On-disk document frequency of the term's row; 0 for an unknown
        term.  Dictionary-only (no payload read) and, like
        ``PostingList.df_stale``, it counts tombstoned docs until purge."""
        self._load_shard(self.shard_for(term))
        loc = self._term_index.get(term)
        return 0 if loc is None else int(self._files[loc[0]].dfs[loc[1]])

    def postings(self, term: str) -> PostingList | None:
        self._load_shard(self.shard_for(term))
        loc = self._term_index.get(term)
        if loc is None:
            return None
        cached = self._pl_cache.get(term)
        if cached is not None:
            return cached
        sf, row = self._files[loc[0]], loc[1]
        # copies: a cached list must not pin its decoded row group
        docs, tfs, weights = (c.copy() for c in sf.row(row, self._rg_cache))
        keep = df_total = None
        if self.deleted.size:
            live = deletes_state.live_mask(docs, self.deleted)
            if not live.all():
                keep, df_total = live, int(docs.size)
                docs, tfs, weights = docs[keep], tfs[keep], weights[keep]
        pl = PostingList(
            term=term,
            docs=docs,
            tfs=tfs,
            weights=weights,
            positions=functools.partial(
                _load_positions, sf, row, self._rg_cache, keep),
            df_total=df_total,
        )
        self._pl_cache.put(term, pl)
        return pl

    def shard_for(self, term: str) -> int:
        return term_shard(term, self.num_shards)
