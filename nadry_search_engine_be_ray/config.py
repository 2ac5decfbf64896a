"""Engine configuration (replaces the reference's scattered constants:
IndexerConfig.java:3-23, InvertedIndex.java:13-15, Main.java:26-27)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BuildConfig:
    # --- shuffle layout -----------------------------------------------------
    # segment shard = stable_hash(term) % num_shards: the partitioning key for
    # the posting-list build AND the query-time term -> shard routing function
    # (SURVEY.md §7.3).  Production sizing: thousands; tests: small.
    num_shards: int = 8
    # uniform doc-range salting: every (term, shard) group is further split by
    # the TOP bits of doc_int into 2**salt_bits runs.  Runs are disjoint,
    # ordered doc_int ranges, so the build's per-shard merge joins a term's
    # runs into its one segment row in salt order — skewed head terms
    # ("import", "return") never exceed ~1/2**salt_bits of the corpus per
    # reduce task, with no head-term detection pre-pass (SURVEY.md §4.2
    # skew).
    salt_bits: int = 2

    # --- codec --------------------------------------------------------------
    # posting-stream codec for the segment tier — applies to the docs, tfs
    # and pos_offsets streams (the nested positions payload stays varint):
    # "varint"  — delta-gap varint, per-value code: cross-index merges
    #             concatenate byte-wise without decoding
    # "bitpack" — frame-of-reference bit packing (functions/codec.py),
    #             12% smaller docs gaps + 55% smaller tfs at sf0.01
    #             (BASELINE.md); write-once only (merge_indexes refuses
    #             bitpack sources — re-encode is the price of the block code)
    # "ef"      — Elias-Fano on the monotone streams, likewise write-once.
    # The salt runs the build stages before its merge are ALWAYS varint.
    docs_codec: str = "varint"
    # segment files use SMALL parquet row groups so the page-lazy reader's
    # fetch unit (one row group of binary payloads) stays bounded — the
    # serving-side analog of block size.  ~512 terms x ~200 B payload ≈
    # 100 KB per fetch.  Build, merge and purge all write with this value.
    segment_row_group_size: int = 512

    # M1 field extraction mode: "code" (path/leading-comment/content) or
    # "html" (reference DocumentProcessor selectors, stages/htmlproc.py)
    content_mode: str = "code"


@dataclass
class PageRankConfig:
    # nadry/ranker/PageRank.java:11-13
    damping: float = 0.85
    tolerance: float = 1.0e-6
    max_iter: int = 100
    # True replicates the reference's in/out-degree quirk (SURVEY.md §2.5 A10)
    as_implemented: bool = True
