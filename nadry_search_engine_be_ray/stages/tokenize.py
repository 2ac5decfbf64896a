"""Tokenize stage: documents -> posting tuples (the map side of the index
build shuffle).

Reference analog: IndexBuilder.indexDocumentField (IndexBuilder.java:126-145)
+ InvertedIndex.addTerm merge (InvertedIndex.java:82-122, 183-214), collapsed
into a single stateful ``map_batches`` stage (T1 in SURVEY.md §2.3): the
tokenizer (with its Porter2 stem cache) lives once per worker in
``__init__``; ``__call__`` processes whole Arrow batches.

Output row per (term, doc, field):
    term:str, doc_int:i64, field:i8,
    tf:i32 (occurrences of term in this doc+field),
    pos:binary — the row's positions ALREADY varint-encoded as
        [count][abs][deltas...] (codec.encode_row_positions, one batch-wide
        vectorized pass).  Pre-encoding here roughly halves the bytes the
        posting shuffle moves (vs list<int32> + a redundant weight float +
        replicated doc_tw), and the reduce side assembles final segment
        payloads by byte concatenation instead of re-encoding.
    part:i32 (shuffle key = shard * n_salts + salt; shard = stable term
        hash, salt = top bits of doc_int — SURVEY.md §7.3/§4.2 skew handling)

``weight`` (tf × field boost, InvertedIndex.java:229-232) is NOT shipped:
it is a pure function of (tf, field), recomputed vectorized at encode.

Additionally ONE sentinel row per doc (field == SENTINEL_FIELD, term "",
empty pos, tf = the doc's totalWords) rides the same partitioned shuffle,
routed to part ``doc_int % num_parts``: the doc-stats table (A2) falls out
of the reduce side as a filter — no extra pass, no extra groupby.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..config import BuildConfig
from ..functions import codec
from ..functions.tokenizer import Tokenizer
from ..stages.fieldsplit import FIELD_BODY, FIELD_DESCRIPTION, FIELD_TITLE

POSTING_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_int", pa.int64()),
        ("field", pa.int8()),
        ("tf", pa.int32()),
        ("pos", pa.binary()),
        ("part", pa.int32()),
    ]
)

SENTINEL_FIELD = -1  # marks the one-per-doc totalWords carrier row


def term_shard(term: str, num_shards: int) -> int:
    """Stable term -> shard routing (query-time uses the same function)."""
    return zlib.crc32(term.encode()) % num_shards


def doc_salt(doc_int: int, salt_bits: int) -> int:
    return (int(doc_int) >> (60 - salt_bits)) if salt_bits else 0


class TokenizeBatch:
    """Callable stage for ``map_batches``: the build passes one instance,
    run as stateless tasks that each hold a copy of its tokenizer."""

    def __init__(self, config: BuildConfig | None = None):
        self.config = config or BuildConfig()
        self.tokenizer = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized accumulation: the per-token Python work is ONE interned
        dict lookup (token -> id) + a list append; (term, doc, field) rows,
        tf counts and position groupings then come from a single stable
        argsort over composite int keys, and the shard hash runs once per
        UNIQUE token per batch instead of once per output row."""
        cfg = self.config
        n_salts = 1 << cfg.salt_bits
        num_parts = cfg.num_shards * n_salts
        tk = self.tokenizer

        col_doc_int = batch["doc_int"].to_numpy(zero_copy_only=False)
        col_title = batch["title"].to_pylist()
        col_desc = batch["description"].to_pylist()
        col_body = batch["content"].to_pylist()
        nrows = batch.num_rows

        tok_id: dict[str, int] = {}    # final token -> batch-local id
        vocab: list[str] = []
        flat_ids: list[int] = []       # one per kept token, segment-major
        seg_doc: list[int] = []        # per segment: doc row index
        seg_field: list[int] = []      # per segment: field code
        seg_len: list[int] = []        # per segment: token count
        doc_total = np.zeros(nrows, dtype=np.int64)

        for i in range(nrows):
            for ftype, text in (
                (FIELD_TITLE, col_title[i]),
                (FIELD_DESCRIPTION, col_desc[i]),
                (FIELD_BODY, col_body[i]),
            ):
                if not text:
                    continue
                tokens = tk.tokenize(text)
                doc_total[i] += len(tokens)
                if not tokens:
                    continue
                get = tok_id.get
                for t in tokens:
                    tid = get(t)
                    if tid is None:
                        tid = len(vocab)
                        tok_id[t] = tid
                        vocab.append(t)
                    flat_ids.append(tid)
                seg_doc.append(i)
                seg_field.append(ftype)
                seg_len.append(len(tokens))

        seg_len_a = np.asarray(seg_len, dtype=np.int64)
        nseg = len(seg_len)
        total = int(seg_len_a.sum()) if nseg else 0
        ids_a = np.asarray(flat_ids, dtype=np.int64)
        seg_starts = np.zeros(nseg, dtype=np.int64)
        if nseg > 1:
            np.cumsum(seg_len_a[:-1], out=seg_starts[1:])
        seg_of_tok = np.repeat(np.arange(nseg, dtype=np.int64), seg_len_a)
        pos_in_seg = np.arange(total, dtype=np.int64) - seg_starts[seg_of_tok]

        # group by (segment, token): stable sort keeps positions ascending
        key = seg_of_tok * max(1, len(vocab)) + ids_a
        order = np.argsort(key, kind="stable")
        ks = key[order]
        run_start = np.ones(total, dtype=bool)
        run_start[1:] = ks[1:] != ks[:-1]
        starts_idx = np.flatnonzero(run_start)
        run_len = np.diff(np.append(starts_idx, total))
        run_seg = seg_of_tok[order][starts_idx]
        run_tid = ids_a[order][starts_idx]

        # per-unique-token shard; per-doc salt
        shard_of = np.array(
            [term_shard(t, cfg.num_shards) for t in vocab], dtype=np.int64
        ) if vocab else np.empty(0, dtype=np.int64)
        salt_of_doc = np.array(
            [doc_salt(int(d), cfg.salt_bits) for d in col_doc_int],
            dtype=np.int64,
        )

        seg_doc_a = np.asarray(seg_doc, dtype=np.int64)
        seg_field_a = np.asarray(seg_field, dtype=np.int64)
        run_docrow = seg_doc_a[run_seg] if nseg else np.empty(0, dtype=np.int64)
        run_doc_int = col_doc_int[run_docrow].astype(np.int64)
        run_field = seg_field_a[run_seg] if nseg else np.empty(0, dtype=np.int64)
        run_part = shard_of[run_tid] * n_salts + salt_of_doc[run_docrow]

        nruns = run_tid.size
        terms = [vocab[t] for t in run_tid] + [""] * nrows
        out_doc = np.concatenate([run_doc_int, col_doc_int.astype(np.int64)])
        out_field = np.concatenate(
            [run_field, np.full(nrows, SENTINEL_FIELD, dtype=np.int64)]
        )
        out_tf = np.concatenate([run_len, doc_total])
        out_part = np.concatenate(
            [run_part, col_doc_int.astype(np.int64) % num_parts]
        )
        lengths = np.concatenate([run_len, np.zeros(nrows, dtype=np.int64)])

        payload, row_off = codec.encode_row_positions(
            lengths,
            pos_in_seg[order].astype(np.uint64),
        )
        pos_arr = pa.Array.from_buffers(
            pa.binary(),
            nruns + nrows,
            [
                None,
                pa.py_buffer(row_off.astype(np.int32).tobytes()),
                pa.py_buffer(payload),
            ],
        )

        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "doc_int": pa.array(out_doc, pa.int64()),
                "field": pa.array(out_field.astype(np.int8), pa.int8()),
                "tf": pa.array(out_tf.astype(np.int32), pa.int32()),
                "pos": pos_arr,
                "part": pa.array(out_part.astype(np.int32), pa.int32()),
            }
        )
