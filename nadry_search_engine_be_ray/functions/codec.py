"""Posting-list codec: delta-gap + varint and whole-stream compression.

The reference persists postings as BSON arrays in MongoDB
(indexer/MongoDBIndexStore.java:230-324).  Our segment format instead stores,
per term, compressed columnar payloads (SURVEY.md §1.3, §7.1 step 3):

* ``doc_ints`` — sorted uint64 doc keys, delta-gap encoded then varint packed
* ``tfs`` — per-doc total term frequency, varint packed
* ``weights`` — per-doc accumulated field weight (Σ occurrences × boost,
  InvertedIndex.java:229-232 semantics), float64 little-endian
* ``positions`` — per (doc, field) 0-based position lists
  (IndexBuilder.java:135-139), delta encoded + varint packed with a tiny
  per-doc header (field mask + per-field counts)

The segment tier may store the docs / tfs / offset streams with the
whole-stream codes below instead (frame-of-reference bit packing,
Elias-Fano).  WAND upper bounds are not stored: the query path derives them
from decoded scores (pipelines/query.py ``topk_wand``).

Encode AND decode are numpy-vectorized (no per-element Python loops): varint
encoding scatters 7-bit groups by byte-offset plane; decoding segments the
byte stream on continuation bits with cumsum tricks.
"""

from __future__ import annotations

import numpy as np

_MAX_VARINT_BYTES = 10  # 64 bits / 7


# ---------------------------------------------------------------------------
# vectorized varint
# ---------------------------------------------------------------------------

def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-style varint encoding of a uint64 array, fully vectorized."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = v.size
    if n == 0:
        return b""
    # number of 7-bit groups per value (at least 1)
    nbits = np.zeros(n, dtype=np.int64)
    tmp = v.copy()
    nz = tmp > 0
    # bit_length via float log2 is unsafe near 2**53; use a shift loop (<=10)
    nbytes = np.ones(n, dtype=np.int64)
    tmp >>= np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0)
        tmp >>= np.uint64(7)
    del nbits, nz
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    out = np.zeros(offsets[-1], dtype=np.uint8)
    for j in range(_MAX_VARINT_BYTES):
        sel = nbytes > j
        if not sel.any():
            break
        byte = ((v[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[sel] - 1 > j).astype(np.uint8) << 7
        out[offsets[:-1][sel] + j] = byte | cont
    return out.tobytes()


def decode_varints(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a varint byte stream back to a uint64 array, vectorized."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (b & 0x80) == 0
    ends = np.flatnonzero(is_end)
    n = ends.size
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    out = np.zeros(n, dtype=np.uint64)
    max_len = int(lengths.max())
    for j in range(max_len):
        sel = lengths > j
        out[sel] |= (b[starts[sel] + j].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * j)
    return out


# ---------------------------------------------------------------------------
# frame-of-reference bit packing (PForDelta-family, Lemire & Boytsov 2015)
#
# Alternative posting codec for SIZE comparison and as the documented 100 TB
# storage option.  Format (self-describing):
#
#     varint n                       -- value count
#     uint8 bits[ceil(n/128)]        -- per-block bit width (max bit_length)
#     payload blocks                 -- block k: ceil(cnt_k * bits_k / 8)
#                                       bytes of little-endian bit-packed
#                                       values (cnt_k = 128 except the tail)
#
# Why the SEGMENT format stays varint (a deliberate design decision, not an
# omission): varint is a per-value code, so the build's salt-run merges and
# the cross-index k-way merge concatenate tfs/positions payloads byte-wise
# without decoding (`stages/encode.py:merge_runs`); a block code would force
# a decode+re-encode of every run at every merge.  Bit packing wins on docs
# gaps (measured by the `posting_codec_sizes` query, whose SQL oracle
# recomputes BOTH framings analytically) and is the right choice for a
# write-once immutable segment tier; varint is the right choice while
# segments still merge.
# ---------------------------------------------------------------------------

BITPACK_BLOCK = 128  # 128 values/block => full-block bitstream is byte-aligned


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized bit_length per value (0 -> 0)."""
    v = np.ascontiguousarray(values, dtype=np.uint64).copy()
    nb = np.zeros(v.size, dtype=np.int64)
    while v.any():
        nb += (v > 0)
        v >>= np.uint64(1)
    return nb


def bitpack_nbytes(values: np.ndarray) -> int:
    """Analytic encoded size of :func:`encode_bitpack` (mirrors the SQL
    oracle arithmetic: varint(n) + 1 header byte per block + per-block
    ceil(cnt*bits/8) payload)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = v.size
    total = int(_varint_nbytes(np.array([n], dtype=np.uint64))[0])
    if n == 0:
        return total
    bl = _bit_lengths(v)
    nblocks = (n + BITPACK_BLOCK - 1) // BITPACK_BLOCK
    for k in range(nblocks):
        blk = bl[k * BITPACK_BLOCK : (k + 1) * BITPACK_BLOCK]
        total += 1 + (blk.size * int(blk.max()) + 7) // 8
    return total


def encode_bitpack(values: np.ndarray) -> bytes:
    """Frame-of-reference bit packing of a uint64 array (see format above).
    Full equal-width blocks are packed in ONE vectorized np.packbits call
    per distinct width; only the per-block header walk is Python (n/128)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = v.size
    head = encode_varints(np.array([n], dtype=np.uint64))
    if n == 0:
        return head
    nblocks = (n + BITPACK_BLOCK - 1) // BITPACK_BLOCK
    bl = _bit_lengths(v)
    bits = np.zeros(nblocks, dtype=np.int64)
    cnts = np.full(nblocks, BITPACK_BLOCK, dtype=np.int64)
    cnts[-1] = n - (nblocks - 1) * BITPACK_BLOCK
    np.maximum.reduceat(bl, np.arange(nblocks) * BITPACK_BLOCK, out=bits)
    payload_lens = (cnts * bits + 7) // 8
    payload_off = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(payload_lens, out=payload_off[1:])
    payload = np.zeros(int(payload_off[-1]), dtype=np.uint8)

    def _pack(vals: np.ndarray, w: int) -> np.ndarray:
        # (m, w) little-endian bit matrix -> packed bytes.  Goes through the
        # raw little-endian byte view + unpackbits: ~500x faster than a
        # broadcast uint64 shift (numpy's u64 shift ufunc is unvectorized).
        m = vals.size
        if w == 0 or m == 0:
            return np.empty(0, dtype=np.uint8)
        byte_view = np.ascontiguousarray(vals, dtype="<u8").view(np.uint8)
        bits_mat = np.unpackbits(
            byte_view.reshape(m, 8), axis=1, bitorder="little"
        )[:, :w]
        return np.packbits(bits_mat.reshape(-1), bitorder="little")

    full = np.flatnonzero((cnts == BITPACK_BLOCK))
    for w in np.unique(bits[full]):
        sel = full[bits[full] == w]
        if w == 0:
            continue
        vals = v[(sel[:, None] * BITPACK_BLOCK
                  + np.arange(BITPACK_BLOCK)[None, :]).reshape(-1)]
        packed = _pack(vals, int(w))
        dst = (
            payload_off[sel][:, None] + np.arange(16 * int(w))[None, :]
        ).reshape(-1)
        payload[dst] = packed
    if cnts[-1] != BITPACK_BLOCK:
        k = nblocks - 1
        tail = _pack(v[k * BITPACK_BLOCK :], int(bits[k]))
        payload[payload_off[k] : payload_off[k + 1]] = tail
    return head + bits.astype(np.uint8).tobytes() + payload.tobytes()


def decode_bitpack(buf: bytes | memoryview) -> np.ndarray:
    """Inverse of :func:`encode_bitpack`."""
    b = np.frombuffer(buf, dtype=np.uint8)
    # parse the leading varint(n)
    hdr_end = int(np.flatnonzero((b & 0x80) == 0)[0]) + 1
    n = int(decode_varints(b[:hdr_end])[0])
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    nblocks = (n + BITPACK_BLOCK - 1) // BITPACK_BLOCK
    bits = b[hdr_end : hdr_end + nblocks].astype(np.int64)
    cnts = np.full(nblocks, BITPACK_BLOCK, dtype=np.int64)
    cnts[-1] = n - (nblocks - 1) * BITPACK_BLOCK
    payload_lens = (cnts * bits + 7) // 8
    payload_off = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(payload_lens, out=payload_off[1:])
    payload = b[hdr_end + nblocks :]
    out = np.zeros(n, dtype=np.uint64)

    def _unpack(raw: np.ndarray, m: int, w: int) -> np.ndarray:
        # inverse of _pack: widen each w-bit row to a 64-bit row, repack the
        # rows byte-wise and reinterpret as little-endian uint64
        bits_flat = np.unpackbits(raw, bitorder="little")[: m * w]
        bm = np.zeros((m, 64), dtype=np.uint8)
        bm[:, :w] = bits_flat.reshape(m, w)
        return (
            np.packbits(bm, axis=1, bitorder="little")
            .reshape(m, 8)
            .view("<u8")
            .reshape(m)
            .astype(np.uint64, copy=False)
        )

    full = np.flatnonzero(cnts == BITPACK_BLOCK)
    for w in np.unique(bits[full]):
        sel = full[bits[full] == w]
        if w == 0:
            continue
        w = int(w)
        raw = payload[
            (payload_off[sel][:, None] + np.arange(16 * w)[None, :]).reshape(-1)
        ]
        vals = _unpack(raw, sel.size * BITPACK_BLOCK, w)
        idx = (sel[:, None] * BITPACK_BLOCK
               + np.arange(BITPACK_BLOCK)[None, :]).reshape(-1)
        out[idx] = vals
    if cnts[-1] != BITPACK_BLOCK:
        k = nblocks - 1
        if bits[k]:
            raw = payload[payload_off[k] : payload_off[k + 1]]
            out[k * BITPACK_BLOCK :] = _unpack(
                np.ascontiguousarray(raw), int(cnts[k]), int(bits[k])
            )
    return out


def encode_sorted_bitpack(sorted_vals: np.ndarray) -> bytes:
    """Delta-gap + bit packing (the docs-stream variant)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    if v.size == 0:
        return encode_bitpack(v)
    deltas = np.empty_like(v)
    deltas[0] = v[0]
    np.subtract(v[1:], v[:-1], out=deltas[1:])
    return encode_bitpack(deltas)


def decode_sorted_bitpack(buf: bytes) -> np.ndarray:
    return np.cumsum(decode_bitpack(buf), dtype=np.uint64)


# ---------------------------------------------------------------------------
# Elias-Fano (quasi-succinct) monotone-sequence code — Vigna, "Quasi-succinct
# indices", WSDM 2013; Elias 1974 / Fano 1971.  The third docs-stream tier
# (BuildConfig.docs_codec="ef"), beside varint delta-gap (mergeable default)
# and FOR bit packing.  Approaches the information-theoretic bound for a
# sorted sequence — n*(2 + log2(u/n)) bits — with NO per-block framing, so
# it usually beats bitpack on doc-gap streams and always beats varint's
# 1-byte-per-value floor.  Like bitpack it is a whole-stream code: runs
# cannot concatenate without re-encoding, so the build applies it only
# after its salt-run merge and merge_indexes refuses ef sources.
#
# Format (self-describing):
#     varint n                      -- value count (stream ends here if 0)
#     varint u                      -- last (= max) value
#     uint8 low[ceil(n*l/8)]        -- n little-endian l-bit lower parts,
#                                      l = max(0, bit_length(u // n) - 1)
#     uint8 upper[ceil(nbits/8)]    -- unary upper-part bitmap,
#                                      nbits = n + (u >> l) + 1; bit
#                                      (v_i >> l) + i is set for each i
#
# l uses INTEGER division (bit_length(u // n) - 1) so the SQL size oracle
# (posting_codec_sizes) reproduces it exactly with length(bin(u // n)) — no
# float log2 anywhere.  Values must be non-decreasing (doc ids are strictly
# increasing; pos_offsets are non-decreasing), unsigned, < 2**63.
# ---------------------------------------------------------------------------


def ef_lower_bits(n: int, u: int) -> int:
    """The lower-part width l (integer-division variant, see format note)."""
    if n <= 0 or u < n:
        return 0
    return int(u // n).bit_length() - 1


def ef_nbytes(sorted_vals: np.ndarray) -> int:
    """Analytic encoded size of :func:`encode_ef` (mirrors the SQL oracle
    arithmetic: varint(n) + varint(u) + lower payload + upper bitmap)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    n = v.size
    total = int(_varint_nbytes(np.array([n], dtype=np.uint64))[0])
    if n == 0:
        return total
    u = int(v[-1])
    l = ef_lower_bits(n, u)
    total += int(_varint_nbytes(np.array([u], dtype=np.uint64))[0])
    total += (n * l + 7) // 8
    total += (n + (u >> l) + 1 + 7) // 8
    return total


def encode_ef(sorted_vals: np.ndarray) -> bytes:
    """Elias-Fano encode a non-decreasing uint64 array (see format above).
    Vectorized via the byte-view + unpackbits trick (same kernel family as
    encode_bitpack — numpy's u64 shift ufunc is the slow path to avoid)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    n = v.size
    head = encode_varints(np.array([n], dtype=np.uint64))
    if n == 0:
        return head
    u = int(v[-1])
    head += encode_varints(np.array([u], dtype=np.uint64))
    l = ef_lower_bits(n, u)
    if l:
        # n l-bit rows -> one flat little-endian bitstream
        byte_view = np.ascontiguousarray(v, dtype="<u8").view(np.uint8)
        bits_mat = np.unpackbits(
            byte_view.reshape(n, 8), axis=1, bitorder="little"
        )[:, :l]
        low = np.packbits(bits_mat.reshape(-1), bitorder="little")
    else:
        low = np.empty(0, dtype=np.uint8)
    high = (v >> np.uint8(l)).astype(np.int64)
    nbits = n + (u >> l) + 1
    upper_bits = np.zeros((nbits + 7) // 8 * 8, dtype=np.uint8)
    upper_bits[high + np.arange(n, dtype=np.int64)] = 1
    upper = np.packbits(upper_bits, bitorder="little")
    return head + low.tobytes() + upper.tobytes()


def decode_ef(buf: bytes | memoryview) -> np.ndarray:
    """Inverse of :func:`encode_ef`."""
    b = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero((b & 0x80) == 0)
    n = int(decode_varints(b[: ends[0] + 1])[0])
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    hdr_end = int(ends[1]) + 1
    u = int(decode_varints(b[ends[0] + 1 : hdr_end])[0])
    l = ef_lower_bits(n, u)
    low_nbytes = (n * l + 7) // 8
    if l:
        bits_flat = np.unpackbits(
            b[hdr_end : hdr_end + low_nbytes], bitorder="little"
        )[: n * l]
        bm = np.zeros((n, 64), dtype=np.uint8)
        bm[:, :l] = bits_flat.reshape(n, l)
        low = (
            np.packbits(bm, axis=1, bitorder="little")
            .reshape(n, 8)
            .view("<u8")
            .reshape(n)
        )
    else:
        low = np.zeros(n, dtype=np.uint64)
    upper = np.unpackbits(b[hdr_end + low_nbytes :], bitorder="little")
    pos = np.flatnonzero(upper)[:n]
    high = (pos - np.arange(n, dtype=np.int64)).astype(np.uint64)
    return (high << np.uint64(l)) | low


# ---------------------------------------------------------------------------
# delta-gap helpers (doc ids must be strictly increasing)
# ---------------------------------------------------------------------------

def encode_sorted_deltas(sorted_vals: np.ndarray) -> bytes:
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    if v.size == 0:
        return b""
    deltas = np.empty_like(v)
    deltas[0] = v[0]
    np.subtract(v[1:], v[:-1], out=deltas[1:])
    return encode_varints(deltas)


def decode_sorted_deltas(buf: bytes) -> np.ndarray:
    deltas = decode_varints(buf)
    return np.cumsum(deltas, dtype=np.uint64)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def encode_f64(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def decode_f64(buf: bytes) -> np.ndarray:
    return np.frombuffer(buf, dtype="<f8")


# ---------------------------------------------------------------------------
# positions payload
#
# Layout per doc (docs in doc_int order):
#   varint field_mask        (bit f set if field f present; fields 0=TITLE,
#                             1=DESCRIPTION, 2=BODY)
#   for each present field in ascending order:
#       varint count
#       count delta-gap varints (first absolute, positions strictly increasing
#       per field because they are emitted in token order)
# The whole stream is one varint sequence, so it decodes with one vectorized
# pass; the per-doc structure is then sliced out with cumsum arithmetic.
# ---------------------------------------------------------------------------

def _varint_nbytes(values: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.uint64).copy()
    nbytes = np.ones(v.size, dtype=np.int64)
    v >>= np.uint64(7)
    while v.any():
        nbytes += (v > 0)
        v >>= np.uint64(7)
    return nbytes


def encode_row_positions(
    lengths: np.ndarray, flat: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Batch-encode per-ROW position payloads ``[count][abs][deltas...]``
    (one row = one (term, doc, field) tuple; the map side of the posting
    shuffle).  Returns (payload, row_byte_offsets len n+1).  Rows with
    length 0 get an empty byte span.  Concatenating a doc's row payloads in
    field order behind a 1-byte field mask reproduces EXACTLY the per-doc
    positions layout above — so the reduce side assembles final segment
    bytes by pure byte gather, never re-encoding."""
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    n = lengths.size
    flat = np.ascontiguousarray(flat, dtype=np.uint64)
    nv = flat.size
    row_starts = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lengths[:-1], out=row_starts[1:])
    dv = flat.copy()
    if nv:
        dv[1:] = flat[1:] - flat[:-1]
        nz_starts = row_starts[lengths > 0]
        dv[nz_starts] = flat[nz_starts]          # absolute first per row
    vals_per_row = np.where(lengths > 0, lengths + 1, 0)
    ext_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(vals_per_row, out=ext_cum[1:])
    stream = np.empty(int(ext_cum[-1]), dtype=np.uint64)
    nz = lengths > 0
    count_idx = ext_cum[:-1][nz]
    stream[count_idx] = lengths[nz]
    if nv:
        val_idx = np.repeat(count_idx + 1, lengths[nz]) + (
            np.arange(nv) - np.repeat(row_starts[nz], lengths[nz])
        )
        stream[val_idx] = dv
    nb = _varint_nbytes(stream)
    byte_cum = np.zeros(stream.size + 1, dtype=np.int64)
    np.cumsum(nb, out=byte_cum[1:])
    payload = encode_varints(stream)
    return payload, byte_cum[ext_cum]


def encode_positions_indexed(
    doc_fields: list[list[tuple[int, np.ndarray]]]
) -> tuple[bytes, np.ndarray]:
    """Encode per-doc field/position payloads; returns (payload, offsets)
    where ``offsets`` (int64, len n_docs+1) are byte offsets of each doc's
    sub-stream — varint is a per-value code, so per-doc slices decode
    independently (random access for phrase queries without decoding the
    whole posting list)."""
    stream: list[np.ndarray] = []
    values_per_doc = np.empty(len(doc_fields), dtype=np.int64)
    for i, fields in enumerate(doc_fields):
        mask = 0
        for f, _ in fields:
            mask |= 1 << f
        parts = [np.array([mask], dtype=np.uint64)]
        for f, pos in sorted(fields, key=lambda t: t[0]):
            pos = np.asarray(pos, dtype=np.uint64)
            deltas = np.empty(pos.size + 1, dtype=np.uint64)
            deltas[0] = pos.size
            if pos.size:
                deltas[1] = pos[0]
                np.subtract(pos[1:], pos[:-1], out=deltas[2:])
            parts.append(deltas)
        doc_vals = np.concatenate(parts)
        values_per_doc[i] = doc_vals.size
        stream.append(doc_vals)
    if not stream:
        return b"", np.zeros(1, dtype=np.int64)
    all_vals = np.concatenate(stream)
    nb = _varint_nbytes(all_vals)
    byte_ends = np.cumsum(nb)
    val_ends = np.cumsum(values_per_doc)
    offsets = np.zeros(len(doc_fields) + 1, dtype=np.int64)
    offsets[1:] = byte_ends[val_ends - 1]
    # docs with zero values (impossible here: mask value always present) would
    # need special casing; every doc emits at least the mask varint.
    return encode_varints(all_vals), offsets


def encode_positions(doc_fields: list[list[tuple[int, np.ndarray]]]) -> bytes:
    buf, _ = encode_positions_indexed(doc_fields)
    return buf


def decode_doc_positions(
    buf: bytes | memoryview, offsets: np.ndarray, doc_index: int
) -> dict[int, np.ndarray]:
    """Decode one doc's {field: positions} from an indexed payload."""
    vals = decode_varints(memoryview(buf)[offsets[doc_index] : offsets[doc_index + 1]])
    mask = int(vals[0])
    i = 1
    fields: dict[int, np.ndarray] = {}
    for f in range(3):
        if mask & (1 << f):
            cnt = int(vals[i]); i += 1
            deltas = vals[i : i + cnt]; i += cnt
            fields[f] = np.cumsum(deltas, dtype=np.uint64).astype(np.int64)
    return fields


def decode_doc_positions_many(
    buf: bytes | memoryview, offsets: np.ndarray, doc_indices: np.ndarray
) -> list[dict[int, np.ndarray]]:
    """Batched :func:`decode_doc_positions`: gather the requested docs' byte
    slices, run ONE vectorized varint pass over the concatenation, then split
    values back per doc.  ~20x faster than per-doc decoding when a phrase
    query needs positions for its whole candidate intersection."""
    b = np.frombuffer(buf, dtype=np.uint8)
    di = np.asarray(doc_indices, dtype=np.int64)
    if di.size == 0:
        return []
    starts = offsets[di]
    lens = offsets[di + 1] - starts
    total = int(lens.sum())
    lens_cum = np.zeros(di.size + 1, dtype=np.int64)
    np.cumsum(lens, out=lens_cum[1:])
    sel = np.repeat(starts, lens) + (
        np.arange(total) - np.repeat(lens_cum[:-1], lens)
    )
    sub = b[sel]
    vals = decode_varints(sub)
    # every doc payload is >= 1 byte (the field mask), so reduceat is safe
    is_end = ((sub & 0x80) == 0).astype(np.int64)
    vals_per_doc = np.add.reduceat(is_end, lens_cum[:-1])
    vcum = np.zeros(di.size + 1, dtype=np.int64)
    np.cumsum(vals_per_doc, out=vcum[1:])
    out: list[dict[int, np.ndarray]] = []
    for k in range(di.size):
        v = vals[vcum[k] : vcum[k + 1]]
        mask = int(v[0])
        i = 1
        fields: dict[int, np.ndarray] = {}
        for f in range(3):
            if mask & (1 << f):
                cnt = int(v[i])
                i += 1
                fields[f] = np.cumsum(v[i : i + cnt], dtype=np.uint64).astype(np.int64)
                i += cnt
        out.append(fields)
    return out


def decode_doc_positions_flat(
    buf: bytes | memoryview, offsets: np.ndarray, doc_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FULLY-vectorized flat variant of :func:`decode_doc_positions_many`:
    returns ``(doc_rank, field, pos)`` int64 arrays (doc_rank indexes into
    ``doc_indices``), parsing the variable per-doc [mask][count][deltas...]
    structure with a loop over the 3 FIELDS instead of over docs — the
    scale path for position kernels whose candidate sets are large (e.g.
    proximity over head-term pairs), where the dict-per-doc API's Python
    loop would dominate."""
    b = np.frombuffer(buf, dtype=np.uint8)
    di = np.asarray(doc_indices, dtype=np.int64)
    empty = (np.empty(0, np.int64),) * 3
    if di.size == 0:
        return empty
    starts = offsets[di]
    lens = offsets[di + 1] - starts
    total = int(lens.sum())
    lens_cum = np.zeros(di.size + 1, dtype=np.int64)
    np.cumsum(lens, out=lens_cum[1:])
    sel = np.repeat(starts, lens) + (
        np.arange(total) - np.repeat(lens_cum[:-1], lens)
    )
    sub = b[sel]
    vals = decode_varints(sub).astype(np.int64)
    is_end = ((sub & 0x80) == 0).astype(np.int64)
    vals_per_doc = np.add.reduceat(is_end, lens_cum[:-1])
    vcum = np.zeros(di.size + 1, dtype=np.int64)
    np.cumsum(vals_per_doc, out=vcum[1:])

    masks = vals[vcum[:-1]]
    ptr = vcum[:-1] + 1  # per-doc cursor, advanced field by field
    out_d, out_f, out_p = [], [], []
    for f in range(3):
        has = (masks >> f) & 1 == 1
        cnt = np.zeros(di.size, dtype=np.int64)
        cnt[has] = vals[ptr[has]]
        nz = has & (cnt > 0)
        if nz.any():
            d_starts = ptr[nz] + 1
            d_lens = cnt[nz]
            m = int(d_lens.sum())
            dcum = np.zeros(nz.sum() + 1, dtype=np.int64)
            np.cumsum(d_lens, out=dcum[1:])
            idx = np.repeat(d_starts, d_lens) + (
                np.arange(m) - np.repeat(dcum[:-1], d_lens)
            )
            deltas = vals[idx]
            # segmented cumsum: global cumsum minus each segment's prefix
            cs = np.cumsum(deltas)
            seg_prefix = cs[dcum[:-1]] - deltas[dcum[:-1]]
            pos = cs - np.repeat(seg_prefix, d_lens)
            out_d.append(np.repeat(np.flatnonzero(nz), d_lens))
            out_f.append(np.full(m, f, dtype=np.int64))
            out_p.append(pos)
        ptr = ptr + has * (1 + cnt)
    if not out_d:
        return empty
    return (
        np.concatenate(out_d),
        np.concatenate(out_f),
        np.concatenate(out_p),
    )


def decode_positions(buf: bytes, n_docs: int) -> list[dict[int, np.ndarray]]:
    """Inverse of :func:`encode_positions`; returns per-doc {field: positions}."""
    vals = decode_varints(buf)
    out: list[dict[int, np.ndarray]] = []
    i = 0
    for _ in range(n_docs):
        mask = int(vals[i]); i += 1
        fields: dict[int, np.ndarray] = {}
        for f in range(3):
            if mask & (1 << f):
                cnt = int(vals[i]); i += 1
                deltas = vals[i : i + cnt]; i += cnt
                fields[f] = np.cumsum(deltas, dtype=np.uint64).astype(np.int64)
        out.append(fields)
    return out
