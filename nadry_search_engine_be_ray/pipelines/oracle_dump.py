"""Dump the built index's internal tables as plain parquet for DuckDB
oracles (the "dumped-token-table" trick).

The real tokenizer (Porter2 + special tokens) is not SQL-expressible, but
its OUTPUT is: the build's tokenize-stage rows, re-derived from the
stored docs (``DocStore.term_rows``), are materialized here as flat
tables so a DuckDB oracle can recompute — independently of the segment
encode/merge/read path — per-term document frequencies, the exact
reference-ranker arithmetic (Ranker.java:25-162), BM25 and the phrase
adjacency join, and be hash-compared against the engine's answers.  The
token stream itself is golden-tested (pytest tokenizer suite); the dump
converts everything DOWNSTREAM of tokenization into SQL-checkable
evidence.

Tables written to ``dump_dir`` (single parquet file each, overwritten):

* ``tok``       (term, doc_int, tf)            — per-doc tf summed across
                 fields, field >= 0 rows only (sentinels excluded)
* ``pos``       (term, doc_int, field, pos)    — exploded positions for the
                 requested ``phrase_terms`` only (phrase adjacency oracle)
* ``docstats``  (doc_int, total_words)
* ``pop``       (doc_int, popularity)          — zeros when no pagerank ran
* ``docmap``    (doc_int, doc_id, url)         — the API's doc_id hex + url
* ``docmeta``   (doc_int, repo, lang)          — facet columns (faceted search)
* ``seg``       (shard, term, df, *_bytes)     — per-row segment-tier
                 facts (payload octet lengths) for the lineage oracle
* ``tokw``      (term, doc_int, weight)        — accumulated field weight
                 (tf x boost, the additive scorer's quantity)
* ``stats``     (n_docs, avgdl)                — the engine's stats.json

A ``_KEY`` file records (index_dir, stats mtime); an up-to-date dump is not
rewritten.  The dump path is FIXED per logical query so the static oracle
SQL strings can reference it; the driver always runs the Ray query fn (which
refreshes the dump) before its oracle SQL.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..functions.codec import decode_varints

DUMP_ROOT = "/tmp/nadry_entry/oracle_dumps"


def _decode_row_positions(buf: bytes) -> np.ndarray:
    """Decode one map-side ``pos`` payload: [count][abs][deltas...]."""
    vals = decode_varints(buf)
    count = int(vals[0])
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.cumsum(vals[1 : 1 + count]).astype(np.int64)


def _sum_by(t: pa.Table, keys: list[str], col: str) -> pa.Table:
    """``col`` summed per ``keys`` group, under its own name, sorted by
    ``keys``.  The sort fixes the row order DuckDB reads: oracles that sum
    floats per doc (BM25 over ``tok``) and rank exact ties by those sums
    otherwise flip the tie with the summation order."""
    out = t.group_by(keys).aggregate([(col, "sum")])
    return out.rename_columns(
        [col if c == f"{col}_sum" else c for c in out.column_names]
    ).sort_by([(k, "ascending") for k in keys])


def dump_index_tables(index_dir: str, dump_dir: str,
                      phrase_terms: list[str]) -> str:
    os.makedirs(dump_dir, exist_ok=True)
    key_path = os.path.join(dump_dir, "_KEY")
    stats_path = os.path.join(index_dir, "stats.json")
    pop_dir = os.path.join(index_dir, "popularity")
    key = json.dumps(
        {
            # v2 docmeta; v3 tokw; v4 tokf; v5 docmap+url; v6 seg;
            # v7 token tables re-tokenized from prepped; v8 seg docs
            # lengths of ordinal-gap cells
            "fmt": 8,
            "index_dir": index_dir,
            "stats_mtime": os.path.getmtime(stats_path),
            "pop_mtime": os.path.getmtime(os.path.join(pop_dir, "popularity.parquet"))
            if os.path.isdir(pop_dir)
            else None,
            "phrase_terms": sorted(phrase_terms),
        }
    )
    if os.path.exists(key_path):
        with open(key_path) as f:
            if f.read() == key:
                return dump_dir

    from .query import DocStore

    docs = DocStore.load(index_dir)
    real = docs.term_rows(docs.doc_ints)

    # tok: per-(term, doc) tf summed across fields (matches the segment
    # encoder's np.add.reduceat, stages/encode.py)
    pq.write_table(_sum_by(real, ["term", "doc_int"], "tf"),
                   os.path.join(dump_dir, "tok.parquet"))

    # tokw: per-(term, doc) accumulated FIELD WEIGHT (tf x boost summed
    # across fields — the additive scorer's quantity, same boost map as
    # stages/encode._FIELD_BOOSTS); weight-ranked oracles (champion
    # lists) recompute from this instead of replaying the boost logic
    from ..stages.fieldsplit import FIELD_WEIGHTS

    fld = real["field"].to_numpy(zero_copy_only=False).astype(np.int64)
    boosts = np.array([FIELD_WEIGHTS[f] for f in sorted(FIELD_WEIGHTS)],
                      dtype=np.float64)
    w = real["tf"].to_numpy(zero_copy_only=False).astype(np.float64) * boosts[fld]
    tokw = pa.table({"term": real["term"], "doc_int": real["doc_int"],
                     "weight": pa.array(w, pa.float64())})
    pq.write_table(_sum_by(tokw, ["term", "doc_int"], "weight"),
                   os.path.join(dump_dir, "tokw.parquet"))

    # tokf: per-(term, doc, FIELD) tf — the fielded-search oracle's input
    # (the engine derives the same numbers from the positions payload's
    # field masks at query time, pipelines/serve.field_postings)
    pq.write_table(_sum_by(real, ["term", "doc_int", "field"], "tf"),
                   os.path.join(dump_dir, "tokf.parquet"))

    # pos: exploded positions for the phrase terms only
    if phrase_terms:
        sel = real.filter(pc.is_in(pc.field("term"), pa.array(phrase_terms)))
        terms_out, docs_out, fields_out, pos_out = [], [], [], []
        for term, di, fld, buf in zip(
            sel["term"].to_pylist(),
            sel["doc_int"].to_pylist(),
            sel["field"].to_pylist(),
            sel["pos"].to_pylist(),
        ):
            positions = _decode_row_positions(buf)
            terms_out.extend([term] * positions.size)
            docs_out.extend([di] * positions.size)
            fields_out.extend([fld] * positions.size)
            pos_out.extend(positions.tolist())
        pos_tbl = pa.table(
            {
                "term": pa.array(terms_out, pa.string()),
                "doc_int": pa.array(docs_out, pa.int64()),
                "field": pa.array(fields_out, pa.int8()),
                "pos": pa.array(pos_out, pa.int64()),
            }
        )
    else:
        pos_tbl = pa.table(
            {
                "term": pa.array([], pa.string()),
                "doc_int": pa.array([], pa.int64()),
                "field": pa.array([], pa.int8()),
                "pos": pa.array([], pa.int64()),
            }
        )
    pq.write_table(pos_tbl, os.path.join(dump_dir, "pos.parquet"))

    # docstats
    ds_tbl = pads.dataset(
        os.path.join(index_dir, "doc_stats"), format="parquet"
    ).to_table(columns=["doc_int", "total_words"])
    pq.write_table(ds_tbl, os.path.join(dump_dir, "docstats.parquet"))

    # pop (zeros when pagerank has not run — matches DocStore.load)
    di = ds_tbl["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
    pop = np.zeros(di.size, dtype=np.float64)
    if os.path.isdir(pop_dir):
        p = pads.dataset(pop_dir, format="parquet").to_table()
        pdi = p["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64)
        ps = p["popularity"].to_numpy(zero_copy_only=False)
        order = np.argsort(di)
        idx = np.searchsorted(di[order], pdi)
        ok = (idx < di.size) & (di[order][np.minimum(idx, di.size - 1)] == pdi)
        pop_sorted = np.zeros(di.size, dtype=np.float64)
        pop_sorted[idx[ok]] = ps[ok]
        inv = np.empty(di.size, dtype=np.int64)
        inv[order] = np.arange(di.size)
        pop = pop_sorted[inv]
    pq.write_table(
        pa.table(
            {
                "doc_int": pa.array(di, pa.int64()),
                "popularity": pa.array(pop, pa.float64()),
            }
        ),
        os.path.join(dump_dir, "pop.parquet"),
    )

    # docmap: doc_int -> API doc_id hex (derived, same fns as DocStore)
    from ..stages.prep import derive_urls, doc_id_of

    prepped = pads.dataset(
        os.path.join(index_dir, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", "repo", "path", "commit"])
    urls = derive_urls(prepped)
    pq.write_table(
        pa.table(
            {
                "doc_int": prepped["doc_int"].cast(pa.int64()),
                "doc_id": pa.array([doc_id_of(u) for u in urls], pa.string()),
                "url": pa.array(list(urls), pa.string()),
            }
        ),
        os.path.join(dump_dir, "docmap.parquet"),
    )

    # docmeta: doc_int -> facet columns (faceted-search oracle)
    meta = pads.dataset(
        os.path.join(index_dir, "prepped"), format="parquet"
    ).to_table(columns=["doc_int", "repo", "lang"])
    pq.write_table(
        pa.table(
            {
                "doc_int": meta["doc_int"].cast(pa.int64()),
                "repo": meta["repo"],
                "lang": meta["lang"],
            }
        ),
        os.path.join(dump_dir, "docmeta.parquet"),
    )

    # seg: per-row segment-tier facts (shard, term, df, payload octet
    # lengths — payloads themselves never leave the index) for the
    # index_lineage oracle's SQL aggregation
    from ..state.segments import segment_root

    seg = pads.dataset(
        segment_root(index_dir), format="parquet", partitioning="hive"
    ).to_table(columns=["shard", "term", "df", "docs", "tfs", "weights",
                        "positions"])
    pq.write_table(
        pa.table(
            {
                "shard": seg["shard"].cast(pa.int32()),
                "term": seg["term"],
                "df": seg["df"].cast(pa.int64()),
                "docs_bytes": pc.binary_length(
                    seg["docs"].combine_chunks()).cast(pa.int64()),
                "tfs_bytes": pc.binary_length(
                    seg["tfs"].combine_chunks()).cast(pa.int64()),
                "weights_bytes": pc.binary_length(
                    seg["weights"].combine_chunks()).cast(pa.int64()),
                "positions_bytes": pc.binary_length(
                    seg["positions"].combine_chunks()).cast(pa.int64()),
            }
        ),
        os.path.join(dump_dir, "seg.parquet"),
    )

    # stats (engine values verbatim, incl. the `or 1.0` avgdl fallback)
    with open(stats_path) as f:
        stats = json.load(f)
    pq.write_table(
        pa.table(
            {
                "n_docs": pa.array([int(stats["n_docs"])], pa.int64()),
                "avgdl": pa.array([float(stats["avgdl"] or 1.0)], pa.float64()),
            }
        ),
        os.path.join(dump_dir, "stats.parquet"),
    )

    with open(key_path, "w") as f:
        f.write(key)
    return dump_dir
