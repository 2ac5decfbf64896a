"""Relational operator pipelines over the driver testdata tables.

These back the SURVEY.md §2 operator inventory with DuckDB-checkable
results (driver correctness gate): aggregations with map-side partial
aggregation (A1-A3 pattern), broadcast hash join (J3/J4), top-k sort (K1/K3),
distinct (D5/A11), filter+project (M7), and a tumbling-window aggregate over
the events table (the streaming-shaped analog, ray_guide windowing pattern).

Each function takes ``sf_dir`` and returns a small pyarrow/pandas result.
Aggregate float columns are rounded to 4 decimals to make the Ray-vs-DuckDB
value hash insensitive to summation order (both sides round identically;
4 dp keeps the ~1e-8 absolute float noise far from the rounding boundary).

Three helpers carry the shapes the bodies share:

- ``_partial_agg``: per-block ``group_by().aggregate()`` partials, then one
  driver root combine (FP-Hadoop's intermediate reduce);
- ``_keyed_side``: a small side broadcast as (sorted int64 keys, columns
  in key order) for ``_sorted_lookup`` probes;
- ``_finish``: the int64-cast, 4 dp round and sort that end a body.

``_with_part`` adds the coarse partition key that the per-key
window/session ops group by.

Bounded combines only: ``_partial_agg`` collects at most groups x blocks
rows on the driver, so it replaces only bodies that already combined
collected partials in pandas.  A body whose combine is a Ray
``groupby().aggregate()`` shuffle keeps that shuffle.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..stages.partitioning import fused_parts
from ..stages.similarity import _batch_matrix


def _read(sf_dir: str, table: str, columns=None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _sorted_lookup(ks: np.ndarray, vals: np.ndarray):
    """Membership probe against a sorted broadcast key array: returns
    (hit mask, clamped searchsorted index).  Centralizes the empty-build-
    side guard (ADVICE r3: ``ks[idx]`` on an empty ks raised IndexError
    for any non-empty probe batch)."""
    if ks.size == 0:
        z = np.zeros(vals.size, dtype=np.int64)
        return np.zeros(vals.size, dtype=bool), z
    idx = np.searchsorted(ks, vals)
    idx[idx == ks.size] = 0
    return ks[idx] == vals, idx


def _keyed_side(df: pd.DataFrame, key: str, *cols):
    """Broadcast side for ``_sorted_lookup`` probes: one stable argsort on
    the int64 ``key`` column, then ``ray.put`` of (sorted keys, *cols in
    key order).  A col is a column name of ``df`` or an array aligned with
    its rows."""
    k = df[key].to_numpy(np.int64)
    order = np.argsort(k, kind="stable")
    return ray.put((k[order], *(
        (df[c].to_numpy() if isinstance(c, str) else c)[order] for c in cols
    )))


def _partial_agg(ds, keys, aggs: dict, prep=None) -> pd.DataFrame:
    """Map-side partial aggregate plus one bounded driver root combine.

    Each block runs ``prep`` (if given), then ``group_by(keys)`` with
    ``aggs`` (alias -> (column, "sum"|"count"|"min"|"max")), renamed to
    the aliases; the driver combines the <= groups x blocks partial rows
    (sum for sum/count, min/max for min/max) instead of paying a shuffle
    job for a few hundred rows.  When every partial is empty, Ray's
    ``to_pandas()`` returns a frame with no columns; this returns a 0-row
    frame with the key and alias columns instead."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    # pyarrow names outputs "col_func"; rename by that name, not position,
    # since the output column order has differed across pyarrow versions
    names = {f"{c}_{f}": a for a, (c, f) in aggs.items()}

    def partial(batch: pa.Table) -> pa.Table:
        t = batch if prep is None else prep(batch)
        g = t.group_by(keys).aggregate(list(aggs.values()))
        return g.rename_columns([names.get(c, c) for c in g.column_names])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.columns.empty:
        parts = pd.DataFrame(columns=[*keys, *aggs])
    return parts.groupby(keys, as_index=False).agg(**{
        a: (a, "sum" if f in ("sum", "count") else f)
        for a, (_, f) in aggs.items()
    })


def _finish(df: pd.DataFrame, by, ints=(), r4=(), cols=None,
            ascending=True) -> pd.DataFrame:
    """End a body: cast ``ints`` to int64, round ``r4`` to 4 dp, select
    ``cols`` (all when None), then sort by ``by`` and reset the index."""
    for c in ints:
        df[c] = df[c].astype("int64")
    for c in r4:
        df[c] = df[c].round(4)
    if cols is not None:
        df = df[list(cols)]
    return df.sort_values(by, ascending=ascending).reset_index(drop=True)


def _with_part(ds, key: str, n_parts: int):
    """Append the coarse partition column ``part`` = int64 ``key`` mod
    ``n_parts``: a ``groupby("part")`` then keeps every key's rows in one
    partition, the per-key window/session ops' one shuffle."""

    def add_part(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("part", pa.array(k % n_parts, pa.int64()))

    return ds.map_batches(add_part, batch_format="pyarrow")


def _fused_parts(sf_dir: str, *tables: str) -> int:
    """Coarse fused-partition count for the per-key window/session ops,
    sized from the participating tables' parquet footprint (ADVICE r3:
    a fixed 64 capped shuffle parallelism and let per-task memory grow
    with the input).  Resolves to the historical 64 at test scale."""
    total = sum(
        os.path.getsize(f"{sf_dir}/{t}.parquet")
        for t in tables
        if os.path.isfile(f"{sf_dir}/{t}.parquet")
    )
    return fused_parts(bytes_hint=total)


def q_agg_pushdown(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped: per (returnflag, linestatus) sums — with the
    partial-aggregate-before-shuffle pattern: each batch pre-aggregates to
    one row per key, then the groupby shuffles only partials."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return batch.append_column("revenue", rev)

    keys = ["l_returnflag", "l_linestatus"]
    out = _partial_agg(ds, keys, {
        "sum_qty": ("l_quantity", "sum"), "revenue": ("revenue", "sum"),
        "n_rows": ("l_quantity", "count"),
    }, prep)
    return _finish(out, keys, ints=["n_rows"], r4=["sum_qty", "revenue"])


def q_broadcast_join(sf_dir: str) -> pd.DataFrame:
    """Broadcast hash join: orders ⨝ customer — the small side ships as
    (sorted keys, segment codes) numpy arrays via ray.put once; each batch
    does join + partial aggregation in ONE pass of searchsorted + bincount
    (no per-batch pandas round trip, J3 pattern, no shuffle)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_names, seg_codes = np.unique(cust["c_mktsegment"], return_inverse=True)
    ref = _keyed_side(cust, "c_custkey", seg_codes)

    def join_agg(batch: pa.Table) -> pa.Table:
        ks, codes = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        hit, idx = _sorted_lookup(ks, ck)
        c = codes[idx[hit]]
        sums = np.bincount(c, weights=price[hit], minlength=seg_names.size)
        counts = np.bincount(c, minlength=seg_names.size)
        return pa.table(
            {
                "c_mktsegment": pa.array(seg_names, pa.string()),
                "n_orders": pa.array(counts, pa.int64()),
                "sum_price": pa.array(sums, pa.float64()),
            }
        )

    # the partial rows are already one per segment; the group_by only merges
    out = _partial_agg(_read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
                       "c_mktsegment", {"n_orders": ("n_orders", "sum"),
                                        "sum_price": ("sum_price", "sum")},
                       join_agg)
    return _finish(out[out["n_orders"] > 0], "c_mktsegment",
                   ints=["n_orders"], r4=["sum_price"])


def q_topk(sf_dir: str) -> pd.DataFrame:
    """Global top-10 orders by totalprice (K1/K3: sort desc + limit with
    deterministic orderkey tiebreak).

    Scale path (VERDICT r4): per-block PARTIAL top-10 — each block emits
    at most k rows under the full (totalprice desc, orderkey asc) order —
    then one bounded driver merge over <= k x blocks rows, the same shape
    grouped_topk and the ANN family use.  No global sort barrier; the
    output is identical to ``sort().limit(k)`` because the global top-k
    is a subset of the per-block top-ks under any total order."""
    k = 10
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, -tp))[:k]
        return batch.take(pa.array(order, pa.int64()))

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.sort_values(["o_totalprice", "o_orderkey"],
                            ascending=[False, True]).head(k)
    out["o_totalprice"] = out["o_totalprice"].round(4)
    return out.reset_index(drop=True)


def q_distinct(sf_dir: str) -> pd.DataFrame:
    """Distinct counting (D5/A11): orders per returnflag, counted once."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_orderkey"])

    def local_distinct(batch: pa.Table) -> pa.Table:
        # Arrow-native distinct: group_by with no aggregations = unique keys
        return batch.group_by(["l_returnflag", "l_orderkey"]).aggregate([])

    # local dedup -> vectorized shuffle dedup (Count aggregate, no per-group
    # Python) -> count per flag
    dedup = (
        ds.map_batches(local_distinct, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_orderkey"])
        .aggregate(Count(alias_name="n_dup"))
        .select_columns(["l_returnflag", "l_orderkey"])
    )
    out = dedup.groupby("l_returnflag").aggregate(Count(alias_name="n_orders")) \
        .to_pandas()
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_filter_project(sf_dir: str) -> pd.DataFrame:
    """Filter + project + global aggregate (M7 pattern), predicate applied
    vectorized inside map_batches."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"],
    )
    cutoff = pa.scalar(np.datetime64("1997-01-01", "us"))

    def fp(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.less(batch["l_shipdate"], cutoff),
            pc.greater(batch["l_quantity"], pa.scalar(25.0)),
        )
        t = batch.filter(mask)
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"revenue": rev})

    agg = ds.map_batches(fp, batch_format="pyarrow").aggregate(
        Sum("revenue", alias_name="revenue"), Count(alias_name="n")
    )
    return pd.DataFrame(
        [{"revenue": round(agg["revenue"], 4), "n": int(agg["n"])}]
    )


def q_window(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window per event_type over the events table (the
    streaming-shaped workload: window key computed per batch, then one
    groupby — ray_guide 'Streaming-shaped workloads')."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def add_window(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        win = (ts.astype(np.int64) // 3_600_000_000).astype(np.int64)
        return batch.append_column("window_h", pa.array(win, pa.int64()))

    keys = ["event_type", "window_h"]
    out = _partial_agg(ds, keys, {
        "n": ("value", "count"), "sum_value": ("value", "sum"),
    }, add_window)
    return _finish(out, keys, ints=["n"], r4=["sum_value"])


def q_window_sliding(sf_dir: str) -> pd.DataFrame:
    """Sliding 1-hour window, 30-minute slide, per event_type: each event
    belongs to exactly two windows, emitted by a vectorized flat-map (one
    row per (event, window-start)) then the same partial-aggregate ->
    bounded root combine as the tumbling case — the streaming-shaped
    sliding-window operator (SURVEY §2.9 extension)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def explode_windows(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        sec = ts.astype(np.int64) // 1_000_000
        s0 = (sec // 1800) * 1800          # the window starting <= t, 30m grid
        starts = np.concatenate([s0, s0 - 1800])
        # duplicate the string column Arrow-side (no Python round trip)
        et = batch["event_type"].combine_chunks().cast(pa.string())
        return pa.table(
            {
                "event_type": pa.concat_arrays([et, et]),
                "window_start_s": pa.array(starts, pa.int64()),
                "value": pa.array(
                    np.tile(
                        batch["value"].to_numpy(zero_copy_only=False), 2
                    ),
                    pa.float64(),
                ),
            }
        )

    keys = ["event_type", "window_start_s"]
    out = _partial_agg(ds, keys, {
        "n": ("value", "count"), "sum_value": ("value", "sum"),
    }, explode_windows)
    return _finish(out, keys, ints=["n"], r4=["sum_value"])


def q_cumulative_sum(sf_dir: str) -> pd.DataFrame:
    """Per-user running total over time-ordered events (the window-function
    analog SUM() OVER (PARTITION BY user ORDER BY ts)): groupby(user) ->
    numpy cumsum per group; partition key = window partition key, so one
    shuffle."""
    n_parts = _fused_parts(sf_dir, "events")

    def running_partition(group: pa.Table) -> pa.Table:
        # one call per coarse user partition; cumsum runs per user SEGMENT
        # (not via prefix subtraction) so the float math is identical to
        # the per-group version
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, ts, uid))
        uid, eid, val = uid[order], eid[order], val[order]
        out = np.empty(val.size, np.float64)
        brk = np.concatenate(([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1,
                              [uid.size]))
        for s, e in zip(brk[:-1], brk[1:]):
            out[s:e] = np.cumsum(val[s:e])
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "running_value": pa.array(np.round(out, 4), pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    ds = _with_part(ds, "user_id", n_parts)
    # input-sized result: to_pandas() is the declared query contract (the
    # driver hashes the whole table); a 100x-scale caller would
    # write_parquet the Dataset instead of collecting it
    out = ds.groupby("part").map_groups(
        running_partition, batch_format="pyarrow"
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_grouped_topk(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k orders per market segment (grouped top-k = per-batch partial
    top-k via the broadcast-joined segment, then a per-segment merge —
    the grouped analog of K3)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    ref = _keyed_side(cust, "c_custkey", "c_mktsegment")

    def partial_topk(batch: pa.Table) -> pa.Table:
        ks, seg_names = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        okey = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        hit, idx = _sorted_lookup(ks, ck)
        seg = seg_names[idx[hit]]
        okey, price = okey[hit], price[hit]
        out_seg, out_key, out_price = [], [], []
        for s in np.unique(seg):
            m = seg == s
            order = np.lexsort((okey[m], -price[m]))[:k]
            out_seg.extend([s] * order.size)
            out_key.extend(okey[m][order])
            out_price.extend(price[m][order])
        return pa.table(
            {
                "c_mktsegment": pa.array(out_seg, pa.string()),
                "o_orderkey": pa.array(out_key, pa.int64()),
                "o_totalprice": pa.array(out_price, pa.float64()),
            }
        )

    def merge_topk(group: pa.Table) -> pa.Table:
        price = group["o_totalprice"].to_numpy(zero_copy_only=False)
        okey = group["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, -price))[:k]
        return pa.table(
            {
                "c_mktsegment": pa.array(
                    [group["c_mktsegment"][0].as_py()] * order.size, pa.string()
                ),
                "rank": pa.array(np.arange(order.size) + 1, pa.int64()),
                "o_orderkey": pa.array(okey[order], pa.int64()),
                "o_totalprice": pa.array(
                    np.round(price[order], 4), pa.float64()
                ),
            }
        )

    out = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(partial_topk, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .map_groups(merge_topk, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["c_mktsegment", "rank"]).reset_index(drop=True)


def q_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact p50/p90/p99 of value per event_type: groupby -> numpy
    percentile with linear interpolation (matches DuckDB quantile_cont).
    Exact grouped quantiles need the group's values together — the honest
    shuffle; approximate sketches (t-digest) would replace this at 100 TB."""

    def qtile(group: pa.Table) -> pa.Table:
        v = group["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        p50, p90, p99 = np.percentile(v, [50, 90, 99], method="linear")
        return pa.table(
            {
                "event_type": pa.array(
                    [group["event_type"][0].as_py()], pa.string()
                ),
                "p50": pa.array([round(p50, 4)], pa.float64()),
                "p90": pa.array([round(p90, 4)], pa.float64()),
                "p99": pa.array([round(p99, 4)], pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = ds.groupby("event_type").map_groups(qtile, batch_format="pyarrow") \
        .to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_pivot_events(sf_dir: str) -> pd.DataFrame:
    """Pivot / conditional aggregation: one row per user with a count
    column per event type.  Per-batch pyarrow group_by partials, root
    combine + unstack (the combine is output-sized — one row per user —
    so it is the result, not a driver bottleneck)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    df = _partial_agg(ds, ["user_id", "event_type"], {
        "n": ("event_type", "count"),
    }).set_index(["user_id", "event_type"])["n"].unstack(fill_value=0)
    for et in _EVENT_TYPES:
        if et not in df.columns:
            df[et] = 0
    out = df[list(_EVENT_TYPES)].rename(
        columns={et: f"n_{et}" for et in _EVENT_TYPES}
    ).reset_index()
    out.columns.name = None
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_three_way_join(sf_dir: str) -> pd.DataFrame:
    """region ⨝ nation ⨝ supplier: chained broadcast joins (all small)."""
    region = _read(sf_dir, "region").to_pandas()
    nation = _read(sf_dir, "nation").to_pandas()
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"]).to_pandas()
    df = supplier.merge(nation, left_on="s_nationkey", right_on="n_nationkey") \
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    out = df.groupby("r_name", as_index=False).agg(
        n_suppliers=("s_suppkey", "size"), sum_acctbal=("s_acctbal", "sum")
    )
    return _finish(out, "r_name", ints=["n_suppliers"], r4=["sum_acctbal"])


def q_sessionize(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Gap-based sessionization (the streaming session-window analog the
    reference lacks, SURVEY.md §2.9): per user, events sorted by time split
    into sessions wherever the gap exceeds ``gap_minutes``; one output row
    per session.  Ray shape: groupby(user) -> vectorized numpy map_groups
    (sort, diff, cumsum of breaks, reduceat aggregates) — the partitioning
    key is the session key, so no second shuffle."""
    n_parts = _fused_parts(sf_dir, "events")
    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    def sessions_partition(group: pa.Table) -> pa.Table:
        # one call per coarse user partition: a user change forces a
        # session break, so reduceat session segments are identical to the
        # per-user version's
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        brk = np.ones(len(ts), dtype=bool)
        if len(ts) > 1:
            brk[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        starts = np.flatnonzero(brk)
        sess_user = uid[starts]
        ufirst = np.concatenate(([True], sess_user[1:] != sess_user[:-1]))
        ubase = np.flatnonzero(ufirst)
        runlen = np.diff(np.append(ubase, starts.size))
        session_no = (
            np.arange(starts.size, dtype=np.int64)
            - np.repeat(ubase, runlen)
            + 1
        )
        return pa.table(
            {
                "user_id": pa.array(sess_user, pa.int64()),
                "session_no": pa.array(session_no, pa.int64()),
                "n_events": pa.array(
                    np.diff(np.append(starts, len(ts))), pa.int64()
                ),
                "start_ts": pa.array(
                    ts[starts].astype("datetime64[us]"), pa.timestamp("us")
                ),
                "end_ts": pa.array(
                    np.maximum.reduceat(ts, starts).astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "sum_value": pa.array(
                    np.round(np.add.reduceat(val, starts), 4), pa.float64()
                ),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    ds = _with_part(ds, "user_id", n_parts)
    out = ds.groupby("part").map_groups(
        sessions_partition, batch_format="pyarrow"
    ).to_pandas()
    return out.sort_values(["user_id", "session_no"]).reset_index(drop=True)


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join (custom operator the reference and Ray Data both lack):
    for each event, the user's most recent order with o_orderdate <= ts.
    Ray shape: normalize both sides to (key, ts, ...), union, hash-group by
    key, per-group sort + searchsorted backward match — the documented
    partitioning assumption is that one key's rows fit in a task (salt by
    time range if a key is hot).  Oracle: DuckDB native ASOF JOIN."""
    n_parts = _fused_parts(sf_dir, "events", "orders")
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        lambda b: pa.table(
            {
                "key": b["user_id"],
                "ts": b["ts"],
                "event_id": b["event_id"],
                "o_orderkey": pa.nulls(b.num_rows, pa.int64()),
                "side": pa.array(["e"] * b.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    od = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda b: pa.table(
            {
                "key": b["o_custkey"],
                "ts": b["o_orderdate"],
                "event_id": pa.nulls(b.num_rows, pa.int64()),
                "o_orderkey": b["o_orderkey"],
                "side": pa.array(["o"] * b.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )

    def asof_partition(group: pa.Table) -> pa.Table:
        # one call per coarse key partition; the backward searchsorted
        # match runs per key SEGMENT with identical integer semantics
        side = np.asarray(group["side"].to_pylist())
        is_e = side == "e"
        keys = group["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        ekey, ets = keys[is_e], ts[is_e]
        ev_ids = group["event_id"].to_numpy(zero_copy_only=False)[is_e] \
            .astype(np.int64)
        okey, ots = keys[~is_e], ts[~is_e]
        okeys = group["o_orderkey"].to_numpy(zero_copy_only=False)[~is_e] \
            .astype(np.int64)
        e_order = np.lexsort((ets, ekey))
        ekey, ets, ev_ids = ekey[e_order], ets[e_order], ev_ids[e_order]
        o_order = np.lexsort((okeys, ots, okey))
        okey, ots, okeys = okey[o_order], ots[o_order], okeys[o_order]
        matched = np.full(ets.size, -1, dtype=np.int64)
        if ekey.size == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "o_orderkey": pa.array([], pa.int64()),
                }
            )
        seg = np.concatenate(
            ([0], np.flatnonzero(ekey[1:] != ekey[:-1]) + 1, [ekey.size])
        )
        for s, e in zip(seg[:-1], seg[1:]):
            k = ekey[s]
            lo = np.searchsorted(okey, k, side="left")
            hi = np.searchsorted(okey, k, side="right")
            if lo == hi:
                continue
            idx = np.searchsorted(ots[lo:hi], ets[s:e], side="right") - 1
            matched[s:e] = np.where(
                idx >= 0, okeys[lo:hi][np.maximum(idx, 0)], np.int64(-1)
            )
        return pa.table(
            {
                "event_id": pa.array(ev_ids, pa.int64()),
                "o_orderkey": pa.array(matched, pa.int64()),
            }
        )

    # input-sized result: to_pandas() is the declared query contract (the
    # driver hashes the whole table); a 100x-scale caller would
    # write_parquet the Dataset instead of collecting it
    out = (
        _with_part(ev.union(od), "key", n_parts)
        .groupby("part")
        .map_groups(asof_partition, batch_format="pyarrow")
        .to_pandas()
    )
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def q_range_join(sf_dir: str, window_minutes: int = 60) -> pd.DataFrame:
    """Range (time-window) join — a custom operator Ray Data lacks: for
    every purchase event, ALL click events by the same user in the
    preceding hour (the attribution-window join).  Distributed shape: hash-
    group by user, per-group sort + searchsorted window slices (vectorized
    emit via repeat/concatenate) — the partitioning assumption (one user's
    rows fit a task) is documented; salt by time range when a key is hot."""
    n_parts = _fused_parts(sf_dir, "events")
    win_us = np.int64(window_minutes * 60 * 1_000_000)

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def window_join_partition(group: pa.Table) -> pa.Table:
        # one call per coarse user partition; the searchsorted window match
        # runs per user SEGMENT with identical integer semantics
        et = np.asarray(group["event_type"].to_pylist())
        empty = pa.table(
            {"purchase_id": pa.array([], pa.int64()),
             "click_id": pa.array([], pa.int64())}
        )
        if len(group) == 0:
            return empty
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_p, is_c = et == "purchase", et == "click"
        puid, pts, pid = uid[is_p], ts[is_p], eid[is_p]
        cuid, cts, cid = uid[is_c], ts[is_c], eid[is_c]
        c_order = np.lexsort((cid, cts, cuid))
        cuid, cts, cid = cuid[c_order], cts[c_order], cid[c_order]
        p_order = np.argsort(puid, kind="stable")
        puid, pts, pid = puid[p_order], pts[p_order], pid[p_order]
        if pid.size == 0 or cid.size == 0:
            return empty
        p_o, c_o = [], []
        seg = np.concatenate(
            ([0], np.flatnonzero(puid[1:] != puid[:-1]) + 1, [puid.size])
        )
        for s, e in zip(seg[:-1], seg[1:]):
            u = puid[s]
            clo = np.searchsorted(cuid, u, side="left")
            chi = np.searchsorted(cuid, u, side="right")
            if clo == chi:
                continue
            lo = clo + np.searchsorted(
                cts[clo:chi], pts[s:e] - win_us, side="left"
            )
            hi = clo + np.searchsorted(cts[clo:chi], pts[s:e], side="right")
            counts = hi - lo
            if counts.sum() == 0:
                continue
            p_o.append(np.repeat(pid[s:e], counts))
            c_o.append(
                cid[
                    np.concatenate(
                        [np.arange(l, h) for l, h in zip(lo, hi)]
                    )
                ]
            )
        if not p_o:
            return empty
        return pa.table(
            {
                "purchase_id": pa.array(np.concatenate(p_o), pa.int64()),
                "click_id": pa.array(np.concatenate(c_o), pa.int64()),
            }
        )

    ds = _with_part(ds, "user_id", n_parts)
    out = ds.groupby("part").map_groups(
        window_join_partition, batch_format="pyarrow"
    ).to_pandas()
    if out.empty:
        return pd.DataFrame({"purchase_id": pd.Series([], dtype="int64"),
                             "click_id": pd.Series([], dtype="int64")})
    return out.sort_values(["purchase_id", "click_id"]).reset_index(drop=True)


def q_anti_join(sf_dir: str) -> pd.DataFrame:
    """Broadcast anti-join: customers with no events (event user ids ray.put
    once, filtered per batch with a vectorized sorted-membership test)."""
    keys = (
        _read(sf_dir, "events", ["user_id"])
        .to_pandas()["user_id"]
        .unique()
    )
    keys_ref = ray.put(np.sort(keys.astype(np.int64)))

    def drop_with_orders(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        c = batch["c_custkey"].to_numpy(zero_copy_only=False)
        hit, _ = _sorted_lookup(ks, c)
        return batch.filter(pa.array(~hit))

    out = (
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(drop_with_orders, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # all-empty blocks can drop the schema on collection
        return pd.DataFrame({"c_custkey": pd.Series([], dtype="int64")})
    return out.sort_values("c_custkey").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Native hash-shuffle joins (large x large — the shape broadcast can't do)
# ---------------------------------------------------------------------------
#
# ``Dataset.join`` is Ray Data's hash-shuffle join: both sides repartition
# by key hash into ``num_partitions`` aggregator actors, each of which joins
# its co-located partitions.  This is the correct large x large join at
# 100 TB (neither orders nor lineitem fits in one worker's heap, so the
# broadcast pattern above is out).  Partition count scales with input bytes
# so each aggregator holds a bounded slice.


def _join_partitions(sf_dir: str, *tables: str,
                     target_bytes: int = 256 << 20) -> int:
    """Size a hash join's partition count from the on-disk footprint of the
    participating tables (~target_bytes of input per aggregator)."""
    total = sum(os.path.getsize(f"{sf_dir}/{t}.parquet") for t in tables)
    return max(4, min(256, total // target_bytes + 1))


def q_hash_join(sf_dir: str) -> pd.DataFrame:
    """lineitem ⨝ orders on orderkey via the native hash-shuffle join, then
    revenue per order priority.  The post-join aggregation stays partial
    (per-batch pyarrow group_by) so only priority-sized partials move."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "orders", "lineitem"),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def prep(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        return batch.append_column("revenue", rev)

    out = _partial_agg(joined, "o_orderpriority", {
        "n_lines": ("l_orderkey", "count"), "revenue": ("revenue", "sum"),
    }, prep)
    return _finish(out, "o_orderpriority", ints=["n_lines"], r4=["revenue"])


def q_outer_join(sf_dir: str) -> pd.DataFrame:
    """customer ⟕ orders (left outer, native hash shuffle): per market
    segment the join-row count, the count of order-less customers (right
    side null), and the coalesced price sum — exercising null semantics."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = cust.join(
        orders,
        join_type="left_outer",
        num_partitions=_join_partitions(sf_dir, "customer", "orders"),
        on=("c_custkey",),
        right_on=("o_custkey",),
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "n_no_order": pc.cast(pc.is_null(batch["o_totalprice"]), pa.int64()),
                "price": pc.fill_null(batch["o_totalprice"], 0.0),
            }
        )

    out = _partial_agg(joined, "c_mktsegment", {
        "n_rows": ("c_mktsegment", "count"),
        "n_no_order": ("n_no_order", "sum"), "sum_price": ("price", "sum"),
    }, prep)
    return _finish(out, "c_mktsegment", ints=["n_rows", "n_no_order"],
                   r4=["sum_price"])


def q_semi_join(sf_dir: str) -> pd.DataFrame:
    """part ⋉ lineitem (left semi, native): parts with at least one
    high-quantity line, counted per brand.  The quantity filter pushes
    down BEFORE the shuffle so only qualifying line keys move."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).filter(
        expr="l_quantity >= 45"
    )
    joined = part.join(
        li,
        join_type="left_semi",
        num_partitions=_join_partitions(sf_dir, "part", "lineitem"),
        on=("p_partkey",),
        right_on=("l_partkey",),
    )

    out = _partial_agg(joined, "p_brand", {"n_parts": ("p_partkey", "count")})
    return _finish(out, "p_brand", ints=["n_parts"])


_SKEW_SALTS = 8


def q_skew_join(sf_dir: str) -> pd.DataFrame:
    """Salted hash join — the hot-key mitigation for skewed join keys.

    events ⨝ customer on user_id, but instead of hashing the raw key (a
    hot user would funnel its entire row mass into ONE aggregator), the
    small side is replicated once per salt value and the big side salts
    each row deterministically (event_id mod S), so a hot key's rows
    spread across S aggregators.  Join on (key, salt); results are
    identical to the unsalted join — the oracle is the plain SQL join."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def salt_events(batch: pa.Table) -> pa.Table:
        salt = pc.cast(
            pc.bit_wise_and(batch["event_id"], _SKEW_SALTS - 1), pa.int64()
        )
        return batch.append_column("salt", salt)

    def replicate_cust(batch: pa.Table) -> pa.Table:
        reps = []
        for s in range(_SKEW_SALTS):
            reps.append(
                batch.append_column(
                    "salt", pa.array(np.full(batch.num_rows, s, np.int64))
                )
            )
        return pa.concat_tables(reps)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        replicate_cust, batch_format="pyarrow"
    )
    joined = ev.map_batches(salt_events, batch_format="pyarrow").join(
        cust,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "events", "customer"),
        on=("user_id", "salt"),
        right_on=("c_custkey", "salt"),
    )

    out = _partial_agg(joined, "c_mktsegment", {
        "n_events": ("c_mktsegment", "count"), "sum_value": ("value", "sum"),
    })
    return _finish(out, "c_mktsegment", ints=["n_events"], r4=["sum_value"])


def q_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(returnflag, linestatus): leaf, per-flag subtotal and
    grand-total rows.  One partial-aggregated pass produces the leaf grid
    (keys x blocks partial rows); the super-aggregate levels roll up from
    that grid driver-side — no second scan, no extra shuffle."""
    return _qty_grouping_sets(sf_dir, ["l_returnflag"])


def _qty_grouping_sets(sf_dir: str, marginals) -> pd.DataFrame:
    """Leaf (returnflag, linestatus) quantity grid from one partial pass,
    plus one "ALL" level per marginal key and the grand total, all rolled
    up from the leaf grid driver-side."""
    keys = ["l_returnflag", "l_linestatus"]
    ds = _read(sf_dir, "lineitem", [*keys, "l_quantity"])
    leaf = _partial_agg(ds, keys, {
        "sum_qty": ("l_quantity", "sum"), "n_rows": ("l_quantity", "count"),
    })
    levels = [leaf]
    for key in marginals:
        lvl = leaf.groupby(key, as_index=False).agg(
            sum_qty=("sum_qty", "sum"), n_rows=("n_rows", "sum")
        )
        lvl[keys[1] if key == keys[0] else keys[0]] = "ALL"
        levels.append(lvl)
    levels.append(pd.DataFrame({
        "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
        "sum_qty": [leaf["sum_qty"].sum()], "n_rows": [leaf["n_rows"].sum()],
    }))
    out = pd.concat(levels, ignore_index=True)
    return _finish(out, keys, ints=["n_rows"], r4=["sum_qty"])


_MEDIAN_BINS = 1024


def q_grouped_median(sf_dir: str) -> pd.DataFrame:
    """EXACT per-group median (lower median, = DuckDB quantile_disc 0.5)
    without a global sort: (1) per-group count/min/max partials; (2) a
    per-group fixed-grid histogram pass; the prefix sum locates the single
    bin holding the median rank; (3) a filter pass collects only that
    bin's values (tiny: n/_MEDIAN_BINS expected) for the exact driver-side
    rank pick.  Three streaming scans, kilobyte exchanges — the exact-rank
    analog of the quantile sketch (same trick as the LM tercile split)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    stats = _partial_agg(ds, "l_returnflag", {
        "n": ("l_extendedprice", "count"), "lo": ("l_extendedprice", "min"),
        "hi": ("l_extendedprice", "max"),
    })
    groups = stats["l_returnflag"].to_numpy()
    lo = stats["lo"].to_numpy(np.float64)
    span = np.maximum(stats["hi"].to_numpy(np.float64) - lo, 1e-12)
    ranks = (stats["n"].to_numpy(np.int64) - 1) // 2  # 0-based lower median
    bounds_ref = ray.put((groups, lo, span))

    def hist_batch(batch: pa.Table) -> pa.Table:
        gs, los, spans = ray.get(bounds_ref)
        flag = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        v = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        gi = np.searchsorted(gs, flag)
        b = np.clip(
            ((v - los[gi]) / spans[gi] * _MEDIAN_BINS).astype(np.int64),
            0,
            _MEDIAN_BINS - 1,
        )
        h = np.zeros((gs.size, _MEDIAN_BINS), np.int64)
        np.add.at(h, (gi, b), 1)
        return pa.table({"h": pa.array([h.tobytes()], pa.binary())})

    parts = ds.map_batches(hist_batch, batch_format="pyarrow").to_pandas()
    hist = np.zeros((groups.size, _MEDIAN_BINS), np.int64)
    for raw in parts["h"]:
        hist += np.frombuffer(raw, np.int64).reshape(groups.size, _MEDIAN_BINS)
    cdf = np.cumsum(hist, axis=1)
    med_bin = np.array(
        [int(np.searchsorted(cdf[i], ranks[i], side="right")) for i in range(groups.size)]
    )
    # rank of the median within its bin (0-based)
    below = np.where(med_bin > 0, cdf[np.arange(groups.size), med_bin - 1], 0)
    in_bin_rank = ranks - below
    pick_ref = ray.put((groups, lo, span, med_bin))

    def bin_values(batch: pa.Table) -> pa.Table:
        gs, los, spans, bins = ray.get(pick_ref)
        flag = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        v = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        gi = np.searchsorted(gs, flag)
        b = np.clip(
            ((v - los[gi]) / spans[gi] * _MEDIAN_BINS).astype(np.int64),
            0,
            _MEDIAN_BINS - 1,
        )
        keep = b == bins[gi]
        return pa.table(
            {
                "gi": pa.array(gi[keep], pa.int64()),
                "v": pa.array(v[keep], pa.float64()),
            }
        )

    cand = ds.map_batches(bin_values, batch_format="pyarrow").to_pandas()
    medians = np.empty(groups.size, np.float64)
    for i in range(groups.size):
        vals = np.sort(cand.loc[cand["gi"] == i, "v"].to_numpy())
        medians[i] = vals[in_bin_rank[i]]
    return pd.DataFrame(
        {
            "l_returnflag": groups,
            "median_price": np.round(medians, 4),
            "n": stats["n"].astype("int64"),
        }
    )


def q_tpch_q3(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """TPC-H Q3 shape — the composite the suite's primitives exist for:
    broadcast semi-filter (BUILDING custkeys -> orders), predicate pushdown
    on both big tables, native hash-shuffle join lineitem ⨝ orders, partial
    aggregation by (orderkey, orderdate) inside each joined batch, one
    orderkey-sized groupby, then top-k.  The join's hash partitioning
    co-locates each orderkey, so the final groupby combines per-partition
    partials rather than raw line items."""
    cutoff = pd.Timestamp("1995-03-15")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def building_keys(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["c_mktsegment"], "BUILDING")
        return batch.filter(m).select(["c_custkey"])

    keys = np.sort(
        cust.map_batches(building_keys, batch_format="pyarrow")
        .to_pandas()["c_custkey"]
        .to_numpy(np.int64)
    )
    keys_ref = ray.put(keys)

    def orders_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        batch = batch.filter(pc.less(batch["o_orderdate"], cutoff))
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ks, ck)
        return batch.filter(pa.array(hit)).select(
            ["o_orderkey", "o_orderdate"]
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_filter, batch_format="pyarrow")
    def ship_after(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["l_shipdate"], cutoff)).select(
            ["l_orderkey", "l_extendedprice", "l_discount"]
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(ship_after, batch_format="pyarrow")

    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "orders", "lineitem"),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "o_orderdate": batch["o_orderdate"],
                "revenue": rev,
            }
        )
        return t.group_by(["l_orderkey", "o_orderdate"]).aggregate(
            [("revenue", "sum")]
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_orderkey", "o_orderdate"])
        .aggregate(Sum("revenue_sum", alias_name="revenue"))
    )
    out = (
        agg.sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    out["revenue"] = out["revenue"].round(4)
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    return out[["l_orderkey", "revenue", "o_orderdate"]].reset_index(drop=True)


def q_tpch_q5(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 shape — the 6-table local-supplier-volume join: region ⨝
    nation ⨝ customer ⨝ supplier collapse to BROADCAST lookups (sorted
    key arrays via ray.put — region/nation are constants, supplier is
    keyspace-bounded; customer is the medium side, broadcast here and
    documented as the bloom-semi-join path at 100 TB), so the only
    all-to-all is the one lineitem ⨝ orders hash join.  The
    same-nation predicate (c_nationkey == s_nationkey) is evaluated
    vectorized inside the joined batches; revenue partials aggregate per
    nation inside each batch, leaving a 25-row final combine."""
    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    asia = reg.loc[reg["r_name"] == "ASIA", "r_regionkey"]
    asia_nations = np.sort(
        nat.loc[nat["n_regionkey"].isin(asia), "n_nationkey"]
        .to_numpy(np.int64)
    )
    name_of = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust[np.isin(cust["c_nationkey"].to_numpy(np.int64),
                        asia_nations)]
    cust_ref = _keyed_side(cust, "c_custkey", "c_nationkey")
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    sup_ref = _keyed_side(sup, "s_suppkey", "s_nationkey")

    def orders_filter(batch: pa.Table) -> pa.Table:
        keys, nats = ray.get(cust_ref)
        batch = batch.filter(
            pc.and_(pc.greater_equal(batch["o_orderdate"], lo),
                    pc.less(batch["o_orderdate"], hi))
        )
        ok = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, idx = _sorted_lookup(keys, ok)
        batch = batch.filter(pa.array(hit))
        return pa.table(
            {"o_orderkey": batch["o_orderkey"],
             "cust_nation": pa.array(nats[idx[hit]], pa.int64())}
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_filter, batch_format="pyarrow")

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "orders", "lineitem"),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        skeys, snats = ray.get(sup_ref)
        sup_k = batch["l_suppkey"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        hit, idx = _sorted_lookup(skeys, sup_k)
        s_nat = np.where(hit, snats[idx], -1)
        keep = s_nat == batch["cust_nation"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(keep))
        if t.num_rows == 0:
            return pa.table({"n_nationkey": pa.array([], pa.int64()),
                             "revenue_sum": pa.array([], pa.float64())})
        rev = pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]),
        )
        return pa.table(
            {"n_nationkey": t["cust_nation"], "revenue": rev}
        ).group_by(["n_nationkey"]).aggregate([("revenue", "sum")])

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("n_nationkey")
        .aggregate(Sum("revenue_sum", alias_name="revenue"))
        .to_pandas()
    )
    agg["n_name"] = agg["n_nationkey"].astype(int).map(name_of)
    agg["revenue"] = agg["revenue"].round(4)
    agg = agg.sort_values(
        ["revenue", "n_name"], ascending=[False, True]
    ).reset_index(drop=True)
    return agg[["n_name", "revenue"]]


def q_tpch_q6(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 shape — the forecasting-revenue-change scan: a pure
    filter + global sum with NO joins, the canonical predicate-pushdown
    benchmark.  Each batch reduces to one partial-sum row (filter and
    multiply are Arrow kernels), so the driver combine is
    O(blocks) regardless of corpus size."""
    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                    pc.less(batch["l_shipdate"], hi)),
            pc.and_(
                pc.and_(pc.greater_equal(batch["l_discount"], 0.05),
                        pc.less_equal(batch["l_discount"], 0.07)),
                pc.less(batch["l_quantity"], 24.0),
            ),
        )
        t = batch.filter(keep)
        rev = pc.sum(pc.multiply(t["l_extendedprice"], t["l_discount"]))
        return pa.table(
            {"revenue": pa.array([rev.as_py() or 0.0], pa.float64())}
        )

    parts = (
        _read(sf_dir, "lineitem",
              ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    return pd.DataFrame({"revenue": [round(float(parts["revenue"].sum()), 4)]})


def q_tpch_q10(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """TPC-H Q10 shape — returned-item reporting: orders date-window
    filter ⨝ lineitem(returnflag='R') is the single all-to-all hash
    join; revenue partials pre-aggregate per custkey inside each joined
    batch before the customer-keyed groupby; per-block partial top-k +
    a k-sized driver merge rank; customer/nation attributes enrich
    POST-limit (k broadcast keys filter the customer scan — the J3/J4
    post-limit-join rule, so the wide tables never join before the cut)."""
    lo = pd.Timestamp("1996-10-01")
    hi = pd.Timestamp("1997-01-01")

    def orders_filter(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(pc.greater_equal(batch["o_orderdate"], lo),
                    pc.less(batch["o_orderdate"], hi))
        )
        return batch.select(["o_orderkey", "o_custkey"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_filter, batch_format="pyarrow")

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: b.filter(pc.equal(b["l_returnflag"], "R")),
        batch_format="pyarrow",
    )

    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "orders", "lineitem"),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "revenue_sum": pa.array([], pa.float64())})
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        return pa.table(
            {"c_custkey": pc.cast(batch["o_custkey"], pa.int64()),
             "revenue": rev}
        ).group_by(["c_custkey"]).aggregate([("revenue", "sum")])

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Sum("revenue_sum", alias_name="revenue"))
    )

    def topk(batch: pa.Table) -> pa.Table:
        ids = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = np.round(
            batch["revenue"].to_numpy(zero_copy_only=False).astype(np.float64),
            4,
        )
        order = np.lexsort((ids, -rev))[: min(k, ids.size)]
        return pa.table(
            {"c_custkey": pa.array(ids[order], pa.int64()),
             "revenue": pa.array(rev[order], pa.float64())}
        )

    top = agg.map_batches(topk, batch_format="pyarrow").to_pandas()
    top = top.sort_values(
        ["revenue", "c_custkey"], ascending=[False, True]
    ).head(k).reset_index(drop=True)

    # post-limit enrich: k keys broadcast into the customer scan
    keys = np.sort(top["c_custkey"].to_numpy(np.int64))
    keys_ref = ray.put(keys)

    def cust_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ks, ck)
        return batch.filter(pa.array(hit))

    cust = (
        _read(sf_dir, "customer",
              ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
        .map_batches(cust_filter, batch_format="pyarrow")
        .to_pandas()
    )
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    cust = cust.merge(
        nat, left_on="c_nationkey", right_on="n_nationkey", how="left"
    )
    out = top.merge(
        cust[["c_custkey", "c_name", "c_acctbal", "n_name"]],
        on="c_custkey", how="left",
    )
    return out[["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]]


def q_set_intersect(sf_dir: str) -> pd.DataFrame:
    """Distributed INTERSECT: users who both clicked and purchased.  Each
    batch emits per-user flag partials (deduped within the batch), one
    user-sized groupby ORs the flags — no per-side distinct pre-shuffles."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def flags(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        keep = pc.or_(pc.equal(et, "click"), pc.equal(et, "purchase"))
        t = batch.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "is_click": pc.cast(pc.equal(t["event_type"], "click"), pa.int64()),
                "is_purchase": pc.cast(
                    pc.equal(t["event_type"], "purchase"), pa.int64()
                ),
            }
        ).group_by(["user_id"]).aggregate(
            [("is_click", "max"), ("is_purchase", "max")]
        )

    out = (
        ds.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("is_click_max", alias_name="is_click"),
            Max("is_purchase_max", alias_name="is_purchase"),
        )
        .to_pandas()
    )
    out = out[(out["is_click"] == 1) & (out["is_purchase"] == 1)]
    out = out[["user_id"]].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_event_deltas(sf_dir: str) -> pd.DataFrame:
    """LAG window: per-user mean/max gap (seconds) between consecutive
    events.  User-keyed groupby + in-group vectorized diff — the shuffle is
    by the analysis key (one group per user), the same partitioning every
    other per-user op in the suite reuses (ray_guide: pick ONE partitioning
    key and keep it)."""
    n_parts = _fused_parts(sf_dir, "events")

    def gaps_partition(group: pa.Table) -> pa.Table:
        # one call per coarse user partition; per-user diff/mean/max over
        # sorted segment views (float math identical to the per-group fn)
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        seg = np.concatenate(
            ([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1, [uid.size])
        )
        u_o, n_o, mean_o, max_o = [], [], [], []
        for s, e in zip(seg[:-1], seg[1:]):
            n = e - s
            if n == 0:
                continue
            u_o.append(uid[s])
            n_o.append(n)
            if n < 2:
                mean_o.append(None)
                max_o.append(None)
                continue
            d = np.diff(ts[s:e]) / 1e6
            mean_o.append(round(float(d.mean()), 4))
            max_o.append(round(float(d.max()), 4))
        return pa.table(
            {
                "user_id": pa.array(u_o, pa.int64()),
                "n_events": pa.array(n_o, pa.int64()),
                "mean_gap_s": pa.array(mean_o, pa.float64()),
                "max_gap_s": pa.array(max_o, pa.float64()),
            }
        )

    out = (
        _with_part(_read(sf_dir, "events", ["user_id", "ts"]), "user_id",
                   n_parts)
        .groupby("part")
        .map_groups(gaps_partition, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("user_id").reset_index(drop=True)


def q_corr_stats(sf_dir: str) -> pd.DataFrame:
    """Distributed Pearson correlation per group (corr of l_quantity vs
    l_extendedprice per l_returnflag).  Single pass of moment partials
    (n, Σx, Σy, Σx², Σy², Σxy) per batch — the textbook mergeable-sketch
    shape: the all-to-all carries <= groups × blocks tiny rows and the
    root combine is O(groups)."""
    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def moments(batch: pa.Table) -> pa.Table:
        x = batch["l_quantity"]
        y = batch["l_extendedprice"]
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "x": x,
                "y": y,
                "xx": pc.multiply(x, x),
                "yy": pc.multiply(y, y),
                "xy": pc.multiply(x, y),
            }
        )

    m = _partial_agg(ds, "l_returnflag", {
        "n": ("x", "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
        "sxx": ("xx", "sum"), "syy": ("yy", "sum"), "sxy": ("xy", "sum"),
    }, moments)
    n = m["n"].astype("float64")
    cov = m["sxy"] - m["sx"] * m["sy"] / n
    vx = m["sxx"] - m["sx"] ** 2 / n
    vy = m["syy"] - m["sy"] ** 2 / n
    return pd.DataFrame(
        {
            "l_returnflag": m["l_returnflag"],
            "n": m["n"].astype("int64"),
            "corr_qty_price": (cov / np.sqrt(vx * vy)).round(6),
        }
    )


def q_mode_per_group(sf_dir: str) -> pd.DataFrame:
    """Per-user modal event_type (most frequent; ties broken by smallest
    event_type).  Partial (user, type) counts per batch collapse the
    exchange to <= users × types × blocks rows; the root argmax is a
    bounded combine."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    counts = _partial_agg(ds, ["user_id", "event_type"], {
        "n": ("event_type", "count"),
    }).sort_values(["user_id", "n", "event_type"], ascending=[True, False, True])
    out = counts.groupby("user_id", as_index=False).first()
    out = out.rename(columns={"event_type": "mode_type"})
    return _finish(out, "user_id", ints=["n"], cols=["user_id", "mode_type", "n"])


def q_histogram(sf_dir: str) -> pd.DataFrame:
    """Fixed-width value histogram per event_type (bin = floor(value/50)).
    Bin key is computed per batch, partials collapse to <= types × bins ×
    blocks rows — a mergeable-sketch exchange, never input-sized."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def add_bin(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bin", pc.cast(pc.floor(pc.divide(batch["value"], 50.0)), pa.int64())
        )

    out = _partial_agg(ds, ["event_type", "bin"], {"n": ("bin", "count")}, add_bin)
    return _finish(out, ["event_type", "bin"], ints=["n"])


def q_group_concat(sf_dir: str) -> pd.DataFrame:
    """Per-user sorted-distinct event-type list (array-agg / string_agg
    parity).  Local distinct per batch, distinct shuffle on the pair key,
    then a per-user combine of <= |types| strings."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    pairs = (
        ds.map_batches(local_distinct, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["user_id", "event_type"])
        .to_pandas()       # bounded: <= users x distinct types rows
    )
    out = (
        pairs.sort_values(["user_id", "event_type"])
        .groupby("user_id", as_index=False)
        .agg(types=("event_type", lambda s: ",".join(s)),
             n_types=("event_type", "size"))
    )
    out["n_types"] = out["n_types"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_weighted_sample(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Deterministic weighted sampling without replacement
    (Efraimidis-Spirakis 2006, public algorithm): each order draws
    u from a fixed integer LCG of its key ((key * 2654435761) mod 2^32,
    +0.5, /2^32 — exactly representable in float64 so SQL reproduces it
    bitwise) and the k largest u^(1/weight) win, here ranked by the
    equivalent ln(u)/weight.  Distributed shape = per-batch key compute ->
    global top-k sort+limit (tiny result), the same K3 shape as topk_sort;
    at 100 TB the sort is replaced by per-batch partial top-k + driver
    merge, which ``search``'s additive scorer already implements."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def add_key(batch: pa.Table) -> pa.Table:
        okey = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        u = ((okey * 2654435761) % 4294967296 + 0.5) / 4294967296.0
        w = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "es_key": pa.array(np.log(u) / w, pa.float64()),
            }
        )

    top = (
        ds.map_batches(add_key, batch_format="pyarrow")
        .sort(["es_key", "o_orderkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    top = top.reset_index(drop=True)
    return pd.DataFrame(
        {
            "sel_rank": pd.Series(range(1, len(top) + 1), dtype="int64"),
            "o_orderkey": top["o_orderkey"].astype("int64"),
        }
    )


def q_percent_rank(sf_dir: str) -> pd.DataFrame:
    """percent_rank() OVER (PARTITION BY event_type ORDER BY value) for
    every event: groupby(partition key) + in-group vectorized searchsorted
    ranks.  NOTE the partition key here is low-cardinality (5 types), so a
    group is corpus/5 — fine for the window-function contract at this
    scale, but the 100 TB shape for low-cardinality partitions is a
    distributed sort by (type, value) with block-offset rank stitching
    (the cumulative-sum pattern); documented rather than built because
    every other window op in this suite partitions on a high-cardinality
    key."""

    def ranks(group: pa.Table) -> pa.Table:
        val = group["value"].to_numpy(zero_copy_only=False)
        sv = np.sort(val)
        n_less = np.searchsorted(sv, val, side="left")
        n = val.size
        pr = n_less / (n - 1) if n > 1 else np.zeros(n)
        return pa.table(
            {
                "event_id": group["event_id"],
                "event_type": group["event_type"],
                "pct_rank": pa.array(np.round(pr, 6), pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    # input-sized result: declared query contract (driver hashes the table)
    out = ds.groupby("event_type").map_groups(ranks, batch_format="pyarrow") \
        .to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_unpivot_long(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT / melt: lineitem (quantity, extendedprice, discount) wide ->
    long (one row per metric).  Pure per-batch Arrow reshape (three column
    slices concatenated), no shuffle — scan-bound at any scale."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
         "l_discount"],
    )

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        for metric, col in (
            ("quantity", "l_quantity"),
            ("extendedprice", "l_extendedprice"),
            ("discount", "l_discount"),
        ):
            parts.append(
                pa.table(
                    {
                        "l_orderkey": batch["l_orderkey"],
                        "l_linenumber": pc.cast(
                            batch["l_linenumber"], pa.int64()
                        ),
                        "metric": pa.array(
                            [metric] * batch.num_rows, pa.string()
                        ),
                        "val": pc.round(
                            pc.cast(batch[col], pa.float64()), 4
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    # input-sized result (x3): declared query contract (driver hashes it);
    # a 100x caller would write_parquet the melted Dataset instead
    out = ds.map_batches(melt, batch_format="pyarrow").to_pandas()
    return out.sort_values(
        ["l_orderkey", "l_linenumber", "metric"]
    ).reset_index(drop=True)


def q_merge_upsert(sf_dir: str) -> pd.DataFrame:
    """MERGE INTO (CDC delta apply): a deterministic delta of 5 updates,
    5 deletes and 5 inserts applied to the documents base table.  Ray
    shape: tag base and delta rows, union, one groupby(doc_id) resolves
    each key (delta wins; delete drops the key) — the standard upsert
    compaction for log-structured tables; the exchange is keyed on the
    primary key, never wider than base + delta."""
    n_parts = _fused_parts(sf_dir, "documents")
    base_tbl = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    head = base_tbl.slice(0, 10)
    up_ids = head["doc_id"].to_pylist()[:5]
    del_ids = head["doc_id"].to_pylist()[5:10]
    delta_tbl = pa.table(
        {
            "doc_id": pa.array(
                up_ids
                + del_ids
                + [i + 5_000_000 for i in up_ids],
                pa.int64(),
            ),
            "text": pa.array(
                ["updated " + t for t in head["text"].to_pylist()[:5]]
                + [None] * 5
                + ["inserted doc " + str(i) for i in up_ids],
                pa.string(),
            ),
            "op": pa.array(
                ["U"] * 5 + ["D"] * 5 + ["I"] * 5, pa.string()
            ),
        }
    )

    base = ray.data.from_arrow(base_tbl).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "text": b["text"],
                "op": pa.array([""] * b.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    delta = ray.data.from_arrow(delta_tbl)

    def resolve_partition(group: pa.Table) -> pa.Table:
        # vectorized per coarse key partition (one Python call per
        # partition, not per key): delta rows (op != "") win over base, a
        # delete drops the key — winner = max-priority row per key
        ids = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if ids.size == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "text": pa.array([], pa.string())}
            )
        ops = group["op"].to_numpy(zero_copy_only=False)
        pri = np.where(ops == "D", 3, np.where(ops == "", 0, 2))
        order = np.lexsort((-pri, ids))
        sid, spri = ids[order], pri[order]
        first = np.concatenate(([True], sid[1:] != sid[:-1]))
        win = order[first]
        keep = win[pri[win] < 3]
        t = group.select(["doc_id", "text"]).take(pa.array(np.sort(keep)))
        return t

    out = (
        _with_part(base.union(delta), "doc_id", n_parts)
        .groupby("part")
        .map_groups(resolve_partition, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_funnel_conversion(sf_dir: str) -> pd.DataFrame:
    """Ordered-funnel analysis (click -> view -> purchase): a user converts
    a stage only by an event at-or-after their previous stage's first
    event.  Only high-value events (value >= 100, ~p90) count, so on the dense
    synthetic stream the stages actually discriminate.  Shape: filter at
    the read, one groupby(user_id) shuffle, per-group vectorized
    first-occurrence logic, then a four-counter combine — output is a
    single row regardless of input size."""
    n_parts = _fused_parts(sf_dir, "events")
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])
    ds = ds.filter(expr="value >= 100").select_columns(
        ["user_id", "ts", "event_type"]
    )

    def funnel_partition(group: pa.Table) -> pa.Table:
        # one call per coarse user partition; the ordered-stage logic runs
        # per user segment with identical semantics
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        et = np.asarray(group["event_type"].to_pylist())
        order = np.argsort(uid, kind="stable")
        uid, ts, et = uid[order], ts[order], et[order]
        seg = np.concatenate(
            ([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1, [uid.size])
        )
        n_users = seg.size - 1 if uid.size else 0
        n1 = n2 = n3 = 0
        for s, e in zip(seg[:-1], seg[1:]):
            t_seg, e_seg = ts[s:e], et[s:e]
            c = t_seg[e_seg == "click"]
            if c.size == 0:
                continue
            n1 += 1
            v = t_seg[(e_seg == "view") & (t_seg >= c.min())]
            if v.size == 0:
                continue
            n2 += 1
            if ((e_seg == "purchase") & (t_seg >= v.min())).any():
                n3 += 1
        return pa.table(
            {
                "n_users": pa.array([n_users], pa.int64()),
                "n_click": pa.array([n1], pa.int64()),
                "n_click_view": pa.array([n2], pa.int64()),
                "n_full_funnel": pa.array([n3], pa.int64()),
            }
        )

    ds = _with_part(ds, "user_id", n_parts)
    per_user = ds.groupby("part").map_groups(
        funnel_partition, batch_format="pyarrow"
    )
    out = per_user.sum(
        ["n_users", "n_click", "n_click_view", "n_full_funnel"]
    )
    return pd.DataFrame(
        {
            "n_users": pd.Series([out["sum(n_users)"] or 0], dtype="int64"),
            "n_click": pd.Series([out["sum(n_click)"] or 0], dtype="int64"),
            "n_click_view": pd.Series([out["sum(n_click_view)"] or 0], dtype="int64"),
            "n_full_funnel": pd.Series(
                [out["sum(n_full_funnel)"] or 0], dtype="int64"
            ),
        }
    )


def q_json_extract_agg(sf_dir: str) -> pd.DataFrame:
    """Schema-on-read JSON extraction: pull ``k`` out of the ``props`` JSON
    column with a vectorized Arrow regex (no Python json loop), then the
    standard partial-aggregate -> bounded root combine per event_type.
    The scan-side extraction is the 100 TB story: the JSON string never
    leaves the read task; only (type, n, sum) partials shuffle."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": k})

    out = _partial_agg(ds, "event_type", {
        "n": ("k", "count"), "sum_k": ("k", "sum"),
    }, extract)
    out = _finish(out, "event_type", ints=["n", "sum_k"])
    out["avg_k"] = (out["sum_k"] / out["n"]).round(4)
    return out


def q_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Snapshot diff (data-versioning primitive): compare the documents
    table against a deterministically perturbed second snapshot (5 rows
    dropped, 5 texts changed, 5 rows added) and emit per-doc change status
    for every changed key.  Shape: tagged union + one groupby(doc_id) —
    identical keys co-locate, each group resolves locally; unchanged rows
    are filtered inside the group task so the result is diff-sized, never
    corpus-sized."""
    n_parts = _fused_parts(sf_dir, "documents")
    base_tbl = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    ids = base_tbl["doc_id"].to_pylist()
    texts = base_tbl["text"].to_pylist()
    removed, changed = set(ids[0:5]), set(ids[5:10])
    new_rows = pa.table(
        {
            "doc_id": pa.array([i + 7_000_000 for i in ids[:5]], pa.int64()),
            "text": pa.array([f"new doc {i}" for i in ids[:5]], pa.string()),
        }
    )
    snap2 = pa.table(
        {
            "doc_id": pa.array(
                [i for i in ids if i not in removed]
                + new_rows["doc_id"].to_pylist(),
                pa.int64(),
            ),
            "text": pa.array(
                [
                    ("changed " + t) if i in changed else t
                    for i, t in zip(ids, texts)
                    if i not in removed
                ]
                + new_rows["text"].to_pylist(),
                pa.string(),
            ),
        }
    )

    def tag(side: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.append_column(
                "side", pa.array([side] * b.num_rows, pa.string())
            )
        return fn

    def resolve_partition(group: pa.Table) -> pa.Table:
        # vectorized diff per coarse key partition: each key has <= 1 row
        # per side; added/removed via membership, changed via aligned text
        # compare on the sorted common keys
        sides = group["side"].to_numpy(zero_copy_only=False)
        ids = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = group["text"].combine_chunks()
        am, bm = sides == "a", sides == "b"
        a_ids, b_ids = ids[am], ids[bm]
        removed = np.setdiff1d(a_ids, b_ids)
        added = np.setdiff1d(b_ids, a_ids)
        common, ai, bi = np.intersect1d(a_ids, b_ids, return_indices=True)
        a_rows = np.flatnonzero(am)[ai]
        b_rows = np.flatnonzero(bm)[bi]
        neq = pc.invert(
            pc.equal(
                texts.take(pa.array(a_rows)), texts.take(pa.array(b_rows))
            )
        ).to_numpy(zero_copy_only=False)
        changed = common[neq]
        out_ids = np.concatenate([removed, added, changed])
        status = (
            ["removed"] * removed.size
            + ["added"] * added.size
            + ["changed"] * changed.size
        )
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "status": pa.array(status, pa.string()),
            }
        )

    tagged = ray.data.from_arrow(base_tbl).map_batches(
        tag("a"), batch_format="pyarrow").union(
        ray.data.from_arrow(snap2).map_batches(tag("b"), batch_format="pyarrow"))
    out = (
        _with_part(tagged, "doc_id", n_parts)
        .groupby("part")
        .map_groups(resolve_partition, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _skyline_2d(price: np.ndarray, date: np.ndarray) -> np.ndarray:
    """Indices of the 2-D Pareto frontier (maximize ``price``, minimize
    ``date``): q survives iff no p has (price >=, date <=) with one
    strict.  One sort + two prefix mins — fully vectorized.  Returns
    positions into the input arrays."""
    order = np.lexsort((date, -price))  # price desc, date asc
    p_s, d_s = price[order], date[order]
    # start index of each equal-price group
    new_grp = np.concatenate(([True], p_s[1:] != p_s[:-1]))
    grp_start = np.maximum.accumulate(
        np.where(new_grp, np.arange(p_s.size), 0)
    )
    # min date within the group = date at group start (dates sorted asc)
    grp_min = d_s[grp_start]
    # min date over all strictly-higher prices = cummin up to group start
    cummin = np.minimum.accumulate(d_s)
    prev = grp_start - 1
    min_higher = np.where(prev >= 0, cummin[np.maximum(prev, 0)],
                          np.iinfo(np.int64).max
                          if np.issubdtype(date.dtype, np.integer)
                          else np.inf)
    survive = (d_s == grp_min) & (min_higher > d_s)
    return order[survive]


def q_skyline_orders(sf_dir: str) -> pd.DataFrame:
    """Distributed 2-D skyline over orders — the Pareto frontier
    maximizing o_totalprice while minimizing o_orderdate ("biggest
    earliest orders").  Shape: each block reduces to its LOCAL skyline
    (skyline(union) ⊆ union of block skylines, so the prune is lossless);
    the driver merges only the surviving candidates with the same sweep —
    frontier-sized, not corpus-sized (a tree-reduce replaces the driver
    merge if block frontiers themselves are large)."""

    def local_skyline(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["o_orderkey", "o_totalprice", "o_orderdate"])
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        date = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        date_i = date.astype("datetime64[us]").astype(np.int64)
        idx = _skyline_2d(price.astype(np.float64), date_i)
        return batch.select(
            ["o_orderkey", "o_totalprice", "o_orderdate"]
        ).take(pa.array(np.sort(idx)))

    cand = (
        _read(sf_dir, "orders",
              ["o_orderkey", "o_totalprice", "o_orderdate"])
        .map_batches(local_skyline, batch_format="pyarrow")
        .to_pandas()
    )
    if cand.empty:
        return cand
    price = cand["o_totalprice"].to_numpy(np.float64)
    date_i = cand["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64)
    keep = _skyline_2d(price, date_i)
    out = cand.iloc[np.sort(keep)].sort_values("o_orderkey")
    out["o_totalprice"] = out["o_totalprice"].round(4)
    return out.reset_index(drop=True)


def q_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Weekly retention cohorts over events: cohort = Monday-truncated
    week of each user's FIRST event; for every (cohort_week, week_offset)
    count the users active in that week.  Distributed shape: one
    user-keyed min groupby (first events), one per-batch-deduped
    (user, week) groupby (active weeks), then a user-keyed hash join of
    the two user-sized tables; offsets + cohort counts pre-aggregate per
    batch so only cohort×offset-sized partials reach the final combine —
    the raw event stream never shuffles twice.  Week truncation matches
    DuckDB date_trunc('week'): Mondays, computed in integer day space."""
    WEEK_US = 7 * 86_400_000_000

    def _monday_us(ts_us: np.ndarray) -> np.ndarray:
        d = ts_us // 86_400_000_000
        return (d - ((d + 3) % 7)) * 86_400_000_000

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def min_partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        ts_us = ts.astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((ts_us, u))
        uu, first = np.unique(u[order], return_index=True)
        return pa.table({"user_id": pa.array(uu, pa.int64()),
                         "ts_us": pa.array(ts_us[order][first], pa.int64())})

    firsts = (
        ev.map_batches(min_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("ts_us", alias_name="first_us"))
        .map_batches(
            lambda b: pa.table({
                "user_id": b["user_id"] if "user_id" in b.column_names
                else pa.array([], pa.int64()),
                "cohort_us": pa.array(
                    _monday_us(b["first_us"].to_numpy(
                        zero_copy_only=False).astype(np.int64))
                    if "first_us" in b.column_names else [],
                    pa.int64(),
                ),
            }),
            batch_format="pyarrow",
        )
    )

    def week_partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        w = _monday_us(ts_us)
        uniq = np.unique(np.stack([u, w], axis=1), axis=0)
        return pa.table({"user_id": pa.array(uniq[:, 0], pa.int64()),
                         "w_us": pa.array(uniq[:, 1], pa.int64())})

    weeks = (
        ev.map_batches(week_partial, batch_format="pyarrow")
        .groupby(["user_id", "w_us"])
        .count()
        .select_columns(["user_id", "w_us"])
    )

    joined = weeks.join(
        firsts,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "events"),
        on=("user_id",),
    )

    def cohort_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"cohort_us": pa.array([], pa.int64()),
                             "week_offset": pa.array([], pa.int64()),
                             "cohort_us_count": pa.array([], pa.int64())})
        w = batch["w_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["cohort_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = (w - c) // WEEK_US
        return pa.table({
            "cohort_us": pa.array(c, pa.int64()),
            "week_offset": pa.array(off, pa.int64()),
        }).group_by(["cohort_us", "week_offset"]).aggregate(
            [("cohort_us", "count")]
        )

    out = (
        joined.map_batches(cohort_partial, batch_format="pyarrow")
        .groupby(["cohort_us", "week_offset"])
        .aggregate(Sum("cohort_us_count", alias_name="n_users"))
        .to_pandas()
    )
    out["cohort_week"] = out["cohort_us"].astype("datetime64[us]")
    return _finish(out, ["cohort_week", "week_offset"], ints=["n_users"],
                   cols=["cohort_week", "week_offset", "n_users"])


def q_cube_agg(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(returnflag, linestatus): the rollup grid plus the
    per-linestatus marginal.  Same shape as q_rollup — one
    partial-aggregated pass builds the leaf grid; all three
    super-aggregate levels roll up from that keys×blocks grid
    driver-side, no second scan."""
    return _qty_grouping_sets(sf_dir, ["l_returnflag", "l_linestatus"])


def q_interval_coverage(sf_dir: str, window_minutes: int = 5) -> pd.DataFrame:
    """Interval-union coverage (gaps-and-islands): per user, the total
    covered time of the union of [ts, ts + window) activity intervals —
    uniform width makes the union length Σ min(next_start − start, W)
    plus W for each user's last event, so one sort + one diff + one
    reduceat per partition computes it exactly (overlaps merge
    implicitly); all arithmetic stays integer microseconds.  Partitioning:
    the user-keyed fused-partition groupby the session/window family uses
    (a user's rows co-locate; the oracle is the classic windowed
    islands query)."""
    n_parts = _fused_parts(sf_dir, "events")
    w_us = np.int64(window_minutes * 60 * 1_000_000)

    def coverage_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        contrib = np.full(len(ts), w_us, dtype=np.int64)
        if len(ts) > 1:
            same = uid[1:] == uid[:-1]
            gap = ts[1:] - ts[:-1]
            contrib[:-1] = np.where(same, np.minimum(gap, w_us), w_us)
        ufirst = np.concatenate(([True], uid[1:] != uid[:-1]))
        starts = np.flatnonzero(ufirst)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "covered_us": pa.array(
                    np.add.reduceat(contrib, starts), pa.int64()
                ),
            }
        )

    ds = _read(sf_dir, "events", ["ts", "user_id"])
    ds = _with_part(ds, "user_id", n_parts)
    out = ds.groupby("part").map_groups(
        coverage_partition, batch_format="pyarrow"
    ).select_columns(["user_id", "covered_us"]).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_tpch_q12(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12 shape (shipping-priority counts by date window): a
    filter + conditional aggregation over the lineitem ⨝ orders hash
    join — per-batch partials split orders into URGENT/HIGH vs other
    priority counts, so only 2-int rows per block reach the combine.
    (The synthetic lineitem has no shipmode/commitdate; the grouping
    dimension here is the shipdate YEAR, keeping the classic
    conditional-count shape.)"""
    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1998-01-01")

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        lambda b: b.filter(
            pc.and_(pc.greater_equal(b["l_shipdate"], lo),
                    pc.less(b["l_shipdate"], hi))
        ),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=_join_partitions(sf_dir, "orders", "lineitem"),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"ship_year": pa.array([], pa.int64()),
                             "high_sum": pa.array([], pa.int64()),
                             "low_sum": pa.array([], pa.int64())})
        yr = pc.year(batch["l_shipdate"])
        pri = batch["o_orderpriority"]
        hi_m = pc.or_(pc.equal(pri, "1-URGENT"), pc.equal(pri, "2-HIGH"))
        t = pa.table({
            "ship_year": pc.cast(yr, pa.int64()),
            "high": pc.cast(hi_m, pa.int64()),
            "low": pc.cast(pc.invert(hi_m), pa.int64()),
        })
        return t.group_by(["ship_year"]).aggregate([("high", "sum"), ("low", "sum")])

    out = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("ship_year")
        .aggregate(Sum("high_sum", alias_name="high_line_count"),
                   Sum("low_sum", alias_name="low_line_count"))
        .to_pandas()
    )
    return _finish(out, "ship_year", ints=["high_line_count", "low_line_count"])


def q_event_transitions(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Clickstream transition counts (the first-order Markov chain of
    event types): per user, consecutive-event (from_type, to_type)
    pairs ordered by (ts, event_id), counted corpus-wide — top-k by
    (count desc, pair asc).  Same fused user partitioning as
    sessionize: one sort + shift per partition emits pair partials, the
    pair groupby is |types|²-bounded."""
    out = _transition_counts(sf_dir).sort_values(
        ["n", "from_type", "to_type"], ascending=[False, True, True]
    ).head(k)
    return out.reset_index(drop=True)


def _transition_counts(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide (from_type, to_type, n) counts of consecutive events
    per user, ordered by (ts, event_id): one sort + shift per fused user
    partition emits pair partials, the pair groupby is |types|²-bounded."""
    n_parts = _fused_parts(sf_dir, "events")

    def trans_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        order = np.lexsort((eid, ts, uid))
        et = et.take(pa.array(order))
        uid = uid[order]
        if len(uid) < 2:
            return pa.table({"from_type": pa.array([], pa.string()),
                             "to_type": pa.array([], pa.string()),
                             "from_type_count": pa.array([], pa.int64())})
        same = pa.array(uid[1:] == uid[:-1])
        a = et.slice(0, len(et) - 1).filter(same)
        b = et.slice(1).filter(same)
        return pa.table({"from_type": a, "to_type": b}).group_by(
            ["from_type", "to_type"]
        ).aggregate([("from_type", "count")])

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    ds = _with_part(ds, "user_id", n_parts)
    out = (
        ds.groupby("part")
        .map_groups(trans_partition, batch_format="pyarrow")
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("from_type_count", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    return out


def q_tpch_q18(sf_dir: str, qty_threshold: float = 250.0,
               k: int = 100) -> pd.DataFrame:
    """TPC-H Q18 shape (large-volume customers): the groupby-HAVING
    semi join.  Pass 1: lineitem groups per orderkey with per-batch
    partial sums (the one all-to-all); orders whose total quantity
    exceeds the threshold form a SMALL key set that broadcasts back as
    a semi-join filter on orders; customer names enrich post-limit.
    Revenue-free, all-integer-free floats only in sum_qty (rounded 4)."""
    qty = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(
            lambda b: b.group_by(["l_orderkey"]).aggregate([("l_quantity", "sum")]),
            batch_format="pyarrow",
        )
        .groupby("l_orderkey")
        .aggregate(Sum("l_quantity_sum", alias_name="sum_qty"))
    )

    def big_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch["sum_qty"], qty_threshold)
        )

    big = qty.map_batches(big_filter, batch_format="pyarrow").to_pandas()
    if big.empty:
        return pd.DataFrame({
            "c_name": pd.Series([], dtype=object),
            "c_custkey": pd.Series([], dtype="int64"),
            "o_orderkey": pd.Series([], dtype="int64"),
            "o_totalprice": pd.Series([], dtype="float64"),
            "sum_qty": pd.Series([], dtype="float64"),
        })
    keys = np.sort(big["l_orderkey"].to_numpy(np.int64))
    keys_ref = ray.put(keys)

    def orders_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ks, ok)
        return batch.filter(pa.array(hit))

    orders = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(orders_filter, batch_format="pyarrow")
        .to_pandas()
    )
    out = orders.merge(
        big.rename(columns={"l_orderkey": "o_orderkey"}), on="o_orderkey"
    )
    out["sum_qty"] = out["sum_qty"].round(4)
    out["o_totalprice"] = out["o_totalprice"].round(4)
    out = out.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(k)

    ck = np.sort(out["o_custkey"].unique().astype(np.int64))
    ck_ref = ray.put(ck)

    def cust_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(ck_ref)
        cc = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ks, cc)
        return batch.filter(pa.array(hit))

    cust = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(cust_filter, batch_format="pyarrow")
        .to_pandas()
    )
    out = out.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = out.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).reset_index(drop=True)
    return out[["c_name", "c_custkey", "o_orderkey", "o_totalprice",
                "sum_qty"]]


def q_grouped_distinct(sf_dir: str) -> pd.DataFrame:
    """Exact COUNT(DISTINCT user_id) per event type without shuffling
    raw events twice: per-batch (type, user) dedupe partials collapse
    into one pair groupby (pair-count-bounded), then counting rows per
    type is a second, tiny aggregation — the exact two-level shape whose
    approximate sibling is the HLL sketch in stages/sketches.py."""

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = pa.table({
            "event_type": batch["event_type"],
            "user_id": pc.cast(batch["user_id"], pa.int64()),
        }).group_by(["event_type", "user_id"]).aggregate([])
        return g

    pairs = (
        _read(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .count()
        .select_columns(["event_type", "user_id"])
    )
    out = (
        pairs.groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
        .to_pandas()
    )
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def q_time_weighted_avg(sf_dir: str) -> pd.DataFrame:
    """Per-user time-weighted average of ``value`` (left-constant step
    interpolation — the metric a monitoring system reports for an
    irregularly-sampled gauge): twa = Σ valueᵢ·(tᵢ₊₁−tᵢ) / (t_n − t_1),
    users with zero span skipped.  Same fused user partitioning as
    sessionize: one sort + diff + reduceat per partition; products
    accumulate in time order so the per-user sum is deterministic."""
    n_parts = _fused_parts(sf_dir, "events")

    def twa_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        prod = np.zeros(len(ts))
        if len(ts) > 1:
            same = uid[1:] == uid[:-1]
            prod[:-1] = np.where(same, val[:-1] * (ts[1:] - ts[:-1]), 0.0)
        ufirst = np.concatenate(([True], uid[1:] != uid[:-1]))
        starts = np.flatnonzero(ufirst)
        numer = np.add.reduceat(prod, starts)
        span = (np.maximum.reduceat(ts, starts)
                - np.minimum.reduceat(ts, starts))
        keep = span > 0
        return pa.table(
            {
                "user_id": pa.array(uid[starts][keep], pa.int64()),
                "twa_value": pa.array(
                    np.round(numer[keep] / span[keep], 6), pa.float64()
                ),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    ds = _with_part(ds, "user_id", n_parts)
    out = ds.groupby("part").map_groups(
        twa_partition, batch_format="pyarrow"
    ).select_columns(["user_id", "twa_value"]).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_covisitation(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Item-item co-visitation counts (the "users who touched X also
    touched Y" recommender primitive): items are the ``k`` prop of each
    event; count users whose DISTINCT item sets contain both ends of a
    pair, report the top-k pairs (count desc, pair asc).

    Shape: scan-side JSON extraction (the props string never leaves the
    read task) -> per-batch (user, item) dedupe partials -> one pair
    groupby dedupes globally -> fused user-partition pair fan-out
    (quadratic only in each user's DISTINCT item count — the
    term_cooccur band contract, with the item universe as the band) ->
    pair-count groupby -> tiny top-k."""
    n_parts = _fused_parts(sf_dir, "events")

    def extract_dedupe(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>\d+)')
        item = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "item": item,
        }).group_by(["user_id", "item"]).aggregate([])

    ui = (
        _read(sf_dir, "events", ["user_id", "props"])
        .map_batches(extract_dedupe, batch_format="pyarrow")
        .groupby(["user_id", "item"])
        .count()
        .select_columns(["user_id", "item"])
    )

    def pairs_partition(group: pa.Table) -> pa.Table:
        df = group.select(["user_id", "item"]).to_pandas().sort_values(
            ["user_id", "item"]
        )
        a_o, b_o = [], []
        for _, items in df.groupby("user_id", sort=False)["item"]:
            for a, b in itertools.combinations(items.tolist(), 2):
                a_o.append(a)
                b_o.append(b)
        if not a_o:
            return pa.table({"i1": pa.array([], pa.int64()),
                             "i2": pa.array([], pa.int64()),
                             "i1_count": pa.array([], pa.int64())})
        return pa.table({
            "i1": pa.array(a_o, pa.int64()),
            "i2": pa.array(b_o, pa.int64()),
        }).group_by(["i1", "i2"]).aggregate([("i1", "count")])

    ui = _with_part(ui, "user_id", n_parts)
    out = (
        ui.groupby("part")
        .map_groups(pairs_partition, batch_format="pyarrow")
        .groupby(["i1", "i2"])
        .aggregate(Sum("i1_count", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["n", "i1", "i2"],
                          ascending=[False, True, True]).head(k)
    return out.reset_index(drop=True)


def q_tpch_q13(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 (customer order-count distribution): LEFT-join semantics
    without the outer join — orders are filtered and partial-counted per
    custkey, the per-customer counts fold into a count-of-counts
    histogram, and the zero bucket is customers − customers-with-orders
    (exact because the probe batches semi-filter o_custkey against the
    broadcast customer key set first, so phantom keys can't inflate a
    bucket).  Both exchanges ship bounded partials: (custkey, n) rows,
    then (c_count, custdist) rows."""
    cust_keys = np.sort(
        _read(sf_dir, "customer", ["c_custkey"])
        .to_pandas()["c_custkey"].to_numpy(np.int64)
    )
    n_customers = int(cust_keys.size)
    keys_ref = ray.put(cust_keys)

    def count_partial(batch: pa.Table) -> pa.Table:
        pri = batch["o_orderpriority"]
        keep = pc.not_equal(pri, "1-URGENT")
        ck = pc.filter(batch["o_custkey"], keep).to_numpy(
            zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ray.get(keys_ref), ck)
        ck = ck[hit]
        if ck.size == 0:
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        u, c = np.unique(ck, return_counts=True)
        return pa.table({"c_custkey": pa.array(u, pa.int64()),
                         "n": pa.array(c, pa.int64())})

    per_cust = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Sum("n", alias_name="c_count"))
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        n = batch["c_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(n, return_counts=True)
        return pa.table({"c_count": pa.array(u, pa.int64()),
                         "custdist": pa.array(c, pa.int64())})

    out = (
        per_cust.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("custdist", alias_name="custdist"))
        .to_pandas()
    )
    out["c_count"] = out["c_count"].astype("int64")
    out["custdist"] = out["custdist"].astype("int64")
    n_with = int(out["custdist"].sum())
    zero = pd.DataFrame({"c_count": [0], "custdist": [n_customers - n_with]})
    out = pd.concat([out, zero], ignore_index=True)
    out = out[out["custdist"] > 0]
    return out.sort_values(["custdist", "c_count"],
                           ascending=[False, False]).reset_index(drop=True)


def q_tpch_q14(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 (promo revenue share) per ship-YEAR: lineitem probes the
    broadcast part→is-PROMO bitmap (searchsorted, shipped once via
    ray.put), per-batch partials carry (year, promo_rev, total_rev) and
    the ratio is taken once on the bounded combine.  Revenue sums are
    rounded to 4 dp before the ratio so the Ray-vs-DuckDB hash ignores
    summation order."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    ref = _keyed_side(part, "p_partkey", part["p_type"].to_numpy() == "PROMO")

    def partial(batch: pa.Table) -> pa.Table:
        pk, isp = ray.get(ref)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, idx = _sorted_lookup(pk, lk)
        rev = (
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
        )
        yr = pc.year(batch["l_shipdate"]).to_numpy(zero_copy_only=False)
        yr = yr[hit].astype(np.int64)
        rev = rev[hit]
        pm = isp[idx[hit]]
        return pa.table({
            "ship_year": pa.array(yr, pa.int64()),
            "promo": pa.array(np.where(pm, rev, 0.0), pa.float64()),
            "total": pa.array(rev, pa.float64()),
        })

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])
    out = _partial_agg(li, "ship_year", {
        "promo_rev": ("promo", "sum"), "total_rev": ("total", "sum"),
    }, partial)
    out = _finish(out, "ship_year", r4=["promo_rev", "total_rev"])
    out["promo_share"] = (100.0 * out["promo_rev"] / out["total_rev"]).round(6)
    return out


def q_tpch_q17(sf_dir: str, brand: str = "Brand#21") -> pd.DataFrame:
    """TPC-H Q17 (small-quantity-order revenue): avg yearly revenue lost
    if sub-20%-of-average-quantity orders for one brand's parts stopped.
    Pass 1 partial-counts (sum_qty, n) per partkey over the brand's parts
    only; the per-part threshold ships back as a broadcast array and the
    comparison `l_quantity < 0.2 * avg` is evaluated in INTEGERS
    (5·q·n < sum_qty — l_quantity is integer-valued in this corpus), so
    the boundary can't flip on float-summation order; the oracle states
    the same integer inequality."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    bkeys = np.sort(
        part.loc[part["p_brand"] == brand, "p_partkey"].to_numpy(np.int64)
    )
    bref = ray.put(bkeys)

    def qty_partial(batch: pa.Table) -> pa.Table:
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ray.get(bref), lk)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)[hit]
        lk = lk[hit]
        if lk.size == 0:
            return pa.table({"p": pa.array([], pa.int64()),
                             "sq": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        u, inv, cnt = np.unique(lk, return_inverse=True, return_counts=True)
        sq = np.bincount(inv, weights=q).astype(np.int64)
        return pa.table({"p": pa.array(u, pa.int64()),
                         "sq": pa.array(sq, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])
    stats = (
        li.map_batches(qty_partial, batch_format="pyarrow")
        .groupby("p")
        .aggregate(Sum("sq", alias_name="sq"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    if stats.empty:  # no line of the brand: the sum over no rows is 0.0
        return pd.DataFrame({"avg_yearly": [0.0]})
    thr_ref = _keyed_side(stats, "p", "sq", "n")

    def rev_partial(batch: pa.Table) -> pa.Table:
        pks, sq, nn = ray.get(thr_ref)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, idx = _sorted_lookup(pks, lk)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        small = hit & (5 * q * nn[idx] < sq[idx])
        s = float(batch["l_extendedprice"]
                  .to_numpy(zero_copy_only=False)[small].sum())
        return pa.table({"s": pa.array([s], pa.float64())})

    tot = sum(
        t["s"].to_numpy(zero_copy_only=False).sum()
        for t in ray.get(
            li.map_batches(rev_partial, batch_format="pyarrow")
            .to_arrow_refs())
        if t.num_rows
    )
    return pd.DataFrame({"avg_yearly": [round(float(tot) / 7.0, 4)]})


def q_assoc_rules(sf_dir: str, k: int = 20, min_count: int = 2) -> pd.DataFrame:
    """Market-basket association rules over the event item sets
    (baskets = a user's DISTINCT `k`-prop items): pair supports ride the
    co-visitation shape (fused per-user-partition fan-out), item supports
    one (item, users) groupby, and support/confidence/lift are exact
    rationals of those integer counts (rounded 6 dp only at the end).
    Top-k by lift — the rule-mining ordering that surfaces rare-but-
    correlated items rather than the globally popular ones."""
    n_parts = _fused_parts(sf_dir, "events")

    def extract_dedupe(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>\d+)')
        item = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "item": item,
        }).group_by(["user_id", "item"]).aggregate([])

    ui = (
        _read(sf_dir, "events", ["user_id", "props"])
        .map_batches(extract_dedupe, batch_format="pyarrow")
        .groupby(["user_id", "item"])
        .count()
        .select_columns(["user_id", "item"])
        .materialize()
    )
    item_n = (
        ui.groupby("item").aggregate(Count(alias_name="n_item")).to_pandas()
    )
    n_users = int(
        ui.groupby("user_id").aggregate(Count()).count()
    )

    def pairs_partition(group: pa.Table) -> pa.Table:
        df = group.select(["user_id", "item"]).to_pandas().sort_values(
            ["user_id", "item"]
        )
        a_o, b_o = [], []
        for _, items in df.groupby("user_id", sort=False)["item"]:
            for a, b in itertools.combinations(items.tolist(), 2):
                a_o.append(a)
                b_o.append(b)
        if not a_o:
            return pa.table({"i1": pa.array([], pa.int64()),
                             "i2": pa.array([], pa.int64()),
                             "i1_count": pa.array([], pa.int64())})
        return pa.table({
            "i1": pa.array(a_o, pa.int64()),
            "i2": pa.array(b_o, pa.int64()),
        }).group_by(["i1", "i2"]).aggregate([("i1", "count")])

    pairs = (
        _with_part(ui, "user_id", n_parts)
        .groupby("part")
        .map_groups(pairs_partition, batch_format="pyarrow")
        .groupby(["i1", "i2"])
        .aggregate(Sum("i1_count", alias_name="n_pair"))
        .to_pandas()
    )
    pairs["n_pair"] = pairs["n_pair"].astype("int64")
    pairs = pairs[pairs["n_pair"] >= min_count]
    lk = item_n.set_index("item")["n_item"].astype("int64")
    pairs["n_i1"] = pairs["i1"].map(lk).astype("int64")
    pairs["n_i2"] = pairs["i2"].map(lk).astype("int64")
    pairs["support"] = (pairs["n_pair"] / n_users).round(6)
    pairs["conf_12"] = (pairs["n_pair"] / pairs["n_i1"]).round(6)
    pairs["conf_21"] = (pairs["n_pair"] / pairs["n_i2"]).round(6)
    pairs["lift"] = (
        pairs["n_pair"] * n_users / (pairs["n_i1"] * pairs["n_i2"])
    ).round(6)
    out = pairs.sort_values(["lift", "i1", "i2"],
                            ascending=[False, True, True]).head(k)
    return out.reset_index(drop=True)


def q_gini_by_source(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of document length (n_chars) per source — the
    inequality statistic a data card reports next to volume.  Exact from
    the per-(source, value) HISTOGRAM, not a per-group sort: tied ranks
    collapse to c·C_prev + c(c+1)/2 per value run, all in int64, so the
    only shuffle ships (source, n_chars) partials — scale-safe where a
    per-source map_groups sort would hold a whole source in one task.
    Gini = 2·S/(n·T) − (n+1)/n with S = Σ v·(rank-sum of its run)."""

    def hist_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"source": batch["source"],
                      "v": pc.cast(batch["n_chars"], pa.int64())})
        return t.group_by(["source", "v"]).aggregate([("v", "count")])

    hist = (
        _read(sf_dir, "documents", ["source", "n_chars"])
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["source", "v"])
        .aggregate(Sum("v_count", alias_name="c"))
        .to_pandas()
    )
    hist = hist.sort_values(["source", "v"])
    for c in ["v", "c"]:
        hist[c] = hist[c].astype("int64")
    out = []
    for src, g in hist.groupby("source", sort=True):
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cp = np.concatenate([[0], np.cumsum(c)[:-1]])
        s = int((v * (c * cp + c * (c + 1) // 2)).sum())
        t = int((v * c).sum())
        n = int(c.sum())
        out.append({"source": src, "n_docs": n,
                    "gini": round(2.0 * s / (n * t) - (n + 1.0) / n, 6)})
    return pd.DataFrame(out)


def q_zscore_outliers(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Per-event-type z-score anomaly detection: pass 1 folds (Σv, Σv²,
    n) partials per event_type into population mean/std (the corr_stats
    moment shape); pass 2 broadcasts the 5-row moment table and each
    batch keeps only its local top-k by |z| — the driver merge sees
    ≤ k·blocks candidate rows, never the stream.  Top-k by (|z| desc,
    event_id asc) on the 6-dp-rounded score."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def moment_partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "event_type": batch["event_type"],
            "s1": pa.array(v, pa.float64()),
            "s2": pa.array(v * v, pa.float64()),
            "n": pa.array(np.ones(v.size, dtype=np.int64), pa.int64()),
        })
        return t.group_by(["event_type"]).aggregate(
            [("s1", "sum"), ("s2", "sum"), ("n", "sum")]
        )

    mom = (
        ds.map_batches(moment_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("s1_sum", alias_name="s1"), Sum("s2_sum", alias_name="s2"),
                   Sum("n_sum", alias_name="n"))
        .to_pandas()
    )
    types = mom["event_type"].to_numpy()
    order = np.argsort(types)
    types = types[order]
    mean = (mom["s1"] / mom["n"]).to_numpy()[order]
    std = np.sqrt((mom["s2"] / mom["n"]).to_numpy()[order] - mean * mean)
    ref = ray.put((types, mean, std))

    def topk_partial(batch: pa.Table) -> pa.Table:
        ts, mu, sd = ray.get(ref)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ts, et)
        v = batch["value"].to_numpy(zero_copy_only=False)
        z = np.round((v - mu[idx]) / sd[idx], 6)
        az = np.abs(z)
        eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # local top-k by (|z| desc, event_id asc)
        sel = np.lexsort((eid, -az))[:k]
        return pa.table({
            "event_id": pa.array(eid[sel], pa.int64()),
            "event_type": pa.array(et[sel]),
            "value": pa.array(np.round(v[sel], 6), pa.float64()),
            "z": pa.array(z[sel], pa.float64()),
        })

    cand = ds.map_batches(topk_partial, batch_format="pyarrow").to_pandas()
    cand["az"] = cand["z"].abs()
    out = cand.sort_values(["az", "event_id"],
                           ascending=[False, True]).head(k)
    return out.drop(columns=["az"]).reset_index(drop=True)


def q_tpch_q15(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 (top supplier view): per-supplier revenue over one
    ship-date quarter folded from per-batch partials, then the
    max-equality filter — suppliers whose 4-dp-rounded revenue equals
    the maximum (the tie-keeping semantics of the original's view +
    subquery, which a plain top-1 LIMIT would break)."""
    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-04-01")

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                       pc.less(batch["l_shipdate"], hi))
        b = batch.filter(keep)
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = pa.table({"l_suppkey": b["l_suppkey"], "revenue": rev})
        return t.group_by(["l_suppkey"]).aggregate([("revenue", "sum")])

    rev = (
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("revenue_sum", alias_name="revenue"))
        .to_pandas()
    )
    rev["revenue"] = rev["revenue"].round(4)
    top = rev[rev["revenue"] == rev["revenue"].max()].copy()
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = top.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out = out[["s_suppkey", "s_name", "revenue"]]
    out["s_suppkey"] = out["s_suppkey"].astype("int64")
    return out.sort_values("s_suppkey").reset_index(drop=True)


def q_tpch_q22(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 shape (global-sales-opportunity): customers with
    above-average positive balance and NO *urgent* orders, grouped by
    market segment (the synthetic schema's stand-in for cntrycode; the
    urgency restriction keeps the anti join non-trivial — every
    synthetic customer has at least one order).  The above-average
    threshold is ONE scalar from a moment partial pass; the no-orders
    test is a broadcast anti join against the distinct urgent o_custkey
    set (distinct-folded per batch before the driver sees it).  acctbal
    sums round to 4 dp."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"])

    def avg_partial(batch: pa.Table) -> pa.Table:
        v = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        pos = v[v > 0.0]
        return pa.table({"s": pa.array([float(pos.sum())], pa.float64()),
                         "n": pa.array([int(pos.size)], pa.int64())})

    parts = cust.map_batches(avg_partial, batch_format="pyarrow").to_pandas()
    # round the threshold to 4 dp so Ray and the oracle compare against
    # the SAME double (unrounded, the two engines' avg differs in ulps
    # and a balance at the boundary could flip sides)
    thr = round(float(parts["s"].sum()) / int(parts["n"].sum()), 4)

    def ck_partial(batch: pa.Table) -> pa.Table:
        urgent = pc.equal(batch["o_orderpriority"], "1-URGENT")
        u = np.unique(
            pc.filter(batch["o_custkey"], urgent)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table({"o_custkey": pa.array(u, pa.int64())})

    have_orders = np.sort(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(ck_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .count()
        .to_pandas()["o_custkey"].to_numpy(np.int64)
    )
    oref = ray.put(have_orders)

    def pick(batch: pa.Table) -> pa.Table:
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ray.get(oref), ck)
        keep = (bal > thr) & ~hit
        t = pa.table({
            "c_mktsegment": pc.filter(batch["c_mktsegment"],
                                      pa.array(keep)),
            "numcust": pa.array(np.ones(int(keep.sum()), np.int64),
                                pa.int64()),
            "totacctbal": pa.array(bal[keep], pa.float64()),
        })
        return t.group_by(["c_mktsegment"]).aggregate(
            [("numcust", "sum"), ("totacctbal", "sum")]
        )

    out = (
        cust.map_batches(pick, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Sum("numcust_sum", alias_name="numcust"),
                   Sum("totacctbal_sum", alias_name="totacctbal"))
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"c_mktsegment": pd.Series([], dtype=str),
                             "numcust": pd.Series([], dtype="int64"),
                             "totacctbal": pd.Series([], dtype="float64")})
    return _finish(out, "c_mktsegment", ints=["numcust"], r4=["totacctbal"])


def q_event_trigrams(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Third-order clickstream sequences: per user, CONSECUTIVE
    (t1, t2, t3) event-type triples ordered by (ts, event_id), counted
    corpus-wide — top-k by (count desc, triple asc).  Linear per user
    (unlike item-set triples, which are cubic), so the fused user
    partition emits ≤ |events| triple partials and the final groupby is
    |types|³-bounded."""
    n_parts = _fused_parts(sf_dir, "events")

    def tri_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        order = np.lexsort((eid, ts, uid))
        et = et.take(pa.array(order))
        uid = uid[order]
        if len(uid) < 3:
            return pa.table({"t1": pa.array([], pa.string()),
                             "t2": pa.array([], pa.string()),
                             "t3": pa.array([], pa.string()),
                             "t1_count": pa.array([], pa.int64())})
        same = pa.array((uid[2:] == uid[:-2]) & (uid[2:] == uid[1:-1]))
        a = et.slice(0, len(et) - 2).filter(same)
        b = et.slice(1, len(et) - 2).filter(same)
        c = et.slice(2).filter(same)
        return pa.table({"t1": a, "t2": b, "t3": c}).group_by(
            ["t1", "t2", "t3"]
        ).aggregate([("t1", "count")])

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    ds = _with_part(ds, "user_id", n_parts)
    out = (
        ds.groupby("part")
        .map_groups(tri_partition, batch_format="pyarrow")
        .groupby(["t1", "t2", "t3"])
        .aggregate(Sum("t1_count", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["n", "t1", "t2", "t3"],
                          ascending=[False, True, True, True]).head(k)
    return out.reset_index(drop=True)


def q_daily_autocorr(sf_dir: str) -> pd.DataFrame:
    """Lag-1 autocorrelation of the daily event-count series: day
    buckets are integer epoch-days (floor division, no timezone), the
    per-day counts fold from per-batch partials, and the Pearson r over
    strictly-consecutive calendar-day pairs is computed from EXACT
    integer moment sums — one float expression at the end, stated
    identically in the oracle."""

    def day_partial(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[us]").astype(np.int64) // 86_400_000_000)
        u, c = np.unique(d, return_counts=True)
        return pa.table({"day": pa.array(u, pa.int64()),
                         "n": pa.array(c, pa.int64())})

    daily = (
        _read(sf_dir, "events", ["ts"])
        .map_batches(day_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("day")
    )
    day = daily["day"].to_numpy(np.int64)
    cnt = daily["n"].to_numpy(np.int64)
    nxt = np.searchsorted(day, day + 1)
    nxt[nxt == day.size] = 0
    ok = day[nxt] == day + 1
    x = cnt[ok].astype(object)           # python-int exact sums
    y = cnt[nxt[ok]].astype(object)
    n = int(ok.sum())
    if n < 2:
        return pd.DataFrame({"n_pairs": [n], "autocorr": [float("nan")]})
    sx, sy = int(x.sum()), int(y.sum())
    sxx, syy, sxy = int((x * x).sum()), int((y * y).sum()), int((x * y).sum())
    num = n * sxy - sx * sy
    den = math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    return pd.DataFrame({"n_pairs": [n],
                         "autocorr": [round(num / den, 6)]})


def q_chi2_independence(sf_dir: str) -> pd.DataFrame:
    """Chi-square contingency cells for market segment × order
    priority: the observed counts fold from per-batch partials over the
    broadcast customer→segment join (the broadcast_join idiom); row and
    column totals come off the 25-cell table on the driver, expected
    counts are exact integer ratios (r·c as int, one division) and the
    per-cell contribution (o−e)²/e is the same double expression the
    oracle states.  Cells ordered (segment, priority)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    sg, seg_codes = np.unique(cust["c_mktsegment"], return_inverse=True)
    ref = _keyed_side(cust, "c_custkey", seg_codes)

    def cell_partial(batch: pa.Table) -> pa.Table:
        ks, codes = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, idx = _sorted_lookup(ks, ck)
        t = pa.table({
            "c_mktsegment": pa.array(sg[codes[idx[hit]]]),
            "o_orderpriority": pc.filter(batch["o_orderpriority"],
                                         pa.array(hit)),
            "observed": pa.array(np.ones(int(hit.sum()), np.int64),
                                 pa.int64()),
        })
        return t.group_by(["c_mktsegment", "o_orderpriority"]).aggregate(
            [("observed", "sum")]
        )

    cells = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(cell_partial, batch_format="pyarrow")
        .groupby(["c_mktsegment", "o_orderpriority"])
        .aggregate(Sum("observed_sum", alias_name="observed"))
        .to_pandas()
    )
    cells["observed"] = cells["observed"].astype("int64")
    total = int(cells["observed"].sum())
    row = cells.groupby("c_mktsegment")["observed"].sum()
    col = cells.groupby("o_orderpriority")["observed"].sum()
    r = cells["c_mktsegment"].map(row).astype("int64")
    c = cells["o_orderpriority"].map(col).astype("int64")
    e = (r * c).to_numpy(np.int64) / total
    o = cells["observed"].to_numpy(np.int64)
    cells["expected"] = np.round(e, 6)
    cells["contrib"] = np.round((o - e) * (o - e) / e, 6)
    return cells.sort_values(["c_mktsegment", "o_orderpriority"]) \
        .reset_index(drop=True)


def q_tpch_q2(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """TPC-H Q2 shape (min-cost supplier per part — the argmin join):
    for each LARGE-type part, the richest supplier that shipped it
    (max s_acctbal, suppkey asc ties), top-k parts by retail price.
    distinct (part, supp) pairs fold per batch before the one pair
    groupby; supplier balance and part attributes broadcast (both dims
    are small); the argmax itself is a per-part lexsort over the pair
    table — never a self-join.  (The synthetic schema has no partsupp/
    ps_supplycost, so lineitem supplies the part↔supplier relation and
    max-acctbal stands in for min-supplycost; same query shape.)"""
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_type", "p_retailprice", "p_name"]).to_pandas()
    part = part[part["p_type"] == "LARGE"]
    pkeys = np.sort(part["p_partkey"].to_numpy(np.int64))
    pref = ray.put(pkeys)

    def pair_partial(batch: pa.Table) -> pa.Table:
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(ray.get(pref), lk)
        t = pa.table({
            "p": pa.array(lk[hit], pa.int64()),
            "s": pa.array(
                batch["l_suppkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64)[hit], pa.int64()),
        })
        return t.group_by(["p", "s"]).aggregate([])

    pairs = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["p", "s"])
        .count()
        .select_columns(["p", "s"])
        .to_pandas()
    )
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_acctbal"]) \
        .to_pandas()
    m = pairs.merge(sup, left_on="s", right_on="s_suppkey")
    # argmax per part: sort (acctbal desc, suppkey asc), keep first
    m = m.sort_values(["p", "s_acctbal", "s_suppkey"],
                      ascending=[True, False, True])
    best = m.drop_duplicates("p", keep="first")
    out = best.merge(part, left_on="p", right_on="p_partkey")
    out = out[["p_partkey", "p_name", "p_retailprice", "s_suppkey",
               "s_name", "s_acctbal"]].copy()
    out["p_retailprice"] = out["p_retailprice"].round(4)
    out["s_acctbal"] = out["s_acctbal"].round(4)
    out = out.sort_values(["p_retailprice", "p_partkey"],
                          ascending=[False, True]).head(k)
    for c in ["p_partkey", "s_suppkey"]:
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def q_markov_transitions(sf_dir: str) -> pd.DataFrame:
    """Row-normalized clickstream transition matrix: the
    event_transitions pair counts divided by each from-state's outgoing
    total — reported as FLOOR(10⁶·n/out) integer ppm (the transition
    counts divide small integers, whose exact 1e-6 halves round
    differently across engines; integer division is engine-exact).
    All |types|² cells, ordered (from, to)."""
    out = _transition_counts(sf_dir)
    tot = out.groupby("from_type")["n"].sum()
    out["out_total"] = out["from_type"].map(tot).astype("int64")
    out["prob_ppm"] = (1_000_000 * out["n"]) // out["out_total"]
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def q_trend_slope(sf_dir: str) -> pd.DataFrame:
    """Linear trend of the daily event-count series per event type:
    slope and intercept of the least-squares line count ~ epoch-day,
    from EXACT integer moment sums (day indexes and counts are ints;
    the two closing divisions are the only floats, stated identically
    in the oracle).  One (type, day) groupby of per-batch partials."""

    def day_partial(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[us]").astype(np.int64) // 86_400_000_000)
        t = pa.table({
            "event_type": batch["event_type"],
            "day": pa.array(d, pa.int64()),
            "n": pa.array(np.ones(d.size, np.int64), pa.int64()),
        })
        return t.group_by(["event_type", "day"]).aggregate([("n", "sum")])

    daily = (
        _read(sf_dir, "events", ["ts", "event_type"])
        .map_batches(day_partial, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_sum", alias_name="n"))
        .to_pandas()
    )
    rows = []
    for et, g in daily.groupby("event_type", sort=True):
        x = g["day"].to_numpy(np.int64).astype(object)
        y = g["n"].to_numpy(np.int64).astype(object)
        n = len(g)
        sx, sy = int(x.sum()), int(y.sum())
        sxx, sxy = int((x * x).sum()), int((x * y).sum())
        den = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / den
        intercept = (sy - (n * sxy - sx * sy) / den * sx) / n
        rows.append({"event_type": et, "n_days": n,
                     "slope": round(slope, 6),
                     "intercept": round(intercept, 6)})
    return pd.DataFrame(rows)


# Benford first-digit expectation, FLOOR(1e6·log10(1+1/d)) ppm — literal
# constants (NOT computed at runtime) so neither engine's libm log10
# enters the comparison.
_BENFORD_PPM = {1: 301029, 2: 176091, 3: 124938, 4: 96910, 5: 79181,
                6: 66946, 7: 57991, 8: 51152, 9: 45757}


def q_benford_prices(sf_dir: str) -> pd.DataFrame:
    """Benford's-law audit of order totals: observed first-digit counts
    of FLOOR(o_totalprice) vs the Benford expectation.  The leading
    digit comes from exact integer division (repeated //10 — never a
    float log10), expectation ppm are shared literals, and the observed
    share is FLOOR(10⁶·n/total) integer ppm — the whole result is
    integer-exact across engines."""

    def digit_partial(batch: pa.Table) -> pa.Table:
        v = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        while (v >= 10).any():
            m = v >= 10
            v[m] //= 10
        u, c = np.unique(v, return_counts=True)
        return pa.table({"digit": pa.array(u, pa.int64()),
                         "observed": pa.array(c, pa.int64())})

    out = (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(digit_partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("observed", alias_name="observed"))
        .to_pandas()
    )
    out["observed"] = out["observed"].astype("int64")
    out["digit"] = out["digit"].astype("int64")
    total = int(out["observed"].sum())
    out["observed_ppm"] = (1_000_000 * out["observed"]) // total
    out["benford_ppm"] = out["digit"].map(_BENFORD_PPM).astype("int64")
    out["excess_ppm"] = out["observed_ppm"] - out["benford_ppm"]
    return out.sort_values("digit").reset_index(drop=True)


def q_rfm_scores(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """RFM customer scoring: recency (days since last order, against
    the corpus max date), frequency (order count) and monetary (total
    spend) fold from per-batch per-custkey partials; fixed literal
    thresholds bucket each axis 1-3 (literals, not quantiles, so the
    buckets are integer-exact and the oracle states the same CASE
    ladder); rfm = 100r + 10f + m.  Top-k by (monetary desc, custkey).
    Recency days are exact integer µs division."""

    def partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
             .astype("datetime64[us]").astype(np.int64))
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(ck, return_inverse=True)
        last = np.full(u.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(last, inv, d)
        return pa.table({
            "c_custkey": pa.array(u, pa.int64()),
            "last_us": pa.array(last, pa.int64()),
            "n_orders": pa.array(np.bincount(inv), pa.int64()),
            "spend": pa.array(np.bincount(inv, weights=p), pa.float64()),
        })

    agg = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Max("last_us", alias_name="last_us"),
                   Sum("n_orders", alias_name="n_orders"),
                   Sum("spend", alias_name="spend"))
        .to_pandas()
    )
    max_us = int(agg["last_us"].max())
    rec = (max_us - agg["last_us"].astype("int64")) // 86_400_000_000
    freq = agg["n_orders"].astype("int64")
    mon = agg["spend"].round(4)
    r = np.where(rec < 365, 3, np.where(rec < 1095, 2, 1))
    f = np.where(freq >= 15, 3, np.where(freq >= 8, 2, 1))
    m = np.where(mon >= 3_000_000.0, 3, np.where(mon >= 1_500_000.0, 2, 1))
    out = pd.DataFrame({
        "c_custkey": agg["c_custkey"].astype("int64"),
        "recency_days": rec.astype("int64"),
        "frequency": freq,
        "monetary": mon,
        "rfm": (100 * r + 10 * f + m).astype("int64"),
    })
    out = out.sort_values(["monetary", "c_custkey"],
                          ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def q_tpch_q4(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 shape (order-priority checking — the EXISTS semi join):
    count orders per priority that have at least one LATE line
    (l_shipdate > o_orderdate + 60 days; the synthetic lineitem has no
    commitdate, so lateness is relative to the order date).  The order
    dates broadcast once as a sorted (orderkey → date) array; lineitem
    batches emit DISTINCT late orderkeys (per-batch dedupe), one
    orderkey groupby dedupes globally, and the late-key set broadcasts
    back as the semi filter on orders — both directions ship keys, not
    rows."""
    odf = _read(sf_dir, "orders",
                ["o_orderkey", "o_orderdate", "o_orderpriority"]).to_pandas()
    ref = _keyed_side(odf, "o_orderkey", odf["o_orderdate"].to_numpy(
        "datetime64[us]").astype(np.int64))
    late_us = 60 * 86_400_000_000

    def late_partial(batch: pa.Table) -> pa.Table:
        ks, ds_ = ray.get(ref)
        lk = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sd = (batch["l_shipdate"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        hit, idx = _sorted_lookup(ks, lk)
        late = hit & (sd > ds_[idx] + late_us)
        u = np.unique(lk[late])
        return pa.table({"o_orderkey": pa.array(u, pa.int64())})

    late_keys = np.sort(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
        .map_batches(late_partial, batch_format="pyarrow")
        .groupby("o_orderkey")
        .count()
        .to_pandas()["o_orderkey"].to_numpy(np.int64)
    )
    hit, _ = _sorted_lookup(late_keys, odf["o_orderkey"].to_numpy(np.int64))
    out = (odf[hit].groupby("o_orderpriority", as_index=False)
           .agg(order_count=("o_orderkey", "count")))
    return _finish(out, "o_orderpriority", ints=["order_count"])


def q_tpch_q7(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 shape (volume shipping between two nations): revenue by
    (supplier nation, customer nation, ship year) for the ordered nation
    pairs among the first three nations.  Both dimension chains
    (suppkey→nation, orderkey→custkey→nation) broadcast as sorted
    arrays; each lineitem batch resolves both nations, filters the pair
    set, and folds (s_nation, c_nation, year, revenue) partials — the
    fact table never shuffles."""
    nations = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    keep_nations = set(np.sort(nations["n_name"].to_numpy())[:3].tolist())
    refs = [
        _keyed_side(nations, "n_nationkey", "n_name"),
        _keyed_side(_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
                    .to_pandas(), "s_suppkey", "s_nationkey"),
        _keyed_side(_read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
                    .to_pandas(), "c_custkey", "c_nationkey"),
        _keyed_side(_read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
                    .to_pandas(), "o_orderkey", "o_custkey"),
    ]

    def partial(batch: pa.Table) -> pa.Table:
        (nk_, nm_), (sk_, sn_), (ck_, cn_), (ok_, oc_) = ray.get(refs)
        lsk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs, is_ = _sorted_lookup(sk_, lsk)
        ho, io_ = _sorted_lookup(ok_, lok)
        keep = hs & ho
        s_n = nm_[np.searchsorted(nk_, sn_[is_[keep]])]
        custk = oc_[io_[keep]]
        hc, ic_ = _sorted_lookup(ck_, custk)
        c_n = nm_[np.searchsorted(nk_, cn_[ic_[hc]])]
        s_n = s_n[hc]
        rev = (batch["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)))
        rev = rev[keep][hc]
        yr = (pc.year(batch["l_shipdate"]).to_numpy(zero_copy_only=False)
              .astype(np.int64)[keep][hc])
        m = (np.isin(s_n, list(keep_nations))
             & np.isin(c_n, list(keep_nations)) & (s_n != c_n))
        return pa.table({
            "supp_nation": pa.array(s_n[m]),
            "cust_nation": pa.array(c_n[m]),
            "l_year": pa.array(yr[m], pa.int64()),
            "rev": pa.array(rev[m], pa.float64()),
        })

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"])
    keys = ["supp_nation", "cust_nation", "l_year"]
    out = _partial_agg(li, keys, {"revenue": ("rev", "sum")}, partial)
    return _finish(out, keys, r4=["revenue"])


def q_tpch_q11(sf_dir: str, fraction_ppm: int = 600) -> pd.DataFrame:
    """TPC-H Q11 shape (important stock — the global-fraction HAVING):
    per-part value (Σ extendedprice) kept only where it exceeds
    fraction·total corpus value.  Per-batch part partials fold in one
    groupby; the grand total is the sum OF THE ROUNDED per-part values
    (stated identically in the oracle, so the threshold is the same
    double on both sides); the comparison multiplies out the division
    (1e6·value > ppm·total) to avoid a divide."""

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": batch["l_partkey"],
            "value": batch["l_extendedprice"],
        }).group_by(["p_partkey"]).aggregate([("value", "sum")])

    per_part = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("value_sum", alias_name="value"))
        .to_pandas()
    )
    per_part["value"] = per_part["value"].round(4)
    total = float(per_part["value"].sum())
    keep = 1_000_000.0 * per_part["value"] > fraction_ppm * total
    out = per_part[keep].copy()
    out["p_partkey"] = out["p_partkey"].astype("int64")
    return out.sort_values(["value", "p_partkey"],
                           ascending=[False, True]).reset_index(drop=True)


def q_tpch_q19(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19 shape (discounted revenue under DISJUNCTIVE predicate
    triples): revenue over lineitem ⨝ part where ANY of three
    (brand, size-range, quantity-range) clauses matches.  Part
    attributes broadcast once as sorted arrays; each batch evaluates
    the OR of vectorized clause masks — the disjunction never turns
    into three scans."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).to_pandas()
    bn, bcodes = np.unique(part["p_brand"], return_inverse=True)
    ref = _keyed_side(part, "p_partkey", bcodes, "p_size")

    clauses = [("Brand#11", 1, 10, 1.0, 15.0),
               ("Brand#22", 5, 20, 5.0, 25.0),
               ("Brand#33", 10, 30, 10.0, 35.0)]

    def partial(batch: pa.Table) -> pa.Table:
        ks, bc, sz = ray.get(ref)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, idx = _sorted_lookup(ks, lk)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        rev = (batch["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)))
        brand = bn[bc[idx]]
        size = sz[idx]
        m = np.zeros(len(batch), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in clauses:
            m |= ((brand == b) & (size >= s_lo) & (size <= s_hi)
                  & (q >= q_lo) & (q <= q_hi))
        m &= hit
        return pa.table({"s": pa.array([float(rev[m].sum())], pa.float64()),
                         "n": pa.array([int(m.sum())], pa.int64())})

    parts = (
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    return pd.DataFrame({
        "revenue": [round(float(parts["s"].sum()), 4)],
        "n_lines": [int(parts["n"].sum())],
    })


def q_tpch_q8(sf_dir: str, region: str = "ASIA",
              nation: str = "NATION_2") -> pd.DataFrame:
    """TPC-H Q8 shape (national market share): for orders placed by
    customers in one region, the fraction of lineitem revenue supplied
    by one target nation, per order year.  The three dimension chains
    (suppkey→nation name, orderkey→(year, custkey), custkey→in-region)
    broadcast once as sorted arrays; every lineitem batch folds
    (year, target_revenue, total_revenue) partials, so the single scan
    carries both numerator and denominator — no second pass, no fact
    shuffle.  Cf. nadry's SQL-side aggregation in ranker/* (the
    reference has no relational engine; this family documents the Ray
    translation of the shapes its store queries imply)."""
    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    region_nations = nat.loc[nat["n_regionkey"].isin(rkeys), "n_nationkey"]
    target = nat.loc[nat["n_name"] == nation, "n_nationkey"]

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    odf = _read(sf_dir, "orders",
                ["o_orderkey", "o_custkey", "o_orderdate"]).to_pandas()
    refs = [
        _keyed_side(sup, "s_suppkey", sup["s_nationkey"].isin(target).to_numpy()),
        _keyed_side(cust, "c_custkey",
                    cust["c_nationkey"].isin(region_nations).to_numpy()),
        _keyed_side(odf, "o_orderkey", "o_custkey",
                    pd.DatetimeIndex(odf["o_orderdate"]).year.to_numpy(np.int64)),
    ]

    def partial(batch: pa.Table) -> pa.Table:
        (sk_, st_), (ck_, cr_), (ok_, oc_, oy_) = ray.get(refs)
        lsk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs, is_ = _sorted_lookup(sk_, lsk)
        ho, io_ = _sorted_lookup(ok_, lok)
        keep = hs & ho
        hc, ic_ = _sorted_lookup(ck_, oc_[io_[keep]])
        keep2 = hc & cr_[ic_]
        rev = (batch["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)))
        rev = rev[keep][keep2]
        yr = oy_[io_[keep]][keep2]
        tgt = st_[is_[keep]][keep2]
        years, inv = np.unique(yr, return_inverse=True)
        tot = np.bincount(inv, weights=rev)
        num = np.bincount(inv, weights=rev * tgt)
        return pa.table({
            "o_year": pa.array(years, pa.int64()),
            "num": pa.array(num, pa.float64()),
            "den": pa.array(tot, pa.float64()),
        })

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"])
    # the partial rows are already one per year; the group_by only merges
    parts = _partial_agg(li, "o_year", {
        "num": ("num", "sum"), "den": ("den", "sum"),
    }, partial)
    parts["mkt_share"] = (parts["num"] / parts["den"]).round(6)
    return _finish(parts, "o_year", cols=["o_year", "mkt_share"])


def q_tpch_q9(sf_dir: str, name_token: str = "red") -> pd.DataFrame:
    """TPC-H Q9 shape (product-type profit by nation and year).  The
    synthetic schema has no partsupp, so supply cost is adapted to the
    part's retail price: profit = extendedprice·(1−discount) −
    p_retailprice·quantity, over parts whose name contains the token.
    Part (cost + name filter), supplier→nation and orderkey→year chains
    broadcast sorted; each lineitem batch folds (nation, year, profit)
    partials through one pyarrow group_by."""
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_name", "p_retailprice"]).to_pandas()
    part = part[part["p_name"].str.contains(name_token, regex=False)]
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    odf = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).to_pandas()
    refs = [
        _keyed_side(part, "p_partkey", "p_retailprice"),
        _keyed_side(sup, "s_suppkey", sup["s_nationkey"].map(
            nat.set_index("n_nationkey")["n_name"]).to_numpy()),
        _keyed_side(odf, "o_orderkey",
                    pd.DatetimeIndex(odf["o_orderdate"]).year.to_numpy(np.int64)),
    ]

    def partial(batch: pa.Table) -> pa.Table:
        (pk_, pc_), (sk_, sn_), (ok_, oy_) = ray.get(refs)
        lpk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lsk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hp, ip_ = _sorted_lookup(pk_, lpk)
        hs, is_ = _sorted_lookup(sk_, lsk)
        ho, io_ = _sorted_lookup(ok_, lok)
        keep = hp & hs & ho
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)[keep]
        profit = (
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)[keep])
            - pc_[ip_[keep]] * qty
        )
        return pa.table({
            "nation": pa.array(sn_[is_[keep]]),
            "o_year": pa.array(oy_[io_[keep]], pa.int64()),
            "profit": pa.array(profit, pa.float64()),
        })

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_orderkey", "l_quantity",
                "l_extendedprice", "l_discount"])
    out = _partial_agg(li, ["nation", "o_year"],
                       {"sum_profit": ("profit", "sum")}, partial)
    return _finish(out, ["nation", "o_year"], r4=["sum_profit"],
                   ascending=[True, False])


def q_tpch_q16(sf_dir: str, excl_brand: str = "Brand#11",
               excl_type: str = "PROMO") -> pd.DataFrame:
    """TPC-H Q16 shape (supplier count per part attribute).  No partsupp
    table exists, so the part↔supplier relation is DERIVED from lineitem:
    a (partkey, suppkey) pair exists iff some line shipped it.  The
    count-distinct dedupe stays distributed — each batch emits unique
    composite int keys (partkey·2²⁰ | suppkey), one Ray groupby dedupes
    globally, and only the UNIQUE pairs (bounded by |part|×suppliers-per-
    part, not by lineitem) reach the driver for the small attr rollup."""
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_brand", "p_type", "p_size"]).to_pandas()
    m = ((part["p_brand"] != excl_brand) & (part["p_type"] != excl_type)
         & part["p_size"].isin([1, 5, 10, 15, 20, 25, 30, 35]))
    part = part[m]
    ref = ray.put(np.sort(part["p_partkey"].to_numpy(np.int64)))

    def pair_partial(batch: pa.Table) -> pa.Table:
        pk_ = ray.get(ref)
        lpk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lsk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(pk_, lpk)
        key = (lpk[hit] << np.int64(20)) | lsk[hit]
        return pa.table({"pair": pa.array(np.unique(key), pa.int64())})

    pairs = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair")
        .count()
        .to_pandas()
    )
    pk = (pairs["pair"].to_numpy(np.int64) >> np.int64(20))
    sk = pairs["pair"].to_numpy(np.int64) & np.int64((1 << 20) - 1)
    attr = part.set_index("p_partkey").loc[pk]
    df = pd.DataFrame({
        "p_brand": attr["p_brand"].to_numpy(),
        "p_type": attr["p_type"].to_numpy(),
        "p_size": attr["p_size"].to_numpy(np.int64),
        "s": sk,
    })
    out = (df.groupby(["p_brand", "p_type", "p_size"], as_index=False)
           .agg(supplier_cnt=("s", "nunique")))
    return _finish(out, ["supplier_cnt", "p_brand", "p_type", "p_size"],
                   ints=["supplier_cnt"], ascending=[False, True, True, True])


def q_tpch_q20(sf_dir: str, name_prefix: str = "red",
               min_qty: float = 100.0) -> pd.DataFrame:
    """TPC-H Q20 shape (part-prefix volume suppliers).  partsupp's
    availqty is absent, so the predicate is adapted to shipped volume:
    suppliers whose total shipped quantity of parts named with the
    prefix exceeds min_qty.  Prefix-filtered partkeys broadcast; one
    lineitem scan folds per-supplier quantity partials; the final
    threshold + supplier-name join happens on the supplier-sized
    result."""
    part = _read(sf_dir, "part", ["p_partkey", "p_name"]).to_pandas()
    pkeys = np.sort(part.loc[part["p_name"].str.startswith(name_prefix),
                             "p_partkey"].to_numpy(np.int64))
    ref = ray.put(pkeys)

    def partial(batch: pa.Table) -> pa.Table:
        pk_ = ray.get(ref)
        lpk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit, _ = _sorted_lookup(pk_, lpk)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)[hit]
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)[hit]
        ks, inv = np.unique(sk, return_inverse=True)
        return pa.table({
            "s_suppkey": pa.array(ks.astype(np.int64), pa.int64()),
            "qty": pa.array(np.bincount(inv, weights=q), pa.float64()),
        })

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])
    # the partial rows are already one per supplier; the group_by only merges
    per_supp = _partial_agg(li, "s_suppkey", {"total_qty": ("qty", "sum")},
                            partial)
    per_supp = per_supp[per_supp["total_qty"] > min_qty]
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = per_supp.merge(sup, on="s_suppkey")
    return _finish(out, "s_name", r4=["total_qty"],
                   cols=["s_suppkey", "s_name", "total_qty"])


def q_tpch_q21(sf_dir: str, k: int = 25) -> pd.DataFrame:
    """TPC-H Q21 shape (suppliers who kept multi-supplier orders
    waiting).  Lateness is adapted to the synthetic schema as in Q4:
    l_shipdate > o_orderdate + 60 days.  A supplier counts for an order
    iff it shipped a late line, the order involved ANOTHER supplier,
    and NO other supplier was late.  Fully distributed: batch partials
    dedupe to (orderkey·2²⁰|suppkey, late) composite keys, one Ray
    groupby Max folds line→pair, a second fused-key groupby folds
    pair→order as (n_supp, n_late, Σ late·suppkey) — when n_late == 1
    that sum IS the guilty supplier, so the per-order supplier set
    never materializes."""
    odf = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).to_pandas()
    ref = _keyed_side(odf, "o_orderkey", odf["o_orderdate"].to_numpy(
        "datetime64[us]").astype(np.int64))
    late_us = 60 * 86_400_000_000

    def pair_partial(batch: pa.Table) -> pa.Table:
        ok_, od_ = ray.get(ref)
        lok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lsk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sd = (batch["l_shipdate"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        hit, idx = _sorted_lookup(ok_, lok)
        late = (hit & (sd > od_[idx] + late_us)).astype(np.int64)
        key = (lok << np.int64(20)) | lsk
        ks, inv = np.unique(key, return_inverse=True)
        any_late = (np.bincount(inv, weights=late, minlength=ks.size)
                    > 0).astype(np.int64)
        return pa.table({
            "pair": pa.array(ks, pa.int64()),
            "late": pa.array(any_late, pa.int64()),
        })

    pair_ds = (
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_shipdate"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Max("late", alias_name="late"))
    )

    def order_partial(batch: pa.Table) -> pa.Table:
        pairk = batch["pair"].to_numpy(zero_copy_only=False)
        late = batch["late"].to_numpy(zero_copy_only=False).astype(np.int64)
        okey = pairk >> np.int64(20)
        skey = pairk & np.int64((1 << 20) - 1)
        return pa.table({
            "o": pa.array(okey, pa.int64()),
            "n_supp": pa.array(np.ones(okey.size, np.int64), pa.int64()),
            "n_late": pa.array(late, pa.int64()),
            "late_skey": pa.array(late * skey, pa.int64()),
        })

    def guilty_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_supp" not in batch.column_names:
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "numwait": pa.array([], pa.int64())})
        m = ((batch["n_supp"].to_numpy(zero_copy_only=False) > 1)
             & (batch["n_late"].to_numpy(zero_copy_only=False) == 1))
        sk = batch["late_skey"].to_numpy(zero_copy_only=False)[m]
        ks, inv = np.unique(sk, return_inverse=True)
        return pa.table({
            "s_suppkey": pa.array(ks.astype(np.int64), pa.int64()),
            "numwait": pa.array(np.bincount(inv).astype(np.int64),
                                pa.int64()),
        })

    per_order = (
        pair_ds.map_batches(order_partial, batch_format="pyarrow")
        .groupby("o")
        .aggregate(Sum("n_supp", alias_name="n_supp"),
                   Sum("n_late", alias_name="n_late"),
                   Sum("late_skey", alias_name="late_skey"))
    )
    # guilty_partial's rows are already one per supplier; the group_by
    # only merges
    counts = _partial_agg(per_order, "s_suppkey",
                          {"numwait": ("numwait", "sum")}, guilty_partial)
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = counts.merge(sup, on="s_suppkey")
    return _finish(out, ["numwait", "s_name"], ints=["numwait"],
                   cols=["s_name", "numwait"], ascending=[False, True]).head(k)


def q_ntile_quartiles(sf_dir: str, n_tiles: int = 4,
                      n_bins: int = 4096) -> pd.DataFrame:
    """NTILE(4) OVER (ORDER BY o_totalprice, o_orderkey) rolled up per
    quartile — WITHOUT a global sort.  Two-pass exact-rank shape (the
    ``stages/lm.py`` ppl_rank_buckets pattern, linear bins here): pass 1
    folds a fixed linear price histogram (driver pull = n_bins counts,
    corpus-size independent) whose cumsum gives every bin's base rank;
    pass 2 range-partitions by the same bin and ranks exactly inside
    each bin with the (price, orderkey) tiebreak — equal prices always
    share a bin, so the tiebreak never crosses a partition.  SQL NTILE
    bucket widths (first n%k buckets one wider) are reproduced from the
    global rank arithmetically."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    mm = ds.aggregate(Min("o_totalprice", alias_name="lo"),
                      Max("o_totalprice", alias_name="hi"))
    lo, hi = float(mm["lo"]), float(mm["hi"])
    span = (hi - lo) or 1.0

    def binkey(v: np.ndarray) -> np.ndarray:
        b = np.floor((v - lo) / span * n_bins).astype(np.int64)
        return np.clip(b, 0, n_bins - 1)

    def coarse_hist(batch: pa.Table) -> pa.Table:
        b = binkey(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        counts = np.bincount(b, minlength=n_bins)
        nz = np.flatnonzero(counts)
        return pa.table({"bin": pa.array(nz, pa.int64()),
                         "cnt": pa.array(counts[nz], pa.int64())})

    hist = (ds.map_batches(coarse_hist, batch_format="pyarrow")
            .to_pandas().groupby("bin", as_index=False).agg(cnt=("cnt", "sum")))
    base = np.zeros(n_bins, dtype=np.int64)
    base[hist["bin"].to_numpy(np.int64)] = hist["cnt"].to_numpy(np.int64)
    n_total = int(base.sum())
    base = np.concatenate([[0], np.cumsum(base)[:-1]])
    ref = ray.put(base)

    size, rem = divmod(n_total, n_tiles)

    def rank_to_tile(r: np.ndarray) -> np.ndarray:
        wide = rem * (size + 1)
        t = np.where(r < wide, r // (size + 1),
                     rem + (r - wide) // max(size, 1))
        return t.astype(np.int64) + 1

    def add_bin(batch: pa.Table) -> pa.Table:
        v = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return batch.append_column("bin", pa.array(binkey(v), pa.int64()))

    def tile_partial(group: pa.Table) -> pa.Table:
        base_ = ray.get(ref)
        b = int(group["bin"][0].as_py())
        v = group["o_totalprice"].to_numpy(zero_copy_only=False)
        k = group["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, v))
        ranks = np.empty(v.size, dtype=np.int64)
        ranks[order] = base_[b] + np.arange(v.size)
        tiles = rank_to_tile(ranks)
        ts, inv = np.unique(tiles, return_inverse=True)
        return pa.table({
            "quartile": pa.array(ts, pa.int64()),
            "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
            "sum_price": pa.array(np.bincount(inv, weights=v), pa.float64()),
        })

    out = (ds.map_batches(add_bin, batch_format="pyarrow")
           .groupby("bin").map_groups(tile_partial, batch_format="pyarrow")
           .to_pandas()
           .groupby("quartile", as_index=False)
           .agg(n=("n", "sum"), sum_price=("sum_price", "sum")))
    return _finish(out, "quartile", ints=["n"], r4=["sum_price"])


def q_iqr_outliers(sf_dir: str) -> pd.DataFrame:
    """Tukey-fence outlier profile per event_type: Q1/Q3 as DISCRETE
    order statistics (sorted[ceil(q·n)−1], DuckDB quantile_disc
    semantics — no interpolation, so the fences are exact values from
    the data), IQR, and the count / extremes of points outside
    [Q1 − 1.5·IQR, Q3 + 1.5·IQR].  Low-cardinality partition → per-type
    map_groups sort, same declared contract as percent_rank."""

    def profile(group: pa.Table) -> pa.Table:
        v = np.sort(group["value"].to_numpy(zero_copy_only=False))
        n = v.size
        q1 = v[int(np.ceil(0.25 * n)) - 1]
        q3 = v[int(np.ceil(0.75 * n)) - 1]
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        out = v[(v < lo) | (v > hi)]
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()]),
            "q1": pa.array([round(float(q1), 6)], pa.float64()),
            "q3": pa.array([round(float(q3), 6)], pa.float64()),
            "n_outliers": pa.array([int(out.size)], pa.int64()),
            "sum_outliers": pa.array(
                [round(float(out.sum()), 4) if out.size else 0.0],
                pa.float64()),
        })

    out = (_read(sf_dir, "events", ["event_type", "value"])
           .groupby("event_type").map_groups(profile, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("event_type").reset_index(drop=True)


def _add_day(batch: pa.Table) -> pa.Table:
    day = pc.cast(pc.floor_temporal(batch["ts"], unit="day"), pa.timestamp("us"))
    return batch.append_column("day", day)


def _daily(sf_dir: str, keys=("event_type",), value=False) -> pd.DataFrame:
    """Per-(keys, day) event count ``n`` over the events table, plus
    ``s`` = Σ value when ``value``, folded through ``_partial_agg``
    (the (keys × days)-sized table is the bounded driver combine).  The
    count is of the non-null ``day`` key, i.e. the group's row count."""
    cols = [*keys, "ts", "value"] if value else [*keys, "ts"]
    aggs = {"s": ("value", "sum")} if value else {}
    return _partial_agg(_read(sf_dir, "events", cols), [*keys, "day"],
                        {**aggs, "n": ("day", "count")}, _add_day)


def q_ewma_daily(sf_dir: str, alpha: float = 0.3) -> pd.DataFrame:
    """Final-day exponentially weighted moving average of the DAILY MEAN
    value per event_type: ewma_n = Σᵢ wᵢ·mᵢ with w_first = (1−α)^(n−1)
    and wᵢ = α·(1−α)^(n−i) — the closed form of the recursive EWMA with
    first-value init, so both engines compute the same weighted sum
    instead of a recurrence.  Daily means fold distributed (per-batch
    (type, day, sum, cnt) partials); only the (type×day)-sized daily
    table reaches the driver."""
    daily = _daily(sf_dir, value=True)
    daily["m"] = daily["s"] / daily["n"]
    rows = []
    for etype, g in daily.groupby("event_type"):
        g = g.sort_values("day")
        m = g["m"].to_numpy(np.float64)
        n = m.size
        w = alpha * np.power(1.0 - alpha, n - 1 - np.arange(n))
        w[0] = np.power(1.0 - alpha, n - 1)
        rows.append({"event_type": etype, "n_days": n,
                     "ewma": round(float((w * m).sum()), 6)})
    return _finish(pd.DataFrame(rows), "event_type", ints=["n_days"])


def q_attribution_first_touch(sf_dir: str) -> pd.DataFrame:
    """First-touch attribution: every user's TOTAL event value is
    credited to the event_type of their first event (ts, event_id
    order).  One pass over the fused user partitions computes each
    user's first type and value total together (a user never spans two
    partitions), then per-partition (type, users, value) partials fold
    in a tiny driver combine — the classic marketing-attribution shape
    with no per-user rows leaving the cluster."""
    n_parts = _fused_parts(sf_dir, "events")

    def attribute(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, val, et = uid[order], val[order], et[order]
        first = np.concatenate(([True], uid[1:] != uid[:-1]))
        starts = np.flatnonzero(first)
        ftype = et[starts]
        totals = np.add.reduceat(val, starts)
        ts_, inv = np.unique(ftype, return_inverse=True)
        return pa.table({
            "event_type": pa.array(ts_),
            "n_users": pa.array(np.bincount(inv).astype(np.int64),
                                pa.int64()),
            "sum_value": pa.array(np.bincount(inv, weights=totals),
                                  pa.float64()),
        })

    out = (
        _with_part(_read(sf_dir, "events", ["user_id", "event_id", "ts",
                                            "event_type", "value"]),
                   "user_id", n_parts)
        .groupby("part")
        .map_groups(attribute, batch_format="pyarrow")
        .to_pandas()
        .groupby("event_type", as_index=False)
        .agg(n_users=("n_users", "sum"), sum_value=("sum_value", "sum"))
    )
    return _finish(out, "event_type", ints=["n_users"], r4=["sum_value"])


def q_column_profile(sf_dir: str) -> pd.DataFrame:
    """Data-profiling operator: per numeric lineitem column — row count,
    null count, min, max, sum and mean in one scan.  Per-batch partials
    are one row per column (constant size), so the driver combine is
    O(n_columns) regardless of corpus size; the mean derives from the
    global (sum, n), not an average of batch means."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]

    def partial(batch: pa.Table) -> pa.Table:
        names, n, nnull, mn, mx, sm = [], [], [], [], [], []
        for c in cols:
            arr = batch[c]
            v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
            nulls = int(pc.count(arr, mode="only_null").as_py())
            ok = v[~np.isnan(v)] if nulls else v
            names.append(c)
            n.append(batch.num_rows)
            nnull.append(nulls)
            mn.append(float(ok.min()) if ok.size else np.inf)
            mx.append(float(ok.max()) if ok.size else -np.inf)
            sm.append(float(ok.sum()))
        return pa.table({
            "column": pa.array(names),
            "n": pa.array(n, pa.int64()),
            "n_null": pa.array(nnull, pa.int64()),
            "min_v": pa.array(mn, pa.float64()),
            "max_v": pa.array(mx, pa.float64()),
            "sum_v": pa.array(sm, pa.float64()),
        })

    # the partial rows are already one per column; the group_by only merges
    out = _partial_agg(_read(sf_dir, "lineitem", cols), "column", {
        "n": ("n", "sum"), "n_null": ("n_null", "sum"),
        "min_v": ("min_v", "min"), "max_v": ("max_v", "max"),
        "sum_v": ("sum_v", "sum"),
    }, partial)
    # avg from the ROUNDED sum: round(sum,4) is the cross-engine-stable
    # artifact, so deriving avg from it keeps round(avg,6) stable too
    out["sum_v"] = out["sum_v"].round(4)
    out["avg_v"] = (out["sum_v"] / (out["n"] - out["n_null"])).round(6)
    out["min_v"] = out["min_v"].round(6)
    out["max_v"] = out["max_v"].round(6)
    return _finish(out, "column", ints=["n", "n_null"])


def q_seasonal_dow(sf_dir: str) -> pd.DataFrame:
    """Day-of-week seasonality profile per event_type: event count and
    mean value per ISO weekday (1=Monday..7=Sunday).  Per-batch (type,
    dow, sum, count) partials — 7×types rows — fold in one tiny driver
    combine; means derive from global sums."""

    def add_dow(batch: pa.Table) -> pa.Table:
        dow = pc.add(pc.day_of_week(batch["ts"]), 1)  # arrow Monday=0
        return batch.append_column("dow", pc.cast(dow, pa.int64()))

    keys = ["event_type", "dow"]
    # count of the non-null key column = the group's row count
    out = _partial_agg(_read(sf_dir, "events", ["event_type", "ts", "value"]),
                       keys, {"s": ("value", "sum"), "n": ("dow", "count")},
                       add_dow)
    out["avg_value"] = (out["s"] / out["n"]).round(6)
    return _finish(out, keys, ints=["n", "dow"], cols=[*keys, "n", "avg_value"])


def q_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Per-label centroid of the embedding column, one row per (label,
    dim): the vector-aggregate shape every embedding pipeline needs
    (class prototypes, cluster seeding).  Per-batch partials are one
    (labels × dim) sum matrix + counts via the zero-copy _batch_matrix
    flatten — the driver combine is model-sized, never corpus-sized."""

    def partial(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, "embedding")
        labs = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        ls, inv = np.unique(labs, return_inverse=True)
        sums = np.zeros((ls.size, m.shape[1]))
        np.add.at(sums, inv, m)
        cnts = np.bincount(inv).astype(np.int64)
        dim = m.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(ls, dim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                    ls.size), pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "c": pa.array(np.repeat(cnts, dim), pa.int64()),
        })

    keys = ["label", "dim"]
    # the partial rows are already one per (label, dim); the group_by only
    # merges
    out = _partial_agg(_read(sf_dir, "embeddings", ["embedding", "label"]),
                       keys, {"s": ("s", "sum"), "c": ("c", "sum")}, partial)
    out["centroid"] = (out["s"] / out["c"]).round(6)
    return _finish(out, keys, ints=keys, cols=[*keys, "centroid"])


def q_conversion_lag(sf_dir: str) -> pd.DataFrame:
    """Funnel timing: for every user whose first 'purchase' follows
    their first 'view', the view→purchase lag; reports converted-user
    count and the exact discrete median / p90 lag in microseconds
    (sorted[ceil(q·n)−1], quantile_disc semantics).  Per-user firsts
    fold inside the fused user partitions; the lag set reaching the
    driver is converted-user-sized (at 10⁹ users the exact quantile
    becomes the q_ntile_quartiles two-pass bin rank — same order
    statistic, documented rather than duplicated here)."""
    n_parts = _fused_parts(sf_dir, "events")

    def lags(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        vmask = et == "view"
        vu, vidx = np.unique(uid[vmask], return_index=True)
        t0 = ts[vmask][vidx]               # first view per user
        pmask = et == "purchase"
        pu, pt = uid[pmask], ts[pmask]
        hit, pos = _sorted_lookup(vu, pu)
        cand = hit & (pt > t0[pos])        # purchases after the first view
        cu, cidx = np.unique(pu[cand], return_index=True)
        lag = pt[cand][cidx] - t0[np.searchsorted(vu, cu)]
        return pa.table({"lag_us": pa.array(lag.astype(np.int64),
                                            pa.int64())})

    lag = (_with_part(_read(sf_dir, "events", ["user_id", "ts", "event_type"]),
                      "user_id", n_parts)
           .groupby("part")
           .map_groups(lags, batch_format="pyarrow")
           .to_pandas()["lag_us"].to_numpy(np.int64))
    lag = np.sort(lag)
    n = lag.size

    def qd(q: float) -> int:
        return int(lag[int(np.ceil(q * n)) - 1]) if n else 0

    return pd.DataFrame({
        "n_converted": pd.array([n], dtype="int64"),
        "median_lag_us": pd.array([qd(0.5)], dtype="int64"),
        "p90_lag_us": pd.array([qd(0.9)], dtype="int64"),
    })


def q_ks_test_2sample(sf_dir: str, type_a: str = "click",
                      type_b: str = "error") -> pd.DataFrame:
    """Two-sample Kolmogorov-Smirnov D statistic between the value
    distributions of two event types — the drift test a feature-quality
    monitor runs between data snapshots.  Distributed shape: per-batch
    (value, c_a, c_b) partials collapse duplicate values, one Ray
    groupby folds them, and the driver sees one row per DISTINCT value
    (already far below row count; the 100 TB refinement is the
    q_ntile_quartiles coarse-bin pre-pass around the supremum's bin).
    D is the max |F_a − F_b| over the merged support."""

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        ma, mb = et == type_a, et == type_b
        keep = ma | mb
        v, isa = v[keep], ma[keep]
        vs, inv = np.unique(v, return_inverse=True)
        ca = np.bincount(inv, weights=isa).astype(np.int64)
        cb = np.bincount(inv, weights=~isa).astype(np.int64)
        return pa.table({
            "value": pa.array(vs, pa.float64()),
            "ca": pa.array(ca, pa.int64()),
            "cb": pa.array(cb, pa.int64()),
        })

    # the partial rows are already one per value; the group_by only merges
    g = _partial_agg(_read(sf_dir, "events", ["event_type", "value"]),
                     "value", {"ca": ("ca", "sum"), "cb": ("cb", "sum")},
                     partial)
    n1, n2 = int(g["ca"].sum()), int(g["cb"].sum())
    f1 = np.cumsum(g["ca"].to_numpy(np.int64)) * 1.0 / n1
    f2 = np.cumsum(g["cb"].to_numpy(np.int64)) * 1.0 / n2
    d = float(np.abs(f1 - f2).max()) if len(g) else 0.0
    return pd.DataFrame({
        "ks_d": [round(d, 6)],
        "n1": pd.array([n1], dtype="int64"),
        "n2": pd.array([n2], dtype="int64"),
    })


def q_scd2_dimension(sf_dir: str) -> pd.DataFrame:
    """Slowly-changing-dimension type-2 build from the event stream:
    per user, consecutive same-type event runs collapse to one validity
    row (user_id, run, state, valid_from, valid_to) where valid_to is
    the next run's start (the SCD2 closing convention) and the final
    run closes at the user's last event.  Runs never cross the fused
    user partitions, so the whole build is one shuffle-free
    map_groups."""
    n_parts = _fused_parts(sf_dir, "events")

    def runs(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        chg = np.ones(uid.size, dtype=bool)
        if uid.size > 1:
            chg[1:] = (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])
        starts = np.flatnonzero(chg)
        ends = np.append(starts[1:], uid.size) - 1
        ruid = uid[starts]
        ufirst = np.concatenate(([True], ruid[1:] != ruid[:-1]))
        ubase = np.flatnonzero(ufirst)
        runlen = np.diff(np.append(ubase, starts.size))
        run_no = (np.arange(starts.size, dtype=np.int64)
                  - np.repeat(ubase, runlen) + 1)
        # valid_to: next run's start within the same user, else the
        # user's last event ts
        nxt_from = np.empty(starts.size, dtype=np.int64)
        nxt_from[:-1] = ts[starts[1:]]
        nxt_from[-1] = ts[ends[-1]]
        last_of_user = np.concatenate(
            (ruid[1:] != ruid[:-1], [True]))
        nxt_from[last_of_user] = ts[ends[last_of_user]]
        return pa.table({
            "user_id": pa.array(ruid, pa.int64()),
            "run": pa.array(run_no, pa.int64()),
            "state": pa.array(et[starts]),
            "valid_from": pa.array(ts[starts].astype("datetime64[us]"),
                                   pa.timestamp("us")),
            "valid_to": pa.array(nxt_from.astype("datetime64[us]"),
                                 pa.timestamp("us")),
        })

    out = (_with_part(_read(sf_dir, "events",
                            ["user_id", "event_id", "ts", "event_type"]),
                      "user_id", n_parts)
           .groupby("part")
           .map_groups(runs, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values(["user_id", "run"]).reset_index(drop=True)


def q_id_gaps(sf_dir: str, event_type: str = "click",
              n_bins: int = 256) -> pd.DataFrame:
    """Sequence-gap detection: the missing event_id ranges between
    consecutive ids of one event type — the data-quality check for
    dropped records in an ordered feed.  Distributed without a global
    sort: ids range-partition by VALUE (id-space bins), each bin finds
    its internal gaps after a local sort, and the driver stitches only
    the n_bins (min, max) boundary rows — the q_ntile two-pass idea
    applied to gap detection."""
    ds = _read(sf_dir, "events", ["event_id", "event_type"]).filter(
        expr=f"event_type == '{event_type}'").select_columns(["event_id"])
    mm = ds.aggregate(Min("event_id", alias_name="lo"),
                      Max("event_id", alias_name="hi"))
    if mm["lo"] is None:  # no event of the type: no gap
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in ("gap_start", "gap_end", "gap_len")})
    lo, hi = int(mm["lo"]), int(mm["hi"])
    width = max((hi - lo) // n_bins + 1, 1)

    def add_bin(batch: pa.Table) -> pa.Table:
        v = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "bin", pa.array((v - lo) // width, pa.int64()))

    def bin_gaps(group: pa.Table) -> pa.Table:
        v = np.sort(group["event_id"].to_numpy(
            zero_copy_only=False).astype(np.int64))
        d = np.diff(v)
        g = np.flatnonzero(d > 1)
        b = int(group["bin"][0].as_py())
        return pa.table({
            "kind": pa.array(["gap"] * g.size + ["edge"], pa.string()),
            "bin": pa.array(np.append(np.full(g.size, b), b), pa.int64()),
            "a": pa.array(np.append(v[g], v[0]), pa.int64()),
            "b": pa.array(np.append(v[g + 1], v[-1]), pa.int64()),
        })

    parts = (ds.map_batches(add_bin, batch_format="pyarrow")
             .groupby("bin").map_groups(bin_gaps, batch_format="pyarrow")
             .to_pandas())
    gaps = parts[parts["kind"] == "gap"][["a", "b"]]
    edges = parts[parts["kind"] == "edge"].sort_values("bin")
    cross = pd.DataFrame({
        "a": edges["b"].to_numpy(np.int64)[:-1],
        "b": edges["a"].to_numpy(np.int64)[1:],
    })
    cross = cross[cross["b"] > cross["a"] + 1]
    allg = pd.concat([gaps, cross], ignore_index=True)
    out = pd.DataFrame({
        "gap_start": (allg["a"] + 1).astype("int64"),
        "gap_end": (allg["b"] - 1).astype("int64"),
    })
    out["gap_len"] = (out["gap_end"] - out["gap_start"] + 1).astype("int64")
    return out.sort_values("gap_start").reset_index(drop=True)


def q_state_asof(sf_dir: str, asof: str = "2024-01-15") -> pd.DataFrame:
    """Bitemporal point lookup: every user's state (last event_type) AS
    OF a fixed timestamp — the query the SCD2 build answers.  Per fused
    user partition: mask events ≤ T, take each user's last by (ts,
    event_id); users never span partitions so no global window is
    needed.  Output (user_id, state, state_ts)."""
    n_parts = _fused_parts(sf_dir, "events")
    t_us = np.datetime64(asof, "us").astype(np.int64)

    def last_state(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        keep = ts <= t_us
        uid, eid, ts, et = uid[keep], eid[keep], ts[keep], et[keep]
        if uid.size == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "state": pa.array([], pa.string()),
                "state_ts": pa.array([], pa.timestamp("us")),
            })
        order = np.lexsort((eid, ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        last = np.concatenate((uid[1:] != uid[:-1], [True]))
        return pa.table({
            "user_id": pa.array(uid[last], pa.int64()),
            "state": pa.array(et[last]),
            "state_ts": pa.array(ts[last].astype("datetime64[us]"),
                                 pa.timestamp("us")),
        })

    out = (_with_part(_read(sf_dir, "events",
                            ["user_id", "event_id", "ts", "event_type"]),
                      "user_id", n_parts)
           .groupby("part")
           .map_groups(last_state, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("user_id").reset_index(drop=True)


def q_random_projection(sf_dir: str, out_dim: int = 8) -> pd.DataFrame:
    """Deterministic sign-random-projection dimensionality reduction
    (Achlioptas 2003 with a closed-form ±1 sign s(i,j) =
    ((i·31 + j·17) mod 2)·2 − 1 so the oracle recomputes the projection
    matrix arithmetically): 64-dim embeddings → ``out_dim`` components
    as one matmul per batch against the broadcast sign matrix.  Output
    long-form (vec_id, dim, value)."""
    i = np.arange(1, 65, dtype=np.int64)[:, None]
    j = np.arange(1, out_dim + 1, dtype=np.int64)[None, :]
    signs = (((i * 31 + j * 17) % 2) * 2 - 1).astype(np.float64)

    def project(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, "embedding")
        p = m @ signs
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, out_dim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, out_dim + 1,
                                              dtype=np.int64), ids.size),
                            pa.int64()),
            "value": pa.array(np.round(p.ravel(), 6), pa.float64()),
        })

    out = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
           .map_batches(project, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values(["vec_id", "dim"]).reset_index(drop=True)


def q_rank_join(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Top-k rank join (Ilyas et al.'s top-k join shape): the k best
    (customer, order) pairs by combined score c_acctbal + o_totalprice.
    The small side broadcasts sorted; each orders batch emits only ITS
    top-k partials, so the driver merge sees blocks×k rows — the join
    never materializes."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).to_pandas()
    ref = _keyed_side(cust, "c_custkey", "c_acctbal")

    def partial(batch: pa.Table) -> pa.Table:
        ks, bal = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        hit, idx = _sorted_lookup(ks, ck)
        comb = bal[idx] + tp
        comb, ck, ok = comb[hit], ck[hit], ok[hit]
        kk = min(k, comb.size)
        order = np.lexsort((ok, ck, -comb))[:kk]
        return pa.table({
            "c_custkey": pa.array(ck[order], pa.int64()),
            "o_orderkey": pa.array(ok[order], pa.int64()),
            "combined": pa.array(comb[order], pa.float64()),
        })

    out = (_read(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_totalprice"])
           .map_batches(partial, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["combined", "c_custkey", "o_orderkey"],
                        ascending=[False, True, True])
           .head(k))
    out["combined"] = out["combined"].round(4)
    return out.reset_index(drop=True)


def q_quality_rules(sf_dir: str) -> pd.DataFrame:
    """Rule-engine data validation: named predicates over lineitem (one
    broadcast o_orderdate probe for the lateness rule), reported as
    (rule, n_violations, pct).  One scan evaluates every rule as a
    vectorized mask; per-batch partials are one row per rule."""
    odf = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).to_pandas()
    ref = _keyed_side(odf, "o_orderkey", odf["o_orderdate"].to_numpy(
        "datetime64[us]").astype(np.int64))
    late_us = 60 * 86_400_000_000
    rules = ["discount_high", "quantity_high", "price_high", "ship_late"]

    def partial(batch: pa.Table) -> pa.Table:
        ks, ds_ = ray.get(ref)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        lk = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sd = (batch["l_shipdate"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        hit, idx = _sorted_lookup(ks, lk)
        masks = [disc >= 0.09, qty >= 45.0, price > 90000.0,
                 hit & (sd > ds_[idx] + late_us)]
        return pa.table({
            "rule": pa.array(rules, pa.string()),
            "n_violations": pa.array([int(m.sum()) for m in masks],
                                     pa.int64()),
            "n_rows": pa.array([batch.num_rows] * len(rules), pa.int64()),
        })

    li = _read(sf_dir, "lineitem", ["l_discount", "l_quantity",
                                    "l_extendedprice", "l_orderkey",
                                    "l_shipdate"])
    # the partial rows are already one per rule; the group_by only merges
    out = _partial_agg(li, "rule", {"n_violations": ("n_violations", "sum"),
                                    "n_rows": ("n_rows", "sum")}, partial)
    out["pct"] = (out["n_violations"] * 1.0 / out["n_rows"]).round(6)
    return _finish(out, "rule", ints=["n_violations"],
                   cols=["rule", "n_violations", "pct"])


def q_eb_smoothed_rates(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Empirical-Bayes (beta-binomial) smoothed purchase rates: the
    method-of-moments Beta prior fit on the per-user rate distribution,
    then (k+α)/(n+α+β) per user — the CTR-smoothing shape every
    ranking/ads pipeline uses.  Per-user (n, k) folds in one groupby;
    the moment sums are one more tiny aggregate; scoring is a
    broadcast-α,β vectorized pass.  Top-k users by smoothed rate."""

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        buy = (batch["event_type"].to_numpy(zero_copy_only=False)
               == "purchase").astype(np.int64)
        us, inv = np.unique(uid, return_inverse=True)
        return pa.table({
            "user_id": pa.array(us, pa.int64()),
            "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
            "k": pa.array(np.bincount(inv, weights=buy).astype(np.int64),
                          pa.int64()),
        })

    # the partial rows are already one per user; the group_by only merges
    u = _partial_agg(_read(sf_dir, "events", ["user_id", "event_type"]),
                     "user_id", {"n": ("n", "sum"), "k": ("k", "sum")},
                     partial)
    p = u["k"].to_numpy(np.float64) / u["n"].to_numpy(np.float64)
    m = float(np.mean(p))
    v = float(np.mean(p * p)) - m * m
    a = m * (m * (1 - m) / v - 1)
    b = (1 - m) * (m * (1 - m) / v - 1)
    u["smoothed"] = (u["k"] + a) / (u["n"] + a + b)
    u = _finish(u, ["smoothed", "user_id"], ints=["n", "k"],
                ascending=[False, True]).head(k)
    u["smoothed"] = u["smoothed"].round(6)
    return u


def q_late_orders(sf_dir: str, lateness_days: int = 365,
                  n_bins: int = 256) -> pd.DataFrame:
    """Watermark / late-data audit: orders whose o_orderdate is more
    than ``lateness_days`` behind the running maximum order date in
    ARRIVAL order (o_orderkey), counted per order-date year — the
    out-of-order rate a streaming ingester tracks (the events table is
    strictly time-sorted, so the order feed is the disordered stream
    here).  Global running max without a global sort: pass A folds each
    arrival-order bin's max date (n_bins rows to the driver), a prefix
    over the bin maxes gives every bin's carry-in watermark, and pass B
    computes the in-bin running max against the broadcast carry — the
    cumulative_sum stitching pattern on the max monoid."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .rename_columns({"o_orderkey": "event_id", "o_orderdate": "ts"})
    mm = ds.aggregate(Min("event_id", alias_name="lo"),
                      Max("event_id", alias_name="hi"))
    lo, hi = int(mm["lo"]), int(mm["hi"])
    width = max((hi - lo) // n_bins + 1, 1)
    late_us = np.int64(lateness_days) * 86_400_000_000

    def add_bin(batch: pa.Table) -> pa.Table:
        v = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "bin", pa.array((v - lo) // width, pa.int64()))

    binned = ds.map_batches(add_bin, batch_format="pyarrow").materialize()

    def bin_max(group: pa.Table) -> pa.Table:
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        return pa.table({
            "bin": pa.array([int(group["bin"][0].as_py())], pa.int64()),
            "mx": pa.array([int(ts.max())], pa.int64()),
        })

    maxes = (binned.groupby("bin").map_groups(bin_max,
                                              batch_format="pyarrow")
             .to_pandas().sort_values("bin"))
    carry = np.full(n_bins, np.iinfo(np.int64).min, dtype=np.int64)
    bins = maxes["bin"].to_numpy(np.int64)
    mx = maxes["mx"].to_numpy(np.int64)
    run = np.maximum.accumulate(mx)
    # carry-in for bin b = max over occupied bins strictly before b
    for i, bn in enumerate(bins):
        carry[bn] = run[i - 1] if i > 0 else np.iinfo(np.int64).min
    ref = ray.put(carry)

    def count_late(group: pa.Table) -> pa.Table:
        carry_ = ray.get(ref)
        b = int(group["bin"][0].as_py())
        eid = group["event_id"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        order = np.argsort(eid)
        ts = ts[order]
        # prev_i = max(carry-in, ts_0..ts_{i-1}): seed the running max
        # with the carry so a prior-bin watermark dominates in-bin values
        prev = np.maximum.accumulate(
            np.concatenate(([carry_[b]], ts)))[:-1]
        late = (prev > np.iinfo(np.int64).min) & (ts < prev - late_us)
        yr = (ts[late].astype("datetime64[us]").astype("datetime64[Y]")
              .astype(np.int64) + 1970)
        dv, cnt = np.unique(yr, return_counts=True)
        return pa.table({
            "o_year": pa.array(dv.astype(np.int64), pa.int64()),
            "n_late": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    out = (binned.groupby("bin").map_groups(count_late,
                                            batch_format="pyarrow")
           .to_pandas()
           .groupby("o_year", as_index=False)
           .agg(n_late=("n_late", "sum")))
    return _finish(out, "o_year", ints=["n_late", "o_year"])


def q_changepoint_daily(sf_dir: str) -> pd.DataFrame:
    """Single-changepoint detection per event_type: the split of the
    daily-count series minimizing total within-segment SSE (the CUSUM /
    binary-segmentation step).  Daily counts fold distributed; the
    O(days) split scan runs vectorized on the (types × days)-bounded
    driver table with cumulative sums — both engines compute the
    identical (q − s²/n) algebra.  Output (event_type, split_rn, sse,
    mean_left, mean_right)."""
    rows = []
    for etype, g in _daily(sf_dir).groupby("event_type"):
        y = g.sort_values("day")["n"].to_numpy(np.float64)
        n = y.size
        cs = np.cumsum(y)
        cq = np.cumsum(y * y)
        ks = np.arange(1, n)
        s1, q1 = cs[ks - 1], cq[ks - 1]
        s2, q2 = cs[-1] - s1, cq[-1] - q1
        sse = (q1 - s1 * s1 / ks) + (q2 - s2 * s2 / (n - ks))
        best = int(np.argmin(sse))  # ties -> smallest k
        k = int(ks[best])
        rows.append({
            "event_type": etype,
            "split_rn": k,
            "sse": round(float(sse[best]), 6),
            "mean_left": round(float(s1[best] / k), 6),
            "mean_right": round(float(s2[best] / (n - k)), 6),
        })
    return _finish(pd.DataFrame(rows), "event_type", ints=["split_rn"])


def q_join_cardinality_est(sf_dir: str, rate: int = 20) -> pd.DataFrame:
    """Join-cardinality estimation by key-universe sampling (the query-
    optimizer primitive): sample the orders build side with the
    deterministic predicate o_orderkey % rate == 0, count the probe
    rows that semi-join the sample, and scale by rate; report the exact
    count beside it.  Both counts come from ONE lineitem scan folding
    two per-batch counters against the broadcast sampled-key array."""
    odf = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    okeys = np.sort(odf["o_orderkey"].to_numpy(np.int64))
    sampled = okeys[okeys % rate == 0]
    ref = ray.put((okeys, sampled))

    def partial(batch: pa.Table) -> pa.Table:
        ks, sk = ray.get(ref)
        lk = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit_all, _ = _sorted_lookup(ks, lk)
        hit_s, _ = _sorted_lookup(sk, lk)
        return pa.table({
            "n_exact": pa.array([int(hit_all.sum())], pa.int64()),
            "n_sample": pa.array([int(hit_s.sum())], pa.int64()),
        })

    parts = (_read(sf_dir, "lineitem", ["l_orderkey"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    exact = int(parts["n_exact"].sum())
    est = rate * int(parts["n_sample"].sum())
    return pd.DataFrame({
        "estimated": pd.array([est], dtype="int64"),
        "exact": pd.array([exact], dtype="int64"),
        "ratio": [round(est * 1.0 / exact, 6) if exact else 0.0],
    })


def q_rendezvous_hashing(sf_dir: str, n_nodes: int = 8) -> pd.DataFrame:
    """Rendezvous (highest-random-weight) hashing assignment of doc ids
    to virtual nodes — the shard-placement primitive whose property is
    that removing a node remaps ONLY its own keys.  Node hashes are the
    SQL-expressible affine family h_j(k) = (A_j·k + B_j) mod M31 with
    A_j = 2654435761·j mod M31 (Knuth multipliers large enough that the
    modulo actually wraps — small multipliers leave argmax constant);
    assignment is a vectorized argmax over the n_nodes hash columns per
    batch, nodes numbered 1..n.  Output per-node key counts."""
    M = 2_147_483_647

    j1 = np.arange(1, n_nodes + 1, dtype=np.int64)
    a = ((2654435761 * j1) % M)[None, :]
    b = ((40503 * j1) % M)[None, :]

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)[:, None]
        hv = (a * ids + b) % M
        # argmax with ties to the SMALLEST node index: argmax picks the
        # first maximum, and node index increases along the axis
        node = np.argmax(hv, axis=1).astype(np.int64) + 1
        ns, inv = np.unique(node, return_inverse=True)
        return pa.table({
            "node": pa.array(ns, pa.int64()),
            "n_keys": pa.array(np.bincount(inv).astype(np.int64),
                               pa.int64()),
        })

    # the partial rows are already one per node; the group_by only merges
    out = _partial_agg(_read(sf_dir, "documents", ["doc_id"]), "node",
                       {"n_keys": ("n_keys", "sum")}, assign)
    return _finish(out, "node", ints=["n_keys", "node"])


def q_incremental_agg(sf_dir: str) -> pd.DataFrame:
    """Incremental view maintenance: the per-type (count, sum) aggregate
    is built as BASE (all days before the last) plus DELTA (the last
    day) merged by monoid addition — the maintenance path a warehouse
    takes when a late partition lands — and must equal the full
    recompute (which is exactly what the oracle runs).  Both legs are
    ordinary partial-aggregate scans; the merge is a driver combine of
    two type-sized tables."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    mx = pd.Timestamp(ds.aggregate(Max("ts", alias_name="mx"))["mx"])
    last_day_us = ((mx.value // 1000) // 86_400_000_000) * 86_400_000_000

    def partial(which: str):
        def fn(batch: pa.Table) -> pa.Table:
            ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
                "datetime64[us]").astype(np.int64)
            day = (ts // 86_400_000_000) * 86_400_000_000
            m = day < last_day_us if which == "base" else \
                day >= last_day_us
            et = batch["event_type"].to_numpy(zero_copy_only=False)[m]
            val = batch["value"].to_numpy(zero_copy_only=False)[m]
            ks, inv = np.unique(et, return_inverse=True)
            return pa.table({
                "event_type": pa.array(ks),
                "n": pa.array(np.bincount(inv).astype(np.int64),
                              pa.int64()),
                "s": pa.array(np.bincount(inv, weights=val), pa.float64()),
            })
        return fn

    # each leg's partial rows are already one per type; the group_by only
    # merges
    legs = [_partial_agg(ds, "event_type", {"n": ("n", "sum"), "s": ("s", "sum")},
                         partial(which)) for which in ("base", "delta")]
    merged = (pd.concat(legs, ignore_index=True)
              .groupby("event_type", as_index=False)
              .agg(n=("n", "sum"), s=("s", "sum")))
    merged["sum_value"] = merged["s"].round(4)
    return _finish(merged, "event_type", ints=["n"],
                   cols=["event_type", "n", "sum_value"])


def q_zorder_layout(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Z-order (Morton) data-layout keys: interleave the bits of the
    quantity bucket and the price bucket into one clustering key — the
    locality-preserving sort key behind Delta/Iceberg Z-ORDER BY — and
    profile the top-k 8-bit z-prefixes by row count.  The interleave is
    pure vectorized bit arithmetic per batch; prefix partials fold in
    one tiny combine."""

    def partial(batch: pa.Table) -> pa.Table:
        qb = batch["l_quantity"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        pb = np.floor(batch["l_extendedprice"].to_numpy(
            zero_copy_only=False) / 500.0).astype(np.int64)
        z = np.zeros(qb.size, dtype=np.int64)
        for i in range(8):
            z += (((qb >> i) & 1) << (2 * i + 1)) + (((pb >> i) & 1)
                                                     << (2 * i))
        pref = z >> 8
        ks, inv = np.unique(pref, return_inverse=True)
        return pa.table({
            "zprefix": pa.array(ks, pa.int64()),
            "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
            "sum_qty": pa.array(
                np.bincount(inv, weights=qb.astype(np.float64)),
                pa.float64()),
        })

    # the partial rows are already one per prefix; the group_by only merges
    out = _partial_agg(
        _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"]),
        "zprefix", {"n": ("n", "sum"), "sum_qty": ("sum_qty", "sum")}, partial)
    return _finish(out, ["n", "zprefix"], ints=["n"], r4=["sum_qty"],
                   ascending=[False, True]).head(k)


def q_shard_move_plan(sf_dir: str, n_nodes: int = 8) -> pd.DataFrame:
    """Shard-rebalancing plan when a node JOINS a rendezvous-hashed
    cluster (n → n+1): which keys move where.  HRW guarantees every
    moved key lands on the NEW node, so the plan is (from_node,
    n_moved) per source — computed in the same vectorized argmax pass
    as q_rendezvous_hashing, two assignments per batch, no shuffle.
    The oracle recomputes both assignments and diffs them."""
    M = 2_147_483_647

    j1 = np.arange(1, n_nodes + 2, dtype=np.int64)
    a = ((2654435761 * j1) % M)[None, :]
    b = ((40503 * j1) % M)[None, :]

    def plan(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)[:, None]
        hv = (a * ids + b) % M
        old = np.argmax(hv[:, :n_nodes], axis=1).astype(np.int64) + 1
        new = np.argmax(hv, axis=1).astype(np.int64) + 1
        moved = old != new
        ks, inv = np.unique(old[moved], return_inverse=True)
        return pa.table({
            "from_node": pa.array(ks, pa.int64()),
            "n_moved": pa.array(np.bincount(inv).astype(np.int64),
                                pa.int64()),
        })

    # the partial rows are already one per node; the group_by only merges
    out = _partial_agg(_read(sf_dir, "documents", ["doc_id"]), "from_node",
                       {"n_moved": ("n_moved", "sum")}, plan)
    return _finish(out, "from_node", ints=["from_node", "n_moved"])


def q_ohlc_daily(sf_dir: str) -> pd.DataFrame:
    """OHLC bar aggregation: per (event_type, day) the open (first
    value by ts, event_id), high, low, close (last value) — the
    order-dependent aggregate family (arg_min/arg_max) beyond
    commutative sums.  Each batch emits one candidate row per key
    carrying (first_ts/eid, open, ...) partials; the merge picks the
    globally earliest/latest candidates — associative, so it works as
    a two-level fold."""

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        val = batch["value"].to_numpy(zero_copy_only=False)
        day = (ts // 86_400_000_000) * 86_400_000_000
        key = pd.DataFrame({"event_type": et, "day": day, "ts": ts,
                            "eid": eid, "v": val})
        key = key.sort_values(["event_type", "day", "ts", "eid"])
        g = key.groupby(["event_type", "day"], as_index=False).agg(
            open_ts=("ts", "first"), open_eid=("eid", "first"),
            open=("v", "first"),
            close_ts=("ts", "last"), close_eid=("eid", "last"),
            close=("v", "last"),
            high=("v", "max"), low=("v", "min"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_read(sf_dir, "events",
                   ["event_type", "event_id", "ts", "value"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    parts = parts.sort_values(
        ["event_type", "day", "open_ts", "open_eid"])
    opens = parts.groupby(["event_type", "day"], as_index=False).agg(
        open=("open", "first"))
    parts2 = parts.sort_values(
        ["event_type", "day", "close_ts", "close_eid"],
        ascending=[True, True, False, False])
    closes = parts2.groupby(["event_type", "day"], as_index=False).agg(
        close=("close", "first"))
    hl = parts.groupby(["event_type", "day"], as_index=False).agg(
        high=("high", "max"), low=("low", "min"))
    out = opens.merge(closes, on=["event_type", "day"]).merge(
        hl, on=["event_type", "day"])
    for c in ("open", "high", "low", "close"):
        out[c] = out[c].round(6)
    out["day"] = pd.to_datetime(out["day"], unit="us")
    return out.sort_values(["event_type", "day"]).reset_index(drop=True)


def q_wilson_ci_rates(sf_dir: str, threshold: float = 100.0) -> pd.DataFrame:
    """Wilson score interval (z = 1.96) for each event type's
    high-value rate P(value > threshold) — the proportion CI a metrics
    layer reports instead of the unstable raw ratio.  (n, k) fold as
    per-batch partials; the closed-form interval is evaluated with the
    identical operation order in both engines."""

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        hi = (batch["value"].to_numpy(zero_copy_only=False)
              > threshold).astype(np.int64)
        ks, inv = np.unique(et, return_inverse=True)
        return pa.table({
            "event_type": pa.array(ks),
            "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
            "k": pa.array(np.bincount(inv, weights=hi).astype(np.int64),
                          pa.int64()),
        })

    # the partial rows are already one per type; the group_by only merges
    u = _partial_agg(_read(sf_dir, "events", ["event_type", "value"]),
                     "event_type", {"n": ("n", "sum"), "k": ("k", "sum")},
                     partial)
    z = 1.96
    n = u["n"].to_numpy(np.float64)
    p = u["k"].to_numpy(np.float64) / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / denom
    u["p"] = np.round(p, 6)
    u["ci_lo"] = np.round(center - half, 6)
    u["ci_hi"] = np.round(center + half, 6)
    return _finish(u, "event_type", ints=["n", "k"])


def q_psi_drift(sf_dir: str, type_a: str = "click",
                type_b: str = "error") -> pd.DataFrame:
    """Population Stability Index between two event types' value
    distributions — the binned drift metric monitoring teams pair with
    KS: decile bounds come from the BASELINE's exact discrete quantiles
    (sorted[ceil(q·n)−1]), both populations bucket against them, and
    PSI = Σ (pᵢ−qᵢ)·ln(pᵢ/qᵢ) over (count+0.5)/(n+5)-smoothed shares.
    Bucketing folds distributed (one vectorized searchsorted per
    batch against the broadcast bounds); only 10-bin count rows reach
    the driver."""

    def val_partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        m = et == type_a
        return pa.table({"v": pa.array(v[m], pa.float64())})

    base_vals = np.sort(
        (_read(sf_dir, "events", ["event_type", "value"])
         .map_batches(val_partial, batch_format="pyarrow")
         .to_pandas())["v"].to_numpy(np.float64))
    nb = base_vals.size
    qs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    bounds = np.array([base_vals[int(np.ceil(q * nb)) - 1] for q in qs])
    ref = ray.put(bounds)

    def bucket_partial(batch: pa.Table) -> pa.Table:
        bds = ray.get(ref)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        out = {"bin": pa.array(np.arange(10, dtype=np.int64), pa.int64())}
        for name, t in (("ca", type_a), ("cb", type_b)):
            vv = v[et == t]
            # bin = number of bounds strictly below the value (0..9)
            b = np.searchsorted(bds, vv, side="left")
            out[name] = pa.array(
                np.bincount(b, minlength=10).astype(np.int64),
                pa.int64())
        return pa.table(out)

    # the partial rows are already one per bin; the group_by only merges
    g = _partial_agg(_read(sf_dir, "events", ["event_type", "value"]), "bin",
                     {"ca": ("ca", "sum"), "cb": ("cb", "sum")}, bucket_partial)
    ca = g["ca"].to_numpy(np.float64)
    cb = g["cb"].to_numpy(np.float64)
    pa_ = (ca + 0.5) / (ca.sum() + 5)
    pb_ = (cb + 0.5) / (cb.sum() + 5)
    psi = float(((pa_ - pb_) * np.log(pa_ / pb_)).sum())
    out = pd.DataFrame({
        "psi": [round(psi, 6)],
        "n_a": pd.array([int(ca.sum())], dtype="int64"),
        "n_b": pd.array([int(cb.sum())], dtype="int64"),
    })
    return out


def q_seasonal_naive_mase(sf_dir: str, season: int = 7) -> pd.DataFrame:
    """Forecast-quality baseline: MASE of the seasonal-naive forecast
    (ŷ_d = y_{d−7}) of each type's daily mean, scaled by the one-step
    naive MAE — the sanity metric any forecasting pipeline reports
    before a model earns its keep.  Daily means fold distributed; the
    lag algebra runs on the (types × days) driver table."""
    daily = _daily(sf_dir, value=True)
    daily["m"] = daily["s"] / daily["n"]
    rows = []
    for etype, g in daily.groupby("event_type"):
        y = g.sort_values("day")["m"].to_numpy(np.float64)
        if y.size <= season:
            continue
        mae_seasonal = float(np.abs(y[season:] - y[:-season]).mean())
        mae_naive = float(np.abs(y[1:] - y[:-1]).mean())
        rows.append({
            "event_type": etype,
            "mase": round(mae_seasonal / mae_naive, 6),
            "mae_seasonal": round(mae_seasonal, 6),
            "n_days": y.size,
        })
    return _finish(pd.DataFrame(rows), "event_type", ints=["n_days"])


def _seg_nation_cells(sf_dir: str) -> pd.DataFrame:
    """Observed (mktsegment x nationkey) contingency counts, folded from
    per-batch partials (the chi2_independence count shape reused by the
    mutual-information and Cramer's-V ops)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "seg": batch["c_mktsegment"],
            "nat": pc.cast(batch["c_nationkey"], pa.int64()),
            "n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
        })
        return t.group_by(["seg", "nat"]).aggregate([("n", "sum")])

    cells = (_read(sf_dir, "customer", ["c_mktsegment", "c_nationkey"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby(["seg", "nat"])
             .aggregate(Sum("n_sum", alias_name="n"))
             .to_pandas())
    cells["n"] = cells["n"].astype("int64")
    return cells


def q_mutual_info(sf_dir: str) -> pd.DataFrame:
    """Mutual information between customer market segment and nation:
    per-cell pointwise MI ln(n*N / (nr*nc)) and contribution
    (n/N)*pmi — all ratios formed from exact integer counts so both
    engines feed ln() the same double.  The count shuffle is the only
    exchange; the seg x nat cell table is category-sized on the
    driver."""
    cells = _seg_nation_cells(sf_dir)
    total = int(cells["n"].sum())
    nr = cells.groupby("seg")["n"].sum()
    nc = cells.groupby("nat")["n"].sum()
    r = cells["seg"].map(nr).to_numpy(np.int64)
    c = cells["nat"].map(nc).to_numpy(np.int64)
    n = cells["n"].to_numpy(np.int64)
    pmi = np.log(n.astype(np.float64) * total / (r * c))
    cells["pmi"] = np.round(pmi, 6)
    cells["contrib"] = np.round(n / total * pmi, 6)
    return cells.sort_values(["seg", "nat"]).reset_index(drop=True)


def q_cramers_v(sf_dir: str) -> pd.DataFrame:
    """Cramer's V effect size for segment x nation: chi-square over the
    same distributed contingency counts, normalized by
    N * (min(rows, cols) - 1).  One summary row."""
    cells = _seg_nation_cells(sf_dir)
    total = int(cells["n"].sum())
    nr = cells.groupby("seg")["n"].sum()
    nc = cells.groupby("nat")["n"].sum()
    r = cells["seg"].map(nr).to_numpy(np.int64)
    c = cells["nat"].map(nc).to_numpy(np.int64)
    n = cells["n"].to_numpy(np.int64).astype(np.float64)
    e = r.astype(np.float64) * c / total
    chi2 = float(((n - e) * (n - e) / e).sum())
    kmin = min(nr.size, nc.size)
    return pd.DataFrame({
        "n_rows": pd.array([total], dtype="int64"),
        "n_cells": pd.array([len(cells)], dtype="int64"),
        "chi2": [round(chi2, 4)],
        "cramers_v": [round(float(np.sqrt(chi2 / (total * (kmin - 1)))), 6)],
    })


def _k_anon_groups(sf_dir: str, bal_bin: float = 2000.0) -> pd.DataFrame:
    """Quasi-identifier group sizes for the k-anonymity ops: customers
    keyed by (nationkey, mktsegment, floor(acctbal / bal_bin)) — the
    generalized release key.  Distributed partial counts, category-sized
    result."""

    def partial(batch: pa.Table) -> pa.Table:
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "nat": pc.cast(batch["c_nationkey"], pa.int64()),
            "seg": batch["c_mktsegment"],
            "bal_bin": pa.array(
                np.floor(bal / bal_bin).astype(np.int64), pa.int64()),
            "n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
        })
        return t.group_by(["nat", "seg", "bal_bin"]).aggregate([("n", "sum")])

    g = (_read(sf_dir, "customer",
               ["c_nationkey", "c_mktsegment", "c_acctbal"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["nat", "seg", "bal_bin"])
         .aggregate(Sum("n_sum", alias_name="n"))
         .to_pandas())
    g["n"] = g["n"].astype("int64")
    return g


def q_k_anonymity(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """k-anonymity release: quasi-identifier groups
    (nation, segment, acctbal bin) with fewer than ``k`` members are
    suppressed; the released table is every surviving group with its
    size — the privacy-preserving aggregation a training-data pipeline
    applies before publishing user-derived statistics."""
    g = _k_anon_groups(sf_dir)
    out = g[g["n"] >= k].sort_values(["nat", "seg", "bal_bin"])
    return out.reset_index(drop=True)


def q_k_anonymity_stats(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Suppression audit for the k-anonymity release: group and row
    counts on each side of the k threshold, worst released group size."""
    g = _k_anon_groups(sf_dir)
    rel = g[g["n"] >= k]
    sup = g[g["n"] < k]
    return pd.DataFrame({
        "groups_released": pd.array([len(rel)], dtype="int64"),
        "groups_suppressed": pd.array([len(sup)], dtype="int64"),
        "rows_released": pd.array([int(rel["n"].sum())], dtype="int64"),
        "rows_suppressed": pd.array([int(sup["n"].sum())], dtype="int64"),
        "min_released_size": pd.array(
            [int(rel["n"].min()) if len(rel) else 0], dtype="int64"),
    })


def q_ab_ztest(sf_dir: str, min_value: float = 150.0) -> pd.DataFrame:
    """Two-proportion z-test (pooled variance) between user cohorts
    A/B = user_id parity, conversion = the user has at least one
    'purchase' event with value > ``min_value`` (every user purchases
    SOMETHING in the synthetic stream, so the plain flag is degenerate
    1.0 both sides).  Per-user flags fold inside fused user partitions
    (a user never spans two partitions), so only cohort-sized counts
    reach the driver; z is formed from exact integer counts."""
    n_parts = _fused_parts(sf_dir, "events")

    def cohort_partial(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_p = np.logical_and(
            pc.equal(group["event_type"], "purchase").to_numpy(
                zero_copy_only=False),
            group["value"].to_numpy(zero_copy_only=False) > min_value)
        users, inv = np.unique(uid, return_inverse=True)
        conv = np.zeros(users.size, dtype=bool)
        np.logical_or.at(conv, inv, is_p)
        cohort = users % 2
        return pa.table({
            "cohort": pa.array(cohort, pa.int64()),
            "users": pa.array(np.ones(users.size, np.int64), pa.int64()),
            "converted": pa.array(conv.astype(np.int64), pa.int64()),
        }).group_by(["cohort"]).aggregate(
            [("users", "sum"), ("converted", "sum")])

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    ds = _with_part(ds, "user_id", n_parts)
    agg = (ds.groupby("part").map_groups(
        cohort_partial, batch_format="pyarrow").to_pandas()
        .groupby("cohort", as_index=False)
        .agg(users=("users_sum", "sum"), converted=("converted_sum", "sum")))
    na, xa = (int(agg.loc[agg["cohort"] == 0, c].sum())
              for c in ("users", "converted"))
    nb, xb = (int(agg.loc[agg["cohort"] == 1, c].sum())
              for c in ("users", "converted"))
    p = (xa + xb) / (na + nb)
    se = np.sqrt(p * (1 - p) * (1.0 / na + 1.0 / nb))
    z = (xa / na - xb / nb) / se
    return pd.DataFrame({
        "users_a": pd.array([na], dtype="int64"),
        "conv_a": pd.array([xa], dtype="int64"),
        "users_b": pd.array([nb], dtype="int64"),
        "conv_b": pd.array([xb], dtype="int64"),
        "rate_a": [round(xa / na, 6)],
        "rate_b": [round(xb / nb, 6)],
        "z": [round(float(z), 6)],
    })


def _lev_matrix(names: np.ndarray) -> np.ndarray:
    """All-pairs Levenshtein over the DISTINCT name array, vectorized
    across the pair axis: the DP runs L^2 numpy steps (L = max length,
    short attribute strings) regardless of how many pairs there are.
    Returns the full symmetric distance matrix."""
    k = names.size
    L = max((len(s) for s in names), default=0)
    enc = np.zeros((k, L), dtype=np.int32)
    ln = np.zeros(k, dtype=np.int64)
    for i, s in enumerate(names):
        b = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
        enc[i, :b.size] = b
        ln[i] = b.size
    ia, ib = np.triu_indices(k, 1)
    A, B = enc[ia], enc[ib]
    la, lb = ln[ia], ln[ib]
    P = ia.size
    res = np.zeros(P, dtype=np.int64)
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (P, 1))
    done = la == 0
    res[done] = lb[done]
    for i in range(1, L + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, L + 1):
            sub = prev[:, j - 1] + (A[:, i - 1] != B[:, j - 1])
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), sub)
        hit = ln[ia] == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    d = np.zeros((k, k), dtype=np.int64)
    d[ia, ib] = res
    d[ib, ia] = res
    return d


def q_er_blocking(sf_dir: str) -> pd.DataFrame:
    """Entity-resolution blocking + pairwise edit-distance match: parts
    are blocked by brand, and within each block pair similarity is
    exact Levenshtein over p_name.  The scale design exploits attribute
    redundancy: each block first collapses to DISTINCT (name, count), the
    O(L^2)-step vectorized DP runs over distinct-name pairs only, and
    duplicate-pair counts recover exactly via count products
    (C(c,2) within a name, c_i*c_j across) — so the quadratic work is in
    distinct values, not rows.  Per-brand audit row: items, total pairs,
    and pair counts at distance 0 / <=1 / <=2."""
    def block_stats(group: pa.Table) -> pa.Table:
        brand = group["p_brand"][0].as_py()
        names, counts = np.unique(
            group["p_name"].to_numpy(zero_copy_only=False), return_counts=True)
        counts = counts.astype(np.int64)
        n = int(counts.sum())
        d = _lev_matrix(names)
        ia, ib = np.triu_indices(names.size, 1)
        cross = counts[ia] * counts[ib]
        d0 = int((counts * (counts - 1) // 2).sum())
        dists = d[ia, ib]
        d1 = d0 + int(cross[dists <= 1].sum())
        d2 = d0 + int(cross[dists <= 2].sum())
        return pa.table({
            "brand": pa.array([brand], pa.string()),
            "n_items": pa.array([n], pa.int64()),
            "pairs": pa.array([n * (n - 1) // 2], pa.int64()),
            "dup_d0": pa.array([d0], pa.int64()),
            "dup_le1": pa.array([d1], pa.int64()),
            "dup_le2": pa.array([d2], pa.int64()),
        })

    out = (_read(sf_dir, "part", ["p_brand", "p_name"])
           .groupby("p_brand")
           .map_groups(block_stats, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("brand").reset_index(drop=True)


def q_holt_forecast(sf_dir: str, alpha: float = 0.5, beta: float = 0.3,
                    horizon: int = 7) -> pd.DataFrame:
    """Holt double-exponential (level+trend) smoothing of the DAILY
    EVENT COUNT per type, with an h-step linear forecast.  The heavy
    part — the daily histogram — folds distributed; the O(n_days)
    recurrence runs on the driver from exact integer day counts, in the
    same expression order the oracle's recursive CTE states, so both
    engines walk identical IEEE doubles.  Init l1 = y1, b1 = y2 - y1."""
    rows = []
    for etype, g in _daily(sf_dir).groupby("event_type"):
        y = g.sort_values("day")["n"].to_numpy(np.float64)
        if y.size < 2:
            continue
        lvl = y[0]
        trd = y[1] - y[0]
        for t in range(1, y.size):
            new_l = alpha * y[t] + (1 - alpha) * (lvl + trd)
            trd = beta * (new_l - lvl) + (1 - beta) * trd
            lvl = new_l
        rows.append({
            "event_type": etype,
            "n_days": int(y.size),
            "level": round(float(lvl), 6),
            "trend": round(float(trd), 6),
            "forecast_7": round(float(lvl + horizon * trd), 6),
        })
    return _finish(pd.DataFrame(rows), "event_type", ints=["n_days"])


def q_hierarchy_rollup(sf_dir: str, max_key: int = 63) -> pd.DataFrame:
    """Hierarchical (recursive-CTE-shaped) subtree rollup over the
    synthetic customer org tree parent(c) = c // 2 (c=0 is the root —
    a binary-heap hierarchy derived arithmetically so no edge table is
    needed).  Each batch EXPLODES every node into its ancestor chain
    (O(log n) vectorized halving steps) emitting (ancestor, 1, acctbal)
    contributions, pre-aggregated per batch; one ancestor-keyed shuffle
    then yields subtree size and balance — the distributed transitive
    closure + rollup, linear in nodes x depth, no joins.  Depth falls
    out of the same loop.  Reported for the top of the tree
    (c_custkey < ``max_key``)."""

    def explode_ancestors(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        ancs = [ck]
        bals = [bal]
        depth = np.zeros(ck.size, dtype=np.int64)
        cur, cbal, idx = ck, bal, np.arange(ck.size)
        while cur.size and (cur > 0).any():
            m = cur > 0
            cur, cbal, idx = cur[m] // 2, cbal[m], idx[m]
            depth[idx] += 1
            ancs.append(cur)
            bals.append(cbal)
        t = pa.table({
            "anc": pa.array(np.concatenate(ancs), pa.int64()),
            "size": pa.array(
                np.ones(sum(a.size for a in ancs), np.int64), pa.int64()),
            "bal": pa.array(np.concatenate(bals), pa.float64()),
        })
        return t.group_by(["anc"]).aggregate([("size", "sum"), ("bal", "sum")])

    agg = (_read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
           .map_batches(explode_ancestors, batch_format="pyarrow")
           .groupby("anc")
           .aggregate(Sum("size_sum", alias_name="subtree_size"),
                      Sum("bal_sum", alias_name="subtree_bal"))
           .to_pandas())
    agg = agg[agg["anc"] < max_key].rename(columns={"anc": "c_custkey"})
    keys = agg["c_custkey"].to_numpy(np.int64)
    # depth(n) = bit_length(n): halvings to reach 0
    agg["depth"] = np.ceil(np.log2(keys + 1)).astype(np.int64)
    return _finish(agg, "c_custkey", ints=["subtree_size"], r4=["subtree_bal"],
                   cols=["c_custkey", "depth", "subtree_size", "subtree_bal"])


def q_partition_checksums(sf_dir: str) -> pd.DataFrame:
    """Merkle-style partition integrity checksums: each DAY partition of
    the event stream hashes its rows in canonical form (event_id order,
    integer-only field encoding: id|user|type|epoch_us|cents) to one
    sha256 — the per-partition fingerprint a resumable 100 TB writer
    stores next to each output shard so replicas / re-runs can be
    verified without row-level diffing.  groupby(day) keeps each
    partition's hash local; only (day, n_rows, sha) rows move."""

    def checksum(group: pa.Table) -> pa.Table:
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        us = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        cents = np.round(
            group["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        order = np.argsort(eid)
        cols = [eid[order].astype("U"), uid[order].astype("U"),
                et[order].astype("U"), us[order].astype("U"),
                cents[order].astype("U")]
        joined = cols[0]
        for c in cols[1:]:
            joined = np.char.add(np.char.add(joined, "|"), c)
        lines = "\n".join(joined.tolist())
        day = us.min() // 86_400_000_000 * 86_400_000_000
        return pa.table({
            "day": pa.array(np.array([day], "int64").astype(
                "datetime64[us]"), pa.timestamp("us")),
            "n_rows": pa.array([len(eid)], pa.int64()),
            "sha": pa.array(
                [hashlib.sha256(lines.encode()).hexdigest()], pa.string()),
        })

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])
    ds = ds.map_batches(
        lambda b: b.append_column(
            "day",
            pc.cast(pc.floor_temporal(b["ts"], unit="day"),
                    pa.timestamp("us"))),
        batch_format="pyarrow")
    out = (ds.groupby("day").map_groups(checksum, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("day").reset_index(drop=True)


def q_winsorized_mean(sf_dir: str, lo_q: float = 0.05,
                      hi_q: float = 0.95) -> pd.DataFrame:
    """Winsorized (clipped) mean per event_type: values below the exact
    p05 / above the exact p95 order statistics (quantile_disc semantics
    sorted[ceil(q*n)-1], the iqr_outliers calibration) are clamped to the
    fence before averaging — the robust-mean preprocessing a quality
    pipeline applies to heavy-tailed signals.  Low-cardinality partition
    -> per-type map_groups sort."""

    def winsorize(group: pa.Table) -> pa.Table:
        v = np.sort(group["value"].to_numpy(zero_copy_only=False))
        n = v.size
        p_lo = v[int(np.ceil(lo_q * n)) - 1]
        p_hi = v[int(np.ceil(hi_q * n)) - 1]
        w = np.clip(v, p_lo, p_hi)
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()]),
            "n": pa.array([n], pa.int64()),
            "p_lo": pa.array([round(float(p_lo), 6)], pa.float64()),
            "p_hi": pa.array([round(float(p_hi), 6)], pa.float64()),
            "n_clipped": pa.array(
                [int(((v < p_lo) | (v > p_hi)).sum())], pa.int64()),
            "mean_raw": pa.array(
                [round(float(v.sum() / n), 6)], pa.float64()),
            "mean_winsorized": pa.array(
                [round(float(w.sum() / n), 6)], pa.float64()),
        })

    out = (_read(sf_dir, "events", ["event_type", "value"])
           .groupby("event_type").map_groups(
               winsorize, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("event_type").reset_index(drop=True)


def q_compaction_plan(sf_dir: str, capacity: int = 1200) -> pd.DataFrame:
    """Small-files compaction planning: day partitions of the event
    stream (sizes = row counts) are greedily packed, in day order, into
    compaction bins of at most ``capacity`` rows (a bin closes when the
    next file would overflow it) — the deterministic merge plan an
    object-store compactor executes.  Daily sizes fold distributed; the
    O(n_days) greedy runs on the driver in the same order the oracle's
    recursive CTE replays."""
    daily = _daily(sf_dir, keys=())
    bins, accs = [], []
    b, acc = 1, 0
    for sz in daily["n"]:
        if acc + sz > capacity and acc > 0:
            b += 1
            acc = 0
        acc += int(sz)
        bins.append(b)
        accs.append(acc)
    daily["bin"] = pd.array(bins, dtype="int64")
    daily["bin_fill"] = pd.array(accs, dtype="int64")
    daily["n"] = daily["n"].astype("int64")
    return daily


def q_rolling_median_smooth(sf_dir: str, window: int = 7,
                            spike: float = 8.0) -> pd.DataFrame:
    """Robust rolling-median smoothing of the daily mean value per
    event_type: a centered ``window``-day median with ragged edges,
    flagging days that deviate from their window median by more than
    ``spike`` — the median-filter despiking pass of a metrics pipeline.
    The median is reported DOUBLED in integer micro-units (med2_micro):
    an even-count median is the average of two 6-dp values, which lands
    exactly on the .5e-6 rounding boundary where DuckDB (half-away) and
    numpy (half-even) disagree — doubling keeps every intermediate an
    exact integer in both engines.  Daily means fold distributed; the
    rolling pass is O(days x types) on the driver."""
    half = window // 2
    daily = _daily(sf_dir, value=True)
    daily["m"] = (daily["s"] / daily["n"]).round(6)
    spike2 = int(round(2 * spike * 1_000_000))
    rows = []
    for etype, g in daily.groupby("event_type"):
        g = g.sort_values("day").reset_index(drop=True)
        m = g["m"].to_numpy(np.float64)
        mi = np.round(m * 1_000_000).astype(np.int64)
        for i in range(len(g)):
            w = mi[max(0, i - half): i + half + 1]
            med2 = int(round(2 * float(np.median(w))))
            rows.append({
                "event_type": etype, "day": g["day"].iloc[i],
                "m": round(float(m[i]), 6), "med2_micro": med2,
                "is_spike": bool(abs(2 * int(mi[i]) - med2) > spike2),
            })
    return _finish(pd.DataFrame(rows), ["event_type", "day"],
                   ints=["med2_micro"])


def q_clamped_balance(sf_dir: str, top: int = 25) -> pd.DataFrame:
    """Clamped prefix scan (inventory/credit semantics): per user, a
    running balance over the event stream — purchases add value, every
    other event drains it — FLOORED AT ZERO after each step.  The clamp
    looks irreducible to window functions, but has the closed form
    bal_t = S_t - min(0, min_{k<=t} S_k), and a clamp fires exactly when
    S_t is a new strict minimum below zero — so both engines express it
    as cumsum + running min (vectorized here, window functions in the
    oracle).  All arithmetic runs in integer CENTS: an external engine's
    windowed sums need not accumulate sequentially, so float prefix sums
    are not comparison-safe.  Fused user partitions; only (user, final
    balance, clamp count) rows leave the cluster.  Top ``top`` users by
    final balance (user asc ties)."""
    n_parts = _fused_parts(sf_dir, "events")

    def scan_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, val, et = uid[order], val[order], et[order]
        cents = np.round(val * 100).astype(np.int64)
        delta = np.where(et == "purchase", cents, -cents)
        users, starts = np.unique(uid, return_index=True)
        out_u, out_b, out_c = [], [], []
        bounds = np.append(starts, uid.size)
        for k in range(users.size):
            d = delta[bounds[k]:bounds[k + 1]]
            s = np.cumsum(d)
            m = np.minimum.accumulate(s)
            prevmin = np.minimum(
                0, np.concatenate(([np.int64(0)], m[:-1])))
            out_u.append(int(users[k]))
            out_b.append(int(s[-1] - min(0, int(m[-1]))))
            out_c.append(int((s < prevmin).sum()))
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "balance_cents": pa.array(out_b, pa.int64()),
            "n_clamps": pa.array(out_c, pa.int64()),
        })

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])
    ds = _with_part(ds, "user_id", n_parts)
    out = (ds.groupby("part").map_groups(
        scan_partition, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["balance_cents", "user_id"],
                          ascending=[False, True]).head(top)
    return out.reset_index(drop=True)


def q_theil_sen(sf_dir: str) -> pd.DataFrame:
    """Theil-Sen robust trend per event_type: the median of all pairwise
    slopes of the (day index, daily mean) series.  Slopes are kept in
    DOUBLED integer micro-units (the rolling_median_smooth boundary
    rule: an even-count median averages two values and lands on the
    .5e-6 half-rounding boundary where the engines' round() modes
    differ).  Daily means fold distributed; the O(days^2) pair set is
    per-type tiny and replayed identically by the oracle's self-join."""
    daily = _daily(sf_dir, value=True)
    daily["m"] = (daily["s"] / daily["n"]).round(6)
    rows = []
    for etype, g in daily.groupby("event_type"):
        g = g.sort_values("day").reset_index(drop=True)
        mi = np.round(g["m"].to_numpy(np.float64) * 1_000_000).astype(
            np.int64)
        ia, ib = np.triu_indices(mi.size, 1)
        # exact-integer numerator / integer gap: one float division,
        # identical in both engines; never rounded mid-stream
        sl = (mi[ib] - mi[ia]).astype(np.float64) / (ib - ia)
        med2 = 2.0 * float(np.median(sl))
        rows.append({
            "event_type": etype,
            "n_pairs": int(sl.size),
            "slope2_micro": round(med2, 6),
        })
    return _finish(pd.DataFrame(rows), "event_type", ints=["n_pairs"])


def _bit_length(z: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for non-negative int64 < 2^53:
    frexp's exponent IS the bit length for exactly-representable ints
    (no log2 rounding concerns); 0 -> 1 bit by convention."""
    _, e = np.frexp(z.astype(np.float64))
    return np.where(z == 0, 1, e).astype(np.int64)


def q_ts_dod_bits(sf_dir: str) -> pd.DataFrame:
    """Gorilla-style delta-of-delta timestamp compression profile: per
    user, timestamps (ts, event_id order) cost 64 bits for the first
    value, then bit_length(zigzag(x)) + 6 header bits for the first
    delta and every delta-of-delta — the integer-exact size model of a
    time-series block codec (Facebook Gorilla, VLDB'15), the timestamp
    sibling of the posting-codec size profiles.  Fused user partitions,
    vectorized diffs; one 150-row audit table leaves the cluster."""
    n_parts = _fused_parts(sf_dir, "events")

    def dod_partition(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        users, starts = np.unique(uid, return_index=True)
        bounds = np.append(starts, uid.size)
        out_u, out_n, out_bits = [], [], []
        for k in range(users.size):
            t = ts[bounds[k]:bounds[k + 1]]
            if t.size > 1:
                deltas = np.diff(t)
                # stream = [delta_1, dod_2, dod_3, ...]
                stream = np.concatenate(([deltas[0]], np.diff(deltas)))
            else:
                stream = np.empty(0, np.int64)
            zig = np.where(stream >= 0, 2 * stream, -2 * stream - 1)
            bits = 64 + int((_bit_length(zig) + 6).sum())
            out_u.append(int(users[k]))
            out_n.append(int(t.size))
            out_bits.append(bits)
        raw = 64 * np.asarray(out_n, np.int64)
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "n_events": pa.array(out_n, pa.int64()),
            "dod_bits": pa.array(out_bits, pa.int64()),
            "ratio": pa.array(
                np.round(raw / np.asarray(out_bits, np.float64), 6),
                pa.float64()),
        })

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    ds = _with_part(ds, "user_id", n_parts)
    out = (ds.groupby("part").map_groups(
        dod_partition, batch_format="pyarrow").to_pandas())
    return out.sort_values("user_id").reset_index(drop=True)


def q_kleinberg_burst(sf_dir: str, rate_mult: float = 2.0,
                      gamma: float = 1.0) -> pd.DataFrame:
    """Kleinberg 2-state burst detection (KDD'02) over the daily event
    count per type: a Viterbi forward pass with base state rate p0 = the
    type's mean daily count, burst state rate p1 = ``rate_mult`` * p0,
    per-day Poisson cost p - y*ln(p) (the y! term is state-independent
    and dropped), and transition penalty ``gamma`` charged on 0->1.
    Both engines walk the identical sequential recurrence — here on the
    driver over the distributed daily histogram, in the oracle as a
    recursive CTE — so the min() comparisons see bit-identical doubles.
    Per type: final costs and the count of days the burst state led."""
    rows = []
    for etype, g in _daily(sf_dir).groupby("event_type"):
        y = g.sort_values("day")["n"].to_numpy(np.float64)
        n = y.size
        p0 = y.sum() / n
        p1 = rate_mult * p0
        c0, c1 = 0.0, gamma
        burst_led = 0
        for t in range(n):
            e0 = p0 - y[t] * np.log(p0)
            e1 = p1 - y[t] * np.log(p1)
            n0 = min(c0, c1) + e0
            n1 = min(c0 + gamma, c1) + e1
            c0, c1 = n0, n1
            if c1 < c0:
                burst_led += 1
        rows.append({
            "event_type": etype,
            "n_days": int(n),
            "cost_base": round(float(c0), 6),
            "cost_burst": round(float(c1), 6),
            "burst_days": int(burst_led),
        })
    return _finish(pd.DataFrame(rows), "event_type",
                   ints=["n_days", "burst_days"])


def q_zone_map_prune(sf_dir: str, lo: float = 80.0,
                     hi: float = 120.0) -> pd.DataFrame:
    """Zone-map (row-group min/max) pruning audit under a VALUE-CLUSTERED
    layout: partitions are floor(value / 50) buckets (what a sort-key /
    Z-order rewrite of the table would produce), each reporting its
    min/max sketch and whether a scan with predicate ``value BETWEEN lo
    AND hi`` skips it entirely (max < lo or min > hi).  On the raw
    time-partitioned layout NOTHING is prunable (every day spans the
    full value range) — this op quantifies exactly what the Z-order
    layout-profiling key argues for.  One distributed min/max groupby;
    the audit table is partition-count-sized."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "val_bucket": pa.array(
                np.floor(v / 50.0).astype(np.int64), pa.int64()),
            "lo_v": batch["value"],
            "hi_v": batch["value"],
            "n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
        })
        return t.group_by(["val_bucket"]).aggregate(
            [("lo_v", "min"), ("hi_v", "max"), ("n", "sum")])

    agg = (_read(sf_dir, "events", ["value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("val_bucket")
           .aggregate(Min("lo_v_min", alias_name="min_v"),
                      Max("hi_v_max", alias_name="max_v"),
                      Sum("n_sum", alias_name="n"))
           .to_pandas())
    agg["min_v"] = agg["min_v"].round(6)
    agg["max_v"] = agg["max_v"].round(6)
    agg["prunable"] = (agg["max_v"] < lo) | (agg["min_v"] > hi)
    return _finish(agg, "val_bucket", ints=["n", "val_bucket"],
                   cols=["val_bucket", "n", "min_v", "max_v", "prunable"])


def q_kmv_distinct(sf_dir: str, k: int = 64) -> pd.DataFrame:
    """KMV (k-minimum-values) distinct-count sketch over lineitem part
    keys: h(key) = first-12-hex(sha256(key)) / 16^12 maps keys uniformly
    to [0,1); the sketch keeps the k smallest hashes and estimates
    |distinct| = (k-1) / h_(k) (Bar-Yossef et al. 2002) — the third
    mergeable distinct sketch next to HLL and the bloom stats.  Each
    batch emits its k smallest hashes (bounded partials), the driver
    merge is k-sized, and the oracle recomputes the identical sha-based
    hashes so the estimate is bit-reproducible, alongside the exact
    count it approximates."""

    def partial(batch: pa.Table) -> pa.Table:
        keys = np.unique(
            batch["l_partkey"].to_numpy(zero_copy_only=False).astype(
                np.int64))
        h = np.fromiter(
            (int(hashlib.sha256(str(x).encode()).hexdigest()[:12], 16)
             for x in keys), np.int64, keys.size)
        h = np.unique(h)[:k]
        return pa.table({"h": pa.array(h, pa.int64())})

    parts = (_read(sf_dir, "lineitem", ["l_partkey"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    merged = np.unique(parts["h"].to_numpy(np.int64))[:k]
    hk = float(merged[-1]) / float(16 ** 12)
    est = (len(merged) - 1) / hk
    exact = int(_read(sf_dir, "lineitem", ["l_partkey"])
                .map_batches(
                    lambda b: pa.table({
                        "k": pa.array(np.unique(
                            b["l_partkey"].to_numpy(zero_copy_only=False)
                            .astype(np.int64)), pa.int64())}),
                    batch_format="pyarrow")
                .groupby("k").count().count())
    return pd.DataFrame({
        "k": pd.array([len(merged)], dtype="int64"),
        "exact_distinct": pd.array([exact], dtype="int64"),
        "kmv_estimate": [round(est, 4)],
        "rel_error": [round(abs(est - exact) / exact, 6)],
    })


def q_orphan_keys(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity (late-arriving dimension) audit: with the
    customer dimension snapshotted to its non-negative-balance members,
    each order month reports how many orders reference a key missing
    from the snapshot — the orphan/quarantine rate an incremental
    warehouse load monitors before applying fact batches.  The present-
    key set broadcasts once (dimension-sized); the probe is a sorted
    searchsorted membership per batch."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).to_pandas()
    present = np.sort(
        cust.loc[cust["c_acctbal"] >= 0, "c_custkey"].to_numpy(np.int64))
    ref = ray.put(present)

    def audit(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        hit, _ = _sorted_lookup(ks, ck)
        month = pc.cast(pc.floor_temporal(batch["o_orderdate"],
                                          unit="month"),
                        pa.timestamp("us"))
        return pa.table({
            "month": month,
            "orphan": pa.array((~hit).astype(np.int64), pa.int64()),
        })

    # count of the non-null key column = the group's row count
    out = _partial_agg(_read(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
                       "month", {"n": ("month", "count"),
                                 "orphans": ("orphan", "sum")}, audit)
    out["orphan_rate"] = (out["orphans"] / out["n"]).round(6)
    return _finish(out, "month", ints=["n", "orphans"])


def q_cumulative_users(sf_dir: str) -> pd.DataFrame:
    """Running DISTINCT count (cumulative unique (user, event_type)
    pairs by day — every user is active on day one, so the PAIR curve is
    the non-degenerate growth metric) — the growth-accounting scan that
    naive windowing cannot express without re-scanning every prefix.
    Distributed shape: one groupby computes each pair's FIRST-SEEN day
    (pair-keyed shuffle), the day histogram of first-seens folds to the
    driver (O(days)), and the cumulative sum of that histogram IS the
    running distinct count — linear, no prefix re-scans, the same trick
    Heaps-law vocabulary growth uses."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["ts"], unit="day"),
                      pa.timestamp("us"))
        t = pa.table({"user_id": batch["user_id"],
                      "event_type": batch["event_type"],
                      "first_day": day})
        return t.group_by(["user_id", "event_type"]).aggregate(
            [("first_day", "min")])

    first = (_read(sf_dir, "events", ["user_id", "event_type", "ts"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby(["user_id", "event_type"])
             .aggregate(Min("first_day_min", alias_name="first_day"))
             .to_pandas())
    hist = (first.groupby("first_day").size()
            .reset_index(name="new_pairs").sort_values("first_day"))
    hist["cum_pairs"] = hist["new_pairs"].cumsum()
    hist[["new_pairs", "cum_pairs"]] = hist[
        ["new_pairs", "cum_pairs"]].astype("int64")
    return (hist.rename(columns={"first_day": "day"})
            .reset_index(drop=True))


def q_decayed_counts(sf_dir: str, half_life_days: float = 7.0) -> pd.DataFrame:
    """Exponentially time-decayed event counters (the streaming 'hot
    now' statistic): each event contributes 0.5^(age_days / half_life)
    as of the stream's max day — a closed-form weighted sum, so the
    distributed fold is exact and order-free: per-batch (type, age-day)
    partials, then one weighted driver combine over the (type x day)
    histogram.  Ages are whole days from integer-µs floors; the weight
    expression 0.5^(age / half_life) is evaluated identically by the
    oracle."""

    def partial(batch: pa.Table) -> pa.Table:
        t = _add_day(batch).append_column(
            "n", pa.array(np.ones(batch.num_rows, np.int64), pa.int64()))
        return t.group_by(["event_type", "day"]).aggregate([("n", "sum")])

    daily = (_read(sf_dir, "events", ["event_type", "ts"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Sum("n_sum", alias_name="n"))
             .to_pandas())
    max_day = daily["day"].max()
    age = (max_day - daily["day"]).dt.days.to_numpy(np.float64)
    w = np.power(0.5, age / half_life_days)
    daily["wn"] = w * daily["n"].to_numpy(np.float64)
    out = (daily.groupby("event_type", as_index=False)
           .agg(n_total=("n", "sum"), decayed=("wn", "sum")))
    out["decayed"] = out["decayed"].round(6)
    return _finish(out, "event_type", ints=["n_total"])


def q_geo_harmonic_means(sf_dir: str) -> pd.DataFrame:
    """Geometric and harmonic means per event_type — the two non-
    arithmetic Pythagorean means as distributed aggregates: both reduce
    to plain SUMS (of ln(x) and 1/x), so the partial-aggregate shuffle
    is identical to any sum fold and the nonlinearity happens once per
    group on the driver.  Values are strictly positive in this stream,
    the precondition both means require."""

    def prep(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": batch["event_type"],
            "ln": pa.array(np.log(v), pa.float64()),
            "inv": pa.array(1.0 / v, pa.float64()),
        })

    # count of the non-null key column = the group's row count
    agg = _partial_agg(_read(sf_dir, "events", ["event_type", "value"]),
                       "event_type", {"n": ("event_type", "count"),
                                      "sum_ln": ("ln", "sum"),
                                      "sum_inv": ("inv", "sum")}, prep)
    agg["geo_mean"] = np.round(np.exp(agg["sum_ln"] / agg["n"]), 4)
    agg["harm_mean"] = np.round(agg["n"] / agg["sum_inv"], 4)
    return _finish(agg, "event_type", ints=["n"],
                   cols=["event_type", "n", "geo_mean", "harm_mean"])


def q_weighted_median(sf_dir: str) -> pd.DataFrame:
    """Weighted (lower) median: per market segment, the order total
    price at which the running o_totalprice-weighted mass first reaches
    half the segment's total — i.e. each order votes with its own value.
    Discrete lower-median definition (first row with cumweight >=
    total/2 under (price, orderkey) order) so both engines pick an
    actual data value, no interpolation ambiguity.  Low-cardinality
    segment partition -> per-segment vectorized sort + cumsum."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    sg, seg_codes = np.unique(cust["c_mktsegment"], return_inverse=True)
    ref = _keyed_side(cust, "c_custkey", seg_codes)

    def tag(batch: pa.Table) -> pa.Table:
        ks, codes = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        hit, idx = _sorted_lookup(ks, ck)
        return pa.table({
            "seg": pa.array(sg[codes[idx[hit]]]),
            "price": pc.filter(batch["o_totalprice"], pa.array(hit)),
            "okey": pc.filter(batch["o_orderkey"], pa.array(hit)),
        })

    def wmedian(group: pa.Table) -> pa.Table:
        p = group["price"].to_numpy(zero_copy_only=False)
        k = group["okey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.round(p * 100).astype(np.int64)
        order = np.lexsort((k, cents))
        cents = cents[order]
        cum = np.cumsum(cents)
        total = cum[-1]
        # first row where 2*cum >= total (integer comparison, no halves)
        i = int(np.searchsorted(2 * cum, total))
        return pa.table({
            "seg": pa.array([group["seg"][0].as_py()], pa.string()),
            "n": pa.array([p.size], pa.int64()),
            "wmedian": pa.array([cents[i] / 100.0], pa.float64()),
        })

    out = (_read(sf_dir, "orders",
                 ["o_custkey", "o_orderkey", "o_totalprice"])
           .map_batches(tag, batch_format="pyarrow")
           .groupby("seg").map_groups(wmedian, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("seg").reset_index(drop=True)


def q_kaplan_meier(sf_dir: str) -> pd.DataFrame:
    """Kaplan-Meier survival over (user, event_type) engagement
    lifetimes: lifetime = whole days between a pair's first and last
    event; pairs still active on the stream's final day are
    right-censored (per-user lifetimes are degenerate here — every user
    spans the whole stream — so the pair panel is the informative
    cohort).  S(t) = prod over event times
    <= t of (1 - d_i / n_i), computed as exp(sum(ln ..)) so the product
    is a plain cumulative-sum window in both engines.  The per-user
    lifetime fold is one user-keyed groupby; the KM table is
    O(distinct lifetimes)."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["ts"], unit="day"),
                      pa.timestamp("us"))
        t = pa.table({"user_id": batch["user_id"],
                      "event_type": batch["event_type"],
                      "lo": day, "hi": day})
        return t.group_by(["user_id", "event_type"]).aggregate(
            [("lo", "min"), ("hi", "max")])

    users = (_read(sf_dir, "events", ["user_id", "event_type", "ts"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby(["user_id", "event_type"])
             .aggregate(Min("lo_min", alias_name="lo"),
                        Max("hi_max", alias_name="hi"))
             .to_pandas())
    max_day = users["hi"].max()
    users["lifetime"] = (users["hi"] - users["lo"]).dt.days
    users["censored"] = users["hi"] == max_day
    km = (users.groupby("lifetime")
          .agg(d=("censored", lambda s: int((~s).sum())),
               c=("censored", "sum"))
          .reset_index().sort_values("lifetime"))
    n_total = len(users)
    at_risk = n_total - np.concatenate(
        ([0], np.cumsum((km["d"] + km["c"]).to_numpy())[:-1]))
    km["n_risk"] = at_risk
    keep = km["d"] > 0
    ln_terms = np.where(keep, np.log(1 - km["d"] / km["n_risk"]), 0.0)
    km["surv"] = np.round(np.exp(np.cumsum(ln_terms)), 6)
    km = km[keep]
    for c in ("lifetime", "d", "c", "n_risk"):
        km[c] = km[c].astype("int64")
    return (km[["lifetime", "n_risk", "d", "c", "surv"]]
            .reset_index(drop=True))


def q_hhi_concentration(sf_dir: str) -> pd.DataFrame:
    """Herfindahl-Hirschman concentration of event value across users,
    per event_type: HHI = sum over users of (user share of the type's
    total value)^2 — the market-concentration audit of a traffic
    stream.  Per-(type,user) sums fold inside the one shuffle; shares
    square on the driver over the (type x user)-sized table."""
    agg = _partial_agg(_read(sf_dir, "events", ["event_type", "user_id", "value"]),
                       ["event_type", "user_id"], {"v": ("value", "sum")})
    rows = []
    for etype, g in agg.groupby("event_type"):
        tot = g["v"].sum()
        sh = g["v"].to_numpy(np.float64) / tot
        rows.append({
            "event_type": etype,
            "n_users": int(len(g)),
            "hhi": round(float((sh * sh).sum()), 6),
        })
    return _finish(pd.DataFrame(rows), "event_type", ints=["n_users"])


def q_cross_correlation(sf_dir: str, type_a: str = "view",
                        type_b: str = "purchase",
                        max_lag: int = 5) -> pd.DataFrame:
    """Cross-correlation function between two event types' daily-count
    series at lags -max_lag..max_lag (does 'view' volume lead
    'purchase' volume?): Pearson r over the overlapping day window at
    each lag, from exact integer daily counts — the lead-lag diagnostic
    next to the existing single-series autocorrelation.  Daily
    histograms fold distributed; the O(days x lags) pass is driver-side
    arithmetic the oracle replays with a self-join on shifted day
    indices."""
    daily = _daily(sf_dir)
    days = sorted(daily["day"].unique())
    idx = {d: i for i, d in enumerate(days)}
    a = np.zeros(len(days))
    b = np.zeros(len(days))
    for _, r in daily[daily["event_type"] == type_a].iterrows():
        a[idx[r["day"]]] = r["n"]
    for _, r in daily[daily["event_type"] == type_b].iterrows():
        b[idx[r["day"]]] = r["n"]
    rows = []
    for lag in range(-max_lag, max_lag + 1):
        # correlate a[t] with b[t + lag]
        if lag >= 0:
            x, y = a[: len(a) - lag], b[lag:]
        else:
            x, y = a[-lag:], b[: len(b) + lag]
        n = float(x.size)
        sx, sy = x.sum(), y.sum()
        sxy, sxx, syy = (x * y).sum(), (x * x).sum(), (y * y).sum()
        num = n * sxy - sx * sy
        den = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        rows.append({"lag": lag, "n_days": int(n),
                     "r": round(float(num / den), 6)})
    return _finish(pd.DataFrame(rows), "lag", ints=["lag", "n_days"])


def q_blocking_quality(sf_dir: str) -> pd.DataFrame:
    """Blocking-strategy evaluation (the standard record-linkage
    metrics): with true duplicates = exact p_name matches anywhere in
    the part table, brand blocking is scored by reduction ratio
    RR = 1 - blocked_pairs / all_pairs and pair completeness
    PC = true-dup pairs caught inside blocks / all true-dup pairs.
    Everything reduces to count arithmetic over (name), (brand) and
    (brand, name) group sizes — three distributed count folds, pair
    counts via C(c,2) sums, no pair materialization anywhere."""

    def counts(cols):
        def partial(batch: pa.Table) -> pa.Table:
            t = batch.select(cols).append_column(
                "c", pa.array(np.ones(batch.num_rows, np.int64),
                              pa.int64()))
            return t.group_by(cols).aggregate([("c", "sum")])

        return (_read(sf_dir, "part", ["p_brand", "p_name"])
                .map_batches(partial, batch_format="pyarrow")
                .groupby(cols)
                .aggregate(Sum("c_sum", alias_name="c"))
                .to_pandas())

    def pairs(series) -> int:
        c = series.to_numpy(np.int64)
        return int((c * (c - 1) // 2).sum())

    n_rows = int(_read(sf_dir, "part", ["p_brand"]).count())
    all_pairs = n_rows * (n_rows - 1) // 2
    blocked_pairs = pairs(counts(["p_brand"])["c"])
    true_pairs = pairs(counts(["p_name"])["c"])
    caught_pairs = pairs(counts(["p_brand", "p_name"])["c"])
    return pd.DataFrame({
        "n_rows": pd.array([n_rows], dtype="int64"),
        "all_pairs": pd.array([all_pairs], dtype="int64"),
        "blocked_pairs": pd.array([blocked_pairs], dtype="int64"),
        "true_dup_pairs": pd.array([true_pairs], dtype="int64"),
        "caught_dup_pairs": pd.array([caught_pairs], dtype="int64"),
        "reduction_ratio": [round(1 - blocked_pairs / all_pairs, 6)],
        "pair_completeness": [round(caught_pairs / true_pairs, 6)],
    })


def q_fd_discovery(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency discovery over a fixed candidate list
    (the schema-profiling pass of a data catalog): for each candidate
    LHS -> RHS, the violation count = number of LHS values mapping to
    more than one distinct RHS, plus the support (distinct LHS values).
    Each candidate is one distinct-pair fold then an LHS-keyed distinct
    count — no row pairs, scales as the key cardinality."""
    cands = [
        ("customer", "c_custkey", "c_mktsegment"),
        ("customer", "c_nationkey", "c_mktsegment"),
        ("orders", "o_custkey", "o_orderpriority"),
        ("part", "p_name", "p_brand"),
        ("part", "p_brand", "p_name"),
        ("nation", "n_nationkey", "n_regionkey"),
    ]
    rows = []
    for table, lhs, rhs in cands:
        def partial(batch: pa.Table, lhs=lhs, rhs=rhs) -> pa.Table:
            return batch.select([lhs, rhs]).group_by(
                [lhs, rhs]).aggregate([])

        pairs = (_read(sf_dir, table, [lhs, rhs])
                 .map_batches(partial, batch_format="pyarrow")
                 .groupby([lhs, rhs]).count()
                 .to_pandas())
        per_lhs = pairs.groupby(lhs).size()
        rows.append({
            "candidate": f"{table}.{lhs}->{rhs}",
            "n_lhs": int(len(per_lhs)),
            "violations": int((per_lhs > 1).sum()),
            "holds": bool((per_lhs <= 1).all()),
        })
    return _finish(pd.DataFrame(rows), "candidate", ints=["n_lhs", "violations"])
