"""Quantitative-analytics operators (SURVEY §2.9 extensions, session 10).

Eight operators over the TPC-H-ish tables sharing two scale disciplines
the rest of the repo established:

- **Exact integers through the shuffle.**  Money flows as BIGINT cents,
  medians/percentiles as doubled (x2 / x4) integers so the interpolation
  arithmetic never leaves the integer domain, and outlier predicates are
  cross-multiplied into pure integer comparisons — the cross-engine
  float-parity lessons from ROUND_NOTES applied from the start.
- **Driver pulls bounded by DOMAIN, not rows.**  The median/percentile
  family folds to a (event_type x distinct-cents) histogram first — the
  value domain is bounded (cents of a bounded metric), so the driver
  table is O(distinct cents) regardless of corpus size, the same
  contract weighted_median and kaplan_meier rely on.  Day-keyed series
  (drawdown, VWAP) are O(calendar days).

The reference engine (nadry) has no analytics operators; these are
training-corpus/warehouse additions in the spirit the brief asks for.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Max, Min, Sum

from .relational import _finish, _fused_parts, _keyed_side, _read, _with_part

_DAY_US = 86_400_000_000


def _cents_histogram(sf_dir: str) -> pd.DataFrame:
    """(event_type, cents) -> count histogram of events.value in integer
    cents.  Distributed partial-aggregate fold; the driver table is
    bounded by the value DOMAIN (distinct cents), not the row count."""

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({
            "event_type": batch["event_type"],
            "cents": pa.array(cents, pa.int64()),
            "cnt": pa.array(np.ones(len(cents), np.int64), pa.int64()),
        })
        return t.group_by(["event_type", "cents"]).aggregate([("cnt", "sum")])

    return (_read(sf_dir, "events", ["event_type", "value"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "cents"])
            .aggregate(Sum("cnt_sum", alias_name="cnt"))
            .to_pandas())


def _hist_rank_pick(vals: np.ndarray, cum: np.ndarray, rank0: int) -> int:
    """Value at 0-based rank ``rank0`` of the expanded sorted multiset
    described by (sorted values, cumulative counts)."""
    return int(vals[int(np.searchsorted(cum, rank0, side="right"))])


def _daily_revenue_cents(sf_dir: str) -> pd.DataFrame:
    """(day, v) daily order totals in BIGINT cents, ordered by day: one
    day-keyed partial-sum shuffle, O(calendar days) to the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["o_orderdate"], unit="day"),
                      pa.timestamp("us"))
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({"day": day, "v": pa.array(cents, pa.int64())})
        return t.group_by(["day"]).aggregate([("v", "sum")])

    return (_read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("day").aggregate(Sum("v_sum", alias_name="v"))
            .to_pandas().sort_values("day").reset_index(drop=True))


def q_max_drawdown(sf_dir: str) -> pd.DataFrame:
    """Per-day revenue drawdown: daily order totals (BIGINT cents) as the
    value series ordered by day, running peak = prefix max, drawdown =
    peak - value.  The distributed fold is one day-keyed partial-sum
    groupby (O(calendar days) to the driver, the ohlc_daily/ewma_daily
    contract); the prefix max is a driver scan over that bounded series.
    All-integer output — no quotient ever rounds."""
    daily = _daily_revenue_cents(sf_dir)
    v = daily["v"].to_numpy(np.int64)
    peak = np.maximum.accumulate(v)
    return pd.DataFrame({
        "day": daily["day"],
        "v_cents": v,
        "peak_cents": peak,
        "dd_cents": peak - v,
    })


def q_vwap_daily(sf_dir: str) -> pd.DataFrame:
    """Daily volume-weighted average price over lineitem (ship-date day):
    vwap = sum(price x qty) / sum(qty).  Both numerator and denominator
    are exact BIGINT partial sums (cents x whole units); VWAP itself is
    reported as FLOOR-divided micro-dollars (pv * 10000 // q) because
    the rounded quotient lands exactly on the .5e-6 half-rounding
    boundary whenever q is a power of two — the numpy-half-even vs
    SQL-half-away trap ROUND_NOTES documents.  (pv * 10000 stays inside
    int64 up to ~9e14 daily cents; beyond that, promote to object ints
    on the driver.)"""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["l_shipdate"], unit="day"),
                      pa.timestamp("us"))
        cents = np.round(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        qty = np.round(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        t = pa.table({
            "day": day,
            "pv": pa.array(cents * qty, pa.int64()),
            "q": pa.array(qty, pa.int64()),
        })
        return t.group_by(["day"]).aggregate([("pv", "sum"), ("q", "sum")])

    daily = (_read(sf_dir, "lineitem",
                   ["l_shipdate", "l_extendedprice", "l_quantity"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("day")
             .aggregate(Sum("pv_sum", alias_name="pv"),
                        Sum("q_sum", alias_name="q"))
             .to_pandas().sort_values("day").reset_index(drop=True))
    pv = daily["pv"].to_numpy(np.int64)
    q = daily["q"].to_numpy(np.int64)
    return pd.DataFrame({
        "day": daily["day"],
        "q_units": q,
        "pv_cents": pv,
        "vwap_micro": (pv * 10000) // q,
    })


def q_anova_f(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA F statistic for events.value (cents) across
    event_type groups.  The distributed fold ships only per-group
    (n, sum, sum-of-squares) integer partials — exact through the
    shuffle; the sums-of-squares decomposition runs once on the driver
    with the same double op order the oracle writes (CAST(s)*CAST(s)/n,
    never pow, never HUGEINT-then-cast), so the pre-round doubles agree
    to the ulp-of-accumulation and round(F, 4) is stable.

    Exactness bound (the q_vwap_daily contract, ADVICE r4): the ``ss``
    partial is Σ cents² in int64, exact while Σ cents² < 2⁶³ ≈ 9.2·10¹⁸
    — e.g. ~9·10⁸ rows at |value| ≤ $1 000 (cents² ≈ 10¹⁰).  DuckDB sums
    BIGINT into HUGEINT, so past that bound numpy would wrap SILENTLY
    while the oracle stays exact; the post-aggregate negativity check
    below turns the common wrap (cents² ≥ 0 summed negative) into a loud
    OverflowError instead of a wrong F statistic.  Past the bound, ship
    the ss partial as float64 (and accept ulp-level oracle divergence) or
    split ss into (hi, lo) int64 limbs."""

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(cents), np.int64), pa.int64()),
            "s": pa.array(cents, pa.int64()),
            "ss": pa.array(cents * cents, pa.int64()),
        })
        return t.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("s", "sum"), ("ss", "sum")])

    g = (_read(sf_dir, "events", ["event_type", "value"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("event_type")
         .aggregate(Sum("n_sum", alias_name="n"), Sum("s_sum", alias_name="s"),
                    Sum("ss_sum", alias_name="ss"))
         .to_pandas().sort_values("event_type"))
    if (g["ss"].to_numpy(np.int64) < 0).any():
        raise OverflowError(
            "q_anova_f: int64 sum-of-squares wrapped (Σ cents² ≥ 2^63) — "
            "see the exactness bound in the docstring"
        )
    n_g = g["n"].to_numpy(np.int64)
    s_g = g["s"].to_numpy(np.float64)
    k = len(g)
    n = int(n_g.sum())
    s_tot = float(g["s"].to_numpy(np.int64).sum())
    ss_tot_c = float(g["ss"].to_numpy(np.int64).sum())
    a = float(np.sum(s_g * s_g / n_g))
    ssb = a - s_tot * s_tot / n
    ssw = ss_tot_c - a
    f = (ssb / (k - 1)) / (ssw / (n - k))
    return pd.DataFrame({
        "k": pd.array([k], dtype="int64"),
        "n": pd.array([n], dtype="int64"),
        "f_stat": [round(f, 4)],
    })


def q_mad_outliers(sf_dir: str) -> pd.DataFrame:
    """Median absolute deviation per event_type with an all-integer
    outlier rule.  Median and MAD are reported DOUBLED (med_x2_cents =
    lower+upper middle cents; mad_x4_cents doubles the doubled
    deviations |2c - med2|), so even-count medians never hit the
    half-rounding boundary DuckDB and numpy disagree on.  A row is an
    outlier iff |c - median| > 3 MAD, cross-multiplied to the integer
    test 4|2c - med2| > 3 mad4.  Everything folds through the bounded
    (event_type x cents) histogram — the driver never sees rows."""
    hist = _cents_histogram(sf_dir)
    rows = []
    for et, sub in hist.groupby("event_type"):
        sub = sub.sort_values("cents")
        vals = sub["cents"].to_numpy(np.int64)
        cnt = sub["cnt"].to_numpy(np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        med2 = (_hist_rank_pick(vals, cum, (n - 1) // 2)
                + _hist_rank_pick(vals, cum, n // 2))
        d2 = np.abs(2 * vals - med2)
        order = np.argsort(d2, kind="stable")
        dvals, dcnt = d2[order], cnt[order]
        # merge equal deviations (two cents values can fold to one dev)
        uvals, inv = np.unique(dvals, return_inverse=True)
        ucnt = np.bincount(inv, weights=dcnt).astype(np.int64)
        dcum = np.cumsum(ucnt)
        mad4 = (_hist_rank_pick(uvals, dcum, (n - 1) // 2)
                + _hist_rank_pick(uvals, dcum, n // 2))
        n_out = int(cnt[4 * d2 > 3 * mad4].sum())
        rows.append((et, n, med2, mad4, n_out))
    out = pd.DataFrame(rows, columns=["event_type", "n", "med_x2_cents",
                                      "mad_x4_cents", "n_outliers"])
    return _finish(out, "event_type", ints=out.columns[1:])


def q_percentile_interp(sf_dir: str) -> pd.DataFrame:
    """Linearly interpolated quartiles (percentile_cont semantics) per
    event_type, reported as x4 integers: at q = k/4 the interpolation
    position h = (n-1)k/4 has a fractional part in {0, 1/4, 1/2, 3/4},
    so 4x the interpolated value — v_lo(4-r) + v_next r with r = (n-1)k
    mod 4 — is an exact BIGINT in both engines.  Same bounded histogram
    fold as the MAD operator."""
    hist = _cents_histogram(sf_dir)
    rows = []
    for et, sub in hist.groupby("event_type"):
        sub = sub.sort_values("cents")
        vals = sub["cents"].to_numpy(np.int64)
        cum = np.cumsum(sub["cnt"].to_numpy(np.int64))
        n = int(cum[-1])
        px4 = []
        for kq in (1, 2, 3):
            idx = (n - 1) * kq
            lo, r = idx // 4, idx % 4
            v_lo = _hist_rank_pick(vals, cum, lo)
            v_next = _hist_rank_pick(vals, cum, min(lo + 1, n - 1))
            px4.append(v_lo * (4 - r) + v_next * r)
        rows.append((et, n, *px4))
    out = pd.DataFrame(rows, columns=["event_type", "n", "p25_x4_cents",
                                      "p50_x4_cents", "p75_x4_cents"])
    return _finish(out, "event_type", ints=out.columns[1:])


_DICT_COLS = [
    ("events", "event_type"),
    ("orders", "o_orderstatus"),
    ("orders", "o_orderpriority"),
    ("customer", "c_mktsegment"),
    ("documents", "lang"),
    ("documents", "source"),
]

# (table, value column, natural-order key) for the RLE layout profile
_RLE_COLS = [
    ("events", "event_type", "event_id"),
    ("orders", "o_orderpriority", "o_orderkey"),
    ("orders", "o_orderstatus", "o_orderkey"),
    ("customer", "c_mktsegment", "c_custkey"),
    ("documents", "lang", "doc_id"),
    ("documents", "source", "doc_id"),
]


def q_rle_profile(sf_dir: str) -> pd.DataFrame:
    """Run-length-encoding layout profile per low-cardinality column —
    the companion measurement to dict_encoding_profile and
    zone_map_prune: run count and RLE bytes (run-start value bytes + a
    4-byte length each) in the table's NATURAL key order versus the
    value-clustered layout (where runs = cardinality).  Distributed run
    counting without a global sort: contiguous key-range partitions
    count runs locally and ship only (first, last) boundary values; the
    driver stitches partitions in key order, merging the run that spans
    a boundary — the partition_checksums/rolling-halo ordered-scan
    contract, O(partitions) driver state."""
    rows = []
    for tbl, col, key in _RLE_COLS:
        ds = _read(sf_dir, tbl, [key, col])
        rng = ds.aggregate(Min(key), Max(key))
        kmin, kmax = int(rng[f"min({key})"]), int(rng[f"max({key})"])
        n_parts = _fused_parts(sf_dir, tbl)
        span = max(1, -(-(kmax - kmin + 1) // n_parts))

        def add_part(batch: pa.Table, key=key, kmin=kmin,
                     span=span) -> pa.Table:
            kk = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
            return batch.append_column(
                "part", pa.array((kk - kmin) // span, pa.int64()))

        def part_runs(group: pa.Table, key=key, col=col) -> pa.Table:
            kk = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
            v = group[col].to_numpy(zero_copy_only=False)
            order = np.argsort(kk, kind="stable")
            v = v[order]
            starts = np.r_[True, v[1:] != v[:-1]]
            blen = np.array([len(s.encode()) for s in v[starts]], np.int64)
            return pa.table({
                "part": pa.array([int(group["part"][0].as_py())],
                                 pa.int64()),
                "n": pa.array([len(v)], pa.int64()),
                "runs": pa.array([int(starts.sum())], pa.int64()),
                "rle_bytes": pa.array([int((blen + 4).sum())], pa.int64()),
                "first_v": pa.array([str(v[0])], pa.string()),
                "last_v": pa.array([str(v[-1])], pa.string()),
            })

        parts = (ds.map_batches(add_part, batch_format="pyarrow")
                 .groupby("part")
                 .map_groups(part_runs, batch_format="pyarrow")
                 .to_pandas().sort_values("part").reset_index(drop=True))
        n = int(parts["n"].sum())
        runs = int(parts["runs"].sum())
        rle_bytes = int(parts["rle_bytes"].sum())
        for i in range(1, len(parts)):
            if parts["first_v"][i] == parts["last_v"][i - 1]:
                runs -= 1
                rle_bytes -= len(parts["first_v"][i].encode()) + 4
        distinct = (ds.groupby(col).count().to_pandas())
        card = len(distinct)
        sorted_bytes = int(sum(len(s.encode()) + 4 for s in distinct[col]))
        rows.append((tbl, col, n, runs, rle_bytes, card, sorted_bytes))
    out = pd.DataFrame(rows, columns=["tbl", "col", "n", "runs_key",
                                      "rle_bytes_key", "card",
                                      "rle_bytes_sorted"])
    return _finish(out, ["tbl", "col"], ints=out.columns[2:])


def q_dict_encoding_profile(sf_dir: str) -> pd.DataFrame:
    """Dictionary-encoding size model per low-cardinality string column
    (the Parquet/Arrow dict-encode decision, made measurable): plain =
    sum of UTF-8 byte lengths; dict = distinct-value bytes + ceil(n x
    bit_width / 8) with bit_width = bit_length(card - 1).  Per column:
    one partial fold for (n, plain bytes) fused with a distinct-value
    groupby whose driver table is O(card) — the profile the zone-map /
    Z-order / front-coding layout family reads before choosing an
    encoding."""
    rows = []
    for tbl, col in _DICT_COLS:
        ds = _read(sf_dir, tbl, [col])

        def partial(batch: pa.Table, col=col) -> pa.Table:
            t = pa.table({
                "v": batch[col],
                "b": pc.cast(pc.binary_length(batch[col]), pa.int64()),
                "c": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            })
            return t.group_by(["v"]).aggregate([("b", "sum"), ("c", "sum")])

        d = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("v")
             .aggregate(Sum("b_sum", alias_name="b"),
                        Sum("c_sum", alias_name="c"))
             .to_pandas())
        n = int(d["c"].sum())
        plain = int(d["b"].sum())
        card = len(d)
        dict_data = int(sum(len(v.encode()) for v in d["v"]))
        w = (card - 1).bit_length() if card > 1 else 0
        dict_bytes = dict_data + (n * w + 7) // 8
        rows.append((tbl, col, n, card, plain, dict_bytes,
                     round(dict_bytes / plain, 6)))
    out = pd.DataFrame(rows, columns=["tbl", "col", "n", "card",
                                      "plain_bytes", "dict_bytes", "ratio"])
    return _finish(out, ["tbl", "col"],
                   ints=["n", "card", "plain_bytes", "dict_bytes"])


def q_decision_stump(sf_dir: str) -> pd.DataFrame:
    """Decision-stump training by exact misclassification count:
    feature = floor(o_totalprice / 1000), label = (o_orderstatus = 'F');
    for every threshold t the stump "left if feature <= t" errs
    min(pos_l, neg_l) + min(pos_r, neg_r) times — an INTEGER criterion,
    so the argmin (ties to the smallest threshold) is exactly comparable
    across engines, unlike Gini/entropy doubles.  The distributed part
    is one (bucket -> pos, cnt) histogram shuffle; the error curve and
    argmin are O(buckets) driver arithmetic — the split-finding shape of
    a distributed GBDT layer."""

    def partial(batch: pa.Table) -> pa.Table:
        thr = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) / 1000.0
        ).astype(np.int64)
        pos = (batch["o_orderstatus"].to_numpy(zero_copy_only=False)
               == "F").astype(np.int64)
        t = pa.table({
            "thr": pa.array(thr, pa.int64()),
            "c": pa.array(np.ones(len(thr), np.int64), pa.int64()),
            "p": pa.array(pos, pa.int64()),
        })
        return t.group_by(["thr"]).aggregate([("c", "sum"), ("p", "sum")])

    h = (_read(sf_dir, "orders", ["o_totalprice", "o_orderstatus"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("thr")
         .aggregate(Sum("c_sum", alias_name="c"), Sum("p_sum", alias_name="p"))
         .to_pandas().sort_values("thr").reset_index(drop=True))
    nl = np.cumsum(h["c"].to_numpy(np.int64))
    pl = np.cumsum(h["p"].to_numpy(np.int64))
    n, pos = int(nl[-1]), int(pl[-1])
    pr, nr = pos - pl, (n - nl) - (pos - pl)
    errors = np.minimum(pl, nl - pl) + np.minimum(pr, nr)
    best = errors.min()
    best_thr = h["thr"].to_numpy(np.int64)[errors == best].min()
    return pd.DataFrame({
        "thr": h["thr"].astype("int64"),
        "n_left": nl,
        "pos_left": pl,
        "errors": errors,
        "is_best": (errors == best) & (h["thr"].to_numpy(np.int64)
                                       == best_thr),
    })


def q_item_cf_topk(sf_dir: str, k: int = 30) -> pd.DataFrame:
    """Item-item collaborative filtering by cosine over binary user
    vectors: cos(a, b) = |U_a ∩ U_b| / sqrt(|U_a| |U_b|) — covisitation's
    raw pair counts normalized by item popularity, the classic
    item-based CF similarity.  Same fused user-partition pair fan-out as
    q_covisitation (quadratic only in a user's DISTINCT item count);
    item counts broadcast via ray.put (item universe is catalog-sized);
    each pair-count block scores cosine and keeps a LOCAL top-k so the
    driver merge is k-bounded.  The cosine double is computed with the
    identical op order in both engines (int product -> cast -> sqrt ->
    divide), so the top-k cutoff is deterministic; ties break (a, b)."""
    n_parts = _fused_parts(sf_dir, "events")

    def extract_dedupe(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>\d+)')
        item = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "item": item,
        }).group_by(["user_id", "item"]).aggregate([])

    ui = (_read(sf_dir, "events", ["user_id", "props"])
          .map_batches(extract_dedupe, batch_format="pyarrow")
          .groupby(["user_id", "item"])
          .count()
          .select_columns(["user_id", "item"])
          .materialize())

    cnt_ref = _keyed_side(ui.groupby("item").count().to_pandas(), "item",
                          "count()")

    def pairs_partition(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        it = group["item"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((it, u))
        u, it = u[order], it[order]
        # per-user combination fan-out (items sorted within user)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        lens = np.diff(np.r_[starts, u.size])
        a_idx, b_idx = [], []
        for s, ln in zip(starts, lens):
            if ln < 2:
                continue
            ii, jj = np.triu_indices(ln, k=1)
            a_idx.append(s + ii)
            b_idx.append(s + jj)
        if not a_idx:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "n_sum": pa.array([], pa.int64())})
        a = it[np.concatenate(a_idx)]
        b = it[np.concatenate(b_idx)]
        t = pa.table({
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "n": pa.array(np.ones(a.size, np.int64), pa.int64()),
        })
        return t.group_by(["a", "b"]).aggregate([("n", "sum")])

    def score_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cab": pa.array([], pa.int64()),
                             "cos_raw": pa.array([], pa.float64())})
        keys, cnts = ray.get(cnt_ref)
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = cnts[np.searchsorted(keys, a)]
        cb = cnts[np.searchsorted(keys, b)]
        cos = n / np.sqrt((ca * cb).astype(np.float64))
        top = np.lexsort((b, a, -cos))[:k]
        return pa.table({
            "a": pa.array(a[top], pa.int64()),
            "b": pa.array(b[top], pa.int64()),
            "cab": pa.array(n[top], pa.int64()),
            "cos_raw": pa.array(cos[top], pa.float64()),
        })

    out = (_with_part(ui, "user_id", n_parts)
           .groupby("part")
           .map_groups(pairs_partition, batch_format="pyarrow")
           .groupby(["a", "b"])
           .aggregate(Sum("n_sum", alias_name="n"))
           .map_batches(score_topk, batch_format="pyarrow")
           .to_pandas())
    out = out.sort_values(["cos_raw", "a", "b"],
                          ascending=[False, True, True]).head(k)
    out["cosine"] = np.round(out.pop("cos_raw"), 6)
    return out.reset_index(drop=True)[["a", "b", "cab", "cosine"]]


def q_quantile_normalize(sf_dir: str) -> pd.DataFrame:
    """Quantile-normalization mapping table per event_type (the ML
    feature-preprocessing step that aligns each group's value
    distribution onto the pooled one): for each decile k/10 the group's
    boundary value and the pooled distribution's value at the SAME
    relative rank, both as exact lower-rank picks (0-based rank
    floor((n-1)k/10)) from the bounded cents histogram — no
    interpolation, no floats.  One histogram shuffle serves every group
    AND the pooled ranks."""
    hist = _cents_histogram(sf_dir)
    pooled = (hist.groupby("cents", as_index=False)["cnt"].sum()
              .sort_values("cents"))
    pv = pooled["cents"].to_numpy(np.int64)
    pcum = np.cumsum(pooled["cnt"].to_numpy(np.int64))
    n_all = int(pcum[-1])
    rows = []
    for et, sub in hist.groupby("event_type"):
        sub = sub.sort_values("cents")
        vals = sub["cents"].to_numpy(np.int64)
        cum = np.cumsum(sub["cnt"].to_numpy(np.int64))
        n = int(cum[-1])
        for kq in range(1, 10):
            src = _hist_rank_pick(vals, cum, (n - 1) * kq // 10)
            tgt = _hist_rank_pick(pv, pcum, (n_all - 1) * kq // 10)
            rows.append((et, kq, n, src, tgt))
    out = pd.DataFrame(rows, columns=["event_type", "decile", "n",
                                      "src_cents", "target_cents"])
    return _finish(out, ["event_type", "decile"], ints=out.columns[1:])


def q_cusum_drift(sf_dir: str) -> pd.DataFrame:
    """One-sided CUSUM drift detector over the daily-revenue series
    (Page 1954): g_t = max(0, g_{t-1} + v_t - mean - delta) with drift
    allowance delta = mean/2 and alarm threshold h = mean, all
    SCALE-FREE (derived from the series' own total) and computed in the
    closed prefix-scan form g = cumsum(x) - runningmin(cumsum(x), 0) the
    clamped_balance operator established — order-safe because every term
    is multiplied through by n_days into exact integers (x'_t = n*v_t -
    total - n*(total // (2n))).  O(calendar days) driver series; the
    alarm column can be legitimately all-false on a drift-free stream
    while g itself stays hash-rich."""
    daily = _daily_revenue_cents(sf_dir)
    v = daily["v"].to_numpy(np.int64)
    n = len(v)
    tot = int(v.sum())
    delta = tot // (2 * n)
    x = n * v - tot - n * delta
    s = np.cumsum(x)
    g = s - np.minimum.accumulate(np.minimum(s, 0))
    h_scaled = n * (tot // n)
    return pd.DataFrame({
        "day": daily["day"],
        "v_cents": v,
        "g_scaled": g,
        "alarm": g > h_scaled,
    })


def q_attribution_linear(sf_dir: str, window_days: int = 7) -> pd.DataFrame:
    """Linear multi-touch attribution: every purchase splits one unit of
    credit equally (floor micro-units, 10^6 // k) across the k
    non-purchase events of the same user in the trailing
    ``window_days``, credited to the touch's event_type — the
    multi-touch generalization of attribution_first_touch.  Fused user
    partitions; within a partition one (dense-user x ts) composite sort
    makes every purchase's window a searchsorted range, and per-type
    window counts come from cumulative per-type indicator sums — no
    per-purchase Python loop.  Credits are exact integers (floor), so
    the per-type aggregate is order-free."""
    n_parts = _fused_parts(sf_dir, "events")

    w_us = window_days * _DAY_US

    def credit_partition(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (group["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, ts, eid, et = u[order], ts[order], eid[order], et[order]
        # dense user index x time-span stride composite: window compares
        # never cross users because the stride exceeds the span + window
        _, uidx = np.unique(u, return_inverse=True)
        rel = ts - ts.min()
        stride = int(rel.max()) + w_us + 1
        comp = uidx.astype(np.int64) * stride + rel
        types, tcode = np.unique(et, return_inverse=True)
        is_p = et == "purchase"
        # cumulative per-type counts (rows x types is types-bounded)
        onehot = np.zeros((len(u), len(types)), np.int64)
        onehot[np.arange(len(u)), tcode] = 1
        ccnt = np.vstack([np.zeros(len(types), np.int64),
                          np.cumsum(onehot, axis=0)])
        p_idx = np.flatnonzero(is_p)
        if p_idx.size == 0:
            return pa.table({
                "event_type": pa.array([], pa.string()),
                "n_touches": pa.array([], pa.int64()),
                "credit_micro": pa.array([], pa.int64()),
            })
        lo = np.searchsorted(comp, comp[p_idx] - w_us, side="left")
        win = ccnt[p_idx] - ccnt[lo]          # per-type window counts
        p_col = int(np.flatnonzero(types == "purchase")[0])
        k = win.sum(axis=1) - win[:, p_col]   # touches exclude purchases
        ok = k > 0
        per_touch = np.zeros(k.shape, np.int64)
        per_touch[ok] = 10**6 // k[ok]
        win[:, p_col] = 0
        n_touch = win.sum(axis=0)
        credit = (win * per_touch[:, None]).sum(axis=0)
        keep = np.arange(len(types)) != p_col
        return pa.table({
            "event_type": pa.array(types[keep], pa.string()),
            "n_touches": pa.array(n_touch[keep], pa.int64()),
            "credit_micro": pa.array(credit[keep], pa.int64()),
        })

    out = (_with_part(_read(sf_dir, "events", ["user_id", "ts", "event_id",
                                               "event_type"]),
                      "user_id", n_parts)
           .groupby("part")
           .map_groups(credit_partition, batch_format="pyarrow")
           .to_pandas()
           .groupby("event_type", as_index=False)
           .agg(n_touches=("n_touches", "sum"),
                credit_micro=("credit_micro", "sum")))
    return _finish(out[out["n_touches"] > 0], "event_type",
                   ints=["n_touches", "credit_micro"])


_PRORATION_SPAN = {"1-URGENT": 7, "2-HIGH": 14, "3-MEDIUM": 21,
                   "4-NOT SPECIFIED": 28, "5-LOW": 35}


def q_interarrival_stats(sf_dir: str) -> pd.DataFrame:
    """Inter-arrival-time distribution per event_type: gaps between a
    user's consecutive events of that type, floored to whole MINUTES so
    the (type x minutes) histogram is time-domain-bounded and the
    median/percentile picks are exact integers (median doubled, p90 as
    the lower 0-based rank floor((n-1)*9/10)).  Fused user partitions
    compute gaps with one lexsort + diff; everything after is the
    bounded-histogram rank machinery the MAD family established."""
    n_parts = _fused_parts(sf_dir, "events")

    def gaps_partition(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        ts = (group["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        eid = group["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        tcode = pd.factorize(et)[0].astype(np.int64)
        order = np.lexsort((eid, ts, tcode, u))
        u, et, ts, tcode = u[order], et[order], ts[order], tcode[order]
        same = (u[1:] == u[:-1]) & (tcode[1:] == tcode[:-1])
        gap_min = (ts[1:] - ts[:-1]) // 60_000_000
        t = pa.table({
            "event_type": pa.array(et[1:][same]),
            "gmin": pa.array(gap_min[same], pa.int64()),
            "cnt": pa.array(np.ones(int(same.sum()), np.int64),
                            pa.int64()),
        })
        return t.group_by(["event_type", "gmin"]).aggregate([("cnt", "sum")])

    hist = (_with_part(_read(sf_dir, "events",
                             ["user_id", "event_type", "ts", "event_id"]),
                       "user_id", n_parts)
            .groupby("part")
            .map_groups(gaps_partition, batch_format="pyarrow")
            .groupby(["event_type", "gmin"])
            .aggregate(Sum("cnt_sum", alias_name="cnt"))
            .to_pandas())
    rows = []
    for et, sub in hist.groupby("event_type"):
        sub = sub.sort_values("gmin")
        vals = sub["gmin"].to_numpy(np.int64)
        cum = np.cumsum(sub["cnt"].to_numpy(np.int64))
        n = int(cum[-1])
        med2 = (_hist_rank_pick(vals, cum, (n - 1) // 2)
                + _hist_rank_pick(vals, cum, n // 2))
        p90 = _hist_rank_pick(vals, cum, (n - 1) * 9 // 10)
        s = int((sub["gmin"] * sub["cnt"]).sum())
        rows.append((et, n, s, med2, p90, int(vals.max())))
    out = pd.DataFrame(rows, columns=["event_type", "n_gaps", "sum_min",
                                      "med_x2_min", "p90_min", "max_min"])
    return _finish(out, "event_type", ints=out.columns[1:])


def q_grouping_sets(sf_dir: str) -> pd.DataFrame:
    """GROUPING SETS {(), (type), (dow), (type, dow)} over event value
    cents in ONE pass: the finest (type x dow) histogram is the only
    shuffle; the three coarser sets are driver folds of that
    35-row table (the rollup_agg/cube_agg discipline generalized to an
    arbitrary set list).  ALL markers: event_type '', dow -1 — matching
    the oracle's coalesce spelling.  dow = epoch-days % 7 (numbering
    shared with the SQL, no locale weekday names)."""

    def partial(batch: pa.Table) -> pa.Table:
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64) // _DAY_US)
        cents = np.round(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({
            "event_type": batch["event_type"],
            "dow": pa.array(day % 7, pa.int64()),
            "n": pa.array(np.ones(len(day), np.int64), pa.int64()),
            "v": pa.array(cents, pa.int64()),
        })
        return t.group_by(["event_type", "dow"]).aggregate(
            [("n", "sum"), ("v", "sum")])

    fine = (_read(sf_dir, "events", ["event_type", "ts", "value"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "dow"])
            .aggregate(Sum("n_sum", alias_name="n"), Sum("v_sum", alias_name="v"))
            .to_pandas())
    sets = [fine.assign(set_id=3)]
    by_t = (fine.groupby("event_type", as_index=False)[["n", "v"]].sum()
            .assign(dow=-1, set_id=1))
    by_d = (fine.groupby("dow", as_index=False)[["n", "v"]].sum()
            .assign(event_type="", set_id=2))
    allr = pd.DataFrame({"event_type": [""], "dow": [-1],
                         "n": [fine["n"].sum()], "v": [fine["v"].sum()],
                         "set_id": [0]})
    out = pd.concat(sets + [by_t, by_d, allr], ignore_index=True)
    return _finish(out, ["set_id", "event_type", "dow"],
                   ints=["dow", "n", "v", "set_id"],
                   cols=["set_id", "event_type", "dow", "n", "v"])


def q_tree_depth2(sf_dir: str) -> pd.DataFrame:
    """Depth-2 decision-tree training by exact misclassification count
    (the decision_stump's boosting-flavored successor): root split on
    the price bucket (feature 1), each side optionally re-split on
    day-of-week <= d2 (feature 2; d2 = 6 keeps the side a leaf).  The
    INTEGER error criterion makes every argmin exactly comparable across
    engines — ties resolve (smallest t1, then smallest d2_left, then
    d2_right).  The distributed part is ONE (price-bucket x dow ->
    count, positives) joint-histogram shuffle; the (t1 x d2) error
    surface is a ~500 x 7 numpy fold on the driver, and the oracle
    replays it with dense-grid window cumsums."""

    def partial(batch: pa.Table) -> pa.Table:
        thr = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) / 1000.0
        ).astype(np.int64)
        day = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64) // _DAY_US)
        pos = (batch["o_orderstatus"].to_numpy(zero_copy_only=False)
               == "F").astype(np.int64)
        t = pa.table({
            "thr": pa.array(thr, pa.int64()),
            "dow": pa.array(day % 7, pa.int64()),
            "c": pa.array(np.ones(len(thr), np.int64), pa.int64()),
            "p": pa.array(pos, pa.int64()),
        })
        return t.group_by(["thr", "dow"]).aggregate(
            [("c", "sum"), ("p", "sum")])

    h = (_read(sf_dir, "orders",
               ["o_totalprice", "o_orderdate", "o_orderstatus"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["thr", "dow"])
         .aggregate(Sum("c_sum", alias_name="c"), Sum("p_sum", alias_name="p"))
         .to_pandas())
    thrs = np.sort(h["thr"].unique())
    t_idx = {t: i for i, t in enumerate(thrs)}
    nt = len(thrs)
    grid_c = np.zeros((nt, 7), np.int64)
    grid_p = np.zeros((nt, 7), np.int64)
    for _, r in h.iterrows():
        grid_c[t_idx[r["thr"]], int(r["dow"])] = r["c"]
        grid_p[t_idx[r["thr"]], int(r["dow"])] = r["p"]
    cum_c = np.cumsum(grid_c, axis=0)   # left-side per-dow counts at t1
    cum_p = np.cumsum(grid_p, axis=0)
    tot_c, tot_p = cum_c[-1], cum_p[-1]

    def best_dow_split(side_c, side_p):
        """side_* : (nt, 7) per-dow counts of one side; returns per-t1
        (best errors, best d2) under the dow <= d2 split, d2 = 6 = leaf."""
        lc = np.cumsum(side_c, axis=1)
        lp = np.cumsum(side_p, axis=1)
        tc = lc[:, -1:]
        tp = lp[:, -1:]
        err = (np.minimum(lp, lc - lp)
               + np.minimum(tp - lp, (tc - lc) - (tp - lp)))
        d2 = np.argmin(err, axis=1)      # first minimum = smallest d2
        return err[np.arange(nt), d2], d2

    err_l, d2_l = best_dow_split(cum_c, cum_p)
    err_r, d2_r = best_dow_split(tot_c[None, :] - cum_c,
                                 tot_p[None, :] - cum_p)
    total = err_l + err_r
    i = int(np.argmin(total))            # first minimum = smallest t1
    n = int(tot_c.sum())
    # depth-1 comparison: the stump's best error on the same feature
    pl = cum_p.sum(axis=1)
    nl = cum_c.sum(axis=1)
    p_all, n_all = int(tot_p.sum()), n
    stump = (np.minimum(pl, nl - pl)
             + np.minimum(p_all - pl, (n_all - nl) - (p_all - pl)))
    return pd.DataFrame({
        "t1": pd.array([int(thrs[i])], dtype="int64"),
        "d2_left": pd.array([int(d2_l[i])], dtype="int64"),
        "d2_right": pd.array([int(d2_r[i])], dtype="int64"),
        "errors": pd.array([int(total[i])], dtype="int64"),
        "errors_stump": pd.array([int(stump.min())], dtype="int64"),
        "n": pd.array([n], dtype="int64"),
    })


def q_revenue_proration(sf_dir: str) -> pd.DataFrame:
    """Revenue-recognition proration (calendar spreading): each order's
    total spreads over a priority-keyed recognition span starting at the
    order date — cents // span per day with the integer remainder
    recognized on day one, so the spread sums EXACTLY to the original
    cents and the daily fold is order-free.  The explode is a bounded
    per-row fan-out (≤ 35 days) done vectorized with repeat/offset
    arithmetic inside map_batches; the recognized-revenue-by-day
    aggregate is the usual day-keyed partial-sum shuffle."""
    spans = _PRORATION_SPAN

    def prorate(batch: pa.Table) -> pa.Table:
        day0 = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64) // _DAY_US)
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        pr = batch["o_orderpriority"].to_numpy(zero_copy_only=False)
        span = np.array([spans[p] for p in pr], np.int64)
        per = cents // span
        rem = cents - per * span
        n = int(span.sum())
        row = np.repeat(np.arange(len(span)), span)
        off = np.arange(n) - np.repeat(np.cumsum(span) - span, span)
        rec = per[row] + np.where(off == 0, rem[row], 0)
        days = (day0[row] + off) * _DAY_US
        t = pa.table({
            "day": pa.array(days.astype("datetime64[us]"),
                            pa.timestamp("us")),
            "rec": pa.array(rec, pa.int64()),
        })
        return t.group_by(["day"]).aggregate([("rec", "sum")])

    out = (_read(sf_dir, "orders",
                 ["o_orderdate", "o_totalprice", "o_orderpriority"])
           .map_batches(prorate, batch_format="pyarrow")
           .groupby("day").aggregate(Sum("rec_sum", alias_name="rec_cents"))
           .to_pandas())
    return _finish(out, "day", ints=["rec_cents"])


_SKEW_KEYS = ["o_custkey", "o_orderkey", "day", "priority_code"]


def q_skew_audit(sf_dir: str, buckets: int = 64) -> pd.DataFrame:
    """Partition-skew audit for candidate shuffle keys: bucket orders by
    key % 64 (dense code for the categorical) and report per key choice
    the nonempty-bucket count, min/max bucket rows and the imbalance
    factor max·buckets·10^6 // n (floor micro, exact) — the
    pre-shuffle measurement this repo's salted-shuffle docs say to take
    before picking a partition key.  One histogram partial per key, all
    four keys folded in a single pass over the table."""

    def partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        day = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64) // _DAY_US)
        prc = np.array(
            [int(p[0]) for p in
             batch["o_orderpriority"].to_numpy(zero_copy_only=False)],
            np.int64)
        ks, bs = [], []
        for name, arr in (("o_custkey", ck), ("o_orderkey", ok),
                          ("day", day), ("priority_code", prc)):
            ks.extend([name] * len(arr))
            bs.append(arr % buckets)
        t = pa.table({
            "key": pa.array(ks, pa.string()),
            "bucket": pa.array(np.concatenate(bs), pa.int64()),
            "c": pa.array(np.ones(len(ks), np.int64), pa.int64()),
        })
        return t.group_by(["key", "bucket"]).aggregate([("c", "sum")])

    h = (_read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate",
                "o_orderpriority"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["key", "bucket"])
         .aggregate(Sum("c_sum", alias_name="c"))
         .to_pandas())
    rows = []
    for key, sub in h.groupby("key"):
        c = sub["c"].to_numpy(np.int64)
        n = int(c.sum())
        rows.append((key, n, len(sub), int(c.min()), int(c.max()),
                     int(c.max()) * buckets * 10**6 // n))
    out = pd.DataFrame(rows, columns=["key", "n", "nonempty", "min_rows",
                                      "max_rows", "imbalance_micro"])
    return _finish(out, "key", ints=out.columns[1:])


def q_window_ratios(sf_dir: str) -> pd.DataFrame:
    """Peer-inclusive cumulative distribution (cume_dist) and
    ratio-to-report per event_type over the DAILY value series, both as
    exact floor-micro integers: cd_micro = (rows with v' <= v) * 10^6
    // n (the RANGE-frame peer rule), pct_micro = v * 10^6 // total.
    The daily series comes from one partial-sum shuffle; the window
    arithmetic is per-type vectorized searchsorted over the
    days-bounded driver table."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["ts"], unit="day"),
                      pa.timestamp("us"))
        cents = np.round(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({"event_type": batch["event_type"], "day": day,
                      "v": pa.array(cents, pa.int64())})
        return t.group_by(["event_type", "day"]).aggregate([("v", "sum")])

    daily = (_read(sf_dir, "events", ["event_type", "ts", "value"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Sum("v_sum", alias_name="v"))
             .to_pandas())
    outs = []
    for et, sub in daily.groupby("event_type"):
        sub = sub.sort_values("day").reset_index(drop=True)
        v = sub["v"].to_numpy(np.int64)
        n = len(v)
        total = int(v.sum())
        sv = np.sort(v)
        cnt_le = np.searchsorted(sv, v, side="right")
        outs.append(pd.DataFrame({
            "event_type": et,
            "day": sub["day"],
            "v_cents": v,
            "cd_micro": cnt_le.astype(np.int64) * 10**6 // n,
            "pct_micro": v * 10**6 // total,
        }))
    return _finish(pd.concat(outs, ignore_index=True), ["event_type", "day"],
                   ints=["v_cents", "cd_micro", "pct_micro"])


def q_sprt_decision(sf_dir: str, p0: float = 0.15, p1: float = 0.25,
                    alpha_inv: int = 19) -> pd.DataFrame:
    """Wald's sequential probability ratio test on the purchase-share
    stream (H0: share = p0 vs H1: share = p1, thresholds ±ln(alpha_inv)):
    per day the cumulative (n, k) counts, the log-likelihood ratio
    llr = k·ln(p1/p0) + (n−k)·ln((1−p1)/(1−p0)), and the latched
    decision state (first threshold crossing wins, a prefix-max of the
    crossing indicator — sequential state in closed window form, the
    cusum_drift discipline).  The llr is two exact-integer-scaled ln
    constants times cumulative counts — identical doubles in both
    engines.  O(calendar days) driver series from one daily histogram
    shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["ts"], unit="day"),
                      pa.timestamp("us"))
        k = (batch["event_type"].to_numpy(zero_copy_only=False)
             == "purchase").astype(np.int64)
        t = pa.table({
            "day": day,
            "n": pa.array(np.ones(len(k), np.int64), pa.int64()),
            "k": pa.array(k, pa.int64()),
        })
        return t.group_by(["day"]).aggregate([("n", "sum"), ("k", "sum")])

    daily = (_read(sf_dir, "events", ["ts", "event_type"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("day")
             .aggregate(Sum("n_sum", alias_name="n"), Sum("k_sum", alias_name="k"))
             .to_pandas().sort_values("day").reset_index(drop=True))
    n = np.cumsum(daily["n"].to_numpy(np.int64))
    k = np.cumsum(daily["k"].to_numpy(np.int64))
    w_pos = np.log(p1 / p0)
    w_neg = np.log((1 - p1) / (1 - p0))
    llr = k * w_pos + (n - k) * w_neg
    lim = np.log(float(alpha_inv))
    crossed = (llr >= lim) | (llr <= -lim)
    decided = np.maximum.accumulate(crossed.astype(np.int64)) > 0
    return pd.DataFrame({
        "day": daily["day"],
        "n_cum": n,
        "k_cum": k,
        "llr": np.round(llr, 6),
        "decided": decided,
    })


def q_cohort_ltv(sf_dir: str) -> pd.DataFrame:
    """Cohort lifetime-value curves: customers cohort by first-order
    month, revenue accumulated by months-since-cohort age — the
    retention_cohorts companion that tracks MONEY instead of presence.
    Two passes: a (custkey -> first month) aggregate whose result
    broadcasts as a sorted lookup (the weighted_median tag contract;
    at 10^9 customers this becomes the documented anti-join fallback),
    then a (cohort, age) integer-cents partial-sum shuffle.  The
    cumulative column is a per-cohort prefix sum over the
    months-bounded driver table."""

    def first_partial(batch: pa.Table) -> pa.Table:
        m = pc.cast(pc.floor_temporal(batch["o_orderdate"], unit="month"),
                    pa.timestamp("us"))
        t = pa.table({"o_custkey": batch["o_custkey"], "m": m})
        return t.group_by(["o_custkey"]).aggregate([("m", "min")])

    first = (_read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
             .map_batches(first_partial, batch_format="pyarrow")
             .groupby("o_custkey").aggregate(Min("m_min", alias_name="m"))
             .to_pandas())
    cohort_size = first.groupby("m").size()
    ref = _keyed_side(first, "o_custkey", first["m"].to_numpy()
                      .astype("datetime64[us]").astype(np.int64))

    def tag(batch: pa.Table) -> pa.Table:
        ks, cu = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        idx = np.searchsorted(ks, ck)  # every order's customer is known
        coh = cu[idx]
        m = (pc.cast(pc.floor_temporal(batch["o_orderdate"], unit="month"),
                     pa.timestamp("us"))
             .to_numpy(zero_copy_only=False)
             .astype("datetime64[us]").astype(np.int64))
        cd = coh.astype("datetime64[us]").astype("datetime64[M]")
        md = m.astype("datetime64[us]").astype("datetime64[M]")
        age = (md.astype(np.int64) - cd.astype(np.int64))
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({
            "cohort": pa.array(coh.astype("datetime64[us]"),
                               pa.timestamp("us")),
            "age": pa.array(age, pa.int64()),
            "rev": pa.array(cents, pa.int64()),
        })
        return t.group_by(["cohort", "age"]).aggregate([("rev", "sum")])

    g = (_read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                  "o_totalprice"])
         .map_batches(tag, batch_format="pyarrow")
         .groupby(["cohort", "age"])
         .aggregate(Sum("rev_sum", alias_name="rev"))
         .to_pandas().sort_values(["cohort", "age"])
         .reset_index(drop=True))
    g["cum_rev"] = g.groupby("cohort")["rev"].cumsum()
    g["n_customers"] = g["cohort"].map(cohort_size).astype("int64")
    return _finish(g, ["cohort", "age"], ints=["rev", "cum_rev", "age"],
                   cols=["cohort", "age", "n_customers", "rev", "cum_rev"])


def q_lorenz_curve(sf_dir: str) -> pd.DataFrame:
    """Lorenz-curve decile points of customer spend concentration (the
    gini_by_source companion that emits the CURVE): users sorted by
    total spend ascending (custkey tiebreak), at each decile the exact
    rank cutoff floor(n·k/10), the cumulative cents below it and the
    floor-integer share cum·10^6 // total — no quotient ever rounds.
    The per-customer aggregate is customer-dimension-bounded (the
    eb_smoothed_rates contract)."""

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        t = pa.table({"o_custkey": batch["o_custkey"],
                      "v": pa.array(cents, pa.int64())})
        return t.group_by(["o_custkey"]).aggregate([("v", "sum")])

    per = (_read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("o_custkey").aggregate(Sum("v_sum", alias_name="v"))
           .to_pandas())
    order = np.lexsort((per["o_custkey"].to_numpy(np.int64),
                        per["v"].to_numpy(np.int64)))
    v = per["v"].to_numpy(np.int64)[order]
    cum = np.concatenate(([0], np.cumsum(v)))
    n = len(v)
    total = int(cum[-1])
    rows = []
    for kq in range(1, 11):
        r = n * kq // 10
        c = int(cum[r])
        rows.append((kq, r, c, c * 10**6 // total))
    out = pd.DataFrame(rows, columns=["decile", "cum_users", "cum_cents",
                                      "share_micro"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def q_isotonic_calibration(sf_dir: str) -> pd.DataFrame:
    """Isotonic regression (PAVA) of the 'F'-status rate against the
    order-price bucket — the monotone score-calibration step of an ML
    ranking pipeline, computed by the exact minimax characterization
    fitted[i] = max_{j<=i} min_{k>=i} mean(y[j..k]) instead of the
    sequential pool-adjacent-violators loop, because the minimax form is
    (a) embarrassingly vectorizable from the bucket histogram's two
    cumulative sums and (b) directly expressible in SQL (a bounded
    O(buckets³) join), so the oracle replays the identical arithmetic.
    The distributed part is one (bucket -> n, pos) histogram shuffle;
    the O(b²) driver matrix is bucket-bounded (~100), never row-bounded.
    Every mean is the same int/int double in both engines, so min / max
    pick identical values and round(.,6) agrees."""

    def partial(batch: pa.Table) -> pa.Table:
        thr = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) / 5000.0
        ).astype(np.int64)
        pos = (batch["o_orderstatus"].to_numpy(zero_copy_only=False)
               == "F").astype(np.int64)
        t = pa.table({
            "thr": pa.array(thr, pa.int64()),
            "c": pa.array(np.ones(len(thr), np.int64), pa.int64()),
            "p": pa.array(pos, pa.int64()),
        })
        return t.group_by(["thr"]).aggregate([("c", "sum"), ("p", "sum")])

    h = (_read(sf_dir, "orders", ["o_totalprice", "o_orderstatus"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("thr")
         .aggregate(Sum("c_sum", alias_name="c"), Sum("p_sum", alias_name="p"))
         .to_pandas().sort_values("thr").reset_index(drop=True))
    c = h["c"].to_numpy(np.int64)
    p = h["p"].to_numpy(np.int64)
    b = len(h)
    cn = np.concatenate(([0], np.cumsum(c)))
    cp = np.concatenate(([0], np.cumsum(p)))
    # A[j, k] = mean(y[j..k]); invalid (k < j) cells +inf for the min
    num = (cp[None, 1:] - cp[:-1, None]).astype(np.float64)
    den = (cn[None, 1:] - cn[:-1, None]).astype(np.float64)
    jj, kk = np.indices((b, b))
    a = np.where(kk >= jj, num / np.where(den > 0, den, 1.0), np.inf)
    m = np.minimum.accumulate(a[:, ::-1], axis=1)[:, ::-1]  # min over k>=i
    f = np.maximum.accumulate(m, axis=0)                    # max over j<=i
    fitted = f[np.arange(b), np.arange(b)]
    return pd.DataFrame({
        "thr": h["thr"].astype("int64"),
        "n": pd.array(c, dtype="int64"),
        "pos": pd.array(p, dtype="int64"),
        "fitted": np.round(fitted, 6),
    })


def q_double_billing(sf_dir: str, gap_days: int = 7) -> pd.DataFrame:
    """Duplicate-payment audit: pairs of orders by the same customer
    placed within ``gap_days`` of each other (amounts here are uniform
    over a wide range, so the date band is the informative blocking key;
    a production run would band on amount too — the emitted
    price_diff_cents column is that refinement's input).  Fused customer
    partitions; within a partition one composite-key (cust << 24 | day)
    sort makes the banded self-join a single searchsorted sweep — the
    er_blocking band contract, quadratic only inside a customer's
    gap window."""
    n_parts = _fused_parts(sf_dir, "orders")

    def pairs_partition(group: pa.Table) -> pa.Table:
        ck = group["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        key = group["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        day = (group["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64) // _DAY_US)
        cents = np.round(
            group["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        day -= day.min()
        assert int(day.max()) < (1 << 24), "day span exceeds composite key"
        comp = (ck << 24) | day
        order = np.lexsort((key, comp))
        comp, ck, key, day, cents = (comp[order], ck[order], key[order],
                                     day[order], cents[order])
        idx = np.arange(len(comp))
        hi = np.searchsorted(comp, comp + gap_days, side="right")
        cnt = hi - idx - 1
        tot = int(cnt.sum())
        if tot == 0:
            return pa.table({
                "o_custkey": pa.array([], pa.int64()),
                "k1": pa.array([], pa.int64()),
                "k2": pa.array([], pa.int64()),
                "gap_days": pa.array([], pa.int64()),
                "price_diff_cents": pa.array([], pa.int64()),
            })
        i = np.repeat(idx, cnt)
        j = i + (np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)) + 1
        k1 = np.minimum(key[i], key[j])
        k2 = np.maximum(key[i], key[j])
        return pa.table({
            "o_custkey": pa.array(ck[i], pa.int64()),
            "k1": pa.array(k1, pa.int64()),
            "k2": pa.array(k2, pa.int64()),
            "gap_days": pa.array(day[j] - day[i], pa.int64()),
            "price_diff_cents": pa.array(np.abs(cents[i] - cents[j]),
                                         pa.int64()),
        })

    out = (_with_part(_read(sf_dir, "orders", ["o_custkey", "o_orderkey",
                                               "o_orderdate", "o_totalprice"]),
                      "o_custkey", n_parts)
           .groupby("part")
           .map_groups(pairs_partition, batch_format="pyarrow")
           .to_pandas())
    return (out.sort_values(["o_custkey", "k1", "k2"])
            .reset_index(drop=True))
