"""Broadcast-join probe guards (ADVICE r3: empty build side raised
IndexError in the searchsorted+clamp idiom), the partial-aggregate
helper and the empty-input guards of the folded bodies."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nadry_search_engine_be_ray.pipelines import relational as rel
from nadry_search_engine_be_ray.pipelines.relational import (
    _partial_agg,
    _sorted_lookup,
)

SF001 = "/root/testdata/sf0.001"


def test_sorted_lookup_empty_build_side():
    ks = np.array([], dtype=np.int64)
    vals = np.array([1, 2, 3], dtype=np.int64)
    hit, idx = _sorted_lookup(ks, vals)
    assert hit.tolist() == [False, False, False]
    assert idx.tolist() == [0, 0, 0]


def test_sorted_lookup_hits_and_misses():
    ks = np.array([2, 5, 9], dtype=np.int64)
    vals = np.array([1, 2, 5, 9, 10], dtype=np.int64)
    hit, idx = _sorted_lookup(ks, vals)
    assert hit.tolist() == [False, True, True, True, False]
    # matched indexes point at the right key
    assert ks[idx[hit]].tolist() == [2, 5, 9]


def test_sorted_lookup_empty_probe():
    ks = np.array([1], dtype=np.int64)
    vals = np.array([], dtype=np.int64)
    hit, idx = _sorted_lookup(ks, vals)
    assert hit.size == 0 and idx.size == 0


def test_partial_agg_matches_pandas_groupby(ray_session):
    """Multi-block input, every combine kind: the per-block partials plus
    the driver combine equal one pandas groupby of the collected input."""
    import ray

    rng = np.random.default_rng(7)
    n = 4000
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], n),
        "j": rng.integers(0, 4, n),
        "x": rng.integers(-50, 50, n).astype(np.int64),
        "y": rng.normal(size=n),
    })
    ds = ray.data.from_pandas([df.iloc[i:i + 500] for i in range(0, n, 500)])
    assert ds.num_blocks() > 1

    def prep(batch: pa.Table) -> pa.Table:
        return batch.append_column("y2", pa.compute.multiply(batch["y"], 2.0))

    got = _partial_agg(ds, ["k", "j"], {
        "s": ("x", "sum"), "n": ("x", "count"), "lo": ("y", "min"),
        "hi": ("y", "max"), "s2": ("y2", "sum"),
    }, prep)
    exp = df.groupby(["k", "j"], as_index=False).agg(
        s=("x", "sum"), n=("x", "count"), lo=("y", "min"), hi=("y", "max"),
        s2=("y", "sum"))
    exp["s2"] *= 2.0
    assert list(got.columns) == ["k", "j", "s", "n", "lo", "hi", "s2"]
    assert got[["k", "j", "s", "n", "lo", "hi"]].equals(
        exp[["k", "j", "s", "n", "lo", "hi"]])
    assert np.allclose(got["s2"], exp["s2"], rtol=0, atol=1e-9)


def test_partial_agg_all_empty_partials(ray_session):
    """A prep that keeps no row: Ray collects all-empty partials as a
    frame with no columns; the helper returns 0 rows with the key and
    alias columns instead of raising KeyError in the combine."""
    import ray

    ds = ray.data.from_pandas(pd.DataFrame({"k": ["a", "b"], "v": [1, 2]}))
    got = _partial_agg(ds, "k", {"total": ("v", "sum"), "n": ("v", "count")},
                       lambda b: b.slice(0, 0))
    assert len(got) == 0
    assert list(got.columns) == ["k", "total", "n"]


@pytest.mark.parametrize("name, kwargs", [
    ("q_tpch_q9", {"name_token": "zzzz"}),
    ("q_tpch_q20", {"name_prefix": "zzzz"}),
    ("q_tpch_q8", {"region": "NOWHERE"}),
    ("q_id_gaps", {"event_type": "nope"}),
])
def test_empty_selection_returns_no_rows(ray_session, name, kwargs):
    """A filter that selects nothing returns 0 rows with the default
    call's columns (these raised KeyError / IndexError / TypeError)."""
    fn = getattr(rel, name)
    got = fn(SF001, **kwargs)
    assert len(got) == 0
    assert list(got.columns) == list(fn(SF001).columns)


def test_tpch_q17_brand_without_parts(ray_session):
    """A brand with no parts sums over no rows: avg_yearly 0.0."""
    got = rel.q_tpch_q17(SF001, brand="Brand#99")
    assert got["avg_yearly"].tolist() == [0.0]


def test_tpch_q5_matches_duckdb(ray_session):
    """Q5 composite (broadcast dims + one big hash join + same-nation
    predicate) vs DuckDB on sf0.001."""
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_tpch_q5(sf)
    con = duckdb.connect()
    exp = con.execute(f"""
        SELECT n_name,
               round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
        FROM read_parquet('{sf}/customer.parquet') c
        JOIN read_parquet('{sf}/orders.parquet') o ON c_custkey = o_custkey
        JOIN read_parquet('{sf}/lineitem.parquet') l ON l_orderkey = o_orderkey
        JOIN read_parquet('{sf}/supplier.parquet') s ON l_suppkey = s_suppkey
        JOIN read_parquet('{sf}/nation.parquet') n ON s_nationkey = n_nationkey
        JOIN read_parquet('{sf}/region.parquet') r ON n_regionkey = r_regionkey
        WHERE r_name = 'ASIA' AND c_nationkey = s_nationkey
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY n_name ORDER BY revenue DESC, n_name
    """).df()
    assert got["n_name"].tolist() == exp["n_name"].tolist()
    assert got["revenue"].tolist() == exp["revenue"].tolist()


def test_tpch_q6_matches_duckdb(ray_session):
    """Q6 pure scan-filter-sum vs DuckDB on sf0.001."""
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_tpch_q6(sf)
    exp = duckdb.connect().execute(f"""
        SELECT round(sum(l_extendedprice * l_discount), 4) AS revenue
        FROM read_parquet('{sf}/lineitem.parquet')
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """).df()
    assert got["revenue"].iloc[0] == exp["revenue"].iloc[0]


def test_tpch_q10_matches_duckdb(ray_session):
    """Q10 (date-window join + custkey groupby + post-limit enrich)
    vs DuckDB on sf0.001."""
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_tpch_q10(sf)
    exp = duckdb.connect().execute(f"""
        WITH agg AS (
            SELECT o_custkey AS c_custkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 4)
                       AS revenue
            FROM read_parquet('{sf}/orders.parquet') o
            JOIN read_parquet('{sf}/lineitem.parquet') l
                 ON l_orderkey = o_orderkey
            WHERE o_orderdate >= TIMESTAMP '1996-10-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
              AND l_returnflag = 'R'
            GROUP BY o_custkey
            ORDER BY revenue DESC, c_custkey
            LIMIT 20
        )
        SELECT agg.c_custkey, c_name, revenue, c_acctbal, n_name
        FROM agg
        JOIN read_parquet('{sf}/customer.parquet') c
             ON c.c_custkey = agg.c_custkey
        JOIN read_parquet('{sf}/nation.parquet') n ON c_nationkey = n_nationkey
        ORDER BY revenue DESC, agg.c_custkey
    """).df()
    assert got["c_custkey"].tolist() == exp["c_custkey"].tolist()
    assert got["revenue"].tolist() == exp["revenue"].tolist()
    assert got["n_name"].tolist() == exp["n_name"].tolist()


def test_skyline_2d_bruteforce():
    """Vectorized sweep equals O(n^2) dominance on random data with
    heavy ties and duplicate points."""
    import numpy as np

    from nadry_search_engine_be_ray.pipelines.relational import _skyline_2d

    rng = np.random.RandomState(3)
    for trial in range(20):
        n = rng.randint(1, 60)
        price = rng.randint(0, 8, n).astype(np.float64)
        date = rng.randint(0, 8, n).astype(np.int64)
        got = set(_skyline_2d(price, date).tolist())
        exp = set()
        for i in range(n):
            dominated = any(
                price[j] >= price[i] and date[j] <= date[i]
                and (price[j] > price[i] or date[j] < date[i])
                for j in range(n)
            )
            if not dominated:
                exp.add(i)
        assert got == exp, (trial, price.tolist(), date.tolist())


def test_skyline_orders_matches_duckdb(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_skyline_orders(sf)
    exp = duckdb.connect().execute(f"""
        SELECT o_orderkey, round(o_totalprice, 4) AS o_totalprice,
               o_orderdate
        FROM read_parquet('{sf}/orders.parquet') q
        WHERE NOT EXISTS (
            SELECT 1 FROM read_parquet('{sf}/orders.parquet') p
            WHERE p.o_totalprice >= q.o_totalprice
              AND p.o_orderdate <= q.o_orderdate
              AND (p.o_totalprice > q.o_totalprice
                   OR p.o_orderdate < q.o_orderdate)
        )
        ORDER BY o_orderkey
    """).df()
    assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()
    assert got["o_totalprice"].tolist() == exp["o_totalprice"].tolist()


def test_retention_cohorts_matches_duckdb(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_retention_cohorts(sf)
    exp = duckdb.connect().execute(f"""
        WITH firsts AS (
            SELECT user_id, date_trunc('week', min(ts)) AS cohort_week
            FROM read_parquet('{sf}/events.parquet') GROUP BY user_id
        ),
        weeks AS (
            SELECT DISTINCT user_id, date_trunc('week', ts) AS w
            FROM read_parquet('{sf}/events.parquet')
        )
        SELECT f.cohort_week,
               CAST(date_diff('day', f.cohort_week, w.w) / 7 AS BIGINT)
                   AS week_offset,
               count(*) AS n_users
        FROM weeks w JOIN firsts f USING (user_id)
        GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    assert len(got) == len(exp)
    assert got["week_offset"].tolist() == exp["week_offset"].tolist()
    assert got["n_users"].tolist() == exp["n_users"].tolist()
    assert (got["cohort_week"].to_numpy("datetime64[us]")
            == exp["cohort_week"].to_numpy("datetime64[us]")).all()
    # offset-0 cell of each cohort counts the whole cohort (every user is
    # active in their own first week)
    z = got[got["week_offset"] == 0]
    assert (z["n_users"] > 0).all()


def test_cube_agg_matches_duckdb(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_cube_agg(sf)
    exp = duckdb.connect().execute(f"""
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               round(sum(l_quantity), 4) AS sum_qty, count(*) AS n_rows
        FROM read_parquet('{sf}/lineitem.parquet')
        GROUP BY CUBE(l_returnflag, l_linestatus)
        ORDER BY l_returnflag, l_linestatus
    """).df()
    assert got["l_returnflag"].tolist() == exp["l_returnflag"].tolist()
    assert got["l_linestatus"].tolist() == exp["l_linestatus"].tolist()
    assert got["sum_qty"].tolist() == exp["sum_qty"].tolist()
    assert got["n_rows"].tolist() == exp["n_rows"].tolist()


def test_interval_coverage_bruteforce(ray_session):
    """Σ min(gap, W) + W equals an explicit interval-union merge."""
    import duckdb
    import numpy as np

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_interval_coverage(sf)
    ev = duckdb.sql(
        f"SELECT user_id, ts FROM read_parquet('{sf}/events.parquet')"
    ).df()
    W = 5 * 60 * 1_000_000
    exp = {}
    for uid, g in ev.groupby("user_id"):
        ts = np.sort(g["ts"].to_numpy("datetime64[us]").astype(np.int64))
        total, cur_s, cur_e = 0, None, None
        for s in ts:
            e = s + W
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        total += cur_e - cur_s
        exp[int(uid)] = int(total)
    assert dict(zip(got["user_id"], got["covered_us"])) == exp


def test_tpch_q12_matches_duckdb(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_tpch_q12(sf)
    exp = duckdb.connect().execute(f"""
        SELECT CAST(year(l_shipdate) AS BIGINT) AS ship_year,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END) AS high_line_count,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 0 ELSE 1 END) AS low_line_count
        FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN read_parquet('{sf}/orders.parquet') o
             ON l_orderkey = o_orderkey
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1998-01-01'
        GROUP BY 1 ORDER BY 1
    """).df()
    assert got["ship_year"].tolist() == exp["ship_year"].tolist()
    assert got["high_line_count"].tolist() == exp["high_line_count"].tolist()
    assert got["low_line_count"].tolist() == exp["low_line_count"].tolist()


def test_event_transitions_bruteforce(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_event_transitions(sf, k=1000)
    ev = duckdb.sql(f"""
        SELECT user_id, event_id, ts, event_type
        FROM read_parquet('{sf}/events.parquet')
        ORDER BY user_id, ts, event_id
    """).df()
    exp: dict[tuple, int] = {}
    for _, g in ev.groupby("user_id"):
        types = g["event_type"].tolist()
        for a, b in zip(types, types[1:]):
            exp[(a, b)] = exp.get((a, b), 0) + 1
    got_map = {(r.from_type, r.to_type): r.n
               for r in got.itertuples(index=False)}
    assert got_map == exp


def test_tpch_q18_matches_duckdb(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_tpch_q18(sf)
    exp = duckdb.connect().execute(f"""
        WITH big AS (
            SELECT l_orderkey, round(sum(l_quantity), 4) AS sum_qty
            FROM read_parquet('{sf}/lineitem.parquet')
            GROUP BY l_orderkey HAVING sum(l_quantity) > 250
        )
        SELECT c_name, c_custkey, o_orderkey,
               round(o_totalprice, 4) AS o_totalprice, sum_qty
        FROM big
        JOIN read_parquet('{sf}/orders.parquet') o
             ON o_orderkey = l_orderkey
        JOIN read_parquet('{sf}/customer.parquet') c
             ON c_custkey = o_custkey
        ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
    """).df()
    assert len(got) == len(exp) and len(got) > 0
    assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()
    assert got["sum_qty"].tolist() == exp["sum_qty"].tolist()
    assert got["c_name"].tolist() == exp["c_name"].tolist()


def test_grouped_distinct_matches_duckdb(ray_session):
    import duckdb

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_grouped_distinct(sf)
    exp = duckdb.connect().execute(f"""
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM read_parquet('{sf}/events.parquet')
        GROUP BY event_type ORDER BY event_type
    """).df()
    assert got["event_type"].tolist() == exp["event_type"].tolist()
    assert got["n_users"].tolist() == exp["n_users"].tolist()


def test_time_weighted_avg_bruteforce(ray_session):
    import duckdb
    import numpy as np

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_time_weighted_avg(sf)
    ev = duckdb.sql(f"""
        SELECT user_id, event_id, ts, value
        FROM read_parquet('{sf}/events.parquet')
        ORDER BY user_id, ts, event_id
    """).df()
    exp = {}
    for uid, g in ev.groupby("user_id"):
        t = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        v = g["value"].to_numpy(np.float64)
        span = t[-1] - t[0]
        if span <= 0:
            continue
        numer = float((v[:-1] * np.diff(t)).sum())
        exp[int(uid)] = round(numer / span, 6)
    got_map = dict(zip(got["user_id"].astype(int), got["twa_value"]))
    assert set(got_map) == set(exp)
    for u in exp:
        assert abs(got_map[u] - exp[u]) < 1e-9


def test_gini_by_source_bruteforce(ray_session):
    """The histogram rank-run formula == the classic sorted-rank Gini
    (2·Σ i·x_i /(n·Σx) − (n+1)/n over the fully sorted values) per
    source on sf0.001 — ties collapse losslessly."""
    import duckdb
    import numpy as np

    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    got = rel.q_gini_by_source(sf)
    df = duckdb.connect().execute(
        f"SELECT source, n_chars FROM read_parquet('{sf}/documents.parquet')"
    ).df()
    for _, row in got.iterrows():
        x = np.sort(df.loc[df["source"] == row["source"], "n_chars"]
                    .to_numpy(np.int64))
        n = x.size
        i = np.arange(1, n + 1, dtype=np.int64)
        g = 2.0 * float((i * x).sum()) / (n * float(x.sum())) - (n + 1.0) / n
        assert row["n_docs"] == n
        assert abs(row["gini"] - round(g, 6)) <= 1e-6


def test_assoc_rules_consistency(ray_session):
    """Association-rule outputs are internally consistent: lift ==
    conf_12 / (n_i2/N) within rounding, support·N == n_pair, and the
    pair counts are symmetric-bounded by the item counts."""
    from nadry_search_engine_be_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"
    out = rel.q_assoc_rules(sf, k=50, min_count=2)
    assert len(out) > 0
    assert (out["i1"] < out["i2"]).all()
    assert (out["n_pair"] <= out[["n_i1", "n_i2"]].min(axis=1)).all()
    n_users = (out["n_pair"] / out["support"]).round().astype(int)
    assert n_users.nunique() == 1
    N = int(n_users.iloc[0])
    recomputed = (out["n_pair"] * N / (out["n_i1"] * out["n_i2"])).round(6)
    assert (recomputed - out["lift"]).abs().max() <= 1e-6
    assert (out["lift"].values == sorted(out["lift"].values, reverse=True)[
        : len(out)]).all() or out["lift"].is_monotonic_decreasing


def test_tpch_q17_integer_boundary(ray_session):
    """The 5·q·n < sum_q integer form equals the float 0.2·avg predicate
    on this integer-quantity corpus (checked row-by-row in DuckDB), so
    the Ray/oracle agreement isn't luck."""
    import duckdb

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    n_diff = con.execute(f"""
        WITH st AS (
            SELECT l_partkey, sum(CAST(l_quantity AS BIGINT)) AS sq,
                   count(*) AS n, avg(l_quantity) AS av
            FROM read_parquet('{sf}/lineitem.parquet') GROUP BY l_partkey
        )
        SELECT count(*) FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN st ON st.l_partkey = l.l_partkey
        WHERE (5 * CAST(l.l_quantity AS BIGINT) * st.n < st.sq)
              <> (l.l_quantity < 0.2 * st.av)
    """).fetchone()[0]
    assert n_diff == 0
