"""Reference tests for the session-10 second wave: multi-source BFS
closeness (vs per-seed bfs_depths), planted-edge reciprocity (brute
adjacency dict), item-item cosine CF (brute pandas recompute) and the
permuterm rotation index (vs the stream-scan wildcard path, including
the permuterm-inexpressible fallback pattern)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _quad_edges(sf_dir=SF):
    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = int(docs.count())

    def mk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        ks = np.tile(np.array([1, 2, 3], dtype=np.int64), len(ids))
        dst = (src * src * 31 + ks * 97) % n
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return docs.map_batches(mk, batch_format="pyarrow"), n


def test_multi_bfs_matches_per_seed_bfs(ray_session):
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        bfs_depths,
        multi_bfs_closeness,
    )

    edges, n = _quad_edges()
    seeds = [(97 * i) % n for i in range(5)]
    out = multi_bfs_closeness(edges, seeds, n_rounds=4).to_pandas()
    assert out["seed"].tolist() == sorted(set(seeds))
    for _, row in out.iterrows():
        single = bfs_depths(edges, source=int(row["seed"]),
                            n_rounds=4).to_pandas()
        assert int(row["n_reached"]) == len(single)
        sd = int(single["depth"].sum())
        assert int(row["sum_depth"]) == sd
        want = ((len(single) - 1) * 10**6 // sd) if sd else 0
        assert int(row["closeness_micro"]) == want


def test_reciprocity_brute_adjacency(ray_session):
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    out = E.queries()["reciprocity"](SF)
    ids = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    n = len(ids)
    edges = set()
    for s in ids:
        for k in (1, 2, 3):
            d = (s * 31 + k * 97) % n
            if s != d:
                edges.add((int(s), int(d)))
        if s % 5 == 0:
            d = (s * 31 + 97) % n
            if d != s:
                edges.add((int(d), int(s)))
    ne, nr = {}, {}
    for s, d in edges:
        b = s % 32
        ne[b] = ne.get(b, 0) + 1
        if (d, s) in edges:
            nr[b] = nr.get(b, 0) + 1
    got = {int(r["bucket"]): (int(r["n_edges"]), int(r["n_recip"]))
           for _, r in out.iterrows()}
    assert got == {b: (ne[b], nr.get(b, 0)) for b in ne}
    assert sum(v[1] for v in got.values()) > 0  # planted pairs exist


def test_item_cf_brute_pandas(ray_session):
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.quant_ops import q_item_cf_topk

    out = q_item_cf_topk(SF, k=30)
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "props"]).to_pandas()
    ev["item"] = ev["props"].str.extract(r'"k":\s*(\d+)').astype("int64")
    ui = ev[["user_id", "item"]].drop_duplicates()
    ic = ui.groupby("item").size()
    pairs = {}
    for _, grp in ui.groupby("user_id"):
        its = sorted(grp["item"].tolist())
        for i in range(len(its)):
            for j in range(i + 1, len(its)):
                pairs[(its[i], its[j])] = pairs.get((its[i], its[j]), 0) + 1
    rows = [(a, b, c, c / np.sqrt(float(ic[a] * ic[b])))
            for (a, b), c in pairs.items()]
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    ref = rows[:30]
    assert len(out) == min(30, len(rows))
    for got, exp in zip(out.itertuples(index=False), ref):
        assert (got.a, got.b, got.cab) == exp[:3]
        assert got.cosine == pytest.approx(round(exp[3], 6), abs=1e-12)


def test_permuterm_equals_stream_scan(ray_session, index_tiers):
    from nadry_search_engine_be_ray.pipelines.query import (
        wildcard_terms,
        wildcard_terms_permuterm,
    )

    # one rotation-answerable per shape + the fallback (_) pattern
    pats = ["se%ch", "tok%", "%tion", "q__ri", "zz%qx", "search"]
    for index_dir in index_tiers.values():
        a = wildcard_terms(index_dir, pats).to_pandas()
        b = wildcard_terms_permuterm(index_dir, pats).to_pandas()
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b.reset_index(drop=True))


def test_dunning_llr_brute(ray_session):
    """Little-python Dunning recompute from raw text (regexp tokens,
    bigram-space margins) vs the distributed op's top-25."""
    import re

    import pyarrow.parquet as pq

    import __ray_entry__ as E

    out = E.queries()["dunning_llr"](SF)
    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    big = {}
    for t in texts:
        ts = re.findall(r"[a-z0-9_]+", t.lower())
        for a, b in zip(ts, ts[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
    n = sum(big.values())
    c1, c2 = {}, {}
    for (a, b), c in big.items():
        c1[a] = c1.get(a, 0) + c
        c2[b] = c2.get(b, 0) + c

    def cell(k, r, c):
        return k * np.log((n * k) / (r * c)) if k > 0 else 0.0

    rows = []
    for (a, b), c12 in big.items():
        if c12 < 5:
            continue
        r1, cc = c1[a], c2[b]
        llr = 2.0 * (cell(c12, r1, cc)
                     + cell(r1 - c12, r1, n - cc)
                     + cell(cc - c12, n - r1, cc)
                     + cell(n - r1 - cc + c12, n - r1, n - cc))
        rows.append((a, b, c12, round(llr, 6)))
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    ref = rows[:25]
    assert len(out) == min(25, len(rows))
    got = list(out.itertuples(index=False, name=None))
    assert got == ref


def test_rolling_band_brute(ray_session):
    """Brute pandas rolling window over the fully sorted stream; the
    distributed halo path must emit exactly the same breakout rows."""
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.scan_ops import q_rolling_band

    w = 20
    out = q_rolling_band(SF, window=w)
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "event_id", "value"]).to_pandas()
    ev = ev.sort_values(["ts", "event_id"]).reset_index(drop=True)
    v = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    eid = ev["event_id"].to_numpy(np.int64)
    rows = []
    for i in range(w - 1, len(v)):
        s = int(v[i - w + 1:i + 1].sum())
        ss = int((v[i - w + 1:i + 1] ** 2).sum())
        dev = w * int(v[i]) - s
        if dev * dev * (w - 1) > 4 * w * (w * ss - s * s):
            rows.append((int(eid[i]), int(v[i]), s, ss))
    rows.sort()
    got = [tuple(map(int, r)) for r in
           out[["event_id", "v_cents", "win_sum", "win_sumsq"]]
           .to_numpy()]
    assert got == rows
    assert len(rows) > 0  # non-degenerate on this stream


def _pava_ref(c, p):
    """Sequential pool-adjacent-violators over (count, positives)."""
    blocks = [[ci, pi] for ci, pi in zip(c, p)]
    i = 0
    while i < len(blocks) - 1:
        a, b = blocks[i], blocks[i + 1]
        if a[1] * b[0] > b[1] * a[0]:  # rate_a > rate_b: pool
            blocks[i] = [a[0] + b[0], a[1] + b[1]]
            del blocks[i + 1]
            i = max(i - 1, 0)
        else:
            i += 1
    # expand by original counts per pooled block
    out = []
    idx = 0
    for ci, pi in blocks:
        take = 0
        while take < ci:
            take += c[idx]
            out.append(pi / ci)
            idx += 1
    return out


def test_isotonic_minimax_equals_pava(ray_session):
    from nadry_search_engine_be_ray.pipelines.quant_ops import (
        q_isotonic_calibration,
    )

    out = q_isotonic_calibration(SF)
    fit = out["fitted"].to_numpy()
    assert (np.diff(fit) >= -1e-12).all()  # monotone non-decreasing
    ref = _pava_ref(out["n"].tolist(), out["pos"].tolist())
    assert np.allclose(fit, np.round(ref, 6), atol=1e-9)
    assert out["fitted"].nunique() < len(out)  # pooling actually happened


def test_quantile_normalize_rank_picks(ray_session):
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.quant_ops import (
        q_quantile_normalize,
    )

    out = q_quantile_normalize(SF)
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    cents = np.round(ev["value"] * 100).astype(np.int64)
    pooled = np.sort(cents.to_numpy())
    n_all = len(pooled)
    for t, sub in ev.groupby("event_type"):
        c = np.sort(np.round(sub["value"] * 100).astype(np.int64).to_numpy())
        n = len(c)
        for kq in range(1, 10):
            row = out[(out["event_type"] == t) & (out["decile"] == kq)]
            assert int(row["src_cents"].iloc[0]) == int(c[(n - 1) * kq // 10])
            assert int(row["target_cents"].iloc[0]) == int(
                pooled[(n_all - 1) * kq // 10])


def test_cusum_recurrence_equals_closed_form(ray_session):
    """The closed prefix-scan form must equal the sequential CUSUM
    recurrence g_t = max(0, g_{t-1} + x_t) on the scaled series."""
    from nadry_search_engine_be_ray.pipelines.quant_ops import q_cusum_drift

    out = q_cusum_drift(SF)
    v = out["v_cents"].to_numpy(np.int64)
    n = len(v)
    tot = int(v.sum())
    x = n * v - tot - n * (tot // (2 * n))
    g, ref = 0, []
    for xi in x:
        g = max(0, g + int(xi))
        ref.append(g)
    assert out["g_scaled"].tolist() == ref
    assert out["alarm"].tolist() == [gi > n * (tot // n) for gi in ref]


def test_attribution_linear_brute(ray_session):
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.quant_ops import (
        q_attribution_linear,
    )

    out = q_attribution_linear(SF)
    ev = pq.read_table(
        f"{SF}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"]).to_pandas()
    ev["us"] = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    w = 7 * 86_400_000_000
    touches, credit = {}, {}
    for _, grp in ev.groupby("user_id"):
        rows = grp.sort_values(["us", "event_id"]).to_numpy()
        # columns: user_id, ts, event_id, event_type, us
        for i, r in enumerate(rows):
            if r[3] != "purchase":
                continue
            win = [q for j, q in enumerate(rows)
                   if j != i and q[3] != "purchase"
                   and q[4] >= r[4] - w
                   and (q[4] < r[4] or (q[4] == r[4] and q[2] < r[2]))]
            k = len(win)
            if k == 0:
                continue
            per = 10**6 // k
            for q in win:
                touches[q[3]] = touches.get(q[3], 0) + 1
                credit[q[3]] = credit.get(q[3], 0) + per
    got = {r["event_type"]: (int(r["n_touches"]), int(r["credit_micro"]))
           for _, r in out.iterrows()}
    assert got == {t: (touches[t], credit[t]) for t in touches}


def test_static_prune_rule_per_term(ray_session, built_index):
    """Independent python recompute of the keep-10 (tf desc, doc asc)
    rule per term from the same SegmentReader."""
    from nadry_search_engine_be_ray.pipelines.build import (
        static_prune_profile,
    )
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    out = static_prune_profile(built_index, keep=10).to_pandas()
    r = SegmentReader(built_index)
    assert len(out) == len(list(r.terms()))
    for _, row in out.head(60).iterrows():
        pl = r.postings(row["term"])
        pairs = sorted(zip(pl.tfs.tolist(), pl.docs.tolist()),
                       key=lambda p: (-p[0], p[1]))
        kept = pairs[:10]
        assert int(row["df"]) == len(pairs)
        assert int(row["df_kept"]) == len(kept)
        assert int(row["sum_tf_total"]) == sum(t for t, _ in pairs)
        assert int(row["sum_tf_kept"]) == sum(t for t, _ in kept)
        assert int(row["cutoff_tf"]) == kept[-1][0]


def test_textrank_matches_driver_power_iteration(ray_session):
    """Pure-python band + adjacency + 5 power iterations from the raw
    parquet vs the distributed composition."""
    import re

    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.textqueries import (
        textrank_keywords,
    )

    out = textrank_keywords(SF)
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    df = {}
    streams = []
    for _, row in docs.iterrows():
        toks = re.split(r"[^a-z0-9]+", row["text"].lower())
        ok = [t for t in toks if len(t) >= 2]
        streams.append(toks)
        for t in set(ok):
            df[t] = df.get(t, 0) + 1
    band = sorted(t for t, d in df.items() if 10 <= d <= 400)
    vid = {t: i for i, t in enumerate(band)}
    edges = set()
    for toks in streams:
        for a, b in zip(toks, toks[1:]):
            if (len(a) >= 2 and len(b) >= 2 and a != b
                    and a in vid and b in vid):
                edges.add((vid[a], vid[b]))
                edges.add((vid[b], vid[a]))
    v = len(band)
    outdeg = np.zeros(v, np.int64)
    for s, _ in edges:
        outdeg[s] += 1
    rank = np.full(v, 1.0 / v)
    for _ in range(5):
        nxt = np.full(v, 0.15 / v)
        contrib = rank / np.maximum(outdeg, 1)
        for s, d in edges:
            nxt[d] += 0.85 * contrib[s]
        rank = nxt
    ref = sorted(((round(r, 9), t) for t, r in zip(band, rank)),
                 key=lambda p: (-p[0], p[1]))[:20]
    got = list(zip(out["rank"], out["term"]))
    for (rr, rt), (gr, gt) in zip(ref, got):
        assert rt == gt
        assert gr == pytest.approx(rr, abs=1e-7)


def test_rle_profile_brute(ray_session):
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.quant_ops import (
        _RLE_COLS,
        q_rle_profile,
    )

    out = q_rle_profile(SF).set_index(["tbl", "col"])
    for tbl, col, key in _RLE_COLS:
        t = pq.read_table(f"{SF}/{tbl}.parquet",
                          columns=[key, col]).to_pandas()
        t = t.sort_values(key)
        v = t[col].to_numpy()
        starts = np.r_[True, v[1:] != v[:-1]]
        runs = int(starts.sum())
        rle_bytes = int(sum(len(s.encode()) + 4 for s in v[starts]))
        row = out.loc[(tbl, col)]
        assert int(row["n"]) == len(v)
        assert int(row["runs_key"]) == runs
        assert int(row["rle_bytes_key"]) == rle_bytes
        uniq = sorted(set(v))
        assert int(row["card"]) == len(uniq)
        assert int(row["rle_bytes_sorted"]) == sum(
            len(s.encode()) + 4 for s in uniq)


def test_permuterm_prefix_math(ray_session):
    """The rotation-prefix transform: a%b -> b$a finds exactly the terms
    LIKE a%b, on a hand-built dictionary."""
    from nadry_search_engine_be_ray.pipelines.query import (
        wildcard_terms_permuterm,
    )

    # exercised through the real index in the test above; here check the
    # pure prefix arithmetic on rotations of a toy dictionary
    def rots(t):
        aug = t + "$"
        return {aug[i:] + aug[:i] for i in range(len(aug))}

    dictionary = ["search", "speech", "sch", "sech", "torch"]
    allr = {t: rots(t) for t in dictionary}
    prefix = "ch$se"  # pattern se%ch
    hits = {t for t, rs in allr.items()
            if any(r.startswith(prefix) for r in rs)}
    assert hits == {"search", "sech"}
