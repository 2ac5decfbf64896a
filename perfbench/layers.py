"""Per-layer metrics of the traced run.

``install`` wraps the engine's public functions (layer = engine module)
with spans and cache probes; ``metrics`` turns the spans into the
per-layer numbers.  Every metric is reported for every workload; a layer
the workload does not exercise reads 0.  Query-path figures count only
spans inside measured operations (op id >= 0), not set-up or checks.  A
cache fraction of -1 means the attribute it is read from no longer exists.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import time

import numpy as np
import pyarrow.parquet as pq

# (name, unit, better)
PER_LAYER = [
    ("build.prep_s", "s", "lower"),
    ("build.losers_s", "s", "lower"),
    ("build.postings_s", "s", "lower"),
    ("build.segments_s", "s", "lower"),
    ("build.term_rows", "count", "higher"),
    ("build.row_groups", "count", "higher"),
    ("build.segment_bytes", "bytes", "lower"),
    ("tokenize.docs_per_s", "1/s", "higher"),
    ("upsert.total_s", "s", "lower"),
    ("upsert.cpu_s", "s", "lower"),
    ("upsert.delta_build_s", "s", "lower"),
    ("upsert.delete_s", "s", "lower"),
    ("upsert.merge_s", "s", "lower"),
    ("delete.tombstone_s", "s", "lower"),
    ("purge.total_s", "s", "lower"),
    ("purge.cpu_s", "s", "lower"),
    ("purge.rewrite_s", "s", "lower"),
    ("segments.postings_cold_ms", "ms", "lower"),
    ("segments.postings_warm_ms", "ms", "lower"),
    ("segments.postings_calls", "count", "lower"),
    ("segments.distinct_terms", "count", "higher"),
    ("segments.pl_cache_hit_frac", "ratio", "higher"),
    ("segments.rg_cache_hit_frac", "ratio", "higher"),
    ("segments.rowgroup_reads", "count", "lower"),
    ("tokenizer.tokenize_us", "us", "lower"),
    ("scoring.rank_fast_ms", "ms", "lower"),
    ("query.topk_self_ms", "ms", "lower"),
    ("query.phrase_self_ms", "ms", "lower"),
    ("query.cache_hit_frac", "ratio", "higher"),
    ("docstore.content_for_ms", "ms", "lower"),
    ("docstore.details_ms", "ms", "lower"),
    ("api.snippet_ms", "ms", "lower"),
    ("api.search_self_ms", "ms", "lower"),
    ("http.overhead_ms", "ms", "lower"),
    ("serve.actor_start_s", "s", "lower"),
    ("serve.batch_eval_s", "s", "lower"),
    ("serve.batch_qps", "1/s", "higher"),
    ("trace.query_cpu_p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]
UNITS = {n: u for n, u, _ in PER_LAYER}


class Probes:
    """Cache state seen from outside, one entry per wrapped call:
    ``(op, hit)`` with ``hit`` None when the attribute is missing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pl: list[tuple[int, str, bool | None]] = []
        self.rg: list[tuple[int, bool | None]] = []
        self.cache: list[tuple[int, bool | None]] = []

    def postings(self, reader, term, *a, **k):
        c = getattr(reader, "_pl_cache", None)
        self.pl.append((self.tracer.op, term, None if c is None else term in c))

    def row(self, segfile, row, rg_cache, *a, **k):
        offs = getattr(segfile, "rg_offsets", None)
        if offs is None or not getattr(segfile, "lazy", True):
            self.rg.append((self.tracer.op, None))
            return
        g = int(np.searchsorted(offs, row, side="right") - 1)
        self.rg.append((self.tracer.op, (id(segfile), g) in rg_cache))

    def search(self, engine, query, page=0, page_size=10, *a, **k):
        c = getattr(engine, "_cache", None)
        self.cache.append((self.tracer.op,
                           None if c is None else ("t", query, page, page_size) in c))


def install(tracer):
    """Wrap the engine's layer entry points; returns the cache probes."""
    from nadry_search_engine_be_ray.functions.tokenizer import Tokenizer
    from nadry_search_engine_be_ray.pipelines import api, build, deletes, merge, query, serve
    from nadry_search_engine_be_ray.state import segments

    import serve_probe

    p = Probes(tracer)
    w = tracer.wrap
    w(build, "build_index", "build.build_index")
    w(merge, "upsert_index", "upsert")
    w(merge, "merge_indexes", "upsert.merge")
    w(deletes, "delete_docs", "delete.delete_docs")
    w(deletes, "purge_deletes", "purge.rewrite")
    w(segments.SegmentReader, "postings", "segments.postings", before=p.postings)
    w(segments._SegFile, "row", "segments.rowgroup", before=p.row)
    w(Tokenizer, "tokenize", "tokenizer.tokenize")
    w(query, "rank_fast", "scoring.rank_fast")
    w(query.SearchEngine, "search_auto", "query.search_auto")
    w(query.SearchEngine, "search", "query.search", before=p.search)
    w(query.SearchEngine, "phrase_search", "query.phrase")
    w(query.SearchEngine, "topk_wand", "query.topk")
    w(query.SearchEngine, "topk_taat", "query.topk_taat")
    w(query.DocStore, "content_for", "docstore.content_for")
    w(query.DocStore, "details", "docstore.details")
    w(api, "find_first_context_match", "api.snippet")
    w(api.SearchAPI, "search", "api.search")
    tracer._patched.append((serve, "QueryEvalActor", serve.QueryEvalActor))
    serve.QueryEvalActor = serve_probe.TimedQueryEvalActor
    return p


def tokenize_docs_per_s(index_dir: str, rows: int = 256) -> float:
    """stages.tokenize throughput on one prepped batch, fresh stage each
    time (cold stem cache); median of three."""
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.stages.tokenize import TokenizeBatch

    first = sorted(glob.glob(os.path.join(index_dir, "prepped", "*.parquet")))[0]
    batch = pq.read_table(first, columns=["doc_int", "title", "description",
                                          "content"]).slice(0, rows)
    rates = []
    for _ in range(3):
        stage = TokenizeBatch(BuildConfig())
        t0 = time.perf_counter()
        stage(batch)
        rates.append(batch.num_rows / (time.perf_counter() - t0))
    return statistics.median(rates)


def _frac(flags: list[bool | None]) -> float:
    if any(f is None for f in flags):
        return -1.0
    return sum(flags) / len(flags) if flags else 0.0


def _mean_ms(xs) -> float:
    xs = list(xs)
    return 1000.0 * sum(xs) / len(xs) if xs else 0.0


def metrics(run, tracer, probes, span_cost_s: float) -> dict[str, float]:
    spans = tracer.spans
    selfs = tracer.self_times()

    def in_ops(name):
        return [i for i, s in enumerate(spans)
                if s[0] == name and s[4] >= 0 and s[2] is not None]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def top(name, under=None):
        return sum(dur(i) for i, s in enumerate(spans) if s[0] == name
                   and s[2] is not None
                   and (spans[s[3]][0] if s[3] >= 0 else None) == under)

    m = {n: 0.0 for n, _, _ in PER_LAYER}
    m.update({k: v for k, v in run.layer.items() if k in m})

    with open(os.path.join(run.index_dir, "manifest.json")) as f:
        phases = json.load(f)["phases"]
    for ph in ("prep", "losers", "postings", "segments"):
        m[f"build.{ph}_s"] = phases[ph]["seconds"]
    m["tokenize.docs_per_s"] = tokenize_docs_per_s(run.index_dir)

    m["upsert.delta_build_s"] = top("build.build_index", under="upsert")
    m["upsert.delete_s"] = top("delete.delete_docs", under="upsert")
    m["upsert.merge_s"] = top("upsert.merge", under="upsert")
    m["delete.tombstone_s"] = top("delete.delete_docs")
    m["purge.rewrite_s"] = top("purge.rewrite")

    post = in_ops("segments.postings")
    pl = [(t, hit) for op, t, hit in probes.pl if op >= 0]
    if len(pl) == len(post) and post:
        m["segments.postings_cold_ms"] = _mean_ms(
            dur(i) for i, (_, h) in zip(post, pl) if not h)
        m["segments.postings_warm_ms"] = _mean_ms(
            dur(i) for i, (_, h) in zip(post, pl) if h)
    m["segments.postings_calls"] = len(post)
    m["segments.distinct_terms"] = len({t for t, _ in pl})
    m["segments.pl_cache_hit_frac"] = _frac([h for _, h in pl])
    rg = [h for op, h in probes.rg if op >= 0]
    m["segments.rg_cache_hit_frac"] = _frac(rg)
    m["segments.rowgroup_reads"] = sum(1 for h in rg if h is False)
    m["query.cache_hit_frac"] = _frac([h for op, h in probes.cache if op >= 0])

    def mean_self_ms(name):
        return _mean_ms(selfs[i] for i in in_ops(name))

    m["tokenizer.tokenize_us"] = 1000.0 * mean_self_ms("tokenizer.tokenize")
    m["scoring.rank_fast_ms"] = _mean_ms(dur(i) for i in in_ops("scoring.rank_fast"))
    m["query.topk_self_ms"] = mean_self_ms("query.topk")
    m["query.phrase_self_ms"] = mean_self_ms("query.phrase")
    m["docstore.content_for_ms"] = _mean_ms(dur(i) for i in in_ops("docstore.content_for"))
    m["docstore.details_ms"] = _mean_ms(dur(i) for i in in_ops("docstore.details"))
    api_spans = in_ops("api.search")
    if api_spans:
        m["api.snippet_ms"] = 1000.0 * sum(
            dur(i) for i in in_ops("api.snippet")) / len(api_spans)
        m["api.search_self_ms"] = mean_self_ms("api.search")
        api_by_op = {spans[i][4]: dur(i) for i in api_spans}
        gaps = [dur(i) - api_by_op[spans[i][4]] for i in in_ops("client.request")
                if spans[i][4] in api_by_op]
        m["http.overhead_ms"] = _mean_ms(gaps)

    m["trace.query_cpu_p50_ms"] = run.e2e["query_cpu_p50_ms"]
    in_window = sum(1 for s in spans if s[4] >= 0)
    m["trace.overhead_pct"] = 100.0 * span_cost_s * in_window / run.window_s
    m["trace.spans"] = len(spans)
    return {k: float(v) for k, v in m.items()}


def self_time_table(tracer) -> list[tuple[str, int, float]]:
    """(span name, calls, total self seconds), largest first."""
    tot: dict[str, list] = {}
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        if self_s is not None:
            t = tot.setdefault(s[0], [0, 0.0])
            t[0] += 1
            t[1] += self_s
    return sorted(((n, c, x) for n, (c, x) in tot.items()), key=lambda r: -r[2])
