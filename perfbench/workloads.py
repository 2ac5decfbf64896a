"""The benchmark's workloads and the correctness checks on their outputs.

Each workload function takes a ``Run`` (inputs, tracer, work directory,
counters) and the measuring time, drives the engine through its public
functions, checks every operation and fills ``run.e2e`` with the
end-to-end metrics.  ``run.py`` owns process set-up, tracing and output.
"""

from __future__ import annotations

import glob
import hashlib
import http.client
import json
import math
import os
import statistics
import time
from urllib.parse import urlencode

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from corpus import DELTA_DOCS, BenchInputs
from cputime import TreeCPU
from nadry_search_engine_be_ray.config import BuildConfig
from nadry_search_engine_be_ray.functions.tokenizer import Tokenizer
from nadry_search_engine_be_ray.pipelines import build as build_mod
from nadry_search_engine_be_ray.pipelines import deletes as deletes_mod
from nadry_search_engine_be_ray.pipelines import http_server
from nadry_search_engine_be_ray.pipelines import merge as merge_mod
from nadry_search_engine_be_ray.pipelines import serve as serve_mod
from nadry_search_engine_be_ray.pipelines.query import SearchEngine

# reader cache sizes the corpus must outgrow (state/segments.py defaults)
ROW_GROUP_LRU = 64
ROW_GROUP_TERMS = BuildConfig().segment_row_group_size
POSTING_CACHE = 512

SETUP_REPEATS = 3       # set-ups per run; setup_s sums their medians
MIN_QUERIES = 200       # query samples per run: p95 has 10 beyond it
BATCH_QUERIES = 100     # queries sent through serve.batch_search
TAAT_SAMPLE_EVERY = 10  # every n-th ranked query is re-run through TAAT
PAGE_SIZE = 10

ENVELOPE = {"success", "data", "totalPages", "currentPage", "totalResults",
            "tokens", "searchTimeSec"}
ROW_KEYS = {"doc_id", "url", "title", "score", "relevance", "popularity",
            "description"}


class SetupError(RuntimeError):
    """The generated inputs do not have the properties the benchmark needs."""


class Run:
    """One benchmark run: inputs, counters, digest and reported metrics."""

    def __init__(self, seed: int, work: str, tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.inp: BenchInputs | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []   # CPU time per query
        self.wall_ms: list[float] = []        # wall time per query
        self.wall: dict[str, float] = {}      # wall seconds, printed only
        self.window_s = 0.0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.index_dir = ""
        self._digest = hashlib.sha256()

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; ``ok`` is False when it failed or was wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def digest_add(self, obj) -> None:
        self._digest.update(json.dumps(obj, sort_keys=True).encode())

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def set_op(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.op = i

    def query_metrics(self) -> None:
        lat = sorted(self.latencies_ms)
        if len(lat) < MIN_QUERIES:
            raise SetupError(f"only {len(lat)} query samples")
        q = statistics.quantiles(lat, n=100, method="inclusive")
        self.e2e["query_cpu_p50_ms"] = statistics.median(lat)
        self.e2e["query_cpu_p95_ms"] = q[94]
        # queries a CPU-second: what one closed-loop client completes a
        # second on an uncontended core; the checks are not part of it
        self.e2e["query_cpu_qps"] = 1000.0 * len(lat) / sum(lat)
        wall = sorted(self.wall_ms)
        self.wall["query_p50_ms"] = statistics.median(wall)
        self.wall["query_p95_ms"] = statistics.quantiles(
            wall, n=100, method="inclusive")[94]


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------

def _write_table(t: pa.Table, d: str) -> str:
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "part-00000.parquet"))
    return d


def _dir_bytes(d: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(d, "**", "*"),
                                                     recursive=True)
               if os.path.isfile(p))


def _segment_files(index_dir: str) -> list[str]:
    with open(os.path.join(index_dir, "stats.json")) as f:
        seg = "segments_merged" if json.load(f)["compacted"] else "segments"
    return sorted(glob.glob(os.path.join(index_dir, seg, "**", "*.parquet"),
                            recursive=True))


def repeated_setup(run: Run, make, undo=None):
    """Run the set-up step ``make`` SETUP_REPEATS times, with ``undo``
    (untimed) between them, and add the median CPU seconds of one to
    ``setup_s``; returns the last result."""
    cpus, walls, out = [], [], None
    for i in range(SETUP_REPEATS):
        if i and undo is not None:
            undo()
        with TreeCPU() as t:
            out = make()
        cpus.append(t.cpu)
        walls.append(t.wall)
    run.e2e["setup_s"] = run.e2e.get("setup_s", 0.0) + statistics.median(cpus)
    run.wall["setup_s"] = run.wall.get("setup_s", 0.0) + statistics.median(walls)
    return out


def make_inputs(run: Run, with_updates: bool):
    """Set-up step: generate the seed's inputs and write the corpus (and
    the upsert delta) as parquet; returns ``BenchInputs.updates()`` or
    None."""
    run.inp = BenchInputs(run.seed)
    _write_table(run.inp.corpus, os.path.join(run.work, "corpus"))
    if not with_updates:
        return None
    delta, rows = run.inp.updates()
    _write_table(delta, os.path.join(run.work, "delta"))
    return delta, rows


def build_bench_index(run: Run) -> str:
    """Build the index over the bench corpus; sets ``build_cpu_s``, the
    size ratio and the dictionary facts, and fails loudly when the
    dictionary fits in the segment reader's row-group LRU."""
    corpus_dir = os.path.join(run.work, "corpus")
    index_dir = os.path.join(run.work, "index")
    with TreeCPU() as t:
        build_mod.build_index(corpus_dir, index_dir, BuildConfig())
    run.e2e["build_cpu_s"] = run.e2e["ingest_cpu_s"] = t.cpu
    run.wall["build_s"] = run.wall["ingest_s"] = t.wall

    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    files = _segment_files(index_dir)
    row_groups = sum(pq.read_metadata(p).num_row_groups for p in files)
    run.layer["build.term_rows"] = stats["n_term_rows"]
    run.layer["build.row_groups"] = row_groups
    run.layer["build.segment_bytes"] = sum(os.path.getsize(p) for p in files)
    if (stats["n_term_rows"] <= ROW_GROUP_LRU * ROW_GROUP_TERMS
            or row_groups <= ROW_GROUP_LRU):
        raise SetupError(
            f"dictionary fits the reader's row-group LRU: "
            f"{stats['n_term_rows']} terms in {row_groups} row groups")
    run.op(stats["n_docs"] > 0, "build: empty index")
    run.digest_add(["build", stats["n_docs"], stats["n_term_rows"]])
    input_bytes = sum(len(v.encode()) for c in run.inp.corpus.columns
                      for v in c.to_pylist())
    run.e2e["index_bytes_per_input_byte"] = _dir_bytes(index_dir) / input_bytes
    run.index_dir = index_dir
    return index_dir


def _same_hits(a: list[tuple[int, float]], b: list[tuple[int, float]]) -> bool:
    return len(a) == len(b) and all(
        da == db and math.isclose(sa, sb, rel_tol=1e-9, abs_tol=1e-12)
        for (da, sa), (db, sb) in zip(a, b))


def _ranked_ok(hits: list[tuple[int, float]], dead: np.ndarray) -> bool:
    """At most PAGE_SIZE distinct hits, scores non-increasing, none dead.
    An empty answer is right: a tail identifier may have lived only in
    replaced or deleted documents."""
    scores = [s for _, s in hits]
    docs = np.array([d for d, _ in hits], np.int64)
    return (len(hits) <= PAGE_SIZE and np.unique(docs).size == docs.size
            and all(x >= y for x, y in zip(scores, scores[1:]))
            and not np.isin(docs, dead).any())


def run_ranked(run: Run, engine: SearchEngine, queries: list[str],
               seconds: float, dead: np.ndarray) -> list[str]:
    """Closed-loop in-process BM25 WAND top-10 over ``queries`` until both
    ``seconds`` have passed and MIN_QUERIES ran; returns the queries run.
    Every answer is checked (``dead`` holds doc_ints that must not come
    back); every TAAT_SAMPLE_EVERY-th is compared with exact TAAT."""
    done: list[str] = []
    t_start = time.perf_counter()
    for i, q in enumerate(queries):
        if len(done) >= MIN_QUERIES and time.perf_counter() - t_start >= seconds:
            break
        run.set_op(i)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            hits = engine.bm25_search(q, k=PAGE_SIZE, use_wand=True)
        except Exception as e:  # a failed query is counted, not fatal
            hits, err = [], e
        else:
            err = None
        run.latencies_ms.append(1000.0 * (time.process_time() - c0))
        run.wall_ms.append(1000.0 * (time.perf_counter() - t0))
        done.append(q)
        if err is not None:
            run.op(False, f"bm25 {q!r}: {err!r}")
            continue
        ok = _ranked_ok(hits, dead)
        if i % TAAT_SAMPLE_EVERY == 0:
            run.set_op(-1)
            ok &= _same_hits(hits, engine.topk_taat(q, k=PAGE_SIZE,
                                                     scorer="bm25"))
        run.op(ok, f"bm25 {q!r}")
        if i < MIN_QUERIES:
            run.digest_add([q, [[d, round(s, 9)] for d, s in hits]])
    if len(done) < MIN_QUERIES:
        raise SetupError("query list exhausted")
    run.window_s = time.perf_counter() - t_start
    run.set_op(-1)
    return done


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def index_lifecycle(run: Run, seconds: float) -> None:
    """Build, upsert a delta that replaces half its keys, delete and purge
    1% of the documents; then never-repeating long-tail BM25 WAND queries
    on the updated index for ``seconds``, and the first BATCH_QUERIES of
    them once through serve.batch_search.  No replaced or deleted document
    may come back."""
    delta, rows = repeated_setup(run, lambda: make_inputs(run, True))
    inp = run.inp
    delta_dir = os.path.join(run.work, "delta")

    base = build_bench_index(run)   # the index writes are measured work

    updated = os.path.join(run.work, "updated")
    with TreeCPU() as t_up:
        ustats = merge_mod.upsert_index(base, delta_dir, updated, BuildConfig())
    run.layer["upsert.total_s"] = t_up.wall
    run.layer["upsert.cpu_s"] = t_up.cpu
    prepped = pads.dataset(os.path.join(base, "prepped"), format="parquet") \
        .to_table(columns=["doc_int", "repo", "path", "commit"])
    by_key = {(r, p, c): d for d, r, p, c in zip(
        *[prepped[n].to_pylist() for n in ("doc_int", "repo", "path", "commit")])}
    delta_keys = set(zip(delta["repo"].to_pylist(), delta["path"].to_pylist()))
    replaced = np.array(sorted(d for (r, p, _c), d in by_key.items()
                               if (r, p) in delta_keys), dtype=np.int64)
    live = _doc_stats_ints(updated)
    delta_live = _doc_stats_ints(updated + ".delta")
    run.op(ustats["n_replaced"] == replaced.size == DELTA_DOCS // 2
           and not np.isin(replaced, live).any()
           and np.isin(delta_live, live).all(),
           f"upsert: {ustats}")
    run.digest_add(["upsert", ustats["n_docs"], ustats["n_replaced"],
                    ustats["n_term_rows"]])

    cols = [inp.corpus[n].to_pylist() for n in ("repo", "path", "commit")]
    row_ints = [by_key[(cols[0][i], cols[1][i], cols[2][i])] for i in rows]
    deleted = np.array(sorted(row_ints), dtype=np.int64)
    n_live_deleted = int(np.isin(deleted, live).sum())
    with TreeCPU() as t_del:
        deletes_mod.delete_docs(updated, deleted)
        pstats = deletes_mod.purge_deletes(updated)
    run.layer["purge.total_s"] = t_del.wall
    run.layer["purge.cpu_s"] = t_del.cpu
    after = _doc_stats_ints(updated)
    run.op(pstats["n_purged"] == n_live_deleted
           and not np.isin(deleted, after).any(), f"purge: {pstats}")
    run.digest_add(["purge", pstats])
    run.e2e["ingest_cpu_s"] += t_up.cpu + t_del.cpu
    run.wall["ingest_s"] += t_up.wall + t_del.wall

    # serve the updated index: deleted documents' own identifiers must not
    # find them, and no query may return a replaced or deleted document
    engine = SearchEngine(updated)
    tk = Tokenizer()
    content = inp.corpus["content"].to_pylist()
    for i, di in zip(rows, row_ints):
        terms = tk.tokenize(content[i].rsplit("\n", 1)[-1])
        hit = False
        for t in terms:
            pl = engine.reader.postings(t)
            hit |= pl is not None and bool(np.isin(di, pl.docs))
        run.op(not hit, f"purged doc {di:x} still posted")
    engine = SearchEngine(updated)  # a cold reader for the measured queries
    done = run_ranked(run, engine, inp.tail_queries(20_000), seconds,
                      np.union1d(deleted, replaced))
    run.query_metrics()
    n_terms = len({t for q in done for t in tk.tokenize(q)})
    if n_terms <= POSTING_CACHE:
        raise SetupError(f"tail queries touched only {n_terms} distinct terms")
    batch_check(run, engine, updated, done[:BATCH_QUERIES])


def batch_check(run: Run, engine: SearchEngine, index_dir: str,
                batch: list[str]) -> None:
    """Send ``batch`` once through serve.batch_search; every query's rows
    must equal the in-process WAND answer."""
    import ray
    import ray.data

    expect = {q: engine.bm25_search(q, k=PAGE_SIZE, use_wand=True)
              for q in batch}
    ds = ray.data.from_arrow(pa.table({
        "query": pa.array(batch, pa.string()),
        "page": pa.array([0] * len(batch), pa.int64()),
        "page_size": pa.array([PAGE_SIZE] * len(batch), pa.int64()),
    }))
    t0, t0_wall = time.perf_counter(), time.time()
    out = serve_mod.batch_search(ds, index_dir, mode="bm25",
                                 concurrency=1).to_arrow_refs()
    table = pa.concat_tables(ray.get(out))
    run.layer["serve.batch_qps"] = len(batch) / (time.perf_counter() - t0)
    if "bench_ready_at" in table.column_names:
        # traced run: the actor stand-in reports when it was ready and how
        # long each batch took
        evals = dict(zip(table["bench_batch"].to_pylist(),
                         table["bench_eval_s"].to_pylist()))
        run.layer["serve.actor_start_s"] = (
            min(table["bench_ready_at"].to_pylist()) - t0_wall)
        run.layer["serve.batch_eval_s"] = sum(evals.values())
    got: dict[str, list] = {q: [] for q in batch}
    for q, r, d, sc in zip(*[table[c].to_pylist()
                             for c in ("query", "rank", "doc_id", "score")]):
        got.setdefault(q, []).append((r, int(d, 16), sc))
    for q in batch:
        rows = [(d, sc) for _r, d, sc in sorted(got[q])]
        run.op(_same_hits(rows, expect[q]), f"batch_search {q!r}")
    run.digest_add(["batch", len(table)])


def _doc_stats_ints(index_dir: str) -> np.ndarray:
    t = pads.dataset(os.path.join(index_dir, "doc_stats"), format="parquet") \
        .to_table(columns=["doc_int"])
    return np.sort(t["doc_int"].to_numpy(zero_copy_only=False).astype(np.int64))


def _get(port: int, query: str, page: int) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/api/search?" + urlencode(
            {"query": query, "page": page, "limit": PAGE_SIZE}))
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _envelope_ok(status: int, obj, page: int) -> bool:
    if status != 200 or not isinstance(obj, dict) or set(obj) != ENVELOPE:
        return False
    total = obj["totalResults"]
    want_rows = min(PAGE_SIZE, max(0, total - (page - 1) * PAGE_SIZE))
    return (obj["success"] is True and obj["currentPage"] == page
            and obj["totalPages"] == math.ceil(total / PAGE_SIZE)
            and isinstance(obj["tokens"], list)
            and len(obj["data"]) == want_rows
            and all(isinstance(r, dict) and set(r) == ROW_KEYS
                    for r in obj["data"]))


def api_search(run: Run, seconds: float) -> None:
    """REST GET /api/search on loopback, one connection at a time, replaying
    a fixed log of head-term queries."""
    repeated_setup(run, lambda: make_inputs(run, False))
    inp = run.inp
    index_dir = build_bench_index(run)   # measured work, as build_cpu_s
    servers = []

    def start_server():
        # the first request loads the lazy doc-details map: part of set-up
        servers.append(http_server.serve(index_dir, port=0))
        port = servers[-1].server_address[1]
        status, body = _get(port, "search engine", 4)
        run.op(_envelope_ok(status, json.loads(body), 4), "warm-up request")
        return port

    def stop_server():
        server = servers.pop()
        server.shutdown()
        server.server_close()

    try:
        port = repeated_setup(run, start_server, stop_server)
        log = inp.head_query_log(100_000)
        seen: dict[tuple[str, int], str] = {}
        t_start = time.perf_counter()
        n = 0
        while n < MIN_QUERIES or time.perf_counter() - t_start < seconds:
            q = log[n]
            run.set_op(n)
            span = run.tracer.begin("client.request") if run.tracer else None
            # the server thread runs in this process: its CPU time counts
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                status, body = _get(port, q["query"], q["page"])
            except OSError as e:
                status, body, err = 0, b"", e
            else:
                err = None
            finally:
                if span is not None:
                    run.tracer.end(span)
            run.latencies_ms.append(1000.0 * (time.process_time() - c0))
            run.wall_ms.append(1000.0 * (time.perf_counter() - t0))
            if err is not None:
                run.op(False, f"GET {q}: {err!r}")
                n += 1
                continue
            obj = json.loads(body)
            ok = _envelope_ok(status, obj, q["page"])
            if ok:
                obj.pop("searchTimeSec")
                canon = json.dumps(obj, sort_keys=True)
                key = (q["query"], q["page"])
                ok = seen.setdefault(key, canon) == canon
                if n < MIN_QUERIES:
                    run.digest_add([key, canon])
            run.op(ok, f"GET {q}")
            n += 1
        run.window_s = time.perf_counter() - t_start
        run.set_op(-1)
    finally:
        while servers:
            stop_server()
    run.query_metrics()


WORKLOADS = {
    "index_lifecycle": index_lifecycle,
    "api_search": api_search,
}
