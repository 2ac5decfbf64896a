"""Timed stand-in for ``serve.QueryEvalActor``, used by the traced run.

It lives in its own module so Ray workers can import it by name.  Each
output batch carries three extra columns: the wall-clock time at which the
actor finished its constructor, this batch's evaluation time and a
per-actor batch number.  The benchmark ignores them when it compares rows.
"""

from __future__ import annotations

import time

import pyarrow as pa

from nadry_search_engine_be_ray.pipelines.serve import QueryEvalActor

EXTRA_COLS = ("bench_ready_at", "bench_eval_s", "bench_batch")


class TimedQueryEvalActor(QueryEvalActor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ready_at = time.time()
        self._n = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = super().__call__(batch)
        dt = time.perf_counter() - t0
        self._n += 1
        n = out.num_rows
        return (out.append_column(EXTRA_COLS[0], pa.array([self._ready_at] * n, pa.float64()))
                .append_column(EXTRA_COLS[1], pa.array([dt] * n, pa.float64()))
                .append_column(EXTRA_COLS[2], pa.array([self._n] * n, pa.int64())))
