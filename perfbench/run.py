"""Engine benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload api_search --seed 1 --seconds 5 --trace 0

Run from the repository root.  It generates the seeded inputs, starts a
local Ray session with one CPU per available core, builds the index and
drives one workload with a single closed-loop client (see README.md in
this directory).  Timed metrics are CPU seconds (``cputime.py``).  Every
operation is checked.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any error exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

from cputime import TreeCPU, descendants

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".perfbench_work")   # inputs and indexes
OUT = os.path.join(ROOT, ".perfbench_out")     # span files of traced runs
RAY_TMP = os.path.join(ROOT, ".rt")

# (name, unit)
END_TO_END = [
    ("setup_s", "s"),
    ("build_cpu_s", "s"),
    ("ingest_cpu_s", "s"),
    ("query_cpu_p50_ms", "ms"),
    ("query_cpu_p95_ms", "ms"),
    ("query_cpu_qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("index_bytes_per_input_byte", "ratio"),
]


def host_probe_ms() -> float:
    """Fixed pure-Python loop; its time shows how contended the host is."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    return 1000.0 * (time.perf_counter() - t0)


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(timeout: float = 15.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    deadline = time.monotonic() + timeout
    while True:
        _reap()
        kids = descendants(os.getpid())
        if not kids:
            return
        if time.monotonic() > deadline:
            for k in kids:
                try:
                    os.kill(k, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.1)


def start_ray() -> None:
    import ray

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # workers import the engine and the benchmark's actor probe by name
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, BENCH_DIR, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    # Ray's session files go inside the checkout unless its socket paths
    # (<temp>/session_<26-char time>_<pid>/sockets/plasma_store) would
    # exceed the 107-byte AF_UNIX limit
    if len(RAY_TMP) + 64 <= 107:
        kwargs["_temp_dir"] = RAY_TMP
    else:
        print(f"perfbench: {RAY_TMP} too long for Ray sockets; "
              "using Ray's default temp dir", file=sys.stderr)
    ray.init(num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False,
             log_to_driver=False, object_store_memory=256 * 1024 ** 2,
             **kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path[:0] = [ROOT, BENCH_DIR]
    import workloads
    import layers
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    for d in (WORK, RAY_TMP):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(OUT, exist_ok=True)

    probe_before = statistics.median(host_probe_ms() for _ in range(5))
    tracer = Tracer() if args.trace else None
    import ray

    run = workloads.Run(args.seed, WORK, tracer)
    try:
        with TreeCPU() as ray_start:
            start_ray()
        probes = layers.install(tracer) if tracer else None
        workloads.WORKLOADS[args.workload](run, args.seconds)
        if tracer:
            tracer.unwrap_all()
            layer_metrics = layers.metrics(run, tracer, probes,
                                           Tracer.span_cost_s())
    finally:
        ray.shutdown()
        stop_children()
        for d in (WORK, RAY_TMP):
            shutil.rmtree(d, ignore_errors=True)
    run.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_after = statistics.median(host_probe_ms() for _ in range(5))

    if tracer:
        metrics = layer_metrics
        units = layers.UNITS
        tracer.dump(os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.json"))
        for name, calls, self_s in layers.self_time_table(tracer):
            print(f"self  {name:<24} {calls:>7} calls {self_s:10.4f} s")
    else:
        metrics = {n: run.e2e[n] for n, _ in END_TO_END}
        units = dict(END_TO_END)

    failed_frac = run.failed / run.attempted
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"digest={run.digest()} attempted={run.attempted} "
          f"failed={run.failed} failed_frac={failed_frac:.6f} "
          f"queries={len(run.latencies_ms)} "
          f"term_rows={run.layer['build.term_rows']} "
          f"row_groups={run.layer['build.row_groups']} "
          f"host_probe_ms={probe_before:.2f}/{probe_after:.2f} "
          f"ray_start_wall_s={ray_start.wall:.2f} ray_start_cpu_s={ray_start.cpu:.2f}")
    # wall-clock counterparts of the CPU-time metrics, for reading only
    print("wall " + " ".join(f"{k}={v:.4g}" for k, v in run.wall.items()))
    for f in run.failures:
        print(f"failed: {f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
