"""CPU time of this process and of every process it started.

The benchmark runs on a few cores of a shared host.  When a neighbour
takes a core, wall-clock time stretches while the CPU time the engine
itself needs does not, so the timed figures are CPU seconds: user plus
system time of the benchmark process and of its descendants (the Ray
head processes and workers), read from ``/proc``.

Ray's raylet does not collect its workers' times when they exit, so a
worker that ends inside a measured block would take its CPU time with
it.  ``TreeCPU`` therefore reads every descendant every ``INTERVAL``
seconds while the block runs and keeps each one's last reading; a
process that ends loses at most its last interval.
"""

from __future__ import annotations

import os
import threading
import time

INTERVAL = 0.1
_TICK = os.sysconf("SC_CLK_TCK")


def _procs() -> dict[int, tuple[str, int, int, float]]:
    """pid -> (state, ppid, start time, user+system CPU seconds) of every
    process visible in /proc."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after "(comm)": state ppid ... utime(11) stime(12) ...
        # starttime(19)
        fields = stat[stat.rfind(")") + 2:].split()
        out[int(d)] = (fields[0], int(fields[1]), int(fields[19]),
                       (int(fields[11]) + int(fields[12])) / _TICK)
    return out


def descendants(pid: int, procs=None, zombies: bool = False) -> list[int]:
    """Descendants of ``pid``; zombies only when ``zombies`` is set."""
    procs = _procs() if procs is None else procs
    kids_of: dict[int, list[int]] = {}
    for p, (state, ppid, _, _) in procs.items():
        if zombies or state != "Z":
            kids_of.setdefault(ppid, []).append(p)
    out, frontier = [], [pid]
    while frontier:
        kids = kids_of.get(frontier.pop(), [])
        out += kids
        frontier += kids
    return out


def _descendant_cpu() -> dict[tuple[int, int], float]:
    """(pid, start time) -> CPU seconds of every descendant of this process."""
    procs = _procs()
    return {(p, procs[p][2]): procs[p][3]
            for p in descendants(os.getpid(), procs, zombies=True)}


class TreeCPU:
    """``with TreeCPU() as t: ...`` sets ``t.cpu`` to the CPU seconds this
    process (less the sampling thread) and its descendants spent in the
    block, and ``t.wall`` to its wall-clock seconds."""

    def __enter__(self):
        self._stop = threading.Event()
        self._base = _descendant_cpu()
        self._last = dict(self._base)
        self._sampler_cpu = 0.0
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._wall0, self._self0 = time.perf_counter(), time.process_time()
        self._thread.start()
        return self

    def _sample(self) -> None:
        t0 = time.thread_time()
        while not self._stop.wait(INTERVAL):
            self._last.update(_descendant_cpu())
        self._sampler_cpu = time.thread_time() - t0

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall0
        self._stop.set()
        self._thread.join()
        self._last.update(_descendant_cpu())
        own = time.process_time() - self._self0 - self._sampler_cpu
        self.cpu = own + sum(v - self._base.get(k, 0.0)
                             for k, v in self._last.items())
