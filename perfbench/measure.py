"""Raw-sample statistics, memory readings and seeded inputs shared by workloads.

Every quantile here is computed from the raw samples a run collected, never
from histogram buckets: ``repro.obs.Histogram`` buckets are 2^0.25 wide, so
two identical runs can report p99s a whole bucket (~19%) apart.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import signal
import time

import numpy as np


def quantile(samples, q: float) -> float:
    """The ``q`` quantile of raw samples (inverted CDF: an observed value)."""
    if not samples:
        raise ValueError("no samples to take a quantile of")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float | None:
    """The highest of p99.9/p99/p95/p90/p50 with >= 10 samples beyond it."""
    for q in (0.999, 0.99, 0.95, 0.90, 0.50):
        if n * (1.0 - q) >= 10:
            return q
    return None


#: Samples per block of :func:`blocked_p99`: a p99 with 10 samples beyond it.
P99_BLOCK = 1000


def blocked_p99(samples_s) -> float:
    """The median over consecutive blocks of >= P99_BLOCK samples (in the
    order they were taken) of each block's p99.

    The machines this runs on slow down by up to a quarter for seconds at a
    time; a whole-run p99 follows the worst such burst, a per-block p99
    follows the typical one.
    """
    blocks = np.array_split(np.asarray(samples_s), max(1, len(samples_s) // P99_BLOCK))
    return float(np.median([quantile(list(b), 0.99) for b in blocks]))


def latency_summary(samples_s) -> dict:
    """Median, blocked p99 and the highest well-sampled percentile, in ms."""
    n = len(samples_s)
    out = {"n": n}
    if n:
        out["p50_ms"] = 1000.0 * quantile(samples_s, 0.5)
        q = tail_quantile(n)
        if q is not None:
            out["tail_q"] = q
            out["tail_ms"] = 1000.0 * quantile(samples_s, q)
        out["p90_ms"] = 1000.0 * quantile(samples_s, 0.90)
        out["p99_ms"] = 1000.0 * blocked_p99(samples_s)
    return out


#: The speed probe: PROBE_ROWS small-vector numpy calls from a Python loop,
#: the mix the pipeline's hot paths (TRACLUS segment distances, the agents'
#: state code) are made of. It is the benchmark's own code, so no change to
#: the program changes its duration; only the host's speed does.
PROBE_ROWS = 200
#: How often the probe runs while a workload runs, in process CPU seconds.
PROBE_INTERVAL_S = 0.05
#: The probe's duration on an uncontended host (about its 2nd percentile
#: on a 2-vCPU x86_64 Xeon VM): the speed effective seconds are counted at.
PROBE_NOMINAL_S = 0.0005

_PROBE_A, _PROBE_B = np.random.default_rng(0).random((2, PROBE_ROWS, 3))


def _probe() -> float:
    start = time.perf_counter()
    for a, b in zip(_PROBE_A, _PROBE_B):
        float(np.linalg.norm(a - b)) + float(np.dot(a, b))
    return time.perf_counter() - start


class HostClock:
    """Workload time in wall seconds and in effective seconds.

    On a shared VM another tenant's work on the same physical core slows
    this process by up to 2x, for milliseconds to minutes at a time, so
    the wall time of identical work drifts by that much between runs. While
    a sampling clock is entered, a SIGPROF timer runs the probe every
    ``PROBE_INTERVAL_S`` of CPU time, and each slice of workload time
    between two probes counts ``PROBE_NOMINAL_S / probe duration`` times
    its wall length: effective seconds are the time the work would have
    taken at the probe's uncontended speed. Probe time counts as neither
    (``probe_s`` totals it, so callers can take it out of their own
    timings). A clock made with ``sampling=False`` never probes and its
    effective seconds are wall seconds; traced runs use one, so no probe
    lands inside a span.

    Single-threaded, compute-bound, in-process work only: the probe runs on
    the main thread, a slowdown it sees is assumed to hold for the slice
    before, and time spent waiting (sleeping, on I/O) would be scaled too.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.wall_s = 0.0
        self.effective_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._mark = time.perf_counter()
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._mark = time.perf_counter()
        if self.sampling:
            self._previous = signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous)

    def _tick(self, signum=None, frame=None):
        # A timer signal that lands inside a tick already in progress
        # would count its slice twice.
        if self._busy:
            return
        self._busy = True
        try:
            work = time.perf_counter() - self._mark
            took = _probe() if self.sampling else PROBE_NOMINAL_S
            self.wall_s += work
            self.effective_s += work * PROBE_NOMINAL_S / took
            if self.sampling:
                self.probe_s += took
                self.probes += 1
            self._mark = time.perf_counter()
        finally:
            self._busy = False

    def now(self) -> tuple[float, float]:
        """(wall, effective) seconds of workload time so far; the slice
        running now is closed with a probe of its own."""
        self._tick()
        return self.wall_s, self.effective_s


def timed_min(fn, repeats: int, clock: HostClock):
    """Run ``fn`` ``repeats`` times; return (fastest effective seconds,
    last result).

    The fastest of several identical runs is the reading least disturbed
    by short bursts of other work on a shared host.
    """
    times = []
    result = None
    for _ in range(repeats):
        _, start = clock.now()
        result = fn()
        times.append(clock.now()[1] - start)
    return min(times), result


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kib(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (from /proc task children lists)."""
    pids: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    return pids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) of ``pid`` and its direct children."""
    total = 0
    for p in [pid, *child_pids(pid)]:
        try:
            total += _status_kib(p, "VmHWM")
        except OSError:
            pass  # a child that exited between listing and reading
    return total / 1024.0


def database_digest(db) -> str:
    """sha256 over the database's point matrix and offsets (input provenance)."""
    h = hashlib.sha256()
    for arr in (db.point_matrix(), db.point_offsets()):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def random_boxes(db, rng: np.random.Generator, n: int, spatial: float, temporal: float):
    """``n`` boxes centred on random data points (data distribution).

    Drawn from a continuous distribution, so two boxes are equal with
    probability zero: a stream of these never repeats a cache key.
    """
    from repro.data.bbox import BoundingBox

    points = db.point_matrix()
    centres = points[rng.integers(len(points), size=n)]
    half = np.array([spatial, spatial, temporal]) / 2.0
    scale = rng.uniform(0.5, 1.5, size=(n, 1))
    lo = centres - half * scale
    hi = centres + half * scale
    return [
        BoundingBox(lo[i, 0], hi[i, 0], lo[i, 1], hi[i, 1], lo[i, 2], hi[i, 2])
        for i in range(n)
    ]
