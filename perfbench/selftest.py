#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of a measured run).

``python3 perfbench/selftest.py timing``
    Honest open-loop timing. A real ``QueryServer`` with one worker thread
    serves a service that stalls one request for ``STALL_S``; the
    benchmark's open-loop load generator offers requests on a fixed
    schedule. Every request due while the stall runs must be charged the
    wait from its due time to the stall's end. A second check blocks the
    generator's own event loop and requires the lateness it reports to
    show the block.

``python3 perfbench/selftest.py inject [--seeds 1 2 3] [--seconds 12] [--workloads ...]``
    Can the bounds fail? Runs every workload clean, with a 10 ms sleep in
    ``ShardRuntime.execute`` and with a 2x ``QueryEngine`` slowdown, and
    prints, per workload and injection, which end-to-end metrics moved
    past their ``BENCHMARK.json`` bound (medians over the seeds).

Both exit non-zero when their expectation does not hold.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

WORKLOADS = ("pipeline", "serve-scan", "serve-ingest")
STALL_S = 0.5
QPS = 100.0
BLOCK_S = 0.2

#: Which workloads each injection should push past a bound. The sleep10 row
#: holds. The engine2x row is a prediction that does not hold on the current
#: code: a 2x engine moves pipeline goodput (about -12%) and serve-scan
#: goodput (about -15%; most of its request time is spent outside the
#: engine) by less than their 0.25 bounds, so ``inject`` exits 1 there.
EXPECTED = {"sleep10": {"serve-scan", "serve-ingest"}, "engine2x": {"serve-scan", "pipeline"}}


def _stalled_service(db, stall_at: int):
    from repro.service import QueryService

    class StalledService(QueryService):
        """Sleeps through its ``stall_at``-th request, once."""

        calls = 0
        window: tuple[float, float] | None = None

        def execute(self, request, *, trace_id=None):
            self.calls += 1  # one worker thread: no race
            if self.calls == stall_at:
                start = time.perf_counter()
                time.sleep(STALL_S)
                self.window = (start, time.perf_counter())
            return super().execute(request, trace_id=trace_id)

    return StalledService(db, n_shards=1)


def timing() -> list[str]:
    import serve
    from repro.service.requests import CountRequest
    from repro.service.server import serve_in_thread

    db = serve.generate(5, 60)
    service = _stalled_service(db, stall_at=40)
    handle = serve_in_thread(service, workers=1, max_inflight=10_000)
    problems = []
    try:
        address = type("Address", (), {"host": handle.host, "port": handle.port})
        pool = {"count": [CountRequest((db.bounding_box,))]}
        slots = [("nominal", i / QPS, "count", 0) for i in range(int(2 * QPS))]
        out = asyncio.run(serve._drive(address, db, slots, pool, 5, None))
        start, end = service.window
        behind = [
            (out["start"] + slot[1], rec["latency"])
            for slot, rec in zip(slots, out["records"])
            if start <= out["start"] + slot[1] < end
        ]
        short = [
            (due, lat) for due, lat in behind if lat < end - due - 0.002
        ]
        print(f"stall {1000 * (end - start):.0f} ms; {len(behind)} requests due "
              f"inside it; {len(short)} charged less than their wait")
        if len(behind) < 0.8 * STALL_S * QPS or short:
            problems.append("the stall was not charged to every request queued behind it")

        # The generator itself falls behind: block its loop for BLOCK_S.
        async def blocked():
            loop = asyncio.get_running_loop()
            loop.call_later(0.5, time.sleep, BLOCK_S)
            return await serve._drive(address, db, slots, pool, 5, None)

        out = asyncio.run(blocked())
        late = max(rec["late"] for rec in out["records"])
        print(f"generator loop blocked {1000 * BLOCK_S:.0f} ms; worst lateness "
              f"reported {1000 * late:.0f} ms")
        if late < 0.9 * BLOCK_S:
            problems.append("generator lateness did not show the blocked loop")
        if any("latency" not in rec for rec in out["records"]):
            problems.append("a request failed")
    finally:
        handle.stop()
        service.close()
    return problems


def _run(workload: str, seed: int, seconds: float, inject: str | None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject:
        argv += ["--inject", inject]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} {inject} seed {seed}: wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def inject(seeds, seconds: float, workloads) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads:
        # Clean and injected runs alternate, so a host that drifts faster or
        # slower over the minutes this takes biases no side.
        runs = {None: [], "sleep10": [], "engine2x": []}
        for seed in seeds:
            for kind in runs:
                runs[kind].append(_run(workload, seed, seconds, kind))
        clean = {m: statistics.median(r[m] for r in runs[None]) for m in runs[None][0]}
        for kind in ("sleep10", "engine2x"):
            moved = []
            for metric in spec["end_to_end"]:
                name = metric["name"]
                if name == "setup_s":
                    continue  # injections act after set-up
                value = statistics.median(r[name] for r in runs[kind])
                change = (value - clean[name]) / clean[name]
                worse = change if metric["better"] == "lower" else -change
                flag = worse > metric["bound"]
                if flag:
                    moved.append(name)
                print(f"{workload:<13}{kind:<9}{name:<15}{clean[name]:>12.4g}"
                      f"{value:>12.4g}{100 * change:>+9.1f}%{'  PAST BOUND' if flag else ''}")
            expected = workload in EXPECTED[kind]
            if bool(moved) != expected:
                problems.append(
                    f"{kind} on {workload}: {'no metric' if expected else moved} "
                    f"past its bound, expected {'some' if expected else 'none'}"
                )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("test", choices=("timing", "inject"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args()
    if args.test == "timing":
        problems = timing()
    else:
        problems = inject(args.seeds, args.seconds, args.workloads)
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
