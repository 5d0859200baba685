"""The served workloads, against a ``repro serve --listen`` subprocess.

``serve-scan``: one connection, closed loop, 500-box batches alternating
range and count over 400 trajectories (process executor, 2 shards, shm
store). Boxes are drawn from a continuous distribution, so no request
repeats and the service result cache never hits; every answer is checked
against a ``LocalClient`` outside the timed region. Goodput is that of the
fastest block of ``SCAN_BLOCK`` consecutive requests.

``serve-ingest``: one asyncio thread drives an ``AsyncRemoteClient`` over 2
connections, open loop, against 200 trajectories (serial executor, 2
shards, one server worker thread, greedy compaction under error budget
20). Reads are small requests over all five kinds, Zipf-repeated from a
pool that fits the 64-entry service LRU; a single writer ingests 3
trajectories ``INGEST_QPS`` times a second. The first ``NOMINAL_SHARE`` of the run offers ``NOMINAL_QPS`` ops
in all (one in ten an ingest), the rest ``HIGH_QPS``. Latency is timed
from each request's due time.

Set-up (data generation, database file, server launch until the first
good reply) is repeated ``SETUP_REPEATS`` times and the fastest reported;
the last server started is the one measured.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import layers
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IN_PROCESS = False
POINTS_SCALE = 0.08
#: Both served workloads run on one database, and serve-ingest on one
#: stream of ingested trajectories, for every ``--seed``, as the pipeline
#: runs on conftest's fixed dataset; the seed draws the requests. With the
#: data drawn from the seed too, serve-ingest's stored_frac spread 0.21
#: (IQR/median) over ten seeds, most of its 0.25 bound.
DATA_SEED = 7
#: Three, not more: each set-up launches a server, and the contract's time
#: limit for all runs has to hold serve-scan's check of every answer.
SETUP_REPEATS = 3
STOP_TIMEOUT_S = 20.0
#: Ops finishing later than this after their due time miss the limit. It
#: sits between the read p99 and the compaction-stalled write p99.
LIMIT_S = 0.100
#: Bytes of one stored (x, y, t) point, the unit stored_frac is counted in.
POINT_BYTES = 24

SCAN_TRAJECTORIES = 400
#: Boxes per request. Each request hands work between four processes on
#: two vCPUs; at 100 boxes those hand-offs, whose latency follows other
#: tenants of a shared host, set the request time, and goodput over ten
#: seeds spread 0.45 (IQR/median) on a busy 2-vCPU x86_64 VM. At 500 or
#: 1000 boxes the per-box work does (fastest-block goodput spread 0.06 and
#: 0.12 over ten seeds). At 1000 a 10 ms stall per shard op moved goodput
#: only -25%, inside its bound; at 500, -33%.
SCAN_BOXES = 500
#: Requests per block (about 1.5 s). Every block does statistically the
#: same work; the fastest is the one the host disturbed least, as for the
#: pipeline's passes and every set-up.
SCAN_BLOCK = 50
SCAN_SERVER = ["--executor", "process", "--shards", "2", "--store", "shm"]

INGEST_TRAJECTORIES = 200
#: One worker thread: with two (the default here), a shard op stalled 10 ms
#: left the other thread serving and moved the high phase's goodput by only
#: -8%; with one it moves it by about -33%, and the clean goodput is the same.
INGEST_SERVER = [
    "--executor", "serial", "--shards", "2", "--workers", "1",
    "--compaction", "greedy", "--error-budget", "20",
]
#: Offered ops per second in each phase, ingests included; the writer offers
#: INGEST_QPS batches per second in both phases (one op in ten at the
#: nominal rate). Why the high rate is not an overload rate: ``rate_basis``
#: in provenance.json.
NOMINAL_QPS = 70.0
HIGH_QPS = 120.0
INGEST_QPS = 7.0
NOMINAL_SHARE = 0.6
INGEST_BATCH = 3
CONNECTIONS = 2
#: The fixed range workload range_f1 is scored on: this many 100-box requests.
FINAL_RANGE_REQUESTS = 10
#: Read mix over the five kinds (rank^-1, as an analytics dashboard issues
#: them); within a kind, entries of the pool repeat Zipf(ZIPF_A). The pool
#: (39 entries) fits the 64-entry service LRU.
KIND_WEIGHTS = {"range": 1.0, "count": 1 / 2, "histogram": 1 / 3, "knn": 1 / 4,
                "similarity": 1 / 5}
POOL = {"range": 12, "count": 12, "histogram": 3, "knn": 6, "similarity": 6}
ZIPF_A = 1.2
#: The benchmark's client retries an overload refusal (safe: a refused
#: frame never ran) after a random backoff of up to RETRY_BACKOFF_S doubling
#: to MAX_BACKOFF_S, once the whole schedule has been offered, so load
#: shedding makes an op miss the latency limit but never loses it. An op
#: still refused GIVE_UP_S after its due time fails.
RETRY_BACKOFF_S = 0.05
MAX_BACKOFF_S = 0.5
GIVE_UP_S = 60.0


def generate(seed: int, n_trajectories: int):
    from repro.data import synthetic_database

    return synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=POINTS_SCALE, seed=seed
    )


def config(name: str) -> dict:
    """The constants that shape the workload, for the run's provenance."""
    common = {"points_scale": POINTS_SCALE, "data_seed": DATA_SEED,
              "setup_repeats": SETUP_REPEATS}
    if name == "serve-scan":
        return {**common, "trajectories": SCAN_TRAJECTORIES,
                "boxes_per_request": SCAN_BOXES, "requests_per_block": SCAN_BLOCK,
                "server": SCAN_SERVER}
    return {
        **common,
        "trajectories": INGEST_TRAJECTORIES,
        "server": INGEST_SERVER,
        "latency_limit_ms": 1000 * LIMIT_S,
        "offered_ops_per_s": {"nominal": NOMINAL_QPS, "high": HIGH_QPS},
        "nominal_share_of_run": NOMINAL_SHARE,
        "ingest_batches_per_s": INGEST_QPS,
        "trajectories_per_batch": INGEST_BATCH,
        "connections": CONNECTIONS,
        "read_kind_weights": KIND_WEIGHTS,
        "read_pool": POOL,
        "read_pool_entries": sum(POOL.values()),
        "zipf_a": ZIPF_A,
        "retry_backoff_s": {"first": RETRY_BACKOFF_S, "max": MAX_BACKOFF_S},
        "final_range_requests": FINAL_RANGE_REQUESTS,
    }


# ------------------------------------------------------------------ server
class Server:
    """One ``repro serve --listen`` process started through the launcher."""

    def __init__(self, db_path: Path, args: list[str], spans_out=None, inject=None):
        argv = [sys.executable, str(HERE / "launch_server.py")]
        if spans_out:
            argv += ["--spans-out", str(spans_out)]
        if inject:
            argv += ["--inject", inject]
        argv += ["--", "serve", "--db", str(db_path), "--listen", "127.0.0.1:0", *args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(ROOT),
        )
        self.output: list[str] = []
        self.hung = False
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, args=(lines,), daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 90
        self.host = self.port = None
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith("listening on "):
                self.host, _, port = line.split()[-1].rpartition(":")
                self.port = int(port)
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.output[-20:]))

    def _drain(self, lines: queue.Queue) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            lines.put(line)
        lines.put(None)

    def peak_rss_mb(self) -> float:
        return measure.tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGINT, then wait; a server (or shard worker) that has not exited
        within STOP_TIMEOUT_S dumps its threads' stacks into the captured
        output and is killed. Returns the server's exit code."""
        children = measure.child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.hung = True
            for pid in [self.proc.pid, *children]:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGUSR1)
            time.sleep(1.0)
            self.proc.kill()
            code = self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in children:  # workers exit once the server's pipes close
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                self.hung = True
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        self._reader.join(timeout=10)
        return code


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie child of a dead server does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


_NULL = contextlib.nullcontext()


def _root(recorder, request_id):
    """The client-side root span of one request, when tracing."""
    return recorder.root("bench.request", request_id) if recorder else _NULL


async def _open(server: Server, **kwargs):
    from repro.client import AsyncRemoteClient

    return await AsyncRemoteClient.open(server.host, server.port, timeout=60.0, **kwargs)


async def _first_reply(server: Server) -> dict:
    client = await _open(server, trace=False)
    try:
        return await client.describe()
    finally:
        await client.close()


def _stop(server: Server, problems: list[str]) -> None:
    code = server.stop()
    if server.hung:
        problems.append("server did not stop:\n" + "".join(server.output[-60:]))
    elif code != 0:
        problems.append(f"server exited with code {code}")


def setup(n_trajectories: int, server_args, tmp: Path, spans_out, inject,
          problems: list[str]):
    """Repeat data generation + server launch; keep the last server."""
    from repro.data import save_database

    times, server = [], None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            _stop(server, problems)
        last = rep == SETUP_REPEATS - 1
        start = time.perf_counter()
        db = generate(DATA_SEED, n_trajectories)
        path = tmp / f"db{rep}.npz"
        save_database(db, path)
        server = Server(path, server_args, spans_out if last else None, inject)
        asyncio.run(_first_reply(server))
        times.append(time.perf_counter() - start)
    return min(times), db, server


def _shard_points(info: dict) -> int:
    return sum(int(s["points"]) for s in info["shards"])


# -------------------------------------------------------------- serve-scan
async def _scan(server: Server, db, seed: int, seconds: float, recorder):
    from repro.data.stats import spatial_scale
    from repro.service.requests import CountRequest, RangeRequest

    rng = np.random.default_rng([seed, 1])
    spatial = 0.1 * spatial_scale(db)
    temporal = db.bounding_box.spans[2] / 4.0
    client = await _open(server, trace=recorder is not None)
    out = {"latency": [], "sent": [], "errors": []}
    try:
        out["m0"] = await client.metrics()
        out["start"] = time.perf_counter()
        deadline = out["start"] + seconds
        i = 0
        while time.perf_counter() < deadline:
            boxes = tuple(measure.random_boxes(db, rng, SCAN_BOXES, spatial, temporal))
            request = (RangeRequest if i % 2 == 0 else CountRequest)(boxes)
            rid = f"scan-{seed}-{i}"
            i += 1
            start = time.perf_counter()
            try:
                with _root(recorder, rid):
                    response = await client.execute(
                        request, trace_id=rid if recorder else None
                    )
            except Exception as exc:  # counted, reported, never hidden
                out["errors"].append(f"{request.kind}: {exc!r}")
                continue
            out["latency"].append(time.perf_counter() - start)
            out["sent"].append((request, response))
        out["end"] = time.perf_counter()
        out["m1"] = await client.metrics()
        out["info"] = await client.describe()
        out["retries"] = client.failover_retries
    finally:
        await client.close()
    return out


def _check_scan(db, sent) -> tuple[list[str], float]:
    """Every answer against a LocalClient over the same database; returns
    problems and the mean F1 of the range answers."""
    from repro.client import LocalClient
    from repro.queries.metrics import mean_f1

    reference = LocalClient(db)
    problems, truths, served = [], [], []
    for request, response in sent:
        expected = reference.execute(request)
        if request.kind == "range":
            truths += expected.result_sets
            served += response.result_sets
            ok = expected.result_sets == response.result_sets
        else:
            ok = np.array_equal(expected.counts, response.counts)
        if not ok:
            problems.append(f"{request.kind} answer differs from LocalClient")
    return problems, mean_f1(truths, served) if truths else 0.0


def run_scan(seed, seconds, tmp, inject, recorder, spans_out):
    problems: list[str] = []
    setup_s, db, server = setup(
        SCAN_TRAJECTORIES, SCAN_SERVER, tmp, spans_out, inject, problems
    )
    try:
        out = asyncio.run(_scan(server, db, seed, seconds, recorder))
        peak = server.peak_rss_mb()
    finally:
        _stop(server, problems)
    wrong, f1 = _check_scan(db, out["sent"])
    problems += wrong + out["errors"][:5]
    d0, d1 = out["m0"]["summary"], out["m1"]["summary"]
    hits = d1["cache_hits"] - d0["cache_hits"]
    if hits:
        problems.append(f"{hits} cache hits on a never-repeating workload")
    lat = measure.latency_summary(out["latency"])
    blocks = np.array_split(out["latency"], max(1, len(out["latency"]) // SCAN_BLOCK))
    block_goodput = [SCAN_BOXES * len(b) / b.sum() for b in blocks]
    kinds = [r.kind for r, _ in out["sent"]]
    result = {
        "attempted": len(out["sent"]) + len(out["errors"]),
        "failed": len(out["errors"]),
        "problems": problems,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "goodput_per_s": max(block_goodput),
            "range_f1": f1,
            # No ingest here, so the store holds exactly what was put in it.
            "stored_frac": (out["m1"]["store"]["bytes_put"]
                            / (POINT_BYTES * out["info"]["points"])),
        },
        "detail": {
            "requests": lat,
            "block_goodput": block_goodput,
            "mix": {
                "configured": {"range": 0.5, "count": 0.5},
                "produced": {k: kinds.count(k) for k in ("range", "count")},
            },
            "cache_hits": hits,
            "db_digest": measure.database_digest(db),
            "trajectories": len(db),
            "points": db.total_points,
        },
        "read_latency": lat,
        "overhead_basis": lat["p50_ms"],
    }
    return result, out


# ------------------------------------------------------------ serve-ingest
def _ingest_batch(db, number: int):
    """The ``number``-th batch of the ingest stream: jittered copies of
    existing tracks (same timestamps, shifted x/y)."""
    from repro.data.trajectory import Trajectory

    rng = np.random.default_rng([DATA_SEED, number])
    batch = []
    for _ in range(INGEST_BATCH):
        base = db[int(rng.integers(len(db)))].points
        shift = rng.uniform(-40.0, 40.0, size=2)
        batch.append(Trajectory(base + np.array([shift[0], shift[1], 0.0])))
    return batch


def read_pool(db, rng) -> dict[str, list]:
    """The read requests the schedule replays, per kind."""
    from repro.data.stats import spatial_scale
    from repro.service.requests import (
        CountRequest, HistogramRequest, KnnRequest, RangeRequest, SimilarityRequest,
    )

    scale = spatial_scale(db)
    temporal = db.bounding_box.spans[2] / 4.0
    ids = rng.choice(len(db), size=POOL["knn"] + POOL["similarity"], replace=False)

    def boxes():
        return tuple(measure.random_boxes(db, rng, 4, 0.1 * scale, temporal))

    return {
        "range": [RangeRequest(boxes()) for _ in range(POOL["range"])],
        "count": [CountRequest(boxes()) for _ in range(POOL["count"])],
        "histogram": [HistogramRequest(grid=g) for g in (16, 24, 32)],
        "knn": [KnnRequest((db[int(i)],), 3, eps=0.1 * scale) for i in ids[: POOL["knn"]]],
        "similarity": [
            SimilarityRequest((db[int(i)],), 0.15 * scale) for i in ids[POOL["knn"]:]
        ],
    }


def _zipf(n: int) -> np.ndarray:
    probs = np.arange(1, n + 1, dtype=float) ** -ZIPF_A
    return probs / probs.sum()


def ingest_schedule(db, seed: int, seconds: float):
    """Seeded open-loop slots: (phase, due offset s, op, pool entry or
    ingest number), sorted by due time; the read pool, the configured mix per
    phase, and a digest. Reads and ingests are two evenly spaced streams;
    the writer's rate is the same in both phases."""
    rng = np.random.default_rng([seed, 2])
    pool = read_pool(db, rng)
    kinds = list(KIND_WEIGHTS)
    weights = np.array([KIND_WEIGHTS[k] for k in kinds])
    weights /= weights.sum()
    slots, configured, offset, ingests = [], {}, 0.0, 0
    for phase, qps, share in (
        ("nominal", NOMINAL_QPS, NOMINAL_SHARE),
        ("high", HIGH_QPS, 1.0 - NOMINAL_SHARE),
    ):
        duration = seconds * share
        read_qps = qps - INGEST_QPS
        for j in range(int(read_qps * duration)):
            kind = kinds[int(rng.choice(len(kinds), p=weights))]
            entry = int(rng.choice(len(pool[kind]), p=_zipf(len(pool[kind]))))
            slots.append((phase, offset + j / read_qps, kind, entry))
        for j in range(int(INGEST_QPS * duration)):
            due = offset + (j + 0.5) / INGEST_QPS
            slots.append((phase, due, "ingest", ingests))
            ingests += 1
        configured[phase] = {"ingest": INGEST_QPS / qps}
        configured[phase].update({k: w * read_qps / qps for k, w in zip(kinds, weights)})
        offset += duration
    slots.sort(key=lambda slot: slot[1])
    digest = hashlib.sha256(
        json.dumps([slots, {k: [repr(r)[:200] for r in v] for k, v in pool.items()}]).encode()
    ).hexdigest()
    return slots, pool, configured, digest


async def _drive(server: Server, db, slots, pool, seed: int, recorder):
    """Send ``slots`` on schedule; one record per slot."""
    from repro.client.aio import OverloadedError

    batches = {s[3]: _ingest_batch(db, s[3]) for s in slots if s[2] == "ingest"}
    client = await _open(
        server, connections=CONNECTIONS, max_inflight=4096, retries=0,
        trace=recorder is not None,
    )
    records: list[dict] = [{} for _ in slots]
    # One writer: an ingest is sent only after the previous one is acked.
    # The server reads the epoch it acks with after releasing the write
    # lock, so two concurrent ingests can be acked with the same epoch and
    # their order (hence the global ids they got) would be lost.
    writer = asyncio.Lock()
    jitter = random.Random(seed)

    async def fire(k: int, t0: float) -> None:
        phase, due_off, op, arg = slots[k]
        due = t0 + due_off
        rec = records[k]
        rec.update(phase=phase, op=op, late=time.perf_counter() - due)
        rid = f"ingest-{seed}-{k}" if recorder else None
        rec["refusals"] = 0
        while True:
            try:
                with _root(recorder, rid):
                    if op == "ingest":
                        with recorder.span("client.writer_wait") if recorder else _NULL:
                            await writer.acquire()
                        try:
                            rec["ack"] = await client.ingest(batches[arg], trace_id=rid)
                        finally:
                            writer.release()
                    else:
                        await client.execute(pool[op][arg], trace_id=rid)
                rec["latency"] = time.perf_counter() - due
                return
            except OverloadedError as exc:
                rec["refusals"] += 1
                if time.perf_counter() - due > GIVE_UP_S:
                    rec["error"] = repr(exc)
                    return
                # A refused op is retried only after the whole schedule has
                # been offered: retries sent during it would add to the load
                # being measured, and can tip a run into a retry storm.
                backoff = RETRY_BACKOFF_S * 2 ** min(rec["refusals"] - 1, 10)
                await asyncio.sleep(
                    max(0.0, t0 + slots[-1][1] - time.perf_counter())
                    + jitter.uniform(0.0, min(MAX_BACKOFF_S, backoff))
                )
            except Exception as exc:  # counted, reported, never hidden
                rec["error"] = repr(exc)
                return

    out = {}
    try:
        out["m0"] = await client.metrics()
        t0 = out["start"] = time.perf_counter() + 0.05
        tasks = []
        for k, slot in enumerate(slots):
            delay = t0 + slot[1] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(fire(k, t0)))
        await asyncio.gather(*tasks)
        out["end"] = time.perf_counter()
        out["m1"] = await client.metrics()
        out["info"] = await client.describe()
        out["retries"] = client.failover_retries + sum(r["refusals"] for r in records)
    finally:
        await client.close()
    out["records"] = records
    out["batches"] = batches
    return out


async def _final_ranges(server: Server, requests):
    client = await _open(server, trace=False)
    try:
        return [await client.execute(r) for r in requests]
    finally:
        await client.close()


def _check_ingest(db, slots, out, final_requests, final_served) -> tuple[list[str], float]:
    """Acks, accounting, and the final range F1 against an exact replay."""
    from repro.client import LocalClient
    from repro.queries.metrics import mean_f1

    problems = []
    acks = []
    for slot, rec in zip(slots, out["records"]):
        if slot[2] != "ingest":
            continue
        ack = rec.get("ack")
        if ack is None or ack.added != INGEST_BATCH:
            problems.append(f"ingest not acked: {rec.get('error') or 'refused'}")
        else:
            acks.append((ack.epoch, slot[3]))
    epochs = [e for e, _ in acks]
    if len(set(epochs)) != len(epochs):
        problems.append("two ingest acks report the same epoch")
    reference = LocalClient(db)
    for _epoch, number in sorted(acks):
        reference.ingest(out["batches"][number])
    info = out["info"]
    expect_traj = len(db) + INGEST_BATCH * len(acks)
    expect_points = reference.database.total_points
    if info["trajectories"] != expect_traj or info["points"] != expect_points:
        problems.append(
            f"accounting: served {info['trajectories']} trajectories / "
            f"{info['points']} points, acked {expect_traj} / {expect_points}"
        )
    truth, served = [], []
    for request, response in zip(final_requests, final_served):
        truth += reference.execute(request).result_sets
        served += response.result_sets
    return problems, mean_f1(truth, served)


def run_ingest(seed, seconds, tmp, inject, recorder, spans_out):
    from repro.service.requests import RangeRequest

    problems: list[str] = []
    setup_s, db, server = setup(
        INGEST_TRAJECTORIES, INGEST_SERVER, tmp, spans_out, inject, problems
    )
    slots, pool, configured, digest = ingest_schedule(db, seed, seconds)
    rng = np.random.default_rng([seed, 3])
    from repro.data.stats import spatial_scale

    final_requests = [
        RangeRequest(tuple(measure.random_boxes(
            db, rng, 100, 0.1 * spatial_scale(db), db.bounding_box.spans[2] / 4.0
        )))
        for _ in range(FINAL_RANGE_REQUESTS)
    ]
    try:
        out = asyncio.run(_drive(server, db, slots, pool, seed, recorder))
        final_served = asyncio.run(_final_ranges(server, final_requests))
        peak = server.peak_rss_mb()
    finally:
        _stop(server, problems)
    wrong, f1 = _check_ingest(db, slots, out, final_requests, final_served)
    problems += wrong
    recs = out["records"]
    errors = [r["error"] for r in recs if "error" in r]
    refusals = sum(r["refusals"] for r in recs)
    problems += errors[:5]

    nominal = [r for r in recs if r["phase"] == "nominal" and "latency" in r]
    reads = measure.latency_summary([r["latency"] for r in nominal if r["op"] != "ingest"])
    writes = measure.latency_summary([r["latency"] for r in nominal if r["op"] == "ingest"])
    high = [r for r in recs if r["phase"] == "high"]
    high_s = seconds * (1.0 - NOMINAL_SHARE)
    good = sum(1 for r in high if r.get("latency", LIMIT_S + 1) <= LIMIT_S)
    produced = {}
    for r in recs:
        key = f"{r['phase']}.{r['op']}"
        produced[key] = produced.get(key, 0) + 1
    late = [r["late"] for r in recs]
    result = {
        "attempted": len(slots),
        "failed": len(errors),
        "problems": problems,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "goodput_per_s": good / high_s,
            "range_f1": f1,
            "stored_frac": _shard_points(out["info"]) / out["info"]["points"],
        },
        "detail": {
            "nominal_reads": reads,
            "nominal_writes": writes,
            "high": {"offered": len(high), "within_limit": good, "seconds": high_s,
                         "limit_ms": 1000 * LIMIT_S},
            "refusals_retried": refusals,
            "gen_late": measure.latency_summary(late),
            "mix": {"configured": configured, "produced": produced},
            "schedule_digest": digest,
            "db_digest": measure.database_digest(db),
            "trajectories": len(db),
            "points": db.total_points,
        },
        "read_latency": reads,
        "overhead_basis": reads["p50_ms"],
    }
    return result, out


# ------------------------------------------------------------------- entry
def run(name: str, seed: int, seconds: float, inject=None, recorder=None) -> dict:
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    spans_out = tmp / "server_spans.json" if recorder is not None else None
    try:
        runner = run_scan if name == "serve-scan" else run_ingest
        result, out = runner(seed, seconds, tmp, inject, recorder, spans_out)
        if recorder is not None:
            records = [json.loads(spans_out.read_text())] + [
                json.loads(p.read_text()) for p in sorted(tmp.glob(spans_out.name + ".*"))
            ]
            result.update(_layer_metrics(recorder, records, out, result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_tmp").rmdir()
    return result


def _hist(report: dict, *path) -> tuple[int, float]:
    node = report
    for key in path:
        node = node.get(key, {})
    return int(node.get("count", 0)), float(node.get("sum", 0.0))


def _layer_metrics(recorder, records: list[dict], out: dict, result: dict) -> dict:
    """Per-layer metrics of the measured window, from the spans of every
    process (client, server, shard workers) and the server's own counters
    diffed across the window."""
    start, end = out["start"], out["end"]
    client_spans = layers.in_window(recorder.spans, start, end)
    roots = [s for s in client_spans if s[2] == "bench.request"]
    spans = [s for s in client_spans if s[2] != "bench.request"]
    events = list(recorder.events)
    worker_ms = 0.0
    for n, record in enumerate(records, start=1):
        offset = n << 48  # keep each process's span ids apart
        for sid, parent, name, t0, t1, req in layers.in_window(record["spans"], start, end):
            spans.append((sid + offset, None if parent is None else parent + offset,
                          name, t0, t1, req))
            if n > 1 and parent is None and name.startswith("runtime.op."):
                worker_ms += 1000.0 * (t1 - t0)
        events += record["events"]
    metrics = layers.span_metrics(spans, layers.counters_in(events, (start, end)))
    # A worker's shard op is a child of the executor call that sent it.
    metrics["executor.self_ms"] -= worker_ms
    metrics["executor.transport_ms"] = metrics["executor.self_ms"]
    # Data generation is set-up here, outside every request.
    generated = [s for s in recorder.spans if s[2] == "data.generate"]
    metrics["data.generate_ms"] = 1000.0 * (generated[-1][4] - generated[-1][3])
    metrics["data.self_ms"] = 0.0

    m0, m1 = out["m0"], out["m1"]
    s0, s1 = m0["summary"], m1["summary"]
    requests = max(1, s1["requests"] - s0["requests"])
    wait = _hist(m1, "histograms", "queue_wait")[1] - _hist(m0, "histograms", "queue_wait")[1]
    metrics["server.queue_wait_ms"] = 1000.0 * wait
    metrics["server.queue_depth_hwm"] = s1.get("queue_depth_hwm", 0)
    metrics["server.refused"] = (
        m1["server"]["overloaded_frames"] - m0["server"]["overloaded_frames"]
    )
    metrics["service.cache_hit_ratio"] = (s1["cache_hits"] - s0["cache_hits"]) / requests
    sent = s1["knn_shards_dispatched"] - s0["knn_shards_dispatched"]
    skipped = s1["knn_shards_skipped"] - s0["knn_shards_skipped"]
    metrics["service.knn_skip_ratio"] = skipped / (sent + skipped) if sent + skipped else 0.0
    t0, t1 = m0.get("transport", {}), m1.get("transport", {})
    pipe = sum(t1.get(k, 0) - t0.get(k, 0) for k in ("pipe_bytes_sent", "pipe_bytes_received"))
    metrics["executor.bytes_per_req"] = pipe / requests
    metrics["compaction.passes"] = s1["compactions"] - s0["compactions"]
    metrics["compaction.bytes_rewritten"] = (
        m1.get("store", {}).get("bytes_put", 0) - m0.get("store", {}).get("bytes_put", 0)
    )
    metrics["client.retries"] = out["retries"]
    gen_late = result["detail"].get("gen_late")
    if gen_late:
        metrics["bench.gen_late_p99_ms"] = gen_late["p99_ms"]
    writes = result["detail"].get("nominal_writes")
    if writes and writes["n"]:
        metrics["bench.write_p90_ms"] = writes["p90_ms"]

    # The queue wait the server measures starts before request decode.
    queue_ms = max(0.0, metrics["server.queue_wait_ms"] - metrics["server.decode_ms"])
    metrics["server.self_ms"] += queue_ms
    total_ms = 1000.0 * sum(s[4] - s[3] for s in roots)
    attributed = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    metrics["trace.unattributed_pct"] = 100.0 * (total_ms - attributed) / total_ms
    return {"layers": metrics, "root_ms": total_ms}
