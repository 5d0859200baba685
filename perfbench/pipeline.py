"""The ``pipeline`` workload: the paper's own train / simplify / score loop.

In-process and single-threaded, at the geolife setting of
``benchmarks/conftest.py``, whose helpers it calls: ``build_db``,
``make_evaluator`` (suite seed 0), ``train_model``, ``inference_workload``
and the setting's ratios. Like the paper's fixed
datasets and query suites, those stay the same for every ``--seed``; the
seed drives what is learned and asked: the training run, the annotation
workload and the timed reads. One pass:

1. build the :class:`QueryAccuracyEvaluator` ground truth;
2. ``RL4QDTS.train``;
3. ``RL4QDTS.simplify`` at each ratio with the 1000-query inference workload;
4. score each simplified database on range, knn_edr, similarity, clustering;
5. answer a fixed range workload on each simplified database, one
   ``READ_BOXES``-box request at a time through its ``QueryEngine`` (the
   read a user of the simplified database makes), and check every answer
   against an R-tree-backed engine (the check is not timed).

Passes repeat while the next one fits in ``--seconds``; there is always
one. Every pass does the same work, and the fastest one is reported.
Untraced runs time set-up and passes in effective seconds
(:class:`measure.HostClock`): wall time with the slowdowns other tenants
of a shared host impose taken out, which otherwise move a pass's wall
time by up to 2x between runs. Wall times are in the ``detail`` line.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

import layers
import measure

ROOT = Path(__file__).resolve().parent.parent


def _conftest():
    """``benchmarks/conftest.py``, whose settings and factories define the
    scale this workload runs at (loaded by path: it is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


CONFTEST = _conftest()
SETTING = CONFTEST.SETTINGS["geolife"]
RATIOS = SETTING.ratios
EVAL_SEED = 0
TASKS = ("range", "knn_edr", "similarity", "clustering")
#: Each timed read is one READ_BOXES-box range request: large enough that a
#: sub-millisecond scheduling hiccup does not decide the p99.
READS_PER_RATIO = 1000
READ_BOXES = 10
SETUP_REPEATS = 9
IN_PROCESS = True


def generate():
    return CONFTEST.build_db(SETTING)


def config(name: str) -> dict:
    """The constants that shape the workload, for the run's provenance."""
    return {
        "setting": dataclasses.asdict(SETTING),
        "eval_seed": EVAL_SEED,
        "tasks": list(TASKS),
        "reads_per_ratio": READS_PER_RATIO,
        "boxes_per_read": READ_BOXES,
        "setup_repeats": SETUP_REPEATS,
    }


def check_subsequence(original, simplified, budget: int) -> list[str]:
    """Problems with ``simplified`` as a budgeted simplification of
    ``original`` (each trajectory a point subsequence keeping both ends,
    the whole database exactly ``budget`` points)."""
    problems = []
    if len(simplified) != len(original):
        problems.append(f"{len(simplified)} trajectories, expected {len(original)}")
        return problems
    if simplified.total_points != budget:
        problems.append(f"{simplified.total_points} points, budget {budget}")
    for tid, (orig, simp) in enumerate(zip(original, simplified)):
        rows = np.searchsorted(orig.points[:, 2], simp.points[:, 2])
        if (
            rows.max() >= len(orig)
            or not np.array_equal(orig.points[rows], simp.points)
            or rows[0] != 0
            or rows[-1] != len(orig) - 1
        ):
            problems.append(f"trajectory {tid} is not an end-preserving subsequence")
    return problems


def one_pass(db, seed: int, clock: measure.HostClock) -> dict:
    """Run the pipeline once over ``db``; return its stage times in
    effective seconds (see :class:`measure.HostClock`), its wall time, read
    samples and the answers :func:`check_pass` checks."""
    from repro.queries.engine import QueryEngine

    out = {"reads_s": [], "range_f1": [], "kept_frac": [], "answers": []}
    wall0, start = clock.now()
    evaluator = CONFTEST.make_evaluator(db, SETTING, "data", seed=EVAL_SEED)
    out["truth_s"] = clock.now()[1] - start

    _, t0 = clock.now()
    model = CONFTEST.train_model(db, SETTING, "data", seed=seed)
    out["train_s"] = clock.now()[1] - t0

    annotation = CONFTEST.inference_workload(model, db, SETTING, "data", seed=seed + 4242)
    boxes = CONFTEST.make_workload_factory(
        "data", SETTING, db, READS_PER_RATIO * READ_BOXES
    )(db, seed + 777).boxes
    reads = [boxes[i:i + READ_BOXES] for i in range(0, len(boxes), READ_BOXES)]
    out["simplify_s"] = out["score_s"] = out["read_total_s"] = 0.0
    for ratio in RATIOS:
        _, t0 = clock.now()
        simplified = model.simplify(
            db, budget_ratio=ratio, seed=seed + 1, workload=annotation
        )
        out["simplify_s"] += clock.now()[1] - t0
        out["kept_frac"].append(simplified.total_points / db.total_points)

        _, t0 = clock.now()
        scores = evaluator.evaluate(simplified, TASKS)
        out["score_s"] += clock.now()[1] - t0
        out["range_f1"].append(scores["range"])

        _, t0 = clock.now()
        engine = QueryEngine.for_database(simplified)
        got = []
        for read in reads:
            # A read's latency is wall time, less any probe that ran in it.
            probed, r0 = clock.probe_s, time.perf_counter()
            got += engine.evaluate(read)
            out["reads_s"].append(time.perf_counter() - r0 - (clock.probe_s - probed))
        out["read_total_s"] += clock.now()[1] - t0
        out["answers"].append((ratio, simplified, got))
    out["boxes"] = boxes
    wall1, end = clock.now()
    out["effective_s"] = end - start
    out["wall_s"] = wall1 - wall0
    return out


def check_pass(db, out: dict) -> list[str]:
    """A pass's outputs, checked outside its timing: each simplified
    database is a budgeted end-preserving subsequence, and every read
    matches an R-tree-backed engine (chunked, to add little memory)."""
    problems = []
    for ratio, simplified, got in out.pop("answers"):
        budget = db.budget_for_ratio(ratio)
        problems += [
            f"ratio {ratio}: {p}" for p in check_subsequence(db, simplified, budget)
        ]
        if not reads_match(simplified, out["boxes"], got):
            problems.append(f"ratio {ratio}: range reads differ from the R-tree engine")
    return problems


def reads_match(simplified, boxes, got) -> bool:
    """The timed reads' answers against an R-tree-backed engine, whose
    candidate search shares no code with the grid's (chunked, so the check
    adds little to the peak memory)."""
    from repro.index.backend import make_backend
    from repro.queries.engine import QueryEngine

    reference = QueryEngine(simplified, backend=make_backend("rtree", simplified))
    chunk = 1000
    return all(
        got[i:i + chunk] == reference.evaluate(boxes[i:i + chunk])
        for i in range(0, len(boxes), chunk)
    )


def run(name: str, seed: int, seconds: float, inject=None, recorder=None) -> dict:
    """The workload: set-up, passes, end-to-end metrics and raw details.

    With a ``recorder`` each pass (data generation included) runs inside a
    ``bench.pass`` root span and the per-layer metrics are filled in.
    """
    # Traced runs time wall seconds: a probe inside a span would be
    # charged to whichever layer it interrupted.
    with measure.HostClock(sampling=recorder is None) as clock:
        setup_s, db = measure.timed_min(generate, SETUP_REPEATS, clock)
        passes = []
        began = time.perf_counter()
        while True:
            if recorder is not None:
                with recorder.root("bench.pass"):
                    passes.append(one_pass(generate(), seed, clock))
            else:
                passes.append(one_pass(db, seed, clock))
            passes[-1]["problems"] = check_pass(db, passes[-1])
            elapsed = time.perf_counter() - began
            if elapsed + passes[-1]["wall_s"] > seconds:
                break

    reads = [s for p in passes for s in p["reads_s"]]
    problems = [x for p in passes for x in p["problems"]]
    # Every pass does the same work; the fastest is the one the host
    # disturbed least.
    fastest = min(passes, key=lambda p: p["effective_s"])
    lat = measure.latency_summary(reads)
    stages = {
        "train_s": fastest["train_s"],
        "simplify_s": fastest["simplify_s"],
        "eval_s": fastest["truth_s"] + fastest["score_s"],
    }
    result = {
        "attempted": len(reads) + len(passes) * len(RATIOS),
        "failed": 0,
        "problems": problems,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": measure.self_peak_rss_mb(),
            "goodput_per_s": len(db) / fastest["effective_s"],
            "range_f1": float(np.mean([f for p in passes for f in p["range_f1"]])),
            "stored_frac": float(np.mean([f for p in passes for f in p["kept_frac"]])),
        },
        "detail": {
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_effective_s": [p["effective_s"] for p in passes],
            "probes": clock.probes,
            "probe_mean_ms": 1000.0 * clock.probe_s / max(1, clock.probes),
            "reads": lat,
            **stages,
            "db_digest": measure.database_digest(db),
            "points": db.total_points,
            "trajectories": len(db),
        },
        "read_latency": lat,
        "overhead_basis": fastest["wall_s"],
    }
    if recorder is not None:
        roots = [s for s in recorder.spans if s[2] == "bench.pass"]
        root_s = sum(s[4] - s[3] for s in roots)
        metrics = layers.span_metrics(
            layers.under(recorder.spans, "bench.pass"),
            layers.counters_in(recorder.events, *[(s[3], s[4]) for s in roots]),
        )
        root_self = layers.self_times(recorder.spans).get("bench.pass", 0.0)
        metrics["trace.unattributed_pct"] = 100.0 * root_self / root_s
        for key, value in stages.items():
            metrics["bench." + key] = value
        result["layers"] = metrics
        result["root_ms"] = 1000.0 * root_s
    return result
