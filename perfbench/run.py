#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

``--workload`` is ``pipeline``, ``serve-scan`` or ``serve-ingest`` (see
``BENCHMARK.json`` for why each exists). ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and once
with every layer's entry points wrapped, and reports the per-layer metrics
plus the tracing overhead. Human-readable detail goes to stdout first; the
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when every answer checked out.

``--inject sleep10|engine2x`` slows one layer on purpose; only
``perfbench/selftest.py`` uses it, to show the bounds catch a regression.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread everywhere: the load runs on at most nproc threads, and
# an oversubscribed BLAS pool makes timings depend on scheduling luck.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("pipeline", "serve-scan", "serve-ingest")
#: A run that has not finished by now raises, stops its servers and exits
#: non-zero without a result; so does a run sent SIGTERM.
DEADLINE_S = 170


def _deadline(signum, frame):
    raise TimeoutError(f"run did not finish within {DEADLINE_S} s")


def _terminated(signum, frame):
    raise SystemExit(f"terminated by signal {signum}")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _check_names(spec: dict, trace: bool, metrics: dict) -> list[str]:
    """The metrics a run produced must be exactly the ones BENCHMARK.json
    declares for its mode, with the declared units."""
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: m["unit"] for name, m in metrics.items()}
    return [] if want == have else [f"metric set/units differ: {sorted(set(want) ^ set(have))}"]


def program_caches() -> dict:
    """The program's default cache sizes, read from its signatures."""
    from repro.queries.engine import QueryEngine
    from repro.service import QueryService

    def default(cls, param):
        return inspect.signature(cls).parameters[param].default

    return {
        "service_result_lru_entries": default(QueryService, "cache_size"),
        "engine_memo_entries": default(QueryEngine, "max_cached_results"),
    }


def provenance(spec: dict, workload, name: str, seed: int, seconds: float,
               detail: dict) -> dict:
    """Seeds, digests, host, the workload's constants as the code has them,
    and the prose of ``provenance.json``."""
    from repro.obs.provenance import build_provenance

    notes = json.loads((HERE / "provenance.json").read_text())
    return {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "config": workload.config(name),
        "program_caches": program_caches(),
        "data": {k: detail[k] for k in ("trajectories", "points") if k in detail},
        "inputs": {k: v for k, v in detail.items() if k.endswith("digest")},
        "program": build_provenance(),
        "notes": notes["workloads"][name],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("sleep10", "engine2x"))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        return _fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    # Unwinding on SIGTERM runs the workloads' cleanup, which stops servers.
    signal.signal(signal.SIGTERM, _terminated)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import report

    if args.workload == "pipeline":
        import pipeline as workload
    else:
        import serve as workload
    runner = report.traced if args.trace else report.untraced
    result = runner(workload, args.workload, args.seed, args.seconds, args.inject)

    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {
        name: {"value": float(value), "unit": units.get(name, "?")}
        for name, value in result["metrics"].items()
    }
    problems = list(result["problems"]) + _check_names(spec, bool(args.trace), metrics)
    for line in result.get("lines", []):
        print(line)
    print("provenance " + json.dumps(
        provenance(spec, workload, args.workload, args.seed, args.seconds,
                   result["detail"]),
        sort_keys=True,
    ))
    print("detail " + json.dumps(result["detail"], sort_keys=True, default=str))
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
