"""Untraced and traced runs of one workload, turned into metric dicts.

End-to-end metrics come from an untraced run. A traced run repeats the
workload untraced and then traced, so the tracing overhead is measured in
the same process on the same inputs; the per-layer metrics come from the
traced half.
"""

from __future__ import annotations

import layers


def _in_process(workload, inject):
    """Install an in-process workload's injection once; a served
    workload's injection travels to the server launcher instead."""
    if inject and workload.IN_PROCESS:
        layers.install_injection(inject)
        return None
    return inject


def untraced(workload, name: str, seed: int, seconds: float, inject=None) -> dict:
    inject = _in_process(workload, inject)
    result = workload.run(name, seed, seconds, inject=inject)
    if result["failed"]:
        result["problems"].append(f"{result['failed']} operations failed")
    return result


def traced(workload, name: str, seed: int, seconds: float, inject=None) -> dict:
    half = seconds / 2.0
    inject = _in_process(workload, inject)
    plain = workload.run(name, seed, half, inject=inject)
    recorder = layers.SpanRecorder()
    recorder.install()
    result = workload.run(name, seed, half, inject=inject, recorder=recorder)
    metrics = result["layers"]
    base, with_trace = plain["overhead_basis"], result["overhead_basis"]
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    # Read latency is too noisy on shared hosts to carry a bound (see
    # BENCHMARK.json): it is reported here, from the untraced half.
    metrics["bench.read_p50_ms"] = plain["read_latency"]["p50_ms"]
    metrics["bench.read_p99_ms"] = plain["read_latency"]["p99_ms"]
    lines = [f"{'layer':<12}{'self ms':>12}{'share %':>10}"]
    root = result["root_ms"]
    for layer in layers.LAYERS:
        ms = metrics[f"{layer}.self_ms"]
        lines.append(f"{layer:<12}{ms:>12.1f}{100.0 * ms / root:>10.1f}")
    lines.append(f"{'unattributed':<12}{'':>12}{metrics['trace.unattributed_pct']:>10.1f}")
    lines.append(f"tracing overhead {metrics['trace.overhead_pct']:.1f}% "
                 f"({base:.4f} -> {with_trace:.4f})")
    problems = plain["problems"] + result["problems"]
    failed = plain["failed"] + result["failed"]
    return {
        "attempted": plain["attempted"] + result["attempted"],
        "failed": failed,
        "problems": problems + ([f"{failed} operations failed"] if failed else []),
        "metrics": metrics,
        "detail": {**result["detail"], "untraced": plain["detail"]},
        "lines": [f"[{name} per-layer self time, traced run]"] + lines,
    }
