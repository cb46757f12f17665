"""One benchmark run: set-up, timed pass, checks, metrics.

``--trace 0`` runs one untraced pass for ``seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs an untraced pass for half the time,
then replays the same ops on a fresh set-up with every binding site of
:func:`perfbench.sites.sites` wrapped, and reports the per-layer metrics;
the ratio of the two passes' op time is ``trace.overhead_frac``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import statistics
import threading
import time

from perfbench import sites as site_table
from perfbench.spans import Recorder, op_scope
from perfbench.workloads import DENSE_SAMPLE_MAX, WORKLOADS, OpRecord, is_sampled

#: In-run repetitions of the set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: End-to-end metric name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Fewest samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def run_pass(workload, state, seed, *, seconds=None, n_ops=None, recorder=None, sample=True):
    """Closed loop: ``workload.clients`` clients, each sending its next op
    when the last returns, until ``seconds`` elapse or ``n_ops`` are taken.

    Returns ``(records, wall_s)``; every op started is finished and recorded.
    """
    records: list[OpRecord] = []
    lock = threading.Lock()
    counter = itertools.count()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def client() -> None:
        while True:
            with lock:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                index = next(counter)
                if n_ops is not None and index >= n_ops:
                    return
            record = OpRecord(index, sampled=sample and is_sampled(seed, index))
            record.start = time.perf_counter()
            try:
                if recorder is None:
                    workload.op(state, record)
                else:
                    with op_scope(index):
                        workload.op(state, record)
                record.ok = True
            except Exception as exc:  # an op that raises is a failed op
                record.error = f"{type(exc).__name__}: {exc}"
            record.end = time.perf_counter()
            with lock:
                records.append(record)

    if workload.clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{i}")
            for i in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    records.sort(key=lambda r: r.index)
    wall = max(r.end for r in records) - start
    return records, wall


def dense_checks(workload, state, records) -> None:
    """Run the first :data:`DENSE_SAMPLE_MAX` sampled dense cross-checks;
    a mismatch fails that op."""
    left = DENSE_SAMPLE_MAX
    for record in records:
        if record.ok and record.payload is not None and left > 0:
            left -= 1
            try:
                workload.dense_check(state, record)
            except Exception as exc:  # a failed check fails the op
                record.ok = False
                record.error = f"dense check: {type(exc).__name__}: {exc}"
        record.payload = None


def latency_tail(latencies) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the highest percentile with
    at least :data:`TAIL_BEYOND` samples beyond it, but never below the
    median.

    With fewer than ``2 * TAIL_BEYOND`` samples no percentile above the
    median has that many beyond it, and the median is reported: the value
    then moves continuously with the sample count instead of jumping.
    """
    values = sorted(latencies)
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(values), 50.0, n // 2
    return values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _latencies(records) -> list[float]:
    # A failed op misses every latency limit: it sorts after all others.
    return [r.latency if r.ok else math.inf for r in records]


def _finite(value: float, fallback: float) -> float:
    return value if math.isfinite(value) else fallback


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(records, wall, setup_s) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced pass, plus notes for the report."""
    latencies = _latencies(records)
    p50 = _finite(statistics.median(latencies), wall)
    tail, percentile, beyond = latency_tail(latencies)
    units = sum(r.units for r in records if r.ok)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": p50,
        "latency_tail_s": _finite(tail, wall),
        "throughput_ops_per_s": units / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "latency_p50_s": f"n={len(records)}",
        "latency_tail_s": f"p{percentile:.1f}, n={len(records)}, {beyond} beyond",
        "throughput_ops_per_s": f"{units} units in {wall:.3f} s",
        "setup_s": f"median of {SETUP_REPEATS}",
    }
    return metrics, notes


def _tier_p50(records, tiers) -> float:
    values = [r.latency for r in records if r.ok and r.tier in tiers]
    return float(statistics.median(values)) if values else 0.0


def traced_pass(workload, seed, untraced_records):
    """Replay the untraced pass's ops with every site wrapped.

    Returns ``(records, per-layer metrics, self time per layer, recorder)``.
    """
    from repro.pw.fft import default_plan_cache
    from repro.resilience import resilience_log

    state = workload.prepare(seed)
    workload.reference(state)
    recorder = Recorder()
    plan_before = default_plan_cache().stats()
    events_before = len(resilience_log())
    recorder.install(site_table.sites())
    try:
        records, _ = run_pass(
            workload, state, seed, n_ops=len(untraced_records), recorder=recorder,
            sample=False,
        )
    finally:
        recorder.uninstall()
        workload.teardown(state)
    plan_after = default_plan_cache().stats()
    windows = {r.index: (r.start, r.end) for r in records}
    metrics, layers = site_table.span_metrics(recorder.spans, windows)
    metrics.update(workload.layer_metrics(state, records, recorder.spans))
    hits = plan_after["hits"] - plan_before["hits"]
    misses = plan_after["misses"] - plan_before["misses"]
    busy = sum(r.latency for r in records)
    untraced_busy = sum(r.latency for r in untraced_records)
    metrics.update({
        "pw.plan_cache_hit_ratio": hits / max(1, hits + misses),
        "resilience.fallback_events": (len(resilience_log()) - events_before)
        / max(1, len(records)),
        "latency_p50_s.cold": _tier_p50(untraced_records, ("cold",)),
        "latency_p50_s.warm": _tier_p50(untraced_records, ("warm", "sub")),
        "trace.overhead_frac": busy / untraced_busy,
    })
    return records, metrics, layers, recorder


def set_up(workload, seed):
    """Prepare ``SETUP_REPEATS`` times; keep the last state, return the median."""
    times, state = [], None
    for repeat in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.prepare(seed)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: str | None = None):
    """Run one workload; returns ``(result, report_lines)``.

    ``result`` is the JSON object the benchmark prints last.
    """
    workload = WORKLOADS[name]
    state, setup_s = set_up(workload, seed)
    try:
        t0 = time.perf_counter()
        workload.reference(state)
        reference_s = time.perf_counter() - t0
        records, wall = run_pass(
            workload, state, seed, seconds=seconds / 2 if trace else seconds
        )
        e2e, notes = end_to_end(records, wall, setup_s)
        dense_checks(workload, state, records)
    finally:
        workload.teardown(state)

    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}"]
    lines.append(f"reference_s {reference_s:.4f} s (one-off, outside setup_s)")
    for metric, unit in END_TO_END.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"{metric:<24} {e2e[metric]:.6g} {unit}{note}")
    all_records = list(records)
    if any(r.tier for r in records):
        for label, tiers in (("cold", ("cold",)), ("warm", ("warm", "sub"))):
            lines.append(f"{'latency_p50_s.' + label:<24} {_tier_p50(records, tiers):.6g} s")

    if trace:
        traced, metrics, layers, recorder = traced_pass(workload, seed, records)
        all_records += traced
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            recorder.dump(os.path.join(out_dir, f"spans-{name}-{seed}.json"))
        # A metric a workload has no work for reads 0.
        report = {k: (metrics.get(k, 0.0), unit) for k, unit in site_table.PER_LAYER.items()}
        for metric, (value, unit) in report.items():
            lines.append(f"{metric:<36} {value:.6g} {unit}")
        lines.append("self time per op by layer: " + json.dumps(
            {k: round(v, 6) for k, v in layers.items()}
        ))
    else:
        report = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}

    failed = [r for r in all_records if not r.ok]
    lines.append(
        f"{'failed_frac':<24} {len(failed) / len(all_records):.6g}  "
        f"({len(failed)}/{len(all_records)})"
    )
    for record in failed[:5]:
        lines.append(f"  op {record.index} failed: {record.error}")
    result = {
        "correct": not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in report.items()},
    }
    return result, lines
