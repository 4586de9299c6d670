"""The benchmark's own arithmetic: percentiles, open-loop latency,
stats digests, and the metric catalogue every run prints.

Nothing here imports the program under test, so a change to the
program cannot change how the benchmark counts.
"""

from __future__ import annotations

import hashlib
import json
import math

#: End-to-end metrics, printed by every workload with ``--trace 0``.
#: An "operation" is one ``run_variant`` call on ``sim-cold`` and one
#: HTTP job submission on the ``serve-*`` workloads.  The tail is p90:
#: serve-miss answers 100 requests per 25 s run, so p90 is the highest
#: percentile with ten samples beyond it (on sim-cold the percentiles
#: are taken over the batch's 28 runs).  Times are normalised by the
#: host-speed probe (see ``hostspeed``), except ``wall_s`` and
#: ``req_per_s`` on serve-miss, which the offered rate sets.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "within_slo_frac": "fraction",
}

_STAGES = ("admission", "probe", "queue", "worker", "compile",
           "simulate", "store", "unattributed")

#: Per-layer metrics, printed by every workload with ``--trace 1``.  A
#: layer the workload does not exercise reports 0.
PER_LAYER = {
    "machine.init_s": "s",
    "machine.run_s": "s",
    "machine.run_ooo_s": "s",
    "machine.run_inorder_s": "s",
    "machine.sim_ips": "1/s",
    "machine.host_ns_per_mem_access": "ns",
    "machine.sim_instructions": "count",
    "machine.sim_cycles": "cycles",
    "machine.demand_accesses": "count",
    "machine.l1_misses": "count",
    "machine.llc_misses": "count",
    "machine.tlb_walks": "count",
    "machine.dram_accesses": "count",
    "machine.sw_prefetches": "count",
    "machine.hw_prefetch_fills": "count",
    "workloads.build_s": "s",
    "workloads.prepare_s": "s",
    "workloads.validate_s": "s",
    "passes.prefetch_s": "s",
    "passes.prefetches_inserted": "count",
    "passes.pipeline_s": "s",
    "frontend.compile_s": "s",
    **{f"serve.{stage}_{q}_ms": "ms"
       for stage in _STAGES for q in ("p50", "p99")},
    "serve.cas_hits": "count",
    "serve.coalesce_hits": "count",
    "serve.jobs_executed": "count",
    "serve.worker_restarts": "count",
    "serve.shed": "count",
    "serve.cas_hit_ratio": "fraction",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "host.slowdown": "ratio",
}


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it.  0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    """Middle sample (mean of the two middle ones for even counts)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def due_latencies(due: list[float], done: list[float]) -> list[float]:
    """Open-loop latencies: each request is timed from the moment it
    was due to be sent, not from when the generator got round to
    sending it, so a stalled reply charges every request queued
    behind it."""
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


def canonical(value) -> str:
    """Canonical JSON: the byte form answers are compared in."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    """Short content hash of a JSON-safe value."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def metric_block(values: dict, catalogue: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the catalogue's
    names; a name the run did not measure is an error, not a 0."""
    missing = sorted(set(catalogue) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in catalogue.items()}
