#!/usr/bin/env python
"""Load-test harness for ``repro serve``: the serving benchmark.

Drives hundreds of concurrent requests (default 1000 requests at
concurrency 500) with a *duplicate-heavy* mix — a small set of unique
jobs repeated many times, the AMC-style evolving-workload setting where
most traffic re-asks slightly-stale questions — and checks three
properties:

1. **Correctness**: every 200 answer's ``result`` section is
   byte-identical (canonical JSON) to the same run performed directly
   through :func:`repro.bench.runner.run_variant`, i.e. exactly what
   ``repro bench`` computes.  Each plain job is also sent as a *twin*
   at another look-ahead, which shares its key (plain reads no
   look-ahead), and the twin is checked against ``run_variant`` at its
   own look-ahead, so canonicalised store hits are covered too;
2. **Sharing**: the duplicate mix must produce coalesce hits and CAS
   hits (> 0 each) — many clients, one simulation substrate;
3. **Latency**: p50/p95/p99 request latency is measured and archived,
   and so is each server stage's latency: exact nearest-rank
   percentiles over every answered request's trace record
   (``GET /v1/trace/<id>``), not the metrics histograms'
   bucket-interpolated quantiles.

Writes ``BENCH_serve_throughput.json`` (schema
``repro-serve-bench-v1``) and exits non-zero on any mismatch, transport
error, or missing sharing.  With ``--spawn`` the harness starts its own
``repro serve`` subprocess on a free port and tears it down after.

Usage::

    PYTHONPATH=src python tools/load_test.py --spawn --small
    PYTHONPATH=src python tools/load_test.py --host H --port P \
        --requests 1000 --concurrency 500 --unique 10
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import nearest_rank  # noqa: E402
from repro.obs.trace import worker_stage_ms  # noqa: E402
from repro.serve.client import AsyncClient, get_metrics  # noqa: E402
from repro.serve.server import STAGES  # noqa: E402

#: Request-trace process ids (repro.telemetry.perfetto): server spans
#: on pid 1 — the waiter's own on tid 1, the shared job's on tid 2 —
#: and the pool worker's spans on pid 2.
_SERVER_PID, _WORKER_PID = 1, 2
_JOB_TID = 2
#: Connections used to fetch the trace records after the burst.
_TRACE_FETCHERS = 4


def canonical(value) -> str:
    """Canonical JSON form used for byte-identity comparison."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Look-ahead of each plain job's twin request (the jobs use 64).
TWIN_LOOKAHEAD = 16


def build_mix(unique: int, total: int, small: bool,
              seed: int = 20170204) -> tuple[list[dict], list[int]]:
    """A duplicate-heavy request mix.

    Returns ``(requests, schedule)`` where ``schedule`` is a shuffled
    list of indices into ``requests`` of length ``total``.  The first
    ``unique`` requests are distinct jobs cycling workloads × variants
    × machines; a twin at :data:`TWIN_LOOKAHEAD` follows for each
    plain one.
    """
    workloads = ["is", "cg", "ra", "hj2", "hj8"]
    variants = ["plain", "auto"]
    machines = ["Haswell", "A53"]
    pool = []
    for machine in machines:
        for variant in variants:
            for workload in workloads:
                pool.append({
                    "schema": "repro-serve-request-v1",
                    "kind": "simulate", "workload": workload,
                    "small": small, "variant": variant,
                    "machine": machine, "lookahead": 64,
                    "validate": True, "tier": "auto", "include": []})
    uniques = pool[:max(1, min(unique, len(pool)))]
    uniques += [dict(req, lookahead=TWIN_LOOKAHEAD) for req in uniques
                if req["variant"] == "plain"]
    rng = random.Random(seed)
    schedule = [i % len(uniques) for i in range(total)]
    rng.shuffle(schedule)
    return uniques, schedule


def direct_results(uniques: list[dict]) -> list[str]:
    """Canonical result JSON per unique request, via the direct bench
    path (``run_variant`` — the same call ``repro bench`` makes)."""
    import dataclasses

    from repro.bench.runner import run_variant
    from repro.machine.configs import system_by_name
    from repro.passes.prefetch import PrefetchOptions
    from repro.workloads import workload_by_name

    expected = []
    for req in uniques:
        workload = workload_by_name(req["workload"],
                                    small=req["small"])
        machine = system_by_name(req["machine"])
        options = PrefetchOptions(lookahead=req["lookahead"])
        result = run_variant(workload, req["variant"], machine,
                             lookahead=req["lookahead"],
                             options=options, validate=True,
                             cache=False)
        expected.append(canonical(dataclasses.asdict(result)))
    return expected


async def run_load(host: str, port: int, uniques: list[dict],
                   schedule: list[int], expected: list[str],
                   concurrency: int) -> dict:
    """Fire the schedule at the server; returns the raw measurements."""
    semaphore = asyncio.Semaphore(concurrency)
    latencies: list[float] = []
    mismatches: list[str] = []
    errors: list[str] = []
    statuses: dict[str, int] = {}

    request_ids: list[str] = []

    async def one(index: int, which: int) -> None:
        async with semaphore:
            client = AsyncClient(host, port)
            start = time.perf_counter()
            try:
                status, body = await client.submit(uniques[which])
            except Exception as exc:
                errors.append(f"request {index}: "
                              f"{type(exc).__name__}: {exc}")
                return
            finally:
                await client.close()
            latencies.append((time.perf_counter() - start) * 1e3)
            statuses[str(status)] = statuses.get(str(status), 0) + 1
            if status != 200:
                errors.append(f"request {index}: HTTP {status}: "
                              f"{body.get('error', body)}")
                return
            request_ids.append(body["request_id"])
            got = canonical(body.get("result"))
            if got != expected[which]:
                mismatches.append(
                    f"request {index} (unique {which}): served result "
                    f"differs from direct run_variant")

    start = time.perf_counter()
    await asyncio.gather(*(one(i, which)
                           for i, which in enumerate(schedule)))
    wall_s = time.perf_counter() - start
    return {"latencies": latencies, "mismatches": mismatches,
            "errors": errors, "statuses": statuses, "wall_s": wall_s,
            "request_ids": request_ids}


async def fetch_traces(host: str, port: int,
                       request_ids: list[str]) -> list[dict]:
    """The trace document of every request still in the server's trace
    buffer (a request that aged out answers 404 and is skipped)."""
    docs: list[dict] = []

    async def fetch(share: list[str]) -> None:
        client = AsyncClient(host, port)
        try:
            for request_id in share:
                status, doc = await client.request(
                    "GET", f"/v1/trace/{request_id}")
                if status == 200:
                    docs.append(doc)
        finally:
            await client.close()

    await asyncio.gather(*(fetch(request_ids[i::_TRACE_FETCHERS])
                           for i in range(_TRACE_FETCHERS)))
    return docs


def stage_samples(docs: list[dict]) -> dict[str, list[float]]:
    """Per-stage durations (ms) from request trace documents.

    A request's own stages (admission, probe) count once per request;
    the job stages (queue, worker, store, and the worker's compile and
    simulate) count once per job, because coalesced waiters embed the
    same shared job section in their records."""
    samples: dict[str, list[float]] = {}
    seen_jobs: set = set()
    for doc in docs:
        job_id = doc.get("otherData", {}).get("job_request_id")
        new_job = job_id is not None and job_id not in seen_jobs
        seen_jobs.add(job_id)
        stages: dict[str, float] = {}
        worker_spans = []
        for event in doc.get("traceEvents", []):
            if event.get("ph") != "X":
                continue
            if event["pid"] == _WORKER_PID:
                worker_spans.append({"type": "span", "name": event["name"],
                                     "dur_us": event["dur"]})
            elif event["name"] in STAGES and (
                    new_job or event.get("tid") != _JOB_TID):
                stages[event["name"]] = (stages.get(event["name"], 0.0)
                                         + event["dur"] / 1e3)
        if new_job:
            stages.update(worker_stage_ms(worker_spans))
        for stage, ms in stages.items():
            samples.setdefault(stage, []).append(ms)
    return samples


def stage_rows(samples: dict[str, list[float]]) -> dict[str, dict]:
    """Exact nearest-rank p50/p99/max per stage."""
    rows = {}
    for stage in sorted(samples):
        ordered = sorted(samples[stage])
        rows[stage] = {"count": len(ordered),
                       "p50": round(nearest_rank(ordered, 50), 3),
                       "p99": round(nearest_rank(ordered, 99), 3),
                       "max": round(ordered[-1], 3)}
    return rows


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile (ceil-based; see repro.obs.metrics —
    the old round()-based form under-reported, e.g. p50 of 5 samples
    answered the 2nd, not the 3rd)."""
    return nearest_rank(ordered, pct)


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def spawn_server(workers: int | None, store_dir: str,
                 trace_buffer: int) -> tuple:
    """Start ``repro serve`` on a free port; returns (proc, host, port)."""
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--cache-dir", store_dir, "--trace-buffer", str(trace_buffer)]
    if workers:
        cmd += ["--workers", str(workers)]
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parent.parent
                             / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env)
    line = proc.stdout.readline()
    # "repro serve listening on 127.0.0.1:PORT (...)"
    try:
        address = line.split("listening on ")[1].split()[0]
        host, port = address.rsplit(":", 1)
        return proc, host, int(port)
    except (IndexError, ValueError):
        proc.terminate()
        raise SystemExit(f"could not parse server banner: {line!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--spawn", action="store_true",
                        help="start a repro serve subprocess on a free "
                             "port for the duration of the test")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --spawn")
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--concurrency", type=int, default=500)
    parser.add_argument("--unique", type=int, default=10,
                        help="distinct jobs in the mix (duplicate-"
                             "heavy: requests >> unique)")
    parser.add_argument("--small", action="store_true",
                        help="scaled-down workloads (CI sizes)")
    parser.add_argument("--output", default="BENCH_serve_throughput.json")
    args = parser.parse_args()

    uniques, schedule = build_mix(args.unique, args.requests,
                                  args.small)
    twins = sum(req["lookahead"] == TWIN_LOOKAHEAD for req in uniques)
    print(f"load_test: {len(uniques) - twins} unique jobs "
          f"(+{twins} look-ahead twins) × {args.requests} requests at "
          f"concurrency {args.concurrency}")
    print("load_test: computing direct reference results "
          "(run_variant, no cache)...")
    expected = direct_results(uniques)

    proc = None
    host, port = args.host, args.port
    store_dir = None
    if args.spawn:
        import tempfile
        store_dir = tempfile.mkdtemp(prefix="repro-serve-cas-")
        # The trace buffer must hold every request of the burst for
        # the per-request stage percentiles.
        proc, host, port = spawn_server(args.workers, store_dir,
                                        max(256, args.requests))
        print(f"load_test: spawned repro serve on {host}:{port} "
              f"(store {store_dir})")
    try:
        measured = asyncio.run(run_load(host, port, uniques, schedule,
                                        expected, args.concurrency))
        metrics = get_metrics(host, port)
        traces = asyncio.run(fetch_traces(host, port,
                                          measured["request_ids"]))
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=10)
            shutil.rmtree(store_dir, ignore_errors=True)

    ordered = sorted(measured["latencies"])
    ok = measured["statuses"].get("200", 0)
    coalesce_hits = metrics["coalesce_hits"]
    cas_hits = metrics["cas"]["hits"]
    report = {
        "schema": "repro-serve-bench-v1",
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(),
                 "cpu_count": os.cpu_count(),
                 "git_sha": git_sha(),
                 "timestamp_utc": time.strftime(
                     "%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "config": {"requests": args.requests,
                   "concurrency": args.concurrency,
                   "unique": len(uniques) - twins, "twins": twins,
                   "small": args.small,
                   "spawned": bool(args.spawn),
                   "server_workers": metrics["workers"]["count"]},
        "results": {
            "ok": ok,
            "statuses": measured["statuses"],
            "errors": len(measured["errors"]),
            "mismatches": len(measured["mismatches"]),
            "wall_s": round(measured["wall_s"], 3),
            "requests_per_s": round(
                args.requests / measured["wall_s"], 2)
                if measured["wall_s"] else 0.0,
            "coalesce_hits": coalesce_hits,
            "cas_hits": cas_hits,
            "coalesce_hit_rate": round(
                coalesce_hits / args.requests, 4),
            "cas_hit_rate": round(cas_hits / args.requests, 4),
            "latency_ms": {
                "p50": round(percentile(ordered, 50), 3),
                "p95": round(percentile(ordered, 95), 3),
                "p99": round(percentile(ordered, 99), 3),
                "max": round(ordered[-1], 3) if ordered else 0.0},
            "jobs_executed": metrics["jobs"]["executed"],
            "worker_restarts": metrics["workers"]["restarts"],
            # Server-side per-stage nearest-rank p50/p99/max over the
            # per-request trace records (admission/probe/queue/worker/
            # compile/simulate/store) — where a request's time went.
            "traces": len(traces),
            "stage_latency_ms": stage_rows(stage_samples(traces)),
        },
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report["results"], indent=2))
    print(f"load_test: report written to {args.output}")

    failures = []
    if measured["errors"]:
        failures.append(f"{len(measured['errors'])} transport/HTTP "
                        f"errors (first: {measured['errors'][0]})")
    if measured["mismatches"]:
        failures.append(f"{len(measured['mismatches'])} result "
                        f"mismatches vs direct run_variant "
                        f"(first: {measured['mismatches'][0]})")
    if ok != args.requests:
        failures.append(f"only {ok}/{args.requests} requests got 200")
    if coalesce_hits <= 0:
        failures.append("coalesce hits == 0 on a duplicate-heavy mix")
    if cas_hits <= 0:
        failures.append("CAS hits == 0 on a duplicate-heavy mix")
    if failures:
        for failure in failures:
            print(f"load_test: FAIL — {failure}", file=sys.stderr)
        return 1
    print(f"load_test: PASS — {ok} requests, 0 mismatches, "
          f"coalesce {coalesce_hits}, CAS {cas_hits}, "
          f"p99 {report['results']['latency_ms']['p99']}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
