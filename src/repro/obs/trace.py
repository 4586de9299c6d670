"""Request IDs and cross-process request traces.

Every HTTP exchange gets a **request ID** minted at admission
(:func:`new_request_id`, 16 hex chars from the OS entropy pool).  For
job submissions the ID keys a bounded :class:`TraceBuffer` entry — a
``repro-request-trace-v1`` record merging:

* the *waiter's* server-side stage spans (admission, CAS probe, the
  wait for the shared job, respond), recorded per request by a
  :class:`RequestSpans`; and
* the *job's* spans, shared by every coalesced waiter: queue wait,
  worker round-trip, CAS store on the server side, plus the
  worker-process :class:`~repro.telemetry.spans.SpanRecorder` records
  (frontend compile, per-pass, fuse compiles, bench
  build/simulate/validate) carried back across the pool pipe.

Coalesced waiters therefore **share one job span tree but keep
distinct request ids** — N trace records can point at the same job
section, whose ``request_id`` names the admitting owner.

``GET /v1/trace/<request_id>`` serves the record rendered as a Chrome
trace-event document (:func:`repro.telemetry.perfetto.
build_request_trace`); ``repro submit --trace-out FILE`` fetches and
writes it in one step.

Timebase note: server spans count microseconds from the waiter's
request start; worker spans count from the worker's execution start.
The Perfetto export anchors the worker track at the job's queue-exit
offset, which is accurate to within one pipe send — good enough to see
where a request spent its time, which is the point.
"""

from __future__ import annotations

import binascii
import os
import time
from collections import OrderedDict

TRACE_SCHEMA = "repro-request-trace-v1"

#: Default trace-buffer capacity (overridable via ``repro serve
#: --trace-buffer``).
DEFAULT_CAPACITY = 256


def new_request_id() -> str:
    """A fresh 16-hex-char request ID (64 bits of OS entropy)."""
    return binascii.hexlify(os.urandom(8)).decode()


class RequestSpans:
    """Explicit per-request span list (server side).

    The context-global :func:`repro.telemetry.spans.span` helper keys
    off an ambient recorder *stack*, which concurrent coroutines would
    corrupt — so the server records spans explicitly, one instance per
    request, sharing the record shape with :class:`SpanRecorder` so
    the Perfetto export can render both.
    """

    def __init__(self):
        #: ``time.perf_counter()`` at request start — the zero of this
        #: request's timeline (the server also uses it to place the
        #: shared job section relative to each coalesced waiter).
        self.epoch = time.perf_counter()
        self.records: list[dict] = []

    def now_us(self) -> int:
        return int((time.perf_counter() - self.epoch) * 1e6)

    def span(self, name: str, start_us: int, args: dict | None = None,
             end_us: int | None = None) -> None:
        """Record one completed span; ``end_us`` defaults to now."""
        end = self.now_us() if end_us is None else end_us
        self.records.append({
            "type": "span", "category": "serve", "name": name,
            "start_us": int(start_us),
            "dur_us": max(0, int(end - start_us)),
            "args": dict(args or {})})

    def stage_ms(self) -> dict[str, float]:
        """Span durations in milliseconds, keyed by span name (the
        per-stage latency histograms read this)."""
        out: dict[str, float] = {}
        for record in self.records:
            out[record["name"]] = (out.get(record["name"], 0.0)
                                   + record["dur_us"] / 1e3)
        return out


def worker_stage_ms(worker_spans: list[dict]) -> dict[str, float]:
    """Compile/simulate stage durations from worker-side span records.

    ``compile`` aggregates the frontend parse/lower span and the bench
    build span (IR construction + passes); ``simulate`` is the timed
    interpreter run.  Everything else on the worker (prepare,
    validate, fuse compiles) stays visible in the trace but
    does not get its own stage histogram.
    """
    stages = {"compile": 0.0, "simulate": 0.0}
    for record in worker_spans:
        if record.get("type") != "span":
            continue
        name = record.get("name")
        if name in ("build", "compile_source"):
            stages["compile"] += record["dur_us"] / 1e3
        elif name == "simulate":
            stages["simulate"] += record["dur_us"] / 1e3
    return {k: v for k, v in stages.items() if v > 0.0}


def make_record(request_id: str, *, key: str | None, kind: str,
                workload: str, tier: str, status: int, outcome: str,
                server_spans: list[dict],
                job: dict | None) -> dict:
    """Assemble one ``repro-request-trace-v1`` record."""
    return {"schema": TRACE_SCHEMA, "request_id": request_id,
            "key": key, "kind": kind, "workload": workload,
            "tier": tier, "status": int(status), "outcome": outcome,
            "server_spans": list(server_spans),
            "job": job}


class TraceBuffer:
    """Bounded request-id → trace-record map (LRU by insertion).

    Event-loop only; capacity bounds memory no matter the traffic —
    old requests age out, exactly like a flight recorder.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._records: OrderedDict[str, dict] = OrderedDict()

    def put(self, record: dict) -> None:
        request_id = record["request_id"]
        self._records[request_id] = record
        self._records.move_to_end(request_id)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)

    def get(self, request_id: str) -> dict | None:
        return self._records.get(request_id)

    def __len__(self) -> int:
        return len(self._records)
