"""Simulation observability: prefetch outcomes and cycle accounting.

The telemetry subsystem classifies every software prefetch the compiler
pass emits — from the cycle it is issued to the first demand access that
touches (or fails to touch) the prefetched line — and attributes demand
latency to the hierarchy level that served it, so experiments can report
*why* a prefetching scheme won or lost (accuracy, timeliness, coverage;
the paper's §6 analysis and Fig. 8 overhead discussion).

Telemetry is **observational only**: attaching a collector never changes
a single simulated cycle.  It is gated by ``REPRO_SIM_TELEMETRY`` (off
by default) because classification needs the reference hierarchy walks;
enabling it disables the memory system's fast path for that run and
routes every access through the instrumented slow path, which the
equivalence suite proves bit-identical.

Layout:

* :mod:`repro.telemetry.outcomes` — the outcome taxonomy;
* :mod:`repro.telemetry.collector` — :class:`TelemetryCollector`, the
  bounded event ring and aggregation tables;
* :mod:`repro.telemetry.timeline` — the flight recorder's windowed
  time-series sampler (``REPRO_SIM_TIMELINE``);
* :mod:`repro.telemetry.spans` — wall-clock pipeline spans (frontend,
  passes, JIT compiles, cache probes, bench jobs);
* :mod:`repro.telemetry.perfetto` — Chrome trace-event export of both;
* :mod:`repro.telemetry.report` — prefetch-effectiveness and timeline
  reports over the benchmark suite (imported on demand; it pulls in
  the bench harness).
"""

from .collector import (DEFAULT_RING_CAPACITY, MAX_RING_CAPACITY,
                        TelemetryCollector, resolve_collector,
                        ring_capacity, telemetry_enabled)
from .outcomes import (DROPPED, EARLY, LATE, OUTCOMES, REDUNDANT, TIMELY,
                       UNUSED)
from .spans import SpanRecorder, active_recorder, recording, span
from .timeline import (DEFAULT_SAMPLE_EVERY, DEFAULT_WINDOW_CYCLES,
                       MIN_WINDOW_CYCLES, TimelineRecorder,
                       resolve_timeline, timeline_enabled,
                       timeline_window)

__all__ = [
    "TelemetryCollector", "resolve_collector", "telemetry_enabled",
    "ring_capacity", "DEFAULT_RING_CAPACITY", "MAX_RING_CAPACITY",
    "OUTCOMES", "TIMELY", "LATE", "EARLY", "REDUNDANT", "DROPPED",
    "UNUSED",
    "TimelineRecorder", "resolve_timeline", "timeline_enabled",
    "timeline_window", "DEFAULT_WINDOW_CYCLES", "MIN_WINDOW_CYCLES",
    "DEFAULT_SAMPLE_EVERY",
    "SpanRecorder", "recording", "span", "active_recorder",
]
