"""Spans around calls into the program's public functions.

The tracer patches a fixed list of entry points from the outside and
restores them on exit; the program itself carries no benchmark code.
Spans stay in memory (name, start, end, parent, run id) until the
benchmark writes them out at the end of a run.

Every simulation's result is also captured, traced or not, so each run
yields a digest of its cycles, ``RunStats`` and
``memory_system.snapshot()``: two runs that should differ only in host
time must produce equal digests.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager

from ledger import digest

#: Layer spans the per-layer ledger sums, keyed by span name.
LAYER_SPANS = ("workloads.build", "passes.prefetch", "workloads.prepare",
               "machine.init", "machine.run", "workloads.validate",
               "frontend.compile", "passes.pipeline")


def machine_counts(result) -> dict:
    """Exact simulated counts of one ``Interpreter.run`` result."""
    snap = result.memory_system.snapshot()
    memory = snap["memory"]
    return {
        "sim_instructions": result.stats.instructions,
        "sim_cycles": result.cycles,
        "demand_accesses": memory["demand_accesses"],
        "l1_misses": snap["caches"][0]["stats"]["misses"],
        "llc_misses": snap["caches"][-1]["stats"]["misses"],
        "tlb_walks": snap["tlb"]["stats"]["misses"],
        "dram_accesses": snap["dram"]["stats"]["accesses"],
        "sw_prefetches": memory["sw_prefetches"],
        "hw_prefetch_fills": memory["hw_prefetch_fills"],
    }


def stats_digest(result) -> str:
    """Digest of everything a host-time-only change must not move."""
    return digest({"cycles": result.cycles,
                   "stats": dataclasses.asdict(result.stats),
                   "memory": result.memory_system.snapshot()})


class Tracer:
    """Patch the program's layer entry points for one phase.

    :param timed: record spans.  When false only the result capture
        on ``Interpreter.run`` is installed, which costs one extra call
        per simulation.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[dict] = []
        self.runs: list[dict] = []
        self.prefetches_inserted = 0
        self.run_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span (a no-op when untimed)."""
        if not self.timed:
            yield
            return
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None,
                           "parent": self._open[-1] if self._open
                           else None,
                           "run": self.run_id, **attrs})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    # -- patching -----------------------------------------------------

    def _wrapped(self, fn, name, after=None, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args) if attrs is not None else {}
            with tracer.span(name, **extra):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _targets(self):
        """``(owner, attribute, span name, after, attrs)`` to patch."""
        import repro.frontend
        import repro.workloads  # noqa: F401  (loads every subclass)
        from repro.machine.interpreter import Interpreter
        from repro.passes import IndirectPrefetchPass, PassManager
        from repro.workloads.base import Workload

        def capture(args, result):
            interp = args[0]
            if interp.machine is None:  # functional run: no timing
                return
            self.runs.append({
                "digest": stats_digest(result),
                "in_order": interp.machine.in_order,
                "counts": machine_counts(result)})

        targets = [(Interpreter, "run", "machine.run", capture,
                    lambda interp, *_: {"in_order": getattr(
                        interp.machine, "in_order", None)})]
        if not self.timed:
            return targets

        def count_prefetches(args, report):
            self.prefetches_inserted += report.num_prefetches

        def wrap_validate(args, prepared):
            prepared.validate = self._wrapped(prepared.validate,
                                              "workloads.validate")

        targets += [
            (Interpreter, "__init__", "machine.init", None, None),
            (IndirectPrefetchPass, "run", "passes.prefetch",
             count_prefetches, None),
            (PassManager, "run", "passes.pipeline", None, None),
            (repro.frontend, "compile_source", "frontend.compile",
             None, None)]
        stack = [Workload]
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if "build" in vars(cls):
                targets.append((cls, "build", "workloads.build",
                                None, None))
            if "prepare" in vars(cls):
                targets.append((cls, "prepare", "workloads.prepare",
                                wrap_validate, None))
        return targets

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, after, attrs in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrapped(original, name, after, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- ledger -------------------------------------------------------

    def seconds(self, name: str, **match) -> float:
        """Total duration of the spans called ``name`` (optionally
        only those whose attributes equal ``match``)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and all(s.get(k) == v for k, v in match.items()))

    def attributed(self) -> float:
        """Seconds covered by outermost layer spans: a layer span
        nested in another layer span is not counted twice."""
        layer = set(LAYER_SPANS)
        total = 0.0
        for s in self.spans:
            parent = s["parent"]
            if s["name"] in layer and (
                    parent is None
                    or self.spans[parent]["name"] not in layer):
                total += s["end"] - s["start"]
        return total

    def counts(self) -> dict:
        """Simulated counts summed over every captured run."""
        total: dict = {}
        for run in self.runs:
            for key, value in run["counts"].items():
                total[key] = total.get(key, 0) + value
        return total

    def layers(self) -> dict:
        """Per-layer ledger of this phase: host time per layer from
        the spans, exact simulated counts from the captured runs."""
        counts = self.counts()
        run_s = self.seconds("machine.run")
        instructions = counts.get("sim_instructions", 0)
        accesses = counts.get("demand_accesses", 0)
        out = {f"machine.{name}": value for name, value in counts.items()}
        out.update({
            "machine.init_s": self.seconds("machine.init"),
            "machine.run_s": run_s,
            "machine.run_ooo_s": self.seconds("machine.run",
                                              in_order=False),
            "machine.run_inorder_s": self.seconds("machine.run",
                                                  in_order=True),
            "machine.sim_ips": instructions / run_s if run_s else 0.0,
            "machine.host_ns_per_mem_access":
                run_s * 1e9 / accesses if accesses else 0.0,
            "workloads.build_s": self.seconds("workloads.build"),
            "workloads.prepare_s": self.seconds("workloads.prepare"),
            "workloads.validate_s": self.seconds("workloads.validate"),
            "passes.prefetch_s": self.seconds("passes.prefetch"),
            "passes.prefetches_inserted": self.prefetches_inserted,
            "passes.pipeline_s": self.seconds("passes.pipeline"),
            "frontend.compile_s": self.seconds("frontend.compile"),
        })
        return out

    def dump(self) -> dict:
        """The spans and per-run digests, JSON-safe."""
        return {"spans": self.spans,
                "runs": [{"digest": r["digest"], "in_order": r["in_order"]}
                         for r in self.runs]}
