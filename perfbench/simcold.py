"""sim-cold: a closed batch of simulations in this process.

Each batch makes the 28 ``run_variant(..., cache=False)`` calls of
:func:`inputs.sim_cold_batch`: seven kernels x {plain, auto} x
{Haswell, A53}.  Every run validates its architectural results, and
every run's stats digest must equal the first batch's, so repeated
batches are checked to simulate exactly the same thing.

Times are normalised by the host-speed probe (:mod:`hostspeed`) taken
between consecutive runs; raw times are printed as a note.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
from hostspeed import HostProbe, factor
from ledger import median, nearest_rank
from tracer import Tracer

#: Per-simulation latency limit for ``within_slo_frac``; the slowest
#: run (G500-s21) takes under 1 s on the reference host.
SLO_MS = 2500.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _batch(seed: int, tracer: Tracer, reference: list | None,
           probe: HostProbe) -> dict:
    """One timed batch; each op is one ``run_variant`` call, bracketed
    by host-speed probes that normalise its time."""
    from repro.bench.runner import run_variant

    latencies, norm_ms, probes = [], [], []
    oks, digests, names = [], [], []
    with tracer.installed():
        probes.append(probe())
        for run_id, (kernel, variant, machine) in enumerate(
                inputs.sim_cold_batch(seed)):
            tracer.run_id = run_id
            captured = len(tracer.runs)
            began = time.perf_counter()
            try:
                with tracer.span("op"):
                    run_variant(kernel, variant, machine, cache=False)
            except Exception:  # a validate() failure or a crash
                traceback.print_exc(file=sys.stderr)
                digest = None
            else:
                digest = (tracer.runs[-1]["digest"]
                          if len(tracer.runs) == captured + 1 else None)
            latencies.append((time.perf_counter() - began) * 1e3)
            probes.append(probe())
            norm_ms.append(latencies[-1] / factor(*probes[-2:]))
            oks.append(digest is not None and (
                reference is None or digest == reference[run_id]))
            digests.append(digest)
            names.append(f"{kernel.name}/{machine.name}/{variant}")
    return {"wall": sum(latencies) / 1e3, "norm_ms": norm_ms,
            "probes": probes, "oks": oks, "digests": digests,
            "names": names, "tracer": tracer}


def warm_up(seed: int) -> None:
    """Set-up: import the program and run the first kernel's four
    runs, so lazy imports and first-call costs land before timing."""
    from repro.bench.runner import run_variant
    for kernel, variant, machine in inputs.sim_cold_batch(seed)[:4]:
        run_variant(kernel, variant, machine, cache=False)


def timed_setup(seed: int) -> float:
    """Seconds one set-up takes in this process."""
    start = time.perf_counter()
    warm_up(seed)
    return time.perf_counter() - start


def setup_times(seed: int, probe: HostProbe) -> list[tuple[float, float]]:
    """This process's set-up, then the same set-up repeated in fresh
    processes (imports can happen only once per process); each as raw
    seconds and seconds normalised by three probes on either side."""
    times = []
    for rep in range(SETUP_REPEATS):
        before = probe.median(3)
        if rep == 0:
            took = timed_setup(seed)
        else:
            child = subprocess.run([sys.executable, __file__, str(seed)],
                                   capture_output=True, text=True,
                                   check=True, timeout=120)
            took = float(child.stdout.split()[-1])
        times.append((took, took / factor(before, probe.median(3))))
    return times


def sim_cold(seed: int, seconds: float, trace: bool) -> dict:
    """Batches until ``seconds`` have passed (at least one).  Traced,
    each untraced batch is followed by a traced one."""
    with HostProbe() as probe:
        setups = setup_times(seed, probe)
        plain, traced = [], []
        reference = None
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            plain.append(_batch(seed, Tracer(timed=False), reference,
                                probe))
            reference = reference or plain[0]["digests"]
            if trace:
                traced.append(_batch(seed, Tracer(timed=True), reference,
                                     probe))

    batches = plain + traced
    oks = [ok for b in batches for ok in b["oks"]]
    first = plain[0]
    # Each run's normalised time is its median over the batches; the
    # batch time is their sum and the latency percentiles are taken
    # over them, so a percentile always lands on the same run.
    per_run = [median(b["norm_ms"][i] for b in plain)
               for i in range(len(first["names"]))]
    wall_s = sum(per_run) / 1e3
    norm_all = [ms for b in plain for ms in b["norm_ms"]]
    slow = median(p for b in batches for p in b["probes"])
    out = {
        "attempted": len(oks), "failed": oks.count(False),
        "metrics": {
            "setup_s": median(norm for _, norm in setups),
            "wall_s": wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "req_per_s": len(per_run) / wall_s,
            "latency_p50_ms": nearest_rank(per_run, 50),
            "latency_p90_ms": nearest_rank(per_run, 90),
            "within_slo_frac":
                sum(1 for ms in norm_all if ms <= SLO_MS) / len(norm_all),
        },
        "notes": [f"sim-cold: {len(plain)} batches of "
                  f"{len(first['names'])} runs, seed {seed}",
                  f"raw: median batch {median(b['wall'] for b in plain):.3f}"
                  f" s, median set-up {median(r for r, _ in setups):.3f} s,"
                  f" median host slowdown {slow:.3f}"]
        + [f"digest {name} {digest}"
           for name, digest in zip(first["names"], first["digests"])],
        "tracers": [b["tracer"] for b in traced],
    }
    if trace:
        rows = []
        for b in traced:
            row = b["tracer"].layers()
            row["trace.unattributed_s"] = (b["wall"]
                                           - b["tracer"].attributed())
            rows.append(row)
        # Counts repeat exactly across batches; times take the median.
        out["layers"] = {}
        for name in rows[0]:
            values = [row[name] for row in rows]
            out["layers"][name] = (values[0] if len(set(values)) == 1
                                   else median(values))
        out["layers"]["trace.overhead_s"] = (
            median(sum(b["norm_ms"]) for b in traced)
            - median(sum(b["norm_ms"]) for b in plain)) / 1e3
        out["layers"]["host.slowdown"] = slow
    return out


if __name__ == "__main__":
    # One fresh-process set-up; prints its seconds.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(timed_setup(int(sys.argv[1])))
