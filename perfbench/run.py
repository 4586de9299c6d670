#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 20 \
        --trace 0

Workloads: ``sim-cold`` (in-process simulation batch), ``serve-hot``
(closed loop of store hits against ``repro serve``) and ``serve-miss``
(open loop of distinct requests).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the traced variant and prints the
per-layer ledger.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; any wrong
answer makes the exit status 1.  Spans and digests of traced runs are
written under ``.perfbench/`` in the checkout.

The program runs as shipped: every ``REPRO_*`` variable is cleared
first, so the default (fused) execution tier is measured.  The
benchmark pins itself, and so every process it starts, to one CPU (the
one the serve pool's worker uses) and reports host-speed-normalised
times (see :mod:`hostspeed`); raw times are printed as notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import ledger
from hostspeed import pin_to_worker_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-cold", "serve-hot", "serve-miss")


def host_stamp(cleared: list[str]) -> dict:
    """What the numbers were measured on."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() \
                else "unknown"
        sha = ref[:12]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "cleared_env": cleared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    stamp = host_stamp(cleared)
    stamp["cpu"] = pin_to_worker_cpu()
    print("host " + json.dumps(stamp), flush=True)
    trace = bool(args.trace)
    if args.workload == "sim-cold":
        from simcold import sim_cold
        out = sim_cold(args.seed, args.seconds, trace)
    else:
        import serveload
        run = (serveload.serve_hot if args.workload == "serve-hot"
               else serveload.serve_miss)
        out = run(args.seed, args.seconds, trace, ROOT, scratch)

    for line in out["notes"]:
        print(line)
    if trace:
        unknown = sorted(set(out["layers"]) - set(ledger.PER_LAYER))
        if unknown:
            raise KeyError(f"unlisted per-layer metrics: {unknown}")
        values = dict.fromkeys(ledger.PER_LAYER, 0)
        values.update(out["layers"])
        metrics = ledger.metric_block(values, ledger.PER_LAYER)
        spans = scratch / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans, "w") as handle:
            json.dump([t.dump() for t in out["tracers"]], handle)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = ledger.metric_block(out["metrics"], ledger.END_TO_END)
    correct = out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
