"""Insert the archived benchmark tables into EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only`` or
``tools/load_test.py``; replaces each ``MEASURED_*`` placeholder (or a
previously inserted tagged block) with the corresponding table from
``benchmarks/results/``, or, for ``MEASURED_SERVE``, with the serving
table rendered from ``BENCH_serve_throughput.json``.  Idempotent:
re-running refreshes the blocks in place, so CI checks that a refresh
leaves EXPERIMENTS.md unchanged.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
TARGET = ROOT / "EXPERIMENTS.md"

#: placeholder -> result files (concatenated in order).
BLOCKS = {
    "MEASURED_FIG2": ["fig2_prefetch_schemes.txt"],
    "MEASURED_FIG4": ["fig4a_haswell.txt", "fig4b_a57.txt",
                      "fig4c_a53.txt", "fig4d_xeon_phi.txt"],
    "MEASURED_FIG5": ["fig5_stride_addition.txt"],
    "MEASURED_FIG6": ["fig6_lookahead.txt"],
    "MEASURED_FIG7": ["fig7_stagger_depth.txt"],
    "MEASURED_FIG8": ["fig8_instruction_overhead.txt"],
    "MEASURED_FIG9": ["fig9_bandwidth.txt"],
    "MEASURED_FIG10": ["fig10_hugepages.txt"],
    "MEASURED_ABLATIONS": ["ablation_scheduling.txt",
                           "ablation_guard_cost.txt"],
}

#: placeholder rendered from the serving BENCH file, not a table file.
SERVE_TAG = "MEASURED_SERVE"
SERVE_BENCH = ROOT / "BENCH_serve_throughput.json"


def render_serve() -> str:
    """The serving table, from ``BENCH_serve_throughput.json``."""
    if not SERVE_BENCH.exists():
        return f"(not yet measured: {SERVE_BENCH.name})"
    bench = json.loads(SERVE_BENCH.read_text())
    host, config, res = bench["host"], bench["config"], bench["results"]
    lat = res["latency_ms"]
    requests = config["requests"]
    lines = [
        f"{SERVE_BENCH.name}: git {host['git_sha']}, "
        f"{host['timestamp_utc']}, Python {host['python']}, "
        f"{host['cpu_count']} CPU",
        f"mix: {requests} requests, {config['unique']} unique jobs "
        f"(+{config.get('twins', 0)} look-ahead twins), "
        f"concurrency {config['concurrency']}, "
        f"{'small' if config['small'] else 'full'} sizes, "
        f"{config['server_workers']} pool worker(s)",
        "",
        f"{'answered 200':<30}{res['ok']}/{requests} "
        f"({res['mismatches']} mismatches, {res['errors']} errors)",
        f"{'throughput':<30}{res['requests_per_s']} req/s "
        f"(wall {res['wall_s']} s)",
        f"{'simulations + coalesce + CAS':<30}"
        f"{res['jobs_executed']} + {res['coalesce_hits']} + "
        f"{res['cas_hits']} = "
        f"{res['jobs_executed'] + res['coalesce_hits'] + res['cas_hits']}",
        f"{'latency p50 / p95 / p99':<30}{lat['p50']:.1f} / "
        f"{lat['p95']:.1f} / {lat['p99']:.1f} ms",
        "",
        f"{'stage':<12}{'count':>7}{'p50 ms':>11}{'p99 ms':>11}"
        f"{'max ms':>11}",
    ]
    for stage, row in res["stage_latency_ms"].items():
        lines.append(f"{stage:<12}{row['count']:>7}{row['p50']:>11.3f}"
                     f"{row['p99']:>11.3f}{row['max']:>11.3f}")
    if "traces" in res:
        lines.append(f"(nearest-rank over {res['traces']} request "
                     f"traces; job stages count once per job)")
    return "\n".join(lines)


def render(tag: str) -> str:
    if tag == SERVE_TAG:
        body = render_serve()
    else:
        chunks = []
        for name in BLOCKS[tag]:
            path = RESULTS / name
            if not path.exists():
                chunks.append(f"(not yet measured: {name})")
            else:
                chunks.append(path.read_text().rstrip())
        body = "\n\n".join(chunks)
    return f"```text meas:{tag}\n{body}\n```"


def main() -> int:
    text = TARGET.read_text()
    for tag in [*BLOCKS, SERVE_TAG]:
        replacement = render(tag)
        tagged = re.compile(
            rf"```text meas:{tag}\n.*?\n```", re.S)
        if tagged.search(text):
            text = tagged.sub(replacement.replace("\\", r"\\"), text)
        elif re.search(rf"^{tag}$", text, re.M):
            text = re.sub(rf"^{tag}$", replacement.replace("\\", r"\\"),
                          text, flags=re.M)
        else:
            print(f"warning: no slot for {tag} in EXPERIMENTS.md",
                  file=sys.stderr)
    TARGET.write_text(text)
    print(f"updated {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
