"""Self-tests of the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import ledger  # noqa: E402
from serveload import Record, request_stages  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_nearest_rank_one_sample():
    for pct in (1, 50, 99, 100):
        assert ledger.nearest_rank([7.0], pct) == 7.0


def test_nearest_rank_two_samples():
    assert ledger.nearest_rank([9.0, 3.0], 50) == 3.0
    assert ledger.nearest_rank([9.0, 3.0], 51) == 9.0
    assert ledger.nearest_rank([9.0, 3.0], 99) == 9.0
    assert ledger.nearest_rank([], 99) == 0.0


def test_due_time_latency_charges_a_stall_to_later_requests():
    # One connection, requests due every 100 ms; the second reply
    # stalls for a second, so the two behind it are sent late.
    due = [0.0, 0.1, 0.2, 0.3]
    service = [0.05, 1.0, 0.05, 0.05]
    sent, done, free = [], [], 0.0
    for when, cost in zip(due, service):
        sent.append(max(when, free))
        free = sent[-1] + cost
        done.append(free)
    from_due = ledger.due_latencies(due, done)
    from_send = ledger.due_latencies(sent, done)
    assert from_due == pytest.approx([0.05, 1.0, 0.95, 0.9])
    assert from_send == pytest.approx([0.05, 1.0, 0.05, 0.05])
    assert ledger.nearest_rank(from_due, 50) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        ledger.due_latencies(due, done[:-1])


def test_unattributed_is_wall_minus_top_level_stages():
    record = Record(0, 0.0)
    record.sent, record.done = 1.0, 1.1  # 100 ms on the client
    doc = {"traceEvents": [
        {"ph": "X", "pid": 1, "name": "admission", "dur": 1000},
        {"ph": "X", "pid": 1, "name": "probe", "dur": 2000},
        {"ph": "X", "pid": 1, "name": "job_wait", "dur": 90000},
        {"ph": "X", "pid": 1, "name": "queue", "dur": 3000},
        {"ph": "X", "pid": 1, "name": "worker", "dur": 80000},
        {"ph": "X", "pid": 1, "name": "store", "dur": 4000},
        {"ph": "X", "pid": 2, "name": "build", "dur": 5000},
        {"ph": "X", "pid": 2, "name": "simulate", "dur": 70000},
        {"ph": "M", "pid": 2, "name": "process_name"}]}
    stages = request_stages(record, doc)
    assert stages["compile"] == 5.0
    assert stages["simulate"] == 70.0
    assert "job_wait" not in stages
    assert stages["unattributed"] == pytest.approx(10.0)


def test_host_slowdown_weighs_core_and_memory_equally():
    nominal = (hostspeed.NOMINAL_SPIN_S, hostspeed.NOMINAL_WALK_S)
    assert hostspeed.slowdown(*nominal) == pytest.approx(1.0)
    # Twice as slow in one part only: sqrt(2) either way.
    assert hostspeed.slowdown(2 * nominal[0], nominal[1]) == \
        pytest.approx(2 ** 0.5)
    assert hostspeed.slowdown(nominal[0], 2 * nominal[1]) == \
        pytest.approx(2 ** 0.5)
    assert hostspeed.factor(1.0, 2.0) == pytest.approx(1.5)


def test_host_probe_helper_answers_and_exits():
    with hostspeed.HostProbe() as probe:
        assert probe() > 0
        assert probe.median(3) > 0
        proc = probe.proc
    assert proc.poll() is not None


def _traced_kernel_runs(seed: int) -> Tracer:
    from repro.bench.runner import run_variant

    tracer = Tracer(timed=True)
    with tracer.installed():
        for kernel, variant, machine in inputs.sim_cold_batch(seed)[:4]:
            run_variant(kernel, variant, machine, cache=False)
    return tracer


def test_layer_counts_repeat_exactly_in_process():
    first, second = _traced_kernel_runs(5), _traced_kernel_runs(5)
    counted = [name for name, unit in ledger.PER_LAYER.items()
               if unit in ("count", "cycles")
               and name.startswith(("machine.", "passes."))]
    a, b = first.layers(), second.layers()
    assert {n: a[n] for n in counted} == {n: b[n] for n in counted}
    assert a["machine.sim_instructions"] > 0
    assert a["passes.prefetches_inserted"] > 0
    assert [r["digest"] for r in first.runs] == \
        [r["digest"] for r in second.runs]


def test_tracer_restores_the_program():
    from repro.machine.interpreter import Interpreter

    before = Interpreter.run
    with Tracer(timed=True).installed():
        assert Interpreter.run is not before
    assert Interpreter.run is before


def test_seeded_inputs_repeat_and_miss_requests_are_distinct():
    assert inputs.miss_mix(3, 100) == inputs.miss_mix(3, 100)
    assert inputs.hot_set(3) == inputs.hot_set(3)
    assert inputs.miss_mix(3, 100) != inputs.miss_mix(4, 100)
    mix = inputs.miss_mix(3, 100)
    assert len({ledger.canonical(r) for r in mix}) == len(mix)
    assert sum(r["kind"] == "compile" for r in mix) == 20


def test_catalogue_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        ledger.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        ledger.PER_LAYER
