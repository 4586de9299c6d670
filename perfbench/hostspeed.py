"""Host-speed probe: a fixed pure-Python workload timed beside the
measured work, on the same CPU, so that timings can be reported in a
unit that does not drift with the speed of a shared host.

The benchmark's machine is a few virtual CPUs of a shared host whose
speed, per CPU, swings by 1.5-2x over seconds to minutes as other
tenants come and go.  A timing divided by the slowdown the probe
measured around it (just before and after it, or over the whole run
where the measured work never pauses) cancels most of that swing,
while any change to the program moves it fully: the probe imports
nothing from the program.

The probe has two parts: interpreter-style register traffic that
stays in the core's caches, and random reads over a ~40 MB table.  Some
slow phases slow the core (a busy sibling thread, a lower clock), some
slow memory (other tenants' traffic), and the programs measured here
are interpreters with much memory traffic, between the two.  The
probe's slowdown is the geometric mean of the two parts' slowdowns
against their nominal times, so each kind of phase counts half.

The probe runs in a helper process pinned to the measured CPU, so its
table adds nothing to the benchmark's own memory.  A normalised time
reads as seconds on a host where both parts take their nominal time.
The raw timings and the median slowdown are printed beside the
normalised ones.

Run as a script, this file is the helper: it answers each line on its
standard input with the seconds the two parts of one probe took.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time

#: Seconds each part of one probe takes on the reference host (one
#: vCPU of a shared Intel Xeon server, CPython 3.11, between measured
#: operations); fixed constants, so normalised times compare across
#: runs and commits.
NOMINAL_SPIN_S = 0.00125
NOMINAL_WALK_S = 0.004
#: Probe size: register-machine rounds and table reads per probe.
SPIN_ROUNDS = 150
WALK_STEPS = 5000
#: Table entries for the walk (a list and a dict of this many ints).
TABLE_SIZE = 1 << 19

_CODE = tuple((i % 5, i % 16, (i * 7) % 16) for i in range(64))


def _spin(rounds: int) -> int:
    """A tiny register machine: list and dict traffic, branches and
    integer arithmetic, like the interpreters the benchmark times."""
    regs = [0] * 16
    mem: dict[int, int] = {}
    acc = 0
    for step in range(rounds):
        for op, a, b in _CODE:
            if op == 0:
                regs[a] = regs[b] + step
            elif op == 1:
                mem[(regs[a] * 2654435761) & 4095] = b
            elif op == 2:
                acc += mem.get(regs[b] & 4095, 0)
            elif op == 3:
                regs[a] ^= (regs[b] << 1) & 0xFFFF
            else:
                acc += len(_CODE) - a
    return acc


def make_table(size: int = TABLE_SIZE) -> tuple[list[int], dict]:
    """The walk's table: a list of seeded ints and a dict over them."""
    rng = random.Random(1)
    values = [rng.randrange(1 << 30) for _ in range(size)]
    return values, {i * 7919: v for i, v in enumerate(values)}


def _walk(table: tuple[list[int], dict], steps: int) -> int:
    """Pseudo-random reads over the table's list and dict."""
    values, index = table
    mask = len(values) - 1
    at = acc = 1
    for _ in range(steps):
        at = (at * 1103515245 + 12345) & mask
        acc += values[at] + index.get(at * 7919, 0)
    return acc


def probe_once(table) -> tuple[float, float]:
    """Seconds the two parts of one probe take now, on this CPU."""
    start = time.perf_counter()
    _spin(SPIN_ROUNDS)
    middle = time.perf_counter()
    _walk(table, WALK_STEPS)
    return middle - start, time.perf_counter() - middle


def slowdown(spin_s: float, walk_s: float) -> float:
    """How many times slower than nominal one probe ran."""
    return math.sqrt(spin_s / NOMINAL_SPIN_S * walk_s / NOMINAL_WALK_S)


def factor(*slowdowns: float) -> float:
    """The host's slowdown over one measured interval: the mean of the
    probes taken around it."""
    return sum(slowdowns) / len(slowdowns)


class HostProbe:
    """The helper process; calling the object runs one probe in it and
    returns its slowdown.  Call only while the measured work is idle:
    the helper shares its CPU."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host-speed probe did not start")

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return slowdown(*map(float, self.proc.stdout.readline().split()))

    def median(self, count: int) -> float:
        """Median of ``count`` probes in a row."""
        return sorted(self() for _ in range(count))[count // 2]

    def close(self) -> None:
        """End the helper and wait for it."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def pin_to_worker_cpu() -> int:
    """Pin this process, and so everything it starts, to the CPU the
    serve pool's first worker pins itself to (CPU 0 where allowed):
    the probe then measures the CPU the measured work runs on."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = 0 if 0 in allowed else allowed[0]
    os.sched_setaffinity(0, {cpu})
    return cpu


def _serve() -> None:
    table = make_table()
    probe_once(table)
    print("ready", flush=True)
    for _ in sys.stdin:
        print(*probe_once(table), flush=True)


if __name__ == "__main__":
    _serve()
