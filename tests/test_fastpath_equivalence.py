"""Fast-path vs slow-path engine equivalence.

The fused-block interpreter plus the memory system's fast-path walks
(``REPRO_SIM_FASTPATH=1``, the default) must be *bit-identical* to the
reference per-instruction engine: same cycles, same instruction
counters, same cache/TLB/DRAM statistics, same memory contents.  These
tests drive randomized IR kernels and real workloads through both
engines on all four machine configurations and compare everything.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.ir import INT64, IRBuilder, Module, VOID, pointer,\
    verify_module
from repro.ir.values import Constant
from repro.machine import A53, A57, HASWELL, XEON_PHI, Interpreter
from repro.machine.fastexec import fastpath_enabled
from repro.machine.memory import Memory

ALL_MACHINES = (HASWELL, A57, A53, XEON_PHI)

#: Binary ops drawn by the random kernel generator (all inline-fused).
_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor", "shl", "ashr",
           "lshr", "smin")
_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ugt")


def build_random_kernel(seed: int, n: int = 512) -> Module:
    """A random loop kernel mixing ALU ops, loads, stores, prefetches.

    The loop walks ``i in [0, n)`` maintaining a pool of live values;
    each iteration applies a random chain of fusable operations with
    random indirect loads of ``a``/``b`` (indices masked into range),
    stores the final value to ``out[i]``, and occasionally prefetches a
    random future address.
    """
    rng = random.Random(seed)
    module = Module(f"random{seed}")
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("b", pointer(INT64)),
         ("out", pointer(INT64)), ("n", INT64)])
    a, bptr, out, nval = func.args
    for arg in (a, bptr, out):
        arg.array_size = Constant(INT64, n)
        arg.noalias = True

    b = IRBuilder()
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.set_insert_point(entry)
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), loop, exit_)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")

    mask = b.const(n - 1)
    pool = [i, b.const(rng.randrange(1, 100))]

    def pick():
        return rng.choice(pool)

    acc = b.load(b.gep(a, b.and_(pick(), mask, "ix"), "ap"), "av")
    pool.append(acc)
    for step in range(rng.randrange(6, 14)):
        kind = rng.random()
        if kind < 0.5:
            op = rng.choice(_BINOPS)
            rhs = b.const(rng.randrange(1, 8)) if op in ("shl", "ashr",
                                                         "lshr") \
                else pick()
            acc = getattr(b, op)(pick(), rhs, f"v{step}")
        elif kind < 0.65:
            cond = b.cmp(rng.choice(_PREDICATES), pick(), pick(),
                         f"c{step}")
            acc = b.select(cond, pick(), pick(), f"s{step}")
        elif kind < 0.85:
            src = rng.choice((a, bptr))
            idx = b.and_(pick(), mask, f"m{step}")
            acc = b.load(b.gep(src, idx, f"p{step}"), f"l{step}")
        else:
            idx = b.and_(b.add(pick(), b.const(rng.randrange(1, 64)),
                               f"f{step}"), mask, f"fm{step}")
            b.prefetch(b.gep(bptr, idx, f"fp{step}"))
            continue
        pool.append(acc)
    b.store(acc, b.gep(out, i, "op"))
    i_next = b.add(i, b.const(1), "i.next")
    b.br(b.cmp("slt", i_next, nval, "cond"), loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def build_nested_kernel(n: int = 256) -> Module:
    """Outer loop over ``i`` with a data-dependent single-block inner
    loop (``j`` up to ``i & 7``): the inner block branches back to
    itself, so one fused block is re-entered many times in a row."""
    module = Module("nested")
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("out", pointer(INT64)), ("n", INT64)])
    a, out, nval = func.args
    for arg in (a, out):
        arg.array_size = Constant(INT64, n)
        arg.noalias = True

    b = IRBuilder()
    entry = func.add_block("entry")
    outer = func.add_block("outer")
    inner = func.add_block("inner")
    latch = func.add_block("latch")
    exit_ = func.add_block("exit")
    mask = Constant(INT64, n - 1)

    b.set_insert_point(entry)
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), outer, exit_)

    b.set_insert_point(outer)
    i = b.phi(INT64, "i")
    limit = b.and_(i, b.const(7), "limit")
    b.jmp(inner)

    b.set_insert_point(inner)
    j = b.phi(INT64, "j")
    s = b.phi(INT64, "s")
    idx = b.and_(b.add(i, j, "ij"), mask, "idx")
    v = b.load(b.gep(a, idx, "ap"), "v")
    s2 = b.add(s, v, "s2")
    j2 = b.add(j, b.const(1), "j2")
    b.br(b.cmp("slt", j2, limit, "more"), inner, latch)
    j.add_incoming(b.const(0), outer)
    j.add_incoming(j2, inner)
    s.add_incoming(b.const(0), outer)
    s.add_incoming(s2, inner)

    b.set_insert_point(latch)
    b.store(s2, b.gep(out, i, "op"))
    i2 = b.add(i, b.const(1), "i2")
    b.br(b.cmp("slt", i2, nval, "cond"), outer, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i2, latch)

    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def run_engine(module: Module, machine, fastpath: bool, seed: int,
               n: int = 512):
    """Run a random kernel under one engine; returns (snapshot, out)."""
    mem = Memory(machine.line_size)
    data = np.random.default_rng(seed).integers(0, 1 << 40, 2 * n)
    a = mem.allocate(8, n, "a")
    a.fill(data[:n])
    barr = mem.allocate(8, n, "b")
    barr_vals = data[n:]
    barr.fill(barr_vals)
    out = mem.allocate(8, n, "out")
    interp = Interpreter(module, mem, machine=machine,
                         fastpath=fastpath)
    interp.run("kernel", [a.base, barr.base, out.base, n])
    return snapshot(interp), list(out.data)


def snapshot(interp: Interpreter) -> dict:
    """Every observable counter of a finished run."""
    return {
        "cycles": interp.core.cycles,
        "core_instructions": interp.core.instructions,
        "run_stats": dataclasses.asdict(interp.stats),
        "memory_system": interp.memory_system.snapshot(),
    }


class TestRandomKernelEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_on_random_kernels(self, machine, seed):
        module_slow = build_random_kernel(seed)
        module_fast = build_random_kernel(seed)
        slow, out_slow = run_engine(module_slow, machine, False, seed)
        fast, out_fast = run_engine(module_fast, machine, True, seed)
        assert fast == slow
        assert out_fast == out_slow


def run_nested(machine, fastpath: bool, yield_every: int = 0,
               n: int = 256):
    """Run :func:`build_nested_kernel`, whole or through
    ``run_stepped``; returns (snapshot, out)."""
    mem = Memory(machine.line_size)
    data = np.random.default_rng(7).integers(0, 1 << 40, n)
    a = mem.allocate(8, n, "a")
    a.fill(data)
    out = mem.allocate(8, n, "out")
    interp = Interpreter(build_nested_kernel(n), mem, machine=machine,
                         fastpath=fastpath)
    if yield_every:
        for _ in interp.run_stepped("kernel", [a.base, out.base, n],
                                    yield_every=yield_every):
            pass
    else:
        interp.run("kernel", [a.base, out.base, n])
    return snapshot(interp), list(out.data)


class TestSteppedEquivalence:
    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_nested_loop_stepped(self, machine):
        """A fused single-block inner loop ends bit-identical to the
        reference engine whether it runs whole or yields every 300
        instructions (the multicore scheduler's stepping)."""
        plain, out_plain = run_nested(machine, fastpath=False)
        whole, out_whole = run_nested(machine, fastpath=True)
        stepped, out_stepped = run_nested(machine, fastpath=True,
                                          yield_every=300)
        assert whole == plain
        assert stepped == plain
        assert out_whole == out_plain == out_stepped


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_integer_sort(self, machine, variant):
        from repro.workloads import IntegerSort
        snaps = []
        for fastpath in (False, True):
            wl = IntegerSort(num_keys=2500, num_buckets=1 << 14)
            module = wl.build_variant(variant)
            mem = Memory(machine.line_size)
            prepared = wl.prepare(mem)
            interp = Interpreter(module, mem, machine=machine,
                                 fastpath=fastpath)
            interp.run(wl.entry, prepared.args)
            prepared.validate()
            snaps.append(snapshot(interp))
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_hash_join_manual(self, machine):
        from repro.workloads import hj2
        snaps = []
        for fastpath in (False, True):
            wl = hj2(num_probes=2000, num_buckets=1 << 12)
            module = wl.build_variant("manual")
            mem = Memory(machine.line_size)
            prepared = wl.prepare(mem)
            interp = Interpreter(module, mem, machine=machine,
                                 fastpath=fastpath)
            interp.run(wl.entry, prepared.args)
            prepared.validate()
            snaps.append(snapshot(interp))
        assert snaps[0] == snaps[1]


#: Execution tiers of the engine, as the ``fastpath`` flag: the
#: reference engine and the fused fast path.
TIERS = (False, True)

#: Hand-written loops exercising whole-block terminators.
#:
#: ``swap``: ``%x``/``%y`` swap on every back edge, which sequential
#: phi copies would collapse to one value.
#: ``phi_cond``: the loop branches on ``%go``, a phi that the taken
#: edge's moves overwrite, so the branch must read it (value and ready
#: time) before the moves.
#: ``empty_const``: a constant-condition ``br`` in the entry, an empty
#: ``jmp``-only preheader and an empty latch whose constant-false ``br``
#: carries the back-edge moves.
TERMINATOR_KERNELS = {
    "swap": """
func @kernel(%a: i64*, %out: i64*, %n: i64) -> void {
entry:
  jmp loop
loop:
  %i = phi i64 [0, entry], [%i.next, loop]
  %x = phi i64 [1, entry], [%y, loop]
  %y = phi i64 [2, entry], [%x, loop]
  %p = gep i64* %a, %i
  %v = load i64* %p
  %s = add i64 %x, %v
  %q = gep i64* %out, %i
  store i64 %s, %q
  %i.next = add i64 %i, 1
  %c = cmp slt i64 %i.next, %n
  br %c, loop, exit
exit:
  ret
}
""",
    "phi_cond": """
func @kernel(%a: i64*, %out: i64*, %n: i64) -> void {
entry:
  jmp loop
loop:
  %i = phi i64 [0, entry], [%i.next, loop]
  %go = phi i1 [1, entry], [%more, loop]
  %p = gep i64* %a, %i
  %v = load i64* %p
  %q = gep i64* %out, %i
  store i64 %v, %q
  %i.next = add i64 %i, 1
  %more = cmp slt i64 %i.next, %n
  br %go, loop, exit
exit:
  ret
}
""",
    "empty_const": """
func @kernel(%a: i64*, %out: i64*, %n: i64) -> void {
entry:
  br 1, pre, exit
pre:
  jmp loop
loop:
  %i = phi i64 [0, pre], [%i.next, latch]
  %j = add i64 %i, 8
  %pf = gep i64* %a, %j
  prefetch i64* %pf
  %p = gep i64* %a, %i
  %v = load i64* %p
  %w = mul i64 %v, 3
  %q = gep i64* %out, %i
  store i64 %w, %q
  %i.next = add i64 %i, 1
  %c = cmp slt i64 %i.next, %n
  br %c, latch, exit
latch:
  br 0, exit, loop
exit:
  ret
}
""",
}


def run_terminator_kernel(name: str, machine, fastpath: bool,
                          yield_every: int = 0, n: int = 48):
    """Run one :data:`TERMINATOR_KERNELS` entry (``machine=None`` is
    functional mode); returns (observables, yielded core times, which
    blocks run as whole-block closures)."""
    from repro.ir import parse_module
    mem = Memory(machine.line_size if machine else 64)
    a = mem.allocate(8, n + 8, "a")
    a.fill([(i * 7919) % 1009 for i in range(n + 8)])
    out = mem.allocate(8, n + 1, "out")
    interp = Interpreter(parse_module(TERMINATOR_KERNELS[name]), mem,
                         machine=machine, fastpath=fastpath)
    times = list(interp.run_stepped("kernel", [a.base, out.base, n],
                                    yield_every=yield_every))
    whole = [term is None
             for _, term, _ in interp._compiled["kernel"].blocks]
    observed = {"run_stats": dataclasses.asdict(interp.stats),
                "out": list(out.data)}
    if machine is not None:
        observed.update(snapshot(interp))
    return observed, times, whole


class TestFusedTerminatorEquivalence:
    """Whole-block closures (branch timing, counters and parallel-copy
    phi moves compiled into the block) match the dispatch path."""

    @pytest.mark.parametrize("machine", (None,) + ALL_MACHINES,
                             ids=lambda m: m.name if m else "func")
    @pytest.mark.parametrize("name", sorted(TERMINATOR_KERNELS))
    def test_whole_run(self, name, machine):
        slow, _, slow_whole = run_terminator_kernel(name, machine, False)
        fast, _, fast_whole = run_terminator_kernel(name, machine, True)
        assert not any(slow_whole)
        # Every block but the last (``ret``) one is fused whole.
        assert fast_whole == [True] * (len(fast_whole) - 1) + [False]
        assert fast == slow

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("yield_every", (1, 7, 300))
    @pytest.mark.parametrize("name", sorted(TERMINATOR_KERNELS))
    def test_stepped(self, name, machine, yield_every):
        slow, slow_times, _ = run_terminator_kernel(
            name, machine, False, yield_every=yield_every)
        fast, fast_times, _ = run_terminator_kernel(
            name, machine, True, yield_every=yield_every)
        assert slow_times
        assert fast_times == slow_times
        assert fast == slow

    def test_phi_semantics(self):
        """The functional results themselves (not only tier agreement):
        the swap alternates, the lagging phi runs one extra iteration."""
        n = 48
        swap, _, _ = run_terminator_kernel("swap", None, True, n=n)
        a = [(i * 7919) % 1009 for i in range(n + 8)]
        assert swap["out"][:n] == [a[i] + (1 if i % 2 == 0 else 2)
                                   for i in range(n)]
        lag, _, _ = run_terminator_kernel("phi_cond", None, True, n=n)
        assert lag["out"] == a[:n + 1]


class TestCodeCacheBound:
    def test_cache_is_cleared_past_its_limit(self, monkeypatch):
        """Distinct sources (here: distinct prefetch distances) past the
        limit clear the code cache instead of growing it; runs compiled
        before and after a clear still match the reference engine."""
        from repro.ir import parse_module
        from repro.machine import fastexec
        monkeypatch.setattr(fastexec, "_CODE_CACHE", {})
        monkeypatch.setattr(fastexec, "_CODE_CACHE_LIMIT", 4)
        text = TERMINATOR_KERNELS["empty_const"]
        for distance in range(1, 13):
            module_text = text.replace("add i64 %i, 8",
                                       f"add i64 %i, {distance}")
            snaps = []
            for fastpath in TIERS:
                mem = Memory(HASWELL.line_size)
                a = mem.allocate(8, 64, "a")
                a.fill(list(range(64)))
                out = mem.allocate(8, 40, "out")
                interp = Interpreter(parse_module(module_text), mem,
                                     machine=HASWELL, fastpath=fastpath)
                interp.run("kernel", [a.base, out.base, 40])
                snaps.append((snapshot(interp), list(out.data)))
            assert snaps[0] == snaps[1]
            assert 0 < len(fastexec._CODE_CACHE) <= 4


class TestRunStateFreedByRefcount:
    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_memory_system_dies_without_gc(self, machine):
        """A fused closure must not sit in a reference cycle (it would
        keep the core, memory system and memory it binds alive until a
        full collection): with the collector off, the memory system
        dies as soon as the interpreter and its result are dropped."""
        import gc
        import weakref

        mem = Memory(machine.line_size)
        a = mem.allocate(8, 512, "a")
        barr = mem.allocate(8, 512, "b")
        out = mem.allocate(8, 512, "out")
        gc.collect()
        gc.disable()
        try:
            interp = Interpreter(build_random_kernel(0), mem,
                                 machine=machine, fastpath=True)
            result = interp.run("kernel",
                                [a.base, barr.base, out.base, 512])
            dead = weakref.ref(interp.memory_system)
            del interp, result
            assert dead() is None
        finally:
            gc.enable()


class TestTelemetryEquivalence:
    """Telemetry is observational: attaching a collector must leave
    every timing and architectural counter bit-identical, under both
    execution tiers (reference and fused fast path)."""

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_tier_telemetry_matrix(self, machine, variant):
        from repro.workloads import IntegerSort
        snaps = {}
        for fastpath in TIERS:
            for telemetry in (False, True):
                wl = IntegerSort(num_keys=2000, num_buckets=1 << 14)
                module = wl.build_variant(variant)
                mem = Memory(machine.line_size)
                prepared = wl.prepare(mem)
                interp = Interpreter(module, mem, machine=machine,
                                     fastpath=fastpath,
                                     telemetry=telemetry)
                result = interp.run(wl.entry, prepared.args)
                prepared.validate()
                if telemetry:
                    assert result.telemetry is not None
                else:
                    assert result.telemetry is None
                snaps[(fastpath, telemetry)] = snapshot(interp)
        base = snaps[(False, False)]
        for combo, snap in snaps.items():
            assert snap == base, f"diverged at {combo}"

    @pytest.mark.parametrize("machine", (HASWELL, XEON_PHI),
                             ids=lambda m: m.name)
    def test_manual_deep_chain_matrix(self, machine):
        from repro.workloads import hj8
        snaps = {}
        for fastpath in TIERS:
            for telemetry in (False, True):
                wl = hj8(num_probes=1200, num_buckets=1 << 11)
                module = wl.build_variant("manual")
                mem = Memory(machine.line_size)
                prepared = wl.prepare(mem)
                interp = Interpreter(module, mem, machine=machine,
                                     fastpath=fastpath,
                                     telemetry=telemetry)
                interp.run(wl.entry, prepared.args)
                prepared.validate()
                snaps[(fastpath, telemetry)] = snapshot(interp)
        base = snaps[(False, False)]
        for combo, snap in snaps.items():
            assert snap == base, f"diverged at {combo}"


class TestFastpathFlag:
    def test_env_flag_forces_slow_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        assert fastpath_enabled(None) is False
        interp = Interpreter(build_random_kernel(0), Memory(),
                             machine=HASWELL)
        assert interp.fastpath is False
        assert interp.memory_system.fastpath is False

    def test_env_flag_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_FASTPATH", raising=False)
        assert fastpath_enabled(None) is True

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        assert fastpath_enabled(True) is True
        interp = Interpreter(build_random_kernel(1), Memory(),
                             machine=HASWELL, fastpath=True)
        assert interp.fastpath is True
