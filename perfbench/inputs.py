"""Seeded inputs for every workload.

The seed is the only input the benchmark takes; everything the
program receives is generated here from it.  The same seed gives the
same kernels, request mixes, orders, lookaheads and compile sources.
"""

from __future__ import annotations

import random

SCHEMA = "repro-serve-request-v1"
MACHINES = ("Haswell", "A53")  # out-of-order, in-order
VARIANTS = ("plain", "auto")   # demand path, software-prefetch path
#: Serve workloads: the five small kernels whose simulations take
#: ~50-250 ms each, so one worker's saturation point stays near 9/s.
SERVE_WORKLOADS = ("is", "cg", "ra", "hj2", "hj8")
#: One serve-miss block: every (workload, variant, machine) once, plus
#: compile requests, so each block holds 80% simulate, 20% compile.
COMPILES_PER_BLOCK = 5


def sim_cold_batch(seed: int) -> list:
    """The 28 ``(workload, variant, machine)`` runs of one sim-cold
    batch over fresh kernel instances built with ``seed`` (the suite's
    small sizes).  The four runs of a kernel share its instance, in
    the order the figure harnesses use."""
    from repro.machine.configs import system_by_name
    from repro.workloads import (ConjugateGradient, Graph500,
                                 IntegerSort, RandomAccess, hj2, hj8)

    kernels = [
        IntegerSort(num_keys=2_000, num_buckets=1 << 16, seed=seed),
        ConjugateGradient(nrows=200, row_nnz=10, x_size=1 << 13,
                          seed=seed),
        RandomAccess(nblocks=10, table_size=1 << 15, seed=seed),
        hj2(num_probes=2_000, num_buckets=1 << 13, seed=seed),
        hj8(num_probes=1_000, num_buckets=1 << 11, seed=seed),
        Graph500(scale=9, edge_factor=8, label="G500-s16", seed=seed),
        Graph500(scale=11, edge_factor=8, label="G500-s21", seed=seed),
    ]
    machines = [system_by_name(name) for name in MACHINES]
    return [(kernel, variant, machine) for kernel in kernels
            for machine in machines for variant in VARIANTS]


def _simulate(workload: str, variant: str, machine: str,
              lookahead: int) -> dict:
    return {"schema": SCHEMA, "kind": "simulate", "workload": workload,
            "small": True, "variant": variant, "machine": machine,
            "lookahead": lookahead, "validate": True}


def _combos() -> list[tuple]:
    return [(w, v, m) for w in SERVE_WORKLOADS for v in VARIANTS
            for m in MACHINES]


def hot_set(seed: int) -> list[dict]:
    """The serve-hot working set: every (workload, variant, machine)
    once, with seeded lookaheads, in seeded order.  Covering every
    combination keeps the stored results' sizes, and the worker's
    memory while priming them, the same for every seed."""
    rng = random.Random(f"{seed}:hot")
    hot = [_simulate(*combo, lookahead=rng.randint(8, 256))
           for combo in _combos()]
    rng.shuffle(hot)
    return hot


def compile_source(rng: random.Random, tag: str) -> str:
    """One C-like indirect kernel: a chain of 1-3 index loads feeding
    a scatter, a gather or a hashed update."""
    depth = rng.randint(1, 3)
    names = rng.sample("abcdefgh", depth + 2)
    target, chain, other = names[0], names[1:depth + 1], names[-1]
    index = "i"
    for name in chain:
        index = f"{name}[{index}]"
    scale = rng.randint(3, 99_991)
    params = ", ".join(f"long* restrict {n}" for n in names)
    form = rng.choice(("scatter", "gather", "hash"))
    if form == "gather":
        return (f"long k_{tag}({params}, long n) {{\n"
                f"    long acc = 0;\n"
                f"    for (long i = 0; i < n; i++)\n"
                f"        acc += {target}[{index}] * {scale};\n"
                f"    return acc;\n}}\n")
    if form == "hash":
        mask = (1 << rng.randint(8, 16)) - 1
        body = f"{target}[({index} * {scale}) & {mask}] += 1;"
    else:
        body = f"{target}[{index}] += {other}[i] + {scale};"
    return (f"void k_{tag}({params}, long n) {{\n"
            f"    for (long i = 0; i < n; i++)\n"
            f"        {body}\n}}\n")


def miss_warmup(seed: int) -> list[dict]:
    """One request of each kind, distinct from every ``miss_mix``
    request (lookahead above its range), that loads the worker's lazily
    imported modules before the timed phase."""
    rng = random.Random(f"{seed}:warm")
    return [_simulate("is", "auto", "Haswell", lookahead=1024),
            {"schema": SCHEMA, "kind": "compile",
             "source": compile_source(rng, f"s{seed}warm"),
             "prefetch": True, "optimize": True, "lookahead": 1024}]


def miss_mix(seed: int, count: int) -> list[dict]:
    """``count`` pairwise-distinct requests in seeded order, built in
    blocks that each hold every (workload, variant, machine) once with
    a fresh lookahead, plus compile requests with generated sources."""
    rng = random.Random(f"{seed}:miss")
    combos = _combos()
    per_block = len(combos) + COMPILES_PER_BLOCK
    blocks = -(-count // per_block)
    lookaheads = {combo: rng.sample(range(1, 513), blocks)
                  for combo in combos}
    out: list[dict] = []
    for block in range(blocks):
        items = [_simulate(*combo, lookahead=lookaheads[combo][block])
                 for combo in combos]
        for i in range(COMPILES_PER_BLOCK):
            items.append({
                "schema": SCHEMA, "kind": "compile",
                "source": compile_source(rng, f"s{seed}b{block}c{i}"),
                "prefetch": True, "optimize": True,
                "lookahead": rng.randint(8, 256)})
        rng.shuffle(items)
        out.extend(items)
    return out[:count]
