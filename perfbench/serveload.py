"""The serve workloads: a ``repro serve`` subprocess driven over HTTP.

The load generator is one process with at most two keep-alive
connections; the server runs ``--workers 1 --log-format off`` on a
store inside the checkout.  Every 200 answer's ``result`` must be
byte-identical (canonical JSON) to a direct ``execute_request`` made
during set-up.  Generator, server and worker share one CPU, so the
host-speed probe, run while no request is in flight, measures the CPU
the requests are served on.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from hostspeed import HostProbe, factor
from ledger import canonical, due_latencies, median, nearest_rank
from tracer import Tracer

CONNECTIONS = 2
#: serve-hot: requests per connection between two host-speed probes,
#: answers per ``wall_s``, and the per-request latency limit for
#: ``within_slo_frac``.
HOT_ROUND = 50
HOT_BLOCK = 1000
HOT_SLO_MS = 25.0
#: serve-miss: offered rate, well below the one-worker saturation point
#: (~9/s of small misses) so that a slow host phase does not push the
#: queue towards saturation, and the per-request latency limit.
MISS_RATE_PER_S = 4.0
MISS_SLO_MS = 1000.0
#: serve-miss: a probe runs this long before a due time when nothing is
#: in flight.
MISS_PROBE_LEAD_S = 0.04
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Trace records per measured second the traced server must hold.
TRACE_BUFFER_PER_S = 20_000

#: Process ids in the ``GET /v1/trace/<id>`` document: server stage
#: spans on pid 1, worker-process spans on pid 2.
_SERVER_PID, _WORKER_PID = 1, 2
#: Server stages whose sum is the attributed part of a request's wall
#: time; compile and simulate happen inside "worker".
_TOP_STAGES = ("admission", "probe", "queue", "worker", "store")


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def request(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port)
        payload = json.dumps(body).encode() if body is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = (await self.reader.readline()).strip()
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length)
        return status, json.loads(raw) if raw else {}

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None


def _descendants(pid: int) -> list[int]:
    out, stack = [], [pid]
    while stack:
        parent = stack.pop()
        try:
            children = Path(
                f"/proc/{parent}/task/{parent}/children").read_text()
        except OSError:
            continue
        for child in map(int, children.split()):
            out.append(child)
            stack.append(child)
    return out


def _running(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


class ServerProcess:
    """``repro serve`` on a free port with a fresh store."""

    def __init__(self, root: Path, scratch: Path,
                 trace_buffer: int | None = None):
        self.store = tempfile.mkdtemp(prefix="store-", dir=scratch)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", "1", "--log-format", "off",
               "--cache-dir", self.store]
        if trace_buffer:
            cmd += ["--trace-buffer", str(trace_buffer)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.pids: list[int] = []
        banner = self.proc.stdout.readline()
        try:
            self.port = int(banner.split("listening on ")[1].split()[0]
                            .rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.close()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.pids = [self.proc.pid, *_descendants(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus its workers."""
        total_kb = 0
        for pid in self.pids:
            for line in Path(f"/proc/{pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        """Stop the server and wait until its workers have ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        for pid in self.pids[1:]:
            while _running(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.05)
        shutil.rmtree(self.store, ignore_errors=True)


# ---------------------------------------------------------------------------
# Set-up: direct reference answers.


def direct_results(requests: list[dict], tracer: Tracer) -> list[str]:
    """Canonical ``result`` of each request, run in-process."""
    from repro.serve.protocol import execute_request, normalize_request

    expected = []
    with tracer.installed():
        for run_id, request in enumerate(requests):
            tracer.run_id = run_id
            with tracer.span("op"):
                payload = execute_request(normalize_request(request))
            if payload.get("status") != "ok":
                raise RuntimeError(f"direct run failed: "
                                   f"{payload.get('error')}")
            expected.append(canonical(payload["result"]))
    return expected


def references(requests: list[dict], trace: bool) -> tuple:
    """Reference answers, plus in-process layer numbers when traced.

    Traced, the references are computed twice, untraced then traced:
    the two must agree exactly, and the time difference is the
    tracing overhead."""
    if trace:
        # One request of each kind first, so lazy imports land in
        # neither of the two passes being compared.
        firsts = {request["kind"]: request for request in requests}
        direct_results(list(firsts.values()), Tracer(timed=False))
    plain = Tracer(timed=False)
    start = time.perf_counter()
    expected = direct_results(requests, plain)
    plain_s = time.perf_counter() - start
    if not trace:
        return expected, {}, None
    tracer = Tracer(timed=True)
    start = time.perf_counter()
    again = direct_results(requests, tracer)
    traced_s = time.perf_counter() - start
    if again != expected or [r["digest"] for r in tracer.runs] != \
            [r["digest"] for r in plain.runs]:
        raise RuntimeError("traced references differ from untraced")
    layers = tracer.layers()
    layers["trace.overhead_s"] = traced_s - plain_s
    layers["trace.unattributed_s"] = traced_s - tracer.attributed()
    return expected, layers, tracer


# ---------------------------------------------------------------------------
# Per-request records → metrics.


class Record:
    """One timed request."""

    __slots__ = ("index", "due", "sent", "done", "ok", "request_id")

    def __init__(self, index: int, due: float):
        self.index, self.due = index, due
        self.sent = self.done = 0.0
        self.ok = False
        self.request_id = None


async def _send(conn: Connection, request: dict, expected: str | None,
                record: Record) -> None:
    record.sent = time.perf_counter()
    try:
        status, body = await conn.request("POST", "/v1/jobs", request)
    except (OSError, ValueError, IndexError,
            asyncio.IncompleteReadError):
        record.done = time.perf_counter()
        await conn.close()
        return
    record.done = time.perf_counter()
    record.ok = status == 200 and (
        expected is None or canonical(body.get("result")) == expected)
    record.request_id = body.get("request_id")


def request_stages(record: Record, doc: dict) -> dict[str, float]:
    """Exact stage times (ms) of one request from its trace document;
    ``unattributed`` is the client-side wall time (send to reply) minus
    the server's top-level stages."""
    stages: dict[str, float] = {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        name, ms = event["name"], event["dur"] / 1e3
        if event["pid"] == _SERVER_PID and name in _TOP_STAGES:
            stage = name
        elif event["pid"] == _WORKER_PID and name in ("build",
                                                      "compile_source"):
            stage = "compile"
        elif event["pid"] == _WORKER_PID and name == "simulate":
            stage = "simulate"
        else:
            continue
        stages[stage] = stages.get(stage, 0.0) + ms
    wall_ms = (record.done - record.sent) * 1e3
    stages["unattributed"] = wall_ms - sum(
        stages.get(s, 0.0) for s in _TOP_STAGES)
    return stages


async def _fetch_stages(port: int, records: list[Record]) -> list[dict]:
    """``GET /v1/trace/<id>`` for every answered request."""
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    todo = [r for r in records if r.ok and r.request_id]
    out: list[dict] = []

    async def fetch(conn: Connection, share: list[Record]) -> None:
        for record in share:
            status, doc = await conn.request(
                "GET", f"/v1/trace/{record.request_id}")
            if status != 200:
                raise RuntimeError(f"trace {record.request_id} missing "
                                   f"(HTTP {status})")
            out.append(request_stages(record, doc))

    try:
        await asyncio.gather(*(fetch(conn, todo[i::CONNECTIONS])
                               for i, conn in enumerate(conns)))
    finally:
        for conn in conns:
            await conn.close()
    return out


def _serve_layers(before: dict, after: dict, stages: list[dict]) -> dict:
    """Counter deltas over the timed phase plus stage percentiles."""
    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    hits, misses = delta("cas", "hits"), delta("cas", "misses")
    layers = {
        "serve.cas_hits": hits,
        "serve.coalesce_hits": delta("coalesce_hits"),
        "serve.jobs_executed": delta("jobs", "executed"),
        "serve.worker_restarts": delta("workers", "restarts"),
        "serve.shed": delta("jobs", "shed"),
        "serve.cas_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
    }
    samples: dict[str, list[float]] = {}
    for request in stages:
        for stage, ms in request.items():
            samples.setdefault(stage, []).append(ms)
    for stage, values in samples.items():
        layers[f"serve.{stage}_p50_ms"] = nearest_rank(values, 50)
        layers[f"serve.{stage}_p99_ms"] = nearest_rank(values, 99)
    return layers


async def _get_metrics(port: int) -> dict:
    conn = Connection(port)
    try:
        status, body = await conn.request("GET", "/metrics")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return body


def _latency_metrics(records: list[Record], latencies_ms: list[float],
                     slo_ms: float) -> dict:
    ok = [ms for r, ms in zip(records, latencies_ms) if r.ok]
    return {
        "latency_p50_ms": nearest_rank(ok, 50),
        "latency_p90_ms": nearest_rank(ok, 90),
        "within_slo_frac": sum(1 for ms in ok if ms <= slo_ms)
        / len(records),
    }


# ---------------------------------------------------------------------------
# Workloads.


def start_server(root: Path, scratch: Path, trace_buffer: int | None,
                 requests: list[dict], expected: list | None,
                 probe: HostProbe):
    """Set the server up ``SETUP_REPEATS`` times and keep the last.

    One set-up spawns ``repro serve``, waits until it listens, and
    primes it with ``requests`` (checked against ``expected`` when
    given).  Returns the server and each set-up's raw and normalised
    seconds."""
    async def prime(port: int) -> None:
        conn = Connection(port)
        try:
            for i, request in enumerate(requests):
                record = Record(i, 0.0)
                await _send(conn, request,
                            expected[i] if expected else None, record)
                if not record.ok:
                    raise RuntimeError(f"priming request {i} failed")
        finally:
            await conn.close()

    times = []
    for rep in range(SETUP_REPEATS):
        before = probe.median(3)
        start = time.perf_counter()
        server = ServerProcess(root, scratch, trace_buffer)
        try:
            asyncio.run(prime(server.port))
        except BaseException:
            server.close()
            raise
        took = time.perf_counter() - start
        times.append((took, took / factor(before, probe.median(3))))
        if rep < SETUP_REPEATS - 1:
            server.close()
    return server, times


def _setup_notes(setups: list[tuple[float, float]]) -> str:
    return f"raw: median set-up {median(r for r, _ in setups):.3f} s"


def serve_hot(seed: int, seconds: float, trace: bool, root: Path,
              scratch: Path) -> dict:
    """Closed loop over a warmed hot set: every timed request is a
    store hit."""
    hot = inputs.hot_set(seed)
    refs = references(hot, trace)
    with HostProbe() as probe:
        server, setups = start_server(
            root, scratch, int(TRACE_BUFFER_PER_S * seconds) if trace
            else None, hot, refs[0], probe)
        try:
            return asyncio.run(_serve_hot(server, seed, seconds, trace,
                                          hot, refs, setups, probe))
        finally:
            server.close()


async def _serve_hot(server, seed, seconds, trace, hot, refs,
                     setups, probe) -> dict:
    """Rounds of ``HOT_ROUND`` requests per connection with a host-speed
    probe between rounds, while nothing is in flight.  Times are
    normalised by the run's median probe: a round is too short for the
    two probes around it to say more than the run's median does."""
    expected, ref_layers, tracer = refs
    before = await _get_metrics(server.port)
    conns = [Connection(server.port) for _ in range(CONNECTIONS)]
    orders = []
    for k in range(CONNECTIONS):
        order = list(range(len(hot)))
        random.Random(f"{seed}:hot-order:{k}").shuffle(order)
        orders.append(order)
    records: list[Record] = []

    async def loop(k: int, first: int) -> list[Record]:
        done = []
        for i in range(first, first + HOT_ROUND):
            which = orders[k][i % len(hot)]
            record = Record(which, 0.0)
            await _send(conns[k], hot[which], expected[which], record)
            done.append(record)
        return done

    probes = [probe()]
    rounds, busy = 0, 0.0
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            done = await asyncio.gather(
                *(loop(k, rounds * HOT_ROUND) for k in range(CONNECTIONS)))
            busy += time.perf_counter() - start
            probes.append(probe())
            records.extend(r for share in done for r in share)
            rounds += 1
    finally:
        for conn in conns:
            await conn.close()
    after = await _get_metrics(server.port)
    rss = server.peak_rss_mb()

    slow = median(probes)
    norm_s = busy / slow
    latencies = [(r.done - r.sent) * 1e3 / slow for r in records]
    ok = sum(r.ok for r in records)
    out = {"attempted": len(records), "failed": len(records) - ok,
           "metrics": {
               "setup_s": median(norm for _, norm in setups),
               "wall_s": norm_s * HOT_BLOCK / len(records),
               "peak_rss_mb": rss,
               "req_per_s": ok / norm_s,
               **_latency_metrics(records, latencies, HOT_SLO_MS)},
           "notes": [f"serve-hot: {len(records)} requests over "
                     f"{len(hot)} hot keys in {rounds} rounds",
                     f"{_setup_notes(setups)}, {len(records) / busy:.1f}"
                     f" req/s, median host slowdown {slow:.3f}"]}
    if trace:
        stages = await _fetch_stages(server.port, records)
        out["layers"] = {**ref_layers,
                         **_serve_layers(before, after, stages),
                         "host.slowdown": slow}
        out["tracers"] = [tracer]
    return out


def serve_miss(seed: int, seconds: float, trace: bool, root: Path,
               scratch: Path) -> dict:
    """Open loop at a fixed rate; every request misses the store."""
    mix = inputs.miss_mix(seed, max(1, round(MISS_RATE_PER_S * seconds)))
    refs = references(mix, trace)
    with HostProbe() as probe:
        server, setups = start_server(
            root, scratch, 2 * len(mix) if trace else None,
            inputs.miss_warmup(seed), None, probe)
        try:
            return asyncio.run(_serve_miss(server, trace, mix, refs,
                                           setups, probe))
        finally:
            server.close()


async def _serve_miss(server, trace, mix, refs, setups, probe) -> dict:
    """Requests go out at their due times; just before each due time,
    when no request is in flight (server and worker idle), a host-speed
    probe runs.  Requests overlap, so probes cannot bracket each one:
    every latency is normalised by the median probe of the run."""
    expected, ref_layers, tracer = refs
    before = await _get_metrics(server.port)

    idle: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        idle.put_nowait(Connection(server.port))
    probes = [probe() for _ in range(3)]
    in_flight = 0
    start = time.perf_counter() + 0.05
    records = [Record(i, start + i / MISS_RATE_PER_S)
               for i in range(len(mix))]

    async def one(record: Record, conn: Connection) -> None:
        nonlocal in_flight
        try:
            await _send(conn, mix[record.index],
                        expected[record.index], record)
        finally:
            in_flight -= 1
            idle.put_nowait(conn)

    tasks = []
    for record in records:
        delay = record.due - MISS_PROBE_LEAD_S - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
            if in_flight == 0:
                probes.append(probe())
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await idle.get()
        in_flight += 1
        tasks.append(asyncio.create_task(one(record, conn)))
    await asyncio.gather(*tasks)
    while not idle.empty():
        await idle.get_nowait().close()
    probes += [probe() for _ in range(3)]
    after = await _get_metrics(server.port)
    rss = server.peak_rss_mb()

    raw_ms = [ms * 1e3 for ms in due_latencies(
        [r.due for r in records], [r.done for r in records])]
    slow = median(probes)
    latencies = [ms / slow for ms in raw_ms]
    # Wall time and rate are set by the offered rate, so stay raw.
    wall = max(r.done for r in records) - start
    ok = sum(r.ok for r in records)
    out = {"attempted": len(records), "failed": len(records) - ok,
           "metrics": {
               "setup_s": median(norm for _, norm in setups),
               "wall_s": wall,
               "peak_rss_mb": rss,
               "req_per_s": ok / wall,
               **_latency_metrics(records, latencies, MISS_SLO_MS)},
           "notes": [f"serve-miss: {len(records)} distinct requests at "
                     f"{MISS_RATE_PER_S:g}/s, {len(probes)} probes",
                     f"{_setup_notes(setups)}, latency p50 "
                     f"{nearest_rank(raw_ms, 50):.1f} ms, p90 "
                     f"{nearest_rank(raw_ms, 90):.1f} ms, median host "
                     f"slowdown {slow:.3f}"]}
    if trace:
        stages = await _fetch_stages(server.port, records)
        late = [(r.sent - r.due) * 1e3 for r in records]
        out["layers"] = {**ref_layers,
                         **_serve_layers(before, after, stages),
                         "loadgen.late_p99_ms": nearest_rank(late, 99),
                         "host.slowdown": slow}
        out["tracers"] = [tracer]
    return out
