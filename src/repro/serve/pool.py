"""Sharded process worker pool with per-request timeouts.

The service executes every job in a separate *worker process* (one per
pool slot, sharded across cores via CPU affinity where the platform
allows), because a simulation is seconds of pure Python — running it on
the event loop would stall every other client, and a thread would share
the GIL.  The pool differs from a stock ``ProcessPoolExecutor`` in the
one property serving needs: **a request that exceeds its deadline gets
its worker killed and respawned**, so a hung or runaway simulation can
never permanently occupy a slot.  (Stock executors cannot cancel a
running task; killing the process is the only reliable reclaim.)

Mechanics: each :class:`_Worker` is a child process on the other end of
a duplex pipe, looping ``recv → execute → send``.  The async side
submits through a thread pool sized to the worker count, and each of
its threads is bound to one worker for life, doing that worker's
blocking ``send``/``poll(timeout)``/``recv`` — so ``await
pool.run(...)`` composes with the event loop while the pipe I/O stays
simple and portable.  The thread pool's own queue is the only job
queue: a job waits there until a thread (and so its worker) is free.

The multiprocessing start method defaults to ``fork`` where available
(workers inherit the loaded interpreter — startup and respawn are
milliseconds); ``REPRO_SERVE_MP_CONTEXT=spawn`` switches to clean
re-imported children.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor


class JobTimeout(Exception):
    """The job exceeded its deadline; its worker was killed (HTTP 504)."""


class WorkerCrash(Exception):
    """The worker died mid-job; it was respawned (HTTP 500)."""


def _worker_main(conn, index: int) -> None:
    """Child process body: pin to a core shard, then serve jobs."""
    try:
        cpus = os.cpu_count() or 1
        os.sched_setaffinity(0, {index % cpus})
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass
    # Import here, not at module top: under the spawn start method the
    # child imports this module before repro's heavyweight packages.
    from ..telemetry.spans import SpanRecorder
    from .protocol import execute_request
    parent = os.getppid()
    while True:
        try:
            # Poll with a deadline rather than blocking in recv():
            # under fork, sibling workers inherit this pipe's parent
            # end, so EOF never arrives if the server dies — the ppid
            # check is what lets an orphaned worker notice and exit.
            if not conn.poll(1.0):
                if os.getppid() != parent:
                    break
                continue
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        # The server may wrap the job with an observability context
        # ({"_obs": {...}, "job": <canonical request>}); a traced job
        # executes under a SpanRecorder whose records travel back in
        # the out-of-band ``_trace`` section (the server strips it
        # before the payload reaches the CAS or any client).
        obs = None
        if isinstance(job, dict) and "_obs" in job:
            obs = job["_obs"]
            job = job["job"]
        recorder = (SpanRecorder()
                    if obs is not None and obs.get("trace") else None)
        try:
            out = execute_request(job, recorder=recorder)
        except BaseException as exc:
            out = {"schema": "repro-serve-result-v1", "status": "error",
                   "code": 500,
                   "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
        if recorder is not None and isinstance(out, dict):
            out["_trace"] = {
                "worker_spans": recorder.snapshot()["records"],
                "worker": index, "pid": os.getpid()}
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _default_context() -> multiprocessing.context.BaseContext:
    name = os.environ.get("REPRO_SERVE_MP_CONTEXT") or None
    if name is None:
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            return multiprocessing.get_context("spawn")
    return multiprocessing.get_context(name)


class _Worker:
    """One pool slot: a child process plus its pipe."""

    def __init__(self, ctx, index: int):
        self._ctx = ctx
        self.index = index
        self.conn = None
        self.process = None
        self.start()

    def start(self) -> None:
        self.conn, child = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_main, args=(child, self.index),
            name=f"repro-serve-worker-{self.index}", daemon=True)
        self.process.start()
        child.close()

    def restart(self) -> None:
        """Kill the child (it may be wedged mid-job) and respawn."""
        self.stop()
        self.start()

    def stop(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stubborn
                self.process.kill()
                self.process.join(timeout=2.0)


class WorkerPool:
    """Fixed-size pool of simulation workers with deadline enforcement."""

    def __init__(self, workers: int, context: str | None = None,
                 on_event=None):
        ctx = (multiprocessing.get_context(context) if context
               else _default_context())
        self.size = max(1, workers)
        #: Optional lifecycle callback ``on_event(event, **fields)``
        #: (worker_start / worker_restart / pool_close).  Called from
        #: whatever thread hits the event; implementations must be
        #: thread-safe and must never raise.
        self.on_event = on_event
        self._workers = [_Worker(ctx, i) for i in range(self.size)]
        for worker in self._workers:
            self._event("worker_start", worker=worker.index,
                        pid=worker.process.pid)
        # Exactly ``size`` threads, each claiming one worker as it
        # starts: a job picked up by a thread owns that thread's
        # worker, with no second hand-off queue.
        self._unbound = list(self._workers)
        self._bound = threading.local()
        self._threads = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="repro-serve-io",
            initializer=self._bind_thread)
        #: Workers killed for blowing their deadline (metrics).
        self.restarts = 0
        self._closing = False

    def _event(self, event: str, **fields) -> None:
        if self.on_event is not None:
            try:
                self.on_event(event, **fields)
            except Exception:  # pragma: no cover - observer bug
                pass

    def _recycle(self, worker: _Worker) -> None:
        """Respawn a dead or wedged worker — unless the pool is
        closing, when the pipe error *is* shutdown itself and a
        respawn would leak a fresh child past :meth:`close`."""
        if self._closing:
            raise WorkerCrash(f"pool is closing; worker "
                              f"{worker.index} not restarted")
        worker.restart()
        self.restarts += 1
        self._event("worker_restart", worker=worker.index,
                    pid=worker.process.pid)

    def _bind_thread(self) -> None:
        self._bound.worker = self._unbound.pop()

    def _submit_sync(self, payload: dict, enqueued: float,
                     timeout: float | None,
                     obs: dict | None = None) -> dict:
        """Blocking submit, run on a pool I/O thread.

        ``enqueued`` (``time.monotonic``) is stamped in :meth:`run`
        before the job enters the thread pool's queue: the queue wait
        is measured from it, and the deadline counts from it, so time
        a job spends queued behind other work counts against its
        budget and client-visible latency really is bounded by the
        advertised per-request deadline.
        """
        worker = self._bound.worker
        deadline = None if timeout is None else enqueued + timeout
        if obs is not None:
            # Queue wait plus trace context ride to the worker in an
            # ``_obs`` envelope; workers unwrap it (bare payloads — the
            # non-traced path and direct pool users — pass through
            # untouched, keeping the wire format backward-compatible).
            obs["queue_ms"] = (time.monotonic() - enqueued) * 1e3
            if obs.get("trace"):
                payload = {"_obs": {"trace": True,
                                    "request_id": obs.get("request_id")},
                           "job": payload}
        if deadline is not None and time.monotonic() >= deadline:
            # The budget burned down in the queue; the worker was
            # never touched, so there is nothing to recycle.
            raise JobTimeout(
                f"job spent its {timeout:.1f}s deadline queued "
                f"behind other work; retry when load drops")
        try:
            worker.conn.send(payload)
        except (BrokenPipeError, OSError):
            # The worker died idle (OOM-killed, operator signal):
            # one respawn-and-retry before giving up.
            self._recycle(worker)
            worker.conn.send(payload)
        try:
            if deadline is not None and \
                    not worker.conn.poll(
                        max(0.0, deadline - time.monotonic())):
                self._recycle(worker)
                raise JobTimeout(
                    f"job exceeded {timeout:.1f}s; worker "
                    f"{worker.index} was recycled")
            return worker.conn.recv()
        except (EOFError, OSError) as exc:
            self._recycle(worker)
            raise WorkerCrash(
                f"worker {worker.index} died mid-job") from exc

    async def run(self, payload: dict,
                  timeout: float | None = None,
                  obs: dict | None = None) -> dict:
        """Execute ``payload`` on a worker; raises :class:`JobTimeout`
        or :class:`WorkerCrash` on reclaim.  The deadline clock starts
        *now* (admission), not when an I/O thread picks the job up.

        ``obs`` (optional, mutated in place) is the observability
        context: on return ``obs["queue_ms"]`` holds the time from
        this call until a worker picked the job up, and
        ``obs["trace"] = True`` asks the worker to record execution
        spans (returned via the result's ``_trace`` section)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads, self._submit_sync, payload, time.monotonic(),
            timeout, obs)

    def close(self) -> None:
        """Stop every worker and the I/O threads.

        The closing flag goes up first: an I/O thread still blocked in
        ``poll``/``recv`` for an in-flight job sees its pipe die, and
        must report :class:`WorkerCrash` to its waiter rather than
        respawn a child after shutdown.
        """
        self._closing = True
        self._event("pool_close", workers=self.size)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.stop()
        self._threads.shutdown(wait=False, cancel_futures=True)
