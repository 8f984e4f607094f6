"""Asyncio HTTP/JSON front-end over :class:`~repro.api.engine.DebloatEngine`.

The first network surface of the serving tier: a minimal HTTP/1.1 layer on
``asyncio.start_server`` (no third-party server dependency) exposing the
engine's admission, health, and inspection machinery as thin routes over
the existing services.  Endpoints:

===========================  ================================================
``POST /v1/admit``           admit one workload (JSON body, see
                             :mod:`repro.serving.protocol`); 200 with the
                             :class:`AdmissionResult` payload
``POST /v1/admit_batch``     admit an ordered list in one request
``GET  /healthz``            engine health; 200 when every layer is ``ok``,
                             503 while degraded/recovering/draining
``GET  /metrics``            Prometheus text: request counters, shed/deadline
                             counters, admission latency histograms, live
                             queue depths and store counters
``POST /v1/evict``           evict a workload from its shard(s)
``GET  /v1/snapshot``        the federation snapshot (per-shard JSON view)
===========================  ================================================

**Backpressure is first-class.**  Admissions pass through a bounded gate
(``queue_bound``): when the number of admissions in flight behind HTTP
reaches the bound, new ones are *shed* with ``503`` + ``Retry-After``
instead of buffering without limit.  Each request carries a deadline
(``request_deadline_s`` default, per-request ``deadline_s`` override);
expiry resolves to ``504`` through the
:class:`~repro.errors.TicketTimeoutError` path - the ticket stays valid,
so the admission still commits in the background and a retry is served
from the store's recorded usage.

**Coalescing.**  Concurrent admits that arrive within
``coalesce_window_s`` of each other are drained by a pump task and
submitted back-to-back, where the queue server's ``batch_max`` drain
merges them into one :meth:`DebloatStore.admit_many` union pass per
shard - one delta locate/compact per grown library instead of one per
request.  End state is byte-identical to sequential admission.

**Thread bridging.**  The engine's :class:`AdmissionTicket` resolves on a
``threading.Event``; handlers await it via ``loop.run_in_executor`` on a
waiter pool sized to the admission bound, so the event loop never blocks
on a worker thread.

**Graceful drain.**  ``SIGTERM``/``SIGINT`` (or :meth:`drain`) stops the
listener, flushes the coalescing pump, closes the engine - whose server
``close()`` drains every queued ticket or fails it typed - and then waits
for the in-flight HTTP responses to flush: no request ever hangs.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from collections import deque
from dataclasses import dataclass, field

from repro.errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
    ServerClosedError,
    TicketTimeoutError,
    UsageError,
)
from repro.serving import protocol
from repro.serving.server import AdmissionTicket

logger = logging.getLogger("repro.serving.http")

#: Hard framing limits (independent of the configurable body cap).
_MAX_REQUEST_LINE = 8190
_MAX_HEADERS = 100

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


@dataclass
class _PendingAdmit:
    """One admit waiting in the coalescing window."""

    spec: object
    future: asyncio.Future
    enqueued_at: float


@dataclass
class _Response:
    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()
    #: Extra audit fields (workload id, provenance, waits) for the log.
    audit: dict = field(default_factory=dict)


def _json_body(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _error_response(
    status: int, exc: BaseException, **headers: str
) -> _Response:
    return _Response(
        status,
        _json_body({"error": str(exc), "type": type(exc).__name__}),
        headers=tuple(
            (k.replace("_", "-"), v) for k, v in headers.items()
        ),
        audit={"outcome": f"error:{type(exc).__name__}"},
    )


def _status_for_error(exc: BaseException) -> int:
    if isinstance(exc, TicketTimeoutError):
        return 504
    if isinstance(exc, ServerClosedError):
        return 503
    if isinstance(exc, UsageError):  # includes ProtocolError
        return 400
    if isinstance(exc, (AdmissionError, ReproError)):
        return 500
    return 500


class DebloatHttpServer:
    """The asyncio front-end (one per engine; see module docstring)."""

    def __init__(self, engine, config=None) -> None:
        from repro.api.config import HttpConfig

        self.engine = engine
        self.config = config if config is not None else HttpConfig()
        self.metrics = protocol.MetricsRegistry()
        self._describe_metrics()
        #: Structured per-request audit trail (most recent last); every
        #: record is also emitted through the ``repro.serving.http``
        #: logger as one JSON line.
        self.audit: deque[dict] = deque(maxlen=self.config.audit_log_size)
        self._request_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._listener: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task | None = None
        self._admit_queue: asyncio.Queue = asyncio.Queue()
        #: Admissions currently behind HTTP (window + queue + executing);
        #: the backpressure gate sheds beyond ``queue_bound``.
        self._inflight = 0
        #: Requests between read and fully-written response; drain waits
        #: for this to hit zero before cutting idle keep-alive readers.
        self._active_requests = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._closing = False
        self._drained = False
        self._waiters = ThreadPoolExecutor(
            max_workers=max(2, self.config.queue_bound),
            thread_name_prefix="http-ticket-wait",
        )
        self.address: tuple[str, int] | None = None

    def _describe_metrics(self) -> None:
        m = self.metrics
        m.describe("http_requests_total",
                   "HTTP requests by method, path, and status")
        m.describe("admissions_served_total",
                   "admissions answered 200 over HTTP")
        m.describe("admissions_shed_total",
                   "admissions rejected 503 by the backpressure gate")
        m.describe("admissions_deadline_total",
                   "admissions answered 504 after their deadline")
        m.describe("admissions_failed_total",
                   "admissions answered with a non-shed error")
        m.describe("coalesce_batches_total",
                   "coalescing-window flushes toward the queue server")
        m.describe("coalesced_admissions_total",
                   "admissions submitted through the coalescing window")
        m.describe("queued", "tickets not yet dequeued by a worker")
        m.describe("in_flight", "unresolved admission tickets")
        m.describe("http_inflight",
                   "admissions currently held behind HTTP")
        m.describe("admission_latency_seconds",
                   "submit-to-resolution admission latency")
        m.describe("admission_queue_wait_seconds",
                   "coalescing-window + submit wait ahead of admission")
        m.describe("serving_wal_appended",
                   "write-ahead log records appended since open")
        m.describe("serving_wal_lag",
                   "WAL records not yet folded into a checkpoint")
        m.describe("serving_wal_failures",
                   "WAL appends that failed (the mutation was rolled back)")
        m.describe("serving_wal_quarantined_bytes",
                   "torn WAL tail bytes quarantined during recovery")
        m.describe("serving_wal_replayed",
                   "WAL records replayed by the last recovery")
        m.describe("serving_checkpoints_run",
                   "durability checkpoints completed")
        m.describe("serving_checkpoints_failed",
                   "durability checkpoints aborted by an error")
        m.describe("storage_blocks_total",
                   "content-addressed blocks resident in the shared store")
        m.describe("storage_bytes_physical",
                   "physical bytes resident across all blocks")
        m.describe("storage_bytes_logical",
                   "logical bytes referenced by live shard manifests")
        m.describe("storage_dedupe_ratio",
                   "logical over physical bytes (1.0 = no sharing)")
        m.describe("storage_evicted_bytes_total",
                   "physical bytes freed by block release since open")

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener and start the pump; returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self.engine.open()
        self.engine.server()  # fail fast on bad serving config
        self._pump_task = self._loop.create_task(self._pump())
        self._listener = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._listener.sockets[0]
        host, port = sock.getsockname()[:2]
        self.address = (host, port)
        logger.info("serving HTTP on %s:%d", host, port)
        return host, port

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush, close, flush responses.

        Reuses the engine/server ``close()`` semantics: every ticket still
        queued is drained by the workers (or failed typed), so every
        in-flight HTTP request gets a final response - nothing hangs.
        """
        if self._drained:
            return
        self._drained = True
        self._closing = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        await self._admit_queue.put(None)
        if self._pump_task is not None:
            await self._pump_task
        # Engine close joins worker threads after they drain the queue;
        # run it off-loop so ticket waiters keep resolving meanwhile.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.engine.close)
        # Every ticket is resolved now; wait for in-flight responses to
        # flush, then cut connections that are only idling in keep-alive.
        deadline = loop.time() + self.config.drain_timeout_s
        while self._active_requests and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
        self._waiters.shutdown(wait=False)
        logger.info("drained: %d audited requests", len(self.audit))

    async def serve_forever(self, announce=None) -> None:
        """Start, announce, serve until SIGTERM/SIGINT, then drain."""
        host, port = await self.start()
        if announce is not None:
            announce(host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.drain()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as exc:
                    await self._write_response(
                        writer, _error_response(exc.status, exc),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                started = time.perf_counter()
                self._active_requests += 1
                try:
                    response = await self._dispatch(request)
                    keep_alive = request.keep_alive and not self._closing
                    await self._write_response(
                        writer, response, keep_alive=keep_alive
                    )
                finally:
                    self._active_requests -= 1
                self._audit(request, response,
                            time.perf_counter() - started)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader) -> _HttpRequest | None:
        line = await reader.readline()
        if not line:
            return None
        if len(line) > _MAX_REQUEST_LINE:
            raise _FramingError(400, "request line too long")
        try:
            method, target, version = line.decode("ascii").split()
        except ValueError:
            raise _FramingError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise _FramingError(400, "too many headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _FramingError(400, f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _FramingError(501, "chunked bodies are not supported")
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise _FramingError(400, "bad Content-Length") from None
            if length < 0:
                raise _FramingError(400, "bad Content-Length")
            if length > self.config.max_body_bytes:
                raise _FramingError(413, "request body too large")
            body = await reader.readexactly(length)
        elif method == "POST":
            raise _FramingError(411, "POST requires Content-Length")
        keep_alive = (
            version != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        path = target.split("?", 1)[0]
        return _HttpRequest(method, path, headers, body, keep_alive)

    async def _write_response(
        self, writer, response: _Response, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode() + response.body
        )
        await writer.drain()

    def _audit(
        self, request: _HttpRequest, response: _Response, duration_s: float
    ) -> None:
        record = {
            "request_id": f"req-{next(self._request_ids)}",
            "method": request.method,
            "path": request.path,
            "status": response.status,
            "duration_s": round(duration_s, 6),
            **response.audit,
        }
        self.audit.append(record)
        logger.info("%s", json.dumps(record, sort_keys=True))
        self.metrics.inc(
            "http_requests_total",
            method=request.method,
            path=request.path,
            status=str(response.status),
        )

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest) -> _Response:
        routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/v1/snapshot"): self._handle_snapshot,
            ("POST", "/v1/snapshot/export"): self._handle_snapshot_export,
            ("POST", "/v1/admit"): self._handle_admit,
            ("POST", "/v1/admit_batch"): self._handle_admit_batch,
            ("POST", "/v1/evict"): self._handle_evict,
        }
        handler = routes.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _, path in routes}
            if request.path in known_paths:
                return _error_response(
                    405, ProtocolError(
                        f"{request.method} not allowed on {request.path}"
                    )
                )
            return _error_response(
                404, ProtocolError(f"no route {request.path}")
            )
        try:
            return await handler(request)
        except Exception as exc:  # noqa: BLE001 - boundary: never kill the conn
            status = _status_for_error(exc)
            if status >= 500:
                logger.exception("unhandled error on %s", request.path)
            return _error_response(status, exc)

    # -- endpoints -------------------------------------------------------------

    async def _handle_healthz(self, request: _HttpRequest) -> _Response:
        loop = asyncio.get_running_loop()
        health = await loop.run_in_executor(None, self.engine.health)
        ok = protocol.health_is_ok(health) and not self._closing
        if self._closing:
            health = {**health, "state": "draining"}
        return _Response(
            200 if ok else 503, _json_body(health),
            audit={"outcome": health.get("state", "unknown")},
        )

    async def _handle_metrics(self, request: _HttpRequest) -> _Response:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self.engine.stats)
        gauges = {
            f"serving_{name}": value
            for name, value in stats.items()
            if isinstance(value, int)
        }
        gauges["http_inflight"] = self._inflight
        # The two queue-depth fields keep their distinct names all the
        # way out: "queued" (not yet dequeued) vs "in_flight"
        # (unresolved, including currently-admitting).
        for name in ("queued", "in_flight"):
            if name in stats:
                gauges[name] = stats[name]
        # Block-store gauges export under their own storage_* names (no
        # serving_ prefix); dedupe_ratio is the one float gauge.
        storage = await loop.run_in_executor(None, self.engine.storage_stats)
        gauges.update(storage)
        text = self.metrics.render(gauges)
        return _Response(
            200, text.encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_snapshot(self, request: _HttpRequest) -> _Response:
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(None, self.engine.snapshot)
        return _Response(
            200, _json_body(protocol.snapshot_to_payload(snapshot))
        )

    async def _handle_snapshot_export(
        self, request: _HttpRequest
    ) -> _Response:
        """Write a warm store snapshot to disk; body: ``{"directory"?}``.

        Without a directory the engine's configured
        ``snapshot_dir/federation`` is used (400 when neither is set).
        """
        body = protocol.decode_json(request.body) if request.body else {}
        if not isinstance(body, dict):
            raise ProtocolError("snapshot export body must be an object")
        directory = body.get("directory")
        if directory is not None and not isinstance(directory, str):
            raise ProtocolError("directory must be a string")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            None, lambda: self.engine.export_snapshot(directory)
        )
        payload = {
            "directory": result.value["directory"],
            "shards": [
                {
                    "framework": entry["framework"],
                    "file": entry["file"],
                    "generation": entry["generation"],
                    "bytes": entry["bytes"],
                }
                for entry in result.value["manifest"]["shards"]
            ],
            "wall_s": round(result.wall_s, 6),
        }
        return _Response(
            200, _json_body(payload),
            audit={"directory": result.value["directory"]},
        )

    async def _handle_evict(self, request: _HttpRequest) -> _Response:
        workload_id, framework = protocol.parse_evict(
            protocol.decode_json(request.body)
        )
        from repro.api.requests import EvictRequest

        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            None,
            lambda: self.engine.evict(
                EvictRequest(workload_id=workload_id, framework=framework)
            ),
        )
        payload = {
            "workload_id": workload_id,
            "evicted": {
                name: protocol.eviction_to_payload(res)
                for name, res in result.value.items()
            },
        }
        return _Response(
            200, _json_body(payload), audit={"workload_id": workload_id}
        )

    async def _handle_admit(self, request: _HttpRequest) -> _Response:
        spec, deadline = protocol.parse_admit(
            protocol.decode_json(request.body)
        )
        shed = self._shed_check(1)
        if shed is not None:
            return shed
        self._inflight += 1
        try:
            return await self._admit_via_pump(spec, deadline)
        finally:
            self._inflight -= 1

    async def _handle_admit_batch(self, request: _HttpRequest) -> _Response:
        specs, deadline = protocol.parse_admit_batch(
            protocol.decode_json(request.body)
        )
        shed = self._shed_check(len(specs))
        if shed is not None:
            return shed
        self._inflight += len(specs)
        try:
            if self._closing:
                raise ServerClosedError("server is draining")
            # Already a batch: submit back-to-back (no window wait); the
            # queue server's batch_max drain turns it into admit_many.
            server = self.engine.server()
            tickets = [server.submit(spec) for spec in specs]
            deadline_at = self._now() + (
                deadline if deadline is not None
                else self.config.request_deadline_s
            )
            results, failures, errors = [], [], []
            for spec, ticket in zip(specs, tickets):
                outcome = await self._await_ticket(ticket, deadline_at)
                if isinstance(outcome, BaseException):
                    errors.append(outcome)
                    failures.append({
                        "workload_id": spec.workload_id,
                        "error": str(outcome),
                        "type": type(outcome).__name__,
                    })
                else:
                    results.append(protocol.admission_to_payload(
                        outcome, latency_s=ticket.latency_s
                    ))
                    self._observe_ticket(ticket)
            # Partial success still reports 200 (per-item outcomes are in
            # the body); an all-failed batch takes the worst item status.
            status = 200 if results else max(
                (_status_for_error(exc) for exc in errors), default=200
            )
            if results:
                self.metrics.inc("admissions_served_total", len(results))
            if failures:
                self.metrics.inc("admissions_failed_total", len(failures))
            return _Response(
                status,
                _json_body({"results": results, "failed": failures}),
                audit={
                    "workloads": len(specs),
                    "outcome": "served" if not failures else "partial",
                },
            )
        finally:
            self._inflight -= len(specs)

    # -- admission plumbing ----------------------------------------------------

    def _now(self) -> float:
        assert self._loop is not None
        return self._loop.time()

    def _shed_check(self, n: int) -> _Response | None:
        """The backpressure gate: 503 + Retry-After instead of buffering."""
        if self._inflight + n > self.config.queue_bound:
            self.metrics.inc("admissions_shed_total", n)
            return _error_response(
                503,
                UsageError(
                    f"admission queue is full "
                    f"({self._inflight}/{self.config.queue_bound} in "
                    f"flight); retry later"
                ),
                Retry_After=str(self.config.retry_after_s),
            )
        return None

    async def _admit_via_pump(self, spec, deadline) -> _Response:
        if self._closing:
            raise ServerClosedError("server is draining")
        deadline_s = (
            deadline if deadline is not None
            else self.config.request_deadline_s
        )
        deadline_at = self._now() + deadline_s
        assert self._loop is not None
        item = _PendingAdmit(spec, self._loop.create_future(), self._now())
        await self._admit_queue.put(item)
        try:
            ticket = await asyncio.wait_for(
                item.future, deadline_at - self._now()
            )
        except asyncio.TimeoutError:
            self.metrics.inc("admissions_deadline_total")
            return _error_response(
                504,
                TicketTimeoutError(
                    f"admission of {spec.workload_id} still queued after "
                    f"{deadline_s}s"
                ),
            )
        queue_wait_s = self._now() - item.enqueued_at
        self.metrics.observe("admission_queue_wait_seconds", queue_wait_s)
        outcome = await self._await_ticket(ticket, deadline_at)
        if isinstance(outcome, TicketTimeoutError):
            self.metrics.inc("admissions_deadline_total")
            return _error_response(504, outcome)
        if isinstance(outcome, BaseException):
            self.metrics.inc("admissions_failed_total")
            return _error_response(_status_for_error(outcome), outcome)
        self._observe_ticket(ticket)
        self.metrics.inc("admissions_served_total")
        payload = protocol.admission_to_payload(
            outcome, latency_s=ticket.latency_s, queue_wait_s=queue_wait_s
        )
        return _Response(
            200, _json_body(payload),
            audit={
                "workload_id": outcome.workload_id,
                "cache": payload["cache_source"],
                "queue_wait_s": round(queue_wait_s, 6),
                "latency_s": payload.get("latency_s"),
                "generation": outcome.generation,
                "outcome": "served",
            },
        )

    async def _await_ticket(
        self, ticket: AdmissionTicket, deadline_at: float
    ):
        """Bridge the threading ticket into this coroutine.

        Returns the :class:`AdmissionResult` or the exception the wait
        produced (including :class:`TicketTimeoutError` on deadline) -
        returned, not raised, so batch handlers can keep iterating.
        """
        assert self._loop is not None
        timeout = max(0.0, deadline_at - self._now())
        try:
            return await self._loop.run_in_executor(
                self._waiters, ticket.result, timeout
            )
        except BaseException as exc:  # noqa: BLE001 - relayed per protocol
            return exc

    def _observe_ticket(self, ticket: AdmissionTicket) -> None:
        if ticket.latency_s is not None:
            self.metrics.observe("admission_latency_seconds",
                                 ticket.latency_s)

    async def _pump(self) -> None:
        """Drain the coalescing window into the queue server.

        One flush submits every admit collected within
        ``coalesce_window_s`` (capped at ``coalesce_max``) back-to-back,
        so a worker's ``batch_max`` drain picks them up as one
        ``admit_many`` batch.  The window only ever delays an admit by
        the window length; a lone admit in a quiet server flushes as
        soon as the window closes.
        """
        cfg = self.config
        stopping = False
        while not stopping:
            item = await self._admit_queue.get()
            if item is None:
                break
            batch = [item]
            if cfg.coalesce_window_s > 0 and cfg.coalesce_max > 1:
                deadline = self._now() + cfg.coalesce_window_s
                while len(batch) < cfg.coalesce_max:
                    remaining = deadline - self._now()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._admit_queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if nxt is None:
                        stopping = True
                        break
                    batch.append(nxt)
            self._flush(batch)
        # Drain stragglers that raced the stop sentinel.
        leftovers = []
        while True:
            try:
                nxt = self._admit_queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt is not None:
                leftovers.append(nxt)
        if leftovers:
            self._flush(leftovers)

    def _flush(self, batch: list[_PendingAdmit]) -> None:
        """Submit one coalesced batch; resolve each waiter to its ticket."""
        self.metrics.inc("coalesce_batches_total")
        self.metrics.inc("coalesced_admissions_total", len(batch))
        server = self.engine.server()
        for item in batch:
            if item.future.done():  # waiter gave up (deadline/cancel)
                continue
            try:
                ticket = server.submit(item.spec)
            except Exception as exc:  # noqa: BLE001 - relayed to the waiter
                item.future.set_exception(exc)
            else:
                item.future.set_result(ticket)


class _FramingError(Exception):
    """A malformed HTTP exchange (framing, not payload, problems)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def parse_http_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` -> (host, port).

    A bare or empty host binds loopback; ``negativa-ml serve --http
    0.0.0.0:8000`` opts into all interfaces explicitly.
    """
    text = text.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise UsageError(
            f"--http expects HOST:PORT or :PORT, got {text!r}"
        ) from None
    if not (0 <= port <= 65535):
        raise UsageError(f"--http port out of range: {port}")
    return host or "127.0.0.1", port


class BackgroundHttpServer:
    """Run a :class:`DebloatHttpServer` on a dedicated event-loop thread.

    The test/bench/example harness: ``with BackgroundHttpServer(engine,
    config) as bg:`` yields a bound server whose ``bg.port`` live clients
    (threads, subprocesses) can hit; exit drains gracefully.
    """

    def __init__(self, engine, config=None) -> None:
        self.server = DebloatHttpServer(engine, config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server.address is not None
        return self.server.address[1]

    @property
    def host(self) -> str:
        assert self.server.address is not None
        return self.server.address[0]

    def start(self) -> "BackgroundHttpServer":
        self._thread = threading.Thread(
            target=self._run, name="debloat-http", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self) -> None:
        """Drain the server and stop the loop thread (idempotent)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), loop
        )
        future.result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)

    def __enter__(self) -> "BackgroundHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
