"""Remote shard processes: DebloatStores behind a length-prefixed protocol.

One process can only hold so many debloated framework builds; this module
lets a :class:`~repro.api.federation.StoreFederation` push store shards
into **worker processes**.  Each worker (``python -m repro.serving.remote``)
hosts one :class:`~repro.serving.store.DebloatStore` per framework/build
fingerprint and speaks a minimal request/response protocol over its
stdin/stdout pipes: 4-byte little-endian length prefix + one RDBC container
(:func:`~repro.core.serialize.value_dumps`) per frame, so every message
inherits the container's magic/version/CRC checking and ships NumPy
payloads (usage unions, library extents) without copies through JSON.

Parent-side layers, bottom up:

* :class:`RemoteShardProcess` - one spawned worker + the framed transport.
  Every send/recv runs under a per-operation deadline (``select``-driven
  non-blocking pipe I/O), so a worker that wedges mid-frame surfaces as a
  timeout instead of blocking its caller forever.  Any transport failure
  (dead process, truncated frame, deadline expiry, injected
  ``remote.send``/``remote.recv`` fault) marks the process broken and
  raises :class:`~repro.errors.RemoteShardError` - a
  :class:`~repro.errors.TransientError`, so the serving tier's retry
  policy re-drives the call instead of surfacing a raw ``OSError``.
* :class:`RemoteShardSupervisor` - owns one worker slot: lazy spawn
  (``shard.spawn`` fault site), crash detection, and **warm restart**.
  Each worker journals every committed mutation to a write-ahead log in
  its own directory through the same
  :class:`~repro.serving.wal.DurabilityController` local shards use, and
  acknowledges a mutation only once its record is appended.  A
  replacement worker recovers on boot exactly as ``DebloatEngine.open()``
  does - newest checkpoint, then the WAL tail replayed through the warm
  pipeline cache (zero workload runs) - so a SIGKILLed shard comes back
  byte-identical to its last acknowledged state, and the parent only
  respawns.  Recovery time stays bounded: a worker checkpoints itself
  every :data:`CHECKPOINT_EVERY_RECORDS` journaled records and right
  after any boot that replayed records, and while it recovers it sends
  progress frames that renew the parent's boot deadline.  The supervisor also runs the liveness layer:
  :meth:`~RemoteShardSupervisor.heartbeat` probes the
  worker's ``ping`` op (``remote.heartbeat`` fault site), and a
  per-worker **circuit breaker** opens after a threshold of consecutive
  transport failures - calls fast-fail with :class:`RemoteShardError`
  for a cooldown, then one half-open probe either closes the breaker or
  re-opens it.  Fast-fails are transient, so the federation degrades
  the shard to ``recovering`` and serves last-good snapshots instead of
  stalling on a hung worker.
* :class:`RemoteStoreClient` - the duck-typed ``DebloatStore`` surface
  (``admit`` / ``admit_many`` / ``evict`` / ``snapshot`` / ``report`` /
  ``stats`` / ``export_state`` / ``import_state``) for one framework on
  one supervisor, so :class:`~repro.api.federation.FederationShard` fronts
  a local store and a remote worker interchangeably.
* :class:`RemoteShardPool` - N supervisors plus the :class:`HashRing`
  that consistently routes framework-build fingerprints onto them.

Workers deliberately do **not** activate ``REPRO_FAULT_PLAN``: the
instrumented boundary is the parent side (send/recv/spawn/snapshot.read),
and keeping workers fault-free makes injected-fault runs deterministic.
A worker activates a plan only when its spawn config names one
(``fault_plan``), which is how tests rehearse worker-side WAL faults.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from types import MappingProxyType

from repro.core import serialize
from repro.errors import (
    CacheDecodeError,
    FaultError,
    RemoteShardError,
    ReproError,
    TransientError,
    UsageError,
)
from repro.serving.store import (
    AdmissionResult,
    EvictionResult,
    StoreSnapshot,
)
from repro.testing import faults

#: Frame payload kinds (the RDBC container's ``kind`` field, checked on
#: both ends so a desynchronized stream fails loudly).
REMOTE_REQUEST_KIND = "remote_shard_request"
REMOTE_RESPONSE_KIND = "remote_shard_response"

_LEN = struct.Struct("<I")

#: Sanity bound on a single frame (a full paper-scale store image is far
#: below this; anything larger means a desynchronized stream).
MAX_FRAME_BYTES = 1 << 30


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def write_frame(stream, payload: dict, kind: str) -> None:
    """Serialize ``payload`` as one length-prefixed RDBC frame."""
    blob = serialize.value_dumps(payload, kind)
    stream.write(_LEN.pack(len(blob)) + blob)
    stream.flush()


def read_frame(stream, kind: str) -> dict:
    """Read one frame; raises ``EOFError`` on a closed/truncated stream."""
    header = _read_exact(stream, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CacheDecodeError(
            f"remote frame claims {length} bytes (stream desynchronized)"
        )
    return serialize.value_loads(_read_exact(stream, length), kind)


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError(
                f"remote stream closed with {remaining} of {n} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# result payloads (scalars; the heavyweight pieces live in serialize.py)
# ---------------------------------------------------------------------------


def admission_to_payload(result: AdmissionResult) -> dict:
    return {
        "workload_id": result.workload_id,
        "generation": result.generation,
        "new_kernels": result.new_kernels,
        "new_functions": result.new_functions,
        "recompacted": list(result.recompacted),
        "untouched": list(result.untouched),
        "added_libraries": list(result.added_libraries),
        "union_file_size": result.union_file_size,
        "union_file_size_after": result.union_file_size_after,
        "detection_run_s": result.detection_run_s,
        "locate_compact_s": result.locate_compact_s,
        "detection_cached": result.detection_cached,
        "duplicate": result.duplicate,
        "verification": serialize.verification_to_payload(
            result.verification
        ),
    }


def admission_from_payload(p: dict) -> AdmissionResult:
    return AdmissionResult(
        workload_id=p["workload_id"],
        generation=int(p["generation"]),
        new_kernels=int(p["new_kernels"]),
        new_functions=int(p["new_functions"]),
        recompacted=tuple(p["recompacted"]),
        untouched=tuple(p["untouched"]),
        added_libraries=tuple(p["added_libraries"]),
        union_file_size=int(p["union_file_size"]),
        union_file_size_after=int(p["union_file_size_after"]),
        detection_run_s=float(p["detection_run_s"]),
        locate_compact_s=float(p["locate_compact_s"]),
        detection_cached=bool(p["detection_cached"]),
        duplicate=bool(p["duplicate"]),
        verification=serialize.verification_from_payload(p["verification"]),
    )


def eviction_to_payload(result: EvictionResult) -> dict:
    return {
        "workload_id": result.workload_id,
        "generation": result.generation,
        "removed_admissions": result.removed_admissions,
        "recompacted": list(result.recompacted),
        "dropped_libraries": list(result.dropped_libraries),
    }


def eviction_from_payload(p: dict) -> EvictionResult:
    return EvictionResult(
        workload_id=p["workload_id"],
        generation=int(p["generation"]),
        removed_admissions=int(p["removed_admissions"]),
        recompacted=tuple(p["recompacted"]),
        dropped_libraries=tuple(p["dropped_libraries"]),
    )


def store_snapshot_to_payload(
    snap: StoreSnapshot, rows_token: str, rows: bool
) -> dict:
    """A snapshot *summary*: counts and reductions, not library bytes.

    Serving reads (``/v1/snapshot``, health aggregation, eviction
    accounting) only consume the summary; library bytes cross the
    boundary through store images (pull/push), never per read.
    ``rows_token`` names the reduction rows; with ``rows=False`` they are
    left out (``reductions`` is None) for a reader that already holds
    the rows under that token.
    """
    return {
        "generation": snap.generation,
        "workload_ids": list(snap.workload_ids),
        "union_kernels": snap.union_kernels,
        "union_functions": snap.union_functions,
        "rows_token": rows_token,
        "reductions": (
            [serialize.library_to_payload(r) for r in snap.reductions]
            if rows
            else None
        ),
    }


def store_snapshot_from_payload(p: dict, held_rows: tuple) -> StoreSnapshot:
    """Decode a summary; ``held_rows`` stands in for rows it left out."""
    reductions = (
        held_rows
        if p["reductions"] is None
        else tuple(serialize.library_from_payload(r) for r in p["reductions"])
    )
    return StoreSnapshot(
        generation=int(p["generation"]),
        workload_ids=tuple(p["workload_ids"]),
        libraries=MappingProxyType({}),
        union_kernels=int(p["union_kernels"]),
        union_functions=int(p["union_functions"]),
        reductions=reductions,
    )


_EMPTY_SNAPSHOT = StoreSnapshot(
    generation=0,
    workload_ids=(),
    libraries=MappingProxyType({}),
    union_kernels=0,
    union_functions=0,
    reductions=(),
)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


#: A worker checkpoints itself once its write-ahead logs hold this many
#: records, whether or not the engine checkpoints on a cadence, so a
#: respawned worker never has more than this to replay.  A record replays
#: at the cost of what it changed - a duplicate admit in about a
#: millisecond - while a checkpoint rewrites the whole image on the
#: request path (~0.6 s for two frameworks at scale 0.125), so steady
#: re-admission traffic is better served by rarer checkpoints.
CHECKPOINT_EVERY_RECORDS = 256


class _WorkerShard:
    """One framework's store inside a worker (the durability shard shape)."""

    remote = False

    def __init__(self, store) -> None:
        self.store = store


class ShardWorker:
    """The in-worker service: one store per framework, journaled to a WAL.

    ``config["directory"]`` holds the worker's ``wal/`` and
    ``checkpoint/`` trees.  The worker is the federation its
    :class:`~repro.serving.wal.DurabilityController` recovers and
    checkpoints (``shard`` / ``warm_shard`` / ``local_shards``), so every
    store journals its committed mutations from the first admission and
    :meth:`recover` rebuilds them after a restart.
    """

    #: Workers host no remote shards of their own.
    remote_pool = None

    def __init__(self, config: dict) -> None:
        from repro.serving.wal import DurabilityController

        self.name = config.get("name", "shard")
        self.scale = float(config["scale"])
        self.archs = tuple(int(a) for a in config["archs"])
        self.use_cache = bool(config.get("use_cache", True))
        self.durability = DurabilityController(
            config["directory"],
            fsync=config.get("fsync", "always"),
            fsync_batch_n=int(config.get("fsync_batch_n", 8)),
        )
        self._shards: dict[str, _WorkerShard] = {}
        #: Names this process's row tokens apart from any earlier boot's,
        #: so a client never keeps rows across a respawn.
        self._boot = os.urandom(8).hex()
        self._row_serial = 0
        #: framework -> (reductions tuple last summarised, its token).  A
        #: store reuses its tuple while no row changes, so identity says
        #: whether a client's rows are current.
        self._row_tokens: dict[str, tuple[tuple, str]] = {}

    def shard(self, framework_name: str) -> _WorkerShard:
        from repro.frameworks.catalog import get_framework
        from repro.serving.store import DebloatStore

        shard = self._shards.get(framework_name)
        if shard is None:
            framework = get_framework(
                framework_name, scale=self.scale, archs=self.archs
            )
            shard = _WorkerShard(
                DebloatStore(framework, use_cache=self.use_cache)
            )
            self._shards[framework_name] = shard
            self.durability.attach(shard)
        return shard

    def warm_shard(self, framework_name: str) -> int:
        return self._shards[framework_name].store.generation

    def local_shards(self) -> list[_WorkerShard]:
        return list(self._shards.values())

    def store(self, framework_name: str):
        return self.shard(framework_name).store

    def _existing(self, framework_name: str):
        """The framework's store if the worker hosts one (never creates)."""
        shard = self._shards.get(framework_name)
        return shard.store if shard is not None else None

    def recover(self, progress=None) -> dict:
        """Boot-time recovery: newest checkpoint plus the WAL tail.

        ``progress`` is called as recovery advances (see
        :meth:`DurabilityController.recover`).  A worker with no durable
        state of its own imports a snapshot an older release auto-exported
        into its directory, once.  Whatever recovery replayed or imported
        is folded into a fresh checkpoint before the worker serves, so a
        worker that crashes again never redoes that work.
        """
        report = self.durability.recover(self, progress)
        if not report["frameworks"]:
            report["legacy_imported"] = self._import_legacy()
        if report["replayed"] or report.get("legacy_imported"):
            if progress is not None:
                progress()
            self._checkpoint()
        return report

    def _import_legacy(self) -> list[str]:
        """Import a pre-WAL auto-export left at the directory's top level."""
        from repro.serving import snapshot as snapshots

        root = self.durability.root
        if not snapshots.snapshot_exists(root):
            return []
        try:
            payloads = snapshots.load_snapshot(root)
        except (ReproError, OSError) as exc:
            payloads = {}
            self._note(f"ignoring unreadable legacy snapshot in {root}", exc)
        imported = []
        for name, payload in sorted(payloads.items()):
            try:
                self.store(name).import_state(payload)
                imported.append(name)
            except (ReproError, OSError) as exc:
                self._note(f"skipping legacy {name} image in {root}", exc)
        if imported:
            print(
                f"[{self.name}] imported the legacy snapshot in {root} "
                f"({', '.join(imported)}); it is not read again",
                file=sys.stderr,
            )
        return imported

    def _note(self, what: str, exc: BaseException) -> None:
        print(
            f"[{self.name}] {what}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )

    def settle(self) -> None:
        """Between requests: checkpoint once the WALs hold enough records."""
        if self.durability.wal_lag() >= CHECKPOINT_EVERY_RECORDS:
            self._checkpoint()

    def _checkpoint(self) -> None:
        # A failed checkpoint leaves every record in the WAL, so it only
        # costs replay time: note it and carry on serving.
        try:
            self.durability.checkpoint(self)
        except (ReproError, OSError) as exc:
            self._note("checkpoint failed", exc)

    def close(self) -> None:
        self.durability.close()

    # -- request dispatch -----------------------------------------------------

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise UsageError(f"unknown remote op {op!r}")
        return handler(request)

    def _op_ping(self, request: dict) -> dict:
        return {"pid": os.getpid(), "frameworks": sorted(self._shards)}

    def _summary(self, request: dict) -> dict:
        """The store's current summary for the requesting client.

        Rows are left out when the request's ``rows`` token names the
        rows the store holds now.  The loop serves one request at a time,
        so after a mutation this is exactly its post-commit epoch.
        """
        name = request["framework"]
        store = self._existing(name)
        snap = store.snapshot() if store is not None else _EMPTY_SNAPSHOT
        held = self._row_tokens.get(name)
        if held is None or held[0] is not snap.reductions:
            self._row_serial += 1
            held = (snap.reductions, f"{self._boot}-{self._row_serial}")
            self._row_tokens[name] = held
        token = held[1]
        return store_snapshot_to_payload(
            snap, token, rows=request.get("rows") != token
        )

    def _op_admit(self, request: dict) -> dict:
        store = self.store(request["framework"])
        spec = serialize.spec_from_payload(request["spec"])
        result = store.admit(spec, verify=bool(request.get("verify")))
        return {
            "result": admission_to_payload(result),
            "summary": self._summary(request),
        }

    def _op_admit_many(self, request: dict) -> dict:
        store = self.store(request["framework"])
        specs = [
            serialize.spec_from_payload(p) for p in request["specs"]
        ]
        results = store.admit_many(specs, verify=bool(request.get("verify")))
        return {
            "results": [admission_to_payload(r) for r in results],
            "summary": self._summary(request),
        }

    def _op_evict(self, request: dict) -> dict:
        store = self.store(request["framework"])
        result = store.evict(request["workload_id"])
        return {
            "result": eviction_to_payload(result),
            "summary": self._summary(request),
        }

    def _op_reset(self, request: dict) -> dict:
        self.store(request["framework"]).reset()
        return {"summary": self._summary(request)}

    def _op_snapshot(self, request: dict) -> dict:
        return {"snapshot": self._summary(request)}

    def _op_stats(self, request: dict) -> dict:
        store = self._existing(request["framework"])
        return {"stats": dict(store.stats()) if store is not None else {}}

    def _op_report(self, request: dict) -> dict:
        store = self.store(request["framework"])
        report = store.report(
            verify=request.get("verify"), strict=request.get("strict")
        )
        return {"report": serialize.multi_report_to_payload(report)}

    def _op_pull_state(self, request: dict) -> dict:
        return {"state": self.store(request["framework"]).export_state()}

    def _op_push_state(self, request: dict) -> dict:
        self.store(request["framework"]).import_state(request["state"])
        return {}

    def _op_checkpoint(self, request: dict) -> dict:
        return {"checkpoint": self.durability.checkpoint(self)}


def serve(worker: ShardWorker, inp, out) -> None:
    """The worker main loop: read a frame, dispatch, answer, repeat."""
    while True:
        try:
            request = read_frame(inp, REMOTE_REQUEST_KIND)
        except EOFError:
            return  # parent closed the pipe: clean shutdown
        if request.get("op") == "shutdown":
            write_frame(out, {"ok": True, "value": {}}, REMOTE_RESPONSE_KIND)
            return
        try:
            value = worker.handle(request)
            response = {"ok": True, "value": value}
        except Exception as exc:  # ship the failure, keep serving
            error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "transient": isinstance(exc, (TransientError, OSError)),
            }
            if isinstance(exc, FaultError):
                error.update(
                    site=exc.site, ordinal=exc.ordinal, kind=exc.kind
                )
            response = {"ok": False, "error": error}
        write_frame(out, response, REMOTE_RESPONSE_KIND)
        worker.settle()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2 or argv[0] != "--config":
        print("usage: python -m repro.serving.remote --config JSON",
              file=sys.stderr)
        return 2
    config = json.loads(argv[1])
    # The protocol owns fd 0/1; stray prints must not corrupt frames.
    inp = os.fdopen(os.dup(0), "rb", buffering=0)
    out = os.fdopen(os.dup(1), "wb", buffering=0)
    sys.stdout = sys.stderr
    if config.get("fault_plan"):
        faults.activate(faults.parse_plan(config["fault_plan"]))
    worker = ShardWorker(config)

    def booting() -> None:
        write_frame(out, {"progress": True}, REMOTE_RESPONSE_KIND)

    try:
        # Progress frames while recovery runs, then the boot handshake:
        # recovery finished, requests may flow.
        report = worker.recover(booting)
        write_frame(
            out,
            {"ok": True, "value": {"pid": os.getpid(), "recovery": report}},
            REMOTE_RESPONSE_KIND,
        )
        serve(worker, inp, out)
    finally:
        worker.close()
    return 0


# ---------------------------------------------------------------------------
# parent side: process, supervisor, client, ring, pool
# ---------------------------------------------------------------------------


def _wait_fd(fd: int, writable: bool, deadline: float | None) -> None:
    """Block until ``fd`` is ready (or raise ``TimeoutError`` at deadline)."""
    while True:
        timeout = None
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise TimeoutError("per-operation deadline exceeded")
        rlist, wlist, _ = select.select(
            [] if writable else [fd],
            [fd] if writable else [],
            [],
            timeout,
        )
        if rlist or wlist:
            return


class RemoteShardProcess:
    """One spawned worker plus the framed transport to it.

    ``call`` serializes concurrent users behind a lock (the worker
    processes one request at a time anyway).  The pipes run non-blocking
    with ``select``-paced I/O, so ``op_deadline_s`` bounds every
    send+recv: a wedged worker raises instead of hanging its caller.
    Construction waits for the worker's boot handshake (sent once its
    WAL recovery finished).  The worker sends a progress frame before
    each replayed record, and each frame renews the ``op_deadline_s``
    budget, so a long recovery boots while a stuck one still times out;
    recovery never counts against the first request's deadline.
    :attr:`recovery` holds the worker's recovery report.
    Any transport failure marks the process ``broken`` - the stream may
    be desynchronized, so the only safe recovery is a supervisor
    restart - and surfaces as :class:`RemoteShardError`.
    """

    def __init__(
        self,
        name: str,
        config: dict,
        op_deadline_s: float | None = None,
    ) -> None:
        self.name = name
        self.broken = False
        self.op_deadline_s = op_deadline_s
        self._lock = threading.Lock()
        faults.check("shard.spawn")
        # bufsize=0: the pipes stay raw file objects, so the select-based
        # deadline loops below see every byte the OS sees (a Python-side
        # buffer would make readiness lie).
        self._proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving.remote",
                "--config",
                json.dumps(config),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)
        self.pid = self._proc.pid
        try:
            hello = {"progress": True}
            while hello.get("progress"):
                deadline = (
                    time.monotonic() + op_deadline_s
                    if op_deadline_s is not None
                    else None
                )
                hello = self._recv_frame(REMOTE_RESPONSE_KIND, deadline)
        except Exception as exc:
            self.kill()
            raise RemoteShardError(
                name, f"worker failed to boot: {type(exc).__name__}: {exc}"
            ) from exc
        self.recovery: dict = hello["value"]["recovery"]

    @property
    def alive(self) -> bool:
        return not self.broken and self._proc.poll() is None

    def call(
        self, op: str, _deadline_s: float | None = None, **args
    ) -> dict:
        request = {"op": op, **args}
        deadline_s = (
            _deadline_s if _deadline_s is not None else self.op_deadline_s
        )
        with self._lock:
            if not self.alive:
                raise RemoteShardError(
                    self.name, "worker process is not running"
                )
            deadline = (
                time.monotonic() + deadline_s
                if deadline_s is not None
                else None
            )
            try:
                faults.check("remote.send")
                self._send_frame(request, REMOTE_REQUEST_KIND, deadline)
                faults.check("remote.recv")
                response = self._recv_frame(
                    REMOTE_RESPONSE_KIND, deadline
                )
            except Exception as exc:
                # Dead worker, truncated frame, expired deadline, or an
                # injected send/recv fault: either way the stream can no
                # longer be trusted - poison the process so the
                # supervisor restarts it, and raise the retryable error.
                self.broken = True
                raise RemoteShardError(
                    self.name, f"{type(exc).__name__}: {exc}"
                ) from exc
        if not response.get("ok"):
            _raise_remote_error(self.name, response.get("error") or {})
        return response.get("value") or {}

    def _send_frame(
        self, payload: dict, kind: str, deadline: float | None
    ) -> None:
        blob = serialize.value_dumps(payload, kind)
        fd = self._proc.stdin.fileno()
        view = memoryview(_LEN.pack(len(blob)) + blob)
        while view:
            _wait_fd(fd, True, deadline)
            try:
                written = os.write(fd, view)
            except BlockingIOError:
                continue
            view = view[written:]

    def _recv_frame(self, kind: str, deadline: float | None) -> dict:
        header = self._read_exact(_LEN.size, deadline)
        (length,) = _LEN.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise CacheDecodeError(
                f"remote frame claims {length} bytes "
                f"(stream desynchronized)"
            )
        return serialize.value_loads(
            self._read_exact(length, deadline), kind
        )

    def _read_exact(self, n: int, deadline: float | None) -> bytes:
        fd = self._proc.stdout.fileno()
        chunks = []
        remaining = n
        while remaining:
            _wait_fd(fd, False, deadline)
            try:
                chunk = os.read(fd, remaining)
            except BlockingIOError:
                continue
            if not chunk:
                raise EOFError(
                    f"remote stream closed with {remaining} of {n} "
                    f"bytes unread"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def kill(self) -> None:
        """SIGKILL the worker (crash simulation / hard teardown)."""
        if self._proc.poll() is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except OSError:
                pass
        self._proc.wait()
        self._close_pipes()

    def shutdown(self) -> None:
        """Graceful stop; falls back to kill on any transport trouble."""
        try:
            self.call("shutdown")
        except ReproError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.kill()
            return
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def _raise_remote_error(shard: str, error: dict):
    """Re-raise a worker-side failure with its original type when possible."""
    from repro import errors as errors_mod

    name = error.get("type", "Exception")
    message = error.get("message", "")
    if name == "FaultError":
        raise FaultError(
            error.get("site", "remote"),
            int(error.get("ordinal", 0)),
            error.get("kind", "fault"),
        )
    cls = getattr(errors_mod, name, None)
    if (
        isinstance(cls, type)
        and issubclass(cls, ReproError)
        and cls is not RemoteShardError
    ):
        try:
            raise cls(message)
        except TypeError:
            pass  # multi-argument constructor: fall through to the wrappers
    if error.get("transient"):
        raise RemoteShardError(shard, f"{name}: {message}")
    raise UsageError(f"remote shard {shard!r}: {name}: {message}")


class HashRing:
    """Consistent hashing of build fingerprints onto worker names.

    Virtual nodes keyed by :func:`~repro.core.serialize.stable_digest`
    make the mapping deterministic across processes and balanced across
    workers; adding or removing one worker only remaps the keys on its
    arcs, which is what lets a grown pool keep most shards warm.
    """

    def __init__(self, nodes, replicas: int = 64) -> None:
        if not nodes:
            raise UsageError("hash ring needs at least one node")
        points = sorted(
            (serialize.stable_digest("hash-ring", node, i), node)
            for node in nodes
            for i in range(replicas)
        )
        self._digests = [digest for digest, _ in points]
        self._nodes = [node for _, node in points]

    def node_for(self, key: str) -> str:
        digest = serialize.stable_digest("hash-ring-key", key)
        idx = bisect.bisect_right(self._digests, digest) % len(self._nodes)
        return self._nodes[idx]


class RemoteShardSupervisor:
    """One worker slot: lazy spawn, crash detection, warm restart.

    Also the liveness layer: per-op deadlines are threaded into the
    spawned :class:`RemoteShardProcess`, :meth:`heartbeat` probes the
    worker's ``ping`` op, and a circuit breaker trips after
    ``breaker_threshold`` consecutive *transport* failures (worker-side
    application errors ride a healthy transport and never count).  An
    open breaker fast-fails calls with :class:`RemoteShardError` until
    ``breaker_cooldown_s`` elapses, then goes half-open: the next call
    is the probe - success closes the breaker, failure re-opens it.
    """

    def __init__(
        self,
        name: str,
        config: dict,
        *,
        op_deadline_s: float | None = None,
        breaker_threshold: int | None = None,
        breaker_cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self._config = dict(config, name=name)
        self._lock = threading.RLock()
        self._proc: RemoteShardProcess | None = None
        self.restarts = 0
        self.op_deadline_s = op_deadline_s
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._breaker_clock = clock
        #: ``closed`` / ``open`` / ``half-open``.
        self.breaker_state = "closed"
        self.breaker_trips = 0
        self._breaker_failures = 0
        self._breaker_opened_at = 0.0
        self.heartbeats = 0
        self.heartbeat_failures = 0
        self.last_heartbeat_error: str | None = None

    @property
    def directory(self) -> str:
        """The worker's durability directory (``wal/`` + ``checkpoint/``)."""
        return self._config["directory"]

    @property
    def alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.alive

    @property
    def pid(self) -> int | None:
        proc = self._proc
        return proc.pid if proc is not None else None

    @property
    def recovery(self) -> dict | None:
        """The running worker's boot-time WAL recovery report."""
        proc = self._proc
        return proc.recovery if proc is not None else None

    def process(self) -> RemoteShardProcess:
        """The live worker, spawning as needed (it recovers on boot)."""
        with self._lock:
            if self._proc is not None and not self._proc.alive:
                self._proc.kill()
                self._proc = None
                self.restarts += 1
            if self._proc is None:
                self._proc = RemoteShardProcess(
                    self.name,
                    self._config,
                    op_deadline_s=self.op_deadline_s,
                )
            return self._proc

    def call(
        self, op: str, _deadline_s: float | None = None, **args
    ) -> dict:
        self._breaker_admit()
        try:
            value = self.process().call(op, _deadline_s=_deadline_s, **args)
        except RemoteShardError:
            # Only transport-level failures feed the breaker: a
            # worker-relayed transient rides a healthy (unbroken, alive)
            # transport and is the retry policy's business.
            proc = self._proc
            if proc is None or proc.broken or not proc.alive:
                self._breaker_failure()
            raise
        self._breaker_success()
        return value

    # -- circuit breaker ------------------------------------------------------

    def _breaker_admit(self) -> None:
        if self._breaker_threshold is None:
            return
        with self._lock:
            if self.breaker_state != "open":
                return
            elapsed = self._breaker_clock() - self._breaker_opened_at
            if elapsed < self._breaker_cooldown_s:
                raise RemoteShardError(
                    self.name,
                    f"circuit breaker open "
                    f"({self._breaker_failures} consecutive failures; "
                    f"half-open probe in "
                    f"{self._breaker_cooldown_s - elapsed:.2f}s)",
                )
            # Cooldown served: this caller becomes the half-open probe.
            self.breaker_state = "half-open"

    def _breaker_failure(self) -> None:
        if self._breaker_threshold is None:
            return
        with self._lock:
            self._breaker_failures += 1
            if (
                self.breaker_state == "half-open"
                or self._breaker_failures >= self._breaker_threshold
            ):
                if self.breaker_state != "open":
                    self.breaker_trips += 1
                self.breaker_state = "open"
                self._breaker_opened_at = self._breaker_clock()

    def _breaker_success(self) -> None:
        if self._breaker_threshold is None:
            return
        with self._lock:
            self._breaker_failures = 0
            self.breaker_state = "closed"

    # -- heartbeat ------------------------------------------------------------

    def heartbeat(self, deadline_s: float | None = None) -> dict:
        """One liveness probe against a *running* worker (never spawns).

        Routes through the worker's ``ping`` op under the usual per-op
        deadline; an idle slot (no worker yet) reports ``idle`` without
        spawning one.  Failures count toward the circuit breaker exactly
        like a real call's transport failure, so a hung worker's breaker
        opens even when no admission traffic is flowing.  Fault site
        ``remote.heartbeat`` fires before the probe.
        """
        with self._lock:
            proc = self._proc
        if proc is None:
            return {"state": "idle", "ok": True}
        try:
            faults.check("remote.heartbeat")
            self._breaker_admit()
            value = proc.call("ping", _deadline_s=deadline_s)
        except (TransientError, OSError) as exc:
            message = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.heartbeat_failures += 1
                self.last_heartbeat_error = message
            if proc.broken or not proc.alive:
                self._breaker_failure()
            return {"state": "failed", "ok": False, "error": message}
        with self._lock:
            self.heartbeats += 1
        self._breaker_success()
        return {"state": "ok", "ok": True, "pid": value.get("pid")}

    def kill(self) -> None:
        """SIGKILL the worker if running (tests / fault drills)."""
        with self._lock:
            if self._proc is not None:
                self._proc.kill()

    def shutdown(self) -> None:
        with self._lock:
            if self._proc is not None:
                self._proc.shutdown()
                self._proc = None


class RemoteStoreClient:
    """The ``DebloatStore`` duck-type for one framework on one supervisor.

    Every mutating reply carries the worker's post-commit summary, which
    the client keeps as :attr:`committed`; a caller that needs the epoch
    its mutation produced reads that instead of asking again.  The
    client also keeps the reduction rows of the last summary and sends
    their token with each request, so the worker ships rows only when
    they changed.  One lock orders each call with the install of its
    reply, so :attr:`committed` only moves forward in worker order.
    """

    def __init__(self, supervisor: RemoteShardSupervisor,
                 framework_name: str) -> None:
        self._sup = supervisor
        self.framework_name = framework_name
        self.last_error: str | None = None
        self._lock = threading.Lock()
        self._rows_token: str | None = None
        self._rows: tuple = ()
        #: The newest summary any reply carried (no remote read).
        self.committed: StoreSnapshot = _EMPTY_SNAPSHOT

    @property
    def worker(self) -> str:
        return self._sup.name

    def _call(self, op: str, **args) -> dict:
        try:
            return self._sup.call(op, framework=self.framework_name, **args)
        except ReproError as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
            raise

    def _call_summarised(self, op: str, key: str = "summary", **args):
        """One call whose reply carries a summary; returns (value, snap)."""
        with self._lock:
            value = self._call(op, rows=self._rows_token, **args)
            # Rows are left out only when the token sent is current, and
            # the lock keeps it from changing while the call is out.
            snap = store_snapshot_from_payload(value[key], self._rows)
            self._rows_token = value[key]["rows_token"]
            self._rows = snap.reductions
            self.committed = snap
            return value, snap

    def admit(self, spec, verify: bool = False) -> AdmissionResult:
        value, _ = self._call_summarised(
            "admit", spec=serialize.spec_to_payload(spec), verify=verify
        )
        return admission_from_payload(value["result"])

    def admit_many(self, specs, verify: bool = False):
        value, _ = self._call_summarised(
            "admit_many",
            specs=[serialize.spec_to_payload(s) for s in specs],
            verify=verify,
        )
        return [admission_from_payload(p) for p in value["results"]]

    def evict(self, workload_id: str) -> EvictionResult:
        value, _ = self._call_summarised("evict", workload_id=workload_id)
        return eviction_from_payload(value["result"])

    def reset(self) -> None:
        self._call_summarised("reset")

    def snapshot(self) -> StoreSnapshot:
        return self._call_summarised("snapshot", key="snapshot")[1]

    @property
    def generation(self) -> int:
        return self.snapshot().generation

    def stats(self) -> dict:
        return self._call("stats")["stats"]

    def report(self, verify=None, strict=None):
        value = self._call("report", verify=verify, strict=strict)
        return serialize.multi_report_from_payload(value["report"])

    def export_state(self) -> dict:
        """Pull the worker's committed store image (snapshot export)."""
        return self._call("pull_state")["state"]

    def import_state(self, payload: dict) -> None:
        """Push a store image into the worker (snapshot import)."""
        serialize._check_store_payload(payload)
        self._call("push_state", state=payload)


class RemoteShardPool:
    """N remote shard workers plus the consistent-hash routing over them.

    Worker ``shard-<i>`` keeps its WAL and checkpoints under
    ``<root>/shard-<i>``; without a ``root`` the pool owns a temporary
    directory for them, so a worker crash is survivable either way.
    :meth:`shutdown` removes that directory; a parent that crashes
    leaves it behind, which is why engines pass a ``root`` whenever they
    have a directory of their own.  ``fsync`` / ``fsync_batch_n`` are the
    workers' WAL sync policy.
    """

    def __init__(
        self,
        count: int,
        *,
        scale: float,
        archs,
        use_cache: bool = True,
        root: str | None = None,
        fsync: str = "always",
        fsync_batch_n: int = 8,
        op_deadline_s: float | None = None,
        breaker_threshold: int | None = None,
        breaker_cooldown_s: float = 5.0,
        heartbeat_interval_s: float | None = None,
    ) -> None:
        if count < 1:
            raise UsageError("remote shard pool needs at least one worker")
        self._owned_root = None
        if root is None:
            root = self._owned_root = tempfile.mkdtemp(prefix="repro-shards-")
        self.root = root
        self.supervisors: dict[str, RemoteShardSupervisor] = {}
        for i in range(count):
            name = f"shard-{i}"
            self.supervisors[name] = RemoteShardSupervisor(
                name,
                {
                    "scale": scale,
                    "archs": list(archs),
                    "use_cache": use_cache,
                    "directory": os.path.join(root, name),
                    "fsync": fsync,
                    "fsync_batch_n": fsync_batch_n,
                },
                op_deadline_s=op_deadline_s,
                breaker_threshold=breaker_threshold,
                breaker_cooldown_s=breaker_cooldown_s,
            )
        self._ring = HashRing(sorted(self.supervisors))
        self._clients: dict[str, RemoteStoreClient] = {}
        self._lock = threading.Lock()
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        if heartbeat_interval_s is not None:
            self.start_heartbeats(heartbeat_interval_s)

    def node_for(self, fingerprint: str) -> str:
        return self._ring.node_for(fingerprint)

    def client_for(
        self, framework_name: str, fingerprint: str
    ) -> RemoteStoreClient:
        with self._lock:
            client = self._clients.get(framework_name)
            if client is None:
                supervisor = self.supervisors[self.node_for(fingerprint)]
                client = RemoteStoreClient(supervisor, framework_name)
                self._clients[framework_name] = client
            return client

    def supervisor_for(self, framework_name: str) -> RemoteShardSupervisor:
        client = self._clients.get(framework_name)
        if client is None:
            raise UsageError(
                f"no remote client for {framework_name!r} yet"
            )
        return client._sup

    def start_heartbeats(self, interval_s: float) -> None:
        """Probe every supervisor's worker on a cadence (daemon thread)."""
        if self._hb_thread is not None:
            return
        self._hb_stop.clear()

        def _loop() -> None:
            while not self._hb_stop.wait(interval_s):
                for sup in list(self.supervisors.values()):
                    try:
                        sup.heartbeat()
                    except Exception:
                        continue

        self._hb_thread = threading.Thread(
            target=_loop, name="repro-heartbeat", daemon=True
        )
        self._hb_thread.start()

    def stop_heartbeats(self) -> None:
        if self._hb_thread is None:
            return
        self._hb_stop.set()
        self._hb_thread.join(timeout=5.0)
        self._hb_thread = None

    def health(self) -> dict:
        rows = {
            name: {
                "alive": sup.alive,
                "pid": sup.pid,
                "restarts": sup.restarts,
                "directory": sup.directory,
                "breaker": sup.breaker_state,
                "breaker_trips": sup.breaker_trips,
                "heartbeats": sup.heartbeats,
                "heartbeat_failures": sup.heartbeat_failures,
            }
            for name, sup in self.supervisors.items()
        }
        return {
            "workers": len(self.supervisors),
            "alive": sum(1 for row in rows.values() if row["alive"]),
            "restarts": sum(row["restarts"] for row in rows.values()),
            "breakers_open": sum(
                1 for row in rows.values() if row["breaker"] == "open"
            ),
            "shards": rows,
        }

    def checkpoint(self) -> dict[str, dict]:
        """Checkpoint every live worker, truncating its WAL.

        Idle or dead slots are skipped: a worker that is not running has
        nothing in memory, and its WAL is replayed when it respawns.
        """
        return {
            name: sup.call("checkpoint")["checkpoint"]
            for name, sup in self.supervisors.items()
            if sup.alive
        }

    def shutdown(self) -> None:
        self.stop_heartbeats()
        for sup in self.supervisors.values():
            sup.shutdown()
        if self._owned_root is not None:
            shutil.rmtree(self._owned_root, ignore_errors=True)
            self._owned_root = None


if __name__ == "__main__":
    sys.exit(main())
