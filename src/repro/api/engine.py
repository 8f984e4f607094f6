"""`DebloatEngine`: the single public facade over the whole pipeline.

The paper's detect -> locate -> compact -> verify pipeline grew four
divergent entry points (``Debloater``, the experiments' report helper,
``DebloatStore``, two CLIs), each re-wiring caching and options by hand.  The
engine is the one audited boundary in front of all of them:

* constructed from one :class:`~repro.api.config.EngineConfig`;
* explicit lifecycle - :meth:`open` / :meth:`close`, or a context manager;
* typed requests in, :class:`~repro.api.requests.EngineResult` out, every
  result carrying cache provenance and wall timing;
* single-workload pipelines route through the process-wide two-tier
  pipeline cache; serving routes through a
  :class:`~repro.api.federation.StoreFederation` of per-framework store
  shards with traffic-driven eviction;
* :meth:`server` fronts the federation with the queue/worker
  :class:`~repro.serving.server.DebloatServer` (plus the policy's
  background sweeper).

Every legacy entry point is now a thin adapter over this class; new
capabilities (remote stores, async admission, multi-backend) plug in here.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.api.config import EngineConfig
from repro.api.federation import FederationSnapshot, StoreFederation
from repro.api.requests import (
    AdmitRequest,
    DebloatRequest,
    EngineResult,
    EvictRequest,
    InspectRequest,
)
from repro.errors import UsageError
from repro.frameworks.catalog import (
    framework_build_fingerprint,
    get_framework,
)
from repro.serving.server import DebloatServer


class DebloatEngine:
    """The unified entry point (see module docstring)."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        cache=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or EngineConfig()
        #: Explicit cache override (tests); None = the process-wide
        #: PIPELINE_CACHE, resolved dynamically so reconfiguration and
        #: test monkeypatching are honored per call.
        self._cache = cache
        self._clock = clock
        self._federation: StoreFederation | None = None
        self._server: DebloatServer | None = None
        self._remote_pool = None
        self._durability = None
        self._opened = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def cache(self):
        if self._cache is not None:
            return self._cache
        from repro.experiments import common

        return common.PIPELINE_CACHE

    @property
    def closed(self) -> bool:
        return self._closed

    def open(self) -> "DebloatEngine":
        """Bring the engine up: apply cache overrides, build the federation."""
        if self._closed:
            raise UsageError("engine is closed; construct a new one")
        if self._opened:
            return self
        if (
            self.config.disk_cache is not None
            or self.config.cache_dir is not None
        ):
            self.cache.configure(
                disk_enabled=self.config.disk_cache,
                cache_dir=self.config.cache_dir,
            )
        if not self.config.degraded_modes.quarantine_corrupt_entries:
            self.cache.configure(quarantine=False)
        if self.config.remote_shards > 0:
            import os

            from repro.serving.remote import RemoteShardPool

            durability = self.config.durability
            # Worker WALs live beside the engine's durable state; only an
            # engine with no directory at all gives the pool a temp dir.
            base = self.config.snapshot_dir or durability.directory
            workers_root = (
                os.path.join(base, "workers") if base is not None else None
            )
            liveness = self.config.liveness
            # Workers journal every mutation; without engine durability
            # they still sync each append, since the worker WAL is the
            # only record of an acknowledged remote admission.
            self._remote_pool = RemoteShardPool(
                self.config.remote_shards,
                scale=self.config.scale,
                archs=tuple(self.config.archs),
                use_cache=self.config.use_cache,
                root=workers_root,
                fsync=durability.fsync if durability.enabled else "always",
                fsync_batch_n=durability.fsync_batch_n,
                op_deadline_s=liveness.op_deadline_s,
                breaker_threshold=liveness.breaker_threshold,
                breaker_cooldown_s=liveness.breaker_cooldown_s,
                heartbeat_interval_s=liveness.heartbeat_interval_s,
            )
        if self.config.durability.enabled:
            import os

            from repro.serving.wal import DurabilityController

            root = self.config.durability.directory
            if root is None:
                root = os.path.join(
                    self.config.snapshot_dir, "durability"
                )
            self._durability = DurabilityController(
                root,
                fsync=self.config.durability.fsync,
                fsync_batch_n=self.config.durability.fsync_batch_n,
            )
        self._federation = StoreFederation(
            self.config,
            clock=self._clock,
            cache=self._cache,
            remote_pool=self._remote_pool,
            durability=self._durability,
        )
        if self._durability is not None:
            self._durability.recover(self._federation)
            if self.config.durability.checkpoint_interval_s is not None:
                self._durability.start_checkpointer(
                    self._federation,
                    self.config.durability.checkpoint_interval_s,
                )
        self._opened = True
        return self

    def close(self) -> None:
        """Stop the server (draining its queue) and refuse further requests."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        if self._remote_pool is not None:
            self._remote_pool.shutdown()
        if self._durability is not None:
            # Stops the checkpointer and syncs every WAL: a clean close
            # leaves nothing in the batch-fsync window.
            self._durability.close()

    def __enter__(self) -> "DebloatEngine":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise UsageError("engine is closed")
        if not self._opened:
            raise UsageError(
                "engine is not open; call open() or use it as a context "
                "manager"
            )

    @property
    def federation(self) -> StoreFederation:
        self._ensure_open()
        assert self._federation is not None
        return self._federation

    def server(self) -> DebloatServer:
        """The queue/worker admission front (created on first use)."""
        self._ensure_open()
        if self._server is None:
            self._server = DebloatServer(
                self.federation,
                workers=self.config.workers,
                verify=self.config.verify_admissions,
                batch_max=self.config.batch_max,
                sweep_interval_s=self.config.eviction.sweep_interval_s,
                retry=self.config.retry,
            )
        return self._server

    def http_server(self):
        """An HTTP/JSON front-end over this engine (not yet started).

        Configured from ``config.http``; call ``await start()`` on it (or
        wrap it in :class:`~repro.serving.http.BackgroundHttpServer`) -
        ``start()`` opens the engine, so this works on an un-opened one.
        Imported lazily so engines that never serve HTTP pay nothing.
        """
        if self._closed:
            raise UsageError("engine is closed; construct a new one")
        from repro.serving.http import DebloatHttpServer

        return DebloatHttpServer(self, self.config.http)

    # -- single-workload pipeline ---------------------------------------------

    def debloat(self, request: DebloatRequest) -> EngineResult:
        """Run (or fetch cached) the full pipeline for one workload."""
        self._ensure_open()
        spec = request.resolve_spec()
        scale = request.scale if request.scale is not None else self.config.scale
        options = (
            request.options if request.options is not None
            else self.config.options
        )
        archs = (
            tuple(request.archs) if request.archs is not None
            else tuple(self.config.archs)
        )
        start = time.perf_counter()
        provenance: dict[str, str] = {}
        if self.config.use_cache:
            report = self.cache.get_or_run(
                spec, scale, options, archs, provenance=provenance
            )
        else:
            from repro.core.debloat import Debloater

            framework = get_framework(spec.framework, scale=scale, archs=archs)
            report = Debloater(framework, options).debloat(spec)
        return EngineResult(
            kind="debloat",
            value=report,
            wall_s=time.perf_counter() - start,
            framework=spec.framework,
            fingerprint=framework_build_fingerprint(
                spec.framework, scale, archs
            ),
            cache_source=provenance.get("source", "computed"),
        )

    # -- federated serving ----------------------------------------------------

    def admit(self, request: AdmitRequest) -> EngineResult:
        """Admit one workload into its framework's federation shard."""
        self._ensure_open()
        spec = request.resolve_spec()
        verify = (
            request.verify if request.verify is not None
            else self.config.verify_admissions
        )
        start = time.perf_counter()
        result = self.federation.admit(
            spec, verify=verify, pinned=request.pinned
        )
        shard = self.federation.shard(spec.framework)
        return EngineResult(
            kind="admit",
            value=result,
            wall_s=time.perf_counter() - start,
            framework=spec.framework,
            fingerprint=shard.fingerprint,
            cache_source="cache" if result.detection_cached else "run",
            generation=result.generation,
        )

    def evict(self, request: EvictRequest) -> EngineResult:
        """Evict a workload from every shard holding it (or one shard)."""
        self._ensure_open()
        start = time.perf_counter()
        results = self.federation.evict(
            request.workload_id, request.framework
        )
        return EngineResult(
            kind="evict",
            value=results,
            wall_s=time.perf_counter() - start,
            framework=request.framework,
        )

    def touch(self, workload_id: str, framework: str | None = None) -> int:
        """Record read traffic for a served workload (TTL refresh).

        Admissions refresh their own last-served stamps; a deployment
        that *reads* a workload's debloated libraries out of a snapshot
        should call this so read-heavy workloads do not age out under a
        TTL/LRU policy.  Returns the number of shards refreshed (0 if no
        shard holds the workload).
        """
        self._ensure_open()
        return self.federation.touch(workload_id, framework)

    def sweep(self) -> EngineResult:
        """Apply the eviction policy across every shard, once, now."""
        self._ensure_open()
        start = time.perf_counter()
        swept = self.federation.sweep()
        return EngineResult(
            kind="sweep",
            value=swept,
            wall_s=time.perf_counter() - start,
        )

    def report(self, framework: str) -> EngineResult:
        """One shard's union report."""
        self._ensure_open()
        start = time.perf_counter()
        report = self.federation.report(framework)
        shard = self.federation.shard(framework)
        return EngineResult(
            kind="report",
            value=report,
            wall_s=time.perf_counter() - start,
            framework=framework,
            fingerprint=shard.fingerprint,
            generation=shard.store.generation,
        )

    def snapshot(self) -> FederationSnapshot:
        return self.federation.snapshot()

    # -- warm snapshots -------------------------------------------------------

    def _snapshot_directory(self, directory: str | None) -> str:
        if directory is not None:
            return directory
        if self.config.snapshot_dir is None:
            raise UsageError(
                "no snapshot directory: pass one explicitly or set "
                "EngineConfig.snapshot_dir"
            )
        import os

        return os.path.join(self.config.snapshot_dir, "federation")

    def export_snapshot(self, directory: str | None = None) -> EngineResult:
        """Write every shard's warm store image (see serving.snapshot)."""
        self._ensure_open()
        directory = self._snapshot_directory(directory)
        start = time.perf_counter()
        manifest = self.federation.export_snapshot(directory)
        return EngineResult(
            kind="snapshot_export",
            value={"directory": directory, "manifest": manifest},
            wall_s=time.perf_counter() - start,
        )

    def import_snapshot(self, directory: str | None = None) -> EngineResult:
        """Warm the federation from a snapshot - zero workload runs."""
        self._ensure_open()
        directory = self._snapshot_directory(directory)
        start = time.perf_counter()
        generations = self.federation.import_snapshot(directory)
        return EngineResult(
            kind="snapshot_import",
            value={"directory": directory, "generations": generations},
            wall_s=time.perf_counter() - start,
        )

    def checkpoint(self) -> EngineResult:
        """Snapshot every durable shard, then truncate its WAL, once, now.

        Local shards checkpoint in-process; every live remote worker
        checkpoints its own WAL.  Requires ``config.durability.enabled``;
        the background checkpointer (``durability.checkpoint_interval_s``)
        runs exactly this on a cadence.
        """
        self._ensure_open()
        if self._durability is None:
            raise UsageError(
                "checkpoint requires EngineConfig.durability.enabled"
            )
        start = time.perf_counter()
        result = self._durability.checkpoint(self.federation)
        return EngineResult(
            kind="checkpoint",
            value=result,
            wall_s=time.perf_counter() - start,
        )

    @property
    def recovery(self) -> dict | None:
        """The last ``open()``'s durability recovery report (or None)."""
        if self._durability is None:
            return None
        return self._durability.recovery_report

    def stats(self) -> dict[str, int]:
        """Federation counters, plus the server's when one is running."""
        self._ensure_open()
        if self._server is not None:
            out = self._server.stats()
        else:
            out = self.federation.stats()
        if self._durability is not None:
            out = {**out, **self._durability.stats()}
        return out

    def storage_stats(self) -> dict[str, int | float]:
        """Gauges for the federation's shared content-addressed block store."""
        self._ensure_open()
        return self.federation.storage_stats()

    def health(self) -> dict:
        """One aggregated health report across every serving layer.

        Includes the server's worker/sweeper liveness (when a server is
        running), per-shard recovery state and retry counters from the
        federation, and the disk cache's quarantine count.  Safe to call on
        a closed engine.
        """
        if self._closed:
            out: dict = {"state": "closed"}
        elif self._server is not None:
            out = self._server.health()
        else:
            self._ensure_open()
            target = self.federation.health()
            out = {"state": target["state"], "target": target}
        if not self._closed:
            out["storage"] = self.federation.storage_stats()
        out["quarantined_entries"] = self.cache.stats().get(
            "disk_quarantined", 0
        )
        if self._remote_pool is not None:
            out["remote"] = self._remote_pool.health()
        if self._durability is not None:
            out["durability"] = self._durability.health()
        return out

    # -- inspection -----------------------------------------------------------

    def inspect(self, request: InspectRequest) -> EngineResult:
        """Describe one generated library (rendered text).

        The kernel listing is served from the engine's cached
        :class:`~repro.core.kindex.KernelUsageIndex` - in-process first,
        then the persisted disk tier - so repeated inspects never re-parse
        the fatbin.
        """
        self._ensure_open()
        from repro.tools.inspect import (
            block_report,
            describe_library,
            kernel_listing,
            readelf_sections,
        )

        start = time.perf_counter()
        scale = self.config.scale
        archs = tuple(self.config.archs)
        framework = get_framework(request.framework, scale=scale, archs=archs)
        parts = []
        source = None
        lib = None
        if request.soname:
            lib = framework.libraries.get(request.soname)
            if lib is None:
                err = UsageError(
                    f"no library {request.soname!r} in {request.framework}"
                )
                err.available = sorted(framework.libraries)
                raise err
            parts.append(describe_library(lib))
        elif not request.blocks:
            raise UsageError(
                "inspect needs a soname (or the blocks view)"
            )
        if request.blocks:
            parts.append(block_report(self.federation.storage_report()))
        if lib is not None and request.sections:
            parts.append(readelf_sections(lib))
        if lib is not None and request.kernels and lib.has_gpu_code:
            if self.config.use_cache:
                index, source = self.cache.library_index(
                    lib, request.framework, scale, archs
                )
            else:
                from repro.core.kindex import index_for

                index, source = index_for(lib), "computed"
            parts.append(kernel_listing(lib, index=index))
        return EngineResult(
            kind="inspect",
            value="\n\n".join(parts),
            wall_s=time.perf_counter() - start,
            framework=request.framework,
            fingerprint=framework_build_fingerprint(
                request.framework, scale, archs
            ),
            cache_source=source,
        )

    # -- cache control --------------------------------------------------------

    def configure_cache(
        self,
        enabled: bool | None = None,
        disk_enabled: bool | None = None,
        cache_dir=None,
        quarantine: bool | None = None,
    ) -> None:
        """Adjust the process-wide pipeline cache (None = leave unchanged)."""
        self.cache.configure(
            enabled=enabled,
            disk_enabled=disk_enabled,
            cache_dir=cache_dir,
            quarantine=quarantine,
        )


#: Lazily constructed singleton behind the deprecation shims and the
#: experiment helpers: one opened engine over the process-wide cache.
_DEFAULT_ENGINE: DebloatEngine | None = None


def default_engine() -> DebloatEngine:
    """The process-wide engine (opened on first use, never auto-closed)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None or _DEFAULT_ENGINE.closed:
        _DEFAULT_ENGINE = DebloatEngine().open()
    return _DEFAULT_ENGINE
