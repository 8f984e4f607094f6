"""Engine configuration: one object that subsumes every pipeline knob.

Before the :mod:`repro.api` facade existed, each entry point wired its own
slice of configuration by hand - ``DebloatOptions`` for the pipeline, cache
flags on the CLIs, worker counts on the server, scale/arch arguments on the
experiment helpers.  :class:`EngineConfig` is the single place all of those
live now: construct one, hand it to
:class:`~repro.api.engine.DebloatEngine`, and every layer underneath (the
pipeline cache, the store federation, the admission server) reads the same
object.

:class:`EvictionPolicy` is the serving-side half: how a long-running engine
sheds idle workloads.  Last-served timestamps are fed by request traffic
(every admission touches its workload), and a sweep - explicit via
:meth:`~repro.api.engine.DebloatEngine.sweep`, or periodic via the server's
background sweeper - applies the policy:

* ``ttl`` - evict workloads idle longer than ``ttl_s``;
* ``lru`` - keep at most ``max_workloads`` per framework shard, evicting
  the least recently served beyond the cap;
* ``pinned`` - only explicitly pinned workloads survive a sweep;
* ``bytes`` - cap the shared content-addressed block store at
  ``budget_bytes`` physical bytes, evicting the cheapest-to-rebuild per
  byte freed first (rebuild cost = tracked admission virtual time);
* ``none`` - never evict (the default).

Pinned workloads (``pinned`` here, or ``AdmitRequest(pinned=True)``) are
never evicted under any mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.debloat import DebloatOptions
from repro.cuda.arch import SHIPPED_ARCHITECTURES
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SCALE, check_scale
from repro.utils.retry import RetryPolicy

#: Modes :class:`EvictionPolicy` accepts.
EVICTION_MODES = ("none", "ttl", "lru", "pinned", "bytes")

#: WAL fsync policies :class:`DurabilityConfig` accepts (strictest first).
WAL_FSYNC_POLICIES = ("always", "batch", "off")


@dataclass(frozen=True)
class DurabilityConfig:
    """Crash-consistent durability: WAL, auto-recovery, checkpointing.

    With ``enabled``, every committed admission/eviction/reset appends to
    a per-shard write-ahead log (:mod:`repro.serving.wal`) and
    ``DebloatEngine.open()`` recovers the committed state automatically:
    newest checkpoint snapshot first, then the WAL tail replayed through
    the zero-run cached-usage path.  ``fsync`` picks the durability/
    latency trade-off (``always`` per append, ``batch`` every
    ``fsync_batch_n`` appends, ``off`` = flush only - survives process
    death, not power loss).  ``checkpoint_interval_s`` runs a background
    export-then-truncate checkpointer bounding WAL replay time.
    """

    enabled: bool = False
    #: Root for WAL + checkpoint files; None = ``<snapshot_dir>/durability``.
    directory: str | None = None
    fsync: str = "batch"
    #: ``batch`` policy: appends between physical syncs.
    fsync_batch_n: int = 8
    #: Period of the background checkpointer (None = manual only).
    checkpoint_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.fsync not in WAL_FSYNC_POLICIES:
            raise ConfigurationError(
                f"wal fsync policy must be one of {WAL_FSYNC_POLICIES}, "
                f"got {self.fsync!r}"
            )
        if self.fsync_batch_n < 1:
            raise ConfigurationError("fsync_batch_n must be >= 1")
        if (
            self.checkpoint_interval_s is not None
            and self.checkpoint_interval_s <= 0
        ):
            raise ConfigurationError(
                "checkpoint_interval_s must be positive"
            )


@dataclass(frozen=True)
class LivenessConfig:
    """Remote-shard liveness: deadlines, heartbeats, circuit breaking.

    ``op_deadline_s`` bounds every send+recv against a worker process (a
    wedged worker surfaces as :class:`~repro.errors.RemoteShardError`
    instead of blocking forever).  ``heartbeat_interval_s`` runs a
    supervisor thread probing each worker's ``ping`` op.
    ``breaker_threshold`` consecutive transport failures open a per-worker
    circuit breaker: calls fast-fail for ``breaker_cooldown_s``, then one
    half-open probe either closes the breaker or re-opens it - so a hung
    worker degrades its shard to ``recovering`` (last-good snapshot
    reads) instead of stalling every caller.
    """

    #: Per-operation send+recv deadline (None = wait forever).
    op_deadline_s: float | None = 30.0
    #: Period of the supervisor heartbeat probes (None = no heartbeats).
    heartbeat_interval_s: float | None = None
    #: Consecutive transport failures before the breaker opens
    #: (None = breaker disabled).
    breaker_threshold: int | None = 3
    #: Seconds an open breaker fast-fails before a half-open probe.
    breaker_cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.op_deadline_s is not None and self.op_deadline_s <= 0:
            raise ConfigurationError("op_deadline_s must be positive")
        if (
            self.heartbeat_interval_s is not None
            and self.heartbeat_interval_s <= 0
        ):
            raise ConfigurationError(
                "heartbeat_interval_s must be positive"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ConfigurationError("breaker_cooldown_s must be positive")


@dataclass(frozen=True)
class DegradedModes:
    """What the engine is allowed to do when a component fails.

    Each knob trades a little fidelity for availability; both default on
    (see README "Failure model & degraded modes"):

    * ``serve_last_good_reads`` - while a shard is mid-recovery (a worker
      is retrying an admission against it), federation reads serve the
      shard's last successfully committed :class:`StoreSnapshot` instead
      of blocking or erroring.
    * ``quarantine_corrupt_entries`` - corrupt disk-cache entries move to
      the ``quarantine/`` sidecar for inspection; off = they are deleted
      outright.  Either way the entry is recomputed.
    """

    serve_last_good_reads: bool = True
    quarantine_corrupt_entries: bool = True


@dataclass(frozen=True)
class EvictionPolicy:
    """Traffic-driven store eviction (see module docstring for the modes)."""

    mode: str = "none"
    #: ``ttl`` mode: seconds a workload may sit idle before eviction.
    ttl_s: float | None = None
    #: ``lru`` mode: per-shard cap on distinct admitted workloads.
    max_workloads: int | None = None
    #: ``bytes`` mode: cap on the shared block store's physical bytes;
    #: sweeps evict cheapest-to-rebuild-per-byte-freed until it holds.
    budget_bytes: int | None = None
    #: Workload ids that are never evicted, under any mode.
    pinned: frozenset[str] = frozenset()
    #: Period of the server's background sweeper (None = no background
    #: sweeps; callers can still sweep explicitly).
    sweep_interval_s: float | None = None

    #: Which per-mode knob each mode consumes; setting any *other* mode's
    #: knob is a contradiction the constructor rejects by field name.
    _MODE_KNOBS = {
        "ttl": "ttl_s",
        "lru": "max_workloads",
        "bytes": "budget_bytes",
    }

    def __post_init__(self) -> None:
        if self.mode not in EVICTION_MODES:
            raise ConfigurationError(
                f"eviction mode must be one of {EVICTION_MODES}, got "
                f"{self.mode!r}"
            )
        if self.mode == "ttl" and (self.ttl_s is None or self.ttl_s < 0):
            raise ConfigurationError(
                "field 'ttl_s': ttl eviction requires a non-negative ttl_s"
            )
        if self.mode == "lru" and (
            self.max_workloads is None or self.max_workloads < 1
        ):
            raise ConfigurationError(
                "field 'max_workloads': lru eviction requires "
                "max_workloads >= 1"
            )
        if self.mode == "bytes" and (
            self.budget_bytes is None or self.budget_bytes < 1
        ):
            raise ConfigurationError(
                "field 'budget_bytes': bytes eviction requires "
                "budget_bytes > 0"
            )
        for knob_mode, knob in self._MODE_KNOBS.items():
            if knob_mode != self.mode and getattr(self, knob) is not None:
                raise ConfigurationError(
                    f"field {knob!r}: only mode {knob_mode!r} uses {knob}; "
                    f"it contradicts mode {self.mode!r}"
                )
        if self.sweep_interval_s is not None:
            if self.sweep_interval_s <= 0:
                raise ConfigurationError(
                    "field 'sweep_interval_s': must be positive"
                )
            if self.mode == "none":
                raise ConfigurationError(
                    "field 'sweep_interval_s': needs an eviction mode - a "
                    "sweeper under mode 'none' would never evict anything"
                )
        object.__setattr__(self, "pinned", frozenset(self.pinned))

    @property
    def enabled(self) -> bool:
        return self.mode != "none"


@dataclass(frozen=True)
class HttpConfig:
    """Knobs for the asyncio HTTP/JSON front-end (:mod:`repro.serving.http`).

    The backpressure contract lives here: ``queue_bound`` caps how many
    admissions may sit behind HTTP at once - the gate sheds beyond it
    with ``503`` + ``Retry-After: retry_after_s`` instead of buffering
    without limit - and ``request_deadline_s`` bounds how long any one
    request may wait before it resolves to ``504``.  ``coalesce_window_s``
    / ``coalesce_max`` shape the request-coalescing window that drains
    concurrent admits into one ``admit_many`` batch.
    """

    #: Bind address; port 0 picks an ephemeral port (tests, CI).
    host: str = "127.0.0.1"
    port: int = 8000
    #: Max admissions in flight behind HTTP before load-shedding.
    queue_bound: int = 64
    #: Seconds the pump waits for more concurrent admits to coalesce
    #: (0 disables coalescing).
    coalesce_window_s: float = 0.005
    #: Cap on admissions per coalesced batch.
    coalesce_max: int = 16
    #: Default per-request deadline; ``deadline_s`` in a body overrides.
    request_deadline_s: float = 30.0
    #: Suggested client back-off carried in 503 ``Retry-After``.
    retry_after_s: int = 1
    max_body_bytes: int = 1 << 20
    #: Ring size of the in-memory structured audit trail.
    audit_log_size: int = 1024
    #: Grace for in-flight responses to flush during drain.
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ConfigurationError(f"port out of range: {self.port}")
        if self.queue_bound < 1:
            raise ConfigurationError("queue_bound must be >= 1")
        if self.coalesce_window_s < 0:
            raise ConfigurationError("coalesce_window_s must be >= 0")
        if self.coalesce_max < 1:
            raise ConfigurationError("coalesce_max must be >= 1")
        if self.request_deadline_s <= 0:
            raise ConfigurationError("request_deadline_s must be positive")
        if self.retry_after_s < 0:
            raise ConfigurationError("retry_after_s must be >= 0")
        if self.max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be >= 1")
        if self.audit_log_size < 1:
            raise ConfigurationError("audit_log_size must be >= 1")
        if self.drain_timeout_s <= 0:
            raise ConfigurationError("drain_timeout_s must be positive")


@dataclass(frozen=True)
class EngineConfig:
    """Everything a :class:`~repro.api.engine.DebloatEngine` needs.

    Subsumes the knobs the old entry points wired by hand:

    * **pipeline** - ``options`` (a full :class:`DebloatOptions`),
      ``scale`` and ``archs`` (which framework build the engine debloats);
    * **cache** - ``use_cache`` (route reports, admission usage, and kernel
      indexes through the two-tier pipeline cache), ``disk_cache`` /
      ``cache_dir`` (explicit disk-tier overrides applied on ``open()``;
      ``None`` leaves the process-wide settings alone);
    * **serving** - admission ``workers`` and ``batch_max`` for the queue
      server, ``verify_admissions``, the ``eviction`` policy, and the
      ``http`` front-end knobs (:class:`HttpConfig`);
    * **fault tolerance** - the worker ``retry`` policy
      (:class:`~repro.utils.retry.RetryPolicy`) and the
      :class:`DegradedModes` knobs;
    * **federation** - ``remote_shards`` (run framework stores in that
      many worker processes, consistent-hash routed by build
      fingerprint; 0 = everything in-process) and ``snapshot_dir`` (root
      for warm store state: each worker keeps its WAL and checkpoints
      under ``<dir>/workers/<name>`` - or under
      ``durability.directory``'s ``workers/`` when there is no
      ``snapshot_dir``, or a temp dir when neither is set - and recovers
      from there after a crash; engine-level export/import defaults to
      ``<dir>/federation``);
    * **durability / liveness** - ``durability``
      (:class:`DurabilityConfig`: per-shard write-ahead log with
      automatic crash recovery on ``open()`` and background
      checkpointing) and ``liveness`` (:class:`LivenessConfig`:
      per-operation deadlines, heartbeat probes, and a per-worker
      circuit breaker for the remote-shard pool).
    """

    scale: float = DEFAULT_SCALE
    archs: tuple[int, ...] = SHIPPED_ARCHITECTURES
    options: DebloatOptions = field(default_factory=DebloatOptions)
    use_cache: bool = True
    disk_cache: bool | None = None
    cache_dir: str | None = None
    verify_admissions: bool = False
    workers: int = 2
    batch_max: int = 1
    eviction: EvictionPolicy = field(default_factory=EvictionPolicy)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degraded_modes: DegradedModes = field(default_factory=DegradedModes)
    http: HttpConfig = field(default_factory=HttpConfig)
    remote_shards: int = 0
    snapshot_dir: str | None = None
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    liveness: LivenessConfig = field(default_factory=LivenessConfig)

    def __post_init__(self) -> None:
        check_scale(self.scale)
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        if self.remote_shards < 0:
            raise ConfigurationError("remote_shards must be >= 0")
        if (
            self.durability.enabled
            and self.durability.directory is None
            and self.snapshot_dir is None
        ):
            raise ConfigurationError(
                "durability needs a directory: set durability.directory "
                "or snapshot_dir"
            )
        object.__setattr__(self, "archs", tuple(self.archs))
