"""Unified public API: one typed facade over detect/locate/compact/verify.

Quickstart::

    from repro.api import AdmitRequest, DebloatEngine, DebloatRequest, EngineConfig

    with DebloatEngine(EngineConfig(scale=0.125)) as engine:
        result = engine.debloat(
            DebloatRequest(workload_id="pytorch/train/mobilenetv2")
        )
        print(result.report.file_reduction_pct, result.cache_source)
        engine.admit(AdmitRequest(workload_id="pytorch/train/transformer"))
        print(engine.snapshot().frameworks)

The engine hosts a :class:`~repro.api.federation.StoreFederation` - one
:class:`~repro.serving.store.DebloatStore` shard per framework, routed by
each request's spec - and applies the configured
:class:`~repro.api.config.EvictionPolicy` (ttl/lru/pinned) on sweeps.  The
experiments' ``pipeline_report`` and the CLIs are thin adapters over this
package.
"""

from repro.api.config import (
    EVICTION_MODES,
    DegradedModes,
    EngineConfig,
    EvictionPolicy,
    HttpConfig,
)
from repro.api.engine import DebloatEngine, default_engine
from repro.api.federation import (
    FederationShard,
    FederationSnapshot,
    ShardSnapshot,
    StoreFederation,
    SweptWorkload,
)
from repro.api.requests import (
    AdmitRequest,
    DebloatRequest,
    EngineResult,
    EvictRequest,
    InspectRequest,
)

__all__ = [
    "AdmitRequest",
    "DebloatEngine",
    "DebloatRequest",
    "DegradedModes",
    "EVICTION_MODES",
    "EngineConfig",
    "EngineResult",
    "EvictRequest",
    "EvictionPolicy",
    "FederationShard",
    "FederationSnapshot",
    "HttpConfig",
    "InspectRequest",
    "ShardSnapshot",
    "StoreFederation",
    "SweptWorkload",
    "default_engine",
]
