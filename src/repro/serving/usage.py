"""Per-workload usage capture for the serving store.

Admission cost is dominated by the fused instrumented run (kernel detector +
CPU profiler attached to one execution, exactly as ``Debloater.debloat``
composes them).  :func:`capture_usage` performs that run and packages the
result; :func:`cached_usage` routes it through the two-tier
:data:`~repro.experiments.common.PIPELINE_CACHE` (kind ``admission_usage``),
so a store rebuilt in a fresh process re-admits its catalog from disk with
**zero** workload runs - the "warm store survives restarts" property.

Usage sets and run metrics are deterministic functions of (spec, framework
build, cost model), so serving results are byte-identical with the cache
cold, warm, or disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.detect import KernelDetector
from repro.cuda.costs import DEFAULT_COSTS, CostModel
from repro.frameworks.spec import Framework
from repro.loader.profiler import FunctionProfiler
from repro.workloads.metrics import RunMetrics
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

#: Cached-value kind for persisted admission usage (disk tier).
USAGE_KIND = "admission_usage"


@dataclass(frozen=True)
class WorkloadUsage:
    """Everything one workload's instrumented run contributes to a union."""

    workload_id: str
    #: soname -> detected CPU-launching kernel names.
    kernels: dict[str, frozenset[str]]
    #: soname -> sorted used-function symbol indices.
    functions: dict[str, np.ndarray]
    #: Metrics of the fused instrumented run (the verification baseline).
    metrics: RunMetrics

    def kernel_count(self) -> int:
        return sum(len(v) for v in self.kernels.values())

    def function_count(self) -> int:
        return sum(int(v.size) for v in self.functions.values())


def capture_usage(
    spec: WorkloadSpec,
    framework: Framework,
    costs: CostModel = DEFAULT_COSTS,
) -> WorkloadUsage:
    """One fused instrumented run: detector + profiler on the same execution."""
    detector = KernelDetector(costs)
    profiler = FunctionProfiler()
    metrics = WorkloadRunner(
        spec, framework, costs, subscribers=(detector,), profiler=profiler
    ).run()
    return WorkloadUsage(
        workload_id=spec.workload_id,
        kernels=detector.used_kernels(),
        functions=profiler.used_functions(),
        metrics=metrics,
    )


def usage_to_payload(usage: WorkloadUsage) -> dict:
    from repro.core import serialize

    return {
        "workload_id": usage.workload_id,
        "kernels": {
            soname: sorted(names)
            for soname, names in sorted(usage.kernels.items())
        },
        "functions": {
            soname: np.asarray(idx, dtype=np.int64)
            for soname, idx in sorted(usage.functions.items())
        },
        "metrics": serialize.metrics_to_payload(usage.metrics),
    }


def usage_from_payload(payload: dict) -> WorkloadUsage:
    from repro.core import serialize

    return WorkloadUsage(
        workload_id=payload["workload_id"],
        kernels={
            soname: frozenset(names)
            for soname, names in payload["kernels"].items()
        },
        functions={
            soname: np.asarray(idx, dtype=np.int64)
            for soname, idx in payload["functions"].items()
        },
        metrics=serialize.metrics_from_payload(payload["metrics"]),
    )


def cached_usage(
    spec: WorkloadSpec, framework: Framework, cache=None
) -> tuple[WorkloadUsage, bool]:
    """Capture usage through the pipeline cache's value tier.

    Returns ``(usage, from_cache)``.  Only valid for catalog framework
    builds (the disk key includes the framework-build fingerprint derived
    from the catalog generator) under the default cost model; the store
    guards both.  ``cache`` overrides the process-wide cache (the engine
    facade threads its own through the store).
    """
    if cache is None:
        from repro.experiments.common import PIPELINE_CACHE

        cache = PIPELINE_CACHE

    ran = False

    def compute() -> dict:
        nonlocal ran
        ran = True
        return usage_to_payload(capture_usage(spec, framework))

    value = cache.get_or_run_value(
        spec, framework.scale, USAGE_KIND, (), compute
    )
    return usage_from_payload(value), not ran
