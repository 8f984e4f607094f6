"""Experiment reproductions: one module per paper table/figure.

Run ``python -m repro.experiments all`` (or a specific id like ``table2``)
to regenerate the paper's evaluation artifacts from the full pipeline.  See
``repro.experiments.registry`` for the experiment index and DESIGN.md for
the per-experiment mapping to modules.

Experiments never run a pipeline directly: they request reports through
:func:`repro.experiments.common.pipeline_report` - a thin adapter over the
process-wide :class:`repro.api.DebloatEngine` - which memoizes
``WorkloadDebloatReport`` objects in the process-wide
:data:`~repro.experiments.common.PIPELINE_CACHE`.  The cache key is the
full run identity - ``(workload_id, dataset, batch size, epochs, device,
world size, loading mode, framework, scale, frozen DebloatOptions)`` - so
regenerating every table runs each distinct pipeline exactly once and all
19 experiments share the results.  ``PIPELINE_CACHE.invalidate(...)`` is
the explicit invalidation hook (filter by workload/framework/scale), and
``REPRO_PIPELINE_CACHE=0`` disables caching without changing any output
byte.
"""

from repro.experiments.common import (
    DEFAULT_SCALE,
    PIPELINE_CACHE,
    pipeline_report,
    table1_reports,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "DEFAULT_SCALE",
    "EXPERIMENTS",
    "PIPELINE_CACHE",
    "pipeline_report",
    "run_experiment",
    "table1_reports",
]
