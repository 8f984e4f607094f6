"""Experiment registry: id -> module, for the CLI and the benchmarks."""

from __future__ import annotations

from types import ModuleType

from repro.experiments import (
    ablation_arch,
    ablation_detector_scaling,
    ablation_granularity,
    fig1_code_distribution,
    fig5_distributions,
    fig6_pareto,
    fig7_reasons,
    sec5_saturation,
    sec5_used_bloat,
    sec46_overhead,
    table1_workloads,
    table2_overall,
    table3_core_libs,
    table4_jaccard_torch,
    table5_runtime,
    table6_h100_sizes,
    table7_h100_runtime,
    table8_e2e_time,
    table9_jaccard_tf,
    table10_distributed,
)
from repro.errors import ConfigurationError
from repro.experiments.common import check_scale

EXPERIMENTS: dict[str, ModuleType] = {
    module.ID: module
    for module in (
        fig1_code_distribution,
        table1_workloads,
        table2_overall,
        table3_core_libs,
        table4_jaccard_torch,
        table5_runtime,
        fig5_distributions,
        fig6_pareto,
        fig7_reasons,
        table6_h100_sizes,
        table7_h100_runtime,
        table8_e2e_time,
        sec46_overhead,
        sec5_used_bloat,
        sec5_saturation,
        table9_jaccard_tf,
        table10_distributed,
        ablation_granularity,
        ablation_arch,
        ablation_detector_scaling,
    )
}


def experiment_module(experiment_id: str):
    """The module implementing ``experiment_id``, or ConfigurationError."""
    module = EXPERIMENTS.get(experiment_id)
    if module is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        )
    return module


def run_experiment(
    experiment_id: str, scale: float | None = None, fresh: bool = False
) -> str:
    """Run one experiment by id and return its rendered output.

    Experiments share pipeline results through
    :data:`repro.experiments.common.PIPELINE_CACHE`; pass ``fresh=True`` to
    invalidate the cache first and force this experiment to recompute every
    pipeline it touches (outputs are byte-identical either way).
    """
    module = experiment_module(experiment_id)
    if fresh:
        from repro.experiments.common import PIPELINE_CACHE

        PIPELINE_CACHE.invalidate()
    if scale is None:
        return module.run()
    return module.run(scale=check_scale(scale))
