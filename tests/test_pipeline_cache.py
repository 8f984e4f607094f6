"""Cross-experiment pipeline cache: keying, invalidation, byte-identity."""

from __future__ import annotations

import pytest

from repro.core.debloat import DebloatOptions
from repro.experiments.common import (
    PIPELINE_CACHE,
    PipelineCache,
    clear_report_cache,
    pipeline_report,
)
from repro.experiments.registry import run_experiment
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE

SPEC_ID = "pytorch/inference/mobilenetv2"


@pytest.fixture()
def cache():
    """A fresh, enabled cache wired in place of the process-wide one.

    Both tiers are pinned on so the assertions hold regardless of the
    ``REPRO_PIPELINE_CACHE`` / ``REPRO_PIPELINE_DISK_CACHE`` environment
    the suite itself runs under.
    """
    from repro.experiments.diskcache import DiskReportCache

    fresh = PipelineCache(enabled=True, disk=DiskReportCache(enabled=True))
    import repro.experiments.common as common

    old = common.PIPELINE_CACHE
    common.PIPELINE_CACHE = fresh
    try:
        yield fresh
    finally:
        common.PIPELINE_CACHE = old


class TestCacheBehaviour:
    def test_hit_returns_same_object(self, cache):
        spec = workload_by_id(SPEC_ID)
        a = pipeline_report(spec, TEST_SCALE)
        b = pipeline_report(spec, TEST_SCALE)
        assert a is b
        assert cache.stats() == {
            "entries": 1,
            "value_entries": 0,
            "hits": 1,
            "misses": 1,
            # The miss also consulted and then populated the disk tier.
            "disk_entries": 1,
            "disk_hits": 0,
            "disk_misses": 1,
            "disk_errors": 0,
            "disk_quarantined": 0,
        }

    def test_scale_is_part_of_the_key(self, cache):
        spec = workload_by_id(SPEC_ID)
        a = pipeline_report(spec, TEST_SCALE)
        b = pipeline_report(spec, TEST_SCALE * 2)
        assert a is not b
        assert len(cache) == 2

    def test_options_are_part_of_the_key(self, cache):
        spec = workload_by_id(SPEC_ID)
        default = pipeline_report(spec, TEST_SCALE)
        ablated = pipeline_report(
            spec,
            TEST_SCALE,
            DebloatOptions(debloat_cpu=False, runtime_comparison_top_n=0),
        )
        assert default is not ablated
        # Equal-valued options objects share an entry.
        again = pipeline_report(
            spec,
            TEST_SCALE,
            DebloatOptions(debloat_cpu=False, runtime_comparison_top_n=0),
        )
        assert ablated is again

    def test_none_options_equal_default_options(self, cache):
        spec = workload_by_id(SPEC_ID)
        assert pipeline_report(spec, TEST_SCALE) is pipeline_report(
            spec, TEST_SCALE, DebloatOptions()
        )

    def test_invalidate_filters(self, cache):
        spec = workload_by_id(SPEC_ID)
        other = workload_by_id("tensorflow/train/mobilenetv2")
        pipeline_report(spec, TEST_SCALE)
        pipeline_report(other, TEST_SCALE)
        assert len(cache) == 2
        # Each eviction drops one in-memory entry AND its disk file.
        assert cache.invalidate(framework="tensorflow") == 2
        assert len(cache) == 1
        assert cache.invalidate(workload_id=SPEC_ID, scale=TEST_SCALE) == 2
        assert len(cache) == 0
        assert len(cache.disk) == 0

    def test_invalidate_forces_recompute(self, cache):
        spec = workload_by_id(SPEC_ID)
        a = pipeline_report(spec, TEST_SCALE)
        assert cache.invalidate() == 2  # memory entry + disk file
        b = pipeline_report(spec, TEST_SCALE)
        assert a is not b

    def test_clear_report_cache_alias(self):
        spec = workload_by_id(SPEC_ID)
        pipeline_report(spec, TEST_SCALE)
        clear_report_cache()
        assert len(PIPELINE_CACHE) == 0

    def test_disabled_cache_stores_nothing(self, cache):
        cache.configure(enabled=False)
        spec = workload_by_id(SPEC_ID)
        a = pipeline_report(spec, TEST_SCALE)
        b = pipeline_report(spec, TEST_SCALE)
        assert a is not b
        assert len(cache) == 0
        assert len(cache.disk) == 0  # disabling tier 0 bypasses tier 1 too


class TestCacheTransparency:
    def test_experiment_output_byte_identical_cache_on_vs_off(self, cache):
        """Acceptance: renderings must not depend on the cache at all."""
        cache.configure(enabled=True)
        with_cache = run_experiment("table4", scale=TEST_SCALE)
        assert cache.stats()["entries"] > 0

        cache.configure(enabled=False)
        without_cache = run_experiment("table4", scale=TEST_SCALE)
        assert with_cache == without_cache

    def test_fresh_flag_invalidates(self, cache):
        spec = workload_by_id(SPEC_ID)
        pipeline_report(spec, TEST_SCALE)
        entries = len(cache)
        assert entries == 1
        run_experiment("table4", scale=TEST_SCALE, fresh=True)
        # the earlier entry was dropped; table4's own pipelines repopulated
        assert cache.stats()["entries"] >= 1
