"""Disk tier of the pipeline cache: persistence, corruption, invalidation.

The central regression here is the run-count test: a *second simulated
process* (fresh in-memory tier, same disk directory) must perform **zero**
instrumented workload runs - asserted with the same ``WorkloadRunner.run``
counter the PR 1 fused-run test uses - while rendering byte-identical
experiment output.  The corruption suite asserts the failure policy:
truncated files, garbage bytes, and schema-version skew are all silent
misses that recompute and overwrite the stale entry.
"""

from __future__ import annotations

import struct

import pytest

import repro.experiments.common as common
from repro.core import serialize
from repro.core.serialize import reports_equal
from repro.experiments.common import PipelineCache, pipeline_report
from repro.experiments.diskcache import SUFFIX, DiskReportCache
from repro.experiments.registry import run_experiment
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE

SPEC_ID = "pytorch/inference/mobilenetv2"
OTHER_ID = "tensorflow/train/mobilenetv2"


@pytest.fixture()
def cache():
    """A fresh two-tier cache (both tiers pinned on) wired in place of the
    process-wide one.

    The disk directory comes from the per-test ``REPRO_PIPELINE_CACHE_DIR``
    (see ``conftest.py``), so each test starts disk-cold.
    """
    fresh = PipelineCache(enabled=True, disk=DiskReportCache(enabled=True))
    old = common.PIPELINE_CACHE
    common.PIPELINE_CACHE = fresh
    try:
        yield fresh
    finally:
        common.PIPELINE_CACHE = old


def new_process_cache() -> PipelineCache:
    """Simulate a new process: empty memory tier, same disk directory."""
    fresh = PipelineCache(enabled=True, disk=DiskReportCache(enabled=True))
    common.PIPELINE_CACHE = fresh
    return fresh


@pytest.fixture()
def run_counter(monkeypatch):
    """Count WorkloadRunner.run invocations (the PR 1 fused-run counter)."""
    runs: list[WorkloadRunner] = []
    original = WorkloadRunner.run

    def counting_run(runner_self):
        runs.append(runner_self)
        return original(runner_self)

    monkeypatch.setattr(WorkloadRunner, "run", counting_run)
    return runs


class TestWarmProcess:
    def test_second_process_zero_workload_runs(self, cache, run_counter):
        """Warm disk cache => the whole experiment is pure rendering."""
        first = run_experiment("table4", scale=TEST_SCALE)
        assert len(run_counter) > 0
        assert len(cache.disk) > 0

        warm = new_process_cache()
        run_counter.clear()
        second = run_experiment("table4", scale=TEST_SCALE)
        assert run_counter == []  # ZERO instrumented/baseline/verify runs
        assert second == first  # byte-identical rendering
        assert warm.stats()["disk_hits"] > 0
        assert warm.stats()["misses"] == 0

    def test_warm_report_is_equal_not_identical(self, cache):
        a = pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        warm = new_process_cache()
        b = pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        assert b is not a  # deserialized, not shared
        assert reports_equal(a, b)
        assert warm.stats()["disk_hits"] == 1

    def test_output_identical_cold_warm_disabled(self, cache):
        cold = run_experiment("fig7", scale=TEST_SCALE)
        new_process_cache()
        warm = run_experiment("fig7", scale=TEST_SCALE)
        disabled = PipelineCache(enabled=False)
        common.PIPELINE_CACHE = disabled
        uncached = run_experiment("fig7", scale=TEST_SCALE)
        assert cold == warm == uncached

    def test_disk_tier_disabled_by_env_writes_nothing(self, monkeypatch):
        # An env-driven cache (no pinned disk flag) honours the variable.
        monkeypatch.setenv("REPRO_PIPELINE_DISK_CACHE", "0")
        fresh = PipelineCache(enabled=True)
        monkeypatch.setattr(common, "PIPELINE_CACHE", fresh)
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        assert len(fresh.disk) == 0
        assert fresh.stats()["disk_misses"] == 0  # never even consulted

    def test_disk_tier_disabled_by_configure_writes_nothing(self, cache):
        cache.configure(disk_enabled=False)
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        assert len(cache.disk) == 0
        assert cache.stats()["disk_misses"] == 0

    def test_scale_is_part_of_the_disk_key(self, cache, run_counter):
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        new_process_cache()
        run_counter.clear()
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE * 2)
        assert len(run_counter) > 0  # different scale: disk miss, recompute

    def test_value_tier_keys_on_archs(self, cache):
        """Different framework builds (arch lists) never share a value."""
        spec = workload_by_id(SPEC_ID)
        calls: list[int] = []

        def compute():
            calls.append(1)
            return {"n": len(calls)}

        v_multi = cache.get_or_run_value(spec, TEST_SCALE, "t", (), compute)
        v_single = cache.get_or_run_value(
            spec, TEST_SCALE, "t", (), compute, archs=(75,)
        )
        assert len(calls) == 2
        assert v_multi != v_single
        # ... and each is served from memory on repeat.
        assert (
            cache.get_or_run_value(spec, TEST_SCALE, "t", (), compute)
            == v_multi
        )
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "experiment", ["sec46", "ablation_arch", "ablation_granularity"]
    )
    def test_value_tier_experiments_warm_to_zero_runs(
        self, cache, run_counter, experiment
    ):
        """Experiments outside pipeline_report (tool overheads, ablations) also
        persist: their cached-value / archs-keyed entries serve a warm
        process without a single workload run."""
        first = run_experiment(experiment, scale=TEST_SCALE)
        assert len(run_counter) > 0
        new_process_cache()
        run_counter.clear()
        second = run_experiment(experiment, scale=TEST_SCALE)
        assert run_counter == []
        assert second == first


def _entry_paths(cache: PipelineCache):
    paths = cache.disk.entries()
    assert paths, "expected at least one persisted entry"
    return paths


class TestCorruptionAndSkew:
    """Bad cache bytes are misses that recompute and overwrite, never errors."""

    def _populate(self, cache) -> None:
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)

    def _assert_recovers(self, cache, run_counter):
        """A fresh process recomputes and heals the mangled entry."""
        warm = new_process_cache()
        run_counter.clear()
        report = pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        assert len(run_counter) > 0  # fell back to a real pipeline run
        assert warm.stats()["disk_errors"] >= 1
        # ... and the stale entry was overwritten with a readable one.
        (path,) = _entry_paths(warm)
        assert reports_equal(serialize.loads(path.read_bytes()), report)

    def test_truncated_file_is_a_miss(self, cache, run_counter):
        self._populate(cache)
        (path,) = _entry_paths(cache)
        path.write_bytes(path.read_bytes()[: 100])
        self._assert_recovers(cache, run_counter)

    def test_garbage_bytes_are_a_miss(self, cache, run_counter):
        self._populate(cache)
        (path,) = _entry_paths(cache)
        path.write_bytes(b"\xde\xad\xbe\xef" * 1024)
        self._assert_recovers(cache, run_counter)

    def test_flipped_payload_byte_fails_crc(self, cache, run_counter):
        self._populate(cache)
        (path,) = _entry_paths(cache)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        self._assert_recovers(cache, run_counter)

    def test_bumped_schema_version_is_a_miss(self, cache, run_counter):
        self._populate(cache)
        (path,) = _entry_paths(cache)
        data = bytearray(path.read_bytes())
        # The container's version field lives right after the 4-byte magic.
        struct.pack_into("<I", data, 4, serialize.SCHEMA_VERSION + 1)
        path.write_bytes(bytes(data))
        self._assert_recovers(cache, run_counter)

    def test_future_writer_schema_is_a_miss(self, cache):
        """A report written by a *newer* schema must not be half-read."""
        self._populate(cache)
        (path,) = _entry_paths(cache)
        original = serialize.SCHEMA_VERSION
        try:
            serialize.SCHEMA_VERSION = original + 1
            path.write_bytes(
                serialize.dumps(
                    pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
                )
            )
        finally:
            serialize.SCHEMA_VERSION = original
        warm = new_process_cache()
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        assert warm.stats()["disk_errors"] >= 1


class TestDiskInvalidation:
    def test_invalidate_removes_matching_files(self, cache):
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        pipeline_report(workload_by_id(OTHER_ID), TEST_SCALE)
        assert len(cache.disk) == 2

        removed = cache.invalidate(workload_id=SPEC_ID)
        assert removed == 2  # one memory entry + one disk file
        remaining = cache.disk.entries()
        assert len(remaining) == 1
        assert "tensorflow" in remaining[0].name

        # The surviving entry still serves a warm process.
        warm = new_process_cache()
        pipeline_report(workload_by_id(OTHER_ID), TEST_SCALE)
        assert warm.stats()["disk_hits"] == 1

    def test_invalidate_by_framework_and_scale(self, cache):
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE * 2)
        assert len(cache.disk) == 2
        assert cache.invalidate(scale=TEST_SCALE) == 2
        assert len(cache.disk) == 1
        assert cache.invalidate(framework="pytorch") == 2
        assert len(cache.disk) == 0

    def test_unfiltered_invalidate_clears_directory(self, cache):
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        # Unparseable junk in the cache dir goes only on a full wipe.
        junk = cache.disk.directory / "not-a-real-entry.rpdc"
        junk.write_bytes(b"junk")
        assert cache.invalidate(workload_id=OTHER_ID) == 0
        assert junk.exists()
        assert cache.invalidate() >= 2
        assert len(cache.disk) == 0
        assert not junk.exists()

    def test_unfiltered_invalidate_sweeps_orphan_temp_files(self, cache):
        """Temp files from crashed writers don't match the entry glob but
        must still go on a full wipe."""
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        orphan = cache.disk.directory / f"dead{SUFFIX}.tmp12345"
        orphan.write_bytes(b"partial write")
        assert cache.invalidate() >= 3  # entry + memory + orphan
        assert not orphan.exists()

    def test_corrupt_entries_are_removable(self, cache):
        """Invalidation never deserializes, so it can drop corrupt files."""
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        (path,) = _entry_paths(cache)
        path.write_bytes(b"garbage")
        assert cache.invalidate(workload_id=SPEC_ID) == 2
        assert len(cache.disk) == 0


class TestDirectoryResolution:
    def test_env_dir_resolved_per_operation(self, cache, tmp_path, monkeypatch):
        before = cache.disk.directory
        monkeypatch.setenv("REPRO_PIPELINE_CACHE_DIR", str(tmp_path / "other"))
        assert cache.disk.directory != before
        assert cache.disk.directory == tmp_path / "other"

    def test_explicit_dir_pins(self, cache, tmp_path, monkeypatch):
        cache.configure(cache_dir=tmp_path / "pinned")
        monkeypatch.setenv("REPRO_PIPELINE_CACHE_DIR", str(tmp_path / "env"))
        assert cache.disk.directory == tmp_path / "pinned"
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        assert len(list((tmp_path / "pinned").glob("*.rpdc"))) == 1

    def test_atomic_write_leaves_no_temp_files(self, cache):
        pipeline_report(workload_by_id(SPEC_ID), TEST_SCALE)
        leftovers = [
            p
            for p in cache.disk.directory.iterdir()
            if not p.name.endswith(SUFFIX)
        ]
        assert leftovers == []
