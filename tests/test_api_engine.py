"""Tests for the `repro.api` facade: engine lifecycle, typed requests,
federated multi-framework serving, traffic-driven eviction, deprecation
shims, and the persisted kernel-index tier."""

from __future__ import annotations

import time

import pytest

from repro.api import (
    AdmitRequest,
    DebloatEngine,
    DebloatRequest,
    EngineConfig,
    EvictRequest,
    EvictionPolicy,
    InspectRequest,
)
from repro.core.debloat import DebloatOptions
from repro.errors import ConfigurationError, UsageError
from repro.frameworks.catalog import framework_build_fingerprint, get_framework
from repro.serving.store import DebloatStore
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE, build_small_library

OPTS = DebloatOptions(runtime_comparison_top_n=0)

PT_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]
TF_ID = "tensorflow/train/mobilenetv2"


def pt_specs():
    return [workload_by_id(wid) for wid in PT_IDS]


def fed_config(**kwargs) -> EngineConfig:
    defaults = dict(scale=TEST_SCALE, options=OPTS, use_cache=False)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def assert_same_libraries(a: dict, b: dict) -> None:
    assert sorted(a) == sorted(b)
    for soname, d in a.items():
        other = b[soname]
        assert d.lib.data == other.lib.data, soname
        assert d.removed_cpu_ranges == other.removed_cpu_ranges, soname
        assert d.removed_gpu_ranges == other.removed_gpu_ranges, soname


class TestLifecycle:
    def test_requests_require_open(self):
        engine = DebloatEngine(fed_config())
        with pytest.raises(UsageError):
            engine.debloat(DebloatRequest(workload_id=PT_IDS[0]))
        with pytest.raises(UsageError):
            engine.federation

    def test_context_manager_opens_and_closes(self):
        with DebloatEngine(fed_config()) as engine:
            assert not engine.closed
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
        assert engine.closed
        with pytest.raises(UsageError):
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))

    def test_closed_engine_cannot_reopen(self):
        engine = DebloatEngine(fed_config()).open()
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(UsageError):
            engine.open()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(scale=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(workers=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(batch_max=0)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            EvictionPolicy(mode="fifo")
        with pytest.raises(ConfigurationError):
            EvictionPolicy(mode="ttl")
        with pytest.raises(ConfigurationError):
            EvictionPolicy(mode="lru")
        with pytest.raises(ConfigurationError):
            EvictionPolicy(mode="ttl", ttl_s=1.0, sweep_interval_s=0)
        with pytest.raises(ConfigurationError):
            # A sweeper under mode "none" could never evict anything.
            EvictionPolicy(sweep_interval_s=60.0)

    def test_request_validation(self):
        with pytest.raises(UsageError):
            DebloatRequest().resolve_spec()
        with pytest.raises(UsageError):
            AdmitRequest(
                spec=pt_specs()[0], workload_id=PT_IDS[0]
            ).resolve_spec()

    def test_result_accessors_check_kind(self):
        with DebloatEngine(fed_config()) as engine:
            result = engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
        assert result.admission.workload_id == PT_IDS[0]
        with pytest.raises(UsageError):
            result.report


class TestDebloatThroughEngine:
    def test_matches_pipeline_report_and_provenance(self, monkeypatch):
        from repro.experiments import common as excommon

        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=True)
        )
        spec = workload_by_id(PT_IDS[1])
        with DebloatEngine(EngineConfig(scale=TEST_SCALE)) as engine:
            first = engine.debloat(DebloatRequest(spec=spec))
            again = engine.debloat(DebloatRequest(spec=spec))
            assert first.cache_source in ("computed", "disk")
            assert again.cache_source == "memory"
            assert again.report is first.report
            assert again.wall_s >= 0
            assert first.fingerprint == framework_build_fingerprint(
                "pytorch", TEST_SCALE
            )
            # The experiments' helper is a thin adapter over the same
            # engine-backed cache path.
            assert excommon.pipeline_report(spec, TEST_SCALE) is first.report

    def test_uncached_engine_computes_identical_report(self):
        from repro.core.serialize import reports_equal
        from repro.experiments import common as excommon

        spec = workload_by_id(PT_IDS[1])
        with DebloatEngine(
            EngineConfig(scale=TEST_SCALE, use_cache=False)
        ) as engine:
            result = engine.debloat(DebloatRequest(spec=spec))
        assert result.cache_source == "computed"
        assert reports_equal(
            result.report, excommon.pipeline_report(spec, TEST_SCALE)
        )


class TestFederationRouting:
    def test_admissions_route_by_framework(self, pytorch, tensorflow):
        with DebloatEngine(fed_config()) as engine:
            for wid in (PT_IDS[0], TF_ID, PT_IDS[1]):
                result = engine.admit(AdmitRequest(workload_id=wid))
                assert result.framework == wid.split("/")[0]
            snapshot = engine.snapshot()
        assert snapshot.frameworks == ("pytorch", "tensorflow")
        assert snapshot.shards["pytorch"].store.workload_ids == (
            PT_IDS[0], PT_IDS[1],
        )
        assert snapshot.shards["tensorflow"].store.workload_ids == (TF_ID,)
        assert snapshot.workload_count == 3
        assert snapshot.shards["pytorch"].fingerprint == (
            framework_build_fingerprint("pytorch", TEST_SCALE)
        )

    def test_shard_state_matches_standalone_store(self, pytorch):
        with DebloatEngine(fed_config()) as engine:
            for spec in pt_specs():
                engine.admit(AdmitRequest(spec=spec))
            shard = engine.federation.shard("pytorch")
            report = engine.report("pytorch")
        standalone = DebloatStore(pytorch, OPTS)
        for spec in pt_specs():
            standalone.admit(spec)
        assert_same_libraries(
            shard.store.debloated_libraries(),
            standalone.debloated_libraries(),
        )
        assert report.union_report.workload_ids == PT_IDS
        assert report.generation == standalone.generation

    def test_report_of_unknown_shard_raises(self):
        with DebloatEngine(fed_config()) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            with pytest.raises(UsageError):
                engine.report("tensorflow")

    def test_admit_many_preserves_order_across_shards(self, pytorch, tensorflow):
        specs = [
            workload_by_id(PT_IDS[0]),
            workload_by_id(TF_ID),
            workload_by_id(PT_IDS[1]),
        ]
        with DebloatEngine(fed_config()) as engine:
            results = engine.federation.admit_many(specs)
        assert [r.workload_id for r in results] == [
            PT_IDS[0], TF_ID, PT_IDS[1],
        ]

    def test_server_fronts_the_federation(self, pytorch, tensorflow):
        with DebloatEngine(fed_config(workers=2)) as engine:
            server = engine.server()
            tickets = [
                server.submit(workload_by_id(wid))
                for wid in (PT_IDS[0], TF_ID)
            ]
            results = [t.result(60) for t in tickets]
            assert [r.workload_id for r in results] == [PT_IDS[0], TF_ID]
            stats = engine.stats()
        assert stats["served"] == 2
        assert stats["shards"] == 2

    def test_engine_cache_override_reaches_serving(self, monkeypatch):
        """An injected cache serves the WHOLE engine - admissions and
        kernel indexes included - never the process-wide one."""
        from repro.experiments import common as excommon

        global_cache = excommon.PipelineCache(enabled=True)
        monkeypatch.setattr(excommon, "PIPELINE_CACHE", global_cache)
        private = excommon.PipelineCache(enabled=True)
        with DebloatEngine(
            EngineConfig(scale=TEST_SCALE), cache=private
        ) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
        assert private.stats()["value_entries"] >= 1
        assert global_cache.stats()["value_entries"] == 0
        assert global_cache.stats()["misses"] == 0

    def test_ensure_shard_fingerprint_reflects_actual_build(self):
        """A hosted non-default build is fingerprinted by ITS generation
        key, not by the engine config's archs."""
        ablation = get_framework("pytorch", scale=TEST_SCALE, archs=(75,))
        with DebloatEngine(fed_config()) as engine:
            shard = engine.federation.ensure_shard(ablation)
        assert shard.fingerprint == framework_build_fingerprint(
            "pytorch", TEST_SCALE, (75,)
        )

    def test_conflicting_shard_instance_rejected(self, pytorch):
        other = get_framework("pytorch", scale=TEST_SCALE, archs=(75,))
        with DebloatEngine(fed_config()) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            with pytest.raises(UsageError):
                engine.federation.ensure_shard(other)


class TestEvictionPolicy:
    def test_ttl_evicts_idle_but_not_pinned(self, pytorch):
        clock = FakeClock()
        config = fed_config(
            eviction=EvictionPolicy(mode="ttl", ttl_s=10.0)
        )
        with DebloatEngine(config, clock=clock) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            clock.now = 5.0
            engine.admit(AdmitRequest(workload_id=PT_IDS[1], pinned=True))
            clock.now = 8.0
            assert engine.sweep().swept == []  # nothing idle past TTL yet
            clock.now = 12.0
            swept = engine.sweep().swept
            assert [(s.workload_id, s.reason) for s in swept] == [
                (PT_IDS[0], "ttl")
            ]
            assert swept[0].idle_s == pytest.approx(12.0)
            clock.now = 100.0
            assert engine.sweep().swept == []  # pinned survives forever
            remaining = engine.snapshot().shards["pytorch"].store
        assert remaining.workload_ids == (PT_IDS[1],)

    def test_read_traffic_touch_refreshes_ttl(self, pytorch):
        clock = FakeClock()
        config = fed_config(
            eviction=EvictionPolicy(mode="ttl", ttl_s=10.0)
        )
        with DebloatEngine(config, clock=clock) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            clock.now = 8.0
            assert engine.touch(PT_IDS[0]) == 1
            assert engine.touch("pytorch/never/admitted") == 0
            clock.now = 12.0
            assert engine.sweep().swept == []  # read traffic kept it warm
            clock.now = 20.0
            assert [s.workload_id for s in engine.sweep().swept] == [
                PT_IDS[0]
            ]

    def test_traffic_refreshes_ttl(self, pytorch):
        clock = FakeClock()
        config = fed_config(
            eviction=EvictionPolicy(mode="ttl", ttl_s=10.0)
        )
        with DebloatEngine(config, clock=clock) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            clock.now = 8.0
            # A duplicate re-admission is request traffic: it refreshes
            # the last-served stamp without any workload run.
            dup = engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            assert dup.admission.duplicate
            clock.now = 12.0
            assert engine.sweep().swept == []
            clock.now = 20.0
            assert [s.workload_id for s in engine.sweep().swept] == [
                PT_IDS[0]
            ]

    def test_lru_caps_per_shard(self, pytorch):
        clock = FakeClock()
        config = fed_config(
            eviction=EvictionPolicy(mode="lru", max_workloads=2)
        )
        with DebloatEngine(config, clock=clock) as engine:
            for i, wid in enumerate(PT_IDS):
                clock.now = float(i)
                engine.admit(AdmitRequest(workload_id=wid))
            clock.now = 10.0
            swept = engine.sweep().swept
            assert [(s.workload_id, s.reason) for s in swept] == [
                (PT_IDS[0], "lru")
            ]
            store = engine.snapshot().shards["pytorch"].store
        assert store.workload_ids == (PT_IDS[1], PT_IDS[2])

    def test_pinned_mode_keeps_only_pins(self, pytorch):
        config = fed_config(eviction=EvictionPolicy(mode="pinned"))
        with DebloatEngine(config) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0], pinned=True))
            engine.admit(AdmitRequest(workload_id=PT_IDS[1]))
            swept = engine.sweep().swept
            assert [(s.workload_id, s.reason) for s in swept] == [
                (PT_IDS[1], "unpinned")
            ]
            store = engine.snapshot().shards["pytorch"].store
        assert store.workload_ids == (PT_IDS[0],)

    def test_eviction_rebuilds_only_shrunk_shards(self, pytorch, tensorflow):
        """A sweep recompacts only libraries whose union shrank, leaves
        untouched libraries' objects identical, and never touches the
        other framework's shard."""
        clock = FakeClock()
        config = fed_config(
            eviction=EvictionPolicy(mode="ttl", ttl_s=10.0)
        )
        with DebloatEngine(config, clock=clock) as engine:
            engine.admit(AdmitRequest(workload_id=TF_ID, pinned=True))
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            clock.now = 5.0
            engine.admit(AdmitRequest(workload_id=PT_IDS[1], pinned=True))
            before_pt = dict(
                engine.snapshot().shards["pytorch"].store.libraries
            )
            tf_generation = engine.snapshot().shards["tensorflow"].store.generation
            clock.now = 12.0
            swept = engine.sweep().swept
            assert [s.workload_id for s in swept] == [PT_IDS[0]]
            result = swept[0].result
            after = engine.snapshot().shards["pytorch"].store
            # Only shrunk libraries were rebuilt; everything else is the
            # same object as before the sweep.
            untouched = (
                set(after.libraries)
                - set(result.recompacted)
                - set(result.dropped_libraries)
            )
            assert untouched
            for soname in untouched:
                assert after.libraries[soname] is before_pt[soname], soname
            assert engine.snapshot().shards["tensorflow"].store.generation == (
                tf_generation
            )
        # The swept shard now equals a store that never saw the evicted
        # workload.
        fresh = DebloatStore(pytorch, OPTS)
        fresh.admit(workload_by_id(PT_IDS[1]))
        assert_same_libraries(dict(after.libraries), fresh.debloated_libraries())

    def test_explicit_evict_across_shards(self, pytorch, tensorflow):
        with DebloatEngine(fed_config()) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            engine.admit(AdmitRequest(workload_id=TF_ID))
            result = engine.evict(EvictRequest(workload_id=PT_IDS[0]))
            assert list(result.evictions) == ["pytorch"]
            with pytest.raises(UsageError):
                engine.evict(EvictRequest(workload_id=PT_IDS[0]))

    def test_background_sweeper_evicts(self, pytorch):
        config = fed_config(
            eviction=EvictionPolicy(
                mode="ttl", ttl_s=0.0, sweep_interval_s=0.02
            )
        )
        with DebloatEngine(config) as engine:
            server = engine.server()
            server.admit(workload_by_id(PT_IDS[0]), timeout=60)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not engine.snapshot().shards["pytorch"].store.workload_ids:
                    break
                time.sleep(0.01)
            store = engine.snapshot().shards["pytorch"].store
            stats = server.stats()
        assert store.workload_ids == ()
        assert stats["sweeps_evicted"] >= 1

    def test_sweeper_needs_sweepable_target(self, pytorch):
        from repro.serving.server import DebloatServer

        with pytest.raises(UsageError):
            DebloatServer(
                DebloatStore(pytorch, OPTS), sweep_interval_s=0.1
            )


class TestInspectThroughEngine:
    def test_text_matches_legacy_rendering(self, pytorch):
        from repro.tools.inspect import (
            describe_library,
            kernel_listing,
            readelf_sections,
        )

        lib = pytorch.libraries["libtorch_cuda.so"]
        with DebloatEngine(EngineConfig(scale=TEST_SCALE)) as engine:
            result = engine.inspect(InspectRequest(
                framework="pytorch", soname="libtorch_cuda.so",
                sections=True, kernels=True,
            ))
        expected = "\n\n".join([
            describe_library(lib),
            readelf_sections(lib),
            kernel_listing(lib),
        ])
        assert result.text == expected
        assert result.cache_source in ("memory", "disk", "computed")

    def test_unknown_library_raises_with_listing(self):
        with DebloatEngine(EngineConfig(scale=TEST_SCALE)) as engine:
            with pytest.raises(UsageError) as exc_info:
                engine.inspect(
                    InspectRequest(framework="pytorch", soname="nope.so")
                )
        assert "libtorch_cuda.so" in exc_info.value.available


class TestPersistedKernelIndex:
    def test_disk_round_trip_skips_the_fatbin_walk(self, monkeypatch):
        from repro.core import kindex
        from repro.core.serialize import payload_equal
        from repro.experiments.common import PipelineCache

        cache = PipelineCache(enabled=True)
        lib_a = build_small_library()
        index_a, source_a = cache.library_index(lib_a, "pytorch", TEST_SCALE)
        assert source_a == "computed"
        assert cache.library_index(lib_a, "pytorch", TEST_SCALE)[1] == "memory"

        # A fresh instance (a "new process") must load from disk without
        # ever walking the fatbin or hashing a kernel name.
        lib_b = build_small_library()

        def boom(lib):
            raise AssertionError("fatbin walk on a warm index cache")

        monkeypatch.setattr(kindex, "build_index", boom)
        index_b, source_b = cache.library_index(lib_b, "pytorch", TEST_SCALE)
        assert source_b == "disk"
        assert payload_equal(
            kindex.index_to_payload(index_a), kindex.index_to_payload(index_b)
        )
        assert index_b.name_to_id == index_a.name_to_id

    def test_loaded_index_locates_identically(self):
        from repro.core import kindex
        from repro.core.locate import KernelLocator
        from repro.experiments.common import PipelineCache

        cache = PipelineCache(enabled=True)
        lib_a = build_small_library()
        index_a, _ = cache.library_index(lib_a, "pytorch", TEST_SCALE)
        lib_b = build_small_library()
        index_b, source = cache.library_index(lib_b, "pytorch", TEST_SCALE)
        assert source == "disk"
        used = frozenset({"k_0_0", "k_1_1"})
        locator = KernelLocator()
        full = locator.locate(lib_a, used, 75, index=index_a)
        warm = locator.locate(lib_b, used, 75, index=index_b)
        assert full.decisions == warm.decisions
        assert full.retain_ranges == warm.retain_ranges
        assert full.remove_ranges == warm.remove_ranges

    def test_corrupted_entry_recomputes_and_overwrites(self):
        from repro.experiments.common import PipelineCache

        cache = PipelineCache(enabled=True)
        lib_a = build_small_library()
        cache.library_index(lib_a, "pytorch", TEST_SCALE)
        entries = [
            p for p in cache.disk.entries() if "kindex_" in p.name
        ]
        assert len(entries) == 1
        entries[0].write_bytes(b"garbage" * 10)

        lib_b = build_small_library()
        index, source = cache.library_index(lib_b, "pytorch", TEST_SCALE)
        assert source == "computed"
        assert cache.disk.errors >= 1
        # The recompute overwrote the damaged entry: a third instance
        # loads clean.
        lib_c = build_small_library()
        assert cache.library_index(lib_c, "pytorch", TEST_SCALE)[1] == "disk"

    def test_cross_wired_entry_is_rejected(self):
        """An entry that decodes but does not match the library's parsed
        fatbin (same soname, different build) recomputes."""
        from repro.experiments.common import PipelineCache

        cache = PipelineCache(enabled=True)
        small = build_small_library()
        cache.library_index(small, "pytorch", TEST_SCALE)
        bigger = build_small_library(cubins_per_arch=3)  # same soname
        index, source = cache.library_index(bigger, "pytorch", TEST_SCALE)
        assert source == "computed"
        assert index.n == bigger.fatbin.element_count()

    def test_store_routes_indexes_through_the_persisted_tier(self, monkeypatch):
        from repro.experiments import common as excommon

        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=True)
        )
        fw = get_framework("pytorch", scale=TEST_SCALE)
        store = DebloatStore(fw, use_cache=True)
        store.admit(workload_by_id(PT_IDS[0]))
        kindex_entries = [
            p
            for p in excommon.PIPELINE_CACHE.disk.entries()
            if p.name.startswith("pytorch--kindex_")
        ]
        assert kindex_entries  # every located GPU library persisted
