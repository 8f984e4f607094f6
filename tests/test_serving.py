"""Tests for the serving subsystem: DebloatStore delta admission,
snapshots/concurrency, eviction, cache-backed warm restarts, and the
DebloatServer front-end."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.debloat import DebloatOptions
from repro.core.locate import KernelLocator
from repro.errors import UsageError
from repro.frameworks.catalog import get_framework
from repro.serving import DebloatServer, DebloatStore
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE

OPTS = DebloatOptions(runtime_comparison_top_n=0)

SPEC_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]


def specs():
    return [workload_by_id(wid) for wid in SPEC_IDS]


def engine_union(framework, options, spec_list):
    """Admit ``spec_list`` into a fresh uncached engine shard hosting
    ``framework``; return the shard's union report and libraries."""
    from repro.api import AdmitRequest, DebloatEngine, EngineConfig

    config = EngineConfig(
        scale=framework.scale, options=options, use_cache=False
    )
    with DebloatEngine(config) as engine:
        shard = engine.federation.ensure_shard(framework)
        for spec in spec_list:
            engine.admit(AdmitRequest(spec=spec))
        report = engine.report(framework.name).union_report
        return report, shard.store.debloated_libraries()


def assert_same_libraries(a: dict, b: dict) -> None:
    assert sorted(a) == sorted(b)
    for soname, d in a.items():
        other = b[soname]
        assert d.lib.data == other.lib.data, soname
        assert d.removed_cpu_ranges == other.removed_cpu_ranges, soname
        assert d.removed_gpu_ranges == other.removed_gpu_ranges, soname
        assert d.removed_elements == other.removed_elements, soname
        assert d.removed_functions == other.removed_functions, soname


class TestDeltaAdmission:
    @pytest.fixture(scope="class")
    def store(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.results = [store.admit(s) for s in specs()]
        return store

    def test_first_admission_processes_everything(self, store):
        first = store.results[0]
        assert first.untouched == ()
        assert set(first.added_libraries) == set(first.recompacted)
        assert first.new_kernels > 0

    def test_later_admissions_are_deltas(self, store):
        second = store.results[1]
        assert len(second.untouched) > 0
        # Only libraries whose union grew were re-compacted.
        assert len(second.recompacted) < len(store.results[0].recompacted)

    def test_incremental_matches_one_shot_union(self, store, pytorch):
        _, one_shot = engine_union(pytorch, OPTS, specs())
        assert_same_libraries(store.debloated_libraries(), one_shot)

    def test_order_independence(self, pytorch):
        forward = DebloatStore(pytorch, OPTS)
        for s in specs():
            forward.admit(s)
        backward = DebloatStore(pytorch, OPTS)
        for s in reversed(specs()):
            backward.admit(s)
        assert_same_libraries(
            forward.debloated_libraries(), backward.debloated_libraries()
        )

    def test_report_matches_engine_union(self, store, pytorch):
        report = store.report()
        expected, _ = engine_union(pytorch, OPTS, specs())
        assert report.workload_ids == expected.workload_ids
        assert report.marginal_new_kernels == expected.marginal_new_kernels
        assert report.libraries == expected.libraries
        assert len(report.verifications) == len(expected.verifications)
        for got, want in zip(report.verifications, expected.verifications):
            assert got.ok == want.ok
            assert got.original_digest == want.original_digest
            assert got.debloated_digest == want.debloated_digest

    def test_admission_idempotence(self, store):
        """Re-admitting a served workload: zero kernels, zero re-compacts."""
        before_gen = store.generation
        res = store.admit(specs()[0])
        assert res.duplicate
        assert res.detection_cached  # no new instrumented run
        assert res.new_kernels == 0
        assert res.new_functions == 0
        assert res.recompacted == ()
        assert res.added_libraries == ()
        assert res.generation == before_gen + 1  # the admission is recorded

    def test_verify_on_admit(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        res = store.admit(specs()[0], verify=True)
        assert res.verification is not None and res.verification.ok


class TestDeltaLocateEquivalence:
    def test_locate_delta_equals_full_locate(self, pytorch, mobilenet_train_spec):
        from repro.serving.usage import capture_usage

        usage_a = capture_usage(mobilenet_train_spec, pytorch)
        usage_b = capture_usage(
            workload_by_id("pytorch/train/transformer"), pytorch
        )
        locator = KernelLocator()
        arch = mobilenet_train_spec.devices()[0].sm_arch
        for lib in pytorch.libraries_for(
            mobilenet_train_spec.features
            | workload_by_id("pytorch/train/transformer").features
        ):
            if lib.fatbin is None:
                continue
            first = usage_a.kernels.get(lib.soname, frozenset())
            both = first | usage_b.kernels.get(lib.soname, frozenset())
            prev = locator.locate(lib, frozenset(first), arch)
            delta = locator.locate_delta(
                lib, prev, frozenset(both - first)
            )
            full = locator.locate(lib, frozenset(both), arch)
            assert delta.decisions == full.decisions, lib.soname
            assert delta.retain_ranges == full.retain_ranges
            assert delta.remove_ranges == full.remove_ranges


class TestSaturationSeries:
    def test_ordering_and_determinism(self, pytorch):
        reports = [engine_union(pytorch, OPTS, specs())[0] for _ in range(2)]
        series_a = reports[0].saturation_series()
        series_b = reports[1].saturation_series()
        assert series_a == series_b  # deterministic across runs
        assert [wid for wid, _ in series_a] == SPEC_IDS  # admission order
        assert series_a[0][1] > series_a[1][1]  # first pins the most
        assert sum(m for _, m in series_a) == sum(
            len(v)
            for v in DebloatStoreUnionProbe(pytorch).union_kernels(specs()).values()
        )


class DebloatStoreUnionProbe:
    """Recompute the union kernel sets independently of the store."""

    def __init__(self, framework):
        self.framework = framework

    def union_kernels(self, spec_list):
        from repro.serving.usage import capture_usage

        union: dict[str, set[str]] = {}
        for spec in spec_list:
            for soname, names in capture_usage(
                spec, self.framework
            ).kernels.items():
                union.setdefault(soname, set()).update(names)
        return union


class TestSnapshotsAndConcurrency:
    def test_snapshot_epochs_are_consistent(self, pytorch):
        """Readers racing an admitter only ever observe whole epochs."""
        store = DebloatStore(pytorch, OPTS)
        errors: list[str] = []
        stop = threading.Event()

        def read_loop():
            last_gen = -1
            while not stop.is_set():
                snap = store.snapshot()
                if snap.generation < last_gen:
                    errors.append("generation went backwards")
                last_gen = snap.generation
                if snap.generation == 0:
                    continue
                # Internal consistency: every reduction's library is in this
                # snapshot's map and the reduction was derived from it.
                for red in snap.reductions:
                    d = snap.libraries.get(red.soname)
                    if d is None:
                        errors.append(f"{red.soname} missing at "
                                      f"gen {snap.generation}")
                        return
                    if red.file_size_after != d.compacted_file_size:
                        errors.append(f"{red.soname} stale at "
                                      f"gen {snap.generation}")
                        return

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for t in readers:
            t.start()
        try:
            for spec in specs():
                store.admit(spec)
        finally:
            stop.set()
            for t in readers:
                t.join()
        assert errors == []
        assert store.snapshot().generation == 3

    def test_old_snapshot_survives_mutation(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        old = store.snapshot()
        old_sonames = set(old.libraries)
        store.admit(specs()[2])  # grows features -> adds libraries
        assert set(old.libraries) == old_sonames  # epoch unchanged
        assert len(store.snapshot().libraries) > len(old.libraries)

    def test_concurrent_admitters_converge(self, pytorch):
        sequential = DebloatStore(pytorch, OPTS)
        for s in specs():
            sequential.admit(s)

        concurrent = DebloatStore(pytorch, OPTS)
        threads = [
            threading.Thread(target=concurrent.admit, args=(s,))
            for s in specs()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert concurrent.generation == 3
        assert_same_libraries(
            concurrent.debloated_libraries(),
            sequential.debloated_libraries(),
        )

    def test_parallel_delta_compaction(self, pytorch):
        serial = DebloatStore(pytorch, OPTS)
        other = DebloatStore(pytorch, OPTS)
        for s in specs():
            serial.admit(s)
            other.admit(s)
        assert_same_libraries(
            serial.debloated_libraries(), other.debloated_libraries()
        )


class TestEvictionAndReset:
    def test_evict_shrinks_union(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        for s in specs():
            store.admit(s)
        res = store.evict("pytorch/train/transformer")
        assert res.removed_admissions == 1
        # Rebuilt store equals one that never saw the evicted workload.
        fresh = DebloatStore(pytorch, OPTS)
        for s in specs()[:2]:
            fresh.admit(s)
        assert_same_libraries(
            store.debloated_libraries(), fresh.debloated_libraries()
        )
        assert store.snapshot().workload_ids == tuple(SPEC_IDS[:2])

    def test_evict_last_admission_empties_store(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        res = store.evict(SPEC_IDS[0])
        assert res.dropped_libraries != ()
        snap = store.snapshot()
        assert snap.workload_ids == ()
        assert len(snap.libraries) == 0
        # The store is reusable, including for a different architecture.
        store.admit(specs()[1])
        assert store.snapshot().workload_ids == (SPEC_IDS[1],)

    def test_evict_unknown_raises(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        with pytest.raises(UsageError):
            store.evict("pytorch/train/transformer")

    def test_reset(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        gen = store.generation
        store.reset()
        snap = store.snapshot()
        assert snap.generation == gen + 1
        assert snap.workload_ids == ()
        assert len(snap.reductions) == 0


class TestStoreValidation:
    def test_framework_mismatch(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with pytest.raises(UsageError):
            store.admit(workload_by_id("tensorflow/train/mobilenetv2"))

    def test_mixed_architecture(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[1])
        with pytest.raises(UsageError):
            store.admit(specs()[1].variant(device_name="h100"))

    def test_report_requires_admissions(self, pytorch):
        with pytest.raises(UsageError):
            DebloatStore(pytorch, OPTS).report()


class TestWarmStoreRestart:
    def test_second_store_admits_with_zero_runs(self, monkeypatch):
        """A cache-backed store rebuilt after 'restart' runs no workloads."""
        import repro.experiments.common as excommon

        # Pin an enabled cache so this holds under REPRO_PIPELINE_CACHE=0
        # CI legs too (same pattern as test_pipeline_cache).
        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=True)
        )
        fw = get_framework("pytorch", scale=TEST_SCALE)
        cold = DebloatStore(fw, use_cache=True)
        for s in specs():
            cold.admit(s)

        runs: list[str] = []
        original = WorkloadRunner.run

        def counting_run(runner_self):
            runs.append(runner_self.spec.workload_id)
            return original(runner_self)

        monkeypatch.setattr(WorkloadRunner, "run", counting_run)
        warm = DebloatStore(fw, use_cache=True)
        results = [warm.admit(s) for s in specs()]
        assert runs == []
        assert all(r.detection_cached for r in results)
        assert_same_libraries(
            warm.debloated_libraries(), cold.debloated_libraries()
        )

    def test_non_catalog_build_opts_out_of_cache(self):
        """A single-arch ablation rebuild must not share cache entries with
        the canonical build - the store silently runs uncached instead."""
        fw = get_framework("pytorch", scale=TEST_SCALE, archs=(75,))
        store = DebloatStore(fw, use_cache=True)
        res = store.admit(specs()[0])
        assert not res.detection_cached

    def test_cache_disabled_store_still_correct(self, monkeypatch):
        import repro.experiments.common as excommon

        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=False)
        )
        fw = get_framework("pytorch", scale=TEST_SCALE)
        store = DebloatStore(fw, use_cache=True)
        res = store.admit(specs()[0])
        assert not res.detection_cached
        assert res.new_kernels > 0


class TestDebloatServer:
    def test_admissions_through_worker_pool(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with DebloatServer(store, workers=3) as server:
            results = server.admit_all(specs())
        assert [r.workload_id for r in results] == SPEC_IDS
        assert store.generation == 3
        sequential = DebloatStore(pytorch, OPTS)
        for s in specs():
            sequential.admit(s)
        assert_same_libraries(
            store.debloated_libraries(), sequential.debloated_libraries()
        )

    def test_ticket_latency_and_stats(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with DebloatServer(store, workers=1) as server:
            ticket = server.submit(specs()[0])
            ticket.result()
            assert ticket.done()
            assert ticket.latency_s is not None and ticket.latency_s > 0
            stats = server.stats()
        assert stats["served"] == 1
        assert stats["failed"] == 0
        assert stats["workers"] == 1

    def test_errors_relayed_to_caller(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with DebloatServer(store, workers=1) as server:
            with pytest.raises(UsageError):
                server.admit(workload_by_id("tensorflow/train/mobilenetv2"))
            assert server.stats()["failed"] == 1

    def test_closed_server_rejects(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        server = DebloatServer(store, workers=1)
        server.close()
        with pytest.raises(UsageError):
            server.submit(specs()[0])


class TestAdmissionBatching:
    """``admit_many`` = one union merge + one delta pass, same end state."""

    def test_batch_matches_sequential(self, pytorch):
        sequential = DebloatStore(pytorch, OPTS)
        for spec in specs():
            sequential.admit(spec)
        batched = DebloatStore(pytorch, OPTS)
        results = batched.admit_many(specs())

        assert_same_libraries(
            sequential.debloated_libraries(), batched.debloated_libraries()
        )
        assert (
            sequential.snapshot().generation == batched.snapshot().generation
        )
        assert (
            sequential.snapshot().workload_ids
            == batched.snapshot().workload_ids
        )
        assert (
            sequential.snapshot().union_kernels
            == batched.snapshot().union_kernels
        )
        assert (
            sequential.snapshot().union_functions
            == batched.snapshot().union_functions
        )
        assert [r.workload_id for r in results] == SPEC_IDS
        assert [r.new_kernels for r in results] == [
            m for _, m in sequential.report(verify=False).saturation_series()
        ]
        assert [r.generation for r in results] == [1, 2, 3]

    def test_batch_fewer_recompactions(self, pytorch):
        sequential = DebloatStore(pytorch, OPTS)
        for spec in specs():
            sequential.admit(spec)
        batched = DebloatStore(pytorch, OPTS)
        batched.admit_many(specs())
        assert (
            batched.stats()["recompactions"]
            < sequential.stats()["recompactions"]
        )
        # One pass per distinct grown library: every library is processed
        # at most once in the whole batch.
        libs = {lib.soname for lib in pytorch.libraries_for(
            frozenset().union(*(s.features for s in specs()))
        )}
        assert batched.stats()["recompactions"] <= len(libs)

    def test_batch_then_more_admissions(self, pytorch):
        """A store grown by a batch keeps serving deltas afterwards."""
        store = DebloatStore(pytorch, OPTS)
        store.admit_many(specs()[:2])
        res = store.admit(specs()[2])
        sequential = DebloatStore(pytorch, OPTS)
        for spec in specs():
            sequential.admit(spec)
        assert_same_libraries(
            store.debloated_libraries(), sequential.debloated_libraries()
        )
        assert res.new_kernels == sequential._marginal_kernels[2]

    def test_batch_with_duplicates(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        batch = [specs()[0], specs()[0], specs()[1]]
        runs = 0
        original_run = WorkloadRunner.run

        def counting_run(self):
            nonlocal runs
            runs += 1
            return original_run(self)

        WorkloadRunner.run = counting_run
        try:
            results = store.admit_many(batch)
        finally:
            WorkloadRunner.run = original_run
        assert results[1].duplicate
        assert results[1].detection_cached  # reused the in-batch capture
        assert results[1].new_kernels == 0
        assert runs == 2  # two distinct specs -> two detections, not three
        sequential = DebloatStore(pytorch, OPTS)
        for spec in batch:
            sequential.admit(spec)
        assert_same_libraries(
            store.debloated_libraries(), sequential.debloated_libraries()
        )

    def test_empty_batch_rejected(self, pytorch):
        with pytest.raises(UsageError):
            DebloatStore(pytorch, OPTS).admit_many([])

    def test_malformed_batch_leaves_store_untouched(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        bad = [specs()[0], workload_by_id("tensorflow/train/mobilenetv2")]
        with pytest.raises(UsageError):
            store.admit_many(bad)
        assert store.snapshot().generation == 0
        assert store.snapshot().workload_ids == ()

    def test_batch_verify(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        results = store.admit_many(specs()[:2], verify=True)
        assert all(
            r.verification is not None and r.verification.ok
            for r in results
        )

    def test_batch_cost_attribution_sums_to_pass_cost(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        results = store.admit_many(specs())
        total = sum(r.locate_compact_s for r in results)
        assert total > 0
        # First admission pays for the bulk (it grows every library).
        assert results[0].locate_compact_s > results[1].locate_compact_s


class TestServerQueueDraining:
    def test_draining_server_matches_sequential(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with DebloatServer(store, workers=1, batch_max=8) as server:
            results = server.admit_all(specs())
            stats = server.stats()
        assert [r.workload_id for r in results] == SPEC_IDS
        assert stats["served"] == len(SPEC_IDS)
        sequential = DebloatStore(pytorch, OPTS)
        for spec in specs():
            sequential.admit(spec)
        assert_same_libraries(
            store.debloated_libraries(), sequential.debloated_libraries()
        )

    def test_bad_spec_in_drained_batch_fails_alone(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        bad = workload_by_id("tensorflow/train/mobilenetv2")
        with DebloatServer(store, workers=1, batch_max=8) as server:
            tickets = [server.submit(s) for s in [specs()[0], bad, specs()[1]]]
            good_a = tickets[0].result(60)
            with pytest.raises(UsageError):
                tickets[1].result(60)
            good_b = tickets[2].result(60)
        assert good_a.workload_id == SPEC_IDS[0]
        assert good_b.workload_id == SPEC_IDS[1]
        assert store.snapshot().workload_ids == (SPEC_IDS[0], SPEC_IDS[1])

    def test_batch_max_validation(self, pytorch):
        with pytest.raises(UsageError):
            DebloatServer(DebloatStore(pytorch, OPTS), batch_max=0)


class TestTicketErrorIsolation:
    """result() re-raises a per-call copy: concurrent waiters must never
    pollute each other's (or the stored) tracebacks."""

    @staticmethod
    def _failed_ticket() -> "AdmissionTicket":
        from repro.errors import AdmissionError
        from repro.serving import AdmissionTicket

        ticket = AdmissionTicket(workload_by_id(SPEC_IDS[0]))
        try:
            raise AdmissionError(SPEC_IDS[0], 2, ValueError("boom"))
        except AdmissionError as err:
            ticket._claim(0.0, None, err)
            ticket._notify()
        return ticket

    def test_waiters_get_independent_exception_objects(self):
        import time
        import traceback

        ticket = self._failed_ticket()
        stored = ticket._error
        assert stored is not None
        stored_depth = len(traceback.extract_tb(stored.__traceback__))

        n = 16
        caught: list[BaseException] = [None] * n  # type: ignore[list-item]
        barrier = threading.Barrier(n)

        def wait(i: int) -> None:
            barrier.wait()
            try:
                ticket.result(5)
            except Exception as exc:  # noqa: BLE001
                caught[i] = exc

        threads = [
            threading.Thread(target=wait, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert all(exc is not None for exc in caught)
        # Independent objects: no waiter saw the stored exception itself
        # or another waiter's copy.
        assert len({id(exc) for exc in caught}) == n
        assert all(exc is not stored for exc in caught)
        # The worker-side traceback is preserved on every copy, and each
        # copy owns its propagation frames: the shared tail stays the
        # worker's frames only, no matter how many waiters re-raised.
        for exc in caught:
            frames = traceback.extract_tb(exc.__traceback__)
            assert len(frames) == stored_depth + 2  # result() + wait()
            assert frames[-1].name == "_failed_ticket"
        assert (
            len(traceback.extract_tb(stored.__traceback__)) == stored_depth
        )
        # Typed payload survives the copy.
        first = caught[0]
        assert first.workload_id == SPEC_IDS[0]
        assert first.attempts == 2
        assert isinstance(first.__cause__, ValueError)

    def test_sequential_reraises_stay_clean(self):
        import traceback

        ticket = self._failed_ticket()
        depths = []
        for _ in range(3):
            try:
                ticket.result(5)
            except Exception as exc:  # noqa: BLE001
                depths.append(len(traceback.extract_tb(exc.__traceback__)))
        # Without the per-call copy each re-raise used to grow the shared
        # traceback by its own propagation frames.
        assert depths[0] == depths[1] == depths[2]


class TestStatsConsistency:
    """stats() takes the state lock: no torn served/failed/in_flight views."""

    def test_concurrent_stats_never_tear(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        snapshots: list[dict] = []
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                snapshots.append(server.stats())

        with DebloatServer(store, workers=2, batch_max=4) as server:
            readers = [
                threading.Thread(target=hammer) for _ in range(2)
            ]
            for t in readers:
                t.start()
            tickets = []
            for _ in range(4):
                for spec in specs():
                    tickets.append(server.submit(spec))
            for t in tickets:
                t.result(120)
            stop.set()
            for t in readers:
                t.join()
            final = server.stats()

        submitted = len(tickets)
        assert final["submitted"] == submitted
        assert final["served"] == submitted
        assert final["failed"] == 0
        assert final["in_flight"] == 0
        assert final["queued"] == 0
        for snap in snapshots:
            # One consistent view: every submission is queued, being
            # admitted, or counted exactly once - never double-counted.
            assert snap["served"] + snap["failed"] <= snap["submitted"]
            assert (
                snap["served"] + snap["failed"] + snap["in_flight"]
                <= snap["submitted"]
            )
            assert snap["queued"] <= snap["in_flight"]
            assert snap["submitted"] <= submitted

    def test_stats_and_health_agree_on_queue_fields(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with DebloatServer(store, workers=1) as server:
            server.admit_all(specs()[:1])
            stats = server.stats()
            health = server.health()
        for view in (stats, health):
            assert "pending" not in view
            assert view["queued"] == 0
            assert view["in_flight"] == 0
