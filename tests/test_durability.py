"""Engine-level durability and remote-shard liveness tests.

Recovery's contract is byte-identity: after ``close()`` (or a crash) and
a fresh ``open()``, the recovered store's ``export_state()`` bytes equal
the committed pre-crash state, with **zero** workload runs - replay goes
through the warm pipeline cache exactly like the snapshot import path.
The liveness half covers the per-op deadline, the supervisor circuit
breaker, and heartbeat probes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.api import AdmitRequest, DebloatEngine, EngineConfig, EvictRequest
from repro.api.config import DurabilityConfig, LivenessConfig
from repro.core import serialize
from repro.core.debloat import DebloatOptions
from repro.errors import (
    ConfigurationError,
    RemoteShardError,
    TransientError,
    UsageError,
    WalAppendError,
)
from repro.serving.remote import RemoteShardSupervisor
from repro.testing import faults
from repro.utils.retry import RetryPolicy
from repro.workloads import runner as runner_mod

from tests.conftest import TEST_SCALE

OPTS = DebloatOptions(runtime_comparison_top_n=0)
PT_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]
TF_ID = "tensorflow/train/mobilenetv2"


def durable_config(tmp_path, **kwargs) -> EngineConfig:
    defaults = dict(
        scale=TEST_SCALE,
        options=OPTS,
        use_cache=True,
        durability=DurabilityConfig(
            enabled=True, directory=str(tmp_path / "durability"), fsync="off"
        ),
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def export_bytes(engine: DebloatEngine) -> dict[str, bytes]:
    return {
        shard.store.framework.name: serialize.payload_dumps(
            shard.store.export_state()
        )
        for shard in engine.federation.local_shards()
    }


@contextmanager
def forbid_workload_runs():
    """Fail the test if recovery runs a workload instead of the cache."""

    def _boom(self, *args, **kwargs):
        raise AssertionError("WorkloadRunner.run called during recovery")

    original = runner_mod.WorkloadRunner.run
    runner_mod.WorkloadRunner.run = _boom
    try:
        yield
    finally:
        runner_mod.WorkloadRunner.run = original


# -- recovery -----------------------------------------------------------------


class TestRecovery:
    def test_replay_is_byte_identical_with_zero_runs(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in (*PT_IDS[:2], TF_ID):
                engine.admit(AdmitRequest(workload_id=wid))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                report = engine.recovery
                assert report is not None
                assert report["replayed"] == 3
                assert not report["snapshot_loaded"]
                assert export_bytes(engine) == committed
                assert engine.stats()["wal_replayed"] == 3

    def test_evict_and_readmit_replay(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            engine.evict(EvictRequest(workload_id=PT_IDS[0]))
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                assert engine.recovery["replayed"] == 4
                assert export_bytes(engine) == committed

    def test_checkpoint_truncates_then_recovers_from_snapshot(
        self, tmp_path
    ):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            result = engine.checkpoint()
            assert result.value["truncated"] == 2
            assert engine.stats()["wal_lag"] == 0
            # Post-checkpoint traffic lands in the (now short) WAL.
            engine.admit(AdmitRequest(workload_id=TF_ID))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                report = engine.recovery
                assert report["snapshot_loaded"]
                # Only the post-checkpoint admission replays.
                assert report["replayed"] == 1
                assert export_bytes(engine) == committed

    def test_kill_between_export_and_truncate_is_harmless(self, tmp_path):
        """The checkpoint crash window: snapshot written, WAL untouched.

        Recovery must load the snapshot and *skip* the already-folded
        records by watermark - replaying them would double-admit.
        """
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            plan = faults.FaultPlan(
                (faults.FaultRule("checkpoint.truncate", ordinals=(1,)),),
                seed=7,
            )
            with faults.fault_plan(plan):
                with pytest.raises(faults.FaultError):
                    engine.checkpoint()
            assert engine.stats()["checkpoints_failed"] == 1
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                report = engine.recovery
                assert report["snapshot_loaded"]
                assert report["replayed"] == 0  # watermark skips them
                assert export_bytes(engine) == committed

    def test_wal_append_fault_rolls_back_and_retries(self, tmp_path):
        """Acknowledged only once durable: a failed append undoes the
        admission and raises a transient error; the retry lands it."""
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            plan = faults.FaultPlan(
                (faults.FaultRule("wal.append", ordinals=(1,)),), seed=7
            )
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            retried: list[BaseException] = []

            def on_retry(attempt: int, exc: BaseException) -> None:
                retried.append(exc)
                # The rolled-back attempt never happened in memory.
                assert engine.snapshot().workload_count == 1

            with faults.fault_plan(plan):
                RetryPolicy(base_backoff_s=0.0).call(
                    lambda: engine.admit(AdmitRequest(workload_id=PT_IDS[1])),
                    on_retry=on_retry,
                )
            assert len(retried) == 1
            assert isinstance(retried[0], WalAppendError)
            assert isinstance(retried[0], TransientError)
            stats = engine.stats()
            assert stats["wal_failures"] == 1
            assert stats["wal_appended"] == 2
            assert engine.snapshot().workload_count == 2
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                assert engine.recovery["replayed"] == 2
                assert export_bytes(engine) == committed

    def test_failed_fsync_under_always_leaves_no_record(self, tmp_path):
        cfg = durable_config(
            tmp_path,
            durability=DurabilityConfig(
                enabled=True,
                directory=str(tmp_path / "durability"),
                fsync="always",
            ),
        )
        with DebloatEngine(cfg) as engine:
            plan = faults.FaultPlan(
                (faults.FaultRule("wal.fsync", ordinals=(1,),
                                  kind="oserror"),),
                seed=7,
            )
            with faults.fault_plan(plan):
                with pytest.raises(WalAppendError):
                    engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            assert engine.snapshot().workload_count == 0
            engine.admit(AdmitRequest(workload_id=PT_IDS[1]))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                # The synced-then-failed record was cut from the log.
                assert engine.recovery["replayed"] == 1
                assert export_bytes(engine) == committed

    def test_torn_wal_tail_quarantined_on_recovery(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            committed = export_bytes(engine)
        wal_path = tmp_path / "durability" / "wal" / "pytorch.wal"
        with open(wal_path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00torn-mid-append")

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                assert engine.recovery["replayed"] == 2
                assert engine.stats()["wal_quarantined_bytes"] > 0
                assert export_bytes(engine) == committed

    def test_periodic_checkpointer_fires(self, tmp_path):
        cfg = durable_config(
            tmp_path,
            durability=DurabilityConfig(
                enabled=True,
                directory=str(tmp_path / "durability"),
                fsync="off",
                checkpoint_interval_s=0.05,
            ),
        )
        with DebloatEngine(cfg) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if engine.stats()["checkpoints_run"] >= 1:
                    break
                time.sleep(0.01)
            assert engine.stats()["checkpoints_run"] >= 1
            assert engine.stats()["wal_lag"] == 0

    def test_health_and_stats_expose_durability(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            health = engine.health()
            assert health["durability"]["enabled"]
            assert health["durability"]["fsync"] == "off"
            stats = engine.stats()
            assert stats["wal_appended"] == 1
            assert stats["wal_lag"] == 1

    def test_checkpoint_requires_durability(self):
        cfg = EngineConfig(scale=TEST_SCALE, options=OPTS)
        with DebloatEngine(cfg) as engine:
            with pytest.raises(UsageError, match="durability"):
                engine.checkpoint()
            assert engine.recovery is None


# -- configuration ------------------------------------------------------------


class TestDurabilityConfig:
    def test_enabled_needs_a_directory(self):
        with pytest.raises(ConfigurationError, match="directory"):
            EngineConfig(durability=DurabilityConfig(enabled=True))

    def test_snapshot_dir_is_an_acceptable_root(self, tmp_path):
        cfg = EngineConfig(
            snapshot_dir=str(tmp_path),
            durability=DurabilityConfig(enabled=True),
        )
        assert cfg.durability.directory is None  # resolved at open()

    def test_bad_fsync_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="fsync"):
            DurabilityConfig(fsync="sometimes")

    def test_bad_liveness_values_rejected(self):
        with pytest.raises(ConfigurationError):
            LivenessConfig(op_deadline_s=0)
        with pytest.raises(ConfigurationError):
            LivenessConfig(breaker_threshold=0)
        with pytest.raises(ConfigurationError):
            LivenessConfig(heartbeat_interval_s=-1)


# -- remote-shard liveness ----------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _DeadProc:
    """Stands in for a worker whose transport is poisoned."""

    alive = False
    broken = True

    def call(self, op, _deadline_s=None, **args):
        raise RemoteShardError("shard-0", "injected transport failure")


class TestCircuitBreaker:
    def _supervisor(self, clock) -> RemoteShardSupervisor:
        sup = RemoteShardSupervisor(
            "shard-0",
            {"scale": TEST_SCALE, "archs": []},
            breaker_threshold=2,
            breaker_cooldown_s=5.0,
            clock=clock,
        )
        sup._proc = _DeadProc()  # pre-poisoned; process() would respawn
        sup.process = lambda: sup._proc  # keep the dead proc in place
        return sup

    def test_opens_after_threshold_and_fast_fails(self):
        clock = FakeClock()
        sup = self._supervisor(clock)
        for _ in range(2):
            with pytest.raises(RemoteShardError, match="transport"):
                sup.call("ping")
        assert sup.breaker_state == "open"
        assert sup.breaker_trips == 1
        # Fast-fail: the dead proc is never consulted again.
        with pytest.raises(RemoteShardError, match="breaker open"):
            sup.call("ping")

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        sup = self._supervisor(clock)
        for _ in range(2):
            with pytest.raises(RemoteShardError):
                sup.call("ping")
        clock.now = 6.0  # cooldown served -> next call probes
        with pytest.raises(RemoteShardError, match="transport"):
            sup.call("ping")
        assert sup.breaker_state == "open"
        assert sup.breaker_trips == 2

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        sup = self._supervisor(clock)
        for _ in range(2):
            with pytest.raises(RemoteShardError):
                sup.call("ping")
        clock.now = 6.0

        class _GoodProc:
            alive = True
            broken = False

            def call(self, op, _deadline_s=None, **args):
                return {"pid": 123}

        sup._proc = _GoodProc()
        assert sup.call("ping") == {"pid": 123}
        assert sup.breaker_state == "closed"

    def test_worker_side_errors_do_not_trip_breaker(self):
        clock = FakeClock()
        sup = self._supervisor(clock)

        class _HealthyButFailing:
            alive = True
            broken = False

            def call(self, op, _deadline_s=None, **args):
                raise RemoteShardError("shard-0", "worker-side transient")

        sup._proc = _HealthyButFailing()
        for _ in range(5):
            with pytest.raises(RemoteShardError):
                sup.call("ping")
        assert sup.breaker_state == "closed"
        assert sup.breaker_trips == 0


class TestHeartbeat:
    def test_idle_slot_never_spawns(self):
        sup = RemoteShardSupervisor(
            "shard-0", {"scale": TEST_SCALE, "archs": []}
        )
        assert sup.heartbeat() == {"state": "idle", "ok": True}
        assert sup._proc is None

    def test_failed_probe_counts_and_feeds_breaker(self):
        clock = FakeClock()
        sup = RemoteShardSupervisor(
            "shard-0",
            {"scale": TEST_SCALE, "archs": []},
            breaker_threshold=1,
            clock=clock,
        )
        sup._proc = _DeadProc()
        report = sup.heartbeat()
        assert report["state"] == "failed"
        assert sup.heartbeat_failures == 1
        assert sup.breaker_state == "open"

    def test_fault_site_remote_heartbeat(self):
        sup = RemoteShardSupervisor(
            "shard-0", {"scale": TEST_SCALE, "archs": []}
        )

        class _GoodProc:
            alive = True
            broken = False

            def call(self, op, _deadline_s=None, **args):
                return {"pid": 99}

        sup._proc = _GoodProc()
        plan = faults.FaultPlan(
            (faults.FaultRule("remote.heartbeat", ordinals=(1,)),), seed=7
        )
        with faults.fault_plan(plan):
            assert sup.heartbeat()["state"] == "failed"
            assert sup.heartbeat()["state"] == "ok"
        assert sup.heartbeats == 1
        assert sup.heartbeat_failures == 1


class TestRemoteLiveness:
    """End-to-end against real worker subprocesses (spawned lazily)."""

    def test_deadline_on_hung_worker(self, tmp_path):
        cfg = EngineConfig(
            scale=TEST_SCALE,
            options=OPTS,
            remote_shards=1,
            liveness=LivenessConfig(
                op_deadline_s=1.0, breaker_threshold=None
            ),
        )
        with DebloatEngine(cfg) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            pool = engine._remote_pool
            sup = next(iter(pool.supervisors.values()))
            pid = sup.pid
            assert pid is not None
            import os as _os

            _os.kill(pid, 19)  # SIGSTOP: hung, not dead
            try:
                with pytest.raises(RemoteShardError, match="deadline"):
                    sup.call("snapshot", framework="pytorch")
            finally:
                _os.kill(pid, 18)  # SIGCONT before teardown

    def test_pool_heartbeat_thread_probes_workers(self, tmp_path):
        cfg = EngineConfig(
            scale=TEST_SCALE,
            options=OPTS,
            remote_shards=1,
            liveness=LivenessConfig(
                op_deadline_s=30.0, heartbeat_interval_s=0.05
            ),
        )
        with DebloatEngine(cfg) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            sup = next(iter(engine._remote_pool.supervisors.values()))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if sup.heartbeats >= 2:
                    break
                time.sleep(0.01)
            assert sup.heartbeats >= 2
            health = engine.health()
            row = next(iter(health["remote"]["shards"].values()))
            assert row["breaker"] == "closed"
            assert row["heartbeats"] >= 2
