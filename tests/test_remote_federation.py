"""Tests for distributed federation: remote shard workers, warm snapshot
export/import, consistent-hash routing, and crash recovery.

The contract under test: a replica built from a snapshot serves
byte-identical reports and libraries with **zero** workload runs, and a
SIGKILLed remote shard comes back byte-identical by replaying its own
write-ahead log (plus its newest checkpoint) - including under the
``ci-standard`` fault plan, with zero hung tickets.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import DebloatEngine, EngineConfig
from repro.api.federation import StoreFederation
from repro.core.debloat import DebloatOptions
from repro.core.serialize import (
    STORE_KIND,
    multi_report_to_payload,
    payload_dumps,
    payload_equal,
    store_from_payload,
)

def multi_reports_equal(a, b) -> bool:
    return payload_equal(multi_report_to_payload(a), multi_report_to_payload(b))
from repro.errors import (
    FaultError,
    RemoteShardError,
    SnapshotError,
    SnapshotSchemaError,
    TransientError,
    UsageError,
    WalAppendError,
)
from repro.serving import snapshot as snapshots
from repro.serving.remote import (
    HashRing,
    RemoteShardPool,
    RemoteShardSupervisor,
    RemoteStoreClient,
)
from repro.serving.server import DebloatServer
from repro.serving.store import DebloatStore
from repro.testing import faults
from repro.utils.retry import DEFAULT_RETRYABLE, RetryPolicy
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE

OPTS = DebloatOptions(runtime_comparison_top_n=0)

PT_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]
TF_ID = "tensorflow/train/mobilenetv2"


def pt_specs():
    return [workload_by_id(wid) for wid in PT_IDS]


def image_bytes(store, counters: bool = True) -> bytes:
    """A store's serialized image; ``counters=False`` strips the
    operational counters, which are telemetry rather than state: a
    batched replay legitimately does fewer delta passes (and a
    cache-warmed run more cache hits) than a sequential cold run while
    producing byte-identical libraries, extents, and generations."""
    image = store.export_state()
    if not counters:
        image = {**image, "counters": {}}
    return payload_dumps(image)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.deactivate()
    yield
    faults.deactivate()


def fed_config(**kwargs) -> EngineConfig:
    defaults = dict(scale=TEST_SCALE, options=OPTS)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


@pytest.fixture()
def pool(tmp_path):
    p = RemoteShardPool(
        2,
        scale=TEST_SCALE,
        archs=tuple(EngineConfig().archs),
        root=str(tmp_path / "workers"),
    )
    yield p
    p.shutdown()


# -- store image round-trip ----------------------------------------------------


class TestStoreImage:
    def test_export_import_byte_identical(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        for spec in pt_specs():
            store.admit(spec)
        image = store.export_state()
        blob = payload_dumps(image)
        assert image["kind"] == STORE_KIND
        assert image["generation"] == store.generation

        fresh = DebloatStore(pytorch, OPTS)
        fresh.import_state(image)
        assert fresh.generation == store.generation
        assert payload_dumps(fresh.export_state()) == blob
        assert multi_reports_equal(fresh.report(), store.report())
        fresh.validate_invariants()

    def test_store_from_payload_rebuilds_framework(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        image = store.export_state()
        replica = store_from_payload(image)
        assert payload_dumps(replica.export_state()) == payload_dumps(image)
        # The replica keeps serving: a further admission works and lands
        # on the next generation.
        result = replica.admit(pt_specs()[1])
        assert result.generation == store.generation + 1

    def test_import_rejects_framework_mismatch(self, pytorch, tensorflow):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        other = DebloatStore(tensorflow, OPTS)
        with pytest.raises(SnapshotError, match="this store serves"):
            other.import_state(store.export_state())

    def test_import_rejects_wrong_kind_and_schema(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        image = store.export_state()
        with pytest.raises(SnapshotError):
            store.import_state({**image, "kind": "not_a_store"})
        with pytest.raises(SnapshotSchemaError):
            store.import_state({**image, "schema": 999})


# -- snapshot directory --------------------------------------------------------


class TestSnapshotDirectory:
    def _snapshot(self, pytorch, directory):
        store = DebloatStore(pytorch, OPTS)
        for spec in pt_specs()[:2]:
            store.admit(spec)
        manifest = snapshots.write_snapshot(
            str(directory), {"pytorch": store.export_state()}
        )
        return store, manifest

    def test_round_trip_and_reexport_identical(self, pytorch, tmp_path):
        store, manifest = self._snapshot(pytorch, tmp_path)
        assert [e["framework"] for e in manifest["shards"]] == ["pytorch"]
        payloads = snapshots.load_snapshot(str(tmp_path))
        assert payload_dumps(payloads["pytorch"]) == payload_dumps(
            store.export_state()
        )
        # Re-exporting an unchanged store rewrites byte-identical files.
        before = (tmp_path / "shard--pytorch.rdbc").read_bytes()
        snapshots.write_snapshot(
            str(tmp_path), {"pytorch": store.export_state()}
        )
        assert (tmp_path / "shard--pytorch.rdbc").read_bytes() == before

    def test_missing_snapshot_raises(self, tmp_path):
        assert not snapshots.snapshot_exists(str(tmp_path))
        with pytest.raises(SnapshotError, match="manifest"):
            snapshots.read_manifest(str(tmp_path))

    def test_manifest_schema_skew(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        path = tmp_path / snapshots.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotSchemaError):
            snapshots.load_snapshot(str(tmp_path))

    def test_v1_manifest_is_rejected(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        path = tmp_path / snapshots.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotSchemaError, match="schema 1"):
            snapshots.load_snapshot(str(tmp_path))

    def test_tampered_shard_fails_digest(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        path = tmp_path / "shard--pytorch.rdbc"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="digest"):
            snapshots.load_snapshot(str(tmp_path))

    def test_snapshot_read_fault_site(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        plan = faults.FaultPlan(
            (faults.FaultRule("snapshot.read", ordinals=(1,),
                              kind="corrupt"),),
            seed=7,
        )
        with faults.fault_plan(plan):
            with pytest.raises(FaultError):
                snapshots.load_snapshot(str(tmp_path))
            # The injected corrupt read is transient: the retry succeeds.
            assert "pytorch" in snapshots.load_snapshot(str(tmp_path))


# -- fresh-replica import: zero workload runs ----------------------------------


_REPLICA_SCRIPT = """
import sys

import repro.workloads.runner as runner

def _refuse(self):
    raise AssertionError("workload ran during snapshot import")

runner.WorkloadRunner.run = _refuse

from repro.api import DebloatEngine, EngineConfig
from repro.core.debloat import DebloatOptions
from repro.core.serialize import payload_dumps

snapdir, outdir, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])
config = EngineConfig(
    scale=scale, options=DebloatOptions(runtime_comparison_top_n=0)
)
with DebloatEngine(config) as engine:
    generations = engine.import_snapshot(snapdir).value["generations"]
    engine.export_snapshot(outdir)
print(len(generations))
"""


class TestFreshReplicaImport:
    def test_subprocess_import_is_byte_identical_with_zero_runs(
        self, pytorch, tmp_path
    ):
        fed = StoreFederation(fed_config())
        for spec in pt_specs():
            fed.admit(spec)
        fed.admit(workload_by_id(TF_ID))
        snapdir = tmp_path / "snap"
        manifest = fed.export_snapshot(str(snapdir))
        assert {e["framework"] for e in manifest["shards"]} == {
            "pytorch", "tensorflow",
        }
        outdir = tmp_path / "reexport"
        proc = subprocess.run(
            [sys.executable, "-c", _REPLICA_SCRIPT, str(snapdir),
             str(outdir), str(TEST_SCALE)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"
        # Byte-identity file by file: library bytes, extents, generations
        # all live inside the store image containers.
        for entry in manifest["shards"]:
            original = (snapdir / entry["file"]).read_bytes()
            replica = (outdir / entry["file"]).read_bytes()
            assert replica == original, entry["framework"]


# -- consistent-hash ring ------------------------------------------------------


class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        again = HashRing(["shard-2", "shard-0", "shard-1"])
        keys = [f"fingerprint-{i}" for i in range(64)]
        assert [ring.node_for(k) for k in keys] == [
            again.node_for(k) for k in keys
        ]
        assert {ring.node_for(k) for k in keys} == {
            "shard-0", "shard-1", "shard-2",
        }

    def test_node_removal_only_moves_its_keys(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        smaller = HashRing(["shard-0", "shard-1"])
        keys = [f"fingerprint-{i}" for i in range(256)]
        moved = 0
        for key in keys:
            before = ring.node_for(key)
            after = smaller.node_for(key)
            if before != "shard-2":
                assert after == before
            else:
                moved += 1
        assert 0 < moved < len(keys)


# -- typed errors + retry coverage ---------------------------------------------


class TestRemoteErrors:
    def test_remote_shard_error_is_transient_and_retryable(self):
        err = RemoteShardError("shard-0", "connection dropped")
        assert isinstance(err, TransientError)
        assert isinstance(err, DEFAULT_RETRYABLE)
        assert err.shard == "shard-0"
        assert "shard-0" in str(err)

    def test_snapshot_schema_error_is_not_transient(self):
        err = SnapshotSchemaError("schema 999")
        assert isinstance(err, SnapshotError)
        assert not isinstance(err, TransientError)

    def test_retry_policy_recovers_dropped_connection(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise RemoteShardError("shard-1", "worker died")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.001)
        assert policy.call(flaky, sleep=lambda _: None) == "ok"
        assert calls["n"] == 2


# -- remote shard worker processes ---------------------------------------------


class TestRemoteWorkers:
    def test_remote_matches_local_byte_identical(self, pytorch, pool):
        fed = StoreFederation(fed_config(), remote_pool=pool)
        for spec in pt_specs():
            fed.admit(spec)
        shard = fed.shard("pytorch")
        assert shard.remote
        assert fed.route_for("pytorch") == shard.store.worker

        local = DebloatStore(pytorch, OPTS)
        for spec in pt_specs():
            local.admit(spec)
        assert image_bytes(shard.store, counters=False) == image_bytes(
            local, counters=False
        )
        assert multi_reports_equal(fed.report("pytorch"), local.report())

    def test_sigkill_recovers_byte_identical_zero_runs(self, pool):
        fed = StoreFederation(fed_config(), remote_pool=pool)
        for spec in pt_specs()[:2]:
            fed.admit(spec)
        shard = fed.shard("pytorch")
        image = payload_dumps(shard.store.export_state())
        supervisor = pool.supervisor_for("pytorch")
        pid = supervisor.pid
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while supervisor.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not supervisor.alive
        # The next call notices the dead worker, respawns it, and the
        # replacement recovers from its own WAL: same generation, same
        # bytes, no workload re-runs (generation would advance if
        # anything were re-admitted).
        snap = shard.store.snapshot()
        assert supervisor.restarts == 1
        assert supervisor.pid != pid
        assert snap.generation == 2
        assert payload_dumps(shard.store.export_state()) == image

    def test_health_reports_routes_and_restarts(self, pool):
        fed = StoreFederation(fed_config(), remote_pool=pool)
        fed.admit(pt_specs()[0])
        health = fed.health()
        assert health["state"] == "ok"
        row = health["shards"]["pytorch"]
        assert row["route"].startswith("shard-")
        assert row["generation"] == 1
        pool_health = pool.health()
        assert pool_health["workers"] == 2
        assert pool_health["restarts"] == 0

    def test_usage_error_crosses_the_wire_untyped_no_retry(self, pool):
        fed = StoreFederation(fed_config(), remote_pool=pool)
        fed.admit(pt_specs()[0])
        shard = fed.shard("pytorch")
        with pytest.raises(UsageError):
            shard.store.evict("pytorch/not/admitted")
        # The worker survives a typed rejection: same process, no restart.
        assert pool.supervisor_for("pytorch").restarts == 0
        assert shard.store.generation == 1


class TestRemoteFaultSites:
    def test_send_fault_surfaces_as_remote_shard_error(self, pool):
        fed = StoreFederation(fed_config(), remote_pool=pool)
        fed.admit(pt_specs()[0])
        plan = faults.FaultPlan(
            (faults.FaultRule("remote.send", ordinals=(1,)),), seed=7
        )
        shard = fed.shard("pytorch")
        with faults.fault_plan(plan):
            with pytest.raises(RemoteShardError):
                shard.store.snapshot()
            # Transient: the immediate retry respawns and succeeds.
            assert shard.store.snapshot().generation == 1
        assert pool.supervisor_for("pytorch").restarts == 1

    def test_served_admission_is_one_remote_call(self, pool, monkeypatch):
        """A served admission makes one worker call: the admit reply
        carries the post-commit summary, which becomes the shard's
        last-good epoch, and the server's success hook reads nothing."""
        from repro.serving.remote import RemoteShardProcess

        ops: list[str] = []
        call = RemoteShardProcess.call

        def counted(self, op, *args, **kwargs):
            ops.append(op)
            return call(self, op, *args, **kwargs)

        monkeypatch.setattr(RemoteShardProcess, "call", counted)
        fed = StoreFederation(fed_config(), remote_pool=pool)
        shard = fed.shard("pytorch")
        with DebloatServer(fed, workers=1) as server:
            for spec in pt_specs() + pt_specs()[:1]:
                result = server.submit(spec).result(timeout=60)
                assert shard.last_good.generation == result.generation
        assert ops == ["admit"] * 4
        assert result.duplicate
        assert shard.last_good.workload_ids == (*PT_IDS, PT_IDS[0])

    def test_dropped_admit_reply_is_retried_as_a_duplicate(self, pool):
        """The worker commits but its reply is lost: the retry respawns
        the worker, which recovers the admission from its WAL, and admits
        again as a duplicate; last-good ends at the newest epoch."""
        fed = StoreFederation(fed_config(), remote_pool=pool)
        plan = faults.FaultPlan(
            (faults.FaultRule("remote.recv", ordinals=(1,)),), seed=1
        )
        with faults.fault_plan(plan):
            with DebloatServer(fed, workers=1) as server:
                first = server.submit(pt_specs()[0]).result(timeout=60)
                second = server.submit(pt_specs()[1]).result(timeout=60)
        assert [f.ordinal for f in plan.fired] == [1]
        # Whether the worker committed before the respawn killed it is a
        # race; either way the retry lands the admission exactly once
        # more and the reply-fed last-good epoch is the newest one.
        assert first.generation == 1 + int(first.duplicate)
        assert second.generation == first.generation + 1
        shard = fed.shard("pytorch")
        assert shard.state == "ok"
        assert shard.last_good == shard.store.snapshot()
        assert pool.supervisor_for("pytorch").restarts == 1

    def test_out_of_order_success_never_rolls_last_good_back(self):
        fed = StoreFederation(fed_config())
        fed.admit(pt_specs()[0])
        shard = fed.shard("pytorch")
        older = shard.committed()
        fed.admit(pt_specs()[1])
        newer = shard.last_good
        assert newer.generation == older.generation + 1
        shard.note_success(older)
        assert shard.last_good is newer

    def test_snapshot_ships_rows_only_when_they_changed(self, pool):
        """Summaries leave out the reduction rows the client holds; a
        respawned worker names its rows afresh, so the client refetches."""
        fed = StoreFederation(fed_config(), remote_pool=pool)
        fed.admit(pt_specs()[0])
        client = fed.shard("pytorch").store
        sup = pool.supervisor_for("pytorch")
        token = client._rows_token
        held = sup.call("snapshot", framework="pytorch", rows=token)
        assert held["snapshot"]["reductions"] is None
        fresh = sup.call("snapshot", framework="pytorch")
        assert len(fresh["snapshot"]["reductions"]) == len(
            client.snapshot().reductions
        )
        fed.admit(pt_specs()[0])  # a duplicate changes no row
        assert client._rows_token == token
        sup.kill()
        snap = client.snapshot()
        assert client._rows_token != token
        assert snap.generation == 2
        assert snap.reductions == fed.shard("pytorch").last_good.reductions

    def test_ci_standard_mixed_traffic_sigkill_byte_identity(
        self, pytorch, pool
    ):
        """The acceptance scenario: mixed-framework traffic through the
        queue server against remote shards under ci-standard, one shard
        SIGKILLed mid-traffic - zero hung tickets, every admission lands,
        end state byte-identical to a fault-free local run."""
        arrivals = pt_specs() + [workload_by_id(TF_ID), pt_specs()[0]]
        fed = StoreFederation(fed_config(), remote_pool=pool)
        plan = faults.named_plan("ci-standard")
        # One worker keeps the admission *order* deterministic so the
        # byte-compare against a sequential local run is exact; the
        # failure modes (injected frame drops, the SIGKILL) are the same.
        # The plan's remote faults compound on one admission (a dropped
        # frame forces a respawn, which the spawn fault then fails), so
        # remote deployments need a deeper retry budget than the 3-shot
        # default.
        retry = RetryPolicy(max_attempts=6, base_backoff_s=0.01)
        with faults.fault_plan(plan):
            with DebloatServer(fed, workers=1, retry=retry) as server:
                first = server.submit(arrivals[0])
                first.result(timeout=120)
                os.kill(
                    pool.supervisor_for("pytorch").pid, signal.SIGKILL
                )
                tickets = [(s, server.submit(s)) for s in arrivals[1:]]
                for spec, ticket in tickets:
                    ticket.result(timeout=120)
        assert pool.supervisor_for("pytorch").restarts >= 1
        assert plan.stats()  # injected faults really fired

        from repro.core import serialize

        # (a) Determinism: a local store fed the exact committed
        # admission sequence - including the duplicates that retried
        # admissions legitimately append after a dropped response frame -
        # reproduces the remote store byte-for-byte (counters aside).
        remote_image = fed.shard("pytorch").store.export_state()
        replay = DebloatStore(pytorch, OPTS)
        for payload in remote_image["admissions"]:
            replay.admit(serialize.spec_from_payload(payload))
        assert payload_dumps({**remote_image, "counters": {}}) == (
            payload_dumps({**replay.export_state(), "counters": {}})
        )

        # (b) The serving contract: libraries and union end-state are
        # byte-identical to a fault-free run of the arrivals (duplicate
        # re-admissions are idempotent on the union).
        local = DebloatStore(pytorch, OPTS)
        for spec in arrivals:
            if spec.framework == "pytorch":
                local.admit(spec)
        remote_report = fed.report("pytorch")
        local_report = local.report()
        assert sorted(set(remote_report.workload_ids)) == sorted(
            set(local_report.workload_ids)
        )
        assert payload_equal(
            [serialize.library_to_payload(lib)
             for lib in remote_report.libraries],
            [serialize.library_to_payload(lib)
             for lib in local_report.libraries],
        )
        assert fed.shard("tensorflow").store.generation == 1


# -- worker write-ahead logs ---------------------------------------------------


def kill_and_wait(supervisor) -> int:
    pid = supervisor.pid
    assert pid is not None
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while supervisor.alive and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not supervisor.alive
    return pid


def files_under(root) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, names in os.walk(root)
        for f in names
    }


class TestWorkerWal:
    def test_sigkill_without_snapshot_dir_recovers_zero_runs(self):
        pool = RemoteShardPool(
            1, scale=TEST_SCALE, archs=tuple(EngineConfig().archs)
        )
        try:
            fed = StoreFederation(fed_config(), remote_pool=pool)
            for spec in pt_specs()[:2]:
                fed.admit(spec)
            shard = fed.shard("pytorch")
            image = payload_dumps(shard.store.export_state())
            supervisor = pool.supervisor_for("pytorch")
            assert supervisor.recovery["replayed"] == 0
            pid = kill_and_wait(supervisor)

            snap = shard.store.snapshot()
            assert supervisor.restarts == 1
            assert supervisor.pid != pid
            assert snap.generation == 2
            assert payload_dumps(shard.store.export_state()) == image
            # Both admissions came back from the WAL through the warm
            # pipeline cache: no workload ran during recovery.
            assert supervisor.recovery["replayed"] == 2
            assert supervisor.recovery["workload_runs"] == 0
            root = pool.root
            assert os.path.isdir(root)
        finally:
            pool.shutdown()
        assert not os.path.exists(root)  # the pool owned the temp dir

    def test_worker_dir_holds_only_the_wal_until_a_checkpoint(self, pool):
        fed = StoreFederation(fed_config(), remote_pool=pool)
        for spec in pt_specs()[:2]:
            fed.admit(spec)
        workdir = pool.supervisor_for("pytorch").directory
        assert files_under(workdir) == {os.path.join("wal", "pytorch.wal")}

        results = pool.checkpoint()
        worker = pool.supervisor_for("pytorch").name
        assert results[worker]["truncated"] == 2
        files = files_under(workdir)
        assert os.path.join("checkpoint", snapshots.MANIFEST_NAME) in files
        assert os.path.join("checkpoint", snapshots.BLOCKS_NAME) in files
        wal_path = os.path.join(workdir, "wal", "pytorch.wal")
        assert os.path.getsize(wal_path) == 0

    def test_engine_checkpoint_truncates_remote_wals(self, tmp_path):
        from repro.api import AdmitRequest
        from repro.api.config import DurabilityConfig

        config = fed_config(
            remote_shards=1,
            snapshot_dir=str(tmp_path / "sd"),
            durability=DurabilityConfig(enabled=True, fsync="off"),
        )
        with DebloatEngine(config) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            result = engine.checkpoint()
            assert result.value["remote"]["shard-0"]["truncated"] == 2
            engine.admit(AdmitRequest(workload_id=PT_IDS[2]))
            shard = engine.federation.shard("pytorch")
            image = payload_dumps(shard.store.export_state())
            supervisor = engine._remote_pool.supervisor_for("pytorch")
            kill_and_wait(supervisor)

            assert shard.store.generation == 3
            assert payload_dumps(shard.store.export_state()) == image
            recovery = supervisor.recovery
            assert recovery["snapshot_loaded"]
            assert recovery["replayed"] == 1  # only the post-checkpoint one
            assert recovery["workload_runs"] == 0

    def test_recovery_longer_than_the_op_deadline_still_boots(
        self, tmp_path
    ):
        """Replay outlasts ``op_deadline_s``; progress frames keep the
        boot alive, and the boot-time checkpoint means a second crash
        replays nothing."""
        deadline_s = 3.0
        records = 8  # each replayed record stalls faults.DELAY_S
        assert records * faults.DELAY_S > deadline_s
        supervisor = RemoteShardSupervisor(
            "shard-0",
            {
                "scale": TEST_SCALE,
                "archs": list(EngineConfig().archs),
                "directory": str(tmp_path / "shard-0"),
                "fault_plan": "seed=1;wal.replay%1:delay",
            },
            op_deadline_s=deadline_s,
        )
        client = RemoteStoreClient(supervisor, "pytorch")
        try:
            for i in range(records):
                client.admit(pt_specs()[i % len(PT_IDS)])
            image = payload_dumps(client.export_state())
            kill_and_wait(supervisor)

            assert client.snapshot().generation == records
            recovery = supervisor.recovery
            assert recovery["replayed"] == records
            assert recovery["wall_s"] > deadline_s
            assert payload_dumps(client.export_state()) == image
            kill_and_wait(supervisor)

            assert payload_dumps(client.export_state()) == image
            assert supervisor.recovery["snapshot_loaded"]
            assert supervisor.recovery["replayed"] == 0
            assert supervisor.restarts == 2
        finally:
            supervisor.shutdown()

    def test_worker_checkpoints_itself_as_its_wal_grows(self, tmp_path):
        from repro.serving.remote import CHECKPOINT_EVERY_RECORDS

        supervisor = RemoteShardSupervisor(
            "shard-0",
            {
                "scale": TEST_SCALE,
                "archs": list(EngineConfig().archs),
                "directory": str(tmp_path / "shard-0"),
            },
        )
        client = RemoteStoreClient(supervisor, "pytorch")
        extra = 3
        try:
            for i in range(CHECKPOINT_EVERY_RECORDS + extra):
                client.admit(pt_specs()[i % len(PT_IDS)])
            image = payload_dumps(client.export_state())
            kill_and_wait(supervisor)
            assert payload_dumps(client.export_state()) == image
            recovery = supervisor.recovery
            assert recovery["snapshot_loaded"]
            assert recovery["replayed"] == extra
        finally:
            supervisor.shutdown()

    def test_engine_puts_worker_dirs_under_the_durability_dir(
        self, tmp_path
    ):
        from repro.api.config import DurabilityConfig

        durable = str(tmp_path / "durable")
        config = fed_config(
            remote_shards=1,
            durability=DurabilityConfig(
                enabled=True, directory=durable, fsync="off"
            ),
        )
        with DebloatEngine(config) as engine:
            assert engine._remote_pool.root == os.path.join(
                durable, "workers"
            )

    def test_worker_wal_fault_is_transient_and_lands_once(self, tmp_path):
        supervisor = RemoteShardSupervisor(
            "shard-0",
            {
                "scale": TEST_SCALE,
                "archs": list(EngineConfig().archs),
                "directory": str(tmp_path / "shard-0"),
                "fault_plan": "seed=1;wal.append@1",
            },
        )
        client = RemoteStoreClient(supervisor, "pytorch")
        spec = pt_specs()[0]
        retried: list[BaseException] = []
        try:
            result = RetryPolicy(base_backoff_s=0.0).call(
                lambda: client.admit(spec),
                on_retry=lambda attempt, exc: retried.append(exc),
            )
            assert [type(e) for e in retried] == [WalAppendError]
            assert isinstance(retried[0], TransientError)
            # The faulted attempt rolled back inside the worker (no
            # restart): the retry is the one and only admission.
            assert supervisor.restarts == 0
            assert result.generation == 1
            assert client.snapshot().workload_ids == (spec.workload_id,)
            # ...and the WAL holds exactly that one record.
            kill_and_wait(supervisor)
            assert client.snapshot().generation == 1
            assert supervisor.recovery["replayed"] == 1
        finally:
            supervisor.shutdown()


# -- federation snapshot + engine integration ----------------------------------


class TestFederationSnapshots:
    def test_remote_import_matches_local_export(self, pool, tmp_path):
        source = StoreFederation(fed_config())
        for spec in pt_specs()[:2]:
            source.admit(spec)
        snapdir = str(tmp_path / "fed-snap")
        source.export_snapshot(snapdir)

        target = StoreFederation(fed_config(), remote_pool=pool)
        generations = target.import_snapshot(snapdir)
        assert generations == {"pytorch": 2}
        assert target.shard("pytorch").remote
        assert payload_dumps(
            target.shard("pytorch").store.export_state()
        ) == payload_dumps(source.shard("pytorch").store.export_state())
        # Imported workloads are live traffic for the eviction clock.
        assert set(target.shard("pytorch").last_served) == set(
            source.shard("pytorch").store.snapshot().workload_ids
        )

    def test_engine_export_import_and_default_dirs(self, tmp_path):
        snapdir = str(tmp_path / "engine-snap")
        config = fed_config(snapshot_dir=snapdir)
        with DebloatEngine(config) as engine:
            from repro.api import AdmitRequest

            engine.admit(AdmitRequest(spec=pt_specs()[0]))
            result = engine.export_snapshot()
            assert result.value["directory"] == os.path.join(
                snapdir, "federation"
            )
        with DebloatEngine(config) as replica:
            imported = replica.import_snapshot()
            assert imported.value["generations"] == {"pytorch": 1}
        with DebloatEngine(fed_config()) as bare:
            with pytest.raises(UsageError, match="snapshot directory"):
                bare.export_snapshot()

    def test_engine_remote_shards_lifecycle(self, tmp_path):
        from repro.api import AdmitRequest

        config = fed_config(
            remote_shards=1, snapshot_dir=str(tmp_path / "sd")
        )
        with DebloatEngine(config) as engine:
            engine.admit(AdmitRequest(spec=pt_specs()[0]))
            health = engine.health()
            assert health["remote"]["workers"] == 1
            assert health["remote"]["alive"] == 1
            pool = engine._remote_pool
        # close() shuts the workers down.
        assert pool.health()["alive"] == 0

    def test_config_rejects_negative_remote_shards(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            EngineConfig(remote_shards=-1)
