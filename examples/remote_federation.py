"""Distributed federation: remote shard workers and warm snapshots.

Pushes the store federation out of process: two shard workers speak the
length-prefixed RDBC protocol, the federation routes each framework to a
worker by consistent hash of its build fingerprint, and every worker
journals each committed mutation to its own write-ahead log.  The
example then SIGKILLs a worker to show the recovery contract (typed
``RemoteShardError``, respawn, WAL replay inside the new worker,
byte-identical image) and finishes with the snapshot story: a
fresh replica imports the export and serves with **zero workload runs**.

Run:  python examples/remote_federation.py
"""

import os
import signal
import tempfile
import time

import repro.workloads.runner as runner
from repro.api import AdmitRequest, DebloatEngine, EngineConfig
from repro.core.debloat import DebloatOptions
from repro.errors import TransientError

SCALE = 0.125

WORKLOADS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
    "tensorflow/train/mobilenetv2",
]

OPTIONS = DebloatOptions(runtime_comparison_top_n=0)


def admit_with_retry(engine: DebloatEngine, workload_id: str):
    """One manual retry: what a serving RetryPolicy does automatically."""
    for attempt in (1, 2):
        try:
            return engine.admit(AdmitRequest(workload_id=workload_id))
        except TransientError as exc:
            print(f"  attempt {attempt}: {type(exc).__name__}: {exc}")
            time.sleep(0.1)
    raise AssertionError("second attempt should have recovered")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-remote-fed-") as root:
        snapdir = os.path.join(root, "snapshots")
        engine = DebloatEngine(
            EngineConfig(
                scale=SCALE,
                options=OPTIONS,
                remote_shards=2,
                snapshot_dir=snapdir,
            )
        ).open()
        try:
            print("== mixed-framework admissions over two shard workers ==")
            for workload_id in WORKLOADS:
                result = engine.admit(AdmitRequest(workload_id=workload_id))
                route = engine.federation.route_for(result.framework)
                print(f"  {workload_id:<32} -> {route}  "
                      f"(generation {result.generation})")

            remote = engine.health()["remote"]
            victim_name = sorted(remote["shards"])[0]
            victim = remote["shards"][victim_name]
            print(f"\n== SIGKILL {victim_name} (pid {victim['pid']}) ==")
            os.kill(victim["pid"], signal.SIGKILL)
            time.sleep(0.2)

            # The next touch surfaces a typed transient error; the retry
            # respawns the worker, which replays its own WAL on boot.
            result = admit_with_retry(engine, WORKLOADS[0])
            remote = engine.health()["remote"]
            print(f"  recovered: restarts={remote['restarts']} "
                  f"alive={remote['alive']}/{remote['workers']} "
                  f"(re-admission served at generation "
                  f"{result.generation})")

            print("\n== snapshot export ==")
            export = engine.export_snapshot().value
            for entry in export["manifest"]["shards"]:
                print(f"  {entry['file']:<28} "
                      f"{entry['bytes'] / 1e6:6.2f} MB  "
                      f"generation {entry['generation']}")
        finally:
            engine.close()

        print("\n== fresh replica imports the snapshot, zero runs ==")
        replica = DebloatEngine(
            EngineConfig(scale=SCALE, options=OPTIONS)
        ).open()
        original_run = runner.WorkloadRunner.run

        def refuse(self):
            raise AssertionError("workload ran during snapshot import")

        runner.WorkloadRunner.run = refuse
        try:
            start = time.perf_counter()
            imported = replica.import_snapshot(export["directory"])
            wall = time.perf_counter() - start
        finally:
            runner.WorkloadRunner.run = original_run

        reexport = replica.export_snapshot(
            os.path.join(root, "reexport")
        ).value
        for entry in export["manifest"]["shards"]:
            source = os.path.join(export["directory"], entry["file"])
            copy = os.path.join(reexport["directory"], entry["file"])
            with open(source, "rb") as a, open(copy, "rb") as b:
                assert a.read() == b.read(), entry["framework"]
        replica.close()

        print(f"  imported {imported.value['generations']} "
              f"in {wall:.2f}s - re-export byte-identical, "
              "no workload executed")


if __name__ == "__main__":
    main()
