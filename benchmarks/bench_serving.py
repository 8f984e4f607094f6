"""Serving benchmark: incremental store admission vs naive full recompute.

The serving claim: when workloads arrive over time, a shared
:class:`~repro.serving.store.DebloatStore` admits each new arrival by
running detection for that workload only and delta-compacting only the
libraries its usage actually grew - while the naive serving story
(re-debloating the union of the whole set on every arrival, which is
what a store-less deployment must do to keep one artifact set correct for
all consumers) recomputes O(n) detections and every library per arrival.

``test_*`` functions assert the comparison at the tiny test scale under a
plain pytest invocation (caching disabled for both sides - this measures
computation, not cache hits) and check the end-state byte-identity of the
two paths.  ``python benchmarks/bench_serving.py`` regenerates
``BENCH_serving.json``, the recorded baseline future PRs compare against.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.debloat import DebloatOptions
from repro.frameworks.catalog import get_framework
from repro.serving.store import DebloatStore
from repro.workloads.spec import TABLE1_WORKLOADS, WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_serving.json"

TEST_SCALE = 0.02
#: Incremental admission must beat naive recompute by at least this factor
#: over the whole arrival sequence.
SPEEDUP_FLOOR = 2.0

#: No verification/runtime-comparison runs: the benchmark isolates the
#: admission path (detection + locate + compact).
OPTIONS = DebloatOptions(verify=False, runtime_comparison_top_n=0)


def serving_specs() -> list[WorkloadSpec]:
    """An 8-workload single-framework arrival sequence.

    The four PyTorch catalog workloads plus half-batch variants of each;
    variants resolve different kernel shape buckets, so they are genuinely
    distinct usage sets arriving at the same store.
    """
    base = [w for w in TABLE1_WORKLOADS if w.framework == "pytorch"]
    variants = [
        w.variant(batch_size=max(1, w.batch_size // 2)) for w in base
    ]
    return base + variants


def run_incremental(
    specs: list[WorkloadSpec], framework
) -> tuple[list[float], DebloatStore]:
    """Admit arrivals one at a time into one store; per-arrival seconds."""
    store = DebloatStore(framework, OPTIONS)
    latencies = []
    for spec in specs:
        start = time.perf_counter()
        store.admit(spec)
        latencies.append(time.perf_counter() - start)
    return latencies, store


def one_shot_union(specs: list[WorkloadSpec], framework) -> dict:
    """Debloat the union of ``specs`` in a fresh uncached engine; return
    the debloated libraries."""
    from repro.api import AdmitRequest, DebloatEngine, EngineConfig

    config = EngineConfig(
        scale=framework.scale, options=OPTIONS, use_cache=False
    )
    with DebloatEngine(config) as engine:
        shard = engine.federation.ensure_shard(framework)
        for spec in specs:
            engine.admit(AdmitRequest(spec=spec))
        engine.report(framework.name)
        return shard.store.debloated_libraries()


def run_naive(specs: list[WorkloadSpec], framework) -> list[float]:
    """Full union recompute over the whole set per arrival."""
    latencies = []
    for i in range(len(specs)):
        start = time.perf_counter()
        one_shot_union(specs[: i + 1], framework)
        latencies.append(time.perf_counter() - start)
    return latencies


def test_incremental_beats_naive():
    """Acceptance: >= 2x over naive recompute on an 8-workload sequence."""
    specs = serving_specs()
    assert len(specs) >= 8
    framework = get_framework("pytorch", scale=TEST_SCALE)
    inc, _ = run_incremental(specs, framework)
    naive = run_naive(specs, framework)
    speedup = sum(naive) / sum(inc)
    print(
        f"\nincremental {sum(inc) * 1e3:.0f} ms total, naive "
        f"{sum(naive) * 1e3:.0f} ms total, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental admission only {speedup:.1f}x faster than naive "
        f"recompute (floor {SPEEDUP_FLOOR}x)"
    )


def test_incremental_matches_one_shot_union():
    """Admitting N one at a time ends in the SAME library bytes as one union."""
    specs = serving_specs()
    framework = get_framework("pytorch", scale=TEST_SCALE)
    _, store = run_incremental(specs, framework)
    one_shot = one_shot_union(specs, framework)
    incremental = store.debloated_libraries()
    assert sorted(incremental) == sorted(one_shot)
    for soname, d in incremental.items():
        other = one_shot[soname]
        assert d.lib.data == other.lib.data, soname
        assert d.removed_cpu_ranges == other.removed_cpu_ranges
        assert d.removed_gpu_ranges == other.removed_gpu_ranges


def federation_specs() -> list[WorkloadSpec]:
    """A 2-framework (pytorch + tensorflow) interleaved arrival sequence.

    Alternating frameworks is the adversarial arrival order for a
    federated store: every admission switches shards, so any cross-shard
    interference (shared locks, cross-framework recompaction) would show
    up directly in the per-arrival latencies.
    """
    pt = [w for w in TABLE1_WORKLOADS if w.framework == "pytorch"]
    tf = [w for w in TABLE1_WORKLOADS if w.framework == "tensorflow"]
    out: list[WorkloadSpec] = []
    for a, b in zip(pt, tf):
        out.extend((a, b))
    return out


def run_federation(specs: list[WorkloadSpec]):
    """Admit a mixed-framework sequence through one engine federation."""
    from repro.api import AdmitRequest, DebloatEngine, EngineConfig

    config = EngineConfig(scale=TEST_SCALE, options=OPTIONS, use_cache=False)
    latencies = []
    engine = DebloatEngine(config).open()
    for spec in specs:
        start = time.perf_counter()
        engine.admit(AdmitRequest(spec=spec))
        latencies.append(time.perf_counter() - start)
    return latencies, engine


def test_federation_matches_single_framework_stores():
    """Each federation shard ends byte-identical to a standalone store."""
    specs = federation_specs()
    latencies, engine = run_federation(specs)
    assert len(latencies) == 8
    try:
        snapshot = engine.snapshot()
        assert snapshot.frameworks == ("pytorch", "tensorflow")
        for name in snapshot.frameworks:
            framework = get_framework(name, scale=TEST_SCALE)
            standalone = DebloatStore(framework, OPTIONS)
            for spec in specs:
                if spec.framework == name:
                    standalone.admit(spec)
            shard = engine.federation.shard(name).store
            incremental = shard.debloated_libraries()
            expected = standalone.debloated_libraries()
            assert sorted(incremental) == sorted(expected)
            for soname, d in incremental.items():
                assert d.lib.data == expected[soname].lib.data, soname
    finally:
        engine.close()


def run_http(
    specs: list[WorkloadSpec],
    clients: int = 8,
    queue_bound: int = 64,
    coalesce_window_s: float = 0.005,
    shed_backoff_s: float = 0.05,
):
    """Drive a live HTTP front-end with concurrent clients.

    Returns (per-arrival seconds, shed count, the pytorch shard store).
    Shed requests (503) honor the backpressure contract and retry after
    a back-off, so every arrival eventually commits; latency is wall
    time from first attempt to the 200, sheds included.
    """
    import http.client
    import threading

    from repro.api import DebloatEngine, EngineConfig, HttpConfig
    from repro.serving.http import BackgroundHttpServer

    config = EngineConfig(
        scale=TEST_SCALE, options=OPTIONS, use_cache=False,
        workers=2, batch_max=8,
        http=HttpConfig(
            port=0, queue_bound=queue_bound,
            coalesce_window_s=coalesce_window_s,
        ),
    )
    engine = DebloatEngine(config)
    latencies = [0.0] * len(specs)
    sheds = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    with BackgroundHttpServer(engine, config.http) as bg:

        def client(worker: int) -> None:
            barrier.wait()
            for idx in range(worker, len(specs), clients):
                payload = json.dumps(
                    {"workload_id": specs[idx].workload_id}
                )
                start = time.perf_counter()
                while True:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", bg.port, timeout=600
                    )
                    try:
                        conn.request("POST", "/v1/admit", payload)
                        resp = conn.getresponse()
                        body = resp.read()
                        status = resp.status
                    finally:
                        conn.close()
                    if status == 503:
                        with lock:
                            sheds[0] += 1
                        time.sleep(shed_backoff_s)
                        continue
                    assert status == 200, (status, body[:200])
                    break
                latencies[idx] = time.perf_counter() - start

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store = engine.federation.shard("pytorch").store
    return latencies, sheds[0], store


def percentile_ms(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile, reported in milliseconds."""
    ordered = sorted(latencies)
    idx = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return round(ordered[idx] * 1e3, 1)


def test_http_matches_inprocess():
    """Acceptance: >= 8 concurrent HTTP clients end in a store
    byte-identical to in-process admission of the same arrivals."""
    specs = serving_specs()
    framework = get_framework("pytorch", scale=TEST_SCALE)
    latencies, _, store = run_http(specs, clients=8)
    assert all(lat > 0 for lat in latencies)
    _, inprocess = run_incremental(specs, framework)
    over_http = store.debloated_libraries()
    expected = inprocess.debloated_libraries()
    assert sorted(over_http) == sorted(expected)
    for soname, d in over_http.items():
        assert d.lib.data == expected[soname].lib.data, soname
        assert d.removed_cpu_ranges == expected[soname].removed_cpu_ranges
        assert d.removed_gpu_ranges == expected[soname].removed_gpu_ranges
    assert store.generation == inprocess.generation


def test_http_constrained_queue_sheds_not_hangs():
    """A queue bound far below the client count must shed (503) and still
    commit every arrival via client retry - never buffer without bound."""
    specs = serving_specs()
    latencies, sheds, store = run_http(
        specs, clients=8, queue_bound=2, coalesce_window_s=0.0
    )
    assert all(lat > 0 for lat in latencies)
    assert store.snapshot().generation == len(specs)


def test_bench_saturated_admission(benchmark):
    """pytest-benchmark hook: admission into a saturated union.

    Re-admitting a served workload is the store's steady state - zero new
    kernels, zero re-compactions, detection served from the recorded usage
    - i.e. the per-request cost once the union has saturated.
    """
    framework = get_framework("pytorch", scale=TEST_SCALE)
    specs = serving_specs()
    store = DebloatStore(framework, OPTIONS)
    for spec in specs:
        store.admit(spec)

    benchmark(store.admit, specs[-1])


# -- cost model guards: counted calls, no wall-clock bounds -------------------


class _Counted:
    """Count calls to ``owner.name`` while active (a patching context)."""

    def __init__(self, monkeypatch, owner, name: str) -> None:
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def _duplicate_admit_counts(store, spec, monkeypatch) -> dict[str, int]:
    import numpy as np

    from repro.core.report import LibraryReduction

    with monkeypatch.context() as m:
        counters = {
            "union1d": _Counted(m, np, "union1d"),
            "setdiff1d": _Counted(m, np, "setdiff1d"),
            "from_debloated": _Counted(m, LibraryReduction, "from_debloated"),
        }
        result = store.admit(spec)
    assert result.duplicate
    return {name: c.calls for name, c in counters.items()}


def test_duplicate_admit_does_no_union_or_row_work(monkeypatch):
    """A re-admission that changes nothing merges no array and rebuilds
    no report row, however long the ledger has grown."""
    framework = get_framework("pytorch", scale=TEST_SCALE)
    specs = serving_specs()
    store = DebloatStore(framework, OPTIONS)
    for spec in specs:
        store.admit(spec)
    for ledger in (10, 200):
        while len(store.snapshot().workload_ids) < ledger - 1:
            store.admit(specs[len(store.snapshot().workload_ids) % 8])
        counts = _duplicate_admit_counts(store, specs[0], monkeypatch)
        assert len(store.snapshot().workload_ids) == ledger
        assert counts == {"union1d": 0, "setdiff1d": 0, "from_debloated": 0}


def test_evict_merges_each_distinct_kept_spec_once(monkeypatch):
    """Eviction rebuilds the union from distinct specs: repeated ledger
    entries add nothing and are not re-merged."""
    framework = get_framework("pytorch", scale=TEST_SCALE)
    specs = serving_specs()
    store = DebloatStore(framework, OPTIONS)
    for _ in range(3):
        for spec in specs:
            store.admit(spec)
    evicted = specs[0].workload_id
    kept = {s for s in specs if s.workload_id != evicted}
    with monkeypatch.context() as m:
        merges = _Counted(m, DebloatStore, "_union_in")
        store.evict(evicted)
    assert merges.calls == len(kept)
    assert len(store.snapshot().workload_ids) == 3 * len(kept)


def test_remote_duplicate_admit_is_one_worker_call(monkeypatch, tmp_path):
    """Through the server, a remote duplicate admission is one round trip:
    its reply carries the summary the federation records."""
    from repro.api import EngineConfig
    from repro.api.federation import StoreFederation
    from repro.serving.remote import RemoteShardPool, RemoteShardProcess
    from repro.serving.server import DebloatServer

    config = EngineConfig(scale=TEST_SCALE, options=OPTIONS)
    pool = RemoteShardPool(
        1, scale=TEST_SCALE, archs=tuple(config.archs),
        root=str(tmp_path / "workers"),
    )
    try:
        federation = StoreFederation(config, remote_pool=pool)
        spec = serving_specs()[0]
        with DebloatServer(federation, workers=1) as server:
            server.admit(spec, timeout=120)
            with monkeypatch.context() as m:
                calls = _Counted(m, RemoteShardProcess, "call")
                result = server.admit(spec, timeout=120)
        assert result.duplicate
        assert calls.calls == 1
    finally:
        pool.shutdown()


def main() -> None:
    """Regenerate the recorded baseline (run on the reference machine)."""
    specs = serving_specs()
    framework = get_framework("pytorch", scale=TEST_SCALE)
    inc, store = run_incremental(specs, framework)
    naive = run_naive(specs, framework)
    fed_specs = federation_specs()
    fed, engine = run_federation(fed_specs)
    fed_stats = engine.stats()
    engine.close()
    http_lat, http_shed, _ = run_http(specs, clients=8)
    burst_lat, burst_shed, _ = run_http(
        specs, clients=8, queue_bound=2, coalesce_window_s=0.0
    )
    baseline = {
        "scale": TEST_SCALE,
        "workloads": [s.workload_id for s in specs],
        "incremental_ms": [round(s * 1e3, 1) for s in inc],
        "naive_ms": [round(s * 1e3, 1) for s in naive],
        "incremental_total_ms": round(sum(inc) * 1e3, 1),
        "naive_total_ms": round(sum(naive) * 1e3, 1),
        "speedup": round(sum(naive) / sum(inc), 1),
        "speedup_floor": SPEEDUP_FLOOR,
        "store_stats": store.stats(),
        "federation": {
            "workloads": [s.workload_id for s in fed_specs],
            "arrival_ms": [round(s * 1e3, 1) for s in fed],
            "total_ms": round(sum(fed) * 1e3, 1),
            "shards": fed_stats["shards"],
            "recompactions": fed_stats["recompactions"],
            "untouched_served": fed_stats["untouched_served"],
        },
        "http": {
            "clients": 8,
            "requests": len(specs),
            "queue_bound": 64,
            "p50_ms": percentile_ms(http_lat, 0.50),
            "p95_ms": percentile_ms(http_lat, 0.95),
            "p99_ms": percentile_ms(http_lat, 0.99),
            "shed_rate": round(
                http_shed / (http_shed + len(specs)), 3
            ),
            # Queue bound far below the client count: backpressure must
            # shed instead of buffering; clients retry until committed.
            "constrained_burst": {
                "queue_bound": 2,
                "p50_ms": percentile_ms(burst_lat, 0.50),
                "p95_ms": percentile_ms(burst_lat, 0.95),
                "p99_ms": percentile_ms(burst_lat, 0.99),
                "shed_rate": round(
                    burst_shed / (burst_shed + len(specs)), 3
                ),
            },
        },
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()
