"""Versioned serialization of the debloat-report object graph.

The disk tier of the pipeline cache (``repro.experiments.diskcache``) has to
persist :class:`~repro.core.report.WorkloadDebloatReport` objects across
processes, which means the whole report graph - library reductions, locate
results with their :class:`~repro.core.locate.ElementDecision` lists and
NumPy-backed :class:`~repro.utils.intervals.RangeSet` ranges, run metrics
with per-library used-function arrays, timings, and the verification result
- needs a stable, versioned wire form.  None of those dataclasses know how
to serialize themselves; this module is the one place that does.

Two layers:

* :func:`to_payload` / :func:`from_payload` - lossless conversion between a
  report and a *payload tree*: nested dicts/lists of JSON scalars plus raw
  ``numpy.ndarray`` leaves.  The payload carries ``schema`` =
  :data:`SCHEMA_VERSION`; ``from_payload`` refuses any other version with
  :class:`~repro.errors.CacheSchemaError`.

* :func:`dumps` / :func:`loads` - a compact binary container for a payload:
  a fixed magic + version prefix, a JSON header in which every array is
  replaced by an index placeholder, the raw array bytes concatenated, and a
  trailing CRC32 over everything before it.  ``loads`` classifies every
  failure mode as :class:`~repro.errors.CacheDecodeError` (truncation,
  garbage, bad CRC) or :class:`~repro.errors.CacheSchemaError` (version
  skew) so cache readers can treat both as a miss, never a crash.

:func:`stable_digest` hashes arbitrary frozen-identity tuples (the pipeline
cache key plus the framework-build fingerprint) into a hex string that is
stable across processes and Python builds - unlike ``hash()``, which is
salted per process.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Any

import numpy as np

from repro.core.locate import ElementDecision, LocateResult, RemovalReason
from repro.core.report import (
    DebloatTiming,
    LibraryReduction,
    WorkloadDebloatReport,
)
from repro.core.verify import VerificationResult
from repro.errors import CacheDecodeError, CacheSchemaError
from repro.utils.intervals import RangeSet
from repro.workloads.metrics import RunMetrics

#: Bump on ANY change to the payload layout; readers treat other versions as
#: cache misses (the entry is recomputed and overwritten, never migrated).
#: v2: ``DebloatTiming.nsys_traced_run_s`` + NSys record counters.
SCHEMA_VERSION = 2

#: Container magic: "Repro Debloat-report Binary Container".
MAGIC = b"RDBC"

#: Payload kind of a full :class:`WorkloadDebloatReport`.
REPORT_KIND = "workload_debloat_report"

_HEADER = struct.Struct("<4sII")  # magic, schema version, JSON header length
_CRC = struct.Struct("<I")


# ---------------------------------------------------------------------------
# payload layer: report graph <-> dict/list/scalar/ndarray tree
# ---------------------------------------------------------------------------


def _rangeset_to_payload(rs: RangeSet) -> dict[str, Any]:
    return {
        "starts": np.asarray(rs.starts, dtype=np.int64),
        "stops": np.asarray(rs.stops, dtype=np.int64),
    }


def _rangeset_from_payload(p: dict[str, Any]) -> RangeSet:
    return RangeSet.from_arrays(p["starts"], p["stops"])


def _decision_to_payload(d: ElementDecision) -> dict[str, Any]:
    return {
        "index": d.index,
        "sm_arch": d.sm_arch,
        "size": d.size,
        "kernel_count": d.kernel_count,
        "retained": d.retained,
        "reason": None if d.reason is None else d.reason.name,
        "used_entry_kernels": list(d.used_entry_kernels),
    }


def _decision_from_payload(p: dict[str, Any]) -> ElementDecision:
    return ElementDecision(
        index=int(p["index"]),
        sm_arch=int(p["sm_arch"]),
        size=int(p["size"]),
        kernel_count=int(p["kernel_count"]),
        retained=bool(p["retained"]),
        reason=None if p["reason"] is None else RemovalReason[p["reason"]],
        used_entry_kernels=tuple(p["used_entry_kernels"]),
    )


def _locate_to_payload(res: LocateResult) -> dict[str, Any]:
    return {
        "soname": res.soname,
        "device_arch": res.device_arch,
        "decisions": [_decision_to_payload(d) for d in res.decisions],
        "retain_ranges": _rangeset_to_payload(res.retain_ranges),
        "remove_ranges": _rangeset_to_payload(res.remove_ranges),
    }


def _locate_from_payload(p: dict[str, Any]) -> LocateResult:
    return LocateResult(
        soname=p["soname"],
        device_arch=int(p["device_arch"]),
        decisions=[_decision_from_payload(d) for d in p["decisions"]],
        retain_ranges=_rangeset_from_payload(p["retain_ranges"]),
        remove_ranges=_rangeset_from_payload(p["remove_ranges"]),
    )


def _metrics_to_payload(m: RunMetrics | None) -> dict[str, Any] | None:
    if m is None:
        return None
    return {
        "workload_id": m.workload_id,
        "execution_time_s": m.execution_time_s,
        "peak_cpu_mem_bytes": m.peak_cpu_mem_bytes,
        "peak_gpu_mem_bytes": m.peak_gpu_mem_bytes,
        "output_digest": m.output_digest,
        "used_kernels": {
            soname: sorted(names) for soname, names in m.used_kernels.items()
        },
        "used_functions": {
            soname: np.asarray(idx, dtype=np.int64)
            for soname, idx in m.used_functions.items()
        },
        "counters": {k: int(v) for k, v in m.counters.items()},
    }


def _metrics_from_payload(p: dict[str, Any] | None) -> RunMetrics | None:
    if p is None:
        return None
    return RunMetrics(
        workload_id=p["workload_id"],
        execution_time_s=float(p["execution_time_s"]),
        peak_cpu_mem_bytes=int(p["peak_cpu_mem_bytes"]),
        peak_gpu_mem_bytes=int(p["peak_gpu_mem_bytes"]),
        output_digest=p["output_digest"],
        used_kernels={
            soname: frozenset(names)
            for soname, names in p["used_kernels"].items()
        },
        used_functions={
            soname: np.asarray(idx, dtype=np.int64)
            for soname, idx in p["used_functions"].items()
        },
        counters=dict(p["counters"]),
    )


def _library_to_payload(lib: LibraryReduction) -> dict[str, Any]:
    return {
        "soname": lib.soname,
        "file_size": lib.file_size,
        "cpu_size": lib.cpu_size,
        "n_functions": lib.n_functions,
        "gpu_size": lib.gpu_size,
        "n_elements": lib.n_elements,
        "file_size_after": lib.file_size_after,
        "cpu_size_after": lib.cpu_size_after,
        "n_functions_after": lib.n_functions_after,
        "gpu_size_after": lib.gpu_size_after,
        "n_elements_after": lib.n_elements_after,
    }


def _library_from_payload(p: dict[str, Any]) -> LibraryReduction:
    return LibraryReduction(
        soname=p["soname"],
        **{k: int(v) for k, v in p.items() if k != "soname"},
    )


def _timing_to_payload(t: DebloatTiming) -> dict[str, Any]:
    return {
        "kernel_detection_run_s": t.kernel_detection_run_s,
        "cpu_profiling_run_s": t.cpu_profiling_run_s,
        "locate_s": t.locate_s,
        "compact_s": t.compact_s,
        "instrumented_run_s": t.instrumented_run_s,
        "nsys_traced_run_s": t.nsys_traced_run_s,
    }


def _verification_to_payload(v: VerificationResult | None) -> dict | None:
    if v is None:
        return None
    return {
        "ok": v.ok,
        "original_digest": v.original_digest,
        "debloated_digest": v.debloated_digest,
        "error": v.error,
        "debloated_metrics": _metrics_to_payload(v.debloated_metrics),
    }


def _verification_from_payload(p: dict | None) -> VerificationResult | None:
    if p is None:
        return None
    return VerificationResult(
        ok=bool(p["ok"]),
        original_digest=p["original_digest"],
        debloated_digest=p["debloated_digest"],
        error=p["error"],
        debloated_metrics=_metrics_from_payload(p["debloated_metrics"]),
    )


def to_payload(report: WorkloadDebloatReport) -> dict[str, Any]:
    """Flatten a report into a versioned tree of plain data + ndarrays."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "workload_id": report.workload_id,
        "device_arch": report.device_arch,
        "libraries": [_library_to_payload(lib) for lib in report.libraries],
        "locate_results": {
            soname: _locate_to_payload(res)
            for soname, res in report.locate_results.items()
        },
        "timing": _timing_to_payload(report.timing),
        "baseline": _metrics_to_payload(report.baseline),
        "detection": _metrics_to_payload(report.detection),
        "debloated_run": _metrics_to_payload(report.debloated_run),
        "verification": _verification_to_payload(report.verification),
    }


def from_payload(payload: dict[str, Any]) -> WorkloadDebloatReport:
    """Rebuild a report from :func:`to_payload` output.

    Raises :class:`CacheSchemaError` on version skew and
    :class:`CacheDecodeError` on any structural problem.
    """
    try:
        schema = payload["schema"]
    except (TypeError, KeyError) as exc:
        raise CacheDecodeError("payload has no schema version") from exc
    if schema != SCHEMA_VERSION:
        raise CacheSchemaError(
            f"payload schema {schema!r} != supported {SCHEMA_VERSION}"
        )
    kind = payload.get("kind", REPORT_KIND)
    if kind != REPORT_KIND:
        raise CacheDecodeError(f"payload kind {kind!r} is not a report")
    try:
        return WorkloadDebloatReport(
            workload_id=payload["workload_id"],
            device_arch=int(payload["device_arch"]),
            libraries=[
                _library_from_payload(p) for p in payload["libraries"]
            ],
            locate_results={
                soname: _locate_from_payload(p)
                for soname, p in payload["locate_results"].items()
            },
            timing=DebloatTiming(
                **{k: float(v) for k, v in payload["timing"].items()}
            ),
            baseline=_metrics_from_payload(payload["baseline"]),
            detection=_metrics_from_payload(payload["detection"]),
            debloated_run=_metrics_from_payload(payload["debloated_run"]),
            verification=_verification_from_payload(payload["verification"]),
        )
    except CacheDecodeError:
        raise
    except Exception as exc:  # malformed tree of any shape -> decode error
        raise CacheDecodeError(f"malformed report payload: {exc}") from exc


# ---------------------------------------------------------------------------
# container layer: payload tree <-> bytes
# ---------------------------------------------------------------------------


def _pack_tree(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace ndarray leaves with index placeholders, collecting them."""
    if isinstance(node, np.ndarray):
        arrays.append(np.ascontiguousarray(node))
        return {"__ndarray__": len(arrays) - 1}
    if isinstance(node, dict):
        return {k: _pack_tree(v, arrays) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_pack_tree(v, arrays) for v in node]
    if isinstance(node, np.integer):
        return int(node)
    if isinstance(node, np.floating):
        return float(node)
    return node


def _unpack_tree(node: Any, arrays: list[np.ndarray]) -> Any:
    if isinstance(node, dict):
        if set(node) == {"__ndarray__"}:
            return arrays[node["__ndarray__"]]
        return {k: _unpack_tree(v, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [_unpack_tree(v, arrays) for v in node]
    return node


def dumps(report: WorkloadDebloatReport) -> bytes:
    """Serialize a report into the compact binary container."""
    return payload_dumps(to_payload(report))


def payload_dumps(payload: dict[str, Any]) -> bytes:
    arrays: list[np.ndarray] = []
    tree = _pack_tree(payload, arrays)
    header = json.dumps(
        {
            "payload": tree,
            "arrays": [
                {"dtype": a.dtype.str, "shape": list(a.shape)} for a in arrays
            ],
        },
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")
    parts = [_HEADER.pack(MAGIC, SCHEMA_VERSION, len(header)), header]
    parts.extend(a.tobytes() for a in arrays)
    body = b"".join(parts)
    return body + _CRC.pack(zlib.crc32(body))


def loads(data: bytes) -> WorkloadDebloatReport:
    """Deserialize a container; every failure is a :class:`CacheError`."""
    return from_payload(payload_loads(data))


def value_dumps(value: Any, kind: str) -> bytes:
    """Serialize an arbitrary payload tree under a caller-chosen kind.

    The experiments' cached-value tier uses this for results that are not
    full reports: instrumented-run metrics + tool counters, ablation
    outcomes.  ``value`` may contain dicts/lists/scalars and ndarray
    leaves; tuples come back as lists.
    """
    return payload_dumps(
        {"schema": SCHEMA_VERSION, "kind": kind, "value": value}
    )


def value_loads(data: bytes, kind: str) -> Any:
    """Inverse of :func:`value_dumps`; kind mismatch is a decode error."""
    payload = payload_loads(data)
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise CacheSchemaError(
            f"payload schema {schema!r} != supported {SCHEMA_VERSION}"
        )
    if payload.get("kind") != kind:
        raise CacheDecodeError(
            f"payload kind {payload.get('kind')!r} != expected {kind!r}"
        )
    return payload["value"]


#: Public aliases: the cached-value tier persists bare RunMetrics too, and
#: the store-image / remote-shard payloads reuse the per-object pieces.
metrics_to_payload = _metrics_to_payload
metrics_from_payload = _metrics_from_payload
locate_to_payload = _locate_to_payload
locate_from_payload = _locate_from_payload
library_to_payload = _library_to_payload
library_from_payload = _library_from_payload
verification_to_payload = _verification_to_payload
verification_from_payload = _verification_from_payload


# ---------------------------------------------------------------------------
# workload-spec payloads: rebuildable identity, not pickled objects
# ---------------------------------------------------------------------------


def spec_to_payload(spec) -> dict[str, Any]:
    """Wire form of a :class:`~repro.workloads.spec.WorkloadSpec`.

    Ships the *identity* (model/dataset names plus the scalar knobs), not
    the nested spec objects: the receiving side rebuilds through the model
    and dataset registries, so a payload round-trip yields a spec that is
    ``==`` to the original (frozen dataclasses over registry-interned
    parts) and hits the same usage-cache keys.
    """
    return {
        "framework": spec.framework,
        "operation": spec.operation,
        "model": spec.model.name,
        "dataset": spec.dataset.name,
        "batch_size": spec.batch_size,
        "epochs": spec.epochs,
        "device_name": spec.device_name,
        "world_size": spec.world_size,
        "loading_mode": spec.loading_mode.value,
    }


def spec_from_payload(p: dict[str, Any]):
    from repro.cuda.driver import LoadingMode
    from repro.workloads.datasets import get_dataset
    from repro.workloads.models import get_model
    from repro.workloads.spec import WorkloadSpec

    return WorkloadSpec(
        framework=p["framework"],
        operation=p["operation"],
        model=get_model(p["model"]),
        dataset=get_dataset(p["dataset"]),
        batch_size=int(p["batch_size"]),
        epochs=int(p["epochs"]),
        device_name=p["device_name"],
        world_size=int(p["world_size"]),
        loading_mode=LoadingMode(p["loading_mode"]),
    )


def multi_report_to_payload(report) -> dict[str, Any]:
    """Wire form of a :class:`~repro.core.debloat.MultiWorkloadReport`."""
    return {
        "workload_ids": list(report.workload_ids),
        "libraries": [_library_to_payload(lib) for lib in report.libraries],
        "verifications": [
            _verification_to_payload(v) for v in report.verifications
        ],
        "marginal_new_kernels": [
            int(n) for n in report.marginal_new_kernels
        ],
    }


def multi_report_from_payload(p: dict[str, Any]):
    from repro.core.debloat import MultiWorkloadReport

    return MultiWorkloadReport(
        workload_ids=list(p["workload_ids"]),
        libraries=[_library_from_payload(lib) for lib in p["libraries"]],
        verifications=[
            _verification_from_payload(v) for v in p["verifications"]
        ],
        marginal_new_kernels=[int(n) for n in p["marginal_new_kernels"]],
    )


# ---------------------------------------------------------------------------
# library payloads: SparseFile / DebloatedLibrary / LocateResult
# ---------------------------------------------------------------------------


def sparsefile_to_payload(sf) -> dict[str, Any]:
    """Exact wire form of a :class:`~repro.utils.sparsefile.SparseFile`.

    Extent starts/ends plus one concatenated chunk blob: rebuilding writes
    the chunks back in order, and the extent invariant (sorted, disjoint,
    non-adjacent) guarantees the rebuilt file has identical structure, not
    just identical reads.
    """
    extents = sf.extents()
    starts = np.asarray(extents.starts, dtype=np.int64)
    stops = np.asarray(extents.stops, dtype=np.int64)
    blob = b"".join(
        sf.read(int(s), int(e - s)) for s, e in zip(starts, stops)
    )
    return {
        "logical_size": sf.logical_size,
        "starts": starts,
        "stops": stops,
        "blob": np.frombuffer(blob, dtype=np.uint8),
    }


def sparsefile_from_payload(p: dict[str, Any]):
    from repro.utils.sparsefile import SparseFile

    sf = SparseFile(int(p["logical_size"]))
    blob = p["blob"].tobytes()
    offset = 0
    for s, e in zip(p["starts"].tolist(), p["stops"].tolist()):
        length = e - s
        sf.write(s, blob[offset : offset + length])
        offset += length
    return sf


def debloated_to_payload(d) -> dict[str, Any]:
    """Wire form of a :class:`~repro.core.compact.DebloatedLibrary`.

    Ships the *compacted* bytes plus the removal record; the original
    library (typically hundreds of MB of generated content the reader
    already holds) is reattached on the other side by
    :func:`debloated_from_payload`, never serialized.
    """
    lib = d.lib
    mask = lib.tags.get("removed_function_mask")
    return {
        "soname": d.soname,
        "proprietary": lib.proprietary,
        "data": sparsefile_to_payload(lib.data),
        "removed_cpu_ranges": _rangeset_to_payload(d.removed_cpu_ranges),
        "removed_gpu_ranges": _rangeset_to_payload(d.removed_gpu_ranges),
        "removed_elements": d.removed_elements,
        "removed_functions": d.removed_functions,
        "removed_bytes_total": int(lib.tags["removed_bytes_total"]),
        "removed_function_mask": (
            None if mask is None else np.asarray(mask, dtype=bool)
        ),
    }


def debloated_from_payload(p: dict[str, Any], original):
    """Rebuild a :class:`DebloatedLibrary` against the caller's original.

    Reproduces exactly what :meth:`~repro.core.compact.Compactor.compact`
    constructs: a freshly parsed library over the compacted bytes, tags
    inherited from the original plus the removal record.
    """
    from repro.core.compact import DebloatedLibrary
    from repro.elf.parser import parse_shared_library

    soname = p["soname"]
    if soname != original.soname:
        raise CacheDecodeError(
            f"debloated payload for {soname!r} paired with "
            f"{original.soname!r}"
        )
    lib = parse_shared_library(
        sparsefile_from_payload(p["data"]), soname, bool(p["proprietary"])
    )
    lib.tags.update(original.tags)
    lib.tags["debloated_from"] = soname
    lib.tags["removed_bytes_total"] = int(p["removed_bytes_total"])
    if p["removed_function_mask"] is not None:
        lib.tags["removed_function_mask"] = p["removed_function_mask"]
    return DebloatedLibrary(
        lib=lib,
        original=original,
        removed_cpu_ranges=_rangeset_from_payload(p["removed_cpu_ranges"]),
        removed_gpu_ranges=_rangeset_from_payload(p["removed_gpu_ranges"]),
        removed_elements=int(p["removed_elements"]),
        removed_functions=int(p["removed_functions"]),
    )


# ---------------------------------------------------------------------------
# store images: a whole DebloatStore epoch as one payload
# ---------------------------------------------------------------------------

#: Payload kind of a full :class:`~repro.serving.store.DebloatStore` image
#: (usage unions, per-library decisions, kernel-usage indexes, debloated
#: library extents + bytes) - what snapshot export/import and the remote
#: shard push/pull protocol ship.
STORE_KIND = "debloat_store_image"


def store_to_payload(store) -> dict[str, Any]:
    """One consistent image of a store's committed epoch.

    Thin delegation to :meth:`~repro.serving.store.DebloatStore.export_state`
    (which captures under the admission lock); lives here so the wire
    format has one home alongside the other payload kinds.
    """
    return store.export_state()


def store_from_payload(
    payload: dict[str, Any],
    options=None,
    use_cache: bool = False,
    cache=None,
):
    """Rebuild a warm :class:`DebloatStore` from a store image.

    Regenerates the framework build the image names from the catalog
    (deterministic generation, *not* a workload run) and imports the
    image into a fresh store.  Raises
    :class:`~repro.errors.SnapshotSchemaError` on version skew and
    :class:`~repro.errors.SnapshotError` for an image without a catalog
    build key (hand-built frameworks must import via
    :meth:`DebloatStore.import_state` on a caller-constructed store).
    """
    from repro.errors import SnapshotError
    from repro.frameworks.catalog import get_framework
    from repro.serving.store import DebloatStore

    _check_store_payload(payload)
    build = payload.get("build")
    if build is None:
        raise SnapshotError(
            f"store image for {payload.get('framework')!r} has no catalog "
            f"build key; import it into an explicitly constructed store"
        )
    framework = get_framework(
        build["name"],
        scale=float(build["scale"]),
        archs=tuple(int(a) for a in build["archs"]),
    )
    store = DebloatStore(
        framework, options, use_cache=use_cache, cache=cache
    )
    store.import_state(payload)
    return store


def _check_store_payload(payload: dict[str, Any]) -> None:
    """Schema/kind gate shared by every store-image reader."""
    from repro.errors import SnapshotError, SnapshotSchemaError

    if not isinstance(payload, dict):
        raise SnapshotError("store image payload is not a mapping")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise SnapshotSchemaError(
            f"store image schema {schema!r} != supported {SCHEMA_VERSION}"
        )
    if payload.get("kind") != STORE_KIND:
        raise SnapshotError(
            f"payload kind {payload.get('kind')!r} is not a store image"
        )


def payload_loads(data: bytes) -> dict[str, Any]:
    if len(data) < _HEADER.size + _CRC.size:
        raise CacheDecodeError(f"container truncated ({len(data)} bytes)")
    magic, version, header_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CacheDecodeError(f"bad magic {magic!r}")
    if version != SCHEMA_VERSION:
        raise CacheSchemaError(
            f"container schema {version} != supported {SCHEMA_VERSION}"
        )
    (crc,) = _CRC.unpack_from(data, len(data) - _CRC.size)
    body = data[: len(data) - _CRC.size]
    if zlib.crc32(body) != crc:
        raise CacheDecodeError("CRC mismatch (corrupt container)")
    try:
        header = json.loads(
            body[_HEADER.size : _HEADER.size + header_len].decode("utf-8")
        )
        arrays: list[np.ndarray] = []
        offset = _HEADER.size + header_len
        for meta in header["arrays"]:
            dtype = np.dtype(meta["dtype"])
            shape = tuple(int(s) for s in meta["shape"])
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            chunk = body[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise CacheDecodeError("array section truncated")
            arrays.append(np.frombuffer(chunk, dtype=dtype).reshape(shape))
            offset += nbytes
        if offset != len(body):
            raise CacheDecodeError(
                f"{len(body) - offset} trailing bytes after array section"
            )
        payload = _unpack_tree(header["payload"], arrays)
    except CacheDecodeError:
        raise
    except Exception as exc:
        raise CacheDecodeError(f"malformed container: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheDecodeError("container payload is not a mapping")
    return payload


# ---------------------------------------------------------------------------
# equality + stable digests
# ---------------------------------------------------------------------------


def payload_equal(a: Any, b: Any) -> bool:
    """Deep equality over payload trees, ndarray-aware (dtype + values)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(payload_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            payload_equal(x, y) for x, y in zip(a, b)
        )
    return type(a) is type(b) and a == b


def reports_equal(
    a: WorkloadDebloatReport, b: WorkloadDebloatReport
) -> bool:
    """Semantic report equality (dataclass ``==`` chokes on ndarray fields)."""
    return payload_equal(to_payload(a), to_payload(b))


def _feed(h, obj: Any) -> None:
    """Hash one node with an unambiguous type tag (order- and type-safe)."""
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        h.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode() + b";")
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode() + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"S" + str(len(raw)).encode() + b":" + raw)
    elif isinstance(obj, bytes):
        h.update(b"Y" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"T(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"U(")
        for item in sorted(obj, key=repr):
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"D(")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b")")
    elif isinstance(obj, np.ndarray):
        h.update(b"A" + obj.dtype.str.encode() + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        _feed(h, repr(obj))


def stable_digest(*parts: Any) -> str:
    """A process-stable hex digest of arbitrary frozen-identity values.

    Equal values always produce equal digests across processes (no hash
    salting, no id()-dependence); any perturbation of any nested field
    produces a different digest.  Used to key disk-cache entries.
    """
    h = hashlib.blake2b(digest_size=20)
    _feed(h, parts)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# content-addressed blocks: chunking + block-aware store images
# ---------------------------------------------------------------------------

#: Chunk granularity of the content-addressed block layer
#: (:mod:`repro.storage`).  Pieces split at *absolute* multiples of this
#: size, so byte-identical extents at equal file offsets chunk into
#: byte-identical pieces regardless of which shard ingests them.
DEFAULT_BLOCK_SIZE = 64 * 1024

#: Payload kind of a snapshot's shared block pool: every unique block
#: referenced by the snapshot's shard images, written exactly once.
BLOCK_POOL_KIND = "block_pool"


def block_digest(data: bytes) -> str:
    """Content address of one block: blake2b over exactly its bytes."""
    return hashlib.blake2b(bytes(data), digest_size=20).hexdigest()


def iter_block_pieces(start: int, stop: int, block_size: int):
    """Split ``[start, stop)`` at absolute multiples of ``block_size``.

    Yields ``(piece_start, piece_stop)`` pairs covering the range exactly.
    Alignment to absolute offsets (not extent-relative ones) is what makes
    chunking content-addressable across shards: two extents holding the
    same bytes at the same file offset always produce the same pieces.
    """
    pos = int(start)
    stop = int(stop)
    while pos < stop:
        boundary = (pos // block_size + 1) * block_size
        nxt = boundary if boundary < stop else stop
        yield pos, nxt
        pos = nxt


def payload_is_deflated(payload: dict[str, Any]) -> bool:
    """True if any debloated entry references blocks instead of a blob."""
    return any(
        "piece_digests" in entry["data"]
        for entry in payload.get("debloated", {}).values()
    )


def deflate_store_payload(
    payload: dict[str, Any],
    pool: dict[str, bytes],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> dict[str, Any]:
    """Block-aware form of a store image: blobs become digest lists.

    Each debloated entry's ``data.blob`` is replaced by ``piece_digests``
    (one digest per offset-aligned piece, in extent order) and the piece
    bytes land in ``pool`` keyed by digest - shared across every shard of
    a snapshot, so duplicate content is written once.  Everything else in
    the image (extent arrays included) passes through untouched, which is
    what lets :func:`inflate_store_payload` reconstruct the original
    payload byte-exactly.
    """
    _check_store_payload(payload)
    out = dict(payload)
    debloated: dict[str, Any] = {}
    for soname, entry in payload["debloated"].items():
        data = entry["data"]
        blob = data["blob"].tobytes()
        digests: list[str] = []
        offset = 0
        for s, e in zip(data["starts"].tolist(), data["stops"].tolist()):
            for ps, pe in iter_block_pieces(s, e, block_size):
                piece = blob[offset : offset + (pe - ps)]
                digest = block_digest(piece)
                pool.setdefault(digest, piece)
                digests.append(digest)
                offset += pe - ps
        new_data = dict(data)
        del new_data["blob"]
        new_data["block_size"] = int(block_size)
        new_data["piece_digests"] = digests
        new_entry = dict(entry)
        new_entry["data"] = new_data
        debloated[soname] = new_entry
    out["debloated"] = debloated
    return out


def inflate_store_payload(
    payload: dict[str, Any], pool: dict[str, bytes]
) -> dict[str, Any]:
    """Invert :func:`deflate_store_payload` byte-exactly.

    ``inflate(deflate(p, pool), pool)`` reproduces ``p`` such that
    ``payload_dumps`` of both are identical - the property the durability
    byte-identity contract (``bench_durability``) rides on.  A digest the
    pool lacks, or a piece whose length disagrees with the extent arrays,
    raises :class:`~repro.errors.SnapshotError`.
    """
    from repro.errors import SnapshotError

    out = dict(payload)
    debloated: dict[str, Any] = {}
    for soname, entry in payload.get("debloated", {}).items():
        data = entry["data"]
        if "piece_digests" not in data:
            debloated[soname] = entry
            continue
        block_size = int(data["block_size"])
        pieces: list[bytes] = []
        digests = iter(data["piece_digests"])
        for s, e in zip(data["starts"].tolist(), data["stops"].tolist()):
            for ps, pe in iter_block_pieces(s, e, block_size):
                digest = next(digests, None)
                if digest is None:
                    raise SnapshotError(
                        f"{soname}: block manifest shorter than extents"
                    )
                piece = pool.get(digest)
                if piece is None:
                    raise SnapshotError(
                        f"{soname}: block {digest} missing from pool"
                    )
                if len(piece) != pe - ps:
                    raise SnapshotError(
                        f"{soname}: block {digest} is {len(piece)} bytes, "
                        f"extents expect {pe - ps}"
                    )
                pieces.append(piece)
        if next(digests, None) is not None:
            raise SnapshotError(
                f"{soname}: block manifest longer than extents"
            )
        blob = b"".join(pieces)
        new_data = {
            "logical_size": data["logical_size"],
            "starts": data["starts"],
            "stops": data["stops"],
            "blob": np.frombuffer(blob, dtype=np.uint8),
        }
        new_entry = dict(entry)
        new_entry["data"] = new_data
        debloated[soname] = new_entry
    out["debloated"] = debloated
    return out


def block_pool_to_payload(pool: dict[str, bytes]) -> dict[str, Any]:
    """One RDBC container holding every pool block, sorted by digest.

    Digest-sorted layout makes re-exporting an unchanged federation write
    a byte-identical pool file (the snapshot determinism contract).
    """
    digests = sorted(pool)
    lengths = np.asarray([len(pool[d]) for d in digests], dtype=np.int64)
    blob = b"".join(pool[d] for d in digests)
    return {
        "schema": SCHEMA_VERSION,
        "kind": BLOCK_POOL_KIND,
        "digests": digests,
        "lengths": lengths,
        "blob": np.frombuffer(blob, dtype=np.uint8),
    }


def block_pool_from_payload(p: dict[str, Any]) -> dict[str, bytes]:
    """Decode a pool container, re-verifying every block's digest."""
    from repro.errors import SnapshotError, SnapshotSchemaError

    if not isinstance(p, dict) or p.get("kind") != BLOCK_POOL_KIND:
        raise SnapshotError(
            f"payload kind {p.get('kind')!r} is not a block pool"
        )
    if p.get("schema") != SCHEMA_VERSION:
        raise SnapshotSchemaError(
            f"block pool schema {p.get('schema')!r} != supported "
            f"{SCHEMA_VERSION}"
        )
    blob = p["blob"].tobytes()
    pool: dict[str, bytes] = {}
    offset = 0
    for digest, length in zip(p["digests"], p["lengths"].tolist()):
        piece = blob[offset : offset + length]
        if len(piece) != length:
            raise SnapshotError("block pool blob truncated")
        if block_digest(piece) != digest:
            raise SnapshotError(
                f"block pool entry {digest} fails digest re-verification"
            )
        pool[digest] = piece
        offset += length
    if offset != len(blob):
        raise SnapshotError(
            f"{len(blob) - offset} trailing bytes after block pool"
        )
    return pool
