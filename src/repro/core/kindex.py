"""Per-library kernel-usage index: the locate phase's array backbone.

The seed locator re-ran the ``cuobjdump`` extraction and intersected Python
``set``s of kernel names per element - interpreter-speed work.
:class:`KernelUsageIndex` turns one pass over a library's fatbin into flat
NumPy arrays the locator can query at array speed:

* kernel **names become sorted int64 IDs** - stable blake2 hashes (salted
  deterministically until collision-free, see :func:`assign_name_ids`), so
  set intersections become ``np.searchsorted`` probes;
* **entry-kernel membership is a CSR layout**: ``entry_ptr`` (one slot per
  element, +1) into a flat ``entry_ids`` array sorted within each segment,
  so "does any used kernel land in this element" is one vectorized
  membership test plus ``np.bitwise_or.reduceat`` over the segments;
* ``sm_arch``, file-range and size live in **parallel arrays**, so the
  architecture mask and the retain/remove :class:`~repro.utils.intervals.
  RangeSet`s fall straight out of boolean indexing.

The index is a pure function of the library bytes and is cached on the
:class:`~repro.elf.image.SharedLibrary` instance (:func:`index_for`), so
repeated locates - pipeline re-runs, serving admissions, ``cuobjdump``
queries - never re-walk the fatbin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.elf.image import SharedLibrary
from repro.errors import LocationError

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Deterministic salts tried before declaring the name set unhashable; real
#: 64-bit blake2 collisions are astronomically unlikely, so the loop exists
#: purely as a correctness guarantee (and a seam for the regression test).
MAX_ID_SALTS = 64


def name_id(name: str, salt: int = 0) -> int:
    """Stable signed-int64 ID of one kernel name (blake2b, salted)."""
    digest = hashlib.blake2b(
        name.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little", signed=True)


def assign_name_ids(names) -> tuple[dict[str, int], int]:
    """Collision-free ``name -> int64`` table for a library's kernel names.

    IDs are :func:`name_id` hashes; if two distinct names ever collide the
    whole table is re-derived with the next salt, so the mapping is always
    a bijection and deterministic across processes.
    """
    unique = sorted(set(names))
    for salt in range(MAX_ID_SALTS):
        table = {n: name_id(n, salt) for n in unique}
        if len(set(table.values())) == len(table):
            return table, salt
    raise LocationError(
        f"kernel name-ID table: unresolvable hash collisions across "
        f"{MAX_ID_SALTS} salts for {len(unique)} names"
    )


@dataclass
class KernelUsageIndex:
    """Vectorized view of one library's fatbin elements and kernel names.

    All per-element arrays are aligned and ordered by file position (the
    ``cuobjdump`` extraction order); ``element_index`` carries the global
    1-based indices the rest of the pipeline uses.
    """

    soname: str
    #: Global 1-based fatbin element indices, in file order.
    element_index: np.ndarray
    #: Per-element compute capability.
    sm_arch: np.ndarray
    #: Per-element file-range starts/stops (header + padded payload).
    starts: np.ndarray
    stops: np.ndarray
    #: CSR over *all* kernel names per element, in cubin order.
    kernel_ptr: np.ndarray
    kernel_ids: np.ndarray
    #: Flat kernel names aligned with ``kernel_ids`` (reporting/queries).
    kernel_names: tuple[str, ...]
    #: ``kernel_ids`` positions that are CPU-launchable (ENTRY) kernels.
    entry_mask: np.ndarray
    #: CSR over entry-kernel IDs, each segment sorted ascending.
    entry_ptr: np.ndarray
    entry_ids: np.ndarray
    #: Element position (0-based row) of each ``entry_ids`` slot.
    entry_elem: np.ndarray
    #: Collision-free name table and the salt that produced it.
    name_to_id: dict[str, int]
    salt: int
    id_to_name: dict[int, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.id_to_name = {v: k for k, v in self.name_to_id.items()}

    # -- geometry --------------------------------------------------------------

    @property
    def n(self) -> int:
        """Element count."""
        return int(self.element_index.size)

    @cached_property
    def sizes(self) -> np.ndarray:
        return self.stops - self.starts

    @cached_property
    def kernel_counts(self) -> np.ndarray:
        """Per-element total kernel count (duplicates preserved)."""
        return np.diff(self.kernel_ptr)

    @cached_property
    def kernel_elem(self) -> np.ndarray:
        """Element position (0-based row) of each ``kernel_ids`` slot."""
        return np.repeat(
            np.arange(self.n, dtype=np.int64), self.kernel_counts
        )

    # -- queries ---------------------------------------------------------------

    def used_id_array(self, used_kernels) -> np.ndarray:
        """Sorted unique IDs of the used names this library knows about.

        Names absent from the library map to nothing (the seed semantics:
        intersection with the element's name set), so unknown names can
        never produce a false hit through an ID coincidence.
        """
        table = self.name_to_id
        ids = [table[name] for name in used_kernels if name in table]
        if not ids:
            return _EMPTY_I64
        arr = np.asarray(ids, dtype=np.int64)
        arr.sort()
        return arr

    def entry_hit_mask(self, used_ids: np.ndarray) -> np.ndarray:
        """Flat boolean mask over ``entry_ids``: slot is a used kernel.

        ``used_ids`` must be sorted (``used_id_array`` output); membership
        is one ``np.searchsorted`` probe per slot.
        """
        if used_ids.size == 0 or self.entry_ids.size == 0:
            return np.zeros(self.entry_ids.size, dtype=bool)
        pos = np.searchsorted(used_ids, self.entry_ids)
        pos_c = np.minimum(pos, used_ids.size - 1)
        return (pos < used_ids.size) & (used_ids[pos_c] == self.entry_ids)

    def element_or(self, flat_mask: np.ndarray) -> np.ndarray:
        """OR-reduce a flat entry-slot mask into one boolean per element."""
        out = np.zeros(self.n, dtype=bool)
        if flat_mask.size == 0 or not flat_mask.any():
            return out
        lengths = np.diff(self.entry_ptr)
        valid = lengths > 0
        # Valid segment starts partition the flat array exactly (empty
        # segments contribute no slots), so reduceat over them is per-
        # element OR without any special-casing of zero-length runs.
        out[valid] = np.bitwise_or.reduceat(
            flat_mask, self.entry_ptr[:-1][valid]
        )
        return out

    def hit_csr(
        self, flat_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(ptr, ids) CSR of the *hit* entry IDs selected by ``flat_mask``.

        Segments inherit the sortedness of ``entry_ids``; duplicate IDs
        within an element (duplicate names in one cubin) are dropped so
        hit segments are sorted-unique sets.
        """
        positions = np.flatnonzero(flat_mask)
        return build_csr(
            self.entry_elem[positions], self.entry_ids[positions], self.n
        )

    def names_for_ids(self, ids) -> list[str]:
        table = self.id_to_name
        return [table[int(i)] for i in ids]

    def element_names(self, row: int) -> tuple[str, ...]:
        """All kernel names of the element at array ``row`` (cubin order)."""
        lo, hi = int(self.kernel_ptr[row]), int(self.kernel_ptr[row + 1])
        return self.kernel_names[lo:hi]

    def element_entry_names(self, row: int) -> tuple[str, ...]:
        """Entry-kernel names of the element at ``row`` (cubin order)."""
        lo, hi = int(self.kernel_ptr[row]), int(self.kernel_ptr[row + 1])
        mask = self.entry_mask[lo:hi]
        return tuple(
            name for name, m in zip(self.kernel_names[lo:hi], mask) if m
        )


def build_csr(
    elems: np.ndarray, ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(element, id) pairs, sorted by (element, id) -> sorted-unique CSR.

    Adjacent duplicates are dropped and the pointer array is one
    bincount + cumsum, so every hit-CSR construction (full locate, delta
    merge) shares one implementation.
    """
    if ids.size:
        keep = np.ones(ids.size, dtype=bool)
        keep[1:] = (elems[1:] != elems[:-1]) | (ids[1:] != ids[:-1])
        elems, ids = elems[keep], ids[keep]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(elems, minlength=n), out=ptr[1:])
    return ptr, ids


@dataclass
class DecisionTable:
    """Array form of a locate result, aligned with its library's index.

    ``arch_ok`` and ``retained_mask`` are per-element booleans;
    ``hit_ptr``/``hit_ids`` are a CSR of the *used* entry-kernel IDs per
    retained element (sorted-unique segments).  The locator's aggregates
    read these arrays directly; :class:`~repro.core.locate.ElementDecision`
    lists are materialized from them only for reporting.
    """

    index: KernelUsageIndex
    arch_ok: np.ndarray
    retained_mask: np.ndarray
    hit_ptr: np.ndarray
    hit_ids: np.ndarray


def build_index(lib: SharedLibrary) -> KernelUsageIndex:
    """One pass over the fatbin: names, IDs, CSR layouts, geometry arrays."""
    image = lib.fatbin
    elements = image.elements() if image is not None else []
    n = len(elements)

    element_index = np.empty(n, dtype=np.int64)
    sm_arch = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.int64)
    stops = np.empty(n, dtype=np.int64)
    kernel_ptr = np.zeros(n + 1, dtype=np.int64)
    flat_names: list[str] = []
    entry_chunks: list[np.ndarray] = []
    for row, element in enumerate(elements):
        cubin = element.cubin
        element_index[row] = element.index
        sm_arch[row] = element.sm_arch
        rng = element.file_range
        starts[row] = rng.start
        stops[row] = rng.stop
        flat_names.extend(cubin.names)
        kernel_ptr[row + 1] = len(flat_names)
        entry_chunks.append(cubin.entry_mask())

    name_to_id, salt = assign_name_ids(flat_names)
    kernel_ids = (
        np.fromiter(
            (name_to_id[name] for name in flat_names),
            dtype=np.int64,
            count=len(flat_names),
        )
        if flat_names
        else _EMPTY_I64.copy()
    )
    entry_mask = (
        np.concatenate(entry_chunks)
        if entry_chunks
        else np.zeros(0, dtype=bool)
    )

    kernel_elem = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(kernel_ptr)
    )
    entry_elem_raw = kernel_elem[entry_mask]
    entry_ids_raw = kernel_ids[entry_mask]
    # Sort within each element segment (stable by element, then ID).
    order = np.lexsort((entry_ids_raw, entry_elem_raw))
    entry_elem = entry_elem_raw[order]
    entry_ids = entry_ids_raw[order]
    entry_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_elem, minlength=n), out=entry_ptr[1:])

    return KernelUsageIndex(
        soname=lib.soname,
        element_index=element_index,
        sm_arch=sm_arch,
        starts=starts,
        stops=stops,
        kernel_ptr=kernel_ptr,
        kernel_ids=kernel_ids,
        kernel_names=tuple(flat_names),
        entry_mask=entry_mask,
        entry_ptr=entry_ptr,
        entry_ids=entry_ids,
        entry_elem=entry_elem,
        name_to_id=name_to_id,
        salt=salt,
    )


#: Cached-value payload kind of a persisted index (disk cache tier).
INDEX_KIND = "kernel_usage_index"


def index_to_payload(index: KernelUsageIndex) -> dict:
    """Wire form of an index (``value_dumps``-compatible payload tree).

    Everything but the name table ships as raw arrays; ``name_to_id`` is
    rebuilt from the flat (name, ID) pairs on load, so a restored index
    skips both the fatbin walk *and* the per-name blake2 hashing.
    """
    return {
        "soname": index.soname,
        "salt": int(index.salt),
        "element_index": index.element_index,
        "sm_arch": index.sm_arch,
        "starts": index.starts,
        "stops": index.stops,
        "kernel_ptr": index.kernel_ptr,
        "kernel_ids": index.kernel_ids,
        "kernel_names": list(index.kernel_names),
        "entry_mask": index.entry_mask,
        "entry_ptr": index.entry_ptr,
        "entry_ids": index.entry_ids,
        "entry_elem": index.entry_elem,
    }


def index_from_payload(payload: dict) -> KernelUsageIndex:
    """Rebuild an index from :func:`index_to_payload` output.

    Raises :class:`~repro.errors.CacheDecodeError` on any structural
    problem, so cache readers treat a damaged entry as a miss and
    recompute.
    """
    from repro.errors import CacheDecodeError

    try:
        names = tuple(payload["kernel_names"])
        kernel_ids = np.asarray(payload["kernel_ids"], dtype=np.int64)
        if len(names) != kernel_ids.size:
            raise CacheDecodeError(
                f"index payload: {len(names)} names vs {kernel_ids.size} ids"
            )
        return KernelUsageIndex(
            soname=payload["soname"],
            element_index=np.asarray(
                payload["element_index"], dtype=np.int64
            ),
            sm_arch=np.asarray(payload["sm_arch"], dtype=np.int64),
            starts=np.asarray(payload["starts"], dtype=np.int64),
            stops=np.asarray(payload["stops"], dtype=np.int64),
            kernel_ptr=np.asarray(payload["kernel_ptr"], dtype=np.int64),
            kernel_ids=kernel_ids,
            kernel_names=names,
            entry_mask=np.asarray(payload["entry_mask"], dtype=bool),
            entry_ptr=np.asarray(payload["entry_ptr"], dtype=np.int64),
            entry_ids=np.asarray(payload["entry_ids"], dtype=np.int64),
            entry_elem=np.asarray(payload["entry_elem"], dtype=np.int64),
            name_to_id=dict(zip(names, kernel_ids.tolist())),
            salt=int(payload["salt"]),
        )
    except CacheDecodeError:
        raise
    except Exception as exc:  # malformed tree of any shape -> decode error
        raise CacheDecodeError(f"malformed index payload: {exc}") from exc


def index_matches_library(
    index: KernelUsageIndex, lib: SharedLibrary
) -> bool:
    """Cheap structural sanity check for a persisted index.

    The disk digest already covers the framework build, so this only
    guards against cross-wiring (an entry served for the wrong library):
    soname and element count must line up with the parsed fatbin headers.
    """
    image = lib.fatbin
    return (
        index.soname == lib.soname
        and image is not None
        and index.n == image.element_count()
    )


def cached_index(lib: SharedLibrary) -> KernelUsageIndex | None:
    """The index already attached to ``lib``, or None.

    The one accessor for the per-library attribute cache - callers (the
    pipeline cache's persisted tier included) must never spell the
    attribute name themselves, so the caching contract lives here alone.
    """
    return getattr(lib, "_kernel_usage_index", None)


def remember_index(lib: SharedLibrary, index: KernelUsageIndex) -> None:
    """Attach ``index`` as the library's cached index (see :func:`cached_index`)."""
    lib._kernel_usage_index = index


def index_for(lib: SharedLibrary) -> KernelUsageIndex:
    """The library's cached index (built on first use, then reused).

    The cache rides on the :class:`SharedLibrary` instance itself -
    libraries are immutable once parsed, and a compacted copy is a *new*
    instance - so serving admissions, repeated pipeline runs and
    ``cuobjdump`` queries over the same generated framework all share one
    build.
    """
    index = cached_index(lib)
    if index is None:
        index = build_index(lib)
        remember_index(lib, index)
    return index
