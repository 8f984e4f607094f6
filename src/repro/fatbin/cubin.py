"""Cubin: the CUDA binary holding kernels and their intra-cubin call graph.

The locator's correctness rests on one compiler invariant (paper §3.2):
*a kernel launched by another kernel is compiled into the same cubin*, so the
kernel-call graph rooted at any CPU-launching kernel is closed within one
cubin.  :class:`Cubin` therefore stores, per kernel, its launch edges (indices
of callee kernels in the same cubin) and an ``ENTRY`` flag marking kernels
launchable from the CPU; ``DEVICE``-only kernels are reachable solely through
edges.

Layout: 32-byte header | kernel table (32 B/entry, numpy-bulk) | edge table
(u32 per edge) | NUL-separated name table | padding | code area (sparse).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CubinFormatError
from repro.fatbin import constants as FC
from repro.utils.sparsefile import SparseFile

_CUBIN_HDR_FMT = "<IHHIIIIQ"
assert struct.calcsize(_CUBIN_HDR_FMT) == FC.CUBIN_HEADER_SIZE

KERNEL_DTYPE = np.dtype(
    [
        ("name_offset", "<u4"),
        ("flags", "<u4"),
        ("code_offset", "<u8"),
        ("code_size", "<u8"),
        ("launch_count", "<u4"),
        ("launch_table_offset", "<u4"),
    ]
)
assert KERNEL_DTYPE.itemsize == FC.KERNEL_ENTRY_SIZE


class KernelFlags(enum.IntFlag):
    """Kernel attribute flags stored in the kernel table."""

    NONE = 0
    ENTRY = 1  # launchable from the CPU via cuModuleGetFunction
    DEVICE = 2  # launched from another kernel (dynamic parallelism)


@dataclass
class Cubin:
    """A parsed/constructed cubin.

    Attributes
    ----------
    names:
        Kernel names, index-aligned with ``table``.
    table:
        Structured array of :data:`KERNEL_DTYPE` records.
    edges:
        Flat array of callee kernel indices; kernel ``i`` launches
        ``edges[table['launch_table_offset'][i] : +table['launch_count'][i]]``.
    """

    names: list[str]
    table: np.ndarray
    edges: np.ndarray

    # -- constructors ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        names: list[str],
        code_sizes: np.ndarray,
        entry_mask: np.ndarray,
        launch_edges: list[tuple[int, int]] | None = None,
    ) -> "Cubin":
        """Construct a cubin from kernel names/sizes and call-graph edges.

        ``launch_edges`` are (launcher_index, callee_index) pairs; callees get
        the ``DEVICE`` flag.  Code offsets are assigned contiguously.
        """
        n = len(names)
        code_sizes = np.asarray(code_sizes, dtype=np.int64)
        entry_mask = np.asarray(entry_mask, dtype=bool)
        if code_sizes.shape != (n,) or entry_mask.shape != (n,):
            raise ValueError("names/code_sizes/entry_mask length mismatch")
        table = np.zeros(n, dtype=KERNEL_DTYPE)
        table["code_size"] = code_sizes
        if n:
            table["code_offset"] = np.concatenate(
                ([0], np.cumsum(code_sizes[:-1]))
            )
        flags = np.where(entry_mask, int(KernelFlags.ENTRY), 0).astype(np.uint32)

        edges_per_kernel: list[list[int]] = [[] for _ in range(n)]
        for launcher, callee in launch_edges or []:
            if not (0 <= launcher < n and 0 <= callee < n):
                raise ValueError(f"edge ({launcher},{callee}) out of range")
            edges_per_kernel[launcher].append(callee)
            flags[callee] |= int(KernelFlags.DEVICE)
        table["flags"] = flags

        flat: list[int] = []
        for i, callees in enumerate(edges_per_kernel):
            table["launch_table_offset"][i] = len(flat)
            table["launch_count"][i] = len(callees)
            flat.extend(callees)
        edges = np.asarray(flat, dtype=np.uint32)
        return cls(list(names), table, edges)

    # -- accessors -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    @property
    def code_size(self) -> int:
        return int(self.table["code_size"].sum())

    def kernel_names(self) -> list[str]:
        return list(self.names)

    def entry_mask(self) -> np.ndarray:
        return (self.table["flags"] & int(KernelFlags.ENTRY)) != 0

    def entry_kernel_names(self) -> list[str]:
        mask = self.entry_mask()
        return [n for n, m in zip(self.names, mask) if m]

    def device_only_names(self) -> list[str]:
        flags = self.table["flags"]
        mask = ((flags & int(KernelFlags.DEVICE)) != 0) & (
            (flags & int(KernelFlags.ENTRY)) == 0
        )
        return [n for n, m in zip(self.names, mask) if m]

    def launches(self, index: int) -> np.ndarray:
        """Indices of kernels launched by kernel ``index``."""
        off = int(self.table["launch_table_offset"][index])
        cnt = int(self.table["launch_count"][index])
        return self.edges[off : off + cnt]

    def call_graph_closure(self, roots: list[int]) -> set[int]:
        """All kernels reachable from ``roots`` through launch edges."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(int(c) for c in self.launches(k))
        return seen

    # -- serialization ---------------------------------------------------------------

    def _name_table(self) -> tuple[bytes, np.ndarray]:
        encoded = [n.encode("utf-8") for n in self.names]
        lengths = np.fromiter(
            (len(e) + 1 for e in encoded), dtype=np.int64, count=len(encoded)
        )
        offsets = (
            np.concatenate(([0], np.cumsum(lengths[:-1])))
            if encoded
            else np.zeros(0, dtype=np.int64)
        )
        blob = b"\x00".join(encoded) + b"\x00" if encoded else b""
        return blob, offsets

    def serialized_size(self) -> int:
        """Total logical cubin size (structural bytes + code area)."""
        name_blob, _ = self._name_table()
        structural = (
            FC.CUBIN_HEADER_SIZE
            + len(self.table) * FC.KERNEL_ENTRY_SIZE
            + len(self.edges) * 4
            + len(name_blob)
        )
        return FC.pad_to(structural) + self.code_size

    def serialize_into(self, out: SparseFile, offset: int) -> int:
        """Write structural bytes at ``offset``; code area stays a hole.

        Returns the total logical size written (== :meth:`serialized_size`).
        """
        name_blob, name_offsets = self._name_table()
        table = self.table.copy()
        table["name_offset"] = name_offsets

        header = struct.pack(
            _CUBIN_HDR_FMT,
            FC.CUBIN_MAGIC,
            FC.CUBIN_VERSION,
            FC.CUBIN_HEADER_SIZE,
            len(self.table),
            len(name_blob),
            len(self.edges),
            0,
            self.code_size,
        )
        structural = header + table.tobytes() + self.edges.tobytes() + name_blob
        out.write(offset, structural)
        total = FC.pad_to(len(structural)) + self.code_size
        end = offset + total
        if end > out.logical_size:
            out.truncate(end)
        return total

    @classmethod
    def parse(cls, data: SparseFile, offset: int, size: int) -> "Cubin":
        """Parse a cubin's structural bytes; the code area is never read."""
        if size < FC.CUBIN_HEADER_SIZE:
            raise CubinFormatError("cubin smaller than header")
        raw = data.read(offset, FC.CUBIN_HEADER_SIZE)
        (
            magic,
            version,
            header_size,
            kernel_count,
            name_table_size,
            edge_count,
            _reserved,
            code_size,
        ) = struct.unpack(_CUBIN_HDR_FMT, raw)
        if magic != FC.CUBIN_MAGIC:
            raise CubinFormatError(f"bad cubin magic {magic:#x}")
        if header_size != FC.CUBIN_HEADER_SIZE:
            raise CubinFormatError(f"unexpected cubin header size {header_size}")

        table_bytes = kernel_count * FC.KERNEL_ENTRY_SIZE
        edge_bytes = edge_count * 4
        structural = FC.CUBIN_HEADER_SIZE + table_bytes + edge_bytes + name_table_size
        if FC.pad_to(structural) + code_size > size:
            raise CubinFormatError("cubin contents exceed declared size")

        body = data.read(offset + FC.CUBIN_HEADER_SIZE,
                         table_bytes + edge_bytes + name_table_size)
        table = np.frombuffer(body[:table_bytes], dtype=KERNEL_DTYPE).copy()
        edges = np.frombuffer(
            body[table_bytes : table_bytes + edge_bytes], dtype=np.uint32
        ).copy()
        name_blob = body[table_bytes + edge_bytes :]

        names: list[str] = []
        for off in table["name_offset"].tolist():
            if off >= len(name_blob):
                raise CubinFormatError("kernel name offset out of range")
            end = name_blob.find(b"\x00", off)
            if end < 0:
                raise CubinFormatError("kernel name is not NUL-terminated")
            try:
                names.append(name_blob[off:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CubinFormatError("kernel name is not UTF-8") from exc

        bad_edges = edges >= kernel_count if edge_count else np.zeros(0, dtype=bool)
        if bad_edges.any():
            raise CubinFormatError("launch edge references missing kernel")
        return cls(names, table, edges)
