"""ELF64 reader: parse a :class:`SparseFile` back into a :class:`SharedLibrary`.

The parser walks the section header table, decodes ``.shstrtab`` for section
names, and materializes ``.symtab``/``.strtab`` into a
:class:`~repro.elf.symtab.SymbolTable`.  It is strict about the invariants
the rest of the pipeline relies on (entry sizes, link indices, bounds).
"""

from __future__ import annotations

from repro.elf import constants as C
from repro.elf.image import Section, SharedLibrary
from repro.elf.structs import Elf64Header, Elf64SectionHeader
from repro.elf.strtab import StringTable
from repro.elf.symtab import SymbolTable
from repro.errors import ElfFormatError
from repro.utils.sparsefile import SparseFile


def parse_shared_library(
    data: SparseFile | bytes,
    soname: str = "unknown.so",
    proprietary: bool = False,
) -> SharedLibrary:
    """Parse an ELF64 image into a :class:`SharedLibrary`."""
    if isinstance(data, (bytes, bytearray)):
        data = SparseFile.from_bytes(bytes(data))

    if data.logical_size < C.EHDR_SIZE:
        raise ElfFormatError(f"{soname}: file too small for an ELF header")
    header = Elf64Header.unpack(data.read(0, C.EHDR_SIZE))

    if header.e_shoff == 0 or header.e_shnum == 0:
        raise ElfFormatError(f"{soname}: no section header table")
    table_size = header.e_shnum * C.SHDR_SIZE
    if header.e_shoff + table_size > data.logical_size:
        raise ElfFormatError(f"{soname}: section header table out of bounds")
    raw_table = data.read(header.e_shoff, table_size)
    raw_headers = [
        Elf64SectionHeader.unpack(raw_table[i * C.SHDR_SIZE : (i + 1) * C.SHDR_SIZE])
        for i in range(header.e_shnum)
    ]

    if header.e_shstrndx >= header.e_shnum:
        raise ElfFormatError(f"{soname}: e_shstrndx out of range")
    shstr_hdr = raw_headers[header.e_shstrndx]
    if shstr_hdr.sh_type != C.SHT_STRTAB:
        raise ElfFormatError(f"{soname}: shstrtab section is not SHT_STRTAB")
    if shstr_hdr.sh_offset + shstr_hdr.sh_size > data.logical_size:
        raise ElfFormatError(f"{soname}: shstrtab extends past end of file")
    shstrtab = StringTable(data.read(shstr_hdr.sh_offset, shstr_hdr.sh_size))

    sections: list[Section] = []
    for shdr in raw_headers:
        name = "" if shdr.sh_type == C.SHT_NULL and shdr.sh_name == 0 else shstrtab.get(
            shdr.sh_name
        )
        if shdr.sh_type != C.SHT_NOBITS and shdr.sh_size > 0:
            if shdr.sh_offset + shdr.sh_size > data.logical_size:
                raise ElfFormatError(
                    f"{soname}: section {name!r} extends past end of file"
                )
        sections.append(Section(name, shdr))

    symtab = _parse_symtab(data, sections, soname)
    return SharedLibrary(
        soname=soname,
        data=data,
        sections=sections,
        symtab=symtab,
        proprietary=proprietary,
    )


def _parse_symtab(
    data: SparseFile, sections: list[Section], soname: str
) -> SymbolTable:
    for i, sec in enumerate(sections):
        if sec.header.sh_type in (C.SHT_SYMTAB, C.SHT_DYNSYM):
            if sec.header.sh_entsize not in (0, C.SYM_SIZE):
                raise ElfFormatError(
                    f"{soname}: symbol entry size {sec.header.sh_entsize}"
                )
            link = sec.header.sh_link
            if link >= len(sections):
                raise ElfFormatError(f"{soname}: symtab sh_link out of range")
            str_sec = sections[link]
            if str_sec.header.sh_type != C.SHT_STRTAB:
                raise ElfFormatError(
                    f"{soname}: symtab links to non-STRTAB section {str_sec.name!r}"
                )
            sym_bytes = data.read(sec.header.sh_offset, sec.header.sh_size)
            str_bytes = data.read(str_sec.header.sh_offset, str_sec.header.sh_size)
            return SymbolTable.parse(sym_bytes, str_bytes)
    return SymbolTable.empty()
