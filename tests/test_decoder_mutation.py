"""Hostile bytes at the binary decoders: only typed errors escape.

Each case mutates a valid image - a random truncation, or 1-8 random byte
overwrites - and decodes it.  Decoding may succeed or raise a
:class:`~repro.errors.ReproError` subclass; any other exception (a bare
``ValueError`` from ``bytes.index``, a ``UnicodeDecodeError`` from a name
table) is a leak.  The seed and case budget are fixed, so a failure
reproduces exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.elf.parser import parse_shared_library
from repro.errors import ReproError
from repro.fatbin.parser import parse_fatbin

from tests.conftest import build_small_library

SEED = 1
CASES = 1500


def mutated(base: bytes, seed: int = SEED, cases: int = CASES):
    rng = random.Random(seed)
    for _ in range(cases):
        raw = bytearray(base)
        if rng.random() < 0.5:
            yield bytes(raw[: rng.randrange(len(raw))])
            continue
        for _ in range(rng.randint(1, 8)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        yield bytes(raw)


def leaks(base: bytes, decode) -> list[str]:
    found = []
    for case, data in enumerate(mutated(base)):
        try:
            decode(data)
        except ReproError:
            pass
        except Exception as exc:  # noqa: BLE001 - the leak being hunted
            found.append(f"case {case}: {type(exc).__name__}: {exc}")
    return found


@pytest.fixture(scope="module")
def library():
    return build_small_library()


def test_elf_parser_raises_only_typed_errors(library):
    found = leaks(library.data.to_bytes(), parse_shared_library)
    assert not found, f"{len(found)} untyped errors, first: {found[:3]}"


def test_fatbin_parser_raises_only_typed_errors(library):
    def decode(data: bytes) -> None:
        for element in parse_fatbin(data).elements():
            element.kernel_names()

    found = leaks(library.fatbin_bytes(), decode)
    assert not found, f"{len(found)} untyped errors, first: {found[:3]}"
