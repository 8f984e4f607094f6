"""Micro-benchmark: the vectorized kernel locator vs the pure-Python seed.

Builds a 2,000-element synthetic library (two architectures x 1,000
cubins, 8 kernels each - the magnitude of a paper-scale ``libtorch_cuda``
fatbin) and runs the retention decision for a realistic used-kernel set
through both engines:

* ``KernelLocator.locate``      - vectorized passes over the cached
  :class:`~repro.core.kindex.KernelUsageIndex`;
* ``repro.core._locate_py``     - the seed per-element loop, kept as the
  equivalence oracle.

``test_vectorized_locate_speedup`` asserts the >= 5x acceptance floor with
plain timers (runs under a normal ``pytest benchmarks/bench_locate.py``
invocation).  ``python benchmarks/bench_locate.py`` regenerates
``BENCH_locate.json``, the recorded baseline future PRs compare against.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core._locate_py import locate_delta_py, locate_py
from repro.core.kindex import build_index
from repro.core.locate import KernelLocator
from repro.elf.builder import ElfBuilder
from repro.elf.parser import parse_shared_library
from repro.elf.symtab import SymbolTable
from repro.fatbin.builder import FatbinBuilder
from repro.fatbin.cubin import Cubin
from repro.fatbin.cuobjdump import extract_cubins

N_CUBINS = 1_000
ARCHS = (70, 75)
KERNELS_PER_CUBIN = 8
USED_FRACTION = 0.15
DELTA_FRACTION = 0.05
SEED = 20260727
SPEEDUP_FLOOR = 5.0
REPEATS = 3

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_locate.json"

_cache: dict = {}


def build_bench_library():
    """2,000 elements: ``N_CUBINS`` logical cubins replicated per arch."""
    if "lib" in _cache:
        return _cache["lib"]
    fb = FatbinBuilder()
    for arch in ARCHS:
        region = fb.add_region()
        for c in range(N_CUBINS):
            n = KERNELS_PER_CUBIN
            entry = np.zeros(n, dtype=bool)
            entry[: n // 2] = True
            region.add_element(
                Cubin.build(
                    names=[f"k{c}_{j}" for j in range(n)],
                    code_sizes=np.full(n, 256, dtype=np.int64),
                    entry_mask=entry,
                    launch_edges=[(0, n - 1)],
                ),
                sm_arch=arch,
            )
    n_fn = 64
    symtab = SymbolTable.for_functions(
        [f"fn_{i}" for i in range(n_fn)],
        np.arange(n_fn, dtype=np.int64) * 64,
        np.full(n_fn, 64, dtype=np.int64),
        section_index=1,
    )
    builder = ElfBuilder("libbench_locate.so")
    builder.add_text(n_fn * 64)
    builder.add_fatbin(fb.build())
    builder.set_function_symbols(symtab)
    lib = parse_shared_library(builder.build(), "libbench_locate.so")
    _cache["lib"] = lib
    return lib


def used_sets() -> tuple[frozenset[str], frozenset[str]]:
    """(initial used set, delta addition) - disjoint, deterministic."""
    rng = np.random.default_rng(SEED)
    n_used = int(N_CUBINS * KERNELS_PER_CUBIN * USED_FRACTION)
    n_delta = int(N_CUBINS * KERNELS_PER_CUBIN * DELTA_FRACTION)
    cubin = rng.integers(0, N_CUBINS, n_used + n_delta)
    kernel = rng.integers(0, KERNELS_PER_CUBIN // 2, n_used + n_delta)
    names = [f"k{c}_{j}" for c, j in zip(cubin.tolist(), kernel.tolist())]
    return frozenset(names[:n_used]), frozenset(names[n_used:]) - frozenset(
        names[:n_used]
    )


def _best(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure() -> dict:
    lib = build_bench_library()
    used, delta = used_sets()
    locator = KernelLocator()

    t0 = time.perf_counter()
    index = build_index(lib)
    index_build_s = time.perf_counter() - t0
    cubins = extract_cubins(lib)

    vec_s = _best(lambda: locator.locate(lib, used, 75, index=index))
    py_s = _best(lambda: locate_py(lib, used, 75, cubins=cubins))

    prev_vec = locator.locate(lib, used, 75, index=index)
    prev_py = locate_py(lib, used, 75, cubins=cubins)
    vec_delta_s = _best(
        lambda: locator.locate_delta(lib, prev_vec, delta, index=index)
    )
    py_delta_s = _best(
        lambda: locate_delta_py(lib, prev_py, delta, cubins=cubins)
    )

    # Equivalence on the exact benchmark inputs.
    assert (
        locator.locate(lib, used, 75, index=index).decisions
        == locate_py(lib, used, 75, cubins=cubins).decisions
    )
    assert (
        locator.locate_delta(lib, prev_vec, delta, index=index).decisions
        == locate_delta_py(lib, prev_py, delta, cubins=cubins).decisions
    )

    return {
        "n_elements": index.n,
        "n_kernels": len(index.kernel_names),
        "used_kernels": len(used),
        "delta_kernels": len(delta),
        "index_build_s": round(index_build_s, 6),
        "locate_python_s": round(py_s, 6),
        "locate_vectorized_s": round(vec_s, 6),
        "locate_speedup": round(py_s / vec_s, 2),
        "delta_python_s": round(py_delta_s, 6),
        "delta_vectorized_s": round(vec_delta_s, 6),
        "delta_speedup": round(py_delta_s / vec_delta_s, 2),
    }


def test_vectorized_locate_speedup():
    """Acceptance floor: >= 5x on the 2k-element locate microbench."""
    result = measure()
    assert result["n_elements"] == len(ARCHS) * N_CUBINS
    assert result["locate_speedup"] >= SPEEDUP_FLOOR, result
    assert result["delta_speedup"] >= SPEEDUP_FLOOR, result


def bench_locate_vectorized(benchmark):
    lib = build_bench_library()
    used, _ = used_sets()
    index = build_index(lib)
    locator = KernelLocator()
    benchmark(lambda: locator.locate(lib, used, 75, index=index))


def bench_locate_python_oracle(benchmark):
    lib = build_bench_library()
    used, _ = used_sets()
    cubins = extract_cubins(lib)
    benchmark(lambda: locate_py(lib, used, 75, cubins=cubins))


def main() -> None:
    result = measure()
    payload = {
        "benchmark": "kernel locate: vectorized index vs pure-Python seed",
        "config": {
            "n_cubins": N_CUBINS,
            "archs": list(ARCHS),
            "kernels_per_cubin": KERNELS_PER_CUBIN,
            "seed": SEED,
            "floor": SPEEDUP_FLOOR,
        },
        "result": result,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
