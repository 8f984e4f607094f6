"""Framework generation + runtime tests: determinism, shared builds, specs,
routing, variant selection, memory policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda.arch import get_device
from repro.cuda.driver import LoadingMode
from repro.errors import ConfigurationError
from repro.frameworks.catalog import (
    FRAMEWORK_NAMES,
    build_id_for,
    build_key_for,
    get_framework,
    nvidia_libraries,
    pytorch_spec,
    small_library,
    tensorflow_spec,
)
from repro.frameworks.genlib import (
    CORE_KIND,
    LibraryLayout,
    generate_library,
    plan_layout,
)
from repro.frameworks.ops import OpInstance, OpKind, Phase, batch_bucket
from repro.frameworks.runtime import FrameworkRuntime
from repro.frameworks.spec import LibrarySpec

from tests.conftest import TEST_SCALE


class TestSpecs:
    def test_all_framework_specs_valid(self):
        for name in FRAMEWORK_NAMES:
            fw = get_framework(name, scale=TEST_SCALE)
            assert fw.libraries

    def test_library_spec_invariants(self):
        with pytest.raises(ConfigurationError):
            LibrarySpec("x.so", file_mb=10, text_mb=8, n_functions=10, gpu_mb=5)
        with pytest.raises(ConfigurationError):
            LibrarySpec("x.so", file_mb=10, text_mb=1, n_functions=10,
                        gpu_mb=5, n_cubins=0)

    def test_feature_filtering_conv(self):
        spec = pytorch_spec()
        conv_libs = {
            lib.soname
            for lib in spec.libraries_for(frozenset({"vision", "conv", "train"}))
        }
        noconv = {
            lib.soname for lib in spec.libraries_for(frozenset({"text"}))
        }
        assert "libcudnn_cnn_infer.so.8" in conv_libs
        assert "libcudnn_cnn_infer.so.8" not in noconv

    def test_train_only_libraries(self):
        spec = pytorch_spec()
        train = {s.soname for s in
                 spec.libraries_for(frozenset({"vision", "conv", "train"}))}
        infer = {s.soname for s in
                 spec.libraries_for(frozenset({"vision", "conv", "inference"}))}
        assert train - infer == {"libcudnn_cnn_train.so.8",
                                 "libcudnn_ops_train.so.8"}
        assert len(train) - len(infer) == 2  # paper: 113 vs 111

    def test_proprietary_flagged(self):
        for spec in nvidia_libraries():
            assert spec.proprietary

    def test_small_library_deterministic(self):
        assert small_library("libz.so.1") == small_library("libz.so.1")


class TestGeneration:
    def test_catalog_build_key_roundtrip(self, pytorch):
        from repro.frameworks.spec import Framework

        assert build_key_for(pytorch) is not None
        name, scale, archs = build_key_for(pytorch)
        assert get_framework(name, scale=scale, archs=archs) is pytorch
        # A hand-made framework has no catalog key to regenerate it from.
        orphan = Framework(
            spec=pytorch.spec, libraries=pytorch.libraries,
            scale=pytorch.scale,
        )
        assert build_key_for(orphan) is None

    def test_deterministic_bytes(self):
        spec = nvidia_libraries()[5]  # libcublas
        a = generate_library(spec, "b1", scale=TEST_SCALE)
        b = generate_library(spec, "b1", scale=TEST_SCALE)
        assert a.data == b.data

    def test_build_id_changes_bytes(self):
        spec = nvidia_libraries()[5]
        a = generate_library(spec, "b1", scale=TEST_SCALE)
        b = generate_library(spec, "b2", scale=TEST_SCALE)
        assert a.data != b.data

    def test_torch_shared_between_pytorch_and_transformers(self):
        assert build_id_for("pytorch", "libtorch_cuda.so") == build_id_for(
            "transformers", "libtorch_cuda.so"
        )
        assert build_id_for("vllm", "libtorch_cuda.so") != build_id_for(
            "pytorch", "libtorch_cuda.so"
        )
        pt = get_framework("pytorch", scale=TEST_SCALE)
        hf = get_framework("transformers", scale=TEST_SCALE)
        assert pt.libraries["libtorch_cuda.so"] is hf.libraries["libtorch_cuda.so"]

    def test_sizes_near_spec(self):
        spec = pytorch_spec().library("libtorch_cuda.so")
        lib = generate_library(spec, "torch-2.3.1", scale=TEST_SCALE)
        assert lib.cpu_code_size == pytest.approx(spec.text_bytes, rel=0.01)
        assert lib.gpu_code_size == pytest.approx(spec.gpu_bytes, rel=0.15)
        assert lib.file_size == pytest.approx(spec.file_bytes, rel=0.15)

    def test_element_count_scales(self):
        spec = pytorch_spec().library("libtorch_cuda.so")
        lib = generate_library(spec, "torch-2.3.1", scale=0.1)
        expected = round(spec.n_cubins * 0.1) * 6
        assert lib.element_count == pytest.approx(expected, rel=0.1)

    def test_six_architectures(self):
        spec = pytorch_spec().library("libtorch_cuda.so")
        lib = generate_library(spec, "torch-2.3.1", scale=TEST_SCALE)
        assert len(lib.fatbin.architectures()) == 6

    def test_layout_attached(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        layout = fw.libraries["libtorch_cuda.so"].tags["layout"]
        assert isinstance(layout, LibraryLayout)
        assert layout.core_plans()

    def test_layout_kernels_exist_in_fatbin(self):
        """The generator/runtime contract: planned names == fatbin names."""
        fw = get_framework("pytorch", scale=TEST_SCALE)
        lib = fw.libraries["libtorch_cuda.so"]
        layout = lib.tags["layout"]
        fatbin_names = set()
        for element in lib.fatbin.elements():
            fatbin_names.update(element.cubin.kernel_names())
        for plans in layout.plans_by_kind.values():
            for plan in plans:
                assert set(plan.names) <= fatbin_names

    def test_op_pools_within_bounds(self):
        spec = pytorch_spec().library("libtorch_cpu.so")
        layout, sizes, names = plan_layout(spec, "torch-2.3.1", TEST_SCALE)
        n = layout.n_functions
        assert len(names) == n == len(sizes)
        for indices in layout.op_used.values():
            assert indices.max() < n
        assert int(sizes.sum()) == spec.text_bytes

    def test_used_functions_are_larger(self):
        """Hot code holds more bytes than its count share (paper: 93% count
        vs 68% size reduction)."""
        spec = pytorch_spec().library("libtorch_cuda.so")
        layout, sizes, _ = plan_layout(spec, "torch-2.3.1", 0.1)
        used = set(layout.infra_used.tolist())
        for idx in layout.op_used.values():
            used.update(idx.tolist())
        used_idx = np.array(sorted(used))
        mask = np.zeros(len(sizes), dtype=bool)
        mask[used_idx] = True
        assert sizes[mask].mean() > 2.0 * sizes[~mask].mean()

    def test_core_cubins_are_large(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        layout = fw.libraries["libtorch_cuda.so"].tags["layout"]
        core = layout.core_plans()
        total = {a: 0 for a in layout.archs}
        for plans in layout.plans_by_kind.values():
            for plan in plans:
                for a, v in plan.code_bytes_by_arch.items():
                    total[a] += v
        core_bytes = sum(p.code_bytes_by_arch[75] for p in core)
        assert core_bytes > 0.15 * total[75]


class TestOps:
    def test_batch_bucket_bands(self):
        assert batch_bucket(1) == 0
        assert batch_bucket(2) == 1
        assert batch_bucket(16) == 4
        assert batch_bucket(17) == 5

    def test_op_uid(self):
        op = OpInstance(OpKind.GEMM, "m128")
        assert op.uid == "gemm:m128"


def boot_runtime(fw_name="pytorch", features=frozenset({"vision", "conv", "train"}),
                 mode=LoadingMode.EAGER, devices=("t4",)):
    fw = get_framework(fw_name, scale=TEST_SCALE)
    rt = FrameworkRuntime(
        framework=fw,
        devices=tuple(get_device(d) for d in devices),
        loading_mode=mode,
    )
    rt.boot(features)
    return rt


class TestRuntime:
    def test_boot_loads_feature_libraries(self):
        rt = boot_runtime()
        assert "libcudnn_cnn_train.so.8" in rt.process.libraries
        rt2 = boot_runtime(features=frozenset({"vision", "conv", "inference"}))
        assert "libcudnn_cnn_train.so.8" not in rt2.process.libraries

    def test_double_boot_rejected(self):
        rt = boot_runtime()
        with pytest.raises(ConfigurationError):
            rt.boot(frozenset())

    def test_conv_routes_by_phase(self):
        rt = boot_runtime()
        op = OpInstance(OpKind.CONV2D, "c3_k3")
        fwd = rt.run_op(op, Phase.FORWARD, 16)
        bwd = rt.run_op(op, Phase.BACKWARD, 16)
        assert fwd.soname == "libcudnn_cnn_infer.so.8"
        assert bwd.soname == "libcudnn_cnn_train.so.8"

    def test_resolution_cached(self):
        rt = boot_runtime()
        op = OpInstance(OpKind.ACTIVATION, "relu_c32")
        a = rt.run_op(op, Phase.FORWARD, 16)
        calls = sum(d.counters.get_function_calls for d in rt.drivers)
        b = rt.run_op(op, Phase.FORWARD, 16, count=5)
        assert a is b
        assert sum(d.counters.get_function_calls for d in rt.drivers) == calls

    def test_variant_stable_across_runtimes(self):
        op = OpInstance(OpKind.GEMM, "m512_n512")
        a = boot_runtime().run_op(op, Phase.FORWARD, 16)
        b = boot_runtime().run_op(op, Phase.FORWARD, 16)
        assert a.kernel_names == b.kernel_names
        assert a.soname == b.soname

    def test_batch_bucket_changes_gemm_variant(self):
        # Bucket hashes can collide for a single signature; across several
        # signatures at least one must select a different variant.
        differed = False
        for i in range(6):
            op = OpInstance(OpKind.GEMM, f"m512_n512_x{i}")
            a = boot_runtime().run_op(op, Phase.FORWARD, 1)
            b = boot_runtime().run_op(op, Phase.FORWARD, 128)
            if a.kernel_names != b.kernel_names:
                differed = True
                break
        assert differed

    def test_batch_insensitive_kind_shares_variant(self):
        op = OpInstance(OpKind.ACTIVATION, "relu_c64")
        a = boot_runtime().run_op(op, Phase.FORWARD, 1)
        b = boot_runtime().run_op(op, Phase.FORWARD, 128)
        assert a.kernel_names == b.kernel_names

    def test_core_kernels_resolved_on_first_use(self):
        rt = boot_runtime()
        op = OpInstance(OpKind.ACTIVATION, "relu_c64")
        rt.run_op(op, Phase.FORWARD, 16)
        layout = rt.framework.libraries["libtorch_cuda.so"].tags["layout"]
        core_names = {
            n for p in layout.core_plans() for n in p.entry_names()
        }
        assert core_names <= rt.used_kernels["libtorch_cuda.so"]

    def test_cpu_pools_exercised_once(self):
        rt = boot_runtime()
        op1 = OpInstance(OpKind.ACTIVATION, "a")
        op2 = OpInstance(OpKind.ACTIVATION, "b")
        rt.run_op(op1, Phase.FORWARD, 16)
        used_after_first = rt.used_function_indices()["libtorch_cpu.so"].size
        rt.run_op(op2, Phase.FORWARD, 16)
        assert rt.used_function_indices()["libtorch_cpu.so"].size == (
            used_after_first
        )

    def test_unrouted_kind_rejected(self):
        rt = boot_runtime()
        op = OpInstance(OpKind.MISC, "x")
        with pytest.raises(ConfigurationError):
            rt.run_op(op, Phase.FORWARD, 1)

    def test_tf_pool_preallocation(self):
        rt = boot_runtime(
            "tensorflow", features=frozenset({"vision", "conv", "train"})
        )
        driver = rt.drivers[0]
        pool = driver.device_memory.by_category.get("framework_pool", 0)
        assert pool > 0.7 * driver.device.memory_bytes

    def test_tf_tensor_allocs_inside_pool(self):
        rt = boot_runtime(
            "tensorflow", features=frozenset({"vision", "conv", "train"})
        )
        before = rt.drivers[0].device_memory.current
        rt.alloc_tensor(0, "activations", 1 << 30)
        assert rt.drivers[0].device_memory.current == before

    def test_vllm_pool_fills_to_target(self):
        rt = boot_runtime("vllm", features=frozenset({"text", "llm", "inference"}))
        rt.alloc_tensor(0, "weights", 4 << 30)
        rt.fill_device_pool()
        driver = rt.drivers[0]
        target = 0.9 * driver.device.memory_bytes
        assert driver.device_memory.current == pytest.approx(target, rel=0.01)

    def test_distributed_uses_more_variants(self):
        op = OpInstance(OpKind.GEMM, "m4096")
        single = boot_runtime(features=frozenset({"text"}))
        multi = boot_runtime(features=frozenset({"text"}),
                             devices=("a100-40gb",) * 4)
        a = single.run_op(op, Phase.FORWARD, 1)
        b = multi.run_op(op, Phase.FORWARD, 1)
        assert len(set(b.kernel_names)) > len(set(a.kernel_names))
