"""Compaction + end-to-end debloating tests, including negative
verification cases (removing needed code must be caught)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compact import Compactor, exact_kernel_removal
from repro.core.cpu import FunctionLocator
from repro.core.debloat import Debloater, DebloatOptions
from repro.core.detect import KernelDetector
from repro.core.locate import KernelLocator
from repro.core.verify import verify_debloat
from repro.cuda.arch import get_device
from repro.cuda.clock import VirtualClock
from repro.cuda.driver import CudaDriver
from repro.errors import MissingFunctionError, MissingKernelError
from repro.fatbin import constants as FC
from repro.frameworks.catalog import get_framework
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE, build_small_library


def compact_small(used_kernels=frozenset({"k_0_0"}), used_fns=(0, 1, 2)):
    lib = build_small_library()
    gpu = KernelLocator().locate(lib, used_kernels, 75)
    cpu = FunctionLocator().locate(lib, np.array(used_fns, dtype=np.int64))
    return lib, Compactor().compact(lib, cpu, gpu)


class TestCompactor:
    def test_accounting(self):
        lib, debloated = compact_small()
        assert debloated.removed_functions == 9
        assert debloated.removed_cpu_bytes == 9 * 64
        assert debloated.removed_elements == 3
        assert debloated.compacted_file_size < lib.file_size

    def test_original_untouched(self):
        lib, debloated = compact_small()
        assert lib.tags.get("removed_bytes_total") is None
        recheck = KernelLocator().locate(lib, frozenset(), 75)
        assert recheck.element_count == 4  # original still parses fully

    def test_removed_elements_flagged(self):
        lib, debloated = compact_small()
        flags = {
            e.index: bool(e.header.flags & FC.ELEMENT_FLAG_REMOVED)
            for e in debloated.lib.fatbin.elements()
        }
        assert flags == {1: True, 2: True, 3: False, 4: True}

    def test_removed_payload_zeroed(self):
        lib, debloated = compact_small()
        removed = debloated.lib.fatbin.element_by_index(1)
        data = debloated.lib.data.read(removed.payload_offset, 16)
        assert data == b"\x00" * 16

    def test_retained_cubin_still_parses(self):
        _, debloated = compact_small()
        kept = debloated.lib.fatbin.element_by_index(3)
        assert kept.cubin.kernel_names() == [f"k_0_{j}" for j in range(4)]

    def test_function_mask_recorded(self):
        _, debloated = compact_small(used_fns=(4,))
        mask = debloated.lib.tags["removed_function_mask"]
        assert not mask[4]
        assert mask.sum() == 11

    def test_structural_bytes_untouched(self):
        lib, debloated = compact_small()
        for rng in lib.structural_ranges():
            a = lib.data.read(rng.start, min(len(rng), 4096))
            b = debloated.lib.data.read(rng.start, min(len(rng), 4096))
            assert a == b

    def test_compact_none_is_identity(self):
        lib = build_small_library()
        debloated = Compactor().compact(lib)
        assert debloated.removed_bytes_total == 0
        assert debloated.compacted_file_size == lib.file_size

    def test_clock_charged(self):
        lib = build_small_library()
        gpu = KernelLocator().locate(lib, frozenset(), 75)
        clock = VirtualClock()
        Compactor().compact(lib, None, gpu, clock=clock)
        assert clock.now > 0

    def test_module_load_skips_removed_elements(self):
        _, debloated = compact_small()
        driver = CudaDriver(device=get_device("t4"), clock=VirtualClock())
        driver.init()
        module = driver.module_load(debloated.lib)
        assert len(module.matching_elements) == 1
        handle = driver.module_get_function(module, "k_0_0")
        driver.launch_kernel(handle)  # children retained with the element

    def test_removed_kernel_unresolvable(self):
        _, debloated = compact_small(used_kernels=frozenset({"k_0_0"}))
        driver = CudaDriver(device=get_device("t4"), clock=VirtualClock())
        driver.init()
        module = driver.module_load(debloated.lib)
        with pytest.raises(MissingKernelError):
            driver.module_get_function(module, "k_1_0")  # element 4 removed

    def test_exact_kernel_ablation_breaks_closure(self):
        _, debloated = compact_small(used_kernels=frozenset({"k_0_0"}))
        ablated = exact_kernel_removal(debloated, frozenset({"k_0_0"}))
        driver = CudaDriver(device=get_device("t4"), clock=VirtualClock())
        driver.init()
        module = driver.module_load(ablated)
        handle = driver.module_get_function(module, "k_0_0")
        with pytest.raises(MissingKernelError):
            driver.launch_kernel(handle)  # k_0_0 launches removed k_0_3


@pytest.fixture(scope="module")
def mobilenet_report():
    fw = get_framework("pytorch", scale=TEST_SCALE)
    debloater = Debloater(fw)
    report = debloater.debloat(workload_by_id("pytorch/inference/mobilenetv2"))
    return debloater, report


class TestDebloater:
    def test_verification_passes(self, mobilenet_report):
        _, report = mobilenet_report
        assert report.verification is not None and report.verification.ok

    def test_covers_all_loaded_libraries(self, mobilenet_report):
        _, report = mobilenet_report
        assert report.n_libraries == 111  # paper: inference drops 2 libs

    def test_substantial_reductions(self, mobilenet_report):
        _, report = mobilenet_report
        assert report.file_reduction_pct > 40
        assert report.gpu_reduction_pct > 60
        assert report.element_reduction_pct > 90
        assert report.cpu_reduction_pct > 40

    def test_runtime_comparison_improves(self, mobilenet_report):
        _, report = mobilenet_report
        base, after = report.baseline, report.debloated_run
        assert after.execution_time_s < base.execution_time_s
        assert after.peak_cpu_mem_bytes < base.peak_cpu_mem_bytes
        assert after.peak_gpu_mem_bytes < base.peak_gpu_mem_bytes

    def test_timing_populated(self, mobilenet_report):
        _, report = mobilenet_report
        t = report.timing
        assert t.kernel_detection_run_s > report.baseline.execution_time_s
        assert t.cpu_profiling_run_s > report.baseline.execution_time_s
        assert t.locate_s > 0 and t.compact_s > 0
        assert t.total_s == pytest.approx(
            t.kernel_detection_run_s + t.cpu_profiling_run_s + t.locate_s
            + t.compact_s
        )

    def test_reason_shares(self, mobilenet_report):
        _, report = mobilenet_report
        shares = report.removal_reason_shares()
        total = sum(shares.values())
        assert total == pytest.approx(100.0)

    def test_wrong_framework_rejected(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        from repro.errors import VerificationError

        with pytest.raises(VerificationError):
            Debloater(fw).debloat(workload_by_id("tensorflow/train/mobilenetv2"))

    def test_gpu_only_ablation(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        options = DebloatOptions(debloat_cpu=False,
                                 runtime_comparison_top_n=0)
        report = Debloater(fw, options).debloat(
            workload_by_id("pytorch/inference/mobilenetv2")
        )
        assert report.cpu_reduction_pct == 0.0
        assert report.gpu_reduction_pct > 60
        assert report.verification.ok

    def test_cpu_only_ablation(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        options = DebloatOptions(debloat_gpu=False,
                                 runtime_comparison_top_n=0)
        report = Debloater(fw, options).debloat(
            workload_by_id("pytorch/inference/mobilenetv2")
        )
        assert report.gpu_reduction_pct == 0.0
        assert report.cpu_reduction_pct > 40


class TestFusedInstrumentedRun:
    """debloat() runs baseline + ONE fused instrumented run pre-locate."""

    def _count_runs(self, monkeypatch, options):
        runners: list[WorkloadRunner] = []
        original = WorkloadRunner.run

        def counting_run(runner_self):
            runners.append(runner_self)
            return original(runner_self)

        monkeypatch.setattr(WorkloadRunner, "run", counting_run)
        fw = get_framework("pytorch", scale=TEST_SCALE)
        report = Debloater(fw, options).debloat(
            workload_by_id("pytorch/inference/mobilenetv2")
        )
        return runners, report

    def test_exactly_two_pre_locate_runs(self, monkeypatch):
        runners, _ = self._count_runs(
            monkeypatch,
            DebloatOptions(verify=False, runtime_comparison_top_n=0),
        )
        assert len(runners) == 2
        baseline_runner, fused_runner = runners
        assert baseline_runner.subscribers == ()
        assert baseline_runner.profiler is None
        # The second run carries BOTH instruments (detector and profiler)
        # plus the passive NSys tracer, which observes record counts for
        # the §4.6 attribution without charging the clock.
        assert len(fused_runner.subscribers) == 2
        detector_sub, nsys_sub = fused_runner.subscribers
        assert not getattr(detector_sub, "passive", False)
        assert nsys_sub.passive
        assert fused_runner.profiler is not None

    def test_verify_and_comparison_add_their_runs(self, monkeypatch):
        runners, _ = self._count_runs(monkeypatch, DebloatOptions())
        # baseline + fused + verification + top-N runtime comparison
        assert len(runners) == 4

    def test_timing_attribution_matches_standalone_runs(self):
        """Fused-run attribution reproduces separate-run times exactly."""
        fw = get_framework("pytorch", scale=TEST_SCALE)
        spec = workload_by_id("pytorch/inference/mobilenetv2")
        report = Debloater(
            fw, DebloatOptions(verify=False, runtime_comparison_top_n=0)
        ).debloat(spec)

        det_only = WorkloadRunner(
            spec, fw, subscribers=(KernelDetector(),)
        ).run()
        from repro.loader.profiler import FunctionProfiler

        prof_only = WorkloadRunner(spec, fw, profiler=FunctionProfiler()).run()

        from repro.core.nsys import NsysTracer

        nsys_only = WorkloadRunner(
            spec, fw, subscribers=(NsysTracer(),)
        ).run()

        t = report.timing
        assert t.kernel_detection_run_s == pytest.approx(
            det_only.execution_time_s, rel=1e-9
        )
        assert t.cpu_profiling_run_s == pytest.approx(
            prof_only.execution_time_s, rel=1e-9
        )
        # The passive tracer riding the fused run attributes a standalone
        # NSys-traced run exactly (record counts are deterministic).
        assert t.nsys_traced_run_s == pytest.approx(
            nsys_only.execution_time_s, rel=1e-9
        )
        assert t.instrumented_run_s > max(
            t.kernel_detection_run_s, t.cpu_profiling_run_s
        ) - report.baseline.execution_time_s
        assert t.fused_total_s < t.total_s  # one run saved

    def test_parallel_locate_is_deterministic(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        spec = workload_by_id("pytorch/inference/mobilenetv2")
        serial = Debloater(
            fw, DebloatOptions(verify=False, runtime_comparison_top_n=0)
        ).debloat(spec)
        parallel = Debloater(
            fw,
            DebloatOptions(verify=False, runtime_comparison_top_n=0),
        ).debloat(spec)
        assert serial.libraries == parallel.libraries
        assert serial.timing.locate_s == parallel.timing.locate_s
        assert serial.timing.compact_s == parallel.timing.compact_s


class TestVerificationNegativeCases:
    """Debloating mistakes must be caught, not silently accepted."""

    def _debloat_all(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        spec = workload_by_id("pytorch/inference/mobilenetv2")
        debloater = Debloater(fw, DebloatOptions(runtime_comparison_top_n=0))
        report = debloater.debloat(spec)
        return fw, spec, debloater, report

    def test_dropping_used_element_fails_verification(self):
        """Whole-element retention tolerates dropping *one* kernel whose
        cubin has other used kernels; dropping every used kernel of a
        retained element removes the element and must break the re-run."""
        fw, spec, debloater, report = self._debloat_all()
        soname = "libtorch_cuda.so"
        lib = fw.libraries[soname]
        used = set(report.baseline.used_kernels[soname])
        good = KernelLocator().locate(lib, frozenset(used), 75)
        victim = good.retained[0]
        used -= set(victim.used_entry_kernels)
        gpu = KernelLocator().locate(lib, frozenset(used), 75)
        assert gpu.element_count - len(gpu.retained) > (
            good.element_count - len(good.retained)
        )
        bad = Compactor().compact(lib, None, gpu)
        debloated = dict(debloater.debloated_libraries)
        debloated[soname] = bad
        result = verify_debloat(spec, fw, debloated, report.baseline)
        assert not result.ok
        assert "MissingKernelError" in (result.error or "")

    def test_dropping_single_shared_cubin_kernel_is_tolerated(self):
        """The flip side: whole-element retention keeps siblings alive."""
        fw, spec, debloater, report = self._debloat_all()
        soname = "libtorch_cuda.so"
        lib = fw.libraries[soname]
        used = set(report.baseline.used_kernels[soname])
        good = KernelLocator().locate(lib, frozenset(used), 75)
        multi = next(
            (d for d in good.retained if len(d.used_entry_kernels) > 1), None
        )
        if multi is None:
            pytest.skip("no retained element with multiple used kernels")
        used.discard(multi.used_entry_kernels[0])
        gpu = KernelLocator().locate(lib, frozenset(used), 75)
        bad = Compactor().compact(lib, None, gpu)
        debloated = dict(debloater.debloated_libraries)
        debloated[soname] = bad
        result = verify_debloat(spec, fw, debloated, report.baseline)
        assert result.ok

    def test_dropping_used_function_fails_verification(self):
        fw, spec, debloater, report = self._debloat_all()
        soname = "libtorch_cpu.so"
        lib = fw.libraries[soname]
        used = report.baseline.used_functions[soname]
        cpu = FunctionLocator().locate(lib, used[1:])  # drop one used function
        bad = Compactor().compact(lib, cpu, None)
        debloated = dict(debloater.debloated_libraries)
        debloated[soname] = bad
        result = verify_debloat(spec, fw, debloated, report.baseline)
        assert not result.ok
        assert "MissingFunctionError" in (result.error or "")

    def test_verify_positive_returns_metrics(self):
        fw, spec, debloater, report = self._debloat_all()
        result = verify_debloat(
            spec, fw, debloater.debloated_libraries, report.baseline
        )
        assert result.ok
        assert result.debloated_digest == report.baseline.output_digest
        assert result.debloated_metrics is not None
