"""Tests for the §5 extensions: used-bloat analysis and multi-workload
debloating."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.debloat import Debloater, DebloatOptions
from repro.core.usedbloat import analyze_used_bloat
from repro.errors import UsageError
from repro.frameworks.catalog import get_framework
from repro.serving.store import DebloatStore
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE
from tests.test_serving import engine_union


class TestUsedBloat:
    @pytest.fixture(scope="class")
    def torch_report(self):
        spec = workload_by_id("pytorch/train/mobilenetv2")
        return analyze_used_bloat(spec, get_framework("pytorch", TEST_SCALE))

    def test_partitions_executed_code(self, torch_report):
        for lib in torch_report.libraries:
            assert 0 <= lib.startup_only_functions <= lib.used_functions
            assert 0 <= lib.startup_only_bytes <= lib.used_bytes
            assert lib.recurring_functions == (
                lib.used_functions - lib.startup_only_functions
            )

    def test_infra_is_startup_only(self, torch_report):
        """Boot-time infra pools never recur - pure used-bloat candidates."""
        lib = torch_report.library("libc.so.6")
        assert lib.used_functions > 0
        assert lib.startup_only_functions == lib.used_functions

    def test_op_code_recurs(self, torch_report):
        """Kernel-library op pools are first touched inside the loop."""
        lib = torch_report.library("libcudnn_cnn_infer.so.8")
        assert lib.recurring_functions > 0

    def test_share_bounds(self, torch_report):
        assert 0 < torch_report.startup_share_pct <= 100

    def test_tf_exceeds_torch(self, torch_report):
        tf_spec = workload_by_id("tensorflow/train/mobilenetv2")
        tf_report = analyze_used_bloat(
            tf_spec, get_framework("tensorflow", TEST_SCALE)
        )
        assert (
            tf_report.total_startup_only_bytes
            > torch_report.total_startup_only_bytes
        )

    def test_top_by_startup_bytes(self, torch_report):
        top = torch_report.top_by_startup_bytes(3)
        assert len(top) == 3
        assert top[0].startup_only_bytes >= top[-1].startup_only_bytes

    def test_unknown_library(self, torch_report):
        with pytest.raises(KeyError):
            torch_report.library("nope.so")


class TestMultiWorkloadDebloat:
    @pytest.fixture(scope="class")
    def union(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        specs = [
            workload_by_id("pytorch/train/mobilenetv2"),
            workload_by_id("pytorch/inference/mobilenetv2"),
            workload_by_id("pytorch/train/transformer"),
        ]
        report, _ = engine_union(
            fw, DebloatOptions(runtime_comparison_top_n=0), specs
        )
        return report

    def test_all_workloads_verify(self, union):
        assert union.all_verified
        assert len(union.verifications) == 3

    def test_reduction_still_substantial(self, union):
        assert union.file_reduction_pct > 40

    def test_union_retains_more_than_any_solo(self, union):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        solo = Debloater(
            fw, DebloatOptions(runtime_comparison_top_n=0)
        ).debloat(workload_by_id("pytorch/train/mobilenetv2"))
        assert union.total_file_size_after > solo.total_file_size_after

    def test_usage_saturates(self, union):
        series = union.saturation_series()
        assert series[0][1] > series[1][1]  # first workload pins the most

    def test_requires_matching_framework(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        with pytest.raises(UsageError):
            DebloatStore(fw).admit_many(
                [workload_by_id("tensorflow/train/mobilenetv2")]
            )

    def test_requires_nonempty(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        with pytest.raises(UsageError):
            DebloatStore(fw).admit_many([])

    def test_requires_single_architecture(self):
        fw = get_framework("pytorch", scale=TEST_SCALE)
        with pytest.raises(UsageError):
            DebloatStore(fw).admit_many(
                [
                    workload_by_id("pytorch/inference/mobilenetv2"),
                    workload_by_id("pytorch/inference/mobilenetv2").variant(
                        device_name="h100"
                    ),
                ]
            )

    def test_cross_workload_use_breaks_solo_debloat(self):
        """A library debloated for workload A alone must fail workload B -
        the motivation for multi-workload debloating."""
        from repro.core.verify import verify_debloat
        from repro.workloads.runner import WorkloadRunner

        fw = get_framework("pytorch", scale=TEST_SCALE)
        spec_a = workload_by_id("pytorch/inference/mobilenetv2")
        spec_b = workload_by_id("pytorch/train/transformer")
        debloater = Debloater(fw, DebloatOptions(runtime_comparison_top_n=0))
        debloater.debloat(spec_a)
        baseline_b = WorkloadRunner(spec_b, fw).run()
        result = verify_debloat(
            spec_b, fw, debloater.debloated_libraries, baseline_b
        )
        assert not result.ok
