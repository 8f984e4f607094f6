"""Experiment harness and CLI tests.

Experiments run at the tiny test scale: we assert each produces its table
and that the *structural* paper-shape checks hold (a few checks are
scale-sensitive and only asserted at the default/benchmark scale; see
benchmarks/).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import common as excommon
from repro.experiments.cli import main as experiments_main
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.tools.cli import main as tool_main
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE


@pytest.fixture(autouse=True, scope="module")
def _warm_cache():
    """Experiments share the report cache; warm it once per module."""
    yield


class TestHarness:
    def test_report_cached(self, monkeypatch):
        # Pin an enabled cache so this holds under REPRO_PIPELINE_CACHE=0
        # CI legs too (the suite must pass with the global cache disabled).
        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=True)
        )
        spec = workload_by_id("pytorch/inference/mobilenetv2")
        a = excommon.pipeline_report(spec, TEST_SCALE)
        b = excommon.pipeline_report(spec, TEST_SCALE)
        assert a is b

    def test_cell_formats(self):
        assert excommon.cell_mb(100 << 20, 45 << 20) == "100 (55)"
        assert excommon.cell_count(616_000, 43_000) == "616K (93)"

    def test_shape_check_strings(self):
        assert excommon.shape_check("x", True).startswith("[PASS]")
        assert excommon.shape_check("x", False).startswith("[DEVIATION]")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("table99")


class TestExperimentOutputs:
    def test_registry_complete(self):
        expected = {
            "fig1", "table1", "table2", "table3", "table4", "table5",
            "fig5", "fig6", "fig7", "table6", "table7", "table8",
            "sec46", "sec5_used_bloat", "sec5_saturation", "table9",
            "table10", "ablation_granularity",
            "ablation_arch", "ablation_detector_scaling",
        }
        assert set(EXPERIMENTS) == expected

    @pytest.mark.parametrize("eid", ["fig1", "table1"])
    def test_cheap_experiments_render(self, eid):
        out = run_experiment(eid, scale=TEST_SCALE)
        assert EXPERIMENTS[eid].TITLE.split(":")[0] in out

    def test_table2_checks_pass_at_test_scale(self):
        out = run_experiment("table2", scale=TEST_SCALE)
        assert "MobileNetV2" in out
        assert "[PASS] GPU code is more bloated than CPU code" in out

    def test_fig7_reason_i_dominates(self):
        out = run_experiment("fig7", scale=TEST_SCALE)
        assert "[PASS] Reason I" in out

    def test_table5_runs(self):
        out = run_experiment("table5", scale=TEST_SCALE)
        assert "Average absolute reduction" in out

    def test_sec46_detector_beats_nsys(self):
        out = run_experiment("sec46", scale=TEST_SCALE)
        assert "[PASS] Detector overhead well below NSys" in out

    def test_ablation_granularity(self):
        out = run_experiment("ablation_granularity", scale=TEST_SCALE)
        assert "[PASS] Exact-kernel retention breaks" in out

    def test_ablation_arch(self):
        out = run_experiment("ablation_arch", scale=TEST_SCALE)
        assert "[PASS] Single-arch build eliminates Reason I" in out

    def test_table6_modes_agree(self):
        out = run_experiment("table6", scale=TEST_SCALE)
        assert "size reductions identical across loading modes" in out

    def test_table7_lazy_collapse(self):
        out = run_experiment("table7", scale=TEST_SCALE)
        assert "[PASS] vllm: CPU-memory savings collapse under lazy loading" in out


class TestExperimentsCli:
    def test_list(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig7" in out

    def test_run_single(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code = experiments_main(
            ["table1", "--scale", str(TEST_SCALE), "-o", str(target)]
        )
        assert code == 0
        assert "MobileNetV2" in target.read_text()

    @pytest.mark.parametrize("scale", ["-1", "0", "nan"])
    def test_bad_scale_exits_2_with_one_line(self, capsys, scale):
        assert experiments_main(["table4", "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "scale must be a positive number" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_experiment_exits_2_with_one_line(self, capsys):
        # Rejected before anything runs, even when listed after a
        # valid id.
        assert experiments_main(["table1", "nonexistent"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "unknown experiment 'nonexistent'" in captured.err

    def test_module_entry_point_has_no_traceback(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "nonexistent"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("repro-experiments: error: ")

    def test_run_experiment_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError, match="scale"):
            run_experiment("table4", scale=-1)


class TestToolCli:
    def test_workloads(self, capsys):
        assert tool_main(["workloads"]) == 0
        assert "pytorch/train/mobilenetv2" in capsys.readouterr().out

    def test_inspect(self, capsys):
        code = tool_main(
            ["--scale", str(TEST_SCALE), "inspect", "pytorch",
             "libtorch_cuda.so", "--sections", "--kernels"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU code (.nv_fatbin)" in out
        assert ".symtab" in out
        assert "sm_75" in out

    def test_inspect_unknown_library(self, capsys):
        code = tool_main(
            ["--scale", str(TEST_SCALE), "inspect", "pytorch", "nope.so"]
        )
        assert code == 1

    def test_debloat(self, capsys):
        code = tool_main(
            ["--scale", str(TEST_SCALE), "debloat",
             "pytorch/inference/mobilenetv2", "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verification: verified" in out
        assert "reduction) across 111 libraries" in out

    def test_serve(self, capsys):
        code = tool_main(
            ["--scale", str(TEST_SCALE), "serve",
             "pytorch/train/mobilenetv2", "pytorch/inference/mobilenetv2",
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving admissions: pytorch" in out
        assert "store generation 2" in out

    def test_serve_federates_mixed_frameworks(self, capsys):
        """Mixed-framework arrivals route to per-framework store shards."""
        code = tool_main(
            ["--scale", str(TEST_SCALE), "serve",
             "pytorch/train/mobilenetv2", "tensorflow/train/mobilenetv2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving admissions: pytorch+tensorflow" in out
        assert "pytorch store generation 1" in out
        assert "tensorflow store generation 1" in out

    def test_serve_ttl_eviction(self, capsys):
        code = tool_main(
            ["--scale", str(TEST_SCALE), "serve",
             "pytorch/train/mobilenetv2", "pytorch/inference/mobilenetv2",
             "--evict", "ttl", "--ttl-s", "0", "--pin",
             "pytorch/train/mobilenetv2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eviction policy ttl: final sweep evicted 1 workload(s)" in out
        assert "pytorch/inference/mobilenetv2 [pytorch] (ttl" in out

    def test_serve_rejects_malformed_policy(self, capsys):
        code = tool_main(
            ["--scale", str(TEST_SCALE), "serve", "--evict", "ttl"]
        )
        assert code == 1
        assert "ttl" in capsys.readouterr().err
