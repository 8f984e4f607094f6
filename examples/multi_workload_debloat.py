"""Multi-workload debloating: one library set serving several workloads.

The paper's discussion (§5) observes that "code unused by one workload is
likely unnecessary for others as well".  This extension debloats against
the *union* of several workloads' usage, verifies each workload still runs
with identical output, and shows how quickly the needed set saturates as
workloads are added (most of what a new workload needs was already kept).

Run:  python examples/multi_workload_debloat.py
"""

from repro import DebloatOptions, workload_by_id
from repro.api import AdmitRequest, DebloatEngine, DebloatRequest, EngineConfig
from repro.utils.tables import Table

SCALE = 0.125

WORKLOAD_IDS = (
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
    "pytorch/inference/transformer",
)


def main() -> None:
    specs = [workload_by_id(wid) for wid in WORKLOAD_IDS]
    config = EngineConfig(
        scale=SCALE,
        options=DebloatOptions(runtime_comparison_top_n=0),
        use_cache=False,
    )
    with DebloatEngine(config) as engine:
        # Per-workload reductions for reference.
        solo = {}
        for spec in specs:
            report = engine.debloat(DebloatRequest(spec=spec)).report
            solo[spec.workload_id] = report.file_reduction_pct

        # The union build: admit every workload into the engine's pytorch
        # store shard, then read the shard's union report.
        for spec in specs:
            engine.admit(AdmitRequest(spec=spec))
        multi = engine.report("pytorch").union_report

    table = Table(
        ["Workload", "Solo file red %", "New kernels it added"],
        title="Usage saturation across workloads (shared debloated build)",
    )
    for (wid, new_kernels) in multi.saturation_series():
        table.add_row(wid, f"{solo[wid]:.1f}", new_kernels)
    print(table.render())
    print()
    print(
        f"union debloat: {multi.file_reduction_pct:.1f}% file reduction "
        f"across {len(multi.libraries)} libraries, all "
        f"{len(multi.verifications)} workloads verified: {multi.all_verified}"
    )
    first, rest = multi.marginal_new_kernels[0], multi.marginal_new_kernels[1:]
    print(
        f"saturation: the first workload pinned {first} kernels; each later "
        f"workload added only {sum(rest) / len(rest):.0f} on average."
    )


if __name__ == "__main__":
    main()
