"""CLI: ``python -m repro.experiments [ids... | all] [--scale S] [-o FILE]``.

Cache control: ``--no-cache`` bypasses the pipeline cache entirely,
``--no-disk-cache`` keeps the in-memory tier but never touches disk,
``--cache-dir`` points the disk tier somewhere other than
``$REPRO_PIPELINE_CACHE_DIR`` / ``~/.cache/repro-debloat``, and
``--verbose`` prints per-experiment timing and cache statistics to stderr.
Experiment output is byte-identical regardless of cache settings.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigurationError
from repro.experiments.common import check_scale
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_module,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=["all"],
        help="experiment ids (e.g. table2 fig7), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="entity-count scale (default 0.125; 1.0 = paper magnitude)",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="also write output to this file"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the pipeline cache entirely, both tiers (recompute "
        "every pipeline; outputs are byte-identical either way)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="keep the in-memory pipeline cache but never read or write "
        "the persisted disk tier",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="disk-tier cache directory (default: $REPRO_PIPELINE_CACHE_DIR "
        "or ~/.cache/repro-debloat)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print per-experiment timing and cache statistics to stderr",
    )
    return parser


def configure_cache(args: argparse.Namespace) -> None:
    """Apply the shared cache flags through the process-wide engine facade."""
    from repro.api import default_engine

    default_engine().configure_cache(
        enabled=False if args.no_cache else None,
        disk_enabled=False if args.no_disk_cache else None,
        cache_dir=args.cache_dir,
    )


def _cache_stats_line() -> str:
    from repro.experiments.common import PIPELINE_CACHE

    s = PIPELINE_CACHE.stats()
    return (
        f"pipeline cache: {s['entries']} in memory "
        f"({s['hits']} hits / {s['misses']} misses), "
        f"{s['disk_entries']} on disk "
        f"({s['disk_hits']} hits / {s['disk_misses']} misses / "
        f"{s['disk_errors']} errors)"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for eid, module in EXPERIMENTS.items():
            print(f"{eid:28s} {module.TITLE}")
        return 0

    ids = list(EXPERIMENTS) if args.ids == ["all"] or args.ids == [] else args.ids
    # Bad input is rejected before any experiment runs: one line on
    # stderr and exit status 2, the argparse convention for usage errors.
    try:
        for eid in ids:
            experiment_module(eid)
        if args.scale is not None:
            check_scale(args.scale)
    except ConfigurationError as err:
        print(f"repro-experiments: error: {err}", file=sys.stderr)
        return 2

    configure_cache(args)
    chunks: list[str] = []
    for eid in ids:
        start = time.time()
        output = run_experiment(eid, scale=args.scale)
        elapsed = time.time() - start
        chunk = f"{output}\n\n(generated in {elapsed:.1f}s wall time)"
        chunks.append(f"{'=' * 78}\n{chunk}")
        print(chunks[-1])
        if args.verbose:
            print(
                f"[{eid}] {elapsed:.2f}s; {_cache_stats_line()}",
                file=sys.stderr,
            )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(chunks) + "\n")
    if args.verbose:
        print(_cache_stats_line(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
