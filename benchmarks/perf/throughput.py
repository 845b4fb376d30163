#!/usr/bin/env python3
"""Simulator throughput harness: committed µ-ops/second, single-cell and grid.

Measures two workloads-per-wall-clock numbers and appends them to the
**speedup ladder** in ``BENCH_throughput.json`` at the repository root, so
performance PRs have a trajectory to beat (see docs/performance.md):

* **single cell** — one ``EOLE_4_64 × gcc`` simulation (the paper's headline
  configuration on a branchy workload);
* **grid** — the 4-configuration × 4-workload microbenchmark
  (`Baseline_6_64`, `Baseline_VP_6_64`, `EOLE_4_64`, `EOLE_4_64_4ports_4banks` ×
  `wupwise`, `bzip2`, `gcc`, `milc`), run with a **cold** trace cache and no result
  reuse — the end-to-end cost of regenerating one figure from scratch.

The ladder is **append-only**: ``{"format": "speedup-ladder/1", "entries": [...]}``
with one entry per recorded run (label, grid, single_cell, and speedups relative
to the previous rung).  A pre-ladder single-report file is migrated in place on
the first append.  Per-rung speedups compare against the *previous entry's*
numbers as recorded; for an apples-to-apples PR comparison, re-measure the
previous checkout in the same session (machines drift) and pass it explicitly:

    PYTHONPATH=src python benchmarks/perf/throughput.py --output /tmp/base.json --no-append
    PYTHONPATH=src python benchmarks/perf/throughput.py --baseline-json /tmp/base.json

The measurement core deliberately uses only APIs that exist since PR 1
(`simulate_cell`), so it can be dropped onto an older checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.runner import ResultCache  # noqa: E402
from repro.campaign.executor import simulate_cell  # noqa: E402
from repro.campaign.spec import CampaignCell  # noqa: E402
from repro.pipeline.config import named_config  # noqa: E402
from repro.workloads.suite import workload  # noqa: E402

try:  # the trace subsystem arrives with this harness; the baseline tree lacks it
    from repro.trace.cache import shared_trace_cache
except ImportError:  # pragma: no cover - only on pre-trace checkouts
    shared_trace_cache = None

GRID_CONFIGS = (
    "Baseline_6_64",
    "Baseline_VP_6_64",
    "EOLE_4_64",
    "EOLE_4_64_4ports_4banks",
)
GRID_WORKLOADS = ("wupwise", "bzip2", "gcc", "milc")
SINGLE_CONFIG = "EOLE_4_64"
SINGLE_WORKLOAD = "gcc"

#: The design-space sweep (8 configs × the grid workloads), timed cell by cell.
SWEEP_CONFIGS = (
    "Baseline_6_64",
    "Baseline_8_64",
    "Baseline_VP_6_64",
    "Baseline_VP_4_64",
    "EOLE_6_64",
    "EOLE_4_64",
    "EOLE_4_48",
    "EOLE_4_64_4ports_4banks",
)


def _cell(config_name: str, workload_name: str, max_uops: int, warmup_uops: int) -> CampaignCell:
    return CampaignCell(
        config=named_config(config_name),
        workload_name=workload_name,
        max_uops=max_uops,
        warmup_uops=warmup_uops,
    )


def _clear_caches() -> None:
    if shared_trace_cache is not None:
        shared_trace_cache.clear()


def measure_single_cell(max_uops: int, warmup_uops: int, repeat: int) -> dict:
    """Best-of-``repeat`` timing of one cold simulation (capture + simulate)."""
    best = float("inf")
    for _ in range(repeat):
        _clear_caches()
        cell = _cell(SINGLE_CONFIG, SINGLE_WORKLOAD, max_uops, warmup_uops)
        wl = workload(SINGLE_WORKLOAD)
        started = time.perf_counter()
        simulate_cell(cell, wl)
        best = min(best, time.perf_counter() - started)
    return {
        "config": SINGLE_CONFIG,
        "workload": SINGLE_WORKLOAD,
        "max_uops": max_uops,
        "seconds": best,
        "committed_uops_per_second": max_uops / best,
    }


def measure_grid(max_uops: int, warmup_uops: int, repeat: int) -> dict:
    """Best-of-``repeat`` timing of the full 4×4 grid with a cold trace cache."""
    cells = [
        _cell(config_name, workload_name, max_uops, warmup_uops)
        for config_name in GRID_CONFIGS
        for workload_name in GRID_WORKLOADS
    ]
    best = float("inf")
    for _ in range(repeat):
        _clear_caches()
        ResultCache().clear()
        started = time.perf_counter()
        for cell in cells:
            simulate_cell(cell)
        best = min(best, time.perf_counter() - started)
    total_uops = max_uops * len(cells)
    return {
        "configs": list(GRID_CONFIGS),
        "workloads": list(GRID_WORKLOADS),
        "cells": len(cells),
        "max_uops_per_cell": max_uops,
        "seconds": best,
        "committed_uops_total": total_uops,
        "committed_uops_per_second": total_uops / best,
    }


def measure_config_sweep(max_uops: int, warmup_uops: int, repeat: int) -> dict:
    """Best-of-``repeat`` timing of the 8-config × 4-workload sweep.

    Each repeat starts from a cold trace cache and runs `simulate_cell` per
    configuration, workload-major, so each workload is captured once.

    ``configs_per_second`` is the sweep-shaped throughput number alongside the
    µops-per-second the other sections report: design-space exploration cares
    how many *configurations* a wall-clock second buys.
    """
    rows = [
        (
            workload(workload_name),
            [
                _cell(config_name, workload_name, max_uops, warmup_uops)
                for config_name in SWEEP_CONFIGS
            ],
        )
        for workload_name in GRID_WORKLOADS
    ]
    cells = sum(len(row_cells) for _, row_cells in rows)

    best = float("inf")
    for _ in range(repeat):
        _clear_caches()
        started = time.perf_counter()
        for wl, row_cells in rows:
            for cell in row_cells:
                simulate_cell(cell, wl)
        best = min(best, time.perf_counter() - started)
    return {
        "configs": list(SWEEP_CONFIGS),
        "workloads": list(GRID_WORKLOADS),
        "cells": cells,
        "max_uops_per_cell": max_uops,
        # Keyed "serial" as in the older rungs, whose sweeps also timed a
        # since-retired multi-config replay flavour next to it.
        "serial": {
            "seconds": best,
            "configs_per_second": cells / best,
            "committed_uops_per_second": max_uops * cells / best,
        },
    }


#: Ladder file format marker (bumped on breaking schema changes).
LADDER_FORMAT = "speedup-ladder/1"


def _git_sha() -> str | None:
    """The current commit SHA, or None outside a git checkout / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _host_info() -> dict:
    """Stable host identity for attributing ladder rungs across machines."""
    return {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def _parse_meta(pairs: list[str]) -> dict:
    """``--meta key=val`` pairs → dict (rejecting malformed arguments)."""
    meta: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--meta expects key=val, got {pair!r}")
        meta[key] = value
    return meta


def migrate_legacy_report(report: dict) -> list[dict]:
    """Turn a pre-ladder single-report file into ladder entries (oldest first)."""
    entries: list[dict] = []
    baseline = report.get("baseline")
    if baseline and "grid" in baseline:
        entries.append(
            {
                "label": baseline.get("label"),
                "grid": baseline["grid"],
                "single_cell": baseline["single_cell"],
                "migrated_from": "pre-ladder report (embedded baseline)",
            }
        )
    entry = {
        key: report[key]
        for key in (
            "label",
            "grid",
            "single_cell",
            "grid_speedup",
            "single_cell_speedup",
            "method",
            "platform",
            "python",
            "recorded_unix",
        )
        if key in report
    }
    entry["migrated_from"] = "pre-ladder report"
    entries.append(entry)
    return entries


def load_ladder(path: Path) -> list[dict]:
    """Read the ladder entries at ``path`` (migrating a legacy report in place)."""
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if isinstance(data, dict) and data.get("format") == LADDER_FORMAT:
        return list(data["entries"])
    if isinstance(data, dict) and "grid" in data:
        return migrate_legacy_report(data)
    raise SystemExit(f"unrecognised throughput report format in {path}")


def write_ladder(path: Path, entries: list[dict]) -> None:
    payload = {"format": LADDER_FORMAT, "entries": entries}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-uops", type=int, default=8000)
    parser.add_argument("--warmup-uops", type=int, default=2500)
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_throughput.json"),
        help="ladder file to append to (default: BENCH_throughput.json)",
    )
    parser.add_argument(
        "--baseline-json", default=None,
        help="an explicit report/ladder whose last entry is the speedup baseline "
        "(default: the output ladder's own last entry)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="write a single-entry ladder to --output instead of appending "
        "(for producing a same-session baseline measurement)",
    )
    parser.add_argument("--method", default=None, help="free-form measurement notes")
    parser.add_argument("--label", default=None, help="free-form label for the run")
    parser.add_argument(
        "--meta", action="append", default=[], metavar="KEY=VAL",
        help="attach arbitrary key=val metadata to the entry (repeatable)",
    )
    args = parser.parse_args(argv)
    meta = _parse_meta(args.meta)

    entry = {
        "label": args.label,
        "recorded_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "host": _host_info(),
        "trace_cache_available": shared_trace_cache is not None,
        "single_cell": measure_single_cell(args.max_uops, args.warmup_uops, args.repeat),
        "grid": measure_grid(args.max_uops, args.warmup_uops, args.repeat),
        "config_sweep": measure_config_sweep(args.max_uops, args.warmup_uops, args.repeat),
    }
    if meta:
        entry["meta"] = meta
    if args.method:
        entry["method"] = args.method

    output = Path(args.output)
    if args.no_append and output.resolve() == (REPO_ROOT / "BENCH_throughput.json").resolve():
        # Guard rail: a single-entry --no-append file over the committed ladder
        # would destroy the recorded speedup history.
        raise SystemExit(
            "--no-append would overwrite the committed ladder; "
            "pass an explicit --output (e.g. /tmp/base.json)"
        )
    entries = [] if args.no_append else load_ladder(output)
    if args.baseline_json:
        baseline_entries = load_ladder(Path(args.baseline_json))
        baseline = baseline_entries[-1] if baseline_entries else None
    else:
        baseline = entries[-1] if entries else None
    if baseline is not None:
        entry["baseline_label"] = baseline.get("label")
        entry["grid_speedup"] = baseline["grid"]["seconds"] / entry["grid"]["seconds"]
        entry["single_cell_speedup"] = (
            baseline["single_cell"]["seconds"] / entry["single_cell"]["seconds"]
        )
    entries.append(entry)
    write_ladder(output, entries)

    grid = entry["grid"]
    single = entry["single_cell"]
    print(
        f"single cell {single['config']}/{single['workload']}: {single['seconds']:.3f}s "
        f"({single['committed_uops_per_second']:,.0f} µops/s)"
    )
    print(
        f"grid {grid['cells']} cells: {grid['seconds']:.2f}s "
        f"({grid['committed_uops_per_second']:,.0f} µops/s)"
    )
    sweep = entry["config_sweep"]["serial"]
    print(
        f"config sweep {entry['config_sweep']['cells']} cells: {sweep['seconds']:.2f}s "
        f"({sweep['configs_per_second']:.1f} configs/s)"
    )
    if "grid_speedup" in entry:
        print(
            f"speedup vs {entry.get('baseline_label') or 'previous rung'}: "
            f"grid {entry['grid_speedup']:.2f}x, "
            f"single cell {entry['single_cell_speedup']:.2f}x"
        )
    print(f"ladder now has {len(entries)} entries -> {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
