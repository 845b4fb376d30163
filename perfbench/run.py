#!/usr/bin/env python3
"""Host-cost benchmark of the EOLE reproduction: config-sweep, window-bound and fleet.

Run from the repository root:

    python3 perfbench/run.py --workload config-sweep --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` (no build step), sets up the workload,
times whole passes over its cells and checks every simulated result against the
digests recorded in ``perfbench/digests.json``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it also runs one traced pass plus the
vp/bpu/mem layer drivers and reports the per-layer metrics, writing the spans to
``.bench_out/spans-<workload>-seed<seed>.json`` (Chrome trace-event JSON).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("config-sweep", "window-bound", "fleet")
SETUP_REPEATS = 3
#: Consecutive sorted cell times this far apart split two modes.
GAP_RATIO = 2.0
REPORTED_PERCENTILES = {"cell_ms.p50": 0.5, "cell_ms.p90": 0.9}
LAYERS = ("bench", "trace", "pipeline", "campaign", "vp", "bpu", "mem")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every ``src/`` Python file: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(load, 2) for load in os.getloadavg()],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
    }


def gap_warnings(values: list[float]) -> list[str]:
    """Reported percentiles that sit near a gap between two modes of ``values``."""
    ordered = sorted(values)
    count = len(ordered)
    # Mode sizes are fixed per pass, so a percentile's distance (in cells) to a
    # gap is fixed too; two cells keep its interpolation off the gap itself.
    margin = max(2, count // 40)
    boundaries = [
        index + 0.5
        for index in range(count - 1)
        if ordered[index + 1] >= GAP_RATIO * ordered[index]
    ]
    warnings = []
    for name, quantile in REPORTED_PERCENTILES.items():
        position = quantile * (count + 1) - 1  # statistics.quantiles' "exclusive" method
        for boundary in boundaries:
            if abs(position - boundary) < margin:
                warnings.append(
                    f"{name} (position {position:.1f} of {count}) is within {margin} cells "
                    f"of a {ordered[int(boundary) + 1] / ordered[int(boundary)]:.1f}x gap"
                )
    return warnings


def end_to_end_metrics(phase, setup_s: float) -> dict:
    cell_ms = [record.seconds * 1000.0 for record in phase.records]
    return {
        "sim_uops_per_s": (phase.uops_per_s, "uops/s"),
        "cell_ms.p50": (statistics.median(cell_ms), "ms"),
        "cell_ms.p90": (statistics.quantiles(cell_ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def eole_speedup_geomean(results: list) -> float:
    """Geomean IPC of EOLE_4_64 over Baseline_6_64 per workload (0 when absent)."""
    ipc = {(result.config_name, result.workload_name): result.ipc for result in results}
    ratios = [
        ipc[("EOLE_4_64", name)] / ipc[("Baseline_6_64", name)]
        for config, name in ipc
        if config == "EOLE_4_64" and ("Baseline_6_64", name) in ipc
    ]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios))


def per_layer_metrics(
    runner, recorder, traced, untraced, trace_counts: dict, driven: dict, error_rate: float
) -> dict:
    results = traced.results
    full = [result.full_stats for result in results]
    cycles = sum(stats.cycles for stats in full)
    uops = sum(stats.committed_uops for stats in full)
    captured = sum(len(trace) for trace in runner.traces.values())
    blob_bytes = sum(len(trace.to_bytes()) for trace in runner.traces.values())
    run_ns = recorder.total_ns("pipeline.run")
    reloads = recorder.durations_ns("campaign.store_reload")

    def total(field: str) -> int:
        return sum(getattr(stats, field) for stats in full)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "trace.capture_ns_per_uop": (per(recorder.total_ns("trace.capture"), captured), "ns/uop"),
        "trace.store_save_ms": (recorder.median_ms("trace.store_save"), "ms"),
        "trace.store_load_ms": (recorder.median_ms("trace.store_load"), "ms"),
        "trace.blob_kb": (blob_bytes / 1024.0, "KiB"),
        "trace.captures": (trace_counts["captures"], "count"),
        "trace.cache_hits": (trace_counts["hits"], "count"),
        "trace.store_hits": (trace_counts["store_hits"], "count"),
        "pipeline.construct_ms.p50": (recorder.median_ms("pipeline.construct"), "ms"),
        "pipeline.run_ns_per_uop": (per(run_ns, uops), "ns/uop"),
        "pipeline.run_ns_per_cycle": (per(run_ns, cycles), "ns/cycle"),
        "pipeline.sim_cycles": (cycles, "count"),
        "pipeline.squashed_uops": (total("squashed_uops"), "count"),
        "ooo.iq_full_share": (per(total("iq_full_stalls"), cycles), "ratio"),
        "ooo.rob_full_cycles": (total("rob_full_stalls"), "count"),
        "ooo.lsq_full_cycles": (total("lsq_full_stalls"), "count"),
        "ooo.prf_bank_stall_cycles": (total("prf_bank_stalls"), "count"),
        "vp.lookup_train_ns": (
            per(recorder.total_ns("vp.evaluate_predictor"), driven["vp_uops"]),
            "ns",
        ),
        "vp.predictions_used": (total("predictions_used"), "count"),
        "vp.value_mispredictions": (total("value_mispredictions"), "count"),
        "bpu.predict_train_ns": (
            per(recorder.total_ns("bpu.predict_train"), driven["branches"]),
            "ns",
        ),
        "bpu.mispredictions": (total("branch_mispredictions"), "count"),
        "core.early_executed": (total("early_executed"), "count"),
        "core.late_executed": (
            total("late_executed_alu") + total("late_resolved_branches"),
            "count",
        ),
        "mem.access_ns": (per(recorder.total_ns("mem.access"), driven["mem_accesses"]), "ns"),
        "mem.l1d_miss_rate": (per(sum(r.l1d_miss_rate for r in results), len(results)), "ratio"),
        "mem.l2_miss_rate": (per(sum(r.l2_miss_rate for r in results), len(results)), "ratio"),
        "campaign.submit_ms": (recorder.median_ms("campaign.submit"), "ms"),
        "campaign.claim_ms.p50": (recorder.median_ms("campaign.claim"), "ms"),
        "campaign.complete_ms.p50": (recorder.median_ms("campaign.complete"), "ms"),
        "campaign.store_put_ms.p50": (recorder.median_ms("campaign.store_put"), "ms"),
        "campaign.store_reload_ms.p50": (recorder.median_ms("campaign.store_reload"), "ms"),
        "campaign.store_reload_ms.max": (max(reloads, default=0) / 1e6, "ms"),
        "campaign.leases": (len(recorder.durations_ns("campaign.process_lease")), "count"),
        "campaign.requeues": (len(recorder.durations_ns("campaign.requeue")), "count"),
        "campaign.store_bytes": (getattr(runner, "store_bytes", 0), "bytes"),
        "bench.tracing_overhead": (traced.uops_per_s / untraced.uops_per_s - 1.0, "ratio"),
        "bench.cell_error_rate": (error_rate, "ratio"),
        "model.eole_speedup.geomean": (eole_speedup_geomean(results), "ratio"),
    }
    self_ns = recorder.self_ns_by_layer()
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_ns.get(layer, 0) / 1e6, "ms")
    return metrics


def run(args) -> int:
    import cells
    import phases
    import spans
    from repro.trace.cache import shared_trace_cache

    import_s = time.perf_counter() - PROCESS_START
    spec = cells.WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench: workload={spec.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    check = cells.OutputCheck(spec, args.seed)
    if spec.fleet:
        runner = phases.FleetRunner(spec, args.seed, check, WORK_DIR / f"fleet-{os.getpid()}")
    else:
        runner = phases.GridRunner(spec, args.seed, check)
    try:
        setup_runs = [runner.setup() for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setup_runs)
        print(f"setup: import {import_s:.3f} s + median of "
              f"{[round(s, 3) for s in setup_runs]} s = {setup_s:.3f} s")
        untraced = phases.measure(runner, args.seconds)
        phases_run = [untraced]
        print(f"timed: {len(untraced.records)} cells in passes of "
              f"{[round(s, 3) for s in untraced.pass_seconds]} s")
        if args.trace:
            recorder = spans.SpanRecorder()
            counters = ("captures", "hits", "store_hits")
            before = {name: getattr(shared_trace_cache, name) for name in counters}
            with recorder.span("bench.setup"):
                runner.setup(recorder)
            traced = phases.measure(runner, args.seconds, recorder)
            trace_counts = {
                name: getattr(shared_trace_cache, name) - before[name] for name in counters
            }
            driven = spans.drive_layers(
                recorder,
                [(runner.suite[name], runner.traces[name]) for name in spec.suite_workloads],
                spec.max_uops,
            )
            phases_run.append(traced)
            span_path = WORK_DIR / f"spans-{spec.name}-seed{args.seed}.json"
            recorder.write_chrome_trace(
                span_path, {"workload": spec.name, "seed": args.seed, **env}
            )
            print(f"traced: {len(traced.records)} cells in {traced.seconds:.3f} s, "
                  f"{len(recorder.names)} spans -> "
                  f"{span_path.relative_to(ROOT)} (valid trace-event JSON)")
    finally:
        runner.close()

    attempted = sum(len(phase.records) for phase in phases_run)
    failed = sum(1 for phase in phases_run for record in phase.records if not record.ok)
    problems = [problem for phase in phases_run for problem in phase.problems]
    for problem in check.problems[:20] + problems:
        print(f"FAILED: {problem}")
    digest = check.digest()
    if check.expected is None:
        status = "not recorded; not checked"
    else:
        matches = digest == check.recorded_digest()
        status = "matches recorded" if matches else "DIFFERS from recorded"
    print(f"digest {spec.name} seed {args.seed}: {digest} ({status})")
    print(f"cell_error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    for warning in gap_warnings([record.seconds for record in untraced.records]):
        print(f"WARNING: {warning}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(
            runner, recorder, traced, untraced, trace_counts, driven, failed / attempted
        )
    else:
        metrics = end_to_end_metrics(untraced, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # Hermetic: a stray REPRO_RESULT_STORE, REPRO_FAULTS or loop switch must not
    # change what is measured.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
