"""Experiment runner: simulate (configuration × workload) grids with result caching.

Every figure of the paper compares several machine configurations over the same
workload suite, and several figures share configurations (``Baseline_VP_6_64`` is the
normalisation baseline of Figs. 7, 8, 12 and 13).  Grid execution is routed through
the campaign engine (:mod:`repro.campaign`), which layers three reuse levels under a
single primitive:

1. the module-level :class:`ResultCache` memoises (configuration, workload, length)
   triples within one process, keeping the full benchmark harness affordable;
2. the opt-in persistent :class:`~repro.campaign.store.ResultStore` (env
   ``REPRO_RESULT_STORE``) carries results across processes and sessions;
3. anything left is simulated — serially by default, or sharded across worker
   processes when ``REPRO_CAMPAIGN_WORKERS`` (or an explicit ``workers=``) says so.

Run lengths default to a scaled-down region of interest (the paper uses 50M warm-up +
100M instructions; see DESIGN.md §5 for why a few thousand µ-ops of these steady-state
kernels are representative).  They can be overridden globally through the
``REPRO_SIM_UOPS`` / ``REPRO_SIM_WARMUP`` environment variables or per call.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable

from repro.campaign.executor import run_campaign, simulate_cell
from repro.campaign.spec import Campaign, CampaignCell
from repro.campaign.store import ResultStore, default_store
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimulationResult
from repro.workloads.suite import SUITE_ORDER, Workload, all_workloads, workload


def default_max_uops() -> int:
    """Per-run committed-µ-op budget (env ``REPRO_SIM_UOPS``, default 12000)."""
    return int(os.environ.get("REPRO_SIM_UOPS", "12000"))


def default_warmup_uops() -> int:
    """Warm-up µ-ops excluded from the measurement window (env ``REPRO_SIM_WARMUP``)."""
    return int(os.environ.get("REPRO_SIM_WARMUP", "3000"))


def default_suite_workers() -> int:
    """Workers for library-level grid runs (env ``REPRO_CAMPAIGN_WORKERS``, default 1).

    Unlike the campaign CLI (which defaults to every core), the library layers stay
    serial unless explicitly told otherwise, so unit tests and small interactive runs
    never pay process-pool start-up costs.
    """
    return max(1, int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "1")))


#: Environment variable: any value other than ``0``/empty makes library-level grid
#: runs print per-cell progress/ETA lines (the benchmark harness enables it so long
#: figure grids report cells-done/ETA on stderr).
PROGRESS_ENV_VAR = "REPRO_PROGRESS"


def default_progress() -> bool:
    """Whether grid runs report progress when the caller does not say (env)."""
    return os.environ.get(PROGRESS_ENV_VAR, "0") not in ("", "0")


class ResultCache:
    """In-process memoisation of simulation results.

    Keys are :attr:`~repro.campaign.spec.CampaignCell.key` tuples
    ``(config_name, workload_name, max_uops, warmup_uops, predictor_seed)``, which
    makes the cache directly pluggable into
    :func:`repro.campaign.executor.run_campaign`.
    """

    def __init__(self) -> None:
        self._results: dict[tuple, SimulationResult] = {}

    def get(self, key: tuple) -> SimulationResult | None:
        return self._results.get(key)

    def put(self, key: tuple, result: SimulationResult) -> None:
        self._results[key] = result

    def clear(self) -> None:
        self._results.clear()

    def __len__(self) -> int:
        return len(self._results)


#: Shared cache used by the experiment harness (clear with ``shared_cache.clear()``).
shared_cache = ResultCache()


def run_workload(
    config: PipelineConfig,
    workload: Workload,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    cache: ResultCache | None = shared_cache,
    store: ResultStore | None = None,
    trace=None,
    progress: bool | None = None,
) -> SimulationResult:
    """Simulate ``workload`` on ``config`` (cached by configuration name and lengths).

    Reuse order is cache → store → simulate; ``store=None`` falls back to the
    ``REPRO_RESULT_STORE`` default store when that variable is set.  Simulation
    replays the workload's committed stream from the shared trace cache
    (:mod:`repro.trace`); pass ``trace=`` to replay an explicit pre-captured trace
    instead.  An explicit trace bypasses the result cache and store entirely — their
    keys identify the *canonical* workload stream, which a caller-supplied trace
    need not match.

    ``progress=None`` defers to ``REPRO_PROGRESS``, exactly like :func:`run_grid`:
    a single-cell run (predictor_eval, the examples) then reports the same
    per-cell done/reused line a campaign grid would.
    """
    max_uops = max_uops if max_uops is not None else default_max_uops()
    warmup_uops = warmup_uops if warmup_uops is not None else default_warmup_uops()
    progress = progress if progress is not None else default_progress()
    cell = CampaignCell(
        config=config, workload_name=workload.name, max_uops=max_uops, warmup_uops=warmup_uops
    )
    if not progress:
        return _run_workload_cell(cell, workload, cache, store, trace)[0]
    from repro.campaign.progress import ProgressReporter

    reporter = ProgressReporter(total=1, enabled=True, label=cell.describe())
    reporter.cell_started(cell)
    started = time.perf_counter()
    result, reused = _run_workload_cell(cell, workload, cache, store, trace)
    reporter.cell_done(cell, time.perf_counter() - started, reused=reused)
    reporter.finish()
    return result


def _run_workload_cell(
    cell: CampaignCell,
    workload: Workload,
    cache: ResultCache | None,
    store: ResultStore | None,
    trace,
) -> tuple[SimulationResult, bool]:
    """The cache → store → simulate ladder behind :func:`run_workload`.

    Returns ``(result, reused)`` — ``reused`` mirrors the campaign reporter's
    notion (cache or store hit, no simulation run).
    """
    if trace is not None:
        return simulate_cell(cell, workload, trace=trace), False
    if cache is not None:
        cached = cache.get(cell.key)
        if cached is not None:
            return cached, True
    store = store if store is not None else default_store()
    if store is not None:
        stored = store.get(cell.fingerprint)
        if stored is not None:
            if cache is not None:
                cache.put(cell.key, stored)
            return stored, True
    result = simulate_cell(cell, workload)
    if store is not None:
        store.put(cell, result)
    if cache is not None:
        cache.put(cell.key, result)
    return result, False


def run_grid(
    configs: Iterable[PipelineConfig],
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    cache: ResultCache | None = shared_cache,
    store: ResultStore | None = None,
    workers: int | None = None,
    progress: bool | None = None,
    label: str | None = None,
) -> dict[str, dict[str, SimulationResult]]:
    """Simulate every (config, workload) pair; returns config name → workload → result.

    The whole grid is submitted to the campaign engine at once, so with ``workers > 1``
    the cells of *different* configurations shard across the pool together — the unit
    of parallelism is the cell, not the configuration row.

    ``progress=None`` defers to the ``REPRO_PROGRESS`` environment variable; when
    enabled, per-cell done-count/ETA lines are printed to stderr, labelled with
    ``label`` (e.g. the figure id the benchmark harness is regenerating).
    """
    configs = list(configs)
    selected = list(workloads) if workloads is not None else all_workloads()
    max_uops = max_uops if max_uops is not None else default_max_uops()
    warmup_uops = warmup_uops if warmup_uops is not None else default_warmup_uops()
    workers = workers if workers is not None else default_suite_workers()
    progress = progress if progress is not None else default_progress()

    # The campaign engine routes cells by workload *name* (they must survive a pickle
    # boundary), so it may only be used when every workload is the registry's own
    # instance — an ad-hoc Workload that merely shares a suite name must not be
    # silently replaced by the registry version.
    registry_members = [
        wl for wl in selected if wl.name in SUITE_ORDER and workload(wl.name) is wl
    ]
    if len(registry_members) == len(selected) and len(
        {wl.name for wl in selected}
    ) == len(selected):
        campaign = Campaign(
            name=label if label else "grid",
            configs=tuple(configs),
            workload_names=tuple(wl.name for wl in selected),
            max_uops=max_uops,
            warmup_uops=warmup_uops,
        )
        outcome = run_campaign(
            campaign, store=store, workers=workers, cache=cache, progress=progress
        )
        return outcome.by_config()
    # Ad-hoc workload objects outside the registered suite cannot cross a process
    # boundary by name — simulate them serially through the single-cell primitive.
    return {
        config.name: {
            wl.name: run_workload(config, wl, max_uops, warmup_uops, cache, store)
            for wl in selected
        }
        for config in configs
    }


def run_suite(
    config: PipelineConfig,
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    cache: ResultCache | None = shared_cache,
    store: ResultStore | None = None,
    workers: int | None = None,
) -> dict[str, SimulationResult]:
    """Simulate every workload on ``config``; returns results keyed by workload name."""
    grid = run_grid(
        [config], workloads, max_uops, warmup_uops, cache, store, workers
    )
    return grid[config.name]


def suite_ipcs(results: dict[str, SimulationResult]) -> dict[str, float]:
    """Extract the per-workload IPCs from a suite result dictionary."""
    return {name: result.ipc for name, result in results.items()}
