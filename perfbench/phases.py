"""Set-up and timed passes of the benchmark's workloads.

A *pass* runs every cell of a workload once, so each pass has the same mix of
cells whatever the seed; the timed phase is made of whole passes.  The grid
workloads call :func:`~repro.campaign.executor.simulate_cell` over a warm trace
cache; the fleet drives a fresh :class:`~repro.campaign.coordinator.CampaignService`
per pass with one in-process worker.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from contextlib import contextmanager, nullcontext
from itertools import count
from pathlib import Path

from repro.campaign import executor
from repro.campaign.coordinator import CampaignService, process_lease
from repro.campaign.executor import simulate_cell
from repro.campaign.fsck import fsck_service
from repro.campaign.spec import CampaignCell
from repro.campaign.store import ResultStore
from repro.pipeline.stats import SimulationResult
from repro.trace.cache import shared_trace_cache
from repro.trace.capture import required_length
from repro.trace.store import TRACE_STORE_ENV_VAR, TraceStore, default_trace_store
from repro.workloads.suite import workload

from cells import BenchWorkload, OutputCheck
from spans import SpanRecorder, traced_simulator_class

WORKER_ID = "perfbench-worker"
#: ``cell_ms.p90`` needs at least ten cells beyond it.
MIN_CELLS = 100


class CellRecord:
    """One timed cell: its host seconds and, once checked, its result."""

    __slots__ = ("cell", "seconds", "result", "ok")

    def __init__(self, cell: CampaignCell, seconds: float, result: SimulationResult | None):
        self.cell = cell
        self.seconds = seconds
        self.result = result
        self.ok = result is not None


def _span(recorder: SpanRecorder | None, name: str, cell: str | None = None):
    return nullcontext() if recorder is None else recorder.span(name, cell)


@contextmanager
def traced_layers(recorder: SpanRecorder | None):
    """Spans around the simulator and trace-cache calls the executor makes."""
    if recorder is None:
        yield
        return
    base = executor.Simulator
    executor.Simulator = traced_simulator_class(base, recorder)
    shared_trace_cache.trace_for = recorder.wrap("trace.trace_for", shared_trace_cache.trace_for)
    try:
        yield
    finally:
        executor.Simulator = base
        del shared_trace_cache.trace_for


class GridRunner:
    """config-sweep and window-bound: ``simulate_cell`` over a warm trace cache."""

    def __init__(self, spec: BenchWorkload, seed: int, check: OutputCheck) -> None:
        self.spec = spec
        self.check = check
        self.order = spec.timed_order(seed)
        canonical = spec.cells(seed)
        # A fixed cheap cell, so the warm-up cost does not depend on the seed.
        self.warmup_cell = canonical[-1]
        self.deepest = max(
            (cell.config for cell in canonical),
            key=lambda config: required_length(spec.max_uops, config),
        )
        self.suite = {name: workload(name) for name in spec.suite_workloads}
        self.traces: dict = {}

    def capture(self, recorder: SpanRecorder | None = None) -> None:
        """Cold-capture every suite workload, long enough for every configuration."""
        shared_trace_cache.clear()
        for name, wl in self.suite.items():
            with _span(recorder, "trace.capture", name):
                self.traces[name] = shared_trace_cache.trace_for(
                    wl, self.spec.max_uops, self.deepest
                )

    def setup(self, recorder: SpanRecorder | None = None) -> float:
        started = time.perf_counter()
        self.capture(recorder)
        cell = self.warmup_cell
        simulate_cell(cell, self.suite[cell.workload_name])
        return time.perf_counter() - started

    def prepare_pass(self) -> None:
        return None

    def run_pass(self, context, recorder: SpanRecorder | None = None) -> list[CellRecord]:
        records = []
        for cell in self.order:
            wl = self.suite[cell.workload_name]
            started = time.perf_counter()
            with _span(recorder, "bench.cell", cell.describe()):
                try:
                    result = simulate_cell(cell, wl)
                except Exception as error:  # noqa: BLE001 — a raising cell is a failed cell
                    result = None
                    self.check.fail(cell, f"raised {type(error).__name__}: {error}")
            records.append(CellRecord(cell, time.perf_counter() - started, result))
        return records

    def finish_pass(self, context, records: list[CellRecord]) -> list[str]:
        """Check every result; returns problems that belong to no single cell."""
        for record in records:
            if record.ok:
                record.ok = self.check.check(record.cell, record.result)
        return []

    def close(self) -> None:
        return None


class FleetRunner(GridRunner):
    """fleet: one in-process worker claims, simulates and completes one-cell leases."""

    def __init__(self, spec: BenchWorkload, seed: int, check: OutputCheck, work_dir: Path) -> None:
        super().__init__(spec, seed, check)
        self.campaign = spec.campaign(seed)
        self.cells = {cell.fingerprint: cell for cell in self.campaign.cells()}
        self.work_dir = work_dir
        self._serial = count()
        self.store_bytes = 0

    def _fresh_service(self) -> CampaignService:
        return CampaignService(self.work_dir / f"service-{next(self._serial)}")

    def setup(self, recorder: SpanRecorder | None = None) -> float:
        """Submit, then capture every workload into the service's trace store."""
        started = time.perf_counter()
        service = self._fresh_service()
        with _span(recorder, "campaign.submit"):
            service.submit(self.campaign, lease_width=1)
        self.capture(recorder)
        store = TraceStore(service.trace_dir)
        for name, trace in self.traces.items():
            with _span(recorder, "trace.store_save", name):
                store.save(trace)
        cell = self.warmup_cell
        simulate_cell(cell, self.suite[cell.workload_name])
        elapsed = time.perf_counter() - started
        shutil.rmtree(service.root)
        return elapsed

    def prepare_pass(self) -> CampaignService:
        """A fresh service holding the captured traces; the in-process cache is cleared
        so the worker decodes each trace from the store, as a fresh worker would."""
        service = self._fresh_service()
        service.submit(self.campaign, lease_width=1)
        store = TraceStore(service.trace_dir)
        for trace in self.traces.values():
            store.save(trace)
        shared_trace_cache.clear()
        return service

    def run_pass(self, service: CampaignService, recorder: SpanRecorder | None = None):
        previous = os.environ.get(TRACE_STORE_ENV_VAR)
        os.environ[TRACE_STORE_ENV_VAR] = str(service.trace_dir)
        store = service.result_store()
        trace_store = default_trace_store()
        if recorder is not None:
            store.reload = recorder.wrap("campaign.store_reload", store.reload)
            store.put = recorder.wrap("campaign.store_put", store.put)
            trace_store.load = recorder.wrap("trace.store_load", trace_store.load)
        records = []
        try:
            while True:
                started = time.perf_counter()
                with _span(recorder, "bench.cell"):
                    with _span(recorder, "campaign.claim"):
                        lease = service.claim(WORKER_ID)
                    if lease is None:
                        if recorder is not None:
                            recorder.label("queue-drained")
                        break
                    if recorder is not None:
                        recorder.label(lease.lease_id)
                    with _span(recorder, "campaign.process_lease"):
                        error = process_lease(service, lease, WORKER_ID, store)
                    if error is None:
                        with _span(recorder, "campaign.complete"):
                            completed = service.complete(lease, WORKER_ID)
                    else:
                        with _span(recorder, "campaign.requeue"):
                            service.requeue(lease, WORKER_ID, error)
                        completed = False
                (fingerprint,) = lease.fingerprints
                record = CellRecord(self.cells[fingerprint], time.perf_counter() - started, None)
                record.ok = error is None and completed
                records.append(record)
        finally:
            if previous is None:
                os.environ.pop(TRACE_STORE_ENV_VAR, None)
            else:
                os.environ[TRACE_STORE_ENV_VAR] = previous
            if recorder is not None:
                del trace_store.load
        return records

    def finish_pass(self, service: CampaignService, records: list[CellRecord]) -> list[str]:
        """Check every stored row and the service directory; returns service-level problems."""
        problems = []
        stored = ResultStore(service.store_path)
        self.store_bytes = stored.size_bytes()
        leased = set()
        for record in records:
            cell = record.cell
            leased.add(cell.fingerprint)
            if not record.ok:
                self.check.fail(cell, "lease was not completed")
                continue
            row = stored.get_record(cell.fingerprint)
            if stored.get_failure(cell.fingerprint) is not None or row is None:
                record.ok = self.check.fail(cell, "left a failure row or no result row")
                continue
            result = SimulationResult.from_dict(row["result"])
            if result.to_dict() != row["result"]:
                record.ok = self.check.fail(cell, "stored row does not round-trip")
                continue
            record.result = result
            record.ok = self.check.check(cell, result)
        if leased != set(self.cells):
            problems.append(f"{len(set(self.cells) - leased)} cells were never leased")
        report = fsck_service(service.root)
        if not report.clean:
            problems.extend(
                f"fsck {finding.check}: {finding.detail}" for finding in report.unresolved
            )
        shutil.rmtree(service.root)
        return problems

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Phase:
    """The cells of one timed phase (whole passes) and its host seconds."""

    def __init__(self) -> None:
        self.records: list = []
        self.pass_seconds: list[float] = []
        self.problems: list[str] = []

    @property
    def seconds(self) -> float:
        return sum(self.pass_seconds)

    @property
    def results(self) -> list:
        return [record.result for record in self.records if record.ok]

    @property
    def uops_per_s(self) -> float:
        uops = sum(result.full_stats.committed_uops for result in self.results)
        return uops / self.seconds


def measure(runner, seconds: float, recorder=None) -> Phase:
    """Whole passes until the phase is closest to ``seconds`` and has MIN_CELLS cells.

    A traced phase is exactly one pass, so its counts repeat exactly.
    """
    phase = Phase()
    while True:
        context = runner.prepare_pass()
        gc.collect()
        started = time.perf_counter()
        with traced_layers(recorder):
            records = runner.run_pass(context, recorder)
        phase.pass_seconds.append(time.perf_counter() - started)
        phase.problems += runner.finish_pass(context, records)
        phase.records += records
        if recorder is not None:
            return phase
        # Stop at the whole number of passes closest to ``seconds``.
        mean_pass = phase.seconds / len(phase.pass_seconds)
        if len(phase.records) >= MIN_CELLS and phase.seconds + mean_pass / 2 >= seconds:
            return phase
