"""Bit-identity of simulation results across execution strategies.

Two hard invariants are enforced here:

* **trace subsystem** — every ``SimulationResult`` must be *byte identical* whether
  the simulator emulates inline (``REPRO_TRACE_CACHE=0``), replays a shared
  in-process capture, or replays a capture decoded from the on-disk store;
* **fast path vs reference oracle** — the default fast path (the cycle-skipping
  event wheel over the dependency-driven wake-up issue queue) must produce results
  byte-identical to the reference (``REPRO_EVENT_DRIVEN=0``: the cycle-stepping
  loop over the scan-based issue queue) across the full 4-configuration ×
  4-workload grid the throughput harness measures.
"""

import json

import pytest

from repro.campaign.executor import simulate_cell
from repro.campaign.spec import CampaignCell
from repro.ooo.issue_queue import IssueQueue, WakeupIssueQueue
from repro.pipeline.config import named_config
from repro.pipeline.simulator import EVENT_DRIVEN_ENV_VAR, Simulator
from repro.trace.cache import TRACE_CACHE_ENV_VAR, shared_trace_cache
from repro.trace.capture import capture_workload_trace, required_length
from repro.trace.encoding import CapturedTrace
from repro.trace.store import TRACE_STORE_ENV_VAR
from repro.workloads.suite import workload

GRID_CONFIGS = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64")
GRID_WORKLOADS = ("gcc", "mcf")
MAX_UOPS, WARMUP_UOPS = 2500, 500

#: The throughput harness's grid (benchmarks/perf/throughput.py): the event-driven
#: determinism gate runs the full 4 × 4 cross product.
EVENT_GRID_CONFIGS = (
    "Baseline_6_64",
    "Baseline_VP_6_64",
    "EOLE_4_64",
    "EOLE_4_64_4ports_4banks",
)
EVENT_GRID_WORKLOADS = ("wupwise", "bzip2", "gcc", "milc")


def _grid_dicts(monkeypatch, *, cache_enabled: bool) -> dict[str, dict]:
    if cache_enabled:
        monkeypatch.delenv(TRACE_CACHE_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(TRACE_CACHE_ENV_VAR, "0")
    shared_trace_cache.clear()
    out = {}
    for config_name in GRID_CONFIGS:
        for workload_name in GRID_WORKLOADS:
            cell = CampaignCell(
                config=named_config(config_name),
                workload_name=workload_name,
                max_uops=MAX_UOPS,
                warmup_uops=WARMUP_UOPS,
            )
            out[cell.describe()] = simulate_cell(cell).to_dict()
    return out


def test_grid_with_trace_cache_is_byte_identical_to_cold_run(monkeypatch):
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    cached = _grid_dicts(monkeypatch, cache_enabled=True)
    cold = _grid_dicts(monkeypatch, cache_enabled=False)
    assert json.dumps(cached, sort_keys=True) == json.dumps(cold, sort_keys=True)


def test_explicit_trace_matches_inline_emulation():
    config = named_config("Baseline_VP_6_64")
    wl = workload("gcc")
    trace = capture_workload_trace(wl, required_length(MAX_UOPS, config))
    cell = CampaignCell(
        config=config, workload_name=wl.name, max_uops=MAX_UOPS, warmup_uops=WARMUP_UOPS
    )
    from_trace = simulate_cell(cell, wl, trace=trace)
    from_decoded = simulate_cell(
        cell, wl, trace=CapturedTrace.from_bytes(trace.to_bytes(), wl.program)
    )
    assert from_trace.to_dict() == from_decoded.to_dict()


def test_disk_store_replay_is_byte_identical(monkeypatch, tmp_path):
    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="mcf",
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    shared_trace_cache.clear()
    in_memory = simulate_cell(cell).to_dict()

    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path / "traces"))
    shared_trace_cache.clear()
    simulate_cell(cell)  # populates the store
    shared_trace_cache.clear()  # force the next run to decode from disk
    from_disk = simulate_cell(cell).to_dict()
    assert from_disk == in_memory


def test_shared_cache_counts_replays():
    shared_trace_cache.clear()
    before = shared_trace_cache.captures
    for config_name in ("Baseline_6_64", "EOLE_4_64"):
        cell = CampaignCell(
            config=named_config(config_name),
            workload_name="wupwise",
            max_uops=1000,
            warmup_uops=0,
        )
        simulate_cell(cell)
    assert shared_trace_cache.captures == before + 1  # one emulation, two configs


def _event_grid_dicts(
    monkeypatch, *, event_driven: bool
) -> tuple[dict[str, dict], dict[str, tuple[bool, type]]]:
    """Run the full grid in one mode; return its results and, per cell, the loop
    flavour (event-driven or not) and issue-queue class the simulator really used."""
    if event_driven:
        monkeypatch.delenv(EVENT_DRIVEN_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(EVENT_DRIVEN_ENV_VAR, "0")
    used: list[tuple[bool, type]] = []
    original_run = Simulator.run

    def recording_run(self):
        used.append((self._event_driven, type(self.iq)))
        return original_run(self)

    monkeypatch.setattr(Simulator, "run", recording_run)
    out, modes = {}, {}
    for config_name in EVENT_GRID_CONFIGS:
        for workload_name in EVENT_GRID_WORKLOADS:
            cell = CampaignCell(
                config=named_config(config_name),
                workload_name=workload_name,
                max_uops=MAX_UOPS,
                warmup_uops=WARMUP_UOPS,
            )
            out[cell.describe()] = simulate_cell(cell).to_dict()
            modes[cell.describe()] = used[-1]
    monkeypatch.setattr(Simulator, "run", original_run)
    return out, modes


@pytest.fixture(scope="module")
def fast_and_reference_grids():
    """The full 4 × 4 grid under the fast path and under ``REPRO_EVENT_DRIVEN=0``,
    computed once and shared by the grid tests below."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
        fast = _event_grid_dicts(monkeypatch, event_driven=True)
        reference = _event_grid_dicts(monkeypatch, event_driven=False)
    shared_trace_cache.clear()
    return fast, reference


def test_event_driven_grid_is_byte_identical_to_cycle_stepping(fast_and_reference_grids):
    """The cycle-skipping event wheel is invisible across the full 4 × 4 grid.

    Every counter — including the per-stalled-cycle dispatch statistics that the
    scheduler credits in bulk for skipped spans — must match the cycle-stepping
    reference loop (``REPRO_EVENT_DRIVEN=0``) exactly.
    """
    (fast, fast_modes), (reference, reference_modes) = fast_and_reference_grids
    assert all(event_driven for event_driven, _ in fast_modes.values())
    assert not any(event_driven for event_driven, _ in reference_modes.values())
    assert json.dumps(fast, sort_keys=True) == json.dumps(reference, sort_keys=True)


def test_wakeup_lists_grid_is_byte_identical_to_scan_reference(fast_and_reference_grids):
    """The dependency-driven wake-up IQ is invisible across the full 4 × 4 grid.

    ``REPRO_EVENT_DRIVEN=0`` also swaps the wake-up IQ for the scan IQ, so the same
    pair of sweeps compares the two queues: every cell must really have run on the
    queue its mode names, and selection order, issue cycles, functional-unit
    interactions, squash/replay recovery and every derived statistic must match.
    """
    (fast, fast_modes), (reference, reference_modes) = fast_and_reference_grids
    assert {iq for _, iq in fast_modes.values()} == {WakeupIssueQueue}
    assert {iq for _, iq in reference_modes.values()} == {IssueQueue}
    for key, result in fast.items():
        assert json.dumps(result, sort_keys=True) == json.dumps(
            reference[key], sort_keys=True
        ), f"wake-up IQ diverges from the scan IQ for {key}"


def test_wakeup_lists_off_under_cycle_stepping_matches_default(monkeypatch):
    """The whole reference (scan IQ + stepping loop) agrees with the default fast
    path on a single cell run outside the shared grid."""
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="gcc",
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    monkeypatch.delenv(EVENT_DRIVEN_ENV_VAR, raising=False)
    fast = simulate_cell(cell).to_dict()
    monkeypatch.setenv(EVENT_DRIVEN_ENV_VAR, "0")
    reference = simulate_cell(cell).to_dict()
    assert fast == reference


def test_fault_arming_never_perturbs_simulation(monkeypatch):
    """``REPRO_FAULTS`` touches durability plumbing and liveness only: arming a
    plan — even one whose sites fire on every hit — leaves every simulation
    counter byte-identical to the faults-off run (the sites live in store/trace
    I/O and lease transitions, never in simulator loops)."""
    from repro.faults import FAULTS_ENV_VAR, active_faults, reset_faults

    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="gcc",
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    reset_faults()
    assert active_faults() is None  # the kill switch: off means off
    shared_trace_cache.clear()
    baseline = simulate_cell(cell).to_dict()

    monkeypatch.setenv(
        FAULTS_ENV_VAR,
        "coord.heartbeat.drop:every=1:n=0;coord.claim.delay:every=1:n=0:delay=0",
    )
    reset_faults()
    shared_trace_cache.clear()
    armed = simulate_cell(cell).to_dict()
    monkeypatch.delenv(FAULTS_ENV_VAR)
    reset_faults()
    assert json.dumps(armed, sort_keys=True) == json.dumps(baseline, sort_keys=True)


def test_fleet_under_injected_faults_is_byte_identical(monkeypatch, tmp_path):
    """A leased-queue fleet worker crashing on an injected torn append and losing
    heartbeats still lands results byte-identical to the serial path: crashes
    cost retries, never bits (the chaos smoke runs the subprocess version)."""
    from repro.campaign.coordinator import CampaignService, work_loop
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import Campaign
    from repro.faults import FAULTS_ENV_VAR, reset_faults

    campaign = Campaign.from_names(
        GRID_CONFIGS[:2],
        ",".join(GRID_WORKLOADS),
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
        name="faulty-fleet",
    )
    service = CampaignService(tmp_path / "svc")
    service.submit(campaign, backoff_seconds=0.05, max_attempts=4)
    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(service.trace_dir))
    monkeypatch.setenv(
        FAULTS_ENV_VAR,
        "store.append.torn:at=2;coord.heartbeat.drop:every=2:n=0",
    )
    reset_faults()
    shared_trace_cache.clear()
    counts = work_loop(service, worker_id="w1", poll_seconds=0.05)
    monkeypatch.delenv(FAULTS_ENV_VAR)
    reset_faults()
    assert counts["requeued"] >= 1  # the torn append really did cost a retry

    store = service.result_store()
    assert not store.failures()
    monkeypatch.delenv(TRACE_STORE_ENV_VAR)
    shared_trace_cache.clear()
    serial = run_campaign(campaign, store=None, workers=1)
    for cell in campaign.cells():
        record = store.get_record(cell.fingerprint)
        expected = serial.results[(cell.config.name, cell.workload_name)]
        assert record is not None, f"missing {cell.describe()}"
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        ), f"fleet result diverges for {cell.describe()}"


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()
