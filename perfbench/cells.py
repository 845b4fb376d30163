"""The benchmark's workloads, their cell lists, and the output check behind them.

A *cell* is one (configuration × suite workload) simulation at a fixed µ-op
budget, built through :class:`repro.campaign.spec.Campaign` so the seed given on
the command line becomes each cell's derived predictor seed.

Correctness is checked per cell against ``digests.json``: a short SHA-256 over a
fixed, named list of :class:`~repro.pipeline.stats.SimStats` fields
(:data:`DIGEST_FIELDS`), for both the measurement window and the full run.  The
list is fixed on purpose: a counter added to ``SimStats`` later does not change
any recorded digest, while a change to the timing model does.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.spec import Campaign, CampaignCell
from repro.pipeline.stats import SimulationResult
from repro.workloads.suite import SUITE_ORDER

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: The ``SimStats`` counters a cell digest covers (see the module docstring).
DIGEST_FIELDS: tuple[str, ...] = (
    "cycles",
    "committed_uops",
    "committed_branches",
    "committed_loads",
    "committed_stores",
    "early_executed",
    "late_executed_alu",
    "late_resolved_branches",
    "dispatched_to_iq",
    "predictions_used",
    "value_mispredictions",
    "branch_mispredictions",
    "pipeline_squashes",
    "squashed_uops",
    "rob_full_stalls",
    "iq_full_stalls",
    "lsq_full_stalls",
    "prf_bank_stalls",
)

#: Hex characters kept from each cell's SHA-256.
CELL_DIGEST_CHARS = 12

#: The 8-configuration design-space sweep of ``benchmarks/perf/throughput.py``
#: (copied, because that module imports the opt-in replay paths).
SWEEP_CONFIGS: tuple[str, ...] = (
    "Baseline_6_64",
    "Baseline_8_64",
    "Baseline_VP_6_64",
    "Baseline_VP_4_64",
    "EOLE_6_64",
    "EOLE_4_64",
    "EOLE_4_48",
    "EOLE_4_64_4ports_4banks",
)


@dataclass(frozen=True)
class BenchWorkload:
    """One named benchmark workload: a (configs × suite workloads) grid."""

    name: str
    configs: tuple[str, ...]
    suite_workloads: tuple[str, ...]
    max_uops: int
    warmup_uops: int
    fleet: bool = False

    def campaign(self, seed: int) -> Campaign:
        return Campaign.from_names(
            self.configs,
            self.suite_workloads,
            max_uops=self.max_uops,
            warmup_uops=self.warmup_uops,
            seed=seed,
            name=f"perfbench-{self.name}",
        )

    def cells(self, seed: int) -> list[CampaignCell]:
        """Every cell, in the campaign's canonical (configuration-major) order."""
        return self.campaign(seed).cells()

    def timed_order(self, seed: int) -> list[CampaignCell]:
        """The cells in the seed's shuffled order (the fleet keeps lease order)."""
        cells = self.cells(seed)
        if not self.fleet:
            random.Random(seed).shuffle(cells)
        return cells


WORKLOADS: dict[str, BenchWorkload] = {
    spec.name: spec
    for spec in (
        # VP, branch prediction and early/late execution dominate; IQ-full
        # cycles are rare.  mcf is left out: its window-full cells belong to
        # window-bound.
        BenchWorkload(
            "config-sweep",
            SWEEP_CONFIGS,
            tuple(name for name in SUITE_ORDER if name != "mcf"),
            max_uops=8000,
            warmup_uops=2500,
        ),
        # The OoO window fills on memory-bound code: mcf cells spend every
        # cycle IQ-full, so dispatch stalls, ooo and mem carry the cost.
        BenchWorkload(
            "window-bound",
            ("Baseline_6_64", "Baseline_8_64", "Baseline_VP_4_64", "Baseline_VP_6_48"),
            ("mcf", "art", "namd", "bzip2"),
            max_uops=2000,
            warmup_uops=500,
        ),
        # Short cells through the leased work queue, so claim/complete, store
        # appends and store reloads are a large share of each cell.
        BenchWorkload(
            "fleet",
            SWEEP_CONFIGS[:6],
            SUITE_ORDER,
            max_uops=2000,
            warmup_uops=500,
            fleet=True,
        ),
    )
}


def cell_digest(result: SimulationResult) -> str:
    """The short digest of one result over :data:`DIGEST_FIELDS`."""
    payload = [
        result.config_name,
        result.workload_name,
        [getattr(result.stats, name) for name in DIGEST_FIELDS],
        [getattr(result.full_stats, name) for name in DIGEST_FIELDS],
    ]
    encoded = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()[:CELL_DIGEST_CHARS]


def workload_digest(cell_digests: list[str]) -> str:
    """The digest of a whole workload: its cell digests in canonical order."""
    return hashlib.sha256("".join(cell_digests).encode()).hexdigest()[:16]


def load_recorded(workload_name: str, seed: int) -> list[str] | None:
    """The recorded cell digests (canonical order) for a seed, or None."""
    if not DIGESTS_PATH.exists():
        return None
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    if recorded.get("fields") != list(DIGEST_FIELDS):
        raise ValueError(f"{DIGESTS_PATH.name} was recorded over other SimStats fields")
    joined = recorded["seeds"].get(str(seed), {}).get(workload_name)
    if joined is None:
        return None
    return [
        joined[start : start + CELL_DIGEST_CHARS]
        for start in range(0, len(joined), CELL_DIGEST_CHARS)
    ]


class OutputCheck:
    """Validates each cell's result against its budget and the recorded digests."""

    def __init__(self, spec: BenchWorkload, seed: int) -> None:
        self.spec = spec
        canonical = spec.cells(seed)
        self.index = {cell.fingerprint: position for position, cell in enumerate(canonical)}
        self.expected = load_recorded(spec.name, seed)
        if self.expected is not None and len(self.expected) != len(canonical):
            raise ValueError(
                f"{DIGESTS_PATH.name}: {spec.name} seed {seed} has the wrong cell count"
            )
        self.observed: list[str | None] = [None] * len(canonical)
        self.problems: list[str] = []

    def check(self, cell: CampaignCell, result: SimulationResult) -> bool:
        """True when ``result`` is a correct outcome of ``cell``."""
        if result.full_stats.committed_uops != cell.max_uops:
            return self.fail(
                cell,
                f"committed {result.full_stats.committed_uops} of {cell.max_uops} µ-ops",
            )
        digest = cell_digest(result)
        position = self.index[cell.fingerprint]
        if self.observed[position] not in (None, digest):
            return self.fail(cell, f"digest {digest} differs from an earlier pass")
        self.observed[position] = digest
        if self.expected is not None and self.expected[position] != digest:
            return self.fail(
                cell, f"digest {digest} differs from recorded {self.expected[position]}"
            )
        return True

    def fail(self, cell: CampaignCell, reason: str) -> bool:
        """Record why ``cell`` failed; always False."""
        self.problems.append(f"{cell.describe()}: {reason}")
        return False

    def recorded_digest(self) -> str | None:
        return None if self.expected is None else workload_digest(self.expected)

    def digest(self) -> str | None:
        """The workload digest, once every cell has been observed."""
        if any(entry is None for entry in self.observed):
            return None
        return workload_digest(self.observed)  # type: ignore[arg-type]
