"""Golden result digests: the simulator's output pinned against a committed file.

Every determinism test compares the simulator's modes *with each other*, and both
modes share the dispatch, commit and fetch stages, so a change to those stages that
shifts every mode alike would pass them unseen.  This test compares against digests
recorded once and committed in ``golden_results.json``.

Each digest is the SHA-256 of the sorted-key JSON of ``SimulationResult.to_dict()``,
so it covers every ``SimStats`` counter of both windows, the predictor and cache
rates and the peak ROB/IQ occupancies.  The cells are the determinism suite's 4 × 4
event grid plus two machines that stress dispatch corner cases:

* ``Baseline_6_64`` × mcf fills the issue queue, so dispatch rolls groups back;
* a 12-entry-ROB, 8-entry-IQ ``Baseline_VP_6_64`` × milc parks dispatch on
  structural stalls, which the event wheel credits in bulk.

Runs use 2000/500 µ-ops with every ``REPRO_*`` variable cleared, once on the
default event wheel and once on the cycle-stepping reference
(``REPRO_EVENT_DRIVEN=0``); both must reproduce the same digest.  A digest that
changes means the timing model changed: update the file only together with a
CHANGES.md note saying why the results moved.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.campaign.executor import simulate_cell
from repro.campaign.spec import CampaignCell
from repro.pipeline.config import named_config
from repro.pipeline.simulator import EVENT_DRIVEN_ENV_VAR

GOLDEN_FILE = Path(__file__).with_name("golden_results.json")
MAX_UOPS, WARMUP_UOPS = 2000, 500

GRID_CONFIGS = (
    "Baseline_6_64",
    "Baseline_VP_6_64",
    "EOLE_4_64",
    "EOLE_4_64_4ports_4banks",
)
GRID_WORKLOADS = ("wupwise", "bzip2", "gcc", "milc")


def _cells() -> dict[str, tuple]:
    cells = {
        f"{config_name}/{workload_name}": (named_config(config_name), workload_name)
        for config_name in GRID_CONFIGS
        for workload_name in GRID_WORKLOADS
    }
    cells["Baseline_6_64/mcf"] = (named_config("Baseline_6_64"), "mcf")
    cells["Baseline_VP_6_64_rob12_iq8/milc"] = (
        named_config("Baseline_VP_6_64").derive(rob_size=12, iq_size=8),
        "milc",
    )
    return cells


CELLS = _cells()


def result_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(params=["event", "step"])
def clean_env(request, monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    if request.param == "step":
        monkeypatch.setenv(EVENT_DRIVEN_ENV_VAR, "0")


def test_golden_file_covers_every_cell():
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden["max_uops"] == MAX_UOPS
    assert golden["warmup_uops"] == WARMUP_UOPS
    assert sorted(golden["digests"]) == sorted(CELLS)


@pytest.mark.parametrize("cell_name", sorted(CELLS))
def test_result_matches_golden_digest(clean_env, cell_name):
    golden = json.loads(GOLDEN_FILE.read_text())["digests"]
    config, workload_name = CELLS[cell_name]
    cell = CampaignCell(
        config=config,
        workload_name=workload_name,
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    assert result_digest(simulate_cell(cell)) == golden[cell_name]
