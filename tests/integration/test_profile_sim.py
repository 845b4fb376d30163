"""Smoke test of ``scripts/profile_sim.py --stage-times --format=json``.

One short cell per main-loop flavour: the fast path (``--mode event``) and the
reference oracle (``--mode step``).  Both must emit the same IPC, since the two
flavours are byte-identical, and a stage breakdown whose shares add up.  Only the
event wheel calls the scheduler, so only it reports ``schedule`` time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "profile_sim.py"


def _stage_times(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--stage-times",
            "--format=json",
            "--config",
            "EOLE_4_64",
            "--workload",
            "gcc",
            "--max-uops",
            "800",
            "--warmup-uops",
            "200",
            "--mode",
            mode,
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def payloads() -> dict[str, dict]:
    return {mode: _stage_times(mode) for mode in ("event", "step")}


@pytest.mark.parametrize("mode", ["event", "step"])
def test_stage_times_json_shape(payloads, mode):
    payload = payloads[mode]
    assert payload["mode"] == mode
    assert payload["config"] == "EOLE_4_64"
    assert payload["workload"] == "gcc"
    stages = payload["stages"]
    assert set(stages) == {
        "fetch", "dispatch", "issue", "commit", "train", "completions", "schedule"
    }
    for stage in ("fetch", "dispatch", "issue", "commit"):
        assert stages[stage]["calls"] > 0
        assert stages[stage]["seconds"] > 0
    assert sum(stage["share"] for stage in stages.values()) == pytest.approx(1.0)
    assert payload["total_seconds"] == pytest.approx(
        sum(stage["seconds"] for stage in stages.values())
    )


def test_schedule_stage_runs_only_on_the_event_wheel(payloads):
    assert payloads["event"]["stages"]["schedule"]["calls"] > 0
    assert payloads["event"]["stages"]["schedule"]["seconds"] > 0
    assert payloads["step"]["stages"]["schedule"]["calls"] == 0


def test_stage_times_modes_agree_on_ipc(payloads):
    assert payloads["event"]["ipc"] == payloads["step"]["ipc"] > 0
