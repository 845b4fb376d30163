"""Cycle-level pipeline model: configurations, the simulator and its statistics."""

from repro.pipeline.config import (
    NAMED_CONFIGS,
    PipelineConfig,
    baseline_6_64,
    baseline_8_64,
    baseline_vp_4_64,
    baseline_vp_6_48,
    baseline_vp_6_64,
    eoe_4_64,
    eole_4_48,
    eole_4_64,
    eole_4_64_4ports_4banks,
    eole_4_64_banked,
    eole_6_48,
    eole_6_64,
    named_config,
    ole_4_64,
)
from repro.pipeline.simulator import Simulator, simulate
from repro.pipeline.stats import SimStats, SimulationResult

__all__ = [
    "NAMED_CONFIGS",
    "PipelineConfig",
    "SimStats",
    "SimulationResult",
    "Simulator",
    "baseline_6_64",
    "baseline_8_64",
    "baseline_vp_4_64",
    "baseline_vp_6_48",
    "baseline_vp_6_64",
    "eoe_4_64",
    "eole_4_48",
    "eole_4_64",
    "eole_4_64_4ports_4banks",
    "eole_4_64_banked",
    "eole_6_48",
    "eole_6_64",
    "named_config",
    "ole_4_64",
    "simulate",
]
