#!/usr/bin/env python3
"""Record the per-cell result digests the benchmark checks, for a range of seeds.

Run from the repository root after a deliberate timing-model change:

    python3 perfbench/record_digests.py --seeds 0-31

Each cell is simulated once through ``simulate_cell``; fleet cells are
byte-identical to their serial simulation, so the same digests check the fleet.
Seeds already in the output file are kept unless recomputed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,7-9")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    import cells
    from repro.campaign.executor import simulate_cell

    output = args.output or cells.DIGESTS_PATH
    recorded = {"fields": list(cells.DIGEST_FIELDS), "seeds": {}}
    if output.exists():
        recorded = json.loads(output.read_text(encoding="utf-8"))
        if recorded["fields"] != list(cells.DIGEST_FIELDS):
            recorded = {"fields": list(cells.DIGEST_FIELDS), "seeds": {}}
    for seed in parse_seeds(args.seeds):
        entry = {}
        for spec in cells.WORKLOADS.values():
            digests = [cells.cell_digest(simulate_cell(cell)) for cell in spec.cells(seed)]
            entry[spec.name] = "".join(digests)
            print(f"seed {seed} {spec.name}: {cells.workload_digest(digests)}", flush=True)
        recorded["seeds"][str(seed)] = entry
    recorded["seeds"] = dict(sorted(recorded["seeds"].items(), key=lambda item: int(item[0])))
    output.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
