"""The campaign layers import without numpy.

Nothing on the simulation or campaign path needs numpy, and importing it costs
about 0.1 s and 15 MB of RSS in every fleet worker and benchmark process.  The
import runs in a fresh interpreter so modules the rest of the suite loaded
cannot mask a regression.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_campaign_import_does_not_load_numpy():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import repro.campaign.executor, repro.campaign.coordinator\n"
        "assert 'numpy' not in sys.modules, sorted(\n"
        "    name for name in sys.modules if name.startswith('numpy'))[:5]\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
