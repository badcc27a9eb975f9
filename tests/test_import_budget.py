"""Importing the package, or a default interval, must not load scipy or networkx.

Every ``python -m repro`` process imports the package before doing any
work, so a module-level ``import scipy...`` or ``import networkx`` anywhere
under ``src/repro`` costs every command (``repro list`` included) about a
second. Those imports live inside the functions that use them; this test
keeps them there.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The default intervals (16 replications: df 15; 20 batches: df 19) must
# take their t quantile from the pinned table, not from scipy.
_PROBE = (
    "import repro, repro.cli, repro.runner, repro.experiments, repro.analysis, "
    "repro.markov, repro.sim\n"
    "from repro.sim import BatchMeans, confidence_interval\n"
    "confidence_interval([float(i % 5) for i in range(16)])\n"
    "batches = BatchMeans(num_batches=20)\n"
    "for i in range(200):\n"
    "    batches.record(float(i % 7))\n"
    "batches.interval()\n"
    "import sys\n"
    "heavy = sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx'))\n"
    "print('\\n'.join(heavy))\n"
)


def test_package_import_and_default_intervals_load_no_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert loaded == [], f"importing repro loaded {loaded[:10]}"
