"""Start-up cost: importing the package and its CLI leaves scipy and
networkx unloaded; the functions that need them import them on call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PROBE = """
import json, sys
import repro, repro.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))))
"""


def test_import_leaves_scipy_and_networkx_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
