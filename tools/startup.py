#!/usr/bin/env python
"""Which modules each ``repro`` entry point loads at start-up.

Runs ``python -m repro ARGS`` in a fresh interpreter for ``--version``,
``--help``, ``campaign --help`` and a one-cell campaign (SAMPLE
nearest-neighbour, ``am`` at 4 ranks on the testing machine), against
the repository's ``src/``, and prints one JSON line: per entry point,
the ``repro`` modules loaded when it exits, how many, and whether numpy
loaded::

    python tools/startup.py

The lists come from ``sys.modules``: ``-X importtime`` leaves out a
module that a package's ``__getattr__`` loads through
``importlib.import_module``.  ``tests/test_startup.py`` pins what these
lists must leave out; this probe records them whole.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GRID = {"name": "startup", "machine": "testing", "app": "sample_nearest_neighbor",
        "modes": ["am"], "nprocs": [4], "calib_procs": 2,
        "inputs": {"grain": 1000, "msg": 512, "iters": 2}}

ENTRY_POINTS = {
    "version": ["--version"],
    "help": ["--help"],
    "campaign_help": ["campaign", "--help"],
    "campaign_cell": ["campaign", "--grid", "grid.json", "--out", "out", "--jobs", "1"],
}

#: ``python -m repro ARGV`` as ``-m`` runs it, then the loaded modules
MAIN = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print(json.dumps(sorted(sys.modules)))
"""


def loaded(argv: list[str], cwd: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", MAIN, json.dumps(argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "grid.json").write_text(json.dumps(GRID))
        for name, argv in ENTRY_POINTS.items():
            modules = loaded(argv, tmp)
            ours = [m for m in modules if m.split(".")[0] == "repro"]
            doc[name] = {"argv": argv, "repro_modules": len(ours),
                         "numpy": "numpy" in modules, "modules": ours}
    doc["python"] = platform.python_version()
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
