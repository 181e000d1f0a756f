"""Start-up cost: what each entry point loads.

``import repro`` loads no subpackage, the parser alone loads only
``repro`` and ``repro.cli``, the commands that only read or compile a
program load neither the campaign runner nor the simulator, and the
commands that simulate leave the modules they never run unloaded.  scipy
loads only inside the functions that call it, and networkx not at all.
Every case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: the packages whose public names resolve on first use
LAZY = ("repro", "repro.obs", "repro.workflow", "repro.sim", "repro.machine", "repro.stg")

#: what a simulating command never runs
NEVER_ON_A_RUN = {
    "repro.analytic", "repro.hpf", "repro.mpi", "repro.parallel", "repro.gen",
    "repro.obs.critical_path", "repro.obs.scaling", "repro.obs.comm_matrix",
}


def loaded_by(code: str, *args: str, cwd=None) -> set[str]:
    """The modules loaded by running *code* with *args*; *code* must end
    by printing ``sorted(sys.modules)`` as JSON."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


PRINT_MODULES = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""

#: ``python -m repro ARGV`` as ``-m`` runs it
MAIN = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
"""

#: imports every module of the package (``__main__`` would run the CLI)
EVERY_MODULE = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
"""


def loaded_by_cli(*argv: str, cwd=None) -> set[str]:
    return loaded_by(MAIN + PRINT_MODULES, json.dumps(argv), cwd=cwd)


def repro_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "repro"}


def test_import_repro_loads_no_subpackage():
    modules = loaded_by("import repro" + PRINT_MODULES)
    assert repro_modules(modules) == {"repro"}


def test_import_leaves_scipy_and_networkx_unloaded():
    """Not even importing every module loads them."""
    modules = loaded_by(EVERY_MODULE + PRINT_MODULES)
    assert "repro.obs.critical_path" in modules
    assert not {m for m in modules if m.split(".")[0] in ("scipy", "networkx")}


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["campaign", "--help"]],
                         ids=" ".join)
def test_the_parser_loads_only_the_cli(argv):
    modules = loaded_by_cli(*argv)
    assert repro_modules(modules) == {"repro", "repro.cli"}
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", [["apps"], ["compile", "sample_wavefront"],
                                  ["stg", "sample_wavefront"]], ids=" ".join)
def test_reading_a_program_loads_no_runner_or_simulator(argv):
    """The app registry resolves apps: these commands build programs
    without loading the campaign runner or the simulator."""
    modules = loaded_by_cli(*argv)
    assert "repro.apps" in modules
    assert not {"repro.workflow", "repro.workflow.campaign", "repro.sim.engine"} & modules


def test_a_campaign_cell_loads_nothing_it_never_runs(tmp_path):
    grid = {"name": "one", "machine": "testing", "app": "sample_nearest_neighbor",
            "modes": ["am"], "nprocs": [4], "calib_procs": 2,
            "inputs": {"grain": 1000, "msg": 512, "iters": 2}}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    modules = loaded_by_cli("campaign", "--grid", "grid.json", "--out", "out",
                            "--jobs", "1", cwd=tmp_path)
    assert "repro.workflow.campaign" in modules
    assert not NEVER_ON_A_RUN & modules
    assert (tmp_path / "out" / "results.csv").exists()


def test_a_service_miss_loads_nothing_it_never_runs(tmp_path):
    modules = loaded_by(f"""
from repro.api import RunRequest
from repro.serve import SimulationService
from repro.store import ResultStore

store = ResultStore({str(tmp_path)!r})
run = RunRequest(app="sample_nearest_neighbor", mode="am", nprocs=4,
                 inputs=(("iters", 2),))
out = SimulationService(store, jobs=1).handle_run(
    {{"run": run.to_json(), "machine": "testing", "calib_procs": 2}})
store.close()
assert out["cached"] is False and out["result"]["outcome"] == "ok", out
""" + PRINT_MODULES)
    assert "repro.workflow.campaign" in modules
    assert not NEVER_ON_A_RUN & modules


#: each lazy package's ``__all__`` names, resolved through the package
EVERY_NAME = f"""
import importlib
values = {{(pkg, name): getattr(importlib.import_module(pkg), name)
          for pkg in {LAZY!r} for name in importlib.import_module(pkg).__all__}}
"""

#: the names whose value no module holds, that the package's attribute
#: or ``dir()`` disagrees with
CHECK_NAMES = """
import json, sys
leaves = [m for name, m in sys.modules.items()
          if name.startswith("repro.") and not hasattr(m, "__path__")]
wrong = []
for (pkg, name), value in values.items():
    package = sys.modules[pkg]
    if pkg == "repro" and isinstance(value, type(sys)):  # a subpackage
        direct = value is sys.modules.get("repro." + name)
    else:
        direct = any(vars(m).get(name, wrong) is value for m in leaves)
    if not direct or getattr(package, name) is not value or name not in dir(package):
        wrong.append(f"{pkg}.{name}")
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("modules_first", [False, True], ids=["names-first", "modules-first"])
def test_every_exported_name_is_its_modules_object(modules_first):
    """Each name of each lazy package's ``__all__`` is the object its
    module holds, is listed by ``dir()``, and stays so whether the
    package or the module was imported first."""
    first, then = (EVERY_MODULE, EVERY_NAME) if modules_first else (EVERY_NAME, EVERY_MODULE)
    proc = subprocess.run([sys.executable, "-c", first + then + CHECK_NAMES], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
