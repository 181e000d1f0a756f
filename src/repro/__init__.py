"""repro — Compiler-Supported Simulation of Highly Scalable Parallel Applications.

A production-quality reproduction of Adve, Bagrodia, Deelman, Phan &
Sakellariou (SC 1999): the MPI-Sim direct-execution parallel simulator
integrated with dhpf-style compiler support — static task graphs,
condensation with symbolic scaling functions, program slicing and
simplified-code generation — enabling simulation of message-passing
applications on target systems of up to 10,000 processors.

Quick start::

    from repro.apps import build_sweep3d, sweep3d_inputs
    from repro.machine import IBM_SP
    from repro.workflow import ModelingWorkflow

    wf = ModelingWorkflow(build_sweep3d(), IBM_SP,
                          calib_inputs=sweep3d_inputs(48, 48, 64, 16),
                          calib_nprocs=16)
    am = wf.run_am(sweep3d_inputs(96, 96, 64, 64), nprocs=64)
    print(am.elapsed, am.memory)

Package map (one subpackage per subsystem, see DESIGN.md).  Each loads
on first use: ``import repro`` imports none of them, and ``repro.sim``
or ``from repro import Simulator`` imports what that name needs.

====================  =====================================================
``repro.symbolic``    symbolic expressions, process sets, rank mappings
``repro.machine``     target/host machine models (IBM SP, Origin 2000)
``repro.ir``          message-passing program IR + interpreter
``repro.mpi``         virtual MPI API and message matching
``repro.sim``         the discrete-event simulation kernel (MPI-Sim)
``repro.stg``         static task graph: synthesis, condensation, DOT export
``repro.slicing``     program slicing
``repro.codegen``     simplified / instrumented program generation
``repro.measure``     w_i measurement and parameter files
``repro.apps``        Sweep3D, NAS SP, Tomcatv, SAMPLE; the app registry
``repro.workflow``    the Fig. 2 pipeline, validation, reporting
``repro.parallel``    host-machine performance and memory-feasibility model
``repro.hpf``         mini-HPF front-end (the dhpf substrate)
``repro.analytic``    pure-analytic predictor (POEMS modeling corner)
``repro.obs``         observability: spans, metrics, Perfetto, analyses
====================  =====================================================
"""

import importlib
import sys
import types

__version__ = "1.0.0"


class _KeepExports(types.ModuleType):
    """A package that exports a name its own submodule also has.

    The import system binds every submodule it loads on its package, so
    loading ``repro.obs.critical_path`` would hide the function
    ``repro.obs.critical_path`` before its first use; that binding is
    skipped.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and name in self._shadowed:
            return
        super().__setattr__(name, value)


def _lazy_package(package: str, submodules=(), names=None):
    """Resolve *package*'s public names on first use (PEP 562).

    *submodules* are exported as themselves; *names* maps a module,
    relative to *package* (``".spans"``, ``"..api"``), to the names the
    package re-exports from it.  Returns ``__all__`` and the module's
    ``__getattr__`` and ``__dir__``: the first lookup of a name imports
    its module and stores the value in the package's namespace, so every
    later lookup is a plain attribute hit.
    """
    origin = {name: "." + name for name in submodules}
    shadowed = set()  # names exported from the submodule of the same name
    for module, exported in (names or {}).items():
        origin.update(dict.fromkeys(exported, module))
        shadowed.update(name for name in exported if module == "." + name)
    pkg = sys.modules[package]
    namespace = vars(pkg)
    if shadowed:
        pkg._shadowed = shadowed
        pkg.__class__ = _KeepExports

    def __getattr__(name):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if name not in submodules:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_package(
    __name__,
    submodules=(
        "symbolic", "machine", "ir", "mpi", "sim", "stg", "slicing", "codegen",
        "measure", "apps", "workflow", "parallel", "hpf", "analytic", "obs",
    ),
    names={
        ".sim": ("Simulator", "ExecMode"),
        ".codegen": ("compile_program",),
        ".workflow": ("ModelingWorkflow", "validate"),
        ".machine": ("IBM_SP", "ORIGIN_2000", "get_machine"),
    },
)
__all__.append("__version__")
