"""The paper's benchmark applications, written in the program IR.

Sweep3D (ASCI transport kernel), NAS SP (NPB 2.3), Tomcatv (SPEC92) and
SAMPLE (the paper's synthetic kernel).
"""

from .common import (
    block_extent,
    factor2d,
    grid_coords,
    neighbor_exchange_1d,
    square_side,
    sweep_guards,
)
from .nas_sp import (
    SP_CLASSES,
    build_nas_sp,
    build_nas_sp_multipartition,
    sp_inputs,
    sp_multi_inputs,
)
from .sample import SAMPLE_PATTERNS, build_sample, sample_inputs_for_ratio
from .sweep3d import (
    FIXUP_PROBABILITY,
    build_sweep3d,
    sweep3d_inputs,
    sweep3d_per_proc_inputs,
)
from .tomcatv import build_tomcatv, tomcatv_inputs


def _sample_builder(pattern):
    return lambda: build_sample(pattern)


def _hpf_tomcatv():
    from ..hpf import compile_hpf, tomcatv_hpf

    return compile_hpf(tomcatv_hpf())


#: name -> (program builder, default inputs for a given nprocs): the
#: applications the CLI, campaigns and ``repro serve`` resolve by name
APPS = {
    "tomcatv": (build_tomcatv, lambda p: tomcatv_inputs(512, itmax=5)),
    "tomcatv_hpf": (_hpf_tomcatv, lambda p: {"n": 512, "itmax": 5}),
    "sweep3d": (build_sweep3d, lambda p: sweep3d_inputs(64, 64, 64, p, kb=4, ab=2, niter=2)),
    "nas_sp": (build_nas_sp, lambda p: sp_inputs("A", p, niter=3)),
    "sample_wavefront": (
        _sample_builder("wavefront"),
        lambda p: {"grain": 100000, "msg": 8192, "iters": 10},
    ),
    "sample_nearest_neighbor": (
        _sample_builder("nearest_neighbor"),
        lambda p: {"grain": 100000, "msg": 8192, "iters": 10},
    ),
}

#: builder -> the program it built: each app is built once per process
_BUILT: dict = {}


def resolve_app(app: str):
    """``(program, default_inputs)`` of *app*: its :data:`APPS` entry, built once.

    The resolver of the CLI, the campaign runner and ``repro serve``.
    Each app's program is built once per process, keyed by its builder,
    and every caller shares that one object, with its per-expression
    evaluators and what it keeps of its derivations: timer version,
    compiled forms and lowered kernels.  Sharing is safe because the IR is
    immutable (:mod:`repro.ir.nodes`): instrumenting, compiling and
    minimizing build new programs.  An app :data:`APPS` does not name
    raises :class:`KeyError`.
    """
    builder, default_inputs = APPS[app]
    program = _BUILT.get(builder)
    if program is None:
        program = _BUILT[builder] = builder()
    return program, default_inputs


__all__ = [
    "APPS",
    "resolve_app",
    "build_sweep3d",
    "sweep3d_inputs",
    "sweep3d_per_proc_inputs",
    "FIXUP_PROBABILITY",
    "build_nas_sp",
    "build_nas_sp_multipartition",
    "sp_inputs",
    "sp_multi_inputs",
    "SP_CLASSES",
    "build_tomcatv",
    "tomcatv_inputs",
    "build_sample",
    "sample_inputs_for_ratio",
    "SAMPLE_PATTERNS",
    "factor2d",
    "square_side",
    "grid_coords",
    "block_extent",
    "neighbor_exchange_1d",
    "sweep_guards",
]
