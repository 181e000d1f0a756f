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

__all__ = [
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
