"""Frozen outputs of the compiler for every shipped application.

For each app of :data:`repro.apps.APPS` the golden file holds the
SHA-256 of the printed IR of four programs: the original, its timer version
(:func:`~repro.codegen.generate_instrumented`), and its simplified
program (:func:`~repro.codegen.compile_program`), once with no branch
profile and once with the profile of a 4-rank calibration on the
IBM SP at the app's default inputs.  Any change to how programs are
built, copied, numbered or cached must leave every digest unchanged.

Regenerate the digests only for a deliberate, documented change of
compiler output::

    PYTHONPATH=src python tests/codegen/test_compile_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps import APPS
from repro.codegen import compile_program, generate_instrumented
from repro.ir.printer import format_program
from repro.machine import IBM_SP
from repro.measure import measure_wparams

GOLDEN = Path(__file__).with_name("compile_golden.json")
CALIB_PROCS = 4  # nas_sp needs a square count


def _digests(program) -> dict:
    text = format_program(program)
    return {"ir_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def compile_digests(app: str) -> dict:
    """The four programs' digests for *app*, freshly built."""
    builder, default_inputs = APPS[app]
    program = builder()
    calibration = measure_wparams(
        program, default_inputs(CALIB_PROCS), CALIB_PROCS, IBM_SP, seed=0
    )
    return {
        "original": _digests(program),
        "timer": _digests(generate_instrumented(program)),
        "simplified": _digests(compile_program(program).simplified),
        "simplified_calibrated": _digests(
            compile_program(program, profile=calibration.profile).simplified
        ),
    }


@pytest.mark.parametrize("app", sorted(APPS))
def test_compiler_output_is_frozen(app):
    golden = json.loads(GOLDEN.read_text())
    assert compile_digests(app) == golden[app]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    doc = {app: compile_digests(app) for app in sorted(APPS)}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
