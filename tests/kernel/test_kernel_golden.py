"""Frozen lowered source of every shipped application.

For each app of :data:`repro.apps.APPS` the golden file holds, for the
original program, its timer version
(:func:`~repro.codegen.generate_instrumented`) and its simplified
program (:func:`~repro.codegen.compile_program`), the SHA-256 of the
module :func:`~repro.kernel.lower.lower_program` emits, once plain and
once as the measure variant.  A program that cannot lower records the
:class:`~repro.kernel.UnsupportedConstructError` message instead.  Any
change to how expressions or statements are emitted must leave every
entry unchanged.

Regenerate the file only for a deliberate, documented change of the
generated kernels::

    PYTHONPATH=src python tests/kernel/test_kernel_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps import APPS
from repro.codegen import compile_program, generate_instrumented
from repro.kernel import UnsupportedConstructError, lower_program

GOLDEN = Path(__file__).with_name("kernel_golden.json")


def _lowered(program, measure: bool) -> dict:
    try:
        source = lower_program(program, measure).source
    except UnsupportedConstructError as exc:
        return {"refused": str(exc)}
    return {"source_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest()}


def kernel_digests(app: str) -> dict:
    """The six lowered modules (or refusals) of *app*, freshly built."""
    program = APPS[app][0]()
    programs = {
        "original": program,
        "timer": generate_instrumented(program),
        "simplified": compile_program(program).simplified,
    }
    return {
        kind: {variant: _lowered(prog, variant == "measure") for variant in ("plain", "measure")}
        for kind, prog in programs.items()
    }


@pytest.mark.parametrize("app", sorted(APPS))
def test_lowered_source_is_frozen(app):
    golden = json.loads(GOLDEN.read_text())
    assert kernel_digests(app) == golden[app]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    doc = {app: kernel_digests(app) for app in sorted(APPS)}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
