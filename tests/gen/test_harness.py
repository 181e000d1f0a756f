"""Unit tests for the differential harness and faulty-program classification.

The deadlock-classification tests rely on the suite-wide per-test
timeout (tests/conftest.py) as their hang guard: a kernel that loses
its deadlock detection would hit that timeout, not wedge CI.
"""

import pytest

from repro.gen.generator import (
    FAULT_KINDS,
    generate_faulty_program,
    generate_program,
)
from repro.gen.harness import DiffConfig, check_program, classify_faulty, run_case
from repro.ir.builder import ProgramBuilder
from repro.sim import ExecMode, Simulator
from repro.symbolic import Const, Eq, Var

CFG = DiffConfig()


class TestDiffConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            DiffConfig(nprocs=0)
        with pytest.raises(ValueError):
            DiffConfig(tolerance_pct=-1.0)


class TestValidPrograms:
    def test_generated_programs_pass(self):
        for seed in range(15):
            verdict = check_program(generate_program(seed), CFG)
            assert verdict.ok, f"seed {seed}: {verdict.failure}: {verdict.detail}"
            assert verdict.err_de is not None and verdict.err_de >= 0.0
            assert verdict.err_am is not None and verdict.err_am >= 0.0

    def test_error_structure_enforced(self):
        """An impossible tolerance turns noise inversions into failures."""
        strict = DiffConfig(tolerance_pct=0.0, check_replay=False)
        verdicts = [
            run_case(gp.program, gp.inputs, strict, seed=gp.seed, pattern=gp.pattern)
            for gp in (generate_program(s) for s in range(30))
        ]
        inverted = [v for v in verdicts if v.failure == "error_structure"]
        # Noise makes AM beat DE on some samples; with zero slack the
        # harness must flag at least one of them in a 30-seed sweep.
        assert inverted, "expected at least one noise-driven inversion"

    def test_verdict_record_is_json_safe(self):
        import json

        verdict = check_program(generate_program(0), CFG)
        json.dumps(verdict.to_record())

    def test_references_run_on_the_interpreter(self, monkeypatch):
        """Under ``--backend compiled`` the measured, DE and AM references
        (and their replays) run on the interpreter by name, not on the
        default, which compiles; only the differential re-runs compile."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ran = []
        init = Simulator.__init__

        def recording(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            ran.append((sim.mode, sim.backend))

        monkeypatch.setattr(Simulator, "__init__", recording)
        gp = generate_program(0)
        verdict = run_case(gp.program, gp.inputs, DiffConfig(backend="compiled"), seed=gp.seed)
        assert verdict.ok, verdict.detail
        # the differential re-runs DE, then AM after its calibration run
        reference, differential = ran[:-3], ran[-3:]
        assert {mode for mode, _ in reference} == set(ExecMode)
        assert {backend for _, backend in reference} == {"interpreted"}
        assert differential == [(ExecMode.DE, "compiled"), (ExecMode.MEASURED, "compiled"),
                                (ExecMode.AM, "compiled")]

    def test_deadlocking_program_flagged_not_raised(self):
        b = ProgramBuilder("orphan_recv")
        b.array("buf", size=64, itemsize=8)
        with b.if_(Eq(Var("myid"), Const(0))):
            b.recv(source=Const(1), nbytes=Const(64), tag=1, array="buf")
        verdict = run_case(b.build(), {}, DiffConfig(check_replay=False))
        assert not verdict.ok
        assert verdict.failure == "deadlock"


class TestFaultyClassification:
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_each_kind_classified(self, kind):
        for seed in range(4):
            gp = generate_faulty_program(seed, kind=kind)
            verdict = classify_faulty(gp, CFG)
            assert verdict.ok, f"{kind} seed {seed}: {verdict.failure}: {verdict.detail}"

    def test_check_program_dispatches_faulty(self):
        gp = generate_faulty_program(2, kind="circular_wait")
        assert gp.expect == "deadlock"
        verdict = check_program(gp, CFG)
        assert verdict.ok

    def test_valid_program_misclassified_as_faulty(self):
        """A healthy program wearing a 'deadlock' expectation must fail."""
        import dataclasses

        gp = generate_program(4)
        dishonest = dataclasses.replace(gp, expect="deadlock", faulty="circular_wait")
        verdict = classify_faulty(dishonest, CFG)
        assert not verdict.ok
        assert verdict.failure == "misclassified"
