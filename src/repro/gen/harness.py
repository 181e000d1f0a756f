"""The differential harness: measured vs DE vs AM on one generated program.

For a valid scenario the harness runs all three estimators and checks
every invariant the paper and the kernel promise:

* **Error structure** — percentage errors against measurement satisfy
  ``err_AM >= err_DE >= 0`` within a noise tolerance, and neither
  simulator strays beyond its ceiling (DE only differs from measurement
  by modeled noise; AM adds the calibration approximation).
* **Deterministic replay** — re-running every estimator under the same
  seed reproduces byte-identical statistics (the determinism contract
  in ``docs/robustness.md``, now enforced program-by-program).
* **Conservation** — across each completed fault-free run: every
  message sent is received, virtual time is non-negative and monotone
  (``elapsed == max(finish_time)``), and the kernel executed events.

For an intentionally *faulty* scenario, :func:`classify_faulty` instead
demands the kernel diagnose the bug — a :class:`DeadlockError` whose
report names the broken idiom (unmatched sends, wait-chain cycles,
collective stragglers) or a :class:`CollectiveMismatchError` — rather
than completing, crashing or hanging.

Any violated invariant yields a :class:`DiffVerdict` with ``ok=False``
and a machine-readable ``failure`` kind — the unit the auto-minimizer
(:mod:`repro.gen.minimize`) shrinks against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..ir.nodes import Program, walk
from ..machine import get_machine
from ..sim.engine import CollectiveMismatchError, DeadlockError, SimResult
from ..workflow.pipeline import ModelingWorkflow
from .generator import GeneratedProgram

__all__ = ["DiffConfig", "DiffVerdict", "check_program", "classify_faulty", "run_case"]

#: machine-readable failure kinds a verdict can carry
FAILURES = (
    "deadlock",          # valid program deadlocked (or faulty one did not)
    "mismatch",          # collective mismatch on a valid program
    "exception",         # any other crash inside the pipeline
    "error_structure",   # err_AM < err_DE beyond tolerance
    "de_error",          # DE strayed beyond its noise ceiling
    "am_error",          # AM strayed beyond its approximation ceiling
    "nondeterministic",  # same seed, different stats
    "conservation",      # messages or virtual time not conserved
    "misclassified",     # faulty program not diagnosed as expected
    "backend_divergence",  # compiled backend disagrees with interpreted
)


@dataclass(frozen=True)
class DiffConfig:
    """Thresholds and run configuration for the differential harness.

    ``tolerance_pct`` is the slack (in percentage points) on the
    ``err_AM >= err_DE`` ordering: measurement noise moves both errors
    by a few points per sample, so the paper's structural claim only
    holds beyond the noise floor.  The ceilings are deliberately loose —
    they exist to catch *wild* mispredictions (a broken slicing pass,
    a condensation bug), not to re-litigate the paper's error tables.
    """

    nprocs: int = 4
    calib_nprocs: int = 4
    machine: str = "IBM-SP"
    tolerance_pct: float = 15.0
    max_err_de_pct: float = 35.0
    max_err_am_pct: float = 60.0
    check_replay: bool = True
    #: "interpreted" checks one kernel; "compiled"/"auto" additionally
    #: re-runs DE and AM on that backend and demands byte-identical
    #: statistics (failure kind ``backend_divergence``).
    backend: str = "interpreted"

    def __post_init__(self):
        if self.nprocs < 1 or self.calib_nprocs < 1:
            raise ValueError("nprocs and calib_nprocs must be >= 1")
        if self.backend not in ("interpreted", "compiled", "auto"):
            raise ValueError(
                f"backend must be 'interpreted', 'compiled' or 'auto', got {self.backend!r}"
            )
        for name in ("tolerance_pct", "max_err_de_pct", "max_err_am_pct"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DiffVerdict:
    """The harness's judgement of one scenario."""

    seed: int
    pattern: str
    n_stmts: int
    ok: bool
    failure: str | None = None
    detail: str = ""
    err_de: float | None = None
    err_am: float | None = None
    elapsed_measured: float | None = None
    elapsed_de: float | None = None
    elapsed_am: float | None = None
    expect: str = "ok"

    def to_record(self) -> dict:
        """Flat JSON-safe form (fuzz journal / report rows)."""
        return {
            "seed": self.seed,
            "pattern": self.pattern,
            "n_stmts": self.n_stmts,
            "ok": self.ok,
            "failure": self.failure,
            "detail": self.detail,
            "err_de": self.err_de,
            "err_am": self.err_am,
            "elapsed_measured": self.elapsed_measured,
            "elapsed_de": self.elapsed_de,
            "elapsed_am": self.elapsed_am,
            "expect": self.expect,
        }


def _stats_fingerprint(result: SimResult) -> str:
    """Canonical byte string of a run's complete statistics."""
    return json.dumps(
        [p.to_dict() for p in result.stats.procs], sort_keys=True, separators=(",", ":")
    )


def _conservation_violation(result: SimResult) -> str | None:
    """Check fault-free kernel invariants on one completed run."""
    stats = result.stats
    sent = sum(p.messages_sent for p in stats.procs)
    received = sum(p.messages_received for p in stats.procs)
    if sent != received:
        return f"message conservation violated: {sent} sent != {received} received"
    for p in stats.procs:
        if not (p.finish_time >= 0.0):
            return f"rank {p.rank} finished at negative virtual time {p.finish_time}"
        if p.events < 0:
            return f"rank {p.rank} reports negative event count {p.events}"
    if stats.elapsed != max((p.finish_time for p in stats.procs), default=0.0):
        return "elapsed is not the maximum rank finish time"
    if stats.total_events <= 0:
        return "run executed no kernel events"
    return None


def _workflow(
    program: Program, inputs: dict, config: DiffConfig, seed: int,
    backend: str | None = None,
) -> ModelingWorkflow:
    return ModelingWorkflow(
        program,
        get_machine(config.machine),
        calib_inputs=dict(inputs),
        calib_nprocs=config.calib_nprocs,
        seed=seed,
        backend=backend,
    )


def _backend_divergence(
    program: Program, inputs: dict, config: DiffConfig, seed: int,
    de: SimResult, am: SimResult,
) -> str | None:
    """Re-run DE and AM on the configured backend; describe any divergence.

    Two things count: different statistics bytes, or the compiled path
    crashing on a program the interpreted kernel just completed.  A
    strict ``compiled`` backend refusing a non-lowerable program is not
    a divergence — ``auto`` covers that program via its fallback.
    """
    try:
        wf = _workflow(program, inputs, config, seed, backend=config.backend)
        de_c = wf.run_de(inputs, config.nprocs)
        am_c = wf.run_am(inputs, config.nprocs)
    except ValueError as exc:
        if config.backend == "compiled" and "cannot run this program" in str(exc):
            return None
        return f"{config.backend} backend crashed: {type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - crash parity is the invariant
        return f"{config.backend} backend crashed: {type(exc).__name__}: {exc}"
    if _stats_fingerprint(de_c) != _stats_fingerprint(de):
        return "DE statistics differ between interpreted and compiled backends"
    if _stats_fingerprint(am_c) != _stats_fingerprint(am):
        return "AM statistics differ between interpreted and compiled backends"
    return None


def _n_stmts(program: Program) -> int:
    return sum(1 for _ in walk(program.body))


def check_program(
    scenario: GeneratedProgram, config: DiffConfig | None = None
) -> DiffVerdict:
    """Run one scenario through the harness and return its verdict.

    Dispatches on the scenario's expectation: valid programs go through
    the three-estimator differential check, faulty ones through
    :func:`classify_faulty`.
    """
    config = config if config is not None else DiffConfig()
    if scenario.expect != "ok":
        return classify_faulty(scenario, config)
    return run_case(
        scenario.program, scenario.inputs, config,
        seed=scenario.seed, pattern=scenario.pattern, expect="ok",
    )


def run_case(
    program: Program,
    inputs: dict,
    config: DiffConfig,
    seed: int = 0,
    pattern: str = "",
    expect: str = "ok",
) -> DiffVerdict:
    """The valid-program differential check (used by fuzzing, regression
    replay and the minimizer's predicate alike)."""
    n = _n_stmts(program)

    def fail(kind: str, detail: str, **kw) -> DiffVerdict:
        return DiffVerdict(
            seed=seed, pattern=pattern, n_stmts=n, ok=False,
            failure=kind, detail=detail, expect=expect, **kw,
        )

    try:
        # the interpreter is the reference every other backend is held to
        wf = _workflow(program, inputs, config, seed, backend="interpreted")
        measured = wf.run_measured(inputs, config.nprocs, seed=seed + 101)
        de = wf.run_de(inputs, config.nprocs)
        am = wf.run_am(inputs, config.nprocs)
    except DeadlockError as exc:
        head = str(exc).splitlines()[0]
        return fail("deadlock", f"valid program deadlocked: {head}")
    except CollectiveMismatchError as exc:
        return fail("mismatch", f"valid program hit a collective mismatch: {exc}")
    except Exception as exc:  # noqa: BLE001 - the whole point is catching pipeline crashes
        return fail("exception", f"{type(exc).__name__}: {exc}")

    for label, result in (("measured", measured), ("de", de), ("am", am)):
        violation = _conservation_violation(result)
        if violation:
            return fail("conservation", f"{label}: {violation}")

    if measured.elapsed <= 0.0:
        return fail("conservation", "measured run has non-positive elapsed time")
    err_de = 100.0 * abs(de.elapsed - measured.elapsed) / measured.elapsed
    err_am = 100.0 * abs(am.elapsed - measured.elapsed) / measured.elapsed
    errs = {
        "err_de": err_de, "err_am": err_am,
        "elapsed_measured": measured.elapsed,
        "elapsed_de": de.elapsed, "elapsed_am": am.elapsed,
    }
    if err_de > config.max_err_de_pct:
        return fail(
            "de_error",
            f"DE error {err_de:.2f}% exceeds ceiling {config.max_err_de_pct:.2f}%",
            **errs,
        )
    if err_am > config.max_err_am_pct:
        return fail(
            "am_error",
            f"AM error {err_am:.2f}% exceeds ceiling {config.max_err_am_pct:.2f}%",
            **errs,
        )
    if err_am < err_de - config.tolerance_pct:
        return fail(
            "error_structure",
            f"error structure inverted: AM {err_am:.2f}% < DE {err_de:.2f}% "
            f"- tolerance {config.tolerance_pct:.2f}%",
            **errs,
        )

    if config.check_replay:
        try:
            wf2 = _workflow(program, inputs, config, seed, backend="interpreted")
            measured2 = wf2.run_measured(inputs, config.nprocs, seed=seed + 101)
            de2 = wf2.run_de(inputs, config.nprocs)
            am2 = wf2.run_am(inputs, config.nprocs)
        except Exception as exc:  # noqa: BLE001
            return fail("nondeterministic", f"replay crashed: {type(exc).__name__}: {exc}", **errs)
        for label, a, b in (
            ("measured", measured, measured2), ("de", de, de2), ("am", am, am2)
        ):
            if _stats_fingerprint(a) != _stats_fingerprint(b):
                return fail(
                    "nondeterministic",
                    f"{label} replay under the same seed produced different statistics",
                    **errs,
                )

    if config.backend != "interpreted":
        divergence = _backend_divergence(program, inputs, config, seed, de, am)
        if divergence is not None:
            return fail("backend_divergence", divergence, **errs)

    return DiffVerdict(
        seed=seed, pattern=pattern, n_stmts=n, ok=True, expect=expect, **errs
    )


def classify_faulty(
    scenario: GeneratedProgram, config: DiffConfig | None = None
) -> DiffVerdict:
    """Check that a deliberately faulty program is *diagnosed*, not run.

    The DE estimator executes the original program, so it is the one
    whose kernel must classify the bug.  ``expect == "deadlock"``
    demands a :class:`DeadlockError` carrying a report that names the
    broken idiom (kind-specific: unmatched sends for orphan sends,
    wait-chain cycles for circular waits, collective stragglers for
    arity bugs); ``expect == "mismatch"`` demands a
    :class:`CollectiveMismatchError`.
    """
    config = config if config is not None else DiffConfig()
    n = _n_stmts(scenario.program)

    def verdict(ok: bool, failure: str | None = None, detail: str = "") -> DiffVerdict:
        return DiffVerdict(
            seed=scenario.seed, pattern=scenario.pattern, n_stmts=n, ok=ok,
            failure=failure, detail=detail, expect=scenario.expect,
        )

    try:
        wf = _workflow(scenario.program, scenario.inputs, config, scenario.seed)
        wf.run_de(scenario.inputs, config.nprocs)
    except DeadlockError as exc:
        if scenario.expect != "deadlock":
            return verdict(False, "misclassified",
                           f"expected {scenario.expect}, got deadlock")
        report = exc.report
        if report is None:
            return verdict(False, "misclassified", "deadlock raised without a report")
        kind = scenario.faulty
        if kind == "orphan_send" and not report.unmatched_sends and not any(
            w.state == "send" for w in report.blocked
        ):
            return verdict(False, "misclassified",
                           "orphan send not visible in the deadlock report")
        if kind == "circular_wait" and not report.cycles():
            return verdict(False, "misclassified",
                           "no wait-chain cycle in the deadlock report")
        if kind == "collective_arity" and not report.stragglers:
            return verdict(False, "misclassified",
                           "no collective stragglers in the deadlock report")
        return verdict(True)
    except CollectiveMismatchError as exc:
        if scenario.expect != "mismatch":
            return verdict(False, "misclassified",
                           f"expected {scenario.expect}, got mismatch: {exc}")
        return verdict(True)
    except Exception as exc:  # noqa: BLE001
        return verdict(False, "exception", f"{type(exc).__name__}: {exc}")
    return verdict(
        False, "misclassified",
        f"faulty program ({scenario.faulty}) completed without a diagnosis",
    )
