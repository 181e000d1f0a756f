"""The compiler driver: condense ⇄ slice to fixpoint, then emit code.

Condensation and slicing are mutually dependent: the slicing criterion
comes from the condensed graph's retained control flow and scaling
functions, while a slice that needs the *output* of a computational
task forces that task to stay directly executed (un-condensed).  The
driver iterates the two passes, pinning newly-required tasks, until the
pin set is stable — it grows monotonically, so termination is bounded
by the number of computational tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.interp import BranchProfile
from ..ir.nodes import Program
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..obs.spans import TRACER
from ..slicing.slicer import SliceResult, slice_program
from ..stg.condense import CondensePlan, condense, merged_directives, profiled_probabilities
from .simplify import generate_simplified

__all__ = ["CompiledProgram", "compile_program"]

_log = get_logger("codegen")


@dataclass(frozen=True)
class CompiledProgram:
    """The compiler's simplified program for one application (Fig. 2).

    The other output of Fig. 2, the timer version, is
    :func:`~repro.codegen.generate_instrumented`, which calibration
    (:func:`repro.measure.measure_wparams`) keeps on the program.
    """

    original: Program
    plan: CondensePlan
    slice: SliceResult
    simplified: Program  # the delay-call version run by MPI-SIM-AM

    @property
    def w_param_names(self) -> tuple[str, ...]:
        """The task-time coefficients the simplified program consumes."""
        return self.plan.w_params()

    def summary(self) -> str:
        """Human-readable account of what the compiler did."""
        lines = [f"compiled {self.original.name}:"]
        lines.append(f"  {len(self.plan.regions)} condensed region(s):")
        for r in self.plan.regions:
            lines.append(f"    {r.name}: cost = {r.cost}")
        lines.append(f"  slicing criterion: {sorted(self.slice.criterion)}")
        lines.append(f"  retained executable statements: {len(self.slice.retained_sids)}")
        if self.slice.pinned_blocks:
            lines.append(f"  pinned (directly executed) tasks: {sorted(self.slice.pinned_blocks)}")
        if self.plan.eliminated_branches:
            lines.append(
                f"  statistically eliminated branches: {sorted(set(self.plan.eliminated_branches))}"
            )
        dropped = set(self.original.arrays) - set(self.simplified.arrays)
        lines.append(f"  arrays eliminated: {sorted(dropped)}")
        return "\n".join(lines)


def compile_program(
    program: Program,
    profile: BranchProfile | None = None,
    directives: dict[int, float] | None = None,
    max_iterations: int = 32,
    eliminate_dead_data: bool = True,
) -> CompiledProgram:
    """Run the full compiler pipeline on *program*.

    ``profile`` supplies branch-taken probabilities for statistically
    eliminated data-dependent branches (collected by a profiling run —
    typically the calibration run itself); ``directives`` overrides
    probabilities per branch statement id (the paper's user-directive
    approach).

    The result is kept on *program* (:meth:`~repro.ir.nodes.Program.
    derived`) under its exact compiler input: the last two arguments,
    the merged directives, and the probabilities condensation may read
    from *profile* — those of the data-dependent branches no directive
    covers.  Profiles that agree there share one :class:`CompiledProgram`.
    """
    merged = merged_directives(program, directives)
    key = (
        "compiled", max_iterations, eliminate_dead_data, frozenset(merged.items()),
        profiled_probabilities(program, profile, merged),
    )
    return program.derived(key, lambda p: _compile(
        p, profile, directives, max_iterations, eliminate_dead_data,
    ))


def _compile(program, profile, directives, max_iterations, eliminate_dead_data):
    with TRACER.span("codegen.compile", program=program.name) as span:
        pinned: frozenset[int] = frozenset()
        for iteration in range(1, max_iterations + 1):
            plan = condense(program, profile, directives, pinned)
            sl = slice_program(program, plan)
            new_pinned = pinned | sl.pinned_blocks
            if new_pinned == pinned:
                break
            pinned = new_pinned
        else:
            raise RuntimeError(
                f"{program.name}: condense/slice fixpoint did not converge "
                f"in {max_iterations} iterations"
            )
        simplified = generate_simplified(program, plan, sl, eliminate_dead_data)
        span.set(
            iterations=iteration, regions=len(plan.regions),
            pinned=len(sl.pinned_blocks), retained=len(sl.retained_sids),
        )
    _log.debug(
        "compiled %s: %d fixpoint iteration(s), %d region(s), %d pinned task(s)",
        program.name, iteration, len(plan.regions), len(sl.pinned_blocks),
    )
    if METRICS.enabled:
        METRICS.counter("codegen_compiles_total", "compiler pipeline runs").inc(
            program=program.name
        )
        METRICS.histogram(
            "codegen_fixpoint_iterations", "condense/slice iterations to converge"
        ).observe(iteration, program=program.name)
    return CompiledProgram(
        original=program,
        plan=plan,
        slice=sl,
        simplified=simplified,
    )
