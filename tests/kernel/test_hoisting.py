"""Loop-invariant code motion in the lowered kernels, over generated nests.

The lowering evaluates an operand that no enclosing loop assigns once,
before the outermost such loop, and the statement reads the hoisted
local; an evaluation there that raises is evaluated again in place.
These programs draw two-deep ``For`` nests whose bodies mix invariant and
variant operands (comp block work, delays, message sizes, ``If``
conditions, assignments, inner loop bounds), zero-trip loops, ``If``s on
invariant and always-false conditions, operands that raise (a zero
divisor, ``int()`` of an infinite input, an infinite delay) in a
zero-trip loop, a false branch or on the path taken, inner loops whose
lower bound, upper bound or both raise, and ``Index`` reads
of an array that an ``ArrayAssign`` refills on every outer trip or that
a comp block's kernel writes without naming it.  Every
compiled run, plain, traced and measuring, must equal the interpreter's
stats, trace, collector and branch profile; a run that raises must raise
the same error after the same events, allocations, trace events and
measurements.
"""

import ast
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_sweep3d, sweep3d_inputs
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.ir.interp import BranchProfile, MeasurementCollector
from repro.ir.nodes import DelayStmt
from repro.kernel import clear_cache, lower_program
from repro.machine import IBM_SP
from repro.sim import ExecMode, Simulator
from repro.sim.flightrec import FLIGHT
from repro.symbolic import And, Gt, Index, Lt, Or, Var
from repro.workflow import ModelingWorkflow

NPROCS = 3
A, B, Z, BIG, N, X = (Var(n) for n in ("a", "b", "z", "big", "n", "x"))


@pytest.fixture(autouse=True)
def _fresh():
    clear_cache()
    yield
    clear_cache()
    FLIGHT.disable()
    FLIGHT.reset()


def refill(env, arrays):
    """The outer trip's values: each trip's reads differ from the last's."""
    arr = arrays["arr"]
    arr[:] = (np.arange(len(arr)) + int(env["i"]) * 3 + int(env["myid"]) + int(env["a"])) % 5 + 1


def bump(env, arrays):
    """A comp block's kernel that writes a materialized array no
    statement names as written."""
    arr = arrays["arr"]
    arr[int(env["j"]) % len(arr)] += 1


@st.composite
def operands(draw, scope):
    """An expression over *scope*: invariant leaves (inputs, ``myid``,
    literals) and variant ones (loop variables, ``x``) mixed."""
    def leaf():
        return draw(st.sampled_from([*scope, A, B, myid, 2, 3]))

    e = leaf()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["+", "*", "//"]))
        if op == "+":
            e = e + leaf()
        elif op == "*":
            e = e * leaf()
        else:
            e = e // draw(st.integers(1, 3))
    return e if not isinstance(e, int) else A + e


@st.composite
def conditions(draw, scope):
    """An invariant, variant or never-true condition."""
    kind = draw(st.sampled_from(["invariant", "variant", "false", "compound"]))
    if kind == "invariant":
        return Gt(A + myid, draw(st.integers(0, 4)))
    if kind == "variant":
        return Lt(draw(operands(scope)), draw(st.integers(2, 12)))
    if kind == "false":
        return Lt(A, A)
    return Or.make(And.make(Gt(B, myid), Lt(A, draw(st.integers(1, 5)))), Gt(myid, A + B))


def hazard(b, draw):
    """An operand that raises wherever it is evaluated, if the inputs
    make it: a zero divisor, ``int()`` of an infinite bound, an infinite
    delay."""
    kind = draw(st.sampled_from(["div", "bound", "delay"]))
    if kind == "div":
        b.compute("hz", work=(A + 1) / Z)
    elif kind == "bound":
        with b.loop("k", 1, BIG):
            b.compute("hzk", work=A)
    else:
        b._emit(DelayStmt, BIG * 1e-6, "hz")


@st.composite
def programs(draw):
    b = ProgramBuilder("hoist_prop", params=("a", "b", "z", "big", "n", "salt"))
    b.array("arr", 4, materialize=True)
    b.array("data", 64 * P)
    outer_hi = draw(st.sampled_from([N, A, 2]))
    with b.loop("i", 1, outer_hi):
        b.assign("x", Var("i") * 2 + A)
        refilled = draw(st.booleans())
        if refilled:
            b.array_assign("arr", refill, reads={"i", "myid", "a"}, work=Index.make("arr", 0))
        # i // z and big raise for z = 0 and big = inf: the lower bound's
        # error comes first, as the interpreter evaluates it first
        lo = draw(st.sampled_from([1, A, Var("i") // Z]))
        hi = draw(st.sampled_from([B, lo - 1, Var("i") + 1, 2, BIG]))  # lo - 1: zero trips
        with b.loop("j", lo, hi):
            scope = [Var("i"), Var("j"), X]
            for k in range(draw(st.integers(1, 5))):
                what = draw(st.sampled_from(
                    ["compute", "delay", "comm", "if", "assign", "index", "kernel",
                     "hazard"]))
                if what == "compute":
                    b.compute(f"c{k}", work=draw(operands(scope)), ops_per_iter=3,
                              arrays=("data",))
                elif what == "delay":
                    b._emit(DelayStmt, draw(operands(scope)) * 1e-6, f"d{k}")
                elif what == "comm":
                    size = draw(operands([Var("i"), Var("j")])) * 8
                    b.send(dest=(myid + 1) % P, nbytes=size, tag=k)
                    b.recv(source=(myid - 1 + P) % P, nbytes=size, tag=k)
                elif what == "if":
                    with b.if_(draw(conditions(scope))):
                        if draw(st.booleans()):
                            hazard(b, draw)
                        b.compute(f"t{k}", work=draw(operands(scope)), arrays=("data",))
                    with b.else_():
                        b._emit(DelayStmt, draw(operands(scope)) * 1e-6, f"e{k}")
                elif what == "assign":
                    b.assign("y", draw(operands(scope)))
                    b.compute(f"y{k}", work=Var("y") + 1)
                elif what == "index":
                    b.compute(f"x{k}", work=Index.make("arr", (myid + k) % 4) * (A + 1))
                elif what == "kernel":
                    b.compute(f"k{k}", work=A + 1, reads={"j"}, kernel=bump)
                else:
                    hazard(b, draw)
    inputs = {
        "a": draw(st.integers(0, 3)),
        "b": draw(st.integers(0, 3)),
        "z": draw(st.sampled_from([0, 2])),
        "big": draw(st.sampled_from([3, math.inf])),
        "n": draw(st.integers(0, 2)),
        "salt": 1,
    }
    return b.build(), inputs


def outcome(program, inputs, backend, mode, trace=False, measure=False, flight=False):
    """Everything a run shows: its stats, or its error and the events,
    allocations, trace events and measurements before it."""
    collector = MeasurementCollector() if measure else None
    profile = BranchProfile() if measure else None
    factory = make_factory(program, inputs, collector=collector, profile=profile)
    sim = Simulator(NPROCS, factory, IBM_SP, mode=mode, seed=5, collect_trace=trace,
                    backend=backend)
    assert (sim.backend, sim.backend_fallback_reason) == (backend, None)
    if flight:
        FLIGHT.enable()
    try:
        out = {"stats": sim.run().stats.to_dict(include_procs=True)}
    except Exception as exc:  # the program's own error, on both backends alike
        out = {"error": f"{type(exc).__name__}: {exc}",
               "memory": [sim.memory.rank_bytes(r) for r in range(NPROCS)]}
        if flight:
            out["flight"] = [list(e) for e in FLIGHT.events]
    finally:
        FLIGHT.disable()
        FLIGHT.reset()
    if trace:
        out["trace"] = repr(sim.trace.events)
    if measure:
        out["measured"] = [collector.params(),
                           {t: collector.samples(t) for t in collector.tasks()},
                           profile.to_dict()]
    return json.dumps(out, sort_keys=True, default=repr)


@settings(max_examples=40, deadline=None)
@given(case=programs(), mode=st.sampled_from([ExecMode.DE, ExecMode.MEASURED]))
def test_hoisted_kernels_match_the_interpreter(case, mode):
    program, inputs = case
    for variant in ({}, {"trace": True}, {"measure": True}):
        assert outcome(program, inputs, "compiled", mode, **variant) == \
            outcome(program, inputs, "interpreted", mode, **variant)
    raised = outcome(program, inputs, "interpreted", mode, flight=True)
    if '"error"' in raised:
        assert outcome(program, inputs, "compiled", mode, flight=True) == raised


def test_raising_operand_in_a_zero_trip_loop_is_never_evaluated():
    """The hoisted division by zero raises before the loop; the loop runs
    no trip, so the run finishes, as the interpreter's does."""
    b = ProgramBuilder("hoist_zero_trip", params=("a", "z", "n"))
    with b.loop("i", 1, 2):
        with b.loop("j", 1, N):
            b.compute("hz", work=A / Z)
        b.compute("after", work=A + Var("i"))
    program = b.build()
    inputs = {"a": 1, "z": 0, "n": 0}
    assert "_h" in lower_program(program).source  # the division is hoisted
    for mode in (ExecMode.DE, ExecMode.MEASURED):
        ok = outcome(program, inputs, "interpreted", mode)
        assert '"stats"' in ok
        assert outcome(program, inputs, "compiled", mode) == ok
    raised = outcome(program, {**inputs, "n": 1}, "interpreted", ExecMode.DE, flight=True)
    assert "ZeroDivisionError" in raised
    assert outcome(program, {**inputs, "n": 1}, "compiled", ExecMode.DE, flight=True) == raised


def test_loop_bounds_raise_in_the_interpreters_order():
    """The upper bound is invariant and hoisted, the lower one varies
    with the outer loop; when both raise, the lower bound's error is the
    run's, as in the interpreter, which evaluates it first."""
    b = ProgramBuilder("hoist_bounds", params=("a", "z", "big"))
    with b.loop("i", 1, 2):
        with b.loop("j", Var("i") // Z, BIG):
            b.compute("c", work=A + Var("j"))
    program = b.build()
    inputs = {"a": 1, "z": 0, "big": math.inf}
    assert "_h" in lower_program(program).source  # the upper bound is hoisted
    raised = outcome(program, inputs, "interpreted", ExecMode.DE, flight=True)
    assert "ZeroDivisionError" in raised
    assert outcome(program, inputs, "compiled", ExecMode.DE, flight=True) == raised


def test_a_kernel_may_write_any_materialized_array():
    """A comp block's kernel receives every materialized array, so a read
    of one after it stays in its loop, though no statement names the
    array as written."""
    b = ProgramBuilder("hoist_kernel_write", params=("a",))
    b.array("arr", 4, materialize=True)
    with b.loop("i", 1, 2):
        with b.loop("j", 1, 3):
            b.compute("k", work=A + 1, reads={"j"}, kernel=bump)
            b.compute("x", work=Index.make("arr", 1) * (A + 1))
    program = b.build()
    for mode in (ExecMode.DE, ExecMode.MEASURED):
        assert outcome(program, {"a": 1}, "compiled", mode) == \
            outcome(program, {"a": 1}, "interpreted", mode)


def _innermost_loop(source: str) -> ast.For:
    """The generated function's most deeply nested ``for`` statement."""
    fn = next(n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == "fast_gen")
    best, best_depth = None, -1

    def visit(node, depth):
        nonlocal best, best_depth
        for child in ast.iter_child_nodes(node):
            d = depth + isinstance(child, ast.For)
            if isinstance(child, ast.For) and d > best_depth:
                best, best_depth = child, d
            visit(child, d)

    visit(fn, 0)
    return best


def _calls_outside_handlers(node: ast.AST, name: str) -> list:
    """Calls of *name* under *node*, skipping ``except`` handlers (the
    in-place re-evaluation a hoisted operand falls back to)."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == name):
            found.append(ast.unparse(child))
        found += _calls_outside_handlers(child, name)
    return found


def test_sweep3d_innermost_loop_converts_nothing():
    """Sweep3D's simplified kernel evaluates its ranks, message sizes,
    guards and delay before its k-block loop: that loop calls no ``int``,
    ``float`` or ``max``."""
    wf = ModelingWorkflow(build_sweep3d(), IBM_SP, calib_inputs=sweep3d_inputs(16, 16, 8, 4),
                          calib_nprocs=4)
    loop = _innermost_loop(lower_program(wf.compiled.simplified).source)
    assert loop.target.id == "v_kb_i"
    for name in ("int", "float", "max"):
        assert _calls_outside_handlers(loop, name) == []
