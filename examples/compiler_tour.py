#!/usr/bin/env python
"""A tour of the compiler: Fig. 1 of the paper, reproduced live.

Builds the paper's example MPI program (a shift communication followed
by a computational loop nest), then shows each compiler stage:

* the static task graph with its symbolic process sets and the
  ``{[p] -> [q] : q = p-1, p >= 1}`` communication mapping;
* condensation — the loop nest collapsed into one task with a symbolic
  scaling function;
* program slicing — ``b = ceil(N/P)`` retained because the
  communication size and the scaling function need it; arrays A and D
  eliminated;
* the generated simplified MPI program (Fig. 1(c)): ``read_and_broadcast``,
  the dummy communication buffer, and the ``delay(...)`` call.

Run:  python examples/compiler_tour.py
"""

from repro.codegen import compile_program, generate_instrumented
from repro.ir import ProgramBuilder, format_program, myid, P
from repro.stg import synthesize_stg
from repro.symbolic import Gt, Lt, Max, Min, Var, ceil_div


def build_fig1_program():
    """The paper's Fig. 1(a) example."""
    N = Var("N")
    b = ProgramBuilder("fig1_shift", params=("N",))
    b.array("A", size=N * ceil_div(N, P))
    b.array("D", size=N * ceil_div(N, P))
    b.assign("b", ceil_div(N, P))
    with b.if_(Gt(myid, 0)):
        b.send(dest=myid - 1, nbytes=(N - 2) * 2 * 8, array="D")
    with b.if_(Lt(myid, P - 1)):
        b.recv(source=myid + 1, nbytes=(N - 2) * 2 * 8, array="D")
    bv = Var("b")
    work = (N - 2) * (Min.make(N, myid * bv + bv) - Max.make(2, myid * bv + 1))
    b.compute("loop_nest", work=work, ops_per_iter=2, arrays=("A", "D"))
    return b.build()


def main() -> None:
    program = build_fig1_program()

    print("=" * 72)
    print("Fig. 1(a): the original MPI program")
    print("=" * 72)
    print(format_program(program))

    print()
    print("=" * 72)
    print("Fig. 1(b): the static task graph")
    print("=" * 72)
    stg = synthesize_stg(program)
    print(stg)

    compiled = compile_program(program)

    print()
    print("=" * 72)
    print("Condensation + slicing")
    print("=" * 72)
    print(compiled.summary())
    for region in compiled.plan.regions:
        print(f"\nscaling function of condensed task {region.name}:")
        print(f"  delay = {region.cost}")

    print()
    print("=" * 72)
    print("Fig. 1(c): the generated simplified MPI program")
    print("=" * 72)
    print(format_program(compiled.simplified))

    print()
    print("=" * 72)
    print("The timer-instrumented program (measurement branch of Fig. 2)")
    print("=" * 72)
    print(format_program(generate_instrumented(program)))


if __name__ == "__main__":
    main()
