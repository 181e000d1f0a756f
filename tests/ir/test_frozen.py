"""The IR is a value, so what a program keeps of its derivations is exact.

Over programs drawn from the ``repro.gen`` grammar: assigning any field
of a statement or a program raises, and so do extending a statement
list and writing ``arrays`` or ``meta``.  The timer version and
simplified program a program keeps must print exactly what an uncached
derivation from a freshly generated equal program prints.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_program, generate_instrumented
from repro.gen import GrammarConfig, generate_program
from repro.ir import format_program, walk
from repro.measure.calibrate import timer_version

GRAMMAR = GrammarConfig(max_stmts=16)
seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_nothing_mutates_a_built_program(seed):
    prog = generate_program(seed, GRAMMAR).program
    for stmt in walk(prog.body):
        for f in dataclasses.fields(stmt):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(stmt, f.name, getattr(stmt, f.name))
        for block in stmt.children():
            with pytest.raises(AttributeError):
                block.append(stmt)
    for f in dataclasses.fields(prog):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prog, f.name, getattr(prog, f.name))
    with pytest.raises(AttributeError):
        prog.body.append(prog.body[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        prog.body += prog.body[:1]
    with pytest.raises(TypeError):
        prog.arrays["extra"] = next(iter(prog.arrays.values()))
    with pytest.raises(TypeError):
        prog.meta["extra"] = 1
    assert [s.sid for s in walk(prog.body)] == list(range(len(list(walk(prog.body)))))


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_kept_derivations_print_as_fresh_ones(seed):
    prog = generate_program(seed, GRAMMAR).program
    timer = timer_version(prog)
    compiled = compile_program(prog)
    # kept: asking again derives nothing
    assert timer_version(prog) is timer
    assert compile_program(prog) is compiled

    fresh = generate_program(seed, GRAMMAR).program
    assert fresh is not prog and fresh == prog
    assert format_program(timer) == format_program(generate_instrumented(fresh))
    assert (format_program(compiled.simplified)
            == format_program(compile_program(fresh).simplified))
