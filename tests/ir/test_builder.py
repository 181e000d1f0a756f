"""Unit tests for the IR builder and program validation."""

import pytest

from repro.ir import (
    For,
    If,
    IRValidationError,
    P,
    ProgramBuilder,
    myid,
    walk,
)
from repro.symbolic import Gt, Lt, Var, ceil_div

N = Var("N")


def shift_program():
    """The paper's Fig. 1(a) example: a shift + loop nest."""
    b = ProgramBuilder("shift", params=("N",))
    b.array("A", size=N * ceil_div(N, P))
    b.array("D", size=N * ceil_div(N, P))
    b.assign("b", ceil_div(N, P))
    with b.if_(Gt(myid, 0)):
        b.send(dest=myid - 1, nbytes=(N - 2) * 8, array="D")
    with b.if_(Lt(myid, P - 1)):
        b.recv(source=myid + 1, nbytes=(N - 2) * 8, array="D")
    from repro.symbolic import Max, Min

    work = (N - 2) * (Min.make(N, myid * Var("b") + Var("b")) - Max.make(2, myid * Var("b") + 1))
    b.compute("loop_nest", work=work, ops_per_iter=2, arrays=("A", "D"))
    return b.build()


class TestBuilder:
    def test_builds_and_numbers(self):
        prog = shift_program()
        sids = [s.sid for s in walk(prog.body)]
        assert sids == sorted(sids) and len(set(sids)) == len(sids)

    def test_structure(self):
        prog = shift_program()
        kinds = [type(s).__name__ for s in prog.body]
        assert kinds == ["Assign", "If", "If", "CompBlock"]

    def test_nested_loop(self):
        b = ProgramBuilder("loops", params=("N",))
        with b.loop("i", 1, N):
            with b.loop("j", 1, Var("i")):
                b.compute("inner", work=1)
        prog = b.build()
        outer = prog.body[0]
        assert isinstance(outer, For) and isinstance(outer.body[0], For)

    def test_else_arm(self):
        b = ProgramBuilder("br")
        with b.if_(Gt(myid, 0)):
            b.compute("a", work=1)
        with b.else_():
            b.compute("z", work=2)
        prog = b.build()
        branch = prog.body[0]
        assert isinstance(branch, If)
        assert branch.then[0].name == "a" and branch.orelse[0].name == "z"

    def test_else_without_if_rejected(self):
        b = ProgramBuilder("bad")
        with pytest.raises(ValueError, match="must immediately follow"):
            with b.else_():
                pass

    def test_double_else_rejected(self):
        b = ProgramBuilder("bad")
        with b.if_(Gt(myid, 0)):
            pass
        with b.else_():
            pass
        with pytest.raises(ValueError, match="already has"):
            with b.else_():
                pass

    def test_duplicate_array_rejected(self):
        b = ProgramBuilder("dup")
        b.array("A", size=10)
        with pytest.raises(ValueError, match="declared twice"):
            b.array("A", size=20)

    def test_double_build_rejected(self):
        b = ProgramBuilder("x")
        b.build()
        with pytest.raises(RuntimeError):
            b.build()

    def test_meta(self):
        b = ProgramBuilder("m")
        b.meta(eliminate_branches={3: 0.1})
        prog = b.build()
        assert prog.meta["eliminate_branches"] == {3: 0.1}


class TestValidation:
    def test_undefined_variable_rejected(self):
        b = ProgramBuilder("bad", params=())
        b.assign("x", Var("unknown") + 1)
        with pytest.raises(IRValidationError, match="unknown"):
            b.build()

    def test_param_is_defined(self):
        b = ProgramBuilder("ok", params=("N",))
        b.assign("x", N + 1)
        b.build()  # should not raise

    def test_builtins_defined(self):
        b = ProgramBuilder("ok")
        b.assign("x", myid + P)
        b.build()

    def test_loop_var_scoped(self):
        b = ProgramBuilder("ok", params=("N",))
        with b.loop("i", 1, N):
            b.assign("x", Var("i") * 2)
        b.build()

    def test_undeclared_array_in_compute_rejected(self):
        b = ProgramBuilder("bad", params=("N",))
        b.compute("t", work=N, arrays=("GHOST",))
        with pytest.raises(IRValidationError, match="GHOST"):
            b.build()

    def test_var_defined_in_one_branch_only_rejected(self):
        b = ProgramBuilder("bad", params=("N",))
        with b.if_(Gt(myid, 0)):
            b.assign("x", N)
        b.assign("y", Var("x") + 1)
        with pytest.raises(IRValidationError, match="x"):
            b.build()

    def test_var_defined_in_both_branches_ok(self):
        b = ProgramBuilder("ok", params=("N",))
        with b.if_(Gt(myid, 0)):
            b.assign("x", N)
        with b.else_():
            b.assign("x", N * 2)
        b.assign("y", Var("x") + 1)
        b.build()


class TestProgramQueries:
    def test_comp_blocks(self):
        prog = shift_program()
        assert [c.name for c in prog.comp_blocks()] == ["loop_nest"]

    def test_comm_stmts(self):
        prog = shift_program()
        assert len(prog.comm_stmts()) == 2

    def test_find(self):
        prog = shift_program()
        block = prog.comp_blocks()[0]
        assert prog.find(block.sid) is block

    def test_find_missing(self):
        with pytest.raises(KeyError):
            shift_program().find(999)

    def test_reads_writes(self):
        prog = shift_program()
        assign = prog.body[0]
        assert assign.reads() == {"N", "P"}
        assert assign.writes() == {"b"}
        block = prog.comp_blocks()[0]
        assert "b" in block.reads() and "A" in block.reads()


class TestPrinter:
    def test_format_smoke(self):
        from repro.ir import format_program

        text = format_program(shift_program())
        assert "program shift" in text
        assert "SEND" in text and "RECV" in text
        assert "compute loop_nest" in text
        assert "if (" in text
