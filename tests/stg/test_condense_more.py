"""Additional condensation coverage: nested structures and w-param sets."""

import pytest

from repro.ir import BranchProfile, ProgramBuilder, myid
from repro.stg import condense, w_param
from repro.symbolic import Gt, Var

N, K = Var("N"), Var("K")


class TestNestedStructures:
    def test_loop_in_branch_in_loop_condenses(self):
        b = ProgramBuilder("nest", params=("N", "K"))
        with b.loop("i", 1, K):
            with b.if_(Gt(myid, 0)):
                with b.loop("j", 1, Var("i")):
                    b.compute("inner", work=N)
        plan = condense(b.build())
        assert len(plan.regions) == 1
        cost = plan.regions[0].cost
        env = {"N": 10, "K": 3, "w_inner": 1.0, "myid": 1, "P": 4}
        # sum over i of i * N = (1+2+3)*10 = 60
        assert cost.evaluate(env) == 60
        env["myid"] = 0
        assert cost.evaluate(env) == 0

    def test_region_spans_multiple_top_level_statements(self):
        b = ProgramBuilder("span", params=("N",))
        b.assign("a", N * 2)
        b.compute("x", work=N)
        with b.loop("i", 1, 3):
            b.compute("y", work=Var("a"))
        b.compute("z", work=1)
        plan = condense(b.build())
        assert len(plan.regions) == 1
        assert plan.regions[0].blocks == ("x", "y", "z")

    def test_w_params_deduplicated_across_regions(self):
        b = ProgramBuilder("dup", params=("N",))
        b.compute("t", work=N)
        b.barrier()
        b.compute("t", work=N * 2)  # same task name, different site
        plan = condense(b.build())
        assert plan.w_params() == (w_param("t"),)

    def test_profile_default_half_without_observations(self):
        b = ProgramBuilder("dd", params=("N",))
        with b.if_(Gt(Var("N"), 0), data_dependent=True):
            b.compute("f", work=N)
        plan = condense(b.build(), profile=BranchProfile())
        val = plan.regions[0].cost.evaluate({"N": 100, "w_f": 1.0})
        assert val == pytest.approx(50.0)
