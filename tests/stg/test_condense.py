"""Unit tests for task-graph condensation."""

from dataclasses import replace

import pytest

from repro.ir import BranchProfile, ProgramBuilder, myid
from repro.stg import PlanRegion, PlanRetain, condense, w_param
from repro.symbolic import Gt, Var

N = Var("N")
K = Var("K")


def simple_comm_compute():
    b = ProgramBuilder("x", params=("N",))
    b.assign("b", N / 2)
    b.compute("pre", work=N)
    b.send(dest=myid, nbytes=8)
    b.compute("post", work=N * 2)
    return b.build()


class TestSegmentation:
    def test_communication_splits_regions(self):
        plan = condense(simple_comm_compute())
        kinds = [type(i).__name__ for i in plan.root]
        assert kinds == ["PlanRegion", "PlanRetain", "PlanRegion"]
        assert len(plan.regions) == 2

    def test_region_cost_uses_w_params(self):
        plan = condense(simple_comm_compute())
        pre, post = plan.regions
        assert pre.cost.evaluate({"N": 10, w_param("pre"): 2.0}) == 20.0
        assert post.cost.evaluate({"N": 10, w_param("post"): 1.0}) == 20.0

    def test_w_params_listed(self):
        plan = condense(simple_comm_compute())
        assert plan.w_params() == (w_param("pre"), w_param("post"))

    def test_adjacent_blocks_merge(self):
        b = ProgramBuilder("m", params=("N",))
        b.compute("a", work=N)
        b.compute("c", work=N * 3)
        plan = condense(b.build())
        assert len(plan.regions) == 1
        r = plan.regions[0]
        assert r.blocks == ("a", "c")
        assert r.cost.evaluate({"N": 2, "w_a": 1.0, "w_c": 10.0}) == 2 + 60

    def test_region_for_lookup(self):
        prog = simple_comm_compute()
        plan = condense(prog)
        pre_block = prog.comp_blocks()[0]
        assert plan.region_for(pre_block.sid) is plan.regions[0]
        assert plan.region_for(9999) is None


class TestLoops:
    def test_comm_free_loop_condenses(self):
        b = ProgramBuilder("l", params=("K", "N"))
        with b.loop("i", 1, K):
            b.compute("body", work=N)
        plan = condense(b.build())
        assert len(plan.regions) == 1
        cost = plan.regions[0].cost
        assert cost.evaluate({"K": 5, "N": 10, "w_body": 1.0}) == 50

    def test_loop_with_comm_retained(self):
        b = ProgramBuilder("l", params=("K", "N"))
        with b.loop("i", 1, K):
            b.compute("body", work=N)
            b.send(dest=myid, nbytes=8)
        plan = condense(b.build())
        assert isinstance(plan.root[0], PlanRetain)
        # the loop body gets its own region around the compute
        inner = plan.root[0].body_plans[0]
        assert any(isinstance(i, PlanRegion) for i in inner)

    def test_index_dependent_loop_cost(self):
        b = ProgramBuilder("tri", params=("K",))
        with b.loop("i", 1, K):
            b.compute("body", work=Var("i"))
        plan = condense(b.build())
        cost = plan.regions[0].cost
        assert cost.evaluate({"K": 4, "w_body": 1.0}) == 10


class TestBranches:
    def test_myid_branch_condenses_with_cond(self):
        b = ProgramBuilder("br", params=("N",))
        with b.if_(Gt(myid, 0)):
            b.compute("a", work=N)
        with b.else_():
            b.compute("z", work=N * 2)
        plan = condense(b.build())
        assert len(plan.regions) == 1
        cost = plan.regions[0].cost
        env = {"N": 10, "w_a": 1.0, "w_z": 1.0, "P": 4}
        assert cost.evaluate({**env, "myid": 1}) == 10
        assert cost.evaluate({**env, "myid": 0}) == 20

    def test_data_dependent_branch_profile_weighted(self):
        b = ProgramBuilder("dd", params=("N",))
        b.compute("detect", work=1, writes={"flag"}, kernel=lambda e, a: e.__setitem__("flag", 0))
        with b.if_(Gt(Var("flag"), 0), data_dependent=True):
            b.compute("fixup", work=N)
        prog = b.build()
        branch = prog.body[1]
        profile = BranchProfile()
        for _ in range(3):
            profile.record(branch.sid, True)
        profile.record(branch.sid, False)
        plan = condense(prog, profile=profile)
        # single region covering everything; fixup weighted by p=0.75
        assert len(plan.regions) == 1
        cost = plan.regions[0].cost
        val = cost.evaluate({"N": 100, "w_detect": 0.0, "w_fixup": 1.0})
        assert val == pytest.approx(75.0)
        assert branch.sid in plan.eliminated_branches

    def test_directive_overrides_profile(self):
        b = ProgramBuilder("dd", params=("N",))
        with b.if_(Gt(Var("N"), 0), data_dependent=True):
            b.compute("fixup", work=N)
        prog = b.build()
        branch = prog.body[0]
        plan = condense(prog, directives={branch.sid: 0.1})
        val = plan.regions[0].cost.evaluate({"N": 100, "w_fixup": 1.0})
        assert val == pytest.approx(10.0)

    def test_meta_directives_respected(self):
        b = ProgramBuilder("dd", params=("N",))
        with b.if_(Gt(Var("N"), 0), data_dependent=True):
            b.compute("fixup", work=N)
        prog = b.build()
        branch = prog.body[0]
        plan = condense(replace(prog, meta={"eliminate_branches": {branch.sid: 0.25}}))
        val = plan.regions[0].cost.evaluate({"N": 100, "w_fixup": 1.0})
        assert val == pytest.approx(25.0)

    def test_branch_with_comm_not_condensed(self):
        b = ProgramBuilder("br")
        with b.if_(Gt(myid, 0)):
            b.send(dest=myid - 1, nbytes=8)
        plan = condense(b.build())
        assert isinstance(plan.root[0], PlanRetain)
        assert plan.regions == []


class TestPinning:
    def test_pinned_block_not_condensed(self):
        prog = simple_comm_compute()
        pre = prog.comp_blocks()[0]
        plan = condense(prog, pinned={pre.sid})
        # 'pre' must now be a retained statement
        retained = [i.stmt for i in plan.root if isinstance(i, PlanRetain)]
        assert any(getattr(s, "name", None) == "pre" for s in retained)
        # only 'post' forms a region
        assert [r.blocks for r in plan.regions] == [("post",)]
