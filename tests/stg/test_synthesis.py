"""Unit tests for static task graph synthesis."""

from repro.ir import ProgramBuilder, myid, P
from repro.stg import synthesize_stg
from repro.symbolic import Gt, Lt, Var, ceil_div

N = Var("N")


def shift_program():
    b = ProgramBuilder("shift", params=("N",))
    b.array("D", size=N * ceil_div(N, P))
    b.assign("b", ceil_div(N, P))
    with b.if_(Gt(myid, 0)):
        b.send(dest=myid - 1, nbytes=(N - 2) * 8, array="D", tag=7)
    with b.if_(Lt(myid, P - 1)):
        b.recv(source=myid + 1, nbytes=(N - 2) * 8, array="D", tag=7)
    b.compute("loop_nest", work=N * N, arrays=("D",))
    return b.build()


class TestSynthesis:
    def test_node_kinds_present(self):
        stg = synthesize_stg(shift_program())
        kinds = {n.kind for n in stg.nodes}
        assert {"assign", "branch", "send", "recv", "compute"} <= kinds

    def test_send_node_process_set_guarded(self):
        """The send executes only on {p : p > 0} (Fig. 1(b))."""
        stg = synthesize_stg(shift_program())
        snd = stg.nodes_of_kind("send")[0]
        assert snd.pset.contains(1, {"P": 4})
        assert not snd.pset.contains(0, {"P": 4})

    def test_send_mapping_is_shift(self):
        stg = synthesize_stg(shift_program())
        snd = stg.nodes_of_kind("send")[0]
        assert snd.mapping.apply(3, {"P": 4, "N": 100}) == 2

    def test_compute_node_has_scaling_function(self):
        stg = synthesize_stg(shift_program())
        comp = stg.nodes_of_kind("compute")[0]
        assert comp.work is not None
        assert comp.work.evaluate({"N": 10}) == 100

    def test_communication_edge_pairs_send_recv(self):
        stg = synthesize_stg(shift_program())
        comm = stg.communication_edges()
        assert len(comm) == 1
        src = stg.nodes[comm[0].src]
        dst = stg.nodes[comm[0].dst]
        assert src.kind == "send" and dst.kind == "recv"

    def test_unmatched_tags_not_paired(self):
        b = ProgramBuilder("odd", params=("N",))
        b.send(dest=myid, nbytes=8, tag=1)
        b.recv(source=myid, nbytes=8, tag=2)
        stg = synthesize_stg(b.build())
        assert stg.communication_edges() == []

    def test_loop_back_edge(self):
        b = ProgramBuilder("loop", params=("K",))
        with b.loop("i", 1, Var("K")):
            b.compute("body", work=1)
        stg = synthesize_stg(b.build())
        loop = stg.nodes_of_kind("loop")[0]
        comp = stg.nodes_of_kind("compute")[0]
        ctrl = {(e.src, e.dst) for e in stg.control_edges()}
        assert (loop.nid, comp.nid) in ctrl  # into the body
        assert (comp.nid, loop.nid) in ctrl  # back edge

    def test_else_guard_negated(self):
        b = ProgramBuilder("br")
        with b.if_(Gt(myid, 0)):
            b.compute("a", work=1)
        with b.else_():
            b.compute("z", work=1)
        stg = synthesize_stg(b.build())
        a = next(n for n in stg.nodes_of_kind("compute") if n.label == "a")
        z = next(n for n in stg.nodes_of_kind("compute") if n.label == "z")
        env = {"P": 4}
        assert not a.pset.contains(0, env) and a.pset.contains(1, env)
        assert z.pset.contains(0, env) and not z.pset.contains(1, env)

    def test_collective_node(self):
        b = ProgramBuilder("coll")
        b.allreduce(nbytes=8)
        stg = synthesize_stg(b.build())
        assert len(stg.nodes_of_kind("collective")) == 1

    def test_str_smoke(self):
        text = str(synthesize_stg(shift_program()))
        assert "STG(shift)" in text and "send" in text


class TestRankifyIsolation:
    """Regression: _rankify's substitution mapping must be per-call.

    It used to be a mutable default argument — one shared dict across
    every call — so a caller passing (or mutating) a custom mapping
    would silently poison all later rank substitutions.
    """

    def test_explicit_mapping_is_used(self):
        from repro.stg.synthesis import _rankify
        from repro.symbolic import RANK, Var

        assert _rankify(Var("myid") + 1) == RANK + 1
        # A custom mapping substitutes what it names, nothing more.
        assert _rankify(Var("owner") + 1, {"owner": RANK}) == RANK + 1

    def test_caller_mutation_does_not_leak(self):
        from repro.stg.synthesis import _rankify
        from repro.symbolic import RANK, Var

        poisoned = {"myid": Var("other")}
        assert _rankify(Var("myid"), poisoned) == Var("other")
        # The default path must be unaffected by the call above.
        assert _rankify(Var("myid")) == RANK

    def test_default_not_shared(self):
        import inspect

        from repro.stg.synthesis import _rankify

        (default,) = [
            p.default
            for p in inspect.signature(_rankify).parameters.values()
            if p.default is not inspect.Parameter.empty
        ]
        assert default is None, "mapping default must not be a mutable object"
