"""Lowering, and the kernels a program keeps."""

import gc
import weakref

import pytest

import repro.kernel.lower as lower_mod
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import (
    UnsupportedConstructError,
    cache_stats,
    clear_cache,
    kernel_for,
    lower_program,
    record_fallback,
)
from repro.symbolic import Var


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def ring_program(iters=4):
    b = ProgramBuilder("lower_ring", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
        b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
    return b.build()


def probe_kernel(env, arrays):
    env["flag"] = env["myid"] % 2


def materialized_program():
    b = ProgramBuilder("lower_materialized")
    b.array("hist", 16, materialize=True)
    b.compute("bin", work=10, writes={"hist"})
    return b.build()


def fill_hist(env, arrays):
    arrays["hist"][:] = env["myid"]


def array_assign_program(kernel=fill_hist, reads=frozenset({"myid"}), materialize=True):
    b = ProgramBuilder("lower_array_assign")
    b.array("hist", 16, materialize=materialize)
    b.array_assign("hist", kernel, reads=reads, work=4)
    return b.build()


def lambda_kernel_program():
    b = ProgramBuilder("lower_lambda_kernel")
    b.compute("c", work=10, reads={"myid"}, writes={"flag"},
              kernel=lambda env, arrays: env.update(flag=1))
    return b.build()


class TestLowerProgram:
    def test_source_has_one_entry_point(self):
        kernel = lower_program(ring_program())
        assert kernel.source.count("\ndef ") == 1
        assert "\ndef fast_gen(" in kernel.source
        assert kernel.program_name == "lower_ring"
        assert callable(kernel.fast_gen)

    def test_materialized_array_lowers(self):
        """A materialized array is a NumPy array the module creates and
        owns; only a program that has one imports ``zeros``."""
        source = lower_program(materialized_program()).source
        assert "from numpy import zeros\n" in source
        assert "v_hist = _arr['hist'] = zeros(_n)" in source
        assert "zeros" not in lower_program(ring_program()).source

    def test_array_assign_imports_its_kernel_by_name(self):
        source = lower_program(array_assign_program()).source
        assert f"from {__name__} import fill_hist as _kf0\n" in source
        assert "_kf0({'myid': v_myid}, _arr)" in source

    @pytest.mark.parametrize("kw, match", [
        ({"reads": frozenset()}, "ArrayAssign to 'hist' carries a Python kernel callable"),
        ({"kernel": lambda env, arrays: None}, "carries a Python kernel callable"),
        ({"materialize": False}, "ArrayAssign target 'hist' is not a materialized array"),
    ], ids=["no-declared-reads", "lambda", "not-materialized"])
    def test_array_assign_rejected(self, kw, match):
        with pytest.raises(UnsupportedConstructError, match=match):
            lower_program(array_assign_program(**kw))

    def test_array_size_read_before_the_array_exists_rejected(self):
        from repro.symbolic import Index

        b = ProgramBuilder("lower_size_order")
        b.array("a", Index.make("b", 0) + 1, materialize=True)
        b.array("b", 4, materialize=True)
        with pytest.raises(UnsupportedConstructError, match=r"'a' size reads .*\['b'\]"):
            lower_program(b.build())

    def test_unmaterialized_array_read_rejected(self):
        from repro.symbolic import Index

        b = ProgramBuilder("lower_unmaterialized_read")
        b.array("data", 16)
        b.compute("c", work=Index.make("data", 0))
        with pytest.raises(UnsupportedConstructError, match=r"\['data'\] read in an expression"):
            lower_program(b.build())

    def test_python_kernel_callable_rejected(self):
        b = ProgramBuilder("lower_pykernel")
        b.compute("c", work=10, kernel=lambda **kw: 0.0)
        with pytest.raises(UnsupportedConstructError):
            lower_program(b.build())

    def test_kernel_function_imported_once(self):
        b = ProgramBuilder("lower_kernel_twice")
        for name in ("a", "b"):
            b.compute(name, work=10, reads={"myid"}, writes={"flag"}, kernel=probe_kernel)
        source = lower_program(b.build()).source
        assert source.count(f"from {__name__} import probe_kernel as _kf0\n") == 1
        assert source.count("_kf0(_kd, _arr)") == 2


class TestValidateOnce:
    """A program object is validated at most once, by whoever made it."""

    def test_lowering_built_programs_validates_nothing_again(self, monkeypatch):
        from repro.apps import build_sweep3d
        from repro.codegen import compile_program
        from repro.ir.nodes import Program

        program = build_sweep3d()
        simplified = compile_program(program).simplified
        checked = []
        real = Program._check
        monkeypatch.setattr(Program, "_check",
                            lambda prog: checked.append(prog.name) or real(prog))
        lower_program(program)
        lower_program(simplified)
        assert checked == []

    def test_an_unvalidated_invalid_program_is_rejected(self):
        b = ProgramBuilder("lower_invalid")
        b.compute("c", work=Var("undefined_n"))
        program = b.build(validate=False)
        for _ in range(2):  # a failed check is not kept
            with pytest.raises(UnsupportedConstructError,
                               match=r"^program does not validate: lower_invalid: "
                                     r".*undefined variable\(s\) \['undefined_n'\]"):
                lower_program(program)


class TestCache:
    def test_kernel_for_keeps_the_kernel_on_the_program(self):
        program = ring_program()
        k1 = kernel_for(program)
        k2 = kernel_for(program)
        assert k1 is k2
        stats = cache_stats()
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 1
        assert stats["lowered"] == 1

    def test_a_kernel_dies_with_its_program(self):
        program = ring_program()
        kernel = weakref.ref(kernel_for(program))
        del program
        gc.collect()
        assert kernel() is None

    def test_failed_lowering_remembered(self, monkeypatch):
        # a lambda kernel never lowers: a second request on the same
        # program answers from what it keeps, with the same message; a
        # fresh build lowers again
        lowered = []

        def counting(program, measure=False, trace=False):
            lowered.append(program.name)
            return lower_program(program, measure, trace)

        monkeypatch.setattr(lower_mod, "lower_program", counting)
        program = lambda_kernel_program()
        with pytest.raises(UnsupportedConstructError, match="kernel callable") as first:
            kernel_for(program)
        with pytest.raises(UnsupportedConstructError) as again:
            kernel_for(program)
        assert str(again.value) == str(first.value)
        assert lowered == ["lower_lambda_kernel"]
        stats = cache_stats()
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 1)
        with pytest.raises(UnsupportedConstructError):
            kernel_for(lambda_kernel_program())
        assert lowered == ["lower_lambda_kernel"] * 2

    def test_measure_variant_cached_beside_the_plain_kernel(self):
        """The calibration variant has its own key; the plain module
        emits none of its collector or profile calls."""
        program = ring_program()
        plain = kernel_for(program)
        measure = kernel_for(program, measure=True)
        assert measure is not plain
        assert kernel_for(program, measure=True) is measure
        assert kernel_for(program) is plain
        stats = cache_stats()
        assert (stats["cache_misses"], stats["cache_hits"]) == (2, 2)
        assert "def fast_gen(rank, size, inputs, wparams, _rt, _st, _mc, _bp):" in measure.source
        assert "_mc" not in plain.source and "_bp" not in plain.source

    def test_traced_variant_cached_beside_the_others(self):
        """A traced run's variant has its own key, lowered on first use;
        neither the plain nor the measure module records trace events."""
        program = ring_program()
        plain = kernel_for(program)
        measure = kernel_for(program, measure=True)
        traced = kernel_for(program, trace=True)
        both = kernel_for(program, measure=True, trace=True)
        assert len({id(k) for k in (plain, measure, traced, both)}) == 4
        assert kernel_for(program, trace=True) is traced
        stats = cache_stats()
        assert (stats["cache_misses"], stats["cache_hits"]) == (4, 1)
        assert "def fast_gen(rank, size, inputs, wparams, _rt, _st, _tra):" in traced.source
        assert "_rt, _st, _mc, _bp, _tra):" in both.source
        assert "_tra" not in plain.source and "_tra" not in measure.source

    def test_record_fallback_counts(self):
        record_fallback("prog", "because")
        assert cache_stats()["fallbacks"] == 1

    def test_clear_cache_resets(self):
        program = ring_program()
        kernel = kernel_for(program)
        clear_cache()
        stats = cache_stats()
        assert (stats["lowered"], stats["cache_misses"], stats["cache_hits"]) == (0, 0, 0)
        assert kernel_for(program) is kernel
        assert cache_stats()["cache_hits"] == 1
