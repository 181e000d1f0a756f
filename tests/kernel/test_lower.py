"""Lowering and the content-addressed in-process caches."""

import pytest

import repro.kernel.lower as lower_mod
from repro.apps import build_nas_sp
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import (
    UnsupportedConstructError,
    cache_stats,
    cached_kernels,
    clear_cache,
    kernel_for,
    lower_program,
    program_fingerprint,
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


class TestFingerprint:
    def test_deterministic(self):
        assert program_fingerprint(ring_program()) == program_fingerprint(ring_program())

    def test_distinguishes_programs(self):
        other = ProgramBuilder("lower_other")
        other.compute("c", work=1)
        assert program_fingerprint(ring_program()) != program_fingerprint(other.build())


class TestLowerProgram:
    def test_source_has_one_entry_point(self):
        kernel = lower_program(ring_program())
        assert kernel.source.count("\ndef ") == 1
        assert "\ndef fast_gen(" in kernel.source
        assert kernel.program_name == "lower_ring"
        assert kernel.fingerprint == program_fingerprint(ring_program())
        assert callable(kernel.fast_gen)

    def test_materialized_array_rejected(self):
        with pytest.raises(UnsupportedConstructError, match="materialized"):
            lower_program(materialized_program())

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


class TestCache:
    def test_kernel_for_caches_by_fingerprint(self):
        k1 = kernel_for(ring_program())
        k2 = kernel_for(ring_program())
        assert k1 is k2
        stats = cache_stats()
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 1
        assert stats["lowered"] == 1
        assert stats["cached_programs"] == 1
        assert k1.fingerprint in cached_kernels()

    def test_failed_lowering_remembered(self, monkeypatch):
        # NAS SP's materialized arrays never lower: the second request
        # answers from memory, with the same message, until clear_cache
        lowered = []

        def counting(program, fingerprint=None, measure=False):
            lowered.append(program.name)
            return lower_program(program, fingerprint, measure)

        monkeypatch.setattr(lower_mod, "lower_program", counting)
        with pytest.raises(UnsupportedConstructError, match="materialized") as first:
            kernel_for(build_nas_sp())
        with pytest.raises(UnsupportedConstructError) as again:
            kernel_for(build_nas_sp())
        assert str(again.value) == str(first.value)
        assert lowered == ["nas_sp"]
        stats = cache_stats()
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 1)
        clear_cache()
        with pytest.raises(UnsupportedConstructError):
            kernel_for(build_nas_sp())
        assert lowered == ["nas_sp", "nas_sp"]

    def test_measure_variant_cached_beside_the_plain_kernel(self):
        """The calibration variant has its own key; the plain module
        emits none of its collector or profile calls."""
        plain = kernel_for(ring_program())
        measure = kernel_for(ring_program(), measure=True)
        assert measure is not plain
        assert measure.fingerprint == plain.fingerprint
        assert kernel_for(ring_program(), measure=True) is measure
        assert kernel_for(ring_program()) is plain
        stats = cache_stats()
        assert (stats["cache_misses"], stats["cache_hits"]) == (2, 2)
        assert "def fast_gen(rank, size, inputs, wparams, _rt, _st, _mc, _bp):" in measure.source
        assert "_mc" not in plain.source and "_bp" not in plain.source

    def test_record_fallback_counts(self):
        record_fallback("prog", "because")
        assert cache_stats()["fallbacks"] == 1

    def test_clear_cache_resets(self):
        kernel_for(ring_program())
        clear_cache()
        stats = cache_stats()
        assert stats["cached_programs"] == 0
        assert stats["cache_misses"] == 0
