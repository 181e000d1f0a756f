"""Lowering, the content-addressed caches, and the warm-kernel store."""

import json

import pytest

import repro.kernel.lower as lower_mod
from repro.apps import build_nas_sp
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import (
    KERNEL_FORMAT,
    UnsupportedConstructError,
    cache_stats,
    cached_kernels,
    clear_cache,
    kernel_for,
    load_kernel_source,
    lower_program,
    program_fingerprint,
    record_fallback,
    set_warm_dir,
)
from repro.store import load_warm_kernel, save_warm_kernel
from repro.symbolic import Var


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    set_warm_dir(None)
    yield
    clear_cache()
    set_warm_dir(None)


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
        assert f"\nKERNEL_FORMAT = {KERNEL_FORMAT}\n" in kernel.source
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

        def counting(program, fingerprint=None):
            lowered.append(program.name)
            return lower_program(program, fingerprint)

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

    def test_record_fallback_counts(self):
        record_fallback("prog", "because")
        assert cache_stats()["fallbacks"] == 1

    def test_clear_cache_resets(self):
        kernel_for(ring_program())
        clear_cache()
        stats = cache_stats()
        assert stats["cached_programs"] == 0
        assert stats["cache_misses"] == 0


class TestLoadKernelSource:
    def test_roundtrip(self):
        kernel = lower_program(ring_program())
        clear_cache()
        loaded = load_kernel_source(kernel.source)
        assert loaded.fingerprint == kernel.fingerprint
        assert loaded.program_name == kernel.program_name
        assert cache_stats()["warm_loads"] == 1

    def test_garbage_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            load_kernel_source("this is not a kernel module")

    def test_other_format_rejected(self):
        source = lower_program(ring_program()).source
        stale = source.replace(f"KERNEL_FORMAT = {KERNEL_FORMAT}", "KERNEL_FORMAT = 1")
        with pytest.raises(UnsupportedConstructError, match="format"):
            load_kernel_source(stale)


class TestWarmStore:
    def test_save_load_roundtrip(self, tmp_path):
        path = save_warm_kernel(tmp_path, program="p", fingerprint="f" * 64, source="SRC")
        assert path.name == f"kernel-{'f' * 64}.json"
        assert load_warm_kernel(tmp_path, "f" * 64) == "SRC"

    def test_missing_returns_none(self, tmp_path):
        assert load_warm_kernel(tmp_path, "0" * 64) is None

    def test_corrupt_returns_none(self, tmp_path):
        (tmp_path / ("kernel-" + "a" * 64 + ".json")).write_text("{nope")
        assert load_warm_kernel(tmp_path, "a" * 64) is None

    def test_fingerprint_mismatch_returns_none(self, tmp_path):
        save_warm_kernel(tmp_path, program="p", fingerprint="b" * 64, source="SRC")
        doc = json.loads((tmp_path / ("kernel-" + "b" * 64 + ".json")).read_text())
        doc["fingerprint"] = "c" * 64
        (tmp_path / ("kernel-" + "b" * 64 + ".json")).write_text(json.dumps(doc))
        assert load_warm_kernel(tmp_path, "b" * 64) is None

    def test_kernel_for_persists_and_reloads(self, tmp_path):
        set_warm_dir(tmp_path)
        kernel = kernel_for(ring_program())
        files = list(tmp_path.glob("kernel-*.json"))
        assert [f.name for f in files] == [f"kernel-{kernel.fingerprint}.json"]

        clear_cache()
        set_warm_dir(tmp_path)
        warm = kernel_for(ring_program())
        assert warm.fingerprint == kernel.fingerprint
        stats = cache_stats()
        assert stats["warm_loads"] == 1
        assert stats["lowered"] == 0  # the warm hit skipped lowering entirely

    def test_aliased_warm_entry_relowered(self, tmp_path):
        # a hand-edited warm file whose embedded fingerprint differs from
        # its filename must not serve the wrong kernel
        set_warm_dir(tmp_path)
        kernel = kernel_for(ring_program())
        alias = kernel.source.replace(kernel.fingerprint, "d" * 64)
        (tmp_path / f"kernel-{kernel.fingerprint}.json").write_text(json.dumps({
            "schema_version": 1,
            "kind": "warm-kernel",
            "program": kernel.program_name,
            "fingerprint": kernel.fingerprint,
            "source": alias,
        }))
        clear_cache()
        set_warm_dir(tmp_path)
        reloaded = kernel_for(ring_program())
        assert reloaded.fingerprint == kernel.fingerprint
        assert cache_stats()["lowered"] == 1  # fell through to a fresh lowering

    def test_stale_format_entry_relowered(self, tmp_path):
        # a store filled before the module format existed holds modules
        # without the constant (and with a fast_gen that flushed fewer
        # stat cells): they are re-lowered and re-saved, never served
        set_warm_dir(tmp_path)
        kernel = kernel_for(ring_program())
        path = tmp_path / f"kernel-{kernel.fingerprint}.json"
        doc = json.loads(path.read_text())
        doc["source"] = kernel.source.replace(f"KERNEL_FORMAT = {KERNEL_FORMAT}\n", "")
        path.write_text(json.dumps(doc))
        clear_cache()
        set_warm_dir(tmp_path)
        reloaded = kernel_for(ring_program())
        assert reloaded.source == kernel.source
        assert cache_stats()["lowered"] == 1
        assert json.loads(path.read_text())["source"] == kernel.source
