"""Tests for ``--jobs N``: determinism, interrupts and resume.

The contract under test (docs/robustness.md): ``--jobs N`` may change
*when* runs execute and in what order records reach the journal, but
never *what* is computed — ``results.csv`` is byte-identical to a
sequential run, resumes interoperate freely between jobs settings,
``repro validate --jobs N`` prints the sequential table, and requests
over generated programs, with and without fault plans, come back with
the same records at one and two jobs.  Worker deaths and hangs are
covered by ``test_supervisor.py``.
"""

import functools
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workflow.supervisor as supervisor
from repro.api import RunRequest, canonical_json
from repro.cli import main
from repro.gen import GrammarConfig, generate_program
from repro.workflow.campaign import (
    CampaignError,
    CampaignInterrupted,
    CampaignRunner,
    expand_grid,
    run_requests,
)
from repro.workflow.supervisor import resolve_jobs


def tiny_grid(**overrides):
    grid = {
        "name": "tiny",
        "machine": "testing",
        "app": "sample_nearest_neighbor",
        "modes": ["de"],
        "nprocs": [2, 3, 4],
        "inputs": {"grain": 1000, "msg": 512, "iters": 2},
    }
    grid.update(overrides)
    return grid


def run_campaign(tmp_path, grid=None, sub="out", **execute_kw):
    runner = CampaignRunner(expand_grid(grid or tiny_grid()), tmp_path / sub)
    return runner, runner.execute(**execute_kw)


def journal_runs(runner):
    """The journal's run records as {run_id: outcome-relevant fields}."""
    docs = [json.loads(line) for line in
            runner.journal_path.read_text().splitlines()]
    return {
        d["run_id"]: (d["outcome"], d["elapsed"], d["stats"], d["error"])
        for d in docs if d.get("type") == "run"
    }


class TestResolveJobs:
    def test_default_and_zero(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1  # all cores

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-2)


class TestParallelCampaign:
    def test_results_csv_byte_identical(self, tmp_path):
        _, seq_report = run_campaign(tmp_path, sub="seq", jobs=1)
        _, par_report = run_campaign(tmp_path, sub="par", jobs=4)
        assert seq_report.complete and par_report.complete
        assert par_report.executed == seq_report.executed == 3
        seq = (tmp_path / "seq" / "results.csv").read_bytes()
        par = (tmp_path / "par" / "results.csv").read_bytes()
        assert seq == par

    def test_journals_record_equivalent_outcomes(self, tmp_path):
        seq_runner, _ = run_campaign(tmp_path, sub="seq", jobs=1)
        par_runner, _ = run_campaign(tmp_path, sub="par", jobs=4)
        # journal order may differ (completion order); the record set,
        # including stats and elapsed times, may not
        assert journal_runs(seq_runner) == journal_runs(par_runner)

    def test_fault_plans_survive_fanout(self, tmp_path):
        grid = tiny_grid(fault_plans=[None, {"message_loss": 0.05, "seed": 7}],
                         nprocs=[2, 3])
        _, seq = run_campaign(tmp_path, grid=grid, sub="seq", jobs=1)
        _, par = run_campaign(tmp_path, grid=grid, sub="par", jobs=4)
        assert seq.complete and par.complete
        assert (tmp_path / "seq" / "results.csv").read_bytes() == \
               (tmp_path / "par" / "results.csv").read_bytes()

    def test_max_runs_stops_then_parallel_resume_is_identical(self, tmp_path):
        _, ref = run_campaign(tmp_path, sub="ref", jobs=1)
        runner, report = run_campaign(tmp_path, sub="out", jobs=4, max_runs=1)
        assert report.stopped and not report.complete
        assert report.executed == 1
        resumed = runner.execute(resume=True, jobs=4)
        assert resumed.complete and resumed.skipped == 1
        assert (tmp_path / "out" / "results.csv").read_bytes() == \
               (tmp_path / "ref" / "results.csv").read_bytes()

    def test_interrupt_mid_parallel_then_resume(self, tmp_path, monkeypatch):
        """An interrupt that lands between completions journals a marker
        and leaves a prefix any later jobs setting can finish."""
        real = supervisor.run_supervised

        def interrupting(config, pending, jobs, on_record, **kw):
            def wrapped(spec, rec):
                on_record(spec, rec)
                raise CampaignInterrupted(signal.SIGINT)

            return real(config, pending, jobs, wrapped, **kw)

        monkeypatch.setattr(supervisor, "run_supervised", interrupting)
        runner = CampaignRunner(expand_grid(tiny_grid()), tmp_path / "out")
        report = runner.execute(jobs=4)
        monkeypatch.undo()
        assert report.interrupted and not report.complete
        assert report.executed == 1
        docs = [json.loads(line) for line in
                runner.journal_path.read_text().splitlines()]
        assert docs[-1]["type"] == "interrupted"
        assert docs[-1]["signal"] == signal.SIGINT
        # finish sequentially: mixing jobs settings across resumes is fine
        resumed = runner.execute(resume=True, jobs=1)
        assert resumed.complete and not resumed.interrupted
        _, ref = run_campaign(tmp_path, sub="ref", jobs=1)
        assert (tmp_path / "out" / "results.csv").read_bytes() == \
               (tmp_path / "ref" / "results.csv").read_bytes()

    def test_jobs_one_uses_sequential_path(self, tmp_path, monkeypatch):
        """jobs=1 must not pay process-pool overhead (and must keep
        working where multiprocessing is unavailable)."""

        def boom(*a, **kw):  # pragma: no cover - failure path
            raise AssertionError("jobs=1 must not enter the supervised pool")

        monkeypatch.setattr(supervisor, "run_supervised", boom)
        _, report = run_campaign(tmp_path, jobs=1)
        assert report.complete

    def test_supervise_key_is_rejected(self):
        with pytest.raises(CampaignError, match="unknown supervision keys"):
            expand_grid(tiny_grid(supervision={"supervise": False}))


VALIDATE = ["validate", "sample_nearest_neighbor", "--procs", "2", "3", "4",
            "--machine", "testing", "--set", "iters=2"]


def validate_output(capsys, *flags):
    assert main(VALIDATE + list(flags)) == 0
    return capsys.readouterr().out


class TestParallelValidation:
    """``repro validate --jobs N`` runs its points as campaign cells on
    the supervised pool and prints exactly the sequential table."""

    def test_series_identical_to_sequential(self, capsys):
        seq = validate_output(capsys, "--jobs", "1")
        par = validate_output(capsys, "--jobs", "2")
        assert par == seq
        assert "MPI-SIM-DE" in seq

    def test_labels_and_no_de_respected(self, capsys):
        seq = validate_output(capsys, "--jobs", "1", "--no-de")
        par = validate_output(capsys, "--jobs", "2", "--no-de")
        assert par == seq
        rows = [line.split() for line in par.splitlines()[3:6]]
        assert [row[0] for row in rows] == ["2", "3", "4"]
        assert all(row[2] == "-" for row in rows)  # no DE column values


GRAMMAR = GrammarConfig(max_stmts=12)


@functools.lru_cache(maxsize=None)
def gen_resolver(app: str):
    """Resolve ``gen-<seed>`` to the :mod:`repro.gen` program of that seed."""
    gen = generate_program(int(app.removeprefix("gen-")), GRAMMAR)
    return gen.program, lambda nprocs: dict(gen.inputs)


# a fault plan as a request carries it: loss, duplication, maybe a crash
fault_plans = st.none() | st.builds(
    lambda seed, loss, dup, crash: canonical_json({
        "seed": seed, "message_loss": loss, "duplication": dup,
        "crashes": [{"rank": 1, "time": crash}] if crash is not None else [],
    }),
    st.integers(0, 5), st.sampled_from((0.0, 0.05, 0.3)),
    st.sampled_from((0.0, 0.1)), st.none() | st.sampled_from((0.0, 1e-4)),
)


class TestJobsOverGeneratedPrograms:
    """``run_cells`` at one and at two jobs returns the same records."""

    @settings(max_examples=5, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=3, unique=True),
        modes=st.lists(st.sampled_from(("de", "am", "measured")), min_size=3, max_size=3),
        nprocs=st.integers(2, 5),
        plan=fault_plans,
        retry=st.sampled_from((None, '{"backoff":0.0001,"max_attempts":4}')),
    )
    def test_records_identical_at_one_and_two_jobs(self, seeds, modes, nprocs,
                                                   plan, retry):
        requests = [
            RunRequest(app=f"gen-{seed}", mode=mode, nprocs=nprocs, seed=seed % 7,
                       fault_plan=plan)
            for seed, mode in zip(seeds, modes)
        ]

        def records(jobs):
            return [
                (r.outcome, r.elapsed, r.stats, r.error, r.attempts, r.budget_kind)
                for r in run_requests(requests, "testing", jobs=jobs, calib_procs=2,
                                      retry_policy=retry, resolver=gen_resolver)
            ]

        assert records(1) == records(2)
