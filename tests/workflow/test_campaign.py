"""Tests for resumable campaigns: journaling, resume, budgets, outcomes."""

import json
import os
import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRequest
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HEARTBEAT
from repro.workflow.campaign import (
    JOURNAL_NAME,
    RESULTS_NAME,
    CampaignError,
    CampaignInterrupted,
    CampaignRunner,
    expand_grid,
    format_campaign_report,
    load_grid,
)


def tiny_grid(**overrides):
    """A fast three-run grid on the noise-free testing machine."""
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


class TestGridExpansion:
    def test_cross_product(self):
        cfg = expand_grid(tiny_grid(modes=["de", "am"], fault_plans=[None, {"message_loss": 0.1}]))
        assert len(cfg.request.runs) == 3 * 2 * 2

    def test_missing_app_rejected(self):
        grid = tiny_grid()
        del grid["app"]
        with pytest.raises(CampaignError, match="missing 'app'"):
            expand_grid(grid)

    def test_unknown_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown keys"):
            expand_grid(tiny_grid(frobnicate=True))

    def test_bad_mode_rejected(self):
        with pytest.raises(CampaignError, match="unknown mode"):
            expand_grid(tiny_grid(modes=["turbo"]))

    def test_bad_fault_plan_rejected(self):
        with pytest.raises(CampaignError, match="bad fault plan"):
            expand_grid(tiny_grid(fault_plans=[{"message_loss": 7.0}]))

    def test_bad_nprocs_rejected(self):
        with pytest.raises(CampaignError, match="processor count"):
            expand_grid(tiny_grid(nprocs=[0]))

    def test_duplicate_cells_rejected(self):
        with pytest.raises(CampaignError, match="duplicate runs"):
            expand_grid(tiny_grid(nprocs=[2, 2]))

    @pytest.mark.parametrize("overrides, match", [
        ({"calib_procs": -1}, "calib_procs must be an integer >= 1"),
        ({"budgets": {"max_events": -5}}, "max_events must be a positive number"),
        ({"retries": -2}, "retries must be an integer >= 0"),
        ({"retries": "x"}, "invalid literal"),
        ({"backoff": -1}, "backoff must be a finite number >= 0"),
        ({"timeout": -1.0}, "timeout must be a positive number"),
        ({"inputs": {"grain": "big"}}, "is not a number"),
        ({"modes": []}, "campaign has no runs"),
        ({"supervision": {"heartbeat_timeout": 0}}, "supervision.heartbeat_timeout"),
        ({"supervision": {"heartbeat_timeout": -1}}, "supervision.heartbeat_timeout"),
        ({"supervision": {"heartbeat_timeout": float("inf")}},
         "supervision.heartbeat_timeout"),
        ({"supervision": {"checkpoint_interval": 2000}}, "unknown supervision keys"),
    ], ids=["calib-procs", "max-events", "retries", "retries-str", "backoff",
            "timeout", "input-str", "no-modes", "hb-zero", "hb-negative", "hb-inf",
            "checkpoint-interval"])
    def test_invalid_grid_is_a_campaign_error(self, overrides, match):
        """A grid gets the validation a typed CampaignRequest gets."""
        with pytest.raises(CampaignError, match=match) as exc:
            expand_grid(tiny_grid(**overrides))
        assert str(exc.value).startswith("invalid grid: ")

    def test_null_heartbeat_timeout_turns_hang_detection_off(self):
        assert expand_grid(tiny_grid()).heartbeat_timeout == 30.0
        off = expand_grid(tiny_grid(supervision={"heartbeat_timeout": None}))
        assert off.heartbeat_timeout is None

    def test_load_grid_errors_are_campaign_errors(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            load_grid(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CampaignError, match="not valid JSON"):
            load_grid(bad)


class TestIdentity:
    def test_run_id_is_content_hash(self):
        a = RunRequest("app", "de", 4, (("n", 64),))
        b = RunRequest("app", "de", 4, (("n", 64),))
        c = RunRequest("app", "de", 8, (("n", 64),))
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id

    def test_config_hash_tracks_budgets(self):
        plain = expand_grid(tiny_grid())
        budgeted = expand_grid(tiny_grid(budgets={"max_events": 10}))
        assert plain.request.content_hash() != budgeted.request.content_hash()
        assert plain.request.content_hash() == \
            expand_grid(tiny_grid()).request.content_hash()


class TestServingCalibrationGroups:
    """calib_from_spec: the calibration is a pure function of the spec."""

    def _runner(self, tmp_path, calib_procs=None):
        cfg = expand_grid(tiny_grid(modes=["am"], nprocs=[2, 4]))
        cfg.calib_from_spec = True
        cfg.request = replace(cfg.request, calib_procs=calib_procs)
        return CampaignRunner(cfg, tmp_path / "out"), cfg.request.runs

    def test_default_calib_nprocs_follows_each_spec(self, tmp_path):
        # an nprocs sweep with no pinned calib_procs: whichever cell
        # executes first must not donate its calibration to the others
        runner, (s2, s4) = self._runner(tmp_path)
        wf2 = runner._workflow_for(s2)
        wf4 = runner._workflow_for(s4)
        assert wf2 is not wf4
        assert (wf2.calib_nprocs, wf4.calib_nprocs) == (2, 4)

    def test_pinned_calib_procs_shares_one_group(self, tmp_path):
        runner, (s2, s4) = self._runner(tmp_path, calib_procs=3)
        wf2 = runner._workflow_for(s2)
        assert runner._workflow_for(s4) is wf2
        assert wf2.calib_nprocs == 3

    def test_grid_mode_still_groups_by_app_and_seed(self, tmp_path):
        cfg = expand_grid(tiny_grid(modes=["am"], nprocs=[2, 4]))
        runner = CampaignRunner(cfg, tmp_path / "out")
        s2, s4 = cfg.request.runs
        assert runner._workflow_for(s4) is runner._workflow_for(s2)


class TestExecution:
    def test_full_campaign_completes(self, tmp_path):
        runner, report = run_campaign(tmp_path)
        assert report.complete and not report.interrupted
        assert report.executed == 3 and report.skipped == 0
        assert report.outcomes["ok"] == 3
        assert (tmp_path / "out" / JOURNAL_NAME).exists()
        assert report.results_path == tmp_path / "out" / RESULTS_NAME
        assert report.results_path.exists()
        assert "results written" in format_campaign_report(report)

    def test_existing_journal_requires_resume(self, tmp_path):
        run_campaign(tmp_path)
        with pytest.raises(CampaignError, match="already exists"):
            run_campaign(tmp_path)

    def test_resume_without_journal_warns_and_runs(self, tmp_path, caplog, monkeypatch):
        import logging

        # the CLI may have installed a non-propagating handler on "repro"
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(logging.WARNING, logger="repro.workflow.campaign"):
            _, report = run_campaign(tmp_path, resume=True)
        assert report.complete
        assert any("starting fresh" in r.getMessage() for r in caplog.records)


class TestKillAndResume:
    def test_resume_skips_completed_and_is_bit_identical(self, tmp_path):
        # uninterrupted reference campaign
        _, ref = run_campaign(tmp_path, sub="ref")
        # "crash" after 1 journal record, then resume
        _, partial = run_campaign(tmp_path, sub="crashed", max_runs=1)
        assert partial.stopped and not partial.complete
        assert len(partial.records) == 1
        _, resumed = run_campaign(tmp_path, sub="crashed", resume=True)
        assert resumed.complete
        assert resumed.skipped == 1  # the pre-crash run was not re-executed
        assert resumed.executed == 2
        # bit-identical artifacts: results.csv and the journal's run records
        assert (
            (tmp_path / "crashed" / RESULTS_NAME).read_bytes()
            == (tmp_path / "ref" / RESULTS_NAME).read_bytes()
        )
        ref_runs = _run_records(tmp_path / "ref" / JOURNAL_NAME)
        res_runs = _run_records(tmp_path / "crashed" / JOURNAL_NAME)
        assert res_runs == ref_runs

    def test_resume_is_bit_identical_for_calibrating_mode(self, tmp_path):
        # 'am' calibrates once per (app, seed).  The calibration basis must
        # be a function of the grid — not of whichever spec executes first —
        # or a resume (which skips completed runs) calibrates differently
        # and diverges from the uninterrupted campaign.  IBM-SP's noisy
        # ground truth makes the wparams sensitive to the calibration
        # nprocs, so any divergence shows up in the results bytes.
        grid = tiny_grid(modes=["am"], machine="IBM-SP")
        _, ref = run_campaign(tmp_path, grid=grid, sub="ref")
        assert ref.complete and ref.outcomes["ok"] == 3
        _, partial = run_campaign(tmp_path, grid=grid, sub="crashed", max_runs=1)
        assert partial.stopped and len(partial.records) == 1
        _, resumed = run_campaign(tmp_path, grid=grid, sub="crashed", resume=True)
        assert resumed.complete and resumed.skipped == 1
        assert (
            (tmp_path / "crashed" / RESULTS_NAME).read_bytes()
            == (tmp_path / "ref" / RESULTS_NAME).read_bytes()
        )

    def test_resume_after_truncated_campaign_journal(self, tmp_path):
        # simulate a harder crash: journal cut back to header + first record
        _, _ = run_campaign(tmp_path, sub="cut")
        journal = tmp_path / "cut" / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")
        (tmp_path / "cut" / RESULTS_NAME).unlink()
        _, resumed = run_campaign(tmp_path, sub="cut", resume=True)
        assert resumed.complete and resumed.executed == 2 and resumed.skipped == 1

    def test_config_hash_mismatch_refused(self, tmp_path):
        run_campaign(tmp_path)
        other = CampaignRunner(
            expand_grid(tiny_grid(nprocs=[2, 3])), tmp_path / "out"
        )
        with pytest.raises(CampaignError, match="different campaign"):
            other.execute(resume=True)

    def test_corrupt_journal_is_a_campaign_error(self, tmp_path):
        run_campaign(tmp_path)
        journal = tmp_path / "out" / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines.insert(1, "{torn record")  # mid-journal: unrecoverable
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CampaignError, match="corrupt journal"):
            run_campaign(tmp_path, resume=True)

    def test_torn_final_journal_line_is_dropped_on_resume(self, tmp_path):
        # A crash can tear only the *final* line; the loader drops it
        # with a warning, and the resume re-runs just that lost record.
        _, report = run_campaign(tmp_path)
        journal = tmp_path / "out" / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        _, resumed = run_campaign(tmp_path, resume=True)
        assert resumed.complete
        assert resumed.executed == 1  # exactly the torn record re-ran
        assert {r.outcome for r in resumed.records.values()} == {
            r.outcome for r in report.records.values()
        }

    def test_sigterm_interrupts_between_runs_and_resumes(self, tmp_path):
        cfg = expand_grid(tiny_grid())
        runner = CampaignRunner(cfg, tmp_path / "out")
        handler_before = signal.getsignal(signal.SIGTERM)
        real = runner._simulate
        calls = []

        def deliver_sigterm_on_second_run(spec):
            calls.append(spec.run_id)
            if len(calls) == 2:
                os.kill(os.getpid(), signal.SIGTERM)  # handler raises immediately
            return real(spec)

        runner._simulate = deliver_sigterm_on_second_run
        report = runner.execute()
        assert report.interrupted and not report.complete
        assert len(report.records) == 1  # run 2 was in flight, not journaled
        docs = [json.loads(line)
                for line in (tmp_path / "out" / JOURNAL_NAME).read_text().splitlines()]
        assert docs[-1]["type"] == "interrupted"
        assert docs[-1]["signal"] == signal.SIGTERM
        assert "INTERRUPTED" in format_campaign_report(report)
        # previous handlers restored
        assert signal.getsignal(signal.SIGTERM) == handler_before
        # resume finishes the remaining runs
        resumed = CampaignRunner(cfg, tmp_path / "out").execute(resume=True)
        assert resumed.complete and resumed.executed == 2 and resumed.skipped == 1


#: de and am cells, so an interrupt can land in the calibration run; the
#: noisy IBM-SP ground truth makes a calibration that drifts show in the bytes
INTERRUPT_GRID = tiny_grid(modes=["de", "am"], machine="IBM-SP")


def _beating_campaign(out, telemetry=False, interrupt_at=None):
    """Run INTERRUPT_GRID into *out* with a heartbeat on every event of
    every simulation, calibration runs included; the *interrupt_at*-th
    beat of the campaign raises ``CampaignInterrupted(SIGTERM)``, as the
    signal handler does.  Returns the report and the beats counted."""
    beats = 0

    def sink(cursor):
        nonlocal beats
        beats += 1
        if beats == interrupt_at:
            raise CampaignInterrupted(signal.SIGTERM)

    real = Simulator._execute

    def execute_beating(sim):
        HEARTBEAT.enable()  # restart the stride: beat from event 1
        return real(sim)

    HEARTBEAT.configure(sink, interval_events=1, min_interval_s=0)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Simulator, "_execute", execute_beating)
            report = CampaignRunner(expand_grid(INTERRUPT_GRID), out,
                                    telemetry=telemetry).execute(jobs=1)
    finally:
        HEARTBEAT.disable()
    return report, beats


class TestInterruptInsideARun:
    """A campaign interrupted at any event of any run resumes to the bytes
    of an uninterrupted one: the interrupted run has no record and re-runs
    from event zero."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The uninterrupted results.csv and run records, and the number
        of events a campaign can be interrupted at."""
        out = tmp_path_factory.mktemp("reference")
        report = CampaignRunner(expand_grid(INTERRUPT_GRID), out).execute()
        assert report.complete
        _, beats = _beating_campaign(tmp_path_factory.mktemp("count"))
        return ((out / RESULTS_NAME).read_bytes(),
                _run_records(out / JOURNAL_NAME), beats)

    @pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "telemetry"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_resume_after_interrupt_at_any_event_is_bit_identical(
            self, reference, tmp_path_factory, telemetry, data):
        results, records, beats = reference
        k = data.draw(st.integers(1, beats), label="interrupted at event")
        out = tmp_path_factory.mktemp("interrupted")
        report, _ = _beating_campaign(out, telemetry, interrupt_at=k)
        assert report.interrupted and not report.complete
        assert not (out / RESULTS_NAME).exists()
        resumed = CampaignRunner(expand_grid(INTERRUPT_GRID), out,
                                 telemetry=telemetry).execute(resume=True)
        assert resumed.complete and not resumed.interrupted
        # the run the interrupt landed in had no record: it ran again
        assert resumed.executed == len(records) - len(report.records)
        assert (out / RESULTS_NAME).read_bytes() == results
        assert _run_records(out / JOURNAL_NAME) == records


class TestOutcomeClassification:
    def test_event_budget_classified_as_budget(self, tmp_path):
        _, report = run_campaign(tmp_path, grid=tiny_grid(budgets={"max_events": 5}))
        assert report.outcomes["budget"] == 3
        rec = next(iter(report.records.values()))
        assert rec.budget_kind == "events"
        assert rec.stats is not None  # partial stats journaled

    def test_wall_budget_classified_as_timeout(self, tmp_path):
        _, report = run_campaign(
            tmp_path, grid=tiny_grid(budgets={"max_wall_seconds": 1e-9})
        )
        assert report.outcomes["timeout"] == 3
        assert all(r.budget_kind == "wall_time" for r in report.records.values())

    def test_crash_fault_plan_classified_as_deadlock(self, tmp_path):
        grid = tiny_grid(
            nprocs=[3],
            fault_plans=[{"crashes": [{"rank": 0, "time": 0.0}]}],
        )
        _, report = run_campaign(tmp_path, grid=grid)
        assert report.outcomes["deadlock"] == 1
        rec = next(iter(report.records.values()))
        assert rec.error  # the deadlock diagnosis is journaled

    def test_transient_error_retried_with_backoff(self, tmp_path):
        cfg = expand_grid(tiny_grid(nprocs=[2], retries=2, backoff=0.01))
        sleeps = []
        runner = CampaignRunner(cfg, tmp_path / "out", sleep=sleeps.append)
        real = runner._simulate
        attempts = []

        def flaky(spec):
            attempts.append(spec.run_id)
            if len(attempts) < 3:
                raise OSError("transient filesystem hiccup")
            return real(spec)

        runner._simulate = flaky
        report = runner.execute()
        assert report.outcomes["ok"] == 1
        rec = next(iter(report.records.values()))
        assert rec.attempts == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_persistent_error_recorded_after_retries(self, tmp_path):
        cfg = expand_grid(tiny_grid(nprocs=[2], retries=1, backoff=0.0))
        runner = CampaignRunner(cfg, tmp_path / "out", sleep=lambda s: None)

        def always_fails(spec):
            raise OSError("stuck")

        runner._simulate = always_fails
        report = runner.execute()
        rec = next(iter(report.records.values()))
        assert rec.outcome == "error" and rec.attempts == 2
        assert "OSError" in rec.error
        # a later resume re-runs the failed cell (now healthy)
        resumed = CampaignRunner(cfg, tmp_path / "out").execute(resume=True)
        assert resumed.outcomes["ok"] == 1 and resumed.complete


def _run_records(journal_path):
    docs = [json.loads(line) for line in journal_path.read_text().splitlines()]
    return [d for d in docs if d["type"] == "run"]
