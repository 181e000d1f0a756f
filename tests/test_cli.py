"""Tests for the command-line interface."""

import re

import pytest

from repro import apps
from repro.cli import APPS, build_parser, main

from .measure.test_compiled_calibration import REFUSED, unlowerable_nas_sp


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_validate_args(self):
        args = build_parser().parse_args(
            ["validate", "tomcatv", "--procs", "4", "8", "--no-de"]
        )
        assert args.app == "tomcatv" and args.procs == [4, 8] and args.no_de


class TestCommands:
    def test_apps_lists_everything(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in APPS:
            assert name in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["compile", "linpack"])

    def test_compile(self, capsys):
        assert main(["compile", "tomcatv"]) == 0
        out = capsys.readouterr().out
        assert "condensed region" in out
        assert "call delay(" in out
        assert "read_and_broadcast" in out

    def test_stg(self, capsys):
        assert main(["stg", "tomcatv"]) == 0
        out = capsys.readouterr().out
        assert "STG(tomcatv)" in out

    def test_predict(self, capsys):
        assert main(["predict", "tomcatv", "--procs", "4", "--calib-procs", "4",
                     "--set", "n=128", "--set", "itmax=2"]) == 0
        out = capsys.readouterr().out
        assert "MPI-SIM-AM predictions" in out

    def test_validate(self, capsys):
        assert main(["validate", "tomcatv", "--procs", "4", "--calib-procs", "4",
                     "--set", "n=128", "--set", "itmax=2"]) == 0
        out = capsys.readouterr().out
        assert "%err AM" in out and "max AM error" in out

    def test_validate_no_de(self, capsys):
        assert main(["validate", "tomcatv", "--procs", "2", "--calib-procs", "2",
                     "--set", "n=64", "--set", "itmax=2", "--no-de"]) == 0
        out = capsys.readouterr().out
        assert "MPI-SIM-DE" in out  # column exists, values dashed

    def test_memory(self, capsys):
        assert main(["memory", "tomcatv", "--procs", "4", "--set", "n=1024"]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out

    def test_bad_override(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(["predict", "tomcatv", "--procs", "2", "--set", "oops"])

    def test_machine_selection(self, capsys):
        assert main(["memory", "tomcatv", "--procs", "4",
                     "--machine", "SGI-Origin-2000", "--set", "n=256"]) == 0
        assert "SGI-Origin-2000" in capsys.readouterr().out

    def test_unknown_machine(self, capsys):
        assert main(["memory", "tomcatv", "--procs", "4", "--machine", "Cray-T3E"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown machine 'Cray-T3E'; known machines: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["query", "tomcatv", "--nprocs", "4"],
        ["validate", "tomcatv", "--procs", "4", "--calib-procs", "4"],
        ["compile", "tomcatv"],
        ["calibrate", "tomcatv", "--calib-procs", "2"],
        ["fuzz", "--seeds", "1"],
    ], ids=lambda argv: argv[0])
    def test_unknown_machine_in_every_command(self, argv, tmp_path, capsys, monkeypatch):
        """One line and exit 2 before anything runs: no run reaches the
        campaign runner, and nothing is written."""
        from repro.workflow.campaign import CampaignRunner

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(CampaignRunner, "run_one", no_run)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--machine", "Cray-T3E"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown machine 'Cray-T3E'; known machines: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestCalibrate:
    def test_writes_parameter_file(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["calibrate", "tomcatv", "--calib-procs", "2",
                     "--set", "n=64", "--set", "itmax=1", "-o", str(out)]) == 0
        from repro.measure import load_params

        params = load_params(out)
        assert set(params) == {"w_residual", "w_tridiag_solve", "w_mesh_update"}
        assert "parameters written" in capsys.readouterr().out

    def test_seed_changes_the_parameter_file(self, tmp_path):
        """--seed is the measurement noise seed: two seeds, two files."""
        paths = [tmp_path / f"w{seed}.json" for seed in (1, 2)]
        for seed, out in zip((1, 2), paths):
            assert main(["calibrate", "sample_wavefront", "--calib-procs", "4",
                         "--seed", str(seed), "-o", str(out)]) == 0
        assert paths[0].read_bytes() != paths[1].read_bytes()


class TestArgumentHardening:
    def test_zero_nprocs_rejected(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["faults", "sample_nearest_neighbor", "--nprocs", "0"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err

    def test_negative_procs_rejected(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["predict", "tomcatv", "--procs", "-3"])
        assert ei.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_unknown_app_one_line(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["faults", "linpack"])

    @pytest.mark.parametrize("command", [
        "query", "faults", "validate", "predict", "calibrate", "profile",
        "memory", "compile", "stg",
    ])
    def test_unknown_app_rejected_before_anything_runs(self, command, monkeypatch):
        """One resolver: every command, inline ``query`` included, turns
        an unknown app into the same line before any run starts."""
        from repro.workflow.campaign import CampaignRunner

        def run_one(*args, **kwargs):  # pragma: no cover - the failure path
            raise AssertionError("an unknown app reached the campaign runner")

        monkeypatch.setattr(CampaignRunner, "run_one", run_one)
        with pytest.raises(SystemExit,
                           match=r"^unknown app 'linpack'; run 'python -m repro apps'$"):
            main([command, "linpack"])

    def test_seed_reproduces_measured_output(self, capsys):
        argv = ["faults", "sample_nearest_neighbor", "--nprocs", "4",
                "--mode", "measured", "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_seed_changes_measured_output(self, capsys):
        base = ["faults", "sample_nearest_neighbor", "--nprocs", "4",
                "--mode", "measured"]
        assert main(base + ["--seed", "1"]) == 0
        a = capsys.readouterr().out
        assert main(base + ["--seed", "2"]) == 0
        assert capsys.readouterr().out != a


class TestFaultsCommand:
    APP = "sample_nearest_neighbor"

    def test_fault_free_run(self, capsys):
        assert main(["faults", self.APP, "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Resilience report" in out
        assert "crashed ranks     : none" in out

    def test_crash_run_reports_and_exits_2(self, capsys):
        rc = main(["faults", self.APP, "--nprocs", "4", "--crash", "2@0.01"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "deadlocked under the fault plan" in out
        assert "rank 2: crashed" in out
        assert "wait chains" in out

    def test_loss_with_retry(self, capsys):
        assert main(["faults", self.APP, "--nprocs", "4",
                     "--loss", "0.05", "--retry", "8:1e-4"]) == 0
        out = capsys.readouterr().out
        assert "retries" in out

    def test_sweep_table(self, capsys):
        assert main(["faults", self.APP, "--nprocs", "4",
                     "--sweep", "0.05", "0.1", "--retry", "8:1e-4"]) == 0
        out = capsys.readouterr().out
        assert "Fault sweep" in out and "slowdown %" in out

    def test_plan_file_loaded(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 1, "crashes": [{"rank": 0, "time": 0.0}]}))
        rc = main(["faults", self.APP, "--nprocs", "4", "--plan", str(plan)])
        assert rc == 2
        assert "rank 0: crashed" in capsys.readouterr().out

    def test_bad_plan_file(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"gremlins": true}')
        with pytest.raises(SystemExit, match="cannot load fault plan"):
            main(["faults", self.APP, "--nprocs", "4", "--plan", str(plan)])

    def test_bad_crash_spec(self):
        with pytest.raises(SystemExit, match="RANK@TIME"):
            main(["faults", self.APP, "--nprocs", "4", "--crash", "oops"])

    def test_crash_rank_beyond_world(self):
        with pytest.raises(SystemExit, match="crashes rank 9"):
            main(["faults", self.APP, "--nprocs", "4", "--crash", "9@0.1"])

    def test_bad_retry_spec(self):
        with pytest.raises(SystemExit, match="--retry expects"):
            main(["faults", self.APP, "--nprocs", "4", "--retry", "a:b"])

    def test_invalid_loss_probability(self):
        with pytest.raises(SystemExit, match="invalid fault plan"):
            main(["faults", self.APP, "--nprocs", "4", "--loss", "1.5"])

    def test_degrade_flag(self, capsys):
        assert main(["faults", self.APP, "--nprocs", "4",
                     "--degrade", "*:*:0:1:10:0.1"]) == 0
        assert "Resilience report" in capsys.readouterr().out


class TestVersionAndLogging:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        from repro import __version__

        assert f"repro {__version__}" in capsys.readouterr().out

    def test_verbose_sets_info_level(self):
        import logging

        assert main(["-v", "apps"]) == 0
        assert logging.getLogger("repro").level == logging.INFO
        main(["apps"])  # plain invocation restores the quiet default
        assert logging.getLogger("repro").level == logging.WARNING

    def test_log_level_overrides_verbose(self):
        import logging

        assert main(["-v", "--log-level", "debug", "apps"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        main(["apps"])

    def test_unknown_log_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            main(["--log-level", "chatty", "apps"])

    def test_measured_run_logs_seed_breadcrumb(self):
        import io
        import logging

        from repro import mpi
        from repro.machine import TESTING_MACHINE
        from repro.obs.logging import configure_logging
        from repro.sim import ExecMode, Simulator

        stream = io.StringIO()
        root = logging.getLogger("repro")
        for handler in list(root.handlers):  # drop handlers bound to old streams
            root.removeHandler(handler)
        configure_logging(logging.INFO, stream=stream)
        try:

            def prog(rank, size):
                yield mpi.compute(ops=100)

            Simulator(
                2, prog, TESTING_MACHINE, mode=ExecMode.MEASURED, seed=17
            ).run()
        finally:
            text = stream.getvalue()
            for handler in list(root.handlers):
                root.removeHandler(handler)
            configure_logging(logging.WARNING)
        assert "measured run:" in text
        assert "seed=17" in text
        assert TESTING_MACHINE.name in text


class TestFaultsCsv:
    def test_csv_written_with_fault_columns(self, tmp_path, capsys):
        import csv

        out = tmp_path / "ranks.csv"
        assert main(["faults", "sample_nearest_neighbor", "--nprocs", "4",
                     "--loss", "0.05", "--retry", "8:1e-4",
                     "--csv", str(out)]) == 0
        assert "per-rank statistics written" in capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert "retries" in rows[0] and "crashed" in rows[0]


class TestProfileCommand:
    APP = "sample_nearest_neighbor"
    SMALL = ["--set", "grain=1000", "--set", "iters=2", "--nprocs", "4"]

    def test_summary_and_spans(self, capsys):
        assert main(["profile", self.APP, *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "Profile: sample_nearest_neighbor (de, 4 procs" in out
        assert "4 procs" in out
        assert "sim.run" in out  # the span table
        assert "host (ms)" in out and "virtual (s)" in out

    def test_critical_path_and_comm_matrix(self, capsys):
        assert main(["profile", self.APP, *self.SMALL,
                     "--critical-path", "--comm-matrix"]) == 0
        out = capsys.readouterr().out
        assert "Critical path:" in out
        assert "Communication matrix: 4 ranks" in out

    def test_scaling_loss(self, capsys):
        assert main(["profile", self.APP, "--set", "grain=1000", "--set", "iters=2",
                     "--nprocs", "4", "--scaling-loss", "--procs", "2", "8"]) == 0
        out = capsys.readouterr().out
        assert "Scaling-loss report" in out
        assert "P = [2, 4, 8]" in out

    def test_perfetto_export_valid(self, tmp_path, capsys):
        import json

        path = tmp_path / "profile.json"
        assert main(["profile", self.APP, *self.SMALL, "--perfetto", str(path)]) == 0
        assert "Perfetto trace written" in capsys.readouterr().out
        from repro.obs import validate_perfetto

        doc = json.loads(path.read_text())
        validate_perfetto(doc)
        assert doc["otherData"]["app"] == self.APP
        # both clocks present: rank timelines plus the host-span process
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert {0, 1, 2, 3, 4} <= pids

    def test_metrics_trace_and_stats_outputs(self, tmp_path, capsys):
        import csv
        import json

        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.jsonl.gz"
        stats = tmp_path / "s.csv"
        assert main(["profile", self.APP, *self.SMALL,
                     "--metrics", str(metrics), "--trace", str(trace),
                     "--stats", str(stats)]) == 0
        capsys.readouterr()
        lines = [json.loads(x) for x in metrics.read_text().splitlines()]
        assert any(s["name"] == "sim_runs_total" for s in lines)
        from repro.sim import load_trace

        assert load_trace(trace).nprocs == 4
        with open(stats) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_profile_disables_instrumentation_after_run(self):
        from repro.obs import METRICS, TRACER

        assert main(["profile", self.APP, *self.SMALL]) == 0
        assert TRACER.enabled is False
        assert METRICS.enabled is False

    @pytest.mark.parametrize("app, env, active, lowered, cache", [
        ("sample_wavefront", "interpreted", "interpreted", 0, "0 hit(s) / 0 miss(es)"),
        ("sample_wavefront", "compiled", "compiled", 1, "0 hit(s) / 1 miss(es)"),
        ("sample_wavefront", None, "compiled", 1, "0 hit(s) / 1 miss(es)"),
        ("nas_sp", "interpreted", "interpreted", 0, "0 hit(s) / 0 miss(es)"),
        ("nas_sp", None, "compiled", 1, "0 hit(s) / 1 miss(es)"),
    ], ids=["wavefront-interpreted", "wavefront-compiled", "wavefront-auto",
            "nas_sp-interpreted", "nas_sp-auto"])
    def test_backend_line_counts_the_lowering_the_command_did(
            self, app, env, active, lowered, cache, monkeypatch, capsys):
        """``active=`` names the kernel the traced run ran, read from its
        ``sim.run`` span; the counters cover the whole command, whose
        traced run lowers a fresh program.  A program that cannot lower
        is refused under ``REPRO_BACKEND=compiled`` (TestRefusedRunOneLine)."""
        monkeypatch.setattr(apps, "_BUILT", {})
        if env is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", env)
        assert main(["profile", app, "--nprocs", "4"]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if "backend:" in x)
        m = re.fullmatch(r"  backend: active=(.+); lowered (\d+) "
                         r"program\(s\) in (\d+\.\d) ms, cache (.+)", line)
        assert m, line
        assert m.group(1, 4) == (active, cache)
        assert int(m.group(2)) == lowered
        assert (float(m.group(3)) > 0) == (lowered > 0)

    def test_am_mode(self, capsys):
        assert main(["profile", "tomcatv", "--nprocs", "4", "--mode", "am",
                     "--calib-procs", "4", "--set", "n=64", "--set", "itmax=1"]) == 0
        out = capsys.readouterr().out
        assert "workflow.calibrate" in out  # AM profiles include the calibration span
        assert "sim.run" in out


class TestRefusedRunOneLine:
    """A run the simulator refuses ends every command that makes it with
    the one line a failed request prints, on the request path
    (``predict --method am``) or off it, and writes nothing.  Every
    shipped app lowers, so the compiled refusals run an app registered
    here whose kernels cannot."""

    COMPILED = f"backend='compiled' cannot run this program: {REFUSED}"
    NOT_SQUARE = "NAS SP requires a square number of processes, got 3"

    @pytest.fixture(autouse=True)
    def _unlowerable_app(self, monkeypatch):
        monkeypatch.setitem(apps.APPS, "unlowerable_sp",
                            (unlowerable_nas_sp, apps.APPS["nas_sp"][1]))

    @pytest.mark.parametrize("argv, described, reason", [
        (["profile", "unlowerable_sp", "--nprocs", "4"], "unlowerable_sp/de P=4", COMPILED),
        (["profile", "unlowerable_sp", "--nprocs", "4", "--mode", "am", "--calib-procs", "4"],
         "unlowerable_sp/am P=4", COMPILED),
        (["calibrate", "unlowerable_sp", "--calib-procs", "4"], "unlowerable_sp/am P=4",
         COMPILED),
        (["predict", "unlowerable_sp", "--procs", "4", "--calib-procs", "4",
          "--method", "sum"], "unlowerable_sp/am P=4", COMPILED),
        (["predict", "unlowerable_sp", "--procs", "4", "--calib-procs", "4",
          "--method", "taskgraph"], "unlowerable_sp/am P=4", COMPILED),
        (["predict", "unlowerable_sp", "--procs", "4", "--calib-procs", "4",
          "--method", "am"], "unlowerable_sp/am P=4", COMPILED),
        (["profile", "nas_sp", "--nprocs", "3"], "nas_sp/de P=3", NOT_SQUARE),
    ], ids=["profile", "profile-am", "calibrate", "predict-sum", "predict-taskgraph",
            "predict-am", "profile-not-square"])
    def test_one_line_and_exit_1(self, argv, described, reason, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as ei:
            main(argv)
        # a string code is printed to stderr with exit status 1
        assert ei.value.code == f"error: {described} finished error: ValueError: {reason}"
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_profile_instrumentation_disabled_after_the_failure(self, monkeypatch):
        from repro.obs import METRICS, TRACER

        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        with pytest.raises(SystemExit):
            main(["profile", "unlowerable_sp", "--nprocs", "4"])
        assert TRACER.enabled is False
        assert METRICS.enabled is False


class TestPredictMethods:
    def test_taskgraph_method(self, capsys):
        assert main(["predict", "tomcatv", "--procs", "4", "--calib-procs", "4",
                     "--set", "n=64", "--set", "itmax=1", "--method", "taskgraph"]) == 0
        out = capsys.readouterr().out
        assert "task-graph analytical predictions" in out

    def test_sum_method(self, capsys):
        assert main(["predict", "tomcatv", "--procs", "4", "--calib-procs", "4",
                     "--set", "n=64", "--set", "itmax=1", "--method", "sum"]) == 0
        out = capsys.readouterr().out
        assert "per-rank-sum" in out and "imbalance" in out

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["predict", "tomcatv", "--procs", "4", "--method", "psychic"])


class TestQuery:
    def test_server_that_is_down_is_one_line(self, capsys):
        import socket

        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            server = f"127.0.0.1:{sock.getsockname()[1]}"
        assert main(["query", "sample_nearest_neighbor", "--nprocs", "4",
                     "--server", server]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot reach server {server}: ")
        assert len(captured.err.strip().splitlines()) == 1


class TestCampaign:
    """The `repro campaign` subcommand: grids, resume, one-line errors."""

    def grid_file(self, tmp_path, **overrides):
        import json

        grid = {
            "name": "cli-tiny",
            "machine": "testing",
            "app": "sample_nearest_neighbor",
            "nprocs": [2, 3],
            "inputs": {"grain": 1000, "msg": 512, "iters": 2},
        }
        grid.update(overrides)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return str(path)

    def test_campaign_runs_to_completion(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["campaign", "--grid", self.grid_file(tmp_path),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "2 ok" in text and "results written" in text
        assert (out / "campaign.journal.jsonl").exists()
        assert (out / "results.csv").exists()

    def test_max_runs_then_resume_is_bit_identical(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        ref, out = tmp_path / "ref", tmp_path / "out"
        assert main(["campaign", "--grid", grid, "--out", str(ref)]) == 0
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--max-runs", "1"]) == 0
        text = capsys.readouterr().out
        assert "STOPPED" in text and "--resume" in text
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--resume"]) == 0
        text = capsys.readouterr().out
        assert "skipped 1 already-complete" in text
        assert (out / "results.csv").read_bytes() == (ref / "results.csv").read_bytes()

    def test_resume_hint_includes_overrides(self, tmp_path, capsys):
        # budgets and machine feed the config hash: a hint without them
        # would be refused as belonging to a different campaign
        grid = self.grid_file(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--max-wall", "60", "--max-events", "100000",
                     "--max-runs", "1"]) == 0
        text = capsys.readouterr().out
        hint = next(line for line in text.splitlines()
                    if line.startswith("resume with: "))
        assert "--max-wall 60" in hint and "--max-events 100000" in hint
        assert hint.rstrip().endswith("--resume")
        # the printed hint actually works: replay it through the CLI
        argv = hint.removeprefix("resume with: ").split()
        assert argv[:4] == ["python", "-m", "repro", "campaign"]
        assert main(argv[3:]) == 0
        assert "skipped 1 already-complete" in capsys.readouterr().out

    def test_corrupt_journal_one_line_error(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "--grid", grid, "--out", str(out)]) == 0
        capsys.readouterr()
        journal = out / "campaign.journal.jsonl"
        lines = journal.read_text().splitlines()
        lines.insert(1, "{torn")  # mid-journal corruption is unrecoverable
        journal.write_text("\n".join(lines) + "\n")
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1  # no traceback

    def test_torn_final_journal_line_resumes(self, tmp_path, capsys):
        # the documented torn-append hazard: dropped with a warning,
        # resume completes instead of erroring
        grid = self.grid_file(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "--grid", grid, "--out", str(out)]) == 0
        capsys.readouterr()
        journal = out / "campaign.journal.jsonl"
        journal.write_text(journal.read_text() + '{"type": "run", "run')
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--resume"]) == 0

    def test_torn_final_telemetry_line_keeps_telemetry(self, tmp_path, capsys):
        # a torn capsule append is truncated by the resume's first
        # append, so the merged timeline and `repro inspect` still read
        # (three cells: two resumed appends land after the torn line)
        grid = self.grid_file(tmp_path, nprocs=[2, 3, 4])
        out = tmp_path / "out"
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--max-runs", "1"]) == 0
        telemetry = out / "telemetry.jsonl"
        telemetry.write_text(telemetry.read_text() + '{"type": "capsule", "run')
        assert main(["campaign", "--grid", grid, "--out", str(out),
                     "--resume"]) == 0
        assert (out / "campaign.perfetto.json").exists()
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        captured = capsys.readouterr()
        assert "unreadable" not in captured.out + captured.err

    def test_config_hash_mismatch_one_line_error(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "--grid", grid, "--out", str(out)]) == 0
        capsys.readouterr()
        other = self.grid_file(tmp_path, nprocs=[2])
        assert main(["campaign", "--grid", other, "--out", str(out),
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "different campaign" in err

    def test_resume_without_journal_starts_fresh(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        assert main(["campaign", "--grid", grid, "--out", str(tmp_path / "new"),
                     "--resume"]) == 0
        assert "2 ok" in capsys.readouterr().out

    def test_missing_grid_one_line_error(self, tmp_path, capsys):
        assert main(["campaign", "--grid", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot read grid" in err

    @pytest.mark.parametrize("where", ["flag", "grid"])
    def test_unknown_machine_is_one_line_error_before_any_run(
            self, tmp_path, capsys, where):
        machine = {"machine": "NO-SUCH"} if where == "grid" else {}
        flags = ["--machine", "NO-SUCH"] if where == "flag" else []
        out = tmp_path / "out"
        assert main(["campaign", "--grid", self.grid_file(tmp_path, **machine),
                     "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown machine 'NO-SUCH'" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()  # no journal: nothing ran

    def test_negative_retries_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--grid", self.grid_file(tmp_path), "--out", str(out),
                  "--retries", "-1"])
        assert exc.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_flags_flow_into_outcomes(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        assert main(["campaign", "--grid", grid, "--out", str(tmp_path / "out"),
                     "--max-events", "5"]) == 0
        text = capsys.readouterr().out
        assert "2 budget" in text

    def test_campaign_disables_instrumentation_after_run(self, tmp_path):
        from repro.obs import METRICS, TRACER

        assert main(["campaign", "--grid", self.grid_file(tmp_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert TRACER.enabled is False
        assert METRICS.enabled is False


class TestCampaignTelemetryCli:
    """`repro campaign --live` progress and the telemetry artifacts."""

    def grid_file(self, tmp_path, **overrides):
        import json

        grid = {
            "name": "cli-tiny",
            "machine": "testing",
            "app": "sample_nearest_neighbor",
            "nprocs": [2, 3],
            "inputs": {"grain": 1000, "msg": 512, "iters": 2},
        }
        grid.update(overrides)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return str(path)

    def test_campaign_writes_telemetry_artifacts_by_default(self, tmp_path, capsys):
        import json

        from repro.obs import validate_perfetto

        out = tmp_path / "out"
        assert main(["campaign", "--grid", self.grid_file(tmp_path),
                     "--out", str(out)]) == 0
        assert "merged telemetry timeline" in capsys.readouterr().out
        assert (out / "telemetry.jsonl").exists()
        doc = json.loads((out / "campaign.perfetto.json").read_text())
        validate_perfetto(doc)
        assert doc["otherData"]["merged_capsules"] == 2

    def test_no_telemetry_flag_suppresses_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["campaign", "--grid", self.grid_file(tmp_path),
                     "--out", str(out), "--no-telemetry"]) == 0
        capsys.readouterr()
        assert not (out / "telemetry.jsonl").exists()
        assert not (out / "campaign.perfetto.json").exists()

    def test_live_progress_reports_every_run(self, tmp_path, capsys):
        assert main(["campaign", "--grid", self.grid_file(tmp_path),
                     "--out", str(tmp_path / "out"), "--live"]) == 0
        captured = capsys.readouterr()
        # non-TTY: one plain progress line per completed run
        lines = [ln for ln in captured.err.splitlines() if "ok" in ln]
        assert len(lines) == 2
        assert "1/2" in lines[0] and "2/2" in lines[1]
        assert "events/s" in lines[-1] and "ETA" in lines[-1]

    def test_live_progress_counts_failures(self, tmp_path, capsys):
        grid = self.grid_file(
            tmp_path, nprocs=[3],
            fault_plans=[{"crashes": [{"rank": 0, "time": 0.0}]}])
        assert main(["campaign", "--grid", grid,
                     "--out", str(tmp_path / "out"), "--live"]) == 0
        err = capsys.readouterr().err
        assert "1 failed" in err


class TestInspectCommand:
    """`repro inspect` on campaign directories and flight-dump files."""

    def _campaign(self, tmp_path, **overrides):
        import json

        grid = {
            "name": "cli-tiny",
            "machine": "testing",
            "app": "sample_nearest_neighbor",
            "nprocs": [2, 3],
            "inputs": {"grain": 1000, "msg": 512, "iters": 2},
        }
        grid.update(overrides)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "out"
        assert main(["campaign", "--grid", str(grid_path), "--out", str(out)]) == 0
        return out

    def test_inspect_campaign_dir_renders_timeline_and_metrics(self, tmp_path, capsys):
        out = self._campaign(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Campaign: cli-tiny" in text
        assert "2/2 runs journaled, 2 ok, 0 failed" in text
        assert "Campaign timeline (merged capsules)" in text
        assert "Aggregate campaign metrics" in text

    def test_inspect_renders_failed_run_flight_dump(self, tmp_path, capsys):
        out = self._campaign(
            tmp_path, nprocs=[3],
            fault_plans=[{"crashes": [{"rank": 0, "time": 0.0}]}])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "finished deadlock" in text
        assert "Flight recorder dump" in text
        assert "wait chains:" in text

    def test_inspect_run_prefix_filter(self, tmp_path, capsys):
        import json

        out = self._campaign(tmp_path)
        capsys.readouterr()
        docs = [json.loads(x) for x in
                (out / "campaign.journal.jsonl").read_text().splitlines()]
        run_id = next(d["run_id"] for d in docs if d.get("type") == "run")
        assert main(["inspect", str(out), "--run", run_id[:8]]) == 0
        text = capsys.readouterr().out
        assert "1/2 runs journaled" in text
        assert main(["inspect", str(out), "--run", "zzzz"]) == 2
        assert "no journaled run" in capsys.readouterr().err

    def test_inspect_perfetto_export(self, tmp_path, capsys):
        import json

        from repro.obs import validate_perfetto

        out = self._campaign(tmp_path)
        trace = tmp_path / "merged.json"
        capsys.readouterr()
        assert main(["inspect", str(out), "--perfetto", str(trace)]) == 0
        capsys.readouterr()
        validate_perfetto(json.loads(trace.read_text()))

    def test_inspect_flight_dump_file(self, tmp_path, capsys):
        dump = tmp_path / "flight.json"
        rc = main(["faults", "sample_nearest_neighbor", "--nprocs", "4",
                   "--crash", "0@0.0", "--flight-dump", str(dump)])
        assert rc == 2
        capsys.readouterr()
        assert main(["inspect", str(dump)]) == 0
        text = capsys.readouterr().out
        assert "Flight recorder dump" in text
        assert "wait chains:" in text

    def test_inspect_missing_path_errors(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_inspect_non_campaign_dir_errors(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 2
        assert "campaign.journal.jsonl" in capsys.readouterr().err


class TestSupervisionCli:
    """New campaign flags and the inspect rendering of supervision state."""

    def test_campaign_parser_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--grid", "g.json",
             "--heartbeat-timeout", "5", "--poison-threshold", "3"]
        )
        assert args.heartbeat_timeout == 5.0
        assert args.poison_threshold == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--grid", "g.json", "--checkpoint-interval", "100000"])

    def _campaign(self, tmp_path):
        import json

        grid = {
            "name": "cli-sup",
            "machine": "testing",
            "app": "sample_nearest_neighbor",
            "nprocs": [2, 3],
            "inputs": {"grain": 1000, "msg": 512, "iters": 2},
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "out"
        assert main(["campaign", "--grid", str(grid_path), "--out", str(out),
                     "--no-telemetry", "--heartbeat-timeout", "30"]) == 0
        return out

    def test_inspect_renders_hung_cursor_checkpoint_and_quarantine(
            self, tmp_path, capsys):
        import json

        from repro.util.atomic_io import append_jsonl

        out = self._campaign(tmp_path)
        capsys.readouterr()
        docs = [json.loads(x) for x in
                (out / "campaign.journal.jsonl").read_text().splitlines()]
        runs = [d for d in docs if d.get("type") == "run"]
        hung_id, poison_id = runs[0]["run_id"], runs[1]["run_id"]
        config_hash = docs[0]["config_hash"]
        # a later hung record supersedes run 0 (last record wins)
        append_jsonl(out / "campaign.journal.jsonl", {
            "type": "run", "run_id": hung_id, "index": 0, "outcome": "hung",
            "attempts": 1, "elapsed": None, "stats": None,
            "error": "no heartbeat for 31.0s (deadline 30s); killed worker",
            "cursor": {"events": 4096, "virtual_time": 1.5,
                       "wall_seconds": 12.0, "staleness_s": 31.0},
        })
        # a replay cursor an older release left for run 1: ignored
        ck_dir = out / "checkpoints"
        ck_dir.mkdir()
        (ck_dir / f"{poison_id}.json").write_text(json.dumps({
            "format": 1, "run_id": poison_id, "config_hash": config_hash,
            "seed": 0, "events": 200000, "virtual_time": 2.5,
            "wall_seconds": 40.0, "rng_state": None, "stats": None,
        }))
        q_dir = out / "quarantine"
        q_dir.mkdir()
        (q_dir / f"{poison_id}.json").write_text(json.dumps({
            "format": 1, "run_id": poison_id, "strikes": 2,
            "error": "quarantined after 2 worker strike(s)",
            "reproducer": {"minimized": True, "original_stmts": 12,
                           "final_stmts": 3, "checks": 7},
        }))
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "finished hung" in text
        assert "last cursor: event 4096" in text
        assert "stale for 31.0s at death" in text
        assert "checkpoint" not in text.lower()
        assert "event 200000" not in text
        assert f"Quarantined run {poison_id} (2 strike(s))" in text
        assert "minimized reproducer: 12 -> 3 statements" in text

    def test_inspect_run_filter_applies_to_supervision_artifacts(
            self, tmp_path, capsys):
        import json

        out = self._campaign(tmp_path)
        docs = [json.loads(x) for x in
                (out / "campaign.journal.jsonl").read_text().splitlines()]
        runs = [d for d in docs if d.get("type") == "run"]
        keep_id, drop_id = runs[0]["run_id"], runs[1]["run_id"]
        q_dir = out / "quarantine"
        q_dir.mkdir()
        for rid in (keep_id, drop_id):
            (q_dir / f"{rid}.json").write_text(json.dumps({
                "format": 1, "run_id": rid, "strikes": 2, "error": "boom",
                "reproducer": {"minimized": False, "note": "skipped"},
            }))
        capsys.readouterr()
        assert main(["inspect", str(out), "--run", keep_id[:8]]) == 0
        text = capsys.readouterr().out
        assert f"Quarantined run {keep_id}" in text
        assert f"Quarantined run {drop_id}" not in text
        assert "reproducer: skipped" in text


class TestFaultsFlightDump:
    APP = "sample_nearest_neighbor"

    def test_deadlock_writes_dump_and_exits_2(self, tmp_path, capsys):
        import json

        dump_path = tmp_path / "flight.json"
        rc = main(["faults", self.APP, "--nprocs", "4",
                   "--crash", "1@0.01", "--flight-dump", str(dump_path)])
        assert rc == 2
        assert "flight dump written" in capsys.readouterr().out
        dump = json.loads(dump_path.read_text())
        assert dump["events"]
        assert dump["wait_chain"]["crashed"]

    def test_clean_run_still_writes_history(self, tmp_path):
        import json

        dump_path = tmp_path / "flight.json"
        assert main(["faults", self.APP, "--nprocs", "4",
                     "--flight-dump", str(dump_path)]) == 0
        dump = json.loads(dump_path.read_text())
        assert dump["events"] and "wait_chain" not in dump

    def test_recorder_disabled_after_command(self, tmp_path):
        from repro.sim.flightrec import FLIGHT

        main(["faults", self.APP, "--nprocs", "4",
              "--crash", "0@0.0", "--flight-dump", str(tmp_path / "f.json")])
        assert FLIGHT.enabled is False


class TestProfileOut:
    APP = "sample_nearest_neighbor"
    SMALL = ["--set", "grain=1000", "--set", "iters=2", "--nprocs", "4"]

    def test_out_dir_collects_artifacts_with_manifest(self, tmp_path, capsys):
        import json

        out = tmp_path / "prof"
        assert main(["profile", self.APP, *self.SMALL, "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["app"] == self.APP
        assert manifest["nprocs"] == 4
        for name in manifest["artifacts"].values():
            assert (out / name).exists(), name
        assert set(manifest["artifacts"]) >= {"perfetto", "metrics", "stats"}

    def test_out_dir_respects_explicit_paths(self, tmp_path, capsys):
        import json

        out = tmp_path / "prof"
        elsewhere = tmp_path / "elsewhere.json"
        assert main(["profile", self.APP, *self.SMALL, "--out", str(out),
                     "--perfetto", str(elsewhere)]) == 0
        capsys.readouterr()
        assert elsewhere.exists()
        manifest = json.loads((out / "manifest.json").read_text())
        # an artifact redirected outside --out is recorded by absolute path
        assert manifest["artifacts"]["perfetto"] == str(elsewhere)


class TestOutcomeWarnings:
    """A finished run that is not ok is reported once: by the table or
    line a command prints, or, for a campaign, by one WARNING."""

    @pytest.fixture
    def warnings_logged(self):
        import logging

        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro")
        logger.addHandler(handler)
        yield records
        logger.removeHandler(handler)

    def test_printed_outcomes_are_not_also_logged(self, warnings_logged, capsys):
        main(["faults", "sample_nearest_neighbor", "--nprocs", "8",
              "--sweep", "0.02", "0.1", "1.0"])
        assert capsys.readouterr().out.count("DEADLOCK") == 3
        with pytest.raises(SystemExit, match="finished error"):
            main(["validate", "nas_sp", "--procs", "2", "--calib-procs", "4"])
        assert [r.getMessage() for r in warnings_logged] == []

    def test_a_campaign_logs_each_failed_run_once(self, tmp_path, warnings_logged):
        import json

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "deadlock", "machine": "testing",
            "app": "sample_nearest_neighbor", "nprocs": [3],
            "inputs": {"grain": 1000, "msg": 512, "iters": 2},
            "fault_plans": [{"crashes": [{"rank": 0, "time": 0.0}]}]}))
        main(["campaign", "--grid", str(grid), "--out", str(tmp_path / "out")])
        messages = [r.getMessage() for r in warnings_logged]
        assert len(messages) == 1 and "finished deadlock" in messages[0], messages
