"""One request, one answer: every command that simulates prints what
``execute_request`` computes for the same request and context.

``repro faults``, ``profile``, ``predict`` (am) and ``validate`` each
describe their runs as :class:`repro.api.RunRequest` objects.  The
elapsed time each prints must equal, at its printed precision, the
elapsed time of :func:`repro.workflow.campaign.execute_request` for
that request under the same machine, ``--calib-procs`` and retry
policy.  In particular a ``measured`` run at ``--seed S`` is the
request at seed S.
"""

import contextlib
import io
import re
from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, canonical_json
from repro.cli import main
from repro.sim.faults import FaultPlan, RetryPolicy
from repro.workflow import format_table
from repro.workflow.campaign import execute_request

APPS = ("sample_nearest_neighbor", "sample_wavefront")


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue()


def printed(value: float) -> str:
    """*value* as the commands' tables print it."""
    return format_table(["x"], [[value]]).splitlines()[-1].strip()


@settings(max_examples=15, deadline=None)
@example(app="sample_nearest_neighbor", mode="measured", nprocs=4, seed=0,
         calib=4, faults=None)
@example(app="sample_wavefront", mode="measured", nprocs=3, seed=1,
         calib=2, faults=(0.1, 2, 16))
@given(
    app=st.sampled_from(APPS),
    mode=st.sampled_from(("de", "am", "measured")),
    nprocs=st.integers(2, 8),
    seed=st.integers(0, 3),
    calib=st.integers(2, 4),
    # (loss rate, fault seed, retry attempts), or no fault plan
    faults=st.none() | st.tuples(st.sampled_from((0.02, 0.1)),
                                 st.integers(0, 3), st.integers(4, 16)),
)
def test_every_command_prints_the_answer_of_its_request(
        app, mode, nprocs, seed, calib, faults):
    common = [app, "--seed", seed, "--calib-procs", calib]

    def answer(mode, nprocs=nprocs, seed=seed, fault_plan=None, retry_policy=None):
        request = RunRequest(app=app, mode=mode, nprocs=nprocs, seed=seed,
                             fault_plan=fault_plan)
        return execute_request(request, calib_procs=calib, retry_policy=retry_policy)

    # faults: the plan rides in the request, --retry in the context
    flags, plan, retry = [], None, None
    if faults is not None:
        loss, fault_seed, attempts = faults
        flags = ["--loss", loss, "--fault-seed", fault_seed,
                 "--retry", f"{attempts}:1e-4"]
        plan = canonical_json(FaultPlan(seed=fault_seed, message_loss=loss).to_dict())
        retry = canonical_json(asdict(RetryPolicy(max_attempts=attempts, backoff=1e-4)))
    rc, out = run_cli("faults", *common, "--mode", mode, "--nprocs", nprocs, *flags)
    rec = answer(mode, fault_plan=plan, retry_policy=retry)
    if rec.outcome == "deadlock":
        assert rc == 2 and "deadlocked under the fault plan" in out
    else:
        assert rc == 0
        assert re.search(r"elapsed\s+: ([0-9.]+)s", out)[1] == f"{rec.elapsed:.6f}"

    rc, out = run_cli("profile", *common, "--mode", mode, "--nprocs", nprocs)
    assert rc == 0
    assert re.search(r"elapsed ([0-9.]+)s", out)[1] == f"{answer(mode).elapsed:.6f}"

    rc, out = run_cli("predict", *common, "--procs", nprocs)
    assert rc == 0
    assert out.splitlines()[-1].split()[1] == printed(answer("am").elapsed)

    # validate: point i measures at seed + 101 + i; de and am run at --seed
    rc, out = run_cli("validate", *common, "--procs", nprocs, nprocs + 1)
    assert rc == 0
    for i, line in enumerate(out.splitlines()[3:5]):
        p = nprocs + i
        assert line.split()[1:4] == [
            printed(answer("measured", nprocs=p, seed=seed + 101 + i).elapsed),
            printed(answer("de", nprocs=p).elapsed),
            printed(answer("am", nprocs=p).elapsed),
        ]
