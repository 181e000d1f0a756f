"""Round-trip and identity-stability tests for the ``repro.api`` contract.

The content hashes are the system's only notion of run identity —
journals, quarantine artifacts and store entries are all keyed by
them — so they may never drift within a schema version.  The
hypothesis suite proves ``to_json``/``from_json`` is lossless and that
the hash is a pure function of identity fields; the golden file
(``golden_hashes.json``, committed) freezes concrete hash values so a
refactor that silently changes the canonical layout fails loudly.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    MODES,
    ApiError,
    CampaignRequest,
    RunRequest,
    RunResult,
    canonical_json,
    content_hash,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_hashes.json").read_text())


# -- strategies ----------------------------------------------------------------

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)

_numbers = st.one_of(
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

_inputs = st.dictionaries(_names, _numbers, max_size=4)

_run_requests = st.builds(
    lambda app, mode, nprocs, inputs, seed, timeout: RunRequest.from_json({
        "kind": "run_request", "app": app, "mode": mode, "nprocs": nprocs,
        "inputs": inputs, "seed": seed,
        **({"timeout": timeout} if timeout is not None else {}),
    }),
    app=_names, mode=st.sampled_from(MODES),
    nprocs=st.integers(min_value=1, max_value=4096),
    inputs=_inputs, seed=st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    timeout=st.one_of(st.none(), st.floats(min_value=0.001, max_value=1e6,
                                           allow_nan=False)),
)


# -- hypothesis round trips ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_run_requests)
def test_run_request_round_trip(req):
    doc = req.to_json()
    again = RunRequest.from_json(json.loads(canonical_json(doc)))
    assert again == req
    assert again.content_hash() == req.content_hash()


@settings(max_examples=200, deadline=None)
@given(_run_requests)
def test_run_request_hash_is_stable_across_instances(req):
    clone = RunRequest(app=req.app, mode=req.mode, nprocs=req.nprocs,
                       inputs=req.inputs, seed=req.seed,
                       fault_plan=req.fault_plan, timeout=req.timeout)
    assert clone.content_hash() == req.content_hash()
    assert clone.run_id == req.content_hash()  # the compatibility alias


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_names, _numbers, min_size=1, max_size=4))
def test_input_order_never_changes_identity(inputs):
    fwd = RunRequest.from_json(
        {"app": "x", "mode": "de", "nprocs": 2, "inputs": inputs})
    rev = RunRequest.from_json(
        {"app": "x", "mode": "de", "nprocs": 2,
         "inputs": dict(reversed(list(inputs.items())))})
    assert fwd.content_hash() == rev.content_hash()


@settings(max_examples=50, deadline=None)
@given(st.lists(_run_requests, min_size=1, max_size=5,
                unique_by=lambda r: r.content_hash()))
def test_campaign_round_trip_and_context_split(runs):
    req = CampaignRequest(
        name="prop", machine="IBM-SP", runs=tuple(runs),
        calib_procs=4, max_events=10 ** 6,
    ).validate()
    again = CampaignRequest.from_json(json.loads(canonical_json(req.to_json())))
    assert again == req
    assert again.content_hash() == req.content_hash()
    # context hash ignores the run list entirely
    solo = CampaignRequest(name="other", machine="IBM-SP", runs=(runs[0],),
                           calib_procs=4, max_events=10 ** 6)
    assert solo.context_hash() == req.context_hash()
    if len(runs) > 1:
        assert solo.content_hash() != req.content_hash()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["outcome", "elapsed", "stats"]),
       st.integers(min_value=0, max_value=10 ** 9))
def test_run_result_round_trip(field, events):
    res = RunResult(run_id="ab" * 8, outcome="ok", attempts=2, elapsed=1.5,
                    stats={"total_events": events})
    assert RunResult.from_json(res.to_json()) == res
    assert res.events == events
    assert res.ok


# -- the frozen identity layout ------------------------------------------------


def test_golden_run_hashes():
    for entry in GOLDEN["runs"]:
        req = RunRequest.from_json(entry["doc"])
        assert req.content_hash() == entry["content_hash"], (
            "run identity layout drifted — this breaks every existing "
            "journal, quarantine artifact and store; bump SCHEMA_VERSION instead")


def test_golden_campaign_hashes():
    camp = CampaignRequest.from_json(GOLDEN["campaign"]["doc"])
    assert camp.content_hash() == GOLDEN["campaign"]["content_hash"]
    assert camp.context_hash() == GOLDEN["campaign"]["context_hash"]


def test_int_float_inputs_hash_differently():
    """20000 and 20000.0 encode differently in JSON: distinct identities."""
    a = RunRequest.from_json({"app": "x", "mode": "de", "nprocs": 2,
                              "inputs": {"n": 64}})
    b = RunRequest.from_json({"app": "x", "mode": "de", "nprocs": 2,
                              "inputs": {"n": 64.0}})
    assert a.content_hash() != b.content_hash()


def test_content_hash_matches_manual_sha():
    import hashlib

    doc = {"b": 1, "a": [2, 3]}
    expected = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    assert content_hash(doc) == expected


# -- validation rejects --------------------------------------------------------


@pytest.mark.parametrize("doc,fragment", [
    ({"app": "", "mode": "de", "nprocs": 2}, "app"),
    ({"app": "x", "mode": "xx", "nprocs": 2}, "mode"),
    ({"app": "x", "mode": "de", "nprocs": 0}, "nprocs"),
    ({"app": "x", "mode": "de", "nprocs": 2, "inputs": {"n": float("nan")}},
     "finite"),
    ({"app": "x", "mode": "de", "nprocs": 2, "timeout": -1}, "timeout"),
    ({"app": "x", "mode": "de", "nprocs": 2, "schema_version": 99}, "schema"),
])
def test_bad_run_requests_raise_api_error(doc, fragment):
    with pytest.raises(ApiError) as exc:
        RunRequest.from_json(doc)
    assert fragment in str(exc.value).lower() or fragment in exc.value.code


def test_duplicate_runs_rejected():
    run = {"app": "x", "mode": "de", "nprocs": 2}
    with pytest.raises(ApiError, match="duplicate"):
        CampaignRequest.from_json(
            {"name": "dup", "machine": "IBM-SP", "runs": [run, dict(run)]})


@pytest.mark.parametrize("backoff", [-1.0, float("inf"), float("nan")])
def test_bad_backoff_rejected(backoff):
    run = {"app": "x", "mode": "de", "nprocs": 2}
    with pytest.raises(ApiError, match="backoff must be a finite number >= 0"):
        CampaignRequest.from_json(
            {"name": "b", "machine": "IBM-SP", "runs": [run], "backoff": backoff})


def test_api_error_round_trip():
    err = ApiError("quota_events", "slow down", http_status=429, retry_after=2.5)
    doc = err.to_json()
    again = ApiError.from_json(doc, http_status=429)
    assert (again.code, again.retry_after, again.http_status) == \
        ("quota_events", 2.5, 429)


def test_runspec_alias_is_the_api_type():
    from repro.workflow.campaign import RunSpec

    assert RunSpec is RunRequest
