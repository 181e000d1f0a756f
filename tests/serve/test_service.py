"""In-process tests of the serving core: dedupe, purity, admission
control, and the HTTP layer over a real socket (no subprocess)."""

import os
import queue
import socket
import sys
import threading
import time

import pytest

import repro.serve
from repro.api import ApiError, CampaignRequest, RunRequest
from repro.serve import (
    ReproServer,
    ServiceClient,
    SimulationService,
    TenantGovernor,
    _read_request,
    run_server,
)
from repro.store import ResultStore

APP = "sample_nearest_neighbor"


def _request(nprocs=(2, 4), mode="de", name="t"):
    return CampaignRequest(
        name=name, machine="IBM-SP", calib_procs=2,
        runs=tuple(RunRequest(app=APP, mode=mode, nprocs=p,
                              inputs=(("n", 64),)) for p in nprocs),
    )


@pytest.fixture
def service(tmp_path):
    return SimulationService(ResultStore(tmp_path), jobs=1)


def test_second_submission_is_all_hits_zero_events(service):
    req = _request()
    first = service.serve_campaign(req)
    assert (first.hits, first.misses) == (0, 2)
    assert first.executed_events > 0
    assert all(r.ok for r in first.results)
    second = service.serve_campaign(req)
    assert (second.hits, second.misses) == (2, 0)
    assert second.executed_events == 0  # zero simulator events on a warm hit
    assert [r.to_json() for r in first.results] == \
        [r.to_json() for r in second.results]


def test_overlapping_grids_share_context_entries(service):
    service.serve_campaign(_request(nprocs=(2, 4)))
    executed_before = service.executed_runs
    # different grid, same context: the overlapping cell must be a hit
    mixed = service.serve_campaign(_request(nprocs=(4, 8), name="other"))
    assert mixed.hits == 1 and mixed.misses == 1
    assert service.executed_runs == executed_before + 1


def test_results_ride_the_request_order(service):
    req = _request(nprocs=(8, 2, 4))
    result = service.serve_campaign(req)
    assert [r.run_id for r in result.results] == [r.run_id for r in req.runs]


def test_different_context_never_shares_results(service):
    service.serve_campaign(_request())
    other = CampaignRequest(
        name="budgeted", machine="IBM-SP", calib_procs=2, max_events=10 ** 7,
        runs=_request().runs,
    )
    out = service.serve_campaign(other)
    assert out.misses == 2  # same runs, different context hash: cold


def test_batch_composition_never_shapes_results(tmp_path):
    """An nprocs sweep served as one batch stores the same numbers as
    each cell served alone: with no pinned calib_procs the calibration
    defaults from each run's *own* nprocs, never from whichever cell
    reached the batch first (the content-addressed purity invariant)."""
    def request(nprocs, name):
        return CampaignRequest(
            name=name, machine="testing",
            runs=tuple(RunRequest(app=APP, mode="am", nprocs=p,
                                  inputs=(("iters", 2),)) for p in nprocs),
        )

    batch = SimulationService(ResultStore(tmp_path / "a"), jobs=1) \
        .serve_campaign(request((2, 4), "sweep"))
    solo = SimulationService(ResultStore(tmp_path / "b"), jobs=1) \
        .serve_campaign(request((4,), "solo"))
    assert batch.results[1].run_id == solo.results[0].run_id
    assert batch.results[1].stats == solo.results[0].stats


def test_handle_run_single_query_and_cache(service):
    doc = {"run": RunRequest(app=APP, mode="de", nprocs=2,
                             inputs=(("n", 64),)).to_json(),
           "machine": "IBM-SP", "calib_procs": 2}
    first = service.handle_run(dict(doc))
    assert first["cached"] is False
    assert first["result"]["outcome"] == "ok"
    second = service.handle_run(dict(doc))
    assert second["cached"] is True
    assert second["result"] == first["result"]


def test_miss_batch_leaves_only_store_entries(tmp_path, monkeypatch):
    """A miss batch runs its cells directly: no work directory, no
    campaign journal, and one store.put per cacheable miss (an
    ``error`` outcome is returned but never stored)."""
    store = ResultStore(tmp_path)
    puts = []
    real_put = store.put
    monkeypatch.setattr(store, "put", lambda *a: puts.append(a) or real_put(*a))
    request = CampaignRequest(
        name="mixed", machine="IBM-SP", calib_procs=2,
        runs=(RunRequest(app=APP, mode="de", nprocs=2),
              RunRequest(app=APP, mode="de", nprocs=4),
              RunRequest(app="nas_sp", mode="de", nprocs=2)),  # not square
    )
    out = SimulationService(store, jobs=1).serve_campaign(request)
    assert [r.outcome for r in out.results] == ["ok", "ok", "error"]
    assert sorted(run_id for _, run_id, *_ in puts) == \
        sorted(r.run_id for r in request.runs[:2])
    assert not (tmp_path / "work").exists()
    assert not list(tmp_path.rglob("*journal*"))


def _run_doc(mode, nprocs):
    return {"run": RunRequest(app=APP, mode=mode, nprocs=nprocs,
                              inputs=(("n", 64),)).to_json(),
            "machine": "IBM-SP", "calib_procs": 2}


def test_a_miss_fsyncs_once_per_stored_result(tmp_path, monkeypatch):
    """A put is one log append and one fsync: a de miss fsyncs once, and
    so does an am miss that measures its calibration, whose record rides
    the same write."""
    store = ResultStore(tmp_path)
    service = SimulationService(store, jobs=1)
    service.handle_run(_run_doc("de", 2))  # the store already holds an entry
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
    assert service.handle_run(_run_doc("de", 4))["cached"] is False
    assert len(calls) == 1
    calls.clear()
    assert service.handle_run(_run_doc("am", 4))["cached"] is False
    assert store.stats()["warm_calibrations"] == 1
    assert len(calls) == 1
    store.close()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.jsonl"]


def test_a_calibration_that_cannot_be_stored_fails_no_request(tmp_path, monkeypatch):
    """An am miss that times out after measuring its calibration stores
    no result, only the calibration; when that append fails (here with
    ENOSPC), the request still returns the run's own timeout."""
    import errno

    store = ResultStore(tmp_path)
    writes = []

    def full(fd, data):
        writes.append(fd)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    out = SimulationService(store, jobs=1).handle_run(
        {**_run_doc("am", 2), "max_wall_seconds": 1e-9})
    monkeypatch.undo()
    assert out["result"]["outcome"] == "timeout"
    assert writes  # the calibration's append was tried
    assert store.stats()["entries"] == store.stats()["warm_calibrations"] == 0
    store.close()


def test_a_run_hit_hashes_each_identity_once(service, monkeypatch):
    """A /v1/run hit computes two content hashes, the run id and the
    context, and never re-parses the run it was sent."""
    import repro.api.types

    doc = _run_doc("de", 2)
    first = service.handle_run(dict(doc))
    hashed = []
    real_hash = repro.api.types.content_hash
    monkeypatch.setattr(repro.api.types, "content_hash",
                        lambda d: hashed.append(d) or real_hash(d))
    second = service.handle_run(dict(doc))
    assert second["cached"] is True and second["result"] == first["result"]
    assert len(hashed) == 2


def test_only_am_misses_look_up_a_stored_calibration(tmp_path, monkeypatch):
    """de and measured runs never calibrate, so their misses look up no
    warm calibration; an am miss looks one up once."""
    store = ResultStore(tmp_path)
    lookups = []
    real_lookup = store.calibration
    monkeypatch.setattr(store, "calibration",
                        lambda key: lookups.append(key) or real_lookup(key))
    service = SimulationService(store, jobs=1)
    for mode in ("de", "measured"):
        assert service.handle_run(_run_doc(mode, 2))["result"]["outcome"] == "ok"
    assert lookups == []
    assert service.handle_run(_run_doc("am", 2))["result"]["outcome"] == "ok"
    assert len(lookups) == 1
    store.close()


def _fail_calibration(monkeypatch):
    import repro.workflow.pipeline

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated despite a stored calibration")

    monkeypatch.setattr(repro.workflow.pipeline, "measure_wparams", no_calibration)


def _am_request(nprocs, name="am"):
    # calib_procs is pinned: every cell of one app shares a calibration group
    return CampaignRequest(
        name=name, machine="IBM-SP", calib_procs=2,
        runs=tuple(RunRequest(app=app, mode="am", nprocs=p, inputs=inputs)
                   for app, inputs in ((APP, (("n", 64),)),
                                       ("sample_wavefront", ()))
                   for p in nprocs))


def _cold(tmp_path, request):
    """The results a fresh store returns for *request*, as documents."""
    store = ResultStore(tmp_path / "cold")
    try:
        return [r.to_json() for r in SimulationService(store).serve_campaign(request).results]
    finally:
        store.close()


def test_an_am_miss_warm_starts_after_a_reopen(tmp_path, monkeypatch):
    """A calibration measured before the store was closed and reopened
    primes a later am miss of its group: no calibration run, and the
    bytes a cold run returns."""
    later = _am_request((4,), name="later")
    want = _cold(tmp_path, later)
    store = ResultStore(tmp_path / "store")
    SimulationService(store).serve_campaign(_am_request((2,)))
    assert store.stats()["warm_calibrations"] == 2
    store.close()
    store = ResultStore(tmp_path / "store")
    _fail_calibration(monkeypatch)
    out = SimulationService(store).serve_campaign(later)
    assert out.misses == 2
    assert [r.to_json() for r in out.results] == want
    store.close()


def test_a_jobs_2_batch_warm_starts_from_an_earlier_batch(tmp_path, monkeypatch):
    """Supervised workers ship the calibrations they measure back to the
    server, which stores them; the workers of a later batch start from
    them."""
    later = _am_request((4, 8), name="later")
    want = _cold(tmp_path, later)
    store = ResultStore(tmp_path / "store")
    service = SimulationService(store, jobs=2)
    first = service.serve_campaign(_am_request((2,)))
    assert [r.outcome for r in first.results] == ["ok", "ok"]
    assert store.stats()["warm_calibrations"] == 2
    _fail_calibration(monkeypatch)  # forked workers inherit the patch
    out = service.serve_campaign(later)
    assert (out.hits, out.misses) == (0, 4)
    assert [r.to_json() for r in out.results] == want
    store.close()


def test_an_am_cell_of_an_unknown_app_errors_alone(service):
    """A cell whose calibration key cannot be computed ends as its own
    error outcome; the rest of the batch runs and is stored."""
    request = CampaignRequest(
        name="unknown", machine="IBM-SP", calib_procs=2,
        runs=(RunRequest(app="no_such_app", mode="am", nprocs=2),
              RunRequest(app=APP, mode="am", nprocs=2, inputs=(("n", 64),))))
    out = service.serve_campaign(request)
    assert [r.outcome for r in out.results] == ["error", "ok"]
    assert "no_such_app" in out.results[0].error
    assert service.store.stats()["entries"] == 1
    assert service.store.stats()["warm_calibrations"] == 1


def test_nas_sp_query_defaults_calibration_to_its_own_nprocs(service):
    """With no calib_procs pinned, calibration follows the campaign rule
    min(nprocs, 16), so NAS SP (square rank counts only) is servable."""
    doc = {"run": RunRequest(app="nas_sp", mode="de", nprocs=4).to_json()}
    out = service.handle_run(doc)
    assert out["result"]["outcome"] == "ok", out["result"]["error"]


def test_handle_campaign_accepts_raw_grid(service):
    grid = {"app": APP, "modes": ["de"], "nprocs": [2], "calib_procs": 2}
    out = service.handle_campaign(dict(grid))
    assert out["misses"] == 1 and out["outcomes"] == {"ok": 1}
    again = service.handle_campaign(dict(grid))
    assert again["hits"] == 1 and again["executed_events"] == 0


def test_handle_campaign_rejects_bad_grid(service):
    with pytest.raises(ApiError, match="nprocs"):
        service.handle_campaign({"app": APP, "nprocs": []})
    with pytest.raises(ApiError, match="JSON object"):
        service.handle_run([1, 2, 3])


# -- admission control ---------------------------------------------------------


def test_governor_inflight_cap():
    gov = TenantGovernor(max_inflight=1)
    gov.admit("a")
    with pytest.raises(ApiError) as exc:
        gov.admit("a")
    assert exc.value.http_status == 429
    assert exc.value.retry_after is not None
    gov.admit("b")  # other tenants unaffected
    gov.release("a")
    gov.admit("a")  # released slot admits again


def test_governor_event_bucket_post_paid():
    clock = [0.0]
    gov = TenantGovernor(max_inflight=8, events_per_second=100.0,
                         burst_seconds=1.0, clock=lambda: clock[0])
    gov.admit("a")
    gov.charge("a", 600)  # burn far past the 100-token burst
    gov.release("a")
    with pytest.raises(ApiError) as exc:
        gov.admit("a")
    assert exc.value.code == "quota_events"
    assert exc.value.retry_after == pytest.approx(5.0)  # 500 deficit / 100 eps
    clock[0] += 5.5  # refill clears the debt
    gov.admit("a")


def test_charge_is_per_request_not_a_global_delta(tmp_path):
    """Events another tenant's concurrent batch adds to the service-wide
    counter while this request is in flight must not be billed here."""
    governor = TenantGovernor(max_inflight=4, events_per_second=100.0,
                              burst_seconds=1.0, clock=lambda: 0.0)
    service = SimulationService(ResultStore(tmp_path), governor=governor)
    server = ReproServer(service)

    def handler(doc):
        service.executed_events += 10_000  # the other tenant's batch lands
        return {"hits": 1, "misses": 0, "executed_events": 0}

    service.handle_campaign = handler
    raw = server._dispatch("POST", "/v1/campaign", {"x-tenant": "bystander"}, b"{}")
    assert raw.startswith(b"HTTP/1.1 200")
    governor.admit("bystander")  # charged zero: still fully admitted


# -- the HTTP layer ------------------------------------------------------------


@pytest.mark.parametrize("value", ["banana", "-1", "12abc"])
def test_read_request_rejects_bad_content_length(value):
    client, conn = socket.socketpair()
    with client, conn:
        client.sendall(
            f"POST /v1/run HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode())
        with pytest.raises(ApiError) as exc:
            _read_request(conn)
    assert exc.value.http_status == 400
    assert "Content-Length" in exc.value.message


class _Server:
    """run_server on a daemon thread, bound to an ephemeral port."""

    def __init__(self, tmp_path, **kw):
        self.ready = threading.Event()
        self.server = None

        def on_ready(server):
            self.server = server
            self.ready.set()

        self.thread = threading.Thread(
            target=run_server,
            kwargs=dict(store_dir=tmp_path, port=0, ready=on_ready, **kw),
            daemon=True)
        self.thread.start()
        assert self.ready.wait(15), "server failed to start"

    def client(self, **kw) -> ServiceClient:
        return ServiceClient(port=self.server.port, **kw)

    def stop(self):
        self.server.stopping.set()  # the event the SIGTERM handler sets
        self.thread.join(15)


def test_http_round_trip_and_stats(tmp_path):
    srv = _Server(tmp_path)
    try:
        client = srv.client()
        assert client.health() == {"status": "ok"}
        req = _request()
        first = client.campaign(req)
        assert first.misses == 2 and all(r.ok for r in first.results)
        second = client.campaign(req)
        assert second.hits == 2 and second.executed_events == 0
        stats = client.stats()
        assert stats["store"]["entries"] == 2
        assert stats["server"]["executed_runs"] == 2
        # content-addressed GET of one stored result
        res = client.result(req.context_hash(), req.runs[0].run_id)
        assert res.ok
        with pytest.raises(ApiError) as exc:
            client.result(req.context_hash(), "0" * 16)
        assert exc.value.http_status == 404
    finally:
        srv.stop()


def test_http_quota_returns_429_with_retry_after(tmp_path):
    srv = _Server(tmp_path, events_per_second=1.0)
    try:
        client = srv.client(tenant="greedy")
        client.campaign(_request())  # post-paid: drives the bucket negative
        with pytest.raises(ApiError) as exc:
            client.campaign(_request(nprocs=(8,)))
        assert exc.value.http_status == 429
        assert exc.value.code == "quota_events"
        assert exc.value.retry_after > 0
        # an unrelated tenant is not throttled
        other = srv.client(tenant="frugal")
        assert other.campaign(_request(name="frugal")).hits == 2
    finally:
        srv.stop()


def test_http_invalid_grid_body_is_400(tmp_path):
    """A grid body gets the validation a typed campaign request gets."""
    srv = _Server(tmp_path)
    try:
        with pytest.raises(ApiError, match="invalid grid: retries") as exc:
            srv.client()._request("POST", "/v1/campaign", {
                "app": APP, "nprocs": [2], "calib_procs": 2, "retries": -2})
        assert exc.value.http_status == 400
        assert srv.server.service.store.stats()["entries"] == 0
    finally:
        srv.stop()


def test_http_bad_requests(tmp_path):
    srv = _Server(tmp_path)
    try:
        client = srv.client()
        with pytest.raises(ApiError) as exc:
            client._request("POST", "/v1/run", {"app": "", "mode": "de",
                                                "nprocs": 2})
        assert exc.value.http_status == 400
        with pytest.raises(ApiError) as exc:
            client._request("GET", "/nope")
        assert exc.value.http_status == 404
        with pytest.raises(ApiError) as exc:
            client._request("POST", "/v1/campaign", None)
        assert exc.value.http_status == 400
    finally:
        srv.stop()


# -- the accept threads --------------------------------------------------------


def _slow_run_doc():
    """A miss that simulates for a few seconds."""
    return {"run": RunRequest(app=APP, mode="de", nprocs=16,
                              inputs=(("iters", 4000),)).to_json(),
            "calib_procs": 2}


def test_http_hit_answers_while_a_slow_miss_runs(tmp_path):
    srv = _Server(tmp_path)
    service = srv.server.service
    client = srv.client()
    slow = threading.Thread(
        target=lambda: client._request("POST", "/v1/run", _slow_run_doc()))
    try:
        client._request("POST", "/v1/run", _run_doc("de", 2))  # stored
        slow.start()
        for _ in range(500):  # until the miss holds the execution lock
            if service._exec_lock.locked():
                break
            slow.join(0.01)
        assert service._exec_lock.locked(), "the slow miss never started"
        t0 = time.monotonic()
        assert client.health() == {"status": "ok"}
        assert client._request("POST", "/v1/run", _run_doc("de", 2))["cached"]
        assert time.monotonic() - t0 < 3.0
        assert slow.is_alive()  # answered during the miss, not after it
    finally:
        slow.join(60)
        srv.stop()
    assert not slow.is_alive()


def test_http_tenant_over_its_inflight_cap_gets_a_prompt_429(tmp_path):
    """max_inflight + 1 accept threads: a tenant's third concurrent
    request finds a thread free to refuse it while two are held."""
    srv = _Server(tmp_path, max_inflight=2)
    gate = threading.Event()

    def held(doc):
        gate.wait(30)
        return {"executed_events": 0}

    srv.server.service.handle_run = held
    replies = queue.Queue()

    def ask():
        try:
            replies.put(srv.client(tenant="t")._request("POST", "/v1/run", {}))
        except ApiError as exc:
            replies.put(exc)

    askers = [threading.Thread(target=ask) for _ in range(3)]
    try:
        for asker in askers:
            asker.start()
        refused = replies.get(timeout=10)  # while the other two are held
        assert isinstance(refused, ApiError), refused
        assert (refused.http_status, refused.code) == (429, "quota_inflight")
        assert refused.retry_after == 1.0
    finally:
        gate.set()
        for asker in askers:
            asker.join(10)
        srv.stop()
    assert [replies.get_nowait() for _ in range(2)] == [{"executed_events": 0}] * 2


def test_http_idle_connection_is_closed_at_the_read_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(repro.serve, "READ_DEADLINE_S", 0.5)
    srv = _Server(tmp_path)
    try:
        with socket.create_connection(("127.0.0.1", srv.server.port), timeout=10) as idle:
            t0 = time.monotonic()
            assert srv.client().health() == {"status": "ok"}  # meanwhile
            assert idle.recv(1) == b""  # closed without a reply
            assert 0.4 < time.monotonic() - t0 < 5.0
        assert srv.client().health() == {"status": "ok"}  # its thread lives on
    finally:
        srv.stop()


def test_http_concurrent_hits_count_every_request(tmp_path):
    """Every accept thread counts its requests: none is lost when many
    threads count at once (a tiny switch interval forces interleaving).
    Each asker is its own tenant with one request in flight, so the
    per-tenant in-flight cap never refuses one."""
    store = ResultStore(tmp_path)
    SimulationService(store).handle_run(_run_doc("de", 2))
    store.close()
    srv = _Server(tmp_path)
    hits, per_thread = [], 25

    def ask(tenant):
        client = srv.client(tenant=tenant)
        for _ in range(per_thread):
            hits.append(client._request("POST", "/v1/run", _run_doc("de", 2))["cached"])

    askers = [threading.Thread(target=ask, args=(f"asker-{i}",)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(60)
        assert not any(asker.is_alive() for asker in askers)
        stats = srv.client().stats()
    finally:
        sys.setswitchinterval(interval)
        srv.stop()
    assert hits == [True] * 200
    assert stats["store"]["hits"] == 200
    assert stats["server"]["requests"] == 200 + 1  # the hits and the stats request
