"""The HTTP/JSON service layer: routes, taxonomy, sessions, determinism.

Most tests drive the WSGI app directly (no sockets) through a small
in-process client; the end-to-end tests bind a real ``ThreadingWSGIServer``
on an OS-assigned port and run the seeded hammer against it twice,
asserting the byte-identity property the CI serve-gate enforces.
"""

import io
import json
import threading

import pytest

from repro.api.cluster import Cluster
from repro.api.results import OperationHandle
from repro.errors import ReproError, StructureError
from repro.server import (
    ERROR_HTTP,
    STATUS_HTTP,
    create_app,
    http_status_for,
    http_status_for_error,
    run_hammer,
    serve_background,
)
from repro.server.dashboard import DASHBOARD_HTML, collect_stats
from repro.workloads import uniform_keys

KEYS = uniform_keys(48, seed=7)


def call(app, method, path, body=None, query="", raw=None):
    """Invoke the WSGI app in-process; returns (status, body, headers)."""
    if raw is None:
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    text = b"".join(app(environ, start_response)).decode("utf-8")
    if captured["headers"]["Content-Type"].startswith("application/json"):
        return captured["status"], json.loads(text), captured["headers"]
    return captured["status"], text, captured["headers"]


@pytest.fixture()
def app():
    application = create_app(
        initial=[
            {
                "name": "default",
                "structure": "skipweb1d",
                "items": list(KEYS),
                "seed": 7,
            }
        ]
    )
    yield application
    application.manager.close()


class TestRoutesAndTransport:
    def test_healthz(self, app):
        code, body, _ = call(app, "GET", "/healthz")
        assert code == 200
        assert body == {"status": "ok", "clusters": 1}

    def test_dashboard_pages_are_self_contained_html(self, app):
        for path in ("/", "/dashboard"):
            code, text, headers = call(app, "GET", path)
            assert code == 200
            assert headers["Content-Type"].startswith("text/html")
            assert text == DASHBOARD_HTML
        assert "/dashboard/stats" in DASHBOARD_HTML
        assert "<script" in DASHBOARD_HTML and "http://" not in DASHBOARD_HTML

    def test_unknown_route_is_404(self, app):
        code, body, _ = call(app, "GET", "/nope")
        assert code == 404 and body["error"] == "NotFound"
        code, body, _ = call(app, "POST", "/ops/frobnicate", body={"payload": 1})
        assert code == 404

    def test_wrong_method_is_405_with_allow(self, app):
        code, body, headers = call(app, "DELETE", "/batch")
        assert code == 405
        assert headers["Allow"] == "POST"
        code, _, headers = call(app, "PUT", "/clusters")
        assert code == 405
        assert headers["Allow"] == "GET, POST"

    def test_malformed_json_is_400(self, app):
        code, body, _ = call(app, "POST", "/ops/get", raw=b"{not json")
        assert code == 400 and "JSON" in body["message"]
        code, body, _ = call(app, "POST", "/batch", raw=b"[1, 2]")
        assert code == 400 and "object" in body["message"]

    def test_missing_payload_is_400(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={})
        assert code == 400 and "payload" in body["message"]


class TestClusters:
    def test_list_and_inspect(self, app):
        code, body, _ = call(app, "GET", "/clusters")
        assert code == 200
        assert [c["name"] for c in body["clusters"]] == ["default"]
        code, body, _ = call(app, "GET", "/clusters/default")
        assert code == 200
        assert body["structure"] == "skipweb1d"
        assert body["items_loaded"] == len(KEYS)
        assert body["operations"]["total"] == 0
        assert "workers" not in body

    def test_create_run_delete(self, app):
        spec = {
            "name": "strings",
            "structure": "skiptrie",
            "items": ["alpha", "beta", "gamma"],
            "seed": 1,
        }
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert code == 201 and body["name"] == "strings"
        code, body, _ = call(
            app, "POST", "/ops/get", body={"cluster": "strings", "payload": "beta"}
        )
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(
            app,
            "POST",
            "/ops/range",
            body={"cluster": "strings", "payload": {"prefix": "a"}},
        )
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(app, "DELETE", "/clusters/strings")
        assert code == 200 and body["closed"] == "strings"
        code, _, _ = call(app, "GET", "/clusters/strings")
        assert code == 404

    def test_generated_ground_set_and_unknown_keys(self, app):
        spec = {
            "name": "gen",
            "generate": {"kind": "uniform", "count": 32},
            "seed": 5,
        }
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert code == 201 and body["items_loaded"] == 32
        key = uniform_keys(32, seed=5)[4]
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "gen", "payload": key})
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(app, "POST", "/clusters", body={"name": "x", "bogus": 1})
        assert code == 400 and "bogus" in body["message"]
        code, body, _ = call(app, "POST", "/clusters", body={"name": "x"})
        assert code == 400 and "items" in body["message"]

    def test_workers_key_is_rejected_like_any_unknown_key(self, app):
        spec = {"name": "w", "generate": {"kind": "uniform", "count": 8}, "workers": 2}
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert code == 400
        assert "unknown cluster spec key(s) ['workers']" in body["message"]
        code, _, _ = call(app, "GET", "/clusters/w")
        assert code == 404

    def test_duplicate_name_is_rejected(self, app):
        code, body, _ = call(app, "POST", "/clusters", body={"name": "default", "items": [1.0]})
        assert code == 400 and "already exists" in body["message"]

    def test_unknown_cluster_is_404(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "ghost", "payload": 1.0})
        assert code == 404 and body["error"] == "UnknownResourceError"


class TestOperations:
    def test_get_known_key_is_ok(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[3]})
        assert code == 200
        assert body["status"] == "ok"
        assert body["messages"] > 0 and body["rounds"] > 0
        assert body["cluster"] == "default"

    def test_get_via_query_string(self, app):
        code, body, _ = call(app, "GET", "/ops/get", query=f"payload={KEYS[3]!r}")
        assert code == 200 and body["status"] == "ok"

    def test_range_returns_sorted_hits(self, app):
        low, high = sorted(KEYS)[10], sorted(KEYS)[20]
        code, body, _ = call(app, "POST", "/ops/range", body={"payload": [low, high]})
        assert code == 200 and body["status"] == "ok"

    def test_insert_then_delete_round_trip(self, app):
        code, body, _ = call(app, "POST", "/ops/insert", body={"payload": 123.25})
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(app, "POST", "/ops/delete", body={"payload": 123.25})
        assert code == 200 and body["status"] == "ok"

    def test_bad_range_payload_is_400(self, app):
        code, body, _ = call(app, "POST", "/ops/range", body={"payload": "wat"})
        assert code == 400

    def test_batch_reports_all_handles(self, app):
        operations = [
            {"kind": "get", "payload": KEYS[0]},
            {"kind": "get", "payload": KEYS[1]},
            {"kind": "range", "payload": [KEYS[0], KEYS[0] + 1000.0]},
        ]
        code, body, _ = call(app, "POST", "/batch", body={"operations": operations})
        assert code == 200
        assert body["ops"] == 3
        assert len(body["handles"]) == 3
        assert all(handle["status"] == "ok" for handle in body["handles"])
        assert body["summary"]["messages"] > 0
        code, body, _ = call(app, "POST", "/batch", body={"operations": []})
        assert code == 400


class TestErrorTaxonomy:
    """Satellite: every handle status and typed error -> HTTP code + body."""

    def test_status_table_is_total(self):
        assert set(STATUS_HTTP) == {"ok", "unsupported", "failed", "timed_out", "gave_up"}
        assert STATUS_HTTP["ok"] == 200
        assert STATUS_HTTP["unsupported"] == 422
        assert STATUS_HTTP["failed"] == 409
        assert STATUS_HTTP["timed_out"] == 503
        assert STATUS_HTTP["gave_up"] == 503
        with pytest.raises(ValueError):
            http_status_for("never_heard_of_it")

    @pytest.mark.parametrize("cls,code", ERROR_HTTP)
    def test_every_typed_error_maps(self, cls, code):
        try:
            error = cls("boom")
        except TypeError:
            error = cls.__new__(cls)
        assert http_status_for_error(error) == code

    def test_subclasses_shadow_bases(self):
        # UnsupportedOperationError subclasses the 409 family but must
        # keep its own 422; unknown exception types fall back to 500.
        from repro.errors import UnsupportedOperationError

        assert issubclass(UnsupportedOperationError, ReproError)
        assert http_status_for_error(UnsupportedOperationError("x")) == 422
        assert http_status_for_error(RuntimeError("x")) == 500

    def test_failed_on_the_wire(self, app):
        code, body, _ = call(app, "POST", "/ops/delete", body={"payload": -1.0})
        assert code == 409
        assert body["status"] == "failed"
        assert body["error"] == "UpdateError"
        assert body["error_message"]

    def test_unsupported_on_the_wire(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={"name": "ring", "structure": "chord", "items": list(KEYS[:16])},
        )
        code, body, _ = call(
            app,
            "POST",
            "/ops/range",
            body={"cluster": "ring", "payload": [KEYS[0], KEYS[1]]},
        )
        assert code == 422
        assert body["status"] == "unsupported"
        assert body["error"] == "UnsupportedOperationError"

    def test_timed_out_on_the_wire(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={
                "name": "tight",
                "items": list(KEYS),
                "seed": 7,
                "round_budget": 1,
            },
        )
        # KEYS[3] deterministically needs more than one round as the
        # cluster's first operation, so a round_budget of 1 abandons it.
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "tight", "payload": KEYS[3]})
        assert code == 503
        assert body["status"] == "timed_out"
        assert body["error"] == "OperationTimedOutError"

    def test_gave_up_on_the_wire(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={
                "name": "dark",
                "items": list(KEYS),
                "seed": 7,
                "max_retries": 2,
                "faults": {"rules": [{"kind": "drop", "probability": 1.0}]},
            },
        )
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "dark", "payload": KEYS[2]})
        assert code == 503
        assert body["status"] == "gave_up"
        assert body["error"] == "FaultInjectedError"

    def test_churn_error_is_409(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={"name": "tiny", "items": list(KEYS[:8]), "hosts": 2},
        )
        code, body, _ = call(app, "POST", "/churn/leave", body={"cluster": "tiny"})
        assert code == 409
        assert body["error"] == "ChurnError"


class TestSessions:
    def test_lifecycle_and_accounting(self, app):
        code, first, _ = call(app, "POST", "/sessions", body={})
        assert code == 201 and first["session"] == "s1"
        code, second, _ = call(app, "POST", "/sessions", body={})
        assert code == 201 and second["session"] == "s2"

        for key in KEYS[:3]:
            code, body, _ = call(app, "POST", "/ops/get", body={"payload": key, "session": "s1"})
            assert code == 200 and body["session"] == "s1"
        call(
            app,
            "POST",
            "/batch",
            body={
                "operations": [{"kind": "get", "payload": KEYS[5]}],
                "session": "s2",
            },
        )

        code, body, _ = call(app, "GET", "/sessions")
        assert code == 200
        by_id = {row["session"]: row for row in body["sessions"]}
        assert by_id["s1"]["ops"] == 3 and by_id["s1"]["messages"] > 0
        assert by_id["s2"]["ops"] == 1 and by_id["s2"]["batches"] == 1

        code, final = call(app, "DELETE", "/sessions/s1")[:2]
        assert code == 200 and final["open"] is False and final["ops"] == 3
        code, body, _ = call(app, "GET", "/sessions/s1")
        assert code == 404
        # Billing a closed session is a 404, not silent misaccounting.
        code, _, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[0], "session": "s1"})
        assert code == 404

    def test_session_is_bound_to_its_cluster(self, app):
        call(app, "POST", "/clusters", body={"name": "other", "items": [1.0, 2.0]})
        code, body, _ = call(app, "POST", "/sessions", body={"cluster": "other"})
        sid = body["session"]
        code, body, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[0], "session": sid})
        assert code == 400 and "belongs to cluster" in body["message"]

    def test_open_session_on_missing_cluster_is_404(self, app):
        code, _, _ = call(app, "POST", "/sessions", body={"cluster": "ghost"})
        assert code == 404


class TestChurnEndpoints:
    def test_full_lifecycle(self, app):
        code, event, _ = call(app, "POST", "/churn/join", body={})
        assert code == 200 and event["kind"] == "join"
        code, event, _ = call(app, "POST", "/churn/crash", body={})
        assert code == 200 and event["kind"] == "crash"
        crashed = event["host"]
        # A churn crash self-repairs and *removes* the host, so recovering
        # it is a lifecycle conflict — 409 with the typed ChurnError.
        code, body, _ = call(app, "POST", "/churn/recover", body={"host": crashed})
        assert code == 409 and body["error"] == "ChurnError"
        code, event, _ = call(app, "POST", "/churn/leave", body={})
        assert code == 200 and event["kind"] == "leave"
        assert event["repair_messages"] >= 0
        code, report, _ = call(app, "POST", "/churn/repair", body={"hosts": [crashed]})
        assert code == 200 and report["kind"] == "repair"
        code, body, _ = call(app, "POST", "/churn/repair", body={})
        assert code == 400
        code, body, _ = call(app, "POST", "/churn/explode", body={})
        assert code == 404


class TestDashboard:
    def test_stats_shape(self, app):
        operations = [{"kind": "get", "payload": key} for key in KEYS[:4]] + [
            {"kind": "range", "payload": [min(KEYS), max(KEYS)]}
        ]
        call(app, "POST", "/batch", body={"operations": operations})
        code, body, _ = call(app, "GET", "/dashboard/stats")
        assert code == 200
        row = body["clusters"][0]
        assert row["cluster"] == "default"
        assert row["ops"]["total"] == 5
        assert row["ops"]["by_status"] == {"ok": 5}
        assert row["congestion"]["messages"] > 0
        assert row["stats"]["alive_hosts"] > 0
        assert row["ops_per_sec"] >= 0
        code, body, _ = call(app, "GET", "/dashboard/stats", query="cluster=ghost")
        assert code == 404

    def test_congestion_matches_facade_exactly(self):
        """Acceptance: /dashboard/stats == cluster.round_congestion()."""
        items = uniform_keys(40, seed=11)
        operations = [{"kind": "get", "payload": key} for key in items[:12]] + [
            {"kind": "range", "payload": [items[0], items[0] + 250_000.0]}
        ]
        app = create_app(initial=[{"name": "p", "items": list(items), "seed": 11}])
        code, _, _ = call(app, "POST", "/batch", body={"cluster": "p", "operations": operations})
        assert code == 200
        code, stats, _ = call(app, "GET", "/dashboard/stats", query="cluster=p")
        served_congestion = stats["clusters"][0]["congestion"]

        direct = Cluster(structure="skipweb1d", items=list(items), seed=11)
        direct.batch(
            [
                {
                    "kind": op["kind"],
                    "payload": tuple(op["payload"])
                    if isinstance(op["payload"], list)
                    else op["payload"],
                }
                for op in operations
            ]
        )
        expected = direct.round_congestion().as_dict()
        assert served_congestion == expected
        assert expected["messages"] > 0
        app.manager.close()
        direct.close()

    def test_collect_stats_reads_under_the_lock(self, app):
        # Taking the lock in another thread must block collection, not
        # tear it: release and assert the poll then completes.
        served = app.manager.get_cluster("default")
        acquired = served.lock.acquire()
        assert acquired
        result = {}

        def poll():
            result["stats"] = collect_stats(app.manager)

        thread = threading.Thread(target=poll)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # blocked on the cluster lock
        served.lock.release()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result["stats"]["clusters"][0]["cluster"] == "default"


class TestWireFormats:
    def test_handle_to_dict_is_json_ready(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[0]})
        json.dumps(body)  # must not raise
        assert set(body) >= {
            "index",
            "kind",
            "payload",
            "origin_host",
            "status",
            "messages",
            "rounds",
            "retries",
            "cache_hits",
            "latency",
            "value",
        }

    def test_to_dict_round_trips_without_server(self):
        cluster = Cluster(items=list(KEYS), seed=7)
        handle = cluster.get(KEYS[0])
        data = handle.to_dict()
        json.dumps(data)
        assert data["status"] == "ok" and data["kind"] == "search"
        assert handle.to_dict(include_value=False).get("value") is None
        report = cluster.batch([{"kind": "get", "payload": KEYS[1]}])
        batch_data = report.to_dict()
        json.dumps(batch_data)
        assert batch_data["ops"] == 1
        assert batch_data["handles"][0]["status"] == "ok"
        assert "handles" in report.to_dict(include_values=False)
        cluster.close()

    def test_error_handles_carry_typed_names(self):
        cluster = Cluster(items=list(KEYS), seed=7)
        handle = cluster.delete(-5.0)
        data = handle.to_dict()
        assert data["status"] == "failed"
        assert data["error"] == "UpdateError"
        assert isinstance(data["error_message"], str)
        cluster.close()


class TestClusterClose:
    """Satellite: Cluster.close() is idempotent and thread-safe."""

    def test_double_close_is_a_no_op(self):
        cluster = Cluster(items=list(KEYS[:16]), seed=1)
        cluster.close()
        cluster.close()
        with pytest.raises(StructureError):
            cluster.get(KEYS[0])

    def test_concurrent_close_from_many_threads(self):
        cluster = Cluster(items=list(KEYS[:16]), seed=1)
        errors = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            try:
                cluster.close()
            except Exception as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestEndToEnd:
    def test_real_socket_serve_and_hammer_determinism(self):
        """Acceptance: two seeded hammer runs are byte-identical."""
        app = create_app(
            initial=[
                {
                    "name": "default",
                    "generate": {"kind": "uniform", "count": 48},
                    "seed": 7,
                }
            ]
        )
        server, _thread = serve_background(app, "127.0.0.1", 0)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            kwargs = dict(cluster="default", sessions=3, ops=8, seed=5, items=48, key_seed=7)
            first = run_hammer(url, **kwargs)
            second = run_hammer(url, **kwargs)
            assert first.all_ok and second.all_ok
            blob_a = json.dumps(first.deterministic_report(), sort_keys=True)
            blob_b = json.dumps(second.deterministic_report(), sort_keys=True)
            assert blob_a == blob_b
            assert first.requests == 3 * 8
            assert first.by_http_status == {200: 24}
            # The wall-clock half really is measured, just not compared.
            assert first.requests_per_sec > 0
            assert first.latency_p99_ms >= first.latency_p50_ms >= 0
        finally:
            server.shutdown()
            server.server_close()
            app.manager.close()

    def test_hammer_rejects_unknown_mix(self):
        with pytest.raises(ValueError):
            run_hammer("http://127.0.0.1:1", mix="chaotic")


class TestOperationHandleDict:
    def test_plain_handle_without_error(self):
        handle = OperationHandle(kind="search", payload=1.5, origin_host=3, status="ok", value=None)
        data = handle.to_dict()
        assert "error" not in data
        assert data["payload"] == 1.5 and data["origin_host"] == 3
