"""The embedded servers' one route table and its generated 404 body."""

import json
import urllib.error
import urllib.request

from repro.obs.monitor import SweepMonitor, SweepStatus
from repro.serve import PlanServer, PlanService

SERVE_ENDPOINTS = [
    "/healthz",
    "/readyz",
    "/status",
    "/metrics",
    "/debug/bundle",
    "POST /plan",
]


def request(url, data=None):
    try:
        with urllib.request.urlopen(url, data=data, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRouteTables:
    def test_serve_404_lists_its_route_table_in_order(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            for data in (None, b"{}"):
                code, doc = request(server.url + "/nope", data)
                assert code == 404
                assert doc["error"] == "unknown path '/nope'"
                assert doc["endpoints"] == SERVE_ENDPOINTS

    def test_monitor_table_has_only_get_routes(self):
        with SweepMonitor(SweepStatus(), port=0) as monitor:
            code, doc = request(monitor.url + "/nope", b"{}")
        assert code == 404
        assert doc["endpoints"] == ["/status", "/metrics", "/logs"]

    def test_query_strings_do_not_change_the_route(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            code, doc = request(server.url + "/healthz?probe=1")
        assert (code, doc) == (200, {"ok": True})
