"""The HTTP status service: endpoints, addresses, liveness mid-hunt."""

import json
import threading
import urllib.request

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import RunnerConfig
from repro.errors import PQSError
from repro.observe import EventLog, Observatory, StatusServer, parse_address
from repro.telemetry import MetricsRegistry, NullTracer, Telemetry, names


def get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers.get("Content-Type"), \
            response.read().decode("utf-8")


def simulated_observatory():
    registry = MetricsRegistry()
    registry.counter(names.ROUNDS).inc(3)
    registry.counter(names.QUERIES).inc(60)
    events = EventLog("sqlite-s1")
    events.emit("campaign_start")
    events.emit("round_completed", round=0, worker=0)
    return Observatory(campaign="sqlite-s1", dialect="sqlite", seed=1,
                       total_rounds=10, events=events, registry=registry)


class TestParseAddress:
    def test_bare_port(self):
        assert parse_address("8080") == ("127.0.0.1", 8080)

    def test_host_and_port(self):
        assert parse_address("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_empty_host_defaults_to_loopback(self):
        assert parse_address(":7070") == ("127.0.0.1", 7070)

    def test_invalid_port_rejected(self):
        with pytest.raises(PQSError):
            parse_address("localhost:http")
        with pytest.raises(PQSError):
            parse_address("70000")


class TestEndpoints:
    @pytest.fixture()
    def server(self):
        server = StatusServer(simulated_observatory(), port=0)
        with server:
            yield server

    def test_status_endpoint(self, server):
        status_code, content_type, body = get(server.url + "/status")
        assert status_code == 200
        assert content_type == "application/json"
        status = json.loads(body)
        assert status["campaign"] == "sqlite-s1"
        assert status["rounds"]["completed"] == 3
        assert status["throughput"]["queries"] == 60

    def test_metrics_endpoint_is_prometheus_text(self, server):
        status_code, content_type, body = get(server.url + "/metrics")
        assert status_code == 200
        assert content_type.startswith("text/plain")
        assert f"# TYPE {names.ROUNDS} counter" in body
        assert f"{names.ROUNDS} 3" in body

    def test_bugs_endpoint(self, server):
        _, _, body = get(server.url + "/bugs")
        assert json.loads(body) == {"bugs": []}

    def test_coverage_endpoint(self, server):
        _, _, body = get(server.url + "/coverage")
        assert json.loads(body) == {"tracked": False}

    def test_events_endpoint_tails(self, server):
        _, _, body = get(server.url + "/events?limit=1")
        events = json.loads(body)["events"]
        assert [e["kind"] for e in events] == ["round_completed"]

    def test_dashboard_served_at_root(self, server):
        status_code, content_type, body = get(server.url + "/")
        assert status_code == 200
        assert content_type.startswith("text/html")
        assert "pqs hunt" in body and "/status" in body

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/nope")
        assert err.value.code == 404

    def test_404_body_is_json(self, server):
        # Pollers parse every reply; errors must be JSON too.
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/status/extra/deep")
        payload = json.loads(err.value.read().decode("utf-8"))
        assert "no such endpoint" in payload["error"]

    def test_trailing_slash_is_the_same_route(self, server):
        status_code, _, body = get(server.url + "/status/")
        assert status_code == 200
        assert json.loads(body)["campaign"] == "sqlite-s1"

    def test_events_malformed_limit_falls_back(self, server):
        # ?limit=abc is a client bug, not a server error: default 100.
        status_code, _, body = get(server.url + "/events?limit=abc")
        assert status_code == 200
        assert len(json.loads(body)["events"]) == 2

    def test_events_huge_limit_is_bounded(self, server):
        status_code, _, body = get(server.url
                                   + "/events?limit=999999999999")
        assert status_code == 200
        # Never more than the ring holds, whatever the poller asks for.
        assert len(json.loads(body)["events"]) == 2

    def test_events_negative_limit_is_empty_not_error(self, server):
        status_code, _, body = get(server.url + "/events?limit=-5")
        assert status_code == 200
        assert json.loads(body)["events"] == []

    def test_port_zero_binds_free_port(self, server):
        assert server.port > 0

    def test_stop_is_idempotent(self):
        server = StatusServer(simulated_observatory(), port=0).start()
        server.stop()
        server.stop()


class TestLiveCampaign:
    def test_endpoints_valid_mid_campaign(self):
        """Poll a running ``threads > 1`` hunt: every endpoint must
        answer validly while rounds complete underneath."""
        events = EventLog("sqlite-s5")
        telemetry = Telemetry(registry=MetricsRegistry(),
                              tracer=NullTracer())
        observatory = Observatory(campaign="sqlite-s5", dialect="sqlite",
                                  seed=5, total_rounds=8, events=events,
                                  registry=telemetry.registry)
        config = CampaignConfig(
            dialect="sqlite", seed=5, threads=2, databases=8,
            reduce=False, observe=observatory, telemetry=telemetry,
            runner=RunnerConfig(multiplan=True))
        with StatusServer(observatory, port=0) as server:
            campaign = Campaign(config)
            results = {}

            def hunt():
                results["result"] = campaign.run()

            thread = threading.Thread(target=hunt)
            thread.start()
            polled = []
            while thread.is_alive():
                _, _, body = get(server.url + "/status")
                polled.append(json.loads(body))
                get(server.url + "/bugs")
                get(server.url + "/events")
            thread.join()
            _, _, body = get(server.url + "/status")
            final = json.loads(body)
        assert polled, "at least one mid-campaign poll"
        for status in polled:
            rounds = status["rounds"]
            assert 0 <= rounds["completed"] <= 8
            assert rounds["completed"] + rounds["pending"] == 8
        # Every mid-mutation /status snapshot is a coherent document,
        # and the cross-checked query count only ever grows.
        checked = [status["multiplan"]["queries"] for status in polled]
        assert checked == sorted(checked)
        assert final["rounds"]["completed"] == 8
        assert final["finished"]
        assert final["multiplan"]["queries"] > 0
        assert results["result"].stats.databases == 8

    def test_observed_single_thread_journal_is_byte_identical(
            self, tmp_path):
        """One round stream, same seed: the journal written with the
        event log, observatory and live status server attached must
        equal the journal written without them, bar wall clock."""
        def hunt(journal, observe=None):
            Campaign(CampaignConfig(
                dialect="sqlite", seed=5, databases=12, reduce=False,
                journal=str(journal), observe=observe)).run()

        def normalized(path):
            out = []
            for line in path.read_bytes().splitlines():
                data = json.loads(line)
                # Round lines carry wall-clock seconds (and a checksum
                # over them); everything else must match byte for byte.
                data.pop("seconds", None)
                data.pop("crc", None)
                out.append(json.dumps(data, sort_keys=True))
            return out

        plain = tmp_path / "plain.jsonl"
        observed = tmp_path / "observed.jsonl"
        hunt(plain)
        events = EventLog("sqlite-s5")
        observatory = Observatory(
            campaign="sqlite-s5", dialect="sqlite", seed=5,
            total_rounds=12, events=events)
        with StatusServer(observatory, port=0):
            hunt(observed, observe=observatory)
        assert len(events) > 0, "the narrative was recorded"
        assert normalized(plain) == normalized(observed)
