"""The unified event log: emission and reading it back."""

import json

from repro.observe.events import (
    NULL_EVENTS,
    EventLog,
    campaign_id,
    load_events,
)
from repro.telemetry import ListSink


class TestEventLog:
    def test_emit_carries_correlation_fields(self):
        log = EventLog("sqlite-s7")
        event = log.emit("round_completed", round=3, worker=1,
                         round_seed=999, statements=20)
        assert event["campaign"] == "sqlite-s7"
        assert event["round"] == 3
        assert event["worker"] == 1
        assert event["round_seed"] == 999
        assert event["attrs"] == {"statements": 20}
        assert event["seq"] == 0
        assert event["t"] >= 0.0

    def test_seq_is_monotonic(self):
        log = EventLog()
        seqs = [log.emit("round_leased", round=i)["seq"]
                for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert len(log) == 5

    def test_none_attrs_are_dropped(self):
        log = EventLog()
        event = log.emit("round_leased", worker=0, error=None)
        assert "attrs" not in event

    def test_ring_buffer_bounds_memory(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("round_leased", round=i)
        assert [e["round"] for e in log.events()] == [7, 8, 9]
        assert len(log) == 10, "seq keeps counting past the ring"

    def test_tail_returns_most_recent_oldest_first(self):
        log = EventLog()
        for i in range(5):
            log.emit("round_leased", round=i)
        assert [e["round"] for e in log.tail(2)] == [3, 4]
        assert log.tail(0) == []

    def test_sink_receives_every_event(self):
        sink = ListSink()
        log = EventLog("c", sink=sink)
        log.emit("campaign_start")
        log.emit("campaign_end")
        assert [e["kind"] for e in sink.events] == \
            ["campaign_start", "campaign_end"]

    def test_close_detaches_sink(self):
        sink = ListSink()
        log = EventLog(sink=sink)
        log.close()
        log.emit("campaign_end")
        assert sink.events == []

    def test_null_log_is_inert(self):
        assert NULL_EVENTS.emit("round_completed", round=1) == {}
        assert NULL_EVENTS.tail() == []
        assert len(NULL_EVENTS) == 0
        assert not NULL_EVENTS.enabled
        NULL_EVENTS.close()

    def test_campaign_id_format(self):
        assert campaign_id("sqlite", 42) == "sqlite-s42"


class TestLoadEvents:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [{"kind": "round_leased", "round": 0, "seq": 0},
                  {"kind": "round_completed", "round": 0, "seq": 1}]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert load_events(str(path)) == events

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "campaign_start"}\n'
                        'not json at all\n'
                        '{"no_kind": 1}\n'
                        '\n'
                        '{"kind": "campaign_end"}')
        kinds = [e["kind"] for e in load_events(str(path))]
        assert kinds == ["campaign_start", "campaign_end"]
