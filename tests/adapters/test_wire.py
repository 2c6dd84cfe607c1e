"""The worker pipe's wire format: length-prefixed pickle frames, with
:class:`Value` cells pickled through ``Value.__reduce__``."""

import io
import math
import pickle
import random

import pytest

from repro.adapters.subprocess_adapter import read_frame, write_frame
from repro.guidance.fingerprint import PlanStep
from repro.values import (
    FALSE,
    INT64_MAX,
    INT64_MIN,
    NULL,
    TRUE,
    SQLType,
    Value,
)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def frame_roundtrip(obj):
    stream = io.BytesIO()
    write_frame(stream, obj)
    stream.seek(0)
    return read_frame(stream)


class TestValuePickle:
    def test_every_value_kind_in_one_row(self):
        row = (NULL, Value.integer(42), Value.real(1.5), Value.text("abc"),
               Value.blob(b"\x00\xff"), TRUE, FALSE)
        back = roundtrip(row)
        assert back == row
        assert [v.t for v in back] == [v.t for v in row]

    def test_int64_bounds(self):
        for i in (INT64_MIN, INT64_MAX, 0, -1, -129, 257):
            assert roundtrip(Value.integer(i)) == Value.integer(i)

    def test_integers_beyond_int64(self):
        for i in (INT64_MAX + 1, INT64_MIN - 1, 2**200, -(2**200)):
            back = roundtrip(Value(SQLType.INTEGER, i))
            assert back.t is SQLType.INTEGER and back.v == i

    def test_real_special_values(self):
        for f in (math.inf, -math.inf, 1e308, 5e-324, 1.5):
            assert roundtrip(Value.real(f)) == Value.real(f)
        nan = roundtrip(Value.real(math.nan))
        assert nan.t is SQLType.REAL and math.isnan(nan.v)
        negative_zero = roundtrip(Value.real(-0.0))
        assert math.copysign(1.0, negative_zero.v) == -1.0

    def test_blob_edges(self):
        for b in (b"", bytes(range(256)), b"\x00" * 300,
                  bytes(1 << 20)):
            back = roundtrip(Value.blob(b))
            assert back.t is SQLType.BLOB and back.v == b

    def test_text_edges(self):
        for s in ("", "répéter", "\ud800", "a\udfffb", "\x00",
                  "x" * 100_000):
            back = roundtrip(Value.text(s))
            assert back.t is SQLType.TEXT and back.v == s

    def test_decoded_singletons_are_interned(self):
        back = roundtrip((NULL, TRUE, FALSE))
        assert back[0] is NULL and back[1] is TRUE and back[2] is FALSE
        for i in (-128, -1, 0, 7, 256):
            assert roundtrip(Value.integer(i)) is Value.integer(i)

    def test_enum_is_not_pickled_per_cell(self):
        body = pickle.dumps([Value.integer(1000)] * 3)
        assert b"SQLType" not in body

    def test_fuzz_random_matrices(self):
        rng = random.Random(1234)

        def random_value():
            kind = rng.randrange(7)
            if kind == 0:
                return NULL
            if kind == 1:
                return Value.integer(rng.randint(INT64_MIN, INT64_MAX))
            if kind == 2:
                return Value.real(rng.uniform(-1e9, 1e9))
            if kind == 3:
                return Value.text(
                    "".join(chr(rng.randrange(32, 0x2FF))
                            for _ in range(rng.randrange(8))))
            if kind == 4:
                return Value.blob(bytes(rng.randrange(256)
                                        for _ in range(rng.randrange(12))))
            return TRUE if kind == 5 else FALSE

        for _ in range(100):
            rows = [tuple(random_value() for _ in range(rng.randrange(1, 5)))
                    for _ in range(rng.randrange(6))]
            assert roundtrip(rows) == rows


class TestFrameRoundTrip:
    def test_reply_of_rows(self):
        rows = [tuple(Value.integer(r * 10 + c) for c in range(10))
                for r in range(1000)]
        assert frame_roundtrip({"ok": rows}) == {"ok": rows}

    def test_control_frames(self):
        for obj in ({"op": "execute", "sql": "SELECT 1"},
                    {"error": ("DBError", "boom")},
                    {"dialect": "sqlite"}):
            assert frame_roundtrip(obj) == obj

    def test_plan_step_payload(self):
        steps = [PlanStep(kind="full-scan", table="t0")]
        assert frame_roundtrip({"ok": steps}) == {"ok": steps}

    def test_length_prefix(self):
        stream = io.BytesIO()
        write_frame(stream, {"ok": []})
        raw = stream.getvalue()
        assert int.from_bytes(raw[:4], "big") == len(raw) - 4


class TestFrameErrors:
    def test_empty_frame_rejected(self):
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(b""))

    def test_truncated_frame_rejected(self):
        stream = io.BytesIO()
        write_frame(stream, {"ok": [(Value.integer(1),)]})
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(stream.getvalue()[:-1]))
