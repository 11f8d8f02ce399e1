"""Wire protocol: frame codec, CRC integrity, typed error mapping."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.exceptions import (
    AdmissionRejectedError,
    AlgorithmError,
    BudgetExhaustedError,
    LockTimeoutError,
    ProtocolError,
    QueryCancelledError,
    QueryShedError,
    QueryTimeoutError,
    RateLimitedError,
    ServingError,
    SlowConsumerError,
)
from repro.net.protocol import (
    ERROR_CODES,
    FRAME_TYPES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameReader,
    encode_frame,
    error_payload,
)


class TestFrameCodec:
    def test_round_trip(self):
        payload = {"type": "hello", "protocol": PROTOCOL_VERSION}
        reader = FrameReader()
        frames = reader.feed(encode_frame(payload))
        assert frames == [payload]
        assert reader.pending_bytes == 0

    def test_chunked_and_coalesced_feeding(self):
        frames = [
            {"type": "query", "qid": 1, "algorithm": "sdc+"},
            {"type": "points", "qid": 1, "seq": 0, "points": []},
            {"type": "done", "qid": 1, "complete": True},
        ]
        wire = b"".join(encode_frame(f) for f in frames)
        # One byte at a time...
        reader = FrameReader()
        out = []
        for i in range(len(wire)):
            out.extend(reader.feed(wire[i : i + 1]))
        assert out == frames
        # ...and all at once.
        assert FrameReader().feed(wire) == frames

    def test_crc_mismatch_raises(self):
        wire = bytearray(encode_frame({"type": "hello", "protocol": 1}))
        wire[-1] ^= 0xFF  # corrupt the payload, not the header
        with pytest.raises(ProtocolError, match="CRC"):
            FrameReader().feed(bytes(wire))

    def test_oversize_length_prefix_raises(self):
        header = struct.pack("!II", MAX_FRAME_BYTES + 1, 0)
        with pytest.raises(ProtocolError, match="cap"):
            FrameReader().feed(header)

    def test_non_json_payload_raises(self):
        body = b"\xff\xfe not json"
        wire = struct.pack("!II", len(body), zlib.crc32(body)) + body
        with pytest.raises(ProtocolError, match="JSON"):
            FrameReader().feed(wire)

    def test_non_object_payload_raises(self):
        body = json.dumps([1, 2, 3]).encode()
        wire = struct.pack("!II", len(body), zlib.crc32(body)) + body
        with pytest.raises(ProtocolError, match="object"):
            FrameReader().feed(wire)

    def test_unknown_type_rejected_both_directions(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_frame({"type": "bogus"})
        body = json.dumps({"type": "bogus"}).encode()
        wire = struct.pack("!II", len(body), zlib.crc32(body)) + body
        with pytest.raises(ProtocolError, match="unknown frame type"):
            FrameReader().feed(wire)

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"qid": 1})

    def test_partial_frame_buffers(self):
        wire = encode_frame({"type": "cancel", "qid": 7})
        reader = FrameReader()
        assert reader.feed(wire[:-3]) == []
        assert reader.pending_bytes == len(wire) - 3
        assert reader.feed(wire[-3:]) == [{"type": "cancel", "qid": 7}]


class TestErrorMapping:
    @pytest.mark.parametrize(
        "error,code",
        [
            (AdmissionRejectedError("comparisons", 100.0, 10.0), "admission-rejected"),
            (QueryShedError("priority", "queue-full"), "shed"),
            (QueryTimeoutError(0.5, 0.7), "timeout"),
            (QueryCancelledError(), "cancelled"),
            (BudgetExhaustedError("comparisons", 10, 11), "budget"),
            (LockTimeoutError("read", 0.1), "lock-timeout"),
            (RateLimitedError(cost=3.0, retry_after=1.5), "rate-limited"),
            (SlowConsumerError("buffer overflow"), "slow-consumer"),
            (ProtocolError("bad frame"), "protocol"),
            (ServingError("server is read-only"), "read-only"),
            (ServingError("server is closed"), "serving"),
            (RuntimeError("surprise"), "internal"),
        ],
    )
    def test_typed_errors_map_to_wire_codes(self, error, code):
        payload = error_payload(error, qid=42)
        assert payload["type"] == "error"
        assert payload["code"] == code
        assert payload["qid"] == 42
        assert payload["message"]
        assert code in ERROR_CODES
        # Every error frame must be encodable as-is.
        assert encode_frame(payload)

    def test_detail_carries_structured_attributes(self):
        rejected = error_payload(AdmissionRejectedError("deadline", 2.0, 0.5))
        assert rejected["detail"] == {
            "reason": "deadline",
            "estimate": 2.0,
            "limit": 0.5,
        }
        limited = error_payload(RateLimitedError(cost=7.5, retry_after=0.25))
        assert limited["detail"]["retry_after"] == 0.25
        budget = error_payload(BudgetExhaustedError("answers", 3, 4))
        assert budget["detail"] == {"reason": "answers", "limit": 3, "used": 4}

    def test_invalid_request_code_round_trips(self):
        payload = error_payload(
            AlgorithmError("unknown algorithm 'bogus'"), qid=9
        )
        assert payload["code"] == "invalid-request"
        assert ERROR_CODES["invalid-request"] is AlgorithmError
        assert FrameReader().feed(encode_frame(payload)) == [payload]

    def test_qid_omitted_for_connection_level_errors(self):
        payload = error_payload(ProtocolError("bad handshake"))
        assert "qid" not in payload

    def test_frame_types_cover_the_protocol(self):
        assert FRAME_TYPES == {
            "hello",
            "query",
            "points",
            "progress",
            "reset",
            "done",
            "error",
            "cancel",
            "metrics",
        }
