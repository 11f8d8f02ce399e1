"""Wire protocol: length-prefixed, CRC-checked JSON frames.

Every message on a connection -- in either direction -- is one *frame*:

+---------------------+----------------------------------------------+
| bytes               | meaning                                      |
+=====================+==============================================+
| 4 (``!I``)          | payload length ``n`` (bytes, big-endian)     |
+---------------------+----------------------------------------------+
| 4 (``!I``)          | CRC-32 of the payload                        |
+---------------------+----------------------------------------------+
| ``n``               | UTF-8 JSON object with a ``"type"`` key      |
+---------------------+----------------------------------------------+

Frame types
-----------
``hello``
    Versioned handshake, both directions.  The client sends
    ``{"type": "hello", "protocol": 1}`` first; the server answers with
    its own hello carrying the negotiated protocol version, the dataset
    size and the server build.  A version the server cannot speak is
    answered with a ``protocol`` ERROR and the connection closes.
``query``
    One query submission: ``{"type": "query", "qid": ..., "algorithm":
    ..., ...}`` -- the fields of a
    :class:`~repro.serving.server.QueryRequest` (deadline, budgets,
    priority, options, tag, subspace, constraint, skyband_k).  ``qid``
    is a client-chosen identifier echoed on every frame of the stream.
``points``
    A contiguous batch of emitted skyline answers for one query:
    ``{"type": "points", "qid": ..., "seq": k, "points": [{"rid": ...,
    "totals": [...], "partials": [...]}, ...], "cached": bool}``.  The
    concatenation of a stream's ``points`` frames (in ``seq`` order,
    since the last ``reset``) is always a prefix of the algorithm's
    deterministic emission order.
``progress``
    Cheap periodic counters: ``{"type": "progress", "qid": ...,
    "emitted": n, "elapsed": seconds}``.
``reset``
    The emitted prefix was retracted (server-side retry restarted
    emission from scratch): discard everything received for ``qid`` so
    far; subsequent ``points`` frames restart at ``seq`` 0.
``done``
    Terminal success frame: ``{"type": "done", "qid": ..., "complete":
    bool, "outcome": ..., "exhausted_reason": ..., "elapsed": ...,
    "count": n, "cached": bool, "fallback": bool}``.
``error``
    Terminal failure frame (or connection-level failure when ``qid`` is
    absent): ``{"type": "error", "qid": ..., "code": ..., "message":
    ..., "detail": {...}}``.  Codes are listed in :data:`ERROR_CODES`.
``cancel``
    Client request to cancel one in-flight query: ``{"type": "cancel",
    "qid": ...}``.  The server trips the query's
    :class:`~repro.resilience.context.CancellationToken`; the stream
    terminates with a ``cancelled`` ERROR frame.
``metrics``
    Client request ``{"type": "metrics"}``; server reply
    ``{"type": "metrics", "data": {...}}`` (the full
    :meth:`~repro.serving.metrics.ServerMetrics.snapshot`, including the
    ``net`` section).

Framing errors (bad CRC, oversize, truncation, non-JSON payload,
missing type) raise :class:`~repro.exceptions.ProtocolError`; after one,
the stream position cannot be trusted and the connection must close.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib

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
    ReproError,
    ServingError,
    SlowConsumerError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FRAME_TYPES",
    "ERROR_CODES",
    "encode_frame",
    "FrameReader",
    "read_frame",
    "write_frame",
    "error_payload",
]

#: Current protocol version spoken by both ends of the handshake.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload; a length prefix beyond this is a
#: protocol violation (corrupt stream or hostile peer), not an allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!II")

FRAME_TYPES = frozenset(
    {
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
)

#: Wire error codes and the typed exceptions they originate from.  The
#: client surfaces them as
#: :class:`~repro.exceptions.RemoteQueryError` with ``code`` preserved,
#: so remote callers can dispatch on exactly the same taxonomy local
#: callers catch.
ERROR_CODES = {
    "admission-rejected": AdmissionRejectedError,
    "shed": QueryShedError,
    "timeout": QueryTimeoutError,
    "cancelled": QueryCancelledError,
    "budget": BudgetExhaustedError,
    "lock-timeout": LockTimeoutError,
    "rate-limited": RateLimitedError,
    "slow-consumer": SlowConsumerError,
    "read-only": ServingError,
    "serving": ServingError,
    "protocol": ProtocolError,
    "invalid-request": AlgorithmError,
    "internal": Exception,
}


def encode_frame(payload: dict) -> bytes:
    """Serialize one frame dict to its wire bytes.

    Raises :class:`~repro.exceptions.ProtocolError` for payloads missing
    a known ``type`` or encoding beyond :data:`MAX_FRAME_BYTES`.
    """
    frame_type = payload.get("type")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type!r}")
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_payload(body: bytes, crc: int) -> dict:
    if zlib.crc32(body) != crc:
        raise ProtocolError("frame CRC mismatch (corrupt or torn frame)")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"frame payload is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("type") not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {payload.get('type')!r}")
    return payload


class FrameReader:
    """Incremental frame decoder for a byte stream.

    Feed it arbitrary chunks; it returns every complete frame decoded so
    far.  Usable without asyncio (tests, alternative transports); the
    asyncio path uses :func:`read_frame` instead.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Consume ``data``; return the frames it completed (in order)."""
        self._buffer.extend(data)
        frames: list[dict] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            length, crc = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length prefix {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            frames.append(_decode_payload(body, crc))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[dict, int] | None:
    """Read one frame; returns ``(payload, wire_bytes)``.

    ``None`` on clean EOF at a frame boundary.  Raises
    :class:`~repro.exceptions.ProtocolError` on mid-frame EOF, an
    oversized length prefix, a CRC mismatch or a malformed payload.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            f"connection closed mid-header ({len(err.partial)} of "
            f"{_HEADER.size} bytes)"
        ) from err
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as err:
        raise ProtocolError(
            f"connection closed mid-frame ({len(err.partial)} of "
            f"{length} payload bytes)"
        ) from err
    return _decode_payload(body, crc), _HEADER.size + length


def write_frame(writer: asyncio.StreamWriter, payload: dict) -> int:
    """Encode + buffer one frame on ``writer``; returns the frame size.

    Callers ``await writer.drain()`` for flow control.
    """
    data = encode_frame(payload)
    writer.write(data)
    return len(data)


def error_payload(error: BaseException, qid=None) -> dict:
    """Map one (typed) exception onto an ERROR frame payload.

    Every serving-layer error keeps its taxonomy on the wire: the frame
    ``code`` round-trips through :data:`ERROR_CODES`, and the
    structured attributes the exception carried (rejection reason and
    bounds, shed policy, deadline/elapsed, budget usage, retry-after)
    travel in ``detail``.
    """
    detail: dict = {}
    if isinstance(error, AdmissionRejectedError):
        code = "admission-rejected"
        detail = {
            "reason": error.reason,
            "estimate": error.estimate,
            "limit": error.limit,
        }
    elif isinstance(error, QueryShedError):
        code = "shed"
        detail = {"policy": error.policy, "reason": error.reason}
    elif isinstance(error, QueryTimeoutError):
        code = "timeout"
        detail = {"deadline": error.deadline, "elapsed": error.elapsed}
    elif isinstance(error, QueryCancelledError):
        code = "cancelled"
    elif isinstance(error, BudgetExhaustedError):
        code = "budget"
        detail = {
            "reason": error.reason,
            "limit": error.limit,
            "used": error.used,
        }
    elif isinstance(error, LockTimeoutError):
        code = "lock-timeout"
        detail = {"mode": error.mode, "timeout": error.timeout}
    elif isinstance(error, RateLimitedError):
        code = "rate-limited"
        detail = {"cost": error.cost, "retry_after": error.retry_after}
    elif isinstance(error, SlowConsumerError):
        code = "slow-consumer"
        detail = {"reason": error.reason}
    elif isinstance(error, ProtocolError):
        code = "protocol"
    elif isinstance(error, AlgorithmError):
        code = "invalid-request"
    elif isinstance(error, ServingError):
        # Read-only latch surfaces through its message; keep it typed.
        code = "read-only" if "read-only" in str(error) else "serving"
    elif isinstance(error, ReproError):
        code = "serving"
    else:
        code = "internal"
    payload = {
        "type": "error",
        "code": code,
        "message": str(error),
        "detail": detail,
    }
    if qid is not None:
        payload["qid"] = qid
    return payload
