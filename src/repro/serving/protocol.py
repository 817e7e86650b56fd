"""The wire protocol of the serving tier: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding a single object.  The framing
layer knows nothing about verbs — :mod:`repro.serving.server` gives the
objects meaning — so the same codec carries publishes, control verbs,
acks and delivery events in both directions.

Design points, each pinned by ``tests/serving/test_protocol.py``:

- **Incremental**: :class:`FrameDecoder` accepts arbitrary byte chunks
  (``feed``), so frames may straddle TCP segment boundaries anywhere,
  including in the middle of a multi-byte UTF-8 sequence — the decoder
  buffers raw bytes and decodes only complete frames.
- **Error containment**: a frame whose *body* is malformed (bad JSON,
  bad UTF-8, a ``\\uD800``–``\\uDFFF`` escape left unpaired, or a
  non-object payload) raises a *recoverable*
  :class:`~repro.errors.ProtocolError` — the frame boundary is still
  trustworthy, so the connection skips the bad frame and keeps
  decoding.  A broken *length prefix* (larger than ``max_frame``)
  poisons the framing itself and raises an unrecoverable error.
- **Bounded**: ``max_frame`` caps the declared length before any
  allocation happens, so a hostile 4-GiB prefix cannot balloon memory.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.errors import ProtocolError

#: Default cap on one frame's body, in bytes.  Large enough for any
#: document the filtering engines are meant to see in one publish.
MAX_FRAME = 64 * 1024 * 1024

_PREFIX = struct.Struct("!I")
PREFIX_SIZE = _PREFIX.size

Frame = dict[str, Any]


def encode_frame(payload: Frame) -> bytes:
    """*payload* as one wire frame (length prefix + UTF-8 JSON body)."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    try:
        body = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"frame payload is not JSON-safe: {error}") from None
    if len(body) > 0xFFFFFFFF:
        raise ProtocolError(f"frame body too large for the wire: {len(body)} bytes")
    return _PREFIX.pack(len(body)) + body


def _has_lone_surrogate(value: Any) -> bool:
    """True when a string anywhere in *value* holds an unpaired UTF-16
    surrogate, which no UTF-8 encodes."""
    if isinstance(value, str):
        if value.isascii():
            return False
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return True
        return False
    if isinstance(value, dict):
        return any(
            _has_lone_surrogate(key) or _has_lone_surrogate(item)
            for key, item in value.items()
        )
    if isinstance(value, list):
        return any(_has_lone_surrogate(item) for item in value)
    return False


def decode_json(text: str) -> Any:
    """*text* as JSON, refusing an unpaired ``\\uD800``–``\\uDFFF``
    escape: JSON lets a string hold one, but a string holding one can
    never be encoded again — not in a reply, not into a document — so
    it is refused here, at the wire, rather than wherever it is next
    encoded (raises ``ValueError``)."""
    payload = json.loads(text)
    # Valid UTF-8 never decodes to a surrogate: only an escape can.
    if "\\u" in text and _has_lone_surrogate(payload):
        raise ValueError("unpaired UTF-16 surrogate escape")
    return payload


def decode_body(body: bytes) -> Frame:
    """One frame body back into its payload object.

    Raises a *recoverable* :class:`ProtocolError` on a malformed body:
    the caller already knows where the frame ends, so it can drop this
    frame and continue with the next one.
    """
    try:
        payload = decode_json(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"malformed frame body: {error}", recoverable=True) from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}",
            recoverable=True,
        )
    return payload


class FrameDecoder:
    """Incremental frame decoder: bytes in, payload objects out.

    ``feed(chunk)`` buffers *chunk* and returns every frame completed by
    it.  A recoverable body error is raised *after* the offending frame
    has been consumed from the buffer, so calling ``feed(b"")`` (or the
    next real chunk) resumes cleanly with the following frame — the
    connection survives.  An unrecoverable framing error leaves the
    decoder poisoned: every later call re-raises.
    """

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._ready: list[Frame] = []
        self._poisoned: ProtocolError | None = None

    @property
    def buffered(self) -> int:
        """Bytes held for an incomplete frame (mid-frame when > 0)."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[Frame]:
        """Decode every frame completed by *chunk*, in order.

        When a recoverable error is raised, frames decoded before it in
        the same chunk are *retained* and returned by the next call —
        one bad frame never swallows its well-formed neighbours.
        """
        if self._poisoned is not None:
            raise self._poisoned
        self._buffer.extend(chunk)
        while len(self._buffer) >= PREFIX_SIZE:
            (length,) = _PREFIX.unpack_from(self._buffer)
            if length > self.max_frame:
                self._poisoned = ProtocolError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame}-byte bound", recoverable=False,
                )
                raise self._poisoned
            end = PREFIX_SIZE + length
            if len(self._buffer) < end:
                break
            body = bytes(self._buffer[PREFIX_SIZE:end])
            del self._buffer[:end]
            # decode_body raises *after* the frame left the buffer, so
            # the stream position stays valid for the next feed().
            self._ready.append(decode_body(body))
        frames = self._ready
        self._ready = []
        return frames

    def feed_all(self, chunk: bytes) -> tuple[list[Frame], list[ProtocolError]]:
        """Like :meth:`feed`, but collects recoverable errors instead of
        raising, so one bad frame does not hide the good ones around it.
        Unrecoverable errors still raise."""
        frames: list[Frame] = []
        errors: list[ProtocolError] = []
        remaining: bytes = chunk
        while True:
            try:
                frames.extend(self.feed(remaining))
                return frames, errors
            except ProtocolError as error:
                if not error.recoverable:
                    raise
                errors.append(error)
                remaining = b""
