"""Minimal HTTP/1.1 adapter for the serving tier.

The stdlib-only counterpart of the frame protocol: the same verb
dispatch (:meth:`FilterServer.dispatch`), reachable with nothing but
``curl``.  One request per connection (``Connection: close``) keeps the
parser trivial; the long-poll endpoint holds the response open until
events arrive or the poll times out — the "websocket-style" delivery
path for clients that cannot keep a framed socket.

| Method, path | Verb |
|---|---|
| ``POST /publish`` (body = XML) | ``publish`` |
| ``POST /subscribe`` (JSON body: oid, xpath, consumer?) | ``subscribe`` |
| ``POST /unsubscribe`` (JSON body: oid) | ``unsubscribe`` |
| ``POST /compact`` | ``compact`` |
| ``POST /consumers`` (JSON body: consumer, policy?, …) | ``consume`` |
| ``GET /poll?consumer=&timeout=&max=`` | ``poll`` (long-poll) |
| ``GET /stats`` | ``stats`` |
| ``GET /healthz`` | ``ping`` |
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlsplit

from repro.serving.protocol import decode_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.server import FilterServer

#: Largest accepted request head (request line + headers) and body.
MAX_HEAD = 64 * 1024
MAX_BODY = 64 * 1024 * 1024

_STATUS = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed"}


def _response(status: int, payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _query_frame(query: dict[str, list[str]]) -> dict[str, Any]:
    frame: dict[str, Any] = {}
    for key, values in query.items():
        value: Any = values[-1]
        if key in ("max", "high_watermark"):
            try:
                value = int(value)
            except ValueError:
                pass
        elif key == "timeout":
            try:
                value = float(value)
            except ValueError:
                pass
        elif key == "payload":
            value = value.lower() in ("1", "true", "yes")
        frame[key] = value
    return frame


async def handle_http(
    server: "FilterServer",
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    first: bytes,
) -> None:
    """Serve one HTTP request on an accepted connection.  *first* is
    the already-sniffed leading byte of the method."""
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        writer.write(_response(400, {"ok": False, "error": "truncated request head"}))
        await writer.drain()
        return
    if len(head) > MAX_HEAD:
        writer.write(_response(400, {"ok": False, "error": "request head too large"}))
        await writer.drain()
        return
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        writer.write(_response(400, {"ok": False, "error": "malformed request line"}))
        await writer.drain()
        return
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            length = -1
    if length < 0 or length > MAX_BODY:
        writer.write(_response(400, {"ok": False, "error": "bad content length"}))
        await writer.drain()
        return
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            writer.write(_response(400, {"ok": False, "error": "truncated body"}))
            await writer.drain()
            return

    split = urlsplit(target)
    path = split.path.rstrip("/") or "/"
    query = parse_qs(split.query)
    status, payload = await _route(server, method.upper(), path, query, body)
    writer.write(_response(status, payload))
    await writer.drain()


async def _route(
    server: "FilterServer",
    method: str,
    path: str,
    query: dict[str, list[str]],
    body: bytes,
) -> tuple[int, dict[str, Any]]:
    frame = _query_frame(query)
    if path == "/publish":
        if method != "POST":
            return 405, {"ok": False, "error": "publish is POST"}
        try:
            frame["xml"] = body.decode("utf-8")
        except UnicodeDecodeError as error:
            return 400, {"ok": False, "error": f"body is not UTF-8: {error}"}
        frame["op"] = "publish"
    elif path in ("/subscribe", "/unsubscribe", "/compact", "/consumers"):
        if method != "POST":
            return 405, {"ok": False, "error": f"{path} is POST"}
        if body:
            try:
                decoded = decode_json(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                return 400, {"ok": False, "error": f"bad JSON body: {error}"}
            if not isinstance(decoded, dict):
                return 400, {"ok": False, "error": "JSON body must be an object"}
            frame.update(decoded)
        frame["op"] = {"/consumers": "consume"}.get(path, path.lstrip("/"))
    elif path == "/poll":
        if method != "GET":
            return 405, {"ok": False, "error": "poll is GET"}
        frame["op"] = "poll"
    elif path == "/stats":
        frame["op"] = "stats"
    elif path == "/healthz":
        frame["op"] = "ping"
    else:
        return 404, {"ok": False, "error": f"unknown path {path!r}"}
    reply = await server.dispatch(frame, None)
    return (200 if reply.get("ok") else 400), reply
