"""Minimal HTTP/1.1 over asyncio streams — just enough for the service.

No external dependencies and no ``http.server``: requests are parsed
directly from the stream (request line, headers, ``Content-Length``
body) and responses rendered to bytes.  Supported deliberately small:

* methods GET / POST, HTTP/1.0 and 1.1;
* keep-alive by default (1.1 semantics), ``Connection: close`` honored;
* bodies require ``Content-Length`` (no chunked transfer);
* bounded request line, header count/size, and body size — a
  misbehaving client gets a 400/413, never an unbounded buffer.

Malformed traffic raises :class:`ProtocolError` carrying the HTTP
status to answer with; clean EOF between requests returns ``None``.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl, urlsplit

#: Protocol bounds (per request).
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 100
MAX_HEADER_LINE = 8192
MAX_BODY = 8 << 20

STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """Malformed request; ``status`` is the HTTP answer to send."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def read_request(reader: asyncio.StreamReader) -> dict | None:
    """Parse one request from the stream.

    Returns ``{"method", "path", "query", "headers", "body"}`` or
    ``None`` on clean EOF before any request bytes.  ``query`` maps
    each parameter to its (first) value; header names are lowercased.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(400, "truncated request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(400, "request line too long") from exc
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: "
                                 f"{line[:80]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported version {version!r}")

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            line = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError,
                asyncio.LimitOverrunError) as exc:
            raise ProtocolError(400, "truncated headers") from exc
        if len(line) > MAX_HEADER_LINE:
            raise ProtocolError(400, "header line too long")
        text = line.decode("latin-1").strip()
        if not text:
            break
        if ":" not in text:
            raise ProtocolError(400, f"malformed header {text[:80]!r}")
        name, _, value = text.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(400, "too many headers")

    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(400, f"bad Content-Length "
                                     f"{raw_length!r}") from None
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > MAX_BODY:
            raise ProtocolError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "truncated request body") from exc

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return {"method": method.upper(), "path": split.path,
            "query": query, "headers": headers, "body": body}


def render_response(status: int, body, *, headers: dict | None = None,
                    close: bool = False) -> bytes:
    """Render a full HTTP/1.1 response.

    ``body`` may be a dict (serialised as compact JSON — ``indent``
    would force CPython's pure-Python encoder onto every response) or
    raw bytes.
    """
    if isinstance(body, (dict, list)):
        payload = (json.dumps(body) + "\n").encode()
        content_type = "application/json"
    else:
        payload = body if isinstance(body, bytes) else str(body).encode()
        content_type = "text/plain; charset=utf-8"
    lines = [f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(payload)}",
             f"Connection: {'close' if close else 'keep-alive'}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + payload


def error_body(status: int, message: str) -> dict:
    """Uniform JSON error payload."""
    return {"schema": "repro-serve-error-v1", "status": "error",
            "code": status, "error": message}


def wants_close(request: dict) -> bool:
    """Whether the client asked to drop the connection after this
    exchange."""
    return request["headers"].get("connection", "").lower() == "close"
