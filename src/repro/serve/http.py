"""Minimal HTTP/1.1 framing over asyncio streams.

The service speaks just enough HTTP for its API and refuses the rest
*loudly*: every limit (header block, body size, read deadline) maps to a
specific status code, and every error response is the same structured
JSON envelope the validators use, so clients parse one shape for every
failure. Connections are one-request: the response carries
``Connection: close`` and the body is Content-Length framed — the
simplest framing that can't desynchronize, which matters more here than
keep-alive throughput (the expensive part of a request is the sweep, not
the handshake).

Hostile-client posture, encoded as hard limits rather than heuristics:

* request line + headers must arrive within ``timeout`` seconds and fit
  in ``max_header`` bytes (slow-loris → 408, oversized → 431);
* bodies require ``Content-Length`` (chunked encoding → 501) and are
  rejected *before reading* when the declared length exceeds
  ``max_body`` (→ 413), so a hostile declaration costs no memory;
* a short body (client lied or died) → 400, never a hang.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    411: "Length Required", 413: "Payload Too Large",
    415: "Unsupported Media Type", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}

JSON_TYPE = "application/json"
NDJSON_TYPE = "application/x-ndjson"
METHODS_WITH_BODY = ("POST", "PUT", "PATCH")


class HttpError(Exception):
    """An HTTP-level rejection carrying its full structured response."""

    def __init__(
        self,
        status: int,
        title: str,
        fields: Optional[List[Dict[str, str]]] = None,
        headers: Optional[Dict[str, str]] = None,
        **extra: Any,
    ) -> None:
        super().__init__(f"{status} {title}")
        self.status = status
        self.title = title
        self.fields = fields or []
        self.headers = headers or {}
        self.extra = extra

    def to_response(self) -> "Response":
        body: Dict[str, Any] = {
            "error": {"status": self.status, "title": self.title, "fields": self.fields}
        }
        body["error"].update(self.extra)
        return Response.json(self.status, body, headers=self.headers)


@dataclass
class Request:
    """One parsed request: immutable input to the routing layer."""

    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes
    client: str = "-"

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def query_flag(self, name: str) -> bool:
        values = self.query.get(name, [])
        return bool(values) and values[-1] not in ("0", "false", "no", "")


@dataclass
class Response:
    """One response; ``stream`` switches to EOF-delimited NDJSON."""

    status: int
    body: bytes = b""
    content_type: str = JSON_TYPE
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[Any] = None  # async iterator of bytes chunks

    @classmethod
    def json(
        cls,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body, headers=dict(headers or {}))

    def head_bytes(self) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("content-type", self.content_type)
        headers.setdefault("connection", "close")
        if self.stream is None:
            headers.setdefault("content-length", str(len(self.body)))
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_header: int = 16384,
    max_body: int = 2 * 1024 * 1024,
    timeout: float = 30.0,
    client: str = "-",
) -> Optional[Request]:
    """Read and parse one request; ``None`` on a clean immediate EOF.

    Raises :class:`HttpError` for everything a client can do wrong at
    the framing layer; the connection handler turns that into a
    response and closes.
    """
    try:
        head = await asyncio.wait_for(
            _read_head(reader, max_header), timeout=timeout
        )
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading request head")
    except asyncio.LimitOverrunError:
        raise HttpError(431, f"request head exceeds {max_header} bytes")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "connection closed mid-request")
    if head is None:
        return None

    method, target, headers = head
    if "transfer-encoding" in headers:
        raise HttpError(501, "transfer-encoding is not supported; send Content-Length")

    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise HttpError(400, f"malformed Content-Length {raw_length!r}")
        if length > max_body:
            raise HttpError(
                413,
                f"body of {length} bytes exceeds the {max_body} byte limit",
            )
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=timeout
                )
            except asyncio.TimeoutError:
                raise HttpError(408, "timed out reading request body")
            except asyncio.IncompleteReadError as exc:
                raise HttpError(
                    400,
                    f"body truncated: Content-Length {length}, got {len(exc.partial)} bytes",
                )
    elif method in METHODS_WITH_BODY:
        raise HttpError(411, f"{method} requires a Content-Length header")

    split = urlsplit(target)
    return Request(
        method=method,
        path=unquote(split.path),
        query=parse_qs(split.query),
        headers=headers,
        body=body,
        client=client,
    )


async def _read_head(
    reader: asyncio.StreamReader, max_header: int
) -> Optional[Tuple[str, str, Dict[str, str]]]:
    # readuntil leaves post-head bytes buffered for the body read and
    # enforces the stream limit (set to max_header at server creation),
    # surfacing oversized heads as LimitOverrunError → 431.
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > max_header:
        raise HttpError(431, f"request head exceeds {max_header} bytes")

    try:
        lines = head.decode("latin-1").splitlines()
    except UnicodeDecodeError:
        raise HttpError(400, "undecodable request head")
    if not lines:
        raise HttpError(400, "empty request")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


async def write_response(writer: asyncio.StreamWriter, response: Response) -> None:
    """Write one response (buffered or streamed) and close the socket."""
    writer.write(response.head_bytes())
    if response.stream is None:
        writer.write(response.body)
        await writer.drain()
    else:
        async for chunk in response.stream:
            writer.write(chunk)
            await writer.drain()


async def linger(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    timeout: float = 2.0,
) -> None:
    """Half-close, then discard what the client is still sending.

    A response sent before the request body was read (413, 411, 501...)
    leaves the client mid-upload; closing with unread bytes queued makes
    the kernel answer with a reset, which can destroy the response before
    the client reads it. Draining until the client's EOF, for at most
    ``timeout`` seconds, lets the response arrive intact.
    """
    if writer.can_write_eof():
        writer.write_eof()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        remaining = deadline - loop.time()
        if remaining <= 0:
            return
        try:
            chunk = await asyncio.wait_for(reader.read(65536), remaining)
        except (asyncio.TimeoutError, ConnectionError):
            return
        if not chunk:
            return
