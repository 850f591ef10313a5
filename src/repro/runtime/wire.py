"""Wire protocol for the network serving front (ROADMAP item 1).

One compact, versioned binary framing for activations over HTTP, plus a
JSON fallback for hand-written requests, plus the minimal HTTP/1.1
message plumbing shared by :mod:`repro.runtime.netserve` and
:mod:`repro.runtime.netclient`.  Everything here is stdlib + numpy.

Binary tensor frame (``application/x-tw-tensor``), version 1::

    offset  size  field
    0       4     magic  b"TWT" + version byte (0x01)
    4       8     dtype  numpy array-protocol string (e.g. "<f8"),
                         ASCII, NUL-padded
    12      4     rows   uint32 little-endian
    16      4     cols   uint32 little-endian
    20      ...   payload: rows*cols elements, row-major (C order)

The frame is strict by design: a decoder rejects anything it cannot
prove consistent (unknown magic/version, non-float dtype, zero shape,
payload length that disagrees with ``rows*cols*itemsize``) with a
:class:`WireError` carrying a machine-readable ``code`` — the server
maps these to HTTP 400 with a structured JSON body, never a traceback.

JSON fallback (``application/json``)::

    {"x": [[1.0, 2.0, ...], ...], "dtype": "float32"}   # dtype optional

Responses mirror the request encoding: a binary request gets a binary
tensor body back on success, a JSON request gets ``{"output": [[...]]}``.
Errors are always JSON: ``{"status": ..., "error": {"code", "message"}}``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Mapping

import numpy as np

__all__ = [
    "CONTENT_TYPE_JSON",
    "CONTENT_TYPE_TENSOR",
    "HEADER_SIZE",
    "MAGIC",
    "VERSION",
    "ProtocolError",
    "WireError",
    "decode_json_tensor",
    "decode_tensor",
    "encode_json_tensor",
    "encode_tensor",
    "error_body",
    "read_http_message",
]

MAGIC = b"TWT"
VERSION = 1
HEADER_SIZE = 20
CONTENT_TYPE_TENSOR = "application/x-tw-tensor"
CONTENT_TYPE_JSON = "application/json"

#: dtypes a request may carry — activation payloads are always floats
#: (int8 models quantise *weights*; their requests arrive as float32)
_ALLOWED_KINDS = ("f",)

_HEADER = struct.Struct("<3sB8sII")  # magic, version, dtype, rows, cols


class WireError(ValueError):
    """A request body that fails strict validation.

    ``code`` is a stable machine-readable slug (``bad_magic``,
    ``bad_dtype``, ``length_mismatch``, ...) surfaced verbatim in the
    HTTP 400 error body so clients can branch without parsing prose.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ProtocolError(RuntimeError):
    """A malformed HTTP message (framing, not payload).

    ``status`` is the HTTP status a server answers it with: 414 for an
    over-long start line, 431 for an over-long header line or too many
    headers, 413 for a body past ``max_body_bytes``, 400 otherwise.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------- #
# binary tensor frame
# ---------------------------------------------------------------------- #
def encode_tensor(x: np.ndarray) -> bytes:
    """Encode a 2-D float array as a version-1 binary tensor frame."""
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(x)))
    if arr.ndim != 2:
        raise WireError("bad_shape", f"expected 2-D tensor, got {arr.ndim}-D")
    if arr.dtype.kind not in _ALLOWED_KINDS:
        raise WireError("bad_dtype", f"unsupported dtype {arr.dtype.name}")
    dtype_str = arr.dtype.str.encode("ascii")
    if len(dtype_str) > 8:
        raise WireError("bad_dtype", f"dtype tag too long: {arr.dtype.str!r}")
    header = _HEADER.pack(
        MAGIC, VERSION, dtype_str.ljust(8, b"\0"), arr.shape[0], arr.shape[1]
    )
    return header + arr.tobytes(order="C")


def decode_tensor(body: bytes) -> np.ndarray:
    """Decode and strictly validate a binary tensor frame.

    Raises :class:`WireError` on any inconsistency; never lets numpy
    guess at a shape or silently truncate a payload.
    """
    if len(body) < HEADER_SIZE:
        raise WireError(
            "bad_payload",
            f"body too short for tensor header ({len(body)} < {HEADER_SIZE} bytes)",
        )
    magic, version, dtype_raw, rows, cols = _HEADER.unpack_from(body)
    if magic != MAGIC:
        raise WireError("bad_magic", "not a TW tensor frame (magic mismatch)")
    if version != VERSION:
        raise WireError(
            "unsupported_version",
            f"wire version {version} not supported (server speaks {VERSION})",
        )
    try:
        dtype = np.dtype(dtype_raw.rstrip(b"\0").decode("ascii"))
    except (TypeError, UnicodeDecodeError) as exc:
        raise WireError("bad_dtype", f"unparseable dtype tag: {exc}") from None
    if dtype.kind not in _ALLOWED_KINDS:
        raise WireError("bad_dtype", f"unsupported dtype {dtype.name}")
    if rows < 1 or cols < 1:
        raise WireError("bad_shape", f"degenerate shape ({rows}, {cols})")
    expected = rows * cols * dtype.itemsize
    payload = body[HEADER_SIZE:]
    if len(payload) != expected:
        raise WireError(
            "length_mismatch",
            f"payload is {len(payload)} bytes but shape ({rows}, {cols}) "
            f"{dtype.name} requires {expected}",
        )
    return np.frombuffer(payload, dtype=dtype).reshape(rows, cols)


# ---------------------------------------------------------------------- #
# JSON fallback
# ---------------------------------------------------------------------- #
def encode_json_tensor(x: np.ndarray) -> bytes:
    arr = np.atleast_2d(np.asarray(x))
    return json.dumps({"x": arr.tolist(), "dtype": arr.dtype.name}).encode()


def decode_json_tensor(body: bytes) -> np.ndarray:
    """Decode the ``{"x": [[...]], "dtype": ...}`` fallback, strictly."""
    try:
        doc = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("bad_json", f"request body is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "x" not in doc:
        raise WireError("bad_json", 'JSON requests must be {"x": [[...]], ...}')
    dtype_name = doc.get("dtype", "float32")
    try:
        dtype = np.dtype(dtype_name)
    except TypeError:
        raise WireError("bad_dtype", f"unknown dtype {dtype_name!r}") from None
    if dtype.kind not in _ALLOWED_KINDS:
        raise WireError("bad_dtype", f"unsupported dtype {dtype.name}")
    try:
        arr = np.asarray(doc["x"], dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise WireError("bad_payload", f"x is not a numeric matrix: {exc}") from None
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise WireError("bad_shape", f"x must be a non-empty 2-D matrix, got shape {arr.shape}")
    return arr


def error_body(status: str, code: str, message: str) -> bytes:
    """The one JSON error shape every non-2xx response carries."""
    return json.dumps({"status": status, "error": {"code": code, "message": message}}).encode()


# ---------------------------------------------------------------------- #
# HTTP/1.1 message plumbing (shared by server and clients)
# ---------------------------------------------------------------------- #
_MAX_START_LINE = 8 * 1024
_MAX_HEADERS = 64


async def read_http_message(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int,
    rest_timeout_s: float | None = None,
) -> tuple[str, dict[str, str], bytes] | None:
    """Read one HTTP/1.1 message: ``(start_line, headers, body)``.

    Works for both requests (server side) and responses (client side) —
    the caller interprets the start line.  Bodies are framed by
    ``Content-Length`` only; chunked transfer encoding is refused (both
    ends of this protocol always know their payload size up front).
    Returns ``None`` on a clean EOF before the start line (peer closed
    an idle keep-alive connection).  Raises :class:`ProtocolError` on
    malformed framing and ``asyncio.IncompleteReadError`` on mid-message
    disconnect.  The wait for the start line is unbounded; once it has
    arrived, headers and body must follow within ``rest_timeout_s``
    (``None`` = no bound) or ``asyncio.TimeoutError`` is raised.
    """
    try:
        start = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProtocolError(f"start line too long: {exc}", 414) from None
    if not start:
        return None
    start_line = start.decode("latin-1").rstrip("\r\n")
    if len(start_line) > _MAX_START_LINE:
        raise ProtocolError(f"start line longer than {_MAX_START_LINE} bytes", 414)
    if not start_line:
        raise ProtocolError("malformed start line")
    headers, body = await asyncio.wait_for(
        _read_headers_and_body(reader, max_body_bytes), rest_timeout_s
    )
    return start_line, headers, body


async def _read_headers_and_body(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> tuple[dict[str, str], bytes]:
    """The rest of a message after its start line (see :func:`read_http_message`)."""
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise ProtocolError(f"header line too long: {exc}", 431) from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise asyncio.IncompleteReadError(partial=raw, expected=2)
        line = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(f"more than {_MAX_HEADERS} headers", 431)
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked transfer encoding is not supported")
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length_raw!r}") from None
    if length < 0:
        raise ProtocolError(f"bad Content-Length: {length}")
    if length > max_body_bytes:
        raise ProtocolError(
            f"body of {length} bytes exceeds the {max_body_bytes}-byte limit", 413
        )
    body = await reader.readexactly(length) if length else b""
    return headers, body


def format_message(
    start_line: str, headers: Mapping[str, str], body: bytes
) -> bytes:
    """Serialise one HTTP/1.1 message with a correct ``Content-Length``."""
    lines = [start_line]
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
