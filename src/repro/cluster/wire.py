"""Length-prefixed binary wire format for the cluster worker protocol.

One message is one frame, mirroring the ``serving/codec.py`` snapshot
discipline on a socket instead of a file::

    magic "RCLW" | u32 wire version | u32 header length
    | header JSON (utf-8) | zero padding to 8-byte alignment
    | raw little-endian array payload

The header carries the message ``kind`` (``"world"``, ``"task"``,
``"partial"``, ...), a JSON ``meta`` dict, one descriptor per payload
array — ``(name, dtype, offset, count)`` with offsets relative to the
payload start — and a CRC-32 of the whole payload.  Arrays travel as
raw typed buffers (never pickle), so a worker written against wire
version N can refuse frames from version N+1 with a clear error
instead of misreading them, and a corrupted or truncated frame
surfaces as :class:`ClusterError` naming the peer — callers never see
a raw ``struct``/``json``/``socket`` traceback.

``CopyParams`` ships inside ``meta`` as plain JSON: Python's float
repr round-trips exactly (shortest-repr), so the worker reconstructs
bit-identical parameters without pickling.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Mapping

import numpy as np

#: Frame magic: Repro CLuster Wire.
MAGIC = b"RCLW"

#: Highest wire format this build speaks and the one it writes.  Bump
#: on any incompatible protocol change; older peers refuse newer
#: frames with a clear :class:`ClusterError` instead of misreading.
WIRE_VERSION = 1

_PREAMBLE = struct.Struct("<4sII")

#: Upper bound on a sane header, to reject garbage length prefixes
#: before allocating (a corrupt u32 can claim gigabytes).
_MAX_HEADER = 1 << 24

#: Upper bound on a frame's payload (2 GiB), checked against the
#: header's ``payload_length`` before anything is allocated.  The
#: largest frames the executor sends — a whole world's columnar entries
#: — are orders of magnitude smaller; a header claiming more (or a
#: negative or non-integer length) is a corrupt frame.
MAX_PAYLOAD = 1 << 31


class ClusterError(Exception):
    """A cluster operation failed (dead worker, corrupt frame, ...).

    The single error type of :mod:`repro.cluster`: everything the wire
    codec, a worker, or the executor can reject — truncated or
    corrupted frames, frames from a newer wire version, a worker that
    died mid-task, a connection refused — raises this, so callers
    catch one exception instead of raw ``socket``/``struct`` errors.
    """


def _align8(n: int) -> int:
    return (n + 7) & ~7


def encode_message(
    kind: str,
    meta: Mapping | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> bytes:
    """Serialize one protocol message into a single frame buffer.

    Args:
        kind: message discriminator (``"world"``, ``"task"``, ...).
        meta: JSON-serializable metadata, stored verbatim under the
            header's ``"meta"`` key.
        arrays: named 1-D arrays; each is stored contiguously in its
            own dtype at an 8-byte-aligned payload offset.
    """
    descriptors = []
    chunks = []
    offset = 0
    for name, arr in (arrays or {}).items():
        arr = np.ascontiguousarray(arr)
        offset = _align8(offset)
        descriptors.append((name, arr.dtype.str, offset, int(arr.size)))
        chunks.append((offset, arr.tobytes()))
        offset += arr.nbytes
    payload = bytearray(_align8(offset))
    for start, data in chunks:
        payload[start : start + len(data)] = data
    header = json.dumps(
        {
            "kind": kind,
            "meta": dict(meta or {}),
            "arrays": descriptors,
            "payload_crc32": zlib.crc32(bytes(payload)) & 0xFFFFFFFF,
            "payload_length": len(payload),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    preamble = _PREAMBLE.pack(MAGIC, WIRE_VERSION, len(header))
    pad = b"\0" * (_align8(_PREAMBLE.size + len(header)) - _PREAMBLE.size - len(header))
    return preamble + header + pad + bytes(payload)


def _recv_exact(sock: socket.socket, n: int, source: str) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on EOF at offset zero.

    EOF anywhere past the first byte is a truncated frame and raises;
    EOF before any byte arrived is a clean close, which the caller
    decides how to treat.
    """
    if n == 0:
        return b""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            chunk = sock.recv_into(view[got:], n - got)
        except OSError as exc:
            raise ClusterError(f"{source}: connection lost mid-frame ({exc})") from exc
        if chunk == 0:
            if got == 0:
                return None
            raise ClusterError(
                f"{source}: connection closed mid-frame ({got} of {n} bytes)"
            )
        got += chunk
    return bytes(buf)


def send_message(
    sock: socket.socket,
    kind: str,
    meta: Mapping | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> int:
    """Encode and send one frame; returns the number of bytes written.

    Raises:
        ClusterError: when the peer is gone (reset, broken pipe).
    """
    frame = encode_message(kind, meta, arrays)
    try:
        sock.sendall(frame)
    except OSError as exc:
        peer = _peer_label(sock)
        raise ClusterError(f"{peer}: connection lost sending {kind!r} ({exc})") from exc
    return len(frame)


def recv_message(
    sock: socket.socket, eof_ok: bool = False
) -> tuple[str, dict, dict] | None:
    """Receive one frame and decode it into ``(kind, meta, arrays)``.

    Args:
        sock: connected stream socket.
        eof_ok: when true, a clean close at a frame boundary returns
            ``None`` instead of raising (a worker's serve loop uses
            this to notice the driver hanging up).

    Raises:
        ClusterError: for anything short of a well-formed frame this
            build can read — truncation, corruption, wrong magic, a
            failed checksum, or a newer wire version.
    """
    source = _peer_label(sock)
    preamble = _recv_exact(sock, _PREAMBLE.size, source)
    if preamble is None:
        if eof_ok:
            return None
        raise ClusterError(f"{source}: connection closed before a reply arrived")
    magic, version, header_len = _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise ClusterError(f"{source}: not a cluster frame (bad magic {magic!r})")
    if version > WIRE_VERSION:
        raise ClusterError(
            f"{source}: wire format version {version} is newer than this "
            f"build speaks (max {WIRE_VERSION}); upgrade the library"
        )
    if header_len > _MAX_HEADER:
        raise ClusterError(
            f"{source}: corrupted frame (header claims {header_len} bytes)"
        )
    padded_len = _align8(_PREAMBLE.size + header_len) - _PREAMBLE.size
    header_bytes = _recv_exact(sock, padded_len, source)
    if header_bytes is None:
        raise ClusterError(f"{source}: connection closed mid-frame (no header)")
    try:
        header = json.loads(header_bytes[:header_len].decode("utf-8"))
        kind = header["kind"]
        meta = header["meta"]
        descriptors = header["arrays"]
        crc_expected = header["payload_crc32"]
        payload_length = header["payload_length"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ClusterError(f"{source}: corrupted frame header ({exc})") from exc
    if (
        isinstance(payload_length, bool)
        or not isinstance(payload_length, int)
        or not 0 <= payload_length <= MAX_PAYLOAD
    ):
        raise ClusterError(
            f"{source}: corrupted frame (payload length {payload_length!r} "
            f"outside 0..{MAX_PAYLOAD})"
        )
    payload = _recv_exact(sock, payload_length, source)
    if payload is None and payload_length:
        raise ClusterError(f"{source}: connection closed mid-frame (no payload)")
    payload = payload or b""
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_expected:
        raise ClusterError(f"{source}: frame payload fails its checksum")
    arrays: dict[str, np.ndarray] = {}
    try:
        for name, dtype, offset, count in descriptors:
            arr = np.frombuffer(payload, dtype=np.dtype(dtype), count=count, offset=offset)
            arr.flags.writeable = False
            arrays[name] = arr
    except (ValueError, TypeError) as exc:
        raise ClusterError(f"{source}: corrupted frame array table ({exc})") from exc
    return kind, meta, arrays


def _peer_label(sock: socket.socket) -> str:
    """Best-effort ``host:port`` of the peer, for error messages."""
    try:
        # AF_UNIX peers (socketpair in tests) have a bare-string name.
        host, port = sock.getpeername()[:2]
        return f"{host}:{port}"
    except (OSError, ValueError):
        return "<disconnected>"
