"""Checksummed record framing shared by the WAL and the event journal.

Both append-only files store a sequence of self-delimiting records
(little-endian)::

    record := magic(4s) | length(u32) | crc32(u32) | body

where ``body`` is one UTF-8 JSON object.  Each file has its own magic, so one
is never mistaken for the other.  What a reader does when the bytes at an
offset are *not* an intact record is file-specific policy and stays with the
callers: the WAL stops (replaying past a gap could corrupt data), the journal
resynchronizes on the next magic marker (it is observational).
"""

from __future__ import annotations

import json
import struct
import zlib

#: Per-record frame header: magic, body length, body crc32.
_FRAME = struct.Struct("<4sII")


def pack_frame(magic: bytes, body: bytes) -> bytes:
    """One framed record around an already-serialized ``body``.

    The caller serializes (key order is part of each file's on-disk bytes).
    """
    return _FRAME.pack(magic, len(body), zlib.crc32(body)) + body


def unpack_frame(data: bytes, offset: int, magic: bytes) -> tuple[dict, int] | None:
    """``(payload, end_offset)`` of the record at ``offset``, or None when the
    bytes there are not one intact record (short, bad magic, bad checksum,
    body not a JSON object)."""
    frame_end = offset + _FRAME.size
    if frame_end > len(data):
        return None
    found_magic, length, crc = _FRAME.unpack_from(data, offset)
    if found_magic != magic:
        return None
    end = frame_end + length
    if end > len(data):
        return None
    body = data[frame_end:end]
    if zlib.crc32(body) != crc:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload, end
