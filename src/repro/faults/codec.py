"""Sealed records: ``crc u32 | body``, the CRC of the body seeded with
an *epoch* (0: the plain CRC).  A record checked under another epoch
fails like a torn one.  The WAL and SSTable records, the manifest slots,
the PMDK lane entries and NOVA's log entries and inode slots all seal
and check here; DESIGN's "Sealed records on media" table lists them.
"""

import struct
import zlib

_CRC = struct.Struct("<I")
CRC_SIZE = _CRC.size


def seal(body, epoch=0):
    """``crc u32 | body``, the CRC of ``body`` seeded with ``epoch``."""
    return _CRC.pack(zlib.crc32(body, epoch)) + body


def check(buf, offset, length, epoch=0, size=None, verify=True):
    """The body of the ``length``-byte sealed record at ``offset``, or
    None for a zeroed span (no record) or a failed CRC.

    ``size`` is the length of the region ``buf`` was read from: bytes
    past the end of ``buf`` read as zeros, as in a clipped
    :func:`~repro.faults.model.tolerant_read`, and a span past ``size``
    (default ``len(buf)``) is no record.  ``verify=False`` (a naive
    mode) skips the CRC but still reads zeroed space as no record.
    """
    end = offset + length
    if end > len(buf):
        if size is None or end > size:
            return None
        buf, offset = bytes(buf[offset:]).ljust(length, b"\0"), 0
    crc = _CRC.unpack_from(buf, offset)[0]
    body = bytes(buf[offset + CRC_SIZE:offset + length])
    if not crc and not any(body):
        return None
    if verify and crc != zlib.crc32(body, epoch):
        return None
    return body
