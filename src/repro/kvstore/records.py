"""On-media record encoding shared by the WAL and the SSTables.

A record is::

    u32 crc (of everything after it) | u16 flags+klen | u32 vlen |
    key | value

The top bit of the klen field marks a *tombstone* (a delete); decoding
a tombstone yields ``value = None``.  CRCs make recovery honest: a
torn append (crash mid-record) is detected and replay stops there,
exactly like LevelDB/RocksDB log replay.

The CRC is seeded with the log's *epoch* (``zlib.crc32(body, epoch)``),
so a record carries its generation without a byte more.  Epoch 0 is the
plain CRC (SSTables, a WAL that never flushed); see :func:`retired`.
"""

import struct
import zlib

_HEADER = struct.Struct("<IHI")
HEADER_SIZE = _HEADER.size
_TOMBSTONE_FLAG = 0x8000
_KLEN_MASK = 0x7FFF


def encode(key, value, epoch=0):
    """Serialize one record; ``value=None`` encodes a tombstone."""
    if len(key) > _KLEN_MASK:
        raise ValueError("key too long")
    if value is None:
        klen_field = len(key) | _TOMBSTONE_FLAG
        value = b""
    else:
        klen_field = len(key)
    body = struct.pack("<HI", klen_field, len(value)) + key + value
    return struct.pack("<I", zlib.crc32(body, epoch)) + body


def decode(buf, offset=0, verify_crc=True, epoch=0, size=None):
    """Decode one record at ``offset``.

    Returns ``(key, value, next_offset)`` — ``value is None`` for a
    tombstone — or None if the bytes do not form a valid record of
    ``epoch`` (torn write, zeroed space, corruption, another epoch).

    ``size`` is the length of the region ``buf`` was read from (default
    ``len(buf)``); its bytes past the end of ``buf`` read as zeros, as
    in a recovery scan's clipped read (see
    :func:`~repro.faults.model.tolerant_read`).

    ``verify_crc=False`` is the deliberately *naive* mode: it trusts
    any length-plausible header, so torn or corrupt records decode into
    garbage.  It exists so the fault matrix can demonstrate that it
    catches exactly the corruption CRCs prevent.
    """
    if offset + HEADER_SIZE > len(buf):
        return _decode_past(buf, offset, verify_crc, epoch, size)
    crc, klen_field, vlen = _HEADER.unpack_from(buf, offset)
    klen = klen_field & _KLEN_MASK
    end = offset + HEADER_SIZE + klen + vlen
    if end > len(buf):
        return _decode_past(buf, offset, verify_crc, epoch, size)
    body = bytes(buf[offset + 4:end])
    if crc == 0 and not any(body):
        return None                  # zeroed space, in any mode
    if verify_crc and crc != zlib.crc32(body, epoch):
        return None
    key = body[6:6 + klen]
    value = body[6 + klen:]
    if klen_field & _TOMBSTONE_FLAG:
        return key, None, end
    return key, value, end


def _decode_past(buf, offset, verify_crc, epoch, size):
    """:func:`decode` of a record running past the end of ``buf`` into
    the zeros of a ``size``-byte region (None past the region)."""
    if size is None or offset + HEADER_SIZE > size:
        return None
    head = bytes(buf[offset:offset + HEADER_SIZE]).ljust(HEADER_SIZE, b"\0")
    _, klen_field, vlen = _HEADER.unpack(head)
    span = HEADER_SIZE + (klen_field & _KLEN_MASK) + vlen
    if offset + span > size:
        return None
    rec = decode(bytes(buf[offset:offset + span]).ljust(span, b"\0"), 0,
                 verify_crc, epoch)
    return None if rec is None else (rec[0], rec[1], offset + span)


def retired(buf, offset, epoch, size=None):
    """True when the record at ``offset`` is intact under an epoch older
    than ``epoch``: a leftover of a log generation a flush retired."""
    return any(decode(buf, offset, epoch=e, size=size) is not None
               for e in range(epoch))


def scan(buf, offset=0):
    """Yield valid records until the first invalid one."""
    while True:
        rec = decode(buf, offset)
        if rec is None:
            return
        key, value, offset = rec
        yield key, value
