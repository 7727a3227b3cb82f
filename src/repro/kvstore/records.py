"""On-media record encoding shared by the WAL and the SSTables.

A record is a sealed record (:mod:`repro.faults.codec`)::

    u32 crc (of everything after it) | u16 flags+klen | u32 vlen |
    key | value

The top bit of the klen field marks a *tombstone* (a delete); decoding
a tombstone yields ``value = None``.  CRCs make recovery honest: a
torn append (crash mid-record) is detected and replay stops there,
exactly like LevelDB/RocksDB log replay.

The CRC is seeded with the log's *epoch*, so a record carries its
generation without a byte more.  Epoch 0 is the plain CRC (SSTables, a
WAL that never flushed); see :func:`retired`.
"""

import struct

from repro.faults.codec import check, seal

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
    return seal(struct.pack("<HI", klen_field, len(value)) + key + value,
                epoch)


def decode(buf, offset=0, verify_crc=True, epoch=0, size=None):
    """Decode one record at ``offset``.

    Returns ``(key, value, next_offset)`` — ``value is None`` for a
    tombstone — or None if the bytes do not form a valid record of
    ``epoch`` (torn write, zeroed space, corruption, another epoch).
    ``size`` is the length of the region ``buf`` was read from, as in
    :func:`~repro.faults.codec.check`.

    ``verify_crc=False`` is the deliberately *naive* mode: it trusts
    any length-plausible header, so torn or corrupt records decode into
    garbage.  It exists so the fault matrix can demonstrate that it
    catches exactly the corruption CRCs prevent.
    """
    _, klen_field, vlen = _HEADER.unpack(bytes(      # clipped: zeros
        buf[offset:offset + HEADER_SIZE]).ljust(HEADER_SIZE, b"\0"))
    klen = klen_field & _KLEN_MASK
    span = HEADER_SIZE + klen + vlen
    body = check(buf, offset, span, epoch, size, verify_crc)
    if body is None:
        return None
    value = None if klen_field & _TOMBSTONE_FLAG else body[6 + klen:]
    return body[6:6 + klen], value, offset + span


def retired(buf, offset, epoch, size=None):
    """True when the record at ``offset`` is intact under an epoch older
    than ``epoch``: a leftover of a log generation a flush retired."""
    return any(decode(buf, offset, epoch=e, size=size) is not None
               for e in range(epoch))

