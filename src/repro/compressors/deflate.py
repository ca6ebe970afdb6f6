"""DEFLATE: the final lossless stage of the SZ2/SZ3 streams and the
lossless baselines.

A chunk is a ``<QQ`` header (compressed length, raw length) followed by the
zlib body; zlib stands in for the SZ family's Zstd stage.  The zstd, blosc
and fpzip stand-ins keep their own framing and inflate through
:func:`inflate`.  Every failure to read a body back — short header, short
body, a body that does not inflate, or a raw length that disagrees with the
declared one — is a :class:`~repro.errors.DecompressionError`.  Inflating
never produces more than one byte past the declared raw length, so a
corrupt body cannot expand beyond what its header (checked by the caller's
bounds) allows.
"""

from __future__ import annotations

import struct
import sys
import zlib

from repro.errors import DecompressionError

__all__ = ["inflate", "pack_chunk", "unpack_chunk"]

_LEVEL = 6
_CHUNK = struct.Struct("<QQ")


def pack_chunk(raw: bytes) -> bytes:
    """Frame ``raw`` as one DEFLATE chunk."""
    comp = zlib.compress(raw, _LEVEL)
    return _CHUNK.pack(len(comp), len(raw)) + comp


def unpack_chunk(
    data: bytes,
    off: int,
    codec: str,
    raw_len: int | None = None,
    max_len: int | None = None,
) -> tuple[bytes, int]:
    """Read the chunk at ``off``; returns ``(raw bytes, offset after it)``.

    ``raw_len``, when the caller knows it, and ``max_len``, when it knows an
    upper bound, are checked against the chunk header before anything is
    inflated.
    """
    if len(data) < off + _CHUNK.size:
        raise DecompressionError(f"{codec} stream truncated in chunk header")
    clen, rlen = _CHUNK.unpack_from(data, off)
    off += _CHUNK.size
    if raw_len is not None and rlen != raw_len:
        raise DecompressionError(
            f"{codec} chunk declares {rlen} raw bytes, expected {raw_len}"
        )
    if max_len is not None and rlen > max_len:
        raise DecompressionError(
            f"{codec} chunk declares {rlen} raw bytes, at most {max_len} fit"
        )
    if len(data) < off + clen:
        raise DecompressionError(f"{codec} stream truncated in chunk body")
    return inflate(data[off : off + clen], rlen, codec), off + clen


def inflate(body: bytes, raw_len: int, codec: str) -> bytes:
    """Inflate a zlib ``body`` that must hold exactly ``raw_len`` bytes."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(body, min(raw_len + 1, sys.maxsize))
    except zlib.error as exc:
        raise DecompressionError(f"{codec} chunk does not inflate: {exc}") from None
    if not inflater.eof:
        raise DecompressionError(f"{codec} chunk is truncated or overruns its length")
    if len(raw) != raw_len:
        raise DecompressionError(f"{codec} chunk length mismatch after inflate")
    return raw
