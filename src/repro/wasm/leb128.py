"""LEB128 variable-length integer encoding, as used throughout the Wasm binary format.

Both the canonical (minimal-length) encoding and decoding of redundant
(non-minimal, but in-range) encodings are supported, since the spec allows
redundant encodings up to the ceiling of bits/7 bytes. The paper notes
(§4.5, footnote 13) that Wasabi re-encodes indices compactly, occasionally
*shrinking* binaries; our encoder is canonical for the same reason.
"""

from __future__ import annotations

from .errors import DecodeError


def encode_unsigned(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128 (canonical form)."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value} as unsigned LEB128")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_signed(value: int) -> bytes:
    """Encode a signed integer as signed LEB128 (canonical form)."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7  # arithmetic shift: Python ints keep the sign
        sign_bit = byte & 0x40
        if (value == 0 and not sign_bit) or (value == -1 and sign_bit):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def decode_unsigned(data: bytes | memoryview, pos: int, bits: int = 32,
                    end: int | None = None) -> tuple[int, int]:
    """Decode an unsigned LEB128 integer of at most ``bits`` bits.

    Returns ``(value, new_pos)``. Raises :class:`DecodeError` on overlong
    encodings, out-of-range values, or input truncated at ``end``
    (default: the end of ``data``).
    """
    if end is None:
        end = len(data)
    result = 0
    shift = 0
    max_bytes = (bits + 6) // 7
    for i in range(max_bytes):
        if pos + i >= end:
            raise DecodeError("truncated LEB128 integer", offset=pos)
        byte = data[pos + i]
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if i == max_bytes - 1:
                # the final possible byte has 7*max_bytes - bits unusable
                # high bits; any of them set would overflow the type
                used = bits - 7 * i
                if byte & (0x7F >> used << used):
                    raise DecodeError(
                        f"non-canonical high bits in final byte of u{bits} "
                        f"LEB128 ({byte:#04x})", offset=pos + i)
            if result >= (1 << bits):
                raise DecodeError(f"LEB128 value {result} exceeds u{bits}", offset=pos)
            return result, pos + i + 1
    raise DecodeError(f"unsigned LEB128 longer than {max_bytes} bytes for u{bits}", offset=pos)


def decode_signed(data: bytes | memoryview, pos: int, bits: int = 32,
                  end: int | None = None) -> tuple[int, int]:
    """Decode a signed LEB128 integer of at most ``bits`` bits.

    Returns ``(value, new_pos)`` with ``value`` in two's-complement range;
    like :func:`decode_unsigned`, reads stop at ``end``.
    """
    if end is None:
        end = len(data)
    result = 0
    shift = 0
    max_bytes = (bits + 6) // 7
    for i in range(max_bytes):
        if pos + i >= end:
            raise DecodeError("truncated LEB128 integer", offset=pos)
        byte = data[pos + i]
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if i == max_bytes - 1:
                # the unusable high bits of the final byte must be a proper
                # sign extension of the topmost value bit
                used = bits - 7 * i
                unused_mask = 0x7F >> used << used
                required = unused_mask if byte & (1 << (used - 1)) else 0
                if byte & unused_mask != required:
                    raise DecodeError(
                        f"non-canonical sign bits in final byte of s{bits} "
                        f"LEB128 ({byte:#04x})", offset=pos + i)
            if byte & 0x40:
                result |= -1 << shift
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            if not lo <= result <= hi:
                raise DecodeError(f"LEB128 value {result} exceeds s{bits}", offset=pos)
            return result, pos + i + 1
    raise DecodeError(f"signed LEB128 longer than {max_bytes} bytes for s{bits}", offset=pos)
