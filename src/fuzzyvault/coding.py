"""Secret <-> polynomial coefficient packing, with an optional CRC-16 self check.

A secret of l bits is the big-endian integer of its byte string.  It is
packed into 16-bit limbs, least significant limb in the constant term,
remaining high coefficients zero.  CRC mode reserves the highest
coefficient for a CRC-16/CCITT-FALSE checksum of the secret bytes, so a
decoder can recognise the correct polynomial without outside help.

Capacity: l <= 16*k plain, l <= 16*(k-1) with CRC.  The 16-bit limb layout
requires q > 2**16.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

CHUNK_BITS = 16
_CHUNK_MASK = (1 << CHUNK_BITS) - 1

# CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF, no reflection, no
# final xor.  Check value: crc16(b"123456789") == 0x29B1.
_CRC_POLY = 0x1021
_CRC_INIT = 0xFFFF


def _make_crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ _CRC_POLY) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _make_crc_table()


def crc16(data: bytes) -> int:
    crc = _CRC_INIT
    for b in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ b]
    return crc


class CapacityError(ValueError):
    """Secret does not fit the polynomial for the given (k, crc)."""


class DecodeError(ValueError):
    """Coefficient vector is not a valid encoding."""


class CrcMismatch(DecodeError):
    """Checksum coefficient disagrees with the decoded secret bytes."""


@dataclass(frozen=True)
class Secret:
    data: bytes
    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("secret must have at least one bit")
        if len(self.data) != (self.bits + 7) // 8:
            raise ValueError(
                f"byte string of length {len(self.data)} does not match {self.bits} bits"
            )
        if int.from_bytes(self.data, "big") >> self.bits:
            raise ValueError("secret bytes exceed the declared bit length")

    @property
    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str, bits: int | None = None) -> "Secret":
        data = bytes.fromhex(text)
        return cls(data, 8 * len(data) if bits is None else bits)

    @classmethod
    def random(cls, bits: int, rng: random.Random) -> "Secret":
        value = rng.getrandbits(bits)
        return cls(value.to_bytes((bits + 7) // 8, "big"), bits)

    def xor(self, other: "Secret") -> "Secret":
        if other.bits != self.bits:
            raise ValueError("can only xor secrets of equal bit length")
        data = bytes(a ^ b for a, b in zip(self.data, other.data))
        return Secret(data, self.bits)


def capacity_bits(k: int, crc: bool) -> int:
    return CHUNK_BITS * (k - 1 if crc else k)


def min_elements(bits: int, q: int) -> int:
    """Smallest number of field elements able to carry a bits-long secret,
    i.e. ceil(bits / log2(q)), computed exactly in integer arithmetic."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    m, cap = 1, q
    while cap < (1 << bits):
        cap *= q
        m += 1
    return m


def encode_secret(secret: Secret, k: int, crc: bool = False, q: int = 65537) -> tuple[int, ...]:
    """Deterministic injective packing of a secret into k coefficients."""
    if q <= (1 << CHUNK_BITS):
        raise CapacityError("16-bit limb packing requires q > 65536")
    if crc and k < 2:
        raise CapacityError("CRC mode needs at least two coefficients")
    cap = capacity_bits(k, crc)
    if secret.bits > cap:
        raise CapacityError(
            f"secret of {secret.bits} bits exceeds capacity {cap} (k={k}, crc={crc})"
        )
    n_data = k - 1 if crc else k
    value = int.from_bytes(secret.data, "big")
    coeffs = [(value >> (CHUNK_BITS * i)) & _CHUNK_MASK for i in range(n_data)]
    if crc:
        coeffs.append(crc16(secret.data))
    return tuple(coeffs)


def decode_secret(coeffs, bits: int, crc: bool = False) -> Secret:
    """Exact inverse of encode_secret.

    Raises DecodeError when the coefficients cannot be a canonical encoding
    (limb out of range, excess high bits) and CrcMismatch when the checksum
    coefficient disagrees -- the signal that a candidate polynomial is wrong.
    """
    k = len(coeffs)
    n_data = k - 1 if crc else k
    if bits > CHUNK_BITS * n_data:
        raise DecodeError(f"{bits} bits cannot fit in {n_data} data coefficients")
    value = 0
    for i, c in enumerate(coeffs[:n_data]):
        if c >> CHUNK_BITS:
            raise DecodeError("coefficient exceeds the 16-bit limb range")
        value |= c << (CHUNK_BITS * i)
    if value >> bits:
        raise DecodeError("decoded value exceeds the declared bit length")
    data = value.to_bytes((bits + 7) // 8, "big")
    if crc and coeffs[n_data] != crc16(data):
        raise CrcMismatch("checksum coefficient does not match the decoded bytes")
    return Secret(data, bits)


def try_decode(coeffs, bits: int | None, crc: bool) -> Secret | None:
    """The secret an accepted candidate encodes, or None when the bit length
    is unknown or the coefficients are not a valid encoding."""
    if bits is None:
        return None
    try:
        return decode_secret(coeffs, bits, crc=crc)
    except ValueError:
        return None


def coeffs_pass_crc(coeffs, bits: int) -> bool:
    """CRC acceptance predicate for one candidate polynomial (no exceptions),
    the oracle for ``rows_pass_crc``."""
    n_data = len(coeffs) - 1
    if bits > CHUNK_BITS * n_data:
        return False
    value = 0
    shift = 0
    for c in coeffs[:n_data]:
        if c >> CHUNK_BITS:
            return False
        value |= c << shift
        shift += CHUNK_BITS
    if value >> bits:
        return False
    return coeffs[n_data] == crc16(value.to_bytes((bits + 7) // 8, "big"))


@functools.cache
def _crc_tables(k: int, bits: int):
    """(limit, offsets, table) for ``rows_pass_crc``.  Limb i must be below
    limit[i] = 2**min(16, max(0, bits - 16*i)).  Without its init value
    CRC-16 is linear over GF(2), so the CRC of the n = ceil(bits/8) secret
    bytes is the CRC of n zero bytes xor one entry per byte: table[256*j + b]
    is the init-free CRC of byte b followed by j zero bytes, j counting from
    the least significant byte, with the CRC of n zero bytes folded into the
    entries of j = 0."""
    n = (bits + 7) // 8
    limit = np.array([1 << min(CHUNK_BITS, max(0, bits - CHUNK_BITS * i)) for i in range(k - 1)])
    crc_table = np.array(_CRC_TABLE, dtype=np.int64)
    table = np.empty((n, 256), dtype=np.int64)
    table[0] = crc_table
    for j in range(1, n):
        table[j] = (table[j - 1] << 8 & 0xFFFF) ^ crc_table[table[j - 1] >> 8]
    table[0] ^= crc16(bytes(n))
    return limit, np.arange(0, 256 * n, 256), table.ravel()


def rows_pass_crc(coeffs: np.ndarray, bits: int) -> np.ndarray:
    """``coeffs_pass_crc`` of every row of a (rows, k) array of coefficients
    in [0, q), 1 <= bits <= 16*(k-1): a bool array, one entry per row."""
    limit, offsets, table = _crc_tables(coeffs.shape[1], bits)
    data = coeffs[:, :-1]
    # limb i's bytes, least significant first; a limb of 2**16 or more wraps
    # here but fails the limit test
    octets = data.astype("<u2").view(np.uint8)[:, :len(offsets)]
    crc = np.bitwise_xor.reduce(table.take(octets + offsets), axis=1)
    return (crc == coeffs[:, -1]) & (data < limit).all(axis=1)
