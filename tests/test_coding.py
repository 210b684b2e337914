import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyvault.coding import (
    CapacityError,
    CrcMismatch,
    DecodeError,
    Secret,
    capacity_bits,
    coeffs_pass_crc,
    crc16,
    decode_secret,
    encode_secret,
    min_elements,
    rows_pass_crc,
)


def crc16_bitwise_reference(data: bytes) -> int:
    # independent oracle: plain MSB-first bitwise CRC-16/CCITT-FALSE
    crc = 0xFFFF
    for b in data:
        crc ^= b << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc16:
    def test_reference_check_value(self):
        assert crc16(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16(b"") == 0xFFFF

    @given(st.binary(max_size=48))
    def test_matches_bitwise_reference(self, data):
        assert crc16(data) == crc16_bitwise_reference(data)


class TestSecret:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            Secret(b"\x01\x02", 24)
        with pytest.raises(ValueError):
            Secret(b"", 0)

    def test_excess_high_bits_rejected(self):
        with pytest.raises(ValueError):
            Secret(b"\xff", 4)

    def test_from_hex_roundtrip(self):
        s = Secret.from_hex("deadbeef")
        assert s.bits == 32 and s.hex == "deadbeef"

    def test_xor_involution(self):
        rng = random.Random(4)
        a = Secret.random(56, rng)
        b = Secret.random(56, rng)
        assert a.xor(b).xor(b) == a

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            Secret.random(16, random.Random(0)).xor(Secret.random(24, random.Random(0)))


class TestEncode:
    def test_forced_packing_example(self):
        s = Secret.from_hex("deadbeef")
        assert encode_secret(s, 2) == (0xBEEF, 0xDEAD)

    def test_zero_secret_single_coefficient(self):
        assert encode_secret(Secret(b"\x00\x00", 16), 1) == (0,)

    def test_high_coefficients_zero_padded(self):
        s = Secret.from_hex("deadbeef")
        assert encode_secret(s, 4) == (0xBEEF, 0xDEAD, 0, 0)

    def test_crc_in_highest_coefficient(self):
        s = Secret.from_hex("deadbeef")
        coeffs = encode_secret(s, 4, crc=True)
        assert coeffs[:3] == (0xBEEF, 0xDEAD, 0)
        assert coeffs[3] == crc16(s.data)

    def test_minimal_element_count(self):
        # ceil(l / log2(q)) for l=32, q=65537
        assert min_elements(32, 65537) == 2
        assert min_elements(16, 65537) == 1
        assert min_elements(17, 65537) == 2
        assert min_elements(112, 65537) == 7

    def test_capacity_errors(self):
        s = Secret.random(40, random.Random(1))
        with pytest.raises(CapacityError):
            encode_secret(s, 2)  # 40 > 32
        with pytest.raises(CapacityError):
            encode_secret(Secret.random(20, random.Random(1)), 2, crc=True)  # 20 > 16
        with pytest.raises(CapacityError):
            encode_secret(s, 1, crc=True)
        with pytest.raises(CapacityError):
            encode_secret(s, 4, q=65536)

    def test_capacity_bits(self):
        assert capacity_bits(6, False) == 96
        assert capacity_bits(6, True) == 80


class TestDecode:
    @given(bits=st.integers(1, 96), seed=st.integers(0, 2**32), crc=st.booleans())
    @settings(max_examples=150)
    def test_roundtrip(self, bits, seed, crc):
        secret = Secret.random(bits, random.Random(seed))
        k = (bits + 15) // 16 + (1 if crc else 0) + seed % 3
        coeffs = encode_secret(secret, k, crc=crc)
        assert decode_secret(coeffs, bits, crc=crc) == secret

    def test_roundtrip_bulk(self):
        rng = random.Random(77)
        for _ in range(2000):
            bits = rng.randrange(1, 97)
            crc = rng.random() < 0.5
            secret = Secret.random(bits, rng)
            k = (bits + 15) // 16 + (1 if crc else 0)
            assert decode_secret(encode_secret(secret, k, crc=crc), bits, crc=crc) == secret

    def test_crc_mismatch_raises(self):
        secret = Secret.from_hex("0011223344556677")
        coeffs = list(encode_secret(secret, 6, crc=True))
        coeffs[0] ^= 1
        with pytest.raises(CrcMismatch):
            decode_secret(tuple(coeffs), 64, crc=True)

    def test_limb_out_of_range_rejected(self):
        with pytest.raises(DecodeError):
            decode_secret((65536, 0), 32)

    def test_excess_value_rejected(self):
        with pytest.raises(DecodeError):
            decode_secret((0xFFFF, 0xFFFF), 20)

    def test_bits_inconsistent_with_k(self):
        with pytest.raises(DecodeError):
            decode_secret((1, 2), 40)

    def test_pass_crc_agrees_with_decode(self):
        rng = random.Random(3)
        ok = bad = 0
        for _ in range(3000):
            coeffs = tuple(rng.randrange(65537) for _ in range(5))
            fast = coeffs_pass_crc(coeffs, 64)
            try:
                decode_secret(coeffs, 64, crc=True)
                slow = True
            except DecodeError:
                slow = False
            assert fast == slow
            ok += fast
            bad += not fast
        assert bad > 0  # random polynomials are essentially never valid

    def test_false_accept_rate_upper_tail(self):
        # quick check: over 2e5 random polynomials the acceptance count stays
        # below the 3-sigma binomial ceiling of the 2**-16 rate; the full
        # 1e6-sample two-sided test lives in the acceptance suite
        rng = random.Random(2024)
        n = 2 * 10**5
        accepts = sum(
            coeffs_pass_crc(tuple(rng.randrange(65537) for _ in range(5)), 64)
            for _ in range(n)
        )
        expected = n / 65536
        assert accepts <= expected + 3 * (expected**0.5) + 1


@st.composite
def crc_rows(draw):
    """(bits, rows, planted) at k from 2 to 14 and 1 <= bits <= 16*(k-1):
    uniform rows in [0, q), and valid encodings, each also with one bit
    flipped, a data limb set to 2**16, a bit set at or above ``bits`` and a
    CRC coefficient of 2**16.  ``planted`` indexes the valid rows."""
    k = draw(st.integers(2, 14))
    bits = draw(st.integers(1, 16 * (k - 1)))
    rng = draw(st.randoms(use_true_random=False))
    rows, planted = [], []
    for _ in range(draw(st.integers(1, 4))):
        rows.append([rng.randrange(65537) for _ in range(k)])
        valid = list(encode_secret(Secret.random(bits, rng), k, crc=True))
        planted.append(len(rows))
        rows.append(valid)
        flipped = list(valid)
        flipped[rng.randrange(k)] ^= 1 << rng.randrange(16)
        rows.append(flipped)
        limb = list(valid)
        limb[rng.randrange(k - 1)] = 65536
        rows.append(limb)
        rows.append(valid[:-1] + [65536])
        if bits < 16 * (k - 1):
            # the lowest bit the secret may not use, and one at random above it
            for bit in (bits, rng.randrange(bits, 16 * (k - 1))):
                high = list(valid)
                high[bit // 16] |= 1 << bit % 16
                rows.append(high)
    return bits, rows, planted


@given(crc_rows())
def test_batched_crc_predicate_matches_the_one_row_oracle(case):
    bits, rows, planted = case
    got = rows_pass_crc(np.array(rows, dtype=np.int64), bits)
    assert got.dtype == bool
    assert got.tolist() == [coeffs_pass_crc(tuple(row), bits) for row in rows]
    assert got[planted].all()
