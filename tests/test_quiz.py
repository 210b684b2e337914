import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyvault.quiz import (
    QuizParams,
    apply_transform,
    attack_bits,
    encode_point,
    random_grid_beta,
    recover_index,
    snap_angle,
    transform_offsets,
)


class TestParams:
    def test_step_and_bits(self):
        p = QuizParams(8, 65537)
        assert p.step == 8192
        assert p.n * p.step <= p.q

    def test_validation(self):
        with pytest.raises(ValueError):
            QuizParams(1)
        with pytest.raises(ValueError):
            QuizParams(100000, 65537)


class TestEncode:
    def test_wraparound_example(self):
        # alpha snapped to 3pi/8, j=5, n=8: beta = pi mod pi = 0
        p = QuizParams(8)
        _, beta = encode_point(3 * math.pi / 8, 5, 100, p)
        assert abs(beta) < 1e-9

    def test_j_zero_is_identity(self):
        p = QuizParams(8)
        alpha = snap_angle(0.7, 8)
        stored, beta = encode_point(alpha, 0, 4242, p)
        assert stored == 4242
        assert abs(beta - alpha) < 1e-9  # beta carries 9 decimal digits

    def test_transform_cancellation_any_value(self):
        p = QuizParams(8, 65537)
        for value in (0, 1, 12345, 65536):
            stored, _ = encode_point(0.3, 5, value, p)
            assert apply_transform(stored, 5, p) == value

    def test_input_validation(self):
        p = QuizParams(4)
        with pytest.raises(ValueError):
            encode_point(math.pi, 0, 1, p)
        with pytest.raises(ValueError):
            encode_point(0.2, 4, 1, p)

    def test_offsets_distinct(self):
        p = QuizParams(8, 65537)
        offs = transform_offsets(p)
        assert len(set(offs)) == 8
        assert offs[0] == 0


class TestRecover:
    def test_exhaustive_grid_times_index(self):
        # all (snapped alpha, j) combinations at n=8 recover exactly
        n = 8
        p = QuizParams(n)
        for m in range(n):
            alpha = m * math.pi / n
            for j in range(n):
                _, beta = encode_point(alpha, j, 777, p)
                assert recover_index(alpha, beta, n) == j

    def test_beta_equals_alpha_gives_zero(self):
        assert recover_index(0.51, 0.51, 8) == 0

    @given(
        m=st.integers(0, 7),
        j=st.integers(0, 7),
        noise=st.floats(-math.pi / 16 + 1e-9, math.pi / 16 - 1e-9),
    )
    @settings(max_examples=200)
    def test_recovery_tolerates_sub_cell_noise(self, m, j, noise):
        n = 8
        p = QuizParams(n)
        alpha = m * math.pi / n
        _, beta = encode_point(alpha, j, 5, p)
        measured = (alpha + noise) % math.pi
        assert recover_index(measured, beta, n) == j

    def test_roundtrip_through_field_value(self):
        p = QuizParams(4, 65537)
        rng = random.Random(2)
        for _ in range(300):
            alpha = snap_angle(rng.uniform(0, math.pi), 4)
            j = rng.randrange(4)
            value = rng.randrange(65537)
            stored, beta = encode_point(alpha, j, value, p)
            j_rec = recover_index(alpha, beta, 4)
            assert j_rec == j
            assert apply_transform(stored, j_rec, p) == value


class TestLeakage:
    def test_beta_uniform_on_grid_over_random_index(self):
        n = 8
        p = QuizParams(n)
        rng = random.Random(5)
        trials = 10**5
        counts = [0] * n
        cell = math.pi / n
        for _ in range(trials):
            alpha = snap_angle(rng.uniform(0, math.pi), n)
            _, beta = encode_point(alpha, rng.randrange(n), 9, p)
            slot = round(beta / cell) % n
            assert abs(beta - (slot * cell) % math.pi) < 1e-9  # beta on the grid
            counts[slot] += 1
        expected = trials / n
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < (n - 1) + 3 * math.sqrt(2 * (n - 1))

    def test_chaff_beta_on_same_grid(self):
        rng = random.Random(6)
        cell = math.pi / 8
        for _ in range(200):
            beta = random_grid_beta(8, rng)
            assert abs(beta / cell - round(beta / cell)) < 1e-8


class TestAttackBits:
    def test_values(self):
        assert attack_bits(3, 4) == 6.0
        assert attack_bits(1, 1) == 0.0
        assert abs(attack_bits(14, 8) - 42.0) < 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            attack_bits(3, 0)
