import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyvault.field import DEFAULT_Q, PrimeField, is_prime

F = PrimeField()
F17 = PrimeField(17)


class TestConstruction:
    def test_default_modulus(self):
        assert F.q == DEFAULT_Q == 65537
        assert DEFAULT_Q > 2**16

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(65536)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PrimeField(2**31 + 11)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_is_prime_spot_checks(self):
        assert is_prime(2) and is_prime(17) and is_prime(65537)
        assert not is_prime(1) and not is_prime(65536) and not is_prime(15)
        assert is_prime(2147483647)  # 2**31 - 1


class TestArithmetic:
    def test_inverse_matches_exhaustive_scan_q17(self):
        # oracle: exhaustive scan of F_17
        for a in range(1, 17):
            expected = next(b for b in range(17) if a * b % 17 == 1)
            assert F17.inv(a) == expected
        assert F17.inv(5) == 7

    def test_inv_of_two_is_half_plus(self):
        # (q+1)/2 is analytically forced
        assert F.inv(2) == 32769
        assert 2 * 32769 % F.q == 1

    def test_inv_identity(self):
        assert F17.inv(1) == 1

    def test_zero_inversion_raises(self):
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            F17.batch_inv([3, 17, 5])

    @given(a=st.integers(1, 65536))
    def test_inverse_law(self, a):
        assert a * F.inv(a) % F.q == 1

    def test_batch_inv_matches_single(self):
        rng = random.Random(5)
        values = [rng.randrange(1, F.q) for _ in range(20)]
        assert F.batch_inv(values) == [F.inv(v) for v in values]


class TestPolyEval:
    def test_hand_evaluated_quadratic(self):
        # 1 + 3X + 2X^2 at x=4: 2*16 + 12 + 1 = 45 = 11 mod 17
        assert F17.poly_eval((1, 3, 2), 4) == 11

    def test_hand_evaluated_second(self):
        # 3 + 2X + X^2 at x=1 -> 6
        assert F17.poly_eval((3, 2, 1), 1) == 6

    def test_constant(self):
        assert F.poly_eval((42,), 12345) == 42
        assert F17.poly_eval((9,), 3) == 9

    def test_reduces_input(self):
        assert F17.poly_eval((1, 1), 18) == F17.poly_eval((1, 1), 1)


class TestInterpolation:
    def test_hand_solved_vandermonde(self):
        # 3x3 system solved by hand: f = 3 + 2X + X^2
        pts = [(1, 6), (2, 11), (3, 1)]
        assert F17.interpolate(pts) == (3, 2, 1)
        for x, y in pts:
            assert F17.poly_eval((3, 2, 1), x) == y

    def test_single_point_constant(self):
        assert F.interpolate([(5, 9)]) == (9,)

    def test_duplicate_x_raises(self):
        with pytest.raises(ValueError):
            F.interpolate([(1, 2), (1, 3)])

    def test_no_points_raises(self):
        with pytest.raises(ValueError):
            F.interpolate([])

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.interpolate([(1, 2), (2, 3)], k=3)

    @given(k=st.integers(1, 24), seed=st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_roundtrip(self, k, seed):
        rng = random.Random(seed)
        coeffs = F.random_polynomial(k, rng)
        xs = rng.sample(range(F.q), k)
        pts = [(x, F.poly_eval(coeffs, x)) for x in xs]
        assert F.interpolate(pts) == coeffs

    @given(k=st.integers(1, 8), seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_roundtrip_small_field(self, k, seed):
        rng = random.Random(seed)
        coeffs = F17.random_polynomial(k, rng)
        xs = rng.sample(range(17), k)
        pts = [(x, F17.poly_eval(coeffs, x)) for x in xs]
        assert F17.interpolate(pts) == coeffs


class TestRandomPolynomial:
    def test_deterministic_for_seed(self):
        a = F.random_polynomial(6, random.Random(11))
        b = F.random_polynomial(6, random.Random(11))
        assert a == b

    def test_single_coefficient(self):
        value = F.random_polynomial(1, random.Random(3))
        assert len(value) == 1 and 0 <= value[0] < F.q

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            F.random_polynomial(0, random.Random(0))

    def test_coefficient_uniformity(self):
        # 1e5 draws of k=3 over F_17; every (position, value) cell within
        # 3 binomial sigmas of n/17
        rng = random.Random(99)
        n = 10**5
        counts = [[0] * 17 for _ in range(3)]
        for _ in range(n):
            for pos, c in enumerate(F17.random_polynomial(3, rng)):
                counts[pos][c] += 1
        p = 1 / 17
        bound = 3 * math.sqrt(n * p * (1 - p))
        for pos in range(3):
            for v in range(17):
                assert abs(counts[pos][v] - n * p) <= bound


class TestProbabilityLaw:
    def test_random_pair_on_graph_rate_is_one_over_q(self):
        # For fixed non-constant f and uniform (X, Y): P[Y = f(X)] = 1/q
        rng = random.Random(1234)
        coeffs = (12, 7, 1)
        q = F.q
        n = 10**6
        hits = 0
        randrange = rng.randrange
        for _ in range(n):
            x = randrange(q)
            y = randrange(q)
            acc = (x + 7) * x + 12
            if acc % q == y:
                hits += 1
        p = 1.0 / q
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma


class TestCostSanity:
    def test_interpolation_cost_grows_no_worse_than_quadratic(self):
        # desk-scale benchmark, not an asymptotic proof; generous headroom
        def avg_time(k, reps):
            rng = random.Random(7)
            batches = []
            for _ in range(reps):
                xs = rng.sample(range(F.q), k)
                batches.append([(x, rng.randrange(F.q)) for x in xs])
            start = time.perf_counter()
            for pts in batches:
                F.interpolate(pts)
            return (time.perf_counter() - start) / reps

        t6 = avg_time(6, 300)
        t24 = avg_time(24, 300)
        assert t24 / t6 < 4 * (24 / 6) ** 2
