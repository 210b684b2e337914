import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyvault import (
    Secret,
    VaultParams,
    brute_force_attack,
    gen_template,
    lock_two_fingers,
)
from fuzzyvault.analysis import (
    CSV_HEADER,
    attack_work_log2,
    estimate,
    genuine_work_log2,
    interpolation_unit,
    log2_int,
    log2_ratio,
    security_factor_log2,
    spurious_count_log2,
    sweep,
    threshold_work_log2,
    to_csv,
    trial_estimate_log2,
    trial_odds,
    trials_approx_log2,
)


def factorial_binomial(n: int, k: int) -> int:
    # independent oracle for math.comb
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


class TestLog2:
    def test_small_values_exact(self):
        assert log2_int(8) == 3.0
        assert abs(log2_int(10) - math.log2(10)) < 1e-12

    def test_huge_values(self):
        n = math.factorial(400)  # ~2845 bits, overflows float conversion
        approx = log2_int(n)
        assert abs(approx - (n.bit_length() - 1)) < 1.0
        assert abs(log2_ratio(n * 1024, n) - 10.0) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_int(0)


class TestTrialOdds:
    def test_frozen_example(self):
        ratio, bits = trial_odds(40, 10, 4)
        assert ratio == Fraction(91390, 210) == Fraction(9139, 21)
        assert abs(float(ratio) - 435.190476) < 1e-6
        assert abs(bits - 8.765503) < 1e-3

    def test_r_equals_t(self):
        ratio, bits = trial_odds(25, 25, 6)
        assert ratio == 1 and bits == 0.0

    def test_k_one(self):
        ratio, _ = trial_odds(40, 10, 1)
        assert ratio == 4

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            trial_odds(10, 40, 4)
        with pytest.raises(ValueError):
            trial_odds(40, 10, 11)
        with pytest.raises(ValueError):
            trial_odds(40, 10, 0)

    def test_agrees_with_factorial_oracle_on_random_grid(self):
        rng = random.Random(123)
        for _ in range(50):
            r = rng.randrange(5, 400)
            t = rng.randrange(2, r + 1)
            k = rng.randrange(1, t + 1)
            ratio, _ = trial_odds(r, t, k)
            assert ratio == Fraction(factorial_binomial(r, k), factorial_binomial(t, k))

    @given(r=st.integers(3, 500), t=st.integers(2, 499), k=st.integers(2, 40))
    @settings(max_examples=200)
    def test_exact_odds_dominate_power_approximation(self, r, t, k):
        if not (k <= t < r):
            return
        ratio, bits = trial_odds(r, t, k)
        assert ratio > Fraction(r, t) ** k  # exact integer comparison
        assert bits > trials_approx_log2(r, t, k)


class TestWorkBounds:
    def test_clancy_preset_value(self):
        assert abs(attack_work_log2(313, 38, 14) - 57.687) < 0.01

    def test_uludag_preset_value(self):
        assert abs(attack_work_log2(200, 25, 8) - 37.644) < 0.01

    def test_t_equals_r_pure_overhead(self):
        assert abs(attack_work_log2(60, 60, 6) - math.log2(8 * 60 * 6)) < 1e-12

    def test_trial_estimate_includes_constant(self):
        assert abs(
            trial_estimate_log2(313, 38, 14)
            - (math.log2(1.1) + 14 * math.log2(313 / 38))
        ) < 1e-9

    def test_threshold_criterion_values(self):
        assert abs(threshold_work_log2(313, 38, 17) - 57.210) < 0.01
        assert abs(threshold_work_log2(313, 20, 17) - 81.800) < 0.01

    def test_threshold_zero_is_free(self):
        assert threshold_work_log2(313, 38, 0) == 0.0

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            threshold_work_log2(313, 38, 39)


class TestSpuriousBound:
    def test_desk_scale_value(self):
        bits = spurious_count_log2(17, 12, 4, 3, mu=1.0)
        assert abs(2.0**bits - 81 / 51) < 1e-9
        assert abs(bits - 0.6674) < 1e-3

    def test_k_equals_t_drops_field_term(self):
        bits = spurious_count_log2(65537, 40, 5, 5, mu=1.0)
        assert abs(bits - (math.log2(1 / 3) + 5 * math.log2(8))) < 1e-12

    def test_large_chaff_regime_grows(self):
        small = spurious_count_log2(65537, 1000, 38, 14)
        large = spurious_count_log2(65537, 10**4, 38, 14)
        assert large > small

    def test_mu_validated(self):
        with pytest.raises(ValueError):
            spurious_count_log2(17, 12, 4, 3, mu=0.0)
        with pytest.raises(ValueError):
            spurious_count_log2(17, 12, 4, 3, mu=1.5)


class TestSecurityFactor:
    def test_equal_costs_give_zero_bits(self):
        g = genuine_work_log2(313, 14)
        assert security_factor_log2(g, 313, 14) == 0.0

    def test_clancy_model_value(self):
        k_unit = interpolation_unit(14)
        assert abs(k_unit - 6.5 * math.log2(14) ** 2) < 1e-12
        f_bits = security_factor_log2(attack_work_log2(313, 38, 14), 313, 14)
        assert abs(f_bits - 55.575) < 0.01

    def test_uludag_model_value(self):
        f_bits = security_factor_log2(attack_work_log2(200, 25, 8), 200, 8)
        expected = attack_work_log2(200, 25, 8) - math.log2(1 + 200 / interpolation_unit(8))
        assert abs(f_bits - expected) < 1e-12


class TestEstimateRows:
    def test_csv_header_fixed(self):
        assert CSV_HEADER == (
            "r,t,k,D,q,quiz_n,log2_trials_exact,log2_trials_approx,log2_R_bound,"
            "log2_Cbf,log2_lemma1,log2_F,empirical_mean_trials,empirical_runs"
        )

    def test_row_formatting_deterministic(self):
        est = estimate(313, 38, 14, D=17)
        text = to_csv([est])
        assert text == to_csv([estimate(313, 38, 14, D=17)])
        line = text.splitlines()[1]
        assert line.startswith("313,38,14,17,65537,0,")
        assert line.endswith(",,0")

    def test_default_threshold_clamped_to_t(self):
        est = estimate(10, 2, 2)
        assert est.D == 2

    def test_quiz_adds_k_log2_n_bits(self):
        plain = estimate(30, 8, 3)
        quiz = estimate(30, 8, 3, quiz_n=4)
        assert abs(quiz.log2_R_bound - plain.log2_R_bound - 3 * 2.0) < 1e-9
        assert abs(quiz.log2_F - plain.log2_F - 6.0) < 1e-9
        assert quiz.log2_trials_exact == plain.log2_trials_exact

    def test_monotone_in_r_and_k(self):
        rows = sweep([dict(r=r, t=38, k=14) for r in (100, 200, 313, 400)])
        bounds = [row.log2_R_bound for row in rows]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        rows_k = sweep([dict(r=313, t=38, k=k) for k in (2, 6, 10, 14)])
        bounds_k = [row.log2_R_bound for row in rows_k]
        assert bounds_k == sorted(bounds_k) and len(set(bounds_k)) == len(bounds_k)

    def test_region_of_interest_scaling_leaves_approx_unchanged(self):
        base = estimate(313, 38, 14)
        scaled = estimate(313 * 3, 38 * 3, 14)
        assert abs(base.log2_trials_approx - scaled.log2_trials_approx) < 1e-9

    def test_pair_of_vaults_adds_one_bit(self):
        # each xor share's vault falls to its own D-hit test, so breaking both
        # takes 2 * C(30,3)/C(8,3) = 145 trials on average: one bit above the
        # row's exact figure, not twice its log2
        row = estimate(30, 8, 3)
        expected = 2 * 2**row.log2_trials_exact
        assert abs(expected - 2 * math.comb(30, 3) / math.comb(8, 3)) < 1e-9
        # 10% of the mean is 4 standard errors of the sum of two geometric laws
        p = math.comb(8, 3) / math.comb(30, 3)
        runs = math.ceil((4 * math.sqrt(2 * (1 - p)) / p / (0.10 * expected)) ** 2)
        params = VaultParams(k=3, t=8, r=30)
        total = 0
        for i in range(runs):
            secret = Secret.random(40, random.Random(i))
            locked = lock_two_fingers(gen_template(8, seed=2 * i), gen_template(8, seed=2 * i + 1),
                                      secret, params, seed=i)
            shares = []
            for j, (vault, _) in enumerate(locked):
                report = brute_force_attack(vault, D=6, t_assumed=8, bits=40, seed=2 * i + j)
                assert report.success
                total += report.trials
                shares.append(report.secret)
            assert shares[0].xor(shares[1]) == secret
        assert abs(total / runs - expected) <= 0.10 * expected

    def test_empirical_column_agreement(self):
        # a mean of 800 geometric trial counts has a relative standard error
        # of about 0.99 / sqrt(800) = 0.035, so 15% is 4.3 of them
        rows = [dict(r=20, t=8, k=3, D=6), dict(r=30, t=8, k=3, D=6)]
        out = sweep(rows, empirical_runs=800, seed=5)
        for est in out:
            assert est.empirical_runs == 800
            exact = 2.0**est.log2_trials_exact
            assert abs(est.empirical_mean_trials - exact) / exact <= 0.15

    def test_empirical_skipped_outside_desk_scale(self):
        out = sweep([dict(r=313, t=38, k=14, D=17)], empirical_runs=10, seed=1)
        assert out[0].empirical_mean_trials is None
        assert out[0].empirical_runs == 0
