import itertools
import math
import random
import statistics

import pytest

from fuzzyvault import (
    PrimeField,
    Secret,
    VaultIndex,
    VaultParams,
    VaultRecord,
    brute_force_attack,
    correlate_vaults,
    count_matching_polynomials,
    default_budget,
    gen_template,
    lock,
    lock_polynomial,
    lock_two_fingers,
)
from fuzzyvault.attack import _combination_blocks
from oracles import count_hits_python, vault_from_records

F = PrimeField()


def locked(seed=7, k=6, t=15, r=60, bits=64, quiz_n=0, grid="random", tpl_seed=1):
    tpl = gen_template(t, seed=tpl_seed)
    params = VaultParams(k=k, t=t, r=r, quiz_n=quiz_n, grid=grid)
    secret = Secret.random(bits, random.Random(5))
    vault, truth = lock(tpl, secret, params, seed=seed)
    return tpl, secret, vault, truth


class TestBruteForce:
    def test_no_chaff_first_trial_wins(self):
        _, secret, vault, truth = locked(t=15, r=15)
        report = brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=0)
        assert report.success and report.trials == 1
        assert report.coeffs == truth.coeffs and report.secret == secret

    def test_trial_mean_tracks_exact_binomial_ratio(self):
        expected = math.comb(20, 3) / math.comb(8, 3)  # 20.357
        tpl = gen_template(8, width=128, height=128, seed=5)
        params = VaultParams(k=3, t=8, r=20, width=128, height=128)
        secret = Secret.random(40, random.Random(1))
        vault, _ = lock(tpl, secret, params, seed=3)
        trials = [
            brute_force_attack(vault, D=6, budget=10**4, seed=s).trials
            for s in range(400)
        ]
        assert abs(statistics.mean(trials) - expected) <= 0.12 * expected

    def test_two_finger_shares_fall_to_separate_attacks(self):
        # each share's vault is recognised by its own D-hit test, so the
        # attacks add up instead of multiplying
        params = VaultParams(k=6, t=15, r=60)
        secret = Secret.random(64, random.Random(8))
        locked_pair = lock_two_fingers(gen_template(15, seed=31), gen_template(15, seed=32),
                                       secret, params, seed=55)
        shares = []
        for (vault, truth), seed in zip(locked_pair, (1, 2)):
            report = brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=seed)
            assert report.success and report.coeffs == truth.coeffs
            shares.append(report.secret)
        assert shares[0].xor(shares[1]) == secret

    def test_budget_exhaustion_returns_failure_report(self):
        _, _, vault, _ = locked()
        report = brute_force_attack(vault, D=9, budget=3, seed=0)
        assert not report.success and report.secret is None
        assert report.trials == 3 and report.interpolations == 3

    def test_work_accounting(self):
        _, _, vault, _ = locked()
        report = brute_force_attack(vault, D=9, budget=200, seed=1)
        assert report.point_checks <= report.trials * vault.r
        assert report.interpolations >= report.trials

    def test_requires_budget_or_t_assumption(self):
        _, _, vault, _ = locked()
        with pytest.raises(ValueError):
            brute_force_attack(vault, D=9, seed=0)

    def test_default_budget_formula(self):
        assert default_budget(60, 15, 6) == math.ceil(
            20 * math.comb(60, 6) / math.comb(15, 6)
        )

    def test_deterministic_with_single_worker(self):
        _, _, vault, _ = locked()
        a = brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=42)
        b = brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=42)
        assert (a.success, a.coeffs, a.trials, a.interpolations, a.point_checks) == (
            b.success, b.coeffs, b.trials, b.interpolations, b.point_checks
        )

    def test_parallel_recovers_identical_secret(self):
        _, secret, vault, truth = locked()
        report = brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=11, workers=2)
        assert report.success
        assert report.coeffs == truth.coeffs and report.secret == secret
        single = brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=11)
        assert (report.trials, report.interpolations) == (single.trials, single.interpolations)

    def test_exhaustive_mode_finds_polynomial(self):
        tpl = gen_template(6, seed=3)
        params = VaultParams(k=3, t=6, r=10)
        secret = Secret.random(32, random.Random(4))
        vault, truth = lock(tpl, secret, params, seed=2)
        report = brute_force_attack(vault, D=6, exhaustive=True, bits=32)
        assert report.success and report.coeffs == truth.coeffs
        assert report.trials <= math.comb(10, 3)

    @pytest.mark.parametrize("budget, sizes", [(1000, [512, 488]), (None, [512, 512, 116])])
    def test_exhaustive_stream_is_lexicographic_in_bounded_blocks(self, budget, sizes):
        blocks = list(_combination_blocks(20, 3, budget))
        assert [block.shape for block in blocks] == [(m, 3) for m in sizes]
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == list(itertools.islice(itertools.combinations(range(20), 3), budget))

    def test_crc_stop_rule(self):
        tpl = gen_template(8, seed=9)
        params = VaultParams(k=3, t=8, r=24, crc=True)
        secret = Secret.random(32, random.Random(6))
        vault, _ = lock(tpl, secret, params, seed=5)
        report = brute_force_attack(vault, mode="crc", bits=32, t_assumed=8, seed=7)
        assert report.success and report.secret == secret
        assert report.point_checks == 0  # point checks count threshold-rule scans only

    def test_crc_mode_requires_bits(self):
        _, _, vault, _ = locked()
        with pytest.raises(ValueError):
            brute_force_attack(vault, mode="crc", budget=10, seed=0)

    def test_threshold_cannot_exceed_vault_size(self):
        _, _, vault, _ = locked()
        with pytest.raises(ValueError):
            brute_force_attack(vault, D=vault.r + 1, budget=10, seed=0)

    def test_quiz_attack_recovers_and_multiplies_interpolations(self):
        _, secret, vault, truth = locked(k=3, t=8, r=30, bits=40, quiz_n=4)
        report = brute_force_attack(vault, D=6, t_assumed=8, bits=40, seed=4)
        assert report.success and report.secret == secret
        # every non-final trial evaluates all 4**3 assignments
        assert report.interpolations > (report.trials - 1) * 4**3


class TestVaultIndex:
    def test_vectorized_matches_python_scan(self):
        for quiz_n in (0, 4):
            _, _, vault, truth = locked(k=3, t=8, r=30, bits=40, quiz_n=quiz_n)
            index = VaultIndex(vault)
            rng = random.Random(3)
            for _ in range(60):
                candidate = F.random_polynomial(3, rng)
                assert index.count_hits(candidate) == count_hits_python(index, candidate)
            assert index.count_hits(truth.coeffs) == count_hits_python(index, truth.coeffs)


class TestSpuriousCounter:
    def _tiny_vault(self, seed=9, k=2, t=3, r=8):
        f17 = PrimeField(17)
        tpl = gen_template(t, width=4, height=4, d_min=1.0, seed=seed)
        params = VaultParams(k=k, t=t, r=r, q=17, d=1.0, width=4, height=4)
        coeffs = f17.random_polynomial(k, random.Random(seed + 1))
        return lock_polynomial(tpl, coeffs, params, seed=seed)

    def test_matches_direct_enumeration_oracle(self):
        vault, truth = self._tiny_vault()
        f17 = PrimeField(17)
        xs = VaultIndex(vault)._x.tolist()
        ys = VaultIndex(vault)._y.tolist()
        for t_hits in (1, 2, 3, 4):
            brute = 0
            for coeffs in itertools.product(range(17), repeat=2):
                hits = sum(f17.poly_eval(coeffs, x) == y for x, y in zip(xs, ys))
                brute += hits >= t_hits
            assert count_matching_polynomials(vault, t_hits, k=2) == brute

    def test_true_polynomial_always_counted(self):
        vault, truth = self._tiny_vault()
        assert count_matching_polynomials(vault, truth.t, k=2) >= 1

    def test_t_hits_above_r_gives_zero(self):
        vault, _ = self._tiny_vault()
        assert count_matching_polynomials(vault, vault.r + 1, k=2) == 0

    def test_zero_threshold_counts_everything(self):
        vault, _ = self._tiny_vault()
        assert count_matching_polynomials(vault, 0, k=2) == 17**2

    def test_regime_guard(self):
        _, _, vault, _ = locked()
        with pytest.raises(ValueError):
            count_matching_polynomials(vault, 4)  # 65537**6 is far beyond the cap


class TestCorrelation:
    def _pair(self, seed_a=101, seed_b=102, t=20, r=200, grid="random", lock_seed_b=None):
        tpl = gen_template(t, seed=71)
        params = VaultParams(k=6, t=t, r=r, grid=grid)
        secret = Secret.random(64, random.Random(9))
        va, ta = lock(tpl, secret, params, seed=seed_a)
        vb, tb = lock(tpl, secret, params, seed=seed_b if lock_seed_b is None else lock_seed_b)
        return va, ta, vb, tb

    def test_single_vault_returns_all_coordinates(self):
        va, _, _, _ = self._pair()
        assert len(correlate_vaults([va], 3.0)) == va.r

    def test_genuine_coordinates_persist(self):
        va, ta, vb, _ = self._pair()
        survivors = set(correlate_vaults([va, vb], 3.0))
        genuine = {(va.records[i].x, va.records[i].y) for i in ta.genuine_indices}
        assert genuine <= survivors

    def test_shared_hex_lattice_neutralizes_attack(self):
        tpl = gen_template(20, seed=71)
        params = VaultParams(k=6, t=20, r=0, grid="hex")
        va, _ = lock(tpl, Secret.random(64, random.Random(1)), params, seed=500)
        vb, _ = lock(tpl, Secret.random(64, random.Random(2)), params, seed=500)
        assert len(correlate_vaults([va, vb], 1.0)) == va.r

    def test_first_moment_law_scale(self):
        # chaff survivor counts follow (r-t)^2 * pi * eps^2 / (W*H) to first
        # order; at eps=3 that is ~14, nowhere near the handful the genuine
        # set contributes.  (eps=1 scales it down by 9.)
        counts = {1.0: [], 3.0: []}
        for pair_seed in range(12):
            va, ta, vb, _ = self._pair(seed_a=1000 + pair_seed, lock_seed_b=2000 + pair_seed)
            genuine = {(va.records[i].x, va.records[i].y) for i in ta.genuine_indices}
            for eps in counts:
                survivors = correlate_vaults([va, vb], eps)
                counts[eps].append(len([p for p in survivors if p not in genuine]))
        first_moment = lambda eps: (200 - 20) ** 2 * math.pi * eps**2 / (256 * 256)
        mean3 = statistics.mean(counts[3.0])
        mean1 = statistics.mean(counts[1.0])
        assert 0.5 * first_moment(3.0) <= mean3 <= 2.5 * first_moment(3.0)
        assert mean1 <= 2.5 * first_moment(1.0) + 1
        assert mean1 < mean3

    def test_requires_a_vault(self):
        with pytest.raises(ValueError):
            correlate_vaults([], 1.0)

    def test_point_exactly_eps_away_survives(self):
        def vault(*points):
            return vault_from_records(F.q, 1, 11.0, "random", 0,
                                      tuple(VaultRecord(x, y, 0) for x, y in points))

        va, vb = vault((0, 0), (100, 100)), vault((3, 4), (200, 200))
        assert correlate_vaults([va, vb], 5.0) == [(0, 0)]  # distance exactly 5
        assert correlate_vaults([va, vb], 4.99) == []
