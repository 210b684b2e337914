import math
import random
import statistics

import pytest

from fuzzyvault import (
    PrimeField,
    RecaptureModel,
    Secret,
    Template,
    UnlockingSet,
    VaultIndex,
    VaultParams,
    VaultRecord,
    build_unlocking_set,
    gen_template,
    lock,
    recapture,
    unlock,
)
from fuzzyvault.simulate import Minutia
from oracles import vault_from_records

F = PrimeField()


def locked(seed=7, crc=False, quiz_n=0, k=6, t=15, r=60, bits=64, tpl_seed=1):
    tpl = gen_template(t, seed=tpl_seed)
    params = VaultParams(k=k, t=t, r=r, crc=crc, quiz_n=quiz_n)
    secret = Secret.random(bits, random.Random(5))
    vault, truth = lock(tpl, secret, params, seed=seed)
    return tpl, secret, vault, truth


class TestMatching:
    def test_noiseless_recapture_matches_exactly_the_genuine(self):
        tpl, _, vault, truth = locked()
        uset = build_unlocking_set(vault, tpl, tau=vault.d / 2)
        matched = {ri for ri, _ in uset.pairs}
        assert matched == set(truth.genuine_indices)

    def test_empty_template_gives_empty_set(self):
        tpl, _, vault, _ = locked()
        empty = Template((), tpl.width, tpl.height)
        assert len(build_unlocking_set(vault, empty, tau=5.5)) == 0

    def test_matching_is_one_to_one(self):
        tpl, _, vault, _ = locked()
        uset = build_unlocking_set(vault, tpl, tau=30.0)
        records = [ri for ri, _ in uset.pairs]
        minutiae = [(m.x, m.y) for _, m in uset.pairs]
        assert len(set(records)) == len(records)
        assert len(set(minutiae)) == len(minutiae)

    def test_deterministic(self):
        tpl, _, vault, _ = locked()
        a = build_unlocking_set(vault, tpl, tau=8.0)
        b = build_unlocking_set(vault, tpl, tau=8.0)
        assert a == b

    def test_jittered_coverage_at_least_85_percent(self):
        tpl, _, vault, truth = locked()
        model = RecaptureModel(jitter_sigma=2.0, miss_rate=0.1,
                               spurious_rate=0.0, angle_sigma=0.0)
        genuine = set(truth.genuine_indices)
        coverage = []
        for s in range(200):
            fresh = recapture(tpl, model, seed=s)
            uset = build_unlocking_set(vault, fresh, tau=vault.d / 2)
            coverage.append(len(genuine & {ri for ri, _ in uset.pairs}) / truth.t)
        assert statistics.mean(coverage) >= 0.85


def greedy_match_oracle(vault, template, tau):
    """Pure-Python greedy matcher: sort the pairs within tau by (squared
    distance, record index, minutia index) and keep each pair whose record
    and minutia are both still free."""
    tau2 = tau * tau
    scored = []
    for ri, rec in enumerate(vault.records):
        for mi, m in enumerate(template.minutiae):
            d2 = (rec.x - m.x) ** 2 + (rec.y - m.y) ** 2
            if d2 <= tau2:
                scored.append((d2, ri, mi))
    scored.sort()
    used_r: set[int] = set()
    used_m: set[int] = set()
    pairs = []
    for _, ri, mi in scored:
        if ri in used_r or mi in used_m:
            continue
        used_r.add(ri)
        used_m.add(mi)
        pairs.append((ri, template.minutiae[mi]))
    pairs.sort()
    return UnlockingSet(tuple(pairs), tau)


def hand_vault(*points):
    return vault_from_records(F.q, 1, 11.0, "random", 0,
                              tuple(VaultRecord(x, y, 0) for x, y in points))


def hand_template(*points):
    return Template(tuple(Minutia(x, y, 0.5) for x, y in points), 256, 256)


class TestMatchingOracle:
    @pytest.mark.parametrize("grid", ["random", "hex"])
    def test_matches_greedy_oracle_on_recaptures(self, grid):
        model = RecaptureModel(jitter_sigma=3.0, miss_rate=0.2, spurious_rate=6.0,
                               angle_sigma=0.0)
        for seed in range(6):
            tpl = gen_template(25, seed=100 + seed)
            params = VaultParams(k=6, t=20, r=120 if grid == "random" else 0, grid=grid)
            vault, _ = lock(tpl, Secret.random(64, random.Random(seed)), params, seed=seed)
            for rs in range(3):
                fresh = recapture(tpl, model, seed=10 * seed + rs)
                for tau in (0.0, 2.0, 3.0, vault.d / 2, 7.9, 12.0, 30.0):
                    assert build_unlocking_set(vault, fresh, tau) == \
                        greedy_match_oracle(vault, fresh, tau)

    @pytest.mark.parametrize("records, minutiae, tau, expected", [
        # a minutia equidistant from two records goes to the lower record index
        (((20, 10), (10, 10)), ((15, 10),), 6.0, [(0, (15, 10))]),
        # a record equidistant from two minutiae takes the lower minutia index
        (((50, 50),), ((53, 50), (47, 50)), 6.0, [(0, (53, 50))]),
        # a pair at exactly tau is kept, and dropped just below it
        (((100, 100),), ((103, 104),), 5.0, [(0, (103, 104))]),
        (((100, 100),), ((103, 104),), 4.999, []),
        # greedy, not a largest matching: the closest pair blocks the other two
        (((0, 0), (5, 0)), ((3, 0), (9, 0)), 5.0, [(1, (3, 0))]),
    ], ids=["minutia-tie", "record-tie", "at-tau", "below-tau", "greedy"])
    def test_tie_order(self, records, minutiae, tau, expected):
        vault, tpl = hand_vault(*records), hand_template(*minutiae)
        uset = build_unlocking_set(vault, tpl, tau)
        assert [(ri, (m.x, m.y)) for ri, m in uset.pairs] == expected
        assert uset == greedy_match_oracle(vault, tpl, tau)


class TestConsensusDecode:
    def test_noiseless_first_candidate_succeeds(self):
        tpl, secret, vault, _ = locked()
        res = unlock(vault, tpl, mode="threshold", D=9, bits=64, seed=3)
        assert res.success and res.candidates == 1 and res.secret == secret

    def test_crc_mode_roundtrip(self):
        tpl, secret, vault, _ = locked(crc=True)
        res = unlock(vault, tpl, mode="crc", bits=64, seed=3)
        assert res.success and res.secret == secret

    def test_threshold_unlock_of_crc_vault_decodes_with_flag(self):
        tpl, secret, vault, _ = locked(crc=True)
        res = unlock(vault, tpl, mode="threshold", D=9, bits=64,
                     crc_encoded=True, seed=3)
        assert res.success and res.secret == secret

    def test_undersized_unlocking_set_fails_with_zero_candidates(self):
        tpl, _, vault, _ = locked()
        empty = Template((), tpl.width, tpl.height)
        res = unlock(vault, empty, mode="threshold", bits=64, seed=1)
        assert not res.success and res.candidates == 0 and res.secret is None

    def test_budget_exhaustion_reports_counters(self):
        # template matching only chaff points: no candidate can be accepted
        tpl, _, vault, truth = locked()
        genuine = set(truth.genuine_indices)
        chaff = [vault.records[i] for i in range(vault.r) if i not in genuine][:8]
        fake = Template(tuple(Minutia(c.x, c.y, 0.1) for c in chaff), 256, 256)
        res = unlock(vault, fake, mode="threshold", D=9, budget=50, seed=2)
        assert not res.success
        assert res.candidates == 50
        assert res.interpolations >= res.candidates

    def test_mixed_set_crc_candidate_count_matches_binomial(self):
        # unlocking set of k genuine + 5 chaff: expected candidates to success
        # is C(8,3)/C(3,3) = 56 under with-replacement sampling
        tpl, secret, vault, truth = locked(k=3, t=8, r=30, bits=32, crc=True)
        genuine_recs = [vault.records[i] for i in truth.genuine_indices[:3]]
        chaff_recs = [vault.records[i] for i in range(vault.r)
                      if i not in set(truth.genuine_indices)][:5]
        probe = Template(
            tuple(Minutia(rec.x, rec.y, 0.2) for rec in genuine_recs + chaff_recs),
            256, 256,
        )
        counts = []
        for s in range(250):
            res = unlock(vault, probe, mode="crc", bits=32, budget=5000, seed=s)
            assert res.success and res.secret == secret
            counts.append(res.candidates)
        expected = math.comb(8, 3)
        assert abs(statistics.mean(counts) - expected) <= 0.15 * expected

    def test_threshold_exceeding_uset_genuine_count_still_accepts_vault_wide(self):
        # D=6 > 3 genuine in the unlocking set, but the accepted candidate is
        # scored against the whole vault where t=8 records lie on the graph
        tpl, secret, vault, truth = locked(k=3, t=8, r=30, bits=40)
        genuine_recs = [vault.records[i] for i in truth.genuine_indices[:3]]
        probe = Template(
            tuple(Minutia(rec.x, rec.y, 0.2) for rec in genuine_recs), 256, 256
        )
        res = unlock(vault, probe, mode="threshold", D=6, bits=40, seed=4)
        assert res.success and res.secret == secret

    def test_quiz_vault_noiseless_roundtrip(self):
        tpl, secret, vault, _ = locked(quiz_n=8)
        res = unlock(vault, tpl, mode="threshold", D=9, bits=64, seed=3)
        assert res.success and res.secret == secret

    def test_invalid_mode_rejected(self):
        tpl, _, vault, _ = locked()
        with pytest.raises(ValueError):
            unlock(vault, tpl, mode="vote", seed=1)
        with pytest.raises(ValueError):
            unlock(vault, tpl, mode="crc", seed=1)  # bits missing

    def test_determinism(self):
        tpl, _, vault, _ = locked()
        a = unlock(vault, tpl, mode="threshold", D=9, bits=64, seed=12)
        b = unlock(vault, tpl, mode="threshold", D=9, bits=64, seed=12)
        assert (a.success, a.secret, a.coeffs, a.candidates, a.interpolations) == (
            b.success, b.secret, b.coeffs, b.candidates, b.interpolations
        )

    def test_parallel_workers_recover_same_secret(self):
        tpl, secret, vault, _ = locked()
        res = unlock(vault, tpl, mode="threshold", D=9, bits=64, seed=3, workers=2)
        assert res.success and res.secret == secret


class TestSoundness:
    def test_no_false_accepts_over_adversarial_candidates(self):
        # 1e5 random polynomials never reach D = k+3 vault-wide hits
        tpl, _, vault, _ = locked(k=3, t=8, r=30, bits=40)
        index = VaultIndex(vault)
        rng = random.Random(99)
        D = vault.k + 3
        false_accepts = 0
        for _ in range(10**5):
            candidate = F.random_polynomial(3, rng)
            if index.count_hits(candidate) >= D:
                false_accepts += 1
        assert false_accepts == 0
