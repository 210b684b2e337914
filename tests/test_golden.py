"""Pinned report bytes for fixed seeds.

Attack and unlock reports must replay byte for byte across versions of the
search engine: the candidate stream (subset draws, transform assignments,
acceptance order, budget cut) is part of the file format.  A mismatch here
means a counter or the recovered secret moved for a given seed.  Hex-grid
vault files are pinned by digest: every lattice site, snapped genuine point,
chaff ordinate and quiz beta is part of those bytes.
"""

import hashlib
import json
import random

import pytest

from fuzzyvault import (
    RecaptureModel,
    Secret,
    Template,
    VaultParams,
    brute_force_attack,
    gen_template,
    get_preset,
    lock,
    recapture,
    unlock,
    vault_params,
)
from fuzzyvault.attack import report_to_dict
from fuzzyvault.simulate import Minutia
from fuzzyvault.unlock import result_to_dict
from fuzzyvault.vault import vault_to_json


def _locked(params, t, bits, seed):
    tpl = gen_template(t, seed=seed)
    vault, truth = lock(tpl, Secret.random(bits, random.Random(seed)), params, seed=seed)
    return tpl, vault, truth


def _noisy(tpl, seed):
    return recapture(tpl, RecaptureModel(), seed=seed)


def attack_small(seed):
    _, vault, _ = _locked(vault_params(get_preset("small-attack")), 15, 64, seed)
    return report_to_dict(brute_force_attack(vault, D=9, t_assumed=15, bits=64, seed=seed))


def attack_quiz(seed):
    _, vault, _ = _locked(VaultParams(k=3, t=8, r=30, quiz_n=4), 8, 40, seed)
    return report_to_dict(brute_force_attack(vault, D=6, t_assumed=8, bits=40, seed=seed))


def attack_crc_budget(seed, workers=1):
    _, vault, _ = _locked(vault_params(get_preset("uludag")), 25, 112, seed)
    return report_to_dict(brute_force_attack(
        vault, mode="crc", bits=112, budget=1500, seed=seed, workers=workers))


def attack_exhaustive(seed):
    _, vault, _ = _locked(VaultParams(k=3, t=6, r=10), 6, 32, seed)
    return report_to_dict(brute_force_attack(vault, D=6, exhaustive=True, bits=32, seed=seed))


def attack_clancy_budget(seed):
    _, vault, _ = _locked(vault_params(get_preset("clancy")), 40, 112, seed)
    return report_to_dict(brute_force_attack(vault, D=17, budget=300, bits=112, seed=seed))


def unlock_threshold(seed):
    tpl, vault, _ = _locked(vault_params(get_preset("clancy")), 40, 112, seed)
    return result_to_dict(unlock(vault, _noisy(tpl, seed), D=17, bits=112, seed=seed))


def unlock_crc(seed):
    tpl, vault, _ = _locked(vault_params(get_preset("uludag")), 25, 112, seed)
    return result_to_dict(unlock(vault, _noisy(tpl, seed), mode="crc", bits=112, seed=seed))


def unlock_quiz(seed):
    tpl, vault, _ = _locked(VaultParams(k=3, t=8, r=30, quiz_n=4), 8, 40, seed)
    return result_to_dict(unlock(vault, tpl, D=6, bits=40, seed=seed))


def unlock_exhausted(seed, workers=1):
    # a probe matching chaff records only: no candidate can be accepted
    _, vault, truth = _locked(vault_params(get_preset("small-attack")), 15, 64, seed)
    genuine = set(truth.genuine_indices)
    chaff = [rec for i, rec in enumerate(vault.records) if i not in genuine][:10]
    probe = Template(tuple(Minutia(rec.x, rec.y, 0.1) for rec in chaff), 256, 256)
    return result_to_dict(unlock(vault, probe, D=9, bits=64, budget=300, seed=seed,
                                 workers=workers))


GOLDEN = [
    (attack_small, 3, {},
     '{"success": true, "secret_hex": "97b750923ceb3ffd",'
     ' "trials": 1042, "interpolations": 1042, "point_checks": 56268, "seed": 3}'),
    (attack_small, 8, {},
     '{"success": true, "secret_hex": "5ed34fe53a096533",'
     ' "trials": 17978, "interpolations": 17978, "point_checks": 970812, "seed": 8}'),
    (attack_quiz, 4, {},
     '{"success": true, "secret_hex": "4d3c6da5d7",'
     ' "trials": 83, "interpolations": 5287, "point_checks": 142911, "seed": 4}'),
    (attack_quiz, 12, {},
     '{"success": true, "secret_hex": "44797d76de",'
     ' "trials": 38, "interpolations": 2370, "point_checks": 64152, "seed": 12}'),
    (attack_crc_budget, 5, {},
     '{"success": false,'
     ' "trials": 1500, "interpolations": 1500, "point_checks": 0, "seed": 5}'),
    (attack_crc_budget, 6, {"workers": 2},
     '{"success": false,'
     ' "trials": 1500, "interpolations": 1500, "point_checks": 0, "seed": 6}'),
    (attack_exhaustive, 8, {},
     '{"success": true, "secret_hex": "3a096533",'
     ' "trials": 101, "interpolations": 101, "point_checks": 707, "seed": 8}'),
    (attack_clancy_budget, 7, {},
     '{"success": false,'
     ' "trials": 300, "interpolations": 300, "point_checks": 89700, "seed": 7}'),
    (unlock_threshold, 7, {},
     '{"success": true, "secret_hex": "6513269e0d37f2a74de452e6b438",'
     ' "candidates": 1, "interpolations": 1, "seed": 7}'),
    (unlock_threshold, 10, {},
     '{"success": true, "secret_hex": "7b896dcbac5008577eb1924770d3",'
     ' "candidates": 5, "interpolations": 5, "seed": 10}'),
    (unlock_crc, 5, {},
     '{"success": true, "secret_hex": "5bc8bde5c0994164d8399f767c45",'
     ' "candidates": 7, "interpolations": 7, "seed": 5}'),
    (unlock_quiz, 4, {},
     '{"success": true, "secret_hex": "4d3c6da5d7",'
     ' "candidates": 1, "interpolations": 1, "seed": 4}'),
    (unlock_exhausted, 2, {},
     '{"success": false, "candidates": 300, "interpolations": 300, "seed": 2}'),
    (unlock_exhausted, 3, {"workers": 2},
     '{"success": false, "candidates": 300, "interpolations": 300, "seed": 3}'),
]


@pytest.mark.parametrize(
    "case, seed, kwargs, expected", GOLDEN,
    ids=[f"{case.__name__}-{seed}{'-w2' if kw else ''}" for case, seed, kw, _ in GOLDEN],
)
def test_report_bytes_are_pinned(case, seed, kwargs, expected):
    assert json.dumps(case(seed, **kwargs)) == expected


HEX_GOLDEN = [
    # (k, t, quiz_n, secret bits, seed, sha256 of the vault file)
    (6, 20, 0, 64, 1, "ed4729b692e86da45b02dd7c21841c610dbef8545ec5a72d2ee1197aa0a63c43"),
    (6, 20, 0, 64, 2, "914a3d08b13af7a2aec81144d2f13e00ded73e9acb477eb276b5160bc3921c67"),
    (6, 20, 0, 64, 3, "a74f43aaa1012a5dbb7c3331b1800bb5704bbcf1762e5ff4b2357c142b4fe02b"),
    (3, 8, 4, 40, 4, "19c0deebb532bef4de2f9c68d487233acde897bbe84fa282dc92e50c5e627066"),
    (3, 8, 4, 40, 5, "aa1199ab44872fda5d7ef6890225c809c6d5154a040d0e7b4e6f8642b88a6dbc"),
    (3, 8, 4, 40, 6, "187268795ec7130016208d2234dd3294f229b0c5e2fcec8db65b4a3914b6175d"),
]


@pytest.mark.parametrize(
    "k, t, quiz_n, bits, seed, digest", HEX_GOLDEN,
    ids=[f"hex-k{k}-t{t}-quiz{n}-{seed}" for k, t, n, _, seed, _ in HEX_GOLDEN],
)
def test_hex_vault_bytes_are_pinned(k, t, quiz_n, bits, seed, digest):
    params = VaultParams(k=k, t=t, r=0, grid="hex", quiz_n=quiz_n)
    _, vault, _ = _locked(params, t, bits, seed)
    assert hashlib.sha256(vault_to_json(vault).encode()).hexdigest() == digest
