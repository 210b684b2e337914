import functools
import json
import math
import random
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyvault import (
    PlacementError,
    PrimeField,
    Secret,
    VaultIndex,
    VaultParams,
    coord_shift,
    concat_coord,
    gen_chaff_random,
    gen_template,
    get_preset,
    lock,
    lock_polynomial,
    lock_two_fingers,
    make_genuine_set,
    split_secret,
    truth_from_json,
    truth_to_json,
    unlock,
    vault_from_json,
    vault_params,
    vault_to_json,
)
from fuzzyvault.vault import VaultFormatError
from oracles import gen_chaff_random_python, parse_points_python, vault_from_records

F = PrimeField()


def small_vault(seed=7, crc=False, quiz_n=0, grid="random"):
    tpl = gen_template(15, seed=1)
    params = VaultParams(k=6, t=15, r=60, crc=crc, quiz_n=quiz_n, grid=grid)
    secret = Secret.random(64, random.Random(5))
    vault, truth = lock(tpl, secret, params, seed=seed)
    return tpl, secret, vault, truth


class TestCoordinateEmbedding:
    def test_shift_from_q(self):
        assert coord_shift(65537) == 8
        assert coord_shift(17) == 2

    def test_concat_injective_on_default_frame(self):
        shift = coord_shift(65537)
        seen = {concat_coord(x, y, shift) for x in (0, 3, 255) for y in (0, 7, 255)}
        assert len(seen) == 9
        assert concat_coord(255, 255, shift) == 65535 < 65537

    def test_frame_must_embed(self):
        with pytest.raises(ValueError):
            VaultParams(k=3, t=4, r=10, width=512, height=256)
        with pytest.raises(ValueError):
            VaultParams(k=3, t=4, r=10, q=17, width=8, height=8)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VaultParams(k=0, t=4, r=10)
        with pytest.raises(ValueError):
            VaultParams(k=5, t=4, r=10)
        with pytest.raises(ValueError):
            VaultParams(k=3, t=12, r=10)
        with pytest.raises(ValueError):
            VaultParams(k=3, t=4, r=10, grid="square")
        with pytest.raises(ValueError):
            VaultParams(k=3, t=4, r=10, quiz_n=1)
        with pytest.raises(ValueError):
            VaultParams(k=3, t=4, r=10, d=0)


class TestGenuineSet:
    def test_records_lie_on_graph(self):
        tpl = gen_template(30, seed=2)
        coeffs = F.random_polynomial(5, random.Random(3))
        records, chosen = make_genuine_set(tpl, 12, coeffs, 65537, random.Random(4))
        assert len(records) == len(chosen) == 12
        shift = coord_shift(65537)
        for rec in records:
            assert F.poly_eval(coeffs, concat_coord(rec.x, rec.y, shift)) == rec.value

    def test_whole_template_when_t_equals_size(self):
        tpl = gen_template(9, seed=5)
        records, chosen = make_genuine_set(tpl, 9, (1, 2, 3), 65537, random.Random(0))
        assert {(m.x, m.y) for m in chosen} == {(m.x, m.y) for m in tpl.minutiae}

    def test_t_exceeding_template_raises(self):
        tpl = gen_template(5, seed=5)
        with pytest.raises(ValueError):
            make_genuine_set(tpl, 6, (1,), 65537, random.Random(0))

    def test_clancy_preset_draw(self):
        tpl = gen_template(60, seed=11)
        coeffs = F.random_polynomial(14, random.Random(1))
        records, _ = make_genuine_set(tpl, 38, coeffs, 65537, random.Random(2))
        assert len(records) == 38


class TestRandomChaff:
    def test_contract(self):
        tpl = gen_template(15, seed=1)
        coeffs = F.random_polynomial(6, random.Random(9))
        genuine, _ = make_genuine_set(tpl, 15, coeffs, 65537, random.Random(2))
        existing = [(r.x, r.y) for r in genuine]
        chaff = gen_chaff_random(existing, 60, 11.0, 256, 256, coeffs, 65537, random.Random(3))
        assert len(chaff) == 45
        pts = existing + [(r.x, r.y) for r in chaff]
        for i, (x1, y1) in enumerate(pts):
            for x2, y2 in pts[i + 1 :]:
                assert (x1 - x2) ** 2 + (y1 - y2) ** 2 >= 121
        shift = coord_shift(65537)
        for rec in chaff:
            assert F.poly_eval(coeffs, concat_coord(rec.x, rec.y, shift)) != rec.value

    def test_clancy_scale_placement_succeeds(self):
        # 313 points at d=11 in 256x256 sits below the hex packing ceiling
        coeffs = F.random_polynomial(14, random.Random(1))
        chaff = gen_chaff_random([], 313, 11.0, 256, 256, coeffs, 65537, random.Random(4))
        assert len(chaff) == 313

    @pytest.mark.parametrize("k", [1, 3, 14])
    @pytest.mark.parametrize("q, side, d, r", [(17, 4, 1.0, 12), (65537, 256, 11.0, 313),
                                               (2**31 - 1, 256, 7.5, 400)])
    def test_records_match_the_one_point_oracle(self, k, q, side, d, r):
        """The same records and the same rng state afterwards as placing
        and evaluating one chaff point at a time."""
        coeffs = PrimeField(q).random_polynomial(k, random.Random(k))
        existing = [(0, 0), (side - 1, side - 1)]
        want_rng, got_rng = random.Random(q + k), random.Random(q + k)
        want = gen_chaff_random_python(existing, r, d, side, side, coeffs, q, want_rng)
        got = gen_chaff_random(existing, r, d, side, side, coeffs, q, got_rng)
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()

    def test_saturation_raises_with_achieved_count(self):
        coeffs = (1, 2)
        with pytest.raises(PlacementError) as err:
            gen_chaff_random([], 60, 11.0, 32, 32, coeffs, 65537, random.Random(0))
        assert 0 < err.value.placed < 60


class TestLock:
    def test_vault_exposes_only_public_fields(self):
        _, _, vault, truth = small_vault()
        obj = json.loads(vault_to_json(vault))
        assert list(obj.keys()) == ["q", "k", "d", "grid", "quiz_n", "points"]
        assert all(set(p.keys()) == {"x", "y", "Y"} for p in obj["points"])
        text = vault_to_json(vault)
        assert '"t"' not in text and "genuine" not in text

    def test_ground_truth_consistency(self):
        _, _, vault, truth = small_vault()
        assert len(truth.genuine_indices) == truth.t == 15
        index = VaultIndex(vault)
        assert index.count_hits(truth.coeffs) == truth.t  # chaff soundness

    def test_close_locking_minutiae_rejected(self):
        from fuzzyvault.simulate import Minutia, Template

        base = gen_template(13, d_min=20.0, seed=33)
        crowded = Template(
            base.minutiae + (Minutia(10, 10, 0.1), Minutia(13, 10, 0.2)),
            base.width, base.height,
        )
        params = VaultParams(k=6, t=15, r=60, d=11.0)
        secret = Secret.random(64, random.Random(5))
        with pytest.raises(ValueError):
            lock(crowded, secret, params, seed=1)

    def test_first_close_pair_in_selection_order_is_reported(self):
        from fuzzyvault.simulate import Minutia, Template

        base = gen_template(13, d_min=20.0, seed=33)
        crowded = Template(
            base.minutiae + (Minutia(10, 10, 0.1), Minutia(13, 10, 0.2),
                             Minutia(200, 200, 0.3), Minutia(203, 204, 0.4)),
            base.width, base.height,
        )
        params = VaultParams(k=6, t=17, r=60, d=11.0)
        secret = Secret.random(64, random.Random(5))
        # seed 9 selects (203,204) 2nd, (13,10) 3rd, (10,10) 10th and
        # (200,200) 16th: the pair (i, j) with the smallest i is named, i first,
        # although the other pair is complete by the 10th minutia
        with pytest.raises(ValueError, match=r"\(203,204\) and \(200,200\) are closer"):
            lock(crowded, secret, params, seed=9)

    def test_uludag_preset_builds(self):
        preset = get_preset("uludag")
        tpl = gen_template(30, seed=21)
        secret = Secret.random(preset.secret_bits, random.Random(6))
        vault, truth = lock(tpl, secret, vault_params(preset), seed=3)
        assert vault.r == 200 and truth.t == 25
        res = unlock(vault, tpl, mode="crc", bits=preset.secret_bits, seed=1)
        assert res.success and res.secret == secret

    def test_record_order_hides_genuine_positions(self):
        # uniform permutation: mean 1-based rank of a fixed genuine record
        # over 1e4 seeded locks is (r+1)/2 within 3 sigma
        tpl = gen_template(4, width=64, height=64, d_min=4.0, seed=8)
        params = VaultParams(k=3, t=4, r=12, d=4.0, width=64, height=64)
        secret = Secret.random(40, random.Random(2))
        target = (tpl.minutiae[0].x, tpl.minutiae[0].y)
        n = 10**4
        ranks = []
        for seed in range(n):
            vault, _ = lock(tpl, secret, params, seed=seed)
            for i, rec in enumerate(vault.records):
                if (rec.x, rec.y) == target:
                    ranks.append(i + 1)
                    break
        assert len(ranks) == n
        r = 12
        sigma_rank = math.sqrt((r * r - 1) / 12)
        assert abs(statistics.mean(ranks) - (r + 1) / 2) <= 3 * sigma_rank / math.sqrt(n)

    def test_polynomial_length_must_match_k(self):
        tpl = gen_template(8, seed=3)
        params = VaultParams(k=4, t=8, r=20)
        with pytest.raises(ValueError):
            lock_polynomial(tpl, (1, 2, 3), params, seed=0)

    def test_small_field_vault(self):
        f17 = PrimeField(17)
        tpl = gen_template(4, width=4, height=4, d_min=1.0, seed=3)
        params = VaultParams(k=3, t=4, r=12, q=17, d=1.0, width=4, height=4)
        coeffs = f17.random_polynomial(3, random.Random(2))
        vault, truth = lock_polynomial(tpl, coeffs, params, seed=9)
        assert vault.r == 12 and truth.secret is None
        index = VaultIndex(vault)
        # chaff ordinates exclude the graph value, so hits are exactly t
        assert index.count_hits(coeffs) == truth.t


class TestHexLock:
    def test_vault_covers_full_lattice(self):
        _, _, vault, truth = small_vault(grid="hex")
        assert vault.grid == "hex"
        assert 560 <= vault.r <= 680
        coords = [(rec.x, rec.y) for rec in vault.records]
        assert len(set(coords)) == vault.r

    def test_pixel_rounding_keeps_near_exact_spacing(self):
        _, _, vault, _ = small_vault(grid="hex")
        pts = [(rec.x, rec.y) for rec in vault.records]
        dmin2 = min(
            (x1 - x2) ** 2 + (y1 - y2) ** 2
            for i, (x1, y1) in enumerate(pts)
            for (x2, y2) in pts[i + 1 :]
        )
        assert dmin2 >= (11.0 - math.sqrt(2)) ** 2

    def test_genuine_on_graph_at_published_pixels(self):
        _, _, vault, truth = small_vault(grid="hex")
        index = VaultIndex(vault)
        assert index.count_hits(truth.coeffs) == truth.t


class TestQuizLock:
    def test_beta_present_and_grid_valued(self):
        _, _, vault, _ = small_vault(quiz_n=8)
        cell = math.pi / 8
        for rec in vault.records:
            assert rec.beta is not None
            assert abs(rec.beta / cell - round(rec.beta / cell)) < 1e-8

    def test_genuine_detransform_to_graph(self):
        _, _, vault, truth = small_vault(quiz_n=8)
        index = VaultIndex(vault)  # any-index matching
        assert index.count_hits(truth.coeffs) == truth.t

    def test_plain_vault_has_no_beta(self):
        _, _, vault, _ = small_vault()
        assert all(rec.beta is None for rec in vault.records)


class TestSerialization:
    def test_roundtrip(self):
        for kwargs in ({}, {"quiz_n": 4}, {"grid": "hex"}):
            _, _, vault, truth = small_vault(**kwargs)
            assert vault_from_json(vault_to_json(vault)) == vault
            assert truth_from_json(truth_to_json(truth)) == truth

    def test_beta_written_with_nine_decimals(self):
        _, _, vault, _ = small_vault(quiz_n=8)
        line = vault_to_json(vault).splitlines()[1]
        beta_text = line.split('"beta": ')[1].rstrip("},")
        assert len(beta_text.split(".")[1]) == 9

    def test_byte_identical_for_same_seed(self):
        _, _, v1, t1 = small_vault(seed=41)
        _, _, v2, t2 = small_vault(seed=41)
        assert vault_to_json(v1) == vault_to_json(v2)
        assert truth_to_json(t1) == truth_to_json(t2)

    def test_beta_consistency_enforced(self):
        _, _, vault, _ = small_vault()
        text = vault_to_json(vault).replace('"quiz_n": 0', '"quiz_n": 4')
        with pytest.raises(ValueError):
            vault_from_json(text)

    @pytest.mark.parametrize("beta", ["10" * 200, "Infinity", "NaN"])
    def test_quiz_beta_must_be_finite(self, beta):
        _, _, vault, _ = small_vault(quiz_n=4)
        lines = vault_to_json(vault).splitlines()
        lines[1] = lines[1].split('"beta": ')[0] + f'"beta": {beta}}},'
        with pytest.raises(VaultFormatError, match="finite beta"):
            vault_from_json("\n".join(lines))

    @pytest.mark.parametrize("mutate", [
        lambda obj: [obj],
        lambda obj: {key: value for key, value in obj.items() if key != "t"},
        lambda obj: {**obj, "f_coeffs": 5},
        lambda obj: {**obj, "f_coeffs": ["a"]},
        lambda obj: {**obj, "genuine_indices": None},
        lambda obj: {**obj, "genuine_indices": [True]},
        lambda obj: {**obj, "l": "48"},
        lambda obj: {**obj, "secret_hex": 5},
        lambda obj: {**obj, "t": "8"},
        lambda obj: {**obj, "t": True},
        lambda obj: {**obj, "seed": 1.5},
        lambda obj: {**obj, "template": {"w": 256}},
        lambda obj: {**obj, "template": {**obj["template"], "w": 0}},
    ], ids=["file-is-a-list", "t-missing", "f_coeffs-int", "f_coeffs-string-entry",
            "genuine_indices-null", "genuine_indices-bool-entry", "l-string", "secret_hex-int",
            "t-string", "t-bool", "seed-float", "template-no-minutiae", "template-zero-width"])
    def test_malformed_truth_file_is_a_format_error(self, mutate):
        _, _, _, truth = small_vault()
        text = json.dumps(mutate(json.loads(truth_to_json(truth))))
        with pytest.raises(VaultFormatError):
            truth_from_json(text)

    def test_vault_equality_is_structural(self):
        _, _, vault, _ = small_vault()
        clone = vault_from_records(vault.q, vault.k, vault.d, vault.grid, vault.quiz_n,
                                   vault.records)
        assert clone == vault


@functools.cache
def _parse_base(quiz_n):
    tpl = gen_template(8, seed=2)
    vault, _ = lock(tpl, Secret.random(40, random.Random(2)),
                    VaultParams(k=3, t=8, r=30, quiz_n=quiz_n), seed=2)
    return vault_to_json(vault)


_DELETE = object()
# bool, float, str, None, a deleted key, a negative value, 256 (y past the
# frame, or x with an abscissa x || y at or past q = 65537 unless y = 0),
# q itself, 2**63 (just past int64), 10**30, NaN, inf, 10**400 (past
# float64 as an int) and the int just past float64's largest value, which
# rounds to that value
_FIELD_VALUES = [True, False, 1.5, 7.0, "12", None, _DELETE, -1, 256, 65537, 2**63,
                 -(2**63) - 1, 10**30, math.nan, math.inf, -math.inf, 10**400,
                 int(sys.float_info.max) + 1]


@given(data=st.data())
@settings(max_examples=500)
def test_column_checks_match_the_per_point_oracle(data):
    """One or two point fields set to a hostile value, a beta on a plain
    vault, a point that is not an object, or a point copied onto another
    one's abscissa: the column checks of vault_from_json accept exactly the
    files the per-point oracle accepts, with the same columns, and reject
    the rest with the same message quoting the same point."""
    quiz_n = data.draw(st.sampled_from([0, 4]))
    obj = json.loads(_parse_base(quiz_n))
    points = obj["points"]
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(points) - 1))
        kind = data.draw(st.sampled_from(["field", "field", "beta", "point", "copy"]))
        if kind == "point":
            points[i] = data.draw(st.sampled_from([None, 5, "p", [1, 2], [], True]))
        elif kind == "copy":
            other = points[data.draw(st.integers(0, len(points) - 1))]
            points[i] = dict(other) if type(other) is dict else other
        elif type(points[i]) is dict:
            key = "beta" if kind == "beta" else data.draw(st.sampled_from(["x", "y", "Y", "beta"]))
            value = data.draw(st.sampled_from(_FIELD_VALUES + [0.5, 3]))
            if value is _DELETE:
                points[i].pop(key, None)
            else:
                points[i][key] = value
    _assert_parsed_as_by_oracle(obj)


@pytest.mark.parametrize("quiz_n", [0, 4])
@pytest.mark.parametrize("key", ["x", "y", "Y", "beta"])
def test_each_field_value_matches_the_per_point_oracle(quiz_n, key):
    """Every value of the list above, and 0.5 and 3, in one field of one
    point, one at a time: the cases the random draws above may miss."""
    for value in _FIELD_VALUES + [0.5, 3]:
        obj = json.loads(_parse_base(quiz_n))
        if value is _DELETE:
            obj["points"][0].pop(key, None)
        else:
            obj["points"][0][key] = value
        _assert_parsed_as_by_oracle(obj)


def test_an_int_beta_past_the_largest_float_is_refused_at_its_point():
    """An int beta that rounds to float64's largest value is not finite; the
    refusal quotes its point even when a later point fails too."""
    obj = json.loads(_parse_base(4))
    obj["points"][0]["beta"] = int(sys.float_info.max) + 1
    for later in (None, -1):
        if later is not None:
            obj["points"][5]["Y"] = later
        with pytest.raises(VaultFormatError, match="finite beta") as err:
            vault_from_json(json.dumps(obj))
        assert str(err.value).startswith(f"vault point {obj['points'][0]!r:.60}")
        _assert_parsed_as_by_oracle(obj)


def _assert_parsed_as_by_oracle(obj):
    """vault_from_json accepts the file ``obj`` iff the per-point oracle
    does, with the same columns, or fails with the same message."""
    text = json.dumps(obj)
    try:
        want = parse_points_python(json.loads(text)["points"], obj["q"], obj["quiz_n"])
    except VaultFormatError as exc:
        want = str(exc)
    try:
        got = vault_from_json(text)
    except VaultFormatError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:  # the same columns, an int beta as its float64
        assert got == vault_from_records(obj["q"], obj["k"], obj["d"], obj["grid"],
                                         obj["quiz_n"], want)


def test_valid_vault_files_never_reach_the_per_point_loop(monkeypatch):
    """A vault of every preset, a quiz vault and a hex vault parse back to
    themselves by the column check alone: the per-point loop that words a
    refusal is never called on a file the parser accepts."""
    vaults = []
    for name in ("clancy", "uludag", "small-attack"):
        preset = get_preset(name)
        params = vault_params(preset)
        secret = Secret.random(preset.secret_bits, random.Random(4))
        vaults.append(lock(gen_template(60, seed=6), secret, params, seed=6)[0])
    quiz = VaultParams(k=3, t=8, r=30, quiz_n=4)
    vaults.append(lock(gen_template(8, seed=2), Secret.random(40, random.Random(2)), quiz,
                       seed=2)[0])
    vaults.append(small_vault(grid="hex")[2])

    def refuse(*args):
        raise AssertionError("a valid vault file fell back to the per-point loop")

    monkeypatch.setattr("fuzzyvault.vault._refuse_first_point", refuse)
    for vault in vaults:
        assert vault_from_json(vault_to_json(vault)) == vault
    assert [vault.r for vault in vaults[:4]] == [313, 200, 60, 30]


class TestTwoFingers:
    def test_split_xor_recomposes(self):
        secret = Secret.random(64, random.Random(3))
        s1, s2 = split_secret(secret, random.Random(8))
        assert s1.xor(s2) == secret
        assert s1 != secret  # share alone reveals nothing structurally

    def test_lock_both_and_recombine(self):
        tpl_a = gen_template(15, seed=31)
        tpl_b = gen_template(15, seed=32)
        params = VaultParams(k=6, t=15, r=60)
        secret = Secret.random(64, random.Random(8))
        (v1, _), (v2, _) = lock_two_fingers(tpl_a, tpl_b, secret, params, seed=55)
        r1 = unlock(v1, tpl_a, D=9, bits=64, seed=1)
        r2 = unlock(v2, tpl_b, D=9, bits=64, seed=1)
        assert r1.success and r2.success
        assert r1.secret.xor(r2.secret) == secret
