import json
import math
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "fuzzyvault"]


def run(args, **kwargs):
    return subprocess.run(CLI + args, capture_output=True, text=True, **kwargs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    r = run(["simulate", "--count", "60", "--seed", "3", "-o", str(path / "tpl60.json")])
    assert r.returncode == 0
    r = run(["simulate", "--count", "15", "--seed", "4", "-o", str(path / "tpl15.json")])
    assert r.returncode == 0
    r = run([
        "lock", "--preset", "small-attack", "--secret-hex", "0011223344556677",
        "--template", str(path / "tpl15.json"), "--seed", "9",
        "-o", str(path / "vault.json"), "--truth", str(path / "truth.json"),
    ])
    assert r.returncode == 0
    return path


class TestLock:
    def test_clancy_preset_emits_313_points(self, workdir):
        out = workdir / "clancy.json"
        r = run([
            "lock", "--preset", "clancy",
            "--secret-hex", "00112233445566778899aabbccdd",
            "--template", str(workdir / "tpl60.json"), "--seed", "7",
            "-o", str(out), "--truth", str(workdir / "clancy_truth.json"),
        ])
        assert r.returncode == 0
        obj = json.loads(out.read_text())
        assert len(obj["points"]) == 313
        assert list(obj.keys()) == ["q", "k", "d", "grid", "quiz_n", "points"]

    def test_truth_sidecar_schema(self, workdir):
        obj = json.loads((workdir / "truth.json").read_text())
        assert list(obj.keys()) == [
            "secret_hex", "l", "f_coeffs", "t", "genuine_indices", "template", "seed",
        ]
        assert obj["secret_hex"] == "0011223344556677" and obj["l"] == 64

    def test_unknown_preset_is_parameter_error(self, workdir):
        r = run([
            "lock", "--preset", "nope", "--template", str(workdir / "tpl15.json"),
            "--seed", "1", "-o", str(workdir / "x.json"),
        ])
        assert r.returncode == 2

    def test_capacity_violation_is_parameter_error(self, workdir):
        r = run([
            "lock", "--preset", "small-attack", "--secret-hex", "ff" * 20,
            "--template", str(workdir / "tpl15.json"), "--seed", "1",
            "-o", str(workdir / "x.json"),
        ])
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_missing_seed_generates_and_prints_one(self, workdir):
        r = run([
            "lock", "--preset", "small-attack", "--secret-hex", "0011223344556677",
            "--template", str(workdir / "tpl15.json"),
            "-o", str(workdir / "seedless.json"),
        ])
        assert r.returncode == 0
        assert "seed:" in r.stderr


class TestUnlockAttack:
    def test_unlock_roundtrip(self, workdir):
        out = workdir / "unlock.json"
        r = run([
            "unlock", "--vault", str(workdir / "vault.json"),
            "--template", str(workdir / "tpl15.json"),
            "--D", "9", "--bits", "64", "--seed", "2", "-o", str(out),
        ])
        assert r.returncode == 0
        obj = json.loads(out.read_text())
        assert obj["success"] is True and obj["secret_hex"] == "0011223344556677"
        assert list(obj.keys()) == [
            "success", "secret_hex", "candidates", "interpolations", "seed",
        ]
        assert "elapsed_ms:" in r.stderr

    def test_unlock_budget_exhausted_exits_3(self, workdir):
        empty = workdir / "empty_tpl.json"
        empty.write_text('{"w": 256, "h": 256, "minutiae": []}\n')
        r = run([
            "unlock", "--vault", str(workdir / "vault.json"),
            "--template", str(empty), "--seed", "2",
        ])
        assert r.returncode == 3

    def test_unlock_threshold_above_vault_size_exits_2(self, workdir):
        r = run([
            "unlock", "--vault", str(workdir / "vault.json"),
            "--template", str(workdir / "tpl15.json"), "--D", "61", "--bits", "64",
            "--seed", "2",
        ])
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "exceeds vault size" in r.stderr
        assert len(r.stderr.splitlines()) == 1

    def test_attack_succeeds_with_report_schema(self, workdir):
        out = workdir / "attack.json"
        r = run([
            "attack", "--vault", str(workdir / "vault.json"),
            "--preset", "small-attack", "--bits", "64",
            "--seed", "1", "-o", str(out),
        ])
        assert r.returncode == 0
        obj = json.loads(out.read_text())
        assert obj["success"] is True and obj["secret_hex"] == "0011223344556677"
        assert list(obj.keys()) == [
            "success", "secret_hex", "trials", "interpolations",
            "point_checks", "seed",
        ]
        assert "elapsed_ms:" in r.stderr

    def test_attack_budget_exhausted_exits_3(self, workdir):
        r = run([
            "attack", "--vault", str(workdir / "vault.json"),
            "--preset", "small-attack", "--budget", "2", "--seed", "1",
            "-o", str(workdir / "fail.json"),
        ])
        assert r.returncode == 3
        assert json.loads((workdir / "fail.json").read_text())["success"] is False

    def test_attack_never_accepts_ground_truth_files(self, workdir):
        r = run([
            "attack", "--vault", str(workdir / "vault.json"),
            "--truth", str(workdir / "truth.json"),
        ])
        assert r.returncode == 2

    def test_estimate_never_accepts_ground_truth_files(self, workdir):
        r = run(["estimate", "--preset", "clancy", "--truth", str(workdir / "truth.json")])
        assert r.returncode == 2


class TestNegativeValues:
    @pytest.mark.parametrize("argv, message", [
        (["unlock", "--tau", "-3"], "tau=-3.0 is not a number >= 0"),
        (["unlock", "--tau", "nan"], "tau=nan is not a number >= 0"),
        (["unlock", "--budget", "-5"], "budget=-5 is negative"),
        (["attack", "--budget", "-5"], "budget=-5 is negative"),
        (["attack", "--exhaustive", "--budget", "-5"], "budget=-5 is negative"),
        (["attack", "--exhaustive"],
         "C(60,6) subsets exceeds 10000000 without a budget (--budget)"),
        (["sweep", "--r", "30", "--t", "8", "--k", "3", "--empirical-runs", "-2"],
         "empirical_runs=-2 is negative"),
        (["correlate", "--eps", "-3"], "eps=-3.0 is not a number >= 0"),
        (["correlate", "--eps", "nan"], "eps=nan is not a number >= 0"),
        (["attack", "--budget", "1300", "--workers", "0"], "workers=0 is below 1"),
        (["unlock", "--workers", "-3"], "workers=-3 is below 1"),
        (["sweep", "--r", "30", "--t", "8", "--k", "3", "--workers", "0"],
         "workers=0 is below 1"),
    ], ids=["unlock-tau", "unlock-tau-nan", "unlock-budget", "attack-budget",
            "exhaustive-budget", "exhaustive-unbounded", "sweep-runs", "correlate-eps",
            "correlate-eps-nan", "attack-workers", "unlock-workers", "sweep-workers"])
    def test_negative_value_is_a_parameter_error(self, workdir, argv, message):
        # sweep gets no --seed, so no seed line precedes the error
        if argv[0] == "correlate":
            argv = argv + ["--vaults", str(workdir / "vault.json"), str(workdir / "vault.json")]
        if argv[0] in ("attack", "unlock"):
            argv = argv + ["--vault", str(workdir / "vault.json"), "--D", "9", "--bits", "64",
                           "--seed", "1"]
        if argv[0] == "unlock":
            argv = argv + ["--template", str(workdir / "tpl15.json")]
        r = run(argv)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert message in r.stderr

    @pytest.mark.parametrize("command", ["attack", "unlock"])
    def test_zero_budget_is_exhausted_at_once(self, workdir, command):
        argv = [command, "--vault", str(workdir / "vault.json"), "--D", "9", "--bits", "64",
                "--budget", "0", "--seed", "1"]
        if command == "unlock":
            argv += ["--template", str(workdir / "tpl15.json")]
        r = run(argv)
        assert r.returncode == 3
        assert json.loads(r.stdout)["success"] is False


class TestEstimateSweep:
    def test_estimate_clancy_row_and_annotations(self):
        r = run(["estimate", "--preset", "clancy"])
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        assert header.startswith("r,t,k,D,q,quiz_n,log2_trials_exact")
        fields = row.split(",")
        assert fields[:6] == ["313", "38", "14", "17", "65537", "0"]
        assert abs(float(fields[8]) - 57.687) < 0.01  # log2_R_bound
        assert "2^50" in r.stderr and "unreproduced" in r.stderr
        assert "2^69" in r.stderr
        assert "2^44" in r.stderr  # reported security factor, also on record

    @pytest.mark.parametrize("preset, expected", [
        ("clancy",
         "secret capacity at k=14: 224 bits plain, 208 bits with crc\n"
         "literature reference: ~2^50 brute-force work reported for this family; "
         "computed log2_R_bound = 57.69 (gap +7.69 bits) -- unreproduced\n"
         "literature reference: O(2^69) reported for the threshold criterion; "
         "computed log2_Cbf = 57.21 (gap -11.79 bits) -- unreproduced\n"
         "literature reference: security factor ~2^44; "
         "computed log2_F = 55.57 (gap +11.57 bits) -- unreproduced\n"),
        ("uludag",
         "secret capacity at k=8: 128 bits plain, 112 bits with crc\n"
         "literature reference: ~2^36 brute-force work reported for this family; "
         "computed log2_R_bound = 37.64 (gap +1.64 bits) -- within 2 bits\n"),
        ("small-attack",
         "secret capacity at k=6: 96 bits plain, 80 bits with crc\n"),
    ])
    def test_estimate_annotations_are_pinned(self, preset, expected):
        r = run(["estimate", "--preset", preset])
        assert r.returncode == 0
        assert r.stderr == expected

    def test_estimate_uludag_within_two_bits(self):
        r = run(["estimate", "--preset", "uludag"])
        assert r.returncode == 0
        assert "2^36" in r.stderr and "within 2 bits" in r.stderr

    def test_estimate_explicit_parameters(self):
        r = run(["estimate", "--r", "40", "--t", "10", "--k", "4"])
        assert r.returncode == 0
        row = r.stdout.strip().splitlines()[1]
        assert abs(float(row.split(",")[6]) - 8.765503) < 1e-3

    def test_estimate_missing_parameters_is_error(self):
        assert run(["estimate", "--r", "40"]).returncode == 2

    def test_sweep_grid(self, workdir):
        out = workdir / "sweep.csv"
        r = run([
            "sweep", "--r", "30,60", "--t", "8,15", "--k", "3",
            "--seed", "0", "-o", str(out),
        ])
        assert r.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("r,t,k,D,q,quiz_n")
        assert len(lines) == 5  # header + 4 valid grid points

    def test_sweep_empirical_column(self, workdir):
        out = workdir / "sweep_emp.csv"
        r = run([
            "sweep", "--r", "20", "--t", "8", "--k", "3", "--D", "6",
            "--empirical-runs", "40", "--seed", "0", "-o", str(out),
        ])
        assert r.returncode == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[-1] == "40"
        measured = float(row[-2])
        exact = 2.0 ** float(row[6])
        assert abs(measured - exact) / exact < 0.5  # 40 runs: loose agreement


class TestSimulateSpuriousCorrelate:
    def test_simulate_recapture(self, workdir):
        out = workdir / "recap.json"
        r = run([
            "simulate", "--recapture", str(workdir / "tpl15.json"),
            "--jitter-sigma", "0", "--miss-rate", "0", "--spurious-rate", "0",
            "--angle-sigma", "0", "--seed", "5", "-o", str(out),
        ])
        assert r.returncode == 0
        assert json.loads(out.read_text()) == json.loads((workdir / "tpl15.json").read_text())

    def test_spurious_counts_small_field_vault(self, workdir):
        tiny_tpl = workdir / "tiny_tpl.json"
        tiny_vault = workdir / "tiny_vault.json"
        r = run([
            "simulate", "--count", "4", "--width", "4", "--height", "4",
            "--d-min", "1", "--seed", "3", "-o", str(tiny_tpl),
        ])
        assert r.returncode == 0
        r = run([
            "lock", "--template", str(tiny_tpl), "--q", "17", "--k", "3",
            "--t", "4", "--r", "12", "--d", "1", "--width", "4", "--height", "4",
            "--seed", "9", "-o", str(tiny_vault),
        ])
        assert r.returncode == 2  # 16-bit secret packing cannot use q=17
        # small-field vaults are built through lock_polynomial in the library;
        # the spurious command still serves any vault file
        from fuzzyvault import PrimeField, VaultParams, lock_polynomial, vault_to_json
        from fuzzyvault.simulate import template_from_json
        import random as _random

        tpl = template_from_json(tiny_tpl.read_text())
        params = VaultParams(k=3, t=4, r=12, q=17, d=1.0, width=4, height=4)
        coeffs = PrimeField(17).random_polynomial(3, _random.Random(2))
        vault, _ = lock_polynomial(tpl, coeffs, params, seed=9)
        tiny_vault.write_text(vault_to_json(vault))
        r = run(["spurious", "--vault", str(tiny_vault), "--t-hits", "4"])
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["q"] == 17 and obj["count"] >= 1

    def test_correlate_two_vaults(self, workdir):
        second = workdir / "vault2.json"
        r = run([
            "lock", "--preset", "small-attack", "--secret-hex", "0011223344556677",
            "--template", str(workdir / "tpl15.json"), "--seed", "77", "-o", str(second),
        ])
        assert r.returncode == 0
        r = run([
            "correlate", "--vaults", str(workdir / "vault.json"), str(second),
            "--eps", "3",
        ])
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["count"] >= 15  # the 15 genuine coordinates persist
        assert obj["count"] == len(obj["points"])


def _probe(workdir, genuine: int, chaff: int):
    """A template on the coordinates of the first ``genuine`` genuine and the
    first ``chaff`` chaff records of the small-attack vault."""
    records = json.loads((workdir / "vault.json").read_text())["points"]
    truth = set(json.loads((workdir / "truth.json").read_text())["genuine_indices"])
    picked = ([p for i, p in enumerate(records) if i in truth][:genuine]
              + [p for i, p in enumerate(records) if i not in truth][:chaff])
    path = workdir / f"probe_{genuine}_{chaff}.json"
    path.write_text(json.dumps({"w": 256, "h": 256, "minutiae": [
        {"x": p["x"], "y": p["y"], "theta": 0.1} for p in picked]}))
    return path


def _crc_vault(workdir):
    """The small-attack vault of the same template and secret, locked with a
    CRC coefficient (k = 6: at most 80 secret bits)."""
    path = workdir / "vault_crc.json"
    if not path.exists():
        r = run(["lock", "--preset", "small-attack", "--crc", "on",
                 "--secret-hex", "0011223344556677", "--template", str(workdir / "tpl15.json"),
                 "--seed", "9", "-o", str(path)])
        assert r.returncode == 0
    return path


class TestWorkers:
    def _reports(self, workdir, argv, counts=(1, 2, 3), code=0):
        """The report file of ``argv`` for each worker count; all must match
        byte for byte."""
        files = []
        for workers in counts:
            out = workdir / f"workers_{workers}.json"
            r = run([*argv, "--workers", str(workers), "-o", str(out)])
            assert r.returncode == code, r.stderr
            files.append(out.read_bytes())
        assert files.count(files[0]) == len(files)
        return json.loads(files[0])

    def test_to_success_report_is_independent_of_worker_count(self, workdir):
        # success in chunk 13 of 512 trials
        obj = self._reports(workdir, [
            "attack", "--vault", str(workdir / "vault.json"),
            "--preset", "small-attack", "--bits", "64", "--seed", "11",
        ])
        assert obj["secret_hex"] == "0011223344556677" and obj["trials"] == 6808

    def test_unlock_report_is_independent_of_worker_count(self, workdir):
        # 8 genuine among 20 matched records: C(20,6)/C(8,6) = 1384 candidates
        # expected, so the search runs past its first chunk of 64
        obj = self._reports(workdir, [
            "unlock", "--vault", str(workdir / "vault.json"),
            "--template", str(_probe(workdir, 8, 12)), "--D", "9", "--bits", "64",
            "--seed", "2",
        ])
        assert obj["secret_hex"] == "0011223344556677" and obj["candidates"] > 64

    def test_crc_report_is_independent_of_worker_count(self, workdir):
        # success in chunk 10 of 512 trials
        obj = self._reports(workdir, [
            "attack", "--vault", str(_crc_vault(workdir)), "--preset", "small-attack",
            "--mode", "crc", "--bits", "64", "--seed", "6",
        ])
        assert obj["secret_hex"] == "0011223344556677" and obj["trials"] == 5323

    def test_crc_false_pass_is_skipped_for_any_worker_count(self, workdir):
        # an 80-bit secret fills k = 6, so a wrong candidate passes CRC-16
        # with odds 2**-16; at seed 23 trial 775 does, on fewer than D = 9
        # vault records.  The bare CRC predicate (--D 0) stops there with a
        # wrong secret; the CRC rule skips it and finds the true one in
        # chunk 6 of 512 trials
        vault = workdir / "vault_crc80.json"
        r = run(["lock", "--preset", "small-attack", "--crc", "on",
                 "--secret-hex", "00112233445566778899", "--template", str(workdir / "tpl15.json"),
                 "--seed", "9", "-o", str(vault)])
        assert r.returncode == 0
        argv = ["attack", "--vault", str(vault), "--mode", "crc", "--bits", "80",
                "--budget", "30000", "--seed", "23"]
        bare = self._reports(workdir, [*argv, "--D", "0"], counts=(1,))
        assert bare["secret_hex"] == "a0fbd5480e3f6e3912da" and bare["trials"] == 775
        obj = self._reports(workdir, argv, counts=(1, 2))
        assert obj["secret_hex"] == "00112233445566778899" and obj["trials"] == 2736

    @pytest.mark.parametrize("command", ["attack", "unlock"])
    def test_budget_exhausted_report_is_independent_of_worker_count(self, workdir, command):
        # D = r accepts no candidate; a budget of 1300 cuts the last chunk short
        argv = [command, "--vault", str(workdir / "vault.json"), "--D", "60",
                "--budget", "1300", "--seed", "4"]
        if command == "unlock":
            argv += ["--template", str(_probe(workdir, 15, 45))]
        obj = self._reports(workdir, argv, code=3)
        assert obj["success"] is False
        assert obj["trials" if command == "attack" else "candidates"] == 1300


class TestCrcBitLength:
    @pytest.mark.parametrize("bits", [0, 81, 200])
    @pytest.mark.parametrize("command", ["attack", "unlock"])
    def test_bits_the_polynomial_cannot_carry_exit_2(self, workdir, command, bits):
        # the CRC rule would never accept, so the search would spend its
        # whole budget; it is refused before the search starts
        out = workdir / f"crc_bits_{command}_{bits}.json"
        argv = [command, "--vault", str(_crc_vault(workdir)), "--mode", "crc",
                "--bits", str(bits), "--seed", "1", "-o", str(out)]
        if command == "attack":
            argv += ["--preset", "small-attack", "--budget", "4096"]
        else:
            argv += ["--template", str(workdir / "tpl15.json")]
        r = run(argv)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert f"crc mode carries 1 to 80 secret bits at k=6, not bits={bits}" in r.stderr
        assert not out.exists()


def _first_point(field, value):
    def mutate(vault):
        vault["points"][0][field] = value
        return vault
    return mutate


def _set(field, value):
    def mutate(vault):
        vault[field] = value
        return vault
    return mutate


class TestVaultFormat:
    @pytest.mark.parametrize("mutate, message", [
        (_set("k", 0), "k=0 is outside"),
        (_set("k", 61), "k=61 is outside"),
        (_set("k", True), "int q, k and quiz_n"),
        (_set("q", 65536), "not a prime"),
        (_set("grid", "bogus"), "unknown grid kind"),
        (_first_point("Y", 10**20), "Y in [0, q=65537)"),
        (_first_point("Y", -1), "Y in [0, q=65537)"),
        (_first_point("x", "12"), "int x, y and Y"),
        (lambda vault: [vault], "one JSON object with int q"),
        (_set("d", -1), "d=-1 is not a finite number above 0"),
        (_set("d", math.inf), "d=inf is not a finite number above 0"),
        (_set("d", 10**400), "is not a finite number above 0"),
        (_first_point("x", 400), "abscissa x || y below q=65537"),
        (_first_point("y", 300), "0 <= y < 2**8"),
        (_first_point("x", -1), "x >= 0"),
        (_first_point("x", 10**30), "abscissa x || y below q=65537"),
    ], ids=["k-zero", "k-above-r", "k-bool", "q-composite", "grid-unknown", "Y-huge",
            "Y-negative", "x-string", "file-is-a-list", "d-negative", "d-infinite", "d-huge",
            "x-out-of-frame", "y-out-of-frame", "x-negative", "x-huge"])
    def test_malformed_vault_is_a_parameter_error(self, workdir, mutate, message):
        vault = json.loads((workdir / "vault.json").read_text())
        path = workdir / "malformed.json"
        path.write_text(json.dumps(mutate(vault)))
        r = run(["attack", "--vault", str(path), "--preset", "small-attack", "--bits", "64",
                 "--budget", "10", "--seed", "1"])
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert message in r.stderr

    @pytest.mark.parametrize("quiz_n", [1, -3, 70000])
    @pytest.mark.parametrize("command", ["attack", "unlock", "correlate"])
    def test_quiz_n_no_vault_can_have_is_a_format_error(self, workdir, command, quiz_n):
        # a 30-point quiz vault whose quiz_n is outside 0 and 2..q
        quiz = workdir / "quiz30.json"
        if not quiz.exists():
            r = run(["lock", "--k", "3", "--t", "8", "--r", "30", "--quiz-n", "4",
                     "--template", str(workdir / "tpl15.json"), "--seed", "5", "-o", str(quiz)])
            assert r.returncode == 0
        path = workdir / "quiz_n_outside.json"
        path.write_text(json.dumps(_set("quiz_n", quiz_n)(json.loads(quiz.read_text()))))
        argv = {
            "attack": ["attack", "--vault", str(path), "--D", "6", "--budget", "10",
                       "--seed", "1"],
            "unlock": ["unlock", "--vault", str(path), "--template", str(workdir / "tpl15.json"),
                       "--bits", "40", "--seed", "1"],
            "correlate": ["correlate", "--vaults", str(path), str(quiz), "--eps", "3"],
        }[command]
        r = run(argv)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert f"quiz_n={quiz_n} is neither 0 nor in 2..q=65537" in r.stderr


def _minutia(field, value):
    def mutate(template):
        template["minutiae"][0][field] = value
        return template
    return mutate


class TestTemplateFormat:
    @pytest.mark.parametrize("mutate, message", [
        (_minutia("x", None), "needs int x and y and a number theta"),
        (_minutia("theta", "0.5"), "needs int x and y and a number theta"),
        (_set("minutiae", 5), "one JSON object with int w and h and a list of minutiae"),
        (lambda template: [template], "one JSON object with int w and h"),
        (lambda template: {}, "one JSON object with int w and h"),
        (_set("w", True), "one JSON object with int w and h"),
        (_minutia("theta", math.nan), "orientation nan outside [0, pi)"),
    ], ids=["x-null", "theta-string", "minutiae-int", "file-is-a-list", "empty-object",
            "w-bool", "theta-nan"])
    @pytest.mark.parametrize("command", ["lock", "unlock"])
    def test_malformed_template_is_a_parameter_error(self, workdir, mutate, message, command):
        template = json.loads((workdir / "tpl15.json").read_text())
        path = workdir / "malformed_tpl.json"
        path.write_text(json.dumps(mutate(template)))
        argv = [command, "--template", str(path), "--seed", "1"]
        if command == "lock":
            argv += ["--preset", "small-attack", "-o", str(workdir / "unused.json")]
        else:
            argv += ["--vault", str(workdir / "vault.json"), "--bits", "64"]
        r = run(argv)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert message in r.stderr


_DELETE = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=4,
)


@given(data=st.data())
@settings(deadline=None)
def test_any_one_field_mutation_exits_0_2_or_3(workdir, data):
    """One field of the small-attack vault or of its template set to any JSON
    value, or deleted: attack and unlock end with a report or a one-line
    error, never an escaping exception."""
    from fuzzyvault.cli import main

    kind = data.draw(st.sampled_from(["vault", "tpl15"]))
    obj = json.loads((workdir / f"{kind}.json").read_text())
    items = obj["points" if kind == "vault" else "minutiae"]
    owner = data.draw(st.sampled_from([obj, items[0], items[-1]]))
    key = data.draw(st.sampled_from(sorted(owner)))
    value = data.draw(st.just(_DELETE) | _JSON)
    if value is _DELETE:
        del owner[key]
    else:
        owner[key] = value
    path = workdir / f"mutated_{kind}.json"
    path.write_text(json.dumps(obj))
    vault, template = (path, workdir / "tpl15.json") if kind == "vault" else (
        workdir / "vault.json", path)
    out = str(workdir / "mutated_report.json")
    common = ["--budget", "10", "--seed", "1", "-o", out]
    if kind == "vault":
        assert main(["attack", "--vault", str(vault), *common]) in (0, 2, 3)
    assert main(["unlock", "--vault", str(vault), "--template", str(template), "--bits", "64",
                 *common]) in (0, 2, 3)


def _cap_address_space():
    # an oversized allocation then fails fast instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))


class TestQuizSweepBound:
    def _attack_oversized_sweep(self, workdir, *extra):
        # 16**8 transform assignments per subset cannot be materialised
        vault = workdir / "quiz_k8_n16.json"
        r = run([
            "lock", "--k", "8", "--t", "15", "--r", "60", "--quiz-n", "16",
            "--template", str(workdir / "tpl15.json"), "--seed", "3", "-o", str(vault),
        ])
        assert r.returncode == 0
        r = run(["attack", "--vault", str(vault), "--D", "11", "--budget", "1", "--seed", "1",
                 *extra], preexec_fn=_cap_address_space, timeout=300)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    def test_oversized_sweep_is_a_parameter_error(self, workdir):
        self._attack_oversized_sweep(workdir)

    def test_oversized_sweep_with_workers_is_a_parameter_error(self, workdir):
        self._attack_oversized_sweep(workdir, "--workers", "2")


class TestReplays:
    def test_lock_is_byte_identical(self, workdir):
        a, b = workdir / "rep_a.json", workdir / "rep_b.json"
        for out in (a, b):
            r = run([
                "lock", "--preset", "small-attack", "--secret-hex", "0011223344556677",
                "--template", str(workdir / "tpl15.json"), "--seed", "9", "-o", str(out),
            ])
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_attack_report_is_byte_identical(self, workdir):
        a, b = workdir / "att_a.json", workdir / "att_b.json"
        for out in (a, b):
            r = run([
                "attack", "--vault", str(workdir / "vault.json"),
                "--preset", "small-attack", "--bits", "64", "--seed", "5",
                "-o", str(out),
            ])
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_estimate_csv_is_byte_identical(self):
        a = run(["estimate", "--preset", "clancy"])
        b = run(["estimate", "--preset", "clancy"])
        assert a.stdout == b.stdout

    def test_in_process_calls_share_no_state(self, workdir):
        """main() reuses one parser per process: one call's options must not
        leak into the next call's defaults or outputs."""
        from fuzzyvault.cli import build_parser, main

        grid = ["sweep", "--r", "9", "--t", "5", "--k", "3"]
        assert build_parser().parse_args(grid + ["--D", "4", "--q", "17"]).D == [4]
        fresh = build_parser().parse_args(grid)
        assert (fresh.D, fresh.q, fresh.quiz_n) == ([], [65537], [0])

        argv = ["attack", "--vault", str(workdir / "vault.json"), "--preset", "small-attack",
                "--bits", "64", "--seed", "5", "-o"]
        ref, first, second = (workdir / f"att_proc_{i}.json" for i in range(3))
        assert run(argv + [str(ref)]).returncode == 0
        assert main(argv + [str(first), "--budget", "3"]) == 3
        assert main(argv + [str(second)]) == 0
        assert second.read_bytes() == ref.read_bytes()


class TestDuplicateAbscissae:
    """A vault with two records on the same abscissa X mod q is a parameter
    error before any search starts."""

    def _variants(self, workdir):
        obj = json.loads((workdir / "vault.json").read_text())
        first = obj["points"][0]
        X = (first["x"] << 8 | first["y"]) + obj["q"]  # same X mod q, out of frame
        paths = []
        for name, extra in (("dup", {"x": first["x"], "y": first["y"], "Y": 1}),
                            ("wrap", {"x": X >> 8, "y": X & 255, "Y": 1})):
            path = workdir / f"vault_{name}.json"
            path.write_text(json.dumps(dict(obj, points=obj["points"] + [extra])) + "\n")
            paths.append(path)
        return paths

    def test_attack_exits_2(self, workdir):
        for path in self._variants(workdir):
            r = run(["attack", "--vault", str(path), "--preset", "small-attack",
                     "--budget", "100", "--seed", "1"])
            assert r.returncode == 2
            assert r.stderr.startswith("error:") and "abscissa" in r.stderr
            assert len(r.stderr.splitlines()) == 1
            assert r.stdout == ""

    def test_unlock_exits_2(self, workdir):
        for path in self._variants(workdir):
            r = run(["unlock", "--vault", str(path), "--template", str(workdir / "tpl15.json"),
                     "--bits", "64", "--seed", "1"])
            assert r.returncode == 2
            assert r.stderr.startswith("error:") and "abscissa" in r.stderr
            assert len(r.stderr.splitlines()) == 1
            assert r.stdout == ""

    @pytest.mark.parametrize("command", ["correlate", "spurious"])
    def test_every_vault_reader_exits_2(self, workdir, command):
        for path in self._variants(workdir):
            if command == "correlate":
                r = run(["correlate", "--vaults", str(path), str(workdir / "vault.json"),
                         "--eps", "3"])
            else:
                r = run(["spurious", "--vault", str(path), "--t-hits", "4"])
            assert r.returncode == 2
            assert r.stderr.startswith("error:") and "abscissa" in r.stderr
            assert len(r.stderr.splitlines()) == 1
            assert r.stdout == ""


def test_correlate_of_oversized_vaults_is_refused_before_allocating(workdir):
    # 6000 x 6000 point pairs: several float64 arrays of 275 MiB would not
    # fit under an 800 MB address-space cap on the child process
    paths = []
    for seed in (1, 2):
        rng = random.Random(seed)
        points = [{"x": X >> 8, "y": X & 255, "Y": rng.randrange(65537)}
                  for X in rng.sample(range(65536), 6000)]
        path = workdir / f"big_{seed}.json"
        path.write_text(json.dumps({"q": 65537, "k": 6, "d": 11.0, "grid": "random",
                                    "quiz_n": 0, "points": points}))
        paths.append(str(path))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (800 * 2**20, 800 * 2**20))

    r = run(["correlate", "--vaults", *paths, "--eps", "3"], preexec_fn=cap, timeout=300)
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "point pairs exceed" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


class TestFrameBound:
    """A random-grid lock and simulate refuse a frame above MAX_FRAME_PIXELS
    before allocating its mask; a hex-grid lock places no chaff by mask."""

    @pytest.mark.parametrize("argv", [
        ["lock", "--width", "65535", "--height", "32768"],
        ["lock", "--width", "5000", "--height", "5000"],
        ["simulate", "--count", "15", "--width", "5000", "--height", "5000"],
    ])
    def test_oversized_random_frame_exits_2(self, workdir, argv):
        if argv[0] == "lock":
            argv = argv + ["--k", "6", "--t", "15", "--r", "60", "--q", "2147483647",
                           "--secret-hex", "0011223344556677",
                           "--template", str(workdir / "tpl15.json")]
        r = run(argv + ["--seed", "1", "-o", str(workdir / "frame.json")],
                preexec_fn=_cap_address_space, timeout=300)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "exceeds the bound" in r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    def test_hex_lock_of_an_oversized_frame_is_unaffected(self, workdir):
        out = workdir / "hex5000.json"
        r = run(["lock", "--grid", "hex", "--d", "60", "--width", "5000", "--height", "5000",
                 "--k", "6", "--t", "15", "--r", "60", "--q", "2147483647",
                 "--secret-hex", "0011223344556677", "--template", str(workdir / "tpl15.json"),
                 "--seed", "1", "-o", str(out)], timeout=300)
        assert r.returncode == 0
        points = json.loads(out.read_text())["points"]
        assert len(points) > 5000
        assert max(p["x"] for p in points) < 5000 and max(p["y"] for p in points) < 5000
