#!/usr/bin/env python3
"""Benchmark of the fuzzyvault lab through its public CLI entry point.

    python3 perfbench/run.py --workload attack-small --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  Set-up writes every input (templates and
recaptures) from the seed with ``fuzzyvault.simulate``; the timed region
then repeats passes over those users, through ``fuzzyvault.cli.main``, until
``--seconds`` are spent (the last pass is cut short).  A pass enrolls
(``lock``) and verifies (``unlock``) every user and attacks (``attack``) a
few vaults.  Every output is checked against the truth sidecar its ``lock``
wrote, and against the first pass byte for byte; a result other than the
true secret passes only where the program's documented rule gives it for
those inputs (see the classifiers below).  Times are in reference seconds
(speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
stdout line is one JSON object; a fuller record, with machine facts and
sample counts, goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

# perfbench/ is on sys.path as the script's directory
from speed import REF_S, SpeedProbe, Timing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

SETUP_REPS = 7
# lock and unlock calls in a row per user and pass; a user's latency in a
# pass is the fastest of them (see _latency_and_rate)
LATENCY_REPS = 3
POOL_PROBES = 3
# Printed and recorded, but left out of the last output line: it counts rare
# results (see README.md), so it cannot be gated by a share of its median.
NOT_GATED = {"failed_frac"}


@dataclass(frozen=True)
class Workload:
    name: str
    template_count: int   # minutiae per enrolled template
    t: int                # genuine points per vault
    lock_args: tuple
    unlock_args: tuple
    users: int            # users enrolled and verified per pass
    attack_args: tuple = ()
    vaults: int = 1       # users whose vault is also attacked, per pass
    budget: int | None = None   # explicit attack budget (exhausted: exit 3)
    workers: int = 1      # attack workers


# Why each workload exists, and which layers it stresses: see README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "attack-small",
            template_count=15, t=15,
            lock_args=("--preset", "small-attack"),
            unlock_args=("--bits", "96"),
            users=200,
            attack_args=("--preset", "small-attack", "--bits", "96"),
            vaults=12,
        ),
        Workload(
            "attack-crc-budget",
            template_count=25, t=25,
            lock_args=("--preset", "uludag"),
            unlock_args=("--mode", "crc", "--bits", "112"),
            users=200,
            attack_args=("--preset", "uludag", "--mode", "crc", "--bits", "112"),
            vaults=12, budget=8_192, workers=2,
        ),
        Workload(
            "attack-quiz",
            template_count=8, t=8,
            lock_args=("--k", "3", "--t", "8", "--r", "30", "--quiz-n", "4",
                       "--bits", "48"),
            unlock_args=("--bits", "48"),
            users=200,
            attack_args=("--D", "6", "--assume-t", "8", "--bits", "48"),
            vaults=16,
        ),
        Workload(
            "enroll-verify",
            template_count=40, t=38,
            lock_args=("--preset", "clancy"),
            unlock_args=("--bits", "112"),
            users=200,
            attack_args=("--preset", "clancy", "--bits", "112"),
            vaults=24, budget=512,
        ),
    )
}

# --smoke: every workload at minimal size, for the benchmark's own test.
SMOKE = dict(users=3, vaults=1, budget=1024)


# ---------------------------------------------------------------------------
# helpers


def _user_seed(seed: int, workload: str, user: int, label: str) -> int:
    return random.Random(f"{seed}/{workload}/{user}/{label}").getrandbits(31)


def quantile(samples: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile, lowered until at least ten samples lie beyond
    it (when there are fewer than 10/(1-pct) samples).  Returns (value,
    percentile used)."""
    n = len(samples)
    if n < 2:
        return (samples[0] if samples else 0.0), 100
    while pct > 50 and n * (100 - pct) < 1000:
        pct -= 1
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[pct - 1], pct


def machine_facts() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git (no subprocess); "unknown" when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (the pool
    workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# the run


@dataclass
class User:
    index: int
    template: Path
    recapture: Path
    lock_seed: int
    unlock_seed: int
    attack_seed: int


@dataclass
class PassResult:
    wall_s: float = 0.0
    # per user index: the Timings of its lock and unlock calls (see
    # speed.py), and of its attack call with the trial count behind it
    enroll_s: dict = field(default_factory=dict)
    verify_s: dict = field(default_factory=dict)
    attack_s: dict = field(default_factory=dict)
    attack_trials: dict = field(default_factory=dict)
    interpolations: int = 0
    point_checks: int = 0
    expected_trials: float = 0.0   # sum of C(r,k)/C(t,k) over successful attacks
    layers: dict | None = None     # tracer snapshot of a traced pass

    @property
    def trials(self) -> int:
        return sum(self.attack_trials.values())


class Run:
    def __init__(self, wl: Workload, seed: int, smoke: bool, cli, tracer=None):
        self.wl = wl
        self.seed = seed
        self.smoke = smoke
        self.cli = cli
        self.tracer = tracer
        self.speed = SpeedProbe()
        self.calls = 0
        self.users_n = SMOKE["users"] if smoke else wl.users
        self.vaults_n = min(wl.vaults, SMOKE["vaults"]) if smoke else wl.vaults
        # Attacked users are spread evenly over a pass, so that the search
        # rate samples the machine at as many moments as the latencies do.
        self.attacked = {j * self.users_n // self.vaults_n for j in range(self.vaults_n)}
        self.budget = wl.budget
        if smoke and wl.budget is not None:
            self.budget = SMOKE["budget"]
        self.work = WORK_DIR / f"{wl.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        # results other than the true secret that a documented rule explains
        self.outcomes: dict[str, int] = {}
        self.outcome_log: list[dict] = []
        self.checks: dict[str, int] = {}
        self.reference: dict[str, bytes] = {}
        self._sink = io.StringIO()

    # -- calling the program -------------------------------------------------

    def call(self, argv: list, workers: int = 1) -> tuple[int | None, Timing, str]:
        """One in-process CLI call: (exit code or None on exception, its
        timing, error text)."""
        argv = [str(a) for a in argv]
        self.calls += 1
        if self.tracer is not None:
            self.tracer.op = self.calls
        self._sink.seek(0)
        self._sink.truncate()
        error = ""
        probe = self.speed.before(workers)
        with contextlib.redirect_stderr(self._sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if code != 0 and not error:
            error = self._sink.getvalue().strip()[-300:]
        return code, Timing(elapsed, probe, workers), error

    def check(self, name: str, ok: bool, op: str, detail: str = "",
              outcome: str | None = None) -> bool:
        """Record one correctness check; a failed one fails its operation,
        unless ``outcome`` names the documented rule that gives this result
        for these inputs.  Such a result is counted under that name."""
        self.checks[name] = self.checks.get(name, 0) + 1
        if ok:
            return True
        entry = {"op": op, "check": name, "detail": detail[:300]}
        if outcome is None:
            self.failures.append(entry)
            return False
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if len(self.outcome_log) < 50:
            self.outcome_log.append({"outcome": outcome, **entry})
        return True

    def _op_done(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def same_as_first(self, key: str, data: bytes, op: str) -> bool:
        """Replay check: a repeated call with the same seed writes the same
        bytes."""
        first = self.reference.setdefault(key, data)
        return self.check("replay_identical", data == first, op, key)

    # -- set-up ----------------------------------------------------------------

    def generate(self) -> list[tuple[str, str]]:
        """Every user's template and recapture (default noise model), as
        JSON text.  Inputs come from the library, not the CLI, so that
        set-up stays a small share of a run; the timed operations all go
        through the CLI."""
        simulate = importlib.import_module("fuzzyvault.simulate")
        wl = self.wl
        texts = []
        for i in range(self.users_n):
            template = simulate.gen_template(
                wl.template_count, seed=_user_seed(self.seed, wl.name, i, "template"))
            recaptured = simulate.recapture(
                template, simulate.RecaptureModel(),
                seed=_user_seed(self.seed, wl.name, i, "recapture"))
            texts.append((simulate.template_to_json(template),
                          simulate.template_to_json(recaptured)))
        return texts

    def write_inputs(self, texts: list[tuple[str, str]]) -> list[User]:
        base = self.work / "inputs"
        base.mkdir(parents=True)
        users = []
        for i, (template, recaptured) in enumerate(texts):
            tpl = base / f"tpl{i}.json"
            rec = base / f"rec{i}.json"
            tpl.write_text(template, encoding="utf-8")
            rec.write_text(recaptured, encoding="utf-8")
            users.append(User(
                i, tpl, rec,
                _user_seed(self.seed, self.wl.name, i, "lock"),
                _user_seed(self.seed, self.wl.name, i, "unlock"),
                _user_seed(self.seed, self.wl.name, i, "attack"),
            ))
        return users

    # -- one pass ---------------------------------------------------------------

    def run_pass(self, users: list[User], attack_workers: int, first: bool,
                 deadline: float | None = None) -> PassResult:
        """One pass over the users; it stops early, between users, once the
        ``deadline`` (a perf_counter time) has passed."""
        out = self.work / "pass"
        out.mkdir(parents=True, exist_ok=True)
        res = PassResult()
        start = time.perf_counter()
        for user in users:
            if deadline is not None and time.perf_counter() > deadline:
                break
            i = user.index
            vault, truth = out / f"vault{i}.json", out / f"truth{i}.json"
            for rep in range(LATENCY_REPS):
                truth_obj = self.enroll(user, vault, truth, first and rep == 0, res)
                if truth_obj is None:
                    break
                self.verify(user, vault, truth_obj, res)
            if truth_obj is not None and i in self.attacked:
                self.attack(user, vault, truth_obj, attack_workers, res)
        res.wall_s = time.perf_counter() - start
        return res

    def enroll(self, user: User, vault: Path, truth: Path, roundtrip: bool,
               res: PassResult) -> dict | None:
        """One ``lock`` call and its checks; the truth sidecar, or None when
        the call failed."""
        from fuzzyvault.vault import vault_from_json, vault_to_json

        i = user.index
        op = f"lock user {i}"
        code, timing, error = self.call(
            ["lock", *self.wl.lock_args, "--template", user.template,
             "--seed", user.lock_seed, "-o", vault, "--truth", truth])
        res.enroll_s.setdefault(i, []).append(timing)
        ok = self.check("exit_code", code == 0, op, error)
        if ok:
            text = vault.read_text(encoding="utf-8")
            ok = self.same_as_first(f"vault{i}", text.encode(), op)
            ok &= self.same_as_first(f"truth{i}", truth.read_bytes(), op)
            if roundtrip:
                ok &= self.check("vault_roundtrip",
                                 vault_to_json(vault_from_json(text)) == text, op)
        self._op_done(ok)
        return json.loads(truth.read_text(encoding="utf-8")) if ok else None

    def verify(self, user: User, vault: Path, truth_obj: dict, res: PassResult) -> None:
        """One ``unlock`` call with the recapture, and its checks."""
        i = user.index
        op = f"unlock user {i}"
        report = self.work / "pass" / f"unlock{i}.json"
        code, timing, error = self.call(
            ["unlock", "--vault", vault, "--template", user.recapture,
             *self.wl.unlock_args, "--workers", 1, "--seed", user.unlock_seed,
             "-o", report])
        res.verify_s.setdefault(i, []).append(timing)
        outcome = None
        if code == 3:
            outcome, error = false_reject(vault, user.recapture, truth_obj)
        ok = self.check("exit_code", code == 0, op, error, outcome)
        if ok:
            data = report.read_bytes()
            if code == 0:
                obj = json.loads(data)
                recovered = obj.get("secret_hex") == truth_obj["secret_hex"]
                if not recovered:
                    outcome = quiz_shift(vault, truth_obj, obj.get("secret_hex"),
                                         "quiz_shift_accept", threshold=True)
                ok = self.check("secret_recovered", recovered, op, outcome=outcome)
            ok &= self.same_as_first(f"unlock{i}", data, op)
        self._op_done(ok)

    def attack(self, user: User, vault: Path, truth_obj: dict, workers: int,
               res: PassResult) -> None:
        wl = self.wl
        i = user.index
        op = f"attack user {i}"
        report = self.work / "pass" / f"attack{i}.json"
        argv = ["attack", "--vault", vault, *wl.attack_args, "--workers", workers,
                "--seed", user.attack_seed, "-o", report]
        if self.budget is not None:
            argv += ["--budget", self.budget]
        code, timing, error = self.call(argv, workers)
        if code not in (0, 3):
            self._op_done(self.check("exit_code", False, op, error))
            return
        data = report.read_bytes()
        obj = json.loads(data)
        res.attack_trials[i] = obj["trials"]
        res.interpolations += obj["interpolations"]
        res.point_checks += obj["point_checks"]
        recovered = obj.get("secret_hex") == truth_obj["secret_hex"]
        outcome = None
        if self.budget is None:
            ok = self.check("exit_code", code == 0, op, error)
            if ok:
                head = json.loads(vault.read_bytes())
                r, k = len(head["points"]), head["k"]
                res.expected_trials += math.comb(r, k) / math.comb(wl.t, k)
                if not recovered:
                    outcome = quiz_shift(vault, truth_obj, obj.get("secret_hex"),
                                         "quiz_shift_tie")
                ok = self.check("secret_recovered", recovered, op, outcome=outcome)
        elif code == 3:
            ok = self.check("budget_exhausted",
                            obj["trials"] == self.budget and not obj["success"],
                            op, f"trials {obj['trials']}")
        else:
            if not recovered and "crc" in wl.attack_args:
                outcome = crc_false_accept(vault, obj.get("secret_hex"), truth_obj["l"])
            ok = self.check("secret_recovered", recovered, op,
                            f"accepted after {obj['trials']} trials", outcome)
        # With one worker the report is bit-reproducible; with more, the
        # counters of an early stop depend on which chunk finishes first.
        if code == 3 or workers == 1:
            ok &= self.same_as_first(f"attack{i}/{workers}", data, op)
        self._op_done(ok)
        # The search rate counts only searches that ran to their end.  A CRC
        # false accept cancels the chunks in flight, whose trials the report
        # does not count, and leaves the pool start-up spread over few trials.
        if self.budget is None or code == 3:
            res.attack_s[i] = timing

    # -- timed region -----------------------------------------------------------

    def passes(self, users, seconds: float) -> tuple[list, list]:
        """Untraced passes until ``seconds`` are spent, the last one cut
        short at that time; or, when the run has a tracer, alternating
        untraced and traced whole passes while another pair fits.  The
        first pass is always whole.  Returns (untraced, traced)."""
        tracer = self.tracer
        plain, traced = [], []
        workers = self.wl.workers if tracer is None else 1
        start = time.perf_counter()
        deadline = start + seconds if tracer is None and not self.smoke else None
        while True:
            first = not plain
            plain.append(self.run_pass(users, workers, first, None if first else deadline))
            if tracer is not None:
                tracer.reset()
                tracer.keep_spans = not traced
                tracer.install()
                try:
                    res = self.run_pass(users, workers, False)
                finally:
                    tracer.uninstall()
                res.layers = tracer.snapshot()
                traced.append(res)
            done = time.perf_counter() - start
            if self.smoke:
                stop = len(plain) >= 2
            elif tracer is None:
                stop = done >= seconds
            else:
                stop = done + done / len(plain) > seconds
            if stop:
                self.speed.measure()  # the probe after the last call
                return plain, traced


# ---------------------------------------------------------------------------
# results other than the true secret
#
# Each classifier recomputes, from the vault and the truth sidecar, whether
# the program's documented rule gives the reported result for these inputs,
# and returns the result's name, or None when no rule explains it (a
# failure).  See README.md, "Results other than the true secret".


def false_reject(vault: Path, recapture: Path, truth_obj: dict) -> tuple[str | None, str]:
    """Name a verifier reject (exit 3) that the inputs explain, with a detail.

    consensus_decode documents its failure as insufficient overlap.  The
    reject is a false reject when fewer than k points of the unlocking set
    (greedy matching at the default tau = d/2) lie on the true polynomial:
    genuine records whose quiz transform index, if any, the recapture
    recovers.  No k-subset of such a set interpolates the true polynomial,
    whatever the decoder does.  Any other reject is a failure.
    """
    from fuzzyvault.field import PrimeField
    from fuzzyvault.quiz import apply_transform, recover_index
    from fuzzyvault.simulate import template_from_json
    from fuzzyvault.unlock import build_unlocking_set
    from fuzzyvault.vault import concat_coord, coord_shift, vault_from_json

    v = vault_from_json(vault.read_text(encoding="utf-8"))
    uset = build_unlocking_set(v, template_from_json(recapture.read_text(encoding="utf-8")),
                               v.d / 2.0)
    genuine = set(truth_obj["genuine_indices"])
    field_q = PrimeField(v.q)
    shift = coord_shift(v.q)
    qp = v.quiz_params()
    on_graph = 0
    for ri, minutia in uset.pairs:
        if ri not in genuine:
            continue
        rec = v.records[ri]
        y = rec.value
        if qp is not None:
            y = apply_transform(y, recover_index(minutia.theta, rec.beta, qp.n), qp)
        truth_y = field_q.poly_eval(truth_obj["f_coeffs"], concat_coord(rec.x, rec.y, shift))
        on_graph += y == truth_y
    detail = f"{on_graph} of {len(uset)} matched points on the true polynomial, k={v.k}"
    return ("false_reject" if on_graph < v.k else None), detail


def quiz_shift(vault: Path, truth_obj: dict, reported_hex: str | None, name: str,
               threshold: bool = False) -> str | None:
    """``name`` when a quiz result is a shift of the true polynomial that the
    stop rule accepts, else None.

    Under the any-index graph test the true polynomial's constant term
    shifted by s*(q//n), |s| < n, collects as many vault hits as the truth
    whenever no genuine record uses the transform indices the shift pushes
    out of range.  The attacker (``_canonical_quiz_candidate``) reports a
    variant with the most hits, so it accepts a shift that ties with the
    truth; the verifier (``consensus_decode``, ``threshold``) accepts the
    first candidate with D = k + 3 hits.  The result is explained when the
    reported secret decodes from such a shift, or, with no decodable secret
    reported, when such a shift exists.
    """
    from fuzzyvault.coding import DecodeError, decode_secret
    from fuzzyvault.consensus import VaultIndex
    from fuzzyvault.vault import vault_from_json

    v = vault_from_json(vault.read_text(encoding="utf-8"))
    if not v.quiz_n:
        return None
    index = VaultIndex(v)
    coeffs = list(truth_obj["f_coeffs"])
    needed = v.k + 3 if threshold else index.count_hits(coeffs)
    step = v.q // v.quiz_n
    for s in range(-(v.quiz_n - 1), v.quiz_n):
        if s == 0:
            continue
        shifted = [(coeffs[0] + s * step) % v.q] + coeffs[1:]
        if reported_hex is not None:
            try:
                if decode_secret(shifted, truth_obj["l"]).hex != reported_hex:
                    continue
            except DecodeError:
                continue
        if index.count_hits(shifted) >= needed:
            return name
    return None


def crc_false_accept(vault: Path, reported_hex: str | None, bits: int) -> str | None:
    """"crc16_false_accept" when a CRC-rule attack stopped on a wrong secret
    that the rule accepts, else None.

    A random candidate passes the CRC-16 check with probability 2**-16
    (acceptance criterion 6), so a budgeted CRC attack can stop early on a
    wrong candidate.  The result is explained when the reported secret,
    encoded with its CRC coefficient, is a polynomial through at least k
    vault records: a candidate the search interpolated from a k-subset.
    """
    from fuzzyvault.coding import Secret, encode_secret
    from fuzzyvault.consensus import VaultIndex
    from fuzzyvault.vault import vault_from_json

    if reported_hex is None:
        return None
    v = vault_from_json(vault.read_text(encoding="utf-8"))
    coeffs = encode_secret(Secret.from_hex(reported_hex, bits), v.k, crc=True, q=v.q)
    return "crc16_false_accept" if VaultIndex(v).count_hits(coeffs) >= v.k else None


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_user_median(plain: list[PassResult], attr: str, value) -> dict:
    """Per user, the median of ``value(sample)`` over its passes.  Every pass
    replays the same work byte for byte, so the median drops one-off stalls
    (a collection, a probe that missed a change of machine state)."""
    samples: dict = {}
    for p in plain:
        for user, sample in getattr(p, attr).items():
            samples.setdefault(user, []).append(value(sample))
    return {user: statistics.median(v) for user, v in samples.items()}


def _latency_and_rate(run: Run, plain: list[PassResult], seconds) -> dict:
    """Latency percentiles and the search rate, with ``seconds(timing)``
    giving reference or raw wall seconds."""
    # A user's lock or unlock latency is, per pass, the fastest of its
    # LATENCY_REPS calls in a row, then the median over passes.  On a shared
    # host, calls of a few milliseconds are slowed at random (a fixed 8 ms
    # job read 19% slower at its p95 than at its median); the fastest of a
    # few calls drops that, and unlike a minimum over all passes it does not
    # depend on how many passes fit into the run.  The percentiles over
    # users then follow the work each user's inputs need.
    def fastest(timings):
        return min(map(seconds, timings))

    enroll = _per_user_median(plain, "enroll_s", fastest)
    verify = _per_user_median(plain, "verify_s", fastest)
    # The median over attack calls of each call's trials per second.  Trials
    # to success are geometric, so a ratio of sums would follow the one or
    # two longest attacks of a seed; and a long call can see the machine
    # change state between the probes around it.  The median drops both.
    rates = [p.attack_trials[user] / seconds(timing)
             for p in plain for user, timing in p.attack_s.items()]
    out = {"trials_per_s": (_median(rates), len(rates))}
    for name, per_user in (("enroll", enroll), ("verify", verify)):
        for pct in (50, 95):
            value, used = quantile(list(per_user.values()), pct)
            out[f"{name}_s_p{pct}"] = (value, len(per_user), used)
    return out


def end_to_end(run: Run, setup_s: float, rss_mb: float, plain: list[PassResult]) -> dict:
    ref = _latency_and_rate(run, plain, run.speed.reference)
    passes = f"median of {len(plain)} passes per user"
    attempted = max(run.attempted, 1)
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPS,
                    "median over set-up repetitions of import plus input generation, "
                    "reference seconds"),
        "trials_per_s": (ref["trials_per_s"][0], "1/s", ref["trials_per_s"][1],
                         "median over attack calls of trials per reference second, "
                         f"{len(plain)} passes"),
    }
    for name, call in (("enroll", "lock"), ("verify", "unlock")):
        for pct in (50, 95):
            key = f"{name}_s_p{pct}"
            value, n, used = ref[key]
            metrics[key] = (value, "s", n, f"{call} calls in reference seconds, "
                                           f"fastest of {LATENCY_REPS} in a row, "
                                           f"p{used} over users, {passes}")
    ended_wrong = run.failed + sum(run.outcomes.values())
    metrics["failed_frac"] = (ended_wrong / attempted, "ratio", run.attempted,
                              "operations that failed a check or ended without the "
                              "true secret, over attempted")
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1, "process plus largest pool worker")
    return metrics


def wall_clock(run: Run, setup_wall_s: float, plain: list[PassResult]) -> dict:
    """The same figures from raw wall seconds (recorded, not gated)."""
    wall = _latency_and_rate(run, plain, attrgetter("wall_s"))
    out = {"setup_s": setup_wall_s}
    out.update({name: v[0] for name, v in wall.items()})
    return out


def per_layer(plain: list[PassResult], traced: list[PassResult],
              probes: dict, setup_layers: list[dict]) -> dict:
    first = traced[0]
    layers = first.layers["layers"]
    counters = first.layers["counters"]
    n = len(traced)

    def med(fn):
        return _median([fn(p) for p in traced])

    def self_s(name):
        return med(lambda p: p.layers["layers"].get(name, {}).get("self_s", 0.0))

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def setup_self(name):
        return _median([s["layers"].get(name, {}).get("self_s", 0.0) for s in setup_layers])

    interp_calls = calls("field.interpolate")
    interp_total = med(lambda p: p.layers["layers"].get("field.interpolate", {})
                       .get("total_s", 0.0))
    too_close = calls("geometry.too_close")
    plain_wall = _median([p.wall_s for p in plain])
    traced_wall = _median([p.wall_s for p in traced])
    metrics = {
        "field.interpolate.calls": (interp_calls, "count"),
        "field.interpolate.self_s": (self_s("field.interpolate"), "s"),
        "field.interpolate.us_per_call": (
            1e6 * interp_total / interp_calls if interp_calls else 0.0, "us"),
        "field.poly_eval.calls": (calls("field.poly_eval"), "count"),
        "field.poly_eval.self_s": (self_s("field.poly_eval"), "s"),
        "consensus.count_hits.calls": (calls("consensus.count_hits"), "count"),
        "consensus.count_hits.self_s": (self_s("consensus.count_hits"), "s"),
        "consensus.index_build.calls": (calls("consensus.index_build"), "count"),
        "consensus.index_build.self_s": (self_s("consensus.index_build"), "s"),
        "coding.crc_check.calls": (calls("coding.crc_check"), "count"),
        "coding.crc_check.self_s": (self_s("coding.crc_check"), "s"),
        "attack.search.self_s": (self_s("attack.search"), "s"),
        "attack.sample.self_s": (self_s("attack.sample"), "s"),
        "attack.trials": (first.trials, "count"),
        "attack.interpolations": (first.interpolations, "count"),
        "attack.point_checks": (first.point_checks, "count"),
        "attack.interps_per_trial": (
            first.interpolations / first.trials if first.trials else 0.0, "ratio"),
        "attack.trial_law_ratio": (
            first.trials / first.expected_trials if first.expected_trials else 0.0,
            "ratio"),
        "attack.pool_setup_s": (probes.get("pool_setup_s", 0.0), "s"),
        "attack.parallel_eff": (probes.get("parallel_eff", 0.0), "ratio"),
        "vault.lock.self_s": (self_s("vault.lock"), "s"),
        "vault.chaff.self_s": (self_s("vault.chaff"), "s"),
        "geometry.too_close.calls": (too_close, "count"),
        "vault.chaff.accept_ratio": (
            counters.get("vault.chaff", 0) / too_close if too_close else 0.0, "ratio"),
        "vault.to_json.self_s": (self_s("vault.to_json"), "s"),
        "vault.from_json.self_s": (self_s("vault.from_json"), "s"),
        "unlock.match.self_s": (self_s("unlock.match"), "s"),
        "unlock.match.pairs": (counters.get("unlock.match", 0), "count"),
        "unlock.decode.self_s": (self_s("unlock.decode"), "s"),
        "unlock.candidates": (counters.get("unlock.decode", 0), "count"),
        "simulate.gen_template.self_s": (setup_self("simulate.gen_template"), "s"),
        "simulate.recapture.self_s": (setup_self("simulate.recapture"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
    }
    return {name: (value, unit, n) for name, (value, unit) in metrics.items()}


def crc_probes(run: Run, users: list[User]) -> dict:
    """Pool figures for the budgeted CRC workload: the cost of a minimal
    multi-worker attack call (wall seconds, median of POOL_PROBES calls), and
    the multi-worker rate over twice the untraced one-worker rate on the
    same vault and budget (reference seconds, each the median of
    POOL_PROBES calls, alternating)."""
    wl = run.wl
    user = users[0]
    vault = run.work / "pass" / "vault0.json"
    report = run.work / "probe.json"
    base = ["attack", "--vault", vault, *wl.attack_args, "--seed", user.attack_seed,
            "-o", report]
    setup = []
    for _ in range(POOL_PROBES):
        code, timing, error = run.call(
            base + ["--workers", wl.workers, "--budget", 1], wl.workers)
        if code not in (0, 3):
            raise RuntimeError(f"pool probe failed: {error}")
        setup.append(timing.wall_s)
    runs: dict = {1: [], wl.workers: []}
    for _ in range(POOL_PROBES):
        for workers in runs:
            code, timing, error = run.call(
                base + ["--workers", workers, "--budget", run.budget], workers)
            if code not in (0, 3):
                raise RuntimeError(f"rate probe failed: {error}")
            runs[workers].append((json.loads(report.read_bytes())["trials"], timing))
    run.speed.measure()
    rates = {w: _median([n / run.speed.reference(t) for n, t in calls])
             for w, calls in runs.items()}
    return {"pool_setup_s": _median(setup),
            "parallel_eff": rates[wl.workers] / (wl.workers * rates[1])}


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes and two passes (for the benchmark's own test)")
    return p.parse_args(argv)


def fresh_imports(speed: SpeedProbe) -> list[Timing]:
    """Timings of importing fuzzyvault.cli in a fresh interpreter.  The
    import of the running process happens once, so SETUP_REPS child
    interpreters, each waited for, repeat it."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import fuzzyvault.cli; print(time.perf_counter() - t)")
    timings = []
    for _ in range(SETUP_REPS):
        probe = speed.before(fresh=True)
        child = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                               text=True, timeout=120, check=True)
        timings.append(Timing(float(child.stdout), probe, 1))
    speed.measure()
    return timings


def setup_seconds(imports: list[Timing], reps: list[Timing], seconds) -> float:
    """Median import time plus median input-generation time."""
    return (statistics.median(map(seconds, imports))
            + statistics.median(map(seconds, reps)))


def import_program():
    """Import fuzzyvault from this checkout's src/ (never an installed copy)
    and return the cli module."""
    if not (SRC / "fuzzyvault" / "cli.py").is_file():
        raise FileNotFoundError(f"no fuzzyvault sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fuzzyvault.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "fuzzyvault").resolve():
        raise ImportError(f"fuzzyvault imported from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = Run(wl, args.seed, args.smoke, cli, tracer)
    try:
        reps, setup_timings, setup_layers = [], [], []
        for rep in range(SETUP_REPS):
            traced = tracer is not None and rep % 2 == 1
            probe = run.speed.before(fresh=True)
            if traced:
                tracer.reset()
                tracer.install()
            start = time.perf_counter()
            try:
                reps.append(run.generate())
            finally:
                if traced:
                    tracer.uninstall()
            setup_timings.append(Timing(time.perf_counter() - start, probe, 1))
            if traced:
                setup_layers.append(tracer.snapshot())
        run.speed.measure()  # the probe after the last repetition
        run.check("setup_replay_identical", all(texts == reps[0] for texts in reps),
                  "set-up", "set-up repetitions differ")
        # Writing the input files is left out of setup_s: its time follows
        # the file system, not the program.
        users = run.write_inputs(reps[0])

        plain, traced_passes = run.passes(users, args.seconds)
        if tracer is not None:
            counts_ok = all(
                {k: v["calls"] for k, v in p.layers["layers"].items()}
                == {k: v["calls"] for k, v in traced_passes[0].layers["layers"].items()}
                for p in traced_passes)
            run.check("trace_counts_repeat", counts_ok, "trace",
                      "call counts differ between traced passes")
            probes = crc_probes(run, users) if wl.workers > 1 else {}
            metrics = per_layer(plain, traced_passes, probes, setup_layers)
        else:
            # Read before the import children below, which are not the program's.
            rss_mb = peak_rss_mb()
            imports = fresh_imports(run.speed)
            metrics = end_to_end(
                run, setup_seconds(imports, setup_timings, run.speed.reference), rss_mb, plain)
            wall_figures = wall_clock(
                run, setup_seconds(imports, setup_timings, attrgetter("wall_s")), plain)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.speed.release()
        shutil.rmtree(run.work, ignore_errors=True)

    correct = not run.failures
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(),
        "sizes": {"users": run.users_n, "attacked_vaults": run.vaults_n,
                  "budget": run.budget, "passes": len(plain),
                  "traced_passes": len(traced_passes),
                  "setup_generate_wall_s": [t.wall_s for t in setup_timings],
                  "pass_wall_s": [p.wall_s for p in plain],
                  "traced_pass_wall_s": [p.wall_s for p in traced_passes]},
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "outcomes": run.outcomes,
        "failures": run.failures[:50],
        "outcome_examples": run.outcome_log,
        "metrics": {name: {"value": m[0], "unit": m[1], "samples": m[2],
                           **({"basis": m[3]} if len(m) > 3 else {})}
                    for name, m in metrics.items()},
        "speed_probe": {"ref_s": REF_S, "probes": len(run.speed.fastest)},
    }
    if tracer is None:
        record["wall_clock"] = wall_figures
        record["sizes"]["setup_import_wall_s"] = [t.wall_s for t in imports]
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        import numpy as np

        np.savez_compressed(RESULTS_DIR / f"{stem}-spans.npz", **tracer.spans())

    for name, m in record["metrics"].items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"{wl.name} checks: {run.checks}; failed {run.failed}/{run.attempted};"
          f" explained results other than the true secret: {run.outcomes}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items() if name not in NOT_GATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
