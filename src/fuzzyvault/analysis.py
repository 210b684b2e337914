"""Closed-form attack-cost calculators and parameter sweeps.

Every binomial ratio is evaluated in exact arbitrary-precision integer
arithmetic; base-2 logs of big integers go through a shift-and-float path
with ~1e-15 relative error regardless of magnitude (C(313, 156) overflows a
double, let alone a machine word).

Cost figures, all in bits (log2):

* trials_exact    log2(C(r,k)/C(t,k)) -- expected k-subset draws until an
                  all-genuine subset, exact.
* trials_approx   k*log2(r/t) -- the standard approximation; always a lower
                  bound of the exact value for r > t, k >= 2.
* R_bound         log2(8*r*k) + k*log2(r/t) -- operation-count bound for
                  the full brute-force attack.
* Cbf             log2(C(r,D)/C(t,D)) -- cost of the threshold-D criterion.
* spurious bound  log2((mu/3) * q**(k-t) * (r/t)**t) -- guaranteed number of
                  polynomials hitting >= t vault points (may be negative,
                  i.e. vacuous).
* F               attacker bits minus genuine-verifier bits, where the
                  genuine verifier costs 1 + r/K interpolation-equivalents
                  with K = 6.5*log2(k)**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .field import DEFAULT_Q

CSV_HEADER = (
    "r,t,k,D,q,quiz_n,log2_trials_exact,log2_trials_approx,log2_R_bound,"
    "log2_Cbf,log2_lemma1,log2_F,empirical_mean_trials,empirical_runs"
)


def log2_int(n: int) -> float:
    """log2 of a positive int of any size."""
    if n <= 0:
        raise ValueError("log2 of a non-positive integer")
    bl = n.bit_length()
    if bl <= 53:
        return math.log2(n)
    shift = bl - 53
    return shift + math.log2(n >> shift)


def log2_ratio(num: int, den: int) -> float:
    return log2_int(num) - log2_int(den)


def trial_odds(r: int, t: int, k: int) -> tuple[Fraction, float]:
    """Exact C(r,k)/C(t,k) as a rational, plus its log2."""
    if not 0 < k <= t <= r:
        raise ValueError(f"need 0 < k <= t <= r, got r={r}, t={t}, k={k}")
    num = math.comb(r, k)
    den = math.comb(t, k)
    return Fraction(num, den), log2_ratio(num, den)


def trials_approx_log2(r: int, t: int, k: int) -> float:
    """k*log2(r/t), the (r/t)**k approximation of the trial odds."""
    return k * math.log2(Fraction(r, t))


def trial_estimate_log2(r: int, t: int, k: int) -> float:
    """log2 of the 1.1*(r/t)**k trial estimate."""
    return math.log2(1.1) + trials_approx_log2(r, t, k)


def attack_work_log2(r: int, t: int, k: int) -> float:
    """log2 of the full brute-force operation bound 8*r*k*(r/t)**k.

    t == r is allowed (pure overhead term log2(8rk))."""
    if not 1 <= k <= t <= r:
        raise ValueError(f"need 1 <= k <= t <= r, got r={r}, t={t}, k={k}")
    return math.log2(8 * r * k) + trials_approx_log2(r, t, k)


def threshold_work_log2(r: int, t: int, D: int) -> float:
    """log2 of C(r,D)/C(t,D), the threshold-D identification cost."""
    if not 0 <= D <= t <= r:
        raise ValueError(f"need 0 <= D <= t <= r, got r={r}, t={t}, D={D}")
    return log2_ratio(math.comb(r, D), math.comb(t, D))


def spurious_count_log2(q: int, r: int, t: int, k: int, mu: float = 1.0) -> float:
    """log2 of (mu/3) * q**(k-t) * (r/t)**t, the guaranteed spurious
    polynomial count.  mu may be 1, the supremum of the open bound."""
    if not 0 < mu <= 1:
        raise ValueError("mu must lie in (0, 1]")
    if not 0 < t <= r or k < 1:
        raise ValueError(f"need 0 < t <= r and k >= 1, got r={r}, t={t}, k={k}")
    return math.log2(mu / 3) + (k - t) * math.log2(q) + t * math.log2(Fraction(r, t))


def interpolation_unit(k: int) -> float:
    """K = 6.5*log2(k)**2: graph checks amortized per interpolation."""
    return 6.5 * math.log2(max(k, 2)) ** 2


def genuine_work_log2(r: int, k: int) -> float:
    """Expected noiseless verifier cost in interpolation-equivalents:
    one interpolation plus a vault scan worth r/K interpolations."""
    return math.log2(1.0 + r / interpolation_unit(k))


def security_factor_log2(attack_log2: float, r: int, k: int) -> float:
    """log2 F = attacker bits - genuine verifier bits."""
    return attack_log2 - genuine_work_log2(r, k)


@dataclass(frozen=True)
class ComplexityEstimate:
    r: int
    t: int
    k: int
    D: int
    q: int
    quiz_n: int
    mu: float
    log2_trials_exact: float
    log2_trials_approx: float
    log2_R_bound: float
    log2_Cbf: float
    log2_lemma1: float
    log2_F: float
    empirical_mean_trials: float | None = None
    empirical_runs: int = 0


def estimate(
    r: int,
    t: int,
    k: int,
    D: int | None = None,
    q: int = DEFAULT_Q,
    quiz_n: int = 0,
    mu: float = 1.0,
) -> ComplexityEstimate:
    """One analytic row.  D defaults to min(k+3, t).  A quiz multiplies the
    attacker's candidate evaluations by quiz_n**k, so R_bound and F gain
    k*log2(quiz_n) bits; the subset-trial columns are left untouched."""
    if D is None:
        D = min(k + 3, t)
    _, exact = trial_odds(r, t, k)
    quiz_bits = k * math.log2(quiz_n) if quiz_n >= 2 else 0.0
    r_bound = attack_work_log2(r, t, k) + quiz_bits
    return ComplexityEstimate(
        r=r,
        t=t,
        k=k,
        D=D,
        q=q,
        quiz_n=quiz_n,
        mu=mu,
        log2_trials_exact=exact,
        log2_trials_approx=trials_approx_log2(r, t, k),
        log2_R_bound=r_bound,
        log2_Cbf=threshold_work_log2(r, t, D),
        log2_lemma1=spurious_count_log2(q, r, t, k, mu),
        log2_F=security_factor_log2(r_bound, r, k),
    )


def _run_empirical(est: ComplexityEstimate, runs: int, seed: int, workers: int) -> float | None:
    """Scaled-down Monte Carlo column: attack a synthetic vault at the row's
    parameters and average the trial counts.  Skipped when the row is not
    desk-scale."""
    exact = 2.0**est.log2_trials_exact
    if est.q != DEFAULT_Q or exact > 1e5 or est.r > 300 or est.t > 60:
        return None
    from .attack import brute_force_attack
    from .simulate import gen_template
    from .vault import VaultParams, lock_polynomial
    from .field import PrimeField
    from .seeds import substream

    params = VaultParams(k=est.k, t=est.t, r=est.r, q=est.q, d=11.0, quiz_n=est.quiz_n)
    field = PrimeField(est.q)
    total = 0
    for i in range(runs):
        rng = substream(seed, f"sweep-vault{i}")
        template = gen_template(est.t, d_min=11.0, seed=rng)
        coeffs = field.random_polynomial(est.k, rng)
        vault, _ = lock_polynomial(template, coeffs, params, seed=seed + i)
        report = brute_force_attack(
            vault,
            D=est.D,
            budget=max(1000, int(50 * exact)),
            workers=workers,
            seed=seed + i,
        )
        total += report.trials
    return total / runs


def sweep(
    rows,
    empirical_runs: int = 0,
    seed: int = 0,
    workers: int = 1,
) -> list[ComplexityEstimate]:
    """Evaluate a grid of parameter dicts (keys as in estimate())."""
    if empirical_runs < 0:
        raise ValueError(f"empirical_runs={empirical_runs} is negative")
    if workers < 1:
        raise ValueError(f"workers={workers} is below 1")
    out = []
    for row in rows:
        est = estimate(**row)
        if empirical_runs:
            mean = _run_empirical(est, empirical_runs, seed, workers)
            if mean is not None:
                est = replace(est, empirical_mean_trials=mean, empirical_runs=empirical_runs)
        out.append(est)
    return out


def to_csv(estimates) -> str:
    lines = [CSV_HEADER]
    for e in estimates:
        mean = "" if e.empirical_mean_trials is None else f"{e.empirical_mean_trials:.2f}"
        lines.append(
            f"{e.r},{e.t},{e.k},{e.D},{e.q},{e.quiz_n},"
            f"{e.log2_trials_exact:.6f},{e.log2_trials_approx:.6f},"
            f"{e.log2_R_bound:.6f},{e.log2_Cbf:.6f},{e.log2_lemma1:.6f},"
            f"{e.log2_F:.6f},{mean},{e.empirical_runs}"
        )
    return "\n".join(lines) + "\n"
