"""Brute-force vault attack, exhaustive spurious-polynomial counting, and
the multi-vault coordinate correlation attack.

The brute forcer never sees ground truth: it repeatedly draws a uniform
random k-subset of vault records (with replacement across trials, so the
expected trial count is exactly C(r,k)/C(t,k)), interpolates a candidate
polynomial, scans the vault for further graph hits and accepts once D
records lie on the graph (threshold rule), or once the CRC coefficient
checks out and D records lie on the graph (CRC rule).  For quiz vaults
every subset is tried under all n**k transform-index assignments.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .coding import Secret, try_decode
from .coding import coeffs_pass_crc  # noqa: F401  perfbench/tracer.py patches this name
from .consensus import SWEEP_ELEMENTS, VaultIndex, check_budget, search, search_pool, stop_rule
from .geometry import squared_distances
from .seeds import substream  # noqa: F401  perfbench/tracer.py patches this name
from .vault import Vault

EXHAUSTIVE_LIMIT = 10**7
PARALLEL_CHUNK_TRIALS = 512


@dataclass(frozen=True)
class AttackReport:
    success: bool
    coeffs: tuple[int, ...] | None
    secret: Secret | None
    trials: int
    interpolations: int
    point_checks: int
    elapsed_s: float
    seed: int


def default_budget(r: int, t: int, k: int) -> int:
    """20x the expected trial count: failure odds under the geometric model
    are below (1 - 1/E)**(20 E) ~ e**-20.  The assumed t must lie in k..r."""
    if not k <= t <= r:
        raise ValueError(f"assumed genuine count t={t} is outside k..r = {k}..{r} (--assume-t)")
    expected = math.comb(r, k) / math.comb(t, k)
    return max(1, math.ceil(20 * expected))


def _canonical_quiz_candidate(index: VaultIndex, coeffs):
    """Resolve the shift ambiguity of any-index matching.

    Under the any-index graph test, the systematic near-misses of the true
    polynomial are its constant-coefficient shifts by s*step, |s| < n (an
    assignment uniformly off by s moves every interpolation target by the
    same amount).  A shifted variant collects about t*(n-|s|)/n hits while
    the true one collects all t, so report the first max-hits variant, the
    accepted candidate first.  Returns it with the point checks spent on the
    2n - 2 shifts.
    """
    q = index.q
    n = len(index.offsets)
    step = index.offsets[1] if n > 1 else 0
    shifts = [0] + [s for s in range(-(n - 1), n) if s != 0]
    rows = np.array([[(coeffs[0] + s * step) % q, *coeffs[1:]] for s in shifts], dtype=np.int64)
    best = int(np.argmax(index.hits(rows)))
    return tuple(rows[best].tolist()), (len(shifts) - 1) * (index.r - index.k)


def _combination_blocks(r: int, k: int, budget: int | None):
    """The first ``budget`` (all when None) k-subsets of range(r) in
    lexicographic order, as (m, k) intp blocks of PARALLEL_CHUNK_TRIALS rows."""
    rows = itertools.islice(itertools.combinations(range(r), k), budget)
    while block := list(itertools.islice(rows, PARALLEL_CHUNK_TRIALS)):
        yield np.array(block, dtype=np.intp)


def brute_force_attack(
    vault: Vault,
    mode: str = "threshold",
    D: int | None = None,
    bits: int | None = None,
    budget: int | None = None,
    t_assumed: int | None = None,
    workers: int = 1,
    seed: int = 0,
    exhaustive: bool = False,
) -> AttackReport:
    """Run the brute-force attack against an intercepted vault.

    ``mode``: "threshold" (accept at >= D graph hits, default D = k+3) or
    "crc" (accept when the candidate passes the CRC check and has >= D
    graph hits; needs ``bits``).
    ``budget`` defaults to 20x the expected trial count, which requires the
    attacker to assume a genuine count ``t_assumed`` in k..r; no budget may
    pass ``consensus.SEARCH_LIMIT``.  ``exhaustive``
    iterates k-subsets in lexicographic order instead of sampling (tiny
    instances only: without a budget it refuses more than EXHAUSTIVE_LIMIT
    subsets).  Either way the search runs at full batch from its first
    subset.  The report is bit-reproducible for a fixed seed and the same
    for any worker count (``consensus.search_pool``).
    """
    rule = stop_rule(vault, mode, D, bits)
    if budget is None and not exhaustive:
        if t_assumed is None:
            raise ValueError("provide a budget or an assumed genuine count t_assumed")
        budget = default_budget(vault.r, t_assumed, vault.k)
    if budget is not None:
        check_budget(budget)
    if exhaustive and budget is None and math.comb(vault.r, vault.k) > EXHAUSTIVE_LIMIT:
        raise ValueError(f"an exhaustive attack of C({vault.r},{vault.k}) subsets exceeds "
                         f"{EXHAUSTIVE_LIMIT} without a budget (--budget)")

    start = time.perf_counter()
    index = VaultIndex(vault)
    n, k = vault.quiz_n, vault.k
    if n and n**k * max(vault.r, k * k) > SWEEP_ELEMENTS:
        raise ValueError(f"quiz sweep of {n}**{k} assignments exceeds the memory bound")
    if exhaustive:
        coeffs, interps = search(index, None, _combination_blocks(vault.r, k, budget), **rule)
    else:
        coeffs, interps = search_pool(
            index, None, budget, PARALLEL_CHUNK_TRIALS, f"{seed}/attack-chunk", workers, **rule
        )
    # subsets with at least one candidate tried: only the last can stop mid-sweep
    trials = -(-interps // n**k) if n else interps
    checks = interps * (vault.r - k) if mode == "threshold" else 0
    if coeffs is not None and n and mode == "threshold":
        coeffs, extra = _canonical_quiz_candidate(index, coeffs)
        checks += extra

    secret = None if coeffs is None else try_decode(coeffs, bits, mode == "crc")
    return AttackReport(coeffs is not None, coeffs, secret, trials, interps, checks,
                        time.perf_counter() - start, seed)


def count_matching_polynomials(vault: Vault, t_hits: int, k: int | None = None) -> int:
    """Exhaustively count coefficient vectors of length k whose graph contains
    at least t_hits vault records.  Exact; refuses when q**k > 10**7.

    Enumeration is per record: for each record (X, Y) and each choice of the
    k-1 non-constant coefficients, the constant term is forced, so the work
    is r * q**(k-1) increments instead of q**k * r evaluations.
    """
    if k is None:
        k = vault.k
    q = vault.q
    if k < 1:
        raise ValueError("k must be >= 1")
    if q**k > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration limited to q**k <= {EXHAUSTIVE_LIMIT}")
    if t_hits <= 0:
        return q**k
    if t_hits > vault.r:
        return 0
    index = VaultIndex(vault)
    counts = array("H", bytes(2 * q**k))
    tails = q ** (k - 1)
    for x, y in zip(index._x.tolist(), index._y.tolist()):
        pows = [pow(x, j, q) for j in range(1, k)]
        for tail in range(tails):
            s = 0
            tval = tail
            for p in pows:
                s += (tval % q) * p
                tval //= q
            a0 = (y - s) % q
            counts[a0 + q * tail] += 1
    return sum(1 for c in counts if c >= t_hits)


def correlate_vaults(vaults: list[Vault], eps: float) -> list[tuple[int, int]]:
    """Coordinates of the first vault that have a point within eps in every
    other vault.  Against random chaff the genuine minutiae persist while
    chaff coincidences are rare; identical coordinate sets (shared hex
    lattices) neutralize the attack."""
    if not vaults:
        raise ValueError("need at least one vault")
    if not eps >= 0:
        raise ValueError(f"correlation radius eps={eps} is not a number >= 0")
    candidates = np.array((vaults[0].x, vaults[0].y)).T
    for other in vaults[1:]:
        d2 = squared_distances(candidates, np.array((other.x, other.y)).T)
        candidates = candidates[(d2 <= eps * eps).any(axis=1)]
    return list(map(tuple, candidates.tolist()))


def report_to_dict(report: AttackReport) -> dict:
    """Report fields in the fixed serialization order.  Wall time is not
    part of the file (byte-identical replays); the CLI logs it separately."""
    out: dict = {"success": report.success}
    if report.secret is not None:
        out["secret_hex"] = report.secret.hex
    out["trials"] = report.trials
    out["interpolations"] = report.interpolations
    out["point_checks"] = report.point_checks
    out["seed"] = report.seed
    return out
