"""Genuine verifier: geometric matching of a fresh template against vault
coordinates, then polynomial recovery by threshold consensus or
CRC-confirmed interpolation.

Templates are assumed pre-aligned to the vault frame.  Matching is greedy
global-nearest: repeatedly take the closest (record, minutia) pair within
tolerance tau and remove both; with integer pixel coordinates and a fixed
tie order this is fully deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coding import Secret, try_decode
from .coding import coeffs_pass_crc  # noqa: F401  perfbench/tracer.py patches this name
from .consensus import VaultIndex, search_pool, stop_rule
from .geometry import squared_distances
from .quiz import recover_index
from .simulate import Minutia, Template
from .vault import Vault

DEFAULT_BUDGET = 10_000
PARALLEL_CHUNK_CANDIDATES = 64


@dataclass(frozen=True)
class UnlockingSet:
    """Vault records matched one-to-one to template minutiae within tau."""

    pairs: tuple[tuple[int, Minutia], ...]  # (record index, matched minutia)
    tau: float

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class UnlockResult:
    success: bool
    secret: Secret | None
    coeffs: tuple[int, ...] | None
    candidates: int
    interpolations: int
    elapsed_s: float
    seed: int | None


def build_unlocking_set(vault: Vault, template: Template, tau: float) -> UnlockingSet:
    """Greedy nearest-pair matching with distance <= tau.  Ties break on
    (distance, record index, minutia index), so the result is deterministic."""
    if not tau >= 0:
        raise ValueError(f"match tolerance tau={tau} is not a number >= 0")
    d2 = squared_distances(np.array((vault.x, vault.y), dtype=np.float64).T,
                           [(m.x, m.y) for m in template.minutiae])
    ris, mis = np.nonzero(d2 <= tau * tau)
    order = np.lexsort((mis, ris, d2[ris, mis]))
    used_r: set[int] = set()
    used_m: set[int] = set()
    pairs = []
    for ri, mi in zip(ris[order].tolist(), mis[order].tolist()):
        if ri in used_r or mi in used_m:
            continue
        used_r.add(ri)
        used_m.add(mi)
        pairs.append((ri, template.minutiae[mi]))
    pairs.sort()
    return UnlockingSet(tuple(pairs), tau)


def _candidate_points(vault: Vault, index: VaultIndex, uset: UnlockingSet) -> np.ndarray:
    """(X mod q, true ordinate) of the matched records, as a (2, len(uset))
    array.  In quiz mode the transform index is recovered from the matched
    minutia's orientation."""
    ris = np.array([ri for ri, _ in uset.pairs], dtype=np.intp)
    ys = index._y[ris]
    if vault.quiz_n:
        qp = vault.quiz_params()
        js = [recover_index(m.theta, beta, qp.n)
              for (_, m), beta in zip(uset.pairs, vault.beta[ris].tolist())]
        ys = (ys + np.array(js, dtype=np.int64) * qp.step) % qp.q
    return np.array((index._x[ris], ys))


def consensus_decode(
    vault: Vault,
    uset: UnlockingSet,
    mode: str = "threshold",
    D: int | None = None,
    bits: int | None = None,
    crc_encoded: bool | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> UnlockResult:
    """Iterate seeded-random k-subsets of the unlocking set until a candidate
    is accepted or the budget runs out; the result is the same for any
    worker count (``consensus.search_pool``).

    Threshold mode accepts when >= D vault records (vault-wide, not just the
    unlocking set) lie on the candidate's graph; default D = k+3.  CRC mode
    accepts when the candidate decodes with a valid checksum and has those
    D hits too, and needs the secret bit length.  ``crc_encoded`` tells the
    decoder whether the vault polynomial carries a CRC coefficient
    (defaults to mode == "crc").
    A failure result signals insufficient overlap, not corruption.
    """
    rule = stop_rule(vault, mode, D, bits)
    if budget < 0:
        raise ValueError(f"budget={budget} is negative")
    if crc_encoded is None:
        crc_encoded = mode == "crc"

    start = time.perf_counter()
    index = VaultIndex(vault)
    points = _candidate_points(vault, index, uset)
    coeffs, candidates, interps, _ = search_pool(
        index, points, budget, PARALLEL_CHUNK_CANDIDATES, f"{seed}/unlock-chunk", workers, **rule
    )

    secret = None if coeffs is None else try_decode(coeffs, bits, crc_encoded)
    return UnlockResult(coeffs is not None, secret, coeffs, candidates, interps,
                        time.perf_counter() - start, seed)


def unlock(
    vault: Vault,
    template: Template,
    mode: str = "threshold",
    D: int | None = None,
    bits: int | None = None,
    crc_encoded: bool | None = None,
    tau: float | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> UnlockResult:
    """Full verifier path: match, then decode.  Default tau = d/2 ties the
    match radius to the chaff minimum distance."""
    if tau is None:
        tau = vault.d / 2.0
    uset = build_unlocking_set(vault, template, tau)
    return consensus_decode(
        vault, uset, mode=mode, D=D, bits=bits, crc_encoded=crc_encoded,
        budget=budget, seed=seed, workers=workers,
    )


def result_to_dict(result: UnlockResult) -> dict:
    """Fixed-order report; wall time goes to the log stream, not the file."""
    out: dict = {"success": result.success}
    if result.secret is not None:
        out["secret_hex"] = result.secret.hex
    out["candidates"] = result.candidates
    out["interpolations"] = result.interpolations
    out["seed"] = result.seed
    return out
