"""Candidate search shared by the genuine verifier and the attacker.

Both sides draw k-subsets of a point list, interpolate a candidate through
each and count the vault records on its graph (threshold rule); the CRC rule
first checks its CRC coefficient and counts only for the rows that pass.
One search function and one parallel runner serve both.  Each block of
subsets, up to a 512-row chunk, is interpolated in one numpy call (Lagrange
form) and scanned against the vault in slices of a few hundred rows, up to
the first slice that accepts.  The Lagrange combine and the scan against
the powers X**j mod q are each one float64 matrix product, exact below
2**53 with as many limbs as (q, k) need, one for every preset
(``matmul_mod``).  Subsets come from one stream of seeded chunks, each an
(m, k) index array, and the first accepted row in stream order wins, so
results depend neither on the block or slice sizes nor on the worker
count.  The verifier's chunk 0 is cut into blocks of 1, 2, 4, 8, 16 and 33
subsets, since its first candidate is usually accepted; every other chunk
is one block.  With more than
one worker the calling process searches chunks beside forked helper
processes, which claim chunk numbers from a shared counter and send their
results back over pipes.

For quiz vaults the graph test is "any transform index matches": a record
(X, Y) counts as a hit when (g(X) - Y) mod q is one of the n transform
offsets.  Neither the attacker nor the verifier can know j for records they
did not match to a minutia.  A search over the vault's own records sweeps
all n**k assignments of offsets to a subset's ordinates.  Interpolation is
linear in the ordinates, so each subset's k Lagrange basis polynomials,
interpolated once, give the coefficients of all n**k candidates by
broadcast sums, and those rows go through the rule and the scan like any
other block's.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import signal
from functools import partial
from multiprocessing.connection import wait

import numpy as np

from .coding import capacity_bits, rows_pass_crc
from .quiz import transform_offsets
from .vault import Vault, coord_shift

# Bound on a vault scan's (rows, r) values (128 KiB), and on rows x n**k x
# k*k for a quiz sweep's batch of rows subsets (28 at k = 3, n = 4), since
# the CRC predicate checks a batch's candidates before any scan.  At clancy
# a 256-row scan ran ~6x slower per row under BLAS threads.
BATCH_ELEMENTS = 2**14
# Bound on rows x k*k for one interpolation, whose largest array is its
# (rows, k, k) float64 basis: 1 MiB at the bound.  Below a few hundred rows an
# interpolation costs its ~150 numpy calls more than its arithmetic, so a
# 512-row block is one call at every preset (100,352 elements at k = 14),
# while a vault file with k near r still interpolates a few rows at a time.
INTERPOLATE_ELEMENTS = 2**17
# Arrays up to this size are inverted with Python integers (the crossover
# with numpy, measured at q = 65537 and 2**31 - 1 with one pow per element).
SMALL_INVERSE = 64
# Arrays up to this size are reduced mod q by numpy's %, larger ones by
# floor division (``_reduce``).  Measured at q = 65537 and 2**31 - 1, %
# costs about 3.3 ns per element and floor division about 1.5, but floor
# division's three calls cost about 1 us more per array; the two meet near
# 512 elements.
SMALL_REDUCE = 512
# Largest q whose inverses come from a per-process table (1 MiB at most).
# It covers q = 65537, the modulus of every preset; vault files allow q up
# to 2**31, where the Fermat loop stays.
INVERSE_TABLE_Q = 2**17
# Bound on n**k * max(r, k*k) for one subset's quiz sweep; the attack refuses
# a larger sweep before searching.  A subset's (n**k, k) int64 candidate
# coefficients are then at most 128 MiB.
SWEEP_ELEMENTS = 2**24
# Bound on the budget of any search, in subsets, explicit or default: ten
# times uludag's default threshold budget (20 * C(200,8)/C(25,8), about
# 1.02e9), about nine hours at its 3.3 us per trial on one core, while
# clancy's default (about 1.5e15) is refused before a chunk is drawn.
SEARCH_LIMIT = 10**10
# The caller's bound on taking the lock of the shared chunk counter.
CLAIM_TIMEOUT_S = 10.0


class VaultIndex:
    """Per-record data for candidate-vs-vault scans: abscissae X = x || y,
    reduced mod q, and stored ordinates Y.  Two records with the same X mod q
    make interpolation through them undefined, so such a vault is rejected."""

    def __init__(self, vault: Vault):
        self.q = vault.q
        self.k = vault.k
        self._x = _reduce(vault.x << coord_shift(vault.q) | vault.y, self.q)
        self._y = vault.Y
        self.r = len(self._x)
        if len(set(self._x.tolist())) < self.r:
            raise ValueError("two vault records share an abscissa X = x || y mod q")
        self._ones = np.ones(self.r)  # per-row hit counts as one BLAS product
        if vault.quiz_n:
            self.offsets = transform_offsets(vault.quiz_params())
            self._step = vault.quiz_params().step
        else:
            self.offsets = None
        self._powers: dict[int, np.ndarray] = {}

    def hits(self, coeffs: np.ndarray) -> np.ndarray:
        """Vault records on each row's graph (any-index match for quiz
        vaults), as exact float64 counts, for a (rows, width) array of
        reduced coefficients.  A quiz record counts when (g(X) - Y) mod q is
        a transform offset m * step, m < n: the residue over step, rounded
        to the nearest integer m, is exact for a multiple of step (float64
        holds both below 2**31), and no other residue equals m * step, so
        the test is exact with no table of q entries."""
        width = coeffs.shape[1]
        if width not in self._powers:
            powers = np.ones((width, self.r), dtype=np.int64)
            for j in range(1, width):
                powers[j] = _reduce(powers[j - 1] * self._x, self.q)
            self._powers[width] = powers.astype(np.float64)
        vals = matmul_mod(coeffs, self._powers[width], self.q)
        if self.offsets is None:
            return (vals == self._y) @ self._ones
        vals -= self._y
        vals += (vals < 0) * float(self.q)
        m = np.rint(vals * (1 / self._step))
        hit = m * self._step == vals
        hit &= m < len(self.offsets)
        return hit @ self._ones

    def count_hits(self, coeffs) -> int:
        """Number of vault records on the candidate's graph (any-index match
        for quiz vaults).  Records used to build the candidate count too."""
        row = _reduce(np.array(coeffs, dtype=np.int64).reshape(1, -1), self.q)
        return int(self.hits(row)[0])


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q as float64, for int64 ``a`` and float64 ``b`` in
    [0, q).  ``a`` is split into limbs of the widest width w with
    (k+1) * 2**w * q < 2**53, k = a.shape[-1], folded high limb first, so
    every sum is an integer below 2**53 - q and float64 holds it exactly."""
    width = ((2**53 - 1) // ((a.shape[-1] + 1) * q)).bit_length() - 1
    out = None
    for shift in range(((q - 1).bit_length() - 1) // width * width, -1, -width):
        v = ((a >> shift) & ((1 << width) - 1)).astype(np.float64) @ b
        if out is not None:
            v += out * 2.0**width
        v -= np.floor(v * (1 / q)) * q  # the float quotient is off by at most one
        np.add(v, q, out=v, where=v < 0)
        np.subtract(v, q, out=v, where=v >= q)
        out = v
    return out


def _primitive_root(q: int) -> int:
    """Least generator of the multiplicative group mod the prime q."""
    factors, m, p = [], q - 1, 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(1, q) if all(pow(g, (q - 1) // p, q) != 1 for p in factors))


@functools.cache
def _inverse_table(q: int) -> np.ndarray:
    """Read-only array whose entry a is the inverse of a mod q, a != 0.  The
    powers g**i of a primitive root g run over every nonzero residue, and
    the inverse of g**i is g**(q-1-i).  Doubling builds them in about log2(q)
    numpy passes and q products (about 2 ms at q = 65537)."""
    g = _primitive_root(q)
    powers = np.ones(q - 1, dtype=np.int64)
    n = 1
    while n < q - 1:
        m = min(n, q - 1 - n)
        np.multiply(powers[:m], pow(g, n, q), out=powers[n:n + m])
        _reduce(powers[n:n + m], q)
        n += m
    table = np.zeros(q, dtype=np.int64)
    table[1] = 1
    table[powers[1:]] = powers[:0:-1]
    table.flags.writeable = False
    return table


def _inverse(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise inverse mod q of nonzero a in [0, q).  Arrays of at most
    SMALL_INVERSE elements take one Python pow of their product and two
    passes of Python products (Montgomery's batch trick).  Larger ones are
    looked up in ``_inverse_table`` when q <= INVERSE_TABLE_Q; each process
    builds the table at its first such array (512 KiB at q = 65537).  Above
    the bound (vault files allow q < 2**31) a numpy loop raises a to q-2
    (Fermat), about 2*log2(q) passes whatever the size."""
    if a.size <= SMALL_INVERSE:
        vals = a.ravel().tolist()
        prefix = list(itertools.accumulate(vals, lambda p, v: p * v % q, initial=1))
        inv = pow(prefix.pop(), q - 2, q)  # of the whole product
        for i in range(len(vals) - 1, -1, -1):  # inv = 1 / (a_0 ... a_i) here
            inv, prefix[i] = inv * vals[i] % q, inv * prefix[i] % q
        return np.array(prefix, dtype=np.int64).reshape(a.shape)
    if q <= INVERSE_TABLE_Q:
        return _inverse_table(q).take(a)
    out = np.ones_like(a)
    base = a.copy()
    e = q - 2
    while e:
        if e & 1:
            out *= base
            _reduce(out, q)
        e >>= 1
        if e:
            base *= base
            _reduce(base, q)
    return out


def _reduce(v: np.ndarray, q: int) -> np.ndarray:
    """Reduce the int64 array v mod q in place, into [0, q), and return it:
    by % up to SMALL_REDUCE elements, above by v -= v // q * q, since numpy
    divides by a scalar with a precomputed multiplier."""
    if v.size <= SMALL_REDUCE:
        v %= q
    else:
        v -= v // q * q
    return v


def interpolate(xs: np.ndarray, ys: np.ndarray, q: int) -> np.ndarray:
    """Coefficients (rows, sets, k), constant first, of the polynomials
    through the points (xs[b], ys[b, a]) for each row b of ``xs`` (rows, k),
    distinct values in [0, q), and each ordinate set a of ``ys``
    (rows, sets, k) in [0, q), or an array that broadcasts to it: the (k, k)
    identity gives each row's Lagrange basis.  Lagrange form, with
    1/denominator folded into the ordinates: coefficient j of row b, set a
    is the sum over i of ys[b, a, i] / prod_{m != i} (x_i - x_m) times the
    X**j coefficient of prod_{m != i} (X - x_m)."""
    rows, k = xs.shape
    top = 2**63 - 1
    # master polynomial prod_j (X - x_j), monic, constant first: multiply by
    # X + a_j with a_j = q - x_j <= q, one factor at a time.  ``most`` bounds
    # the entries of root, and a step takes it to most * (q + 1), so root is
    # reduced only before a step that could pass 2**63 - 1: every other step
    # at q = 65537, every step at q = 2**31 - 1.
    root = np.zeros((rows, k + 1), dtype=np.int64)
    root[:, 0] = 1
    most = 1
    for a in (q - xs).T[:, :, None]:
        if most * (q + 1) > top:
            _reduce(root, q)
            most = q - 1
        nxt = root * a
        nxt[:, 1:] += root[:, :-1]
        root = nxt
        most *= q + 1
    if (q - 1) ** 2 + most > top:
        _reduce(root, q)
    # numerators root / (X - x_i) by synthetic division, all i at once, top
    # coefficient first: basis[b, i, j] is the X**j coefficient of row b's
    # i-th numerator.  Horner's rule over the same coefficients gives each
    # numerator at its own x_i, the denominator prod_{m != i} (x_i - x_m).
    # A numerator step stays below (q-1)**2 plus root's bound, and each is
    # reduced, since the basis holds residues; a denominator step takes its
    # bound d to (d + 1) * (q - 1), so the denominators are reduced only
    # before a step that could pass 2**63 - 1.  The basis is the only
    # (rows, k, k) array, since the allocator hands arrays this large back
    # to the system when freed: two more cost a 512-row block at k = 14
    # about 670 page faults per call.
    basis = np.empty((rows, k, k))
    basis[:, :, k - 1] = 1
    numer = np.ones((rows, k), dtype=np.int64)
    denom = np.ones((rows, k), dtype=np.int64)
    most = 1
    for j in range(k - 1, 0, -1):
        numer *= xs
        numer += root[:, j, None]
        basis[:, :, j - 1] = _reduce(numer, q)
        if (most + 1) * (q - 1) > top:
            _reduce(denom, q)
            most = q - 1
        denom *= xs
        denom += numer
        most = (most + 1) * (q - 1)
    weights = _reduce(ys * _inverse(_reduce(denom, q), q)[:, None, :], q)
    return matmul_mod(weights, basis, q).astype(np.int64)


def stop_rule(vault: Vault, mode: str, D: int | None, bits: int | None) -> dict:
    """The ``search`` keywords of a stop rule.  Both rules accept a candidate
    only with >= D vault records on its graph (default D = k+3, at most r).
    "threshold" needs nothing more; "crc" also needs the candidate to pass
    ``rows_pass_crc``, and the secret bit length, 1 <= bits <= 16*(k-1).
    A random candidate passes CRC-16 with probability 2**-16, so without
    the hits a long CRC search stops on a wrong secret long before the true
    one; the true polynomial has t >= D hits, so it still passes."""
    if mode not in ("threshold", "crc"):
        raise ValueError(f"unknown stop rule: {mode!r}")
    if D is None:
        D = vault.k + 3
    if D > vault.r:
        raise ValueError(f"threshold D={D} exceeds vault size r={vault.r}")
    if mode == "threshold":
        return dict(D=D, crc=None)
    if bits is None:
        raise ValueError("crc mode needs the secret bit length")
    most = capacity_bits(vault.k, True)
    if not 1 <= bits <= most:
        raise ValueError(f"crc mode carries 1 to {most} secret bits at k={vault.k}, "
                         f"not bits={bits}")
    return dict(D=D, crc=partial(rows_pass_crc, bits=bits))


def check_budget(budget: int) -> None:
    """Refuse a negative budget, or one past SEARCH_LIMIT."""
    if budget < 0:
        raise ValueError(f"budget={budget} is negative")
    if budget > SEARCH_LIMIT:
        raise ValueError(f"budget={budget} is past the desk-scale bound of {SEARCH_LIMIT} "
                         "subsets (--budget)")


def search(index: VaultIndex, points, blocks, D: int, crc=None):
    """Try the k-subsets of ``points`` in ``blocks``, an iterable of (m, k)
    intp arrays of point indices, in order until one yields an accepted
    candidate or they run out.  Returns (coeffs or None, interpolations).

    ``points``: (xs, ys) int64 arrays, xs distinct and reduced mod q, of
    matched points with their true ordinates, or None for the vault's own
    records.  A quiz vault's stored ordinates hide their transform index,
    so a subset of its own records is tried under all n**k assignments of
    transform offsets, in itertools.product order (the caller bounds n**k
    by SWEEP_ELEMENTS), each a candidate row; matched points carry the
    recovered index.  The rule is the threshold D on vault hits; when
    ``crc`` is given, a row must first pass the predicate ``crc(coeffs)``
    over the (rows, k) coefficient array, and only the rows that pass
    (about one in 65,536) are scanned for their hits.  Each block is
    interpolated in one call, a block of more than
    INTERPOLATE_ELEMENTS // k**2 subsets (BATCH_ELEMENTS // (n**k * k**2)
    on a sweep) in several, and its candidate rows, or under the CRC rule
    its passing rows, are scanned in order in slices of BATCH_ELEMENTS // r,
    up to the first slice that accepts; rows built past the accepted one
    are not counted.
    """
    q, k = index.q, index.k
    sweep = points is None and index.offsets is not None
    xs, ys = (index._x, index._y) if points is None else points
    offsets = np.array(index.offsets if sweep else (0,), dtype=np.int64)
    bound = BATCH_ELEMENTS if sweep else INTERPOLATE_ELEMENTS
    cap = max(1, bound // (len(offsets) ** k * k * k))
    scan = max(1, BATCH_ELEMENTS // index.r)
    interps = 0
    for sub in (block[lo:lo + cap] for block in blocks for lo in range(0, len(block), cap)):
        if sweep:
            # under assignment a a subset's candidate is the sum over i of
            # (y_i + offset[a_i]) * L_i, with L_i its Lagrange basis
            basis = interpolate(xs[sub], np.eye(k, dtype=np.int64), q)
            ords = _reduce(ys[sub][:, :, None] + offsets, q)
            coeffs = _reduce(_assignment_sums(ords, basis, q).reshape(-1, k), q)
        else:
            coeffs = interpolate(xs[sub], ys[sub][:, None, :], q).reshape(-1, k)
        rows = np.flatnonzero(crc(coeffs)) if crc is not None else np.arange(len(coeffs))
        for lo in range(0, len(rows), scan):
            part = rows[lo:lo + scan]
            ok = np.flatnonzero(index.hits(coeffs[part]) >= D)
            if len(ok):
                row = int(part[ok[0]])
                return tuple(coeffs[row].tolist()), interps + row + 1
        interps += len(coeffs)
    return None, interps


def _assignment_sums(ords: np.ndarray, tables: np.ndarray, q: int) -> np.ndarray:
    """sum_i ords[b, i, a_i] * tables[b, i] for every assignment a in
    range(n)**k, in itertools.product order: (rows, n**k, width) for
    ``ords`` (rows, k, n) and ``tables`` (rows, k, width), both in [0, q).
    Each product is below q**2 < 2**62 and reduced; the sums of k residues
    are left unreduced."""
    rows, k, width = tables.shape
    prod = _reduce(ords[..., None] * tables[:, :, None, :], q)
    out = prod[:, 0]
    for i in range(1, k):
        out = (out[:, :, None] + prod[:, i, None]).reshape(rows, -1, width)
    return out


def _chunk_subsets(n: int, k: int, label: str, chunk: int, budget: int, chunks: range):
    """The k-subsets of range(n) drawn by the chunks numbered ``chunks``, as
    one C-ordered (m, k) intp array per chunk: the first min(chunk, budget -
    i * chunk) rows of chunk i's full draw, so a smaller budget's stream is
    a prefix of a larger one's.  Chunk i draws once from a PCG64 generator
    seeded with the SHA-256 of f"{label}{i}", all rows at once by Floyd's
    algorithm (Bentley & Floyd, CACM 1987): column c is uniform on
    [0, n-k+c] and takes n-k+c where it repeats an earlier column, so every
    k-subset is equally likely."""
    for i in chunks:
        seed = int.from_bytes(hashlib.sha256(f"{label}{i}".encode()).digest(), "little")
        draw = np.random.Generator(np.random.PCG64(seed)).integers(
            0, np.arange(n - k + 1, n + 1)[:, None], size=(k, chunk))
        for c in range(1, k):
            draw[c][(draw[:c] == draw[c]).any(axis=0)] = n - k + c
        yield np.ascontiguousarray(draw[:, :min(chunk, budget - i * chunk)].T, dtype=np.intp)


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_blocks(points, stream: tuple, chunks: range):
    """The blocks of ``chunks`` of the ``_chunk_subsets`` stream.  Given
    matched ``points``, the verifier's, chunk 0 is handed over as slices of
    1, 2, 4, ... rows, the last one taking the tail (1, 2, 4, 8, 16, 33 of
    64), since its first candidate is usually accepted; every other chunk,
    and every chunk of the attacker, is one block."""
    blocks = _chunk_subsets(*stream, chunks)
    if points is None or chunks.start or not chunks:
        return blocks
    first = next(blocks)
    cuts = [(1 << j) - 1 for j in range(1, (len(first) + 1).bit_length() - 1)]
    return itertools.chain(np.split(first, cuts), blocks)


def _run_chunk(index: VaultIndex, points, stream: tuple, rule: dict, i: int):
    """``search`` over chunk ``i`` of the ``_chunk_subsets`` stream."""
    return search(index, points, _chunk_blocks(points, stream, range(i, i + 1)), **rule)


def _next_chunk(state, i: int | None = None, res=None, timeout: float | None = None):
    """Claim the next chunk number below end, or None, from ``state``, a
    shared (next, end) pair whose end starts at the chunk count; a result
    ``res`` of chunk ``i`` that succeeds first lowers end to i + 1, so no
    chunk past it is claimed.  A claim holds the lock for microseconds; one
    not taken within ``timeout`` seconds means a helper died holding it."""
    lock = state.get_lock()
    if not lock.acquire(timeout=timeout):
        raise RuntimeError("a search helper stopped while claiming a chunk")
    try:
        if res is not None and res[0] is not None:
            state[1] = min(state[1], i + 1)
        if state[0] >= state[1]:
            return None
        state[0] += 1
        return state[0] - 1
    finally:
        lock.release()


def _helper(conn, state, run) -> None:
    """A helper process: search chunks as it claims them and send back
    (chunk, result), then None when none is left.  Ctrl-C reaches the whole
    process group; the caller handles it and stops the helpers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    i = _next_chunk(state)
    while i is not None:
        res = run(i)
        conn.send((i, res))
        i = _next_chunk(state, i, res)
    conn.send(None)


def _start_helpers(workers: int, state, run):
    """Start the ``workers`` - 1 helpers of a search by ``workers`` processes,
    the caller being one; yields each one's process and the read end of its
    pipe.  Under fork a helper inherits ``run`` and the caches built so far
    (``_inverse_table``); under spawn ``run`` is pickled and the caches are
    built again."""
    for _ in range(workers - 1):
        conn, child = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(target=_helper, args=(child, state, run), daemon=True)
        proc.start()
        child.close()
        yield proc, conn


def search_pool(index: VaultIndex, points, budget: int, chunk: int, label: str, workers: int,
                **rule):
    """``search`` (keywords ``rule``) over the ``_chunk_subsets`` stream of
    ``budget`` subsets by min(workers, chunks, usable CPUs) processes, the
    caller among them; at one or fewer the chunks run chained in one search,
    in process, and no helper starts.  Each process claims the next chunk
    number from a shared counter, none past a chunk known to succeed.  The
    caller reads results in chunk order, summing counters, until the first
    that succeeds: that chunk holds the first accepted subset of the
    stream, so the result does not depend on the worker count or on timing.
    The caller searches whenever the next chunk in order is not ready and
    a chunk is left to claim, and waits only otherwise.  Every helper is
    stopped before the call returns or raises.  Fewer than k points give an
    empty stream.  Returns (coeffs or None, interpolations), summed over
    the chunks read."""
    if workers < 1:
        raise ValueError(f"workers={workers} is below 1")
    stream = (index.r if points is None else len(points[0]), index.k, label, chunk, budget)
    n_chunks = math.ceil(budget / chunk) if stream[0] >= index.k else 0
    workers = min(workers, n_chunks, usable_cpus())
    if workers <= 1:
        return search(index, points, _chunk_blocks(points, stream, range(n_chunks)), **rule)
    run = partial(_run_chunk, index, points, stream, rule)
    state = multiprocessing.Array("q", [1, n_chunks])  # chunk 0 is the caller's
    results, conns, procs = {}, [], []
    mine = done = interps = 0
    try:
        for proc, conn in _start_helpers(workers, state, run):
            procs.append(proc)
            conns.append(conn)
        while True:
            res = None
            if mine is not None:
                results[mine] = res = run(mine)
            for conn in wait(conns, None if mine is None else 0):
                if (got := conn.recv()) is None:  # the helper has no chunk left
                    conns.remove(conn)
                    conn.close()
                else:
                    results[got[0]] = got[1]
            while done in results:
                found, used = results.pop(done)
                interps += used
                done += 1
                if found is not None or done == n_chunks:
                    return found, interps
            mine = _next_chunk(state, mine, res, CLAIM_TIMEOUT_S)
    except EOFError:
        raise RuntimeError("a search helper exited before returning its chunks") from None
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
