"""The batched search kernel against its exact oracles, and the bounded
parallel runner."""

import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyvault import (
    PrimeField,
    Secret,
    VaultIndex,
    VaultParams,
    brute_force_attack,
    gen_template,
    lock,
    unlock,
)
from fuzzyvault import attack, consensus
from fuzzyvault.consensus import (
    INVERSE_TABLE_Q,
    SMALL_INVERSE,
    _chunk_subsets,
    _inverse,
    _inverse_table,
    _primitive_root,
    interpolate,
    matmul_mod,
    search,
    stop_rule,
)
from fuzzyvault.coding import coeffs_pass_crc, encode_secret, rows_pass_crc
from fuzzyvault.field import is_prime
from fuzzyvault.vault import VaultRecord, coord_shift
from oracles import count_hits_python, vault_from_records

# matmul_mod splits its left operand into limbs of the widest width w with
# (k+1) * 2**w * q < 2**53.  At k = 24, 2**24 - 3 is the largest prime whose
# values fit one limb (w = 24) and 2**24 + 43 the smallest that needs two;
# 2**31 - 1 is the largest accepted modulus.
MODULI = [2, 3, 17, 65537, 2**24 - 3, 2**24 + 43, 2**31 - 1]


@st.composite
def matmul_cases(draw):
    """(q, a (rows, k), b (k, cols)), entries in [0, q)."""
    q = draw(st.sampled_from(MODULI))
    rows, k, cols = draw(st.integers(1, 3)), draw(st.integers(1, 24)), draw(st.integers(1, 4))
    element = st.integers(0, q - 1)
    a = draw(st.lists(element, min_size=rows * k, max_size=rows * k))
    b = draw(st.lists(element, min_size=k * cols, max_size=k * cols))
    return q, np.array(a, dtype=np.int64).reshape(rows, k), np.array(b).reshape(k, cols)


@given(matmul_cases())
def test_matmul_mod_matches_big_integer_sums(case):
    q, a, b = case
    got = matmul_mod(a, b.astype(np.float64), q)
    want = [[sum(x * y for x, y in zip(row, col)) % q for col in b.T.tolist()]
            for row in a.tolist()]
    assert got.dtype == np.float64 and got.tolist() == want


def test_matmul_mod_worst_case_at_the_largest_modulus():
    # every product and every partial sum at its largest, over two limbs
    q, k = 2**31 - 1, 24
    a = np.full((2, k), q - 1, dtype=np.int64)
    b = np.full((k, 3), float(q - 1))
    assert matmul_mod(a, b, q).tolist() == [[k * (q - 1) ** 2 % q] * 3] * 2


@pytest.mark.parametrize("q, v", [
    (103, 103),  # v * (1/q) rounds below 1: the float quotient is one too low
    (16777099, 6755304415238471),  # it rounds up to v // q + 1: one too high
])
def test_matmul_mod_corrects_an_off_by_one_float_quotient(q, v):
    full, rest = divmod(v, (q - 1) ** 2)
    a = [q - 1] * full + [q - 1, 1]
    b = [q - 1] * full + list(divmod(rest, q - 1))
    got = matmul_mod(np.array([a], dtype=np.int64), np.array(b, dtype=np.float64)[:, None], q)
    assert got.tolist() == [[v % q]]


@st.composite
def point_rows(draw, more_than=0):
    """(q, xs (rows, k) distinct per row, ys (rows, sets, k)), with 1 to 3
    rows, or 1 to 8 rows beyond the first whose rows * k exceed ``more_than``."""
    q = draw(st.sampled_from(MODULI))
    k = draw(st.integers(1, min(q, 24)))
    rows = more_than // k + draw(st.integers(1, 8 if more_than else 3))
    sets = draw(st.integers(1, 3))
    element = st.integers(0, q - 1)
    xs = [draw(st.lists(element, min_size=k, max_size=k, unique=True)) for _ in range(rows)]
    ys = draw(st.lists(element, min_size=rows * sets * k, max_size=rows * sets * k))
    return q, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64).reshape(rows, sets, k)


def _matches_field_oracle(q, xs, ys):
    field = PrimeField(q)
    coeffs = interpolate(xs, ys, q)
    for b in range(xs.shape[0]):
        for a in range(ys.shape[1]):
            expected = field.interpolate(list(zip(xs[b].tolist(), ys[b, a].tolist())))
            assert tuple(coeffs[b, a].tolist()) == expected


@given(point_rows())
def test_batched_interpolation_matches_field_oracle(case):
    _matches_field_oracle(*case)


@given(point_rows(more_than=SMALL_INVERSE))
def test_batched_interpolation_above_the_python_crossover_matches_field_oracle(case):
    # the inverses come from the table for q <= INVERSE_TABLE_Q and from the
    # numpy Fermat loop for q >= 2**24 - 3
    _matches_field_oracle(*case)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("size", [1, SMALL_INVERSE, SMALL_INVERSE + 1, 1000])
def test_inverse_on_both_sides_of_the_python_crossover(q, size):
    a = np.random.default_rng(size).integers(1, q, size=size, endpoint=False, dtype=np.int64)
    assert np.all(a * _inverse(a, q) % q == 1)


def test_primitive_root_is_the_least_generator():
    # brute force over every prime below 300; q - 1 is a power of two for
    # most MODULI, where any quadratic non-residue generates
    for q in filter(is_prime, range(300)):
        orders = [len({pow(g, i, q) for i in range(q - 1)}) for g in range(1, q)]
        assert _primitive_root(q) == 1 + orders.index(q - 1)


@pytest.mark.parametrize("q", [q for q in MODULI if q <= INVERSE_TABLE_Q] + [131071])
def test_inverse_table_inverts_every_residue(q):
    a = np.arange(1, q, dtype=np.int64)
    assert np.all(a * _inverse_table(q)[1:] % q == 1)


@pytest.mark.parametrize("q, table", [(131071, True), (131101, False)])
def test_inverse_uses_the_table_up_to_its_bound(q, table, monkeypatch):
    # the largest prime at most INVERSE_TABLE_Q and the smallest above it
    assert is_prime(q) and (q <= INVERSE_TABLE_Q) == table
    assert not any(map(is_prime, range(min(q, INVERSE_TABLE_Q) + 1, max(q, INVERSE_TABLE_Q))))
    built = []
    monkeypatch.setattr(consensus, "_inverse_table", lambda m: built.append(m) or _inverse_table(m))
    a = np.random.default_rng(q).integers(1, q, size=SMALL_INVERSE + 1, dtype=np.int64)
    assert np.all(a * _inverse(a, q) % q == 1)
    assert built == ([q] if table else [])


def _vault(q, abscissae, ordinates, quiz_n, k=1):
    """A vault whose records have the given abscissae X = x || y."""
    shift = coord_shift(q)
    mask = (1 << shift) - 1
    records = tuple(
        VaultRecord(x >> shift, x & mask, y, 0.0 if quiz_n else None)
        for x, y in zip(abscissae, ordinates)
    )
    return vault_from_records(q, k, 1.0, "random", quiz_n, records)


@st.composite
def scan_cases(draw):
    """(vault, (rows, k) candidate coefficients)."""
    q = draw(st.sampled_from(MODULI))
    r = draw(st.integers(1, min(q, 40)))
    k = draw(st.integers(1, 24))
    quiz_n = draw(st.sampled_from([0, 0, 2, 4])) if q >= 4 else 0
    element = st.integers(0, q - 1)
    abscissae = draw(st.lists(element, min_size=r, max_size=r, unique=True))
    ordinates = draw(st.lists(element, min_size=r, max_size=r))
    vault = _vault(q, abscissae, ordinates, quiz_n)
    rows = draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=1, max_size=3))
    if k <= r:
        # a candidate through k records, so that some rows score hits
        pts = list(zip(abscissae[:k], ordinates[:k]))
        rows.append(list(PrimeField(q).interpolate(pts)))
    return vault, np.array(rows, dtype=np.int64)


@given(scan_cases())
def test_batched_hit_counts_match_python_scan(case):
    vault, coeffs = case
    index = VaultIndex(vault)
    hits = index.hits(coeffs)
    for row, h in zip(coeffs.tolist(), hits.tolist()):
        assert h == count_hits_python(index, row) == index.count_hits(row)


def test_count_hits_of_the_true_polynomial_at_default_q():
    for quiz_n in (0, 4):
        tpl = gen_template(8, seed=2)
        vault, truth = lock(tpl, Secret.random(40, random.Random(2)),
                            VaultParams(k=3, t=8, r=30, quiz_n=quiz_n), seed=2)
        index = VaultIndex(vault)
        assert index.count_hits(truth.coeffs) == count_hits_python(index, truth.coeffs) == 8


def _oracle_search(index, subsets, D, bits=None, points=None):
    """One candidate at a time through PrimeField.interpolate and the Python
    scan, after the one-row CRC predicate when ``bits`` is given, in the
    order the search engine must reproduce: (coeffs or None,
    interpolations).  Subsets of the vault's own records (``points`` None)
    of a quiz vault are tried under every transform assignment; matched
    ``points`` (xs, ys) carry their true ordinates."""
    q, k = index.q, index.k
    field = PrimeField(q)
    sweep = points is None and index.offsets is not None
    assignments = list(itertools.product(index.offsets, repeat=k)) if sweep else [(0,) * k]
    xs, ys = (index._x, index._y) if points is None else points
    xs, ys = xs.tolist(), ys.tolist()
    interps = 0
    for sub in subsets:
        for offs in assignments:
            pts = [(xs[i], (ys[i] + o) % q) for i, o in zip(sub, offs)]
            coeffs = field.interpolate(pts)
            interps += 1
            if ((bits is None or coeffs_pass_crc(coeffs, bits))
                    and count_hits_python(index, coeffs) >= D):
                return coeffs, interps
    return None, interps


def _one_block(rows):
    """A list of index rows as the one (m, k) block of a ``search`` stream."""
    return [np.array(rows, dtype=np.intp)]


def _stream_rows(blocks):
    """The rows of a ``_chunk_subsets`` stream, as lists of indices."""
    return [row for block in blocks for row in block.tolist()]


def _quiz_index(quiz_n, truth=False):
    tpl = gen_template(8, seed=4)
    vault, lock_truth = lock(tpl, Secret.random(40, random.Random(4)),
                             VaultParams(k=3, t=8, r=30, quiz_n=quiz_n), seed=4)
    return (VaultIndex(vault), lock_truth) if truth else VaultIndex(vault)


@pytest.mark.parametrize("quiz_n, budget", [(0, 10_000), (0, 7), (4, 10_000), (4, 3)])
def test_search_matches_one_candidate_oracle(quiz_n, budget):
    # beside the vault's own records, every record as a matched point: the
    # genuine ones at their true ordinates, so a quiz vault's matched points
    # are interpolated once each, under no transform assignment
    index, truth = _quiz_index(quiz_n, truth=True)
    field = PrimeField(index.q)
    ys = index._y.copy()
    ys[list(truth.genuine_indices)] = [field.poly_eval(truth.coeffs, x)
                                       for x in index._x[list(truth.genuine_indices)].tolist()]
    points = (index._x, ys)
    for seed in range(4):
        rng = random.Random(seed)
        subsets = [rng.sample(range(index.r), index.k) for _ in range(budget)]
        got = search(index, None, _one_block(subsets), D=6)
        assert got == _oracle_search(index, subsets, 6)
        got = search(index, points, _one_block(subsets), D=6)
        assert got == _oracle_search(index, subsets, 6, points=points)
        assert got[1] == len(subsets) or got[0] == tuple(truth.coeffs)


def _crc_quiz_vault():
    # k = 3 carries 32 secret bits beside its CRC coefficient; n**k = 64
    tpl = gen_template(8, seed=4)
    vault, _ = lock(tpl, Secret.random(32, random.Random(4)),
                    VaultParams(k=3, t=8, r=30, quiz_n=4, crc=True), seed=4)
    return vault, VaultIndex(vault)


@pytest.mark.parametrize("budget", [10_000, 30, 3])
def test_quiz_sweep_matches_one_candidate_oracle_under_the_crc_rule(budget):
    vault, index = _crc_quiz_vault()
    rule = stop_rule(vault, "crc", None, 32)
    found = 0
    for seed in range(4):
        rng = random.Random(seed)
        subsets = [rng.sample(range(index.r), index.k) for _ in range(budget)]
        got = search(index, None, _one_block(subsets), **rule)
        assert got == _oracle_search(index, subsets, rule["D"], bits=32)
        found += got[0] is not None
    assert found == 4 or budget < 10_000


@pytest.mark.parametrize("q", [17, 65537, 2**24 + 43, 2**31 - 1])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_quiz_sweep_is_exact_at_every_modulus(q, n, k):
    # a planted polynomial on 6 of 12 records, each stored under a random
    # transform index; at q = 2**31 - 1 the products of two residues pass
    # 2**53, so a float product would lose the planted rows.  Above 2**16
    # the polynomial also carries a valid CRC coefficient (k >= 2).
    rng = random.Random(q * 100 + n * 10 + k)
    step = q // n
    secret = Secret.random(16 * (k - 1), rng) if q > 2**16 and k >= 2 else None
    coeffs = (encode_secret(secret, k, crc=True, q=q) if secret
              else [rng.randrange(q) for _ in range(k)])
    field = PrimeField(q)
    abscissae = rng.sample(range(q), 12)
    ordinates = [(field.poly_eval(coeffs, x) - rng.randrange(n) * step) % q
                 for x in abscissae[:6]] + [rng.randrange(q) for _ in range(6)]
    vault = _vault(q, abscissae, ordinates, n, k=k)
    index = VaultIndex(vault)
    rules = [(dict(D=6, crc=None), None)]
    if secret:
        rules.append((stop_rule(vault, "crc", None, secret.bits), secret.bits))
    for rule, bits in rules:
        hit = 0
        for seed in range(3):
            subsets = [rng.sample(range(12), k) for _ in range(40)]
            got = search(index, None, _one_block(subsets), **rule)
            assert got == _oracle_search(index, subsets, rule["D"], bits=bits)
            hit += got[0] is not None
        assert hit == 3


def _floyd_rows(n, k, label, chunk, i):
    """Chunk i of the subset stream by a per-row Floyd loop over the raw
    draws of its generator: value c of a row is uniform on [0, n-k+c] and
    becomes n-k+c when the row already holds it."""
    seed = int.from_bytes(hashlib.sha256(f"{label}{i}".encode()).digest(), "little")
    raw = np.random.Generator(np.random.PCG64(seed)).integers(
        0, np.arange(n - k + 1, n + 1)[:, None], size=(k, chunk))
    rows = []
    for draws in raw.T.tolist():
        row = []
        for c, v in enumerate(draws):
            row.append(n - k + c if v in row else v)
        rows.append(row)
    return rows


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(1, 50), st.integers(0, 3), st.text(max_size=8))))
def test_vectorized_floyd_matches_the_per_row_loop(case):
    n, k, chunk, i, label = case
    rows = _stream_rows(_chunk_subsets(n, k, label, chunk, (i + 1) * chunk, range(i, i + 1)))
    assert rows == _floyd_rows(n, k, label, chunk, i)
    assert all(len(set(row)) == k and set(row) <= set(range(n)) for row in rows)


def test_subset_draws_are_uniform_over_all_subsets():
    # 112,000 draws over the C(8,3) = 56 subsets of range(8): chi-square on
    # 55 degrees of freedom stays below 93.2 with probability 0.999
    draws = 112_000
    counts = Counter(frozenset(row) for row in _stream_rows(_chunk_subsets(
        8, 3, "7/chi2", 512, draws, range(math.ceil(draws / 512)))))
    assert len(counts) == math.comb(8, 3)
    expected = draws / math.comb(8, 3)
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 93.2


@given(st.integers(0, 200), st.integers(1, 64))
def test_a_budget_stream_is_a_prefix_of_a_larger_budget_stream(budget, chunk):
    def stream(b):
        return _stream_rows(_chunk_subsets(30, 4, "3/attack-chunk", chunk, b,
                                           range(math.ceil(b / chunk))))

    rows = stream(budget)
    assert len(rows) == budget and rows == stream(2 * budget)[:budget]


@pytest.mark.parametrize("quiz_n, budget", [(0, 10_000), (0, 40), (4, 10_000), (4, 10)])
def test_every_worker_count_searches_one_chunk_stream(quiz_n, budget):
    # chunk i of 7 subsets is the per-row Floyd loop over the draws of its
    # own generator; the last chunk of a budget of 40 or 10 is cut short
    index = _quiz_index(quiz_n)
    label, chunk = "1/attack-chunk", 7
    stream = []
    for i in range(math.ceil(budget / chunk)):
        stream += _floyd_rows(index.r, index.k, label, chunk, i)[:budget - i * chunk]
    want = _oracle_search(index, stream, 6)
    for workers in (1, 2, 3):
        got = consensus.search_pool(index, None, budget, chunk, label, workers, D=6, crc=None)
        assert got == want


@pytest.mark.parametrize("budget", [3000, 400])
def test_every_worker_count_agrees_where_batches_use_the_inverse_table(budget):
    # k = 6 and 40-subset chunks: batches grow to 16 rows, 96 denominators,
    # past SMALL_INVERSE; the stream succeeds at trial 654 of budget 3000
    tpl = gen_template(15, seed=6)
    vault, _ = lock(tpl, Secret.random(64, random.Random(6)), VaultParams(k=6, t=15, r=40),
                    seed=6)
    index = VaultIndex(vault)
    label, chunk = "6/attack-chunk", 40
    stream = []
    for i in range(math.ceil(budget / chunk)):
        stream += _floyd_rows(index.r, index.k, label, chunk, i)[:budget - i * chunk]
    want = _oracle_search(index, stream, 9)
    for workers in (1, 2, 3):
        got = consensus.search_pool(index, None, budget, chunk, label, workers, D=9, crc=None)
        assert got == want


def _crc_vault():
    # C(40,6)/C(15,6) = 767 trials expected; the 40-subset chunk stream of
    # the CRC test below succeeds at trial 654, in chunk 16
    tpl = gen_template(15, seed=6)
    vault, _ = lock(tpl, Secret.random(64, random.Random(6)),
                    VaultParams(k=6, t=15, r=40, crc=True), seed=6)
    return vault, VaultIndex(vault)


@pytest.mark.parametrize("budget", [3000, 400])
def test_every_worker_count_agrees_under_the_crc_rule(budget):
    vault, index = _crc_vault()
    label, chunk = "6/attack-chunk", 40
    stream = []
    for i in range(math.ceil(budget / chunk)):
        stream += _floyd_rows(index.r, index.k, label, chunk, i)[:budget - i * chunk]
    rule = stop_rule(vault, "crc", None, 64)
    want = _oracle_search(index, stream, rule["D"], bits=64)
    assert (want[0] is not None) == (budget == 3000) and want[1] > 2 * chunk
    for workers in (1, 2, 3):
        got = consensus.search_pool(index, None, budget, chunk, label, workers, **rule)
        assert got == want


def test_crc_rule_skips_a_planted_false_pass():
    # six chaff records moved onto the graph of another secret's CRC
    # encoding: their subset passes rows_pass_crc with 6 < D = 9 vault hits,
    # so the CRC rule confirms on the vault, skips it and accepts the next
    # subset, six genuine records
    tpl = gen_template(15, seed=6)
    vault, truth = lock(tpl, Secret.random(64, random.Random(6)),
                        VaultParams(k=6, t=15, r=40, crc=True), seed=6)
    wrong = encode_secret(Secret.random(64, random.Random(7)), 6, crc=True, q=vault.q)
    chaff = [i for i in range(vault.r) if i not in truth.genuine_indices][:6]
    field = PrimeField(vault.q)
    records = list(vault.records)
    for i in chaff:
        rec = records[i]
        X = rec.x << coord_shift(vault.q) | rec.y
        records[i] = VaultRecord(rec.x, rec.y, field.poly_eval(wrong, X))
    planted = vault_from_records(vault.q, vault.k, vault.d, vault.grid, 0, records)
    index = VaultIndex(planted)
    rule = stop_rule(planted, "crc", None, 64)
    assert rule["D"] == 9 and rows_pass_crc(np.array([wrong]), 64)[0]
    assert count_hits_python(index, wrong) < 9
    subsets = [chaff, list(truth.genuine_indices[:6])]
    got = search(index, None, _one_block(subsets), **rule)
    assert got == (tuple(truth.coeffs), 2) == _oracle_search(index, subsets, 9, bits=64)
    # the bare CRC predicate (D = 0) stops on the planted row
    assert search(index, None, _one_block(subsets), D=0, crc=rule["crc"])[:2] == (tuple(wrong), 1)


@pytest.mark.parametrize("bits", [-1, 0, 81, 200])
def test_crc_rule_refuses_a_bit_length_the_polynomial_cannot_carry(bits):
    vault, _ = _crc_vault()
    with pytest.raises(ValueError, match="crc mode carries 1 to 80 secret bits at k=6"):
        stop_rule(vault, "crc", None, bits)


def _split_rule(name):
    """(index, search keywords, CRC bits or None) of one stop rule."""
    if name == "sweep":
        return _quiz_index(4), dict(D=6, crc=None), None
    if name == "sweep-crc":
        vault, index = _crc_quiz_vault()
        return index, stop_rule(vault, "crc", None, 32), 32
    vault, index = _crc_vault()
    bits = 64 if name == "crc" else None
    return index, stop_rule(vault, name, 9, bits), bits


@functools.cache
def _split_stream(name, found):
    """(index, rule, the (m, k) stream, the oracle's result) for one stop
    rule.  The 1500-subset stream of the k = 6 vault succeeds at trial 1342,
    past two full batches, and the 40-subset quiz streams (64 candidates per
    subset) at trial 26; the shorter streams do not succeed."""
    index, rule, bits = _split_rule(name)
    sweep = index.offsets is not None
    rng = random.Random(1 if sweep else 3)
    length = (40 if found else 20) if sweep else (1500 if found else 1000)
    subsets = [rng.sample(range(index.r), index.k) for _ in range(length)]
    want = _oracle_search(index, subsets, rule["D"], bits=bits)
    assert (want[0] is not None) == found
    return index, rule, np.array(subsets, dtype=np.intp), want


# the batch caps: 2**14 // 40 (r = 40), 2**14 // 36 (k*k = 36 under the CRC
# rule), 2**14 // (64 * 30) and 2**14 // (64 * 9) for the quiz sweeps
@pytest.mark.parametrize("name, cap", [("threshold", 409), ("crc", 455), ("sweep", 8),
                                       ("sweep-crc", 28)])
@pytest.mark.parametrize("found", [True, False])
@settings(deadline=None)
@given(data=st.data())
def test_search_over_any_split_of_its_stream_matches_the_oracle(name, cap, found, data):
    index, rule, stream, want = _split_stream(name, found)
    size = st.one_of(st.just(1), st.integers(2, cap - 1), st.integers(cap + 1, 3 * cap))
    cuts = itertools.accumulate(data.draw(st.lists(size, max_size=12)))
    blocks = np.split(stream, [c for c in cuts if c < len(stream)])
    assert search(index, None, blocks, **rule) == want
    assert search(index, None, [stream], **rule) == want


def test_each_stop_rule_sizes_its_batch_by_the_arrays_it_builds(monkeypatch):
    # r = 200, k = 8: the CRC rule's largest array is the (rows, k, k)
    # differences, a full batch 2**14 // 64 = 256 rows; the threshold rule's
    # is the (rows, r) vault values, 2**14 // 200 = 81 rows
    rng = random.Random(8)
    q = 65537
    vault = _vault(q, rng.sample(range(q), 200), [rng.randrange(q) for _ in range(200)], 0, k=8)
    index = VaultIndex(vault)
    block = np.array([rng.sample(range(200), 8) for _ in range(1024)], dtype=np.intp)
    rows = []

    def spy(xs, ys, q):
        rows.append(len(xs))
        return interpolate(xs, ys, q)

    monkeypatch.setattr(consensus, "interpolate", spy)
    for rule, batches in [(stop_rule(vault, "threshold", 200, None), [81] * 12 + [52]),
                          (stop_rule(vault, "crc", None, 112), [256] * 4)]:
        rows.clear()
        assert search(index, None, [block], **rule) == (None, 1024)
        assert rows == batches
    # a batch ends with its block, and the next block starts a full batch
    rows.clear()
    search(index, None, [block[:300], block[300:]], **stop_rule(vault, "threshold", 200, None))
    assert rows == [81, 81, 81, 57] + [81] * 8 + [76]


def test_a_pool_chunk_past_the_first_interpolates_a_full_batch_first(monkeypatch):
    # r = 60: a full batch is 2**14 // 60 = 273 subsets of a 512-subset
    # chunk; over matched points, the verifier's, chunk 0 is cut into
    # slices of 1, 2, 4, ... subsets, as one search over the stream cuts it
    tpl = gen_template(15, seed=1)
    vault, _ = lock(tpl, Secret.random(64, random.Random(1)), VaultParams(k=6, t=15, r=60),
                    seed=1)
    index = VaultIndex(vault)
    cap = consensus.BATCH_ELEMENTS // index.r
    rows = []

    def spy(xs, ys, q):
        rows.append(len(xs))
        return interpolate(xs, ys, q)

    monkeypatch.setattr(consensus, "interpolate", spy)
    points = (index._x, index._y)
    stream = (index.r, index.k, "1/unlock-chunk", 512, 4 * 512)
    for i in range(4):
        rows.clear()
        assert consensus._run_chunk(index, points, stream, dict(D=index.r, crc=None), i) == (
            None, 512)
        assert rows == ([1, 2, 4, 8, 16, 32, 64, 128, 256, 1] if i == 0 else [cap, 512 - cap])
    rows.clear()
    consensus.search_pool(index, points, 4 * 512, 512, "1/unlock-chunk", 1, D=index.r, crc=None)
    assert rows == [1, 2, 4, 8, 16, 32, 64, 128, 256, 1] + [cap, 512 - cap] * 3


def test_the_attacker_searches_at_full_batch_from_its_first_subset(monkeypatch):
    # the r = 60 vault above: every 512-subset chunk of an attack, chunk 0
    # included, is a full batch of 273 subsets and then the 239 left, and
    # an exhaustive attack's first block starts full too; the verifier's
    # chunk 0 still grows from one candidate
    tpl = gen_template(15, seed=1)
    vault, _ = lock(tpl, Secret.random(64, random.Random(1)), VaultParams(k=6, t=15, r=60),
                    seed=1)
    index = VaultIndex(vault)
    rows, rules = [], []

    def spy(xs, ys, q):
        rows.append(len(xs))
        return interpolate(xs, ys, q)

    def pool_spy(*args, **rule):
        rules.append(rule)
        return consensus.search_pool(*args, **rule)

    monkeypatch.setattr(consensus, "interpolate", spy)
    monkeypatch.setattr(attack, "search_pool", pool_spy)
    assert brute_force_attack(vault, D=vault.r, budget=4 * 512, seed=1).trials == 4 * 512
    assert rows == [273, 239] * 4
    stream = (index.r, index.k, "1/attack-chunk", 512, 4 * 512)
    for i in range(4):
        rows.clear()
        assert consensus._run_chunk(index, None, stream, rules[0], i)[:2] == (None, 512)
        assert rows == [273, 239]
    rows.clear()
    assert brute_force_attack(vault, D=vault.r, budget=600, exhaustive=True).trials == 600
    assert rows == [273, 239, 88]
    rows.clear()
    assert unlock(vault, tpl, D=vault.r, budget=64, seed=1).candidates == 64
    assert rows == [1, 2, 4, 8, 16, 32, 1]


def _with_points(vault, points):
    extra = tuple(VaultRecord(p["x"], p["y"], p["Y"]) for p in points)
    return vault_from_records(vault.q, vault.k, vault.d, vault.grid, vault.quiz_n,
                              vault.records + extra)


def test_duplicate_abscissae_rejected_before_search():
    tpl = gen_template(15, seed=1)
    vault, _ = lock(tpl, Secret.random(64, random.Random(1)), VaultParams(k=6, t=15, r=60),
                    seed=1)
    first = vault.records[0]
    X = (first.x << 8 | first.y) + vault.q  # the same abscissa mod q, out of frame
    for extra in ({"x": first.x, "y": first.y, "Y": 1}, {"x": X >> 8, "y": X & 255, "Y": 1}):
        bad = _with_points(vault, [extra])
        with pytest.raises(ValueError, match="abscissa"):
            VaultIndex(bad)
        with pytest.raises(ValueError, match="abscissa"):
            brute_force_attack(bad, D=9, budget=10, seed=0)
        with pytest.raises(ValueError, match="abscissa"):
            unlock(bad, tpl, D=9, bits=64, seed=0)


class _CountingChunks:
    """Counts the chunks searched by the caller and its helpers: helpers
    forked after the patch run the counting ``_run_chunk`` and add to the
    shared count.  Two usable CPUs make a two-worker call start a helper on
    any machine."""

    def __init__(self, monkeypatch):
        self._count = multiprocessing.Value("i", 0)
        self._run_chunk = consensus._run_chunk
        monkeypatch.setattr(consensus, "_run_chunk", self._counting)
        monkeypatch.setattr(consensus, "usable_cpus", lambda: 2)

    def _counting(self, *args):
        with self._count.get_lock():
            self._count.value += 1
        return self._run_chunk(*args)

    @property
    def submits(self):
        return self._count.value


@pytest.fixture
def counting_pool(monkeypatch):
    return _CountingChunks(monkeypatch)


def _no_chaff():
    tpl = gen_template(15, seed=1)
    secret = Secret.random(64, random.Random(5))
    vault, _ = lock(tpl, secret, VaultParams(k=6, t=15, r=15), seed=7)
    return tpl, secret, vault


@pytest.mark.parametrize("side", ["attack", "unlock"])
def test_pool_keeps_a_bounded_window_of_chunks(counting_pool, side):
    # every candidate of a chaff-free vault succeeds, so the first chunk
    # ends the search; a budget of 10**7 must not be queued up front
    tpl, secret, vault = _no_chaff()
    start = time.perf_counter()
    if side == "attack":
        result = brute_force_attack(vault, D=9, budget=10**7, bits=64, seed=0, workers=2)
    else:
        result = unlock(vault, tpl, D=9, bits=64, budget=10**7, seed=0, workers=2)
    assert result.success and result.secret == secret
    assert counting_pool.submits <= 2 * 2
    assert time.perf_counter() - start < 60


def test_oversized_quiz_sweep_is_refused_before_the_pool_starts(counting_pool):
    tpl = gen_template(15, seed=1)
    vault, _ = lock(tpl, Secret.random(64, random.Random(1)),
                    VaultParams(k=8, t=15, r=60, quiz_n=16), seed=3)
    with pytest.raises(ValueError, match="quiz sweep"):
        brute_force_attack(vault, D=11, budget=10, seed=1, workers=2)
    assert counting_pool.submits == 0


def test_pool_spends_the_exact_budget_when_nothing_succeeds(counting_pool):
    tpl = gen_template(15, seed=1)
    vault, _ = lock(tpl, Secret.random(64, random.Random(1)), VaultParams(k=6, t=15, r=60),
                    seed=1)
    report = brute_force_attack(vault, D=vault.r, budget=1300, seed=3, workers=2)
    assert not report.success
    assert report.trials == report.interpolations == 1300
    assert counting_pool.submits == 3  # chunks of 512, 512 and 276
    single = brute_force_attack(vault, D=vault.r, budget=1300, seed=3)
    assert single.trials == single.interpolations == 1300
    assert counting_pool.submits == 3  # one worker runs its chunks in process


class _Refused(Exception):
    pass


class _NoPool:
    """Records the number of searching processes asked for and refuses
    before any helper starts."""

    sizes: list = []

    def __init__(self, workers, *args):
        self.sizes.append(workers)
        raise _Refused


@pytest.fixture
def no_pool(monkeypatch):
    monkeypatch.setattr(_NoPool, "sizes", [])
    monkeypatch.setattr(consensus, "_start_helpers", _NoPool)
    return _NoPool


@pytest.mark.parametrize("points, budget", [(None, 512), (None, 0), ("k-1", 10**6)],
                         ids=["one-chunk", "zero-budget", "fewer-than-k-points"])
def test_no_pool_starts_for_fewer_than_two_chunks(no_pool, points, budget):
    index = _quiz_index(0)
    if points == "k-1":
        points = (index._x[: index.k - 1], index._y[: index.k - 1])
    got = consensus.search_pool(index, points, budget, 512, "0/attack-chunk", 2, D=index.r,
                                crc=None)
    assert got[0] is None and got[1] == (budget if points is None else 0)
    assert no_pool.sizes == []


def test_pool_size_is_capped_by_the_cpu_count(no_pool):
    index = _quiz_index(0)
    cpus = consensus.usable_cpus()
    budget = 2 * cpus * 512  # more chunks than CPUs
    if cpus >= 2:
        with pytest.raises(_Refused):
            consensus.search_pool(index, None, budget, 512, "0/attack-chunk", 10**6, D=index.r,
                                  crc=None)
    assert no_pool.sizes == ([cpus] if cpus >= 2 else [])


def test_usable_cpus_counts_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert consensus.usable_cpus() == len(os.sched_getaffinity(0))
    else:
        assert consensus.usable_cpus() == (os.cpu_count() or 1)


def _in_helper():
    return multiprocessing.parent_process() is not None


def _no_success():
    # D = r accepts no candidate of this 60-record vault
    tpl = gen_template(15, seed=1)
    vault, _ = lock(tpl, Secret.random(64, random.Random(1)), VaultParams(k=6, t=15, r=60),
                    seed=1)
    return vault


@pytest.mark.parametrize("outcome", ["success", "exhaustion", "error"])
def test_no_helper_outlives_the_call(counting_pool, monkeypatch, outcome):
    vault = _no_chaff()[2] if outcome == "success" else _no_success()
    if outcome == "error":
        real = consensus._run_chunk

        def fails_in_the_caller(*args):  # after the helper has started
            if not _in_helper():
                raise _Refused
            return real(*args)

        # a helper left running would search for seconds, then block on its full pipe
        monkeypatch.setattr(consensus, "_run_chunk", fails_in_the_caller)
        start = time.perf_counter()
        with pytest.raises(_Refused):
            brute_force_attack(vault, D=vault.r, budget=10**6, seed=3, workers=2)
        assert time.perf_counter() - start < 2
    else:
        D = 9 if outcome == "success" else vault.r
        report = brute_force_attack(vault, D=D, budget=1300, bits=64, seed=3, workers=2)
        assert report.success == (outcome == "success")
        assert counting_pool.submits >= 1
    assert multiprocessing.active_children() == []


def test_a_helper_that_raises_fails_the_search_quickly(counting_pool, monkeypatch):
    vault = _no_success()
    real = consensus._run_chunk

    def fails_in_a_helper(*args):
        if _in_helper():
            raise _Refused
        return real(*args)

    monkeypatch.setattr(consensus, "_run_chunk", fails_in_a_helper)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="helper exited"):
        brute_force_attack(vault, D=vault.r, budget=10**6, seed=3, workers=2)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def test_a_slow_helper_leaves_the_chunks_to_the_caller(monkeypatch):
    # the stream succeeds in chunk 16 of 40 subsets; the helper holds each
    # chunk it claims for half a second, so the caller searches every chunk
    # up to the winner but that one, none past it, and then waits
    tpl = gen_template(15, seed=6)
    vault, _ = lock(tpl, Secret.random(64, random.Random(6)), VaultParams(k=6, t=15, r=40),
                    seed=6)
    index = VaultIndex(vault)
    want = consensus.search_pool(index, None, 3000, 40, "6/attack-chunk", 1, D=9, crc=None)
    real, mine = consensus._run_chunk, []

    def slow_in_a_helper(*args):
        if _in_helper():
            time.sleep(0.5)
        else:
            mine.append(args[-1])
        return real(*args)

    monkeypatch.setattr(consensus, "_run_chunk", slow_in_a_helper)
    monkeypatch.setattr(consensus, "usable_cpus", lambda: 2)
    got = consensus.search_pool(index, None, 3000, 40, "6/attack-chunk", 2, D=9, crc=None)
    assert got == want and want[0] is not None
    assert mine[0] == 0 and len(mine) >= 16 and set(mine) <= set(range(17))
    assert multiprocessing.active_children() == []
