"""Exact arithmetic in a prime field plus dense polynomial helpers.

Field elements are plain ints in ``[0, q)``.  Polynomials are tuples of
ints, constant term first, with a fixed length (the vault parameter k);
high coefficients may be zero.  The default modulus is the smallest prime
above 2**16, so that a pair of 8-bit pixel coordinates concatenates to a
field element injectively.  Small moduli (down to q = 2) are accepted for
desk-scale exhaustive experiments.
"""

from __future__ import annotations

import functools
import random

DEFAULT_Q = 65537

# Deterministic Miller-Rabin witnesses for n < 3_215_031_751, which covers
# the accepted modulus range q < 2**31.
_MR_BASES = (2, 3, 5, 7)


@functools.cache  # every vault parse and PrimeField(q) re-tests the same few moduli
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic mod a prime q, with polynomial evaluation/interpolation."""

    __slots__ = ("q",)

    def __init__(self, q: int = DEFAULT_Q):
        if not 2 <= q < 2**31:
            raise ValueError(f"modulus out of accepted range [2, 2**31): {q}")
        if not is_prime(q):
            raise ValueError(f"modulus must be prime: {q}")
        self.q = q

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat: a**(q-2) mod q."""
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in the field")
        return pow(a, self.q - 2, self.q)

    def batch_inv(self, values: list[int]) -> list[int]:
        """Inverses of all values with a single exponentiation (Montgomery trick)."""
        q = self.q
        prefix = [1] * (len(values) + 1)
        for i, v in enumerate(values):
            if v % q == 0:
                raise ZeroDivisionError("inverse of zero in the field")
            prefix[i + 1] = prefix[i] * v % q
        acc = pow(prefix[-1], q - 2, q)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = prefix[i] * acc % q
            acc = acc * values[i] % q
        return out

    def random_polynomial(self, k: int, rng: random.Random) -> tuple[int, ...]:
        """Uniform coefficient vector of length k, constant term first."""
        if k < 1:
            raise ValueError("polynomial length must be >= 1")
        return tuple(rng.randrange(self.q) for _ in range(k))

    def poly_eval(self, coeffs, x: int) -> int:
        """Horner evaluation.  Products are accumulated unreduced (Python ints
        carry them exactly) and reduced once at the end."""
        x %= self.q
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc % self.q

    def interpolate(self, points, k: int | None = None) -> tuple[int, ...]:
        """Coefficients (constant first) of the unique polynomial of degree
        < len(points) passing through the given (x, y) points.

        O(k^2) Lagrange form with one batched inversion; at the k <= 24 this
        package uses, that beats anything asymptotically fancier.
        Duplicate x coordinates violate the precondition and raise.
        """
        if k is not None and len(points) != k:
            raise ValueError(f"expected exactly {k} points, got {len(points)}")
        q = self.q
        xs = [x % q for x, _ in points]
        ys = [y % q for _, y in points]
        n = len(xs)
        if n == 0:
            raise ValueError("cannot interpolate through zero points")
        if len(set(xs)) != n:
            raise ValueError("duplicate x coordinates in interpolation points")
        # Master root polynomial prod_i (X - x_i), monic, length n + 1.
        root = [1]
        for x in xs:
            nxt = [0] * (len(root) + 1)
            for i, c in enumerate(root):
                nxt[i + 1] = (nxt[i + 1] + c) % q
                nxt[i] = (nxt[i] - x * c) % q
            root = nxt
        # Per-point numerator root/(X - x_i) by synthetic division.
        nums = []
        denoms = []
        for x in xs:
            out = [0] * n
            out[n - 1] = root[n]
            for j in range(n - 1, 0, -1):
                out[j - 1] = (root[j] + x * out[j]) % q
            nums.append(out)
            denoms.append(self.poly_eval(out, x))
        invs = self.batch_inv(denoms)
        coeffs = [0] * n
        for yi, num, inv_d in zip(ys, nums, invs):
            w = yi * inv_d % q
            if w:
                for j, c in enumerate(num):
                    coeffs[j] = (coeffs[j] + w * c) % q
        return tuple(coeffs)
