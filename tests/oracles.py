"""Exact pure-Python oracles for the numpy kernels in ``src/``."""


def count_hits_python(index, coeffs) -> int:
    """Vault records of ``index`` (a ``VaultIndex``) on the graph of the
    candidate ``coeffs``, by a pure-Python scan: the oracle for
    ``VaultIndex.hits``."""
    q = index.q
    hits = 0
    offsets = None if index.offsets is None else frozenset(index.offsets)
    for x, y in zip(index.xs, index.ys):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        v = acc % q
        if offsets is None:
            hits += v == y
        else:
            hits += (v - y) % q in offsets
    return hits
