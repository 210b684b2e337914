"""Exact pure-Python oracles for the numpy kernels in ``src/``, and the one
place where tests build a ``Vault`` from per-point records."""

import sys

from fuzzyvault.vault import Vault, VaultFormatError, VaultRecord, concat_coord, coord_shift


def vault_from_records(q, k, d, grid, quiz_n, records) -> Vault:
    """A vault whose points are ``records`` (VaultRecord rows, or anything
    with x, y, value and beta), in order."""
    records = list(records)
    beta = [rec.beta for rec in records] if quiz_n else None
    return Vault(q, k, d, grid, quiz_n, [rec.x for rec in records], [rec.y for rec in records],
                 [rec.value for rec in records], beta)


def parse_points_python(points, q: int, quiz_n: int) -> tuple[VaultRecord, ...]:
    """The points of a vault file whose header is valid, checked one point
    at a time in file order: the oracle for the column checks of
    ``vault_from_json``.  Raises VaultFormatError with the parser's message,
    quoting the first point that fails."""
    beta_kinds = (int, float) if quiz_n else (type(None),)
    shift = coord_shift(q)
    records, abscissae = [], set()
    for p in points:
        get = p.get if type(p) is dict else {}.get
        x, y, Y, beta = get("x"), get("y"), get("Y"), get("beta")
        if not (type(x) is type(y) is type(Y) is int and 0 <= Y < q and type(beta) in beta_kinds
                and (beta is None or abs(beta) <= sys.float_info.max)):
            raise VaultFormatError(f"vault point {p!r:.60} needs int x, y and Y in [0, q={q}) "
                                   "and a finite beta if and only if quiz_n > 0")
        X = concat_coord(x, y, shift)
        if not (0 <= y < 1 << shift and x >= 0 and X < q):
            raise VaultFormatError(f"vault point {p!r:.60} needs 0 <= y < 2**{shift}, x >= 0 "
                                   f"and an abscissa x || y below q={q}")
        abscissae.add(X)
        records.append(VaultRecord(x, y, Y, beta))
    if len(abscissae) < len(records):
        raise VaultFormatError("two vault points share an abscissa x || y")
    return tuple(records)


def count_hits_python(index, coeffs) -> int:
    """Vault records of ``index`` (a ``VaultIndex``) on the graph of the
    candidate ``coeffs``, by a pure-Python scan: the oracle for
    ``VaultIndex.hits``."""
    q = index.q
    hits = 0
    offsets = None if index.offsets is None else frozenset(index.offsets)
    for x, y in zip(index._x.tolist(), index._y.tolist()):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        v = acc % q
        if offsets is None:
            hits += v == y
        else:
            hits += (v - y) % q in offsets
    return hits
