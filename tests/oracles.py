"""Exact pure-Python oracles for the numpy kernels in ``src/``, and the one
place where tests build a ``Vault`` from per-point records."""

import sys

from fuzzyvault.field import PrimeField
from fuzzyvault.geometry import MAX_PLACEMENT_TRIES, PlacementError
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


class BucketGrid:
    """Bucketed point set with a 3x3 bucket neighbourhood query: the oracle
    for the pixel mask of ``geometry.PointGrid``.  The bucket size must be
    >= the largest query radius, so that the neighbourhood covers the disk."""

    def __init__(self, cell: float):
        self.cell = float(cell)
        self._cells: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def add(self, x: float, y: float) -> None:
        key = (int(x // self.cell), int(y // self.cell))
        self._cells.setdefault(key, []).append((x, y))

    def too_close(self, x: float, y: float, dist: float) -> bool:
        """True when some stored point lies strictly closer than dist."""
        d2 = dist * dist
        cx, cy = int(x // self.cell), int(y // self.cell)
        for i in (cx - 1, cx, cx + 1):
            for j in (cy - 1, cy, cy + 1):
                for px, py in self._cells.get((i, j), ()):
                    dx, dy = px - x, py - y
                    if dx * dx + dy * dy < d2:
                        return True
        return False

    def place(self, width: int, height: int, dist: float, rng) -> tuple[int, int] | None:
        """Draw pixels (x, then y) uniformly from a width x height frame until
        no stored point lies closer than dist; add and return that pixel, or
        None after MAX_PLACEMENT_TRIES draws."""
        for _ in range(MAX_PLACEMENT_TRIES):
            x = rng.randrange(width)
            y = rng.randrange(height)
            if not self.too_close(x, y, dist):
                self.add(x, y)
                return x, y
        return None


def gen_chaff_random_python(existing, r, d, width, height, coeffs, q, rng) -> list[VaultRecord]:
    """Chaff placed and given its ordinate one point at a time, the bucket
    grid above and one pure-Python Horner evaluation per point: the oracle
    for ``vault.gen_chaff_random``, which draws the same stream in the same
    order.  Its int64 Horner pass needs q < 2**31, so that every product
    stays below q**2 < 2**62; Python ints carry these exactly."""
    field = PrimeField(q)
    shift = coord_shift(q)
    grid = BucketGrid(max(d, 1.0))
    for x, y in existing:
        grid.add(x, y)
    records = []
    for _ in range(r - len(existing)):
        placed = grid.place(width, height, d, rng)
        if placed is None:
            raise PlacementError("packing saturated", placed=len(records))
        x, y = placed
        graph_value = field.poly_eval(coeffs, concat_coord(x, y, shift))
        v = rng.randrange(q - 1)
        records.append(VaultRecord(x, y, v + 1 if v >= graph_value else v))
    return records
