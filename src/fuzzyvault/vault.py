"""Vault assembly: genuine set construction, chaff clouds (uniform-random or
hexagonal-grid), record shuffling, serialization, and the two-finger split.

The attacker-visible object is a Vault: public parameters (q, k, d, grid
kind, quiz granularity) plus r points held as columns, read-only numpy
arrays of length r: the coordinates x and y and the stored ordinates Y as
int64, and on quiz vaults the orientation puzzles beta as float64 (None on
other vaults).  Point i is (x[i], y[i], Y[i][, beta[i]]); ``Vault.records``
gives the same points as VaultRecord rows.  Parsing, serialization, the scan
index and template matching all work on the columns.  Everything an
experiment needs to evaluate an attack or unlock run lives in the
GroundTruth sidecar, which no attack code ever reads.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from .coding import Secret, encode_secret
from .field import DEFAULT_Q, PrimeField, is_prime
from .geometry import HexLattice, PlacementError, PointGrid, squared_distances
from .quiz import QuizParams, encode_point, random_grid_beta
from .seeds import as_rng, substream
from .simulate import Minutia, Template, template_from_dict, template_to_dict

GRID_RANDOM = "random"
GRID_HEX = "hex"


def coord_shift(q: int) -> int:
    """Bit width of the y coordinate inside the concatenated abscissa.

    Derived from q alone so that an attacker can compute X = (x || y) from
    the public vault file: x << shift | y with shift = bit_length(q) // 2.
    For the default q = 65537 this is 8, matching 256-pixel frames.
    """
    return q.bit_length() // 2


def concat_coord(x: int, y: int, shift: int) -> int:
    return (x << shift) | y


@dataclass(frozen=True)
class VaultRecord:
    x: int
    y: int
    value: int                 # stored ordinate, serialized as "Y"
    beta: float | None = None  # orientation puzzle, present iff quiz mode


@dataclass(frozen=True)
class VaultParams:
    k: int
    t: int
    r: int
    q: int = DEFAULT_Q
    d: float = 11.0
    crc: bool = False
    grid: str = GRID_RANDOM
    quiz_n: int = 0
    width: int = 256
    height: int = 256

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.t < self.k:
            raise ValueError("genuine count t must be >= k")
        if self.grid not in (GRID_RANDOM, GRID_HEX):
            raise ValueError(f"unknown grid kind: {self.grid!r}")
        if self.grid == GRID_RANDOM and self.r < self.t:
            raise ValueError("vault size r must be >= t")
        if self.d <= 0:
            raise ValueError("minimum distance d must be positive")
        if self.quiz_n and self.quiz_n < 2:
            raise ValueError("quiz_n must be 0 (disabled) or >= 2")
        shift = coord_shift(self.q)
        if self.height > (1 << shift):
            raise ValueError(
                f"frame height {self.height} does not fit the {shift}-bit "
                f"coordinate embedding of q={self.q}"
            )
        if concat_coord(self.width - 1, self.height - 1, shift) >= self.q:
            raise ValueError(
                f"{self.width}x{self.height} coordinates do not embed into F_{self.q}"
            )


@dataclass(frozen=True, eq=False)
class Vault:
    """Public parameters and the point columns (see the module docstring).
    Columns may be given as any sequences; they are stored as read-only
    int64 (x, y, Y) and float64 (beta) arrays.  Equality is structural."""

    q: int
    k: int
    d: float
    grid: str
    quiz_n: int
    x: np.ndarray
    y: np.ndarray
    Y: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype in (("x", np.int64), ("y", np.int64), ("Y", np.int64),
                            ("beta", np.float64)):
            if getattr(self, name) is not None:
                column = np.asarray(getattr(self, name), dtype=dtype)
                column.setflags(write=False)
                object.__setattr__(self, name, column)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vault):
            return NotImplemented
        head = (self.q, self.k, self.d, self.grid, self.quiz_n, self.beta is None)
        columns = ("x", "y", "Y") if self.beta is None else ("x", "y", "Y", "beta")
        return (head == (other.q, other.k, other.d, other.grid, other.quiz_n, other.beta is None)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in columns))

    @property
    def r(self) -> int:
        return len(self.x)

    @cached_property
    def records(self) -> tuple[VaultRecord, ...]:
        """The points as VaultRecord rows, built once from the columns."""
        beta = repeat(None) if self.beta is None else self.beta.tolist()
        return tuple(map(VaultRecord, self.x.tolist(), self.y.tolist(), self.Y.tolist(), beta))

    def quiz_params(self) -> QuizParams | None:
        return QuizParams(self.quiz_n, self.q) if self.quiz_n else None


@dataclass(frozen=True)
class GroundTruth:
    secret: Secret | None
    coeffs: tuple[int, ...]
    genuine_indices: tuple[int, ...]
    t: int
    template: Template
    seed: int | None


def make_genuine_set(
    template: Template, t: int, coeffs, q: int, rng: random.Random
) -> tuple[list[VaultRecord], list[Minutia]]:
    """Select t minutiae uniformly (seeded) and place them on the graph of
    the secret polynomial."""
    if t > len(template):
        raise ValueError(f"t={t} exceeds the {len(template)} available minutiae")
    field = PrimeField(q)
    shift = coord_shift(q)
    chosen = [template.minutiae[i] for i in rng.sample(range(len(template)), t)]
    records = []
    for m in chosen:
        x_cat = concat_coord(m.x, m.y, shift)
        if x_cat >= q:
            raise ValueError(f"minutia ({m.x}, {m.y}) does not embed into F_{q}")
        records.append(VaultRecord(m.x, m.y, field.poly_eval(coeffs, x_cat)))
    return records, chosen


def _graph_values(coeffs, q: int, shift: int, x, y) -> np.ndarray:
    """f(x[i] || y[i]) mod q for f = coeffs (constant first), by one int64
    Horner pass over all abscissae; with q < 2**31 every product stays
    below q**2 < 2**62."""
    X = (np.array(x, dtype=np.int64) << shift | np.array(y, dtype=np.int64)) % q
    g = np.zeros_like(X)
    for c in reversed(coeffs):
        g = (g * X + c % q) % q
    return g


def gen_chaff_random(
    existing: list[tuple[int, int]],
    r: int,
    d: float,
    width: int,
    height: int,
    coeffs,
    q: int,
    rng: random.Random,
) -> list[VaultRecord]:
    """Rejection-sampled uniform chaff: r - len(existing) points, all pairwise
    and against-existing distances >= d, ordinates uniform off the graph."""
    PrimeField(q)  # refuses a modulus outside [2, 2**31) before any draw
    target = r - len(existing)
    if target < 0:
        raise ValueError("target vault size r is smaller than the existing point count")
    grid = PointGrid(width, height, d)
    for x, y in existing:
        grid.add(x, y)
    xs, ys, vs = [], [], []
    for _ in range(target):
        placed = grid.place(rng)
        if placed is None:
            raise PlacementError(
                f"packing saturated: placed {len(xs)} of {target} chaff points "
                f"at d={d} in {width}x{height}",
                placed=len(xs),
            )
        xs.append(placed[0])
        ys.append(placed[1])
        vs.append(rng.randrange(q - 1))
    v = np.array(vs, dtype=np.int64)
    v += v >= _graph_values(coeffs, q, coord_shift(q), xs, ys)
    return list(map(VaultRecord, xs, ys, v.tolist()))


def gen_chaff_hexgrid(
    minutiae: list[Minutia],
    d: float,
    width: int,
    height: int,
    coeffs,
    q: int,
    lattice_seed,
    rng: random.Random,
) -> tuple[list[VaultRecord], list[VaultRecord]]:
    """Quantize the minutiae to a jittered hexagonal lattice and turn every
    remaining site into chaff, so the vault occupies the full site set.

    Returns (genuine records, chaff records).  Records store the
    nearest-pixel position of their site; snapping displacement is bounded
    by the cell circumradius d/sqrt(3) (measured in lattice coordinates).
    """
    PrimeField(q)  # refuses a modulus outside [2, 2**31) before any draw
    shift = coord_shift(q)
    lattice = HexLattice(width, height, d, lattice_seed)
    if len(lattice.sites) < len(minutiae):
        raise PlacementError(
            f"lattice has only {len(lattice.sites)} sites for {len(minutiae)} minutiae",
            placed=0,
        )
    assignments = lattice.snap([(m.x, m.y) for m in minutiae])
    pixels = [(round(x), round(y)) for x, y in lattice.sites]
    if len(set(pixels)) != len(pixels):
        raise ValueError(f"lattice spacing d={d} too small for pixel quantization")
    g = _graph_values(coeffs, q, shift, *zip(*pixels))
    taken = {idx for idx, _ in assignments}
    free = [idx for idx in range(len(pixels)) if idx not in taken]
    v = np.array([rng.randrange(q - 1) for _ in free], dtype=np.int64)
    v += v >= g[free]
    values = g.tolist()
    genuine = [VaultRecord(*pixels[idx], values[idx]) for idx, _ in assignments]
    chaff = [VaultRecord(*pixels[idx], Y) for idx, Y in zip(free, v.tolist())]
    return genuine, chaff


def _apply_quiz(
    genuine: list[VaultRecord],
    chosen: list[Minutia],
    chaff: list[VaultRecord],
    params: QuizParams,
    rng: random.Random,
) -> tuple[list[VaultRecord], list[VaultRecord]]:
    out_genuine = []
    for rec, m in zip(genuine, chosen):
        j = rng.randrange(params.n)
        stored, beta = encode_point(m.theta, j, rec.value, params)
        out_genuine.append(replace(rec, value=stored, beta=beta))
    out_chaff = [replace(rec, beta=random_grid_beta(params.n, rng)) for rec in chaff]
    return out_genuine, out_chaff


def lock_polynomial(
    template: Template,
    coeffs,
    params: VaultParams,
    seed: int,
    secret: Secret | None = None,
) -> tuple[Vault, GroundTruth]:
    """Assemble a vault around an explicit polynomial (the building block of
    lock(); also used directly by small-field experiments that skip the
    16-bit secret packing)."""
    if len(coeffs) != params.k:
        raise ValueError(f"polynomial length {len(coeffs)} does not match k={params.k}")
    if template.width > params.width or template.height > params.height:
        raise ValueError("template frame exceeds the vault frame")

    genuine, chosen = make_genuine_set(
        template, params.t, coeffs, params.q, substream(seed, "select")
    )

    chaff_rng = substream(seed, "chaff")
    if params.grid == GRID_RANDOM:
        coords = [(rec.x, rec.y) for rec in genuine]
        close = squared_distances(coords, coords) < params.d**2
        if np.count_nonzero(close) > len(coords):  # more than the diagonal
            (x1, y1), (x2, y2) = (coords[i] for i in np.argwhere(np.triu(close, 1))[0])
            raise ValueError(
                f"locking minutiae ({x1},{y1}) and ({x2},{y2}) are closer than d={params.d}"
            )
        chaff = gen_chaff_random(
            coords, params.r, params.d, params.width, params.height,
            coeffs, params.q, chaff_rng,
        )
    else:
        # Hex mode: the vault occupies the full lattice site set, so the
        # requested r is superseded by the site count.
        genuine, chaff = gen_chaff_hexgrid(
            chosen, params.d, params.width, params.height,
            coeffs, params.q, substream(seed, "lattice"), chaff_rng,
        )

    if params.quiz_n:
        qp = QuizParams(params.quiz_n, params.q)
        genuine, chaff = _apply_quiz(genuine, chosen, chaff, qp, substream(seed, "quiz"))

    tagged = [(rec, True) for rec in genuine] + [(rec, False) for rec in chaff]
    substream(seed, "shuffle").shuffle(tagged)
    genuine_indices = tuple(i for i, (_, is_genuine) in enumerate(tagged) if is_genuine)

    records = [rec for rec, _ in tagged]
    vault = Vault(params.q, params.k, params.d, params.grid, params.quiz_n,
                  [rec.x for rec in records], [rec.y for rec in records],
                  [rec.value for rec in records],
                  [rec.beta for rec in records] if params.quiz_n else None)
    truth = GroundTruth(secret, tuple(coeffs), genuine_indices, params.t, template, seed)
    return vault, truth


def lock(
    template: Template, secret: Secret, params: VaultParams, seed: int
) -> tuple[Vault, GroundTruth]:
    coeffs = encode_secret(secret, params.k, crc=params.crc, q=params.q)
    return lock_polynomial(template, coeffs, params, seed, secret=secret)


def split_secret(secret: Secret, rng: random.Random | int) -> tuple[Secret, Secret]:
    """Two-of-two xor sharing: share1 uniform, share2 = share1 xor secret."""
    share1 = Secret.random(secret.bits, as_rng(rng))
    return share1, share1.xor(secret)


def lock_two_fingers(
    template1: Template,
    template2: Template,
    secret: Secret,
    params: VaultParams,
    seed: int,
) -> tuple[tuple[Vault, GroundTruth], tuple[Vault, GroundTruth]]:
    """Lock one xor share per finger.  Each vault falls to its own D-hit test,
    so the attack costs add (+1 bit at equal params); they would multiply
    only if no share could be recognised on its own."""
    share1, share2 = split_secret(secret, substream(seed, "split"))
    locked1 = lock(template1, share1, params, seed * 2 + 1)
    locked2 = lock(template2, share2, params, seed * 2 + 2)
    return locked1, locked2


# ---------------------------------------------------------------------------
# Serialization.  The vault file is the attacker-visible interface; its key
# order is fixed and betas are written with 9 decimal digits so replays are
# byte-identical.


def _fmt_d(d: float) -> str:
    return str(int(d)) if float(d).is_integer() else repr(float(d))


def vault_to_json(vault: Vault) -> str:
    head = (
        f'{{"q": {vault.q}, "k": {vault.k}, "d": {_fmt_d(vault.d)}, '
        f'"grid": "{vault.grid}", "quiz_n": {vault.quiz_n}, "points": ['
    )
    columns = vault.x.tolist(), vault.y.tolist(), vault.Y.tolist()
    if vault.quiz_n:
        lines = [f'{{"x": {x}, "y": {y}, "Y": {Y}, "beta": {beta:.9f}}}'
                 for x, y, Y, beta in zip(*columns, vault.beta.tolist())]
    else:
        lines = [f'{{"x": {x}, "y": {y}, "Y": {Y}}}' for x, y, Y in zip(*columns)]
    return head + "\n" + ",\n".join(lines) + "\n]}\n"


class VaultFormatError(ValueError):
    """A vault file whose JSON types or values do not describe a vault."""


def _refuse_first_point(points: list, q: int, shift: int, beta_kinds: tuple) -> None:
    """Raise VaultFormatError quoting the first point, in file order, that
    breaks the point rule; vault_from_json calls it only on refused points."""
    for p in points:
        get = p.get if type(p) is dict else {}.get
        x, y, Y, beta = get("x"), get("y"), get("Y"), get("beta")
        if not (type(x) is type(y) is type(Y) is int and 0 <= Y < q and type(beta) in beta_kinds
                and (beta is None or abs(beta) <= sys.float_info.max)):
            raise VaultFormatError(f"vault point {p!r:.60} needs int x, y and Y in [0, q={q}) "
                                   "and a finite beta if and only if quiz_n > 0")
        if not (0 <= y < 1 << shift and x >= 0 and concat_coord(x, y, shift) < q):
            raise VaultFormatError(f"vault point {p!r:.60} needs 0 <= y < 2**{shift}, x >= 0 "
                                   f"and an abscissa x || y below q={q}")


def vault_from_json(text: str) -> Vault:
    """Parse a vault file.  Raises VaultFormatError unless the JSON types are
    right (a bool is not an int), q is a prime below 2**31, d is a finite
    number above 0, the grid kind is known, 1 <= k <= r, quiz_n is 0 or in
    2..q, every point has 0 <= y < 2**coord_shift(q), x >= 0, an abscissa
    x || y below q that no other point shares and 0 <= Y < q, and points
    carry a finite beta iff quiz_n > 0.  The points are accepted by column,
    all at once; only a refused file is walked point by point, so that the
    error quotes the first point in file order that fails."""
    obj = json.loads(text)
    head = ("q", "k", "d", "grid", "quiz_n", "points")
    q, k, d, grid, quiz_n, points = map(obj.get, head) if type(obj) is dict else [None] * 6
    if not (type(q) is type(k) is type(quiz_n) is int and type(d) in (int, float)
            and type(points) is list):
        raise VaultFormatError("a vault file is one JSON object with int q, k and quiz_n, "
                               "a number d and a list of points")
    if not (q < 2**31 and is_prime(q)):
        raise VaultFormatError(f"vault modulus q={q} is not a prime below 2**31")
    if not 0 < d <= sys.float_info.max:
        raise VaultFormatError(f"vault distance d={d!r:.20} is not a finite number above 0")
    if grid not in (GRID_RANDOM, GRID_HEX):
        raise VaultFormatError(f"unknown grid kind: {grid!r:.40}")
    if not 1 <= k <= len(points):
        raise VaultFormatError(f"vault k={k} is outside 1..r={len(points)}")
    if not (quiz_n == 0 or 2 <= quiz_n <= q):
        raise VaultFormatError(f"vault quiz_n={quiz_n} is neither 0 nor in 2..q={q}")
    shift = coord_shift(q)
    rows = points
    if list(map(type, points)).count(dict) < len(points):
        rows = [p if type(p) is dict else {} for p in points]
    xyY = [*map(dict.get, rows, repeat("x")), *map(dict.get, rows, repeat("y")),
           *map(dict.get, rows, repeat("Y"))]
    beta = list(map(dict.get, rows, repeat("beta")))
    kinds = (int, float) if quiz_n else (type(None),)
    fits = (list(map(type, xyY)).count(int) == len(xyY)
            and sum(map(list(map(type, beta)).count, kinds)) == len(beta))
    try:  # an int beyond int64, or past float64 as a beta, raises OverflowError
        if fits:  # the whole point rule at once; X < q also bounds x
            x, y, Y = block = np.array(xyY, dtype=np.int64).reshape(3, -1)
            # compared in Python: float64 rounds an int just past its largest value down to it
            finite = not quiz_n or all(map(sys.float_info.max.__ge__, map(abs, beta)))
            beta = np.array(beta, dtype=np.float64) if quiz_n else None
            X = np.minimum(x, q) << shift | y
            fits = (finite and block.min() >= 0 and y.max() < 1 << shift and Y.max() < q
                    and X.max() < q)
    except OverflowError:
        fits = False
    if not fits:
        _refuse_first_point(points, q, shift, kinds)
    if len(set(X.tolist())) < len(X):
        raise VaultFormatError("two vault points share an abscissa x || y")
    return Vault(q, k, d, grid, quiz_n, x, y, Y, beta)


def truth_to_json(truth: GroundTruth) -> str:
    obj = {
        "secret_hex": truth.secret.hex if truth.secret else None,
        "l": truth.secret.bits if truth.secret else None,
        "f_coeffs": list(truth.coeffs),
        "t": truth.t,
        "genuine_indices": list(truth.genuine_indices),
        "template": template_to_dict(truth.template),
        "seed": truth.seed,
    }
    return json.dumps(obj) + "\n"


def _int_list(value) -> bool:
    return type(value) is list and all(type(v) is int for v in value)


def truth_from_json(text: str) -> GroundTruth:
    """Parse a truth file.  Raises VaultFormatError unless it is one JSON
    object with every truth key, secret_hex is a str or null (with an int l
    for a str), f_coeffs and genuine_indices are lists of ints, t is an int,
    seed an int or null (a bool is not an int) and template_from_dict
    accepts the template."""
    obj = json.loads(text)
    head = ("secret_hex", "l", "f_coeffs", "t", "genuine_indices", "template", "seed")
    if not (type(obj) is dict and obj.keys() >= set(head)):
        raise VaultFormatError(f"a truth file is one JSON object with the keys {', '.join(head)}")
    secret_hex, bits, coeffs, t, indices, template, seed = map(obj.get, head)
    if not (type(secret_hex) in (str, type(None)) and (secret_hex is None or type(bits) is int)
            and _int_list(coeffs) and _int_list(indices) and type(t) is int
            and type(seed) in (int, type(None))):
        raise VaultFormatError("a truth file needs secret_hex a str or null, an int l with a "
                               "str, int lists f_coeffs and genuine_indices, an int t and "
                               "an int or null seed")
    try:
        template = template_from_dict(template)
    except ValueError as exc:
        raise VaultFormatError(f"truth file template: {exc}") from None
    secret = None if secret_hex is None else Secret.from_hex(secret_hex, bits)
    return GroundTruth(secret, tuple(coeffs), tuple(indices), t, template, seed)
