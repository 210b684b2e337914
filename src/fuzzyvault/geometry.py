"""Plane geometry helpers: minimum-distance pixel sampling and the hexagonal
chaff lattice with nearest-site quantization."""

from __future__ import annotations

import functools
import math

import numpy as np

from .seeds import as_rng

# Draws per point before rejection sampling gives up on a saturated frame.
MAX_PLACEMENT_TRIES = 10_000
# Bound on len(a) * len(b) for squared_distances, two float64 arrays of 64
# MiB; correlating two hex vaults at d = 7.5 takes about 1.8M pairs.
MAX_PAIRS = 2**23
# Bound on width * height for PointGrid, whose mask holds one byte a pixel.
MAX_FRAME_PIXELS = 2**24


class PlacementError(RuntimeError):
    """Rejection sampling could not place the requested number of points."""

    def __init__(self, message: str, placed: int):
        super().__init__(message)
        self.placed = placed


class SnappingError(RuntimeError):
    """A minutia could not be assigned a free lattice site nearby."""


def squared_distances(a, b) -> np.ndarray:
    """The (len(a), len(b)) float64 array of squared distances from each
    (x, y) point of a to each of b; exact for integer coordinates below 2**26.
    Raises ValueError above MAX_PAIRS pairs, before allocating them."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 2)
    if len(a) * len(b) > MAX_PAIRS:
        raise ValueError(f"{len(a)} x {len(b)} point pairs exceed the bound of {MAX_PAIRS}")
    d2 = a[:, 0, None] - b[:, 0]
    d2 *= d2
    dy = a[:, 1, None] - b[:, 1]
    dy *= dy
    d2 += dy
    return d2


class PointGrid:
    """A uint8 mask of the pixels of a width x height frame strictly closer than
    dist to an added point, padded by that disk's reach on every side."""

    def __init__(self, width: int, height: int, dist: float):
        if width * height > MAX_FRAME_PIXELS:
            raise ValueError(f"a {width}x{height} frame exceeds the bound of "
                             f"{MAX_FRAME_PIXELS} pixels")
        self.width, self.height = width, height
        self._disk = _disk(dist, width, height)
        rx, ry = (side // 2 for side in self._disk.shape)
        self._mask = np.zeros((width + 2 * rx, height + 2 * ry), dtype=np.uint8)
        self._frame = memoryview(self._mask[rx:rx + width, ry:ry + height])

    def add(self, x: int, y: int) -> None:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"pixel ({x}, {y}) is outside the {self.width}x{self.height} frame")
        dx, dy = self._disk.shape
        self._mask[x:x + dx, y:y + dy] |= self._disk

    def too_close(self, x: int, y: int) -> int:
        """1 when some added point lies strictly closer than dist, else 0."""
        return self._frame[x, y]

    def place(self, rng) -> tuple[int, int] | None:
        """Draw pixels (x, then y) uniformly from the frame until no added
        point lies closer than dist; add and return that pixel, or None after
        MAX_PLACEMENT_TRIES draws."""
        for _ in range(MAX_PLACEMENT_TRIES):
            x = rng.randrange(self.width)
            y = rng.randrange(self.height)
            if not self.too_close(x, y):
                self.add(x, y)
                return x, y
        return None


@functools.lru_cache(maxsize=4)
def _disk(dist: float, width: int, height: int) -> np.ndarray:
    """The read-only uint8 disk of offsets with dx**2 + dy**2 < dist**2, its
    reach clipped to the offsets a width x height frame can hold."""
    rx, ry = (side - 1 if not dist < side else max(math.ceil(dist) - 1, 0)
              for side in (width, height))
    dx, dy = np.arange(-rx, rx + 1)[:, None], np.arange(-ry, ry + 1)
    disk = (dx * dx + dy * dy < dist * dist).astype(np.uint8)
    disk.setflags(write=False)
    return disk


class HexLattice:
    """A jittered hexagonal lattice clipped to a pixel frame.

    Nearest-neighbour spacing is exactly d: rows sit at pitch d*sqrt(3)/2
    and alternate rows are offset by d/2.  The lattice origin is jittered
    uniformly over one fundamental domain (seeded), so absolute site
    positions leak no alignment between vaults built from different seeds.
    Only sites whose nearest pixel centre falls inside the frame are kept.
    Nearest-site queries scan every site; ties go to the lowest index.
    """

    def __init__(self, width: int, height: int, d: float, seed):
        if d <= 0:
            raise ValueError("lattice spacing must be positive")
        rng = as_rng(seed)
        self.d = float(d)
        pitch = d * math.sqrt(3) / 2.0
        origin_x = rng.uniform(0.0, d)
        origin_y = rng.uniform(0.0, pitch)
        sites: list[tuple[float, float]] = []
        row = 0
        while True:
            y = origin_y + row * pitch
            if y >= height - 0.5:
                break
            start = (origin_x + (d / 2.0 if row % 2 else 0.0)) % d
            col = 0
            x = start
            while x < width - 0.5:
                sites.append((x, y))
                col += 1
                x = start + col * d
            row += 1
        self.sites = tuple(sites)
        self._sites = np.array(sites, dtype=np.float64).reshape(-1, 2)

    def _closest(self, x: float, y: float, penalty=0.0) -> tuple[int, float]:
        """Index and squared distance of the closest site to (x, y) once
        ``penalty`` (inf for a taken site) is added to each squared distance."""
        if not self.sites:
            raise SnappingError("lattice has no sites")
        d2 = squared_distances((x, y), self._sites)[0] + penalty
        idx = int(d2.argmin())
        return idx, float(d2[idx])

    def nearest(self, x: float, y: float) -> tuple[int, float]:
        """Index and distance of the closest site.  For points inside the
        frame the distance is at most d/sqrt(3) plus edge effects."""
        idx, d2 = self._closest(x, y)
        return idx, math.sqrt(d2)

    def snap(self, points) -> list[tuple[int, float]]:
        """Assign each point the nearest free site, in input order.

        Raises SnappingError when competition for sites would push an
        assignment farther than d away (no free neighbour).
        """
        taken = np.zeros(len(self.sites))
        out: list[tuple[int, float]] = []
        for x, y in points:
            idx, d2 = self._closest(x, y, taken)
            if d2 > self.d * self.d:
                raise SnappingError(
                    f"no free lattice site within {self.d} of point ({x}, {y})"
                )
            taken[idx] = math.inf
            out.append((idx, math.sqrt(d2)))
        return out
