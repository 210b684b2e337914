"""Synthetic minutiae templates and a recapture noise model.

There is no image processing here: a template is a bag of (x, y, theta)
points in a pixel frame, which is all the lock/unlock/attack experiments
need for controlled ground truth.  Recapture applies per-minutia Gaussian
jitter, Bernoulli misses, wrapped Gaussian orientation noise and Poisson
spurious detections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .geometry import PlacementError, PointGrid
from .seeds import as_rng


@dataclass(frozen=True)
class Minutia:
    x: int
    y: int
    theta: float  # ridge orientation, radians in [0, pi)


@dataclass(frozen=True)
class Template:
    minutiae: tuple[Minutia, ...]
    width: int
    height: int

    def __post_init__(self):
        for m in self.minutiae:
            if not (0 <= m.x < self.width and 0 <= m.y < self.height):
                raise ValueError(f"minutia ({m.x}, {m.y}) outside {self.width}x{self.height}")
            if not 0.0 <= m.theta < math.pi:
                raise ValueError(f"orientation {m.theta} outside [0, pi)")

    def __len__(self) -> int:
        return len(self.minutiae)


@dataclass(frozen=True)
class RecaptureModel:
    jitter_sigma: float = 2.0      # per-axis Gaussian displacement, pixels
    miss_rate: float = 0.1         # probability a genuine minutia is absent
    spurious_rate: float = 3.0     # Poisson mean of extra minutiae
    angle_sigma: float = math.pi / 32

    def __post_init__(self):
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError("miss_rate must be in [0, 1]")
        if self.jitter_sigma < 0 or self.angle_sigma < 0 or self.spurious_rate < 0:
            raise ValueError("sigmas and spurious_rate must be >= 0")


NOISELESS = RecaptureModel(0.0, 0.0, 0.0, 0.0)


def gen_template(
    count: int,
    width: int = 256,
    height: int = 256,
    d_min: float = 11.0,
    theta_steps: int = 0,
    seed=None,
) -> Template:
    """Uniform minutiae with pairwise distance >= d_min; orientations uniform
    in [0, pi), optionally snapped to a pi/theta_steps grid."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = as_rng(seed)
    grid = PointGrid(width, height, d_min)
    minutiae = []
    for _ in range(count):
        placed = grid.place(rng)
        if placed is None:
            raise PlacementError(
                f"placed only {len(minutiae)} of {count} minutiae at d_min={d_min} "
                f"in {width}x{height}",
                placed=len(minutiae),
            )
        x, y = placed
        if theta_steps:
            theta = (math.pi / theta_steps) * rng.randrange(theta_steps)
        else:
            theta = rng.uniform(0.0, math.pi) % math.pi
        minutiae.append(Minutia(x, y, theta))
    return Template(tuple(minutiae), width, height)


def _poisson(lam: float, rng) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def recapture(template: Template, model: RecaptureModel, seed=None) -> Template:
    """Simulated re-scan of a finger.  The zero-noise model is the identity."""
    rng = as_rng(seed)
    w, h = template.width, template.height
    out = []
    for m in template.minutiae:
        if model.miss_rate and rng.random() < model.miss_rate:
            continue
        x, y, theta = m.x, m.y, m.theta
        if model.jitter_sigma:
            x = min(w - 1, max(0, round(x + rng.gauss(0.0, model.jitter_sigma))))
            y = min(h - 1, max(0, round(y + rng.gauss(0.0, model.jitter_sigma))))
        if model.angle_sigma:
            theta = (theta + rng.gauss(0.0, model.angle_sigma)) % math.pi
        out.append(Minutia(x, y, theta))
    for _ in range(_poisson(model.spurious_rate, rng)):
        out.append(
            Minutia(rng.randrange(w), rng.randrange(h), rng.uniform(0.0, math.pi) % math.pi)
        )
    return Template(tuple(out), w, h)


def template_to_dict(template: Template) -> dict:
    return {
        "w": template.width,
        "h": template.height,
        "minutiae": [{"x": m.x, "y": m.y, "theta": m.theta} for m in template.minutiae],
    }


class TemplateFormatError(ValueError):
    """A template file whose JSON types do not describe a template."""


def template_from_dict(obj: dict) -> Template:
    """Raises TemplateFormatError unless ``obj`` is a JSON object with int w
    and h (a bool is not an int) and a list of minutiae with int x and y and
    a numeric theta; Template then checks the frame and [0, pi) ranges."""
    w, h, points = map(obj.get, ("w", "h", "minutiae")) if type(obj) is dict else [None] * 3
    if not (type(w) is type(h) is int and type(points) is list):
        raise TemplateFormatError("a template file is one JSON object with int w and h "
                                  "and a list of minutiae")
    minutiae = []
    for m in points:
        get = m.get if type(m) is dict else {}.get
        x, y, theta = get("x"), get("y"), get("theta")
        if not (type(x) is type(y) is int and type(theta) in (int, float)):
            raise TemplateFormatError(f"minutia {m!r:.60} needs int x and y and a number theta")
        minutiae.append(Minutia(x, y, theta))
    return Template(tuple(minutiae), w, h)


def template_to_json(template: Template) -> str:
    return json.dumps(template_to_dict(template)) + "\n"


def template_from_json(text: str) -> Template:
    return template_from_dict(json.loads(text))
