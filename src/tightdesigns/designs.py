"""Weighted design model: shell decomposition, relation profiles, complements, file I/O."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .hamming import BinaryWord


class MalformedFile(ValueError):
    """A design file failed structural validation."""


class WrongShellCount(ValueError):
    """An operation needing exactly two shells got something else."""


_WEIGHT_RE = re.compile(r"-?\d+(/\d+)?")


@dataclass(frozen=True)
class WeightedDesign:
    """A finite weighted point set of H(n,2); the base point is all-zeros."""

    n: int
    points: tuple[BinaryWord, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("design must contain at least one point")
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights differ in length")
        for p in self.points:
            if p.n != self.n:
                raise ValueError(f"point length {p.n} does not match n={self.n}")
        if len(set(self.points)) != len(self.points):
            raise ValueError("design points must be pairwise distinct")
        for w in self.weights:
            if w <= 0:
                raise ValueError("weights must be positive")

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ShellProfile:
    """Per-shell counts and, where it exists, the constant shell weight."""

    shells: tuple[tuple[int, int, Optional[Fraction]], ...]  # (r, count, weight or None)

    @property
    def p(self) -> int:
        return len(self.shells)

    @property
    def radii(self) -> tuple[int, ...]:
        return tuple(r for r, _, _ in self.shells)


@dataclass(frozen=True)
class RelationProfile:
    """Occurring pairwise distances of a two-shell design."""

    r1: int
    r2: int
    within_first: frozenset[int]   # distances inside the r1 shell
    within_second: frozenset[int]  # distances inside the r2 shell
    between: frozenset[int]        # distances across the shells

    @property
    def is_coherent(self) -> bool:
        """One distance per relation: the coherent-configuration signature."""
        return (
            len(self.within_first) == 1
            and len(self.within_second) == 1
            and len(self.between) == 1
        )


def shells_of(design: WeightedDesign) -> ShellProfile:
    by_weight: dict[int, list[Fraction]] = {}
    for p, w in zip(design.points, design.weights):
        by_weight.setdefault(p.weight, []).append(w)
    shells = []
    for r in sorted(by_weight):
        ws = by_weight[r]
        constant = ws[0] if all(w == ws[0] for w in ws) else None
        shells.append((r, len(ws), constant))
    return ShellProfile(tuple(shells))


def relation_profile(design: WeightedDesign) -> RelationProfile:
    profile = shells_of(design)
    if profile.p != 2:
        raise WrongShellCount(f"need exactly 2 shells, found {profile.p}")
    r1, r2 = profile.radii
    n = design.n
    within: dict[int, set[int]] = {r1: set(), r2: set()}
    between: set[int] = set()
    pts = design.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i].distance(pts[j])
            wi, wj = pts[i].weight, pts[j].weight
            if wi == wj:
                within[wi].add(d)
            else:
                between.add(d)
    for r, dists in within.items():
        for a in dists:
            if a % 2 or not 2 <= a <= 2 * min(r, n - r):
                raise RuntimeError(f"impossible distance {a} inside shell {r}")
    for g in between:
        if g % 2 != (r1 + r2) % 2:
            raise RuntimeError(f"impossible distance {g} between shells {r1} and {r2}")
    return RelationProfile(r1, r2, frozenset(within[r1]), frozenset(within[r2]), frozenset(between))


def complement(design: WeightedDesign) -> WeightedDesign:
    """Replace every point by its bitwise complement, keeping its weight.

    Complementation is a distance-preserving bijection of H(n,2) taking the
    shell X_r to X_{n-r}, so the weighted shell-average conditions carry over
    verbatim and the image of a relative t-design is again one, with the
    same weight on each image point.  It is an involution.
    """
    pts = tuple(p.complement() for p in design.points)
    return WeightedDesign(design.n, pts, design.weights)


def scale_weights(design: WeightedDesign, factor) -> WeightedDesign:
    """Multiply all weights by a positive rational; designs are scale-invariant."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return WeightedDesign(design.n, design.points, tuple(w * factor for w in design.weights))


def save(design: WeightedDesign) -> bytes:
    """Serialize to the design file format (UTF-8 JSON, weights as 'p/q')."""
    obj = {
        "n": design.n,
        "points": [p.to_string() for p in design.points],
        "weights": [str(w) for w in design.weights],
    }
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def load(data) -> WeightedDesign:
    """Parse a design file; raises MalformedFile with a field diagnostic."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedFile("top-level value must be an object")
    for key in ("n", "points", "weights"):
        if key not in obj:
            raise MalformedFile(f"missing field {key!r}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedFile(f"n must be a positive integer, got {n!r}")
    points_raw, weights_raw = obj["points"], obj["weights"]
    if not isinstance(points_raw, list) or not isinstance(weights_raw, list):
        raise MalformedFile("points and weights must be lists")
    if len(points_raw) != len(weights_raw):
        raise MalformedFile(
            f"{len(points_raw)} points but {len(weights_raw)} weights"
        )
    points = []
    for idx, text in enumerate(points_raw):
        if not isinstance(text, str) or len(text) != n or set(text) - {"0", "1"}:
            raise MalformedFile(f"points[{idx}]: bad bit string {text!r} (need length {n})")
        points.append(BinaryWord.from_string(text))
    if len(set(points)) != len(points):
        seen: set[BinaryWord] = set()
        for idx, p in enumerate(points):
            if p in seen:
                raise MalformedFile(f"points[{idx}]: duplicate point {p.to_string()!r}")
            seen.add(p)
    weights = []
    for idx, text in enumerate(weights_raw):
        if not isinstance(text, str) or not _WEIGHT_RE.fullmatch(text):
            raise MalformedFile(f"weights[{idx}]: not a 'p/q' string: {text!r}")
        try:
            w = Fraction(text)
        except ZeroDivisionError:
            raise MalformedFile(f"weights[{idx}]: zero denominator in {text!r}") from None
        if w <= 0:
            raise MalformedFile(f"weights[{idx}]: weight must be positive, got {text}")
        weights.append(w)
    return WeightedDesign(n, tuple(points), tuple(weights))
