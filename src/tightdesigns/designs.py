"""Weighted design model: shell decomposition, relation profiles, complements, file I/O.

A point is the int bit mask of its support, coordinate i at bit i - 1 (see
`hamming.word`); n is kept once, on the design.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional


class MalformedFile(ValueError):
    """A design file failed structural validation."""


class WrongShellCount(ValueError):
    """An operation needing exactly two shells got something else."""


_WEIGHT_RE = re.compile(r"-?\d+(/\d+)?")


@dataclass(frozen=True)
class WeightedDesign:
    """A finite weighted point set of H(n,2); the base point is all-zeros.

    Each point is a bit mask 0 <= p < 2^n, coordinate i at bit i - 1.
    """

    n: int
    points: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("word length must be positive")
        if not self.points:
            raise ValueError("design must contain at least one point")
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights differ in length")
        if not all(0 <= p < 1 << self.n for p in self.points):
            raise ValueError(f"a point lies outside the words of length n={self.n}")
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

    within_first: frozenset[int]   # distances inside the lower shell
    within_second: frozenset[int]  # distances inside the upper shell
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
        by_weight.setdefault(p.bit_count(), []).append(w)
    shells = []
    for r in sorted(by_weight):
        ws = by_weight[r]
        constant = ws[0] if all(w == ws[0] for w in ws) else None
        shells.append((r, len(ws), constant))
    return ShellProfile(tuple(shells))


def relation_profile(design: WeightedDesign) -> RelationProfile:
    """The distances occurring inside each of the two shells and across them.

    None can be out of range, so none is checked: as |x ^ y| = |x| + |y| -
    2|x & y|, distinct words of weight r lie at an even distance in
    2..2*min(r, n - r), and words of weights r1 and r2 lie at a distance with
    the parity of r1 + r2.
    """
    profile = shells_of(design)
    if profile.p != 2:
        raise WrongShellCount(f"need exactly 2 shells, found {profile.p}")
    first, second = ([p for p in design.points if p.bit_count() == r] for r in profile.radii)
    return RelationProfile(*(
        frozenset((x ^ y).bit_count() for x, y in pairs)
        for pairs in (combinations(first, 2), combinations(second, 2), product(first, second))))


def complement(design: WeightedDesign) -> WeightedDesign:
    """Replace every point by its bitwise complement, keeping its weight.

    Complementation is a distance-preserving bijection of H(n,2) taking the
    shell X_r to X_{n-r}, so the weighted shell-average conditions carry over
    verbatim and the image of a relative t-design is again one, with the
    same weight on each image point.  It is an involution.
    """
    everything = (1 << design.n) - 1
    return WeightedDesign(design.n, tuple(p ^ everything for p in design.points), design.weights)


def scale_weights(design: WeightedDesign, factor) -> WeightedDesign:
    """Multiply all weights by a positive rational; designs are scale-invariant."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return WeightedDesign(design.n, design.points, tuple(w * factor for w in design.weights))


def word_string(bits: int, n: int) -> str:
    """The word as a string of n bits, coordinate 1 first: the form of a design file."""
    return format(bits, f"0{n}b")[::-1]


def save(design: WeightedDesign) -> bytes:
    """Serialize to the design file format (UTF-8 JSON, weights as 'p/q')."""
    obj = {
        "n": design.n,
        "points": [word_string(p, design.n) for p in design.points],
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
        points.append(int(text[::-1], 2))
    if len(set(points)) != len(points):
        seen: set[int] = set()
        for idx, p in enumerate(points):
            if p in seen:
                raise MalformedFile(f"points[{idx}]: duplicate point {word_string(p, n)!r}")
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
