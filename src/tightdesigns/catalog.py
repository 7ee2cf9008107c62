"""The registry: one design for each parameter row the construction catalog
reaches.

It holds the first design of `constructions.known_designs()` on each row and
then the splits of the symmetric designs that have no closed form in
`constructions`: Sylvester's 2-(15,7,3), and 2-(16,6,2), 2-(25,9,3) and
2-(31,10,3) from `symmetric.symmetric_design`.  Their row keys follow from
(v, k), so the registry lists them without building them; a design is built
on its first lookup, and the generator's module is imported only then.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, partial

from . import constructions
from .designs import WeightedDesign, complement as design_complement, scale_weights, shells_of


def _generated(v: int, k: int, lam: int) -> constructions.SymmetricDesign:
    from .symmetric import symmetric_design  # loaded by the first build, never at import

    return symmetric_design(v, k, lam)


# the symmetric designs whose splits rows of 6..30 need beyond the closed
# forms of `constructions`, each with the function that builds it
LAZY_SYMMETRIC = (
    ("sylvester[4]", 15, 7, partial(constructions.sylvester_hadamard, 4)),
    ("symmetric[16,6,2]", 16, 6, partial(_generated, 16, 6, 2)),
    ("symmetric[25,9,3]", 25, 9, partial(_generated, 25, 9, 3)),
    ("symmetric[31,10,3]", 31, 10, partial(_generated, 31, 10, 3)),
)


def lazy_designs() -> list[tuple[str, tuple, partial]]:
    """(label, row key, build) of the registry entries built on first lookup.

    Both splits of each design in LAZY_SYMMETRIC, each followed by its
    H(n,2)-complement, as in constructions.known_designs.  A key follows
    from (v, k) alone: every weight is 1, the residual split has k points on
    shell k-1 and v-k on shell k, and the complemented split moves the
    first k to shell v-k.
    """
    out = []
    for name, v, k, source in LAZY_SYMMETRIC:
        source = lru_cache(maxsize=1)(source)  # one build serves every split
        n = v - 1
        splits = [("residual", constructions.from_symmetric_residual, {k - 1: k, k: v - k})]
        if 2 * k != v:
            splits.append(("complemented", constructions.from_symmetric_complemented,
                           {v - k: k, k: v - k}))
        for variant, split, shells in splits:
            build = partial(_compose, split, source)
            out.append((f"{variant}({name})", _unit_weight_key(n, shells), build))
            out.append((f"complement({variant}({name}))",
                        _unit_weight_key(n, {n - r: c for r, c in shells.items()}),
                        partial(_compose, design_complement, build)))
    return out


def _compose(outer, inner):
    return outer(inner())


def _unit_weight_key(n: int, shells: dict) -> tuple:
    (r1, count1), (r2, count2) = sorted(shells.items())
    return (n, r1, r2, count1, count2, Fraction(1))


def row_key(design: WeightedDesign):
    """(n, r1, r2, N1, N2, w2/w1) of a design on two shells, each of constant
    weight, as in ParameterRow.key; None for any other design."""
    profile = shells_of(design)
    if profile.p != 2:
        return None
    (r1, count1, w1), (r2, count2, w2) = profile.shells
    if w1 is None or w2 is None:
        return None
    return (design.n, r1, r2, count1, count2, w2 / w1)


def registry() -> Registry:
    """Map from row keys to (label, design with first-shell weight 1).

    The first design of constructions.known_designs() on each row, then the
    entries of lazy_designs() on rows still open, built on first lookup.
    """
    entries: dict = {}
    for label, design in constructions.known_designs():
        key = row_key(design)
        if key is None or key in entries:
            continue
        first_shell_weight = shells_of(design).shells[0][2]
        if first_shell_weight != 1:
            design = scale_weights(design, 1 / first_shell_weight)
        entries[key] = (label, design)
    for label, key, build in lazy_designs():
        entries.setdefault(key, (label, build))
    return Registry(entries)


class Registry(Mapping):
    """Row key -> (label, design).  An entry listed with a build function in
    place of its design is built on its first lookup, checked to land on its
    row, and kept; membership, length and iteration build nothing."""

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, key):
        label, design = self._entries[key]
        if callable(design):
            design = design()
            if row_key(design) != key:
                raise RuntimeError(f"{label} does not land on row {key}")
            self._entries[key] = (label, design)
        return label, design

    def __contains__(self, key):
        return key in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)
