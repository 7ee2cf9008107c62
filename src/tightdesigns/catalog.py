"""The catalog: a table of symmetric designs, the 22 base constructions derived
from it by the paper's two routes (the Hadamard pairing and the split at a
point), each as (label, row key, build) with its key computed from its
parameters, and the registry of one design per parameter row they reach.

The registry adds each base entry's H(n,2)-complement twin and builds a
design on its first lookup, a twin by complementing its base entry's design;
the generator's module `symmetric` is imported only then.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, partial

from . import constructions
from .designs import WeightedDesign, complement, scale_weights, shells_of


def _generated(v: int, k: int, lam: int) -> constructions.SymmetricDesign:
    from .symmetric import symmetric_design  # loaded by the first build, never at import

    return symmetric_design(v, k, lam)


# (name, v, k, build) of each symmetric design the catalog reads, once, with
# k < v/2: the splits of its complement design add nothing, as their residual
# split is the H(n,2)-complement of its residual split and their complemented
# split is its own
SYMMETRIC = (
    *((f"sylvester[{e}]", 2 ** e - 1, 2 ** (e - 1) - 1, constructions.hadamard_source(2 ** e))
      for e in (2, 3)),  # PG(1, 2) and PG(2, 2)
    *((f"plane[{q}]", q * q + q + 1, q + 1, partial(constructions.projective_geometry, 2, q))
      for q in (3, 4, 5)),
    *((f"paley[{q}]", q, (q - 1) // 2, partial(constructions.paley_design, q))
      for q in (11, 19, 23, 27, 31)),
    ("sylvester[4]", 15, 7, constructions.hadamard_source(16)),  # PG(3, 2)
    ("symmetric[16,6,2]", 16, 6, partial(_generated, 16, 6, 2)),
    ("symmetric[25,9,3]", 25, 9, partial(_generated, 25, 9, 3)),
    ("symmetric[31,10,3]", 31, 10, partial(_generated, 31, 10, 3)),
)


def entries() -> list[tuple[str, tuple, partial]]:
    """The base entries in registry order, derived from SYMMETRIC by three
    rules: first the pairing of each Hadamard 2-design (2k + 1 = v = m; m
    points of weight 1 on shell 2, m + 1 of weight 8/(n+2) on shell m); then
    each design's residual split (k points on shell k-1, v-k on shell k) and
    complemented split (the k moved to shell v-k), of weight 1; and an entry
    is kept when 6 <= n <= 30 and no earlier entry holds its row or its
    twin's.  So the splits of 2-(7,3,1) give way to hadamard[m=3], and at
    v = 2k + 1 the complemented split, the residual split's twin, is dropped.
    Each design is built once, by the first of its entries built."""
    table = [(name, v, k, lru_cache(maxsize=1)(source)) for name, v, k, source in SYMMETRIC]
    candidates = [(f"hadamard[m={v}]", (2 * v, 2, v, v, v + 1, Fraction(8, 2 * v + 2)),
                   constructions.hadamard_design, source)
                  for _name, v, k, source in table if 2 * k + 1 == v]
    for name, v, k, source in table:
        candidates += [
            (f"residual({name})", (v - 1, k - 1, k, k, v - k, Fraction(1)),
             constructions.from_symmetric_residual, source),
            (f"complemented({name})", (v - 1, k, v - k, v - k, k, Fraction(1)),
             constructions.from_symmetric_complemented, source)]
    out, held = [], set()
    for label, key, construction, source in candidates:
        if 6 <= key[0] <= 30 and key not in held:
            out.append((label, key, partial(_compose, construction, source)))
            held |= {key, twin_key(key)}
    return out


def _compose(outer, inner):
    return outer(inner())


def twin_key(key: tuple) -> tuple:
    """The row of the H(n,2)-complements of the designs on row `key`."""
    n, r1, r2, count1, count2, w = key
    return (n, n - r2, n - r1, count2, count1, 1 / w)


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
    """The registry of entries(), with nothing built."""
    return Registry(entries())


class Registry(Mapping):
    """Row key -> (label, design with first-shell weight 1).

    Each base entry is followed by its H(n,2)-complement twin, labeled
    complement(label).  A design is built on its first lookup, checked to
    land on its row, rescaled and kept; membership, length and iteration
    build nothing.
    """

    def __init__(self, base_entries):
        # key -> (label, design), or (label, build) and for a twin (label, base
        # entry's key) until the first lookup
        self._rows: dict = {}
        for label, key, build in base_entries:
            self._rows[key] = (label, build)
            self._rows[twin_key(key)] = (f"complement({label})", key)
        if len(self._rows) != 2 * len(base_entries):
            raise ValueError("two catalog entries share a row")

    def __getitem__(self, key):
        label, design = self._rows[key]
        if not isinstance(design, WeightedDesign):
            design = design() if callable(design) else complement(self[design][1])
            if row_key(design) != key:
                raise RuntimeError(f"{label} does not land on row {key}")
            first_shell_weight = shells_of(design).shells[0][2]
            if first_shell_weight != 1:
                design = scale_weights(design, 1 / first_shell_weight)
            self._rows[key] = (label, design)
        return label, design

    def __contains__(self, key):
        return key in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)
