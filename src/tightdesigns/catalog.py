"""The catalog: 22 base constructions, each listed as (label, row key, build)
with its key computed from its parameters, and the registry of one design per
parameter row they reach.

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


# (name, v, k, build) of the symmetric designs the catalog splits, all with
# k < v/2.  The splits of 2-(7,3,1), the plane of order 2 and paley[7], are
# left out: they land on the rows of hadamard[m=3] and its twin.
SYMMETRIC = (
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
    """The base entries in registry order: the Hadamard pairings (m points of
    weight 1 on shell 2, m + 1 of weight 8/(n+2) on shell m), then the splits
    of each design in SYMMETRIC, of weight 1 (the residual split has k points
    on shell k-1 and v-k on shell k; the complemented split moves the k to
    shell v-k).  Entries with the same source share one build of it, made by
    the first of them to be built."""
    # one cached build per (construction, arguments), kept until every entry
    # reading it is built: both splits of a design read one, hadamard[m=11] and
    # paley[11] the same Paley 2-(11,5,2), and hadamard[m=15] and sylvester[4]
    # the same Sylvester 2-(15,7,3)
    sources: dict = {}

    def shared(source: partial):
        key = (source.func, source.args)
        if key not in sources:
            sources[key] = lru_cache(maxsize=1)(source)
        return sources[key]

    out = []
    for m in (3, 7, 11, 15):
        n = 2 * m
        out.append((f"hadamard[m={m}]", (n, 2, m, m, m + 1, Fraction(8, n + 2)),
                    partial(_compose, constructions.hadamard_design,
                            shared(constructions.hadamard_source(m + 1)))))
    for name, v, k, source in SYMMETRIC:
        source = shared(source)
        n = v - 1
        out.append((f"residual({name})", (n, k - 1, k, k, v - k, Fraction(1)),
                    partial(_compose, constructions.from_symmetric_residual, source)))
        # at v = 2k + 1 its row is the residual split's twin, which the registry adds
        if 2 * k + 1 != v:
            out.append((f"complemented({name})", (n, k, v - k, v - k, k, Fraction(1)),
                        partial(_compose, constructions.from_symmetric_complemented, source)))
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
