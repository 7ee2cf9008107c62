"""The catalog: a table of symmetric designs, and the registry of one design
per parameter row that the paper's two routes reach from it (the Hadamard
pairing and the split at a point).

`registry()` is a plain dict from row key to (label, build), with each key
computed from the parameters of its construction: each of the 22 base
entries, followed by its H(n,2)-complement twin.  Nothing is built until a
build is called; each build runs once, keeps its design and drops its maker,
so a symmetric design is freed once every entry that reads it is built.  The
generator's module `symmetric` is imported only by the first build that
needs it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

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


def registry() -> dict:
    """Row key -> (label, build of a design with first-shell weight 1), with
    nothing built.  The base entries come from SYMMETRIC by three rules:
    first the pairing of each Hadamard 2-design (2k + 1 = v = m; m points of
    weight 1 on shell 2, m + 1 of weight 8/(n+2) on shell m); then each
    design's residual split (k points on shell k-1, v-k on shell k) and
    complemented split (the k moved to shell v-k), of weight 1.  An entry is
    kept when 6 <= n <= 30 and its row is not yet held, and is followed by its
    twin complement(label).  Rows are held in twin pairs and twin_key is an
    involution, so a row is free exactly when its twin's is, and no candidate
    row is its own twin.  So the splits of 2-(7,3,1) give way to
    hadamard[m=3], and at v = 2k + 1 the complemented split, the residual
    split's twin, is dropped."""
    table = [(name, v, k, _Once(source)) for name, v, k, source in SYMMETRIC]
    candidates = [(f"hadamard[m={v}]", (2 * v, 2, v, v, v + 1, Fraction(8, 2 * v + 2)),
                   constructions.hadamard_design, source)
                  for _name, v, k, source in table if 2 * k + 1 == v]
    for name, v, k, source in table:
        candidates += [
            (f"residual({name})", (v - 1, k - 1, k, k, v - k, Fraction(1)),
             constructions.from_symmetric_residual, source),
            (f"complemented({name})", (v - 1, k, v - k, v - k, k, Fraction(1)),
             constructions.from_symmetric_complemented, source)]
    rows = {}
    for label, key, construction, source in candidates:
        if 6 <= key[0] <= 30 and key not in rows:
            base = _Once(partial(_compose, construction, source))
            rows[key] = (label, base)
            rows[twin_key(key)] = (f"complement({label})", _Once(partial(_twin, base, key[5])))
    return rows


class _Once:
    """A build run on its first call, which keeps its result and drops its maker."""

    __slots__ = ("_make", "_result")

    def __init__(self, make):
        self._make = make

    def __call__(self):
        if self._make is not None:
            self._result = self._make()
            self._make = None
        return self._result


def _compose(outer, inner):
    return outer(inner())


def _twin(base, w):
    # the base design has first-shell weight 1 and second-shell weight w
    return scale_weights(complement(base()), 1 / w)


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
