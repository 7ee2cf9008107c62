"""Feasible parameter rows for tight relative 2-designs on two shells of H(n,2).

A candidate (n, r1, r2, N1) determines every remaining parameter by closed
formulas; the row survives iff the determined values are integral, even
where needed, and within their combinatorial ranges.  Enumerating all
candidates for 6 <= n <= 30 reproduces the complete classification table.

Three of those integrality conditions are divisibilities that the
enumeration steps through directly instead of testing every candidate
(N2 = n + 1 - N1):

- a = r1(n - r2)/n is an integer iff n/gcd(n, r1) divides n - r2, that is,
  iff r2 is a multiple of n/gcd(n, r1);
- alpha1 = 2 r1(n - r1) N1 / (n(N1 - 1)) is an integer only if N1 - 1
  divides 2 r1(n - r1), because gcd(N1 - 1, N1) = 1;
- alpha2 = 2 r2(n - r2) N2 / (n(N2 - 1)) is an integer only if
  N2 - 1 = n - N1 divides 2 r2(n - r2), because gcd(N2 - 1, N2) = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .hamming import binomial

CSV_HEADER = "n,r1,r2,N1,N2,alpha1,alpha2,gamma,w,lambda1,lambda2"


@dataclass(frozen=True)
class ParameterRow:
    """One feasible parameter set, normalized to weight 1 on the first shell.

    w is the weight ratio w_{r2}/w_{r1}; gamma = r2 - r1 + 2a where a is the
    support overlap r1 - |intersection| forced between the two shells.
    """

    n: int
    r1: int
    r2: int
    n1: int
    n2: int
    alpha1: int
    alpha2: int
    gamma: int
    w: Fraction
    lambda1: Fraction
    lambda2: Fraction
    a: int

    @property
    def key(self) -> tuple:
        return (self.n, self.r1, self.r2, self.n1, self.n2, self.w)


def candidate_row(n: int, r1: int, r2: int, n1: int) -> ParameterRow | None:
    """Build the parameter row for (n, r1, r2, N1), or None if infeasible.

    Feasibility requires: alpha_1, alpha_2 even integers within
    [2, 2*min(r, n-r)] for their shells; the overlap parameter
    a = r1(n-r2)/n an integer (it always lies in [0, min(r1, n-r2)]);
    and, when the weight ratio is 1, integral lambda_1, lambda_2 (they are
    then plain counts).
    Fractional lambdas with w != 1 are allowed here and left to the
    nonexistence pipeline.
    """
    if n < 2 or not (1 <= r1 < r2 <= n - 1) or not (2 <= n1 <= n - 1):
        return None
    n2 = n + 1 - n1
    w = Fraction(n1 * r1 * (n - n1) * (n - r1), r2 * (n1 - 1) * (n + 1 - n1) * (n - r2))
    alpha1 = Fraction(2 * (n - r1) * r1 * n1, n * (n1 - 1))
    alpha2 = Fraction(2 * (n - r2) * (n + 1 - n1) * r2, n * (n - n1))
    for alpha, r in ((alpha1, r1), (alpha2, r2)):
        if alpha.denominator != 1:
            return None
        value = int(alpha)
        if value % 2 or not 2 <= value <= 2 * min(r, n - r):
            return None
    a = Fraction(r1 * (n - r2), n)
    if a.denominator != 1:
        return None
    gamma = r2 - r1 + 2 * int(a)
    lambda1 = Fraction(r1 * n1 + w * r2 * n2, n)
    lambda2 = Fraction(binomial(r1, 2) * n1 + w * binomial(r2, 2) * n2, binomial(n, 2))
    if w == 1 and (lambda1.denominator != 1 or lambda2.denominator != 1):
        return None
    return ParameterRow(
        n, r1, r2, n1, n2, int(alpha1), int(alpha2), gamma, w, lambda1, lambda2, int(a)
    )


def enumerate_rows(n_min: int, n_max: int) -> list[ParameterRow]:
    """All feasible rows for n in [n_min, n_max], in (n, r1, r2, N1) lex order.

    Complement pairs are both emitted, matching the classification table.
    Only candidates that meet the three divisibility conditions of the module
    docstring reach `candidate_row`, which still decides feasibility: r2 steps
    through the multiples of n/gcd(n, r1) (a integral), N1 - 1 runs over the
    divisors of 2 r1(n - r1) (alpha1 integral, as gcd(N1 - 1, N1) = 1), and
    n - N1 must divide 2 r2(n - r2) (alpha2 integral, as gcd(N2 - 1, N2) = 1).
    """
    if n_min < 1:
        raise ValueError(f"n must be at least 1, got {n_min}")
    if n_min > n_max:
        raise ValueError("n_min exceeds n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        for r1 in range(1, n):
            step = n // gcd(n, r1)
            twice1 = 2 * r1 * (n - r1)
            n1s = [n1 for n1 in range(2, n) if twice1 % (n1 - 1) == 0]
            # r2 runs over the multiples of step above r1
            for r2 in range(r1 - r1 % step + step, n, step):
                twice2 = 2 * r2 * (n - r2)
                for n1 in n1s:
                    if twice2 % (n - n1) == 0:
                        row = candidate_row(n, r1, r2, n1)
                        if row is not None:
                            rows.append(row)
    return rows


def to_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(map(str, row_to_dict(row).values())) for row in rows)
    return "\n".join(lines) + "\n"


def row_to_dict(row: ParameterRow) -> dict:
    return {
        "n": row.n, "r1": row.r1, "r2": row.r2, "N1": row.n1, "N2": row.n2,
        "alpha1": row.alpha1, "alpha2": row.alpha2, "gamma": row.gamma,
        "w": str(row.w), "lambda1": str(row.lambda1), "lambda2": str(row.lambda2),
    }


def to_json_lines(rows) -> str:
    return "".join(json.dumps(row_to_dict(row)) + "\n" for row in rows)


def to_table(rows) -> str:
    """Aligned text table in the classification table's column order."""
    header = CSV_HEADER.split(",")
    body = [list(map(str, row_to_dict(row).values())) for row in rows]
    widths = [max(len(h), *(len(line[i]) for line in body)) if body else len(h)
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines.extend(fmt.format(*line) for line in body)
    return "\n".join(lines) + "\n"
