"""Generic exact linear algebra, kept as test oracles for the closed forms.

Nothing in the package uses these: the closed forms in `tightdesigns.hamming`
replace them, and the tests compare the two.
"""

from fractions import Fraction


class SingularLeadingMinor(ValueError):
    """A leading principal minor (Gram determinant) is zero."""


def gram_matrix(g) -> list[list[Fraction]]:
    """The (n+1) x (n+1) Gram matrix of GramParameters g, basis order (phi_1..phi_n, phi_0)."""
    n = g.n
    matrix = [[g.c2] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        matrix[i][i] = g.c0
        matrix[i][n] = matrix[n][i] = g.d0
    matrix[n][n] = g.weight_sum
    return matrix


def gram_schmidt_generic(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Gram-Schmidt on an arbitrary exact symmetric Gram matrix.

    Returns (expansion, norms): expansion is a lower unitriangular matrix C
    with h_i = sum_j C[i][j] phi_j, and norms[i] = ||h_{i+1}||^2 equals the
    ratio D_{i+1}/D_i of consecutive Gram determinants.  Raises
    SingularLeadingMinor when some D_j = 0.
    """
    m = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    if any(len(row) != m for row in gram):
        raise ValueError("gram matrix must be square")
    for i in range(m):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise ValueError("gram matrix must be symmetric")
    expansion: list[list[Fraction]] = []
    norms: list[Fraction] = []
    # inner[i][a] = <h_{i+1}, phi_{a+1}>, kept to make each step O(m^2)
    inner: list[list[Fraction]] = []
    for i in range(m):
        coeffs = [Fraction(0)] * m
        coeffs[i] = Fraction(1)
        for j in range(i):
            if norms[j] == 0:
                raise SingularLeadingMinor(f"Gram determinant D_{j + 1} = 0")
            mu = inner[j][i] / norms[j]
            for a in range(j + 1):
                coeffs[a] -= mu * expansion[j][a]
        row_inner = [
            sum(coeffs[a] * gram[a][b] for a in range(i + 1)) for b in range(m)
        ]
        norms.append(sum(coeffs[a] * row_inner[a] for a in range(i + 1)))
        expansion.append(coeffs)
        inner.append(row_inner)
    return expansion, norms
