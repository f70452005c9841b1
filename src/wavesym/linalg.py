"""Exact linear algebra over the rationals: row reduction, rank and integer
kernels.

``rank`` runs on integers: each row is scaled by the lcm of its
denominators, which keeps the rank, and the rows are brought to echelon
form by fraction-free (Bareiss) elimination, whose entries are minors of
the scaled matrix, so every division is exact.  ``rref`` and ``nullspace``
keep Fraction entries, since a kernel basis needs the reduced rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    """Exact rank of a matrix of rationals."""
    return len(_fraction_free_pivots([_integer_row(row) for row in rows]))


def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators."""
    scale = int_lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _fraction_free_pivots(m: list[list[int]]) -> list[int]:
    """Pivots of Bareiss elimination of an integer matrix, which is
    overwritten.  After step k every entry below the pivot rows is the
    (k+1)-minor on the pivot rows and columns so far plus its own row and
    column, so dividing by the previous pivot is exact and the k-th pivot
    is a k-minor: for a nonsingular square matrix the last pivot is the
    determinant up to sign."""
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            a = row[c]
            m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        pivots.append(p)
        prev = p
        r += 1
        if r == len(m):
            break
    return pivots


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the rational kernel, one vector per free column."""
    if not a:
        return []
    ncols = len(a[0])
    reduced, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def primitive_integer_vector(v: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers; the first nonzero entry
    is made positive."""
    ints = _integer_row(v)
    g = 0
    for x in ints:
        g = int_gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
