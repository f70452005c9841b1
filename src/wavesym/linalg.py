"""Exact linear algebra over the rationals: row reduction, rank and integer
kernels.

``rank`` takes integer rows; a row of rationals is scaled by the lcm of its
denominators (``integer_row``) first, which keeps the rank.  The rows are
brought to echelon form by fraction-free (Bareiss) elimination, whose
entries are minors of the integer matrix, so every division is exact.
``rref`` and ``nullspace`` keep Fraction entries, since a kernel basis
needs the reduced rows.
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


def rank(rows: list[list[int]]) -> int:
    """Exact rank of a matrix of integers; a row of rationals is scaled to
    integers by ``integer_row`` first.  The rows are not modified."""
    return len(_fraction_free_pivots(rows))


def integer_row(pairs) -> list[int]:
    """A row of rationals given as (numerator, nonzero denominator) pairs,
    times the lcm of its denominators."""
    scale = int_lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs]


def _fraction_free_pivots(rows: list[list[int]]) -> list[int]:
    """Pivots of Bareiss elimination of an integer matrix.  After step k
    every entry of the rows left is the (k+1)-minor on the pivot rows and
    columns so far plus its own row and column, so dividing by the previous
    pivot is exact and the k-th pivot is a k-minor: for a nonsingular
    square matrix the last pivot is the determinant up to sign.

    Each step drops the pivot row and every column up to the pivot's, which
    are zero in the rows left, and builds the rows it changes anew, so the
    input rows are only read.  A row that is zero in the pivot column is
    only scaled by the step, by pivot / previous pivot, and these scalings
    telescope: such a row is kept as it was, with the pivot ``scale`` of
    its last change, and stands for the row times prev / scale, prev the
    previous pivot.  Eliminating with it divides by scale, which is exact,
    and a pivot row is brought up to date before it is used."""
    pivots: list[int] = []
    prev = 1
    live = [(row, 1) for row in rows]
    while live:
        found = next(((c, i) for c in range(len(live[0][0]))
                      for i, (row, _) in enumerate(live) if row[c]), None)
        if found is None:
            break
        c, i = found
        top, scale = live[i]
        if scale != prev:
            top = [x * prev // scale for x in top]
        p = top[c]
        tail = top[c + 1:]
        rest = []
        for k, (row, scale) in enumerate(live):
            a = row[c]
            if not a:
                rest.append((row[c + 1:], scale))
            elif k != i:
                rest.append(([(p * x - a * y) // scale
                              for x, y in zip(row[c + 1:], tail)], p))
        live = rest
        pivots.append(p)
        prev = p
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
    ints = integer_row([(x.numerator, x.denominator) for x in v])
    g = 0
    for x in ints:
        g = int_gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
