"""Exact linear algebra over Fraction: row reduction, rank and integer
kernels."""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

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
    _, pivots = rref(rows)
    return len(pivots)


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
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // int_gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = int_gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
