"""Exact linear algebra over the rationals: one sparse elimination, ranks
and integer vectors.

``semi_echelon`` is the package's one elimination over Q, on sparse
vectors (key -> int or Fraction) taken in input order.  It gives both the
bracket decompositions of ``eqalgebra`` and the weight kernels of
``invariants``.  ``rank`` takes integer rows (a row of rationals is scaled
by ``integer_row`` first, which keeps the rank) and brings them to echelon
form by fraction-free (Bareiss) elimination, whose entries are minors of
the integer matrix, so every division is exact.  Nothing in the package
calls ``rank`` or ``rref``: generic ranks are eliminations over integer
polynomials (``eqalgebra._pivot_rows``), and both stay while the
benchmark's per-layer metrics name them; the tests take ``rank`` as oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

Matrix = list[list[Fraction]]
# a row of the semi-echelon form: its pivot key, the row, and the row's
# combination of the input vectors by index
EchelonRow = tuple[object, dict, dict[int, int | Fraction]]


def _integral(q: int | Fraction) -> int | Fraction:
    """q, as an int when integral."""
    return q.numerator if q.denominator == 1 else q


def _add_multiple(target: dict, a: int | Fraction, source: dict) -> None:
    """target += a * source in place, dropping entries that cancel."""
    for key, c in source.items():
        v = target.get(key, 0) + a * c
        if v:
            target[key] = v
        else:
            del target[key]


def reduce_vector(rows: list[EchelonRow], pivots: dict,
                  vector: dict) -> tuple[dict, dict[int, int | Fraction]]:
    """Subtract echelon rows from ``vector`` in order, each row whose pivot
    the residual holds; returns the residual and the combination of the
    input vectors that was subtracted.  Row i is 0 on the pivots of the
    rows before it, so subtracting it brings in only pivots of later rows:
    the smallest index pending is the next row, and rows the vector never
    reaches are not visited."""
    residual = dict(vector)
    removed: dict[int, int | Fraction] = {}
    pending = {pivots[k] for k in residual if k in pivots}
    while pending:
        i = min(pending)
        pending.remove(i)
        pivot, row, combination = rows[i]
        a = residual.get(pivot)
        if a is not None:
            _add_multiple(residual, -a, row)
            _add_multiple(removed, a, combination)
            pending.update(pivots[k] for k in row
                           if k in pivots and k in residual)
    return residual, removed


def semi_echelon(vectors) -> tuple[list[EchelonRow], dict,
                                   dict[int, dict[int, int | Fraction]]]:
    """The semi-echelon form of sparse vectors with mutually comparable
    keys, reduced in input order: (rows, pivot key -> index of its row,
    dependent).  A vector with a residual against the rows before it
    becomes a row, scaled to 1 on its pivot; a pivot where the residual is
    +-1, if there is one, keeps an integer row integral, and entries are
    ints where integral, so elimination runs on integer arithmetic
    wherever it can.  A vector without a residual is in ``dependent``,
    keyed by its index, with its unique combination of the independent
    vectors before it (empty for a zero vector)."""
    rows: list[EchelonRow] = []
    pivots: dict = {}
    dependent: dict[int, dict[int, int | Fraction]] = {}
    for i, vector in enumerate(vectors):
        residual, removed = reduce_vector(rows, pivots, vector)
        if not residual:
            dependent[i] = removed
            continue
        pivot = min(residual, key=lambda k: (abs(residual[k]) != 1, k))
        inv = _integral(Fraction(1) / residual[pivot])
        combination = {j: _integral(-c * inv) for j, c in removed.items()}
        combination[i] = inv
        pivots[pivot] = len(rows)
        rows.append((pivot, {k: _integral(c * inv)
                             for k, c in residual.items()}, combination))
    return rows, pivots, dependent


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices.  Nothing in
    the package calls it; it stays while the benchmark's per-layer metrics
    name it."""
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
    integers by ``integer_row`` first.  The rows are not modified.  Nothing
    in the package calls it; it stays while the benchmark's per-layer
    metrics name it, and the tests rank integer matrices with it."""
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


def primitive_integer_vector(v: list[int | Fraction]) -> tuple[int, ...]:
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
