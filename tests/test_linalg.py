from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from wavesym.linalg import (
    _fraction_free_pivots,
    integer_row,
    nullspace,
    primitive_integer_vector,
    rank,
    rref,
)

F = Fraction


# --- rref and rank -------------------------------------------------------------

def test_rref_pivots_and_reduced_rows():
    reduced, pivots = rref([[0, 2, 4, 2], [0, 1, 2, 3], [1, 0, 1, 0]])
    assert pivots == [0, 1, 3]
    assert reduced == [[1, 0, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert all(isinstance(v, Fraction) for row in reduced for v in row)


def test_rref_skips_dependent_rows():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert pivots == [0, 1]
    assert reduced == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]


def test_rref_keeps_exact_fractions():
    reduced, pivots = rref([[F(1, 3), F(1, 2)], [F(2, 5), F(-1, 7)]])
    assert pivots == [0, 1]
    assert reduced == [[1, 0], [0, 1]]
    reduced, _ = rref([[3, 1]])
    assert reduced == [[1, F(1, 3)]]


def test_rref_does_not_modify_its_input():
    rows = [[F(2), F(4)], [F(1), F(3)]]
    rref(rows)
    assert rows == [[2, 4], [1, 3]]


def test_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert rank([[0, 0, 0]]) == 0
    assert rank([[]]) == 0


def test_rank_of_wide_and_tall_matrices():
    assert rank([[1, 2, 3, 4], [2, 4, 6, 8]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1], [2, 3]]) == 2
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


# entries from small integers up to about 10^12, integral and rational
_BIG = 10 ** 12
_entries = st.one_of(st.integers(-3, 3), st.integers(-_BIG, _BIG),
                     st.fractions(-_BIG, _BIG, max_denominator=10 ** 4)).map(F)


def _scaled(rows):
    """Rational rows as the integer rows that ``rank`` takes."""
    return [integer_row([(x.numerator, x.denominator) for x in row])
            for row in rows]


def _matrix(nrows, ncols, entries=_entries):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def _rational_matrices(draw):
    """Wide, tall and square matrices up to 8x8; half of them products B*C
    through an inner dimension of at most 3, so rank deficient; some rows
    replaced by zeros."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 3))
        b, c = draw(_matrix(nrows, inner)), draw(_matrix(inner, ncols))
        rows = [[sum((b[i][k] * c[k][j] for k in range(inner)), F(0))
                 for j in range(ncols)] for i in range(nrows)]
    else:
        rows = draw(_matrix(nrows, ncols))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [F(0)] * ncols
    return rows


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_rank_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                              for x in row] for row in rows]).rank()
    ints = _scaled(rows)
    before = [list(row) for row in ints]
    assert rank(ints) == expected
    assert ints == before


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: _matrix(n, n, st.integers(-50, 50))))
@example([[2, 3, 1], [4, 1, 5], [7, 8, -2]])
@example([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
def test_fraction_free_pivots_end_in_the_determinant(a):
    """The k-th Bareiss pivot is a k-minor, so on a square matrix the last
    one is the determinant up to the sign of the row swaps."""
    sympy = pytest.importorskip("sympy")
    det = sympy.Matrix(a).det()
    pivots = _fraction_free_pivots([list(row) for row in a])
    assert len(pivots) == sympy.Matrix(a).rank()
    if det:
        assert abs(pivots[-1]) == abs(det)


# --- nullspace -----------------------------------------------------------------

def test_nullspace_one_vector_per_free_column():
    basis = nullspace([[1, 2, 3], [2, 4, 6]])
    assert basis == [[-2, 1, 0], [-3, 0, 1]]


def test_nullspace_of_full_rank_and_zero_matrices():
    assert nullspace([[1, 0], [0, 1]]) == []
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert nullspace([]) == []


_matrices = st.integers(1, 4).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
    min_size=1, max_size=4))


@settings(max_examples=80, deadline=None)
@given(_matrices)
def test_nullspace_is_kernel_with_rank_nullity(a):
    basis = nullspace(a)
    assert len(basis) + rank(a) == len(a[0])
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    if basis:
        assert rank(_scaled(basis)) == len(basis)


# --- primitive integer vectors -------------------------------------------------

def test_primitive_vector_clears_denominators_and_content():
    assert primitive_integer_vector([F(1, 2), F(-1, 3), F(0)]) == (3, -2, 0)
    assert primitive_integer_vector([F(4), F(6), F(-8)]) == (2, 3, -4)


def test_primitive_vector_first_nonzero_entry_positive():
    assert primitive_integer_vector([F(0), F(-2), F(4)]) == (0, 1, -2)
    assert primitive_integer_vector([F(-5, 7)]) == (1,)


def test_primitive_vector_of_empty_and_zero_vectors():
    assert primitive_integer_vector([]) == ()
    assert primitive_integer_vector([F(0), F(0)]) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1,
                max_size=5))
def test_primitive_vector_is_a_coprime_positive_multiple(v):
    ints = primitive_integer_vector(v)
    assert all(isinstance(x, int) for x in ints)
    if not any(v):
        assert ints == (0,) * len(v)
        return
    g = 0
    for x in ints:
        g = gcd(g, x)
    assert g == 1
    assert next(x for x in ints if x) > 0
    # one rational scale maps v onto ints
    i = next(i for i, x in enumerate(v) if x)
    scale = ints[i] / v[i]
    assert all(x * scale == y for x, y in zip(v, ints))
