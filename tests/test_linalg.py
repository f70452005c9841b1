from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from wavesym.linalg import nullspace, primitive_integer_vector, rank, rref

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
        assert rank(basis) == len(basis)


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
