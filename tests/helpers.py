"""Shared exact-comparison helpers for the test suite."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from wavesym import linalg
from wavesym.canonical import (CanonicalForm, EvaluationPlan, Poly,
                               canonicalize, equals)
from wavesym.expr import ZeroDenominatorError
from wavesym.jetspace import JetSpace
from wavesym.vfields import VectorField


def field_is_zero(f: VectorField) -> bool:
    return all(canonicalize(c).is_zero() for c in f.coefficients.values())


def fields_equal(a: VectorField, b: VectorField) -> bool:
    for v in set(a.coefficients) | set(b.coefficients):
        if not equals(a.coefficient(v), b.coefficient(v)):
            return False
    return True


def fresh_cache(monkeypatch, module, name, maxsize):
    """Rebind ``<module>.<name>`` to an empty LRU cache of its function
    bounded at ``maxsize``, for this test only."""
    cached = functools.lru_cache(maxsize=maxsize)(
        getattr(module, name).__wrapped__)
    monkeypatch.setattr(module, name, cached)
    return cached


def field_combination(*pairs) -> VectorField:
    """Linear combination sum(c * X) of fields on a common chart."""
    coords = set()
    for _, f in pairs:
        coords |= set(f.coefficients)
    out = {}
    for v in coords:
        out[v] = sum((f.coefficient(v) * Fraction(c) for c, f in pairs),
                     canonicalize(0))
    return VectorField(pairs[0][1].space, out)


def polynomial_text(gens, max_degree=2):
    """Strategy: up to three terms with coefficients in -3..3 and degree at
    most ``max_degree`` in each of ``gens`` (coordinates or atom instances
    such as exp(u)), written in the wavesym grammar."""
    term = st.tuples(st.integers(-3, 3).filter(bool),
                     st.lists(st.integers(0, max_degree), min_size=len(gens),
                              max_size=len(gens)))
    return st.lists(term, min_size=1, max_size=3).map(lambda terms: " + ".join(
        "*".join([f"({c})"] + [f"{g}^{e}" for g, e in zip(gens, exps) if e])
        for c, exps in terms))


def fraction_text(gens, max_degree=2):
    """Strategy: a quotient of two ``polynomial_text`` strings."""
    poly = polynomial_text(gens, max_degree)
    return st.tuples(poly, poly).map(lambda pair: f"({pair[0]})/({pair[1]})")


def sympy_of(text):
    """sympy's reading of a wavesym-grammar string over the order-2 chart;
    skips the test when sympy is absent."""
    sympy = pytest.importorskip("sympy")
    names = {c: sympy.Symbol(c) for c in JetSpace(2).coordinates}
    return sympy.parse_expr(str(text).replace("^", "**"),
                            local_dict={**names, "exp": sympy.exp})


@functools.cache
def _rational_function_field():
    """sympy's field of rational functions over Q in the order-2 chart
    coordinates and exp of each."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field
    coords = [sympy.Symbol(c) for c in JetSpace(2).coordinates]
    return field(coords + [sympy.exp(c) for c in coords], sympy.QQ)[0]


def rational_function(expr):
    """A sympy expression as an element of that field, where equality is
    decided by sparse polynomial arithmetic rather than ``sympy.cancel``."""
    return _rational_function_field().from_expr(expr)


def agrees(form, expected) -> bool:
    """Whether a form (or a wavesym-grammar string) and a sympy expression
    are the same rational function.  Their difference is tested, not the
    two elements: the field does not fix the sign of a denominator, so
    1/(1 - sigma) and -1/(sigma - 1) compare unequal."""
    return not rational_function(sympy_of(form)) - rational_function(expected)


def in_integer_lattice(vector, basis) -> bool:
    """Whether ``vector`` is an integer combination of the basis vectors
    (enough for the rank-one kernels exercised here: check both signs)."""
    if not basis:
        return all(x == 0 for x in vector)
    for b in basis:
        if tuple(vector) == tuple(b) or tuple(-x for x in vector) == tuple(b):
            return True
    return False


def drawn_point(coords, seed, coordinate_range) -> dict[str, int]:
    """The integer point over ``coords`` in -coordinate_range..
    coordinate_range that ``random.Random(seed)`` draws."""
    rng = random.Random(seed)
    return {c: rng.randint(-coordinate_range, coordinate_range)
            for c in coords}


def integer_rows(rows, checks, point) -> list[list[int]]:
    """Sparse rows, column -> entry, at ``point`` as dense integer rows over
    the columns any row holds, each scaled by ``linalg.integer_row``,
    which keeps the rank; ZeroDenominatorError at a pole of a form or a
    zero of a pole check.  An entry is a form, or the terms of an integer
    polynomial, taken as a form over 1.  One ``EvaluationPlan`` evaluates
    the rows and then the checks."""
    cols = sorted(set().union(*rows))
    w = len(cols) or 1
    n = len(rows) * len(cols)
    entries = [CanonicalForm(Poly(e), Poly.const(1)) if isinstance(e, dict)
               else canonicalize(e)
               for row in rows for e in (row.get(c, 0) for c in cols)]
    nums, dens = EvaluationPlan(entries + list(checks)).at(point)
    if 0 in nums[n:]:
        raise ZeroDenominatorError("zero denominator at evaluation point")
    return [linalg.integer_row(list(zip(nums[i:i + w], dens[i:i + w])))
            for i in range(0, n, w)]
