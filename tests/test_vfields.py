import itertools

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    agrees,
    field_combination,
    field_is_zero,
    fields_equal,
    polynomial_text,
    sympy_of,
)
from wavesym.canonical import canonicalize, equals
from wavesym.expr import (
    ONE,
    ZERO,
    Coord,
    DivisionByZeroExpressionError,
    add,
    mul,
    parse,
)
from wavesym.jetspace import JetSpace
from wavesym.vfields import (
    NotProjectableError,
    PointAction,
    VectorField,
    apply,
    bracket,
    induce_from_point_action,
    prolong,
)

U, T, X = Coord("u"), Coord("t"), Coord("x")
R1 = parse("sigma*f_sigma - f", JetSpace(1))


def derived(name):
    actions = {
        "Y0": PointAction(X, T, ZERO),
        "Y1": PointAction(ONE, ZERO, ZERO),
        "Y2": PointAction(ZERO, ONE, ZERO),
        "Y3": PointAction(T, X, ZERO),
    }
    if name in actions:
        return induce_from_point_action(actions[name])
    k = int(name[2:])
    return induce_from_point_action(
        PointAction(ZERO, ZERO, parse(f"u^{k}" if k else "1", ["u"])))


# --- induce_from_point_action -----------------------------------------------

def test_induce_u_squared_action():
    field = derived("Y^2")
    assert equals(field.coefficient("sigma"), parse("4*u*sigma", JetSpace(0)))
    assert equals(field.coefficient("f"), parse("2*u*f + 2*sigma", JetSpace(0)))


def test_induce_dilation_action():
    field = derived("Y3")
    assert equals(field.coefficient("sigma"), parse("-2*sigma", JetSpace(0)))
    assert equals(field.coefficient("f"), parse("-2*f", JetSpace(0)))


def test_induce_boost_acts_trivially():
    field = derived("Y0")
    assert equals(field.coefficient("sigma"), ZERO)
    assert equals(field.coefficient("f"), ZERO)
    assert equals(field.coefficient("t"), X)
    assert equals(field.coefficient("x"), T)


def test_induce_family_matches_template():
    # eta = phi' f + phi'' sigma and xi_sigma = 2 phi' sigma at phi = u^k
    for k in range(5):
        field = derived(f"Y^{k}")
        phi1 = parse(f"{k}*u^{k-1}" if k >= 1 else "0", ["u"])
        phi2 = parse(f"{k*(k-1)}*u^{k-2}" if k >= 2 else "0", ["u"])
        sigma, f = Coord("sigma"), Coord("f")
        assert equals(field.coefficient("sigma"), mul(2, phi1, sigma))
        assert equals(field.coefficient("f"), add(mul(phi1, f), mul(phi2, sigma)))


def test_non_projectable_action_rejected():
    with pytest.raises(NotProjectableError):
        induce_from_point_action(PointAction(U, ZERO, ZERO))


# --- apply -------------------------------------------------------------------

def test_apply_dilation_to_special_manifold_invariant():
    y3 = prolong(derived("Y3"), 1)
    assert equals(apply(y3, R1), mul(-2, R1))


def test_apply_time_translation_annihilates():
    y1 = prolong(derived("Y1"), 1)
    assert equals(apply(y1, R1), ZERO)


def test_apply_family_weight_one():
    y = prolong(derived("Y^1"), 1)
    assert equals(apply(y, R1), R1)


def test_apply_is_a_derivation():
    space = JetSpace(1)
    y3 = prolong(derived("Y3"), 1)
    f_expr = parse("sigma*f_u + u", space)
    g_expr = parse("f - sigma^2", space)
    lhs = apply(y3, mul(f_expr, g_expr))
    rhs = apply(y3, f_expr) * g_expr + apply(y3, g_expr) * f_expr
    assert equals(lhs, rhs)


# candidates in the order-2 chart with exp(u) factors
_poly_text = polynomial_text(("u", "sigma", "f", "f_sigma", "f_sigmasigma", "exp(u)"))


@settings(max_examples=40, deadline=None)
@given(_poly_text, _poly_text, st.sampled_from(["Y0", "Y3", "Y^0", "Y^2", "Y^3"]))
def test_apply_agrees_with_sympy(num_text, den_text, name):
    """apply(prolonged Y, F) against sympy's sum of c_v * dF/dv."""
    sympy = pytest.importorskip("sympy")
    text = f"({num_text})/({den_text})"
    candidate = parse(text, JetSpace(2))
    try:
        canonicalize(candidate)
    except DivisionByZeroExpressionError:
        return
    y = prolong(derived(name), 2)
    expected = sum((sympy_of(c) * sympy.diff(sympy_of(text), sympy.Symbol(v))
                    for v, c in y.coefficients.items()), sympy.Integer(0))
    assert agrees(apply(y, candidate), expected)


# --- bracket -----------------------------------------------------------------

def test_translations_commute():
    assert field_is_zero(bracket(prolong(derived("Y1"), 1),
                                 prolong(derived("Y2"), 1)))


def test_boost_with_time_translation():
    out = bracket(prolong(derived("Y0"), 1), prolong(derived("Y1"), 1))
    assert fields_equal(out, field_combination((-1, prolong(derived("Y2"), 1))))


def test_family_bracket_recurrence():
    y1 = prolong(derived("Y^1"), 1)
    y2 = prolong(derived("Y^2"), 1)
    assert fields_equal(bracket(y1, y2), y2)


def test_bracket_antisymmetry():
    y3 = prolong(derived("Y3"), 1)
    yk = prolong(derived("Y^2"), 1)
    assert fields_equal(bracket(y3, yk), field_combination((-1, bracket(yk, y3))))


@pytest.mark.parametrize("triple", list(itertools.combinations(
    ["Y0", "Y1", "Y3", "Y^0", "Y^1", "Y^2"], 3)))
def test_jacobi_identity(triple):
    fields = {n: prolong(derived(n), 1) for n in triple}
    x, y, z = (fields[n] for n in triple)
    total = field_combination(
        (1, bracket(x, bracket(y, z))),
        (1, bracket(y, bracket(z, x))),
        (1, bracket(z, bracket(x, y))),
    )
    assert field_is_zero(total)


# --- prolong -----------------------------------------------------------------

def test_prolong_dilation_first_order():
    p = prolong(derived("Y3"), 1)
    assert equals(p.coefficient("f_u"), parse("-2*f_u", JetSpace(1)))
    assert equals(p.coefficient("f_sigma"), ZERO)


def test_prolong_family_first_order():
    p = prolong(derived("Y^1"), 1)
    assert equals(p.coefficient("f_sigma"), parse("-f_sigma", JetSpace(1)))


def test_prolong_restriction():
    p = prolong(derived("Y3"), 1)
    back = prolong(p, 0, given_order=1)
    assert fields_equal(back, derived("Y3"))


def test_prolongation_naturality():
    names = ["Y1", "Y3", "Y^0", "Y^1", "Y^2"]
    base = {n: derived(n) for n in names}
    for a, b in itertools.combinations(names, 2):
        lhs = prolong(bracket(base[a], base[b]), 2)
        rhs = bracket(prolong(base[a], 2), prolong(base[b], 2))
        assert fields_equal(lhs, rhs), (a, b)


def test_coefficients_must_live_on_the_chart():
    with pytest.raises(ValueError):
        VectorField(JetSpace(0), {"f_u": ONE})


def test_point_action_rejects_foreign_coordinates():
    with pytest.raises(ValueError):
        PointAction(parse("sigma", ["sigma"]), ZERO, ZERO)
