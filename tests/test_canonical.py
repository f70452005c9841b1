from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import agrees, fraction_text, sympy_of
from wavesym.canonical import Poly, canonicalize, equals, poly_gcd
from wavesym.expr import (
    AtomArgumentError,
    DivisionByZeroExpressionError,
    UnboundSymbolError,
    ZeroDenominatorError,
    parse,
)
from wavesym.jetspace import JetSpace

CHART2 = JetSpace(2).coordinates


def cf(text):
    return canonicalize(parse(text, CHART2))


def test_polynomial_cancellation():
    form = cf("(u^2 - sigma^2)/(u - sigma)")
    assert form.is_polynomial()
    assert form == cf("u + sigma")


def test_already_polynomial():
    form = cf("sigma*f_sigma - f")
    assert form.is_polynomial()
    assert str(form) == "sigma*f_sigma - f"


def test_self_cancellation():
    assert str(cf("f/f")) == "1"


def test_zero_is_zero_over_one():
    form = cf("u - u")
    assert form.numerator.is_zero()
    assert form.denominator.is_one()


def test_binomial_identity():
    assert equals(parse("(u+sigma)^2", CHART2),
                  parse("u^2 + 2*u*sigma + sigma^2", CHART2))


def test_sign_difference_distinguished():
    assert not equals(parse("sigma*f_sigma - f", CHART2),
                      parse("f - sigma*f_sigma", CHART2))


def test_product_associativity():
    assert equals(parse("sigma^2*f_sigmasigma/(sigma*f_sigma-f)", CHART2),
                  parse("sigma*(sigma*f_sigmasigma)/(sigma*f_sigma-f)", CHART2))


def test_power_cancellation():
    form = cf("(sigma*f_sigma-f)^3/(sigma*f_sigma-f)^2")
    assert form == cf("sigma*f_sigma - f")


def test_multivariate_gcd_cancellation():
    form = cf("(u^2-sigma^2)*(f+u)/((u+sigma)*(f+u)^2)")
    assert str(form) == "(u - sigma)/(u + f)"


def test_rational_content_normalization():
    assert cf("(u+sigma)/2") == cf("(2*u+2*sigma)/4")
    assert cf("(u+sigma)/2").denominator.is_one()


def test_denominator_sign_normalized():
    a = cf("u/(f - sigma)")
    b = cf("-u/(sigma - f)")
    assert a == b
    _, lc = a.denominator.leading()
    assert lc > 0


def test_zero_denominator_raises():
    with pytest.raises(DivisionByZeroExpressionError):
        cf("u/(sigma - sigma)")
    for text in ("0/(sigma - sigma)", "(1 - 1)/(u*sigma - u*sigma)",
                 "u + 0*(1 + 1/(sigma - sigma))"):
        with pytest.raises(DivisionByZeroExpressionError):
            cf(text)
    assert cf("0/sigma + 0*u").is_zero()


def test_idempotence_on_fraction():
    form = cf("sigma^2*f_sigmasigma/(sigma*f_sigma - f)")
    assert canonicalize(form.to_expr()) == form


def test_atoms_are_independent_indeterminates():
    assert cf("exp(u)^2 - exp(u)*exp(u)").is_zero()
    assert not cf("exp(u) - exp(sigma)").is_zero()


def test_deglex_printing_order():
    assert str(cf("(u+sigma)^2")) == "u^2 + 2*u*sigma + sigma^2"
    assert str(cf("f + sigma*f_sigma")) == "sigma*f_sigma + f"


def test_poly_gcd_symmetry_up_to_unit():
    p = canonicalize(parse("(u+sigma)*(f-u)^2", CHART2)).numerator
    q = canonicalize(parse("(u+sigma)^2*(f-u)", CHART2)).numerator
    g = poly_gcd(p, q)
    expected = canonicalize(parse("(u+sigma)*(f-u)", CHART2)).numerator
    ratio = [c / expected.terms[m] for m, c in g.terms.items() if m in expected.terms]
    assert g.terms.keys() == expected.terms.keys()
    assert len(set(ratio)) == 1


# small polynomials in (u, sigma): lists of (coefficient, deg u, deg sigma)
_terms = st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                            st.integers(0, 3), st.integers(0, 4)),
                  min_size=1, max_size=3)


def _poly(terms) -> Poly:
    out = Poly()
    for c, eu, es in terms:
        out = out + Poly.const(c) * Poly.var("u") ** eu * Poly.var("sigma") ** es
    return out


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, _terms)
# one pseudo-remainder step in sigma drops the degree by two
@example([(2, 3, 1)], [(-2, 2, 2), (2, 1, 0)], [(2, 0, 3)])
def test_poly_gcd_agrees_with_sympy(a, b, c):
    """gcd(a*b, a*c) against sympy.gcd, up to a rational unit."""
    sympy = pytest.importorskip("sympy")
    u, sigma = sympy.symbols("u sigma")

    def to_sympy(p: Poly):
        return sum((sympy.Rational(k.numerator, k.denominator)
                    * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in m))
                    for m, k in p.terms.items()), sympy.Integer(0))

    p, q = _poly(a) * _poly(b), _poly(a) * _poly(c)
    if p.is_zero() or q.is_zero():
        return
    ours = sympy.Poly(to_sympy(poly_gcd(p, q)), u, sigma)
    theirs = sympy.gcd(sympy.Poly(to_sympy(p), u, sigma),
                       sympy.Poly(to_sympy(q), u, sigma))
    assert ours.monic() == theirs.monic()


def test_canonical_string_reparses():
    form = cf("(-2*sigma^2*f*f_sigmasigma + sigma*(f_u - sigma*f_usigma)"
              " + f*(sigma*f_sigma - f))/(sigma*f_sigma - f)^2")
    again = canonicalize(parse(str(form), CHART2))
    assert again == form


# random rational functions in (u, sigma, f, f_sigma) with exp(u) factors
_fraction_text = fraction_text(("u", "sigma", "f", "f_sigma", "exp(u)"))


def _form_or_skip(text):
    try:
        return cf(text)
    except DivisionByZeroExpressionError:
        return None


@settings(max_examples=60, deadline=None)
@given(_fraction_text, _fraction_text)
def test_form_arithmetic_agrees_with_sympy(a_text, b_text):
    a, b = _form_or_skip(a_text), _form_or_skip(b_text)
    if a is None or b is None:
        return
    sa, sb = sympy_of(a_text), sympy_of(b_text)
    assert agrees(a + b, sa + sb)
    assert agrees(a - b, sa - sb)
    assert agrees(a * b, sa * sb)
    assert agrees(a ** 2, sa ** 2)
    if b.is_zero():
        with pytest.raises(DivisionByZeroExpressionError):
            a / b
        with pytest.raises(DivisionByZeroExpressionError):
            b ** -1
    else:
        assert agrees(a / b, sa / sb)
        assert b ** -2 == cf(f"({b_text})^-2")


@settings(max_examples=60, deadline=None)
@given(_fraction_text, st.sampled_from(("u", "sigma", "f", "f_sigma")))
def test_form_diff_agrees_with_sympy(text, v):
    sympy = pytest.importorskip("sympy")
    form = _form_or_skip(text)
    if form is None:
        return
    assert agrees(form.diff(v), sympy.diff(sympy_of(text), sympy.Symbol(v)))


@settings(max_examples=60, deadline=None)
@given(_fraction_text, _fraction_text, st.booleans())
def test_equals_agrees_with_sympy(a_text, b_text, rewrite):
    """equals compares canonical forms; it must agree with sympy.cancel both
    on unrelated pairs and on a rewriting of the same function."""
    sympy = pytest.importorskip("sympy")
    if rewrite:  # the same function, multiplied through by b/b
        b_text = f"({a_text})*({b_text})/({b_text})"
    a, b = _form_or_skip(a_text), _form_or_skip(b_text)
    if a is None or b is None:
        return
    expected = sympy.cancel(sympy_of(a_text) - sympy_of(b_text)) == 0
    assert equals(a, b) == expected
    assert equals(a, parse(b_text, CHART2)) == expected


# bindings of degree at most 1 in each of (u, sigma): they include the
# push-forwards under affine phi, u -> (u - b)/a and sigma -> sigma/(c*a^2)
_uv_binding_text = fraction_text(("u", "sigma"), max_degree=1)


@settings(max_examples=60, deadline=None)
@given(fraction_text(("u", "sigma")), _uv_binding_text, _uv_binding_text)
def test_substitute_agrees_with_sympy(text, u_text, sigma_text):
    """Simultaneous substitution of forms for (u, sigma) is sympy's
    subs(..., simultaneous=True), cancelled; a denominator that vanishes
    identically after substitution raises."""
    sympy = pytest.importorskip("sympy")
    form, u_form, sigma_form = map(_form_or_skip, (text, u_text, sigma_text))
    if form is None or u_form is None or sigma_form is None:
        return
    u, sigma = sympy.symbols("u sigma")
    images = {u: sympy_of(u_form), sigma: sympy_of(sigma_form)}
    num, den = sympy.fraction(sympy_of(form))
    den_image = sympy.cancel(den.subs(images, simultaneous=True))
    bindings = {"u": u_form, "sigma": sigma_form}
    if den_image == 0:
        with pytest.raises(DivisionByZeroExpressionError):
            form.substitute(bindings)
    else:
        assert agrees(form.substitute(bindings),
                      num.subs(images, simultaneous=True) / den_image)


def test_substitute_renames_a_bound_atom_argument():
    assert cf("exp(u)*sigma").substitute({"u": cf("u"), "sigma": cf("2*sigma")}) \
        == cf("2*exp(u)*sigma")
    assert cf("exp(u) + u").substitute({"u": cf("sigma")}) == cf("exp(sigma) + sigma")


def test_substitute_into_an_atom_argument_raises():
    with pytest.raises(AtomArgumentError):
        cf("exp(u) + sigma").substitute({"u": cf("2*u")})


# points of small rationals on the coordinates of _eval_text
_eval_coords = ("u", "sigma", "f", "f_sigma")
_eval_text = fraction_text(_eval_coords)
_points = st.lists(st.fractions(-5, 5, max_denominator=4), min_size=4,
                   max_size=4).map(lambda values: dict(zip(_eval_coords, values)))


@settings(max_examples=80, deadline=None)
@given(_eval_text, _points)
@example("(u^2 - u)/(u)", {"u": Fraction(0), "sigma": Fraction(1),
                           "f": Fraction(1), "f_sigma": Fraction(1)})
@example("(u*sigma)/(2*u - 1)", {"u": Fraction(1, 2), "sigma": Fraction(3),
                                 "f": Fraction(0), "f_sigma": Fraction(0)})
def test_eval_at_agrees_with_sympy(text, point):
    """The value of the reduced form is the value of sympy's cancelled
    fraction; a pole of that fraction raises ZeroDenominatorError."""
    sympy = pytest.importorskip("sympy")
    form = _form_or_skip(text)
    if form is None:
        return
    subs = {sympy.Symbol(v): sympy.Rational(x.numerator, x.denominator)
            for v, x in point.items()}
    num, den = sympy.fraction(sympy.cancel(sympy_of(text)))
    den_value = den.subs(subs)
    if den_value == 0:
        with pytest.raises(ZeroDenominatorError):
            form.eval_at(point)
        return
    value = form.eval_at(point)
    assert isinstance(value, Fraction)
    assert value == num.subs(subs) / den_value


def test_eval_at_takes_integer_and_rational_values():
    form = cf("(u^2*sigma - 1/3)/(2*sigma + f)")
    assert form.eval_at({"u": 2, "sigma": Fraction(1, 2), "f": 3}) == Fraction(5, 12)
    assert form.eval_at({"u": Fraction(-1), "sigma": 1, "f": Fraction(1, 4)}) \
        == Fraction(8, 27)


def test_eval_at_pole_raises():
    with pytest.raises(ZeroDenominatorError,
                       match="^zero denominator at evaluation point$"):
        cf("u/(sigma - 1)").eval_at({"u": 2, "sigma": 1})


def test_eval_at_names_the_first_unbound_generator():
    with pytest.raises(UnboundSymbolError,
                       match="^coordinate 'sigma' is unbound$"):
        cf("u*sigma + f").eval_at({"u": 1, "f": 2})
    with pytest.raises(UnboundSymbolError, match=r"^atom 'exp\(u\)' is unbound$"):
        cf("exp(u)*sigma + f_sigma").eval_at({"u": 1, "sigma": 2})
    with pytest.raises(UnboundSymbolError,
                       match="^coordinate 'sigma' is unbound$"):
        cf("sigma*exp(u) + f").eval_at({"u": 1})
    with pytest.raises(UnboundSymbolError, match="^coordinate 'u' is unbound$"):
        cf("1/(u + 1)").eval_at({})
