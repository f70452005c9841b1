import math
import sys
from fractions import Fraction

import pytest
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from helpers import agrees, fraction_text, polynomial_text, sympy_of
from wavesym import canonical
from wavesym.canonical import Poly, canonicalize, equals, parse_form, poly_gcd
from wavesym.expr import (
    AtomApp,
    AtomArgumentError,
    Const,
    Coord,
    DivisionByZeroExpressionError,
    ExprError,
    NumberTooLongError,
    UnboundSymbolError,
    ZeroDenominatorError,
    add,
    mul,
    parse,
    pow_,
    to_string,
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
    form = cf("(u+sigma)/2")
    assert form.numerator == cf("u + sigma").numerator
    assert form.denominator == Poly.const(2)
    assert form.is_polynomial()
    assert str(form) == "1/2*u + 1/2*sigma"


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
                 "u + 0*(1 + 1/(sigma - sigma))", "(1/(sigma - sigma))^-1",
                 "(u/(sigma - sigma))^0*sigma^2", "0^-2", "(1/0)^0"):
        for read in (cf, lambda text: parse_form(text, CHART2)):
            with pytest.raises(DivisionByZeroExpressionError,
                               match="^negative power of an identically zero "
                                     "expression$"):
                read(text)
    assert cf("0/sigma + 0*u").is_zero()
    assert cf("(sigma - sigma)^0") == cf("0^0") == cf("1")


def test_idempotence_on_fraction():
    form = cf("sigma^2*f_sigmasigma/(sigma*f_sigma - f)")
    assert cf(str(form)) == form


def test_atoms_are_independent_indeterminates():
    assert cf("exp(u)^2 - exp(u)*exp(u)").is_zero()
    assert not cf("exp(u) - exp(sigma)").is_zero()


def test_deglex_printing_order():
    assert str(cf("(u+sigma)^2")) == "u^2 + 2*u*sigma + sigma^2"
    assert str(cf("f + sigma*f_sigma")) == "sigma*f_sigma + f"


def test_queries_on_an_absent_name_are_trivial_and_do_not_grow_the_table():
    p = cf("u^2 + sigma").numerator
    size = len(canonical._NAMES)
    assert p.degree_in("not_a_generator") == 0
    assert p.coeffs_in("not_a_generator") == {0: p}
    assert p.diff("not_a_generator").is_zero()
    assert len(canonical._NAMES) == size


def test_poly_gcd_symmetry_up_to_unit():
    p = canonicalize(parse("(u+sigma)*(f-u)^2", CHART2)).numerator
    q = canonicalize(parse("(u+sigma)^2*(f-u)", CHART2)).numerator
    g = poly_gcd(p, q)[0]
    expected = canonicalize(parse("(u+sigma)*(f-u)", CHART2)).numerator
    ratio = [Fraction(c, expected.terms[m]) for m, c in g.terms.items()
             if m in expected.terms]
    assert g.terms.keys() == expected.terms.keys()
    assert len(set(ratio)) == 1


# small polynomials: lists of (coefficient, exponents of _GCD_GENS in order);
# a term shorter than _GCD_GENS leaves the remaining generators out
_GCD_GENS = ("u", "sigma", "f", "f_sigma", "exp(u)")
_terms = st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                            st.integers(0, 3), st.integers(0, 4),
                            st.integers(0, 2), st.integers(0, 1),
                            st.integers(0, 1)),
                  min_size=1, max_size=3)


def _poly(terms) -> Poly:
    out = Poly()
    for c, *exponents in terms:
        term = Poly.const(c)
        for name, e in zip(_GCD_GENS, exponents):
            term = term * Poly.var(name) ** e
        out = out + term
    return out


def _sympy_poly(p: Poly):
    """p as a sympy Poly over _GCD_GENS, each generator a plain symbol; the
    terms are read as (name, exponent) pairs through the printer's view."""
    sympy = pytest.importorskip("sympy")
    gens = [sympy.Symbol(n) for n in _GCD_GENS]
    return sympy.Poly(sum((c * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in pairs))
                           for pairs, c in canonical._named_terms(p)),
                          sympy.Integer(0)), *gens)


def _assert_cofactors(p: Poly, q: Poly):
    """poly_gcd's triple (g, a, b): g*a == p and g*b == q exactly, and g
    primitive with a positive leading coefficient."""
    g, a, b = poly_gcd(p, q)
    assert g * a == p and g * b == q
    assert math.gcd(*g.terms.values()) == 1 and g.leading()[1] > 0
    return g


def _assert_gcd_agrees_with_sympy(p: Poly, q: Poly):
    sympy = pytest.importorskip("sympy")
    ours = _sympy_poly(_assert_cofactors(p, q))
    assert ours.monic() == sympy.gcd(_sympy_poly(p), _sympy_poly(q)).monic()


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, _terms)
# one pseudo-remainder step in sigma drops the degree by two
@example([(2, 3, 1)], [(-2, 2, 2), (2, 1, 0)], [(2, 0, 3)])
# a common factor in all five generators
@example([(1, 1, 0, 1, 0, 1), (-2, 0, 1, 0, 1, 0)],
         [(3, 0, 2, 0, 0, 1), (1, 1, 0, 2, 0, 0)], [(-1, 2, 0, 0, 1, 1)])
def test_poly_gcd_agrees_with_sympy(a, b, c):
    """gcd(a*b, a*c) against sympy.gcd, up to a rational unit."""
    p, q = _poly(a) * _poly(b), _poly(a) * _poly(c)
    if p.is_zero() or q.is_zero():
        return
    _assert_gcd_agrees_with_sympy(p, q)


def test_poly_gcd_over_the_size_guard_takes_the_prs(monkeypatch):
    """The gcd behind rho1 of (u+sigma)^60 estimates far above the guard, so
    the heuristic never sees it and the subresultant PRS answers."""
    f = cf("(u+sigma)^60")
    p = (cf("sigma^2") * f.diff("sigma").diff("sigma")).numerator
    q = (cf("sigma") * f.diff("sigma") - f).numerator
    assert canonical._heu_gcd_bits(p, q) > canonical._HEU_GCD_MAX_BITS
    heuristic_inputs = []
    heuristic = canonical._heu_gcd
    monkeypatch.setattr(canonical, "_heu_gcd", lambda a, b: (
        heuristic_inputs.append((a, b)) or heuristic(a, b)))
    monkeypatch.setattr(canonical, "_GCD_CACHE", {})
    _assert_gcd_agrees_with_sympy(p, q)
    assert (p, q) not in heuristic_inputs and (q, p) not in heuristic_inputs


def test_heuristic_candidate_that_fails_trial_division_is_rejected(monkeypatch):
    """gcd(u, u + 31) starts at xi = 2*1 + 29 = 31, where the integer gcd
    gcd(31, 62) = 31 interpolates to u, which does not divide u + 31; the
    next xi, 169, gives gcd(169, 200) = 1."""
    points = []
    interpolate = canonical._interpolate
    monkeypatch.setattr(canonical, "_interpolate", lambda h, v, xi: (
        points.append(xi) or interpolate(h, v, xi)))
    u = Poly.var("u")
    q = u + Poly.const(31)
    g, a, b = canonical._heu_gcd(u, q)
    assert g * a == u and g * b == q
    assert g.is_one()
    assert points == [31, 169]


# (p, q, gcd) with a one-term argument, as lists of (coefficient, exponents
# of _GCD_GENS)
@pytest.mark.parametrize("p, q, g", [
    # an exp(u) generator
    ([(2, 1, 0, 0, 0, 2)], [(1, 2, 0, 0, 0, 1), (3, 1, 1, 0, 0, 3)],
     [(1, 1, 0, 0, 0, 1)]),
    # negative coefficients
    ([(-6, 2, 1)], [(4, 3), (-2, 1, 2)], [(1, 1)]),
    # both arguments one term
    ([(3, 2, 1)], [(-5, 1, 3, 1)], [(1, 1, 1)]),
    # a gcd of 1
    ([(1, 1, 1)], [(1, 2), (-1, 0, 0, 1)], [(1,)]),
])
def test_one_term_gcd_is_the_monomial_of_least_exponents(monkeypatch, p, q, g):
    """gcd(c*m, q) is the monomial of least exponents over the terms of
    both, found without the cache."""
    cache = {}
    monkeypatch.setattr(canonical, "_GCD_CACHE", cache)
    p, q = _poly(p), _poly(q)
    for args in ((p, q), (q, p)):
        _assert_gcd_agrees_with_sympy(*args)
        assert poly_gcd(*args)[0] == _poly(g)
    assert not cache


def test_heuristic_that_gives_up_falls_back_to_the_prs(monkeypatch):
    """When no evaluation point gives a candidate that divides both inputs,
    the subresultant PRS computes the gcd."""
    points, prs_calls = [], []
    subresultant_gcd = canonical._subresultant_gcd
    monkeypatch.setattr(canonical, "_interpolate", lambda h, v, xi: (
        points.append(xi) or Poly.var(canonical._NAMES[v]) ** 7))
    monkeypatch.setattr(canonical, "_subresultant_gcd", lambda a, b, v: (
        prs_calls.append(v) or subresultant_gcd(a, b, v)))
    monkeypatch.setattr(canonical, "_GCD_CACHE", {})
    p = cf("(u + sigma)*(u - 2*sigma)").numerator
    q = cf("(u + sigma)*(3*u + sigma^2)").numerator
    assert _assert_cofactors(p, q) == cf("u + sigma").numerator
    assert len(points) >= canonical._HEU_GCD_TRIES and prs_calls


def test_gcd_cache_is_bounded_and_evicts_in_place(monkeypatch):
    cache = {}
    monkeypatch.setattr(canonical, "_GCD_CACHE", cache)
    monkeypatch.setattr(canonical, "_GCD_CACHE_MAX_ENTRIES", 4)
    u, sigma = Poly.var("u"), Poly.var("sigma")
    for k in range(1, 13):
        a = u + Poly.const(k) * sigma
        assert poly_gcd(a * (u - sigma), a * (u + sigma ** 2))[0] == a
        assert 0 < len(cache) <= 4
    assert canonical._GCD_CACHE is cache


def test_poly_gcd_of_a_polynomial_with_itself():
    p = cf("-6*u^2*sigma + 4*u*f").numerator
    assert _assert_cofactors(p, p) == cf("3*u^2*sigma - 2*u*f").numerator
    assert poly_gcd(p, p)[1:] == (Poly.const(-2), Poly.const(-2))


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)


def test_gcd_cache_hit_with_swapped_arguments_swaps_the_cofactors(monkeypatch):
    """The cache key is the unordered pair: a second call with the
    arguments swapped is a hit, and its cofactors follow the call's order.
    Each call with two non-constant arguments reads the cache once."""
    cache = _CountingDict()
    monkeypatch.setattr(canonical, "_GCD_CACHE", cache)
    p = cf("(u + sigma)*(u - 2*sigma)*3").numerator
    q = cf("(u + sigma)*(3*u + sigma^2)*2").numerator
    g, a, b = poly_gcd(p, q)
    assert (len(cache), cache.gets) == (1, 1)
    assert poly_gcd(q, p) == (g, b, a)
    assert (len(cache), cache.gets) == (1, 2)
    _assert_cofactors(q, p)
    _assert_cofactors(p, q)
    assert cache.gets == 4
    # a trivial gcd is cached without cofactors: they are the arguments
    r = cf("u*sigma + 1").numerator
    assert poly_gcd(r, p) == (Poly.const(1), r, p)
    assert poly_gcd(p, r) == (Poly.const(1), p, r)
    assert (len(cache), cache.gets) == (2, 6)
    poly_gcd(p, Poly.const(5))
    poly_gcd(Poly(), q)
    assert cache.gets == 6


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


# The printer writes a form's text straight from its polynomials.  The
# reference is the expression tree it was once printed through, N/d over
# D/d with d the content of D, rendered by expr.to_string.
def _reference_text(form) -> str:
    d = canonical._content(form.denominator)
    num = _reference_tree(form.numerator, d)
    if form.is_polynomial():
        return to_string(num)
    return to_string(mul(num, pow_(_reference_tree(form.denominator, d), -1)))


def _reference_tree(p: Poly, d: int):
    """The tree of p/d, its terms in the printer's order."""
    if p.is_zero():
        return Const(Fraction(0))
    terms = []
    for pairs, c in canonical._named_terms(p):
        factors = [Const(Fraction(c, d))] if c != d or not pairs else []
        for name, e in pairs:
            parts = canonical._atom_parts(name)
            factors.append(pow_(Coord(name) if parts is None
                                else AtomApp(*parts), e))
        terms.append(mul(*factors))
    return add(*terms)


# fractions and polynomials scaled by a rational, so that contents other
# than 1 and constant numerators and denominators are drawn
_printed_text = st.tuples(
    st.one_of(_fraction_text, polynomial_text(_GCD_GENS)),
    st.integers(-6, 6).filter(bool), st.integers(1, 6),
).map(lambda t: f"({t[0]})*({t[1]})/{t[2]}")


@settings(max_examples=200, deadline=None)
@given(_printed_text)
@example("1/u")
@example("-1/u^2")
@example("-1/(u*sigma)")
@example("u/(2*sigma)")
@example("(u+1)/(3*u^2)")
@example("-1/(2*sigma + 2)")
@example("3/(2*u*exp(u))")
@example("0")
def test_printer_matches_the_tree_printer(text):
    form = _form_or_skip(text)
    if form is None:
        return
    assert str(form) == _reference_text(form)


def test_printer_refuses_a_number_too_long_as_the_tree_printer_does():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    big = "9" * (limit // 2 + 1)
    for text in (f"{big}^2*u + sigma", f"u/{big}^2 + 1/sigma"):
        form = cf(text)
        with pytest.raises(NumberTooLongError) as ours:
            str(form)
        with pytest.raises(NumberTooLongError) as reference:
            _reference_text(form)
        assert str(ours.value) == str(reference.value)


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


def _derive_by_fraction_sums(p: Poly, coefficients):
    """sum_v c_v * dp/dv as one fraction sum per generator of p, each on a
    new copy of the numerator; exp(v) contributes c_v * exp(v) *
    dp/dexp(v).  The oracle of the one-pass ``_derive_poly``."""
    num, den = Poly(), Poly.const(1)
    for name in p.variables():
        parts = canonical._atom_parts(name)
        c = coefficients.get(name if parts is None else parts[1])
        if c is None:
            continue
        dp = p.diff(name)
        if parts is not None:
            dp = dp * Poly.var(name)
        num, den = canonical._fraction_sum(num, den, c.numerator * dp,
                                           c.denominator)
    return num, den


# polynomials to derive, zero among them, and coefficients: absent, 1,
# polynomials with exp(u), and fractions, whose denominator may be constant
_derived_text = st.one_of(
    st.just("0"), polynomial_text(("u", "sigma", "f", "exp(u)", "exp(sigma)")))
_coefficient_texts = st.fixed_dictionaries({v: st.one_of(
    st.none(), st.just("1"), polynomial_text(("u", "sigma", "exp(u)")),
    fraction_text(("u", "sigma"))) for v in ("u", "sigma", "f")})


@settings(max_examples=120, deadline=None)
@given(_derived_text, _coefficient_texts)
@example("0", {"u": "(u)/(sigma)", "sigma": "1", "f": None})
# the fractions cancel to 0 over sigma: only the polynomial u is left
@example("u + sigma + f", {"u": "(1)/(sigma)", "sigma": "(-1)/(sigma)",
                           "f": "u"})
@example("exp(u)*u^2 + exp(sigma)*f", {"u": "(u)/(2)", "sigma": "sigma^2",
                                       "f": "(1)/(u + sigma)"})
def test_one_pass_derivation_agrees_with_the_fraction_sums(text,
                                                           coefficient_texts):
    """The one-pass derivation reduces to the oracle's form, and with every
    coefficient over 1 it is the same polynomial over 1."""
    p = cf(text).numerator
    coefficients = {v: _form_or_skip(t)
                    for v, t in coefficient_texts.items() if t is not None}
    if None in coefficients.values():
        return
    got = canonical._derive_poly(p, coefficients)
    expected = _derive_by_fraction_sums(p, coefficients)
    assert canonical._normalized(*got) == canonical._normalized(*expected)
    if all(c.denominator.is_one() for c in coefficients.values()):
        assert got == expected and got[1].is_one()


@settings(max_examples=120, deadline=None)
@given(_derived_text, st.sampled_from(("u", "sigma")))
@example("exp(u)*u^2 - 2*exp(u)*u", "u")
@example("exp(sigma)^2*exp(u)*sigma + f", "sigma")
def test_a_partial_is_the_derivation_by_its_coordinate(text, v):
    """d/dv with the chain rule through exp(v), where exp(u) and
    exp(sigma) are both generators of the table."""
    p = cf(text).numerator
    expected, den = _derive_by_fraction_sums(p, {v: canonical.ONE_FORM})
    assert den.is_one()
    assert canonical._partial(p, v) == expected


@settings(max_examples=60, deadline=None)
@given(_fraction_text, _fraction_text, st.booleans())
def test_equals_agrees_with_sympy(a_text, b_text, rewrite):
    """equals compares canonical forms; it must agree with sympy's field of
    rational functions both on unrelated pairs and on a rewriting of the
    same function."""
    if rewrite:  # the same function, multiplied through by b/b
        b_text = f"({a_text})*({b_text})/({b_text})"
    a, b = _form_or_skip(a_text), _form_or_skip(b_text)
    if a is None or b is None:
        return
    expected = agrees(a_text, sympy_of(b_text))
    assert equals(a, b) == expected
    assert equals(a, parse(b_text, CHART2)) == expected


# bindings of degree at most 2 in each of (u, sigma): they include the
# push-forwards under affine phi, u -> (u - b)/a and sigma -> sigma/(c*a^2)
_uv_binding_text = fraction_text(("u", "sigma"))


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


def _assert_normalized(form):
    """The one normalization rule of a form (N, D): integer coefficients,
    coprime integer contents, lc(D) > 0 and gcd(N, D) constant."""
    num, den = form.numerator, form.denominator
    coefficients = [*num.terms.values(), *den.terms.values()]
    assert all(type(c) is int for c in coefficients)
    assert math.gcd(*coefficients) == 1
    assert den.leading()[1] > 0
    assert poly_gcd(num, den)[0].is_const()


@settings(max_examples=60, deadline=None)
@given(_fraction_text, _fraction_text, st.integers(-3, 3).filter(bool),
       polynomial_text(("u", "sigma")), _uv_binding_text)
def test_normalization_rule_after_every_operation(a_text, b_text, n,
                                                   sigma_text, f_text):
    """Bindings avoid u, the argument of exp(u), which only a coordinate
    may replace."""
    a, b, f_form = map(_form_or_skip, (a_text, b_text, f_text))
    if a is None or b is None or f_form is None:
        return
    bindings = {"sigma": cf(sigma_text), "f": f_form}
    operations = [lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
                  lambda: a / n, lambda: a ** n, lambda: a.diff("u"),
                  lambda: a.diff("sigma"), lambda: a.substitute(bindings)]
    for operation in operations:
        try:
            form = operation()
        except DivisionByZeroExpressionError:  # a zero divisor or base
            continue
        _assert_normalized(form)


def _reduced_by_gcd(num: Poly, den: Poly):
    """The whole reduction of num/den: divided by the gcd's cofactors, then
    by the integer content, with lc(den) made positive."""
    if not num.is_zero():
        _, num, den = poly_gcd(num, den)
    return canonical._content_normalized(num, den)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6).filter(bool),
                          st.integers(0, 3), st.integers(0, 4),
                          st.integers(0, 2), st.integers(0, 1),
                          st.integers(0, 1)), max_size=4))
@example([])                                          # zero
@example([(-4, 0, 0, 0, 0, 0)])                       # a constant
@example([(2, 0, 0, 0, 0, 1), (-6, 1, 0, 0, 0, 1)])   # exp(u), content 2
def test_a_denominator_of_one_takes_no_gcd(terms):
    """An integer polynomial over 1 is already reduced: ``_normalized``
    returns it as it is, takes no gcd, and gives the whole reduction's
    form."""
    num, one = _poly(terms), Poly.const(1)
    expected = _reduced_by_gcd(num, one)
    with mock.patch.object(canonical, "poly_gcd",
                           side_effect=AssertionError("gcd taken")):
        form = canonical._normalized(num, one)
    assert form == expected
    assert form.numerator == num and form.denominator.is_one()
    _assert_normalized(form)


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


# ---------------------------------------------------------------------------
# the two parse paths: text straight to a form, and text to a tree that is
# then canonicalized

_EQ = ("u", "sigma")


def _outcome(read, text):
    """The form ``read`` gives for text on the equation chart, or the class
    and message of the expression error it raises."""
    try:
        return read(text, _EQ)
    except ExprError as exc:
        return type(exc), str(exc)


def _assert_parse_paths_agree(text):
    by_form = _outcome(parse_form, text)
    by_tree = _outcome(lambda t, coords: canonicalize(parse(t, coords)), text)
    assert by_form == by_tree


# the drawn texts, also raised to a power from -2 to 2 and multiplied by
# another, which draws zero and negative powers of quotients, some of them
# over a denominator that cancels to zero
_path_text = st.one_of(fraction_text(_EQ), polynomial_text(_EQ),
                       fraction_text(("u", "sigma", "exp(u)")), _printed_text)
_powered_text = st.tuples(_path_text, st.integers(-2, 2), _path_text).map(
    lambda t: f"({t[0]})^{t[1]}*({t[2]})")


@settings(max_examples=150, deadline=None)
@given(st.one_of(_path_text, _powered_text))
def test_parse_form_agrees_with_the_canonicalized_tree(text):
    _assert_parse_paths_agree(text)


_DEEP = 100  # expr._MAX_NESTING


@pytest.mark.parametrize("text", [
    # zero powers in every position
    "u^0", "0^0", "(sigma - sigma)^0", "u^0*sigma", "sigma*u^0", "u^0 + sigma^0",
    "1/u^0", "(u^0)^-1", "(u^2)^0", "-u^0", "2^0", "(1/u)^0", "(1/0)^0",
    "(0^-1)^0", "exp(u)^0", "(u + 1/(sigma - sigma))^0*u", "sigma^0/(u - u)",
    # ^0 and ^-1 of quotients
    "(u/sigma)^0", "(u/sigma)^-1", "(u/(sigma - sigma))^0",
    "(u/(sigma - sigma))^-1", "((u - u)/sigma)^-1", "((u - u)/sigma)^0",
    "(1/(sigma - sigma))^-1", "((1/u)/(1/sigma))^-1", "(u/sigma)^-1^0",
    "0^-1", "1/0 + sin(u)", "0/(sigma - sigma)", "u/0", "(1/u)^-2",
    # nesting at and past the limit
    "(" * _DEEP + "u" + ")" * _DEEP, "(" * (_DEEP + 1) + "u" + ")" * (_DEEP + 1),
    "-" * _DEEP + "u", "-" * (_DEEP + 1) + "u",
    "(" * _DEEP + "1/(sigma - sigma)" + ")" * _DEEP,
    # a literal of more digits than int() converts, and a long one it does
    "9" * 5000 + "*u", "u^" + "9" * 5000, "7" * 300 + "*u/sigma",
    # identifiers off the equation chart
    "sin(u)", "exp(t)", "t + u", "exp(u)*sigma", "u +", "u * * sigma", "",
])
def test_parse_paths_agree_on_edge_cases(text):
    _assert_parse_paths_agree(text)


def test_parse_form_reads_the_deepest_nesting_and_refuses_one_more():
    assert parse_form("(" * _DEEP + "u" + ")" * _DEEP, _EQ) == cf("u")
    with pytest.raises(ExprError, match="nesting deeper than 100 levels"):
        parse_form("(" * (_DEEP + 1) + "u" + ")" * (_DEEP + 1), _EQ)


# ---------------------------------------------------------------------------
# substitution of diagonal affine maps takes no gcd

_affine_scale = st.fractions(-4, 4, max_denominator=4).filter(bool)
_affine_shift = st.fractions(-4, 4, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(fraction_text(("u", "sigma", "exp(sigma)")), _affine_scale, _affine_shift,
       _affine_scale, _affine_shift, st.sampled_from(["u", "sigma", "both"]))
def test_diagonal_affine_substitution_equals_the_gcd_path(text, a, b, c, d, bound):
    form = _form_or_skip(text)
    if form is None:
        return
    bindings = {}
    if bound != "sigma":
        bindings["u"] = cf("u") * a + b
    if bound != "u":  # exp(sigma) keeps its argument only when sigma -> sigma
        bindings["sigma"] = cf("sigma") * c + d
    try:
        fast = form.substitute(bindings)
    except AtomArgumentError:
        return
    with mock.patch.object(canonical, "_is_diagonal_affine", lambda v, f: False):
        assert form.substitute(bindings) == fast
    _assert_normalized(fast)


def test_diagonal_affine_substitution_calls_no_gcd(monkeypatch):
    calls = []
    gcd = canonical.poly_gcd

    def counted(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(canonical, "poly_gcd", counted)
    form = cf("(u^2 + sigma)/(u*sigma + 1)")
    inverse = {"u": (cf("u") - 1) / 2, "sigma": cf("sigma") / 4}
    assert form.substitute(inverse) == cf(
        "((u - 1)^2/4 + sigma/4)/((u - 1)/2*sigma/4 + 1)")
    assert form.substitute({"u": cf("-u"), "sigma": cf("sigma + 1/3")}) \
        == cf("(u^2 + sigma + 1/3)/(1 - u*(sigma + 1/3))")
    assert form.substitute({}) == form
    swap = {"u": cf("sigma")}
    calls.clear()
    form.substitute(inverse)
    assert calls == []
    swapped = form.substitute(swap)
    assert len(calls) == 1
    assert swapped == cf("(sigma^2 + sigma)/(sigma^2 + 1)")
