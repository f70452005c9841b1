from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wavesym.canonical import canonicalize, equals
from wavesym.expr import (
    AtomApp,
    Const,
    Coord,
    ExpressionSyntaxError,
    Product,
    Sum,
    UnknownIdentifierError,
    ZeroDenominatorError,
    add,
    diff_partial,
    eval_at,
    mul,
    parse,
    pow_,
    substitute,
    to_string,
)
from wavesym.jetspace import JetSpace

CHART1 = JetSpace(1).coordinates
CHART2 = JetSpace(2).coordinates


def test_parse_relative_invariant():
    e = parse("sigma*f_sigma - f", CHART1)
    expected = add(mul(Coord("sigma"), Coord("f_sigma")),
                   mul(Const(Fraction(-1)), Coord("f")))
    assert equals(e, expected)


def test_parse_rational_coefficient():
    e = parse("1/2*u^2", CHART1)
    assert equals(e, mul(Const(Fraction(1, 2)), pow_(Coord("u"), 2)))


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse("u +* f", CHART1)
    assert excinfo.value.position == 3


def test_parse_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError) as excinfo:
        parse("u + bogus", CHART1)
    assert excinfo.value.name == "bogus"


def test_parse_atom_application():
    e = parse("exp(u)*f", CHART1)
    assert AtomApp("exp", "u") in {n for n in _leaves(e)}


def _leaves(e):
    if isinstance(e, (Sum, Product)):
        children = e.terms if isinstance(e, Sum) else e.factors
        for c in children:
            yield from _leaves(c)
    elif hasattr(e, "base"):
        yield from _leaves(e.base)
    else:
        yield e


@pytest.mark.parametrize("text", [
    "sigma*f_sigma - f",
    "1/2*u^2",
    "-3*u - 1/2 + u^-2",
    "(u + sigma)^2/(f - 1)",
    "exp(u)*sigma - 2/3",
    "sigma^2*f_sigmasigma/(sigma*f_sigma - f)",
    "u/2/sigma",
])
def test_print_parse_round_trip(text):
    e = parse(text, CHART2)
    again = parse(to_string(e), CHART2)
    assert equals(e, again)


def test_diff_product_rule():
    e = parse("sigma*f_sigma - f", CHART1)
    assert equals(diff_partial(e, "sigma"), Coord("f_sigma"))
    assert equals(diff_partial(e, "f_sigma"), Coord("sigma"))


def test_diff_atom_rule():
    e = parse("exp(u)*f", CHART1)
    assert equals(diff_partial(e, "u"), parse("exp(u)*f", CHART1))


def test_diff_power_chain():
    e = parse("(u + sigma)^3", CHART1)
    assert equals(diff_partial(e, "u"), parse("3*(u + sigma)^2", CHART1))


def test_substitute_monomial_expansion():
    # phi' at phi = u^2 replaces a stand-in coordinate inside 2*phi'*sigma
    e = parse("2*phi1*sigma", ["phi1", "sigma"])
    out = substitute(e, {"phi1": parse("2*u", ["u"])})
    assert equals(out, parse("4*u*sigma", ["u", "sigma"]))


def test_substitute_identity_binding():
    e = parse("sigma*f_sigma - f", CHART1)
    assert substitute(e, {"u": Coord("u")}) == e


def test_substitute_leaves_jet_coordinates_alone():
    e = parse("sigma*f_sigma - f", CHART1)
    out = substitute(e, {"f": parse("sigma^2", CHART1)})
    assert equals(out, parse("sigma*f_sigma - sigma^2", CHART1))


def test_eval_exact():
    e = parse("sigma*f_sigma - f", CHART1)
    value = eval_at(e, {"sigma": Fraction(2), "f_sigma": Fraction(3),
                        "f": Fraction(1)})
    assert value == Fraction(5)


def test_eval_pole():
    e = parse("1/(sigma - 2)", CHART1)
    with pytest.raises(ZeroDenominatorError):
        eval_at(e, {"sigma": Fraction(2)})


def test_eval_negative_rational():
    assert eval_at(parse("u^2", CHART1), {"u": Fraction(-3, 2)}) == Fraction(9, 4)


def test_eval_atom_value():
    e = parse("exp(u) + u", CHART1)
    assert eval_at(e, {"u": Fraction(2)}, {"exp(u)": Fraction(5)}) == Fraction(7)


# ---------------------------------------------------------------------------
# property tests

_coords = st.sampled_from(["u", "sigma", "f"]).map(Coord)
_consts = st.integers(-4, 4).map(lambda n: Const(Fraction(n)))
_exprs = st.recursive(
    _consts | _coords,
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda ab: add(*ab)),
        st.tuples(child, child).map(lambda ab: mul(*ab)),
        st.tuples(child, st.integers(0, 3)).map(lambda be: pow_(*be)),
    ),
    max_leaves=10,
)


@settings(max_examples=80, deadline=None)
@given(_exprs, _exprs)
def test_addition_commutes_on_canonical_forms(a, b):
    assert canonicalize(add(a, b)) == canonicalize(add(b, a))


@settings(max_examples=80, deadline=None)
@given(_exprs, _exprs, _exprs)
def test_multiplication_distributes_on_canonical_forms(a, b, c):
    assert canonicalize(mul(a, add(b, c))) == canonicalize(add(mul(a, b), mul(a, c)))


@settings(max_examples=80, deadline=None)
@given(_exprs)
def test_canonicalize_idempotent(e):
    cf = canonicalize(e)
    assert canonicalize(parse(str(cf), CHART1)) == cf


@settings(max_examples=80, deadline=None)
@given(_exprs, st.integers(0, 10 ** 6))
def test_equal_expressions_evaluate_equally(e, salt):
    import random
    other = parse(str(canonicalize(e)), CHART1)
    assert equals(e, other)
    rng = random.Random(salt)
    for _ in range(3):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for v in ("u", "sigma", "f")}
        try:
            left = eval_at(e, point)
            right = eval_at(other, point)
        except ZeroDenominatorError:
            continue
        assert left == right


@settings(max_examples=60, deadline=None)
@given(_exprs, st.sampled_from(["u", "sigma", "f"]), st.sampled_from(["u", "sigma", "f"]))
def test_partial_derivatives_commute(e, v, w):
    assert equals(diff_partial(diff_partial(e, v), w),
                  diff_partial(diff_partial(e, w), v))
