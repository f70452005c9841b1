import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import agrees, polynomial_text, sympy_of
from wavesym.canonical import canonicalize, equals
from wavesym.equivalence import (
    DegenerateEquationError,
    EquationInstance,
    FiniteTransformation,
    NonInvertibleError,
    Verdict,
    affine_transformation,
    apply_finite_transformation,
    check_equivalence,
    class_id_of,
    classify_corpus,
    pde_residual,
    search_orbit_match,
    signature_of,
)
from wavesym.expr import Const, DivisionByZeroExpressionError, parse, substitute

U_ONLY = ("u",)
EQ_CHART = ("u", "sigma")


def eq(text):
    return EquationInstance.from_text(text)


def uexpr(text):
    return parse(text, U_ONLY)


# --- signatures ----------------------------------------------------------------

def test_signature_of_sigma_squared():
    sig = signature_of(eq("sigma^2"))
    assert not sig.degenerate
    assert str(sig.rho1) == "2"
    assert str(sig.rho2) == "-3"


def test_signature_of_sigma_cubed():
    sig = signature_of(eq("sigma^3"))
    assert str(sig.rho1) == "3"


def test_linear_sigma_is_degenerate():
    assert signature_of(eq("sigma")).degenerate


def test_separable_degenerate_family():
    assert signature_of(eq("u^2*sigma")).degenerate


def test_signature_of_u_plus_sigma():
    sig = signature_of(eq("u + sigma"))
    assert str(sig.rho1) == "0"
    assert sig.rho2 == canonicalize(parse("(sigma - sigma*u - u^2)/u^2", EQ_CHART))


def test_signature_of_rational_f_whose_gcd_chains_contents():
    # the gcd behind rho1 computes contents as chains of gcds; it used to
    # carry each gcd's rational unit into the next, and never finished
    sig = signature_of(eq("(5*u + 2)/(3*u*sigma + 2*u + 2)"))
    assert sig.rho1 == canonicalize(parse(
        "-9*u^2*sigma^2/((3*u*sigma + u + 1)*(3*u*sigma + 2*u + 2))", EQ_CHART))


@settings(max_examples=30, deadline=None)
@given(st.tuples(polynomial_text(("u", "sigma")),
                 polynomial_text(("u", "sigma"), max_degree=1)).map(
    lambda pair: f"({pair[0]})/({pair[1]})"))
@example("(sigma^2)/(1)")
@example("((1)*u^2*sigma^1)/((3))")
def test_signature_agrees_with_sympy(text):
    """rho1 = sigma^2*f_sigmasigma/R and the published rho2, evaluated by
    sympy on the same f; the signature is degenerate exactly when R = 0."""
    sympy = pytest.importorskip("sympy")
    try:
        instance = eq(text)
    except DivisionByZeroExpressionError:
        return
    u, sigma = sympy.symbols("u sigma")
    f = sympy_of(instance.f)
    f_s = sympy.diff(f, sigma)
    f_ss = sympy.diff(f_s, sigma)
    r = sympy.cancel(sigma * f_s - f)
    sig = signature_of(instance)
    assert sig.degenerate == (r == 0)
    if r != 0:
        assert agrees(sig.rho1, sigma**2 * f_ss / r)
        f_u, f_su = sympy.diff(f, u), sympy.diff(f_s, u)
        assert agrees(sig.rho2, (-2 * sigma**2 * f * f_ss + sigma * (f_u - sigma * f_su)
                                 + f * r) / r**2)


def test_parameter_function_chart_is_validated():
    with pytest.raises(ValueError):
        EquationInstance(parse("t + sigma", ("t", "sigma")))


# --- the criterion ---------------------------------------------------------------

def test_scaled_equation_is_equivalent():
    assert check_equivalence(eq("sigma^2"), eq("3*sigma^2")).verdict == Verdict.EQUIVALENT


def test_different_powers_are_not_equivalent():
    assert check_equivalence(eq("sigma^2"), eq("sigma^3")).verdict == Verdict.NOT_EQUIVALENT


def test_mixed_degenerate():
    assert check_equivalence(eq("sigma"), eq("u + sigma")).verdict == Verdict.MIXED_DEGENERATE


def test_both_degenerate():
    assert check_equivalence(eq("sigma"), eq("sigma")).verdict == Verdict.BOTH_DEGENERATE


# --- finite transformations ------------------------------------------------------

def test_dilation_only_pushforward():
    t = FiniteTransformation(uexpr("u"), uexpr("u"), Fraction(4))
    out = apply_finite_transformation(eq("sigma^2"), t)
    assert equals(out.f, parse("sigma^2/4", EQ_CHART))


def test_shift_pushforward_translates_u():
    t = FiniteTransformation(uexpr("u + 1"), uexpr("u - 1"), 1)
    moved = apply_finite_transformation(eq("u*sigma^2"), t)
    assert equals(moved.f, parse("(u - 1)*sigma^2", EQ_CHART))


def test_doubling_pushforward():
    t = FiniteTransformation(uexpr("2*u"), uexpr("u/2"), 1)
    out = apply_finite_transformation(eq("sigma^2"), t)
    assert equals(out.f, parse("sigma^2/8", EQ_CHART))


def test_inverse_pair_is_verified():
    with pytest.raises(NonInvertibleError):
        FiniteTransformation(uexpr("u + 1"), uexpr("u + 1"), 1)


def test_constant_phi_rejected():
    with pytest.raises(NonInvertibleError):
        FiniteTransformation(Const(Fraction(5)), Const(Fraction(5)), 1)


def test_dilation_must_be_positive():
    with pytest.raises(ValueError):
        FiniteTransformation(uexpr("u"), uexpr("u"), Fraction(-1))


def test_rational_involution_accepted():
    t = FiniteTransformation(uexpr("1/u"), uexpr("1/u"), 1)
    moved = apply_finite_transformation(eq("sigma^2"), t)
    assert check_equivalence(eq("sigma^2"), moved).verdict == Verdict.EQUIVALENT


def test_wrong_inverse_rejected():
    with pytest.raises(NonInvertibleError):
        FiniteTransformation(uexpr("u^3"), uexpr("u^2"), 1)


def test_pushforward_signature_relation():
    """Signatures transform by (u, sigma) -> (w, sigma/(c*phi'(w)^2))."""
    t = affine_transformation(Fraction(2), Fraction(1), Fraction(3))
    original = eq("u*sigma^2 + sigma^3")
    moved = apply_finite_transformation(original, t)
    sig = signature_of(original)
    sig_moved = signature_of(moved)
    w = uexpr("(u - 1)/2")
    scale = parse("sigma/12", EQ_CHART)  # c*phi'^2 = 3*4
    for before, after in ((sig.rho1, sig_moved.rho1), (sig.rho2, sig_moved.rho2)):
        transported = substitute(before.to_expr(), {"u": w, "sigma": scale})
        assert equals(transported, after.to_expr())


def test_degeneracy_is_transformation_invariant():
    t = affine_transformation(Fraction(-3), Fraction(2), Fraction(1, 2))
    for text in ("sigma", "u^2*sigma"):
        assert signature_of(apply_finite_transformation(eq(text), t)).degenerate


# --- residual checking -------------------------------------------------------------

def test_residual_vanishes_on_own_signature():
    first, second = pde_residual(eq("sigma^2"), parse("2", EQ_CHART),
                                 parse("-3", EQ_CHART))
    assert equals(first, Const(Fraction(0)))
    assert equals(second, Const(Fraction(0)))


def test_residual_measures_offset():
    first, second = pde_residual(eq("sigma^2"), parse("0", EQ_CHART),
                                 parse("-3", EQ_CHART))
    assert equals(first, Const(Fraction(2)))
    assert equals(second, Const(Fraction(0)))


def test_residual_nonconstant_signature():
    first, second = pde_residual(
        eq("u + sigma"), parse("0", EQ_CHART),
        parse("(sigma - sigma*u - u^2)/u^2", EQ_CHART))
    assert equals(first, Const(Fraction(0)))
    assert equals(second, Const(Fraction(0)))


def test_residual_requires_nondegenerate():
    with pytest.raises(DegenerateEquationError):
        pde_residual(eq("sigma"), parse("0", EQ_CHART), parse("0", EQ_CHART))


@pytest.mark.parametrize("text", [
    "sigma^2", "sigma^3", "3*sigma^2", "sigma^2 + 1", "u + sigma",
    "u^2 + sigma", "u*sigma^2", "sigma^2 + u^2", "u + sigma^3",
    "exp(u) + sigma^2", "1/u + sigma^2", "u^3 - sigma^2",
])
def test_residual_vanishes_for_fixture(text):
    instance = eq(text)
    sig = signature_of(instance)
    first, second = pde_residual(instance, sig.rho1.to_expr(), sig.rho2.to_expr())
    assert equals(first, Const(Fraction(0)))
    assert equals(second, Const(Fraction(0)))


# --- orbit search and classification -------------------------------------------------

def test_orbit_search_finds_a_shift():
    base = eq("u*sigma^2")
    t = FiniteTransformation(uexpr("u + 1"), uexpr("u - 1"), 1)
    moved = apply_finite_transformation(base, t)
    assert check_equivalence(base, moved).verdict == Verdict.NOT_EQUIVALENT
    found = search_orbit_match(base, moved)
    assert found is not None
    assert signature_of(apply_finite_transformation(base, found)).matches(
        signature_of(moved))


def test_orbit_search_gives_up_quietly():
    assert search_orbit_match(eq("sigma^2"), eq("sigma^3")) is None


def test_classify_corpus():
    records = classify_corpus(["sigma^2", "3*sigma^2", "sigma^3", "", "sigma"])
    ids = [r["class_id"] for r in records]
    assert ids[0] == ids[1] != ids[2]
    assert records[-1]["degenerate"] and ids[-1] == "degenerate"
    assert len({i for i in ids if i != "degenerate"}) == 2


def test_classify_empty():
    assert classify_corpus([]) == []


def test_class_id_stability():
    a = class_id_of(signature_of(eq("sigma^2")))
    b = class_id_of(signature_of(eq("3*sigma^2")))
    assert a == b == class_id_of(signature_of(eq("sigma^2")))


def test_random_affine_orbit_preserves_constant_signature():
    rng = random.Random(7)
    base = eq("sigma^2")
    for _ in range(10):
        a = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2, 3]))
        b = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        c = Fraction(rng.choice([1, 2, 3, 4, 9]), rng.choice([1, 2, 3]))
        t = affine_transformation(a, b, c)
        moved = apply_finite_transformation(base, t)
        assert check_equivalence(base, moved).verdict == Verdict.EQUIVALENT
