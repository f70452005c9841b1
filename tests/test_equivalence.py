import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (agrees, fraction_text, polynomial_text, rational_function,
                     sympy_of)
from wavesym import equivalence
from wavesym.canonical import CanonicalForm, canonicalize, coordinate, equals
from wavesym.equivalence import (
    DegenerateEquationError,
    EquationInstance,
    FiniteTransformation,
    NonInvertibleError,
    Verdict,
    affine_transformation,
    apply_finite_transformation,
    check_equivalence,
    classify_corpus,
    pde_residual,
    search_orbit_match,
    signature_of,
)
from wavesym.expr import (
    Const,
    DivisionByZeroExpressionError,
    ExprError,
    ZeroDenominatorError,
    parse,
    substitute,
)

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
                 polynomial_text(("u", "sigma"))).map(
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
    r = sigma * f_s - f
    r_is_zero = not rational_function(r)
    sig = signature_of(instance)
    assert sig.degenerate == r_is_zero
    if not r_is_zero:
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
        transported = substitute(parse(str(before), EQ_CHART),
                                 {"u": w, "sigma": scale})
        assert equals(transported, parse(str(after), EQ_CHART))


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
    first, second = pde_residual(instance, parse(str(sig.rho1), EQ_CHART),
                                 parse(str(sig.rho2), EQ_CHART))
    assert equals(first, Const(Fraction(0)))
    assert equals(second, Const(Fraction(0)))


# --- orbit search and classification -------------------------------------------------

def _orbit_search(a, b):
    """The orbit search as the CLI runs it, on the signatures that
    check_equivalence computed."""
    return search_orbit_match(a, check_equivalence(a, b))


def test_orbit_search_reuses_the_checked_signatures(monkeypatch):
    """The search computes no signature of its inputs, only that of the
    one push-forward confirming its match."""
    a, b = eq("u*sigma^2"), eq("(u - 1)*sigma^2")
    checked = check_equivalence(a, b)
    real = equivalence.signature_of
    seen = []

    def counted(instance):
        seen.append(str(instance))
        return real(instance)

    monkeypatch.setattr(equivalence, "signature_of", counted)
    assert str(search_orbit_match(a, checked)) == "u -> u + 1, sigma scale 1"
    assert seen == ["u*sigma^2 - sigma^2"]


def test_orbit_search_finds_a_shift():
    base = eq("u*sigma^2")
    t = FiniteTransformation(uexpr("u + 1"), uexpr("u - 1"), 1)
    moved = apply_finite_transformation(base, t)
    assert check_equivalence(base, moved).verdict == Verdict.NOT_EQUIVALENT
    found = _orbit_search(base, moved)
    assert found is not None
    assert signature_of(apply_finite_transformation(base, found)).matches(
        signature_of(moved))


def test_orbit_search_gives_up_quietly():
    assert _orbit_search(eq("sigma^2"), eq("sigma^3")) is None


def _rational(numerators, denominators):
    return st.builds(Fraction, numerators, denominators)


@settings(max_examples=25, deadline=None)
@given(fraction_text(EQ_CHART),
       _rational(st.integers(-7, 7).filter(bool), st.integers(1, 5)),
       _rational(st.integers(-7, 7), st.integers(1, 5)),
       _rational(st.integers(1, 7), st.integers(1, 5)))
@example("(u*sigma^2 + sigma^3)/(1)", Fraction(5), Fraction(7, 3), Fraction(3, 2))
def test_pushforward_signature_is_the_signature_after_the_inverse(text, a, b, c):
    """rho1 and rho2 are absolute invariants: the signature of T.f is the
    signature of f composed with T^-1 = {u: (u - b)/a, sigma: sigma/(c*a^2)},
    exactly, also for maps off the search grid."""
    try:
        instance = eq(text)
    except DivisionByZeroExpressionError:
        assume(False)
    sig = signature_of(instance)
    assume(not sig.degenerate)
    moved = signature_of(apply_finite_transformation(
        instance, affine_transformation(a, b, c)))
    inverse = {"u": (coordinate("u") - b) / a,
               "sigma": coordinate("sigma") / (c * a * a)}
    assert moved.rho1 == sig.rho1.substitute(inverse)
    assert moved.rho2 == sig.rho2.substitute(inverse)


def _push_forward_scan(a, b):
    """Reference: the orbit search as one push-forward and one signature per
    grid point, in grid order."""
    sig_b = signature_of(b)
    if sig_b.degenerate:
        return None
    for av, bv, cv in itertools.product(equivalence._ORBIT_SCALES,
                                        equivalence._ORBIT_SHIFTS,
                                        equivalence._ORBIT_DILATIONS):
        t = affine_transformation(av, bv, cv)
        try:
            moved = apply_finite_transformation(a, t)
        except (ExprError, ValueError):
            continue
        if signature_of(moved).matches(sig_b):
            return t
    return None


def _perfbench_workloads():
    """perfbench/workloads.py, read as a module; the benchmark is not a
    package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _orbit_workload_pairs(seed):
    """(f1, f2) of every equiv operation of the orbit-search workload."""
    plan = _perfbench_workloads().orbit_search(seed)
    return [tuple(op.spec["argv"][3:5]) for op in plan.ops]


_RATIONAL_F = "(u+1)*sigma^2/(u^2+sigma)"
_RATIONAL_F_MOVED = str(apply_finite_transformation(
    eq(_RATIONAL_F), affine_transformation(2, -1, 3)))


# rho1 = (2*(u + k) + 6*sigma)/(u + k + 2*sigma) has a pole where
# u + k + 2*sigma = 0; k = 101/858 puts it at T^-1(P) for T = (2, 1, 3), P
# the probe point (7/11, 5/13), and the push-forward by T has its pole at P
_POLE_MAP = (2, 1, 3)
_POLE_F = "sigma^3 + (u + 101/858)*sigma^2"
_POLE_F_MOVED = str(apply_finite_transformation(
    eq(_POLE_F), affine_transformation(*_POLE_MAP)))


_ORBIT_CASES = {
    **{f"workload-seed1-op{i}": pair
       for i, pair in enumerate(_orbit_workload_pairs(1))},
    "exp-u-no-match": ("exp(u) + sigma^2", "exp(u) + 2*sigma^2"),
    "exp-sigma-match": ("exp(sigma)*u + sigma^2", "exp(sigma)*u/4 + sigma^2/2"),
    "degenerate-a": ("u*sigma", "sigma^2"),
    "rational-on-grid": (_RATIONAL_F, _RATIONAL_F_MOVED),
    "match-at-a-pole-of-a": (_POLE_F, _POLE_F_MOVED),
    # rho1 of b = (78*sigma - 20)/(26*sigma - 10) has its pole at P
    "b-pole-at-the-probe": ("sigma^3 + sigma^2", "sigma^3 - 10/13*sigma^2"),
    "one-constant-rho1": ("(u+sigma)^3", "sigma^2"),
}


@pytest.mark.parametrize("f1, f2", list(_ORBIT_CASES.values()), ids=list(_ORBIT_CASES))
def test_orbit_search_agrees_with_the_push_forward_scan(f1, f2):
    found = _orbit_search(eq(f1), eq(f2))
    assert str(found) == str(_push_forward_scan(eq(f1), eq(f2)))


_GRID = list(itertools.product(equivalence._ORBIT_SCALES,
                               equivalence._ORBIT_SHIFTS,
                               equivalence._ORBIT_DILATIONS))


def _probe_point(av, bv, cv):
    """T^-1(P) for the grid map T = (a, b, c) and the search's probe point
    P."""
    p = equivalence._PROBE
    return {"u": (p["u"] - bv) / av, "sigma": p["sigma"] / (cv * av * av)}


def _inverse(av, bv, cv):
    return {"u": (coordinate("u") - bv) / av,
            "sigma": coordinate("sigma") / (Fraction(av) ** 2 * cv)}


def test_pole_cases_put_their_poles_at_the_probe():
    """The probe passes over a pole, so these cases reach the substitution
    test; a probe point moved off their poles would leave them untested."""
    probe = equivalence._PROBE
    for case in ("match-at-a-pole-of-a", "b-pole-at-the-probe"):
        with pytest.raises(ZeroDenominatorError):
            signature_of(eq(_ORBIT_CASES[case][1])).rho1.eval_at(probe)
    with pytest.raises(ZeroDenominatorError):
        signature_of(eq(_POLE_F)).rho1.eval_at(_probe_point(*_POLE_MAP))
    assert str(_orbit_search(eq(_POLE_F), eq(_POLE_F_MOVED))) == (
        "u -> 2*u + 1, sigma scale 3")


@settings(max_examples=30, deadline=None)
@given(fraction_text(EQ_CHART), fraction_text(EQ_CHART),
       st.sampled_from(_GRID), st.sampled_from(_GRID), st.booleans(),
       st.booleans())
@example(f"({_POLE_F})/(1)", "(1)/(1)", _POLE_MAP, _POLE_MAP, True, True)
def test_probe_rejects_only_maps_whose_substitution_differs(
        text_a, text_b, pushed, tested, push, same):
    """Where the probe rejects a grid map T for a component, rho of a
    composed with T^-1 differs from rho of b.  With ``push``, rho of b is
    rho of a composed with the inverse of ``pushed``, the signature of its
    push-forward, and with ``same`` that map is the one tested, where the
    probe must not reject; the example sends the probe onto a pole."""
    try:
        sig_a, sig_b = signature_of(eq(text_a)), signature_of(eq(text_b))
    except DivisionByZeroExpressionError:
        assume(False)
    assume(not sig_a.degenerate and not sig_b.degenerate)
    tested = pushed if same else tested
    for rho_a, rho_b in ((sig_a.rho1, sig_b.rho1), (sig_a.rho2, sig_b.rho2)):
        if push:
            rho_b = rho_a.substitute(_inverse(*pushed))
        probe = equivalence._Probe(rho_a, rho_b)
        if probe.rejects(_probe_point(*tested)):
            assert rho_a.substitute(_inverse(*tested)) != rho_b


def _passes_probe(sig_a, sig_b, point) -> bool:
    """Whether each rho of a at T^-1(P) equals rho of b at P, or has no
    value there."""
    probe = equivalence._PROBE
    for rho_a, rho_b in ((sig_a.rho1, sig_b.rho1), (sig_a.rho2, sig_b.rho2)):
        try:
            if rho_a.eval_at(point) != rho_b.eval_at(probe):
                return False
        except ZeroDenominatorError:
            pass
    return True


def test_orbit_search_substitutes_only_where_the_probe_passes(monkeypatch):
    """At seed 1 of the orbit-search workload a no-match pair (rho1 = n
    against m) substitutes nothing; a match pair substitutes rho1 at each
    grid map up to its match whose probe values agree, and four times in
    the push-forward that confirms the match."""
    real = CanonicalForm.substitute
    calls = []

    def counted(self, bindings):
        calls.append((self, bindings))
        return real(self, bindings)

    monkeypatch.setattr(CanonicalForm, "substitute", counted)
    probe = equivalence._PROBE
    for f1, f2 in _orbit_workload_pairs(1):
        a, b = eq(f1), eq(f2)
        checked = check_equivalence(a, b)
        sig_a, sig_b = checked.signature_a, checked.signature_b
        calls.clear()
        found = search_orbit_match(a, checked)
        if found is None:
            assert calls == []
            continue
        end = _GRID.index((found.phi.diff("u").eval_at({}),
                           found.phi.eval_at({"u": 0}), found.dilation)) + 1
        points = [_probe_point(*m) for m in _GRID[:end]]
        passing = [p for p in points if _passes_probe(sig_a, sig_b, p)]
        probed = [{v: form.eval_at(probe) for v, form in bindings.items()}
                  for form, bindings in calls if form is sig_a.rho1]
        assert probed == passing
        others = [form for form, _ in calls
                  if form is not sig_a.rho1 and form is not sig_a.rho2]
        assert len(others) == 4


def test_a_differing_constant_component_ends_the_search_at_once(monkeypatch):
    """T^-1 keeps a constant component constant and a non-constant one
    non-constant, so the search returns before it compiles a probe."""
    monkeypatch.setattr(equivalence, "EvaluationPlan", None)
    for f1, f2 in (("sigma^2", "sigma^3"), ("(u+sigma)^3", "sigma^2"),
                   ("sigma^2", "(u+sigma)^3"), ("sigma^2", "sigma^2 + u")):
        assert _orbit_search(eq(f1), eq(f2)) is None


def test_orbit_search_known_answers():
    """The golden files pin the exp(sigma) match and the degenerate case."""
    assert _orbit_search(eq("exp(u) + sigma^2"),
                         eq("exp(u) + 2*sigma^2")) is None
    assert _orbit_search(eq(_RATIONAL_F), eq(_RATIONAL_F_MOVED)) is not None


def test_orbit_search_returns_only_a_confirmed_match(monkeypatch):
    """u*sigma^2 against (u - 1)*sigma^2 has two grid matches, u -> u + 1 and
    u -> -u + 1.  A push-forward that disagrees with the invariants rejects
    each candidate in turn, so the search keeps scanning and ends empty."""
    calls = []

    def wrong(instance, t):
        calls.append(str(t))
        return eq("sigma^3")

    monkeypatch.setattr(equivalence, "apply_finite_transformation", wrong)
    assert _orbit_search(eq("u*sigma^2"), eq("(u - 1)*sigma^2")) is None
    assert calls == ["u -> u + 1, sigma scale 1", "u -> -u + 1, sigma scale 1"]


def test_orbit_search_scans_on_past_an_unconfirmed_candidate(monkeypatch):
    real = equivalence.apply_finite_transformation
    calls = []

    def wrong_once(instance, t):
        calls.append(str(t))
        return eq("sigma^3") if len(calls) == 1 else real(instance, t)

    monkeypatch.setattr(equivalence, "apply_finite_transformation", wrong_once)
    found = _orbit_search(eq("u*sigma^2"), eq("(u - 1)*sigma^2"))
    assert str(found) == "u -> -u + 1, sigma scale 1"


def test_orbit_grid_matches_the_benchmark_grid():
    """The orbit-search workload places its matches at grid positions of its
    own copy of the grid; the two copies must not drift apart."""
    workloads = _perfbench_workloads()
    assert workloads.ORBIT_SCALES == equivalence._ORBIT_SCALES
    assert workloads.ORBIT_SHIFTS == equivalence._ORBIT_SHIFTS
    assert workloads.ORBIT_DILATIONS == equivalence._ORBIT_DILATIONS


def test_classify_corpus():
    records = classify_corpus(["sigma^2", "3*sigma^2", "sigma^3", "", "sigma"])
    ids = [r["class_id"] for r in records]
    assert ids[0] == ids[1] != ids[2]
    assert records[-1]["degenerate"] and ids[-1] == "degenerate"
    assert len({i for i in ids if i != "degenerate"}) == 2


def test_classify_empty():
    assert classify_corpus([]) == []


def class_id_of(sig) -> str:
    return equivalence._class_id(sig.as_dict())


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
