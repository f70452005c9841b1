import functools
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fresh_cache, in_integer_lattice, polynomial_text
from wavesym import canonical, eqalgebra, invariants, vfields
from wavesym.canonical import canonicalize, coordinate, equals
from wavesym.expr import (
    Const,
    Coord,
    DivisionByZeroExpressionError,
    add,
    mul,
    parse,
    pow_,
)
from wavesym.invariants import (
    NAMED_EXPRESSIONS,
    WeightedBlock,
    ZeroCandidateError,
    _verdict,
    candidate_from_exponents,
    compare_sources,
    functional_independence,
    is_absolute,
    relative_weight,
    verify_paper_invariants,
    weight_kernel_search,
)
from wavesym.jetspace import JetSpace
from wavesym.vfields import VectorField

R = NAMED_EXPRESSIONS["R"]
R1_PRINTED = NAMED_EXPRESSIONS["R1_printed"]
R1_CORRECTED = NAMED_EXPRESSIONS["R1_corrected"]
R2 = NAMED_EXPRESSIONS["R2"]


@pytest.fixture(autouse=True)
def fresh_verdicts(monkeypatch):
    """An empty verdict cache of the module's bound for every test, so that
    each test applies the generators it names itself."""
    return fresh_cache(monkeypatch, invariants, "_verdict",
                       _verdict.cache_info().maxsize)


def _counted_verdicts(monkeypatch, maxsize: int = 256) -> tuple[list, object]:
    """An empty verdict cache bounded at ``maxsize`` for this test, and the
    (field, candidate) pair of every verdict it evaluates from here on: a
    call that misses the cache."""
    calls = []
    verdict = _verdict.__wrapped__

    def counted(x, form):
        calls.append((x, form))
        return verdict(x, form)

    cache = functools.lru_cache(maxsize=maxsize)(counted)
    monkeypatch.setattr(invariants, "_verdict", cache)
    return calls, cache


# --- relative weights ---------------------------------------------------------

def test_weight_under_dilation(derived6):
    y3 = derived6.prolonged_named(1)["Y3"]
    assert equals(relative_weight(R, y3), Const(Fraction(-2)))


@pytest.mark.parametrize("k", range(7))
def test_weight_under_family(derived6, k):
    yk = derived6.prolonged_named(1)[f"Y^{k}"]
    expected = parse(f"{k}*u^{k-1}" if k >= 1 else "0", JetSpace(1))
    weight = relative_weight(R, yk)
    assert weight is not None and equals(weight, expected)


def test_not_proportional_gives_none(derived6):
    y2 = derived6.prolonged_named(1)["Y^2"]
    assert relative_weight(Coord("f"), y2) is None


def test_zero_candidate_rejected(derived6):
    y3 = derived6.prolonged_named(1)["Y3"]
    with pytest.raises(ZeroCandidateError):
        relative_weight(parse("u - u", JetSpace(1)), y3)


def test_weights_add_under_products(derived6):
    gens = derived6.prolonged_named(1)
    sigma = Coord("sigma")
    for name in ("Y3", "Y^1", "Y^2"):
        w_sigma = relative_weight(sigma, gens[name])
        w_r = relative_weight(R, gens[name])
        w_product = relative_weight(mul(sigma, R), gens[name])
        assert equals(w_product, w_sigma + w_r)


# --- absoluteness -------------------------------------------------------------

def test_second_component_is_absolute(derived6):
    assert is_absolute(R2, derived6, 2).overall == "absolute"


def test_corrected_first_component_is_absolute(derived6):
    assert is_absolute(R1_CORRECTED, derived6, 2).overall == "absolute"


def test_printed_first_component_is_relative_not_absolute(derived6):
    report = is_absolute(R1_PRINTED, derived6, 2)
    assert report.overall == "relative"
    kind, weight = report.verdicts["Y^2"]
    assert kind == "relative"
    assert equals(weight, parse("-4*u", JetSpace(1)))
    kind, weight = report.verdicts["Y3"]
    assert equals(weight, Const(Fraction(2)))


def test_constant_is_absolute(derived6):
    assert is_absolute(Const(Fraction(1)), derived6, 1).overall == "absolute"


def test_absolute_invariants_form_a_field(derived6):
    combos = [
        add(R1_CORRECTED, R2),
        mul(R1_CORRECTED, R2),
        mul(R1_CORRECTED, pow_(R2, -1)),
    ]
    for combo in combos:
        assert is_absolute(combo, derived6, 2).overall == "absolute"


# --- one verdict per (prolonged generator, candidate) ------------------------

def test_each_generator_is_applied_to_a_candidate_once(monkeypatch):
    """The four named candidates at K = 4..7 take 168 verdicts of 48
    distinct (prolonged field, candidate) pairs, since a generator's field
    is the same at every K that has it: 48 evaluations."""
    calls, _ = _counted_verdicts(monkeypatch)
    verdicts = 0
    for k in range(4, 8):
        g = eqalgebra.build_generators("derived", k)
        for name, expr in NAMED_EXPRESSIONS.items():
            order = 1 if name == "R" else 2
            verdicts += len(is_absolute(expr, g, order).verdicts)
    assert (verdicts, len(calls), len(set(calls))) == (168, 48, 48)


@pytest.mark.parametrize("source, expr, kinds", [
    ("derived", R1_PRINTED, {"absolute", "relative"}),
    ("paper", R, {"absolute", "neither"}),
])
def test_a_weight_reads_the_verdict_of_its_pair(monkeypatch, source, expr,
                                                kinds):
    g = eqalgebra.build_generators(source, 6)
    calls, _ = _counted_verdicts(monkeypatch)
    report = is_absolute(expr, g, 2)
    assert {kind for kind, _ in report.verdicts.values()} == kinds
    calls.clear()
    for name, x in g.prolonged_named(2).items():
        kind, weight = report.verdicts[name]
        expected = canonicalize(0) if kind == "absolute" else weight
        assert relative_weight(expr, x) == expected, name
    assert calls == []


def test_the_verdict_cache_is_bounded_and_an_evicted_verdict_comes_back_equal(
        derived6, monkeypatch):
    assert _verdict.cache_info().maxsize == 256
    calls, cache = _counted_verdicts(monkeypatch, 2)
    first = is_absolute(R1_PRINTED, derived6, 2).verdicts
    assert len(first) > 2 and cache.cache_info().currsize == 2
    calls.clear()
    assert is_absolute(R1_PRINTED, derived6, 2).verdicts == first
    assert len(calls) == len(first) and cache.cache_info().currsize == 2


def test_the_named_candidates_take_no_gcd(monkeypatch):
    """The four named candidates, as forms, at K = 4..7 on both sources:
    336 verdicts, 80 of them evaluated, and not one gcd."""
    forms = {name: canonicalize(e) for name, e in NAMED_EXPRESSIONS.items()}
    sets = [eqalgebra.build_generators(source, k)
            for source in ("derived", "paper") for k in range(4, 8)]
    for g in sets:  # prolong before counting
        g.prolonged_named(2)
    calls, _ = _counted_verdicts(monkeypatch)
    gcds = []
    gcd = canonical.poly_gcd
    monkeypatch.setattr(canonical, "poly_gcd",
                        lambda p, q: gcds.append((p, q)) or gcd(p, q))
    verdicts = 0
    for g in sets:
        for name, form in forms.items():
            order = 1 if name == "R" else 2
            verdicts += len(is_absolute(form, g, order).verdicts)
    assert (verdicts, len(calls), len(gcds)) == (336, 80, 0)


# --- the verdict by two exact divisions against the reduce path ---------------

def _reduced_verdict(x, form):
    """The oracle: X(F) reduced, then X(F)/F reduced."""
    image = vfields.apply(x, form)
    if image.is_zero():
        return "absolute", None
    weight = image / form
    return ("relative", weight) if weight.is_polynomial() else ("neither", None)


# a field whose coefficients are not all over 1, which takes the reduce path
_FALLBACK = VectorField(JetSpace(2), {
    v: parse(text, JetSpace(2)) for v, text in (
        ("u", "u/(sigma + 1)"), ("sigma", "2*sigma"), ("f_sigma", "1/3"))})


def _field(key):
    """The prolonged generator (source, order, name) at K = 4, or the
    fallback field."""
    if key == "fallback":
        return _FALLBACK
    source, order, name = key
    return eqalgebra.build_generators(source, 4).prolonged_named(order)[name]


_FIELD_KEYS = ["fallback"] + [
    (source, order, name) for source in ("derived", "paper")
    for order in (1, 2)
    for name in ("Y0", "Y1", "Y2", "Y3", "Y^0", "Y^1", "Y^2", "Y^3", "Y^4")]

# a rational constant (integer contents != 1 on N and D) times two blocks,
# each relative under some generators and exp atoms among them, to powers
# -2..2, times a drawn polynomial to the power -1, 0 or 1.  The polynomial
# makes most verdicts neither and, to the power -1, puts a numerator that
# divides X(N) over a denominator that does not divide X(D).  Candidates
# stay small: the oracle's gcds grow fast with them.
_BLOCKS = ("sigma", "sigma*f_sigma - f", "f_sigmasigma", "f_u", "exp(u)",
           "exp(sigma)", "u + 1")
_candidate_text = st.builds(
    lambda p, q, blocks, s, poly: f"({p}/{q})" + "".join(
        f"*({b})^{e}" for b, e in blocks if e)
    + (f"*({poly})^{s}" if s else ""),
    st.integers(-6, 6).filter(bool), st.integers(1, 6),
    st.lists(st.tuples(st.sampled_from(_BLOCKS), st.integers(-2, 2)),
             min_size=2, max_size=2),
    st.integers(-1, 1),
    polynomial_text(("u", "sigma", "f", "exp(u)"), max_degree=1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELD_KEYS), _candidate_text)
@example(("derived", 2, "Y^2"), "2*sigma^2*f_sigmasigma/(3*sigma*f_sigma - 3*f)")
@example(("derived", 1, "Y^2"), "(5/3)*(sigma*f_sigma - f)^2*exp(u)")
@example(("derived", 2, "Y^1"), "f_u/(2*f)")
@example(("paper", 1, "Y^3"), "3/(sigma*f_sigma - f)")
@example(("derived", 1, "Y^1"), "(2/5)*u^2/(sigma + u*f_sigma)")
@example("fallback", "(3/2)*sigma*exp(u)/(f + 1)")
def test_the_verdict_by_two_divisions_is_the_reduced_verdict(key, text):
    """The verdict equals the oracle's on every drawn pair; a field with
    every coefficient over 1 is decided without ``apply``, the fallback
    field through it."""
    x = _field(key)
    try:
        form = canonicalize(parse(text, JetSpace(2)))
    except DivisionByZeroExpressionError:
        return
    with mock.patch.object(invariants, "apply",
                           side_effect=vfields.apply) as applied:
        got = _verdict.__wrapped__(x, form)
    assert got == _reduced_verdict(x, form)
    assert applied.called == (key == "fallback")


def test_the_zero_candidate_is_absolute_and_has_no_weight(derived6):
    zero = parse("u - u", JetSpace(1))
    assert is_absolute(zero, derived6, 2).overall == "absolute"
    for x in derived6.prolonged_named(2).values():
        with pytest.raises(ZeroCandidateError):
            relative_weight(zero, x)


# --- functional independence --------------------------------------------------

def test_basis_is_functionally_independent():
    assert functional_independence([R1_CORRECTED, R2], JetSpace(2))


def test_powers_are_dependent():
    assert not functional_independence([R, pow_(R, 2)], JetSpace(2))


def test_single_coordinate_is_independent():
    assert functional_independence([Coord("u")], JetSpace(2))


def test_independence_is_decided_exactly_when_every_sample_misses(
        monkeypatch):
    """Q(u) with Q' = P = prod_{k=-50}^{50} (u - k): the Jacobian entry P
    vanishes at every integer point with u in -50..50, and the exact rank
    over Q(jet) decides, by one elimination per verdict.  So it does for
    u^4/4 - u^2/2, whose entry u^3 - u vanishes at every point of the
    range -1..1."""
    chart = JetSpace(1)
    u = coordinate("u")
    p = prod((u - k for k in range(-50, 51)), start=canonicalize(1))
    # P's monomials hold only u, so each one's total degree is its power
    q = sum((u ** (sum(m) + 1) * Fraction(c, sum(m) + 1)
             for m, c in p.rational_coefficients().items()),
            start=canonicalize(0))
    assert equals(q.diff("u"), p)
    # an empty rank cache, so that each rank is proven here
    fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
    exact = []
    pivot_rows = eqalgebra._pivot_rows
    monkeypatch.setattr(eqalgebra, "_pivot_rows",
                        lambda rows: exact.append(rows) or pivot_rows(rows))
    assert functional_independence([parse("t", chart), q], chart)
    assert not functional_independence([q, q * q], chart)
    assert len(exact) == 2
    candidates = [parse("t", chart), parse("u^4/4 - u^2/2", chart)]
    assert functional_independence(candidates, chart)
    assert len(exact) == 3
    dependent = [parse("u^3 - u", chart), parse("(u^3 - u)^2", chart)]
    assert not functional_independence(dependent, chart)
    assert len(exact) == 4


def test_counting_consistency(derived6):
    from wavesym.eqalgebra import prolonged_rank
    found = [R1_CORRECTED, R2]
    assert functional_independence(found, JetSpace(2))
    assert len(found) <= prolonged_rank(derived6, 2).invariant_count
    assert not functional_independence(found + [mul(R1_CORRECTED, R2)], JetSpace(2))


# --- weight kernel search -------------------------------------------------------

def _scaling(derived6, names=("Y3", "Y^0", "Y^1", "Y^2")):
    gens = derived6.prolonged_named(2)
    return {n: gens[n] for n in names}


def test_kernel_finds_the_corrected_ratio(derived6):
    scaling = _scaling(derived6)
    chart = JetSpace(2)
    blocks = [WeightedBlock.measure(Coord("sigma"), scaling),
              WeightedBlock.measure(R, scaling),
              WeightedBlock.measure(parse("sigma^2*f_sigmasigma", chart), scaling)]
    vectors = weight_kernel_search(blocks, scaling)
    assert in_integer_lattice((0, -1, 1), vectors)
    candidate = candidate_from_exponents(blocks, vectors[0])
    assert is_absolute(candidate, derived6, 2).overall == "absolute"


def test_kernel_of_single_block_is_empty(derived6):
    scaling = _scaling(derived6)
    blocks = [WeightedBlock.measure(Coord("sigma"), scaling)]
    assert weight_kernel_search(blocks, scaling) == []


def test_duplicate_blocks_cancel(derived6):
    scaling = _scaling(derived6)
    blocks = [WeightedBlock.measure(R, scaling), WeightedBlock.measure(R, scaling)]
    vectors = weight_kernel_search(blocks, scaling)
    assert in_integer_lattice((1, -1), vectors)


def test_block_weights_match_hand_values(derived6):
    scaling = _scaling(derived6)
    chart = JetSpace(2)
    block = WeightedBlock.measure(parse("sigma^2*f_sigmasigma", chart), scaling)
    assert equals(block.weights["Y3"], Const(Fraction(-2)))
    assert equals(block.weights["Y^1"], Const(Fraction(1)))
    assert equals(block.weights["Y^2"], parse("2*u", chart))


# --- report bundles -------------------------------------------------------------

def test_verify_bundle_derived():
    bundle = verify_paper_invariants("derived", 6)
    assert bundle["candidates"]["R"]["overall"] == "relative"
    assert bundle["candidates"]["R"]["verdicts"]["Y3"]["weight"] == "-2"
    assert bundle["candidates"]["R2"]["overall"] == "absolute"
    assert bundle["candidates"]["R1_corrected"]["overall"] == "absolute"
    assert bundle["candidates"]["R1_printed"]["overall"] == "relative"
    assert any("corrected form" in d for d in bundle["discrepancies"])


def test_verify_bundle_printed_flags_weight_failure():
    bundle = verify_paper_invariants("paper", 6)
    assert bundle["candidates"]["R"]["overall"] != "relative"
    assert any("not a relative invariant" in d for d in bundle["discrepancies"])


def test_compare_sources_names_the_coefficient_problem():
    bundle = compare_sources(6)
    assert bundle["notes"]
    assert "printed" in bundle["notes"][0]
    assert bundle["derived"]["candidates"]["R2"]["overall"] == "absolute"
