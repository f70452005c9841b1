from fractions import Fraction
from math import prod

import pytest

from helpers import fresh_cache, in_integer_lattice
from wavesym import eqalgebra, invariants
from wavesym.canonical import canonicalize, coordinate, equals
from wavesym.expr import Const, Coord, add, mul, parse, pow_
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


def _counted_applications(monkeypatch) -> list:
    """The (field, candidate) pair of every ``apply`` the module makes from
    here on."""
    calls = []
    apply = invariants.apply
    monkeypatch.setattr(invariants, "apply",
                        lambda x, f: calls.append((x, f)) or apply(x, f))
    return calls


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
    is the same at every K that has it: 48 applications."""
    calls = _counted_applications(monkeypatch)
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
    report = is_absolute(expr, g, 2)
    assert {kind for kind, _ in report.verdicts.values()} == kinds
    calls = _counted_applications(monkeypatch)
    for name, x in g.prolonged_named(2).items():
        kind, weight = report.verdicts[name]
        expected = canonicalize(0) if kind == "absolute" else weight
        assert relative_weight(expr, x) == expected, name
    assert calls == []


def test_the_verdict_cache_is_bounded_and_an_evicted_verdict_comes_back_equal(
        derived6, monkeypatch):
    assert _verdict.cache_info().maxsize == 256
    cache = fresh_cache(monkeypatch, invariants, "_verdict", 2)
    first = is_absolute(R1_PRINTED, derived6, 2).verdicts
    assert len(first) > 2 and cache.cache_info().currsize == 2
    calls = _counted_applications(monkeypatch)
    assert is_absolute(R1_PRINTED, derived6, 2).verdicts == first
    assert len(calls) == len(first) and cache.cache_info().currsize == 2


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
    vanishes at every integer point a rank can draw, and the exact rank
    over Q(jet) decides.  So it does for u^4/4 - u^2/2, whose entry
    u^3 - u vanishes at every point of the range -1..1."""
    chart = JetSpace(1)
    u = coordinate("u")
    p = prod((u - k for k in range(-50, 51)), start=canonicalize(1))
    # P's monomials hold only u, so each one's total degree is its power
    q = sum((u ** (sum(m) + 1) * Fraction(c, sum(m) + 1)
             for m, c in p.rational_coefficients().items()),
            start=canonicalize(0))
    assert equals(q.diff("u"), p)
    # fresh plans, so that each rank is proven here
    fresh_cache(monkeypatch, eqalgebra, "_compile", 48)
    exact = []
    form_rank = eqalgebra._form_rank
    monkeypatch.setattr(eqalgebra, "_form_rank",
                        lambda rows: exact.append(rows) or form_rank(rows))
    assert functional_independence([parse("t", chart), q], chart)
    assert not functional_independence([q, q * q], chart)
    assert len(exact) == 2
    monkeypatch.setattr(eqalgebra, "_POINT_RANGE", 1)
    candidates = [parse("t", chart), parse("u^4/4 - u^2/2", chart)]
    assert functional_independence(candidates, chart)
    assert len(exact) == 3
    # 3*u^2 - 1 is nonzero at each point of the range: rank 1 meets its bound
    dependent = [parse("u^3 - u", chart), parse("(u^3 - u)^2", chart)]
    assert not functional_independence(dependent, chart)
    assert len(exact) == 3


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
