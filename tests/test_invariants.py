from fractions import Fraction

import pytest

from helpers import in_integer_lattice
from wavesym.canonical import equals
from wavesym.expr import Const, Coord, add, mul, parse, pow_
from wavesym.invariants import (
    NAMED_EXPRESSIONS,
    WeightedBlock,
    ZeroCandidateError,
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


# --- functional independence --------------------------------------------------

def test_basis_is_functionally_independent():
    assert functional_independence([R1_CORRECTED, R2], JetSpace(2))


def test_powers_are_dependent():
    assert not functional_independence([R, pow_(R, 2)], JetSpace(2))


def test_single_coordinate_is_independent():
    assert functional_independence([Coord("u")], JetSpace(2))


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
