import random
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wavesym import eqalgebra, linalg
from wavesym.canonical import (
    CanonicalForm,
    EvaluationPlan,
    Poly,
    canonicalize,
    coordinate,
    equals,
)
from wavesym.cli import main
from wavesym.eqalgebra import (
    MAX_K,
    GeneratorSet,
    NotSolvableError,
    Source,
    build_generators,
    bracket_closed,
    closure_max_k,
    commutator_table,
    expected_relations,
    field_row,
    matrix_rank_at_samples,
    min_truncation,
    minimal_generating_set,
    prolonged_rank,
    rank_on_manifold,
    solve_in_span,
    span_basis,
    verify_commutator_table,
)
from wavesym.expr import (
    AtomArgumentError,
    Coord,
    DivisionByZeroExpressionError,
    ZeroDenominatorError,
    parse,
)
from wavesym.invariants import NAMED_EXPRESSIONS, functional_independence
from wavesym.jetspace import JetSpace
from wavesym.vfields import (PointAction, VectorField, bracket,
                             induce_from_point_action, prolong)

from helpers import (drawn_point, field_combination, fresh_cache,
                     integer_rows)

R_EXPR = parse("sigma*f_sigma - f", JetSpace(1))


# --- construction ------------------------------------------------------------

def test_printed_family_sigma_coefficient():
    g = build_generators("paper", 2)
    y2 = g.field_named("Y^2")
    assert equals(y2.coefficient("sigma"), parse("4*u*sigma", JetSpace(1)))


def test_derived_family_f_coefficient():
    g = build_generators("derived", 1)
    y1 = g.field_named("Y^1")
    assert equals(y1.coefficient("f"), Coord("f"))


def test_derived_zeroth_family_member_is_u_shift():
    g = build_generators("derived", 0)
    y0 = g.field_named("Y^0")
    assert set(y0.coefficients) == {"u"}
    assert equals(y0.coefficient("u"), parse("1", JetSpace(0)))


def test_a_second_build_at_the_k_cap_induces_no_family_field(monkeypatch):
    """A fresh family cache induces Y^0, Y^1 and Y^2 alone, at any K >= 2
    up to the cap, and combines every member above; a set built again,
    once the set cache has lost it, takes every member from the family
    cache and induces none."""
    for name in eqalgebra.STATIC_NAMES:
        eqalgebra._derived_static(name)
    induced = []
    induce = eqalgebra.induce_from_point_action
    monkeypatch.setattr(eqalgebra, "induce_from_point_action",
                        lambda action: induced.append(action) or induce(action))
    u = coordinate("u")
    for K in (2, 3, 8, MAX_K):
        sets = fresh_cache(monkeypatch, eqalgebra, "_generator_set", 16)
        fresh_cache(monkeypatch, eqalgebra, "_derived_family", MAX_K + 1)
        induced.clear()
        first = build_generators("derived", K)
        assert induced == [PointAction(0, 0, u ** k) for k in range(3)], K
        assert build_generators("derived", K) is first
        sets.cache_clear()
        again = build_generators("derived", K)
        assert again is not first and again == first
        assert len(induced) == 3, K


def test_the_combined_family_is_the_induced_family():
    """Every derived member up to the cap, the combination of Y^0, Y^1 and
    Y^2 above Y^2, is the field its point action induces."""
    u = coordinate("u")
    for k in range(MAX_K + 1):
        assert eqalgebra._derived_family(k) == induce_from_point_action(
            PointAction(0, 0, u ** k)), k


@pytest.mark.parametrize("source", ["derived", "paper"])
@pytest.mark.parametrize("K", [*range(9), 12, 30])
def test_the_combined_members_are_the_prolonged_members(source, K):
    """At orders 0 to 6 every field of a set is its base field prolonged on
    its own, whether the set prolonged or combined it; the set passes its
    base-order check, and at order k prolongs the statics and Y^0..Y^J on
    their own, J = k + 2 (3 at order 0 for the printed source)."""
    g = build_generators(source, K)
    s, top = g._family_top()
    assert (s, top) == (4, 2 if source == "derived" else 3)
    for order in range(7):
        assert g.prolonged(order) == tuple(
            prolong(f, order, given_order=g.base_order)
            for f in g.base_fields), order
        explicit = min(K, max(order, g.base_order) + 2)
        assert len(g.prolonged_prefix(order)) == 4 + explicit + 1


def _with_u3_sigma_on_y4(g: GeneratorSet) -> GeneratorSet:
    """g with u^3*sigma added to the sigma-coefficient of its base Y^4."""
    fields = list(g.base_fields)
    y4 = fields[g.names.index("Y^4")]
    fields[g.names.index("Y^4")] = VectorField(y4.space, {
        **y4.coefficients,
        "sigma": y4.coefficient("sigma") + coordinate("u") ** 3
        * coordinate("sigma")})
    return GeneratorSet(g.source, g.truncation, g.names, tuple(fields),
                        g.base_order)


@pytest.mark.parametrize("order", (2, 3))
def test_a_set_that_fails_the_family_identity_prolongs_every_member(order):
    """A hand-built K = 8 set whose base Y^4 is off the family identity
    fails the base-order check, prolongs every member on its own and ranks
    all of them: Y^4 adds one to the generic rank."""
    mutant = _with_u3_sigma_on_y4(build_generators("derived", 8))
    assert mutant._family_top() == (4, 8)
    fields = mutant.prolonged(order)
    assert fields == tuple(prolong(f, order) for f in mutant.base_fields)
    assert mutant.prolonged_prefix(order) == fields
    assert prolonged_rank(mutant, order).rank == order + 7


@pytest.mark.parametrize("source", ["derived", "paper"])
@pytest.mark.parametrize("K", [0, 2, 5, 8, 30])
def test_a_rank_from_the_prefix_is_the_rank_of_every_field(monkeypatch,
                                                           source, K):
    """A rank, off and on the special manifold, reads the prefix alone and
    equals the rank of the matrix of every prolonged field."""
    fresh_cache(monkeypatch, eqalgebra, "_generator_set", 16)
    g = build_generators(source, K)
    for order in range(7):
        coords = JetSpace(order).coordinates
        rank = prolonged_rank(g, order).rank
        assert order not in g._cache
        assert rank == matrix_rank_at_samples(
            g.prolonged(order), coords, family=eqalgebra._family(g, order))
        if order:
            locus = eqalgebra._linear_solve_coordinate(
                canonicalize(R_EXPR), coords)
            assert rank_on_manifold(g, R_EXPR, order).rank == (
                matrix_rank_at_samples(g.prolonged(order), coords,
                                       locus=locus,
                                       family=eqalgebra._family(g, order)))


def test_one_generator_set_per_source_and_truncation(monkeypatch):
    assert build_generators("derived", 5) is build_generators(Source.DERIVED, 5)
    assert build_generators("paper", 5) is not build_generators("derived", 5)
    bound = eqalgebra._generator_set.cache_info().maxsize
    assert bound == 16
    for K in range(2 * bound):
        build_generators("derived", K)
        assert eqalgebra._generator_set.cache_info().currsize <= bound
    # a set evicted and built again has an equal commutator table
    cache = fresh_cache(monkeypatch, eqalgebra, "_generator_set", 1)
    g = build_generators("derived", 5)
    table = commutator_table(g)
    build_generators("paper", 5)
    rebuilt = build_generators("derived", 5)
    assert cache.cache_info().misses == 3
    assert rebuilt is not g and "brackets" not in rebuilt._cache
    assert commutator_table(rebuilt) == table


def test_generator_names():
    g = build_generators("derived", 3)
    assert g.names == ("Y0", "Y1", "Y2", "Y3", "Y^0", "Y^1", "Y^2", "Y^3")


# --- the shared prolongation cache ------------------------------------------

@pytest.mark.parametrize("source", ["derived", "paper"])
def test_cached_tower_matches_a_fresh_prolongation(source):
    g = build_generators(source, 4)
    for order in range(1, 5):
        for name, f, cached in zip(g.names, g.base_fields, g.prolonged(order)):
            fresh = prolong(f, order, given_order=g.base_order)
            assert cached == fresh, (name, order)


def test_a_set_gets_the_prolongations_of_its_own_fields():
    # the cache is keyed by the field, not by the name it has in a set
    g = build_generators("derived", 0)
    y1, y2 = g.field_named("Y1"), g.field_named("Y2")
    g.prolonged(2)
    swapped = GeneratorSet(Source.DERIVED, 0, ("Y1", "Y2"), (y2, y1), 0)
    fields = swapped.prolonged_named(2)
    assert fields["Y1"] == prolong(y2, 2)
    assert fields["Y2"] == prolong(y1, 2)


def test_prolongation_cache_is_bounded_and_evicts(monkeypatch):
    fresh_cache(monkeypatch, eqalgebra, "_generator_set", 16)
    cache = fresh_cache(monkeypatch, eqalgebra, "_prolonged", 4)
    for source in ("derived", "paper"):
        for k in range(3):
            g = build_generators(source, k)
            for order in (3, 2):
                for f, cached in zip(g.base_fields, g.prolonged(order)):
                    assert cached == prolong(f, order, given_order=g.base_order)
                assert 0 < cache.cache_info().currsize <= 4
    assert cache.cache_info().misses > 4
    assert eqalgebra._prolonged is cache


def test_a_set_larger_than_the_cache_prolongs_no_field_twice(monkeypatch):
    fresh_cache(monkeypatch, eqalgebra, "_generator_set", 16)
    fresh_cache(monkeypatch, eqalgebra, "_prolonged", 4)
    calls = []

    def counted(f, order, given_order):
        calls.append((f, order))
        return prolong(f, order, given_order=given_order)

    monkeypatch.setattr(eqalgebra, "prolong", counted)
    g = build_generators("derived", 3)             # 8 fields, bound 4
    for order in (1, 2, 3):
        g.prolonged(order)
        assert len(calls) == order * len(g.base_fields)
        assert len(set(calls)) == len(calls)
    prolonged_rank(g, 3)                           # the set's own tuples
    assert len(calls) == 3 * len(g.base_fields)


# --- the shared rank cache ---------------------------------------------------

def _counted_compile(monkeypatch) -> list:
    """Record the chart of every ``_compile`` call, for this test only."""
    compiled = []
    compile_ = eqalgebra._compile
    monkeypatch.setattr(eqalgebra, "_compile", lambda *key: (
        compiled.append(key[1]) or compile_(*key)))
    return compiled


def test_rank_cache_is_bounded_and_eviction_keeps_ranks(monkeypatch):
    """A rank proven fresh, read back from the cache or proven again after
    it was evicted gives the same report."""
    g = build_generators("derived", 5)
    queries = [(order, seed) for order in (1, 2, 3) for seed in (1, 7)] * 2
    expected = []
    for order, seed in queries:
        eqalgebra._rank.cache_clear()
        expected.append(prolonged_rank(g, order, seed=seed).as_dict())
    cache = fresh_cache(monkeypatch, eqalgebra, "_rank", 2)
    compiled = _counted_compile(monkeypatch)
    got = []
    for order, seed in queries:
        got.append(prolonged_rank(g, order, seed=seed).as_dict())
        assert 0 < cache.cache_info().currsize <= 2
    assert got == expected
    # each order's second seed reads the kept rank; each round evicts
    assert len(compiled) == 6
    assert cache.cache_info().hits == 6
    assert eqalgebra._rank is cache


def test_a_compiled_matrix_keeps_its_rank(monkeypatch):
    """The first rank of a matrix compiles and eliminates it; a second rank
    of that matrix, at another seed, does neither, and a rank evicted from
    a 1-entry cache is compiled and eliminated again, to the same rank."""
    cache = fresh_cache(monkeypatch, eqalgebra, "_rank", 1)
    g = build_generators("derived", 5)
    compiled = _counted_compile(monkeypatch)
    first = prolonged_rank(g, 2, seed=1)
    assert compiled == [JetSpace(2).coordinates]
    with monkeypatch.context() as patch:
        for name in ("_compile", "_pivot_rows"):
            patch.setattr(eqalgebra, name, mock.Mock(
                side_effect=AssertionError("ranked a kept rank")))
        again = prolonged_rank(g, 2, seed=7)
    assert (again.rank, again.seed) == (first.rank, 7)
    assert cache.cache_info().hits == 1
    prolonged_rank(g, 3, seed=7)                   # evicts the order-2 rank
    assert len(compiled) == 2
    assert prolonged_rank(g, 2, seed=7) == again
    assert compiled[2] == compiled[0] == JetSpace(2).coordinates
    assert cache.cache_info().misses == 3


def test_a_minimal_generating_set_leaves_the_rank_cache_alone(monkeypatch):
    """The greedy rows are ranked outside ``_rank``'s cache: after the
    greedy set, the rank the set had before is still a cache hit."""
    cache = fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
    g = build_generators("derived", 5)
    rank = prolonged_rank(g, 3)
    assert minimal_generating_set(g, 3)
    assert cache.cache_info().currsize == 1
    hits = cache.cache_info().hits
    assert prolonged_rank(g, 3) == rank
    assert cache.cache_info().hits == hits + 1


def test_a_set_gets_the_rank_of_its_own_fields(monkeypatch):
    """Ranks are keyed by the fields, not by the names a set gives them: a
    set binding Y0 and Y3 to each other's fields eliminates its own rows.
    (Y1 and Y2 would not show it: their constant entries are compiled into
    pivots, so neither order leaves a row to eliminate.)"""
    cache = fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
    g = build_generators("derived", 0)
    y0, y3 = g.field_named("Y0"), g.field_named("Y3")
    plain = GeneratorSet(Source.DERIVED, 0, ("Y0", "Y3"), (y0, y3), 0)
    swapped = GeneratorSet(Source.DERIVED, 0, ("Y0", "Y3"), (y3, y0), 0)
    coords = JetSpace(2).coordinates
    eliminated = []
    pivot_rows = eqalgebra._pivot_rows
    monkeypatch.setattr(eqalgebra, "_pivot_rows", lambda rows: (
        eliminated.append(rows) or pivot_rows(rows)))

    def rows_of(gens):
        prolonged_rank(gens, 2)
        plan = _plan(gens.prolonged(2), coords, None, None)
        (_, rows), = _oracle_points(plan, coords, samples=1, seed=5)
        return rows

    plain_rows, swapped_rows = rows_of(plain), rows_of(swapped)
    assert cache.cache_info().currsize == 2
    assert swapped_rows == plain_rows[::-1] != plain_rows
    # each rank eliminated its own residual
    plain_residual, swapped_residual = eliminated
    assert swapped_residual == plain_residual[::-1] != plain_residual


def test_the_seed_never_reaches_the_point(monkeypatch):
    """Ranks at orders 1 to 3 and on the special manifold, each at three
    seeds: each matrix is compiled once, on its chart, whatever the seed,
    and every report echoes its own seed."""
    fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
    compiled = _counted_compile(monkeypatch)
    g = build_generators("derived", 5)
    ranks = []
    for seed in (1, 7, 999983):
        reports = [prolonged_rank(g, order, seed=seed) for order in (1, 2, 3)]
        reports.append(rank_on_manifold(g, R_EXPR, 1, seed=seed))
        assert [r.seed for r in reports] == [seed] * 4
        ranks.append([r.rank for r in reports])
    assert ranks == [[7, 8, 9, 6]] * 3
    assert compiled == [JetSpace(order).coordinates for order in (1, 2, 3, 1)]


def test_the_rank_cache_is_keyed_by_the_locus(monkeypatch):
    """The rank on the special manifold and the rank off it share fields,
    chart and family rows, and differ only in the locus: each is its own
    entry, so neither reads the other's rank."""
    cache = fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
    g = build_generators("derived", 6)
    assert [rank_on_manifold(g, R_EXPR, 1).rank, prolonged_rank(g, 1).rank,
            rank_on_manifold(g, R_EXPR, 1).rank] == [6, 7, 6]
    assert (cache.cache_info().misses, cache.cache_info().hits) == (2, 1)


# --- commutator table --------------------------------------------------------

def test_family_bracket_doubles(derived6):
    table = commutator_table(derived6)
    assert table[("Y^0", "Y^2")] == {"Y^1": Fraction(2)}


def test_translation_dilation_bracket(derived6):
    table = commutator_table(derived6)
    assert table[("Y1", "Y3")] == {"Y1": Fraction(1)}


def test_static_generators_commute_with_family(derived6):
    table = commutator_table(derived6)
    for k in range(7):
        assert table[("Y0", f"Y^{k}")] == {}


def test_derived_table_reproduces_every_relation(derived6):
    report = verify_commutator_table(derived6)
    assert report["all_exact"]
    assert report["relations_checked"] == len(expected_relations(6)) == 49


def test_outside_span_lists_the_brackets_the_table_leaves_out(derived6):
    # [Y^n, Y^m] = (m-n) Y^(m+n-1) leaves the K = 6 span once m+n-1 > 6
    report = verify_commutator_table(derived6)
    assert report["outside_span_unlisted"] == [
        ("Y^2", "Y^6"), ("Y^3", "Y^5"), ("Y^3", "Y^6"),
        ("Y^4", "Y^5"), ("Y^4", "Y^6"), ("Y^5", "Y^6")]


def test_printed_table_has_documented_failures(printed6):
    """The printed first-order coefficients do not satisfy the published
    family brackets (the f-coefficient normalization is inconsistent);
    the failures are reported, never corrected."""
    report = verify_commutator_table(printed6)
    assert not report["all_exact"]
    assert ("Y^1", "Y^2") in report["failing"]
    assert ("Y3", "Y^2") in report["failing"]
    # the pure Y0..Y3 block and the [Y^0, .] brackets still agree
    assert report["statuses"][("Y0", "Y1")] == "exact"
    assert report["statuses"][("Y^0", "Y^2")] == "exact"


def test_structure_constants_match_where_printed_in_span(derived6, printed6):
    derived_table = commutator_table(derived6)
    printed_table = commutator_table(printed6)
    compared = 0
    for pair, printed_decomposition in printed_table.items():
        if printed_decomposition is None:
            continue
        assert printed_decomposition == derived_table[pair]
        compared += 1
    assert compared >= 30


# --- the table against the general bracket ----------------------------------

def _solved_brackets(g: GeneratorSet) -> dict:
    """The reference table: each bracket by ``vfields.bracket`` on the
    fields, flattened and solved in the span."""
    basis = span_basis(g)
    fields = g.prolonged(1)
    return {(a, b): solve_in_span(basis, field_row(bracket(fields[i], fields[j])))
            for i, a in enumerate(g.names) for j, b in enumerate(g.names) if i < j}


def _custom_set(*coefficients: dict[str, str]) -> GeneratorSet:
    """Fields X0, X1, ... on the order-1 chart, taken as given."""
    chart = JetSpace(1)
    fields = tuple(VectorField(chart, {v: parse(text, chart)
                                       for v, text in c.items()})
                   for c in coefficients)
    names = tuple(f"X{i}" for i in range(len(fields)))
    return GeneratorSet(Source.PAPER_PRINTED, 0, names, fields, 1)


def _assert_table_is_the_solved_brackets(g: GeneratorSet) -> dict:
    table = commutator_table(g)
    reference = _solved_brackets(g)
    assert table == reference
    assert list(table) == list(reference)
    assert all(type(c) is Fraction
               for d in table.values() if d for c in d.values())
    return table


@pytest.mark.parametrize("source", ["derived", "paper"])
@pytest.mark.parametrize("K", [4, 5, 6, 7, 8])
def test_table_is_the_solved_general_brackets(source, K):
    _assert_table_is_the_solved_brackets(build_generators(source, K))


def test_table_applies_the_chain_rule_through_exp():
    table = _assert_table_is_the_solved_brackets(_custom_set(
        {"u": "1"},
        {"u": "exp(u)"},
        {"sigma": "exp(u)*sigma", "f": "exp(u)^2"},
        {"f": "exp(u)^2"},
        {"t": "exp(sigma)", "f_u": "sigma"},
    ))
    assert table[("X0", "X1")] == {"X1": 1}
    assert table[("X0", "X3")] == {"X3": 2}
    # [X0, X2] = exp(u)*sigma d_sigma + 2*exp(u)^2 d_f
    assert table[("X0", "X2")] == {"X2": 1, "X3": 1}
    assert table[("X1", "X4")] == {}
    # exp(u)*sigma*exp(sigma) d_t + exp(u)*sigma d_f_u
    assert table[("X2", "X4")] is None


def test_table_keeps_rational_coefficients():
    """Fields whose common denominator D is not 1: the bracket is summed
    over D_X * D_Y and solved to the exact rational combination."""
    table = _assert_table_is_the_solved_brackets(_custom_set(
        {"u": "1/3"},
        {"u": "u/2", "sigma": "sigma/3"},
        {"u": "u^2/5"},
        {"t": "t/7", "x": "2/3"},
        {"t": "1"},
        {"u": "u"},
    ))
    assert table[("X0", "X2")] == {"X5": Fraction(2, 15)}
    assert table[("X3", "X4")] == {"X4": Fraction(-1, 7)}
    assert table[("X0", "X1")] == {"X0": Fraction(1, 2)}


def test_table_takes_no_form_derivative(monkeypatch):
    fresh_cache(monkeypatch, eqalgebra, "_generator_set", 16)
    g = build_generators("derived", 6)
    span_basis(g)  # prolongs and flattens the fields
    with mock.patch.object(CanonicalForm, "derive",
                           side_effect=AssertionError("derive called")):
        table = commutator_table(g)
    assert table == _solved_brackets(g)


def test_a_dropped_coefficient_term_fails_the_relations_it_enters():
    """Drop the sigma term of the derived Y^3's f-coefficient: relations
    with Y^3 on either side fail, and only they.  [Y^1, Y^3] = 2 Y^3 still
    holds, since the dropped term 6*u*sigma d_f has weight 2 under Y^1."""
    g = build_generators("derived", 6)
    i = g.names.index("Y^3")
    y3 = g.base_fields[i]
    u, f = coordinate("u"), coordinate("f")
    assert equals(y3.coefficient("f"), u * u * f * 3 + u * coordinate("sigma") * 6)
    mutated = VectorField(y3.space, {**y3.coefficients, "f": u * u * f * 3})
    fields = g.base_fields[:i] + (mutated,) + g.base_fields[i + 1:]
    mutant = GeneratorSet(g.source, g.truncation, g.names, fields, g.base_order)
    _assert_table_is_the_solved_brackets(mutant)
    report = verify_commutator_table(mutant)
    assert not report["all_exact"]
    # [Y^0, Y^3] = 3 Y^2, [Y^0, Y^4] = 4 Y^3, [Y^2, Y^3] = Y^4, [Y^3, Y^4] = Y^6
    assert report["failing"] == [
        ("Y^0", "Y^3"), ("Y^0", "Y^4"), ("Y^2", "Y^3"), ("Y^3", "Y^4")]


# --- span basis --------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(-50, 50, max_denominator=50),
                min_size=11, max_size=11))
def test_combination_decomposes_to_its_coefficients(derived6, coefficients):
    fields = derived6.prolonged(1)
    target = field_combination(*zip(coefficients, fields))
    expected = {n: c for n, c in zip(derived6.names, coefficients) if c != 0}
    decomposition = solve_in_span(span_basis(derived6), field_row(target))
    assert decomposition == expected
    assert list(decomposition) == list(expected)  # generator order


def test_field_outside_span_has_no_decomposition(derived6):
    outside = VectorField(JetSpace(1), {"u": Coord("sigma")})
    assert solve_in_span(span_basis(derived6), field_row(outside)) is None


def test_dependent_generators_are_rejected():
    g = build_generators("derived", 0)
    y1, y2 = g.field_named("Y1"), g.field_named("Y2")
    dup = GeneratorSet(Source.DERIVED, 0, ("A", "B", "C"), (y1, y2, y1), 0)
    with pytest.raises(ValueError, match="C lies in the span"):
        span_basis(dup)


def _flat(f: VectorField) -> dict:
    return {(v, m): c for v, coeff in f.coefficients.items()
            for m, c in coeff.rational_coefficients().items()}


def _rank_reference(g: GeneratorSet):
    """Brute force: span(subset) is closed when adding every bracket of two
    members leaves the rank of the coefficient matrix unchanged."""
    fields = g.prolonged_named(1)
    flat = {n: _flat(fields[n]) for n in g.names}
    brackets = {(a, b): _flat(bracket(fields[a], fields[b]))
                for i, a in enumerate(g.names) for b in g.names[i + 1:]}

    def closed(subset) -> bool:
        rows = [flat[n] for n in subset]
        extra = [t for (a, b), t in brackets.items()
                 if a in subset and b in subset]
        keys = sorted(set().union(*rows, *extra))

        def rank(tables):
            return linalg.rank([linalg.integer_row(
                [(t[k].numerator, t[k].denominator) if k in t else (0, 1)
                 for k in keys]) for t in tables])

        return rank(rows) == rank(rows + extra)

    return closed


@pytest.mark.parametrize("source", ["derived", "paper"])
@pytest.mark.parametrize("K", [4, 5, 6, 7, 8])
def test_closure_matches_rank_reference(source, K):
    g = build_generators(source, K)
    closed_by_rank = _rank_reference(g)
    prefixes = [g.names[:5 + k] for k in range(K + 1)]
    reference = [closed_by_rank(p) for p in prefixes]
    assert [bracket_closed(g, p) for p in prefixes] == reference
    assert closure_max_k(g) == max(k for k, ok in enumerate(reference) if ok)
    for subset in (("Y1", "Y3"), ("Y^0", "Y^1", "Y^2"), ("Y0", "Y^1", "Y^3"),
                   ("Y3", "Y^2", "Y^4")):
        assert bracket_closed(g, subset) == closed_by_rank(subset)


def test_verify_algebra_reduces_each_bracket_once(monkeypatch, capsys):
    calls = []
    original = eqalgebra.solve_in_span

    def counted(basis, target):
        calls.append(basis)
        return original(basis, target)

    monkeypatch.setattr(eqalgebra, "solve_in_span", counted)
    fresh_cache(monkeypatch, eqalgebra, "_generator_set", 16)
    assert main(["--K", "4", "--source", "paper", "verify-algebra"]) == 0
    capsys.readouterr()
    # 9 generators, 36 pairs, once for the derived and once for the printed set
    assert len(calls) == 2 * 36
    assert len({id(basis) for basis in calls}) == 2


def test_bracket_closed_rejects_unknown_names(derived6):
    with pytest.raises(ValueError):
        bracket_closed(derived6, ("Y1", "Y^7"))


# --- closure -----------------------------------------------------------------

def test_closure_of_derived_algebra(derived6):
    assert closure_max_k(derived6) == 2


def test_closure_of_printed_algebra(printed6):
    """With the printed coefficients taken literally, span{Y0..Y3, Y^0..Y^2}
    is not bracket-closed ([Y^1, Y^2] falls outside), so the closure index
    drops to 1.  The derived coefficients give 2."""
    assert closure_max_k(printed6) == 1


def test_translations_form_closed_subalgebra(derived6):
    assert bracket_closed(derived6, ("Y1", "Y2"))


def test_closure_requires_window():
    g = build_generators("derived", 3)
    with pytest.raises(ValueError):
        closure_max_k(g)


# --- ranks -------------------------------------------------------------------

def test_first_order_rank(derived6):
    report = prolonged_rank(derived6, 1)
    assert report.rank == 7
    assert report.variable_count == 7
    assert report.invariant_count == 0


def test_second_order_rank(derived6):
    report = prolonged_rank(derived6, 2)
    assert report.rank == 8
    assert report.variable_count == 10
    assert report.invariant_count == 2


def test_single_translation_has_rank_one(derived6):
    field = derived6.prolonged_named(1)["Y1"]
    assert matrix_rank_at_samples([field], JetSpace(1).coordinates) == 1


def test_rank_determinism(derived6):
    a = prolonged_rank(derived6, 2, seed=99)
    b = prolonged_rank(derived6, 2, seed=99)
    assert a == b


def test_rank_monotone_in_order_and_truncation():
    # Y0..Y3, Y^0..Y^k is a prefix of the K=12 generator list, so prefix
    # ranks of one prolonged set sweep the whole truncation range
    g = build_generators("derived", 12)
    ranks = {}
    for order in (0, 1, 2):
        fields = g.prolonged(order)
        coords = JetSpace(order).coordinates
        last = 0
        for k in range(13):
            prefix = fields[:4 + k + 1]
            r = matrix_rank_at_samples(prefix, coords)
            assert r >= last
            last = r
            ranks[(order, k)] = r
    for k in range(13):
        assert ranks[(0, k)] <= ranks[(1, k)] <= ranks[(2, k)]


def _sympy_rational(sympy, value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


# on-locus constraints whose solved coordinate (sigma, f_sigma) is rational
_RATIONAL_LOCI = ("3*sigma - u*f", "2*f_sigma - u*sigma")


@settings(max_examples=20, deadline=None)
@given(source=st.sampled_from(["derived", "paper"]), order=st.integers(1, 3),
       weights=st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8),
                        min_size=1, max_size=10),
       constraint=st.sampled_from((None,) + _RATIONAL_LOCI),
       seed=st.integers(0, 10 ** 6), pole=st.booleans())
# Y^1, Y^2 and their sum: rank 2 only if each row keeps its own scale
@example(source="derived", order=1,
         weights=[[0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 0, 1, 1, 0]],
         constraint="2*f_sigma - u*sigma", seed=0, pole=False)
# denominators other than 1 at integer points
@example(source="derived", order=2, weights=[[0, 0, 0, 0, 0, 1, 0, 0]],
         constraint=None, seed=0, pole=True)
def test_integer_row_rank_agrees_with_sympy(source, order, weights,
                                            constraint, seed, pole):
    """Random combinations of prolonged generators, with the pole field
    1/u d_u + 1/(u*sigma) d_sigma and its sum with the first combination
    among them when ``pole``, sampled at integer points, off and on a
    locus: the compiled pivot count plus the rank of the integer residual
    rows is sympy's rank of the Fraction matrix of eval_at, at the point
    itself or, on a locus, at the point with the solved coordinate on
    it."""
    sympy = pytest.importorskip("sympy")
    g = build_generators(source, 3)
    combos = tuple(field_combination(*zip(w, g.base_fields)) for w in weights)
    if pole:
        # the pole field and its sum with Z0: the sum's row is dependent
        # only if each entry keeps its own denominator
        chart = g.base_fields[0].space
        pole_field = VectorField(chart, {"u": parse("1/u", chart),
                                         "sigma": parse("1/(u*sigma)", chart)})
        combos += (pole_field,
                   field_combination((1, pole_field), (1, combos[0])))
    names = tuple(f"Z{i}" for i in range(len(combos)))
    sub = GeneratorSet(g.source, 3, names, combos, g.base_order)
    locus = None if constraint is None else parse(constraint, JetSpace(1))
    seen = _sampled_ranks(*_rank_plan(sub, order, locus), samples=2,
                          seed=seed)
    assert len(seen) == 2
    fields, coords = sub.prolonged(order), JetSpace(order).coordinates
    for point, rank in seen:
        if constraint is not None:
            point = _on_locus(point, parse(constraint, JetSpace(1)), coords)
        exact = sympy.Matrix([[_sympy_rational(sympy, f.coefficient(c).eval_at(point))
                               for c in coords] for f in fields])
        assert rank == exact.rank()


def test_rank_on_special_manifold(derived6):
    report = rank_on_manifold(derived6, R_EXPR, 1)
    assert report.rank == 6


def test_rank_on_trivial_constraint_matches_unconstrained(derived6):
    zero = parse("u - u", JetSpace(1))
    assert rank_on_manifold(derived6, zero, 1) == prolonged_rank(derived6, 1)


def test_rank_on_sigma_zero(derived6):
    report = rank_on_manifold(derived6, Coord("sigma"), 1)
    assert report.rank <= 7


def test_ranks_read_their_chart_from_the_prolonged_fields(monkeypatch):
    g = build_generators("derived", 5)
    g.prolonged(2)
    built = []
    original = JetSpace.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(JetSpace, "__init__", counted)
    assert prolonged_rank(g, 2).variable_count == 10
    assert rank_on_manifold(g, R_EXPR, 2).variable_count == 10
    minimal_generating_set(g, 2)
    assert built == []


@pytest.mark.parametrize("order, variables", [(0, 5), (1, 7), (2, 10)])
def test_ranks_of_a_set_without_fields(order, variables):
    g = GeneratorSet(Source.DERIVED, 0, (), (), 0)
    expected = {"order": order, "rank": 0, "samples_used": 1,
                "certified": True, "seed": 1729, "variable_count": variables,
                "invariant_count": variables}
    assert prolonged_rank(g, order).as_dict() == expected
    if order:
        assert rank_on_manifold(g, R_EXPR, order).as_dict() == expected
    assert minimal_generating_set(g, order) == ()


def test_unsolvable_constraint(derived6):
    with pytest.raises(NotSolvableError):
        rank_on_manifold(derived6, parse("sigma^2 - f^2", JetSpace(1)), 1)


def test_constraint_with_an_atom_coefficient_is_not_solvable(derived6):
    # sigma = 1/exp(u) has no exact rational value at a sample point
    with pytest.raises(NotSolvableError):
        rank_on_manifold(derived6, parse("exp(u)*sigma - 1", JetSpace(1)), 1)


# --- minimal generating sets -------------------------------------------------

def test_minimal_generating_set_size(derived6):
    subset = minimal_generating_set(derived6, 2)
    assert len(subset) == 8
    sub = GeneratorSet(derived6.source, derived6.truncation, subset,
                       tuple(derived6.field_named(n) for n in subset),
                       derived6.base_order)
    assert prolonged_rank(sub, 2).rank == 8


def test_duplicate_generators_are_removed():
    g = build_generators("derived", 0)
    y1, y2 = g.field_named("Y1"), g.field_named("Y2")
    dup = GeneratorSet(Source.DERIVED, 0, ("A", "B", "C"), (y1, y2, y1), 0)
    subset = minimal_generating_set(dup, 1)
    assert len(subset) == 2


def test_singleton_is_kept():
    g = build_generators("derived", 0)
    single = GeneratorSet(Source.DERIVED, 0, ("A",), (g.field_named("Y1"),), 0)
    assert minimal_generating_set(single, 1) == ("A",)


def _deletion_reference(g: GeneratorSet, order: int) -> tuple[str, ...]:
    """The greedy set by deletion front to back: each member is dropped
    when the rest keep the full exact rank, while more than one is left."""
    fields = g.prolonged_named(order)
    coords = eqalgebra._chart(g.prolonged(order), order)

    def rank_of(names):
        return eqalgebra._rank.__wrapped__(tuple(fields[n] for n in names),
                                           coords, None, None)

    full_rank = rank_of(g.names)
    current = list(g.names)
    for name in g.names:
        if len(current) == 1:
            break
        trial = [n for n in current if n != name]
        if rank_of(trial) == full_rank:
            current = trial
    return tuple(current)


def _shuffled(g: GeneratorSet, rng: random.Random) -> GeneratorSet:
    order = list(range(len(g.names)))
    rng.shuffle(order)
    return GeneratorSet(g.source, g.truncation,
                        tuple(g.names[i] for i in order),
                        tuple(g.base_fields[i] for i in order), g.base_order)


@pytest.mark.parametrize("source", list(Source))
def test_the_greedy_set_is_the_one_deletion_leaves(source):
    """Scanning from the last name and keeping each generator that raises
    the rank gives the set that deletion front to back leaves, on shuffled
    generator orders at orders 0 to 6 and K from order + 1 to 8."""
    rng = random.Random(31)
    for order in range(7):
        for K in sorted({order + 1, 8}):
            g = _shuffled(build_generators(source, K), rng)
            got = minimal_generating_set(g, order)
            assert got == _deletion_reference(g, order)
            assert len(got) == prolonged_rank(g, order).rank


def test_a_set_of_zero_fields_keeps_one_name():
    """With full rank 0 the greedy set is the last name, as deletion front
    to back leaves it."""
    chart = JetSpace(1)
    zero = VectorField(chart, {})
    g = GeneratorSet(Source.PAPER_PRINTED, 0, ("A", "B", "C"), (zero,) * 3, 1)
    assert prolonged_rank(g, 1).rank == 0
    assert minimal_generating_set(g, 1) == ("C",) == _deletion_reference(g, 1)


def _family_names(first: int, last: int) -> tuple[str, ...]:
    return tuple(f"Y^{k}" for k in range(first, last + 1))


@pytest.mark.parametrize("source", list(Source))
@pytest.mark.parametrize("K, order, expected", [
    (8, 6, ("Y1", "Y2", "Y3") + _family_names(0, 8)),
    (30, 3, ("Y1", "Y2", "Y3") + _family_names(25, 30)),
    (5, 1, ("Y1", "Y2", "Y3") + _family_names(2, 5)),
], ids=["K8-order6", "K30-order3", "K5-order1"])
def test_greedy_sets_are_pinned(source, K, order, expected):
    """The greedy sets as the scan that ranked each trial subset on its own
    found them, written out, so that they do not rest on the elimination
    that both the greedy set and ``_deletion_reference`` rank with; each
    has as many members as the full rank, and keeps it alone."""
    g = build_generators(source, K)
    assert minimal_generating_set(g, order) == expected
    assert len(expected) == prolonged_rank(g, order).rank
    sub = GeneratorSet(g.source, K, expected,
                       tuple(map(g.field_named, expected)), g.base_order)
    assert prolonged_rank(sub, order).rank == len(expected)


# --- invariant counts and the truncation rule -------------------------------

def test_invariant_counts(derived6):
    assert prolonged_rank(derived6, 1).invariant_count == 0
    assert prolonged_rank(derived6, 2).invariant_count == 2


def test_empty_generator_set_leaves_everything_invariant():
    empty = GeneratorSet(Source.DERIVED, 0, (), (), 0)
    assert prolonged_rank(empty, 1).invariant_count == 7


@pytest.mark.parametrize("source", list(Source))
@pytest.mark.parametrize("order", range(7))
def test_min_truncation_reaches_the_generic_rank(source, order):
    # rank 5 at order 0 and k + 6 at order k from K = k + 2 on, one short
    # at K = k + 1; order 0 keeps the same rule though K = 1 reaches 5
    generic = 5 if order == 0 else order + 6
    K = min_truncation(order)
    assert K == order + 2
    assert prolonged_rank(build_generators(source, K), order).rank == generic
    if order:
        assert prolonged_rank(build_generators(source, K - 1),
                              order).rank == generic - 1


def test_order_three_rank_grows_with_the_truncation():
    assert [prolonged_rank(build_generators("derived", K), 3).rank
            for K in (3, 4, 5)] == [7, 8, 9]


def test_sampling_resamples_poles():
    """The oracle's stream skips every point where a pole check vanishes;
    the rank needs no point and is 1."""
    chart = JetSpace(1)
    coords = chart.coordinates
    # at coordinates in -1..1 five points in nine hit a pole, u = 0 or sigma = 0
    pole = VectorField(chart, {"u": parse("1/u", chart),
                               "sigma": parse("1/(u*sigma)", chart)})
    plan = _plan((pole,), coords, None, None)
    points = [drawn_point(coords, s, 1) for s in range(5)]
    assert any(p["u"] * p["sigma"] == 0 for p in points)
    assert eqalgebra._rank.__wrapped__((pole,), coords, None, None) == 1
    assert matrix_rank_at_samples([pole], coords) == 1
    seen = _sampled_ranks(plan, chart.coordinates, coordinate_range=1)
    assert len(seen) == 8
    for point, rank in seen:
        assert point["u"] * point["sigma"] != 0 and rank == 1


def test_an_atom_left_in_the_residual_is_an_indeterminate():
    """exp(u) and exp(sigma) are ranked as indeterminates independent of
    the coordinates and of each other: exp(u) d_u has rank 1, and
    u*exp(u) d_u adds nothing to it; with d_u + d_sigma, which compiles to
    a pivot, exp(u) d_u + exp(sigma) d_sigma leaves the residual
    exp(sigma) - exp(u) and rank 2, and exp(u) d_u + exp(u) d_sigma rank
    1."""
    chart = JetSpace(1)
    coords = chart.coordinates

    def field(**coefficients):
        return VectorField(chart, {v: parse(e, chart)
                                   for v, e in coefficients.items()})

    atom = field(u="exp(u)")
    assert matrix_rank_at_samples([atom], coords) == 1
    assert matrix_rank_at_samples([atom, field(u="u*exp(u)")], coords) == 1
    diagonal = field(u="1", sigma="1")
    two = (diagonal, field(u="exp(u)", sigma="exp(sigma)"))
    pivots, residual = eqalgebra._compile(two, coords, None, None)
    assert pivots == 1
    assert _texts(residual) == ["-exp(u) + exp(sigma)"]
    assert matrix_rank_at_samples(two, coords) == 2
    assert matrix_rank_at_samples(
        [diagonal, field(u="exp(u)", sigma="exp(u)")], coords) == 1


def test_the_exact_elimination_leaves_its_rows():
    """``_pivot_rows`` eliminates a copy of the residual: ranking one
    compiled residual twice reads the same rank, and the rows are as they
    were.  The order-0 derived matrix at K = 4 has rank 5."""
    pivots, residual = eqalgebra._compile(
        *_rank_key(build_generators("derived", 4), 0))
    before = [{c: dict(terms) for c, terms in row.items()} for row in residual]
    first = eqalgebra._pivot_rows(residual)
    assert eqalgebra._pivot_rows(residual) == first
    assert residual == before
    assert pivots + len(first) == 5


def test_sampling_exhausted():
    """u*f = 0 is solved for u, with a = f, which is 0 at every point of
    the range 0, so the oracle's stream finds no point there; the rank
    needs none, and is the exact rank 4 of the locus u = 0."""
    g = build_generators("derived", 0)
    constraint = parse("u*f", JetSpace(1))
    plan, coords = _rank_plan(g, 1, constraint)
    with pytest.raises(_NoPointFound):
        _oracle_points(plan, coords, coordinate_range=0)
    for seed in (1, 7, 1729):
        assert rank_on_manifold(g, constraint, 1, seed=seed).rank == 4
    assert _exact_rank(plan) == 4


# --- the compiled rank matrix against the full one --------------------------

def _full_rank(fields, coords, point) -> int:
    """The rank at ``point`` of the whole coefficient matrix, every row
    scaled to integers: the sampled rank before matrices were compiled."""
    nums, dens = EvaluationPlan(
        [f.coefficient(c) for f in fields for c in coords]).at(point)
    w = len(coords)
    return linalg.rank([linalg.integer_row(list(zip(nums[i:i + w],
                                                    dens[i:i + w])))
                        for i in range(0, len(nums), w)])


def _on_locus(point, constraint, coords):
    """``point`` with the coordinate v that ``rank_on_manifold`` solves
    a*v + b = 0 for set to -b/a there: the point on the locus at which a
    sampled rank is taken.  Raises ZeroDivisionError where a vanishes."""
    v, a, b = eqalgebra._linear_solve_coordinate(canonicalize(constraint),
                                                  coords)
    a, b = (CanonicalForm(p, Poly.const(1)).eval_at(point) for p in (a, b))
    return {**point, v: -b / a}


def _rank_key(g, order, constraint=None):
    """The arguments of ``_rank`` (and ``_compile``) for a rank of ``g`` at
    ``order``, on the locus ``constraint`` = 0 when one is given."""
    fields = g.prolonged(order)
    coords = eqalgebra._chart(fields, order)
    locus = None if constraint is None else eqalgebra._linear_solve_coordinate(
        canonicalize(constraint), coords)
    return tuple(fields), coords, eqalgebra._family(g, order), locus


def _pole_checks(fields, coords, locus) -> list[CanonicalForm]:
    """The oracle's pole checks for a rank of ``fields``' matrix on
    ``coords``: its distinct non-constant denominators and, on a locus
    (v, a, b), those with v = -b/a substituted, and a."""
    one = Poly.const(1)
    checks = [CanonicalForm(d, one) for d in dict.fromkeys(
        f.coefficient(c).denominator for f in fields for c in coords)
        if not d.is_const()]
    if locus is None:
        return checks
    v, a, b = locus
    at = {v: CanonicalForm(-b, one) / CanonicalForm(a, one)}
    return [f.substitute(at) for f in checks] + [CanonicalForm(a, one)]


def _plan(fields, coords, family, locus):
    """The compiled matrix of ``_rank``'s arguments, (pivot count, residual
    rows, the oracle's pole checks), which the oracle samples."""
    return (*eqalgebra._compile(tuple(fields), coords, family, locus),
            _pole_checks(fields, coords, locus))


def _rank_plan(g, order, constraint=None):
    """The compiled matrix (``_plan``) of a rank of ``g`` at ``order``, on
    the locus ``constraint`` = 0 when one is given, and its chart."""
    key = _rank_key(g, order, constraint)
    return _plan(*key), key[1]


def _exact_rank(plan) -> int:
    """The rank over Q(jet) of a compiled matrix: its pivot count plus the
    residual's rank by ``_pivot_rows``."""
    pivots, residual, _ = plan
    return pivots + len(eqalgebra._pivot_rows(residual))


def _texts(rows) -> list[str]:
    """The entries of sparse rows of integer polynomials as text, row by
    row in column order."""
    return [str(CanonicalForm(Poly(row[c]), Poly.const(1)))
            for row in rows for c in sorted(row)]


def _width(rows) -> int:
    """The count of columns that sparse rows hold."""
    return len(set().union(*rows))


class _NoPointFound(Exception):
    """The oracle's stream found no point off the poles for one sample."""


def _oracle_points(plan, coords, *, samples=8, seed=eqalgebra.DEFAULT_SEED,
                   coordinate_range=50):
    """(point, integer rows of the residual of the compiled ``plan``
    (``_plan``) there) at each of ``samples`` points, an independent stream
    that is the tests' oracle for the rank.  Sample seeds are drawn from
    ``seed`` up front; each seeds its own stream of candidate integer
    points over ``coords`` in -coordinate_range..coordinate_range, retried
    up to 200 times where a pole check of the plan vanishes."""
    rng = random.Random(seed)
    out = []
    for s in [rng.randrange(2 ** 32) for _ in range(samples)]:
        sub = random.Random(s)
        for _ in range(200):
            point = {c: sub.randint(-coordinate_range, coordinate_range)
                     for c in coords}
            try:
                out.append((point, integer_rows(*plan[1:], point)))
                break
            except ZeroDenominatorError:
                continue
        else:
            raise _NoPointFound(f"no valid point for sample seed {s}")
    return out


def _sampled_ranks(plan, coords, **stream):
    """(point, rank) at every point of the oracle's stream
    (``_oracle_points``), the rank being the compiled pivot count plus the
    rank of the residual's integer rows there."""
    seen = _oracle_points(plan, coords, **stream)
    for _, rows in seen:
        assert all(type(x) is int for row in rows for x in row)
    return [(point, plan[0] + linalg.rank(rows)) for point, rows in seen]


@pytest.mark.parametrize("source", list(Source))
@pytest.mark.parametrize("order", range(7))
def test_compiled_rank_is_the_full_rank_at_every_point(source, order):
    """At each sampled point, off the special manifold, the pivot count
    plus the residual's rank is the rank of the whole matrix there, and on
    it, the rank of the whole matrix at the point put on the manifold; from
    K = order + 2 on, the compile leaves order + 3 pivots and 3 rows."""
    coords = JetSpace(order).coordinates
    for K in sorted({0, order + 1, order + 2, order + 4}):
        g = build_generators(source, K)
        fields = g.prolonged(order)
        for seed in (1, 7, 1729):
            seen = _sampled_ranks(*_rank_plan(g, order), samples=2, seed=seed)
            assert len(seen) == 2
            for point, rank in seen:
                assert rank == _full_rank(fields, coords, point)
            if not order:
                continue
            seen = _sampled_ranks(*_rank_plan(g, order, R_EXPR), samples=2,
                                  seed=seed)
            assert len(seen) == 2
            for point, rank in seen:
                assert rank == _full_rank(fields, coords,
                                          _on_locus(point, R_EXPR, coords))
        (pivots, residual, _), _ = _rank_plan(g, order)
        if K >= order + 2:
            assert (pivots, len(residual)) == (order + 3, 3)


@pytest.mark.parametrize("names", [("R1_corrected", "R2"), ("R", "R2"),
                                   ("R1_printed", "R1_corrected")])
def test_compiled_jacobian_rank_is_the_full_rank(names):
    """functional_independence of rational candidates: the Jacobian rows
    carry denominators, cleared per row, and the rank at each point is the
    whole Jacobian's."""
    chart = JetSpace(2)
    forms = [canonicalize(NAMED_EXPRESSIONS[n]) for n in names]
    rows = [VectorField(chart, {c: f.diff(c) for c in f.free_coordinates()})
            for f in forms]
    assert any(not f.coefficient(c).is_polynomial()
               for f in rows for c in chart.coordinates)
    assert functional_independence([NAMED_EXPRESSIONS[n] for n in names],
                                   chart)
    plan = _plan(rows, chart.coordinates, None, None)
    for seed in (1, 7, 1729):
        seen = _sampled_ranks(plan, chart.coordinates, seed=seed)
        assert len(seen) == 8
        for point, rank in seen:
            assert rank == _full_rank(rows, chart.coordinates, point)


@pytest.mark.parametrize("order", (2, 3))
def test_a_row_that_fails_the_family_identity_stays(order):
    """Y^7 with u^3*sigma added to its sigma-coefficient is no longer in
    the span of W'_0..W'_J: it stays in the matrix, as a fourth residual
    row, and the rank it adds is counted at every point."""
    g = build_generators("derived", 8)
    fields = list(g.prolonged(order))
    coords = JetSpace(order).coordinates
    y7 = fields[g.names.index("Y^7")]
    u, sigma = coordinate("u"), coordinate("sigma")
    fields[g.names.index("Y^7")] = VectorField(y7.space, {
        **y7.coefficients, "sigma": y7.coefficient("sigma") + u ** 3 * sigma})
    family = eqalgebra._family(g, order)
    plan = _plan(fields, coords, family, None)
    assert (plan[0], len(plan[1])) == (order + 3, 4)
    assert matrix_rank_at_samples(fields, coords, family=family) == order + 7
    seen = _sampled_ranks(plan, coords)
    assert [rank for _, rank in seen] == [order + 7] * 8
    for point, rank in seen:
        assert rank == _full_rank(fields, coords, point)


def test_a_pole_cancelled_from_the_residual_still_rejects_its_points():
    """(1/u) d_t is cleared to the constant pivot 1 and leaves nothing of
    its pole in the residual; the oracle's pole check rejects the points
    with u = 0 all the same, exactly those the whole matrix rejects, the
    compiled rank is the whole matrix's at every other point, and on the
    locus u = 0, where the matrix is undefined everywhere, the compile
    raises."""
    chart = JetSpace(1)
    g = build_generators("derived", 0)
    pole = VectorField(chart, {"t": parse("1/u", chart)})
    fields = (pole,) + g.prolonged(1)[:1] + g.prolonged(1)[3:4]
    coords = chart.coordinates
    plan = _plan(fields, coords, None, None)
    pivots, residual, checks = plan
    assert pivots == 1 and len(residual) == 2
    assert not any("u" in Poly(terms).variables()
                   for row in residual for terms in row.values())
    assert [str(f) for f in checks] == ["u"]
    assert matrix_rank_at_samples(fields, coords) == _exact_rank(plan) == 3
    whole = (0, [dict(enumerate(map(f.coefficient, coords)))
                 for f in fields], [])
    for seed in (1, 7, 1729):
        points = []
        for p in (plan, whole):
            seen = _sampled_ranks(p, coords, seed=seed, coordinate_range=1)
            points.append([point for point, _ in seen])
        assert points[0] == points[1]
        assert all(point["u"] != 0 for point in points[0])
        ranks = _sampled_ranks(plan, coords, seed=seed, coordinate_range=1)
        assert [r for _, r in ranks] == [_full_rank(fields, coords, point)
                                         for point in points[1]]
    with pytest.raises(DivisionByZeroExpressionError):
        matrix_rank_at_samples(fields, coords,
                               locus=("u", Poly.const(1), Poly()))


@pytest.mark.parametrize("source", list(Source))
def test_a_shared_factor_locus_never_samples_where_a_vanishes(source):
    """sigma*f - sigma*u = 0 is solved for u = -b/a, with a = -sigma and
    b = sigma*f: the sigma cancels from the substituted u = f, but no point
    with sigma = 0 is sampled, and each sampled rank is the whole matrix's
    at the point put on the locus."""
    constraint = parse("sigma*f - sigma*u", JetSpace(1))
    g = build_generators(source, 3)
    for order in (1, 2):
        fields = g.prolonged(order)
        coords = fields[0].space.coordinates
        assert eqalgebra._linear_solve_coordinate(
            canonicalize(constraint), coords)[:2] == ("u", -Poly.var("sigma"))
        for seed in range(5):
            seen = _sampled_ranks(*_rank_plan(g, order, constraint), seed=seed,
                                  coordinate_range=1)
            assert len(seen) == 8
            for point, rank in seen:
                assert point["sigma"] != 0
                assert rank == _full_rank(fields, coords,
                                          _on_locus(point, constraint, coords))


def test_an_atom_on_an_eliminated_pivot_row_leaves_the_locus_rank():
    """A first field d_t + exp(f) d_x among the printed generators: its
    atom is eliminated with the pivots of d_t and d_x before the special
    manifold's f = sigma*f_sigma is substituted, which could not be put
    inside exp(f), and the rank on the manifold stays 6."""
    chart = JetSpace(1)
    g = build_generators("paper", 6)
    first = VectorField(chart, {"t": 1, "x": parse("exp(f)", chart)})
    sub = GeneratorSet(g.source, 6, g.names, (first,) + g.base_fields[1:],
                       g.base_order)
    with pytest.raises(AtomArgumentError):
        first.coefficient("x").substitute({"f": parse("sigma*f_sigma", chart)})
    for seed in (1, 7, 1729):
        assert rank_on_manifold(sub, R_EXPR, 1, seed=seed).rank == 6


# --- exact ranks from one point ------------------------------------------------

@pytest.mark.parametrize("source", list(Source))
@pytest.mark.parametrize("order", range(7))
def test_an_early_stopped_rank_is_the_maximum_over_every_sample(source,
                                                                 order):
    """The rank a rank call reports is the maximum over all 8 points of
    the oracle's stream, seeded five ways: at each K in 4..8, 12 and 30
    from order + 2 on, off the special manifold and, at orders 1 to 3, on
    it."""
    for K in (k for k in (4, 5, 6, 7, 8, 12, 30) if k >= order + 2):
        g = build_generators(source, K)
        for constraint in (None, R_EXPR) if 1 <= order <= 3 else (None,):
            plan, coords = _rank_plan(g, order, constraint)
            # the cache keeps a matrix's first rank, so the rank is also
            # proven afresh, outside it
            proven = eqalgebra._rank.__wrapped__(
                *_rank_key(g, order, constraint))
            assert proven == _exact_rank(plan)
            for seed in (1, 7, 1729, 400, 401):
                report = (prolonged_rank(g, order, seed=seed)
                          if constraint is None else
                          rank_on_manifold(g, constraint, order, seed=seed))
                full = max(r for _, r in _sampled_ranks(plan, coords,
                                                        seed=seed))
                assert report.rank == proven == full


def test_a_rank_short_of_its_bound_at_every_point_is_the_exact_rank(
        monkeypatch):
    """d_t and (u^3 - u) d_u: d_t compiles to a constant pivot and leaves
    the 1 x 1 residual u^3 - u, which vanishes at every point of the range
    -1..1.  Every point drawn there reads rank 1, short of the bound 2, and
    each rank, proven afresh by one elimination, is the exact one over
    Q(jet), 2, for every seed."""
    chart = JetSpace(1)
    fields = (VectorField(chart, {"t": 1}),
              VectorField(chart, {"u": parse("u^3 - u", chart)}))
    coords = chart.coordinates
    plan = _plan(fields, coords, None, None)
    pivots, residual, _ = plan
    assert (pivots, len(residual), _width(residual),
            pivots + min(len(residual), _width(residual))) == (1, 1, 1, 2)
    assert _texts(residual) == ["u^3 - u"]
    g = GeneratorSet(Source.PAPER_PRINTED, 0, ("T", "U"), fields, 1)
    expected = [prolonged_rank(g, 1, seed=s).as_dict() for s in range(5)]
    assert {r for _, r in _sampled_ranks(plan, coords,
                                         coordinate_range=1)} == {1}
    exact = []
    pivot_rows = eqalgebra._pivot_rows
    monkeypatch.setattr(eqalgebra, "_pivot_rows",
                        lambda rows: exact.append(rows) or pivot_rows(rows))
    for seed in range(5):
        # empty caches, so that each rank is proven here
        fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
        assert matrix_rank_at_samples(fields, coords) == 2
        fresh_cache(monkeypatch, eqalgebra, "_rank", 48)
        report = prolonged_rank(g, 1, seed=seed)
        assert report.as_dict() == expected[seed] == {
            "order": 1, "rank": 2, "samples_used": 1, "certified": True,
            "seed": seed, "variable_count": 7, "invariant_count": 5}
        assert len(exact) == 2 * (seed + 1)


def _vanishing_on_the_range() -> CanonicalForm:
    """P = prod_{k=-50}^{50} (u - k), zero at every integer u in
    -50..50."""
    u = coordinate("u")
    return prod((u - k for k in range(-50, 51)), start=canonicalize(1))


def test_a_field_vanishing_at_every_drawable_point_has_rank_one():
    chart = JetSpace(1)
    field = VectorField(chart, {"u": _vanishing_on_the_range()})
    g = GeneratorSet(Source.PAPER_PRINTED, 0, ("P",), (field,), 1)
    for seed in (1, 7, 1729):
        assert prolonged_rank(g, 1, seed=seed).rank == 1


def test_a_minimal_generating_set_keeps_every_needed_member():
    """P d_u and P d_x have rank 2 over Q(jet), though both vanish at every
    integer point with u in -50..50; the greedy set keeps both, and dropping
    either lowers the exact rank."""
    chart = JetSpace(1)
    p = _vanishing_on_the_range()
    fields = (VectorField(chart, {"u": p}), VectorField(chart, {"x": p}))
    g = GeneratorSet(Source.PAPER_PRINTED, 0, ("P", "Q"), fields, 1)
    assert prolonged_rank(g, 1).rank == 2
    assert minimal_generating_set(g, 1) == ("P", "Q")
    for kept in fields:
        single = GeneratorSet(Source.PAPER_PRINTED, 0, ("P",), (kept,), 1)
        assert prolonged_rank(single, 1).rank == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 9), source=st.sampled_from(list(Source)),
       order=st.integers(0, 6), wide=st.booleans(), manifold=st.booleans())
def test_no_rank_depends_on_its_seed(seed, source, order, wide, manifold):
    """Every report equals the one at the default seed 1729 but for the
    seed it echoes: orders 0 to 6 at K = order + 2 and K = 30, and on the
    special manifold at orders 1 to 3."""
    g = build_generators(source, 30 if wide else min_truncation(order))
    constraint = R_EXPR if manifold and 1 <= order <= 3 else None
    if constraint is not None:
        got, default = (rank_on_manifold(g, R_EXPR, order, seed=s).as_dict()
                        for s in (seed, 1729))
    else:
        got, default = (prolonged_rank(g, order, seed=s).as_dict()
                        for s in (seed, 1729))
    assert got.pop("seed") == seed and default.pop("seed") == 1729
    assert got == default
    # the cache keeps a matrix's first rank, so the rank is also proven
    # afresh, outside it
    assert eqalgebra._rank.__wrapped__(
        *_rank_key(g, order, constraint)) == default["rank"]


def test_the_exact_rank_is_taken_over_the_rational_functions():
    """The compiled residual on the special manifold at order 1 is 3 x 3
    with determinant zero there, so no point reaches 7, its 4 pivots plus
    3; the elimination over forms gives rank 2 for it, and the rank 6 is
    the exact one."""
    for source in Source:
        g = build_generators(source, 6)
        plan, _ = _rank_plan(g, 1, R_EXPR)
        pivots, residual, _ = plan
        assert (pivots, len(residual), _width(residual),
                pivots + min(len(residual), _width(residual))) == (4, 3, 3, 7)
        assert _exact_rank(plan) == 6
        assert rank_on_manifold(g, R_EXPR, 1).rank == 6
    rows = [{c: canonicalize(parse(e, JetSpace(1))) for c, e in enumerate(row)}
            for row in (("u", "sigma", "u*sigma"), ("u^2", "u*sigma", "u^2*sigma"),
                        ("1/u", "sigma/u^2", "f"))]
    assert len(eqalgebra._pivot_rows(list(map(eqalgebra._cleared, rows)))) == 2


# --- the fraction-free elimination against sympy ----------------------------

# the generators of the drawn polynomials: two coordinates and an atom
_ELIMINATION_GENS = ("u", "sigma", "exp(u)")
_COLUMNS = 4

# a polynomial as its terms, (coefficient, exponent of each generator)
_poly_terms = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool),
              st.tuples(*[st.integers(0, 2)] * len(_ELIMINATION_GENS))),
    max_size=3)
# rows over four columns, column -> terms, and rows put in among them:
# (position, kind, row a, row b, terms p, terms q), where a "repeat" is a
# copy of row a and a "combination" is p*a + q*b, both in the span of the
# rows drawn
_drawn_rows = st.tuples(
    st.lists(st.dictionaries(st.integers(0, _COLUMNS - 1), _poly_terms,
                             max_size=_COLUMNS), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 8),
                       st.sampled_from(("zero", "repeat", "combination")),
                       st.integers(0, 3), st.integers(0, 3), _poly_terms,
                       _poly_terms), max_size=3))


def _realized(drawn, entry) -> list[dict]:
    """The drawn rows with each polynomial built by ``entry`` from its
    terms, and the rows put in among them built by that arithmetic."""
    base, extra = drawn
    rows = [{c: entry(t) for c, t in row.items()} for row in base]
    out = list(rows)
    zero = entry([])
    for at, kind, a, b, p, q in extra:
        a, b = rows[a % len(rows)], rows[b % len(rows)]
        if kind == "zero":
            row = {}
        elif kind == "repeat":
            row = dict(a)
        else:
            row = {c: entry(p) * a.get(c, zero) + entry(q) * b.get(c, zero)
                   for c in range(_COLUMNS)}
        out.insert(min(at, len(out)), row)
    return out


def _poly_of(terms) -> Poly:
    return sum((prod((Poly.var(g) ** e
                      for g, e in zip(_ELIMINATION_GENS, exps)),
                     start=Poly.const(c)) for c, exps in terms), Poly())


# the second pivot, u*exp(u) - sigma, divides the third step; the fourth
# row is independent and the fifth in the span of the first and third
_NON_CONSTANT_PIVOT = (
    [{0: [(1, (1, 0, 0))], 1: [(1, (0, 0, 0))]},
     {0: [(1, (0, 1, 0))], 1: [(1, (0, 0, 1))]},
     {0: [(1, (0, 0, 0))], 1: [(1, (0, 1, 0))],
      2: [(1, (1, 0, 0)), (1, (0, 0, 0))], 3: [(1, (0, 0, 0))]},
     {0: [(1, (1, 0, 0))], 2: [(1, (0, 1, 0))], 3: [(1, (0, 0, 1))]}],
    [(4, "combination", 0, 2, [(1, (0, 1, 0))], [(2, (0, 0, 1))])])
# the second drawn row is zero in the first pivot column, so it keeps its
# old scale while the third is eliminated, and is brought up to date as the
# second pivot row
_STALE_ROW = (
    [{0: [(1, (1, 0, 0))]}, {1: [(1, (0, 1, 0))], 2: [(1, (0, 0, 0))]},
     {0: [(1, (0, 0, 0))], 1: [(1, (1, 0, 0))]},
     {1: [(1, (0, 0, 0))], 2: [(1, (0, 1, 0))], 3: [(1, (0, 0, 1))]}],
    [(0, "zero", 0, 0, [], []), (5, "repeat", 3, 0, [], [])])


@settings(max_examples=150, deadline=None)
@given(drawn=_drawn_rows)
@example(drawn=_NON_CONSTANT_PIVOT)
@example(drawn=_STALE_ROW)
def test_the_pivot_rows_are_those_outside_the_span_before_them(drawn):
    """``_pivot_rows`` returns the indices of the rows that raise sympy's
    exact rank over Q(u, sigma, exp(u)) of the rows before them, on zero,
    repeated and dependent rows, and leaves its input rows as they were."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    gens = sympy.symbols("u sigma exp_u")
    ring = sympy.ZZ[gens]

    def sympy_entry(terms):
        return sum((c * prod(g ** e for g, e in zip(gens, exps))
                    for c, exps in terms), sympy.Integer(0))

    def exact_rank(rows) -> int:
        if not rows:
            return 0
        return DomainMatrix(
            [[ring.from_sympy(row.get(c, 0)) for c in range(_COLUMNS)]
             for row in rows], (len(rows), _COLUMNS), ring).to_field().rank()

    rows = [{c: dict(p.terms) for c, p in row.items() if not p.is_zero()}
            for row in _realized(drawn, _poly_of)]
    oracle = _realized(drawn, sympy_entry)
    before = [{c: dict(t) for c, t in row.items()} for row in rows]
    kept = eqalgebra._pivot_rows(rows)
    assert rows == before
    ranks = [exact_rank(oracle[:i]) for i in range(len(oracle) + 1)]
    assert kept == [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]
