"""The discretized equivalence algebra of the wave class and its structure.

Generators are Y0 (boost/rotation of t, x), Y1, Y2 (translations), Y3
(dilation) and the family Y^k obtained from the u-reparameterization
generator at the monomials u^k.  Two coefficient sources are supported:

* ``derived``       -- induced from the point actions by second prolongation
                       and elimination; this source is self-consistent.
* ``paper_printed`` -- verbatim transcription of the published first-order
                       coefficient formulas, carried so their documented
                       internal inconsistencies can be reported rather than
                       silently overwritten.

Structure is verified exactly, on integer polynomials.  Each first-order
generator must have polynomial coefficients; it is flattened once per set
into integer polynomials over one common integer denominator D.  Read as
rows of rational coefficients keyed by (coordinate, monomial), the fields
are brought to one semi-echelon form in generator order by the package's
one elimination over Q, ``linalg.semi_echelon`` (``span_basis``, cached
per set).  The generators are linearly independent, so every
bracket has at most one decomposition in them.  Each pairwise bracket is
summed straight into its row from the flattened fields,
[X, Y]^v = sum_w (N_X^w d_w N_Y^v - N_Y^w d_w N_X^v) / (D_X D_Y), with the
chain rule through exp atoms and each partial d_w N^v taken once per set;
no form or field is built for it (``vfields.bracket`` is the general
operator on rational fields).  The row is reduced against the basis once
(``linalg.reduce_vector``), giving that decomposition or None when a
residual is left.  The commutator table is the dict of these
decompositions keyed by generator pair (left, right), and the closure
sweep reads their supports: a subset is bracket-closed when every bracket
of two members decomposes into members only.

``build_generators`` returns one set per (source, truncation) while an
LRU cache of the process (``_generator_set``) holds it, so the set's
prolonged and flattened fields, span basis and commutator table serve
every later caller at that (source, truncation).  ``GeneratorSet.prolonged``
builds a field at order k by one step of the recursion from the set's own
order k - 1, through one LRU cache of the process (``_prolonged``) keyed
by value, so sets share prolongations while the cache holds them, and one
set never prolongs a field twice, however many fields it holds.

Generic ranks of prolonged coefficient matrices are exact.  Each matrix
is compiled once while one LRU cache of the process holds it, keyed by the
fields' values, to one with the same rank over Q(jet) and the same rank at
every point off its poles (``_compile``): the family rows beyond
``min_truncation`` are dropped where an exact identity proves them
redundant, and every constant entry becomes a pivot.  A rank on a locus
a*v + b = 0 goes through the same compiled matrix, with v = -b/a
substituted into what is left.  The residual, 3 rows for K >= order + 2, is
evaluated by a ``canonical.EvaluationPlan`` at one integer point drawn from
the seed, and its rank taken there by fraction-free elimination
(``linalg.rank``).  A rank at a point is a lower bound on the rank over
Q(jet), and the compile bounds that rank from above by the pivot count plus
the residual's row or column count, whichever is smaller, so a point whose
rank meets the bound proves it the generic rank.  At a point short of the
bound or on a pole, the rank is the exact one, by an elimination over forms
on the residual (``_form_rank``, once per compiled matrix).  Either way the
rank is the rank over Q(jet), and no rank depends on the seed.  The
compiled matrix keeps the rank its first call proves, so a matrix is
evaluated at one point once per process while the cache holds it, and
every later rank of it, at any seed, is read back.
"""

from __future__ import annotations

import enum
import functools
import random
from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm, prod

from . import linalg
from .canonical import (
    CanonicalForm,
    EvaluationPlan,
    Monomial,
    Poly,
    _POLY_ONE,
    _add_product_terms,
    _partial,
    _poly,
    _strip,
    canonicalize,
    coordinate,
    mono,
)
from .expr import (
    DivisionByZeroExpressionError,
    ExprLike,
    ZeroDenominatorError,
)
from .jetspace import JetSpace
from .value import Value, set_field
from .vfields import PointAction, VectorField, induce_from_point_action, prolong

DEFAULT_SEED = 1729
DEFAULT_K = 6
# highest --K: at K = 300 the slowest command, `--source paper
# verify-algebra`, takes 3.4-6.4 s (median 4.0 s) and 61 MB,
# `invariants verify` 2.0-3.5 s (median 2.6 s) and 55 MB (20 runs each on a
# 2-vCPU container whose speed drifted up to 1.8x, CPython 3.11);
# verify-algebra grows about as K^2 (5.0 s at K = 500, derived source)
MAX_K = 300
# the smallest truncation the closure sweep accepts
CLOSURE_MIN_K = 4
# a rank's evaluation point has its coordinates in -50..50
_POINT_RANGE = 50


class NotSolvableError(Exception):
    """A manifold constraint cannot be solved for any chart coordinate."""


class Source(str, enum.Enum):
    DERIVED = "derived"
    PAPER_PRINTED = "paper"


FAMILY_PREFIX = "Y^"
STATIC_NAMES = ("Y0", "Y1", "Y2", "Y3")


def family_name(k: int) -> str:
    return f"{FAMILY_PREFIX}{k}"


def _u_power(k: int, drop: int) -> CanonicalForm:
    """d^drop/du^drop of u^k: the falling-factorial coefficient times
    u^(k-drop), identically zero once drop exceeds k."""
    if drop > k:
        return canonicalize(0)
    c = 1
    for i in range(drop):
        c *= k - i
    return coordinate("u") ** (k - drop) * c


@functools.lru_cache(maxsize=len(STATIC_NAMES))
def _derived_static(name: str) -> VectorField:
    t, x = coordinate("t"), coordinate("x")
    actions = {
        "Y0": PointAction(x, t, 0),
        "Y1": PointAction(1, 0, 0),
        "Y2": PointAction(0, 1, 0),
        "Y3": PointAction(t, x, 0),
    }
    return induce_from_point_action(actions[name])


# holds the whole family up to MAX_K, so a set built again at any --K
# induces no member twice
@functools.lru_cache(maxsize=MAX_K + 1)
def _derived_family(k: int) -> VectorField:
    return induce_from_point_action(PointAction(0, 0, _u_power(k, 0)))


def _printed_static(name: str) -> VectorField:
    space = JetSpace(1)
    t, x = coordinate("t"), coordinate("x")
    if name == "Y0":
        return VectorField(space, {"t": x, "x": t})
    if name == "Y1":
        return VectorField(space, {"t": 1})
    if name == "Y2":
        return VectorField(space, {"x": 1})
    # printed Y3 carries -sigma (not -2*sigma) and no f_sigma coefficient
    return VectorField(space, {
        "t": t,
        "x": x,
        "sigma": -coordinate("sigma"),
        "f": coordinate("f") * -2,
        "f_u": coordinate("f_u") * -2,
    })


def _printed_family(k: int) -> VectorField:
    space = JetSpace(1)
    sigma, f, f_sigma = map(coordinate, ("sigma", "f", "f_sigma"))
    phi, phi1, phi2, phi3 = (_u_power(k, drop) for drop in range(4))
    return VectorField(space, {
        "u": phi,
        "sigma": phi1 * sigma * 2,
        # printed f-coefficient has the doubled bracket 2(phi' f + phi'' sigma)
        "f": (phi1 * f + phi2 * sigma) * 2,
        "f_u": phi2 * f + phi3 * sigma - sigma * f_sigma * phi2 * 2,
        "f_sigma": phi2 - f_sigma * phi1,
    })


class GeneratorSet(Value):
    """The generators [Y0, Y1, Y2, Y3, Y^0, ..., Y^K] for one source.

    ``base_order`` records at which jet order the stored coefficients are
    authoritative: 0 for the derived source (everything above is produced by
    the prolongation recursion), 1 for the printed source (the published
    first-order coefficients are data, not recomputed).
    """

    _fields = ("source", "truncation", "names", "base_fields", "base_order")

    def __init__(self, source: Source, truncation: int, names: tuple[str, ...],
                 base_fields: tuple[VectorField, ...], base_order: int):
        set_field(self, "source", source)
        set_field(self, "truncation", truncation)
        set_field(self, "names", names)
        set_field(self, "base_fields", base_fields)
        set_field(self, "base_order", base_order)
        # prolonged fields by order (so a set outgrowing ``_prolonged``
        # prolongs no field twice), and "flat", "span" and "brackets"; not
        # compared
        set_field(self, "_cache", {})

    def field_named(self, name: str) -> VectorField:
        return self.base_fields[self.names.index(name)]

    def prolonged(self, order: int) -> tuple[VectorField, ...]:
        if order not in self._cache:
            below = (self.prolonged(order - 1) if order > self.base_order + 1
                     else self.base_fields)
            given = max(order - 1, self.base_order)
            self._cache[order] = tuple(_prolonged(f, order, given)
                                       for f in below)
        return self._cache[order]

    def prolonged_named(self, order: int) -> dict[str, VectorField]:
        return dict(zip(self.names, self.prolonged(order)))


# keyed by the field below by value, not by its name in a set; 128 entries
# are three times the 39 (13 fields, orders 1 to 3) one rank-invariants
# benchmark pass leaves.  It calls ``prolong`` by its module name, so a
# tracer that swaps that name counts every prolongation.
@functools.lru_cache(maxsize=128)
def _prolonged(below: VectorField, order: int,
               given_order: int) -> VectorField:
    return prolong(below, order, given_order=given_order)


def build_generators(source: Source | str = Source.DERIVED,
                     truncation: int = DEFAULT_K) -> GeneratorSet:
    """The generator list for the chosen coefficient source, one set per
    (source, truncation) while ``_generator_set`` holds it: its prolonged
    fields, flattened fields, span basis and commutator table then serve
    every later caller at that (source, truncation)."""
    return _generator_set(Source(source), truncation)


# 16 entries are more than twice the 6 distinct sets one benchmark pass
# builds at most (the algebra sweep's derived sets at K = 4 to 7 and
# printed sets at K = 4 and 5; a rank-invariants pass builds 5)
@functools.lru_cache(maxsize=16)
def _generator_set(source: Source, truncation: int) -> GeneratorSet:
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    names = STATIC_NAMES + tuple(family_name(k) for k in range(truncation + 1))
    if source is Source.DERIVED:
        fields = tuple(_derived_static(n) for n in STATIC_NAMES) + tuple(
            _derived_family(k) for k in range(truncation + 1))
        base_order = 0
    else:
        fields = tuple(_printed_static(n) for n in STATIC_NAMES) + tuple(
            _printed_family(k) for k in range(truncation + 1))
        base_order = 1
    return GeneratorSet(source, truncation, names, fields, base_order)


# ---------------------------------------------------------------------------
# exact span decomposition and the commutator table

_Key = tuple[str, Monomial]  # (coordinate, monomial)
# a sparse row of exact rationals for ``linalg.semi_echelon``
_Row = dict[_Key, int | Fraction]
# a first-order field with polynomial coefficients over one positive integer
# denominator D: (D, coordinate -> D times its coefficient)
_Flat = tuple[int, dict[str, Poly]]


def _flatten(f: VectorField) -> _Flat:
    """f's coefficients over their common integer denominator; raises
    ValueError when a coefficient is not a polynomial."""
    coeffs = {v: c.rational_coefficients() for v, c in f.coefficients.items()}
    d = lcm(*(q.denominator for terms in coeffs.values() for q in terms.values()))
    return d, {v: Poly({m: q.numerator * (d // q.denominator)
                        for m, q in terms.items()})
               for v, terms in coeffs.items()}


def _ratio(c: int, d: int) -> int | Fraction:
    """c/d for a positive integer d, an int when d is 1."""
    return c if d == 1 else Fraction(c, d)


def _row(flat: _Flat) -> _Row:
    d, coeffs = flat
    return {(v, m): _ratio(c, d) for v, p in coeffs.items()
            for m, c in p.terms.items()}


def field_row(f: VectorField) -> _Row:
    """A field with polynomial coefficients as the sparse row that span
    solving reads: (coordinate, monomial) -> rational coefficient."""
    return _row(_flatten(f))


def _flattened(g: GeneratorSet) -> tuple[_Flat, ...]:
    """g's first-order fields flattened, once per set."""
    key = "flat"
    if key not in g._cache:
        g._cache[key] = tuple(map(_flatten, g.prolonged(1)))
    return g._cache[key]


def _bracket_rows(flats: tuple[_Flat, ...]):
    """((i, j), row of [X_i, X_j]) for every pair i < j of the flattened
    fields, in order.

    With X = N_X / D_X, [X, Y] on v is
    sum_w (N_X^w d_w N_Y^v - N_Y^w d_w N_X^v) / (D_X D_Y).  It is summed on
    integers, and a Fraction is built only for an entry that survives.  Each
    partial d_w N^v is taken once, by ``canonical._partial``, d/dw with the
    chain rule through exp(w).  Each monomial is packed into one integer,
    exponent k in bits k*b to k*b + b - 1, so that the product of two
    monomials is the sum of their packs: a partial raises no exponent, so
    no exponent of a product exceeds twice the largest one of the fields,
    which b bits hold."""
    monomials = [m for _, coeffs in flats for p in coeffs.values()
                 for m in p.terms]
    width = max(map(len, monomials), default=0)
    top = max(chain.from_iterable(monomials), default=0)
    bits = max(1, (2 * top).bit_length())
    mask = (1 << bits) - 1

    def pack(p: Poly) -> dict[int, int]:
        return {sum(e << (bits * k) for k, e in enumerate(m)): c
                for m, c in p.terms.items()}

    @functools.cache
    def unpack(n: int) -> Monomial:
        return _strip(tuple((n >> (bits * k)) & mask for k in range(width)))

    packed = [{v: pack(p) for v, p in coeffs.items()} for _, coeffs in flats]

    @functools.cache
    def partials(i: int, w: str) -> dict[str, dict[int, int]]:
        """The nonzero d_w N_i^v, packed, by v."""
        return {v: pack(dp) for v, p in flats[i][1].items()
                if not (dp := _partial(p, w)).is_zero()}

    for i, (x_den, _) in enumerate(flats):
        for j in range(i + 1, len(flats)):
            acc: defaultdict[str, defaultdict[int, int]] = defaultdict(
                lambda: defaultdict(int))
            for sign, x, y in ((1, i, j), (-1, j, i)):
                for w, p in packed[x].items():
                    for v, dp in partials(y, w).items():
                        terms = acc[v]
                        for m1, c1 in p.items():
                            c1 *= sign
                            for m2, c2 in dp.items():
                                terms[m1 + m2] += c1 * c2
            den = x_den * flats[j][0]
            yield (i, j), {(v, unpack(m)): _ratio(c, den)
                           for v, terms in acc.items()
                           for m, c in terms.items() if c}


class SpanBasis(Value):
    """The semi-echelon form (``linalg.semi_echelon``) of linearly
    independent generator fields, with their names: row i is generator i
    reduced against the rows before it, and reducing a vector against the
    rows once, in order, leaves its residual outside the span."""

    _fields = ("names", "rows", "pivots")

    def __init__(self, names: tuple[str, ...],
                 rows: tuple[linalg.EchelonRow, ...],
                 pivots: dict[_Key, int]):  # pivot key -> index of its row
        set_field(self, "names", names)
        set_field(self, "rows", rows)
        set_field(self, "pivots", pivots)


def span_basis(g: GeneratorSet) -> SpanBasis:
    """The echelon basis of g's first-order fields, built once per set in
    generator order.  Raises ValueError when a generator lies in the span
    of those before it, since decompositions would then not be unique."""
    key = "span"
    if key not in g._cache:
        rows, pivots, dependent = linalg.semi_echelon(
            map(_row, _flattened(g)))
        if dependent:
            raise ValueError(
                f"generator {g.names[min(dependent)]} lies in the span of the "
                f"generators before it; bracket decompositions would not be "
                f"unique")
        g._cache[key] = SpanBasis(g.names, tuple(rows), pivots)
    return g._cache[key]


def solve_in_span(basis: SpanBasis, row: _Row) -> dict[str, Fraction] | None:
    """The exact rational combination of basis generators equal to the
    field whose row (see ``field_row``) is ``row``, in generator order, or
    None when it lies outside their span."""
    residual, removed = linalg.reduce_vector(basis.rows, basis.pivots, row)
    if residual:
        return None
    return {basis.names[j]: Fraction(removed[j]) for j in sorted(removed)}


def commutator_table(
        g: GeneratorSet) -> dict[tuple[str, str], dict[str, Fraction] | None]:
    """Every pairwise bracket, keyed by (left, right) with left before right
    in generator order, decomposed exactly in the generator basis: a dict of
    generator coefficients, or None when the bracket lies outside the span.
    Each bracket is built as a row from the flattened fields
    (``_bracket_rows``) and reduced once against ``span_basis(g)``; the
    table is cached on ``g`` and shared by every caller."""
    key = "brackets"
    if key not in g._cache:
        basis = span_basis(g)
        names = g.names
        g._cache[key] = {
            (names[i], names[j]): solve_in_span(basis, row)
            for (i, j), row in _bracket_rows(_flattened(g))}
    return g._cache[key]


def expected_relations(truncation: int) -> dict[tuple[str, str], dict[str, Fraction]]:
    """The published commutation table as exact decompositions:
    [Y^n, Y^m] = (m-n) Y^(m+n-1) while the result index stays within the
    truncation, the Y0..Y3 block, and zeros elsewhere."""
    out: dict[tuple[str, str], dict[str, Fraction]] = {
        ("Y0", "Y1"): {"Y2": Fraction(-1)},
        ("Y0", "Y2"): {"Y1": Fraction(-1)},
        ("Y0", "Y3"): {},
        ("Y1", "Y2"): {},
        ("Y1", "Y3"): {"Y1": Fraction(1)},
        ("Y2", "Y3"): {"Y2": Fraction(1)},
    }
    for k in range(truncation + 1):
        for name in STATIC_NAMES:
            out[(name, family_name(k))] = {}
    for n in range(truncation + 1):
        for m in range(n + 1, truncation + 1):
            if m + n - 1 <= truncation:
                out[(family_name(n), family_name(m))] = {
                    family_name(m + n - 1): Fraction(m - n)}
    return out


def verify_commutator_table(g: GeneratorSet) -> dict:
    """Compare the exact table against the published relations.

    Returns a report with one status per expected relation ('exact',
    'mismatch', or 'outside_span') plus any brackets outside the span that
    the published table says nothing about.
    """
    table = commutator_table(g)
    expected = expected_relations(g.truncation)
    statuses = {}
    for pair, decomposition in expected.items():
        if table[pair] is None:
            statuses[pair] = "outside_span"
        elif table[pair] == decomposition:
            statuses[pair] = "exact"
        else:
            statuses[pair] = "mismatch"
    unexpected = [pair for pair, d in table.items()
                  if d is None and pair not in expected]
    all_exact = all(s == "exact" for s in statuses.values())
    return {
        "source": g.source.value,
        "truncation": g.truncation,
        "relations_checked": len(statuses),
        "all_exact": all_exact,
        "statuses": statuses,
        "failing": sorted(p for p, s in statuses.items() if s != "exact"),
        "outside_span_unlisted": unexpected,
    }


def bracket_closed(g: GeneratorSet, subset: tuple[str, ...]) -> bool:
    """Whether the span of the named subset is closed under brackets: every
    bracket of two members decomposes, and only into members.  The
    decomposition in the whole basis is unique, so this holds for any
    subset."""
    members = set(subset)
    unknown = members.difference(g.names)
    if unknown:
        raise ValueError(f"not generators of this set: {sorted(unknown)}")
    for (left, right), d in commutator_table(g).items():
        if left in members and right in members and (
                d is None or not members.issuperset(d)):
            return False
    return True


def closure_max_k(g: GeneratorSet) -> int:
    """Largest k with span{Y0..Y3, Y^0..Y^k} bracket-closed, read from the
    supports of the bracket decompositions."""
    if g.truncation < CLOSURE_MIN_K:
        raise ValueError(f"closure sweep needs truncation K >= {CLOSURE_MIN_K}")
    best = -1
    for k in range(g.truncation + 1):
        subset = STATIC_NAMES + tuple(family_name(i) for i in range(k + 1))
        if bracket_closed(g, subset):
            best = k
    return best


# ---------------------------------------------------------------------------
# exact generic ranks


def min_truncation(order: int) -> int:
    """The smallest truncation K at which Y0..Y3, Y^0..Y^K reach the
    generic rank of the whole algebra at jet order ``order``.

    Prolongation is linear in the jet of phi: pr X_phi = sum_j phi^(j) W_j,
    with only W_0..W_{k+2} nonzero at order k.  So the rows Y^m beyond
    k + 2 lie in the Q[u]-span of Y^0..Y^{k+2}, and the ranks drop
    them where that identity holds exactly.  Measured on both sources: the
    rank is k + 6 from K = k + 2 on and one less at K = k + 1, for
    k = 1..6.  Order 0 reaches its rank 5 at K = 1 already; it keeps k + 2
    so that one rule covers every order.  A rank or an invariant verdict at
    a smaller K holds for the truncation only.
    """
    return order + 2


class RankReport(Value):
    """A generic rank, the rank over Q(jet) (see
    ``matrix_rank_at_samples``), with the seed that drew its point.  Its
    dict keeps schema 1's ``samples_used`` 1 and ``certified`` true, as
    every rank is proven."""

    _fields = ("order", "rank", "seed", "variable_count")

    def __init__(self, order: int, rank: int, seed: int, variable_count: int):
        set_field(self, "order", order)
        set_field(self, "rank", rank)
        set_field(self, "seed", seed)
        set_field(self, "variable_count", variable_count)

    @property
    def invariant_count(self) -> int:
        return self.variable_count - self.rank

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "rank": self.rank,
            "samples_used": 1,
            "certified": True,
            "seed": self.seed,
            "variable_count": self.variable_count,
            "invariant_count": self.invariant_count,
        }


class _RankPlan:
    """A matrix compiled by ``_compile``: its constant pivots and its
    rows x width ``residual``, row by row, as forms; ``plan`` evaluates the
    residual and then the pole checks.  Its rank over Q(jet) is the pivot
    count plus the residual's, so at most ``bound``; ``rank`` keeps it once
    ``matrix_rank_at_samples`` has proven it, None before."""

    def __init__(self, pivots: int, rows: int, width: int,
                 residual: list[CanonicalForm], checks: list[CanonicalForm]):
        self.pivots, self.rows, self.width = pivots, rows, width
        self.residual = residual
        self.plan = EvaluationPlan(residual + checks)
        self.bound = pivots + min(rows, width)
        self.rank: int | None = None

    @functools.cached_property
    def exact_rank(self) -> int:
        """The rank over Q(jet): computed once per plan, while ``_compile``
        holds it, and only for a point short of ``bound`` or on a pole."""
        w = self.width or 1
        return self.pivots + _form_rank([self.residual[i:i + w] for i in
                                         range(0, len(self.residual), w)])


def _form_rank(rows: list[list[CanonicalForm]]) -> int:
    """The rank over Q(jet) of a matrix of forms, by Gaussian elimination
    on the forms themselves: each step takes the first nonzero entry left
    as its pivot and clears that column from the other rows.  It is made
    for residuals of a few rows, so no pivot is chosen for size."""
    rank = 0
    while found := next(((r, c) for r, row in enumerate(rows)
                         for c, e in enumerate(row) if not e.is_zero()), None):
        r, c = found
        top = rows.pop(r)
        for i, row in enumerate(rows):
            if not row[c].is_zero():
                a = row[c] / top[c]
                rows[i] = [e - a * t for e, t in zip(row, top)]
        rank += 1
    return rank


def _integer_rows(plan: _RankPlan, point) -> list[list[int]]:
    """The residual of ``plan`` at ``point`` as integer rows, each scaled by
    ``linalg.integer_row`` unless every denominator is 1, which keeps the
    rank; ZeroDenominatorError at a pole of a form of the plan or a zero
    of a pole check."""
    nums, dens = plan.plan.at(point)
    n, w = plan.rows * plan.width, plan.width or 1
    if 0 in nums[n:]:
        raise ZeroDenominatorError("zero denominator at evaluation point")
    if dens is None:
        return [nums[i:i + w] for i in range(0, n, w)]
    return [linalg.integer_row(list(zip(nums[i:i + w], dens[i:i + w])))
            for i in range(0, n, w)]


def _add_product(out: dict, a: dict, row: dict) -> None:
    """out += a * row in place, on sparse rows of integer polynomials,
    column -> terms, whose terms out owns; a is the terms of one."""
    for col, b in row.items():
        terms = out.setdefault(col, {})
        _add_product_terms(terms, a, b)
        if not terms:
            del out[col]


# keyed by value, so a set binding its names to other fields gets its own
# plan; 48 entries are three times the 16 (truncations 5 to 8, orders 1 to
# 3, and order 1 on the special manifold) one rank-invariants benchmark pass
# compiles.  Called with all four arguments positional, as lru_cache keys
# keywords apart.
@functools.lru_cache(maxsize=48)
def _compile(fields: tuple[VectorField, ...], coords: tuple[str, ...],
             family, locus) -> _RankPlan:
    """The matrix of ``fields``' coefficients on ``coords`` brought to a
    smaller one of the same rank at every point off its poles.  Each row is
    cleared of denominators by the product of its distinct ones.  With
    ``family`` = (s, J), fields s, s+1, ... being Y^0, Y^1, ..., rows
    Y^0..Y^J become W'_j = sum_i C(j,i) (-u)^(j-i) Y^i, unitriangular over
    Q[u], and a later Y^m is dropped where Y^m = sum_{j<=J} C(m,j) u^(m-j)
    W'_j holds exactly (see ``min_truncation``), else kept less that sum.
    Each nonzero constant entry, smallest first, is then eliminated
    fraction-free as a pivot.  An atom eliminated with a pivot leaves the
    rank free of its value; one left raises at evaluation.  With ``locus``
    = (v, a, b), v = -b/a is substituted into the residual and the pole
    checks, and a is one more pole check: the plan then reads only the
    other coordinates, and its rank at a point is the whole matrix's at
    that point with v on the locus.  A pole check that is identically zero
    there raises DivisionByZeroExpressionError, as the matrix is then
    undefined on the whole locus."""
    matrix = [[f.coefficient(c) for c in coords] for f in fields]
    poles = {e.denominator: 0 for row in matrix for e in row
             if not e.denominator.is_const()}
    rows: list[dict[int, dict[Monomial, int]]] = []
    for row in matrix:
        dens = {e.denominator: 0 for e in row if not e.denominator.is_one()}
        rows.append({c: dict(prod((d for d in dens if d != e.denominator),
                                  start=e.numerator).terms)
                     for c, e in enumerate(row) if not e.is_zero()})
    if family is not None:
        s, top = family
        ys, rows[s:] = rows[s:], []
        for m, acc in enumerate(ys):
            # Y^m less its expansion in the W'_j before it
            for j, w in enumerate(rows[s:s + min(m, top + 1)]):
                _add_product(acc, {mono("u", m - j): -comb(m, j)}, w)
            if acc or m <= top:
                rows.append(acc)
    pivots = 0
    while found := min(((abs(e[()]), r, c) for r, row in enumerate(rows)
                        for c, e in row.items() if len(e) == 1 and () in e),
                       default=None):
        pivot_row = rows.pop(found[1])
        p = pivot_row.pop(found[2])[()]
        unit = p if p * p == 1 else 1
        for row in rows:
            # row - p*a*pivot_row for a unit p, else p*row - a*pivot_row
            if (a := row.pop(found[2], None)) is not None:
                if unit != p:
                    row.update((col, {m: p * v for m, v in terms.items()})
                               for col, terms in row.items())
                _add_product(row, {m: -unit * v for m, v in a.items()},
                             pivot_row)
        pivots += 1
    rows = [row for row in rows if row]
    live = sorted(set().union(*rows))
    residual = [CanonicalForm(_poly(row.get(c, {})), _POLY_ONE)
                for row in rows for c in live]
    checks = [CanonicalForm(d, _POLY_ONE) for d in poles]
    if locus is not None:
        v, a, b = locus
        at = {v: CanonicalForm(-b, _POLY_ONE) / CanonicalForm(a, _POLY_ONE)}
        residual = [f.substitute(at) for f in residual]
        checks = [f.substitute(at) for f in checks] + [CanonicalForm(a, _POLY_ONE)]
        if any(f.is_zero() for f in checks):
            raise DivisionByZeroExpressionError(
                "a denominator of the matrix vanishes on the whole locus")
    return _RankPlan(pivots, len(rows), len(live), residual, checks)


def matrix_rank_at_samples(
    fields,
    coords: tuple[str, ...],
    *,
    seed: int = DEFAULT_SEED,
    locus: tuple[str, Poly, Poly] | None = None,
    family: tuple[int, int] | None = None,
) -> int:
    """The rank over Q(jet) of the fields' coefficient matrix on ``coords``.

    The first call on a compiled matrix proves its rank (``_proven_rank``)
    at one integer point drawn from ``seed``, and the plan keeps it; every
    later call on that plan, at any seed, returns the kept rank and
    evaluates nothing.  So only a matrix's first rank in a process is
    evaluated at its seed's point, and one evicted from ``_compile`` is
    proven again.  The seed picks the point and never the rank.  An atom
    left in the residual raises UnboundSymbolError.

    ``locus`` = (v, a, b) puts the solved coordinate v = -b/a of the point
    on the locus a*v + b = 0, a point where a vanishes being a pole.
    ``family`` marks the rows Y^0, Y^1, ... (see ``_compile``).
    """
    plan = _compile(tuple(fields), coords, family, locus)
    if plan.rank is None:
        plan.rank = _proven_rank(plan, _point(coords, seed))
    return plan.rank


def _proven_rank(plan: _RankPlan, point: dict[str, int]) -> int:
    """The rank over Q(jet) of ``plan``: the pivot count plus the
    residual's rank at ``point`` where that meets the compiled bound, else
    (a point short of the bound or on a pole) the plan's exact rank
    (``_RankPlan.exact_rank``)."""
    try:
        rank = plan.pivots + linalg.rank(_integer_rows(plan, point))
    except ZeroDenominatorError:
        return plan.exact_rank
    return rank if rank == plan.bound else plan.exact_rank


def _point(coords: tuple[str, ...], seed: int) -> dict[str, int]:
    """The integer point of a rank, drawn from ``seed``."""
    rng = random.Random(seed)
    return {c: rng.randint(-_POINT_RANGE, _POINT_RANGE) for c in coords}


def _family(g: GeneratorSet, order: int) -> tuple[int, int] | None:
    """(s, min_truncation(order)) when g's names end in Y^0, Y^1, ... from
    index s, else None."""
    k = sum(n.startswith(FAMILY_PREFIX) for n in g.names)
    if k and g.names[len(g.names) - k:] == tuple(map(family_name, range(k))):
        return len(g.names) - k, min_truncation(order)


def _chart(fields, order: int) -> tuple[str, ...]:
    """The coordinates of the order-``order`` chart that the prolonged
    ``fields`` live on, the default chart's for a set with no fields."""
    return fields[0].space.coordinates if fields else JetSpace(order).coordinates


def prolonged_rank(g: GeneratorSet, order: int, *,
                   seed: int = DEFAULT_SEED) -> RankReport:
    """Generic rank of the order-``order`` prolonged coefficient matrix:
    the rank on the locus 0 = 0, which holds everywhere."""
    return rank_on_manifold(g, 0, order, seed=seed)


def _linear_solve_coordinate(constraint: CanonicalForm, coords: tuple[str, ...]):
    """Pick the coordinate v to isolate from a*v + b, the constraint
    numerator: it must be degree 1 in v, with a and b polynomials in the
    other chart coordinates, so no atom instance such as exp(u).
    Constant-coefficient candidates are preferred; ties go to the earlier
    chart coordinate."""
    num = constraint.numerator
    chart = set(coords)
    candidates = []
    for v in coords:
        if num.degree_in(v) != 1:
            continue
        decomposition = num.coeffs_in(v)
        a, b = decomposition[1], decomposition.get(0, Poly())
        if a.variables() | b.variables() <= chart:
            candidates.append((v, a, b))
    if not candidates:
        raise NotSolvableError(
            "constraint cannot be solved for any chart coordinate by exact "
            "rational rearrangement")
    constant_first = sorted(
        candidates,
        key=lambda item: (not item[1].is_const(), coords.index(item[0])))
    return constant_first[0]


def rank_on_manifold(
    g: GeneratorSet,
    constraint: CanonicalForm | ExprLike,
    order: int,
    *,
    seed: int = DEFAULT_SEED,
) -> RankReport:
    """Generic rank on the locus ``constraint = 0``.

    Unless the constraint is identically zero, it must isolate one chart
    coordinate v from a*v + b = 0 by exact rational rearrangement.  The
    matrix is compiled as for ``prolonged_rank``, and v = -b/a is then
    substituted into its residual and pole checks (see ``_compile``), so
    the integer point of the other coordinates is put on the locus.  The
    point is a pole where a vanishes, even when b shares the vanishing
    factor, or where a denominator of the matrix vanishes on the locus;
    a denominator that vanishes on the whole locus raises
    DivisionByZeroExpressionError.
    """
    fields = g.prolonged(order)
    coords = _chart(fields, order)
    cf = canonicalize(constraint)
    locus = None if cf.is_zero() else _linear_solve_coordinate(cf, coords)
    rank = matrix_rank_at_samples(fields, coords, seed=seed, locus=locus,
                                  family=_family(g, order))
    return RankReport(order, rank, seed, len(coords))


def minimal_generating_set(
    g: GeneratorSet,
    order: int,
    *,
    exhaustive: bool = False,
) -> tuple[str, ...]:
    """A subset of generators whose prolongation keeps the full generic rank.

    Greedy elimination by default: each member in turn is dropped when the
    rest keep the full set's rank.  That rank is exact
    (``prolonged_rank``), and no subset exceeds it, so a subset whose rank
    at the one point of the whole matrix meets it keeps it; any other
    subset is ranked exactly (``_proven_rank``), on a plan compiled outside
    the shared ``_compile`` cache.  So the result keeps the full rank and
    every member it keeps is needed: dropping one lowers the rank.  It is
    not guaranteed to be a globally minimum subset; ``exhaustive=True``
    searches all subsets (only for up to 10 generators).
    """
    prolonged = g.prolonged(order)
    fields = dict(zip(g.names, prolonged))
    coords = _chart(prolonged, order)
    full_rank = prolonged_rank(g, order).rank
    point = _point(coords, DEFAULT_SEED)
    whole = _RankPlan(0, len(prolonged), len(coords),
                      [f.coefficient(c) for f in prolonged for c in coords], [])
    try:
        at_point = dict(zip(g.names, _integer_rows(whole, point)))
    except ZeroDenominatorError:
        at_point = None

    def keeps_full_rank(names) -> bool:
        if at_point is not None and linalg.rank(
                [at_point[n] for n in names]) == full_rank:
            return True
        # compiled outside ``_compile``, whose plans and kept ranks the
        # rank commands share
        plan = _compile.__wrapped__(tuple(fields[n] for n in names), coords,
                                    None, None)
        return _proven_rank(plan, point) == full_rank

    if exhaustive:
        if len(g.names) > 10:
            raise ValueError("exhaustive search is limited to 10 generators")
        for size in range(1, len(g.names) + 1):
            for combo in combinations(g.names, size):
                if keeps_full_rank(combo):
                    return combo
    # one pass suffices: a member kept once stays needed, since dropping
    # rows from a set can only lower its rank
    current = list(g.names)
    for name in g.names:
        if len(current) == 1:
            break
        trial = [n for n in current if n != name]
        if keeps_full_rank(trial):
            current = trial
    return tuple(current)
