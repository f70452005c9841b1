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

Structure is verified exactly.  Each first-order generator is flattened
once into a sparse row of rational coefficients keyed by (coordinate,
monomial), and the rows are brought to one semi-echelon form in generator
order (``span_basis``, cached per generator set).  The generators are
linearly independent, so every bracket has at most one decomposition in
them; each pairwise bracket is reduced against the basis once, giving that
decomposition or None when a residual is left.  The commutator table is the
dict of these decompositions keyed by generator pair (left, right), and the
closure sweep reads their supports: a subset is bracket-closed when every
bracket of two members decomposes into members only.

``GeneratorSet.prolonged`` takes its fields from one bounded cache of the
process, keyed by the field's value, the order and the base order, so sets
share a field's prolongations while the cache holds them.  A field missing
there is built from the set's own order k - 1 by one step of the recursion,
so one set never prolongs a field twice, however many fields it holds.

Generic ranks of prolonged coefficient matrices are computed by exact
evaluation at seeded random integer points, taking the maximum over
samples.  Each rank computation compiles its matrix once into a
``canonical.EvaluationPlan``: the distinct monomials of every entry, and
each entry's numerator and denominator terms on them.  At a point every
monomial is evaluated once and the entries are summed from those values.
Where every denominator is 1, as at every integer point of polynomial
coefficients, the numerators are the integer rows; at a rational point, or
with a rational coefficient, each row is scaled to integers by the lcm of
its denominators (``linalg.integer_row``).  The rank is taken by
fraction-free elimination (``linalg.rank``); no modular or floating-point
shortcut is made, as a rank modulo a prime can fall below the rank over
the rationals.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .canonical import CanonicalForm, EvaluationPlan, Poly, canonicalize, coordinate
from .expr import ExprLike, ZeroDenominatorError
from .jetspace import JetSpace
from .vfields import PointAction, VectorField, bracket, induce_from_point_action, prolong

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 8
DEFAULT_COORDINATE_RANGE = 50
DEFAULT_K = 6
# the smallest truncation the closure sweep accepts
CLOSURE_MIN_K = 4
_MAX_RESAMPLES = 200


class SamplingExhaustedError(Exception):
    """No valid evaluation point was found within the retry budget."""


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


@functools.lru_cache(maxsize=256)
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


@dataclass(frozen=True)
class GeneratorSet:
    """The generators [Y0, Y1, Y2, Y3, Y^0, ..., Y^K] for one source.

    ``base_order`` records at which jet order the stored coefficients are
    authoritative: 0 for the derived source (everything above is produced by
    the prolongation recursion), 1 for the printed source (the published
    first-order coefficients are data, not recomputed).
    """

    source: Source
    truncation: int
    names: tuple[str, ...]
    base_fields: tuple[VectorField, ...]
    base_order: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def field_named(self, name: str) -> VectorField:
        return self.base_fields[self.names.index(name)]

    def prolonged(self, order: int) -> tuple[VectorField, ...]:
        if order not in self._cache:
            below = (self.prolonged(order - 1) if order > self.base_order + 1
                     else self.base_fields)
            self._cache[order] = tuple(
                _prolonged(f, order, self.base_order, prev)
                for f, prev in zip(self.base_fields, below))
        return self._cache[order]

    def prolonged_named(self, order: int) -> dict[str, VectorField]:
        return dict(zip(self.names, self.prolonged(order)))


# the prolongations of base fields, shared by every generator set of the
# process and keyed by (field, order, base_order): fields compare by value,
# not by the name a set gives them.  Bounded: emptied in place once it holds
# _PROLONGED_MAX_ENTRIES fields, three times the 39 (13 fields, orders 1 to
# 3) that one rank-invariants benchmark pass leaves.
_PROLONGED_MAX_ENTRIES = 128
_PROLONGED: dict[tuple, VectorField] = {}


def _prolonged(f: VectorField, order: int, base_order: int,
               below: VectorField) -> VectorField:
    """f lifted to the order-``order`` chart, its coefficients up to
    ``base_order`` taken as given.  ``below`` is f at order - 1, or f itself
    up to order base_order + 1; a field missing from the cache is one step
    of the recursion from it."""
    key = (f, order, base_order)
    out = _PROLONGED.get(key)
    if out is None:
        out = prolong(below, order, given_order=max(order - 1, base_order))
        if len(_PROLONGED) >= _PROLONGED_MAX_ENTRIES:
            _PROLONGED.clear()
        _PROLONGED[key] = out
    return out


def build_generators(source: Source | str = Source.DERIVED,
                     truncation: int = DEFAULT_K) -> GeneratorSet:
    """Construct the generator list for the chosen coefficient source."""
    source = Source(source)
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

_Key = tuple[str, tuple]  # (coordinate, monomial)
_Row = dict[_Key, Fraction]


def _field_coefficient_table(f: VectorField) -> _Row:
    """Flatten a field with polynomial coefficients into (coordinate,
    monomial) -> rational entries."""
    return {(v, m): c for v, coeff in f.coefficients.items()
            for m, c in coeff.rational_coefficients().items()}


def _add_multiple(target: dict, a: Fraction, source: dict) -> None:
    """target += a * source in place, dropping entries that cancel."""
    for key, c in source.items():
        v = target.get(key, 0) + a * c
        if v:
            target[key] = v
        else:
            del target[key]


@dataclass(frozen=True)
class SpanBasis:
    """Sparse semi-echelon form of linearly independent generator fields.

    Row i is generator i reduced against rows 0..i-1: it carries a pivot
    key, on which it is 1 and every later row is 0, and its combination of
    the original generators by index.  Reducing a vector against the rows
    once, in order, leaves its residual outside the span.
    """

    names: tuple[str, ...]
    rows: tuple[tuple[_Key, _Row, dict[int, Fraction]], ...]


def _eliminate(basis_rows, vector: _Row) -> tuple[_Row, dict[int, Fraction]]:
    """Subtract basis rows from ``vector``; returns the residual and the
    generator combination that was subtracted."""
    residual = dict(vector)
    removed: dict[int, Fraction] = {}
    for pivot, row, combination in basis_rows:
        a = residual.get(pivot)
        if a is not None:
            _add_multiple(residual, -a, row)
            _add_multiple(removed, a, combination)
    return residual, removed


def span_basis(g: GeneratorSet) -> SpanBasis:
    """The echelon basis of g's first-order fields, built once per set in
    generator order.  Raises ValueError when a generator lies in the span
    of those before it, since decompositions would then not be unique."""
    key = "span"
    if key not in g._cache:
        rows = []
        for i, (name, f) in enumerate(zip(g.names, g.prolonged(1))):
            residual, removed = _eliminate(rows, _field_coefficient_table(f))
            if not residual:
                raise ValueError(
                    f"generator {name} lies in the span of the generators "
                    f"before it; bracket decompositions would not be unique")
            pivot = min(residual)
            inv = 1 / residual[pivot]
            combination = {j: -c * inv for j, c in removed.items()}
            combination[i] = inv
            rows.append((pivot, {k: c * inv for k, c in residual.items()},
                         combination))
        g._cache[key] = SpanBasis(g.names, tuple(rows))
    return g._cache[key]


def solve_in_span(basis: SpanBasis,
                  target: VectorField) -> dict[str, Fraction] | None:
    """The exact rational combination of basis generators equal to
    ``target``, in generator order, or None when it lies outside their
    span."""
    residual, removed = _eliminate(basis.rows, _field_coefficient_table(target))
    if residual:
        return None
    return {basis.names[j]: removed[j] for j in sorted(removed)}


def commutator_table(
        g: GeneratorSet) -> dict[tuple[str, str], dict[str, Fraction] | None]:
    """Every pairwise bracket, keyed by (left, right) with left before right
    in generator order, decomposed exactly in the generator basis: a dict of
    generator coefficients, or None when the bracket lies outside the span.
    Each bracket is reduced once against ``span_basis(g)``; the table is
    cached on ``g`` and shared by every caller."""
    key = "brackets"
    if key not in g._cache:
        basis = span_basis(g)
        fields = g.prolonged(1)
        names = g.names
        g._cache[key] = {
            (names[i], names[j]): solve_in_span(
                basis, bracket(fields[i], fields[j]))
            for i in range(len(names)) for j in range(i + 1, len(names))}
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
# generic ranks by exact sampling


def min_truncation(order: int) -> int:
    """The smallest truncation K at which Y0..Y3, Y^0..Y^K reach the
    generic rank of the whole algebra at jet order ``order``.

    Measured on both sources: the rank is k + 6 from K = k + 2 on and one
    less at K = k + 1, for k = 1..6.  Order 0 reaches its rank 5 at K = 1
    already; it keeps k + 2 so that one rule covers every order.  A rank or
    an invariant verdict at a smaller K holds for the truncation only.
    """
    return order + 2


@dataclass(frozen=True)
class RankReport:
    order: int
    rank: int
    samples_used: int
    seed: int
    variable_count: int

    @property
    def invariant_count(self) -> int:
        return self.variable_count - self.rank

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "rank": self.rank,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "variable_count": self.variable_count,
            "invariant_count": self.invariant_count,
        }


def _sample_point(rng: random.Random, coords: tuple[str, ...],
                  coordinate_range: int) -> dict[str, int]:
    return {c: rng.randint(-coordinate_range, coordinate_range) for c in coords}


def _integer_rows(plan: EvaluationPlan, width: int,
                  point) -> list[list[int]]:
    """The coefficient matrix that ``plan`` holds row by row, ``width``
    entries a row, at ``point`` as integer rows.  Where every denominator
    is 1, as at every integer point of polynomial coefficients, the
    numerators are the rows; otherwise each row is scaled to integers by
    ``linalg.integer_row``, which keeps the rank."""
    nums, dens = plan.at(point)
    starts = range(0, len(nums), width)
    if dens is None:
        return [nums[i:i + width] for i in starts]
    return [linalg.integer_row(list(zip(nums[i:i + width], dens[i:i + width])))
            for i in starts]


def _sampled_matrices(fields, coords, samples, seed, coordinate_range,
                      point_filter=None):
    """The coefficient matrix at one valid point per sample seed.

    Sample seeds are drawn from ``seed`` up front; each seeds its own stream
    of candidate points, retried on poles or rejection by ``point_filter``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    sample_seeds = [rng.randrange(2 ** 32) for _ in range(samples)]
    plan = EvaluationPlan([f.coefficient(c) for f in fields for c in coords])
    for s in sample_seeds:
        sub = random.Random(s)
        for _ in range(_MAX_RESAMPLES):
            point = _sample_point(sub, coords, coordinate_range)
            if point_filter is not None:
                point = point_filter(point)
                if point is None:
                    continue
            try:
                rows = _integer_rows(plan, len(coords), point)
            except ZeroDenominatorError:
                continue
            yield rows
            break
        else:
            raise SamplingExhaustedError(
                f"no valid sample point found in {_MAX_RESAMPLES} tries")


def matrix_rank_at_samples(
    fields,
    coords: tuple[str, ...],
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    coordinate_range: int = DEFAULT_COORDINATE_RANGE,
    point_filter=None,
) -> tuple[int, int]:
    """Max exact rank of the coefficient matrix over seeded integer points.

    ``point_filter`` may adjust a candidate point (e.g. force it onto a
    constraint locus) or reject it by returning None.  Returns (rank,
    samples_used).
    """
    ranks = [linalg.rank(rows) for rows in _sampled_matrices(
        fields, coords, samples, seed, coordinate_range, point_filter)]
    return max(ranks), len(ranks)


def prolonged_rank(
    g: GeneratorSet,
    order: int,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    coordinate_range: int = DEFAULT_COORDINATE_RANGE,
) -> RankReport:
    """Generic rank of the order-``order`` prolonged coefficient matrix."""
    fields = g.prolonged(order)
    coords = JetSpace(order).coordinates
    best, used = matrix_rank_at_samples(
        fields, coords, samples=samples, seed=seed,
        coordinate_range=coordinate_range)
    return RankReport(order, best, used, seed, len(coords))


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
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    coordinate_range: int = DEFAULT_COORDINATE_RANGE,
) -> RankReport:
    """Generic rank on the locus ``constraint = 0``.

    The constraint must isolate one chart coordinate v from a*v + b = 0 by
    exact rational rearrangement; sample points are then drawn on the
    locus.  a and b are evaluated apart, from one plan, so a point where a
    vanishes is rejected even when b shares the vanishing factor.
    """
    coords = JetSpace(order).coordinates
    cf = canonicalize(constraint)
    if cf.is_zero():
        return prolonged_rank(g, order, samples=samples, seed=seed,
                              coordinate_range=coordinate_range)
    v, a, b = _linear_solve_coordinate(cf, coords)
    plan = EvaluationPlan([CanonicalForm(p, Poly.const(1)) for p in (a, b)])

    def on_locus(point):
        partial = {name: value for name, value in point.items() if name != v}
        (a_num, b_num), dens = plan.at(partial)
        if a_num == 0:
            return None
        a_den, b_den = dens or (1, 1)
        partial[v] = Fraction(-b_num * a_den, b_den * a_num)
        return partial

    fields = g.prolonged(order)
    best, used = matrix_rank_at_samples(
        fields, coords, samples=samples, seed=seed,
        coordinate_range=coordinate_range, point_filter=on_locus)
    return RankReport(order, best, used, seed, len(coords))


def minimal_generating_set(
    g: GeneratorSet,
    order: int,
    *,
    exhaustive: bool = False,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    coordinate_range: int = DEFAULT_COORDINATE_RANGE,
) -> tuple[str, ...]:
    """A subset of generators whose prolongation keeps the full generic rank.

    Greedy elimination by default: the result cannot lose any single member
    (greedy-minimal) but is not guaranteed to be a globally minimum subset.
    ``exhaustive=True`` searches all subsets (only for up to 10 generators).
    """
    coords = JetSpace(order).coordinates
    matrices = [dict(zip(g.names, rows)) for rows in _sampled_matrices(
        g.prolonged(order), coords, samples, seed, coordinate_range)]

    def subset_rank(names) -> int:
        return max(linalg.rank([mat[n] for n in names]) for mat in matrices)

    full_rank = subset_rank(g.names)
    if exhaustive:
        if len(g.names) > 10:
            raise ValueError("exhaustive search is limited to 10 generators")
        import itertools
        for size in range(1, len(g.names) + 1):
            for combo in itertools.combinations(g.names, size):
                if subset_rank(combo) == full_rank:
                    return combo
    # one pass suffices: a member kept once stays needed, since dropping
    # rows from a set can only lower its rank at every sample
    current = list(g.names)
    for name in g.names:
        if len(current) == 1:
            break
        trial = [n for n in current if n != name]
        if subset_rank(trial) == full_rank:
            current = trial
    return tuple(current)
