"""Relative and absolute differential invariants of the equivalence algebra.

A candidate F is absolute when every prolonged generator annihilates it and
relative when each generator returns a polynomial multiple of it; the factor
is its weight.  Weights add under products, which turns the search for
absolute invariants among weighted building blocks into an exact integer
kernel computation.

The module also carries the published candidate invariants: the first-order
relative invariant R = sigma*f_sigma - f, the published second-order pair,
and the corrected first component sigma^2*f_sigmasigma/(sigma*f_sigma - f).
Verification reports state which published formulas pass and which fail
under each coefficient source; nothing is silently corrected.

Every verdict of a prolonged generator on a candidate, with its weight,
comes from one LRU cache of the process (``_verdict``) keyed by the
field's and the candidate's values: ``is_absolute``, ``relative_weight``
and the kernel search's re-verification read it, so a process decides a
generator on a candidate once while the cache holds the pair.

A verdict takes no gcd when every coefficient of the field is over 1, as
every prolonged coefficient of both sources is.  On the reduced candidate
F = N/D it is read from the integer polynomials X(N) and X(D): F is
absolute exactly when X(N)*D = N*X(D), and relative exactly when N divides
X(N) and D divides X(D), with weight X(N)/N - X(D)/D.  ``_verdict`` gives
the proof.  A field with any other coefficient reduces X(F) and then
X(F)/F.
"""

from __future__ import annotations

import functools

from . import linalg
from .canonical import (
    ONE_FORM,
    CanonicalForm,
    _POLY_ONE,
    _derive_poly,
    _quotient,
    canonicalize,
)
from .expr import Expr, parse, to_string
from .eqalgebra import (
    DEFAULT_K,
    GeneratorSet,
    Source,
    build_generators,
    matrix_rank_at_samples,
)
from .jetspace import JetSpace
from .value import Value, set_field
from .vfields import VectorField, apply


class ZeroCandidateError(Exception):
    """The zero expression cannot be tested for relative invariance."""


# the invariant fixtures, in the order-2 chart
_CHART2 = JetSpace(2)

NAMED_EXPRESSIONS: dict[str, Expr] = {
    # vanishing locus of the special manifold; relative, not absolute
    "R": parse("sigma*f_sigma - f", _CHART2),
    # second-order pair as published; the first component fails absoluteness
    "R1_printed": parse("sigma*f_sigmasigma/(sigma*f_sigma - f)", _CHART2),
    # corrected first component (extra sigma factor); absolute
    "R1_corrected": parse("sigma^2*f_sigmasigma/(sigma*f_sigma - f)", _CHART2),
    # second component as published; absolute as printed
    "R2": parse(
        "(-2*sigma^2*f*f_sigmasigma + sigma*(f_u - sigma*f_usigma)"
        " + f*(sigma*f_sigma - f))/(sigma*f_sigma - f)^2",
        _CHART2,
    ),
}


def relative_weight(f_expr: Expr | CanonicalForm,
                    x: VectorField) -> CanonicalForm | None:
    """The weight lambda with X(F) = lambda * F, when the exact quotient
    X(F)/F is a polynomial after cancellation; None otherwise."""
    form = canonicalize(f_expr)
    if form.is_zero():
        raise ZeroCandidateError("cannot compute a weight for the zero expression")
    kind, weight = _verdict(x, form)
    return canonicalize(0) if kind == "absolute" else weight


@functools.lru_cache(maxsize=256)
def _verdict(x: VectorField, form: CanonicalForm
             ) -> tuple[str, CanonicalForm | None]:
    """How the field acts on the candidate: ("absolute", None) when
    X(F) = 0, ("relative", lambda) when X(F) = lambda * F for a polynomial
    lambda, else ("neither", None).  Kept per (field, candidate) value, so
    a process decides a prolonged generator on a candidate once while the
    cache holds the pair.

    When every coefficient c_v of X is over 1, X maps integer polynomials
    to integer polynomials: exp(v) stays an independent indeterminate, with
    X(exp(v)) = c_v * exp(v).  Then the verdict on F = N/D, reduced, needs
    no reduction:

    - X(F) = (X(N)*D - N*X(D))/D^2 vanishes exactly when X(N)*D = N*X(D).
    - X(F)/F = X(N)/N - X(D)/D = (X(N)*D - N*X(D))/(N*D).  N and D are
      coprime, so this is a polynomial lambda iff N | X(N) and D | X(D):
      lambda*N*D = X(N)*D - N*X(D) puts N | X(N)*D, hence N | X(N), and
      D | N*X(D), hence D | X(D); the converse is plain.
    - A division that holds over Q holds over the integers.  Write
      N = c*P with c its content and P primitive.  X(c*P) = c*X(P), so
      N | X(N) over Q means P | X(P) over Q, hence over the integers by
      Gauss's lemma, and N | X(N) with the same quotient; likewise for D.
      So the exact integer division ``_quotient`` finds it, and lambda =
      X(N)/N - X(D)/D is an integer polynomial, a form over 1.

    A field with any other denominator reduces X(F) by ``apply``, which is
    looked up in this module when called, and then X(F)/F."""
    coefficients = x.coefficients
    if not all(c.denominator.is_one() for c in coefficients.values()):
        image = apply(x, form)
        if image.is_zero():
            return "absolute", None
        weight = image / form
        if weight.is_polynomial():
            return "relative", weight
        return "neither", None
    num, den = form.numerator, form.denominator
    xn, _ = _derive_poly(num, coefficients)
    xd, _ = _derive_poly(den, coefficients)
    if xn * den == num * xd:
        return "absolute", None
    by_num, by_den = _quotient(xn, num), _quotient(xd, den)
    if by_num is None or by_den is None:
        return "neither", None
    return "relative", CanonicalForm(by_num - by_den, _POLY_ONE)


class InvariantReport(Value):
    _fields = ("candidate", "verdicts")

    def __init__(self, candidate: Expr | CanonicalForm,
                 verdicts: dict[str, tuple[str, CanonicalForm | None]]):
        # verdicts: name -> (kind, weight)
        set_field(self, "candidate", candidate)
        set_field(self, "verdicts", verdicts)

    @property
    def overall(self) -> str:
        kinds = {kind for kind, _ in self.verdicts.values()}
        if kinds <= {"absolute"}:
            return "absolute"
        if kinds <= {"absolute", "relative"}:
            return "relative"
        return "neither"

    def as_dict(self) -> dict:
        return {
            "candidate": str(self.candidate),
            "overall": self.overall,
            "verdicts": {
                name: {"kind": kind,
                       "weight": None if weight is None else str(weight)}
                for name, (kind, weight) in self.verdicts.items()
            },
        }


def is_absolute(f_expr: Expr | CanonicalForm, g: GeneratorSet,
                order: int) -> InvariantReport:
    """The verdict of every prolonged generator on F: absolute iff all
    images vanish, relative where the image is a polynomial multiple of F."""
    form = canonicalize(f_expr)
    return InvariantReport(f_expr, {
        name: _verdict(x, form)
        for name, x in g.prolonged_named(order).items()})


def functional_independence(candidates: list[Expr], space: JetSpace) -> bool:
    """Whether the Jacobian of the candidates w.r.t. the chart coordinates
    has full rank over Q(jet), which the verdict proves either way: the
    rank is taken by one exact elimination over the Jacobian's rational
    functions (see ``eqalgebra.matrix_rank_at_samples``), so it holds even
    where a Jacobian entry vanishes at every integer point."""
    if not candidates:
        raise ValueError("need at least one candidate")
    rows = tuple(VectorField(space, {c: form.diff(c)
                                     for c in form.free_coordinates()})
                 for form in map(canonicalize, candidates))
    return matrix_rank_at_samples(rows, space.coordinates) == len(candidates)


class WeightedBlock(Value):
    """A building block verified relative under the scaling generators,
    together with its weights."""

    _fields = ("expr", "weights")

    def __init__(self, expr: Expr, weights: dict[str, CanonicalForm]):
        set_field(self, "expr", expr)
        set_field(self, "weights", weights)

    @classmethod
    def measure(cls, expr: Expr, gens: dict[str, VectorField]) -> "WeightedBlock":
        form = canonicalize(expr)
        weights = {}
        for name, x in gens.items():
            w = relative_weight(form, x)
            if w is None:
                raise ValueError(
                    f"block {to_string(expr)} is not relative under {name}")
            weights[name] = w
        return cls(expr, weights)


def weight_kernel_search(
    blocks: list[WeightedBlock],
    scaling_gens: dict[str, VectorField],
) -> list[tuple[int, ...]]:
    """Integer exponent vectors e with sum_i e_i * weight_i == 0 for every
    scaling generator; each vector makes prod blocks^e_i absolute under those
    generators (re-verified before returning).

    Each block's weights form one sparse column keyed by (generator,
    monomial).  Block i whose column is sum_j c_j times the columns of the
    independent blocks before it (``linalg.semi_echelon``) gives the kernel
    vector e_i - sum_j c_j e_j, one per such block in block order: the
    basis that reduced row echelon form reads off its free columns."""
    columns = []
    for block in blocks:
        column = {}
        for gname in scaling_gens:
            w = block.weights.get(gname)
            if w is None:
                raise ValueError("every block needs a weight for every generator")
            for m, c in w.rational_coefficients().items():
                column[(gname, m)] = c
        columns.append(column)
    _, _, dependent = linalg.semi_echelon(columns)
    vectors = []
    for i, combination in dependent.items():
        v = [-combination.get(j, 0) for j in range(len(blocks))]
        v[i] = 1
        vectors.append(linalg.primitive_integer_vector(v))
    for vec in vectors:
        candidate = candidate_from_exponents(blocks, vec)
        for gname, x in scaling_gens.items():
            if _verdict(x, candidate)[0] != "absolute":
                raise AssertionError(
                    f"kernel vector {vec} failed re-verification under {gname}")
    return vectors


def candidate_from_exponents(blocks: list[WeightedBlock],
                             exponents: tuple[int, ...]) -> CanonicalForm:
    """The product of the blocks raised to ``exponents``, as a form."""
    out = ONE_FORM
    for block, e in zip(blocks, exponents):
        out = out * canonicalize(block.expr) ** e
    return out


def verify_paper_invariants(source: Source | str = Source.DERIVED,
                            truncation: int = DEFAULT_K) -> dict:
    """Check the published invariant formulas under one coefficient source.

    The bundle records, per candidate and per generator, whether it is
    absolute, relative (with weight), or neither, plus a discrepancy list
    naming published formulas that fail.  The report is an output of the
    artifact, not a pass/fail judgement.
    """
    g = build_generators(source, truncation)
    report: dict = {
        "schema": 1,
        "source": Source(source).value,
        "truncation": truncation,
        "candidates": {},
        "discrepancies": [],
    }

    r = NAMED_EXPRESSIONS["R"]
    r_report = is_absolute(r, g, 1)
    report["candidates"]["R"] = r_report.as_dict()
    if r_report.overall != "relative":
        report["discrepancies"].append(
            "R = sigma*f_sigma - f is not a relative invariant under the "
            f"{Source(source).value} coefficients"
        )

    for name in ("R1_printed", "R1_corrected", "R2"):
        rep = is_absolute(NAMED_EXPRESSIONS[name], g, 2)
        report["candidates"][name] = rep.as_dict()
    if report["candidates"]["R1_printed"]["overall"] == "absolute":
        report["discrepancies"].append(
            "published first second-order component is absolute here, "
            "contrary to the corrected form analysis")
    else:
        report["discrepancies"].append(
            "published second-order component sigma*f_sigmasigma/"
            "(sigma*f_sigma - f) is not absolute; the corrected form "
            "sigma^2*f_sigmasigma/(sigma*f_sigma - f) is"
            if report["candidates"]["R1_corrected"]["overall"] == "absolute"
            else "neither the published nor the corrected first component "
                 "is absolute under this source")
    return report


def compare_sources(truncation: int = DEFAULT_K) -> dict:
    """Side-by-side verdicts under both coefficient sources, naming which
    published coefficient formulas are inconsistent."""
    derived = verify_paper_invariants(Source.DERIVED, truncation)
    printed = verify_paper_invariants(Source.PAPER_PRINTED, truncation)
    notes = []
    if derived["candidates"]["R"]["overall"] == "relative" \
            and printed["candidates"]["R"]["overall"] != "relative":
        notes.append(
            "the printed dilation/u-reparameterization coefficients do not "
            "leave R = sigma*f_sigma - f relative; the derived coefficients "
            "(-2*sigma on d_sigma, phi'*f + phi''*sigma on d_f) do")
    return {
        "schema": 1,
        "truncation": truncation,
        "derived": derived,
        "paper_printed": printed,
        "notes": notes,
    }
