"""Canonical rational normal forms for expressions.

An expression canonicalizes to a reduced fraction N/D of expanded
multivariate polynomials with integer coefficients.  Each exp(v) is treated
as an algebraically independent indeterminate whose derivative by v is
itself, so equality is decided modulo that assumption (the only one this
module makes).

Every generator (a coordinate, or an instance exp(v) of the atom) has an
index in one process-wide table, in first-seen order, and a monomial is the
tuple of its exponents by index with trailing zeros stripped, so each
monomial has one form and a product is a tuple add.  The table only grows,
and the grammar bounds it: its names are coordinates of the charts a
process builds and exp() of them, at most 74 for the command line, whose
charts stop at order 6.  The kernel needs no term order of its own: exact
division takes its next term by plain tuple comparison, which is the lex
order on the exponents by index.  The fixed generator order of
:func:`gen_key` (t, x, u, sigma, f, then f-derivatives by total order then
index, then internal u-derivatives, then instances of exp by their
argument), with total degree first, is read by one key,
:func:`_gen_order`, for the printer, for the sign rule below and for the
name an unbound-symbol error reports; so no output depends on the table's
order.

Text becomes a form in :func:`parse_form`: the one grammar of
:mod:`wavesym.expr` calls fraction constructors, which build one unreduced
pair of integer polynomials as they read, and the pair is reduced once at
the end, so equation text never becomes a tree.  :func:`canonicalize` folds
a tree, which exists only for an invariant candidate or for printing,
through the same constructors.  So the one rule on zero denominators lives
there: a negative power of an identically zero value raises
DivisionByZeroExpressionError("negative power of an identically zero
expression"), once the whole text has parsed or the whole tree has folded.
Computation starts from those forms, from forms built by :func:`coordinate`
and from rational numbers, and a form prints its text straight from its two
polynomials, never through a tree.

One rule normalizes the pair: gcd(N, D) is constant, the integer contents
of N and D are coprime and lc(D) > 0, lc the leading coefficient in that
degree-lex order; so u/2 is (u, 2) and zero is (0, 1).  The form is unique,
hence canonicalization idempotent and equality a dictionary comparison.
Rationals exist only at the edges: parser constants enter as (p, q);
``eval_at``, the printer and ``rational_coefficients`` return them.

The gcd behind each reduction, :func:`poly_gcd`, returns g with both
cofactors p/g and q/g, so a reduction divides by the gcd only once and
then by an integer content.  When one argument is a single term, g is
the monomial of least exponents over the terms of both, since a
monomial's divisors are monomials.  Otherwise it takes one of two paths,
which give the same normalized result.  The heuristic GCDHEU (Char,
Geddes & Gonnet, JSC 1989) evaluates both polynomials at an integer xi,
one generator at a time, takes the integer gcd and interpolates it back
in balanced base xi.
Its candidate is accepted only when it divides both inputs exactly, with
xi >= 2*min(|p|, |q|) + 2 (largest absolute coefficients), which the
paper's theorem makes a proof that it is the gcd; the quotients of those
trial divisions are the cofactors.  The subresultant remainder sequence
takes over when six points give no proven candidate, and for every input
whose evaluated integers are estimated above ``_HEU_GCD_MAX_BITS``.  A
substitution of diagonal affine maps v -> a*v + b takes no gcd at all (see
:meth:`CanonicalForm.substitute`), and neither does a pair whose D is 1,
an integer polynomial, which is already in normal form.

A derivation sum_v c_v * d/dv, keyed by coordinate, acts on a polynomial
in one pass over its generators (:func:`_derive_poly`): exp(v) contributes
c_v times each term by its exponent of exp(v), the chain rule through the
atom.  A coefficient over 1, as are those of the prolonged generators of
both sources, adds its product into one term dict; only the others are
summed as fractions, joined to that sum once.  A single d/dv, for a
bracket row or a signature, is :func:`_partial`, which needs no
coefficient at all.  A form N/D is derived by the quotient rule and
reduced once.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd as int_gcd, isqrt, lcm, prod
from typing import Iterable, Mapping, Sequence

from .expr import (
    ATOM,
    AtomApp,
    AtomArgumentError,
    Const,
    Coord,
    DivisionByZeroExpressionError,
    Expr,
    ExprLike,
    Nodes,
    Power,
    Product,
    Sum,
    UnboundSymbolError,
    UnknownIdentifierError,
    ZeroDenominatorError,
    as_expr,
    number_text,
    parse_nodes,
)
from .linalg import _add_multiple
from .value import Value, set_field

# ---------------------------------------------------------------------------
# the generator table

_BASE_KEYS = {"t": (0, 0), "x": (0, 1), "u": (0, 2), "sigma": (0, 3), "f": (1, 0, 0)}
_F_DERIV_RE = re.compile(r"^f_(u*)((?:sigma)*)$")
_U_DERIV_RE = re.compile(r"^u_(t*)(x*)$")


def _atom_parts(name: str) -> tuple[str, str] | None:
    """(atom, argument) for an atom-instance generator such as exp(u); None
    for a coordinate."""
    if name.endswith(")") and "(" in name:
        return tuple(name[:-1].split("(", 1))
    return None


def gen_key(name: str) -> tuple[int, ...]:
    """Total-order sort key for a generator (coordinate or atom instance);
    any other name raises UnknownIdentifierError."""
    if name in _BASE_KEYS:
        return _BASE_KEYS[name]
    m = _F_DERIV_RE.match(name)
    if m and (m.group(1) or m.group(2)):
        a = len(m.group(1))
        b = len(m.group(2)) // len("sigma")
        return (1, a + b, b)
    m = _U_DERIV_RE.match(name)
    if m and (m.group(1) or m.group(2)):
        a = len(m.group(1))
        b = len(m.group(2))
        return (2, a + b, b)
    if (parts := _atom_parts(name)) is not None:
        atom, arg = parts
        if atom != ATOM:
            raise UnknownIdentifierError(atom)
        return (3, 0) + gen_key(arg)
    raise UnknownIdentifierError(name)


# the generator table: index -> name, index -> gen_key(name) and name ->
# index.  It only grows; the grammar bounds it (see the module docstring).
_NAMES: list[str] = []
_KEYS: list[tuple[int, ...]] = []
_INDEX: dict[str, int] = {}


def _gen_index(name: str) -> int:
    """The table index of a generator; a new name is validated and entered
    with its gen_key."""
    i = _INDEX.get(name)
    if i is None:
        _KEYS.append(gen_key(name))
        i = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
    return i


# ---------------------------------------------------------------------------
# monomials: exponents by generator index, trailing zeros stripped

Monomial = tuple[int, ...]

MONO_ONE: Monomial = ()


def mono(name: str, exp: int = 1) -> Monomial:
    return (0,) * _gen_index(name) + (exp,)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not b:
        return a
    if not a:
        return b
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(operator.add, a, b)) + a[len(b):]


def _strip(m: Monomial) -> Monomial:
    """m without trailing zero exponents."""
    n = len(m)
    while n and not m[n - 1]:
        n -= 1
    return m[:n]


def _gen_order(p: "Poly"):
    """p's generator indices in gen_key order, and the sort key of p's
    monomials in the degree-lex order over them: total degree first, then
    the exponents in that generator order, so that more of an earlier
    generator sorts later.  The only reader of gen_key's order."""
    gens = sorted(_indices(p), key=_KEYS.__getitem__)
    if not gens:
        return gens, sum
    width = max(gens) + 1
    exponents = operator.itemgetter(*gens)

    def key(m: Monomial):
        return sum(m), exponents(m + (0,) * (width - len(m)))

    return gens, key


def _named_terms(p: "Poly") -> list[tuple[tuple[tuple[str, int], ...], int]]:
    """p's terms as the printer reads them: leading term first in the
    degree-lex order, each monomial as (generator name, exponent) pairs in
    gen_key order."""
    gens, key = _gen_order(p)
    return [(tuple((_NAMES[i], m[i]) for i in gens if i < len(m) and m[i]),
             p.terms[m]) for m in sorted(p.terms, key=key, reverse=True)]


def _indices(p: "Poly") -> set[int]:
    """The indices of the generators p holds."""
    return {i for m in p.terms for i, e in enumerate(m) if e}


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, value: int) -> "Poly":
        return _poly({MONO_ONE: value} if value else {})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return _poly({mono(name): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(MONO_ONE) == 1

    def variables(self) -> set[str]:
        return {_NAMES[i] for i in _indices(self)}

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_multiple(out, 1, other.terms)
        return _poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_multiple(out, -1, other.terms)
        return _poly(out)

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, int] = {}
        _add_product_terms(out, self.terms, other.terms)
        return _poly(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n and len(self.terms) == 1:  # a term's power needs no product
            (m, c), = self.terms.items()
            return _poly({tuple([e * n for e in m]): c ** n})
        out = _POLY_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def leading(self) -> tuple[Monomial, int]:
        """The leading term in the degree-lex gen_key order; a one-term
        polynomial's only term needs no order."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_gen_order(self)[1])
        return m, self.terms[m]

    def degree_in(self, name: str) -> int:
        i = _INDEX.get(name)
        if i is None:
            return 0
        return max((m[i] for m in self.terms if len(m) > i), default=0)

    def coeffs_in(self, name: str) -> dict[int, "Poly"]:
        """Decompose as a univariate polynomial in ``name`` with Poly
        coefficients."""
        i = _INDEX.get(name)
        if i is None:
            return {0: self}
        out: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            e = m[i] if len(m) > i else 0
            if e:
                m = _strip(m[:i] + (0,) + m[i + 1:])
            out.setdefault(e, {})[m] = c
        return {e: _poly(t) for e, t in out.items()}

    def diff(self, name: str) -> "Poly":
        """Partial derivative with the generator treated as a plain
        indeterminate; the chain rule through atoms is applied by
        :func:`_derive_poly` and :func:`_partial`.  Distinct monomials have
        distinct derivatives, so no terms merge."""
        i = _INDEX.get(name)
        if i is None:
            return Poly()
        return _poly({_strip(m[:i] + (m[i] - 1,) + m[i + 1:]): c * m[i]
                      for m, c in self.terms.items() if len(m) > i and m[i]})


def _poly(terms: dict[Monomial, int]) -> Poly:
    """A Poly that takes ownership of ``terms``, which must hold no zero
    coefficient."""
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


# the denominator of every form with D = 1 and the trivial gcd: one shared
# object keeps the many polynomial coefficients of prolonged fields small
_POLY_ONE = Poly.const(1)


def _scale(p: Poly, k: int) -> Poly:
    """k*p for a nonzero integer k."""
    return p if k == 1 else _poly({m: c * k for m, c in p.terms.items()})


def _unscale(p: Poly, k: int) -> Poly:
    """p/k for a nonzero integer k that divides every coefficient of p, such
    as a content of p."""
    return p if k == 1 else _poly({m: c // k for m, c in p.terms.items()})


def _add_product_terms(out: dict[Monomial, int], a: dict[Monomial, int],
                       b: dict[Monomial, int]) -> None:
    """out += a * b in place, on the terms of polynomials; coefficients
    that cancel are dropped."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]


def _content(p: Poly, *rest: Poly) -> int:
    """The gcd of the coefficients of p and of ``rest``, signed like the
    leading coefficient of p."""
    c = int_gcd(*p.terms.values(), *(v for q in rest for v in q.terms.values()))
    return -c if p.leading()[1] < 0 else c


def _exact_div(p: Poly, g: Poly) -> Poly:
    """Quotient p/g over the integers; raises ValueError if the division is
    not exact."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    # plain tuple comparison is the lex order on exponents by index, a
    # monomial order: each step cancels the largest term of the remainder
    gm = max(g.terms)
    gc = g.terms[gm]
    if not gm:
        return _poly({m: _exact_quotient(c, gc) for m, c in p.terms.items()})
    quotient: dict[Monomial, int] = {}
    r = dict(p.terms)
    while r:
        rm = max(r)
        t = tuple(map(operator.sub, rm, gm))
        if len(rm) < len(gm) or min(t) < 0:
            raise ValueError("not an exact division")
        t = _strip(t + rm[len(gm):])
        qc = quotient[t] = _exact_quotient(r[rm], gc)
        _add_product_terms(r, {t: -qc}, g.terms)
    return _poly(quotient)


def _exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ValueError("not an exact division")
    return q


def _prem(a: Poly, b: Poly, v: str) -> Poly:
    """Pseudo-remainder of a by b with respect to the variable v: the
    remainder of lc(b)^(deg a - deg b + 1) * a.  The subresultant sequence
    divides exactly only with that full power, so a step that drops the
    degree by more than one still owes its factors of lc(b)."""
    db = b.degree_in(v)
    lb = b.coeffs_in(v)[db]
    r = a
    steps = a.degree_in(v) - db + 1
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < db:
            break
        lr = r.coeffs_in(v)[dr]
        shift = Poly.var(v) ** (dr - db)
        r = r * lb - b * lr * shift
        steps -= 1
    if steps > 0 and not r.is_zero():
        r = r * lb ** steps
    return r


def _content_primitive(p: Poly, v: str) -> tuple[Poly, Poly]:
    coeffs = list(p.coeffs_in(v).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = poly_gcd(content, c)[0]
        if content.is_const():
            content = _POLY_ONE
            break
    return content, _exact_div(p, content)


def _subresultant_gcd(a: Poly, b: Poly, v: str) -> Poly:
    """GCD of polynomials primitive in v, by the subresultant remainder
    sequence (keeps intermediate coefficients divided by known factors
    without recursive content computations)."""
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    g = Poly.const(1)
    h = Poly.const(1)
    while True:
        delta = a.degree_in(v) - b.degree_in(v)
        r = _prem(a, b, v)
        if r.is_zero():
            _, out = _content_primitive(b, v)
            return out
        if r.degree_in(v) == 0:
            return Poly.const(1)
        a, b = b, _exact_div(r, g * h ** delta)
        g = a.coeffs_in(v)[a.degree_in(v)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_div(g ** delta, h ** (delta - 1))


# GCDHEU (Char, Geddes & Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
# based on integer GCD computation", JSC 1989) evaluates p and q at an integer
# xi, one generator at a time, down to two integers, and interpolates their
# integer gcd back.  Those integers have about bits(xi) * prod(deg_i + 1)
# bits, the estimate of _heu_gcd_bits; above _HEU_GCD_MAX_BITS the
# subresultant PRS takes the gcd instead.  The bound is the measured
# crossover on the families that favour the PRS most, the gcds behind rho1
# of (u + sigma)^n and (u*sigma + 1)^n, whose large common factor ends the
# PRS in a few steps: both paths take 2 to 3 ms at n = 30 (31,713 bits),
# and at n = 40 (72,283 bits) the heuristic takes 11 ms against 4 ms.  On
# dense and sparse products of random factors in 2 and 3 generators the
# heuristic is faster at every size measured (at 39,000 to 44,000 bits,
# 1 ms against 1 s to 92 s).  The benchmark workloads' gcds estimate at
# most 2,268 bits.
_HEU_GCD_MAX_BITS = 32768
_HEU_GCD_TRIES = 6


def _heu_gcd_bits(p: Poly, q: Poly) -> int:
    """The guard's estimate, in bits, of the integers GCDHEU evaluates p and
    q to."""
    degrees: dict[int, int] = {}
    for m in chain(p.terms, q.terms):
        for i, e in enumerate(m):
            if e > degrees.get(i, 0):
                degrees[i] = e
    return _first_xi(p, q).bit_length() * prod(d + 1 for d in degrees.values())


def _first_xi(p: Poly, q: Poly) -> int:
    """2*min(|p|, |q|) + 29, |.| the largest absolute coefficient."""
    return 2 * min(max(map(abs, p.terms.values())),
                   max(map(abs, q.terms.values()))) + 29


def _heu_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly] | None:
    """(g, p/g, q/g) for nonzero p and q, g = gcd(p, q) with its integer
    content included, by GCDHEU; None when every evaluation point fails.
    The cofactors are the quotients of the trial divisions that prove g."""
    content_p = int_gcd(*p.terms.values())
    content_q = int_gcd(*q.terms.values())
    content = int_gcd(content_p, content_q)
    # the highest index present, the length of the longest monomial less
    # one, is evaluated first, so that interpolation appends it at the end
    # of each monomial
    v = max(map(len, chain(p.terms, q.terms))) - 1
    if v < 0:
        return Poly.const(content), _unscale(p, content), _unscale(q, content)
    p = _unscale(p, content_p)
    q = _unscale(q, content_q)
    # Theorem (Char, Geddes & Gonnet 1989): let xi >= 2*min(|p|, |q|) + 2,
    # |.| the largest absolute coefficient, and h the gcd of p and q at
    # v = xi.  If the primitive part of h interpolated in balanced base xi
    # divides both p and q, it is their gcd, not only a common divisor.
    # The recursion returns h proven the same way, or an integer gcd; the
    # first xi meets the bound and xi only grows (sympy's growth rule).
    xi = _first_xi(p, q)
    for _ in range(_HEU_GCD_TRIES):
        pe, qe = _evaluate(p, v, xi), _evaluate(q, v, xi)
        if not pe.is_zero() and not qe.is_zero():
            h = _heu_gcd(pe, qe)
            if h is not None:
                g = _interpolate(h[0], v, xi)
                g = _unscale(g, int_gcd(*g.terms.values()))
                a = _quotient(p, g)
                if a is not None and (b := _quotient(q, g)) is not None:
                    return (_scale(g, content), _scale(a, content_p // content),
                            _scale(b, content_q // content))
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(p: Poly, v: int, xi: int) -> Poly:
    """p at generator v = xi; no index of p is above v."""
    out: dict[Monomial, int] = {}
    for m, c in p.terms.items():
        if len(m) > v:
            m, c = _strip(m[:v]), c * xi ** m[v]
        out[m] = out.get(m, 0) + c
    return Poly(out)


def _interpolate(h: Poly, v: int, xi: int) -> Poly:
    """The polynomial in generator v whose v^i coefficient holds the i-th
    balanced base-xi digits, in (-xi/2, xi/2], of h's coefficients; v is
    above every index of h."""
    out: dict[Monomial, int] = {}
    half = xi // 2
    for m, c in h.terms.items():
        pad = m + (0,) * (v - len(m))
        i = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                c, d = c + 1, d - xi
            if d:
                out[pad + (i,) if i else m] = d
            i += 1
    return _poly(out)


def _quotient(p: Poly, g: Poly) -> Poly | None:
    """p/g when g divides p exactly, else None."""
    try:
        return _exact_div(p, g)
    except ValueError:
        return None


# poly_gcd's cache, bounded: it is emptied in place once it holds
# _GCD_CACHE_MAX_ENTRIES gcds.  A traced seed-1 benchmark pass leaves far
# fewer: 177 on classify-corpus, where 31% of lookups hit, 30 on
# orbit-search (17%), 25 on rank-invariants (77%) and none on
# algebra-sweep.  So the bound never empties the cache within a pass; it
# caps a long process, such as a large classify corpus.  Its key is the
# unordered pair of arguments, and its value (first argument's terms, g,
# first/g, second/g), so that a hit with the arguments swapped swaps the
# cofactors.  It stays a plain dict read with one ``get`` a call, and the
# name is never rebound, so that a profiler can swap in a counting dict.
_GCD_CACHE_MAX_ENTRIES = 16384
_GCD_CACHE: dict[frozenset, tuple[frozenset, Poly, Poly, Poly]] = {}


def poly_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, p/g, q/g): the gcd up to a unit and the two exact cofactors.  A
    computed g is primitive with positive leading coefficient: contents
    chain gcds, and a unit would grow along a chain."""
    if p.is_zero():
        return q, p, _POLY_ONE
    if q.is_zero():
        return p, _POLY_ONE, q
    if p.is_const() or q.is_const():
        return _POLY_ONE, p, q
    if len(p.terms) == 1 or len(q.terms) == 1:
        g = _strip(tuple(map(min, *chain(p.terms, q.terms))))
        if not g:
            return _POLY_ONE, p, q
        return _poly({g: 1}), _monomial_quotient(p, g), _monomial_quotient(q, g)
    first = frozenset(p.terms.items())
    key = frozenset((first, frozenset(q.terms.items())))
    cached = _GCD_CACHE.get(key)
    if cached is not None:
        stored_first, g, a, b = cached
        if a is None:  # g = 1, whose cofactors are the arguments
            return g, p, q
        return (g, a, b) if stored_first == first else (g, b, a)
    g, a, b = _poly_gcd_uncached(p, q)
    if len(_GCD_CACHE) >= _GCD_CACHE_MAX_ENTRIES:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = (first, g, None, None) if g.is_one() else (first, g, a, b)
    return g, a, b


def _monomial_quotient(p: Poly, g: Monomial) -> Poly:
    """p/g for a monomial g that divides every term of p."""
    return _poly({_strip(tuple(map(operator.sub, m, g)) + m[len(g):]): c
                  for m, c in p.terms.items()})


def _poly_gcd_uncached(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """poly_gcd's triple.  The heuristic's cofactors are kept, scaled by
    the unit that makes g primitive; the PRS gives g alone, which is made
    primitive and then divides p and q once."""
    if _heu_gcd_bits(p, q) <= _HEU_GCD_MAX_BITS:
        found = _heu_gcd(p, q)
        if found is not None:
            g, a, b = found
            c = _content(g)
            return _unscale(g, c), _scale(a, c), _scale(b, c)
    g = _prs_gcd(p, q)
    g = _unscale(g, _content(g))
    return g, _exact_div(p, g), _exact_div(q, g)


def _prs_gcd(p: Poly, q: Poly) -> Poly:
    """gcd(p, q) up to a unit by the subresultant PRS."""
    # variables on one side only cannot appear in the gcd: replace that side
    # by its content with respect to them
    while True:
        pv, qv = p.variables(), q.variables()
        only_p = pv - qv
        only_q = qv - pv
        if only_p:
            p, _ = _content_primitive(p, max(only_p, key=_INDEX.get))
        elif only_q:
            q, _ = _content_primitive(q, max(only_q, key=_INDEX.get))
        else:
            break
        if p.is_zero():
            return q
        if q.is_zero():
            return p
        if p.is_const() or q.is_const():
            return Poly.const(1)
    shared = pv & qv
    if not shared:
        return Poly.const(1)
    v = min(shared,
            key=lambda name: (min(p.degree_in(name), q.degree_in(name)),
                              p.degree_in(name) + q.degree_in(name),
                              _INDEX[name]))
    pc, pp = _content_primitive(p, v)
    qc, qp = _content_primitive(q, v)
    c = poly_gcd(pc, qc)[0]
    return c * _subresultant_gcd(pp, qp, v)


# ---------------------------------------------------------------------------
# canonical forms


class CanonicalForm(Value):
    """Reduced fraction of polynomials; the unique normal form of an
    expression (atoms taken as independent indeterminates).

    Arithmetic and differentiation return reduced forms again, so a value
    can be computed on without returning to expression trees.  The other
    operand of ``+ - * /`` may be an expression or a rational number; ``**``
    takes an integer.
    """

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly):
        set_field(self, "numerator", numerator)
        set_field(self, "denominator", denominator)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_polynomial(self) -> bool:
        return self.denominator.is_const()

    def rational_coefficients(self) -> dict[Monomial, Fraction]:
        """Monomial -> rational coefficient of a polynomial form; raises
        ValueError when the denominator is not constant."""
        if not self.is_polynomial():
            raise ValueError(f"not polynomial: {self}")
        d = _content(self.denominator)
        return {m: Fraction(c, d) for m, c in self.numerator.terms.items()}

    def __str__(self) -> str:
        """N/d over D/d in the input grammar, d the content of D, each
        polynomial in the printer's term order; parsing the text gives the
        form back.  A numerator of +-d over one-term or summed D prints as
        a negative power of D: 1/u is u^-1, -1/(u*sigma) is
        -(u*sigma)^-1."""
        d = _content(self.denominator)
        num = _named_terms(self.numerator)
        if self.is_polynomial():
            return _sum_text(num, d)
        den = _named_terms(self.denominator)
        if len(den) > 1:
            over = f"({_sum_text(den, d)})"
        elif len(den[0][0]) > 1:
            over = f"({_monomial_text(den[0][0])})"
        else:
            over = _monomial_text(den[0][0])
        if len(num) == 1 and not num[0][0] and abs(num[0][1]) == d:
            sign = "-" if num[0][1] < 0 else ""
            if len(den) == 1 and len(den[0][0]) == 1:
                (name, e), = den[0][0]
                return f"{sign}{name}^{-e}"
            return f"{sign}{over}^-1"
        if len(num) > 1:
            return f"({_sum_text(num, d)})/{over}"
        return f"{_sum_text(num, d)}/{over}"

    def __add__(self, other: "CanonicalForm | ExprLike") -> "CanonicalForm":
        other = canonicalize(other)
        return _normalized(*_fraction_sum(self.numerator, self.denominator,
                                          other.numerator, other.denominator))

    def __neg__(self) -> "CanonicalForm":
        return CanonicalForm(-self.numerator, self.denominator)

    def __sub__(self, other: "CanonicalForm | ExprLike") -> "CanonicalForm":
        return self + -canonicalize(other)

    def __mul__(self, other: "CanonicalForm | ExprLike") -> "CanonicalForm":
        other = canonicalize(other)
        return _normalized(self.numerator * other.numerator,
                           self.denominator * other.denominator)

    def __truediv__(self, other: "CanonicalForm | ExprLike") -> "CanonicalForm":
        other = canonicalize(other)
        return _normalized(self.numerator * other.denominator,
                           self.denominator * other.numerator)

    def __pow__(self, n: int) -> "CanonicalForm":
        """Integer power; a negative power of zero raises."""
        num, den = self.numerator, self.denominator
        if n < 0:
            num, den, n = den, num, -n
        return _normalized(num ** n, den ** n)

    def free_coordinates(self) -> frozenset[str]:
        """All coordinate names referenced, including atom arguments."""
        names = self.numerator.variables() | self.denominator.variables()
        return frozenset(parts[1] if (parts := _atom_parts(n)) else n
                         for n in names)

    def derive(self, coefficients: Mapping[str, "CanonicalForm"]) -> "CanonicalForm":
        """Image under the derivation sum_v c_v * d/dv, keyed by coordinate,
        with the chain rule through atoms.  X(N/D) = (X(N) D - N X(D)) / D^2
        is reduced once, at the end."""
        num, den = self.numerator, self.denominator
        xn, xn_den = _derive_poly(num, coefficients)
        if den.is_const():
            return _normalized(xn, xn_den * den)
        xd, xd_den = _derive_poly(den, coefficients)
        return _normalized(xn * xd_den * den - num * xd * xn_den,
                           xn_den * xd_den * den * den)

    def diff(self, v: str) -> "CanonicalForm":
        """Partial derivative by the coordinate ``v``."""
        return self.derive({v: ONE_FORM})

    def substitute(self, bindings: Mapping[str, "CanonicalForm | ExprLike"]
                   ) -> "CanonicalForm":
        """Simultaneous substitution of coordinates by forms, reduced once;
        unbound coordinates stay.  An atom whose argument is bound must have
        it bound to a plain coordinate, which renames the argument; any
        other binding there raises AtomArgumentError.

        When every binding is diagonal affine, v -> a*v + b with a nonzero
        rational a and a rational b, the substitution is a ring automorphism
        of Q[generators]: it maps the coprime N and D to coprime images, so
        the result takes only the content and sign step of the reduction and
        no gcd.  The orbit search's inverse maps and affine push-forwards are
        such substitutions."""
        forms = {v: canonicalize(b) for v, b in bindings.items()}
        num, num_den = _substitute_poly(self.numerator, forms)
        den, den_den = _substitute_poly(self.denominator, forms)
        num, den = num * den_den, den * num_den
        if all(_is_diagonal_affine(v, form) for v, form in forms.items()):
            return _content_normalized(num, den)
        return _normalized(num, den)

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact rational value at ``point``, which binds coordinates to
        integers or rationals; a one-form ``EvaluationPlan``."""
        nums, dens = EvaluationPlan((self,)).at(point)
        return Fraction(nums[0], dens[0] if dens else 1)


def _normalized(num: Poly, den: Poly) -> CanonicalForm:
    if den.is_one():
        # an integer polynomial over 1 is already in normal form
        return CanonicalForm(num, _POLY_ONE)
    if den.is_zero():
        raise DivisionByZeroExpressionError("denominator is identically zero")
    if not num.is_zero():
        # the gcd is primitive with lc > 0, so the cofactors keep the
        # content and sign of the pair's coefficients
        _, num, den = poly_gcd(num, den)
    return _content_normalized(num, den)


def _content_normalized(num: Poly, den: Poly) -> CanonicalForm:
    """The form of num/den for coprime num and a nonzero den: the integer
    content divided out and lc(den) made positive."""
    if num.is_zero():
        return CanonicalForm(Poly(), _POLY_ONE)
    c = _content(den, num)
    num, den = _unscale(num, c), _unscale(den, c)
    return CanonicalForm(num, _POLY_ONE if den.is_one() else den)


ONE_FORM = CanonicalForm(Poly.const(1), _POLY_ONE)


def coordinate(name: str) -> CanonicalForm:
    """The form of one coordinate, or of an atom instance such as exp(u)."""
    return CanonicalForm(Poly.var(name), _POLY_ONE)


class EvaluationPlan:
    """Forms compiled once for exact evaluation at many points.

    The plan lists the distinct monomials of every numerator and
    denominator, each one the listed monomial without its last generator
    times a power of that generator, and keeps each form's numerator and
    denominator apart as (monomial, integer coefficient) terms.  At a point
    every monomial is evaluated once, by one product, and each form is summed
    from those values, on integers: the point's values are written over
    one denominator q and every monomial value is lifted to the denominator
    q^top, top the largest degree in the plan, which then cancels between
    numerator and denominator.
    """

    def __init__(self, forms: Sequence[CanonicalForm]):
        # slot 0 is the monomial 1; a prefix gets its slot before what it
        # builds.  Each step is (prefix slot, generator, exponent).
        slot: dict[Monomial, int] = {MONO_ONE: 0}
        steps: list[tuple[int, str, int]] = []
        degrees = [0]

        def add(m: Monomial) -> int:
            i = slot.get(m)
            if i is None:
                prefix = add(_strip(m[:-1]))
                i = slot[m] = len(degrees)
                steps.append((prefix, _NAMES[len(m) - 1], m[-1]))
                degrees.append(degrees[prefix] + m[-1])
            return i

        numerators = [f.numerator.terms for f in forms]
        denominators = [f.denominator.terms for f in forms]
        for m in chain.from_iterable(numerators + denominators):
            if m not in slot:
                add(m)
        self._steps, self._degrees, self._top = steps, degrees, max(degrees)

        def terms(polys: list[dict[Monomial, int]]):
            """All terms of ``polys`` as parallel slot and coefficient
            tuples, and where each polynomial's run of them starts and
            ends."""
            bounds = list(accumulate(map(len, polys), initial=0))
            return (tuple(map(slot.__getitem__, chain.from_iterable(polys))),
                    tuple(chain.from_iterable(p.values() for p in polys)),
                    bounds[:-1], bounds[1:])

        self._numerators = terms(numerators)
        self._denominators = terms(denominators)
        # every denominator is 1 when all their terms sit on slot 0, the
        # monomial 1, with coefficient 1: a nonzero constant has one term
        den_slots, den_coeffs = self._denominators[:2]
        self._polynomial = not any(den_slots) and set(den_coeffs) <= {1}
        self._forms = tuple(forms)

    def at(self, point: Mapping[str, Fraction]
           ) -> tuple[list[int], list[int] | None]:
        """Numerators and denominators of the forms at ``point``, which
        binds coordinates to integers or rationals: form i is
        nums[i]/dens[i], not reduced, or nums[i] when dens is None, as it is
        at an integer point of forms whose denominators are 1.  As
        ``expr.eval_at`` without atom values, a missing coordinate or an
        atom instance raises UnboundSymbolError, naming the first one in
        form order, denominator before numerator, each in print order; at
        a point that binds them all, a pole of any form raises
        ZeroDenominatorError."""
        q = lcm(*(v.denominator for v in point.values()))
        lifted = {name: v.numerator * (q // v.denominator)
                  for name, v in point.items()}
        values = [1]
        try:
            for prefix, name, e in self._steps:
                values.append(values[prefix] * lifted[name] ** e)
        except KeyError:
            raise _unbound_symbol([p for f in self._forms for p in (
                f.denominator, f.numerator)], point) from None
        if q != 1:
            values = [v * q ** (self._top - d)
                      for v, d in zip(values, self._degrees)]
        nums = _term_sums(self._numerators, values)
        if q == 1 and self._polynomial:
            return nums, None
        dens = _term_sums(self._denominators, values)
        if 0 in dens:
            raise ZeroDenominatorError("zero denominator at evaluation point")
        return nums, dens


def _term_sums(terms, values: list[int]) -> list[int]:
    """The value of each polynomial of a plan: the running sum of all
    terms' products, differenced at the bounds of each polynomial's run."""
    slots, coeffs, starts, ends = terms
    running = list(accumulate(
        map(operator.mul, coeffs, map(values.__getitem__, slots)), initial=0))
    return list(map(operator.sub, map(running.__getitem__, ends),
                    map(running.__getitem__, starts)))


def _fraction_sum(num: Poly, den: Poly, tn: Poly, td: Poly) -> tuple[Poly, Poly]:
    """num/den + tn/td, unreduced; the common factor of the denominators is
    divided out to keep the denominator from swelling multiplicatively."""
    if td == den:
        return num + tn, den
    if den.is_const() or td.is_const():  # poly_gcd's cofactors, without the call
        return num * td + tn * den, den * td
    _, den_red, td_red = poly_gcd(den, td)
    return num * td_red + tn * den_red, den * td_red


def _derive_poly(p: Poly, coefficients: Mapping[str, CanonicalForm]) -> tuple[Poly, Poly]:
    """sum_v c_v * dp/dv as an unreduced fraction, in one pass over p's
    generators; an atom instance exp(v) contributes c_v * exp(v) *
    dp/dexp(v), which is c_v times each term of p by its exponent of
    exp(v).  A coefficient over 1 adds its product into one term dict;
    only the others are summed as fractions, and that sum is joined to
    the polynomial part once, at the end."""
    terms: dict[Monomial, int] = {}
    num, den = Poly(), _POLY_ONE
    for i in _indices(p):
        name = _NAMES[i]
        parts = _atom_parts(name)
        c = coefficients.get(name if parts is None else parts[1])
        if c is None:
            continue
        dp = p.diff(name).terms if parts is None else _exponent_weighted(p, i)
        if not c.denominator.is_one():
            num, den = _fraction_sum(num, den, c.numerator * _poly(dp),
                                     c.denominator)
        elif c.numerator.is_one():
            _add_multiple(terms, 1, dp)
        else:
            _add_product_terms(terms, c.numerator.terms, dp)
    if num.is_zero():
        return _poly(terms), _POLY_ONE
    return num + _poly(terms) * den, den


def _exponent_weighted(p: Poly, i: int) -> dict[Monomial, int]:
    """The terms of x_i * dp/dx_i for generator index i: each term of p
    times its exponent of x_i."""
    return {m: c * m[i] for m, c in p.terms.items() if len(m) > i and m[i]}


def _partial(p: Poly, v: str) -> Poly:
    """dp/dv for the coordinate v, with the chain rule through its one atom
    instance: dp/dv + exp(v) * dp/dexp(v)."""
    dp = p.diff(v)
    i = _INDEX.get(f"{ATOM}({v})")
    if i is None:
        return dp
    terms = dict(dp.terms)
    _add_multiple(terms, 1, _exponent_weighted(p, i))
    return _poly(terms)


def _is_diagonal_affine(v: str, form: CanonicalForm) -> bool:
    """Whether the form is a*v + b with rationals a != 0 and b."""
    i = _INDEX.get(v)
    if i is None or not form.denominator.is_const():
        return False
    m = (0,) * i + (1,)
    terms = form.numerator.terms
    return m in terms and all(k == m or not k for k in terms)


def _plain_coordinate(form: CanonicalForm) -> str | None:
    """The coordinate name when the form is exactly that coordinate."""
    for name in form.numerator.variables():
        if _atom_parts(name) is None and form == coordinate(name):
            return name
    return None


def _substitute_poly(p: Poly, forms: Mapping[str, CanonicalForm]) -> tuple[Poly, Poly]:
    """p with coordinates replaced by forms, as an unreduced fraction."""
    num, den = Poly(), _POLY_ONE
    for m, c in p.terms.items():
        kept, term_num, term_den = MONO_ONE, _POLY_ONE, _POLY_ONE
        for i, e in enumerate(m):
            if not e:
                continue
            name = _NAMES[i]
            if name in forms:
                term_num = term_num * forms[name].numerator ** e
                term_den = term_den * forms[name].denominator ** e
                continue
            parts = _atom_parts(name)
            if parts is not None and parts[1] in forms:
                target = _plain_coordinate(forms[parts[1]])
                if target is None:
                    raise AtomArgumentError(
                        f"cannot substitute non-coordinate expression for "
                        f"{parts[1]!r} inside {name}")
                name = f"{parts[0]}({target})"
            kept = mono_mul(kept, mono(name, e))
        num, den = _fraction_sum(num, den, _poly({kept: c}) * term_num, term_den)
    return num, den


def _unbound_symbol(polys: Sequence[Poly], point: Mapping) -> UnboundSymbolError:
    """The error for the first generator of ``polys``, in order and each in
    print order, that point cannot bind: any atom instance, or a coordinate
    missing from it."""
    name = next(n for p in polys for pairs, _ in _named_terms(p)
                for n, _ in pairs if _atom_parts(n) is not None or n not in point)
    kind = "coordinate" if _atom_parts(name) is None else "atom"
    return UnboundSymbolError(f"{kind} {name!r} is unbound")


def _monomial_text(pairs: tuple[tuple[str, int], ...]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in pairs)


def _sum_text(terms: list[tuple[tuple[tuple[str, int], ...], int]],
              d: int) -> str:
    """The polynomial of ``_named_terms`` over the positive integer d, each
    term c/d times its monomial, with the coefficient left out where it is
    1 and its sign moved to the joining operator."""
    if not terms:
        return "0"
    parts = []
    for pairs, c in terms:
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        q = abs(c) if d == 1 else Fraction(abs(c), d)
        if not pairs:
            parts.append(number_text(q))
        elif q == 1:
            parts.append(_monomial_text(pairs))
        else:
            parts.append(f"{number_text(q)}*{_monomial_text(pairs)}")
    return "".join(parts)


# The fraction nodes: each builds an unreduced pair (numerator,
# denominator) of integer polynomials, or None for a value that holds a
# negative power of an identically zero value.  None passes up through every
# node, so the error is raised once, by _reduced, after the whole text has
# parsed or the whole tree has folded.


def _number(n: int | Fraction) -> tuple[Poly, Poly]:
    return (Poly.const(n.numerator),
            _POLY_ONE if n.denominator == 1 else Poly.const(n.denominator))


def _generator(name: str) -> tuple[Poly, Poly]:
    return Poly.var(name), _POLY_ONE


def _atom(name: str, arg: str) -> tuple[Poly, Poly]:
    return Poly.var(f"{name}({arg})"), _POLY_ONE


def _sum(terms: list) -> tuple[Poly, Poly] | None:
    """The polynomial terms are summed in place in one dict; the others are
    added one by one over a common denominator."""
    if None in terms:
        return None
    polynomial: dict[Monomial, int] = {}
    num, den = Poly(), _POLY_ONE
    for tn, td in terms:
        if td.is_one():
            _add_multiple(polynomial, 1, tn.terms)
        else:
            num, den = _fraction_sum(num, den, tn, td)
    if num.is_zero():
        return _poly(polynomial), _POLY_ONE
    return num + _poly(polynomial) * den, den


def _product(factors: list) -> tuple[Poly, Poly] | None:
    if None in factors:
        return None
    num, den = factors[0]
    for fn, fd in factors[1:]:
        num = num * fn
        if not fd.is_one():
            den = den * fd
    return num, den


def _power(base: tuple[Poly, Poly] | None, n: int) -> tuple[Poly, Poly] | None:
    if base is None:
        return None
    num, den = base
    if n < 0:
        if num.is_zero():
            return None
        num, den, n = den, num, -n
    return num ** n, den if den.is_one() else den ** n


_FRACTION_NODES = Nodes(_number, _generator, _atom, _sum, _product, _power)


def _to_fraction(e: Expr) -> tuple[Poly, Poly] | None:
    """The tree folded through the fraction nodes."""
    if isinstance(e, Const):
        return _number(e.value)
    if isinstance(e, Coord):
        return _generator(e.name)
    if isinstance(e, AtomApp):
        return _atom(e.name, e.arg)
    if isinstance(e, Sum):
        return _sum(list(map(_to_fraction, e.terms)))
    if isinstance(e, Product):
        return _product(list(map(_to_fraction, e.factors)))
    if isinstance(e, Power):
        return _power(_to_fraction(e.base), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _reduced(pair: tuple[Poly, Poly] | None) -> CanonicalForm:
    if pair is None:
        raise DivisionByZeroExpressionError(
            "negative power of an identically zero expression")
    return _normalized(*pair)


def parse_form(text: str, coords: Iterable[str]) -> CanonicalForm:
    """The form of ``text``, read by the one grammar of :func:`expr.parse`
    straight to one unreduced fraction and reduced once, with no tree; it
    equals ``canonicalize(parse(text, coords))`` and fails as that does."""
    return _reduced(parse_nodes(text, coords, _FRACTION_NODES))


def canonicalize(e: CanonicalForm | ExprLike) -> CanonicalForm:
    """Normalize to the reduced numerator/denominator pair.  Algebraically
    equal inputs produce identical forms; a form is returned unchanged."""
    if isinstance(e, CanonicalForm):
        return e
    return _reduced(_to_fraction(as_expr(e)))


def equals(a: CanonicalForm | ExprLike, b: CanonicalForm | ExprLike) -> bool:
    """Exact algebraic equality (modulo atom independence): the canonical
    forms are unique, so they are compared directly."""
    return canonicalize(a) == canonicalize(b)
