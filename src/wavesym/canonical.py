"""Canonical rational normal forms for expressions.

An expression canonicalizes to a reduced fraction N/D of expanded
multivariate polynomials with integer coefficients.  The monomial order is
total degree first, then lexicographic over a fixed generator order: t, x,
u, sigma, f, then f-derivatives by total order then index, then internal
u-derivatives, then instances of the atom exp by their argument.  Each
exp(v) is treated as an algebraically independent indeterminate whose
derivative by v is itself, so equality is decided modulo that assumption
(the only one this module makes).

Expression trees become forms only in :func:`canonicalize`; computation
starts from forms built by :func:`coordinate` and from rational numbers.

One rule normalizes the pair: gcd(N, D) is constant, the integer contents
of N and D are coprime and lc(D) > 0; so u/2 is (u, 2) and zero is (0, 1).
The form is unique, hence canonicalization idempotent and equality a
dictionary comparison.  Rationals exist only at the edges: parser constants
enter as (p, q); ``eval_at``, the printer and ``rational_coefficients``
return them.

The gcd behind each reduction takes one of two paths, which give the same
normalized result.  The heuristic GCDHEU (Char, Geddes & Gonnet, JSC 1989)
evaluates both polynomials at an integer xi, one generator at a time, takes
the integer gcd and interpolates it back in balanced base xi.  Its candidate
is accepted only when it divides both inputs exactly, with
xi >= 2*min(|p|, |q|) + 2 (largest absolute coefficients), which the paper's
theorem makes a proof that it is the gcd.  The subresultant remainder
sequence takes over when six points give no proven candidate, and for every
input whose evaluated integers are estimated above ``_HEU_GCD_MAX_BITS``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, isqrt, prod
from typing import Mapping

from .expr import (
    ATOM,
    AtomApp,
    AtomArgumentError,
    Const,
    Coord,
    DivisionByZeroExpressionError,
    Expr,
    ExprLike,
    Power,
    Product,
    Sum,
    UnboundSymbolError,
    UnknownIdentifierError,
    ZeroDenominatorError,
    add,
    as_expr,
    mul,
    pow_,
    to_string,
)

# ---------------------------------------------------------------------------
# generator ordering

_BASE_KEYS = {"t": (0, 0), "x": (0, 1), "u": (0, 2), "sigma": (0, 3), "f": (1, 0, 0)}
_F_DERIV_RE = re.compile(r"^f_(u*)((?:sigma)*)$")
_U_DERIV_RE = re.compile(r"^u_(t*)(x*)$")

_KEY_CACHE: dict[str, tuple[int, ...]] = {}


def _atom_parts(name: str) -> tuple[str, str] | None:
    """(atom, argument) for an atom-instance generator such as exp(u); None
    for a coordinate."""
    if name.endswith(")") and "(" in name:
        return tuple(name[:-1].split("(", 1))
    return None


def gen_key(name: str) -> tuple[int, ...]:
    """Total-order sort key for a generator (coordinate or atom instance)."""
    key = _KEY_CACHE.get(name)
    if key is not None:
        return key
    if name in _BASE_KEYS:
        key = _BASE_KEYS[name]
    else:
        m = _F_DERIV_RE.match(name)
        if m and (m.group(1) or m.group(2)):
            a = len(m.group(1))
            b = len(m.group(2)) // len("sigma")
            key = (1, a + b, b)
        else:
            m = _U_DERIV_RE.match(name)
            if m and (m.group(1) or m.group(2)):
                a = len(m.group(1))
                b = len(m.group(2))
                key = (2, a + b, b)
            elif (parts := _atom_parts(name)) is not None:
                atom, arg = parts
                if atom != ATOM:
                    raise UnknownIdentifierError(atom)
                key = (3, 0) + gen_key(arg)
            else:
                raise UnknownIdentifierError(name)
    _KEY_CACHE[name] = key
    return key


# ---------------------------------------------------------------------------
# monomials: tuples of (generator name, positive exponent), sorted by gen_key

Monomial = tuple[tuple[str, int], ...]

MONO_ONE: Monomial = ()


def mono(name: str, exp: int = 1) -> Monomial:
    return ((name, exp),)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged: dict[str, int] = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(
        ((n, e) for n, e in merged.items() if e != 0),
        key=lambda item: gen_key(item[0]),
    ))


def mono_cmp(a: Monomial, b: Monomial) -> int:
    """Degree first; ties broken lexicographically, more of an earlier
    generator winning."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        (na, ea), (nb, eb) = a[ia], b[ib]
        ka, kb = gen_key(na), gen_key(nb)
        if ka == kb:
            if ea != eb:
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif ka < kb:
            return 1
        else:
            return -1
    if ia < len(a):
        return 1
    if ib < len(b):
        return -1
    return 0


def _mono_sort_terms(terms) -> list:
    return sorted(terms, key=functools.cmp_to_key(lambda p, q: mono_cmp(p[0], q[0])))


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, value: int) -> "Poly":
        return cls({MONO_ONE: value} if value else {})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({mono(name): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(MONO_ONE) == 1

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            for name, _ in m:
                out.add(name)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return _poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_terms(out, other.terms, negate=True)
        return _poly(out)

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return _poly(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def leading(self) -> tuple[Monomial, int]:
        best = None
        for m in self.terms:
            if best is None or mono_cmp(m, best) > 0:
                best = m
        if best is None:
            raise ValueError("zero polynomial has no leading term")
        return best, self.terms[best]

    def degree_in(self, name: str) -> int:
        d = 0
        for m in self.terms:
            for n, e in m:
                if n == name and e > d:
                    d = e
        return d

    def coeffs_in(self, name: str) -> dict[int, "Poly"]:
        """Decompose as a univariate polynomial in ``name`` with Poly
        coefficients."""
        out: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for n, k in m:
                if n == name:
                    e = k
                else:
                    rest.append((n, k))
            out.setdefault(e, {})[tuple(rest)] = c
        return {e: Poly(t) for e, t in out.items()}

    def diff(self, name: str) -> "Poly":
        """Partial derivative with the generator treated as a plain
        indeterminate; the chain rule through atoms is applied by
        ``CanonicalForm.derive``."""
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            for i, (n, e) in enumerate(m):
                if n != name:
                    continue
                rest = m[:i] + ((n, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                s = out.get(rest, 0) + c * e
                if s:
                    out[rest] = s
                else:
                    out.pop(rest, None)
        return Poly(out)


def _poly(terms: dict[Monomial, int]) -> Poly:
    """A Poly that takes ownership of ``terms``, which must hold no zero
    coefficient."""
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


def _add_terms(out: dict[Monomial, int], terms: dict[Monomial, int],
               negate: bool = False) -> None:
    """out += terms (out -= terms when ``negate``) in place; coefficients
    that cancel are dropped."""
    for m, c in terms.items():
        old = out.get(m)
        if old is None:
            out[m] = -c if negate else c
            continue
        s = old - c if negate else old + c
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
    gm, gc = g.leading()
    if not gm:
        return _poly({m: _exact_quotient(c, gc) for m, c in p.terms.items()})
    quotient: dict[Monomial, int] = {}
    r = _poly(dict(p.terms))
    gdict = dict(gm)
    while r.terms:
        rm, rc = r.leading()
        rdict = dict(rm)
        tdict = {}
        for n, e in gdict.items():
            d = rdict.get(n, 0) - e
            if d < 0:
                raise ValueError("not an exact division")
            if d:
                tdict[n] = d
        for n, e in rdict.items():
            if n not in gdict and e:
                tdict[n] = e
        t = tuple(sorted(tdict.items(), key=lambda item: gen_key(item[0])))
        qc = _exact_quotient(rc, gc)
        quotient[t] = qc
        _add_terms(r.terms, {mono_mul(t, m): qc * c for m, c in g.terms.items()},
                   negate=True)
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
        content = poly_gcd(content, c)
        if content.is_const():
            content = Poly.const(1)
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
    degrees: dict[str, int] = {}
    for m in (*p.terms, *q.terms):
        for n, e in m:
            if e > degrees.get(n, 0):
                degrees[n] = e
    return _first_xi(p, q).bit_length() * prod(d + 1 for d in degrees.values())


def _first_xi(p: Poly, q: Poly) -> int:
    """2*min(|p|, |q|) + 29, |.| the largest absolute coefficient."""
    return 2 * min(max(map(abs, p.terms.values())),
                   max(map(abs, q.terms.values()))) + 29


def _heu_gcd(p: Poly, q: Poly) -> Poly | None:
    """gcd(p, q) of nonzero p and q, integer content included, by GCDHEU;
    None when every evaluation point fails."""
    content_p = int_gcd(*p.terms.values())
    content_q = int_gcd(*q.terms.values())
    content = Poly.const(int_gcd(content_p, content_q))
    gens = p.variables() | q.variables()
    if not gens:
        return content
    p = _exact_div(p, Poly.const(content_p))
    q = _exact_div(q, Poly.const(content_q))
    # generators are evaluated last first, so that interpolation appends
    # the evaluated one at the end of each monomial
    v = max(gens, key=gen_key)
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
                g = _interpolate(h, v, xi)
                g = _exact_div(g, Poly.const(int_gcd(*g.terms.values())))
                if _divides(g, p) and _divides(g, q):
                    return g * content
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(p: Poly, v: str, xi: int) -> Poly:
    """p at v = xi; v sorts after every other generator of p."""
    out: dict[Monomial, int] = {}
    for m, c in p.terms.items():
        if m and m[-1][0] == v:
            m, c = m[:-1], c * xi ** m[-1][1]
        out[m] = out.get(m, 0) + c
    return Poly(out)


def _interpolate(h: Poly, v: str, xi: int) -> Poly:
    """The polynomial in v whose v^i coefficient holds the i-th balanced
    base-xi digits, in (-xi/2, xi/2], of h's coefficients; v sorts after
    every generator of h."""
    out: dict[Monomial, int] = {}
    half = xi // 2
    for m, c in h.terms.items():
        i = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                c, d = c + 1, d - xi
            if d:
                out[m + ((v, i),) if i else m] = d
            i += 1
    return _poly(out)


def _divides(g: Poly, p: Poly) -> bool:
    try:
        _exact_div(p, g)
    except ValueError:
        return False
    return True


# poly_gcd's cache, bounded: it is emptied in place once it holds
# _GCD_CACHE_MAX_ENTRIES gcds, about five times the 3,309 to 3,421 that one
# orbit-search benchmark pass leaves (seeds 1 to 3).  It stays a plain dict
# read with ``get``, and the name is never rebound, so that a profiler can
# swap in a counting dict.
_GCD_CACHE_MAX_ENTRIES = 16384
_GCD_CACHE: dict[tuple, Poly] = {}


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """GCD up to a unit, computed ones made primitive with positive leading
    coefficient: contents chain gcds, and a unit would grow along a chain."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_const() or q.is_const():
        return Poly.const(1)
    key = frozenset((frozenset(p.terms.items()), frozenset(q.terms.items())))
    cached = _GCD_CACHE.get(key)
    if cached is not None:
        return cached
    out = _poly_gcd_uncached(p, q)
    out = _exact_div(out, Poly.const(_content(out)))
    if len(_GCD_CACHE) >= _GCD_CACHE_MAX_ENTRIES:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = out
    return out


def _poly_gcd_uncached(p: Poly, q: Poly) -> Poly:
    if _heu_gcd_bits(p, q) <= _HEU_GCD_MAX_BITS:
        g = _heu_gcd(p, q)
        if g is not None:
            return g
    # variables on one side only cannot appear in the gcd: replace that side
    # by its content with respect to them
    while True:
        pv, qv = p.variables(), q.variables()
        only_p = pv - qv
        only_q = qv - pv
        if only_p:
            p, _ = _content_primitive(p, max(only_p, key=gen_key))
        elif only_q:
            q, _ = _content_primitive(q, max(only_q, key=gen_key))
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
                              gen_key(name)))
    pc, pp = _content_primitive(p, v)
    qc, qp = _content_primitive(q, v)
    c = poly_gcd(pc, qc)
    return c * _subresultant_gcd(pp, qp, v)


# ---------------------------------------------------------------------------
# canonical forms


@dataclass(frozen=True)
class CanonicalForm:
    """Reduced fraction of polynomials; the unique normal form of an
    expression (atoms taken as independent indeterminates).

    Arithmetic and differentiation return reduced forms again, so a value
    can be computed on without returning to expression trees.  The other
    operand of ``+ - * /`` may be an expression or a rational number; ``**``
    takes an integer.
    """

    numerator: Poly
    denominator: Poly

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

    def to_expr(self) -> Expr:
        """The printed tree: N/d over D/d, d the content of D."""
        d = _content(self.denominator)
        num = _poly_to_expr(self.numerator, d)
        if self.is_polynomial():
            return num
        return mul(num, pow_(_poly_to_expr(self.denominator, d), -1))

    def __str__(self) -> str:
        return to_string(self.to_expr())

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
        other binding there raises AtomArgumentError."""
        forms = {v: canonicalize(b) for v, b in bindings.items()}
        num, num_den = _substitute_poly(self.numerator, forms)
        den, den_den = _substitute_poly(self.denominator, forms)
        return _normalized(num * den_den, den * num_den)

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact rational value at ``point``, which binds coordinates to
        rationals; ``eval_pair`` on the point's integer pairs."""
        return Fraction(*self.eval_pair(
            {name: (v.numerator, v.denominator) for name, v in point.items()}))

    def eval_pair(self, point: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Exact value at ``point``, which binds coordinates to integer pairs
        (numerator, positive denominator), as such a pair in lowest terms.
        The sums run on integers.  As ``expr.eval_at`` without atom values,
        a pole raises ZeroDenominatorError and a missing coordinate or an
        atom instance raises UnboundSymbolError."""
        den_num, den_den = _eval_poly(self.denominator, point)
        if den_num == 0:
            raise ZeroDenominatorError("zero denominator at evaluation point")
        num_num, num_den = _eval_poly(self.numerator, point)
        n, d = num_num * den_den, num_den * den_num
        if d < 0:
            n, d = -n, -d
        if d != 1:
            g = int_gcd(n, d)
            n, d = n // g, d // g
        return n, d


# the denominator of every form with D = 1: one shared object keeps the many
# polynomial coefficients of prolonged fields small
_POLY_ONE = Poly.const(1)


def _normalized(num: Poly, den: Poly) -> CanonicalForm:
    if den.is_zero():
        raise DivisionByZeroExpressionError("denominator is identically zero")
    if num.is_zero():
        return CanonicalForm(Poly(), _POLY_ONE)
    # the gcd is primitive with lc > 0, so the content and sign of the
    # pair's coefficients survive its division
    g = poly_gcd(num, den) * Poly.const(_content(den, num))
    if not g.is_one():
        num = _exact_div(num, g)
        den = _exact_div(den, g)
    return CanonicalForm(num, _POLY_ONE if den.is_one() else den)


ONE_FORM = CanonicalForm(Poly.const(1), _POLY_ONE)


def coordinate(name: str) -> CanonicalForm:
    """The form of one coordinate, or of an atom instance such as exp(u)."""
    gen_key(name)  # validates the name
    return CanonicalForm(Poly.var(name), _POLY_ONE)


def _fraction_sum(num: Poly, den: Poly, tn: Poly, td: Poly) -> tuple[Poly, Poly]:
    """num/den + tn/td, unreduced; the common factor of the denominators is
    divided out to keep the denominator from swelling multiplicatively."""
    if td == den:
        return num + tn, den
    g = poly_gcd(den, td)
    if g.is_const():
        return num * td + tn * den, den * td
    den_red = _exact_div(den, g)
    td_red = _exact_div(td, g)
    return num * td_red + tn * den_red, den * td_red


def _derive_poly(p: Poly, coefficients: Mapping[str, CanonicalForm]) -> tuple[Poly, Poly]:
    """sum_v c_v * dp/dv as an unreduced fraction; an atom instance exp(v)
    contributes c_v * exp(v) * dp/dexp(v)."""
    num, den = Poly(), _POLY_ONE
    for name in p.variables():
        parts = _atom_parts(name)
        c = coefficients.get(name if parts is None else parts[1])
        if c is None:
            continue
        dp = p.diff(name)
        if parts is not None:
            dp = dp * Poly.var(name)
        num, den = _fraction_sum(num, den, c.numerator * dp, c.denominator)
    return num, den


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
        for name, e in m:
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
            kept = mono_mul(kept, ((name, e),))
        num, den = _fraction_sum(num, den, Poly({kept: c}) * term_num, term_den)
    return num, den


def _eval_poly(p: Poly, point: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
    """Value of p at point, which binds coordinates to integer pairs, as an
    unreduced integer fraction (numerator, positive denominator)."""
    num, den = 0, 1
    try:
        for m, c in p.terms.items():
            n, d = c, 1
            for name, e in m:
                vn, vd = point[name]
                n *= vn ** e
                d *= vd ** e
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
    except KeyError:
        raise _unbound_symbol(p, point) from None
    return num, den


def _unbound_symbol(p: Poly, point: Mapping) -> UnboundSymbolError:
    """The error for the first generator of p, in term order, that point
    cannot bind: any atom instance, or a coordinate missing from it."""
    name = next(n for m in p.terms for n, _ in m
                if _atom_parts(n) is not None or n not in point)
    kind = "coordinate" if _atom_parts(name) is None else "atom"
    return UnboundSymbolError(f"{kind} {name!r} is unbound")


def _poly_to_expr(p: Poly, d: int) -> Expr:
    """The tree of p/d."""
    if p.is_zero():
        return Const(Fraction(0))
    terms = []
    for m, c in _mono_sort_terms(p.terms.items())[::-1]:
        factors: list[Expr] = []
        if c != d or not m:
            factors.append(Const(Fraction(c, d)))
        for name, e in m:
            base = _gen_to_expr(name)
            factors.append(pow_(base, e))
        terms.append(mul(*factors))
    return add(*terms)


def _gen_to_expr(name: str) -> Expr:
    parts = _atom_parts(name)
    return Coord(name) if parts is None else AtomApp(*parts)


def _to_fraction(e: Expr) -> tuple[Poly, Poly]:
    if isinstance(e, Const):
        return Poly.const(e.value.numerator), Poly.const(e.value.denominator)
    if isinstance(e, Coord):
        gen_key(e.name)  # validates the name
        return Poly.var(e.name), Poly.const(1)
    if isinstance(e, AtomApp):
        name = f"{e.name}({e.arg})"
        gen_key(name)
        return Poly.var(name), Poly.const(1)
    if isinstance(e, Sum):
        num, den = Poly(), Poly.const(1)
        for t in e.terms:
            num, den = _fraction_sum(num, den, *_to_fraction(t))
        return num, den
    if isinstance(e, Product):
        num, den = Poly.const(1), Poly.const(1)
        for f in e.factors:
            fn, fd = _to_fraction(f)
            num = num * fn
            den = den * fd
        return num, den
    if isinstance(e, Power):
        bn, bd = _to_fraction(e.base)
        n = e.exponent
        if n >= 0:
            return bn ** n, bd ** n
        if bn.is_zero():
            raise DivisionByZeroExpressionError(
                "negative power of an identically zero expression"
            )
        return bd ** (-n), bn ** (-n)
    raise TypeError(f"not an expression node: {e!r}")


def canonicalize(e: CanonicalForm | ExprLike) -> CanonicalForm:
    """Normalize to the reduced numerator/denominator pair.  Algebraically
    equal inputs produce identical forms; a form is returned unchanged."""
    if isinstance(e, CanonicalForm):
        return e
    num, den = _to_fraction(as_expr(e))
    return _normalized(num, den)


def equals(a: CanonicalForm | ExprLike, b: CanonicalForm | ExprLike) -> bool:
    """Exact algebraic equality (modulo atom independence): the canonical
    forms are unique, so they are compared directly."""
    return canonicalize(a) == canonicalize(b)
