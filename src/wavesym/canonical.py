"""Canonical rational normal forms for expressions.

An expression canonicalizes to a reduced fraction of expanded multivariate
polynomials over exact rationals.  The monomial order is total degree first,
then lexicographic over a fixed generator order: t, x, u, sigma, f, then
f-derivatives by total order then index, then internal u-derivatives, then
atom instances by registration order.  Registered atoms are treated as
algebraically independent indeterminates, so equality is decided modulo that
assumption (the only one this module makes).

The denominator is normalized to a primitive integer polynomial with positive
leading coefficient; zero is (0, 1).  This makes the form unique, hence
canonicalization idempotent and equality a dictionary comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .expr import (
    AtomApp,
    Const,
    Coord,
    DivisionByZeroExpressionError,
    Expr,
    Power,
    Product,
    Sum,
    UnknownIdentifierError,
    add,
    atom_registration_index,
    mul,
    pow_,
)

# ---------------------------------------------------------------------------
# generator ordering

_BASE_KEYS = {"t": (0, 0), "x": (0, 1), "u": (0, 2), "sigma": (0, 3), "f": (1, 0, 0)}
_F_DERIV_RE = re.compile(r"^f_(u*)((?:sigma)*)$")
_U_DERIV_RE = re.compile(r"^u_(t*)(x*)$")

_KEY_CACHE: dict[str, tuple[int, ...]] = {}


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
            elif name.endswith(")") and "(" in name:
                atom, arg = name[:-1].split("(", 1)
                key = (3, atom_registration_index(atom)) + gen_key(arg)
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
    import functools
    return sorted(terms, key=functools.cmp_to_key(lambda p, q: mono_cmp(p[0], q[0])))


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Sparse multivariate polynomial over Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, value) -> "Poly":
        c = Fraction(value)
        return cls({MONO_ONE: c} if c else {})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({mono(name): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def is_one(self) -> bool:
        return self.terms == {MONO_ONE: Fraction(1)}

    def as_const(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_const():
            return self.terms[MONO_ONE]
        raise ValueError("polynomial is not constant")

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
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def scale(self, c: Fraction) -> "Poly":
        if c == 0:
            return Poly()
        p = Poly.__new__(Poly)
        p.terms = {m: v * c for m, v in self.terms.items()}
        return p

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

    def leading(self) -> tuple[Monomial, Fraction]:
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
        out: dict[int, dict[Monomial, Fraction]] = {}
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

    def substitute(self, name: str, replacement: "Poly") -> "Poly":
        out = Poly()
        for e, coeff in self.coeffs_in(name).items():
            out = out + coeff * (replacement ** e)
        return out

    def diff(self, name: str) -> "Poly":
        """Partial derivative with the generator treated as a plain
        indeterminate (no chain rule through atoms; callers restrict to
        atom-free polynomials)."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            for i, (n, e) in enumerate(m):
                if n != name:
                    continue
                rest = m[:i] + ((n, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                s = out.get(rest, Fraction(0)) + c * e
                if s:
                    out[rest] = s
                else:
                    out.pop(rest, None)
        return Poly(out)

    def has_atom_generators(self) -> bool:
        return any("(" in n for m in self.terms for n, _ in m)

    def eval_partial(self, point: dict[str, Fraction]) -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            rest = []
            for n, e in m:
                if n in point:
                    c = c * point[n] ** e
                else:
                    rest.append((n, e))
            if c:
                key = tuple(rest)
                s = out.get(key, Fraction(0)) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(out)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for m, c in _mono_sort_terms(self.terms.items())[::-1]:
            body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in m) or "1"
            parts.append(f"{c}*{body}")
        return "Poly(" + " + ".join(parts) + ")"


def _content_rational(p: Poly) -> Fraction:
    """Positive rational c such that p/c is a primitive integer polynomial;
    the sign is chosen so p/c has positive leading coefficient."""
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, abs(c.numerator))
        den = den * c.denominator // int_gcd(den, c.denominator)
    content = Fraction(num, den)
    _, lc = p.leading()
    return -content if lc < 0 else content


def _exact_div(p: Poly, g: Poly) -> Poly:
    """Quotient p/g; raises ValueError if the division is not exact."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if g.is_const():
        return p.scale(1 / g.as_const())
    quotient = Poly()
    r = p
    gm, gc = g.leading()
    gdict = dict(gm)
    while not r.is_zero():
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
        term = Poly({t: rc / gc})
        quotient = quotient + term
        r = r - term * g
    return quotient


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
    if steps > 0:
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


_GCD_CACHE: dict[tuple, Poly] = {}


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """GCD up to a rational unit."""
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
    _GCD_CACHE[key] = out
    return out


def _poly_gcd_uncached(p: Poly, q: Poly) -> Poly:
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
    expression (atoms taken as independent indeterminates)."""

    numerator: Poly
    denominator: Poly

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_polynomial(self) -> bool:
        return self.denominator.is_one()

    def to_expr(self) -> Expr:
        num = _poly_to_expr(self.numerator)
        if self.denominator.is_one():
            return num
        return mul(num, pow_(_poly_to_expr(self.denominator), -1))

    def __str__(self) -> str:
        from .expr import to_string
        return to_string(self.to_expr())


def _normalized(num: Poly, den: Poly) -> CanonicalForm:
    if den.is_zero():
        raise DivisionByZeroExpressionError("denominator is identically zero")
    if num.is_zero():
        return CanonicalForm(Poly(), Poly.const(1))
    if not den.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = _exact_div(num, g)
            den = _exact_div(den, g)
    c = _content_rational(den)
    return CanonicalForm(num.scale(1 / c), den.scale(1 / c))


def _poly_to_expr(p: Poly) -> Expr:
    if p.is_zero():
        return Const(Fraction(0))
    terms = []
    for m, c in _mono_sort_terms(p.terms.items())[::-1]:
        factors: list[Expr] = []
        if c != 1 or not m:
            factors.append(Const(c))
        for name, e in m:
            base = _gen_to_expr(name)
            factors.append(pow_(base, e))
        terms.append(mul(*factors))
    return add(*terms)


def _gen_to_expr(name: str) -> Expr:
    if name.endswith(")") and "(" in name:
        atom, arg = name[:-1].split("(", 1)
        return AtomApp(atom, arg)
    return Coord(name)


def _to_fraction(e: Expr) -> tuple[Poly, Poly]:
    if isinstance(e, Const):
        return Poly.const(e.value), Poly.const(1)
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
            tn, td = _to_fraction(t)
            if td == den:
                num = num + tn
            else:
                # reduce by the common denominator factor to keep the
                # accumulated denominator from swelling multiplicatively
                g = poly_gcd(den, td)
                if g.is_const():
                    num = num * td + tn * den
                    den = den * td
                else:
                    den_red = _exact_div(den, g)
                    td_red = _exact_div(td, g)
                    num = num * td_red + tn * den_red
                    den = den * td_red
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


def canonicalize(e: Expr) -> CanonicalForm:
    """Normalize to the reduced numerator/denominator pair.  Algebraically
    equal inputs produce identical forms."""
    num, den = _to_fraction(e)
    return _normalized(num, den)


def equals(a: Expr, b: Expr) -> bool:
    """Exact algebraic equality (modulo atom independence)."""
    return canonicalize(add(a, mul(Const(Fraction(-1)), b))).is_zero()


def is_zero_expr(e: Expr) -> bool:
    return canonicalize(e).is_zero()
