"""Exact symbolic expression trees: the parse-and-print edge of wavesym.

Nodes are rational constants, coordinate references, the one atom ``exp``
applied to a single coordinate, sums, products, and integer powers.  Division
is a power with exponent -1; there is no floating-point mode anywhere.

The grammar has one parser, which builds whatever its caller's
:class:`Nodes` table of node constructors builds.  :func:`parse` passes the
tree constructors below, for the texts whose trees are kept: invariant
candidates, whose reports print them.  Equation text is parsed straight to
a fraction by :func:`wavesym.canonical.parse_form`, which passes fraction
constructors and builds no tree; a tree becomes a canonical form in
:func:`wavesym.canonical.canonicalize`, by the same fraction constructors.
All computation happens on forms, which print their own text and never turn
back into trees.  :func:`to_string` prints parsed trees; both printers write
numbers through :func:`number_text`.  Trees have no arithmetic operators.
The constructors below only do cheap local folding (flattening, constant
arithmetic, dropping zeros/ones) so trees stay small, and never fold away a
division: an identically zero denominator is reported by the fraction
constructors, with one message, after the whole text has parsed, so that
syntax and identifier errors come first.  ``diff_partial``, ``substitute``
and ``eval_at`` are a tree calculus that nothing in the package calls; they
stay while the benchmark's per-layer metrics name them.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .value import Value, set_field

Rational = Fraction

ExprLike = Union["Expr", int, Fraction]


class ExprError(Exception):
    """Base class for expression-level failures."""


class ExpressionSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int | None = None):
        where = "" if position is None else f" at offset {position}"
        super().__init__(f"unknown identifier {name!r}{where}")
        self.name = name
        self.position = position


class DivisionByZeroExpressionError(ExprError):
    """An expression denominator is identically zero."""


class ZeroDenominatorError(ExprError):
    """Evaluation hit a pole at the given point."""


class UnboundSymbolError(ExprError):
    """Evaluation found a coordinate or atom with no binding."""


class AtomArgumentError(ExprError):
    """A substitution would place a non-coordinate expression inside an atom."""


class NumberTooLongError(ExprError):
    """A number has more digits than Python converts to text."""


class Expr(Value):
    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        set_field(self, "value", value)

    def __repr__(self):
        return f"Const({self.value})"


class Coord(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __repr__(self):
        return f"Coord({self.name})"


class AtomApp(Expr):
    """The atom applied to a coordinate, e.g. exp(u)."""

    __slots__ = _fields = ("name", "arg")

    def __init__(self, name: str, arg: str):
        set_field(self, "name", name)
        set_field(self, "arg", arg)

    def __repr__(self):
        return f"AtomApp({self.name}({self.arg}))"


class Sum(Expr):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        set_field(self, "terms", terms)

    def __repr__(self):
        return f"Sum({', '.join(map(repr, self.terms))})"


class Product(Expr):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        set_field(self, "factors", factors)

    def __repr__(self):
        return f"Product({', '.join(map(repr, self.factors))})"


class Power(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        set_field(self, "base", base)
        set_field(self, "exponent", exponent)

    def __repr__(self):
        return f"Power({self.base!r}, {self.exponent})"


# the one atom; its derivative is itself
ATOM = "exp"

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


# ---------------------------------------------------------------------------
# smart constructors


def add(*terms: ExprLike) -> Expr:
    flat: list[Expr] = []
    total = Fraction(0)
    for t in terms:
        if not isinstance(t, Expr):
            t = as_expr(t)
        if isinstance(t, Sum):
            for s in t.terms:
                if isinstance(s, Const):
                    total += s.value
                else:
                    flat.append(s)
        elif isinstance(t, Const):
            total += t.value
        else:
            flat.append(t)
    if total != 0:
        flat.append(Const(total))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors: ExprLike) -> Expr:
    flat: list[Expr] = []
    coeff = Fraction(1)
    for f in factors:
        if not isinstance(f, Expr):
            f = as_expr(f)
        if isinstance(f, Product):
            for g in f.factors:
                if isinstance(g, Const):
                    coeff *= g.value
                else:
                    flat.append(g)
        elif isinstance(f, Const):
            coeff *= f.value
        else:
            flat.append(f)
    if coeff == 0 and not any(map(_has_negative_power, flat)):
        return ZERO
    if coeff != 1:
        flat.insert(0, Const(coeff))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def _has_negative_power(e: Expr) -> bool:
    """Whether e divides by something.  A zero product keeps such factors,
    so that a zero denominator, as in 0/(sigma - sigma), is still seen when
    the product is canonicalized or evaluated."""
    if isinstance(e, Power):
        return e.exponent < 0 or _has_negative_power(e.base)
    if isinstance(e, Sum):
        return any(map(_has_negative_power, e.terms))
    if isinstance(e, Product):
        return any(map(_has_negative_power, e.factors))
    return False


def pow_(base: Expr, exponent: int) -> Expr:
    """base^exponent, folded only where no division is lost, as ``mul``
    keeps the factors of a zero product: x^0 is 1 unless x divides by
    something, (x^a)^b is x^(a*b) unless a and b are both negative, and 0
    to a negative power stays a power.  So a zero denominator, as in
    (u/(sigma - sigma))^0 or (1/(sigma - sigma))^-1, is still seen when the
    tree is canonicalized or evaluated."""
    if not isinstance(exponent, int):
        raise TypeError("exponents must be integers")
    if exponent == 0:
        return Power(base, 0) if _has_negative_power(base) else ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            return Power(base, exponent)
        return Const(base.value ** exponent)
    if isinstance(base, Power) and not (base.exponent < 0 and exponent < 0):
        return pow_(base.base, base.exponent * exponent)
    return Power(base, exponent)


# ---------------------------------------------------------------------------
# calculus and substitution


def diff_partial(e: Expr, v: str) -> Expr:
    """Partial derivative treating every other coordinate as constant."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.name == v else ZERO
    if isinstance(e, AtomApp):
        # exp' = exp, the one atom
        return e if e.arg == v else ZERO
    if isinstance(e, Sum):
        return add(*(diff_partial(t, v) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = diff_partial(f, v)
            if df is ZERO or (isinstance(df, Const) and df.value == 0):
                continue
            terms.append(mul(*factors[:i], df, *factors[i + 1:]))
        return add(*terms)
    if isinstance(e, Power):
        db = diff_partial(e.base, v)
        if isinstance(db, Const) and db.value == 0:
            return ZERO
        return mul(Const(Fraction(e.exponent)), pow_(e.base, e.exponent - 1), db)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of coordinates; unbound coordinates stay.

    A binding whose target appears as an atom argument must be a coordinate
    (atoms apply to coordinates only); otherwise AtomArgumentError is raised.
    """
    if not bindings:
        return e
    return _subst(e, {k: as_expr(v) for k, v in bindings.items()})


def _subst(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Coord):
        return bindings.get(e.name, e)
    if isinstance(e, AtomApp):
        b = bindings.get(e.arg)
        if b is None:
            return e
        if isinstance(b, Coord):
            return AtomApp(e.name, b.name)
        raise AtomArgumentError(
            f"cannot substitute non-coordinate expression for {e.arg!r} "
            f"inside {e.name}({e.arg})"
        )
    if isinstance(e, Sum):
        return add(*(_subst(t, bindings) for t in e.terms))
    if isinstance(e, Product):
        return mul(*(_subst(f, bindings) for f in e.factors))
    if isinstance(e, Power):
        return pow_(_subst(e.base, bindings), e.exponent)
    return e


def eval_at(
    e: Expr,
    point: Mapping[str, Fraction],
    atom_values: Mapping[str, Fraction] | None = None,
) -> Fraction:
    """Exact rational evaluation.  Atom values are keyed by printed form,
    e.g. ``{"exp(u)": Fraction(3)}``."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        try:
            return Fraction(point[e.name])
        except KeyError:
            raise UnboundSymbolError(f"coordinate {e.name!r} is unbound") from None
    if isinstance(e, AtomApp):
        key = f"{e.name}({e.arg})"
        if atom_values is None or key not in atom_values:
            raise UnboundSymbolError(f"atom {key!r} is unbound")
        return Fraction(atom_values[key])
    if isinstance(e, Sum):
        return sum((eval_at(t, point, atom_values) for t in e.terms), Fraction(0))
    if isinstance(e, Product):
        out = Fraction(1)
        for f in e.factors:
            out *= eval_at(f, point, atom_values)
        return out
    if isinstance(e, Power):
        base = eval_at(e.base, point, atom_values)
        if base == 0 and e.exponent < 0:
            raise ZeroDenominatorError("zero denominator at evaluation point")
        return base ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# parsing

_OPS = set("+-*/^()")

# Parentheses and unary minus recurse in the parser; deeper input is
# rejected as a syntax error before it can exhaust the interpreter stack.
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c in _OPS:
            tokens.append((c, c, i))
            i += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class Nodes(NamedTuple):
    """The node constructors the parser builds with: a literal (a
    non-negative integer, or -1 for a minus sign), a coordinate, the atom
    applied to a coordinate, the sum of two or more terms and the product of
    two or more factors, each a list of nodes, and a node to an integer
    power, which is -1 for a division."""

    number: Callable
    coordinate: Callable
    atom: Callable
    sum: Callable
    product: Callable
    power: Callable


_TREE_NODES = Nodes(lambda n: Const(Fraction(n)), Coord, AtomApp,
                   lambda terms: add(*terms), lambda factors: mul(*factors),
                   pow_)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], coords: frozenset[str],
                 nodes: Nodes):
        self.tokens = tokens
        self.coords = coords
        self.pos = 0
        self.depth = 0
        (self.number, self.coordinate, self.atom, self.sum, self.product,
         self.power) = nodes
        self.minus_one = self.number(-1)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2]
            )
        return self.advance()

    def nested(self, position: int, parse_inner):
        if self.depth == _MAX_NESTING:
            raise ExpressionSyntaxError(
                f"nesting deeper than {_MAX_NESTING} levels", position)
        self.depth += 1
        inner = parse_inner()
        self.depth -= 1
        return inner

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = self.parse_term()
            terms.append(t if op == "+" else self.product([self.minus_one, t]))
        return terms[0] if len(terms) == 1 else self.sum(terms)

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            f = self.parse_factor()
            factors.append(f if op == "*" else self.power(f, -1))
        return factors[0] if len(factors) == 1 else self.product(factors)

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            return self.power(base, sign * self.integer())
        return base

    def integer(self) -> int:
        _, text, position = self.expect("number")
        try:
            return int(text)
        except ValueError:  # more digits than int() converts (Python >= 3.11)
            raise ExpressionSyntaxError(
                f"number of {len(text)} digits is too long", position) from None

    def parse_base(self):
        kind, text, position = self.peek()
        if kind == "number":
            return self.number(self.integer())
        if kind == "-":
            self.advance()
            return self.product(
                [self.minus_one, self.nested(position, self.parse_factor)])
        if kind == "(":
            self.advance()
            inner = self.nested(position, self.parse_expr)
            self.expect(")")
            return inner
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text != ATOM:
                    raise UnknownIdentifierError(text, position)
                self.advance()
                arg_kind, arg_text, arg_pos = self.expect("ident")
                if arg_text not in self.coords:
                    raise UnknownIdentifierError(arg_text, arg_pos)
                self.expect(")")
                return self.atom(text, arg_text)
            if text not in self.coords:
                raise UnknownIdentifierError(text, position)
            return self.coordinate(text)
        raise ExpressionSyntaxError(
            f"unexpected {text or 'end of input'!r}", position
        )


def parse_nodes(text: str, coords: Iterable[str], nodes: Nodes):
    """``text`` read by the grammar and built by ``nodes``; identifiers must
    be chart coordinates or the atom ``exp`` applied to a chart coordinate.
    Syntax and identifier errors are raised as the text is read; the nodes
    raise nothing about the value, so that those errors come first."""
    chart = getattr(coords, "coordinates", coords)
    parser = _Parser(_tokenize(text), frozenset(chart), nodes)
    e = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
    return e


def parse(text: str, coords: Iterable[str]) -> Expr:
    """Parse ``text`` to a tree, as :func:`parse_nodes` reads it."""
    return parse_nodes(text, coords, _TREE_NODES)


# ---------------------------------------------------------------------------
# printing

_P_SUM, _P_PROD, _P_POW, _P_ATOM = 1, 2, 3, 4


def to_string(e: Expr) -> str:
    """Render in the input grammar; parsing the output reproduces the same
    canonical form."""
    return _fmt(e, _P_SUM)


def _fmt(e: Expr, min_prec: int) -> str:
    s, prec = _render(e)
    return f"({s})" if prec < min_prec else s


def _split_sign(t: Expr) -> tuple[bool, Expr]:
    if isinstance(t, Const) and t.value < 0:
        return True, Const(-t.value)
    if isinstance(t, Product) and t.factors and isinstance(t.factors[0], Const):
        c = t.factors[0].value
        if c < 0:
            return True, mul(Const(-c), *t.factors[1:])
    return False, t


def number_text(value: int | Fraction) -> str:
    """``str(value)``; a number of more digits than Python converts to text
    raises NumberTooLongError."""
    try:
        return str(value)
    except ValueError:  # more digits than str() converts (Python >= 3.11)
        raise NumberTooLongError(
            f"number of more than {sys.get_int_max_str_digits()} digits "
            "is too long to print") from None


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        text = number_text(e.value)
        if e.value < 0 or e.value.denominator != 1:
            return text, _P_PROD
        return text, _P_ATOM
    if isinstance(e, Coord):
        return e.name, _P_ATOM
    if isinstance(e, AtomApp):
        return f"{e.name}({e.arg})", _P_ATOM
    if isinstance(e, Sum):
        parts = [_fmt(e.terms[0], _P_PROD)]
        for t in e.terms[1:]:
            negative, body = _split_sign(t)
            parts.append((" - " if negative else " + ") + _fmt(body, _P_PROD))
        return "".join(parts), _P_SUM
    if isinstance(e, Product):
        if (len(e.factors) > 1 and isinstance(e.factors[0], Const)
                and e.factors[0].value == -1):
            return "-" + _fmt(mul(*e.factors[1:]), _P_PROD), _P_PROD
        numerator = [f for f in e.factors
                     if not (isinstance(f, Power) and f.exponent < 0)]
        denominator = [f for f in e.factors
                       if isinstance(f, Power) and f.exponent < 0]
        if numerator:
            out = "*".join(_fmt(f, _P_PROD + 1) if isinstance(f, Product)
                           else _fmt(f, _P_PROD) for f in numerator)
        else:
            out = "1"
        for f in denominator:
            assert isinstance(f, Power)
            inverted = pow_(f.base, -f.exponent)
            out += "/" + _fmt(inverted, _P_POW)
        return out, _P_PROD
    if isinstance(e, Power):
        return f"{_fmt(e.base, _P_ATOM)}^{e.exponent}", _P_POW
    raise TypeError(f"not an expression node: {e!r}")
