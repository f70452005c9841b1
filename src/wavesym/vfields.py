"""Vector fields on jet charts.

A field is a first-order operator sum(coeff_v * d_v) stored as a sparse map
from coordinate names to coefficients, each a canonical form (a reduced
polynomial fraction, see :mod:`wavesym.canonical`).  Applying, bracketing
and prolonging fields compute on those forms; expression trees enter only
through the constructor and leave only when printed.  Prolongation follows
the usual recursion zeta_{J,i} = D_i(zeta_J) - sum_j f_{J,j} D_i(xi^j) with
zeta_empty the coefficient on the dependent coordinate.

Point transformations acting on (t, x, u) induce generators on the chart
(t, x, u, sigma, f): the action is a field on the u-jet chart (t, x, u), and
:func:`prolong` lifts it to second order, the same recursion as above.  From
its u_t, u_x, u_tt and u_xx coefficients come the increments of
sigma = u_t^2 - u_x^2 and of f = u_tt - u_xx; u_tt is eliminated through the
equation itself by substituting f + u_xx into the form, u_t^2 is folded into
sigma + u_x^2 in its numerator and denominator, and the result must come out
independent of t, x and the remaining u-derivatives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from .canonical import CanonicalForm, Poly, _normalized, canonicalize, coordinate
from .expr import ExprLike
from .jetspace import JetSpace, u_jet


class NotProjectableError(Exception):
    """A point action does not induce a well-defined generator on the
    (u, sigma, f) chart."""


_ZERO = canonicalize(0)


@dataclass(frozen=True)
class VectorField:
    """Coefficients may be given as expressions, numbers or forms; they are
    stored as nonzero canonical forms.  Fields compare and hash by value
    (chart and coefficients), so equal fields share cache entries; the hash
    is computed once."""

    space: JetSpace
    coefficients: Mapping[str, CanonicalForm] = field(default_factory=dict)

    def __post_init__(self):
        cleaned: dict[str, CanonicalForm] = {}
        for name, coeff in self.coefficients.items():
            if name not in self.space:
                raise ValueError(f"{name!r} is not a coordinate of the chart")
            form = canonicalize(coeff)
            if not form.is_zero():
                cleaned[name] = form
        object.__setattr__(self, "coefficients", cleaned)

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.space, frozenset(self.coefficients.items())))

    def __hash__(self):
        return self._hash

    def coefficient(self, name: str) -> CanonicalForm:
        return self.coefficients.get(name, _ZERO)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __str__(self):
        parts = [f"({c}) d_{v}" for v, c in self.coefficients.items()]
        return " + ".join(parts) if parts else "0"


def apply(x: VectorField, f: CanonicalForm | ExprLike) -> CanonicalForm:
    """X(F) = sum coeff_v * d_v F, reduced once: on F = N/D it is
    (X(N) D - N X(D)) / D^2."""
    return canonicalize(f).derive(x.coefficients)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y], coefficient on v is X(coeff_Y(v)) - Y(coeff_X(v))."""
    if x.space != y.space:
        raise ValueError("bracket requires fields on the same chart")
    coords = set(x.coefficients) | set(y.coefficients)
    return VectorField(x.space, {
        v: apply(x, y.coefficient(v)) - apply(y, x.coefficient(v))
        for v in coords})


def prolong(x: VectorField, target_order: int, given_order: int = 0) -> VectorField:
    """Lift to the order-``target_order`` chart.

    Coefficients on derivative coordinates up to ``given_order`` are taken
    from the field as given (zero when absent); higher ones come from the
    zeta-recursion.  Lowering the order just restricts the chart.
    """
    space = JetSpace(target_order, x.space.passengers, x.space.bases,
                     x.space.dependent)
    coeffs = {v: c for v, c in x.coefficients.items() if v in space}
    if target_order <= given_order:
        return VectorField(space, coeffs)
    b0, b1 = space.bases
    d_xi = {(base, direction): space.total_derivative(x.coefficient(base), direction)
            for base in space.bases for direction in space.bases}
    zeta: dict[tuple[int, int], CanonicalForm] = {}
    for m in range(given_order + 1):
        for a in range(m, -1, -1):
            name = space.derivative_name(a, m - a)
            zeta[(a, m - a)] = coeffs.get(name, _ZERO)
    for m in range(given_order + 1, target_order + 1):
        for a in range(m, -1, -1):
            b = m - a
            if a > 0:
                parent, direction = (a - 1, b), b0
            else:
                parent, direction = (0, b - 1), b1
            pa, pb = parent
            z = space.total_derivative(zeta[parent], direction)
            for j, base in enumerate(space.bases):
                bumped = (pa + 1, pb) if j == 0 else (pa, pb + 1)
                z = z - d_xi[(base, direction)] * coordinate(
                    space.derivative_name(*bumped))
            zeta[(a, b)] = z
            coeffs[space.derivative_name(a, b)] = z
    return VectorField(space, coeffs)


# ---------------------------------------------------------------------------
# point actions


@dataclass(frozen=True)
class PointAction:
    """Infinitesimal point transformation of (t, x, u).  The coefficients
    may be given as expressions, numbers or forms in (t, x, u); they are
    stored as forms."""

    xi_t: CanonicalForm
    xi_x: CanonicalForm
    eta_u: CanonicalForm

    def __post_init__(self):
        for label in ("xi_t", "xi_x", "eta_u"):
            form = canonicalize(getattr(self, label))
            bad = form.free_coordinates() - {"t", "x", "u"}
            if bad:
                raise ValueError(f"{label} may only use (t, x, u); found {sorted(bad)}")
            object.__setattr__(self, label, form)


def _fold_even_powers(p: Poly, var: str, replacement: Poly) -> Poly:
    """Rewrite var^k as var^(k mod 2) * replacement^(k div 2)."""
    out = Poly()
    for e, coeff in p.coeffs_in(var).items():
        piece = coeff * (replacement ** (e // 2))
        if e % 2:
            piece = piece * Poly.var(var)
        out = out + piece
    return out


def induce_from_point_action(action: PointAction) -> VectorField:
    """Generator on the chart (t, x, u, sigma, f) induced by a point action.

    The second prolongation in the u-jet gives the increments of sigma and f;
    u_tt is eliminated first via u_tt = f + u_xx, then u_t^2 via
    u_t^2 = sigma + u_x^2.  Residual dependence on t, x, u_t, u_x, u_tt,
    u_tx or u_xx raises NotProjectableError: the class's f depends on u and
    sigma alone.
    """
    xi_t, xi_x, eta = action.xi_t, action.xi_x, action.eta_u
    zeta = prolong(VectorField(u_jet(0), {"t": xi_t, "x": xi_x, "u": eta}),
                   2).coefficient
    u_t, u_x, u_xx = map(coordinate, ("u_t", "u_x", "u_xx"))

    delta_sigma = (zeta("u_t") * u_t - zeta("u_x") * u_x) * 2
    delta_f = zeta("u_tt") - zeta("u_xx")

    sigma_plus_ux2 = Poly.var("sigma") + Poly.var("u_x") * Poly.var("u_x")
    u_tt_by_f = {"u_tt": coordinate("f") + u_xx}
    residual_vars = ("t", "x", "u_t", "u_x", "u_tt", "u_tx", "u_xx")

    def project(form: CanonicalForm, label: str) -> CanonicalForm:
        eliminated = form.substitute(u_tt_by_f)
        num = _fold_even_powers(eliminated.numerator, "u_t", sigma_plus_ux2)
        den = _fold_even_powers(eliminated.denominator, "u_t", sigma_plus_ux2)
        reduced = _normalized(num, den)
        leftover = reduced.free_coordinates() & set(residual_vars)
        if leftover:
            raise NotProjectableError(
                f"the induced {label}-coefficient still depends on "
                f"{sorted(leftover)}; the point action does not project to "
                f"the (u, sigma, f) chart"
            )
        return reduced

    coeffs = {
        "t": xi_t,
        "x": xi_x,
        "u": eta,
        "sigma": project(delta_sigma, "sigma"),
        "f": project(delta_f, "f"),
    }
    return VectorField(JetSpace(0), coeffs)
