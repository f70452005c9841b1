"""Jet coordinate charts and total-derivative operators.

The default chart carries the parameter function f over the base pair
(u, sigma) with passenger coordinates (t, x): for order L the coordinates are
[t, x, u, sigma, f, f_u, f_sigma, f_uu, f_usigma, f_sigmasigma, ...] with all
mixed derivatives stored once.  The same machinery instantiates the internal
second-order chart of u over (t, x) used when inducing generators from point
transformations.
"""

from __future__ import annotations

from .canonical import ONE_FORM, CanonicalForm, canonicalize, coordinate
from .expr import ExprLike
from .value import Value, set_field


class OrderOverflowError(Exception):
    """A total derivative would leave the chart."""


class JetSpace(Value):
    """Compares and hashes by order, passengers, bases and dependent; the
    coordinates and the derivative table follow from those."""

    _fields = ("order", "passengers", "bases", "dependent")

    def __init__(self, order: int, passengers: tuple[str, ...] = ("t", "x"),
                 bases: tuple[str, ...] = ("u", "sigma"),
                 dependent: str = "f"):
        set_field(self, "order", order)
        set_field(self, "passengers", passengers)
        set_field(self, "bases", bases)
        set_field(self, "dependent", dependent)
        if order < 0:
            raise ValueError("jet order must be non-negative")
        # (a, b) of the dependent's derivative f_{u^a sigma^b}, keyed by
        # name, (0, 0) for the dependent itself
        counts = {self.derivative_name(a, m - a): (a, m - a)
                  for m in range(order + 1) for a in range(m, -1, -1)}
        set_field(self, "_counts", counts)
        set_field(self, "coordinates",
                  tuple(list(passengers) + list(bases) + list(counts)))

    def derivative_name(self, a: int, b: int) -> str:
        if a == b == 0:
            return self.dependent
        return self.dependent + "_" + self.bases[0] * a + self.bases[1] * b

    def __contains__(self, name: str) -> bool:
        return name in self.coordinates

    def total_derivative(self, e: CanonicalForm | ExprLike,
                         base_var: str) -> CanonicalForm:
        """D_v e = d_v e + sum over jet coordinates f_J of f_{J,v} * d_{f_J} e.

        Passengers have zero total derivative.  The input may only use
        coordinates of order < the chart order, so the result stays inside
        the chart.
        """
        if base_var not in self.bases:
            raise ValueError(f"{base_var!r} is not a base coordinate")
        da, db = (1, 0) if base_var == self.bases[0] else (0, 1)
        form = canonicalize(e)
        coefficients = {base_var: ONE_FORM}
        for name in form.free_coordinates():
            if name not in self:
                raise ValueError(f"{name!r} is not a coordinate of this chart")
            a, b = self._counts.get(name, (0, 0))
            if a + b >= self.order:
                raise OrderOverflowError(
                    f"{name!r} has order {a + b}; "
                    f"its total derivative leaves the order-{self.order} chart"
                )
            if name in self._counts:
                coefficients[name] = coordinate(
                    self.derivative_name(a + da, b + db))
        return form.derive(coefficients)


def u_jet(order: int = 2) -> JetSpace:
    """Chart of u over (t, x), used to prolong point transformations."""
    return JetSpace(order, passengers=(), bases=("t", "x"), dependent="u")
