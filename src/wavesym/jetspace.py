"""Jet coordinate charts and total-derivative operators.

The default chart carries the parameter function f over the base pair
(u, sigma) with passenger coordinates (t, x): for order L the coordinates are
[t, x, u, sigma, f, f_u, f_sigma, f_uu, f_usigma, f_sigmasigma, ...] with all
mixed derivatives stored once.  The same machinery instantiates the internal
second-order chart of u over (t, x) used when inducing generators from point
transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import ONE_FORM, CanonicalForm, canonicalize, coordinate
from .expr import ExprLike


class OrderOverflowError(Exception):
    """A total derivative would leave the chart."""


@dataclass(frozen=True)
class JetSpace:
    order: int
    passengers: tuple[str, ...] = ("t", "x")
    bases: tuple[str, ...] = ("u", "sigma")
    dependent: str = "f"
    coordinates: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("jet order must be non-negative")
        coords = list(self.passengers) + list(self.bases) + [self.dependent]
        for m in range(1, self.order + 1):
            for a in range(m, -1, -1):
                coords.append(self.derivative_name(a, m - a))
        object.__setattr__(self, "coordinates", tuple(coords))

    def derivative_name(self, a: int, b: int) -> str:
        if a == b == 0:
            return self.dependent
        return self.dependent + "_" + self.bases[0] * a + self.bases[1] * b

    def derivative_counts(self, name: str) -> tuple[int, int] | None:
        """(a, b) for the dependent's derivative coordinates, including
        (0, 0) for the dependent itself; None for other coordinates."""
        if name == self.dependent:
            return (0, 0)
        prefix = self.dependent + "_"
        if not name.startswith(prefix):
            return None
        tail = name[len(prefix):]
        first, second = self.bases
        a = 0
        while tail.startswith(first):
            tail = tail[len(first):]
            a += 1
        b = 0
        while tail.startswith(second):
            tail = tail[len(second):]
            b += 1
        if tail or (a == 0 and b == 0):
            return None
        return (a, b)

    def coordinate_order(self, name: str) -> int:
        counts = self.derivative_counts(name)
        return 0 if counts is None else counts[0] + counts[1]

    def __contains__(self, name: str) -> bool:
        return name in self.coordinates

    def bump(self, name: str, base: str) -> str:
        counts = self.derivative_counts(name)
        if counts is None:
            raise ValueError(f"{name!r} is not a jet coordinate of {self.dependent!r}")
        a, b = counts
        if base == self.bases[0]:
            return self.derivative_name(a + 1, b)
        if base == self.bases[1]:
            return self.derivative_name(a, b + 1)
        raise ValueError(f"{base!r} is not a base coordinate")

    def total_derivative(self, e: CanonicalForm | ExprLike,
                         base_var: str) -> CanonicalForm:
        """D_v e = d_v e + sum over jet coordinates f_J of f_{J,v} * d_{f_J} e.

        Passengers have zero total derivative.  The input may only use
        coordinates of order < the chart order, so the result stays inside
        the chart.
        """
        if base_var not in self.bases:
            raise ValueError(f"{base_var!r} is not a base coordinate")
        form = canonicalize(e)
        coefficients = {base_var: ONE_FORM}
        for name in form.free_coordinates():
            if name not in self:
                raise ValueError(f"{name!r} is not a coordinate of this chart")
            if self.coordinate_order(name) >= self.order:
                raise OrderOverflowError(
                    f"{name!r} has order {self.coordinate_order(name)}; "
                    f"its total derivative leaves the order-{self.order} chart"
                )
            if self.derivative_counts(name) is not None:
                coefficients[name] = coordinate(self.bump(name, base_var))
        return form.derive(coefficients)


def u_jet(order: int = 2) -> JetSpace:
    """Chart of u over (t, x), used to prolong point transformations."""
    return JetSpace(order, passengers=(), bases=("t", "x"), dependent="u")
