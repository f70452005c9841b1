import pytest

from wavesym.canonical import equals
from wavesym.expr import Coord, mul, parse
from wavesym.jetspace import JetSpace, OrderOverflowError


def test_first_order_chart():
    coords = JetSpace(1).coordinates
    assert coords == ("t", "x", "u", "sigma", "f", "f_u", "f_sigma")
    assert len(coords) == 7


def test_second_order_chart():
    coords = JetSpace(2).coordinates
    assert len(coords) == 10
    assert coords[-3:] == ("f_uu", "f_usigma", "f_sigmasigma")


def test_zeroth_order_chart():
    assert JetSpace(0).coordinates == ("t", "x", "u", "sigma", "f")


@pytest.mark.parametrize("order", range(6))
def test_coordinate_count_formula(order):
    assert len(JetSpace(order).coordinates) == 4 + (order + 1) * (order + 2) // 2


def test_mixed_derivatives_stored_once():
    space = JetSpace(2)
    assert space.derivative_name(1, 1) == "f_usigma"
    assert space.coordinates.count("f_usigma") == 1


def test_total_derivative_of_dependent():
    space = JetSpace(1)
    assert equals(space.total_derivative(Coord("f"), "sigma"), Coord("f_sigma"))


def test_total_derivative_passenger_free():
    space = JetSpace(1)
    out = space.total_derivative(parse("sigma*f", space), "u")
    assert equals(out, parse("sigma*f_u", space))


def test_total_derivative_coefficient_rides():
    space = JetSpace(2)
    out = space.total_derivative(parse("u*f_sigma", space), "sigma")
    assert equals(out, parse("u*f_sigmasigma", space))


def test_order_overflow():
    space = JetSpace(1)
    with pytest.raises(OrderOverflowError):
        space.total_derivative(Coord("f_u"), "u")


def test_total_derivative_errors():
    with pytest.raises(ValueError, match="not a coordinate of this chart"):
        JetSpace(1).total_derivative(Coord("f_uu"), "u")
    with pytest.raises(ValueError, match="not a base coordinate"):
        JetSpace(1).total_derivative(Coord("f"), "t")
    # on the order-0 chart every coordinate leaves it, passengers included
    for name in ("f", "t"):
        with pytest.raises(OrderOverflowError, match="order-0 chart"):
            JetSpace(0).total_derivative(Coord(name), "sigma")


def test_total_derivatives_commute():
    space = JetSpace(2)
    for text in ("f", "u*f + sigma^2", "t*f - x*u", "f^2 + u*sigma*f"):
        e = parse(text, space)
        du_ds = space.total_derivative(space.total_derivative(e, "u"), "sigma")
        ds_du = space.total_derivative(space.total_derivative(e, "sigma"), "u")
        assert equals(du_ds, ds_du)


def test_total_derivative_is_a_derivation():
    space = JetSpace(2)
    a = parse("u*f + sigma", space)
    b = parse("f - u^2", space)
    lhs = space.total_derivative(mul(a, b), "u")
    rhs = space.total_derivative(a, "u") * b + space.total_derivative(b, "u") * a
    assert equals(lhs, rhs)


def test_u_jet_chart():
    from wavesym.jetspace import u_jet
    space = u_jet(2)
    assert space.coordinates == ("t", "x", "u", "u_t", "u_x", "u_tt", "u_tx", "u_xx")
    assert equals(space.total_derivative(Coord("u"), "t"), Coord("u_t"))
