"""Value semantics of the plain value classes: construction, equality and
hashing by their compared fields, and refused assignment."""

from fractions import Fraction

import pytest

from wavesym.canonical import CanonicalForm, canonicalize, coordinate
from wavesym.cli import RunConfig
from wavesym.eqalgebra import (
    DEFAULT_K,
    GeneratorSet,
    RankReport,
    Source,
    build_generators,
)
from wavesym.equivalence import (
    EquationInstance,
    EquivalenceResult,
    FiniteTransformation,
    NonInvertibleError,
    Signature,
    Verdict,
)
from wavesym.expr import AtomApp, Const, Coord, Power, Product, Sum
from wavesym.invariants import InvariantReport, WeightedBlock
from wavesym.jetspace import JetSpace
from wavesym.value import Value, set_field
from wavesym.vfields import PointAction, VectorField

U, SIGMA = coordinate("u"), coordinate("sigma")
A, B = Coord("u"), Const(Fraction(2))


def _pairs():
    """Two separately built equal values of each class, and one unequal."""
    yield Const(Fraction(1, 2)), Const(Fraction(1, 2)), Const(Fraction(1))
    yield Coord("u"), Coord("u"), Coord("sigma")
    yield AtomApp("exp", "u"), AtomApp("exp", "u"), AtomApp("exp", "sigma")
    yield Sum((A, B)), Sum((Coord("u"), Const(Fraction(2)))), Sum((B, A))
    yield Product((A, B)), Product((A, B)), Product((A, A))
    yield Power(A, 2), Power(Coord("u"), 2), Power(A, 3)
    yield U + 1, canonicalize(1) + U, U - 1
    yield JetSpace(2), JetSpace(2), JetSpace(2, dependent="g")
    yield (VectorField(JetSpace(1), {"u": U, "f": 0}),
           VectorField(JetSpace(1), {"u": coordinate("u")}),
           VectorField(JetSpace(1), {"u": SIGMA}))
    yield PointAction(1, 0, U), PointAction(1, 0, U), PointAction(0, 1, U)
    yield Signature(False, U, SIGMA), Signature(False, U, SIGMA), Signature(True)
    yield (EquivalenceResult(Verdict.EQUIVALENT, Signature(True), Signature(True)),
           EquivalenceResult(Verdict.EQUIVALENT, Signature(True), Signature(True)),
           EquivalenceResult(Verdict.BOTH_DEGENERATE, Signature(True),
                             Signature(True)))
    yield EquationInstance(U), EquationInstance(U * 1), EquationInstance(SIGMA)
    yield (FiniteTransformation(U * 2, U / 2),
           FiniteTransformation(U * 2, U / 2, 1),
           FiniteTransformation(U * 2, U / 2, 3))
    yield (RankReport(1, 7, 0, 7), RankReport(1, 7, 0, 7),
           RankReport(1, 6, 0, 7))
    # build_generators returns one set per (source, K), so the equal twin
    # is constructed
    g = build_generators(Source.DERIVED, 2)
    yield (g, GeneratorSet(g.source, g.truncation, g.names, g.base_fields,
                           g.base_order),
           build_generators(Source.DERIVED, 3))


@pytest.mark.parametrize("a, b, other", list(_pairs()),
                         ids=lambda v: type(v).__name__)
def test_equal_values_compare_and_hash_equal(a, b, other):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    name = a._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


def test_one_equality_rule_for_every_value_class():
    """Every value class compares by ``Value``'s rule; all but two hash by
    it too: a vector field caches its hash, and the run settings, which
    stay assignable, have none."""
    classes = set(_value_classes())
    assert {CanonicalForm, JetSpace, VectorField, RunConfig, Sum} <= classes
    for cls in classes:
        assert cls.__eq__ is Value.__eq__, cls.__name__
        if cls is VectorField:
            assert cls.__hash__ is not Value.__hash__
        elif cls is RunConfig:
            assert cls.__hash__ is None
        else:
            assert cls.__hash__ is Value.__hash__, cls.__name__


def test_equal_fields_on_different_classes_compare_unequal():
    assert Sum((A, B)) != Product((A, B))
    assert Coord("u") != Const(Fraction(1)) and Coord("u") != "u"
    assert Signature(True) != RunConfig()


def test_dict_fields_make_a_value_unhashable():
    for value in (InvariantReport(A, {"Y1": ("absolute", None)}),
                  WeightedBlock(A, {"Y1": U})):
        assert value == type(value)(*(getattr(value, n) for n in value._fields))
        with pytest.raises(TypeError):
            hash(value)


def test_excluded_fields_stay_out_of_equality():
    used = build_generators(Source.DERIVED, 2)
    used.prolonged(2)
    assert used._cache
    fresh = GeneratorSet(used.source, used.truncation, used.names,
                         used.base_fields, used.base_order)
    assert not fresh._cache
    assert used == fresh and hash(used) == hash(fresh)
    space = JetSpace(2)
    set_field(space, "coordinates", ())
    assert space == JetSpace(2) and hash(space) == hash(JetSpace(2))
    assert "coordinates" not in repr(space) and "_cache" not in repr(used)


def test_keyword_construction_and_defaults():
    assert Signature(degenerate=True) == Signature(True, None, None)
    assert JetSpace(order=2) == JetSpace(2, ("t", "x"), ("u", "sigma"), "f")
    assert JetSpace(order=2).coordinates[:4] == ("t", "x", "u", "sigma")
    transformation = FiniteTransformation(U * 2, U / 2)
    assert transformation.dilation == 1
    assert isinstance(transformation.dilation, Fraction)
    assert VectorField(JetSpace(0)).coefficients == {}
    assert PointAction(xi_t=1, xi_x=0, eta_u=U) == PointAction(1, 0, U)
    config = RunConfig()
    assert (config.K, config.source, config.output) == (
        DEFAULT_K, Source.DERIVED, "text")
    assert config == RunConfig(K=DEFAULT_K)
    config.K = 9  # the run settings stay assignable
    assert config != RunConfig() and config == RunConfig(K=9)
    with pytest.raises(TypeError):
        hash(config)


@pytest.mark.parametrize("build, error, message", [
    (lambda: JetSpace(-1), ValueError, "jet order must be non-negative"),
    (lambda: VectorField(JetSpace(0), {"f_u": 1}), ValueError,
     "'f_u' is not a coordinate of the chart"),
    (lambda: PointAction(SIGMA, 0, 0), ValueError,
     r"xi_t may only use \(t, x, u\); found \['sigma'\]"),
    (lambda: EquationInstance(coordinate("t")), ValueError,
     r"the parameter function may only use \(u, sigma\); found \['t'\]"),
    (lambda: FiniteTransformation(SIGMA, U), ValueError,
     "phi must be an expression in u alone"),
    (lambda: FiniteTransformation(U, U, -1), ValueError,
     "the dilation factor must be positive"),
    (lambda: FiniteTransformation(1, U), NonInvertibleError,
     "phi has identically zero derivative"),
    (lambda: FiniteTransformation(U * 2, U), NonInvertibleError,
     r"phi\(phi_inverse\(u\)\) does not simplify to u"),
])
def test_construction_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
