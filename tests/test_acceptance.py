"""Acceptance suite: every structural quantity the source analysis reports,
verified end to end in exact arithmetic (tolerance identically zero), with a
wall-clock budget per criterion and one printed verdict line each."""

import itertools
import random
import time
from fractions import Fraction

from helpers import field_combination, field_is_zero, fields_equal
from wavesym.canonical import canonicalize, equals
from wavesym.eqalgebra import (
    build_generators,
    closure_max_k,
    prolonged_rank,
    rank_on_manifold,
    verify_commutator_table,
)
from wavesym.equivalence import (
    EquationInstance,
    Verdict,
    affine_transformation,
    apply_finite_transformation,
    check_equivalence,
    pde_residual,
    signature_of,
)
from wavesym.expr import Const, Coord, add, mul, parse, pow_
from wavesym.invariants import (
    NAMED_EXPRESSIONS,
    functional_independence,
    is_absolute,
    relative_weight,
    verify_paper_invariants,
)
from wavesym.jetspace import JetSpace
from wavesym.vfields import apply, bracket, prolong


class _Budget:
    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} {status} "
              f"({elapsed:.1f}s of {self.seconds:.0f}s budget): {self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget")
        return False


def test_criterion_1_commutator_table():
    with _Budget(1, "derived commutator table reproduces every relation", 10):
        g = build_generators("derived", 6)
        report = verify_commutator_table(g)
        assert report["all_exact"]
        assert report["relations_checked"] == 49


def test_criterion_2_closure():
    with _Budget(2, "largest bracket-closed truncation is 2", 10):
        g = build_generators("derived", 6)
        assert closure_max_k(g) == 2


def test_criterion_3_first_order_count_and_relative_invariant():
    with _Budget(3, "first order: rank 7, no absolute invariants, "
                    "R relative with the exact weights", 30):
        g = build_generators("derived", 6)
        report = prolonged_rank(g, 1)
        assert report.rank == 7
        assert report.variable_count == 7
        assert report.invariant_count == 0
        r = NAMED_EXPRESSIONS["R"]
        gens = g.prolonged_named(1)
        assert equals(relative_weight(r, gens["Y3"]), Const(Fraction(-2)))
        for name in ("Y0", "Y1", "Y2"):
            assert canonicalize(apply(gens[name], r)).is_zero()
        for k in range(7):
            expected = parse(f"{k}*u^{k-1}" if k >= 1 else "0", JetSpace(1))
            assert equals(relative_weight(r, gens[f"Y^{k}"]), expected)


def test_criterion_4_special_manifold_rank():
    with _Budget(4, "rank drops to 6 on sigma*f_sigma - f = 0", 30):
        g = build_generators("derived", 6)
        report = rank_on_manifold(g, NAMED_EXPRESSIONS["R"], 1)
        assert report.rank == 6


def test_criterion_5_second_order_count():
    with _Budget(5, "second order: rank 8 of 10 variables, 2 invariants", 60):
        g = build_generators("derived", 6)
        report = prolonged_rank(g, 2)
        assert report.rank == 8
        assert report.variable_count == 10
        assert report.invariant_count == 2


def test_criterion_6_invariant_verification_and_discrepancy_report():
    with _Budget(6, "published invariants verified; printed-coefficient "
                    "discrepancies reported", 60):
        g = build_generators("derived", 6)
        assert is_absolute(NAMED_EXPRESSIONS["R2"], g, 2).overall == "absolute"
        assert is_absolute(NAMED_EXPRESSIONS["R1_corrected"], g, 2).overall == "absolute"
        printed_r1 = is_absolute(NAMED_EXPRESSIONS["R1_printed"], g, 2)
        assert printed_r1.overall == "relative"
        kind, weight = printed_r1.verdicts["Y^2"]
        assert kind == "relative" and equals(weight, parse("-4*u", JetSpace(1)))
        # the discrepancy report is a required output, not a test failure:
        # the printed coefficient variant must be flagged as breaking the
        # relative invariance of R
        bundle = verify_paper_invariants("paper", 6)
        assert bundle["candidates"]["R"]["overall"] != "relative"
        assert any("not a relative invariant" in d for d in bundle["discrepancies"])
        derived_bundle = verify_paper_invariants("derived", 6)
        assert any("corrected form" in d for d in derived_bundle["discrepancies"])


def test_criterion_7_functional_independence():
    with _Budget(7, "corrected pair is functionally independent (rank 2)", 10):
        assert functional_independence(
            [NAMED_EXPRESSIONS["R1_corrected"], NAMED_EXPRESSIONS["R2"]],
            JetSpace(2))


def _random_affine(rng):
    a = Fraction(rng.choice([1, -1, 2, -2, 3, -3, 5]), rng.choice([1, 2, 3, 4]))
    b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    c = Fraction(rng.choice([1, 2, 3, 4, 9, 16]), rng.choice([1, 2, 3, 4]))
    return affine_transformation(a, b, c)


def test_criterion_8_end_to_end_equivalence():
    with _Budget(8, "equivalence preserved under 20 random finite "
                    "transformations; distinct classes separated", 60):
        rng = random.Random(1729)
        square = EquationInstance.from_text("sigma^2")
        linear = EquationInstance.from_text("sigma")
        transformations = [_random_affine(rng) for _ in range(20)]
        for t in transformations:
            moved = apply_finite_transformation(square, t)
            assert check_equivalence(square, moved).verdict == Verdict.EQUIVALENT
            assert signature_of(apply_finite_transformation(linear, t)).degenerate
        cube = EquationInstance.from_text("sigma^3")
        assert check_equivalence(square, cube).verdict == Verdict.NOT_EQUIVALENT


def test_criterion_9_property_suites():
    with _Budget(9, "ring laws, idempotence, bracket laws, naturality, "
                    "derivations, residual soundness", 120):
        rng = random.Random(1729)

        def random_expr(depth=3):
            roll = rng.random()
            if depth == 0 or roll < 0.3:
                if rng.random() < 0.5:
                    return Const(Fraction(rng.randint(-4, 4)))
                return Coord(rng.choice(["u", "sigma", "f"]))
            if roll < 0.55:
                return add(random_expr(depth - 1), random_expr(depth - 1))
            if roll < 0.8:
                return mul(random_expr(depth - 1), random_expr(depth - 1))
            return pow_(random_expr(depth - 1), rng.randint(0, 3))

        for _ in range(40):
            a, b, c = random_expr(), random_expr(), random_expr()
            assert canonicalize(add(a, b)) == canonicalize(add(b, a))
            assert canonicalize(mul(a, add(b, c))) == \
                canonicalize(add(mul(a, b), mul(a, c)))
            cf = canonicalize(a)
            assert canonicalize(parse(str(cf), JetSpace(0))) == cf

        g = build_generators("derived", 4)
        fields = g.prolonged_named(1)
        names = ["Y0", "Y1", "Y2", "Y3", "Y^0", "Y^1", "Y^2", "Y^3", "Y^4"]
        pair_brackets = {}
        for x, y in itertools.combinations(names, 2):
            br = bracket(fields[x], fields[y])
            pair_brackets[(x, y)] = br
            assert fields_equal(br, field_combination(
                (-1, bracket(fields[y], fields[x]))))

        def lie(x, y):
            if (x, y) in pair_brackets:
                return pair_brackets[(x, y)]
            return field_combination((-1, pair_brackets[(y, x)]))

        for x, y, z in itertools.combinations(names, 3):
            total = field_combination(
                (1, bracket(fields[x], lie(y, z))),
                (1, bracket(fields[y], lie(z, x))),
                (1, bracket(fields[z], lie(x, y))),
            )
            assert field_is_zero(total)

        base = {n: g.field_named(n) for n in ("Y1", "Y3", "Y^1", "Y^2")}
        for (na, fa), (nb, fb) in itertools.combinations(base.items(), 2):
            assert fields_equal(prolong(bracket(fa, fb), 2),
                                bracket(prolong(fa, 2), prolong(fb, 2)))

        y3 = fields["Y3"]
        space = JetSpace(1)
        f_expr = parse("sigma*f_u + u^2", space)
        g_expr = parse("f - sigma", space)
        assert equals(apply(y3, mul(f_expr, g_expr)),
                      apply(y3, f_expr) * g_expr + apply(y3, g_expr) * f_expr)
        space2 = JetSpace(2)
        du = space2.total_derivative
        assert equals(du(mul(f_expr, g_expr), "u"),
                      du(f_expr, "u") * g_expr + du(g_expr, "u") * f_expr)

        fixtures = ["sigma^2", "sigma^3", "3*sigma^2", "sigma^2 + 1",
                    "u + sigma", "u^2 + sigma", "u*sigma^2", "sigma^2 + u^2",
                    "u + sigma^3", "exp(u) + sigma^2", "1/u + sigma^2",
                    "u^3 - sigma^2"]
        checked = 0
        for text in fixtures:
            instance = EquationInstance.from_text(text)
            sig = signature_of(instance)
            assert not sig.degenerate
            first, second = pde_residual(
                instance, parse(str(sig.rho1), JetSpace(0)),
                parse(str(sig.rho2), JetSpace(0)))
            assert equals(first, Const(Fraction(0)))
            assert equals(second, Const(Fraction(0)))
            checked += 1
        assert checked >= 10
