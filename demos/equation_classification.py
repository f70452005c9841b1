"""Decide equivalence of concrete equations by invariant signatures.

Evaluating the second-order absolute invariants on a particular parameter
function f(u, sigma) produces a pair of rational functions (rho1, rho2) of
(u, sigma) -- the equation's signature.  Equations related by an equivalence
transformation of the class share signatures, so signatures split a corpus
into candidate equivalence classes.

Run:  python demos/equation_classification.py
"""

from fractions import Fraction

from wavesym import (
    EquationInstance,
    FiniteTransformation,
    apply_finite_transformation,
    check_equivalence,
    classify_corpus,
    parse,
    pde_residual,
    search_orbit_match,
    signature_of,
)


def main():
    for text in ("sigma^2", "sigma^3", "u + sigma", "sigma"):
        eq = EquationInstance.from_text(text)
        sig = signature_of(eq)
        if sig.degenerate:
            print(f"f = {text}: on the special manifold (no signature)")
        else:
            print(f"f = {text}: rho1 = {sig.rho1}, rho2 = {sig.rho2}")

    print("\npairwise verdicts:")
    square = EquationInstance.from_text("sigma^2")
    for other in ("3*sigma^2", "sigma^3", "sigma"):
        result = check_equivalence(square, EquationInstance.from_text(other))
        print(f"  sigma^2 vs {other}: {result.verdict.value}")

    print("\npush-forward round trip (the finite-transformation oracle):")
    stretch = FiniteTransformation(parse("2*u + 1", ["u"]),
                                   parse("(u - 1)/2", ["u"]),
                                   Fraction(9, 4))
    moved = apply_finite_transformation(square, stretch)
    print(f"  sigma^2 pushed through u -> 2u+1, sigma scale 9/4: "
          f"f = {moved.f}")
    print(f"  verdict against the original: "
          f"{check_equivalence(square, moved).verdict.value}")

    print("\nnon-constant signatures move with (u, sigma); the literal "
          "criterion then reports not-equivalent:")
    bumpy = EquationInstance.from_text("u*sigma^2")
    shifted = apply_finite_transformation(
        bumpy, FiniteTransformation(parse("u + 1", ["u"]),
                                    parse("u - 1", ["u"]), 1))
    checked = check_equivalence(bumpy, shifted)
    print(f"  u*sigma^2 vs its shift: {checked.verdict.value}")
    found = search_orbit_match(bumpy, checked)
    print(f"  heuristic orbit search recovers: {found}")

    print("\nresidual certificate: an equation belongs to the class labeled "
          "(rho1, rho2) iff both residuals vanish")
    sig = signature_of(square)
    first, second = pde_residual(square, sig.rho1, sig.rho2)
    print(f"  residuals for sigma^2 at its own signature: "
          f"({first}, {second})")

    print("\nclassifying a small corpus:")
    corpus = ["sigma^2", "3*sigma^2", "sigma^3", "u + sigma", "sigma"]
    for record in classify_corpus(corpus):
        print(f"  {record['input']:>10}: class {record['class_id']}")


if __name__ == "__main__":
    main()
