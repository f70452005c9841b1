"""Walk through the structure of the equivalence algebra.

The wave class u_tt - u_xx = f(u, sigma) with sigma = u_t^2 - u_x^2 admits
equivalence transformations generated by translations, a t/x rotation, a
dilation, and a u-reparameterization family.  Replacing the arbitrary
reparameterization function by monomials u^k discretizes the family into
countably many generators Y^k; this script builds them, prints the bracket
relations, and finds the largest truncation that stays bracket-closed.

Run:  python demos/algebra_structure.py
"""

from fractions import Fraction

from wavesym import build_generators, closure_max_k, commutator_table
from wavesym.eqalgebra import verify_commutator_table


def pretty(decomposition: dict[str, Fraction]) -> str:
    if decomposition is None:
        return "outside the span"
    if not decomposition:
        return "0"
    parts = []
    for name, c in decomposition.items():
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    return " + ".join(parts)


def main():
    print("building the derived generators Y0..Y3, Y^0..Y^6 ...")
    derived = build_generators("derived", 6)
    for name in ("Y0", "Y3", "Y^2"):
        print(f"  {name}: {derived.field_named(name)}")

    print("\nselected bracket relations (exact rational decompositions):")
    table = commutator_table(derived)
    for pair in (("Y0", "Y1"), ("Y1", "Y3"), ("Y^0", "Y^2"), ("Y^1", "Y^2"),
                 ("Y^2", "Y^3"), ("Y3", "Y^4")):
        print(f"  [{pair[0]}, {pair[1]}] = {pretty(table[pair])}")

    check = verify_commutator_table(derived)
    print(f"\nall {check['relations_checked']} published relations reproduce "
          f"exactly: {check['all_exact']}")

    k = closure_max_k(derived)
    print(f"largest k with span{{Y0..Y3, Y^0..Y^k}} bracket-closed: {k}")
    print("  ([Y^2, Y^3] = 2*Y^4 already leaves the k = 3 span)")

    print("\nthe same checks against the printed coefficient variant:")
    printed = build_generators("paper", 6)
    pcheck = verify_commutator_table(printed)
    print(f"  relations exact: {pcheck['all_exact']}")
    print(f"  first failures: {pcheck['failing'][:3]} ...")
    print(f"  closure drops to: {closure_max_k(printed)}")
    print("  (the printed f-coefficient 2*(phi'*f + phi''*sigma) is "
          "inconsistent with the printed first-order coefficients; the "
          "derived variant phi'*f + phi''*sigma restores every relation)")


if __name__ == "__main__":
    main()
