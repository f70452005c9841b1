"""Find the differential invariants of the equivalence algebra from scratch.

The recipe: prolong the generators to the jet chart of f, take the exact
generic rank of their coefficient matrix (by one elimination over rational
functions), count invariants as variables minus rank, and then assemble
absolute invariants from relative building blocks by solving for
weight-cancelling exponents.

Run:  python demos/invariant_search.py
"""

from wavesym import (
    JetSpace,
    build_generators,
    is_absolute,
    minimal_generating_set,
    parse,
    prolonged_rank,
    rank_on_manifold,
    relative_weight,
    to_string,
)
from wavesym.invariants import (
    NAMED_EXPRESSIONS,
    WeightedBlock,
    candidate_from_exponents,
    functional_independence,
    weight_kernel_search,
)


def main():
    g = build_generators("derived", 6)

    print("generic ranks of the prolonged generators:")
    for order in (0, 1, 2):
        report = prolonged_rank(g, order)
        print(f"  order {order}: rank {report.rank} of "
              f"{report.variable_count} variables -> "
              f"{report.invariant_count} absolute invariants")

    r = NAMED_EXPRESSIONS["R"]
    print(f"\nno first-order absolute invariants, but R = {to_string(r)} "
          "is relative:")
    gens = g.prolonged_named(1)
    for name in ("Y3", "Y^1", "Y^2", "Y^3"):
        weight = relative_weight(r, gens[name])
        print(f"  {name}(R) = ({weight}) * R")

    manifold = rank_on_manifold(g, r, 1)
    print(f"on the special manifold R = 0 the rank drops to {manifold.rank}")

    subset = minimal_generating_set(g, 2)
    print(f"\na greedy minimal generating set at order 2 "
          f"({len(subset)} generators): {', '.join(subset)}")

    print("\nsearching for absolute invariants among weighted blocks:")
    chart = JetSpace(2)
    gens2 = g.prolonged_named(2)
    blocks = [WeightedBlock.measure(parse(text, chart), gens2)
              for text in ("sigma", "sigma*f_sigma - f",
                           "sigma^2*f_sigmasigma")]
    for block in blocks:
        shown = {n: str(w) for n, w in block.weights.items()
                 if n in ("Y3", "Y^1", "Y^2")}
        print(f"  block {to_string(block.expr)}: weights {shown}")
    kernel = weight_kernel_search(blocks, gens2)
    for vector in kernel:
        candidate = candidate_from_exponents(blocks, vector)
        verdict = is_absolute(candidate, g, 2).overall
        print(f"  exponents {vector} -> {candidate} [{verdict}]")

    r1c = NAMED_EXPRESSIONS["R1_corrected"]
    r2 = NAMED_EXPRESSIONS["R2"]
    print("\nthe two second-order absolute invariants:")
    for name, expr in (("first", r1c), ("second", r2)):
        print(f"  {name}: {to_string(expr)} "
              f"[{is_absolute(expr, g, 2).overall}]")
    print(f"functionally independent: "
          f"{functional_independence([r1c, r2], chart)}")
    print("two independent absolute invariants at order 2 = the counting "
          "bound 10 - 8, so they form a functional basis")


if __name__ == "__main__":
    main()
