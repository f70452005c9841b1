"""Exact-arithmetic workbench for the equivalence algebra, differential
invariants, and invariant-signature equivalence of the nonlinear wave class
u_tt - u_xx = f(u, sigma), sigma = u_t^2 - u_x^2."""

from .canonical import CanonicalForm, canonicalize, equals
from .eqalgebra import (
    GeneratorSet,
    RankReport,
    Source,
    build_generators,
    closure_max_k,
    commutator_table,
    min_truncation,
    minimal_generating_set,
    prolonged_rank,
    rank_on_manifold,
    verify_commutator_table,
)
from .equivalence import (
    EquationInstance,
    FiniteTransformation,
    Signature,
    Verdict,
    apply_finite_transformation,
    check_equivalence,
    classify_corpus,
    pde_residual,
    search_orbit_match,
    signature_of,
)
from .expr import (
    AtomApp,
    Const,
    Coord,
    Expr,
    Rational,
    parse,
    to_string,
)
from .invariants import (
    InvariantReport,
    NAMED_EXPRESSIONS,
    WeightedBlock,
    functional_independence,
    is_absolute,
    relative_weight,
    verify_paper_invariants,
    weight_kernel_search,
)
from .jetspace import JetSpace
from .vfields import (
    PointAction,
    VectorField,
    apply,
    bracket,
    induce_from_point_action,
    prolong,
)

__version__ = "0.1.0"
