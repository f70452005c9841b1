"""Invariant signatures of concrete wave-class equations and the
signature-based equivalence criterion.

For an equation u_tt - u_xx = f(u, sigma), held as the canonical form of f
(see :mod:`wavesym.canonical`) and read from text straight to that form by
:func:`wavesym.canonical.parse_form`, with no tree, the verified
second-order basis is evaluated on the numerator and denominator of f by
the quotient rule, producing a pair (rho1, rho2) of exact rational
functions of (u, sigma), each reduced once.
Equations with sigma*f_sigma - f identically zero sit on the special
manifold and carry no signature.

The criterion compares signatures at identical (u, sigma) arguments; that is
the published statement, sound as-is for constant signatures.  An orbit-aware
grid search over affine u-reparameterizations and rational dilations is
offered separately and clearly labeled heuristic.  Since rho1 and rho2 are
absolute invariants, the signature of a pushed-forward equation is the
original signature composed with the inverse map: the search tests each grid
map on that composition, after an exact evaluation at one rational point has
failed to tell the two apart, and pushes f forward only to confirm a hit.

A finite-transformation oracle provides the exact push-forward of f under
u' = phi(u) composed with a t, x dilation, for end-to-end validation, by
substituting forms into f; an affine phi makes that substitution, and the
search's inverse maps, take no gcd.  Equation text builds no expression
tree; a tree passed to a constructor is canonicalized there, and no tree is
built to print.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from fractions import Fraction

from .canonical import (CanonicalForm, EvaluationPlan, Poly, _normalized,
                        _partial, _scale, canonicalize, coordinate,
                        parse_form)
from .expr import ExprError, ExprLike, ZeroDenominatorError
from .value import Value, set_field


class NonInvertibleError(Exception):
    """The supplied reparameterization has no usable inverse."""


class DegenerateEquationError(Exception):
    """The operation requires sigma*f_sigma - f != 0."""


_EQUATION_COORDS = ("u", "sigma")
_U = coordinate("u")
_SIGMA = coordinate("sigma")
_SIGMA_POLY = Poly.var("sigma")


class EquationInstance(Value):
    """One member of the class, given by its parameter function f(u, sigma)
    as an expression, a number or a form; it is stored as a form.  Text is
    read by :meth:`from_text` straight to the form."""

    _fields = ("f",)

    def __init__(self, f: CanonicalForm | ExprLike):
        set_field(self, "f", canonicalize(f))
        extra = self.f.free_coordinates() - set(_EQUATION_COORDS)
        if extra:
            raise ValueError(
                f"the parameter function may only use (u, sigma); found "
                f"{sorted(extra)}")

    @classmethod
    def from_text(cls, text: str) -> "EquationInstance":
        return cls(parse_form(text, _EQUATION_COORDS))

    def __str__(self):
        return str(self.f)


class Signature(Value):
    """Canonical pair (rho1, rho2) in (u, sigma); absent when degenerate."""

    _fields = ("degenerate", "rho1", "rho2")

    def __init__(self, degenerate: bool, rho1: CanonicalForm | None = None,
                 rho2: CanonicalForm | None = None):
        set_field(self, "degenerate", degenerate)
        set_field(self, "rho1", rho1)
        set_field(self, "rho2", rho2)

    def matches(self, other: "Signature") -> bool:
        if self.degenerate or other.degenerate:
            return False
        return self.rho1 == other.rho1 and self.rho2 == other.rho2

    def as_dict(self) -> dict:
        if self.degenerate:
            return {"degenerate": True, "rho1": None, "rho2": None}
        return {"degenerate": False, "rho1": str(self.rho1),
                "rho2": str(self.rho2)}


def signature_of(eq: EquationInstance) -> Signature:
    """Evaluate the verified second-order basis on f and its partials: with
    R = sigma*f_sigma - f, rho1 = sigma^2*f_sigmasigma/R and
    rho2 = (f*(R - 2*sigma^2*f_sigmasigma) + sigma*(f_u - sigma*f_usigma))/R^2.

    With f = N/D, the quotient rule gives every partial over a power of D:
    f_sigma = A/D^2, f_sigmasigma = A2/D^3, f_u = B/D^2, f_usigma = B2/D^3
    and R = Rn/D^2 with Rn = sigma*A - N*D, all integer polynomials.  So
    rho1 = sigma^2*A2/(D*Rn) and
    rho2 = (N*(Rn*D - 2*sigma^2*A2) + sigma*D*(B*D - sigma*B2))/Rn^2, each
    reduced once; the signature is degenerate exactly when Rn = 0, and then
    nothing is reduced.  Partials keep the chain rule through exp atoms.
    """
    n, d = eq.f.numerator, eq.f.denominator
    d_s = _partial(d, "sigma")
    a = _partial(n, "sigma") * d - n * d_s
    rn = _SIGMA_POLY * a - n * d
    if rn.is_zero():
        return Signature(degenerate=True)
    b = _partial(n, "u") * d - n * _partial(d, "u")
    sigma2_a2 = _SIGMA_POLY * _SIGMA_POLY * (_partial(a, "sigma") * d
                                             - _scale(a * d_s, 2))
    b2 = _partial(b, "sigma") * d - _scale(b * d_s, 2)
    rho1 = _normalized(sigma2_a2, d * rn)
    rho2 = _normalized(n * (rn * d - _scale(sigma2_a2, 2))
                       + _SIGMA_POLY * d * (b * d - _SIGMA_POLY * b2), rn * rn)
    return Signature(False, rho1, rho2)


class Verdict(str, enum.Enum):
    EQUIVALENT = "equivalent-per-criterion"
    NOT_EQUIVALENT = "not-equivalent"
    BOTH_DEGENERATE = "both-degenerate"
    MIXED_DEGENERATE = "mixed-degenerate"


class EquivalenceResult(Value):
    _fields = ("verdict", "signature_a", "signature_b")

    def __init__(self, verdict: Verdict, signature_a: Signature,
                 signature_b: Signature):
        set_field(self, "verdict", verdict)
        set_field(self, "signature_a", signature_a)
        set_field(self, "signature_b", signature_b)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "a": self.signature_a.as_dict(),
            "b": self.signature_b.as_dict(),
        }


def check_equivalence(a: EquationInstance, b: EquationInstance) -> EquivalenceResult:
    """The literal criterion: equal signatures at identical (u, sigma).

    Degenerate equations fall outside the criterion and get their own
    verdicts instead of an equivalence claim.
    """
    sig_a = signature_of(a)
    sig_b = signature_of(b)
    if sig_a.degenerate and sig_b.degenerate:
        verdict = Verdict.BOTH_DEGENERATE
    elif sig_a.degenerate or sig_b.degenerate:
        verdict = Verdict.MIXED_DEGENERATE
    elif sig_a.matches(sig_b):
        verdict = Verdict.EQUIVALENT
    else:
        verdict = Verdict.NOT_EQUIVALENT
    return EquivalenceResult(verdict, sig_a, sig_b)


class FiniteTransformation(Value):
    """u' = phi(u) composed with the t, x dilation scaling sigma by
    ``dilation``; phi and its inverse are stored as forms.  The inverse
    must be supplied; it is verified, not computed."""

    _fields = ("phi", "phi_inverse", "dilation")

    def __init__(self, phi: CanonicalForm | ExprLike,
                 phi_inverse: CanonicalForm | ExprLike,
                 dilation: Fraction | int = 1):
        set_field(self, "phi", canonicalize(phi))
        set_field(self, "phi_inverse", canonicalize(phi_inverse))
        set_field(self, "dilation", Fraction(dilation))
        for label, form in (("phi", self.phi), ("phi_inverse", self.phi_inverse)):
            if form.free_coordinates() - {"u"}:
                raise ValueError(f"{label} must be an expression in u alone")
        if self.dilation <= 0:
            raise ValueError("the dilation factor must be positive")
        if self.phi.diff("u").is_zero():
            raise NonInvertibleError("phi has identically zero derivative")
        if self.phi.substitute({"u": self.phi_inverse}) != _U:
            raise NonInvertibleError(
                "phi(phi_inverse(u)) does not simplify to u")

    def __str__(self):
        return f"u -> {self.phi}, sigma scale {self.dilation}"


def apply_finite_transformation(eq: EquationInstance,
                                t: FiniteTransformation) -> EquationInstance:
    """Exact push-forward of the parameter function.

    With w = phi_inverse(u) and c the sigma scale, the new parameter function
    is c * (phi'(w) * f(w, sigma/(c*phi'(w)^2)) + phi''(w) * sigma/(c*phi'(w)^2)).
    Atom-bearing f can only be pushed forward when the substitution keeps
    atom arguments plain coordinates (e.g. identity phi with a dilation).
    """
    at_w = {"u": t.phi_inverse}
    phi_prime = t.phi.diff("u")
    pp_w = phi_prime.substitute(at_w)
    ps_w = phi_prime.diff("u").substitute(at_w)
    sigma_scaled = _SIGMA / (pp_w * pp_w * t.dilation)
    f_moved = eq.f.substitute({**at_w, "sigma": sigma_scaled})
    return EquationInstance((pp_w * f_moved + ps_w * sigma_scaled) * t.dilation)


def pde_residual(eq: EquationInstance, rho1: CanonicalForm | ExprLike,
                 rho2: CanonicalForm | ExprLike) -> tuple[CanonicalForm, CanonicalForm]:
    """Residuals of the signature system at (rho1, rho2); (0, 0) certifies
    membership in that equivalence class."""
    sig = signature_of(eq)
    if sig.degenerate:
        raise DegenerateEquationError(
            "the equation lies on the special manifold sigma*f_sigma - f = 0")
    return sig.rho1 - rho1, sig.rho2 - rho2


# ---------------------------------------------------------------------------
# heuristic orbit search (labeled: not part of the literal criterion)

_ORBIT_SCALES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3,
                 Fraction(1, 3), Fraction(-1, 3))
_ORBIT_SHIFTS = (0, 1, -1, 2, -2)
_ORBIT_DILATIONS = (1, 2, 3, 4, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                    9, Fraction(1, 9))


def affine_transformation(a, b, c) -> FiniteTransformation:
    """u' = a*u + b with sigma scale c; the inverse is supplied exactly."""
    a = Fraction(a)
    if a == 0:
        raise NonInvertibleError("affine scale must be nonzero")
    b = Fraction(b)
    return FiniteTransformation(_U * a + b, (_U - b) / a, Fraction(c))


# The probe point P of the orbit search: no grid map sends it to u = 0,
# sigma = 0 or a rational of small height, where signatures have their poles
_PROBE = {"u": Fraction(7, 11), "sigma": Fraction(5, 13)}


def _value_at(plan: EvaluationPlan, point: dict[str, Fraction]
              ) -> tuple[int, int] | None:
    """Numerator and denominator of the plan's one form at ``point``, or
    None at a pole."""
    try:
        nums, dens = plan.at(point)
    except ZeroDenominatorError:
        return None
    return nums[0], dens[0]


def _probed(rho_a: CanonicalForm, rho_b: CanonicalForm) -> bool:
    """Whether a signature component gets a probe: both forms are
    non-constant rational functions of (u, sigma), with no atom such as
    exp(sigma), which has no value at a rational point."""
    names = [rho.numerator.variables() | rho.denominator.variables()
             for rho in (rho_a, rho_b)]
    return all(names) and all(n <= set(_EQUATION_COORDS) for n in names)


class _Probe:
    """One component of the signatures that ``_probed`` accepts: rho of
    ``a`` compiled for evaluation, and rho of ``b`` at P."""

    def __init__(self, rho_a: CanonicalForm, rho_b: CanonicalForm):
        self._plan = EvaluationPlan((rho_a,))
        self._at_b = _value_at(EvaluationPlan((rho_b,)), _PROBE)

    def rejects(self, point: dict[str, Fraction]) -> bool:
        """Whether rho_a at ``point`` = T^-1(P) proves rho_a(T^-1) != rho_b:
        both values are defined and differ."""
        if self._at_b is None:
            return False
        at_a = _value_at(self._plan, point)
        if at_a is None:
            return False
        (n_a, d_a), (n_b, d_b) = at_a, self._at_b
        return n_a * d_b != n_b * d_a


def search_orbit_match(a: EquationInstance, checked: EquivalenceResult
                       ) -> FiniteTransformation | None:
    """Heuristic: scan the affine reparameterizations and rational dilations
    of the grid above, in its order, for a transformation whose push-forward
    of ``a`` matches the signature of ``b`` literally, where ``checked`` is
    ``check_equivalence(a, b)`` and carries both signatures.  Finding none
    proves nothing.

    rho1 and rho2 are absolute invariants, so the push-forward by T has the
    signature (rho1, rho2) of ``a`` composed with T^-1 = {u: (u - b)/a,
    sigma: sigma/(c*a^2)}.  T^-1 keeps a constant form constant and a
    non-constant one non-constant, so a component that is constant on
    either side and differs ends the search before the scan.  Each grid
    map is probed first: each non-constant rho of ``a``, rho1 first, is
    evaluated exactly at T^-1(P), P a fixed rational point, and where it
    and rho of ``b`` at P are both defined and differ, the map is passed
    over.  A map the probe cannot reject (equal values, a pole on either
    side, or an atom such as exp(sigma)) is tested by that substitution,
    rho1 first, without pushing f forward.  A map that passes is confirmed
    by one exact push-forward and signature comparison, so a returned
    transformation is proven; an unconfirmed one is passed over.  The
    probe and the constant rule skip only maps the substitution rejects,
    so the result is that of the substitution scan alone.  A degenerate
    ``a`` stays degenerate under every push-forward and matches nothing.
    A map whose substitution breaks the atom rule is skipped, as its
    push-forward would fail too."""
    sig_a, sig_b = checked.signature_a, checked.signature_b
    if sig_a.degenerate or sig_b.degenerate:
        return None
    pairs = ((sig_a.rho1, sig_b.rho1), (sig_a.rho2, sig_b.rho2))
    if any(rho_a != rho_b and not (rho_a.free_coordinates()
                                   and rho_b.free_coordinates())
           for rho_a, rho_b in pairs):
        return None
    probes = [_Probe(*pair) for pair in pairs if _probed(*pair)]

    # each inverse form is built once, for the first map that passes the
    # probe and needs it
    @functools.cache
    def u_form(av, bv):
        return (_U - bv) / av

    @functools.cache
    def sigma_form(av, cv):
        return _SIGMA / (Fraction(av) ** 2 * cv)

    for av in _ORBIT_SCALES:
        sigma_at = [_PROBE["sigma"] / (cv * av * av) for cv in _ORBIT_DILATIONS]
        for bv in _ORBIT_SHIFTS:
            u_at = (_PROBE["u"] - bv) / av
            for i, cv in enumerate(_ORBIT_DILATIONS):
                point = {"u": u_at, "sigma": sigma_at[i]}
                if any(probe.rejects(point) for probe in probes):
                    continue
                inverse = {"u": u_form(av, bv), "sigma": sigma_form(av, cv)}
                try:
                    if (sig_a.rho1.substitute(inverse) != sig_b.rho1
                            or sig_a.rho2.substitute(inverse) != sig_b.rho2):
                        continue
                    t = affine_transformation(av, bv, cv)
                    moved = apply_finite_transformation(a, t)
                except (ExprError, ValueError):
                    continue
                if signature_of(moved).matches(sig_b):
                    return t
    return None


# ---------------------------------------------------------------------------
# corpus classification


def _class_id(fields: dict) -> str:
    """The class id of a signature from its printed fields."""
    if fields["degenerate"]:
        return "degenerate"
    digest = hashlib.sha256(f"{fields['rho1']}|{fields['rho2']}".encode())
    return digest.hexdigest()[:12]


def classify_corpus(lines: list[str]) -> list[dict]:
    """One record per corpus expression: signature fields plus a stable
    class id (hash of the canonical signature strings).  An expression
    error is re-raised with its 1-based line number in the message."""
    records = []
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            fields = signature_of(EquationInstance.from_text(text)).as_dict()
            records.append({"input": text, **fields,
                            "class_id": _class_id(fields)})
        except ExprError as exc:
            exc.args = (f"line {number}: {exc}",)
            raise
    return records
