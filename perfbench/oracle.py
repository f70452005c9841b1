"""Independent recomputation with sympy, run outside the timed section.

sympy is required: without it the benchmark stops instead of skipping the
checks.
"""

from __future__ import annotations

import sympy

_U, _SIGMA = sympy.symbols("u sigma")
_NAMES = {"u": _U, "sigma": _SIGMA}


def _expr(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=_NAMES)


def same(a: str, b: str) -> bool:
    """Whether two expressions in the wavesym grammar are equal as rational
    functions."""
    return sympy.cancel(_expr(a) - _expr(b)) == 0


def signature(line: str):
    """(rho1, rho2) of f(u, sigma) from the second-order pair
    rho1 = sigma^2 f_ss / R and
    rho2 = (-2 sigma^2 f f_ss + sigma (f_u - sigma f_us) + f R) / R^2 with
    R = sigma f_s - f; None on the special manifold R = 0."""
    f = _expr(line)
    u, s = _U, _SIGMA
    r = sympy.cancel(s * sympy.diff(f, s) - f)
    if r == 0:
        return None
    f_ss = sympy.diff(f, s, 2)
    rho1 = sympy.cancel(s ** 2 * f_ss / r)
    rho2 = sympy.cancel((-2 * s ** 2 * f * f_ss
                         + s * (sympy.diff(f, u) - s * sympy.diff(f, u, s))
                         + f * r) / r ** 2)
    return rho1, rho2


def check_record(line: str, record: dict) -> str | None:
    """Compare one classify record with the recomputed signature."""
    sig = signature(line)
    if sig is None:
        return None if record["degenerate"] else "sympy finds R = 0, record is not degenerate"
    if record["degenerate"]:
        return "record is degenerate, sympy finds R != 0"
    for name, value in zip(("rho1", "rho2"), sig):
        if sympy.cancel(_expr(record[name]) - value) != 0:
            return f"{name} = {record[name]} differs from sympy's {value}"
    return None
