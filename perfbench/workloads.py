"""Seeded operation lists and their known answers.

Every workload turns a seed into a fixed list of operations.  An operation
is a wavesym CLI command (argv for ``wavesym.cli.main`` with ``--output
json``) or, where no command exists, the public library call that the
nearest command makes.  Each operation carries a check that compares its
output with an answer known from theory, never with an answer computed by
the program under test; ``cross_check`` adds the checks that relate several
operations of one list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Outcome of one operation as the worker reports it: exit code (None for a
# library call) and captured stdout.
Check = Callable[[int | None, str], "str | None"]


@dataclass
class Op:
    spec: dict            # what the worker executes
    label: str            # the input, as printed for a failing operation
    check: Check          # known-answer check on (exit code, stdout)
    tags: dict = field(default_factory=dict)


Outputs = list["str | None"]  # stdout per operation, None where it failed


@dataclass
class Plan:
    name: str
    ops: list[Op]
    # known-answer checks spanning several operations: index -> reason
    cross_check: Callable[[list[Op], Outputs], dict[int, str]] = (
        lambda ops, outs: {})
    # sympy recomputation after the timed section: (index -> reason, count)
    recompute: Callable[[list[Op], Outputs, int], tuple[dict[int, str], int]] = (
        lambda ops, outs, seed: ({}, 0))


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": ["--output", "json", *map(str, argv)]}


def _expect(pairs) -> str | None:
    """First (label, got, want) triple that disagrees, as a reason."""
    for label, got, want in pairs:
        if got != want:
            return f"{label} = {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# algebra-sweep: verify-algebra over K on both coefficient sources

SWEEP_DERIVED_K = (4, 5, 6, 7)
SWEEP_PAPER_K = (4, 5)


def relation_keys(K: int) -> list[str]:
    """The published relations up to truncation K: the six Y0..Y3 pairs,
    each static generator against each Y^k, and [Y^n, Y^m] for n < m while
    m + n - 1 <= K.  Their count is 6 + 4(K+1) + #{n<m : m+n-1 <= K}."""
    static = ("Y0", "Y1", "Y2", "Y3")
    keys = [f"[{a},{b}]" for i, a in enumerate(static) for b in static[i + 1:]]
    keys += [f"[{s},Y^{k}]" for k in range(K + 1) for s in static]
    keys += [f"[Y^{n},Y^{m}]" for n in range(K + 1) for m in range(n + 1, K + 1)
             if m + n - 1 <= K]
    return keys


def _check_verify_algebra(K: int, paper: bool) -> Check:
    keys = set(relation_keys(K))

    def check(code, out):
        r = json.loads(out)
        reason = _expect([
            ("exit code", code, 0),
            ("K", r["K"], K),
            ("relations_checked", r["relations_checked"], len(keys)),
            ("all_relations_exact", r["all_relations_exact"], True),
            ("failing_relations", r["failing_relations"], []),
            ("max_closing_k", r["max_closing_k"], 2),
            ("has printed report", "printed" in r, paper),
        ])
        if reason or not paper:
            return reason
        printed = r["printed"]
        failing = printed["failing_relations"]
        unknown = [k for k in failing if k not in keys]
        return _expect([
            ("printed.max_closing_k", printed["max_closing_k"], 1),
            ("printed.all_relations_exact", printed["all_relations_exact"], False),
            ("printed failing list is non-empty", bool(failing), True),
            ("printed failing keys outside the relation table", unknown, []),
        ])

    return check


def algebra_sweep(seed: int) -> Plan:
    # verify-algebra draws no random points, so the seed only reaches the
    # CLI's --seed flag; the cost of the list is the same for every seed.
    ops = []
    for source, ks in (("derived", SWEEP_DERIVED_K), ("paper", SWEEP_PAPER_K)):
        for K in ks:
            ops.append(Op(
                _cli("--K", K, "--seed", seed, "--source", source, "verify-algebra"),
                f"--source {source} --K {K} verify-algebra",
                _check_verify_algebra(K, source == "paper"),
                {"K": K, "source": source}))
    return Plan("algebra-sweep", ops)


# ---------------------------------------------------------------------------
# rank-invariants: sampled ranks and invariant verdicts

RANK_K = (5, 6, 7, 8)            # order 3 reaches rank 9 from K = 5 on
RANK_SAMPLE_SEEDS = 15
INVARIANT_K = (4, 5, 6, 7)
# order -> (generic rank, chart variables)
GENERIC_RANK = {1: (7, 7), 2: (8, 10), 3: (9, 14)}
MANIFOLD_RANK = (6, 7)           # order 1 on sigma*f_sigma - f = 0
SEARCH_BLOCKS = ("sigma", "R", "sigma^2*f_sigmasigma")


def _check_rank(order: int, K: int, sample_seed: int, rank_vars,
                cli: bool = True) -> Check:
    rank, nvars = rank_vars

    def check(code, out):
        r = json.loads(out)
        return _expect([
            ("exit code", code, 0 if cli else None),
            ("order", r["order"], order),
            ("seed", r["seed"], sample_seed),
            ("rank", r["rank"], rank),
            ("variable_count", r["variable_count"], nvars),
            ("invariant_count", r["invariant_count"], nvars - rank),
        ] + ([("K", r["K"], K)] if "K" in r else []))

    return check


def invariant_weights(name: str, K: int) -> dict[str, str | None]:
    """Known weights per generator: None for an absolute verdict, else the
    weight lambda with X(F) = lambda*F, in the grammar.

    sigma*f_sigma - f carries weight -2 under Y3 and k*u^(k-1) under Y^k;
    sigma carries -2 and 2k*u^(k-1); the printed first component
    sigma*f_sigmasigma/R therefore carries 2 and -2k*u^(k-1), the corrected
    component sigma^2*f_sigmasigma/R and R2 none.
    """
    out: dict[str, str | None] = {g: None for g in ("Y0", "Y1", "Y2", "Y3")}
    y3, family = {"R": (-2, 1), "R1_printed": (2, -2)}.get(name, (None, None))
    for k in range(K + 1):
        out[f"Y^{k}"] = (None if family is None or k == 0
                         else f"{family * k}*u^{k - 1}")
    if y3 is not None:
        out["Y3"] = str(y3)
    return out


INVARIANT_OVERALL = {"R": "relative", "R1_printed": "relative",
                     "R1_corrected": "absolute", "R2": "absolute"}


def _check_invariant(name: str, K: int) -> Check:
    weights = invariant_weights(name, K)

    def check(code, out):
        report = json.loads(out)["report"]
        reason = _expect([
            ("exit code", code, 0),
            ("overall", report["overall"], INVARIANT_OVERALL[name]),
            ("generators", sorted(report["verdicts"]), sorted(weights)),
        ])
        if reason:
            return reason
        for gen, want in weights.items():
            verdict = report["verdicts"][gen]
            kind = "absolute" if want is None else "relative"
            if verdict["kind"] != kind:
                return f"{gen} verdict {verdict['kind']!r}, expected {kind!r}"
        return None

    return check


def _recompute_weights(ops: list[Op], outs: Outputs, seed: int):
    """sympy proves each printed weight of invariants verify equal to its
    known value."""
    import oracle
    bad, checked = {}, 0
    for i, op in enumerate(ops):
        if "invariant" not in op.tags or outs[i] is None:
            continue
        report = json.loads(outs[i])["report"]
        for gen, want in invariant_weights(op.tags["invariant"], op.tags["K"]).items():
            if want is None:
                continue
            got = report["verdicts"][gen]["weight"]
            checked += 1
            if not oracle.same(got, want):
                bad[i] = f"sympy: weight under {gen} is {got}, expected {want}"
                break
    return bad, checked


def search_kernel(blocks: tuple[str, ...]) -> list[list[int]]:
    """sigma and R share the Y3 weight -2 but carry 2k*u^(k-1) against
    k*u^(k-1) under Y^k, and sigma^2*f_sigmasigma weighs exactly as R, so
    the kernel is spanned by R/(sigma^2*f_sigmasigma), scaled so that its
    first nonzero exponent is positive."""
    vec = [0] * len(blocks)
    vec[blocks.index("R")] = 1
    vec[blocks.index("sigma^2*f_sigmasigma")] = -1
    if next(v for v in vec if v) < 0:
        vec = [-v for v in vec]
    return [vec]


def _check_search(blocks: tuple[str, ...]) -> Check:
    def check(code, out):
        r = json.loads(out)
        return _expect([
            ("exit code", code, 0),
            ("blocks", r["blocks"], list(blocks)),
            ("kernel", r["kernel"], search_kernel(blocks)),
            ("candidate count", len(r["candidates"]), 1),
        ])

    return check


def rank_invariants(seed: int) -> Plan:
    rng = random.Random(seed)
    ops = []
    for K in RANK_K:
        for _ in range(RANK_SAMPLE_SEEDS):
            s = rng.randrange(1, 10 ** 6)
            for order in (1, 2):
                ops.append(Op(
                    _cli("--K", K, "--seed", s, "rank", "--order", order),
                    f"--K {K} --seed {s} rank --order {order}",
                    _check_rank(order, K, s, GENERIC_RANK[order])))
            ops.append(Op(
                {"kind": "prolonged_rank", "K": K, "order": 3, "seed": s},
                f"prolonged_rank(build_generators('derived', {K}), 3, seed={s})",
                _check_rank(3, K, s, GENERIC_RANK[3], cli=False)))
            ops.append(Op(
                {"kind": "rank_on_manifold", "K": K, "order": 1, "seed": s},
                f"rank_on_manifold(build_generators('derived', {K}), R, 1, seed={s})",
                _check_rank(1, K, s, MANIFOLD_RANK, cli=False)))
    for K in INVARIANT_K:
        for name in INVARIANT_OVERALL:
            ops.append(Op(
                _cli("--K", K, "invariants", "verify", "--expr", name),
                f"--K {K} invariants verify --expr {name}",
                _check_invariant(name, K), {"invariant": name, "K": K}))
        blocks = list(SEARCH_BLOCKS)
        rng.shuffle(blocks)
        blocks = tuple(blocks)
        ops.append(Op(
            _cli("--K", K, "invariants", "search", "--blocks", ",".join(blocks)),
            f"--K {K} invariants search --blocks {','.join(blocks)}",
            _check_search(blocks)))
    return Plan("rank-invariants", ops, recompute=_recompute_weights)


# ---------------------------------------------------------------------------
# polynomials in (u, sigma), written in the wavesym grammar

def _coefficient(rng: random.Random) -> Fraction:
    c = rng.choice((1, 2, 3, 5, -1, -2, -3))
    return Fraction(c, rng.choice((2, 3, 5))) if rng.random() < 0.2 else Fraction(c)


def _number(c: Fraction) -> str:
    return str(c) if c.denominator == 1 and c >= 0 else f"({c})"


def _power(name: str, e: int) -> list[str]:
    return [] if e == 0 else [name if e == 1 else f"{name}^{e}"]


def _monomial(c: Fraction, i: int, j: int) -> str:
    factors = _power("u", i) + _power("sigma", j)
    if c != 1 or not factors:
        factors.insert(0, str(c) if c.denominator == 1 else f"({c})")
    return "*".join(factors)


def _sum_text(terms) -> str:
    """sum c*u^i*sigma^j over (c, i, j), zero coefficients left out."""
    parts = []
    for c, i, j in terms:
        if not c:
            continue
        body = _monomial(abs(c), i, j)
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def _polynomial(rng: random.Random, exps) -> str:
    return _sum_text([(_coefficient(rng), i, j) for i, j in exps])


def _exponents(rng: random.Random, terms: int, max_u: int, max_sigma: int):
    exps = set()
    while len(exps) < terms:
        exps.add((rng.randint(0, max_u), rng.randint(0, max_sigma)))
    return sorted(exps)


# ---------------------------------------------------------------------------
# classify-corpus: one corpus line per operation

CORPUS_LINES = 100  # base lines; each is followed by its rewritten twin
CORPUS_DESIGN_SEED = 2009
_KINDS = ("sigma-power", "polynomial", "degenerate", "polynomial", "rational",
          "polynomial", "sigma-power", "rational", "polynomial", "polynomial")


def corpus_design() -> list[tuple]:
    """The corpus's line shapes, the same for every seed: (kind, shape,
    variable of the rewrite factor).

    The gcd work of a line depends on its monomials far more than on its
    coefficients, so fixing the shapes makes every seed's corpus cost about
    the same; the seed draws the coefficients.  Shapes reach u^4, where the
    seed's subresultant gcd fails on some lines."""
    rng = random.Random(CORPUS_DESIGN_SEED)
    design = []
    for i in range(CORPUS_LINES):
        kind = _KINDS[i % len(_KINDS)]
        if kind == "sigma-power":
            shape = 2 + (i // len(_KINDS)) % 4
        elif kind == "degenerate":
            shape = [(e, 0) for e in sorted(rng.sample(range(4), rng.randint(1, 3)))]
        elif kind == "polynomial":
            terms = rng.choice((2, 2, 3))
            shape = _exponents(rng, terms, 4, 5 if terms == 2 else 3)
        else:
            shape = (_exponents(rng, 2, 4, 4), (rng.randint(0, 3), rng.randint(0, 4)))
        design.append((kind, shape, rng.choice(("u", "sigma"))))
    return design


def _corpus_line(rng: random.Random, kind: str, shape) -> str:
    if kind == "sigma-power":
        return f"{_number(_coefficient(rng))}*sigma^{shape}"
    if kind == "degenerate":
        return f"({_polynomial(rng, shape)})*sigma"
    if kind == "polynomial":
        return _polynomial(rng, shape)
    numerator, (i, j) = shape
    return f"({_polynomial(rng, numerator)})/({_monomial(_coefficient(rng), i, j)})"


def sigma_power_signature(n: int) -> tuple[Fraction, Fraction]:
    """For a*sigma^n (a != 0, n >= 2): R = (n-1)*a*sigma^n and
    sigma^2*f_sigmasigma = n(n-1)*a*sigma^n, so rho1 = n and
    rho2 = (1 - 2n)/(n - 1)."""
    return Fraction(n), Fraction(1 - 2 * n, n - 1)


def _classify_record(out: str) -> dict:
    records = json.loads(out)
    if len(records) != 1:
        raise ValueError(f"{len(records)} records for one line")
    return records[0]


def _check_classify(line: str, kind: str, n: int | None) -> Check:
    def check(code, out):
        rec = _classify_record(out)
        reason = _expect([("input", rec["input"], line.strip())])
        if reason:
            return reason
        if kind == "degenerate":
            return _expect([("degenerate", rec["degenerate"], True),
                            ("class_id", rec["class_id"], "degenerate")])
        if kind == "sigma-power":
            rho1, rho2 = sigma_power_signature(n)
            return _expect([
                ("degenerate", rec["degenerate"], False),
                ("rho1", Fraction(rec["rho1"]), rho1),
                ("rho2", Fraction(rec["rho2"]), rho2),
            ])
        return None

    return check


def _classify_cross_check(ops: list[Op], outs: Outputs) -> dict[int, str]:
    """Rewritten twins share the class id of their base line, and sigma
    powers share a class id exactly with the other sigma powers of the same
    exponent."""
    bad: dict[int, str] = {}
    ids: dict[int, str] = {}
    for i, out in enumerate(outs):
        if out is not None:
            ids[i] = _classify_record(out)["class_id"]
    for i, op in enumerate(ops):
        twin = op.tags.get("twin_of")
        if twin is not None and i in ids and twin in ids and ids[i] != ids[twin]:
            bad[i] = (f"class_id {ids[i]} differs from {ids[twin]} of its "
                      f"base line (op {twin})")
    by_n: dict[int, set[str]] = {}
    for i, op in enumerate(ops):
        n = op.tags.get("n")
        if n is not None and i in ids and i not in bad:
            by_n.setdefault(n, set()).add(ids[i])
    for n, class_ids in by_n.items():
        others = set().union(*(v for m, v in by_n.items() if m != n))
        for i, op in enumerate(ops):
            if op.tags.get("n") != n or i not in ids or i in bad:
                continue
            if len(class_ids) > 1:
                bad[i] = f"sigma^{n} lines carry {len(class_ids)} class ids"
            elif ids[i] in others:
                bad[i] = f"sigma^{n} shares its class id with another exponent"
    return bad


ORACLE_SAMPLE = 6  # base lines whose signature sympy recomputes per run


def _recompute_signatures(ops: list[Op], outs: Outputs, seed: int):
    import oracle
    pool = [i for i, op in enumerate(ops)
            if op.tags.get("oracle") and outs[i] is not None]
    bad = {}
    sample = random.Random(seed).sample(pool, min(ORACLE_SAMPLE, len(pool)))
    for i in sample:
        reason = oracle.check_record(ops[i].spec["line"], _classify_record(outs[i]))
        if reason:
            bad[i] = f"sympy: {reason}"
    return bad, len(sample)


def classify_corpus(seed: int) -> Plan:
    rng = random.Random(seed)
    ops = []
    for kind, shape, var in corpus_design():
        line = _corpus_line(rng, kind, shape)
        n = shape if kind == "sigma-power" else None
        c = _coefficient(rng)
        h = f"{var} {'-' if c < 0 else '+'} {abs(c)}"
        twin = f"(({line})*({h}))/({h})"
        base = len(ops)
        for text, tags in ((line, {"n": n, "oracle": True}),
                           (twin, {"n": n, "twin_of": base})):
            ops.append(Op({"kind": "classify", "line": text}, text,
                          _check_classify(text, kind, n), {**tags, "kind": kind}))
    return Plan("classify-corpus", ops, _classify_cross_check,
                _recompute_signatures)


# ---------------------------------------------------------------------------
# orbit-search: equiv --orbit-search on pairs with a known orbit answer

# The affine grid that equivalence.search_orbit_match scans, in its order:
# scale, then shift, then sigma dilation.
ORBIT_SCALES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3,
                Fraction(1, 3), Fraction(-1, 3))
ORBIT_SHIFTS = (0, 1, -1, 2, -2)
ORBIT_DILATIONS = (1, 2, 3, 4, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                   9, Fraction(1, 9))
GRID_SIZE = len(ORBIT_SCALES) * len(ORBIT_SHIFTS) * len(ORBIT_DILATIONS)


def grid_point(p: int) -> tuple[Fraction, Fraction, Fraction]:
    per_scale = len(ORBIT_SHIFTS) * len(ORBIT_DILATIONS)
    return (Fraction(ORBIT_SCALES[p // per_scale]),
            Fraction(ORBIT_SHIFTS[(p // len(ORBIT_DILATIONS)) % len(ORBIT_SHIFTS)]),
            Fraction(ORBIT_DILATIONS[p % len(ORBIT_DILATIONS)]))


def push_forward_text(terms: list[tuple[Fraction, Fraction, int]],
                      a: Fraction, b: Fraction, c: Fraction) -> str:
    """f(u, sigma) = sum (p*u + q)*sigma^n pushed forward by u' = a*u + b and
    the dilation scaling sigma by c: with w = (u - b)/a, phi' = a and
    phi'' = 0, the image is c*a*f(w, sigma/(c*a^2)), left unexpanded."""
    w = f"(u - {_number(b)})/{_number(a)}"
    s = f"(sigma/({_number(c)}*{_number(a)}^2))"
    body = " + ".join(f"({_number(p)}*({w}) + {_number(q)})*{s}^{n}"
                      for p, q, n in terms)
    return f"{_number(c)}*{_number(a)}*({body})"


def _integer(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 2, 3, -1, -2, -3)))


def _terms_text(terms) -> str:
    """sum (p*u + q)*sigma^n over (p, q, n)."""
    return " + ".join(f"({_sum_text([(p, 1, 0), (q, 0, 0)])})*sigma^{n}"
                      for p, q, n in terms)


def _check_orbit(found: bool, rho1: tuple[int, int] | None) -> Check:
    def check(code, out):
        r = json.loads(out)
        pairs = [("exit code", code, 0),
                 ("orbit found", r["orbit_search"]["found"], found)]
        if rho1 is not None:
            # g(u)*sigma^n has rho1 = n; constant and unequal rho1 is an
            # invariant obstruction, so no transformation can match.
            pairs += [("a.rho1", r["a"]["rho1"], str(rho1[0])),
                      ("b.rho1", r["b"]["rho1"], str(rho1[1])),
                      ("verdict", r["verdict"], "not-equivalent")]
        return _expect(pairs)

    return check


# (n, m) of each match pair's (p*u + q)*sigma^n + c*sigma^m, and of each
# no-match pair's (p*u + q)*sigma^n against (p'*u + q')*sigma^m
MATCH_SHAPES = ((2, 3), (2, 3), (3, 4))
NO_MATCH_SHAPES = ((2, 3), (3, 4), (4, 2))


def orbit_search(seed: int) -> Plan:
    """Half the pairs are grid push-forwards, so a match exists; half are
    (p*u + q)*sigma^n against (p'*u + q')*sigma^m with n != m, where
    rho1 = n against m proves no match exists.

    A match costs as many push-forwards as its grid position.  The first
    two matches, of one shape, sit at antithetic positions r and 174 - r,
    the third in the last ten: every seed scans the same grid length, and
    the median operation is a no-match pair, which scans the whole grid.
    The seed draws r and the integer coefficients; shapes are fixed,
    because they set the cost of a push-forward."""
    rng = random.Random(seed)
    r = rng.randrange(0, 175)
    positions = (r, 174 - r, rng.randrange(GRID_SIZE - 10, GRID_SIZE))
    ops = []
    for p, (n, m), (n2, m2) in zip(positions, MATCH_SHAPES, NO_MATCH_SHAPES):
        terms = [(_integer(rng), _integer(rng), n), (Fraction(0), _integer(rng), m)]
        f1 = _terms_text(terms)
        a, b, c = grid_point(p)
        f2 = push_forward_text(terms, a, b, c)
        ops.append(Op(_cli("equiv", f1, f2, "--orbit-search"),
                      f"equiv {f1!r} {f2!r} --orbit-search  (grid point {p}: "
                      f"u -> {a}*u + {b}, sigma scale {c})",
                      _check_orbit(True, None)))
        f1 = _terms_text([(_integer(rng), _integer(rng), n2)])
        f2 = _terms_text([(_integer(rng), _integer(rng), m2)])
        ops.append(Op(_cli("equiv", f1, f2, "--orbit-search"),
                      f"equiv {f1!r} {f2!r} --orbit-search",
                      _check_orbit(False, (n2, m2))))
    return Plan("orbit-search", ops)


WORKLOADS = {
    "algebra-sweep": algebra_sweep,
    "rank-invariants": rank_invariants,
    "classify-corpus": classify_corpus,
    "orbit-search": orbit_search,
}
