"""Command-line surface: verification, rank, invariant search, equivalence,
and corpus classification with reproducible machine-readable reports.

Exit codes: 0 success, 1 usage or I/O error, 2 mathematical mismatch against
the published fixtures.  JSON output is byte-identical for identical
configurations (sorted keys, canonical expression strings).  Every rank is
exact, by one elimination over the rational functions of its chart.
``--seed`` reaches no rank and is only echoed in the rank report; it stays
so that schema 1 reports, config files and scripts that pass it keep
working.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .eqalgebra import (
    CLOSURE_MIN_K,
    DEFAULT_K,
    DEFAULT_SEED,
    MAX_K,
    Source,
    build_generators,
    closure_max_k,
    min_truncation,
    prolonged_rank,
    verify_commutator_table,
)
from .equivalence import (
    EquationInstance,
    check_equivalence,
    classify_corpus,
    search_orbit_match,
)
from .expr import (
    DivisionByZeroExpressionError,
    Expr,
    ExprError,
    NumberTooLongError,
    parse,
)
from .invariants import (
    NAMED_EXPRESSIONS,
    WeightedBlock,
    ZeroCandidateError,
    candidate_from_exponents,
    compare_sources,
    is_absolute,
    weight_kernel_search,
)
from .jetspace import JetSpace
from .value import Value

ENV_PREFIX = "WAVESYM_"
SCHEMA = 1
# highest jet order that `rank --order` accepts
MAX_RANK_ORDER = 6
# the chart order of every invariant verdict and block
_INVARIANT_ORDER = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class RunConfig(Value):
    """The run settings; unlike the other value classes, assignable."""

    _fields = ("seed", "K", "source", "output")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, seed: int = DEFAULT_SEED, K: int = DEFAULT_K,
                 source: Source = Source.DERIVED, output: str = "text"):
        self.seed = seed
        self.K = K
        self.source = source
        self.output = output

    def validate(self):
        for name in ("seed", "K"):
            if getattr(self, name) < 0:
                raise _UsageError(f"{name} must be non-negative")
        if self.K > MAX_K:
            raise _UsageError(f"K must be at most {MAX_K}")


_INT_KEYS = ("seed", "K")


def _resolve_config(args) -> RunConfig:
    """defaults < config file < environment < flags."""
    config = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:  # bad JSON, UTF-8 or digit count
            raise _UsageError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise _UsageError("config file must hold a JSON object")
        for key, value in data.items():
            # int() would read 1.5 and true as 1; a JSON integer is required
            if key in _INT_KEYS and type(value) is not int:
                raise _UsageError(f"{key} must be an integer, got {value!r}")
            _assign(config, key, value)
    for key in _INT_KEYS + ("source", "output"):
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            _assign(config, key, env)
    for key in _INT_KEYS + ("source", "output"):
        value = getattr(args, key, None)
        if value is not None:
            _assign(config, key, value)
    config.validate()
    return config


def _assign(config: RunConfig, key: str, value):
    if key in _INT_KEYS:
        try:
            setattr(config, key, int(value))
        except (TypeError, ValueError):
            raise _UsageError(f"{key} must be an integer, got {value!r}")
    elif key == "source":
        try:
            config.source = Source(value)
        except ValueError:
            raise _UsageError(f"source must be 'paper' or 'derived', got {value!r}")
    elif key == "output":
        if value not in ("text", "json"):
            raise _UsageError(f"output must be 'text' or 'json', got {value!r}")
        config.output = value
    else:
        raise _UsageError(f"unknown config key {key!r}")


def _emit(report: dict, config: RunConfig, text_lines) -> None:
    if config.output == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for line in text_lines(report):
            sys.stdout.write(line + "\n")
    # a closed reader then fails here, inside main, not at interpreter exit
    sys.stdout.flush()


def _pair_key(pair: tuple[str, str]) -> str:
    return f"[{pair[0]},{pair[1]}]"


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_algebra(config: RunConfig) -> tuple[int, dict]:
    """Verify the published bracket relations and the closure truncation.

    The gate always runs on the derived coefficients (the self-consistent
    source); requesting the printed source adds its per-relation statuses to
    the report as discrepancies without failing the gate.
    """
    if config.K < CLOSURE_MIN_K:
        raise _UsageError(f"the closure sweep needs K >= {CLOSURE_MIN_K}")
    derived = build_generators(Source.DERIVED, config.K)
    check = verify_commutator_table(derived)
    max_k = closure_max_k(derived)
    report = {
        "schema": SCHEMA,
        "command": "verify-algebra",
        "source": config.source.value,
        "K": config.K,
        "relations_checked": check["relations_checked"],
        "all_relations_exact": check["all_exact"],
        "failing_relations": [_pair_key(p) for p in check["failing"]],
        "max_closing_k": max_k,
    }
    if config.source is Source.PAPER_PRINTED:
        printed = build_generators(Source.PAPER_PRINTED, config.K)
        pcheck = verify_commutator_table(printed)
        report["printed"] = {
            "all_relations_exact": pcheck["all_exact"],
            "failing_relations": [_pair_key(p) for p in pcheck["failing"]],
            "max_closing_k": closure_max_k(printed),
            "note": "printed coefficients are carried verbatim; their "
                    "failures are reported, not corrected",
        }
    ok = check["all_exact"] and max_k == 2
    return (0 if ok else 2), report


def _verify_algebra_text(report: dict):
    yield f"relations checked: {report['relations_checked']}"
    yield f"all relations exact: {report['all_relations_exact']}"
    yield f"max_closing_k: {report['max_closing_k']}"
    if report.get("failing_relations"):
        yield "failing: " + ", ".join(report["failing_relations"])
    if "printed" in report:
        printed = report["printed"]
        yield (f"printed source: exact={printed['all_relations_exact']} "
               f"closure={printed['max_closing_k']}")
        if printed["failing_relations"]:
            yield "printed failing: " + ", ".join(printed["failing_relations"])


def _require_truncation(config: RunConfig, order: int) -> None:
    """Refuse a truncation too small to reach the generic rank at
    ``order``: a rank or a verdict there would hold for the truncation
    only, not for the algebra."""
    needed = min_truncation(order)
    if config.K < needed:
        raise _UsageError(f"order {order} needs K >= {needed}: at K = "
                          f"{config.K} the generators cannot reach its rank")


def cmd_rank(config: RunConfig, order: int) -> tuple[int, dict]:
    if not 0 <= order <= MAX_RANK_ORDER:
        raise _UsageError(f"order must be between 0 and {MAX_RANK_ORDER}, "
                          f"the cap on rank --order")
    _require_truncation(config, order)
    g = build_generators(config.source, config.K)
    rep = prolonged_rank(g, order, seed=config.seed)
    report = {"schema": SCHEMA, "command": "rank",
              "source": config.source.value, "K": config.K, **rep.as_dict()}
    return 0, report


def _rank_text(report: dict):
    yield (f"order {report['order']}: rank {report['rank']} of "
           f"{report['variable_count']} variables "
           f"-> {report['invariant_count']} invariants "
           f"(seed {report['seed']}, samples {report['samples_used']}, "
           f"certified)")


def cmd_invariants_verify(config: RunConfig, expr_text: str | None) -> tuple[int, dict]:
    _require_truncation(config, _INVARIANT_ORDER)
    if expr_text is None:
        bundle = compare_sources(config.K)
        # the bundle carries schema 1 of its own, which SCHEMA overrides
        report = {**bundle, "schema": SCHEMA, "command": "invariants-verify"}
        return 0, report
    expr = _expression(expr_text)
    g = build_generators(config.source, config.K)
    rep = is_absolute(expr, g, _INVARIANT_ORDER)
    report = {"schema": SCHEMA, "command": "invariants-verify",
              "source": config.source.value, "K": config.K,
              "report": rep.as_dict()}
    return 0, report


def _invariants_verify_text(report: dict):
    if "report" in report:
        body = report["report"]
        yield f"candidate: {body['candidate']}"
        yield f"overall: {body['overall']}"
        for name, verdict in body["verdicts"].items():
            weight = verdict["weight"]
            yield f"  {name}: {verdict['kind']}" + (
                f" (weight {weight})" if weight is not None else "")
        return
    for source in ("derived", "paper_printed"):
        bundle = report[source]
        yield f"{source}:"
        for name, body in bundle["candidates"].items():
            yield f"  {name}: {body['overall']}"
        for line in bundle["discrepancies"]:
            yield f"  discrepancy: {line}"
    for note in report.get("notes", []):
        yield f"note: {note}"


def _expression(text: str) -> Expr:
    """The stored tree of a named expression such as R, else the text
    parsed on the order-2 chart."""
    stripped = text.strip()
    named = NAMED_EXPRESSIONS.get(stripped)
    return named if named is not None else parse(stripped, JetSpace(2).coordinates)


def cmd_invariants_search(config: RunConfig, blocks_text: str) -> tuple[int, dict]:
    _require_truncation(config, _INVARIANT_ORDER)
    block_sources = [b.strip() for b in blocks_text.split(",") if b.strip()]
    if not block_sources:
        raise _UsageError("--blocks needs a comma-separated expression list")
    exprs = [_expression(b) for b in block_sources]
    g = build_generators(config.source, config.K)
    gens = g.prolonged_named(_INVARIANT_ORDER)
    try:
        blocks = [WeightedBlock.measure(e, gens) for e in exprs]
    except (ValueError, ZeroCandidateError) as exc:
        raise _UsageError(str(exc))
    vectors = weight_kernel_search(blocks, gens)
    candidates = []
    for vec in vectors:
        candidate = candidate_from_exponents(blocks, vec)
        if not candidate.free_coordinates():
            raise _UsageError(
                f"blocks are multiplicatively dependent: exponents "
                f"{tuple(vec)} give the constant {candidate}")
        candidates.append(str(candidate))
    report = {
        "schema": SCHEMA,
        "command": "invariants-search",
        "source": config.source.value,
        "K": config.K,
        "blocks": block_sources,
        "kernel": [list(v) for v in vectors],
        "candidates": candidates,
    }
    return 0, report


def _invariants_search_text(report: dict):
    yield f"blocks: {', '.join(report['blocks'])}"
    if not report["kernel"]:
        yield "kernel: empty"
        return
    for vec, cand in zip(report["kernel"], report["candidates"]):
        yield f"exponents {tuple(vec)} -> {cand}"


def cmd_equiv(config: RunConfig, f1: str, f2: str,
              orbit_search: bool = False) -> tuple[int, dict]:
    a = EquationInstance.from_text(f1)
    b = EquationInstance.from_text(f2)
    result = check_equivalence(a, b)
    report = {"schema": SCHEMA, "command": "equiv", "f1": f1, "f2": f2,
              **result.as_dict()}
    if orbit_search:
        match = search_orbit_match(a, result)
        report["orbit_search"] = {
            "heuristic": True,
            "found": match is not None,
            "transformation": None if match is None else str(match),
        }
    return 0, report


def _equiv_text(report: dict):
    yield f"verdict: {report['verdict']}"
    for side in ("a", "b"):
        sig = report[side]
        if sig["degenerate"]:
            yield f"  {side}: degenerate (special manifold)"
        else:
            yield f"  {side}: rho1 = {sig['rho1']}, rho2 = {sig['rho2']}"
    if "orbit_search" in report:
        body = report["orbit_search"]
        yield ("orbit search (heuristic): " +
               (f"match via {body['transformation']}" if body["found"]
                else "no match in the grid"))


def cmd_classify(config: RunConfig, corpus_path: str) -> tuple[int, dict]:
    try:
        with open(corpus_path) as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _IOError(str(exc))
    records = classify_corpus(lines)
    classes: dict[str, int] = {}
    for record in records:
        classes[record["class_id"]] = classes.get(record["class_id"], 0) + 1
    report = {"schema": SCHEMA, "command": "classify", "records": records,
              "classes": classes}
    return 0, report


def _classify_text(report: dict):
    for record in report["records"]:
        if record["degenerate"]:
            yield f"{record['input']}: degenerate"
        else:
            yield (f"{record['input']}: class {record['class_id']} "
                   f"(rho1 = {record['rho1']}, rho2 = {record['rho2']})")
    yield f"classes: {len([c for c in report['classes'] if c != 'degenerate'])}"


class _IOError(Exception):
    pass


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it as
    it is, so every ``main`` call shares it."""
    parser = _Parser(prog="wavesym", description=__doc__)
    parser.add_argument("--config", help="JSON file with config keys")
    for key in _INT_KEYS:
        parser.add_argument(f"--{key}", dest=key, type=int)
    parser.add_argument("--source", choices=["paper", "derived"])
    parser.add_argument("--output", choices=["text", "json"])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-algebra", help="check bracket relations and closure")

    rank_p = sub.add_parser("rank", help="generic rank of the prolonged generators")
    rank_p.add_argument("--order", type=int, required=True)

    inv_p = sub.add_parser("invariants", help="verify or search invariants")
    inv_sub = inv_p.add_subparsers(dest="subcommand", required=True)
    inv_verify = inv_sub.add_parser("verify")
    inv_verify.add_argument("--expr", help="candidate expression (order-2 chart)")
    inv_search = inv_sub.add_parser("search")
    inv_search.add_argument("--blocks", required=True,
                            help="comma-separated relative blocks")

    equiv_p = sub.add_parser("equiv", help="signature-based equivalence check")
    equiv_p.add_argument("f1")
    equiv_p.add_argument("f2")
    equiv_p.add_argument("--orbit-search", action="store_true",
                         help="also run the heuristic affine orbit search")

    classify_p = sub.add_parser("classify", help="classify a corpus file")
    classify_p.add_argument("corpus")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _resolve_config(args)
        if args.command == "verify-algebra":
            code, report = cmd_verify_algebra(config)
            _emit(report, config, _verify_algebra_text)
        elif args.command == "rank":
            code, report = cmd_rank(config, args.order)
            _emit(report, config, _rank_text)
        elif args.command == "invariants":
            if args.subcommand == "verify":
                code, report = cmd_invariants_verify(config, args.expr)
                _emit(report, config, _invariants_verify_text)
            else:
                code, report = cmd_invariants_search(config, args.blocks)
                _emit(report, config, _invariants_search_text)
        elif args.command == "equiv":
            code, report = cmd_equiv(config, args.f1, args.f2,
                                     orbit_search=args.orbit_search)
            _emit(report, config, _equiv_text)
        elif args.command == "classify":
            code, report = cmd_classify(config, args.corpus)
            _emit(report, config, _classify_text)
        else:  # pragma: no cover - argparse enforces the choices
            raise _UsageError(f"unknown command {args.command!r}")
        return code
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except _IOError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1
    except DivisionByZeroExpressionError as exc:
        sys.stderr.write(f"math error: {exc}\n")
        return 1
    except NumberTooLongError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 1
    except ExprError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except BrokenPipeError:
        # the reader closed stdout (as ``| head -1`` does); point it at
        # devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
