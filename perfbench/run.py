"""The wavesym benchmark.

Runs one seeded workload against the package under src/, checks every
output against an answer known from theory, and prints each metric with its
unit; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of algebra-sweep, rank-invariants, classify-corpus,
orbit-search, or ``all`` for one table row per workload.  A pass runs the
workload's fixed operation list once in a fresh single-threaded interpreter
(perfbench/worker.py), so every pass starts with the empty process-global
caches a CLI call starts with.  Passes run one after another until S seconds
are used, at least two of them; an operation's time, in reference seconds,
is its median over passes.
With --trace 1 each untraced pass is followed by a traced one, and the
per-layer metrics of tracer.py are printed instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # the harness leaves no .pyc files behind

import oracle  # noqa: E402  (needs sympy; the run stops here without it)
import workloads  # noqa: E402

MIN_PASSES = 2
# Times are reported in reference seconds: a measured time t is scaled to
# t * REF_NOMINAL_S / r, where r is the time of worker.reference_s() timed
# next to it in the same process and REF_NOMINAL_S that loop's time at full
# speed on the 2-vCPU VM the benchmark was tuned on.
REF_NOMINAL_S = 0.020
SETUP_SAMPLES = 15
OP_TIMEOUT_S = 30.0
RUN_LIMIT_S = 170.0      # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed in the table where defined; not in the JSON metrics, which must
# hold every end-to-end metric on every workload and no zero.
TABLE_ONLY = (("op_p90_ms", "ms"), ("fail_share", "ratio"), ("k_slope", "1"))

_LAYER_STATS = {
    "eqalgebra.solve_in_span": ("calls", "self_s"),
    "eqalgebra.closure_max_k": ("s",),
    "linalg.rref": ("calls", "self_s"),
    "vfields.bracket": ("calls", "self_s"),
    "vfields.prolong": ("calls", "s"),
    "vfields.induce_from_point_action": ("calls", "s"),
    "vfields.apply": ("calls", "self_s"),
    "expr.eval_at": ("calls", "s"),
    "eqalgebra.matrix_rank_at_samples": ("calls", "self_s"),
    "linalg.rank": ("calls", "s"),
    "invariants.is_absolute": ("calls", "self_s"),
    "invariants.weight_kernel_search": ("s",),
    "canonical.canonicalize": ("calls", "self_s"),
    "canonical.poly_gcd": ("calls", "self_s"),
    "expr.parse": ("calls", "s"),
    "expr.diff_partial": ("calls", "s"),
    "equivalence.signature_of": ("calls", "self_s"),
    "expr.substitute": ("calls", "s"),
    "equivalence.apply_finite_transformation": ("calls", "self_s"),
    "equivalence.search_orbit_match": ("calls", "s"),
    "cli.main": ("self_s",),
}
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
PER_LAYER = tuple(
    (f"{layer}.{stat}", _UNITS[stat])
    for layer, stats in _LAYER_STATS.items() for stat in stats
) + (
    ("linalg.rref.cells", "count"),
    ("canonical.gcd_cache.entries", "count"),
    ("canonical.gcd_cache.lookups", "count"),
    ("canonical.gcd_cache.hit_share", "ratio"),
    ("sweep.k_slope", "1"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.covered_share", "ratio"),
    ("trace.covered_share_without_cli", "ratio"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    pass


def child_env(pycache: str) -> dict[str, str]:
    """The worker's environment.  It sees none of the WAVESYM_* settings, so
    it runs exactly the generated operations.  Its bytecode lives in
    ``pycache``, a directory private to the run, whatever the caller's
    PYTHONDONTWRITEBYTECODE and the __pycache__ directories under src/ hold:
    the run's first launch compiles and writes there, and every later launch
    loads."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WAVESYM_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def _spawn(args: list[str], payload: str | None, timeout: float,
           env: dict[str, str]) -> dict:
    """Run the worker once and return its result plus the set-up time from
    launch until wavesym.cli was imported."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], input=payload,
            capture_output=True, text=True, timeout=max(timeout, 1.0),
            env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = ((result["ready"] - launched)
                         * REF_NOMINAL_S / result["ready_ref_s"])
    return result


def _measure(plan: workloads.Plan, seed: int, seconds: int, trace: bool,
             deadline: float, env: dict[str, str]
             ) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced passes (and with ``trace`` one traced pass after each) while
    another one is expected to end within half a pass of ``seconds``; then
    extra launches until SETUP_SAMPLES set-up times exist."""
    spec = {"ops": [op.spec for op in plan.ops], "op_timeout_s": OP_TIMEOUT_S}
    untraced_payload = json.dumps({**spec, "trace": False})
    passes, traced = [], []
    start = time.monotonic()
    while True:
        passes.append(_spawn([], untraced_payload, deadline - time.monotonic(),
                             env))
        if trace:
            run_id = f"{plan.name}-seed{seed}-pass{len(traced)}"
            spans = HERE / "out" / f"{plan.name}.pass{len(traced)}.spans.tsv.gz"
            traced.append(_spawn([], json.dumps({
                **spec, "trace": True, "run_id": run_id,
                "spans_path": str(spans)}), deadline - time.monotonic(), env))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(passes)
        enough = len(passes) >= (1 if trace else MIN_PASSES)
        if enough and (elapsed + per_round / 2 > seconds
                       or time.monotonic() + per_round > deadline):
            break
    setups = [p["setup_s"] for p in passes + traced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(["--setup-only"], None, 30, env)["setup_s"])
    return passes, traced, setups


def _evaluate(plan: workloads.Plan, runs: list[dict]) -> dict[int, tuple[str, str]]:
    """Failure (kind, reason) per operation index.  An operation fails if
    it raises, exits outside 0/1/2, contradicts the known answer, or prints
    other output than the same operation did in the first pass."""
    bad: dict[int, tuple[str, str]] = {}
    first = runs[0]["ops"]
    for i, op in enumerate(plan.ops):
        for run in runs:
            rec = run["ops"][i]
            if rec["error"]:
                kind = "timeout" if rec["error"].startswith("timeout") else "raise"
                bad[i] = (kind, rec["error"])
            elif rec["code"] is not None and rec["code"] not in (0, 1, 2):
                bad[i] = ("exit", f"exit code {rec['code']}")
            elif (rec["out"], rec["code"]) != (first[i]["out"], first[i]["code"]):
                bad[i] = ("nondeterministic", "output differs between passes")
            if i in bad:
                break
        if i in bad:
            continue
        try:
            reason = op.check(first[i]["code"], first[i]["out"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            bad[i] = ("answer", reason)
    outs = [None if i in bad else first[i]["out"] for i in range(len(plan.ops))]
    for i, reason in plan.cross_check(plan.ops, outs).items():
        bad[i] = ("answer", reason)
    return bad


def _recompute(plan: workloads.Plan, first: dict, bad: dict, seed: int) -> str:
    """sympy recomputation on outputs of the first pass; adds failures to
    ``bad`` and returns a note for the table."""
    outs = [None if i in bad else rec["out"] for i, rec in enumerate(first["ops"])]
    found, checked = plan.recompute(plan.ops, outs, seed)
    bad.update((i, ("answer", reason)) for i, reason in found.items())
    return f"sympy {oracle.sympy.__version__}: {checked} recomputations"


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _k_slope(plan: workloads.Plan, latencies: list[float]) -> float | None:
    """Log-log slope of derived-source verify-algebra time against K."""
    points = [(op.tags["K"], latencies[i]) for i, op in enumerate(plan.ops)
              if op.tags.get("source") == "derived"]
    return _slope(points) if len(points) >= 2 else None


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's latency in reference seconds, median over passes."""
    return [statistics.median(p["ops"][i]["s"] * REF_NOMINAL_S / p["ops"][i]["ref_s"]
                              for p in passes)
            for i in range(len(passes[0]["ops"]))]


def _pass_speed(run: dict) -> float:
    """Reference seconds per second of one pass."""
    return REF_NOMINAL_S / statistics.median(rec["ref_s"] for rec in run["ops"])


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float, env: dict[str, str]) -> dict:
    plan = workloads.WORKLOADS[name](seed)
    passes, traced, setups = _measure(plan, seed, seconds, trace, deadline, env)
    bad = _evaluate(plan, passes + traced)
    oracle_note = _recompute(plan, passes[0], bad, seed)
    n_ops, n_bad = len(plan.ops), len(bad)
    latencies = op_latencies(passes)
    wall = sum(latencies)
    table = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": (n_ops - n_bad) / wall,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "fail_share": n_bad / n_ops,
        "k_slope": _k_slope(plan, latencies),
        # the highest percentile with at least ten samples beyond it
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1000
                      if n_ops >= 100 else None),
    }
    result = {
        "name": name, "plan": plan, "bad": bad, "table": table,
        "passes": len(passes), "ops": n_ops, "setups": len(setups),
        "oracle": oracle_note,
        "attempted": n_ops * (len(passes) + len(traced)),
        "failed": n_bad * (len(passes) + len(traced)),
        "correct": not any(kind in ("answer", "nondeterministic")
                           for kind, _ in bad.values()),
    }
    if trace:
        def scaled(t, key):
            is_time = key.endswith((".s", ".self_s"))
            return t["layers"][key] * (_pass_speed(t) if is_time else 1)

        layers = {key: statistics.median(scaled(t, key) for t in traced)
                  for key in traced[0]["layers"]}
        traced_wall = sum(op_latencies(traced))
        layers.update({
            "sweep.k_slope": table["k_slope"] or 0.0,
            "trace.untraced_wall_s": wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_share": traced_wall / wall - 1,
        })
        result["layers"] = layers
    return result


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def print_report(results: list[dict], trace: bool) -> None:
    if trace:
        for r in results:
            print(f"{r['name']}: per-layer metrics from {r['passes']} traced "
                  f"pass(es) of {r['ops']} operations")
            for key, unit in PER_LAYER:
                print(f"  {key:48s} {_fmt(r['layers'].get(key, 0)):>12s} {unit}")
    else:
        columns = END_TO_END + TABLE_ONLY
        header = ["workload"] + [f"{k} [{u}]" for k, u in columns]
        rows = [[r["name"]] + [_fmt(r["table"][k]) for k, _ in columns]
                for r in results]
        widths = [max(len(row[c]) for row in [header] + rows)
                  for c in range(len(header))]
        for row in [header] + rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for r in results:
            print(f"{r['name']}: {r['ops']} operations x {r['passes']} passes "
                  f"(closed loop, one caller); op latency samples "
                  f"{r['ops'] * r['passes']}; set-up samples {r['setups']}; "
                  f"{r['oracle']}")
    for r in results:
        bad = r["bad"]
        print(f"{r['name']}: fail_share {len(bad)}/{r['ops']} operations")
        for i in sorted(bad):
            kind, reason = bad[i]
            print(f"  FAIL {r['name']} op {i} [{kind}] {reason} :: "
                  f"{r['plan'].ops[i].label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "wavesym" / "__init__.py").is_file():
        print(f"no wavesym package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = []
    (HERE / "out").mkdir(exist_ok=True)
    pycache = tempfile.mkdtemp(prefix="pycache-", dir=HERE / "out")
    try:
        env = child_env(pycache)
        _spawn(["--setup-only"], None, 60, env)  # fills pycache; not a sample
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(run_workload(name, args.seed, args.seconds, trace,
                                        deadline, env))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    print_report(results, trace)
    keys = PER_LAYER if trace else END_TO_END
    source = "layers" if trace else "table"

    def metric(r, key, unit):
        return {"value": r[source].get(key, 0), "unit": unit}

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['name']}."
        metrics.update({prefix + k: metric(r, k, u) for k, u in keys})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
