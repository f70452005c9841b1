"""One pass of a workload in a fresh interpreter.

Reads the operation list as JSON on stdin, runs it once in order (a closed
loop: the next operation starts when the previous one returns) and writes
one JSON object to stdout with the time wavesym.cli became importable, the
pass wall time, every operation's latency, exit code, captured output and
the reference-loop time around it, and the process's peak resident set
size.

Usage: python3 perfbench/worker.py [--setup-only]
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wavesym.cli  # noqa: E402  (timed: interpreter launch to this line)

READY = time.monotonic()

from wavesym import eqalgebra, equivalence, invariants  # noqa: E402


REFERENCE_EVERY_S = 0.5


def reference_s() -> float:
    """Time of a fixed stdlib loop: Fraction products summed into a dict
    keyed by monomial-like tuples, the kind of work wavesym's polynomial
    kernel does.  Timed next to the operations, it tells how fast the
    machine ran them."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(1, 4000):
        key = (("u", i % 5), ("sigma", i % 7))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i + 1) * Fraction(3, 7)
    return time.perf_counter() - start


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation that overran.

    A BaseException, so that no handler inside wavesym swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _library_call(spec: dict) -> str:
    """The public calls behind commands the CLI does not offer."""
    kind = spec["kind"]
    if kind == "classify":
        return json.dumps(equivalence.classify_corpus([spec["line"]]),
                          indent=2, sort_keys=True) + "\n"
    g = eqalgebra.build_generators("derived", spec["K"])
    if kind == "prolonged_rank":
        rep = eqalgebra.prolonged_rank(g, spec["order"], seed=spec["seed"])
    elif kind == "rank_on_manifold":
        rep = eqalgebra.rank_on_manifold(
            g, invariants.NAMED_EXPRESSIONS["R"], spec["order"], seed=spec["seed"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return json.dumps(rep.as_dict(), indent=2, sort_keys=True) + "\n"


def run_op(spec: dict, timeout_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if spec["kind"] == "cli":
                code = wavesym.cli.main(list(spec["argv"]))
            else:
                out.write(_library_call(spec))
    except OpTimeout:
        error = f"timeout: no result within {timeout_s:g} s"
    except Exception as exc:  # every operation must end in a record
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"s": elapsed, "code": code, "out": out.getvalue(), "error": error}


def peak_rss_mb() -> float:
    """Peak resident set size of this process since it was exec'd: the
    high-water mark of its own memory map.  ru_maxrss is no substitute, as
    it also keeps the parent's footprint at fork time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    ready_ref = reference_s()
    if "--setup-only" in sys.argv[1:]:
        print(json.dumps({"ready": READY, "ready_ref_s": ready_ref}))
        return 0
    spec = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_module
        tracer = tracer_module.Tracer(spec["run_id"])
        tracer.install()
    records = []
    refs = []  # (index of the next operation, reference time)
    start = time.perf_counter()
    last_ref = -REFERENCE_EVERY_S
    for i, op in enumerate(spec["ops"]):
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append((i, reference_s()))
            last_ref = time.perf_counter()
        with tracer.op_span() if tracer else contextlib.nullcontext():
            records.append(run_op(op, spec["op_timeout_s"]))
    refs.append((len(records), reference_s()))
    wall = time.perf_counter() - start
    starts = [index for index, _ in refs]
    for i, rec in enumerate(records):
        k = bisect.bisect_right(starts, i)  # refs[k - 1] before, refs[k] after
        rec["ref_s"] = (refs[k - 1][1] + refs[k][1]) / 2
    rss_mb = peak_rss_mb()
    result = {"ready": READY, "ready_ref_s": ready_ref, "wall_s": wall,
              "rss_mb": rss_mb, "ops": records}
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        tracer.write(spec["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
