"""Per-layer spans recorded from outside the wavesym package.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper in every wavesym module namespace that holds it, which is where the
package's own calls look it up; nothing under src/ is edited.  A wrapper
records one span (name, start, end, parent) per outermost call.  Re-entrant
calls of the same function (recursion in diff_partial, eval_at, poly_gcd)
run inside that span and are not spans of their own.  Spans stay in memory
and are written when the pass ends.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# module -> public functions traced, as <module>.<function>
LAYERS = (
    ("cli", ("main",)),
    ("expr", ("parse", "eval_at", "diff_partial", "substitute")),
    ("canonical", ("canonicalize", "poly_gcd")),
    ("linalg", ("rref", "rank")),
    ("vfields", ("apply", "bracket", "prolong", "induce_from_point_action")),
    ("eqalgebra", ("solve_in_span", "closure_max_k", "matrix_rank_at_samples")),
    ("invariants", ("is_absolute", "weight_kernel_search")),
    ("equivalence", ("signature_of", "apply_finite_transformation",
                     "search_orbit_match")),
)
OP = "op"  # root span of one operation; its self time is harness glue


class _CountingCache(dict):
    """Stands in for canonical._GCD_CACHE with its lookups counted.
    poly_gcd looks a key up with ``get``; a result other than None is a
    hit, whatever the size of the cache does."""

    def __init__(self, entries: dict):
        super().__init__(entries)
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        out = dict.get(self, key, default)
        if out is not None:
            self.hits += 1
        return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = [OP]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.active: list[int] = [0]
        self.rref_cells = 0
        self.gcd_nontrivial = 0
        self.gcd_cache: _CountingCache | None = None
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _open(self, k: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(k)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self):
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        k = len(self.names)
        self.names.append(name)
        self.active.append(0)
        active, open_, close = self.active, self._open, self._close

        def traced(*args, **kwargs):
            if active[k]:
                return fn(*args, **kwargs)
            active[k] = 1
            idx = open_(k)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
                active[k] = 0

        traced.__wrapped__ = fn
        return traced

    def _count_rref(self, fn):
        def counted(rows, *args, **kwargs):
            self.rref_cells += len(rows) * (len(rows[0]) if rows else 0)
            return fn(rows, *args, **kwargs)
        return counted

    def _count_gcd(self, fn):
        """Counts the calls with two non-constant arguments, the ones that
        must consult the cache."""
        def counted(p, q, *args, **kwargs):
            if not (p.is_const() or q.is_const()):
                self.gcd_nontrivial += 1
            return fn(p, q, *args, **kwargs)
        return counted

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "wavesym" or n.startswith("wavesym.")]
        from wavesym import canonical
        cache = getattr(canonical, "_GCD_CACHE", None)
        if type(cache) is not dict:
            raise RuntimeError(
                "canonical._GCD_CACHE is missing or no longer a plain dict "
                f"({type(cache).__name__}); the gcd cache metrics cannot be read")
        self.gcd_cache = canonical._GCD_CACHE = _CountingCache(cache)
        for module_name, functions in LAYERS:
            module = sys.modules[f"wavesym.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                inner = original
                if (module_name, fn_name) == ("linalg", "rref"):
                    inner = self._count_rref(original)
                elif (module_name, fn_name) == ("canonical", "poly_gcd"):
                    inner = self._count_gcd(original)
                wrapper = self._wrap(f"{module_name}.{fn_name}", inner)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    # -- results -----------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """calls, inclusive s and self_s per layer; self_s is a span's
        duration minus the part its child spans cover."""
        n = len(self.span_name)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[names[i]]
            d = ends[i] - starts[i]
            calls[name] += 1
            incl[name] += d
            self_s[name] += d - child[i]
        out: dict[str, float] = {}
        for name in self.names[1:]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        cache = self.gcd_cache
        if self.gcd_nontrivial and not cache.lookups:
            raise RuntimeError(
                f"poly_gcd had {self.gcd_nontrivial} calls with two non-constant "
                "arguments but never called canonical._GCD_CACHE.get")
        out["linalg.rref.cells"] = self.rref_cells
        out["canonical.gcd_cache.entries"] = len(cache)
        out["canonical.gcd_cache.lookups"] = cache.lookups
        out["canonical.gcd_cache.hit_share"] = (
            cache.hits / cache.lookups if cache.lookups else 0.0)
        layer_self = sum(self_s[name] for name in self.names[1:])
        out["trace.spans"] = n
        out["trace.covered_share"] = layer_self / wall_s if wall_s else 0.0
        out["trace.covered_share_without_cli"] = (
            (layer_self - self_s["cli.main"]) / wall_s if wall_s else 0.0)
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated lines: run id, span id, name,
        parent span id (-1 for an operation root), start and end in seconds
        from the start of the pass."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        names, parents = self.span_name, self.span_parent
        starts, ends, origin = self.span_start, self.span_end, self.origin
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run\tspan\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(names)):
                fh.write(f"{self.run_id}\t{i}\t{self.names[names[i]]}\t"
                         f"{parents[i]}\t{starts[i] - origin:.9f}\t"
                         f"{ends[i] - origin:.9f}\n")
