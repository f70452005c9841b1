"""Golden output: every CLI case and demo prints exactly the recorded bytes.

Each case runs ``wavesym.cli.main`` in-process from ``tests/golden``, so
corpus paths are relative to that directory, and is compared with
``tests/golden/<name>.txt``: the exit code, stdout and stderr.  Each demo's
``main()`` is compared with ``tests/golden/demo_<name>.txt``.

The module needs no pytest, so the same check runs on any interpreter:

    PYTHONPATH=src python tests/test_golden.py            # check
    PYTHONPATH=src python tests/test_golden.py --record   # rewrite the files
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

from wavesym.cli import ENV_PREFIX, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# name -> argv; every subcommand in both outputs and from both sources, and
# one input per documented error path.  Messages that argparse writes or
# that depend on the interpreter's integer-to-text limit are left out: they
# differ between the Python versions the package supports.
CASES = {
    "verify_algebra_text": ["verify-algebra"],
    "verify_algebra_json": ["--output", "json", "verify-algebra"],
    "verify_algebra_paper_text": ["--source", "paper", "verify-algebra"],
    "verify_algebra_paper_json": ["--source", "paper", "--output", "json",
                                  "verify-algebra"],
    "verify_algebra_paper_k24_json": ["--source", "paper", "--output", "json",
                                      "--K", "24", "verify-algebra"],
    "rank_order1_text": ["rank", "--order", "1"],
    "rank_order2_json": ["--output", "json", "rank", "--order", "2"],
    "rank_order3_text": ["rank", "--order", "3"],
    "rank_paper_order2_text": ["--source", "paper", "rank", "--order", "2"],
    "rank_paper_order1_json": ["--source", "paper", "--output", "json",
                               "rank", "--order", "1"],
    "invariants_verify_text": ["invariants", "verify"],
    "invariants_verify_json": ["--output", "json", "invariants", "verify"],
    "invariants_verify_exp_text": ["invariants", "verify", "--expr",
                                   "exp(u)*sigma"],
    "invariants_verify_exp_json": ["--output", "json", "invariants", "verify",
                                   "--expr", "exp(u)*sigma"],
    "invariants_verify_paper_r_text": ["--source", "paper", "invariants",
                                       "verify", "--expr", "R"],
    "invariants_verify_paper_r2_json": ["--source", "paper", "--output",
                                        "json", "invariants", "verify",
                                        "--expr", "R2"],
    "invariants_verify_neither_text": ["invariants", "verify", "--expr",
                                       "f_u/(2*f)"],
    "invariants_verify_contents_json": [
        "--output", "json", "invariants", "verify", "--expr",
        "2*sigma^2*f_sigmasigma/(3*sigma*f_sigma - 3*f)"],
    "invariants_search_text": ["invariants", "search", "--blocks",
                               "sigma,R,sigma^2*f_sigmasigma"],
    "invariants_search_json": ["--output", "json", "invariants", "search",
                               "--blocks", "sigma,R,sigma^2*f_sigmasigma"],
    "invariants_search_paper_text": ["--source", "paper", "invariants",
                                     "search", "--blocks", "sigma,sigma^2"],
    "equiv_text": ["equiv", "u*sigma^2", "u^2*sigma^3"],
    "equiv_json": ["--output", "json", "equiv", "sigma^2", "3*sigma^2"],
    "equiv_degenerate_json": ["--output", "json", "equiv", "sigma", "u*sigma"],
    "equiv_orbit_match_text": ["equiv", "u*sigma^2", "(u - 1)*sigma^2",
                               "--orbit-search"],
    "equiv_orbit_match_json": ["--output", "json", "equiv", "u*sigma^2",
                               "(u - 1)*sigma^2", "--orbit-search"],
    "equiv_orbit_no_match_text": ["equiv", "u*sigma^2", "u^2*sigma^3",
                                  "--orbit-search"],
    "equiv_orbit_atom_match_text": ["equiv", "exp(sigma)*u + sigma^2",
                                    "exp(sigma)*u/4 + sigma^2/2",
                                    "--orbit-search"],
    "equiv_orbit_degenerate_json": ["--output", "json", "equiv", "u*sigma",
                                    "sigma^2", "--orbit-search"],
    "equiv_orbit_rational_no_match_json": [
        "--output", "json", "equiv", "(u+1)*sigma^2/(u^2+sigma)",
        "(u+2)*sigma^2/(u^2+sigma)", "--orbit-search"],
    "equiv_orbit_one_constant_json": ["--output", "json", "equiv",
                                      "(u+sigma)^3", "sigma^2",
                                      "--orbit-search"],
    "classify_text": ["classify", "corpus.txt"],
    "classify_json": ["--output", "json", "classify", "corpus.txt"],
    "classify_negative_power_text": ["classify", "corpus_negative_power.txt"],
    "classify_negative_power_json": ["--output", "json", "classify",
                                     "corpus_negative_power.txt"],
    "error_usage_small_k": ["--K", "1", "verify-algebra"],
    "error_usage_rank_order": ["rank", "--order", "7"],
    "error_usage_invariants_small_k": [
        "--K", "1", "invariants", "search", "--blocks",
        "sigma,R,sigma^2*f_sigmasigma,f_uu*sigma^2"],
    "error_usage_block_not_relative": ["invariants", "search", "--blocks", "f"],
    "error_usage_block_not_relative_paper": [
        "--source", "paper", "invariants", "search", "--blocks",
        "sigma,R,sigma^2*f_sigmasigma"],
    "error_usage_zero_block": ["invariants", "search", "--blocks", "sigma,0"],
    "error_io_missing_corpus": ["classify", "missing.txt"],
    "error_parse": ["equiv", "sigma +* 2", "sigma"],
    "error_parse_unknown_atom": ["equiv", "sin(u)", "sigma"],
    "error_parse_nesting": ["equiv", "(" * 101 + "sigma" + ")" * 101, "sigma"],
    "error_math_zero_denominator": ["equiv", "0/(sigma - sigma)", "sigma"],
    "error_classify_line": ["classify", "corpus_bad_line.txt"],
}


def run_case(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI run, as text."""
    out, err = io.StringIO(), io.StringIO()
    saved_env = {k: os.environ.pop(k) for k in list(os.environ)
                 if k.startswith(ENV_PREFIX)}
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
        os.environ.update(saved_env)
    return f"exit {code}\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


def run_demo(path: Path) -> str:
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return out.getvalue()


def outputs() -> dict[str, str]:
    """File name under tests/golden -> the output it must hold."""
    got = {f"{name}.txt": run_case(argv) for name, argv in CASES.items()}
    got.update({f"demo_{p.stem}.txt": run_demo(p) for p in DEMOS})
    return got


def mismatches() -> list[str]:
    return [name for name, text in outputs().items()
            if not (GOLDEN / name).is_file()
            or (GOLDEN / name).read_bytes() != text.encode()]


def test_cli_and_demo_output_matches_golden():
    assert mismatches() == []


# Enters the order-2 chart's generators and exp(u) into the generator table
# in reverse gen_key order, then prints the golden cases named in argv whose
# output differs.  wavesym.canonical is loaded under a bare package first,
# because the package's __init__ imports modules that build forms in u and
# sigma.
_REVERSED_TABLE = """
import sys, types
sys.modules["wavesym"] = types.ModuleType("wavesym")
sys.modules["wavesym"].__path__ = [sys.argv[1]]
from wavesym import canonical
from wavesym.jetspace import JetSpace
assert canonical._NAMES == []
names = sorted([*JetSpace(2).coordinates, "exp(u)"], key=canonical.gen_key,
               reverse=True)
for name in names:
    canonical.coordinate(name)
del sys.modules["wavesym"]
import test_golden
assert canonical._NAMES[:len(names)] == names
print([name for name in sys.argv[2:]
       if test_golden.run_case(test_golden.CASES[name]).encode()
       != (test_golden.GOLDEN / f"{name}.txt").read_bytes()])
"""


def test_generator_table_order_is_not_observable():
    """The table numbers generators in first-seen order; output reads only
    the gen_key order, so a table filled in the reverse order prints the
    same bytes."""
    cases = ["classify_text", "classify_json", "invariants_verify_text",
             "invariants_verify_exp_json", "equiv_orbit_match_text",
             "equiv_orbit_atom_match_text"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run(
        [sys.executable, "-c", _REVERSED_TABLE, str(ROOT / "src" / "wavesym"),
         *cases], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        for name, text in outputs().items():
            (GOLDEN / name).write_bytes(text.encode())
        print(f"recorded {len(CASES)} CLI cases and {len(DEMOS)} demos")
    else:
        bad = mismatches()
        print("golden output " + ("differs: " + ", ".join(bad) if bad
                                  else "matches"))
        sys.exit(1 if bad else 0)
