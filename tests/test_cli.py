import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fraction_text, polynomial_text
from wavesym import cli
from wavesym.cli import MAX_K, _build_parser, main
from wavesym.expr import parse

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_algebra_default(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "verify-algebra")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["max_closing_k"] == 2
    assert report["all_relations_exact"] is True


def test_verify_algebra_paper_source_reports_discrepancies(capsys):
    code, out, _ = run_cli(capsys, "--source", "paper", "--output", "json",
                           "verify-algebra")
    assert code == 0
    report = json.loads(out)
    assert report["max_closing_k"] == 2
    printed = report["printed"]
    assert printed["all_relations_exact"] is False
    assert printed["failing_relations"]
    assert printed["max_closing_k"] == 1


def test_verify_algebra_small_k_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--K", "1", "verify-algebra")
    assert code == 1
    assert "usage error" in err


def test_rank_first_order(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "rank", "--order", "1")
    assert code == 0
    report = json.loads(out)
    assert (report["rank"], report["invariant_count"]) == (7, 0)


def test_rank_second_order(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "rank", "--order", "2")
    assert code == 0
    report = json.loads(out)
    assert (report["rank"], report["invariant_count"]) == (8, 2)


def test_rank_out_of_scope_order(capsys):
    for order in ("7", "-1"):
        code, out, err = run_cli(capsys, "rank", "--order", order)
        assert (code, out) == (1, "")
        assert "usage error" in err and "cap" in err and "6" in err


@pytest.mark.parametrize("key, value", [("samples", "4"),
                                        ("coordinate_range", "5")])
def test_a_removed_sampling_option_is_a_usage_error(capsys, monkeypatch,
                                                     tmp_path, key, value):
    """Every rank is exact from one point, so neither --samples nor
    --coordinate-range exists: the flag is a usage error, the config key
    an unknown one, and the environment variable changes no output."""
    flag = "--" + key.replace("_", "-")
    for args in ((flag, value, "rank", "--order", "1"),
                 ("rank", "--order", "1", flag, value)):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: int(value)}))
    code, out, err = run_cli(capsys, "--config", str(config), "rank",
                             "--order", "1")
    assert (code, out, err) == (1, "",
                                f"usage error: unknown config key {key!r}\n")
    args = ("--output", "json", "rank", "--order", "3")
    expected = run_cli(capsys, *args)
    monkeypatch.setenv("WAVESYM_" + key.upper(), value)
    assert run_cli(capsys, *args) == expected


def test_K_above_the_cap_is_a_usage_error(capsys, monkeypatch, tmp_path):
    """--K is capped at MAX_K from a flag, the environment and a config
    file alike, before any generator is built; the cap itself is
    accepted."""
    assert MAX_K == 300
    message = "usage error: K must be at most 300\n"
    built = []
    build = cli.build_generators
    monkeypatch.setattr(cli, "build_generators", lambda *args: (
        built.append(args) or build(*args)))
    code, out, err = run_cli(capsys, "--K", "301", "rank", "--order", "1")
    assert (code, out, err) == (1, "", message)
    config = tmp_path / "config.json"
    config.write_text('{"K": 301}')
    code, out, err = run_cli(capsys, "--config", str(config), "rank",
                             "--order", "1")
    assert (code, out, err) == (1, "", message)
    monkeypatch.setenv("WAVESYM_K", "301")
    code, out, err = run_cli(capsys, "rank", "--order", "1")
    assert (code, out, err) == (1, "", message)
    assert not built
    monkeypatch.delenv("WAVESYM_K")
    code, out, _ = run_cli(capsys, "--output", "json", "--K", "300", "rank",
                           "--order", "1")
    assert code == 0 and json.loads(out)["K"] == 300


def test_rank_refuses_an_order_beyond_the_truncation(capsys):
    # at the default K = 6 orders 5 and 6 would read rank 10
    for order in ("5", "6"):
        code, out, err = run_cli(capsys, "rank", "--order", order)
        assert (code, out) == (1, "")
        assert err == (f"usage error: order {order} needs K >= "
                       f"{int(order) + 2}: at K = 6 the generators cannot "
                       f"reach its rank\n")
    code, out, _ = run_cli(capsys, "--K", "7", "--output", "json",
                           "rank", "--order", "5")
    assert code == 0
    assert json.loads(out)["invariant_count"] == 14


def test_rank_is_order_plus_six_up_to_the_cap(capsys):
    # the order-k chart has 5 + k(k+3)/2 coordinates and generic rank k + 6
    for k in range(1, 7):
        code, out, _ = run_cli(capsys, "--K", "8", "--output", "json",
                               "rank", "--order", str(k))
        report = json.loads(out)
        assert code == 0
        assert (report["rank"], report["variable_count"]) == (
            k + 6, 5 + k * (k + 3) // 2)


INVARIANT_COMMANDS = (
    ("invariants", "verify"),
    ("invariants", "verify", "--expr", "R"),
    ("invariants", "search", "--blocks", "sigma,R,sigma^2*f_sigmasigma"),
)


@pytest.mark.parametrize("command", INVARIANT_COMMANDS)
def test_invariants_refuse_a_truncation_below_order_plus_two(capsys, command):
    # invariants live on the order-2 chart, whose rank 8 needs K >= 4
    code, out, err = run_cli(capsys, "--K", "3", *command)
    assert (code, out) == (1, "")
    assert err == ("usage error: order 2 needs K >= 4: at K = 3 the "
                   "generators cannot reach its rank\n")
    code, out, err = run_cli(capsys, "--K", "4", *command)
    assert (code, err) == (0, "")
    assert out


def test_json_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "--output", "json", "rank", "--order", "1")
    _, second, _ = run_cli(capsys, "--output", "json", "rank", "--order", "1")
    assert first == second


def test_env_override_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("WAVESYM_SEED", "42")
    _, out, _ = run_cli(capsys, "--output", "json", "rank", "--order", "1")
    assert json.loads(out)["seed"] == 42
    _, out, _ = run_cli(capsys, "--seed", "7", "--output", "json",
                        "rank", "--order", "1")
    assert json.loads(out)["seed"] == 7


def test_invariants_verify_bundle(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "invariants", "verify")
    assert code == 0
    report = json.loads(out)
    derived = report["derived"]["candidates"]
    assert derived["R"]["overall"] == "relative"
    assert derived["R2"]["overall"] == "absolute"
    assert derived["R1_printed"]["overall"] == "relative"
    assert report["paper_printed"]["discrepancies"]
    assert report["notes"]


def test_invariants_verify_constant(capsys):
    code, out, _ = run_cli(capsys, "--output", "json",
                           "invariants", "verify", "--expr", "1")
    assert code == 0
    assert json.loads(out)["report"]["overall"] == "absolute"


def test_invariants_search_shorthand(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "invariants", "search",
                           "--blocks", "sigma,R,sigma^2*f_sigmasigma")
    assert code == 0
    report = json.loads(out)
    kernel = [tuple(v) for v in report["kernel"]]
    assert kernel == [(0, 1, -1)] or kernel == [(0, -1, 1)]
    assert len(report["candidates"]) == 1


def test_invariants_search_non_relative_block(capsys):
    code, _, err = run_cli(capsys, "invariants", "search", "--blocks", "f")
    assert code == 1
    assert "not relative" in err


def test_invariants_search_zero_block(capsys):
    code, out, err = run_cli(capsys, "invariants", "search", "--blocks", "0")
    assert (code, out) == (1, "")
    assert err == "usage error: cannot compute a weight for the zero expression\n"


@pytest.mark.parametrize("blocks, vector, constant", [
    ("1", "(1,)", "1"),
    ("2,sigma", "(1, 0)", "2"),
    ("sigma,sigma^2,R", "(2, -1, 0)", "1"),
])
def test_invariants_search_rejects_constant_products(capsys, blocks, vector,
                                                     constant):
    code, out, err = run_cli(capsys, "invariants", "search", "--blocks", blocks)
    assert (code, out) == (1, "")
    assert err == (f"usage error: blocks are multiplicatively dependent: "
                   f"exponents {vector} give the constant {constant}\n")


def test_equiv_verdicts(capsys):
    code, out, _ = run_cli(capsys, "--output", "json",
                           "equiv", "sigma^2", "3*sigma^2")
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent-per-criterion"
    code, out, _ = run_cli(capsys, "--output", "json",
                           "equiv", "sigma^2", "sigma^3")
    assert json.loads(out)["verdict"] == "not-equivalent"
    code, out, _ = run_cli(capsys, "--output", "json", "equiv", "sigma", "sigma")
    assert json.loads(out)["verdict"] == "both-degenerate"


def test_equiv_signature_strings_reparse(capsys):
    _, out, _ = run_cli(capsys, "--output", "json",
                        "equiv", "u + sigma", "sigma^2")
    sig = json.loads(out)["a"]
    parse(sig["rho2"], ("u", "sigma"))


def test_equiv_parse_error(capsys):
    code, _, err = run_cli(capsys, "equiv", "sigma +* 2", "sigma")
    assert code == 1
    assert "parse error" in err


def test_equiv_gcd_with_multi_degree_pseudo_remainder_step(capsys):
    # the gcd behind rho1 hits a pseudo-remainder step that drops the degree
    # in u by more than one; it used to raise "not an exact division"
    code, out, _ = run_cli(capsys, "--output", "json", "equiv",
                           "u^2*sigma^4 + u^4", "sigma^2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "not-equivalent"
    assert report["a"]["rho1"] == "12*sigma^4/(3*sigma^4 - u^2)"


def test_equiv_orbit_search(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "equiv",
                           "u*sigma^2", "(u - 1)*sigma^2", "--orbit-search")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "not-equivalent"
    assert report["orbit_search"]["heuristic"] is True
    assert report["orbit_search"]["found"] is True


def test_classify(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("sigma^2\n3*sigma^2\nsigma^3\n")
    code, out, _ = run_cli(capsys, "--output", "json", "classify", str(corpus))
    assert code == 0
    report = json.loads(out)
    ids = [r["class_id"] for r in report["records"]]
    assert len(set(ids)) == 2
    assert not any(r["degenerate"] for r in report["records"])


def test_classify_empty_file(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    code, out, _ = run_cli(capsys, "--output", "json", "classify", str(corpus))
    assert code == 0
    assert json.loads(out)["records"] == []


def test_classify_unreadable_path(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/corpus.txt")
    assert code == 1
    assert "i/o error" in err


def test_classify_corpus_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "classify", str(corpus))
    assert code == 1
    assert out == ""
    assert err.startswith("i/o error: ") and "can't decode" in err


def test_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 321, "K": 7}))
    _, out, _ = run_cli(capsys, "--config", str(config), "--output", "json",
                        "rank", "--order", "1")
    report = json.loads(out)
    assert (report["seed"], report["K"]) == (321, 7)
    assert (report["samples_used"], report["certified"]) == (1, True)


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "config file must hold a JSON object"),
    (b'"seed"', "config file must hold a JSON object"),
    (b'{"seed": 1.5}', "seed must be an integer, got 1.5"),
    (b'{"seed": true}', "seed must be an integer, got True"),
    (b'{"K": "4"}', "K must be an integer, got '4'"),
    (b'{"K": null}', "K must be an integer, got None"),
    (b"{", "cannot read config file: "),
    (b"\xff\xfe", "cannot read config file: "),
    (b'{"seed": ' + b"9" * 5000 + b"}", "cannot read config file: "),
])
def test_config_file_errors_are_usage_errors(tmp_path, capsys, content,
                                              message):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    code, out, err = run_cli(capsys, "--config", str(config), "rank",
                             "--order", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1


def _child_env() -> dict:
    # pytest's pythonpath setting reaches this process only, so a child
    # is given src on its PYTHONPATH
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wavesym.cli", "rank", "--order", "0"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "rank" in proc.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """The value classes are plain classes: importing the command line
    costs no code generation.  -S keeps site hooks, which may preload
    modules of their own, out of the result."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, wavesym.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_the_shared_parser_leaks_no_state_between_runs(capsys):
    """main() builds its parser once per process: runs one after another,
    a usage error among them, each give what a fresh process gives."""
    runs = [["rank", "--order", "7"],
            ["--output", "json", "rank", "--order", "2"],
            ["equiv", "u*sigma^2", "(u-1)*sigma^2", "--orbit-search"],
            ["--K", "7", "rank", "--order", "5"],
            ["rank", "--order", "7"]]
    in_process = [run_cli(capsys, *argv) for argv in runs]
    assert _build_parser() is _build_parser()
    for argv, got in zip(runs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "wavesym.cli", *argv],
                               capture_output=True, text=True,
                               env=_child_env())
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("output", ["text", "json"])
def test_closed_stdout_exits_1_without_a_traceback(output):
    # the reader goes away before the first write, as with `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "wavesym.cli", "--output", output,
         "invariants", "verify"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_deep_parentheses_are_a_parse_error(capsys):
    deep = "(" * 3000 + "u" + ")" * 3000
    code, _, err = run_cli(capsys, "equiv", deep, "sigma")
    assert code == 1
    assert err.startswith("parse error: nesting deeper than")
    code, _, err = run_cli(capsys, "invariants", "verify", "--expr", deep)
    assert code == 1
    assert err.startswith("parse error: nesting deeper than")


def test_deep_unary_minus_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "equiv", "u + " + "-" * 3000 + "sigma^2", "sigma")
    assert code == 1
    assert err.startswith("parse error: nesting deeper than")


def test_fifty_nested_levels_still_parse(capsys):
    nested = "(" * 50 + "sigma^2" + ")" * 50
    code, out, _ = run_cli(capsys, "--output", "json", "equiv", nested, "sigma^2")
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent-per-criterion"
    code, out, _ = run_cli(capsys, "--output", "json", "invariants", "verify",
                           "--expr=" + "-(" * 25 + "sigma" + ")" * 25)
    assert code == 0
    assert json.loads(out)["report"]["overall"] == "relative"


def test_division_by_zero_is_a_math_error(capsys):
    code, out, err = run_cli(capsys, "equiv", "1/(sigma-sigma)", "sigma^2")
    assert code == 1
    assert out == ""
    assert err.startswith("math error: ")


def test_zero_over_zero_is_a_math_error(capsys):
    """A zero numerator does not hide an identically zero denominator."""
    for text in ("0/(sigma - sigma)", "(1 - 1)/(u*sigma - u*sigma)",
                 "0*(u + 1/(sigma - sigma)) + sigma^2"):
        code, out, err = run_cli(capsys, "equiv", text, "sigma^2")
        assert (code, out) == (1, "")
        assert err.startswith("math error: ")
    code, out, _ = run_cli(capsys, "--output", "json", "equiv",
                           "0/sigma + sigma^2", "sigma^2")
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent-per-criterion"


@pytest.mark.parametrize("text", ["(1/(sigma - sigma))^-1",
                                  "(u/(sigma - sigma))^0*sigma^2"])
def test_a_power_does_not_hide_a_zero_denominator(capsys, text):
    """Neither a zero power nor a second inversion drops the division: the
    equation path and the invariant-candidate path end in the same error."""
    message = "math error: negative power of an identically zero expression\n"
    for args in (("equiv", text, "sigma^2"),
                 ("invariants", "verify", "--expr", text)):
        assert run_cli(capsys, *args) == (1, "", message)


def test_a_parse_error_comes_before_a_zero_denominator(capsys):
    for args in (("equiv", "1/0 + sin(u)", "sigma^2"),
                 ("invariants", "verify", "--expr", "1/0 + sin(u)")):
        assert run_cli(capsys, *args) == (
            1, "", "parse error: unknown identifier 'sin' at offset 6\n")


def test_number_too_long_to_print_is_an_output_error(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    big = "9" * (limit // 2 + 1)
    message = f"number of more than {limit} digits is too long to print\n"
    for output in ("text", "json"):
        code, out, err = run_cli(capsys, "--output", output, "equiv",
                                 f"{big}^2*u*sigma^2 + sigma^3", "sigma")
        assert (code, out) == (1, "")
        assert err == "output error: " + message
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"sigma^2\n{big}^2*u*sigma^2 + sigma^3\n")
    code, out, err = run_cli(capsys, "classify", str(corpus))
    assert (code, out) == (1, "")
    assert err == "output error: line 2: " + message


def test_overlong_number_is_a_parse_error(capsys):
    nines = "9" * 5000
    code, out, err = run_cli(capsys, "equiv", nines + "*sigma^2", "sigma")
    assert (code, out) == (1, "")
    assert err == "parse error: number of 5000 digits is too long at offset 0\n"
    code, out, err = run_cli(capsys, "equiv", "sigma^" + nines, "sigma")
    assert (code, out) == (1, "")
    assert err == "parse error: number of 5000 digits is too long at offset 6\n"


def test_k_max_is_not_an_option(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--K-max", "3", "rank", "--order", "1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"K_max": 3}))
    code, out, err = run_cli(capsys, "--config", str(config), "rank", "--order", "1")
    assert (code, out) == (1, "")
    assert err == "usage error: unknown config key 'K_max'\n"


def test_classify_error_names_the_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("sigma^2\n\n# comment\nsigma +* 2\n")
    code, out, err = run_cli(capsys, "classify", str(corpus))
    assert (code, out) == (1, "")
    assert err == "parse error: line 4: unexpected '*' at offset 7\n"
    corpus.write_text("sigma^2\n1/(sigma - sigma)\n")
    code, out, err = run_cli(capsys, "classify", str(corpus))
    assert (code, out) == (1, "")
    assert err.startswith("math error: line 2: ")


# --- a fuzz test of the command grammar ---------------------------------------

_EQUATION_TEXT = st.one_of(polynomial_text(("u", "sigma"), 3),
                           fraction_text(("u", "sigma"), 3),
                           st.sampled_from(["", "sigma^", "sin(u)", "1/0",
                                            "0/(sigma - sigma)", "R"]))
_CHART_TEXT = st.one_of(polynomial_text(("sigma", "f", "f_sigma"), 3),
                        st.sampled_from(["R", "R2", "0", "exp(u)", "u_x^"]))


def _option(flag, values):
    return st.lists(values.map(lambda v: [flag, str(v)]), max_size=1)


_COMMANDS = st.one_of(
    st.just(["verify-algebra"]),
    st.integers(0, 7).map(lambda k: ["rank", "--order", str(k)]),
    st.just(["invariants", "verify"]),
    _CHART_TEXT.map(lambda e: ["invariants", "verify", "--expr", e]),
    st.lists(_CHART_TEXT, min_size=1, max_size=3).map(
        lambda bs: ["invariants", "search", "--blocks", ",".join(bs)]),
    st.tuples(_EQUATION_TEXT, _EQUATION_TEXT, st.booleans()).map(
        lambda t: ["equiv", t[0], t[1]] + ["--orbit-search"] * t[2]),
    st.just(["classify", "no-such-corpus.txt"]),
)


@settings(max_examples=100, deadline=None)
@given(options=st.tuples(
    _option("--K", st.integers(0, 12)),
    _option("--seed", st.integers(0, 10 ** 9)),
    _option("--source", st.sampled_from(["derived", "paper"])),
    _option("--output", st.sampled_from(["text", "json"])),
    # the removed flags, in one argument list of three
    st.sampled_from([[], [], [], [], ["--samples"], ["--coordinate-range"]])
    .flatmap(lambda flag: _option(*flag, st.integers(-1, 10)) if flag
             else st.just([]))),
    command=_COMMANDS)
def test_every_command_line_ends_in_a_documented_exit_code(options, command):
    """Random argument lists from the command grammar, the removed flags
    among them, end in exit code 0, 1 or 2 and raise nothing."""
    argv = [a for opt in options for pair in opt for a in pair] + command
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    # an exit 1 always says why
    assert code != 1 or err.getvalue().count("\n") == 1, argv
